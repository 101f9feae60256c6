//! Text rendering of schedules: a per-storage occupancy timeline (the
//! picture in the paper's Fig. 3, as ASCII) and a per-video schedule
//! summary.

use std::fmt::Write as _;
use vod_cost_model::{Catalog, Schedule, Secs};
use vod_topology::{units, NodeId, Topology};

/// Render an ASCII occupancy timeline for one storage: each row is a time
/// bucket, each bar is proportional to occupancy, with the capacity line
/// marked (`|`) and over-capacity cells drawn with `#`.
pub fn occupancy_timeline(
    topo: &Topology,
    catalog: &Catalog,
    schedule: &Schedule,
    loc: NodeId,
    buckets: usize,
    width: usize,
) -> String {
    assert!(buckets > 0 && width > 0, "need at least one bucket and one column");
    let profiles: Vec<_> = schedule
        .residencies_at(loc)
        .map(|r| r.profile(catalog.get(r.video)))
        .filter(|p| p.peak() > 0.0)
        .collect();

    let capacity = topo.capacity(loc);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "occupancy at {} (capacity {:.1} GB, {} cached cop{})",
        topo.node(loc).name,
        capacity / units::GB,
        profiles.len(),
        if profiles.len() == 1 { "y" } else { "ies" },
    );
    if profiles.is_empty() {
        let _ = writeln!(out, "  (storage never used)");
        return out;
    }

    let t0 = profiles.iter().map(|p| p.start).fold(f64::INFINITY, f64::min);
    let t1 = profiles.iter().map(|p| p.end).fold(f64::NEG_INFINITY, f64::max);
    let span = (t1 - t0).max(1.0);
    let max_scale = capacity.min(1e18).max(profiles.iter().map(|p| p.peak()).sum::<f64>());

    for b in 0..buckets {
        let t = t0 + span * (b as f64 + 0.5) / buckets as f64;
        let usage: f64 = profiles.iter().map(|p| p.space_at(t)).sum();
        let frac = (usage / max_scale).clamp(0.0, 1.0);
        let cells = (frac * width as f64).round() as usize;
        let cap_col = ((capacity / max_scale).clamp(0.0, 1.0) * width as f64).round() as usize;
        let over = usage > capacity * (1.0 + 1e-9);
        let bar: String = (0..width)
            .map(|c| {
                if c < cells {
                    if over {
                        '#'
                    } else {
                        '='
                    }
                } else if c == cap_col {
                    '|'
                } else {
                    ' '
                }
            })
            .collect();
        let _ =
            writeln!(out, "  {:>7.2}h [{}] {:>6.2} GB", (t - t0) / 3600.0, bar, usage / units::GB);
    }
    out
}

/// One-line-per-stream schedule summary for a video, chronological.
pub fn video_schedule_summary(
    topo: &Topology,
    schedule: &Schedule,
    video: vod_cost_model::VideoId,
) -> String {
    let Some(vs) = schedule.video(video) else {
        return format!("video {video}: not scheduled\n");
    };
    let mut lines: Vec<(Secs, String)> = Vec::new();
    for t in &vs.transfers {
        let hops: Vec<String> = t.route.iter().map(|n| topo.node(*n).name.clone()).collect();
        let who = match t.user {
            Some(u) => format!("deliver to {u}"),
            None => "cache fill".to_string(),
        };
        lines.push((
            t.start,
            format!("{:>8.2}h  {}  via {}", t.start / 3600.0, who, hops.join("->")),
        ));
    }
    for r in &vs.residencies {
        if r.duration() > 0.0 {
            lines.push((
                r.start,
                format!(
                    "{:>8.2}h  copy at {} from {} held {:.2}h serving {} requests",
                    r.start / 3600.0,
                    topo.node(r.loc).name,
                    topo.node(r.src).name,
                    r.duration() / 3600.0,
                    r.services.len()
                ),
            ));
        }
    }
    lines.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out = format!("schedule for video {video}:\n");
    for (_, l) in lines {
        out.push_str(&l);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_cost_model::{CostModel, Request, Residency, Transfer, Video, VideoId, VideoSchedule};
    use vod_topology::{builders, UserId};

    fn setup() -> (Topology, Catalog, Schedule) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, 3.0);
        let video = Video::new(VideoId(0), units::gb(2.5), units::minutes(90.0), units::mbps(6.0));
        let catalog = Catalog::new(vec![video]);
        let r0 = Request { user: UserId(0), video: VideoId(0), start: 0.0 };
        let r1 = Request { user: UserId(1), video: VideoId(0), start: 7_200.0 };
        let mut vs = VideoSchedule::new(VideoId(0));
        vs.transfers.push(Transfer {
            video: VideoId(0),
            route: vec![topo.warehouse(), NodeId(1)].into(),
            start: 0.0,
            user: Some(UserId(0)),
        });
        vs.transfers.push(Transfer {
            video: VideoId(0),
            route: vec![NodeId(1), NodeId(2)].into(),
            start: 7_200.0,
            user: Some(UserId(1)),
        });
        let mut copy = Residency::begin(NodeId(1), topo.warehouse(), r0);
        copy.extend(r1);
        vs.residencies.push(copy);
        let mut s = Schedule::new();
        s.upsert(vs);
        let _ = CostModel::per_hop();
        (topo, catalog, s)
    }

    #[test]
    fn timeline_shows_occupancy_and_capacity() {
        let (topo, catalog, s) = setup();
        let text = occupancy_timeline(&topo, &catalog, &s, NodeId(1), 8, 30);
        assert!(text.contains("occupancy at IS1"));
        assert!(text.contains("capacity 3.0 GB"));
        assert!(text.contains('='), "bars expected:\n{text}");
        assert!(text.contains("2.50 GB"), "plateau value expected:\n{text}");
    }

    #[test]
    fn timeline_handles_unused_storage() {
        let (topo, catalog, s) = setup();
        let text = occupancy_timeline(&topo, &catalog, &s, NodeId(2), 4, 20);
        assert!(text.contains("never used"));
    }

    #[test]
    fn over_capacity_cells_use_hash_marks() {
        let (topo, catalog, mut s) = setup();
        // Duplicate the copy via a second video to exceed 3 GB.
        let video2 = Video::new(VideoId(1), units::gb(2.5), units::minutes(90.0), units::mbps(6.0));
        let catalog = Catalog::new(vec![*catalog.get(VideoId(0)), video2]);
        let r = Request { user: UserId(0), video: VideoId(1), start: 0.0 };
        let r2 = Request { user: UserId(1), video: VideoId(1), start: 7_200.0 };
        let mut vs = VideoSchedule::new(VideoId(1));
        let mut copy = Residency::begin(NodeId(1), topo.warehouse(), r);
        copy.extend(r2);
        vs.residencies.push(copy);
        s.upsert(vs);
        let text = occupancy_timeline(&topo, &catalog, &s, NodeId(1), 8, 30);
        assert!(text.contains('#'), "over-capacity marks expected:\n{text}");
    }

    #[test]
    fn summary_lists_streams_and_copies_in_time_order() {
        let (topo, _catalog, s) = setup();
        let text = video_schedule_summary(&topo, &s, VideoId(0));
        assert!(text.contains("deliver to u0"));
        assert!(text.contains("deliver to u1"));
        assert!(text.contains("copy at IS1 from VW"));
        let pos0 = text.find("deliver to u0").unwrap();
        let pos1 = text.find("deliver to u1").unwrap();
        assert!(pos0 < pos1, "chronological order expected");
        // Unknown video handled gracefully.
        assert!(video_schedule_summary(&topo, &s, VideoId(9)).contains("not scheduled"));
    }
}
