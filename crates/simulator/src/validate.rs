//! Structural schedule validation: request coverage, route existence,
//! data availability at stream sources, and residency feeds.

use crate::report::Violation;
use std::cmp::Ordering;
use vod_cost_model::{Request, Residency, Schedule};
use vod_topology::Topology;

/// Run every structural check, appending failures to `out`. `wanted` is
/// the request multiset the schedule must deliver, in
/// [`Request::batch_order`]; `inherited` the held copies its carried
/// residencies continue.
pub fn structural_checks(
    topo: &Topology,
    schedule: &Schedule,
    wanted: Option<&[Request]>,
    inherited: &[Residency],
    out: &mut Vec<Violation>,
) {
    check_routes(topo, schedule, out);
    check_sources(topo, schedule, out);
    check_residency_feeds(schedule, inherited, out);
    if let Some(wanted) = wanted {
        check_coverage(topo, schedule, wanted, out);
    }
}

/// One step of a merge over request lists in [`Request::batch_order`]:
/// skip everything in `sorted` that orders before `r`, then consume one
/// entry equal to `r` and report whether there was one. Callers feed it
/// ascending `r`s.
pub(crate) fn take_match<'a>(
    sorted: &mut std::iter::Peekable<impl Iterator<Item = &'a Request>>,
    r: &Request,
) -> bool {
    while sorted.next_if(|s| s.batch_order(r).is_lt()).is_some() {}
    sorted.next_if(|s| s.batch_order(r).is_eq()).is_some()
}

/// Every request must receive exactly one delivery, ending at the user's
/// local storage at the reserved time. A request's identity includes its
/// start time bit pattern: a user may reserve the same video twice at
/// different times.
///
/// Wrong destinations are reported first, in transfer order; the rest
/// comes from one merge of `wanted` against the sorted deliveries, so
/// duplicate, unrequested and missing deliveries appear in
/// [`Request::batch_order`] of their key.
///
/// Videos come in id order and a video's deliveries mostly in batch order
/// already (the greedy emits them in request order), so the deliveries
/// are sorted one video's run at a time, and only a run that is out of
/// order — a split video's, concatenated shard by shard — is sorted at
/// all. Requests that compare equal are bit-identical, so this is the
/// list a whole-list sort gives; a run that starts below the previous
/// one (a transfer filed under another video) falls back to that sort.
fn check_coverage(
    topo: &Topology,
    schedule: &Schedule,
    wanted: &[Request],
    out: &mut Vec<Violation>,
) {
    debug_assert!(wanted.windows(2).all(|w| w[0].batch_order(&w[1]).is_le()));
    let in_order = |a: &Request, b: &Request| a.batch_order(b).is_le();
    let mut delivered: Vec<Request> = Vec::with_capacity(wanted.len());
    let mut runs_in_order = true;
    for vs in schedule.videos() {
        let from = delivered.len();
        for t in &vs.transfers {
            let Some(user) = t.user else { continue };
            let expected = topo.home_of(user);
            if t.dst() != expected {
                out.push(Violation::WrongDestination { user, got: t.dst(), expected });
            }
            delivered.push(Request { user, video: t.video, start: t.start });
        }
        let run = &mut delivered[from..];
        if !run.is_sorted_by(in_order) {
            run.sort_by(Request::batch_order);
        }
        if let (Some(last), Some(first)) = (from.checked_sub(1), delivered.get(from)) {
            runs_in_order &= in_order(&delivered[last], first);
        }
    }
    if !runs_in_order {
        delivered.sort_by(Request::batch_order);
    }
    merge_coverage(wanted, &delivered, out);
}

/// The merge of [`check_coverage`]: `wanted` against the sorted
/// `delivered`, both in [`Request::batch_order`].
fn merge_coverage(wanted: &[Request], delivered: &[Request], out: &mut Vec<Violation>) {
    let (mut w, mut d) = (0, 0);
    while w < wanted.len() || d < delivered.len() {
        let order = match (wanted.get(w), delivered.get(d)) {
            (Some(want), Some(got)) => want.batch_order(got),
            (Some(_), None) => Ordering::Less,
            _ => Ordering::Greater,
        };
        match order {
            Ordering::Less => {
                let Request { user, video, start } = wanted[w];
                out.push(Violation::MissingDelivery { user, video, start });
                w += 1;
            }
            Ordering::Equal => {
                w += 1;
                d += 1;
            }
            Ordering::Greater => {
                let Request { user, video, start } = delivered[d];
                // An extra delivery of a key the batch holds (just
                // matched) is a duplicate; of an absent key, unrequested.
                if w > 0 && wanted[w - 1].batch_order(&delivered[d]).is_eq() {
                    out.push(Violation::DuplicateDelivery { user, video });
                } else {
                    out.push(Violation::UnrequestedDelivery { user, video, start });
                }
                d += 1;
            }
        }
    }
}

/// Every schedule time must be finite for the replay to order events.
/// Returns `false` (after reporting each offender) when any is not, in
/// which case the caller must skip the dynamic replay.
pub fn check_finite_times(schedule: &Schedule, out: &mut Vec<Violation>) -> bool {
    let mut ok = true;
    for t in schedule.transfers() {
        if !t.start.is_finite() {
            out.push(Violation::NonFiniteTime { video: t.video, time: t.start });
            ok = false;
        }
    }
    for r in schedule.residencies() {
        for time in [r.start, r.last_service] {
            if !time.is_finite() {
                out.push(Violation::NonFiniteTime { video: r.video, time });
                ok = false;
            }
        }
    }
    ok
}

/// Every consecutive route pair must be an actual link.
fn check_routes(topo: &Topology, schedule: &Schedule, out: &mut Vec<Violation>) {
    for t in schedule.transfers() {
        for hop in t.route.windows(2) {
            if topo.edge_between(hop[0], hop[1]).is_none() {
                out.push(Violation::BrokenRoute { video: t.video, from: hop[0], to: hop[1] });
            }
        }
    }
}

/// A stream may only originate at the warehouse or at a storage holding a
/// residency of its video whose interval covers the stream start.
fn check_sources(topo: &Topology, schedule: &Schedule, out: &mut Vec<Violation>) {
    for vs in schedule.videos() {
        for t in &vs.transfers {
            let src = t.src();
            if topo.is_warehouse(src) {
                continue;
            }
            let covered = vs
                .residencies
                .iter()
                .any(|r| r.loc == src && r.start <= t.start && t.start <= r.last_service);
            if !covered {
                out.push(Violation::SourceHasNoData { video: t.video, src, start: t.start });
            }
        }
    }
}

/// Every residency must be fed by a stream of its video that starts at the
/// caching start, passes the hosting storage, and arrives from the
/// residency's declared source — or, carried, by the inherited copy of
/// its video at its storage held until its start.
fn check_residency_feeds(schedule: &Schedule, inherited: &[Residency], out: &mut Vec<Violation>) {
    let mut held: Vec<_> =
        inherited.iter().map(|h| (h.video, h.loc, h.last_service.to_bits())).collect();
    held.sort_unstable();
    for vs in schedule.videos() {
        for r in &vs.residencies {
            let fed = if r.carried {
                held.binary_search(&(r.video, r.loc, r.start.to_bits())).is_ok()
            } else {
                vs.transfers.iter().any(|t| {
                    if t.start != r.start {
                        return false;
                    }
                    let Some(loc_pos) = t.route.iter().position(|&n| n == r.loc) else {
                        return false;
                    };
                    // The declared source must be on the route at or
                    // before the hosting storage.
                    t.route[..=loc_pos].contains(&r.src) || r.src == r.loc
                })
            };
            if !fed {
                out.push(Violation::ResidencyWithoutFeed {
                    video: r.video,
                    loc: r.loc,
                    start: r.start,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_cost_model::{RequestBatch, Residency, Transfer, Video, VideoId, VideoSchedule};
    use vod_topology::{builders, units, NodeId, UserId};

    fn topo() -> Topology {
        builders::paper_fig2(16.0, 8.0, 1.0, 5.0)
    }

    fn video() -> Video {
        Video::new(VideoId(0), units::gb(2.5), units::minutes(90.0), units::mbps(6.0))
    }

    fn req(user: u32, start: f64) -> Request {
        Request { user: UserId(user), video: VideoId(0), start }
    }

    fn batch(reqs: Vec<Request>) -> RequestBatch {
        RequestBatch::new(reqs)
    }

    fn run(schedule: &Schedule, b: Option<&RequestBatch>) -> Vec<Violation> {
        let wanted: Option<Vec<Request>> = b.map(|b| b.iter().copied().collect());
        let mut out = Vec::new();
        structural_checks(&topo(), schedule, wanted.as_deref(), &[], &mut out);
        out
    }

    #[test]
    fn valid_direct_schedule_passes() {
        let t = topo();
        let _v = video();
        let r = req(0, 100.0);
        let mut vs = VideoSchedule::new(VideoId(0));
        vs.transfers.push(Transfer {
            video: VideoId(0),
            route: vec![t.warehouse(), NodeId(1)].into(),
            start: 100.0,
            user: Some(UserId(0)),
        });
        let mut s = Schedule::new();
        s.upsert(vs);
        assert!(run(&s, Some(&batch(vec![r]))).is_empty());
    }

    #[test]
    fn missing_delivery_detected() {
        let s = Schedule::new();
        let v = run(&s, Some(&batch(vec![req(0, 100.0)])));
        assert!(matches!(v[0], Violation::MissingDelivery { user: UserId(0), .. }));
    }

    #[test]
    fn missing_deliveries_are_listed_in_batch_order() {
        let t = topo();
        let at = |user: u32, video: u32, start: f64| Request {
            user: UserId(user),
            video: VideoId(video),
            start,
        };
        // One of four reservations is answered; the other three are
        // offered in an order that is not the batch's.
        let served = at(0, 0, 200.0);
        let b = batch(vec![at(3, 1, 50.0), at(2, 0, 300.0), served, at(1, 0, 300.0)]);
        let mut vs = VideoSchedule::new(VideoId(0));
        vs.transfers.push(Transfer {
            video: served.video,
            route: vec![t.warehouse(), t.home_of(served.user)].into(),
            start: served.start,
            user: Some(served.user),
        });
        let mut s = Schedule::new();
        s.upsert(vs);
        let missing = |r: Request| Violation::MissingDelivery {
            user: r.user,
            video: r.video,
            start: r.start,
        };
        let expected =
            vec![missing(at(1, 0, 300.0)), missing(at(2, 0, 300.0)), missing(at(3, 1, 50.0))];
        for _ in 0..2 {
            assert_eq!(run(&s, Some(&b)), expected);
        }
    }

    /// `check_coverage` as it stood before it sorted by video run: every
    /// delivery collected, then the whole list sorted.
    fn check_coverage_whole_sort(
        topo: &Topology,
        schedule: &Schedule,
        wanted: &[Request],
        out: &mut Vec<Violation>,
    ) {
        let mut delivered: Vec<Request> = Vec::with_capacity(wanted.len());
        for t in schedule.transfers() {
            let Some(user) = t.user else { continue };
            let expected = topo.home_of(user);
            if t.dst() != expected {
                out.push(Violation::WrongDestination { user, got: t.dst(), expected });
            }
            delivered.push(Request { user, video: t.video, start: t.start });
        }
        delivered.sort_by(Request::batch_order);
        merge_coverage(wanted, &delivered, out);
    }

    #[test]
    fn a_split_videos_out_of_order_run_reports_like_a_whole_list_sort() {
        let t = topo();
        let at = |user: u32, video: u32, start: f64| Request {
            user: UserId(user),
            video: VideoId(video),
            start,
        };
        let deliver = |vs: &mut VideoSchedule, r: Request| {
            vs.transfers.push(Transfer {
                video: r.video,
                route: vec![t.warehouse(), t.home_of(r.user)].into(),
                start: r.start,
                user: Some(r.user),
            });
        };
        // Video 0 was split across two shards and merged shard by shard:
        // the second shard's deliveries start earlier than the first's
        // end. One reservation is delivered twice, one not at all.
        let mut split = VideoSchedule::new(VideoId(0));
        for r in [at(1, 0, 100.0), at(2, 0, 300.0), at(0, 0, 50.0), at(2, 0, 300.0)] {
            deliver(&mut split, r);
        }
        deliver(&mut split, at(0, 0, 200.0));
        let mut whole = VideoSchedule::new(VideoId(1));
        deliver(&mut whole, at(2, 1, 10.0));
        let mut s = Schedule::new();
        s.upsert(split);
        s.upsert(whole);
        let wanted: Vec<Request> = batch(vec![
            at(0, 0, 200.0),
            at(1, 0, 100.0),
            at(2, 0, 300.0),
            at(0, 0, 50.0),
            at(1, 0, 400.0),
            at(2, 1, 10.0),
        ])
        .iter()
        .copied()
        .collect();

        let (mut by_run, mut whole_sort) = (Vec::new(), Vec::new());
        check_coverage(&t, &s, &wanted, &mut by_run);
        check_coverage_whole_sort(&t, &s, &wanted, &mut whole_sort);
        assert_eq!(by_run, whole_sort);
        assert_eq!(
            by_run,
            vec![
                Violation::DuplicateDelivery { user: UserId(2), video: VideoId(0) },
                Violation::MissingDelivery { user: UserId(1), video: VideoId(0), start: 400.0 },
            ]
        );
    }

    #[test]
    fn duplicate_delivery_detected() {
        let t = topo();
        let mut vs = VideoSchedule::new(VideoId(0));
        for _ in 0..2 {
            vs.transfers.push(Transfer {
                video: VideoId(0),
                route: vec![t.warehouse(), NodeId(1)].into(),
                start: 100.0,
                user: Some(UserId(0)),
            });
        }
        let mut s = Schedule::new();
        s.upsert(vs);
        let v = run(&s, Some(&batch(vec![req(0, 100.0)])));
        assert!(v.iter().any(|x| matches!(x, Violation::DuplicateDelivery { .. })));
    }

    #[test]
    fn unrequested_delivery_is_distinct_from_duplicate() {
        let t = topo();
        // Nobody asked for video 0 at t=100 — the batch wants t=500 only.
        let mut vs = VideoSchedule::new(VideoId(0));
        vs.transfers.push(Transfer {
            video: VideoId(0),
            route: vec![t.warehouse(), NodeId(1)].into(),
            start: 100.0,
            user: Some(UserId(0)),
        });
        let mut s = Schedule::new();
        s.upsert(vs);
        let v = run(&s, Some(&batch(vec![req(0, 500.0)])));
        assert!(
            v.iter().any(|x| matches!(
                x,
                Violation::UnrequestedDelivery { user: UserId(0), video: VideoId(0), start }
                    if *start == 100.0
            )),
            "over-delivery must be reported as unrequested, got {v:?}"
        );
        assert!(
            !v.iter().any(|x| matches!(x, Violation::DuplicateDelivery { .. })),
            "an absent key is not a duplicate: {v:?}"
        );
        // The unanswered reservation is still missing.
        assert!(v.iter().any(|x| matches!(x, Violation::MissingDelivery { .. })));
    }

    #[test]
    fn non_finite_times_are_reported_and_fail_the_check() {
        let t = topo();
        let mut vs = VideoSchedule::new(VideoId(0));
        vs.transfers.push(Transfer {
            video: VideoId(0),
            route: vec![t.warehouse(), NodeId(1)].into(),
            start: f64::NAN,
            user: Some(UserId(0)),
        });
        let mut s = Schedule::new();
        s.upsert(vs);
        let mut out = Vec::new();
        assert!(!check_finite_times(&s, &mut out));
        assert!(matches!(out[0], Violation::NonFiniteTime { video: VideoId(0), .. }));

        let mut clean = Vec::new();
        assert!(check_finite_times(&Schedule::new(), &mut clean));
        assert!(clean.is_empty());
    }

    #[test]
    fn wrong_destination_detected() {
        let t = topo();
        // User 0 lives at IS1 but the stream terminates at IS2.
        let mut vs = VideoSchedule::new(VideoId(0));
        vs.transfers.push(Transfer {
            video: VideoId(0),
            route: vec![t.warehouse(), NodeId(1), NodeId(2)].into(),
            start: 100.0,
            user: Some(UserId(0)),
        });
        let mut s = Schedule::new();
        s.upsert(vs);
        let v = run(&s, Some(&batch(vec![req(0, 100.0)])));
        assert!(v.iter().any(|x| matches!(x, Violation::WrongDestination { got: NodeId(2), .. })));
    }

    #[test]
    fn broken_route_detected() {
        let t = topo();
        // VW and IS2 are not directly connected in the fig2 line topology.
        let mut vs = VideoSchedule::new(VideoId(0));
        vs.transfers.push(Transfer {
            video: VideoId(0),
            route: vec![t.warehouse(), NodeId(2)].into(),
            start: 100.0,
            user: None,
        });
        let mut s = Schedule::new();
        s.upsert(vs);
        let v = run(&s, None);
        assert!(matches!(v[0], Violation::BrokenRoute { from: NodeId(0), to: NodeId(2), .. }));
    }

    #[test]
    fn source_without_data_detected() {
        // Stream claims to come from IS1 but no residency covers it there.
        let mut vs = VideoSchedule::new(VideoId(0));
        vs.transfers.push(Transfer {
            video: VideoId(0),
            route: vec![NodeId(1), NodeId(2)].into(),
            start: 100.0,
            user: None,
        });
        let mut s = Schedule::new();
        s.upsert(vs);
        let v = run(&s, None);
        assert!(matches!(v[0], Violation::SourceHasNoData { src: NodeId(1), .. }));
    }

    #[test]
    fn cache_source_with_covering_residency_passes() {
        let t = topo();
        let mut vs = VideoSchedule::new(VideoId(0));
        // Fill stream at t=50 creates the copy at IS1…
        vs.transfers.push(Transfer {
            video: VideoId(0),
            route: vec![t.warehouse(), NodeId(1)].into(),
            start: 50.0,
            user: Some(UserId(0)),
        });
        // …and a later stream serves from it.
        vs.transfers.push(Transfer {
            video: VideoId(0),
            route: vec![NodeId(1), NodeId(2)].into(),
            start: 100.0,
            user: Some(UserId(1)),
        });
        let mut r = Residency::begin(NodeId(1), t.warehouse(), req(0, 50.0));
        r.extend(req(1, 100.0));
        vs.residencies.push(r);
        let mut s = Schedule::new();
        s.upsert(vs);
        assert!(run(&s, None).is_empty());
    }

    /// One video cached twice at IS1, over `[50, 100]` and `[5000, 9000]`,
    /// with one stream out of each copy, plus an extra stream from IS1 at
    /// `extra` when given.
    fn two_copies_at_one_storage(extra: Option<f64>) -> Schedule {
        let t = topo();
        let mut vs = VideoSchedule::new(VideoId(0));
        let stream = |route: Vec<NodeId>, start: f64, user: u32| Transfer {
            video: VideoId(0),
            route: route.into(),
            start,
            user: Some(UserId(user)),
        };
        for (fill, serve) in [(50.0, 100.0), (5_000.0, 9_000.0)] {
            vs.transfers.push(stream(vec![t.warehouse(), NodeId(1)], fill, 0));
            vs.transfers.push(stream(vec![NodeId(1), NodeId(2)], serve, 1));
            let mut r = Residency::begin(NodeId(1), t.warehouse(), req(0, fill));
            r.extend(req(1, serve));
            vs.residencies.push(r);
        }
        if let Some(start) = extra {
            vs.transfers.push(stream(vec![NodeId(1), NodeId(2)], start, 1));
        }
        let mut s = Schedule::new();
        s.upsert(vs);
        s
    }

    #[test]
    fn a_stream_covered_by_the_second_copy_at_its_source_passes() {
        assert!(run(&two_copies_at_one_storage(None), None).is_empty());
    }

    #[test]
    fn a_stream_between_two_copies_at_its_source_has_no_data() {
        let v = run(&two_copies_at_one_storage(Some(2_000.0)), None);
        assert_eq!(
            v,
            [Violation::SourceHasNoData { video: VideoId(0), src: NodeId(1), start: 2_000.0 }]
        );
    }

    #[test]
    fn unfed_residency_detected() {
        let t = topo();
        let mut vs = VideoSchedule::new(VideoId(0));
        // A residency with no transfer passing IS1 at its start.
        vs.residencies.push(Residency::begin(NodeId(1), t.warehouse(), req(0, 500.0)));
        let mut s = Schedule::new();
        s.upsert(vs);
        let v = run(&s, None);
        assert!(matches!(v[0], Violation::ResidencyWithoutFeed { loc: NodeId(1), .. }));
    }

    #[test]
    fn stream_after_last_service_is_flagged() {
        let t = topo();
        let mut vs = VideoSchedule::new(VideoId(0));
        vs.transfers.push(Transfer {
            video: VideoId(0),
            route: vec![t.warehouse(), NodeId(1)].into(),
            start: 50.0,
            user: Some(UserId(0)),
        });
        // Residency's last service is at 50; pulling from it at 9999 is
        // reading dropped blocks.
        vs.transfers.push(Transfer {
            video: VideoId(0),
            route: vec![NodeId(1), NodeId(2)].into(),
            start: 9_999.0,
            user: Some(UserId(1)),
        });
        vs.residencies.push(Residency::begin(NodeId(1), t.warehouse(), req(0, 50.0)));
        let mut s = Schedule::new();
        s.upsert(vs);
        let v = run(&s, None);
        assert!(v.iter().any(|x| matches!(x, Violation::SourceHasNoData { .. })));
    }
}
