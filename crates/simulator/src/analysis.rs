//! Post-hoc schedule analysis: where the money goes, how evenly the
//! storages are used, and how the caching structure looks — the numbers
//! an operator would study after running the scheduler.

use std::fmt::Write as _;
use vod_cost_model::{Catalog, CostModel, Dollars, Schedule};
use vod_topology::{units, NodeId, Topology};

/// Per-storage usage summary.
#[derive(Clone, Debug)]
pub struct StorageStats {
    /// The storage.
    pub loc: NodeId,
    /// Cached copies hosted (non-degenerate residencies).
    pub copies: usize,
    /// Peak occupancy, bytes.
    pub peak_bytes: f64,
    /// Peak occupancy as a fraction of capacity (0 when capacity is
    /// infinite).
    pub peak_utilization: f64,
    /// Storage dollars charged at this site.
    pub storage_cost: Dollars,
}

/// Per-video cost line.
#[derive(Clone, Debug)]
pub struct VideoCostLine {
    /// The video.
    pub video: vod_cost_model::VideoId,
    /// Requests delivered.
    pub deliveries: usize,
    /// Total Ψ for this video.
    pub cost: Dollars,
}

/// Full schedule analysis.
#[derive(Clone, Debug)]
pub struct ScheduleAnalysis {
    /// Total Ψ.
    pub total_cost: Dollars,
    /// Network component.
    pub network_cost: Dollars,
    /// Storage component.
    pub storage_cost: Dollars,
    /// Per-storage stats, in node order.
    pub storages: Vec<StorageStats>,
    /// The most expensive videos first.
    pub top_videos: Vec<VideoCostLine>,
    /// Histogram of delivery hop counts (`hops[h]` = deliveries crossing
    /// `h` charged hops).
    pub hop_histogram: Vec<usize>,
    /// Cached copies across all storages.
    pub cached_copies: usize,
    /// Long residencies (duration ≥ playback).
    pub long_residencies: usize,
    /// Mean residency duration (hours) over non-degenerate copies.
    pub mean_residency_hours: f64,
    /// Load imbalance: peak-occupancy max / mean over storages that were
    /// used at all (1.0 = perfectly even; 0 when nothing is cached).
    pub imbalance: f64,
}

impl ScheduleAnalysis {
    /// Compute the analysis.
    pub fn of(topo: &Topology, catalog: &Catalog, model: &CostModel, schedule: &Schedule) -> Self {
        let (network_cost, storage_cost) = model.schedule_cost_split(topo, catalog, schedule);

        // Per-storage peaks from residency profiles (piecewise linear:
        // evaluate the aggregate at every profile start).
        let mut storages = Vec::new();
        for loc in topo.storages() {
            let profiles: Vec<_> = schedule
                .residencies_at(loc)
                .map(|r| r.profile(catalog.get(r.video)))
                .filter(|p| p.peak() > 0.0)
                .collect();
            let mut peak = 0.0f64;
            for p in &profiles {
                let at_start: f64 = profiles.iter().map(|q| q.space_at(p.start)).sum();
                peak = peak.max(at_start);
            }
            let cost: Dollars = schedule
                .residencies_at(loc)
                .map(|r| model.residency_cost(topo, catalog.get(r.video), r))
                .sum();
            let capacity = topo.capacity(loc);
            storages.push(StorageStats {
                loc,
                copies: profiles.len(),
                peak_bytes: peak,
                peak_utilization: if capacity.is_finite() && capacity > 0.0 {
                    peak / capacity
                } else {
                    0.0
                },
                storage_cost: cost,
            });
        }

        let mut top_videos: Vec<VideoCostLine> = schedule
            .videos()
            .map(|vs| VideoCostLine {
                video: vs.video,
                deliveries: vs.delivery_count(),
                cost: model.video_schedule_cost(topo, catalog.get(vs.video), vs),
            })
            .collect();
        top_videos.sort_by(|a, b| b.cost.total_cmp(&a.cost).then(a.video.cmp(&b.video)));

        let mut hop_histogram = Vec::new();
        for t in schedule.transfers() {
            if t.user.is_some() {
                let h = t.hop_count();
                if hop_histogram.len() <= h {
                    hop_histogram.resize(h + 1, 0);
                }
                hop_histogram[h] += 1;
            }
        }

        let mut cached_copies = 0;
        let mut long_residencies = 0;
        let mut dur_sum = 0.0;
        for r in schedule.residencies() {
            if r.duration() > 0.0 {
                cached_copies += 1;
                dur_sum += r.duration();
                if r.is_long(catalog.get(r.video).playback) {
                    long_residencies += 1;
                }
            }
        }
        let mean_residency_hours =
            if cached_copies > 0 { dur_sum / cached_copies as f64 / 3600.0 } else { 0.0 };

        let used: Vec<f64> = storages.iter().map(|s| s.peak_bytes).filter(|&p| p > 0.0).collect();
        let imbalance = if used.is_empty() {
            0.0
        } else {
            let max = used.iter().cloned().fold(0.0, f64::max);
            let mean = used.iter().sum::<f64>() / used.len() as f64;
            max / mean
        };

        Self {
            total_cost: network_cost + storage_cost,
            network_cost,
            storage_cost,
            storages,
            top_videos,
            hop_histogram,
            cached_copies,
            long_residencies,
            mean_residency_hours,
            imbalance,
        }
    }

    /// Render a compact operator report.
    pub fn render(&self, topo: &Topology, top_n: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "total ${:.0} = network ${:.0} + storage ${:.0}",
            self.total_cost, self.network_cost, self.storage_cost
        );
        let _ = writeln!(
            out,
            "{} cached copies ({} long), mean stay {:.2} h, load imbalance {:.2}",
            self.cached_copies, self.long_residencies, self.mean_residency_hours, self.imbalance
        );
        let _ = write!(out, "delivery hops:");
        for (h, n) in self.hop_histogram.iter().enumerate() {
            let _ = write!(out, " {h}:{n}");
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "busiest storages (peak utilization):");
        let mut by_util: Vec<&StorageStats> = self.storages.iter().collect();
        by_util.sort_by(|a, b| b.peak_utilization.total_cmp(&a.peak_utilization));
        for s in by_util.iter().take(top_n) {
            let _ = writeln!(
                out,
                "  {:<4} {:>5.1} % of capacity, {} copies, ${:.0}, peak {:.2} GB",
                topo.node(s.loc).name,
                100.0 * s.peak_utilization,
                s.copies,
                s.storage_cost,
                s.peak_bytes / units::GB,
            );
        }
        let _ = writeln!(out, "most expensive videos:");
        for v in self.top_videos.iter().take(top_n) {
            let _ = writeln!(
                out,
                "  {:<6} {:>3} deliveries  ${:.0}",
                v.video.to_string(),
                v.deliveries,
                v.cost
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_core::{
        baselines, ivsp_solve_priced, sorp_solve_priced, ExecMode, SchedCtx, SorpConfig,
    };
    use vod_topology::builders;
    use vod_workload::{CatalogConfig, RequestConfig, Workload};

    fn world() -> (Topology, Workload, CostModel, Schedule) {
        let topo = builders::paper_fig4(&builders::PaperFig4Config::default());
        let wl = Workload::generate(
            &topo,
            &CatalogConfig::small(60),
            &RequestConfig { requests_per_user: 2, ..RequestConfig::paper() },
            8,
        );
        let model = CostModel::per_hop();
        let schedule = {
            let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
            sorp_solve_priced(
                &ctx,
                ivsp_solve_priced(&ctx, &wl.requests),
                &SorpConfig::default(),
                &[],
                ExecMode::Sequential,
            )
            .schedule
        };
        (topo, wl, model, schedule)
    }

    #[test]
    fn components_sum_to_total() {
        let (topo, wl, model, schedule) = world();
        let a = ScheduleAnalysis::of(&topo, &wl.catalog, &model, &schedule);
        assert!((a.network_cost + a.storage_cost - a.total_cost).abs() < 1e-9);
        let direct = model.schedule_cost(&topo, &wl.catalog, &schedule);
        assert!((a.total_cost - direct).abs() < 1e-6);
    }

    #[test]
    fn per_storage_costs_sum_to_storage_component() {
        let (topo, wl, model, schedule) = world();
        let a = ScheduleAnalysis::of(&topo, &wl.catalog, &model, &schedule);
        let sum: f64 = a.storages.iter().map(|s| s.storage_cost).sum();
        assert!((sum - a.storage_cost).abs() < 1e-6);
    }

    #[test]
    fn per_video_costs_sum_to_total() {
        let (topo, wl, model, schedule) = world();
        let a = ScheduleAnalysis::of(&topo, &wl.catalog, &model, &schedule);
        let sum: f64 = a.top_videos.iter().map(|v| v.cost).sum();
        assert!((sum - a.total_cost).abs() < 1e-6);
        // Sorted descending by cost.
        for w in a.top_videos.windows(2) {
            assert!(w[0].cost >= w[1].cost);
        }
    }

    #[test]
    fn hop_histogram_counts_every_delivery() {
        let (topo, wl, model, schedule) = world();
        let a = ScheduleAnalysis::of(&topo, &wl.catalog, &model, &schedule);
        assert_eq!(a.hop_histogram.iter().sum::<usize>(), wl.requests.len());
    }

    #[test]
    fn utilization_respects_capacity_after_resolution() {
        let (topo, wl, model, schedule) = world();
        let a = ScheduleAnalysis::of(&topo, &wl.catalog, &model, &schedule);
        for s in &a.storages {
            assert!(
                s.peak_utilization <= 1.0 + 1e-9,
                "{} over-utilised after resolution: {}",
                s.loc,
                s.peak_utilization
            );
        }
    }

    #[test]
    fn network_only_analysis_is_all_network() {
        let (topo, wl, model, _) = world();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let s = baselines::network_only(&ctx, &wl.requests);
        let a = ScheduleAnalysis::of(&topo, &wl.catalog, &model, &s);
        assert_eq!(a.storage_cost, 0.0);
        assert_eq!(a.cached_copies, 0);
        assert_eq!(a.imbalance, 0.0);
        assert_eq!(a.mean_residency_hours, 0.0);
        // No zero-hop deliveries from the warehouse.
        assert_eq!(a.hop_histogram.first().copied().unwrap_or(0), 0);
    }

    #[test]
    fn render_includes_headlines() {
        let (topo, wl, model, schedule) = world();
        let a = ScheduleAnalysis::of(&topo, &wl.catalog, &model, &schedule);
        let text = a.render(&topo, 3);
        assert!(text.contains("network $"));
        assert!(text.contains("busiest storages"));
        assert!(text.contains("most expensive videos"));
    }
}
