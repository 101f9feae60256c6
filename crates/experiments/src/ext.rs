//! Extension experiments beyond the paper's five figures and one table.
//!
//! * [`gap`] — measures the individual-video greedy's optimality gap
//!   against the exact branch-and-bound solver on small random instances,
//!   making the paper's "within 15 % of optimal \[9\], hence ≈30 % overall"
//!   argument (§5.5/§6) empirically checkable.
//! * [`bandwidth`] — exercises the paper's stated future work: scheduling
//!   under link bandwidth constraints, reporting blocking probability and
//!   cost as link capacity varies.

use crate::{EnvParams, Preset};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use vod_core::{
    bandwidth_aware_solve, detect_link_overloads, find_optimal_video_schedule, find_video_schedule,
    ivsp_solve, sorp_solve, GreedyPolicy, SchedCtx, SorpConfig, StorageLedger,
};
use vod_cost_model::CostModel;
use vod_parallel::parallel_map;
use vod_topology::{builders, units};
use vod_workload::{generate_catalog, CatalogConfig};

// ---------------------------------------------------------------------
// Optimality gap
// ---------------------------------------------------------------------

/// Statistics from the optimality-gap sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GapResult {
    /// Instances measured.
    pub instances: usize,
    /// Instances where the greedy matched the optimum.
    pub optimal_hits: usize,
    /// Mean relative gap `(greedy − optimal) / optimal`.
    pub avg_gap: f64,
    /// Worst relative gap.
    pub max_gap: f64,
    /// Mean branch-and-bound nodes per instance.
    pub avg_nodes: f64,
}

impl GapResult {
    /// Render as a small report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Optimality gap of find_video_schedule vs exact B&B");
        let _ = writeln!(out, "{:<40}{:>10}", "Instances", self.instances);
        let _ = writeln!(
            out,
            "{:<40}{:>10} ({:.0} %)",
            "Greedy found the optimum",
            self.optimal_hits,
            100.0 * self.optimal_hits as f64 / self.instances.max(1) as f64
        );
        let _ = writeln!(out, "{:<40}{:>9.2} %", "Average gap", 100.0 * self.avg_gap);
        let _ = writeln!(out, "{:<40}{:>9.2} %", "Worst gap", 100.0 * self.max_gap);
        let _ = writeln!(out, "{:<40}{:>10.0}", "Avg B&B nodes", self.avg_nodes);
        let _ = writeln!(
            out,
            "(paper: the per-video heuristic is within ~15 % of optimal; overall ≈30 %)"
        );
        out
    }
}

/// Run the gap sweep: random small topologies and request groups, greedy
/// vs exact.
pub fn gap(preset: Preset) -> GapResult {
    let instances: usize = match preset {
        Preset::Paper => 400,
        Preset::Fast => 40,
    };

    let seeds: Vec<u64> = (0..instances as u64).collect();
    let gaps = parallel_map(&seeds, |&seed| {
        // Random 3–5 storage topology with heterogeneous rates.
        let mut rng = vod_workload::SplitMix64::new(seed.wrapping_mul(0x9E37) ^ 0x6A7);
        let storages = 3 + (rng.next_u64() % 3) as usize;
        let cfg = builders::GenConfig {
            storages,
            nrate_per_gb: rng.range_f64(100.0, 800.0),
            srate_per_gb_hour: rng.range_f64(0.0, 40.0),
            capacity_gb: 50.0, // phase 1 ignores capacity anyway
            users_per_neighborhood: 1,
        };
        let topo = builders::random_connected(&cfg, (rng.next_u64() % 4) as usize, seed);
        let catalog = generate_catalog(&CatalogConfig::small(2), seed ^ 0xC0FFEE);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);

        // One group of 2–5 requests at random users/times.
        let n_req = 2 + (rng.next_u64() % 4) as usize;
        let mut requests: Vec<vod_cost_model::Request> = (0..n_req)
            .map(|_| vod_cost_model::Request {
                user: vod_topology::UserId((rng.next_u64() % topo.user_count() as u64) as u32),
                video: vod_cost_model::VideoId(0),
                start: rng.range_f64(0.0, units::hours(24.0)),
            })
            .collect();
        requests.sort_by(|a, b| a.start.total_cmp(&b.start));

        let greedy =
            ctx.video_cost(&find_video_schedule(&ctx, &requests, GreedyPolicy::default(), None));
        let exact = find_optimal_video_schedule(&ctx, &requests)
            .expect("2–5 sorted requests of one video are within the exact solver's bounds");
        let gap = if exact.cost > 0.0 { (greedy - exact.cost) / exact.cost } else { 0.0 };
        (gap.max(0.0), exact.nodes_expanded)
    });

    let mut r =
        GapResult { instances, optimal_hits: 0, avg_gap: 0.0, max_gap: 0.0, avg_nodes: 0.0 };
    for &(gap, nodes) in &gaps {
        if gap <= 1e-9 {
            r.optimal_hits += 1;
        }
        r.avg_gap += gap;
        r.max_gap = r.max_gap.max(gap);
        r.avg_nodes += nodes as f64;
    }
    r.avg_gap /= instances.max(1) as f64;
    r.avg_nodes /= instances.max(1) as f64;
    r
}

// ---------------------------------------------------------------------
// Bandwidth-constrained scheduling
// ---------------------------------------------------------------------

/// One row of the bandwidth sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BandwidthRow {
    /// Concurrent 5 Mbps streams each link can carry.
    pub streams_per_link: f64,
    /// Blocking probability of the bandwidth-aware scheduler.
    pub blocking: f64,
    /// Ψ of the admitted schedule.
    pub cost: f64,
    /// Admitted deliveries.
    pub admitted: usize,
    /// Link overloads the *capacity-oblivious* two-phase schedule would
    /// have caused at this capacity.
    pub oblivious_overloads: usize,
}

/// Result of the bandwidth sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BandwidthResult {
    /// Total requests offered per cell.
    pub offered: usize,
    /// One row per capacity point.
    pub rows: Vec<BandwidthRow>,
}

impl BandwidthResult {
    /// Render as an aligned table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Bandwidth-constrained scheduling (paper future work, §6)");
        let _ = writeln!(out, "# offered requests per cell: {}", self.offered);
        let _ = writeln!(
            out,
            "{:>18}{:>12}{:>12}{:>12}{:>22}",
            "streams/link", "blocking", "admitted", "cost $", "oblivious overloads"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>18}{:>11.1}%{:>12}{:>12.0}{:>22}",
                r.streams_per_link,
                100.0 * r.blocking,
                r.admitted,
                r.cost,
                r.oblivious_overloads
            );
        }
        out
    }
}

/// Sweep per-link capacity and compare the bandwidth-aware scheduler with
/// the capacity-oblivious two-phase schedule.
pub fn bandwidth(preset: Preset) -> BandwidthResult {
    let base = EnvParams::for_preset(preset);
    let capacities: Vec<f64> = match preset {
        Preset::Paper => vec![1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0],
        Preset::Fast => vec![1.0, 4.0, 16.0],
    };

    // One workload for every capacity point: link bandwidth plays no part
    // in drawing it, so each point schedules the identical request set.
    let (topo, wl) = base.build();
    let requests = &wl.requests;
    let rows = parallel_map(&capacities, |&streams| {
        let mut topo = topo.clone();
        topo.set_uniform_bandwidth(Some(units::mbps(5.0) * streams)).expect("positive capacity");
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);

        let aware = bandwidth_aware_solve(&ctx, requests);
        let oblivious = sorp_solve(
            &ctx,
            ivsp_solve(&ctx, requests, GreedyPolicy::default()),
            &SorpConfig::default(),
            None,
        );
        let mut links = StorageLedger::new(&topo);
        links.add_streams(&topo, &wl.catalog, &oblivious.schedule);
        let overloads = detect_link_overloads(&topo, &links).len();

        BandwidthRow {
            streams_per_link: streams,
            blocking: aware.blocking_probability(requests.len()),
            cost: aware.cost,
            admitted: aware.schedule.delivery_count(),
            oblivious_overloads: overloads,
        }
    });

    BandwidthResult { offered: requests.len(), rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_fast_preset_is_consistent() {
        let r = gap(Preset::Fast);
        assert_eq!(r.instances, 40);
        assert!(r.optimal_hits <= r.instances);
        assert!(r.avg_gap >= 0.0);
        assert!(r.max_gap >= r.avg_gap);
        // The greedy should be optimal on a solid majority of tiny
        // instances and never catastrophically far off.
        assert!(
            r.optimal_hits * 2 > r.instances,
            "greedy optimal on only {}/{}",
            r.optimal_hits,
            r.instances
        );
        assert!(r.max_gap < 0.8, "worst gap {:.1} % is implausible", 100.0 * r.max_gap);
    }

    #[test]
    fn bandwidth_fast_preset_shapes() {
        let r = bandwidth(Preset::Fast);
        assert_eq!(r.rows.len(), 3);
        // Blocking is non-increasing in capacity.
        for w in r.rows.windows(2) {
            assert!(w[1].blocking <= w[0].blocking + 1e-9, "wider links blocked more: {w:?}");
        }
        // Generous capacity admits everything.
        let last = r.rows.last().unwrap();
        assert_eq!(last.blocking, 0.0);
        assert_eq!(last.admitted, r.offered);
        // The oblivious schedule overloads narrow links.
        assert!(r.rows[0].oblivious_overloads > 0);
        // Renders without panicking and carries the headline columns.
        let s = r.render();
        assert!(s.contains("blocking"));
    }
}
