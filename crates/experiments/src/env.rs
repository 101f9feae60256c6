//! One experiment cell: environment parameters → scheduled costs.

use serde::{Deserialize, Serialize};
use vod_core::{baselines, ivsp_solve, sorp_solve, GreedyPolicy, HeatMetric, SchedCtx, SorpConfig};
use vod_cost_model::CostModel;
use vod_topology::builders::{paper_fig4, PaperFig4Config};
use vod_workload::{CatalogConfig, RequestConfig, Workload};

/// Grid size selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Preset {
    /// The paper's full parameter grids (Table 4).
    Paper,
    /// Reduced grids and workload for smoke tests and CI.
    Fast,
}

/// The environment attributes the paper varies (Table 4), plus the
/// workload seed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EnvParams {
    /// Network charging rate, $/GB per hop. Paper: 300–1000.
    pub nrate_per_gb: f64,
    /// Storage charging rate, $/(GB·h). Paper: 3–8 (Figs. 5/6) and 0–300
    /// (Figs. 7/8).
    pub srate_per_gb_hour: f64,
    /// Intermediate storage size, GB. Paper: 5, 8, 11, 14.
    pub capacity_gb: f64,
    /// Zipf skew α (Dan–Sitaram convention). Paper: 0.1–0.7.
    pub zipf_alpha: f64,
    /// Titles in the catalog. Paper: 500.
    pub videos: usize,
    /// Users per neighborhood. Paper: 10.
    pub users_per_neighborhood: usize,
    /// Reservations per user per cycle. The paper does not state this;
    /// 3 reproduces the paper's level of overflow-resolution activity
    /// (see DESIGN.md, calibration note).
    pub requests_per_user: usize,
    /// Workload seed.
    pub seed: u64,
}

impl EnvParams {
    /// The paper's baseline cell: nrate 300, srate 3, 5 GB stores,
    /// α = 0.271, 500 titles, 10 users per neighborhood.
    pub fn paper() -> Self {
        Self {
            nrate_per_gb: 300.0,
            srate_per_gb_hour: 3.0,
            capacity_gb: 5.0,
            zipf_alpha: 0.271,
            videos: 500,
            users_per_neighborhood: 10,
            requests_per_user: 2,
            seed: 1997,
        }
    }

    /// A shrunk cell for fast runs (same topology, 60 titles, 6 users per
    /// neighborhood — popularity collisions stay dense enough to exercise
    /// overflow resolution).
    pub fn fast() -> Self {
        Self { videos: 60, users_per_neighborhood: 6, ..Self::paper() }
    }

    /// Baseline cell for a preset.
    pub fn for_preset(preset: Preset) -> Self {
        match preset {
            Preset::Paper => Self::paper(),
            Preset::Fast => Self::fast(),
        }
    }

    /// The cell's network: the paper's Fig. 4 at this cell's rates,
    /// capacity and users.
    pub fn network(&self) -> PaperFig4Config {
        PaperFig4Config {
            nrate_per_gb: self.nrate_per_gb,
            srate_per_gb_hour: self.srate_per_gb_hour,
            capacity_gb: self.capacity_gb,
            users_per_neighborhood: self.users_per_neighborhood,
            ..PaperFig4Config::default()
        }
    }

    /// Build the topology and workload for this cell.
    pub fn build(&self) -> (vod_topology::Topology, Workload) {
        let topo = paper_fig4(&self.network());
        let catalog_cfg = CatalogConfig { videos: self.videos, ..CatalogConfig::paper() };
        let request_cfg = RequestConfig {
            requests_per_user: self.requests_per_user,
            ..RequestConfig::with_alpha(self.zipf_alpha)
        };
        // The seed covers the catalog and the request pattern; α and the
        // seed fully determine the workload, so sweeping charging rates
        // re-prices the *same* request set, exactly like the paper's
        // controlled sweeps.
        let wl = Workload::generate(&topo, &catalog_cfg, &request_cfg, self.seed);
        (topo, wl)
    }
}

/// Costs measured for one cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EvalResult {
    /// Ψ of the resolved two-phase schedule.
    pub two_phase: f64,
    /// Ψ of the phase-1 (pre-resolution) schedule.
    pub phase1: f64,
    /// Ψ of the network-only baseline.
    pub network_only: f64,
    /// Resolution iterations performed.
    pub sorp_iterations: usize,
    /// Relative cost increase caused by overflow resolution.
    pub rel_increase: f64,
    /// Whether resolution changed the schedule at all.
    pub resolution_changed_cost: bool,
}

/// Run the full pipeline for one cell under one heat metric.
pub fn evaluate_cell(params: &EnvParams, metric: HeatMetric) -> EvalResult {
    let (topo, wl) = params.build();
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);

    let individual = ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default());
    let outcome = sorp_solve(&ctx, individual, &SorpConfig::with_metric(metric), None);
    debug_assert!(outcome.overflow_free);
    let network_only = ctx.schedule_cost(&baselines::network_only(&ctx, &wl.requests));

    EvalResult {
        two_phase: outcome.cost,
        phase1: outcome.initial_cost,
        network_only,
        sorp_iterations: outcome.iterations,
        rel_increase: outcome.relative_cost_increase(),
        resolution_changed_cost: outcome.resolved_anything(),
    }
}

/// Run the pipeline once and price the resolved schedule under **all
/// four** heat metrics, sharing the phase-1 schedule (which is metric-
/// independent). Returns results in `HeatMetric::ALL` order.
pub fn evaluate_cell_all_metrics(params: &EnvParams) -> [EvalResult; 4] {
    let (topo, wl) = params.build();
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);

    // Phase 1 is metric-independent: price it once, share the priced
    // schedule (memo included) across all four resolution runs.
    let individual = ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default());
    let network_only = ctx.schedule_cost(&baselines::network_only(&ctx, &wl.requests));

    HeatMetric::ALL.map(|metric| {
        let outcome = sorp_solve(&ctx, individual.clone(), &SorpConfig::with_metric(metric), None);
        EvalResult {
            two_phase: outcome.cost,
            phase1: outcome.initial_cost,
            network_only,
            sorp_iterations: outcome.iterations,
            rel_increase: outcome.relative_cost_increase(),
            resolution_changed_cost: outcome.resolved_anything(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_cell_runs_end_to_end() {
        let params = EnvParams::fast();
        let r = evaluate_cell(&params, HeatMetric::TimeSpacePerCost);
        assert!(r.two_phase > 0.0);
        assert!(r.network_only > 0.0);
        // Caching must beat the network-only system at the baseline rates.
        assert!(r.two_phase < r.network_only, "{} !< {}", r.two_phase, r.network_only);
        // Resolution can only add cost over phase 1.
        assert!(r.two_phase >= r.phase1 * 0.999);
        assert!(r.rel_increase >= -1e-9);
    }

    #[test]
    fn cells_are_deterministic() {
        let params = EnvParams::fast();
        let a = evaluate_cell(&params, HeatMetric::PeriodPerCost);
        let b = evaluate_cell(&params, HeatMetric::PeriodPerCost);
        assert_eq!(a.two_phase, b.two_phase);
        assert_eq!(a.sorp_iterations, b.sorp_iterations);
    }

    #[test]
    fn all_metrics_variant_matches_single_metric_runs() {
        let params = EnvParams::fast();
        let all = evaluate_cell_all_metrics(&params);
        for (i, metric) in HeatMetric::ALL.iter().enumerate() {
            let single = evaluate_cell(&params, *metric);
            assert_eq!(all[i].two_phase, single.two_phase, "metric {metric}");
        }
    }

    #[test]
    fn rate_sweep_reprices_the_same_workload() {
        // Different nrate, same seed → same request pattern, different
        // pricing: network-only cost scales exactly linearly with nrate.
        let a = evaluate_cell(
            &EnvParams { nrate_per_gb: 300.0, ..EnvParams::fast() },
            HeatMetric::TimeSpacePerCost,
        );
        let b = evaluate_cell(
            &EnvParams { nrate_per_gb: 600.0, ..EnvParams::fast() },
            HeatMetric::TimeSpacePerCost,
        );
        assert!((b.network_only / a.network_only - 2.0).abs() < 1e-9);
    }
}
