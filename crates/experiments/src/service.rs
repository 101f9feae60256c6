//! Service experiments: the paper's environment run cycle after cycle
//! through `vod_core::service`'s intake queue, degradation ladder, and
//! backoff pipeline.
//!
//! [`service_horizon`] builds the topology, catalog, cost model and an
//! arrival trace ([`vod_workload::generate_arrivals`]: one fresh
//! workload draw per cycle, shifted onto that cycle's window) and hands
//! them to [`vod_core::service_run`]. Under [`ServiceParams::default`] —
//! no queue bound, no budget, no burst, no faults — every cycle is the
//! full warm sharded solve of its window's batch (`vodx cycles`; the
//! `service_props` suite asserts the equivalence, a test below pins the
//! numbers); with them it exercises admission control, the ladder, and
//! overload shedding under the exact environment the paper's
//! experiments use (`vodx service`). Copies cached late in cycle `k` are
//! still draining when cycle `k+1` starts; the loop's book carries them
//! into the next solve, so capacity commitments cross the cycle boundary
//! exactly as they would on real disks.

use crate::EnvParams;
use serde::{Deserialize, Serialize};
use vod_core::{service_run, SchedCtx, ServiceConfig, ServiceCycleOutcome, ServiceReport};
use vod_cost_model::CostModel;
use vod_workload::{
    generate_arrivals, generate_catalog, ArrivalConfig, CatalogConfig, RequestConfig,
};

/// Service-frontend knobs layered over an [`EnvParams`] environment.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ServiceParams {
    /// Intake queue bound (`None` = unbounded).
    pub queue_bound: Option<usize>,
    /// Per-cycle deadline budget in simulated nanoseconds (`None` =
    /// infinite; the ladder never engages).
    pub budget_ns: Option<f64>,
    /// Overload bursts: `(cycle, multiplier)` scaling that cycle's
    /// arrival rate.
    pub burst: Vec<(usize, usize)>,
    /// Stop generating arrivals after this many cycles (`None` = the
    /// whole run). Later cycles run as idle service ticks — they still
    /// appear in the report.
    pub trace_cycles: Option<usize>,
}

/// The catalog a service horizon run over `params` uses — the same
/// seed-splitting convention as [`vod_workload::Workload::generate`],
/// exposed so replay-side validation can reconstruct it exactly.
pub fn service_catalog(params: &EnvParams) -> vod_cost_model::Catalog {
    let catalog_cfg = CatalogConfig { videos: params.videos, ..CatalogConfig::paper() };
    generate_catalog(&catalog_cfg, params.seed ^ 0xCA7A_10C0_FFEE_0001)
}

/// Run `n_cycles` of the environment through the service frontend.
/// Returns one [`ServiceCycleOutcome`] per cycle (Ψ, victims, warm-start
/// stats, schedules and served/shed request sets — what `vodx cycles`
/// tabulates and replay-style validation reads) and the aggregated
/// [`ServiceReport`].
/// Every cycle's rung, intake, warm-start and shard solve decision
/// lands in `recorder`, in simulated time (the run is fault-free); pass
/// [`vod_obs::Recorder::disabled`] for the no-op path.
pub fn service_horizon(
    params: &EnvParams,
    n_cycles: usize,
    sp: &ServiceParams,
    recorder: &vod_obs::Recorder,
) -> (Vec<ServiceCycleOutcome>, ServiceReport) {
    assert!(n_cycles >= 1, "need at least one cycle");
    let (topo, _) = params.build();
    let catalog = service_catalog(params);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog).with_recorder(recorder.clone());

    let arrival_cfg = ArrivalConfig {
        request: RequestConfig {
            requests_per_user: params.requests_per_user,
            ..RequestConfig::with_alpha(params.zipf_alpha)
        },
        cycles: sp.trace_cycles.map_or(n_cycles, |t| t.min(n_cycles)),
        regional: false,
        burst: sp.burst.clone(),
    };
    let arrivals = generate_arrivals(&topo, &catalog, &arrival_cfg, params.seed);

    let cfg = ServiceConfig {
        horizon: arrival_cfg.request.horizon_hours * 3_600.0,
        queue_bound: sp.queue_bound,
        budget_ns: sp.budget_ns,
        ..ServiceConfig::default()
    };
    service_run(&ctx, &arrivals, &cfg, n_cycles).expect("the empty fault plan validates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Preset;
    use vod_core::{detect_overflows, Rung, StorageLedger, EXTERNAL_OCCUPANCY};
    use vod_obs::Recorder;
    use vod_topology::units;

    fn cheap_params() -> EnvParams {
        EnvParams { videos: 50, users_per_neighborhood: 4, ..EnvParams::fast() }
    }

    /// The oracle configuration: `vodx cycles`.
    fn oracle_run(params: &EnvParams, n_cycles: usize) -> Vec<ServiceCycleOutcome> {
        service_horizon(params, n_cycles, &ServiceParams::default(), &Recorder::disabled()).0
    }

    #[test]
    fn three_cycles_run_cleanly() {
        let out = oracle_run(&cheap_params(), 3);
        assert_eq!(out.len(), 3);
        for c in &out {
            assert!(c.cost > 0.0);
            assert!(c.overflow_free, "cycle {} left an overflow", c.stats.cycle);
            assert!(!c.served.is_empty());
        }
        // Spillover starts at zero and is non-negative afterwards.
        assert_eq!(out[0].warm.spillover_bytes, 0.0);
        for c in &out[1..] {
            assert!(c.warm.spillover_bytes >= 0.0);
        }
        assert!(out.iter().map(|c| c.cost).sum::<f64>() > out[0].cost);
    }

    #[test]
    fn service_horizon_is_deterministic() {
        let a = oracle_run(&cheap_params(), 2);
        let b = oracle_run(&cheap_params(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cost, y.cost);
            assert_eq!(x.victims, y.victims);
        }
    }

    #[test]
    fn default_params_reproduce_the_pinned_fast_preset_numbers() {
        // What the rolling-horizon driver removed at PR 17 printed for
        // `vodx cycles --fast`, captured from the parent build.
        let params = EnvParams::for_preset(Preset::Fast);
        let (out, report) =
            service_horizon(&params, 3, &ServiceParams::default(), &Recorder::disabled());
        let pinned: [(u64, usize, usize); 3] = [
            (0x4120835c0ac33515, 27, 171),
            (0x412075fe3953e0c7, 25, 164),
            (0x41202ecf92eed6e4, 26, 173),
        ];
        for (c, (cost_bits, victims, hits)) in out.iter().zip(pinned) {
            let k = c.stats.cycle;
            assert_eq!(c.cost.to_bits(), cost_bits, "cycle {k} Ψ diverged");
            assert_eq!(c.victims, victims, "cycle {k} victims");
            assert_eq!(c.warm.trials_hit, hits, "cycle {k} trial hits");
            assert_eq!(c.stats.rung, Rung::Full);
        }
        assert_eq!(report.served, 684);
        assert_eq!(report.shed_events, 0);
        assert_eq!(report.conservation_error(), 0);
    }

    #[test]
    fn spillover_is_reported_in_gigabytes() {
        let params = cheap_params();
        let out = oracle_run(&params, 3);
        let capacity_budget_gb = 19.0 * params.capacity_gb; // every storage full
        let mut seen_positive = false;
        for c in &out {
            // Sanity: the byte counter in GB fits the hardware; a byte
            // count mistaken for GB could not. That `vodx cycles` prints
            // exactly this figure is checked by the renderer's own test.
            let spillover_gb = c.warm.spillover_bytes / units::GB;
            assert!(
                spillover_gb <= capacity_budget_gb,
                "cycle {}: {spillover_gb} GB exceeds the {capacity_budget_gb} GB of disk that exists",
                c.stats.cycle
            );
            seen_positive |= spillover_gb > 0.0;
        }
        assert!(seen_positive, "no cycle saw spillover; the unit check never engaged");
    }

    #[test]
    fn warm_stats_account_for_carried_state() {
        let out = oracle_run(&cheap_params(), 3);
        // Cycle 0 starts empty.
        assert_eq!(out[0].warm.committed_active, out[0].warm.committed_evicted);
        // Later cycles carry committed occupancy; within the 24 h horizon
        // nothing has fully drained yet, so the book only grows.
        for c in &out[1..] {
            assert!(c.warm.committed_active > 0, "cycle {} carried no occupancy", c.stats.cycle);
        }
    }

    #[test]
    fn combined_occupancy_respects_capacity_across_cycles() {
        let params = cheap_params();
        let outcomes = oracle_run(&params, 3);
        // Every cycle's commitments in one ledger: the union never
        // over-commits a storage.
        let (topo, _) = params.build();
        let catalog = service_catalog(&params);
        let mut ledger = StorageLedger::new(&topo);
        for out in &outcomes {
            assert!(out.overflow_free);
            for r in out.schedule.residencies() {
                ledger.add(r.loc, EXTERNAL_OCCUPANCY, r.profile(catalog.get(r.video)));
            }
        }
        assert!(detect_overflows(&topo, &ledger).is_empty());
    }

    #[test]
    fn overload_burst_engages_the_ladder() {
        let params = cheap_params();
        let sp = ServiceParams {
            queue_bound: Some(1_000),
            budget_ns: Some(100.0 * 4_200.0),
            burst: vec![(1, 4)],
            ..ServiceParams::default()
        };
        let (out, report) = service_horizon(&params, 3, &sp, &Recorder::disabled());
        assert!(report.cycles.iter().any(|c| c.rung != Rung::Full), "budget never engaged");
        assert_eq!(report.conservation_error(), 0);
        for (k, c) in out.iter().enumerate() {
            assert_eq!(c.stats.cycle, k);
        }
    }
}
