//! Recorder-transparency properties: attaching the flight recorder to a
//! scheduling context must never change a single scheduling decision.
//! Schedules, costs, and service accounting are compared bit-for-bit
//! between recorder-off and recorder-on runs across seeds, and the
//! captured events must agree with the stats the loop reports.

use proptest::prelude::*;
use vod_core::{service_run, ExecMode, SchedCtx, ServiceConfig, ShardConfig};
use vod_core::{shard_solve, Rung};
use vod_cost_model::{Catalog, CostModel};
use vod_obs::Recorder;
use vod_topology::builders::{paper_fig4, PaperFig4Config};
use vod_topology::Topology;
use vod_workload::{
    generate_arrivals, generate_catalog, ArrivalConfig, CatalogConfig, RequestConfig, Workload,
};

fn world(seed: u64) -> (Topology, Catalog) {
    let topo = paper_fig4(&PaperFig4Config { capacity_gb: 5.0, ..Default::default() });
    let catalog = generate_catalog(&CatalogConfig::small(40), seed);
    (topo, catalog)
}

/// Run the service loop twice — recorder off, then on — and assert the
/// outcomes are bit-identical. Returns the enabled recorder's capture
/// plus the outcomes for follow-up checks.
fn run_twice(
    seed: u64,
    cfg: &ServiceConfig,
) -> (vod_obs::Recording, Vec<vod_core::ServiceCycleOutcome>, vod_core::ServiceReport) {
    let (topo, catalog) = world(seed ^ 0xBEEF);
    let model = CostModel::per_hop();
    let arrivals = generate_arrivals(
        &topo,
        &catalog,
        &ArrivalConfig { cycles: 2, ..ArrivalConfig::default() },
        seed,
    );

    let ctx_off = SchedCtx::new(&topo, &model, &catalog);
    let (out_off, rep_off) =
        service_run(&ctx_off, &arrivals, cfg, 3).expect("empty plan validates");

    let recorder = Recorder::enabled();
    let ctx_on = SchedCtx::new(&topo, &model, &catalog).with_recorder(recorder.clone());
    let (out_on, rep_on) = service_run(&ctx_on, &arrivals, cfg, 3).expect("empty plan validates");

    assert_eq!(out_off.len(), out_on.len());
    for (a, b) in out_off.iter().zip(&out_on) {
        assert_eq!(a.stats, b.stats, "cycle {} accounting diverged", a.stats.cycle);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "cycle {} Ψ diverged", a.stats.cycle);
        assert_eq!(a.served, b.served);
        assert_eq!(a.shed_now, b.shed_now);
        assert_eq!(
            format!("{:?}", a.schedule),
            format!("{:?}", b.schedule),
            "cycle {} schedule diverged",
            a.stats.cycle
        );
    }
    assert_eq!(rep_off.served, rep_on.served);
    assert_eq!(rep_off.shed_events, rep_on.shed_events);
    let recording = recorder.recording().expect("enabled");
    (recording, out_on, rep_on)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Recorder on vs off: identical schedules and Ψ for arbitrary
    /// seeds, with and without a budget ladder.
    #[test]
    fn recorder_never_changes_the_schedule(seed in 0u64..1_000_000, tight in any::<bool>()) {
        let cfg = ServiceConfig {
            budget_ns: tight.then_some(120.0 * 9_700.0),
            ..ServiceConfig::default()
        };
        let (recording, outcomes, _) = run_twice(seed, &cfg);
        // Every cycle produced exactly one cycle_end event whose
        // fields mirror the loop's own accounting.
        let ends: Vec<_> = recording.events_of("cycle_end").collect();
        prop_assert_eq!(ends.len(), outcomes.len());
        for (ev, out) in ends.iter().zip(&outcomes) {
            let s = &out.stats;
            prop_assert_eq!(ev.cycle, s.cycle as u64);
            prop_assert_eq!(ev.str("rung"), Some(s.rung.label()));
            prop_assert_eq!(ev.u64("served"), Some(s.served as u64));
            prop_assert_eq!(ev.u64("shed"), Some(s.shed as u64));
            prop_assert_eq!(ev.u64("sim_ns"), Some(s.sim_ns));
            prop_assert_eq!(ev.f64("cost").map(f64::to_bits), Some(out.cost.to_bits()));
        }
    }

    /// Two runs capture the *same* recording (the simulated-time
    /// determinism contract): event streams compare equal, which also
    /// ignores the wall-ns side field by construction.
    #[test]
    fn recordings_are_run_to_run_identical(seed in 0u64..1_000_000) {
        let cfg = ServiceConfig { budget_ns: Some(200.0 * 9_700.0), ..ServiceConfig::default() };
        let (first, _, _) = run_twice(seed, &cfg);
        let (second, _, _) = run_twice(seed, &cfg);
        prop_assert_eq!(first, second);
    }
}

/// The plain sharded solver is recorder-transparent too (it records a
/// `shard_solve` event per call), independent of the service loop.
#[test]
fn shard_solve_is_recorder_transparent() {
    let topo = paper_fig4(&PaperFig4Config { capacity_gb: 5.0, ..Default::default() });
    let wl = Workload::generate(&topo, &CatalogConfig::small(40), &RequestConfig::paper(), 77);
    let model = CostModel::per_hop();
    let cfg = ShardConfig::default();

    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let cold = shard_solve(&ctx, &wl.requests, &cfg, ExecMode::Sequential);

    let recorder = Recorder::enabled();
    let ctx_on = SchedCtx::new(&topo, &model, &wl.catalog).with_recorder(recorder.clone());
    let hot = shard_solve(&ctx_on, &wl.requests, &cfg, ExecMode::Sequential);

    assert_eq!(cold.sorp.cost.to_bits(), hot.sorp.cost.to_bits());
    assert_eq!(cold.sorp.iterations, hot.sorp.iterations);
    assert_eq!(format!("{:?}", cold.sorp.schedule), format!("{:?}", hot.sorp.schedule));

    let recording = recorder.recording().expect("enabled");
    let ev = recording.events_of("shard_solve").next().expect("one solve event");
    assert_eq!(ev.u64("iterations"), Some(hot.sorp.iterations as u64));
    assert_eq!(ev.u64("trials_run"), Some(hot.sorp.trials_run as u64));
    assert_eq!(ev.u64("trials_cached"), Some(hot.sorp.trials_cached as u64));
    assert_eq!(ev.u64("nodes_rescanned"), Some(hot.sorp.nodes_rescanned as u64));
    assert_eq!(ev.f64("cost").map(f64::to_bits), Some(hot.sorp.cost.to_bits()));
}

/// The ladder's rung decisions land in the recording: a tight budget
/// must leave Full at least once, and every rung event's label matches
/// the cycle stats.
#[test]
fn rung_events_trace_the_ladder() {
    let cfg = ServiceConfig { budget_ns: Some(40.0 * 4_200.0), ..ServiceConfig::default() };
    let (recording, outcomes, _) = run_twice(4242, &cfg);
    let rungs: Vec<_> = recording.events_of("rung").collect();
    assert_eq!(rungs.len(), outcomes.len());
    for (ev, out) in rungs.iter().zip(&outcomes) {
        assert_eq!(ev.str("rung"), Some(out.stats.rung.label()));
    }
    assert!(
        outcomes.iter().any(|o| o.stats.rung != Rung::Full),
        "tight budget must engage the ladder"
    );
}
