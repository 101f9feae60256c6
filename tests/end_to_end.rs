//! End-to-end integration: workload generation → two-phase scheduling →
//! simulator validation, across seeds and environments.

use vod_paradigm::core::{
    baselines, detect_overflows, ivsp_solve, sorp_solve, GreedyPolicy, HeatMetric, SchedCtx,
    SorpConfig, StorageLedger,
};
use vod_paradigm::prelude::*;
use vod_paradigm::simulator::{simulate, SimOptions};
use vod_paradigm::workload::{CatalogConfig, RequestConfig, Workload};

fn paper_world(capacity_gb: f64, alpha: f64, seed: u64) -> (Topology, Workload) {
    let topo =
        builders::paper_fig4(&builders::PaperFig4Config { capacity_gb, ..Default::default() });
    let wl = Workload::generate(
        &topo,
        &CatalogConfig::small(80),
        &RequestConfig::with_alpha(alpha),
        seed,
    );
    (topo, wl)
}

#[test]
fn pipeline_is_valid_across_seeds_and_capacities() {
    for seed in [1, 2, 3] {
        for capacity in [5.0, 8.0, 14.0] {
            let (topo, wl) = paper_world(capacity, 0.271, seed);
            let model = CostModel::per_hop();
            let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
            let outcome = sorp_solve(
                &ctx,
                ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default()),
                &SorpConfig::default(),
                None,
            );
            assert!(outcome.overflow_free, "seed {seed} cap {capacity}");
            let report = simulate(
                &topo,
                &wl.catalog,
                &model,
                &outcome.schedule,
                &SimOptions::strict(&wl.requests),
            );
            assert!(report.is_valid(), "seed {seed} cap {capacity}: {:?}", report.violations);
            assert_eq!(report.metrics.deliveries, wl.requests.len());
        }
    }
}

#[test]
fn two_phase_beats_network_only_at_paper_baseline() {
    for seed in [1, 2, 3, 4] {
        let (topo, wl) = paper_world(5.0, 0.271, seed);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let two_phase = sorp_solve(
            &ctx,
            ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default()),
            &SorpConfig::default(),
            None,
        );
        let direct = ctx.schedule_cost(&baselines::network_only(&ctx, &wl.requests));
        assert!(
            two_phase.cost <= direct + 1e-6,
            "seed {seed}: two-phase {} vs direct {direct}",
            two_phase.cost
        );
    }
}

#[test]
fn resolution_cost_is_bounded_and_nonnegative() {
    for seed in [1, 2, 3] {
        let (topo, wl) = paper_world(5.0, 0.1, seed);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let outcome = sorp_solve(
            &ctx,
            ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default()),
            &SorpConfig::default(),
            None,
        );
        let rel = outcome.relative_cost_increase();
        assert!(rel >= -1e-9, "resolution made the schedule cheaper by {rel}");
        // The paper observes ≤34 % worst-case; leave generous headroom but
        // catch pathological blow-ups.
        assert!(rel < 1.0, "resolution more than doubled the cost: {rel}");
    }
}

#[test]
fn resolved_ledger_is_overflow_free_under_every_metric() {
    let (topo, wl) = paper_world(5.0, 0.1, 9);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let phase1 = ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default());
    for metric in HeatMetric::ALL {
        let outcome = sorp_solve(&ctx, phase1.clone(), &SorpConfig::with_metric(metric), None);
        let ledger = StorageLedger::from_schedule(&topo, &wl.catalog, &outcome.schedule);
        assert!(detect_overflows(&topo, &ledger).is_empty(), "metric {metric} left an overflow");
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let (topo, wl) = paper_world(5.0, 0.271, 77);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let outcome = sorp_solve(
            &ctx,
            ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default()),
            &SorpConfig::default(),
            None,
        );
        (outcome.cost, outcome.iterations, outcome.victims.len())
    };
    assert_eq!(run(), run());
}

#[test]
fn end_to_end_charging_basis_also_works() {
    let (topo, wl) = paper_world(8.0, 0.271, 5);
    let model = CostModel::end_to_end(&topo);
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let outcome = sorp_solve(
        &ctx,
        ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default()),
        &SorpConfig::default(),
        None,
    );
    assert!(outcome.overflow_free);
    // End-to-end charging never exceeds per-hop charging for the same
    // schedule (it prices every stream at the cheapest route).
    let per_hop = CostModel::per_hop();
    let e2e_cost = model.schedule_cost(&topo, &wl.catalog, &outcome.schedule);
    let hop_cost = per_hop.schedule_cost(&topo, &wl.catalog, &outcome.schedule);
    assert!(e2e_cost <= hop_cost + 1e-6);
}

#[test]
fn cache_local_baseline_overflows_where_two_phase_does_not() {
    // The naive policy ignores capacity; on tight stores it must produce
    // overflow that the two-phase scheduler avoids.
    let (topo, wl) = paper_world(5.0, 0.1, 3);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);

    let naive = baselines::cache_local_always(&ctx, &wl.requests);
    let naive_ledger = StorageLedger::from_schedule(&topo, &wl.catalog, &naive);
    assert!(
        !detect_overflows(&topo, &naive_ledger).is_empty(),
        "expected the naive policy to overflow 5 GB stores"
    );

    let resolved = sorp_solve(
        &ctx,
        ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default()),
        &SorpConfig::default(),
        None,
    );
    let ledger = StorageLedger::from_schedule(&topo, &wl.catalog, &resolved.schedule);
    assert!(detect_overflows(&topo, &ledger).is_empty());
}

#[test]
fn simulator_flags_phase1_overcommitment() {
    let (topo, wl) = paper_world(5.0, 0.1, 2);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let phase1 = ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default()).into_schedule();
    let strict = simulate(&topo, &wl.catalog, &model, &phase1, &SimOptions::strict(&wl.requests));
    assert!(!strict.is_valid(), "phase-1 schedules on 5 GB stores should overflow");
    let lenient = simulate(&topo, &wl.catalog, &model, &phase1, &SimOptions::lenient());
    assert!(lenient.is_valid(), "{:?}", lenient.violations);
}
