//! End-to-end overload acceptance: drive the async service frontend
//! with a burst 4× over steady-state capacity, a bounded intake queue,
//! and a finite per-cycle budget, and verify the whole degradation
//! story — typed backpressure at the bound, deterministic heat-ranked
//! shedding, zero-loss accounting, and strict replay of whatever each
//! cycle actually committed.

use vod_paradigm::core::{
    detect_overflows, service_run, BackoffPolicy, ExecMode, Rung, SchedCtx, ServiceConfig,
    ServiceLoop, ShardConfig,
};
use vod_paradigm::faults::{FaultConfig, FaultPlan};
use vod_paradigm::prelude::*;
use vod_paradigm::simulator::{check_service_accounting, cycle_is_clean, replay_service_cycle};
use vod_paradigm::workload::{
    generate_arrivals, generate_catalog, ArrivalConfig, CatalogConfig, RequestConfig,
};

const H: f64 = 24.0 * 3_600.0;

fn world(seed: u64) -> (Topology, Catalog) {
    let topo =
        builders::paper_fig4(&builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() });
    let catalog = generate_catalog(&CatalogConfig::small(40), seed ^ 0xC0FFEE);
    (topo, catalog)
}

fn burst_cfg() -> ServiceConfig {
    ServiceConfig {
        queue_bound: Some(300),
        budget_ns: Some(120.0 * 9_700.0),
        backoff: BackoffPolicy { base_cycles: 1, max_cycles: 4, drop_after: 2 },
        ..ServiceConfig::default()
    }
}

#[test]
fn burst_4x_sheds_deterministically_and_replays_clean() {
    let (topo, catalog) = world(97);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);

    // Three cycles of arrivals; cycle 1 arrives at 4× the steady rate.
    let arrivals = generate_arrivals(
        &topo,
        &catalog,
        &ArrivalConfig { cycles: 3, burst: vec![(1, 4)], ..Default::default() },
        97,
    );
    let steady_per_cycle = arrivals.iter().filter(|a| a.request.start < H).count();
    let burst_count =
        arrivals.iter().filter(|a| a.request.start >= H && a.request.start < 2.0 * H).count();
    assert_eq!(burst_count, 4 * steady_per_cycle, "burst multiplier not applied");

    let cfg = burst_cfg();
    let (outcomes, report) =
        service_run(&ctx, &arrivals, &cfg, 8, ExecMode::Sequential).expect("empty fault plan");

    // 1. The queue bound held: the high-water mark never exceeds it,
    //    and the burst actually produced typed rejections.
    let bound = cfg.queue_bound.unwrap();
    assert!(
        report.queue_high_water <= bound,
        "queue grew past its bound: {} > {bound}",
        report.queue_high_water
    );
    assert!(report.rejected_full > 0, "a 4x burst over a bounded queue must bounce offers");

    // 2. The ladder engaged during the burst and recovered afterwards.
    assert!(
        outcomes.iter().any(|o| o.stats.rung != Rung::Full),
        "overload never left the Full rung"
    );
    assert_eq!(outcomes.last().unwrap().stats.rung, Rung::Full, "ladder never recovered");
    assert!(report.shed_events > 0, "overload shed nothing");

    // 3. Zero-loss accounting: every accepted request is served,
    //    dropped, or still in flight — and the cross-checker agrees.
    assert_eq!(report.conservation_error(), 0, "accounting leak: {}", report.render());
    let complaints = check_service_accounting(&report);
    assert!(complaints.is_empty(), "accounting cross-check failed: {complaints:?}");

    // 4. Whatever each cycle committed replays strictly: the only
    //    violations are the excused sheds.
    for out in &outcomes {
        let sim = replay_service_cycle(&topo, &catalog, &model, out);
        assert!(
            cycle_is_clean(&sim),
            "cycle {} replay violations: {:?}",
            out.stats.cycle,
            sim.violations
        );
        assert_eq!(sim.metrics.deliveries, out.served.len(), "cycle {}", out.stats.cycle);
    }

    // 5. Shedding is deterministic: a re-run (even under a different
    //    ExecMode) sheds the same requests in the same order.
    for mode in [ExecMode::Sequential, ExecMode::Parallel] {
        let (again, rep2) = service_run(&ctx, &arrivals, &cfg, 8, mode).unwrap();
        assert_eq!(outcomes.len(), again.len());
        for (a, b) in outcomes.iter().zip(again.iter()) {
            assert_eq!(a.stats, b.stats, "cycle stats diverged on re-run ({mode:?})");
            let shed = |o: &vod_paradigm::core::ServiceCycleOutcome| -> Vec<(u32, u32, u64)> {
                o.shed_now.iter().map(|r| (r.user.0, r.video.0, r.start.to_bits())).collect()
            };
            assert_eq!(shed(a), shed(b), "shed order diverged on re-run ({mode:?})");
        }
        assert_eq!(report.served, rep2.served);
        assert_eq!(report.dropped, rep2.dropped);
    }
}

#[test]
fn oracle_config_serves_everything_and_replays_strict() {
    let (topo, catalog) = world(11);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let arrivals =
        generate_arrivals(&topo, &catalog, &ArrivalConfig { cycles: 2, ..Default::default() }, 11);

    let (outcomes, report) =
        service_run(&ctx, &arrivals, &ServiceConfig::default(), 2, ExecMode::Sequential).unwrap();

    assert_eq!(report.served, arrivals.len());
    assert_eq!(report.shed_events, 0);
    assert_eq!(report.rejected_full + report.rejected_saturated, 0);
    assert_eq!(report.conservation_error(), 0);
    for out in &outcomes {
        assert_eq!(out.stats.rung, Rung::Full);
        let sim = replay_service_cycle(&topo, &catalog, &model, out);
        assert!(sim.is_valid(), "cycle {} violations: {:?}", out.stats.cycle, sim.violations);
    }
}

/// The benchmark's `overload_faults` cell at seed 1997, built as
/// `benchmark/src/adapter.rs` builds it and driven as `service_run`
/// drives it, over its first 48 cycles. A cycle commits once: fault
/// repair runs on the solve's own state, whose ledger is the book plus
/// the cycle's schedule, and only the repaired schedule enters the book —
/// so after every cycle, on every rung, the book holds no overflow and
/// the cycle reports `overflow_free`. (Committing the repaired
/// residencies a second time overflows the book from cycle 2 on, and
/// cycle 3's solve, on the `Full` rung, then faces an overflow no victim
/// clears.) Cycle 41 runs on the `Shed` rung, where SORP's fallback tail
/// is the whole pass and must clear every overflow that has a participant.
#[test]
fn overload_faults_cell_replays_clean_on_every_rung() {
    const CYCLES: usize = 48;
    const RUN_CYCLES: usize = 800; // the fault plan is drawn over the whole benchmark run
    let topo = builders::paper_fig4(&builders::PaperFig4Config {
        capacity_gb: 5.0,
        users_per_neighborhood: 10,
        ..Default::default()
    });
    let catalog = generate_catalog(&CatalogConfig::small(120), 0xCA7A_10C0_FFEE_0001);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    // A cycle's arrivals depend on its own index alone, so two cycles past
    // the last one driven give the benchmark trace's prefix.
    let arrivals = generate_arrivals(
        &topo,
        &catalog,
        &ArrivalConfig {
            request: RequestConfig { requests_per_user: 2, ..RequestConfig::with_alpha(0.271) },
            cycles: CYCLES + 2,
            burst: (0..CYCLES + 2).filter(|k| k % 8 == 1).map(|k| (k, 8)).collect(),
            ..Default::default()
        },
        1997,
    );
    let n = RUN_CYCLES / 4;
    let faults = FaultPlan::generate(
        &topo,
        &FaultConfig {
            node_outages: n,
            link_failures: n,
            link_degradations: n / 2,
            horizon: RUN_CYCLES as f64 * H,
            ..Default::default()
        },
        1997 ^ 0xFA17_0000_0000_0001,
    );
    let cfg = ServiceConfig {
        shard: ShardConfig::by_region(4),
        horizon: H,
        queue_bound: Some(2660),
        budget_ns: Some(11e6),
        faults,
        ..ServiceConfig::default()
    };
    let mut svc = ServiceLoop::new(&topo, cfg).expect("a generated plan");
    let mut next = 0;
    for k in 0..CYCLES {
        while next < arrivals.len() && arrivals[next].at <= k as f64 * H {
            let _ = svc.offer(arrivals[next].request);
            next += 1;
        }
        let out = svc.run_cycle(&ctx, ExecMode::Sequential);
        let rung = out.stats.rung;
        if k == 41 {
            assert_eq!(rung, Rung::Shed, "cycle 41 runs on the Shed rung");
        }
        assert!(out.overflow_free, "cycle {k} ({rung:?} rung) reports an overflow");
        let over = detect_overflows(&topo, svc.book().ledger());
        assert!(over.is_empty(), "cycle {k} ({rung:?} rung): the book exceeds a store: {over:?}");
        let sim = replay_service_cycle(&topo, &catalog, &model, &out);
        assert!(
            cycle_is_clean(&sim),
            "cycle {k} ({rung:?} rung) replay violations: {:?}",
            sim.violations
        );
    }
}
