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
    generate_arrivals, generate_catalog, Arrival, ArrivalConfig, CatalogConfig, RequestConfig,
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

/// How many cycles of the `overload_faults` cell the tests drive.
const CELL_CYCLES: usize = 48;

/// The benchmark's `overload_faults` cell at seed 1997, built as
/// `benchmark/src/adapter.rs` builds it: topology, catalog, the arrival
/// trace's prefix and the service config.
fn overload_faults_cell() -> (Topology, Catalog, Vec<Arrival>, ServiceConfig) {
    const RUN_CYCLES: usize = 800; // the fault plan is drawn over the whole benchmark run
    let topo = builders::paper_fig4(&builders::PaperFig4Config {
        capacity_gb: 5.0,
        users_per_neighborhood: 10,
        ..Default::default()
    });
    let catalog = generate_catalog(&CatalogConfig::small(120), 0xCA7A_10C0_FFEE_0001);
    // A cycle's arrivals depend on its own index alone, so two cycles past
    // the last one driven give the benchmark trace's prefix.
    let arrivals = generate_arrivals(
        &topo,
        &catalog,
        &ArrivalConfig {
            request: RequestConfig { requests_per_user: 2, ..RequestConfig::with_alpha(0.271) },
            cycles: CELL_CYCLES + 2,
            burst: (0..CELL_CYCLES + 2).filter(|k| k % 8 == 1).map(|k| (k, 8)).collect(),
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
    (topo, catalog, arrivals, cfg)
}

/// The `overload_faults` cell driven as `service_run` drives it, over its
/// first 48 cycles. A cycle commits once: fault repair runs on the
/// solve's own state, whose ledger is the book plus the cycle's schedule,
/// and only the repaired schedule enters the book — so after every cycle,
/// on every rung, the book holds no overflow and the cycle reports
/// `overflow_free`. (Committing the repaired residencies a second time
/// overflows the book from cycle 2 on, and cycle 3's solve, on the `Full`
/// rung, then faces an overflow no victim clears.) Cycle 41 runs on the
/// `Shed` rung, where SORP's fallback tail is the whole pass and must
/// clear every overflow that has a participant.
#[test]
fn overload_faults_cell_replays_clean_on_every_rung() {
    let (topo, catalog, arrivals, cfg) = overload_faults_cell();
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let mut svc = ServiceLoop::new(&topo, cfg).expect("a generated plan");
    let mut next = 0;
    for k in 0..CELL_CYCLES {
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

/// FNV-1a over each request's `(user, video, start bits)`, in order.
fn digest(reqs: &[Request]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in reqs {
        for word in [r.user.0 as u64, r.video.0 as u64, r.start.to_bits()] {
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Per cycle of the `overload_faults` cell: rung, how many requests were
/// shed and their digest in shed order, deferred, dropped, deadline
/// misses. Captured from the commit before the ladder's heat ranking and
/// the queue and parking lot's hand-offs became one-pass merges; those
/// must move no decision.
const PINNED_DECISIONS: &str = "\
0  full       0 -                   0   0    0
1  shed      41 8daee711b591fbeb   41   0    0
2  full       0 -                   0   0   41
3  full       0 -                   0   0    0
4  full       0 -                   0   0    0
5  full       0 -                   0   0    0
6  full       0 -                   0   0    0
7  full       0 -                   0   0    0
8  full       0 -                   0   0    0
9  shed     384 760b7dad473d08c0  384   0    0
10 reduced    0 -                   0   0  384
11 full       0 -                   0   0    0
12 full       0 -                   0   0    0
13 full       0 -                   0   0    0
14 full       0 -                   0   0    0
15 full       0 -                   0   0    0
16 full       0 -                   0   0    0
17 shed     552 73d96f215d6b9f0b  552   0    0
18 greedy     0 -                   0   0  552
19 full       0 -                   0   0    0
20 full       0 -                   0   0    0
21 full       0 -                   0   0    0
22 full       0 -                   0   0    0
23 full       0 -                   0   0    0
24 full       0 -                   0   0    0
25 shed     830 6f7c22cbb380d479  830   0    0
26 greedy     0 -                   0   0  830
27 full       0 -                   0   0    0
28 full       0 -                   0   0    0
29 full       0 -                   0   0    0
30 full       0 -                   0   0    0
31 full       0 -                   0   0    0
32 full       0 -                   0   0    0
33 shed     937 c5715fe8ce6aac0d  937   0    0
34 greedy     0 -                   0   0  937
35 full       0 -                   0   0    0
36 full       0 -                   0   0    0
37 full       0 -                   0   0    0
38 full       0 -                   0   0    0
39 full       0 -                   0   0    0
40 full       0 -                   0   0    0
41 shed     967 9218c111f48d4c8d  967   0    0
42 greedy     0 -                   0   0  967
43 full       0 -                   0   0    0
44 full       0 -                   0   0    0
45 full       0 -                   0   0    0
46 full       0 -                   0   0    0
47 full       0 -                   0   0    0
";

/// The `overload_faults` cell's shedding, backoff and deadline decisions
/// over its first 48 cycles are exactly the pinned ones.
#[test]
fn overload_faults_cell_decisions_are_pinned() {
    let (topo, catalog, arrivals, cfg) = overload_faults_cell();
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let (outcomes, report) =
        service_run(&ctx, &arrivals, &cfg, CELL_CYCLES, ExecMode::Sequential).unwrap();
    let got: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let s = &o.stats;
            let shed = if o.shed_now.is_empty() {
                "-".to_string()
            } else {
                format!("{:016x}", digest(&o.shed_now))
            };
            format!(
                "{:<2} {:<7} {:>4} {:<16} {:>4} {:>3} {:>4}",
                s.cycle,
                s.rung.label(),
                o.shed_now.len(),
                shed,
                s.deferred,
                s.dropped,
                s.deadline_misses
            )
        })
        .collect();
    for (got, want) in got.iter().zip(PINNED_DECISIONS.lines()) {
        assert_eq!(got, want, "the first divergent cycle");
    }
    assert_eq!(got.len(), PINNED_DECISIONS.lines().count());
    assert_eq!(report.queue_high_water, 2660);
    assert_eq!(report.backoff_histogram, vec![3711]);
    assert_eq!(report.conservation_error(), 0);
}

/// Budgets no request fits — zero, negative, NaN — shed every ticket
/// into backoff and drop it after `drop_after` failed attempts, without a
/// panic and with balanced accounting; `+∞` is the same run as `None`.
#[test]
fn adversarial_budgets_shed_or_run_full_and_conserve() {
    const CYCLES: usize = 6;
    let (topo, catalog) = world(23);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog).with_recorder(vod_obs::Recorder::enabled());
    let arrivals = generate_arrivals(
        &topo,
        &catalog,
        &ArrivalConfig { cycles: 2, burst: vec![(1, 3)], ..Default::default() },
        23,
    );
    let backoff = BackoffPolicy { base_cycles: 1, max_cycles: 2, drop_after: 1 };
    let run = |budget_ns: Option<f64>| {
        let cfg = ServiceConfig { budget_ns, backoff, ..ServiceConfig::default() };
        let mut svc = ServiceLoop::new(&topo, cfg).expect("empty fault plan");
        let mut next = 0;
        let mut outcomes = Vec::new();
        for k in 0..CYCLES {
            while next < arrivals.len() && arrivals[next].at <= k as f64 * H {
                let _ = svc.offer(arrivals[next].request);
                next += 1;
            }
            outcomes.push(svc.run_cycle(&ctx, ExecMode::Sequential));
        }
        let report = svc.finish();
        assert_eq!(report.conservation_error(), 0, "budget {budget_ns:?}");
        (outcomes, report)
    };

    for budget in [0.0, -1e6, f64::NAN] {
        let (outcomes, report) = run(Some(budget));
        for o in &outcomes {
            let s = &o.stats;
            if s.admitted > 0 {
                assert_eq!(s.rung, Rung::Shed, "budget {budget}, cycle {}", s.cycle);
            }
            assert_eq!(s.served, 0, "budget {budget}, cycle {}", s.cycle);
            assert_eq!(s.shed, s.admitted, "budget {budget}, cycle {}", s.cycle);
        }
        assert_eq!(report.served, 0);
        assert_eq!(report.in_flight, 0, "budget {budget}: every ticket is dropped by the end");
        assert_eq!(report.dropped, report.accepted());
    }

    let (unbounded, _) = run(None);
    let (infinite, _) = run(Some(f64::INFINITY));
    for (a, b) in unbounded.iter().zip(&infinite) {
        assert_eq!(a.stats, b.stats, "cycle {}", a.stats.cycle);
        assert!(a.schedule == b.schedule, "cycle {}: schedules diverged", a.stats.cycle);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "cycle {}", a.stats.cycle);
    }
}
