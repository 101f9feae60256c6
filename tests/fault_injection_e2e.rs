//! End-to-end degraded-mode service: inject faults into a committed
//! schedule, watch the fault-aware replay report the breakage, repair
//! incrementally, and verify the repaired schedule passes strict replay
//! on the post-fault topology — the acceptance loop for the paper's
//! robustness extension.

use vod_paradigm::core::{
    ivsp_solve, repair_schedule, sorp_solve, GreedyPolicy, PricedSchedule, SchedCtx, SorpConfig,
};
use vod_paradigm::faults::{Fault, FaultConfig, FaultPlan};
use vod_paradigm::prelude::*;
use vod_paradigm::simulator::{simulate, simulate_with_faults, SimOptions, Violation};
use vod_paradigm::workload::{CatalogConfig, RequestConfig, Workload};

fn world(seed: u64) -> (Topology, Workload, CostModel) {
    let topo =
        builders::paper_fig4(&builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() });
    let wl = Workload::generate(&topo, &CatalogConfig::small(40), &RequestConfig::paper(), seed);
    (topo, wl, CostModel::per_hop())
}

fn committed(ctx: &SchedCtx<'_>, wl: &Workload) -> PricedSchedule {
    let phase1 = ivsp_solve(ctx, &wl.requests, GreedyPolicy::default());
    let out = sorp_solve(ctx, phase1, &SorpConfig::default(), None);
    assert!(out.overflow_free);
    PricedSchedule::price(ctx, out.schedule)
}

fn all_requests(wl: &Workload) -> Vec<Request> {
    wl.requests.groups().flat_map(|(_, g)| g.iter().copied()).collect()
}

/// The headline acceptance scenario: an intermediate-storage outage
/// mid-horizon breaks cached copies; the fault replay reports them; the
/// incremental repair re-sources the affected videos; and the repaired
/// schedule passes `SimOptions::strict` on the post-fault topology.
#[test]
fn is_outage_mid_horizon_repairs_to_strict_valid() {
    let (topo, wl, model) = world(41);
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let priced = committed(&ctx, &wl);

    // An outage covering one real cached copy's whole lifetime.
    let victim = priced
        .schedule()
        .residencies()
        .find(|r| r.last_service > r.start)
        .cloned()
        .expect("a 5 GB world keeps some caches");
    let playback = wl.catalog.get(victim.video).playback;
    let plan = FaultPlan::new(vec![Fault::NodeOutage {
        node: victim.loc,
        from: victim.start,
        until: victim.last_service + 2.0 * playback,
    }]);

    // Pre-repair, the fault-aware replay names the broken copies.
    let pre = simulate_with_faults(
        &topo,
        &wl.catalog,
        &model,
        priced.schedule(),
        &plan,
        &[],
        &SimOptions::lenient(),
    )
    .expect("plan validates");
    assert!(
        pre.violations.iter().any(|v| matches!(v, Violation::ResidencyLostToOutage { loc, .. }
            if *loc == victim.loc)),
        "the outage must break the copy it covers: {:?}",
        pre.violations
    );

    // Repair, then strict replay over the post-fault topology (a node
    // outage removes no links, so the degraded topology is structurally
    // identical — the schedule just must not store anything there).
    let out = repair_schedule(&ctx, priced, &plan).unwrap();
    assert!(!out.unchanged);
    assert!(out.delayed.is_empty(), "no link failed; nothing may be late");
    let degraded = plan.degraded_topology(&topo).expect("outages cut no links");
    let batch = RequestBatch::new(out.adjusted_requests(&all_requests(&wl)));
    let report = simulate(
        &degraded,
        &wl.catalog,
        &model,
        out.priced.schedule(),
        &SimOptions::strict(&batch),
    );
    assert!(report.is_valid(), "repaired schedule must replay cleanly: {:?}", report.violations);
    assert!((report.metrics.total_cost - out.cost()).abs() < 1e-6);

    // And the fault-aware replay agrees nothing is broken any more.
    let post = simulate_with_faults(
        &topo,
        &wl.catalog,
        &model,
        out.priced.schedule(),
        &plan,
        &[],
        &SimOptions::strict(&batch),
    )
    .expect("plan validates");
    assert!(post.is_valid(), "post-repair fault replay: {:?}", post.violations);
}

/// A timed link failure: streams caught in the window are rerouted, or
/// delayed until their route clears — and the repaired schedule replays
/// under the same fault plan with no violation at all.
#[test]
fn link_failure_repair_replays_cleanly_under_the_plan() {
    let (topo, wl, model) = world(42);
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let priced = committed(&ctx, &wl);

    // Fail the first hop of a real delivery across its whole playback.
    let t = priced
        .schedule()
        .transfers()
        .find(|t| t.user.is_some())
        .cloned()
        .expect("committed schedules deliver");
    let playback = wl.catalog.get(t.video).playback;
    let plan = FaultPlan::new(vec![Fault::LinkFailure {
        a: t.route[0],
        b: t.route[1],
        from: t.start - 1.0,
        until: t.start + playback,
    }]);

    let pre = simulate_with_faults(
        &topo,
        &wl.catalog,
        &model,
        priced.schedule(),
        &plan,
        &[],
        &SimOptions::lenient(),
    )
    .expect("plan validates");
    assert!(
        pre.violations.iter().any(|v| matches!(v, Violation::StreamOnFailedLink { .. })),
        "the failure must catch the stream: {:?}",
        pre.violations
    );

    let out = repair_schedule(&ctx, priced, &plan).unwrap();
    assert!(!out.unchanged);
    assert_eq!(out.priced.schedule().delivery_count(), wl.requests.len());
    let batch = RequestBatch::new(out.adjusted_requests(&all_requests(&wl)));
    let report = simulate_with_faults(
        &topo,
        &wl.catalog,
        &model,
        out.priced.schedule(),
        &plan,
        &[],
        &SimOptions::strict(&batch),
    )
    .expect("plan validates");
    assert!(
        report.violations.is_empty(),
        "repaired schedule breaks under the plan: {:?}",
        report.violations
    );
}

/// Same seed + same fault plan ⇒ bit-identical repair decisions and
/// bit-identical SimReport, end to end.
#[test]
fn repair_and_replay_are_deterministic() {
    let (topo, wl, model) = world(43);
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let plan = FaultPlan::generate(
        &topo,
        &FaultConfig { node_outages: 2, link_failures: 1, ..FaultConfig::default() },
        7,
    );

    let run = || {
        let out = repair_schedule(&ctx, committed(&ctx, &wl), &plan).unwrap();
        let batch = RequestBatch::new(out.adjusted_requests(&all_requests(&wl)));
        let report = simulate_with_faults(
            &topo,
            &wl.catalog,
            &model,
            out.priced.schedule(),
            &plan,
            &[],
            &SimOptions::strict(&batch),
        )
        .expect("generated plans validate");
        (out.priced.schedule().clone(), out.cost(), format!("{report:?}"))
    };
    let (s1, c1, r1) = run();
    let (s2, c2, r2) = run();
    assert_eq!(s1, s2, "repair decisions must be bit-identical");
    assert_eq!(c1, c2);
    assert_eq!(r1, r2, "SimReports must be bit-identical");
}
