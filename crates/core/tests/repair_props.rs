//! Property tests for incremental schedule repair: random fault plans
//! over random workloads must leave no service broken, account for every
//! request (served, delayed, or shed — never silently dropped), respect
//! storage capacities, and stay deterministic; the zero-fault repair must
//! be a bit-identical no-op.

use proptest::prelude::*;
use vod_core::{
    detect_overflows, ivsp_solve_priced, repair_schedule, sorp_solve_priced, ExecMode,
    PricedSchedule, RepairConfig, SchedCtx, ServiceConfig, ServiceLoop, SorpConfig, StorageLedger,
};
use vod_cost_model::{CostModel, Request};
use vod_faults::{FaultConfig, FaultPlan};
use vod_topology::{builders, Topology};
use vod_workload::{CatalogConfig, RequestConfig, Workload};

const HORIZON: f64 = 24.0 * 3_600.0;

/// A random degraded-mode scenario: which workload, which faults, and how
/// patient the retry policy is.
#[derive(Clone, Debug)]
struct Scenario {
    workload_seed: u64,
    fault_seed: u64,
    capacity_gb: f64,
    node_outages: usize,
    link_failures: usize,
    link_degradations: usize,
    max_retries: u32,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        0u64..1_000,
        0u64..1_000,
        prop_oneof![Just(5.0), Just(10.0), Just(10_000.0)],
        0usize..3,
        0usize..3,
        0usize..2,
        0u32..6,
    )
        .prop_map(
            |(
                workload_seed,
                fault_seed,
                capacity_gb,
                node_outages,
                link_failures,
                link_degradations,
                max_retries,
            )| Scenario {
                workload_seed,
                fault_seed,
                capacity_gb,
                node_outages,
                link_failures,
                link_degradations,
                max_retries,
            },
        )
}

/// The scenario's fault plan, its draw repeated over `days` windows.
fn plan_over(topo: &Topology, s: &Scenario, days: usize) -> FaultPlan {
    let fcfg = FaultConfig {
        node_outages: days * s.node_outages,
        link_failures: days * s.link_failures,
        link_degradations: days * s.link_degradations,
        horizon: days as f64 * HORIZON,
        ..FaultConfig::default()
    };
    FaultPlan::generate(topo, &fcfg, s.fault_seed)
}

fn build(s: &Scenario) -> (Topology, Workload, FaultPlan) {
    let cfg = builders::PaperFig4Config { capacity_gb: s.capacity_gb, ..Default::default() };
    let topo = builders::paper_fig4(&cfg);
    let wl = Workload::generate(
        &topo,
        &CatalogConfig::small(24),
        &RequestConfig::paper(),
        s.workload_seed,
    );
    let plan = plan_over(&topo, s, 1);
    (topo, wl, plan)
}

fn committed(ctx: &SchedCtx<'_>, wl: &Workload) -> (PricedSchedule, bool) {
    let phase1 = ivsp_solve_priced(ctx, &wl.requests);
    let out = sorp_solve_priced(ctx, phase1, &SorpConfig::default(), &[], ExecMode::Sequential);
    let overflow_free = out.overflow_free;
    (PricedSchedule::price(ctx, out.schedule), overflow_free)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 14, ..ProptestConfig::default() })]

    /// After repair, the fault plan breaks nothing: no transfer crosses a
    /// failed link during its failure window and no live copy overlaps an
    /// outage at its node. Every original request is served, delayed, or
    /// shed — the counts reconcile exactly — and repair is deterministic.
    #[test]
    fn repair_leaves_no_broken_service(s in scenario_strategy()) {
        let (topo, wl, plan) = build(&s);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let (priced, _) = committed(&ctx, &wl);
        let cfg = RepairConfig { max_retries: s.max_retries, ..RepairConfig::default() };

        let out = repair_schedule(&ctx, priced.clone(), &plan, &cfg).unwrap();
        let post = plan.impact(out.priced.schedule(), &wl.catalog, model.space_model());
        prop_assert!(post.is_empty(), "repair left broken services: {post:?}");

        // Request accounting: deliveries + shed = original batch.
        let deliveries = out.priced.schedule().delivery_count();
        prop_assert_eq!(deliveries + out.shed.len(), wl.requests.len());
        let original: Vec<Request> =
            wl.requests.groups().flat_map(|(_, g)| g.iter().copied()).collect();
        prop_assert_eq!(out.adjusted_requests(&original).len(), deliveries);

        // Shed records come lowest-heat first.
        prop_assert!(out.shed.windows(2).all(|w| w[0].heat <= w[1].heat));

        // Bit-identical decisions on a second run.
        let again = repair_schedule(&ctx, priced, &plan, &cfg).unwrap();
        prop_assert_eq!(out.priced.schedule(), again.priced.schedule());
        prop_assert_eq!(out.shed, again.shed);
        prop_assert_eq!(out.delayed, again.delayed);

        // The pricing memo stays consistent with a from-scratch pricing.
        prop_assert!(out.priced.consistent_with(&ctx), "pricing memo diverged");
    }

    /// Repair reuses the incremental ledger correctly: if the committed
    /// schedule respected capacities, the repaired one still does.
    #[test]
    fn repair_preserves_capacity_feasibility(s in scenario_strategy()) {
        let (topo, wl, plan) = build(&s);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let (priced, overflow_free) = committed(&ctx, &wl);
        prop_assume!(overflow_free);
        let cfg = RepairConfig { max_retries: s.max_retries, ..RepairConfig::default() };

        let out = repair_schedule(&ctx, priced, &plan, &cfg).unwrap();
        let ledger = StorageLedger::from_schedule(&topo, &wl.catalog, out.priced.schedule());
        let overflows = detect_overflows(&topo, &ledger);
        prop_assert!(overflows.is_empty(), "repair re-introduced overflows: {overflows:?}");

        // The same over carried occupancy: the service loop solves the
        // batch on three consecutive days, each over what the days before
        // shipped (at 5 GB a store holds one ≈3.4 GB file, so every store
        // in use is within one profile of capacity) and repairs it on that
        // very ledger — base + schedule never overflows.
        let faults = plan_over(&topo, &s, 3);
        let service = ServiceConfig { faults, repair: cfg, ..ServiceConfig::default() };
        let mut svc = ServiceLoop::new(&topo, service).unwrap();
        for day in 0..3 {
            for r in wl.requests.iter() {
                svc.offer(Request { start: r.start + day as f64 * HORIZON, ..*r }).unwrap();
            }
            let cycle = svc.run_cycle(&ctx, ExecMode::Sequential);
            prop_assert!(cycle.overflow_free, "day {day}: repair over the book left an overflow");
            let overflows = detect_overflows(&topo, svc.book().ledger());
            prop_assert!(overflows.is_empty(), "day {day}: the book overflows: {overflows:?}");
        }
    }

    /// Zero faults: repair is a bit-identical no-op, whatever the config.
    #[test]
    fn zero_faults_is_a_bit_identical_noop(
        workload_seed in 0u64..1_000,
        capacity_gb in prop_oneof![Just(5.0), Just(10_000.0)],
        max_retries in 0u32..6,
    ) {
        let s = Scenario {
            workload_seed,
            fault_seed: 0,
            capacity_gb,
            node_outages: 0,
            link_failures: 0,
            link_degradations: 0,
            max_retries,
        };
        let (topo, wl, plan) = build(&s);
        prop_assert!(plan.is_empty());
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let (priced, _) = committed(&ctx, &wl);
        let before = priced.schedule().clone();
        let total = priced.total();

        let cfg = RepairConfig { max_retries, ..RepairConfig::default() };
        let out = repair_schedule(&ctx, priced, &plan, &cfg).unwrap();
        prop_assert!(out.unchanged);
        prop_assert_eq!(out.priced.schedule(), &before);
        prop_assert_eq!(out.cost(), total);
        prop_assert!(out.shed.is_empty() && out.delayed.is_empty());
        prop_assert_eq!(out.retry_attempts, 0);
    }
}
