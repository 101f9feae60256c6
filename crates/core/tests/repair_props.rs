//! Property tests for incremental schedule repair: random fault plans
//! over random workloads must leave no service broken, serve every
//! request (late, never shed), respect storage capacities, and stay
//! deterministic; the zero-fault repair must be a bit-identical no-op.
//! And generated fault plans never cut a home off for a cycle, which is
//! why repair's cut-off branch carries no benchmark traffic.

use proptest::prelude::*;
use vod_core::{
    detect_overflows, ivsp_solve, repair_schedule, sorp_solve, ExecMode, PricedSchedule, SchedCtx,
    ServiceConfig, ServiceLoop, SorpConfig, StorageLedger,
};
use vod_cost_model::{CostModel, Request, RequestBatch};
use vod_faults::{Fault, FaultConfig, FaultPlan};
use vod_simulator::{simulate_with_faults, SimOptions, Violation};
use vod_topology::{builders, RouteTable, Topology};
use vod_workload::{CatalogConfig, RequestConfig, Workload};

const HORIZON: f64 = 24.0 * 3_600.0;

/// A random degraded-mode scenario: which workload and which faults.
#[derive(Clone, Debug)]
struct Scenario {
    workload_seed: u64,
    fault_seed: u64,
    capacity_gb: f64,
    node_outages: usize,
    link_failures: usize,
    link_degradations: usize,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        0u64..1_000,
        0u64..1_000,
        prop_oneof![Just(5.0), Just(10.0), Just(10_000.0)],
        0usize..3,
        0usize..3,
        0usize..2,
    )
        .prop_map(
            |(
                workload_seed,
                fault_seed,
                capacity_gb,
                node_outages,
                link_failures,
                link_degradations,
            )| Scenario {
                workload_seed,
                fault_seed,
                capacity_gb,
                node_outages,
                link_failures,
                link_degradations,
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
    let cfg = SorpConfig::default();
    let out = sorp_solve(ctx, ivsp_solve(ctx, &wl.requests, cfg.policy), &cfg, None);
    let overflow_free = out.overflow_free;
    (PricedSchedule::price(ctx, out.schedule), overflow_free)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 14, ..ProptestConfig::default() })]

    /// After repair, the fault plan breaks nothing: replayed under the
    /// plan, no stream crosses a failed link during its failure window and
    /// no live copy overlaps an outage at its node. Every original request
    /// is delivered exactly once, and repair is deterministic.
    #[test]
    fn repair_leaves_no_broken_service(s in scenario_strategy()) {
        let (topo, wl, plan) = build(&s);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let (priced, _) = committed(&ctx, &wl);

        let out = repair_schedule(&ctx, priced.clone(), &plan).unwrap();
        let original: Vec<Request> =
            wl.requests.groups().flat_map(|(_, g)| g.iter().copied()).collect();
        let served = RequestBatch::new(out.adjusted_requests(&original));
        let report = simulate_with_faults(
            &topo,
            &wl.catalog,
            &model,
            out.priced.schedule(),
            &plan,
            &[],
            &SimOptions::strict(&served),
        )
        .unwrap();
        let broken: Vec<&Violation> = report
            .violations
            .iter()
            .filter(|v| {
                matches!(
                    v,
                    Violation::StreamOnFailedLink { .. } | Violation::ResidencyLostToOutage { .. }
                )
            })
            .collect();
        prop_assert!(broken.is_empty(), "repair left broken services: {broken:?}");

        // Full delivery: repair never sheds.
        prop_assert_eq!(out.priced.schedule().delivery_count(), wl.requests.len());
        prop_assert_eq!(served.len(), wl.requests.len());

        // Bit-identical decisions on a second run.
        let again = repair_schedule(&ctx, priced, &plan).unwrap();
        prop_assert_eq!(out.priced.schedule(), again.priced.schedule());
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

        let out = repair_schedule(&ctx, priced, &plan).unwrap();
        let ledger = StorageLedger::from_schedule(&topo, &wl.catalog, out.priced.schedule());
        let overflows = detect_overflows(&topo, &ledger);
        prop_assert!(overflows.is_empty(), "repair re-introduced overflows: {overflows:?}");

        // The same over carried occupancy: the service loop solves the
        // batch on three consecutive days, each over what the days before
        // shipped (at 5 GB a store holds one ≈3.4 GB file, so every store
        // in use is within one profile of capacity) and repairs it on that
        // very ledger — base + schedule never overflows.
        let faults = plan_over(&topo, &s, 3);
        let service = ServiceConfig { faults, ..ServiceConfig::default() };
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

    /// Zero faults: repair is a bit-identical no-op.
    #[test]
    fn zero_faults_is_a_bit_identical_noop(
        workload_seed in 0u64..1_000,
        capacity_gb in prop_oneof![Just(5.0), Just(10_000.0)],
    ) {
        let s = Scenario {
            workload_seed,
            fault_seed: 0,
            capacity_gb,
            node_outages: 0,
            link_failures: 0,
            link_degradations: 0,
        };
        let (topo, wl, plan) = build(&s);
        prop_assert!(plan.is_empty());
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let (priced, _) = committed(&ctx, &wl);
        let before = priced.schedule().clone();
        let total = priced.total();

        let out = repair_schedule(&ctx, priced, &plan).unwrap();
        prop_assert!(out.unchanged);
        prop_assert_eq!(out.priced.schedule(), &before);
        prop_assert_eq!(out.cost(), total);
        prop_assert!(out.delayed.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// A generated plan only fails links whose removal keeps the graph
    /// connected, so no cycle's faults cut a home off: for every 24 h
    /// sub-plan of a 3-day plan — the faults overlapping that window, as
    /// the service loop repairs against — every home stays reachable from
    /// the warehouse around the sub-plan's failed links. This is why
    /// repair's cut-off branch is never taken on a generated plan.
    #[test]
    fn generated_plans_never_cut_a_home_off_for_a_cycle(
        fault_seed in any::<u64>(),
        topo_seed in 0u64..1_000,
        node_outages in 0usize..=4,
        link_failures in 0usize..=6,
        link_degradations in 0usize..=2,
        fig4 in any::<bool>(),
        extra_edges in 0usize..=3,
    ) {
        let topo = if fig4 {
            builders::paper_fig4(&builders::PaperFig4Config::default())
        } else {
            builders::random_connected(&builders::GenConfig::default(), extra_edges, topo_seed)
        };
        let days = 3;
        let fcfg = FaultConfig {
            node_outages,
            link_failures,
            link_degradations,
            horizon: days as f64 * HORIZON,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(&topo, &fcfg, fault_seed);
        let vw = topo.warehouse();
        for day in 0..days {
            let (t0, t1) = (day as f64 * HORIZON, (day + 1) as f64 * HORIZON);
            let sub: Vec<Fault> =
                plan.faults().iter().filter(|f| f.overlaps(t0, t1)).copied().collect();
            let sub = FaultPlan::new(sub);
            let routes = RouteTable::build_avoiding(&topo, &sub.failed_links());
            for user in topo.users() {
                prop_assert!(
                    routes.reachable(vw, user.home),
                    "day {}: home {} cut off by {:?}", day, user.home, sub.failed_links()
                );
            }
        }
    }
}
