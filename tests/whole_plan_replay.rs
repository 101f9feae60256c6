//! Whole-plan replay of the benchmark's `overload_faults` cell: every
//! committed cycle replays clean under the run's *whole* fault plan, not
//! only under the faults inside its own window. A stream or residency that
//! outlives its cycle's window and runs into a fault that starts later
//! must have been repaired around that fault too.

use vod_paradigm::core::{service_run, SchedCtx, ServiceConfig, ShardConfig};
use vod_paradigm::faults::{FaultConfig, FaultPlan};
use vod_paradigm::prelude::*;
use vod_paradigm::simulator::{cycle_is_clean, simulate_with_faults, SimOptions};
use vod_paradigm::workload::{
    generate_arrivals, generate_catalog, Arrival, ArrivalConfig, CatalogConfig, RequestConfig,
};

const H: f64 = 24.0 * 3_600.0;
/// Cycles driven per seed.
const CYCLES: usize = 200;

/// The `overload_faults` cell at `seed`, built as
/// `tests/service_overload_e2e.rs` builds it at seed 1997.
fn overload_faults_cell(seed: u64) -> (Topology, Catalog, Vec<Arrival>, ServiceConfig) {
    const RUN_CYCLES: usize = 800; // the fault plan is drawn over the whole benchmark run
    let topo = builders::paper_fig4(&builders::PaperFig4Config {
        capacity_gb: 5.0,
        users_per_neighborhood: 10,
        ..Default::default()
    });
    let catalog = generate_catalog(&CatalogConfig::small(120), 0xCA7A_10C0_FFEE_0001);
    let arrivals = generate_arrivals(
        &topo,
        &catalog,
        &ArrivalConfig {
            request: RequestConfig { requests_per_user: 2, ..RequestConfig::with_alpha(0.271) },
            cycles: CYCLES + 2,
            burst: (0..CYCLES + 2).filter(|k| k % 8 == 1).map(|k| (k, 8)).collect(),
            ..Default::default()
        },
        seed,
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
        seed ^ 0xFA17_0000_0000_0001,
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

/// Drive the cell at `seed` and replay each committed cycle under the
/// whole plan, its ladder sheds excused; no other violation may show.
fn every_cycle_replays_clean_under_the_whole_plan(seed: u64) {
    let (topo, catalog, arrivals, cfg) = overload_faults_cell(seed);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let (outcomes, _) = service_run(&ctx, &arrivals, &cfg, CYCLES).expect("a generated plan");
    let dirty: Vec<String> = outcomes
        .iter()
        .filter_map(|out| {
            let mut expected = out.served.clone();
            expected.extend(out.shed_now.iter().copied());
            let batch = RequestBatch::new(expected);
            let sim = simulate_with_faults(
                &topo,
                &catalog,
                &model,
                &out.schedule,
                &cfg.faults,
                &out.shed_now,
                &SimOptions::strict(&batch),
            )
            .expect("a generated plan validates");
            (!cycle_is_clean(&sim))
                .then(|| format!("cycle {}: {:?}", out.stats.cycle, sim.violations))
        })
        .collect();
    assert!(dirty.is_empty(), "seed {seed}: dirty under the whole plan:\n{}", dirty.join("\n"));
}

#[test]
fn overload_faults_cell_replays_clean_under_the_whole_plan_at_seed_1997() {
    every_cycle_replays_clean_under_the_whole_plan(1997);
}

#[test]
fn overload_faults_cell_replays_clean_under_the_whole_plan_at_seed_4242() {
    every_cycle_replays_clean_under_the_whole_plan(4242);
}
