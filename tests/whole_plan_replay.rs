//! Whole-plan replay of the benchmark's `overload_faults` cell: every
//! committed cycle replays clean under the run's *whole* fault plan, not
//! only under the faults inside its own window. A stream or residency that
//! outlives its cycle's window and runs into a fault that starts later
//! must have been repaired around that fault too.

use vod_paradigm::core::{service_run, SchedCtx};
use vod_paradigm::experiments::Scenario;
use vod_paradigm::prelude::*;
use vod_paradigm::simulator::{cycle_is_clean, simulate_with_faults, SimOptions};

/// Cycles driven per seed.
const CYCLES: usize = 200;

/// Drive the cell at `seed` and replay each committed cycle under the
/// whole plan, its ladder sheds excused; no other violation may show.
fn every_cycle_replays_clean_under_the_whole_plan(seed: u64) {
    let (topo, catalog, arrivals, cfg) =
        Scenario { seed, cycles: CYCLES, ..Scenario::named("overload_faults") }.build();
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
                &SimOptions { inherited: &out.inherited, ..SimOptions::strict(&batch) },
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
