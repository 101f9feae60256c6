//! The whole-run judge: every committed cycle of a run stitched into one
//! schedule and replayed once, strictly, under the run's whole fault plan
//! with the ladder's sheds excused. One replay covers what no per-cycle
//! replay can see: the book over capacity across cycles, a stream or a
//! stored copy outliving its window into a fault, and a copy held across
//! the window boundary. A held copy and its continuations become one
//! residency — its fill from the cycle that held it, its services and its
//! final last service from the cycles that continued it — and Ψ of the
//! stitched schedule must be the sum of the cycles' Ψ.

use std::collections::BTreeMap;
use vod_paradigm::core::{service_run, SchedCtx, ServiceCycleOutcome};
use vod_paradigm::experiments::Scenario;
use vod_paradigm::prelude::*;
use vod_paradigm::simulator::{cycle_is_clean, simulate_with_faults, SimOptions, Violation};

/// Cycles driven per run.
const CYCLES: usize = 120;
const SEEDS: [u64; 2] = [1997, 4242];

/// Every cycle's schedule in one: transfers appended, and each carried
/// residency folded into the copy it continues, which one of the cycle's
/// inherited copies names.
fn stitch(outcomes: &[ServiceCycleOutcome]) -> Schedule {
    let mut videos: BTreeMap<VideoId, VideoSchedule> = BTreeMap::new();
    for out in outcomes {
        for vs in out.schedule.videos() {
            let whole = videos.entry(vs.video).or_insert_with(|| VideoSchedule::new(vs.video));
            whole.transfers.extend(vs.transfers.iter().cloned());
            for r in &vs.residencies {
                if !r.carried {
                    whole.residencies.push(r.clone());
                    continue;
                }
                let inherited = out
                    .inherited
                    .iter()
                    .any(|h| h.video == r.video && h.loc == r.loc && h.last_service == r.start);
                assert!(inherited, "cycle {}: {r:?} continues no inherited copy", out.stats.cycle);
                let held = whole
                    .residencies
                    .iter_mut()
                    .find(|h| h.loc == r.loc && h.last_service == r.start)
                    .unwrap_or_else(|| panic!("cycle {}: no held copy for {r:?}", out.stats.cycle));
                held.last_service = r.last_service;
                held.service_count += r.service_count;
            }
        }
    }
    videos.into_values().collect()
}

/// Drive `name` at `seed`, stitch the run and replay it once; returns the
/// copies the run continued across a window boundary.
fn the_stitched_run_replays_clean(name: &str, seed: u64) -> usize {
    let at = format!("{name} at seed {seed}");
    let (topo, catalog, arrivals, cfg) =
        Scenario { seed, cycles: CYCLES, ..Scenario::named(name) }.build();
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let (outcomes, _) = service_run(&ctx, &arrivals, &cfg, CYCLES).expect("a generated plan");

    let stitched = stitch(&outcomes);
    let shed: Vec<Request> = outcomes.iter().flat_map(|o| o.shed_now.iter().copied()).collect();
    let mut expected: Vec<Request> =
        outcomes.iter().flat_map(|o| o.served.iter().copied()).collect();
    expected.extend(shed.iter().copied());
    let batch = RequestBatch::new(expected);
    let sim = simulate_with_faults(
        &topo,
        &catalog,
        &model,
        &stitched,
        &cfg.faults,
        &shed,
        &SimOptions::strict(&batch),
    )
    .expect("a generated plan validates");
    let foreign: Vec<_> =
        sim.violations.iter().filter(|v| !matches!(v, Violation::RequestShed { .. })).collect();
    assert!(cycle_is_clean(&sim), "{at}: the stitched run is dirty: {foreign:?}");

    let psi: f64 = outcomes.iter().map(|o| o.cost).sum();
    let whole = model.schedule_cost(&topo, &catalog, &stitched);
    assert!(
        (psi - whole).abs() <= 1e-9 * psi.abs(),
        "{at}: the cycles charge {psi}, the stitched run costs {whole}"
    );
    outcomes.iter().map(|o| o.inherited.len()).sum()
}

#[test]
fn steady_whole_run_replays_clean_and_costs_its_cycles() {
    for seed in SEEDS {
        the_stitched_run_replays_clean("steady", seed);
    }
}

/// No copy fits the cell's 1.8 GB stores whole, so nothing is held.
#[test]
fn contended_whole_run_replays_clean_and_costs_its_cycles() {
    for seed in SEEDS {
        assert_eq!(the_stitched_run_replays_clean("contended", seed), 0);
    }
}

#[test]
fn overload_faults_whole_run_replays_clean_and_costs_its_cycles() {
    for seed in SEEDS {
        the_stitched_run_replays_clean("overload_faults", seed);
    }
}

/// Nearly every copy of the cell recurs the next window and is held.
#[test]
fn ample_wide_whole_run_replays_clean_and_costs_its_cycles() {
    for seed in SEEDS {
        let continued = the_stitched_run_replays_clean("ample_wide", seed);
        assert!(continued > 100 * CYCLES, "{continued} copies continued over {CYCLES} cycles");
    }
}
