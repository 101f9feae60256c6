//! Work budget of the SORP resolution loop: a commit moves two or three
//! storages, so an iteration materializes — `overflow_set`, sort, a bans
//! clone per participant — only the trial jobs of those storages, and
//! every other job stands with the trial and the score it last had. The
//! ceiling sits 25 % above the measured share of scored jobs that were
//! rebuilt; rebuilding every job every iteration is 1.0 by construction
//! (the naive oracle reports exactly that) and cannot come back under it.
//!
//! Over the benchmark's 200-cycle run the same ratio reads 0.175
//! (EXPERIMENTS.md, *Standing trial jobs*).

use vod_paradigm::core::{shard_solve_seeded, CommittedBook, SchedCtx};
use vod_paradigm::experiments::Scenario;
use vod_paradigm::prelude::*;

const CYCLES: usize = 24;
/// 25 % above the 0.175 of scored jobs (3 395 of 19 398) measured as
/// rebuilt for this cell.
const CEILING: f64 = 0.219;

#[test]
fn a_resolution_iteration_rebuilds_only_the_jobs_its_commit_moved() {
    // The benchmark's `contended` cell: 24 stores of 1.8 GB, 96 users
    // asking seven times a cycle out of 150 titles, four time slices.
    let (topo, catalog, arrivals, svc) =
        Scenario { cycles: CYCLES, ..Scenario::named("contended") }.build();
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let cfg = svc.shard;
    let mut book = CommittedBook::new(&topo);

    let (mut next, mut rebuilt, mut scored) = (0, 0usize, 0usize);
    for k in 0..CYCLES {
        let t0 = k as f64 * svc.horizon;
        let first = next;
        while next < arrivals.len() && arrivals[next].at <= t0 {
            next += 1;
        }
        let batch = RequestBatch::new(arrivals[first..next].iter().map(|a| a.request).collect());
        book.evict_expired(t0);
        let mut out = shard_solve_seeded(&ctx, &batch, &cfg, book.ledger());
        book.absorb(&ctx, &mut out.sorp.schedule, None);
        rebuilt += out.sorp.jobs_rebuilt;
        scored += out.sorp.trials_run + out.sorp.trials_cached;
    }
    let share = rebuilt as f64 / scored as f64;
    assert!(scored >= 24 * 500, "the cell scores about 800 jobs a cycle, got {scored}");
    assert!(
        share <= CEILING,
        "{rebuilt} of {scored} scored jobs were rebuilt: {share:.3} (ceiling {CEILING})"
    );
}
