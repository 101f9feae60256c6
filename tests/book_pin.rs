//! The committed book, held to its definition cycle by cycle. Four reduced
//! cells of the benchmark run through `ServiceLoop`, and in lockstep a
//! reference `CommittedBook` evicts at the window start and commits every
//! shipped residency one by one. After every cycle the two books must
//! agree on every storage, to the bit: the entries in order, the plateau
//! sum, every occupancy segment, and the active-profile count. However the
//! service builds its book, it must be this one.

mod common;

use vod_obs::Recorder;
use vod_paradigm::core::{CommittedBook, ExecMode, Rung, SchedCtx, ServiceLoop};
use vod_paradigm::experiments::Scenario;
use vod_paradigm::prelude::*;

/// One storage's row as bits: entries, plateau sum, segments.
type RowBits = (Vec<(u32, [u64; 5])>, u64, Vec<[u64; 4]>);

fn row_bits(topo: &Topology, book: &CommittedBook) -> Vec<RowBits> {
    let ledger = book.ledger();
    topo.storages()
        .map(|loc| {
            let entries = ledger
                .profiles_at(loc)
                .iter()
                .map(|(v, p)| {
                    let bits = [p.start, p.full, p.last, p.end, p.plateau].map(f64::to_bits);
                    (v.0, bits)
                })
                .collect();
            let mut segments = Vec::new();
            ledger.for_each_segment(loc, |t0, t1, u0, u1| {
                segments.push([t0, t1, u0, u1].map(f64::to_bits));
            });
            (entries, ledger.plateau_sum(loc).to_bits(), segments)
        })
        .collect()
}

/// Drive the scenario's cycles through a service, comparing its book with
/// the reference after each; returns the recording and the rung of every
/// cycle.
fn drive(scenario: &Scenario) -> (vod_obs::Recording, Vec<Rung>) {
    let (topo, catalog, arrivals, cfg) = scenario.build();
    let horizon = cfg.horizon;
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog).with_recorder(Recorder::enabled());
    let mut svc = ServiceLoop::new(&topo, cfg).expect("a valid plan");
    let mut reference = CommittedBook::new(&topo);
    let (mut next, mut rungs) = (0, Vec::new());
    for k in 0..scenario.cycles {
        let t0 = k as f64 * horizon;
        while next < arrivals.len() && arrivals[next].at <= t0 {
            let _ = svc.offer(arrivals[next].request);
            next += 1;
        }
        let out = svc.run_cycle(&ctx, ExecMode::Sequential);
        reference.evict_expired(t0);
        for r in out.schedule.residencies() {
            reference.commit(r.loc, r.profile(catalog.get(r.video)));
        }
        assert_eq!(svc.book().active(), reference.active(), "cycle {k}: active profiles");
        let (got, want) = (row_bits(&topo, svc.book()), row_bits(&topo, &reference));
        for ((loc, got), want) in topo.storages().zip(&got).zip(&want) {
            assert!(got == want, "cycle {k}: the book's row at {loc} is not the reference's");
        }
        rungs.push(out.stats.rung);
    }
    (ctx.recorder.recording().expect("recording"), rungs)
}

fn sum(rec: &vod_obs::Recording, kind: &str, field: &str) -> u64 {
    rec.events_of(kind).filter_map(|e| e.u64(field)).sum()
}

/// `steady`: region shards over a global catalog; the global pass commits.
#[test]
fn steady_cell_book_is_the_reference() {
    let (rec, _) = drive(&Scenario { cycles: 10, ..Scenario::named("steady") });
    assert!(sum(&rec, "shard_solve", "reconcile_victims") > 0, "the global pass never committed");
}

/// `contended`: time-slice shards, every storage shared.
#[test]
fn contended_cell_book_is_the_reference() {
    let (rec, _) = drive(&Scenario { cycles: 4, ..Scenario::named("contended") });
    assert!(sum(&rec, "shard_solve", "shared_storages") > 0, "no storage was shared");
}

/// `overload_faults`: bursts, a bounded queue, a budget and faults, so
/// repair commits and the degraded rungs run. The ladder has three rungs;
/// under a 9e6 ns budget, tighter than the cell's own 11e6 ns, the first
/// 20 cycles visit all three: bursts go to `GreedyOnly` or `Shed`, and
/// `ReducedTrials`, a name only, never runs.
#[test]
fn overload_faults_cell_book_is_the_reference() {
    let scenario =
        Scenario { cycles: 20, budget_ns: Some(9e6), ..Scenario::named("overload_faults") };
    let (rec, rungs) = drive(&scenario);
    assert!(sum(&rec, "repair", "repaired_videos") > 0, "repair never committed");
    for rung in [Rung::Full, Rung::GreedyOnly, Rung::Shed] {
        assert!(rungs.contains(&rung), "no cycle ran on {rung:?}");
    }
    assert!(!rungs.contains(&Rung::ReducedTrials), "a cycle ran on the retired rung");
}

/// `ample_wide`: regional catalogs, local-only placement, region shards.
#[test]
fn ample_wide_cell_book_is_the_reference() {
    const CYCLES: usize = 6;
    let (rec, _) = drive(&common::small_ample_wide(CYCLES));
    assert!(sum(&rec, "shard_solve", "shards") > CYCLES as u64, "the batch was never sharded");
}
