//! Reconciliation decisions, pinned cycle by cycle. Two of the
//! benchmark's cells run over one `CommittedBook` through the sharded
//! pipeline, and every cycle must reproduce the recorded Ψ (to the bit),
//! victims, iterations, global-pass iterations and victims, cross-shard
//! overflows, storage rescans and scored trial jobs. A change to how the
//! global pass is set up that claims to keep its decisions must leave
//! every row as it is. Only how a scored job was answered (a fresh greedy
//! run, or a trial replayed from a cache) may move, so the rows pin
//! `trials_run + trials_cached` and not the split.

use vod_paradigm::core::{shard_solve_seeded, CommittedBook, SchedCtx};
use vod_paradigm::experiments::Scenario;
use vod_paradigm::prelude::*;

/// One cycle: Ψ bits, then victims, iterations, reconcile iterations,
/// reconcile victims, cross-shard overflows, storages rescanned and
/// trial jobs scored.
type Row = (u64, [usize; 7]);

/// Drive one cycle of `scenario` per row of `want` through its shard
/// config and one committed book, and assert each cycle's row.
fn drive(scenario: Scenario, want: &[Row]) {
    let (topo, catalog, arrivals, svc) = Scenario { cycles: want.len(), ..scenario }.build();
    let cfg = &svc.shard;
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let mut book = CommittedBook::new(&topo);
    let mut next = 0;
    for (k, want) in want.iter().enumerate() {
        let t0 = k as f64 * svc.horizon;
        let first = next;
        while next < arrivals.len() && arrivals[next].at <= t0 {
            next += 1;
        }
        let batch = RequestBatch::new(arrivals[first..next].iter().map(|a| a.request).collect());
        book.evict_expired(t0);
        let mut out = shard_solve_seeded(&ctx, &batch, cfg, book.ledger());
        book.absorb(&ctx, &mut out.sorp.schedule, None);
        let s = &out.sorp;
        let got = (
            s.cost.to_bits(),
            [
                s.victims.len(),
                s.iterations,
                out.reconcile_iterations,
                out.reconcile_victims,
                out.cross_shard_overflows,
                s.nodes_rescanned,
                s.trials_run + s.trials_cached,
            ],
        );
        assert_eq!(&got, want, "cycle {k}");
    }
}

/// `steady`: the paper's Fig. 4 network at 5 GB, 500 titles, 380 requests
/// a cycle in four regions over a global catalog. Its cross-shard
/// overflows make the global pass commit victims.
#[test]
fn steady_cell_reconciles_as_pinned() {
    assert!(STEADY.iter().any(|(_, r)| r[2] > 0), "the global pass never ran an iteration");
    drive(Scenario::named("steady"), &STEADY);
}

/// `contended`: 24 stores of 1.8 GB, 150 titles, 672 requests a cycle in
/// four time slices sharing every storage.
#[test]
fn contended_cell_reconciles_as_pinned() {
    drive(Scenario::named("contended"), &CONTENDED);
}

#[rustfmt::skip]
const STEADY: [Row; 24] = [
    (4696806226738154134, [21, 21, 0, 0, 0, 122, 172]),
    (4696826523551242184, [21, 21, 0, 0, 0, 122, 160]),
    (4696766348860018519, [27, 27, 0, 0, 0, 130, 256]),
    (4696699030608979844, [25, 25, 0, 0, 0, 126, 251]),
    (4696801254783304363, [21, 21, 0, 0, 0, 124, 148]),
    (4696791785403105948, [26, 26, 1, 1, 1, 127, 226]),
    (4697067327209989174, [23, 23, 0, 0, 0, 126, 158]),
    (4696772853804414665, [18, 18, 0, 0, 0, 121, 108]),
    (4696884252715075593, [20, 20, 2, 2, 2, 130, 122]),
    (4696891935302713171, [16, 16, 0, 0, 0, 118, 85]),
    (4696906820192450548, [27, 27, 0, 0, 0, 131, 242]),
    (4696877485126454037, [24, 24, 0, 0, 0, 125, 173]),
    (4696699034947778912, [29, 29, 0, 0, 0, 138, 256]),
    (4696584665856119390, [19, 19, 0, 0, 0, 125, 121]),
    (4696867636226088565, [15, 15, 0, 0, 0, 117, 85]),
    (4696776234177708291, [24, 24, 0, 0, 0, 128, 166]),
    (4696834330514293206, [27, 27, 1, 1, 1, 134, 245]),
    (4696858860972739748, [24, 24, 0, 0, 0, 126, 175]),
    (4696787723629188054, [21, 21, 0, 0, 0, 123, 154]),
    (4696887249758499836, [19, 19, 0, 0, 0, 118, 111]),
    (4696930169792019684, [16, 16, 0, 0, 0, 113, 89]),
    (4696806412063748254, [20, 20, 0, 0, 0, 124, 126]),
    (4696680858194191814, [19, 19, 1, 1, 1, 124, 167]),
    (4696698798150397668, [17, 17, 0, 0, 0, 121, 106]),
];

#[rustfmt::skip]
const CONTENDED: [Row; 8] = [
    (4700470096024771601, [53, 53, 0, 0, 0, 222, 928]),
    (4700396758687527859, [57, 57, 0, 0, 0, 232, 826]),
    (4700473636952407552, [51, 51, 0, 0, 0, 223, 766]),
    (4700459032715645321, [47, 47, 0, 0, 0, 221, 807]),
    (4700455435972889898, [52, 52, 0, 0, 0, 227, 880]),
    (4700446325297609903, [60, 60, 0, 0, 0, 230, 986]),
    (4700394606070544310, [53, 53, 0, 0, 0, 226, 813]),
    (4700483035093980272, [62, 62, 0, 0, 0, 227, 989]),
];
