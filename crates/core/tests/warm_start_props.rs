//! Property tests for the cross-cycle warm start: warm-started Ψ must
//! equal the cold-start oracle's Ψ on every cycle across seeds and
//! shard counts, and the warm state must never resurrect an expired
//! reservation (neither in the committed book nor in the delivered
//! schedule). A warm cycle is what `ServiceLoop::run_cycle` does around
//! its solve: evict, solve over the book's ledger, absorb.

use proptest::prelude::*;
use vod_core::{
    shard_solve_seeded, CommittedBook, SchedCtx, ShardConfig, ShardOutcome, StorageLedger,
    EXTERNAL_OCCUPANCY,
};
use vod_cost_model::{Catalog, CostModel, Request, RequestBatch, SpaceProfile};
use vod_topology::{builders, NodeId, Topology};
use vod_workload::{generate_catalog, generate_requests, CatalogConfig, RequestConfig};

const HORIZON: f64 = 24.0 * 3_600.0;

fn world(capacity_gb: f64, seed: u64) -> (Topology, Catalog) {
    let topo =
        builders::paper_fig4(&builders::PaperFig4Config { capacity_gb, ..Default::default() });
    let catalog = generate_catalog(&CatalogConfig::small(30), seed ^ 0xC0FFEE);
    (topo, catalog)
}

/// Cycle `k`'s batch: a fresh workload draw shifted onto `[kH, (k+1)H)`.
fn cycle_batch(topo: &Topology, catalog: &Catalog, seed: u64, k: usize) -> RequestBatch {
    let raw = generate_requests(topo, catalog, &RequestConfig::paper(), seed ^ (k as u64 + 1));
    RequestBatch::new(
        raw.iter().map(|r| Request { start: r.start + k as f64 * HORIZON, ..*r }).collect(),
    )
}

/// The cold reference's base: a flat committed-profile list as a ledger.
fn flat_ledger(topo: &Topology, committed: &[(NodeId, SpaceProfile)]) -> StorageLedger {
    let mut ledger = StorageLedger::new(topo);
    for &(loc, profile) in committed {
        ledger.add(loc, EXTERNAL_OCCUPANCY, profile);
    }
    ledger
}

/// One warm cycle over `book`; returns the outcome and the eviction's
/// `(profiles kept, profiles evicted)`.
fn warm_cycle(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    cfg: &ShardConfig,
    book: &mut CommittedBook,
    t0: f64,
) -> (ShardOutcome, (usize, usize)) {
    let evicted = book.evict_expired(t0);
    let kept = book.active();
    let out = shard_solve_seeded(ctx, batch, cfg, book.ledger());
    book.absorb(ctx, &out.sorp.schedule);
    (out, (kept, evicted))
}

fn request_multiset(batch: &RequestBatch) -> Vec<(u32, u32, u64)> {
    let mut v: Vec<(u32, u32, u64)> =
        batch.iter().map(|r| (r.user.0, r.video.0, r.start.to_bits())).collect();
    v.sort_unstable();
    v
}

fn delivered_multiset(schedule: &vod_cost_model::Schedule) -> Vec<(u32, u32, u64)> {
    let mut v: Vec<(u32, u32, u64)> = schedule
        .videos()
        .flat_map(|vs| {
            vs.delivered_requests()
                .into_iter()
                .map(move |r| (r.user.0, vs.video.0, r.start.to_bits()))
        })
        .collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Rolling three cycles warm produces, on every cycle, the same Ψ
    /// (within 1e-9 relative) as re-solving that cycle from scratch
    /// against the flat committed-profile list — across workload seeds,
    /// shard counts, and capacities.
    #[test]
    fn warm_psi_equals_cold_psi_on_every_cycle(
        seed in 0u64..500,
        shards in 1usize..6,
        capacity_gb in prop_oneof![Just(5.0), Just(8.0)],
    ) {
        let (topo, catalog) = world(capacity_gb, seed);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let cfg = ShardConfig { shards, ..ShardConfig::default() };

        let mut book = CommittedBook::new(&topo);
        let mut committed: Vec<(NodeId, SpaceProfile)> = Vec::new();
        for k in 0..3usize {
            let batch = cycle_batch(&topo, &catalog, seed, k);
            let t0 = k as f64 * HORIZON;
            let (w, _) = warm_cycle(&ctx, &batch, &cfg, &mut book, t0);
            let base = flat_ledger(&topo, &committed);
            let c = shard_solve_seeded(&ctx, &batch, &cfg, &base);
            prop_assert!(w.sorp.overflow_free && c.sorp.overflow_free, "cycle {k} left overflows");
            let rel = (w.sorp.cost - c.sorp.cost).abs() / c.sorp.cost.max(1.0);
            prop_assert!(
                rel <= 1e-9,
                "cycle {}: warm Ψ {} vs cold Ψ {} (rel {:e})", k, w.sorp.cost, c.sorp.cost, rel
            );
            for r in c.sorp.schedule.residencies() {
                let p = r.profile(catalog.get(r.video));
                if p.peak() > 0.0 {
                    committed.push((r.loc, p));
                }
            }
        }
    }

    /// The warm state never resurrects an expired reservation: after
    /// every cycle, each committed profile still in the book extends
    /// past the cycle's window start (everything drained earlier was
    /// evicted), the eviction accounting balances exactly, and the
    /// delivered schedule serves precisely the cycle's own batch —
    /// nothing from an earlier window leaks in.
    #[test]
    fn warm_state_never_resurrects_expired_reservations(
        seed in 0u64..500,
        shards in 1usize..5,
    ) {
        let (topo, catalog) = world(5.0, seed);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let cfg = ShardConfig { shards, ..ShardConfig::default() };

        let mut book = CommittedBook::new(&topo);
        let mut prev_active = 0usize;
        for k in 0..3usize {
            let batch = cycle_batch(&topo, &catalog, seed, k);
            let t0 = k as f64 * HORIZON;
            let (out, (kept, evicted)) = warm_cycle(&ctx, &batch, &cfg, &mut book, t0);

            // Eviction accounting: what the eviction kept plus what it
            // dropped is exactly what the previous cycle left behind.
            prop_assert_eq!(
                kept + evicted,
                prev_active,
                "cycle {}: eviction accounting leaked profiles", k
            );
            // Every surviving profile (carried or freshly absorbed) still
            // holds space past the window start.
            for loc in topo.storages() {
                for &(_, p) in book.ledger().profiles_at(loc) {
                    prop_assert!(
                        p.end > t0,
                        "cycle {}: drained profile [{}, {}] at {} survived eviction",
                        k, p.start, p.end, loc
                    );
                }
            }
            // The schedule serves exactly this cycle's batch.
            prop_assert_eq!(
                delivered_multiset(&out.sorp.schedule),
                request_multiset(&batch),
                "cycle {}: delivered requests diverged from the batch", k
            );
            prev_active = book.active();
        }
    }
}

/// Re-submitting the same window's batch solves it again over the first
/// pass's committed occupancy, and the result agrees with the cold
/// oracle seeded with that occupancy as a flat list.
#[test]
fn repeated_batch_agrees_with_cold_oracle() {
    let (topo, catalog) = world(5.0, 9);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let cfg = ShardConfig::default();
    let batch = cycle_batch(&topo, &catalog, 9, 0);

    let mut book = CommittedBook::new(&topo);
    let (first, _) = warm_cycle(&ctx, &batch, &cfg, &mut book, 0.0);
    let (second, _) = warm_cycle(&ctx, &batch, &cfg, &mut book, 0.0);

    // Cold oracle for the second pass: from-scratch solve over the first
    // pass's committed occupancy.
    let committed: Vec<(NodeId, SpaceProfile)> = first
        .sorp
        .schedule
        .residencies()
        .map(|r| (r.loc, r.profile(catalog.get(r.video))))
        .filter(|(_, p)| p.peak() > 0.0)
        .collect();
    let cold = shard_solve_seeded(&ctx, &batch, &cfg, &flat_ledger(&topo, &committed));
    let rel = (second.sorp.cost - cold.sorp.cost).abs() / cold.sorp.cost.max(1.0);
    assert!(rel <= 1e-9, "repeat Ψ {} vs cold {} (rel {rel:e})", second.sorp.cost, cold.sorp.cost);
}
