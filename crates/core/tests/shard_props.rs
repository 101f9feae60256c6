//! Property tests for the sharded scheduler: feasibility must be
//! invariant in the shard count and strategy, the shard merge must
//! conserve request accounting exactly, one shard must coincide
//! bit-for-bit with the monolithic solver, in the regional regime
//! (region shards + neighborhood-local policy + region-unique videos)
//! the sharded Ψ must equal the monolithic Ψ within 1e-9 relative, one
//! shard must stay the monolith over non-empty external occupancy, and
//! the warm cycle (evict, solve over the book's ledger, absorb) must be
//! the cold solve over an empty book, in either execution mode.
//!
//! The monolith is the two phases composed directly on the whole batch:
//! [`sorp_solve_priced`] over [`ivsp_solve_priced_with`].

use proptest::prelude::*;
use vod_core::{
    detect_overflows, ivsp_solve_priced, ivsp_solve_priced_with, shard_solve, shard_solve_seeded,
    sorp_solve_priced, CommittedBook, ExecMode, GreedyPolicy, SchedCtx, ShardConfig, SorpConfig,
    SorpOutcome, StorageLedger, EXTERNAL_OCCUPANCY,
};
use vod_cost_model::{CostModel, Request, RequestBatch, SpaceProfile};
use vod_topology::{builders, NodeId, Topology};
use vod_workload::{
    generate_catalog, generate_regional_requests, generate_requests, partition_requests,
    CatalogConfig, RequestConfig, ShardSpec, ShardStrategy, Workload,
};

/// A random sharded-scheduling scenario.
#[derive(Clone, Debug)]
struct Scenario {
    workload_seed: u64,
    partition_seed: u64,
    capacity_gb: f64,
    shards: usize,
    by_region: bool,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        0u64..1_000,
        0u64..1_000,
        prop_oneof![Just(4.0), Just(5.0), Just(10_000.0)],
        1usize..6,
        any::<bool>(),
    )
        .prop_map(|(workload_seed, partition_seed, capacity_gb, shards, by_region)| Scenario {
            workload_seed,
            partition_seed,
            capacity_gb,
            shards,
            by_region,
        })
}

fn build(s: &Scenario) -> (Topology, Workload, ShardConfig) {
    let cfg = builders::PaperFig4Config { capacity_gb: s.capacity_gb, ..Default::default() };
    let topo = builders::paper_fig4(&cfg);
    let wl = Workload::generate(
        &topo,
        &CatalogConfig::small(24),
        &RequestConfig::paper(),
        s.workload_seed,
    );
    let strategy = if s.by_region { ShardStrategy::ByRegion } else { ShardStrategy::ByTimeSlice };
    let shard_cfg = ShardConfig {
        shards: s.shards,
        strategy,
        seed: s.partition_seed,
        sorp: SorpConfig::default(),
    };
    (topo, wl, shard_cfg)
}

/// The monolithic two-phase solve of the whole batch.
fn monolith(ctx: &SchedCtx<'_>, batch: &RequestBatch, sorp: &SorpConfig) -> SorpOutcome {
    let mode = ExecMode::Sequential;
    sorp_solve_priced(ctx, ivsp_solve_priced_with(ctx, batch, sorp.policy, mode), sorp, &[], mode)
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

fn batch_multiset(batch: &RequestBatch) -> Vec<(u32, u32, u64)> {
    let mut v: Vec<(u32, u32, u64)> =
        batch.iter().map(|r| (r.user.0, r.video.0, r.start.to_bits())).collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Whatever the shard count or strategy, the reconciled schedule
    /// serves every request of the original batch (exact multiset) and
    /// respects every storage capacity — re-checked from a from-scratch
    /// ledger, not the solver's own bookkeeping. A second run is
    /// bit-identical.
    #[test]
    fn feasibility_is_shard_count_invariant(s in scenario_strategy()) {
        let (topo, wl, cfg) = build(&s);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let out = shard_solve(&ctx, &wl.requests, &cfg, vod_core::ExecMode::Sequential);

        prop_assert!(out.sorp.overflow_free, "reconciliation left overflows");
        prop_assert_eq!(
            delivered_multiset(&out.sorp.schedule),
            batch_multiset(&wl.requests),
            "delivered requests diverged from the batch"
        );
        let ledger = StorageLedger::from_schedule(&topo, &wl.catalog, &out.sorp.schedule);
        let overflows = detect_overflows(&topo, &ledger);
        prop_assert!(overflows.is_empty(), "independent re-check found overflows: {overflows:?}");

        let again = shard_solve(&ctx, &wl.requests, &cfg, vod_core::ExecMode::Sequential);
        prop_assert_eq!(&out.sorp.schedule, &again.sorp.schedule, "sharded solve not deterministic");
        prop_assert_eq!(out.sorp.cost.to_bits(), again.sorp.cost.to_bits());
    }

    /// The partition itself conserves requests: shard sizes sum to the
    /// batch size and the shard union is the exact multiset of the batch
    /// — the accounting the merge inherits.
    #[test]
    fn partition_conserves_request_accounting(s in scenario_strategy()) {
        let (topo, wl, cfg) = build(&s);
        let spec = ShardSpec { shards: cfg.shards, strategy: cfg.strategy, seed: cfg.seed };
        let parts = partition_requests(&topo, &wl.requests, &spec);
        prop_assert!(!parts.is_empty() && parts.len() <= cfg.shards.max(1));
        prop_assert_eq!(
            parts.iter().map(|p| p.len()).sum::<usize>(),
            wl.requests.len(),
            "shard sizes do not sum to the batch"
        );
        let mut union: Vec<(u32, u32, u64)> =
            parts.iter().flat_map(batch_multiset).collect();
        union.sort_unstable();
        prop_assert_eq!(union, batch_multiset(&wl.requests), "shard union lost or duplicated requests");
    }

    /// One shard is the monolith exactly: schedule, cost bits, iteration
    /// count, and victim sequence all coincide.
    #[test]
    fn one_shard_is_bit_identical_to_monolithic(s in scenario_strategy()) {
        let (topo, wl, mut cfg) = build(&s);
        cfg.shards = 1;
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let sharded = shard_solve(&ctx, &wl.requests, &cfg, vod_core::ExecMode::Sequential);
        let mono = monolith(&ctx, &wl.requests, &cfg.sorp);
        prop_assert_eq!(&sharded.sorp.schedule, &mono.schedule);
        prop_assert_eq!(sharded.sorp.cost.to_bits(), mono.cost.to_bits());
        prop_assert_eq!(sharded.sorp.iterations, mono.iterations);
        prop_assert_eq!(sharded.sorp.victims.len(), mono.victims.len());
        prop_assert_eq!(sharded.sorp.forced_fallbacks, mono.forced_fallbacks);
    }

    /// The regional regime: region shards, neighborhood-local policy,
    /// region-unique catalog slices. The sharded and monolithic solvers
    /// must produce the same schedule and a total Ψ within 1e-9
    /// relative.
    #[test]
    fn regional_regime_psi_matches_monolithic(
        workload_seed in 0u64..1_000,
        shards in 2usize..7,
        capacity_gb in prop_oneof![Just(5.0), Just(10_000.0)],
    ) {
        let topo = builders::paper_fig4(
            &builders::PaperFig4Config { capacity_gb, ..Default::default() },
        );
        let catalog = generate_catalog(&CatalogConfig::small(95), workload_seed);
        let requests = generate_regional_requests(
            &topo,
            &catalog,
            &RequestConfig::paper(),
            workload_seed,
        );
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let sorp = SorpConfig {
            policy: GreedyPolicy { allow_remote_placement: false, ..GreedyPolicy::default() },
            ..SorpConfig::default()
        };
        let cfg = ShardConfig {
            shards,
            strategy: ShardStrategy::ByRegion,
            seed: workload_seed,
            sorp: sorp.clone(),
        };
        let sharded = shard_solve(&ctx, &requests, &cfg, vod_core::ExecMode::Sequential);
        let mono = monolith(&ctx, &requests, &sorp);
        prop_assert!(sharded.sorp.overflow_free && mono.overflow_free);
        prop_assert_eq!(sharded.split_videos, 0, "regional workload must never split a video");
        prop_assert_eq!(&sharded.sorp.schedule, &mono.schedule, "schedules diverged");
        let rel = (sharded.sorp.cost - mono.cost).abs() / mono.cost.abs().max(1.0);
        prop_assert!(rel <= 1e-9, "Ψ {} vs monolithic {} (rel {rel:e})",
            sharded.sorp.cost, mono.cost);
    }
}

fn paper_world(capacity_gb: f64, seed: u64) -> (Topology, Workload) {
    let topo =
        builders::paper_fig4(&builders::PaperFig4Config { capacity_gb, ..Default::default() });
    let wl = Workload::generate(&topo, &CatalogConfig::small(80), &RequestConfig::paper(), seed);
    (topo, wl)
}

#[test]
fn one_shard_is_bit_identical_to_monolithic_on_the_paper_instance() {
    let (topo, wl) = paper_world(5.0, 2);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let cfg = ShardConfig { shards: 1, ..ShardConfig::default() };
    let sharded = shard_solve(&ctx, &wl.requests, &cfg, ExecMode::Sequential);
    let mono = monolith(&ctx, &wl.requests, &cfg.sorp);
    assert!(sharded.sorp.schedule == mono.schedule);
    assert_eq!(sharded.sorp.cost.to_bits(), mono.cost.to_bits());
    assert_eq!(sharded.sorp.iterations, mono.iterations);
    assert_eq!(sharded.sorp.victims.len(), mono.victims.len());
}

#[test]
fn regional_regime_matches_monolithic_psi() {
    // ByRegion shards + local-only policy + region-unique videos:
    // the decomposition is exact up to float summation order.
    let topo =
        builders::paper_fig4(&builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() });
    let catalog = generate_catalog(&CatalogConfig::small(95), 7);
    let requests = generate_regional_requests(
        &topo,
        &catalog,
        &RequestConfig { requests_per_user: 2, ..RequestConfig::paper() },
        7,
    );
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let sorp = SorpConfig {
        policy: GreedyPolicy { allow_remote_placement: false, ..GreedyPolicy::default() },
        ..SorpConfig::default()
    };
    let mono = monolith(&ctx, &requests, &sorp);
    for shards in [2, 4, 6] {
        let cfg = ShardConfig { shards, sorp: sorp.clone(), ..ShardConfig::default() };
        let sharded = shard_solve(&ctx, &requests, &cfg, ExecMode::Sequential);
        assert!(sharded.sorp.overflow_free && mono.overflow_free);
        assert_eq!(sharded.split_videos, 0, "regional workload must not split videos");
        let rel = (sharded.sorp.cost - mono.cost).abs() / mono.cost.max(1.0);
        assert!(
            rel <= 1e-9,
            "{shards} shards: Ψ {} vs monolithic {} (rel {rel:e})",
            sharded.sorp.cost,
            mono.cost
        );
        assert!(sharded.sorp.schedule == mono.schedule, "{shards} shards: schedules diverged");
    }
}

/// One shard over *non-empty* external occupancy is still the monolith,
/// bit for bit: three consecutive cycles, each solved against the flat
/// list of every earlier cycle's residency profiles — the original
/// rolling loop (`ivsp` + `sorp_solve_priced` over the committed list).
#[test]
fn cold_monolithic_matches_the_legacy_loop() {
    let (topo, wl) = paper_world(5.0, 3);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let cfg = ShardConfig { shards: 1, ..ShardConfig::default() };
    let horizon = 24.0 * 3_600.0;
    let mut committed: Vec<(NodeId, SpaceProfile)> = Vec::new();
    for k in 0..3usize {
        let raw =
            generate_requests(&topo, &wl.catalog, &RequestConfig::paper(), 3 ^ (k as u64 + 1));
        let batch = RequestBatch::new(
            raw.iter().map(|r| Request { start: r.start + k as f64 * horizon, ..*r }).collect(),
        );
        let mut base = StorageLedger::new(&topo);
        for &(loc, profile) in &committed {
            base.add(loc, EXTERNAL_OCCUPANCY, profile);
        }
        let ours = shard_solve_seeded(&ctx, &batch, &cfg, &base, ExecMode::default());
        let legacy = sorp_solve_priced(
            &ctx,
            ivsp_solve_priced(&ctx, &batch),
            &SorpConfig::default(),
            &committed,
            ExecMode::Sequential,
        );
        assert_eq!(ours.sorp.cost.to_bits(), legacy.cost.to_bits(), "cycle {k}");
        assert_eq!(ours.sorp.victims.len(), legacy.victims.len(), "cycle {k}");
        for r in legacy.schedule.residencies() {
            let p = r.profile(wl.catalog.get(r.video));
            if p.peak() > 0.0 {
                committed.push((r.loc, p));
            }
        }
        assert!(!committed.is_empty(), "cycle {k} committed nothing for the next one");
    }
}

/// The seeded solve over a fresh [`CommittedBook`]'s ledger is the cold solve,
/// bit for bit: same schedule, Ψ, and work counters, for every shard
/// count and both strategies.
#[test]
fn warm_solve_over_an_empty_book_is_the_cold_solve() {
    let (topo, wl) = paper_world(5.0, 4);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    for strategy in [ShardStrategy::ByRegion, ShardStrategy::ByTimeSlice] {
        for shards in 1..=6 {
            let cfg = ShardConfig { shards, strategy, ..ShardConfig::default() };
            let cold = shard_solve(&ctx, &wl.requests, &cfg, ExecMode::Sequential);
            let book = CommittedBook::new(&topo);
            let w =
                shard_solve_seeded(&ctx, &wl.requests, &cfg, book.ledger(), ExecMode::Sequential);
            let what = format!("{strategy:?}, {shards} shards");
            assert!(w.sorp.schedule == cold.sorp.schedule, "{what}: schedules diverged");
            assert_eq!(w.sorp.cost.to_bits(), cold.sorp.cost.to_bits(), "{what}");
            assert_eq!(w.sorp.iterations, cold.sorp.iterations, "{what}");
            assert_eq!(w.sorp.victims.len(), cold.sorp.victims.len(), "{what}");
            assert_eq!(w.sorp.trials_run, cold.sorp.trials_run, "{what}");
            assert_eq!(w.sorp.trials_cached, cold.sorp.trials_cached, "{what}");
            assert_eq!(w.shards, cold.shards, "{what}");
        }
    }
}

/// Shard-level fan-out on the warm path: three consecutive cycles under
/// `Parallel` agree bit for bit with `Sequential`, cycle by cycle.
#[test]
fn warm_solve_is_bit_identical_across_exec_modes() {
    let (topo, wl) = paper_world(4.0, 5);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let horizon = 24.0 * 3_600.0;
    let cfg = ShardConfig::by_time_slice(4);
    let (mut seq, mut par) = (CommittedBook::new(&topo), CommittedBook::new(&topo));
    let mut reconciled = 0;
    for k in 0..3usize {
        let t0 = k as f64 * horizon;
        let raw = generate_requests(&topo, &wl.catalog, &RequestConfig::paper(), 5 + k as u64);
        let batch =
            RequestBatch::new(raw.iter().map(|r| Request { start: r.start + t0, ..*r }).collect());
        // A warm cycle, as `ServiceLoop::run_cycle` runs it around its solve.
        let evicted = (seq.evict_expired(t0), par.evict_expired(t0));
        let a = shard_solve_seeded(&ctx, &batch, &cfg, seq.ledger(), ExecMode::Sequential);
        let b = shard_solve_seeded(&ctx, &batch, &cfg, par.ledger(), ExecMode::Parallel);
        seq.absorb(&ctx, &a.sorp.schedule);
        par.absorb(&ctx, &b.sorp.schedule);
        assert!(a.sorp.schedule == b.sorp.schedule, "cycle {k}: schedules diverged");
        assert_eq!(a.sorp.cost.to_bits(), b.sorp.cost.to_bits(), "cycle {k}");
        assert_eq!(a.sorp.iterations, b.sorp.iterations, "cycle {k}");
        assert_eq!(a.reconcile_iterations, b.reconcile_iterations, "cycle {k}");
        assert_eq!(a.trials_transplanted, b.trials_transplanted, "cycle {k}");
        assert_eq!(a.sorp.trials_cached, b.sorp.trials_cached, "cycle {k}");
        assert_eq!(a.shards, b.shards, "cycle {k}");
        assert_eq!(evicted.0, evicted.1, "cycle {k}: eviction diverged");
        assert_eq!(seq.active(), par.active(), "cycle {k}: the books diverged");
        assert_eq!(seq.spillover_at(t0).to_bits(), par.spillover_at(t0).to_bits(), "cycle {k}");
        reconciled += a.reconcile_iterations;
    }
    assert!(reconciled > 0, "no cycle reached the global pass");
    assert!(seq.active() > 0, "nothing was committed across the cycles");
}
