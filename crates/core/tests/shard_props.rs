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
//! The monolith is the two phases composed directly on the whole batch,
//! then the release sweep the pipeline ends in: [`sorp_solve_released`]
//! over [`ivsp_solve`]. The sweep itself is held to three properties
//! against [`sorp_solve`]'s schedule: no video's Ψ rises, every video
//! delivers the same requests, and no overflow appears. On sharded
//! outcomes, no video outside the swept set (victims and split videos)
//! could gain from a re-run.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use vod_core::audit::sorp_solve_released;
use vod_core::{
    detect_overflows, find_video_schedule, ivsp_solve, shard_solve, shard_solve_seeded, sorp_solve,
    CommittedBook, Constraints, ExecMode, GreedyPolicy, SchedCtx, ShardConfig, SorpConfig,
    SorpOutcome, StorageLedger, EXTERNAL_OCCUPANCY,
};
use vod_cost_model::{CostModel, Request, RequestBatch, SpaceProfile, VideoId};
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

/// The monolithic two-phase solve of the whole batch, swept.
fn monolith(ctx: &SchedCtx<'_>, batch: &RequestBatch, sorp: &SorpConfig) -> SorpOutcome {
    sorp_solve_released(ctx, ivsp_solve(ctx, batch, sorp.policy), sorp, None).0
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

/// Hold one release sweep to its contract against the unswept solve it
/// started from: only swept victims change, each to a strictly lower Ψ;
/// every video delivers the requests it did; when the unswept solve is
/// overflow-free, so is a from-scratch ledger of the swept schedule over
/// `base`; the counters add up. Returns whether the sweep kept any
/// re-placement.
fn check_sweep(
    ctx: &SchedCtx<'_>,
    phase1: vod_core::PricedSchedule,
    sorp: &SorpConfig,
    base: &StorageLedger,
) -> Result<bool, TestCaseError> {
    let plain = sorp_solve(ctx, phase1.clone(), sorp, Some(base));
    let (swept, release) = sorp_solve_released(ctx, phase1, sorp, Some(base));
    let mut victims: Vec<_> = plain.victims.iter().map(|v| v.video).collect();
    victims.sort_unstable();
    victims.dedup();
    prop_assert_eq!(swept.victims.len(), plain.victims.len(), "the sweep is not a victim");
    prop_assert!(release.kept <= release.tried && release.tried <= victims.len());
    prop_assert_eq!(swept.schedule.video_count(), plain.schedule.video_count());
    let mut changed = 0;
    for (was, is) in plain.schedule.videos().zip(swept.schedule.videos()) {
        prop_assert_eq!(was.video, is.video);
        prop_assert_eq!(was.delivered_requests(), is.delivered_requests(), "{:?}", is.video);
        let (before, after) = (ctx.video_cost(was), ctx.video_cost(is));
        if was != is {
            changed += 1;
            prop_assert!(victims.binary_search(&is.video).is_ok(), "{:?} swept", is.video);
            prop_assert!(after < before, "{:?}: Ψ {} -> {}", is.video, before, after);
        }
    }
    prop_assert_eq!(changed, release.kept, "every kept re-placement changes one video");
    let saved = plain.cost - swept.cost;
    prop_assert!(
        (saved - release.saved).abs() <= 1e-9 * plain.cost.abs().max(1.0),
        "saved {} against Ψ {} -> {}",
        release.saved,
        plain.cost,
        swept.cost
    );
    let mut ledger = base.clone();
    for r in swept.schedule.residencies() {
        ledger.add(r.loc, r.video, r.profile(ctx.catalog.get(r.video)));
    }
    prop_assert_eq!(swept.overflow_free, plain.overflow_free);
    if plain.overflow_free {
        prop_assert!(detect_overflows(ctx.topo, &ledger).is_empty(), "the sweep overflowed");
    }
    Ok(release.kept > 0)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The release sweep never raises a video's Ψ, keeps every video's
    /// delivered requests and leaves no overflow, alone and over external
    /// occupancy.
    #[test]
    fn the_release_sweep_lowers_psi_and_keeps_requests_and_capacity(
        s in scenario_strategy(),
        squatted in any::<bool>(),
    ) {
        let (topo, wl, cfg) = build(&s);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let mut base = StorageLedger::new(&topo);
        if squatted {
            let loc = topo.storages().next().expect("a storage exists");
            base.add(loc, EXTERNAL_OCCUPANCY, SpaceProfile::new(0.0, 40_000.0, 2e9, 3_600.0));
        }
        let phase1 = ivsp_solve(&ctx, &wl.requests, cfg.sorp.policy);
        check_sweep(&ctx, phase1, &cfg.sorp, &base)?;
    }

    /// Why the sharded sweep re-places victims and split videos only: on
    /// every overflow-free outcome at 2–4 shards, a video that is neither
    /// still holds its shard's capacity-free greedy output, so its
    /// rejective re-run with no bans against the final ledger (less its
    /// own profiles) is no cheaper by more than the greedy's tolerance.
    /// Every split video still delivers its group of the batch.
    #[test]
    fn only_victims_and_split_videos_can_gain_from_the_sweep(
        s in scenario_strategy(),
        squatted in any::<bool>(),
    ) {
        /// The greedy's relative cost tolerance, the sweep's keep rule.
        const COST_EPS: f64 = 1e-9;
        let (topo, wl, mut cfg) = build(&s);
        cfg.shards = 2 + s.shards % 3;
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let mut base = StorageLedger::new(&topo);
        if squatted {
            let loc = topo.storages().next().expect("a storage exists");
            base.add(loc, EXTERNAL_OCCUPANCY, SpaceProfile::new(0.0, 40_000.0, 2e9, 3_600.0));
        }
        for strategy in [ShardStrategy::ByRegion, ShardStrategy::ByTimeSlice] {
            cfg.strategy = strategy;
            let out = shard_solve_seeded(&ctx, &wl.requests, &cfg, &base);
            if !out.sorp.overflow_free {
                continue;
            }
            let spec = ShardSpec { shards: cfg.shards, strategy, seed: cfg.seed };
            let parts = partition_requests(&topo, &wl.requests, &spec);
            let mut seen: Vec<VideoId> =
                parts.iter().flat_map(|b| b.groups().map(|(vid, _)| vid)).collect();
            seen.sort_unstable();
            let mut split: Vec<VideoId> =
                seen.windows(2).filter(|w| w[0] == w[1]).map(|w| w[0]).collect();
            split.dedup();
            prop_assert_eq!(split.len(), out.split_videos);
            let mut ledger = base.clone();
            for r in out.sorp.schedule.residencies() {
                ledger.add(r.loc, r.video, r.profile(wl.catalog.get(r.video)));
            }
            prop_assert!(detect_overflows(&topo, &ledger).is_empty(), "{strategy:?} overflowed");
            let victims: Vec<VideoId> = out.sorp.victims.iter().map(|v| v.video).collect();
            for vs in out.sorp.schedule.videos() {
                let requests = vs.delivered_requests();
                if split.binary_search(&vs.video).is_ok() {
                    let group = wl.requests.group(vs.video).expect("a split video is requested");
                    prop_assert_eq!(&requests[..], group, "{:?} lost requests", vs.video);
                    continue;
                }
                if victims.contains(&vs.video) {
                    continue;
                }
                let cons = Constraints { ledger: &ledger, exclude: Some(vs.video), forbidden: &[] };
                let again = find_video_schedule(&ctx, &requests, cfg.sorp.policy, Some(&cons));
                let (now, rerun) = (ctx.video_cost(vs), ctx.video_cost(&again));
                prop_assert!(
                    rerun >= now - COST_EPS * now.abs(),
                    "{strategy:?}: {:?} re-runs at {rerun}, below its {now}",
                    vs.video
                );
            }
        }
    }
}

/// On the paper instance at 5 GB the sweep keeps re-placements, so the
/// property above is not vacuous there.
#[test]
fn the_release_sweep_keeps_re_placements_on_the_paper_instance() {
    let mut kept = 0;
    for seed in 1..6 {
        let (topo, wl) = paper_world(5.0, seed);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let sorp = SorpConfig::default();
        let phase1 = ivsp_solve(&ctx, &wl.requests, sorp.policy);
        let base = StorageLedger::new(&topo);
        match check_sweep(&ctx, phase1, &sorp, &base) {
            Ok(any) => kept += usize::from(any),
            Err(e) => panic!("seed {seed}: {e:?}"),
        }
    }
    assert!(kept > 0, "no seed's sweep kept a re-placement");
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
/// rolling loop (`ivsp` + `sorp` + the sweep over a ledger of the
/// committed list).
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
        let ours = shard_solve_seeded(&ctx, &batch, &cfg, &base);
        let sorp = SorpConfig::default();
        let phase1 = ivsp_solve(&ctx, &batch, sorp.policy);
        let (legacy, _) = sorp_solve_released(&ctx, phase1, &sorp, Some(&base));
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
            let w = shard_solve_seeded(&ctx, &wl.requests, &cfg, book.ledger());
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

/// The warm path is run-to-run deterministic: two books fed the same
/// three consecutive cycles agree bit for bit, cycle by cycle.
#[test]
fn warm_solve_is_run_to_run_deterministic() {
    let (topo, wl) = paper_world(4.0, 5);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let horizon = 24.0 * 3_600.0;
    let cfg = ShardConfig::by_time_slice(4);
    let (mut one, mut two) = (CommittedBook::new(&topo), CommittedBook::new(&topo));
    let mut reconciled = 0;
    for k in 0..3usize {
        let t0 = k as f64 * horizon;
        let raw = generate_requests(&topo, &wl.catalog, &RequestConfig::paper(), 5 + k as u64);
        let batch =
            RequestBatch::new(raw.iter().map(|r| Request { start: r.start + t0, ..*r }).collect());
        // A warm cycle, as `ServiceLoop::run_cycle` runs it around its solve.
        let evicted = (one.evict_expired(t0), two.evict_expired(t0));
        let mut a = shard_solve_seeded(&ctx, &batch, &cfg, one.ledger());
        let mut b = shard_solve_seeded(&ctx, &batch, &cfg, two.ledger());
        one.absorb(&ctx, &mut a.sorp.schedule, None);
        two.absorb(&ctx, &mut b.sorp.schedule, None);
        assert!(a.sorp.schedule == b.sorp.schedule, "cycle {k}: schedules diverged");
        assert_eq!(a.sorp.cost.to_bits(), b.sorp.cost.to_bits(), "cycle {k}");
        assert_eq!(a.sorp.iterations, b.sorp.iterations, "cycle {k}");
        assert_eq!(a.reconcile_iterations, b.reconcile_iterations, "cycle {k}");
        assert_eq!(a.sorp.trials_cached, b.sorp.trials_cached, "cycle {k}");
        assert_eq!(a.shards, b.shards, "cycle {k}");
        assert_eq!(evicted.0, evicted.1, "cycle {k}: eviction diverged");
        assert_eq!(one.active(), two.active(), "cycle {k}: the books diverged");
        assert_eq!(one.spillover_at(t0).to_bits(), two.spillover_at(t0).to_bits(), "cycle {k}");
        reconciled += a.reconcile_iterations;
    }
    assert!(reconciled > 0, "no cycle reached the global pass");
    assert!(one.active() > 0, "nothing was committed across the cycles");
}
