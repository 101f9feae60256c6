//! Property-based tests over random environments, workloads, and
//! constraints: the invariants the scheduler must hold for *every* input,
//! not just the paper's evaluation points.

use proptest::prelude::*;
use vod_paradigm::core::{
    baselines, detect_overflows, find_video_schedule, ivsp_solve, shard_solve, sorp_solve,
    Constraints, ExecMode, GreedyPolicy, HeatMetric, Interval, SchedCtx, ShardConfig, ShardOutcome,
    SorpConfig, StorageLedger,
};
use vod_paradigm::prelude::*;
use vod_paradigm::simulator::{simulate, SimOptions};
use vod_paradigm::workload::{
    generate_requests, CatalogConfig, RequestConfig, ShardStrategy, SplitMix64, Zipf,
};

/// A random small service environment plus workload, fully determined by
/// the strategy's draws.
#[derive(Debug, Clone)]
struct World {
    storages: usize,
    extra_edges: usize,
    capacity_gb: f64,
    srate: f64,
    nrate: f64,
    alpha: f64,
    users: usize,
    requests_per_user: usize,
    seed: u64,
}

fn world_strategy() -> impl Strategy<Value = World> {
    (
        2usize..8,
        0usize..5,
        prop_oneof![Just(4.0), Just(5.0), Just(8.0), Just(50.0)],
        0.0f64..20.0,
        1.0f64..1000.0,
        0.0f64..=1.0,
        1usize..5,
        1usize..4,
        any::<u64>(),
    )
        .prop_map(
            |(storages, extra_edges, capacity_gb, srate, nrate, alpha, users, rpu, seed)| World {
                storages,
                extra_edges,
                capacity_gb,
                srate,
                nrate,
                alpha,
                users,
                requests_per_user: rpu,
                seed,
            },
        )
}

fn build(w: &World) -> (Topology, Catalog, RequestBatch) {
    let cfg = builders::GenConfig {
        storages: w.storages,
        nrate_per_gb: w.nrate,
        srate_per_gb_hour: w.srate,
        capacity_gb: w.capacity_gb,
        users_per_neighborhood: w.users,
    };
    let topo = builders::random_connected(&cfg, w.extra_edges, w.seed);
    let catalog =
        vod_paradigm::workload::generate_catalog(&CatalogConfig::small(20), w.seed ^ 0xABCD);
    let requests = generate_requests(
        &topo,
        &catalog,
        &RequestConfig {
            zipf_alpha: w.alpha,
            requests_per_user: w.requests_per_user,
            ..RequestConfig::paper()
        },
        w.seed ^ 0x1234,
    );
    (topo, catalog, requests)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Phase 1 is never more expensive than the network-only baseline.
    #[test]
    fn greedy_never_worse_than_direct(w in world_strategy()) {
        let (topo, catalog, requests) = build(&w);
        prop_assume!(!requests.is_empty());
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let greedy = ctx.schedule_cost(ivsp_solve(&ctx, &requests, GreedyPolicy::default()).schedule());
        let direct = ctx.schedule_cost(&baselines::network_only(&ctx, &requests));
        prop_assert!(greedy <= direct * (1.0 + 1e-9) + 1e-6);
    }

    /// Overflow resolution always terminates overflow-free, under every
    /// heat metric, and never loses a delivery.
    #[test]
    fn sorp_always_resolves(w in world_strategy()) {
        let (topo, catalog, requests) = build(&w);
        prop_assume!(!requests.is_empty());
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let phase1 = ivsp_solve(&ctx, &requests, GreedyPolicy::default());
        for metric in HeatMetric::ALL {
            let outcome = sorp_solve(&ctx, phase1.clone(), &SorpConfig::with_metric(metric), None);
            prop_assert!(outcome.overflow_free, "metric {metric}");
            prop_assert_eq!(outcome.schedule.delivery_count(), requests.len());
            let ledger = StorageLedger::from_schedule(&topo, &catalog, &outcome.schedule);
            prop_assert!(detect_overflows(&topo, &ledger).is_empty());
            // Resolution never reduces cost below the unconstrained greedy
            // by more than numerical noise.
            prop_assert!(outcome.cost >= outcome.initial_cost * (1.0 - 1e-9) - 1e-6);
        }
    }

    /// Every resolved schedule passes full simulator validation.
    #[test]
    fn resolved_schedules_simulate_cleanly(w in world_strategy()) {
        let (topo, catalog, requests) = build(&w);
        prop_assume!(!requests.is_empty());
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let outcome = sorp_solve(&ctx, ivsp_solve(&ctx, &requests, GreedyPolicy::default()), &SorpConfig::default(), None);
        let report = simulate(&topo, &catalog, &model, &outcome.schedule,
                              &SimOptions::strict(&requests));
        prop_assert!(report.is_valid(), "{:?}", report.violations);
        prop_assert!((report.metrics.total_cost - outcome.cost).abs()
                     <= 1e-6 * outcome.cost.max(1.0));
    }

    /// The rejective greedy honours arbitrary forbidden windows.
    #[test]
    fn rejective_greedy_honours_forbidden_windows(
        w in world_strategy(),
        win_start in 0.0f64..86_400.0,
        win_len in 1.0f64..86_400.0,
    ) {
        let (topo, catalog, requests) = build(&w);
        prop_assume!(!requests.is_empty());
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);

        // Forbid a window at every storage.
        let window = Interval::new(win_start, win_start + win_len);
        let forbidden: Vec<(NodeId, Interval)> =
            topo.storages().map(|s| (s, window)).collect();
        let ledger = StorageLedger::new(&topo);

        for (video, group) in requests.groups() {
            let cons = Constraints {
                ledger: &ledger,
                exclude: Some(video),
                forbidden: &forbidden,
            };
            let vs = find_video_schedule(&ctx, group, GreedyPolicy::default(), Some(&cons));
            for r in &vs.residencies {
                let p = r.profile(catalog.get(r.video));
                if p.peak() > 0.0 {
                    let support = Interval::new(p.start, p.end);
                    prop_assert!(
                        !support.overlaps(&window),
                        "residency {:?} overlaps forbidden window {:?}", support, window
                    );
                }
            }
        }
    }

    /// Ψ is additive over per-video schedules and non-negative.
    #[test]
    fn cost_is_additive_and_nonnegative(w in world_strategy()) {
        let (topo, catalog, requests) = build(&w);
        prop_assume!(!requests.is_empty());
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let schedule = ivsp_solve(&ctx, &requests, GreedyPolicy::default()).into_schedule();
        let total = ctx.schedule_cost(&schedule);
        let sum: f64 = schedule.videos().map(|vs| ctx.video_cost(vs)).sum();
        prop_assert!(total >= 0.0);
        prop_assert!((total - sum).abs() <= 1e-9 * total.max(1.0));
    }

    /// Zipf sampling is a valid distribution for any α in range.
    #[test]
    fn zipf_is_a_distribution(n in 1usize..600, alpha in 0.0f64..=1.0) {
        let z = Zipf::new(n, alpha);
        let sum: f64 = (0..n).map(|i| z.pmf(i)).sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        let mut rng = SplitMix64::new(42);
        for _ in 0..32 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// The space profile's closed-form integral matches its own windowed
    /// integral over the full support, for arbitrary residencies.
    #[test]
    fn space_profile_integrals_agree(
        t_s in 0.0f64..1e5,
        dur in 0.0f64..1e5,
        size in 1.0f64..1e10,
        playback in 1.0f64..1e4,
    ) {
        use vod_paradigm::cost_model::SpaceProfile;
        let p = SpaceProfile::new(t_s, t_s + dur, size, playback);
        let full = p.integral();
        let windowed = p.integral_over(t_s - 1.0, t_s + dur + playback + 1.0);
        prop_assert!((full - windowed).abs() <= 1e-9 * full.max(1.0));
        // γ·size·(Δ + P/2) closed form.
        let gamma = (dur / playback).min(1.0);
        let expected = gamma * size * (dur + playback / 2.0);
        prop_assert!((full - expected).abs() <= 1e-9 * full.max(1.0));
    }
}

// ---------------------------------------------------------------------
// Incremental pricing & deterministic parallelism (the priced pipeline)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The running total maintained through per-victim delta commits
    /// equals a full Ψ recompute of the final resolved schedule within
    /// 1e-6 (relative), on arbitrary random workloads.
    #[test]
    fn incremental_pricing_matches_full_recompute(w in world_strategy()) {
        let (topo, catalog, requests) = build(&w);
        prop_assume!(!requests.is_empty());
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let outcome = sorp_solve(&ctx, ivsp_solve(&ctx, &requests, GreedyPolicy::default()), &SorpConfig::default(), None);
        let full = ctx.schedule_cost(&outcome.schedule);
        prop_assert!(
            (outcome.cost - full).abs() <= 1e-6 * full.abs().max(1.0),
            "incremental Ψ {} diverged from recomputed Ψ {}",
            outcome.cost,
            full
        );
        // Phase-1 pricing itself is bit-identical to the closed form.
        let phase1 = ivsp_solve(&ctx, &requests, GreedyPolicy::default());
        prop_assert_eq!(
            phase1.total().to_bits(),
            ctx.schedule_cost(phase1.schedule()).to_bits()
        );
    }

    /// The sharded pipeline is run-to-run deterministic for both
    /// partitioning strategies: two runs give the same schedule, the
    /// same Ψ down to the last bit, the same victims, and every work
    /// counter.
    #[test]
    fn sharded_pipeline_is_run_to_run_deterministic(w in world_strategy()) {
        let (topo, catalog, requests) = build(&w);
        prop_assume!(requests.len() >= 2);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);

        for strategy in [ShardStrategy::ByRegion, ShardStrategy::ByTimeSlice] {
            let cfg = ShardConfig { shards: 3, strategy, ..ShardConfig::default() };
            let first = shard_solve(&ctx, &requests, &cfg, ExecMode::Sequential);
            let second = shard_solve(&ctx, &requests, &cfg, ExecMode::Sequential);
            prop_assert!(
                first.shards >= 2 || strategy == ShardStrategy::ByRegion,
                "two requests fill two time slices"
            );
            prop_assert_eq!(&first.sorp.schedule, &second.sorp.schedule);
            prop_assert_eq!(first.sorp.cost.to_bits(), second.sorp.cost.to_bits());
            prop_assert_eq!(first.sorp.initial_cost.to_bits(), second.sorp.initial_cost.to_bits());
            prop_assert_eq!(first.sorp.victims.len(), second.sorp.victims.len());
            for (a, b) in first.sorp.victims.iter().zip(&second.sorp.victims) {
                prop_assert_eq!((a.video, a.loc), (b.video, b.loc));
                prop_assert_eq!(a.window_start.to_bits(), b.window_start.to_bits());
                prop_assert_eq!(a.window_end.to_bits(), b.window_end.to_bits());
                prop_assert_eq!(a.overhead.to_bits(), b.overhead.to_bits());
                prop_assert_eq!(a.heat.to_bits(), b.heat.to_bits());
            }
            let counters = |o: &ShardOutcome| {
                let s = &o.sorp;
                [
                    s.iterations, s.forced_fallbacks, s.trials_run, s.trials_cached,
                    s.jobs_rebuilt, s.nodes_rescanned, usize::from(s.overflow_free),
                    o.shards, o.split_videos, o.shared_storages, o.cross_shard_overflows,
                    o.reconcile_iterations, o.reconcile_victims,
                ]
            };
            prop_assert_eq!(counters(&first), counters(&second));
        }
    }
}
