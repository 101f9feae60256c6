//! Property tests for the conflict-scoped SORP solver: across random
//! topologies, workloads and heat metrics, the solver (standing trial
//! jobs + trial cache + incremental overflow monitor over the occupancy
//! timeline) must be **bit-identical** to the naive loop
//! [`vod_oracles::sorp_solve_naive`] — same schedule, same cost bits,
//! same victims, same iteration count — while that loop audits every
//! overflow scan and every capacity answer of the production ledger
//! against the flat scan, and its counters must reconcile: every
//! materialized trial job is either run or answered from the cache.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use vod_core::{
    detect_overflows, ivsp_solve_priced, ivsp_solve_priced_with, overflow_set,
    reschedule_video_traced, shard_solve_seeded, sorp_solve_priced, CommittedBook, Constraints,
    ExecMode, GreedyPolicy, HeatMetric, Interval, LedgerCursor, LedgerDelta, SchedCtx, ShardConfig,
    SorpConfig, SorpOutcome, StorageLedger, TrialTrace,
};
use vod_cost_model::{CostModel, RequestBatch, SpaceProfile, VideoId};
use vod_oracles::sorp_solve_naive;
use vod_topology::{builders, NodeId, Topology};
use vod_workload::{
    generate_arrivals, generate_catalog, partition_requests, ArrivalConfig, CatalogConfig,
    RequestConfig, ShardSpec, Workload,
};

/// One randomized solver scenario.
#[derive(Clone, Debug)]
struct Scenario {
    topo_kind: u32,
    storages: usize,
    capacity_gb: f64,
    workload_seed: u64,
    metric: HeatMetric,
    max_iterations: usize,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        0u32..4,
        4usize..12,
        prop_oneof![Just(4.0), Just(5.0), Just(8.0)],
        0u64..1_000,
        prop_oneof![
            Just(HeatMetric::ImprovedPeriod),
            Just(HeatMetric::PeriodPerCost),
            Just(HeatMetric::TimeSpace),
            Just(HeatMetric::TimeSpacePerCost),
        ],
        prop_oneof![Just(3usize), Just(10_000)],
    )
        .prop_map(
            |(topo_kind, storages, capacity_gb, workload_seed, metric, max_iterations)| Scenario {
                topo_kind,
                storages,
                capacity_gb,
                workload_seed,
                metric,
                max_iterations,
            },
        )
}

fn build_topo(s: &Scenario) -> Topology {
    let gen = builders::GenConfig {
        storages: s.storages,
        capacity_gb: s.capacity_gb,
        users_per_neighborhood: 4,
        ..builders::GenConfig::default()
    };
    match s.topo_kind {
        0 => builders::paper_fig4(&builders::PaperFig4Config {
            capacity_gb: s.capacity_gb,
            ..Default::default()
        }),
        1 => builders::random_connected(&gen, 3, s.workload_seed ^ 0xC0FFEE),
        2 => builders::ring(&gen),
        _ => builders::binary_tree(&gen),
    }
}

/// The production solver, or — `naive` — the audited naive loop.
fn solve(ctx: &SchedCtx<'_>, wl: &Workload, s: &Scenario, naive: bool) -> SorpOutcome {
    let cfg =
        SorpConfig { metric: s.metric, max_iterations: s.max_iterations, ..Default::default() };
    let phase1 = ivsp_solve_priced(ctx, &wl.requests);
    if naive {
        sorp_solve_naive(ctx, phase1, &cfg, &[])
    } else {
        sorp_solve_priced(ctx, phase1, &cfg, &[], ExecMode::Sequential)
    }
}

/// Field-by-field bit equality of two outcomes' decisions.
fn assert_bit_identical(cached: &SorpOutcome, oracle: &SorpOutcome) -> Result<(), TestCaseError> {
    prop_assert!(cached.schedule == oracle.schedule, "schedules diverged");
    prop_assert_eq!(cached.cost.to_bits(), oracle.cost.to_bits());
    prop_assert_eq!(cached.initial_cost.to_bits(), oracle.initial_cost.to_bits());
    prop_assert_eq!(cached.iterations, oracle.iterations);
    prop_assert_eq!(cached.overflow_free, oracle.overflow_free);
    prop_assert_eq!(cached.forced_fallbacks, oracle.forced_fallbacks);
    prop_assert_eq!(cached.victims.len(), oracle.victims.len());
    for (a, b) in cached.victims.iter().zip(&oracle.victims) {
        prop_assert_eq!(a.video, b.video);
        prop_assert_eq!(a.loc, b.loc);
        prop_assert_eq!(a.overhead.to_bits(), b.overhead.to_bits());
        prop_assert_eq!(a.window_start.to_bits(), b.window_start.to_bits());
        prop_assert_eq!(a.window_end.to_bits(), b.window_end.to_bits());
        prop_assert_eq!(a.heat.to_bits(), b.heat.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The cached solver's output is bit-identical to the uncached
    /// oracle's, and the trial counters reconcile: both paths
    /// materialize the same jobs (they take identical decisions), the
    /// oracle runs every one, and the cached path runs + caches exactly
    /// that many.
    #[test]
    fn cached_sorp_is_bit_identical_to_uncached(s in scenario_strategy()) {
        let topo = build_topo(&s);
        let wl = Workload::generate(
            &topo,
            &CatalogConfig::small(24),
            &RequestConfig::paper(),
            s.workload_seed,
        );
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);

        // The oracle panics if the flat scan ever disagrees with the
        // ledger, on an overflow window or on a capacity answer.
        let cached = solve(&ctx, &wl, &s, false);
        let oracle = solve(&ctx, &wl, &s, true);
        assert_bit_identical(&cached, &oracle)?;

        // Counter reconciliation: the oracle never caches, and its
        // trials_run is the total job count of the (identical) run.
        prop_assert_eq!(oracle.trials_cached, 0);
        prop_assert_eq!(cached.trials_run + cached.trials_cached, oracle.trials_run);
        // The monitor never rescans more than the full scan does.
        prop_assert!(cached.nodes_rescanned <= oracle.nodes_rescanned);

        // Determinism of the cached path itself.
        let again = solve(&ctx, &wl, &s, false);
        assert_bit_identical(&again, &cached)?;
        prop_assert_eq!(again.trials_run, cached.trials_run);
        prop_assert_eq!(again.trials_cached, cached.trials_cached);
        prop_assert_eq!(again.nodes_rescanned, cached.nodes_rescanned);
    }
}

/// On the paper instance the timeline ledger's every answer — overflow
/// windows each iteration, capacity verdicts each trial — is the flat
/// scan's (the naive loop's audit), and the solver takes the decisions of
/// that audited loop.
#[test]
fn timeline_and_reference_ledgers_give_bit_identical_schedules() {
    for seed in [1, 7, 11] {
        let cfgb = builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() };
        let topo = builders::paper_fig4(&cfgb);
        let wl =
            Workload::generate(&topo, &CatalogConfig::small(80), &RequestConfig::paper(), seed);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let priced = ivsp_solve_priced(&ctx, &wl.requests);
        let fast = sorp_solve_priced(
            &ctx,
            priced.clone(),
            &SorpConfig::default(),
            &[],
            ExecMode::Sequential,
        );
        let oracle = sorp_solve_naive(&ctx, priced, &SorpConfig::default(), &[]);
        assert!(fast.resolved_anything(), "seed {seed}: nothing to resolve");
        if let Err(e) = assert_bit_identical(&fast, &oracle) {
            panic!("seed {seed}: {e:?}");
        }
    }
}

/// 25 % above the 0.179 of its scored jobs (56 of 313) that the paper
/// instance below rebuilds.
const PAPER_CEILING: f64 = 0.224;

/// On the paper topology with tight capacity the resolution loop runs
/// many iterations, so the cache and the monitor must demonstrably pay
/// off — not just agree with the oracle.
#[test]
fn cache_and_monitor_actually_save_work_on_the_paper_instance() {
    let topo =
        builders::paper_fig4(&builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() });
    let wl = Workload::generate(&topo, &CatalogConfig::small(80), &RequestConfig::paper(), 1);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let s = Scenario {
        topo_kind: 0,
        storages: 19,
        capacity_gb: 5.0,
        workload_seed: 1,
        metric: HeatMetric::TimeSpacePerCost,
        max_iterations: 10_000,
    };
    let cached = solve(&ctx, &wl, &s, false);
    let oracle = solve(&ctx, &wl, &s, true);
    assert!(cached.iterations > 1, "instance too easy to exercise the cache");
    assert!(cached.trials_cached > 0, "no trial was ever answered from the cache");
    assert!(
        cached.trials_run < oracle.trials_run,
        "cache saved nothing: {} vs {}",
        cached.trials_run,
        oracle.trials_run
    );
    assert!(
        cached.nodes_rescanned < oracle.nodes_rescanned,
        "monitor saved nothing: {} vs {}",
        cached.nodes_rescanned,
        oracle.nodes_rescanned
    );
    // Most jobs stand from one iteration to the next; rebuilding every
    // job every iteration — the oracle, 1.0 by construction — cannot
    // come back under the ceiling.
    let scored = cached.trials_run + cached.trials_cached;
    assert_eq!(oracle.jobs_rebuilt, scored, "the oracle rebuilds what it scores");
    let rebuilt = cached.jobs_rebuilt as f64 / scored as f64;
    assert!(rebuilt <= PAPER_CEILING, "{rebuilt:.3} of {scored} jobs rebuilt ({PAPER_CEILING})");
}

/// Whether the resolution's first commit lands in a *dead gap* of another
/// participant's first-iteration trial: the trial holds a cache that was
/// capacity-rejected at some request and has later requests behind it —
/// which the greedy no longer tests or traces, where it used to record
/// one ever-longer support per later request — and the commit dirties
/// that storage only beyond the rejected support, inside the span those
/// unrecorded checks would have covered, touching nothing the trace does
/// record. The second iteration's lookup then takes the trial on the
/// disjoint-footprint fast path instead of re-deriving the implied
/// rejections, and must still agree with the oracle.
fn first_commit_lands_in_a_dead_gap(
    ctx: &SchedCtx<'_>,
    wl: &Workload,
    oracle: &SorpOutcome,
) -> bool {
    let Some(first) = oracle.victims.first() else { return false };
    let phase1 = ivsp_solve_priced(ctx, &wl.requests);
    let schedule = phase1.schedule();
    let ledger = StorageLedger::from_schedule(ctx.topo, ctx.catalog, schedule);
    let trial = |vid: VideoId, ban: (NodeId, Interval)| {
        let requests = schedule.video(vid).expect("participant is scheduled").delivered_requests();
        let cons = Constraints { ledger: &ledger, exclude: Some(vid), forbidden: &[ban] };
        let (vs, trace) = reschedule_video_traced(ctx, &requests, &cons, GreedyPolicy::default());
        (vs, trace, requests)
    };

    // The first commit's delta: every positive-space profile it removes
    // (the victim's phase-1 residencies) or adds (its winning trial's).
    let ban = (first.loc, Interval::new(first.window_start, first.window_end));
    let (committed, _, _) = trial(first.video, ban);
    let outgoing = &schedule.video(first.video).expect("victim is scheduled").residencies;
    let mut delta = LedgerDelta::new();
    for r in outgoing.iter().chain(&committed.residencies) {
        let p = r.profile(ctx.catalog.get(r.video));
        if p.peak() > 0.0 {
            delta.record(r.loc, p.start, p.end);
        }
    }

    detect_overflows(ctx.topo, &ledger).iter().any(|of| {
        overflow_set(&ledger, of).iter().any(|&(vid, _)| {
            if vid == first.video {
                return false;
            }
            let (_, trace, requests) = trial(vid, (of.loc, of.window));
            let last = requests.last().expect("participants deliver");
            let drained = last.start + ctx.catalog.get(vid).playback;
            !delta.intersects(&trace.footprint)
                && trace.checks.iter().any(|c| {
                    // Capacity-rejected away from the banned storage, so
                    // every implied check would have consulted the ledger.
                    c.fits == Some(false)
                        && c.loc != of.loc
                        && c.candidate.last < last.start
                        && delta.intersects(&[(c.loc, c.candidate.start, drained)])
                })
        })
    })
}

/// Few titles and three reservations per user give every video a long
/// request chain, so trials are full of caches that die early; the
/// shortened traces must leave the cached solver bit-identical to the
/// oracle, in particular on the instances whose first commit lands in a
/// dead gap (of which the seed range must contain some).
#[test]
fn shortened_traces_stay_exact_when_commits_land_in_dead_gaps() {
    let topo =
        builders::paper_fig4(&builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() });
    let requests = RequestConfig { requests_per_user: 3, ..RequestConfig::paper() };
    let s = Scenario {
        topo_kind: 0,
        storages: 19,
        capacity_gb: 5.0,
        workload_seed: 0,
        metric: HeatMetric::TimeSpacePerCost,
        max_iterations: 10_000,
    };
    let mut in_class = 0usize;
    for seed in 0..40 {
        let wl = Workload::generate(&topo, &CatalogConfig::small(8), &requests, seed);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let cached = solve(&ctx, &wl, &s, false);
        let oracle = solve(&ctx, &wl, &s, true);
        if let Err(e) = assert_bit_identical(&cached, &oracle) {
            panic!("seed {seed}: {e:?}");
        }
        assert_eq!(cached.trials_run + cached.trials_cached, oracle.trials_run, "seed {seed}");
        in_class += usize::from(first_commit_lands_in_a_dead_gap(&ctx, &wl, &oracle));
    }
    assert!(in_class > 0, "no instance exercised a commit landing in a dead gap");
}

/// The smallest instance of a rebind that must forget: on the paper's
/// Fig. 2 line a trial finds IS1 full and records the capacity rejection
/// of its cache there; a commit then empties IS1; the entry is hit under
/// a ban that covers the rejected extension (the ban answers, the ledger
/// is not asked, the entry's epoch moves past the commit); and is looked
/// up once more under a ban elsewhere. The extension now fits, so a fresh
/// trial serves U2 from IS1 and the memoized one must not be handed out.
/// The lookup is [`Constraints::check_replays`] over every check, the hit
/// [`Constraints::rebind_trace`] — the solver's protocol, step for step.
#[test]
fn rebinding_under_a_ban_forgets_the_capacity_verdict_it_skipped() {
    use vod_cost_model::{Catalog, Request, Video};
    use vod_topology::{units, UserId};

    let topo = builders::paper_fig2(16.0, 8.0, 1.0, 5.0);
    let vid = VideoId(0);
    let catalog =
        Catalog::new(vec![Video::new(vid, units::gb(2.5), units::minutes(90.0), units::mbps(6.0))]);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let (t1, t2, t3) = (units::hours(13.0), units::hours(14.5), units::hours(16.0));
    let requests = [
        Request { user: UserId(0), video: vid, start: t1 },
        Request { user: UserId(1), video: vid, start: t2 },
        Request { user: UserId(2), video: vid, start: t3 },
    ];
    let is1 = NodeId(1);
    let squatter = VideoId(9);
    let mut ledger = StorageLedger::new(&topo);
    ledger.add(is1, squatter, SpaceProfile::new(0.0, 1e6, units::gb(5.0), units::minutes(90.0)));
    let trial = |ledger: &StorageLedger, bans: &[(NodeId, Interval)]| {
        let cons = Constraints { ledger, exclude: Some(vid), forbidden: bans };
        reschedule_video_traced(&ctx, &requests, &cons, GreedyPolicy::default())
    };
    let replays = |ledger: &StorageLedger,
                   bans: &[(NodeId, Interval)],
                   trace: &TrialTrace,
                   dirty: &LedgerDelta| {
        let cons = Constraints { ledger, exclude: Some(vid), forbidden: bans };
        let mut cursor = LedgerCursor::new();
        trace.checks.iter().all(|c| cons.check_replays(&topo, c, dirty, &mut cursor))
    };

    // The memoized trial: IS1's copy cannot be extended to serve U2.
    let (memo, mut trace) = trial(&ledger, &[]);
    let rejected = *trace
        .checks
        .iter()
        .find(|c| c.loc == is1 && c.fits == Some(false))
        .expect("the full store rejects IS1's extension on capacity");

    // A commit vacates IS1, inside the rejected check's support.
    let mut commit = LedgerDelta::new();
    ledger.remove_tracked(is1, squatter, &mut commit);
    assert!(commit.intersects(&[(is1, rejected.candidate.start, rejected.candidate.end)]));

    // Hit under a ban over that support: same answer, for another reason.
    let over = [(is1, Interval::new(t1, t2))];
    assert!(replays(&ledger, &over, &trace, &commit), "the ban re-rejects the extension");
    assert!(trial(&ledger, &over).0 == memo, "and a fresh trial agrees");
    Constraints { ledger: &ledger, exclude: Some(vid), forbidden: &over }
        .rebind_trace(&topo, &mut trace);

    // The entry is now current as of the commit. Under a ban that misses
    // the extension, nothing rejects it any more.
    let elsewhere = [(is1, Interval::new(0.0, units::hours(1.0)))];
    let fresh = trial(&ledger, &elsewhere).0;
    assert!(fresh != memo, "IS1 has room now: U2 is served from its copy");
    assert!(
        !replays(&ledger, &elsewhere, &trace, &LedgerDelta::new()),
        "a stale capacity verdict was reused across the rebind"
    );
}

/// One benchmark cell, cycle by cycle over a [`CommittedBook`]: what
/// `benchmark/src/adapter.rs` builds from a workload spec.
struct Cell {
    topo: Topology,
    catalog: vod_cost_model::Catalog,
    arrivals: Vec<vod_workload::Arrival>,
    cycles: usize,
    cfg: ShardConfig,
}

const HORIZON: f64 = 24.0 * 3_600.0;

impl Cell {
    /// `contended`: 24 stores of 1.8 GB, 150 titles, 672 requests a cycle
    /// in four time slices sharing every storage.
    fn contended(cycles: usize) -> Self {
        let gen = builders::GenConfig {
            storages: 24,
            capacity_gb: 1.8,
            users_per_neighborhood: 4,
            ..builders::GenConfig::default()
        };
        let topo = builders::random_connected(&gen, 3, 0xB0B);
        let catalog = generate_catalog(&CatalogConfig::small(150), 0xCA7A_10C0_FFEE_0001);
        let request = RequestConfig { requests_per_user: 7, ..RequestConfig::with_alpha(0.271) };
        let arrivals = generate_arrivals(
            &topo,
            &catalog,
            &ArrivalConfig { request, cycles, ..ArrivalConfig::default() },
            1997,
        );
        Self { topo, catalog, arrivals, cycles, cfg: ShardConfig::by_time_slice(4) }
    }

    /// Drive every cycle through the sharded pipeline over one book.
    /// `each` sees the cycle's index and batch, and the occupancy earlier
    /// cycles had committed when it was solved.
    fn drive(
        &self,
        mut each: impl FnMut(&SchedCtx<'_>, usize, &RequestBatch, &[(NodeId, SpaceProfile)]),
    ) {
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&self.topo, &model, &self.catalog);
        let mut book = CommittedBook::new(&self.topo);
        let mut next = 0;
        for k in 0..self.cycles {
            let t0 = k as f64 * HORIZON;
            let first = next;
            while next < self.arrivals.len() && self.arrivals[next].at <= t0 {
                next += 1;
            }
            let batch =
                RequestBatch::new(self.arrivals[first..next].iter().map(|a| a.request).collect());
            book.evict_expired(t0);
            let external: Vec<(NodeId, SpaceProfile)> = self
                .topo
                .storages()
                .flat_map(|loc| book.ledger().profiles_at(loc).iter().map(move |&(_, p)| (loc, p)))
                .collect();
            let out = shard_solve_seeded(&ctx, &batch, &self.cfg, book.ledger());
            book.absorb(&ctx, &out.sorp.schedule);
            each(&ctx, k, &batch, &external);
        }
    }
}

/// Every solve the sharded pipeline starts from a fresh state on the
/// `contended` cell — each shard's, and the whole batch as one, the
/// **monolithic** solve whose large overflow sets are where most jobs
/// stand — against the naive loop over the same external occupancy, under
/// iteration cap `max_iterations`. Returns the monolithic solves' summed
/// `(jobs_rebuilt, jobs scored)`.
fn contended_cell_against_naive(max_iterations: usize) -> (usize, usize) {
    let cell = Cell::contended(8);
    let sorp = SorpConfig { max_iterations, ..cell.cfg.sorp.clone() };
    let spec = ShardSpec { shards: cell.cfg.shards, strategy: cell.cfg.strategy, seed: 0 };
    let (mut rebuilt, mut scored, mut fallbacks) = (0, 0, 0);
    cell.drive(|ctx, k, batch, external| {
        let mut solves = partition_requests(&cell.topo, batch, &spec);
        solves.push(batch.clone());
        for (si, part) in solves.iter().enumerate() {
            let phase1 = ivsp_solve_priced_with(ctx, part, sorp.policy, ExecMode::Sequential);
            let cached =
                sorp_solve_priced(ctx, phase1.clone(), &sorp, external, ExecMode::Sequential);
            let oracle = sorp_solve_naive(ctx, phase1, &sorp, external);
            if let Err(e) = assert_bit_identical(&cached, &oracle) {
                panic!("cycle {k}, solve {si} of {}: {e:?}", solves.len());
            }
            assert_eq!(cached.trials_run + cached.trials_cached, oracle.trials_run);
            assert_eq!(oracle.jobs_rebuilt, oracle.trials_run);
            fallbacks += cached.forced_fallbacks;
            if si + 1 == solves.len() {
                rebuilt += cached.jobs_rebuilt;
                scored += oracle.trials_run;
            }
        }
    });
    assert_eq!(fallbacks > 0, max_iterations < 10_000, "cap {max_iterations} vs the fallback tail");
    (rebuilt, scored)
}

/// Tight stores keep dozens of overflows open at once, so trials are
/// rebound from one overflow's bans to the next while commits land inside
/// the checks those bans skipped; a rebind that kept such a check's
/// capacity sub-verdict first diverged here in cycle 4. On the monolithic
/// solves most jobs must have stood.
#[test]
fn contended_cell_stays_exact_through_rebinds_under_bans() {
    let (rebuilt, scored) = contended_cell_against_naive(10_000);
    assert!(scored > 10_000, "the monolithic solves score about 5 000 jobs a cycle, got {scored}");
    assert!(4 * rebuilt < scored, "{rebuilt} of {scored} monolithic jobs were rebuilt, not kept");
}

/// The same cell under a cap that ends every pass in the fallback tail —
/// at once, and three iterations in, with jobs standing when the forced
/// commits start moving storages under them.
#[test]
fn contended_cell_stays_exact_when_fallback_commits_interleave() {
    for cap in [0, 3] {
        contended_cell_against_naive(cap);
    }
}

/// The fallback tail, in both loops, passes over an overflow that holds
/// external occupancy alone: the instance of the solver's own
/// `fallback_passes_over_a_purely_external_overflow`, against the oracle.
#[test]
fn fallback_tail_agrees_with_the_oracle_behind_an_external_overflow() {
    let topo =
        builders::paper_fig4(&builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() });
    let wl = Workload::generate(&topo, &CatalogConfig::small(80), &RequestConfig::paper(), 1);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let first = topo.storages().next().expect("a storage exists");
    let squatter = SpaceProfile { start: 0.0, full: 0.0, last: 1e7, end: 1e7, plateau: 6e9 };
    let external = [(first, squatter)];
    let phase1 = ivsp_solve_priced(&ctx, &wl.requests);
    for cap in [0, 3] {
        let cfg = SorpConfig { max_iterations: cap, ..SorpConfig::default() };
        let cached = sorp_solve_priced(&ctx, phase1.clone(), &cfg, &external, ExecMode::Sequential);
        let oracle = sorp_solve_naive(&ctx, phase1.clone(), &cfg, &external);
        if let Err(e) = assert_bit_identical(&cached, &oracle) {
            panic!("cap {cap}: {e:?}");
        }
        assert!(!cached.overflow_free && cached.forced_fallbacks > 0, "cap {cap}");
        assert_eq!(cached.schedule.delivery_count(), wl.requests.len(), "cap {cap}");
    }
}
