//! Property tests for the conflict-scoped SORP solver: across random
//! topologies, workloads, heat metrics and execution modes, the solver
//! (cross-iteration trial cache + incremental overflow monitor over the
//! occupancy timeline) must be **bit-identical** to the naive loop
//! [`vod_oracles::sorp_solve_naive`] on the same ledger — same schedule,
//! same cost bits, same victims, same iteration count — take the same
//! decisions as that loop on the reference ledger, and its counters must
//! reconcile: every materialized trial job is either run or answered
//! from the cache.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use vod_core::{
    detect_overflows, ivsp_solve_priced, overflow_set, reschedule_video_traced_with,
    sorp_solve_priced, Constraints, ExecMode, GreedyPolicy, HeatMetric, Interval, LedgerDelta,
    LedgerMode, SchedCtx, SorpConfig, SorpOutcome, StorageLedger,
};
use vod_cost_model::{CostModel, VideoId};
use vod_oracles::sorp_solve_naive;
use vod_topology::{builders, NodeId, Topology};
use vod_workload::{CatalogConfig, RequestConfig, Workload};

/// One randomized solver scenario.
#[derive(Clone, Debug)]
struct Scenario {
    topo_kind: u32,
    storages: usize,
    capacity_gb: f64,
    workload_seed: u64,
    metric: HeatMetric,
    parallel: bool,
    reference_ledger: bool,
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
        any::<bool>(),
        any::<bool>(),
        prop_oneof![Just(3usize), Just(10_000)],
    )
        .prop_map(
            |(
                topo_kind,
                storages,
                capacity_gb,
                workload_seed,
                metric,
                parallel,
                reference_ledger,
                max_iterations,
            )| Scenario {
                topo_kind,
                storages,
                capacity_gb,
                workload_seed,
                metric,
                parallel,
                reference_ledger,
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

/// The production solver, or — `oracle: Some(ledger)` — the naive loop on
/// that ledger implementation.
fn solve(
    ctx: &SchedCtx<'_>,
    wl: &Workload,
    s: &Scenario,
    oracle: Option<LedgerMode>,
) -> SorpOutcome {
    let cfg =
        SorpConfig { metric: s.metric, max_iterations: s.max_iterations, ..Default::default() };
    let mode = if s.parallel { ExecMode::Parallel } else { ExecMode::Sequential };
    let phase1 = ivsp_solve_priced(ctx, &wl.requests);
    match oracle {
        Some(ledger) => sorp_solve_naive(ctx, phase1, &cfg, &[], ledger, mode),
        None => sorp_solve_priced(ctx, phase1, &cfg, &[], mode),
    }
}

/// Field-by-field bit equality of two outcomes' decisions.
fn assert_bit_identical(cached: &SorpOutcome, oracle: &SorpOutcome) -> Result<(), TestCaseError> {
    assert_same_decisions(cached, oracle)?;
    for (a, b) in cached.victims.iter().zip(&oracle.victims) {
        prop_assert_eq!(a.window_start.to_bits(), b.window_start.to_bits());
        prop_assert_eq!(a.window_end.to_bits(), b.window_end.to_bits());
        prop_assert_eq!(a.heat.to_bits(), b.heat.to_bits());
    }
    Ok(())
}

/// Everything [`assert_bit_identical`] checks except the victims' overflow
/// window and heat: schedule, Ψ bits, iterations, fallbacks, and each
/// victim's video, storage and overhead bits.
fn assert_same_decisions(a: &SorpOutcome, b: &SorpOutcome) -> Result<(), TestCaseError> {
    prop_assert!(a.schedule == b.schedule, "schedules diverged");
    prop_assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    prop_assert_eq!(a.initial_cost.to_bits(), b.initial_cost.to_bits());
    prop_assert_eq!(a.iterations, b.iterations);
    prop_assert_eq!(a.overflow_free, b.overflow_free);
    prop_assert_eq!(a.forced_fallbacks, b.forced_fallbacks);
    prop_assert_eq!(a.victims.len(), b.victims.len());
    for (va, vb) in a.victims.iter().zip(&b.victims) {
        prop_assert_eq!(va.video, vb.video);
        prop_assert_eq!(va.loc, vb.loc);
        prop_assert_eq!(va.overhead.to_bits(), vb.overhead.to_bits());
    }
    Ok(())
}

/// The cross-ledger comparison: the timeline solver against the naive
/// loop on the reference ledger. Decisions are exact; the overflow
/// windows the two report (and the heats computed from them) may sit an
/// ulp apart, because the two implementations sum the same profiles in
/// different orders and so interpolate the instant usage crosses the
/// capacity differently — hence 1e-9 relative on those three floats, here
/// and nowhere else.
fn assert_agrees_across_ledgers(
    timeline: &SorpOutcome,
    reference: &SorpOutcome,
) -> Result<(), TestCaseError> {
    let close = |a: f64, b: f64| a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
    assert_same_decisions(timeline, reference)?;
    for (a, b) in timeline.victims.iter().zip(&reference.victims) {
        prop_assert!(close(a.window_start, b.window_start), "window start diverged");
        prop_assert!(close(a.window_end, b.window_end), "window end diverged");
        prop_assert!(close(a.heat, b.heat), "heat diverged");
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

        let cached = solve(&ctx, &wl, &s, None);
        let oracle = solve(&ctx, &wl, &s, Some(LedgerMode::Timeline));
        assert_bit_identical(&cached, &oracle)?;

        // Counter reconciliation: the oracle never caches, and its
        // trials_run is the total job count of the (identical) run.
        prop_assert_eq!(oracle.trials_cached, 0);
        prop_assert_eq!(cached.trials_run + cached.trials_cached, oracle.trials_run);
        // The monitor never rescans more than the full scan does.
        prop_assert!(cached.nodes_rescanned <= oracle.nodes_rescanned);

        // The same loop over the reference ledger takes the same
        // decisions and does the same work.
        if s.reference_ledger {
            let reference = solve(&ctx, &wl, &s, Some(LedgerMode::Reference));
            assert_agrees_across_ledgers(&cached, &reference)?;
            prop_assert_eq!(reference.trials_run, oracle.trials_run);
            prop_assert_eq!(reference.nodes_rescanned, oracle.nodes_rescanned);
        }

        // Determinism of the cached path itself.
        let again = solve(&ctx, &wl, &s, None);
        assert_bit_identical(&again, &cached)?;
        prop_assert_eq!(again.trials_run, cached.trials_run);
        prop_assert_eq!(again.trials_cached, cached.trials_cached);
        prop_assert_eq!(again.nodes_rescanned, cached.nodes_rescanned);
    }
}

/// The timeline solver and the naive loop over the reference ledger
/// take identical decisions on the paper instance.
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
        let oracle = sorp_solve_naive(
            &ctx,
            priced,
            &SorpConfig::default(),
            &[],
            LedgerMode::Reference,
            ExecMode::Sequential,
        );
        assert!(fast.resolved_anything(), "seed {seed}: nothing to resolve");
        assert!(
            fast.schedule == oracle.schedule,
            "seed {seed}: schedules diverged between ledger modes"
        );
        assert_eq!(fast.cost.to_bits(), oracle.cost.to_bits(), "seed {seed}");
        assert_eq!(fast.iterations, oracle.iterations, "seed {seed}");
        assert_eq!(fast.victims.len(), oracle.victims.len(), "seed {seed}");
    }
}

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
        parallel: false,
        reference_ledger: false,
        max_iterations: 10_000,
    };
    let cached = solve(&ctx, &wl, &s, None);
    let oracle = solve(&ctx, &wl, &s, Some(LedgerMode::Timeline));
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
        let (vs, trace) =
            reschedule_video_traced_with(ctx, &requests, &cons, GreedyPolicy::default());
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
        parallel: false,
        reference_ledger: false,
        max_iterations: 10_000,
    };
    let mut in_class = 0usize;
    for seed in 0..40 {
        let wl = Workload::generate(&topo, &CatalogConfig::small(8), &requests, seed);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let cached = solve(&ctx, &wl, &s, None);
        let oracle = solve(&ctx, &wl, &s, Some(LedgerMode::Timeline));
        if let Err(e) = assert_bit_identical(&cached, &oracle) {
            panic!("seed {seed}: {e:?}");
        }
        assert_eq!(cached.trials_run + cached.trials_cached, oracle.trials_run, "seed {seed}");
        in_class += usize::from(first_commit_lands_in_a_dead_gap(&ctx, &wl, &oracle));
    }
    assert!(in_class > 0, "no instance exercised a commit landing in a dead gap");
}
