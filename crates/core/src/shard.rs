//! Sharded multi-batch scheduling with cross-shard conflict
//! reconciliation.
//!
//! One scheduling cycle's batch is partitioned into shards
//! ([`vod_workload::partition_requests`]) that each run the full
//! two-phase pipeline — IVSP then conflict-scoped SORP — in shard
//! order on the caller's thread, followed by a deterministic
//! **reconciliation pass**:
//!
//! 1. the per-shard [`PricedSchedule`]s merge without recomputation
//!    (`PricedSchedule::merge_with`: Ψ is additive over transfers and
//!    residencies);
//! 2. a fresh global [`SolveState`] is built over the base ledger and
//!    the merged schedule, and every shard's bans are appended to it —
//!    the schedule, the bans and ledger rows (taken over where one shard
//!    alone wrote them) are all that crosses from a shard pass;
//! 3. cross-shard capacity overflows (storages individually feasible
//!    per shard but jointly over capacity) are counted by the global
//!    state's first overflow refresh and resolved by one bounded global
//!    SORP pass, [`SolveState::resolve`] like any other: its trials run
//!    against the merged ledger under the carried bans.
//!
//! Every solve — one shard or several — ends in one **release sweep**
//! ([`SolveState::release`]): each victim and split video, in id order,
//! is re-placed once by the rejective greedy with its bans lifted against
//! the final ledger, kept when cheaper. Bans only accumulate, and a split
//! video is its parts concatenated. A video that is neither still holds
//! its shard's capacity-free greedy output (unless the tail past the cap
//! moved it), which its re-run in an overflow-free ledger reproduces.
//!
//! ## Determinism and equivalence contract
//!
//! * The partition is a pure function of `(batch, spec)`, and every
//!   shard's IVSP and resolution, then the global pass, run in order on
//!   the caller's thread — so the sharded output is **bit-identical
//!   across runs**, and
//!   `shards = 1` (or a 1-region batch) *is* the monolith: its output is
//!   bit-identical to [`crate::sorp_solve`] over [`crate::ivsp_solve`] on the
//!   whole batch, followed by the release sweep
//!   ([`crate::audit::sorp_solve_released`]).
//! * Reconciliation guarantees **feasibility**: every request served,
//!   no overflow, for any shard count, strategy, or policy.
//! * **Ψ-equality with the monolith** additionally holds in the
//!   *regional regime*: [`ShardStrategy::ByRegion`] partitioning, a
//!   neighborhood-local [`GreedyPolicy`] (`allow_remote_placement =
//!   false`), and a workload in which each video is requested from one
//!   neighborhood only ([`vod_workload::generate_regional_requests`]).
//!   There the shards touch disjoint storages and videos, commits
//!   commute with the monolith's interleaved victim order, and total Ψ
//!   agrees up to float summation order (≤ 1e-9 relative; bit-identical
//!   at one shard). Outside that regime the monolith's trials can place
//!   a split video across regions in ways no shard sees, so only
//!   feasibility — not Ψ-equality — is promised.
//!
//! ## One body, two entry points
//!
//! [`shard_solve`] and [`shard_solve_seeded`] run the same pipeline body
//! over a *base ledger* — the occupancy committed outside this batch,
//! which no pass may victimise: empty, or the caller's. The body hands
//! back its final [`SolveState`] (ledger = base + schedule, schedule
//! priced) and the entry points finish it into a [`ShardOutcome`];
//! [`crate::ServiceLoop::run_cycle`] calls the body over its
//! [`crate::CommittedBook`] and repairs the state before finishing it.
//! A cold solve is the service's solve over an empty book.

use crate::capacity::Solved;
use crate::greedy::place;
use crate::sorp::{PerVideo, Release, SolveState};
use crate::warm::HeldCopies;
use crate::{
    detect_overflows, GreedyPolicy, PricedSchedule, SchedCtx, SorpConfig, SorpOutcome,
    StorageLedger,
};
use serde::{Deserialize, Serialize};
use vod_cost_model::{RequestBatch, VideoId};
use vod_parallel::ExecMode;
use vod_workload::{partition_requests, ShardSpec, ShardStrategy};

/// Configuration of the sharded solver: the partition plus the SORP
/// configuration shared by the per-shard and reconciliation passes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Requested shard count (clamped by the partitioner so every shard
    /// is non-empty).
    pub shards: usize,
    /// Partitioning strategy.
    pub strategy: ShardStrategy,
    /// Tie-break seed for the partitioner.
    pub seed: u64,
    /// SORP configuration. Its [`SorpConfig::policy`] governs phase 1
    /// *and* every trial reschedule, per-shard and global; its
    /// `max_iterations` bounds each pass separately (the global
    /// reconciliation pass gets its own budget).
    pub sorp: SorpConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self { shards: 4, strategy: ShardStrategy::ByRegion, seed: 0, sorp: SorpConfig::default() }
    }
}

impl ShardConfig {
    /// Region-sharded configuration with `shards` shards.
    pub fn by_region(shards: usize) -> Self {
        Self { shards, ..Self::default() }
    }

    /// Time-sliced configuration with `shards` shards.
    pub fn by_time_slice(shards: usize) -> Self {
        Self { shards, strategy: ShardStrategy::ByTimeSlice, ..Self::default() }
    }
}

/// Result of [`shard_solve`]: the reconciled [`SorpOutcome`] plus
/// shard-level diagnostics.
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    /// The reconciled outcome. Aggregates across all passes:
    /// `initial_cost` is the summed phase-1 Ψ, and `iterations`,
    /// `victims`, `forced_fallbacks`, and the trial counters cover the
    /// per-shard passes *and* the global pass.
    pub sorp: SorpOutcome,
    /// Effective shard count after clamping.
    pub shards: usize,
    /// Videos whose requests landed in more than one shard.
    pub split_videos: usize,
    /// Storages holding residencies from more than one shard.
    pub shared_storages: usize,
    /// Capacity overflows present in the merged schedule before the
    /// global pass — conflicts the shards could not see.
    pub cross_shard_overflows: usize,
    /// Iterations the global reconciliation pass ran.
    pub reconcile_iterations: usize,
    /// Victims the global reconciliation pass committed.
    pub reconcile_victims: usize,
}

/// What the pipeline body hands back: the batch's final [`SolveState`]
/// and the shard-level diagnostics of [`ShardOutcome`].
pub(crate) struct ShardSolve {
    pub(crate) state: SolveState,
    pub(crate) shards: usize,
    /// Videos whose requests landed in more than one shard, in id order.
    split: Vec<VideoId>,
    shared_storages: usize,
    cross_shard_overflows: usize,
    reconcile_iterations: usize,
    reconcile_victims: usize,
    released: Release,
}

impl ShardSolve {
    /// One state that saw the whole batch: nothing split, shared or
    /// reconciled.
    fn single(state: SolveState) -> Self {
        Self {
            state,
            shards: 1,
            split: Vec::new(),
            shared_storages: 0,
            cross_shard_overflows: 0,
            reconcile_iterations: 0,
            reconcile_victims: 0,
            released: Release::default(),
        }
    }

    /// Emit this solve as a `"shard_solve"` flight-recorder event under
    /// the recorder's current cycle scope: sharding shape, SORP work
    /// counters, cache-reuse totals and what the release sweep tried,
    /// kept and saved.
    fn record(&self, ctx: &SchedCtx<'_>, requests: usize) {
        let s = &self.state;
        ctx.recorder.event("shard_solve", |e| {
            e.u64("shards", self.shards as u64)
                .u64("requests", requests as u64)
                .u64("split_videos", self.split.len() as u64)
                .u64("shared_storages", self.shared_storages as u64)
                .u64("cross_shard_overflows", self.cross_shard_overflows as u64)
                .u64("reconcile_iterations", self.reconcile_iterations as u64)
                .u64("reconcile_victims", self.reconcile_victims as u64)
                .u64("iterations", s.iterations as u64)
                .u64("victims", s.victims.len() as u64)
                .u64("forced_fallbacks", s.forced_fallbacks as u64)
                .u64("trials_run", s.trials_run as u64)
                .u64("trials_cached", s.trials_cached as u64)
                .u64("nodes_rescanned", s.nodes_rescanned as u64)
                .u64("released_tried", self.released.tried as u64)
                .u64("released_kept", self.released.kept as u64)
                .u64("released_split_tried", self.released.split_tried as u64)
                .u64("released_split_kept", self.released.split_kept as u64)
                .f64("released_saved", self.released.saved)
                .bool("overflow_free", detect_overflows(ctx.topo, &s.ledger).is_empty())
                .f64("cost", s.priced.total())
                .f64("initial_cost", s.initial_cost);
        });
    }

    /// Finish the state and package the outcome.
    pub(crate) fn finish(self, ctx: &SchedCtx<'_>) -> ShardOutcome {
        ShardOutcome {
            sorp: self.state.into_outcome(ctx).0,
            shards: self.shards,
            split_videos: self.split.len(),
            shared_storages: self.shared_storages,
            cross_shard_overflows: self.cross_shard_overflows,
            reconcile_iterations: self.reconcile_iterations,
            reconcile_victims: self.reconcile_victims,
        }
    }
}

/// Solve one cycle's batch with the sharded two-phase pipeline. Runs on
/// the calling thread: `_mode` is accepted and ignored, kept only
/// because the frozen benchmark adapter passes one (drop with benchmark
/// revision 2, like the always-zero [`crate::WarmStats`] fields).
pub fn shard_solve(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    cfg: &ShardConfig,
    _mode: ExecMode,
) -> ShardOutcome {
    shard_solve_seeded(ctx, batch, cfg, &StorageLedger::new(ctx.topo))
}

/// [`shard_solve`] over immutable external occupancy: `base` holds, under
/// [`crate::EXTERNAL_OCCUPANCY`], residencies from earlier scheduling
/// cycles that are still draining when this one starts. Every shard's
/// ledger and the merged ledger carry it; it can never be victimised,
/// and an overflow consisting *only* of external occupancy is
/// unresolvable and leaves `overflow_free = false`.
pub fn shard_solve_seeded(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    cfg: &ShardConfig,
    base: &StorageLedger,
) -> ShardOutcome {
    solve_over(ctx, batch, cfg, base, &HeldCopies::default()).finish(ctx)
}

/// The pipeline body: partition, per-shard IVSP + resolution over a
/// clone of `base`, then — unless one shard took the whole batch —
/// cross-shard reconciliation, and last the release sweep. Each of the
/// `held` copies goes to one shard's runs of its video
/// ([`HeldCopies::deal`]); the global pass and the sweep see them all.
pub(crate) fn solve_over(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    cfg: &ShardConfig,
    base: &StorageLedger,
    held: &HeldCopies,
) -> ShardSolve {
    let spec = ShardSpec { shards: cfg.shards, strategy: cfg.strategy, seed: cfg.seed };
    let batches = partition_requests(ctx.topo, batch, &spec);
    let dealt = held.deal(ctx.topo, &batches);

    // Per-shard pipeline: IVSP then a full resolution pass. The shard
    // is the independent unit of work (the paper's region).
    let states: Vec<SolveState> = batches
        .iter()
        .zip(dealt)
        .map(|(shard_batch, held)| {
            let priced = place(ctx, shard_batch, cfg.sorp.policy, None, &held);
            let mut state = SolveState::new(ctx, priced, base.clone());
            state.held = held;
            state.resolve(ctx, shard_batch, &cfg.sorp);
            state
        })
        .collect();

    // One shard is the monolithic pipeline verbatim: its state (and its
    // delta-accumulated running total) is the outcome, bit-identical to
    // `sorp_solve` on the whole batch. The array pattern proves
    // the shard exists — no panic path.
    let mut out = match <[SolveState; 1]>::try_from(states) {
        Ok([state]) => ShardSolve::single(state),
        Err(states) => reconcile(ctx, batch, cfg, base, states, held),
    };
    out.released = out.state.release(ctx, batch, cfg.sorp.policy, &out.split);
    out.record(ctx, batch.len());
    out
}

/// The degraded rungs' placement: one rejective-greedy pass over the
/// whole batch against `base` ([`SolveState::placed`]) from the `held`
/// copies, recorded as a one-shard solve with no resolution work.
pub(crate) fn place_over(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    policy: GreedyPolicy,
    base: &StorageLedger,
    held: &HeldCopies,
) -> ShardSolve {
    let state = SolveState::placed(ctx, batch, policy, base.clone(), held.clone());
    let out = ShardSolve::single(state);
    out.record(ctx, batch.len());
    out
}

/// Merge the resolved shard states and run the global pass over them.
fn reconcile(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    cfg: &ShardConfig,
    base: &StorageLedger,
    states: Vec<SolveState>,
    held: &HeldCopies,
) -> ShardSolve {
    let shards = states.len();
    // Which storages hold residencies from several shards, straight off
    // the per-shard schedules: each node remembers the one shard seen
    // there until a second one shows up.
    const NOBODY: usize = usize::MAX;
    const SEVERAL: usize = usize::MAX - 1;
    let mut tenant = vec![NOBODY; ctx.topo.node_count()];
    let mut shared_storages = 0;
    for (si, s) in states.iter().enumerate() {
        for r in s.priced.schedule().residencies() {
            let seen = &mut tenant[r.loc.index()];
            if *seen == NOBODY {
                *seen = si;
            } else if *seen != si && *seen != SEVERAL {
                *seen = SEVERAL;
                shared_storages += 1;
            }
        }
    }

    // Tear the shard states apart: schedules merge, bans append in shard
    // order, counters aggregate, ledgers give rows. Nothing else crosses.
    let mut parts = Vec::with_capacity(shards);
    let mut ledgers = Vec::with_capacity(shards);
    let mut shard_bans: Vec<PerVideo<_>> = Vec::with_capacity(shards);
    let mut initial_cost = 0.0;
    let mut iterations = 0;
    let mut forced_fallbacks = 0;
    let mut trials_run = 0;
    let mut trials_cached = 0;
    let mut jobs_rebuilt = 0;
    let mut nodes_rescanned = 0;
    let mut victims = Vec::new();
    for mut s in states {
        initial_cost += s.initial_cost;
        iterations += s.iterations;
        forced_fallbacks += s.forced_fallbacks;
        trials_run += s.trials_run;
        trials_cached += s.trials_cached;
        jobs_rebuilt += s.jobs_rebuilt;
        nodes_rescanned += s.nodes_rescanned;
        victims.append(&mut s.victims);
        shard_bans.push(s.forbidden);
        ledgers.push((s.ledger, s.dirty));
        parts.push(s.priced);
    }

    // The merge meets every video of every shard once, so it also knows
    // which ones landed in several, and carries each shard's bans over to
    // the video's merged position, appended in shard order. The table is
    // sized by the parts' video total and trimmed to the merged count.
    let mut forbidden: PerVideo<Vec<_>> = PerVideo::new();
    let videos = parts.iter().map(|p| p.schedule().video_count()).sum();
    let (merged, split) = PricedSchedule::merge_with(parts, |shard, at, merged_at| {
        if let Some(bans) = shard_bans[shard].written(at).filter(|bans| !bans.is_empty()) {
            forbidden.get_mut(merged_at, videos).append(bans);
        }
    });
    forbidden.truncate(merged.schedule().video_count());
    let ledger = global_ledger(ctx, base, &merged, ledgers);
    let mut global = SolveState::laid(ctx, merged, ledger);
    global.forbidden = forbidden;
    global.held = held.clone();

    // Seed the aggregate counters so the final outcome reports totals
    // across every pass; `resolve` budgets `max_iterations` *on top of*
    // the seeded count, so the global pass gets its own full budget.
    global.initial_cost = initial_cost;
    global.iterations = iterations;
    global.forced_fallbacks = forced_fallbacks;
    global.trials_run = trials_run;
    global.trials_cached = trials_cached;
    global.jobs_rebuilt = jobs_rebuilt;
    global.nodes_rescanned = nodes_rescanned;
    global.victims = victims;

    // The conflicts the shards could not see: the global pass's first
    // overflow scan, which `resolve` then finds current.
    let cross_shard_overflows = global.refresh_overflows(ctx);
    let victims_before = global.victims.len();
    let iters_before = global.iterations;
    global.resolve(ctx, batch, &cfg.sorp);
    let reconcile_iterations = global.iterations - iters_before;
    let reconcile_victims = global.victims.len() - victims_before;

    ShardSolve {
        state: global,
        shards,
        split,
        shared_storages,
        cross_shard_overflows,
        reconcile_iterations,
        reconcile_victims,
        released: Release::default(),
    }
}

/// The global pass's ledger, bit-identical to `base` plus every merged
/// residency in merged order: a row one shard wrote and never committed
/// on is that shard's, whose order the merge keeps (DESIGN.md §11.2).
fn global_ledger(
    ctx: &SchedCtx<'_>,
    base: &StorageLedger,
    merged: &PricedSchedule,
    shards: Vec<Solved>,
) -> StorageLedger {
    let mut ledger = base.clone();
    let rebuild = ledger.take_rows(shards, None);
    for r in merged.schedule().residencies() {
        if rebuild[r.loc.index()] {
            ledger.add(r.loc, r.video, r.profile(ctx.catalog.get(r.video)));
        }
    }
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivsp_solve;
    use vod_cost_model::CostModel;
    use vod_topology::builders::{self, PaperFig4Config};
    use vod_workload::{CatalogConfig, RequestConfig, Workload};

    fn world(capacity_gb: f64, seed: u64) -> (vod_topology::Topology, Workload) {
        let topo = builders::paper_fig4(&PaperFig4Config { capacity_gb, ..Default::default() });
        let wl =
            Workload::generate(&topo, &CatalogConfig::small(80), &RequestConfig::paper(), seed);
        (topo, wl)
    }

    #[test]
    fn sharded_schedule_is_feasible_for_any_strategy() {
        for strategy in [ShardStrategy::ByRegion, ShardStrategy::ByTimeSlice] {
            let (topo, wl) = world(5.0, 1);
            let model = CostModel::per_hop();
            let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
            let cfg = ShardConfig { shards: 4, strategy, ..ShardConfig::default() };
            let out = shard_solve(&ctx, &wl.requests, &cfg, ExecMode::Sequential);
            assert!(out.sorp.overflow_free, "{strategy:?} left overflows");
            assert_eq!(out.sorp.schedule.delivery_count(), wl.requests.len());
            // Re-derive the ledger from scratch: no overflow survives.
            let ledger = StorageLedger::from_schedule(&topo, &wl.catalog, &out.sorp.schedule);
            assert!(detect_overflows(&topo, &ledger).is_empty());
        }
    }

    #[test]
    fn sharded_output_is_run_to_run_deterministic() {
        let (topo, wl) = world(5.0, 3);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let cfg = ShardConfig { shards: 3, ..ShardConfig::default() };
        let a = shard_solve(&ctx, &wl.requests, &cfg, ExecMode::Sequential);
        let b = shard_solve(&ctx, &wl.requests, &cfg, ExecMode::Sequential);
        assert!(a.sorp.schedule == b.sorp.schedule, "runs diverged");
        assert_eq!(a.sorp.cost.to_bits(), b.sorp.cost.to_bits());
        assert_eq!(a.reconcile_iterations, b.reconcile_iterations);
    }

    #[test]
    fn cross_shard_conflicts_are_detected_and_reconciled() {
        // Time-slicing splits popular videos across shards, and each
        // shard resolves against its own ledger only, so the merged
        // schedule generally re-overflows — the global pass must both
        // see the conflicts and clear them.
        let mut seen_conflict = false;
        for seed in 1..8 {
            let (topo, wl) = world(4.0, seed);
            let model = CostModel::per_hop();
            let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
            let cfg = ShardConfig::by_time_slice(4);
            let out = shard_solve(&ctx, &wl.requests, &cfg, ExecMode::Sequential);
            assert!(out.sorp.overflow_free, "seed {seed}: reconciliation left overflows");
            assert_eq!(out.sorp.schedule.delivery_count(), wl.requests.len());
            if out.cross_shard_overflows > 0 {
                seen_conflict = true;
                assert!(
                    out.reconcile_iterations > 0 || out.sorp.forced_fallbacks > 0,
                    "seed {seed}: conflicts reported but the global pass did nothing"
                );
            }
        }
        assert!(seen_conflict, "tight capacity never produced a cross-shard conflict");
    }

    #[test]
    fn sharded_outcome_accounts_for_every_request() {
        let (topo, wl) = world(5.0, 5);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let cfg = ShardConfig::by_region(4);
        let out = shard_solve(&ctx, &wl.requests, &cfg, ExecMode::Sequential);
        let spec = ShardSpec { shards: cfg.shards, strategy: cfg.strategy, seed: cfg.seed };
        let batches = partition_requests(&topo, &wl.requests, &spec);
        assert!(out.shards > 1, "four regions made one shard");
        assert_eq!(out.shards, batches.len());
        assert_eq!(out.sorp.schedule.delivery_count(), wl.requests.len());
        let summed: f64 =
            batches.iter().map(|b| ivsp_solve(&ctx, b, cfg.sorp.policy).total()).sum();
        assert!(
            (out.sorp.initial_cost - summed).abs() <= 1e-9 * summed.max(1.0),
            "aggregate initial cost must be the per-shard sum"
        );
    }

    #[test]
    fn the_row_by_row_ledger_is_base_plus_every_merged_residency() {
        use crate::EXTERNAL_OCCUPANCY;
        use vod_cost_model::SpaceProfile;
        use vod_topology::NodeId;
        type RowBits = (Vec<(u32, [u64; 5])>, u64, Vec<[u64; 4]>, u64);
        let bits = |topo: &vod_topology::Topology, l: &StorageLedger| -> Vec<RowBits> {
            (0..topo.node_count() as u32)
                .map(|i| {
                    let loc = NodeId(i);
                    let entries = l.profiles_at(loc).iter();
                    let entries = entries
                        .map(|(v, p)| (v.0, [p.start, p.full, p.last, p.end, p.plateau]))
                        .map(|(v, p)| (v, p.map(f64::to_bits)))
                        .collect();
                    let mut segments = Vec::new();
                    l.for_each_segment(loc, |a, b, c, d| {
                        segments.push([a, b, c, d].map(f64::to_bits))
                    });
                    (entries, l.plateau_sum(loc).to_bits(), segments, l.node_version(loc))
                })
                .collect()
        };
        // Rows kept from the base, taken from a shard, rebuilt.
        let (mut seen, mut committed) = ([0usize; 3], false);
        for strategy in [ShardStrategy::ByRegion, ShardStrategy::ByTimeSlice] {
            for commits in [false, true] {
                let (topo, wl) = world(5.0, 1);
                let model = CostModel::per_hop();
                let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
                let cfg = ShardConfig { shards: 4, strategy, ..ShardConfig::default() };
                let mut base = StorageLedger::new(&topo);
                for loc in topo.storages().take(2) {
                    let carried = SpaceProfile::new(0.0, 3_000.0, 1e9, 600.0);
                    base.add(loc, EXTERNAL_OCCUPANCY, carried);
                }
                let spec = ShardSpec { shards: cfg.shards, strategy, seed: cfg.seed };
                let (mut shards, mut parts) = (Vec::new(), Vec::new());
                for batch in partition_requests(&topo, &wl.requests, &spec) {
                    let priced = ivsp_solve(&ctx, &batch, cfg.sorp.policy);
                    let mut s = SolveState::new(&ctx, priced, base.clone());
                    if commits {
                        s.resolve(&ctx, &batch, &cfg.sorp);
                        committed |= s.dirty.contains(&true);
                    }
                    shards.push((s.ledger, s.dirty));
                    parts.push(s.priced);
                }
                assert!(shards.len() > 1);
                let before: Vec<StorageLedger> = shards.iter().map(|(l, _)| l.clone()).collect();
                let (merged, _) = PricedSchedule::merge_with(parts, |_, _, _| {});
                let mut want = base.clone();
                for r in merged.schedule().residencies() {
                    want.add(r.loc, r.video, r.profile(wl.catalog.get(r.video)));
                }
                let got = global_ledger(&ctx, &base, &merged, shards);
                let what = format!("{strategy:?}, shard-pass commits: {commits}");
                assert!(bits(&topo, &got) == bits(&topo, &want), "{what}");
                for loc in (0..topo.node_count() as u32).map(NodeId) {
                    let taken = before.iter().any(|l| got.shares_row(l, loc));
                    seen[if got.shares_row(&base, loc) { 0 } else { 2 - usize::from(taken) }] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "kept / taken / rebuilt rows: {seen:?}");
        assert!(committed, "no shard pass committed");
    }

    #[test]
    fn external_occupancy_is_respected_across_shards() {
        let (topo, wl) = world(5.0, 6);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        // Permanently occupy most of one storage.
        let loc = topo.storages().next().expect("a storage exists");
        let squatter = vod_cost_model::SpaceProfile {
            start: 0.0,
            full: 0.0,
            last: 1e7,
            end: 1e7,
            plateau: 4.5e9,
        };
        let mut base = StorageLedger::new(&topo);
        base.add(loc, crate::EXTERNAL_OCCUPANCY, squatter);
        let cfg = ShardConfig::by_region(4);
        let out = shard_solve_seeded(&ctx, &wl.requests, &cfg, &base);
        assert!(out.sorp.overflow_free);
        // Rebuild the ledger with the external occupancy and re-check.
        let mut ledger = StorageLedger::from_schedule(&topo, &wl.catalog, &out.sorp.schedule);
        ledger.add(loc, crate::EXTERNAL_OCCUPANCY, squatter);
        assert!(detect_overflows(&topo, &ledger).is_empty());
    }
}
