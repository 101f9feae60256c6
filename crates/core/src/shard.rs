//! Sharded multi-batch scheduling with cross-shard conflict
//! reconciliation.
//!
//! One scheduling cycle's batch is partitioned into shards
//! ([`vod_workload::partition_requests`]) that each run the full
//! two-phase pipeline — IVSP then conflict-scoped SORP — concurrently,
//! followed by a deterministic **reconciliation pass**:
//!
//! 1. the per-shard [`PricedSchedule`]s merge without recomputation
//!    ([`PricedSchedule::merge`]: Ψ is additive over transfers and
//!    residencies);
//! 2. a fresh global [`SolveState`] is built over the merged schedule
//!    and seeded with one [`crate::LedgerDelta`] covering every merged
//!    residency footprint, so transplanted trial-cache entries
//!    (epoch 0) lazily re-validate against the occupancy the *other*
//!    shards contributed — the PR-4 conflict-detection machinery reused
//!    across shard boundaries;
//! 3. cross-shard capacity overflows (storages individually feasible
//!    per shard but jointly over capacity) are detected by the standard
//!    scan and resolved by one bounded global SORP pass whose victim
//!    loop starts from the per-shard outcomes: surviving trials replay
//!    instead of re-running the greedy, and per-shard bans carry over.
//!
//! ## Determinism and equivalence contract
//!
//! * The partition is a pure function of `(batch, spec)`; per-shard
//!   solves run under [`ExecMode::inner`] (always sequential) and the
//!   global pass reduces sequentially in job order — so the sharded
//!   output is **bit-identical across runs** in both [`ExecMode`]s, and
//!   `shards = 1` (or a 1-region batch) takes the monolithic code path
//!   exactly, producing bit-identical output to [`sorp_solve_priced`].
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
//! The monolithic pipeline stays available behind
//! [`SorpConfig::use_monolithic_solver`] as the equivalence oracle,
//! following the reference-ledger / uncached-solver discipline.

use crate::sorp::SolveState;
use crate::warm::WarmState;
use crate::{
    detect_overflows, ivsp_solve_priced_with, PricedSchedule, SchedCtx, SorpConfig, SorpOutcome,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use vod_cost_model::{Dollars, RequestBatch, Secs, SpaceProfile, VideoId};
use vod_parallel::{map_with_mode, ExecMode};
use vod_topology::NodeId;
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

/// Per-shard diagnostics, in shard order.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardStats {
    /// Requests assigned to this shard.
    pub requests: usize,
    /// Distinct videos in the shard's schedule.
    pub videos: usize,
    /// Phase-1 Ψ of the shard.
    pub initial_cost: Dollars,
    /// Ψ after the shard's own resolution pass.
    pub resolved_cost: Dollars,
    /// Resolution iterations the shard ran.
    pub iterations: usize,
    /// Victims the shard committed.
    pub victims: usize,
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
    /// Effective shard count after clamping (1 for the monolithic
    /// oracle).
    pub shards: usize,
    /// Per-shard diagnostics (empty for the monolithic oracle).
    pub per_shard: Vec<ShardStats>,
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
    /// Trial-cache entries transplanted from the shards into the global
    /// pass.
    pub trials_transplanted: usize,
}

impl ShardOutcome {
    /// Emit this solve as a `"shard_solve"` flight-recorder event under
    /// the recorder's current cycle scope: sharding shape, SORP work
    /// counters, and cache-reuse totals — every decision input the
    /// issue's debugging scenarios need.
    fn record(&self, rec: &vod_obs::Recorder, requests: usize) {
        rec.event("shard_solve", |e| {
            e.u64("shards", self.shards as u64)
                .u64("requests", requests as u64)
                .u64("split_videos", self.split_videos as u64)
                .u64("shared_storages", self.shared_storages as u64)
                .u64("cross_shard_overflows", self.cross_shard_overflows as u64)
                .u64("reconcile_iterations", self.reconcile_iterations as u64)
                .u64("reconcile_victims", self.reconcile_victims as u64)
                .u64("trials_transplanted", self.trials_transplanted as u64)
                .u64("iterations", self.sorp.iterations as u64)
                .u64("victims", self.sorp.victims.len() as u64)
                .u64("forced_fallbacks", self.sorp.forced_fallbacks as u64)
                .u64("trials_run", self.sorp.trials_run as u64)
                .u64("trials_cached", self.sorp.trials_cached as u64)
                .u64("nodes_rescanned", self.sorp.nodes_rescanned as u64)
                .bool("overflow_free", self.sorp.overflow_free)
                .f64("cost", self.sorp.cost)
                .f64("initial_cost", self.sorp.initial_cost);
        });
    }
}

/// Solve one cycle's batch with the sharded two-phase pipeline.
pub fn shard_solve(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    cfg: &ShardConfig,
    mode: ExecMode,
) -> ShardOutcome {
    shard_solve_seeded(ctx, batch, cfg, &[], mode)
}

/// [`shard_solve`] with immutable external occupancy (the rolling-horizon
/// seed, as in [`crate::sorp_solve_seeded`]). Every shard's ledger and
/// the merged ledger all carry the external occupancy; it can never be
/// victimised.
pub fn shard_solve_seeded(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    cfg: &ShardConfig,
    external: &[(NodeId, SpaceProfile)],
    mode: ExecMode,
) -> ShardOutcome {
    let out = shard_solve_seeded_inner(ctx, batch, cfg, external, mode);
    out.record(&ctx.recorder, batch.len());
    out
}

fn shard_solve_seeded_inner(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    cfg: &ShardConfig,
    external: &[(NodeId, SpaceProfile)],
    mode: ExecMode,
) -> ShardOutcome {
    if cfg.sorp.use_monolithic_solver {
        return monolithic(ctx, batch, cfg, external, mode);
    }

    let spec = ShardSpec { shards: cfg.shards, strategy: cfg.strategy, seed: cfg.seed };
    let batches = partition_requests(ctx.topo, batch, &spec);

    // Per-shard pipeline: IVSP then a full resolution pass, each under
    // the inner (sequential) mode — the fan-out across shards is where
    // this call's parallelism lives.
    let states = map_with_mode(mode, &batches, |shard_batch| {
        let priced = ivsp_solve_priced_with(ctx, shard_batch, cfg.sorp.policy, mode.inner());
        let mut state = SolveState::new(ctx, priced, &cfg.sorp, external);
        state.resolve(ctx, &cfg.sorp, mode.inner());
        state
    });

    let per_shard: Vec<ShardStats> = batches
        .iter()
        .zip(&states)
        .map(|(b, s)| ShardStats {
            requests: b.len(),
            videos: s.priced.schedule().videos().count(),
            initial_cost: s.initial_cost,
            resolved_cost: s.priced.total(),
            iterations: s.iterations,
            victims: s.victims.len(),
        })
        .collect();

    // One shard is the monolithic pipeline verbatim: reuse the shard's
    // state (and its delta-accumulated running total) so the output is
    // bit-identical to `sorp_solve_priced` on the whole batch. The array
    // pattern proves the shard exists — no panic path.
    let states = match <[SolveState; 1]>::try_from(states) {
        Ok([state]) => {
            return ShardOutcome {
                sorp: state.into_outcome(ctx),
                shards: 1,
                per_shard,
                split_videos: 0,
                shared_storages: 0,
                cross_shard_overflows: 0,
                reconcile_iterations: 0,
                reconcile_victims: 0,
                trials_transplanted: 0,
            };
        }
        Err(states) => states,
    };

    // Which videos landed in several shards, and which storages hold
    // residencies from several shards — both straight off the per-shard
    // schedules, before any merging.
    let mut video_shards: BTreeMap<VideoId, usize> = BTreeMap::new();
    let mut storage_shards: BTreeMap<NodeId, BTreeSet<usize>> = BTreeMap::new();
    for (si, s) in states.iter().enumerate() {
        for vs in s.priced.schedule().videos() {
            *video_shards.entry(vs.video).or_insert(0) += 1;
            for r in &vs.residencies {
                storage_shards.entry(r.loc).or_default().insert(si);
            }
        }
    }
    let split: BTreeSet<VideoId> =
        video_shards.iter().filter(|&(_, &n)| n > 1).map(|(&v, _)| v).collect();
    let shared_storages = storage_shards.values().filter(|s| s.len() > 1).count();

    // Tear the shard states apart: schedules merge, caches and bans
    // transplant, counters aggregate.
    let mut parts = Vec::with_capacity(states.len());
    let mut handovers = Vec::with_capacity(states.len());
    let mut initial_cost = 0.0;
    let mut iterations = 0;
    let mut forced_fallbacks = 0;
    let mut trials_run = 0;
    let mut trials_cached = 0;
    let mut nodes_rescanned = 0;
    let mut victims = Vec::new();
    for mut s in states {
        initial_cost += s.initial_cost;
        iterations += s.iterations;
        forced_fallbacks += s.forced_fallbacks;
        trials_run += s.trials_run;
        trials_cached += s.trials_cached;
        nodes_rescanned += s.nodes_rescanned;
        victims.append(&mut s.victims);
        // A split video's per-shard request set is a strict subset of
        // its global one, so its memoized trials violate the cache's
        // request-invariance assumption in the merged state: drop them.
        // Unsplit videos' entries carry over and re-validate lazily.
        s.cache.retain(|vid, _| !split.contains(vid));
        handovers.push((s.cache, s.forbidden));
        parts.push(s.priced);
    }

    let merged = PricedSchedule::merge(parts);
    let mut global = SolveState::new(ctx, merged, &cfg.sorp, external);

    // One delta covering every merged residency footprint (plus the
    // external occupancy): transplanted entries re-validate against it
    // on first lookup, which is exactly "did any *other* shard's
    // occupancy flip one of my recorded admission answers?".
    let mut cross = crate::LedgerDelta::new();
    for vs in global.priced.schedule().videos() {
        for r in &vs.residencies {
            let p = r.profile(ctx.catalog.get(r.video));
            cross.record(r.loc, p.start, p.end);
        }
    }
    for (loc, p) in external {
        cross.record(*loc, p.start, p.end);
    }
    global.deltas = vec![cross];

    let mut trials_transplanted = 0;
    for (cache, forbidden) in handovers {
        trials_transplanted += global.adopt(cache, forbidden);
    }

    let cross_shard_overflows = detect_overflows(ctx.topo, &global.ledger).len();

    // Seed the aggregate counters so the final outcome reports totals
    // across every pass; `resolve` budgets `max_iterations` *on top of*
    // the seeded count, so the global pass gets its own full budget.
    global.initial_cost = initial_cost;
    global.iterations = iterations;
    global.forced_fallbacks = forced_fallbacks;
    global.trials_run = trials_run;
    global.trials_cached = trials_cached;
    global.nodes_rescanned = nodes_rescanned;
    global.victims = victims;

    let victims_before = global.victims.len();
    let iters_before = global.iterations;
    global.resolve(ctx, &cfg.sorp, mode);
    let reconcile_iterations = global.iterations - iters_before;
    let reconcile_victims = global.victims.len() - victims_before;

    ShardOutcome {
        sorp: global.into_outcome(ctx),
        shards: per_shard.len(),
        per_shard,
        split_videos: split.len(),
        shared_storages,
        cross_shard_overflows,
        reconcile_iterations,
        reconcile_victims,
        trials_transplanted,
    }
}

/// [`shard_solve_seeded`] with a cross-cycle warm start: committed
/// occupancy and carried trial-cache entries come from `warm` (updated
/// in place for the next cycle) instead of a flat external profile list
/// and cold caches. `window_start` is the new cycle's window origin:
/// [`WarmState::begin_cycle`] first evicts everything fully drained
/// before it.
///
/// Structure mirrors [`shard_solve_seeded`] exactly — same partition,
/// same per-shard pipeline, same reconciliation — with two warm
/// substitutions, each argued equivalence-preserving in the [`crate::warm`]
/// module docs:
///
/// * every [`SolveState`] starts from a clone of the incrementally
///   maintained committed ledger ([`SolveState::new_with_base`]) instead
///   of re-adding the external list;
/// * carried trials adopt at epoch 0 behind a first delta that unions
///   the previous cycle's final ledger footprint with the new state's
///   own — so the standard lazy validation answers every cross-cycle
///   staleness question before an entry is reused.
///
/// Shards are prepared and resolved in sequence (the warm state is one
/// mutable resource); each shard's greedy fan-out and resolution pass
/// run under the caller's full `mode`, which per the [`map_with_mode`]
/// order-preservation contract leaves outputs bit-identical to the cold
/// sharded pipeline's `inner`-mode passes.
pub fn shard_solve_warm(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    cfg: &ShardConfig,
    warm: &mut WarmState,
    window_start: Secs,
    mode: ExecMode,
) -> ShardOutcome {
    let out = shard_solve_warm_inner(ctx, batch, cfg, warm, window_start, mode);
    out.record(&ctx.recorder, batch.len());
    out
}

fn shard_solve_warm_inner(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    cfg: &ShardConfig,
    warm: &mut WarmState,
    window_start: Secs,
    mode: ExecMode,
) -> ShardOutcome {
    warm.begin_cycle(ctx, window_start);
    warm.stats.shards_used = 1;

    if cfg.sorp.use_monolithic_solver {
        let priced = ivsp_solve_priced_with(ctx, batch, cfg.sorp.policy, mode);
        let mut state = SolveState::new_with_base(ctx, priced, warm.committed().ledger().clone());
        let trials = warm.take_matching_trials(batch);
        warm.seed_state(&mut state, trials);
        state.resolve(ctx, &cfg.sorp, mode);
        warm.harvest(&mut state);
        let sorp = state.into_outcome(ctx);
        warm.absorb_schedule(ctx, &sorp.schedule);
        return ShardOutcome {
            sorp,
            shards: 1,
            per_shard: Vec::new(),
            split_videos: 0,
            shared_storages: 0,
            cross_shard_overflows: 0,
            reconcile_iterations: 0,
            reconcile_victims: 0,
            trials_transplanted: 0,
        };
    }

    let spec = ShardSpec { shards: cfg.shards, strategy: cfg.strategy, seed: cfg.seed };
    let batches = partition_requests(ctx.topo, batch, &spec);

    let mut states = Vec::with_capacity(batches.len());
    for shard_batch in &batches {
        let priced = ivsp_solve_priced_with(ctx, shard_batch, cfg.sorp.policy, mode);
        let mut state = SolveState::new_with_base(ctx, priced, warm.committed().ledger().clone());
        let trials = warm.take_matching_trials(shard_batch);
        warm.seed_state(&mut state, trials);
        state.resolve(ctx, &cfg.sorp, mode);
        states.push(state);
    }

    let per_shard: Vec<ShardStats> = batches
        .iter()
        .zip(&states)
        .map(|(b, s)| ShardStats {
            requests: b.len(),
            videos: s.priced.schedule().videos().count(),
            initial_cost: s.initial_cost,
            resolved_cost: s.priced.total(),
            iterations: s.iterations,
            victims: s.victims.len(),
        })
        .collect();

    // As in the cold path: the array pattern proves the single shard
    // exists, so there is no panic path.
    let states = match <[SolveState; 1]>::try_from(states) {
        Ok([mut state]) => {
            warm.harvest(&mut state);
            let sorp = state.into_outcome(ctx);
            warm.absorb_schedule(ctx, &sorp.schedule);
            return ShardOutcome {
                sorp,
                shards: 1,
                per_shard,
                split_videos: 0,
                shared_storages: 0,
                cross_shard_overflows: 0,
                reconcile_iterations: 0,
                reconcile_victims: 0,
                trials_transplanted: 0,
            };
        }
        Err(states) => states,
    };

    let mut video_shards: BTreeMap<VideoId, usize> = BTreeMap::new();
    let mut storage_shards: BTreeMap<NodeId, BTreeSet<usize>> = BTreeMap::new();
    for (si, s) in states.iter().enumerate() {
        for vs in s.priced.schedule().videos() {
            *video_shards.entry(vs.video).or_insert(0) += 1;
            for r in &vs.residencies {
                storage_shards.entry(r.loc).or_default().insert(si);
            }
        }
    }
    let split: BTreeSet<VideoId> =
        video_shards.iter().filter(|&(_, &n)| n > 1).map(|(&v, _)| v).collect();
    let shared_storages = storage_shards.values().filter(|s| s.len() > 1).count();

    let mut parts = Vec::with_capacity(states.len());
    let mut handovers = Vec::with_capacity(states.len());
    let mut initial_cost = 0.0;
    let mut iterations = 0;
    let mut forced_fallbacks = 0;
    let mut trials_run = 0;
    let mut trials_cached = 0;
    let mut nodes_rescanned = 0;
    let mut carried_revalidated = 0;
    let mut victims = Vec::new();
    for mut s in states {
        initial_cost += s.initial_cost;
        iterations += s.iterations;
        forced_fallbacks += s.forced_fallbacks;
        trials_run += s.trials_run;
        trials_cached += s.trials_cached;
        nodes_rescanned += s.nodes_rescanned;
        carried_revalidated += s.carried_revalidated;
        victims.append(&mut s.victims);
        s.cache.retain(|vid, _| !split.contains(vid));
        handovers.push((s.cache, s.forbidden));
        parts.push(s.priced);
    }

    let merged = PricedSchedule::merge(parts);
    let mut global = SolveState::new_with_base(ctx, merged, warm.committed().ledger().clone());

    // The cross-shard validation delta: the global ledger's full
    // footprint (merged residencies *and* committed occupancy — a
    // superset of the cold path's delta, safe in the conservative
    // direction) unioned with the previous cycle's final footprint, so
    // carried entries that were never consulted during their shard's
    // pass still answer the cross-cycle staleness question here.
    let mut cross = global.ledger.span_delta();
    cross.merge(&warm.dirty);
    global.deltas = vec![cross];

    let mut trials_transplanted = 0;
    for (cache, forbidden) in handovers {
        trials_transplanted += global.adopt(cache, forbidden);
    }

    let cross_shard_overflows = detect_overflows(ctx.topo, &global.ledger).len();

    global.initial_cost = initial_cost;
    global.iterations = iterations;
    global.forced_fallbacks = forced_fallbacks;
    global.trials_run = trials_run;
    global.trials_cached = trials_cached;
    global.nodes_rescanned = nodes_rescanned;
    global.carried_revalidated = carried_revalidated;
    global.victims = victims;

    let victims_before = global.victims.len();
    let iters_before = global.iterations;
    global.resolve(ctx, &cfg.sorp, mode);
    let reconcile_iterations = global.iterations - iters_before;
    let reconcile_victims = global.victims.len() - victims_before;

    warm.harvest(&mut global);
    warm.stats.shards_used = per_shard.len();
    let sorp = global.into_outcome(ctx);
    warm.absorb_schedule(ctx, &sorp.schedule);

    ShardOutcome {
        sorp,
        shards: per_shard.len(),
        per_shard,
        split_videos: split.len(),
        shared_storages,
        cross_shard_overflows,
        reconcile_iterations,
        reconcile_victims,
        trials_transplanted,
    }
}

/// The monolithic oracle: the whole batch through IVSP + SORP under the
/// same policy and mode, wrapped in a [`ShardOutcome`].
fn monolithic(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    cfg: &ShardConfig,
    external: &[(NodeId, SpaceProfile)],
    mode: ExecMode,
) -> ShardOutcome {
    let priced = ivsp_solve_priced_with(ctx, batch, cfg.sorp.policy, mode);
    let mut state = SolveState::new(ctx, priced, &cfg.sorp, external);
    state.resolve(ctx, &cfg.sorp, mode);
    ShardOutcome {
        sorp: state.into_outcome(ctx),
        shards: 1,
        per_shard: Vec::new(),
        split_videos: 0,
        shared_storages: 0,
        cross_shard_overflows: 0,
        reconcile_iterations: 0,
        reconcile_victims: 0,
        trials_transplanted: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GreedyPolicy, StorageLedger};
    use vod_cost_model::CostModel;
    use vod_topology::builders::{self, PaperFig4Config};
    use vod_workload::{generate_regional_requests, CatalogConfig, RequestConfig, Workload};

    fn world(capacity_gb: f64, seed: u64) -> (vod_topology::Topology, Workload) {
        let topo = builders::paper_fig4(&PaperFig4Config { capacity_gb, ..Default::default() });
        let wl =
            Workload::generate(&topo, &CatalogConfig::small(80), &RequestConfig::paper(), seed);
        (topo, wl)
    }

    fn local_only() -> GreedyPolicy {
        GreedyPolicy { allow_remote_placement: false, ..GreedyPolicy::default() }
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
    fn one_shard_is_bit_identical_to_monolithic() {
        let (topo, wl) = world(5.0, 2);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let cfg = ShardConfig { shards: 1, ..ShardConfig::default() };
        let sharded = shard_solve(&ctx, &wl.requests, &cfg, ExecMode::Sequential);
        let mono_cfg = ShardConfig {
            sorp: SorpConfig { use_monolithic_solver: true, ..SorpConfig::default() },
            ..cfg
        };
        let mono = shard_solve(&ctx, &wl.requests, &mono_cfg, ExecMode::Sequential);
        assert!(sharded.sorp.schedule == mono.sorp.schedule);
        assert_eq!(sharded.sorp.cost.to_bits(), mono.sorp.cost.to_bits());
        assert_eq!(sharded.sorp.iterations, mono.sorp.iterations);
        assert_eq!(sharded.sorp.victims.len(), mono.sorp.victims.len());
    }

    #[test]
    fn sequential_sharded_output_is_run_to_run_deterministic_and_matches_parallel() {
        let (topo, wl) = world(5.0, 3);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let cfg = ShardConfig { shards: 3, ..ShardConfig::default() };
        let a = shard_solve(&ctx, &wl.requests, &cfg, ExecMode::Sequential);
        let b = shard_solve(&ctx, &wl.requests, &cfg, ExecMode::Sequential);
        let p = shard_solve(&ctx, &wl.requests, &cfg, ExecMode::Parallel);
        assert!(a.sorp.schedule == b.sorp.schedule, "sequential runs diverged");
        assert_eq!(a.sorp.cost.to_bits(), b.sorp.cost.to_bits());
        assert!(a.sorp.schedule == p.sorp.schedule, "parallel diverged from sequential");
        assert_eq!(a.sorp.cost.to_bits(), p.sorp.cost.to_bits());
        assert_eq!(a.reconcile_iterations, p.reconcile_iterations);
    }

    #[test]
    fn regional_regime_matches_monolithic_psi() {
        // ByRegion shards + local-only policy + region-unique videos:
        // the decomposition is exact up to float summation order.
        let topo =
            builders::paper_fig4(&PaperFig4Config { capacity_gb: 5.0, ..Default::default() });
        let catalog = vod_workload::generate_catalog(&CatalogConfig::small(95), 7);
        let requests = generate_regional_requests(
            &topo,
            &catalog,
            &RequestConfig { requests_per_user: 2, ..RequestConfig::paper() },
            7,
        );
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let sorp = SorpConfig { policy: local_only(), ..SorpConfig::default() };
        for shards in [2, 4, 6] {
            let cfg = ShardConfig { shards, sorp: sorp.clone(), ..ShardConfig::default() };
            let sharded = shard_solve(&ctx, &requests, &cfg, ExecMode::Sequential);
            let mono_cfg = ShardConfig {
                sorp: SorpConfig { use_monolithic_solver: true, ..sorp.clone() },
                ..cfg
            };
            let mono = shard_solve(&ctx, &requests, &mono_cfg, ExecMode::Sequential);
            assert!(sharded.sorp.overflow_free && mono.sorp.overflow_free);
            assert_eq!(sharded.split_videos, 0, "regional workload must not split videos");
            let rel = (sharded.sorp.cost - mono.sorp.cost).abs() / mono.sorp.cost.max(1.0);
            assert!(
                rel <= 1e-9,
                "{shards} shards: Ψ {} vs monolithic {} (rel {rel:e})",
                sharded.sorp.cost,
                mono.sorp.cost
            );
            assert!(
                sharded.sorp.schedule == mono.sorp.schedule,
                "{shards} shards: schedules diverged"
            );
        }
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
    fn shard_stats_account_for_every_request() {
        let (topo, wl) = world(5.0, 5);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let cfg = ShardConfig::by_region(4);
        let out = shard_solve(&ctx, &wl.requests, &cfg, ExecMode::Sequential);
        assert_eq!(out.shards, out.per_shard.len());
        assert_eq!(out.per_shard.iter().map(|s| s.requests).sum::<usize>(), wl.requests.len());
        let summed: Dollars = out.per_shard.iter().map(|s| s.initial_cost).sum();
        assert!(
            (out.sorp.initial_cost - summed).abs() <= 1e-9 * summed.max(1.0),
            "aggregate initial cost must be the per-shard sum"
        );
    }

    #[test]
    fn external_occupancy_is_respected_across_shards() {
        let (topo, wl) = world(5.0, 6);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        // Permanently occupy most of one storage.
        let loc = topo.storages().next().expect("a storage exists");
        let external = vec![(
            loc,
            SpaceProfile { start: 0.0, full: 0.0, last: 1e7, end: 1e7, plateau: 4.5e9 },
        )];
        let cfg = ShardConfig::by_region(4);
        let out = shard_solve_seeded(&ctx, &wl.requests, &cfg, &external, ExecMode::Sequential);
        assert!(out.sorp.overflow_free);
        // Rebuild the ledger with the external occupancy and re-check.
        let mut ledger = StorageLedger::from_schedule(&topo, &wl.catalog, &out.sorp.schedule);
        ledger.add(loc, crate::EXTERNAL_OCCUPANCY, external[0].1);
        assert!(detect_overflows(&topo, &ledger).is_empty());
    }
}
