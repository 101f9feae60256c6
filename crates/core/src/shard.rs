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
//!    and seeded with one [`crate::LedgerDelta`] covering the global
//!    ledger's whole footprint ([`crate::StorageLedger::span_delta`]),
//!    so transplanted trial-cache entries (epoch 0) lazily re-validate
//!    against the occupancy the *other* shards contributed — the
//!    conflict-detection machinery of [`crate::sorp_solve_priced`]
//!    reused across shard boundaries. The delta only selects which
//!    entries are re-checked; the re-check itself is exact, so any
//!    delta covering the foreign occupancy keeps the same survivors;
//! 3. cross-shard capacity overflows (storages individually feasible
//!    per shard but jointly over capacity) are detected by the standard
//!    scan and resolved by one bounded global SORP pass whose victim
//!    loop starts from the per-shard outcomes: surviving trials replay
//!    instead of re-running the greedy, and per-shard bans carry over.
//!
//! ## Determinism and equivalence contract
//!
//! * The partition is a pure function of `(batch, spec)`; the map over
//!   shards in `solve_over` is the one fan-out of the whole solve — the
//!   only place this crate reads an [`ExecMode`] — each shard's IVSP and
//!   resolution run on the thread that picked the shard up, and the
//!   global pass runs on the caller's — so the sharded output is
//!   **bit-identical across runs** in both [`ExecMode`]s, and
//!   `shards = 1` (or a 1-region batch) *is* the monolith: its output is
//!   bit-identical to [`crate::sorp_solve_priced`] over
//!   [`ivsp_solve_priced_with`] on the whole batch.
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

use crate::sorp::SolveState;
use crate::{
    detect_overflows, ivsp_solve_priced_with, PricedSchedule, SchedCtx, SorpConfig, SorpOutcome,
    StorageLedger,
};
use serde::{Deserialize, Serialize};
use vod_cost_model::{Dollars, RequestBatch};
use vod_parallel::{map_with_mode, ExecMode};
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
    /// Effective shard count after clamping.
    pub shards: usize,
    /// Per-shard diagnostics.
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

/// What the pipeline body hands back: the batch's final [`SolveState`]
/// and the shard-level diagnostics of [`ShardOutcome`].
pub(crate) struct ShardSolve {
    pub(crate) state: SolveState,
    pub(crate) shards: usize,
    per_shard: Vec<ShardStats>,
    split_videos: usize,
    shared_storages: usize,
    cross_shard_overflows: usize,
    reconcile_iterations: usize,
    reconcile_victims: usize,
    trials_transplanted: usize,
}

impl ShardSolve {
    /// Emit this solve as a `"shard_solve"` flight-recorder event under
    /// the recorder's current cycle scope: sharding shape, SORP work
    /// counters, and cache-reuse totals — every decision input the
    /// issue's debugging scenarios need.
    fn record(&self, ctx: &SchedCtx<'_>, requests: usize) {
        let s = &self.state;
        ctx.recorder.event("shard_solve", |e| {
            e.u64("shards", self.shards as u64)
                .u64("requests", requests as u64)
                .u64("split_videos", self.split_videos as u64)
                .u64("shared_storages", self.shared_storages as u64)
                .u64("cross_shard_overflows", self.cross_shard_overflows as u64)
                .u64("reconcile_iterations", self.reconcile_iterations as u64)
                .u64("reconcile_victims", self.reconcile_victims as u64)
                .u64("trials_transplanted", self.trials_transplanted as u64)
                .u64("iterations", s.iterations as u64)
                .u64("victims", s.victims.len() as u64)
                .u64("forced_fallbacks", s.forced_fallbacks as u64)
                .u64("trials_run", s.trials_run as u64)
                .u64("trials_cached", s.trials_cached as u64)
                .u64("nodes_rescanned", s.nodes_rescanned as u64)
                .bool("overflow_free", detect_overflows(ctx.topo, &s.ledger).is_empty())
                .f64("cost", s.priced.total())
                .f64("initial_cost", s.initial_cost);
        });
    }

    /// Finish the state and package the outcome.
    pub(crate) fn finish(self, ctx: &SchedCtx<'_>) -> ShardOutcome {
        ShardOutcome {
            sorp: self.state.into_outcome(ctx),
            shards: self.shards,
            per_shard: self.per_shard,
            split_videos: self.split_videos,
            shared_storages: self.shared_storages,
            cross_shard_overflows: self.cross_shard_overflows,
            reconcile_iterations: self.reconcile_iterations,
            reconcile_victims: self.reconcile_victims,
            trials_transplanted: self.trials_transplanted,
        }
    }
}

/// Solve one cycle's batch with the sharded two-phase pipeline. `mode`
/// says how the map over shards runs, and nothing else: every solve
/// inside it stays on the thread that took the shard.
pub fn shard_solve(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    cfg: &ShardConfig,
    mode: ExecMode,
) -> ShardOutcome {
    shard_solve_seeded(ctx, batch, cfg, &StorageLedger::new(ctx.topo), mode)
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
    mode: ExecMode,
) -> ShardOutcome {
    solve_over(ctx, batch, cfg, base, mode).finish(ctx)
}

/// The pipeline body: partition, per-shard IVSP + resolution over a
/// clone of `base`, then — unless one shard took the whole batch —
/// cross-shard reconciliation.
pub(crate) fn solve_over(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    cfg: &ShardConfig,
    base: &StorageLedger,
    mode: ExecMode,
) -> ShardSolve {
    let spec = ShardSpec { shards: cfg.shards, strategy: cfg.strategy, seed: cfg.seed };
    let batches = partition_requests(ctx.topo, batch, &spec);

    // Per-shard pipeline: IVSP then a full resolution pass. The shard
    // is the independent unit of work (the paper's region); this map is
    // the solve's one fan-out, and a one-item map runs inline.
    let states = map_with_mode(mode, &batches, |shard_batch| {
        let priced =
            ivsp_solve_priced_with(ctx, shard_batch, cfg.sorp.policy, ExecMode::Sequential);
        let mut state = SolveState::new(ctx, priced, base.clone());
        state.resolve(ctx, &cfg.sorp);
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

    // One shard is the monolithic pipeline verbatim: its state (and its
    // delta-accumulated running total) is the outcome, bit-identical to
    // `sorp_solve_priced` on the whole batch. The array pattern proves
    // the shard exists — no panic path.
    let out = match <[SolveState; 1]>::try_from(states) {
        Ok([state]) => ShardSolve {
            state,
            shards: 1,
            per_shard,
            split_videos: 0,
            shared_storages: 0,
            cross_shard_overflows: 0,
            reconcile_iterations: 0,
            reconcile_victims: 0,
            trials_transplanted: 0,
        },
        Err(states) => reconcile(ctx, cfg, base, states, per_shard),
    };
    out.record(ctx, batch.len());
    out
}

/// Merge the resolved shard states and run the global pass over them.
fn reconcile(
    ctx: &SchedCtx<'_>,
    cfg: &ShardConfig,
    base: &StorageLedger,
    states: Vec<SolveState>,
    per_shard: Vec<ShardStats>,
) -> ShardSolve {
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

    // Tear the shard states apart: schedules merge, caches and bans
    // transplant, counters aggregate.
    let mut parts = Vec::with_capacity(states.len());
    let mut handovers = Vec::with_capacity(states.len());
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
        handovers.push((s.cache, s.forbidden));
        parts.push(s.priced);
    }

    // The merge meets every video of every shard once, so it also knows
    // which ones landed in several.
    let (merged, split) = PricedSchedule::merge(parts);
    let mut global = SolveState::new(ctx, merged, base.clone());

    // One delta covering the global ledger's whole footprint (merged
    // residencies and the base occupancy): transplanted entries
    // re-validate against it on first lookup, which is exactly "did any
    // *other* shard's occupancy flip one of my recorded admission
    // answers?".
    global.deltas = vec![global.ledger.span_delta()];

    let mut trials_transplanted = 0;
    for (mut cache, forbidden) in handovers {
        // A split video's per-shard request set is a strict subset of
        // its global one, so its memoized trials violate the cache's
        // request-invariance assumption in the merged state: drop them.
        // Unsplit videos' entries carry over and re-validate lazily.
        cache.retain(|vid, _| split.binary_search(vid).is_err());
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
    global.jobs_rebuilt = jobs_rebuilt;
    global.nodes_rescanned = nodes_rescanned;
    global.victims = victims;

    let victims_before = global.victims.len();
    let iters_before = global.iterations;
    global.resolve(ctx, &cfg.sorp);
    let reconcile_iterations = global.iterations - iters_before;
    let reconcile_victims = global.victims.len() - victims_before;

    ShardSolve {
        state: global,
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

#[cfg(test)]
mod tests {
    use super::*;
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
        let out = shard_solve_seeded(&ctx, &wl.requests, &cfg, &base, ExecMode::Sequential);
        assert!(out.sorp.overflow_free);
        // Rebuild the ledger with the external occupancy and re-check.
        let mut ledger = StorageLedger::from_schedule(&topo, &wl.catalog, &out.sorp.schedule);
        ledger.add(loc, crate::EXTERNAL_OCCUPANCY, squatter);
        assert!(detect_overflows(&topo, &ledger).is_empty());
    }
}
