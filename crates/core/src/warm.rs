//! Cross-cycle warm start: persistent solver state for rolling-horizon
//! service.
//!
//! The rolling-horizon loop (`vod_experiments::cycles`) historically
//! threw away three expensive artifacts at every cycle boundary:
//!
//! * the **SORP trial cache** — per-video memoized reschedules with
//!   dependency traces;
//! * the **phase-1 pricing memos** — each video group's greedy schedule
//!   and its Ψ;
//! * the **committed-occupancy ledger** — rebuilt from the
//!   ever-growing flat `external` profile list on every cycle.
//!
//! [`WarmState`] keeps all three alive between
//! [`crate::shard_solve_warm`] calls. Validity rests on the same
//! machinery PR 4 built for *within*-solve reuse:
//!
//! * a carried trial or phase-1 memo is only ever consulted for a job
//!   whose request set is **exactly** the one the entry was derived from
//!   (checked at adoption time, the same request-invariance rule that
//!   makes the sharded solver drop split videos' entries);
//! * every carried trial re-enters a solve at epoch 0 with the solve's
//!   first [`crate::LedgerDelta`] covering both the previous cycle's
//!   final ledger footprint ([`WarmState`] records it at harvest) and
//!   the new solve's entire ledger footprint — so the standard lazy
//!   validation re-derives every admission answer that occupancy
//!   changes in *either* direction could have flipped, and a surviving
//!   entry replays bit-identically to the greedy re-run it saves;
//! * committed occupancy lives in an incrementally maintained
//!   [`StorageLedger`] under [`EXTERNAL_OCCUPANCY`]; profiles whose
//!   drain completed before the new cycle's window are evicted
//!   ([`StorageLedger::remove_drained`]) — they can no longer intersect
//!   any admission test of a batch whose reservations start inside the
//!   window, so eviction is invisible to every verdict.
//!
//! Accumulation is bounded: [`WarmState::begin_cycle`] evicts trial and
//! memo entries whose reservations all ended before the window, and the
//! per-video cache cap carries over unchanged. [`WarmStats`] counts
//! carried / evicted / revalidated / hit entries per cycle; the
//! rolling-horizon report surfaces it.

use crate::adaptive::ShardSelector;
use crate::sorp::{CachedTrial, SolveState};
use crate::{
    GreedyPolicy, LedgerDelta, PricedSchedule, SchedCtx, StorageLedger, EXTERNAL_OCCUPANCY,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use vod_cost_model::{Dollars, Request, RequestBatch, Schedule, Secs, VideoId, VideoSchedule};
use vod_parallel::{map_with_mode, ExecMode};
use vod_topology::{NodeId, Topology};

/// Per-cycle warm-start accounting, reset by [`WarmState::begin_cycle`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WarmStats {
    /// Trial-cache entries alive at the start of the cycle.
    pub trials_carried: usize,
    /// Trial-cache entries evicted this cycle: reservations ended before
    /// the window, or request set no longer matches the batch.
    pub trials_evicted: usize,
    /// Carried entries seeded into the solve (request set matched).
    pub trials_adopted: usize,
    /// Carried entries that survived delta validation and answered a
    /// trial job (each counted once, at first reuse).
    pub trials_revalidated: usize,
    /// Total trial jobs answered from cache this cycle (carried plus
    /// same-solve entries; the solver's `trials_cached`).
    pub trials_hit: usize,
    /// Phase-1 pricing memos alive at the start of the cycle.
    pub phase1_carried: usize,
    /// Phase-1 memos evicted (expired reservations).
    pub phase1_evicted: usize,
    /// Video groups priced straight from a carried memo this cycle.
    pub phase1_hits: usize,
    /// Committed occupancy profiles still active after eviction.
    pub committed_active: usize,
    /// Committed profiles evicted (drained before the window).
    pub committed_evicted: usize,
    /// Shard count the cycle ran with.
    pub shards_used: usize,
    /// Bytes of committed occupancy still held at the window start.
    pub spillover_bytes: f64,
    /// Wall-clock of the cycle's solve, nanoseconds (filled by callers
    /// that time the solve; 0 otherwise).
    pub solve_ns: u64,
}

impl WarmStats {
    /// Emit this snapshot as a `"warm"` flight-recorder event under the
    /// recorder's current cycle scope. `solve_ns` is deliberately NOT a
    /// field: it is wall clock, and event payloads stay deterministic —
    /// wall time only ever appears in the recorder's optional `wall_ns`
    /// side stamp (and in `WarmStats` itself for reports).
    pub fn record(&self, rec: &vod_obs::Recorder) {
        rec.event("warm", |e| {
            e.u64("trials_carried", self.trials_carried as u64)
                .u64("trials_evicted", self.trials_evicted as u64)
                .u64("trials_adopted", self.trials_adopted as u64)
                .u64("trials_revalidated", self.trials_revalidated as u64)
                .u64("trials_hit", self.trials_hit as u64)
                .u64("phase1_carried", self.phase1_carried as u64)
                .u64("phase1_evicted", self.phase1_evicted as u64)
                .u64("phase1_hits", self.phase1_hits as u64)
                .u64("committed_active", self.committed_active as u64)
                .u64("committed_evicted", self.committed_evicted as u64)
                .u64("shards_used", self.shards_used as u64)
                .f64("spillover_bytes", self.spillover_bytes);
        });
    }
}

/// One memoized phase-1 result: the greedy is a pure function of
/// `(requests, policy)` given a fixed context, so an exact match prices
/// the group without re-running it — bit-identically.
struct Phase1Memo {
    requests: Vec<Request>,
    policy: GreedyPolicy,
    vs: VideoSchedule,
    cost: Dollars,
}

/// Incrementally maintained cross-cycle occupancy: every committed
/// residency profile under [`EXTERNAL_OCCUPANCY`], with expired profiles
/// evicted at cycle boundaries instead of the ledger being rebuilt from
/// a flat list each cycle.
#[derive(Clone, Debug)]
pub struct CommittedBook {
    ledger: StorageLedger,
    /// Storages holding at least one committed profile, insertion order.
    touched: Vec<NodeId>,
    active: usize,
}

impl CommittedBook {
    /// An empty book over a topology.
    pub fn new(topo: &Topology) -> Self {
        Self { ledger: StorageLedger::new(topo), touched: Vec::new(), active: 0 }
    }

    /// The committed-occupancy ledger (external profiles only).
    pub fn ledger(&self) -> &StorageLedger {
        &self.ledger
    }

    /// Number of active committed profiles.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Commit one residency profile.
    pub fn commit(&mut self, loc: NodeId, profile: vod_cost_model::SpaceProfile) {
        if profile.peak() > 0.0 {
            if !self.touched.contains(&loc) {
                self.touched.push(loc);
            }
            self.ledger.add(loc, EXTERNAL_OCCUPANCY, profile);
            self.active += 1;
        }
    }

    /// Evict every profile fully drained by `t` and return the count.
    pub fn evict_expired(&mut self, t: Secs) -> usize {
        let mut evicted = 0;
        for &loc in &self.touched {
            evicted += self.ledger.remove_drained(loc, EXTERNAL_OCCUPANCY, t);
        }
        self.active -= evicted;
        evicted
    }

    /// Bytes of committed occupancy held at time `t`. Clamped at zero:
    /// timeline breakpoint arithmetic can leave a tiny negative residue
    /// where the true occupancy is exactly 0.
    pub fn spillover_at(&self, t: Secs) -> f64 {
        self.touched.iter().map(|&loc| self.ledger.usage_at(loc, t, None)).sum::<f64>().max(0.0)
    }

    /// Every active `(storage, profile)` pair, in commit order per node.
    pub fn profiles(&self) -> impl Iterator<Item = (NodeId, vod_cost_model::SpaceProfile)> + '_ {
        self.touched
            .iter()
            .flat_map(move |&loc| self.ledger.profiles_at(loc).iter().map(move |&(_, p)| (loc, p)))
    }
}

/// Persistent solver state carried across rolling-horizon cycles. See
/// the module docs for the validity argument.
pub struct WarmState {
    /// Carried trial-cache entries, per video.
    pub(crate) trials: HashMap<VideoId, Vec<CachedTrial>>,
    /// Carried phase-1 pricing memos, per video. A video keeps one memo
    /// per distinct request subset it was priced with (a video split
    /// across shards is priced per shard subset), so the list stays
    /// bounded by the shard count plus the monolithic grouping.
    phase1: HashMap<VideoId, Vec<Phase1Memo>>,
    /// Committed cross-cycle occupancy.
    committed: CommittedBook,
    /// Footprint of the previous cycle's final ledger: everywhere a
    /// carried trial's last-known ledger held occupancy. Unioned into
    /// every new solve's first delta so validation covers occupancy
    /// *removals* as well as additions.
    pub(crate) dirty: LedgerDelta,
    /// The adaptive shard-count selector (used only when the caller opts
    /// in; carrying it here lets its online calibration persist exactly
    /// as long as the rest of the warm state).
    pub selector: ShardSelector,
    /// Current cycle's accounting.
    pub stats: WarmStats,
}

impl WarmState {
    /// Fresh warm state with the bench-seeded [`ShardSelector`].
    pub fn new(topo: &Topology) -> Self {
        Self::with_selector(topo, ShardSelector::seeded_from_bench())
    }

    /// Fresh warm state with an explicit selector.
    pub fn with_selector(topo: &Topology, selector: ShardSelector) -> Self {
        Self {
            trials: HashMap::new(),
            phase1: HashMap::new(),
            committed: CommittedBook::new(topo),
            dirty: LedgerDelta::new(),
            selector,
            stats: WarmStats::default(),
        }
    }

    /// The committed cross-cycle occupancy.
    pub fn committed(&self) -> &CommittedBook {
        &self.committed
    }

    /// Open a new cycle whose reservations start at `window_start`:
    /// reset the per-cycle stats, evict committed profiles that drained
    /// before the window, and evict trial/memo entries whose
    /// reservations all ended before it (they can never match a batch
    /// in this or any later window).
    pub fn begin_cycle(&mut self, ctx: &SchedCtx<'_>, window_start: Secs) {
        let carried_trials: usize = self.trials.values().map(Vec::len).sum();
        let carried_memos: usize = self.phase1.values().map(Vec::len).sum();
        self.stats = WarmStats {
            trials_carried: carried_trials,
            phase1_carried: carried_memos,
            ..WarmStats::default()
        };

        let ended = |r: &Request| r.start + ctx.catalog.get(r.video).playback <= window_start;
        let mut evicted = 0;
        self.trials.retain(|_, list| {
            list.retain(|e| {
                let keep = !e.new_vs.delivered().all(|r| ended(&r));
                evicted += usize::from(!keep);
                keep
            });
            !list.is_empty()
        });
        self.stats.trials_evicted += evicted;
        let mut memos_evicted = 0;
        self.phase1.retain(|_, list| {
            list.retain(|m| {
                let keep = !m.requests.iter().all(ended);
                memos_evicted += usize::from(!keep);
                keep
            });
            !list.is_empty()
        });
        self.stats.phase1_evicted += memos_evicted;

        self.stats.committed_evicted = self.committed.evict_expired(window_start);
        self.stats.committed_active = self.committed.active();
        self.stats.spillover_bytes = self.committed.spillover_at(window_start);
    }

    /// Phase 1 over one shard's batch with the carried memo: groups whose
    /// request set (and policy) match a memo are priced from it
    /// bit-identically; the misses fan out through the standard greedy
    /// and refresh the memo. Output is identical to
    /// [`crate::ivsp_solve_priced_with`] on the same batch.
    pub(crate) fn phase1_warm(
        &mut self,
        ctx: &SchedCtx<'_>,
        batch: &RequestBatch,
        policy: GreedyPolicy,
        mode: ExecMode,
    ) -> PricedSchedule {
        let groups: Vec<_> = batch.groups().collect();
        let mut pairs: Vec<Option<(VideoSchedule, Dollars)>> = Vec::with_capacity(groups.len());
        let mut misses: Vec<usize> = Vec::new();
        for (gi, (vid, group)) in groups.iter().enumerate() {
            let hit = self
                .phase1
                .get(vid)
                .and_then(|list| {
                    list.iter().find(|m| m.policy == policy && m.requests.as_slice() == *group)
                })
                .map(|m| (m.vs.clone(), m.cost));
            match hit {
                Some(priced) => {
                    self.stats.phase1_hits += 1;
                    pairs.push(Some(priced));
                }
                None => {
                    misses.push(gi);
                    pairs.push(None);
                }
            }
        }
        let fresh = map_with_mode(mode, &misses, |&gi| {
            let (_, group) = groups[gi];
            let vs = crate::find_video_schedule_with(ctx, group, policy);
            let cost = ctx.video_cost(&vs);
            (vs, cost)
        });
        for (&gi, (vs, cost)) in misses.iter().zip(fresh) {
            let (vid, group) = groups[gi];
            let list = self.phase1.entry(vid).or_default();
            list.retain(|m| m.requests.as_slice() != group);
            list.push(Phase1Memo { requests: group.to_vec(), policy, vs: vs.clone(), cost });
            pairs[gi] = Some((vs, cost));
        }
        PricedSchedule::from_priced_videos(
            pairs
                .into_iter()
                .zip(&groups)
                .map(|(p, &(_, group))| {
                    // Every slot was filled above (memo hit or fresh
                    // greedy). If the invariant ever breaks, re-running
                    // the pure greedy is bit-identical to the missing
                    // fill — degrade to that instead of panicking under
                    // the service loop.
                    p.unwrap_or_else(|| {
                        let vs = crate::find_video_schedule_with(ctx, group, policy);
                        let cost = ctx.video_cost(&vs);
                        (vs, cost)
                    })
                })
                .collect(),
        )
    }

    /// Remove and return the carried trial entries that may legally seed
    /// a solve over `batch`: only entries whose recorded request set
    /// exactly matches the batch's group for that video (the cache's
    /// request-invariance precondition). Non-matching entries for
    /// batched videos are dropped — `take_cached` performs no request
    /// check, so they must never become reachable. Entries for videos
    /// outside the batch stay carried.
    pub(crate) fn take_matching_trials(
        &mut self,
        batch: &RequestBatch,
    ) -> HashMap<VideoId, Vec<CachedTrial>> {
        let mut adopted: HashMap<VideoId, Vec<CachedTrial>> = HashMap::new();
        for (vid, group) in batch.groups() {
            let Some(mut list) = self.trials.remove(&vid) else { continue };
            let before = list.len();
            // A trial is a greedy output, so its deliveries are already in
            // the group's (start, user) order.
            list.retain(|e| e.new_vs.delivered().eq(group.iter().copied()));
            self.stats.trials_evicted += before - list.len();
            self.stats.trials_adopted += list.len();
            if !list.is_empty() {
                adopted.insert(vid, list);
            }
        }
        adopted
    }

    /// Seed a fresh [`SolveState`] with carried trials: install the
    /// cross-cycle validation delta (previous final ledger footprint ∪
    /// the state's current ledger footprint) as the state's first delta
    /// and adopt the entries at epoch 0 against it. Must run before the
    /// state commits anything. Bans are *not* carried — a cold solve
    /// starts unconstrained, and the equivalence oracle requires the
    /// warm solve to search the same space.
    pub(crate) fn seed_state(
        &mut self,
        state: &mut SolveState,
        trials: HashMap<VideoId, Vec<CachedTrial>>,
    ) {
        debug_assert!(state.deltas.is_empty(), "seed_state must precede any commit");
        let mut delta = state.ledger.span_delta();
        delta.merge(&self.dirty);
        state.deltas = vec![delta];
        let mut trials = trials;
        for list in trials.values_mut() {
            for e in list.iter_mut() {
                e.carried = true;
            }
        }
        state.adopt(trials, HashMap::new());
    }

    /// Close the cycle: reclaim the final solve state's trial cache
    /// (every entry becomes a carried one), record the final ledger
    /// footprint for next cycle's validation delta, and aggregate the
    /// carried-entry reuse counter.
    pub(crate) fn harvest(&mut self, state: &mut SolveState) {
        self.stats.trials_revalidated += state.carried_revalidated;
        self.stats.trials_hit += state.trials_cached;
        self.dirty = state.ledger.span_delta();
        for (vid, list) in state.cache.drain() {
            // Replaces any leftover entries for the video: the solve's
            // final cache is strictly fresher.
            self.trials.insert(vid, list);
        }
    }

    /// Commit the cycle's resolved schedule into the book so later
    /// cycles see its occupancy. `stats.committed_active` deliberately
    /// keeps its begin-of-cycle value: it counts *carried* occupancy,
    /// not this cycle's own output.
    pub fn absorb_schedule(&mut self, ctx: &SchedCtx<'_>, schedule: &Schedule) {
        for r in schedule.residencies() {
            self.committed.commit(r.loc, r.profile(ctx.catalog.get(r.video)));
        }
    }

    /// Commit the residencies of `videos` from a *repaired* schedule on
    /// top of an already-absorbed pre-repair schedule. The pre-repair
    /// residencies of the repaired videos stay committed too — a
    /// conservative over-commitment (the service loop would rather
    /// over-reserve than let a later cycle squat on space a repair moved
    /// away from), bounded because expired profiles are evicted at every
    /// cycle boundary.
    pub fn absorb_repaired(&mut self, ctx: &SchedCtx<'_>, schedule: &Schedule, videos: &[VideoId]) {
        for &vid in videos {
            let Some(vs) = schedule.video(vid) else { continue };
            for r in &vs.residencies {
                self.committed.commit(r.loc, r.profile(ctx.catalog.get(r.video)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_cost_model::{CostModel, SpaceProfile};
    use vod_topology::{builders, units};
    use vod_workload::{CatalogConfig, RequestConfig, Workload};

    fn world(seed: u64) -> (vod_topology::Topology, Workload) {
        let cfg = builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() };
        let topo = builders::paper_fig4(&cfg);
        let wl =
            Workload::generate(&topo, &CatalogConfig::small(60), &RequestConfig::paper(), seed);
        (topo, wl)
    }

    #[test]
    fn committed_book_commits_and_evicts() {
        let (topo, _) = world(1);
        let mut book = CommittedBook::new(&topo);
        let loc = topo.storages().next().expect("a storage");
        let early = SpaceProfile::new(0.0, 5_000.0, units::gb(2.0), 1_000.0);
        let late = SpaceProfile::new(80_000.0, 100_000.0, units::gb(1.0), 1_000.0);
        book.commit(loc, early);
        book.commit(loc, late);
        // Degenerate profiles are ignored.
        book.commit(loc, SpaceProfile::new(5.0, 5.0, units::gb(2.0), 1_000.0));
        assert_eq!(book.active(), 2);
        assert!(book.spillover_at(1_000.0) > 0.0);
        // The early profile (end 6 000) drains before t = 50 000.
        assert_eq!(book.evict_expired(50_000.0), 1);
        assert_eq!(book.active(), 1);
        assert_eq!(book.profiles().count(), 1);
        assert_eq!(book.spillover_at(1_000.0), 0.0, "evicted profile holds nothing");
        assert!(book.spillover_at(90_000.0) > 0.0);
    }

    #[test]
    fn phase1_memo_hits_are_bit_identical() {
        let (topo, wl) = world(2);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let mut warm = WarmState::new(&topo);
        let policy = GreedyPolicy::default();
        let cold = crate::ivsp_solve_priced_with(&ctx, &wl.requests, policy, ExecMode::Sequential);
        let first = warm.phase1_warm(&ctx, &wl.requests, policy, ExecMode::Sequential);
        assert_eq!(warm.stats.phase1_hits, 0);
        assert_eq!(first.total().to_bits(), cold.total().to_bits());
        assert!(first.schedule() == cold.schedule());
        // Second pass over the identical batch: all hits, same bits.
        let again = warm.phase1_warm(&ctx, &wl.requests, policy, ExecMode::Sequential);
        assert_eq!(warm.stats.phase1_hits, wl.requests.groups().count());
        assert_eq!(again.total().to_bits(), cold.total().to_bits());
        assert!(again.schedule() == cold.schedule());
        // A different policy must miss (the memo keys on it).
        let local = GreedyPolicy { allow_remote_placement: false, ..GreedyPolicy::default() };
        warm.stats = WarmStats::default();
        let _ = warm.phase1_warm(&ctx, &wl.requests, local, ExecMode::Sequential);
        assert_eq!(warm.stats.phase1_hits, 0, "policy change must invalidate memos");
    }

    #[test]
    fn begin_cycle_evicts_expired_entries_only() {
        let (topo, wl) = world(3);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let mut warm = WarmState::new(&topo);
        let policy = GreedyPolicy::default();
        let _ = warm.phase1_warm(&ctx, &wl.requests, policy, ExecMode::Sequential);
        let memos = warm.phase1.len();
        assert!(memos > 0);
        // A window starting before any reservation ends keeps them all…
        warm.begin_cycle(&ctx, 0.0);
        assert_eq!(warm.stats.phase1_carried, memos);
        assert_eq!(warm.stats.phase1_evicted, 0);
        // …and one far past every drain evicts every entry.
        warm.begin_cycle(&ctx, 1e9);
        assert_eq!(warm.stats.phase1_evicted, memos);
        assert!(warm.phase1.is_empty());
    }
}
