//! Cross-cycle warm start: persistent solver state for rolling-horizon
//! service.
//!
//! The rolling-horizon loop (`vod_experiments::cycles`) historically
//! threw away two expensive artifacts at every cycle boundary:
//!
//! * the **SORP trial cache** — per-video memoized reschedules with
//!   dependency traces;
//! * the **committed-occupancy ledger** — rebuilt from the
//!   ever-growing flat `external` profile list on every cycle.
//!
//! [`WarmState`] keeps both alive between
//! [`crate::shard_solve_warm`] calls. Validity rests on the same
//! machinery PR 4 built for *within*-solve reuse:
//!
//! * a carried trial is only ever consulted for a job whose request
//!   set is **exactly** the one the entry was derived from
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
//! Accumulation is bounded: [`WarmState::begin_cycle`] evicts trial
//! entries whose reservations all ended before the window, and the
//! per-video cache cap carries over unchanged. [`WarmStats`] counts
//! carried / evicted / revalidated / hit entries per cycle; the
//! rolling-horizon report surfaces it.

use crate::adaptive::ShardSelector;
use crate::sorp::{CachedTrial, SolveState};
use crate::{LedgerDelta, SchedCtx, StorageLedger, EXTERNAL_OCCUPANCY};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use vod_cost_model::{Request, RequestBatch, Schedule, Secs, VideoId};
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
    /// Always 0: the phase-1 pricing memo it counted hits of never hit
    /// on a service workload and is gone. The field stays only because
    /// the frozen benchmark harness reads it; drop it with the next
    /// benchmark revision.
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
                .u64("committed_active", self.committed_active as u64)
                .u64("committed_evicted", self.committed_evicted as u64)
                .u64("shards_used", self.shards_used as u64)
                .f64("spillover_bytes", self.spillover_bytes);
        });
    }
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
    /// before the window, and evict trial entries whose
    /// reservations all ended before it (they can never match a batch
    /// in this or any later window).
    pub fn begin_cycle(&mut self, ctx: &SchedCtx<'_>, window_start: Secs) {
        let carried_trials: usize = self.trials.values().map(Vec::len).sum();
        self.stats = WarmStats { trials_carried: carried_trials, ..WarmStats::default() };

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

        self.stats.committed_evicted = self.committed.evict_expired(window_start);
        self.stats.committed_active = self.committed.active();
        self.stats.spillover_bytes = self.committed.spillover_at(window_start);
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
    fn begin_cycle_evicts_expired_entries_only() {
        let (topo, wl) = world(3);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let mut warm = WarmState::new(&topo);
        let cfg = crate::ShardConfig::default();
        let mode = vod_parallel::ExecMode::Sequential;
        let _ = crate::shard_solve_warm(&ctx, &wl.requests, &cfg, &mut warm, 0.0, mode);
        let carried: usize = warm.trials.values().map(Vec::len).sum();
        assert!(carried > 0, "5 GB stores must leave trials to carry");
        // A window starting before any reservation ends keeps them all…
        warm.begin_cycle(&ctx, 0.0);
        assert_eq!(warm.stats.trials_carried, carried);
        assert_eq!(warm.stats.trials_evicted, 0);
        // …and one far past every drain evicts every entry.
        warm.begin_cycle(&ctx, 1e9);
        assert_eq!(warm.stats.trials_evicted, carried);
        assert!(warm.trials.is_empty());
    }
}
