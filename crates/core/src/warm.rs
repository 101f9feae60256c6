//! Cross-cycle warm start: the state [`crate::ServiceLoop`] keeps
//! between cycles.
//!
//! What crosses a cycle boundary is the **committed occupancy** and
//! nothing else: every residency profile of every earlier cycle's
//! schedule as it shipped — absorbed once, after fault repair
//! ([`CommittedBook::absorb_solved`]) — in an incrementally maintained
//! [`StorageLedger`] under [`EXTERNAL_OCCUPANCY`] ([`CommittedBook`]),
//! instead of a flat profile list re-added on every cycle. Profiles
//! whose drain completed before the new cycle's window are evicted
//! ([`StorageLedger::remove_drained`]) — they can no longer intersect
//! any admission test of a batch whose reservations start inside the
//! window, so eviction is invisible to every verdict. A cycle's solve
//! reads the book as its base ledger and is otherwise the cold solve:
//! an empty book *is* the cold path. The commit takes back, retagged,
//! every row the finished state never committed on, instead of adding
//! the same residencies to the book a second time.
//!
//! The SORP trial cache does **not** cross the boundary. A memoized
//! trial may only answer a job over exactly the request set it was
//! derived from, and the service loop never re-solves a request: every
//! window drains a fresh batch, and a deferred request has its start
//! re-stamped into the later window. Carried entries
//! were adopted 0 times on every service workload (EXPERIMENTS.md), so
//! the carry is gone and the trial counters in [`WarmStats`] read 0.

use crate::capacity::Solved;
use crate::{SchedCtx, StorageLedger, EXTERNAL_OCCUPANCY};
use serde::{Deserialize, Serialize};
use vod_cost_model::{Schedule, Secs};
use vod_topology::{NodeId, Topology};

/// Per-cycle warm-start accounting, filled by
/// [`crate::ServiceLoop::run_cycle`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WarmStats {
    /// Always 0, like the three fields below: nothing they counted
    /// exists any more (no trial is carried across a cycle boundary, and
    /// the phase-1 pricing memo never hit on a service workload). The
    /// four stay only because the frozen benchmark harness reads them;
    /// drop them with the next benchmark revision.
    pub trials_carried: usize,
    /// Always 0, see [`WarmStats::trials_carried`].
    pub trials_adopted: usize,
    /// Always 0, see [`WarmStats::trials_carried`].
    pub trials_revalidated: usize,
    /// Always 0, see [`WarmStats::trials_carried`].
    pub phase1_hits: usize,
    /// Trial jobs scored without a greedy run this cycle — a standing
    /// trial or a cache hit (the solver's `trials_cached`).
    pub trials_hit: usize,
    /// Committed occupancy profiles still active after eviction: what
    /// the cycle carries, not its own output.
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
            e.u64("trials_hit", self.trials_hit as u64)
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
}

impl CommittedBook {
    /// An empty book over a topology.
    pub fn new(topo: &Topology) -> Self {
        Self { ledger: StorageLedger::new(topo), touched: Vec::new() }
    }

    /// The committed-occupancy ledger (external profiles only).
    pub fn ledger(&self) -> &StorageLedger {
        &self.ledger
    }

    /// Number of active committed profiles.
    pub fn active(&self) -> usize {
        self.touched.iter().map(|&loc| self.ledger.profile_count(loc)).sum()
    }

    /// Commit one residency profile.
    pub fn commit(&mut self, loc: NodeId, profile: vod_cost_model::SpaceProfile) {
        if profile.peak() > 0.0 {
            self.touch(loc);
            self.ledger.add(loc, EXTERNAL_OCCUPANCY, profile);
        }
    }

    fn touch(&mut self, loc: NodeId) {
        if !self.touched.contains(&loc) {
            self.touched.push(loc);
        }
    }

    /// Commit a cycle's shipped schedule, so later cycles see its
    /// occupancy.
    pub fn absorb(&mut self, ctx: &SchedCtx<'_>, schedule: &Schedule) {
        self.absorb_solved(ctx, schedule, None);
    }

    /// [`CommittedBook::absorb`] given the solve's ledger (this book plus
    /// the schedule) and dirty rows: a clean row it wrote is taken over,
    /// retagged, in place of the same adds (DESIGN.md §11.3).
    pub(crate) fn absorb_solved(
        &mut self,
        ctx: &SchedCtx<'_>,
        schedule: &Schedule,
        solved: Option<Solved>,
    ) {
        let rebuild = solved.map(|s| self.ledger.take_rows(vec![s], Some(EXTERNAL_OCCUPANCY)));
        for r in schedule.residencies() {
            let profile = r.profile(ctx.catalog.get(r.video));
            if rebuild.as_ref().is_none_or(|d: &Vec<bool>| d[r.loc.index()]) {
                self.commit(r.loc, profile);
            } else if profile.peak() > 0.0 {
                self.touch(r.loc);
            }
        }
    }

    /// Evict every profile fully drained by `t` and return the count.
    pub fn evict_expired(&mut self, t: Secs) -> usize {
        let ledger = &mut self.ledger;
        self.touched.iter().map(|&loc| ledger.remove_drained(loc, EXTERNAL_OCCUPANCY, t)).sum()
    }

    /// Bytes of committed occupancy held at time `t`. Clamped at zero:
    /// timeline breakpoint arithmetic can leave a tiny negative residue
    /// where the true occupancy is exactly 0.
    pub fn spillover_at(&self, t: Secs) -> f64 {
        self.touched.iter().map(|&loc| self.ledger.usage_at(loc, t, None)).sum::<f64>().max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_cost_model::SpaceProfile;
    use vod_topology::{builders, units};

    #[test]
    fn committed_book_commits_and_evicts() {
        let cfg = builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() };
        let topo = builders::paper_fig4(&cfg);
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
        assert_eq!(book.ledger().profile_count(loc), 1);
        assert_eq!(book.spillover_at(1_000.0), 0.0, "evicted profile holds nothing");
        assert!(book.spillover_at(90_000.0) > 0.0);
    }
}
