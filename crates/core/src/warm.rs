//! Cross-cycle state: what [`crate::ServiceLoop`] keeps between cycles.
//!
//! Two things cross a cycle boundary, and the [`CommittedBook`] keeps
//! both:
//!
//! * **The committed occupancy.** Every residency profile of every
//!   earlier cycle's schedule as it shipped — absorbed once, after fault
//!   repair ([`CommittedBook::absorb_solved`]) — sits in an incrementally
//!   maintained [`StorageLedger`] under [`EXTERNAL_OCCUPANCY`]. Profiles
//!   whose drain completed before the new cycle's window are evicted
//!   ([`StorageLedger::remove_drained`]): they can no longer intersect any
//!   admission test of a batch whose reservations start inside the
//!   window, so eviction is invisible to every verdict. A cycle's solve
//!   reads the book as its base ledger; an empty book *is* the cold path.
//!   The commit takes back, retagged, every row the finished state never
//!   committed on, instead of adding the same residencies a second time.
//! * **The held copies.** At its commit a cycle may keep a shipped copy
//!   whole until the next commit instead of letting it drain after its
//!   last service: the residency's last service moves to the commit
//!   instant, the cycle pays the extension and ships it. The next cycle's
//!   greedy starts every run of the video from the copy ([`HeldCopies`]),
//!   so a request there can extend it as an existing cache (the paper's
//!   Algorithm 1, option (b)) instead of fetching the title again. Such a
//!   continuation is a *carried* residency
//!   ([`vod_cost_model::Residency::carried`]): it holds and costs only what
//!   it adds to the held copy, whose own profile stays in the book and
//!   drains from the commit on whatever happens — so capacity is counted
//!   once, and no resolution pass can victimise a copy already paid for.
//!
//! The hold rule weighs dollars against dollars. A copy of video `v` at
//! storage `m` is held when `use · fill > price`: `price` is the greedy's
//! own extension cost to the next commit (`srate · size · (T − t_f)` for
//! a whole copy), `fill` the network cost of the copy's fill transfer up
//! to `m`, and `use` an exponential average over windows of whether the
//! window shipped a copy of `v` at `m`. A copy is held only when it is
//! whole at its last service `t_f` (a continuation, or one that served a
//! playback or more after its fill), when what the hold adds — the
//! occupancy of a continuation from `t_f` to `T` — fits the solve's
//! ledger (book plus schedule) twice over, and when no outage at `m`
//! overlaps `[t_f, T + P)`. Twice over, because a hold that fills its
//! store takes the store from the next window's first placements: the
//! resolution work and reschedules that displacement causes are not in
//! the rule's price, so a hold must leave room for one more copy of its
//! title. Where a store holds a single title, nothing is held.
//!
//! The SORP trial cache does **not** cross the boundary. A memoized
//! trial may only answer a job over exactly the request set it was
//! derived from, and the service loop never re-solves a request: every
//! window drains a fresh batch, and a deferred request has its start
//! re-stamped into the later window. Carried entries
//! were adopted 0 times on every service workload (EXPERIMENTS.md), so
//! the carry is gone and the trial counters in [`WarmStats`] read 0.

use crate::capacity::{LedgerCursor, Solved};
use crate::greedy::extension;
use crate::shard::solve_over;
use crate::{SchedCtx, ShardConfig, ShardOutcome, StorageLedger, EXTERNAL_OCCUPANCY};
use serde::{Deserialize, Serialize};
use vod_cost_model::{Dollars, RequestBatch, Residency, Schedule, Secs, SpaceProfile, VideoId};
use vod_faults::FaultPlan;
use vod_topology::{NodeId, Topology};

/// Weight of the latest window in a (video, storage)'s use average.
const USE_ALPHA: f64 = 0.5;

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
    /// Copies this cycle's commit held for the next cycle.
    pub held: usize,
    /// Copies the previous commit held that this cycle's schedule
    /// continued (its inherited copies): `held_used / held` of the
    /// cycle before is the hold hit rate.
    pub held_used: usize,
    /// Bytes of the copies this cycle's commit held.
    pub held_bytes: f64,
    /// Wall-clock of the cycle's solve, nanoseconds (filled by callers
    /// that time the solve; 0 otherwise).
    pub solve_ns: u64,
}

impl WarmStats {
    /// Emit this snapshot as a `"warm"` flight-recorder event under the
    /// recorder's current cycle scope. `solve_ns` is deliberately NOT a
    /// field: it is wall clock, and recordings stay deterministic — wall
    /// time only ever appears in `WarmStats` itself, for reports.
    pub fn record(&self, rec: &vod_obs::Recorder) {
        rec.event("warm", |e| {
            e.u64("trials_hit", self.trials_hit as u64)
                .u64("committed_active", self.committed_active as u64)
                .u64("committed_evicted", self.committed_evicted as u64)
                .u64("shards_used", self.shards_used as u64)
                .f64("spillover_bytes", self.spillover_bytes)
                .u64("held", self.held as u64)
                .u64("held_used", self.held_used as u64)
                .f64("held_bytes", self.held_bytes);
        });
    }
}

/// The copies an earlier cycle held for the cycle being solved, by video
/// and then storage, each as it shipped: its last service is the commit
/// instant it was held to. A greedy run of a video starts from the
/// video's ([`HeldCopies::of`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct HeldCopies(Vec<Residency>);

impl HeldCopies {
    /// The copies of `video`, by storage.
    pub(crate) fn of(&self, video: VideoId) -> &[Residency] {
        let lo = self.0.partition_point(|r| r.video < video);
        let n = self.0[lo..].partition_point(|r| r.video == video);
        &self.0[lo..lo + n]
    }

    /// The copy of `video` held at `loc`, if any.
    pub(crate) fn at(&self, video: VideoId, loc: NodeId) -> Option<&Residency> {
        self.of(video).iter().find(|r| r.loc == loc)
    }

    /// Give each copy to one of `batches`, so that no two runs of a video
    /// split across shards continue the same copy: to the first batch
    /// holding a request of the video from a user homed at the copy's
    /// storage, else to the first holding the video at all. A copy of a
    /// video no batch requests goes nowhere.
    pub(crate) fn deal(&self, topo: &Topology, batches: &[RequestBatch]) -> Vec<HeldCopies> {
        let mut dealt = vec![HeldCopies::default(); batches.len()];
        let mut rest = self.0.as_slice();
        while let Some(first) = rest.first() {
            let video = first.video;
            let n = rest.partition_point(|r| r.video == video);
            let (copies, tail) = rest.split_at(n);
            rest = tail;
            let asks = |b: &RequestBatch| b.group(video).is_some();
            let Some(lead) = batches.iter().position(asks) else { continue };
            let split = batches[lead + 1..].iter().any(asks);
            for h in copies {
                let home = |b: &RequestBatch| {
                    b.group(video).is_some_and(|g| g.iter().any(|r| topo.home_of(r.user) == h.loc))
                };
                let to = if split { batches.iter().position(home).unwrap_or(lead) } else { lead };
                dealt[to].0.push(h.clone());
            }
        }
        dealt
    }
}

/// What a commit must know to hold copies: the next commit's instant and
/// the outages that could strike a held copy.
pub(crate) struct HoldUntil<'a> {
    /// The next commit, `(k + 1) · H` for cycle `k`.
    pub(crate) until: Secs,
    /// The run's fault plan.
    pub(crate) faults: &'a FaultPlan,
}

/// What [`CommittedBook::absorb_solved`] held.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Holding {
    /// Ψ of the holds: the extensions it added to the schedule.
    pub(crate) cost: Dollars,
    /// Copies held.
    pub(crate) copies: usize,
    /// Their bytes.
    pub(crate) bytes: f64,
}

/// One held copy and the fill cost a next window saves by continuing it.
#[derive(Clone, Debug)]
struct Held {
    copy: Residency,
    fill: Dollars,
}

/// Incrementally maintained cross-cycle state: every committed residency
/// profile under [`EXTERNAL_OCCUPANCY`], with expired profiles evicted at
/// cycle boundaries instead of the ledger being rebuilt from a flat list
/// each cycle, and the copies the last commit held.
#[derive(Clone, Debug)]
pub struct CommittedBook {
    ledger: StorageLedger,
    /// Storages holding at least one committed profile, insertion order.
    touched: Vec<NodeId>,
    /// The copies the last commit held until the next one, by video and
    /// then storage.
    held: Vec<Held>,
    /// Per `video · nodes + storage`: the use average and the commit it
    /// was last updated at.
    usage: Vec<(f64, u64)>,
    nodes: usize,
    /// Commits so far.
    commits: u64,
}

impl CommittedBook {
    /// An empty book over a topology.
    pub fn new(topo: &Topology) -> Self {
        Self {
            ledger: StorageLedger::new(topo),
            touched: Vec::new(),
            held: Vec::new(),
            usage: Vec::new(),
            nodes: topo.node_count(),
            commits: 0,
        }
    }

    /// The committed-occupancy ledger (external profiles only).
    pub fn ledger(&self) -> &StorageLedger {
        &self.ledger
    }

    /// Number of active committed profiles.
    pub fn active(&self) -> usize {
        self.touched.iter().map(|&loc| self.ledger.profile_count(loc)).sum()
    }

    /// The held copies of the videos `batch` requests: what the next
    /// solve starts its greedy runs from.
    pub(crate) fn held_for(&self, batch: &RequestBatch) -> HeldCopies {
        let copies = self.held.iter().filter(|h| batch.group(h.copy.video).is_some());
        HeldCopies(copies.map(|h| h.copy.clone()).collect())
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
    /// occupancy. With `until`, the next commit's instant, first hold the
    /// copies the hold rule keeps (see the module docs) — none where an
    /// outage would strike, since this commit knows of none — extending
    /// them in `schedule`, and return what the holds cost.
    pub fn absorb(
        &mut self,
        ctx: &SchedCtx<'_>,
        schedule: &mut Schedule,
        until: Option<Secs>,
    ) -> Dollars {
        let faults = FaultPlan::empty();
        let hold = until.map(|until| HoldUntil { until, faults: &faults });
        self.absorb_solved(ctx, schedule, None, hold).cost
    }

    /// The seeded solve over this book ([`crate::shard_solve_seeded`]
    /// over its ledger) with every greedy run starting from the copies
    /// the last commit held: the service's full-rung solve on a cycle no
    /// fault reaches.
    pub fn solve(
        &self,
        ctx: &SchedCtx<'_>,
        batch: &RequestBatch,
        cfg: &ShardConfig,
    ) -> ShardOutcome {
        solve_over(ctx, batch, cfg, &self.ledger, &self.held_for(batch)).finish(ctx)
    }

    /// [`CommittedBook::absorb`] given the solve's ledger (this book plus
    /// the schedule) and dirty rows: a clean row it wrote is taken over,
    /// retagged, in place of the same adds (DESIGN.md §11.3). With `hold`
    /// it first decides, on that ledger, which copies to keep whole until
    /// the next commit (see the module docs), extends them in `schedule`
    /// and marks their rows dirty; the copies it holds replace the last
    /// commit's. A hold without a solve's ledger lays one, every row
    /// dirty.
    pub(crate) fn absorb_solved(
        &mut self,
        ctx: &SchedCtx<'_>,
        schedule: &mut Schedule,
        mut solved: Option<Solved>,
        hold: Option<HoldUntil<'_>>,
    ) -> Holding {
        self.commits += 1;
        let previous = std::mem::take(&mut self.held);
        let mut holding = Holding::default();
        if hold.is_some() && solved.is_none() {
            let laid = self.ledger.clone().with_schedule(ctx.catalog, schedule);
            solved = Some((laid, vec![true; self.nodes]));
        }
        if let (Some(rule), Some((ledger, dirty))) = (hold, solved.as_mut()) {
            let outages = rule.faults.outage_windows();
            let mut cursor = LedgerCursor::new();
            for r in schedule.residencies_mut() {
                let video = ctx.catalog.get(r.video);
                let used = self.used(r.video, r.loc);
                let whole = r.carried || r.last_service - r.start >= video.playback;
                if rule.until <= r.last_service || !whole {
                    continue;
                }
                // Holding a whole copy adds to its occupancy what a
                // continuation from its last service to the next commit
                // holds; the ledger takes that as one more entry. It must
                // fit twice over: the store keeps room for one more copy
                // of the title beside it.
                let (from, to) = (r.last_service, rule.until + video.playback);
                let added =
                    Residency { start: from, last_service: rule.until, carried: true, ..*r }
                        .profile(video);
                let room = SpaceProfile { plateau: 2.0 * added.plateau, ..added };
                if room.peak() > ctx.topo.capacity(r.loc) {
                    continue;
                }
                let (price, _) = extension(ctx, video, r, rule.until);
                let fill = if r.carried {
                    let at = previous
                        .binary_search_by(|h| (h.copy.video, h.copy.loc).cmp(&(r.video, r.loc)));
                    at.map_or(0.0, |i| previous[i].fill)
                } else {
                    video.amortized_bytes() * ctx.routes.rate(r.src, r.loc)
                };
                if used * fill <= price
                    || outages.iter().any(|&(n, a, b)| n == r.loc && a < to && b > from)
                    || !ledger.fits_cursor(ctx.topo, r.loc, &room, None, &mut cursor)
                {
                    continue;
                }
                ledger.add(r.loc, r.video, added);
                dirty[r.loc.index()] = true;
                r.last_service = rule.until;
                holding.cost += price;
                holding.copies += 1;
                holding.bytes += video.size;
                self.held.push(Held { copy: r.clone(), fill });
            }
            // A split video's shards and repair may list residencies out of
            // storage order.
            self.held.sort_by_key(|h| (h.copy.video, h.copy.loc));
        }
        let rebuild = solved.map(|s| self.ledger.take_rows(vec![s], Some(EXTERNAL_OCCUPANCY)));
        for r in schedule.residencies() {
            let profile = r.profile(ctx.catalog.get(r.video));
            if rebuild.as_ref().is_none_or(|d: &Vec<bool>| d[r.loc.index()]) {
                self.commit(r.loc, profile);
            } else if profile.peak() > 0.0 {
                self.touch(r.loc);
            }
        }
        holding
    }

    /// The use average of `video` at `loc` with this commit's window
    /// counted as a use (it shipped a copy there).
    fn used(&mut self, video: VideoId, loc: NodeId) -> f64 {
        let i = video.index() * self.nodes + loc.index();
        if self.usage.len() <= i {
            self.usage.resize((video.index() + 1) * self.nodes, (0.0, 0));
        }
        let (avg, at) = self.usage[i];
        if at == self.commits {
            return avg; // a second copy of the video there: one window, one use
        }
        let stale = i32::try_from(self.commits - at).unwrap_or(i32::MAX);
        let now = USE_ALPHA + avg * (1.0 - USE_ALPHA).powi(stale);
        self.usage[i] = (now, self.commits);
        now
    }

    /// Evict every profile fully drained by `t` and return the count.
    pub fn evict_expired(&mut self, t: Secs) -> usize {
        let ledger = &mut self.ledger;
        self.touched.iter().map(|&loc| ledger.remove_drained(loc, EXTERNAL_OCCUPANCY, t)).sum()
    }

    /// Bytes of committed occupancy held at time `t`. Clamped at zero:
    /// row breakpoint arithmetic can leave a tiny negative residue
    /// where the true occupancy is exactly 0.
    pub fn spillover_at(&self, t: Secs) -> f64 {
        self.touched.iter().map(|&loc| self.ledger.usage_at(loc, t, None)).sum::<f64>().max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_cost_model::{Catalog, CostModel, Request, SpaceProfile, Video, VideoSchedule};
    use vod_faults::Fault;
    use vod_topology::{builders, units, UserId};

    const HOUR: f64 = 3_600.0;

    /// Fig. 2 with one 2.5 GB title playing 90 minutes: fetching it to IS2
    /// costs $97.20 (4.05 GB over $24/GB), keeping it there $2.50 an hour.
    fn fig2(capacity_gb: f64) -> (Topology, Catalog) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, capacity_gb);
        let video = Video::new(VideoId(0), units::gb(2.5), units::minutes(90.0), units::mbps(6.0));
        (topo, Catalog::new(vec![video]))
    }

    /// A shipped copy of the title at IS2, filled from the warehouse at
    /// `from` hours and last serving at `last` hours.
    fn shipped(from: f64, last: f64) -> Schedule {
        let first = Request { user: UserId(1), video: VideoId(0), start: from * HOUR };
        let mut r = Residency::begin(NodeId(2), NodeId(0), first);
        r.extend(Request { start: last * HOUR, ..first });
        let mut vs = VideoSchedule::new(VideoId(0));
        vs.residencies.push(r);
        [vs].into_iter().collect()
    }

    fn last_service(s: &Schedule) -> f64 {
        s.residencies().next().expect("one copy").last_service / HOUR
    }

    #[test]
    fn the_commit_holds_a_copy_whose_fill_outweighs_its_keep() {
        let (topo, catalog) = fig2(5.0);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        // A first use weighs ½ × $97.20 = $48.60 against 12 h × $2.50.
        let mut book = CommittedBook::new(&topo);
        let mut s = shipped(10.0, 12.0);
        let cost = book.absorb(&ctx, &mut s, Some(24.0 * HOUR));
        assert!((cost - 30.0).abs() < 1e-9, "{cost}");
        assert_eq!(last_service(&s), 24.0, "the held copy ships to the next commit");
        let held: Vec<&Residency> = book.held.iter().map(|h| &h.copy).collect();
        assert_eq!(held, s.residencies().collect::<Vec<_>>());
        assert_eq!(book.spillover_at(23.0 * HOUR), units::gb(2.5), "the book keeps it whole");

        // Against 22 h × $2.50 = $55 a first use does not pay; a second
        // window in a row does: ¾ × $97.20 = $72.90.
        let mut book = CommittedBook::new(&topo);
        let mut s = shipped(0.5, 2.0);
        assert_eq!(book.absorb(&ctx, &mut s, Some(24.0 * HOUR)), 0.0);
        assert_eq!((last_service(&s), book.held.len()), (2.0, 0));
        let mut s = shipped(24.5, 26.0);
        let cost = book.absorb(&ctx, &mut s, Some(48.0 * HOUR));
        assert!((cost - 55.0).abs() < 1e-9, "{cost}");

        // Without a next commit, nothing is held and the last holds lapse.
        assert_eq!(book.absorb(&ctx, &mut shipped(50.0, 51.0), None), 0.0);
        assert!(book.held.is_empty());
    }

    #[test]
    fn a_copy_is_held_only_whole_where_it_fits_and_no_outage_strikes() {
        let (topo, catalog) = fig2(6.0);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let until = 24.0 * HOUR;
        let held = |book: &mut CommittedBook, s: &mut Schedule, faults: &FaultPlan| {
            let hold = HoldUntil { until, faults };
            book.absorb_solved(&ctx, s, None, Some(hold)).copies
        };
        let none = FaultPlan::empty();
        assert_eq!(held(&mut CommittedBook::new(&topo), &mut shipped(10.0, 12.0), &none), 1);
        // Serving for less than a playback after its fill: not whole.
        assert_eq!(held(&mut CommittedBook::new(&topo), &mut shipped(23.0, 23.2), &none), 0);
        // Room for the 2.5 GB held through 25.5 h and one more copy beside
        // 2 GB committed from 20 h: 7 GB in a 6 GB store.
        let mut book = CommittedBook::new(&topo);
        book.commit(NodeId(2), SpaceProfile::new(20.0 * HOUR, 30.0 * HOUR, units::gb(2.0), HOUR));
        assert_eq!(held(&mut book, &mut shipped(10.0, 12.0), &none), 0);
        // An outage at IS2 before the held copy has drained.
        let outage = Fault::NodeOutage { node: NodeId(2), from: 25.0 * HOUR, until: 26.0 * HOUR };
        let plan = FaultPlan::new(vec![outage]);
        let mut s = shipped(10.0, 12.0);
        assert_eq!(held(&mut CommittedBook::new(&topo), &mut s, &plan), 0);
        assert_eq!(last_service(&s), 12.0);
        // A 4 GB store has no room for a second 2.5 GB copy: nothing held.
        let (topo, catalog) = fig2(4.0);
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let hold = HoldUntil { until, faults: &none };
        let mut book = CommittedBook::new(&topo);
        assert_eq!(book.absorb_solved(&ctx, &mut shipped(10.0, 12.0), None, Some(hold)).copies, 0);
    }

    #[test]
    fn each_held_copy_goes_to_one_batch() {
        let (topo, _) = fig2(5.0);
        let copy = |video, loc| {
            let first = Request { user: UserId(0), video: VideoId(video), start: 0.0 };
            Residency { last_service: 24.0 * HOUR, ..Residency::begin(loc, NodeId(0), first) }
        };
        let (is1, is2) = (NodeId(1), NodeId(2));
        let held = HeldCopies(vec![copy(0, is1), copy(0, is2), copy(1, is2), copy(2, is1)]);
        let req = |user, video| Request { user: UserId(user), video: VideoId(video), start: 0.0 };
        // User 0 lives at IS1, users 1 and 2 at IS2; nobody asks for title 2.
        let a = RequestBatch::new(vec![req(1, 0)]);
        let b = RequestBatch::new(vec![req(0, 0), req(2, 1)]);
        let dealt = held.deal(&topo, &[a, b]);
        assert_eq!(dealt[0].0, vec![copy(0, is2)], "to the batch asking at the copy's storage");
        assert_eq!(dealt[1].0, vec![copy(0, is1), copy(1, is2)], "else to the first asking");
        assert_eq!(dealt[1].of(VideoId(1)), &[copy(1, is2)]);
        assert!(dealt[0].of(VideoId(1)).is_empty());
        assert_eq!(held.at(VideoId(2), is1), Some(&copy(2, is1)));
    }

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
