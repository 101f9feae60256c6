//! Per-storage occupancy bookkeeping.
//!
//! The scheduler "maintains information about the available space at the
//! intermediate storages" (paper §4.1). The ledger stores every
//! residency's [`SpaceProfile`] keyed by hosting storage, supports
//! excluding one video (needed while that video is being rescheduled), and
//! answers the two queries the algorithms need:
//!
//! * the aggregate usage at a time point ([`StorageLedger::usage_at`]),
//! * whether a candidate profile fits under the capacity together with
//!   everything else ([`StorageLedger::fits`]) — the admission test of the
//!   rejective greedy (§4.4).
//!
//! Both queries run against an incremental [`OccupancyTimeline`] per
//! storage: adding or removing a residency folds its ≤ 4 breakpoint
//! deltas into an ordered aggregate in O(log n) each, and the admission
//! test walks only the breakpoints inside the candidate's support with
//! exact left-limits — O(log n + span) instead of the naive O(k²)
//! rescan of every profile at the node. Two further fast paths:
//!
//! * a cached per-node **plateau sum** upper-bounds the aggregate
//!   everywhere, so any candidate with `plateau_sum + peak ≤ capacity`
//!   is admitted in O(1) without touching the timeline;
//! * [`StorageLedger::fits`] abandons the walk as soon as the running
//!   peak exceeds the capacity threshold.
//!
//! The ledger has this one implementation. The flat per-profile rescan
//! the timeline replaced lives in the dev-only `vod-oracles` crate as
//! free functions over [`StorageLedger::profiles_at`]; the equivalence
//! property tests and the audited naive SORP loop compare every answer
//! given here against it.

use crate::overflow::CAPACITY_EPS;
use crate::timeline::OccupancyTimeline;
use vod_cost_model::{Bytes, Catalog, Schedule, Secs, SpaceProfile, VideoId};
use vod_topology::{NodeId, Topology};

/// Reusable scratch buffers for the timeline admission test, so the hot
/// `fits` path performs no per-call allocations. One cursor per greedy
/// run: each run builds its own and threads it through every admission
/// test of that video. Cursors are deliberately not pooled across runs:
/// the thread-local pool prototyped for ISSUE 14 measured 0 % on every
/// benchmark workload (the allocator's thread cache already serves
/// these sizes).
#[derive(Clone, Debug, Default)]
pub struct LedgerCursor {
    /// Overlay deltas: the candidate's breakpoints plus the negated
    /// breakpoints of the excluded video, sorted by time.
    overlay: Vec<(Secs, Bytes, f64)>,
    /// Timeline breakpoints inside the candidate's support.
    support: Vec<(Secs, Bytes, f64)>,
    /// When tracing, the trial's recorded ledger dependency.
    trace: Option<TrialTrace>,
}

/// One admission test executed during a traced trial: the candidate
/// profile that was tested at a node, the boolean the constraints
/// answered, and — when the ledger was actually consulted — the capacity
/// sub-verdict. The answer sequence is the trial's *only* dependency on
/// anything outside its own inputs — the rejective greedy is otherwise a
/// deterministic function of its requests — so a trial replays
/// bit-identically under mutated bans and a mutated ledger iff every
/// recorded check re-evaluates to the same overall verdict
/// ([`crate::Constraints::check_replays`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionCheck {
    /// Storage node the candidate was tested at.
    pub loc: NodeId,
    /// The candidate occupancy profile as tested (including any in-trial
    /// residency growth accumulated by earlier requests).
    pub candidate: SpaceProfile,
    /// The overall admission answer the greedy observed at trial time.
    pub verdict: bool,
    /// The capacity sub-verdict, `Some` iff the ledger was consulted at a
    /// finite-capacity node. `None` means the answer was
    /// ledger-independent: either a forbidden-window rejection (`verdict`
    /// is `false`) or an infinite-capacity storage (`verdict` is `true`).
    pub fits: Option<bool>,
}

/// The external dependency of one traced trial, in two resolutions: a
/// coarse per-node footprint of the *ledger-consulting* checks for cheap
/// disjointness pre-filtering, and the exact admission-check sequence for
/// verdict replay under possibly-changed bans.
///
/// Invariant relied on by SORP's cache validation, in both directions: a
/// check at a finite-capacity storage has `fits == None` **iff** the
/// forbidden windows the trace is currently bound to reject it (at an
/// infinite-capacity storage `fits` is always `None`) — so every `None`
/// is ledger-independent under those windows, and every `Some(v)` is a
/// sub-verdict the ledger actually gave, re-derived whenever a commit
/// since the entry's epoch touched its support, and covered by
/// `footprint`. A `Some(v)` left on a check the bound windows reject
/// would sit out every replay behind the ban while commits flip it, and
/// be trusted, stale, once the ban lifts.
/// [`LedgerCursor::record_admission`] establishes the invariant at trial
/// time; [`crate::Constraints::rebind_trace`] restores it — demoting as
/// well as promoting — when a cached trace is revalidated under
/// different forbidden windows. (The footprint only grows: after a
/// demotion it is a superset, which costs a fast-path hit at worst.)
#[derive(Clone, Debug, Default)]
pub struct TrialTrace {
    /// Per-node union of every ledger-consulting check's candidate
    /// support (checks with `fits == None` are ledger-independent and
    /// contribute nothing).
    pub footprint: Vec<(NodeId, Secs, Secs)>,
    /// Every admission test, in execution order.
    pub checks: Vec<AdmissionCheck>,
}

impl TrialTrace {
    /// Union `[start, end]` at `loc` into the ledger footprint. Intervals
    /// at the same node are unioned — the greedy only ever grows one
    /// candidate residency per node, so the union is tight.
    pub fn record_footprint(&mut self, loc: NodeId, start: Secs, end: Secs) {
        match self.footprint.iter_mut().find(|(l, _, _)| *l == loc) {
            Some((_, s, e)) => {
                *s = s.min(start);
                *e = e.max(end);
            }
            None => self.footprint.push((loc, start, end)),
        }
    }
}

impl LedgerCursor {
    /// A cursor with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cursor that additionally records every admission test routed
    /// through it — the coarse (node, support interval) footprint of the
    /// ledger-consulting checks plus the exact [`AdmissionCheck`]
    /// sequence. A trial evaluated with a tracing cursor depends on its
    /// constraints *only* through the recorded verdicts: any change to
    /// the bans or the ledger that leaves every verdict unchanged leaves
    /// the trial's outcome bit-identical.
    pub fn tracing() -> Self {
        Self { trace: Some(TrialTrace::default()), ..Self::default() }
    }

    /// Record one admission test's dependency (no-op unless tracing).
    /// Only ledger-consulting checks (`fits.is_some()`) contribute to the
    /// footprint; intervals at the same node are unioned — the greedy
    /// only ever grows one candidate residency per node, so the union is
    /// tight.
    pub fn record_admission(
        &mut self,
        loc: NodeId,
        candidate: &SpaceProfile,
        verdict: bool,
        fits: Option<bool>,
    ) {
        if let Some(trace) = &mut self.trace {
            if fits.is_some() {
                trace.record_footprint(loc, candidate.start, candidate.end);
            }
            trace.checks.push(AdmissionCheck { loc, candidate: *candidate, verdict, fits });
        }
    }

    /// Take the recorded trace, leaving the cursor tracing an empty one.
    /// Empty (and always empty) for non-tracing cursors.
    pub fn take_trace(&mut self) -> TrialTrace {
        self.trace.take().unwrap_or_default()
    }
}

/// The (node, time-window) footprint of a batch of ledger mutations —
/// SORP's commit delta. One residency add or remove contributes its
/// profile's support; spans at the same node are unioned. A cached trial
/// whose admission-test footprint is disjoint from every subsequent
/// commit delta would replay bit-identically, so it can be reused
/// without re-running the greedy.
#[derive(Clone, Debug, Default)]
pub struct LedgerDelta {
    /// Per touched node: the union interval of mutated profile supports.
    spans: Vec<(NodeId, Secs, Secs)>,
}

impl LedgerDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget everything (start tracking a new commit).
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Whether no mutation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Record one profile mutation at `loc` spanning `[start, end]`.
    pub fn record(&mut self, loc: NodeId, start: Secs, end: Secs) {
        match self.spans.iter_mut().find(|(l, _, _)| *l == loc) {
            Some((_, s, e)) => {
                *s = s.min(start);
                *e = e.max(end);
            }
            None => self.spans.push((loc, start, end)),
        }
    }

    /// The touched `(node, start, end)` spans, one per node.
    pub fn spans(&self) -> &[(NodeId, Secs, Secs)] {
        &self.spans
    }

    /// Union another delta's spans into this one (used to merge the
    /// commit deltas accumulated since a cache entry was last validated).
    pub fn merge(&mut self, other: &LedgerDelta) {
        for &(l, s, e) in &other.spans {
            self.record(l, s, e);
        }
    }

    /// Whether any recorded span touches any interval of `footprint`
    /// (same-node closed-interval overlap; touching endpoints count —
    /// occupancy jumps exactly at a profile's support bounds can move an
    /// admission test's peak).
    pub fn intersects(&self, footprint: &[(NodeId, Secs, Secs)]) -> bool {
        self.spans.iter().any(|&(dl, ds, de)| {
            footprint.iter().any(|&(fl, fs, fe)| dl == fl && ds <= fe && fs <= de)
        })
    }
}

/// Occupancy ledger over every intermediate storage.
#[derive(Clone, Debug)]
pub struct StorageLedger {
    /// Per node: `(video, profile)` entries with positive plateau. The
    /// flat list is the source of truth for removal bookkeeping and the
    /// `exclude` overlays, and what the flat-scan oracle reads.
    entries: Vec<Vec<(VideoId, SpaceProfile)>>,
    /// Per node: the aggregate occupancy as an incremental breakpoint
    /// timeline (always maintained alongside `entries`).
    timelines: Vec<OccupancyTimeline>,
    /// Per node: Σ plateau over resident profiles — an upper bound on the
    /// aggregate occupancy at every instant, backing the O(1) headroom
    /// fast path.
    plateau_sum: Vec<Bytes>,
}

impl StorageLedger {
    /// An empty ledger for a topology.
    pub fn new(topo: &Topology) -> Self {
        let n = topo.node_count();
        Self {
            entries: vec![Vec::new(); n],
            timelines: vec![OccupancyTimeline::new(); n],
            plateau_sum: vec![0.0; n],
        }
    }

    /// Build the ledger of every residency in `schedule`. Degenerate
    /// (zero-space) residencies are skipped — they are pure relays.
    pub fn from_schedule(topo: &Topology, catalog: &Catalog, schedule: &Schedule) -> Self {
        let mut ledger = Self::new(topo);
        for r in schedule.residencies() {
            let p = r.profile(catalog.get(r.video));
            ledger.add(r.loc, r.video, p);
        }
        ledger
    }

    /// Record a profile at a storage (no-op for zero-space profiles).
    /// O(log n) in the node's breakpoint count.
    pub fn add(&mut self, loc: NodeId, video: VideoId, profile: SpaceProfile) {
        if profile.peak() > 0.0 {
            let i = loc.index();
            self.entries[i].push((video, profile));
            for d in &profile.slope_deltas() {
                self.timelines[i].add(d.t, d.jump, d.slope);
            }
            self.plateau_sum[i] += profile.peak();
        }
    }

    /// Drop every profile belonging to `video` (ahead of rescheduling it).
    ///
    /// Scans every node; when the caller knows which storages the video
    /// occupies (SORP's commit does — the outgoing schedule lists its
    /// residencies), prefer the incremental [`StorageLedger::remove`].
    pub fn remove_video(&mut self, video: VideoId) {
        for loc in 0..self.entries.len() {
            self.remove_at_index(loc, video);
        }
    }

    /// Drop every profile of `video` recorded at `loc` only — the
    /// incremental counterpart of [`StorageLedger::remove_video`].
    /// Idempotent, and a no-op if the video has nothing recorded there.
    pub fn remove(&mut self, loc: NodeId, video: VideoId) {
        self.remove_at_index(loc.index(), video);
    }

    fn remove_at_index(&mut self, i: usize, video: VideoId) {
        let (timeline, plateau_sum) = (&mut self.timelines[i], &mut self.plateau_sum[i]);
        self.entries[i].retain(|(v, p)| {
            if *v != video {
                return true;
            }
            for d in &p.slope_deltas() {
                timeline.remove(d.t, d.jump, d.slope);
            }
            *plateau_sum -= p.peak();
            false
        });
        if self.entries[i].is_empty() {
            // Clamp float drift: an empty node occupies exactly nothing.
            *plateau_sum = 0.0;
            debug_assert!(timeline.is_empty());
        }
    }

    /// Drop only the profiles of `video` at `loc` that have fully
    /// drained by time `t` (`end ≤ t`), keeping live ones — the
    /// rolling-horizon eviction of spilled-over occupancy from earlier
    /// cycles. Returns the number of profiles dropped. Same bookkeeping
    /// as [`StorageLedger::remove`], including the plateau-sum clamp
    /// when the node empties.
    pub fn remove_drained(&mut self, loc: NodeId, video: VideoId, t: Secs) -> usize {
        let i = loc.index();
        let (timeline, plateau_sum) = (&mut self.timelines[i], &mut self.plateau_sum[i]);
        let before = self.entries[i].len();
        self.entries[i].retain(|(v, p)| {
            if *v != video || p.end > t {
                return true;
            }
            for d in &p.slope_deltas() {
                timeline.remove(d.t, d.jump, d.slope);
            }
            *plateau_sum -= p.peak();
            false
        });
        if self.entries[i].is_empty() {
            // Clamp float drift: an empty node occupies exactly nothing.
            *plateau_sum = 0.0;
            debug_assert!(timeline.is_empty());
        }
        before - self.entries[i].len()
    }

    /// The recorded `(video, profile)` entries at `loc`, in insertion
    /// order.
    pub fn profiles_at(&self, loc: NodeId) -> &[(VideoId, SpaceProfile)] {
        &self.entries[loc.index()]
    }

    /// A [`LedgerDelta`] covering every recorded profile's support, one
    /// unioned span per occupied node — the "everything this ledger
    /// holds" footprint a cross-cycle warm start validates carried trial
    /// caches against.
    pub fn span_delta(&self) -> LedgerDelta {
        let mut delta = LedgerDelta::new();
        for (i, node) in self.entries.iter().enumerate() {
            for (_, p) in node {
                delta.record(NodeId(i as u32), p.start, p.end);
            }
        }
        delta
    }

    /// [`StorageLedger::add`] that also records the profile's support
    /// into `delta` (skipped, like the add itself, for zero-space
    /// profiles). SORP's commit uses this to build the commit delta that
    /// scopes trial-cache invalidation.
    pub fn add_tracked(
        &mut self,
        loc: NodeId,
        video: VideoId,
        profile: SpaceProfile,
        delta: &mut LedgerDelta,
    ) {
        if profile.peak() > 0.0 {
            delta.record(loc, profile.start, profile.end);
        }
        self.add(loc, video, profile);
    }

    /// [`StorageLedger::remove`] that also records the supports of the
    /// profiles actually dropped into `delta` (a no-op removal records
    /// nothing).
    pub fn remove_tracked(&mut self, loc: NodeId, video: VideoId, delta: &mut LedgerDelta) {
        for (v, p) in &self.entries[loc.index()] {
            if *v == video {
                delta.record(loc, p.start, p.end);
            }
        }
        self.remove(loc, video);
    }

    /// Mutation version of the occupancy bookkeeping at `loc`: ticks on
    /// every add or remove that actually touches the node. Equal
    /// versions guarantee the node's aggregate occupancy — and its
    /// entries, in order — is bit-identical, which makes the version the
    /// dirty-node signal behind incremental overflow detection.
    pub fn node_version(&self, loc: NodeId) -> u64 {
        self.timelines[loc.index()].version()
    }

    /// Whether any profile of `video` is recorded at any storage.
    /// O(total entries); used by tests and SORP's debug cross-checks.
    pub fn contains_video(&self, video: VideoId) -> bool {
        self.entries.iter().any(|node| node.iter().any(|(v, _)| *v == video))
    }

    /// Number of recorded (non-degenerate) profiles at `loc`.
    pub fn profile_count(&self, loc: NodeId) -> usize {
        self.entries[loc.index()].len()
    }

    /// Σ plateau over the profiles resident at `loc` — an upper bound on
    /// the aggregate occupancy at every instant, maintained in O(1) per
    /// add/remove. `capacity − plateau_sum` is the node's guaranteed
    /// headroom: any candidate whose peak fits under it is admissible
    /// without a timeline walk.
    pub fn plateau_sum(&self, loc: NodeId) -> Bytes {
        self.plateau_sum[loc.index()]
    }

    /// Aggregate occupancy at `loc` at time `t`, in bytes, optionally
    /// excluding one video's profiles. Right-continuous in `t`.
    /// O(log n + excluded).
    pub fn usage_at(&self, loc: NodeId, t: Secs, exclude: Option<VideoId>) -> Bytes {
        let i = loc.index();
        let mut u = self.timelines[i].prefix(t).value_at(t);
        if let Some(v) = exclude {
            for (vid, p) in &self.entries[i] {
                if *vid == v {
                    u -= p.space_at(t);
                }
            }
        }
        u
    }

    /// Walk every linear segment of the aggregate occupancy at `loc`
    /// between consecutive breakpoints, yielding `(t0, t1, u0, u1)` with
    /// the right-continuous value `u0` at `t0` and the **exact** left
    /// limit `u1` at `t1`. Allocation-free; the overflow detector's scan.
    pub fn for_each_segment<F: FnMut(Secs, Secs, Bytes, Bytes)>(&self, loc: NodeId, f: F) {
        self.timelines[loc.index()].for_each_segment(f);
    }

    /// Peak of `usage + candidate` over the candidate's support.
    pub fn peak_with(
        &self,
        loc: NodeId,
        candidate: &SpaceProfile,
        exclude: Option<VideoId>,
    ) -> Bytes {
        let mut cursor = LedgerCursor::new();
        self.peak_walk(loc, candidate, exclude, &mut cursor, f64::INFINITY)
    }

    /// The timeline peak walk: evaluate `aggregate + candidate −
    /// excluded` at the support's endpoints and at every breakpoint
    /// inside it — right-continuous values and exact left limits — and
    /// abandon early once the running peak exceeds `stop_above`.
    ///
    /// The candidate and the excluded video's profiles are merged in as a
    /// small *overlay* delta list (the excluded deltas negated — they are
    /// part of the aggregate and must be backed out), so the aggregate
    /// timeline itself is never modified by a query.
    fn peak_walk(
        &self,
        loc: NodeId,
        candidate: &SpaceProfile,
        exclude: Option<VideoId>,
        cursor: &mut LedgerCursor,
        stop_above: f64,
    ) -> Bytes {
        if candidate.peak() == 0.0 {
            return 0.0;
        }
        let i = loc.index();
        let (cs, ce) = (candidate.start, candidate.end);

        let overlay = &mut cursor.overlay;
        overlay.clear();
        for d in &candidate.slope_deltas() {
            overlay.push((d.t, d.jump, d.slope));
        }
        if let Some(v) = exclude {
            for (vid, p) in &self.entries[i] {
                if *vid == v {
                    for d in &p.slope_deltas() {
                        overlay.push((d.t, -d.jump, -d.slope));
                    }
                }
            }
        }
        overlay.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Running prefix of the combined function: aggregate up to the
        // support start, plus every overlay delta at or before it.
        let mut p = self.timelines[i].prefix(cs);
        let mut oi = 0;
        while oi < overlay.len() && overlay[oi].0 <= cs {
            let (t, jump, dslope) = overlay[oi];
            p.jump += jump;
            p.slope += dslope;
            p.slope_t += dslope * t;
            oi += 1;
        }
        let mut peak: Bytes = p.value_at(cs).max(0.0);
        if peak > stop_above {
            return peak;
        }

        // Timeline breakpoints strictly inside the support (cs, ce].
        let support = &mut cursor.support;
        support.clear();
        self.timelines[i].visit_range(cs, ce, |t, jump, dslope| support.push((t, jump, dslope)));

        // Merge-walk the two sorted delta lists. At each distinct time:
        // exact left limit first, then fold in every delta sharing that
        // time, then the right-continuous value (skipped at the support
        // end — the candidate no longer occupies space there).
        let (mut si, n_s, n_o) = (0usize, support.len(), overlay.len());
        while si < n_s || oi < n_o {
            let t = match (support.get(si), overlay.get(oi)) {
                (Some(s), Some(o)) => s.0.min(o.0),
                (Some(s), None) => s.0,
                (None, Some(o)) => o.0,
                (None, None) => unreachable!("loop condition"),
            };
            if t > ce {
                break; // overlay deltas past the support are irrelevant
            }
            peak = peak.max(p.value_at(t));
            while si < n_s && support[si].0 == t {
                let (bt, jump, dslope) = support[si];
                p.jump += jump;
                p.slope += dslope;
                p.slope_t += dslope * bt;
                si += 1;
            }
            while oi < n_o && overlay[oi].0 == t {
                let (bt, jump, dslope) = overlay[oi];
                p.jump += jump;
                p.slope += dslope;
                p.slope_t += dslope * bt;
                oi += 1;
            }
            if t < ce {
                peak = peak.max(p.value_at(t));
            }
            if peak > stop_above {
                return peak;
            }
        }
        // Left limit at the support end (= value: the aggregate only
        // jumps upward, and the candidate holds nothing at its end).
        peak.max(p.value_at(ce))
    }

    /// Admission test: would adding `candidate` at `loc` keep aggregate
    /// occupancy within the storage's capacity at all times? Zero-space
    /// candidates always fit.
    pub fn fits(
        &self,
        topo: &Topology,
        loc: NodeId,
        candidate: &SpaceProfile,
        exclude: Option<VideoId>,
    ) -> bool {
        let mut cursor = LedgerCursor::new();
        self.fits_cursor(topo, loc, candidate, exclude, &mut cursor)
    }

    /// [`StorageLedger::fits`] on caller-provided scratch buffers — the
    /// allocation-free hot path of the rejective greedy.
    pub fn fits_cursor(
        &self,
        topo: &Topology,
        loc: NodeId,
        candidate: &SpaceProfile,
        exclude: Option<VideoId>,
        cursor: &mut LedgerCursor,
    ) -> bool {
        let capacity = topo.capacity(loc);
        if !capacity.is_finite() {
            return true;
        }
        // O(1) fast path: the plateau sum bounds the aggregate from
        // above at every instant (profiles are non-negative, and any
        // excluded profiles only tighten the bound), so a candidate
        // fitting under it fits, full stop.
        if self.plateau_sum[loc.index()] + candidate.peak() <= capacity {
            return true;
        }
        let threshold = capacity * (1.0 + CAPACITY_EPS) + CAPACITY_EPS;
        self.peak_walk(loc, candidate, exclude, cursor, threshold) <= threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_topology::{builders, units};

    fn topo(cap_gb: f64) -> Topology {
        builders::paper_fig2(16.0, 8.0, 1.0, cap_gb)
    }

    fn profile(t_s: Secs, t_f: Secs) -> SpaceProfile {
        // 2 GB file, 1000 s playback.
        SpaceProfile::new(t_s, t_f, units::gb(2.0), 1000.0)
    }

    #[test]
    fn empty_ledger_reads_zero() {
        let t = topo(5.0);
        let l = StorageLedger::new(&t);
        assert_eq!(l.usage_at(NodeId(1), 0.0, None), 0.0);
        assert_eq!(l.profile_count(NodeId(1)), 0);
        assert_eq!(l.plateau_sum(NodeId(1)), 0.0);
    }

    use vod_topology::Topology;

    #[test]
    fn usage_sums_concurrent_profiles() {
        let t = topo(10.0);
        let mut l = StorageLedger::new(&t);
        l.add(NodeId(1), VideoId(0), profile(0.0, 5000.0));
        l.add(NodeId(1), VideoId(1), profile(1000.0, 4000.0));
        assert_eq!(l.usage_at(NodeId(1), 500.0, None), units::gb(2.0));
        assert_eq!(l.usage_at(NodeId(1), 2000.0, None), units::gb(4.0));
        // Excluding video 1 removes its contribution.
        assert_eq!(l.usage_at(NodeId(1), 2000.0, Some(VideoId(1))), units::gb(2.0));
        // Other locations unaffected.
        assert_eq!(l.usage_at(NodeId(2), 2000.0, None), 0.0);
        // The plateau-sum bound is maintained.
        assert_eq!(l.plateau_sum(NodeId(1)), units::gb(4.0));
    }

    #[test]
    fn degenerate_profiles_are_not_recorded() {
        let t = topo(5.0);
        let mut l = StorageLedger::new(&t);
        l.add(NodeId(1), VideoId(0), profile(100.0, 100.0));
        assert_eq!(l.profile_count(NodeId(1)), 0);
    }

    #[test]
    fn remove_video_clears_everywhere() {
        let t = topo(5.0);
        let mut l = StorageLedger::new(&t);
        l.add(NodeId(1), VideoId(0), profile(0.0, 5000.0));
        l.add(NodeId(2), VideoId(0), profile(0.0, 5000.0));
        l.add(NodeId(1), VideoId(1), profile(0.0, 5000.0));
        l.remove_video(VideoId(0));
        assert_eq!(l.profile_count(NodeId(1)), 1);
        assert_eq!(l.profile_count(NodeId(2)), 0);
        // The cleared node's occupancy reads exactly zero again.
        assert_eq!(l.usage_at(NodeId(2), 1000.0, None), 0.0);
        assert_eq!(l.plateau_sum(NodeId(2)), 0.0);
    }

    #[test]
    fn peak_with_detects_concurrent_plateaus() {
        let t = topo(5.0);
        let mut l = StorageLedger::new(&t);
        l.add(NodeId(1), VideoId(0), profile(0.0, 5000.0));
        let cand = profile(1000.0, 4000.0);
        let peak = l.peak_with(NodeId(1), &cand, None);
        assert!((peak - units::gb(4.0)).abs() < 1e-3, "peak {peak}");
    }

    #[test]
    fn peak_with_sees_partial_drain_overlap() {
        let t = topo(5.0);
        let mut l = StorageLedger::new(&t);
        // Drains over [5000, 6000].
        l.add(NodeId(1), VideoId(0), profile(0.0, 5000.0));
        // Candidate plateau begins mid-drain at 5500, where the old copy
        // still holds 1 GB.
        let cand = profile(5500.0, 9000.0);
        let peak = l.peak_with(NodeId(1), &cand, None);
        assert!((peak - units::gb(3.0)).abs() < 1e-3, "peak {peak}");
    }

    #[test]
    fn fits_respects_capacity() {
        let t = topo(3.0); // 3 GB capacity
        let mut l = StorageLedger::new(&t);
        l.add(NodeId(1), VideoId(0), profile(0.0, 5000.0)); // 2 GB resident
                                                            // Another concurrent 2 GB copy would need 4 GB: rejected.
        assert!(!l.fits(&t, NodeId(1), &profile(1000.0, 4000.0), None));
        // The same copy after the first has drained fits.
        assert!(l.fits(&t, NodeId(1), &profile(6500.0, 9000.0), None));
        // Excluding the resident video admits the overlap.
        assert!(l.fits(&t, NodeId(1), &profile(1000.0, 4000.0), Some(VideoId(0))));
    }

    #[test]
    fn fits_is_vacuous_at_the_warehouse() {
        let t = topo(3.0);
        let l = StorageLedger::new(&t);
        let huge = SpaceProfile::new(0.0, 1e6, units::gb(1e6), 1000.0);
        assert!(l.fits(&t, t.warehouse(), &huge, None));
    }

    #[test]
    fn zero_space_candidate_always_fits() {
        let t = topo(3.0);
        let mut l = StorageLedger::new(&t);
        l.add(NodeId(1), VideoId(0), profile(0.0, 5000.0));
        l.add(NodeId(1), VideoId(1), profile(0.0, 5000.0)); // already over!
        let relay = SpaceProfile::new(100.0, 100.0, units::gb(2.0), 1000.0);
        assert!(l.fits(&t, NodeId(1), &relay, None));
    }

    #[test]
    fn exact_fill_fits() {
        let t = topo(4.0);
        let mut l = StorageLedger::new(&t);
        l.add(NodeId(1), VideoId(0), profile(0.0, 5000.0));
        // Exactly 2 + 2 = 4 GB.
        assert!(l.fits(&t, NodeId(1), &profile(0.0, 5000.0), None));
    }

    #[test]
    fn from_schedule_skips_relays_and_keeps_real_copies() {
        use vod_cost_model::{Request, Residency, Video, VideoSchedule};
        use vod_topology::UserId;
        let t = topo(5.0);
        let video = Video::new(VideoId(0), units::gb(2.0), 1000.0, units::mbps(5.0));
        let catalog = Catalog::new(vec![video]);
        let mut vs = VideoSchedule::new(VideoId(0));
        let r0 = Request { user: UserId(0), video: VideoId(0), start: 0.0 };
        let r1 = Request { user: UserId(1), video: VideoId(0), start: 800.0 };
        let mut real = Residency::begin(NodeId(1), t.warehouse(), r0);
        real.extend(r1);
        vs.residencies.push(real);
        vs.residencies.push(Residency::begin(NodeId(2), t.warehouse(), r0)); // relay
        let mut s = Schedule::new();
        s.upsert(vs);
        let l = StorageLedger::from_schedule(&t, &catalog, &s);
        assert_eq!(l.profile_count(NodeId(1)), 1);
        assert_eq!(l.profile_count(NodeId(2)), 0);
    }

    #[test]
    fn ledger_delta_records_unions_and_intersections() {
        let mut d = LedgerDelta::new();
        assert!(d.is_empty());
        d.record(NodeId(1), 100.0, 200.0);
        d.record(NodeId(1), 150.0, 400.0); // unions with the first
        d.record(NodeId(2), 50.0, 60.0);
        assert_eq!(d.spans().len(), 2);
        assert_eq!(d.spans()[0], (NodeId(1), 100.0, 400.0));
        // Same node, overlapping window: hit.
        assert!(d.intersects(&[(NodeId(1), 350.0, 500.0)]));
        // Touching endpoints count (closed-interval semantics).
        assert!(d.intersects(&[(NodeId(1), 400.0, 500.0)]));
        assert!(d.intersects(&[(NodeId(2), 0.0, 50.0)]));
        // Disjoint window or different node: miss.
        assert!(!d.intersects(&[(NodeId(1), 401.0, 500.0)]));
        assert!(!d.intersects(&[(NodeId(3), 100.0, 400.0)]));
        d.clear();
        assert!(d.is_empty());
        assert!(!d.intersects(&[(NodeId(1), 0.0, 1e9)]));
    }

    #[test]
    fn remove_drained_keeps_live_profiles() {
        let t = topo(5.0);
        let mut l = StorageLedger::new(&t);
        // Ends at 6000 (drain tail) and 11000 respectively.
        l.add(NodeId(1), VideoId(0), profile(0.0, 5000.0));
        l.add(NodeId(1), VideoId(0), profile(4000.0, 10_000.0));
        l.add(NodeId(1), VideoId(1), profile(0.0, 5000.0));
        // At t = 8000 only video 0's first profile has drained.
        assert_eq!(l.remove_drained(NodeId(1), VideoId(0), 8000.0), 1);
        assert_eq!(l.profile_count(NodeId(1)), 2);
        assert_eq!(l.usage_at(NodeId(1), 5000.0, None), units::gb(4.0));
        // Idempotent; later cutoffs evict the rest.
        assert_eq!(l.remove_drained(NodeId(1), VideoId(0), 8000.0), 0);
        assert_eq!(l.remove_drained(NodeId(1), VideoId(0), 1e9), 1);
        assert_eq!(l.remove_drained(NodeId(1), VideoId(1), 1e9), 1);
        assert_eq!(l.profile_count(NodeId(1)), 0);
        assert_eq!(l.plateau_sum(NodeId(1)), 0.0);
    }

    #[test]
    fn span_delta_covers_every_profile() {
        let t = topo(5.0);
        let mut l = StorageLedger::new(&t);
        assert!(l.span_delta().is_empty());
        l.add(NodeId(1), VideoId(0), profile(100.0, 5000.0));
        l.add(NodeId(1), VideoId(1), profile(4000.0, 9000.0));
        l.add(NodeId(2), VideoId(2), profile(0.0, 1000.0));
        let d = l.span_delta();
        assert_eq!(d.spans().len(), 2);
        assert!(d.intersects(&[(NodeId(1), 9500.0, 9600.0)]), "drain tail covered");
        assert!(!d.intersects(&[(NodeId(1), 10_500.0, 11_000.0)]));
        assert!(d.intersects(&[(NodeId(2), 500.0, 600.0)]));
    }

    #[test]
    fn tracked_mutations_record_their_footprint() {
        let t = topo(5.0);
        let mut l = StorageLedger::new(&t);
        let mut d = LedgerDelta::new();
        l.add_tracked(NodeId(1), VideoId(0), profile(0.0, 5000.0), &mut d);
        assert_eq!(d.spans(), &[(NodeId(1), 0.0, 6000.0)]);
        // Zero-space profile: neither recorded nor tracked.
        d.clear();
        l.add_tracked(NodeId(1), VideoId(1), profile(100.0, 100.0), &mut d);
        assert!(d.is_empty());
        // Removal records the dropped profile's support; a no-op removal
        // records nothing.
        l.remove_tracked(NodeId(1), VideoId(7), &mut d);
        assert!(d.is_empty());
        l.remove_tracked(NodeId(1), VideoId(0), &mut d);
        assert_eq!(d.spans(), &[(NodeId(1), 0.0, 6000.0)]);
        assert_eq!(l.profile_count(NodeId(1)), 0);
    }

    #[test]
    fn node_version_ticks_only_on_real_mutations() {
        let t = topo(5.0);
        let mut l = StorageLedger::new(&t);
        let v0 = l.node_version(NodeId(1));
        l.add(NodeId(1), VideoId(0), profile(0.0, 5000.0));
        let v1 = l.node_version(NodeId(1));
        assert!(v1 > v0);
        // Other nodes untouched; queries don't tick.
        assert_eq!(l.node_version(NodeId(2)), 0);
        let _ = l.usage_at(NodeId(1), 100.0, None);
        let _ = l.fits(&t, NodeId(1), &profile(1000.0, 2000.0), None);
        assert_eq!(l.node_version(NodeId(1)), v1);
        // Degenerate add and no-op removal don't tick.
        l.add(NodeId(1), VideoId(1), profile(9.0, 9.0));
        l.remove(NodeId(1), VideoId(42));
        assert_eq!(l.node_version(NodeId(1)), v1);
        l.remove(NodeId(1), VideoId(0));
        assert!(l.node_version(NodeId(1)) > v1);
    }

    #[test]
    fn tracing_cursor_records_admission_footprints_and_checks() {
        let mut c = LedgerCursor::new();
        c.record_admission(NodeId(1), &profile(0.0, 10.0), true, Some(true)); // not tracing
        assert!(c.take_trace().footprint.is_empty());
        let mut c = LedgerCursor::tracing();
        c.record_admission(NodeId(1), &profile(100.0, 200.0), true, Some(true));
        c.record_admission(NodeId(1), &profile(50.0, 150.0), false, Some(false));
        c.record_admission(NodeId(2), &profile(0.0, 10.0), true, Some(true));
        // Ledger-independent answers (bans, infinite capacity) are in the
        // check sequence but contribute no footprint.
        c.record_admission(NodeId(3), &profile(0.0, 10.0), false, None);
        let trace = c.take_trace();
        // Footprint ends extend past the residency window by the drain
        // tail, so compare nodes and ordering plus the union property.
        assert_eq!(trace.footprint.len(), 2);
        assert_eq!(trace.footprint[0].0, NodeId(1));
        assert_eq!(trace.footprint[0].1, profile(50.0, 150.0).start);
        assert_eq!(trace.footprint[0].2, profile(100.0, 200.0).end);
        assert_eq!(trace.footprint[1].0, NodeId(2));
        // Checks keep execution order and verdicts verbatim.
        assert_eq!(trace.checks.len(), 4);
        assert!(trace.checks[0].verdict && !trace.checks[1].verdict);
        assert_eq!(trace.checks[1].candidate, profile(50.0, 150.0));
        assert_eq!(trace.checks[3].fits, None);
    }

    #[test]
    fn replay_detects_exactly_the_verdict_flips() {
        use crate::Constraints;
        let t = topo(5.0);
        let mut l = StorageLedger::new(&t);
        l.add(NodeId(1), VideoId(0), profile(0.0, 5000.0));
        // Record the current verdicts of two probes: a fitting one on the
        // half-full node and a non-fitting oversized sibling. The dirty
        // delta covers both supports, so every capacity sub-verdict is
        // re-evaluated rather than trusted.
        let small = profile(0.0, 5000.0); // 2 GB atop 2 GB: fits in 5 GB
        let big = SpaceProfile::new(0.0, 5000.0, units::gb(4.0), 1000.0); // 4+2 GB: no
        let checks = [
            AdmissionCheck { loc: NodeId(1), candidate: small, verdict: true, fits: Some(true) },
            AdmissionCheck { loc: NodeId(1), candidate: big, verdict: false, fits: Some(false) },
        ];
        let mut dirty = LedgerDelta::new();
        dirty.record(NodeId(1), 0.0, 1e9);
        let replay = |l: &StorageLedger, bans: &[(NodeId, crate::Interval)]| {
            let cons = Constraints { ledger: l, exclude: None, forbidden: bans };
            let mut cursor = LedgerCursor::new();
            checks.iter().all(|c| cons.check_replays(&t, c, &dirty, &mut cursor))
        };
        assert!(replay(&l, &[]));
        // A mutation inside the support that flips no verdict: removing
        // and re-adding the same profile.
        l.remove(NodeId(1), VideoId(0));
        l.add(NodeId(1), VideoId(0), profile(0.0, 5000.0));
        assert!(replay(&l, &[]));
        // A new ban covering the fitting probe flips its answer to
        // "rejected"; detected without consulting the ledger.
        let ban = [(NodeId(1), crate::Interval::new(0.0, 100.0))];
        assert!(!replay(&l, &ban));
        // Freeing the node flips the second verdict; detected.
        l.remove(NodeId(1), VideoId(0));
        assert!(!replay(&l, &[]));
        // And filling it back past the first probe's headroom flips the
        // first; also detected.
        l.add(NodeId(1), VideoId(2), SpaceProfile::new(0.0, 5000.0, units::gb(4.0), 1000.0));
        assert!(!replay(&l, &[]));
    }
}
