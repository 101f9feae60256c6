//! Per-storage and per-link occupancy bookkeeping.
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
//! Links are rows of the same ledger (the paper's §6 future work: "the
//! bandwidth constraints of the … communication network"). A row per
//! topology node comes first, then one per link; a stream is a step
//! profile — its video's bandwidth over its playback — on every link of
//! its route ([`StorageLedger::add_stream`]), and a link row's capacity is
//! the edge's declared bandwidth, ∞ when it declares none
//! ([`StorageLedger::link_fits`]). The solve pipeline fills node rows
//! only.
//!
//! Every query runs against an incremental [`OccupancyTimeline`] per
//! row: adding or removing a residency folds its ≤ 4 breakpoint
//! deltas into an ordered aggregate in O(log n) each, and the admission
//! test walks only the breakpoints inside the candidate's support with
//! exact left-limits — O(log n + span) instead of the naive O(k²)
//! rescan of every profile at the node. Two further fast paths:
//!
//! * a cached per-row **plateau sum** upper-bounds the aggregate
//!   everywhere, so any candidate with `plateau_sum + peak ≤ capacity`
//!   is admitted in O(1) without touching the timeline;
//! * [`StorageLedger::fits`] abandons the walk as soon as the running
//!   peak exceeds the capacity threshold.
//!
//! The ledger has this one implementation. The flat per-profile rescan
//! the timeline replaced lives in the dev-only `vod-oracles` crate as
//! free functions over [`StorageLedger::profiles_at`] and
//! [`StorageLedger::link_profiles`]; the equivalence property tests and
//! the audited naive SORP loop compare every answer given here against it.
//!
//! Rows are **copy-on-write** `Arc`s, so a clone costs a refcount per row
//! and finished rows are taken over, not rebuilt (DESIGN.md §9).

use crate::overflow::CAPACITY_EPS;
use crate::timeline::OccupancyTimeline;
use std::sync::Arc;
use vod_cost_model::{Bytes, Catalog, Schedule, Secs, SpaceProfile, VideoId};
use vod_topology::{NodeId, Topology};

/// Link `edge`'s capacity in bytes/s: its declared bandwidth, or ∞.
pub(crate) fn link_capacity(topo: &Topology, edge: usize) -> f64 {
    topo.edges()[edge].bandwidth.unwrap_or(f64::INFINITY)
}

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

/// A finished solve's ledger and its dirty node rows.
pub(crate) type Solved = (StorageLedger, Vec<bool>);

/// One row: `(video, profile)` entries with positive plateau (removals,
/// `exclude` overlays and the flat oracle read them), their aggregate as
/// an incremental breakpoint timeline, and Σ plateau, an upper bound on
/// it at every instant (the O(1) headroom fast path).
#[derive(Clone, Debug, Default)]
struct Row {
    entries: Vec<(VideoId, SpaceProfile)>,
    timeline: OccupancyTimeline,
    plateau_sum: Bytes,
}

/// Occupancy ledger over every intermediate storage and every link.
#[derive(Clone, Debug)]
pub struct StorageLedger {
    /// Node rows first, by [`NodeId::index`]; link `e`'s row is `nodes + e`.
    rows: Vec<Arc<Row>>,
    nodes: usize,
}

impl StorageLedger {
    /// An empty ledger for a topology: a row per node, then one per link.
    pub fn new(topo: &Topology) -> Self {
        let empty = Arc::new(Row::default());
        Self { rows: vec![empty; topo.node_count() + topo.edge_count()], nodes: topo.node_count() }
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
        self.add_row(loc.index(), video, profile);
    }

    fn add_row(&mut self, i: usize, video: VideoId, profile: SpaceProfile) {
        if profile.peak() > 0.0 {
            let row = Arc::make_mut(&mut self.rows[i]);
            row.entries.push((video, profile));
            for d in &profile.slope_deltas() {
                row.timeline.add(d.t, d.jump, d.slope);
            }
            row.plateau_sum += profile.peak();
        }
    }

    /// Record a stream of `video` on every link of `route` — `stream` is
    /// its step profile, the video's bandwidth over its playback.
    ///
    /// # Panics
    ///
    /// Panics if a hop of `route` is not a link of `topo`.
    pub fn add_stream(
        &mut self,
        topo: &Topology,
        route: &[NodeId],
        video: VideoId,
        stream: SpaceProfile,
    ) {
        for hop in route.windows(2) {
            let edge = topo
                .edge_index(hop[0], hop[1])
                .unwrap_or_else(|| panic!("route hop {}-{} is not a link", hop[0], hop[1]));
            self.add_row(self.nodes + edge, video, stream);
        }
    }

    /// Record every transfer of `schedule` on the links it crosses, as
    /// [`StorageLedger::add_stream`] does. Node rows are left alone.
    pub fn add_streams(&mut self, topo: &Topology, catalog: &Catalog, schedule: &Schedule) {
        for t in schedule.transfers() {
            let video = catalog.get(t.video);
            let stream = SpaceProfile::step(t.start, t.start + video.playback, video.bandwidth);
            self.add_stream(topo, &t.route, t.video, stream);
        }
    }

    /// Drop every profile of `video` recorded at `loc`. Idempotent, and a
    /// no-op if the video has nothing recorded there.
    pub fn remove(&mut self, loc: NodeId, video: VideoId) {
        self.remove_where(loc.index(), |v, _| v == video);
    }

    /// Drop only the profiles of `video` at `loc` that have fully
    /// drained by time `t` (`end ≤ t`), keeping live ones — the
    /// rolling-horizon eviction of spilled-over occupancy from earlier
    /// cycles. Returns the number of profiles dropped. Same bookkeeping
    /// as [`StorageLedger::remove`], including the plateau-sum clamp
    /// when the node empties.
    pub fn remove_drained(&mut self, loc: NodeId, video: VideoId, t: Secs) -> usize {
        self.remove_where(loc.index(), |v, p| v == video && p.end <= t)
    }

    /// Drop the entries of row `i` that `drop` picks; returns how many.
    fn remove_where(&mut self, i: usize, drop: impl Fn(VideoId, &SpaceProfile) -> bool) -> usize {
        if !self.rows[i].entries.iter().any(|(v, p)| drop(*v, p)) {
            return 0;
        }
        let Row { entries, timeline, plateau_sum } = Arc::make_mut(&mut self.rows[i]);
        let before = entries.len();
        entries.retain(|(v, p)| {
            if !drop(*v, p) {
                return true;
            }
            for d in &p.slope_deltas() {
                timeline.remove(d.t, d.jump, d.slope);
            }
            *plateau_sum -= p.peak();
            false
        });
        if entries.is_empty() {
            // Clamp float drift: an empty row occupies exactly nothing.
            *plateau_sum = 0.0;
            debug_assert!(timeline.is_empty());
        }
        before - entries.len()
    }

    /// Whether node `loc`'s row is `other`'s very row, untouched since a clone.
    pub(crate) fn shares_row(&self, other: &StorageLedger, loc: NodeId) -> bool {
        Arc::ptr_eq(&self.rows[loc.index()], &other.rows[loc.index()])
    }

    /// Take over (retagged `tag`, if given) every node row that exactly one
    /// of `from`, clones of this ledger, wrote and left clean: one `Arc`
    /// moves, no float. Returns the rows written by several, or dirty.
    pub(crate) fn take_rows(&mut self, mut from: Vec<Solved>, tag: Option<VideoId>) -> Vec<bool> {
        let mut rebuild = vec![false; self.nodes];
        for (loc, rebuild) in (0..self.nodes as u32).map(NodeId).zip(&mut rebuild) {
            let mut writers = from.iter_mut().filter(|(l, _)| !l.shares_row(self, loc));
            match (writers.next(), writers.next()) {
                (None, _) => {}
                (Some((l, dirty)), None) if !dirty[loc.index()] => {
                    let row = &mut self.rows[loc.index()];
                    std::mem::swap(row, &mut l.rows[loc.index()]);
                    if let Some(tag) = tag {
                        Arc::make_mut(row).entries.iter_mut().for_each(|e| e.0 = tag);
                    }
                }
                _ => *rebuild = true,
            }
        }
        rebuild
    }

    /// The recorded `(video, profile)` entries at `loc`, in insertion
    /// order.
    pub fn profiles_at(&self, loc: NodeId) -> &[(VideoId, SpaceProfile)] {
        &self.rows[loc.index()].entries
    }

    /// The recorded `(video, stream)` entries on link `edge`, in insertion
    /// order.
    pub fn link_profiles(&self, edge: usize) -> &[(VideoId, SpaceProfile)] {
        &self.rows[self.nodes + edge].entries
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
        for (v, p) in self.profiles_at(loc) {
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
        self.rows[loc.index()].timeline.version()
    }

    /// Whether any profile of `video` is recorded at any storage.
    /// O(total entries); used by tests and SORP's debug cross-checks.
    pub fn contains_video(&self, video: VideoId) -> bool {
        self.rows[..self.nodes].iter().any(|row| row.entries.iter().any(|(v, _)| *v == video))
    }

    /// Number of recorded (non-degenerate) profiles at `loc`.
    pub fn profile_count(&self, loc: NodeId) -> usize {
        self.profiles_at(loc).len()
    }

    /// Σ plateau over the profiles resident at `loc` — an upper bound on
    /// the aggregate occupancy at every instant, maintained in O(1) per
    /// add/remove. `capacity − plateau_sum` is the node's guaranteed
    /// headroom: any candidate whose peak fits under it is admissible
    /// without a timeline walk.
    pub fn plateau_sum(&self, loc: NodeId) -> Bytes {
        self.rows[loc.index()].plateau_sum
    }

    /// Aggregate occupancy at `loc` at time `t`, in bytes, optionally
    /// excluding one video's profiles. Right-continuous in `t`.
    /// O(log n + excluded).
    pub fn usage_at(&self, loc: NodeId, t: Secs, exclude: Option<VideoId>) -> Bytes {
        let row = &self.rows[loc.index()];
        let mut u = row.timeline.prefix(t).value_at(t);
        if let Some(v) = exclude {
            for (vid, p) in &row.entries {
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
        self.rows[loc.index()].timeline.for_each_segment(f);
    }

    /// [`StorageLedger::for_each_segment`] over link `edge`'s row.
    pub(crate) fn for_each_link_segment<F: FnMut(Secs, Secs, f64, f64)>(&self, edge: usize, f: F) {
        self.rows[self.nodes + edge].timeline.for_each_segment(f);
    }

    /// Peak of `usage + candidate` over the candidate's support.
    pub fn peak_with(
        &self,
        loc: NodeId,
        candidate: &SpaceProfile,
        exclude: Option<VideoId>,
    ) -> Bytes {
        let mut cursor = LedgerCursor::new();
        self.peak_walk(loc.index(), candidate, exclude, &mut cursor, f64::INFINITY)
    }

    /// The timeline peak walk over row `i`: evaluate `aggregate +
    /// candidate − excluded` at the support's endpoints and at every
    /// breakpoint inside it — right-continuous values and exact left
    /// limits — and abandon early once the running peak exceeds
    /// `stop_above`.
    ///
    /// The candidate and the excluded video's profiles are merged in as a
    /// small *overlay* delta list (the excluded deltas negated — they are
    /// part of the aggregate and must be backed out), so the aggregate
    /// timeline itself is never modified by a query.
    fn peak_walk(
        &self,
        i: usize,
        candidate: &SpaceProfile,
        exclude: Option<VideoId>,
        cursor: &mut LedgerCursor,
        stop_above: f64,
    ) -> Bytes {
        if candidate.peak() == 0.0 {
            return 0.0;
        }
        let (cs, ce) = (candidate.start, candidate.end);
        let row = &self.rows[i];

        let overlay = &mut cursor.overlay;
        overlay.clear();
        for d in &candidate.slope_deltas() {
            overlay.push((d.t, d.jump, d.slope));
        }
        if let Some(v) = exclude {
            for (vid, p) in &row.entries {
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
        let mut p = row.timeline.prefix(cs);
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
        row.timeline.visit_range(cs, ce, |t, jump, dslope| support.push((t, jump, dslope)));

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
        // The candidate has a breakpoint at its end, so the loop took the
        // left limit there. What remains is the value at `ce` after every
        // delta there: the candidate holds nothing then, so this is the
        // rest of the row at `ce` — conservatively including a profile
        // that starts exactly at `ce`, and below the left limit wherever
        // the row drops there (a stream ending on a link row).
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
        self.row_fits(loc.index(), topo.capacity(loc), candidate, exclude, cursor)
    }

    /// Link admission: would `stream` on link `edge` keep the load within
    /// the link's declared bandwidth at all times? Always true on a link
    /// that declares none.
    pub fn link_fits(&self, topo: &Topology, edge: usize, stream: &SpaceProfile) -> bool {
        let capacity = link_capacity(topo, edge);
        self.row_fits(self.nodes + edge, capacity, stream, None, &mut LedgerCursor::new())
    }

    fn row_fits(
        &self,
        i: usize,
        capacity: f64,
        candidate: &SpaceProfile,
        exclude: Option<VideoId>,
        cursor: &mut LedgerCursor,
    ) -> bool {
        if !capacity.is_finite() {
            return true;
        }
        // O(1) fast path: the plateau sum bounds the aggregate from
        // above at every instant (profiles are non-negative, and any
        // excluded profiles only tighten the bound), so a candidate
        // fitting under it fits, full stop.
        if self.rows[i].plateau_sum + candidate.peak() <= capacity {
            return true;
        }
        let threshold = capacity * (1.0 + CAPACITY_EPS) + CAPACITY_EPS;
        self.peak_walk(i, candidate, exclude, cursor, threshold) <= threshold
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
    fn remove_clears_one_video_at_one_node() {
        let t = topo(5.0);
        let mut l = StorageLedger::new(&t);
        l.add(NodeId(1), VideoId(0), profile(0.0, 5000.0));
        l.add(NodeId(2), VideoId(0), profile(0.0, 5000.0));
        l.add(NodeId(1), VideoId(1), profile(0.0, 5000.0));
        l.remove(NodeId(2), VideoId(0));
        l.remove(NodeId(1), VideoId(0));
        assert_eq!(l.profile_count(NodeId(1)), 1);
        assert_eq!(l.profile_count(NodeId(2)), 0);
        assert!(!l.contains_video(VideoId(0)));
        // The cleared node's occupancy reads exactly zero again.
        assert_eq!(l.usage_at(NodeId(2), 1000.0, None), 0.0);
        assert_eq!(l.plateau_sum(NodeId(2)), 0.0);
    }

    #[test]
    fn a_step_reads_exactly_zero_after_its_end() {
        let t = topo(5.0);
        let mut l = StorageLedger::new(&t);
        // A zero-length drain: the squatters of the SORP, shard and repair
        // tests, and every stream on a link row.
        let step = SpaceProfile { start: 0.0, full: 0.0, last: 1e7, end: 1e7, plateau: 1e9 };
        l.add(NodeId(1), VideoId(0), step);
        l.add(NodeId(1), VideoId(1), profile(0.0, 5000.0));
        assert_eq!(l.usage_at(NodeId(1), 1e7 - 1.0, None), units::gb(1.0));
        assert_eq!(l.usage_at(NodeId(1), 1e7, None), 0.0);
        assert_eq!(l.usage_at(NodeId(1), 2e7, None), 0.0);
        let mut segments = 0;
        l.for_each_segment(NodeId(1), |t0, t1, u0, u1| {
            segments += 1;
            assert!([t0, t1, u0, u1].iter().all(|x| x.is_finite()), "{t0} {t1} {u0} {u1}");
        });
        assert_eq!(segments, 3, "between breakpoints 0, 5000, 6000, 1e7");
        l.remove(NodeId(1), VideoId(0));
        assert_eq!(l.usage_at(NodeId(1), 1e7 - 1.0, None), 0.0);
    }

    /// Two streams on one link: 2 B/s over [10, 15), 3 B/s over [12, 17).
    fn two_streams() -> (Topology, StorageLedger) {
        let mut t = topo(5.0);
        t.set_uniform_bandwidth(Some(4.0)).unwrap();
        let route = [NodeId(0), NodeId(1)];
        let mut l = StorageLedger::new(&t);
        l.add_stream(&t, &route, VideoId(0), SpaceProfile::step(10.0, 15.0, 2.0));
        l.add_stream(&t, &route, VideoId(1), SpaceProfile::step(12.0, 17.0, 3.0));
        (t, l)
    }

    #[test]
    fn link_rows_accumulate_and_release_streams() {
        let (t, l) = two_streams();
        let edge = t.edge_index(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(l.link_profiles(edge).len(), 2);
        let mut steps = Vec::new();
        l.for_each_link_segment(edge, |t0, t1, u0, u1| steps.push((t0, t1, u0, u1)));
        assert_eq!(steps, [(10.0, 12.0, 2.0, 2.0), (12.0, 15.0, 5.0, 5.0), (15.0, 17.0, 3.0, 3.0)]);
        // Node rows are untouched, and the other link carries nothing.
        assert_eq!(l.profile_count(NodeId(0)) + l.profile_count(NodeId(1)), 0);
        assert!(!l.contains_video(VideoId(0)));
        let other = t.edge_index(NodeId(1), NodeId(2)).unwrap();
        assert!(l.link_profiles(other).is_empty());
    }

    #[test]
    fn link_fits_respects_declared_bandwidth() {
        let (mut t, l) = two_streams();
        let edge = t.edge_index(NodeId(0), NodeId(1)).unwrap();
        // 4 B/s: 1 B/s more fits beside the 3 B/s tail, not the 5 B/s peak.
        assert!(l.link_fits(&t, edge, &SpaceProfile::step(15.0, 30.0, 1.0)));
        assert!(!l.link_fits(&t, edge, &SpaceProfile::step(0.0, 30.0, 1.0)));
        // End-to-start in either order is not an overlap.
        assert!(l.link_fits(&t, edge, &SpaceProfile::step(17.0, 30.0, 4.0)));
        assert!(l.link_fits(&t, edge, &SpaceProfile::step(0.0, 10.0, 4.0)));
        // A link declaring no bandwidth admits anything.
        t.set_uniform_bandwidth(None).unwrap();
        assert!(l.link_fits(&t, edge, &SpaceProfile::step(0.0, 30.0, 1e12)));
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

    /// One row as bits: entries, plateau sum, segments, version.
    type RowBits = (Vec<(u32, [u64; 5])>, u64, Vec<[u64; 4]>, u64);

    fn row_bits(l: &StorageLedger, loc: NodeId) -> RowBits {
        let entries = l
            .profiles_at(loc)
            .iter()
            .map(|(v, p)| (v.0, [p.start, p.full, p.last, p.end, p.plateau].map(f64::to_bits)))
            .collect();
        let mut segments = Vec::new();
        l.for_each_segment(loc, |t0, t1, u0, u1| segments.push([t0, t1, u0, u1].map(f64::to_bits)));
        (entries, l.plateau_sum(loc).to_bits(), segments, l.node_version(loc))
    }

    #[test]
    fn mutating_a_clone_leaves_the_original_bit_identical() {
        let t = topo(5.0);
        let mut l = StorageLedger::new(&t);
        l.add(NodeId(1), VideoId(0), profile(0.0, 5000.0));
        l.add(NodeId(1), VideoId(1), profile(4000.0, 10_000.0));
        let before = row_bits(&l, NodeId(1));
        // Every mutation on the clone: add, remove, remove_drained.
        let mut c = l.clone();
        c.add(NodeId(1), VideoId(2), profile(100.0, 900.0));
        c.remove(NodeId(1), VideoId(1));
        assert_eq!(c.remove_drained(NodeId(1), VideoId(0), 1e9), 1);
        assert_eq!(c.profile_count(NodeId(1)), 1);
        assert!(row_bits(&l, NodeId(1)) == before, "the clone's mutations reached the original");
        // And the other way round.
        let mut c = l.clone();
        let kept = row_bits(&c, NodeId(1));
        l.add(NodeId(1), VideoId(2), profile(100.0, 900.0));
        l.remove(NodeId(1), VideoId(1));
        assert_eq!(l.remove_drained(NodeId(1), VideoId(0), 1e9), 1);
        assert!(row_bits(&c, NodeId(1)) == kept, "the original's mutations reached the clone");
        // The clone still mutates like a fresh ledger would.
        c.remove(NodeId(1), VideoId(1));
        c.remove(NodeId(1), VideoId(0));
        assert_eq!((c.profile_count(NodeId(1)), c.plateau_sum(NodeId(1))), (0, 0.0));
    }

    #[test]
    fn a_removal_that_drops_nothing_copies_no_shared_row() {
        let t = topo(5.0);
        let mut l = StorageLedger::new(&t);
        l.add(NodeId(1), VideoId(0), profile(0.0, 5000.0));
        let mut c = l.clone();
        c.remove(NodeId(1), VideoId(7));
        assert_eq!(c.remove_drained(NodeId(1), VideoId(0), 10.0), 0, "still live at t = 10");
        c.add(NodeId(1), VideoId(3), profile(100.0, 100.0)); // zero space
        assert!(c.shares_row(&l, NodeId(1)), "a no-op mutation copied the row");
        c.remove(NodeId(1), VideoId(0));
        assert!(!c.shares_row(&l, NodeId(1)));
        // Only the row a mutation reached was copied.
        assert!(c.shares_row(&l, NodeId(2)));
    }

    #[test]
    fn taken_rows_keep_their_bits_and_a_retag_moves_no_float() {
        let t = builders::paper_fig4(&builders::PaperFig4Config::default());
        let mut base = StorageLedger::new(&t);
        base.add(NodeId(3), VideoId(5), profile(0.0, 100.0));
        let n = t.node_count();
        // Node 1: one clean writer. Node 2: two writers. Node 3: one
        // writer, dirty there. Node 4: nobody.
        let (mut a, mut b) = (base.clone(), base.clone());
        a.add(NodeId(1), VideoId(0), profile(0.0, 5000.0));
        a.add(NodeId(1), VideoId(1), profile(4000.0, 10_000.0));
        a.add(NodeId(2), VideoId(0), profile(0.0, 5000.0));
        b.add(NodeId(2), VideoId(2), profile(0.0, 5000.0));
        b.remove(NodeId(3), VideoId(5));
        let mut b_dirty = vec![false; n];
        b_dirty[3] = true;
        let want = row_bits(&a, NodeId(1));
        let mut l = base.clone();
        let rebuild = l.take_rows(vec![(a, vec![false; n]), (b, b_dirty)], Some(VideoId(9)));
        assert_eq!(&rebuild[1..5], &[false, true, true, false]);
        let (entries, plateau, segments, version) = row_bits(&l, NodeId(1));
        assert!(entries.iter().all(|(v, _)| *v == 9));
        assert_eq!((plateau, segments, version), (want.1, want.2, want.3));
        for loc in [2, 3, 4].map(NodeId) {
            assert!(l.shares_row(&base, loc), "{loc} was not to be taken");
        }
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
