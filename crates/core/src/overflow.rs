//! Storage overflow and link overload detection (paper §4.1).
//!
//! When the individual schedules are integrated, an intermediate storage
//! may be over-committed during some interval. A **storage overflow**
//! `OF_{Δt, ISj}` is identified by its location and the maximal time
//! interval during which the summed space requirement exceeds the
//! capacity. Because every residency's occupancy is piecewise linear
//! (Eq. 6), the aggregate occupancy is piecewise linear too and the exact
//! overflow boundaries are found by scanning the ledger's occupancy
//! timeline segment by segment and interpolating the crossings. The
//! timeline yields each segment's exact endpoint values (right-continuous
//! start, exact left limit at the end) directly from its slope aggregates,
//! so no midpoint probing is needed and near-vertical segments suffer no
//! float cancellation.
//!
//! A link overload ([`detect_link_overloads`]) is the same scan over a
//! link row of the ledger against the link's declared bandwidth.

use crate::capacity::link_capacity;
use crate::{StorageLedger, EXTERNAL_OCCUPANCY};
use vod_cost_model::{Bytes, Secs, SpaceProfile, VideoId};
use vod_topology::{NodeId, Topology};

/// Relative tolerance applied to capacity comparisons so that schedules
/// filling a storage exactly to the brim are not flagged by floating-point
/// noise.
pub(crate) const CAPACITY_EPS: f64 = 1e-9;

/// A half-open time interval `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Inclusive start.
    pub start: Secs,
    /// Exclusive end.
    pub end: Secs,
}

impl Interval {
    /// Construct; panics if reversed.
    pub fn new(start: Secs, end: Secs) -> Self {
        assert!(end >= start, "reversed interval [{start}, {end}]");
        Self { start, end }
    }

    /// Interval length.
    pub fn len(&self) -> Secs {
        self.end - self.start
    }

    /// Whether the interval has zero length.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Whether two intervals overlap with positive measure.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// A detected storage overflow `OF_{Δt, ISj}`.
#[derive(Clone, Debug)]
pub struct Overflow {
    /// The over-committed intermediate storage.
    pub loc: NodeId,
    /// The maximal interval during which usage exceeds capacity.
    pub window: Interval,
    /// Peak excess over capacity within the window, in bytes.
    pub peak_excess: Bytes,
}

/// Detect every storage overflow in `schedule` (paper §4.1: the scheduler
/// analyses storage requirement against storage availability at every
/// intermediate storage). Returns overflows sorted by location then start
/// time; each is a maximal over-capacity interval.
pub fn detect_overflows(topo: &Topology, ledger: &StorageLedger) -> Vec<Overflow> {
    let mut out = Vec::new();
    for loc in topo.storages() {
        let capacity = topo.capacity(loc);
        if !capacity.is_finite() {
            continue;
        }
        out.extend(overflows_at(ledger, loc, capacity));
    }
    out
}

/// Incremental overflow detector: caches each finite-capacity storage's
/// overflow list keyed by the ledger's per-node mutation version, so a
/// refresh rescans only the nodes touched since the previous one. The
/// output is identical to [`detect_overflows`] by construction — both
/// iterate `topo.storages()` in order and compute each node's list with
/// the same scan; the monitor merely skips nodes whose aggregate
/// occupancy provably did not change.
#[derive(Clone, Debug, Default)]
pub struct OverflowMonitor {
    /// Per finite-capacity storage, in `topo.storages()` order:
    /// `(node, version at last scan, overflows found then)`.
    cache: Vec<(NodeId, u64, Vec<Overflow>)>,
}

impl OverflowMonitor {
    /// A monitor with an empty cache: the first refresh scans every node.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bring the overflow set up to date, rescanning only storages whose
    /// ledger version moved since the last refresh, and return how many
    /// were rescanned. Must always be called with the same `topo` (the
    /// cache is keyed by its storage order).
    pub fn refresh(&mut self, topo: &Topology, ledger: &StorageLedger) -> usize {
        let mut rescanned = 0;
        let mut slot = 0usize;
        for loc in topo.storages() {
            let capacity = topo.capacity(loc);
            if !capacity.is_finite() {
                continue;
            }
            let version = ledger.node_version(loc);
            match self.cache.get_mut(slot) {
                Some((l, v, ofs)) => {
                    debug_assert_eq!(*l, loc, "monitor reused across topologies");
                    if *v != version {
                        *v = version;
                        *ofs = overflows_at(ledger, loc, capacity);
                        rescanned += 1;
                    }
                }
                None => {
                    self.cache.push((loc, version, overflows_at(ledger, loc, capacity)));
                    rescanned += 1;
                }
            }
            slot += 1;
        }
        rescanned
    }

    /// Every finite-capacity storage as of the last refresh: `(node, its
    /// ledger version then, its overflows in window order)`, in
    /// `topo.storages()` order — flattened, [`detect_overflows`]'s output.
    /// The version is the "did this storage move" signal: work derived
    /// from a storage's overflows and kept beside the version it was
    /// derived at still stands while the two are equal.
    pub fn scans(&self) -> &[(NodeId, u64, Vec<Overflow>)] {
        &self.cache
    }
}

/// Overflow intervals at one storage given its capacity; none where the
/// plateau sum, `row_fits`' O(1) upper bound, fits.
fn overflows_at(ledger: &StorageLedger, loc: NodeId, capacity: Bytes) -> Vec<Overflow> {
    let mut out = Vec::new();
    if ledger.plateau_sum(loc) <= capacity {
        return out;
    }
    let emit = |window, peak_excess| out.push(Overflow { loc, window, peak_excess });
    let mut scan = OverflowScan { capacity, open: None, last_t: f64::NEG_INFINITY, emit };
    ledger.for_each_segment(loc, |t0, t1, u0, u1| scan.segment(t0, t1, u0, u1));
    scan.finish();
    out
}

/// A detected link overload: a maximal interval during which the streams
/// crossing a link demand more than its declared bandwidth.
#[derive(Clone, Debug)]
pub struct LinkOverload {
    /// Index into [`Topology::edges`].
    pub edge: usize,
    /// The maximal interval during which demand exceeds the bandwidth.
    pub window: Interval,
    /// Peak excess demand over the bandwidth within the window, bytes/s.
    pub peak_excess: f64,
}

/// Detect every overload on the ledger's link rows, by link then start
/// time — the same scan as [`detect_overflows`]. Links that declare no
/// bandwidth are never overloaded.
pub fn detect_link_overloads(topo: &Topology, ledger: &StorageLedger) -> Vec<LinkOverload> {
    let mut out = Vec::new();
    for edge in 0..topo.edge_count() {
        let capacity = link_capacity(topo, edge);
        if !capacity.is_finite() {
            continue;
        }
        let emit = |window, peak_excess| out.push(LinkOverload { edge, window, peak_excess });
        let mut scan = OverflowScan { capacity, open: None, last_t: f64::NEG_INFINITY, emit };
        ledger.for_each_link_segment(edge, |t0, t1, u0, u1| scan.segment(t0, t1, u0, u1));
        scan.finish();
    }
    out
}

/// Streaming scan over the linear segments of one ledger row's aggregate
/// occupancy, handing each maximal over-capacity window and its peak
/// excess to `emit`; the caller attaches the storage or the link.
/// Segments must arrive in time order, each with its exact endpoint
/// values straight from the timeline's slope aggregates: `u0` the
/// right-continuous value at `t0`, `u1` the exact left limit at `t1`.
struct OverflowScan<F: FnMut(Interval, f64)> {
    capacity: f64,
    /// `(window start, running peak excess)` of the open window, if any.
    open: Option<(Secs, f64)>,
    last_t: Secs,
    emit: F,
}

impl<F: FnMut(Interval, f64)> OverflowScan<F> {
    fn segment(&mut self, t0: Secs, t1: Secs, u0: f64, u1: f64) {
        if t1 <= t0 {
            return;
        }
        self.last_t = t1;
        let capacity = self.capacity;
        let threshold = capacity * (1.0 + CAPACITY_EPS) + CAPACITY_EPS;
        let over0 = u0 > threshold;
        let over1 = u1 > threshold;
        if !over0 && !over1 {
            if let Some((s, peak)) = self.open.take() {
                (self.emit)(Interval::new(s, t0), peak);
            }
            return;
        }
        // Crossing point of the linear segment with the capacity line.
        let cross = |target: f64| -> Secs { t0 + (target - u0) / (u1 - u0) * (t1 - t0) };
        let (seg_start, seg_end) = match (over0, over1) {
            (true, true) => (t0, t1),
            (false, true) => (cross(capacity), t1),
            (true, false) => (t0, cross(capacity)),
            (false, false) => unreachable!(),
        };
        let seg_peak = (u0.max(u1) - capacity).max(0.0);
        match &mut self.open {
            Some((_, peak)) => *peak = peak.max(seg_peak),
            None => self.open = Some((seg_start, seg_peak)),
        }
        // Close if the segment ends under capacity before t1.
        if !over1 {
            let (s, peak) = self.open.take().expect("window was open");
            (self.emit)(Interval::new(s, seg_end), peak);
        }
    }

    fn finish(mut self) {
        if let Some((s, peak)) = self.open.take() {
            (self.emit)(Interval::new(s, self.last_t), peak);
        }
    }
}

/// `Overflow_Set(ISj, Δt)`: the occupancy profiles of the schedule's
/// residencies hosted at the overflow's storage that intersect the
/// overflow window (paper §4.1), as `(video, profile)` in deterministic
/// (video, start) order. Read from the ledger's entries at that one node
/// — it holds exactly the schedule's positive-space residencies plus the
/// external occupancy, which can never be rescheduled and is left out.
pub fn overflow_set(ledger: &StorageLedger, of: &Overflow) -> Vec<(VideoId, SpaceProfile)> {
    let mut set: Vec<(VideoId, SpaceProfile)> = ledger
        .profiles_at(of.loc)
        .iter()
        .filter(|(v, p)| {
            *v != EXTERNAL_OCCUPANCY && Interval::new(p.start, p.end).overlaps(&of.window)
        })
        .copied()
        .collect();
    set.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.start.total_cmp(&b.1.start)));
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_cost_model::{Catalog, Request, Residency, Schedule, Video, VideoSchedule};
    use vod_topology::{builders, units, UserId};

    fn setup(capacity_gb: f64) -> (Topology, Catalog) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, capacity_gb);
        // Two videos, each 2.5 GB / 90 min.
        let mk = |i| Video::new(VideoId(i), units::gb(2.5), units::minutes(90.0), units::mbps(6.0));
        (topo, Catalog::new(vec![mk(0), mk(1)]))
    }

    fn residency(video: u32, loc: u32, t_s: Secs, t_f: Secs) -> Residency {
        let mut r = Residency::begin(
            NodeId(loc),
            NodeId(0),
            Request { user: UserId(0), video: VideoId(video), start: t_s },
        );
        if t_f > t_s {
            r.extend(Request { user: UserId(1), video: VideoId(video), start: t_f });
        }
        r
    }

    fn schedule_with(residencies: Vec<Residency>) -> Schedule {
        let mut per: std::collections::BTreeMap<VideoId, VideoSchedule> = Default::default();
        for r in residencies {
            per.entry(r.video).or_insert_with(|| VideoSchedule::new(r.video)).residencies.push(r);
        }
        per.into_values().collect()
    }

    #[test]
    fn interval_basics() {
        let a = Interval::new(0.0, 10.0);
        assert_eq!(a.len(), 10.0);
        assert!(!a.is_empty());
        assert!(a.overlaps(&Interval::new(5.0, 15.0)));
        assert!(!a.overlaps(&Interval::new(10.0, 15.0))); // touching ≠ overlapping
        assert!(Interval::new(3.0, 3.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "reversed interval")]
    fn reversed_interval_panics() {
        Interval::new(5.0, 1.0);
    }

    #[test]
    fn single_fitting_residency_is_fine() {
        let (topo, catalog) = setup(5.0);
        // One long residency of a 2.5 GB file in a 5 GB store: no overflow.
        let s = schedule_with(vec![residency(0, 1, 0.0, 10_000.0)]);
        let ledger = StorageLedger::from_schedule(&topo, &catalog, &s);
        assert!(detect_overflows(&topo, &ledger).is_empty());
    }

    #[test]
    fn three_concurrent_copies_overflow_a_5gb_store() {
        let (topo, catalog) = setup(5.0);
        // Three videos? catalog has 2; reuse both videos plus another copy of
        // video 0 at a disjoint interval is same video — use capacity 4 GB
        // instead with two 2.5 GB copies.
        let mut topo = topo;
        topo.set_uniform_capacity(units::gb(4.0)).unwrap();
        let s =
            schedule_with(vec![residency(0, 1, 0.0, 10_000.0), residency(1, 1, 2_000.0, 12_000.0)]);
        let ledger = StorageLedger::from_schedule(&topo, &catalog, &s);
        let ofs = detect_overflows(&topo, &ledger);
        assert_eq!(ofs.len(), 1);
        let of = &ofs[0];
        assert_eq!(of.loc, NodeId(1));
        // Concurrency starts when the second copy reaches full plateau…
        // both are long residencies so plateau = size from their t_s.
        assert!((of.window.start - 2_000.0).abs() < 1e-6, "start {}", of.window.start);
        // …and ends partway through the joint drain. On [10000, 12000] the
        // first copy drains while the second holds its plateau, reaching
        // 2.5·(1 − 2000/5400) + 2.5 ≈ 4.074 GB at t = 12000; from then on
        // both drain at 2.5/5400 GB/s each, crossing 4 GB 80 s later:
        // t = 12080.
        assert!((of.window.end - 12_080.0).abs() < 1.0, "end {}", of.window.end);
        assert!((of.peak_excess - units::gb(1.0)).abs() < 1e-3);
    }

    #[test]
    fn disjoint_residencies_do_not_overflow() {
        let (mut topo, catalog) = setup(5.0);
        topo.set_uniform_capacity(units::gb(3.0)).unwrap();
        // Second copy starts after the first has fully drained (t_f + P).
        let s =
            schedule_with(vec![residency(0, 1, 0.0, 1_000.0), residency(1, 1, 7_000.0, 9_000.0)]);
        let ledger = StorageLedger::from_schedule(&topo, &catalog, &s);
        assert!(detect_overflows(&topo, &ledger).is_empty());
    }

    #[test]
    fn two_separate_overflow_windows_are_reported_separately() {
        let (mut topo, catalog) = setup(5.0);
        topo.set_uniform_capacity(units::gb(4.0)).unwrap();
        let s = schedule_with(vec![
            // Base long residency of video 0 spanning the whole day.
            residency(0, 1, 0.0, 80_000.0),
            // Video 1 visits twice, far apart — need two residencies of the
            // same video… the schedule model allows it (SORP may create
            // such). Overlap windows: [20000,25000] and [60000,65000].
            residency(1, 1, 20_000.0, 25_000.0),
            residency(1, 2, 0.0, 0.0), // degenerate elsewhere, no effect
        ]);
        // Add the second visit manually to the same video schedule.
        let mut s = s;
        let mut vs1 = s.video(VideoId(1)).unwrap().clone();
        vs1.residencies.push(residency(1, 1, 60_000.0, 65_000.0));
        s.upsert(vs1);

        let ledger = StorageLedger::from_schedule(&topo, &catalog, &s);
        let ofs = detect_overflows(&topo, &ledger);
        assert_eq!(ofs.len(), 2, "got {ofs:?}");
        assert!(ofs[0].window.end < ofs[1].window.start);
    }

    #[test]
    fn overflow_set_selects_overlapping_residencies_only() {
        let (mut topo, catalog) = setup(5.0);
        topo.set_uniform_capacity(units::gb(4.0)).unwrap();
        let s =
            schedule_with(vec![residency(0, 1, 0.0, 10_000.0), residency(1, 1, 2_000.0, 12_000.0)]);
        let ledger = StorageLedger::from_schedule(&topo, &catalog, &s);
        let ofs = detect_overflows(&topo, &ledger);
        let set = overflow_set(&ledger, &ofs[0]);
        assert_eq!(set.len(), 2);
        // Deterministic order by video id.
        assert_eq!(set[0].0, VideoId(0));
        assert_eq!(set[1].0, VideoId(1));
    }

    #[test]
    fn degenerate_residencies_never_appear_in_overflow_sets() {
        let (mut topo, catalog) = setup(5.0);
        topo.set_uniform_capacity(units::gb(4.0)).unwrap();
        let s =
            schedule_with(vec![residency(0, 1, 0.0, 10_000.0), residency(1, 1, 2_000.0, 12_000.0)]);
        let mut s = s;
        let mut vs0 = s.video(VideoId(0)).unwrap().clone();
        vs0.residencies.push(residency(0, 1, 3_000.0, 3_000.0)); // zero space
        s.upsert(vs0);
        let ledger = StorageLedger::from_schedule(&topo, &catalog, &s);
        let ofs = detect_overflows(&topo, &ledger);
        assert_eq!(ofs.len(), 1);
        let set = overflow_set(&ledger, &ofs[0]);
        assert_eq!(set.len(), 2, "degenerate residency must be excluded");
    }

    #[test]
    fn exact_fit_is_not_an_overflow() {
        let (mut topo, catalog) = setup(5.0);
        topo.set_uniform_capacity(units::gb(2.5)).unwrap();
        let s = schedule_with(vec![residency(0, 1, 0.0, 10_000.0)]);
        let ledger = StorageLedger::from_schedule(&topo, &catalog, &s);
        assert!(detect_overflows(&topo, &ledger).is_empty());
    }

    #[test]
    fn empty_schedule_has_no_overflows() {
        let (topo, catalog) = setup(5.0);
        let s = Schedule::new();
        let ledger = StorageLedger::from_schedule(&topo, &catalog, &s);
        assert!(detect_overflows(&topo, &ledger).is_empty());
    }

    /// The streams of the baseline that ships every request from the
    /// warehouse, on fig4 with the given per-link bandwidth.
    fn network_only_streams(bandwidth: Option<f64>) -> (Topology, StorageLedger) {
        use crate::{baselines, SchedCtx};
        use vod_cost_model::CostModel;
        use vod_workload::{CatalogConfig, RequestConfig, Workload};
        let mut topo = builders::paper_fig4(&builders::PaperFig4Config::default());
        topo.set_uniform_bandwidth(bandwidth).unwrap();
        let wl = Workload::generate(&topo, &CatalogConfig::small(40), &RequestConfig::paper(), 1);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let mut ledger = StorageLedger::new(&topo);
        ledger.add_streams(&topo, &wl.catalog, &baselines::network_only(&ctx, &wl.requests));
        (topo, ledger)
    }

    #[test]
    fn unlimited_links_never_overload() {
        let (topo, ledger) = network_only_streams(None);
        assert!((0..topo.edge_count()).any(|e| !ledger.link_profiles(e).is_empty()));
        assert!(detect_link_overloads(&topo, &ledger).is_empty());
        assert!(detect_overflows(&topo, &ledger).is_empty(), "streams occupy no storage");
    }

    #[test]
    fn tight_links_overload_under_network_only() {
        // One stream's worth of bandwidth per link: concurrent streams on a
        // shared link must trip detection.
        let (topo, ledger) = network_only_streams(Some(units::mbps(5.0)));
        let overloads = detect_link_overloads(&topo, &ledger);
        assert!(
            !overloads.is_empty(),
            "190 daily streams through a 1-stream backbone must collide"
        );
        for o in &overloads {
            assert!(o.peak_excess > 0.0);
            assert!(o.window.len() > 0.0);
        }
        assert!(overloads
            .windows(2)
            .all(|w| (w[0].edge, w[0].window.end) <= (w[1].edge, w[1].window.start)));
    }

    fn same_overflows(a: &[Overflow], b: &[Overflow]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.loc == y.loc
                    && x.window == y.window
                    && x.peak_excess.to_bits() == y.peak_excess.to_bits()
            })
    }

    /// [`overflows_at`] without its plateau-sum fast path: every row walked.
    fn walked(ledger: &StorageLedger, topo: &Topology) -> Vec<Overflow> {
        let mut out = Vec::new();
        for loc in topo.storages() {
            let capacity = topo.capacity(loc);
            let emit = |window, peak_excess| out.push(Overflow { loc, window, peak_excess });
            let mut scan = OverflowScan { capacity, open: None, last_t: f64::NEG_INFINITY, emit };
            ledger.for_each_segment(loc, |t0, t1, u0, u1| scan.segment(t0, t1, u0, u1));
            scan.finish();
        }
        out
    }

    #[test]
    fn the_scan_fast_path_changes_no_answer_and_no_rescan_count() {
        use vod_cost_model::SpaceProfile;
        let p = |start: Secs, gb: f64| {
            SpaceProfile::new(start, start + 20_000.0, units::gb(gb), units::minutes(90.0))
        };
        let mut ledger = StorageLedger::new(&setup(5.0).0);
        ledger.add(NodeId(1), VideoId(0), p(0.0, 2.5 / 3.0));
        ledger.add(NodeId(1), VideoId(1), p(10_000.0, 1.7 / 7.0));
        ledger.add(NodeId(2), VideoId(0), p(0.0, 0.3));
        // A long remove chain beside the residents drifts the plateau sum.
        for _ in 0..500 {
            ledger.add(NodeId(1), VideoId(2), p(3_000.0, 37.3 / 11.0));
            ledger.remove(NodeId(1), VideoId(2));
        }
        let sum = ledger.plateau_sum(NodeId(1));
        let exact = units::gb(2.5 / 3.0) + units::gb(1.7 / 7.0);
        assert_ne!(sum, exact, "the chain left the sum exact");
        let mut brim = 0.0f64;
        ledger.for_each_segment(NodeId(1), |_, _, u0, u1| brim = brim.max(u0).max(u1));
        let mut fast_paths = 0;
        for capacity in [0.9 * sum, sum, f64::from_bits(sum.to_bits() + 1), brim, 0.9 * brim] {
            let mut topo = setup(5.0).0;
            topo.set_uniform_capacity(capacity).unwrap();
            fast_paths += topo.storages().filter(|&l| ledger.plateau_sum(l) <= capacity).count();
            let flat = |mon: &OverflowMonitor| -> Vec<Overflow> {
                mon.scans().iter().flat_map(|(_, _, ofs)| ofs.iter().cloned()).collect()
            };
            let mut mon = OverflowMonitor::new();
            assert_eq!(mon.refresh(&topo, &ledger), topo.storages().count());
            assert!(same_overflows(&detect_overflows(&topo, &ledger), &walked(&ledger, &topo)));
            assert!(same_overflows(&flat(&mon), &walked(&ledger, &topo)));
            // A row that moved is rescanned — and counted — fast path or not.
            let mut moved = ledger.clone();
            moved.remove(NodeId(2), VideoId(0));
            assert_eq!(mon.refresh(&topo, &moved), 1);
            assert!(same_overflows(&flat(&mon), &walked(&moved, &topo)));
        }
        assert!(fast_paths > 0);
    }

    #[test]
    fn monitor_matches_full_scan_and_rescans_only_dirty_nodes() {
        use vod_cost_model::SpaceProfile;
        let (mut topo, catalog) = setup(5.0);
        topo.set_uniform_capacity(units::gb(4.0)).unwrap();
        let s =
            schedule_with(vec![residency(0, 1, 0.0, 10_000.0), residency(1, 1, 2_000.0, 12_000.0)]);
        let mut ledger = StorageLedger::from_schedule(&topo, &catalog, &s);
        let flat = |mon: &OverflowMonitor| -> Vec<Overflow> {
            mon.scans().iter().flat_map(|(_, _, ofs)| ofs.iter().cloned()).collect()
        };

        let mut mon = OverflowMonitor::new();
        assert!(mon.refresh(&topo, &ledger) > 0, "first refresh scans everything");
        let inc = flat(&mon);
        assert!(same_overflows(&inc, &detect_overflows(&topo, &ledger)));

        // No mutation: nothing rescanned, same answer.
        assert_eq!(mon.refresh(&topo, &ledger), 0);
        assert!(same_overflows(&flat(&mon), &inc));

        // Mutate one node: exactly that node is rescanned and the answer
        // tracks the full scan.
        ledger.remove(NodeId(1), vod_cost_model::VideoId(1));
        ledger.add(
            NodeId(2),
            vod_cost_model::VideoId(1),
            SpaceProfile::new(2_000.0, 12_000.0, units::gb(2.5), units::minutes(90.0)),
        );
        assert_eq!(mon.refresh(&topo, &ledger), 2, "both mutated nodes rescan");
        for (loc, version, _) in mon.scans() {
            assert_eq!(*version, ledger.node_version(*loc), "a scan carries the version it read");
        }
        let after = flat(&mon);
        assert!(same_overflows(&after, &detect_overflows(&topo, &ledger)));
        assert!(after.iter().all(|of| of.loc != NodeId(1)), "node 1 resolved");
    }
}
