//! Property tests: the production ledger (one sorted breakpoint array
//! per row) must agree with the flat scan of its own entries
//! (`vod_oracles::flat`) — same `usage_at`, `peak_with`, `fits`, and
//! overflow detection — on random workloads, including add/remove
//! interleavings and the `exclude` path, and on link rows filled with
//! streams; and a row must read the same bits whatever order its
//! residencies arrived in.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use vod_core::{detect_link_overloads, detect_overflows, Overflow, StorageLedger};
use vod_cost_model::{Secs, SpaceModel, SpaceProfile, VideoId};
use vod_oracles::flat;
use vod_topology::{builders, units, NodeId, Topology};

/// One residency profile drawn from the strategy, plus where it lives.
#[derive(Clone, Debug)]
struct Item {
    video: u32,
    loc: u32,
    start: Secs,
    hold: Secs,
    size_gb: f64,
    playback: Secs,
    gradual: bool,
}

impl Item {
    fn profile(&self) -> SpaceProfile {
        let model =
            if self.gradual { SpaceModel::GradualFill } else { SpaceModel::InstantReservation };
        SpaceProfile::with_model(
            self.start,
            self.start + self.hold,
            units::gb(self.size_gb),
            self.playback,
            model,
        )
    }
}

/// A random workload over the two storages of the Fig. 2 topology:
/// residencies to add, a subset of videos to remove again (interleaved
/// mid-stream), and query/candidate parameters.
#[derive(Clone, Debug)]
struct Workload {
    items: Vec<Item>,
    /// After adding item `i`, remove video `remove_after[j].1` whenever
    /// `remove_after[j].0 == i` — an arbitrary add/remove interleaving.
    remove_after: Vec<(usize, u32)>,
    capacity_gb: f64,
    candidate: Item,
    exclude: Option<u32>,
    query_times: Vec<Secs>,
}

fn item_strategy() -> impl Strategy<Value = Item> {
    (
        0u32..12,
        1u32..3, // NodeId(1) or NodeId(2): the two intermediate storages
        0.0f64..50_000.0,
        0.0f64..20_000.0,
        0.0f64..4.0,
        prop_oneof![Just(900.0), Just(1800.0), Just(5400.0)],
        any::<bool>(),
    )
        .prop_map(|(video, loc, start, hold, size_gb, playback, gradual)| Item {
            video,
            loc,
            start,
            hold,
            size_gb,
            playback,
            gradual,
        })
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (
        proptest::collection::vec(item_strategy(), 1..24),
        proptest::collection::vec((0usize..24, 0u32..12), 0..6),
        prop_oneof![Just(2.0), Just(4.0), Just(6.0), Just(1000.0)],
        item_strategy(),
        (any::<bool>(), 0u32..12).prop_map(|(some, v)| some.then_some(v)),
        proptest::collection::vec(0.0f64..80_000.0, 1..8),
    )
        .prop_map(|(items, remove_after, capacity_gb, candidate, exclude, query_times)| {
            Workload { items, remove_after, capacity_gb, candidate, exclude, query_times }
        })
}

/// Build the ledger by replaying the workload's add/remove interleaving.
fn build_ledger(topo: &Topology, w: &Workload) -> StorageLedger {
    let mut ledger = StorageLedger::new(topo);
    for (i, item) in w.items.iter().enumerate() {
        ledger.add(NodeId(item.loc), VideoId(item.video), item.profile());
        for (after, vid) in &w.remove_after {
            if *after == i {
                for loc in [NodeId(1), NodeId(2)] {
                    ledger.remove(loc, VideoId(*vid));
                }
            }
        }
    }
    ledger
}

/// One stream drawn from the strategy: a step on one of the Fig. 2
/// topology's two links, and optionally a partner step abutting it
/// end-to-start, offered after it or before it.
#[derive(Clone, Debug)]
struct Stream {
    edge: usize,
    start: Secs,
    dur: Secs,
    /// In units of one 5 Mbps stream.
    rate: u32,
    /// `(partner duration, partner rate, partner offered first)`.
    partner: Option<(Secs, u32, bool)>,
}

fn stream_strategy() -> impl Strategy<Value = Stream> {
    let partner = (any::<bool>(), 1.0f64..20_000.0, 1u32..4, any::<bool>())
        .prop_map(|(some, dur, rate, first)| some.then_some((dur, rate, first)));
    (0usize..2, 0.0f64..50_000.0, 1.0f64..20_000.0, 1u32..4, partner)
        .prop_map(|(edge, start, dur, rate, partner)| Stream { edge, start, dur, rate, partner })
}

impl Stream {
    /// The steps this draw offers, in offer order, each on its link.
    fn steps(&self) -> Vec<(usize, SpaceProfile)> {
        let unit = units::mbps(5.0);
        let own = SpaceProfile::step(self.start, self.start + self.dur, unit * self.rate as f64);
        let Some((dur, rate, first)) = self.partner else { return vec![(self.edge, own)] };
        let partner = SpaceProfile::step(own.end, own.end + dur, unit * rate as f64);
        let pair = if first { [partner, own] } else { [own, partner] };
        pair.map(|p| (self.edge, p)).to_vec()
    }
}

/// One step of a ledger's history: add a residency, remove a video at both
/// storages, or bring one large profile in and out `n` times beside
/// whatever is resident — a long remove chain that drifts the row's
/// plateau sum away from the exact sum of its residents' plateaus.
#[derive(Clone, Debug)]
enum Step {
    Add(Item),
    Remove(u32),
    Churn(Item, usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0u32..4, item_strategy(), 0u32..12, 1usize..300, 1.0f64..40.0).prop_map(
        |(kind, item, video, n, churn_gb)| match kind {
            0 | 1 => Step::Add(item),
            2 => Step::Remove(video),
            _ => Step::Churn(Item { video: 99, size_gb: churn_gb, ..item }, n),
        },
    )
}

impl Step {
    fn apply(&self, ledger: &mut StorageLedger) {
        match self {
            Step::Add(item) => ledger.add(NodeId(item.loc), VideoId(item.video), item.profile()),
            Step::Remove(video) => {
                for loc in [NodeId(1), NodeId(2)] {
                    ledger.remove(loc, VideoId(*video));
                }
            }
            Step::Churn(item, n) => {
                for _ in 0..*n {
                    ledger.add(NodeId(item.loc), VideoId(item.video), item.profile());
                    ledger.remove(NodeId(item.loc), VideoId(item.video));
                }
            }
        }
    }
}

/// The bits a row reads: `usage_at` at `times`, `peak_with` of the
/// candidate, every segment, and the `fits` verdict.
fn row_reading(
    topo: &Topology,
    ledger: &StorageLedger,
    loc: NodeId,
    w: &Workload,
    times: &[Secs],
) -> (Vec<u64>, u64, Vec<[u64; 4]>, bool) {
    let cand = w.candidate.profile();
    let exclude = w.exclude.map(VideoId);
    let usage = times.iter().map(|&t| ledger.usage_at(loc, t, None).to_bits()).collect();
    let mut segments = Vec::new();
    ledger
        .for_each_segment(loc, |t0, t1, u0, u1| segments.push([t0, t1, u0, u1].map(f64::to_bits)));
    let peak = ledger.peak_with(loc, &cand, exclude).to_bits();
    (usage, peak, segments, ledger.fits(topo, loc, &cand, exclude))
}

/// Agreement within 1e-9 *relative to the magnitude of the ingredients*:
/// row evaluation is a sum/difference of terms of size `scale`
/// (bytes resident at the node), so near-zero results carry absolute
/// cancellation residue on the order of `scale · ulp`, far below
/// `1e-9 · scale`.
fn rel_close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()).max(scale))
}

/// `detect_overflows` equals the flat scan on `ledger`, window for window,
/// at every storage or only at `at`.
fn same_overflows(
    topo: &Topology,
    ledger: &StorageLedger,
    at: Option<NodeId>,
) -> Result<(), TestCaseError> {
    let keep = |ofs: Vec<Overflow>| -> Vec<Overflow> {
        ofs.into_iter().filter(|of| at.is_none_or(|loc| of.loc == loc)).collect()
    };
    let a = keep(detect_overflows(topo, ledger));
    let b = keep(flat::detect_overflows(topo, ledger));
    prop_assert_eq!(a.len(), b.len(), "{a:?} vs {b:?}");
    for (x, y) in a.iter().zip(&b) {
        prop_assert_eq!(x.loc, y.loc);
        let scale = ledger.plateau_sum(x.loc);
        // Crossing *times* amplify byte-level residue by the inverse
        // segment slope, so compare them at a correspondingly looser
        // (but still tight in absolute seconds) tolerance.
        let tclose = |p: Secs, q: Secs| (p - q).abs() <= 1e-6 * (1.0 + p.abs().max(q.abs()));
        prop_assert!(tclose(x.window.start, y.window.start), "{x:?} vs {y:?}");
        prop_assert!(tclose(x.window.end, y.window.end), "{x:?} vs {y:?}");
        prop_assert!(rel_close(x.peak_excess, y.peak_excess, scale), "{x:?} vs {y:?}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// `usage_at` agrees between the ledger and the flat sum at random
    /// times, at every breakpoint, and under exclusion.
    #[test]
    fn usage_at_matches_reference(w in workload_strategy()) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, w.capacity_gb);
        let fast = build_ledger(&topo, &w);
        let exclude = w.exclude.map(VideoId);
        for loc in [NodeId(1), NodeId(2)] {
            let entries = fast.profiles_at(loc);
            let scale = fast.plateau_sum(loc);
            let mut times = w.query_times.clone();
            times.extend(entries.iter().flat_map(|(_, p)| p.breakpoints()));
            for &t in &times {
                let a = fast.usage_at(loc, t, exclude);
                let b = flat::usage_at(entries, t, exclude);
                prop_assert!(rel_close(a, b, scale), "usage_at({loc:?}, {t}) {a} vs {b}");
            }
        }
    }

    /// `peak_with` and `fits` agree between the ledger's walk and the
    /// flat midpoint rescan for random candidates, with and without
    /// exclusion.
    #[test]
    fn peak_and_fits_match_reference(w in workload_strategy()) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, w.capacity_gb);
        let fast = build_ledger(&topo, &w);
        let cand = w.candidate.profile();
        let exclude = w.exclude.map(VideoId);
        for loc in [NodeId(1), NodeId(2)] {
            let entries = fast.profiles_at(loc);
            let scale = fast.plateau_sum(loc) + cand.peak();
            let a = fast.peak_with(loc, &cand, exclude);
            let b = flat::peak_with(entries, &cand, exclude);
            prop_assert!(rel_close(a, b, scale), "peak_with({loc:?}) {a} vs {b}");
            prop_assert_eq!(
                fast.fits(&topo, loc, &cand, exclude),
                flat::fits(entries, topo.capacity(loc), &cand, exclude),
                "fits({:?}) diverged at peak {}", loc, a
            );
        }
    }

    /// Overflow detection — windows and peak excess — agrees between the
    /// ledger's segment walk and the flat midpoint scan.
    #[test]
    fn detect_overflows_matches_reference(w in workload_strategy()) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, w.capacity_gb);
        let fast = build_ledger(&topo, &w);
        same_overflows(&topo, &fast, None)?;
    }

    /// The scan's fast path — a row whose plateau sum fits its capacity is
    /// not walked — changes no window: over random add/remove histories,
    /// long remove chains among them, at capacities below, at and just
    /// above each row's (drifted) plateau sum and at its exact brim, the
    /// production scan equals the flat scan window for window. Only the
    /// row the capacity was drawn for is compared: the capacity applies to
    /// both storages, and near zero it sits below the row's
    /// cancellation residue on the other one.
    #[test]
    fn scan_fast_path_matches_reference(
        steps in proptest::collection::vec(step_strategy(), 1..32),
        below in 0.001f64..0.5,
    ) {
        let mut ledger = StorageLedger::new(&builders::paper_fig2(16.0, 8.0, 1.0, 1.0));
        for step in &steps {
            step.apply(&mut ledger);
        }
        for loc in [NodeId(1), NodeId(2)] {
            let sum = ledger.plateau_sum(loc);
            let mut brim = 0.0f64;
            ledger.for_each_segment(loc, |_, _, u0, u1| brim = brim.max(u0).max(u1));
            for capacity in [sum * (1.0 - below), sum, f64::from_bits(sum.to_bits() + 1), brim] {
                let mut topo = builders::paper_fig2(16.0, 8.0, 1.0, 1.0);
                topo.set_uniform_capacity(capacity).unwrap();
                same_overflows(&topo, &ledger, Some(loc))?;
            }
        }
    }

    /// Link rows built through admission: every `link_fits` verdict on the
    /// way equals the flat scan's `fits` on the row's entries, and the
    /// overload windows of the rows against a tighter bandwidth equal the
    /// flat scan's. Verdicts, not peaks: the walk also counts a stream
    /// that starts exactly at the candidate's end, which never decides a
    /// verdict on rows that admission kept under their capacity.
    #[test]
    fn link_rows_match_reference(
        streams in proptest::collection::vec(stream_strategy(), 1..32),
        capacity in 2u32..6,
    ) {
        let unit = units::mbps(5.0);
        let mut admit = builders::paper_fig2(16.0, 8.0, 1.0, 5.0);
        admit.set_uniform_bandwidth(Some(unit * capacity as f64)).unwrap();
        let mut tight = admit.clone();
        tight.set_uniform_bandwidth(Some(unit * (capacity - 1) as f64)).unwrap();
        let mut ledger = StorageLedger::new(&admit);
        let mut admitted = 0;
        for (i, s) in streams.iter().enumerate() {
            for (edge, step) in s.steps() {
                let e = &admit.edges()[edge];
                let cap = e.bandwidth.unwrap();
                let fits = ledger.link_fits(&admit, edge, &step);
                let want = flat::fits(ledger.link_profiles(edge), cap, &step, None);
                prop_assert_eq!(fits, want, "stream {} on link {}: {:?}", i, edge, step);
                if fits {
                    ledger.add_stream(&admit, &[e.a, e.b], VideoId(i as u32), step);
                    admitted += 1;
                }
            }
        }
        prop_assert!(admitted > 0);
        prop_assert!(detect_link_overloads(&admit, &ledger).is_empty());
        let found = detect_link_overloads(&tight, &ledger);
        let want: Vec<_> = (0..tight.edge_count())
            .flat_map(|edge| {
                let windows = flat::overflows_at(ledger.link_profiles(edge), unit * (capacity - 1) as f64);
                windows.into_iter().map(move |(window, peak)| (edge, window, peak))
            })
            .collect();
        prop_assert_eq!(found.len(), want.len(), "{:?} vs {:?}", found, want);
        for (got, (edge, window, peak)) in found.iter().zip(&want) {
            prop_assert_eq!((got.edge, got.window, got.peak_excess), (*edge, *window, *peak));
        }
    }

    /// A row is its breakpoints sorted by time, so a residency set whose
    /// breakpoint times are distinct reads bit-identically whatever order
    /// it was added in: `usage_at`, `peak_with` and every segment to the
    /// bit, and the same `fits` verdict. (Deltas at an equal time fold
    /// into one entry in arrival order.)
    #[test]
    fn insertion_order_changes_no_bit(
        w in workload_strategy(),
        keys in proptest::collection::vec((any::<u64>(), any::<u64>()), 24..25),
    ) {
        let mut deltas: Vec<Secs> = w
            .items
            .iter()
            .flat_map(|i| i.profile().slope_deltas().as_slice().iter().map(|d| d.t).collect::<Vec<_>>())
            .collect();
        deltas.sort_by(f64::total_cmp);
        prop_assume!(deltas.windows(2).all(|d| d[0] != d[1]));
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, w.capacity_gb);
        let build = |key: fn(&(u64, u64)) -> u64| {
            let mut order: Vec<usize> = (0..w.items.len()).collect();
            order.sort_by_key(|&i| key(&keys[i]));
            let mut ledger = StorageLedger::new(&topo);
            for i in order {
                let item = &w.items[i];
                ledger.add(NodeId(item.loc), VideoId(item.video), item.profile());
            }
            ledger
        };
        let (a, b) = (build(|k| k.0), build(|k| k.1));
        let mut times = w.query_times.clone();
        times.extend(deltas);
        for loc in [NodeId(1), NodeId(2)] {
            prop_assert_eq!(row_reading(&topo, &a, loc, &w, &times), row_reading(&topo, &b, loc, &w, &times));
        }
    }

    /// Removing everything returns the ledger to an exactly-empty state:
    /// no float residue in the row's breakpoints.
    #[test]
    fn full_removal_leaves_exact_zero(w in workload_strategy()) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, w.capacity_gb);
        let mut fast = build_ledger(&topo, &w);
        for (v, loc) in (0..12).flat_map(|v| [(v, NodeId(1)), (v, NodeId(2))]) {
            fast.remove(loc, VideoId(v));
        }
        for loc in [NodeId(1), NodeId(2)] {
            prop_assert_eq!(fast.profile_count(loc), 0);
            prop_assert_eq!(fast.plateau_sum(loc), 0.0);
            let mut segments = 0;
            fast.for_each_segment(loc, |_, _, _, _| segments += 1);
            prop_assert_eq!(segments, 0);
            for &t in &w.query_times {
                prop_assert_eq!(fast.usage_at(loc, t, None), 0.0);
            }
        }
    }
}
