//! Property tests: the production ledger (incremental occupancy
//! timeline) must agree with the flat scan of its own entries
//! (`vod_oracles::flat`) — same `usage_at`, `peak_with`, `fits`, and
//! overflow detection — on random workloads, including add/remove
//! interleavings and the `exclude` path.

use proptest::prelude::*;
use vod_core::{detect_overflows, StorageLedger};
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
                ledger.remove_video(VideoId(*vid));
            }
        }
    }
    ledger
}

/// Agreement within 1e-9 *relative to the magnitude of the ingredients*:
/// timeline evaluation is a sum/difference of terms of size `scale`
/// (bytes resident at the node), so near-zero results carry absolute
/// cancellation residue on the order of `scale · ulp`, far below
/// `1e-9 · scale`.
fn rel_close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()).max(scale))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// `usage_at` agrees between the timeline and the flat sum at random
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

    /// `peak_with` and `fits` agree between the timeline walk and the
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
    /// timeline segment walk and the flat midpoint scan.
    #[test]
    fn detect_overflows_matches_reference(w in workload_strategy()) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, w.capacity_gb);
        let fast = build_ledger(&topo, &w);
        let a = detect_overflows(&topo, &fast);
        let b = flat::detect_overflows(&topo, &fast);
        prop_assert_eq!(a.len(), b.len(), "{a:?} vs {b:?}");
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.loc, y.loc);
            let scale = fast.plateau_sum(x.loc);
            // Crossing *times* amplify byte-level residue by the inverse
            // segment slope, so compare them at a correspondingly looser
            // (but still tight in absolute seconds) tolerance.
            let tclose = |p: Secs, q: Secs| (p - q).abs() <= 1e-6 * (1.0 + p.abs().max(q.abs()));
            prop_assert!(tclose(x.window.start, y.window.start), "{x:?} vs {y:?}");
            prop_assert!(tclose(x.window.end, y.window.end), "{x:?} vs {y:?}");
            prop_assert!(rel_close(x.peak_excess, y.peak_excess, scale), "{x:?} vs {y:?}");
        }
    }

    /// Removing everything returns the ledger to an exactly-empty state:
    /// no float residue in the timeline aggregates.
    #[test]
    fn full_removal_leaves_exact_zero(w in workload_strategy()) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, w.capacity_gb);
        let mut fast = build_ledger(&topo, &w);
        for v in 0..12 {
            fast.remove_video(VideoId(v));
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
