//! Incremental piecewise-linear occupancy timeline.
//!
//! The aggregate occupancy of one storage is the sum of its residencies'
//! space profiles (Eq. 6) — a piecewise-linear, right-continuous function
//! of time. This module maintains that function *incrementally* as an
//! ordered set of breakpoints carrying aggregate (Δvalue, Δslope) deltas:
//! a profile's [`vod_cost_model::BreakDelta`]s are merged in on insert and
//! subtracted out on removal, each in O(log n) per breakpoint.
//!
//! The set is stored in a deterministic treap (priorities derived from
//! the breakpoint's time bits, so the tree shape — and therefore every
//! floating-point accumulation order — is a pure function of the *set* of
//! breakpoint times, independent of insertion order). Each node carries
//! subtree sums of its deltas, which gives:
//!
//! * [`OccupancyTimeline::prefix`] — the aggregate value and slope just
//!   after any time `t`, in O(log n);
//! * [`OccupancyTimeline::visit_range`] — the breakpoints inside a query
//!   support, in O(log n + span);
//! * [`OccupancyTimeline::for_each_segment`] — one exact left-limit walk
//!   over all linear segments, in O(n), allocation-free.
//!
//! Evaluation uses the linear form `f(t) = J + S·t − W` with `J = Σ
//! jumpᵢ`, `S = Σ slopeᵢ`, `W = Σ slopeᵢ·tᵢ` over breakpoints `tᵢ ≤ t`,
//! so left limits at a breakpoint are exact (sums *excluding* that
//! breakpoint's delta) — no midpoint-reconstruction trick, no catastrophic
//! cancellation on near-vertical segments.

use vod_cost_model::{Bytes, Secs};
use vod_topology::SplitMix64;

/// Arena index; `NIL` is the empty subtree.
type Idx = u32;
const NIL: Idx = u32::MAX;

/// Prefix sums of the delta set up to (and including) some time: the
/// aggregate occupancy at `t` is `value_at(t) = jump + slope·t − slope_t`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Prefix {
    /// Σ value jumps.
    pub jump: f64,
    /// Σ slope deltas (the aggregate's current slope).
    pub slope: f64,
    /// Σ slope deltas × their breakpoint times.
    pub slope_t: f64,
}

impl Prefix {
    /// Fold one breakpoint's delta into the prefix.
    #[inline]
    fn absorb(&mut self, t: f64, jump: f64, dslope: f64) {
        self.jump += jump;
        self.slope += dslope;
        self.slope_t += dslope * t;
    }

    /// Evaluate the aggregate at `t` given these prefix sums.
    #[inline]
    pub fn value_at(&self, t: Secs) -> Bytes {
        self.jump + self.slope * t - self.slope_t
    }
}

#[derive(Clone, Copy, Debug)]
struct Node {
    /// Breakpoint time (finite by construction).
    t: f64,
    /// Heap priority, derived deterministically from `t`'s bits.
    prio: u64,
    /// Aggregate right-continuous value jump at `t`.
    jump: f64,
    /// Aggregate slope change at `t`.
    dslope: f64,
    /// How many profile breakpoints currently share this time; the node
    /// is freed when the count returns to zero, so removing the last
    /// profile leaves an exactly-empty timeline (no float residue).
    refs: u32,
    left: Idx,
    right: Idx,
    /// Subtree sums (including this node).
    agg_jump: f64,
    agg_dslope: f64,
    agg_dslope_t: f64,
}

/// The incremental occupancy timeline of one storage.
#[derive(Clone, Debug)]
pub struct OccupancyTimeline {
    nodes: Vec<Node>,
    free: Vec<Idx>,
    root: Idx,
    len: usize,
    /// Mutation counter: ticks on every [`OccupancyTimeline::add`] and
    /// [`OccupancyTimeline::remove`]. Two reads of the timeline separated
    /// by an unchanged version saw the identical function (same delta
    /// set, same tree shape, same accumulation order) — the commit-delta
    /// signal behind the dirty-node overflow rescan.
    version: u64,
}

impl Default for OccupancyTimeline {
    fn default() -> Self {
        Self::new()
    }
}

impl OccupancyTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self { nodes: Vec::new(), free: Vec::new(), root: NIL, len: 0, version: 0 }
    }

    /// The mutation counter: any change to the timeline since a previous
    /// read is visible as a different version. Equal versions guarantee a
    /// bit-identical function; unequal versions are a conservative "may
    /// have changed" signal (an add/remove pair that restores the same
    /// state still ticks it twice).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether the timeline holds no breakpoints.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Merge one breakpoint delta in (O(log n)).
    pub fn add(&mut self, t: Secs, jump: Bytes, dslope: f64) {
        debug_assert!(t.is_finite(), "breakpoint time must be finite, got {t}");
        self.version += 1;
        self.root = self.add_rec(self.root, t, jump, dslope);
    }

    /// Subtract one breakpoint delta out (O(log n)). Must mirror an
    /// earlier [`OccupancyTimeline::add`] with identical arguments; the
    /// breakpoint node is freed when its last contributor leaves.
    pub fn remove(&mut self, t: Secs, jump: Bytes, dslope: f64) {
        self.version += 1;
        self.root = self.remove_rec(self.root, t, jump, dslope);
    }

    /// Prefix sums over every breakpoint with time `≤ t` (O(log n)).
    /// `prefix(t).value_at(t)` is the aggregate occupancy at `t`,
    /// right-continuous like [`vod_cost_model::SpaceProfile::space_at`].
    pub fn prefix(&self, t: Secs) -> Prefix {
        let mut p = Prefix::default();
        let mut cur = self.root;
        while cur != NIL {
            let n = self.nodes[cur as usize];
            if n.t <= t {
                if n.left != NIL {
                    let l = &self.nodes[n.left as usize];
                    p.jump += l.agg_jump;
                    p.slope += l.agg_dslope;
                    p.slope_t += l.agg_dslope_t;
                }
                p.absorb(n.t, n.jump, n.dslope);
                cur = n.right;
            } else {
                cur = n.left;
            }
        }
        p
    }

    /// In-order visit of every breakpoint with time in `(a, b]`
    /// (O(log n + visited)).
    pub fn visit_range<F: FnMut(Secs, Bytes, f64)>(&self, a: Secs, b: Secs, mut f: F) {
        self.visit_range_rec(self.root, a, b, &mut f);
    }

    fn visit_range_rec<F: FnMut(Secs, Bytes, f64)>(&self, x: Idx, a: Secs, b: Secs, f: &mut F) {
        if x == NIL {
            return;
        }
        let n = self.nodes[x as usize];
        if n.t > a {
            self.visit_range_rec(n.left, a, b, f);
            if n.t <= b {
                f(n.t, n.jump, n.dslope);
            }
        }
        if n.t <= b {
            self.visit_range_rec(n.right, a, b, f);
        }
    }

    /// In-order visit of every breakpoint (O(n)).
    pub fn visit_all<F: FnMut(Secs, Bytes, f64)>(&self, mut f: F) {
        self.visit_all_rec(self.root, &mut f);
    }

    fn visit_all_rec<F: FnMut(Secs, Bytes, f64)>(&self, x: Idx, f: &mut F) {
        if x == NIL {
            return;
        }
        let n = self.nodes[x as usize];
        self.visit_all_rec(n.left, f);
        f(n.t, n.jump, n.dslope);
        self.visit_all_rec(n.right, f);
    }

    /// Walk every linear segment `[t0, t1)` of the aggregate between
    /// consecutive breakpoints, yielding `(t0, t1, u0, u1)` where `u0` is
    /// the right-continuous value at `t0` and `u1` the exact left limit
    /// at `t1` (computed from the running slope, not reconstructed from a
    /// midpoint probe). Allocation-free single pass.
    pub fn for_each_segment<F: FnMut(Secs, Secs, Bytes, Bytes)>(&self, mut f: F) {
        let mut p = Prefix::default();
        let mut prev: Option<(Secs, Bytes)> = None;
        self.visit_all(|t, jump, dslope| {
            if let Some((t0, u0)) = prev {
                f(t0, t, u0, p.value_at(t));
            }
            p.absorb(t, jump, dslope);
            prev = Some((t, p.value_at(t)));
        });
    }

    // ---- treap internals -------------------------------------------------

    fn alloc(&mut self, t: f64, jump: f64, dslope: f64) -> Idx {
        let node = Node {
            t,
            // Deterministic, well-mixed priority: the first SplitMix64
            // draw seeded with the time's bit pattern.
            prio: SplitMix64::new(t.to_bits()).next_u64(),
            jump,
            dslope,
            refs: 1,
            left: NIL,
            right: NIL,
            agg_jump: jump,
            agg_dslope: dslope,
            agg_dslope_t: dslope * t,
        };
        self.len += 1;
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as Idx
            }
        }
    }

    /// Recompute `x`'s subtree aggregates from its children. The
    /// accumulation order is fixed by the tree shape, which is itself a
    /// pure function of the breakpoint-time set — so aggregate values are
    /// reproducible regardless of insertion order.
    fn pull(&mut self, x: Idx) {
        let (l, r) = {
            let n = &self.nodes[x as usize];
            (n.left, n.right)
        };
        let (mut j, mut s, mut w) = (0.0, 0.0, 0.0);
        if l != NIL {
            let ln = &self.nodes[l as usize];
            j += ln.agg_jump;
            s += ln.agg_dslope;
            w += ln.agg_dslope_t;
        }
        {
            let n = &self.nodes[x as usize];
            j += n.jump;
            s += n.dslope;
            w += n.dslope * n.t;
        }
        if r != NIL {
            let rn = &self.nodes[r as usize];
            j += rn.agg_jump;
            s += rn.agg_dslope;
            w += rn.agg_dslope_t;
        }
        let n = &mut self.nodes[x as usize];
        n.agg_jump = j;
        n.agg_dslope = s;
        n.agg_dslope_t = w;
    }

    fn rotate_right(&mut self, x: Idx) -> Idx {
        let l = self.nodes[x as usize].left;
        self.nodes[x as usize].left = self.nodes[l as usize].right;
        self.nodes[l as usize].right = x;
        self.pull(x);
        self.pull(l);
        l
    }

    fn rotate_left(&mut self, x: Idx) -> Idx {
        let r = self.nodes[x as usize].right;
        self.nodes[x as usize].right = self.nodes[r as usize].left;
        self.nodes[r as usize].left = x;
        self.pull(x);
        self.pull(r);
        r
    }

    fn add_rec(&mut self, x: Idx, t: f64, jump: f64, dslope: f64) -> Idx {
        if x == NIL {
            return self.alloc(t, jump, dslope);
        }
        let nt = self.nodes[x as usize].t;
        let mut x = x;
        if t == nt {
            let n = &mut self.nodes[x as usize];
            n.jump += jump;
            n.dslope += dslope;
            n.refs += 1;
        } else if t < nt {
            let child = self.add_rec(self.nodes[x as usize].left, t, jump, dslope);
            self.nodes[x as usize].left = child;
            if self.nodes[child as usize].prio > self.nodes[x as usize].prio {
                x = self.rotate_right(x);
            }
        } else {
            let child = self.add_rec(self.nodes[x as usize].right, t, jump, dslope);
            self.nodes[x as usize].right = child;
            if self.nodes[child as usize].prio > self.nodes[x as usize].prio {
                x = self.rotate_left(x);
            }
        }
        self.pull(x);
        x
    }

    fn remove_rec(&mut self, x: Idx, t: f64, jump: f64, dslope: f64) -> Idx {
        assert!(x != NIL, "removing a breakpoint that was never added (t = {t})");
        let nt = self.nodes[x as usize].t;
        if t == nt {
            let n = &mut self.nodes[x as usize];
            n.refs -= 1;
            if n.refs == 0 {
                let (l, r) = (n.left, n.right);
                self.free.push(x);
                self.len -= 1;
                let merged = self.merge(l, r);
                return merged;
            }
            n.jump -= jump;
            n.dslope -= dslope;
        } else if t < nt {
            let child = self.remove_rec(self.nodes[x as usize].left, t, jump, dslope);
            self.nodes[x as usize].left = child;
        } else {
            let child = self.remove_rec(self.nodes[x as usize].right, t, jump, dslope);
            self.nodes[x as usize].right = child;
        }
        self.pull(x);
        x
    }

    /// Merge two treaps where every key in `a` precedes every key in `b`.
    fn merge(&mut self, a: Idx, b: Idx) -> Idx {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.nodes[a as usize].prio > self.nodes[b as usize].prio {
            let m = self.merge(self.nodes[a as usize].right, b);
            self.nodes[a as usize].right = m;
            self.pull(a);
            a
        } else {
            let m = self.merge(a, self.nodes[b as usize].left);
            self.nodes[b as usize].left = m;
            self.pull(b);
            b
        }
    }

    /// Treap invariants (tests only): BST order on times, heap order on
    /// priorities, aggregates consistent with children.
    #[cfg(test)]
    fn check_invariants(&self) {
        fn walk(tl: &OccupancyTimeline, x: Idx, lo: f64, hi: f64, count: &mut usize) {
            if x == NIL {
                return;
            }
            *count += 1;
            let n = tl.nodes[x as usize];
            assert!(n.t > lo && n.t < hi, "BST order violated at t = {}", n.t);
            assert!(n.refs > 0);
            for c in [n.left, n.right] {
                if c != NIL {
                    assert!(tl.nodes[c as usize].prio <= n.prio, "heap order violated");
                }
            }
            let mut j = n.jump;
            let mut s = n.dslope;
            let mut w = n.dslope * n.t;
            if n.left != NIL {
                let l = tl.nodes[n.left as usize];
                j += l.agg_jump;
                s += l.agg_dslope;
                w += l.agg_dslope_t;
            }
            if n.right != NIL {
                let r = tl.nodes[n.right as usize];
                j += r.agg_jump;
                s += r.agg_dslope;
                w += r.agg_dslope_t;
            }
            // Aggregates are rebuilt with this exact expression shape, so
            // a correct tree matches to the last bit — but `pull` folds
            // left-before-self while this check folds self-first, so allow
            // rounding noise.
            let scale = 1.0 + j.abs() + w.abs();
            assert!((tl.nodes[x as usize].agg_jump - j).abs() <= 1e-9 * scale);
            assert!((tl.nodes[x as usize].agg_dslope - s).abs() <= 1e-9 * scale);
            assert!((tl.nodes[x as usize].agg_dslope_t - w).abs() <= 1e-9 * scale);
            walk(tl, n.left, lo, n.t, count);
            walk(tl, n.right, n.t, hi, count);
        }
        let mut count = 0;
        walk(self, self.root, f64::NEG_INFINITY, f64::INFINITY, &mut count);
        assert_eq!(count, self.len, "len out of sync with tree");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_cost_model::SpaceProfile;

    fn add_profile(tl: &mut OccupancyTimeline, p: &SpaceProfile) {
        for d in &p.slope_deltas() {
            tl.add(d.t, d.jump, d.slope);
        }
    }

    fn remove_profile(tl: &mut OccupancyTimeline, p: &SpaceProfile) {
        for d in &p.slope_deltas() {
            tl.remove(d.t, d.jump, d.slope);
        }
    }

    #[test]
    fn empty_timeline_reads_zero() {
        let tl = OccupancyTimeline::new();
        assert!(tl.is_empty());
        assert_eq!(tl.prefix(123.0).value_at(123.0), 0.0);
        let mut segs = 0;
        tl.for_each_segment(|_, _, _, _| segs += 1);
        assert_eq!(segs, 0);
    }

    #[test]
    fn default_is_the_empty_timeline() {
        let mut tl = OccupancyTimeline::default();
        assert_eq!(tl.root, OccupancyTimeline::new().root);
        assert!(tl.is_empty());
        assert_eq!(tl.version(), 0);
        let p = SpaceProfile::new(100.0, 600.0, 1000.0, 200.0);
        add_profile(&mut tl, &p);
        tl.check_invariants();
        assert_eq!(tl.prefix(300.0).value_at(300.0), 1000.0);
        remove_profile(&mut tl, &p);
        assert!(tl.is_empty());
    }

    #[test]
    fn single_profile_matches_space_at() {
        let p = SpaceProfile::new(100.0, 600.0, 1000.0, 200.0);
        let mut tl = OccupancyTimeline::new();
        add_profile(&mut tl, &p);
        tl.check_invariants();
        for t in [0.0, 99.0, 100.0, 300.0, 599.0, 650.0, 700.0, 800.0, 1e4] {
            let got = tl.prefix(t).value_at(t);
            assert!((got - p.space_at(t)).abs() < 1e-6, "t={t}: {got} vs {}", p.space_at(t));
        }
    }

    #[test]
    fn sum_of_profiles_matches_pointwise_sum() {
        let ps = [
            SpaceProfile::new(0.0, 500.0, 1000.0, 200.0),
            SpaceProfile::new(250.0, 400.0, 800.0, 300.0),
            SpaceProfile::new(600.0, 601.0, 500.0, 100.0),
        ];
        let mut tl = OccupancyTimeline::new();
        for p in &ps {
            add_profile(&mut tl, p);
        }
        tl.check_invariants();
        for t in (0..1200).map(|i| i as f64) {
            let want: f64 = ps.iter().map(|p| p.space_at(t)).sum();
            let got = tl.prefix(t).value_at(t);
            assert!((got - want).abs() < 1e-6, "t={t}: {got} vs {want}");
        }
    }

    #[test]
    fn remove_restores_the_previous_function_and_empties_cleanly() {
        let a = SpaceProfile::new(0.0, 500.0, 1000.0, 200.0);
        let b = SpaceProfile::new(100.0, 300.0, 700.0, 150.0);
        let mut tl = OccupancyTimeline::new();
        add_profile(&mut tl, &a);
        add_profile(&mut tl, &b);
        remove_profile(&mut tl, &b);
        tl.check_invariants();
        for t in (0..800).map(|i| i as f64) {
            assert!((tl.prefix(t).value_at(t) - a.space_at(t)).abs() < 1e-6);
        }
        remove_profile(&mut tl, &a);
        assert!(tl.is_empty(), "all contributors removed → exactly empty");
        assert_eq!(tl.prefix(250.0).value_at(250.0), 0.0);
    }

    #[test]
    fn tree_shape_is_insertion_order_independent() {
        let ps: Vec<SpaceProfile> = (0..30)
            .map(|i| SpaceProfile::new(i as f64 * 37.5, i as f64 * 37.5 + 400.0, 1000.0, 250.0))
            .collect();
        let mut fwd = OccupancyTimeline::new();
        for p in &ps {
            add_profile(&mut fwd, p);
        }
        let mut rev = OccupancyTimeline::new();
        for p in ps.iter().rev() {
            add_profile(&mut rev, p);
        }
        fwd.check_invariants();
        rev.check_invariants();
        // Same breakpoint set → same canonical shape → identical
        // aggregate accumulation order → bit-identical evaluations.
        for t in (0..2000).map(|i| i as f64) {
            assert_eq!(
                fwd.prefix(t).value_at(t).to_bits(),
                rev.prefix(t).value_at(t).to_bits(),
                "t={t}"
            );
        }
    }

    #[test]
    fn visit_range_is_sorted_and_bounded() {
        let mut tl = OccupancyTimeline::new();
        for i in 0..50 {
            add_profile(
                &mut tl,
                &SpaceProfile::new(i as f64 * 10.0, i as f64 * 10.0 + 95.0, 100.0, 50.0),
            );
        }
        let mut seen = Vec::new();
        tl.visit_range(120.0, 260.0, |t, _, _| seen.push(t));
        assert!(!seen.is_empty());
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "strictly sorted: {seen:?}");
        assert!(seen.iter().all(|&t| t > 120.0 && t <= 260.0), "bounded: {seen:?}");
    }

    #[test]
    fn segments_cover_consecutive_breakpoints_with_exact_left_limits() {
        let p = SpaceProfile::new(0.0, 500.0, 1000.0, 200.0);
        let mut tl = OccupancyTimeline::new();
        add_profile(&mut tl, &p);
        let mut segs = Vec::new();
        tl.for_each_segment(|t0, t1, u0, u1| segs.push((t0, t1, u0, u1)));
        // Breakpoints 0, 500, 700 → two segments.
        assert_eq!(segs.len(), 2);
        let (t0, t1, u0, u1) = segs[0];
        assert_eq!((t0, t1), (0.0, 500.0));
        assert_eq!(u0, 1000.0);
        assert_eq!(u1, 1000.0, "left limit at drain start is the plateau");
        let (_, _, v0, v1) = segs[1];
        assert_eq!(v0, 1000.0);
        assert!(v1.abs() < 1e-9, "drain closes to zero, got {v1}");
    }

    #[test]
    fn version_ticks_on_every_mutation_and_only_then() {
        let mut tl = OccupancyTimeline::new();
        assert_eq!(tl.version(), 0);
        let p = SpaceProfile::new(0.0, 500.0, 1000.0, 200.0);
        add_profile(&mut tl, &p);
        let after_add = tl.version();
        assert!(after_add > 0, "adds must tick the version");
        // Queries never tick it.
        let _ = tl.prefix(100.0).value_at(100.0);
        tl.for_each_segment(|_, _, _, _| {});
        assert_eq!(tl.version(), after_add);
        // Removing back to empty still moves the version forward: equal
        // versions mean "identical function", not the converse.
        remove_profile(&mut tl, &p);
        assert!(tl.version() > after_add);
        assert!(tl.is_empty());
    }

    #[test]
    #[should_panic(expected = "never added")]
    fn removing_unknown_breakpoint_panics() {
        let mut tl = OccupancyTimeline::new();
        tl.add(1.0, 5.0, 0.0);
        tl.remove(2.0, 5.0, 0.0);
    }

    #[test]
    fn heavy_churn_keeps_invariants_and_reuses_arena() {
        let ps: Vec<SpaceProfile> = (0..200)
            .map(|i| {
                let s = (i * 7919 % 86_400) as f64;
                SpaceProfile::new(s, s + 1000.0 + (i % 13) as f64 * 311.0, 2.5e9, 5400.0)
            })
            .collect();
        let mut tl = OccupancyTimeline::new();
        for p in &ps {
            add_profile(&mut tl, p);
        }
        let cap_after_fill = tl.nodes.len();
        for p in ps.iter().step_by(2) {
            remove_profile(&mut tl, p);
        }
        for p in ps.iter().step_by(2) {
            add_profile(&mut tl, p);
        }
        tl.check_invariants();
        assert_eq!(tl.nodes.len(), cap_after_fill, "arena slots are reused");
        let want: f64 = ps.iter().map(|p| p.space_at(40_000.0)).sum();
        let got = tl.prefix(40_000.0).value_at(40_000.0);
        assert!((got - want).abs() <= 1e-9 * (1.0 + want.abs()));
    }
}
