//! Cheapest-route computation over per-byte network charging rates.
//!
//! The scheduler repeatedly asks "what does it cost to ship one byte from
//! node `a` to node `b`, and along which hops?" (paper §3.2 step 3: when a
//! new intermediate storage is introduced, the scheduler must compute the
//! network transmission cost of transferring the file there). Since the
//! evaluation topologies are small (20 nodes) and rates are static per
//! scheduling cycle, we precompute all-pairs cheapest routes with one
//! Dijkstra per source. A route is a property of the environment, fixed
//! for the cycle, so every transfer that takes it holds a handle to one
//! shared node sequence ([`RouteTable::shared_path`]) rather than a copy.

use crate::{NodeId, Topology, TopologyError};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

/// A concrete route: the node sequence `n_src, …, n_dst` (inclusive) plus
/// its per-byte charging rate.
#[derive(Clone, Debug, PartialEq)]
pub struct Route {
    /// Nodes along the route, source first, destination last. A route from
    /// a node to itself is the single-element sequence.
    pub nodes: Vec<NodeId>,
    /// Total charging rate in $/byte (sum of hop `nrate`s).
    pub rate: f64,
}

impl Route {
    /// Number of hops (edges) on the route.
    pub fn hop_count(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// Source node.
    pub fn src(&self) -> NodeId {
        *self.nodes.first().expect("route is never empty")
    }

    /// Destination node.
    pub fn dst(&self) -> NodeId {
        *self.nodes.last().expect("route is never empty")
    }
}

impl From<Route> for Arc<[NodeId]> {
    fn from(route: Route) -> Self {
        route.nodes.into()
    }
}

/// All-pairs cheapest routes by per-byte rate.
#[derive(Clone, Debug)]
pub struct RouteTable {
    n: usize,
    /// `rate[src * n + dst]` in $/byte.
    rate: Vec<f64>,
    /// `next[src * n + dst]`: the first hop on the cheapest route.
    next: Vec<Option<NodeId>>,
    /// `paths[src * n + dst]`: the route's node sequence, walked out of
    /// `next` on first use. Clones of the table share the filled cells.
    paths: Vec<OnceLock<Arc<[NodeId]>>>,
}

/// Max-heap entry ordered so the *smallest* cost pops first.
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.node == other.node
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on cost for a min-heap; break ties on node id. total_cmp
        // keeps the ordering total even for NaN (which validated rates
        // never produce, but the heap must not rely on that).
        other.cost.total_cmp(&self.cost).then_with(|| other.node.cmp(&self.node))
    }
}

impl RouteTable {
    /// Run Dijkstra from every node over the edge `nrate`s.
    ///
    /// Ties between equal-rate routes break toward fewer hops and then
    /// lower node ids so the result is deterministic.
    pub fn build(topo: &Topology) -> Self {
        Self::build_avoiding(topo, &[])
    }

    /// [`RouteTable::build`] with a set of links excluded, as if they had
    /// been cut (degraded-mode routing around failed links). Pairs match
    /// in either orientation. Destinations the cut graph cannot reach get
    /// an infinite rate and no path; query with
    /// [`try_path`](Self::try_path) or [`reachable`](Self::reachable).
    pub fn build_avoiding(topo: &Topology, avoid: &[(NodeId, NodeId)]) -> Self {
        let avoided = |a: NodeId, b: NodeId| {
            avoid.iter().any(|&(x, y)| (x == a && y == b) || (x == b && y == a))
        };
        let n = topo.node_count();
        let mut rate = vec![f64::INFINITY; n * n];
        let mut next: Vec<Option<NodeId>> = vec![None; n * n];

        // hops[dst] used for deterministic tie-breaking within one source.
        let mut hops = vec![u32::MAX; n];

        for src in topo.nodes() {
            let base = src.index() * n;
            let dist = &mut rate[base..base + n];
            let first_hop = &mut next[base..base + n];
            hops.iter_mut().for_each(|h| *h = u32::MAX);

            dist[src.index()] = 0.0;
            hops[src.index()] = 0;
            let mut heap = BinaryHeap::new();
            heap.push(HeapEntry { cost: 0.0, node: src });

            while let Some(HeapEntry { cost, node }) = heap.pop() {
                if cost > dist[node.index()] {
                    continue; // stale entry
                }
                for &(nb, eidx) in topo.neighbors(node) {
                    if avoided(node, nb) {
                        continue;
                    }
                    let e = &topo.edges()[eidx];
                    let cand = cost + e.nrate;
                    let cand_hops = hops[node.index()] + 1;
                    let cur = dist[nb.index()];
                    let better = cand < cur
                        || (cand == cur && cand_hops < hops[nb.index()])
                        || (cand == cur
                            && cand_hops == hops[nb.index()]
                            && first_hop_for(first_hop, node, src, nb)
                                < first_hop[nb.index()].map_or(u32::MAX, |h| h.0));
                    if better {
                        dist[nb.index()] = cand;
                        hops[nb.index()] = cand_hops;
                        first_hop[nb.index()] =
                            if node == src { Some(nb) } else { first_hop[node.index()] };
                        heap.push(HeapEntry { cost: cand, node: nb });
                    }
                }
            }
        }

        Self { n, rate, next, paths: vec![OnceLock::new(); n * n] }
    }

    /// Per-byte rate of the cheapest route from `a` to `b` ($ /byte).
    /// Zero when `a == b`.
    #[inline]
    pub fn rate(&self, a: NodeId, b: NodeId) -> f64 {
        self.rate[a.index() * self.n + b.index()]
    }

    /// Reconstruct the cheapest route from `a` to `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is unreachable from `a`; [`Topology`] construction
    /// guarantees connectivity, so this only fires on mismatched tables
    /// or tables built with [`build_avoiding`](Self::build_avoiding).
    pub fn path(&self, a: NodeId, b: NodeId) -> Route {
        self.try_path(a, b).expect("destination unreachable: route table does not match topology")
    }

    /// Reconstruct the cheapest route from `a` to `b`, or
    /// [`TopologyError::Unreachable`] when the table has no route (a
    /// degraded table built with [`build_avoiding`](Self::build_avoiding)
    /// can legitimately lack one). Walks `next` into a fresh `Vec` on
    /// every call; per-request code takes
    /// [`shared_path`](Self::shared_path) instead.
    pub fn try_path(&self, a: NodeId, b: NodeId) -> Result<Route, TopologyError> {
        let mut nodes = vec![a];
        let mut cur = a;
        while cur != b {
            let hop = self.next[cur.index() * self.n + b.index()]
                .ok_or(TopologyError::Unreachable { from: a, to: b })?;
            nodes.push(hop);
            cur = hop;
        }
        Ok(Route { nodes, rate: self.rate(a, b) })
    }

    /// The node sequence of [`try_path`](Self::try_path) as a shared
    /// handle: the first call per pair walks the route, every later one
    /// clones the handle. An unreachable pair errs every time and leaves
    /// its cell empty.
    pub fn shared_path(&self, a: NodeId, b: NodeId) -> Result<Arc<[NodeId]>, TopologyError> {
        let cell = &self.paths[a.index() * self.n + b.index()];
        if let Some(path) = cell.get() {
            return Ok(path.clone());
        }
        let path: Arc<[NodeId]> = self.try_path(a, b)?.into();
        Ok(cell.get_or_init(|| path).clone())
    }

    /// Whether the table has a route from `a` to `b`.
    #[inline]
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        self.rate(a, b).is_finite()
    }

    /// Number of nodes the table was built for.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }
}

/// Tie-break helper: the first hop the tentative route to `nb` would take.
fn first_hop_for(first_hop: &[Option<NodeId>], via: NodeId, src: NodeId, nb: NodeId) -> u32 {
    if via == src {
        nb.0
    } else {
        first_hop[via.index()].map_or(u32::MAX, |h| h.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{units, TopologyBuilder};

    /// VW -(3)- IS1 -(1)- IS2, plus a direct VW -(5)- IS2 shortcut that is
    /// more expensive than the two-hop route.
    fn diamond() -> (Topology, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let vw = b.add_warehouse("VW");
        let is1 = b.add_storage("IS1", 0.0, units::gb(5.0));
        let is2 = b.add_storage("IS2", 0.0, units::gb(5.0));
        b.connect(vw, is1, 3.0).unwrap();
        b.connect(is1, is2, 1.0).unwrap();
        b.connect(vw, is2, 5.0).unwrap();
        (b.build().unwrap(), vw, is1, is2)
    }

    use crate::Topology;

    #[test]
    fn self_route_is_free_and_trivial() {
        let (t, vw, ..) = diamond();
        let rt = RouteTable::build(&t);
        assert_eq!(rt.rate(vw, vw), 0.0);
        let p = rt.path(vw, vw);
        assert_eq!(p.nodes, vec![vw]);
        assert_eq!(p.hop_count(), 0);
    }

    #[test]
    fn picks_cheaper_multi_hop_over_expensive_direct() {
        let (t, vw, is1, is2) = diamond();
        let rt = RouteTable::build(&t);
        assert_eq!(rt.rate(vw, is2), 4.0); // 3 + 1 beats direct 5
        let p = rt.path(vw, is2);
        assert_eq!(p.nodes, vec![vw, is1, is2]);
        assert_eq!(p.rate, 4.0);
        assert_eq!(p.src(), vw);
        assert_eq!(p.dst(), is2);
    }

    #[test]
    fn routes_are_symmetric_in_rate() {
        let (t, vw, is1, is2) = diamond();
        let rt = RouteTable::build(&t);
        for &a in &[vw, is1, is2] {
            for &b in &[vw, is1, is2] {
                assert_eq!(rt.rate(a, b), rt.rate(b, a), "rate({a},{b})");
            }
        }
    }

    #[test]
    fn equal_cost_tie_breaks_to_fewer_hops() {
        // VW -(2)- IS1, VW -(1)- IS2 -(1)- IS1: both routes cost 2; the
        // direct single-hop route must win.
        let mut b = TopologyBuilder::new();
        let vw = b.add_warehouse("VW");
        let is1 = b.add_storage("IS1", 0.0, 1.0);
        let is2 = b.add_storage("IS2", 0.0, 1.0);
        b.connect(vw, is1, 2.0).unwrap();
        b.connect(vw, is2, 1.0).unwrap();
        b.connect(is2, is1, 1.0).unwrap();
        let t = b.build().unwrap();
        let rt = RouteTable::build(&t);
        assert_eq!(rt.rate(vw, is1), 2.0);
        assert_eq!(rt.path(vw, is1).nodes, vec![vw, is1]);
    }

    #[test]
    fn free_links_route_correctly() {
        let mut b = TopologyBuilder::new();
        let vw = b.add_warehouse("VW");
        let is1 = b.add_storage("IS1", 0.0, 1.0);
        let is2 = b.add_storage("IS2", 0.0, 1.0);
        b.connect(vw, is1, 0.0).unwrap();
        b.connect(is1, is2, 0.0).unwrap();
        let t = b.build().unwrap();
        let rt = RouteTable::build(&t);
        assert_eq!(rt.rate(vw, is2), 0.0);
        assert_eq!(rt.path(vw, is2).hop_count(), 2);
    }

    /// Brute-force all simple paths on a small graph and compare the
    /// cheapest rate with Dijkstra's answer.
    #[test]
    fn matches_brute_force_enumeration() {
        let mut b = TopologyBuilder::new();
        let vw = b.add_warehouse("VW");
        let n: Vec<NodeId> = (0..4).map(|i| b.add_storage(format!("IS{i}"), 0.0, 1.0)).collect();
        // An irregular little mesh.
        b.connect(vw, n[0], 2.5).unwrap();
        b.connect(vw, n[1], 1.0).unwrap();
        b.connect(n[0], n[1], 0.5).unwrap();
        b.connect(n[1], n[2], 2.0).unwrap();
        b.connect(n[0], n[2], 3.5).unwrap();
        b.connect(n[2], n[3], 0.25).unwrap();
        b.connect(n[1], n[3], 4.0).unwrap();
        let t = b.build().unwrap();
        let rt = RouteTable::build(&t);

        fn brute(
            t: &Topology,
            cur: NodeId,
            dst: NodeId,
            seen: &mut Vec<NodeId>,
            cost: f64,
            best: &mut f64,
        ) {
            if cur == dst {
                *best = best.min(cost);
                return;
            }
            for &(nb, e) in t.neighbors(cur) {
                if !seen.contains(&nb) {
                    seen.push(nb);
                    brute(t, nb, dst, seen, cost + t.edges()[e].nrate, best);
                    seen.pop();
                }
            }
        }

        for a in t.nodes() {
            for bnode in t.nodes() {
                let mut best = f64::INFINITY;
                let mut seen = vec![a];
                brute(&t, a, bnode, &mut seen, 0.0, &mut best);
                assert!(
                    (rt.rate(a, bnode) - best).abs() < 1e-12,
                    "rate({a},{bnode}): dijkstra={} brute={}",
                    rt.rate(a, bnode),
                    best
                );
            }
        }
    }

    #[test]
    fn build_avoiding_routes_around_cut_links() {
        let (t, vw, is1, is2) = diamond();
        // Cutting VW—IS1 forces the expensive direct route to IS2 and
        // leaves IS1 reachable only via IS2.
        let rt = RouteTable::build_avoiding(&t, &[(is1, vw)]); // reversed orientation
        assert_eq!(rt.rate(vw, is2), 5.0);
        assert_eq!(rt.path(vw, is2).nodes, vec![vw, is2]);
        assert_eq!(rt.rate(vw, is1), 6.0);
        assert_eq!(rt.path(vw, is1).nodes, vec![vw, is2, is1]);
        assert!(rt.reachable(vw, is1));
    }

    #[test]
    fn build_avoiding_reports_unreachable_as_error() {
        let (t, vw, is1, is2) = diamond();
        // Cut both of IS1's links: it is now unreachable.
        let rt = RouteTable::build_avoiding(&t, &[(vw, is1), (is1, is2)]);
        assert!(!rt.reachable(vw, is1));
        assert!(rt.rate(vw, is1).is_infinite());
        assert_eq!(
            rt.try_path(vw, is1).unwrap_err(),
            TopologyError::Unreachable { from: vw, to: is1 }
        );
        // The untouched pair still routes.
        assert_eq!(rt.try_path(vw, is2).unwrap().nodes, vec![vw, is2]);
    }

    #[test]
    fn build_avoiding_nothing_matches_build() {
        let (t, ..) = diamond();
        let a = RouteTable::build(&t);
        let b = RouteTable::build_avoiding(&t, &[]);
        for x in t.nodes() {
            for y in t.nodes() {
                assert_eq!(a.rate(x, y), b.rate(x, y));
                assert_eq!(a.path(x, y).nodes, b.path(x, y).nodes);
            }
        }
    }

    #[test]
    fn path_rate_equals_sum_of_hop_rates() {
        let (t, ..) = diamond();
        let rt = RouteTable::build(&t);
        for a in t.nodes() {
            for b in t.nodes() {
                let p = rt.path(a, b);
                let sum: f64 = p
                    .nodes
                    .windows(2)
                    .map(|w| t.edge_between(w[0], w[1]).expect("hop must be an edge").nrate)
                    .sum();
                assert!((sum - p.rate).abs() < 1e-12);
            }
        }
    }
}
