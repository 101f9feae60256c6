//! The service topology graph: warehouse, intermediate storages, charged
//! network links, and neighborhood user populations.

use crate::{NodeId, NodeKind, TopologyError, UserId};
use serde::{Deserialize, Serialize};

/// Static description of one node.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NodeInfo {
    /// Role of the node (warehouse or intermediate storage).
    pub kind: NodeKind,
    /// Human-readable label, e.g. `"VW"` or `"IS7"`.
    pub name: String,
    /// Storage charging rate in $/(byte·s). Zero for the warehouse (the
    /// paper sets `srate(VW) = 0`: permanent archive storage is sunk cost).
    pub srate: f64,
    /// Storage capacity in bytes. `f64::INFINITY` for the warehouse.
    pub capacity: f64,
}

/// An undirected, charged network link between two nodes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Edge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Network charging rate in $/byte for traffic traversing this hop.
    pub nrate: f64,
    /// Optional link bandwidth capacity in bytes/s. `None` means the link
    /// is never a bottleneck. Only consulted by the bandwidth-constrained
    /// scheduler extension and the simulator.
    pub bandwidth: Option<f64>,
}

/// An end user, attached to its local intermediate storage.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct User {
    /// The user's id.
    pub id: UserId,
    /// The intermediate storage in the user's neighborhood. The paper
    /// assumes the path between a user and its local IS is uniquely defined
    /// and excludes it from routing and charging.
    pub home: NodeId,
}

/// Immutable (apart from rate/capacity re-parameterisation) service
/// topology: the graph of Fig. 1 / Fig. 4 of the paper.
///
/// Construct via [`TopologyBuilder`] or the generators in
/// [`builders`](crate::builders).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<NodeInfo>,
    edges: Vec<Edge>,
    /// `adj[n]` lists `(neighbor, edge index)` pairs for node `n`.
    adj: Vec<Vec<(NodeId, usize)>>,
    /// `edge_at[a * n + b]`: index of the link between `a` and `b`, or
    /// [`NO_EDGE`]. Pricing asks once per hop of every transfer, so the
    /// lookup is a load rather than a scan of `adj[a]`.
    edge_at: Vec<u32>,
    warehouse: NodeId,
    users: Vec<User>,
    /// `neighborhood[n]` lists the users homed at node `n`.
    neighborhood: Vec<Vec<UserId>>,
}

impl Topology {
    /// Total number of nodes (warehouse + intermediate storages).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of network links.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Total number of users across all neighborhoods.
    #[inline]
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// The video warehouse node.
    #[inline]
    pub fn warehouse(&self) -> NodeId {
        self.warehouse
    }

    /// Whether `n` is the video warehouse.
    #[inline]
    pub fn is_warehouse(&self, n: NodeId) -> bool {
        n == self.warehouse
    }

    /// Iterator over all node ids, warehouse included.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over the intermediate storage nodes.
    pub fn storages(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, info)| info.kind == NodeKind::Storage)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Number of intermediate storages.
    pub fn storage_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind == NodeKind::Storage).count()
    }

    /// Static info for a node.
    #[inline]
    pub fn node(&self, n: NodeId) -> &NodeInfo {
        &self.nodes[n.index()]
    }

    /// Storage charging rate of `n` in $/(byte·s).
    #[inline]
    pub fn srate(&self, n: NodeId) -> f64 {
        self.nodes[n.index()].srate
    }

    /// Storage capacity of `n` in bytes (infinite for the warehouse).
    #[inline]
    pub fn capacity(&self, n: NodeId) -> f64 {
        self.nodes[n.index()].capacity
    }

    /// All network links.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The `(neighbor, edge index)` adjacency of node `n`.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, usize)] {
        &self.adj[n.index()]
    }

    /// Index into [`Topology::edges`] of the link between `a` and `b`, if
    /// one exists (`None` also for ids outside the graph).
    #[inline]
    pub fn edge_index(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let n = self.nodes.len();
        if a.index() >= n || b.index() >= n {
            return None;
        }
        let e = self.edge_at[a.index() * n + b.index()];
        (e != NO_EDGE).then_some(e as usize)
    }

    /// The edge between `a` and `b`, if one exists.
    #[inline]
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<&Edge> {
        self.edge_index(a, b).map(|e| &self.edges[e])
    }

    /// All users.
    #[inline]
    pub fn users(&self) -> &[User] {
        &self.users
    }

    /// The local intermediate storage of a user.
    #[inline]
    pub fn home_of(&self, u: UserId) -> NodeId {
        self.users[u.index()].home
    }

    /// The users homed in node `n`'s neighborhood.
    #[inline]
    pub fn users_at(&self, n: NodeId) -> &[UserId] {
        &self.neighborhood[n.index()]
    }

    // ------------------------------------------------------------------
    // Re-parameterisation (used by the experiment sweeps: the paper varies
    // srate, nrate, and capacity over a fixed wiring).
    // ------------------------------------------------------------------

    /// Set every intermediate storage's charging rate to `srate` $/(byte·s).
    /// The warehouse stays free.
    pub fn set_uniform_srate(&mut self, srate: f64) -> Result<(), TopologyError> {
        validate_rate("srate", srate)?;
        for info in &mut self.nodes {
            if info.kind == NodeKind::Storage {
                info.srate = srate;
            }
        }
        Ok(())
    }

    /// Set every intermediate storage's capacity to `capacity` bytes.
    pub fn set_uniform_capacity(&mut self, capacity: f64) -> Result<(), TopologyError> {
        validate_rate("capacity", capacity)?;
        for info in &mut self.nodes {
            if info.kind == NodeKind::Storage {
                info.capacity = capacity;
            }
        }
        Ok(())
    }

    /// Set every link's charging rate to `nrate` $/byte.
    pub fn set_uniform_nrate(&mut self, nrate: f64) -> Result<(), TopologyError> {
        validate_rate("nrate", nrate)?;
        for e in &mut self.edges {
            e.nrate = nrate;
        }
        Ok(())
    }

    /// Multiply every link's charging rate by `factor` (used to sweep the
    /// network charging rate while preserving relative link pricing).
    pub fn scale_nrates(&mut self, factor: f64) -> Result<(), TopologyError> {
        validate_rate("nrate scale factor", factor)?;
        for e in &mut self.edges {
            e.nrate *= factor;
        }
        Ok(())
    }

    /// Set every link's bandwidth capacity (bytes/s); `None` removes limits.
    pub fn set_uniform_bandwidth(&mut self, bandwidth: Option<f64>) -> Result<(), TopologyError> {
        if let Some(bw) = bandwidth {
            validate_rate("bandwidth", bw)?;
        }
        for e in &mut self.edges {
            e.bandwidth = bandwidth;
        }
        Ok(())
    }

    /// The lowest-numbered node the warehouse cannot reach over the links
    /// `usable` keeps (by index into [`Topology::edges`]), or `None` when
    /// it reaches every node. The one warehouse-reachability search:
    /// construction asks it over every link, fault-plan generation over
    /// the links a candidate failure would leave up.
    pub fn first_unreachable(&self, usable: impl Fn(usize) -> bool) -> Option<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::from([self.warehouse]);
        seen[self.warehouse.index()] = true;
        while let Some(n) = queue.pop_front() {
            for &(m, e) in &self.adj[n.index()] {
                if !seen[m.index()] && usable(e) {
                    seen[m.index()] = true;
                    queue.push_back(m);
                }
            }
        }
        seen.iter().position(|&s| !s).map(|i| NodeId(i as u32))
    }
}

/// The `edge_at` entry of a pair with no link.
const NO_EDGE: u32 = u32::MAX;

fn validate_rate(what: &'static str, value: f64) -> Result<(), TopologyError> {
    if !value.is_finite() || value < 0.0 {
        return Err(TopologyError::InvalidRate { what, value });
    }
    Ok(())
}

/// Incremental builder for [`Topology`].
///
/// ```
/// use vod_topology::{TopologyBuilder, units};
///
/// let mut b = TopologyBuilder::new();
/// let vw = b.add_warehouse("VW");
/// let is1 = b.add_storage("IS1", units::srate_per_gb_hour(1.0), units::gb(5.0));
/// let is2 = b.add_storage("IS2", units::srate_per_gb_hour(1.0), units::gb(5.0));
/// b.connect(vw, is1, units::nrate_per_gb(300.0)).unwrap();
/// b.connect(is1, is2, units::nrate_per_gb(150.0)).unwrap();
/// b.add_users(is1, 1);
/// b.add_users(is2, 2);
/// let topo = b.build().unwrap();
/// assert_eq!(topo.user_count(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<NodeInfo>,
    edges: Vec<Edge>,
    warehouse: Option<NodeId>,
    users: Vec<User>,
    error: Option<TopologyError>,
}

impl TopologyBuilder {
    /// Start an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add the video warehouse. Must be called exactly once.
    pub fn add_warehouse(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        if self.warehouse.is_some() {
            self.error.get_or_insert(TopologyError::MultipleWarehouses);
        }
        self.warehouse = Some(id);
        self.nodes.push(NodeInfo {
            kind: NodeKind::Warehouse,
            name: name.into(),
            srate: 0.0,
            capacity: f64::INFINITY,
        });
        id
    }

    /// Add an intermediate storage with charging rate `srate` $/(byte·s) and
    /// capacity in bytes.
    pub fn add_storage(&mut self, name: impl Into<String>, srate: f64, capacity: f64) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        if let Err(e) = validate_rate("srate", srate) {
            self.error.get_or_insert(e);
        }
        if let Err(e) = validate_rate("capacity", capacity) {
            self.error.get_or_insert(e);
        }
        self.nodes.push(NodeInfo { kind: NodeKind::Storage, name: name.into(), srate, capacity });
        id
    }

    /// Connect two nodes with an undirected link charged at `nrate` $/byte.
    pub fn connect(&mut self, a: NodeId, b: NodeId, nrate: f64) -> Result<(), TopologyError> {
        self.connect_with_bandwidth(a, b, nrate, None)
    }

    /// Connect two nodes, additionally declaring a link bandwidth capacity.
    pub fn connect_with_bandwidth(
        &mut self,
        a: NodeId,
        b: NodeId,
        nrate: f64,
        bandwidth: Option<f64>,
    ) -> Result<(), TopologyError> {
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        for &n in &[a, b] {
            if n.index() >= self.nodes.len() {
                return Err(TopologyError::UnknownNode(n));
            }
        }
        if self.edges.iter().any(|e| (e.a == a && e.b == b) || (e.a == b && e.b == a)) {
            return Err(TopologyError::DuplicateEdge(a, b));
        }
        validate_rate("nrate", nrate)?;
        if let Some(bw) = bandwidth {
            validate_rate("bandwidth", bw)?;
        }
        self.edges.push(Edge { a, b, nrate, bandwidth });
        Ok(())
    }

    /// Attach `count` users to the neighborhood of storage `home`.
    pub fn add_users(&mut self, home: NodeId, count: usize) -> Vec<UserId> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let id = UserId(self.users.len() as u32);
            self.users.push(User { id, home });
            out.push(id);
        }
        out
    }

    /// Validate and freeze the topology.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let warehouse = self.warehouse.ok_or(TopologyError::MissingWarehouse)?;
        if self.nodes.iter().all(|n| n.kind != NodeKind::Storage) {
            return Err(TopologyError::NoStorages);
        }
        for u in &self.users {
            if u.home.index() >= self.nodes.len() {
                return Err(TopologyError::UnknownNode(u.home));
            }
            if self.nodes[u.home.index()].kind == NodeKind::Warehouse {
                return Err(TopologyError::UsersAtWarehouse);
            }
        }

        let n = self.nodes.len();
        let mut adj = vec![Vec::new(); n];
        let mut edge_at = vec![NO_EDGE; n * n];
        for (i, e) in self.edges.iter().enumerate() {
            adj[e.a.index()].push((e.b, i));
            adj[e.b.index()].push((e.a, i));
            edge_at[e.a.index() * n + e.b.index()] = i as u32;
            edge_at[e.b.index() * n + e.a.index()] = i as u32;
        }
        let mut neighborhood = vec![Vec::new(); n];
        for u in &self.users {
            neighborhood[u.home.index()].push(u.id);
        }
        let topo = Topology {
            nodes: self.nodes,
            edges: self.edges,
            adj,
            edge_at,
            warehouse,
            users: self.users,
            neighborhood,
        };
        match topo.first_unreachable(|_| true) {
            Some(n) => Err(TopologyError::Disconnected(n)),
            None => Ok(topo),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units;

    fn two_is() -> Topology {
        let mut b = TopologyBuilder::new();
        let vw = b.add_warehouse("VW");
        let is1 = b.add_storage("IS1", units::srate_per_gb_hour(1.0), units::gb(5.0));
        let is2 = b.add_storage("IS2", units::srate_per_gb_hour(2.0), units::gb(8.0));
        b.connect(vw, is1, units::nrate_per_gb(200.0)).unwrap();
        b.connect(is1, is2, units::nrate_per_gb(100.0)).unwrap();
        b.add_users(is1, 1);
        b.add_users(is2, 2);
        b.build().unwrap()
    }

    #[test]
    fn builds_and_exposes_structure() {
        let t = two_is();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.edge_count(), 2);
        assert_eq!(t.storage_count(), 2);
        assert_eq!(t.user_count(), 3);
        assert_eq!(t.warehouse(), NodeId(0));
        assert!(t.is_warehouse(NodeId(0)));
        assert!(!t.is_warehouse(NodeId(1)));
        assert_eq!(t.users_at(NodeId(1)).len(), 1);
        assert_eq!(t.users_at(NodeId(2)).len(), 2);
        assert_eq!(t.home_of(UserId(2)), NodeId(2));
    }

    #[test]
    fn warehouse_is_free_and_unbounded() {
        let t = two_is();
        assert_eq!(t.srate(t.warehouse()), 0.0);
        assert!(t.capacity(t.warehouse()).is_infinite());
    }

    #[test]
    fn edge_between_is_symmetric() {
        let t = two_is();
        let e1 = t.edge_between(NodeId(0), NodeId(1)).unwrap();
        let e2 = t.edge_between(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(e1.nrate, e2.nrate);
        assert!(t.edge_between(NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn edge_index_mirrors_the_adjacency_lists() {
        let t = two_is();
        for a in t.nodes() {
            for b in t.nodes() {
                let scanned = t.neighbors(a).iter().find(|(n, _)| *n == b).map(|&(_, e)| e);
                assert_eq!(t.edge_index(a, b), scanned, "{a}-{b}");
            }
        }
        // Ids outside the graph have no links (and must not alias a row).
        assert_eq!(t.edge_index(NodeId(0), NodeId(3)), None);
        assert_eq!(t.edge_index(NodeId(7), NodeId(1)), None);
    }

    #[test]
    fn missing_warehouse_rejected() {
        let mut b = TopologyBuilder::new();
        b.add_storage("IS1", 0.0, 1.0);
        assert_eq!(b.build().unwrap_err(), TopologyError::MissingWarehouse);
    }

    #[test]
    fn double_warehouse_rejected() {
        let mut b = TopologyBuilder::new();
        b.add_warehouse("VW1");
        b.add_warehouse("VW2");
        b.add_storage("IS", 0.0, 1.0);
        assert_eq!(b.build().unwrap_err(), TopologyError::MultipleWarehouses);
    }

    #[test]
    fn no_storage_rejected() {
        let mut b = TopologyBuilder::new();
        b.add_warehouse("VW");
        assert_eq!(b.build().unwrap_err(), TopologyError::NoStorages);
    }

    #[test]
    fn disconnected_rejected() {
        let mut b = TopologyBuilder::new();
        let vw = b.add_warehouse("VW");
        let is1 = b.add_storage("IS1", 0.0, 1.0);
        let _is2 = b.add_storage("IS2", 0.0, 1.0); // never connected
        b.connect(vw, is1, 0.0).unwrap();
        assert_eq!(b.build().unwrap_err(), TopologyError::Disconnected(NodeId(2)));
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = TopologyBuilder::new();
        let vw = b.add_warehouse("VW");
        b.add_storage("IS", 0.0, 1.0);
        assert_eq!(b.connect(vw, vw, 1.0).unwrap_err(), TopologyError::SelfLoop(vw));
    }

    #[test]
    fn duplicate_edge_rejected_in_both_orientations() {
        let mut b = TopologyBuilder::new();
        let vw = b.add_warehouse("VW");
        let is = b.add_storage("IS", 0.0, 1.0);
        b.connect(vw, is, 1.0).unwrap();
        assert!(matches!(b.connect(is, vw, 2.0), Err(TopologyError::DuplicateEdge(..))));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut b = TopologyBuilder::new();
        let vw = b.add_warehouse("VW");
        b.add_storage("IS", 0.0, 1.0);
        assert_eq!(
            b.connect(vw, NodeId(9), 1.0).unwrap_err(),
            TopologyError::UnknownNode(NodeId(9))
        );
    }

    #[test]
    fn negative_rates_rejected() {
        let mut b = TopologyBuilder::new();
        let vw = b.add_warehouse("VW");
        let is = b.add_storage("IS", 0.0, 1.0);
        assert!(matches!(
            b.connect(vw, is, -1.0),
            Err(TopologyError::InvalidRate { what: "nrate", .. })
        ));
        let mut b2 = TopologyBuilder::new();
        b2.add_warehouse("VW");
        b2.add_storage("IS", -0.5, 1.0);
        assert!(matches!(b2.build(), Err(TopologyError::InvalidRate { what: "srate", .. })));
    }

    #[test]
    fn users_at_warehouse_rejected() {
        let mut b = TopologyBuilder::new();
        let vw = b.add_warehouse("VW");
        let is = b.add_storage("IS", 0.0, 1.0);
        b.connect(vw, is, 1.0).unwrap();
        b.add_users(vw, 1);
        assert_eq!(b.build().unwrap_err(), TopologyError::UsersAtWarehouse);
    }

    #[test]
    fn uniform_mutators_apply_to_storages_only() {
        let mut t = two_is();
        t.set_uniform_srate(units::srate_per_gb_hour(5.0)).unwrap();
        assert_eq!(t.srate(t.warehouse()), 0.0);
        assert_eq!(t.srate(NodeId(1)), units::srate_per_gb_hour(5.0));
        assert_eq!(t.srate(NodeId(2)), units::srate_per_gb_hour(5.0));

        t.set_uniform_capacity(units::gb(11.0)).unwrap();
        assert!(t.capacity(t.warehouse()).is_infinite());
        assert_eq!(t.capacity(NodeId(2)), units::gb(11.0));

        t.set_uniform_nrate(units::nrate_per_gb(400.0)).unwrap();
        for e in t.edges() {
            assert_eq!(e.nrate, units::nrate_per_gb(400.0));
        }

        t.scale_nrates(2.0).unwrap();
        for e in t.edges() {
            assert_eq!(e.nrate, units::nrate_per_gb(800.0));
        }
    }

    #[test]
    fn uniform_mutators_reject_bad_values() {
        let mut t = two_is();
        assert!(t.set_uniform_srate(f64::NAN).is_err());
        assert!(t.set_uniform_capacity(-1.0).is_err());
        assert!(t.set_uniform_nrate(f64::INFINITY).is_err());
        assert!(t.scale_nrates(-2.0).is_err());
        assert!(t.set_uniform_bandwidth(Some(-5.0)).is_err());
        assert!(t.set_uniform_bandwidth(None).is_ok());
    }

    #[test]
    fn first_unreachable_searches_the_usable_links_only() {
        let mut b = TopologyBuilder::new();
        let vw = b.add_warehouse("VW");
        let is1 = b.add_storage("IS1", 0.0, units::gb(5.0));
        let is2 = b.add_storage("IS2", 0.0, units::gb(5.0));
        b.connect(vw, is1, 1.0).unwrap();
        b.connect(vw, is2, 1.0).unwrap();
        b.connect(is1, is2, 1.0).unwrap();
        let t = b.build().unwrap();
        let link = |a, b| t.edge_index(a, b).unwrap();

        assert_eq!(t.first_unreachable(|_| true), None);
        // Any one link of a triangle can go; the other two still reach.
        for e in 0..t.edge_count() {
            assert_eq!(t.first_unreachable(|u| u != e), None, "without link {e}");
        }
        // Two cuts isolate the node they share; none reach every node.
        let (vw_is1, is1_is2) = (link(vw, is1), link(is2, is1));
        assert_eq!(t.first_unreachable(|u| u != vw_is1 && u != is1_is2), Some(is1));
        assert_eq!(t.first_unreachable(|_| false), Some(is1), "the lowest id is reported");
    }

    #[test]
    fn bandwidth_annotations_survive() {
        let mut b = TopologyBuilder::new();
        let vw = b.add_warehouse("VW");
        let is = b.add_storage("IS", 0.0, 1.0);
        b.connect_with_bandwidth(vw, is, 1.0, Some(units::mbps(100.0))).unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.edges()[0].bandwidth, Some(units::mbps(100.0)));
    }
}
