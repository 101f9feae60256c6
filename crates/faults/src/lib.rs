//! Deterministic fault model for degraded-mode VOR service.
//!
//! The paper's scheduler commits a service schedule ahead of time and
//! assumes every component stays up for the whole horizon. This crate
//! describes what happens when that assumption breaks: timed IS node
//! outages (cached residencies lost for a window), link failures, and
//! link bandwidth degradations. A [`FaultPlan`] is a plain value —
//! seedable via [`FaultPlan::generate`], validated against a topology,
//! and asked which videos of a committed schedule it breaks
//! ([`FaultPlan::impact`]) — so the same plan drives both the repair
//! scheduler (`vod-core`) and fault-aware replay (`vod-simulator`)
//! deterministically. The replay, not `impact`, judges what a repaired
//! schedule still loses.
//!
//! Windows are half-open `[from, until)`: a fault starting exactly when
//! another ends does not overlap it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The rule in clippy.toml holds for `FaultPlan::generate`, denied there.
#![allow(clippy::disallowed_methods)]

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use vod_cost_model::{Catalog, Schedule, Secs, SpaceModel, VideoId, VideoSchedule};
use vod_topology::{NodeId, Topology};
use vod_workload::SplitMix64;

/// One injected fault, active over the half-open window `[from, until)`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// An intermediate storage loses its disk contents: every residency
    /// holding data at `node` during the window is lost, and no new data
    /// can be cached there while the outage lasts. The node keeps
    /// forwarding traffic (routing is unaffected — the paper's IS is a
    /// storage attached to a switch, not the switch itself).
    NodeOutage {
        /// The failed intermediate storage.
        node: NodeId,
        /// Outage start (inclusive).
        from: Secs,
        /// Outage end (exclusive).
        until: Secs,
    },
    /// A network link carries no traffic during the window: every stream
    /// crossing `a—b` (either direction) while the failure is active is
    /// broken.
    LinkFailure {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Failure start (inclusive).
        from: Secs,
        /// Failure end (exclusive).
        until: Secs,
    },
    /// A link's bandwidth capacity is multiplied by `factor` (in `(0, 1)`)
    /// for the window. Streams still flow; the replay engine reports
    /// overload against the reduced capacity.
    LinkDegraded {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Degradation start (inclusive).
        from: Secs,
        /// Degradation end (exclusive).
        until: Secs,
        /// Bandwidth multiplier in `(0, 1)`.
        factor: f64,
    },
}

impl Fault {
    /// The fault's active window `(from, until)`.
    pub fn window(&self) -> (Secs, Secs) {
        match *self {
            Fault::NodeOutage { from, until, .. }
            | Fault::LinkFailure { from, until, .. }
            | Fault::LinkDegraded { from, until, .. } => (from, until),
        }
    }

    /// Whether the fault's window overlaps the half-open span
    /// `[start, end)`.
    pub fn overlaps(&self, start: Secs, end: Secs) -> bool {
        let (from, until) = self.window();
        from < end && start < until
    }

    /// The link endpoints for link faults, normalised so `a <= b`.
    pub fn link(&self) -> Option<(NodeId, NodeId)> {
        match *self {
            Fault::LinkFailure { a, b, .. } | Fault::LinkDegraded { a, b, .. } => {
                Some(link_key(a, b))
            }
            Fault::NodeOutage { .. } => None,
        }
    }

    /// Whether this is a link failure on some hop of `route`, either
    /// orientation.
    fn fails_a_hop_of(&self, route: &[NodeId]) -> bool {
        matches!(self, Fault::LinkFailure { .. })
            && route.windows(2).any(|hop| self.link() == Some(link_key(hop[0], hop[1])))
    }
}

/// The link `a—b` normalised so the smaller id comes first.
fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Fault::NodeOutage { node, from, until } => {
                write!(f, "outage of {node} during [{from}, {until})")
            }
            Fault::LinkFailure { a, b, from, until } => {
                write!(f, "failure of link {a}—{b} during [{from}, {until})")
            }
            Fault::LinkDegraded { a, b, from, until, factor } => {
                write!(f, "link {a}—{b} degraded to {factor}x during [{from}, {until})")
            }
        }
    }
}

/// Validation failures for a [`FaultPlan`] against a topology.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultError {
    /// A fault references a node id outside the topology.
    UnknownNode(NodeId),
    /// A node outage targets the video warehouse; the paper's permanent
    /// archive is assumed durable (losing it makes every request
    /// unservable, which is not a schedule-repair problem).
    WarehouseOutage(NodeId),
    /// A link fault references a pair of nodes with no edge between them.
    UnknownLink(NodeId, NodeId),
    /// A fault window is empty, inverted, or non-finite.
    BadWindow {
        /// Window start.
        from: Secs,
        /// Window end.
        until: Secs,
    },
    /// A degradation factor outside `(0, 1)`.
    BadFactor(f64),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownNode(n) => write!(f, "fault references unknown node {n}"),
            Self::WarehouseOutage(n) => {
                write!(f, "node outage targets the video warehouse {n}")
            }
            Self::UnknownLink(a, b) => {
                write!(f, "fault references nonexistent link {a}—{b}")
            }
            Self::BadWindow { from, until } => {
                write!(f, "fault window [{from}, {until}) is empty or non-finite")
            }
            Self::BadFactor(x) => {
                write!(f, "degradation factor {x} outside (0, 1)")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Knobs for seedable fault-plan generation over a topology.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Number of IS node outages to inject.
    pub node_outages: usize,
    /// Number of link failures to inject. Candidates whose removal would
    /// disconnect the graph (together with previously chosen failures)
    /// are skipped, so the warehouse reaches every node around all of
    /// them at once.
    pub link_failures: usize,
    /// Number of link bandwidth degradations to inject.
    pub link_degradations: usize,
    /// Horizon faults are drawn from, seconds.
    pub horizon: Secs,
    /// Minimum fault duration, seconds.
    pub min_duration: Secs,
    /// Maximum fault duration, seconds.
    pub max_duration: Secs,
    /// Lower bound of the degradation factor.
    pub min_factor: f64,
    /// Upper bound of the degradation factor.
    pub max_factor: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            node_outages: 1,
            link_failures: 1,
            link_degradations: 0,
            horizon: 24.0 * 3600.0,
            min_duration: 3600.0,
            max_duration: 6.0 * 3600.0,
            min_factor: 0.25,
            max_factor: 0.75,
        }
    }
}

/// A deterministic, replayable set of faults.
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan over an explicit fault list.
    pub fn new(faults: Vec<Fault>) -> Self {
        Self { faults }
    }

    /// The empty plan (nothing fails).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults, in injection order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Check every fault against the topology: nodes must exist, outages
    /// must not target the warehouse, link faults must reference real
    /// edges, windows must be finite and non-empty, factors in `(0, 1)`.
    pub fn validate(&self, topo: &Topology) -> Result<(), FaultError> {
        let check_window = |from: Secs, until: Secs| {
            if !from.is_finite() || !until.is_finite() || from >= until {
                Err(FaultError::BadWindow { from, until })
            } else {
                Ok(())
            }
        };
        let check_node = |n: NodeId| {
            if n.index() >= topo.node_count() {
                Err(FaultError::UnknownNode(n))
            } else {
                Ok(())
            }
        };
        for f in &self.faults {
            match *f {
                Fault::NodeOutage { node, from, until } => {
                    check_node(node)?;
                    if topo.is_warehouse(node) {
                        return Err(FaultError::WarehouseOutage(node));
                    }
                    check_window(from, until)?;
                }
                Fault::LinkFailure { a, b, from, until } => {
                    check_node(a)?;
                    check_node(b)?;
                    if topo.edge_between(a, b).is_none() {
                        return Err(FaultError::UnknownLink(a, b));
                    }
                    check_window(from, until)?;
                }
                Fault::LinkDegraded { a, b, from, until, factor } => {
                    check_node(a)?;
                    check_node(b)?;
                    if topo.edge_between(a, b).is_none() {
                        return Err(FaultError::UnknownLink(a, b));
                    }
                    check_window(from, until)?;
                    if !(factor > 0.0 && factor < 1.0) {
                        return Err(FaultError::BadFactor(factor));
                    }
                }
            }
        }
        Ok(())
    }

    /// Generate a plan from a seed. Same topology + config + seed →
    /// identical plan. Link-failure candidates that would disconnect the
    /// graph (in combination with already-chosen failures) are skipped, so
    /// a route table built around every [`failed_links`](Self::failed_links)
    /// edge reaches every node from the warehouse.
    #[deny(clippy::disallowed_methods)]
    pub fn generate(topo: &Topology, cfg: &FaultConfig, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut faults = Vec::new();
        let storages: Vec<NodeId> = topo.storages().collect();
        let window = |rng: &mut SplitMix64| {
            let dur = rng.range_f64(cfg.min_duration, cfg.max_duration);
            let from = rng.range_f64(0.0, (cfg.horizon - dur).max(0.0));
            (from, from + dur)
        };

        for _ in 0..cfg.node_outages {
            if storages.is_empty() {
                break;
            }
            let node = storages[rng.index(storages.len())];
            let (from, until) = window(&mut rng);
            faults.push(Fault::NodeOutage { node, from, until });
        }

        // Edges failed so far (a topology has one edge per node pair).
        let mut cut = vec![false; topo.edge_count()];
        for _ in 0..cfg.link_failures {
            let m = topo.edge_count();
            if m == 0 {
                break;
            }
            // Walk edges from a random offset; take the first whose
            // removal keeps the graph connected.
            let offset = rng.index(m);
            let chosen = (0..m)
                .map(|i| (offset + i) % m)
                .find(|&i| topo.first_unreachable(|e| e != i && !cut[e]).is_none());
            let Some(i) = chosen else { break };
            cut[i] = true;
            let e = &topo.edges()[i];
            let (from, until) = window(&mut rng);
            faults.push(Fault::LinkFailure { a: e.a, b: e.b, from, until });
        }

        for _ in 0..cfg.link_degradations {
            let m = topo.edge_count();
            if m == 0 {
                break;
            }
            let e = &topo.edges()[rng.index(m)];
            let (from, until) = window(&mut rng);
            let factor = rng.range_f64(cfg.min_factor, cfg.max_factor);
            faults.push(Fault::LinkDegraded { a: e.a, b: e.b, from, until, factor });
        }

        Self { faults }
    }

    /// Links hit by at least one failure, normalised `a <= b`, sorted and
    /// deduplicated.
    pub fn failed_links(&self) -> Vec<(NodeId, NodeId)> {
        let set: BTreeSet<(NodeId, NodeId)> = self
            .faults
            .iter()
            .filter_map(|f| match *f {
                Fault::LinkFailure { .. } => f.link(),
                _ => None,
            })
            .collect();
        set.into_iter().collect()
    }

    /// All outage windows as `(node, from, until)`, in injection order.
    pub fn outage_windows(&self) -> Vec<(NodeId, Secs, Secs)> {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                Fault::NodeOutage { node, from, until } => Some((node, from, until)),
                _ => None,
            })
            .collect()
    }

    /// The first instant `t ≥ from` at which a stream of length `playback`
    /// over `route` crosses no failed link: no link failure on a hop of
    /// the route (either orientation) overlaps `[t, t + playback)`. While
    /// some failure does, `t` jumps to the latest such `until`; a failure
    /// jumped past never overlaps again, so there is at most one step per
    /// failure.
    pub fn first_clear_start(&self, route: &[NodeId], from: Secs, playback: Secs) -> Secs {
        let failures: Vec<&Fault> =
            self.faults.iter().filter(|f| f.fails_a_hop_of(route)).collect();
        let mut t = from;
        while let Some(until) = failures
            .iter()
            .filter(|f| f.overlaps(t, t + playback))
            .map(|f| f.window().1)
            .reduce(f64::max)
        {
            t = until;
        }
        t
    }

    /// The videos of `schedule` with a service some fault breaks,
    /// ascending: what repair re-places. A delivery or cache-fill transfer
    /// is broken when a failed link lies on its route while the stream is
    /// in flight (`[start, start + playback)`); a residency is broken when
    /// its hosting storage suffers an outage overlapping the window it
    /// actually holds data (`[profile.start, profile.end)`, space > 0 —
    /// degenerate relay residencies store nothing and survive).
    /// Degradations break nothing: streams still flow, only slower.
    pub fn impact(
        &self,
        schedule: &Schedule,
        catalog: &Catalog,
        space: SpaceModel,
    ) -> Vec<VideoId> {
        let breaks = |vs: &VideoSchedule| {
            let playback = catalog.get(vs.video).playback;
            let stream_broken = vs.transfers.iter().any(|t| {
                self.faults
                    .iter()
                    .any(|f| f.overlaps(t.start, t.start + playback) && f.fails_a_hop_of(&t.route))
            });
            stream_broken
                || vs.residencies.iter().any(|r| {
                    let profile = r.profile_with(catalog.get(r.video), space);
                    profile.peak() > 0.0
                        && self.faults.iter().any(|f| {
                            matches!(f, Fault::NodeOutage { node, .. } if *node == r.loc)
                                && f.overlaps(profile.start, profile.end)
                        })
                })
        };
        schedule.videos().filter(|vs| breaks(vs)).map(|vs| vs.video).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_cost_model::{Request, Residency, Transfer};
    use vod_topology::{builders, units, Route, RouteTable, UserId};
    use vod_workload::{generate_catalog, CatalogConfig};

    fn topo() -> Topology {
        builders::paper_fig2(16.0, 8.0, 1.0, 5.0)
    }

    /// VW, IS1, IS2 wired as a triangle: every edge is removable.
    fn triangle() -> Topology {
        let mut b = vod_topology::TopologyBuilder::new();
        let vw = b.add_warehouse("VW");
        let is1 = b.add_storage("IS1", 0.0, units::gb(5.0));
        let is2 = b.add_storage("IS2", 0.0, units::gb(5.0));
        b.connect(vw, is1, 1.0).unwrap();
        b.connect(vw, is2, 1.0).unwrap();
        b.connect(is1, is2, 1.0).unwrap();
        b.add_users(is1, 1);
        b.build().unwrap()
    }

    /// Whether the warehouse reaches every node around every link `plan`
    /// fails, by a route table built around them: an independent check of
    /// the edge-mask search `generate` runs.
    fn routes_around(plan: &FaultPlan, t: &Topology) -> bool {
        let routes = RouteTable::build_avoiding(t, &plan.failed_links());
        t.nodes().all(|n| routes.reachable(t.warehouse(), n))
    }

    fn catalog() -> Catalog {
        generate_catalog(&CatalogConfig::small(4), 7)
    }

    #[test]
    fn validate_accepts_sane_plan() {
        let t = topo();
        let e = t.edges()[0].clone();
        let plan = FaultPlan::new(vec![
            Fault::NodeOutage { node: NodeId(1), from: 10.0, until: 20.0 },
            Fault::LinkFailure { a: e.a, b: e.b, from: 0.0, until: 5.0 },
            Fault::LinkDegraded { a: e.a, b: e.b, from: 0.0, until: 5.0, factor: 0.5 },
        ]);
        assert!(plan.validate(&t).is_ok());
    }

    #[test]
    fn validate_rejects_each_failure_mode() {
        let t = topo();
        let bad = [
            (
                Fault::NodeOutage { node: NodeId(99), from: 0.0, until: 1.0 },
                FaultError::UnknownNode(NodeId(99)),
            ),
            (
                Fault::NodeOutage { node: t.warehouse(), from: 0.0, until: 1.0 },
                FaultError::WarehouseOutage(t.warehouse()),
            ),
            (
                Fault::NodeOutage { node: NodeId(1), from: 5.0, until: 5.0 },
                FaultError::BadWindow { from: 5.0, until: 5.0 },
            ),
            (
                Fault::NodeOutage { node: NodeId(1), from: f64::NAN, until: 5.0 },
                FaultError::BadWindow { from: f64::NAN, until: 5.0 },
            ),
        ];
        for (fault, want) in bad {
            let got = FaultPlan::new(vec![fault]).validate(&t).unwrap_err();
            // NaN != NaN, so compare debug strings.
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
        // Unknown link: fig2 has no direct IS3—IS4 edge... find a missing pair.
        let mut missing = None;
        'outer: for a in t.nodes() {
            for b in t.nodes() {
                if a != b && t.edge_between(a, b).is_none() {
                    missing = Some((a, b));
                    break 'outer;
                }
            }
        }
        if let Some((a, b)) = missing {
            let plan = FaultPlan::new(vec![Fault::LinkFailure { a, b, from: 0.0, until: 1.0 }]);
            assert_eq!(plan.validate(&t).unwrap_err(), FaultError::UnknownLink(a, b));
        }
        let e = t.edges()[0].clone();
        let plan = FaultPlan::new(vec![Fault::LinkDegraded {
            a: e.a,
            b: e.b,
            from: 0.0,
            until: 1.0,
            factor: 1.5,
        }]);
        assert_eq!(plan.validate(&t).unwrap_err(), FaultError::BadFactor(1.5));
    }

    #[test]
    fn generate_is_deterministic_and_valid() {
        let t = topo();
        let cfg = FaultConfig { link_degradations: 1, ..FaultConfig::default() };
        let a = FaultPlan::generate(&t, &cfg, 42);
        let b = FaultPlan::generate(&t, &cfg, 42);
        assert_eq!(a, b, "same seed must give the identical plan");
        assert!(a.validate(&t).is_ok());
        assert!(!a.is_empty());
        let c = FaultPlan::generate(&t, &cfg, 43);
        assert_ne!(a, c, "different seeds should diverge");
        // Generated link failures never cut a node off.
        assert!(routes_around(&a, &t));
    }

    #[test]
    fn generate_skips_bridge_links_on_trees() {
        // fig2 is a tree: every link is a bridge, so no link failure can
        // be injected without disconnecting the graph.
        let t = topo();
        let cfg = FaultConfig { node_outages: 0, link_failures: 3, ..FaultConfig::default() };
        let plan = FaultPlan::generate(&t, &cfg, 9);
        assert!(plan.failed_links().is_empty(), "bridges must be skipped");
        // On a triangle at most one of the three edges can fail before
        // the rest become bridges; generation stops there.
        let tri = triangle();
        let plan = FaultPlan::generate(&tri, &cfg, 9);
        assert_eq!(plan.failed_links().len(), 1);
        assert!(routes_around(&plan, &tri));
    }

    #[test]
    fn query_helpers_report_windows() {
        let plan = FaultPlan::new(vec![
            Fault::NodeOutage { node: NodeId(2), from: 100.0, until: 200.0 },
            Fault::LinkFailure { a: NodeId(3), b: NodeId(0), from: 50.0, until: 60.0 },
        ]);
        assert_eq!(plan.failed_links(), vec![(NodeId(0), NodeId(3))]);
        assert_eq!(plan.outage_windows(), vec![(NodeId(2), 100.0, 200.0)]);
    }

    fn failure(a: u32, b: u32, from: Secs, until: Secs) -> Fault {
        Fault::LinkFailure { a: NodeId(a), b: NodeId(b), from, until }
    }

    #[test]
    fn first_clear_start_is_from_when_the_route_is_clear() {
        let route = [NodeId(0), NodeId(1), NodeId(2)];
        let plan = FaultPlan::new(vec![
            // Wholly after the stream: `[100, 150)` ends where it starts.
            failure(1, 2, 150.0, 400.0),
            // Wholly before it.
            failure(0, 1, 0.0, 100.0),
            // Overlapping, but on a link off the route.
            failure(2, 3, 0.0, 1e6),
            // Overlapping, but only an outage and a degradation.
            Fault::NodeOutage { node: NodeId(1), from: 0.0, until: 1e6 },
            Fault::LinkDegraded { a: NodeId(0), b: NodeId(1), from: 0.0, until: 1e6, factor: 0.5 },
        ]);
        assert_eq!(plan.first_clear_start(&route, 100.0, 50.0), 100.0);
        assert_eq!(FaultPlan::empty().first_clear_start(&route, 100.0, 50.0), 100.0);
        assert_eq!(plan.first_clear_start(&route[..1], 100.0, 1e9), 100.0, "a zero-hop route");
    }

    #[test]
    fn first_clear_start_jumps_to_the_end_of_the_covering_failure() {
        let route = [NodeId(0), NodeId(1), NodeId(2)];
        // Either orientation of a hop counts.
        for plan in [
            FaultPlan::new(vec![failure(1, 2, 90.0, 500.0)]),
            FaultPlan::new(vec![failure(2, 1, 90.0, 500.0)]),
        ] {
            assert_eq!(plan.first_clear_start(&route, 100.0, 50.0), 500.0);
        }
        // A failure starting inside the stream blocks it too.
        let plan = FaultPlan::new(vec![failure(0, 1, 140.0, 300.0)]);
        assert_eq!(plan.first_clear_start(&route, 100.0, 50.0), 300.0);
    }

    #[test]
    fn first_clear_start_chains_failures_on_different_hops() {
        let route = [NodeId(0), NodeId(1), NodeId(2)];
        // Clearing the first failure at 200 lands the stream `[200, 250)`
        // on the second, which clears at 600; the third starts at 650.
        let plan = FaultPlan::new(vec![
            failure(2, 1, 240.0, 600.0),
            failure(0, 1, 90.0, 200.0),
            failure(0, 1, 650.0, 700.0),
        ]);
        assert_eq!(plan.first_clear_start(&route, 100.0, 50.0), 600.0);
        // Two failures overlapping the same start: the later end wins.
        let plan = FaultPlan::new(vec![failure(0, 1, 0.0, 300.0), failure(1, 2, 0.0, 200.0)]);
        assert_eq!(plan.first_clear_start(&route, 100.0, 50.0), 300.0);
    }

    #[test]
    fn impact_flags_broken_transfers_and_residencies() {
        let cat = catalog();
        let vid = VideoId(0);
        let playback = cat.get(vid).playback;
        let req = |u: u32, t: Secs| Request { user: UserId(u), video: vid, start: t };

        // Build a tiny schedule by hand: a delivery over 0—1—2 at t=100 and
        // a residency at node 2 extended past its fill (so it holds data).
        let route = Route { nodes: vec![NodeId(0), NodeId(1), NodeId(2)], rate: 1.0 };
        let mut vs = VideoSchedule::new(vid);
        vs.transfers.push(Transfer::for_user(&req(0, 100.0), route));
        let mut res = Residency::begin(NodeId(2), NodeId(0), req(0, 100.0));
        res.extend(req(1, 100.0 + playback));
        vs.residencies.push(res);
        let mut schedule = Schedule::new();
        schedule.upsert(vs);

        // A link failure on the 1—2 hop while the stream is in flight.
        let plan = FaultPlan::new(vec![Fault::LinkFailure {
            a: NodeId(2),
            b: NodeId(1),
            from: 100.0 + playback / 2.0,
            until: 100.0 + playback,
        }]);
        assert_eq!(plan.impact(&schedule, &cat, SpaceModel::InstantReservation), [vid]);
        // The same failure once the stream has ended breaks nothing.
        let late = FaultPlan::new(vec![Fault::LinkFailure {
            a: NodeId(2),
            b: NodeId(1),
            from: 100.0 + playback,
            until: 100.0 + 2.0 * playback,
        }]);
        assert!(late.impact(&schedule, &cat, SpaceModel::InstantReservation).is_empty());

        // An outage at the hosting storage while it holds data.
        let plan = FaultPlan::new(vec![Fault::NodeOutage {
            node: NodeId(2),
            from: 100.0 + playback,
            until: 100.0 + 2.0 * playback,
        }]);
        assert_eq!(plan.impact(&schedule, &cat, SpaceModel::InstantReservation), [vid]);

        // An outage somewhere irrelevant breaks nothing.
        let plan =
            FaultPlan::new(vec![Fault::NodeOutage { node: NodeId(5), from: 0.0, until: 1e6 }]);
        assert!(plan.impact(&schedule, &cat, SpaceModel::InstantReservation).is_empty());
    }

    #[test]
    fn degenerate_relay_residency_survives_outage() {
        let cat = catalog();
        let vid = VideoId(1);
        let req = Request { user: UserId(0), video: vid, start: 500.0 };
        let mut vs = VideoSchedule::new(vid);
        // A pure relay: start == last_service, zero stored bytes.
        vs.residencies.push(Residency::begin(NodeId(1), NodeId(0), req));
        let mut schedule = Schedule::new();
        schedule.upsert(vs);
        let plan =
            FaultPlan::new(vec![Fault::NodeOutage { node: NodeId(1), from: 0.0, until: 1e6 }]);
        let impact = plan.impact(&schedule, &cat, SpaceModel::InstantReservation);
        assert!(impact.is_empty(), "relay residencies store nothing and survive outages");
    }

    #[test]
    fn route_tables_go_around_failed_links() {
        let t = triangle();
        let e = t.edges()[0].clone();
        let plan =
            FaultPlan::new(vec![Fault::LinkFailure { a: e.b, b: e.a, from: 0.0, until: 1.0 }]);
        assert!(routes_around(&plan, &t));
        let routes = RouteTable::build_avoiding(&t, &plan.failed_links());
        let detour = routes.try_path(e.a, e.b).unwrap();
        assert_eq!(detour.hop_count(), 2, "the two surviving links carry {}—{}", e.a, e.b);
        // Failing a second link of the triangle cuts a node off.
        let f = t.edges()[1].clone();
        let both = FaultPlan::new(
            plan.faults()
                .iter()
                .copied()
                .chain([Fault::LinkFailure { a: f.a, b: f.b, from: 0.0, until: 1.0 }])
                .collect(),
        );
        assert!(!routes_around(&both, &t));
    }

    #[test]
    fn display_strings_are_informative() {
        let f = Fault::NodeOutage { node: NodeId(3), from: 1.0, until: 2.0 };
        assert!(f.to_string().contains("n3"));
        let e = FaultError::BadFactor(2.0);
        assert!(e.to_string().contains('2'));
        let _ = units::gb(1.0); // keep the units import exercised
    }
}
