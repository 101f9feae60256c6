//! Property tests for shared routes: the handles a [`RouteTable`] and a
//! [`SchedCtx`] hand out are, node for node, the sequences the hop-by-hop
//! walk ([`RouteTable::try_path`]) and its concatenation build — on intact
//! and degraded tables alike — and a pair the table cannot connect is a
//! typed error on every ask, never a panic and never a cached empty path.

#![allow(clippy::disallowed_methods)] // the per-call walk is the oracle

use proptest::prelude::*;
use std::sync::Arc;
use vod_core::SchedCtx;
use vod_cost_model::{Catalog, CostModel};
use vod_topology::{builders, NodeId, RouteTable, Topology, TopologyError};
use vod_workload::SplitMix64;

fn build_topo(kind: u32, storages: usize, seed: u64) -> Topology {
    let gen = builders::GenConfig { storages, ..builders::GenConfig::default() };
    match kind {
        0 => builders::paper_fig4(&builders::PaperFig4Config::default()),
        1 => builders::random_connected(&gen, 3, seed ^ 0xC0FFEE),
        _ => builders::ring(&gen),
    }
}

/// The table with `cuts` randomly chosen links avoided (a repeated draw
/// cuts fewer; a bridge leaves pairs unreachable).
fn degraded(topo: &Topology, cuts: usize, seed: u64) -> RouteTable {
    let mut rng = SplitMix64::new(seed ^ 0xDEAD_11E5);
    let avoid: Vec<(NodeId, NodeId)> = (0..cuts)
        .map(|_| {
            let e = &topo.edges()[rng.index(topo.edge_count())];
            (e.a, e.b)
        })
        .collect();
    RouteTable::build_avoiding(topo, &avoid)
}

/// The pre-PR way to build a route: walk, then concatenate `Vec`s.
fn walked(table: &RouteTable, a: NodeId, b: NodeId) -> Result<Vec<NodeId>, TopologyError> {
    table.try_path(a, b).map(|r| r.nodes)
}

fn walked_relay(
    table: &RouteTable,
    src: NodeId,
    m: NodeId,
    local: NodeId,
) -> Result<Vec<NodeId>, TopologyError> {
    let mut route = walked(table, src, m)?;
    route.extend_from_slice(&walked(table, m, local)?[1..]);
    Ok(route)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn shared_paths_equal_the_walk(
        kind in 0u32..3,
        storages in 3usize..12,
        cuts in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let topo = build_topo(kind, storages, seed);
        let table = degraded(&topo, cuts, seed);
        let (first, second) = (table.clone(), table.clone());
        // Two passes: the first fills the cells, the second reads them.
        for pass in 0..2 {
            for a in topo.nodes() {
                for b in topo.nodes() {
                    let shared = table.shared_path(a, b);
                    match walked(&table, a, b) {
                        Ok(nodes) => {
                            prop_assert!(table.reachable(a, b));
                            let shared = shared.expect("the walk found a route");
                            prop_assert_eq!(&shared[..], &nodes[..], "{}→{}, pass {}", a, b, pass);
                            // Handles from two clones of one table are equal.
                            prop_assert_eq!(
                                first.shared_path(a, b).expect("same table"),
                                second.shared_path(a, b).expect("same table")
                            );
                        }
                        Err(e) => {
                            prop_assert_eq!(e.clone(), TopologyError::Unreachable { from: a, to: b });
                            prop_assert_eq!(shared.unwrap_err(), e.clone());
                            prop_assert_eq!(first.shared_path(a, b).unwrap_err(), e);
                        }
                    }
                }
            }
        }
        // A clone taken after the cells filled shares them.
        let late = table.clone();
        let (vw, far) = (topo.warehouse(), NodeId(topo.node_count() as u32 - 1));
        if let Ok(route) = table.shared_path(vw, far) {
            prop_assert!(Arc::ptr_eq(&route, &late.shared_path(vw, far).expect("filled cell")));
        }
    }

    #[test]
    fn relay_routes_equal_the_concatenation(
        kind in 0u32..3,
        storages in 3usize..9,
        cuts in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let topo = build_topo(kind, storages, seed);
        let table = degraded(&topo, cuts, seed);
        let model = CostModel::per_hop();
        let catalog = Catalog::new(Vec::new());
        let ctx = SchedCtx::with_routes(&topo, table.clone(), &model, &catalog);
        let twin = ctx.clone();
        for pass in 0..2 {
            for src in topo.nodes() {
                for local in topo.storages() {
                    for m in topo.storages() {
                        let relay = ctx.relay_route(src, m, local);
                        match walked_relay(&table, src, m, local) {
                            Ok(nodes) => {
                                let relay = relay.expect("both legs exist");
                                prop_assert_eq!(
                                    &relay[..], &nodes[..],
                                    "{}→{}→{}, pass {}", src, m, local, pass
                                );
                                prop_assert_eq!(relay, twin.relay_route(src, m, local).expect("same table"));
                            }
                            Err(e) => {
                                let unreachable = matches!(e, TopologyError::Unreachable { .. });
                                prop_assert!(unreachable, "{:?}", e);
                                prop_assert_eq!(relay.unwrap_err(), e);
                            }
                        }
                    }
                }
            }
        }
    }
}
