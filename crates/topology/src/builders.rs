//! Deterministic topology generators.
//!
//! [`paper_fig4`] reconstructs the paper's 20-node evaluation network
//! (1 video warehouse + 19 intermediate storages, 10 users per
//! neighborhood). The paper only shows the topology as a drawing (Fig. 4),
//! so the exact wiring here is a documented stand-in with the same node
//! count, roles, and a comparable diameter: a warehouse feeding four
//! regional hubs on a backbone ring, each hub fanning out to a few leaf
//! storages, plus a couple of cross links. Because the paper's charging
//! rates are explicitly arbitrary units and every experiment sweeps rates
//! uniformly, the trends of §5 do not depend on the precise wiring.
//!
//! The remaining generators (line, ring, tree, random) support the
//! extended test/benchmark suite.

use crate::{units, NodeId, SplitMix64, Topology, TopologyBuilder};

/// Parameters for [`paper_fig4`] (defaults = the paper's Table 4 baseline).
#[derive(Clone, Debug)]
pub struct PaperFig4Config {
    /// Access-link network charging rate, $/GB per hop (the swept
    /// "Network Charging Rate" of Table 4, 300–1000).
    pub nrate_per_gb: f64,
    /// Rate multiplier for the long-haul backbone links (warehouse↔hub
    /// and hub↔hub). The drawing in the paper's Fig. 4 is a hierarchical
    /// metro network; pricing the backbone above the access links is what
    /// makes regional cache sharing worthwhile — with a flat 1.0 the
    /// warehouse is never farther (in $) than a neighboring cache and the
    /// intermediate storages barely matter.
    pub backbone_rate_multiplier: f64,
    /// Uniform storage charging rate, $/(GB·hour). Paper sweeps 3–8
    /// (Figs. 5/6) and 0–300 (Figs. 7/8).
    pub srate_per_gb_hour: f64,
    /// Intermediate storage capacity in GB. Paper uses 5, 8, 11, 14.
    pub capacity_gb: f64,
    /// Users per neighborhood. Paper uses 10.
    pub users_per_neighborhood: usize,
}

impl Default for PaperFig4Config {
    fn default() -> Self {
        Self {
            nrate_per_gb: 300.0,
            backbone_rate_multiplier: 2.0,
            srate_per_gb_hour: 3.0,
            capacity_gb: 5.0,
            users_per_neighborhood: 10,
        }
    }
}

/// Build the 20-node evaluation network of the paper's Fig. 4.
///
/// Structure: `VW` connects to four regional hub storages (`H0..H3`)
/// arranged on a backbone ring; each hub serves a fan of leaf storages
/// (4, 4, 4, 3), and two cross links knit adjacent regions together, for
/// 19 intermediate storages total.
pub fn paper_fig4(cfg: &PaperFig4Config) -> Topology {
    let nrate = units::nrate_per_gb(cfg.nrate_per_gb);
    let backbone = nrate * cfg.backbone_rate_multiplier;
    let srate = units::srate_per_gb_hour(cfg.srate_per_gb_hour);
    let cap = units::gb(cfg.capacity_gb);

    let mut b = TopologyBuilder::new();
    let vw = b.add_warehouse("VW");

    // Regional hubs on a backbone ring around the warehouse.
    let hubs: Vec<NodeId> = (0..4).map(|i| b.add_storage(format!("H{i}"), srate, cap)).collect();
    for &h in &hubs {
        b.connect(vw, h, backbone).expect("hub link");
    }
    for i in 0..4 {
        b.connect(hubs[i], hubs[(i + 1) % 4], backbone).expect("backbone ring");
    }

    // Leaf storages per hub: 4 + 4 + 4 + 3 = 15 leaves, 19 storages total.
    let fan = [4usize, 4, 4, 3];
    let mut leaves: Vec<Vec<NodeId>> = Vec::with_capacity(4);
    for (hi, &k) in fan.iter().enumerate() {
        let mut region = Vec::with_capacity(k);
        for li in 0..k {
            let leaf = b.add_storage(format!("L{hi}{li}"), srate, cap);
            b.connect(hubs[hi], leaf, nrate).expect("leaf link");
            region.push(leaf);
        }
        leaves.push(region);
    }

    // Cross links between adjacent regions (mesh flavour of the drawing).
    b.connect(leaves[0][3], leaves[1][0], nrate).expect("cross link 0-1");
    b.connect(leaves[2][3], leaves[3][0], nrate).expect("cross link 2-3");

    // Every intermediate storage hosts a neighborhood of users, in id
    // order: the hubs, then the leaves.
    for &s in hubs.iter().chain(leaves.iter().flatten()) {
        b.add_users(s, cfg.users_per_neighborhood);
    }

    b.build().expect("fig4 wiring is valid")
}

/// Build the three-node topology of the paper's Fig. 2 worked example:
/// `VW -(0.2 $/unit)- IS1 -(0.1 $/unit)- IS2`, user U1 local to IS1 and
/// users U2, U3 local to IS2. Rates are quoted here in $/GB and $/(GB·h)
/// so the example costs come out in dollars exactly as printed.
pub fn paper_fig2(
    nrate_vw_is1_per_gb: f64,
    nrate_is1_is2_per_gb: f64,
    srate_per_gb_hour: f64,
    capacity_gb: f64,
) -> Topology {
    let mut b = TopologyBuilder::new();
    let vw = b.add_warehouse("VW");
    let is1 =
        b.add_storage("IS1", units::srate_per_gb_hour(srate_per_gb_hour), units::gb(capacity_gb));
    let is2 =
        b.add_storage("IS2", units::srate_per_gb_hour(srate_per_gb_hour), units::gb(capacity_gb));
    b.connect(vw, is1, units::nrate_per_gb(nrate_vw_is1_per_gb)).expect("fig2 edge");
    b.connect(is1, is2, units::nrate_per_gb(nrate_is1_is2_per_gb)).expect("fig2 edge");
    b.add_users(is1, 1);
    b.add_users(is2, 2);
    b.build().expect("fig2 wiring is valid")
}

/// Common parameters for the generic generators.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Number of intermediate storages (≥ 1).
    pub storages: usize,
    /// Uniform network charging rate, $/GB per hop.
    pub nrate_per_gb: f64,
    /// Uniform storage charging rate, $/(GB·hour).
    pub srate_per_gb_hour: f64,
    /// Intermediate storage capacity, GB.
    pub capacity_gb: f64,
    /// Users per neighborhood.
    pub users_per_neighborhood: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            storages: 19,
            nrate_per_gb: 300.0,
            srate_per_gb_hour: 3.0,
            capacity_gb: 5.0,
            users_per_neighborhood: 10,
        }
    }
}

fn start(cfg: &GenConfig) -> (TopologyBuilder, NodeId, Vec<NodeId>, f64) {
    assert!(cfg.storages >= 1, "need at least one intermediate storage");
    let srate = units::srate_per_gb_hour(cfg.srate_per_gb_hour);
    let cap = units::gb(cfg.capacity_gb);
    let mut b = TopologyBuilder::new();
    let vw = b.add_warehouse("VW");
    let storages: Vec<NodeId> =
        (0..cfg.storages).map(|i| b.add_storage(format!("IS{i}"), srate, cap)).collect();
    (b, vw, storages, units::nrate_per_gb(cfg.nrate_per_gb))
}

fn finish(mut b: TopologyBuilder, storages: &[NodeId], users: usize) -> Topology {
    for &s in storages {
        b.add_users(s, users);
    }
    b.build().expect("generated wiring is valid")
}

/// Line: `VW - IS0 - IS1 - … - ISk`. Distance from the warehouse grows
/// linearly, so downstream caching pays off strongly.
pub fn line(cfg: &GenConfig) -> Topology {
    let (mut b, vw, storages, nrate) = start(cfg);
    let mut prev = vw;
    for &s in &storages {
        b.connect(prev, s, nrate).expect("line edge");
        prev = s;
    }
    finish(b, &storages, cfg.users_per_neighborhood)
}

/// Ring: warehouse on a cycle with all storages.
pub fn ring(cfg: &GenConfig) -> Topology {
    let (mut b, vw, storages, nrate) = start(cfg);
    let mut prev = vw;
    for &s in &storages {
        b.connect(prev, s, nrate).expect("ring edge");
        prev = s;
    }
    if cfg.storages >= 2 {
        b.connect(prev, vw, nrate).expect("ring closing edge");
    }
    finish(b, &storages, cfg.users_per_neighborhood)
}

/// Balanced binary tree rooted at the warehouse.
pub fn binary_tree(cfg: &GenConfig) -> Topology {
    let (mut b, vw, storages, nrate) = start(cfg);
    for (i, &s) in storages.iter().enumerate() {
        let parent = if i == 0 { vw } else { storages[(i - 1) / 2] };
        b.connect(parent, s, nrate).expect("tree edge");
    }
    finish(b, &storages, cfg.users_per_neighborhood)
}

/// Random connected topology: a random spanning tree (guaranteeing
/// connectivity) plus `extra_edges` additional random links. Deterministic
/// for a given `seed`.
pub fn random_connected(cfg: &GenConfig, extra_edges: usize, seed: u64) -> Topology {
    let (mut b, vw, storages, nrate) = start(cfg);
    let mut rng = SplitMix64::new(seed);
    let all: Vec<NodeId> = std::iter::once(vw).chain(storages.iter().copied()).collect();

    // Random spanning tree: attach each node to a uniformly random earlier
    // node (a random recursive tree).
    for i in 1..all.len() {
        let parent = all[(rng.next_u64() % i as u64) as usize];
        b.connect(parent, all[i], nrate).expect("tree edge");
    }
    // Extra random links; skip duplicates/self-loops quietly.
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < extra_edges && attempts < extra_edges * 20 {
        attempts += 1;
        let a = all[(rng.next_u64() % all.len() as u64) as usize];
        let c = all[(rng.next_u64() % all.len() as u64) as usize];
        if a != c && b.connect(a, c, nrate).is_ok() {
            added += 1;
        }
    }
    finish(b, &storages, cfg.users_per_neighborhood)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteTable;

    #[test]
    fn fig4_matches_paper_scale() {
        let t = paper_fig4(&PaperFig4Config::default());
        assert_eq!(t.node_count(), 20);
        assert_eq!(t.storage_count(), 19);
        assert_eq!(t.user_count(), 190);
        // Every storage hosts exactly 10 users.
        for s in t.storages() {
            assert_eq!(t.users_at(s).len(), 10);
        }
        // The warehouse hosts none.
        assert!(t.users_at(t.warehouse()).is_empty());
    }

    #[test]
    fn fig4_routes_have_small_diameter() {
        let t = paper_fig4(&PaperFig4Config::default());
        let rt = RouteTable::build(&t);
        let vw = t.warehouse();
        for s in t.storages() {
            let p = rt.path(vw, s);
            assert!(p.hop_count() <= 2, "warehouse reaches {s} in {} hops", p.hop_count());
        }
    }

    #[test]
    fn fig4_leaf_to_leaf_costs_more_than_hub_to_leaf() {
        let t = paper_fig4(&PaperFig4Config::default());
        let rt = RouteTable::build(&t);
        // Uniform per-hop rates: rate is proportional to hop count, so a
        // leaf in region 0 is farther from a leaf in region 2 than from its
        // own hub.
        let hub0 = NodeId(1);
        let leaf00 = NodeId(5);
        let leaf20 = NodeId(13);
        assert!(rt.rate(leaf00, leaf20) > rt.rate(leaf00, hub0));
    }

    #[test]
    fn fig2_matches_paper_example_layout() {
        let t = paper_fig2(200.0, 100.0, 1.0, 5.0);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.user_count(), 3);
        assert_eq!(t.users_at(NodeId(1)).len(), 1);
        assert_eq!(t.users_at(NodeId(2)).len(), 2);
        let rt = RouteTable::build(&t);
        // VW→IS2 must route through IS1 at 0.3 $/GB-equivalent.
        let p = rt.path(t.warehouse(), NodeId(2));
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn generators_build_connected_graphs() {
        let cfg = GenConfig { storages: 7, ..GenConfig::default() };
        for t in [line(&cfg), ring(&cfg), binary_tree(&cfg), random_connected(&cfg, 4, 42)] {
            assert_eq!(t.storage_count(), 7);
            assert_eq!(t.user_count(), 7 * cfg.users_per_neighborhood);
            // build() already enforces connectivity; sanity-check routing.
            let rt = RouteTable::build(&t);
            for s in t.storages() {
                assert!(rt.rate(t.warehouse(), s).is_finite());
            }
        }
    }

    #[test]
    fn line_distance_grows_with_index() {
        let cfg = GenConfig { storages: 5, ..GenConfig::default() };
        let t = line(&cfg);
        let rt = RouteTable::build(&t);
        let vw = t.warehouse();
        let mut prev = 0.0;
        for s in t.storages() {
            let r = rt.rate(vw, s);
            assert!(r > prev);
            prev = r;
        }
    }

    #[test]
    fn random_topology_is_deterministic_per_seed() {
        let cfg = GenConfig { storages: 9, ..GenConfig::default() };
        let a = random_connected(&cfg, 5, 7);
        let b = random_connected(&cfg, 5, 7);
        assert_eq!(a.edge_count(), b.edge_count());
        for (ea, eb) in a.edges().iter().zip(b.edges()) {
            assert_eq!((ea.a, ea.b), (eb.a, eb.b));
        }
        let c = random_connected(&cfg, 5, 8);
        let same = a.edge_count() == c.edge_count()
            && a.edges().iter().zip(c.edges()).all(|(x, y)| (x.a, x.b) == (y.a, y.b));
        assert!(!same, "different seeds should give different wirings");
    }

    #[test]
    fn single_storage_degenerate_cases() {
        let cfg = GenConfig { storages: 1, users_per_neighborhood: 3, ..GenConfig::default() };
        for t in [line(&cfg), ring(&cfg), binary_tree(&cfg)] {
            assert_eq!(t.storage_count(), 1);
            assert_eq!(t.user_count(), 3);
        }
    }
}
