//! Set-up pin: the arrival trace and the generated fault plans are
//! bit-identical to the code they replaced.
//!
//! `generate_arrivals` builds its trace one cycle block at a time, sorting
//! each block in place, and `FaultPlan::generate` tests connectivity on an
//! edge mask. The oracles below are the earlier versions: a whole-trace
//! stable `sort_by` over `generate_requests` / `generate_regional_requests`
//! batches, verbatim, and the per-candidate whole-graph check, which now
//! routes around the failed links with a route table (a Dijkstra from
//! every node, not the edge-mask search it pins). Traces are compared by
//! the bits of `at` and `start` plus user and video; plans with `==`.

use vod_paradigm::faults::{Fault, FaultConfig, FaultPlan};
use vod_paradigm::prelude::*;
use vod_paradigm::topology::builders::{GenConfig, PaperFig4Config};
use vod_paradigm::workload::{
    generate_arrivals, generate_catalog, generate_regional_requests, generate_requests, Arrival,
    ArrivalConfig, ArrivalPattern, CatalogConfig, RequestConfig, SplitMix64,
};

/// The arrival generator before block-wise sorting.
fn oracle_arrivals(
    topo: &Topology,
    catalog: &Catalog,
    cfg: &ArrivalConfig,
    seed: u64,
) -> Vec<Arrival> {
    let horizon = cfg.request.horizon_hours * 3_600.0;
    let mut out = Vec::new();
    for k in 0..cfg.cycles {
        let cycle_cfg = RequestConfig {
            requests_per_user: cfg.request.requests_per_user * cfg.multiplier(k),
            ..cfg.request.clone()
        };
        let cycle_seed = seed ^ (k as u64 + 1);
        let batch = if cfg.regional {
            generate_regional_requests(topo, catalog, &cycle_cfg, cycle_seed)
        } else {
            generate_requests(topo, catalog, &cycle_cfg, cycle_seed)
        };
        for r in batch.iter() {
            let start = r.start + k as f64 * horizon;
            out.push(Arrival { at: (start - horizon).max(0.0), request: Request { start, ..*r } });
        }
    }
    out.sort_by(|a, b| {
        a.at.total_cmp(&b.at)
            .then(a.request.start.total_cmp(&b.request.start))
            .then(a.request.video.cmp(&b.request.video))
            .then(a.request.user.cmp(&b.request.user))
    });
    out
}

/// The fault-plan generator before the edge mask: a candidate is taken
/// when the warehouse still reaches every node around it and every earlier
/// failure.
fn oracle_plan(topo: &Topology, cfg: &FaultConfig, seed: u64) -> FaultPlan {
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

    let mut failed: Vec<(NodeId, NodeId)> = Vec::new();
    for _ in 0..cfg.link_failures {
        let m = topo.edge_count();
        if m == 0 {
            break;
        }
        let offset = rng.index(m);
        let chosen = (0..m).map(|i| (offset + i) % m).find(|&i| {
            let e = &topo.edges()[i];
            let mut trial = failed.clone();
            trial.push((e.a, e.b));
            routes_reach_every_node(topo, &trial)
        });
        let Some(i) = chosen else { break };
        let e = &topo.edges()[i];
        failed.push((e.a, e.b));
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

    FaultPlan::new(faults)
}

/// Whether the warehouse reaches every node around the links `failed`.
fn routes_reach_every_node(topo: &Topology, failed: &[(NodeId, NodeId)]) -> bool {
    let routes = RouteTable::build_avoiding(topo, failed);
    topo.nodes().all(|n| routes.reachable(topo.warehouse(), n))
}

const HORIZON: f64 = 24.0 * 3_600.0;
const CYCLES: usize = 40;
const SEEDS: [u64; 2] = [1997, 4242];
const CATALOG_SEED: u64 = 0xCA7A_10C0_FFEE_0001;
const FAULT_SEED: u64 = 0xFA17_0000_0000_0001;
const NET_SEED: u64 = 0xB0B;

fn fig4(users_per_neighborhood: usize) -> Topology {
    builders::paper_fig4(&PaperFig4Config {
        capacity_gb: 5.0,
        users_per_neighborhood,
        ..Default::default()
    })
}

fn random(capacity_gb: f64, users_per_neighborhood: usize, extra_edges: usize) -> Topology {
    let cfg = GenConfig { storages: 24, capacity_gb, users_per_neighborhood, ..Default::default() };
    builders::random_connected(&cfg, extra_edges, NET_SEED)
}

fn arrivals(requests_per_user: usize, regional: bool, burst: Vec<(usize, usize)>) -> ArrivalConfig {
    ArrivalConfig {
        request: RequestConfig { requests_per_user, ..RequestConfig::with_alpha(0.271) },
        cycles: CYCLES,
        regional,
        burst,
    }
}

/// Every field of every arrival, floats by their bits.
fn bits(trace: &[Arrival]) -> Vec<(u64, u64, u32, u32)> {
    trace
        .iter()
        .map(|a| (a.at.to_bits(), a.request.start.to_bits(), a.request.user.0, a.request.video.0))
        .collect()
}

fn assert_trace_pinned(what: &str, topo: &Topology, titles: usize, cfg: &ArrivalConfig) {
    let catalog = generate_catalog(&CatalogConfig::small(titles), CATALOG_SEED);
    for seed in SEEDS {
        let got = generate_arrivals(topo, &catalog, cfg, seed);
        let want = oracle_arrivals(topo, &catalog, cfg, seed);
        assert!(!want.is_empty(), "{what}, seed {seed}: an empty trace pins nothing");
        assert!(bits(&got) == bits(&want), "{what}, seed {seed}: the trace moved");
    }
}

fn overload_bursts() -> Vec<(usize, usize)> {
    (0..CYCLES).filter(|k| k % 8 == 1).map(|k| (k, 8)).collect()
}

#[test]
fn the_benchmark_cells_traces_are_pinned() {
    assert_trace_pinned("steady", &fig4(10), 500, &arrivals(2, false, Vec::new()));
    assert_trace_pinned("contended", &random(1.8, 4, 3), 150, &arrivals(7, false, Vec::new()));
    assert_trace_pinned("overload_faults", &fig4(10), 120, &arrivals(2, false, overload_bursts()));
    assert_trace_pinned("ample_wide", &random(40.0, 6, 3), 240, &arrivals(28, true, Vec::new()));
}

#[test]
fn edge_case_traces_are_pinned() {
    let topo = fig4(10);
    let peak = ArrivalConfig {
        request: RequestConfig {
            arrivals: ArrivalPattern::Peak { peak_fraction: 0.75 },
            ..arrivals(2, false, Vec::new()).request
        },
        ..arrivals(2, false, Vec::new())
    };
    assert_trace_pinned("peak arrivals", &topo, 500, &peak);
    let regional_peak = ArrivalConfig { regional: true, burst: vec![(3, 4)], ..peak.clone() };
    assert_trace_pinned("regional peak arrivals", &topo, 500, &regional_peak);
    assert_trace_pinned("burst on cycle 0", &topo, 500, &arrivals(2, false, vec![(0, 5)]));
    // 3.6 s cycles: the shifted starts' ulps are largest relative to the
    // window here. A start rounding onto the next window is still too rare
    // to draw; `arrivals::tests` builds that boundary by hand.
    let tiny = ArrivalConfig {
        request: RequestConfig { horizon_hours: 0.001, ..arrivals(5, false, Vec::new()).request },
        ..arrivals(5, false, Vec::new())
    };
    assert_trace_pinned("0.001 h horizon", &topo, 500, &tiny);
    assert_trace_pinned(
        "0.001 h horizon, regional",
        &random(40.0, 6, 3),
        240,
        &ArrivalConfig { regional: true, ..tiny },
    );
    // Three titles: a single user asks for the same title many times.
    assert_trace_pinned("3-title catalog", &topo, 3, &arrivals(5, false, vec![(0, 2), (7, 3)]));
    assert_trace_pinned("one cycle", &topo, 500, &ArrivalConfig { cycles: 1, ..peak });
}

#[test]
fn generated_fault_plans_are_pinned() {
    let mut topos = vec![("paper_fig4", fig4(10))];
    for extra in 0..=4 {
        topos.push(("random_connected", random(5.0, 4, extra)));
    }
    for (name, topo) in &topos {
        for n in [0, 1, 5, 40, 200] {
            let cfg = FaultConfig {
                node_outages: n,
                link_failures: n,
                link_degradations: n,
                horizon: CYCLES as f64 * HORIZON,
                ..FaultConfig::default()
            };
            for seed in SEEDS {
                let seed = seed ^ FAULT_SEED;
                let want = oracle_plan(topo, &cfg, seed);
                assert_eq!(
                    FaultPlan::generate(topo, &cfg, seed),
                    want,
                    "{name}, {n} faults per kind, seed {seed:#x}"
                );
                assert!(routes_reach_every_node(topo, &want.failed_links()));
            }
        }
    }
}
