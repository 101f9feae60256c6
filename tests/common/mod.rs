//! Cells the root suites share.

use vod_paradigm::core::{ServiceConfig, ShardConfig};
use vod_paradigm::faults::{FaultConfig, FaultPlan};
use vod_paradigm::prelude::*;
use vod_paradigm::workload::{
    generate_arrivals, generate_catalog, Arrival, ArrivalConfig, CatalogConfig, RequestConfig,
};

/// The service window, one day.
const H: f64 = 24.0 * 3_600.0;

/// The benchmark's `overload_faults` cell at `seed`, built as
/// `benchmark/src/adapter.rs` builds it: topology, catalog, the arrival
/// trace's prefix for `cycles` cycles and the service config. A cycle's
/// arrivals depend on its own index alone, so two cycles past the last
/// one driven give the benchmark trace's prefix.
pub fn overload_faults_cell(
    seed: u64,
    cycles: usize,
) -> (Topology, Catalog, Vec<Arrival>, ServiceConfig) {
    const RUN_CYCLES: usize = 800; // the fault plan is drawn over the whole benchmark run
    let topo = builders::paper_fig4(&builders::PaperFig4Config {
        capacity_gb: 5.0,
        users_per_neighborhood: 10,
        ..Default::default()
    });
    let catalog = generate_catalog(&CatalogConfig::small(120), 0xCA7A_10C0_FFEE_0001);
    let arrivals = generate_arrivals(
        &topo,
        &catalog,
        &ArrivalConfig {
            request: RequestConfig { requests_per_user: 2, ..RequestConfig::with_alpha(0.271) },
            cycles: cycles + 2,
            burst: (0..cycles + 2).filter(|k| k % 8 == 1).map(|k| (k, 8)).collect(),
            ..Default::default()
        },
        seed,
    );
    let n = RUN_CYCLES / 4;
    let faults = FaultPlan::generate(
        &topo,
        &FaultConfig {
            node_outages: n,
            link_failures: n,
            link_degradations: n / 2,
            horizon: RUN_CYCLES as f64 * H,
            ..Default::default()
        },
        seed ^ 0xFA17_0000_0000_0001,
    );
    let cfg = ServiceConfig {
        shard: ShardConfig::by_region(4),
        horizon: H,
        queue_bound: Some(2660),
        budget_ns: Some(11e6),
        faults,
        ..ServiceConfig::default()
    };
    (topo, catalog, arrivals, cfg)
}
