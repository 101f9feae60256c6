//! Scenario: the operator's links have real capacities — how many
//! reservations survive, and what does capacity buy?
//!
//! Exercises the bandwidth-constrained scheduler (the paper's §6 future
//! work): every link carries at most N concurrent streams; requests whose
//! every candidate route is saturated for their playback window are
//! *blocked*. Sweeps N and reports blocking probability, admitted load,
//! and the cost of the admitted schedule — then shows that the
//! capacity-oblivious two-phase schedule would have violated the same
//! links.
//!
//! ```text
//! cargo run --release --example admission_control
//! ```

use vod_paradigm::core::{
    bandwidth_aware_solve, detect_link_overloads, ivsp_solve, sorp_solve, GreedyPolicy, SchedCtx,
    SorpConfig, StorageLedger,
};
use vod_paradigm::prelude::*;
use vod_paradigm::workload::{generate_catalog, generate_requests, CatalogConfig, RequestConfig};

/// Link overloads of `schedule`: its streams on the link rows of a ledger.
fn overloads(topo: &Topology, catalog: &Catalog, schedule: &Schedule) -> usize {
    let mut streams = StorageLedger::new(topo);
    streams.add_streams(topo, catalog, schedule);
    detect_link_overloads(topo, &streams).len()
}

fn main() {
    let base = builders::paper_fig4(&builders::PaperFig4Config::default());
    let catalog = generate_catalog(&CatalogConfig::paper(), 7);
    let request_cfg = RequestConfig { requests_per_user: 2, ..RequestConfig::paper() };
    let requests = generate_requests(&base, &catalog, &request_cfg, 7);
    let model = CostModel::per_hop();
    println!(
        "{} reservations offered across {} neighborhoods\n",
        requests.len(),
        base.storage_count()
    );

    println!(
        "{:>14}{:>12}{:>12}{:>14}{:>26}",
        "streams/link", "blocked", "admitted", "cost $", "oblivious link overloads"
    );
    for streams in [1.0, 2.0, 4.0, 8.0, 16.0] {
        let mut topo = base.clone();
        topo.set_uniform_bandwidth(Some(units::mbps(5.0) * streams)).unwrap();
        let ctx = SchedCtx::new(&topo, &model, &catalog);

        let aware = bandwidth_aware_solve(&ctx, &requests);
        assert!(
            overloads(&topo, &catalog, &aware.schedule) == 0,
            "the admission-controlled schedule must respect every link"
        );

        let oblivious = sorp_solve(
            &ctx,
            ivsp_solve(&ctx, &requests, GreedyPolicy::default()),
            &SorpConfig::default(),
            None,
        );
        let oblivious_overloads = overloads(&topo, &catalog, &oblivious.schedule);

        println!(
            "{:>14}{:>11.1}%{:>12}{:>14.0}{:>26}",
            streams,
            100.0 * aware.blocking_probability(requests.len()),
            aware.schedule.delivery_count(),
            aware.cost,
            oblivious_overloads,
        );
    }

    println!(
        "\nReading: the smallest capacity with zero blocking AND zero oblivious\n\
         overloads is what the network actually needs for this demand — below\n\
         it, admission control (not wishful scheduling) decides who is served."
    );
}
