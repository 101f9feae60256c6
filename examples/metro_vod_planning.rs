//! Scenario: a metropolitan Video-On-Reservation operator plans one
//! evening of service.
//!
//! Reservations cluster around prime time (a triangular peak at 80 % of
//! the cycle). The operator compares three delivery policies — streaming
//! everything from the warehouse, naively caching at every neighborhood,
//! and the paper's two-phase scheduler — on cost, warehouse egress, and
//! cache effectiveness.
//!
//! ```text
//! cargo run --release --example metro_vod_planning
//! ```

use vod_paradigm::core::{baselines, ivsp_solve, sorp_solve, GreedyPolicy, SchedCtx, SorpConfig};
use vod_paradigm::prelude::*;
use vod_paradigm::simulator::{simulate, SimOptions};
use vod_paradigm::workload::{generate_requests, ArrivalPattern, CatalogConfig, RequestConfig};

fn main() {
    let topo =
        builders::paper_fig4(&builders::PaperFig4Config { capacity_gb: 8.0, ..Default::default() });
    let catalog = vod_paradigm::workload::generate_catalog(&CatalogConfig::paper(), 2024);
    let request_cfg = RequestConfig {
        zipf_alpha: 0.271,
        horizon_hours: 12.0,
        requests_per_user: 2,
        arrivals: ArrivalPattern::Peak { peak_fraction: 0.8 },
    };
    let requests = generate_requests(&topo, &catalog, &request_cfg, 2024);
    println!(
        "Evening plan: {} reservations from {} households across {} neighborhoods\n",
        requests.len(),
        topo.user_count(),
        topo.storage_count()
    );

    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);

    let policies: Vec<(&str, Schedule, bool)> = vec![
        ("network-only", baselines::network_only(&ctx, &requests), true),
        ("cache-local-always", baselines::cache_local_always(&ctx, &requests), false),
        (
            "two-phase (paper)",
            sorp_solve(
                &ctx,
                ivsp_solve(&ctx, &requests, GreedyPolicy::default()),
                &SorpConfig::default(),
                None,
            )
            .schedule,
            true,
        ),
    ];

    println!(
        "{:<22}{:>12}{:>12}{:>12}{:>14}{:>12}{:>10}",
        "policy", "total $", "network $", "storage $", "egress GB", "hit ratio", "valid"
    );
    for (name, schedule, check_capacity) in &policies {
        let options = SimOptions {
            requests: Some(&requests),
            check_capacity: *check_capacity,
            check_bandwidth: false,
            check_cost: true,
            inherited: &[],
        };
        let report = simulate(&topo, &catalog, &model, schedule, &options);
        println!(
            "{:<22}{:>12.0}{:>12.0}{:>12.0}{:>14.1}{:>11.0}%{:>10}",
            name,
            report.metrics.total_cost,
            report.metrics.network_cost,
            report.metrics.storage_cost,
            report.metrics.warehouse_egress_bytes / units::GB,
            100.0 * report.metrics.cache_hit_ratio(),
            if report.is_valid() { "yes" } else { "NO" },
        );
    }

    // Where does the two-phase schedule put the copies?
    let (_, two_phase, _) = &policies[2];
    let mut per_store: Vec<(NodeId, usize)> = topo
        .storages()
        .map(|s| (s, two_phase.residencies_at(s).filter(|r| r.duration() > 0.0).count()))
        .collect();
    per_store.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("\nBusiest cache sites (real copies, not relays):");
    for (node, n) in per_store.iter().take(5) {
        println!("  {:<4} {} copies", topo.node(*node).name, n);
    }
}
