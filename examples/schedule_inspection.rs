//! Inspect a schedule like an operator would: cost breakdown and load
//! analysis, an ASCII occupancy timeline for the busiest storage, a
//! chronological summary of the hottest title's delivery plan, plus
//! Graphviz / CSV exports of the environment and workload.
//!
//! ```text
//! cargo run --release --example schedule_inspection
//! ```

use vod_paradigm::core::{ivsp_solve, sorp_solve, GreedyPolicy, SchedCtx, SorpConfig};
use vod_paradigm::prelude::*;
use vod_paradigm::simulator::analysis::ScheduleAnalysis;
use vod_paradigm::simulator::render::{occupancy_timeline, video_schedule_summary};
use vod_paradigm::topology::dot;
use vod_paradigm::workload::{trace, CatalogConfig, RequestConfig, Workload};

fn main() {
    let topo = builders::paper_fig4(&builders::PaperFig4Config::default());
    let wl = Workload::generate(
        &topo,
        &CatalogConfig::paper(),
        &RequestConfig { requests_per_user: 2, ..RequestConfig::paper() },
        1997,
    );
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let outcome = sorp_solve(
        &ctx,
        ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default()),
        &SorpConfig::default(),
        None,
    );

    // --- Operator analysis ------------------------------------------
    let analysis = ScheduleAnalysis::of(&topo, &wl.catalog, &model, &outcome.schedule);
    println!("=== schedule analysis ===\n{}", analysis.render(&topo, 5));

    // --- Occupancy timeline of the busiest storage -------------------
    let busiest = analysis
        .storages
        .iter()
        .max_by(|a, b| a.peak_utilization.total_cmp(&b.peak_utilization))
        .expect("the topology has storages")
        .loc;
    println!("=== occupancy timeline ===");
    println!("{}", occupancy_timeline(&topo, &wl.catalog, &outcome.schedule, busiest, 16, 40));

    // --- Delivery plan of the most expensive title -------------------
    let hottest = analysis.top_videos.first().expect("non-empty schedule").video;
    println!("=== hottest title ===");
    println!("{}", video_schedule_summary(&topo, &outcome.schedule, hottest));

    // --- Exports -------------------------------------------------------
    let out = std::path::Path::new("results");
    std::fs::create_dir_all(out).expect("create results dir");
    std::fs::write(out.join("topology.dot"), dot::to_dot(&topo)).expect("write dot");
    std::fs::write(out.join("catalog.csv"), trace::catalog_to_csv(&wl.catalog))
        .expect("write catalog");
    std::fs::write(out.join("requests.csv"), trace::requests_to_csv(&wl.requests))
        .expect("write requests");
    println!(
        "wrote results/topology.dot (render with `dot -Tsvg`), results/catalog.csv, results/requests.csv"
    );
}
