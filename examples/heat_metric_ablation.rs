//! Ablation: how much does the victim-selection heat metric matter?
//!
//! Runs the same tight-capacity scheduling problem under all four heat
//! metrics of §4.3 (Eqs. 8–11) and reports the resolved cost, the
//! resolution overhead, and the iteration count for each — a single-cell
//! view of what Table 5 aggregates over the full parameter grid.
//!
//! ```text
//! cargo run --release --example heat_metric_ablation
//! ```

use vod_paradigm::core::{ivsp_solve, sorp_solve, GreedyPolicy, HeatMetric, SchedCtx, SorpConfig};
use vod_paradigm::prelude::*;
use vod_paradigm::workload::{CatalogConfig, RequestConfig, Workload};

fn main() {
    // Small stores + skewed demand = plenty of storage overflow to resolve.
    let topo =
        builders::paper_fig4(&builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() });
    let wl = Workload::generate(&topo, &CatalogConfig::paper(), &RequestConfig::with_alpha(0.1), 7);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);

    let phase1 = ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default());
    let phase1_cost = ctx.schedule_cost(phase1.schedule());
    println!("phase-1 schedule (capacity-blind): Psi = ${phase1_cost:.0}\n");

    println!(
        "{:<24}{:>12}{:>12}{:>10}{:>10}{:>12}",
        "heat metric", "Psi $", "overhead $", "+%", "victims", "iterations"
    );
    let mut best: Option<(HeatMetric, f64)> = None;
    for metric in HeatMetric::ALL {
        let outcome = sorp_solve(&ctx, phase1.clone(), &SorpConfig::with_metric(metric), None);
        assert!(outcome.overflow_free);
        println!(
            "{:<24}{:>12.0}{:>12.0}{:>9.1}%{:>10}{:>12}",
            metric.to_string(),
            outcome.cost,
            outcome.cost - phase1_cost,
            100.0 * outcome.relative_cost_increase(),
            outcome.victims.len(),
            outcome.iterations,
        );
        if best.is_none_or(|(_, c)| outcome.cost < c) {
            best = Some((metric, outcome.cost));
        }
    }
    let (metric, cost) = best.expect("four metrics ran");
    println!("\ncheapest resolution: {metric} at ${cost:.0}");
    println!("(the paper finds Eq. 11 best on average over 785 parameter combinations)");
}
