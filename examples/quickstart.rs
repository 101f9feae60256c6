//! Quickstart: the paper's Fig. 2 worked example, then a full two-phase
//! scheduling run on the paper's 20-node evaluation network.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use vod_paradigm::core::{ivsp_solve, sorp_solve, GreedyPolicy, SchedCtx, SorpConfig};
use vod_paradigm::prelude::*;
use vod_paradigm::simulator::{simulate, SimOptions};
use vod_paradigm::workload::{CatalogConfig, RequestConfig, Workload};

fn main() {
    fig2_worked_example();
    full_pipeline();
}

/// Reproduce §3.2's hand-enumerated schedules S1 and S2 and let the greedy
/// do better.
fn fig2_worked_example() {
    println!("=== Fig. 2 worked example ===");
    // VW —(0.2¢/Mbps·s ≡ $16/GB)— IS1 —(0.1¢ ≡ $8/GB)— IS2,
    // storage $1/(GB·h), one 90-min 2.5 GB video at 6 Mbps.
    let topo = builders::paper_fig2(16.0, 8.0, 1.0, 5.0);
    let routes = RouteTable::build(&topo);
    let video = Video::new(VideoId(0), units::gb(2.5), units::minutes(90.0), units::mbps(6.0));
    let catalog = Catalog::new(vec![video]);
    let model = CostModel::per_hop();

    // Requests at 1:00 pm, 2:30 pm, 4:00 pm (users U1@IS1, U2/U3@IS2).
    let requests: Vec<Request> = [(0u32, 13.0), (1, 14.5), (2, 16.0)]
        .iter()
        .map(|&(u, h)| Request { user: UserId(u), video: video.id, start: h * 3600.0 })
        .collect();

    // Schedule S1: everything straight from the warehouse.
    let vw = topo.warehouse();
    let (is1, is2) = (NodeId(1), NodeId(2));
    let mut s1 = VideoSchedule::new(video.id);
    s1.transfers.push(Transfer::for_user(&requests[0], routes.path(vw, is1)));
    s1.transfers.push(Transfer::for_user(&requests[1], routes.path(vw, is2)));
    s1.transfers.push(Transfer::for_user(&requests[2], routes.path(vw, is2)));
    println!("Psi(S1) = ${:.3}   (paper: $259.200)", model.video_schedule_cost(&topo, &video, &s1));

    // Schedule S2: IS1 caches U1's stream; U2 and U3 are served from IS1.
    let mut s2 = VideoSchedule::new(video.id);
    s2.transfers.push(Transfer::for_user(&requests[0], routes.path(vw, is1)));
    s2.transfers.push(Transfer::for_user(&requests[1], routes.path(is1, is2)));
    s2.transfers.push(Transfer::for_user(&requests[2], routes.path(is1, is2)));
    let mut copy = Residency::begin(is1, vw, requests[0]);
    copy.extend(requests[1]);
    copy.extend(requests[2]);
    s2.residencies.push(copy);
    println!("Psi(S2) = ${:.3}   (paper: $138.975)", model.video_schedule_cost(&topo, &video, &s2));

    // The greedy finds an even cheaper plan (it also caches at IS2).
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let greedy =
        vod_paradigm::core::find_video_schedule(&ctx, &requests, GreedyPolicy::default(), None);
    println!("Psi(greedy) = ${:.3}", ctx.video_cost(&greedy));
    println!();
}

/// Run the full two-phase scheduler on the paper's evaluation network and
/// validate the result in the simulator.
fn full_pipeline() {
    println!("=== Two-phase scheduling on the Fig. 4 network ===");
    let topo = builders::paper_fig4(&builders::PaperFig4Config::default());
    let wl = Workload::generate(&topo, &CatalogConfig::paper(), &RequestConfig::paper(), 1997);
    println!(
        "{} storages, {} users, {} requests over {} titles",
        topo.storage_count(),
        topo.user_count(),
        wl.requests.len(),
        wl.catalog.len()
    );

    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);

    let cfg = SorpConfig::default();
    let phase1 = ivsp_solve(&ctx, &wl.requests, cfg.policy);
    println!("phase 1 (individual schedules): Psi = ${:.0}", ctx.schedule_cost(phase1.schedule()));

    let outcome = sorp_solve(&ctx, phase1, &cfg, None);
    println!(
        "phase 2 (overflow resolution):  Psi = ${:.0}  ({} victims, +{:.1} %)",
        outcome.cost,
        outcome.victims.len(),
        100.0 * outcome.relative_cost_increase()
    );

    let direct = vod_paradigm::core::baselines::network_only(&ctx, &wl.requests);
    println!("network-only baseline:          Psi = ${:.0}", ctx.schedule_cost(&direct));

    let report =
        simulate(&topo, &wl.catalog, &model, &outcome.schedule, &SimOptions::strict(&wl.requests));
    assert!(report.is_valid(), "violations: {:?}", report.violations);
    println!(
        "simulator: {} events, cache hit ratio {:.0} %, schedule valid",
        report.metrics.events_processed,
        100.0 * report.metrics.cache_hit_ratio()
    );
}
