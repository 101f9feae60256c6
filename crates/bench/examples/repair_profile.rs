//! Stage-by-stage timing of a small-batch repair, for diagnosing where
//! the constant cost of `repair_schedule` goes. Not a recorded bench —
//! run with `cargo run --release -p vod-bench --example repair_profile`.

use std::time::Instant;
use vod_core::{
    ivsp_solve_priced, repair_schedule, sorp_solve_priced, ExecMode, PricedSchedule, RepairConfig,
    SchedCtx, SorpConfig, StorageLedger,
};
use vod_cost_model::{CostModel, Request, RequestBatch};
use vod_faults::{Fault, FaultPlan};
use vod_workload::{CatalogConfig, RequestConfig, Workload};

fn main() {
    let topo = vod_topology::builders::paper_fig4(&vod_topology::builders::PaperFig4Config {
        capacity_gb: 5.0,
        ..Default::default()
    });
    let wl = Workload::generate(
        &topo,
        &CatalogConfig::small(60),
        &RequestConfig { requests_per_user: 6, ..RequestConfig::paper() },
        0xFA_17,
    );
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let all: Vec<Request> = wl.requests.groups().flat_map(|(_, g)| g.iter().copied()).collect();
    let batch = RequestBatch::new(all.into_iter().take(100).collect());
    let phase1 = ivsp_solve_priced(&ctx, &batch);
    let out = sorp_solve_priced(&ctx, phase1, &SorpConfig::default(), &[], ExecMode::Sequential);
    let priced = PricedSchedule::price(&ctx, out.schedule);

    let victim = priced
        .schedule()
        .residencies()
        .find(|r| r.last_service > r.start)
        .cloned()
        .expect("a 5 GB world keeps some caches");
    let playback = wl.catalog.get(victim.video).playback;
    let plan = FaultPlan::new(vec![Fault::NodeOutage {
        node: victim.loc,
        from: victim.start,
        until: victim.last_service + 2.0 * playback,
    }]);

    let reps = 200u32;

    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(priced.clone());
    }
    println!("clone:          {:>8.1} us", t.elapsed().as_secs_f64() * 1e6 / reps as f64);

    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(plan.impact(priced.schedule(), &wl.catalog, model.space_model()));
    }
    println!("impact:         {:>8.1} us", t.elapsed().as_secs_f64() * 1e6 / reps as f64);

    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(StorageLedger::from_schedule(
            ctx.topo,
            ctx.catalog,
            priced.schedule(),
        ));
    }
    println!("ledger build:   {:>8.1} us", t.elapsed().as_secs_f64() * 1e6 / reps as f64);

    let cfg = RepairConfig::default();
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(
            repair_schedule(&ctx, priced.clone(), &plan, &cfg).expect("plan validates"),
        );
    }
    println!("repair (all):   {:>8.1} us", t.elapsed().as_secs_f64() * 1e6 / reps as f64);

    let affected = plan.impact(priced.schedule(), &wl.catalog, model.space_model());
    println!("affected videos: {}", affected.affected_videos.len());
    for v in &affected.affected_videos {
        let vs = priced.schedule().video(*v).expect("scheduled");
        println!("  video {:?}: {} delivered requests", v, vs.delivered_requests().len());
    }
}
