//! Incremental fault repair vs full reschedule: when a mid-horizon IS
//! outage breaks part of a committed schedule, `repair_schedule` should
//! re-admit only the affected videos while a from-scratch two-phase solve
//! pays for every request again. Measured at 100 / 500 / 1000 requests.
//!
//! Besides the criterion report, the bench writes a machine-readable
//! summary (median ns per repair and the speedup ratios) to
//! `results/BENCH_repair.json`. In `--test` smoke mode everything runs
//! once and the measured JSON artifact is left untouched.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;
use vod_core::{
    ivsp_solve_priced, repair_schedule, sorp_solve_priced, ExecMode, PricedSchedule, RepairConfig,
    SchedCtx, SorpConfig,
};
use vod_cost_model::{CostModel, Request, RequestBatch};
use vod_faults::{Fault, FaultPlan};
use vod_topology::{builders, Topology};
use vod_workload::{CatalogConfig, RequestConfig, Workload};

fn world() -> (Topology, Workload) {
    let topo =
        builders::paper_fig4(&builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() });
    // 6 requests per user × 190 users = 1140 requests, truncated per size.
    let wl = Workload::generate(
        &topo,
        &CatalogConfig::small(60),
        &RequestConfig { requests_per_user: 6, ..RequestConfig::paper() },
        0xFA_17,
    );
    (topo, wl)
}

fn truncated(wl: &Workload, n: usize) -> RequestBatch {
    // Round-robin across the per-video groups so a small prefix still
    // spans the catalog (first-n-arrivals, not all-of-the-hottest-video:
    // a one-video prefix would make the "incremental" repair redo the
    // entire batch and measure nothing but overhead).
    let groups: Vec<Vec<Request>> = wl.requests.groups().map(|(_, g)| g.to_vec()).collect();
    let mut all = Vec::new();
    let mut rank = 0;
    while all.len() < n {
        let before = all.len();
        for g in &groups {
            if let Some(r) = g.get(rank) {
                all.push(*r);
            }
        }
        if all.len() == before {
            break;
        }
        rank += 1;
    }
    all.truncate(n);
    RequestBatch::new(all)
}

fn committed(ctx: &SchedCtx<'_>, batch: &RequestBatch) -> PricedSchedule {
    let phase1 = ivsp_solve_priced(ctx, batch);
    let out = sorp_solve_priced(ctx, phase1, &SorpConfig::default(), &[], ExecMode::Sequential);
    PricedSchedule::price(ctx, out.schedule)
}

/// A mid-horizon outage guaranteed to break at least one cached copy of
/// the committed schedule.
fn outage_for(priced: &PricedSchedule, wl: &Workload) -> FaultPlan {
    let victim = priced
        .schedule()
        .residencies()
        .find(|r| r.last_service > r.start)
        .cloned()
        .expect("a 5 GB world keeps some caches");
    let playback = wl.catalog.get(victim.video).playback;
    FaultPlan::new(vec![Fault::NodeOutage {
        node: victim.loc,
        from: victim.start,
        until: victim.last_service + 2.0 * playback,
    }])
}

/// Median ns per call of `f` over 15 samples (1 in smoke mode).
fn measure<F: FnMut()>(mut f: F, smoke: bool) -> f64 {
    let samples = if smoke { 1 } else { 15 };
    let mut ns: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(|a, b| a.total_cmp(b));
    ns[ns.len() / 2]
}

struct Row {
    requests: usize,
    repair_ns: f64,
    full_ns: f64,
}

fn emit_json(rows: &[Row], smoke: bool) {
    if smoke {
        return;
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut body = String::from("{\n  \"bench\": \"repair_latency\",\n");
    body.push_str("  \"smoke\": false,\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"requests\": {}, \"repair_ns\": {:.0}, \"full_reschedule_ns\": {:.0}, \
             \"speedup\": {:.2}}}{}\n",
            r.requests,
            r.repair_ns,
            r.full_ns,
            r.full_ns / r.repair_ns.max(1e-9),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(format!("{dir}/BENCH_repair.json"), body) {
        eprintln!("warning: could not write BENCH_repair.json: {e}");
    }
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let (topo, wl) = world();
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let cfg = RepairConfig::default();
    let mut rows = Vec::new();

    for &n in &[100usize, 500, 1000] {
        let batch = truncated(&wl, n);
        let priced = committed(&ctx, &batch);
        let plan = outage_for(&priced, &wl);

        // Sanity: the outage actually breaks something, so the repair
        // does real work rather than early-returning.
        let impact = plan.impact(priced.schedule(), &wl.catalog, model.space_model());
        assert!(!impact.is_empty(), "bench outage must break services at n = {n}");

        let mut g = c.benchmark_group(&format!("repair/{n}"));
        g.sample_size(10);
        g.bench_function("incremental", |b| {
            b.iter(|| {
                // The clone is part of the measured cost; it is what a
                // deployment would pay to keep the pre-fault schedule.
                repair_schedule(&ctx, priced.clone(), &plan, &cfg).expect("plan validates")
            })
        });
        g.bench_function("full_reschedule", |b| b.iter(|| committed(&ctx, &batch)));
        g.finish();

        let repair_ns = measure(
            || {
                let out =
                    repair_schedule(&ctx, priced.clone(), &plan, &cfg).expect("plan validates");
                std::hint::black_box(out.cost());
            },
            smoke,
        );
        let full_ns = measure(
            || {
                let p = committed(&ctx, &batch);
                std::hint::black_box(p.total());
            },
            smoke,
        );
        rows.push(Row { requests: n, repair_ns, full_ns });
    }

    emit_json(&rows, smoke);
}

criterion_group!(benches, bench);
criterion_main!(benches);
