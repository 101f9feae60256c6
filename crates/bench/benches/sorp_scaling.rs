//! End-to-end SORP scaling: the conflict-scoped solver (cross-iteration
//! trial cache + incremental overflow monitor) against the naive-loop
//! oracle (`vod_oracles::sorp_solve_naive`) at 100 / 500 / 1000 / 2000 requests on a generated 24-storage
//! topology with tight 1.8 GB stores. Each commit perturbs one video at
//! a handful of (node, window) pairs, so the cached solver's
//! per-iteration work tracks the conflict footprint instead of the
//! batch size — the wall-clock curve should bend toward linear while
//! the oracle grows super-quadratically.
//!
//! Besides the criterion report, the bench asserts both solvers produce
//! bit-identical schedules at every size and writes a machine-readable
//! summary (median ns per solve, speedups, and the work counters) to
//! `results/BENCH_sorp.json`. In `--test` smoke mode everything runs once
//! and the measured JSON artifact is left untouched.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;
use vod_core::{
    ivsp_solve_priced, sorp_solve_priced, ExecMode, LedgerMode, SchedCtx, SorpConfig, SorpOutcome,
};
use vod_cost_model::{CostModel, Request, RequestBatch};
use vod_oracles::sorp_solve_naive;
use vod_topology::{builders, Topology};
use vod_workload::{CatalogConfig, RequestConfig, Workload};

fn world() -> (Topology, Workload) {
    // A production-shaped instance rather than the paper's 19-storage
    // toy: many storages means overflows land on many *independent*
    // nodes, so one commit churns one conflict neighborhood instead of
    // the whole batch — the regime the conflict-scoped solver targets.
    let topo = builders::random_connected(
        &builders::GenConfig {
            storages: 24,
            capacity_gb: 1.8,
            users_per_neighborhood: 4,
            ..builders::GenConfig::default()
        },
        3,
        0xB0B,
    );
    // 21 requests per user × 96 users = 2016 requests, truncated per size.
    let wl = Workload::generate(
        &topo,
        &CatalogConfig::small(150),
        &RequestConfig { requests_per_user: 21, ..RequestConfig::paper() },
        0x50_12,
    );
    (topo, wl)
}

fn truncated(wl: &Workload, n: usize) -> RequestBatch {
    // Round-robin across the per-video groups so a small prefix still
    // spans the whole topology (first-n-arrivals, not first-n-videos).
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

fn solve(ctx: &SchedCtx<'_>, batch: &RequestBatch, uncached: bool) -> SorpOutcome {
    let (cfg, mode) = (SorpConfig::default(), ExecMode::default());
    let phase1 = ivsp_solve_priced(ctx, batch);
    if uncached {
        sorp_solve_naive(ctx, phase1, &cfg, &[], LedgerMode::Timeline, mode)
    } else {
        sorp_solve_priced(ctx, phase1, &cfg, &[], mode)
    }
}

/// Median ns per call of `f` over `samples` runs (1 in smoke mode).
fn measure<F: FnMut()>(mut f: F, samples: usize) -> f64 {
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
    cached_ns: f64,
    uncached_ns: f64,
    iterations: usize,
    trials_run: usize,
    trials_cached: usize,
    nodes_rescanned: usize,
    uncached_trials_run: usize,
    uncached_nodes_rescanned: usize,
}

fn emit_json(rows: &[Row], smoke: bool) {
    if smoke {
        return;
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut body = String::from("{\n  \"bench\": \"sorp_scaling\",\n");
    body.push_str("  \"smoke\": false,\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"requests\": {}, \"cached_ns\": {:.0}, \"uncached_ns\": {:.0}, \
             \"speedup\": {:.2}, \"iterations\": {}, \"trials_run\": {}, \
             \"trials_cached\": {}, \"nodes_rescanned\": {}, \
             \"uncached_trials_run\": {}, \"uncached_nodes_rescanned\": {}}}{}\n",
            r.requests,
            r.cached_ns,
            r.uncached_ns,
            r.uncached_ns / r.cached_ns.max(1e-9),
            r.iterations,
            r.trials_run,
            r.trials_cached,
            r.nodes_rescanned,
            r.uncached_trials_run,
            r.uncached_nodes_rescanned,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(format!("{dir}/BENCH_sorp.json"), body) {
        eprintln!("warning: could not write BENCH_sorp.json: {e}");
    }
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let (topo, wl) = world();
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let mut rows = Vec::new();

    for &n in &[100usize, 500, 1000, 2000] {
        let batch = truncated(&wl, n);

        // Bit-identicality cross-check at every measured size — the
        // cached solver must be a pure speedup, never a different answer.
        let cached = solve(&ctx, &batch, false);
        let uncached = solve(&ctx, &batch, true);
        assert!(cached.schedule == uncached.schedule, "schedules diverged at n = {n}");
        assert_eq!(cached.cost.to_bits(), uncached.cost.to_bits(), "costs diverged at n = {n}");
        assert_eq!(cached.iterations, uncached.iterations, "iterations diverged at n = {n}");
        assert!(cached.overflow_free, "bench instance must resolve at n = {n}");

        let mut g = c.benchmark_group(&format!("sorp/{n}"));
        g.sample_size(10);
        g.bench_function("cached", |b| b.iter(|| solve(&ctx, &batch, false)));
        g.bench_function("uncached", |b| b.iter(|| solve(&ctx, &batch, true)));
        g.finish();

        // The oracle's cost grows super-quadratically; keep its sample
        // count small at the large sizes so the bench stays tractable.
        let samples = if smoke {
            1
        } else if n >= 1000 {
            5
        } else {
            15
        };
        let cached_ns = measure(
            || {
                std::hint::black_box(solve(&ctx, &batch, false).cost);
            },
            samples,
        );
        let uncached_ns = measure(
            || {
                std::hint::black_box(solve(&ctx, &batch, true).cost);
            },
            samples,
        );
        eprintln!(
            "sorp/{n}: cached {:.1} ms vs uncached {:.1} ms ({:.2}x), {} iterations, \
             {}/{} trials answered from cache, {}/{} nodes rescanned",
            cached_ns / 1e6,
            uncached_ns / 1e6,
            uncached_ns / cached_ns.max(1e-9),
            cached.iterations,
            cached.trials_cached,
            uncached.trials_run,
            cached.nodes_rescanned,
            uncached.nodes_rescanned,
        );
        rows.push(Row {
            requests: n,
            cached_ns,
            uncached_ns,
            iterations: cached.iterations,
            trials_run: cached.trials_run,
            trials_cached: cached.trials_cached,
            nodes_rescanned: cached.nodes_rescanned,
            uncached_trials_run: uncached.trials_run,
            uncached_nodes_rescanned: uncached.nodes_rescanned,
        });
    }

    emit_json(&rows, smoke);
}

criterion_group!(benches, bench);
criterion_main!(benches);
