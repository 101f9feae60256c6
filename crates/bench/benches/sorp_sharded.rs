//! Sharded-scheduler scaling: region-sharded IVSP + SORP with
//! cross-shard reconciliation against the monolithic pipeline at
//! 1k / 4k / 16k requests, shards ∈ {1, 4, 8}.
//!
//! The instance is the sharded solver's exactness regime — a regional
//! catalog (each neighborhood requests only its own slice, see
//! [`vod_workload::generate_regional_requests`]) under a
//! neighborhood-local placement policy — so besides the timing the bench
//! *asserts* the contract: total Ψ within 1e-9 relative of the
//! monolithic solver at every size and shard count, bit-identical output
//! at one shard, and a strict simulator replay of the reconciled
//! schedule at every size.
//!
//! Besides the criterion report, a machine-readable summary (median ns,
//! speedups, conflict and reconciliation counters) is written to
//! `results/BENCH_shard.json`. In `--test` smoke mode everything runs
//! once on the smallest size only and the JSON artifact is untouched.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;
use vod_core::{
    shard_solve, ExecMode, GreedyPolicy, SchedCtx, ShardConfig, ShardOutcome, SorpConfig,
};
use vod_cost_model::{CostModel, RequestBatch};
use vod_simulator::{simulate, SimOptions};
use vod_topology::{builders, Topology};
use vod_workload::{
    generate_catalog, generate_regional_requests, CatalogConfig, RequestConfig, ShardStrategy,
};

/// 24 neighborhoods × 6 users; capacity holds ≈2 files, so phase 1's
/// capacity-blind caching overflows everywhere and SORP does real work —
/// the component sharding accelerates.
fn world() -> Topology {
    builders::random_connected(
        &builders::GenConfig {
            storages: 24,
            capacity_gb: 6.0,
            users_per_neighborhood: 6,
            ..builders::GenConfig::default()
        },
        3,
        0xB0B,
    )
}

/// `mono` is the monolithic arm: one shard, whatever `shards` says.
fn shard_cfg(shards: usize, mono: bool) -> ShardConfig {
    ShardConfig {
        shards: if mono { 1 } else { shards },
        strategy: ShardStrategy::ByRegion,
        seed: 0x5EED,
        sorp: SorpConfig {
            policy: GreedyPolicy { allow_remote_placement: false, ..GreedyPolicy::default() },
            ..SorpConfig::default()
        },
    }
}

fn solve(ctx: &SchedCtx<'_>, batch: &RequestBatch, shards: usize, mono: bool) -> ShardOutcome {
    shard_solve(ctx, batch, &shard_cfg(shards, mono), ExecMode::default())
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
    shards: usize,
    sharded_ns: f64,
    mono_ns: f64,
    psi_rel_err: f64,
    cross_shard_overflows: usize,
    reconcile_iterations: usize,
    trials_transplanted: usize,
    shared_storages: usize,
}

fn emit_json(rows: &[Row], smoke: bool) {
    if smoke {
        return;
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut body = String::from("{\n  \"bench\": \"sorp_sharded\",\n");
    body.push_str("  \"smoke\": false,\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"requests\": {}, \"shards\": {}, \"sharded_ns\": {:.0}, \
             \"monolithic_ns\": {:.0}, \"speedup\": {:.2}, \"psi_rel_err\": {:.3e}, \
             \"cross_shard_overflows\": {}, \"reconcile_iterations\": {}, \
             \"trials_transplanted\": {}, \"shared_storages\": {}}}{}\n",
            r.requests,
            r.shards,
            r.sharded_ns,
            r.mono_ns,
            r.mono_ns / r.sharded_ns.max(1e-9),
            r.psi_rel_err,
            r.cross_shard_overflows,
            r.reconcile_iterations,
            r.trials_transplanted,
            r.shared_storages,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(format!("{dir}/BENCH_shard.json"), body) {
        eprintln!("warning: could not write BENCH_shard.json: {e}");
    }
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let topo = world();
    let catalog = generate_catalog(&CatalogConfig::small(240), 0xCA7);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let mut rows = Vec::new();

    // 144 users × requests-per-user: 1008 / 4032 / 16_128 requests.
    let sizes: &[(usize, usize)] =
        if smoke { &[(7, 1008)] } else { &[(7, 1008), (28, 4032), (112, 16_128)] };

    for &(rpu, n) in sizes {
        let batch = generate_regional_requests(
            &topo,
            &catalog,
            &RequestConfig { requests_per_user: rpu, ..RequestConfig::paper() },
            0x5EED ^ n as u64,
        );
        assert_eq!(batch.len(), n);

        // --- Contract checks, once per size, outside the timing -------
        let mono = solve(&ctx, &batch, 1, true);
        assert!(mono.sorp.overflow_free, "monolithic must resolve at n = {n}");
        let one = solve(&ctx, &batch, 1, false);
        assert!(one.sorp.schedule == mono.sorp.schedule, "1 shard diverged at n = {n}");
        assert_eq!(one.sorp.cost.to_bits(), mono.sorp.cost.to_bits(), "1-shard Ψ bits at n = {n}");
        for &shards in &[4usize, 8] {
            let sharded = solve(&ctx, &batch, shards, false);
            assert!(sharded.sorp.overflow_free, "{shards} shards left overflows at n = {n}");
            assert_eq!(sharded.split_videos, 0, "regional workload split a video at n = {n}");
            let rel = (sharded.sorp.cost - mono.sorp.cost).abs() / mono.sorp.cost.abs().max(1.0);
            assert!(
                rel <= 1e-9,
                "{shards} shards at n = {n}: Ψ {} vs monolithic {} (rel {rel:e})",
                sharded.sorp.cost,
                mono.sorp.cost
            );
        }
        // Strict replay of the reconciled schedule.
        let replay = solve(&ctx, &batch, 8, false);
        let report =
            simulate(&topo, &catalog, &model, &replay.sorp.schedule, &SimOptions::strict(&batch));
        assert!(report.is_valid(), "strict replay failed at n = {n}: {:?}", report.violations);

        // --- Timing ----------------------------------------------------
        let samples = if smoke {
            1
        } else if n >= 16_000 {
            3
        } else if n >= 4_000 {
            5
        } else {
            9
        };
        let mono_ns = measure(
            || {
                std::hint::black_box(solve(&ctx, &batch, 1, true).sorp.cost);
            },
            samples,
        );
        if !smoke {
            let mut g = c.benchmark_group(&format!("sharded/{n}"));
            g.sample_size(10);
            g.bench_function("monolithic", |b| b.iter(|| solve(&ctx, &batch, 1, true)));
            g.bench_function("shards4", |b| b.iter(|| solve(&ctx, &batch, 4, false)));
            g.finish();
        }
        for &shards in &[1usize, 4, 8] {
            let out = solve(&ctx, &batch, shards, false);
            let sharded_ns = measure(
                || {
                    std::hint::black_box(solve(&ctx, &batch, shards, false).sorp.cost);
                },
                samples,
            );
            let rel = (out.sorp.cost - mono.sorp.cost).abs() / mono.sorp.cost.abs().max(1.0);
            eprintln!(
                "sharded/{n}/{shards}: {:.1} ms vs monolithic {:.1} ms ({:.2}x), \
                 {} cross-shard overflows, {} reconcile iterations, {} trials transplanted",
                sharded_ns / 1e6,
                mono_ns / 1e6,
                mono_ns / sharded_ns.max(1e-9),
                out.cross_shard_overflows,
                out.reconcile_iterations,
                out.trials_transplanted,
            );
            rows.push(Row {
                requests: n,
                shards,
                sharded_ns,
                mono_ns,
                psi_rel_err: rel,
                cross_shard_overflows: out.cross_shard_overflows,
                reconcile_iterations: out.reconcile_iterations,
                trials_transplanted: out.trials_transplanted,
                shared_storages: out.shared_storages,
            });
        }
    }

    emit_json(&rows, smoke);
}

criterion_group!(benches, bench);
criterion_main!(benches);
