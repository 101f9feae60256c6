//! Rolling-horizon warm start: the cross-cycle pipeline (persistent
//! committed-occupancy book, adaptive shard count) against the
//! from-scratch oracle at ~1k / ~4k requests per cycle over 5 and 20
//! cycles.
//!
//! Four arms per size: the cold monolithic oracle (the original
//! re-solve-everything loop), cold sharded at 4 shards, warm sharded at
//! 4 shards, and warm with the adaptive selector picking the count. The
//! instance is the sharded solver's exactness regime — regional workload
//! under a neighborhood-local placement policy — so besides the timing
//! the bench *asserts* the contract: every arm's per-cycle Ψ within 1e-9
//! relative of the cold monolithic oracle, every cycle overflow-free.
//!
//! Besides the criterion report, a machine-readable summary (median
//! solve and wall ns per arm, solve-time speedups, hit counters) is
//! written to
//! `results/BENCH_cycles.json`. In `--test` smoke mode everything runs
//! once on the smallest size only and the JSON artifact is untouched.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;
use vod_core::{GreedyPolicy, ShardConfig, SorpConfig};
use vod_experiments::{
    cycles::{rolling_horizon_with, RollingConfig, RollingOutcome},
    EnvParams,
};

/// ~`n` requests per cycle: 19 neighborhoods × 10 users × rpu.
fn params(rpu: usize) -> EnvParams {
    EnvParams { videos: 120, requests_per_user: rpu, ..EnvParams::paper() }
}

/// `mono` is the monolithic arm: one shard instead of the default four.
fn shard_cfg(mono: bool) -> ShardConfig {
    let base = ShardConfig::default();
    ShardConfig {
        shards: if mono { 1 } else { base.shards },
        sorp: SorpConfig {
            policy: GreedyPolicy { allow_remote_placement: false, ..GreedyPolicy::default() },
            ..SorpConfig::default()
        },
        ..base
    }
}

/// The four arms, in reporting order.
fn arms() -> [(&'static str, RollingConfig); 4] {
    let sharded =
        RollingConfig { shard: shard_cfg(false), regional: true, ..RollingConfig::default() };
    [
        ("cold_mono", RollingConfig { shard: shard_cfg(true), ..sharded.clone() }.cold()),
        ("cold_shard4", sharded.cold()),
        ("warm_shard4", sharded.clone()),
        ("warm_adaptive", RollingConfig { adaptive: true, ..sharded }),
    ]
}

/// Per-arm medians over `samples` round-robin passes: rep `i` times
/// every arm back-to-back before rep `i + 1` starts, so slow drift on a
/// shared machine lands on all arms alike instead of biasing whichever
/// arm happened to run during a noisy stretch. Returns
/// `(solve_ns, wall_ns)` medians per arm — solve is the scheduler
/// pipeline itself (summed per-cycle `solve_ns`), wall additionally
/// includes the synthetic workload generation the harness performs in
/// place of a real request intake, identical across arms.
fn measure_arms(p: &EnvParams, n_cycles: usize, samples: usize) -> ([f64; 4], [f64; 4]) {
    let mut solve: [Vec<f64>; 4] = Default::default();
    let mut wall: [Vec<f64>; 4] = Default::default();
    for _ in 0..samples {
        for (ai, (_, cfg)) in arms().iter().enumerate() {
            let start = Instant::now();
            let out = std::hint::black_box(rolling_horizon_with(p, n_cycles, cfg));
            wall[ai].push(start.elapsed().as_nanos() as f64);
            solve[ai].push(out.cycles.iter().map(|c| c.warm.solve_ns).sum::<u64>() as f64);
        }
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    (solve.map(&median), wall.map(&median))
}

fn assert_psi_matches(arm: &str, run: &RollingOutcome, oracle: &RollingOutcome) -> f64 {
    assert_eq!(run.cycles.len(), oracle.cycles.len());
    let mut worst = 0.0f64;
    for (c, o) in run.cycles.iter().zip(&oracle.cycles) {
        assert!(c.overflow_free, "{arm}: cycle {} left an overflow", c.cycle);
        let rel = (c.cost - o.cost).abs() / o.cost.max(1.0);
        assert!(
            rel <= 1e-9,
            "{arm}: cycle {} Ψ {} vs cold monolithic {} (rel {rel:e})",
            c.cycle,
            c.cost,
            o.cost
        );
        worst = worst.max(rel);
    }
    worst
}

struct Row {
    requests: usize,
    cycles: usize,
    arm_ns: [f64; 4],
    arm_wall_ns: [f64; 4],
    psi_rel_err: f64,
    trials_hit: usize,
    phase1_hits: usize,
    adaptive_shards_last: usize,
}

fn emit_json(rows: &[Row], smoke: bool) {
    if smoke {
        return;
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut body = String::from("{\n  \"bench\": \"cycles_warm\",\n");
    body.push_str("  \"smoke\": false,\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let [cold_mono, cold_shard, warm_shard, warm_adaptive] = r.arm_ns;
        let [cold_mono_w, cold_shard_w, warm_shard_w, warm_adaptive_w] = r.arm_wall_ns;
        body.push_str(&format!(
            "    {{\"requests\": {}, \"cycles\": {}, \"cold_mono_ns\": {:.0}, \
             \"cold_shard4_ns\": {:.0}, \"warm_shard4_ns\": {:.0}, \"warm_adaptive_ns\": {:.0}, \
             \"cold_mono_wall_ns\": {:.0}, \"cold_shard4_wall_ns\": {:.0}, \
             \"warm_shard4_wall_ns\": {:.0}, \"warm_adaptive_wall_ns\": {:.0}, \
             \"speedup_warm4\": {:.2}, \"speedup_adaptive\": {:.2}, \"psi_rel_err\": {:.3e}, \
             \"trials_hit\": {}, \"phase1_hits\": {}, \"adaptive_shards_last\": {}}}{}\n",
            r.requests,
            r.cycles,
            cold_mono,
            cold_shard,
            warm_shard,
            warm_adaptive,
            cold_mono_w,
            cold_shard_w,
            warm_shard_w,
            warm_adaptive_w,
            cold_mono / warm_shard.max(1e-9),
            cold_mono / warm_adaptive.max(1e-9),
            r.psi_rel_err,
            r.trials_hit,
            r.phase1_hits,
            r.adaptive_shards_last,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(format!("{dir}/BENCH_cycles.json"), body) {
        eprintln!("warning: could not write BENCH_cycles.json: {e}");
    }
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let mut rows = Vec::new();

    // (requests-per-user, ≈requests per cycle, cycle counts)
    let sizes: &[(usize, usize, &[usize])] =
        if smoke { &[(5, 950, &[3])] } else { &[(5, 950, &[5, 20]), (21, 3990, &[5, 20])] };

    for &(rpu, n, cycle_counts) in sizes {
        let p = params(rpu);
        for &n_cycles in cycle_counts {
            // --- Contract checks, once per cell, outside the timing ----
            let runs: Vec<RollingOutcome> =
                arms().iter().map(|(_, cfg)| rolling_horizon_with(&p, n_cycles, cfg)).collect();
            let oracle = &runs[0];
            assert_eq!(oracle.cycles[0].requests, n, "cell size drifted");
            let mut worst = 0.0f64;
            for ((name, _), run) in arms().iter().zip(&runs) {
                worst = worst.max(assert_psi_matches(name, run, oracle));
            }
            let warm_run = &runs[2];
            let trials_hit: usize = warm_run.cycles.iter().map(|c| c.warm.trials_hit).sum();
            let phase1_hits: usize = warm_run.cycles.iter().map(|c| c.warm.phase1_hits).sum();
            let adaptive_shards_last =
                runs[3].cycles.last().expect("cycles exist").warm.shards_used;

            // --- Timing ------------------------------------------------
            let samples = if smoke { 1 } else { 5 };
            let (arm_ns, arm_wall_ns) = measure_arms(&p, n_cycles, samples);
            for (ai, (name, _)) in arms().iter().enumerate() {
                eprintln!(
                    "cycles/{n}x{n_cycles}/{name}: solve {:.1} ms ({:.2}x vs cold monolithic), \
                     wall {:.1} ms",
                    arm_ns[ai] / 1e6,
                    arm_ns[0] / arm_ns[ai].max(1e-9),
                    arm_wall_ns[ai] / 1e6,
                );
            }
            if !smoke && n_cycles == 5 {
                let mut g = c.benchmark_group(&format!("cycles/{n}x{n_cycles}"));
                g.sample_size(10);
                for (name, cfg) in arms() {
                    g.bench_function(name, |b| b.iter(|| rolling_horizon_with(&p, n_cycles, &cfg)));
                }
                g.finish();
            }
            rows.push(Row {
                requests: n,
                cycles: n_cycles,
                arm_ns,
                arm_wall_ns,
                psi_rel_err: worst,
                trials_hit,
                phase1_hits,
                adaptive_shards_last,
            });
        }
    }

    emit_json(&rows, smoke);
}

criterion_group!(benches, bench);
criterion_main!(benches);
