//! Micro-benchmarks of the scheduler's building blocks: routing,
//! individual video scheduling, schedule integration, overflow detection,
//! full resolution, the baselines, and the simulator replay.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use vod_bench::Fixture;
use vod_core::{
    baselines, detect_overflows, find_video_schedule, ivsp_solve, ivsp_solve_priced,
    ivsp_solve_with_mode, sorp_solve, sorp_solve_priced, ExecMode, GreedyPolicy, LedgerMode,
    SorpConfig, StorageLedger,
};
use vod_oracles::sorp_solve_naive;
use vod_simulator::{simulate, SimOptions};
use vod_topology::RouteTable;

fn bench(c: &mut Criterion) {
    let fx = Fixture::paper_baseline();
    let ctx = fx.ctx();

    c.bench_function("route_table_build_20_nodes", |b| b.iter(|| RouteTable::build(&fx.topo)));

    // The busiest single-video group in the batch.
    let (_, biggest) =
        fx.requests.groups().max_by_key(|(_, g)| g.len()).expect("batch is non-empty");
    c.bench_function(&format!("find_video_schedule_{}_requests", biggest.len()), |b| {
        b.iter(|| find_video_schedule(&ctx, biggest))
    });

    c.bench_function("ivsp_solve_full_batch", |b| b.iter(|| ivsp_solve(&ctx, &fx.requests)));

    // Same phase-1 work under both execution modes (bit-identical output;
    // the gap is the parallel fan-out overhead or speedup).
    c.bench_function("ivsp_solve_sequential", |b| {
        b.iter(|| {
            ivsp_solve_with_mode(&ctx, &fx.requests, GreedyPolicy::default(), ExecMode::Sequential)
        })
    });
    c.bench_function("ivsp_solve_parallel", |b| {
        b.iter(|| {
            ivsp_solve_with_mode(&ctx, &fx.requests, GreedyPolicy::default(), ExecMode::Parallel)
        })
    });
    c.bench_function("ivsp_solve_priced", |b| b.iter(|| ivsp_solve_priced(&ctx, &fx.requests)));

    let phase1 = fx.phase1();
    c.bench_function("ledger_from_schedule", |b| {
        b.iter(|| StorageLedger::from_schedule(&fx.topo, &fx.catalog, &phase1))
    });

    let ledger = StorageLedger::from_schedule(&fx.topo, &fx.catalog, &phase1);
    c.bench_function("detect_overflows", |b| b.iter(|| detect_overflows(&fx.topo, &ledger)));

    let mut g = c.benchmark_group("sorp_solve_full");
    g.sample_size(10);
    g.bench_function("baseline_cell", |b| {
        b.iter_batched(
            || phase1.clone(),
            |p1| sorp_solve(&ctx, &p1, &SorpConfig::default()),
            BatchSize::LargeInput,
        )
    });
    // The incremental-pricing path, sequential vs parallel trial fan-out.
    let priced = fx.phase1_priced();
    g.bench_function("priced_sequential", |b| {
        b.iter_batched(
            || priced.clone(),
            |p1| sorp_solve_priced(&ctx, p1, &SorpConfig::default(), &[], ExecMode::Sequential),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("priced_parallel", |b| {
        b.iter_batched(
            || priced.clone(),
            |p1| sorp_solve_priced(&ctx, p1, &SorpConfig::default(), &[], ExecMode::Parallel),
            BatchSize::LargeInput,
        )
    });
    // End-to-end resolution by the naive loop (bit-identical schedule, no
    // trial cache) on each ledger implementation: against the rows above
    // the timeline arm isolates the cache and the monitor, and the gap
    // between the two arms is the occupancy timeline's.
    for (name, ledger) in [
        ("naive_sequential_timeline", LedgerMode::Timeline),
        ("naive_sequential_reference", LedgerMode::Reference),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || priced.clone(),
                |p1| {
                    let cfg = SorpConfig::default();
                    sorp_solve_naive(&ctx, p1, &cfg, &[], ledger, ExecMode::Sequential)
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();

    c.bench_function("baseline_network_only", |b| {
        b.iter(|| baselines::network_only(&ctx, &fx.requests))
    });

    let resolved = sorp_solve(&ctx, &phase1, &SorpConfig::default()).schedule;
    c.bench_function("simulate_resolved_schedule", |b| {
        b.iter(|| {
            simulate(&fx.topo, &fx.catalog, &fx.model, &resolved, &SimOptions::strict(&fx.requests))
        })
    });

    c.bench_function("schedule_cost", |b| b.iter(|| ctx.schedule_cost(&resolved)));
}

criterion_group!(benches, bench);
criterion_main!(benches);
