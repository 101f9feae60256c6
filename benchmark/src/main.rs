//! End-to-end service benchmark: one workload per process.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is the traced pass that yields the per-layer metrics. Either way the run
//! repeats one seeded arrival trace on a fresh service loop until
//! `--seconds` are spent, checks every cycle by strict replay, and prints
//! `workload metric value unit` lines followed by one JSON result object.
//! Any failed hard check exits non-zero with no result.
//!
//! Every repetition does the same work cycle for cycle (checked bit for
//! bit), so what differs between repetitions is the machine. On a shared
//! host that difference only ever adds time, in bursts of seconds; a timing
//! is therefore read per cycle as the least over the repetitions
//! ([`stats::floor`]), and percentiles, sums and shares are taken over
//! those per-cycle floors.

mod adapter;
mod report;
mod stats;
mod trace;
mod workloads;

use adapter::{Rep, SetupTimes, RUNGS};
use report::{result_json, Metrics, END_TO_END, PER_LAYER};
use stats::{floor, least, median, percentile, percentile_supported, ratio};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::SpanLog;
use workloads::Spec;

/// Set-ups per run; `setup_s` and the per-stage times are their least.
const SETUPS: usize = 7;
/// Cycles of a `--smoke` repetition.
const SMOKE_CYCLES: usize = 20;
/// Measurement time when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds`.
const RUN_SECONDS: f64 = 28.0;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

const USAGE: &str =
    "usage: vod-service-benchmark --workload <steady|contended|overload_faults|ample_wide> \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        spec: &workloads::WORKLOADS[0],
        seed: 1997,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut named = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--smoke" => {
                args.smoke = true;
                continue;
            }
            // Queries `run.sh` makes; they print and exit.
            "--list" => {
                workloads::WORKLOADS.iter().for_each(|w| println!("{}", w.name));
                std::process::exit(0);
            }
            "--bounds" => {
                print!("{}", report::render_bounds());
                std::process::exit(0);
            }
            _ => {}
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                args.spec = workloads::by_name(&value).ok_or_else(bad)?;
                named = true;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    if !named {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{}: FAILED: {message}", args.spec.name);
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let spec = args.spec;
    let cycles = if args.smoke { SMOKE_CYCLES } else { spec.cycles };
    if !args.smoke && !percentile_supported(cycles, 95.0) {
        return Err(format!(
            "{cycles} cycles per repetition leave fewer than 10 samples beyond p95"
        ));
    }

    let started = Instant::now();
    let (world, first_setup) = adapter::setup(spec, args.seed, cycles);
    eprintln!("{}: {}", spec.name, spec.why);
    eprintln!(
        "{}: seed {} · {} cycles/rep · {} arrivals · {} probe workers · trace {}",
        spec.name,
        args.seed,
        cycles,
        world.arrivals(),
        adapter::workers(),
        u8::from(args.trace)
    );

    // Repetitions: the same trace on a fresh service loop each time. The
    // time budget covers everything the run measures, so a repetition (in
    // the traced pass: an untraced and a traced one, which alternate so the
    // overhead ratio compares like with like) starts only while it and the
    // remaining set-ups are expected to fit.
    let reserve = (SETUPS - 1) as f64 * 1.5 * first_setup.total_ns as f64 / 1e9;
    let mut spans = SpanLog::new();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut counts = adapter::RecorderCounts::new();
    let mut longest_round_s = 0.0f64;
    loop {
        let round = Instant::now();
        plain.push(adapter::run_rep(&world, plain.len() + traced.len(), None).0);
        if args.trace {
            let rep = plain.len() + traced.len();
            let (r, extra) = adapter::run_rep(&world, rep, Some(&mut spans));
            if traced.is_empty() {
                // Probes run between repetitions, inside the time budget
                // and outside every cycle.
                adapter::probe(&world, rep, &extra.sampled, &mut spans);
                counts = extra.counts;
            }
            traced.push(r);
        }
        // The first round is the slowest (cold caches, and the probes).
        longest_round_s = longest_round_s.max(round.elapsed().as_secs_f64());
        let next_ends = started.elapsed().as_secs_f64() + longest_round_s + reserve;
        if args.smoke || next_ends > args.seconds {
            break;
        }
    }

    // Hard checks: accounting, conservation, and bit-equal deterministic
    // outcomes across every repetition.
    let reps: Vec<&Rep> = plain.iter().chain(&traced).collect();
    let expected = reps[0].signature();
    for (i, r) in reps.iter().enumerate() {
        if !r.accounting_errors.is_empty() {
            return Err(format!("rep {i}: accounting: {}", r.accounting_errors.join("; ")));
        }
        if r.signature() != expected {
            return Err(format!("rep {i} diverged from rep 0 on the same trace"));
        }
    }
    // Memory as a process that set up once sees it: read before the extra
    // set-ups below, whose allocate-and-free churn is the harness's own.
    let rss_mb = peak_rss_mb();
    let mut setups = vec![first_setup];
    for _ in 1..SETUPS {
        setups.push(adapter::setup(spec, args.seed, cycles).1);
    }
    let measured_s = started.elapsed().as_secs_f64();

    let first = reps[0];
    if let Some(what) = &first.first_dirty {
        eprintln!(
            "{}: {} replay-dirty cycles of {} (counted as failed, not hidden); first: {what}",
            spec.name,
            first.dirty_cycles(),
            cycles
        );
    }

    let metrics = if args.trace {
        let m = per_layer(&setups, &world, &plain, &traced, &counts, &spans);
        std::fs::create_dir_all(&args.out)
            .and_then(|()| {
                std::fs::write(
                    args.out.join(format!("trace-{}.jsonl", spec.name)),
                    spans.to_jsonl(),
                )
            })
            .map_err(|e| format!("writing the trace under {}: {e}", args.out.display()))?;
        m
    } else {
        end_to_end(&setups, &plain, rss_mb)
    };
    let missing = metrics.missing();
    if !missing.is_empty() {
        return Err(format!("metrics not measured: {}", missing.join(", ")));
    }

    eprintln!(
        "{}: {} reps in {measured_s:.1} s · {} cycle samples per rep (p95 {})",
        spec.name,
        reps.len(),
        cycles,
        if percentile_supported(cycles, 95.0) { "supported" } else { "NOT supported: smoke" },
    );
    let p50s = |reps: &[Rep]| -> String {
        let of = |r| format!("{:.3}", cycle_p50(std::slice::from_ref(r)));
        reps.iter().map(of).collect::<Vec<_>>().join(" ")
    };
    eprintln!("{}: cycle_ms_p50 per untraced rep: {}", spec.name, p50s(&plain));
    if args.trace {
        eprintln!("{}: cycle_ms_p50 per traced rep: {}", spec.name, p50s(&traced));
        eprintln!(
            "{}: probe.* spans are cold re-solves without the committed base: they rank layers \
             and do not sum to service.run_cycle",
            spec.name
        );
    }
    print!("{}", metrics.render(spec.name));
    println!("{}", result_json(true, first.offered as u64, first.failed() as u64, &metrics));
    Ok(())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One part of every cycle's time (ms), each cycle at its least over the
/// repetitions.
fn cycle_ms(reps: &[Rep], part: impl Fn(&adapter::CycleSample) -> u64) -> Vec<f64> {
    let rows: Vec<Vec<f64>> =
        reps.iter().map(|r| r.cycles.iter().map(|c| ms(part(c))).collect()).collect();
    floor(&rows)
}

fn total_ms(reps: &[Rep], part: impl Fn(&adapter::CycleSample) -> u64) -> f64 {
    cycle_ms(reps, part).iter().sum()
}

fn cycle_p50(reps: &[Rep]) -> f64 {
    percentile(&cycle_ms(reps, |c| c.cycle_ns()), 50.0)
}

/// The least over the set-ups of one reading of a set-up.
fn setup_least(setups: &[SetupTimes], of: impl Fn(&SetupTimes) -> f64) -> f64 {
    least(&setups.iter().map(of).collect::<Vec<_>>())
}

fn end_to_end(setups: &[SetupTimes], reps: &[Rep], peak_rss_mb: f64) -> Metrics {
    let mut m = Metrics::new(END_TO_END);
    let rep = &reps[0];
    let cycle = cycle_ms(reps, |c| c.cycle_ns());
    m.push("setup_s", setup_least(setups, |s| s.total_ns as f64 / 1e9));
    m.push("sched_rps", rep.served as f64 / (cycle.iter().sum::<f64>() / 1e3));
    m.push("cycle_ms_p50", percentile(&cycle, 50.0));
    m.push("cycle_ms_p95", percentile(&cycle, 95.0));
    // Deterministic per seed: identical on every repetition (checked).
    m.push("psi_per_req", ratio(rep.psi(), rep.served as f64));
    m.push("ok_share", 1.0 - ratio(rep.failed() as f64, rep.offered as f64));
    m.push("ontime_share", 1.0 - ratio(rep.deadline_misses as f64, rep.offered as f64));
    m.push("peak_rss_mb", peak_rss_mb);
    m
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok());
    kb.expect("VmHWM in /proc/self/status") / 1e3
}

fn per_layer(
    setups: &[SetupTimes],
    world: &adapter::World,
    plain: &[Rep],
    traced: &[Rep],
    counts: &adapter::RecorderCounts,
    spans: &SpanLog,
) -> Metrics {
    let mut m = Metrics::new(PER_LAYER);
    let rep = &traced[0];
    let n_cycles = rep.cycles.len() as f64;

    // Set-up stages: the least over the set-ups of each stage's span.
    for (metric, stage) in [
        ("topology.build_ms", "topology.build"),
        ("topology.routes_ms", "topology.routes"),
        ("workload.catalog_ms", "workload.catalog"),
        ("workload.arrivals_ms", "workload.arrivals"),
        ("faults.plan_ms", "faults.plan"),
    ] {
        let of = |s: &SetupTimes| {
            s.stages.iter().find(|(n, _)| *n == stage).map_or(0.0, |&(_, ns)| ms(ns))
        };
        m.push(metric, setup_least(setups, of));
    }
    m.push("workload.trace_mb", world.trace_mb());

    // Direct spans around the three calls of a cycle, each cycle at its
    // least over the traced repetitions.
    let run = cycle_ms(traced, |c| c.run_ns);
    let run_total: f64 = run.iter().sum();
    let replay = cycle_ms(traced, |c| c.replay_ns);
    m.push(
        "service.offer_us_per_req",
        ratio(total_ms(traced, |c| c.offer_ns) * 1e3, rep.offered as f64),
    );
    m.push("service.run_cycle_ms_p50", percentile(&run, 50.0));
    m.push("service.run_cycle_ms_p95", percentile(&run, 95.0));
    m.push("service.solve_share", ratio(total_ms(traced, |c| c.solve_ns), run_total));
    m.push("service.frontend_ms_p50", percentile(&cycle_ms(traced, |c| c.frontend_ns()), 50.0));
    m.push("simulator.replay_ms_p50", percentile(&replay, 50.0));
    m.push(
        "simulator.replay_share",
        ratio(replay.iter().sum(), total_ms(traced, |c| c.cycle_ns())),
    );
    m.push("simulator.dirty_cycles", rep.dirty_cycles() as f64);
    m.push("simulator.violations", rep.violations as f64);

    // Counts from the service report (exact, identical on every rep).
    for (i, rung) in RUNGS.iter().enumerate() {
        let name = format!("service.rung_{rung}_share");
        m.push(&name, rep.rung_cycles[i] as f64 / n_cycles);
    }
    m.push("service.over_budget_cycles", rep.over_budget_cycles as f64);
    m.push("service.rejected", rep.rejected as f64);
    m.push("service.shed", rep.shed_events as f64);
    m.push("service.deferred", rep.deferred_events as f64);
    m.push("service.dropped", rep.dropped as f64);
    m.push("service.queue_high_water", rep.queue_high_water as f64);

    // Counts from `ServiceCycleOutcome::warm`.
    let w = &rep.warm;
    m.push("warm.trials_carried", w.trials_carried as f64);
    m.push("warm.trials_adopted", w.trials_adopted as f64);
    m.push("warm.trials_revalidated", w.trials_revalidated as f64);
    m.push("warm.revalidate_ratio", ratio(w.trials_revalidated as f64, w.trials_adopted as f64));
    m.push("warm.trials_hit", w.trials_hit as f64);
    m.push("warm.phase1_hits", w.phase1_hits as f64);
    m.push("warm.committed_active_mean", w.committed_active as f64 / n_cycles);
    m.push("warm.committed_evicted", w.committed_evicted as f64);
    m.push("warm.spillover_gb_mean", w.spillover_bytes / 1e9 / n_cycles);

    // Counts from the program's flight recorder (first traced rep).
    for (&name, &value) in counts {
        m.push(name, value);
    }
    let trials = counts["sorp.trials_run"] + counts["sorp.trials_cached"];
    m.push("sorp.cache_hit_ratio", ratio(counts["sorp.trials_cached"], trials));

    // Probes: cold re-solves on sampled cycles, medians over the samples.
    let probe_ms = |name: &str| median(&spans.durations_ms(name));
    let (ivsp, sorp, shard) =
        (probe_ms("probe.ivsp"), probe_ms("probe.sorp_cold"), probe_ms("probe.shard_cold"));
    m.push("workload.partition_us_per_req", spans.ns_per_count("probe.partition") / 1e3);
    m.push("greedy.ivsp_ms", ivsp);
    m.push("greedy.ivsp_us_per_req", spans.ns_per_count("probe.ivsp") / 1e3);
    m.push("sorp.cold_solve_ms", sorp);
    m.push("shard.cold_solve_ms", shard);
    m.push("shard.speedup_vs_mono", ratio(ivsp + sorp, shard));
    m.push("capacity.from_schedule_ms", probe_ms("probe.ledger_from_schedule"));
    m.push("capacity.fits_ns", spans.ns_per_count("probe.ledger_fits"));
    m.push("capacity.add_remove_ns", spans.ns_per_count("probe.ledger_remove_add"));
    m.push("pricing.price_ms", probe_ms("probe.price"));
    m.push("parallel.speedup", ratio(shard, probe_ms("probe.shard_parallel")));
    m.push("parallel.workers", adapter::workers() as f64);

    // Repair: what a fault in the window adds to the front end.
    let frontend = cycle_ms(traced, |c| c.frontend_ns());
    let frontend_of = |faulted: bool| -> Vec<f64> {
        let of = rep.cycles.iter().zip(&frontend).filter(|(c, _)| c.faulted == faulted);
        of.map(|(_, &ms)| ms).collect()
    };
    let (hit, clear) = (frontend_of(true), frontend_of(false));
    let delta =
        if hit.is_empty() || clear.is_empty() { 0.0 } else { median(&hit) - median(&clear) };
    m.push("repair.frontend_delta_ms", delta);

    // Traced and untraced repetitions alternate, so both floors sample the
    // same stretch of wall time.
    m.push("obs.trace_overhead_ratio", ratio(cycle_p50(traced), cycle_p50(plain)));
    m.push("trace.cover_share", spans.cover_share("cycle"));
    m
}
