//! `vodx` — run the paper's experiments from the command line.
//!
//! ```text
//! vodx <fig5|fig6|fig7|fig8|fig9|table5|gap|bandwidth|cycles|service|inspect|all>
//!      [--fast] [--out DIR] [--rpu N] [--burst N] [--budget-ns B] [--record FILE]
//! vodx trace FILE
//! ```
//!
//! Prints each experiment as an aligned text table (the rows the paper
//! plots) and, with `--out`, also writes CSV/text outputs for replotting.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use vod_core::{
    ivsp_solve_priced, sorp_solve_priced, ExecMode, SchedCtx, ServiceCycleOutcome, SorpConfig,
};
use vod_cost_model::CostModel;
use vod_experiments::{ext, figures, render_csv, render_table, service, table5, EnvParams, Preset};
use vod_topology::units;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut preset = Preset::Paper;
    let mut out_dir: Option<PathBuf> = None;
    let mut rpu: Option<usize> = None;
    let mut burst: Option<usize> = None;
    let mut budget_ns: Option<f64> = None;
    let mut record: Option<PathBuf> = None;
    let mut targets: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fast" => preset = Preset::Fast,
            "--out" => match it.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--out needs a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            "--rpu" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => rpu = Some(n),
                None => {
                    eprintln!("--rpu needs an integer argument");
                    return ExitCode::FAILURE;
                }
            },
            "--burst" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => burst = Some(n),
                None => {
                    eprintln!("--burst needs an integer argument");
                    return ExitCode::FAILURE;
                }
            },
            "--budget-ns" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => budget_ns = Some(n),
                None => {
                    eprintln!("--budget-ns needs a number argument");
                    return ExitCode::FAILURE;
                }
            },
            "--record" => match it.next() {
                Some(path) => record = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--record needs a file argument");
                    return ExitCode::FAILURE;
                }
            },
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
            target => targets.push(target.to_string()),
        }
    }
    if targets.is_empty() {
        eprintln!("no experiment given\n{}", usage());
        return ExitCode::FAILURE;
    }
    // `trace FILE` — dump and summarize a flight recording, no solving.
    if targets[0] == "trace" {
        let (2, [_, path]) = (args.len(), targets.as_slice()) else {
            eprintln!("trace takes one recording file argument and no flags\n{}", usage());
            return ExitCode::FAILURE;
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match vod_obs::Recording::from_jsonl(&text) {
            Ok(rec) => {
                println!("# Flight recording {path}");
                print!("{}{}", rec.summarize(), render_cycle_end_totals(&rec));
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("{path} is not a valid recording: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if targets.iter().any(|t| t == "all") {
        targets = [
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "table5",
            "gap",
            "bandwidth",
            "cycles",
            "service",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    // A flag no selected target reads is a mistake, not a no-op.
    let readers: [(&str, bool, &[&str]); 4] = [
        ("--rpu", rpu.is_some(), &["table5"]),
        ("--burst", burst.is_some(), &["service"]),
        ("--budget-ns", budget_ns.is_some(), &["service"]),
        ("--record", record.is_some(), &["cycles", "service"]),
    ];
    for (flag, given, read_by) in readers {
        if given && !targets.iter().any(|t| read_by.contains(&t.as_str())) {
            eprintln!("{flag} is only read by {}\n{}", read_by.join(", "), usage());
            return ExitCode::FAILURE;
        }
    }

    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    for target in &targets {
        let started = std::time::Instant::now();
        let done = match target.as_str() {
            "inspect" => {
                let params = EnvParams::for_preset(preset);
                let (topo, wl) = params.build();
                let model = CostModel::per_hop();
                let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
                let outcome = sorp_solve_priced(
                    &ctx,
                    ivsp_solve_priced(&ctx, &wl.requests),
                    &SorpConfig::default(),
                    &[],
                    ExecMode::Sequential,
                );
                let analysis = vod_simulator::analysis::ScheduleAnalysis::of(
                    &topo,
                    &wl.catalog,
                    &model,
                    &outcome.schedule,
                );
                println!("# Baseline-cell schedule inspection");
                println!("{}", analysis.render(&topo, 5));
                let busiest = analysis
                    .storages
                    .iter()
                    .max_by(|a, b| a.peak_utilization.total_cmp(&b.peak_utilization))
                    .expect("storages exist")
                    .loc;
                println!(
                    "{}",
                    vod_simulator::render::occupancy_timeline(
                        &topo,
                        &wl.catalog,
                        &outcome.schedule,
                        busiest,
                        16,
                        40
                    )
                );
                write_out(&out_dir, "topology.dot", &vod_topology::dot::to_dot(&topo))
            }
            "cycles" | "service" => {
                let params = EnvParams::for_preset(preset);
                let fast = preset == Preset::Fast;
                // `cycles` is the service loop's oracle configuration;
                // `service` bounds the queue and the budget under a burst.
                let (n, sp) = if target == "cycles" {
                    (if fast { 3 } else { 7 }, service::ServiceParams::default())
                } else {
                    let sp = service::ServiceParams {
                        queue_bound: Some(4 * params.users_per_neighborhood * 19),
                        budget_ns: budget_ns.or(Some(500.0 * 9_700.0)),
                        burst: vec![(1, burst.unwrap_or(4))],
                        ..service::ServiceParams::default()
                    };
                    (if fast { 4 } else { 8 }, sp)
                };
                let recorder = match &record {
                    Some(_) => vod_obs::Recorder::enabled(),
                    None => vod_obs::Recorder::disabled(),
                };
                let (outcomes, report) = service::service_horizon(&params, n, &sp, &recorder);
                let text = format!("{}\n{}", render_cycles(&outcomes), report.render());
                println!("{text}");
                write_recording(&record, &recorder)
                    .and_then(|()| write_out(&out_dir, &format!("{target}.txt"), &text))
            }
            "gap" => {
                let text = ext::gap(preset).render();
                println!("{text}");
                write_out(&out_dir, "gap.txt", &text)
            }
            "bandwidth" => {
                let text = ext::bandwidth(preset).render();
                println!("{text}");
                write_out(&out_dir, "bandwidth.txt", &text)
            }
            "table5" => {
                let text = table5::run_with(preset, rpu).render();
                println!("{text}");
                write_out(&out_dir, "table5.txt", &text)
            }
            fig => match figures::by_id(fig, preset) {
                Some(result) => {
                    println!("{}", render_table(&result));
                    write_out(&out_dir, &format!("{fig}.csv"), &render_csv(&result))
                }
                None => Err(format!("unknown experiment {fig}\n{}", usage())),
            },
        };
        if let Err(e) = done {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[{target} done in {:.1}s]", started.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}

/// The per-cycle table of a service run. Every cycle gets a row —
/// including idle ones with zero requests (the service loop's idle
/// ticks) — with the solve's wall clock in `solve ms` and a trailing
/// rung/shed section.
fn render_cycles(outcomes: &[ServiceCycleOutcome]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Rolling-horizon operation ({} cycles)", outcomes.len());
    let _ = writeln!(
        out,
        "{:>7}{:>10}{:>14}{:>10}{:>10}{:>14}{:>8}{:>8}{:>11}{:>7}{:>9}{:>7}{:>7}{:>7}{:>7}",
        "cycle",
        "requests",
        "cost $",
        "+res%",
        "victims",
        "spillover GB",
        "shards",
        "hits",
        "solve ms",
        "clean",
        "rung",
        "shed",
        "defer",
        "drop",
        "queue"
    );
    for c in outcomes {
        let _ = writeln!(
            out,
            "{:>7}{:>10}{:>14.0}{:>9.1}%{:>10}{:>14.2}{:>8}{:>8}{:>11.2}{:>7}{:>9}{:>7}{:>7}{:>7}{:>7}",
            c.stats.cycle,
            c.served.len(),
            c.cost,
            100.0 * c.rel_increase(),
            c.victims,
            c.warm.spillover_bytes / units::GB,
            c.warm.shards_used,
            c.warm.trials_hit,
            c.warm.solve_ns as f64 / 1e6,
            if c.overflow_free { "yes" } else { "NO" },
            c.stats.rung.label(),
            c.stats.shed,
            c.stats.deferred,
            c.stats.dropped,
            c.stats.queue_depth
        );
    }
    let _ = writeln!(out, "total: ${:.0}", outcomes.iter().map(|c| c.cost).sum::<f64>());
    out
}

/// The run's service totals in a recording: the `offered`, `served`,
/// `shed`, `deferred` and `dropped` fields of the service loop's
/// `cycle_end` events, summed. Empty when the recording has none.
fn render_cycle_end_totals(rec: &vod_obs::Recording) -> String {
    let mut out = String::new();
    if rec.events_of("cycle_end").next().is_none() {
        return out;
    }
    let _ = writeln!(out, "cycle_end totals:");
    for field in ["deferred", "dropped", "offered", "served", "shed"] {
        let total: u64 = rec.events_of("cycle_end").filter_map(|e| e.u64(field)).sum();
        let _ = writeln!(out, "  {:<40} {total}", format!("service.{field}"));
    }
    out
}

/// With `--out`, write `body` to `file` in that directory.
fn write_out(out_dir: &Option<PathBuf>, file: &str, body: &str) -> Result<(), String> {
    let Some(dir) = out_dir else { return Ok(()) };
    let path = dir.join(file);
    std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// With `--record`, write the recorder's capture to that file.
fn write_recording(record: &Option<PathBuf>, recorder: &vod_obs::Recorder) -> Result<(), String> {
    let Some(path) = record else { return Ok(()) };
    let rec = recorder.recording().expect("recorder was enabled for --record");
    std::fs::write(path, rec.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("[flight recording: {} events -> {}]", rec.events.len(), path.display());
    Ok(())
}

fn usage() -> &'static str {
    "usage: vodx <fig5|fig6|fig7|fig8|fig9|table5|gap|bandwidth|cycles|service|inspect|all> [--fast] [--out DIR]\n\
     \x20      vodx trace FILE\n\
     \n\
     Reproduces the evaluation of Won & Srivastava (HPDC 1997).\n\
     --fast   use reduced grids/workload (smoke run)\n\
     --out D  additionally write CSV/text outputs into directory D\n\
     --rpu N  reservations per user per cycle for table5 (default 2)\n\
     --burst N     service: arrival multiplier for the burst cycle (default 4)\n\
     --budget-ns B service: per-cycle deadline budget in simulated ns\n\
     --record F    cycles/service: write a JSONL flight recording to F\n\
     trace F       dump + summarize a recording written by --record"
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_obs::Recorder;

    fn cheap_params() -> EnvParams {
        EnvParams { videos: 50, users_per_neighborhood: 4, ..EnvParams::fast() }
    }

    #[test]
    fn render_includes_service_columns_and_idle_cycles() {
        let params = cheap_params();
        // Arrivals stop after cycle 0; cycles 1–2 are idle service ticks.
        let sp = service::ServiceParams { trace_cycles: Some(1), ..Default::default() };
        let (outcomes, report) = service::service_horizon(&params, 3, &sp, &Recorder::disabled());
        assert!(outcomes[1].served.is_empty(), "cycle 1 must be idle");
        assert_eq!(report.cycles.len(), 3);
        let text = render_cycles(&outcomes);
        assert!(text.contains("cycle") && text.contains("solve ms"));
        assert!(text.contains("rung"), "service runs must render the ladder column");
        // Every cycle gets a row, idle ones included.
        assert_eq!(
            text.lines().filter(|l| l.trim_start().starts_with(char::is_numeric)).count(),
            3
        );
    }

    #[test]
    fn spillover_column_is_in_gigabytes() {
        let params = cheap_params();
        let sp = service::ServiceParams::default();
        let (outcomes, _) = service::service_horizon(&params, 3, &sp, &Recorder::disabled());
        let text = render_cycles(&outcomes);
        let rows: Vec<_> =
            text.lines().filter(|l| l.trim_start().starts_with(char::is_numeric)).collect();
        assert_eq!(rows.len(), outcomes.len());
        let capacity_budget_gb = 19.0 * params.capacity_gb; // every storage full
        let mut seen_positive = false;
        for (row, c) in rows.iter().zip(&outcomes) {
            let column = row.split_whitespace().nth(5).expect("spillover column");
            // The column is the byte counter scaled by exactly 1 GB.
            assert_eq!(column, format!("{:.2}", c.warm.spillover_bytes / units::GB), "{row}");
            // Sanity: a GB figure fits the hardware; the raw byte count
            // (1e9× larger) could not.
            let spillover_gb: f64 = column.parse().expect("a number");
            assert!(
                spillover_gb <= capacity_budget_gb,
                "cycle {}: {spillover_gb} GB exceeds the {capacity_budget_gb} GB of disk that exists",
                c.stats.cycle
            );
            seen_positive |= spillover_gb > 0.0;
        }
        assert!(seen_positive, "no cycle saw spillover; the unit check never engaged");
    }

    #[test]
    fn trace_totals_are_the_report_sums() {
        let params = cheap_params();
        let sp = service::ServiceParams {
            queue_bound: Some(1_000),
            budget_ns: Some(100.0 * 4_200.0),
            burst: vec![(1, 4)],
            ..service::ServiceParams::default()
        };
        let recorder = Recorder::enabled();
        let (_, report) = service::service_horizon(&params, 3, &sp, &recorder);
        let text = render_cycle_end_totals(&recorder.recording().expect("enabled"));
        let total = |name: &str| -> u64 {
            let line = text
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name))
                .unwrap_or_else(|| panic!("no {name} line:\n{text}"));
            line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("integer total")
        };
        assert_eq!(total("service.offered"), report.offered as u64);
        assert_eq!(total("service.served"), report.served as u64);
        assert_eq!(total("service.shed"), report.shed_events as u64);
        assert_eq!(total("service.deferred"), report.deferred_events as u64);
        assert_eq!(total("service.dropped"), report.dropped as u64);
        assert!(report.shed_events > 0, "the burst must shed, or the sums are vacuous");
        // A recording without cycle_end events has no totals section.
        assert!(render_cycle_end_totals(&vod_obs::Recording::default()).is_empty());
    }
}
