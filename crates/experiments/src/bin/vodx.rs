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

use std::path::PathBuf;
use std::process::ExitCode;
use vod_core::{ivsp_solve_priced, sorp_solve_priced, ExecMode, SchedCtx, SorpConfig};
use vod_cost_model::CostModel;
use vod_experiments::{ext, figures, render_csv, render_table, service, table5, EnvParams, Preset};

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
                print!("{}", rec.summarize());
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
                let (r, report, _) = service::service_horizon(&params, n, &sp, &recorder);
                let text = format!("{}\n{}", r.render(), report.render());
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
