//! Experiment harness reproducing the evaluation of Won & Srivastava
//! (HPDC 1997), §5: Figures 5–9 and Table 5.
//!
//! Each experiment sweeps the environment attributes of Table 4 — network
//! charging rate, storage charging rate, intermediate storage size, and
//! Zipf access skew — over the 20-node topology of Fig. 4 (19
//! neighborhoods × 10 users, 500-title catalog), runs the two-phase
//! scheduler, and reports total service cost against the *network only
//! system* baseline.
//!
//! Entry points:
//!
//! * [`figures::fig5`] … [`figures::fig9`] — one function per figure,
//!   returning a [`FigureResult`] of labelled series;
//! * [`table5::run`] — the heat-metric comparison grid behind Table 5;
//! * [`Scenario`] — one service run as plain data: the service
//!   benchmark's four workloads ([`Scenario::named`]) and the paper's
//!   environment as a service ([`Scenario::paper`]);
//! * [`windows::windows`] — Ψ per request when several windows are
//!   solved as one batch, the bound held copies chase, beside the
//!   service's own;
//! * the `vodx` binary — CLI that renders any experiment as an aligned
//!   text table and CSV files.
//!
//! Determinism: every cell derives its workload from an explicit seed, so
//! reruns reproduce bit-identical numbers. `Preset::Paper` uses the
//! paper's full parameter grids; `Preset::Fast` shrinks them for smoke
//! runs and CI.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod env;
pub mod ext;
pub mod figures;
mod report;
pub mod service;
pub mod table5;
pub mod windows;

pub use env::{evaluate_cell, evaluate_cell_all_metrics, EnvParams, EvalResult, Preset};
pub use report::{render_csv, render_table, FigureResult, Series};
pub use service::{Net, Scenario};
