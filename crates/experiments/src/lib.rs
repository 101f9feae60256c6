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

pub use env::{evaluate_cell, evaluate_cell_all_metrics, EnvParams, EvalResult, Preset};
pub use report::{render_csv, render_table, FigureResult, Series};
