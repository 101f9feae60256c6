//! Windows per solve: how much Ψ per request the service would save if it
//! saw several windows at once — the perfect-foresight bound that holding
//! copies across the window boundary chases.
//!
//! Each of the service benchmark's four cells is driven over one
//! [`CommittedBook`] that holds nothing, solving `m` consecutive windows
//! as one batch with the sharded pipeline ([`shard_solve_seeded`]) and
//! committing the result. At `m = 1` that is the service without holds;
//! a larger batch lets one copy serve requests of several windows. The
//! table sets the bound beside the service's own Ψ per request, which
//! holds copies ([`crate::Scenario::run`]), and reports the share of the
//! `m = 2` bound the service captures.
//!
//! The `m` columns run the plain solve-and-commit loop: none of the
//! cell's budget, queue bound or fault plan applies, so every arrival is
//! solved on the full pipeline the cycle it is due and nothing is shed,
//! deferred or repaired. The service column runs the cell as configured.
//! On the three cells without those (`steady`, `contended`,
//! `ample_wide`) `m = 1` is the service without holds; on
//! `overload_faults` the two differ in what they serve and when, and the
//! column is no bound there.

use crate::{Preset, Scenario};
use std::fmt::Write as _;
use vod_core::{service_run, shard_solve_seeded, CommittedBook, SchedCtx, ServiceConfig};
use vod_cost_model::{CostModel, RequestBatch};
use vod_workload::Arrival;

/// The cells the table covers, as [`Scenario::named`] knows them.
pub const CELLS: [&str; 4] = ["steady", "contended", "overload_faults", "ample_wide"];

/// One cell's row.
#[derive(Clone, Debug)]
pub struct WindowsRow {
    /// The cell's name.
    pub workload: &'static str,
    /// The service's Ψ per served request over the windows.
    pub service: f64,
    /// `(m, Ψ per request)` for each batch size, `m = 1` first.
    pub per_m: Vec<(usize, f64)>,
}

impl WindowsRow {
    /// The share of the `m = 2` bound's saving the service captures, if
    /// the bound saves anything.
    pub fn captured(&self) -> Option<f64> {
        let at = |m| self.per_m.iter().find(|&&(k, _)| k == m).map(|&(_, psi)| psi);
        let (one, two) = (at(1)?, at(2)?);
        (two < one).then(|| (one - self.service) / (one - two))
    }
}

/// The table: every cell over the same number of windows.
#[derive(Clone, Debug)]
pub struct WindowsTable {
    /// Windows each cell runs.
    pub windows: usize,
    /// One row per cell, in [`CELLS`] order.
    pub rows: Vec<WindowsRow>,
}

impl WindowsTable {
    /// Render as an aligned table: Ψ per request of the service and of
    /// `m = 1`, every larger `m` relative to `m = 1`, and the captured
    /// share of the `m = 2` bound.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Windows per solve: Ψ per request over {} windows", self.windows);
        let _ = writeln!(
            out,
            "# m = k solves k windows as one batch over a book that holds nothing; \
             the service solves one a cycle and holds copies across the boundary"
        );
        let _ = writeln!(
            out,
            "# the m columns run the plain solve-and-commit loop: no budget, no queue bound, \
             no faults; the service runs the cell's own"
        );
        let ms: Vec<usize> = self.rows.first().map_or_else(Vec::new, |r| {
            r.per_m.iter().map(|&(m, _)| m).filter(|&m| m > 1).collect()
        });
        let _ = write!(out, "{:<17}{:>12}{:>12}", "workload", "service $", "m=1 $");
        for m in &ms {
            let _ = write!(out, "{:>10}", format!("m={m}"));
        }
        let _ = writeln!(out, "{:>12}", "of m=2");
        for row in &self.rows {
            let one = row.per_m[0].1;
            let _ = write!(out, "{:<17}{:>12.2}{:>12.2}", row.workload, row.service, one);
            for &(_, psi) in &row.per_m[1..] {
                let _ = write!(out, "{:>9.1}%", 100.0 * (psi / one - 1.0));
            }
            match row.captured() {
                Some(share) => {
                    let _ = writeln!(out, "{:>11.0}%", 100.0 * share);
                }
                None => {
                    let _ = writeln!(out, "{:>12}", "-");
                }
            }
        }
        out
    }
}

/// Run the table: 32 windows and `m` up to 32 under [`Preset::Paper`], 8
/// windows and `m` up to 8 under [`Preset::Fast`].
pub fn windows(preset: Preset) -> WindowsTable {
    let (windows, ms): (usize, &[usize]) = match preset {
        Preset::Paper => (32, &[1, 2, 4, 8, 32]),
        Preset::Fast => (8, &[1, 2, 4, 8]),
    };
    let rows = CELLS
        .iter()
        .map(|&workload| {
            let (topo, catalog, arrivals, cfg) =
                Scenario { cycles: windows, ..Scenario::named(workload) }.build();
            let model = CostModel::per_hop();
            let ctx = SchedCtx::new(&topo, &model, &catalog);
            let (outcomes, report) =
                service_run(&ctx, &arrivals, &cfg, windows).expect("a named cell's plan is valid");
            let service = outcomes.iter().map(|o| o.cost).sum::<f64>() / report.served as f64;
            let per_m =
                ms.iter().map(|&m| (m, batched(&ctx, &arrivals, &cfg, windows, m))).collect();
            WindowsRow { workload, service, per_m }
        })
        .collect();
    WindowsTable { windows, rows }
}

/// Ψ per request of `windows` windows solved `m` at a time: a batch holds
/// every arrival due by its last window's start.
fn batched(
    ctx: &SchedCtx<'_>,
    arrivals: &[Arrival],
    cfg: &ServiceConfig,
    windows: usize,
    m: usize,
) -> f64 {
    let mut book = CommittedBook::new(ctx.topo);
    let (mut next, mut psi, mut requests) = (0, 0.0, 0);
    for first_window in (0..windows).step_by(m) {
        let last_window = (first_window + m).min(windows) - 1;
        let due = last_window as f64 * cfg.horizon;
        let from = next;
        while next < arrivals.len() && arrivals[next].at <= due {
            next += 1;
        }
        let batch = RequestBatch::new(arrivals[from..next].iter().map(|a| a.request).collect());
        book.evict_expired(first_window as f64 * cfg.horizon);
        let mut out = shard_solve_seeded(ctx, &batch, &cfg.shard, book.ledger());
        book.absorb(ctx, &mut out.sorp.schedule, None);
        psi += out.sorp.cost;
        requests += batch.len();
    }
    psi / requests as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captured_share_reads_the_m2_bound() {
        let row = WindowsRow { workload: "x", service: 90.0, per_m: vec![(1, 100.0), (2, 80.0)] };
        assert_eq!(row.captured(), Some(0.5));
        let flat = WindowsRow { per_m: vec![(1, 100.0), (2, 101.0)], ..row.clone() };
        assert_eq!(flat.captured(), None, "a bound that saves nothing has no share");
        let text = WindowsTable { windows: 2, rows: vec![row] }.render();
        assert!(text.contains("m=2") && text.contains("50%"), "{text}");
    }
}
