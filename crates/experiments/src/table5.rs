//! Table 5: performance comparison of the four heat metrics (paper §5.5).
//!
//! The paper runs 785 combinations of network charging rate, storage
//! charging rate, intermediate storage size, and access pattern; 622 of
//! them incur a cost change from overflow resolution. Among those, method
//! 2 (Eq. 9) produces the cheapest schedule in 63 %, method 4 (Eq. 11) in
//! 70 %, and one of the two in 98 % of the cases; the resolution-induced
//! cost increase is 12 % on average and 34 % worst-case.
//!
//! We sweep the full cross product of Table 4's attribute grids —
//! 8 nrates × 6 srates × 4 sizes × 4 αs = 768 combinations (the paper's
//! extra 17 combinations are not specified; documented deviation in
//! DESIGN.md) — and report the same statistics.

use crate::{EnvParams, Preset};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use vod_core::HeatMetric;
use vod_parallel::parallel_map;

/// Aggregate statistics mirroring the paper's Table 5.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table5Result {
    /// Total parameter combinations evaluated (paper: 785).
    pub total_cases: usize,
    /// Combinations where overflow resolution changed the cost
    /// (paper: 622).
    pub changed_cases: usize,
    /// Of the changed cases: method k (1-based, Eqs. 8–11) achieved the
    /// minimum cost (ties count for every tied method).
    pub best_counts: [usize; 4],
    /// Of the changed cases: method 2 or method 4 achieved the minimum
    /// (paper: 98 %).
    pub m2_or_m4_best: usize,
    /// Of the changed cases: method k was *strictly* cheaper than every
    /// other method (no ties counted).
    pub strict_best_counts: [usize; 4],
    /// Mean relative cost increase from resolution under method 4
    /// (paper: 12 % average).
    pub avg_rel_increase: f64,
    /// Worst relative cost increase under method 4 (paper: 34 %).
    pub worst_rel_increase: f64,
}

impl Table5Result {
    /// Share of changed cases where method `k` (1-based) was best.
    pub fn best_share(&self, k: usize) -> f64 {
        if self.changed_cases == 0 {
            0.0
        } else {
            self.best_counts[k - 1] as f64 / self.changed_cases as f64
        }
    }

    /// Share of changed cases where method 2 or 4 was best.
    pub fn m2_or_m4_share(&self) -> f64 {
        if self.changed_cases == 0 {
            0.0
        } else {
            self.m2_or_m4_best as f64 / self.changed_cases as f64
        }
    }

    /// Render in the paper's Table 5 layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Table 5 — performance of each heat metric");
        let _ = writeln!(out, "{:<44}{:>10}", "Total Number of Cases", self.total_cases);
        let _ = writeln!(out, "{:<44}{:>10}", "dCost by overflow resolution", self.changed_cases);
        for k in [2usize, 4] {
            let _ = writeln!(
                out,
                "{:<44}{:>4} out of {} ({:.0} %)",
                format!("Method {k} in Eq.({})", if k == 2 { 9 } else { 11 }),
                self.best_counts[k - 1],
                self.changed_cases,
                100.0 * self.best_share(k),
            );
        }
        let _ = writeln!(
            out,
            "{:<44}{:>4} out of {} ({:.0} %)",
            "Method 2 or Method 4",
            self.m2_or_m4_best,
            self.changed_cases,
            100.0 * self.m2_or_m4_share(),
        );
        let _ = writeln!(
            out,
            "Resolution cost increase (method 4): avg {:.1} %, worst {:.1} %",
            100.0 * self.avg_rel_increase,
            100.0 * self.worst_rel_increase,
        );
        let _ = writeln!(
            out,
            "(ties counted: m1 {} m2 {} m3 {} m4 {})",
            self.best_counts[0], self.best_counts[1], self.best_counts[2], self.best_counts[3]
        );
        let _ = writeln!(
            out,
            "(strict wins:  m1 {} m2 {} m3 {} m4 {})",
            self.strict_best_counts[0],
            self.strict_best_counts[1],
            self.strict_best_counts[2],
            self.strict_best_counts[3]
        );
        out
    }
}

/// Attribute grids for the sweep.
fn grid(preset: Preset, requests_per_user: Option<usize>) -> Vec<EnvParams> {
    let mut base = EnvParams::for_preset(preset);
    if let Some(rpu) = requests_per_user {
        base.requests_per_user = rpu;
    }
    let (nrates, srates, caps, alphas): (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) = match preset {
        Preset::Paper => (
            (3..=10).map(|k| k as f64 * 100.0).collect(),
            (3..=8).map(|k| k as f64).collect(),
            vec![5.0, 8.0, 11.0, 14.0],
            vec![0.1, 0.271, 0.5, 0.7],
        ),
        Preset::Fast => (vec![300.0, 700.0], vec![3.0, 8.0], vec![5.0, 8.0], vec![0.1, 0.5]),
    };
    let mut cells = Vec::new();
    for &nrate in &nrates {
        for &srate in &srates {
            for &cap in &caps {
                for &alpha in &alphas {
                    cells.push(EnvParams {
                        nrate_per_gb: nrate,
                        srate_per_gb_hour: srate,
                        capacity_gb: cap,
                        zipf_alpha: alpha,
                        ..base.clone()
                    });
                }
            }
        }
    }
    cells
}

/// Run the heat-metric comparison sweep at the preset's default request
/// density.
pub fn run(preset: Preset) -> Table5Result {
    run_with(preset, None)
}

/// Run the sweep with an explicit per-user request count. The paper does
/// not state this workload attribute; 2 reproduces the paper's count of
/// resolution-affected combinations (624 vs the paper's 622), while 3
/// reproduces its preference for method 4 over method 2 (see
/// EXPERIMENTS.md for both recorded regimes).
pub fn run_with(preset: Preset, requests_per_user: Option<usize>) -> Table5Result {
    let cells = grid(preset, requests_per_user);
    let per_cell = parallel_map(&cells, crate::env::evaluate_cell_all_metrics);

    let mut result = Table5Result {
        total_cases: cells.len(),
        changed_cases: 0,
        best_counts: [0; 4],
        m2_or_m4_best: 0,
        strict_best_counts: [0; 4],
        avg_rel_increase: 0.0,
        worst_rel_increase: 0.0,
    };
    let mut rel_sum = 0.0;
    for metrics in &per_cell {
        // "Changed" = overflow resolution altered the cost under at least
        // one method (mirrors the paper's ΔCost ≠ 0 classification).
        let changed =
            metrics.iter().any(|m| (m.two_phase - m.phase1).abs() > 1e-6 * m.phase1.max(1.0));
        if !changed {
            continue;
        }
        result.changed_cases += 1;
        let costs: Vec<f64> = metrics.iter().map(|m| m.two_phase).collect();
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let tol = 1e-6 * min.max(1.0);
        let mut any24 = false;
        for (k, &c) in costs.iter().enumerate() {
            if c <= min + tol {
                result.best_counts[k] += 1;
                if k == 1 || k == 3 {
                    any24 = true;
                }
            }
        }
        if any24 {
            result.m2_or_m4_best += 1;
        }
        // Strict winner, if any.
        let winners: Vec<usize> = (0..4).filter(|&k| costs[k] <= min + tol).collect();
        if winners.len() == 1 {
            result.strict_best_counts[winners[0]] += 1;
        }
        let m4 = &metrics[HeatMetric::TimeSpacePerCost.method_number() - 1];
        rel_sum += m4.rel_increase;
        result.worst_rel_increase = result.worst_rel_increase.max(m4.rel_increase);
    }
    if result.changed_cases > 0 {
        result.avg_rel_increase = rel_sum / result.changed_cases as f64;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_sweep_produces_consistent_statistics() {
        let r = run(Preset::Fast);
        assert_eq!(r.total_cases, 16);
        assert!(r.changed_cases <= r.total_cases);
        for k in 1..=4 {
            assert!(r.best_counts[k - 1] <= r.changed_cases);
        }
        assert!(r.m2_or_m4_best <= r.changed_cases);
        // Some metric is always best among changed cases.
        if r.changed_cases > 0 {
            assert!(r.best_counts.iter().sum::<usize>() >= r.changed_cases);
        }
        // Strict wins are a subset of tied wins, and at most one per case.
        for k in 0..4 {
            assert!(r.strict_best_counts[k] <= r.best_counts[k]);
        }
        assert!(r.strict_best_counts.iter().sum::<usize>() <= r.changed_cases);
        assert!(r.worst_rel_increase >= r.avg_rel_increase || r.changed_cases == 0);
        assert!(r.avg_rel_increase >= 0.0);
    }

    #[test]
    fn tight_capacity_cells_do_change() {
        // 5 GB stores with 190 requests must trigger resolution for at
        // least one fast-grid cell.
        let r = run(Preset::Fast);
        assert!(r.changed_cases > 0, "no cell saw overflow resolution");
    }

    #[test]
    fn render_mentions_every_headline_number() {
        let r = run(Preset::Fast);
        let s = r.render();
        assert!(s.contains("Total Number of Cases"));
        assert!(s.contains("Method 2"));
        assert!(s.contains("Method 4"));
        assert!(s.contains("avg"));
    }
}
