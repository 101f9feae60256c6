//! Per-cycle report types of a service run: what `vodx cycles` and
//! `vodx service` print, one row per cycle.
//!
//! The paper schedules one cycle's request batch in isolation; a deployed
//! service runs cycle after cycle, and copies cached late in cycle `k`
//! are still draining when cycle `k+1` starts. [`crate::service`] runs
//! `N` consecutive cycles through `vod_core::ServiceLoop`, whose warm
//! state carries every earlier cycle's residual occupancy into the next
//! solve, so capacity commitments cross the cycle boundary exactly as
//! they would on real disks. Nothing in this module runs a cycle.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use vod_core::{ServiceCycleStats, WarmStats};

/// Per-cycle report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CycleReport {
    /// Cycle index (0-based).
    pub cycle: usize,
    /// Requests served this cycle.
    pub requests: usize,
    /// Ψ of this cycle's resolved schedule.
    pub cost: f64,
    /// Relative cost increase from overflow resolution this cycle.
    pub rel_increase: f64,
    /// Victims rescheduled this cycle.
    pub victims: usize,
    /// Space still occupied by earlier cycles at this cycle's start, GB.
    pub spillover_gb: f64,
    /// Whether every overflow was resolved (false only if spillover alone
    /// over-commits a storage).
    pub overflow_free: bool,
    /// Warm-start accounting for the cycle; `warm.solve_ns` is the
    /// solve's wall clock.
    pub warm: WarmStats,
    /// Service-frontend accounting for the cycle.
    pub service: ServiceCycleStats,
}

/// Result of a [`crate::service::service_horizon`] run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RollingOutcome {
    /// One report per cycle.
    pub cycles: Vec<CycleReport>,
}

impl RollingOutcome {
    /// Total cost across cycles.
    pub fn total_cost(&self) -> f64 {
        self.cycles.iter().map(|c| c.cost).sum()
    }

    /// Render as an aligned table. Every cycle gets a row — including
    /// idle ones with zero requests (the service loop's idle ticks) —
    /// with the solve time in milliseconds and a trailing rung/shed
    /// section.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Rolling-horizon operation ({} cycles)", self.cycles.len());
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
        for c in &self.cycles {
            let _ = writeln!(
                out,
                "{:>7}{:>10}{:>14.0}{:>9.1}%{:>10}{:>14.2}{:>8}{:>8}{:>11.2}{:>7}{:>9}{:>7}{:>7}{:>7}{:>7}",
                c.cycle,
                c.requests,
                c.cost,
                100.0 * c.rel_increase,
                c.victims,
                c.spillover_gb,
                c.warm.shards_used,
                c.warm.trials_hit,
                c.warm.solve_ns as f64 / 1e6,
                if c.overflow_free { "yes" } else { "NO" },
                c.service.rung.label(),
                c.service.shed,
                c.service.deferred,
                c.service.dropped,
                c.service.queue_depth
            );
        }
        let _ = writeln!(out, "total: ${:.0}", self.total_cost());
        out
    }
}
