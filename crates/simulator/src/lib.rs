//! Discrete-event execution and validation of service schedules.
//!
//! The scheduler crates reason about schedules symbolically; this crate
//! *runs* them. [`simulate`] expands a
//! [`Schedule`](vod_cost_model::Schedule) into a time-ordered event list
//! (stream starts/ends, cache fill begin/complete, residency drain-out),
//! sweeps it while tracking per-storage occupancy and per-link
//! concurrency, and checks the invariants a real deployment would need:
//!
//! * every request receives exactly one delivery, at its reserved start
//!   time, terminating at the requesting user's local storage;
//! * every transfer's route exists hop-by-hop in the topology;
//! * every stream's source actually holds the data when the stream starts
//!   (it is the warehouse, or a cache whose residency covers the start);
//! * every residency is fed by a stream that passes its storage at the
//!   caching start time, arriving from the residency's declared source;
//! * (optionally) storage occupancy never exceeds capacity and link
//!   concurrency never exceeds declared bandwidth;
//! * the cost model's closed-form Ψ matches the resource-time integrals
//!   measured by the replay.
//!
//! The result is a [`SimReport`] of metrics plus a list of
//! [`Violation`]s; a schedule out of `sorp_solve` must produce none (this
//! is asserted across the integration and property test suites).
//!
//! [`simulate_with_faults`] additionally merges a deterministic
//! [`FaultPlan`] (timed node outages, link failures, bandwidth
//! degradations) into the event list and reports exactly which streams
//! and cached copies each fault breaks — the ground truth the repair
//! scheduler in `vod-core` is measured against.
//!
//! # Example
//!
//! ```
//! use vod_topology::builders::{paper_fig4, PaperFig4Config};
//! use vod_cost_model::CostModel;
//! use vod_workload::{CatalogConfig, RequestConfig, Workload};
//! use vod_core::{ivsp_solve, sorp_solve, SchedCtx, SorpConfig};
//! use vod_simulator::{simulate, SimOptions};
//!
//! let topo = paper_fig4(&PaperFig4Config::default());
//! let wl = Workload::generate(&topo, &CatalogConfig::small(50), &RequestConfig::paper(), 7);
//! let model = CostModel::per_hop();
//! let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
//! let cfg = SorpConfig::default();
//! let resolved = sorp_solve(&ctx, ivsp_solve(&ctx, &wl.requests, cfg.policy), &cfg, None);
//!
//! let report = simulate(&topo, &wl.catalog, &model, &resolved.schedule,
//!                       &SimOptions::strict(&wl.requests));
//! assert!(report.is_valid(), "violations: {:?}", report.violations);
//! assert_eq!(report.metrics.deliveries, 190);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
mod engine;
mod event;
pub mod render;
mod report;
pub mod service;
mod validate;

pub use engine::{simulate, simulate_with_faults, SimOptions};
pub use event::{Event, EventKind};
pub use report::{Metrics, SimReport, Violation};
pub use service::{check_service_accounting, cycle_is_clean, replay_service_cycle};
// Re-exported so replay callers can build fault plans without a separate
// dependency on the fault-model crate.
pub use vod_faults::{Fault, FaultConfig, FaultError, FaultImpact, FaultPlan};
