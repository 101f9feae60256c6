//! The paper's contribution: the two-phase video delivery scheduler of
//! Won & Srivastava, *"Distributed Service Paradigm for Remote Video
//! Retrieval Request"* (HPDC 1997), §3–4.
//!
//! Given a batch of Video-On-Reservation requests, a topology of charged
//! links and finite intermediate storages, and the cost model Ψ, the
//! scheduler produces a service schedule in two phases:
//!
//! 1. **Individual Video Scheduling** ([`ivsp_solve`], paper Algorithm 1):
//!    each video's requests are scheduled independently by a greedy that,
//!    for every request in chronological order, picks the cheapest of
//!    (a) streaming directly from the warehouse, (b) streaming out of an
//!    existing cached copy (extending its residency), or (c) introducing a
//!    new cache at some intermediate storage, relay-filled from the
//!    warehouse or an existing copy. Capacities are ignored in this phase.
//!
//! 2. **Storage Overflow Resolution** ([`sorp_solve`], paper Table 3):
//!    the per-video schedules are integrated; wherever the summed space
//!    requirement exceeds an intermediate storage's capacity
//!    ([`detect_overflows`]), the resolver repeatedly picks the **victim**
//!    residency whose rescheduling has the largest **heat**
//!    ([`HeatMetric`], Eqs. 8–11) and re-schedules that video with the
//!    **rejective greedy** ([`find_video_schedule`] under [`Constraints`]) —
//!    the same greedy made capacity-aware and forbidden to cache at the
//!    overflowing storage during the overflow window.
//!
//! Each layer has one entry point: [`find_video_schedule`] for one
//! video, [`ivsp_solve`] for phase 1 (it prices as it schedules, so its
//! [`PricedSchedule`] feeds phase 2 directly), [`sorp_solve`] for phase
//! 2 over an optional base ledger, [`shard_solve_seeded`] for a sharded
//! batch and [`ServiceLoop`] / [`service_run`] for a running service.
//!
//! The [`baselines`] module provides the paper's comparator (the
//! *network-only system*) and additional reference policies; the
//! [`bandwidth_aware`] module implements the paper's stated future-work
//! extension (link bandwidth constraints) over the link rows of the same
//! [`StorageLedger`] ([`detect_link_overloads`]).
//!
//! # Example
//!
//! ```
//! use vod_topology::builders::{paper_fig4, PaperFig4Config};
//! use vod_cost_model::CostModel;
//! use vod_workload::{CatalogConfig, RequestConfig, Workload};
//! use vod_core::{ivsp_solve, sorp_solve, SchedCtx, SorpConfig};
//!
//! let topo = paper_fig4(&PaperFig4Config::default());
//! let wl = Workload::generate(&topo, &CatalogConfig::paper(), &RequestConfig::paper(), 1);
//! let model = CostModel::per_hop();
//! let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
//!
//! let cfg = SorpConfig::default();
//! let individual = ivsp_solve(&ctx, &wl.requests, cfg.policy);
//! let outcome = sorp_solve(&ctx, individual, &cfg, None);
//! assert!(outcome.overflow_free, "resolution must clear every overflow");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// clippy.toml's rules hold for production code; tests walk routes freely.
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod bandwidth_aware;
pub mod baselines;
mod capacity;
mod ctx;
pub mod exact;
mod frozen;
mod greedy;
pub mod heat;
mod overflow;
mod pricing;
mod repair;
pub mod service;
mod shard;
mod sorp;
mod warm;

pub use bandwidth_aware::{bandwidth_aware_solve, BandwidthAwareOutcome};
pub use capacity::StorageLedger;
pub use ctx::SchedCtx;
pub use exact::{find_optimal_video_schedule, ExactError, ExactOutcome};
#[doc(hidden)]
pub use frozen::{ivsp_solve_priced_with, sorp_solve_priced};
pub use greedy::{find_video_schedule, ivsp_solve, Constraints, GreedyPolicy};
pub use heat::HeatMetric;
pub use overflow::{detect_link_overloads, detect_overflows, Interval, LinkOverload, Overflow};
pub use pricing::PricedSchedule;
pub use repair::{repair_schedule, DelayRecord, RepairOutcome};
pub use service::{
    service_run, BackoffPolicy, IntakeError, Rung, ServiceConfig, ServiceCycleOutcome,
    ServiceCycleStats, ServiceError, ServiceLoop, ServiceReport,
};
pub use shard::{shard_solve, shard_solve_seeded, ShardConfig, ShardOutcome};
pub use sorp::{sorp_solve, SorpConfig, SorpOutcome, VictimRecord, EXTERNAL_OCCUPANCY};
pub use vod_parallel::ExecMode;
pub use warm::{CommittedBook, WarmStats};

/// What the equivalence oracles (`vod-oracles`) and the property tests
/// reach into: the traced rejective greedy, the admission cursor and its
/// trace, the commit deltas, the heat tie rule, the overflow set, the
/// degraded rungs' rejective pass and SORP followed by the release sweep.
/// Not a stable API — these follow the solver's internals.
pub mod audit {
    pub use crate::capacity::{AdmissionCheck, LedgerCursor, LedgerDelta, TrialTrace};
    pub use crate::greedy::reschedule_video_traced;
    pub use crate::overflow::overflow_set;
    pub use crate::sorp::{heats_tie, rejective_pass, sorp_solve_released, Release};
}
