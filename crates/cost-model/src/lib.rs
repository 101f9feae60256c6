//! Service-schedule data model and cost model Ψ from Won & Srivastava,
//! "Distributed Service Paradigm for Remote Video Retrieval Request"
//! (HPDC 1997), §2.
//!
//! A **service schedule** `S` consists of
//!
//! * network transfer information `D = {d_1, …}` — [`Transfer`]: a video
//!   stream flowing along a route of storage nodes starting at a given
//!   time, and
//! * file residency information `C = {c_1, …}` — [`Residency`]: a video
//!   temporarily cached at an intermediate storage over an interval
//!   `[t_s, t_f]`, filled by copying blocks from an on-going stream.
//!
//! The mapping Ψ (Eq. 1) prices a schedule in dollars:
//!
//! * network (Eq. 4): amortized bytes `P·B` (playback length × bandwidth)
//!   times the summed per-hop charging rate of the route (or an end-to-end
//!   rate),
//! * storage (Eqs. 2/3): the integral of the residency's space-occupancy
//!   function `f_c(t)` (Eqs. 6/7) times the storage's charging rate, which
//!   closes to `srate · size · γ · ((t_f − t_s) + P/2)` with `γ = 1` for
//!   long residencies (`t_f − t_s ≥ P`) and `γ = (t_f − t_s)/P` for short
//!   ones.
//!
//! The golden tests in [`cost`](CostModel) reproduce the paper's Fig. 2
//! worked example to the cent (Ψ(S1) = $259.20, Ψ(S2) = $138.975),
//! validating this reconstruction of the (OCR-garbled) short-residency
//! formula.
//!
//! # Example
//!
//! ```
//! use vod_topology::{builders, units, RouteTable, UserId};
//! use vod_cost_model::{CostModel, Request, Schedule, Transfer, Video, VideoId, VideoSchedule};
//!
//! // The Fig. 2 layout: VW - IS1 - IS2, rates chosen so costs are dollars.
//! let topo = builders::paper_fig2(16.0, 8.0, 1.0, 5.0);
//! let routes = RouteTable::build(&topo);
//! let video = Video::new(VideoId(0), units::gb(2.5), units::minutes(90.0), units::mbps(6.0));
//!
//! // A single user streaming directly from the warehouse to IS1.
//! let vw = topo.warehouse();
//! let is1 = topo.storages().next().unwrap();
//! let u1 = Request { user: UserId(0), video: video.id, start: 3600.0 };
//! let t = Transfer::for_user(&u1, routes.path(vw, is1));
//! let mut vs = VideoSchedule::new(video.id);
//! vs.transfers.push(t);
//! let model = CostModel::per_hop();
//! let cost = model.video_schedule_cost(&topo, &video, &vs);
//! assert!((cost - 64.8).abs() < 1e-9); // $64.80, as in the paper
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// clippy.toml's rules hold for production code; tests walk routes freely.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

mod cost;
mod request;
mod schedule;
mod space;
mod video;

pub use cost::{ChargingBasis, CostModel};
pub use request::{Request, RequestBatch};
pub use schedule::{Residency, Schedule, Transfer, VideoSchedule};
pub use space::{BreakDelta, BreakDeltas, SpaceModel, SpaceProfile};
pub use video::{Catalog, Video, VideoId};

/// Seconds (absolute times and durations). All schedule times share one
/// clock whose origin is the start of the scheduling cycle.
pub type Secs = f64;

/// Dollars, the paper's uniform monetary metric for cost comparison.
pub type Dollars = f64;

/// Bytes, carried as `f64` because space-occupancy is fractional while a
/// cached file drains (Eq. 6).
pub type Bytes = f64;
