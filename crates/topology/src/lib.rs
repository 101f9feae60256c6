//! Network and storage topology substrate for the distributed video
//! retrieval service paradigm (Won & Srivastava, HPDC 1997).
//!
//! The service environment (paper Fig. 1) is a graph containing exactly one
//! **video warehouse** (`VW`, the permanent archive of every video file) and
//! a number of **intermediate storages** (`IS`), each of which is *local* to
//! a neighborhood of users. Edges carry a **network charging rate**
//! (`nrate`, $/byte) and intermediate storages carry a **storage charging
//! rate** (`srate`, $/(byte·s)) plus a finite **capacity** (bytes).
//!
//! This crate provides:
//!
//! * the graph model ([`Topology`], [`TopologyBuilder`]),
//! * cheapest-route computation over per-byte charging rates
//!   ([`RouteTable`]),
//! * deterministic topology generators, including a faithful stand-in for
//!   the paper's 20-node evaluation network ([`builders::paper_fig4`]),
//! * the seeded [`SplitMix64`] generator every random draw in the
//!   workspace takes (networks, workloads, fault plans).
//!
//! # Units
//!
//! All internal quantities are SI-flavoured base units: bytes, seconds,
//! dollars. Convenience conversions for the paper's "charging units"
//! ($/GB, $/(GB·h)) live in [`units`].
//!
//! # Example
//!
//! ```
//! use vod_topology::{builders, units};
//!
//! // The paper's experimental network: 1 warehouse + 19 intermediate
//! // storages, 10 users per neighborhood.
//! let topo = builders::paper_fig4(&builders::PaperFig4Config::default());
//! assert_eq!(topo.node_count(), 20);
//! assert_eq!(topo.user_count(), 190);
//!
//! let routes = vod_topology::RouteTable::build(&topo);
//! let vw = topo.warehouse();
//! let is = topo.storages().next().unwrap();
//! // Routing a byte from the warehouse to any storage has a finite cost.
//! assert!(routes.rate(vw, is).is_finite());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builders;
pub mod dot;
mod error;
mod graph;
mod ids;
mod rng;
mod routing;
pub mod units;

pub use error::TopologyError;
pub use graph::{Edge, NodeInfo, Topology, TopologyBuilder, User};
pub use ids::{NodeId, NodeKind, UserId};
pub use rng::SplitMix64;
pub use routing::{Route, RouteTable};
