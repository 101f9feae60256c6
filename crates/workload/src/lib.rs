//! Workload substrate for the distributed video retrieval service
//! paradigm: video catalogs and Video-On-Reservation request batches with
//! Zipf-distributed popularity (paper §5, Table 4).
//!
//! The paper evaluates on 500 video files of ≈3.3 GB average size, with
//! user access following a Zipf distribution in the **Dan–Sitaram
//! parameterisation** — `p_i ∝ 1 / i^(1−α)` — where *larger α means a less
//! biased (more uniform) pattern*, `α = 0` is the classic Zipf law, and
//! `α = 0.271` fits commercial video-rental data (Dan & Sitaram 1993, cited
//! in §5.4). Each of the 19 neighborhoods holds 10 users whose reservation
//! times fall inside one scheduling cycle.
//!
//! Everything is generated from an explicit seed through a deterministic
//! [`SplitMix64`] generator, so every experiment in `vod-experiments` is
//! bit-reproducible.
//!
//! # Example
//!
//! ```
//! use vod_topology::builders::{paper_fig4, PaperFig4Config};
//! use vod_workload::{CatalogConfig, RequestConfig, Workload};
//!
//! let topo = paper_fig4(&PaperFig4Config::default());
//! let wl = Workload::generate(&topo, &CatalogConfig::paper(), &RequestConfig::paper(), 42);
//! assert_eq!(wl.catalog.len(), 500);
//! assert_eq!(wl.requests.len(), 190); // 19 neighborhoods × 10 users
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The rules in clippy.toml hold for one module each, denied below.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

#[deny(clippy::disallowed_methods)]
mod arrivals;
mod catalog;
mod requests;
#[deny(clippy::disallowed_types)]
mod shard;
pub mod trace;
mod zipf;

pub use arrivals::{generate_arrivals, Arrival, ArrivalConfig};
pub use catalog::{generate_catalog, CatalogConfig};
pub use requests::{generate_regional_requests, generate_requests, ArrivalPattern, RequestConfig};
pub use shard::{partition_requests, ShardSpec, ShardStrategy};
/// The seeded generator behind every draw here; it lives in `vod-topology`,
/// the lowest crate that draws from it.
pub use vod_topology::SplitMix64;
pub use zipf::Zipf;

use vod_cost_model::{Catalog, RequestBatch};
use vod_topology::Topology;

/// A complete generated workload: the catalog plus one scheduling cycle's
/// request batch.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The warehouse's video catalog.
    pub catalog: Catalog,
    /// The requests collected for the cycle, grouped per video.
    pub requests: RequestBatch,
}

impl Workload {
    /// Generate a workload for `topo` from a seed. The catalog and the
    /// request pattern use independent sub-streams of the seed, so varying
    /// request parameters never perturbs the catalog.
    pub fn generate(
        topo: &Topology,
        catalog_cfg: &CatalogConfig,
        request_cfg: &RequestConfig,
        seed: u64,
    ) -> Self {
        let catalog = generate_catalog(catalog_cfg, seed ^ 0xCA7A_10C0_FFEE_0001);
        let requests = generate_requests(topo, &catalog, request_cfg, seed ^ 0x5EED_0000_0000_0002);
        Self { catalog, requests }
    }
}
