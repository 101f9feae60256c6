//! Simulation results: metrics and invariant violations.

use vod_cost_model::{Dollars, Secs, VideoId};
use vod_topology::{NodeId, UserId};

/// An invariant the schedule failed to satisfy under replay.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// A request from the batch received no delivery transfer. A report
    /// lists these in (video, start, user) order — the batch's own
    /// [`vod_cost_model::Request::batch_order`] — once per unanswered copy
    /// of the request, so the same schedule yields the same sequence on
    /// every run.
    MissingDelivery {
        /// The requesting user.
        user: UserId,
        /// The requested video.
        video: VideoId,
        /// The reserved start time.
        start: Secs,
    },
    /// A request received more than one delivery.
    DuplicateDelivery {
        /// The requesting user.
        user: UserId,
        /// The requested video.
        video: VideoId,
    },
    /// A delivery terminates somewhere other than the user's local storage.
    WrongDestination {
        /// The requesting user.
        user: UserId,
        /// Where the stream actually ended.
        got: NodeId,
        /// The user's local storage.
        expected: NodeId,
    },
    /// Two consecutive route nodes are not connected in the topology.
    BrokenRoute {
        /// The video being streamed.
        video: VideoId,
        /// First node of the missing hop.
        from: NodeId,
        /// Second node of the missing hop.
        to: NodeId,
    },
    /// A stream's source is neither the warehouse nor a cache whose
    /// residency covers the stream start.
    SourceHasNoData {
        /// The video being streamed.
        video: VideoId,
        /// The claimed source.
        src: NodeId,
        /// The stream start time.
        start: Secs,
    },
    /// A residency claims to be filled at `start`, but no stream of that
    /// video passes its storage (coming from its declared source) then.
    ResidencyWithoutFeed {
        /// The cached video.
        video: VideoId,
        /// The hosting storage.
        loc: NodeId,
        /// The caching start time.
        start: Secs,
    },
    /// Storage occupancy exceeded capacity during replay.
    CapacityExceeded {
        /// The over-committed storage.
        loc: NodeId,
        /// When the worst excess was observed.
        time: Secs,
        /// Observed occupancy, bytes.
        usage: f64,
        /// The storage's capacity, bytes.
        capacity: f64,
    },
    /// Concurrent streams demanded more than a link's declared bandwidth.
    LinkOverloaded {
        /// Endpoints of the link.
        a: NodeId,
        /// Endpoints of the link.
        b: NodeId,
        /// When the worst excess was observed.
        time: Secs,
        /// Demanded bandwidth, bytes/s.
        demand: f64,
        /// Declared capacity, bytes/s.
        capacity: f64,
    },
    /// The cost model's closed form disagrees with the replay's measured
    /// resource-time integrals.
    CostMismatch {
        /// Ψ from the closed-form cost model.
        model: Dollars,
        /// Ψ recomputed from measured resources.
        measured: Dollars,
    },
    /// A delivery terminates at a user who never reserved that video at
    /// that time: the schedule over-delivers.
    UnrequestedDelivery {
        /// The surprised user.
        user: UserId,
        /// The delivered video.
        video: VideoId,
        /// The delivery's start time.
        start: Secs,
    },
    /// A stream crosses a link while an injected failure has it down —
    /// either the stream started during the failure window or the failure
    /// began mid-stream.
    StreamOnFailedLink {
        /// The video being streamed.
        video: VideoId,
        /// Endpoints of the failed link.
        a: NodeId,
        /// Endpoints of the failed link.
        b: NodeId,
        /// When the stream and the failure first overlapped.
        time: Secs,
    },
    /// A cached copy occupies a storage while an injected outage has the
    /// node down (the copy is lost, or the fill writes into a dead node).
    ResidencyLostToOutage {
        /// The cached video.
        video: VideoId,
        /// The failed storage.
        loc: NodeId,
        /// When the residency and the outage first overlapped.
        time: Secs,
    },
    /// A request was deliberately dropped by degraded-mode repair instead
    /// of being served (graceful degradation, reported not panicked).
    RequestShed {
        /// The unserved user.
        user: UserId,
        /// The requested video.
        video: VideoId,
        /// The reserved start time.
        start: Secs,
    },
    /// A schedule time is NaN or infinite; the replay cannot order events
    /// around it and skips the dynamic checks.
    NonFiniteTime {
        /// The video whose schedule carries the bad time.
        video: VideoId,
        /// The offending value.
        time: Secs,
    },
}

/// Aggregate metrics measured during replay.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Ψ of the schedule per the cost model.
    pub total_cost: Dollars,
    /// Network component of Ψ.
    pub network_cost: Dollars,
    /// Storage component of Ψ.
    pub storage_cost: Dollars,
    /// Number of delivery transfers.
    pub deliveries: usize,
    /// Deliveries whose stream originated at the warehouse.
    pub served_from_warehouse: usize,
    /// Deliveries whose stream originated at an intermediate storage
    /// (cache hits, in CDN terms).
    pub served_from_cache: usize,
    /// Total bytes crossing charged links (`Σ amortized_bytes × hops`).
    pub link_bytes: f64,
    /// Bytes leaving the warehouse (`Σ amortized_bytes` over streams with
    /// a warehouse source).
    pub warehouse_egress_bytes: f64,
    /// Non-degenerate residencies (actual cached copies).
    pub cached_copies: usize,
    /// Degenerate relay residencies (zero space).
    pub relay_points: usize,
    /// Long residencies (duration ≥ playback).
    pub long_residencies: usize,
    /// Peak storage occupancy per node, bytes (indexed by node id).
    pub peak_occupancy: Vec<f64>,
    /// Peak concurrent streams per link (indexed like `Topology::edges`).
    pub peak_link_streams: Vec<usize>,
    /// Events processed during replay.
    pub events_processed: usize,
    /// End of the simulated timeline (last event time).
    pub makespan: Secs,
}

impl Metrics {
    /// Cache hit ratio among deliveries (0 when there are none).
    pub fn cache_hit_ratio(&self) -> f64 {
        if self.deliveries == 0 {
            0.0
        } else {
            self.served_from_cache as f64 / self.deliveries as f64
        }
    }
}

/// The complete result of a simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Measured metrics.
    pub metrics: Metrics,
    /// Every violated invariant (empty for a valid schedule).
    pub violations: Vec<Violation>,
}

impl SimReport {
    /// Whether the replayed schedule satisfied every checked invariant.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hit_ratio_handles_empty() {
        let m = Metrics::default();
        assert_eq!(m.cache_hit_ratio(), 0.0);
        let m = Metrics { deliveries: 4, served_from_cache: 3, ..Metrics::default() };
        assert_eq!(m.cache_hit_ratio(), 0.75);
    }

    #[test]
    fn empty_report_is_valid() {
        assert!(SimReport::default().is_valid());
        let r = SimReport {
            violations: vec![Violation::DuplicateDelivery { user: UserId(0), video: VideoId(0) }],
            ..Default::default()
        };
        assert!(!r.is_valid());
    }
}
