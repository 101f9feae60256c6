//! Arrival streams: the request batches of [`crate::generate_requests`]
//! unrolled into a time-ordered trace of *when each reservation is
//! offered to the service*, one horizon ahead of its reserved start.
//!
//! The service frontend (`vod_core::service`) consumes this stream and
//! cuts its own cycles. With a burst multiplier of 1 everywhere the
//! reservations falling in service window `k` are exactly
//! [`crate::generate_requests`]' draw under seed `seed ^ (k + 1)`,
//! shifted onto `[k·H, (k+1)·H)` — the per-cycle batch every paper
//! experiment schedules — which is what makes the infinite-budget
//! service run bit-identical to solving those batches one by one.

use crate::{generate_regional_requests, generate_requests, RequestConfig};
use serde::{Deserialize, Serialize};
use vod_cost_model::{Catalog, Request, Secs};
use vod_topology::Topology;

/// One arriving reservation: offered to intake at `at`, reserved for
/// `request.start` (absolute simulation time, one horizon later).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Arrival {
    /// When the request reaches the service's intake queue.
    pub at: Secs,
    /// The reservation itself, start already shifted into its cycle's
    /// absolute window.
    pub request: Request,
}

/// Parameters of an arrival trace.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ArrivalConfig {
    /// Per-cycle request generation parameters (horizon, skew, base
    /// requests per user, arrival pattern within the cycle).
    pub request: RequestConfig,
    /// Number of cycles the trace spans.
    pub cycles: usize,
    /// Draw each cycle from the regional-catalog workload
    /// ([`generate_regional_requests`]) instead of the global one.
    pub regional: bool,
    /// Overload bursts: `(cycle, multiplier)` pairs scaling that cycle's
    /// requests-per-user. Unlisted cycles run at the base rate; a 4×
    /// entry models a 4×-over-capacity burst.
    pub burst: Vec<(usize, usize)>,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        Self { request: RequestConfig::paper(), cycles: 1, regional: false, burst: Vec::new() }
    }
}

impl ArrivalConfig {
    /// The requests-per-user multiplier in effect for `cycle`.
    pub fn multiplier(&self, cycle: usize) -> usize {
        self.burst.iter().find(|(c, _)| *c == cycle).map_or(1, |&(_, m)| m.max(1))
    }
}

/// Generate a deterministic arrival trace of `cfg.cycles` cycles.
///
/// Cycle `k` draws `base · multiplier(k)` requests per user with seed
/// `seed ^ (k + 1)`, then shifts every reserved start by `k · horizon`
/// into the cycle's absolute window. A reservation is offered one
/// horizon ahead of its start (clamped to 0 for the first cycle), and
/// the trace is sorted by `(at, start, video, user)`.
pub fn generate_arrivals(
    topo: &Topology,
    catalog: &Catalog,
    cfg: &ArrivalConfig,
    seed: u64,
) -> Vec<Arrival> {
    let horizon = cfg.request.horizon_hours * 3_600.0;
    let mut out = Vec::new();
    for k in 0..cfg.cycles {
        let cycle_cfg = RequestConfig {
            requests_per_user: cfg.request.requests_per_user * cfg.multiplier(k),
            ..cfg.request.clone()
        };
        let cycle_seed = seed ^ (k as u64 + 1);
        let batch = if cfg.regional {
            generate_regional_requests(topo, catalog, &cycle_cfg, cycle_seed)
        } else {
            generate_requests(topo, catalog, &cycle_cfg, cycle_seed)
        };
        for r in batch.iter() {
            let start = r.start + k as f64 * horizon;
            out.push(Arrival { at: (start - horizon).max(0.0), request: Request { start, ..*r } });
        }
    }
    out.sort_by(|a, b| {
        a.at.total_cmp(&b.at)
            .then(a.request.start.total_cmp(&b.request.start))
            .then(a.request.video.cmp(&b.request.video))
            .then(a.request.user.cmp(&b.request.user))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_catalog, CatalogConfig};
    use vod_cost_model::RequestBatch;
    use vod_topology::builders::{paper_fig4, PaperFig4Config};

    fn setup() -> (Topology, Catalog) {
        let topo = paper_fig4(&PaperFig4Config::default());
        let catalog = generate_catalog(&CatalogConfig::small(100), 1);
        (topo, catalog)
    }

    #[test]
    fn trace_is_sorted_and_one_horizon_ahead() {
        let (topo, catalog) = setup();
        let cfg = ArrivalConfig { cycles: 3, ..ArrivalConfig::default() };
        let trace = generate_arrivals(&topo, &catalog, &cfg, 42);
        assert_eq!(trace.len(), 3 * topo.user_count());
        let horizon = 24.0 * 3_600.0;
        assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
        for a in &trace {
            let lead = a.request.start - a.at;
            assert!(
                (lead - horizon).abs() < 1e-6 || (a.at == 0.0 && lead <= horizon),
                "lead time {lead} for start {}",
                a.request.start
            );
        }
    }

    #[test]
    fn unit_multiplier_partitions_into_service_window_batches() {
        let (topo, catalog) = setup();
        let cfg = ArrivalConfig { cycles: 2, ..ArrivalConfig::default() };
        let trace = generate_arrivals(&topo, &catalog, &cfg, 9);
        let horizon = 24.0 * 3_600.0;
        for k in 0..2usize {
            // The per-cycle draw shifted onto service window k…
            let mut expect: Vec<_> =
                generate_requests(&topo, &catalog, &RequestConfig::paper(), 9 ^ (k as u64 + 1))
                    .iter()
                    .map(|r| Request { start: r.start + k as f64 * horizon, ..*r })
                    .collect();
            // …equals the trace's slice of starts in that window.
            let mut got: Vec<_> = trace
                .iter()
                .filter(|a| {
                    a.request.start >= k as f64 * horizon
                        && a.request.start < (k + 1) as f64 * horizon
                })
                .map(|a| a.request)
                .collect();
            let key = |r: &Request| (r.video.0, r.user.0, r.start.to_bits());
            expect.sort_by_key(key);
            got.sort_by_key(key);
            assert_eq!(
                RequestBatch::new(expect).iter().collect::<Vec<_>>(),
                RequestBatch::new(got).iter().collect::<Vec<_>>(),
                "cycle {k} batch mismatch"
            );
        }
    }

    #[test]
    fn burst_scales_the_named_cycle_only() {
        let (topo, catalog) = setup();
        let cfg = ArrivalConfig { cycles: 3, burst: vec![(1, 4)], ..ArrivalConfig::default() };
        let trace = generate_arrivals(&topo, &catalog, &cfg, 5);
        let horizon = 24.0 * 3_600.0;
        let in_cycle = |k: usize| {
            trace
                .iter()
                .filter(|a| {
                    a.request.start >= k as f64 * horizon
                        && a.request.start < (k + 1) as f64 * horizon
                })
                .count()
        };
        let users = topo.user_count();
        assert_eq!(in_cycle(0), users);
        assert_eq!(in_cycle(1), 4 * users);
        assert_eq!(in_cycle(2), users);
    }

    #[test]
    fn deterministic_per_seed() {
        let (topo, catalog) = setup();
        let cfg = ArrivalConfig { cycles: 2, burst: vec![(0, 2)], ..ArrivalConfig::default() };
        let a = generate_arrivals(&topo, &catalog, &cfg, 7);
        let b = generate_arrivals(&topo, &catalog, &cfg, 7);
        assert_eq!(a, b);
        assert_ne!(a, generate_arrivals(&topo, &catalog, &cfg, 8));
    }
}
