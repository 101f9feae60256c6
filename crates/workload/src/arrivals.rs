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
//!
//! # One pass, no scratch
//!
//! The trace is ordered by `(at, start, video, user)` without a
//! whole-trace sort. It is reserved at its exact length, and each cycle's
//! draw is shifted onto its window and sorted in place as one block:
//!
//! - Within a block `at = max(start − H, 0)` is monotone in `start`, so
//!   the packed key (start's total-order bits, video, user) orders the
//!   block exactly as `(at, start, video, user)` does. The key covers
//!   every field, so equal keys are equal arrivals and an unstable sort
//!   is exact.
//! - Blocks concatenate in order: cycle `k ≥ 1` lies in
//!   `at ∈ [(k−1)·H, k·H)`, and cycle 0, clamped to `at = 0`, has every
//!   start below `H`, while a cycle-1 arrival at `at = 0` starts at `H`
//!   or later.
//! - **The rounding hole.** `r.start + k·H` can round up to `(k+1)·H`
//!   (and a draw's start can itself round up to `H`), so a block's last
//!   arrival can tie the next block's first on `at`, and possibly on
//!   `start`, and then sort after it. Each boundary is compared once as
//!   its block lands; if any is out of order the finished trace gets one
//!   in-place `sort_unstable` under the full comparator.

use crate::requests::{draw_regional_requests, draw_requests};
use crate::RequestConfig;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
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
    /// ([`crate::generate_regional_requests`]) instead of the global one.
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
    let per_cycle = topo.user_count() * cfg.request.requests_per_user;
    let len = (0..cfg.cycles).map(|k| per_cycle * cfg.multiplier(k)).sum();
    let blocks = (0..cfg.cycles).map(|k| {
        let cycle_cfg = RequestConfig {
            requests_per_user: cfg.request.requests_per_user * cfg.multiplier(k),
            ..cfg.request.clone()
        };
        let cycle_seed = seed ^ (k as u64 + 1);
        let draw = if cfg.regional {
            draw_regional_requests(topo, catalog, &cycle_cfg, cycle_seed)
        } else {
            draw_requests(topo, catalog, &cycle_cfg, cycle_seed)
        };
        draw.into_iter().map(move |r| {
            let start = r.start + k as f64 * horizon;
            Arrival { at: (start - horizon).max(0.0), request: Request { start, ..r } }
        })
    });
    concat_blocks(blocks, len)
}

/// The trace's order: `at`, then start, video and user. Two arrivals
/// compare equal only when every field is bit-identical.
fn arrival_order(a: &Arrival, b: &Arrival) -> Ordering {
    a.at.total_cmp(&b.at)
        .then(a.request.start.total_cmp(&b.request.start))
        .then(a.request.video.cmp(&b.request.video))
        .then(a.request.user.cmp(&b.request.user))
}

/// [`arrival_order`] packed into one integer for arrivals whose `at` is
/// monotone in their start, as within one cycle's block: start's
/// total-order bits, then video, then user.
fn block_key(a: &Arrival) -> u128 {
    let bits = a.request.start.to_bits();
    // `f64::total_cmp`'s map to an order-preserving unsigned integer.
    let start = bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63));
    (start as u128) << 64 | (a.request.video.0 as u128) << 32 | a.request.user.0 as u128
}

/// Concatenate per-cycle blocks into one trace of exactly `len` arrivals
/// in [`arrival_order`], sorting each block in place as it lands and the
/// whole trace only when some boundary is out of order (the module doc's
/// rounding hole).
fn concat_blocks<B: IntoIterator<Item = Arrival>>(
    blocks: impl IntoIterator<Item = B>,
    len: usize,
) -> Vec<Arrival> {
    let mut trace = Vec::with_capacity(len);
    let mut in_order = true;
    for block in blocks {
        let from = trace.len();
        trace.extend(block);
        trace[from..].sort_unstable_by_key(block_key);
        if from > 0 && from < trace.len() {
            in_order &= arrival_order(&trace[from - 1], &trace[from]).is_le();
        }
    }
    if !in_order {
        trace.sort_unstable_by(arrival_order);
    }
    trace
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the whole-trace sort_by is the oracle
mod tests {
    use super::*;
    use crate::{generate_catalog, generate_requests, CatalogConfig};
    use vod_cost_model::{RequestBatch, VideoId};
    use vod_topology::builders::{paper_fig4, PaperFig4Config};
    use vod_topology::UserId;

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

    fn arrival(at: Secs, start: Secs, video: u32, user: u32) -> Arrival {
        Arrival { at, request: Request { user: UserId(user), video: VideoId(video), start } }
    }

    #[test]
    fn a_boundary_tie_on_at_is_mended_by_one_whole_sort() {
        // H = 10. Block 0's last start rounded up onto H, so it ties block
        // 1's first arrival on `at` and on `start` and sorts after it on
        // video; block-wise sorting alone leaves the pair out of order.
        let block0 = vec![arrival(0.0, 10.0, 5, 0), arrival(0.0, 3.0, 1, 1)];
        let block1 = vec![arrival(5.0, 15.0, 0, 2), arrival(0.0, 10.0, 2, 3)];
        let mut want = [block0.clone(), block1.clone()].concat();
        want.sort_by(arrival_order);
        let mut blockwise = Vec::new();
        for mut block in [block0.clone(), block1.clone()] {
            block.sort_unstable_by_key(block_key);
            blockwise.extend(block);
        }
        assert_ne!(blockwise, want, "the hand-built boundary must be out of order");
        assert_eq!(concat_blocks([block0, block1], 4), want);

        // The same `at` and start with the smaller video first, and a tie
        // on user alone: already in order, and kept as it is.
        let block0 = vec![arrival(0.0, 10.0, 2, 3), arrival(0.0, 3.0, 1, 1)];
        let block1 = vec![arrival(0.0, 10.0, 2, 4), arrival(0.0, 10.0, 5, 0)];
        let got = concat_blocks([block0, block1], 4);
        assert_eq!(
            got,
            [
                arrival(0.0, 3.0, 1, 1),
                arrival(0.0, 10.0, 2, 3),
                arrival(0.0, 10.0, 2, 4),
                arrival(0.0, 10.0, 5, 0)
            ]
        );
    }

    #[test]
    fn the_block_key_orders_like_the_comparator_within_a_cycle() {
        let horizon: Secs = 10.0;
        let starts = [0.0, 1e-300, 2.5, 9.999, 10.0, 10.0 + 1e-12, 17.0, 19.999_999];
        let mut block: Vec<Arrival> = starts
            .iter()
            .flat_map(|&start| {
                [(0, 1), (0, 0), (3, 0)]
                    .map(|(video, user)| arrival((start - horizon).max(0.0), start, video, user))
            })
            .collect();
        block.reverse();
        let mut by_key = block.clone();
        by_key.sort_unstable_by_key(block_key);
        block.sort_by(arrival_order);
        assert_eq!(by_key, block);
    }
}
