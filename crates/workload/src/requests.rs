//! Video-On-Reservation request batch generation.
//!
//! Each user issues a fixed number of reservations per scheduling cycle
//! (the paper's evaluation has 10 users per neighborhood each requesting
//! once). The requested title is drawn from the [`Zipf`] popularity
//! distribution and the reserved presentation time from an arrival
//! pattern over the cycle horizon.

use crate::{SplitMix64, Zipf};
use serde::{Deserialize, Serialize};
use vod_cost_model::{Catalog, Request, RequestBatch, VideoId};
use vod_topology::{NodeId, Topology};

/// When, within the cycle, reservations fall.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ArrivalPattern {
    /// Uniform over the whole horizon.
    Uniform,
    /// A symmetric triangular peak centred at `peak_fraction` of the
    /// horizon — a simple model of evening prime time.
    Peak {
        /// Centre of the peak as a fraction of the horizon in `[0, 1]`.
        peak_fraction: f64,
    },
}

/// Parameters for request generation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RequestConfig {
    /// Zipf skew α (Dan–Sitaram convention; 0.271 ≈ video rental).
    pub zipf_alpha: f64,
    /// Length of the scheduling cycle in hours.
    pub horizon_hours: f64,
    /// Reservations issued by each user during the cycle.
    pub requests_per_user: usize,
    /// Arrival-time pattern.
    pub arrivals: ArrivalPattern,
}

impl RequestConfig {
    /// Paper baseline: α = 0.271, one request per user, uniform arrivals
    /// over a 24 h cycle.
    pub fn paper() -> Self {
        Self {
            zipf_alpha: 0.271,
            horizon_hours: 24.0,
            requests_per_user: 1,
            arrivals: ArrivalPattern::Uniform,
        }
    }

    /// Same as [`RequestConfig::paper`] with a different skew.
    pub fn with_alpha(alpha: f64) -> Self {
        Self { zipf_alpha: alpha, ..Self::paper() }
    }
}

impl Default for RequestConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Generate one cycle's request batch for every user of `topo`.
///
/// Video popularity ranks are identified with catalog ids (video 0 is the
/// most popular), matching the synthetic methodology of the paper.
pub fn generate_requests(
    topo: &Topology,
    catalog: &Catalog,
    cfg: &RequestConfig,
    seed: u64,
) -> RequestBatch {
    RequestBatch::new(draw_requests(topo, catalog, cfg, seed))
}

/// Generate a batch in which every neighborhood requests only from its
/// own contiguous slice of the catalog — a **regional catalog**
/// workload.
///
/// The catalog is cut into `⌊titles / populated-neighborhoods⌋`-sized
/// slices, one per intermediate storage that hosts users (in node-id
/// order); each user samples Zipf ranks *within their home slice*.
/// Consequently every video is requested from exactly one neighborhood,
/// which is the regime where region-sharded scheduling under a
/// neighborhood-local placement policy decomposes exactly: the sharded
/// solver's Ψ matches the monolithic solver's up to float summation
/// order (see `vod-core`'s shard module for the full contract). Leftover
/// titles beyond the last full slice are never requested.
///
/// Arrival times follow `cfg.arrivals` exactly as in
/// [`generate_requests`].
pub fn generate_regional_requests(
    topo: &Topology,
    catalog: &Catalog,
    cfg: &RequestConfig,
    seed: u64,
) -> RequestBatch {
    RequestBatch::new(draw_regional_requests(topo, catalog, cfg, seed))
}

/// [`generate_requests`]' draw in user order, before any batch sort.
pub(crate) fn draw_requests(
    topo: &Topology,
    catalog: &Catalog,
    cfg: &RequestConfig,
    seed: u64,
) -> Vec<Request> {
    assert!(cfg.horizon_hours > 0.0, "horizon must be positive");
    assert!(!catalog.is_empty(), "catalog must not be empty");
    draw(topo, cfg, seed, catalog.len(), |_| 0)
}

/// [`generate_regional_requests`]' draw in user order, before any batch
/// sort.
pub(crate) fn draw_regional_requests(
    topo: &Topology,
    catalog: &Catalog,
    cfg: &RequestConfig,
    seed: u64,
) -> Vec<Request> {
    assert!(cfg.horizon_hours > 0.0, "horizon must be positive");

    // Populated neighborhoods in node-id order (storages() is sorted).
    let regions: Vec<_> = topo.storages().filter(|&is| !topo.users_at(is).is_empty()).collect();
    assert!(!regions.is_empty(), "topology has no populated neighborhoods");
    let per = catalog.len() / regions.len();
    assert!(
        per >= 1,
        "catalog of {} titles cannot cover {} neighborhoods",
        catalog.len(),
        regions.len()
    );
    let region_of = |is: NodeId| -> usize {
        regions.iter().position(|&r| r == is).expect("user home is a populated storage")
    };
    draw(topo, cfg, seed, per, |home| region_of(home) * per)
}

/// `cfg.requests_per_user` reservations for every user of `topo`, in user
/// order: a Zipf rank over `titles` offset by `first_title(home)`, then a
/// start from `cfg.arrivals`, both from one stream seeded with `seed`.
fn draw(
    topo: &Topology,
    cfg: &RequestConfig,
    seed: u64,
    titles: usize,
    first_title: impl Fn(NodeId) -> usize,
) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed);
    let zipf = Zipf::new(titles, cfg.zipf_alpha);
    let horizon = cfg.horizon_hours * 3_600.0;

    let mut requests = Vec::with_capacity(topo.user_count() * cfg.requests_per_user);
    for user in topo.users() {
        let base = first_title(topo.home_of(user.id));
        for _ in 0..cfg.requests_per_user {
            let video = VideoId((base + zipf.sample(&mut rng)) as u32);
            let start = match cfg.arrivals {
                ArrivalPattern::Uniform => rng.range_f64(0.0, horizon),
                ArrivalPattern::Peak { peak_fraction } => {
                    sample_triangular(&mut rng, horizon, peak_fraction.clamp(0.0, 1.0))
                }
            };
            requests.push(Request { user: user.id, video, start });
        }
    }
    requests
}

/// Triangular distribution on `[0, horizon]` with mode at
/// `peak_fraction · horizon` (inverse-CDF sampling).
fn sample_triangular(rng: &mut SplitMix64, horizon: f64, peak_fraction: f64) -> f64 {
    let c = peak_fraction;
    let u = rng.next_f64();
    let x = if u < c { (u * c).sqrt() } else { 1.0 - ((1.0 - u) * (1.0 - c)).sqrt() };
    x * horizon
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_catalog, CatalogConfig};
    use vod_topology::builders::{paper_fig4, PaperFig4Config};

    fn setup() -> (Topology, Catalog) {
        let topo = paper_fig4(&PaperFig4Config::default());
        let catalog = generate_catalog(&CatalogConfig::small(100), 1);
        (topo, catalog)
    }

    #[test]
    fn one_request_per_user() {
        let (topo, catalog) = setup();
        let batch = generate_requests(&topo, &catalog, &RequestConfig::paper(), 3);
        assert_eq!(batch.len(), 190);
        // Every user appears exactly once.
        let mut seen = vec![0usize; topo.user_count()];
        for r in batch.iter() {
            seen[r.user.index()] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn multiple_requests_per_user() {
        let (topo, catalog) = setup();
        let cfg = RequestConfig { requests_per_user: 3, ..RequestConfig::paper() };
        let batch = generate_requests(&topo, &catalog, &cfg, 3);
        assert_eq!(batch.len(), 570);
    }

    #[test]
    fn starts_within_horizon() {
        let (topo, catalog) = setup();
        let cfg = RequestConfig { horizon_hours: 6.0, ..RequestConfig::paper() };
        let batch = generate_requests(&topo, &catalog, &cfg, 5);
        for r in batch.iter() {
            assert!((0.0..6.0 * 3600.0).contains(&r.start));
        }
    }

    #[test]
    fn videos_within_catalog() {
        let (topo, catalog) = setup();
        let batch = generate_requests(&topo, &catalog, &RequestConfig::paper(), 7);
        for r in batch.iter() {
            assert!(r.video.index() < catalog.len());
        }
    }

    #[test]
    fn lower_alpha_concentrates_requests() {
        let (topo, catalog) = setup();
        let distinct = |alpha: f64| {
            let batch = generate_requests(&topo, &catalog, &RequestConfig::with_alpha(alpha), 11);
            batch.video_count()
        };
        // More skew (smaller α) → fewer distinct titles requested.
        let skewed = distinct(0.0);
        let uniform = distinct(1.0);
        assert!(skewed < uniform, "distinct titles: alpha=0 gave {skewed}, alpha=1 gave {uniform}");
    }

    #[test]
    fn peak_arrivals_cluster_near_mode() {
        let (topo, catalog) = setup();
        let cfg = RequestConfig {
            arrivals: ArrivalPattern::Peak { peak_fraction: 0.75 },
            requests_per_user: 20,
            ..RequestConfig::paper()
        };
        let batch = generate_requests(&topo, &catalog, &cfg, 13);
        let horizon = 24.0 * 3600.0;
        let mean: f64 = batch.iter().map(|r| r.start).sum::<f64>() / batch.len() as f64;
        // Triangular(0, 0.75h, h) has mean (0 + 0.75h + h)/3 ≈ 0.583h.
        assert!((mean / horizon - 0.583).abs() < 0.02, "mean arrival fraction {}", mean / horizon);
        for r in batch.iter() {
            assert!((0.0..horizon).contains(&r.start));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (topo, catalog) = setup();
        let a = generate_requests(&topo, &catalog, &RequestConfig::paper(), 21);
        let b = generate_requests(&topo, &catalog, &RequestConfig::paper(), 21);
        let va: Vec<_> = a.iter().map(|r| (r.user, r.video, r.start)).collect();
        let vb: Vec<_> = b.iter().map(|r| (r.user, r.video, r.start)).collect();
        assert_eq!(va, vb);
        let c = generate_requests(&topo, &catalog, &RequestConfig::paper(), 22);
        let vc: Vec<_> = c.iter().map(|r| (r.user, r.video, r.start)).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn regional_requests_are_region_unique() {
        let (topo, catalog) = setup();
        let cfg = RequestConfig { requests_per_user: 4, ..RequestConfig::paper() };
        let batch = generate_regional_requests(&topo, &catalog, &cfg, 17);
        assert_eq!(batch.len(), topo.user_count() * 4);
        // Every video is requested from exactly one neighborhood.
        let mut owner = std::collections::HashMap::new();
        for r in batch.iter() {
            let home = topo.home_of(r.user);
            assert_eq!(
                *owner.entry(r.video).or_insert(home),
                home,
                "video {:?} requested from two neighborhoods",
                r.video
            );
            assert!(r.video.index() < catalog.len());
        }
        // Deterministic per seed.
        let again = generate_regional_requests(&topo, &catalog, &cfg, 17);
        let va: Vec<_> = batch.iter().map(|r| (r.user, r.video, r.start)).collect();
        let vb: Vec<_> = again.iter().map(|r| (r.user, r.video, r.start)).collect();
        assert_eq!(va, vb);
    }

    #[test]
    #[should_panic(expected = "cannot cover")]
    fn regional_requests_need_enough_titles() {
        let topo = paper_fig4(&PaperFig4Config::default());
        let catalog = generate_catalog(&CatalogConfig::small(5), 1);
        generate_regional_requests(&topo, &catalog, &RequestConfig::paper(), 0);
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_rejected() {
        let (topo, catalog) = setup();
        generate_requests(
            &topo,
            &catalog,
            &RequestConfig { horizon_hours: 0.0, ..RequestConfig::paper() },
            0,
        );
    }
}
