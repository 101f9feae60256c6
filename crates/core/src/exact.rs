//! Exact (branch-and-bound) individual video scheduling for small
//! instances.
//!
//! The paper argues its overall schedule lies "within 30 % of the optimal
//! solution on the average": the per-video greedy inherits the ≈15 % bound
//! of Papadimitriou et al.'s heuristic and overflow resolution adds ≈12 %
//! empirically. This module makes the first half of that claim *testable*:
//! it computes the true minimum-cost schedule over the same plan space the
//! greedy searches, by exhaustive branch-and-bound, so the experiment
//! harness can measure the greedy's optimality gap directly (see the `gap`
//! experiment and `examples/heat_metric_ablation`).
//!
//! Plan space (identical to the greedy's): each request, in chronological
//! order, is served from the warehouse or an existing cached copy, either
//! directly or through one newly introduced relay cache. This space does
//! not include multi-cache relays (one stream filling two storages at
//! once), which neither the greedy nor the paper's description uses; both
//! solvers optimise over the same space, so gap measurements are
//! apples-to-apples.
//!
//! Complexity is exponential in the number of requests — intended for
//! instances of up to roughly 6 requests × 6 storages (the branch-and-
//! bound prune keeps typical cases far below the worst case).

use crate::SchedCtx;
use vod_cost_model::{Dollars, Request, Residency, SpaceProfile, VideoSchedule};
use vod_topology::NodeId;

/// Outcome of the exact search.
#[derive(Clone, Debug)]
pub struct ExactOutcome {
    /// The optimal schedule within the plan space.
    pub schedule: VideoSchedule,
    /// Its cost Ψ(S*).
    pub cost: Dollars,
    /// Search-tree nodes expanded (for complexity reporting).
    pub nodes_expanded: usize,
}

/// Hard cap on search nodes; instances that would exceed it are rejected
/// up front by [`find_optimal_video_schedule`].
const NODE_CAP: usize = 50_000_000;

/// Maximum requests the exact solver accepts.
pub const MAX_REQUESTS: usize = 8;

/// Compute the optimal schedule for one video's chronologically sorted
/// requests (capacities ignored, like phase 1 of the heuristic).
///
/// # Panics
///
/// Panics if `requests` is empty, exceeds [`MAX_REQUESTS`], is unsorted,
/// or mixes videos.
pub fn find_optimal_video_schedule(ctx: &SchedCtx<'_>, requests: &[Request]) -> ExactOutcome {
    assert!(!requests.is_empty(), "cannot schedule an empty request group");
    assert!(
        requests.len() <= MAX_REQUESTS,
        "exact solver accepts at most {MAX_REQUESTS} requests, got {}",
        requests.len()
    );
    assert!(
        requests.windows(2).all(|w| w[0].start <= w[1].start && w[0].video == w[1].video),
        "requests must be chronologically sorted and of one video"
    );

    let mut search = Search {
        ctx,
        requests,
        video: *ctx.catalog.get(requests[0].video),
        best_cost: f64::INFINITY,
        best_plans: Vec::new(),
        plans: Vec::with_capacity(requests.len()),
        caches: Vec::new(),
        nodes: 0,
    };
    search.dfs(0, 0.0);
    assert!(search.best_cost.is_finite(), "all-direct plan is always feasible");

    let schedule = materialise(ctx, requests, &search.best_plans);
    ExactOutcome { schedule, cost: search.best_cost, nodes_expanded: search.nodes }
}

/// One request's plan: stream source and optional new cache.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Plan {
    src: NodeId,
    new_cache: Option<NodeId>,
}

/// Cache state during search: location and service times.
#[derive(Clone, Debug)]
struct CacheState {
    loc: NodeId,
    start: f64,
    last: f64,
}

struct Search<'a, 'c> {
    ctx: &'a SchedCtx<'c>,
    requests: &'a [Request],
    video: vod_cost_model::Video,
    best_cost: Dollars,
    best_plans: Vec<Plan>,
    plans: Vec<Plan>,
    caches: Vec<CacheState>,
    nodes: usize,
}

impl Search<'_, '_> {
    fn dfs(&mut self, i: usize, cost_so_far: Dollars) {
        self.nodes += 1;
        assert!(self.nodes <= NODE_CAP, "exact search exceeded the node cap");
        if cost_so_far >= self.best_cost {
            return; // bound: incremental costs are non-negative
        }
        if i == self.requests.len() {
            self.best_cost = cost_so_far;
            self.best_plans = self.plans.clone();
            return;
        }

        let req = self.requests[i];
        let local = self.ctx.topo.home_of(req.user);
        let amortized = self.video.amortized_bytes();
        let vw = self.ctx.topo.warehouse();

        // Enumerate sources: warehouse (index none) then caches.
        let n_caches = self.caches.len();
        for src_idx in 0..=n_caches {
            let (src, ext_cost) = if src_idx == 0 {
                (vw, 0.0)
            } else {
                let cache = &self.caches[src_idx - 1];
                (cache.loc, self.extension_cost(cache, req.start))
            };

            // (a) deliver directly.
            let direct = cost_so_far + amortized * self.ctx.routes.rate(src, local) + ext_cost;
            self.apply(i, src_idx, Plan { src, new_cache: None }, req.start, direct);

            // (b) deliver via a new cache at any unused storage.
            let used: Vec<NodeId> = self.caches.iter().map(|c| c.loc).collect();
            let storages: Vec<NodeId> =
                self.ctx.topo.storages().filter(|m| *m != src && !used.contains(m)).collect();
            for m in storages {
                let net =
                    amortized * (self.ctx.routes.rate(src, m) + self.ctx.routes.rate(m, local));
                let cost = cost_so_far + net + ext_cost;
                self.apply_with_cache(i, src_idx, m, req, cost);
            }
        }
    }

    /// Incremental storage cost of extending `cache` to serve at `t`.
    fn extension_cost(&self, cache: &CacheState, t: f64) -> Dollars {
        let model = self.ctx.model.space_model();
        let old = SpaceProfile::with_model(
            cache.start,
            cache.last,
            self.video.size,
            self.video.playback,
            model,
        );
        let new =
            SpaceProfile::with_model(cache.start, t, self.video.size, self.video.playback, model);
        self.ctx.topo.srate(cache.loc) * (new.integral() - old.integral())
    }

    /// Recurse with a plan that only extends the source cache.
    fn apply(&mut self, i: usize, src_idx: usize, plan: Plan, t: f64, cost: Dollars) {
        let saved_last = if src_idx > 0 {
            let c = &mut self.caches[src_idx - 1];
            let saved = c.last;
            c.last = t;
            Some(saved)
        } else {
            None
        };
        self.plans.push(plan);
        self.dfs(i + 1, cost);
        self.plans.pop();
        if let Some(saved) = saved_last {
            self.caches[src_idx - 1].last = saved;
        }
    }

    /// Recurse with a plan that additionally creates a cache at `m`.
    fn apply_with_cache(
        &mut self,
        i: usize,
        src_idx: usize,
        m: NodeId,
        req: Request,
        cost: Dollars,
    ) {
        let saved_last = if src_idx > 0 {
            let c = &mut self.caches[src_idx - 1];
            let saved = c.last;
            c.last = req.start;
            Some(saved)
        } else {
            None
        };
        let src =
            if src_idx == 0 { self.ctx.topo.warehouse() } else { self.caches[src_idx - 1].loc };
        self.caches.push(CacheState { loc: m, start: req.start, last: req.start });
        self.plans.push(Plan { src, new_cache: Some(m) });
        self.dfs(i + 1, cost);
        self.plans.pop();
        self.caches.pop();
        if let Some(saved) = saved_last {
            self.caches[src_idx - 1].last = saved;
        }
    }
}

/// Rebuild the full schedule (transfers + residencies) from the winning
/// plan sequence.
fn materialise(ctx: &SchedCtx<'_>, requests: &[Request], plans: &[Plan]) -> VideoSchedule {
    let video = requests[0].video;
    let mut vs = VideoSchedule::new(video);
    let mut caches: Vec<Residency> = Vec::new();

    for (req, plan) in requests.iter().zip(plans) {
        if let Some(cache) = caches.iter_mut().find(|c| c.loc == plan.src) {
            cache.extend(*req);
        }
        vs.transfers.push(ctx.delivery(req, plan.src, plan.new_cache));
        if let Some(m) = plan.new_cache {
            caches.push(Residency::begin(m, plan.src, *req));
        }
    }
    vs.residencies.extend(caches);
    vs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_video_schedule;
    use vod_cost_model::{Catalog, CostModel, Video, VideoId};
    use vod_topology::{builders, units, UserId};

    fn fig2_setup() -> (vod_topology::Topology, Catalog) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, 5.0);
        let video = Video::new(VideoId(0), units::gb(2.5), units::minutes(90.0), units::mbps(6.0));
        (topo, Catalog::new(vec![video]))
    }

    fn fig2_requests() -> Vec<Request> {
        [(0u32, 13.0), (1, 14.5), (2, 16.0)]
            .iter()
            .map(|&(u, h)| Request { user: UserId(u), video: VideoId(0), start: h * 3600.0 })
            .collect()
    }

    #[test]
    fn exact_matches_greedy_on_fig2() {
        // On the tiny Fig. 2 instance the greedy happens to be optimal.
        let (topo, catalog) = fig2_setup();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let exact = find_optimal_video_schedule(&ctx, &fig2_requests());
        let greedy = find_video_schedule(&ctx, &fig2_requests());
        assert!((exact.cost - 108.45).abs() < 1e-6, "optimal {}", exact.cost);
        assert!((ctx.video_cost(&greedy) - exact.cost).abs() < 1e-6);
        assert!(exact.nodes_expanded > 3);
    }

    #[test]
    fn exact_never_exceeds_greedy() {
        use vod_workload::{generate_requests, CatalogConfig, RequestConfig};
        let cfg =
            builders::GenConfig { storages: 4, users_per_neighborhood: 1, ..Default::default() };
        for seed in 0..20 {
            let topo = builders::random_connected(&cfg, 2, seed);
            let catalog = vod_workload::generate_catalog(&CatalogConfig::small(3), seed ^ 0xBEEF);
            let requests = generate_requests(
                &topo,
                &catalog,
                &RequestConfig { requests_per_user: 2, ..RequestConfig::with_alpha(0.0) },
                seed,
            );
            let model = CostModel::per_hop();
            let ctx = SchedCtx::new(&topo, &model, &catalog);
            for (_, group) in requests.groups() {
                if group.len() > 5 {
                    continue;
                }
                let exact = find_optimal_video_schedule(&ctx, group);
                let greedy = ctx.video_cost(&find_video_schedule(&ctx, group));
                assert!(
                    exact.cost <= greedy * (1.0 + 1e-9) + 1e-9,
                    "seed {seed}: exact {} > greedy {greedy}",
                    exact.cost
                );
                // And the materialised schedule prices at the claimed cost.
                assert!(
                    (ctx.video_cost(&exact.schedule) - exact.cost).abs()
                        <= 1e-9 * exact.cost.max(1.0)
                );
            }
        }
    }

    #[test]
    fn greedy_can_be_suboptimal_and_exact_finds_it() {
        // A line VW - IS0 - IS1 with free storage at IS1 only. Two users at
        // IS1 requesting far apart, one user at IS0 in between: the greedy,
        // processing chronologically, may commit to choices the optimum
        // avoids. At minimum the exact solver must match it; across random
        // rate perturbations it must sometimes strictly win for the claim
        // "greedy ≈ 15 % from optimal" to be non-vacuous.
        use vod_workload::SplitMix64;
        let mut strictly_better = 0;
        let mut rng = SplitMix64::new(7);
        for _ in 0..40 {
            let mut b = vod_topology::TopologyBuilder::new();
            let vw = b.add_warehouse("VW");
            let s0 = b.add_storage(
                "IS0",
                units::srate_per_gb_hour(rng.range_f64(0.0, 30.0)),
                units::gb(50.0),
            );
            let s1 = b.add_storage(
                "IS1",
                units::srate_per_gb_hour(rng.range_f64(0.0, 30.0)),
                units::gb(50.0),
            );
            let s2 = b.add_storage(
                "IS2",
                units::srate_per_gb_hour(rng.range_f64(0.0, 30.0)),
                units::gb(50.0),
            );
            b.connect(vw, s0, units::nrate_per_gb(rng.range_f64(50.0, 600.0))).unwrap();
            b.connect(s0, s1, units::nrate_per_gb(rng.range_f64(50.0, 600.0))).unwrap();
            b.connect(s1, s2, units::nrate_per_gb(rng.range_f64(50.0, 600.0))).unwrap();
            b.connect(vw, s2, units::nrate_per_gb(rng.range_f64(50.0, 600.0))).unwrap();
            b.add_users(s0, 1);
            b.add_users(s1, 1);
            b.add_users(s2, 1);
            let topo = b.build().unwrap();
            let video =
                Video::new(VideoId(0), units::gb(3.0), units::minutes(90.0), units::mbps(5.0));
            let catalog = Catalog::new(vec![video]);
            let model = CostModel::per_hop();
            let ctx = SchedCtx::new(&topo, &model, &catalog);

            let requests: Vec<Request> = (0..3)
                .map(|u| Request {
                    user: UserId(u),
                    video: VideoId(0),
                    start: rng.range_f64(0.0, 36_000.0),
                })
                .collect();
            let mut requests = requests;
            requests.sort_by(|a, b| a.start.total_cmp(&b.start));

            let exact = find_optimal_video_schedule(&ctx, &requests);
            let greedy = ctx.video_cost(&find_video_schedule(&ctx, &requests));
            assert!(exact.cost <= greedy + 1e-6);
            if exact.cost < greedy * (1.0 - 1e-9) - 1e-9 {
                strictly_better += 1;
            }
        }
        assert!(
            strictly_better > 0,
            "exact solver never beat the greedy across 40 random instances — \
             either miraculous or broken"
        );
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_requests_rejected() {
        let (topo, catalog) = fig2_setup();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let reqs: Vec<Request> = (0..9)
            .map(|u| Request { user: UserId(u % 3), video: VideoId(0), start: u as f64 })
            .collect();
        find_optimal_video_schedule(&ctx, &reqs);
    }

    #[test]
    fn single_request_optimal_is_cheapest_route() {
        let (topo, catalog) = fig2_setup();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let req = vec![Request { user: UserId(2), video: VideoId(0), start: 0.0 }];
        let exact = find_optimal_video_schedule(&ctx, &req);
        // 4.05 GB × $24/GB (VW→IS2) = $97.20.
        assert!((exact.cost - 97.2).abs() < 1e-9);
    }
}
