//! Bandwidth-constrained scheduling — the paper's stated future work
//! (§6), implemented: "we plan to extend our approach to resolve the
//! bandwidth constraints of the intermediate storages and communication
//! network".
//!
//! The two-phase scheduler treats links as infinitely wide; here every
//! link declares a capacity (bytes/s) and the scheduler must not
//! over-subscribe it. [`bandwidth_aware_solve`] processes the *entire*
//! batch in one global chronological pass (links are shared across videos,
//! so per-video scheduling cannot see cross-video contention), holding
//! every committed residency and stream in one [`StorageLedger`] — its
//! storage rows and its link rows:
//!
//! * every candidate plan is admitted only if its route has spare capacity
//!   for the whole playback duration;
//! * when the cheapest route is saturated, a capacity-constrained Dijkstra
//!   (`constrained_cheapest_path`) searches for the cheapest route that
//!   still fits;
//! * a request with no feasible plan at all is **blocked** — the outcome
//!   reports the blocking probability, connecting to the VOD
//!   admission-control literature the authors cite.
//!
//! Storage capacities are enforced the same way as in the rejective greedy
//! (candidates whose residency would overflow are rejected), so the
//! resulting schedule is feasible in *both* resources by construction.

use crate::{SchedCtx, StorageLedger};
use std::collections::BTreeMap;
use vod_cost_model::{
    Dollars, Request, RequestBatch, Residency, Schedule, SpaceProfile, Transfer, VideoId,
    VideoSchedule,
};
use vod_topology::{NodeId, Topology};

/// Cheapest path from `src` to `dst` using only links on which `stream`
/// (a step profile, [`SpaceProfile::step`]) still fits
/// ([`StorageLedger::link_fits`]). Returns `None` when the residual graph
/// disconnects the pair.
fn constrained_cheapest_path(
    topo: &Topology,
    ledger: &StorageLedger,
    src: NodeId,
    dst: NodeId,
    stream: &SpaceProfile,
) -> Option<(Vec<NodeId>, f64)> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct Entry {
        cost: f64,
        node: NodeId,
    }
    impl PartialEq for Entry {
        fn eq(&self, o: &Self) -> bool {
            self.cost == o.cost && self.node == o.node
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, o: &Self) -> Ordering {
            o.cost.total_cmp(&self.cost).then_with(|| o.node.cmp(&self.node))
        }
    }

    let n = topo.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    dist[src.index()] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(Entry { cost: 0.0, node: src });
    while let Some(Entry { cost, node }) = heap.pop() {
        if cost > dist[node.index()] {
            continue;
        }
        if node == dst {
            break;
        }
        for &(nb, edge) in topo.neighbors(node) {
            if !ledger.link_fits(topo, edge, stream) {
                continue;
            }
            let cand = cost + topo.edges()[edge].nrate;
            if cand < dist[nb.index()] {
                dist[nb.index()] = cand;
                prev[nb.index()] = Some(node);
                heap.push(Entry { cost: cand, node: nb });
            }
        }
    }
    if !dist[dst.index()].is_finite() {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = prev[cur.index()].expect("reachable node has a predecessor");
        path.push(cur);
    }
    path.reverse();
    Some((path, dist[dst.index()]))
}

/// Result of bandwidth-aware scheduling.
#[derive(Clone, Debug)]
pub struct BandwidthAwareOutcome {
    /// The feasible schedule (storage- and bandwidth-feasible by
    /// construction).
    pub schedule: Schedule,
    /// Requests that could not be admitted at all.
    pub blocked: Vec<Request>,
    /// Ψ of the admitted schedule.
    pub cost: Dollars,
}

impl BandwidthAwareOutcome {
    /// Fraction of requests blocked.
    pub fn blocking_probability(&self, total_requests: usize) -> f64 {
        if total_requests == 0 {
            0.0
        } else {
            self.blocked.len() as f64 / total_requests as f64
        }
    }
}

/// Greedy candidate under both resource constraints.
struct Cand {
    cost: Dollars,
    priority: u8,
    src: NodeId,
    route: Vec<NodeId>,
    new_cache: Option<NodeId>,
}

/// Schedule the whole batch chronologically under link and storage
/// capacities. Candidates mirror the two-phase greedy's plan space; see
/// module docs for the admission rules.
pub fn bandwidth_aware_solve(ctx: &SchedCtx<'_>, batch: &RequestBatch) -> BandwidthAwareOutcome {
    let topo = ctx.topo;
    let vw = topo.warehouse();

    // Global chronological order across videos.
    let mut order: Vec<Request> = batch.iter().copied().collect();
    order.sort_by(|a, b| {
        a.start.total_cmp(&b.start).then(a.video.cmp(&b.video)).then(a.user.cmp(&b.user))
    });

    let mut ledger = StorageLedger::new(topo);
    let mut caches: BTreeMap<(VideoId, NodeId), Residency> = BTreeMap::new();
    let mut per_video: BTreeMap<VideoId, VideoSchedule> = BTreeMap::new();
    let mut blocked = Vec::new();

    for req in order {
        let video = ctx.catalog.get(req.video);
        let amortized = video.amortized_bytes();
        let local = topo.home_of(req.user);
        let stream = SpaceProfile::step(req.start, req.start + video.playback, video.bandwidth);

        let mut best: Option<Cand> = None;
        let consider = |cand: Cand, best: &mut Option<Cand>| {
            let better = match best {
                None => true,
                Some(b) => {
                    let tol = 1e-9 * (1.0 + cand.cost.abs().max(b.cost.abs()));
                    cand.cost < b.cost - tol
                        || (cand.cost <= b.cost + tol
                            && (cand.priority, cand.src.0) < (b.priority, b.src.0))
                }
            };
            if better {
                *best = Some(cand);
            }
        };

        // Sources: warehouse + this video's caches.
        let sources: Vec<NodeId> = std::iter::once(vw)
            .chain(
                caches
                    .range((req.video, NodeId(0))..=(req.video, NodeId(u32::MAX)))
                    .map(|((_, loc), _)| *loc),
            )
            .collect();

        for &src in &sources {
            // Extension feasibility + cost for a cache source.
            let ext = match caches.get(&(req.video, src)) {
                Some(r) => {
                    let model = ctx.model.space_model();
                    let new = SpaceProfile::with_model(
                        r.start,
                        req.start,
                        video.size,
                        video.playback,
                        model,
                    );
                    // Admission uses the paper's instant-reservation
                    // profile — the space a disk must guarantee up front.
                    let reserve = SpaceProfile::new(r.start, req.start, video.size, video.playback);
                    if !ledger.fits(topo, src, &reserve, None) {
                        continue;
                    }
                    let old = r.profile_with(video, model);
                    topo.srate(src) * (new.integral() - old.integral())
                }
                None => 0.0,
            };

            // (a) Direct delivery src → local over a capacity-feasible
            // cheapest route.
            if let Some((route, rate)) =
                constrained_cheapest_path(topo, &ledger, src, local, &stream)
            {
                let priority = if src == local {
                    1
                } else if src == vw {
                    4
                } else {
                    2
                };
                consider(
                    Cand { cost: amortized * rate + ext, priority, src, route, new_cache: None },
                    &mut best,
                );
            }

            // (b) Via a new cache at an unused storage.
            for m in topo.storages() {
                if m == src || caches.contains_key(&(req.video, m)) {
                    continue;
                }
                let Some((r1, rate1)) = constrained_cheapest_path(topo, &ledger, src, m, &stream)
                else {
                    continue;
                };
                let Some((r2, rate2)) = constrained_cheapest_path(topo, &ledger, m, local, &stream)
                else {
                    continue;
                };
                let mut route = r1;
                route.extend_from_slice(&r2[1..]);
                let priority = if m == local { 0 } else { 3 };
                consider(
                    Cand {
                        cost: amortized * (rate1 + rate2) + ext,
                        priority,
                        src,
                        route,
                        new_cache: Some(m),
                    },
                    &mut best,
                );
            }
        }

        let Some(plan) = best else {
            blocked.push(req);
            continue;
        };

        // Commit link usage, storage, schedule.
        ledger.add_stream(topo, &plan.route, req.video, stream);
        if let Some(r) = caches.get_mut(&(req.video, plan.src)) {
            // Replace the source copy's profile with the extension.
            r.extend(req);
            ledger.remove(r.loc, req.video);
            ledger.add(r.loc, req.video, r.profile(video));
        }
        let vs = per_video.entry(req.video).or_insert_with(|| VideoSchedule::new(req.video));
        vs.transfers.push(Transfer {
            video: req.video,
            route: plan.route.into(),
            start: req.start,
            user: Some(req.user),
        });
        if let Some(m) = plan.new_cache {
            caches.insert((req.video, m), Residency::begin(m, plan.src, req));
        }
    }

    // Flush residencies into schedules.
    for ((video, _), r) in caches {
        per_video.get_mut(&video).expect("cache implies deliveries").residencies.push(r);
    }
    let schedule: Schedule = per_video.into_values().collect();
    let cost = ctx.schedule_cost(&schedule);
    BandwidthAwareOutcome { schedule, blocked, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{detect_link_overloads, detect_overflows};
    use vod_cost_model::{Catalog, CostModel};
    use vod_topology::{builders, units};
    use vod_workload::{CatalogConfig, RequestConfig, Workload};

    fn world(bandwidth_streams: Option<f64>, seed: u64) -> (Topology, Workload) {
        let mut topo = builders::paper_fig4(&builders::PaperFig4Config::default());
        if let Some(streams) = bandwidth_streams {
            topo.set_uniform_bandwidth(Some(units::mbps(5.0) * streams)).unwrap();
        }
        let wl = Workload::generate(
            &topo,
            &CatalogConfig::small(60),
            &RequestConfig { requests_per_user: 2, ..RequestConfig::paper() },
            seed,
        );
        (topo, wl)
    }

    /// Whether `schedule` keeps every storage and every link within its
    /// capacity: one ledger holding its residencies and its streams.
    fn feasible(topo: &Topology, catalog: &Catalog, schedule: &Schedule) -> bool {
        let mut ledger = StorageLedger::from_schedule(topo, catalog, schedule);
        ledger.add_streams(topo, catalog, schedule);
        detect_overflows(topo, &ledger).is_empty()
            && detect_link_overloads(topo, &ledger).is_empty()
    }

    #[test]
    fn unlimited_links_block_nothing() {
        let (topo, wl) = world(None, 1);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let out = bandwidth_aware_solve(&ctx, &wl.requests);
        assert!(out.blocked.is_empty());
        assert_eq!(out.schedule.delivery_count(), wl.requests.len());
        assert_eq!(out.blocking_probability(wl.requests.len()), 0.0);
        assert!(feasible(&topo, &wl.catalog, &out.schedule));
    }

    #[test]
    fn schedule_respects_declared_link_capacities() {
        let (topo, wl) = world(Some(8.0), 2);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let out = bandwidth_aware_solve(&ctx, &wl.requests);
        assert!(
            feasible(&topo, &wl.catalog, &out.schedule),
            "bandwidth-aware schedule must respect every link and storage"
        );
        assert_eq!(out.schedule.delivery_count() + out.blocked.len(), wl.requests.len());
    }

    #[test]
    fn starved_links_block_requests() {
        // One concurrent stream per link network-wide: an evening of 380
        // requests cannot all fit.
        let (topo, wl) = world(Some(1.0), 3);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let out = bandwidth_aware_solve(&ctx, &wl.requests);
        assert!(!out.blocked.is_empty(), "one-stream links must block someone");
        assert!(out.blocking_probability(wl.requests.len()) > 0.0);
        assert!(feasible(&topo, &wl.catalog, &out.schedule));
    }

    #[test]
    fn wider_links_block_less_and_cost_less_per_delivery() {
        let model = CostModel::per_hop();
        let mut prev_blocked = usize::MAX;
        for streams in [1.0, 4.0, 16.0] {
            let (topo, wl) = world(Some(streams), 4);
            let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
            let out = bandwidth_aware_solve(&ctx, &wl.requests);
            assert!(
                out.blocked.len() <= prev_blocked,
                "{streams} streams/link blocked more than narrower links"
            );
            prev_blocked = out.blocked.len();
        }
        assert_eq!(prev_blocked, 0, "16 streams per link should admit everything");
    }

    #[test]
    fn constrained_path_avoids_saturated_links() {
        // Diamond: VW—IS1—IS2 plus direct VW—IS2 at a higher rate.
        let topo = {
            let mut b = vod_topology::TopologyBuilder::new();
            let vw = b.add_warehouse("VW");
            let s1 = b.add_storage("IS1", 0.0, units::gb(5.0));
            let s2 = b.add_storage("IS2", 0.0, units::gb(5.0));
            b.connect_with_bandwidth(vw, s1, 1.0, Some(10.0)).unwrap();
            b.connect_with_bandwidth(s1, s2, 1.0, Some(10.0)).unwrap();
            b.connect_with_bandwidth(vw, s2, 5.0, Some(10.0)).unwrap();
            b.add_users(s1, 1);
            b.add_users(s2, 1);
            b.build().unwrap()
        };
        let mut ledger = StorageLedger::new(&topo);
        let vw = topo.warehouse();
        let s2 = NodeId(2);
        let stream = SpaceProfile::step(0.0, 100.0, 4.0);
        let hog = SpaceProfile::step(0.0, 1000.0, 8.0);
        // Unsaturated: cheap 2-hop route wins.
        let (path, rate) = constrained_cheapest_path(&topo, &ledger, vw, s2, &stream).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(rate, 2.0);
        // Saturate VW—IS1: the expensive direct link is chosen.
        ledger.add_stream(&topo, &[vw, NodeId(1)], VideoId(0), hog);
        let (path, rate) = constrained_cheapest_path(&topo, &ledger, vw, s2, &stream).unwrap();
        assert_eq!(path, vec![vw, s2]);
        assert_eq!(rate, 5.0);
        // Saturate everything: no route at all.
        ledger.add_stream(&topo, &[vw, s2], VideoId(1), hog);
        assert!(constrained_cheapest_path(&topo, &ledger, vw, s2, &stream).is_none());
        // …but a later window is free again, from the hog's very end.
        let later = SpaceProfile::step(1000.0, 1100.0, 4.0);
        assert!(constrained_cheapest_path(&topo, &ledger, vw, s2, &later).is_some());
    }

    #[test]
    fn blocked_requests_are_reported_not_dropped_silently() {
        let (topo, wl) = world(Some(1.0), 5);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let out = bandwidth_aware_solve(&ctx, &wl.requests);
        let served = out.schedule.delivery_count();
        assert_eq!(served + out.blocked.len(), wl.requests.len());
        for b in &out.blocked {
            // A blocked request must not appear in the schedule.
            let vs = out.schedule.video(b.video);
            if let Some(vs) = vs {
                assert!(!vs.transfers.iter().any(|t| t.user == Some(b.user) && t.start == b.start));
            }
        }
    }
}
