//! Reference scheduling policies.
//!
//! * [`network_only`] — the paper's comparator ("network only system" in
//!   Figs. 5 and 7): no intermediate storage at all, every request streams
//!   straight from the warehouse along the cheapest route.
//! * [`cache_local_always`] — a naive caching policy: the first request of
//!   a video in each neighborhood caches at the local storage and every
//!   later local request extends that copy; no cross-neighborhood sharing,
//!   no capacity awareness. A useful upper reference for how much of the
//!   two-phase scheduler's advantage comes from *placement choice* rather
//!   than caching per se.

use crate::SchedCtx;
use std::collections::BTreeMap;
use vod_cost_model::{RequestBatch, Residency, Schedule, VideoSchedule};
use vod_topology::NodeId;

/// Schedule every request as a direct warehouse stream (no residencies).
/// This is the *network only system* the paper plots against.
pub fn network_only(ctx: &SchedCtx<'_>, batch: &RequestBatch) -> Schedule {
    let vw = ctx.topo.warehouse();
    batch
        .groups()
        .map(|(video, group)| {
            let mut vs = VideoSchedule::new(video);
            vs.transfers.extend(group.iter().map(|req| ctx.delivery(req, vw, None)));
            vs
        })
        .collect()
}

/// Always-cache-locally policy: per (video, neighborhood), the first
/// request streams from the warehouse and leaves a copy at the local
/// storage; subsequent local requests are served from that copy (extending
/// its residency). Capacity limits are deliberately ignored — run the
/// result through overflow detection to see why phase 2 exists.
pub fn cache_local_always(ctx: &SchedCtx<'_>, batch: &RequestBatch) -> Schedule {
    let vw = ctx.topo.warehouse();
    batch
        .groups()
        .map(|(video, group)| {
            let mut vs = VideoSchedule::new(video);
            let mut local_copies: BTreeMap<NodeId, Residency> = BTreeMap::new();
            for req in group {
                let local = ctx.topo.home_of(req.user);
                match local_copies.get_mut(&local) {
                    Some(copy) => {
                        copy.extend(*req);
                        // Zero network hops: served out of the local copy.
                        vs.transfers.push(ctx.delivery(req, local, None));
                    }
                    None => {
                        vs.transfers.push(ctx.delivery(req, vw, None));
                        local_copies.insert(local, Residency::begin(local, vw, *req));
                    }
                }
            }
            vs.residencies.extend(local_copies.into_values());
            vs
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivsp_solve;
    use vod_cost_model::CostModel;
    use vod_topology::builders;
    use vod_workload::{CatalogConfig, RequestConfig, Workload};

    fn setup(seed: u64) -> (vod_topology::Topology, vod_workload::Workload) {
        let topo = builders::paper_fig4(&builders::PaperFig4Config::default());
        let wl =
            Workload::generate(&topo, &CatalogConfig::small(60), &RequestConfig::paper(), seed);
        (topo, wl)
    }

    #[test]
    fn network_only_has_no_residencies() {
        let (topo, wl) = setup(1);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let s = network_only(&ctx, &wl.requests);
        assert_eq!(s.residencies().count(), 0);
        assert_eq!(s.delivery_count(), wl.requests.len());
        // Every route starts at the warehouse.
        for t in s.transfers() {
            assert_eq!(t.src(), topo.warehouse());
        }
    }

    #[test]
    fn greedy_never_loses_to_network_only() {
        let (topo, wl) = setup(2);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let greedy_cost = ctx.schedule_cost(&ivsp_solve(&ctx, &wl.requests));
        let direct_cost = ctx.schedule_cost(&network_only(&ctx, &wl.requests));
        assert!(
            greedy_cost <= direct_cost + 1e-6,
            "greedy {greedy_cost} vs network-only {direct_cost}"
        );
    }

    #[test]
    fn cache_local_serves_repeats_for_storage_cost_only() {
        let (topo, wl) = setup(3);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let s = cache_local_always(&ctx, &wl.requests);
        assert_eq!(s.delivery_count(), wl.requests.len());
        // Each (video, neighborhood) pair has exactly one warehouse stream.
        for vs in s.videos() {
            let mut seen = std::collections::BTreeSet::new();
            for t in &vs.transfers {
                if t.src() == topo.warehouse() {
                    assert!(seen.insert(t.dst()), "duplicate warehouse stream to {}", t.dst());
                }
            }
        }
    }

    #[test]
    fn cache_local_beats_network_only_under_cheap_storage() {
        let (mut topo, wl) = setup(4);
        topo.set_uniform_srate(0.0).unwrap();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let cached = ctx.schedule_cost(&cache_local_always(&ctx, &wl.requests));
        let direct = ctx.schedule_cost(&network_only(&ctx, &wl.requests));
        assert!(cached <= direct, "free storage: caching ({cached}) must beat direct ({direct})");
    }

    #[test]
    fn two_phase_beats_cache_local() {
        // The paper's scheduler optimises placement; the naive policy does
        // not. With the default parameters it should never lose.
        let (topo, wl) = setup(5);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let two_phase = ctx.schedule_cost(&ivsp_solve(&ctx, &wl.requests));
        let naive = ctx.schedule_cost(&cache_local_always(&ctx, &wl.requests));
        assert!(two_phase <= naive + 1e-6, "two-phase {two_phase} vs naive {naive}");
    }
}
