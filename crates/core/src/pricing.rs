//! Incremental pricing layer: a schedule plus a per-video Ψ memo.
//!
//! The SORP loop replaces one video's schedule per iteration. Re-pricing
//! the whole schedule after every commit is O(videos) per iteration;
//! since Ψ is additive over per-video schedules (`schedule_cost` is the
//! ordered sum of `video_cost`), replacing one video changes the total
//! by exactly `Ψ(new_vs) − Ψ(old_vs)`. [`PricedSchedule`] keeps the
//! per-video costs memoized and maintains the running total by that
//! delta, cross-checking against the closed-form full recompute under
//! `debug_assert`.
//!
//! The memo doubles as the answer to "what does this video cost right
//! now?" — which the SORP trial loop needs once per overflow
//! participant per iteration, and previously recomputed from scratch
//! every time.

use crate::greedy::{find_video_schedule_with, GreedyPolicy};
use crate::SchedCtx;
use std::collections::HashMap;
use vod_cost_model::{Dollars, RequestBatch, Schedule, VideoId, VideoSchedule};
use vod_parallel::ExecMode;

/// Relative tolerance for the incremental-vs-closed-form cross-checks.
/// Delta accumulation drifts by at most a few ulps per commit; 1e-6
/// relative leaves orders of magnitude of headroom while still catching
/// any real accounting bug.
const PRICING_EPS: f64 = 1e-6;

/// A [`Schedule`] bundled with its per-video Ψ memo and running total.
///
/// Invariant: `total()` equals the ordered sum of the memoized per-video
/// costs over `schedule().videos()`, which in turn equals
/// `ctx.schedule_cost(schedule())` up to delta-accumulation noise (the
/// exact equality is `debug_assert`ed on every commit).
#[derive(Clone, Debug)]
pub struct PricedSchedule {
    schedule: Schedule,
    costs: HashMap<VideoId, Dollars>,
    total: Dollars,
}

impl PricedSchedule {
    /// Price every video of `schedule` and take ownership. The total is
    /// the per-video costs summed in schedule order.
    pub fn price(ctx: &SchedCtx<'_>, schedule: Schedule) -> Self {
        let mut costs = HashMap::with_capacity(schedule.video_count());
        let mut total = 0.0;
        for vs in schedule.videos() {
            let cost = ctx.video_cost(vs);
            costs.insert(vs.video, cost);
            total += cost;
        }
        Self { schedule, costs, total }
    }

    /// Assemble from already-priced per-video schedules (the phase-1
    /// path: each video is priced as its schedule is built). The total
    /// is summed in schedule (video-id) order so it is bit-identical to
    /// [`PricedSchedule::price`] of the same schedule.
    pub fn from_priced_videos(pairs: Vec<(VideoSchedule, Dollars)>) -> Self {
        let mut costs = HashMap::with_capacity(pairs.len());
        let mut schedule = Schedule::new();
        for (vs, cost) in pairs {
            costs.insert(vs.video, cost);
            schedule.upsert(vs);
        }
        let total = schedule.videos().map(|vs| costs[&vs.video]).sum();
        Self { schedule, costs, total }
    }

    /// Merge per-shard priced schedules into one global memo **without
    /// recomputation**, and name the videos more than one part held (in
    /// id order): Ψ is additive over a video's transfers and residencies
    /// (`video_cost` is their ordered sum), so a video split across
    /// shards prices its concatenated schedule at exactly the sum of its
    /// per-shard memo costs — up to float summation order, which is why
    /// every consumer compares through [`PRICING_EPS`]-relative checks
    /// rather than bit equality. Videos owned by a single shard keep
    /// their memo entry verbatim. A single part is returned unchanged
    /// (bit-identical total), which is what makes the 1-shard sharded
    /// pipeline coincide with the monolithic one.
    ///
    /// Every part lists its videos in id order, so this is a k-way merge:
    /// the smallest id at any part's head comes next, and the parts
    /// holding it are concatenated (and their costs added) in part order.
    pub fn merge(mut parts: Vec<PricedSchedule>) -> (Self, Vec<VideoId>) {
        if parts.len() == 1 {
            return (parts.pop().expect("one part is present"), Vec::new());
        }
        // Per part: what is left of its videos, and its memo.
        let videos = parts.iter().map(|p| p.schedule.video_count()).sum();
        let mut parts: Vec<_> = parts
            .into_iter()
            .map(|p| (p.schedule.into_videos().into_iter().peekable(), p.costs))
            .collect();
        let mut pairs: Vec<(VideoSchedule, Dollars)> = Vec::with_capacity(videos);
        let mut split = Vec::new();
        while let Some(vid) =
            parts.iter_mut().filter_map(|(head, _)| head.peek()).map(|vs| vs.video).min()
        {
            let mut holders = parts.iter_mut().filter_map(|(head, costs)| {
                Some((head.next_if(|vs| vs.video == vid)?, costs[&vid]))
            });
            let (mut acc, mut acc_cost) = holders.next().expect("some head holds the smallest id");
            let mut several = false;
            for (vs, cost) in holders {
                several = true;
                acc.transfers.extend(vs.transfers);
                acc.residencies.extend(vs.residencies);
                acc_cost += cost;
            }
            if several {
                split.push(vid);
            }
            pairs.push((acc, acc_cost));
        }
        (Self::from_priced_videos(pairs), split)
    }

    /// The running total Ψ of the whole schedule.
    pub fn total(&self) -> Dollars {
        self.total
    }

    /// The memoized Ψ of one video's current schedule.
    pub fn video_cost(&self, video: VideoId) -> Option<Dollars> {
        self.costs.get(&video).copied()
    }

    /// Read access to the underlying schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Unwrap the schedule, discarding the memo.
    pub fn into_schedule(self) -> Schedule {
        self.schedule
    }

    /// Replace one video's schedule, updating the memo and the running
    /// total by delta. Returns `Ψ(new) − Ψ(old)` (the SORP overhead of
    /// this commit). Cross-checks the running total against the
    /// closed-form full recompute under `debug_assert`.
    pub fn commit(&mut self, ctx: &SchedCtx<'_>, new_vs: VideoSchedule) -> Dollars {
        let new_cost = ctx.video_cost(&new_vs);
        let old_cost = self.costs.insert(new_vs.video, new_cost).unwrap_or(0.0);
        let delta = new_cost - old_cost;
        self.total += delta;
        self.schedule.upsert(new_vs);
        debug_assert!(
            self.consistent_with(ctx),
            "incremental Ψ {} diverged from closed-form recompute {}",
            self.total,
            ctx.schedule_cost(&self.schedule)
        );
        delta
    }

    /// Whether the running total agrees with the closed-form
    /// `schedule_cost` recompute within [`PRICING_EPS`] (relative).
    /// O(videos) — meant for `debug_assert` and tests, not hot paths.
    pub fn consistent_with(&self, ctx: &SchedCtx<'_>) -> bool {
        let full = ctx.schedule_cost(&self.schedule);
        (self.total - full).abs() <= PRICING_EPS * full.abs().max(1.0)
    }
}

/// Phase 1 with pricing fused in: each video group is scheduled and its
/// schedule priced in one step. The result is ready for
/// [`crate::sorp_solve_priced`] with no full `schedule_cost` pass in
/// between.
pub fn ivsp_solve_priced(ctx: &SchedCtx<'_>, batch: &RequestBatch) -> PricedSchedule {
    ivsp_solve_priced_with(ctx, batch, GreedyPolicy::default(), ExecMode::Sequential)
}

/// [`ivsp_solve_priced`] under an explicit policy. Runs on the calling
/// thread: `_mode` is accepted and ignored, kept only because the frozen
/// benchmark adapter passes one (drop with benchmark revision 2, like
/// the always-zero [`crate::WarmStats`] fields).
pub fn ivsp_solve_priced_with(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    policy: GreedyPolicy,
    _mode: ExecMode,
) -> PricedSchedule {
    let pairs = batch
        .groups()
        .map(|(_, group)| {
            let vs = find_video_schedule_with(ctx, group, policy);
            let cost = ctx.video_cost(&vs);
            (vs, cost)
        })
        .collect();
    PricedSchedule::from_priced_videos(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivsp_solve;
    use vod_cost_model::CostModel;
    use vod_topology::builders;
    use vod_workload::{CatalogConfig, RequestConfig, Workload};

    fn world(seed: u64) -> (vod_topology::Topology, vod_workload::Workload) {
        let cfg = builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() };
        let topo = builders::paper_fig4(&cfg);
        let wl =
            Workload::generate(&topo, &CatalogConfig::small(60), &RequestConfig::paper(), seed);
        (topo, wl)
    }

    #[test]
    fn pricing_matches_schedule_cost() {
        let (topo, wl) = world(11);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let schedule = ivsp_solve(&ctx, &wl.requests);
        let full = ctx.schedule_cost(&schedule);
        let priced = PricedSchedule::price(&ctx, schedule);
        assert_eq!(priced.total(), full, "ordered per-video sum must be bit-identical");
    }

    #[test]
    fn ivsp_solve_priced_agrees_with_ivsp_solve() {
        let (topo, wl) = world(12);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let plain = ivsp_solve(&ctx, &wl.requests);
        let priced = ivsp_solve_priced(&ctx, &wl.requests);
        assert_eq!(priced.total(), ctx.schedule_cost(&plain));
        assert!(priced.schedule() == &plain, "schedules must be identical");
    }

    #[test]
    fn merge_concatenates_split_videos_in_part_order() {
        use vod_workload::{partition_requests, ShardSpec, ShardStrategy};
        let (topo, wl) = world(14);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let spec = ShardSpec { shards: 3, strategy: ShardStrategy::ByTimeSlice, seed: 0 };
        let parts: Vec<PricedSchedule> = partition_requests(&topo, &wl.requests, &spec)
            .iter()
            .map(|b| ivsp_solve_priced(&ctx, b))
            .collect();
        assert_eq!(parts.len(), 3);

        let (merged, split) = PricedSchedule::merge(parts.clone());
        let ids: Vec<VideoId> = merged.schedule().videos().map(|vs| vs.video).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "videos come out in id order, once each");
        let mut total = 0.0;
        let mut held_by_several = Vec::new();
        for vs in merged.schedule().videos() {
            let holders: Vec<&PricedSchedule> =
                parts.iter().filter(|p| p.schedule().video(vs.video).is_some()).collect();
            let pieces = || holders.iter().map(|p| p.schedule().video(vs.video).expect("held"));
            let transfers: Vec<_> = pieces().flat_map(|piece| piece.transfers.clone()).collect();
            let residencies: Vec<_> =
                pieces().flat_map(|piece| piece.residencies.clone()).collect();
            assert!(vs.transfers == transfers && vs.residencies == residencies);
            let mut cost = holders[0].video_cost(vs.video).expect("priced");
            for p in &holders[1..] {
                cost += p.video_cost(vs.video).expect("priced");
            }
            assert_eq!(merged.video_cost(vs.video).map(f64::to_bits), Some(cost.to_bits()));
            total += cost;
            if holders.len() > 1 {
                held_by_several.push(vs.video);
            }
        }
        assert_eq!(merged.total().to_bits(), total.to_bits());
        assert_eq!(merged.schedule().delivery_count(), wl.requests.len());
        assert!(!split.is_empty(), "time slices split the popular titles");
        assert_eq!(split, held_by_several);
        assert!(merged.consistent_with(&ctx));
    }

    #[test]
    fn commit_updates_by_delta_and_memoizes() {
        let (topo, wl) = world(13);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let mut priced = ivsp_solve_priced(&ctx, &wl.requests);

        // Re-commit an altered schedule for the first few videos and
        // check the memo tracks the recomputed per-video cost exactly.
        let vids: Vec<_> = priced.schedule().videos().map(|vs| vs.video).take(5).collect();
        for vid in vids {
            let old_vs = priced.schedule().video(vid).expect("scheduled").clone();
            let memo_before = priced.video_cost(vid).expect("priced");
            assert_eq!(memo_before, ctx.video_cost(&old_vs), "memo is the current cost");

            // Degrade the video to direct-only delivery (drop residencies).
            let mut direct = VideoSchedule::new(vid);
            direct.transfers = old_vs
                .delivered_requests()
                .iter()
                .map(|r| {
                    let home = ctx.topo.home_of(r.user);
                    vod_cost_model::Transfer::for_user(
                        r,
                        ctx.routes.path(ctx.topo.warehouse(), home),
                    )
                })
                .collect();
            let expected_delta = ctx.video_cost(&direct) - memo_before;
            let total_before = priced.total();
            let delta = priced.commit(&ctx, direct.clone());
            assert_eq!(delta, expected_delta);
            assert_eq!(priced.total(), total_before + delta);
            assert_eq!(priced.video_cost(vid), Some(ctx.video_cost(&direct)));
        }
        assert!(priced.consistent_with(&ctx));
    }
}
