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

use crate::SchedCtx;
use vod_cost_model::{Dollars, Schedule, VideoId, VideoSchedule};

/// Relative tolerance for the incremental-vs-closed-form cross-checks.
/// Delta accumulation drifts by at most a few ulps per commit; 1e-6
/// relative leaves orders of magnitude of headroom while still catching
/// any real accounting bug.
const PRICING_EPS: f64 = 1e-6;

/// The per-video costs summed in order from `+0.0`, so an empty schedule
/// totals `+0.0` (`Iterator::sum` starts from `-0.0`).
fn sum_in_order(costs: &[Dollars]) -> Dollars {
    costs.iter().fold(0.0, |total, cost| total + cost)
}

/// A [`Schedule`] bundled with its per-video Ψ memo and running total.
///
/// The memo is a table beside the schedule's video list: entry `i` prices
/// the video at [`Schedule::position`] `i`, so a lookup is the schedule's
/// own binary search and a walk in id order reads both in step.
///
/// Invariant: `total()` equals the ordered sum of the memoized per-video
/// costs over `schedule().videos()`, which in turn equals
/// `ctx.schedule_cost(schedule())` up to delta-accumulation noise (the
/// exact equality is `debug_assert`ed on every commit).
#[derive(Clone, Debug)]
pub struct PricedSchedule {
    schedule: Schedule,
    costs: Vec<Dollars>,
    total: Dollars,
}

impl PricedSchedule {
    /// Price every video of `schedule` and take ownership. The total is
    /// the per-video costs summed in schedule order.
    pub fn price(ctx: &SchedCtx<'_>, schedule: Schedule) -> Self {
        let costs: Vec<Dollars> = schedule.videos().map(|vs| ctx.video_cost(vs)).collect();
        let total = sum_in_order(&costs);
        Self { schedule, costs, total }
    }

    /// Assemble from already-priced per-video schedules (the phase-1
    /// path: each video is priced as its schedule is built). The total
    /// is summed in schedule (video-id) order so it is bit-identical to
    /// [`PricedSchedule::price`] of the same schedule.
    pub fn from_priced_videos(pairs: Vec<(VideoSchedule, Dollars)>) -> Self {
        let videos = pairs.len();
        let (schedule, costs) = (Schedule::with_capacity(videos), Vec::with_capacity(videos));
        let mut priced = Self { schedule, costs, total: 0.0 };
        for (vs, cost) in pairs {
            let _ = priced.put(vs, cost);
        }
        priced.total = sum_in_order(&priced.costs);
        priced
    }

    /// Merge per-shard priced schedules into one global memo **without
    /// recomputation**, and name the videos more than one part held (in
    /// id order): Ψ is additive over a video's transfers and residencies
    /// (`video_cost` is their ordered sum), so a video split across
    /// shards prices its concatenated schedule at exactly the sum of its
    /// per-shard memo costs — up to float summation order, which is why
    /// every consumer compares through `PRICING_EPS`-relative checks
    /// rather than bit equality. Videos owned by a single shard keep
    /// their memo entry verbatim. A single part is returned unchanged
    /// (bit-identical total), which is what makes the 1-shard sharded
    /// pipeline coincide with the monolithic one.
    ///
    /// `each(part, at, merged_at)` is told where every part's video
    /// lands: part `part`'s position `at` went to the merged position
    /// `merged_at`, in merged order and, for a video several parts hold,
    /// in part order — so a caller carries its own per-video tables
    /// across in the same walk.
    ///
    /// Every part lists its videos in id order, so this is a k-way merge:
    /// the smallest id at any part's head comes next, and the parts
    /// holding it are concatenated (and their costs added) in part order.
    pub(crate) fn merge_with(
        mut parts: Vec<PricedSchedule>,
        mut each: impl FnMut(usize, usize, usize),
    ) -> (Self, Vec<VideoId>) {
        if parts.len() == 1 {
            let only = parts.pop().expect("one part is present");
            (0..only.costs.len()).for_each(|at| each(0, at, at));
            return (only, Vec::new());
        }
        // Per part: what is left of its videos, each beside its position
        // and its memo entry.
        let videos = parts.iter().map(|p| p.costs.len()).sum();
        let mut heads: Vec<_> = parts
            .into_iter()
            .map(|p| p.schedule.into_videos().into_iter().zip(p.costs).enumerate().peekable())
            .collect();
        let (schedule, costs) = (Schedule::with_capacity(videos), Vec::with_capacity(videos));
        let mut merged = Self { schedule, costs, total: 0.0 };
        let mut split = Vec::new();
        while let Some(vid) =
            heads.iter_mut().filter_map(|h| h.peek()).map(|(_, (vs, _))| vs.video).min()
        {
            let merged_at = merged.costs.len();
            let mut holders = heads.iter_mut().enumerate().filter_map(|(part, head)| {
                let (at, held) = head.next_if(|(_, (vs, _))| vs.video == vid)?;
                each(part, at, merged_at);
                Some(held)
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
            let _ = merged.put(acc, acc_cost);
        }
        merged.total = sum_in_order(&merged.costs);
        (merged, split)
    }

    /// The running total Ψ of the whole schedule.
    pub fn total(&self) -> Dollars {
        self.total
    }

    /// The memoized Ψ of one video's current schedule.
    pub fn video_cost(&self, video: VideoId) -> Option<Dollars> {
        self.schedule.position(video).ok().map(|i| self.costs[i])
    }

    /// The memoized Ψ of the video at [`Schedule::position`] `i`.
    pub(crate) fn cost_at(&self, i: usize) -> Dollars {
        self.costs[i]
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
        self.commit_priced(ctx, new_vs, new_cost).0
    }

    /// [`PricedSchedule::commit`] of a schedule already priced at
    /// `new_cost` (`ctx.video_cost(&new_vs)`, which a SORP trial computed
    /// when it ran). Also returns where the video went: `Ok(i)` replaced
    /// position `i`, `Err(i)` inserted a new video there.
    pub(crate) fn commit_priced(
        &mut self,
        ctx: &SchedCtx<'_>,
        new_vs: VideoSchedule,
        new_cost: Dollars,
    ) -> (Dollars, Result<usize, usize>) {
        debug_assert_eq!(new_cost.to_bits(), ctx.video_cost(&new_vs).to_bits(), "a stale price");
        let (old_cost, at) = self.put(new_vs, new_cost);
        let delta = new_cost - old_cost;
        self.total += delta;
        debug_assert!(
            self.consistent_with(ctx),
            "incremental Ψ {} diverged from closed-form recompute {}",
            self.total,
            ctx.schedule_cost(&self.schedule)
        );
        (delta, at)
    }

    /// Upsert `vs` with its memo entry, leaving the total alone; returns
    /// the entry it replaced (0 for a new video) and where it went, as
    /// [`PricedSchedule::commit_priced`].
    fn put(&mut self, vs: VideoSchedule, cost: Dollars) -> (Dollars, Result<usize, usize>) {
        let videos = self.costs.len();
        let i = self.schedule.upsert(vs);
        if self.schedule.video_count() > videos {
            self.costs.insert(i, cost);
            (0.0, Err(i))
        } else {
            (std::mem::replace(&mut self.costs[i], cost), Ok(i))
        }
    }

    /// Whether the running total agrees with the closed-form
    /// `schedule_cost` recompute within `PRICING_EPS` (relative).
    /// O(videos) — meant for `debug_assert` and tests, not hot paths.
    pub fn consistent_with(&self, ctx: &SchedCtx<'_>) -> bool {
        let full = ctx.schedule_cost(&self.schedule);
        (self.total - full).abs() <= PRICING_EPS * full.abs().max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_video_schedule, ivsp_solve, GreedyPolicy};
    use vod_cost_model::{CostModel, Request, RequestBatch};
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
        let schedule = ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default()).into_schedule();
        let full = ctx.schedule_cost(&schedule);
        let priced = PricedSchedule::price(&ctx, schedule);
        assert_eq!(priced.total(), full, "ordered per-video sum must be bit-identical");
    }

    #[test]
    fn ivsp_solve_prices_the_greedy_union() {
        let (topo, wl) = world(12);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let policy = GreedyPolicy::default();
        let plain: Schedule = wl
            .requests
            .groups()
            .map(|(_, group)| find_video_schedule(&ctx, group, policy, None))
            .collect();
        let priced = ivsp_solve(&ctx, &wl.requests, policy);
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
            .map(|b| ivsp_solve(&ctx, b, GreedyPolicy::default()))
            .collect();
        assert_eq!(parts.len(), 3);

        let (merged, split) = PricedSchedule::merge_with(parts.clone(), |_, _, _| {});
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

    /// The memo as it stood before it became a table beside the schedule:
    /// a `HashMap` by video id, kept as the reference the table must
    /// answer like, bit for bit.
    #[derive(Clone)]
    struct HashMemo {
        schedule: Schedule,
        costs: std::collections::HashMap<VideoId, Dollars>,
        total: Dollars,
    }

    impl HashMemo {
        fn price(ctx: &SchedCtx<'_>, schedule: Schedule) -> Self {
            let mut costs = std::collections::HashMap::new();
            let mut total = 0.0;
            for vs in schedule.videos() {
                let cost = ctx.video_cost(vs);
                costs.insert(vs.video, cost);
                total += cost;
            }
            Self { schedule, costs, total }
        }

        fn from_priced_videos(pairs: Vec<(VideoSchedule, Dollars)>) -> Self {
            let mut costs = std::collections::HashMap::new();
            let mut schedule = Schedule::new();
            for (vs, cost) in pairs {
                costs.insert(vs.video, cost);
                schedule.upsert(vs);
            }
            let total = schedule.videos().fold(0.0, |total, vs| total + costs[&vs.video]);
            Self { schedule, costs, total }
        }

        fn merge(mut parts: Vec<HashMemo>) -> Self {
            if parts.len() == 1 {
                return parts.pop().expect("one part");
            }
            let mut parts: Vec<_> = parts
                .into_iter()
                .map(|p| (p.schedule.into_videos().into_iter().peekable(), p.costs))
                .collect();
            let mut pairs = Vec::new();
            while let Some(vid) =
                parts.iter_mut().filter_map(|(head, _)| head.peek()).map(|vs| vs.video).min()
            {
                let mut holders = parts.iter_mut().filter_map(|(head, costs)| {
                    Some((head.next_if(|vs| vs.video == vid)?, costs[&vid]))
                });
                let (mut acc, mut acc_cost) = holders.next().expect("a head holds it");
                for (vs, cost) in holders {
                    acc.transfers.extend(vs.transfers);
                    acc.residencies.extend(vs.residencies);
                    acc_cost += cost;
                }
                pairs.push((acc, acc_cost));
            }
            Self::from_priced_videos(pairs)
        }

        fn commit(&mut self, ctx: &SchedCtx<'_>, new_vs: VideoSchedule) -> Dollars {
            let new_cost = ctx.video_cost(&new_vs);
            let old_cost = self.costs.insert(new_vs.video, new_cost).unwrap_or(0.0);
            self.total += new_cost - old_cost;
            self.schedule.upsert(new_vs);
            new_cost - old_cost
        }
    }

    /// Answers alike: every id's memo entry and the total, by bits.
    fn agree(table: &PricedSchedule, reference: &HashMemo, ids: u32) -> bool {
        table.schedule() == &reference.schedule
            && table.total().to_bits() == reference.total.to_bits()
            && (0..ids).map(VideoId).all(|v| {
                table.video_cost(v).map(f64::to_bits)
                    == reference.costs.get(&v).copied().map(f64::to_bits)
            })
    }

    proptest::proptest! {
        /// Parts assembled from pairs in any order (repeats included),
        /// repriced, merged, then committed to — commits of videos the
        /// schedule lacks insert out of order.
        #[test]
        fn the_position_memo_answers_like_a_hash_map(
            parts in proptest::collection::vec(
                proptest::collection::vec((0u32..24, 0usize..190, 1usize..4), 0..10),
                1..5,
            ),
            reprice in proptest::prelude::any::<bool>(),
            commits in proptest::collection::vec((0u32..32, 0usize..190, 1usize..4), 0..12),
        ) {
            const IDS: u32 = 32;
            let (topo, wl) = world(21);
            let model = CostModel::per_hop();
            let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
            let users = topo.users();
            // A greedy schedule of `video` for `n` requests, users and
            // starts spread out from `u`.
            let video_schedule = |video: u32, u: usize, n: usize| {
                let requests: Vec<Request> = (0..n)
                    .map(|i| Request {
                        user: users[(u + 37 * i) % users.len()].id,
                        video: VideoId(video),
                        start: 900.0 * (u % 7 + 3 * i) as f64,
                    })
                    .collect();
                find_video_schedule(&ctx, &requests, GreedyPolicy::default(), None)
            };
            let mut tables = Vec::new();
            let mut references = Vec::new();
            for part in &parts {
                let pairs: Vec<(VideoSchedule, Dollars)> = part
                    .iter()
                    .map(|&(v, u, n)| {
                        let vs = video_schedule(v, u, n);
                        let cost = ctx.video_cost(&vs);
                        (vs, cost)
                    })
                    .collect();
                let (mut table, mut reference) = (
                    PricedSchedule::from_priced_videos(pairs.clone()),
                    HashMemo::from_priced_videos(pairs),
                );
                proptest::prop_assert!(agree(&table, &reference, IDS));
                if reprice {
                    table = PricedSchedule::price(&ctx, table.into_schedule());
                    reference = HashMemo::price(&ctx, reference.schedule);
                    proptest::prop_assert!(agree(&table, &reference, IDS));
                }
                tables.push(table);
                references.push(reference);
            }
            let (mut table, _) = PricedSchedule::merge_with(tables, |_, _, _| {});
            let mut reference = HashMemo::merge(references);
            proptest::prop_assert!(agree(&table, &reference, IDS));
            for &(v, u, n) in &commits {
                let vs = video_schedule(v, u, n);
                let delta = table.commit(&ctx, vs.clone());
                proptest::prop_assert_eq!(delta.to_bits(), reference.commit(&ctx, vs).to_bits());
                proptest::prop_assert!(agree(&table, &reference, IDS));
            }
        }
    }

    /// An empty batch totals `+0.0` on every path, the bits of pricing an
    /// empty schedule.
    #[test]
    fn an_empty_batch_totals_positive_zero() {
        let (topo, wl) = world(13);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let empty = RequestBatch::default();
        let priced = PricedSchedule::price(&ctx, Schedule::new()).total();
        assert_eq!(priced.to_bits(), 0.0f64.to_bits());
        assert_eq!(
            ivsp_solve(&ctx, &empty, GreedyPolicy::default()).total().to_bits(),
            priced.to_bits()
        );
        let sharded = crate::shard_solve_seeded(
            &ctx,
            &empty,
            &Default::default(),
            &crate::StorageLedger::new(&topo),
        );
        assert_eq!(sharded.sorp.cost.to_bits(), priced.to_bits());
    }

    #[test]
    fn commit_updates_by_delta_and_memoizes() {
        let (topo, wl) = world(13);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let mut priced = ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default());

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
