//! The greedy service scheduler (paper §3.2) and its capacity-aware
//! *rejective* variant (paper §4.4).
//!
//! For each request of a video, in chronological order, the greedy
//! enumerates every way to serve it and picks the cheapest incremental
//! cost:
//!
//! * **deliver** the stream from a source (the warehouse or an existing
//!   cached copy) straight to the user's local storage, extending the
//!   source copy's residency if the source is a cache;
//! * **introduce a new cache** at any unused intermediate storage `m`: the
//!   stream flows `source → m → local`, `m` copies the blocks as they pass
//!   (so a later request can be served from `m`), again extending the
//!   source copy if it is a cache.
//!
//! Equal-cost candidates break ties toward caching at the user's local
//! storage (a degenerate relay residency is free under the cost model and
//! can only help later requests), then toward serving from closer copies,
//! and finally toward lower node ids — making the schedule deterministic.
//!
//! The **rejective greedy** is the same search with two filters (paper
//! §4.4): a candidate whose residency profile would exceed the hosting
//! storage's remaining capacity is rejected, and so is one that occupies a
//! *forbidden* `(storage, interval)` — the overflow being resolved.
//! Serving directly from the warehouse is always admissible, so the
//! rejective greedy always produces a feasible schedule.

use crate::{
    AdmissionCheck, Interval, LedgerCursor, LedgerDelta, SchedCtx, StorageLedger, TrialTrace,
};
use serde::{Deserialize, Serialize};
use vod_cost_model::{
    Dollars, Request, RequestBatch, Residency, Schedule, Secs, SpaceProfile, Video, VideoId,
    VideoSchedule,
};
use vod_topology::{NodeId, Topology};

/// Relative tolerance for treating two candidate costs as equal, letting
/// the deterministic tie-break order decide.
const COST_EPS: f64 = 1e-9;

/// Tunable design choices of the greedy, exposed for the ablation studies
/// called out in DESIGN.md. The default enables everything — the paper's
/// algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GreedyPolicy {
    /// Consider introducing new relay caches ("another intermediate
    /// storage … is introduced to cache the file", §3.2 option 2).
    /// Disabled, the greedy degenerates to direct delivery — the
    /// network-only system.
    pub allow_new_caches: bool,
    /// Consider serving from (and relay-caching at) storages other than
    /// the requesting user's local one. Disabled, caching is purely
    /// neighborhood-local.
    pub allow_remote_placement: bool,
    /// Break cost ties toward caching at the local storage (free under
    /// the cost model, helps later requests). Disabled, ties break on
    /// node ids alone.
    pub prefer_local_cache_on_ties: bool,
}

impl Default for GreedyPolicy {
    fn default() -> Self {
        Self {
            allow_new_caches: true,
            allow_remote_placement: true,
            prefer_local_cache_on_ties: true,
        }
    }
}

/// Capacity and placement constraints for the rejective greedy.
#[derive(Clone, Debug)]
pub struct Constraints<'a> {
    /// Occupancy of the rest of the schedule. Profiles of the video being
    /// rescheduled must be excluded via [`Constraints::exclude`].
    pub ledger: &'a StorageLedger,
    /// The video whose profiles in `ledger` must be ignored (it is being
    /// rescheduled from scratch).
    pub exclude: Option<VideoId>,
    /// `(storage, window)` pairs where this video must not occupy space
    /// (the overflow constraint of §4.2, accumulated across resolution
    /// iterations).
    pub forbidden: &'a [(NodeId, Interval)],
}

impl Constraints<'_> {
    /// Whether `profile` overlaps a forbidden window at `loc` with
    /// positive space — the ledger-independent half of [`admits`].
    ///
    /// [`admits`]: Constraints::admits
    fn banned(&self, loc: NodeId, profile: &SpaceProfile) -> bool {
        if profile.peak() <= 0.0 {
            return false;
        }
        let support = Interval::new(profile.start, profile.end);
        self.forbidden.iter().any(|(floc, window)| *floc == loc && support.overlaps(window))
    }

    /// Whether `profile` may be placed at `loc`: it must not overlap any
    /// forbidden window at `loc` with positive space, and it must fit
    /// under the storage's capacity together with everything else. The
    /// cursor carries reusable scratch buffers across admission tests so
    /// the hot path allocates nothing; when tracing, every test is
    /// recorded — banned and infinite-capacity answers with `fits =
    /// None` (they are ledger-independent but still ban-dependent), and
    /// ledger-consulting answers with their capacity sub-verdict.
    ///
    /// Monotone in the residency's extension: on one ledger and one set
    /// of windows, a profile rejected when extended to `t` is rejected
    /// when extended to any later `t' > t` — its support only grows and
    /// its occupancy only rises, pointwise. The greedy's dead-source memo
    /// rests on this, and so does its asking only about a source that is
    /// about to take the lead: the rejection it did not ask for is the
    /// one a later request gets.
    pub fn admits(
        &self,
        ctx: &SchedCtx<'_>,
        loc: NodeId,
        profile: &SpaceProfile,
        cursor: &mut LedgerCursor,
    ) -> bool {
        if self.banned(loc, profile) {
            cursor.record_admission(loc, profile, false, None);
            return false;
        }
        let verdict = self.ledger.fits_cursor(ctx.topo, loc, profile, self.exclude, cursor);
        let fits = ctx.topo.capacity(loc).is_finite().then_some(verdict);
        cursor.record_admission(loc, profile, verdict, fits);
        verdict
    }

    /// Whether one recorded [`AdmissionCheck`] re-evaluates to its
    /// trial-time verdict under *these* constraints — the current ledger
    /// and the possibly-different forbidden windows. SORP's trial cache
    /// keys entries by video alone and uses this to decide, at lookup
    /// time, whether a memoized trial would replay bit-identically under
    /// the bans the new trial job carries: the greedy observes its
    /// constraints only through the sequence of [`admits`] booleans, so
    /// by induction (each matching answer reproduces the exact state
    /// that determined the next test) matching answers for every
    /// recorded check imply an identical greedy execution and output.
    ///
    /// The re-evaluation mirrors [`admits`] exactly: a check banned
    /// under the current windows answers `false`; an infinite-capacity
    /// storage answers `true`; otherwise the capacity sub-verdict
    /// decides — reused verbatim when it was recorded and no span of
    /// `dirty` touches the candidate's (node, support), re-derived from
    /// the ledger otherwise. Reuse is sound because a profile whose
    /// support is disjoint from every mutation contributes exactly `0.0`
    /// at every instant of the candidate's support, so it cannot move
    /// the timeline's peak over that support (the plateau-sum fast path
    /// is conservative-consistent: it can flip which code path answers
    /// but never the boolean).
    ///
    /// [`admits`]: Constraints::admits
    pub fn check_replays(
        &self,
        topo: &Topology,
        check: &AdmissionCheck,
        dirty: &LedgerDelta,
        cursor: &mut LedgerCursor,
    ) -> bool {
        if self.banned(check.loc, &check.candidate) {
            return !check.verdict;
        }
        if !topo.capacity(check.loc).is_finite() {
            return check.verdict;
        }
        let fits = match check.fits {
            Some(v)
                if !dirty.intersects(&[(
                    check.loc,
                    check.candidate.start,
                    check.candidate.end,
                )]) =>
            {
                v
            }
            _ => self.ledger.fits_cursor(topo, check.loc, &check.candidate, self.exclude, cursor),
        };
        fits == check.verdict
    }

    /// Rebind a trace whose every check was just verified (via
    /// [`Constraints::check_replays`]) to *these* forbidden windows, in
    /// both directions. A finite-capacity check the new windows ban
    /// answered without the ledger, so whatever capacity sub-verdict it
    /// carried was *not* re-derived by the replay and goes stale with the
    /// next commit inside its support: it is demoted to `fits = None`. A
    /// check recorded as ban-rejected (`fits == None`) that is no longer
    /// banned has just had its capacity sub-verdict derived from the
    /// ledger by the successful replay — it answered exactly `verdict`,
    /// or the replay would have failed — so the dependency is
    /// materialized (`fits = Some(verdict)`) and its support unioned into
    /// the ledger footprint. This restores the [`TrialTrace`] invariant
    /// that makes later validations sound: a finite-capacity check has
    /// `fits == None` iff the bans the trace is bound to reject it, and
    /// every other one is covered by the footprint.
    pub fn rebind_trace(&self, topo: &Topology, trace: &mut TrialTrace) {
        for i in 0..trace.checks.len() {
            let c = trace.checks[i];
            if !topo.capacity(c.loc).is_finite() {
                continue;
            }
            if self.banned(c.loc, &c.candidate) {
                trace.checks[i].fits = None;
            } else if c.fits.is_none() {
                trace.checks[i].fits = Some(c.verdict);
                trace.record_footprint(c.loc, c.candidate.start, c.candidate.end);
            }
        }
    }
}

/// One way of serving the current request.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    /// Incremental cost ΔΨ of this plan.
    cost: Dollars,
    /// Tie-break rank; lower wins among equal costs.
    priority: u8,
    /// Stream source (warehouse or a cache location).
    src: NodeId,
    /// New cache location, if this plan introduces one.
    new_cache: Option<NodeId>,
}

impl Candidate {
    fn beats(&self, other: &Candidate) -> bool {
        let tol = COST_EPS * (1.0 + self.cost.abs().max(other.cost.abs()));
        if self.cost < other.cost - tol {
            return true;
        }
        if self.cost > other.cost + tol {
            return false;
        }
        let key = |c: &Candidate| (c.priority, c.src.0, c.new_cache.map_or(u32::MAX, |n| n.0));
        key(self) < key(other)
    }
}

/// Compute the greedy schedule for one video's chronologically sorted
/// requests, ignoring storage capacities — the `find_video_schedule`
/// subroutine of the paper's Algorithm 1.
///
/// # Panics
///
/// Panics if `requests` is empty, unsorted, or mixes videos.
pub fn find_video_schedule(ctx: &SchedCtx<'_>, requests: &[Request]) -> VideoSchedule {
    greedy(ctx, requests, None, GreedyPolicy::default())
}

/// [`find_video_schedule`] under an explicit [`GreedyPolicy`] (ablations).
pub fn find_video_schedule_with(
    ctx: &SchedCtx<'_>,
    requests: &[Request],
    policy: GreedyPolicy,
) -> VideoSchedule {
    greedy(ctx, requests, None, policy)
}

/// Phase 1, `IVSP_solve` (paper Algorithm 1): schedule every video group
/// of the batch independently and take the union.
pub fn ivsp_solve(ctx: &SchedCtx<'_>, batch: &RequestBatch) -> Schedule {
    ivsp_solve_with(ctx, batch, GreedyPolicy::default())
}

/// [`ivsp_solve`] under an explicit [`GreedyPolicy`] (ablations). Video
/// groups are scheduled in input (video-id) order, on the calling thread.
pub fn ivsp_solve_with(ctx: &SchedCtx<'_>, batch: &RequestBatch, policy: GreedyPolicy) -> Schedule {
    batch.groups().map(|(_, group)| greedy(ctx, group, None, policy)).collect()
}

/// The rejective greedy (paper §4.4): recompute one video's schedule under
/// capacity and forbidden-placement constraints. Always succeeds — direct
/// warehouse delivery needs no storage.
pub fn reschedule_video(
    ctx: &SchedCtx<'_>,
    requests: &[Request],
    constraints: &Constraints<'_>,
) -> VideoSchedule {
    reschedule_video_with(ctx, requests, constraints, GreedyPolicy::default())
}

/// [`reschedule_video`] under an explicit [`GreedyPolicy`], so SORP
/// trials resolve overflows under the same policy phase 1 scheduled
/// with (e.g. the neighborhood-local regime the sharded solver's
/// Ψ-equality contract relies on).
pub fn reschedule_video_with(
    ctx: &SchedCtx<'_>,
    requests: &[Request],
    constraints: &Constraints<'_>,
    policy: GreedyPolicy,
) -> VideoSchedule {
    greedy(ctx, requests, Some(constraints), policy)
}

/// [`reschedule_video`] that additionally returns the trial's
/// dependency trace: the per-node footprint union of the
/// ledger-consulting checks plus the exact sequence of admission tests
/// and their answers. The schedule is bit-identical to
/// [`reschedule_video`]'s — tracing only records, it never filters —
/// and the trace is exactly what SORP's trial cache needs: bans or
/// ledger mutations that leave every recorded answer unchanged (checked
/// per check via [`Constraints::check_replays`]) cannot change any
/// admission answer, so the whole greedy replays identically.
pub fn reschedule_video_traced(
    ctx: &SchedCtx<'_>,
    requests: &[Request],
    constraints: &Constraints<'_>,
) -> (VideoSchedule, TrialTrace) {
    reschedule_video_traced_with(ctx, requests, constraints, GreedyPolicy::default())
}

/// [`reschedule_video_traced`] under an explicit [`GreedyPolicy`].
pub fn reschedule_video_traced_with(
    ctx: &SchedCtx<'_>,
    requests: &[Request],
    constraints: &Constraints<'_>,
    policy: GreedyPolicy,
) -> (VideoSchedule, TrialTrace) {
    let mut cursor = LedgerCursor::tracing();
    let vs = greedy_with_cursor(ctx, requests, Some(constraints), policy, &mut cursor);
    (vs, cursor.take_trace())
}

fn greedy(
    ctx: &SchedCtx<'_>,
    requests: &[Request],
    constraints: Option<&Constraints<'_>>,
    policy: GreedyPolicy,
) -> VideoSchedule {
    let mut cursor = LedgerCursor::new();
    greedy_with_cursor(ctx, requests, constraints, policy, &mut cursor)
}

/// What one greedy run knows about a storage node.
#[derive(Clone, Copy, PartialEq)]
enum Slot {
    /// Hosts no copy of the video: a relay-cache candidate.
    Free,
    /// Hosts a copy that can still be extended to serve a request.
    Cache,
    /// Hosts a copy whose extension was rejected (ban or capacity).
    Dead,
}

fn greedy_with_cursor(
    ctx: &SchedCtx<'_>,
    requests: &[Request],
    constraints: Option<&Constraints<'_>>,
    policy: GreedyPolicy,
    cursor: &mut LedgerCursor,
) -> VideoSchedule {
    let first = requests.first().expect("cannot schedule an empty request group");
    let vid = first.video;
    debug_assert!(
        requests.windows(2).all(|w| w[0].start <= w[1].start && w[0].video == w[1].video),
        "requests must be chronologically sorted and of one video"
    );
    let video = ctx.catalog.get(vid);
    let vw = ctx.topo.warehouse();
    let amortized = video.amortized_bytes();

    // Active caches, sorted by hosting storage for deterministic
    // iteration, mirrored densely by node index in `slots`.
    let mut caches: Vec<Residency> = Vec::new();
    let mut slots = vec![Slot::Free; ctx.topo.node_count()];
    let mut schedule = VideoSchedule::new(vid);
    // One delivery per request.
    schedule.transfers.reserve_exact(requests.len());

    for req in requests {
        let local = ctx.topo.home_of(req.user);
        let mut best: Option<Candidate> = None;
        let consider = |cand: Candidate, best: &mut Option<Candidate>| {
            // Degraded route tables (built around failed links) price
            // unreachable placements at infinity; they must never win,
            // not even on the priority tie-break (infinite tolerances
            // make the epsilon comparisons vacuous).
            if !cand.cost.is_finite() {
                return;
            }
            match best {
                Some(b) if !cand.beats(b) => {}
                _ => *best = Some(cand),
            }
        };

        // Enumerate sources: the warehouse plus every live cache.
        for cache in std::iter::once(None).chain(caches.iter().map(Some)) {
            let src = cache.map_or(vw, |r| r.loc);
            if slots[src.index()] == Slot::Dead {
                continue;
            }
            if !policy.allow_remote_placement && src != vw && src != local {
                continue;
            }

            // Direct-hop bound: no plan out of `src` undercuts shipping
            // the stream straight to `local` (triangle inequality on the
            // route table's rates; an extension never refunds storage), so
            // when even that loses to the incumbent beyond `beats`'
            // tolerance, every candidate of this source would be refused.
            let hop = amortized * ctx.routes.rate(src, local);
            if best.is_some_and(|b| hop * (1.0 - 3.0 * COST_EPS) > b.cost + 2.0 * COST_EPS) {
                continue;
            }
            let grown = cache.map(|r| extension(ctx, video, r, req.start));
            let ext = grown.map_or(0.0, |(cost, _)| cost);

            // Fold this source's plans into a copy of the incumbent; the
            // copy replaces it only once the source is known admissible.
            let mut lead = best;

            // (a) Deliver src → local.
            let priority = if !policy.prefer_local_cache_on_ties {
                0
            } else if src == local {
                1
            } else if src == vw {
                4
            } else {
                2
            };
            consider(Candidate { cost: hop + ext, priority, src, new_cache: None }, &mut lead);

            // (b) Deliver src → m → local, introducing a cache at m. The
            // new residency starts degenerate ([t, t], zero space), which
            // is always admissible; only later extensions are charged and
            // capacity-checked.
            if policy.allow_new_caches {
                let relay = |m: NodeId| Candidate {
                    cost: amortized * (ctx.routes.rate(src, m) + ctx.routes.rate(m, local)) + ext,
                    priority: if policy.prefer_local_cache_on_ties && m != local { 3 } else { 0 },
                    src,
                    new_cache: Some(m),
                };
                if !policy.allow_remote_placement {
                    if slots[local.index()] == Slot::Free {
                        consider(relay(local), &mut lead);
                    }
                } else {
                    // Walk the storages by ascending detour: the first free
                    // one is the cheapest new cache from `src`, and only the
                    // ones within the tie band of its cost can still beat it
                    // (on priority or id); everything further down the order
                    // loses to it outright.
                    let mut band = f64::INFINITY;
                    for &m in ctx.relay_order(src, local) {
                        if slots[m.index()] != Slot::Free {
                            continue;
                        }
                        let cand = relay(m);
                        if !cand.cost.is_finite() || cand.cost > band {
                            break;
                        }
                        band = band.min(cand.cost + 2.0 * COST_EPS * (1.0 + cand.cost));
                        consider(cand, &mut lead);
                    }
                }
            }

            // Admission is asked only of a cache about to take the lead:
            // a source that leads nowhere contributes nothing whether or
            // not its extension fits. Requests arrive chronologically and
            // a longer extension only occupies more, over a longer
            // support: rejected once, rejected for the rest of the run —
            // never tested (or traced) again — and a rejection not asked
            // for now is the one a later request would get.
            if let (Some(cons), Some((_, profile))) = (constraints, &grown) {
                if lead.is_some_and(|c| c.src == src) && !cons.admits(ctx, src, profile, cursor) {
                    slots[src.index()] = Slot::Dead;
                    continue;
                }
            }
            best = lead;
        }

        let plan = best.expect("direct warehouse delivery is always admissible");

        // Apply the chosen plan.
        if let Some(src_cache) = caches.iter_mut().find(|r| r.loc == plan.src) {
            src_cache.extend(*req);
        }
        schedule.transfers.push(ctx.delivery(req, plan.src, plan.new_cache));
        if let Some(m) = plan.new_cache {
            let at = caches.partition_point(|r| r.loc < m);
            caches.insert(at, Residency::begin(m, plan.src, *req));
            slots[m.index()] = Slot::Cache;
        }
    }

    schedule.residencies = caches;
    schedule
}

/// Extending cache `r` so its last service starts at `t`: the incremental
/// storage cost, and the grown occupancy profile an admission test would
/// have to place. Pure arithmetic — whether the extension is admissible
/// is the caller's question, asked only when the answer matters.
fn extension(ctx: &SchedCtx<'_>, video: &Video, r: &Residency, t: Secs) -> (Dollars, SpaceProfile) {
    debug_assert!(t >= r.last_service, "requests are processed chronologically");
    let model = ctx.model.space_model();
    let old = r.profile_with(video, model);
    let new = SpaceProfile::with_model(r.start, t, video.size, video.playback, model);
    (ctx.topo.srate(r.loc) * (new.integral() - old.integral()), new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_cost_model::{Catalog, CostModel};
    use vod_topology::{builders, units, Topology, UserId};

    /// Fig. 2 environment with the dollar-exact rates.
    fn fig2() -> (Topology, Catalog) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, 5.0);
        let video = Video::new(VideoId(0), units::gb(2.5), units::minutes(90.0), units::mbps(6.0));
        (topo, Catalog::new(vec![video]))
    }

    const T1: f64 = 13.0 * 3600.0;
    const T2: f64 = 14.5 * 3600.0;
    const T3: f64 = 16.0 * 3600.0;

    fn fig2_requests() -> Vec<Request> {
        vec![
            Request { user: UserId(0), video: VideoId(0), start: T1 },
            Request { user: UserId(1), video: VideoId(0), start: T2 },
            Request { user: UserId(2), video: VideoId(0), start: T3 },
        ]
    }

    #[test]
    fn greedy_beats_both_paper_example_schedules() {
        let (topo, catalog) = fig2();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let vs = find_video_schedule(&ctx, &fig2_requests());
        let cost = ctx.video_cost(&vs);
        // The paper's hand-enumerated S1 costs $259.20 and S2 $138.975;
        // the greedy must do at least as well as S2 (it additionally
        // caches at IS2, yielding $108.45).
        assert!(cost <= 138.975 + 1e-9, "greedy cost {cost}");
        assert!((cost - 108.45).abs() < 1e-6, "greedy cost {cost}");
        assert_eq!(vs.delivery_count(), 3);
    }

    #[test]
    fn greedy_caches_at_local_storage_first() {
        let (topo, catalog) = fig2();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let vs = find_video_schedule(&ctx, &fig2_requests());
        // U1's stream creates a cache at IS1, U2's at IS2.
        let locs: Vec<NodeId> = vs.residencies.iter().map(|r| r.loc).collect();
        assert!(locs.contains(&NodeId(1)));
        assert!(locs.contains(&NodeId(2)));
        // IS1's copy fed from the warehouse, IS2's from IS1.
        let r1 = vs.residencies.iter().find(|r| r.loc == NodeId(1)).unwrap();
        let r2 = vs.residencies.iter().find(|r| r.loc == NodeId(2)).unwrap();
        assert_eq!(r1.src, topo.warehouse());
        assert_eq!(r2.src, NodeId(1));
    }

    #[test]
    fn single_request_is_direct_with_free_relay_cache() {
        let (topo, catalog) = fig2();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let reqs = vec![Request { user: UserId(0), video: VideoId(0), start: T1 }];
        let vs = find_video_schedule(&ctx, &reqs);
        // Network: one stream VW→IS1 at $64.80; the relay cache is free.
        let cost = ctx.video_cost(&vs);
        assert!((cost - 64.8).abs() < 1e-9);
        assert_eq!(vs.transfers.len(), 1);
        assert_eq!(*vs.transfers[0].route, [NodeId(0), NodeId(1)]);
    }

    #[test]
    fn greedy_is_never_worse_than_all_direct() {
        // Property spot-check on the paper topology with a real workload.
        use vod_workload::{CatalogConfig, RequestConfig, Workload};
        let topo = builders::paper_fig4(&builders::PaperFig4Config::default());
        let wl = Workload::generate(&topo, &CatalogConfig::small(60), &RequestConfig::paper(), 9);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        for (_, group) in wl.requests.groups() {
            let vs = find_video_schedule(&ctx, group);
            let direct: Dollars = group
                .iter()
                .map(|r| {
                    let video = ctx.catalog.get(r.video);
                    video.amortized_bytes()
                        * ctx.routes.rate(topo.warehouse(), topo.home_of(r.user))
                })
                .sum();
            let cost = ctx.video_cost(&vs);
            assert!(
                cost <= direct + 1e-6,
                "greedy ({cost}) worse than all-direct ({direct}) for {} requests",
                group.len()
            );
        }
    }

    #[test]
    fn every_request_gets_exactly_one_delivery() {
        use vod_workload::{CatalogConfig, RequestConfig, Workload};
        let topo = builders::paper_fig4(&builders::PaperFig4Config::default());
        let wl = Workload::generate(&topo, &CatalogConfig::small(40), &RequestConfig::paper(), 4);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let schedule = ivsp_solve(&ctx, &wl.requests);
        assert_eq!(schedule.delivery_count(), wl.requests.len());
        // Deliveries terminate at the right local storage.
        for t in schedule.transfers() {
            if let Some(user) = t.user {
                assert_eq!(t.dst(), topo.home_of(user), "delivery must end at the local IS");
            }
        }
    }

    #[test]
    fn expensive_storage_suppresses_caching() {
        // With an enormous storage rate, extending any residency costs
        // more than re-shipping from the warehouse, so every delivery is
        // direct and every residency stays degenerate.
        let mut topo = builders::paper_fig2(16.0, 8.0, 1.0, 5.0);
        topo.set_uniform_srate(units::srate_per_gb_hour(1e7)).unwrap();
        let video = Video::new(VideoId(0), units::gb(2.5), units::minutes(90.0), units::mbps(6.0));
        let catalog = Catalog::new(vec![video]);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let vs = find_video_schedule(&ctx, &fig2_requests());
        let cost = ctx.video_cost(&vs);
        // All three direct: $259.20, the paper's S1.
        assert!((cost - 259.2).abs() < 1e-6, "cost {cost}");
        for r in &vs.residencies {
            assert_eq!(r.duration(), 0.0, "no residency should be extended");
        }
    }

    #[test]
    fn free_storage_caches_aggressively() {
        let mut topo = builders::paper_fig2(16.0, 8.0, 1.0, 5.0);
        topo.set_uniform_srate(0.0).unwrap();
        let video = Video::new(VideoId(0), units::gb(2.5), units::minutes(90.0), units::mbps(6.0));
        let catalog = Catalog::new(vec![video]);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let vs = find_video_schedule(&ctx, &fig2_requests());
        // U1: VW→IS1 ($64.8); U2: cache fill IS1→IS2 ($32.4); U3: free from
        // IS2's copy. Storage costs nothing.
        let cost = ctx.video_cost(&vs);
        assert!((cost - 97.2).abs() < 1e-6, "cost {cost}");
    }

    #[test]
    fn rejective_greedy_respects_forbidden_windows() {
        let (topo, catalog) = fig2();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let ledger = StorageLedger::new(&topo);
        // Forbid any occupancy at IS1 and IS2 for the whole day: the only
        // admissible plans are direct deliveries (degenerate caches).
        let forbidden =
            vec![(NodeId(1), Interval::new(0.0, 1e6)), (NodeId(2), Interval::new(0.0, 1e6))];
        let cons =
            Constraints { ledger: &ledger, exclude: Some(VideoId(0)), forbidden: &forbidden };
        let vs = reschedule_video(&ctx, &fig2_requests(), &cons);
        let cost = ctx.video_cost(&vs);
        assert!((cost - 259.2).abs() < 1e-6, "forbidden caching must force direct: {cost}");
        for r in &vs.residencies {
            assert_eq!(r.profile(catalog.get(r.video)).peak(), 0.0);
        }
    }

    #[test]
    fn rejective_greedy_respects_capacity() {
        let (topo, catalog) = fig2();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        // Another video already fills IS1 and IS2 completely all day.
        let mut ledger = StorageLedger::new(&topo);
        let full = SpaceProfile::new(0.0, 1e6, units::gb(5.0), units::minutes(90.0));
        ledger.add(NodeId(1), VideoId(9), full);
        ledger.add(NodeId(2), VideoId(9), full);
        let cons = Constraints { ledger: &ledger, exclude: Some(VideoId(0)), forbidden: &[] };
        let vs = reschedule_video(&ctx, &fig2_requests(), &cons);
        let cost = ctx.video_cost(&vs);
        assert!((cost - 259.2).abs() < 1e-6, "full stores must force direct: {cost}");
    }

    #[test]
    fn rejective_greedy_uses_partial_free_space() {
        let (topo, catalog) = fig2();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        // IS1 blocked, IS2 free: U2/U3 should be served via a cache at IS2
        // fed through the (blocked-for-storage but fine-for-relay) route.
        let mut ledger = StorageLedger::new(&topo);
        ledger.add(
            NodeId(1),
            VideoId(9),
            SpaceProfile::new(0.0, 1e6, units::gb(5.0), units::minutes(90.0)),
        );
        let cons = Constraints { ledger: &ledger, exclude: Some(VideoId(0)), forbidden: &[] };
        let vs = reschedule_video(&ctx, &fig2_requests(), &cons);
        // U1 direct ($64.8); U2 VW→IS1→IS2 caching at IS2 ($97.2); U3 from
        // IS2's copy (storage extension only, $5.625).
        let cost = ctx.video_cost(&vs);
        assert!((cost - 167.625).abs() < 1e-6, "cost {cost}");
        let r2 = vs.residencies.iter().find(|r| r.loc == NodeId(2)).unwrap();
        assert!(r2.duration() > 0.0);
    }

    #[test]
    fn reschedule_equals_unconstrained_when_nothing_binds() {
        let (topo, catalog) = fig2();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let ledger = StorageLedger::new(&topo);
        let cons = Constraints { ledger: &ledger, exclude: None, forbidden: &[] };
        let a = find_video_schedule(&ctx, &fig2_requests());
        let b = reschedule_video(&ctx, &fig2_requests(), &cons);
        assert!((ctx.video_cost(&a) - ctx.video_cost(&b)).abs() < 1e-9);
        assert_eq!(a.transfers.len(), b.transfers.len());
    }

    #[test]
    fn policy_without_new_caches_degenerates_to_direct() {
        let (topo, catalog) = fig2();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let policy = GreedyPolicy { allow_new_caches: false, ..Default::default() };
        let vs = find_video_schedule_with(&ctx, &fig2_requests(), policy);
        assert!(vs.residencies.is_empty());
        // All three direct: the paper's S1 at $259.20.
        assert!((ctx.video_cost(&vs) - 259.2).abs() < 1e-6);
    }

    #[test]
    fn policy_local_only_placement_never_caches_remotely() {
        let (topo, catalog) = fig2();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let policy = GreedyPolicy { allow_remote_placement: false, ..Default::default() };
        let vs = find_video_schedule_with(&ctx, &fig2_requests(), policy);
        for r in &vs.residencies {
            let locals: Vec<NodeId> = r.services.iter().map(|s| topo.home_of(s.user)).collect();
            assert!(locals.contains(&r.loc), "cache at {} serves no local user", r.loc);
        }
        // Still at least as cheap as all-direct (local caching helps U3).
        assert!(ctx.video_cost(&vs) <= 259.2 + 1e-6);
        // And no cheaper than the unrestricted greedy.
        let full = ctx.video_cost(&find_video_schedule(&ctx, &fig2_requests()));
        assert!(ctx.video_cost(&vs) >= full - 1e-6);
    }

    #[test]
    fn policy_ordering_default_beats_or_matches_restrictions() {
        use vod_workload::{CatalogConfig, RequestConfig, Workload};
        let topo = builders::paper_fig4(&builders::PaperFig4Config::default());
        let wl = Workload::generate(
            &topo,
            &CatalogConfig::small(60),
            &RequestConfig { requests_per_user: 2, ..RequestConfig::paper() },
            3,
        );
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let full = ctx.schedule_cost(&ivsp_solve(&ctx, &wl.requests));
        for policy in [
            GreedyPolicy { allow_new_caches: false, ..Default::default() },
            GreedyPolicy { allow_remote_placement: false, ..Default::default() },
        ] {
            let restricted = ctx.schedule_cost(&ivsp_solve_with(&ctx, &wl.requests, policy));
            assert!(
                full <= restricted + 1e-6,
                "restricted policy {policy:?} beat the full greedy: {restricted} < {full}"
            );
        }
    }

    #[test]
    fn policy_tie_break_variants_stay_within_cost_noise_on_fig2() {
        // Disabling the local-cache preference changes only tie-breaks,
        // and with strictly positive storage rates the schedules can
        // differ; the cost must never get *better* than the default's on
        // this instance (the default preference is cost-free).
        let (topo, catalog) = fig2();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let plain = GreedyPolicy { prefer_local_cache_on_ties: false, ..Default::default() };
        let a = ctx.video_cost(&find_video_schedule(&ctx, &fig2_requests()));
        let b = ctx.video_cost(&find_video_schedule_with(&ctx, &fig2_requests(), plain));
        assert!(a <= b + 1e-6, "default tie-break lost: {a} vs {b}");
    }

    #[test]
    #[should_panic(expected = "empty request group")]
    fn empty_group_panics() {
        let (topo, catalog) = fig2();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        find_video_schedule(&ctx, &[]);
    }
}
