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
//!
//! A traced run records each admission question it asks and the answer
//! it got ([`TrialTrace`]). That record is all the run observed of its
//! constraints, so [`Constraints::check_replays`] can tell from it alone
//! whether the run would go the same way under other bans and a ledger
//! that has moved since: SORP's trial cache reuses a memoized trial on
//! exactly that condition.

use crate::capacity::{AdmissionCheck, LedgerCursor, LedgerDelta, TrialTrace};
use crate::warm::HeldCopies;
use crate::{Interval, PricedSchedule, SchedCtx, StorageLedger};
use serde::{Deserialize, Serialize};
use vod_cost_model::{
    Dollars, Request, RequestBatch, Residency, Secs, SpaceProfile, Video, VideoId, VideoSchedule,
};
use vod_topology::{NodeId, Topology};

/// Relative tolerance for treating two candidate costs as equal, letting
/// the deterministic tie-break order decide. SORP's release sweep keeps a
/// re-placement only when it is cheaper by more than this share.
pub(crate) const COST_EPS: f64 = 1e-9;

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

/// Whether `profile` overlaps a window of `forbidden` at `loc` with
/// positive space — the ledger-independent half of admission.
fn banned(forbidden: &[(NodeId, Interval)], loc: NodeId, profile: &SpaceProfile) -> bool {
    if profile.peak() <= 0.0 {
        return false;
    }
    let support = Interval::new(profile.start, profile.end);
    forbidden.iter().any(|(floc, window)| *floc == loc && support.overlaps(window))
}

impl Constraints<'_> {
    /// Whether `profile` may be placed at storage `loc`: it must not
    /// overlap any forbidden window at `loc` with positive space, and it
    /// must fit under the storage's capacity together with everything
    /// else. The cursor carries reusable scratch buffers across admission
    /// tests so the hot path allocates nothing; when tracing, it records
    /// the question and the answer.
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
        let verdict = !banned(self.forbidden, loc, profile)
            && self.ledger.fits_cursor(ctx.topo, loc, profile, self.exclude, cursor);
        cursor.record_admission(loc, profile, verdict);
        verdict
    }

    /// Whether one [`AdmissionCheck`] recorded under the windows `bound`
    /// would get its answer again under *these* constraints — the current
    /// ledger and possibly other windows — given that the ledger has
    /// moved since only inside `dirty`. The greedy observes its
    /// constraints only through the sequence of [`admits`] answers, so by
    /// induction (each matching answer reproduces the exact state that
    /// determined the next test) matching answers for every recorded
    /// check imply an identical greedy execution and output.
    ///
    /// A check these windows ban answers `false`. One that neither they
    /// nor `bound` ban, and whose (node, support) no span of `dirty`
    /// touches, answered from the ledger then and would again: a profile
    /// whose support is disjoint from the candidate's contributes exactly
    /// `0.0` at every instant of it, so no mutation outside it can move
    /// the peak there (the plateau-sum fast path can change which code
    /// path answers, never the answer). Every other check asks the
    /// ledger. Nothing the trace stores depends on the windows, so a
    /// replay under other windows leaves nothing to go stale.
    ///
    /// [`admits`]: Constraints::admits
    pub fn check_replays(
        &self,
        topo: &Topology,
        bound: &[(NodeId, Interval)],
        check: &AdmissionCheck,
        dirty: &LedgerDelta,
        cursor: &mut LedgerCursor,
    ) -> bool {
        let AdmissionCheck { loc, candidate, verdict } = *check;
        if banned(self.forbidden, loc, &candidate) {
            return !verdict;
        }
        if !banned(bound, loc, &candidate)
            && !dirty.intersects(&[(loc, candidate.start, candidate.end)])
        {
            return true;
        }
        self.ledger.fits_cursor(topo, loc, &candidate, self.exclude, cursor) == verdict
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

/// The greedy schedule of one video's chronologically sorted requests
/// under `policy` — with no `constraints`, the `find_video_schedule`
/// subroutine of the paper's Algorithm 1, which ignores storage
/// capacities.
///
/// With `constraints` it is the rejective greedy (paper §4.4): capacity
/// and forbidden-placement filters on every candidate. SORP trials and
/// fault repair pass the policy the video was first scheduled with: they
/// must not place where phase 1 could not (e.g. the neighborhood-local
/// regime the sharded solver's Ψ-equality contract relies on). It always
/// succeeds — direct warehouse delivery needs no storage.
///
/// # Panics
///
/// Panics if `requests` is empty, unsorted, or mixes videos.
pub fn find_video_schedule(
    ctx: &SchedCtx<'_>,
    requests: &[Request],
    policy: GreedyPolicy,
    constraints: Option<&Constraints<'_>>,
) -> VideoSchedule {
    find_held_video_schedule(ctx, requests, &[], policy, constraints)
}

/// [`find_video_schedule`] starting from the copies `held` keeps of the
/// video, by storage (see [`HeldCopies`]): how fault repair re-places a
/// video of a cycle that inherited some.
pub(crate) fn find_held_video_schedule(
    ctx: &SchedCtx<'_>,
    requests: &[Request],
    held: &[Residency],
    policy: GreedyPolicy,
    constraints: Option<&Constraints<'_>>,
) -> VideoSchedule {
    greedy_with_cursor(ctx, requests, held, constraints, policy, &mut GreedyScratch::default())
}

/// Phase 1, `IVSP_solve` (paper Algorithm 1): schedule every video group
/// of the batch independently under `policy`, pricing each schedule as it
/// is built, and take the union. Video groups are scheduled in input
/// (video-id) order, on the calling thread. The result is ready for
/// [`crate::sorp_solve`] with no full `schedule_cost` pass in between.
pub fn ivsp_solve(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    policy: GreedyPolicy,
) -> PricedSchedule {
    place(ctx, batch, policy, None, &HeldCopies::default())
}

/// Schedule every video group of the batch in input (video-id) order
/// under `policy`, pricing each schedule as it is built. With no
/// `ledger` this is [`ivsp_solve`]. With one it is the rejective pass
/// (paper §4.4): each group runs the rejective greedy against the
/// ledger, and its residencies join the ledger before the next group.
/// The pass places nothing where it does not fit, so it adds no overflow
/// to the ledger. Where no capacity binds, every admission test passes
/// and the schedule is [`ivsp_solve`]'s, bit for bit. Each group's run
/// starts from the copies `held` keeps of its video.
pub(crate) fn place(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    policy: GreedyPolicy,
    mut ledger: Option<&mut StorageLedger>,
    held: &HeldCopies,
) -> PricedSchedule {
    let mut scratch = GreedyScratch::default();
    let pairs = batch
        .groups()
        .map(|(vid, group)| {
            let held = held.of(vid);
            let vs = match ledger.as_deref_mut() {
                None => greedy_with_cursor(ctx, group, held, None, policy, &mut scratch),
                Some(ledger) => {
                    let cons = Constraints { ledger, exclude: None, forbidden: &[] };
                    let vs =
                        greedy_with_cursor(ctx, group, held, Some(&cons), policy, &mut scratch);
                    for r in &vs.residencies {
                        ledger.add(r.loc, r.video, r.profile(ctx.catalog.get(r.video)));
                    }
                    vs
                }
            };
            let cost = ctx.video_cost(&vs);
            (vs, cost)
        })
        .collect();
    PricedSchedule::from_priced_videos(pairs)
}

/// The rejective [`find_video_schedule`] that additionally returns the
/// trial's dependency trace: the exact sequence of admission tests and
/// their answers, and the per-node union of their supports. The schedule
/// is bit-identical to the untraced one's — tracing only records, it
/// never filters — and the trace is exactly what SORP's trial cache
/// needs: bans or ledger mutations that leave every recorded answer
/// unchanged (checked per check via [`Constraints::check_replays`])
/// cannot change any admission answer, so the whole greedy replays
/// identically.
pub fn reschedule_video_traced(
    ctx: &SchedCtx<'_>,
    requests: &[Request],
    constraints: &Constraints<'_>,
    policy: GreedyPolicy,
) -> (VideoSchedule, TrialTrace) {
    reschedule_traced_in(ctx, requests, &[], constraints, policy, &mut GreedyScratch::default())
}

/// [`reschedule_video_traced`] in `scratch`, from the copies `held`.
pub(crate) fn reschedule_traced_in(
    ctx: &SchedCtx<'_>,
    requests: &[Request],
    held: &[Residency],
    constraints: &Constraints<'_>,
    policy: GreedyPolicy,
    scratch: &mut GreedyScratch,
) -> (VideoSchedule, TrialTrace) {
    scratch.cursor.start_trace();
    let vs = greedy_with_cursor(ctx, requests, held, Some(constraints), policy, scratch);
    (vs, scratch.cursor.take_trace())
}

/// The buffers greedy runs work in, kept across the runs of one phase-1
/// solve or one resolution pass: the dense slot table and the admission
/// cursor's scratch. A run's output never borrows from them.
#[derive(Default)]
pub(crate) struct GreedyScratch {
    slots: Vec<Slot>,
    cursor: LedgerCursor,
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

/// The greedy run itself, in `scratch`: rejective under `constraints`,
/// traced when the scratch cursor is.
pub(crate) fn greedy_with_cursor(
    ctx: &SchedCtx<'_>,
    requests: &[Request],
    held: &[Residency],
    constraints: Option<&Constraints<'_>>,
    policy: GreedyPolicy,
    scratch: &mut GreedyScratch,
) -> VideoSchedule {
    let GreedyScratch { slots, cursor } = scratch;
    // Cannot fire from the solver: every caller passes a batch group or a
    // video's delivered requests, and the batch has no empty group.
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
    // iteration, mirrored densely by node index in `slots`. They start as
    // the copies an earlier cycle held for this run: each extends like any
    // cache, and enters the schedule only if it serves.
    let mut caches: Vec<Residency> = held.iter().map(Residency::carry).collect();
    debug_assert!(caches.windows(2).all(|w| w[0].loc < w[1].loc), "held copies by storage");
    slots.clear();
    slots.resize(ctx.topo.node_count(), Slot::Free);
    for c in &caches {
        slots[c.loc.index()] = Slot::Cache;
    }
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
            // A held copy serves from the instant it was held to on.
            if slots[src.index()] == Slot::Dead || cache.is_some_and(|r| req.start < r.last_service)
            {
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

        // Cannot fire: the warehouse, the first source, is never dead, asks
        // no admission, and reaches every home a caller passes at a finite
        // rate (repair passes only homes reachable around failed links).
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

    caches.retain(|r| r.service_count > 0);
    schedule.residencies = caches;
    schedule
}

/// Extending cache `r` so its last service starts at `t`: the incremental
/// storage cost, and the grown occupancy profile an admission test would
/// have to place. Pure arithmetic — whether the extension is admissible
/// is the caller's question, asked only when the answer matters. The
/// commit prices a hold to the next cycle with it too.
pub(crate) fn extension(
    ctx: &SchedCtx<'_>,
    video: &Video,
    r: &Residency,
    t: Secs,
) -> (Dollars, SpaceProfile) {
    debug_assert!(t >= r.last_service, "requests are processed chronologically");
    let model = ctx.model.space_model();
    let old = r.profile_with(video, model);
    let new = Residency { last_service: t, ..r.clone() }.profile_with(video, model);
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

    /// A held copy is a cache from the instant it was held to: a later
    /// request extends it instead of fetching the title, an earlier one
    /// cannot use it, and a copy no request extends stays out of the
    /// schedule.
    #[test]
    fn a_held_copy_serves_as_an_existing_cache_from_its_hold() {
        let (topo, catalog) = fig2();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let (is1, is2) = (NodeId(1), NodeId(2));
        let hold = 15.0 * 3600.0;
        let copy = |loc| {
            let first = Request { user: UserId(1), video: VideoId(0), start: 10.0 * 3600.0 };
            Residency { last_service: hold, ..Residency::begin(loc, topo.warehouse(), first) }
        };
        let reqs = [
            Request { user: UserId(2), video: VideoId(0), start: 14.0 * 3600.0 },
            Request { user: UserId(2), video: VideoId(0), start: T3 },
        ];
        let held = [copy(is1), copy(is2)];
        let policy = GreedyPolicy::default();
        let vs = greedy_with_cursor(&ctx, &reqs, &held, None, policy, &mut Default::default());
        let carried =
            Residency { last_service: T3, service_count: 1, ..Residency::carry(&held[1]) };
        assert_eq!(vs.residencies, vec![carried], "only the extended copy ships");
        let srcs: Vec<NodeId> = vs.transfers.iter().map(|t| t.src()).collect();
        assert_eq!(srcs, vec![topo.warehouse(), is2], "the early request fetches the title");
        // $97.20 to fetch 4.05 GB over $24/GB, $2.50 to keep 2.5 GB an hour.
        assert!((ctx.video_cost(&vs) - 99.7).abs() < 1e-9, "{}", ctx.video_cost(&vs));
    }

    #[test]
    fn greedy_beats_both_paper_example_schedules() {
        let (topo, catalog) = fig2();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let vs = find_video_schedule(&ctx, &fig2_requests(), GreedyPolicy::default(), None);
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
        let vs = find_video_schedule(&ctx, &fig2_requests(), GreedyPolicy::default(), None);
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
        let vs = find_video_schedule(&ctx, &reqs, GreedyPolicy::default(), None);
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
            let vs = find_video_schedule(&ctx, group, GreedyPolicy::default(), None);
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
        let schedule = ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default()).into_schedule();
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
        let vs = find_video_schedule(&ctx, &fig2_requests(), GreedyPolicy::default(), None);
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
        let vs = find_video_schedule(&ctx, &fig2_requests(), GreedyPolicy::default(), None);
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
        let vs = find_video_schedule(&ctx, &fig2_requests(), GreedyPolicy::default(), Some(&cons));
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
        let vs = find_video_schedule(&ctx, &fig2_requests(), GreedyPolicy::default(), Some(&cons));
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
        let vs = find_video_schedule(&ctx, &fig2_requests(), GreedyPolicy::default(), Some(&cons));
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
        let a = find_video_schedule(&ctx, &fig2_requests(), GreedyPolicy::default(), None);
        let b = find_video_schedule(&ctx, &fig2_requests(), GreedyPolicy::default(), Some(&cons));
        assert!((ctx.video_cost(&a) - ctx.video_cost(&b)).abs() < 1e-9);
        assert_eq!(a.transfers.len(), b.transfers.len());
    }

    #[test]
    fn policy_without_new_caches_degenerates_to_direct() {
        let (topo, catalog) = fig2();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let policy = GreedyPolicy { allow_new_caches: false, ..Default::default() };
        let vs = find_video_schedule(&ctx, &fig2_requests(), policy, None);
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
        let vs = find_video_schedule(&ctx, &fig2_requests(), policy, None);
        for r in &vs.residencies {
            // The cache's services: the delivery that fills it (starting at
            // `t_s`, routed from its source through it) and those it serves.
            let locals: Vec<NodeId> = vs
                .transfers
                .iter()
                .filter(|t| {
                    let fills = t.start == r.start && t.src() == r.src && t.route.contains(&r.loc);
                    let served = t.src() == r.loc && (r.start..=r.last_service).contains(&t.start);
                    fills || served
                })
                .filter_map(|t| t.user.map(|u| topo.home_of(u)))
                .collect();
            assert!(locals.contains(&r.loc), "cache at {} serves no local user", r.loc);
        }
        // Still at least as cheap as all-direct (local caching helps U3).
        assert!(ctx.video_cost(&vs) <= 259.2 + 1e-6);
        // And no cheaper than the unrestricted greedy.
        let full = ctx.video_cost(&find_video_schedule(
            &ctx,
            &fig2_requests(),
            GreedyPolicy::default(),
            None,
        ));
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
        let full =
            ctx.schedule_cost(ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default()).schedule());
        for policy in [
            GreedyPolicy { allow_new_caches: false, ..Default::default() },
            GreedyPolicy { allow_remote_placement: false, ..Default::default() },
        ] {
            let restricted = ctx.schedule_cost(ivsp_solve(&ctx, &wl.requests, policy).schedule());
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
        let a = ctx.video_cost(&find_video_schedule(
            &ctx,
            &fig2_requests(),
            GreedyPolicy::default(),
            None,
        ));
        let b = ctx.video_cost(&find_video_schedule(&ctx, &fig2_requests(), plain, None));
        assert!(a <= b + 1e-6, "default tie-break lost: {a} vs {b}");
    }

    #[test]
    #[should_panic(expected = "empty request group")]
    fn empty_group_panics() {
        let (topo, catalog) = fig2();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        find_video_schedule(&ctx, &[], GreedyPolicy::default(), None);
    }
}
