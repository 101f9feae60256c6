//! Incremental schedule repair after injected faults (degraded-mode
//! operation).
//!
//! Repair is one more pass over a solve's own state: given a
//! [`FaultPlan`], it invalidates only the videos a fault actually breaks
//! ([`FaultPlan::impact`]) and re-admits them through the existing SORP
//! machinery: the rejective greedy re-sources each broken service from
//! the warehouse or a surviving cache, routed over a degraded route
//! table that avoids every failed link, with the outage windows handed
//! to the greedy as forbidden placement intervals. It admits against the
//! state's ledger — the schedule *and* the base occupancy it was solved
//! over (the service's committed book; empty under [`repair_schedule`])
//! — and lands through the state's commit. The untouched majority of the
//! schedule keeps its memoized Ψ — repair cost is the sum of per-video
//! commit deltas, exactly like a SORP iteration, not a from-scratch
//! reschedule.
//!
//! Requests whose home storage is unreachable without the failed links
//! cannot be rerouted at their reserved time. For those the repair
//! retries in sim-time with exponential backoff
//! (`start + base_backoff · 2^(k−1)` for attempt `k`), delivering
//! directly over the original route in the first window where every hop
//! is fault-free for a full playback. When no attempt within
//! [`RepairConfig::max_retries`] finds a clear window, the request is
//! *shed* — reported in the outcome (lowest-heat first, where a video's
//! heat is its delivered-request count, the popularity proxy) instead
//! of panicking or silently dropping service.

use crate::greedy::{reschedule_video, Constraints};
use crate::sorp::SolveState;
use crate::{Interval, PricedSchedule, SchedCtx, StorageLedger};
use vod_cost_model::{Dollars, Request, Secs, Transfer, VideoId, VideoSchedule};
use vod_faults::{FaultError, FaultPlan};
use vod_topology::RouteTable;

/// Retry/backoff policy for bridge-dependent requests.
#[derive(Clone, Debug)]
pub struct RepairConfig {
    /// Maximum delayed delivery attempts per request (attempt 0 at the
    /// reserved time is free; each later attempt backs off exponentially).
    pub max_retries: u32,
    /// First backoff step in seconds; attempt `k ≥ 1` fires at
    /// `start + base_backoff · 2^(k−1)`.
    pub base_backoff: Secs,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self { max_retries: 4, base_backoff: 900.0 }
    }
}

/// Why a request was shed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// Every delivery attempt within the retry budget hit an active
    /// link failure on the only route to the user's home storage.
    RetriesExhausted,
}

/// One request the repair could not serve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShedRecord {
    /// The dropped request (original reserved time).
    pub request: Request,
    /// The video's heat proxy: its delivered-request count before the
    /// fault. Records are sorted ascending, lowest-heat first.
    pub heat: usize,
    /// Why no feasible repair existed.
    pub reason: ShedReason,
}

/// One request served later than reserved (backoff found a clear window).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelayRecord {
    /// The request at its original reserved time.
    pub request: Request,
    /// The delivery time the repair settled on.
    pub delayed_start: Secs,
    /// Which backoff attempt succeeded (`1` = first retry).
    pub attempts: u32,
}

/// The result of [`repair_schedule`].
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// The repaired schedule (untouched videos bit-identical).
    pub priced: PricedSchedule,
    /// Ψ of the schedule before repair.
    pub pre_repair_cost: Dollars,
    /// Videos the repair re-admitted, ascending.
    pub repaired_videos: Vec<VideoId>,
    /// Requests shed for lack of any feasible repair, lowest heat first.
    pub shed: Vec<ShedRecord>,
    /// Requests delivered late after backoff.
    pub delayed: Vec<DelayRecord>,
    /// Total backoff attempts spent across all bridge-dependent requests.
    pub retry_attempts: u32,
    /// Whether the plan broke nothing and the schedule is bit-identical
    /// to the input.
    pub unchanged: bool,
}

impl RepairOutcome {
    /// Ψ of the repaired schedule.
    pub fn cost(&self) -> Dollars {
        self.priced.total()
    }

    /// The request set the repaired schedule actually serves: `original`
    /// minus shed requests, with delayed requests shifted to their
    /// delivery time. This is what strict replay must check coverage
    /// against.
    pub fn adjusted_requests(&self, original: &[Request]) -> Vec<Request> {
        adjusted_requests(&self.shed, &self.delayed, original)
    }
}

/// What one repair pass did, besides moving its state's schedule: the
/// like-named fields of [`RepairOutcome`].
#[derive(Default)]
pub(crate) struct RepairPass {
    repaired_videos: Vec<VideoId>,
    pub(crate) shed: Vec<ShedRecord>,
    pub(crate) delayed: Vec<DelayRecord>,
    retry_attempts: u32,
}

/// [`RepairOutcome::adjusted_requests`] over a pass's records.
pub(crate) fn adjusted_requests(
    shed: &[ShedRecord],
    delayed: &[DelayRecord],
    original: &[Request],
) -> Vec<Request> {
    let key = |r: &Request| (r.user, r.video, r.start.to_bits());
    let shed: std::collections::HashSet<_> = shed.iter().map(|s| key(&s.request)).collect();
    let delayed: std::collections::HashMap<_, Secs> =
        delayed.iter().map(|d| (key(&d.request), d.delayed_start)).collect();
    original
        .iter()
        .filter(|r| !shed.contains(&key(r)))
        .map(|r| match delayed.get(&key(r)) {
            Some(&t) => Request { start: t, ..*r },
            None => *r,
        })
        .collect()
}

/// The multiplier of backoff attempt `attempt` (1-based): `2^(attempt−1)`,
/// the exponent clamped at 16 — past 2^16 a delay is already far beyond
/// any fault window or cycle cap, and an unclamped exponent is a shift
/// overflow once a retry budget reaches 65. Shared by the in-cycle
/// repair retries here and [`crate::BackoffPolicy::delay`].
pub(crate) fn backoff_multiplier(attempt: u32) -> u64 {
    1u64 << attempt.saturating_sub(1).min(16)
}

/// Repair a committed schedule against a fault plan. Deterministic:
/// the same schedule + plan + config always yields bit-identical repair
/// decisions. An empty or irrelevant plan returns the input schedule
/// unchanged (bit-identical, `unchanged = true`). Errs only when the
/// plan does not validate against the topology.
pub fn repair_schedule(
    ctx: &SchedCtx<'_>,
    priced: PricedSchedule,
    plan: &FaultPlan,
    cfg: &RepairConfig,
) -> Result<RepairOutcome, FaultError> {
    plan.validate(ctx.topo)?;
    let pre_repair_cost = priced.total();
    let mut state = SolveState::new(ctx, priced, StorageLedger::new(ctx.topo));
    let RepairPass { repaired_videos, shed, delayed, retry_attempts } =
        repair_state(ctx, &mut state, plan, cfg);
    Ok(RepairOutcome {
        priced: state.priced,
        pre_repair_cost,
        unchanged: repaired_videos.is_empty(),
        repaired_videos,
        shed,
        delayed,
        retry_attempts,
    })
}

/// The repair pass, for a `plan` already validated against `ctx.topo` —
/// or made of faults taken from one that was, which is how the service
/// loop calls it every faulted cycle, on the state its solve returned.
pub(crate) fn repair_state(
    ctx: &SchedCtx<'_>,
    state: &mut SolveState,
    plan: &FaultPlan,
    cfg: &RepairConfig,
) -> RepairPass {
    let impact = plan.impact(state.priced.schedule(), ctx.catalog, ctx.model.space_model());
    if impact.affected_videos.is_empty() {
        return RepairPass::default();
    }
    let pre_repair_cost = state.priced.total();

    // Degraded context: route around every failed link for the whole
    // horizon (conservative — a repaired stream must not depend on the
    // timing of a failure), while pricing stays on the real rates.
    // Pure-outage plans break no links, so the degraded table would be
    // identical to the pristine one — reuse it instead of re-running
    // Dijkstra from every source (the dominant constant cost of
    // small-batch repairs).
    let failed_links = plan.failed_links();
    let owned_dctx;
    let dctx: &SchedCtx<'_> = if failed_links.is_empty() {
        ctx
    } else {
        let droutes = RouteTable::build_avoiding(ctx.topo, &failed_links);
        owned_dctx = SchedCtx::with_routes(ctx.topo, droutes, ctx.model, ctx.catalog);
        &owned_dctx
    };

    // The state's ledger holds the whole schedule over its base;
    // repaired videos are excluded per-video via `Constraints::exclude`
    // and re-entered on commit, exactly like a SORP iteration.
    let forbidden: Vec<_> = plan
        .outage_windows()
        .into_iter()
        .map(|(node, from, until)| (node, Interval::new(from, until)))
        .collect();

    let vw = ctx.topo.warehouse();
    let mut shed = Vec::new();
    let mut delayed = Vec::new();
    let mut retry_attempts = 0u32;
    let repaired_videos: Vec<VideoId> = impact.affected_videos.iter().copied().collect();

    for &vid in &repaired_videos {
        // Impact only lists scheduled videos, but the service loop feeds
        // this path continuously — a stale or hostile plan must degrade
        // to a skip, never a panic.
        let Some(old_vs) = state.priced.schedule().video(vid) else { continue };
        let requests = old_vs.delivered_requests();
        let heat = requests.len();
        let playback = ctx.catalog.get(vid).playback;

        // Partition: requests whose home is reachable around the failed
        // links are re-admitted at their reserved time; the rest depend
        // on a failed bridge and enter the retry/backoff path.
        let mut servable = Vec::new();
        let mut bridge_dependent = Vec::new();
        for req in requests {
            if dctx.routes.reachable(vw, ctx.topo.home_of(req.user)) {
                servable.push(req);
            } else {
                bridge_dependent.push(req);
            }
        }

        let mut new_vs = if servable.is_empty() {
            VideoSchedule::new(vid)
        } else {
            let cons =
                Constraints { ledger: &state.ledger, exclude: Some(vid), forbidden: &forbidden };
            reschedule_video(dctx, &servable, &cons)
        };

        for req in bridge_dependent {
            // The original cheapest route exists on the full topology;
            // deliver over it in the first backoff window where every
            // hop stays up for the whole playback.
            let route = ctx
                .routes
                .shared_path(vw, ctx.topo.home_of(req.user))
                .expect("the intact topology reaches every home");
            let mut served = false;
            for k in 0..=cfg.max_retries {
                let t = if k == 0 {
                    req.start
                } else {
                    retry_attempts += 1;
                    req.start + cfg.base_backoff * backoff_multiplier(k) as f64
                };
                let clear = route
                    .windows(2)
                    .all(|hop| !plan.link_failed_during(hop[0], hop[1], t, t + playback));
                if clear {
                    let shifted = Request { start: t, ..req };
                    new_vs.transfers.push(Transfer::for_user(&shifted, route.clone()));
                    if k > 0 {
                        delayed.push(DelayRecord { request: req, delayed_start: t, attempts: k });
                    }
                    served = true;
                    break;
                }
            }
            if !served {
                shed.push(ShedRecord { request: req, heat, reason: ShedReason::RetriesExhausted });
            }
        }

        state.commit(ctx, new_vs);
    }

    // Graceful degradation reports lowest-heat casualties first; ties
    // break on (video, user, time) for determinism.
    shed.sort_by(|a, b| {
        (a.heat, a.request.video, a.request.user)
            .cmp(&(b.heat, b.request.video, b.request.user))
            .then(a.request.start.total_cmp(&b.request.start))
    });

    ctx.recorder.event("repair", |e| {
        e.u64("repaired_videos", repaired_videos.len() as u64)
            .u64("shed", shed.len() as u64)
            .u64("delayed", delayed.len() as u64)
            .u64("retry_attempts", retry_attempts as u64)
            .f64("pre_repair_cost", pre_repair_cost)
            .f64("post_repair_cost", state.priced.total());
    });

    RepairPass { repaired_videos, shed, delayed, retry_attempts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ivsp_solve_priced, sorp_solve_priced, ExecMode, SorpConfig};
    use vod_cost_model::CostModel;
    use vod_faults::{Fault, FaultConfig};
    use vod_topology::{builders, NodeId, Topology};
    use vod_workload::{CatalogConfig, RequestConfig, Workload};

    fn world(capacity_gb: f64, seed: u64) -> (Topology, Workload) {
        let cfg = builders::PaperFig4Config { capacity_gb, ..Default::default() };
        let topo = builders::paper_fig4(&cfg);
        let wl =
            Workload::generate(&topo, &CatalogConfig::small(40), &RequestConfig::paper(), seed);
        (topo, wl)
    }

    fn committed(ctx: &SchedCtx<'_>, wl: &Workload) -> PricedSchedule {
        let phase1 = ivsp_solve_priced(ctx, &wl.requests);
        let outcome =
            sorp_solve_priced(ctx, phase1, &SorpConfig::default(), &[], ExecMode::Sequential);
        PricedSchedule::price(ctx, outcome.schedule)
    }

    #[test]
    fn empty_plan_is_a_bit_identical_noop() {
        let (topo, wl) = world(5.0, 21);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let priced = committed(&ctx, &wl);
        let before = priced.schedule().clone();
        let total = priced.total();

        let out =
            repair_schedule(&ctx, priced, &FaultPlan::empty(), &RepairConfig::default()).unwrap();
        assert!(out.unchanged);
        assert_eq!(out.priced.schedule(), &before, "no-op repair must be bit-identical");
        assert_eq!(out.cost(), total);
        assert!(out.shed.is_empty() && out.delayed.is_empty());
        assert_eq!(out.retry_attempts, 0);
    }

    #[test]
    fn irrelevant_fault_is_also_a_noop() {
        let (topo, wl) = world(5.0, 22);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let priced = committed(&ctx, &wl);
        let before = priced.schedule().clone();

        // An outage far outside the horizon breaks nothing.
        let plan =
            FaultPlan::new(vec![Fault::NodeOutage { node: NodeId(1), from: 1e9, until: 2e9 }]);
        let out = repair_schedule(&ctx, priced, &plan, &RepairConfig::default()).unwrap();
        assert!(out.unchanged);
        assert_eq!(out.priced.schedule(), &before);
    }

    #[test]
    fn invalid_plan_is_a_typed_error() {
        let (topo, wl) = world(5.0, 23);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let priced = committed(&ctx, &wl);
        let plan = FaultPlan::new(vec![Fault::NodeOutage {
            node: topo.warehouse(),
            from: 0.0,
            until: 1.0,
        }]);
        let err = repair_schedule(&ctx, priced, &plan, &RepairConfig::default()).unwrap_err();
        assert_eq!(err, FaultError::WarehouseOutage(topo.warehouse()));
    }

    #[test]
    fn outage_repair_moves_residencies_off_the_down_node() {
        let (topo, wl) = world(5.0, 24);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let priced = committed(&ctx, &wl);

        // Find a storage actually hosting data mid-horizon.
        let victim = priced
            .schedule()
            .residencies()
            .find(|r| r.last_service > r.start)
            .map(|r| r.loc)
            .expect("committed schedule caches something");
        let plan = FaultPlan::new(vec![Fault::NodeOutage {
            node: victim,
            from: 0.0,
            until: 48.0 * 3600.0,
        }]);
        let impact = plan.impact(priced.schedule(), &wl.catalog, model.space_model());
        assert!(!impact.broken_residencies.is_empty());

        let out = repair_schedule(&ctx, priced, &plan, &RepairConfig::default()).unwrap();
        assert!(!out.unchanged);
        assert_eq!(out.repaired_videos, impact.affected_videos.iter().copied().collect::<Vec<_>>());
        // No repaired video may still store data at the down node during
        // the outage.
        let space = model.space_model();
        for &vid in &out.repaired_videos {
            let vs = out.priced.schedule().video(vid).unwrap();
            for r in &vs.residencies {
                let p = r.profile_with(ctx.catalog.get(vid), space);
                assert!(
                    !(r.loc == victim && p.peak() > 0.0),
                    "video {vid:?} still caches at the down node"
                );
            }
        }
        // Nothing was shed: every home stays reachable (no link failures).
        assert!(out.shed.is_empty());
        assert!(out.delayed.is_empty());
        // The plan no longer breaks anything.
        let post = plan.impact(out.priced.schedule(), &wl.catalog, space);
        assert!(post.is_empty(), "repair left broken services: {post:?}");
        assert!(out.priced.consistent_with(&ctx), "pricing memo diverged");
    }

    #[test]
    fn repair_over_carried_occupancy_admits_against_base_plus_schedule() {
        // Every store carries a squatter that leaves room for one file and
        // no more; the batch is resolved over it, then a third of the
        // stores go down all day and every broken video is re-placed. The
        // pass admits on the state's own ledger, so base + schedule stays
        // feasible (a ledger rebuilt from the schedule alone would show
        // the squatted stores as empty and fill them twice).
        let (topo, wl) = world(5.0, 26);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let largest = wl.catalog.iter().map(|v| v.size).fold(0.0, f64::max);
        let mut base = StorageLedger::new(&topo);
        for loc in topo.storages() {
            let plateau = topo.capacity(loc) - largest;
            let squatter = vod_cost_model::SpaceProfile {
                start: 0.0,
                full: 0.0,
                last: 1e7,
                end: 1e7,
                plateau,
            };
            base.add(loc, crate::EXTERNAL_OCCUPANCY, squatter);
        }
        let mut state = SolveState::new(&ctx, ivsp_solve_priced(&ctx, &wl.requests), base);
        state.resolve(&ctx, &SorpConfig::default());
        assert!(crate::detect_overflows(&topo, &state.ledger).is_empty());

        let down = topo.storages().step_by(3);
        let plan = FaultPlan::new(
            down.map(|node| Fault::NodeOutage { node, from: 0.0, until: 86_400.0 }).collect(),
        );
        let pass = repair_state(&ctx, &mut state, &plan, &RepairConfig::default());
        assert!(!pass.repaired_videos.is_empty(), "the outages broke nothing");
        let moved = pass.repaired_videos.iter().filter_map(|&v| state.priced.schedule().video(v));
        assert!(moved.flat_map(|vs| &vs.residencies).count() > 0, "repair cached nothing anew");
        let over = crate::detect_overflows(&topo, &state.ledger);
        assert!(over.is_empty(), "repair over-committed base + schedule: {over:?}");
        assert!(state.priced.consistent_with(&ctx), "pricing memo diverged");
    }

    #[test]
    fn repair_is_deterministic() {
        let (topo, wl) = world(5.0, 25);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let plan = FaultPlan::generate(&topo, &FaultConfig::default(), 77);

        let run = || {
            let priced = committed(&ctx, &wl);
            let out = repair_schedule(&ctx, priced, &plan, &RepairConfig::default()).unwrap();
            (out.priced.schedule().clone(), out.cost(), out.shed, out.delayed)
        };
        let (s1, c1, shed1, delayed1) = run();
        let (s2, c2, shed2, delayed2) = run();
        assert_eq!(s1, s2, "same plan must give bit-identical repairs");
        assert_eq!(c1, c2);
        assert_eq!(shed1, shed2);
        assert_eq!(delayed1, delayed2);
    }

    /// A line topology VW—IS1—IS2 where IS2's only route crosses IS1—IS2:
    /// failing that bridge forces backoff, and a failure outlasting the
    /// budget forces shedding.
    fn line() -> (Topology, Workload) {
        let mut b = vod_topology::TopologyBuilder::new();
        let vw = b.add_warehouse("VW");
        let is1 = b.add_storage("IS1", vod_topology::units::srate_per_gb_hour(1.0), 5e9);
        let is2 = b.add_storage("IS2", vod_topology::units::srate_per_gb_hour(1.0), 5e9);
        b.connect(vw, is1, vod_topology::units::nrate_per_gb(100.0)).unwrap();
        b.connect(is1, is2, vod_topology::units::nrate_per_gb(100.0)).unwrap();
        b.add_users(is1, 2);
        b.add_users(is2, 2);
        let topo = b.build().unwrap();
        let wl = Workload::generate(&topo, &CatalogConfig::small(6), &RequestConfig::paper(), 31);
        (topo, wl)
    }

    #[test]
    fn bridge_failure_delays_or_sheds_cut_off_requests() {
        let (topo, wl) = line();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let priced = committed(&ctx, &wl);

        // Fail the IS1—IS2 bridge around some victim delivery long enough
        // that the first backoff attempts land inside the failure but a
        // later one clears it.
        let victim = priced
            .schedule()
            .transfers()
            .find(|t| {
                t.user.is_some()
                    && t.route.windows(2).any(|h| {
                        (h[0] == NodeId(1) && h[1] == NodeId(2))
                            || (h[0] == NodeId(2) && h[1] == NodeId(1))
                    })
            })
            .cloned()
            .expect("some delivery crosses the bridge");
        let playback = wl.catalog.get(victim.video).playback;
        let cfg = RepairConfig::default();

        // Recoverable: failure ends before the last backoff attempt.
        let clears_at = victim.start + cfg.base_backoff * 4.0; // attempt 3 fires at +4·base
        let plan = FaultPlan::new(vec![Fault::LinkFailure {
            a: NodeId(1),
            b: NodeId(2),
            from: victim.start - 1.0,
            until: clears_at,
        }]);
        let out = repair_schedule(&ctx, committed(&ctx, &wl), &plan, &cfg).unwrap();
        assert!(!out.delayed.is_empty(), "the victim must be delivered late");
        assert!(out.retry_attempts > 0);
        for d in &out.delayed {
            assert!(d.delayed_start >= clears_at, "delivery inside the failure window");
            // The delayed transfer exists in the repaired schedule.
            let vs = out.priced.schedule().video(d.request.video).unwrap();
            assert!(vs
                .transfers
                .iter()
                .any(|t| t.user == Some(d.request.user) && t.start == d.delayed_start));
        }

        // Unrecoverable: failure outlasts every backoff attempt + playback.
        let horizon = victim.start + cfg.base_backoff * 100.0 + playback * 4.0;
        let plan = FaultPlan::new(vec![Fault::LinkFailure {
            a: NodeId(1),
            b: NodeId(2),
            from: 0.0,
            until: horizon,
        }]);
        let out = repair_schedule(&ctx, committed(&ctx, &wl), &plan, &cfg).unwrap();
        assert!(!out.shed.is_empty(), "cut-off requests must be shed, not dropped silently");
        assert!(out.shed.windows(2).all(|w| w[0].heat <= w[1].heat), "lowest heat first");
        for s in &out.shed {
            assert_eq!(s.reason, ShedReason::RetriesExhausted);
            assert_eq!(topo.home_of(s.request.user), NodeId(2), "only cut-off homes shed");
        }
        // adjusted_requests drops exactly the shed set.
        let original: Vec<Request> =
            wl.requests.groups().flat_map(|(_, g)| g.iter().copied()).collect();
        let adjusted = out.adjusted_requests(&original);
        assert_eq!(adjusted.len(), original.len() - out.shed.len());
    }

    /// Regression: `max_retries = 80` used to shift `1u64 << 79` — a
    /// debug panic / release wrap. The exponent now clamps at 16, so a
    /// huge retry budget degrades to "try at the capped delay
    /// repeatedly" and either delivers past the failure or sheds.
    #[test]
    fn huge_retry_budget_does_not_overflow_the_backoff_shift() {
        let (topo, wl) = line();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let cfg = RepairConfig { max_retries: 80, ..RepairConfig::default() };

        // Recoverable within the capped delay: the bridge heals after
        // 2^10 base backoffs, well below the 2^16 cap, so some attempt
        // in 1..=80 lands past the failure and the victim is delayed,
        // never shed.
        let clears_at = 1024.0 * cfg.base_backoff;
        let plan = FaultPlan::new(vec![Fault::LinkFailure {
            a: NodeId(1),
            b: NodeId(2),
            from: 0.0,
            until: clears_at,
        }]);
        let out = repair_schedule(&ctx, committed(&ctx, &wl), &plan, &cfg).unwrap();
        assert!(!out.delayed.is_empty(), "victims must recover via the capped backoff");
        for d in &out.delayed {
            assert!(d.delayed_start >= clears_at);
            assert!(
                d.delayed_start <= d.request.start + cfg.base_backoff * (1u64 << 16) as f64,
                "delay beyond the clamped exponent"
            );
        }

        // Unrecoverable even at the cap: every attempt (all clamped to
        // ≤ 2^16 · base) lands inside the failure — shed, not panic.
        let playback = wl.catalog.get(wl.requests.groups().next().unwrap().0).playback;
        let horizon = cfg.base_backoff * (1u64 << 17) as f64 + playback * 4.0;
        let plan = FaultPlan::new(vec![Fault::LinkFailure {
            a: NodeId(1),
            b: NodeId(2),
            from: 0.0,
            until: horizon,
        }]);
        let out = repair_schedule(&ctx, committed(&ctx, &wl), &plan, &cfg).unwrap();
        assert!(!out.shed.is_empty(), "cut-off requests past the cap must shed");
        for s in &out.shed {
            assert_eq!(s.reason, ShedReason::RetriesExhausted);
        }
    }
}
