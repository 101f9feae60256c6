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
//! A request whose home storage is unreachable without the failed links
//! is *cut off*: it cannot be rerouted at its reserved time. The plan is
//! known in advance, so repair reads off it when the intact cheapest
//! route is next clear for a whole playback
//! ([`FaultPlan::first_clear_start`]) and streams the request directly
//! over that route then — on time when the route is already clear,
//! otherwise late, reported as a [`DelayRecord`]. Repair never sheds.

use crate::greedy::{find_video_schedule, Constraints, GreedyPolicy};
use crate::sorp::SolveState;
use crate::{Interval, PricedSchedule, SchedCtx, StorageLedger};
use vod_cost_model::{Dollars, Request, Secs, Transfer, VideoId, VideoSchedule};
use vod_faults::{FaultError, FaultPlan};
use vod_topology::RouteTable;

/// One request served later than reserved: its route was not clear for a
/// whole playback until `delayed_start`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelayRecord {
    /// The request at its original reserved time.
    pub request: Request,
    /// The delivery time the repair settled on.
    pub delayed_start: Secs,
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
    /// Requests delivered late, at the first instant their route cleared.
    pub delayed: Vec<DelayRecord>,
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
    /// with delayed requests shifted to their delivery time. This is what
    /// strict replay must check coverage against.
    pub fn adjusted_requests(&self, original: &[Request]) -> Vec<Request> {
        adjusted_requests(&self.delayed, original)
    }
}

/// What one repair pass did, besides moving its state's schedule: the
/// like-named fields of [`RepairOutcome`].
#[derive(Default)]
pub(crate) struct RepairPass {
    repaired_videos: Vec<VideoId>,
    pub(crate) delayed: Vec<DelayRecord>,
}

/// [`RepairOutcome::adjusted_requests`] over a pass's records: the
/// records sorted by request, each request looked up there. Identical
/// requests share one route and one clearing instant, so whichever of
/// their records answers, the delivery time is the same.
pub(crate) fn adjusted_requests(delayed: &[DelayRecord], original: &[Request]) -> Vec<Request> {
    let key = |r: &Request| (r.user, r.video, r.start.to_bits());
    let mut delayed: Vec<_> = delayed.iter().map(|d| (key(&d.request), d.delayed_start)).collect();
    delayed.sort_unstable_by_key(|&(k, _)| k);
    original
        .iter()
        .map(|r| match delayed.binary_search_by_key(&key(r), |&(k, _)| k) {
            Ok(i) => Request { start: delayed[i].1, ..*r },
            Err(_) => *r,
        })
        .collect()
}

/// Repair a committed schedule against a fault plan, re-placing broken
/// videos under the default [`GreedyPolicy`]. Deterministic: the same
/// schedule + plan always yields bit-identical repair decisions. An
/// empty or irrelevant plan returns the input schedule unchanged
/// (bit-identical, `unchanged = true`). Errs only when the plan does not
/// validate against the topology.
pub fn repair_schedule(
    ctx: &SchedCtx<'_>,
    priced: PricedSchedule,
    plan: &FaultPlan,
) -> Result<RepairOutcome, FaultError> {
    plan.validate(ctx.topo)?;
    let pre_repair_cost = priced.total();
    let mut state = SolveState::new(ctx, priced, StorageLedger::new(ctx.topo));
    let RepairPass { repaired_videos, delayed } =
        repair_state(ctx, &mut state, plan, GreedyPolicy::default());
    Ok(RepairOutcome {
        priced: state.priced,
        pre_repair_cost,
        unchanged: repaired_videos.is_empty(),
        repaired_videos,
        delayed,
    })
}

/// The repair pass, for a `plan` already validated against `ctx.topo` —
/// or made of faults taken from one that was, which is how the service
/// loop calls it every faulted cycle, on the state its solve returned and
/// under the policy that solve ran. Broken videos are re-placed under
/// `policy`, so repair caches nowhere the solve could not have.
pub(crate) fn repair_state(
    ctx: &SchedCtx<'_>,
    state: &mut SolveState,
    plan: &FaultPlan,
    policy: GreedyPolicy,
) -> RepairPass {
    let repaired_videos =
        plan.impact(state.priced.schedule(), ctx.catalog, ctx.model.space_model());
    if repaired_videos.is_empty() {
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
    let mut delayed = Vec::new();

    for &vid in &repaired_videos {
        // Impact only lists scheduled videos, but the service loop feeds
        // this path continuously — a stale or hostile plan must degrade
        // to a skip, never a panic.
        let Some(old_vs) = state.priced.schedule().video(vid) else { continue };
        let requests = old_vs.delivered_requests();
        let playback = ctx.catalog.get(vid).playback;

        // Partition: requests whose home is reachable around the failed
        // links are re-admitted at their reserved time; the rest are cut
        // off and wait for their route to clear.
        let (servable, cut_off): (Vec<Request>, Vec<Request>) = requests
            .into_iter()
            .partition(|req| dctx.routes.reachable(vw, ctx.topo.home_of(req.user)));

        let mut new_vs = if servable.is_empty() {
            VideoSchedule::new(vid)
        } else {
            let cons =
                Constraints { ledger: &state.ledger, exclude: Some(vid), forbidden: &forbidden };
            find_video_schedule(dctx, &servable, policy, Some(&cons))
        };

        for req in cut_off {
            // The intact topology's cheapest route, at the first instant
            // every hop of it stays up for the whole playback.
            let route = ctx
                .routes
                .shared_path(vw, ctx.topo.home_of(req.user))
                .expect("the intact topology reaches every home");
            let start = plan.first_clear_start(&route, req.start, playback);
            if start > req.start {
                delayed.push(DelayRecord { request: req, delayed_start: start });
            }
            new_vs.transfers.push(Transfer::for_user(&Request { start, ..req }, route));
        }

        state.commit(ctx, new_vs);
    }

    ctx.recorder.event("repair", |e| {
        e.u64("repaired_videos", repaired_videos.len() as u64)
            .u64("delayed", delayed.len() as u64)
            .f64("pre_repair_cost", pre_repair_cost)
            .f64("post_repair_cost", state.priced.total());
    });

    RepairPass { repaired_videos, delayed }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{ivsp_solve, sorp_solve, SorpConfig};
    use vod_cost_model::{Catalog, CostModel, RequestBatch};
    use vod_faults::{Fault, FaultConfig};
    use vod_topology::{builders, units, NodeId, Topology, TopologyBuilder};
    use vod_workload::{generate_catalog, CatalogConfig, RequestConfig, Workload};

    fn world(capacity_gb: f64, seed: u64) -> (Topology, Workload) {
        let cfg = builders::PaperFig4Config { capacity_gb, ..Default::default() };
        let topo = builders::paper_fig4(&cfg);
        let wl =
            Workload::generate(&topo, &CatalogConfig::small(40), &RequestConfig::paper(), seed);
        (topo, wl)
    }

    fn committed(ctx: &SchedCtx<'_>, batch: &RequestBatch) -> PricedSchedule {
        let cfg = SorpConfig::default();
        let outcome = sorp_solve(ctx, ivsp_solve(ctx, batch, cfg.policy), &cfg, None);
        PricedSchedule::price(ctx, outcome.schedule)
    }

    #[test]
    fn empty_plan_is_a_bit_identical_noop() {
        let (topo, wl) = world(5.0, 21);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let priced = committed(&ctx, &wl.requests);
        let before = priced.schedule().clone();
        let total = priced.total();

        let out = repair_schedule(&ctx, priced, &FaultPlan::empty()).unwrap();
        assert!(out.unchanged);
        assert_eq!(out.priced.schedule(), &before, "no-op repair must be bit-identical");
        assert_eq!(out.cost(), total);
        assert!(out.delayed.is_empty());
    }

    #[test]
    fn irrelevant_fault_is_also_a_noop() {
        let (topo, wl) = world(5.0, 22);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let priced = committed(&ctx, &wl.requests);
        let before = priced.schedule().clone();

        // An outage far outside the horizon breaks nothing.
        let plan =
            FaultPlan::new(vec![Fault::NodeOutage { node: NodeId(1), from: 1e9, until: 2e9 }]);
        let out = repair_schedule(&ctx, priced, &plan).unwrap();
        assert!(out.unchanged);
        assert_eq!(out.priced.schedule(), &before);
    }

    #[test]
    fn invalid_plan_is_a_typed_error() {
        let (topo, wl) = world(5.0, 23);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let priced = committed(&ctx, &wl.requests);
        let plan = FaultPlan::new(vec![Fault::NodeOutage {
            node: topo.warehouse(),
            from: 0.0,
            until: 1.0,
        }]);
        let err = repair_schedule(&ctx, priced, &plan).unwrap_err();
        assert_eq!(err, FaultError::WarehouseOutage(topo.warehouse()));
    }

    #[test]
    fn outage_repair_moves_residencies_off_the_down_node() {
        let (topo, wl) = world(5.0, 24);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let priced = committed(&ctx, &wl.requests);

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
        let broken = plan.impact(priced.schedule(), &wl.catalog, model.space_model());
        assert!(!broken.is_empty());

        let out = repair_schedule(&ctx, priced, &plan).unwrap();
        assert!(!out.unchanged);
        assert_eq!(out.repaired_videos, broken);
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
        // Every request is served, none late: no link failed, so every
        // home stays reachable.
        assert_eq!(out.priced.schedule().delivery_count(), wl.requests.len());
        assert!(out.delayed.is_empty());
        // Replayed under the plan, the repaired schedule loses no copy.
        let report = vod_simulator::simulate_with_faults(
            &topo,
            &wl.catalog,
            &model,
            out.priced.schedule(),
            &plan,
            &[],
            &vod_simulator::SimOptions::lenient(),
        )
        .unwrap();
        let lost: Vec<_> = report
            .violations
            .iter()
            .filter(|v| matches!(v, vod_simulator::Violation::ResidencyLostToOutage { .. }))
            .collect();
        assert!(lost.is_empty(), "repair left broken services: {lost:?}");
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
        let phase1 = ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default());
        let mut state = SolveState::new(&ctx, phase1, base);
        state.resolve(&ctx, &SorpConfig::default());
        assert!(crate::detect_overflows(&topo, &state.ledger).is_empty());

        let down = topo.storages().step_by(3);
        let plan = FaultPlan::new(
            down.map(|node| Fault::NodeOutage { node, from: 0.0, until: 86_400.0 }).collect(),
        );
        let pass = repair_state(&ctx, &mut state, &plan, GreedyPolicy::default());
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
            let out = repair_schedule(&ctx, committed(&ctx, &wl.requests), &plan).unwrap();
            (out.priced.schedule().clone(), out.cost(), out.delayed)
        };
        let (s1, c1, delayed1) = run();
        let (s2, c2, delayed2) = run();
        assert_eq!(s1, s2, "same plan must give bit-identical repairs");
        assert_eq!(c1, c2);
        assert_eq!(delayed1, delayed2);
    }

    /// A line topology VW—IS1—IS2 where IS2's only route crosses the
    /// IS1—IS2 bridge: failing the bridge cuts IS2's users off. Storage is
    /// priced out, so every request streams straight from the warehouse
    /// and every delivery to IS2 crosses the bridge.
    pub(crate) struct Line {
        pub(crate) topo: Topology,
        pub(crate) catalog: Catalog,
        pub(crate) model: CostModel,
    }

    pub(crate) const IS1: NodeId = NodeId(1);
    pub(crate) const IS2: NodeId = NodeId(2);
    /// Reserved start of the first request in each scenario.
    const T: Secs = 10_000.0;

    impl Line {
        pub(crate) fn new() -> Self {
            let mut b = TopologyBuilder::new();
            let vw = b.add_warehouse("VW");
            let srate = units::srate_per_gb_hour(1e6);
            let is1 = b.add_storage("IS1", srate, units::gb(5.0));
            let is2 = b.add_storage("IS2", srate, units::gb(5.0));
            assert_eq!((is1, is2), (IS1, IS2));
            b.connect(vw, is1, units::nrate_per_gb(100.0)).unwrap();
            b.connect(is1, is2, units::nrate_per_gb(100.0)).unwrap();
            b.add_users(is1, 2);
            b.add_users(is2, 2);
            let topo = b.build().unwrap();
            let catalog = generate_catalog(&CatalogConfig::small(6), 31);
            Self { topo, catalog, model: CostModel::per_hop() }
        }

        pub(crate) fn playback(&self) -> Secs {
            self.catalog.get(VideoId(0)).playback
        }

        /// The first user of `home` watching video 0 from `start`.
        pub(crate) fn request(&self, home: NodeId, start: Secs) -> Request {
            Request { user: self.topo.users_at(home)[0], video: VideoId(0), start }
        }

        fn repair(&self, requests: &[Request], faults: &[Fault]) -> RepairOutcome {
            let ctx = SchedCtx::new(&self.topo, &self.model, &self.catalog);
            let priced = committed(&ctx, &RequestBatch::new(requests.to_vec()));
            let out = repair_schedule(&ctx, priced, &FaultPlan::new(faults.to_vec())).unwrap();
            assert!(!out.unchanged, "the faults broke no delivery");
            out
        }
    }

    pub(crate) fn bridge_failure(from: Secs, until: Secs) -> Fault {
        Fault::LinkFailure { a: IS1, b: IS2, from, until }
    }

    /// The start of every delivery in `out`, ascending.
    fn delivery_starts(out: &RepairOutcome) -> Vec<Secs> {
        let mut starts: Vec<Secs> = out
            .priced
            .schedule()
            .transfers()
            .filter(|t| t.user.is_some())
            .map(|t| t.start)
            .collect();
        starts.sort_by(f64::total_cmp);
        starts
    }

    #[test]
    fn a_cut_off_request_whose_route_is_clear_at_start_is_on_time() {
        let line = Line::new();
        let p = line.playback();
        // The failure catches the first delivery; the second, three
        // playbacks later, finds the bridge up for its whole stream.
        let (caught, clear) = (line.request(IS2, T), line.request(IS2, T + 3.0 * p));
        let out = line.repair(&[caught, clear], &[bridge_failure(T - 1.0, T + p / 2.0)]);
        assert_eq!(out.delayed, vec![DelayRecord { request: caught, delayed_start: T + p / 2.0 }]);
        assert_eq!(delivery_starts(&out), vec![T + p / 2.0, T + 3.0 * p]);
    }

    #[test]
    fn a_cut_off_request_is_delivered_when_the_covering_failure_ends() {
        let line = Line::new();
        let p = line.playback();
        let req = line.request(IS2, T);
        let out = line.repair(&[req], &[bridge_failure(T - 1.0, T + 2.0 * p)]);
        assert_eq!(out.delayed, vec![DelayRecord { request: req, delayed_start: T + 2.0 * p }]);
        assert_eq!(delivery_starts(&out), vec![T + 2.0 * p]);
    }

    #[test]
    fn chained_failures_on_different_hops_deliver_after_the_later_one() {
        let line = Line::new();
        let p = line.playback();
        let req = line.request(IS2, T);
        // The bridge is down until half-way through the reserved stream;
        // VW—IS1 goes down one playback after the reserved start, so a
        // stream started when the bridge clears runs into it.
        let vw_is1 = Fault::LinkFailure { a: NodeId(0), b: IS1, from: T + p, until: T + 3.0 * p };
        let out = line.repair(&[req], &[bridge_failure(T - 1.0, T + p / 2.0), vw_is1]);
        assert_eq!(out.delayed, vec![DelayRecord { request: req, delayed_start: T + 3.0 * p }]);
        assert_eq!(delivery_starts(&out), vec![T + 3.0 * p]);
    }

    #[test]
    fn a_failure_after_the_stream_ends_leaves_it_on_time() {
        let line = Line::new();
        let p = line.playback();
        // The failure starts the instant the first stream ends (windows
        // are half-open) and catches the second, in flight from T + 1.5p.
        let (before, caught) = (line.request(IS2, T), line.request(IS2, T + 1.5 * p));
        let out = line.repair(&[before, caught], &[bridge_failure(T + p, T + 2.0 * p)]);
        assert_eq!(out.delayed, vec![DelayRecord { request: caught, delayed_start: T + 2.0 * p }]);
        assert_eq!(delivery_starts(&out), vec![T, T + 2.0 * p]);
    }

    #[test]
    fn a_day_long_bridge_failure_is_delivered_not_shed_and_replays_clean() {
        let line = Line::new();
        let p = line.playback();
        // The bridge stays down for most of a day; IS1's user is not cut
        // off and keeps its reservation.
        let until = T + 20.0 * 3_600.0 + p;
        let plan = FaultPlan::new(vec![bridge_failure(0.0, until)]);
        let requests = [line.request(IS2, T), line.request(IS1, T), line.request(IS2, T + p)];
        let out = line.repair(&requests, plan.faults());
        assert_eq!(out.delayed.len(), 2, "both of IS2's requests wait: {:?}", out.delayed);
        assert!(out.delayed.iter().all(|d| d.delayed_start == until));
        assert_eq!(delivery_starts(&out), vec![T, until, until]);

        let batch = RequestBatch::new(out.adjusted_requests(&requests));
        let report = vod_simulator::simulate_with_faults(
            &line.topo,
            &line.catalog,
            &line.model,
            out.priced.schedule(),
            &plan,
            &[],
            &vod_simulator::SimOptions::strict(&batch),
        )
        .expect("the plan validates");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }
}
