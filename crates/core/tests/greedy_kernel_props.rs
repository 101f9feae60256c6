//! Equivalence and invariant tests for the greedy placement kernel.
//!
//! The production kernel walks a precomputed per-`(src, local)` relay
//! order, memoizes dead sources, skips every source whose direct hop
//! already loses to the incumbent, and admission-tests a cache only when
//! it is about to take the lead; `pre_pr` below is the nested-scan greedy
//! all of that replaced — every cache re-tested per request, every
//! storage scanned per source, every route walked and concatenated into a
//! fresh `Vec` — kept here, and only here, as the oracle. Across
//! random topologies (uniform and random link rates), degraded route
//! tables with unreachable pairs, every [`GreedyPolicy`], both
//! [`SpaceModel`]s and with or without [`Constraints`], both must emit
//! the same schedule, `==` and Ψ bit for bit, and the production trace
//! must be a subsequence of the oracle's: tests are skipped, never
//! invented or re-answered. The remaining properties are the facts the
//! shortcuts rest on: admission is monotone in a residency's extension
//! (the dead-source memo, and deferring a rejection to a later request),
//! and no plan out of a source undercuts its direct hop — an extension
//! never refunds storage and relay detours obey the triangle inequality
//! (the direct-hop bound).

use proptest::prelude::*;
use vod_core::{
    find_video_schedule_with, ivsp_solve_with, reschedule_video_traced_with, reschedule_video_with,
    AdmissionCheck, Constraints, GreedyPolicy, Interval, LedgerCursor, SchedCtx, StorageLedger,
};
use vod_cost_model::{
    CostModel, Request, RequestBatch, SpaceModel, SpaceProfile, Video, VideoSchedule,
};
use vod_oracles::audit_admissions;
use vod_topology::{builders, units, NodeId, RouteTable, Topology, TopologyBuilder};
use vod_workload::{CatalogConfig, RequestConfig, SplitMix64, Workload};

/// The pre-PR greedy, verbatim (`crates/core/src/greedy.rs` at the parent
/// commit): the kernel, its candidate comparison and its extension cost.
mod pre_pr {
    use std::collections::BTreeMap;
    use vod_core::{Constraints, GreedyPolicy, LedgerCursor, SchedCtx};
    use vod_cost_model::{
        Dollars, Request, Residency, Secs, SpaceProfile, Transfer, Video, VideoSchedule,
    };
    use vod_topology::NodeId;

    /// Relative tolerance for treating two candidate costs as equal, letting
    /// the deterministic tie-break order decide.
    const COST_EPS: f64 = 1e-9;

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

    pub fn greedy_with_cursor(
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

        // Active caches, keyed by hosting storage for deterministic iteration.
        let mut caches: BTreeMap<NodeId, Residency> = BTreeMap::new();
        let mut schedule = VideoSchedule::new(vid);

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

            // Enumerate sources: the warehouse plus every existing cache.
            for src in std::iter::once(vw).chain(caches.keys().copied()) {
                // Cost and admissibility of extending the source copy to serve
                // at req.start.
                let ext = match caches.get(&src) {
                    Some(r) => match extension(ctx, video, r, req.start, constraints, cursor) {
                        Some(cost) => cost,
                        None => continue, // extension inadmissible: skip source
                    },
                    None => 0.0,
                };

                if !policy.allow_remote_placement && src != vw && src != local {
                    continue;
                }

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
                consider(
                    Candidate {
                        cost: amortized * ctx.routes.rate(src, local) + ext,
                        priority,
                        src,
                        new_cache: None,
                    },
                    &mut best,
                );

                // (b) Deliver src → m → local, introducing a cache at m. The
                // new residency starts degenerate ([t, t], zero space), which
                // is always admissible; only later extensions are charged and
                // capacity-checked.
                if !policy.allow_new_caches {
                    continue;
                }
                for m in ctx.topo.storages() {
                    if m == src || caches.contains_key(&m) {
                        continue;
                    }
                    if !policy.allow_remote_placement && m != local {
                        continue;
                    }
                    let cost =
                        amortized * (ctx.routes.rate(src, m) + ctx.routes.rate(m, local)) + ext;
                    let priority =
                        if policy.prefer_local_cache_on_ties && m != local { 3 } else { 0 };
                    consider(Candidate { cost, priority, src, new_cache: Some(m) }, &mut best);
                }
            }

            let plan = best.expect("direct warehouse delivery is always admissible");

            // Apply the chosen plan.
            if let Some(src_cache) = caches.get_mut(&plan.src) {
                src_cache.extend(*req);
            }
            match plan.new_cache {
                None => {
                    schedule
                        .transfers
                        .push(Transfer::for_user(req, ctx.routes.path(plan.src, local)));
                }
                Some(m) => {
                    let mut route = ctx.routes.path(plan.src, m).nodes;
                    route.extend_from_slice(&ctx.routes.path(m, local).nodes[1..]);
                    schedule.transfers.push(Transfer {
                        video: vid,
                        route: route.into(),
                        start: req.start,
                        user: Some(req.user),
                    });
                    caches.insert(m, Residency::begin(m, plan.src, *req));
                }
            }
        }

        schedule.residencies.extend(caches.into_values());
        schedule
    }

    /// Incremental storage cost of extending cache `r` so its last service
    /// starts at `t`, or `None` if the extension is inadmissible under the
    /// constraints.
    fn extension(
        ctx: &SchedCtx<'_>,
        video: &Video,
        r: &Residency,
        t: Secs,
        constraints: Option<&Constraints<'_>>,
        cursor: &mut LedgerCursor,
    ) -> Option<Dollars> {
        debug_assert!(t >= r.last_service, "requests are processed chronologically");
        let model = ctx.model.space_model();
        let old = r.profile_with(video, model);
        let new = SpaceProfile::with_model(r.start, t, video.size, video.playback, model);
        if let Some(cons) = constraints {
            if !cons.admits(ctx, r.loc, &new, cursor) {
                return None;
            }
        }
        Some(ctx.topo.srate(r.loc) * (new.integral() - old.integral()))
    }
}

/// One randomized kernel scenario: a network, how many of its links the
/// route table must avoid, and the workload seed.
#[derive(Clone, Debug)]
struct Scenario {
    topo_kind: u32,
    storages: usize,
    capacity_gb: f64,
    seed: u64,
    cut_links: usize,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (0u32..4, 4usize..14, prop_oneof![Just(4.0), Just(5.0), Just(8.0)], 0u64..10_000, 0usize..4)
        .prop_map(|(topo_kind, storages, capacity_gb, seed, cut_links)| Scenario {
            topo_kind,
            storages,
            capacity_gb,
            seed,
            cut_links,
        })
}

/// A random connected network with a different charging rate on every
/// link and storage, so no two detours tie except the ones sharing a
/// cheapest route.
fn random_rates(storages: usize, capacity_gb: f64, seed: u64) -> Topology {
    let mut rng = SplitMix64::new(seed);
    let mut b = TopologyBuilder::new();
    let mut all = vec![b.add_warehouse("VW")];
    for i in 0..storages {
        let srate = units::srate_per_gb_hour(rng.range_f64(0.5, 6.0));
        all.push(b.add_storage(format!("IS{i}"), srate, units::gb(capacity_gb)));
    }
    for i in 1..all.len() {
        let nrate = units::nrate_per_gb(rng.range_f64(50.0, 600.0));
        b.connect(all[rng.index(i)], all[i], nrate).expect("tree edge");
    }
    for _ in 0..storages / 2 {
        let (a, c) = (all[rng.index(all.len())], all[rng.index(all.len())]);
        // Self-loops and duplicates are refused; fewer extra links is fine.
        let _ = b.connect(a, c, units::nrate_per_gb(rng.range_f64(50.0, 600.0)));
    }
    for &s in &all[1..] {
        b.add_users(s, 4);
    }
    b.build().expect("random wiring is valid")
}

fn build_topo(s: &Scenario) -> Topology {
    let gen = builders::GenConfig {
        storages: s.storages,
        capacity_gb: s.capacity_gb,
        users_per_neighborhood: 4,
        ..builders::GenConfig::default()
    };
    match s.topo_kind {
        0 => builders::paper_fig4(&builders::PaperFig4Config {
            capacity_gb: s.capacity_gb,
            ..Default::default()
        }),
        1 => builders::random_connected(&gen, 3, s.seed ^ 0xC0FFEE),
        2 => random_rates(s.storages, s.capacity_gb, s.seed ^ 0xFACADE),
        _ => builders::ring(&gen),
    }
}

/// The route table with the `avoid` links cut (possibly leaving pairs
/// unreachable, at infinite rate), and the requests whose user the
/// warehouse can still reach — the greedy's one precondition.
fn degrade(
    topo: &Topology,
    wl: &Workload,
    avoid: &[(NodeId, NodeId)],
) -> (RouteTable, RequestBatch) {
    let routes = RouteTable::build_avoiding(topo, avoid);
    let served: Vec<Request> = wl
        .requests
        .iter()
        .filter(|r| routes.reachable(topo.warehouse(), topo.home_of(r.user)))
        .copied()
        .collect();
    (routes, RequestBatch::new(served))
}

/// All eight flag combinations.
fn policies() -> impl Iterator<Item = GreedyPolicy> {
    (0..8u8).map(|bits| GreedyPolicy {
        allow_new_caches: bits & 1 != 0,
        allow_remote_placement: bits & 2 != 0,
        prefer_local_cache_on_ties: bits & 4 != 0,
    })
}

/// What a production trace owes the nested scan's (`asked`: every live
/// cache, every request) and its own schedule:
///
/// * it is a subsequence of `asked` — same candidates, same answers, in
///   the same order, so the kernel only ever *skips* tests;
/// * a rejected storage is never tested again (the dead-source memo);
/// * an admitted cache was leading when it was tested, so only a source
///   enumerated after it (the warehouse first, then caches by id) can
///   have taken the request — the plan's source never precedes it.
fn trace_is_verdict_minimal(
    ctx: &SchedCtx<'_>,
    video: &Video,
    group: &[Request],
    schedule: &VideoSchedule,
    checks: &[AdmissionCheck],
    asked: &[AdmissionCheck],
) -> Result<(), &'static str> {
    let mut rest = asked.iter();
    if !checks.iter().all(|c| rest.any(|a| a == c)) {
        return Err("a recorded check is not one the nested scan asks, in its order");
    }
    let turn = |n: NodeId| if n == ctx.topo.warehouse() { 0 } else { 1 + n.0 };
    let space = ctx.model.space_model();
    for (i, c) in checks.iter().enumerate() {
        if !c.verdict {
            if checks[i + 1..].iter().any(|later| later.loc == c.loc) {
                return Err("dead source re-tested");
            }
            continue;
        }
        // The requests this extension could have been priced for (several
        // only when reservations coincide), and who served them.
        let mut served = group.iter().zip(&schedule.transfers).filter(|(req, _)| {
            req.start >= c.candidate.start
                && c.candidate
                    == SpaceProfile::with_model(
                        c.candidate.start,
                        req.start,
                        video.size,
                        video.playback,
                        space,
                    )
        });
        if !served.any(|(_, delivery)| turn(delivery.src()) >= turn(c.loc)) {
            return Err("a cache was admission-tested without holding the lead");
        }
    }
    Ok(())
}

/// Both kernels over every video group of `batch`, under every policy,
/// with and without constraints; `Err` names the first divergence.
fn kernels_agree(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    rng: &mut SplitMix64,
) -> Result<(), String> {
    let storages: Vec<NodeId> = ctx.topo.storages().collect();
    for policy in policies() {
        // A contended frozen ledger (everyone's phase-1 residencies) and
        // two random forbidden windows, so extensions fail both ways.
        let ledger = StorageLedger::from_schedule(
            ctx.topo,
            ctx.catalog,
            &ivsp_solve_with(ctx, batch, policy),
        );
        let forbidden: Vec<(NodeId, Interval)> = (0..2)
            .map(|_| {
                let start = rng.range_f64(0.0, units::hours(20.0));
                let end = start + rng.range_f64(units::hours(0.5), units::hours(6.0));
                (storages[rng.index(storages.len())], Interval::new(start, end))
            })
            .collect();
        for (vid, group) in batch.groups() {
            let at = |what: &str| format!("{what}: video {vid:?}, {policy:?}");
            let same = |new: &vod_cost_model::VideoSchedule,
                        old: &vod_cost_model::VideoSchedule| {
                new == old && ctx.video_cost(new).to_bits() == ctx.video_cost(old).to_bits()
            };

            let old =
                pre_pr::greedy_with_cursor(ctx, group, None, policy, &mut LedgerCursor::new());
            if !same(&find_video_schedule_with(ctx, group, policy), &old) {
                return Err(at("unconstrained greedy diverged"));
            }

            let cons = Constraints { ledger: &ledger, exclude: Some(vid), forbidden: &forbidden };
            let old = pre_pr::greedy_with_cursor(
                ctx,
                group,
                Some(&cons),
                policy,
                &mut LedgerCursor::new(),
            );
            if !same(&reschedule_video_with(ctx, group, &cons, policy), &old) {
                return Err(at("rejective greedy diverged"));
            }
            let (traced, trace) = reschedule_video_traced_with(ctx, group, &cons, policy);
            if !same(&traced, &old) {
                return Err(at("traced rejective greedy diverged"));
            }
            let mut asked = LedgerCursor::tracing();
            pre_pr::greedy_with_cursor(ctx, group, Some(&cons), policy, &mut asked);
            if let Err(what) = trace_is_verdict_minimal(
                ctx,
                ctx.catalog.get(vid),
                group,
                &traced,
                &trace.checks,
                &asked.take_trace().checks,
            ) {
                return Err(at(what));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The relay-order walk with the dead-source memo emits exactly the
    /// schedule of the nested scan it replaced.
    #[test]
    fn kernel_matches_the_nested_scan(s in scenario_strategy()) {
        let topo = build_topo(&s);
        let wl = Workload::generate(&topo, &CatalogConfig::small(12), &RequestConfig::paper(), s.seed);
        let mut rng = SplitMix64::new(s.seed ^ 0xDEAD_50C5);
        let avoid: Vec<(NodeId, NodeId)> = (0..s.cut_links)
            .map(|_| {
                let e = &topo.edges()[rng.index(topo.edge_count())];
                (e.a, e.b)
            })
            .collect();
        let (routes, batch) = degrade(&topo, &wl, &avoid);
        for space in [SpaceModel::InstantReservation, SpaceModel::GradualFill] {
            let model = CostModel::per_hop().with_space_model(space);
            let ctx = SchedCtx::with_routes(&topo, routes.clone(), &model, &wl.catalog);
            if let Err(what) = kernels_agree(&ctx, &batch, &mut rng) {
                prop_assert!(false, "{what}, {space:?}, {s:?}");
            }
        }
    }

    /// The two facts the direct-hop bound rests on, over the same
    /// networks and cut-link tables: extending a residency never lowers
    /// its storage charge, and no relay detour undercuts the direct hop
    /// beyond the candidate comparison's tolerance.
    #[test]
    fn no_plan_out_of_a_source_undercuts_its_direct_hop(s in scenario_strategy()) {
        const COST_EPS: f64 = 1e-9;
        let topo = build_topo(&s);
        let wl = Workload::generate(&topo, &CatalogConfig::small(12), &RequestConfig::paper(), s.seed);
        let mut rng = SplitMix64::new(s.seed ^ 0xD1_2EC7);
        let avoid: Vec<(NodeId, NodeId)> = (0..s.cut_links)
            .map(|_| {
                let e = &topo.edges()[rng.index(topo.edge_count())];
                (e.a, e.b)
            })
            .collect();
        let routes = RouteTable::build_avoiding(&topo, &avoid);
        let nodes: Vec<NodeId> = std::iter::once(topo.warehouse()).chain(topo.storages()).collect();
        for video in wl.catalog.iter() {
            let amortized = video.amortized_bytes();
            for &src in &nodes {
                for &local in &nodes {
                    let hop = amortized * routes.rate(src, local);
                    for &m in &nodes {
                        let detour = amortized * (routes.rate(src, m) + routes.rate(m, local));
                        prop_assert!(
                            detour >= hop * (1.0 - COST_EPS),
                            "{:?} → {:?} → {:?} at {} undercuts the direct {}", src, m, local, detour, hop
                        );
                    }
                }
            }
            for space in [SpaceModel::InstantReservation, SpaceModel::GradualFill] {
                for _ in 0..64 {
                    let t_s = rng.range_f64(0.0, units::hours(24.0));
                    let t_f = t_s + rng.range_f64(0.0, units::hours(3.0));
                    let t = t_f + rng.range_f64(0.0, units::hours(3.0));
                    let held = SpaceProfile::with_model(t_s, t_f, video.size, video.playback, space);
                    let grown = SpaceProfile::with_model(t_s, t, video.size, video.playback, space);
                    for loc in topo.storages() {
                        let ext = topo.srate(loc) * (grown.integral() - held.integral());
                        prop_assert!(
                            ext >= 0.0,
                            "extending [{}, {}] to {} refunds {} at {:?}, {:?}", t_s, t_f, t, ext, loc, space
                        );
                    }
                }
            }
        }
    }

    /// The invariant under the memo: on one frozen ledger and one set of
    /// windows, a residency rejected when extended to `t` is rejected
    /// when extended to every later `t'` — and every capacity answer on
    /// the way is the flat scan's.
    #[test]
    fn admission_is_monotone_in_the_extension(
        seed in 0u64..10_000,
        capacity_gb in prop_oneof![Just(4.0), Just(5.0), Just(8.0)],
        gradual in any::<bool>(),
    ) {
        let topo = builders::paper_fig4(&builders::PaperFig4Config { capacity_gb, ..Default::default() });
        let wl = Workload::generate(&topo, &CatalogConfig::small(24), &RequestConfig::paper(), seed);
        let space = if gradual { SpaceModel::GradualFill } else { SpaceModel::InstantReservation };
        let model = CostModel::per_hop().with_space_model(space);
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let phase1 = ivsp_solve_with(&ctx, &wl.requests, GreedyPolicy::default());
        let ledger = StorageLedger::from_schedule(&topo, &wl.catalog, &phase1);
        let mut rng = SplitMix64::new(seed ^ 0x0A11_D0E5);
        let storages: Vec<NodeId> = topo.storages().collect();
        let window = |rng: &mut SplitMix64| {
            let start = rng.range_f64(0.0, units::hours(22.0));
            Interval::new(start, start + rng.range_f64(units::minutes(10.0), units::hours(4.0)))
        };
        let forbidden: Vec<(NodeId, Interval)> =
            (0..4).map(|_| (storages[rng.index(storages.len())], window(&mut rng))).collect();

        let (mut admitted, mut rejected) = (0usize, 0usize);
        for _ in 0..400 {
            let mut cursor = LedgerCursor::tracing();
            let loc = storages[rng.index(storages.len())];
            let video = wl.catalog.iter().nth(rng.index(wl.catalog.len())).expect("index in range");
            let exclude = (rng.index(2) == 0).then_some(video.id);
            let cons = Constraints { ledger: &ledger, exclude, forbidden: &forbidden };
            let t_s = rng.range_f64(0.0, units::hours(22.0));
            let (mut t, mut dead) = (t_s, false);
            for _ in 0..8 {
                t += rng.range_f64(0.0, units::hours(1.5));
                let p = SpaceProfile::with_model(t_s, t, video.size, video.playback, space);
                let ok = cons.admits(&ctx, loc, &p, &mut cursor);
                prop_assert!(
                    !(dead && ok),
                    "admitted at {} after a rejection: loc {:?}, t_s {}, {:?}, exclude {:?}",
                    t, loc, t_s, space, exclude
                );
                dead |= !ok;
                if ok { admitted += 1 } else { rejected += 1 }
            }
            let asked = cursor.take_trace().checks;
            prop_assert_eq!(audit_admissions(&topo, &ledger, exclude, &asked), Ok(()));
        }
        prop_assert!(admitted > 0 && rejected > 0, "vacuous: {admitted} admitted, {rejected} rejected");
    }
}

/// A line cut in the middle: the far half is unreachable from the
/// warehouse side (infinite rates in the table), its users are dropped,
/// and the kernels still agree on everyone else.
#[test]
fn kernels_agree_around_an_unreachable_component() {
    let gen = builders::GenConfig { storages: 8, users_per_neighborhood: 6, ..Default::default() };
    let topo = builders::line(&gen);
    let wl = Workload::generate(&topo, &CatalogConfig::small(6), &RequestConfig::paper(), 7);
    let storages: Vec<NodeId> = topo.storages().collect();
    let (routes, batch) = degrade(&topo, &wl, &[(storages[4], storages[5])]);
    assert!(!routes.reachable(topo.warehouse(), storages[6]), "the cut must split the line");
    assert!(!batch.is_empty() && batch.len() < wl.requests.len());
    let model = CostModel::per_hop();
    let ctx = SchedCtx::with_routes(&topo, routes, &model, &wl.catalog);
    kernels_agree(&ctx, &batch, &mut SplitMix64::new(7)).unwrap();
}
