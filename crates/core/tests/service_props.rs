//! Property tests for the async service frontend: with an infinite
//! budget and an unbounded queue the service loop must be bit-identical
//! to the plain rolling warm loop on the same arrivals, no reservation
//! may be both served and shed in the same cycle, a dropped reservation
//! must never resurrect, the ladder's rung trace must be a
//! deterministic function of the trace + config (identical across
//! repeated runs), and whatever the faults, the
//! budget, the queue bound and the sharding, the book is feasible after
//! every cycle.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use vod_core::{
    detect_overflows, service_run, BackoffPolicy, CommittedBook, ExecMode, Rung, SchedCtx,
    ServiceConfig, ServiceLoop, ShardConfig,
};
use vod_cost_model::{Catalog, CostModel, Request, RequestBatch};
use vod_topology::Topology;
use vod_workload::{generate_arrivals, generate_catalog, Arrival, ArrivalConfig, CatalogConfig};

const HORIZON: f64 = 24.0 * 3_600.0;

fn world(seed: u64) -> (Topology, Catalog) {
    let topo = vod_topology::builders::paper_fig4(&vod_topology::builders::PaperFig4Config {
        capacity_gb: 5.0,
        ..Default::default()
    });
    let catalog = generate_catalog(&CatalogConfig::small(30), seed ^ 0xC0FFEE);
    (topo, catalog)
}

fn arrivals_for(
    topo: &Topology,
    catalog: &Catalog,
    seed: u64,
    cycles: usize,
    burst: Vec<(usize, usize)>,
) -> Vec<Arrival> {
    generate_arrivals(topo, catalog, &ArrivalConfig { cycles, burst, ..Default::default() }, seed)
}

fn key(r: &Request) -> (u32, u32, u64) {
    (r.user.0, r.video.0, r.start.to_bits())
}

fn key_counts<'a>(reqs: impl Iterator<Item = &'a Request>) -> HashMap<(u32, u32, u64), usize> {
    let mut m = HashMap::new();
    for r in reqs {
        *m.entry(key(r)).or_insert(0) += 1;
    }
    m
}

/// An overload config: tight simulated budget, shallow queue patience.
fn overload_cfg(drop_after: u32) -> ServiceConfig {
    ServiceConfig {
        budget_ns: Some(120.0 * 9_700.0),
        backoff: BackoffPolicy { base_cycles: 1, max_cycles: 4, drop_after },
        ..ServiceConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// With the default (oracle) config — no budget, no queue bound, no
    /// faults — the service loop is the rolling warm loop (solve over the
    /// book from its held copies, commit holding until the next window):
    /// per-cycle schedule and Ψ are bit-identical and the delivered
    /// request multiset matches the window's batch exactly.
    #[test]
    fn infinite_budget_service_is_bit_identical_to_warm_loop(
        seed in 0u64..500,
        cycles in 2usize..4,
    ) {
        let (topo, catalog) = world(seed);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let arrivals = arrivals_for(&topo, &catalog, seed, cycles, vec![]);

        let cfg = ServiceConfig::default();
        let (outcomes, report) =
            service_run(&ctx, &arrivals, &cfg, cycles).unwrap();

        let mut book = CommittedBook::new(&topo);
        for (k, out) in outcomes.iter().enumerate() {
            let t0 = k as f64 * HORIZON;
            let window: Vec<Request> = arrivals
                .iter()
                .map(|a| a.request)
                .filter(|r| r.start >= t0 && r.start < t0 + HORIZON)
                .collect();
            let batch = RequestBatch::new(window);
            book.evict_expired(t0);
            let mut manual = book.solve(&ctx, &batch, &cfg.shard);
            let held = book.absorb(&ctx, &mut manual.sorp.schedule, Some(t0 + HORIZON));
            prop_assert_eq!(
                out.cost.to_bits(),
                (manual.sorp.cost + held).to_bits(),
                "cycle {} Ψ diverged from the plain warm loop",
                k
            );
            prop_assert!(
                out.schedule == manual.sorp.schedule,
                "cycle {} committed another schedule",
                k
            );
            prop_assert_eq!(out.stats.rung, Rung::Full);
            prop_assert_eq!(out.stats.shed, 0);
            prop_assert_eq!(
                key_counts(out.served.iter()),
                key_counts(batch.iter()),
                "cycle {} served a different request multiset",
                k
            );
        }
        prop_assert_eq!(report.served, arrivals.len());
        prop_assert_eq!(report.dropped, 0);
        prop_assert_eq!(report.conservation_error(), 0);
    }

    /// Under overload no reservation is both served and shed in the
    /// same cycle, and across the whole run nothing is served more
    /// often than it arrived.
    #[test]
    fn no_request_is_both_served_and_shed(
        seed in 0u64..500,
        burst_cycle in 0usize..3,
    ) {
        let (topo, catalog) = world(seed);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let cycles = 4usize;
        let arrivals =
            arrivals_for(&topo, &catalog, seed, cycles, vec![(burst_cycle, 3)]);
        let cfg = overload_cfg(2);
        let (outcomes, report) =
            service_run(&ctx, &arrivals, &cfg, cycles + 4).unwrap();

        for out in &outcomes {
            let served = key_counts(out.served.iter());
            let shed = key_counts(out.shed_now.iter());
            for k in shed.keys() {
                prop_assert!(
                    !served.contains_key(k),
                    "cycle {} both served and shed {:?}",
                    out.stats.cycle, k
                );
            }
        }

        // No original reservation is served more often than offered.
        let offered = key_counts(arrivals.iter().map(|a| &a.request));
        let served_all =
            key_counts(outcomes.iter().flat_map(|o| o.served_originals.iter()));
        for (k, n) in &served_all {
            prop_assert!(
                n <= offered.get(k).unwrap_or(&0),
                "reservation {:?} served {} times but offered fewer",
                k, n
            );
        }
        prop_assert_eq!(report.conservation_error(), 0);
    }

    /// Once the backoff policy drops a reservation it stays dropped:
    /// its key never reappears among later cycles' served originals.
    #[test]
    fn dropped_requests_never_resurrect(
        seed in 0u64..500,
        drop_after in 0u32..2,
    ) {
        let (topo, catalog) = world(seed);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let cycles = 3usize;
        let arrivals = arrivals_for(&topo, &catalog, seed, cycles, vec![(0, 4)]);
        let cfg = overload_cfg(drop_after);
        let (outcomes, report) =
            service_run(&ctx, &arrivals, &cfg, cycles + 5).unwrap();

        let offered = key_counts(arrivals.iter().map(|a| &a.request));
        let mut dropped: HashSet<(u32, u32, u64)> = HashSet::new();
        let mut total_dropped = 0usize;
        for out in &outcomes {
            for r in &out.served_originals {
                // Keys with arrival multiplicity > 1 can legitimately
                // have one copy dropped and another served.
                if offered.get(&key(r)) == Some(&1) {
                    prop_assert!(
                        !dropped.contains(&key(r)),
                        "cycle {} resurrected dropped reservation {:?}",
                        out.stats.cycle, key(r)
                    );
                }
            }
            for r in &out.dropped_now {
                dropped.insert(key(r));
            }
            total_dropped += out.dropped_now.len();
            prop_assert_eq!(out.dropped_now.len(), out.stats.dropped);
        }
        prop_assert_eq!(total_dropped, report.dropped);
        prop_assert_eq!(report.conservation_error(), 0);
    }

    /// The rung trace — and every per-cycle counter — is deterministic:
    /// identical across repeated runs, because ladder decisions run on
    /// simulated time only.
    #[test]
    fn rung_trace_is_deterministic_across_runs(
        seed in 0u64..500,
        burst in 2usize..4,
    ) {
        let (topo, catalog) = world(seed);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let cycles = 3usize;
        let arrivals = arrivals_for(&topo, &catalog, seed, cycles, vec![(1, burst)]);
        let cfg = overload_cfg(2);

        let runs: Vec<_> =
            (0..2).map(|_| service_run(&ctx, &arrivals, &cfg, cycles + 2).unwrap()).collect();
        let (base_out, base_rep) = &runs[0];
        for (out, rep) in &runs[1..] {
            for (a, b) in base_out.iter().zip(out.iter()) {
                prop_assert_eq!(&a.stats, &b.stats, "cycle stats diverged across runs");
                prop_assert_eq!(
                    a.cost.to_bits(),
                    b.cost.to_bits(),
                    "cycle {} Ψ diverged across runs",
                    a.stats.cycle
                );
            }
            prop_assert_eq!(base_rep.dropped, rep.dropped);
            prop_assert_eq!(base_rep.served, rep.served);
            let rungs = |r: &vod_core::ServiceReport| -> Vec<Rung> {
                r.cycles.iter().map(|c| c.rung).collect()
            };
            prop_assert_eq!(rungs(base_rep), rungs(rep));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// One commit per cycle: whatever the fault plan, the budget, the
    /// queue bound and the sharding, after every cycle
    /// the book holds no overflow, the cycle says so (`overflow_free`),
    /// what it shipped replays strictly, and no request is lost.
    #[test]
    fn the_book_is_feasible_after_every_cycle(
        seed in 0u64..500,
        fault_seed in 0u64..500,
        tight_budget in any::<bool>(),
        queue_bound in prop_oneof![Just(None), Just(Some(150usize))],
        shards in 1usize..5,
        by_region in any::<bool>(),
    ) {
        use vod_faults::{FaultConfig, FaultPlan};
        use vod_simulator::{cycle_is_clean, replay_service_cycle};

        let (topo, catalog) = world(seed);
        let model = CostModel::per_hop();
        let recorder = vod_obs::Recorder::enabled();
        let ctx = SchedCtx::new(&topo, &model, &catalog).with_recorder(recorder.clone());
        let cycles = 4usize;
        let arrivals = arrivals_for(&topo, &catalog, seed, cycles, vec![(1, 3)]);
        let faults = FaultPlan::generate(
            &topo,
            &FaultConfig {
                node_outages: 8,
                link_failures: 4,
                link_degradations: 1,
                horizon: cycles as f64 * HORIZON,
                ..Default::default()
            },
            fault_seed,
        );
        let shard = if by_region {
            ShardConfig::by_region(shards)
        } else {
            ShardConfig::by_time_slice(shards)
        };
        let cfg = ServiceConfig {
            shard,
            queue_bound,
            budget_ns: tight_budget.then_some(120.0 * 9_700.0),
            faults,
            ..overload_cfg(2)
        };
        let mut svc = ServiceLoop::new(&topo, cfg).unwrap();
        let mut next = 0;
        for k in 0..cycles + 3 {
            while next < arrivals.len() && arrivals[next].at <= k as f64 * HORIZON {
                let _ = svc.offer(arrivals[next].request);
                next += 1;
            }
            let out = svc.run_cycle(&ctx, ExecMode::Sequential);
            prop_assert!(out.overflow_free, "cycle {} ({}) reports an overflow", k, out.stats.rung);
            let over = detect_overflows(&topo, svc.book().ledger());
            prop_assert!(over.is_empty(), "cycle {}: the book exceeds a store: {:?}", k, over);
            let sim = replay_service_cycle(&topo, &catalog, &model, &out);
            prop_assert!(cycle_is_clean(&sim), "cycle {}: {:?}", k, sim.violations);
        }
        prop_assert_eq!(svc.finish().conservation_error(), 0);
        // A run whose faults broke nothing says nothing about repair.
        prop_assume!(recorder.recording().expect("enabled").events_of("repair").count() > 0);
    }
}

/// A faulted cycle — solve, then repair against the window's outage and
/// link failure — commits the same outcome on every run.
#[test]
fn a_faulted_cycle_is_the_same_outcome_on_every_run() {
    use vod_faults::{FaultConfig, FaultPlan};

    let (topo, catalog) = world(11);
    let model = CostModel::per_hop();
    let recorder = vod_obs::Recorder::enabled();
    let ctx = SchedCtx::new(&topo, &model, &catalog).with_recorder(recorder.clone());
    let arrivals = arrivals_for(&topo, &catalog, 11, 2, vec![]);
    let faults = FaultPlan::generate(
        &topo,
        &FaultConfig { node_outages: 2, link_failures: 2, horizon: HORIZON, ..Default::default() },
        11,
    );
    let cfg = ServiceConfig { faults, ..ServiceConfig::default() };
    let run = || service_run(&ctx, &arrivals, &cfg, 2).expect("a generated plan").0;
    let (first, second) = (run(), run());

    let recording = recorder.recording().expect("enabled");
    let repaired: u64 =
        recording.events_of("repair").filter_map(|e| e.u64("repaired_videos")).sum();
    assert!(repaired > 0, "the faults broke nothing a cycle had scheduled");
    for (a, b) in first.iter().zip(&second) {
        let k = a.stats.cycle;
        assert!(a.schedule == b.schedule, "cycle {k}: schedules diverged");
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "cycle {k}");
        assert_eq!(a.stats, b.stats, "cycle {k}");
        assert_eq!(a.served, b.served, "cycle {k}: delayed deliveries diverged");
        assert_eq!(a.served_originals, b.served_originals, "cycle {k}");
        assert_eq!(a.shed_now, b.shed_now, "cycle {k}");
        assert_eq!(a.dropped_now, b.dropped_now, "cycle {k}");
    }
}

/// Repair re-places broken videos under the policy the cycle solved with.
/// With neighborhood-local placement, node outages breaking caches over
/// six cycles at twelve seeds, every committed residency still sits at
/// the home of a user it serves — as it does without faults.
#[test]
fn repair_keeps_the_configured_placement_policy() {
    use vod_core::{GreedyPolicy, SorpConfig};
    use vod_faults::{FaultConfig, FaultPlan};

    let model = CostModel::per_hop();
    let cycles = 6;
    let policy = GreedyPolicy { allow_remote_placement: false, ..GreedyPolicy::default() };
    let shard = ShardConfig {
        sorp: SorpConfig { policy, ..SorpConfig::default() },
        ..ShardConfig::default()
    };
    let (mut residencies, mut repaired) = (0, 0);
    for seed in 0..12 {
        let (topo, catalog) = world(seed);
        let recorder = vod_obs::Recorder::enabled();
        let ctx = SchedCtx::new(&topo, &model, &catalog).with_recorder(recorder.clone());
        let arrivals = arrivals_for(&topo, &catalog, seed, cycles, vec![]);
        let faults = FaultPlan::generate(
            &topo,
            &FaultConfig {
                node_outages: 6,
                link_failures: 0,
                horizon: cycles as f64 * HORIZON,
                ..Default::default()
            },
            seed,
        );
        let cfg = ServiceConfig { shard: shard.clone(), faults, ..ServiceConfig::default() };
        let (outs, _) = service_run(&ctx, &arrivals, &cfg, cycles).unwrap();
        for (k, out) in outs.iter().enumerate() {
            for vs in out.schedule.videos() {
                for r in &vs.residencies {
                    residencies += 1;
                    // The cache's services: the delivery that fills it
                    // (starting at `t_s`, routed from its source through
                    // it) and those it serves.
                    let mut users = vs.transfers.iter().filter_map(|t| {
                        let fills =
                            t.start == r.start && t.src() == r.src && t.route.contains(&r.loc);
                        let served =
                            t.src() == r.loc && (r.start..=r.last_service).contains(&t.start);
                        t.user.filter(|_| fills || served)
                    });
                    assert!(
                        users.any(|u| topo.home_of(u) == r.loc),
                        "seed {seed}, cycle {k}: video {:?} cached at {}, home to none of its users",
                        r.video,
                        r.loc
                    );
                }
            }
        }
        let recording = recorder.recording().expect("enabled");
        repaired +=
            recording.events_of("repair").filter_map(|e| e.u64("repaired_videos")).sum::<u64>();
    }
    assert!(residencies > 0 && repaired > 0, "{residencies} residencies, {repaired} repaired");
}

/// Backoff re-entry can make two tickets hold one `(user, video, start)`
/// request with different original reservations. The cycle that serves
/// both pairs the most recently enqueued ticket with the first batch
/// slot, and across cycles every offered reservation is served once.
#[test]
fn colliding_tickets_keep_their_original_pairing() {
    use vod_cost_model::VideoId;
    use vod_topology::UserId;

    let (topo, catalog) = world(7);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    // Room for two greedy-rung requests per cycle: cycle 0 holds three,
    // so the ladder sheds the one on the coldest video.
    let cfg = ServiceConfig { budget_ns: Some(2.0 * 4_200.0), ..ServiceConfig::default() };
    let mut svc = ServiceLoop::new(&topo, cfg).unwrap();
    let req = |user, video, start| Request { user: UserId(user), video: VideoId(video), start };
    let early = req(0, 5, 100.0);
    let late = req(0, 5, HORIZON + 100.0);
    let offered = [early, req(1, 1, 200.0), req(2, 1, 300.0), late];

    for r in &offered[..3] {
        svc.offer(*r).unwrap();
    }
    let c0 = svc.run_cycle(&ctx, ExecMode::Sequential);
    assert_eq!(c0.shed_now, vec![early]);
    assert_eq!(c0.served_originals, vec![offered[1], offered[2]]);

    // `early` comes back shifted onto `late`'s slot, behind it in the queue.
    svc.offer(late).unwrap();
    let c1 = svc.run_cycle(&ctx, ExecMode::Sequential);
    assert_eq!(c1.served, vec![late, late]);
    assert_eq!(c1.served_originals, vec![early, late]);
    assert_eq!(c1.stats.deadline_misses, 1);

    let served = key_counts(c0.served_originals.iter().chain(c1.served_originals.iter()));
    assert_eq!(served, key_counts(offered.iter()));
    assert_eq!(svc.finish().conservation_error(), 0);
}

/// A late ticket is a deadline miss even when its identical twin was
/// shed: `early`, shed in cycle 0, comes back re-stamped onto the slot of
/// `late`, a fresh reservation of the same user and video, and cycle 1's
/// budget sheds exactly one of the two — `late`, nearer the queue head.
/// `early` is then served a cycle after its reservation.
#[test]
fn a_served_twin_of_a_shed_ticket_is_still_a_deadline_miss() {
    use vod_cost_model::VideoId;
    use vod_topology::UserId;

    let (topo, catalog) = world(7);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    // Keeps two greedy-rung requests of three, before and after cycle 0's
    // observation moves the greedy unit.
    let cfg = ServiceConfig { budget_ns: Some(2.5 * 4_200.0), ..ServiceConfig::default() };
    let mut svc = ServiceLoop::new(&topo, cfg).unwrap();
    let req = |user, video, start| Request { user: UserId(user), video: VideoId(video), start };
    let early = req(0, 5, 100.0);
    for r in [early, req(1, 1, 200.0), req(2, 1, 300.0)] {
        svc.offer(r).unwrap();
    }
    let c0 = svc.run_cycle(&ctx, ExecMode::Sequential);
    assert_eq!(c0.shed_now, vec![early]);

    let late = req(0, 5, HORIZON + 100.0);
    let other = req(1, 5, HORIZON + 200.0);
    svc.offer(late).unwrap();
    svc.offer(other).unwrap();
    let c1 = svc.run_cycle(&ctx, ExecMode::Sequential);
    assert_eq!(c1.stats.rung, Rung::Shed);
    assert_eq!(c1.shed_now, vec![late], "one of the twins is shed");
    assert_eq!(c1.served_originals, vec![early, other]);
    assert_eq!(c1.stats.deadline_misses, 1, "`early` is served late");

    let report = svc.finish();
    assert_eq!(report.in_flight, 1, "`late` is parked");
    assert_eq!(report.conservation_error(), 0);
}

/// A hand-built plan cuts IS2 off for the whole first cycle (the IS1—IS2
/// bridge is IS2's only link). The cycle still serves every request it
/// admitted — IS2's at the instant the bridge comes back, each counted as
/// a deadline miss — sheds nothing, and replays clean.
#[test]
fn a_cut_off_storage_is_served_late_not_shed() {
    use vod_faults::{Fault, FaultPlan};
    use vod_simulator::{cycle_is_clean, replay_service_cycle};
    use vod_topology::{units, TopologyBuilder};

    let mut b = TopologyBuilder::new();
    let vw = b.add_warehouse("VW");
    let is1 = b.add_storage("IS1", units::srate_per_gb_hour(1.0), units::gb(5.0));
    let is2 = b.add_storage("IS2", units::srate_per_gb_hour(1.0), units::gb(5.0));
    b.connect(vw, is1, units::nrate_per_gb(100.0)).unwrap();
    b.connect(is1, is2, units::nrate_per_gb(100.0)).unwrap();
    b.add_users(is1, 4);
    b.add_users(is2, 4);
    let topo = b.build().unwrap();
    let catalog = generate_catalog(&CatalogConfig::small(30), 5);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let arrivals = arrivals_for(&topo, &catalog, 5, 2, vec![]);
    let faults =
        FaultPlan::new(vec![Fault::LinkFailure { a: is1, b: is2, from: 0.0, until: HORIZON }]);
    let cfg = ServiceConfig { faults, ..ServiceConfig::default() };
    let (outs, report) = service_run(&ctx, &arrivals, &cfg, 2).unwrap();

    for out in &outs {
        let k = out.stats.cycle;
        assert!(out.shed_now.is_empty(), "cycle {k} shed {:?}", out.shed_now);
        assert_eq!(out.stats.shed, 0, "cycle {k}");
        assert_eq!(out.served.len(), out.stats.admitted, "cycle {k}");
        assert_eq!(out.schedule.delivery_count(), out.served.len(), "cycle {k}");
        assert_eq!(out.stats.deadline_misses, out.stats.delayed, "cycle {k}");
        let sim = replay_service_cycle(&topo, &catalog, &model, out);
        assert!(cycle_is_clean(&sim), "cycle {k}: {:?}", sim.violations);
    }
    // Cycle 0 serves IS2's requests exactly when the bridge comes back,
    // and IS1's on time.
    let (cut_off, reachable): (Vec<&Request>, Vec<&Request>) =
        outs[0].served.iter().partition(|r| topo.home_of(r.user) == is2);
    assert!(cut_off.iter().all(|r| r.start == HORIZON), "{cut_off:?}");
    assert!(reachable.iter().all(|r| r.start < HORIZON), "{reachable:?}");
    assert_eq!(outs[0].stats.delayed, cut_off.len());
    assert!(outs[0].stats.delayed > 0, "the plan cut nobody off");
    assert_eq!(outs[1].stats.delayed, 0, "the bridge is back in cycle 1");
    assert_eq!(report.served, arrivals.len());
    assert_eq!(report.deadline_misses, outs[0].stats.delayed);
    assert_eq!(report.conservation_error(), 0);
}
