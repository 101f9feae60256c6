//! Failure injection: corrupt valid schedules in every way the simulator
//! claims to detect, and assert each corruption is flagged with the right
//! violation — the validator itself is load-bearing for every other test,
//! so it gets its own adversarial suite.

use vod_paradigm::core::{ivsp_solve, sorp_solve, SchedCtx, SorpConfig};
use vod_paradigm::prelude::*;
use vod_paradigm::simulator::{simulate, SimOptions, Violation};
use vod_paradigm::workload::{CatalogConfig, RequestConfig, Workload};

struct World {
    topo: Topology,
    wl: Workload,
    model: CostModel,
    schedule: Schedule,
}

fn valid_world() -> World {
    let topo = builders::paper_fig4(&builders::PaperFig4Config::default());
    let wl = Workload::generate(
        &topo,
        &CatalogConfig::small(50),
        &RequestConfig { requests_per_user: 2, ..RequestConfig::paper() },
        11,
    );
    let model = CostModel::per_hop();
    let schedule = {
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        sorp_solve(&ctx, &ivsp_solve(&ctx, &wl.requests), &SorpConfig::default()).schedule
    };
    World { topo, wl, model, schedule }
}

fn violations(w: &World, schedule: &Schedule) -> Vec<Violation> {
    simulate(&w.topo, &w.wl.catalog, &w.model, schedule, &SimOptions::strict(&w.wl.requests))
        .violations
}

/// Sanity: the untampered schedule is clean.
#[test]
fn untampered_schedule_is_clean() {
    let w = valid_world();
    assert!(violations(&w, &w.schedule).is_empty());
}

#[test]
fn dropping_a_delivery_is_detected() {
    let w = valid_world();
    let mut s = w.schedule.clone();
    let vs0 = s.videos().next().unwrap().clone();
    let mut tampered = vs0.clone();
    let pos = tampered
        .transfers
        .iter()
        .position(|t| t.user.is_some())
        .expect("video schedules deliver something");
    tampered.transfers.remove(pos);
    s.upsert(tampered);
    let v = violations(&w, &s);
    assert!(v.iter().any(|x| matches!(x, Violation::MissingDelivery { .. })), "got {v:?}");
}

#[test]
fn duplicating_a_delivery_is_detected() {
    let w = valid_world();
    let mut s = w.schedule.clone();
    let vs0 = s.videos().next().unwrap().clone();
    let mut tampered = vs0.clone();
    let dup = tampered
        .transfers
        .iter()
        .find(|t| t.user.is_some())
        .expect("video schedules deliver something")
        .clone();
    tampered.transfers.push(dup);
    s.upsert(tampered);
    let v = violations(&w, &s);
    assert!(v.iter().any(|x| matches!(x, Violation::DuplicateDelivery { .. })), "got {v:?}");
}

#[test]
fn rerouting_to_the_wrong_neighborhood_is_detected() {
    let w = valid_world();
    let mut s = w.schedule.clone();
    let vs0 = s.videos().next().unwrap().clone();
    let mut tampered = vs0.clone();
    let t = tampered.transfers.iter_mut().find(|t| t.user.is_some()).expect("delivery exists");
    // Terminate the route one hop early (or extend it) so dst ≠ home.
    if t.route.len() >= 2 {
        t.route = t.route[..t.route.len() - 1].into();
    }
    let expected_dst = w.topo.home_of(t.user.unwrap());
    if *t.route.last().unwrap() == expected_dst {
        return; // popping restored a degenerate case; nothing to assert
    }
    s.upsert(tampered);
    let v = violations(&w, &s);
    assert!(
        v.iter().any(|x| matches!(
            x,
            Violation::WrongDestination { .. } | Violation::MissingDelivery { .. }
        )),
        "got {v:?}"
    );
}

#[test]
fn teleporting_route_is_detected() {
    let w = valid_world();
    let mut s = w.schedule.clone();
    let vs0 = s.videos().next().unwrap().clone();
    let mut tampered = vs0.clone();
    // Splice a hop between two nodes that are not connected: the
    // warehouse and a leaf two hops away.
    let leaf = w
        .topo
        .storages()
        .find(|&n| w.topo.edge_between(w.topo.warehouse(), n).is_none())
        .expect("fig4 has leaves not adjacent to the warehouse");
    tampered.transfers[0].route = vec![w.topo.warehouse(), leaf].into();
    s.upsert(tampered);
    let v = violations(&w, &s);
    assert!(v.iter().any(|x| matches!(x, Violation::BrokenRoute { .. })), "got {v:?}");
}

#[test]
fn streaming_from_an_empty_cache_is_detected() {
    let w = valid_world();
    let mut s = w.schedule.clone();
    let vs0 = s.videos().next().unwrap().clone();
    let mut tampered = vs0.clone();
    // Delete all residencies: any transfer sourced at a storage now reads
    // data that is not there. If this video was all-direct, force one
    // transfer to claim a storage source.
    tampered.residencies.clear();
    let had_cache_source = tampered.transfers.iter().any(|t| !w.topo.is_warehouse(t.src()));
    if !had_cache_source {
        let hub = NodeId(1);
        let local = w.topo.home_of(tampered.transfers[0].user.unwrap());
        let mut route = vec![hub];
        if hub != local {
            route.push(local);
        }
        tampered.transfers[0].route = route.into();
    }
    s.upsert(tampered);
    let v = violations(&w, &s);
    assert!(
        v.iter().any(|x| matches!(
            x,
            Violation::SourceHasNoData { .. } | Violation::BrokenRoute { .. }
        )),
        "got {v:?}"
    );
}

#[test]
fn phantom_residency_is_detected() {
    let w = valid_world();
    let mut s = w.schedule.clone();
    let vs0 = s.videos().next().unwrap().clone();
    let mut tampered = vs0.clone();
    // A residency claiming to be filled at a time when no stream passes.
    let video = tampered.video;
    tampered.residencies.push(Residency::begin(
        NodeId(3),
        w.topo.warehouse(),
        Request { user: UserId(0), video, start: 1.234 },
    ));
    s.upsert(tampered);
    let v = violations(&w, &s);
    assert!(v.iter().any(|x| matches!(x, Violation::ResidencyWithoutFeed { .. })), "got {v:?}");
}

#[test]
fn capacity_violation_is_detected_with_exact_location() {
    let w = valid_world();
    let mut s = w.schedule.clone();
    // Inflate one residency into a very long stay so the storage
    // over-commits. Pick a video with a real (non-degenerate) residency.
    let vs = s
        .videos()
        .find(|vs| vs.residencies.iter().any(|r| r.duration() > 0.0))
        .expect("resolved schedule keeps some caches")
        .clone();
    let mut tampered = vs.clone();
    let video = tampered.video;
    // Add giant parallel residencies at one storage (fed by the existing
    // first transfer's route start so the feed check passes is not the
    // point here — we only assert the capacity flag fires).
    let loc = tampered.residencies.iter().find(|r| r.duration() > 0.0).unwrap().loc;
    for k in 0..4 {
        let start = 1000.0 * k as f64;
        let mut r =
            Residency::begin(loc, w.topo.warehouse(), Request { user: UserId(k), video, start });
        r.extend(Request { user: UserId(k), video, start: start + 80_000.0 });
        tampered.residencies.push(r);
    }
    s.upsert(tampered);
    let v = violations(&w, &s);
    let found = v.iter().any(|x| match x {
        Violation::CapacityExceeded { loc: l, usage, capacity, .. } => {
            *l == loc && usage > capacity
        }
        _ => false,
    });
    assert!(found, "got {v:?}");
}

#[test]
fn link_overload_is_detected_when_capacities_are_declared() {
    let mut w = valid_world();
    // Declare one-stream links after the fact: the (valid, but
    // bandwidth-oblivious) schedule must now trip the link check.
    w.topo.set_uniform_bandwidth(Some(units::mbps(5.0))).unwrap();
    let v = violations(&w, &w.schedule);
    assert!(
        v.iter().any(|x| matches!(x, Violation::LinkOverloaded { .. })),
        "325+ streams across one-stream links must collide; got {v:?}"
    );
}

#[test]
fn every_violation_variant_is_constructible_and_debuggable() {
    // Guards against silently unused variants.
    let samples = vec![
        Violation::MissingDelivery { user: UserId(0), video: VideoId(0), start: 0.0 },
        Violation::DuplicateDelivery { user: UserId(0), video: VideoId(0) },
        Violation::WrongDestination { user: UserId(0), got: NodeId(1), expected: NodeId(2) },
        Violation::BrokenRoute { video: VideoId(0), from: NodeId(0), to: NodeId(5) },
        Violation::SourceHasNoData { video: VideoId(0), src: NodeId(1), start: 0.0 },
        Violation::ResidencyWithoutFeed { video: VideoId(0), loc: NodeId(1), start: 0.0 },
        Violation::CapacityExceeded { loc: NodeId(1), time: 0.0, usage: 2.0, capacity: 1.0 },
        Violation::LinkOverloaded {
            a: NodeId(0),
            b: NodeId(1),
            time: 0.0,
            demand: 2.0,
            capacity: 1.0,
        },
        Violation::CostMismatch { model: 1.0, measured: 2.0 },
        Violation::UnrequestedDelivery { user: UserId(0), video: VideoId(0), start: 0.0 },
        Violation::StreamOnFailedLink { video: VideoId(0), a: NodeId(0), b: NodeId(1), time: 0.0 },
        Violation::ResidencyLostToOutage { video: VideoId(0), loc: NodeId(1), time: 0.0 },
        Violation::RequestShed { user: UserId(0), video: VideoId(0), start: 0.0 },
        Violation::NonFiniteTime { video: VideoId(0), time: f64::NAN },
    ];
    for v in samples {
        assert!(!format!("{v:?}").is_empty());
    }
}

#[test]
fn over_delivery_is_distinct_from_duplicate() {
    let w = valid_world();
    let mut s = w.schedule.clone();
    let vs0 = s.videos().next().unwrap().clone();
    let mut tampered = vs0.clone();
    // Shift a delivery to a start nobody reserved: the original slot goes
    // missing and the shifted one is *unrequested*, not duplicate.
    let t = tampered.transfers.iter_mut().find(|t| t.user.is_some()).expect("delivery exists");
    t.start += 0.125;
    s.upsert(tampered);
    let v = violations(&w, &s);
    assert!(v.iter().any(|x| matches!(x, Violation::UnrequestedDelivery { .. })), "got {v:?}");
    assert!(v.iter().any(|x| matches!(x, Violation::MissingDelivery { .. })), "got {v:?}");
    assert!(
        !v.iter().any(|x| matches!(x, Violation::DuplicateDelivery { .. })),
        "over-delivery must not masquerade as duplication; got {v:?}"
    );
}
