//! Public-API surface checks: everything a downstream user needs is
//! reachable through `vod_paradigm::prelude` plus the documented module
//! paths, with no need to depend on the member crates directly.

use vod_paradigm::prelude::*;

#[test]
fn prelude_covers_the_quickstart_flow() {
    // Build an environment purely from prelude items.
    let mut b = TopologyBuilder::new();
    let vw = b.add_warehouse("VW");
    let is = b.add_storage("IS", units::srate_per_gb_hour(1.0), units::gb(5.0));
    b.connect(vw, is, units::nrate_per_gb(100.0)).unwrap();
    b.add_users(is, 2);
    let topo = b.build().unwrap();

    let video = Video::new(VideoId(0), units::gb(2.0), units::minutes(90.0), units::mbps(5.0));
    let catalog = Catalog::new(vec![video]);
    let batch = RequestBatch::new(vec![
        Request { user: UserId(0), video: VideoId(0), start: 100.0 },
        Request { user: UserId(1), video: VideoId(0), start: 5_000.0 },
    ]);

    let model = CostModel::per_hop();
    let ctx = vod_paradigm::core::SchedCtx::new(&topo, &model, &catalog);
    let cfg = vod_paradigm::core::SorpConfig::default();
    let phase1 = vod_paradigm::core::ivsp_solve(&ctx, &batch, cfg.policy);
    let outcome = vod_paradigm::core::sorp_solve(&ctx, phase1, &cfg, None);
    assert!(outcome.overflow_free);
    assert!(outcome.cost > 0.0);

    // The route table is exposed for custom tooling.
    let routes = RouteTable::build(&topo);
    assert_eq!(routes.path(vw, is).hop_count(), 1);
}

#[test]
fn documented_module_paths_resolve() {
    // Spot-check each documented module root by touching one item.
    let _ = vod_paradigm::topology::builders::PaperFig4Config::default();
    let _ = vod_paradigm::cost_model::SpaceModel::GradualFill;
    let _ = vod_paradigm::workload::CatalogConfig::paper();
    let _ = vod_paradigm::core::HeatMetric::ALL;
    let _ = vod_paradigm::core::GreedyPolicy::default();
    let _ = vod_paradigm::simulator::SimOptions::lenient();
    let _ = vod_paradigm::experiments::Preset::Fast;
}

#[test]
fn ids_and_errors_are_displayable() {
    assert_eq!(NodeId(3).to_string(), "n3");
    assert_eq!(UserId(4).to_string(), "u4");
    assert_eq!(VideoId(5).to_string(), "v5");
    let err = TopologyBuilder::new().build().unwrap_err();
    assert!(!err.to_string().is_empty());
}

#[test]
fn schedules_serialize_with_serde() {
    // The data model derives Serialize; a trivial serializer round-trip
    // through the Debug representation guards the derive wiring (no JSON
    // crate in the dependency budget).
    let batch = RequestBatch::new(vec![Request { user: UserId(0), video: VideoId(0), start: 1.0 }]);
    // Compile-time check that the types implement Serialize.
    fn assert_serialize<T: serde::Serialize>(_: &T) {}
    assert_serialize(&batch);
    let mut s = Schedule::new();
    s.upsert(VideoSchedule::new(VideoId(0)));
    assert_serialize(&s);
}
