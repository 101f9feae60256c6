//! Integration checks for the ablation surfaces: greedy policy knobs,
//! charging bases, and the space-model alternative — each run through the
//! full pipeline including simulator validation.

use vod_paradigm::core::{ivsp_solve, sorp_solve, GreedyPolicy, SchedCtx, SorpConfig};
use vod_paradigm::cost_model::SpaceModel;
use vod_paradigm::prelude::*;
use vod_paradigm::simulator::{simulate, SimOptions};
use vod_paradigm::workload::{CatalogConfig, RequestConfig, Workload};

fn world(seed: u64) -> (Topology, Workload) {
    let topo = builders::paper_fig4(&builders::PaperFig4Config::default());
    let wl = Workload::generate(
        &topo,
        &CatalogConfig::small(60),
        &RequestConfig { requests_per_user: 2, ..RequestConfig::paper() },
        seed,
    );
    (topo, wl)
}

/// The gradual-fill space model goes through the whole pipeline and
/// validates in the simulator, including the measured-cost cross-check.
#[test]
fn gradual_fill_pipeline_is_valid_end_to_end() {
    let (topo, wl) = world(1);
    let model = CostModel::per_hop().with_space_model(SpaceModel::GradualFill);
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let outcome = sorp_solve(
        &ctx,
        ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default()),
        &SorpConfig::default(),
        None,
    );
    assert!(outcome.overflow_free);
    let report =
        simulate(&topo, &wl.catalog, &model, &outcome.schedule, &SimOptions::strict(&wl.requests));
    assert!(report.is_valid(), "violations: {:?}", report.violations);
    assert!((report.metrics.total_cost - outcome.cost).abs() < 1e-6 * outcome.cost.max(1.0));
}

/// The two space models price the *same* schedule differently (the paper's
/// γ-approximation vs exact drain accounting) while agreeing on the
/// network component.
#[test]
fn space_models_differ_only_in_storage_component() {
    let (topo, wl) = world(2);
    let instant = CostModel::per_hop();
    let gradual = CostModel::per_hop().with_space_model(SpaceModel::GradualFill);
    let ctx = SchedCtx::new(&topo, &instant, &wl.catalog);
    let schedule = ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default()).into_schedule();

    let (net_i, sto_i) = instant.schedule_cost_split(&topo, &wl.catalog, &schedule);
    let (net_g, sto_g) = gradual.schedule_cost_split(&topo, &wl.catalog, &schedule);
    assert!((net_i - net_g).abs() < 1e-9, "network term must not depend on the space model");
    assert!(
        (sto_i - sto_g).abs() > 1e-6,
        "storage terms should differ between models ({sto_i} vs {sto_g})"
    );
    assert!(sto_i > 0.0 && sto_g > 0.0);
}

/// Greedy policy restrictions are never cheaper than the full search, and
/// the no-caching policy prices exactly like the network-only baseline.
#[test]
fn greedy_policies_order_as_expected() {
    let (topo, wl) = world(3);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);

    let full =
        ctx.schedule_cost(ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default()).schedule());
    let local_only = ctx.schedule_cost(
        ivsp_solve(
            &ctx,
            &wl.requests,
            GreedyPolicy { allow_remote_placement: false, ..Default::default() },
        )
        .schedule(),
    );
    let no_caching = ctx.schedule_cost(
        ivsp_solve(
            &ctx,
            &wl.requests,
            GreedyPolicy { allow_new_caches: false, ..Default::default() },
        )
        .schedule(),
    );
    let network_only =
        ctx.schedule_cost(&vod_paradigm::core::baselines::network_only(&ctx, &wl.requests));

    assert!(full <= local_only + 1e-6, "{full} vs local-only {local_only}");
    assert!(local_only <= no_caching + 1e-6, "{local_only} vs no-caching {no_caching}");
    assert!(
        (no_caching - network_only).abs() < 1e-6,
        "no-caching greedy must equal the network-only baseline"
    );
}

/// End-to-end charging through the full pipeline validates in the
/// simulator (the cost cross-check is per-hop-only and must auto-skip).
#[test]
fn end_to_end_basis_simulates_cleanly() {
    let (topo, wl) = world(4);
    let model = CostModel::end_to_end(&topo);
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let outcome = sorp_solve(
        &ctx,
        ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default()),
        &SorpConfig::default(),
        None,
    );
    let report =
        simulate(&topo, &wl.catalog, &model, &outcome.schedule, &SimOptions::strict(&wl.requests));
    assert!(report.is_valid(), "violations: {:?}", report.violations);
}

/// The gradual-fill scheduler caches at least as aggressively: its
/// extension charge for long residencies is lower (size·Δ vs
/// size·(Δ+P/2)), so the schedule's storage share can only grow.
#[test]
fn gradual_fill_encourages_caching() {
    let (topo, wl) = world(5);
    let instant = CostModel::per_hop();
    let gradual = CostModel::per_hop().with_space_model(SpaceModel::GradualFill);

    let ctx_i = SchedCtx::new(&topo, &instant, &wl.catalog);
    let ctx_g = SchedCtx::new(&topo, &gradual, &wl.catalog);
    let cached_i = ivsp_solve(&ctx_i, &wl.requests, GreedyPolicy::default())
        .into_schedule()
        .residencies()
        .filter(|r| r.duration() > 0.0)
        .count();
    let cached_g = ivsp_solve(&ctx_g, &wl.requests, GreedyPolicy::default())
        .into_schedule()
        .residencies()
        .filter(|r| r.duration() > 0.0)
        .count();
    // Not guaranteed strictly greater in every instance, but it must never
    // collapse: allow equality, forbid a large drop.
    assert!(
        cached_g + 2 >= cached_i,
        "gradual fill should cache comparably: {cached_g} vs {cached_i}"
    );
}
