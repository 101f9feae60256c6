//! Ad-hoc diagnostics: residency and overflow structure per cell.

use vod_core::{
    detect_overflows, ivsp_solve, sorp_solve, GreedyPolicy, SchedCtx, SorpConfig, StorageLedger,
};
use vod_cost_model::CostModel;
use vod_experiments::EnvParams;

/// Phase-1 cost of the paper baseline cell under each greedy policy, plus
/// the resolved cost under each space model (the numbers quoted in
/// EXPERIMENTS.md's ablation section).
fn policy_ablation() {
    use vod_cost_model::SpaceModel;
    let params = EnvParams::paper();
    let (topo, wl) = params.build();
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let policies: [(&str, GreedyPolicy); 4] = [
        ("full", GreedyPolicy::default()),
        ("no_tie_pref", GreedyPolicy { prefer_local_cache_on_ties: false, ..Default::default() }),
        ("local_only", GreedyPolicy { allow_remote_placement: false, ..Default::default() }),
        ("no_new_caches", GreedyPolicy { allow_new_caches: false, ..Default::default() }),
    ];
    for (name, policy) in policies {
        let cost = ctx.schedule_cost(ivsp_solve(&ctx, &wl.requests, policy).schedule());
        println!("greedy_policy/{name}: phase-1 cost = {cost:.0}");
    }
    for (name, sm) in
        [("instant", SpaceModel::InstantReservation), ("gradual", SpaceModel::GradualFill)]
    {
        let priced = CostModel::per_hop().with_space_model(sm);
        let ctx = SchedCtx::new(&topo, &priced, &wl.catalog);
        let cost = sorp_solve(
            &ctx,
            ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default()),
            &SorpConfig::default(),
            None,
        )
        .cost;
        println!("space_model/{name}: resolved cost = {cost:.0}");
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("policies") {
        policy_ablation();
        return;
    }
    let rpu: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(3);
    for alpha in [0.1, 0.271, 0.5, 0.7] {
        for cap in [5.0, 8.0, 14.0] {
            let params = EnvParams {
                zipf_alpha: alpha,
                capacity_gb: cap,
                requests_per_user: rpu,
                ..EnvParams::paper()
            };
            let (topo, wl) = params.build();
            let model = CostModel::per_hop();
            let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
            let priced = ivsp_solve(&ctx, &wl.requests, GreedyPolicy::default());
            let real: usize =
                priced.schedule().residencies().filter(|r| r.duration() > 0.0).count();
            let ledger = StorageLedger::from_schedule(&topo, &wl.catalog, priced.schedule());
            let ofs = detect_overflows(&topo, &ledger);
            let outcome = sorp_solve(&ctx, priced, &SorpConfig::default(), None);
            println!(
                "alpha={alpha:<6} cap={cap:<4} real_residencies={real:<4} overflows={:<3} victims={:<3} rel_inc={:.2}% hit_gain={:.1}%",
                ofs.len(),
                outcome.victims.len(),
                100.0 * outcome.relative_cost_increase(),
                100.0 * (1.0
                    - outcome.cost
                        / ctx.schedule_cost(&vod_core::baselines::network_only(
                            &ctx,
                            &wl.requests
                        ))),
            );
        }
    }
}
