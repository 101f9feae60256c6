//! Metamorphic relation R1, rate scaling. Ψ is linear in the charging
//! rates (the per-hop network rate and the storage rate), so scaling every
//! link's `nrate` and the storages' uniform `srate` by 2^k must leave every
//! decision identical and scale every Ψ by exactly 2^k: products with a
//! power of two are exact, and the service loop's budget counts simulated
//! nanoseconds, not dollars. A tolerance or floor stated in dollars — an
//! absolute epsilon in the greedy's candidate comparison, or in SORP's heat
//! ties — breaks the relation at one end of the scale or the other.

mod common;

use vod_paradigm::core::{
    ivsp_solve, service_run, sorp_solve, HeatMetric, Rung, SchedCtx, SorpConfig, SorpOutcome,
    VictimRecord,
};
use vod_paradigm::experiments::EnvParams;
use vod_paradigm::prelude::*;

/// The exponents the relation is checked at.
const KS: [i32; 2] = [-10, 10];

/// `topo` with every link's `nrate` and the storages' uniform `srate`
/// multiplied by 2^k.
fn scaled(topo: &Topology, k: i32) -> Topology {
    let mut srates = topo.storages().map(|n| topo.srate(n));
    let srate = srates.next().expect("a storage");
    assert!(srates.all(|r| r == srate), "the cell's storage rate is uniform");
    let mut t = topo.clone();
    t.scale_nrates(2f64.powi(k)).expect("a positive factor");
    t.set_uniform_srate(srate * 2f64.powi(k)).expect("a valid rate");
    t
}

/// `scaled`'s decisions are `base`'s and its Ψ is `base`'s times 2^k, bit
/// for bit.
fn assert_scaled(base: &SorpOutcome, scaled: &SorpOutcome, k: i32, at: &str) {
    let f = 2f64.powi(k);
    assert!(scaled.schedule == base.schedule, "{at}: the schedules differ");
    let victims = |o: &SorpOutcome, f: f64| -> Vec<_> {
        let bits =
            |v: &VictimRecord| [v.window_start, v.window_end, v.overhead * f].map(f64::to_bits);
        o.victims.iter().map(|v| (v.video, v.loc, bits(v))).collect()
    };
    assert_eq!(victims(scaled, 1.0), victims(base, f), "{at}: the victims differ");
    assert_eq!(scaled.iterations, base.iterations, "{at}");
    assert_eq!(scaled.forced_fallbacks, base.forced_fallbacks, "{at}");
    assert_eq!(scaled.initial_cost.to_bits(), (base.initial_cost * f).to_bits(), "{at}");
    assert_eq!(scaled.cost.to_bits(), (base.cost * f).to_bits(), "{at}");
}

/// Phase 1 and SORP on the paper's baseline cell, six seeds, 5 and 8 GB
/// stores, under every heat metric.
#[test]
fn r1_rate_scaling_keeps_every_sorp_decision() {
    let mut victims = 0;
    for seed in 1..=6 {
        for capacity_gb in [5.0, 8.0] {
            let (topo, wl) = EnvParams { capacity_gb, seed, ..EnvParams::paper() }.build();
            let model = CostModel::per_hop();
            let solve = |topo: &Topology, metric: HeatMetric| {
                let ctx = SchedCtx::new(topo, &model, &wl.catalog);
                let cfg = SorpConfig::with_metric(metric);
                sorp_solve(&ctx, ivsp_solve(&ctx, &wl.requests, cfg.policy), &cfg, None)
            };
            let variants = KS.map(|k| (k, scaled(&topo, k)));
            for metric in HeatMetric::ALL {
                let base = solve(&topo, metric);
                victims += base.victims.len();
                for (k, t) in &variants {
                    let at = format!("seed {seed}, {capacity_gb} GB, {metric}, k = {k}");
                    assert_scaled(&base, &solve(t, metric), *k, &at);
                }
            }
        }
    }
    assert!(victims > 100, "the cells must resolve overflows, got {victims} victims");
}

/// The whole service loop on the benchmark's `overload_faults` cell:
/// bursts, a bounded queue, a deadline budget, the degradation ladder and
/// fault repair, cycle by cycle.
#[test]
fn r1_rate_scaling_keeps_every_service_decision() {
    const CYCLES: usize = 48;
    let (topo, catalog, arrivals, cfg) = common::overload_faults_cell(1997, CYCLES);
    let model = CostModel::per_hop();
    let run = |topo: &Topology| {
        let ctx = SchedCtx::new(topo, &model, &catalog);
        service_run(&ctx, &arrivals, &cfg, CYCLES).expect("a generated plan").0
    };
    let base = run(&topo);
    let rungs: Vec<Rung> = base.iter().map(|o| o.stats.rung).collect();
    assert!(rungs.contains(&Rung::Full) && rungs.contains(&Rung::Shed), "{rungs:?}");
    for k in KS {
        let f = 2f64.powi(k);
        let outcomes = run(&scaled(&topo, k));
        assert_eq!(outcomes.len(), base.len());
        for (b, s) in base.iter().zip(&outcomes) {
            let at = format!("cycle {}, k = {k}", b.stats.cycle);
            assert_eq!(s.stats, b.stats, "{at}: rung or accounting differ");
            assert_eq!(s.served, b.served, "{at}: served requests differ");
            assert_eq!(s.shed_now, b.shed_now, "{at}: shed requests differ");
            assert!(s.schedule == b.schedule, "{at}: the schedules differ");
            assert_eq!(s.victims, b.victims, "{at}");
            assert_eq!(s.initial_cost.to_bits(), (b.initial_cost * f).to_bits(), "{at}");
            assert_eq!(s.cost.to_bits(), (b.cost * f).to_bits(), "{at}");
        }
    }
}
