//! Metamorphic relations: transformations of a run whose effect on every
//! decision is known exactly, checked bit for bit with no reference
//! implementation.
//!
//! R1, rate scaling. Ψ is linear in the charging rates (the per-hop
//! network rate and the storage rate), so scaling every link's `nrate` and
//! the storages' uniform `srate` by 2^k must leave every decision identical
//! and scale every Ψ by exactly 2^k: products with a power of two are
//! exact, and the service loop's budget counts simulated nanoseconds, not
//! dollars. A tolerance or floor stated in dollars — an absolute epsilon in
//! the greedy's candidate comparison, or in SORP's heat ties — breaks the
//! relation at one end of the scale or the other.
//!
//! R3, irrelevant faults. A cycle repairs against the faults its schedule
//! runs into, those overlapping `[window start, reach)`; faults that end by
//! cycle 0 or start after the whole run's reach must change nothing, to
//! the recording's last byte.
//!
//! R4, slack budget. The ladder picks the first rung whose prediction fits
//! the budget, so a budget equal to the largest Full-rung prediction an
//! unbudgeted run makes must keep every cycle on Full with the same
//! schedule; only `over_budget` may read differently.
//!
//! R3 and R4 run over the benchmark's four scenarios, each cut to a few
//! cycles.

use vod_obs::Recorder;
use vod_paradigm::core::{
    ivsp_solve, service_run, sorp_solve, HeatMetric, Rung, SchedCtx, ServiceConfig,
    ServiceCycleOutcome, ServiceCycleStats, SorpConfig, SorpOutcome, VictimRecord,
};
use vod_paradigm::experiments::{EnvParams, Scenario};
use vod_paradigm::faults::{Fault, FaultPlan};
use vod_paradigm::prelude::*;
use vod_paradigm::workload::Arrival;

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
    let (topo, catalog, arrivals, cfg) =
        Scenario { cycles: CYCLES, ..Scenario::named("overload_faults") }.build();
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

/// The benchmark's scenarios and the cycles R3 and R4 drive of each, at
/// two load seeds.
const CELLS: [(&str, usize); 4] =
    [("steady", 6), ("contended", 3), ("overload_faults", 24), ("ample_wide", 2)];
const SEEDS: [u64; 2] = [1997, 4242];

/// What a scenario's run depends on beyond its config.
struct Cell {
    name: String,
    topo: Topology,
    catalog: Catalog,
    arrivals: Vec<Arrival>,
    cfg: ServiceConfig,
    cycles: usize,
}

fn cells() -> impl Iterator<Item = Cell> {
    CELLS.into_iter().flat_map(|(name, cycles)| {
        SEEDS.map(|seed| {
            let (topo, catalog, arrivals, cfg) =
                Scenario { seed, cycles, ..Scenario::named(name) }.build();
            Cell { name: format!("{name} at seed {seed}"), topo, catalog, arrivals, cfg, cycles }
        })
    })
}

impl Cell {
    /// Every cycle's outcome and the run's recording, under `cfg`.
    fn run(&self, cfg: &ServiceConfig) -> (Vec<ServiceCycleOutcome>, vod_obs::Recording) {
        let model = CostModel::per_hop();
        let ctx =
            SchedCtx::new(&self.topo, &model, &self.catalog).with_recorder(Recorder::enabled());
        let (outcomes, _) =
            service_run(&ctx, &self.arrivals, cfg, self.cycles).expect("a valid plan");
        (outcomes, ctx.recorder.recording().expect("recording"))
    }
}

/// `got` made every decision `base` made: rung and accounting (with
/// `over_budget` masked when `mask_over_budget`), served and shed sets,
/// schedule, victims and the bits of Ψ.
fn assert_same(
    base: &[ServiceCycleOutcome],
    got: &[ServiceCycleOutcome],
    mask_over_budget: bool,
    at: &str,
) {
    assert_eq!(got.len(), base.len(), "{at}");
    let stats = |s: &ServiceCycleStats| ServiceCycleStats {
        over_budget: s.over_budget && !mask_over_budget,
        ..s.clone()
    };
    for (b, g) in base.iter().zip(got) {
        let at = format!("{at}, cycle {}", b.stats.cycle);
        assert_eq!(stats(&g.stats), stats(&b.stats), "{at}: rung or accounting differ");
        assert_eq!(g.served, b.served, "{at}: served requests differ");
        assert_eq!(g.shed_now, b.shed_now, "{at}: shed requests differ");
        assert!(g.schedule == b.schedule, "{at}: the schedules differ");
        assert_eq!(g.victims, b.victims, "{at}");
        assert_eq!(g.initial_cost.to_bits(), b.initial_cost.to_bits(), "{at}");
        assert_eq!(g.cost.to_bits(), b.cost.to_bits(), "{at}");
    }
}

/// The last instant any committed schedule of the run uses a link or a
/// store: the latest end of a stream or a stored residency.
fn run_reach(catalog: &Catalog, outcomes: &[ServiceCycleOutcome]) -> f64 {
    let ends = outcomes.iter().flat_map(|o| {
        let streams = o.schedule.transfers().map(|t| t.start + catalog.get(t.video).playback);
        let stored = o.schedule.residencies().map(|r| r.profile(catalog.get(r.video)).end);
        streams.chain(stored).collect::<Vec<_>>()
    });
    ends.fold(f64::NEG_INFINITY, f64::max)
}

/// Each fault kind twice: once ending at cycle 0's start (windows are
/// half-open), once starting a window after `reach`.
fn irrelevant_faults(topo: &Topology, reach: f64) -> Vec<Fault> {
    const H: f64 = 24.0 * 3_600.0;
    let node = topo.storages().next().expect("a storage");
    let (a, b) = (topo.edges()[0].a, topo.edges()[0].b);
    [(-2.0 * H, 0.0), (reach + H, reach + 3.0 * H)]
        .into_iter()
        .flat_map(|(from, until)| {
            [
                Fault::NodeOutage { node, from, until },
                Fault::LinkFailure { a, b, from, until },
                Fault::LinkDegraded { a, b, from, until, factor: 0.5 },
            ]
        })
        .collect()
}

#[test]
fn r3_irrelevant_faults_change_no_decision_and_no_recorded_byte() {
    for cell in cells() {
        let (base, base_rec) = cell.run(&cell.cfg);
        let reach = run_reach(&cell.catalog, &base);
        let mut faults = cell.cfg.faults.faults().to_vec();
        faults.extend(irrelevant_faults(&cell.topo, reach));
        let cfg = ServiceConfig { faults: FaultPlan::new(faults), ..cell.cfg.clone() };
        let (got, rec) = cell.run(&cfg);
        assert_same(&base, &got, false, &cell.name);
        assert!(rec.to_jsonl() == base_rec.to_jsonl(), "{}: the recordings differ", cell.name);
    }
}

#[test]
fn r4_a_budget_at_the_largest_full_prediction_changes_no_decision() {
    let mut over = 0;
    for cell in cells() {
        let unbudgeted = ServiceConfig { budget_ns: None, ..cell.cfg.clone() };
        let (base, rec) = cell.run(&unbudgeted);
        let budget = rec
            .events_of("rung")
            .filter(|e| e.str("rung") == Some(Rung::Full.label()))
            .filter_map(|e| e.f64("predicted_ns"))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(budget > 0.0, "{}: no Full-rung prediction recorded", cell.name);
        let (got, _) = cell.run(&ServiceConfig { budget_ns: Some(budget), ..unbudgeted });
        assert_same(&base, &got, true, &cell.name);
        over += got.iter().filter(|o| o.stats.over_budget).count();
    }
    assert!(over > 0, "no cycle overran the budget; over_budget never differed");
}
