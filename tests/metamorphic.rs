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
//! R2, size scaling. Every byte quantity of a run — each video's size and
//! bandwidth and the storages' uniform capacity — scaled by 2^k changes no
//! comparison between bytes, so every decision must stay identical and Ψ
//! (bytes times rates) must scale by exactly 2^k. A tolerance or floor
//! stated in bytes — an absolute term in a capacity comparison — breaks
//! the relation at one end of the scale or the other.
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
//! R5, order-preserving relabelling. Renumbering the videos and the
//! users by a strictly increasing map keeps every comparison between ids,
//! so the run must be the same up to the renaming: the same schedules,
//! held copies, sheds and accounting, Ψ bit for bit and the recording to
//! its last byte. A decision that reads an id's value rather than its rank
//! — a parity, a hash, an index used as a weight — breaks it.
//!
//! Holding copies across the window boundary keeps R1–R4: the hold rule
//! weighs dollars against dollars and bytes against bytes.
//!
//! R2, R3, R4 and R5 run over the benchmark's four scenarios, each cut to
//! a few cycles.

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

/// The one value a per-storage attribute takes on every storage.
fn uniform(topo: &Topology, attribute: impl Fn(NodeId) -> f64) -> f64 {
    let mut values = topo.storages().map(attribute);
    let value = values.next().expect("a storage");
    assert!(values.all(|v| v == value), "the cell's storages are uniform");
    value
}

/// `topo` with every link's `nrate` and the storages' uniform `srate`
/// multiplied by 2^k.
fn scaled(topo: &Topology, k: i32) -> Topology {
    let srate = uniform(topo, |n| topo.srate(n));
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
        assert_same(&base, &run(&scaled(&topo, k)), false, 2f64.powi(k), &format!("k = {k}"));
    }
}

/// The benchmark's scenarios and the cycles R2–R5 drive of each, at two
/// load seeds.
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

    /// The cell with every video's size and bandwidth and the storages'
    /// uniform capacity multiplied by 2^k.
    fn resized(&self, k: i32) -> Cell {
        let f = 2f64.powi(k);
        let videos =
            self.catalog.iter().map(|v| Video::new(v.id, v.size * f, v.playback, v.bandwidth * f));
        let capacity = uniform(&self.topo, |n| self.topo.capacity(n));
        let mut topo = self.topo.clone();
        topo.set_uniform_capacity(capacity * f).expect("a valid capacity");
        Cell {
            name: format!("{}, k = {k}", self.name),
            topo,
            catalog: Catalog::new(videos.collect()),
            arrivals: self.arrivals.clone(),
            cfg: self.cfg.clone(),
            cycles: self.cycles,
        }
    }

    /// The cell with every video `v` renumbered `2v + 1` and every user
    /// `u` renumbered `2u + 1`. Each even id is a filler that no request
    /// names: a copy of the title after it, a user at the same home.
    fn relabelled(&self) -> Cell {
        let videos = self.catalog.iter().flat_map(|v| {
            [2 * v.id.0, 2 * v.id.0 + 1]
                .map(|id| Video::new(VideoId(id), v.size, v.playback, v.bandwidth))
        });
        let mut b = TopologyBuilder::new();
        for n in self.topo.nodes() {
            let info = self.topo.node(n);
            if self.topo.is_warehouse(n) {
                b.add_warehouse(info.name.clone());
            } else {
                b.add_storage(info.name.clone(), info.srate, info.capacity);
            }
        }
        for e in self.topo.edges() {
            b.connect_with_bandwidth(e.a, e.b, e.nrate, e.bandwidth).expect("the cell's link");
        }
        for u in self.topo.users() {
            b.add_users(u.home, 2);
        }
        let arrivals =
            self.arrivals.iter().map(|a| Arrival { request: renamed(&a.request), ..*a }).collect();
        Cell {
            name: format!("{}, relabelled", self.name),
            topo: b.build().expect("the cell's network"),
            catalog: Catalog::new(videos.collect()),
            arrivals,
            cfg: self.cfg.clone(),
            cycles: self.cycles,
        }
    }
}

/// R5's renaming of a video.
fn video_renamed(v: VideoId) -> VideoId {
    VideoId(2 * v.0 + 1)
}

/// R5's renaming of a request.
fn renamed(r: &Request) -> Request {
    Request { user: UserId(2 * r.user.0 + 1), video: video_renamed(r.video), start: r.start }
}

/// R5's renaming of a schedule.
fn schedule_renamed(s: &Schedule) -> Schedule {
    let residency = |r: &Residency| Residency { video: video_renamed(r.video), ..r.clone() };
    s.videos()
        .map(|vs| VideoSchedule {
            video: video_renamed(vs.video),
            transfers: vs
                .transfers
                .iter()
                .map(|t| Transfer {
                    video: video_renamed(t.video),
                    user: t.user.map(|u| UserId(2 * u.0 + 1)),
                    ..t.clone()
                })
                .collect(),
            residencies: vs.residencies.iter().map(residency).collect(),
        })
        .collect()
}

/// `got` is `base` under R5's renaming: every request, schedule and
/// inherited copy renamed, and the rest — accounting, victim counts and
/// Ψ — identical to the bit.
fn assert_renamed(base: &[ServiceCycleOutcome], got: &[ServiceCycleOutcome], at: &str) {
    assert_eq!(got.len(), base.len(), "{at}");
    let requests = |rs: &[Request]| rs.iter().map(renamed).collect::<Vec<_>>();
    for (b, g) in base.iter().zip(got) {
        let at = format!("{at}, cycle {}", b.stats.cycle);
        assert_eq!(g.stats, b.stats, "{at}: rung or accounting differ");
        assert_eq!(g.served, requests(&b.served), "{at}: served requests differ");
        assert_eq!(g.served_originals, requests(&b.served_originals), "{at}");
        assert_eq!(g.shed_now, requests(&b.shed_now), "{at}: shed requests differ");
        assert_eq!(g.dropped_now, requests(&b.dropped_now), "{at}: dropped requests differ");
        assert!(g.schedule == schedule_renamed(&b.schedule), "{at}: the schedules differ");
        let inherited: Vec<Residency> = b
            .inherited
            .iter()
            .map(|r| Residency { video: video_renamed(r.video), ..r.clone() })
            .collect();
        assert_eq!(g.inherited, inherited, "{at}: the inherited copies differ");
        assert_eq!(g.victims, b.victims, "{at}: the victim counts differ");
        assert_eq!(g.warm.held, b.warm.held, "{at}: the holds differ");
        assert_eq!(g.initial_cost.to_bits(), b.initial_cost.to_bits(), "{at}");
        assert_eq!(g.cost.to_bits(), b.cost.to_bits(), "{at}");
    }
}

/// `got` made every decision `base` made: rung and accounting (with
/// `over_budget` masked when `mask_over_budget`), served and shed sets,
/// schedule and victims; and its Ψ is `base`'s times `f`, bit for bit.
fn assert_same(
    base: &[ServiceCycleOutcome],
    got: &[ServiceCycleOutcome],
    mask_over_budget: bool,
    f: f64,
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
        assert_eq!(g.initial_cost.to_bits(), (b.initial_cost * f).to_bits(), "{at}");
        assert_eq!(g.cost.to_bits(), (b.cost * f).to_bits(), "{at}");
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
fn r2_size_scaling_keeps_every_service_decision() {
    for cell in cells() {
        let (base, _) = cell.run(&cell.cfg);
        for k in KS {
            let resized = cell.resized(k);
            let (got, _) = resized.run(&resized.cfg);
            assert_same(&base, &got, false, 2f64.powi(k), &resized.name);
        }
    }
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
        assert_same(&base, &got, false, 1.0, &cell.name);
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
        assert_same(&base, &got, true, 1.0, &cell.name);
        over += got.iter().filter(|o| o.stats.over_budget).count();
    }
    assert!(over > 0, "no cycle overran the budget; over_budget never differed");
}

#[test]
fn r5_an_order_preserving_relabelling_changes_no_decision_and_no_recorded_byte() {
    let mut held = 0;
    for cell in cells() {
        let (base, base_rec) = cell.run(&cell.cfg);
        let relabelled = cell.relabelled();
        let (got, rec) = relabelled.run(&relabelled.cfg);
        assert_renamed(&base, &got, &relabelled.name);
        assert!(rec.to_jsonl() == base_rec.to_jsonl(), "{}: the recordings differ", cell.name);
        held += base.iter().map(|o| o.warm.held).sum::<usize>();
    }
    assert!(held > 0, "no cell held a copy; the relation never saw one");
}
