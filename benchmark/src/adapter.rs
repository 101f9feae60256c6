//! Every call into the program under test lives in this file, so a change
//! to the program's entry points needs a re-point here and nowhere else.
//! The rest of the harness sees plain data: [`World`], [`Rep`],
//! [`CycleSample`] and spans in a [`SpanLog`].
//!
//! Layers are measured from outside: wall-clock reads around calls into
//! each layer's public functions, counts read from public outcome structs,
//! and a `vod_obs::Recorder` attached through `SchedCtx::with_recorder`.

use crate::trace::{Span, SpanId, SpanLog};
use crate::workloads::{Net, Sharding, Spec, NET_SEED};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use vod_core::{
    ivsp_solve_priced_with, shard_solve, sorp_solve_priced, ExecMode, GreedyPolicy, PricedSchedule,
    Rung, SchedCtx, ServiceConfig, ServiceCycleOutcome, ServiceLoop, ShardConfig, SorpConfig,
    StorageLedger,
};
use vod_cost_model::{Catalog, CostModel, RequestBatch};
use vod_faults::{FaultConfig, FaultPlan};
use vod_obs::Recorder;
use vod_simulator::{check_service_accounting, cycle_is_clean, replay_service_cycle};
use vod_topology::builders::{paper_fig4, random_connected, GenConfig, PaperFig4Config};
use vod_topology::Topology;
use vod_workload::{
    generate_arrivals, generate_catalog, partition_requests, Arrival, ArrivalConfig, CatalogConfig,
    RequestConfig, ShardSpec, ShardStrategy,
};

const ZIPF_ALPHA: f64 = 0.271;
const HORIZON_S: f64 = 24.0 * 3_600.0;
/// The catalog belongs to the provider's environment, like the network: it
/// is the same for every `--seed`, so Ψ per request moves with the schedule
/// and not with which titles a seed happened to draw. `--seed` drives the
/// load: the arrival trace and, split off by `FAULT_SEED`, the fault plan.
const CATALOG_SEED: u64 = 0xCA7A_10C0_FFEE_0001;
const FAULT_SEED: u64 = 0xFA17_0000_0000_0001;

/// How the timed path runs the program's `parallel_map`: on the driver
/// thread. The benchmark machine gives a run two shared vCPUs; with a second
/// worker thread the same code read 35 % apart from one minute to the next,
/// so fan-out is measured by the `parallel.speedup` probe alone.
const EXEC: ExecMode = ExecMode::Sequential;

/// Rungs of the degradation ladder, in the order `Rep::rung_cycles` counts
/// them.
pub const RUNGS: [&str; 4] = ["full", "reduced", "greedy", "shed"];

/// Everything a workload needs before its first cycle, generated from the
/// workload's spec and the seed alone.
pub struct World {
    pub spec: &'static Spec,
    pub cycles: usize,
    topo: Topology,
    catalog: Catalog,
    model: CostModel,
    arrivals: Vec<Arrival>,
    faults: FaultPlan,
    shard: ShardConfig,
}

/// One set-up, timed stage by stage (ns).
pub struct SetupTimes {
    /// `(layer.stage, ns)` in execution order; they sum to `total_ns` up to
    /// the clock reads between them.
    pub stages: Vec<(&'static str, u64)>,
    pub total_ns: u64,
}

/// Build the workload's world and everything else `setup_s` covers:
/// topology, catalog, arrival trace, fault plan, `SchedCtx::new` (the route
/// table) and `ServiceLoop::new`.
pub fn setup(spec: &'static Spec, seed: u64, cycles: usize) -> (World, SetupTimes) {
    let started = Instant::now();
    let mut stages = Vec::new();
    let mut stage = |name, since: Instant| stages.push((name, since.elapsed().as_nanos() as u64));

    let t = Instant::now();
    let topo = match spec.net {
        Net::PaperFig4 { capacity_gb, users_per_neighborhood } => paper_fig4(&PaperFig4Config {
            capacity_gb,
            users_per_neighborhood,
            ..PaperFig4Config::default()
        }),
        Net::Random { storages, capacity_gb, users_per_neighborhood, extra_edges } => {
            let cfg =
                GenConfig { storages, capacity_gb, users_per_neighborhood, ..GenConfig::default() };
            random_connected(&cfg, extra_edges, NET_SEED)
        }
    };
    stage("topology.build", t);

    let t = Instant::now();
    let catalog = generate_catalog(&CatalogConfig::small(spec.titles), CATALOG_SEED);
    stage("workload.catalog", t);

    let t = Instant::now();
    let burst = spec.stress.map_or_else(Vec::new, |s| {
        (0..cycles).filter(|k| k % s.burst_every == 1).map(|k| (k, s.burst_mult)).collect()
    });
    let arrival_cfg = ArrivalConfig {
        request: RequestConfig {
            requests_per_user: spec.requests_per_user,
            ..RequestConfig::with_alpha(ZIPF_ALPHA)
        },
        cycles,
        regional: spec.regional,
        burst,
    };
    let arrivals = generate_arrivals(&topo, &catalog, &arrival_cfg, seed);
    stage("workload.arrivals", t);

    let t = Instant::now();
    let faults = spec.stress.map_or_else(FaultPlan::empty, |s| {
        let n = cycles / s.cycles_per_fault;
        let cfg = FaultConfig {
            node_outages: n,
            link_failures: n,
            link_degradations: n / 2,
            horizon: cycles as f64 * HORIZON_S,
            ..FaultConfig::default()
        };
        FaultPlan::generate(&topo, &cfg, seed ^ FAULT_SEED)
    });
    stage("faults.plan", t);

    let (shards, strategy) = match spec.sharding {
        Sharding::ByRegion(n) => (n, ShardStrategy::ByRegion),
        Sharding::ByTimeSlice(n) => (n, ShardStrategy::ByTimeSlice),
    };
    let policy = GreedyPolicy {
        allow_remote_placement: !spec.local_placement_only,
        ..GreedyPolicy::default()
    };
    let shard = ShardConfig {
        shards,
        strategy,
        sorp: SorpConfig { policy, ..SorpConfig::default() },
        ..ShardConfig::default()
    };
    let world =
        World { spec, cycles, topo, catalog, model: CostModel::per_hop(), arrivals, faults, shard };

    let t = Instant::now();
    let ctx = world.ctx(Recorder::disabled());
    stage("topology.routes", t);

    let t = Instant::now();
    let service = world.service();
    stage("service.new", t);

    let total_ns = started.elapsed().as_nanos() as u64;
    drop((service, ctx));
    (world, SetupTimes { stages, total_ns })
}

impl World {
    fn ctx(&self, recorder: Recorder) -> SchedCtx<'_> {
        SchedCtx::new(&self.topo, &self.model, &self.catalog).with_recorder(recorder)
    }

    fn service(&self) -> ServiceLoop {
        let stress = self.spec.stress;
        let cfg = ServiceConfig {
            shard: self.shard.clone(),
            horizon: HORIZON_S,
            queue_bound: stress.map(|s| s.queue_bound),
            budget_ns: stress.map(|s| s.budget_ns),
            faults: self.faults.clone(),
            ..ServiceConfig::default()
        };
        ServiceLoop::new(&self.topo, cfg).expect("a generated fault plan validates by construction")
    }

    /// Size of the arrival trace held in memory, MB.
    pub fn trace_mb(&self) -> f64 {
        (self.arrivals.len() * std::mem::size_of::<Arrival>()) as f64 / 1e6
    }

    pub fn arrivals(&self) -> usize {
        self.arrivals.len()
    }
}

/// What one cycle cost and produced. A cycle runs from the first `offer` of
/// its due arrivals to the return of its strict replay.
#[derive(Clone, Debug, Default)]
pub struct CycleSample {
    pub offer_ns: u64,
    pub run_ns: u64,
    pub replay_ns: u64,
    /// The program's own wall-clock reading around its solve.
    pub solve_ns: u64,
    pub offered: usize,
    pub served: usize,
    pub cost: f64,
    /// Index into [`RUNGS`].
    pub rung: usize,
    /// The strict replay found a violation other than an excused shed.
    pub dirty: bool,
    /// The cycle's window overlaps at least one injected fault.
    pub faulted: bool,
}

impl CycleSample {
    pub fn cycle_ns(&self) -> u64 {
        self.offer_ns + self.run_ns + self.replay_ns
    }

    /// `run_cycle` outside the solve: drain, ladder, shed ranking, repair,
    /// accounting.
    pub fn frontend_ns(&self) -> u64 {
        self.run_ns.saturating_sub(self.solve_ns)
    }
}

/// Sums of `ServiceCycleOutcome::warm` over a repetition.
#[derive(Clone, Debug, Default)]
pub struct WarmSums {
    pub trials_carried: u64,
    pub trials_adopted: u64,
    pub trials_revalidated: u64,
    pub trials_hit: u64,
    pub phase1_hits: u64,
    pub committed_active: u64,
    pub committed_evicted: u64,
    pub spillover_bytes: f64,
}

/// One repetition: a fresh service loop driven over the whole trace.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub cycles: Vec<CycleSample>,
    pub offered: usize,
    pub rejected: usize,
    pub served: usize,
    pub shed_events: usize,
    pub deferred_events: usize,
    pub dropped: usize,
    pub deadline_misses: usize,
    pub in_flight: usize,
    pub queue_high_water: usize,
    pub over_budget_cycles: usize,
    /// Cycles per rung, indexed like [`RUNGS`].
    pub rung_cycles: [usize; 4],
    pub warm: WarmSums,
    pub violations: usize,
    /// Index, rung and violation kinds of the first replay-dirty cycle.
    pub first_dirty: Option<String>,
    /// Broken accounting invariants; any entry fails the run.
    pub accounting_errors: Vec<String>,
}

impl Rep {
    pub fn psi(&self) -> f64 {
        self.cycles.iter().map(|c| c.cost).sum()
    }

    pub fn dirty_cycles(&self) -> usize {
        self.cycles.iter().filter(|c| c.dirty).count()
    }

    /// Requests the service did not serve cleanly: refused at intake,
    /// dropped after backoff, still queued at finish, or served by a cycle
    /// whose replay was dirty.
    pub fn failed(&self) -> usize {
        let dirty_served: usize = self.cycles.iter().filter(|c| c.dirty).map(|c| c.served).sum();
        self.rejected + self.dropped + self.in_flight + dirty_served
    }

    /// What must repeat bit for bit on every repetition of one trace.
    pub fn signature(&self) -> (Vec<(usize, u64, bool)>, [usize; 4]) {
        (
            self.cycles.iter().map(|c| (c.served, c.cost.to_bits(), c.dirty)).collect(),
            [self.failed(), self.deadline_misses, self.offered, self.violations],
        )
    }
}

/// Cycles kept from a traced repetition for [`probe`]: `(cycle, outcome)`.
pub struct Sampled(Vec<(usize, ServiceCycleOutcome)>);

/// Cycles sampled per traced repetition, evenly spaced.
const PROBES: usize = 12;

/// Counts the program's flight recorder gave for one traced repetition,
/// keyed `layer.counter`.
pub type RecorderCounts = BTreeMap<&'static str, f64>;

/// What a traced repetition yields beyond its [`Rep`].
pub struct Traced {
    pub counts: RecorderCounts,
    pub sampled: Sampled,
}

/// Drive one repetition. Untraced, the only harness work inside a cycle is
/// four clock reads; traced, each cycle also logs its spans and the
/// program records into an enabled `Recorder`.
pub fn run_rep(world: &World, rep: usize, mut spans: Option<&mut SpanLog>) -> (Rep, Traced) {
    let recorder = if spans.is_some() { Recorder::enabled() } else { Recorder::disabled() };
    let ctx = world.ctx(recorder.clone());
    let mut service = world.service();
    let sample_every = world.cycles.div_ceil(PROBES);
    let mut sampled = Vec::new();

    let mut out = Rep { cycles: Vec::with_capacity(world.cycles), ..Rep::default() };
    let mut next = 0usize;
    for k in 0..world.cycles {
        let t0 = k as f64 * HORIZON_S;
        let first = next;
        let started = Instant::now();
        while next < world.arrivals.len() && world.arrivals[next].at <= t0 {
            // A rejection is typed backpressure the loop accounts for
            // itself; the driver has nowhere to bounce it to.
            let _ = service.offer(world.arrivals[next].request);
            next += 1;
        }
        let offered = Instant::now();
        let cycle = service.run_cycle(&ctx, EXEC);
        let ran = Instant::now();
        let sim = replay_service_cycle(&world.topo, &world.catalog, &world.model, &cycle);
        let dirty = !cycle_is_clean(&sim);
        let replayed = Instant::now();

        let sample = CycleSample {
            offer_ns: (offered - started).as_nanos() as u64,
            run_ns: (ran - offered).as_nanos() as u64,
            replay_ns: (replayed - ran).as_nanos() as u64,
            solve_ns: cycle.warm.solve_ns,
            offered: next - first,
            served: cycle.served.len(),
            cost: cycle.cost,
            rung: match cycle.stats.rung {
                Rung::Full => 0,
                Rung::ReducedTrials => 1,
                Rung::GreedyOnly => 2,
                Rung::Shed => 3,
            },
            dirty,
            faulted: world.faults.faults().iter().any(|f| f.overlaps(t0, t0 + HORIZON_S)),
        };
        out.rung_cycles[sample.rung] += 1;
        out.over_budget_cycles += usize::from(cycle.stats.over_budget);
        out.warm.trials_carried += cycle.warm.trials_carried as u64;
        out.warm.trials_adopted += cycle.warm.trials_adopted as u64;
        out.warm.trials_revalidated += cycle.warm.trials_revalidated as u64;
        out.warm.trials_hit += cycle.warm.trials_hit as u64;
        out.warm.phase1_hits += cycle.warm.phase1_hits as u64;
        out.warm.committed_active += cycle.warm.committed_active as u64;
        out.warm.committed_evicted += cycle.warm.committed_evicted as u64;
        out.warm.spillover_bytes += cycle.warm.spillover_bytes;
        if dirty {
            let foreign = sim.violations.iter().filter(|v| !is_excused(v));
            out.violations += foreign.clone().count();
            out.first_dirty.get_or_insert_with(|| {
                let mut kinds: Vec<String> = foreign.map(violation_kind).collect();
                kinds.sort();
                kinds.dedup();
                format!("cycle {k} rung {} violations {}", RUNGS[sample.rung], kinds.join(","))
            });
        }

        if let Some(spans) = spans.as_deref_mut() {
            let at = |t: Instant| spans.at(t);
            let span = |name, a, b, parent, count| Span {
                name,
                rep,
                cycle: k,
                start_ns: a,
                end_ns: b,
                parent,
                count: count as u64,
            };
            let (a, b, c, d) = (at(started), at(offered), at(ran), at(replayed));
            let root = spans.push(span("cycle", a, d, None, sample.served));
            spans.push(span("service.offer", a, b, Some(root), sample.offered));
            spans.push(span("service.run_cycle", b, c, Some(root), sample.served));
            spans.push(span("simulator.replay", c, d, Some(root), sample.served));
            if k % sample_every == 0 && !cycle.served.is_empty() {
                sampled.push((k, cycle));
            }
        }
        out.cycles.push(sample);
    }

    let report = service.finish();
    out.offered = report.offered;
    out.rejected = report.rejected_full + report.rejected_saturated;
    out.served = report.served;
    out.shed_events = report.shed_events;
    out.deferred_events = report.deferred_events;
    out.dropped = report.dropped;
    out.deadline_misses = report.deadline_misses;
    out.in_flight = report.in_flight;
    out.queue_high_water = report.queue_high_water;
    out.accounting_errors = check_service_accounting(&report);
    if report.conservation_error() != 0 && out.accounting_errors.is_empty() {
        out.accounting_errors.push(format!("conservation off by {}", report.conservation_error()));
    }
    (out, Traced { counts: recorder_counts(&recorder), sampled: Sampled(sampled) })
}

fn is_excused(v: &vod_simulator::Violation) -> bool {
    matches!(v, vod_simulator::Violation::RequestShed { .. })
}

/// The variant name of a violation (`CapacityExceeded`, …).
fn violation_kind(v: &vod_simulator::Violation) -> String {
    let text = format!("{v:?}");
    text.split(|c: char| !c.is_ascii_alphanumeric()).next().unwrap_or_default().to_string()
}

/// Exact per-layer counts from the flight recorder's `shard_solve` and
/// `repair` events, summed over the repetition.
fn recorder_counts(recorder: &Recorder) -> RecorderCounts {
    let mut counts = RecorderCounts::new();
    let Some(recording) = recorder.recording() else { return counts };
    const SHARD_SOLVE: [(&str, &str); 12] = [
        ("sorp.iterations", "iterations"),
        ("sorp.victims", "victims"),
        ("sorp.trials_run", "trials_run"),
        ("sorp.trials_cached", "trials_cached"),
        ("sorp.nodes_rescanned", "nodes_rescanned"),
        ("sorp.forced_fallbacks", "forced_fallbacks"),
        ("shard.split_videos", "split_videos"),
        ("shard.shared_storages", "shared_storages"),
        ("shard.cross_shard_overflows", "cross_shard_overflows"),
        ("shard.reconcile_iterations", "reconcile_iterations"),
        ("shard.reconcile_victims", "reconcile_victims"),
        ("shard.trials_transplanted", "trials_transplanted"),
    ];
    const REPAIR: [(&str, &str); 2] = [("repair.shed", "shed"), ("repair.delayed", "delayed")];
    let mut sum = |events: &str, fields: &[(&'static str, &str)]| {
        for &(metric, _) in fields {
            counts.insert(metric, 0.0);
        }
        let mut n = 0.0;
        for e in recording.events_of(events) {
            n += 1.0;
            for &(metric, field) in fields {
                *counts.entry(metric).or_default() += e.u64(field).unwrap_or(0) as f64;
            }
        }
        n
    };
    sum("shard_solve", &SHARD_SOLVE);
    let repaired = sum("repair", &REPAIR);
    counts.insert("repair.cycles_repaired", repaired);
    let (mut cost, mut initial) = (0.0, 0.0);
    for e in recording.events_of("shard_solve") {
        cost += e.f64("cost").unwrap_or(0.0);
        initial += e.f64("initial_cost").unwrap_or(0.0);
    }
    counts.insert("sorp.rel_cost_increase", crate::stats::ratio(cost - initial, initial));
    counts.insert("obs.events", recording.events.len() as f64);
    counts
}

/// Cold re-solves of each sampled cycle's served batch, layer by layer,
/// under a `probe` root span outside cycle time. They start from empty
/// storages and cold caches, so they rank layers and track one layer across
/// commits; they do not sum to `service.run_cycle`.
pub fn probe(world: &World, rep: usize, sampled: &Sampled, spans: &mut SpanLog) {
    let ctx = world.ctx(Recorder::disabled());
    for (k, cycle) in &sampled.0 {
        probe_cycle(world, &ctx, cycle, (rep, *k), spans);
    }
}

fn probe_cycle(
    world: &World,
    ctx: &SchedCtx<'_>,
    cycle: &ServiceCycleOutcome,
    at: (usize, usize),
    spans: &mut SpanLog,
) {
    let start_ns = spans.now();
    // Reserve the root's slot so children can point at it.
    let root: SpanId = spans.push(Span {
        name: "probe",
        rep: at.0,
        cycle: at.1,
        start_ns,
        end_ns: start_ns,
        parent: None,
        count: cycle.served.len() as u64,
    });
    let parent = Some(root);
    let batch = RequestBatch::new(cycle.served.clone());
    let n = batch.len() as u64;
    let cfg = &world.shard;

    let spec = ShardSpec { shards: cfg.shards, strategy: cfg.strategy, seed: cfg.seed };
    spans.time("probe.partition", at, parent, || {
        (black_box(partition_requests(&world.topo, &batch, &spec)).len(), n)
    });
    let phase1 = spans.time("probe.ivsp", at, parent, || {
        (ivsp_solve_priced_with(ctx, &batch, cfg.sorp.policy, EXEC), n)
    });
    spans.time("probe.sorp_cold", at, parent, || {
        (black_box(sorp_solve_priced(ctx, phase1, &cfg.sorp, &[], EXEC)).iterations, n)
    });
    spans.time("probe.shard_cold", at, parent, || {
        (black_box(shard_solve(ctx, &batch, cfg, EXEC)).shards, n)
    });
    spans.time("probe.shard_parallel", at, parent, || {
        (black_box(shard_solve(ctx, &batch, cfg, ExecMode::Parallel)).shards, n)
    });
    spans.time("probe.price", at, parent, || {
        (black_box(PricedSchedule::price(ctx, cycle.schedule.clone())).total(), n)
    });

    let mut ledger = spans.time("probe.ledger_from_schedule", at, parent, || {
        (StorageLedger::from_schedule(&world.topo, &world.catalog, &cycle.schedule), n)
    });
    // Every profile the ledger holds, grouped by (storage, video): `remove`
    // drops all of a video's profiles at a storage at once.
    let held: Vec<_> = world
        .topo
        .storages()
        .flat_map(|loc| {
            let mut by_video = BTreeMap::<_, Vec<_>>::new();
            for &(video, profile) in ledger.profiles_at(loc) {
                by_video.entry(video).or_default().push(profile);
            }
            by_video.into_iter().map(move |(video, profiles)| (loc, video, profiles))
        })
        .collect();
    let profiles = held.iter().map(|(_, _, ps)| ps.len() as u64).sum();
    spans.time("probe.ledger_fits", at, parent, || {
        let fits = held.iter().flat_map(|(loc, video, ps)| {
            ps.iter().map(|p| ledger.fits(&world.topo, *loc, p, Some(*video)))
        });
        (black_box(fits.filter(|fit| *fit).count()), profiles)
    });
    spans.time("probe.ledger_remove_add", at, parent, || {
        for (loc, video, ps) in &held {
            ledger.remove(*loc, *video);
            for p in ps {
                ledger.add(*loc, *video, *p);
            }
        }
        (black_box(&ledger).profile_count(world.topo.warehouse()), profiles)
    });

    let end_ns = spans.now();
    spans.close(root, end_ns);
}

/// Workers the program's `parallel_map` fans out to under
/// `ExecMode::Parallel` (the `parallel.speedup` probe).
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The program's JSON parser, for checking what the harness writes.
#[cfg(test)]
pub use vod_obs::{json::parse as parse_json, Json};
