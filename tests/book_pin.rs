//! The committed book, held to its definition cycle by cycle. Four reduced
//! cells of the benchmark run through `ServiceLoop`, and in lockstep a
//! reference `CommittedBook` evicts at the window start and commits every
//! shipped residency one by one. After every cycle the two books must
//! agree on every storage, to the bit: the entries in order, the plateau
//! sum, every occupancy segment, and the active-profile count. However the
//! service builds its book, it must be this one.

use vod_obs::Recorder;
use vod_paradigm::core::{
    CommittedBook, ExecMode, GreedyPolicy, Rung, SchedCtx, ServiceConfig, ServiceLoop, ShardConfig,
    SorpConfig,
};
use vod_paradigm::faults::{FaultConfig, FaultPlan};
use vod_paradigm::prelude::*;
use vod_paradigm::workload::{
    generate_arrivals, generate_catalog, ArrivalConfig, CatalogConfig, RequestConfig,
};

const H: f64 = 24.0 * 3_600.0;

/// One storage's row as bits: entries, plateau sum, segments.
type RowBits = (Vec<(u32, [u64; 5])>, u64, Vec<[u64; 4]>);

fn row_bits(topo: &Topology, book: &CommittedBook) -> Vec<RowBits> {
    let ledger = book.ledger();
    topo.storages()
        .map(|loc| {
            let entries = ledger
                .profiles_at(loc)
                .iter()
                .map(|(v, p)| {
                    let bits = [p.start, p.full, p.last, p.end, p.plateau].map(f64::to_bits);
                    (v.0, bits)
                })
                .collect();
            let mut segments = Vec::new();
            ledger.for_each_segment(loc, |t0, t1, u0, u1| {
                segments.push([t0, t1, u0, u1].map(f64::to_bits));
            });
            (entries, ledger.plateau_sum(loc).to_bits(), segments)
        })
        .collect()
}

/// Drive `cycles` cycles of `arrivals` through a service under `cfg`,
/// comparing its book with the reference after each; returns the
/// recording and the rung of every cycle.
fn drive(
    topo: &Topology,
    catalog: &Catalog,
    arrivals: &[vod_paradigm::workload::Arrival],
    cfg: ServiceConfig,
    cycles: usize,
) -> (vod_obs::Recording, Vec<Rung>) {
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(topo, &model, catalog).with_recorder(Recorder::enabled());
    let mut svc = ServiceLoop::new(topo, cfg).expect("a valid plan");
    let mut reference = CommittedBook::new(topo);
    let (mut next, mut rungs) = (0, Vec::new());
    for k in 0..cycles {
        let t0 = k as f64 * H;
        while next < arrivals.len() && arrivals[next].at <= t0 {
            let _ = svc.offer(arrivals[next].request);
            next += 1;
        }
        let out = svc.run_cycle(&ctx, ExecMode::Sequential);
        reference.evict_expired(t0);
        for r in out.schedule.residencies() {
            reference.commit(r.loc, r.profile(catalog.get(r.video)));
        }
        assert_eq!(svc.book().active(), reference.active(), "cycle {k}: active profiles");
        let (got, want) = (row_bits(topo, svc.book()), row_bits(topo, &reference));
        for ((loc, got), want) in topo.storages().zip(&got).zip(&want) {
            assert!(got == want, "cycle {k}: the book's row at {loc} is not the reference's");
        }
        rungs.push(out.stats.rung);
    }
    (ctx.recorder.recording().expect("recording"), rungs)
}

fn arrivals(
    topo: &Topology,
    catalog: &Catalog,
    requests_per_user: usize,
    cycles: usize,
    regional: bool,
    burst: Vec<(usize, usize)>,
) -> Vec<vod_paradigm::workload::Arrival> {
    let request = RequestConfig { requests_per_user, ..RequestConfig::with_alpha(0.271) };
    generate_arrivals(
        topo,
        catalog,
        &ArrivalConfig { request, cycles: cycles + 1, regional, burst },
        1997,
    )
}

fn sum(rec: &vod_obs::Recording, kind: &str, field: &str) -> u64 {
    rec.events_of(kind).filter_map(|e| e.u64(field)).sum()
}

fn catalog(titles: usize) -> Catalog {
    generate_catalog(&CatalogConfig::small(titles), 0xCA7A_10C0_FFEE_0001)
}

fn fig4() -> Topology {
    builders::paper_fig4(&builders::PaperFig4Config {
        capacity_gb: 5.0,
        users_per_neighborhood: 10,
        ..Default::default()
    })
}

/// `steady`: region shards over a global catalog; the global pass commits.
#[test]
fn steady_cell_book_is_the_reference() {
    const CYCLES: usize = 10;
    let (topo, catalog) = (fig4(), catalog(500));
    let arrivals = arrivals(&topo, &catalog, 2, CYCLES, false, Vec::new());
    let cfg =
        ServiceConfig { shard: ShardConfig::by_region(4), horizon: H, ..ServiceConfig::default() };
    let (rec, _) = drive(&topo, &catalog, &arrivals, cfg, CYCLES);
    assert!(sum(&rec, "shard_solve", "reconcile_victims") > 0, "the global pass never committed");
}

/// `contended`: time-slice shards, every storage shared.
#[test]
fn contended_cell_book_is_the_reference() {
    const CYCLES: usize = 4;
    let topo = builders::random_connected(
        &builders::GenConfig {
            storages: 24,
            capacity_gb: 1.8,
            users_per_neighborhood: 4,
            ..Default::default()
        },
        3,
        0xB0B,
    );
    let catalog = catalog(150);
    let arrivals = arrivals(&topo, &catalog, 7, CYCLES, false, Vec::new());
    let cfg = ServiceConfig {
        shard: ShardConfig::by_time_slice(4),
        horizon: H,
        ..ServiceConfig::default()
    };
    let (rec, _) = drive(&topo, &catalog, &arrivals, cfg, CYCLES);
    assert!(sum(&rec, "shard_solve", "shared_storages") > 0, "no storage was shared");
}

/// `overload_faults`: bursts, a bounded queue, a budget and faults, so
/// repair commits and the degraded rungs run.
#[test]
fn overload_faults_cell_book_is_the_reference() {
    const CYCLES: usize = 20;
    const RUN_CYCLES: usize = 800;
    let (topo, catalog) = (fig4(), catalog(120));
    let burst = (0..CYCLES + 1).filter(|k| k % 8 == 1).map(|k| (k, 8)).collect();
    let arrivals = arrivals(&topo, &catalog, 2, CYCLES, false, burst);
    let n = RUN_CYCLES / 4;
    let faults = FaultPlan::generate(
        &topo,
        &FaultConfig {
            node_outages: n,
            link_failures: n,
            link_degradations: n / 2,
            horizon: RUN_CYCLES as f64 * H,
            ..Default::default()
        },
        1997 ^ 0xFA17_0000_0000_0001,
    );
    let cfg = ServiceConfig {
        shard: ShardConfig::by_region(4),
        horizon: H,
        queue_bound: Some(2660),
        budget_ns: Some(11e6),
        faults,
        ..ServiceConfig::default()
    };
    let (rec, rungs) = drive(&topo, &catalog, &arrivals, cfg, CYCLES);
    assert!(sum(&rec, "repair", "repaired_videos") > 0, "repair never committed");
    for rung in [Rung::ReducedTrials, Rung::GreedyOnly, Rung::Shed] {
        assert!(rungs.contains(&rung), "no cycle ran on {rung:?}");
    }
}

/// `ample_wide`: regional catalogs, local-only placement, region shards.
#[test]
fn ample_wide_cell_book_is_the_reference() {
    const CYCLES: usize = 6;
    let topo = builders::random_connected(
        &builders::GenConfig {
            storages: 12,
            capacity_gb: 40.0,
            users_per_neighborhood: 4,
            ..Default::default()
        },
        3,
        0xB0B,
    );
    let catalog = catalog(120);
    let arrivals = arrivals(&topo, &catalog, 12, CYCLES, true, Vec::new());
    let policy = GreedyPolicy { allow_remote_placement: false, ..GreedyPolicy::default() };
    let cfg = ServiceConfig {
        shard: ShardConfig {
            sorp: SorpConfig { policy, ..SorpConfig::default() },
            ..ShardConfig::by_region(4)
        },
        horizon: H,
        ..ServiceConfig::default()
    };
    let (rec, _) = drive(&topo, &catalog, &arrivals, cfg, CYCLES);
    assert!(sum(&rec, "shard_solve", "shards") > CYCLES as u64, "the batch was never sharded");
}
