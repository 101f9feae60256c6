//! Service scenarios: a [`Scenario`] is one service run as plain data,
//! and [`Scenario::build`] draws what [`vod_core::service_run`] takes.
//! [`Scenario::named`] holds the service benchmark's four workloads as
//! `benchmark/src/adapter.rs::setup` builds them (a root test holds the two
//! equal by digest); [`Scenario::paper`] is the paper's environment as a
//! service, which `vodx cycles` runs as it is (every cycle the full warm
//! sharded solve of its window's batch) and `vodx service` under a queue
//! bound, a budget and a burst. A test reduces a cell by overriding fields
//! (`Scenario { cycles: 20, ..Scenario::named("overload_faults") }`) rather
//! than rebuilding it. Copies cached late in cycle `k` are still draining
//! when cycle `k+1` starts; the loop's book carries them into the next
//! solve, as real disks would.

use crate::EnvParams;
use vod_core::{
    service_run, SchedCtx, ServiceConfig, ServiceCycleOutcome, ServiceReport, ShardConfig,
};
use vod_cost_model::{Catalog, CostModel};
use vod_faults::{FaultConfig, FaultPlan};
use vod_obs::Recorder;
use vod_topology::builders::{paper_fig4, random_connected, GenConfig, PaperFig4Config};
use vod_topology::Topology;
use vod_workload::{
    generate_arrivals, generate_catalog, Arrival, ArrivalConfig, CatalogConfig, RequestConfig,
};

/// The benchmark's catalog seed, the same for every load seed: the catalog
/// belongs to the environment, like the network.
const CATALOG_SEED: u64 = 0xCA7A_10C0_FFEE_0001;
/// Split off the load seed to seed the fault plan.
const FAULT_SEED: u64 = 0xFA17_0000_0000_0001;

/// Which network a scenario runs on.
#[derive(Clone, Debug)]
pub enum Net {
    /// The paper's Fig. 4 metro network (19 intermediate storages).
    PaperFig4(PaperFig4Config),
    /// [`random_connected`]`(gen, extra_edges, seed)`.
    Random {
        /// Storages, rates, capacity and users per neighborhood.
        gen: GenConfig,
        /// Links beyond the spanning tree.
        extra_edges: usize,
        /// Wiring seed, fixed so the load seed never varies the network.
        seed: u64,
    },
}

/// One service run as plain data.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The network.
    pub net: Net,
    /// Titles in the catalog ([`CatalogConfig::small`]).
    pub titles: usize,
    /// Seed of the catalog draw.
    pub catalog_seed: u64,
    /// Each cycle's request draw, regional catalogs and bursts; arrivals
    /// stop after its `cycles`, and later cycles run idle.
    pub arrivals: ArrivalConfig,
    /// Faults drawn over their own `horizon` (`None`: the empty plan).
    pub faults: Option<FaultConfig>,
    /// Shards, strategy and SORP settings, the greedy policy among them.
    pub shard: ShardConfig,
    /// Intake queue bound (`None`: unbounded).
    pub queue_bound: Option<usize>,
    /// Per-cycle deadline budget, simulated ns (`None`: the ladder never
    /// engages).
    pub budget_ns: Option<f64>,
    /// Load seed: the arrival trace and, split off, the fault plan.
    pub seed: u64,
    /// Cycles a run drives.
    pub cycles: usize,
}

impl Scenario {
    /// The service benchmark's workloads, in `BENCHMARK.json` order.
    pub const NAMES: [&'static str; 4] = ["steady", "contended", "overload_faults", "ample_wide"];

    /// The benchmark workload `name` at the harness's default seed (1997)
    /// and run length. Panics on a name outside [`Scenario::NAMES`].
    pub fn named(name: &str) -> Self {
        let fig4 = Net::PaperFig4(PaperFig4Config {
            capacity_gb: 5.0,
            users_per_neighborhood: 10,
            ..PaperFig4Config::default()
        });
        let random = |capacity_gb, users_per_neighborhood| Net::Random {
            gen: GenConfig {
                storages: 24,
                capacity_gb,
                users_per_neighborhood,
                ..GenConfig::default()
            },
            extra_edges: 3,
            seed: 0xB0B,
        };
        let (net, titles, requests_per_user, cycles, shard) = match name {
            "steady" => (fig4, 500, 2, 1000, ShardConfig::by_region(4)),
            "contended" => (random(1.8, 4), 150, 7, 200, ShardConfig::by_time_slice(4)),
            "overload_faults" => (fig4, 120, 2, 800, ShardConfig::by_region(4)),
            "ample_wide" => (random(40.0, 6), 240, 28, 300, ShardConfig::by_region(8)),
            _ => panic!("no scenario named {name:?}; the names are {:?}", Self::NAMES),
        };
        let request = RequestConfig { requests_per_user, ..RequestConfig::with_alpha(0.271) };
        let mut s = Scenario {
            net,
            titles,
            catalog_seed: CATALOG_SEED,
            arrivals: ArrivalConfig { request, cycles, ..ArrivalConfig::default() },
            faults: None,
            shard,
            queue_bound: None,
            budget_ns: None,
            seed: 1997,
            cycles,
        };
        if name == "overload_faults" {
            // 8× bursts every eighth cycle; per four cycles one outage and
            // one link failure, per eight one degradation. Under a 4e6 ns
            // budget a long run would leave the Full rung for good.
            s.arrivals.burst = (0..cycles).filter(|k| k % 8 == 1).map(|k| (k, 8)).collect();
            let n = cycles / 4;
            s.faults = Some(FaultConfig {
                node_outages: n,
                link_failures: n,
                link_degradations: n / 2,
                horizon: cycles as f64 * 24.0 * 3_600.0,
                ..FaultConfig::default()
            });
            (s.queue_bound, s.budget_ns) = (Some(2660), Some(11e6));
        } else if name == "ample_wide" {
            // Regional catalogs, neighborhood-local placement.
            s.arrivals.regional = true;
            s.shard.sorp.policy.allow_remote_placement = false;
        }
        s
    }

    /// The paper's environment `params` as a service of `cycles` cycles:
    /// no queue bound, budget, burst or faults; four region shards. Its
    /// catalog seed is `params.seed` XOR the benchmark's.
    pub fn paper(params: &EnvParams, cycles: usize) -> Self {
        let request = RequestConfig {
            requests_per_user: params.requests_per_user,
            ..RequestConfig::with_alpha(params.zipf_alpha)
        };
        Scenario {
            net: Net::PaperFig4(params.network()),
            titles: params.videos,
            catalog_seed: params.seed ^ CATALOG_SEED,
            arrivals: ArrivalConfig { request, cycles, ..ArrivalConfig::default() },
            faults: None,
            shard: ShardConfig::default(),
            queue_bound: None,
            budget_ns: None,
            seed: params.seed,
            cycles,
        }
    }

    /// The topology, catalog, arrival trace and service config. The trace
    /// runs one cycle past the last one driven (the next cycle's earliest
    /// arrivals can fall due at the last window start), so a reduced run
    /// offers exactly the full run's prefix.
    pub fn build(&self) -> (Topology, Catalog, Vec<Arrival>, ServiceConfig) {
        let topo = match &self.net {
            Net::PaperFig4(cfg) => paper_fig4(cfg),
            Net::Random { gen, extra_edges, seed } => random_connected(gen, *extra_edges, *seed),
        };
        let catalog = generate_catalog(&CatalogConfig::small(self.titles), self.catalog_seed);
        let cycles = self.arrivals.cycles.min(self.cycles + 1);
        let trace = ArrivalConfig { cycles, ..self.arrivals.clone() };
        let arrivals = generate_arrivals(&topo, &catalog, &trace, self.seed);
        let faults = self.faults.as_ref().map_or_else(FaultPlan::empty, |f| {
            FaultPlan::generate(&topo, f, self.seed ^ FAULT_SEED)
        });
        let cfg = ServiceConfig {
            shard: self.shard.clone(),
            horizon: self.arrivals.request.horizon_hours * 3_600.0,
            queue_bound: self.queue_bound,
            budget_ns: self.budget_ns,
            faults,
            ..ServiceConfig::default()
        };
        (topo, catalog, arrivals, cfg)
    }

    /// Build and drive every cycle through [`vod_core::service_run`]
    /// under the per-hop cost model, recording into `recorder`: one
    /// [`ServiceCycleOutcome`] per cycle and the [`ServiceReport`].
    pub fn run(&self, recorder: &Recorder) -> (Vec<ServiceCycleOutcome>, ServiceReport) {
        let (topo, catalog, arrivals, cfg) = self.build();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog).with_recorder(recorder.clone());
        service_run(&ctx, &arrivals, &cfg, self.cycles)
            .expect("a generated trace is sorted and a generated plan validates")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Preset;
    use vod_core::{detect_overflows, Rung, StorageLedger, EXTERNAL_OCCUPANCY};
    use vod_topology::units;

    fn cheap_params() -> EnvParams {
        EnvParams { videos: 50, users_per_neighborhood: 4, ..EnvParams::fast() }
    }

    /// The oracle configuration: `vodx cycles`.
    fn oracle_run(params: &EnvParams, n_cycles: usize) -> Vec<ServiceCycleOutcome> {
        Scenario::paper(params, n_cycles).run(&Recorder::disabled()).0
    }

    #[test]
    fn three_cycles_run_cleanly() {
        let out = oracle_run(&cheap_params(), 3);
        assert_eq!(out.len(), 3);
        for c in &out {
            assert!(c.cost > 0.0);
            assert!(c.overflow_free, "cycle {} left an overflow", c.stats.cycle);
            assert!(!c.served.is_empty());
        }
        // Spillover starts at zero and is non-negative afterwards.
        assert_eq!(out[0].warm.spillover_bytes, 0.0);
        for c in &out[1..] {
            assert!(c.warm.spillover_bytes >= 0.0);
        }
        assert!(out.iter().map(|c| c.cost).sum::<f64>() > out[0].cost);
    }

    #[test]
    fn service_horizon_is_deterministic() {
        let a = oracle_run(&cheap_params(), 2);
        let b = oracle_run(&cheap_params(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cost, y.cost);
            assert_eq!(x.victims, y.victims);
        }
    }

    #[test]
    fn default_params_reproduce_the_pinned_fast_preset_numbers() {
        // `vodx cycles --fast`, captured once every solve ends in the
        // release sweep over victims and split videos, each re-placed with
        // its bans lifted and the cheaper re-placements kept: Ψ −3.2 %,
        // −6.5 % and −5.7 % against the unswept pipeline's 541 111,
        // 540 462 and 526 752 (a sweep of victims alone read 528 607,
        // 509 719 and 501 724). The kept re-placements reach cycle 2
        // through the book: one victim fewer (27 → 26) and 171 trial
        // hits instead of 180.
        let params = EnvParams::for_preset(Preset::Fast);
        let (out, report) = Scenario::paper(&params, 3).run(&Recorder::disabled());
        let pinned: [(u64, usize, usize); 3] = [
            (0x411ffb58bfb4092d, 27, 171),
            (0x411ed9ff965535db, 26, 181),
            (0x411e51c9e7878da3, 26, 171),
        ];
        for (c, (cost_bits, victims, hits)) in out.iter().zip(pinned) {
            let k = c.stats.cycle;
            assert_eq!(c.cost.to_bits(), cost_bits, "cycle {k} Ψ diverged");
            assert_eq!(c.victims, victims, "cycle {k} victims");
            assert_eq!(c.warm.trials_hit, hits, "cycle {k} trial hits");
            assert_eq!(c.stats.rung, Rung::Full);
        }
        assert_eq!(report.served, 684);
        assert_eq!(report.shed_events, 0);
        assert_eq!(report.conservation_error(), 0);
    }

    #[test]
    fn spillover_is_reported_in_gigabytes() {
        let params = cheap_params();
        let out = oracle_run(&params, 3);
        let capacity_budget_gb = 19.0 * params.capacity_gb; // every storage full
        let mut seen_positive = false;
        for c in &out {
            // Sanity: the byte counter in GB fits the hardware; a byte
            // count mistaken for GB could not. That `vodx cycles` prints
            // exactly this figure is checked by the renderer's own test.
            let spillover_gb = c.warm.spillover_bytes / units::GB;
            assert!(
                spillover_gb <= capacity_budget_gb,
                "cycle {}: {spillover_gb} GB exceeds the {capacity_budget_gb} GB of disk that exists",
                c.stats.cycle
            );
            seen_positive |= spillover_gb > 0.0;
        }
        assert!(seen_positive, "no cycle saw spillover; the unit check never engaged");
    }

    #[test]
    fn warm_stats_account_for_carried_state() {
        let out = oracle_run(&cheap_params(), 3);
        // Cycle 0 starts empty.
        assert_eq!(out[0].warm.committed_active, out[0].warm.committed_evicted);
        // Later cycles carry committed occupancy; within the 24 h horizon
        // nothing has fully drained yet, so the book only grows.
        for c in &out[1..] {
            assert!(c.warm.committed_active > 0, "cycle {} carried no occupancy", c.stats.cycle);
        }
    }

    #[test]
    fn combined_occupancy_respects_capacity_across_cycles() {
        let params = cheap_params();
        let outcomes = oracle_run(&params, 3);
        // Every cycle's commitments in one ledger: the union never
        // over-commits a storage.
        let (topo, catalog, _, _) = Scenario::paper(&params, 3).build();
        let mut ledger = StorageLedger::new(&topo);
        for out in &outcomes {
            assert!(out.overflow_free);
            for r in out.schedule.residencies() {
                ledger.add(r.loc, EXTERNAL_OCCUPANCY, r.profile(catalog.get(r.video)));
            }
        }
        assert!(detect_overflows(&topo, &ledger).is_empty());
    }

    #[test]
    fn overload_burst_engages_the_ladder() {
        let mut scenario = Scenario {
            queue_bound: Some(1_000),
            budget_ns: Some(100.0 * 4_200.0),
            ..Scenario::paper(&cheap_params(), 3)
        };
        scenario.arrivals.burst = vec![(1, 4)];
        let (out, report) = scenario.run(&Recorder::disabled());
        assert!(report.cycles.iter().any(|c| c.rung != Rung::Full), "budget never engaged");
        assert_eq!(report.conservation_error(), 0);
        for (k, c) in out.iter().enumerate() {
            assert_eq!(c.stats.cycle, k);
        }
    }
}
