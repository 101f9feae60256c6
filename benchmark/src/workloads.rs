//! The four workloads, as plain data. `adapter.rs` turns a [`Spec`] into the
//! program's own configuration types; nothing here names a program type.
//!
//! All workloads share Zipf α = 0.271, a 24 h cycle and the per-hop cost
//! model. `cycles` is the length of one repetition; a run repeats the same
//! arrival trace on a fresh service loop until its time budget is spent.

/// Which network the service runs on.
#[derive(Clone, Copy, Debug)]
pub enum Net {
    /// The paper's Fig. 4 metro network (19 intermediate storages).
    PaperFig4 { capacity_gb: f64, users_per_neighborhood: usize },
    /// `random_connected` with a fixed wiring seed, so `--seed` varies the
    /// load and never the network.
    Random { storages: usize, capacity_gb: f64, users_per_neighborhood: usize, extra_edges: usize },
}

/// Wiring seed of every [`Net::Random`] network.
pub const NET_SEED: u64 = 0xB0B;

/// How each cycle's batch is cut into shards.
#[derive(Clone, Copy, Debug)]
pub enum Sharding {
    ByRegion(usize),
    ByTimeSlice(usize),
}

/// Overload and fault injection (`overload_faults` only).
#[derive(Clone, Copy, Debug)]
pub struct Stress {
    /// Every cycle `k` with `k % burst_every == 1` carries `burst_mult`
    /// times the base load.
    pub burst_every: usize,
    pub burst_mult: usize,
    /// Intake queue bound.
    pub queue_bound: usize,
    /// Per-cycle deadline budget in simulated ns. 11e6, not
    /// BENCH_service's 4e6: under 4e6 a long run leaves the Full rung after
    /// cycle 1 and never returns, which would make this a pure greedy run.
    pub budget_ns: f64,
    /// One node outage and one link failure per this many cycles, and one
    /// link degradation per twice as many, drawn over the whole run.
    pub cycles_per_fault: usize,
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists: which layers carry it.
    pub why: &'static str,
    pub net: Net,
    pub titles: usize,
    pub requests_per_user: usize,
    /// Per-neighborhood catalogs: each video is requested from one region.
    pub regional: bool,
    pub sharding: Sharding,
    /// Restrict placements to the requesting neighborhood
    /// (`allow_remote_placement = false`).
    pub local_placement_only: bool,
    pub stress: Option<Stress>,
    /// Cycles per repetition; at least 200 so p95 has 10 samples beyond it.
    pub cycles: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "steady",
        why: "paper baseline cell as a service: every layer takes a moderate share and the global catalog makes cross-shard reconciliation fire",
        net: Net::PaperFig4 { capacity_gb: 5.0, users_per_neighborhood: 10 },
        titles: 500,
        requests_per_user: 2,
        regional: false,
        sharding: Sharding::ByRegion(4),
        local_placement_only: false,
        stress: None,
        cycles: 1000,
    },
    Spec {
        name: "contended",
        why: "SORP-bound: tight stores and time-sliced shards sharing every storage, so the solve is over 95% of run_cycle and replay under 10% of the cycle",
        net: Net::Random {
            storages: 24,
            capacity_gb: 1.8,
            users_per_neighborhood: 4,
            extra_edges: 3,
        },
        titles: 150,
        // 672 requests a cycle, not the issue's 960: SORP is super-linear in
        // the batch, and a 6 ms cycle is sampled three times as often as a
        // 19 ms one in the same run, which the per-cycle floor needs.
        requests_per_user: 7,
        regional: false,
        sharding: Sharding::ByTimeSlice(4),
        local_placement_only: false,
        stress: None,
        cycles: 200,
    },
    Spec {
        name: "overload_faults",
        why: "8x bursts, a bounded queue, a deadline budget and faults: rejection, ladder degradation, shedding, backoff and repair; the only workload that refuses or delays requests",
        net: Net::PaperFig4 { capacity_gb: 5.0, users_per_neighborhood: 10 },
        titles: 120,
        requests_per_user: 2,
        regional: false,
        sharding: Sharding::ByRegion(4),
        local_placement_only: false,
        stress: Some(Stress {
            burst_every: 8,
            burst_mult: 8,
            queue_bound: 2660,
            budget_ns: 11e6,
            cycles_per_fault: 4,
        }),
        cycles: 800,
    },
    Spec {
        name: "ample_wide",
        why: "bypasses SORP: ample stores, regional catalogs and local placement at the largest batch, so intake, partition, IVSP, pricing, commit and replay carry it",
        net: Net::Random {
            storages: 24,
            capacity_gb: 40.0,
            users_per_neighborhood: 6,
            extra_edges: 3,
        },
        titles: 240,
        requests_per_user: 28,
        regional: true,
        sharding: Sharding::ByRegion(8),
        local_placement_only: true,
        stress: None,
        cycles: 300,
    },
];

pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
