//! The degraded rungs' placement, one rejective-greedy pass over the batch
//! (`audit::rejective_pass`), held to the flat-scan ledger. On Fig. 4
//! cells with 1–8 GB stores, each over a random feasible base ledger:
//!
//! * every committed residency profile fits, by `vod_oracles::flat::fits`,
//!   against the flat list of the base plus the videos placed before its
//!   own, in batch order;
//! * the flat scan finds no overflow in the base plus the schedule;
//! * the pass's Ψ is a from-scratch `schedule_cost` within 1e-9, and it is
//!   its own `initial_cost`: nothing resolved after it.
//!
//! Where no capacity can bind, every admission test passes and the pass
//! is `ivsp_solve` bit for bit: the degenerate configuration is the
//! capacity-blind path. (A storage's capacity is finite by the topology's
//! validation; 10⁹ GB per store is out of any schedule's reach.)

use proptest::prelude::*;
use vod_core::audit::rejective_pass;
use vod_core::{ivsp_solve, GreedyPolicy, SchedCtx, StorageLedger, EXTERNAL_OCCUPANCY};
use vod_cost_model::{CostModel, SpaceProfile, VideoId};
use vod_oracles::flat;
use vod_topology::{builders, units, Topology};
use vod_workload::{CatalogConfig, RequestConfig, SplitMix64, Workload};

/// A Fig. 4 network whose every store holds `capacity_gb`.
fn fig4(capacity_gb: f64) -> Topology {
    builders::paper_fig4(&builders::PaperFig4Config { capacity_gb, ..Default::default() })
}

type Rows = Vec<Vec<(VideoId, SpaceProfile)>>;

/// A base ledger of up to five external profiles per storage, each kept
/// only when it fits beside the ones kept before it: feasible by
/// construction. Returns the ledger and its flat rows by node index.
fn feasible_base(topo: &Topology, seed: u64) -> (StorageLedger, Rows) {
    let mut rng = SplitMix64::new(seed);
    let mut base = StorageLedger::new(topo);
    let mut rows = vec![Vec::new(); topo.node_count()];
    for loc in topo.storages() {
        for _ in 0..rng.index(6) {
            let start = rng.range_f64(0.0, 24.0 * 3_600.0);
            let last = start + rng.range_f64(0.0, 6.0 * 3_600.0);
            let size = units::gb(rng.range_f64(0.5, 4.0));
            let p = SpaceProfile::new(start, last, size, rng.range_f64(1_800.0, 7_200.0));
            let row: &mut Vec<(VideoId, SpaceProfile)> = &mut rows[loc.index()];
            if flat::fits(row, topo.capacity(loc), &p, None) {
                row.push((EXTERNAL_OCCUPANCY, p));
                base.add(loc, EXTERNAL_OCCUPANCY, p);
            }
        }
    }
    (base, rows)
}

fn workload(topo: &Topology, titles: usize, per_user: usize, seed: u64) -> Workload {
    let requests = RequestConfig { requests_per_user: per_user, ..RequestConfig::paper() };
    Workload::generate(topo, &CatalogConfig::small(titles), &requests, seed)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn the_pass_commits_only_what_fits(
        capacity_gb in 1.0f64..8.0,
        titles in 20usize..120,
        per_user in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let topo = fig4(capacity_gb);
        let wl = workload(&topo, titles, per_user, seed);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let (base, mut rows) = feasible_base(&topo, seed ^ 0xBA5E);
        let out = rejective_pass(&ctx, &wl.requests, GreedyPolicy::default(), &base);

        prop_assert_eq!(out.schedule.delivery_count(), wl.requests.len());
        for vs in out.schedule.videos() {
            let video = wl.catalog.get(vs.video);
            for r in &vs.residencies {
                let p = r.profile(video);
                let row = &rows[r.loc.index()];
                prop_assert!(
                    flat::fits(row, topo.capacity(r.loc), &p, None),
                    "video {:?} at {}: {:?} does not fit beside {} profiles",
                    vs.video, r.loc, p, row.len()
                );
            }
            for r in &vs.residencies {
                rows[r.loc.index()].push((vs.video, r.profile(video)));
            }
        }

        let mut ledger = base.clone();
        for r in out.schedule.residencies() {
            ledger.add(r.loc, r.video, r.profile(wl.catalog.get(r.video)));
        }
        let over = flat::detect_overflows(&topo, &ledger);
        prop_assert!(over.is_empty(), "the flat scan found {:?}", over);
        prop_assert!(out.overflow_free);

        let psi = ctx.schedule_cost(&out.schedule);
        prop_assert!((out.cost - psi).abs() <= 1e-9 * psi.abs().max(1.0), "{} vs {}", out.cost, psi);
        prop_assert_eq!(out.cost.to_bits(), out.initial_cost.to_bits());
        prop_assert_eq!((out.iterations, out.victims.len(), out.forced_fallbacks), (0, 0, 0));
    }

    #[test]
    fn where_no_capacity_binds_the_pass_is_ivsp(
        titles in 20usize..120,
        per_user in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let topo = fig4(1e9);
        let wl = workload(&topo, titles, per_user, seed);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let (base, _) = feasible_base(&topo, seed ^ 0xBA5E);
        let policy = GreedyPolicy::default();
        let out = rejective_pass(&ctx, &wl.requests, policy, &base);
        let ivsp = ivsp_solve(&ctx, &wl.requests, policy);
        prop_assert!(out.schedule == *ivsp.schedule(), "the pass left the capacity-blind path");
        prop_assert_eq!(out.cost.to_bits(), ivsp.total().to_bits());
    }
}
