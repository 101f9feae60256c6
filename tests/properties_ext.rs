//! Property tests for the extension surfaces: trace round-trips, the
//! generalised space profile, bandwidth-aware scheduling, and the exact
//! solver.

use proptest::prelude::*;
use vod_paradigm::core::{
    bandwidth_aware_solve, find_optimal_video_schedule, find_video_schedule, GreedyPolicy, SchedCtx,
};
use vod_paradigm::cost_model::{SpaceModel, SpaceProfile};
use vod_paradigm::prelude::*;
use vod_paradigm::simulator::{simulate, SimOptions, Violation};
use vod_paradigm::workload::{trace, SplitMix64};

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Request batches survive a CSV round trip exactly.
    #[test]
    fn trace_round_trip_requests(
        rows in proptest::collection::vec((0u32..200, 0u32..500, 0.0f64..1e6), 0..60)
    ) {
        let reqs: Vec<Request> = rows
            .iter()
            .map(|&(u, v, t)| Request { user: UserId(u), video: VideoId(v), start: t })
            .collect();
        let batch = RequestBatch::new(reqs);
        let csv = trace::requests_to_csv(&batch);
        let back = trace::requests_from_csv(&csv).unwrap();
        let a: Vec<_> = batch.iter().map(|r| (r.user, r.video, r.start)).collect();
        let b: Vec<_> = back.iter().map(|r| (r.user, r.video, r.start)).collect();
        prop_assert_eq!(a, b);
    }

    /// Under both space models the profile integral equals its windowed
    /// integral over the support, space is non-negative everywhere, and
    /// the plateau is the pointwise maximum.
    #[test]
    fn space_profile_invariants_both_models(
        t_s in 0.0f64..1e5,
        dur in 0.0f64..1e5,
        size in 1.0f64..1e10,
        playback in 1.0f64..1e4,
        probe in 0.0f64..1.0,
    ) {
        for model in [SpaceModel::InstantReservation, SpaceModel::GradualFill] {
            let p = SpaceProfile::with_model(t_s, t_s + dur, size, playback, model);
            let full = p.integral();
            let windowed = p.integral_over(p.start - 1.0, p.end + 1.0);
            prop_assert!((full - windowed).abs() <= 1e-9 * full.max(1.0), "{model:?}");
            let t = p.start + probe * (p.end - p.start).max(1e-9);
            let s = p.space_at(t);
            prop_assert!(s >= 0.0 && s <= p.peak() + 1e-9, "{model:?}: space {s}");
        }
    }

    /// The two space models share the same peak (γ·size) and the same
    /// support endpoints (occupancy ends at t_f + P either way), and the
    /// instant model dominates gradual fill throughout the residency
    /// interval [t_s, t_f] (it reserves the full plateau from the start).
    /// During the drain tail the ordering can flip — the gradual plateau
    /// outlives the instant model's drain start on short residencies.
    #[test]
    fn space_models_share_peak_and_support(
        t_s in 0.0f64..1e4,
        dur in 0.0f64..1e4,
        size in 1.0f64..1e9,
        playback in 1.0f64..1e4,
        frac in 0.0f64..1.0,
    ) {
        let inst = SpaceProfile::with_model(t_s, t_s + dur, size, playback,
                                            SpaceModel::InstantReservation);
        let grad = SpaceProfile::with_model(t_s, t_s + dur, size, playback,
                                            SpaceModel::GradualFill);
        prop_assert!((inst.peak() - grad.peak()).abs() < 1e-9);
        prop_assert!((inst.end - grad.end).abs() < 1e-6 * inst.end.max(1.0),
                     "supports end together: {} vs {}", inst.end, grad.end);
        // Domination inside the residency interval itself.
        let t = t_s + frac * dur;
        prop_assert!(
            inst.space_at(t) + 1e-9 >= grad.space_at(t),
            "at t={t} in [t_s, t_f]: instant {} < gradual {}",
            inst.space_at(t),
            grad.space_at(t)
        );
    }

    /// The exact solver never exceeds the greedy and its schedule prices
    /// at exactly the claimed optimum.
    #[test]
    fn exact_solver_invariants(seed in 0u64..400) {
        let mut rng = SplitMix64::new(seed);
        let cfg = builders::GenConfig {
            storages: 2 + (rng.next_u64() % 3) as usize,
            nrate_per_gb: rng.range_f64(50.0, 900.0),
            srate_per_gb_hour: rng.range_f64(0.0, 50.0),
            capacity_gb: 100.0,
            users_per_neighborhood: 1,
        };
        let topo = builders::random_connected(&cfg, 2, seed);
        let catalog = vod_paradigm::workload::generate_catalog(
            &vod_paradigm::workload::CatalogConfig::small(1),
            seed,
        );
        let n_req = 2 + (rng.next_u64() % 3) as usize;
        let mut requests: Vec<Request> = (0..n_req)
            .map(|_| Request {
                user: UserId((rng.next_u64() % topo.user_count() as u64) as u32),
                video: VideoId(0),
                start: rng.range_f64(0.0, 86_400.0),
            })
            .collect();
        requests.sort_by(|a, b| a.start.total_cmp(&b.start));

        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let exact = find_optimal_video_schedule(&ctx, &requests)
            .expect("2–4 sorted requests of one video are within the exact solver's bounds");
        let greedy = ctx.video_cost(&find_video_schedule(&ctx, &requests, GreedyPolicy::default(), None));
        prop_assert!(exact.cost <= greedy * (1.0 + 1e-9) + 1e-9);
        prop_assert!(
            (ctx.video_cost(&exact.schedule) - exact.cost).abs()
                <= 1e-9 * exact.cost.max(1.0)
        );
        prop_assert_eq!(exact.schedule.delivery_count(), requests.len());
    }

    /// Heat-metric building blocks: the improved period never exceeds
    /// either window, ΔS never exceeds plateau × improved period, and all
    /// four heats are non-negative.
    #[test]
    fn heat_building_blocks_are_bounded(
        of_start in 0.0f64..1e5,
        of_len in 0.1f64..1e5,
        t_s in 0.0f64..1e5,
        dur in 0.0f64..1e5,
        size in 1.0f64..1e10,
        playback in 1.0f64..1e4,
        overhead in -100.0f64..1e5,
    ) {
        use vod_paradigm::core::heat::heat_of;
        use vod_paradigm::core::{HeatMetric, Interval, Overflow};
        let of = Overflow {
            loc: NodeId(1),
            window: Interval::new(of_start, of_start + of_len),
            peak_excess: 1.0,
        };
        let p = SpaceProfile::new(t_s, t_s + dur, size, playback);
        let x = vod_paradigm::core::heat::improved_period(&of, &p);
        prop_assert!(x >= 0.0);
        prop_assert!(x <= of_len + 1e-9);
        prop_assert!(x <= (p.end - p.start) + 1e-9);
        let ds = vod_paradigm::core::heat::delta_s(&of, &p);
        prop_assert!(ds >= 0.0);
        prop_assert!(ds <= p.peak() * x + 1e-6 * p.peak().max(1.0));
        for m in HeatMetric::ALL {
            prop_assert!(heat_of(m, &of, &p, overhead) >= 0.0, "{m}");
        }
    }

    /// The bandwidth-aware scheduler conserves requests (admitted +
    /// blocked = offered), and the strict replay of what it admitted finds
    /// no overloaded link.
    #[test]
    fn bandwidth_aware_conserves_and_respects_links(
        seed in 0u64..40,
        streams in 1.0f64..12.0,
    ) {
        let cfg = builders::GenConfig {
            storages: 5,
            users_per_neighborhood: 2,
            ..Default::default()
        };
        let mut topo = builders::random_connected(&cfg, 3, seed);
        topo.set_uniform_bandwidth(Some(units::mbps(5.0) * streams)).unwrap();
        let catalog = vod_paradigm::workload::generate_catalog(
            &vod_paradigm::workload::CatalogConfig::small(10),
            seed ^ 0xF00D,
        );
        let requests = vod_paradigm::workload::generate_requests(
            &topo,
            &catalog,
            &vod_paradigm::workload::RequestConfig::with_alpha(0.1),
            seed,
        );
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let out = bandwidth_aware_solve(&ctx, &requests);
        prop_assert_eq!(
            out.schedule.delivery_count() + out.blocked.len(),
            requests.len()
        );
        let key = |r: &Request| (r.user, r.video, r.start.to_bits());
        let blocked: Vec<_> = out.blocked.iter().map(key).collect();
        let admitted = RequestBatch::new(
            requests.iter().filter(|r| !blocked.contains(&key(r))).copied().collect(),
        );
        let report =
            simulate(&topo, &catalog, &model, &out.schedule, &SimOptions::strict(&admitted));
        prop_assert!(
            !report.violations.iter().any(|v| matches!(v, Violation::LinkOverloaded { .. })),
            "{:?}", report.violations
        );
        prop_assert!(report.is_valid(), "{:?}", report.violations);
    }
}
