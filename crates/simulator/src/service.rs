//! Replay-side validation for the service frontend
//! (`vod_core::service`): strict per-cycle replay of whatever the loop
//! committed, and consistency checks over its accounting.
//!
//! The service loop's contract is that every cycle's committed schedule
//! serves exactly the requests it reports as served — shed requests are
//! excused, not silently missing. [`replay_service_cycle`] drives the
//! standard strict replay with the served ∪ shed batch and the shed list
//! as the excusal set, so the existing multiset-aware coverage filter
//! does the bookkeeping. [`check_service_accounting`] audits a
//! [`ServiceReport`]'s counters against the invariants the loop
//! guarantees (conservation, shed disposition, backoff histogram,
//! queue-bound respect).

use crate::engine::replay;
use crate::{SimOptions, SimReport, Violation};
use vod_core::{ServiceCycleOutcome, ServiceReport};
use vod_cost_model::{Catalog, CostModel, RequestBatch};
use vod_faults::FaultPlan;
use vod_topology::Topology;

/// Strictly replay one service cycle's committed schedule. The expected
/// batch is the cycle's served plus shed requests; shed ones surface as
/// [`Violation::RequestShed`] and are excused from coverage, so a valid
/// cycle report contains no *other* violation. The copies the cycle
/// inherited are present at its window start: a carried residency is fed
/// by its inherited copy and charged only for its continuation.
///
/// Faults are deliberately not re-injected: the schedule under replay is
/// the post-repair one, whose contract is to be clean on the healthy
/// topology (the repair already routed around the outage windows).
pub fn replay_service_cycle(
    topo: &Topology,
    catalog: &Catalog,
    model: &CostModel,
    cycle: &ServiceCycleOutcome,
) -> SimReport {
    let mut expected = cycle.served.clone();
    expected.extend(cycle.shed_now.iter().copied());
    let batch = RequestBatch::new(expected);
    let plan = FaultPlan::empty();
    replay(
        topo,
        catalog,
        model,
        &cycle.schedule,
        &plan,
        &cycle.shed_now,
        &SimOptions { inherited: &cycle.inherited, ..SimOptions::strict(&batch) },
    )
}

/// Is every violation in `report` an excused [`Violation::RequestShed`]?
pub fn cycle_is_clean(report: &SimReport) -> bool {
    report.violations.iter().all(|v| matches!(v, Violation::RequestShed { .. }))
}

/// Audit a [`ServiceReport`]'s accounting. Returns the list of violated
/// invariants (empty when consistent):
///
/// * conservation: accepted = served + dropped + in-flight;
/// * rejected offers never exceed offers;
/// * every shed event received a disposition (deferred or dropped);
/// * the backoff histogram counts exactly the deferred events;
/// * per-cycle queue depth never exceeds the recorded high-water mark.
pub fn check_service_accounting(report: &ServiceReport) -> Vec<String> {
    let mut errors = Vec::new();
    let err = report.conservation_error();
    if err != 0 {
        errors.push(format!(
            "conservation broken: accepted {} != served {} + dropped {} + in-flight {} (off by {err})",
            report.accepted(),
            report.served,
            report.dropped,
            report.in_flight
        ));
    }
    let rejected = report.rejected_full + report.rejected_saturated + report.rejected_unknown;
    if rejected > report.offered {
        errors.push(format!(
            "rejections ({} full + {} saturated + {} unknown video) exceed {} offers",
            report.rejected_full,
            report.rejected_saturated,
            report.rejected_unknown,
            report.offered
        ));
    }
    if report.shed_events != report.deferred_events + report.dropped {
        errors.push(format!(
            "shed disposition leak: {} shed != {} deferred + {} dropped",
            report.shed_events, report.deferred_events, report.dropped
        ));
    }
    let histogram_total: usize = report.backoff_histogram.iter().sum();
    if histogram_total != report.deferred_events {
        errors.push(format!(
            "backoff histogram counts {histogram_total} re-enqueues, report says {}",
            report.deferred_events
        ));
    }
    for c in &report.cycles {
        if c.queue_depth > report.queue_high_water {
            errors.push(format!(
                "cycle {}: queue depth {} above the {} high-water mark",
                c.cycle, c.queue_depth, report.queue_high_water
            ));
        }
    }
    let cycle_served: usize = report.cycles.iter().map(|c| c.served).sum();
    if cycle_served != report.served {
        errors.push(format!(
            "per-cycle served sums to {cycle_served}, report says {}",
            report.served
        ));
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_core::{service_run, ExecMode, SchedCtx, ServiceConfig};
    use vod_cost_model::{Request, VideoId};
    use vod_topology::builders::{paper_fig4, PaperFig4Config};
    use vod_workload::{generate_arrivals, generate_catalog, ArrivalConfig, CatalogConfig};

    fn world() -> (Topology, Catalog) {
        let topo = paper_fig4(&PaperFig4Config { capacity_gb: 5.0, ..Default::default() });
        let catalog = generate_catalog(&CatalogConfig::small(40), 0xBEEF);
        (topo, catalog)
    }

    #[test]
    fn oracle_cycles_replay_strictly_clean() {
        let (topo, catalog) = world();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let arrivals = generate_arrivals(
            &topo,
            &catalog,
            &ArrivalConfig { cycles: 2, ..ArrivalConfig::default() },
            31,
        );
        let (outcomes, report) = service_run(&ctx, &arrivals, &ServiceConfig::default(), 2)
            .expect("empty plan validates");
        for o in &outcomes {
            let sim = replay_service_cycle(&topo, &catalog, &model, o);
            assert!(cycle_is_clean(&sim), "violations: {:?}", sim.violations);
            assert_eq!(sim.metrics.deliveries, o.served.len());
        }
        assert!(check_service_accounting(&report).is_empty());
    }

    #[test]
    fn shed_cycles_replay_with_excused_sheds_only() {
        let (topo, catalog) = world();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let arrivals = generate_arrivals(
            &topo,
            &catalog,
            &ArrivalConfig { cycles: 1, ..ArrivalConfig::default() },
            33,
        );
        // A budget small enough to force heat-ranked shedding.
        let cfg = ServiceConfig { budget_ns: Some(10.0 * 4_200.0), ..ServiceConfig::default() };
        let (outcomes, report) = service_run(&ctx, &arrivals, &cfg, 2).expect("valid");
        let shed_total: usize = outcomes.iter().map(|o| o.shed_now.len()).sum();
        assert!(shed_total > 0, "the tiny budget must shed");
        for o in &outcomes {
            let sim = replay_service_cycle(&topo, &catalog, &model, o);
            assert!(cycle_is_clean(&sim), "violations: {:?}", sim.violations);
            let sheds = sim
                .violations
                .iter()
                .filter(|v| matches!(v, Violation::RequestShed { .. }))
                .count();
            assert_eq!(sheds, o.shed_now.len());
        }
        assert!(check_service_accounting(&report).is_empty());
    }

    /// Intake cannot see the catalog, so a ticket for a video outside it
    /// is queued; the cycle refuses it at the drain and serves the rest.
    #[test]
    fn a_ticket_for_a_video_outside_the_catalog_is_refused_at_the_drain() {
        use vod_core::ServiceLoop;
        let (topo, catalog) = world();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let mut svc = ServiceLoop::new(&topo, ServiceConfig::default()).expect("valid");
        let user = topo.users()[0].id;
        let known = Request { user, video: VideoId(0), start: 100.0 };
        let unknown = Request { video: VideoId(catalog.len() as u32), ..known };
        svc.offer(known).expect("queued");
        svc.offer(unknown).expect("intake does not know the catalog");

        let cycle = svc.run_cycle(&ctx, ExecMode::Sequential);
        assert_eq!(cycle.stats.rejected_unknown, 1);
        assert_eq!((cycle.stats.admitted, cycle.served.as_slice()), (1, &[known][..]));
        assert!(cycle_is_clean(&replay_service_cycle(&topo, &catalog, &model, &cycle)));
        let report = svc.finish();
        assert_eq!((report.offered, report.rejected_unknown, report.served), (2, 1, 1));
        assert_eq!(report.conservation_error(), 0);
        assert!(check_service_accounting(&report).is_empty());
    }

    #[test]
    fn accounting_checker_flags_corrupted_reports() {
        let (topo, catalog) = world();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let arrivals = generate_arrivals(
            &topo,
            &catalog,
            &ArrivalConfig { cycles: 1, ..ArrivalConfig::default() },
            35,
        );
        let (_, mut report) =
            service_run(&ctx, &arrivals, &ServiceConfig::default(), 1).expect("valid");
        assert!(check_service_accounting(&report).is_empty());
        report.served += 1;
        let errors = check_service_accounting(&report);
        assert!(
            errors.iter().any(|e| e.contains("conservation")),
            "tampered served count must break conservation: {errors:?}"
        );
    }
}
