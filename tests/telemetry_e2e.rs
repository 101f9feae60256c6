//! End-to-end audit of the flight recorder against the service
//! pipeline's own accounting: a recorder-enabled `service` horizon must
//! emit per-cycle records that reconcile *exactly* with the
//! [`ServiceReport`] and [`ServiceCycleOutcome`]s the run returns, and
//! its JSONL export must round-trip bit-for-bit.

use vod_core::{ServiceCycleOutcome, ServiceReport};
use vod_experiments::{service, EnvParams, Preset};
use vod_obs::{Recorder, Recording};

const N_CYCLES: usize = 4;

fn recorded_run() -> (Vec<ServiceCycleOutcome>, ServiceReport, Recording) {
    let params = EnvParams::for_preset(Preset::Fast);
    // Bounded queue + tight budget + a burst cycle: exercises admission
    // rejection, the degradation ladder, shedding, and backoff — every
    // row of the telemetry schema the acceptance criterion names.
    let sp = service::ServiceParams {
        queue_bound: Some(params.users_per_neighborhood * 19),
        budget_ns: Some(30.0 * 9_700.0),
        burst: vec![(1, 4)],
        ..service::ServiceParams::default()
    };
    let recorder = Recorder::enabled();
    let (outcomes, report) = service::service_horizon(&params, N_CYCLES, &sp, &recorder);
    let recording = recorder.recording().expect("recorder is enabled");
    (outcomes, report, recording)
}

/// Every `cycle_end` event mirrors the corresponding
/// [`vod_core::ServiceCycleStats`] row field by field, and the totals
/// `vodx trace` sums over them equal the report's run-level totals.
#[test]
fn cycle_records_reconcile_with_the_service_report() {
    let (outcomes, report, recording) = recorded_run();

    let ends: Vec<_> = recording.events_of("cycle_end").collect();
    assert_eq!(ends.len(), report.cycles.len(), "one cycle_end per cycle");
    assert_eq!(ends.len(), N_CYCLES);

    for (ev, stats) in ends.iter().zip(&report.cycles) {
        let c = stats.cycle;
        assert_eq!(ev.cycle, c as u64);
        assert_eq!(ev.str("rung"), Some(stats.rung.label()), "cycle {c} rung");
        assert_eq!(ev.u64("offered"), Some(stats.offered as u64), "cycle {c} offered");
        assert_eq!(
            ev.u64("rejected_full"),
            Some(stats.rejected_full as u64),
            "cycle {c} rejected_full"
        );
        assert_eq!(
            ev.u64("rejected_saturated"),
            Some(stats.rejected_saturated as u64),
            "cycle {c} rejected_saturated"
        );
        assert_eq!(ev.u64("admitted"), Some(stats.admitted as u64), "cycle {c} admitted");
        assert_eq!(ev.u64("served"), Some(stats.served as u64), "cycle {c} served");
        assert_eq!(ev.u64("shed"), Some(stats.shed as u64), "cycle {c} shed");
        assert_eq!(ev.u64("deferred"), Some(stats.deferred as u64), "cycle {c} deferred");
        assert_eq!(ev.u64("dropped"), Some(stats.dropped as u64), "cycle {c} dropped");
        assert_eq!(ev.u64("delayed"), Some(stats.delayed as u64), "cycle {c} delayed");
        assert_eq!(
            ev.u64("deadline_misses"),
            Some(stats.deadline_misses as u64),
            "cycle {c} deadline_misses"
        );
        assert_eq!(ev.u64("queue_depth"), Some(stats.queue_depth as u64), "cycle {c} depth");
        assert_eq!(ev.u64("sim_ns"), Some(stats.sim_ns), "cycle {c} sim_ns");
        assert_eq!(ev.bool("over_budget"), Some(stats.over_budget), "cycle {c} over_budget");
    }

    // The per-cycle rows also agree with the cycle outcomes.
    for (ev, out) in ends.iter().zip(&outcomes) {
        let c = out.stats.cycle;
        assert_eq!(ev.u64("served"), Some(out.served.len() as u64));
        assert_eq!(ev.f64("cost").map(f64::to_bits), Some(out.cost.to_bits()), "cycle {c} Ψ");
        assert_eq!(ev.u64("victims"), Some(out.victims as u64));
        assert_eq!(ev.bool("overflow_free"), Some(out.overflow_free));
    }

    // The run-level totals `vodx trace` prints — the `cycle_end` fields
    // summed over the recording — are the exact column sums of the report.
    let total = |field: &str| -> u64 { ends.iter().filter_map(|e| e.u64(field)).sum() };
    assert_eq!(total("offered"), report.offered as u64);
    assert_eq!(total("served"), report.served as u64);
    assert_eq!(total("shed"), report.shed_events as u64);
    assert_eq!(total("deferred"), report.deferred_events as u64);
    assert_eq!(total("dropped"), report.dropped as u64);

    // The run must actually have exercised the interesting paths,
    // otherwise the reconciliation above is vacuous.
    assert!(report.shed_events > 0, "tight budget + burst must shed");
    assert!(
        report.cycles.iter().any(|c| c.rung.label() != "full"),
        "ladder must leave the full rung"
    );
}

/// Intake, rung, warm, and shard-solve events arrive once per cycle, in
/// simulated-time order, and their per-cycle fields agree with the
/// report rows (intake conservation: offered = admitted + rejections +
/// queued growth is audited via the loop's own fields).
#[test]
fn per_stage_events_are_complete_and_ordered() {
    let (outcomes, report, recording) = recorded_run();

    for kind in ["intake", "rung", "warm", "budget"] {
        let n = recording.events_of(kind).count();
        assert_eq!(n, N_CYCLES, "expected one {kind} event per cycle, got {n}");
    }
    // Idle cycles skip the solver; every non-idle cycle has one solve.
    let solves = recording.events_of("shard_solve").count();
    let busy = report.cycles.iter().filter(|c| c.admitted > 0).count();
    assert_eq!(solves, busy, "one shard_solve per non-idle cycle");

    for (ev, stats) in recording.events_of("intake").zip(&report.cycles) {
        assert_eq!(ev.u64("offered"), Some(stats.offered as u64));
        assert_eq!(ev.u64("admitted"), Some(stats.admitted as u64));
        assert_eq!(ev.u64("rejected_full"), Some(stats.rejected_full as u64));
    }
    for (ev, out) in recording.events_of("warm").zip(&outcomes) {
        assert_eq!(ev.u64("shards_used"), Some(out.warm.shards_used as u64));
        assert_eq!(ev.u64("committed_active"), Some(out.warm.committed_active as u64));
        assert_eq!(ev.u64("trials_hit"), Some(out.warm.trials_hit as u64));
    }

    // Events are globally ordered by capture; simulated time must be
    // non-decreasing across them (the determinism contract).
    let mut last = f64::NEG_INFINITY;
    for ev in &recording.events {
        assert!(ev.sim_t >= last, "sim_t regressed: {} after {last}", ev.sim_t);
        last = ev.sim_t;
    }
}

/// JSONL export is lossless: parse(emit(recording)) compares equal —
/// including f64 bit patterns — and a second emit is byte-identical.
#[test]
fn jsonl_export_round_trips_bit_for_bit() {
    let (_, _, recording) = recorded_run();
    assert!(!recording.events.is_empty());

    let text = recording.to_jsonl();
    let back = Recording::from_jsonl(&text).expect("own export must parse");
    assert_eq!(back, recording);
    assert_eq!(back.to_jsonl(), text, "re-emit must be byte-identical");
}
