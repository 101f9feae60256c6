//! The naive SORP loop, kept as the equivalence oracle for
//! [`vod_core::sorp_solve_priced`].
//!
//! This is the resolution loop without standing jobs, the trial cache or
//! the incremental overflow monitor: every iteration re-detects every
//! overflow with a full scan, rebuilds every participant's job and
//! re-runs its trial reschedule. It is written against `vod_core`'s public API only, shares
//! no code with the production loop beyond the paper's building blocks
//! (overflow detection, the rejective greedy, the heat metrics and their
//! tie tolerance), and can
//! run its admission tests on either ledger implementation. The
//! equivalence suites assert the production solver agrees with it bit
//! for bit — schedule, Ψ, victims, iteration count — and the legacy
//! benches time against it.
//!
//! Dev-only: nothing outside `[dev-dependencies]` may depend on this
//! crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use vod_core::{
    detect_overflows, heat_of, heats_tie, map_with_mode, overflow_set, reschedule_video_with,
    Constraints, ExecMode, Interval, LedgerMode, PricedSchedule, SchedCtx, SorpConfig, SorpOutcome,
    StorageLedger, VictimRecord, EXTERNAL_OCCUPANCY,
};
use vod_cost_model::{Dollars, SpaceProfile, Transfer, VideoId, VideoSchedule};
use vod_topology::NodeId;

/// Replace a video's schedule in the ledger and the pricing memo.
fn commit(
    ctx: &SchedCtx<'_>,
    priced: &mut PricedSchedule,
    ledger: &mut StorageLedger,
    new_vs: VideoSchedule,
) {
    let vid = new_vs.video;
    if let Some(old_vs) = priced.schedule().video(vid) {
        for r in &old_vs.residencies {
            ledger.remove(r.loc, vid);
        }
    }
    for r in &new_vs.residencies {
        ledger.add(r.loc, r.video, r.profile(ctx.catalog.get(r.video)));
    }
    priced.commit(ctx, new_vs);
}

/// One overflow participant's trial reschedule.
struct Job<'s> {
    of_idx: usize,
    vid: VideoId,
    old_vs: &'s VideoSchedule,
    bans: Vec<(NodeId, Interval)>,
    profile: SpaceProfile,
    old_cost: Dollars,
}

/// Resolve every storage overflow of `priced` with the naive loop, over
/// a ledger in `ledger_mode` seeded with the immutable `external`
/// occupancy. Same contract as [`vod_core::sorp_solve_priced`]; the
/// outcome's `trials_cached` is always 0, `jobs_rebuilt` is every job
/// scored, and `nodes_rescanned` counts every finite-capacity storage
/// once per iteration.
pub fn sorp_solve_naive(
    ctx: &SchedCtx<'_>,
    mut priced: PricedSchedule,
    cfg: &SorpConfig,
    external: &[(NodeId, SpaceProfile)],
    ledger_mode: LedgerMode,
    mode: ExecMode,
) -> SorpOutcome {
    let initial_cost = priced.total();
    // External occupancy first, schedule second: the production solver's
    // order, which fixes the reference mode's float summation.
    let mut ledger = StorageLedger::new(ctx.topo);
    ledger.set_mode(ledger_mode);
    for (loc, profile) in external {
        ledger.add(*loc, EXTERNAL_OCCUPANCY, *profile);
    }
    for r in priced.schedule().residencies() {
        ledger.add(r.loc, r.video, r.profile(ctx.catalog.get(r.video)));
    }
    let finite_storages = ctx.topo.storages().filter(|&l| ctx.topo.capacity(l).is_finite()).count();

    let mut forbidden: HashMap<VideoId, Vec<(NodeId, Interval)>> = HashMap::new();
    let mut victims = Vec::new();
    let (mut iterations, mut forced_fallbacks) = (0, 0);
    let (mut trials_run, mut nodes_rescanned) = (0, 0);

    loop {
        nodes_rescanned += finite_storages;
        let overflows = detect_overflows(ctx.topo, &ledger);
        if overflows.is_empty() {
            break;
        }
        if iterations >= cfg.max_iterations {
            // Fallback: force one participant of the first overflow that
            // has any to direct-only delivery. Strictly reduces stored
            // bytes, so this loop tail terminates.
            let victim = overflows.iter().find_map(|of| {
                let &(vid, _) = overflow_set(&ledger, of).first()?;
                priced.schedule().video(vid)
            });
            let Some(old) = victim else {
                break; // purely external overflows: unresolvable
            };
            let vw = ctx.topo.warehouse();
            let mut new_vs = VideoSchedule::new(old.video);
            new_vs.transfers.extend(old.delivered_requests().iter().map(|req| {
                let route = ctx.routes.shared_path(vw, ctx.topo.home_of(req.user));
                Transfer::for_user(req, route.expect("the warehouse reaches every user"))
            }));
            commit(ctx, &mut priced, &mut ledger, new_vs);
            forced_fallbacks += 1;
            continue;
        }
        iterations += 1;

        // Materialize every overflow participant's trial in scan order.
        let mut jobs: Vec<Job<'_>> = Vec::new();
        for (of_idx, of) in overflows.iter().enumerate() {
            for (vid, profile) in overflow_set(&ledger, of) {
                let (Some(old_vs), Some(old_cost)) =
                    (priced.schedule().video(vid), priced.video_cost(vid))
                else {
                    continue;
                };
                if old_vs.delivered().next().is_none() {
                    continue;
                }
                let mut bans = forbidden.get(&vid).cloned().unwrap_or_default();
                bans.push((of.loc, of.window));
                jobs.push(Job { of_idx, vid, old_vs, bans, profile, old_cost });
            }
        }

        // Re-run every participant's trial.
        trials_run += jobs.len();
        let mut trials = map_with_mode(mode, &jobs, |job| {
            let cons =
                Constraints { ledger: &ledger, exclude: Some(job.vid), forbidden: &job.bans };
            let requests = job.old_vs.delivered_requests();
            let new_vs = reschedule_video_with(ctx, &requests, &cons, cfg.policy);
            let overhead = ctx.video_cost(&new_vs) - job.old_cost;
            let heat = heat_of(cfg.metric, &overflows[job.of_idx], &job.profile, overhead);
            (heat, overhead, new_vs)
        });

        // Reduce sequentially in job order: largest heat wins, near-equal
        // heats fall through to the deterministic tie-break.
        let mut best: Option<(f64, Dollars, usize)> = None;
        for (ji, &(heat, overhead, _)) in trials.iter().enumerate() {
            let better = match &best {
                None => true,
                Some((bh, boh, bji)) => {
                    if heats_tie(heat, *bh) {
                        let (job, bjob) = (&jobs[ji], &jobs[*bji]);
                        let (of, bof) = (&overflows[job.of_idx], &overflows[bjob.of_idx]);
                        (overhead, job.vid.0, of.loc.0, of.window.start)
                            < (*boh, bjob.vid.0, bof.loc.0, bof.window.start)
                    } else {
                        heat > *bh
                    }
                }
            };
            if better {
                best = Some((heat, overhead, ji));
            }
        }
        let Some((heat, overhead, ji)) = best else {
            break; // purely external overflows: nothing to reschedule
        };
        let new_vs = trials.swap_remove(ji).2;

        let (vid, of) = (jobs[ji].vid, &overflows[jobs[ji].of_idx]);
        forbidden.entry(vid).or_default().push((of.loc, of.window));
        victims.push(VictimRecord {
            video: vid,
            loc: of.loc,
            window_start: of.window.start,
            window_end: of.window.end,
            overhead,
            heat,
        });
        commit(ctx, &mut priced, &mut ledger, new_vs);
    }

    let cost = priced.total();
    let overflow_free = detect_overflows(ctx.topo, &ledger).is_empty();
    SorpOutcome {
        schedule: priced.into_schedule(),
        cost,
        initial_cost,
        iterations,
        victims,
        overflow_free,
        forced_fallbacks,
        trials_run,
        trials_cached: 0,
        jobs_rebuilt: trials_run,
        nodes_rescanned,
    }
}
