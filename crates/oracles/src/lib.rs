//! Reference implementations the equivalence suites compare `vod_core`
//! against: the naive SORP loop ([`sorp_solve_naive`], the oracle for
//! [`vod_core::sorp_solve_priced`]) and the flat-scan ledger queries
//! ([`flat`], the oracle for [`vod_core::StorageLedger`]).
//!
//! The naive loop is the resolution loop without standing jobs, the trial
//! cache or the incremental overflow monitor: every iteration re-detects
//! every overflow with a full scan, rebuilds every participant's job and
//! re-runs its trial reschedule. It is written against `vod_core`'s
//! public API only and shares no code with the production loop beyond the
//! paper's building blocks (overflow detection, the rejective greedy, the
//! heat metrics and their tie tolerance). The equivalence suites assert
//! the production solver agrees with it bit for bit — schedule, Ψ,
//! victims, iteration count.
//!
//! While it runs, the loop **audits** the production ledger with the flat
//! scan: every iteration's [`detect_overflows`] is compared with the
//! flat-scan windows ([`audit_overflows`]) and every ledger-consulting
//! admission test of every trial is re-answered by the flat-scan `fits`
//! ([`audit_admissions`]). A disagreement panics with the storage and the
//! two answers. That is the "a reference ledger takes the same decisions"
//! property, without a second ledger inside the production struct.
//!
//! Dev-only: nothing outside `[dev-dependencies]` may depend on this
//! crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flat;

use std::collections::HashMap;
use vod_core::{
    detect_overflows, heat_of, heats_tie, overflow_set, reschedule_video_traced_with,
    AdmissionCheck, Constraints, Interval, Overflow, PricedSchedule, SchedCtx, SorpConfig,
    SorpOutcome, StorageLedger, VictimRecord, EXTERNAL_OCCUPANCY,
};
use vod_cost_model::{Dollars, SpaceProfile, Transfer, VideoId, VideoSchedule};
use vod_topology::{NodeId, Topology};

/// Compare the overflows production detected on `ledger` with the flat
/// scan's: the same windows at the same storages in the same order,
/// bounds within 1e-9 relative. The two sum the same profiles in
/// different orders and so interpolate the instant usage crosses the
/// capacity an ulp apart; the tolerance covers that and nothing else. The
/// peak excess, the difference of two byte counts of the size of the
/// capacity, is held to 1e-9 of that size.
pub fn audit_overflows(
    topo: &Topology,
    ledger: &StorageLedger,
    found: &[Overflow],
) -> Result<(), String> {
    let close = |a: f64, b: f64, scale: f64| a == b || (a - b).abs() <= 1e-9 * scale;
    let want = flat::detect_overflows(topo, ledger);
    if found.len() != want.len() {
        return Err(format!("production found {found:?}, the flat scan {want:?}"));
    }
    for (got, want) in found.iter().zip(&want) {
        let (g, w) = (got.window, want.window);
        let same = got.loc == want.loc
            && close(g.start, w.start, g.start.abs().max(w.start.abs()))
            && close(g.end, w.end, g.end.abs().max(w.end.abs()))
            && close(got.peak_excess, want.peak_excess, topo.capacity(want.loc) + want.peak_excess);
        if !same {
            return Err(format!("production found {got:?}, the flat scan {want:?}"));
        }
    }
    Ok(())
}

/// Re-answer every ledger-consulting admission test of one greedy run —
/// over `ledger` with `exclude`'s profiles left out — with the flat-scan
/// `fits`; the booleans must agree exactly.
pub fn audit_admissions(
    topo: &Topology,
    ledger: &StorageLedger,
    exclude: Option<VideoId>,
    checks: &[AdmissionCheck],
) -> Result<(), String> {
    for (i, c) in checks.iter().enumerate() {
        let Some(got) = c.fits else { continue };
        let entries = ledger.profiles_at(c.loc);
        let want = flat::fits(entries, topo.capacity(c.loc), &c.candidate, exclude);
        if got != want {
            return Err(format!(
                "check {i} at {} excluding {exclude:?}: production answered fits = {got}, \
                 the flat scan {want}, for {:?}",
                c.loc, c.candidate
            ));
        }
    }
    Ok(())
}

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
/// a ledger seeded with the immutable `external` occupancy, auditing the
/// ledger's every answer against the flat scan (see the crate docs).
/// Same contract as [`vod_core::sorp_solve_priced`]; the outcome's
/// `trials_cached` is always 0, `jobs_rebuilt` is every job scored, and
/// `nodes_rescanned` counts every finite-capacity storage once per
/// iteration.
///
/// # Panics
///
/// Panics when the production ledger and the flat scan disagree.
pub fn sorp_solve_naive(
    ctx: &SchedCtx<'_>,
    mut priced: PricedSchedule,
    cfg: &SorpConfig,
    external: &[(NodeId, SpaceProfile)],
) -> SorpOutcome {
    let initial_cost = priced.total();
    // External occupancy first, schedule second: the production solver's
    // order, so both loops read the same entries in the same order.
    let mut ledger = StorageLedger::new(ctx.topo);
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
        if let Err(e) = audit_overflows(ctx.topo, &ledger, &overflows) {
            panic!("overflow audit, iteration {iterations}: {e}");
        }
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
        let mut trials = Vec::with_capacity(jobs.len());
        for job in &jobs {
            let cons =
                Constraints { ledger: &ledger, exclude: Some(job.vid), forbidden: &job.bans };
            let requests = job.old_vs.delivered_requests();
            let (new_vs, trace) = reschedule_video_traced_with(ctx, &requests, &cons, cfg.policy);
            if let Err(e) = audit_admissions(ctx.topo, &ledger, Some(job.vid), &trace.checks) {
                panic!("admission audit, iteration {iterations}: {e}");
            }
            let overhead = ctx.video_cost(&new_vs) - job.old_cost;
            let heat = heat_of(cfg.metric, &overflows[job.of_idx], &job.profile, overhead);
            trials.push((heat, overhead, new_vs));
        }

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

#[cfg(test)]
mod tests {
    use super::*;
    use vod_core::GreedyPolicy;
    use vod_cost_model::{Catalog, CostModel, Request, Video};
    use vod_topology::{builders, units, UserId};

    /// The paper's Fig. 2 line with 4 GB stores: two concurrent 2.5 GB
    /// copies overflow IS1, one alone does not.
    fn fig2() -> (Topology, Catalog) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, 4.0);
        let mk = |i| Video::new(VideoId(i), units::gb(2.5), units::minutes(90.0), units::mbps(6.0));
        (topo, Catalog::new(vec![mk(0), mk(1)]))
    }

    fn held(start: f64, last: f64) -> SpaceProfile {
        SpaceProfile::new(start, last, units::gb(2.5), units::minutes(90.0))
    }

    #[test]
    fn a_shifted_overflow_window_is_caught() {
        let (topo, _) = fig2();
        let mut ledger = StorageLedger::new(&topo);
        ledger.add(NodeId(1), VideoId(0), held(0.0, 10_000.0));
        ledger.add(NodeId(1), VideoId(1), held(2_000.0, 12_000.0));
        let found = detect_overflows(&topo, &ledger);
        assert_eq!(found.len(), 1, "the instance overflows IS1 once");
        assert_eq!(audit_overflows(&topo, &ledger, &found), Ok(()));

        // The window ends in an interpolated crossing; one part in 10⁸
        // off is beyond any summation-order residue.
        let mut shifted = found.clone();
        shifted[0].window.end *= 1.0 + 1e-8;
        assert!(audit_overflows(&topo, &ledger, &shifted).is_err());
        // A window lost, one invented, and one at the wrong storage.
        assert!(audit_overflows(&topo, &ledger, &[]).is_err());
        let twice = [found[0].clone(), found[0].clone()];
        assert!(audit_overflows(&topo, &ledger, &twice).is_err());
        let mut moved = found;
        moved[0].loc = NodeId(2);
        assert!(audit_overflows(&topo, &ledger, &moved).is_err());
    }

    #[test]
    fn a_tampered_admission_verdict_is_caught() {
        let (topo, catalog) = fig2();
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        // Video 1 holds 2.5 of IS1's 4 GB all day: video 0's copy there
        // cannot be extended, the one at IS2 can.
        let mut ledger = StorageLedger::new(&topo);
        ledger.add(NodeId(1), VideoId(1), held(0.0, 1e6));
        let at = |user, hours| Request {
            user: UserId(user),
            video: VideoId(0),
            start: units::hours(hours),
        };
        let requests = [at(0, 13.0), at(1, 14.5), at(2, 16.0)];
        let cons = Constraints { ledger: &ledger, exclude: Some(VideoId(0)), forbidden: &[] };
        let (_, trace) =
            reschedule_video_traced_with(&ctx, &requests, &cons, GreedyPolicy::default());
        let verdicts: Vec<bool> = trace.checks.iter().filter_map(|c| c.fits).collect();
        assert!(verdicts.contains(&true) && verdicts.contains(&false), "{verdicts:?}");
        assert_eq!(audit_admissions(&topo, &ledger, Some(VideoId(0)), &trace.checks), Ok(()));

        for i in 0..trace.checks.len() {
            let mut tampered = trace.checks.clone();
            let Some(v) = tampered[i].fits else { continue };
            tampered[i].fits = Some(!v);
            assert!(
                audit_admissions(&topo, &ledger, Some(VideoId(0)), &tampered).is_err(),
                "check {i} flipped unnoticed"
            );
        }
    }
}
