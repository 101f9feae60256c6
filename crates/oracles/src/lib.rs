//! Reference implementations the equivalence suites compare `vod_core`
//! against: the naive SORP loop ([`sorp_solve_naive`], the oracle for
//! [`vod_core::sorp_solve`]), the same loop followed by the release
//! sweep ([`sorp_solve_naive_released`], the oracle for
//! `vod_core::audit::sorp_solve_released` and so for the sharded
//! pipeline) and the flat-scan ledger queries ([`flat`], the oracle for
//! [`vod_core::StorageLedger`]).
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
//! flat-scan windows ([`audit_overflows`]) and every admission test of
//! every trial — the tail's and the sweep's included — is re-answered by
//! its own ban check and the flat-scan `fits` ([`audit_admissions`]). A
//! disagreement panics with the storage and the two answers. That is the
//! "a reference ledger takes the same decisions" property, without a
//! second ledger inside the production struct.
//!
//! Dev-only: nothing outside `[dev-dependencies]` may depend on this
//! crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flat;

use std::collections::HashMap;
use vod_core::audit::{heats_tie, overflow_set, reschedule_video_traced, AdmissionCheck, Release};
use vod_core::heat::heat_of;
use vod_core::{
    detect_overflows, Constraints, Interval, Overflow, PricedSchedule, SchedCtx, SorpConfig,
    SorpOutcome, StorageLedger, VictimRecord,
};
use vod_cost_model::{Dollars, SpaceProfile, VideoId, VideoSchedule};
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

/// Re-answer every admission test of one greedy run under `bans` — a
/// candidate with positive space overlapping a window at its storage is
/// rejected, any other is asked of the flat-scan `fits` over `ledger`
/// with `exclude`'s profiles left out; the booleans must agree exactly.
pub fn audit_admissions(
    topo: &Topology,
    ledger: &StorageLedger,
    exclude: Option<VideoId>,
    bans: &[(NodeId, Interval)],
    checks: &[AdmissionCheck],
) -> Result<(), String> {
    for (i, c) in checks.iter().enumerate() {
        let support = Interval::new(c.candidate.start, c.candidate.end);
        let banned = c.candidate.peak() > 0.0
            && bans.iter().any(|(loc, window)| *loc == c.loc && support.overlaps(window));
        let entries = ledger.profiles_at(c.loc);
        let want = !banned && flat::fits(entries, topo.capacity(c.loc), &c.candidate, exclude);
        if c.verdict != want {
            return Err(format!(
                "check {i} at {} excluding {exclude:?}: production answered {}, the oracle \
                 {want} (banned: {banned}), for {:?}",
                c.loc, c.verdict, c.candidate
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

/// One traced rejective-greedy run of `vid`'s delivered requests against
/// `ledger` less the video's own profiles, its every admission answer
/// re-answered by the oracle's ban check and flat scan.
fn audited_trial(
    ctx: &SchedCtx<'_>,
    ledger: &StorageLedger,
    old_vs: &VideoSchedule,
    bans: &[(NodeId, Interval)],
    cfg: &SorpConfig,
    what: &dyn std::fmt::Display,
) -> VideoSchedule {
    let vid = old_vs.video;
    let cons = Constraints { ledger, exclude: Some(vid), forbidden: bans };
    let (new_vs, trace) =
        reschedule_video_traced(ctx, &old_vs.delivered_requests(), &cons, cfg.policy);
    if let Err(e) = audit_admissions(ctx.topo, ledger, Some(vid), bans, &trace.checks) {
        panic!("admission audit, {what}: {e}");
    }
    new_vs
}

/// Resolve every storage overflow of `priced` with the naive loop, over
/// the immutable occupancy of `base` (`None`: empty), auditing the
/// ledger's every answer against the flat scan (see the crate docs).
/// Same contract as [`vod_core::sorp_solve`]; the outcome's
/// `trials_cached` is always 0, `jobs_rebuilt` is every job scored, and
/// `nodes_rescanned` counts every finite-capacity storage once per
/// iteration.
///
/// # Panics
///
/// Panics when the production ledger and the flat scan disagree.
pub fn sorp_solve_naive(
    ctx: &SchedCtx<'_>,
    priced: PricedSchedule,
    cfg: &SorpConfig,
    base: Option<&StorageLedger>,
) -> SorpOutcome {
    solve_naive(ctx, priced, cfg, base, false).0
}

/// [`sorp_solve_naive`] followed by the release sweep, the oracle for
/// `vod_core::audit::sorp_solve_released`: every victim video, once each
/// in video-id order, re-placed by the rejective greedy under no bans
/// against the ledger as it stands, its admissions audited, and the
/// re-placement committed only when it is cheaper than the video's
/// schedule by more than one part in 10⁹ of that cost.
///
/// # Panics
///
/// Panics when the production ledger and the flat scan disagree.
pub fn sorp_solve_naive_released(
    ctx: &SchedCtx<'_>,
    priced: PricedSchedule,
    cfg: &SorpConfig,
    base: Option<&StorageLedger>,
) -> (SorpOutcome, Release) {
    solve_naive(ctx, priced, cfg, base, true)
}

/// The naive release sweep over the loop's final schedule and ledger.
fn release_naive(
    ctx: &SchedCtx<'_>,
    priced: &mut PricedSchedule,
    ledger: &mut StorageLedger,
    victims: &[VictimRecord],
    cfg: &SorpConfig,
) -> Release {
    let mut videos: Vec<VideoId> = victims.iter().map(|v| v.video).collect();
    videos.sort_unstable();
    videos.dedup();
    let mut release = Release::default();
    for vid in videos {
        let Some(old_vs) = priced.schedule().video(vid) else { continue };
        if old_vs.delivered().next().is_none() {
            continue;
        }
        let new_vs = audited_trial(ctx, ledger, old_vs, &[], cfg, &"release sweep");
        release.tried += 1;
        let old_cost = priced.video_cost(vid).expect("a scheduled video is priced");
        let new_cost = ctx.video_cost(&new_vs);
        if new_cost < old_cost - 1e-9 * old_cost.abs() {
            release.kept += 1;
            release.saved += old_cost - new_cost;
            commit(ctx, priced, ledger, new_vs);
        }
    }
    release
}

/// The naive loop itself, followed by the naive release sweep when
/// `sweep` is set.
fn solve_naive(
    ctx: &SchedCtx<'_>,
    mut priced: PricedSchedule,
    cfg: &SorpConfig,
    base: Option<&StorageLedger>,
    sweep: bool,
) -> (SorpOutcome, Release) {
    let initial_cost = priced.total();
    // The base first, schedule second: the production solver's order, so
    // both loops read the same entries in the same order.
    let mut ledger = base.map_or_else(|| StorageLedger::new(ctx.topo), StorageLedger::clone);
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
            // The tail: re-place one participant of the first overflow
            // that has any under its bans plus that overflow's window,
            // unscored; the ban stays.
            let victim = overflows.iter().find_map(|of| {
                let &(vid, _) = overflow_set(&ledger, of).first()?;
                Some((priced.schedule().video(vid)?, (of.loc, of.window)))
            });
            let Some((old, ban)) = victim else {
                break; // purely external overflows: unresolvable
            };
            let bans = forbidden.entry(old.video).or_default();
            bans.push(ban);
            let new_vs = audited_trial(ctx, &ledger, old, bans, cfg, &"tail");
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
            let what = format_args!("iteration {iterations}");
            let new_vs = audited_trial(ctx, &ledger, job.old_vs, &job.bans, cfg, &what);
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

    let release = if sweep {
        release_naive(ctx, &mut priced, &mut ledger, &victims, cfg)
    } else {
        Release::default()
    };
    let cost = priced.total();
    let overflow_free = detect_overflows(ctx.topo, &ledger).is_empty();
    let outcome = SorpOutcome {
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
    };
    (outcome, release)
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
        // Under a ban over IS2 its extension is rejected by the ban alone:
        // every check of both runs, ban-rejected ones included, must be
        // re-answered under the run's own bans.
        let ban = [(NodeId(2), Interval::new(0.0, 1e6))];
        for bans in [&[][..], &ban[..]] {
            let cons = Constraints { ledger: &ledger, exclude: Some(VideoId(0)), forbidden: bans };
            let (_, trace) =
                reschedule_video_traced(&ctx, &requests, &cons, GreedyPolicy::default());
            let verdicts: Vec<(NodeId, bool)> =
                trace.checks.iter().map(|c| (c.loc, c.verdict)).collect();
            let is2 = (NodeId(2), bans.is_empty());
            assert!(
                verdicts.contains(&(NodeId(1), false)) && verdicts.contains(&is2),
                "{verdicts:?}"
            );
            let audit = |checks: &[AdmissionCheck]| {
                audit_admissions(&topo, &ledger, Some(VideoId(0)), bans, checks)
            };
            assert_eq!(audit(&trace.checks), Ok(()));
            for i in 0..trace.checks.len() {
                let mut tampered = trace.checks.clone();
                tampered[i].verdict = !tampered[i].verdict;
                assert!(audit(&tampered).is_err(), "check {i} flipped unnoticed under {bans:?}");
            }
        }
    }
}
