//! Phase 2: the Storage Overflow Resolution Problem solver
//! (`SORP_solve`, paper Table 3 and §4).
//!
//! Starting from the integrated phase-1 schedule, the solver repeatedly:
//!
//! 1. detects every storage overflow;
//! 2. for every residency involved in an overflow, trial-reschedules its
//!    video with the rejective greedy under the constraint that the video
//!    must not occupy the overflowing storage during the overflow window
//!    (plus all constraints accumulated from earlier iterations);
//! 3. commits the candidate with the **largest heat** (the paper's Table 3
//!    pseudocode reads `heat ≤ minheat`, but the surrounding text states
//!    three times that the file with the largest heat is selected; we
//!    follow the text).
//!
//! Because the rejective greedy admits a residency only where capacity
//! remains, a committed reschedule never *creates* an overflow, and the
//! forbidden-window sets grow monotonically, so the loop terminates.
//! Past the iteration cap a deterministic tail takes over: the first
//! participant of the first overflow is re-placed by the same rejective
//! greedy under its bans plus that overflow's window, without scoring —
//! direct delivery needs no storage, so the re-placement always exists.
//!
//! ## Conflict-scoped incrementality
//!
//! Each commit perturbs exactly one video's residencies at a handful of
//! (node, time-window) pairs, so an iteration re-derives only what the
//! last commit touched:
//!
//! * trial jobs **stand** across iterations. A storage whose
//!   [`crate::StorageLedger::node_version`] did not move holds
//!   bit-identical entries in identical order, hence the same overflows
//!   and the same `overflow_set`s in the same participant order; each of
//!   those participants holds a positive-space profile there, so had it
//!   been the victim the commit would have removed that profile and moved
//!   the storage — hence its bans, memoized cost and request set are
//!   unchanged too. Such a storage keeps its jobs verbatim, each with the
//!   trial and the score it last had; only a storage that moved rebuilds
//!   its jobs, in place, so the list stays in (storage, window start,
//!   participant) order — the order the victim reduce, whose ε-tie rule
//!   is not transitive, is defined over;
//! * a trial carries its dependency trace (recorded by the tracing
//!   [`crate::LedgerCursor`]): the exact sequence of admission questions
//!   with their answers, and the per-node union of their supports; the
//!   entry also keeps the bans it is known good under. Each commit
//!   records the supports it removes and adds into a
//!   [`crate::LedgerDelta`], and a trial is re-checked against the
//!   deltas that landed since it was last known good by one rule
//!   ([`crate::Constraints::check_replays`]), the exact condition for a
//!   bit-identical replay: a check the new bans reject must have been a
//!   rejection; one neither set of bans rejects and no delta touches
//!   stands; every other one is re-answered by the ledger. Under
//!   unchanged bans — a standing job's, in place — a footprint no delta
//!   touches skips the rule;
//! * a **trial cache** per video holds the trials no job has
//!   attached: those a moved storage's jobs handed back. A rebuilt job
//!   looks up there, entries known good under its own bans first; one
//!   known good under other bans that still replays is taken under the
//!   job's — which is what lets a trial survive a commit that merely
//!   *shifts* an overflow window without changing any greedy decision,
//!   the dominant case once a victim vacates a contended node. Only a
//!   miss runs the rejective greedy. The cache lives and dies with its
//!   pass: the next pass — the sharded solve's global one included —
//!   starts with none;
//! * the [`OverflowMonitor`] rescans only storages whose ledger
//!   version moved, instead of every node's full row.
//!
//! Per-video state — the accumulated bans and the trial cache — sits in
//! [`PerVideo`] tables indexed by the video's [`Schedule::position`],
//! beside the pricing memo: a pass only replaces videos, so a position
//! found once names its video for the whole pass. A greedy run reads its
//! video's requests as a slice of the batch the pass solves.
//!
//! The naive loop — re-detect every overflow with a full scan and re-run
//! every participant's trial, every iteration — is the equivalence oracle
//! `vod_oracles::sorp_solve_naive` (a dev-only crate written against this
//! crate's public API): the property tests assert both produce
//! bit-identical schedules, costs, victims, and iteration counts, while
//! the oracle re-answers every overflow scan and every admission test
//! with its own ban check and flat scan of the ledger's entries.
//!
//! The loop commits one victim per iteration and runs on the calling
//! thread; the independent unit of work is the shard
//! ([`crate::shard_solve`]), not the trial.
//!
//! ## The release sweep
//!
//! Bans only accumulate, and a split video's schedule is its shards' parts
//! concatenated, which no greedy run produced. The sharded pipeline ends
//! every solve in one sweep (`SolveState::release`) that re-places each
//! victim and split video once with its bans lifted, keeping the cheaper;
//! [`sorp_solve`], the paper's Phase 2, does not sweep. The oracle (one
//! shard, no split videos) is `vod_oracles::sorp_solve_naive_released`.

use crate::capacity::{LedgerCursor, LedgerDelta, Solved, TrialTrace};
use crate::greedy::{greedy_with_cursor, place, reschedule_traced_in, GreedyScratch, COST_EPS};
use crate::heat::heat_of;
use crate::overflow::{overflow_set, OverflowMonitor};
use crate::warm::HeldCopies;
use crate::{
    detect_overflows, Constraints, GreedyPolicy, HeatMetric, Interval, Overflow, PricedSchedule,
    SchedCtx, StorageLedger,
};
use serde::{Deserialize, Serialize};
use vod_cost_model::{
    Dollars, Request, RequestBatch, Schedule, SpaceProfile, VideoId, VideoSchedule,
};
use vod_topology::NodeId;

/// Relative tolerance for treating two heat values as equal, mirroring
/// the greedy's `COST_EPS` candidate comparison: near-equal heats fall
/// through to the deterministic tie-break instead of being separated by
/// float luck.
const HEAT_EPS: f64 = 1e-9;

/// Whether two heats are equal up to `HEAT_EPS` (relative). Infinite
/// heats (the ratio metrics return `+∞` for non-positive overhead) tie
/// only with themselves — `∞ − ∞` is NaN, so they never enter the
/// epsilon comparison. Exported through [`crate::audit`] so the
/// naive-loop oracle applies the same tolerance instead of a copy of it.
pub fn heats_tie(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    if !a.is_finite() || !b.is_finite() {
        return false;
    }
    (a - b).abs() <= HEAT_EPS * (1.0 + a.abs().max(b.abs()))
}

/// Sentinel id for occupancy committed outside the schedule being
/// resolved (e.g. residency drain tails spilling over from a previous
/// scheduling cycle). Real catalogs never reach this id.
pub const EXTERNAL_OCCUPANCY: VideoId = VideoId(u32::MAX);

/// Configuration of the resolution phase.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SorpConfig {
    /// Victim-selection criterion. Default: Eq. 11 (`ΔS/overhead`), the
    /// paper's best performer.
    pub metric: HeatMetric,
    /// Safety cap on heat-driven resolution iterations before the
    /// unscored tail takes over. The loop normally terminates far earlier.
    pub max_iterations: usize,
    /// The [`GreedyPolicy`] trial reschedules run under. Defaults to the
    /// paper's full algorithm; the sharded solver sets the same policy
    /// here and in phase 1 so overflow resolution searches the same
    /// placement space the schedule was built in.
    pub policy: GreedyPolicy,
}

impl Default for SorpConfig {
    fn default() -> Self {
        Self {
            metric: HeatMetric::TimeSpacePerCost,
            max_iterations: 10_000,
            policy: GreedyPolicy::default(),
        }
    }
}

impl SorpConfig {
    /// Default configuration with a specific heat metric.
    pub fn with_metric(metric: HeatMetric) -> Self {
        Self { metric, ..Self::default() }
    }
}

/// One committed victim rescheduling.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VictimRecord {
    /// The rescheduled video.
    pub video: VideoId,
    /// The overflowing storage that triggered the rescheduling.
    pub loc: NodeId,
    /// The overflow window the video was banned from.
    pub window_start: f64,
    /// End of the banned window.
    pub window_end: f64,
    /// Overhead cost `Ψ(S_new) − Ψ(S_old)` of this rescheduling.
    pub overhead: Dollars,
    /// The heat value that won the selection.
    pub heat: f64,
}

/// What one release sweep did: videos re-placed with their bans lifted,
/// the re-placements kept, and the Ψ they saved.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Release {
    /// Videos the sweep re-placed: victims and split videos.
    pub tried: usize,
    /// Re-placements committed, each strictly cheaper than the schedule
    /// it replaced.
    pub kept: usize,
    /// Of `tried`, the videos reconciliation merged from several shards.
    pub split_tried: usize,
    /// Of `kept`, the videos reconciliation merged from several shards.
    pub split_kept: usize,
    /// Ψ the kept re-placements saved, in dollars.
    pub saved: Dollars,
}

/// Result of [`sorp_solve`].
#[derive(Clone, Debug)]
pub struct SorpOutcome {
    /// The resolved schedule.
    pub schedule: Schedule,
    /// Ψ of the resolved schedule.
    pub cost: Dollars,
    /// Ψ of the phase-1 input (for the paper's `ΔΨ/Ψ` statistic).
    pub initial_cost: Dollars,
    /// Heat-driven resolution iterations performed.
    pub iterations: usize,
    /// Every committed victim, in order.
    pub victims: Vec<VictimRecord>,
    /// Whether the final schedule is overflow-free. False only when an
    /// overflow consists of external occupancy alone: no victim can clear
    /// it, and the tail passes over it.
    pub overflow_free: bool,
    /// Re-placements the tail past the iteration cap committed, each an
    /// unscored rejective-greedy run of one overflow participant.
    pub forced_fallbacks: usize,
    /// Trial reschedules actually executed by the rejective greedy.
    /// `trials_run + trials_cached` equals the number of trial jobs
    /// scored, summed over all iterations.
    pub trials_run: usize,
    /// Trial jobs scored without re-running the greedy: a standing job's
    /// trial re-checked in place, or a lookup answered from the cache.
    pub trials_cached: usize,
    /// Trial jobs materialized from an `overflow_set` — every job of a
    /// storage the last commit moved; the others stood. The naive oracle
    /// rebuilds every job it scores.
    pub jobs_rebuilt: usize,
    /// Finite-capacity storages whose occupancy row was rescanned by
    /// overflow detection, summed over all loop iterations.
    pub nodes_rescanned: usize,
}

impl SorpOutcome {
    /// Relative cost increase caused by overflow resolution,
    /// `(Ψ(S_SORP) − Ψ(S)) / Ψ(S)` — the paper reports 12 % on average and
    /// 34 % worst-case over its 785-combination sweep.
    pub fn relative_cost_increase(&self) -> f64 {
        if self.initial_cost == 0.0 {
            0.0
        } else {
            (self.cost - self.initial_cost) / self.initial_cost
        }
    }

    /// Whether resolution changed the schedule at all.
    pub fn resolved_anything(&self) -> bool {
        !self.victims.is_empty() || self.forced_fallbacks > 0
    }
}

/// One overflow participant's trial reschedule: what its trial answers.
struct Job {
    /// The overflow the job would relieve, as the monitor scanned it.
    of: Overflow,
    /// `of.loc`'s ledger version when the job was built: the job stands
    /// for as long as the storage still reads it.
    version: u64,
    /// The participating video.
    vid: VideoId,
    /// Its [`Schedule::position`], stable for the pass.
    at: usize,
    /// The participating residency's space profile (heat input).
    profile: SpaceProfile,
    /// The video's current cost, read from the pricing memo.
    old_cost: Dollars,
    /// Accumulated forbidden windows plus this overflow's window.
    bans: Vec<(NodeId, Interval)>,
}

/// A [`Job`] with its trial attached and scored, kept from iteration to
/// iteration while its storage does not move (see the module docs).
struct StandingJob {
    job: Job,
    /// The trial that answers the job, bound to `job.bans`.
    trial: CachedTrial,
    /// The trial's `new_cost − old_cost`.
    overhead: Dollars,
    /// [`heat_of`] rescheduling the job's profile out of its overflow at
    /// that overhead.
    heat: f64,
}

impl StandingJob {
    /// Attach the job's trial and score it. Only the greedy's output is
    /// memoized; the other heat inputs are the job's own.
    fn scored(job: Job, trial: CachedTrial, metric: HeatMetric) -> Self {
        let overhead = trial.new_cost - job.old_cost;
        let heat = heat_of(metric, &job.of, &job.profile, overhead);
        Self { job, trial, overhead, heat }
    }
}

/// A job on its way into an iteration's list: one that stood, with the
/// trial it last had, or one rebuilt from an overflow set, not yet
/// answered.
enum Pending {
    Stood(StandingJob),
    Rebuilt(Job),
}

/// A memoized trial: the greedy's output, its cost, and the dependency
/// it was derived under. A trial is either attached to the standing job
/// it answers or waits in the cache, a short *list* per video (one per
/// distinct bans-behavior). The bans are part of the entry and are
/// re-validated (not merely compared) at lookup time, so an entry
/// survives overflow windows that shifted without changing any admission
/// answer, and is then known good under the new bans. The inputs that
/// are not validated explicitly — the video's current requests and the
/// effective ledger (ledger minus the video's own profiles, `exclude`) —
/// need no check: a video's delivered request set is invariant across
/// reschedules, and the video's own occupancy is invisible to its trials.
struct CachedTrial {
    /// The trial reschedule's output.
    new_vs: VideoSchedule,
    /// `ctx.video_cost(&new_vs)`, computed once at trial time.
    new_cost: Dollars,
    /// The forbidden windows the entry is currently known valid under.
    bans: Vec<(NodeId, Interval)>,
    /// The trial's dependency: the exact admission-test sequence plus
    /// its coarse footprint.
    trace: TrialTrace,
    /// Number of commit deltas already accounted for: the entry is known
    /// to replay bit-identically against the ledger as of
    /// `deltas[..epoch]`.
    epoch: usize,
}

/// Cap on memoized trials per video. A video keeps one entry per
/// distinct bans-behavior it was recently trialed under — in practice
/// one per overflow it participates in — so the cap only guards
/// pathological instances. Overflowing drops the *oldest* entry,
/// deterministically.
const MAX_TRIALS_PER_VIDEO: usize = 128;

/// What the trial validations of one iteration share: the ledger and the
/// commit deltas (both frozen between commits), the merged
/// `deltas[epoch..]` memoized per epoch — a list, an iteration meets a
/// handful of epochs and mostly the last — and one scratch cursor.
struct Replayer<'a, 'c> {
    ctx: &'a SchedCtx<'c>,
    ledger: &'a StorageLedger,
    deltas: &'a [LedgerDelta],
    suffixes: Vec<(usize, LedgerDelta)>,
    cursor: LedgerCursor,
}

impl Replayer<'_, '_> {
    /// Whether `e` would replay bit-identically under `bans` and the
    /// *current* ledger: every recorded check passes
    /// [`Constraints::check_replays`] against the deltas since the
    /// entry's epoch, with `e.bans` as the windows it was known good
    /// under. Under those very bans a footprint the deltas do not touch
    /// answers first, without a probe. A `true` leaves the entry current
    /// as of the full delta list under `bans`.
    fn replays(&mut self, e: &CachedTrial, bans: &[(NodeId, Interval)]) -> bool {
        let memo = self.suffixes.iter().position(|(epoch, _)| *epoch == e.epoch);
        let memo = memo.unwrap_or_else(|| {
            let mut merged = LedgerDelta::new();
            for d in &self.deltas[e.epoch..] {
                merged.merge(d);
            }
            self.suffixes.push((e.epoch, merged));
            self.suffixes.len() - 1
        });
        let dirty = &self.suffixes[memo].1;
        if e.bans == bans && !dirty.intersects(e.trace.footprint.spans()) {
            return true;
        }
        let exclude = Some(e.new_vs.video);
        let cons = Constraints { ledger: self.ledger, exclude, forbidden: bans };
        let (topo, cursor) = (self.ctx.topo, &mut self.cursor);
        e.trace.checks.iter().all(|c| cons.check_replays(topo, &e.bans, c, dirty, cursor))
    }
}

/// Lazy conflict-scoped cache lookup: remove and return the first of the
/// video's memoized trials that [`Replayer::replays`] under `bans`, or
/// report a miss. Entries bound to these very bans are tried first,
/// then the others, newest first within each: a video in several
/// overflows banks one entry per overflow, and each job's own is the
/// likeliest — and by far the cheapest — to validate. Any valid entry is
/// an exact replay of the same greedy run, so the order decides only
/// which entry answers, never what the answer is. Validating lazily
/// (rather than sweeping the cache on every commit) means entries never
/// consulted again — dominant once a video leaves the overflow set —
/// cost nothing.
///
/// The hit is *removed* rather than borrowed: it goes to the job, and
/// comes back through [`bank_trial`] when the job's storage moves. An
/// entry that fails under the bans it is bound to is evicted (only a
/// ledger flip can have failed it, so it is stale for everyone); one
/// that fails under *different* bans is kept — it may replay verbatim
/// for another overflow's job.
fn take_cached(
    list: &mut Vec<CachedTrial>,
    bans: &[(NodeId, Interval)],
    replayer: &mut Replayer<'_, '_>,
) -> Option<CachedTrial> {
    for exact in [true, false] {
        let mut i = list.len();
        while i > 0 {
            i -= 1;
            if exact && list[i].bans != bans {
                continue;
            }
            if replayer.replays(&list[i], bans) {
                let mut e = list.remove(i);
                e.epoch = replayer.deltas.len();
                if !exact {
                    e.bans = bans.to_vec();
                }
                return Some(e);
            } else if exact {
                list.remove(i);
            }
        }
    }
    None
}

/// Return a trial no job holds any longer to the cache. Any existing
/// entry with the same bans is replaced (it must be the stale
/// predecessor of this one), and the per-video cap drops the oldest
/// entry first — both deterministic, so the cache contents are a pure
/// function of the commit history.
fn bank_trial(list: &mut Vec<CachedTrial>, trial: CachedTrial) {
    list.retain(|e| e.bans != trial.bans);
    if list.len() >= MAX_TRIALS_PER_VIDEO {
        list.remove(0);
    }
    list.push(trial);
}

/// A per-video table beside a [`SolveState`]'s priced schedule: entry `i`
/// belongs to the video at [`Schedule::position`] `i`. It takes its
/// length on the first write, so a table a pass never writes costs
/// nothing, and a commit that inserts a video inserts its entry too.
pub(crate) struct PerVideo<T>(Vec<T>);

impl<T: Default> PerVideo<T> {
    pub(crate) fn new() -> Self {
        Self(Vec::new())
    }

    /// The entry at `at`, when the table has been written.
    pub(crate) fn get(&self, at: usize) -> Option<&T> {
        self.0.get(at)
    }

    /// The entry at `at` of a schedule of `videos` videos, sizing the
    /// table first if this is its first write.
    pub(crate) fn get_mut(&mut self, at: usize, videos: usize) -> &mut T {
        if self.0.is_empty() {
            self.0.resize_with(videos, T::default);
        }
        &mut self.0[at]
    }

    /// The written entry at `at`, if any; never sizes the table.
    pub(crate) fn written(&mut self, at: usize) -> Option<&mut T> {
        self.0.get_mut(at)
    }

    /// Drop the entries past the first `videos`.
    pub(crate) fn truncate(&mut self, videos: usize) {
        self.0.truncate(videos);
    }

    /// Keep step with a schedule that gained a video at `at`.
    fn inserted(&mut self, at: usize) {
        if !self.0.is_empty() {
            self.0.insert(at, T::default());
        }
    }
}

/// The requests `vs` delivers, read as its group of `batch`, the batch the
/// state is solving: within one video, [`Request::batch_order`] is the
/// order [`VideoSchedule::delivered_requests`] sorts into. `None` for a
/// video the batch does not ask for.
fn requests_of<'b>(batch: &'b RequestBatch, vs: &VideoSchedule) -> Option<&'b [Request]> {
    let group = batch.group(vs.video);
    debug_assert!(
        group.unwrap_or_default() == vs.delivered_requests(),
        "{:?} does not deliver its group of the batch",
        vs.video
    );
    group
}

/// The batch a stand-alone solve of `schedule` reads its requests from:
/// every request the schedule delivers.
fn delivered_batch(schedule: &Schedule) -> RequestBatch {
    RequestBatch::new(schedule.videos().flat_map(VideoSchedule::delivered).collect())
}

/// The sequential reduce: scan the scored jobs in order with the
/// epsilon-aware comparison and the deterministic tie-break, returning
/// the winner's index. A score does not depend on whether its trial
/// stood, was replayed from the cache or re-run, so the victim is the
/// one the naive loop would pick, bit for bit.
fn select_victim(jobs: &[StandingJob]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (ji, s) in jobs.iter().enumerate() {
        let better = best.is_none_or(|bji| {
            let (b, job) = (&jobs[bji], &s.job);
            if heats_tie(s.heat, b.heat) {
                (s.overhead, job.vid.0, job.of.loc.0, job.of.window.start)
                    < (b.overhead, b.job.vid.0, b.job.of.loc.0, b.job.of.window.start)
            } else {
                s.heat > b.heat
            }
        });
        if better {
            best = Some(ji);
        }
    }
    best
}

/// The resolution loop's whole working set, extracted so the per-shard
/// and global-reconciliation passes of [`crate::shard_solve`] can share
/// one machine: the priced schedule, the occupancy ledger, the
/// accumulated bans, the incremental [`OverflowMonitor`], the standing
/// jobs, and the trial cache with its commit-delta history.
/// [`SolveState::new`] +
/// [`SolveState::resolve`] + [`SolveState::into_outcome`] *are*
/// [`sorp_solve`]; the sharded path resolves one state per shard,
/// builds a fresh state over their merged schedules, appends their bans,
/// resolves it once more and ends in the release sweep
/// ([`SolveState::release`]); the service loop's fault repair is one
/// more pass over that final state, before it is finished. Only the
/// schedule and the bans outlive a pass: its jobs, cache and deltas are
/// private to this module and start empty in every new state.
pub(crate) struct SolveState {
    pub(crate) priced: PricedSchedule,
    pub(crate) ledger: StorageLedger,
    /// Per node row: whether [`SolveState::commit`] touched it. A clean row
    /// is the base's plus the state's residencies there, in schedule order.
    pub(crate) dirty: Vec<bool>,
    /// Per video: the windows it was banned from, in ban order.
    pub(crate) forbidden: PerVideo<Vec<(NodeId, Interval)>>,
    pub(crate) victims: Vec<VictimRecord>,
    pub(crate) iterations: usize,
    pub(crate) forced_fallbacks: usize,
    /// The copies earlier cycles held for this state's videos: every
    /// trial and repair run of a video starts from the video's.
    pub(crate) held: HeldCopies,
    monitor: OverflowMonitor,
    /// The last iteration's jobs, in (storage, window start, participant)
    /// order, each with its trial attached. Empty between passes:
    /// [`SolveState::resolve`] clears them on exit.
    jobs: Vec<StandingJob>,
    /// Per video: its banked trials, oldest first.
    cache: PerVideo<Vec<CachedTrial>>,
    /// One [`LedgerDelta`] per commit, in commit order; trials validate
    /// lazily against the suffix that landed after their epoch.
    deltas: Vec<LedgerDelta>,
    /// The buffers every greedy run of the state works in.
    scratch: GreedyScratch,
    pub(crate) trials_run: usize,
    pub(crate) trials_cached: usize,
    pub(crate) jobs_rebuilt: usize,
    pub(crate) nodes_rescanned: usize,
    pub(crate) initial_cost: Dollars,
}

impl SolveState {
    /// Fresh state for one resolution pass: lays the priced schedule's
    /// residencies on top of `base`, the occupancy committed outside this
    /// schedule (every entry under [`EXTERNAL_OCCUPANCY`]; empty for a
    /// stand-alone solve). Base first, schedule second, on every path —
    /// aggregate occupancy does not depend on the order, but the
    /// per-node float summation does, and a cold solve over a flat
    /// external list must agree bit for bit with a warm one over the
    /// incrementally maintained [`crate::CommittedBook`] ledger.
    pub(crate) fn new(ctx: &SchedCtx<'_>, priced: PricedSchedule, base: StorageLedger) -> Self {
        let ledger = base.with_schedule(ctx.catalog, priced.schedule());
        Self::laid(ctx, priced, ledger)
    }

    /// Fresh state placed by one rejective-greedy pass over `batch`
    /// against `base` ([`crate::greedy::place`]): video groups in batch
    /// (video-id) order, each admitted against the base plus the videos
    /// placed before it. Nothing overflows where `base` did not, so there
    /// is nothing to resolve. Each row holds the base's entries, then the
    /// schedule's residencies in schedule order: the ledger
    /// [`SolveState::new`] would have laid, every row clean. The pass's
    /// own Ψ is its `initial_cost`.
    pub(crate) fn placed(
        ctx: &SchedCtx<'_>,
        batch: &RequestBatch,
        policy: GreedyPolicy,
        mut base: StorageLedger,
        held: HeldCopies,
    ) -> Self {
        let priced = place(ctx, batch, policy, Some(&mut base), &held);
        Self { held, ..Self::laid(ctx, priced, base) }
    }

    /// Fresh state over a ledger [`SolveState::new`] would have laid.
    pub(crate) fn laid(ctx: &SchedCtx<'_>, priced: PricedSchedule, ledger: StorageLedger) -> Self {
        Self {
            initial_cost: priced.total(),
            priced,
            ledger,
            dirty: vec![false; ctx.topo.node_count()],
            forbidden: PerVideo::new(),
            victims: Vec::new(),
            iterations: 0,
            forced_fallbacks: 0,
            held: HeldCopies::default(),
            monitor: OverflowMonitor::new(),
            jobs: Vec::new(),
            cache: PerVideo::new(),
            deltas: Vec::new(),
            scratch: GreedyScratch::default(),
            trials_run: 0,
            trials_cached: 0,
            jobs_rebuilt: 0,
            nodes_rescanned: 0,
        }
    }

    /// Run the heat-driven resolution loop to an overflow-free fixpoint
    /// (or through the tail past the iteration cap). Idempotent: a
    /// second call on an already-resolved state detects no overflows and
    /// returns immediately — which is how the sharded path's global pass
    /// degenerates to a no-op when the shards never conflicted. Every
    /// greedy run reads its video's requests off `batch`, the batch the
    /// state's schedule delivers.
    pub(crate) fn resolve(&mut self, ctx: &SchedCtx<'_>, batch: &RequestBatch, cfg: &SorpConfig) {
        let cap = self.iterations + cfg.max_iterations;
        let videos = self.priced.schedule().video_count();
        let mut pending = Vec::new();
        let mut replay_cursor = LedgerCursor::new();
        while self.refresh_overflows(ctx) > 0 {
            let scans = self.monitor.scans();
            if self.iterations >= cap {
                // The tail: re-place one participant of the first overflow
                // that has any under its bans plus that overflow's window,
                // unscored. The ban stays, and admission is rejective, so
                // the overflowing set only shrinks and the tail terminates.
                // An overflow of external occupancy alone has no
                // participant and is passed over: the ones behind it can
                // still be cleared.
                let victim = scans.iter().flat_map(|(_, _, ofs)| ofs).find_map(|of| {
                    let &(vid, _) = overflow_set(&self.ledger, of).first()?;
                    let at = self.priced.schedule().position(vid).ok()?;
                    let requests = requests_of(batch, self.priced.schedule().video_at(at))?;
                    Some((vid, at, requests, (of.loc, of.window)))
                });
                let Some((vid, at, requests, ban)) = victim else {
                    break; // purely external overflows: unresolvable
                };
                let bans = self.forbidden.get_mut(at, videos);
                bans.push(ban);
                let cons =
                    Constraints { ledger: &self.ledger, exclude: Some(vid), forbidden: bans };
                let held = self.held.of(vid);
                let new_vs = greedy_with_cursor(
                    ctx,
                    requests,
                    held,
                    Some(&cons),
                    cfg.policy,
                    &mut self.scratch,
                );
                self.commit(ctx, new_vs);
                self.forced_fallbacks += 1;
                continue;
            }
            self.iterations += 1;

            // A storage that did not move keeps its jobs; one that moved
            // hands their trials back to the cache and rebuilds them from
            // its overflow sets, so the list stays in scan order.
            let mut list = std::mem::take(&mut self.jobs);
            let mut last = list.drain(..).peekable();
            for (loc, version, ofs) in scans {
                let here = |s: &StandingJob| s.job.of.loc == *loc;
                if last.peek().is_some_and(|s| here(s) && s.job.version == *version) {
                    while let Some(s) = last.next_if(here) {
                        pending.push(Pending::Stood(s));
                    }
                    continue;
                }
                while let Some(s) = last.next_if(here) {
                    bank_trial(self.cache.get_mut(s.job.at, videos), s.trial);
                }
                for of in ofs {
                    for (vid, profile) in overflow_set(&self.ledger, of) {
                        // The ledger holds only scheduled videos, each
                        // delivering its group of the batch; a job that
                        // broke either would have nothing to reschedule.
                        let Ok(pos) = self.priced.schedule().position(vid) else { continue };
                        if batch.group(vid).is_none() {
                            continue;
                        }
                        let held = self.forbidden.get(pos).map_or(&[][..], Vec::as_slice);
                        let mut bans = Vec::with_capacity(held.len() + 1);
                        bans.extend_from_slice(held);
                        bans.push((of.loc, of.window));
                        let old_cost = self.priced.cost_at(pos);
                        let of = of.clone();
                        let job =
                            Job { of, version: *version, vid, at: pos, profile, old_cost, bans };
                        pending.push(Pending::Rebuilt(job));
                        self.jobs_rebuilt += 1;
                    }
                }
            }
            debug_assert!(last.next().is_none(), "a job stood at a storage the monitor skips");
            drop(last);
            self.jobs = list;

            // A standing job's trial is re-checked in place; a rebuilt
            // job, or one whose trial no longer replays (stale for
            // everyone: dropped), looks one up in the cache, and on a
            // miss runs the rejective greedy — a pure function of the
            // job, the ledger (frozen until the commit below) and the
            // context — whose dependency trace rides home with the trial.
            // Every moved storage banked its trials above, before the
            // first lookup, and a fresh trial goes to its job, not to the
            // cache: no lookup sees this pass's own work.
            let (ledger, priced, held) = (&self.ledger, &self.priced, &self.held);
            let epoch = self.deltas.len();
            let mut replayer = Replayer {
                ctx,
                ledger,
                deltas: &self.deltas,
                suffixes: Vec::new(),
                cursor: std::mem::take(&mut replay_cursor),
            };
            let mut misses = 0;
            for p in pending.drain(..) {
                let job = match p {
                    Pending::Stood(mut s) => {
                        if replayer.replays(&s.trial, &s.job.bans) {
                            s.trial.epoch = epoch;
                            self.jobs.push(s);
                            continue;
                        }
                        s.job
                    }
                    Pending::Rebuilt(job) => job,
                };
                let cached = self
                    .cache
                    .written(job.at)
                    .and_then(|list| take_cached(list, &job.bans, &mut replayer));
                let trial = match cached {
                    Some(trial) => trial,
                    None => {
                        // Built above only for a video the batch asks for.
                        let vs = priced.schedule().video_at(job.at);
                        let Some(requests) = requests_of(batch, vs) else { continue };
                        misses += 1;
                        let cons =
                            Constraints { ledger, exclude: Some(job.vid), forbidden: &job.bans };
                        let held = held.of(job.vid);
                        let (new_vs, trace) = reschedule_traced_in(
                            ctx,
                            requests,
                            held,
                            &cons,
                            cfg.policy,
                            &mut self.scratch,
                        );
                        let new_cost = ctx.video_cost(&new_vs);
                        CachedTrial { new_vs, new_cost, bans: job.bans.clone(), trace, epoch }
                    }
                };
                self.jobs.push(StandingJob::scored(job, trial, cfg.metric));
            }
            replay_cursor = replayer.cursor;
            self.trials_run += misses;
            self.trials_cached += self.jobs.len() - misses;

            // Reduce sequentially in job order.
            let Some(ji) = select_victim(&self.jobs) else {
                break; // purely external overflows: nothing to reschedule
            };
            let StandingJob { job, trial, overhead, heat } = self.jobs.remove(ji);
            let (vid, of) = (job.vid, job.of);
            self.forbidden.get_mut(job.at, videos).push((of.loc, of.window));
            self.victims.push(VictimRecord {
                video: vid,
                loc: of.loc,
                window_start: of.window.start,
                window_end: of.window.end,
                overhead,
                heat,
            });
            // The trial priced its schedule when it ran: commit at that price.
            self.commit_priced(ctx, trial.new_vs, trial.new_cost);
        }
        self.jobs.clear();
    }

    /// The release sweep: every victim video and every video `split`
    /// names (in id order: the ones reconciliation merged from several
    /// shards), once each in video-id order, re-placed by the rejective
    /// greedy with its bans lifted, against the ledger as it stands (less
    /// the video's own profiles). The re-placement is committed only when
    /// it is cheaper than the video's schedule by more than the greedy's
    /// relative `COST_EPS`, a share of the cost, so doubling every rate
    /// doubles every decision's inputs and changes none. Admission is
    /// rejective: a kept re-placement overflows nothing the ledger did
    /// not, and it delivers the same requests, its group of `batch`.
    pub(crate) fn release(
        &mut self,
        ctx: &SchedCtx<'_>,
        batch: &RequestBatch,
        policy: GreedyPolicy,
        split: &[VideoId],
    ) -> Release {
        let mut videos: Vec<VideoId> = self.victims.iter().map(|v| v.video).collect();
        videos.extend_from_slice(split);
        videos.sort_unstable();
        videos.dedup();
        let mut out = Release::default();
        for vid in videos {
            let Ok(at) = self.priced.schedule().position(vid) else { continue };
            let Some(requests) = requests_of(batch, self.priced.schedule().video_at(at)) else {
                continue;
            };
            let is_split = split.binary_search(&vid).is_ok();
            out.tried += 1;
            out.split_tried += usize::from(is_split);
            let cons = Constraints { ledger: &self.ledger, exclude: Some(vid), forbidden: &[] };
            let held = self.held.of(vid);
            let new_vs =
                greedy_with_cursor(ctx, requests, held, Some(&cons), policy, &mut self.scratch);
            let (old_cost, new_cost) = (self.priced.cost_at(at), ctx.video_cost(&new_vs));
            if new_cost < old_cost - COST_EPS * old_cost.abs() {
                out.kept += 1;
                out.split_kept += usize::from(is_split);
                out.saved += old_cost - new_cost;
                self.commit_priced(ctx, new_vs, new_cost);
            }
        }
        out
    }

    /// Bring the overflow monitor up to date, adding the storages it
    /// rescanned to `nodes_rescanned`, and return how many overflows the
    /// ledger holds. A [`SolveState::resolve`] right after finds every
    /// storage current and rescans none.
    pub(crate) fn refresh_overflows(&mut self, ctx: &SchedCtx<'_>) -> usize {
        self.nodes_rescanned += self.monitor.refresh(ctx.topo, &self.ledger);
        self.monitor.scans().iter().map(|(_, _, ofs)| ofs.len()).sum()
    }

    /// Replace a video's schedule, updating ledger and pricing
    /// incrementally: occupancy is dropped only at the storages the
    /// outgoing schedule actually used, and the running Ψ moves by the
    /// commit's delta. The supports of every profile actually removed or
    /// added become the commit's [`LedgerDelta`] — its (node, window)
    /// footprint, which scopes trial-cache invalidation; the rows are
    /// marked dirty. The one commit: a resolution iteration, the tail past
    /// the cap, the release sweep and the fault-repair pass
    /// ([`crate::repair_schedule`]) all land here.
    pub(crate) fn commit(&mut self, ctx: &SchedCtx<'_>, new_vs: VideoSchedule) {
        let new_cost = ctx.video_cost(&new_vs);
        self.commit_priced(ctx, new_vs, new_cost);
    }

    /// [`SolveState::commit`] of a schedule already priced at `new_cost`.
    fn commit_priced(&mut self, ctx: &SchedCtx<'_>, new_vs: VideoSchedule, new_cost: Dollars) {
        let vid = new_vs.video;
        let mut delta = LedgerDelta::new();
        if let Some(old_vs) = self.priced.schedule().video(vid) {
            for r in &old_vs.residencies {
                self.dirty[r.loc.index()] = true;
                for (_, p) in self.ledger.profiles_at(r.loc).iter().filter(|(v, _)| *v == vid) {
                    delta.record(r.loc, p.start, p.end);
                }
                self.ledger.remove(r.loc, vid);
            }
        }
        debug_assert!(
            !self.ledger.contains_video(vid),
            "ledger held occupancy for video {vid:?} outside its scheduled residencies"
        );
        for r in &new_vs.residencies {
            self.dirty[r.loc.index()] = true;
            let profile = r.profile(ctx.catalog.get(r.video));
            if profile.peak() > 0.0 {
                delta.record(r.loc, profile.start, profile.end);
            }
            self.ledger.add(r.loc, r.video, profile);
        }
        if let (_, Err(at)) = self.priced.commit_priced(ctx, new_vs, new_cost) {
            debug_assert!(self.jobs.is_empty(), "a pass inserted a video under its jobs");
            self.forbidden.inserted(at);
            self.cache.inserted(at);
        }
        self.deltas.push(delta);
    }

    /// Finish the pass: cross-check the delta accounting once, re-detect
    /// overflows from scratch, and package the outcome beside the rows.
    pub(crate) fn into_outcome(self, ctx: &SchedCtx<'_>) -> (SorpOutcome, Solved) {
        // The running total *is* the final cost; cross-check the delta
        // accounting against the closed form once, outside the loop.
        debug_assert!(self.priced.consistent_with(ctx), "SORP left an inconsistent pricing memo");
        let cost = self.priced.total();
        let overflow_free = detect_overflows(ctx.topo, &self.ledger).is_empty();
        let outcome = SorpOutcome {
            schedule: self.priced.into_schedule(),
            cost,
            initial_cost: self.initial_cost,
            iterations: self.iterations,
            victims: self.victims,
            overflow_free,
            forced_fallbacks: self.forced_fallbacks,
            trials_run: self.trials_run,
            trials_cached: self.trials_cached,
            jobs_rebuilt: self.jobs_rebuilt,
            nodes_rescanned: self.nodes_rescanned,
        };
        (outcome, (self.ledger, self.dirty))
    }
}

/// Phase 2, `SORP_solve` (paper Table 3): resolve every storage overflow
/// of an already-priced schedule over the immutable occupancy of `base`
/// (`None`: an empty ledger). `base` holds residencies committed outside
/// this schedule under [`EXTERNAL_OCCUPANCY`]; they are never victimised,
/// and an overflow of external occupancy alone is left standing with
/// `overflow_free = false`. A caller holding a flat `(storage, profile)`
/// list adds each pair to a fresh [`StorageLedger`] under
/// [`EXTERNAL_OCCUPANCY`], in list order.
///
/// Each iteration scores the trial-reschedule jobs in deterministic
/// order and reduces them in that order with the epsilon-aware heat
/// comparison. All cost accounting inside the loop is incremental: the
/// victim's current cost comes from the pricing memo and the commit
/// updates the running Ψ by delta (cross-checked under `debug_assert`);
/// no caller performs a full `schedule_cost` recompute inside the loop.
/// Runs on the calling thread.
pub fn sorp_solve(
    ctx: &SchedCtx<'_>,
    priced: PricedSchedule,
    cfg: &SorpConfig,
    base: Option<&StorageLedger>,
) -> SorpOutcome {
    let base = base.map_or_else(|| StorageLedger::new(ctx.topo), StorageLedger::clone);
    let batch = delivered_batch(priced.schedule());
    let mut state = SolveState::new(ctx, priced, base);
    state.resolve(ctx, &batch, cfg);
    state.into_outcome(ctx).0
}

/// One rejective-greedy pass over `batch` against `base`, finished: the
/// placement the service's `GreedyOnly` and `Shed` rungs commit. Exported
/// through [`crate::audit`] for the property suites.
pub fn rejective_pass(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    policy: GreedyPolicy,
    base: &StorageLedger,
) -> SorpOutcome {
    SolveState::placed(ctx, batch, policy, base.clone(), HeldCopies::default()).into_outcome(ctx).0
}

/// [`sorp_solve`] followed by the release sweep (see the module docs):
/// what the sharded pipeline computes on one
/// shard, and the monolithic reference of the shard properties. Exported
/// through [`crate::audit`] for the property suites.
pub fn sorp_solve_released(
    ctx: &SchedCtx<'_>,
    priced: PricedSchedule,
    cfg: &SorpConfig,
    base: Option<&StorageLedger>,
) -> (SorpOutcome, Release) {
    let base = base.map_or_else(|| StorageLedger::new(ctx.topo), StorageLedger::clone);
    let batch = delivered_batch(priced.schedule());
    let mut state = SolveState::new(ctx, priced, base);
    state.resolve(ctx, &batch, cfg);
    let release = state.release(ctx, &batch, cfg.policy, &[]);
    (state.into_outcome(ctx).0, release)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_video_schedule, ivsp_solve};
    use vod_cost_model::CostModel;
    use vod_topology::builders;
    use vod_workload::{CatalogConfig, RequestConfig, Workload};

    fn run(capacity_gb: f64, seed: u64, metric: HeatMetric) -> (SorpOutcome, Dollars) {
        let cfg = builders::PaperFig4Config { capacity_gb, ..Default::default() };
        let topo = builders::paper_fig4(&cfg);
        let wl =
            Workload::generate(&topo, &CatalogConfig::small(80), &RequestConfig::paper(), seed);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let cfg = SorpConfig::with_metric(metric);
        let individual = ivsp_solve(&ctx, &wl.requests, cfg.policy);
        let icost = ctx.schedule_cost(individual.schedule());
        (sorp_solve(&ctx, individual, &cfg, None), icost)
    }

    #[test]
    fn resolves_all_overflows_on_tight_capacity() {
        // 5 GB stores hold one ≈3.4 GB file: overflows are certain with 190
        // requests, and resolution must clear them all.
        let (outcome, icost) = run(5.0, 1, HeatMetric::TimeSpacePerCost);
        assert!(outcome.overflow_free);
        assert_eq!(outcome.forced_fallbacks, 0, "heat loop should finish without fallback");
        assert!(outcome.resolved_anything(), "tight capacity must force rescheduling");
        assert!((outcome.initial_cost - icost).abs() < 1e-6);
        // Resolution cannot make the schedule cheaper than the unconstrained
        // phase-1 greedy by more than numerical noise… it can make it more
        // expensive; the paper reports +12 % on average.
        assert!(outcome.cost >= icost * 0.999, "cost {} vs initial {icost}", outcome.cost);
    }

    #[test]
    fn huge_capacity_needs_no_resolution() {
        let (outcome, icost) = run(10_000.0, 2, HeatMetric::TimeSpacePerCost);
        assert!(outcome.overflow_free);
        assert_eq!(outcome.iterations, 0);
        assert!(!outcome.resolved_anything());
        assert!((outcome.cost - icost).abs() < 1e-6);
        assert_eq!(outcome.relative_cost_increase(), 0.0);
    }

    #[test]
    fn final_schedule_respects_capacity_everywhere() {
        let (outcome, _) = run(5.0, 3, HeatMetric::PeriodPerCost);
        let cfg = builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() };
        let topo = builders::paper_fig4(&cfg);
        // Rebuild the ledger from scratch and re-detect.
        let wl = Workload::generate(&topo, &CatalogConfig::small(80), &RequestConfig::paper(), 3);
        let ledger = StorageLedger::from_schedule(&topo, &wl.catalog, &outcome.schedule);
        assert!(detect_overflows(&topo, &ledger).is_empty());
    }

    #[test]
    fn every_request_still_served_after_resolution() {
        let cfg = builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() };
        let topo = builders::paper_fig4(&cfg);
        let wl = Workload::generate(&topo, &CatalogConfig::small(80), &RequestConfig::paper(), 4);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let cfg = SorpConfig::default();
        let outcome = sorp_solve(&ctx, ivsp_solve(&ctx, &wl.requests, cfg.policy), &cfg, None);
        assert_eq!(outcome.schedule.delivery_count(), wl.requests.len());
    }

    #[test]
    fn all_four_metrics_resolve() {
        for metric in HeatMetric::ALL {
            let (outcome, _) = run(5.0, 5, metric);
            assert!(outcome.overflow_free, "{metric} failed to resolve");
        }
    }

    #[test]
    fn metrics_can_disagree_on_cost() {
        // Not guaranteed for every seed, but across a few seeds the four
        // metrics should not always produce identical costs (otherwise the
        // Table 5 comparison would be vacuous).
        let mut any_difference = false;
        for seed in 1..6 {
            let costs: Vec<Dollars> =
                HeatMetric::ALL.iter().map(|&m| run(5.0, seed, m).0.cost).collect();
            if costs.iter().any(|c| (c - costs[0]).abs() > 1e-6) {
                any_difference = true;
                break;
            }
        }
        assert!(any_difference, "heat metrics never disagreed across seeds 1–5");
    }

    #[test]
    fn victims_are_recorded_with_finite_overhead() {
        let (outcome, _) = run(5.0, 6, HeatMetric::TimeSpacePerCost);
        assert!(!outcome.victims.is_empty());
        for v in &outcome.victims {
            assert!(v.overhead.is_finite());
            assert!(v.window_end > v.window_start);
        }
    }

    #[test]
    fn heat_ties_are_relative_epsilon() {
        // Exact equality and near-equality both tie…
        assert!(heats_tie(1.0, 1.0));
        assert!(heats_tie(1.0, 1.0 + 1e-12));
        assert!(heats_tie(1e9, 1e9 * (1.0 + 1e-12)));
        // …clearly different heats do not…
        assert!(!heats_tie(1.0, 1.0 + 1e-6));
        assert!(!heats_tie(0.0, 1e-6));
        // …and infinities tie only with themselves (never via ∞ − ∞).
        assert!(heats_tie(f64::INFINITY, f64::INFINITY));
        assert!(!heats_tie(f64::INFINITY, 1e300));
        assert!(!heats_tie(f64::NEG_INFINITY, f64::INFINITY));
        assert!(!heats_tie(f64::NAN, 1.0));
    }

    #[test]
    fn memoized_victim_cost_matches_recompute() {
        // The trial loop reads each participant's current cost from the
        // pricing memo; verify the memo tracks ctx.video_cost exactly
        // through a full resolution run.
        let cfgb = builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() };
        let topo = builders::paper_fig4(&cfgb);
        let wl = Workload::generate(&topo, &CatalogConfig::small(80), &RequestConfig::paper(), 8);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let cfg = SorpConfig::default();
        let priced = ivsp_solve(&ctx, &wl.requests, cfg.policy);
        for vs in priced.schedule().videos() {
            assert_eq!(priced.video_cost(vs.video), Some(ctx.video_cost(vs)));
        }
        let outcome = sorp_solve(&ctx, priced, &cfg, None);
        assert!(outcome.resolved_anything(), "tight capacity must reschedule something");
        // After resolution the outcome cost equals the closed form.
        assert!(
            (outcome.cost - ctx.schedule_cost(&outcome.schedule)).abs()
                <= 1e-6 * outcome.cost.max(1.0)
        );
    }

    #[test]
    fn zero_iteration_cap_forces_fallback_but_still_resolves() {
        let cfgb = builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() };
        let topo = builders::paper_fig4(&cfgb);
        let wl = Workload::generate(&topo, &CatalogConfig::small(80), &RequestConfig::paper(), 1);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let cfg = SorpConfig { max_iterations: 0, ..SorpConfig::default() };
        let outcome = sorp_solve(&ctx, ivsp_solve(&ctx, &wl.requests, cfg.policy), &cfg, None);
        assert!(outcome.overflow_free);
        assert!(outcome.forced_fallbacks > 0);
        assert_eq!(outcome.iterations, 0);
        assert_eq!(outcome.schedule.delivery_count(), wl.requests.len());
    }

    #[test]
    fn fallback_passes_over_a_purely_external_overflow() {
        // Occupancy committed outside the schedule holds the first storage
        // in scan order over capacity on its own, for good: no victim can
        // ever clear it. With no heat-driven iteration allowed, the tail
        // must still clear every overflow behind it.
        let cfgb = builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() };
        let topo = builders::paper_fig4(&cfgb);
        let wl = Workload::generate(&topo, &CatalogConfig::small(80), &RequestConfig::paper(), 1);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let first = topo.storages().next().expect("a storage exists");
        let squatter = SpaceProfile { start: 0.0, full: 0.0, last: 1e7, end: 1e7, plateau: 6e9 };
        let mut base = StorageLedger::new(&topo);
        base.add(first, EXTERNAL_OCCUPANCY, squatter);
        let cfg = SorpConfig { max_iterations: 0, ..SorpConfig::default() };
        let priced = ivsp_solve(&ctx, &wl.requests, cfg.policy);
        let phase1 = StorageLedger::from_schedule(&topo, &wl.catalog, priced.schedule());
        assert!(
            detect_overflows(&topo, &phase1).iter().any(|of| of.loc != first),
            "phase 1 must overflow a storage behind the squatted one"
        );

        let out = sorp_solve(&ctx, priced, &cfg, Some(&base));
        assert_eq!(out.iterations, 0);
        assert!(out.forced_fallbacks > 0);
        assert_eq!(out.schedule.delivery_count(), wl.requests.len());
        assert!(!out.overflow_free, "the squatter's overflow is still there");
        let mut ledger = base;
        for r in out.schedule.residencies() {
            ledger.add(r.loc, r.video, r.profile(wl.catalog.get(r.video)));
        }
        for of in detect_overflows(&topo, &ledger) {
            assert_eq!(of.loc, first, "an overflow the tail could clear was left at {}", of.loc);
            assert!(overflow_set(&ledger, &of).is_empty(), "a participant was left in place");
        }
    }

    #[test]
    fn an_unmoved_storage_keeps_its_overflows_participants_and_bystanders() {
        // The standing-job invariant, re-enacted commit by commit on the
        // solver's own victim sequence: between two iterations a storage
        // whose node version did not move shows the same overflows and
        // the same overflow sets, and the victim committed in between is
        // not among its participants.
        let cfgb = builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() };
        let topo = builders::paper_fig4(&cfgb);
        let wl = Workload::generate(&topo, &CatalogConfig::small(80), &RequestConfig::paper(), 9);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let cfg = SorpConfig::default();
        let priced = ivsp_solve(&ctx, &wl.requests, cfg.policy);
        let mut schedule = priced.schedule().clone();
        let victims = sorp_solve(&ctx, priced, &cfg, None).victims;
        assert!(victims.len() > 3, "instance too easy to move any storage");

        type Seen = (u64, Vec<(Interval, u64, Vec<(VideoId, SpaceProfile)>)>);
        let snapshot = |ledger: &StorageLedger| -> Vec<(NodeId, Seen)> {
            let mut per: Vec<(NodeId, Seen)> =
                topo.storages().map(|l| (l, (ledger.node_version(l), Vec::new()))).collect();
            for of in detect_overflows(&topo, ledger) {
                let seen = &mut per.iter_mut().find(|(l, _)| *l == of.loc).expect("a storage").1;
                seen.1.push((of.window, of.peak_excess.to_bits(), overflow_set(ledger, &of)));
            }
            per
        };
        let mut ledger = StorageLedger::from_schedule(&topo, &wl.catalog, &schedule);
        let mut forbidden: std::collections::HashMap<VideoId, Vec<(NodeId, Interval)>> =
            Default::default();
        let (mut stood, mut before) = (0, snapshot(&ledger));
        for v in &victims {
            let bans = forbidden.entry(v.video).or_default();
            bans.push((v.loc, Interval::new(v.window_start, v.window_end)));
            let old = schedule.video(v.video).expect("a victim is scheduled").clone();
            let cons = Constraints { ledger: &ledger, exclude: Some(v.video), forbidden: bans };
            let new_vs =
                find_video_schedule(&ctx, &old.delivered_requests(), cfg.policy, Some(&cons));
            for r in &old.residencies {
                ledger.remove(r.loc, v.video);
            }
            for r in &new_vs.residencies {
                ledger.add(r.loc, r.video, r.profile(wl.catalog.get(r.video)));
            }
            schedule.upsert(new_vs);

            let after = snapshot(&ledger);
            for ((loc, was), (_, is)) in before.iter().zip(&after) {
                if was.0 != is.0 {
                    continue;
                }
                stood += was.1.len();
                assert!(was.1 == is.1, "{loc} did not move, yet its overflows or their sets did");
                let took_part = |(_, _, set): &(_, _, Vec<(VideoId, SpaceProfile)>)| {
                    set.iter().any(|(vid, _)| *vid == v.video)
                };
                assert!(!is.1.iter().any(took_part), "{loc} did not move under its own victim");
            }
            before = after;
        }
        assert!(
            detect_overflows(&topo, &ledger).is_empty(),
            "the re-enactment left the solver's path"
        );
        assert!(stood > 0, "no overflow ever stood across a commit");
    }
}
