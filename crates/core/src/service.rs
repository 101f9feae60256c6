//! Async service frontend: admission control, a deadline-budgeted
//! degradation ladder, and overload shedding around the warm sharded
//! solve. [`ServiceLoop`], driven by [`service_run`], is the only code
//! that advances a cycle.
//!
//! The paper frames VOR as a *service*: requests arrive continuously
//! ahead of their reserved start times, and the provider must keep
//! admitting, scheduling, and serving them. [`ServiceLoop`] is that
//! request-intake layer on top of the sharded solve:
//!
//! * arriving requests enter a **bounded intake queue** in
//!   oldest-deadline-first order; a full queue rejects before enqueue
//!   ([`IntakeError`] is the typed backpressure);
//! * each cycle's drained batch is solved under a **per-cycle deadline
//!   budget** enforced by a degradation ladder ([`Rung`]): full warm
//!   sharded solve → one rejective-greedy pass (paper §4.4) that places
//!   the batch against the book, feasible by construction → heat-ranked
//!   shedding, then that pass over what is kept. The rung is chosen by a
//!   [`BudgetModel`] — an EMA over **simulated** nanoseconds derived
//!   from the solver's deterministic work counters — never from the wall
//!   clock, so a run's rung sequence is bit-reproducible across runs and
//!   machines;
//! * shed requests **re-enqueue into later cycles** with capped
//!   exponential backoff and a drop-after-N policy ([`BackoffPolicy`]);
//! * [`vod_faults::FaultPlan`] faults are wired straight into the loop: a
//!   cycle whose schedule runs into a fault — inside its window or later,
//!   up to the end of its last stream or stored residency — runs the
//!   repair pass of [`crate::repair_schedule`] on the solve's own state,
//!   whose ledger is the book plus this cycle's schedule. Repair serves
//!   every request it is handed — a cut-off one streams at the first
//!   instant its route is clear, counted as a deadline miss — so faults
//!   never shed;
//! * a cycle commits **once**: the schedule it returns, post-repair, is
//!   the only thing the book absorbs, so the book never exceeds a store.
//!   The commit may hold a shipped copy whole until the next commit; the
//!   hold ships in the schedule and is charged to the cycle, and the next
//!   cycle's greedy continues the copy as an existing cache
//!   ([`crate::CommittedBook`], "held copies");
//! * everything is accounted in a [`ServiceReport`]: per-cycle rung,
//!   queue-depth high-water mark, admitted / deferred / shed / dropped
//!   counts, deadline misses, and the backoff histogram, with a
//!   [`ServiceReport::conservation_error`] balance check.
//!
//! ## Oracle configuration
//!
//! With an unbounded queue, an infinite budget and an empty fault plan,
//! every cycle runs the [`Rung::Full`] solve on exactly the window's
//! arrivals
//! ([`vod_cost_model::RequestBatch::new`] normalises request order, so
//! queue ordering is invisible to the solver) — committed schedules and
//! Ψ are bit-identical to evicting, solving over the book from its held
//! copies ([`CommittedBook::solve`]) and absorbing the result with holds
//! until the next window ([`CommittedBook::absorb`]), window by window
//! over one [`CommittedBook`]. The `service_props` suite asserts this.
//!
//! ## Determinism of the ladder
//!
//! [`BudgetModel::simulated_ns`] is a fixed linear form over the
//! solver's `(requests, iterations, victims, forced_fallbacks)`
//! counters, which the sharded solver keeps bit-stable across runs. The
//! EMA state therefore evolves identically on every replay of the same
//! arrival trace, and with it every [`BudgetModel::pick`].

use crate::repair::{adjusted_requests, repair_state};
use crate::shard::{place_over, solve_over};
use crate::warm::HoldUntil;
use crate::{detect_overflows, CommittedBook, SchedCtx, ShardConfig, WarmStats};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::fmt::Write as _;
use vod_cost_model::{total_order_bits, Dollars, Request, RequestBatch, Residency, Schedule, Secs};
use vod_faults::{Fault, FaultError, FaultPlan};
use vod_parallel::ExecMode;
use vod_topology::{Topology, UserId};
use vod_workload::Arrival;

/// The degradation ladder, cheapest-first from the bottom. Every cycle
/// runs on exactly one rung, chosen by the [`BudgetModel`] before the
/// solve starts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Rung {
    /// The full warm sharded solve (the oracle path).
    #[default]
    Full,
    /// Never chosen: a name only, kept because the frozen benchmark
    /// adapter matches it (drop with benchmark revision 2, like
    /// `rejected_saturated` and the always-zero [`WarmStats`] fields).
    ReducedTrials,
    /// One rejective-greedy pass over the whole batch: each video, in
    /// video-id order, placed against the book plus the videos before it,
    /// so nothing overflows and nothing is resolved.
    GreedyOnly,
    /// Even the pass cannot finish in budget: shed the lowest-heat
    /// requests until the remainder fits, then place the rest as
    /// [`Rung::GreedyOnly`] does.
    Shed,
}

impl Rung {
    /// Short fixed-width label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Rung::Full => "full",
            Rung::ReducedTrials => "reduced",
            Rung::GreedyOnly => "greedy",
            Rung::Shed => "shed",
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Typed backpressure from [`ServiceLoop::offer`]: the request was NOT
/// enqueued and the caller must retry later or give up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IntakeError {
    /// The bounded intake queue is at capacity.
    QueueFull {
        /// The configured bound the queue is sitting at.
        bound: usize,
    },
    /// The request's start is NaN or infinite: no window ever drains it.
    /// Refused before it counts as offered.
    NonFiniteStart {
        /// The offending start.
        start: Secs,
    },
    /// The request names a user the loop's topology does not have: no
    /// storage is its home. Refused before it counts as offered.
    UnknownUser {
        /// The offending user.
        user: UserId,
    },
}

impl fmt::Display for IntakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            IntakeError::QueueFull { bound } => {
                write!(f, "intake queue full at its bound of {bound}")
            }
            IntakeError::NonFiniteStart { start } => {
                write!(f, "request start {start} is not finite")
            }
            IntakeError::UnknownUser { user } => {
                write!(f, "request names user {user}, which the topology does not have")
            }
        }
    }
}

impl std::error::Error for IntakeError {}

/// Re-enqueue policy for shed requests.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BackoffPolicy {
    /// Cycles to wait after the first failed attempt.
    pub base_cycles: usize,
    /// Cap on the exponential backoff delay, cycles.
    pub max_cycles: usize,
    /// A request is dropped permanently once it has failed more than
    /// this many attempts.
    pub drop_after: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self { base_cycles: 1, max_cycles: 8, drop_after: 3 }
    }
}

impl BackoffPolicy {
    /// Delay in cycles before attempt `attempts` (1-based) re-enters the
    /// queue: `base · 2^(attempts−1)`, capped at `max_cycles` and never
    /// below one cycle.
    pub fn delay(&self, attempts: u32) -> usize {
        self.base_cycles
            .saturating_mul(backoff_multiplier(attempts) as usize)
            .clamp(1, self.max_cycles.max(1))
    }
}

/// The multiplier of backoff attempt `attempt` (1-based): `2^(attempt−1)`,
/// the exponent clamped at 16 — past 2^16 a delay is already far beyond
/// any cycle cap, and an unclamped exponent is a shift overflow from
/// attempt 65 on.
fn backoff_multiplier(attempt: u32) -> u64 {
    1u64 << attempt.saturating_sub(1).min(16)
}

/// Why [`ServiceLoop::new`] refused a configuration, or [`service_run`]
/// its arrival trace.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// The fault plan does not validate against the topology.
    Faults(FaultError),
    /// The cycle horizon is not a positive, finite number of seconds.
    Horizon(Secs),
    /// The deadline budget is not a positive, finite number of simulated
    /// nanoseconds.
    Budget(f64),
    /// The arrival trace is not sorted by arrival time: arrival `index`
    /// arrives before arrival `index − 1` (or either time is NaN).
    UnsortedArrivals {
        /// The first arrival out of order.
        index: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Faults(e) => write!(f, "invalid fault plan: {e}"),
            ServiceError::Horizon(h) => {
                write!(f, "cycle horizon {h} s is not positive and finite")
            }
            ServiceError::Budget(b) => {
                write!(f, "deadline budget {b} ns is not positive and finite")
            }
            ServiceError::UnsortedArrivals { index } => write!(
                f,
                "arrival {index} arrives before arrival {}; the trace must be sorted by arrival time",
                index - 1
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Faults(e) => Some(e),
            ServiceError::Horizon(_)
            | ServiceError::Budget(_)
            | ServiceError::UnsortedArrivals { .. } => None,
        }
    }
}

impl From<FaultError> for ServiceError {
    fn from(e: FaultError) -> Self {
        ServiceError::Faults(e)
    }
}

/// Configuration of the service loop. The default is the *oracle*
/// configuration: unbounded queue, infinite budget, no faults —
/// bit-identical to the plain warm loop (see the module docs).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The sharded-solver configuration the [`Rung::Full`] solve runs
    /// under; the two lower rungs read only its greedy policy.
    pub shard: ShardConfig,
    /// Cycle length in seconds (cycle `k` serves `[k·h, (k+1)·h)`).
    pub horizon: Secs,
    /// Intake queue bound; `None` is unbounded.
    pub queue_bound: Option<usize>,
    /// Per-cycle deadline budget in simulated nanoseconds; `None` is
    /// infinite (the ladder never leaves [`Rung::Full`]). A budget must be
    /// positive and finite ([`ServiceError::Budget`] otherwise). A budget
    /// no request fits puts every non-empty cycle on [`Rung::Shed`] keeping
    /// none: each ticket is shed into backoff and dropped once it has
    /// failed more than `backoff.drop_after` attempts; the accounting
    /// still balances.
    pub budget_ns: Option<f64>,
    /// Backoff policy for shed requests.
    pub backoff: BackoffPolicy,
    /// Faults injected over the run; each cycle repairs against the
    /// sub-plan of faults its solved schedule runs into: those overlapping
    /// `[window start, reach)`, where `reach` is the latest end of any of
    /// its streams (`start + playback`) or stored residencies (profile
    /// end).
    pub faults: FaultPlan,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shard: ShardConfig::default(),
            horizon: 24.0 * 3_600.0,
            queue_bound: None,
            budget_ns: None,
            backoff: BackoffPolicy::default(),
            faults: FaultPlan::empty(),
        }
    }
}

/// EMA weight of a new observation.
const EMA_ALPHA: f64 = 0.3;

/// Simulated cost per scheduled request (the phase-1 greedy share).
const REQUEST_NS: f64 = 4_000.0;
/// Simulated cost per SORP resolution iteration.
const ITERATION_NS: f64 = 60_000.0;
/// Simulated cost per committed victim reschedule.
const VICTIM_NS: f64 = 90_000.0;
/// Simulated cost per re-placement of the resolution tail past its cap.
const FALLBACK_NS: f64 = 20_000.0;

/// Deadline-budget model for the degradation ladder: one EMA of
/// simulated nanoseconds **per request** for each solve, the full one
/// and the pass (shed cycles observe as greedy — the rung they actually
/// solve on). Both the inputs ([`BudgetModel::simulated_ns`], a pure
/// function of the solver's deterministic counters) and the decision
/// rule ([`BudgetModel::pick`]) are wall-clock-free, so the ladder
/// replays bit-identically.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BudgetModel {
    /// Per-request simulated ns for `[Full, GreedyOnly]`.
    unit_ns: [f64; 2],
}

impl Default for BudgetModel {
    fn default() -> Self {
        // Seeds in the same currency as `simulated_ns`: a ~1k-request
        // full solve runs a few hundred iterations, and the greedy rung
        // is the bare per-request form. The EMA replaces the seeds within
        // a couple of cycles.
        Self { unit_ns: [9_700.0, 4_200.0] }
    }
}

impl BudgetModel {
    /// Simulated nanoseconds of one cycle's solve: a fixed linear form
    /// over the solver's deterministic work counters. Run-to-run stable
    /// because every input is.
    pub fn simulated_ns(
        requests: usize,
        iterations: usize,
        victims: usize,
        forced_fallbacks: usize,
    ) -> u64 {
        (requests as f64 * REQUEST_NS
            + iterations as f64 * ITERATION_NS
            + victims as f64 * VICTIM_NS
            + forced_fallbacks as f64 * FALLBACK_NS) as u64
    }

    /// The current per-request EMA state, indexed `[Full, GreedyOnly]`
    /// — exposed so the flight recorder can capture the ladder's
    /// decision inputs.
    pub fn unit_ns(&self) -> [f64; 2] {
        self.unit_ns
    }

    /// The EMA a rung reads and feeds: the full solve's, or the pass's.
    fn index(rung: Rung) -> usize {
        match rung {
            Rung::Full | Rung::ReducedTrials => 0,
            Rung::GreedyOnly | Rung::Shed => 1,
        }
    }

    /// Predicted simulated ns for solving `n` requests on `rung`.
    pub fn predict(&self, rung: Rung, n: usize) -> f64 {
        self.unit_ns[Self::index(rung)] * n as f64
    }

    /// Choose the cheapest rung whose prediction fits `budget`, and how
    /// many of the `n` requests to actually solve. An infinite budget
    /// (`None`) always picks [`Rung::Full`]. When even the greedy rung
    /// cannot fit all `n`, the pick is [`Rung::Shed`] with
    /// `keep = ⌊budget / greedy-unit⌋ < n` requests solved and the rest
    /// shed. Pure function of the model state.
    pub fn pick(&self, n: usize, budget: Option<f64>) -> (Rung, usize) {
        let Some(b) = budget else { return (Rung::Full, n) };
        if n == 0 {
            return (Rung::Full, 0);
        }
        for rung in [Rung::Full, Rung::GreedyOnly] {
            if self.predict(rung, n) <= b {
                return (rung, n);
            }
        }
        let keep = (b / self.unit_ns[1].max(1.0)).floor() as usize;
        (Rung::Shed, keep.min(n.saturating_sub(1)))
    }

    /// Fold one cycle's simulated time into the rung's per-request EMA.
    pub fn observe(&mut self, rung: Rung, requests: usize, sim_ns: u64) {
        if requests == 0 {
            return;
        }
        let unit = sim_ns as f64 / requests as f64;
        if !(unit.is_finite() && unit > 0.0) {
            return;
        }
        let ema = &mut self.unit_ns[Self::index(rung)];
        *ema += EMA_ALPHA * (unit - *ema);
    }
}

/// One queued request: the (possibly backoff-shifted) request to solve,
/// the original reservation it descends from, and how many failed
/// attempts it has accumulated.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Ticket {
    request: Request,
    original: Request,
    attempts: u32,
}

/// Total-order sort key: oldest deadline first (by `f64::total_cmp`, so a
/// negative start sorts ahead of every positive one, as the drain's
/// `start < window_end` cut needs), then (video, user) for determinism.
fn ticket_key(t: &Ticket) -> (u64, u32, u32) {
    (total_order_bits(t.request.start), t.request.video.0, t.request.user.0)
}

/// Sort key of the backoff parking lot.
fn parking_key((eligible, t): &(usize, Ticket)) -> (usize, (u64, u32, u32)) {
    (*eligible, ticket_key(t))
}

/// The ladder's heat ranking: which `n − keep` of the `n` tickets to
/// shed. Lowest heat (fewest same-video tickets in the batch) goes
/// first, ties broken on `(video, user, start)` and then on position, so
/// of identical requests the one nearer the queue head goes first. Every
/// ticket's rank key is built once; the position makes keys unique, so
/// the `n − keep` smallest are one set however an unstable selection
/// orders them, and it is the set a stable sort on the rest of the key
/// would put first.
fn shed_mask(tickets: &[Ticket], keep: usize) -> Vec<bool> {
    let n = tickets.len();
    let mut shed = vec![false; n];
    if keep >= n {
        return shed;
    }
    // Heat: the length of each video's run once the batch is grouped.
    let mut by_video: Vec<(u32, usize)> =
        tickets.iter().enumerate().map(|(i, t)| (t.request.video.0, i)).collect();
    by_video.sort_unstable();
    let mut heat = vec![0; n];
    for run in by_video.chunk_by(|a, b| a.0 == b.0) {
        for &(_, i) in run {
            heat[i] = run.len();
        }
    }
    let mut keys: Vec<(usize, u32, u32, u64, usize)> = tickets
        .iter()
        .zip(heat)
        .enumerate()
        .map(|(i, (t, h))| {
            let r = &t.request;
            (h, r.video.0, r.user.0, total_order_bits(r.start), i)
        })
        .collect();
    let cut = n - keep;
    keys.select_nth_unstable(cut - 1);
    for key in &keys[..cut] {
        shed[key.4] = true;
    }
    shed
}

/// The tickets in batch order, so that batch entry `i` is ticket `i`:
/// [`Request::batch_order`], and of tickets holding one request the one
/// later in `tickets` first — what reversing `tickets` and stable-sorting
/// by `batch_order` leaves, since that sort breaks ties by reversed
/// position. A counting pass over the video ids (which index the
/// catalog of `titles` videos) groups the tickets by video, stably; each
/// video's run is then ordered on (start, user, reversed position),
/// unique keys. A drained batch comes in queue order, which within a
/// video already is (start, user), so that sort mostly confirms one run
/// and only turns identical requests around.
fn into_batch_order(tickets: Vec<Ticket>, titles: usize) -> Vec<Ticket> {
    let span = tickets.iter().map(|t| t.request.video.index() + 1).max().unwrap_or(0);
    assert!(span <= titles, "a drained request names a video outside the catalog");
    // Video `v`'s run is `order[ends[v]..ends[v + 1]]`.
    let mut ends = vec![0usize; span + 1];
    for t in &tickets {
        ends[t.request.video.index() + 1] += 1;
    }
    let mut total = 0;
    for end in &mut ends {
        total += *end;
        *end = total;
    }
    let mut next = ends.clone();
    let mut order = vec![0usize; tickets.len()];
    for (i, t) in tickets.iter().enumerate() {
        let slot = &mut next[t.request.video.index()];
        order[*slot] = i;
        *slot += 1;
    }
    for run in ends.windows(2) {
        order[run[0]..run[1]].sort_unstable_by_key(|&i| {
            let r = &tickets[i].request;
            (total_order_bits(r.start), r.user.0, std::cmp::Reverse(i))
        });
    }
    order.into_iter().map(|i| tickets[i]).collect()
}

/// Merge `incoming` into `sorted`, both ordered by `key`, each incoming
/// item behind the items of `sorted` with an equal key — what inserting
/// them one at a time at `partition_point(|q| key(q) <= key(t))` leaves,
/// in one pass.
fn merge_behind<T, K: Ord>(sorted: &mut Vec<T>, incoming: Vec<T>, key: impl Fn(&T) -> K) {
    if incoming.is_empty() {
        return;
    }
    let mut old = std::mem::take(sorted).into_iter().peekable();
    let mut merged = Vec::with_capacity(old.len() + incoming.len());
    for t in incoming {
        let k = key(&t);
        while let Some(q) = old.next_if(|q| key(q) <= k) {
            merged.push(q);
        }
        merged.push(t);
    }
    merged.extend(old);
    *sorted = merged;
}

/// The last instant `schedule` uses a link or a store: the latest end of
/// any of its streams (`start + playback`) or residencies (profile end).
fn schedule_reach(ctx: &SchedCtx<'_>, schedule: &Schedule) -> Secs {
    let space = ctx.model.space_model();
    let streams = schedule.transfers().map(|t| t.start + ctx.catalog.get(t.video).playback);
    let stored =
        schedule.residencies().map(|r| r.profile_with(ctx.catalog.get(r.video), space).end);
    streams.chain(stored).fold(f64::NEG_INFINITY, f64::max)
}

/// Per-cycle service accounting, threaded into the [`ServiceReport`]
/// and the cycle's [`ServiceCycleOutcome`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceCycleStats {
    /// Cycle index (0-based).
    pub cycle: usize,
    /// The ladder rung the cycle solved on.
    pub rung: Rung,
    /// Requests offered to intake since the previous cycle ran.
    pub offered: usize,
    /// Offers bounced off the queue bound.
    pub rejected_full: usize,
    /// Always 0: intake has no saturation test. Kept only because the
    /// benchmark adapter and the recording format name it.
    pub rejected_saturated: usize,
    /// Drained tickets naming a video outside the catalog: refused at
    /// the drain, the first point the loop sees the catalog.
    pub rejected_unknown: usize,
    /// Tickets drained into this cycle's batch (including any later
    /// shed by the ladder, excluding `rejected_unknown`).
    pub admitted: usize,
    /// Requests the committed schedule actually serves (post-repair).
    pub served: usize,
    /// Requests the ladder shed this cycle. Each is also counted once
    /// under `deferred` or `dropped`, whichever disposition it received.
    pub shed: usize,
    /// Requests re-enqueued into a later cycle with backoff.
    pub deferred: usize,
    /// Requests dropped permanently (drop-after-N exceeded).
    pub dropped: usize,
    /// Requests delivered later than reserved by fault repair.
    pub delayed: usize,
    /// Served requests that missed their original reservation: repair
    /// delays plus re-enqueued requests served in a later window.
    pub deadline_misses: usize,
    /// Queue depth left behind after this cycle's drain.
    pub queue_depth: usize,
    /// Simulated nanoseconds the solve cost ([`BudgetModel`] currency).
    pub sim_ns: u64,
    /// Whether the realised simulated time overran the budget (the
    /// model mispredicted; the ladder adapts via the EMA).
    pub over_budget: bool,
}

/// Everything [`ServiceLoop::run_cycle`] produced for one cycle: the
/// committed (post-repair) schedule, its cost, the request sets, and the
/// service accounting.
#[derive(Clone, Debug)]
pub struct ServiceCycleOutcome {
    /// Service accounting for the cycle.
    pub stats: ServiceCycleStats,
    /// The committed schedule (post-repair when faults hit the window;
    /// empty for an idle cycle).
    pub schedule: Schedule,
    /// Ψ of the committed schedule.
    pub cost: Dollars,
    /// Ψ of the phase-1 schedule (0 for an idle cycle).
    pub initial_cost: Dollars,
    /// Victims committed by overflow resolution.
    pub victims: usize,
    /// Whether the schedule is overflow-free.
    pub overflow_free: bool,
    /// Warm-start accounting snapshot for the cycle.
    pub warm: WarmStats,
    /// The copies an earlier commit held that this schedule continues, as
    /// that commit shipped them: each carried residency of `schedule`
    /// starts where one of these ends, at its storage. A replay of this
    /// schedule alone takes them as present at the window start.
    pub inherited: Vec<Residency>,
    /// The requests the schedule serves, post-repair adjustment
    /// (delayed requests carry their delivery time).
    pub served: Vec<Request>,
    /// The *original* reservations behind the served requests (what the
    /// caller offered, before any backoff shift), same order as the
    /// solved batch. Lets callers check that no reservation is served
    /// twice or resurrected after a drop.
    pub served_originals: Vec<Request>,
    /// Requests the ladder shed this cycle, at the start they were
    /// scheduled for when shed.
    pub shed_now: Vec<Request>,
    /// Original reservations dropped permanently this cycle
    /// (drop-after-N exceeded).
    pub dropped_now: Vec<Request>,
}

impl ServiceCycleOutcome {
    /// Relative cost increase from overflow resolution this cycle.
    pub fn rel_increase(&self) -> f64 {
        if self.initial_cost == 0.0 {
            0.0
        } else {
            (self.cost - self.initial_cost) / self.initial_cost
        }
    }
}

/// End-of-run service accounting.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Per-cycle stats, in cycle order.
    pub cycles: Vec<ServiceCycleStats>,
    /// Total requests offered to intake (including after the last
    /// cycle ran).
    pub offered: usize,
    /// Offers bounced off the queue bound.
    pub rejected_full: usize,
    /// Always 0: intake has no saturation test. Kept only because the
    /// benchmark adapter and the recording format name it.
    pub rejected_saturated: usize,
    /// Accepted offers refused at the drain for a video outside the
    /// catalog.
    pub rejected_unknown: usize,
    /// Requests served across all committed schedules.
    pub served: usize,
    /// Total shed events (a request re-shed after backoff counts once
    /// per shed).
    pub shed_events: usize,
    /// Total backoff re-enqueues.
    pub deferred_events: usize,
    /// Requests dropped permanently.
    pub dropped: usize,
    /// Total deadline misses among served requests.
    pub deadline_misses: usize,
    /// Highest queue depth ever observed at enqueue time.
    pub queue_high_water: usize,
    /// `backoff_histogram[i]` counts re-enqueues whose failed-attempt
    /// count was `i + 1`.
    pub backoff_histogram: Vec<usize>,
    /// Requests still queued or parked for a later cycle at finish.
    pub in_flight: usize,
}

impl ServiceReport {
    /// Offers that passed admission, entered the queue, and named a
    /// video of the catalog.
    pub fn accepted(&self) -> usize {
        self.offered - self.rejected_full - self.rejected_saturated - self.rejected_unknown
    }

    /// Conservation balance: every accepted request must be served,
    /// dropped, or still in flight — exactly once. Zero when the
    /// accounting is consistent.
    pub fn conservation_error(&self) -> i64 {
        self.accepted() as i64 - self.served as i64 - self.dropped as i64 - self.in_flight as i64
    }

    /// Render as an aligned table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Service frontend ({} cycles)", self.cycles.len());
        let _ = writeln!(
            out,
            "{:>7}{:>9}{:>9}{:>8}{:>8}{:>8}{:>7}{:>7}{:>7}{:>7}{:>10}",
            "cycle",
            "rung",
            "offered",
            "admit",
            "served",
            "shed",
            "defer",
            "drop",
            "miss",
            "queue",
            "sim ms"
        );
        for c in &self.cycles {
            let _ = writeln!(
                out,
                "{:>7}{:>9}{:>9}{:>8}{:>8}{:>8}{:>7}{:>7}{:>7}{:>7}{:>10.2}",
                c.cycle,
                c.rung.label(),
                c.offered,
                c.admitted,
                c.served,
                c.shed,
                c.deferred,
                c.dropped,
                c.deadline_misses,
                c.queue_depth,
                c.sim_ns as f64 / 1e6,
            );
        }
        let _ = writeln!(
            out,
            "totals: offered {} (rejected {} full / {} saturated), served {}, shed {}, \
             dropped {}, in flight {}, queue high-water {}",
            self.offered,
            self.rejected_full,
            self.rejected_saturated,
            self.served,
            self.shed_events,
            self.dropped,
            self.in_flight,
            self.queue_high_water,
        );
        out
    }
}

/// The long-running cycle-driven service loop. See the module docs.
pub struct ServiceLoop {
    cfg: ServiceConfig,
    /// What crosses a cycle boundary: every shipped schedule's occupancy.
    book: CommittedBook,
    /// The intake queue, sorted by [`ticket_key`] (oldest deadline
    /// first). A sorted `Vec` keeps drains a cheap prefix split and
    /// inserts deterministic.
    queue: Vec<Ticket>,
    /// Backoff parking lot: `(eligible_cycle, ticket)`, sorted by
    /// `(eligible_cycle, ticket_key)`.
    pending: Vec<(usize, Ticket)>,
    budget: BudgetModel,
    cycle: usize,
    /// The topology's user count: intake refuses any user at or past it.
    users: usize,
    // Intake counters since the previous cycle ran.
    offered: usize,
    rejected_full: usize,
    queue_high_water: usize,
    backoff_histogram: Vec<usize>,
    cycles: Vec<ServiceCycleStats>,
}

impl ServiceLoop {
    /// Open a service loop over `topo`. Fails when the configured fault
    /// plan does not validate against the topology, or when the cycle
    /// horizon or the deadline budget is not a positive, finite number.
    pub fn new(topo: &Topology, cfg: ServiceConfig) -> Result<Self, ServiceError> {
        cfg.faults.validate(topo)?;
        if !(cfg.horizon.is_finite() && cfg.horizon > 0.0) {
            return Err(ServiceError::Horizon(cfg.horizon));
        }
        if let Some(b) = cfg.budget_ns.filter(|b| !(b.is_finite() && *b > 0.0)) {
            return Err(ServiceError::Budget(b));
        }
        Ok(Self {
            cfg,
            book: CommittedBook::new(topo),
            queue: Vec::new(),
            pending: Vec::new(),
            budget: BudgetModel::default(),
            cycle: 0,
            users: topo.user_count(),
            offered: 0,
            rejected_full: 0,
            queue_high_water: 0,
            backoff_histogram: Vec::new(),
            cycles: Vec::new(),
        })
    }

    /// The committed-occupancy book carried across cycles.
    pub fn book(&self) -> &CommittedBook {
        &self.book
    }

    /// Current intake-queue depth.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Offer one arriving request to the intake queue. Rejection is
    /// typed backpressure: the request was not enqueued, and the
    /// rejection is recorded in the next cycle's stats. A start that is
    /// not finite, or a user the topology does not have, is refused
    /// before the offer is counted, so the accounting never sees it.
    pub fn offer(&mut self, r: Request) -> Result<(), IntakeError> {
        if !r.start.is_finite() {
            return Err(IntakeError::NonFiniteStart { start: r.start });
        }
        if r.user.index() >= self.users {
            return Err(IntakeError::UnknownUser { user: r.user });
        }
        self.offered += 1;
        if let Some(bound) = self.cfg.queue_bound {
            if self.queue.len() >= bound {
                self.rejected_full += 1;
                return Err(IntakeError::QueueFull { bound });
            }
        }
        self.enqueue(Ticket { request: r, original: r, attempts: 0 });
        Ok(())
    }

    /// Sorted insert preserving the oldest-deadline-first order. A ticket
    /// keyed at or past the tail (every offer of a trace in arrival order)
    /// goes where the search would put it, at the end, without one.
    fn enqueue(&mut self, t: Ticket) {
        let key = ticket_key(&t);
        if self.queue.last().is_none_or(|q| ticket_key(q) <= key) {
            self.queue.push(t);
        } else {
            let at = self.queue.partition_point(|q| ticket_key(q) <= key);
            self.queue.insert(at, t);
        }
        self.queue_high_water = self.queue_high_water.max(self.queue.len());
    }

    /// Give a failed ticket its next life: count the attempt, drop it
    /// permanently past the policy's limit (returning the dropped
    /// original so the cycle outcome can report it), otherwise add it to
    /// `parked` for `now + backoff` cycles with its start shifted into
    /// that window; [`ServiceLoop::park`] moves `parked` into the lot.
    fn defer_or_drop(
        &mut self,
        mut t: Ticket,
        now: usize,
        stats: &mut ServiceCycleStats,
        parked: &mut Vec<(usize, Ticket)>,
    ) -> Option<Request> {
        t.attempts += 1;
        if t.attempts > self.cfg.backoff.drop_after {
            stats.dropped += 1;
            return Some(t.original);
        }
        let eligible = now + self.cfg.backoff.delay(t.attempts);
        let slot = t.original.start.rem_euclid(self.cfg.horizon);
        t.request.start = eligible as f64 * self.cfg.horizon + slot;
        let idx = t.attempts as usize - 1;
        if self.backoff_histogram.len() <= idx {
            self.backoff_histogram.resize(idx + 1, 0);
        }
        self.backoff_histogram[idx] += 1;
        stats.deferred += 1;
        parked.push((eligible, t));
        None
    }

    /// Merge a batch of parkings into the lot in one pass: each lands
    /// behind the parkings already there with its key, in batch order
    /// among its own — where one sorted insert each would put it.
    fn park(&mut self, mut parked: Vec<(usize, Ticket)>) {
        parked.sort_by_key(parking_key);
        merge_behind(&mut self.pending, parked, parking_key);
    }

    /// Step 1 of cycle `k`: move the parkings due by `k` back into the
    /// queue, returning the originals this dropped. The bound still
    /// applies: the queue only grows here, so the first `bound − len`
    /// released tickets enter — merged in behind equal keys, as
    /// [`ServiceLoop::enqueue`] would put them — and every later one
    /// bounces off a full queue, one more failed attempt each.
    fn release(&mut self, k: usize, stats: &mut ServiceCycleStats) -> Vec<Request> {
        let due = self.pending.partition_point(|(e, _)| *e <= k);
        let mut released: Vec<Ticket> = self.pending.drain(..due).map(|(_, t)| t).collect();
        let room =
            self.cfg.queue_bound.map_or(released.len(), |b| b.saturating_sub(self.queue.len()));
        let bounced = released.split_off(room.min(released.len()));
        let mut dropped = Vec::new();
        let mut parked = Vec::new();
        for t in bounced {
            dropped.extend(self.defer_or_drop(t, k + 1, stats, &mut parked));
        }
        self.park(parked);
        // A parking's start was re-stamped into its eligible window, so
        // the due ones leave the lot in queue order already and this
        // stable sort finds one run; it keeps the merge exact regardless.
        released.sort_by_key(ticket_key);
        merge_behind(&mut self.queue, released, ticket_key);
        self.queue_high_water = self.queue_high_water.max(self.queue.len());
        dropped
    }

    /// Run one scheduling cycle: release due backoff parkings, drain the
    /// window's batch, pick the ladder rung, solve over the book, repair
    /// the solve's state against the faults its schedule runs into, commit
    /// what ships to the book, and account everything.
    ///
    /// Runs on the calling thread: `_mode` is accepted and ignored, kept
    /// only because the frozen benchmark adapter passes one (drop with
    /// benchmark revision 2, like the always-zero [`WarmStats`] fields).
    pub fn run_cycle(&mut self, ctx: &SchedCtx<'_>, _mode: ExecMode) -> ServiceCycleOutcome {
        let k = self.cycle;
        let t0 = k as f64 * self.cfg.horizon;
        let window_end = (k + 1) as f64 * self.cfg.horizon;
        ctx.recorder.begin_cycle(k as u64, t0);
        let mut stats = ServiceCycleStats {
            cycle: k,
            offered: self.offered,
            rejected_full: self.rejected_full,
            ..ServiceCycleStats::default()
        };
        self.offered = 0;
        self.rejected_full = 0;

        // 1. Release backoff parkings that became eligible.
        let mut dropped_now = self.release(k, &mut stats);

        // 2. Drain this window's batch (starts before the window end).
        //    A ticket for a video outside the catalog leaves here: intake
        //    could not tell, and nothing past this point could place it.
        let cut = self.queue.partition_point(|t| t.request.start < window_end);
        let mut kept: Vec<Ticket> = self.queue.drain(..cut).collect();
        let titles = ctx.catalog.len();
        if kept.iter().any(|t| t.request.video.index() >= titles) {
            kept.retain(|t| t.request.video.index() < titles);
            stats.rejected_unknown = cut - kept.len();
        }
        stats.admitted = kept.len();
        stats.queue_depth = self.queue.len();
        ctx.recorder.event("intake", |e| {
            e.u64("offered", stats.offered as u64)
                .u64("rejected_full", stats.rejected_full as u64)
                .u64("rejected_saturated", stats.rejected_saturated as u64)
                .u64("admitted", stats.admitted as u64)
                .u64("queue_depth", stats.queue_depth as u64)
                .u64("pending_backoff", self.pending.len() as u64);
        });

        // 3. Pick the ladder rung from the simulated-time budget model.
        let (rung, keep) = self.budget.pick(kept.len(), self.cfg.budget_ns);
        stats.rung = rung;
        ctx.recorder.event("rung", |e| {
            let [full, greedy] = self.budget.unit_ns();
            e.str("rung", rung.label())
                .u64("batch", stats.admitted as u64)
                .u64("keep", keep as u64)
                .f64("predicted_ns", self.budget.predict(rung, keep))
                .f64("budget_ns", self.cfg.budget_ns.unwrap_or(f64::INFINITY))
                .f64("ema_full_ns", full)
                .f64("ema_greedy_ns", greedy);
        });

        // 4. Heat-ranked shedding (`shed_mask`); the shed tickets enter
        //    the lot together.
        let mut shed_now: Vec<Request> = Vec::new();
        if keep < kept.len() {
            let mut parked = Vec::new();
            let shed = shed_mask(&kept, keep);
            let mut solved = Vec::with_capacity(keep);
            for (t, shed) in kept.into_iter().zip(shed) {
                if shed {
                    stats.shed += 1;
                    shed_now.push(t.request);
                    dropped_now.extend(self.defer_or_drop(t, k, &mut stats, &mut parked));
                } else {
                    solved.push(t);
                }
            }
            self.park(parked);
            kept = solved;
        }

        // 5. Solve on the chosen rung over the book, less what drained
        //    before the window: the sharded IVSP → SORP pipeline on `Full`,
        //    one rejective-greedy pass on the two lower rungs. An empty
        //    batch still opens the cycle (eviction + stats) so idle ticks
        //    stay visible. The tickets
        //    go into batch order first, so that batch entry `i` is
        //    ticket `i`; of tickets holding one request, the most
        //    recently enqueued takes the first slot.
        let kept = into_batch_order(kept, ctx.catalog.len());
        let batch = RequestBatch::new(kept.iter().map(|t| t.request).collect());
        let solve_started = std::time::Instant::now();
        let committed_evicted = self.book.evict_expired(t0);
        let mut warm = WarmStats {
            committed_evicted,
            committed_active: self.book.active(),
            spillover_bytes: self.book.spillover_at(t0),
            ..WarmStats::default()
        };
        // The copies the last commit held for the videos this batch asks:
        // every greedy run of such a video starts from them.
        let held = self.book.held_for(&batch);
        let mut state = (!batch.is_empty()).then(|| {
            let book = self.book.ledger();
            let shard = &self.cfg.shard;
            let solve = match rung {
                Rung::Full | Rung::ReducedTrials => solve_over(ctx, &batch, shard, book, &held),
                Rung::GreedyOnly | Rung::Shed => {
                    place_over(ctx, &batch, shard.sorp.policy, book, &held)
                }
            };
            warm.trials_hit = solve.state.trials_cached;
            warm.shards_used = solve.shards;
            solve.state
        });
        // Reporting only — no decision ever reads this (the ladder runs
        // on simulated time), so determinism is preserved.
        warm.solve_ns = solve_started.elapsed().as_nanos() as u64;

        // 6. Feed the budget model with the solve's simulated time.
        let (iterations, victims, fallbacks) = state
            .as_ref()
            .map_or((0, 0, 0), |s| (s.iterations, s.victims.len(), s.forced_fallbacks));
        let sim_ns = BudgetModel::simulated_ns(batch.len(), iterations, victims, fallbacks);
        stats.sim_ns = sim_ns;
        stats.over_budget = self.cfg.budget_ns.is_some_and(|b| sim_ns as f64 > b);
        self.budget.observe(rung, batch.len(), sim_ns);
        ctx.recorder.event("budget", |e| {
            let [full, greedy] = self.budget.unit_ns();
            e.u64("sim_ns", sim_ns)
                .bool("over_budget", stats.over_budget)
                .f64("ema_full_ns", full)
                .f64("ema_greedy_ns", greedy);
        });

        // 7. Repair the state against every fault its schedule runs into —
        //    those overlapping `[t0, reach)`, where `reach` is the end of
        //    the schedule's last stream or stored residency — on its own
        //    ledger (the book plus this cycle's schedule); it serves every
        //    ticket, a cut-off one late.
        let mut served: Vec<Request> = batch.iter().copied().collect();
        if let Some(state) = state.as_mut().filter(|_| !self.cfg.faults.is_empty()) {
            let reach = schedule_reach(ctx, state.priced.schedule());
            let cycle_faults: Vec<Fault> = self
                .cfg
                .faults
                .faults()
                .iter()
                .filter(|f| f.overlaps(t0, reach))
                .copied()
                .collect();
            if !cycle_faults.is_empty() {
                // `new` validated the whole plan against this topology, and
                // validity is per fault: the sub-plan needs no second look.
                let sub = FaultPlan::new(cycle_faults);
                let repair = repair_state(ctx, state, &sub, self.cfg.shard.sorp.policy);
                stats.delayed = repair.delayed.len();
                served = adjusted_requests(&repair.delayed, &served);
            }
        }

        // 8. Finish the state and commit what ships — the one place a
        //    residency enters the book, which `overflow_free` speaks for.
        //    The commit holds some copies whole until the next one; the
        //    holds ship in this schedule and are charged to this cycle.
        let (mut schedule, mut cost, initial_cost, overflow_free, solved) =
            state.map_or((Schedule::new(), 0.0, 0.0, true, None), |state| {
                let (out, solved) = state.into_outcome(ctx);
                (out.schedule, out.cost, out.initial_cost, out.overflow_free, Some(solved))
            });
        let inherited: Vec<Residency> = schedule
            .residencies()
            .filter(|r| r.carried)
            .filter_map(|r| held.at(r.video, r.loc).cloned())
            .collect();
        let hold = HoldUntil { until: window_end, faults: &self.cfg.faults };
        let holding = self.book.absorb_solved(ctx, &mut schedule, solved, Some(hold));
        cost += holding.cost;
        debug_assert!(
            detect_overflows(ctx.topo, self.book.ledger()).is_empty(),
            "cycle {k} over-committed the book"
        );
        debug_assert!(
            (cost - ctx.schedule_cost(&schedule)).abs() <= 1e-9 * cost.abs().max(1.0),
            "cycle {k}: the held schedule's Ψ is not its cost"
        );
        warm.held = holding.copies;
        warm.held_used = inherited.len();
        warm.held_bytes = holding.bytes;
        warm.record(&ctx.recorder);

        // A request is late when repair delayed it or when backoff moved
        // it into a window after its original reservation. `kept` holds
        // no ladder-shed ticket.
        stats.deadline_misses = stats.delayed + kept.iter().filter(|t| t.attempts > 0).count();
        stats.served = served.len();

        ctx.recorder.event("cycle_end", |e| {
            e.str("rung", stats.rung.label())
                .u64("offered", stats.offered as u64)
                .u64("rejected_full", stats.rejected_full as u64)
                .u64("rejected_saturated", stats.rejected_saturated as u64)
                .u64("admitted", stats.admitted as u64)
                .u64("served", stats.served as u64)
                .u64("shed", stats.shed as u64)
                .u64("deferred", stats.deferred as u64)
                .u64("dropped", stats.dropped as u64)
                .u64("delayed", stats.delayed as u64)
                .u64("deadline_misses", stats.deadline_misses as u64)
                .u64("queue_depth", stats.queue_depth as u64)
                .u64("sim_ns", stats.sim_ns)
                .bool("over_budget", stats.over_budget)
                .f64("cost", cost)
                .f64("initial_cost", initial_cost)
                .u64("victims", victims as u64)
                .bool("overflow_free", overflow_free);
        });

        self.cycle += 1;
        self.cycles.push(stats.clone());
        ServiceCycleOutcome {
            stats,
            schedule,
            cost,
            initial_cost,
            victims,
            overflow_free,
            warm,
            inherited,
            served,
            served_originals: kept.iter().map(|t| t.original).collect(),
            shed_now,
            dropped_now,
        }
    }

    /// Close the loop and aggregate the [`ServiceReport`].
    pub fn finish(self) -> ServiceReport {
        let sum = |f: fn(&ServiceCycleStats) -> usize| self.cycles.iter().map(f).sum::<usize>();
        ServiceReport {
            offered: sum(|c| c.offered) + self.offered,
            rejected_full: sum(|c| c.rejected_full) + self.rejected_full,
            rejected_saturated: sum(|c| c.rejected_saturated),
            rejected_unknown: sum(|c| c.rejected_unknown),
            served: sum(|c| c.served),
            shed_events: sum(|c| c.shed),
            deferred_events: sum(|c| c.deferred),
            dropped: sum(|c| c.dropped),
            deadline_misses: sum(|c| c.deadline_misses),
            queue_high_water: self.queue_high_water,
            backoff_histogram: self.backoff_histogram,
            in_flight: self.queue.len() + self.pending.len(),
            cycles: self.cycles,
        }
    }
}

/// Drive a [`ServiceLoop`] over an arrival trace for `n_cycles` cycles:
/// before cycle `k` runs, every arrival with `at ≤ k·horizon` is offered
/// to intake (rejections are recorded, not returned). `arrivals` must be
/// sorted by arrival time, as [`vod_workload::generate_arrivals`]
/// produces them; an arrival behind its predecessor would be offered one
/// or more cycles late, so an unsorted trace is refused with
/// [`ServiceError::UnsortedArrivals`] before any cycle runs.
pub fn service_run(
    ctx: &SchedCtx<'_>,
    arrivals: &[Arrival],
    cfg: &ServiceConfig,
    n_cycles: usize,
) -> Result<(Vec<ServiceCycleOutcome>, ServiceReport), ServiceError> {
    let unsorted =
        arrivals.windows(2).position(|w| w[0].at.partial_cmp(&w[1].at).is_none_or(Ordering::is_gt));
    if let Some(i) = unsorted {
        return Err(ServiceError::UnsortedArrivals { index: i + 1 });
    }
    let mut svc = ServiceLoop::new(ctx.topo, cfg.clone())?;
    let mut next = 0usize;
    let mut outcomes = Vec::with_capacity(n_cycles);
    for k in 0..n_cycles {
        let t0 = k as f64 * cfg.horizon;
        while next < arrivals.len() && arrivals[next].at <= t0 {
            // Backpressure is accounted in the cycle stats; the driver
            // has no caller to propagate it to.
            let _ = svc.offer(arrivals[next].request);
            next += 1;
        }
        outcomes.push(svc.run_cycle(ctx, ExecMode::Sequential));
    }
    Ok((outcomes, svc.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use vod_cost_model::CostModel;
    use vod_topology::builders::{paper_fig4, PaperFig4Config};
    use vod_workload::{generate_arrivals, generate_catalog, ArrivalConfig, CatalogConfig};

    const H: Secs = 24.0 * 3_600.0;

    fn world(seed: u64) -> (vod_topology::Topology, vod_cost_model::Catalog) {
        let topo = paper_fig4(&PaperFig4Config { capacity_gb: 5.0, ..Default::default() });
        let catalog = generate_catalog(&CatalogConfig::small(40), seed ^ 0xC0FFEE);
        (topo, catalog)
    }

    fn arrivals_for(
        topo: &vod_topology::Topology,
        catalog: &vod_cost_model::Catalog,
        cycles: usize,
        seed: u64,
    ) -> Vec<Arrival> {
        generate_arrivals(
            topo,
            catalog,
            &ArrivalConfig { cycles, ..ArrivalConfig::default() },
            seed,
        )
    }

    #[test]
    fn budget_pick_walks_the_ladder_monotonically() {
        let m = BudgetModel::default();
        let n = 1_000;
        assert_eq!(m.pick(n, None), (Rung::Full, n));
        let full = m.predict(Rung::Full, n);
        let greedy = m.predict(Rung::GreedyOnly, n);
        assert_eq!(m.pick(n, Some(full)), (Rung::Full, n));
        assert_eq!(m.pick(n, Some(full - 1.0)), (Rung::GreedyOnly, n));
        assert_eq!(m.pick(n, Some(greedy)), (Rung::GreedyOnly, n));
        let (rung, keep) = m.pick(n, Some(greedy / 2.0));
        assert_eq!(rung, Rung::Shed);
        assert!(keep < n, "shed rung must solve strictly fewer requests");
        // Empty cycles never shed.
        assert_eq!(m.pick(0, Some(1.0)), (Rung::Full, 0));
    }

    #[test]
    fn budget_observe_adapts_the_unit_cost() {
        let mut m = BudgetModel::default();
        let before = m.predict(Rung::Full, 100);
        m.observe(Rung::Full, 100, (before * 3.0) as u64);
        assert!(m.predict(Rung::Full, 100) > before);
        // Degenerate observations are ignored.
        let now = m.predict(Rung::Full, 100);
        m.observe(Rung::Full, 0, 1);
        assert_eq!(m.predict(Rung::Full, 100), now);
    }

    #[test]
    fn backoff_delay_is_capped_exponential() {
        let p = BackoffPolicy::default();
        assert_eq!(p.delay(1), 1);
        assert_eq!(p.delay(2), 2);
        assert_eq!(p.delay(3), 4);
        assert_eq!(p.delay(4), 8);
        assert_eq!(p.delay(5), 8, "delay must cap at max_cycles");
        assert_eq!(p.delay(30), 8, "huge attempt counts must not overflow");
        // From attempt 65 on an unclamped `1 << (attempt − 1)` overflows
        // the shift; the exponent clamps at 16 instead.
        assert_eq!(p.delay(80), 8);
        assert_eq!(p.delay(u32::MAX), 8);
        let uncapped = BackoffPolicy { max_cycles: usize::MAX, ..p };
        assert_eq!(uncapped.delay(80), 1 << 16);
        assert_eq!(uncapped.delay(u32::MAX), 1 << 16);
    }

    #[test]
    fn queue_bound_produces_typed_backpressure() {
        let (topo, catalog) = world(1);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let cfg = ServiceConfig { queue_bound: Some(3), ..ServiceConfig::default() };
        let mut svc = ServiceLoop::new(&topo, cfg).expect("empty plan validates");
        let arrivals = arrivals_for(&topo, &catalog, 1, 11);
        let mut rejected = 0;
        for a in &arrivals {
            match svc.offer(a.request) {
                Ok(()) => {}
                Err(IntakeError::QueueFull { bound }) => {
                    assert_eq!(bound, 3);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected intake error {e}"),
            }
        }
        assert_eq!(svc.queue_len(), 3);
        assert_eq!(rejected, arrivals.len() - 3);
        let out = svc.run_cycle(&ctx, ExecMode::Sequential);
        assert_eq!(out.stats.admitted, 3);
        assert_eq!(out.stats.rejected_full, rejected);
        let report = svc.finish();
        assert_eq!(report.queue_high_water, 3);
        assert_eq!(report.conservation_error(), 0);
    }

    /// An arrival behind its predecessor would be offered a cycle late;
    /// `service_run` names it instead of running any cycle.
    #[test]
    fn an_unsorted_trace_is_a_typed_error() {
        let (topo, catalog) = world(4);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let mut arrivals = arrivals_for(&topo, &catalog, 2, 4);
        let late = arrivals.iter().position(|a| a.at > 0.0).expect("cycle 1 arrives after 0");
        arrivals.swap(late - 1, late);
        let err =
            service_run(&ctx, &arrivals, &ServiceConfig::default(), 2).map(|_| ()).unwrap_err();
        assert_eq!(err, ServiceError::UnsortedArrivals { index: late });
        assert!(err.to_string().contains(&format!("arrival {late} arrives before")), "{err}");
        arrivals.swap(late - 1, late);
        assert!(service_run(&ctx, &arrivals, &ServiceConfig::default(), 2).is_ok());
    }

    #[test]
    fn idle_cycles_still_report() {
        let (topo, catalog) = world(3);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let (outcomes, report) =
            service_run(&ctx, &[], &ServiceConfig::default(), 3).expect("empty plan validates");
        assert_eq!(outcomes.len(), 3);
        assert_eq!(report.cycles.len(), 3);
        for o in &outcomes {
            assert_eq!(o.stats.admitted, 0);
            assert_eq!(o.cost, 0.0);
            assert!(o.overflow_free);
        }
        assert_eq!(report.conservation_error(), 0);
    }

    #[test]
    fn oracle_run_serves_every_arrival() {
        let (topo, catalog) = world(4);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let arrivals = arrivals_for(&topo, &catalog, 3, 7);
        let (outcomes, report) = service_run(&ctx, &arrivals, &ServiceConfig::default(), 3)
            .expect("empty plan validates");
        assert_eq!(report.served, arrivals.len());
        assert_eq!(report.shed_events, 0);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.conservation_error(), 0);
        for o in &outcomes {
            assert_eq!(o.stats.rung, Rung::Full);
            assert!(o.overflow_free);
            assert_eq!(o.schedule.delivery_count(), o.served.len());
        }
        let text = report.render();
        assert!(text.contains("full"));
        assert_eq!(
            text.lines().filter(|l| l.trim_start().starts_with(char::is_numeric)).count(),
            3
        );
    }

    #[test]
    fn tiny_budget_sheds_by_heat_rank_and_backs_off() {
        let (topo, catalog) = world(5);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let arrivals = arrivals_for(&topo, &catalog, 2, 9);
        // Budget fits only a handful of greedy-only requests per cycle.
        let cfg = ServiceConfig {
            budget_ns: Some(5.0 * 4_200.0),
            backoff: BackoffPolicy { drop_after: 1, ..BackoffPolicy::default() },
            ..ServiceConfig::default()
        };
        let (outcomes, report) = service_run(&ctx, &arrivals, &cfg, 4).expect("valid");
        assert!(outcomes.iter().any(|o| o.stats.rung == Rung::Shed));
        assert!(report.shed_events > 0);
        assert!(report.dropped > 0, "drop-after-1 must drop re-shed requests");
        assert_eq!(report.conservation_error(), 0);
        // Shed disposition: every shed event became a deferral or a drop.
        assert_eq!(report.shed_events, report.deferred_events + report.dropped);
        // Backoff histogram counts exactly the deferred events.
        assert_eq!(report.backoff_histogram.iter().sum::<usize>(), report.deferred_events);
    }

    #[test]
    fn dropped_requests_never_resurrect() {
        let (topo, catalog) = world(6);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let arrivals = arrivals_for(&topo, &catalog, 1, 13);
        let cfg = ServiceConfig {
            budget_ns: Some(2.0 * 4_200.0),
            backoff: BackoffPolicy { drop_after: 1, base_cycles: 1, max_cycles: 2 },
            ..ServiceConfig::default()
        };
        let (outcomes, report) = service_run(&ctx, &arrivals, &cfg, 6).expect("valid");
        assert!(report.dropped > 0);
        // Once a cycle drops a request, no later cycle may serve one
        // descending from the same original reservation.
        let mut dropped_so_far = 0usize;
        for o in &outcomes {
            if dropped_so_far > 0 {
                // Served keys can never exceed what is still alive.
                assert!(o.served.len() + dropped_so_far <= arrivals.len());
            }
            dropped_so_far += o.stats.dropped;
        }
        assert_eq!(report.conservation_error(), 0);
    }

    #[test]
    fn fault_window_triggers_inline_repair() {
        let (topo, catalog) = world(7);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let arrivals = arrivals_for(&topo, &catalog, 2, 15);
        // Outage of a storage across the whole first window.
        let victim = topo.storages().next().expect("a storage exists");
        let cfg = ServiceConfig {
            faults: FaultPlan::new(vec![Fault::NodeOutage { node: victim, from: 0.0, until: H }]),
            ..ServiceConfig::default()
        };
        let (outcomes, report) = service_run(&ctx, &arrivals, &cfg, 2).expect("valid plan");
        // The repaired schedule must not cache at the down node in the
        // outage window.
        let space = model.space_model();
        for r in outcomes[0].schedule.residencies() {
            let p = r.profile_with(catalog.get(r.video), space);
            assert!(
                !(r.loc == victim && p.peak() > 0.0 && p.start < H),
                "repair left data on the down node"
            );
        }
        assert_eq!(report.conservation_error(), 0);
    }

    /// Repair's line topology (VW—IS1—IS2, IS2's users behind the IS1—IS2
    /// bridge, every request streamed from VW): a request to IS2 reserved
    /// half a playback before the window ends streams across the bridge
    /// past the window end, when the bridge fails. Repair must see that
    /// failure too: the request is delivered when the bridge clears, as a
    /// deadline miss, and the cycle replays clean under the plan.
    #[test]
    fn a_stream_running_past_the_window_into_a_failure_is_delivered_late() {
        use crate::repair::tests::{bridge_failure, Line, IS2};
        let line = Line::new();
        let ctx = SchedCtx::new(&line.topo, &line.model, &line.catalog);
        let p = line.playback();
        let req = line.request(IS2, H - p / 2.0);
        let cleared = H + 2.0 * p;
        let plan = FaultPlan::new(vec![bridge_failure(H, cleared)]);
        let cfg = ServiceConfig { faults: plan.clone(), ..ServiceConfig::default() };
        let mut svc = ServiceLoop::new(&line.topo, cfg).expect("the plan validates");
        svc.offer(req).expect("an empty queue takes the request");
        let out = svc.run_cycle(&ctx, ExecMode::Sequential);

        let batch = RequestBatch::new(out.served.clone());
        let report = vod_simulator::simulate_with_faults(
            &line.topo,
            &line.catalog,
            &line.model,
            &out.schedule,
            &plan,
            &[],
            &vod_simulator::SimOptions::strict(&batch),
        )
        .expect("the plan validates");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(out.served, vec![Request { start: cleared, ..req }]);
        assert_eq!((out.stats.delayed, out.stats.deadline_misses), (1, 1));
    }

    /// Starts that tie, differ in the last bit, or differ only in sign.
    const STARTS: [f64; 8] = [
        0.0,
        -0.0,
        100.0,
        f64::from_bits(100f64.to_bits() + 1),
        -5.0,
        7.5,
        H,
        f64::from_bits(H.to_bits() + 1),
    ];

    fn ticket(user: u32, video: u32, start: f64) -> Ticket {
        let r = Request {
            user: vod_topology::UserId(user),
            video: vod_cost_model::VideoId(video),
            start,
        };
        Ticket { request: r, original: r, attempts: 0 }
    }

    /// The ladder's ranking as it was before [`shed_mask`], verbatim: a
    /// stable sort under a `HashMap`-indexed comparator, and a `HashSet`
    /// of the shed positions.
    fn shed_mask_by_comparator(kept: &[Ticket], keep: usize) -> Vec<bool> {
        use std::collections::{HashMap, HashSet};
        let mut heat: HashMap<u32, usize> = HashMap::new();
        for t in kept {
            *heat.entry(t.request.video.0).or_insert(0) += 1;
        }
        let mut order: Vec<usize> = (0..kept.len()).collect();
        order.sort_by(|&a, &b| {
            let (ra, rb) = (&kept[a].request, &kept[b].request);
            (heat[&ra.video.0], ra.video.0, ra.user.0)
                .cmp(&(heat[&rb.video.0], rb.video.0, rb.user.0))
                .then(ra.start.total_cmp(&rb.start))
        });
        let shed_idx: HashSet<usize> = order[..kept.len() - keep].iter().copied().collect();
        (0..kept.len()).map(|i| shed_idx.contains(&i)).collect()
    }

    /// How `run_cycle` put the drained tickets into batch order before
    /// [`into_batch_order`], verbatim.
    fn batch_order_by_comparator(mut kept: Vec<Ticket>) -> Vec<Ticket> {
        kept.reverse();
        kept.sort_by(|a, b| a.request.batch_order(&b.request));
        kept
    }

    /// What the one-pass hand-offs replaced: every released, bounced or
    /// shed ticket placed with its own sorted insert.
    fn release_per_ticket(
        svc: &mut ServiceLoop,
        k: usize,
        stats: &mut ServiceCycleStats,
    ) -> Vec<Request> {
        let mut dropped = Vec::new();
        let due = svc.pending.partition_point(|(e, _)| *e <= k);
        let released: Vec<Ticket> = svc.pending.drain(..due).map(|(_, t)| t).collect();
        for t in released {
            if svc.cfg.queue_bound.is_some_and(|b| svc.queue.len() >= b) {
                dropped.extend(defer_or_drop_per_ticket(svc, t, k + 1, stats));
            } else {
                svc.enqueue(t);
            }
        }
        dropped
    }

    fn defer_or_drop_per_ticket(
        svc: &mut ServiceLoop,
        t: Ticket,
        now: usize,
        stats: &mut ServiceCycleStats,
    ) -> Option<Request> {
        let mut parked = Vec::new();
        let dropped = svc.defer_or_drop(t, now, stats, &mut parked);
        for p in parked {
            let at = svc.pending.partition_point(|q| parking_key(q) <= parking_key(&p));
            svc.pending.insert(at, p);
        }
        dropped
    }

    #[test]
    fn total_order_bits_orders_like_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::from_bits(1),
            1.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs.iter().chain(&STARTS) {
            for b in xs.iter().chain(&STARTS) {
                assert_eq!(
                    total_order_bits(*a).cmp(&total_order_bits(*b)),
                    a.total_cmp(b),
                    "{a} vs {b}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 400, ..Default::default() })]

        /// Over any batch size and any observed `Full` units, the ladder
        /// has three rungs: `pick` never returns `ReducedTrials`, an
        /// infinite budget is `(Full, n)`, and as the budget falls the
        /// rung only degrades (Full → GreedyOnly → Shed) and `keep` only
        /// shrinks.
        #[test]
        fn budget_pick_degrades_monotonically_over_three_rungs(
            n in 0usize..5_000,
            budgets in vec(1.0f64..1e8, 1..24),
            observed in vec(1_000u64..40_000, 0..6),
        ) {
            let mut m = BudgetModel::default();
            for unit in observed {
                m.observe(Rung::Full, 100, unit * 100);
            }
            prop_assert_eq!(m.pick(n, None), (Rung::Full, n));
            let mut budgets = budgets;
            budgets.sort_by(|a, b| b.total_cmp(a));
            let level = |rung: Rung| match rung {
                Rung::Full | Rung::ReducedTrials => 0,
                Rung::GreedyOnly => 1,
                Rung::Shed => 2,
            };
            let mut last = (Rung::Full, n);
            for b in budgets {
                let (rung, keep) = m.pick(n, Some(b));
                prop_assert!(!matches!(rung, Rung::ReducedTrials), "budget {} picked it", b);
                prop_assert!(level(rung) >= level(last.0), "{:?} after {:?}", rung, last.0);
                prop_assert!(keep <= last.1, "keep {} after {}", keep, last.1);
                last = (rung, keep);
            }
        }

        /// [`shed_mask`] sheds exactly the tickets the comparator sort
        /// did — over batches with twins, equal heats, a single video,
        /// `keep` = 0 and `keep` = n − 1, and starts a bit apart.
        #[test]
        fn shed_order_matches_the_comparator_sort(
            batch in vec((0u32..3, 0u32..4, 0usize..STARTS.len()), 1..48),
            single_video in any::<bool>(),
            keep_pick in 0usize..4,
            frac in 0usize..1_000,
        ) {
            let tickets: Vec<Ticket> = batch
                .iter()
                .map(|&(user, video, s)| ticket(user, if single_video { 7 } else { video }, STARTS[s]))
                .collect();
            let n = tickets.len();
            let keep = match keep_pick {
                0 => 0,
                1 => n - 1,
                _ => frac * n / 1_000,
            };
            let want = shed_mask_by_comparator(&tickets, keep);
            prop_assert_eq!(shed_mask(&tickets, keep), want);
            prop_assert_eq!(shed_mask(&tickets, n), vec![false; n]);
        }

        /// [`into_batch_order`] leaves every ticket where `reverse` and a
        /// stable sort by `batch_order` did: identical requests told apart
        /// by their originals, starts that tie, differ in the last bit or
        /// only in sign, in queue order and in arbitrary order.
        #[test]
        fn batch_order_matches_reverse_and_stable_sort(
            batch in vec((0u32..3, 0u32..4, 0usize..STARTS.len()), 0..48),
            queued in any::<bool>(),
        ) {
            let mut tickets: Vec<Ticket> = batch
                .iter()
                .enumerate()
                .map(|(i, &(user, video, s))| {
                    let mut t = ticket(user, video, STARTS[s]);
                    t.original.start = i as f64;
                    t
                })
                .collect();
            if queued {
                tickets.sort_by_key(ticket_key);
            }
            let want = batch_order_by_comparator(tickets.clone());
            prop_assert_eq!(into_batch_order(tickets, 4), want);
        }

        /// The release merge and the parking merge leave the queue, the
        /// lot, the high-water mark, the counts and the histogram exactly
        /// as one sorted insert per ticket did — including when the
        /// queue bound is hit mid-release.
        #[test]
        fn release_and_park_merges_match_per_ticket_inserts(
            queued in vec((0u32..2, 0u32..2, 0usize..3, 0u32..3), 0..12),
            parked in vec((0u32..2, 0u32..2, 0usize..3, 0u32..3, 0usize..4), 0..16),
            shed in vec((0u32..2, 0u32..2, 0usize..3, 0u32..3), 0..12),
            room in 0usize..18,
            bounded in any::<bool>(),
        ) {
            const K: usize = 5;
            // A ticket of cycle `cycle`: slot `s` of that window, an
            // original reservation `attempts` windows earlier.
            let at = |cycle: usize, (user, video, s, attempts): (u32, u32, usize, u32)| {
                let mut t = ticket(user, video, cycle as f64 * H + [10.0, 10.0, 20.0][s]);
                t.original.start = t.request.start - f64::from(attempts) * H;
                t.attempts = attempts;
                t
            };
            let cfg = ServiceConfig {
                queue_bound: bounded.then_some(queued.len() + room),
                backoff: BackoffPolicy { base_cycles: 1, max_cycles: 4, drop_after: 2 },
                ..ServiceConfig::default()
            };
            let (topo, _) = world(1);
            let mut merged = ServiceLoop::new(&topo, cfg.clone()).unwrap();
            let mut per_ticket = ServiceLoop::new(&topo, cfg).unwrap();
            for svc in [&mut merged, &mut per_ticket] {
                for &q in &queued {
                    svc.enqueue(at(K, q));
                }
                // Due parkings (eligible K − 1 and K) and later ones, all
                // stamped into window K, so the due ones leave the lot
                // out of queue order.
                for &(user, video, s, attempts, e) in &parked {
                    let p = (K - 1 + e, at(K, (user, video, s, attempts)));
                    let i = svc.pending.partition_point(|q| parking_key(q) <= parking_key(&p));
                    svc.pending.insert(i, p);
                }
            }

            let (mut a, mut b) = (ServiceCycleStats::default(), ServiceCycleStats::default());
            let mut dropped_a = merged.release(K, &mut a);
            let mut dropped_b = release_per_ticket(&mut per_ticket, K, &mut b);
            prop_assert_eq!(&merged.queue, &per_ticket.queue);
            prop_assert_eq!(&merged.pending, &per_ticket.pending);

            let mut lot = Vec::new();
            for &s in &shed {
                dropped_a.extend(merged.defer_or_drop(at(K, s), K, &mut a, &mut lot));
                dropped_b.extend(defer_or_drop_per_ticket(&mut per_ticket, at(K, s), K, &mut b));
            }
            merged.park(lot);

            prop_assert_eq!(&merged.queue, &per_ticket.queue);
            prop_assert_eq!(&merged.pending, &per_ticket.pending);
            prop_assert_eq!(merged.queue_high_water, per_ticket.queue_high_water);
            prop_assert_eq!((a.deferred, a.dropped), (b.deferred, b.dropped));
            prop_assert_eq!(dropped_a, dropped_b);
            prop_assert_eq!(&merged.backoff_histogram, &per_ticket.backoff_histogram);
        }

        /// Intake leaves the queue, ticket for ticket, as one
        /// `partition_point` insert per offer did — whether the offers
        /// come in queue order (the append), reversed, shuffled, or hold
        /// identical requests.
        #[test]
        fn intake_matches_per_ticket_inserts(
            offers in vec((0u32..3, 0u32..3, 0usize..STARTS.len(), any::<u32>()), 0..40),
            order in 0usize..3,
        ) {
            let mut tickets: Vec<(Ticket, u32)> = offers
                .iter()
                .map(|&(user, video, s, rank)| (ticket(user, video, STARTS[s]), rank))
                .collect();
            match order {
                0 => tickets.sort_by_key(|(t, _)| ticket_key(t)),
                1 => {
                    tickets.sort_by_key(|(t, _)| ticket_key(t));
                    tickets.reverse();
                }
                _ => tickets.sort_by_key(|&(_, rank)| rank),
            }
            let (topo, _) = world(1);
            let mut svc = ServiceLoop::new(&topo, ServiceConfig::default()).unwrap();
            let mut want: Vec<Ticket> = Vec::new();
            for &(t, _) in &tickets {
                svc.offer(t.request).expect("an unbounded queue admits every finite offer");
                let at = want.partition_point(|q| ticket_key(q) <= ticket_key(&t));
                want.insert(at, t);
            }
            prop_assert_eq!(&svc.queue, &want);
            prop_assert_eq!(svc.queue_high_water, want.len());
        }
    }

    #[test]
    fn invalid_fault_plan_is_a_typed_error() {
        let (topo, _) = world(8);
        let cfg = ServiceConfig {
            faults: FaultPlan::new(vec![Fault::NodeOutage {
                node: topo.warehouse(),
                from: 0.0,
                until: 1.0,
            }]),
            ..ServiceConfig::default()
        };
        let err = ServiceLoop::new(&topo, cfg).map(|_| ()).unwrap_err();
        assert!(
            matches!(err, ServiceError::Faults(FaultError::WarehouseOutage(n)) if n == topo.warehouse())
        );
    }

    #[test]
    fn a_bad_horizon_is_a_typed_error() {
        let (topo, _) = world(8);
        for horizon in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -1.0] {
            let cfg = ServiceConfig { horizon, ..ServiceConfig::default() };
            let err = ServiceLoop::new(&topo, cfg).map(|_| ()).unwrap_err();
            assert!(
                matches!(err, ServiceError::Horizon(h) if h.to_bits() == horizon.to_bits()),
                "horizon {horizon}: {err:?}"
            );
            assert!(err.to_string().contains("horizon"));
        }
        let cfg = ServiceConfig { horizon: H, ..ServiceConfig::default() };
        assert!(ServiceLoop::new(&topo, cfg).is_ok());
    }

    #[test]
    fn a_bad_budget_is_a_typed_error() {
        let (topo, _) = world(8);
        for budget in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -5.0] {
            let cfg = ServiceConfig { budget_ns: Some(budget), ..ServiceConfig::default() };
            let err = ServiceLoop::new(&topo, cfg).map(|_| ()).unwrap_err();
            assert!(
                matches!(err, ServiceError::Budget(b) if b.to_bits() == budget.to_bits()),
                "budget {budget}: {err:?}"
            );
            assert!(err.to_string().contains("budget"));
        }
        for budget_ns in [None, Some(f64::MIN_POSITIVE), Some(f64::MAX)] {
            let cfg = ServiceConfig { budget_ns, ..ServiceConfig::default() };
            assert!(ServiceLoop::new(&topo, cfg).is_ok(), "budget {budget_ns:?}");
        }
    }

    /// A NaN or infinite start is refused before it counts, so nothing is
    /// left in flight forever; a negative or −0.0 start queues ahead of
    /// every positive one and drains with the first window, not after a
    /// later-window ticket the queue had put in front of it.
    #[test]
    fn intake_refuses_non_finite_starts_and_drains_negative_ones() {
        let (topo, catalog) = world(9);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let mut svc = ServiceLoop::new(&topo, ServiceConfig::default()).expect("valid");
        let user = topo.users()[0].id;
        let req = |video, start| Request { user, video: vod_cost_model::VideoId(video), start };
        for start in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = svc.offer(req(0, start)).unwrap_err();
            assert!(
                matches!(err, IntakeError::NonFiniteStart { start: s } if s.to_bits() == start.to_bits()),
                "{err:?}"
            );
            assert!(err.to_string().contains("not finite"));
        }
        let first_window = [req(1, 100.0), req(2, -5.0), req(3, -0.0)];
        for r in first_window.into_iter().chain([req(4, H + 100.0)]) {
            svc.offer(r).expect("finite starts are admitted");
        }
        assert_eq!(svc.queue_len(), 4);

        let c0 = svc.run_cycle(&ctx, ExecMode::Sequential);
        let mut served = c0.served_originals.clone();
        served.sort_by(Request::batch_order);
        assert_eq!(served, first_window);
        assert_eq!(svc.run_cycle(&ctx, ExecMode::Sequential).served, vec![req(4, H + 100.0)]);
        svc.run_cycle(&ctx, ExecMode::Sequential);

        let report = svc.finish();
        assert_eq!((report.offered, report.served, report.in_flight), (4, 4, 0));
        assert_eq!(report.conservation_error(), 0);
    }

    /// A user the topology lacks has no home storage: intake refuses the
    /// request before counting it, instead of queueing it for a cycle that
    /// would index past the user table.
    #[test]
    fn intake_refuses_a_user_the_topology_lacks() {
        let (topo, catalog) = world(10);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let mut svc = ServiceLoop::new(&topo, ServiceConfig::default()).expect("valid");
        let user = vod_topology::UserId(topo.user_count() as u32);
        let r = Request { user, video: vod_cost_model::VideoId(0), start: 100.0 };
        let err = svc.offer(r).unwrap_err();
        assert_eq!(err, IntakeError::UnknownUser { user });
        assert!(err.to_string().contains("does not have"), "{err}");
        assert_eq!(svc.queue_len(), 0);

        let cycle = svc.run_cycle(&ctx, ExecMode::Sequential);
        assert!(cycle.served.is_empty());
        let report = svc.finish();
        assert_eq!((report.offered, report.served, report.in_flight), (0, 0, 0));
    }
}
