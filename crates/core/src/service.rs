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
//!   oldest-deadline-first order, behind a reject-before-enqueue
//!   admission test against the committed occupancy the
//!   [`CommittedBook`] already carries ([`IntakeError`] is the typed
//!   backpressure);
//! * each cycle's drained batch is solved under a **per-cycle deadline
//!   budget** enforced by a degradation ladder ([`Rung`]): full warm
//!   sharded solve → reduced SORP trial budget → greedy-only placement
//!   (`max_iterations = 0`, the deterministic direct-delivery fallback)
//!   → heat-ranked shedding. The rung is chosen by a [`BudgetModel`] —
//!   an EMA over **simulated** nanoseconds derived from the solver's
//!   deterministic work counters — never from the wall clock, so a
//!   run's rung sequence is bit-reproducible across machines and
//!   [`ExecMode`]s;
//! * shed and fault-displaced requests **re-enqueue into later cycles**
//!   with capped exponential backoff and a drop-after-N policy
//!   ([`BackoffPolicy`]); [`vod_faults::FaultPlan`] outages are wired
//!   straight into the loop: a faulted cycle runs the repair pass of
//!   [`crate::repair_schedule`] on the solve's own state, whose ledger
//!   is the book plus this cycle's schedule;
//! * a cycle commits **once**: the schedule it returns, post-repair, is
//!   the only thing the book absorbs, so the book never exceeds a store;
//! * everything is accounted in a [`ServiceReport`]: per-cycle rung,
//!   queue-depth high-water mark, admitted / deferred / shed / dropped
//!   counts, deadline misses, and the backoff histogram, with a
//!   [`ServiceReport::conservation_error`] balance check.
//!
//! ## Oracle configuration
//!
//! With an unbounded queue, an infinite budget, no saturation limit,
//! and an empty fault plan, every cycle runs the [`Rung::Full`] solve
//! on exactly the window's arrivals
//! ([`vod_cost_model::RequestBatch::new`] normalises request order, so
//! queue ordering is invisible to the solver) — committed schedules and
//! Ψ are bit-identical to evicting, calling [`crate::shard_solve_seeded`]
//! over the book's ledger and absorbing the result, window by window
//! over one [`CommittedBook`]. The `service_props` suite asserts this.
//!
//! ## Determinism of the ladder
//!
//! [`BudgetModel::simulated_ns`] is a fixed linear form over the
//! solver's `(requests, iterations, victims, forced_fallbacks)`
//! counters, which the sharded solver keeps bit-stable across runs and
//! [`ExecMode`]s. The EMA state therefore evolves identically on every
//! replay of the same arrival trace, and with it every
//! [`BudgetModel::pick`].

use crate::repair::{adjusted_requests, backoff_multiplier, repair_state};
use crate::shard::solve_over;
use crate::{detect_overflows, CommittedBook, RepairConfig, SchedCtx, ShardConfig, WarmStats};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fmt::Write as _;
use vod_cost_model::{Dollars, Request, RequestBatch, Schedule, Secs};
use vod_faults::{Fault, FaultError, FaultPlan};
use vod_parallel::ExecMode;
use vod_topology::Topology;
use vod_workload::Arrival;

/// The degradation ladder, cheapest-first from the bottom. Every cycle
/// runs on exactly one rung, chosen by the [`BudgetModel`] before the
/// solve starts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Rung {
    /// The full warm sharded solve (the oracle path).
    #[default]
    Full,
    /// SORP trial budget clamped to a small fixed iteration count.
    ReducedTrials,
    /// Greedy placement only: `max_iterations = 0`, overflows cleared by
    /// the deterministic direct-delivery fallback.
    GreedyOnly,
    /// Even the greedy cannot finish in budget: shed the lowest-heat
    /// requests until the remainder fits, then run greedy-only.
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
    /// Admission control rejected the request before enqueueing: the
    /// committed occupancy already held at the request's start time is
    /// at or beyond the configured saturation limit.
    Saturated {
        /// Committed bytes held at the request's start.
        spillover_bytes: f64,
        /// The configured admission limit.
        limit_bytes: f64,
    },
}

impl fmt::Display for IntakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            IntakeError::QueueFull { bound } => {
                write!(f, "intake queue full at its bound of {bound}")
            }
            IntakeError::Saturated { spillover_bytes, limit_bytes } => write!(
                f,
                "admission rejected: {spillover_bytes:.0} B committed at the requested start \
                 exceeds the {limit_bytes:.0} B saturation limit"
            ),
        }
    }
}

impl std::error::Error for IntakeError {}

/// Re-enqueue policy for shed and fault-displaced requests.
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

/// Configuration of the service loop. The default is the *oracle*
/// configuration: unbounded queue, infinite budget, no admission limit,
/// no faults — bit-identical to the plain warm loop (see the module
/// docs).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The sharded-solver configuration the [`Rung::Full`] solve runs
    /// under; lower rungs derive from it by clamping the trial budget.
    pub shard: ShardConfig,
    /// Cycle length in seconds (cycle `k` serves `[k·h, (k+1)·h)`).
    pub horizon: Secs,
    /// Intake queue bound; `None` is unbounded.
    pub queue_bound: Option<usize>,
    /// Per-cycle deadline budget in simulated nanoseconds; `None` is
    /// infinite (the ladder never leaves [`Rung::Full`]), and `Some(+∞)`
    /// runs the same rungs and schedules. A budget no request fits — zero,
    /// negative or NaN — puts every non-empty cycle on [`Rung::Shed`]
    /// keeping none: each ticket is shed into backoff and dropped once it
    /// has failed more than `backoff.drop_after` attempts; the accounting
    /// still balances.
    pub budget_ns: Option<f64>,
    /// Admission saturation limit: reject a request outright when the
    /// committed occupancy at its start already holds at least this many
    /// bytes. `None` disables the test.
    pub saturation_bytes: Option<f64>,
    /// Backoff policy for shed and fault-displaced requests.
    pub backoff: BackoffPolicy,
    /// Faults injected over the run; each cycle repairs against the
    /// sub-plan of faults overlapping its window.
    pub faults: FaultPlan,
    /// Retry/backoff policy handed to [`crate::repair_schedule`].
    pub repair: RepairConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shard: ShardConfig::default(),
            horizon: 24.0 * 3_600.0,
            queue_bound: None,
            budget_ns: None,
            saturation_bytes: None,
            backoff: BackoffPolicy::default(),
            faults: FaultPlan::empty(),
            repair: RepairConfig::default(),
        }
    }
}

/// EMA weight of a new observation.
const EMA_ALPHA: f64 = 0.3;
/// SORP iteration budget on the [`Rung::ReducedTrials`] rung.
const REDUCED_TRIALS: usize = 32;

/// Simulated cost per scheduled request (the phase-1 greedy share).
const REQUEST_NS: f64 = 4_000.0;
/// Simulated cost per SORP resolution iteration.
const ITERATION_NS: f64 = 60_000.0;
/// Simulated cost per committed victim reschedule.
const VICTIM_NS: f64 = 90_000.0;
/// Simulated cost per forced direct-delivery fallback.
const FALLBACK_NS: f64 = 20_000.0;

/// Deadline-budget model for the degradation ladder: one EMA of
/// simulated nanoseconds **per request** for each solve rung (shed
/// cycles observe as greedy — the rung they actually solve on). Both
/// the inputs ([`BudgetModel::simulated_ns`], a pure function of the
/// solver's deterministic counters) and the decision rule
/// ([`BudgetModel::pick`]) are wall-clock-free, so the ladder replays
/// bit-identically.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BudgetModel {
    /// Per-request simulated ns for `[Full, ReducedTrials, GreedyOnly]`.
    unit_ns: [f64; 3],
}

impl Default for BudgetModel {
    fn default() -> Self {
        // Seeds in the same currency as `simulated_ns`: a ~1k-request
        // full solve runs a few hundred iterations, the reduced rung
        // saves most of them, and the greedy rung is the bare
        // per-request form. The EMA replaces the seeds within a couple
        // of cycles.
        Self { unit_ns: [9_700.0, 7_000.0, 4_200.0] }
    }
}

impl BudgetModel {
    /// Simulated nanoseconds of one cycle's solve: a fixed linear form
    /// over the solver's deterministic work counters. Run-to-run and
    /// [`ExecMode`]-stable because every input is.
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

    /// The current per-request EMA state, indexed `[Full,
    /// ReducedTrials, GreedyOnly]` — exposed so the flight recorder can
    /// capture the ladder's decision inputs.
    pub fn unit_ns(&self) -> [f64; 3] {
        self.unit_ns
    }

    /// Predicted simulated ns for solving `n` requests on `rung`.
    pub fn predict(&self, rung: Rung, n: usize) -> f64 {
        let unit = match rung {
            Rung::Full => self.unit_ns[0],
            Rung::ReducedTrials => self.unit_ns[1],
            Rung::GreedyOnly | Rung::Shed => self.unit_ns[2],
        };
        unit * n as f64
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
        for rung in [Rung::Full, Rung::ReducedTrials, Rung::GreedyOnly] {
            if self.predict(rung, n) <= b {
                return (rung, n);
            }
        }
        let keep = (b / self.unit_ns[2].max(1.0)).floor() as usize;
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
        let idx = match rung {
            Rung::Full => 0,
            Rung::ReducedTrials => 1,
            Rung::GreedyOnly | Rung::Shed => 2,
        };
        self.unit_ns[idx] += EMA_ALPHA * (unit - self.unit_ns[idx]);
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

/// Total-order sort key: oldest deadline first, then (video, user) for
/// determinism. Starts are non-negative, so the bit pattern orders like
/// the float.
fn ticket_key(t: &Ticket) -> (u64, u32, u32) {
    (t.request.start.to_bits(), t.request.video.0, t.request.user.0)
}

/// Sort key of the backoff parking lot.
fn parking_key((eligible, t): &(usize, Ticket)) -> (usize, (u64, u32, u32)) {
    (*eligible, ticket_key(t))
}

/// `x`'s bits mapped so that unsigned order is [`f64::total_cmp`]
/// order: a negative flips every bit, a positive sets the sign bit.
fn total_order_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// The ladder's heat ranking: which `n − keep` of the `n` tickets to
/// shed. Lowest heat (fewest same-video tickets in the batch) goes
/// first, ties broken on `(video, user, start)` — the repair scheduler's
/// convention — and then on position, so of identical requests the one
/// nearer the queue head goes first. Every ticket's rank key is built
/// once; the position makes keys unique, so the `n − keep` smallest are
/// one set however an unstable selection orders them, and it is the set
/// a stable sort on the rest of the key would put first.
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
    /// Offers rejected by the saturation admission test.
    pub rejected_saturated: usize,
    /// Tickets drained into this cycle's batch (including any later
    /// shed by the ladder).
    pub admitted: usize,
    /// Requests the committed schedule actually serves (post-repair).
    pub served: usize,
    /// Shed events this cycle: ladder shedding plus repair shedding.
    /// Each shed request is also counted once under `deferred` or
    /// `dropped`, whichever disposition it received.
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
    /// The requests the schedule serves, post-repair adjustment
    /// (delayed requests carry their delivery time).
    pub served: Vec<Request>,
    /// The *original* reservations behind the served requests (what the
    /// caller offered, before any backoff shift), same order as the
    /// solved batch. Lets callers check that no reservation is served
    /// twice or resurrected after a drop.
    pub served_originals: Vec<Request>,
    /// Requests shed this cycle (ladder + repair), at the start they
    /// were scheduled for when shed.
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
    /// Offers rejected by the saturation admission test.
    pub rejected_saturated: usize,
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
    /// Offers that passed admission and entered the queue.
    pub fn accepted(&self) -> usize {
        self.offered - self.rejected_full - self.rejected_saturated
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
    // Intake counters since the previous cycle ran.
    offered: usize,
    rejected_full: usize,
    rejected_saturated: usize,
    queue_high_water: usize,
    backoff_histogram: Vec<usize>,
    cycles: Vec<ServiceCycleStats>,
}

impl ServiceLoop {
    /// Open a service loop over `topo`. Fails when the configured fault
    /// plan does not validate against the topology — the only poisoned
    /// input a caller can hand in.
    pub fn new(topo: &Topology, cfg: ServiceConfig) -> Result<Self, FaultError> {
        cfg.faults.validate(topo)?;
        assert!(
            cfg.horizon.is_finite() && cfg.horizon > 0.0,
            "cycle horizon must be positive and finite"
        );
        Ok(Self {
            cfg,
            book: CommittedBook::new(topo),
            queue: Vec::new(),
            pending: Vec::new(),
            budget: BudgetModel::default(),
            cycle: 0,
            offered: 0,
            rejected_full: 0,
            rejected_saturated: 0,
            queue_high_water: 0,
            backoff_histogram: Vec::new(),
            cycles: Vec::new(),
        })
    }

    /// The committed-occupancy book carried across cycles.
    pub fn book(&self) -> &CommittedBook {
        &self.book
    }

    /// The budget model's current state.
    pub fn budget(&self) -> &BudgetModel {
        &self.budget
    }

    /// Index of the next cycle [`ServiceLoop::run_cycle`] will run.
    pub fn cycle(&self) -> usize {
        self.cycle
    }

    /// Current intake-queue depth.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Offer one arriving request to the intake queue. Rejection is
    /// typed backpressure: the request was not enqueued, and the
    /// rejection is recorded in the next cycle's stats.
    pub fn offer(&mut self, r: Request) -> Result<(), IntakeError> {
        self.offered += 1;
        if let Some(limit) = self.cfg.saturation_bytes {
            let spillover = self.book.spillover_at(r.start);
            if spillover >= limit {
                self.rejected_saturated += 1;
                return Err(IntakeError::Saturated {
                    spillover_bytes: spillover,
                    limit_bytes: limit,
                });
            }
        }
        if let Some(bound) = self.cfg.queue_bound {
            if self.queue.len() >= bound {
                self.rejected_full += 1;
                return Err(IntakeError::QueueFull { bound });
            }
        }
        self.enqueue(Ticket { request: r, original: r, attempts: 0 });
        Ok(())
    }

    /// Sorted insert preserving the oldest-deadline-first order.
    fn enqueue(&mut self, t: Ticket) {
        let key = ticket_key(&t);
        let at = self.queue.partition_point(|q| ticket_key(q) <= key);
        self.queue.insert(at, t);
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
    /// the solve's state against the window's faults, commit what ships
    /// to the book, and account everything.
    pub fn run_cycle(&mut self, ctx: &SchedCtx<'_>, mode: ExecMode) -> ServiceCycleOutcome {
        let k = self.cycle;
        let t0 = k as f64 * self.cfg.horizon;
        let window_end = (k + 1) as f64 * self.cfg.horizon;
        ctx.recorder.begin_cycle(k as u64, t0);
        let mut stats = ServiceCycleStats {
            cycle: k,
            offered: self.offered,
            rejected_full: self.rejected_full,
            rejected_saturated: self.rejected_saturated,
            ..ServiceCycleStats::default()
        };
        self.offered = 0;
        self.rejected_full = 0;
        self.rejected_saturated = 0;

        // 1. Release backoff parkings that became eligible.
        let mut dropped_now = self.release(k, &mut stats);

        // 2. Drain this window's batch (starts before the window end).
        let cut = self.queue.partition_point(|t| t.request.start < window_end);
        let mut kept: Vec<Ticket> = self.queue.drain(..cut).collect();
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
            let [full, reduced, greedy] = self.budget.unit_ns();
            e.str("rung", rung.label())
                .u64("batch", stats.admitted as u64)
                .u64("keep", keep as u64)
                .f64("predicted_ns", self.budget.predict(rung, keep))
                .f64("budget_ns", self.cfg.budget_ns.unwrap_or(f64::INFINITY))
                .f64("ema_full_ns", full)
                .f64("ema_reduced_ns", reduced)
                .f64("ema_greedy_ns", greedy);
        });

        // 4. Heat-ranked shedding (`shed_mask`). This cycle's parkings,
        //    ladder and repair alike, enter the lot together once repair
        //    is done.
        let mut shed_now: Vec<Request> = Vec::new();
        let mut parked = Vec::new();
        if keep < kept.len() {
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
            kept = solved;
        }

        // 5. Solve on the chosen rung over the book, less what drained
        //    before the window. An empty batch still opens the cycle
        //    (eviction + stats) so idle ticks stay visible. The tickets
        //    go into batch order first, so that batch entry `i` is
        //    ticket `i`; of tickets holding one request, the most
        //    recently enqueued takes the first slot.
        kept.reverse();
        kept.sort_by(|a, b| a.request.batch_order(&b.request));
        let batch = RequestBatch::new(kept.iter().map(|t| t.request).collect());
        let mut shard_cfg = self.cfg.shard.clone();
        match rung {
            Rung::Full => {}
            Rung::ReducedTrials => {
                shard_cfg.sorp.max_iterations = shard_cfg.sorp.max_iterations.min(REDUCED_TRIALS);
            }
            Rung::GreedyOnly | Rung::Shed => shard_cfg.sorp.max_iterations = 0,
        }
        let solve_started = std::time::Instant::now();
        let committed_evicted = self.book.evict_expired(t0);
        let mut warm = WarmStats {
            committed_evicted,
            committed_active: self.book.active(),
            spillover_bytes: self.book.spillover_at(t0),
            ..WarmStats::default()
        };
        let mut state = (!batch.is_empty()).then(|| {
            let solve = solve_over(ctx, &batch, &shard_cfg, self.book.ledger(), mode);
            warm.trials_hit = solve.state.trials_cached;
            warm.shards_used = solve.shards;
            solve.state
        });
        // Reporting only — no decision ever reads this (the ladder runs
        // on simulated time), so determinism is preserved.
        warm.solve_ns = solve_started.elapsed().as_nanos() as u64;
        warm.record(&ctx.recorder);

        // 6. Feed the budget model with the solve's simulated time.
        let (iterations, victims, fallbacks) = state
            .as_ref()
            .map_or((0, 0, 0), |s| (s.iterations, s.victims.len(), s.forced_fallbacks));
        let sim_ns = BudgetModel::simulated_ns(batch.len(), iterations, victims, fallbacks);
        stats.sim_ns = sim_ns;
        stats.over_budget = self.cfg.budget_ns.is_some_and(|b| sim_ns as f64 > b);
        self.budget.observe(rung, batch.len(), sim_ns);
        ctx.recorder.event("budget", |e| {
            let [full, reduced, greedy] = self.budget.unit_ns();
            e.u64("sim_ns", sim_ns)
                .bool("over_budget", stats.over_budget)
                .f64("ema_full_ns", full)
                .f64("ema_reduced_ns", reduced)
                .f64("ema_greedy_ns", greedy);
        });

        // 7. Repair the state against the window's faults, on its own
        //    ledger (the book plus this cycle's schedule); displaced
        //    requests re-enter the backoff pipeline.
        let mut served: Vec<Request> = batch.iter().copied().collect();
        // Tickets repair shed; the others are what the schedule serves.
        let mut repair_shed = vec![false; kept.len()];
        let cycle_faults: Vec<Fault> = self
            .cfg
            .faults
            .faults()
            .iter()
            .filter(|f| f.overlaps(t0, window_end))
            .copied()
            .collect();
        if let Some(state) = state.as_mut().filter(|_| !cycle_faults.is_empty()) {
            // `new` validated the whole plan against this topology, and
            // validity is per fault: the sub-plan needs no second look.
            let sub = FaultPlan::new(cycle_faults);
            let repair = repair_state(ctx, state, &sub, &self.cfg.repair);
            for s in &repair.shed {
                stats.shed += 1;
                shed_now.push(s.request);
                // Map the request back to its ticket — the first of its
                // run not shed yet — so attempts and the original
                // reservation survive the round trip.
                let run = kept.partition_point(|t| t.request.batch_order(&s.request).is_lt());
                let hit = (run..kept.len())
                    .take_while(|&i| kept[i].request.batch_order(&s.request).is_eq())
                    .find(|&i| !repair_shed[i]);
                let t = match hit {
                    Some(i) => {
                        repair_shed[i] = true;
                        kept[i]
                    }
                    None => Ticket { request: s.request, original: s.request, attempts: 0 },
                };
                dropped_now.extend(self.defer_or_drop(t, k, &mut stats, &mut parked));
            }
            stats.delayed = repair.delayed.len();
            served = adjusted_requests(&repair.shed, &repair.delayed, &served);
        }
        self.park(parked);

        // 8. Finish the state and commit what ships — the one place a
        //    residency enters the book, which `overflow_free` speaks for.
        let (schedule, cost, initial_cost, overflow_free) =
            state.map_or((Schedule::new(), 0.0, 0.0, true), |state| {
                let out = state.into_outcome(ctx);
                (out.schedule, out.cost, out.initial_cost, out.overflow_free)
            });
        self.book.absorb(ctx, &schedule);
        debug_assert!(
            detect_overflows(ctx.topo, self.book.ledger()).is_empty(),
            "cycle {k} over-committed the book"
        );

        // A request is late when repair delayed it or when backoff moved
        // it into a window after its original reservation. `kept` holds
        // no ladder-shed ticket, and `repair_shed` marks exactly the
        // tickets repair shed — not their identical twins.
        stats.deadline_misses = stats.delayed
            + kept.iter().zip(&repair_shed).filter(|(t, &shed)| t.attempts > 0 && !shed).count();
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
            served,
            served_originals: kept
                .iter()
                .zip(&repair_shed)
                .filter(|(_, &shed)| !shed)
                .map(|(t, _)| t.original)
                .collect(),
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
            rejected_saturated: sum(|c| c.rejected_saturated) + self.rejected_saturated,
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
/// produces them.
pub fn service_run(
    ctx: &SchedCtx<'_>,
    arrivals: &[Arrival],
    cfg: &ServiceConfig,
    n_cycles: usize,
    mode: ExecMode,
) -> Result<(Vec<ServiceCycleOutcome>, ServiceReport), FaultError> {
    debug_assert!(
        arrivals.windows(2).all(|w| w[0].at <= w[1].at),
        "arrival trace must be sorted by arrival time"
    );
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
        outcomes.push(svc.run_cycle(ctx, mode));
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
        let reduced = m.predict(Rung::ReducedTrials, n);
        let greedy = m.predict(Rung::GreedyOnly, n);
        assert_eq!(m.pick(n, Some(full)), (Rung::Full, n));
        assert_eq!(m.pick(n, Some(reduced)), (Rung::ReducedTrials, n));
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

    #[test]
    fn saturation_admission_rejects_before_enqueue() {
        let (topo, catalog) = world(2);
        let cfg = ServiceConfig { saturation_bytes: Some(0.0), ..ServiceConfig::default() };
        let mut svc = ServiceLoop::new(&topo, cfg).expect("empty plan validates");
        // A zero-byte limit saturates immediately (spillover ≥ 0 always).
        let arrivals = arrivals_for(&topo, &catalog, 1, 3);
        let err = svc.offer(arrivals[0].request).unwrap_err();
        assert!(matches!(err, IntakeError::Saturated { .. }));
        assert_eq!(svc.queue_len(), 0);
    }

    #[test]
    fn idle_cycles_still_report() {
        let (topo, catalog) = world(3);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let (outcomes, report) =
            service_run(&ctx, &[], &ServiceConfig::default(), 3, ExecMode::Sequential)
                .expect("empty plan validates");
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
        let (outcomes, report) =
            service_run(&ctx, &arrivals, &ServiceConfig::default(), 3, ExecMode::Sequential)
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
        let (outcomes, report) =
            service_run(&ctx, &arrivals, &cfg, 4, ExecMode::Sequential).expect("valid");
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
        let (outcomes, report) =
            service_run(&ctx, &arrivals, &cfg, 6, ExecMode::Sequential).expect("valid");
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
        let (outcomes, report) =
            service_run(&ctx, &arrivals, &cfg, 2, ExecMode::Sequential).expect("valid plan");
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
        assert_eq!(err, FaultError::WarehouseOutage(topo.warehouse()));
    }
}
