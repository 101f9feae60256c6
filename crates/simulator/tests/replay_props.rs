//! Equivalence suite for the replay engine: the pre-PR `replay` — a
//! streaming heap over event-chain heads, an all-residency occupancy scan
//! per cache event, a hash-map coverage check — lives on below as a
//! test-only oracle, and the production replay (expand, sort once, sweep
//! with per-node residency indices; merge-join coverage) must reproduce
//! its [`SimReport`] on resolved, phase-1, faulted and tampered
//! schedules: every metric bit for bit, every violation in the same
//! place, except that the coverage violations (whose old order was a hash
//! map's) compare as multisets.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use vod_core::{ivsp_solve_priced, sorp_solve_priced, ExecMode, SchedCtx, SorpConfig};
use vod_cost_model::{
    Catalog, CostModel, Request, RequestBatch, Schedule, SpaceModel, Transfer, VideoSchedule,
};
use vod_faults::{FaultConfig, FaultPlan};
use vod_simulator::{simulate_with_faults, Event, EventKind, SimOptions, SimReport, Violation};
use vod_topology::{builders, units, NodeId, Topology};
use vod_workload::{CatalogConfig, RequestConfig, Workload};

/// The pre-PR replay, kept verbatim as the oracle: the streaming
/// `PendingQueue` over a binary heap, the hash-map `check_coverage`, and
/// `replay` with its all-residency occupancy scan. Only paths and the
/// crate-private `Event::key` (here the free function `key`) differ from
/// the sources it was copied from.
#[allow(dead_code, clippy::all)]
mod oracle {
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashMap};
    use vod_cost_model::{
        Catalog, ChargingBasis, CostModel, Request, RequestBatch, Schedule, Secs, SpaceProfile,
        VideoId,
    };
    use vod_faults::{Fault, FaultPlan};
    use vod_simulator::{Event, EventKind, Metrics, SimOptions, SimReport, Violation};
    use vod_topology::{NodeId, Topology};

    /// Deterministic secondary ordering so simultaneous events replay in a
    /// stable order: by discriminant (starts before ends at equal times is
    /// NOT assumed — order is purely for determinism), then video, node.
    fn key(this: &Event) -> (u8, u32, u32, usize) {
        {
            let (d, idx) = match this.kind {
                // Faults open first and close last at equal times, so a stream
                // starting the instant a failure begins is counted as running
                // on a dead link, and one starting at recovery is not.
                EventKind::FaultStart { fault } => (0, fault),
                EventKind::StreamStart { transfer } => (1, transfer),
                EventKind::CacheFillStart { residency } => (2, residency),
                EventKind::CacheFillComplete { residency } => (3, residency),
                EventKind::CacheDrainStart { residency } => (4, residency),
                EventKind::StreamEnd { transfer } => (5, transfer),
                EventKind::CacheDrainEnd { residency } => (6, residency),
                EventKind::FaultEnd { fault } => (7, fault),
            };
            (d, this.video.0, this.node.0, idx)
        }
    }

    /// Min-heap of events ordered by `(time, deterministic key)`.
    #[derive(Debug, Default)]
    pub struct EventQueue {
        heap: BinaryHeap<HeapItem>,
    }

    #[derive(Debug)]
    struct HeapItem(Event);

    impl PartialEq for HeapItem {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for HeapItem {}
    impl PartialOrd for HeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for HeapItem {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we want earliest first.
            // `total_cmp` keeps the ordering total even for times a buggy
            // caller sneaks past the push-time assertion.
            other.0.time.total_cmp(&self.0.time).then_with(|| key(&other.0).cmp(&key(&self.0)))
        }
    }

    impl EventQueue {
        /// An empty queue.
        pub fn new() -> Self {
            Self::default()
        }

        /// Schedule an event.
        pub fn push(&mut self, e: Event) {
            assert!(e.time.is_finite(), "event time must be finite");
            self.heap.push(HeapItem(e));
        }

        /// Pop the earliest event.
        pub fn pop(&mut self) -> Option<Event> {
            self.heap.pop().map(|h| h.0)
        }

        /// Number of pending events.
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// Whether the queue is drained.
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }

    /// A streaming event source over per-source *chains*.
    ///
    /// The build-up-front replay materialized every event of every transfer,
    /// residency, and fault before popping the first one — an O(events)
    /// allocation and an O(events)-deep heap. Each source's events, however,
    /// form a fixed chain (`StreamStart → StreamEnd`; `CacheFillStart →
    /// [CacheFillComplete] → CacheDrainStart → CacheDrainEnd`; `FaultStart →
    /// FaultEnd`), so it suffices to keep **one pending event per source**:
    /// the queue is seeded with every chain's head, and popping an event
    /// re-arms its chain with the successor supplied by `advance`. The heap
    /// never holds more than one entry per source, and each event still
    /// costs O(log sources) — streaming, not batch.
    ///
    /// **Order preservation.** The streamed pop sequence is bit-identical to
    /// sorting all events up front, because along every chain the times are
    /// non-decreasing *and* the deterministic key's discriminant strictly
    /// increases — so a chain's unpopped earliest event is always its
    /// pending head, and the heap's minimum over heads is the global
    /// minimum over all remaining events. `pop` debug-asserts the
    /// non-decreasing half of that contract on every advance.
    pub struct PendingQueue<F: FnMut(&Event) -> Option<Event>> {
        queue: EventQueue,
        advance: F,
    }

    impl<F: FnMut(&Event) -> Option<Event>> PendingQueue<F> {
        /// Seed the queue with every chain's head event.
        pub fn new(seeds: impl IntoIterator<Item = Event>, advance: F) -> Self {
            let mut queue = EventQueue::new();
            for e in seeds {
                queue.push(e);
            }
            Self { queue, advance }
        }

        /// Pop the earliest pending event, re-arming its chain.
        pub fn pop(&mut self) -> Option<Event> {
            let ev = self.queue.pop()?;
            if let Some(succ) = (self.advance)(&ev) {
                debug_assert!(
                    succ.time >= ev.time,
                    "chain successor moved backwards: {} after {}",
                    succ.time,
                    ev.time
                );
                self.queue.push(succ);
            }
            Some(ev)
        }

        /// Number of chains still pending (≤ the number of sources, never
        /// the total remaining event count).
        pub fn pending(&self) -> usize {
            self.queue.len()
        }
    }

    /// Run every structural check, appending failures to `out`.
    pub fn structural_checks(
        topo: &Topology,
        schedule: &Schedule,
        requests: Option<&RequestBatch>,
        out: &mut Vec<Violation>,
    ) {
        check_routes(topo, schedule, out);
        check_sources(topo, schedule, out);
        check_residency_feeds(schedule, out);
        if let Some(batch) = requests {
            check_coverage(topo, schedule, batch, out);
        }
    }

    /// Every request must receive exactly one delivery, ending at the user's
    /// local storage at the reserved time.
    fn check_coverage(
        topo: &Topology,
        schedule: &Schedule,
        batch: &RequestBatch,
        out: &mut Vec<Violation>,
    ) {
        use std::collections::HashMap;
        // Key includes the start time bit pattern: a user may reserve the same
        // video twice at different times.
        let mut wanted: HashMap<(u32, u32, u64), usize> = HashMap::new();
        for r in batch.iter() {
            *wanted.entry((r.user.0, r.video.0, r.start.to_bits())).or_insert(0) += 1;
        }
        for t in schedule.transfers() {
            let Some(user) = t.user else { continue };
            let expected = topo.home_of(user);
            if t.dst() != expected {
                out.push(Violation::WrongDestination { user, got: t.dst(), expected });
            }
            match wanted.get_mut(&(user.0, t.video.0, t.start.to_bits())) {
                Some(n) if *n > 0 => *n -= 1,
                // Count exhausted: the request existed but was already served.
                Some(_) => out.push(Violation::DuplicateDelivery { user, video: t.video }),
                // Key absent: nobody reserved this (user, video, start) at all.
                None => out.push(Violation::UnrequestedDelivery {
                    user,
                    video: t.video,
                    start: t.start,
                }),
            }
        }
        for ((user, video, start), n) in wanted {
            for _ in 0..n {
                out.push(Violation::MissingDelivery {
                    user: vod_topology::UserId(user),
                    video: vod_cost_model::VideoId(video),
                    start: f64::from_bits(start),
                });
            }
        }
    }

    /// Every schedule time must be finite for the replay to order events.
    /// Returns `false` (after reporting each offender) when any is not, in
    /// which case the caller must skip the dynamic replay.
    pub fn check_finite_times(schedule: &Schedule, out: &mut Vec<Violation>) -> bool {
        let mut ok = true;
        for t in schedule.transfers() {
            if !t.start.is_finite() {
                out.push(Violation::NonFiniteTime { video: t.video, time: t.start });
                ok = false;
            }
        }
        for r in schedule.residencies() {
            for time in [r.start, r.last_service] {
                if !time.is_finite() {
                    out.push(Violation::NonFiniteTime { video: r.video, time });
                    ok = false;
                }
            }
        }
        ok
    }

    /// Every consecutive route pair must be an actual link.
    fn check_routes(topo: &Topology, schedule: &Schedule, out: &mut Vec<Violation>) {
        for t in schedule.transfers() {
            for hop in t.route.windows(2) {
                if topo.edge_between(hop[0], hop[1]).is_none() {
                    out.push(Violation::BrokenRoute { video: t.video, from: hop[0], to: hop[1] });
                }
            }
        }
    }

    /// A stream may only originate at the warehouse or at a storage holding a
    /// residency of its video whose interval covers the stream start.
    fn check_sources(topo: &Topology, schedule: &Schedule, out: &mut Vec<Violation>) {
        for vs in schedule.videos() {
            for t in &vs.transfers {
                let src = t.src();
                if topo.is_warehouse(src) {
                    continue;
                }
                let covered = vs
                    .residencies
                    .iter()
                    .any(|r| r.loc == src && r.start <= t.start && t.start <= r.last_service);
                if !covered {
                    out.push(Violation::SourceHasNoData { video: t.video, src, start: t.start });
                }
            }
        }
    }

    /// Every residency must be fed by a stream of its video that starts at the
    /// caching start, passes the hosting storage, and arrives from the
    /// residency's declared source.
    fn check_residency_feeds(schedule: &Schedule, out: &mut Vec<Violation>) {
        for vs in schedule.videos() {
            for r in &vs.residencies {
                let fed = vs.transfers.iter().any(|t| {
                    if t.start != r.start {
                        return false;
                    }
                    let Some(loc_pos) = t.route.iter().position(|&n| n == r.loc) else {
                        return false;
                    };
                    // The declared source must be on the route at or before
                    // the hosting storage.
                    t.route[..=loc_pos].contains(&r.src) || r.src == r.loc
                });
                if !fed {
                    out.push(Violation::ResidencyWithoutFeed {
                        video: r.video,
                        loc: r.loc,
                        start: r.start,
                    });
                }
            }
        }
    }

    /// Tolerance for the closed-form vs measured cost comparison.
    const COST_TOLERANCE: f64 = 1e-6;

    /// The validation-free replay core shared by [`simulate`] (empty plan,
    /// infallible) and [`simulate_with_faults`] (plan validated first).
    /// Callers must pass a plan that validates against `topo`.
    pub fn replay(
        topo: &Topology,
        catalog: &Catalog,
        model: &CostModel,
        schedule: &Schedule,
        plan: &FaultPlan,
        shed: &[Request],
        options: &SimOptions<'_>,
    ) -> SimReport {
        let mut violations = Vec::new();
        for r in shed {
            violations.push(Violation::RequestShed {
                user: r.user,
                video: r.video,
                start: r.start,
            });
        }
        // Shed requests are accounted for above; remove them from the batch so
        // coverage does not re-report them as missing deliveries.
        let filtered: Option<RequestBatch> = match (options.requests, shed.is_empty()) {
            (Some(batch), false) => {
                let mut drop: HashMap<(u32, u32, u64), usize> = HashMap::new();
                for r in shed {
                    *drop.entry((r.user.0, r.video.0, r.start.to_bits())).or_insert(0) += 1;
                }
                Some(RequestBatch::new(
                    batch
                        .iter()
                        .filter(|r| match drop.get_mut(&(r.user.0, r.video.0, r.start.to_bits())) {
                            Some(n) if *n > 0 => {
                                *n -= 1;
                                false
                            }
                            _ => true,
                        })
                        .copied()
                        .collect(),
                ))
            }
            _ => None,
        };
        let requests = filtered.as_ref().or(options.requests);
        structural_checks(topo, schedule, requests, &mut violations);
        let times_ok = check_finite_times(schedule, &mut violations);

        // Flatten transfers and residencies for index-based events.
        let transfers: Vec<_> = schedule.transfers().collect();
        let residencies: Vec<_> = schedule.residencies().collect();
        let profiles: Vec<SpaceProfile> = residencies
            .iter()
            .map(|r| r.profile_with(catalog.get(r.video), model.space_model()))
            .collect();

        let faults = plan.faults();
        let relay_points =
            residencies.iter().zip(&profiles).filter(|(_, p)| p.peak() == 0.0).count();
        // Streaming replay: the queue is seeded with one *head* event per
        // source (transfer, materialized residency, fault) and each source's
        // remaining events are generated lazily as its predecessors pop —
        // O(sources) heap instead of O(events), same pop order bit for bit
        // (see [`PendingQueue`]).
        //
        // A non-finite time anywhere would break the queue's ordering; the
        // offenders are already reported, so leave the queue empty and skip
        // the dynamic replay.
        let mut seeds: Vec<Event> = Vec::new();
        if times_ok {
            seeds.reserve(transfers.len() + residencies.len() - relay_points + faults.len());
            for (i, t) in transfers.iter().enumerate() {
                seeds.push(Event {
                    time: t.start,
                    video: t.video,
                    node: t.src(),
                    kind: EventKind::StreamStart { transfer: i },
                });
            }
            for (i, (r, p)) in residencies.iter().zip(&profiles).enumerate() {
                if p.peak() == 0.0 {
                    continue;
                }
                seeds.push(Event {
                    time: p.start,
                    video: r.video,
                    node: r.loc,
                    kind: EventKind::CacheFillStart { residency: i },
                });
            }
            for (i, f) in faults.iter().enumerate() {
                let (from, _) = f.window();
                let node = match *f {
                    Fault::NodeOutage { node, .. } => node,
                    Fault::LinkFailure { a, .. } | Fault::LinkDegraded { a, .. } => a,
                };
                let video = VideoId(0); // tracing only; the key's idx disambiguates
                seeds.push(Event {
                    time: from,
                    video,
                    node,
                    kind: EventKind::FaultStart { fault: i },
                });
            }
        }
        let advance = |ev: &Event| -> Option<Event> {
            let next = |time, kind| Some(Event { time, video: ev.video, node: ev.node, kind });
            match ev.kind {
                EventKind::StreamStart { transfer } => {
                    let t = transfers[transfer];
                    next(t.start + catalog.get(t.video).playback, EventKind::StreamEnd { transfer })
                }
                EventKind::CacheFillStart { residency } => {
                    let p = &profiles[residency];
                    if p.full > p.start {
                        next(p.full, EventKind::CacheFillComplete { residency })
                    } else {
                        next(p.last, EventKind::CacheDrainStart { residency })
                    }
                }
                EventKind::CacheFillComplete { residency } => {
                    next(profiles[residency].last, EventKind::CacheDrainStart { residency })
                }
                EventKind::CacheDrainStart { residency } => {
                    next(profiles[residency].end, EventKind::CacheDrainEnd { residency })
                }
                EventKind::FaultStart { fault } => {
                    next(faults[fault].window().1, EventKind::FaultEnd { fault })
                }
                EventKind::StreamEnd { .. }
                | EventKind::CacheDrainEnd { .. }
                | EventKind::FaultEnd { .. } => None,
            }
        };
        let mut queue = PendingQueue::new(seeds, advance);

        // Replay state.
        let n = topo.node_count();
        let mut peak_occupancy = vec![0.0f64; n];
        let mut link_demand = vec![0.0f64; topo.edge_count()]; // bytes/s
        let mut link_streams = vec![0usize; topo.edge_count()];
        let mut peak_link_streams = vec![0usize; topo.edge_count()];
        // Per-node storage-integral accumulation (midpoint rule is exact on
        // the piecewise-linear occupancy between that node's events).
        let mut node_last_event = vec![f64::NAN; n];
        let mut node_integral = vec![0.0f64; n];
        // Worst capacity / bandwidth excursions, reported once per offender.
        // Links carry the effective capacity observed at the excursion, which
        // degradation faults can shrink below the declared one.
        let mut worst_capacity: Vec<Option<(Secs, f64)>> = vec![None; n];
        let mut worst_link: Vec<Option<(Secs, f64, f64)>> = vec![None; topo.edge_count()];
        // Fault bookkeeping: overlapping windows stack, so count rather than
        // flag; degradation factors multiply while active.
        let mut node_down = vec![0usize; n];
        let mut link_failed = vec![0usize; topo.edge_count()];
        let mut link_factors: Vec<Vec<f64>> = vec![Vec::new(); topo.edge_count()];
        let mut stream_active = vec![false; transfers.len()];
        let mut residency_active = vec![false; residencies.len()];
        let edge_index = |a: NodeId, b: NodeId| -> Option<usize> {
            topo.neighbors(a).iter().find(|(nb, _)| *nb == b).map(|&(_, e)| e)
        };
        fn note_overload(worst: &mut Option<(Secs, f64, f64)>, demand: f64, cap: f64, time: Secs) {
            let excess = demand - cap;
            if excess > cap * 1e-9 && worst.is_none_or(|(_, e, _)| excess > e) {
                *worst = Some((time, excess, cap));
            }
        }

        let occupancy_at = |node: vod_topology::NodeId, t: Secs| -> f64 {
            residencies
                .iter()
                .zip(&profiles)
                .filter(|(r, _)| r.loc == node)
                .map(|(_, p)| p.space_at(t))
                .sum()
        };

        let mut events_processed = 0usize;
        let mut makespan: Secs = 0.0;

        while let Some(ev) = queue.pop() {
            events_processed += 1;
            makespan = makespan.max(ev.time);

            match ev.kind {
                EventKind::StreamStart { transfer } => {
                    let t = transfers[transfer];
                    stream_active[transfer] = true;
                    let bw = catalog.get(t.video).bandwidth;
                    let mut failed_hop_reported = false;
                    for hop in t.route.windows(2) {
                        if let Some(eidx) = edge_index(hop[0], hop[1]) {
                            link_demand[eidx] += bw;
                            link_streams[eidx] += 1;
                            peak_link_streams[eidx] =
                                peak_link_streams[eidx].max(link_streams[eidx]);
                            if link_failed[eidx] > 0 && !failed_hop_reported {
                                violations.push(Violation::StreamOnFailedLink {
                                    video: t.video,
                                    a: hop[0],
                                    b: hop[1],
                                    time: ev.time,
                                });
                                failed_hop_reported = true;
                            }
                            if options.check_bandwidth {
                                if let Some(cap) = topo.edges()[eidx].bandwidth {
                                    let cap = cap * link_factors[eidx].iter().product::<f64>();
                                    note_overload(
                                        &mut worst_link[eidx],
                                        link_demand[eidx],
                                        cap,
                                        ev.time,
                                    );
                                }
                            }
                        }
                        // Broken hops were already reported structurally.
                    }
                }
                EventKind::StreamEnd { transfer } => {
                    let t = transfers[transfer];
                    stream_active[transfer] = false;
                    let bw = catalog.get(t.video).bandwidth;
                    for hop in t.route.windows(2) {
                        if let Some(eidx) = edge_index(hop[0], hop[1]) {
                            link_demand[eidx] -= bw;
                            link_streams[eidx] = link_streams[eidx].saturating_sub(1);
                        }
                    }
                }
                EventKind::FaultStart { fault } => match faults[fault] {
                    Fault::NodeOutage { node, .. } => {
                        node_down[node.index()] += 1;
                        // Every live copy with blocks on the dead node is lost.
                        for (i, (r, p)) in residencies.iter().zip(&profiles).enumerate() {
                            if r.loc == node && residency_active[i] && p.space_at(ev.time) > 0.0 {
                                violations.push(Violation::ResidencyLostToOutage {
                                    video: r.video,
                                    loc: node,
                                    time: ev.time,
                                });
                            }
                        }
                    }
                    Fault::LinkFailure { a, b, .. } => {
                        if let Some(eidx) = edge_index(a, b) {
                            link_failed[eidx] += 1;
                        }
                        // Streams caught mid-flight lose their feed.
                        for (i, t) in transfers.iter().enumerate() {
                            let crosses = t.route.windows(2).any(|hop| {
                                (hop[0] == a && hop[1] == b) || (hop[0] == b && hop[1] == a)
                            });
                            if stream_active[i] && crosses {
                                violations.push(Violation::StreamOnFailedLink {
                                    video: t.video,
                                    a,
                                    b,
                                    time: ev.time,
                                });
                            }
                        }
                    }
                    Fault::LinkDegraded { a, b, factor, .. } => {
                        if let Some(eidx) = edge_index(a, b) {
                            link_factors[eidx].push(factor);
                            if options.check_bandwidth {
                                if let Some(cap) = topo.edges()[eidx].bandwidth {
                                    let cap = cap * link_factors[eidx].iter().product::<f64>();
                                    note_overload(
                                        &mut worst_link[eidx],
                                        link_demand[eidx],
                                        cap,
                                        ev.time,
                                    );
                                }
                            }
                        }
                    }
                },
                EventKind::FaultEnd { fault } => match faults[fault] {
                    Fault::NodeOutage { node, .. } => {
                        let ni = node.index();
                        node_down[ni] = node_down[ni].saturating_sub(1);
                    }
                    Fault::LinkFailure { a, b, .. } => {
                        if let Some(eidx) = edge_index(a, b) {
                            link_failed[eidx] = link_failed[eidx].saturating_sub(1);
                        }
                    }
                    Fault::LinkDegraded { a, b, factor, .. } => {
                        if let Some(eidx) = edge_index(a, b) {
                            if let Some(pos) = link_factors[eidx].iter().position(|&f| f == factor)
                            {
                                link_factors[eidx].remove(pos);
                            }
                        }
                    }
                },
                EventKind::CacheFillStart { residency }
                | EventKind::CacheFillComplete { residency }
                | EventKind::CacheDrainStart { residency }
                | EventKind::CacheDrainEnd { residency } => {
                    let r = residencies[residency];
                    let node = r.loc;
                    let ni = node.index();
                    match ev.kind {
                        EventKind::CacheFillStart { .. } => {
                            residency_active[residency] = true;
                            // Filling a dead node: the copy never materialises.
                            if node_down[ni] > 0 {
                                violations.push(Violation::ResidencyLostToOutage {
                                    video: r.video,
                                    loc: node,
                                    time: ev.time,
                                });
                            }
                        }
                        EventKind::CacheDrainEnd { .. } => residency_active[residency] = false,
                        _ => {}
                    }
                    // Close the integral segment since this node's last event.
                    let last = node_last_event[ni];
                    if last.is_finite() && ev.time > last {
                        let mid = occupancy_at(node, 0.5 * (last + ev.time));
                        node_integral[ni] += mid * (ev.time - last);
                    }
                    node_last_event[ni] = ev.time;

                    let usage = occupancy_at(node, ev.time);
                    peak_occupancy[ni] = peak_occupancy[ni].max(usage);
                    if options.check_capacity {
                        let cap = topo.capacity(node);
                        if cap.is_finite() && usage > cap * (1.0 + 1e-9) + 1e-9 {
                            let w = &mut worst_capacity[ni];
                            if w.is_none_or(|(_, u)| usage > u) {
                                *w = Some((ev.time, usage));
                            }
                        }
                    }
                }
            }
        }

        for (ni, w) in worst_capacity.iter().enumerate() {
            if let Some((time, usage)) = *w {
                violations.push(Violation::CapacityExceeded {
                    loc: vod_topology::NodeId(ni as u32),
                    time,
                    usage,
                    capacity: topo.capacity(vod_topology::NodeId(ni as u32)),
                });
            }
        }
        for (eidx, w) in worst_link.iter().enumerate() {
            if let Some((time, excess, capacity)) = *w {
                let e = &topo.edges()[eidx];
                violations.push(Violation::LinkOverloaded {
                    a: e.a,
                    b: e.b,
                    time,
                    demand: capacity + excess,
                    capacity,
                });
            }
        }

        // --- Metrics ------------------------------------------------------
        // Pricing a schedule whose routes use non-existent links is undefined
        // (the cost model panics by contract), and non-finite times poison
        // every integral; with those already reported, the costs stay at zero
        // and the cross-check is skipped.
        let routes_ok =
            times_ok && !violations.iter().any(|v| matches!(v, Violation::BrokenRoute { .. }));
        let (network_cost, storage_cost) =
            if routes_ok { model.schedule_cost_split(topo, catalog, schedule) } else { (0.0, 0.0) };
        let mut metrics = Metrics {
            total_cost: network_cost + storage_cost,
            network_cost,
            storage_cost,
            relay_points,
            peak_occupancy,
            peak_link_streams,
            events_processed,
            makespan,
            ..Metrics::default()
        };
        for t in &transfers {
            let video = catalog.get(t.video);
            metrics.link_bytes += video.amortized_bytes() * t.hop_count() as f64;
            if t.user.is_some() {
                metrics.deliveries += 1;
                if topo.is_warehouse(t.src()) {
                    metrics.served_from_warehouse += 1;
                } else {
                    metrics.served_from_cache += 1;
                }
            }
            if topo.is_warehouse(t.src()) {
                metrics.warehouse_egress_bytes += video.amortized_bytes();
            }
        }
        for (r, p) in residencies.iter().zip(&profiles) {
            if p.peak() > 0.0 {
                metrics.cached_copies += 1;
                if r.is_long(catalog.get(r.video).playback) {
                    metrics.long_residencies += 1;
                }
            }
        }

        // --- Cost cross-check ----------------------------------------------
        if options.check_cost && routes_ok && model.basis() == ChargingBasis::PerHop {
            // Network: amortized bytes × summed hop rates, accumulated from the
            // transfers exactly as the replay shipped them.
            let mut measured_network = 0.0;
            for t in &transfers {
                let video = catalog.get(t.video);
                let rate: f64 = t
                    .route
                    .windows(2)
                    .filter_map(|hop| topo.edge_between(hop[0], hop[1]))
                    .map(|e| e.nrate)
                    .sum();
                measured_network += video.amortized_bytes() * rate;
            }
            // Storage: the replay's per-node occupancy integrals × srate.
            let measured_storage: f64 = node_integral
                .iter()
                .enumerate()
                .map(|(ni, integral)| topo.srate(vod_topology::NodeId(ni as u32)) * integral)
                .sum();
            let measured = measured_network + measured_storage;
            let scale = metrics.total_cost.abs().max(1.0);
            if (measured - metrics.total_cost).abs() > COST_TOLERANCE * scale {
                violations.push(Violation::CostMismatch { model: metrics.total_cost, measured });
            }
        }

        SimReport { metrics, violations }
    }
}

fn is_coverage(v: &Violation) -> bool {
    matches!(
        v,
        Violation::MissingDelivery { .. }
            | Violation::DuplicateDelivery { .. }
            | Violation::UnrequestedDelivery { .. }
            | Violation::WrongDestination { .. }
    )
}

/// `Debug` renders every `f64` in shortest round-trip form, so equal
/// strings mean equal bits (and, unlike `==`, a NaN equals itself).
fn rendered(violations: &[Violation], coverage: bool) -> Vec<String> {
    violations.iter().filter(|v| is_coverage(v) == coverage).map(|v| format!("{v:?}")).collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_report(new: &SimReport, old: &SimReport) -> Result<(), TestCaseError> {
    let (n, o) = (&new.metrics, &old.metrics);
    prop_assert_eq!(n.total_cost.to_bits(), o.total_cost.to_bits());
    prop_assert_eq!(n.network_cost.to_bits(), o.network_cost.to_bits());
    prop_assert_eq!(n.storage_cost.to_bits(), o.storage_cost.to_bits());
    prop_assert_eq!(n.deliveries, o.deliveries);
    prop_assert_eq!(n.served_from_warehouse, o.served_from_warehouse);
    prop_assert_eq!(n.served_from_cache, o.served_from_cache);
    prop_assert_eq!(n.link_bytes.to_bits(), o.link_bytes.to_bits());
    prop_assert_eq!(n.warehouse_egress_bytes.to_bits(), o.warehouse_egress_bytes.to_bits());
    prop_assert_eq!(n.cached_copies, o.cached_copies);
    prop_assert_eq!(n.relay_points, o.relay_points);
    prop_assert_eq!(n.long_residencies, o.long_residencies);
    prop_assert_eq!(bits(&n.peak_occupancy), bits(&o.peak_occupancy));
    prop_assert_eq!(&n.peak_link_streams, &o.peak_link_streams);
    prop_assert_eq!(n.events_processed, o.events_processed);
    prop_assert_eq!(n.makespan.to_bits(), o.makespan.to_bits());

    prop_assert_eq!(rendered(&new.violations, false), rendered(&old.violations, false));
    let (mut nc, mut oc) = (rendered(&new.violations, true), rendered(&old.violations, true));
    nc.sort();
    oc.sort();
    prop_assert_eq!(nc, oc);
    Ok(())
}

/// Replay through the production entry point and through the oracle.
fn both(
    topo: &Topology,
    catalog: &Catalog,
    model: &CostModel,
    schedule: &Schedule,
    plan: &FaultPlan,
    shed: &[Request],
    options: &SimOptions<'_>,
) -> Result<SimReport, TestCaseError> {
    let new = simulate_with_faults(topo, catalog, model, schedule, plan, shed, options)
        .expect("generated plans validate");
    let old = oracle::replay(topo, catalog, model, schedule, plan, shed, options);
    assert_same_report(&new, &old)?;
    Ok(new)
}

#[derive(Clone, Debug)]
struct World {
    fig4: bool,
    capacity_gb: f64,
    link_mbps: Option<f64>,
    gradual_fill: bool,
    seed: u64,
}

fn world_strategy() -> impl Strategy<Value = World> {
    (
        any::<bool>(),
        prop_oneof![Just(5.0), Just(10.0), Just(10_000.0)],
        prop_oneof![Just(None), Just(Some(8.0)), Just(Some(400.0))],
        any::<bool>(),
        0u64..10_000,
    )
        .prop_map(|(fig4, capacity_gb, link_mbps, gradual_fill, seed)| World {
            fig4,
            capacity_gb,
            link_mbps,
            gradual_fill,
            seed,
        })
}

impl World {
    fn build(&self) -> (Topology, Workload, CostModel) {
        let mut topo = if self.fig4 {
            builders::paper_fig4(&builders::PaperFig4Config {
                capacity_gb: self.capacity_gb,
                ..Default::default()
            })
        } else {
            let cfg = builders::GenConfig {
                storages: 9,
                capacity_gb: self.capacity_gb,
                ..Default::default()
            };
            builders::random_connected(&cfg, 4, self.seed)
        };
        topo.set_uniform_bandwidth(self.link_mbps.map(units::mbps)).expect("positive link cap");
        let wl = Workload::generate(
            &topo,
            &CatalogConfig::small(30),
            &RequestConfig::paper(),
            self.seed,
        );
        let space = if self.gradual_fill {
            SpaceModel::GradualFill
        } else {
            SpaceModel::InstantReservation
        };
        (topo, wl, CostModel::per_hop().with_space_model(space))
    }
}

/// Phase-1 and resolved schedules of one world.
fn schedules(topo: &Topology, wl: &Workload, model: &CostModel) -> (Schedule, Schedule) {
    let ctx = SchedCtx::new(topo, model, &wl.catalog);
    let phase1 = ivsp_solve_priced(&ctx, &wl.requests);
    let individual = phase1.schedule().clone();
    let resolved =
        sorp_solve_priced(&ctx, phase1, &SorpConfig::default(), &[], ExecMode::Sequential);
    (individual, resolved.schedule)
}

/// A deterministic pick of `k` distinct-position entries of `0..n`.
fn picks(n: usize, k: usize, salt: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in (1..idx.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        idx.swap(i, (state % (i as u64 + 1)) as usize);
    }
    idx.truncate(k.min(n));
    idx
}

/// Rewrite the `nth` transfer (in `Schedule::transfers` order) matching
/// `pick` through `edit`, which returns the transfers to put in its place.
fn edit_transfer(
    schedule: &Schedule,
    nth: usize,
    pick: impl Fn(&Transfer) -> bool,
    edit: impl FnOnce(Transfer) -> Vec<Transfer>,
) -> Schedule {
    let mut out = Schedule::new();
    let mut seen = 0usize;
    let mut edit = Some(edit);
    for vs in schedule.videos() {
        let mut copy = VideoSchedule::new(vs.video);
        copy.residencies = vs.residencies.clone();
        for t in &vs.transfers {
            let hit = pick(t) && {
                seen += 1;
                seen - 1 == nth
            };
            match edit.take_if(|_| hit) {
                Some(f) => copy.transfers.extend(f(t.clone())),
                None => copy.transfers.push(t.clone()),
            }
        }
        out.upsert(copy);
    }
    out
}

fn is_delivery(t: &Transfer) -> bool {
    t.user.is_some()
}

/// The ways a schedule gets corrupted, one per coverage / structural /
/// dynamic violation the replay can report.
#[derive(Clone, Copy, Debug)]
enum Tamper {
    DropDeliveries,
    DuplicateDelivery,
    UnrequestedDelivery,
    WrongDestination,
    BrokenRoute,
    UnfedResidency,
    NanStart,
}

const TAMPERS: [Tamper; 7] = [
    Tamper::DropDeliveries,
    Tamper::DuplicateDelivery,
    Tamper::UnrequestedDelivery,
    Tamper::WrongDestination,
    Tamper::BrokenRoute,
    Tamper::UnfedResidency,
    Tamper::NanStart,
];

fn tamper(topo: &Topology, schedule: &Schedule, how: Tamper, salt: u64) -> Schedule {
    let deliveries = schedule.delivery_count();
    let nth = picks(deliveries, 1, salt)[0];
    match how {
        Tamper::DropDeliveries => {
            let mut out = schedule.clone();
            // Highest index first so the earlier ones keep their position.
            let mut drop = picks(deliveries, 3, salt);
            drop.sort_unstable_by(|a, b| b.cmp(a));
            for nth in drop {
                out = edit_transfer(&out, nth, is_delivery, |_| vec![]);
            }
            out
        }
        Tamper::DuplicateDelivery => {
            edit_transfer(schedule, nth, is_delivery, |t| vec![t.clone(), t.clone(), t])
        }
        Tamper::UnrequestedDelivery => edit_transfer(schedule, nth, is_delivery, |t| {
            let extra = Transfer { start: t.start + 1.0, ..t.clone() };
            vec![t, extra]
        }),
        Tamper::WrongDestination => edit_transfer(schedule, nth, is_delivery, |mut t| {
            let mut route = t.route.to_vec();
            if route.len() > 1 {
                route.pop();
            } else {
                let (next, _) = topo.neighbors(route[0])[0];
                route.push(next);
            }
            t.route = route.into();
            vec![t]
        }),
        Tamper::BrokenRoute => edit_transfer(schedule, nth, is_delivery, |mut t| {
            let dst = t.dst();
            let stranger = topo
                .storages()
                .find(|&n| n != dst && topo.edge_between(n, dst).is_none())
                .expect("no generated topology is a clique");
            t.route = vec![stranger, dst].into();
            vec![t]
        }),
        Tamper::UnfedResidency => {
            let mut out = Schedule::new();
            let mut left = picks(schedule.residencies().count().max(1), 1, salt)[0] as isize;
            for vs in schedule.videos() {
                let mut copy = vs.clone();
                for r in &mut copy.residencies {
                    if left == 0 {
                        r.start -= 1.0;
                    }
                    left -= 1;
                }
                out.upsert(copy);
            }
            out
        }
        Tamper::NanStart => edit_transfer(
            schedule,
            nth,
            |_| true,
            |mut t| {
                t.start = f64::NAN;
                vec![t]
            },
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Clean schedules: resolved under the strict options, phase 1 under
    /// both (strict phase 1 is the over-capacity case).
    #[test]
    fn clean_schedules_replay_identically(w in world_strategy()) {
        let (topo, wl, model) = w.build();
        let (phase1, resolved) = schedules(&topo, &wl, &model);
        let none = FaultPlan::empty();
        let strict = SimOptions::strict(&wl.requests);
        let report = both(&topo, &wl.catalog, &model, &resolved, &none, &[], &strict)?;
        prop_assert!(w.link_mbps.is_some() || report.is_valid(), "{:?}", report.violations);
        both(&topo, &wl.catalog, &model, &phase1, &none, &[], &SimOptions::lenient())?;
        both(&topo, &wl.catalog, &model, &phase1, &none, &[], &strict)?;
    }

    /// Random fault plans with a shed list: some shed requests lose their
    /// delivery (as repair leaves them), some keep it, one was never in
    /// the batch, one is listed twice against three copies in the batch.
    #[test]
    fn faulted_replays_with_sheds_match(
        w in world_strategy(),
        fault_seed in 0u64..10_000,
        fault_counts in (0usize..3, 0usize..3, 0usize..3),
        shed_count in 0usize..6,
    ) {
        let (topo, wl, model) = w.build();
        let (_, resolved) = schedules(&topo, &wl, &model);
        let (node_outages, link_failures, link_degradations) = fault_counts;
        let plan = FaultPlan::generate(
            &topo,
            &FaultConfig { node_outages, link_failures, link_degradations, ..FaultConfig::default() },
            fault_seed,
        );
        let all: Vec<Request> = wl.requests.iter().copied().collect();
        let mut shed: Vec<Request> =
            picks(all.len(), shed_count, fault_seed).into_iter().map(|i| all[i]).collect();
        let mut schedule = resolved;
        for (i, r) in shed.iter().enumerate() {
            if i % 2 == 0 {
                let gone = |t: &Transfer| {
                    t.user == Some(r.user) && t.video == r.video && t.start == r.start
                };
                schedule = edit_transfer(&schedule, 0, gone, |_| vec![]);
            }
        }
        // The batch holds the first shed request three times and the shed
        // list names it twice, so the excusal has to count.
        let mut wanted = all.clone();
        if let Some(&first) = shed.first() {
            wanted.extend([first, first]);
            shed.push(first);
            shed.push(Request { start: first.start + 0.5, ..first });
        }
        let wanted = RequestBatch::new(wanted);
        let strict = SimOptions::strict(&wanted);
        both(&topo, &wl.catalog, &model, &schedule, &plan, &shed, &strict)?;
        both(&topo, &wl.catalog, &model, &schedule, &plan, &shed, &SimOptions::lenient())?;
    }

    /// Tampered schedules: every corruption reports the same violations
    /// from both engines, with and without a fault plan on top.
    #[test]
    fn tampered_schedules_report_identically(
        w in world_strategy(),
        salt in 0u64..10_000,
        resolved_base in any::<bool>(),
    ) {
        let (topo, wl, model) = w.build();
        let (phase1, resolved) = schedules(&topo, &wl, &model);
        let base = if resolved_base { resolved } else { phase1 };
        let plan = FaultPlan::generate(&topo, &FaultConfig::default(), salt);
        let strict = SimOptions::strict(&wl.requests);
        for how in TAMPERS {
            let bad = tamper(&topo, &base, how, salt);
            let report = both(&topo, &wl.catalog, &model, &bad, &FaultPlan::empty(), &[], &strict)?;
            prop_assert!(!report.is_valid(), "{:?} went unnoticed", how);
            both(&topo, &wl.catalog, &model, &bad, &plan, &[], &strict)?;
        }
    }

    /// The sorted expansion is the order the streaming queue pops: random
    /// chains on a coarse time grid, so times collide within and across
    /// chains and the key has to break the ties.
    #[test]
    fn sorted_expansion_matches_streamed_pops(
        streams in proptest::collection::vec((0u32..4, 0u32..3, 0u32..4, 0u32..3), 0..12),
        copies in proptest::collection::vec(
            (0u32..4, 0u32..3, 0u32..3, (0u32..3, 0u32..3, 0u32..3)),
            0..8,
        ),
        faults in proptest::collection::vec((0u32..3, 0u32..4, 1u32..3), 0..4),
    ) {
        let ev = |time: u32, video, node, kind| Event {
            time: f64::from(time),
            video: vod_cost_model::VideoId(video),
            node: NodeId(node),
            kind,
        };
        let mut chains: Vec<Vec<Event>> = Vec::new();
        for (i, &(video, node, t0, len)) in streams.iter().enumerate() {
            chains.push(vec![
                ev(t0, video, node, EventKind::StreamStart { transfer: i }),
                ev(t0 + len, video, node, EventKind::StreamEnd { transfer: i }),
            ]);
        }
        for (i, &(video, node, t0, (rise, hold, drain))) in copies.iter().enumerate() {
            let mut chain = vec![ev(t0, video, node, EventKind::CacheFillStart { residency: i })];
            if rise > 0 {
                chain.push(ev(t0 + rise, video, node, EventKind::CacheFillComplete { residency: i }));
            }
            let last = t0 + rise + hold;
            chain.push(ev(last, video, node, EventKind::CacheDrainStart { residency: i }));
            chain.push(ev(last + drain, video, node, EventKind::CacheDrainEnd { residency: i }));
            chains.push(chain);
        }
        for (i, &(node, from, len)) in faults.iter().enumerate() {
            chains.push(vec![
                ev(from, 0, node, EventKind::FaultStart { fault: i }),
                ev(from + len, 0, node, EventKind::FaultEnd { fault: i }),
            ]);
        }

        let successor = |e: &Event| -> Option<Event> {
            let chain = chains.iter().find(|c| c.iter().any(|x| x.kind == e.kind))?;
            let at = chain.iter().position(|x| x.kind == e.kind)?;
            chain.get(at + 1).copied()
        };
        let mut queue = oracle::PendingQueue::new(chains.iter().map(|c| c[0]), successor);
        let mut streamed = Vec::new();
        while let Some(e) = queue.pop() {
            prop_assert!(queue.pending() <= chains.len());
            streamed.push((e.time.to_bits(), e.kind));
        }

        let mut sorted: Vec<Event> = chains.iter().flatten().copied().collect();
        sorted.sort_unstable_by(Event::replay_order);
        let sorted: Vec<_> = sorted.iter().map(|e| (e.time.to_bits(), e.kind)).collect();
        prop_assert_eq!(sorted, streamed);
    }
}
