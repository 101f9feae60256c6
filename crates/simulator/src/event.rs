//! The discrete-event core: typed events and their replay order.
//!
//! Each source's events form a fixed chain (`StreamStart → StreamEnd`;
//! `CacheFillStart → [CacheFillComplete] → CacheDrainStart →
//! CacheDrainEnd`; `FaultStart → FaultEnd`). The replay expands every
//! chain that changes replay state up front (not a one-node stream's, nor
//! a zero-space relay point's), sorts the flat list once by
//! [`Event::replay_order`], and sweeps it — no queue. Dropping whole
//! chains leaves the others' relative order as it was. Along a chain the
//! times are non-decreasing,
//! and where two links of a chain share a time the order's kind rank
//! increases (a fault's two events never do: its window is validated
//! non-empty), so the sorted list is exactly the sequence a streaming
//! min-heap over the chain heads would pop (the `replay_props` suite
//! holds that heap as its oracle).

use std::cmp::Ordering;
use vod_cost_model::{Secs, VideoId};
use vod_topology::NodeId;

/// What happens at an event instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A stream (transfer) begins flowing along its route.
    StreamStart {
        /// Index into the flattened transfer list.
        transfer: usize,
    },
    /// A stream finishes (playback length after its start).
    StreamEnd {
        /// Index into the flattened transfer list.
        transfer: usize,
    },
    /// A residency starts copying blocks at its storage (`t_s`).
    CacheFillStart {
        /// Index into the flattened residency list.
        residency: usize,
    },
    /// The copy reaches its plateau (only distinct from the fill start
    /// under the gradual-fill space model).
    CacheFillComplete {
        /// Index into the flattened residency list.
        residency: usize,
    },
    /// The residency's plateau ends (`t_f`): the last service begins and
    /// the copy starts draining.
    CacheDrainStart {
        /// Index into the flattened residency list.
        residency: usize,
    },
    /// The copy is fully drained (`t_f + P`); space returns to zero.
    CacheDrainEnd {
        /// Index into the flattened residency list.
        residency: usize,
    },
    /// An injected fault's window opens (node outage, link failure, or
    /// link degradation takes effect).
    FaultStart {
        /// Index into the fault plan's fault list.
        fault: usize,
    },
    /// An injected fault's window closes; the resource recovers.
    FaultEnd {
        /// Index into the fault plan's fault list.
        fault: usize,
    },
}

/// A scheduled event.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// When the event fires.
    pub time: Secs,
    /// The affected video (for tracing).
    pub video: VideoId,
    /// The storage most relevant to the event (fill/drain location, or the
    /// stream's source).
    pub node: NodeId,
    /// The event payload.
    pub kind: EventKind,
}

impl Event {
    /// Deterministic secondary ordering so simultaneous events replay in a
    /// stable order: by discriminant (starts before ends at equal times is
    /// NOT assumed — order is purely for determinism), then video, node.
    fn key(&self) -> (u8, u32, u32, usize) {
        let (d, idx) = match self.kind {
            // Faults close, then open, before anything else at equal
            // times, so a stream starting the instant a failure begins is
            // counted as running on a dead link, and one starting at
            // recovery is not: the half-open `[from, until)` windows of
            // `vod_faults`.
            EventKind::FaultEnd { fault } => (0, fault),
            EventKind::FaultStart { fault } => (1, fault),
            EventKind::StreamStart { transfer } => (2, transfer),
            EventKind::CacheFillStart { residency } => (3, residency),
            EventKind::CacheFillComplete { residency } => (4, residency),
            EventKind::CacheDrainStart { residency } => (5, residency),
            EventKind::StreamEnd { transfer } => (6, transfer),
            EventKind::CacheDrainEnd { residency } => (7, residency),
        };
        (d, self.video.0, self.node.0, idx)
    }

    /// The total order events replay in: time (`total_cmp`), then the
    /// deterministic key. Distinct events of one replay never compare
    /// equal (the key carries the source index), so an unstable sort by
    /// this order is deterministic.
    pub fn replay_order(&self, other: &Self) -> Ordering {
        self.time.total_cmp(&other.time).then_with(|| self.key().cmp(&other.key()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: Secs, kind: EventKind) -> Event {
        Event { time, video: VideoId(0), node: NodeId(0), kind }
    }

    fn sorted(mut events: Vec<Event>) -> Vec<Event> {
        events.sort_unstable_by(Event::replay_order);
        events
    }

    #[test]
    fn sorts_in_time_order() {
        let times: Vec<f64> = sorted(vec![
            ev(5.0, EventKind::StreamStart { transfer: 0 }),
            ev(1.0, EventKind::StreamStart { transfer: 1 }),
            ev(3.0, EventKind::StreamEnd { transfer: 1 }),
        ])
        .iter()
        .map(|e| e.time)
        .collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn simultaneous_events_order_deterministically() {
        let mut events = vec![
            ev(2.0, EventKind::StreamEnd { transfer: 7 }),
            ev(2.0, EventKind::StreamStart { transfer: 3 }),
            ev(2.0, EventKind::CacheFillStart { residency: 1 }),
        ];
        let a: Vec<_> = sorted(events.clone()).iter().map(|e| e.kind).collect();
        events.reverse();
        let b: Vec<_> = sorted(events).iter().map(|e| e.kind).collect();
        assert_eq!(a, b);
        // Starts sort before ends at the same instant.
        assert_eq!(a[0], EventKind::StreamStart { transfer: 3 });
        assert_eq!(a[2], EventKind::StreamEnd { transfer: 7 });
    }

    #[test]
    fn faults_close_then_open_before_everything_else_at_equal_times() {
        let kinds: Vec<_> = sorted(vec![
            ev(2.0, EventKind::StreamStart { transfer: 0 }),
            ev(2.0, EventKind::FaultStart { fault: 1 }),
            ev(2.0, EventKind::CacheDrainEnd { residency: 0 }),
            ev(2.0, EventKind::FaultEnd { fault: 0 }),
        ])
        .iter()
        .map(|e| e.kind)
        .collect();
        assert_eq!(
            kinds,
            [
                EventKind::FaultEnd { fault: 0 },
                EventKind::FaultStart { fault: 1 },
                EventKind::StreamStart { transfer: 0 },
                EventKind::CacheDrainEnd { residency: 0 },
            ]
        );
    }
}
