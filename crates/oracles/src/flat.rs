//! The flat scan of one storage's occupancy: every query re-sums every
//! profile recorded at the node, in entry order. This is the ledger
//! implementation the incremental occupancy timeline replaced, kept as
//! the reference [`vod_core::StorageLedger`]'s answers are compared
//! against. The functions read a node's entries as
//! [`vod_core::StorageLedger::profiles_at`] hands them out and share no
//! code with the timeline; each admission test is O(k²) in the node's
//! profile count.

use vod_core::{Interval, Overflow, StorageLedger};
use vod_cost_model::{Bytes, Secs, SpaceProfile, VideoId};
use vod_topology::{NodeId, Topology};

/// `vod_core`'s capacity tolerance (private there): a storage filled
/// exactly to the brim is neither an overflow nor a rejection.
const CAPACITY_EPS: f64 = 1e-9;

fn threshold(capacity: Bytes) -> Bytes {
    capacity * (1.0 + CAPACITY_EPS) + CAPACITY_EPS
}

/// Aggregate occupancy at time `t`, optionally excluding one video's
/// profiles: a flat sum over every profile at the node.
/// Right-continuous in `t`.
pub fn usage_at(entries: &[(VideoId, SpaceProfile)], t: Secs, exclude: Option<VideoId>) -> Bytes {
    entries.iter().filter(|(v, _)| Some(*v) != exclude).map(|(_, p)| p.space_at(t)).sum()
}

/// Peak of `usage + candidate` over the candidate's support: collect
/// every breakpoint at the node, then rescan all profiles twice per
/// segment, recovering left limits from a midpoint probe.
pub fn peak_with(
    entries: &[(VideoId, SpaceProfile)],
    candidate: &SpaceProfile,
    exclude: Option<VideoId>,
) -> Bytes {
    if candidate.peak() == 0.0 {
        return 0.0;
    }
    let mut points = Vec::with_capacity(entries.len() * 4 + 6);
    for (v, p) in entries {
        if Some(*v) != exclude {
            points.extend(p.breakpoints());
        }
    }
    points.extend(candidate.breakpoints());
    points.retain(|&t| (candidate.start..=candidate.end).contains(&t));
    points.push(candidate.start);
    points.push(candidate.end);
    points.sort_by(f64::total_cmp);
    points.dedup();

    let combined = |t: Secs| usage_at(entries, t, exclude) + candidate.space_at(t);
    let mut peak: Bytes = 0.0;
    for w in points.windows(2) {
        let (t0, t1) = (w[0], w[1]);
        if t1 <= t0 {
            continue;
        }
        // Linear on [t0, t1): check the right-continuous start value
        // and the left limit at t1 (recovered via the midpoint).
        let u0 = combined(t0);
        let umid = combined(0.5 * (t0 + t1));
        let u1 = 2.0 * umid - u0;
        peak = peak.max(u0).max(u1);
    }
    if points.len() < 2 {
        peak = peak.max(combined(candidate.start));
    }
    peak
}

/// Admission test: would adding `candidate` keep the node's aggregate
/// occupancy within `capacity` at all times?
pub fn fits(
    entries: &[(VideoId, SpaceProfile)],
    capacity: Bytes,
    candidate: &SpaceProfile,
    exclude: Option<VideoId>,
) -> bool {
    !capacity.is_finite() || peak_with(entries, candidate, exclude) <= threshold(capacity)
}

/// Every maximal over-capacity window at the node, in time order.
pub fn overflows_at(
    entries: &[(VideoId, SpaceProfile)],
    loc: NodeId,
    capacity: Bytes,
) -> Vec<Overflow> {
    let threshold = threshold(capacity);
    let mut points: Vec<Secs> = entries.iter().flat_map(|(_, p)| p.breakpoints()).collect();
    points.sort_by(f64::total_cmp);
    points.dedup();

    let mut out = Vec::new();
    // `(window start, running peak excess)` of the open window, if any.
    let mut open: Option<(Secs, Bytes)> = None;
    let mut close = |s: Secs, end: Secs, peak_excess: Bytes| {
        out.push(Overflow { loc, window: Interval::new(s, end), peak_excess });
    };
    for w in points.windows(2) {
        let (t0, t1) = (w[0], w[1]);
        // Aggregate usage is linear on [t0, t1) but may jump *upward* at
        // breakpoints (space is reserved instantaneously at a
        // residency's t_s, §2.2.1). `usage_at` is right-continuous, so
        // the segment's start value is usage_at(t0) and its end value is
        // the left limit at t1, recovered from the midpoint by linearity.
        let u0 = usage_at(entries, t0, None);
        let umid = usage_at(entries, 0.5 * (t0 + t1), None);
        let u1 = 2.0 * umid - u0;
        let (over0, over1) = (u0 > threshold, u1 > threshold);
        if !over0 && !over1 {
            if let Some((s, peak)) = open.take() {
                close(s, t0, peak);
            }
            continue;
        }
        // Where the segment crosses the capacity line.
        let cross = t0 + (capacity - u0) / (u1 - u0) * (t1 - t0);
        let seg_peak = (u0.max(u1) - capacity).max(0.0);
        let (s, peak) = match open.take() {
            Some((s, peak)) => (s, peak.max(seg_peak)),
            None => (if over0 { t0 } else { cross }, seg_peak),
        };
        if over1 {
            open = Some((s, peak));
        } else {
            close(s, cross, peak);
        }
    }
    if let (Some((s, peak)), Some(&end)) = (open, points.last()) {
        close(s, end, peak);
    }
    out
}

/// Every overflow on `ledger`, by storage then start time — the order
/// [`vod_core::detect_overflows`] reports them in.
pub fn detect_overflows(topo: &Topology, ledger: &StorageLedger) -> Vec<Overflow> {
    topo.storages()
        .filter(|&loc| topo.capacity(loc).is_finite())
        .flat_map(|loc| overflows_at(ledger.profiles_at(loc), loc, topo.capacity(loc)))
        .collect()
}
