//! Service requests: the scheduler's input.

use crate::{Secs, VideoId};
use serde::{Deserialize, Serialize};
use vod_topology::UserId;

/// A Video-On-Reservation request. Per paper §2.1, a request carries
/// exactly three attributes: `user_id`, `video_id`, and `starting_time`
/// (the reserved presentation time, known in advance of scheduling).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Who asked.
    pub user: UserId,
    /// Which video.
    pub video: VideoId,
    /// Reserved playback start, seconds from the start of the scheduling
    /// cycle.
    pub start: Secs,
}

impl Request {
    /// The total order a [`RequestBatch`] iterates in: video, then start
    /// (`total_cmp`), then user. Two requests compare equal only when all
    /// three fields are bit-identical.
    pub fn batch_order(&self, other: &Self) -> std::cmp::Ordering {
        self.video
            .cmp(&other.video)
            .then(self.start.total_cmp(&other.start))
            .then(self.user.cmp(&other.user))
    }
}

/// `x`'s bits mapped so that unsigned order is [`f64::total_cmp`] order,
/// the order [`Request::batch_order`] compares starts in: a negative
/// flips every bit, a positive sets the sign bit.
#[inline]
pub fn total_order_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// The batch of requests collected for one scheduling cycle, pre-grouped
/// per video: the scheduler "collects the requests for the cycle and
/// partitions them into sets R_i with each of the m distinct video files
/// requested" (§3.2).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RequestBatch {
    /// Every request, in [`Request::batch_order`]: groups ordered by video
    /// id, each sorted chronologically (ties broken by user id).
    requests: Vec<Request>,
    /// One `(video, end)` per distinct video, ascending: its group is
    /// `requests[previous end..end]`.
    index: Vec<(VideoId, usize)>,
}

impl RequestBatch {
    /// Partition a flat request list into chronological per-video groups.
    /// A list already in [`Request::batch_order`] is taken as it is
    /// (requests that compare equal are bit-identical, so a stable sort
    /// would leave it unchanged).
    pub fn new(mut requests: Vec<Request>) -> Self {
        if !requests.is_sorted_by(|a, b| a.batch_order(b).is_le()) {
            requests.sort_by(Request::batch_order);
        }
        let mut index: Vec<(VideoId, usize)> = Vec::new();
        for (i, r) in requests.iter().enumerate() {
            match index.last_mut() {
                Some((v, end)) if *v == r.video => *end = i + 1,
                _ => index.push((r.video, i + 1)),
            }
        }
        Self { requests, index }
    }

    /// Total number of requests in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the batch is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Number of distinct videos requested (`m` in the paper).
    #[inline]
    pub fn video_count(&self) -> usize {
        self.index.len()
    }

    /// Iterate over `(video, chronologically sorted requests)` groups.
    pub fn groups(&self) -> impl Iterator<Item = (VideoId, &[Request])> + '_ {
        let mut start = 0;
        self.index.iter().map(move |&(video, end)| {
            let group = &self.requests[start..end];
            start = end;
            (video, group)
        })
    }

    /// The request group for one video, if any were made.
    pub fn group(&self, video: VideoId) -> Option<&[Request]> {
        let i = self.index.binary_search_by(|(v, _)| v.cmp(&video)).ok()?;
        let start = if i == 0 { 0 } else { self.index[i - 1].1 };
        Some(&self.requests[start..self.index[i].1])
    }

    /// Iterate over every request in the batch (video-major order).
    pub fn iter(&self) -> impl Iterator<Item = &Request> + '_ {
        self.requests.iter()
    }

    /// Every request in the batch, in [`Request::batch_order`].
    #[inline]
    pub fn as_slice(&self) -> &[Request] {
        &self.requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(u: u32, v: u32, t: Secs) -> Request {
        Request { user: UserId(u), video: VideoId(v), start: t }
    }

    #[test]
    fn partitions_by_video_and_sorts_by_time() {
        let batch = RequestBatch::new(vec![
            req(0, 1, 50.0),
            req(1, 0, 10.0),
            req(2, 1, 5.0),
            req(3, 0, 20.0),
            req(4, 1, 25.0),
        ]);
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.video_count(), 2);

        let g0 = batch.group(VideoId(0)).unwrap();
        assert_eq!(g0.iter().map(|r| r.user.0).collect::<Vec<_>>(), vec![1, 3]);
        let g1 = batch.group(VideoId(1)).unwrap();
        assert_eq!(g1.iter().map(|r| r.start as i64).collect::<Vec<_>>(), vec![5, 25, 50]);
    }

    #[test]
    fn groups_ordered_by_video_id() {
        let batch = RequestBatch::new(vec![req(0, 7, 1.0), req(1, 2, 1.0), req(2, 5, 1.0)]);
        let vids: Vec<u32> = batch.groups().map(|(v, _)| v.0).collect();
        assert_eq!(vids, vec![2, 5, 7]);
    }

    #[test]
    fn simultaneous_requests_tie_break_on_user() {
        let batch = RequestBatch::new(vec![req(5, 0, 10.0), req(2, 0, 10.0)]);
        let g = batch.group(VideoId(0)).unwrap();
        assert_eq!(g[0].user, UserId(2));
        assert_eq!(g[1].user, UserId(5));
    }

    #[test]
    fn missing_video_group_is_none() {
        let batch = RequestBatch::new(vec![req(0, 1, 0.0)]);
        assert!(batch.group(VideoId(9)).is_none());
    }

    #[test]
    fn empty_batch() {
        let batch = RequestBatch::new(vec![]);
        assert!(batch.is_empty());
        assert_eq!(batch.video_count(), 0);
        assert_eq!(batch.iter().count(), 0);
        assert_eq!(batch.groups().count(), 0);
        assert!(batch.group(VideoId(0)).is_none());
    }

    #[test]
    fn iter_visits_everything_once() {
        let batch = RequestBatch::new(vec![req(0, 1, 3.0), req(1, 0, 2.0), req(2, 1, 1.0)]);
        assert_eq!(batch.iter().count(), 3);
    }
}
