//! Property tests for the flat [`RequestBatch`]: one sorted `Vec<Request>`
//! plus a `(video, end)` index must present exactly the groups, orders and
//! lookups of the per-video `Vec`s it replaced. `pre_pr` below is that
//! grouping, verbatim from the parent commit, kept here as the oracle.

use proptest::prelude::*;
use vod_cost_model::{Request, RequestBatch, VideoId};
use vod_topology::UserId;

mod pre_pr {
    use vod_cost_model::{Request, VideoId};

    #[derive(Clone, Debug, Default)]
    pub struct RequestBatch {
        /// Non-empty per-video request groups, each sorted chronologically
        /// (ties broken by user id), groups ordered by video id.
        groups: Vec<(VideoId, Vec<Request>)>,
        total: usize,
    }

    impl RequestBatch {
        /// Partition a flat request list into chronological per-video groups.
        pub fn new(mut requests: Vec<Request>) -> Self {
            let total = requests.len();
            requests.sort_by(Request::batch_order);
            let mut groups: Vec<(VideoId, Vec<Request>)> = Vec::new();
            for r in requests {
                match groups.last_mut() {
                    Some((v, g)) if *v == r.video => g.push(r),
                    _ => groups.push((r.video, vec![r])),
                }
            }
            Self { groups, total }
        }

        pub fn len(&self) -> usize {
            self.total
        }

        pub fn is_empty(&self) -> bool {
            self.total == 0
        }

        pub fn video_count(&self) -> usize {
            self.groups.len()
        }

        pub fn groups(&self) -> impl Iterator<Item = (VideoId, &[Request])> + '_ {
            self.groups.iter().map(|(v, g)| (*v, g.as_slice()))
        }

        pub fn group(&self, video: VideoId) -> Option<&[Request]> {
            self.groups
                .binary_search_by(|(v, _)| v.cmp(&video))
                .ok()
                .map(|i| self.groups[i].1.as_slice())
        }

        pub fn iter(&self) -> impl Iterator<Item = &Request> + '_ {
            self.groups.iter().flat_map(|(_, g)| g.iter())
        }
    }
}

/// A request by its bits, so `-0.0`, `0.0` and NaN starts compare the way
/// `Request::batch_order` tells them apart.
type Key = (u32, u32, u64);

fn key(r: &Request) -> Key {
    (r.video.0, r.user.0, r.start.to_bits())
}

fn keys(rs: &[Request]) -> Vec<Key> {
    rs.iter().map(key).collect()
}

/// Few videos, few users and few distinct starts, so `(video, start)` and
/// whole-request collisions are the common case; the starts include both
/// zeros, huge values, infinity and NaN.
fn request_strategy() -> impl Strategy<Value = Request> {
    let start = prop_oneof![
        (0u32..4).prop_map(|k| f64::from(k) * 600.0),
        Just(0.0),
        Just(-0.0),
        Just(1e300),
        Just(f64::MAX),
        Just(f64::INFINITY),
        Just(f64::NAN),
        0.0..86_400.0,
    ];
    (0u32..5, 0u32..6, start).prop_map(|(user, video, start)| Request {
        user: UserId(user),
        video: VideoId(video),
        start,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn flat_batch_matches_the_per_video_vecs(
        requests in proptest::collection::vec(request_strategy(), 0..48),
    ) {
        let flat = RequestBatch::new(requests.clone());
        let old = pre_pr::RequestBatch::new(requests.clone());

        prop_assert_eq!(flat.len(), old.len());
        prop_assert_eq!(flat.len(), requests.len());
        prop_assert_eq!(flat.is_empty(), old.is_empty());
        prop_assert_eq!(flat.video_count(), old.video_count());

        // Group order and in-group order.
        let groups = |it: &mut dyn Iterator<Item = (VideoId, &[Request])>| -> Vec<(u32, Vec<Key>)> {
            it.map(|(v, g)| (v.0, keys(g))).collect()
        };
        let flat_groups = groups(&mut flat.groups());
        prop_assert_eq!(&flat_groups, &groups(&mut old.groups()));
        prop_assert!(flat_groups.iter().all(|(_, g)| !g.is_empty()), "groups are never empty");

        // Lookups: every requested video hits, the rest miss.
        for v in (0..8).map(VideoId) {
            prop_assert_eq!(flat.group(v).map(keys), old.group(v).map(keys), "group({:?})", v);
        }

        // Flat iteration is the groups back to back.
        let flat_iter: Vec<Key> = flat.iter().map(key).collect();
        prop_assert_eq!(&flat_iter, &old.iter().map(key).collect::<Vec<_>>());
        prop_assert_eq!(flat_iter, flat_groups.into_iter().flat_map(|(_, g)| g).collect::<Vec<_>>());
    }
}
