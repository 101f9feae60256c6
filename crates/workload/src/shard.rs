//! Deterministic request-batch partitioning for the sharded scheduler.
//!
//! The sharded SORP pipeline (`vod-core::shard_solve`) splits one
//! scheduling cycle's [`RequestBatch`] into sub-batches that are solved
//! concurrently and then reconciled. Two partitioning strategies are
//! provided, mirroring how production VoD deployments decompose load:
//!
//! * **By region** ([`ShardStrategy::ByRegion`]): requests are grouped
//!   by the requesting user's home intermediate storage (the paper's
//!   neighborhood), and whole neighborhoods are packed onto shards with
//!   a longest-processing-time greedy balanced on request counts. A
//!   neighborhood is never split, so under a neighborhood-local
//!   placement policy each shard's occupancy is confined to its own
//!   storages.
//! * **By time slice** ([`ShardStrategy::ByTimeSlice`]): requests are
//!   ordered by reservation time and cut into contiguous slices of
//!   near-equal size — the rolling-horizon decomposition.
//!
//! Both strategies are pure functions of `(batch, spec)`: ties (equal
//! neighborhood loads, equal reservation instants) are broken by a
//! [`SplitMix64`] hash of the spec's seed rather than input order, so
//! the partition is reproducible bit-for-bit across runs and platforms
//! yet not systematically biased toward low node ids.

use crate::SplitMix64;
use serde::{Deserialize, Serialize};
use vod_cost_model::{Request, RequestBatch};
use vod_topology::{NodeId, Topology};

/// How a batch is split into shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardStrategy {
    /// Pack whole IS neighborhoods onto shards, balancing request
    /// counts.
    ByRegion,
    /// Cut the chronologically-ordered batch into contiguous slices of
    /// near-equal size.
    ByTimeSlice,
}

/// A partitioning request: how many shards, which strategy, and the
/// seed that breaks ties deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Requested shard count. Clamped to `[1, batch-dependent maximum]`
    /// (the number of populated neighborhoods for [`ShardStrategy::ByRegion`],
    /// the number of requests for [`ShardStrategy::ByTimeSlice`]), so
    /// every returned shard is non-empty whenever the batch is.
    pub shards: usize,
    /// The partitioning strategy.
    pub strategy: ShardStrategy,
    /// Tie-break seed (see the module docs).
    pub seed: u64,
}

impl ShardSpec {
    /// Region partitioning with `shards` shards.
    pub fn by_region(shards: usize, seed: u64) -> Self {
        Self { shards, strategy: ShardStrategy::ByRegion, seed }
    }

    /// Time-slice partitioning with `shards` shards.
    pub fn by_time_slice(shards: usize, seed: u64) -> Self {
        Self { shards, strategy: ShardStrategy::ByTimeSlice, seed }
    }
}

/// Seeded tie-break hash: a pure function of `(seed, a, b)` through one
/// SplitMix64 step, independent of iteration order.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    SplitMix64::new(seed ^ a.rotate_left(32) ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Partition `batch` into at most `spec.shards` non-empty sub-batches.
///
/// The union of the returned batches is exactly `batch` (request
/// multisets are conserved), every batch is in canonical
/// [`RequestBatch`] order, and `spec.shards == 1` returns the whole
/// batch verbatim — the monolithic-equivalent partition the sharded
/// solver's bit-identicality contract is stated against. An empty batch
/// yields one empty shard.
pub fn partition_requests(
    topo: &Topology,
    batch: &RequestBatch,
    spec: &ShardSpec,
) -> Vec<RequestBatch> {
    match spec.strategy {
        ShardStrategy::ByRegion => partition_by_region(topo, batch, spec),
        ShardStrategy::ByTimeSlice => partition_by_time(batch, spec),
    }
}

fn partition_by_region(
    topo: &Topology,
    batch: &RequestBatch,
    spec: &ShardSpec,
) -> Vec<RequestBatch> {
    // Request count per home IS, a dense table over node indices.
    let mut counts = vec![0usize; topo.node_count()];
    for r in batch.iter() {
        counts[topo.home_of(r.user).index()] += 1;
    }
    // The populated neighborhoods, in ascending node order.
    let mut regions: Vec<(NodeId, usize)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &count)| count > 0)
        .map(|(i, &count)| (NodeId(i as u32), count))
        .collect();
    let shards = spec.shards.clamp(1, regions.len().max(1));

    // Longest-processing-time packing: place neighborhoods in
    // descending-load order onto the currently lightest shard. Equal
    // loads order by the seeded hash, then node id, so two
    // equally-popular neighborhoods don't always co-locate by id.
    regions.sort_by_key(|&(node, count)| {
        (std::cmp::Reverse(count), mix(spec.seed, node.0 as u64, 0xA11), node.0)
    });
    let mut loads = vec![0usize; shards];
    // Shard per home IS; only populated entries are ever read.
    let mut assignment = vec![0usize; topo.node_count()];
    for (node, count) in regions {
        let shard = (0..shards).min_by_key(|&s| (loads[s], s)).expect("at least one shard");
        loads[shard] += count;
        assignment[node.index()] = shard;
    }

    let mut buckets: Vec<Vec<Request>> = vec![Vec::new(); shards];
    for r in batch.iter() {
        buckets[assignment[topo.home_of(r.user).index()]].push(*r);
    }
    buckets.into_iter().map(RequestBatch::new).collect()
}

fn partition_by_time(batch: &RequestBatch, spec: &ShardSpec) -> Vec<RequestBatch> {
    // Chronological order with a seeded tie-break on simultaneous
    // reservations, so slice boundaries are reproducible and unbiased.
    // Each request is hashed once, ahead of the sort.
    let mut keyed: Vec<(u64, Request)> =
        batch.iter().map(|r| (mix(spec.seed, r.user.0 as u64, r.video.0 as u64), *r)).collect();
    let shards = spec.shards.clamp(1, keyed.len().max(1));
    keyed.sort_by(|(ma, a), (mb, b)| {
        a.start.total_cmp(&b.start).then((ma, a.user.0, a.video.0).cmp(&(mb, b.user.0, b.video.0)))
    });

    let n = keyed.len();
    let (base, rem) = (n / shards, n % shards);
    let mut out = Vec::with_capacity(shards);
    let mut taken = 0;
    for s in 0..shards {
        let len = base + usize::from(s < rem);
        out.push(RequestBatch::new(keyed[taken..taken + len].iter().map(|&(_, r)| r).collect()));
        taken += len;
    }
    debug_assert_eq!(taken, n);
    out
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // the BTreeMap partition is the oracle
mod tests {
    use super::*;
    use crate::{CatalogConfig, RequestConfig, Workload};
    use std::collections::BTreeMap;
    use vod_topology::builders::{paper_fig4, PaperFig4Config};

    fn setup(seed: u64) -> (Topology, RequestBatch) {
        let topo = paper_fig4(&PaperFig4Config::default());
        let wl = Workload::generate(
            &topo,
            &CatalogConfig::small(60),
            &RequestConfig { requests_per_user: 3, ..RequestConfig::paper() },
            seed,
        );
        (topo, wl.requests)
    }

    fn multiset(batch: &RequestBatch) -> Vec<(u32, u32, u64)> {
        let mut v: Vec<_> =
            batch.iter().map(|r| (r.user.0, r.video.0, r.start.to_bits())).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn partitions_conserve_requests() {
        let (topo, batch) = setup(3);
        for spec in [ShardSpec::by_region(4, 7), ShardSpec::by_time_slice(4, 7)] {
            let parts = partition_requests(&topo, &batch, &spec);
            assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), batch.len());
            let mut all: Vec<_> = parts.iter().flat_map(multiset).collect();
            all.sort_unstable();
            assert_eq!(all, multiset(&batch), "{:?} lost or duplicated requests", spec.strategy);
        }
    }

    #[test]
    fn one_shard_is_the_whole_batch() {
        let (topo, batch) = setup(4);
        for strategy in [ShardStrategy::ByRegion, ShardStrategy::ByTimeSlice] {
            let spec = ShardSpec { shards: 1, strategy, seed: 0 };
            let parts = partition_requests(&topo, &batch, &spec);
            assert_eq!(parts.len(), 1);
            assert_eq!(multiset(&parts[0]), multiset(&batch));
        }
    }

    #[test]
    fn by_region_never_splits_a_neighborhood() {
        let (topo, batch) = setup(5);
        let parts = partition_requests(&topo, &batch, &ShardSpec::by_region(5, 11));
        let mut owner: BTreeMap<NodeId, usize> = BTreeMap::new();
        for (s, part) in parts.iter().enumerate() {
            for r in part.iter() {
                let home = topo.home_of(r.user);
                assert_eq!(
                    *owner.entry(home).or_insert(s),
                    s,
                    "neighborhood {home} appears in two shards"
                );
            }
        }
    }

    #[test]
    fn by_time_slices_are_chronologically_contiguous() {
        let (topo, batch) = setup(6);
        let parts = partition_requests(&topo, &batch, &ShardSpec::by_time_slice(4, 13));
        let spans: Vec<(f64, f64)> = parts
            .iter()
            .map(|p| {
                let starts: Vec<f64> = p.iter().map(|r| r.start).collect();
                (
                    starts.iter().cloned().fold(f64::INFINITY, f64::min),
                    starts.iter().cloned().fold(0.0, f64::max),
                )
            })
            .collect();
        let mut sorted = spans.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in sorted.windows(2) {
            assert!(w[0].1 <= w[1].0 + 1e-9, "time slices overlap: {w:?}");
        }
    }

    #[test]
    fn shard_counts_clamp_and_stay_nonempty() {
        let (topo, batch) = setup(7);
        for spec in [ShardSpec::by_region(10_000, 1), ShardSpec::by_time_slice(10_000, 1)] {
            let parts = partition_requests(&topo, &batch, &spec);
            assert!(parts.len() <= batch.len());
            assert!(parts.iter().all(|p| !p.is_empty()), "clamped shards must be non-empty");
        }
        let empty = RequestBatch::new(Vec::new());
        let parts = partition_requests(&topo, &empty, &ShardSpec::by_region(4, 1));
        assert_eq!(parts.len(), 1);
        assert!(parts[0].is_empty());
    }

    #[test]
    fn partition_is_deterministic_per_seed_and_varies_with_it() {
        let (topo, batch) = setup(8);
        let sizes = |seed: u64| -> Vec<usize> {
            partition_requests(&topo, &batch, &ShardSpec::by_region(6, seed))
                .iter()
                .map(|p| p.len())
                .collect()
        };
        assert_eq!(sizes(21), sizes(21), "same seed must repartition identically");
        // Different seeds *may* coincide; probe a few to find a difference.
        let base = partition_requests(&topo, &batch, &ShardSpec::by_region(6, 21));
        let base_sets: Vec<_> = base.iter().map(multiset).collect();
        let mut any_difference = false;
        for seed in 22..40 {
            let other = partition_requests(&topo, &batch, &ShardSpec::by_region(6, seed));
            if other.iter().map(multiset).collect::<Vec<_>>() != base_sets {
                any_difference = true;
                break;
            }
        }
        assert!(any_difference, "the seeded tie-break never changed the packing");
    }

    #[test]
    fn region_loads_are_balanced() {
        let (topo, batch) = setup(9);
        let parts = partition_requests(&topo, &batch, &ShardSpec::by_region(4, 3));
        let max = parts.iter().map(|p| p.len()).max().unwrap();
        let min = parts.iter().map(|p| p.len()).min().unwrap();
        // LPT keeps the spread within the largest single neighborhood.
        let mut counts: BTreeMap<NodeId, usize> = BTreeMap::new();
        for r in batch.iter() {
            *counts.entry(topo.home_of(r.user)).or_insert(0) += 1;
        }
        let biggest = *counts.values().max().unwrap();
        assert!(max - min <= biggest, "spread {max}-{min} exceeds biggest neighborhood {biggest}");
    }

    /// `partition_by_time` as it stood before the sort was decorated: the
    /// comparator hashes both sides of every comparison. Kept verbatim as
    /// the reference the keyed sort must reproduce.
    fn partition_by_time_rehashing(batch: &RequestBatch, spec: &ShardSpec) -> Vec<RequestBatch> {
        let mut requests: Vec<Request> = batch.iter().copied().collect();
        let shards = spec.shards.clamp(1, requests.len().max(1));
        requests.sort_by(|a, b| {
            let ka = (mix(spec.seed, a.user.0 as u64, a.video.0 as u64), a.user.0, a.video.0);
            let kb = (mix(spec.seed, b.user.0 as u64, b.video.0 as u64), b.user.0, b.video.0);
            a.start.total_cmp(&b.start).then(ka.cmp(&kb))
        });

        let n = requests.len();
        let (base, rem) = (n / shards, n % shards);
        let mut out = Vec::with_capacity(shards);
        let mut taken = 0;
        for s in 0..shards {
            let len = base + usize::from(s < rem);
            out.push(RequestBatch::new(requests[taken..taken + len].to_vec()));
            taken += len;
        }
        out
    }

    /// `partition_by_region` as it stood before its tables went dense: two
    /// `BTreeMap`s keyed by home IS. Kept verbatim as the reference the
    /// dense tables must reproduce.
    fn partition_by_region_btree(
        topo: &Topology,
        batch: &RequestBatch,
        spec: &ShardSpec,
    ) -> Vec<RequestBatch> {
        // Request count per populated neighborhood, keyed by home IS.
        let mut counts: BTreeMap<NodeId, usize> = BTreeMap::new();
        for r in batch.iter() {
            *counts.entry(topo.home_of(r.user)).or_insert(0) += 1;
        }
        let shards = spec.shards.clamp(1, counts.len().max(1));

        // Longest-processing-time packing: place neighborhoods in
        // descending-load order onto the currently lightest shard. Equal
        // loads order by the seeded hash, then node id, so two
        // equally-popular neighborhoods don't always co-locate by id.
        let mut regions: Vec<(NodeId, usize)> = counts.into_iter().collect();
        regions.sort_by_key(|&(node, count)| {
            (std::cmp::Reverse(count), mix(spec.seed, node.0 as u64, 0xA11), node.0)
        });
        let mut loads = vec![0usize; shards];
        let mut assignment: BTreeMap<NodeId, usize> = BTreeMap::new();
        for (node, count) in regions {
            let shard = (0..shards).min_by_key(|&s| (loads[s], s)).expect("at least one shard");
            loads[shard] += count;
            assignment.insert(node, shard);
        }

        let mut buckets: Vec<Vec<Request>> = vec![Vec::new(); shards];
        for r in batch.iter() {
            buckets[assignment[&topo.home_of(r.user)]].push(*r);
        }
        buckets.into_iter().map(RequestBatch::new).collect()
    }

    proptest::proptest! {
        /// Random batches over the Fig. 4 network's users, few enough that
        /// some neighborhoods stay empty and loads tie, under shard counts
        /// from one to past the number of populated neighborhoods (19 at
        /// most), including the empty batch.
        #[test]
        fn dense_region_partition_equals_the_btree_maps(
            raw in proptest::collection::vec((0usize..1_000, 0u32..8, 0u32..4), 0..60),
            shards in 1usize..24,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use vod_cost_model::VideoId;
            let topo = paper_fig4(&PaperFig4Config::default());
            let users = topo.users();
            let requests = raw
                .iter()
                .map(|&(u, v, t)| Request {
                    user: users[u % users.len()].id,
                    video: VideoId(v),
                    start: 600.0 * t as f64,
                })
                .collect();
            let batch = RequestBatch::new(requests);
            let spec = ShardSpec::by_region(shards, seed);
            let dense = partition_by_region(&topo, &batch, &spec);
            let reference = partition_by_region_btree(&topo, &batch, &spec);
            proptest::prop_assert_eq!(dense.len(), reference.len());
            for (a, b) in dense.iter().zip(&reference) {
                proptest::prop_assert!(
                    a.iter().map(|r| (r.user, r.video, r.start.to_bits())).eq(b
                        .iter()
                        .map(|r| (r.user, r.video, r.start.to_bits()))),
                    "a shard differs from the reference partition"
                );
            }
        }

        /// Few distinct instants, users and titles: most slice boundaries
        /// fall inside a run of simultaneous reservations, where only the
        /// seeded tie-break decides which side a request lands on.
        #[test]
        fn keyed_time_partition_equals_the_rehashing_comparators(
            raw in proptest::collection::vec((0u32..12, 0u32..6, 0u32..5), 0..120),
            shards in 1usize..9,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use vod_cost_model::VideoId;
            use vod_topology::UserId;
            let requests = raw
                .iter()
                .map(|&(u, v, t)| Request { user: UserId(u), video: VideoId(v), start: 600.0 * t as f64 })
                .collect();
            let batch = RequestBatch::new(requests);
            let spec = ShardSpec::by_time_slice(shards, seed);
            let keyed = partition_by_time(&batch, &spec);
            let reference = partition_by_time_rehashing(&batch, &spec);
            proptest::prop_assert_eq!(keyed.len(), reference.len());
            for (a, b) in keyed.iter().zip(&reference) {
                proptest::prop_assert!(
                    a.iter().map(|r| (r.user, r.video, r.start.to_bits())).eq(b
                        .iter()
                        .map(|r| (r.user, r.video, r.start.to_bits()))),
                    "a slice differs from the reference partition"
                );
            }
        }
    }
}
