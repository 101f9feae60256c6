//! Cells the root suites share, as reductions of the benchmark's
//! scenarios.

use vod_paradigm::experiments::{Net, Scenario};

/// The benchmark's `ample_wide` cell reduced to `cycles` cycles on half
/// the network: 12 stores of 40 GB, 4 users per neighborhood asking 12
/// times a cycle out of regional catalogs of 120 titles, local-only
/// placement, four region shards.
pub fn small_ample_wide(cycles: usize) -> Scenario {
    let mut s = Scenario { titles: 120, cycles, ..Scenario::named("ample_wide") };
    let Net::Random { gen, .. } = &mut s.net else {
        unreachable!("ample_wide is a random network")
    };
    gen.storages = 12;
    gen.users_per_neighborhood = 4;
    s.arrivals.request.requests_per_user = 12;
    s.shard.shards = 4;
    s
}
