//! The strict replay, pinned cycle by cycle on a reduced `ample_wide`
//! cell: a random network with ample stores, regional catalogs,
//! neighborhood-local placement and region shards, driven through
//! `ServiceLoop` and replayed with `replay_service_cycle`. Most of its
//! deliveries are served from the home storage over a one-node route,
//! whose stream crosses no link and so never enters the replay's event
//! list; every row must still read as it did when every stream's two
//! events were sorted and swept. A row is the replay's
//! `events_processed`, the bits of its makespan and Ψ, a digest of the
//! bits of its per-node peak occupancy, a digest of its per-link peak
//! stream counts, its cache-served deliveries and its violation count.

use vod_paradigm::core::{
    ExecMode, GreedyPolicy, SchedCtx, ServiceConfig, ServiceLoop, ShardConfig, SorpConfig,
};
use vod_paradigm::prelude::*;
use vod_paradigm::simulator::replay_service_cycle;
use vod_paradigm::workload::{
    generate_arrivals, generate_catalog, ArrivalConfig, CatalogConfig, RequestConfig,
};

const HORIZON: f64 = 24.0 * 3_600.0;

/// `(events_processed, makespan bits, Ψ bits, peak occupancy digest,
/// peak link streams digest, served from cache, violations)`.
type Row = (usize, u64, u64, u64, u64, usize, usize);

/// FNV-1a over a sequence of words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

#[test]
fn ample_wide_cell_replays_as_pinned() {
    let topo = builders::random_connected(
        &builders::GenConfig {
            storages: 12,
            capacity_gb: 40.0,
            users_per_neighborhood: 4,
            ..Default::default()
        },
        3,
        0xB0B,
    );
    let catalog = generate_catalog(&CatalogConfig::small(120), 0xCA7A_10C0_FFEE_0001);
    let request = RequestConfig { requests_per_user: 12, ..RequestConfig::with_alpha(0.271) };
    let arrivals = generate_arrivals(
        &topo,
        &catalog,
        &ArrivalConfig { request, cycles: PINNED.len(), regional: true, ..Default::default() },
        1997,
    );
    let policy = GreedyPolicy { allow_remote_placement: false, ..GreedyPolicy::default() };
    let cfg = ServiceConfig {
        shard: ShardConfig {
            sorp: SorpConfig { policy, ..SorpConfig::default() },
            ..ShardConfig::by_region(4)
        },
        horizon: HORIZON,
        ..ServiceConfig::default()
    };
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let mut svc = ServiceLoop::new(&topo, cfg).expect("an empty plan validates");

    let (mut next, mut one_node, mut deliveries) = (0, 0, 0);
    for (k, want) in PINNED.iter().enumerate() {
        let t0 = k as f64 * HORIZON;
        while next < arrivals.len() && arrivals[next].at <= t0 {
            svc.offer(arrivals[next].request).expect("an unbounded queue admits every offer");
            next += 1;
        }
        let cycle = svc.run_cycle(&ctx, ExecMode::Sequential);
        let sim = replay_service_cycle(&topo, &catalog, &model, &cycle);
        let m = &sim.metrics;
        let got: Row = (
            m.events_processed,
            m.makespan.to_bits(),
            m.total_cost.to_bits(),
            digest(m.peak_occupancy.iter().map(|x| x.to_bits())),
            digest(m.peak_link_streams.iter().map(|&n| n as u64)),
            m.served_from_cache,
            sim.violations.len(),
        );
        assert_eq!(&got, want, "cycle {k}");
        one_node += cycle.schedule.transfers().filter(|t| t.hop_count() == 0).count();
        deliveries += m.deliveries;
    }
    assert!(
        2 * one_node > deliveries,
        "the cell must be dominated by one-node streams: {one_node} of {deliveries}"
    );
}

#[rustfmt::skip]
const PINNED: [Row; 24] = [
    (1470, 4681052753389161988, 4687059096277126767, 2023748628795652312, 4649018377744746524, 462, 0),
    (1458, 4685344862149265082, 4686964612387222210, 6758320100708221989, 14453077151980416403, 462, 0),
    (1461, 4688298782475940433, 4687153342330938075, 12037209284685925576, 12057323176918496972, 459, 0),
    (1455, 4689770914141988376, 4687099851277369926, 657514255738010618, 6600912661755776732, 461, 0),
    (1452, 4691266549284036396, 4687094541022564537, 15475255499633891647, 11323977921190347480, 460, 0),
    (1470, 4692749901704560143, 4687140232261960735, 1008361338637126654, 1407343634019265104, 460, 0),
    (1455, 4693490912882167497, 4687095289278930663, 4814799541778809727, 2623725424390217558, 461, 0),
    (1476, 4694236520689927526, 4687041980872509359, 13454836707309563437, 15292071601315643667, 461, 0),
    (1458, 4694974822911390362, 4687274373354554267, 11416705692751839255, 7909056621504800792, 458, 0),
    (1473, 4695720097317144040, 4687106695742603102, 11675106206893335615, 12368972881382669877, 460, 0),
    (1464, 4696460759604315863, 4687205164382261936, 8783897814871645293, 17339326465808378391, 459, 0),
    (1449, 4697201622927458061, 4687168335739587864, 11840105615545715975, 6756774147014381142, 460, 0),
    (1467, 4697600976183147120, 4687309931874873616, 6546765976354533789, 123506322928592307, 458, 0),
    (1470, 4697971296388462071, 4687147810593051778, 6954627947453669461, 5186268223674847345, 459, 0),
    (1467, 4698340352757407643, 4687071261233333447, 18263623854349409909, 15242763347259183323, 461, 0),
    (1470, 4698713131756305354, 4687088166935490499, 11937711052010012954, 7935230622868925819, 460, 0),
    (1479, 4699084678264843632, 4687253510403154831, 15395424081437997096, 11193892514188503538, 458, 0),
    (1458, 4699453588540994927, 4687367170189778925, 18178597556816725393, 10127183303097319185, 457, 0),
    (1476, 4699826510438607473, 4687075827494367892, 13082257927278451870, 319649783339576880, 461, 0),
    (1461, 4700195194677063790, 4687008047252788601, 7271951101240873291, 16694775577780834896, 461, 0),
    (1458, 4700568887705061447, 4687259107066913144, 13689208385809904175, 2457607564988676891, 458, 0),
    (1479, 4700936608804476432, 4687436542573393268, 6301510604979290696, 2737701795028075321, 456, 0),
    (1461, 4701310078051428433, 4687032406296684940, 1653766596219611363, 4017174420039450239, 462, 0),
    (1467, 4701679492277370831, 4687291586468105178, 16467969825567395357, 4627671077483777015, 459, 0),
];
