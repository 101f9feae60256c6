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
//! From cycle 1 on most of the cell's copies are continued from the copies
//! the previous commit held: carried residencies, whose feed is the
//! inherited copy and whose occupancy and Ψ are the continuation alone.

mod common;

use vod_paradigm::core::{ExecMode, SchedCtx, ServiceLoop};
use vod_paradigm::prelude::*;
use vod_paradigm::simulator::replay_service_cycle;

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
    let (topo, catalog, arrivals, cfg) = common::small_ample_wide(PINNED.len()).build();
    let horizon = cfg.horizon;
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let mut svc = ServiceLoop::new(&topo, cfg).expect("an empty plan validates");

    let (mut next, mut one_node, mut deliveries) = (0, 0, 0);
    for (k, want) in PINNED.iter().enumerate() {
        let t0 = k as f64 * horizon;
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
    (1470, 4681104977415150305, 4687225547962979790, 13710310018944342030, 4649018377744746524, 462, 0),
    (1583, 4685392976335228272, 4677548717831373134, 9063507407517020007, 10012478854865174149, 560, 0),
    (1601, 4688304434911454904, 4676589288057815850, 1855078464995988066, 9747071220303701798, 566, 0),
    (1598, 4689788775608952504, 4675564837809171722, 5432461889007153898, 5241090751291015430, 571, 0),
    (1605, 4691273116306450104, 4676289699800993441, 12520526939865426756, 22251650302496740, 568, 0),
    (1608, 4692754134362002268, 4675428125129964804, 7765230130455618131, 6572672715475928389, 571, 0),
    (1607, 4693496304710751068, 4675444967924103359, 4100088081167134722, 4035795637279152998, 571, 0),
    (1607, 4694238475059499868, 4675357997608178978, 10647580611117031295, 7614344556516362566, 571, 0),
    (1619, 4694980645408248668, 4675707141577498079, 1897891469346334145, 8429216730072356581, 571, 0),
    (1614, 4695722815756997468, 4674438800301736790, 17533425151048566388, 5833115976507295717, 574, 0),
    (1616, 4696464986105746268, 4675379695852668305, 2298941956635965072, 3049032417892845541, 572, 0),
    (1613, 4697207156454495068, 4674897766093941847, 3614473789998724901, 1757040984693120388, 573, 0),
    (1614, 4697601869075335598, 4675057302315593458, 11385733583061823698, 5780535602228811495, 572, 0),
    (1610, 4697972954249709998, 4675101266922955094, 5574640957960917646, 8314507297366486948, 572, 0),
    (1604, 4698344039424084398, 4675620423600982922, 16650654519985260880, 16809907784564522918, 571, 0),
    (1611, 4698715124598458798, 4675315551658991535, 11207321110703337102, 7241424183856773927, 571, 0),
    (1620, 4699086209772833198, 4675527471190647383, 5196854900676696649, 1301377531513418534, 572, 0),
    (1626, 4699457294947207598, 4674816050108149078, 15591818522877185453, 4899662044031049093, 574, 0),
    (1611, 4699828380121581998, 4673919138530508865, 13502073996227223221, 16362177985517984197, 575, 0),
    (1608, 4700199465295956398, 4675167247205109325, 4754580356063366971, 9907248989106863430, 572, 0),
    (1619, 4700570550470330798, 4675779432279408826, 8152787239474329545, 10464186472664405734, 571, 0),
    (1630, 4700941635644705198, 4674807823703186752, 15063680185659590712, 8843372835489255460, 574, 0),
    (1608, 4701312720819079598, 4673359243626864012, 6105428638631101285, 16041717257755306629, 576, 0),
    (1614, 4701683805993453998, 4675688497953152049, 8444484137641402674, 17180698524337845958, 570, 0),
];
