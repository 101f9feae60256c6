//! The named scenarios are the benchmark's workloads. `Scenario::named`
//! must build what `benchmark/src/adapter.rs::setup` builds for the same
//! workload and seed: the topology, the catalog, the arrival trace, the
//! fault plan and the shard and service settings. The harness keeps its
//! own plain-data specs and cannot be called from here, so each row below
//! is a digest of its set-up, taken once by running this file's digest
//! over the `World` that `setup(spec, seed, spec.cycles)` returned. A
//! workload change on either side fails its row.

use std::fmt::Write as _;
use vod_paradigm::core::ServiceConfig;
use vod_paradigm::experiments::Scenario;
use vod_paradigm::prelude::*;
use vod_paradigm::workload::Arrival;

/// Cycles of arrivals the digest covers.
const DIGEST_CYCLES: usize = 40;

/// FNV-1a over text.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// FNV-1a over `x`'s `Debug` text. An `f64` prints as the shortest text
/// that reads back to its bits, so equal digests mean equal values.
fn fnv(x: &dyn std::fmt::Debug) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{x:?}").expect("hashing cannot fail");
    h.0
}

/// Digests of the topology, the catalog, the arrivals reserved in the
/// first [`DIGEST_CYCLES`] windows (in trace order), the fault plan, and
/// the shard config with the horizon, queue bound, budget and backoff.
fn digest(
    topo: &Topology,
    catalog: &Catalog,
    arrivals: &[Arrival],
    cfg: &ServiceConfig,
) -> [u64; 5] {
    let cut = DIGEST_CYCLES as f64 * cfg.horizon;
    let early: Vec<&Arrival> = arrivals.iter().filter(|a| a.request.start < cut).collect();
    [
        fnv(topo),
        fnv(catalog),
        fnv(&early),
        fnv(&cfg.faults),
        fnv(&(&cfg.shard, cfg.horizon, cfg.queue_bound, cfg.budget_ns, &cfg.backoff)),
    ]
}

/// `(workload, cycles per repetition, seed, digests)`, from the harness.
#[rustfmt::skip]
const HARNESS: [(&str, usize, u64, [u64; 5]); 8] = [
    ("steady", 1000, 1997, [0x3ef8adffe52b1375, 0xe26027496f8435c4, 0xd00572dbb98cddff, 0xc4b64532b05569c3, 0x6b402e98f063a1a5]),
    ("steady", 1000, 4242, [0x3ef8adffe52b1375, 0xe26027496f8435c4, 0xec3faf1873302d83, 0xc4b64532b05569c3, 0x6b402e98f063a1a5]),
    ("contended", 200, 1997, [0xa2ac8a9a01e60f87, 0xc637afb1cca8bd1f, 0xfad69870d7fb2e5b, 0xc4b64532b05569c3, 0xa57cd4fc6719d3ae]),
    ("contended", 200, 4242, [0xa2ac8a9a01e60f87, 0xc637afb1cca8bd1f, 0x05bcd8738a3f9df0, 0xc4b64532b05569c3, 0xa57cd4fc6719d3ae]),
    ("overload_faults", 800, 1997, [0x3ef8adffe52b1375, 0x3220dcabcbf19c2f, 0xb0536fe64fc50c98, 0x915051fec16e8c63, 0xb4e5daf773cd1c47]),
    ("overload_faults", 800, 4242, [0x3ef8adffe52b1375, 0x3220dcabcbf19c2f, 0xb2bccd00330819e5, 0x2c1cc411dd118389, 0xb4e5daf773cd1c47]),
    ("ample_wide", 300, 1997, [0x90db15a272e4e8dd, 0x08b994b22566245a, 0x413d97b8a9970664, 0xc4b64532b05569c3, 0x22926fb73c927590]),
    ("ample_wide", 300, 4242, [0x90db15a272e4e8dd, 0x08b994b22566245a, 0x383ce62a495860db, 0xc4b64532b05569c3, 0x22926fb73c927590]),
];

#[test]
fn named_scenarios_build_what_the_harness_builds() {
    const PARTS: [&str; 5] = ["topology", "catalog", "arrivals", "fault plan", "service config"];
    for &(name, cycles, seed, want) in &HARNESS {
        let named = Scenario::named(name);
        assert_eq!(named.cycles, cycles, "{name}: cycles per repetition");
        assert_eq!(named.seed, 1997, "{name}: the harness's default seed");
        // Driving fewer cycles draws the same trace prefix and fault plan.
        let (topo, catalog, arrivals, cfg) =
            Scenario { seed, cycles: DIGEST_CYCLES, ..named }.build();
        let got = digest(&topo, &catalog, &arrivals, &cfg);
        for ((part, got), want) in PARTS.iter().zip(got).zip(want) {
            assert_eq!(got, want, "{name} at seed {seed}: the {part} differs from the harness's");
        }
    }
    assert_eq!(
        Scenario::NAMES.to_vec(),
        HARNESS.iter().step_by(2).map(|r| r.0).collect::<Vec<_>>(),
        "every named scenario has harness rows"
    );
}
