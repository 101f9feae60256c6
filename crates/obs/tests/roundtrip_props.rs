//! Property tests for the flight-recorder wire format: an arbitrary
//! recording — arbitrary f64 bit patterns (NaN, ±inf, subnormals),
//! adversarial strings — must serialize to one JSONL line per event,
//! reload bit-identically, and re-serialize to the same bytes.

use proptest::prelude::*;
use vod_obs::{Recorder, Recording};

/// Tiny deterministic generator so one proptest-drawn `u64` seed
/// expands into a whole recording.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // SplitMix64 step.
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        (((self.next() as u128) * (n as u128)) >> 64) as u64
    }

    fn f64_bits(&mut self) -> f64 {
        // Half the draws are fully arbitrary bit patterns (NaN payloads,
        // infinities, subnormals); the rest are "ordinary" values.
        if self.next() & 1 == 0 {
            f64::from_bits(self.next())
        } else {
            (self.next() as f64 / 2f64.powi(40)) - (1u64 << 23) as f64
        }
    }

    fn string(&mut self) -> String {
        const POOL: &[&str] = &[
            "full",
            "reduced",
            "greedy\nshed",
            "\"quoted\"",
            "back\\slash",
            "f64:cafef00d",
            "str:prefixed",
            "unicode λΨ☃",
            "\u{0007}ctrl",
            "",
        ];
        POOL[self.below(POOL.len() as u64) as usize].to_string()
    }
}

fn arbitrary_recording(seed: u64) -> Recording {
    let mut g = Gen(seed);
    let rec = Recorder::enabled();
    let n_events = g.below(20) as usize;
    for i in 0..n_events {
        if g.next() & 3 == 0 {
            rec.begin_cycle(g.below(1_000), g.f64_bits());
        }
        let kind = g.string();
        let kind = if kind.is_empty() { format!("k{i}") } else { kind };
        let n_fields = g.below(6) as usize;
        rec.event(&kind, |e| {
            for j in 0..n_fields {
                let name = format!("f{j}");
                match g.next() & 3 {
                    0 => {
                        e.u64(&name, g.next());
                    }
                    1 => {
                        e.f64(&name, g.f64_bits());
                    }
                    2 => {
                        e.bool(&name, g.next() & 1 == 0);
                    }
                    _ => {
                        e.str(&name, &g.string());
                    }
                }
            }
        });
    }
    rec.recording().expect("enabled")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// JSONL round-trip is lossless: emit(r) is one line per event,
    /// parse(emit(r)) == r bit-for-bit, and emit(parse(emit(r))) ==
    /// emit(r) byte-for-byte.
    #[test]
    fn jsonl_round_trip_is_bit_identical(seed in any::<u64>()) {
        let original = arbitrary_recording(seed);
        let text = original.to_jsonl();
        prop_assert_eq!(text.lines().count(), original.events.len());
        let reloaded = Recording::from_jsonl(&text)
            .expect("recorder output must always reparse");
        prop_assert_eq!(&reloaded, &original);
        prop_assert_eq!(reloaded.to_jsonl(), text);
    }
}

#[test]
fn empty_recording_round_trips() {
    let rec = Recorder::enabled();
    let r = rec.recording().expect("enabled");
    let back = Recording::from_jsonl(&r.to_jsonl()).expect("parses");
    assert_eq!(back, r);
    assert!(back.events.is_empty());
    assert!(r.to_jsonl().is_empty());
}
