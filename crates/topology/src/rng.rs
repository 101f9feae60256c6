//! Deterministic pseudo-random number generation.
//!
//! Experiments must be bit-reproducible across platforms and dependency
//! upgrades, so the random networks here, the workload generator in
//! `vod-workload` and the fault plans in `vod-faults` draw from one
//! SplitMix64 stream (Steele, Lea & Flood 2014) instead of an external RNG
//! crate. SplitMix64 passes BigCrush, is trivially seedable, and every
//! value is a pure function of `(seed, position)`.

/// SplitMix64 pseudo-random generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Distinct seeds give independent-
    /// looking streams; the all-zero seed is fine (SplitMix64 has no weak
    /// seeds).
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`. Returns `lo` when the interval is
    /// empty or degenerate.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_f64() * (hi - lo)
    }

    /// Uniform integer in `[0, n)` via rejection-free multiply-shift
    /// (Lemire). `n` must be non-zero.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() needs a non-empty range");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(8);
        assert_ne!(SplitMix64::new(7).next_u64(), c.next_u64());
    }

    #[test]
    fn known_answer_vector() {
        // Reference values for SplitMix64 with seed 1234567, cross-checked
        // against the public-domain reference implementation. Pins the
        // stream so workload generation stays bit-stable forever.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(99);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut r = SplitMix64::new(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_f64_respects_bounds_and_degenerates() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let x = r.range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
        assert_eq!(r.range_f64(5.0, 5.0), 5.0);
        assert_eq!(r.range_f64(5.0, 1.0), 5.0);
    }

    #[test]
    fn index_covers_range_uniformly() {
        let mut r = SplitMix64::new(11);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.index(10)] += 1;
        }
        for &c in &counts {
            let expected = n / 10;
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < (expected / 10) as u64,
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-empty range")]
    fn index_zero_panics() {
        SplitMix64::new(0).index(0);
    }
}
