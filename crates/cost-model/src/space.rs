//! The residency space-occupancy function `f_c(t)` (paper Eqs. 6–7).
//!
//! A residency caches a file by copying blocks out of an on-going stream,
//! and blocks are dropped as the chronologically-last service consumes
//! them. The paper models the occupied space as
//!
//! ```text
//! f_c(t) = γ·size                     for t_s ≤ t < t_f
//!        = γ·size·(1 − (t−t_f)/P)     for t_f ≤ t < t_f + P
//!        = 0                          otherwise
//! ```
//!
//! with `γ = 1` for a *long residency* (`t_f − t_s ≥ P`: the whole file is
//! eventually on disk) and `γ = (t_f − t_s)/P` for a *short residency*
//! (loading happens at playback rate, so a stay shorter than the playback
//! length never accumulates the whole file). The same function drives both
//! the storage cost (its full integral, Eqs. 2–3) and overflow detection /
//! heat computation (its windowed integral, Eq. 5).

use crate::{Bytes, Secs};
use serde::{Deserialize, Serialize};

/// How a residency's occupancy builds up (the choice the paper leaves
/// implicit in §2.2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpaceModel {
    /// The paper's model: the plateau `γ·size` is reserved instantaneously
    /// at `t_s` ("the storage space … needs to be reserved from the start
    /// of the caching"). This is what the evaluation uses.
    InstantReservation,
    /// Exact block-level accounting: blocks arrive at playback rate from
    /// `t_s` and are dropped as the last service consumes them, giving a
    /// trapezoid (linear rise, plateau, linear drain) whose full integral
    /// closes to `γ·size·(max(t_f, t_s+P) − t_s)`. Offered as an ablation;
    /// note it can charge *more* than the paper's γ-approximation for very
    /// short residencies (Δ < P/2).
    GradualFill,
}

/// Piecewise-linear space occupancy of one residency at one storage:
/// zero before `start`, linear rise to the plateau over `[start, full]`
/// (empty under [`SpaceModel::InstantReservation`]), the plateau over
/// `[full, last]`, and a linear drain to zero over `[last, end]`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpaceProfile {
    /// Caching start `t_s`.
    pub start: Secs,
    /// Time the plateau is reached (`= start` for instant reservation).
    pub full: Secs,
    /// End of the plateau (start of the drain).
    pub last: Secs,
    /// End of occupancy.
    pub end: Secs,
    /// Plateau height `γ·size` in bytes.
    pub plateau: Bytes,
}

impl SpaceProfile {
    /// Build the profile for a residency `[t_s, t_f]` of a file with the
    /// given size and playback length.
    ///
    /// # Panics
    ///
    /// Panics if `t_f < t_s`, if `playback <= 0`, or if `size < 0` — those
    /// are malformed residencies, not priceable schedules.
    pub fn new(t_s: Secs, t_f: Secs, size: Bytes, playback: Secs) -> Self {
        assert!(t_f >= t_s, "residency interval reversed: [{t_s}, {t_f}]");
        assert!(playback > 0.0, "playback must be positive, got {playback}");
        assert!(size >= 0.0, "size must be non-negative, got {size}");
        let gamma = ((t_f - t_s) / playback).min(1.0);
        Self { start: t_s, full: t_s, last: t_f, end: t_f + playback, plateau: gamma * size }
    }

    /// Build a profile under an explicit [`SpaceModel`].
    ///
    /// Under [`SpaceModel::GradualFill`] the rise and drain both last
    /// `min(t_f − t_s, P)` and the plateau runs to `max(t_f, t_s + P)`
    /// (arrival continues at playback rate while the last service
    /// consumes at the same rate, holding occupancy constant).
    pub fn with_model(
        t_s: Secs,
        t_f: Secs,
        size: Bytes,
        playback: Secs,
        model: SpaceModel,
    ) -> Self {
        match model {
            SpaceModel::InstantReservation => Self::new(t_s, t_f, size, playback),
            SpaceModel::GradualFill => {
                assert!(t_f >= t_s, "residency interval reversed: [{t_s}, {t_f}]");
                assert!(playback > 0.0, "playback must be positive, got {playback}");
                assert!(size >= 0.0, "size must be non-negative, got {size}");
                let delta = t_f - t_s;
                let rise = delta.min(playback);
                let gamma = (delta / playback).min(1.0);
                let plateau_end = t_f.max(t_s + playback);
                Self {
                    start: t_s,
                    full: t_s + rise,
                    last: plateau_end,
                    end: plateau_end + rise,
                    plateau: gamma * size,
                }
            }
        }
    }

    /// A step: `height` over `[start, end)`, zero elsewhere — no rise, no
    /// drain (`last == end`). A stream occupying a link at its video's
    /// bandwidth for its playback is one.
    ///
    /// # Panics
    ///
    /// Panics if `end < start` or `height < 0`.
    pub fn step(start: Secs, end: Secs, height: f64) -> Self {
        assert!(end >= start, "step interval reversed: [{start}, {end}]");
        assert!(height >= 0.0, "height must be non-negative, got {height}");
        Self { start, full: start, last: end, end, plateau: height }
    }

    /// The γ coefficient of Eq. 7 expressed as the plateau fraction of the
    /// full file size (`0 ≤ γ ≤ 1`).
    pub fn gamma(&self, size: Bytes) -> f64 {
        if size == 0.0 {
            0.0
        } else {
            self.plateau / size
        }
    }

    /// Space occupied at time `t` (Eq. 6, generalised to the trapezoid).
    pub fn space_at(&self, t: Secs) -> Bytes {
        if t < self.start || t >= self.end {
            0.0
        } else if t < self.full {
            self.plateau * (t - self.start) / (self.full - self.start)
        } else if t < self.last {
            self.plateau
        } else {
            let drain = self.end - self.last;
            // Clamp: floating point can push the ramp a hair below zero
            // right at the support boundary.
            (self.plateau * (1.0 - (t - self.last) / drain)).max(0.0)
        }
    }

    /// Peak space requirement (the plateau height; for a degenerate
    /// single-service residency this is 0 — a pure relay holds no blocks).
    #[inline]
    pub fn peak(&self) -> Bytes {
        self.plateau
    }

    /// Full time-space integral `∫ f_c(t) dt` in byte·seconds. Closed
    /// form: `γ·size·((t_f − t_s) + P/2)` — exactly the bracketed factor of
    /// the paper's Eqs. 2 and 3.
    pub fn integral(&self) -> f64 {
        let rise = self.full - self.start;
        let drain = self.end - self.last;
        self.plateau * ((self.last - self.full) + rise / 2.0 + drain / 2.0)
    }

    /// Windowed time-space integral `∫_a^b f_c(t) dt` (paper Eq. 5, the ΔS
    /// numerator of the heat metrics). `a > b` yields 0.
    pub fn integral_over(&self, a: Secs, b: Secs) -> f64 {
        if b <= a {
            return 0.0;
        }
        // Rise segment [start, full]: f(t) = plateau · (t − start)/rise.
        let rise_part = {
            let ra = a.max(self.start);
            let rb = b.min(self.full);
            if rb > ra {
                let rise = self.full - self.start;
                let u0 = ra - self.start;
                let u1 = rb - self.start;
                self.plateau * (u1 * u1 - u0 * u0) / (2.0 * rise)
            } else {
                0.0
            }
        };

        // Plateau segment [full, last].
        let pa = a.max(self.full);
        let pb = b.min(self.last);
        let plateau_part = if pb > pa { self.plateau * (pb - pa) } else { 0.0 };

        // Drain segment [last, end]: f(t) = plateau · (1 − (t − last)/drain).
        let ra = a.max(self.last);
        let rb = b.min(self.end);
        let ramp_part = if rb > ra {
            let drain = self.end - self.last;
            let u0 = ra - self.last;
            let u1 = rb - self.last;
            self.plateau * ((u1 - u0) - (u1 * u1 - u0 * u0) / (2.0 * drain))
        } else {
            0.0
        };

        rise_part + plateau_part + ramp_part
    }

    /// The times at which the profile's slope changes. Between consecutive
    /// breakpoints (of the union of all profiles) the aggregate storage
    /// occupancy is linear, which is what the overflow detector exploits.
    pub fn breakpoints(&self) -> [Secs; 4] {
        [self.start, self.full, self.last, self.end]
    }

    /// The profile decomposed into (Δvalue, Δslope) deltas at its
    /// breakpoints: summing `jump + slope · (t − delta.t)` over every
    /// delta with `delta.t ≤ t` reproduces [`SpaceProfile::space_at`].
    ///
    /// This is the exact-slope representation a ledger row
    /// aggregates: a degenerate rise (`full == start`, the paper's
    /// instant-reservation model) becomes a right-continuous value jump
    /// of the full plateau, a real rise becomes a ±slope pair, and a real
    /// drain a ±slope pair at `last`/`end`; a degenerate drain (`last ==
    /// end`, a [`SpaceProfile::step`]) is one downward jump of the plateau
    /// at `end`. Degenerate (zero-plateau) profiles decompose into
    /// nothing. At most 4 deltas; times are non-decreasing but may repeat
    /// (e.g. `full == last`).
    pub fn slope_deltas(&self) -> BreakDeltas {
        let mut out = BreakDeltas::default();
        if self.plateau == 0.0 {
            return out;
        }
        if self.full > self.start {
            let m_rise = self.plateau / (self.full - self.start);
            out.push(BreakDelta { t: self.start, jump: 0.0, slope: m_rise });
            out.push(BreakDelta { t: self.full, jump: 0.0, slope: -m_rise });
        } else {
            out.push(BreakDelta { t: self.start, jump: self.plateau, slope: 0.0 });
        }
        if self.end > self.last {
            let m_drain = self.plateau / (self.end - self.last);
            out.push(BreakDelta { t: self.last, jump: 0.0, slope: -m_drain });
            out.push(BreakDelta { t: self.end, jump: 0.0, slope: m_drain });
        } else {
            out.push(BreakDelta { t: self.end, jump: -self.plateau, slope: 0.0 });
        }
        out
    }
}

/// One breakpoint of a piecewise-linear occupancy function expressed as a
/// delta: at time `t` the function's value jumps by `jump` (it is
/// right-continuous, so the jump is included at `t` itself) and its slope
/// changes by `slope` bytes per second.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BreakDelta {
    /// Breakpoint time.
    pub t: Secs,
    /// Right-continuous value jump at `t`, in bytes.
    pub jump: Bytes,
    /// Slope change at `t`, in bytes per second.
    pub slope: f64,
}

/// Up to four [`BreakDelta`]s of one profile, in non-decreasing time
/// order, without heap allocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct BreakDeltas {
    items: [BreakDelta; 4],
    len: usize,
}

impl BreakDeltas {
    fn push(&mut self, d: BreakDelta) {
        self.items[self.len] = d;
        self.len += 1;
    }

    /// The deltas as a slice.
    pub fn as_slice(&self) -> &[BreakDelta] {
        &self.items[..self.len]
    }
}

impl std::ops::Deref for BreakDeltas {
    type Target = [BreakDelta];

    fn deref(&self) -> &[BreakDelta] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a BreakDeltas {
    type Item = &'a BreakDelta;
    type IntoIter = std::slice::Iter<'a, BreakDelta>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: Secs = 100.0;
    const SZ: Bytes = 1000.0;

    #[test]
    fn long_residency_plateau_is_full_size() {
        let p = SpaceProfile::new(0.0, 250.0, SZ, P);
        assert_eq!(p.plateau, SZ);
        assert_eq!(p.gamma(SZ), 1.0);
        assert_eq!(p.space_at(-1.0), 0.0);
        assert_eq!(p.space_at(0.0), SZ);
        assert_eq!(p.space_at(249.9), SZ);
        assert_eq!(p.space_at(300.0), SZ / 2.0); // halfway down the ramp
        assert_eq!(p.space_at(350.0), 0.0);
    }

    #[test]
    fn short_residency_scales_by_gamma() {
        // Δ = 40 < P = 100 → γ = 0.4.
        let p = SpaceProfile::new(10.0, 50.0, SZ, P);
        assert!((p.plateau - 400.0).abs() < 1e-12);
        assert!((p.gamma(SZ) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn degenerate_residency_occupies_nothing() {
        // A single service (t_f == t_s) is a pure relay: zero space.
        let p = SpaceProfile::new(30.0, 30.0, SZ, P);
        assert_eq!(p.plateau, 0.0);
        assert_eq!(p.integral(), 0.0);
        assert_eq!(p.space_at(30.0), 0.0);
    }

    #[test]
    fn integral_closed_form_long() {
        // Eq. 2 bracket: (t_f − t_s) + P/2 = 250 + 50.
        let p = SpaceProfile::new(0.0, 250.0, SZ, P);
        assert!((p.integral() - SZ * 300.0).abs() < 1e-9);
    }

    #[test]
    fn integral_closed_form_short() {
        // γ·size·(Δ + P/2) = 0.4·1000·(40 + 50).
        let p = SpaceProfile::new(10.0, 50.0, SZ, P);
        assert!((p.integral() - 36_000.0).abs() < 1e-9);
    }

    #[test]
    fn windowed_integral_matches_numeric_quadrature() {
        let p = SpaceProfile::new(20.0, 170.0, SZ, P);
        let windows = [(-50.0, 10.0), (0.0, 100.0), (150.0, 260.0), (-10.0, 400.0), (169.0, 171.0)];
        for (a, b) in windows {
            let analytic = p.integral_over(a, b);
            // Midpoint rule with fine steps.
            let n = 200_000;
            let h = (b - a) / n as f64;
            let numeric: f64 = (0..n).map(|i| p.space_at(a + (i as f64 + 0.5) * h) * h).sum();
            assert!(
                (analytic - numeric).abs() < SZ * (b - a) * 1e-4 + 1e-6,
                "window [{a},{b}]: analytic={analytic} numeric={numeric}"
            );
        }
    }

    #[test]
    fn windowed_integral_over_everything_equals_full_integral() {
        let p = SpaceProfile::new(5.0, 60.0, SZ, P);
        assert!((p.integral_over(-1e6, 1e6) - p.integral()).abs() < 1e-6);
    }

    #[test]
    fn windowed_integral_is_additive() {
        let p = SpaceProfile::new(0.0, 130.0, SZ, P);
        let whole = p.integral_over(0.0, 230.0);
        let parts = p.integral_over(0.0, 77.0) + p.integral_over(77.0, 230.0);
        assert!((whole - parts).abs() < 1e-9);
    }

    #[test]
    fn empty_or_reversed_window_is_zero() {
        let p = SpaceProfile::new(0.0, 130.0, SZ, P);
        assert_eq!(p.integral_over(50.0, 50.0), 0.0);
        assert_eq!(p.integral_over(60.0, 50.0), 0.0);
    }

    #[test]
    fn breakpoints_are_ordered() {
        let p = SpaceProfile::new(3.0, 9.0, SZ, P);
        let [a, b, c, d] = p.breakpoints();
        assert!(a <= b && b <= c && c <= d);
        assert_eq!(d, 9.0 + P);
    }

    #[test]
    fn gradual_fill_long_residency_is_a_trapezoid() {
        // Δ = 250 ≥ P = 100: rise [0,100], plateau [100,250], drain [250,350].
        let p = SpaceProfile::with_model(0.0, 250.0, SZ, P, SpaceModel::GradualFill);
        assert_eq!(p.full, 100.0);
        assert_eq!(p.last, 250.0);
        assert_eq!(p.end, 350.0);
        assert_eq!(p.plateau, SZ);
        assert_eq!(p.space_at(50.0), SZ / 2.0); // halfway up the rise
        assert_eq!(p.space_at(150.0), SZ);
        assert_eq!(p.space_at(300.0), SZ / 2.0);
        // Exact integral: size · Δ.
        assert!((p.integral() - SZ * 250.0).abs() < 1e-9);
    }

    #[test]
    fn gradual_fill_short_residency() {
        // Δ = 40 < P = 100: rise [10,50] to 0.4·size, plateau to
        // t_s + P = 110, drain to 150. Integral = size · Δ.
        let p = SpaceProfile::with_model(10.0, 50.0, SZ, P, SpaceModel::GradualFill);
        assert_eq!(p.full, 50.0);
        assert_eq!(p.last, 110.0);
        assert_eq!(p.end, 150.0);
        assert!((p.plateau - 400.0).abs() < 1e-12);
        assert!((p.integral() - SZ * 40.0).abs() < 1e-9);
    }

    #[test]
    fn gradual_fill_windowed_integral_matches_quadrature() {
        let p = SpaceProfile::with_model(20.0, 170.0, SZ, P, SpaceModel::GradualFill);
        for (a, b) in [(0.0, 60.0), (30.0, 200.0), (-10.0, 400.0), (115.0, 125.0)] {
            let analytic = p.integral_over(a, b);
            let n = 200_000;
            let h = (b - a) / n as f64;
            let numeric: f64 = (0..n).map(|i| p.space_at(a + (i as f64 + 0.5) * h) * h).sum();
            assert!(
                (analytic - numeric).abs() < SZ * (b - a) * 1e-4 + 1e-6,
                "window [{a},{b}]: analytic={analytic} numeric={numeric}"
            );
        }
        assert!((p.integral_over(-1e6, 1e6) - p.integral()).abs() < 1e-6);
    }

    #[test]
    fn models_agree_on_peak_but_differ_on_shape() {
        let inst = SpaceProfile::with_model(0.0, 60.0, SZ, P, SpaceModel::InstantReservation);
        let grad = SpaceProfile::with_model(0.0, 60.0, SZ, P, SpaceModel::GradualFill);
        assert_eq!(inst.peak(), grad.peak());
        // Very short residency (Δ = 60 > P/2 = 50): instant charges more.
        // γS(Δ+P/2) = 0.6·1000·110 = 66000 vs γS·P = 0.6·1000·100 = 60000.
        assert!(inst.integral() > grad.integral());
        // But at Δ = 20 < P/2 the γ-approximation undercharges:
        // 0.2·1000·70 = 14000 < 1000·20 = 20000.
        let inst2 = SpaceProfile::with_model(0.0, 20.0, SZ, P, SpaceModel::InstantReservation);
        let grad2 = SpaceProfile::with_model(0.0, 20.0, SZ, P, SpaceModel::GradualFill);
        assert!(inst2.integral() < grad2.integral());
    }

    #[test]
    fn instant_model_via_with_model_matches_new() {
        let a = SpaceProfile::new(5.0, 80.0, SZ, P);
        let b = SpaceProfile::with_model(5.0, 80.0, SZ, P, SpaceModel::InstantReservation);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "interval reversed")]
    fn reversed_interval_panics() {
        SpaceProfile::new(10.0, 5.0, SZ, P);
    }

    /// Evaluate a delta decomposition at `t` the slow way.
    fn eval_deltas(deltas: &BreakDeltas, t: Secs) -> f64 {
        deltas.iter().filter(|d| d.t <= t).map(|d| d.jump + d.slope * (t - d.t)).sum()
    }

    #[test]
    fn slope_deltas_reproduce_space_at_instant() {
        let p = SpaceProfile::new(0.0, 250.0, SZ, P);
        let d = p.slope_deltas();
        assert_eq!(d.len(), 3, "instant reservation: jump + drain pair");
        assert_eq!(d[0], BreakDelta { t: 0.0, jump: SZ, slope: 0.0 });
        for t in [-5.0, 0.0, 100.0, 249.0, 250.0, 300.0, 350.0, 400.0] {
            assert!(
                (eval_deltas(&d, t) - p.space_at(t)).abs() < 1e-9 * SZ,
                "t={t}: deltas {} vs space_at {}",
                eval_deltas(&d, t),
                p.space_at(t)
            );
        }
    }

    #[test]
    fn slope_deltas_reproduce_space_at_gradual() {
        let p = SpaceProfile::with_model(20.0, 170.0, SZ, P, SpaceModel::GradualFill);
        let d = p.slope_deltas();
        assert_eq!(d.len(), 4, "gradual fill: rise pair + drain pair");
        for t in [0.0, 20.0, 60.0, 120.0, 170.0, 200.0, 270.0, 300.0] {
            assert!(
                (eval_deltas(&d, t) - p.space_at(t)).abs() < 1e-9 * SZ,
                "t={t}: deltas {} vs space_at {}",
                eval_deltas(&d, t),
                p.space_at(t)
            );
        }
        // Past the support the deltas cancel to ~0 (exact cancellation of
        // the ± slope pairs up to one rounding of plateau/drain).
        assert!(eval_deltas(&d, 1e6).abs() < 1e-6);
    }

    #[test]
    fn slope_deltas_of_a_step_are_two_finite_jumps() {
        let p = SpaceProfile::step(10.0, 40.0, SZ);
        assert_eq!((p.space_at(9.0), p.space_at(10.0), p.space_at(39.9)), (0.0, SZ, SZ));
        assert_eq!(p.space_at(40.0), 0.0);
        assert_eq!(p.integral(), SZ * 30.0);
        let d = p.slope_deltas();
        assert_eq!(
            d.as_slice(),
            [
                BreakDelta { t: 10.0, jump: SZ, slope: 0.0 },
                BreakDelta { t: 40.0, jump: -SZ, slope: 0.0 }
            ]
        );
        for t in [0.0, 10.0, 25.0, 40.0, 1e9] {
            assert_eq!(eval_deltas(&d, t), p.space_at(t), "t={t}");
        }
    }

    #[test]
    fn slope_deltas_of_degenerate_profile_are_empty() {
        let p = SpaceProfile::new(30.0, 30.0, SZ, P);
        assert!(p.slope_deltas().is_empty());
    }

    #[test]
    fn slope_delta_times_are_non_decreasing() {
        for p in [
            SpaceProfile::new(3.0, 9.0, SZ, P),
            SpaceProfile::with_model(3.0, 103.0, SZ, P, SpaceModel::GradualFill),
            SpaceProfile::with_model(3.0, 500.0, SZ, P, SpaceModel::GradualFill),
        ] {
            let d = p.slope_deltas();
            assert!(d.windows(2).all(|w| w[0].t <= w[1].t), "{d:?}");
        }
    }
}
