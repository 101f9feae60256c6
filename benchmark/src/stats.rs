//! Order statistics for the benchmark: nearest-rank percentiles, the
//! "ten samples beyond" rule, the per-cycle floor over repetitions, and the
//! median.

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `p` in `(0, 100]`; panics on an empty
/// sample (a benchmark that measured nothing is a bug, not a zero).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).min(n)
}

/// A percentile is reportable when at least ten samples lie beyond it.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// The least sample. Repetitions of the same deterministic work differ by
/// what the machine added, never by what it took away.
pub fn least(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "least of an empty sample");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Per-cycle floor: `rows` are repetitions of the same cycles; cycle `k` of
/// the result is the least of cycle `k` over the repetitions.
pub fn floor(rows: &[Vec<f64>]) -> Vec<f64> {
    assert!(!rows.is_empty(), "floor of no repetitions");
    assert!(rows.iter().all(|r| r.len() == rows[0].len()), "repetitions of unequal length");
    (0..rows[0].len()).map(|k| least(&rows.iter().map(|r| r[k]).collect::<Vec<_>>())).collect()
}

/// Median with the two middle samples averaged on an even count — the
/// statistic taken over probe samples.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 5.0), 15.0);
        assert_eq!(percentile(&s, 30.0), 20.0);
        assert_eq!(percentile(&s, 40.0), 20.0);
        assert_eq!(percentile(&s, 50.0), 35.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[50.0, 15.0, 40.0, 20.0, 35.0], 50.0), 35.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn p95_of_200_is_the_190th_sample() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 95.0), 190.0);
        assert_eq!(samples_beyond(200, 95.0), 10);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(percentile_supported(200, 95.0));
        assert!(!percentile_supported(199, 95.0));
        assert!(!percentile_supported(20, 95.0));
        assert!(percentile_supported(20, 50.0));
        assert!(percentile_supported(1000, 99.0));
        assert!(!percentile_supported(999, 99.0));
        assert_eq!(samples_beyond(0, 95.0), 0);
    }

    #[test]
    fn median_of_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        // One noisy sample out of three does not move the result.
        assert_eq!(median(&[2.0, 2.1, 40.0]), 2.1);
    }

    #[test]
    fn floor_over_reps_is_per_cycle() {
        // A burst that hits different cycles in different repetitions
        // leaves no mark; a cycle that is slow every time stays slow.
        let reps =
            [vec![2.0, 9.0, 40.0, 2.0], vec![2.1, 3.0, 41.0, 8.0], vec![7.0, 3.2, 40.5, 2.2]];
        assert_eq!(floor(&reps), vec![2.0, 3.0, 40.0, 2.0]);
        assert_eq!(floor(&reps[..1]), reps[0]);
        assert_eq!(least(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
