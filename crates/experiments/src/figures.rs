//! One function per figure of the paper's evaluation (§5.2–§5.4).
//!
//! Every function sweeps exactly the attribute(s) the paper's figure
//! varies, holding the rest at the Table 4 baseline, and returns the
//! series the paper plots (including the *network only system* reference
//! where the paper draws it). All runs use the default heat metric
//! (Eq. 11), the paper's best.

use crate::{EnvParams, EvalResult, FigureResult, Preset, Series};
use vod_core::HeatMetric;
use vod_parallel::parallel_map;

const METRIC: HeatMetric = HeatMetric::TimeSpacePerCost;

fn nrate_grid(preset: Preset) -> Vec<f64> {
    match preset {
        Preset::Paper => (3..=10).map(|k| k as f64 * 100.0).collect(),
        Preset::Fast => vec![300.0, 600.0, 1000.0],
    }
}

fn srate_small_grid(preset: Preset) -> Vec<f64> {
    match preset {
        Preset::Paper => (3..=8).map(|k| k as f64).collect(),
        Preset::Fast => vec![3.0, 8.0],
    }
}

fn srate_wide_grid(preset: Preset) -> Vec<f64> {
    match preset {
        Preset::Paper => (0..=12).map(|k| k as f64 * 25.0).collect(),
        Preset::Fast => vec![0.0, 50.0, 150.0, 300.0],
    }
}

fn alpha_grid(preset: Preset) -> Vec<f64> {
    match preset {
        Preset::Paper => vec![0.1, 0.2, 0.271, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        Preset::Fast => vec![0.1, 0.5, 0.9],
    }
}

fn capacity_grid(preset: Preset) -> Vec<f64> {
    match preset {
        Preset::Paper => vec![5.0, 8.0, 11.0, 14.0],
        Preset::Fast => vec![5.0, 11.0],
    }
}

/// Fig. 5: total service cost vs network charging rate, one curve per
/// storage charging rate (3–8 $/GB·h), plus the network-only line.
/// Baseline: α = 0.271, 5 GB stores.
pub fn fig5(preset: Preset) -> FigureResult {
    let base = EnvParams::for_preset(preset);
    let nrates = nrate_grid(preset);

    let srates = srate_small_grid(preset);
    let results: Vec<Vec<EvalResult>> = srates
        .iter()
        .map(|&srate| {
            let cells: Vec<EnvParams> = nrates
                .iter()
                .map(|&nrate| EnvParams {
                    nrate_per_gb: nrate,
                    srate_per_gb_hour: srate,
                    ..base.clone()
                })
                .collect();
            parallel_map(&cells, |p| crate::env::evaluate_cell(p, METRIC))
        })
        .collect();
    let mut series: Vec<Series> = srates
        .iter()
        .zip(&results)
        .map(|(srate, cells)| {
            let costs = cells.iter().map(|r| r.two_phase);
            Series::new(format!("srate = {srate}"), nrates.iter().copied().zip(costs).collect())
        })
        .collect();
    // The network-only system is independent of srate: it is read off the
    // cells of the base srate, the grid's first curve.
    assert_eq!(srates[0], base.srate_per_gb_hour, "fig5's grid starts at the base srate");
    let direct = results[0].iter().map(|r| r.network_only);
    series.push(Series::new("Network only system", nrates.iter().copied().zip(direct).collect()));

    FigureResult {
        id: "fig5".into(),
        title: "Total service cost under different storage charging rates".into(),
        x_label: "Network Charging Rate".into(),
        y_label: "Total Service Cost".into(),
        series,
    }
}

/// Fig. 6: total service cost vs network charging rate, one curve per
/// Zipf skew α ∈ {0.1, 0.271, 0.5, 0.7}. Baseline: srate 3, 5 GB stores.
pub fn fig6(preset: Preset) -> FigureResult {
    let base = EnvParams::for_preset(preset);
    let nrates = nrate_grid(preset);
    let alphas = [0.1, 0.271, 0.5, 0.7];

    let series = alphas
        .iter()
        .map(|&alpha| {
            let cells: Vec<EnvParams> = nrates
                .iter()
                .map(|&nrate| EnvParams { nrate_per_gb: nrate, zipf_alpha: alpha, ..base.clone() })
                .collect();
            let costs = parallel_map(&cells, |p| crate::env::evaluate_cell(p, METRIC).two_phase);
            Series::new(format!("alpha = {alpha}"), nrates.iter().copied().zip(costs).collect())
        })
        .collect();

    FigureResult {
        id: "fig6".into(),
        title: "Total service cost under different access patterns".into(),
        x_label: "Network Charging Rate".into(),
        y_label: "Total Service Cost".into(),
        series,
    }
}

/// Fig. 7: total service cost vs storage charging rate (0–300 $/GB·h) at
/// nrate 300, with the flat network-only reference. Baseline: α = 0.271,
/// 5 GB stores.
pub fn fig7(preset: Preset) -> FigureResult {
    let base = EnvParams::for_preset(preset);
    let srates = srate_wide_grid(preset);

    let cells: Vec<EnvParams> = srates
        .iter()
        .map(|&srate| EnvParams { srate_per_gb_hour: srate, ..base.clone() })
        .collect();
    let results = parallel_map(&cells, |p| crate::env::evaluate_cell(p, METRIC));

    let with_is = Series::new(
        "With intermediate storage",
        srates.iter().copied().zip(results.iter().map(|r| r.two_phase)).collect(),
    );
    let network_only = Series::new(
        "Network only system",
        srates.iter().copied().zip(results.iter().map(|r| r.network_only)).collect(),
    );

    FigureResult {
        id: "fig7".into(),
        title: "Storage charging rate vs total service cost".into(),
        x_label: "Storage Charging Rate".into(),
        y_label: "Total Service Cost".into(),
        series: vec![with_is, network_only],
    }
}

/// Fig. 8: total service cost vs storage charging rate, one curve per
/// network charging rate ∈ {300, 500, 700, 900}.
pub fn fig8(preset: Preset) -> FigureResult {
    let base = EnvParams::for_preset(preset);
    let srates = srate_wide_grid(preset);
    let nrates = [300.0, 500.0, 700.0, 900.0];

    let series = nrates
        .iter()
        .map(|&nrate| {
            let cells: Vec<EnvParams> = srates
                .iter()
                .map(|&srate| EnvParams {
                    srate_per_gb_hour: srate,
                    nrate_per_gb: nrate,
                    ..base.clone()
                })
                .collect();
            let costs = parallel_map(&cells, |p| crate::env::evaluate_cell(p, METRIC).two_phase);
            Series::new(format!("nrate = {nrate}"), srates.iter().copied().zip(costs).collect())
        })
        .collect();

    FigureResult {
        id: "fig8".into(),
        title: "Storage charging rate vs total service cost under different network charging rates"
            .into(),
        x_label: "Storage Charging Rate".into(),
        y_label: "Total Service Cost".into(),
        series,
    }
}

/// Fig. 9: total service cost vs access skew α, one curve per
/// intermediate storage size ∈ {5, 8, 11, 14} GB. Baseline: nrate 300,
/// srate 3.
pub fn fig9(preset: Preset) -> FigureResult {
    let base = EnvParams::for_preset(preset);
    let alphas = alpha_grid(preset);

    let series = capacity_grid(preset)
        .into_iter()
        .map(|cap| {
            let cells: Vec<EnvParams> = alphas
                .iter()
                .map(|&alpha| EnvParams { zipf_alpha: alpha, capacity_gb: cap, ..base.clone() })
                .collect();
            let costs = parallel_map(&cells, |p| crate::env::evaluate_cell(p, METRIC).two_phase);
            Series::new(format!("IS size = {cap} GB"), alphas.iter().copied().zip(costs).collect())
        })
        .collect();

    FigureResult {
        id: "fig9".into(),
        title: "User access pattern vs total service cost under different storage sizes".into(),
        x_label: "alpha value of zipf distribution".into(),
        y_label: "Total Service Cost".into(),
        series,
    }
}

/// Every figure, by id.
pub fn by_id(id: &str, preset: Preset) -> Option<FigureResult> {
    match id {
        "fig5" => Some(fig5(preset)),
        "fig6" => Some(fig6(preset)),
        "fig7" => Some(fig7(preset)),
        "fig8" => Some(fig8(preset)),
        "fig9" => Some(fig9(preset)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The Fast preset keeps these end-to-end sweeps tractable in CI while
    // still exercising the full pipeline; shape assertions mirror the
    // paper's qualitative claims and are repeated on the Paper preset by
    // the integration suite / vodx runs.

    #[test]
    fn fig5_shapes() {
        let f = fig5(Preset::Fast);
        assert_eq!(f.series.len(), 3); // 2 srates + network-only
        for s in &f.series {
            assert!(s.is_non_decreasing(), "{} must grow with nrate", s.label);
        }
        // Intermediate storage wins everywhere against network-only.
        let direct = f.series("Network only system").unwrap();
        for s in f.series.iter().filter(|s| s.label != "Network only system") {
            for (p, d) in s.points.iter().zip(&direct.points) {
                assert!(p.1 <= d.1 + 1e-6, "{} at nrate {}", s.label, p.0);
            }
        }
    }

    #[test]
    fn fig7_saturates_toward_network_only() {
        let f = fig7(Preset::Fast);
        let with_is = f.series("With intermediate storage").unwrap();
        let direct = f.series("Network only system").unwrap();
        assert!(with_is.is_non_decreasing());
        // The network-only line is flat in srate.
        let d0 = direct.points[0].1;
        for &(_, y) in &direct.points {
            assert!((y - d0).abs() < 1e-6);
        }
        // With-IS stays at or below the reference.
        for (p, d) in with_is.points.iter().zip(&direct.points) {
            assert!(p.1 <= d.1 + 1e-6);
        }
        // And the gap narrows as storage gets expensive.
        let first_gap = direct.points[0].1 - with_is.points[0].1;
        let last_gap = direct.points.last().unwrap().1 - with_is.points.last().unwrap().1;
        assert!(last_gap <= first_gap + 1e-6);
    }

    #[test]
    fn fig9_bigger_stores_cost_less() {
        let f = fig9(Preset::Fast);
        let small = f.series("IS size = 5 GB").unwrap();
        let big = f.series("IS size = 11 GB").unwrap();
        for (s, b) in small.points.iter().zip(&big.points) {
            assert!(b.1 <= s.1 + 1e-6, "bigger store must not cost more at alpha {}", s.0);
        }
    }

    #[test]
    fn by_id_dispatches() {
        assert!(by_id("fig6", Preset::Fast).is_some());
        assert!(by_id("fig42", Preset::Fast).is_none());
    }
}
