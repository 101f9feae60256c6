//! The paper's qualitative claims, asserted on the experiment harness
//! (Fast preset), and the committed `results/` artifacts, regenerated
//! under the Paper preset as `vodx <target> --out DIR` writes them (see
//! EXPERIMENTS.md for the recorded outputs). `scripts/check.sh`
//! regenerates the other two, `inspect.txt` and `table5_rpu3.txt`.

use vod_paradigm::experiments::{ext, figures, render_csv, table5, EnvParams, Preset, Series};
use vod_paradigm::topology::{builders, dot};

/// A committed artifact under `results/`.
fn committed(name: &str) -> String {
    let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn gaps(direct: &Series, with_is: &Series) -> Vec<f64> {
    direct.points.iter().zip(&with_is.points).map(|(d, w)| d.1 - w.1).collect()
}

/// §5.2 / Fig. 5: "The advantage of using intermediate storage becomes
/// more significant as the network charging rate increases", and total
/// cost grows with the network charging rate.
#[test]
fn fig5_advantage_grows_with_network_rate() {
    let f = figures::fig5(Preset::Fast);
    let direct = f.series("Network only system").expect("baseline series");
    for s in &f.series {
        assert!(s.is_non_decreasing(), "{} must grow with nrate", s.label);
    }
    for s in f.series.iter().filter(|s| s.label.starts_with("srate")) {
        let g = gaps(direct, s);
        assert!(
            g.last().unwrap() >= &(g.first().unwrap() - 1e-6),
            "{}: saving must widen with nrate (gaps {:?})",
            s.label,
            g
        );
        assert!(g.iter().all(|&x| x >= -1e-6), "{}: never worse than direct", s.label);
    }
}

/// §5.2 / Fig. 5: "the vertical distance between each straight line …
/// is small" — storage-rate variation shifts cost far less than the
/// network-rate sweep does.
#[test]
fn fig5_storage_rate_effect_is_second_order() {
    let f = figures::fig5(Preset::Fast);
    let lines: Vec<&Series> = f.series.iter().filter(|s| s.label.starts_with("srate")).collect();
    assert!(lines.len() >= 2);
    let first = lines.first().unwrap();
    let last = lines.last().unwrap();
    // Spread between cheapest and dearest storage rate at the largest
    // nrate, vs the swing along the nrate axis.
    let srate_spread = (last.points.last().unwrap().1 - first.points.last().unwrap().1).abs();
    let nrate_swing = first.points.last().unwrap().1 - first.points.first().unwrap().1;
    assert!(
        srate_spread < nrate_swing * 0.5,
        "storage-rate spread {srate_spread} should be small vs nrate swing {nrate_swing}"
    );
}

/// §5.2 / Fig. 6: less biased access (larger α) costs more.
#[test]
fn fig6_cost_rises_as_skew_flattens() {
    let f = figures::fig6(Preset::Fast);
    // At every nrate, the α = 0.1 curve lies below the α = 0.7 curve.
    let low = f.series("alpha = 0.1").unwrap();
    let high = f.series("alpha = 0.7").unwrap();
    for (l, h) in low.points.iter().zip(&high.points) {
        assert!(l.1 <= h.1 + 1e-6, "at nrate {}: {} !<= {}", l.0, l.1, h.1);
    }
}

/// §5.3 / Fig. 7: cost rises with the storage charging rate and
/// approaches (never exceeding) the network-only level.
#[test]
fn fig7_saturates_toward_network_only() {
    let f = figures::fig7(Preset::Fast);
    let with_is = f.series("With intermediate storage").unwrap();
    let direct = f.series("Network only system").unwrap();
    assert!(with_is.is_non_decreasing());
    for (w, d) in with_is.points.iter().zip(&direct.points) {
        assert!(w.1 <= d.1 + 1e-6);
    }
    let g = gaps(direct, with_is);
    assert!(
        *g.last().unwrap() <= g.first().unwrap() + 1e-6,
        "gap must shrink as storage gets expensive: {g:?}"
    );
}

/// §5.3 / Fig. 8: total cost increases linearly-ish with the network
/// charging rate (higher nrate curve strictly above), while the storage
/// rate matters mainly at the cheap end.
#[test]
fn fig8_network_rate_dominates() {
    let f = figures::fig8(Preset::Fast);
    let low = f.series("nrate = 300").unwrap();
    let high = f.series("nrate = 900").unwrap();
    for (l, h) in low.points.iter().zip(&high.points) {
        assert!(h.1 > l.1, "at srate {}: nrate 900 must cost more", l.0);
    }
    // Slope flattens: the increase over the last half of the srate sweep
    // is no larger than over the first half.
    for s in &f.series {
        let ys: Vec<f64> = s.points.iter().map(|p| p.1).collect();
        let mid = ys.len() / 2;
        let first_half = ys[mid] - ys[0];
        let second_half = ys[ys.len() - 1] - ys[mid];
        assert!(
            second_half <= first_half + 1e-6 * ys[0].abs().max(1.0),
            "{}: effect of srate should taper ({first_half} then {second_half})",
            s.label
        );
    }
}

/// §5.4 / Fig. 9: cost rises as access flattens; larger stores help, and
/// they help more under skewed access.
#[test]
fn fig9_capacity_helps_most_under_skew() {
    let f = figures::fig9(Preset::Fast);
    let small = f.series("IS size = 5 GB").unwrap();
    let big = f.series("IS size = 11 GB").unwrap();
    for (s, b) in small.points.iter().zip(&big.points) {
        assert!(b.1 <= s.1 + 1e-6, "bigger store cannot cost more (alpha {})", s.0);
    }
    let gap_at = |x: f64| small.y_at(x).unwrap() - big.y_at(x).unwrap();
    assert!(
        gap_at(0.1) >= gap_at(0.9) - 1e-6,
        "capacity advantage should be largest under skewed access: {} vs {}",
        gap_at(0.1),
        gap_at(0.9)
    );
}

/// §5.5 / Table 5: the ratio metrics (methods 2 and 4) dominate victim
/// selection, as in the paper's 98 % result.
#[test]
fn table5_ratio_metrics_dominate() {
    let r = table5::run(Preset::Fast);
    assert!(r.changed_cases > 0, "sweep must exercise overflow resolution");
    // Method 2 or 4 wins (possibly tied) in the vast majority of cases.
    assert!(
        r.m2_or_m4_share() >= 0.9,
        "methods 2/4 should dominate: {:.0} %",
        100.0 * r.m2_or_m4_share()
    );
    // Each ratio metric beats its non-ratio counterpart overall.
    assert!(
        r.best_counts[1] >= r.best_counts[0],
        "m2 {} vs m1 {}",
        r.best_counts[1],
        r.best_counts[0]
    );
    assert!(
        r.best_counts[3] >= r.best_counts[2],
        "m4 {} vs m3 {}",
        r.best_counts[3],
        r.best_counts[2]
    );
}

/// The Fig. 2 worked example, end to end through the public API.
#[test]
fn fig2_golden_costs() {
    use vod_paradigm::prelude::*;
    let topo = builders::paper_fig2(16.0, 8.0, 1.0, 5.0);
    let routes = RouteTable::build(&topo);
    let video = Video::new(VideoId(0), units::gb(2.5), units::minutes(90.0), units::mbps(6.0));
    let model = CostModel::per_hop();

    let reqs: Vec<Request> = [(0u32, 13.0), (1, 14.5), (2, 16.0)]
        .iter()
        .map(|&(u, h)| Request { user: UserId(u), video: video.id, start: h * 3600.0 })
        .collect();

    let vw = topo.warehouse();
    let (is1, is2) = (NodeId(1), NodeId(2));
    let mut s1 = VideoSchedule::new(video.id);
    s1.transfers.push(Transfer::for_user(&reqs[0], routes.path(vw, is1)));
    s1.transfers.push(Transfer::for_user(&reqs[1], routes.path(vw, is2)));
    s1.transfers.push(Transfer::for_user(&reqs[2], routes.path(vw, is2)));
    assert!((model.video_schedule_cost(&topo, &video, &s1) - 259.2).abs() < 1e-9);

    let mut s2 = VideoSchedule::new(video.id);
    s2.transfers.push(Transfer::for_user(&reqs[0], routes.path(vw, is1)));
    s2.transfers.push(Transfer::for_user(&reqs[1], routes.path(is1, is2)));
    s2.transfers.push(Transfer::for_user(&reqs[2], routes.path(is1, is2)));
    let mut copy = Residency::begin(is1, vw, reqs[0]);
    copy.extend(reqs[1]);
    copy.extend(reqs[2]);
    s2.residencies.push(copy);
    assert!((model.video_schedule_cost(&topo, &video, &s2) - 138.975).abs() < 1e-9);
}

/// `vodx fig5 … fig9 --out DIR` reproduces the committed CSVs: the same
/// header and grid, every value within 1e-9 relative (the figures sum
/// Ψ over cells, so summation order may move the last bits).
#[test]
fn committed_figures_are_reproduced() {
    for id in ["fig5", "fig6", "fig7", "fig8", "fig9"] {
        let fresh = render_csv(&figures::by_id(id, Preset::Paper).expect("a figure id"));
        let golden = committed(&format!("{id}.csv"));
        assert_eq!(fresh.lines().count(), golden.lines().count(), "{id}: row count");
        for (row, (a, b)) in fresh.lines().zip(golden.lines()).enumerate() {
            let (a, b): (Vec<_>, Vec<_>) = (a.split(',').collect(), b.split(',').collect());
            assert_eq!(a.len(), b.len(), "{id} row {row}: column count");
            for (x, y) in a.iter().zip(&b) {
                match (x.parse::<f64>(), y.parse::<f64>()) {
                    (Ok(x), Ok(y)) => assert!(
                        (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
                        "{id} row {row}: {x} vs committed {y}"
                    ),
                    _ => assert_eq!(x, y, "{id} row {row}"),
                }
            }
        }
    }
}

/// `vodx table5 gap bandwidth inspect --out DIR` reproduces the committed
/// text byte for byte (`inspect` writes the baseline cell's network as
/// DOT).
#[test]
fn committed_tables_are_reproduced() {
    assert_eq!(table5::run(Preset::Paper).render(), committed("table5.txt"), "table5.txt");
    assert_eq!(ext::gap(Preset::Paper).render(), committed("gap.txt"), "gap.txt");
    assert_eq!(ext::bandwidth(Preset::Paper).render(), committed("bandwidth.txt"), "bandwidth.txt");
    let network = builders::paper_fig4(&EnvParams::paper().network());
    assert_eq!(dot::to_dot(&network), committed("topology.dot"), "topology.dot");
}
