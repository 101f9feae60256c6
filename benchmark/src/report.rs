//! The result a run prints: the metric catalogue (name, unit, direction —
//! the same entries `BENCHMARK.json` lists), and a run's values as
//! `workload metric value unit` lines and as the one-line JSON object the
//! benchmark contract asks for.

use std::fmt::Write as _;

/// One catalogue entry. `better` is `"lower"` or `"higher"`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of the service sees; measured with tracing off.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower"),
    def("sched_rps", "req/s", "higher"),
    def("cycle_ms_p50", "ms", "lower"),
    def("cycle_ms_p95", "ms", "lower"),
    def("psi_per_req", "usd/req", "lower"),
    def("ok_share", "ratio", "higher"),
    def("ontime_share", "ratio", "higher"),
    def("peak_rss_mb", "MB", "lower"),
];

/// How much worse an end-to-end metric may get, as a share of the parent's
/// median, before it counts as a regression (`BENCHMARK.json`'s `bound`);
/// and whether one seed fixes the metric bit for bit, which `run.sh
/// --self-check` then demands of two runs.
pub const BOUNDS: &[(&str, f64, bool)] = &[
    ("setup_s", 0.25, false),
    ("sched_rps", 0.25, false),
    ("cycle_ms_p50", 0.25, false),
    ("cycle_ms_p95", 0.25, false),
    ("psi_per_req", 0.04, true),
    ("ok_share", 0.09, true),
    ("ontime_share", 0.015, true),
    ("peak_rss_mb", 0.1, false),
];

/// `metric better bound` lines for `run.sh --self-check`.
pub fn render_bounds() -> String {
    let mut out = String::new();
    for (d, &(_, bound, exact)) in END_TO_END.iter().zip(BOUNDS) {
        let bound = if exact { "exact".to_string() } else { bound.to_string() };
        let _ = writeln!(out, "{} {} {bound}", d.name, d.better);
    }
    out
}

/// Single layers, `layer.metric` with the layer named after its crate or
/// `vod_core` module; measured by the traced pass.
pub const PER_LAYER: &[Def] = &[
    def("topology.build_ms", "ms", "lower"),
    def("topology.routes_ms", "ms", "lower"),
    def("workload.catalog_ms", "ms", "lower"),
    def("workload.arrivals_ms", "ms", "lower"),
    def("workload.trace_mb", "MB", "lower"),
    def("workload.partition_us_per_req", "us/req", "lower"),
    def("faults.plan_ms", "ms", "lower"),
    def("service.offer_us_per_req", "us/req", "lower"),
    def("service.run_cycle_ms_p50", "ms", "lower"),
    def("service.run_cycle_ms_p95", "ms", "lower"),
    def("service.solve_share", "ratio", "lower"),
    def("service.frontend_ms_p50", "ms", "lower"),
    def("service.rung_full_share", "ratio", "higher"),
    def("service.rung_reduced_share", "ratio", "lower"),
    def("service.rung_greedy_share", "ratio", "lower"),
    def("service.rung_shed_share", "ratio", "lower"),
    def("service.over_budget_cycles", "count", "lower"),
    def("service.rejected", "count", "lower"),
    def("service.shed", "count", "lower"),
    def("service.deferred", "count", "lower"),
    def("service.dropped", "count", "lower"),
    def("service.queue_high_water", "count", "lower"),
    def("greedy.ivsp_ms", "ms", "lower"),
    def("greedy.ivsp_us_per_req", "us/req", "lower"),
    def("sorp.cold_solve_ms", "ms", "lower"),
    def("sorp.iterations", "count", "lower"),
    def("sorp.victims", "count", "lower"),
    def("sorp.trials_run", "count", "lower"),
    def("sorp.trials_cached", "count", "higher"),
    def("sorp.cache_hit_ratio", "ratio", "higher"),
    def("sorp.nodes_rescanned", "count", "lower"),
    def("sorp.forced_fallbacks", "count", "lower"),
    def("sorp.rel_cost_increase", "ratio", "lower"),
    def("shard.cold_solve_ms", "ms", "lower"),
    def("shard.speedup_vs_mono", "ratio", "higher"),
    def("shard.split_videos", "count", "lower"),
    def("shard.shared_storages", "count", "lower"),
    def("shard.cross_shard_overflows", "count", "lower"),
    def("shard.reconcile_iterations", "count", "lower"),
    def("shard.reconcile_victims", "count", "lower"),
    def("shard.trials_transplanted", "count", "higher"),
    def("warm.trials_carried", "count", "higher"),
    def("warm.trials_adopted", "count", "higher"),
    def("warm.trials_revalidated", "count", "higher"),
    def("warm.revalidate_ratio", "ratio", "higher"),
    def("warm.trials_hit", "count", "higher"),
    def("warm.phase1_hits", "count", "higher"),
    def("warm.committed_active_mean", "count", "lower"),
    def("warm.committed_evicted", "count", "higher"),
    def("warm.spillover_gb_mean", "GB", "lower"),
    def("capacity.fits_ns", "ns", "lower"),
    def("capacity.add_remove_ns", "ns", "lower"),
    def("capacity.from_schedule_ms", "ms", "lower"),
    def("pricing.price_ms", "ms", "lower"),
    def("repair.cycles_repaired", "count", "lower"),
    def("repair.shed", "count", "lower"),
    def("repair.delayed", "count", "lower"),
    def("repair.frontend_delta_ms", "ms", "lower"),
    def("simulator.replay_ms_p50", "ms", "lower"),
    def("simulator.replay_share", "ratio", "lower"),
    def("simulator.dirty_cycles", "count", "lower"),
    def("simulator.violations", "count", "lower"),
    def("parallel.speedup", "ratio", "higher"),
    def("parallel.workers", "count", "higher"),
    def("obs.trace_overhead_ratio", "ratio", "lower"),
    def("obs.events", "count", "lower"),
    def("trace.cover_share", "ratio", "higher"),
];

/// One run's values for a catalogue, in the order they were measured.
pub struct Metrics {
    defs: &'static [Def],
    values: Vec<(&'static Def, f64)>,
}

impl Metrics {
    pub fn new(defs: &'static [Def]) -> Self {
        Self { defs, values: Vec::with_capacity(defs.len()) }
    }

    /// Record a value. A name outside the catalogue, a repeated name or a
    /// non-finite value is a bug in the harness and aborts the run: a
    /// result that cannot be written as JSON must not look like a
    /// measurement.
    pub fn push(&mut self, name: &str, value: f64) {
        let def = self.defs.iter().find(|d| d.name == name);
        let def = def.unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.values.push((def, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(d, _)| d.name == name).map(|&(_, v)| v)
    }

    /// Catalogue entries no value was recorded for.
    pub fn missing(&self) -> Vec<&'static str> {
        self.defs.iter().map(|d| d.name).filter(|n| self.get(n).is_none()).collect()
    }

    /// `workload metric value unit`, one line per metric.
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        for (d, v) in &self.values {
            let _ = writeln!(out, "{workload} {} {v:?} {}", d.name, d.unit);
        }
        out
    }
}

/// The contract's result object, on one line:
/// `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`.
/// Values are written in shortest round-trip form, every digit as measured.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (d, v)) in metrics.values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Catalogue names and units are charset-checked by the tests below:
        // nothing to escape.
        let _ = write!(out, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", d.name, d.unit);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{parse_json, Json};

    /// Metric names: start with a letter or digit, then at most 64 of
    /// `[A-Za-z0-9_.-]` in all.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// Units: 1 to 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    const TEST_DEFS: &[Def] = &[
        def("cycle_ms_p50", "ms", "lower"),
        def("setup_s", "s", "lower"),
        def("tiny", "s", "lower"),
        def("whole", "count", "higher"),
    ];

    #[test]
    fn name_charset() {
        for ok in ["setup_s", "cycle_ms_p95", "sorp.cache_hit_ratio", "a-b", "9lives", "A.b_c-d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "_x", "a b", "a/b", "psi$", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn unit_charset() {
        for ok in ["ms", "s", "1/s", "req/s", "usd/req", "%", "count", "us/req"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "$/request", "requests per s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn catalogue_is_well_formed() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{} {}", d.name, d.unit);
            assert!(["lower", "higher"].contains(&d.better), "{} {}", d.name, d.better);
            assert_eq!(all.iter().filter(|o| o.name == d.name).count(), 1, "{} repeats", d.name);
        }
        assert!(END_TO_END.contains(&def("setup_s", "s", "lower")));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` at the repo root lists exactly this catalogue and
    /// exactly the four workloads.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse_json(text).expect("BENCHMARK.json parses");
        // `fields` of every object under `key`, each object having `keys` keys.
        let listed = |key: &str, fields: &[&str], keys: usize| -> Vec<Vec<String>> {
            let Json::Arr(items) = doc.get(key).expect(key) else { panic!("{key}: array") };
            items
                .iter()
                .map(|it| {
                    let Json::Obj(kv) = it else { panic!("{key}: objects") };
                    assert_eq!(kv.len(), keys, "{key}: {keys} keys each");
                    fields
                        .iter()
                        .map(|f| it.get(f).and_then(|v| v.as_str()).expect(f).to_string())
                        .collect()
                })
                .collect()
        };
        let expect = |defs: &[Def]| -> Vec<Vec<String>> {
            defs.iter().map(|d| vec![d.name.into(), d.unit.into(), d.better.into()]).collect()
        };
        assert_eq!(listed("per_layer", &["name", "unit", "better"], 3), expect(PER_LAYER));
        assert_eq!(listed("end_to_end", &["name", "unit", "better"], 4), expect(END_TO_END));
        let Json::Arr(e2e) = doc.get("end_to_end").expect("end_to_end") else { panic!("array") };
        for (it, (d, &(name, bound, _))) in e2e.iter().zip(END_TO_END.iter().zip(BOUNDS)) {
            assert_eq!(d.name, name, "BOUNDS follows END_TO_END");
            assert_eq!(it.get("bound").and_then(Json::as_f64), Some(bound), "{name}");
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        }
        let workloads = listed("workloads", &["name", "why"], 2);
        let ours: Vec<Vec<String>> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| vec![w.name.to_string(), w.why.to_string()])
            .collect();
        assert_eq!(workloads, ours);
        for w in &ours {
            assert!(valid_name(&w[0]) && w[1].len() <= 200 && !w[1].contains('\n'), "{}", w[0]);
        }
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_names_abort() {
        let mut m = Metrics::new(TEST_DEFS);
        m.push("setup_s", 1.0);
        m.push("setup_s", 2.0);
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_names_abort() {
        Metrics::new(TEST_DEFS).push("setup_ms", 1.0);
    }

    #[test]
    #[should_panic(expected = "is NaN")]
    fn non_finite_values_abort() {
        Metrics::new(TEST_DEFS).push("tiny", f64::NAN);
    }

    #[test]
    fn json_is_one_line_with_every_digit() {
        let mut m = Metrics::new(TEST_DEFS);
        m.push("cycle_ms_p50", 2.034_567_891_234_5);
        m.push("setup_s", 0.1);
        assert_eq!(m.missing(), vec!["tiny", "whole"]);
        m.push("tiny", 1.5e-9);
        m.push("whole", 380.0);
        assert!(m.missing().is_empty());
        let json = result_json(true, 1000, 3, &m);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 3, \"metrics\": {\
             \"cycle_ms_p50\": {\"value\": 2.0345678912345, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}, \
             \"tiny\": {\"value\": 1.5e-9, \"unit\": \"s\"}, \
             \"whole\": {\"value\": 380.0, \"unit\": \"count\"}}}"
        );
        // The program's own JSON parser reads it back to the same bits.
        let parsed = parse_json(&json).expect("valid JSON");
        for (d, v) in &m.values {
            let got = parsed
                .get("metrics")
                .and_then(|ms| ms.get(d.name))
                .and_then(|o| o.get("value"))
                .and_then(|x| x.as_f64());
            assert_eq!(got.map(f64::to_bits), Some(v.to_bits()), "{}", d.name);
        }
    }

    #[test]
    fn empty_metrics_still_close_the_object() {
        assert_eq!(
            result_json(false, 1, 0, &Metrics::new(TEST_DEFS)),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}"
        );
    }

    #[test]
    fn lines_name_workload_metric_value_unit() {
        let mut m = Metrics::new(TEST_DEFS);
        m.push("whole", 178_000.5);
        assert_eq!(m.render("steady"), "steady whole 178000.5 count\n");
    }
}
