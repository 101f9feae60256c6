//! Harness-side spans: kept in memory while the benchmark runs, written to
//! `trace-<workload>.jsonl` when it ends.
//!
//! A span is `{name, rep, cycle, start_ns, end_ns, parent, count}`; `count`
//! is the work done inside it (requests offered, admission tests run, …) so
//! a ratio is measured where the work happens. A layer's *self time* is its
//! span's duration minus the part of that interval its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub rep: usize,
    pub cycle: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Every span of one traced run, in the order they were closed.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the log was opened.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Convert an instant taken elsewhere to this log's clock.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn push(&mut self, span: Span) -> SpanId {
        assert!(span.end_ns >= span.start_ns, "span {} ends before it starts", span.name);
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Run `f` inside a span named `name` under `parent`; `f` returns the
    /// span's work count next to its own result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        (rep, cycle): (usize, usize),
        parent: Option<SpanId>,
        f: impl FnOnce() -> (R, u64),
    ) -> R {
        let start_ns = self.now();
        let (out, count) = f();
        let end_ns = self.now();
        self.push(Span { name, rep, cycle, start_ns, end_ns, parent, count });
        out
    }

    /// Set the end of a span pushed before its children ran.
    pub fn close(&mut self, id: SpanId, end_ns: u64) {
        assert!(
            end_ns >= self.spans[id].start_ns,
            "span {} ends before it starts",
            self.spans[id].name
        );
        self.spans[id].end_ns = end_ns;
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of every span called `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.duration_ns() as f64 / 1e6).collect()
    }

    /// Σ duration ÷ Σ count over the spans called `name`, in ns per unit of
    /// work (0 when no work was counted).
    pub fn ns_per_count(&self, name: &str) -> f64 {
        let (ns, count) =
            self.named(name).fold((0u64, 0u64), |(ns, c), s| (ns + s.duration_ns(), c + s.count));
        crate::stats::ratio(ns as f64, count as f64)
    }

    /// Self time of every span: duration minus the union of its children's
    /// intervals, clipped to the span.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if a < b {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut frontier = s.start_ns;
                for (a, b) in kids {
                    if b > frontier {
                        covered += b - a.max(frontier);
                        frontier = b;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Share of the `root`-named spans' total duration that their children
    /// cover: 1 − Σ self ÷ Σ duration.
    pub fn cover_share(&self, root: &str) -> f64 {
        let selfs = self.self_times_ns();
        let (own, total) = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == root)
            .fold((0u64, 0u64), |(own, total), (s, &me)| (own + me, total + s.duration_ns()));
        1.0 - crate::stats::ratio(own as f64, total as f64)
    }

    /// One JSON object per line, `id` being the line's index and `parent`
    /// another line's `id` or `null`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 112);
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"rep\":{},\"cycle\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.rep, s.cycle, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = writeln!(out, ",\"count\":{}}}", s.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, rep: 0, cycle: 0, start_ns, end_ns, parent, count: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::new();
        let root = log.push(span("cycle", 100, 200, None));
        log.push(span("a", 100, 130, Some(root)));
        log.push(span("b", 130, 190, Some(root)));
        let child = log.push(span("c", 190, 198, Some(root)));
        log.push(span("c.inner", 191, 195, Some(child)));
        assert_eq!(log.self_times_ns(), vec![2, 30, 60, 4, 4]);
        assert!((log.cover_share("cycle") - 0.98).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_counted_twice() {
        let mut log = SpanLog::new();
        let root = log.push(span("cycle", 0, 100, None));
        log.push(span("a", 10, 60, Some(root)));
        log.push(span("b", 40, 80, Some(root)));
        // Starts before and ends after the parent: clipped to [0, 100).
        log.push(span("c", 90, 140, Some(root)));
        log.push(span("d", 20, 30, Some(root)));
        assert_eq!(log.self_times_ns()[root], 100 - 70 - 10);
    }

    #[test]
    fn childless_span_is_all_self_time() {
        let mut log = SpanLog::new();
        log.push(span("probe", 5, 25, None));
        assert_eq!(log.self_times_ns(), vec![20]);
        assert_eq!(log.cover_share("probe"), 0.0);
        assert_eq!(log.cover_share("absent"), 1.0);
    }

    #[test]
    fn per_count_rates_sum_before_dividing() {
        let mut log = SpanLog::new();
        log.push(Span { count: 10, ..span("offer", 0, 100, None) });
        log.push(Span { count: 30, ..span("offer", 100, 400, None) });
        assert_eq!(log.ns_per_count("offer"), 10.0);
        assert_eq!(log.ns_per_count("absent"), 0.0);
        assert_eq!(log.durations_ms("offer"), vec![0.0001, 0.0003]);
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let mut log = SpanLog::new();
        let root = log.push(span("cycle", 1, 9, None));
        log.push(Span { rep: 2, cycle: 7, count: 380, ..span("service.offer", 1, 3, Some(root)) });
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"id":0,"name":"cycle","rep":0,"cycle":0,"start_ns":1,"end_ns":9,"parent":null,"count":1}"#
        );
        assert_eq!(
            lines[1],
            r#"{"id":1,"name":"service.offer","rep":2,"cycle":7,"start_ns":1,"end_ns":3,"parent":0,"count":380}"#
        );
    }
}
