//! The flight recorder: a cheap, clonable handle that captures typed
//! events stamped in *simulated* time and round-trips the recording
//! through JSONL bit-identically.
//!
//! The default handle is disabled: every method is a single `Option`
//! check and no allocation, lock, or clock read happens. Enabled
//! handles share one `Mutex<State>` behind an `Arc`, so cloning the
//! recorder into every pipeline stage observes one recording.
//!
//! Determinism contract: `sim_t`/`cycle`/`kind`/`fields` come from the
//! scheduler's simulated clock and decision state only. Wall-clock
//! nanoseconds are an *optional* side field (`wall_ns`), off by
//! default, and excluded from equality so recordings compare stable
//! across runs and machines.

use crate::json::{emit_f64, emit_str, Json, JsonError};
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A typed event field value.
///
/// Deliberately no signed variant: every recorded quantity in the
/// pipeline is a count, a label, a flag, or a (possibly negative)
/// float, and a single integer representation keeps the JSONL
/// round-trip unambiguous.
#[derive(Clone, Debug)]
pub enum Value {
    /// Unsigned integer (counts, ids, cycle numbers).
    U64(u64),
    /// Float (costs, EMA state, simulated seconds). Any bit pattern,
    /// including NaN/±inf, survives the wire format.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short label (rung names, modes).
    Str(String),
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::U64(a), Value::U64(b)) => a == b,
            (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

/// JSON has no NaN/inf literals, so non-finite floats are encoded as
/// the tagged string `"f64:<16 hex digits>"` (the bit pattern).
/// Genuine strings that begin with `f64:` or `str:` get a `str:`
/// prefix so decoding is unambiguous.
fn emit_f64_tagged(out: &mut String, v: f64) {
    if v.is_finite() {
        emit_f64(out, v);
    } else {
        let _ = write!(out, "\"f64:{:016x}\"", v.to_bits());
    }
}

/// Decode a float written by [`emit_f64_tagged`].
fn f64_from_tagged(v: &Json) -> Option<f64> {
    match v {
        Json::Float(f) => Some(*f),
        Json::Int(n) => Some(*n as f64),
        Json::Str(s) => {
            let hex = s.strip_prefix("f64:")?;
            u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
        }
        _ => None,
    }
}

impl Value {
    fn emit(&self, out: &mut String) {
        match self {
            Value::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Value::F64(f) => emit_f64_tagged(out, *f),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Str(s) => {
                if s.starts_with("f64:") || s.starts_with("str:") {
                    emit_str(out, &format!("str:{s}"));
                } else {
                    emit_str(out, s);
                }
            }
        }
    }

    fn decode(v: &Json) -> Result<Value, JsonError> {
        match v {
            Json::Int(n) => Ok(Value::U64(*n)),
            Json::Float(f) => Ok(Value::F64(*f)),
            Json::Bool(b) => Ok(Value::Bool(*b)),
            Json::Str(s) => {
                if let Some(hex) = s.strip_prefix("f64:") {
                    let bits = u64::from_str_radix(hex, 16)
                        .map_err(|_| JsonError { at: 0, message: format!("bad f64 tag {s:?}") })?;
                    Ok(Value::F64(f64::from_bits(bits)))
                } else if let Some(rest) = s.strip_prefix("str:") {
                    Ok(Value::Str(rest.to_string()))
                } else {
                    Ok(Value::Str(s.clone()))
                }
            }
            _ => Err(JsonError { at: 0, message: "unsupported field value".to_string() }),
        }
    }
}

/// One recorded event. Field order is insertion order and part of the
/// round-trip contract; `wall_ns` is excluded from equality.
#[derive(Clone, Debug)]
pub struct Event {
    /// Simulated timestamp (seconds on the service clock).
    pub sim_t: f64,
    /// Service cycle the event belongs to.
    pub cycle: u64,
    /// Event kind, e.g. `"rung"`, `"shard_solve"`, `"repair"`.
    pub kind: String,
    /// Optional wall-clock nanoseconds since recording start. Purely
    /// informational; never compared.
    pub wall_ns: Option<u64>,
    /// Typed payload, in emission order.
    pub fields: Vec<(String, Value)>,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.sim_t.to_bits() == other.sim_t.to_bits()
            && self.cycle == other.cycle
            && self.kind == other.kind
            && self.fields == other.fields
    }
}

impl Event {
    fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// The named field as a u64, if present with that type.
    pub fn u64(&self, name: &str) -> Option<u64> {
        match self.field(name)? {
            Value::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The named field as an f64 (also widening u64 counts).
    pub fn f64(&self, name: &str) -> Option<f64> {
        match self.field(name)? {
            Value::F64(f) => Some(*f),
            Value::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The named field as a string label.
    pub fn str(&self, name: &str) -> Option<&str> {
        match self.field(name)? {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The named field as a bool.
    pub fn bool(&self, name: &str) -> Option<bool> {
        match self.field(name)? {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn emit_jsonl(&self, out: &mut String) {
        out.push_str("{\"t\":");
        emit_f64_tagged(out, self.sim_t);
        let _ = write!(out, ",\"cycle\":{},\"kind\":", self.cycle);
        emit_str(out, &self.kind);
        if let Some(w) = self.wall_ns {
            let _ = write!(out, ",\"wall_ns\":{w}");
        }
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            emit_str(out, k);
            out.push(':');
            v.emit(out);
        }
        out.push_str("}}");
    }

    fn decode(v: &Json) -> Result<Event, JsonError> {
        let bad = |m: &str| JsonError { at: 0, message: m.to_string() };
        let sim_t = v.get("t").and_then(f64_from_tagged).ok_or_else(|| bad("event without t"))?;
        let cycle =
            v.get("cycle").and_then(Json::as_u64).ok_or_else(|| bad("event without cycle"))?;
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("event without kind"))?
            .to_string();
        let wall_ns = v.get("wall_ns").and_then(Json::as_u64);
        let mut fields = Vec::new();
        if let Some(Json::Obj(pairs)) = v.get("fields") {
            for (k, fv) in pairs {
                fields.push((k.clone(), Value::decode(fv)?));
            }
        }
        Ok(Event { sim_t, cycle, kind, wall_ns, fields })
    }
}

/// Builder handed to the [`Recorder::event`] closure; the closure only
/// runs when the recorder is enabled, so payload assembly is free on
/// the disabled path.
#[derive(Debug, Default)]
pub struct EventBuilder {
    fields: Vec<(String, Value)>,
}

impl EventBuilder {
    /// Attach an unsigned integer field.
    pub fn u64(&mut self, name: &str, v: u64) -> &mut Self {
        self.fields.push((name.to_string(), Value::U64(v)));
        self
    }

    /// Attach a float field.
    pub fn f64(&mut self, name: &str, v: f64) -> &mut Self {
        self.fields.push((name.to_string(), Value::F64(v)));
        self
    }

    /// Attach a boolean field.
    pub fn bool(&mut self, name: &str, v: bool) -> &mut Self {
        self.fields.push((name.to_string(), Value::Bool(v)));
        self
    }

    /// Attach a string label field.
    pub fn str(&mut self, name: &str, v: &str) -> &mut Self {
        self.fields.push((name.to_string(), Value::Str(v.to_string())));
        self
    }
}

struct State {
    cycle: u64,
    sim_t: f64,
    events: Vec<Event>,
}

struct Shared {
    wall_clock: bool,
    start: Instant,
    state: Mutex<State>,
}

/// The telemetry handle threaded through the pipeline.
///
/// `Recorder::default()` (and [`Recorder::disabled`]) is the static
/// no-op sink: a `None` that every call checks and bails on. Enabled
/// recorders are created with [`Recorder::enabled`] and cloned freely;
/// all clones append to the same recording.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Shared>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Recorder(disabled)"),
            Some(s) => {
                let st = lock(s);
                write!(f, "Recorder(enabled, {} events)", st.events.len())
            }
        }
    }
}

fn lock(shared: &Shared) -> std::sync::MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(|e| e.into_inner())
}

impl Recorder {
    /// The no-op sink (same as `Recorder::default()`).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live recorder with wall-clock side fields off (fully
    /// deterministic output).
    pub fn enabled() -> Self {
        Self::build(false)
    }

    /// A live recorder that additionally stamps each event with
    /// wall-clock nanoseconds since creation. The side field is
    /// ignored by equality and round-trip checks.
    pub fn enabled_with_wall_clock() -> Self {
        Self::build(true)
    }

    fn build(wall_clock: bool) -> Self {
        Self {
            inner: Some(Arc::new(Shared {
                wall_clock,
                start: Instant::now(),
                state: Mutex::new(State { cycle: 0, sim_t: 0.0, events: Vec::new() }),
            })),
        }
    }

    /// Whether events are being captured.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Set the (cycle, simulated-time) scope stamped on subsequent
    /// [`Recorder::event`] calls.
    pub fn begin_cycle(&self, cycle: u64, sim_t: f64) {
        if let Some(shared) = &self.inner {
            let mut st = lock(shared);
            st.cycle = cycle;
            st.sim_t = sim_t;
        }
    }

    /// Record an event under the current cycle scope, read under the same
    /// lock that appends it. The closure runs only when enabled.
    pub fn event(&self, kind: &str, f: impl FnOnce(&mut EventBuilder)) {
        let Some(shared) = &self.inner else { return };
        let mut b = EventBuilder::default();
        f(&mut b);
        let wall_ns = shared.wall_clock.then(|| shared.start.elapsed().as_nanos() as u64);
        let mut st = lock(shared);
        let (cycle, sim_t) = (st.cycle, st.sim_t);
        st.events.push(Event { sim_t, cycle, kind: kind.to_string(), wall_ns, fields: b.fields });
    }

    /// Snapshot the recording so far. `None` when disabled.
    pub fn recording(&self) -> Option<Recording> {
        let shared = self.inner.as_ref()?;
        let st = lock(shared);
        Some(Recording { events: st.events.clone() })
    }
}

/// A captured (or JSONL-reloaded) recording: the event stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Recording {
    /// Events in capture order.
    pub events: Vec<Event>,
}

impl Recording {
    /// Serialize as JSONL: one object per event, one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            ev.emit_jsonl(&mut out);
            out.push('\n');
        }
        out
    }

    /// Rebuild a recording from [`Recording::to_jsonl`] output.
    /// Bit-identical round-trip is guaranteed (and proptested).
    pub fn from_jsonl(text: &str) -> Result<Recording, JsonError> {
        let mut events = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if !line.is_empty() {
                events.push(Event::decode(&crate::json::parse(line)?)?);
            }
        }
        Ok(Recording { events })
    }

    /// Events of one kind, in capture order.
    pub fn events_of<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Human-readable digest: event count, cycle span and per-kind
    /// counts — the head of what `vodx trace` prints.
    pub fn summarize(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "events: {}", self.events.len());
        if let (Some(first), Some(last)) = (self.events.first(), self.events.last()) {
            let _ = writeln!(
                out,
                "cycles: {}..={}  sim_t: {:.3}..={:.3}",
                first.cycle, last.cycle, first.sim_t, last.sim_t
            );
        }
        let mut kinds: Vec<(&str, usize)> = Vec::new();
        for ev in &self.events {
            match kinds.iter_mut().find(|(k, _)| *k == ev.kind) {
                Some((_, n)) => *n += 1,
                None => kinds.push((&ev.kind, 1)),
            }
        }
        for (k, n) in &kinds {
            let _ = writeln!(out, "  {k:<20} {n}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::default();
        assert!(!rec.is_enabled());
        rec.begin_cycle(3, 1.5);
        rec.event("rung", |e| {
            e.str("rung", "full");
        });
        assert!(rec.recording().is_none());
    }

    #[test]
    fn clones_share_one_recording() {
        let rec = Recorder::enabled();
        let other = rec.clone();
        rec.begin_cycle(1, 0.25);
        other.event("intake", |e| {
            e.u64("offered", 7);
        });
        let r = rec.recording().expect("enabled");
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.events[0].cycle, 1);
        assert_eq!(r.events[0].sim_t, 0.25);
        assert_eq!(r.events[0].u64("offered"), Some(7));
    }

    #[test]
    fn jsonl_round_trip_preserves_everything() {
        let rec = Recorder::enabled();
        rec.begin_cycle(0, 0.0);
        rec.event("rung", |e| {
            e.str("rung", "full").u64("keep", 12).f64("predicted", 1.5e6).bool("over", false);
        });
        rec.begin_cycle(1, 2.0);
        rec.event("weird", |e| {
            e.f64("nan", f64::NAN)
                .f64("ninf", f64::NEG_INFINITY)
                .f64("nzero", -0.0)
                .str("tagged", "f64:deadbeef")
                .str("tagged2", "str:already");
        });
        let r = rec.recording().expect("enabled");
        let text = r.to_jsonl();
        let back = Recording::from_jsonl(&text).expect("round-trip");
        assert_eq!(back, r);
        // And the re-serialization is byte-identical, too.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn wall_clock_side_field_ignored_by_equality() {
        let with = Recorder::enabled_with_wall_clock();
        with.event("x", |e| {
            e.u64("a", 1);
        });
        let without = Recorder::enabled();
        without.event("x", |e| {
            e.u64("a", 1);
        });
        let a = with.recording().expect("enabled");
        let b = without.recording().expect("enabled");
        assert!(a.events[0].wall_ns.is_some());
        assert!(b.events[0].wall_ns.is_none());
        assert_eq!(a, b);
        // wall_ns survives its own round trip, though.
        let back = Recording::from_jsonl(&a.to_jsonl()).expect("round-trip");
        assert_eq!(back.events[0].wall_ns, a.events[0].wall_ns);
    }

    #[test]
    fn summarize_names_kinds_and_counts() {
        let rec = Recorder::enabled();
        rec.begin_cycle(0, 0.0);
        rec.event("rung", |_| {});
        rec.event("rung", |_| {});
        rec.event("warm", |_| {});
        let s = rec.recording().expect("enabled").summarize();
        assert!(s.contains("events: 3"));
        let has = |kind: &str, n: &str| s.lines().any(|l| l.split_whitespace().eq([kind, n]));
        assert!(has("rung", "2") && has("warm", "1"), "{s}");
    }
}
