//! # vod-obs — structured telemetry for the service pipeline
//!
//! A zero-dependency **flight recorder** ([`Recorder`]): typed events
//! stamped in *simulated* time, capturing every per-cycle decision the
//! service loop makes (rung picks, shed/backoff counts, warm-start
//! stats, SORP trial reuse, repair retries). The recording holds only
//! events; run-level totals are sums over them, taken by whoever knows
//! the event schema ([`Recording::summarize`] only counts per kind).
//!
//! Recordings export to JSONL ([`Recording::to_jsonl`], one line per
//! event) and reload bit-identically ([`Recording::from_jsonl`]); the
//! wire format is hand-rolled in [`json`] because this workspace's serde
//! is a no-op shim. The default [`Recorder`] is a static no-op sink so
//! the disabled path costs a single branch — asserted by
//! `telemetry_props`.
//!
//! ## Determinism rules
//!
//! 1. Event timestamps are simulated seconds (`sim_t`) and cycle
//!    numbers; wall-clock nanoseconds are an optional side field that
//!    equality ignores.
//! 2. Event payloads carry only scheduler state, never clock reads.
//! 3. Floats round-trip by bit pattern (NaN/±inf included) via a
//!    tagged-string encoding, so a reloaded recording compares equal
//!    to the live one.

pub mod json;
pub mod recorder;

pub use json::{Json, JsonError};
pub use recorder::{Event, EventBuilder, Recorder, Recording, Value};
