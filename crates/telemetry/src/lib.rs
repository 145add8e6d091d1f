//! Zero-perturbation observability for the video-summarization
//! resiliency study: structured spans, per-stage counters, campaign
//! phase metrics, forensic stage digests and live fault-campaign
//! telemetry.
//!
//! # The zero-perturbation invariant
//!
//! The fault injector in `vs-fault` classifies outcomes by comparing a
//! run's output — and draws fault sites from its *tap counters* —
//! against a golden run. Any observability layer that changed the tap
//! stream would silently change which faults are drawn and how they are
//! classified, invalidating every campaign. This crate therefore has
//! **no dependency on the fault layer** (or anything else): emitting an
//! event, timing a phase or folding a digest never executes a tap, and
//! installing or removing any observer leaves golden profiles, fault
//! draws and classifications bit-for-bit identical. The workspace
//! observation-equivalence cells (`tests/observation/mod.rs`) and the
//! Toy campaign test in `vs-fault` prove this for every observer alone
//! and for all of them together.
//!
//! # Architecture
//!
//! * [`context`] — the one per-thread observation context: one
//!   thread-local holding the sink and span state, the metrics
//!   registry and a worker's armed metrics, and the digest trace; the
//!   [`Guard`] that restores only what it replaced; and the [`Handle`]
//!   campaign drivers [`capture`] once and arm their workers from.
//! * [`scope`] — sink installation ([`install`]) and the near-free
//!   [`emit`] / [`span`] entry points instrumented code calls; the span
//!   is the one timer, traced through the sink and, on a metrics-armed
//!   worker, recorded into the histogram named after it.
//! * [`metrics`] — per-worker counters and log2-bucketed latency
//!   histograms for phase, stage and contention attribution: lock-free
//!   on the hot path (a worker's armed metrics live in its context; one
//!   registry deposit per worker), with `metrics_phase`/`metrics_counter`
//!   snapshot events through the sink machinery.
//! * [`digest`] — the forensic pipeline [`digest::Stage`]s, the
//!   per-stage [`digest::DigestTrace`] instrumented stages fold into
//!   while a trace is recording, and the splitmix64 fold itself.
//! * [`event`] — the borrowed [`Event`]/[`Value`] emission model and its
//!   owned mirror for retention and trace parsing.
//! * [`sink`] — the pluggable [`Sink`] trait with [`MemorySink`],
//!   [`JsonlSink`] (one JSON object per line), [`TextSink`]
//!   (human-readable progress) and [`FanoutSink`].
//! * [`jsonl`] — the dependency-free JSON reader: whole documents into a
//!   value tree (the bench `BENCH_*.json` artifacts), and traces written
//!   by [`JsonlSink`] as their flat-event schema (used by the
//!   `trace_check` tool and tests), with classified parse errors
//!   (truncation, bad escapes, duplicate keys).
//! * [`export`] — span-tree exporters: Chrome trace-event JSON
//!   (Perfetto/`chrome://tracing`), collapsed-stack flame summaries and
//!   the `trace_check --spans` schema validator.
//! * [`ledger`] — the append-only `run_manifest` JSONL store under
//!   `out/ledger/` that bench binaries append a per-invocation manifest
//!   to, feeding the `obs_report` regression sentinel.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use vs_telemetry::{install, emit, MemorySink, Value};
//!
//! let sink = Arc::new(MemorySink::new());
//! {
//!     let _guard = install(sink.clone());
//!     emit("frame", &[("index", Value::U64(0)), ("features", Value::U64(117))]);
//! }
//! assert_eq!(sink.count("frame"), 1);
//! assert_eq!(sink.events()[0].u64("features"), Some(117));
//! ```

pub mod context;
pub mod digest;
pub mod event;
pub mod export;
pub mod jsonl;
pub mod ledger;
pub mod metrics;
pub mod scope;
pub mod sink;

pub use context::{capture, detach, Guard, Handle};
pub use event::{owned_to_jsonl, to_jsonl, Event, OwnedEvent, OwnedValue, Value};
pub use scope::{emit, enabled, install, set_trace_seed, span, span_with, Span};
pub use sink::{FanoutSink, JsonlSink, MemorySink, Sink, TextSink};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn end_to_end_jsonl_round_trip_through_installed_sink() {
        let sink = Arc::new(JsonlSink::new(Vec::new()));
        {
            let _g = install(sink.clone());
            emit("alpha", &[("v", Value::F64(0.25))]);
            emit("beta", &[("s", Value::Str("x"))]);
        }
        let sink = Arc::into_inner(sink).expect("guard dropped its clone");
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let events = jsonl::parse_trace(&text).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "alpha");
        assert_eq!(events[0].f64("v"), Some(0.25));
        assert_eq!(events[1].str("s"), Some("x"));
    }
}
