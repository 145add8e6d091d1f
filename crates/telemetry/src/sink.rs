//! Event sinks: where emitted telemetry goes.
//!
//! All sinks are `Send + Sync` — campaign telemetry is emitted
//! concurrently from worker threads — and every sink serializes
//! internally at event granularity, so JSONL lines never interleave.

use crate::event::{to_jsonl, Event, OwnedEvent};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A consumer of telemetry events.
///
/// Implementations must not emit telemetry themselves (the thread-local
/// dispatch in [`crate::scope`] is not reentrant) and should keep
/// [`Sink::event`] cheap: it runs inline in instrumented code.
pub trait Sink: Send + Sync {
    /// Consume one event.
    fn event(&self, event: &Event<'_>);

    /// Flush any buffered output (JSONL writers).
    fn flush(&self) {}
}

/// Retains every event in memory; the assertion surface for tests and
/// for overhead measurements.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<OwnedEvent>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Clone out the retained events.
    pub fn events(&self) -> Vec<OwnedEvent> {
        self.lock().clone()
    }

    /// Drain the retained events.
    pub fn take(&self) -> Vec<OwnedEvent> {
        std::mem::take(&mut *self.lock())
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Number of retained events with the given name.
    pub fn count(&self, name: &str) -> usize {
        self.lock().iter().filter(|e| e.name == name).count()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<OwnedEvent>> {
        self.events.lock().expect("memory sink mutex poisoned")
    }
}

impl Sink for MemorySink {
    fn event(&self, event: &Event<'_>) {
        self.lock().push(event.to_owned());
    }
}

/// Writes one JSON object per event, newline-delimited (JSONL). The
/// schema is documented in EXPERIMENTS.md §Observability and validated
/// by [`crate::jsonl::parse_line`].
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wrap a writer. For files, pass a `BufWriter`.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: Mutex::new(writer),
        }
    }

    /// Flush and return the inner writer.
    pub fn into_inner(self) -> W {
        let mut w = self.writer.into_inner().expect("jsonl sink mutex poisoned");
        let _ = w.flush();
        w
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn event(&self, event: &Event<'_>) {
        let mut line = to_jsonl(event);
        line.push('\n');
        let mut w = self.writer.lock().expect("jsonl sink mutex poisoned");
        // Telemetry must never fail the instrumented program: I/O errors
        // are swallowed (the trace is best-effort, the run is not).
        let _ = w.write_all(line.as_bytes());
    }

    fn flush(&self) {
        if let Ok(mut w) = self.writer.lock() {
            let _ = w.flush();
        }
    }
}

/// Human-readable line-per-event sink: `# <name> k=v k=v ...` — the
/// default progress output of the bench binaries.
#[derive(Debug)]
pub struct TextSink<W: Write + Send> {
    writer: Mutex<W>,
    skip: &'static [&'static str],
}

/// High-frequency detail events suppressed by [`TextSink::progress`]:
/// per-frame/per-stage counters and per-injection records that would
/// swamp a terminal but belong in a JSONL trace.
const DETAIL_EVENTS: &[&str] = &[
    "frame",
    "match",
    "orb",
    "ransac",
    "warp",
    "span_enter",
    "span_exit",
    "injection",
];

impl<W: Write + Send> TextSink<W> {
    /// Print every event.
    pub fn new(writer: W) -> Self {
        TextSink {
            writer: Mutex::new(writer),
            skip: &[],
        }
    }

    /// Print milestone and progress events only, suppressing the
    /// per-frame, per-stage, span and per-injection detail events — the
    /// terminal-friendly default.
    pub fn progress(writer: W) -> Self {
        TextSink {
            writer: Mutex::new(writer),
            skip: DETAIL_EVENTS,
        }
    }
}

/// Span-stamp fields the emitter appends to events inside a span;
/// machine data for the exporters, noise on a terminal.
const SPAN_STAMP_FIELDS: &[&str] = &["span_id", "parent_id", "tid", "ts_ns"];

impl<W: Write + Send> Sink for TextSink<W> {
    fn event(&self, event: &Event<'_>) {
        if self.skip.contains(&event.name) {
            return;
        }
        let mut line = String::with_capacity(64);
        line.push_str("# ");
        line.push_str(event.name);
        for (k, v) in event.fields {
            if SPAN_STAMP_FIELDS.contains(k) {
                continue;
            }
            line.push(' ');
            line.push_str(k);
            line.push('=');
            match v {
                crate::Value::U64(x) => {
                    line.push_str(&x.to_string());
                }
                crate::Value::I64(x) => {
                    line.push_str(&x.to_string());
                }
                crate::Value::F64(x) => {
                    line.push_str(&format!("{x:.3}"));
                }
                crate::Value::Bool(x) => {
                    line.push_str(if *x { "true" } else { "false" });
                }
                crate::Value::Str(s) => {
                    line.push_str(s);
                }
            }
        }
        line.push('\n');
        let mut w = self.writer.lock().expect("text sink mutex poisoned");
        let _ = w.write_all(line.as_bytes());
    }

    fn flush(&self) {
        if let Ok(mut w) = self.writer.lock() {
            let _ = w.flush();
        }
    }
}

/// Broadcasts every event to a set of sinks (e.g. human-readable
/// progress on stdout plus a JSONL trace file).
#[derive(Default)]
pub struct FanoutSink {
    sinks: Vec<Arc<dyn Sink>>,
}

impl FanoutSink {
    /// An empty fanout (drops everything until sinks are added).
    pub fn new() -> Self {
        FanoutSink::default()
    }

    /// Add a downstream sink.
    #[must_use]
    pub fn with(mut self, sink: Arc<dyn Sink>) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl Sink for FanoutSink {
    fn event(&self, event: &Event<'_>) {
        for s in &self.sinks {
            s.event(event);
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    #[test]
    fn memory_sink_retains_and_counts() {
        let sink = MemorySink::new();
        sink.event(&Event::new("a", &[("x", Value::U64(1))]));
        sink.event(&Event::new("b", &[]));
        sink.event(&Event::new("a", &[("x", Value::U64(2))]));
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.count("a"), 2);
        let events = sink.take();
        assert_eq!(events[2].u64("x"), Some(2));
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let sink = JsonlSink::new(Vec::new());
        sink.event(&Event::new("one", &[("k", Value::Str("v"))]));
        sink.event(&Event::new("two", &[]));
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"event":"one","k":"v"}"#);
        assert_eq!(lines[1], r#"{"event":"two"}"#);
    }

    #[test]
    fn text_sink_progress_suppresses_detail_events() {
        let sink = TextSink::progress(Vec::new());
        sink.event(&Event::new("injection", &[("index", Value::U64(0))]));
        sink.event(&Event::new("campaign_progress", &[("n", Value::U64(5))]));
        let w = sink.writer.into_inner().unwrap();
        let text = String::from_utf8(w).unwrap();
        assert_eq!(text, "# campaign_progress n=5\n");
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let fan = FanoutSink::new()
            .with(a.clone() as Arc<dyn Sink>)
            .with(b.clone() as Arc<dyn Sink>);
        fan.event(&Event::new("e", &[]));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }
}
