//! Dependency-free trace exporters and the span-tree schema validator.
//!
//! A JSONL trace produced by [`crate::JsonlSink`] carries a span tree:
//! `span_enter`/`span_exit` events with `span_id`/`parent_id`/`tid`/
//! `ts_ns` fields (see [`crate::scope`]), and plain events stamped with
//! their enclosing `span_id`. This module turns such a trace into
//! formats external tools read:
//!
//! * [`chrome_trace`] — Chrome trace-event JSON, loadable in Perfetto or
//!   `chrome://tracing`. Exactly one trace event is written per input
//!   event (`B`/`E` for span enter/exit, instant `i` for everything
//!   else), so event counts are preserved — the verify smoke leans on
//!   that invariant.
//! * [`flame_summary`] — collapsed-stack flame format
//!   (`root;child;leaf <self_ns>`), one line per distinct stack,
//!   consumable by the standard flamegraph tooling.
//! * [`validate_spans`] — the schema gate behind `trace_check --spans`:
//!   ids unique, every parent known and currently open, spans well
//!   nested per thread, timestamps monotone per thread, nothing left
//!   open at end of trace.

use crate::event::{write_json_str, write_owned_json_value, OwnedEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fields the span machinery itself attaches; everything else on a span
/// event is a user field and belongs in the exported `args`.
const SPAN_HEADER_FIELDS: &[&str] = &["span", "depth", "span_id", "parent_id", "tid", "ts_ns"];

/// Fields [`crate::emit`] attaches to plain events inside a span.
const EMIT_HEADER_FIELDS: &[&str] = &["span_id", "tid", "ts_ns"];

/// Convert a parsed JSONL trace into Chrome trace-event JSON.
///
/// Events without a `ts_ns` stamp (top-level emits outside any span)
/// inherit the timestamp of the most recent stamped event, so they stay
/// in trace order without inventing a clock. One trace event is emitted
/// per input event.
pub fn chrome_trace(events: &[OwnedEvent]) -> String {
    let mut out = String::with_capacity(64 + 96 * events.len());
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut last_ts = 0u64;
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = e.u64("ts_ns").unwrap_or(last_ts);
        last_ts = ts;
        let tid = e.u64("tid").unwrap_or(0);
        let (name, ph, skip): (&str, &str, &[&str]) = match e.name.as_str() {
            "span_enter" => (e.str("span").unwrap_or("span"), "B", SPAN_HEADER_FIELDS),
            "span_exit" => (e.str("span").unwrap_or("span"), "E", SPAN_HEADER_FIELDS),
            _ => (e.name.as_str(), "i", EMIT_HEADER_FIELDS),
        };
        out.push_str("{\"name\":");
        write_json_str(&mut out, name);
        let _ = write!(
            out,
            ",\"ph\":\"{ph}\",\"ts\":{:.3},\"pid\":1,\"tid\":{tid}",
            ts as f64 / 1000.0
        );
        if ph == "i" {
            out.push_str(",\"s\":\"t\"");
        }
        let mut args_open = false;
        for (k, v) in &e.fields {
            if skip.contains(&k.as_str()) {
                continue;
            }
            if !args_open {
                out.push_str(",\"args\":{");
                args_open = true;
            } else {
                out.push(',');
            }
            write_json_str(&mut out, k);
            out.push(':');
            write_owned_json_value(&mut out, v);
        }
        if args_open {
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// One open span while replaying a trace.
struct OpenSpan {
    id: u64,
    name: String,
    enter_ts: u64,
    child_ns: u64,
}

/// Collapse a span trace into flamegraph folded-stack lines:
/// `name;nested;leaf <self_time_ns>`, sorted by stack path. Self time is
/// the span's duration minus its children's; unbalanced traces
/// contribute only their closed spans.
pub fn flame_summary(events: &[OwnedEvent]) -> String {
    let mut stacks: BTreeMap<u64, Vec<OpenSpan>> = BTreeMap::new();
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for e in events {
        let tid = e.u64("tid").unwrap_or(0);
        match e.name.as_str() {
            "span_enter" => {
                let Some(id) = e.u64("span_id") else { continue };
                stacks.entry(tid).or_default().push(OpenSpan {
                    id,
                    name: e.str("span").unwrap_or("span").to_string(),
                    enter_ts: e.u64("ts_ns").unwrap_or(0),
                    child_ns: 0,
                });
            }
            "span_exit" => {
                let stack = stacks.entry(tid).or_default();
                let matches_top =
                    e.u64("span_id").is_some() && stack.last().map(|s| s.id) == e.u64("span_id");
                if !matches_top {
                    continue;
                }
                let span = stack.pop().expect("top checked");
                let exit_ts = e.u64("ts_ns").unwrap_or(span.enter_ts);
                let dur = exit_ts.saturating_sub(span.enter_ts);
                let self_ns = dur.saturating_sub(span.child_ns);
                let mut path = String::new();
                for s in stack.iter() {
                    path.push_str(&s.name);
                    path.push(';');
                }
                path.push_str(&span.name);
                *folded.entry(path).or_insert(0) += self_ns;
                if let Some(parent) = stack.last_mut() {
                    parent.child_ns += dur;
                }
            }
            _ => {}
        }
    }
    let mut out = String::new();
    for (path, ns) in &folded {
        let _ = writeln!(out, "{path} {ns}");
    }
    out
}

/// Summary counters [`validate_spans`] returns on success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Closed spans in the trace.
    pub spans: usize,
    /// Plain events carrying an enclosing `span_id`.
    pub events_in_spans: usize,
    /// Distinct trace thread ids that opened spans.
    pub threads: usize,
    /// Deepest observed nesting.
    pub max_depth: usize,
}

/// A span-tree schema violation: the offending event's 0-based index in
/// the trace plus a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanError {
    /// 0-based index of the offending event.
    pub index: usize,
    /// What is wrong with it.
    pub message: String,
}

impl std::fmt::Display for SpanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event {}: {}", self.index, self.message)
    }
}

impl std::error::Error for SpanError {}

fn span_err<T>(index: usize, message: String) -> Result<T, SpanError> {
    Err(SpanError { index, message })
}

/// Validate the span tree of a parsed trace.
///
/// # Errors
///
/// Returns the first violation of the span schema: a missing header
/// field, a reused `span_id`, a `parent_id` that is not the currently
/// open span of its thread, a `span_exit` that does not close the top of
/// its thread's stack, a plain event whose `span_id` is not its thread's
/// open span, per-thread timestamps running backwards, or spans still
/// open when the trace ends.
pub fn validate_spans(events: &[OwnedEvent]) -> Result<SpanStats, SpanError> {
    // Per-tid stack of (span_id, name); plus per-tid last timestamp.
    let mut stacks: BTreeMap<u64, Vec<(u64, String)>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut seen_ids: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut stats = SpanStats {
        spans: 0,
        events_in_spans: 0,
        threads: 0,
        max_depth: 0,
    };
    for (i, e) in events.iter().enumerate() {
        match e.name.as_str() {
            "span_enter" => {
                let name = e
                    .str("span")
                    .ok_or_else(|| SpanError {
                        index: i,
                        message: "span_enter without a span name".into(),
                    })?
                    .to_string();
                let (Some(id), Some(parent), Some(tid), Some(ts)) = (
                    e.u64("span_id"),
                    e.u64("parent_id"),
                    e.u64("tid"),
                    e.u64("ts_ns"),
                ) else {
                    return span_err(
                        i,
                        format!("span_enter '{name}' missing span_id/parent_id/tid/ts_ns"),
                    );
                };
                if id == 0 {
                    return span_err(i, format!("span '{name}' has reserved id 0"));
                }
                if !seen_ids.insert(id) {
                    return span_err(i, format!("span id {id:#x} ('{name}') reused"));
                }
                if let Some(prev) = last_ts.insert(tid, ts) {
                    if ts < prev {
                        return span_err(i, format!("ts_ns ran backwards on tid {tid}"));
                    }
                }
                let stack = stacks.entry(tid).or_default();
                let expected = stack.last().map_or(0, |(pid, _)| *pid);
                if parent != expected {
                    return span_err(
                        i,
                        format!(
                            "span '{name}' parent_id {parent:#x} but open span on tid {tid} is {expected:#x}"
                        ),
                    );
                }
                stack.push((id, name));
                stats.max_depth = stats.max_depth.max(stack.len());
            }
            "span_exit" => {
                let (Some(id), Some(tid)) = (e.u64("span_id"), e.u64("tid")) else {
                    return span_err(i, "span_exit missing span_id/tid".into());
                };
                if let (Some(ts), Some(prev)) = (e.u64("ts_ns"), last_ts.get(&tid).copied()) {
                    if ts < prev {
                        return span_err(i, format!("ts_ns ran backwards on tid {tid}"));
                    }
                    last_ts.insert(tid, ts);
                }
                let stack = stacks.entry(tid).or_default();
                match stack.pop() {
                    Some((top, name)) => {
                        if top != id {
                            return span_err(
                                i,
                                format!(
                                    "span_exit {id:#x} does not close open span {top:#x} ('{name}') on tid {tid}"
                                ),
                            );
                        }
                        if let Some(exit_name) = e.str("span") {
                            if exit_name != name {
                                return span_err(
                                    i,
                                    format!("span_exit named '{exit_name}' closes span '{name}'"),
                                );
                            }
                        }
                        stats.spans += 1;
                    }
                    None => {
                        return span_err(i, format!("span_exit {id:#x} with no open span"));
                    }
                }
            }
            _ => {
                if let Some(id) = e.u64("span_id") {
                    let Some(tid) = e.u64("tid") else {
                        return span_err(i, format!("event '{}' has span_id but no tid", e.name));
                    };
                    let open = stacks.get(&tid).and_then(|s| s.last()).map(|(id, _)| *id);
                    if open != Some(id) {
                        return span_err(
                            i,
                            format!(
                                "event '{}' span_id {id:#x} is not the open span of tid {tid}",
                                e.name
                            ),
                        );
                    }
                    stats.events_in_spans += 1;
                }
            }
        }
    }
    for (tid, stack) in &stacks {
        if let Some((id, name)) = stack.last() {
            return span_err(
                events.len().saturating_sub(1),
                format!("span '{name}' ({id:#x}) on tid {tid} never exited"),
            );
        }
    }
    stats.threads = stacks.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;
    use crate::{emit, install, span, span_with, Value};
    use std::sync::Arc;

    fn sample_trace() -> Vec<OwnedEvent> {
        let sink = Arc::new(MemorySink::new());
        {
            let _g = install(sink.clone());
            let _run = span("run");
            {
                let _frame = span_with("frame", &[("frame", Value::U64(0))]);
                emit("orb", &[("keypoints", Value::U64(12))]);
            }
            {
                let _frame = span_with("frame", &[("frame", Value::U64(1))]);
                emit("orb", &[("keypoints", Value::U64(9))]);
            }
        }
        sink.events()
    }

    #[test]
    fn validates_a_well_formed_trace() {
        let events = sample_trace();
        let stats = validate_spans(&events).expect("trace is well formed");
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.events_in_spans, 2);
        assert_eq!(stats.max_depth, 2);
        assert_eq!(stats.threads, 1);
    }

    #[test]
    fn rejects_corrupted_traces() {
        // Reused span id.
        let mut events = sample_trace();
        let first_id = events[0].u64("span_id").unwrap();
        for f in &mut events[1].fields {
            if f.0 == "span_id" {
                f.1 = crate::OwnedValue::U64(first_id);
            }
        }
        let err = validate_spans(&events).unwrap_err();
        assert!(err.message.contains("reused"), "{err}");

        // Dangling parent id.
        let mut events = sample_trace();
        for f in &mut events[1].fields {
            if f.0 == "parent_id" {
                f.1 = crate::OwnedValue::U64(0xdead_beef);
            }
        }
        assert!(validate_spans(&events).is_err());

        // Missing exit: drop the final span_exit.
        let mut events = sample_trace();
        events.pop();
        let err = validate_spans(&events).unwrap_err();
        assert!(err.message.contains("never exited"), "{err}");

        // A plain event claiming a span that is not open.
        let mut events = sample_trace();
        for f in &mut events[2].fields {
            if f.0 == "span_id" {
                f.1 = crate::OwnedValue::U64(0x1234_5678);
            }
        }
        assert!(validate_spans(&events).is_err());
    }

    #[test]
    fn chrome_export_preserves_event_counts() {
        let events = sample_trace();
        let json = chrome_trace(&events);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        let count = json.matches("\"ph\":").count();
        assert_eq!(count, events.len());
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 2);
        // User fields survive as args; header fields do not.
        assert!(json.contains("\"keypoints\":12"));
        assert!(!json.contains("\"parent_id\""));
    }

    #[test]
    fn flame_summary_folds_stacks() {
        let events = sample_trace();
        let folded = flame_summary(&events);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2, "{folded}");
        assert!(lines[0].starts_with("run "));
        assert!(lines[1].starts_with("run;frame "));
    }
}
