//! Trace sinks, the zero-cost disabled path, the deterministic
//! span-tree context and the one region timer — the tracing and timing
//! part of the observation context ([`crate::context`]).
//!
//! A sink is installed on a thread with [`install`]; instrumented code
//! calls [`emit`] unconditionally. With no sink installed — the default
//! everywhere, including campaign worker threads — `emit` is one
//! thread-local load and a branch, which is what makes instrumentation
//! safe to leave in hot pipeline code.
//!
//! # Spans are the timer
//!
//! A [`Span`] is the only way code times a region. Traced, it emits a
//! `span_enter`/`span_exit` pair whose timestamps carry its duration.
//! Opened on a thread armed for metrics ([`crate::Handle::arm`]), it
//! also reads the clock and, when it closes, records the elapsed
//! nanoseconds into that thread's [`crate::metrics::WorkerMetrics`]
//! histogram named after the span. So the campaign phases (spans named
//! by `vs_fault::campaign::phase`) and every pipeline stage (spans
//! named by [`crate::digest::Stage::name`]) are timed into an injected
//! run's worker histograms with no timer of their own. A span on an
//! unarmed thread reads no clock.
//!
//! # Span identities
//!
//! Every [`Span`] opened while a sink is installed is assigned a
//! `span_id` from the splitmix64 finalizer over `(trace seed, thread,
//! per-thread counter)` — a bijection, so ids are unique within a trace
//! and *deterministic*: the same binary with the same seed produces the
//! same id sequence. [`install`] starts a fresh span context (counter 0,
//! empty stack) and its guard restores the previous context on drop, so
//! each trace file gets a self-contained id space. Plain [`emit`] calls
//! made inside a span carry the enclosing `span_id`, which is what lets
//! the exporter ([`crate::export`]) attach instant events to the tree.
//! Span state only advances while a sink is installed: untraced runs
//! leave the id stream untouched, keeping traced runs reproducible.

use crate::context::{self, Context, Guard, Saved};
use crate::digest::mix64;
use crate::event::{Event, Value};
use crate::sink::Sink;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Maximum tracked span nesting per thread. Deeper spans still get ids
/// (parented to the deepest tracked span) but are not pushed.
const MAX_SPAN_DEPTH: usize = 64;

/// Per-thread span context: the open-span id stack and the id counter.
/// Fixed-capacity so span bookkeeping never allocates — instrumented
/// code runs inside allocation-gated benchmark loops.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SpanState {
    stack: [u64; MAX_SPAN_DEPTH],
    len: usize,
    counter: u64,
}

impl SpanState {
    pub(crate) const fn new() -> Self {
        SpanState {
            stack: [0; MAX_SPAN_DEPTH],
            len: 0,
            counter: 0,
        }
    }

    fn top(&self) -> Option<u64> {
        self.len.checked_sub(1).map(|i| self.stack[i])
    }
}

/// Seed mixed into every span id; set once per process by traced
/// binaries (usually to the workload seed) so traces are reproducible.
static TRACE_SEED: AtomicU64 = AtomicU64::new(0);

/// Next trace thread id; assigned lazily on a thread's first use.
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// Process epoch for span timestamps.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Set the process-wide trace seed span ids are derived from. Call once
/// before installing a sink; the default seed is 0.
pub fn set_trace_seed(seed: u64) {
    TRACE_SEED.store(seed, Ordering::Relaxed);
}

impl Context {
    /// This thread's trace thread id (assigned on first use, dense from 0).
    fn trace_tid(&self) -> u32 {
        let cur = self.tid.get();
        if cur != u32::MAX {
            return cur;
        }
        let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        self.tid.set(id);
        id
    }
}

/// Nanoseconds since the process telemetry epoch (first use).
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

impl std::fmt::Debug for dyn Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("<sink>")
    }
}

/// Install `sink` as the current thread's telemetry sink until the guard
/// drops. Nests: the previous sink (and its span context) is restored.
/// Each installation starts a fresh, deterministic span-id space.
pub fn install(sink: Arc<dyn Sink>) -> Guard {
    Guard::restoring(context::with(|cx| {
        let spans = Box::new(cx.spans.replace(SpanState::new()));
        Saved::Sink(cx.sink.replace(Some(sink)), spans)
    }))
}

/// Whether a sink is installed on this thread. Instrumentation that
/// must compute fields eagerly can gate on this; plain [`emit`] calls
/// don't need to.
#[inline]
pub fn enabled() -> bool {
    context::with(|cx| cx.sink.borrow().is_some())
}

/// Stack-buffered field concatenation: events stay allocation-free up to
/// [`EMIT_FIELDS_MAX`] total fields (the workload's widest event is far
/// below this); wider events fall back to a heap buffer.
const EMIT_FIELDS_MAX: usize = 32;

/// Forward `fields` + `extra` to `sink` without allocating when they fit
/// the fixed buffer.
fn emit_with_extra(
    sink: &Arc<dyn Sink>,
    name: &str,
    fields: &[(&str, Value<'_>)],
    extra: &[(&str, Value<'_>)],
) {
    let total = fields.len() + extra.len();
    if total <= EMIT_FIELDS_MAX {
        let mut buf = [("", Value::Bool(false)); EMIT_FIELDS_MAX];
        buf[..fields.len()].copy_from_slice(fields);
        buf[fields.len()..total].copy_from_slice(extra);
        sink.event(&Event {
            name,
            fields: &buf[..total],
        });
    } else {
        let mut all = Vec::with_capacity(total);
        all.extend_from_slice(fields);
        all.extend_from_slice(extra);
        sink.event(&Event { name, fields: &all });
    }
}

/// Emit one event to the thread's sink; a near-free no-op when no sink
/// is installed. Inside an open span the event additionally carries the
/// enclosing `span_id`, the trace `tid` and a `ts_ns` timestamp, so
/// exporters can place it in the span tree.
#[inline]
pub fn emit(name: &str, fields: &[(&str, Value<'_>)]) {
    context::with(|cx| {
        if let Some(sink) = cx.sink.borrow().as_ref() {
            let top = cx.spans.borrow().top();
            match top {
                Some(id) => emit_with_extra(
                    sink,
                    name,
                    fields,
                    &[
                        ("span_id", Value::U64(id)),
                        ("tid", Value::U64(u64::from(cx.trace_tid()))),
                        ("ts_ns", Value::U64(now_ns())),
                    ],
                ),
                None => sink.event(&Event { name, fields }),
            }
        }
    });
}

/// A structured span: emits `span_enter` on creation and `span_exit` on
/// drop, with a per-thread nesting depth and a deterministic `span_id`/
/// `parent_id` pair (`parent_id` 0 marks a root), so a trace
/// reconstructs the stage tree without timestamps. On a thread armed
/// for metrics it also records its duration into the armed histogram
/// named `name`.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    depth: u32,
    /// Assigned id, if a sink was installed at creation.
    id: Option<u64>,
    /// Opening time, if the thread was armed for metrics at creation.
    pub(crate) start: Option<Instant>,
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Open a span named `name` with extra identifying fields.
pub fn span_with(name: &'static str, fields: &[(&str, Value<'_>)]) -> Span {
    // The untraced, unarmed path stays a depth bump and two branches:
    // the traced half runs in a second access, so this closure inlines.
    let (depth, traced, armed) = context::with(|cx| {
        let depth = cx.depth.get();
        cx.depth.set(depth + 1);
        (
            depth,
            cx.sink.borrow().is_some(),
            cx.armed.borrow().is_some(),
        )
    });
    let id = traced.then(|| context::with(|cx| enter(cx, name, depth, fields)));
    Span {
        name,
        depth,
        id,
        start: armed.then(Instant::now),
        _not_send: std::marker::PhantomData,
    }
}

/// Assign a traced span its id, push it and emit `span_enter`.
fn enter(cx: &Context, name: &'static str, depth: u32, fields: &[(&str, Value<'_>)]) -> u64 {
    let tid = cx.trace_tid();
    let (span_id, parent_id) = {
        let mut st = cx.spans.borrow_mut();
        let key = (u64::from(tid) << 32).wrapping_add(st.counter);
        let span_id = mix64(TRACE_SEED.load(Ordering::Relaxed) ^ key);
        st.counter = st.counter.wrapping_add(1);
        let parent_id = st.top().unwrap_or(0);
        if st.len < MAX_SPAN_DEPTH {
            let len = st.len;
            st.stack[len] = span_id;
            st.len = len + 1;
        }
        (span_id, parent_id)
    };
    let header = [
        ("span", Value::Str(name)),
        ("depth", Value::U64(u64::from(depth))),
        ("span_id", Value::U64(span_id)),
        ("parent_id", Value::U64(parent_id)),
        ("tid", Value::U64(u64::from(tid))),
        ("ts_ns", Value::U64(now_ns())),
    ];
    if let Some(sink) = cx.sink.borrow().as_ref() {
        emit_with_extra(sink, "span_enter", &header, fields);
    }
    span_id
}

/// Open a span named `name`.
pub fn span(name: &'static str) -> Span {
    span_with(name, &[])
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.map(|t0| t0.elapsed().as_nanos() as u64);
        context::with(|cx| {
            cx.depth.set(cx.depth.get().saturating_sub(1));
            if let Some(ns) = elapsed {
                if let Some(m) = cx.armed.borrow_mut().as_mut() {
                    m.record_ns(self.name, ns);
                }
            }
        });
        let Some(id) = self.id else {
            return;
        };
        context::with(|cx| {
            {
                let mut st = cx.spans.borrow_mut();
                if st.top() == Some(id) {
                    st.len -= 1;
                }
            }
            if let Some(sink) = cx.sink.borrow().as_ref() {
                sink.event(&Event {
                    name: "span_exit",
                    fields: &[
                        ("span", Value::Str(self.name)),
                        ("depth", Value::U64(u64::from(self.depth))),
                        ("span_id", Value::U64(id)),
                        ("tid", Value::U64(u64::from(cx.trace_tid()))),
                        ("ts_ns", Value::U64(now_ns())),
                    ],
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::sink::MemorySink;

    #[test]
    fn spans_track_depth_and_pair_up() {
        let sink = Arc::new(MemorySink::new());
        let _g = install(sink.clone());
        {
            let _outer = span("stage_a");
            let _inner = span_with("stage_b", &[("frame", Value::U64(3))]);
        }
        let events = sink.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            ["span_enter", "span_enter", "span_exit", "span_exit"]
        );
        assert_eq!(events[0].u64("depth"), Some(0));
        assert_eq!(events[1].u64("depth"), Some(1));
        assert_eq!(events[1].u64("frame"), Some(3));
        assert_eq!(events[2].str("span"), Some("stage_b"));
        assert_eq!(events[3].str("span"), Some("stage_a"));
    }

    /// Arm this thread as worker 0 of a fresh registry.
    fn armed() -> (Guard, Arc<MetricsRegistry>) {
        let registry = Arc::new(MetricsRegistry::new());
        let handle = crate::Handle {
            sink: None,
            registry: Some(registry.clone()),
        };
        (handle.arm(0), registry)
    }

    /// Samples per histogram name, in first-touch order.
    fn samples(registry: &MetricsRegistry) -> Vec<(&'static str, u64)> {
        let m = registry.merged();
        m.histograms()
            .iter()
            .map(|(n, h)| (*n, h.count()))
            .collect()
    }

    #[test]
    fn spans_without_sink_still_balance_depth() {
        // A registry installed on this thread arms nothing here: the
        // spans read no clock and record nothing.
        let registry = Arc::new(MetricsRegistry::new());
        {
            let _reg = crate::metrics::install(registry.clone());
            let a = span("quiet");
            let b = span_with("inner", &[("frame", Value::U64(1))]);
            assert!(a.start.is_none() && b.start.is_none());
        }
        assert!(registry.per_worker().is_empty());
        let sink = Arc::new(MemorySink::new());
        let _g = install(sink.clone());
        let s = span("after");
        drop(s);
        assert_eq!(sink.events()[0].u64("depth"), Some(0));
    }

    #[test]
    fn span_ids_link_parents_and_are_deterministic_per_install() {
        let first = Arc::new(MemorySink::new());
        {
            let _g = install(first.clone());
            let _outer = span("run");
            let _inner = span("frame");
            emit("orb", &[("keypoints", Value::U64(9))]);
        }
        // The second trace is also armed for metrics.
        let second = Arc::new(MemorySink::new());
        let (arming, registry) = armed();
        {
            let _g = install(second.clone());
            let _outer = span("run");
            let _inner = span("frame");
            emit("orb", &[("keypoints", Value::U64(9))]);
        }
        drop(arming);
        assert_eq!(samples(&registry), [("frame", 1), ("run", 1)]);
        let a = first.events();
        let b = second.events();
        // Same seed + fresh install => identical id streams, armed or not.
        let ids = |e: &crate::OwnedEvent| (e.name.clone(), e.u64("span_id"), e.u64("parent_id"));
        assert_eq!(
            a.iter().map(ids).collect::<Vec<_>>(),
            b.iter().map(ids).collect::<Vec<_>>()
        );
        // Tree structure: outer is a root, inner points at outer, and the
        // plain event carries the innermost enclosing span id.
        let outer_id = a[0].u64("span_id").unwrap();
        let inner_id = a[1].u64("span_id").unwrap();
        assert_ne!(outer_id, inner_id);
        assert_eq!(a[0].u64("parent_id"), Some(0));
        assert_eq!(a[1].u64("parent_id"), Some(outer_id));
        assert_eq!(a[2].name, "orb");
        assert_eq!(a[2].u64("span_id"), Some(inner_id));
        assert!(a[2].u64("ts_ns").is_some());
        // Exits name the span they close.
        assert_eq!(a[3].u64("span_id"), Some(inner_id));
        assert_eq!(a[4].u64("span_id"), Some(outer_id));
    }

    #[test]
    fn armed_spans_record_one_sample_per_close_under_their_name() {
        let (arming, registry) = armed();
        {
            let _outer = span("outer");
            for frame in 0..2u64 {
                let _inner = span_with("inner", &[("frame", Value::U64(frame))]);
                let leaf = span("leaf");
                assert!(leaf.start.is_some(), "an armed span reads the clock");
            }
        }
        drop(span("outer"));
        drop(arming);
        // Spans closed after the deposit record nothing.
        drop(span("late"));
        assert_eq!(registry.per_worker().len(), 1);
        let order = [("leaf", 2), ("inner", 2), ("outer", 2)];
        assert_eq!(samples(&registry), order, "inner spans close first");
        let m = registry.merged();
        let sum = |name| m.histogram(name).unwrap().sum();
        assert!(
            sum("leaf") <= sum("inner"),
            "a nested span's time is its parent's"
        );
        assert!(m.counters().is_empty());
    }

    #[test]
    fn emits_outside_spans_carry_no_span_fields() {
        let sink = Arc::new(MemorySink::new());
        let _g = install(sink.clone());
        emit("bench_config", &[("threads", Value::U64(4))]);
        let e = &sink.events()[0];
        assert_eq!(e.get("span_id"), None);
        assert_eq!(e.get("ts_ns"), None);
    }
}
