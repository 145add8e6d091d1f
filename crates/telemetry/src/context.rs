//! The one per-thread observation context, its guard and the handle
//! campaign drivers arm their workers from.
//!
//! Everything a thread can have installed to watch a run lives in one
//! thread-local: the trace sink and its span state ([`crate::scope`]),
//! the installed [`MetricsRegistry`] and a worker's armed
//! [`WorkerMetrics`] ([`crate::metrics`]), and the forensic digest trace
//! ([`crate::digest`]). With nothing installed — the default on every
//! thread, campaign workers included — each check an instrumented site
//! makes is one thread-local read and a branch, and a run without
//! metrics never reads the clock. A span reads the sink and the armed
//! metrics in that one access: on an armed worker it times itself into
//! the worker's histogram named after it, so the spans that name the
//! campaign phases and pipeline stages are the only timers.
//!
//! Every entry point that installs something — [`crate::install`],
//! [`crate::metrics::install`], [`Handle::arm`],
//! [`crate::digest::record_from`] — returns a [`Guard`] that restores, on
//! drop, only the part of the context it replaced, so scopes of
//! different capabilities nest in any order; [`detach`] replaces every
//! part at once, with nothing. Campaign drivers
//! [`capture`] the calling thread's context once and arm every worker
//! from that one [`Handle`]; workers never get a sink of their own,
//! which would flood the trace with the stage events of every injected
//! run.

use crate::digest::DigestTrace;
use crate::metrics::{MetricsRegistry, WorkerMetrics};
use crate::scope::SpanState;
use crate::sink::Sink;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::Arc;

/// Everything installed on one thread. Each part has its own cell, so a
/// sink's `event` call and a metrics sample never contend for a borrow.
pub(crate) struct Context {
    /// The trace sink, if any.
    pub(crate) sink: RefCell<Option<Arc<dyn Sink>>>,
    /// The span-id space of the installed sink's trace.
    pub(crate) spans: RefCell<SpanState>,
    /// Open spans on this thread, traced or not.
    pub(crate) depth: Cell<u32>,
    /// Trace thread id, `u32::MAX` until first use.
    pub(crate) tid: Cell<u32>,
    /// The registry campaign drivers arm their workers from.
    pub(crate) registry: RefCell<Option<Arc<MetricsRegistry>>>,
    /// A campaign worker's span timings and counters, while armed.
    pub(crate) armed: RefCell<Option<WorkerMetrics>>,
    /// The forensic digest trace, while recording.
    pub(crate) digests: RefCell<Option<DigestTrace>>,
}

thread_local! {
    static CONTEXT: Context = const {
        Context {
            sink: RefCell::new(None),
            spans: RefCell::new(SpanState::new()),
            depth: Cell::new(0),
            tid: Cell::new(u32::MAX),
            registry: RefCell::new(None),
            armed: RefCell::new(None),
            digests: RefCell::new(None),
        }
    };
}

/// Run `f` on this thread's context.
#[inline]
pub(crate) fn with<R>(f: impl FnOnce(&Context) -> R) -> R {
    CONTEXT.with(f)
}

/// The one part of a context a [`Guard`] replaced, holding the value to
/// put back.
#[derive(Debug)]
pub(crate) enum Saved {
    /// The sink and its span-id space (boxed: the span stack is far
    /// larger than every other part).
    Sink(Option<Arc<dyn Sink>>, Box<SpanState>),
    Registry(Option<Arc<MetricsRegistry>>),
    /// The previous arming, and the registry and worker id the armed
    /// metrics are deposited under.
    Armed(Option<WorkerMetrics>, Arc<MetricsRegistry>, usize),
    Digests(Option<DigestTrace>),
    /// Every part, replaced by [`detach`].
    All(Box<Detached>),
    /// Nothing was replaced.
    Nothing,
}

/// Every part of a context, as [`detach`] took it.
#[derive(Debug)]
pub(crate) struct Detached {
    sink: Option<Arc<dyn Sink>>,
    spans: SpanState,
    registry: Option<Arc<MetricsRegistry>>,
    armed: Option<WorkerMetrics>,
    digests: Option<DigestTrace>,
}

/// The one guard of the observation context: restores, when dropped,
/// exactly the part of this thread's context its constructor replaced.
/// Dropping a sink's guard flushes that sink; dropping an armed
/// worker's guard deposits its metrics into the registry it was armed
/// from.
#[must_use = "the context is restored when the guard drops"]
#[derive(Debug)]
pub struct Guard {
    saved: Saved,
    _not_send: PhantomData<*const ()>,
}

impl Guard {
    pub(crate) fn restoring(saved: Saved) -> Guard {
        Guard {
            saved,
            _not_send: PhantomData,
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let saved = std::mem::replace(&mut self.saved, Saved::Nothing);
        with(|cx| match saved {
            Saved::Sink(sink, spans) => {
                let mut slot = cx.sink.borrow_mut();
                if let Some(current) = slot.as_ref() {
                    current.flush();
                }
                *slot = sink;
                *cx.spans.borrow_mut() = *spans;
            }
            Saved::Registry(registry) => *cx.registry.borrow_mut() = registry,
            Saved::Armed(prev, registry, worker) => {
                if let Some(metrics) = cx.armed.replace(prev) {
                    registry.absorb(worker, metrics);
                }
            }
            Saved::Digests(digests) => *cx.digests.borrow_mut() = digests,
            Saved::All(parts) => {
                let Detached {
                    sink,
                    spans,
                    registry,
                    armed,
                    digests,
                } = *parts;
                *cx.sink.borrow_mut() = sink;
                *cx.spans.borrow_mut() = spans;
                *cx.registry.borrow_mut() = registry;
                *cx.armed.borrow_mut() = armed;
                *cx.digests.borrow_mut() = digests;
            }
            Saved::Nothing => {}
        });
    }
}

/// Detach this thread's whole context until the guard drops: its sink
/// and span state, metrics registry, armed metrics and digest trace.
/// Code run under the guard is observed by nothing, as on a thread of
/// its own, and the drop puts every part back as it was. Campaign
/// drivers re-run a golden run this way, so the caller's trace and
/// digest trace see the golden run once.
pub fn detach() -> Guard {
    Guard::restoring(with(|cx| {
        Saved::All(Box::new(Detached {
            sink: cx.sink.take(),
            spans: cx.spans.replace(SpanState::new()),
            registry: cx.registry.take(),
            armed: cx.armed.take(),
            digests: cx.digests.take(),
        }))
    }))
}

/// The calling thread's sink and metrics registry, captured once by a
/// campaign driver and shared with its workers.
#[derive(Debug, Clone, Default)]
pub struct Handle {
    /// The captured sink: campaign-level events from any thread go here
    /// directly, never through a worker's own (absent) sink.
    pub sink: Option<Arc<dyn Sink>>,
    /// The captured metrics registry.
    pub registry: Option<Arc<MetricsRegistry>>,
}

/// Capture what this thread has installed for its workers to report to.
pub fn capture() -> Handle {
    with(|cx| Handle {
        sink: cx.sink.borrow().clone(),
        registry: cx.registry.borrow().clone(),
    })
}

impl Handle {
    /// Arm this thread's metrics as campaign worker `worker`, if a
    /// registry was captured: until the guard drops, every closed span's
    /// duration and every counter collect into a private
    /// [`WorkerMetrics`], lock-free; the drop deposits them into the
    /// registry under `worker`. Without a registry the guard restores
    /// nothing, spans read no clock and every metrics call stays a
    /// no-op.
    pub fn arm(&self, worker: usize) -> Guard {
        Guard::restoring(match &self.registry {
            Some(registry) => {
                let prev = with(|cx| cx.armed.replace(Some(WorkerMetrics::default())));
                Saved::Armed(prev, Arc::clone(registry), worker)
            }
            None => Saved::Nothing,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::{self, hash_fold, Stage};
    use crate::{emit, install, metrics, span, MemorySink};

    /// The capabilities a scope can open, one guard each.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Cap {
        Trace,
        Registry,
        Metrics,
        Digests,
    }

    const CAPS: [Cap; 4] = [Cap::Trace, Cap::Registry, Cap::Metrics, Cap::Digests];

    /// What one open scope installed, for probing it after the guard
    /// is gone too.
    #[derive(Debug)]
    struct Probe {
        cap: Cap,
        tag: u64,
        sink: Arc<MemorySink>,
        registry: Arc<MetricsRegistry>,
    }

    /// Open a scope of `cap`, marked with `tag`, and act once in it.
    fn open(cap: Cap, tag: u64) -> (Guard, Probe) {
        let sink = Arc::new(MemorySink::new());
        let registry = Arc::new(MetricsRegistry::new());
        let guard = match cap {
            Cap::Trace => install(sink.clone()),
            Cap::Registry => metrics::install(registry.clone()),
            Cap::Metrics => {
                let registry = Some(registry.clone());
                let g = Handle {
                    sink: None,
                    registry,
                }
                .arm(tag as usize);
                metrics::add("tag", tag);
                g
            }
            Cap::Digests => {
                let g = digest::record_from(DigestTrace::default());
                digest::record(Stage::Match, tag);
                digest::record_bytes(Stage::Warp, b"canvas");
                g
            }
        };
        (
            guard,
            Probe {
                cap,
                tag,
                sink,
                registry,
            },
        )
    }

    /// The scope `p` opened is the one in effect for its capability.
    fn assert_in_effect(p: &Probe) {
        let cx = capture();
        match p.cap {
            Cap::Trace => {
                let before = p.sink.count("probe");
                emit("probe", &[("tag", p.tag.into())]);
                assert_eq!(p.sink.count("probe"), before + 1, "{p:?} lost its sink");
                assert!(cx.sink.is_some());
            }
            Cap::Registry => {
                let seen = cx.registry.expect("registry installed");
                assert!(Arc::ptr_eq(&seen, &p.registry), "{p:?} lost its registry");
            }
            Cap::Metrics => {
                let tag = with(|cx| cx.armed.borrow().as_ref().map(|m| m.counter("tag")));
                assert_eq!(tag, Some(p.tag), "{p:?} lost its armed metrics");
                assert!(
                    span("probe").start.is_some(),
                    "an armed span reads the clock"
                );
            }
            Cap::Digests => {
                let t = digest::trace();
                assert_eq!(t.digest(Stage::Match), hash_fold(0, p.tag), "{p:?}");
                assert_eq!((t.count(Stage::Match), t.count(Stage::Warp)), (1, 1));
                assert!(digest::enabled());
            }
        }
    }

    /// Nothing is installed: every gate is one failed check, and every
    /// recording call is a no-op.
    fn assert_all_off() {
        assert!(!crate::enabled());
        emit("dropped", &[]);
        let quiet = span("probe");
        assert!(quiet.start.is_none(), "a disarmed span reads no clock");
        drop(quiet);
        metrics::add("never", 1);
        assert!(with(|cx| cx.armed.borrow().is_none()));
        assert!(!digest::enabled());
        digest::record(Stage::Decode, 42);
        digest::record_bytes(Stage::Warp, b"canvas");
        assert_eq!(digest::trace(), DigestTrace::default());
        let cx = capture();
        assert!(cx.sink.is_none() && cx.registry.is_none());
    }

    /// Every capability's scope opened and closed inside every other's
    /// (its own included) leaves the outer scope in effect, and closing
    /// both leaves nothing installed. Each sink holds exactly the probe
    /// events emitted while it was the installed sink, and the span of a
    /// metrics probe made meanwhile; an armed worker deposits exactly
    /// what it collected, one sample per probe span included, under its
    /// worker id, when its guard drops; installed observers stay on the
    /// installing thread.
    #[test]
    fn scopes_nest_and_restore_only_what_they_replaced() {
        for outer in CAPS {
            for inner in CAPS {
                assert_all_off();
                let (outer_guard, o) = open(outer, 1);
                assert_in_effect(&o);
                let (inner_guard, i) = open(inner, 2);
                assert_in_effect(&i);
                if inner != outer {
                    assert_in_effect(&o);
                }
                let other = std::thread::scope(|s| s.spawn(capture).join().unwrap());
                assert!(other.sink.is_none() && other.registry.is_none());
                drop(inner_guard);
                assert_in_effect(&o);
                drop(outer_guard);
                assert_all_off();
                // The outer scope was probed once before, during (unless
                // shadowed by its own kind) and after the inner one.
                let outer_probes = if inner == outer { 2 } else { 3 };
                // The metrics probe made while both a sink and armed
                // metrics were in effect traced its span too.
                let pairs = usize::from([outer, inner].contains(&Cap::Metrics));
                for (p, n) in [(&o, outer_probes), (&i, 1)] {
                    let traced = usize::from(p.cap == Cap::Trace);
                    assert_eq!(p.sink.count("probe"), traced * n, "{outer:?}/{inner:?}");
                    assert_eq!(
                        p.sink.len(),
                        traced * (n + 2 * pairs),
                        "{outer:?}/{inner:?}"
                    );
                    let deposits = p.registry.per_worker();
                    if p.cap == Cap::Metrics {
                        assert_eq!(deposits.len(), 1, "{p:?}");
                        assert_eq!(deposits[0].0, p.tag as usize);
                        assert_eq!(deposits[0].1.counter("tag"), p.tag, "{p:?}");
                        let spans = deposits[0].1.histogram("probe").map(|h| h.count());
                        assert_eq!(spans, Some(n as u64), "{p:?}: one sample per span");
                    } else {
                        assert!(deposits.is_empty(), "{p:?}");
                    }
                }
            }
        }
        // Detaching hides every capability at once, and restores each.
        let opened: Vec<_> = CAPS.iter().zip(1..).map(|(&c, t)| open(c, t)).collect();
        let other_trace = digest::trace();
        {
            let _detached = detach();
            assert_all_off();
            // A scope opened inside the detached one restores to nothing.
            let (inner, probe) = open(Cap::Digests, 9);
            assert_in_effect(&probe);
            drop(inner);
            assert_all_off();
        }
        for (_, p) in &opened {
            assert_in_effect(p);
        }
        assert_eq!(
            digest::trace(),
            other_trace,
            "the detached scope folded nothing"
        );
        drop(opened.into_iter().rev().map(|(g, _)| g).collect::<Vec<_>>());
        assert_all_off();
        // A trace seeded with a prefix snapshot folds the suffix to the
        // trace of the whole run.
        let prefix = {
            let _g = digest::record_from(DigestTrace::default());
            digest::record(Stage::Match, 3);
            digest::trace()
        };
        let resumed = {
            let _g = digest::record_from(prefix);
            digest::record(Stage::Match, 5);
            digest::record(Stage::Summary, 11);
            digest::trace()
        };
        let mut full = DigestTrace::default();
        for (stage, v) in [(Stage::Match, 3), (Stage::Match, 5), (Stage::Summary, 11)] {
            full.fold(stage, v);
        }
        assert_eq!(resumed, full);
    }
}
