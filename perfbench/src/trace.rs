//! Span bookkeeping for the traced run: pairs the `span_enter` and
//! `span_exit` events an in-memory sink collected and derives each
//! benchmark span's self time.

use std::collections::HashMap;
use vs_telemetry::OwnedEvent;

/// One closed span the benchmark opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTime {
    pub name: String,
    /// Name of the outermost benchmark span around this one (its own
    /// name when it has none).
    pub root: String,
    pub dur_ns: u64,
    /// Duration minus the part covered by child benchmark spans.
    pub self_ns: u64,
}

struct Raw {
    name: String,
    parent: u64,
    start: u64,
    end: Option<u64>,
}

/// Self times of every closed span whose name `is_bench` accepts, in
/// opening order. Spans the library opens inside a benchmark span are not
/// subtracted: they are part of the layer the benchmark called into.
pub fn self_times(events: &[OwnedEvent], is_bench: impl Fn(&str) -> bool) -> Vec<SpanTime> {
    let mut order = Vec::new();
    let mut spans: HashMap<u64, Raw> = HashMap::new();
    for ev in events {
        let (Some(id), Some(ts)) = (ev.u64("span_id"), ev.u64("ts_ns")) else {
            continue;
        };
        match ev.name.as_str() {
            "span_enter" => {
                let raw = Raw {
                    name: ev.str("span").unwrap_or_default().to_string(),
                    parent: ev.u64("parent_id").unwrap_or(0),
                    start: ts,
                    end: None,
                };
                spans.insert(id, raw);
                order.push(id);
            }
            "span_exit" => {
                if let Some(s) = spans.get_mut(&id) {
                    s.end = Some(ts);
                }
            }
            _ => {}
        }
    }
    let bench = |id: &u64| spans.get(id).is_some_and(|s| is_bench(&s.name));
    // Nearest enclosing benchmark span, skipping library spans between.
    let bench_parent = |id: u64| {
        let mut p = spans.get(&id)?.parent;
        while p != 0 {
            if bench(&p) {
                return Some(p);
            }
            p = spans.get(&p)?.parent;
        }
        None
    };
    let dur = |id: u64| {
        let s = &spans[&id];
        s.end.map(|e| e.saturating_sub(s.start))
    };
    let closed: Vec<u64> = order
        .into_iter()
        .filter(|id| bench(id) && dur(*id).is_some())
        .collect();
    let mut self_ns: HashMap<u64, u64> = closed
        .iter()
        .map(|&id| (id, dur(id).unwrap_or(0)))
        .collect();
    for &id in &closed {
        if let Some(parent) = bench_parent(id).and_then(|p| self_ns.get_mut(&p)) {
            *parent = parent.saturating_sub(dur(id).unwrap_or(0));
        }
    }
    closed
        .iter()
        .map(|&id| {
            let mut root = id;
            while let Some(p) = bench_parent(root) {
                root = p;
            }
            SpanTime {
                name: spans[&id].name.clone(),
                root: spans[&root].name.clone(),
                dur_ns: dur(id).unwrap_or(0),
                self_ns: self_ns[&id],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_telemetry::OwnedValue;

    fn ev(name: &str, span: &str, id: u64, parent: u64, ts: u64) -> OwnedEvent {
        OwnedEvent {
            name: name.into(),
            fields: vec![
                ("span".into(), OwnedValue::Str(span.into())),
                ("span_id".into(), OwnedValue::U64(id)),
                ("parent_id".into(), OwnedValue::U64(parent)),
                ("ts_ns".into(), OwnedValue::U64(ts)),
            ],
        }
    }

    #[test]
    fn self_time_subtracts_bench_children_through_library_spans() {
        // a.outer [0, 100] > lib [10, 90] > b.inner [20, 50], c.inner [60, 70];
        // a trailing root d.other [100, 130] and one span never closed.
        let events = vec![
            ev("span_enter", "a.outer", 1, 0, 0),
            ev("span_enter", "lib", 2, 1, 10),
            ev("span_enter", "b.inner", 3, 2, 20),
            ev("tick", "", 3, 0, 30),
            ev("span_exit", "b.inner", 3, 0, 50),
            ev("span_enter", "c.inner", 4, 2, 60),
            ev("span_exit", "c.inner", 4, 0, 70),
            ev("span_exit", "lib", 2, 0, 90),
            ev("span_exit", "a.outer", 1, 0, 100),
            ev("span_enter", "d.other", 5, 0, 100),
            ev("span_exit", "d.other", 5, 0, 130),
            ev("span_enter", "e.open", 6, 0, 140),
        ];
        let got = self_times(&events, |n| n.contains('.'));
        let view: Vec<(&str, &str, u64, u64)> = got
            .iter()
            .map(|s| (s.name.as_str(), s.root.as_str(), s.dur_ns, s.self_ns))
            .collect();
        assert_eq!(
            view,
            vec![
                ("a.outer", "a.outer", 100, 60),
                ("b.inner", "a.outer", 30, 30),
                ("c.inner", "a.outer", 10, 10),
                ("d.other", "d.other", 30, 30),
            ]
        );
    }

    #[test]
    fn live_spans_from_an_installed_sink_pair_up() {
        use std::sync::Arc;
        let sink = Arc::new(vs_telemetry::MemorySink::new());
        {
            let _g = vs_telemetry::install(sink.clone());
            let _outer = vs_telemetry::span("x.outer");
            let _inner = vs_telemetry::span("x.inner");
        }
        let got = self_times(&sink.events(), |n| n.starts_with("x."));
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].root, "x.outer");
        assert!(got[0].self_ns <= got[0].dur_ns);
        assert_eq!(got[0].dur_ns - got[0].self_ns, got[1].dur_ns);
    }
}
