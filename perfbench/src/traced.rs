//! The traced run (`--trace 1`): the workload's calls measured once
//! untraced and once with a `vs_telemetry` memory sink and a metrics
//! registry installed, then golden runs and a stage replay under
//! benchmark spans. Spans are exported as Chrome trace JSON and checked
//! with `validate_spans`; every per-layer metric is read from the trace,
//! the campaign phase histograms or the calls themselves.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use vs_fault::campaign::{self, phase};
use vs_fault::session;
use vs_telemetry::export::{chrome_trace, validate_spans};
use vs_telemetry::metrics::{MetricsRegistry, WorkerMetrics};
use vs_telemetry::{span, MemorySink};

use crate::replay::{replay, Counts, PIPELINE_STAGES};
use crate::stats::median;
use crate::trace::{self_times, SpanTime};
use crate::workloads::{summary_facts, Kind, Setup};
use crate::{measure, Args, Metric, Report};

/// Golden runs and replay passes per mode (untapped and tapped).
const PASSES: usize = 3;

/// Every per-layer metric, with its unit, in report order.
pub const LAYER_METRICS: [(&str, &str); 45] = [
    ("fault.exec_ms_p50", "ms"),
    ("fault.exec_ms_p99", "ms"),
    ("fault.restore_share", "ratio"),
    ("fault.record_share", "ratio"),
    ("fault.classify_share", "ratio"),
    ("fault.runs_resumed", "count"),
    ("fault.runs_from_scratch", "count"),
    ("fault.masked", "count"),
    ("fault.sdc", "count"),
    ("fault.crash", "count"),
    ("fault.hang", "count"),
    ("video.render_s", "s"),
    ("fault.profile_s", "s"),
    ("fault.capture_s", "s"),
    ("fault.checkpoints", "count"),
    ("fault.tap_ratio", "ratio"),
    ("adaptive.batches", "count"),
    ("adaptive.half_width_pp", "pp"),
    ("adaptive.injections", "count"),
    ("compose.groups", "count"),
    ("compose.groups_injected", "count"),
    ("compose.pilots_per_group", "count"),
    ("core.run_ms", "ms"),
    ("core.segments", "count"),
    ("core.frames_discarded", "count"),
    ("core.affine_fallbacks", "count"),
    ("image.decode_ms", "ms"),
    ("image.blur_ms", "ms"),
    ("image.downsample_ms", "ms"),
    ("features.orb_ms", "ms"),
    ("features.fast_ms", "ms"),
    ("features.keypoints", "count/frame"),
    ("features.tap_ratio", "ratio"),
    ("matching.match_ms", "ms"),
    ("matching.accept_ratio", "ratio"),
    ("matching.tap_ratio", "ratio"),
    ("geometry.ransac_ms", "ms"),
    ("geometry.inlier_ratio", "ratio"),
    ("geometry.tap_ratio", "ratio"),
    ("warp.composite_ms", "ms"),
    ("warp.mpix_per_s", "Mpix/s"),
    ("warp.tap_ratio", "ratio"),
    ("replay.coverage", "ratio"),
    ("replay.gap_ms", "ms"),
    ("telemetry.trace_overhead", "ratio"),
];

/// Benchmark spans are named `<layer>.<call>`; the library's own spans
/// (`campaign`, `frame_stage`, `orb_stage`, ...) carry no dot.
fn is_bench_span(name: &str) -> bool {
    name.contains('.')
}

/// Where the Chrome trace of a workload is written.
fn trace_path(kind: Kind) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.trace.json", kind.name()))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Span durations and self times, grouped for lookup.
struct Spans(Vec<SpanTime>);

impl Spans {
    fn durations_s(&self, name: &str) -> Vec<f64> {
        self.0
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e9)
            .collect()
    }

    /// Total duration of the first span named `name`, 0 if none.
    fn first_s(&self, name: &str) -> f64 {
        self.durations_s(name).first().copied().unwrap_or(0.0)
    }

    /// Self time of `stage` per replay pass under `root`, in ms.
    fn stage_ms(&self, root: &str, stage: &str, passes: usize) -> f64 {
        let ns: u64 = self
            .0
            .iter()
            .filter(|s| s.root == root && s.name == stage)
            .map(|s| s.self_ns)
            .sum();
        ns as f64 / 1e6 / passes as f64
    }
}

/// Per-call phase figures from the campaign metrics registry; `runs` is
/// the mean number of injected runs per call.
fn phase_metrics(m: &WorkerMetrics, calls: usize, runs: f64) -> Vec<(&'static str, f64)> {
    let hist_ms = |name: &str, q: fn(&vs_telemetry::metrics::Histogram) -> u64| {
        m.histogram(name).map_or(0.0, |h| q(h) as f64 / 1e6)
    };
    let sum = |name: &str| m.histogram(name).map_or(0.0, |h| h.sum() as f64);
    let wall = sum(phase::WORKER_WALL);
    let resumed = m.counter(phase::RUNS_RESUMED) as f64 / calls as f64;
    vec![
        ("fault.exec_ms_p50", hist_ms(phase::EXEC, |h| h.p50())),
        ("fault.exec_ms_p99", hist_ms(phase::EXEC, |h| h.p99())),
        ("fault.restore_share", ratio(sum(phase::RESTORE), wall)),
        ("fault.record_share", ratio(sum(phase::RECORD), wall)),
        ("fault.classify_share", ratio(sum(phase::CLASSIFY), wall)),
        ("fault.runs_resumed", resumed),
        // Every injected run either resumed from a checkpoint or ran
        // from frame 0; the grouped executor of compositional campaigns
        // counts neither, so derive the second from the first.
        ("fault.runs_from_scratch", runs - resumed),
    ]
}

fn replay_metrics(spans: &Spans, counts: &Counts, core_ms: f64) -> Vec<(&'static str, f64)> {
    let off = |stage| spans.stage_ms("replay.untapped", stage, PASSES);
    let tap = |stage| ratio(spans.stage_ms("replay.tapped", stage, PASSES), off(stage));
    let covered: f64 = PIPELINE_STAGES.iter().map(|s| off(s)).sum();
    let composite_ms = off("warp.composite");
    vec![
        ("image.decode_ms", off("image.decode")),
        ("image.blur_ms", off("image.blur")),
        ("image.downsample_ms", off("image.downsample")),
        ("features.orb_ms", off("features.orb")),
        ("features.fast_ms", off("features.fast")),
        (
            "features.keypoints",
            ratio(counts.keypoints as f64, counts.frames as f64),
        ),
        ("features.tap_ratio", tap("features.orb")),
        ("matching.match_ms", off("matching.match")),
        (
            "matching.accept_ratio",
            ratio(counts.matches as f64, counts.queries as f64),
        ),
        ("matching.tap_ratio", tap("matching.match")),
        ("geometry.ransac_ms", off("geometry.ransac")),
        (
            "geometry.inlier_ratio",
            ratio(counts.inliers as f64, counts.ransac_pairs as f64),
        ),
        ("geometry.tap_ratio", tap("geometry.ransac")),
        ("warp.composite_ms", composite_ms),
        (
            "warp.mpix_per_s",
            ratio(counts.composite_px as f64 / 1e6, composite_ms / 1e3),
        ),
        ("warp.tap_ratio", tap("warp.composite")),
        ("replay.coverage", ratio(covered, core_ms)),
        ("replay.gap_ms", core_ms - covered),
    ]
}

pub fn run_traced(args: &Args) -> Result<Report, String> {
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    // Reference: the same calls with nothing installed.
    let untraced = measure(&Setup::new(args.kind, args.seed)?, half, None)?;

    let sink = Arc::new(MemorySink::new());
    vs_telemetry::set_trace_seed(args.seed);
    let guard = vs_telemetry::install(sink.clone());
    let setup = Setup::new(args.kind, args.seed)?;
    if setup.checkpoints() > 0 {
        // The plain golden profile, to set the checkpoint capture apart.
        let _s = span("fault.profile");
        campaign::profile_golden(&setup.workload)
            .map_err(|e| format!("golden run failed: {e:?}"))?;
    }
    let registry = Arc::new(MetricsRegistry::new());
    let traced = measure(&setup, half, Some(&registry))?;

    let w = &setup.workload;
    let mut golden = None;
    for _ in 0..PASSES {
        {
            let _s = span("core.run");
            golden = Some(
                w.summarize()
                    .map_err(|e| format!("golden run failed: {e:?}"))?,
            );
        }
        let _s = span("core.run_tapped");
        let _p = session::begin_profile();
        w.summarize()
            .map_err(|e| format!("profiled golden run failed: {e:?}"))?;
    }
    let golden = golden.expect("PASSES > 0");
    let mut counts = Counts::default();
    for _ in 0..PASSES {
        {
            let _s = span("replay.untapped");
            counts = replay(w, &golden, false).map_err(|e| format!("replay failed: {e:?}"))?;
        }
        let _s = span("replay.tapped");
        replay(w, &golden, true).map_err(|e| format!("tapped replay failed: {e:?}"))?;
    }
    drop(guard);

    let events = sink.take();
    let spans_ok = match validate_spans(&events) {
        Ok(_) => true,
        Err(e) => {
            eprintln!("error: invalid span trace: {}", e.message);
            false
        }
    };
    let path = trace_path(args.kind);
    std::fs::create_dir_all(path.parent().expect("trace path has a parent"))
        .and_then(|()| std::fs::write(&path, chrome_trace(&events)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("chrome trace {} ({} events)", path.display(), events.len());

    let spans = Spans(self_times(&events, is_bench_span));
    let core_ms = median(&spans.durations_s("core.run")) * 1e3;
    let tapped_ms = median(&spans.durations_s("core.run_tapped")) * 1e3;
    let t_untraced = median(&untraced.call_s);
    let t_traced = median(&traced.call_s);

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let calls = traced.call_s.len();
    let injected = if args.kind == Kind::GoldenHd {
        0.0
    } else {
        traced.runs.iter().sum::<usize>() as f64 / calls as f64
    };
    values.extend(phase_metrics(&registry.merged(), calls, injected));
    values.extend(traced.first.facts.iter().copied());
    values.extend(summary_facts(&golden));
    values.extend(replay_metrics(&spans, &counts, core_ms));
    values.extend([
        ("video.render_s", spans.first_s("video.render")),
        ("fault.profile_s", spans.first_s("fault.profile")),
        ("fault.capture_s", spans.first_s("fault.capture")),
        ("fault.checkpoints", setup.checkpoints() as f64),
        ("fault.tap_ratio", ratio(tapped_ms, core_ms)),
        ("core.run_ms", core_ms),
        ("telemetry.trace_overhead", t_traced / t_untraced - 1.0),
    ]);
    println!(
        "untraced calls {} (median {t_untraced:.4} s), traced calls {} (median {t_traced:.4} s)",
        untraced.call_s.len(),
        traced.call_s.len()
    );

    // Tracing must not change what the calls compute.
    let same_output = untraced.first.digest == traced.first.digest;
    let failed =
        untraced.failed + traced.failed + usize::from(!spans_ok) + usize::from(!same_output);
    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect();
    Ok(Report {
        attempted: untraced.attempted + traced.attempted + 2,
        failed,
        metrics,
    })
}
