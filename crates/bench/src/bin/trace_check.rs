//! Validate a JSONL telemetry trace written with `--trace`.
//!
//! ```text
//! trace_check FILE [--expect NAME=COUNT]... [--require NAME]...
//!             [--kernels] [--forensics] [--quiet]
//! ```
//!
//! Every line must parse against the trace schema (flat JSON object,
//! first key `"event"`); `--expect` pins the exact count of an event
//! name, `--require` just demands at least one. `--kernels` validates
//! the per-stage instrumentation: at least one span of every pipeline
//! `Stage` (span durations carry stage time), the `fast_prereject`
//! counter on every `orb` event, and
//! at least one traced detection that exercised the SWAR pre-reject
//! (`fast_prereject > 0`). `--metrics` validates the metrics snapshots
//! of `campaign_bench`'s thread sweep: at least one `metrics_phase`
//! event, one for every pipeline `Stage` among them, each carrying the
//! full quantile schema (`count`/`sum_ns`/`mean_ns`/`p50_ns`/`p90_ns`/
//! `p99_ns`/`max_ns` as u64) with monotone
//! quantiles (p50 <= p90 <= p99 <= max), every `metrics_counter`
//! carrying a u64 `value`, and at least one `metrics_coverage` event
//! whose `coverage` lies in [0, 1]. `--forensics` validates the fault-forensics
//! digest events: at least one `forensics_golden` carrying a digest per
//! pipeline stage, at least one `injection` with an `attr_stage`
//! attribution field, and every SDC injection carrying attribution
//! fields must be stage-resolved (`attr_stage != "unknown"`, `depth >=
//! 1`). `--spans` validates the span-tree schema: every `span_enter`
//! carries a non-zero unique `span_id` whose `parent_id` is the
//! enclosing open span of the same thread, spans are well-nested per
//! thread with monotone timestamps, and every in-span event's `span_id`
//! points at its open enclosing span. `--export-chrome FILE` converts
//! the trace to Chrome trace-event JSON (loadable in Perfetto /
//! `chrome://tracing`), `--export-flame FILE` to a collapsed-stack
//! flame summary (one `stack self_ns` line per span path). Prints a
//! per-event census and exits non-zero on any violation — the trace
//! smoke gate in `scripts/verify.sh`.

use std::collections::BTreeMap;
use std::process::ExitCode;
use vs_bench::cli;
use vs_telemetry::digest::Stage;

const USAGE: &str = "usage: trace_check FILE [--expect NAME=COUNT]... [--require NAME]... [--kernels] [--metrics] [--forensics] [--spans] [--export-chrome FILE] [--export-flame FILE] [--quiet]";

struct CheckOpts {
    file: std::path::PathBuf,
    expect: Vec<(String, usize)>,
    require: Vec<String>,
    kernels: bool,
    metrics: bool,
    forensics: bool,
    spans: bool,
    export_chrome: Option<std::path::PathBuf>,
    export_flame: Option<std::path::PathBuf>,
    quiet: bool,
}

fn parse(a: &mut cli::Args) -> Result<CheckOpts, String> {
    Ok(CheckOpts {
        expect: a.values_with("--expect", |v| {
            let (name, count) = v.split_once('=')?;
            Some((name.to_string(), count.parse().ok()?))
        })?,
        require: a.values("--require")?,
        kernels: a.flag("--kernels"),
        metrics: a.flag("--metrics"),
        forensics: a.flag("--forensics"),
        spans: a.flag("--spans"),
        export_chrome: a.value("--export-chrome")?,
        export_flame: a.value("--export-flame")?,
        quiet: a.flag("--quiet"),
        // Fields evaluate in this order: the positional comes last.
        file: match a.positionals().as_slice() {
            [file] => file.into(),
            [] => return Err("no trace file given".into()),
            [_, extra, ..] => return Err(format!("unknown argument '{extra}'")),
        },
    })
}

fn main() -> ExitCode {
    let o = match cli::parse(USAGE, parse) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let text = match std::fs::read_to_string(&o.file) {
        Ok(t) => t,
        Err(e) => return cli::fail(format!("cannot read {}: {e}", o.file.display())),
    };
    let events = match vs_telemetry::jsonl::parse_trace(&text) {
        Ok(ev) => ev,
        Err((line, e)) => return cli::fail(format!("{}:{line}: {e}", o.file.display())),
    };

    let mut census: BTreeMap<&str, usize> = BTreeMap::new();
    for ev in &events {
        *census.entry(&ev.name).or_default() += 1;
    }
    if !o.quiet {
        println!(
            "# trace_check {}: {} events",
            o.file.display(),
            events.len()
        );
        for (name, count) in &census {
            println!("# {name} {count}");
        }
    }

    let mut failed = false;
    for (name, want) in &o.expect {
        let got = census.get(name.as_str()).copied().unwrap_or(0);
        if got != *want {
            eprintln!("error: expected {want} '{name}' events, found {got}");
            failed = true;
        }
    }
    for name in &o.require {
        if !census.contains_key(name.as_str()) {
            eprintln!("error: required event '{name}' missing from trace");
            failed = true;
        }
    }
    if o.kernels {
        // Stage time lives in the stage spans; the FAST pre-reject
        // counter rides on the `orb` event.
        for stage in Stage::ALL {
            let opened = events
                .iter()
                .any(|e| e.name == "span_enter" && e.str("span") == Some(stage.name()));
            if !opened {
                eprintln!("error: --kernels: no '{stage}' stage span in trace");
                failed = true;
            }
        }
        let mut prerejects = 0;
        for ev in events.iter().filter(|e| e.name == "orb") {
            match ev.u64("fast_prereject") {
                Some(n) => prerejects += n,
                None => {
                    eprintln!("error: --kernels: 'orb' event lacks u64 field 'fast_prereject'");
                    failed = true;
                }
            }
        }
        if prerejects == 0 {
            eprintln!("error: --kernels: no traced detection exercised the SWAR pre-reject");
            failed = true;
        }
    }
    if o.metrics {
        // Metrics snapshots from a metrics-armed campaign (the
        // campaign_bench thread sweep): phase histograms with a
        // complete, monotone quantile schema, plus attribution coverage.
        let phases: Vec<_> = events
            .iter()
            .filter(|e| e.name == "metrics_phase")
            .collect();
        if phases.is_empty() {
            eprintln!("error: --metrics: no metrics_phase event in trace");
            failed = true;
        }
        // Injected runs are timed stage by stage: every pipeline stage's
        // spans fed a histogram.
        for stage in Stage::ALL.map(Stage::name) {
            if !phases.iter().any(|e| e.str("phase") == Some(stage)) {
                eprintln!("error: --metrics: no metrics_phase snapshot of stage '{stage}'");
                failed = true;
            }
        }
        for ev in &phases {
            if ev.str("phase").is_none() {
                eprintln!("error: --metrics: metrics_phase lacks str field 'phase'");
                failed = true;
                continue;
            }
            let name = ev.str("phase").unwrap_or("?");
            let fields = [
                "count", "sum_ns", "mean_ns", "p50_ns", "p90_ns", "p99_ns", "max_ns",
            ];
            let mut complete = true;
            for field in fields {
                if ev.u64(field).is_none() {
                    eprintln!("error: --metrics: metrics_phase '{name}' lacks u64 field '{field}'");
                    failed = true;
                    complete = false;
                }
            }
            if complete {
                let q = |f: &str| ev.u64(f).unwrap_or(0);
                if !(q("p50_ns") <= q("p90_ns")
                    && q("p90_ns") <= q("p99_ns")
                    && q("p99_ns") <= q("max_ns"))
                {
                    eprintln!("error: --metrics: metrics_phase '{name}' quantiles not monotone");
                    failed = true;
                }
                if q("count") == 0 {
                    eprintln!("error: --metrics: metrics_phase '{name}' with zero samples");
                    failed = true;
                }
            }
        }
        for ev in events.iter().filter(|e| e.name == "metrics_counter") {
            if ev.str("counter").is_none() || ev.u64("value").is_none() {
                eprintln!("error: --metrics: metrics_counter lacks 'counter'/'value' fields");
                failed = true;
            }
        }
        let coverages: Vec<_> = events
            .iter()
            .filter(|e| e.name == "metrics_coverage")
            .collect();
        if coverages.is_empty() {
            eprintln!("error: --metrics: no metrics_coverage event in trace");
            failed = true;
        }
        for ev in &coverages {
            match ev.f64("coverage") {
                Some(c) if (0.0..=1.0).contains(&c) => {}
                Some(c) => {
                    eprintln!("error: --metrics: coverage {c} outside [0, 1]");
                    failed = true;
                }
                None => {
                    eprintln!("error: --metrics: metrics_coverage lacks f64 field 'coverage'");
                    failed = true;
                }
            }
        }
    }
    if o.forensics {
        // Fault-forensics digest events from a forensic campaign run.
        let stages = Stage::ALL.map(Stage::name);
        let goldens: Vec<_> = events
            .iter()
            .filter(|e| e.name == "forensics_golden")
            .collect();
        if goldens.is_empty() {
            eprintln!("error: --forensics: no forensics_golden event in trace");
            failed = true;
        }
        for ev in &goldens {
            for stage in stages {
                if ev.u64(stage).is_none() {
                    eprintln!(
                        "error: --forensics: forensics_golden lacks u64 digest field '{stage}'"
                    );
                    failed = true;
                }
            }
        }
        let mut attributed = 0usize;
        for ev in events.iter().filter(|e| e.name == "injection") {
            // Only injections from forensic campaigns carry attribution
            // fields; control campaigns (forensics off) interleave in
            // the same trace.
            let Some(attr) = ev.str("attr_stage") else {
                continue;
            };
            attributed += 1;
            if !stages.contains(&attr) && attr != "unknown" {
                eprintln!("error: --forensics: unknown attr_stage '{attr}'");
                failed = true;
            }
            if ev.str("outcome") == Some("sdc") {
                if attr == "unknown" {
                    eprintln!("error: --forensics: sdc injection with unresolved attr_stage");
                    failed = true;
                }
                match ev.u64("depth") {
                    Some(d) if d >= 1 => {}
                    _ => {
                        eprintln!(
                            "error: --forensics: sdc injection without divergence depth >= 1"
                        );
                        failed = true;
                    }
                }
            }
        }
        if attributed == 0 {
            eprintln!("error: --forensics: no injection event carries attr_stage");
            failed = true;
        }
    }
    if o.spans {
        match vs_telemetry::export::validate_spans(&events) {
            Ok(stats) => {
                if stats.spans == 0 {
                    eprintln!("error: --spans: no span_enter events in trace");
                    failed = true;
                } else if !o.quiet {
                    println!(
                        "# spans {} (max depth {}, {} thread(s), {} in-span events)",
                        stats.spans, stats.max_depth, stats.threads, stats.events_in_spans
                    );
                }
            }
            Err(e) => {
                eprintln!("error: --spans: {e}");
                failed = true;
            }
        }
    }
    for (path, body, kind) in [
        (
            &o.export_chrome,
            o.export_chrome
                .as_ref()
                .map(|_| vs_telemetry::export::chrome_trace(&events)),
            "chrome trace",
        ),
        (
            &o.export_flame,
            o.export_flame
                .as_ref()
                .map(|_| vs_telemetry::export::flame_summary(&events)),
            "flame summary",
        ),
    ] {
        let (Some(path), Some(body)) = (path, body) else {
            continue;
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("error: cannot write {kind} to {}: {e}", path.display());
            failed = true;
        } else if !o.quiet {
            println!("# {kind} written to {}", path.display());
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
