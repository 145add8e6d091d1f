//! The repository benchmark: end-to-end time-to-estimate and throughput
//! of fault campaigns, frame rate of the error-free pipeline, and (with
//! `--trace 1`) a per-layer breakdown measured from outside the library.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gpr_input1|composed_cold|golden_hd> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Everything runs in one process as a closed loop on one campaign worker
//! thread: the next campaign or summary starts when the previous returns.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed output check
//! makes the exit code non-zero.

mod replay;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vs_telemetry::metrics::{self, MetricsRegistry};

use stats::{median, peak_rss_mb, Timing};
use workloads::{Call, Kind, Setup};

/// A run repeats set-up at least this many times and for at least
/// `SETUP_MIN_S`; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: vs-perfbench --workload <gpr_input1|composed_cold|golden_hd> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The timed calls of one measuring phase and their check results.
struct Phase {
    call_s: Vec<f64>,
    /// Injected runs (or summaries) of each call.
    runs: Vec<usize>,
    first: Call,
    attempted: usize,
    failed: usize,
}

/// Run timed calls back to back until `budget` has elapsed (at least
/// one), checking each call's output outside the timed window. With a
/// `registry`, it is installed around each call (and not the checks).
fn measure(
    setup: &Setup,
    budget: Duration,
    registry: Option<&Arc<MetricsRegistry>>,
) -> Result<Phase, String> {
    let start = Instant::now();
    let mut call_s = Vec::new();
    let mut runs = Vec::new();
    let mut first: Option<Call> = None;
    let mut failed = 0;
    loop {
        let k = call_s.len();
        let t0 = Instant::now();
        let mut call = {
            let _m = registry.map(|r| metrics::install(r.clone()));
            let _s = vs_telemetry::span("workload.call");
            setup.call(k)?
        };
        call_s.push(t0.elapsed().as_secs_f64());
        runs.push(call.runs);
        if !(call.ok && setup.check(&mut call, k)) {
            failed += 1;
        }
        first.get_or_insert(call);
        if start.elapsed() >= budget {
            break;
        }
    }
    Ok(Phase {
        attempted: call_s.len(),
        call_s,
        runs,
        first: first.expect("at least one call ran"),
        failed,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn run_untraced(args: &Args) -> Result<Report, String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setup = None;
    while setup_s.len() < SETUP_MIN_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        drop(setup.take());
        let t0 = Instant::now();
        setup = Some(Setup::new(args.kind, args.seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let setup = setup.expect("set-up ran at least once");
    let phase = measure(&setup, Duration::from_secs_f64(args.seconds), None)?;
    let timing = Timing::of(&phase.call_s);
    // Aggregates over the run's calls: each campaign call draws its own
    // faults, and a mean weighs every draw where a median keeps one.
    let total_s: f64 = phase.call_s.iter().sum();
    let runs_per_s = phase.runs.iter().sum::<usize>() as f64 / total_s;
    let campaign = args.kind != Kind::GoldenHd;

    println!(
        "workload {} seed {} threads 1 host_cores {}",
        args.kind.name(),
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "timed calls {} (median {:.4} s{})",
        timing.samples,
        timing.median,
        timing.tail.map_or(String::new(), |(q, v)| format!(
            ", p{:.0} {v:.4} s",
            q * 100.0
        ))
    );
    println!("set-ups {}", setup_s.len());
    println!("record_digest {:#018x}", phase.first.digest);
    if campaign {
        println!(
            "injections_to_target {} count (first call)",
            phase.first.runs
        );
    }
    println!(
        "error_share {} fraction",
        phase.failed as f64 / phase.attempted as f64
    );

    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median(&setup_s),
            unit: "s",
        },
        Metric {
            name: "time_to_target_s",
            value: total_s / timing.samples as f64,
            unit: "s",
        },
        Metric {
            name: "runs_per_s",
            value: runs_per_s,
            unit: "1/s",
        },
        Metric {
            name: "frames_per_s",
            value: runs_per_s * setup.frames() as f64,
            unit: "frames/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb().ok_or("cannot read peak RSS")?,
            unit: "MB",
        },
    ];
    Ok(Report {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics,
    })
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced::run_traced(&args)
    } else {
        run_untraced(&args)
    };
    match result {
        Ok(report) => {
            for m in &report.metrics {
                println!("{:<28} {:>14.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", json(&report));
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "error: {} of {} operations failed their checks",
                    report.failed, report.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
