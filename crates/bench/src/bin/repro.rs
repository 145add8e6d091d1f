//! Regenerate the paper's evaluation figures.
//!
//! ```text
//! repro <fig5|fig6|fig8|fig9|fig10|fig11|fig12|fig13|all>
//!       [--scale quick|paper] [--inj N] [--out DIR] [--threads N] [--seed S]
//!       [--trace FILE]
//! ```
//!
//! `--scale quick` (default) runs laptop-sized campaigns in minutes;
//! `--scale paper --inj 1000` reproduces the paper's campaign sizes
//! (hours on one core — the paper's own 1000-injection runs used a
//! POWER server).
//!
//! `--trace FILE` streams a JSONL telemetry trace (golden-run stage
//! counters, per-injection outcomes, live campaign snapshots with
//! Wilson error bars) alongside the report; progress milestones still
//! print to stdout.

use std::process::ExitCode;
use vs_bench::{cli, figs, Opts};
use vs_core::experiments::Scale;
use vs_telemetry::Value;

const USAGE: &str = "usage: repro <figure|all> [--scale quick|paper] [--inj N] [--out DIR] [--threads N] [--seed S] [--trace FILE]
figures: fig5 fig6 fig8 fig9 fig9a fig9b fig10 fig11 fig11a fig11b fig12 fig13 ablations pruning";

/// A requested figure: its name and its report generator.
type Figure = (String, fn(&Opts) -> String);

fn parse(a: &mut cli::Args) -> Result<(Vec<Figure>, Opts, Option<std::path::PathBuf>), String> {
    let defaults = Opts::default();
    let opts = Opts {
        scale: a
            .value_with("--scale", |v| match v {
                "quick" => Some(Scale::Quick),
                "paper" => Some(Scale::Paper),
                _ => None,
            })?
            .unwrap_or(defaults.scale),
        injections: a.value("--inj")?.unwrap_or(defaults.injections),
        out_dir: a.value("--out")?.unwrap_or(defaults.out_dir),
        threads: a.count("--threads")?.unwrap_or(defaults.threads),
        seed: a.value("--seed")?.unwrap_or(defaults.seed),
    };
    let trace = a.value("--trace")?;
    let figures = a
        .positionals()
        .into_iter()
        .map(|f| match generator(&f) {
            Some(run) => Ok((f, run)),
            None => Err(format!("unknown figure '{f}'")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    if figures.is_empty() {
        return Err("no figure requested".into());
    }
    Ok((figures, opts, trace))
}

/// The report generator of one figure name; `None` for an unknown one.
fn generator(figure: &str) -> Option<fn(&Opts) -> String> {
    let run: fn(&Opts) -> String = match figure {
        "fig5" => figs::fig5::run,
        "fig6" => figs::fig6::run,
        "fig8" => figs::fig8::run,
        "fig9" => figs::fig9::run,
        "fig9a" => figs::fig9::run_a,
        "fig9b" => figs::fig9::run_b,
        "fig10" => figs::fig10::run,
        "fig11" => figs::fig11::run,
        "fig11a" => figs::fig11::run_a,
        "fig11b" => figs::fig11::run_b,
        "fig12" => figs::fig12::run,
        "fig13" => figs::fig13::run,
        "ablations" => figs::ablations::run,
        "pruning" => figs::pruning::run,
        "all" => |opts| {
            [
                "fig5", "fig6", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
            ]
            .iter()
            .filter_map(|f| generator(f))
            .map(|run| run(opts))
            .collect::<Vec<_>>()
            .join("\n")
        },
        _ => return None,
    };
    Some(run)
}

fn main() -> ExitCode {
    let (figures, opts, trace) = match cli::parse(USAGE, parse) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let sink = match vs_bench::trace::build_sink(trace.as_deref()) {
        Ok(s) => s,
        Err(e) => return cli::fail(format!("cannot create trace file: {e}")),
    };
    vs_telemetry::set_trace_seed(opts.seed);
    let _telemetry = vs_telemetry::install(sink);
    let scale = format!("{:?}", opts.scale);
    let out_dir = opts.out_dir.display().to_string();
    vs_telemetry::emit(
        "repro_config",
        &[
            ("scale", Value::Str(&scale)),
            ("injections", Value::U64(opts.injections as u64)),
            ("threads", Value::U64(opts.threads as u64)),
            ("seed", Value::U64(opts.seed)),
            ("out", Value::Str(&out_dir)),
        ],
    );
    for (figure, run) in &figures {
        let t0 = std::time::Instant::now();
        vs_telemetry::emit("figure_start", &[("figure", Value::Str(figure))]);
        // The report body is the deliverable, not telemetry: it goes
        // straight to stdout.
        println!("{}", run(&opts));
        vs_telemetry::emit(
            "figure_done",
            &[
                ("figure", Value::Str(figure)),
                ("secs", Value::F64(t0.elapsed().as_secs_f64())),
            ],
        );
    }
    ExitCode::SUCCESS
}
