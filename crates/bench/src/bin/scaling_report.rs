//! Scaling diagnosis: profile the campaign thread sweep with per-worker
//! phase metrics and explain *why* it scales the way it does.
//!
//! ```text
//! scaling_report [--frames N] [--inj N] [--threads N[,N...]] [--every-k K]
//!                [--seed S] [--repeats R] [--out-dir DIR] [--bench-out FILE]
//!                [--trace FILE] [--overhead-gate PCT] [--expect-scaling X]
//!                [--min-coverage F] [--smoke]
//! ```
//!
//! The earlier `campaign_bench` thread sweep produced a *flat* curve —
//! ~the same runs/sec at 1, 2 and 4 threads — with nothing to say about
//! the cause. This binary reruns that sweep with the `vs-telemetry`
//! metrics layer armed, so every worker's wall time decomposes into the
//! named campaign phases (`draw`, `setup`, `exec`, `teardown`,
//! `classify`, `record`), and reports:
//!
//! - **Attribution coverage** — the share of per-worker wall time the
//!   phase histograms account for, gated at `--min-coverage` (default
//!   0.95) for every sweep cell. An unattributed gap means a phase is
//!   missing from the vocabulary.
//! - **Overhead A/B** — interleaved metrics-off/metrics-on repeats of
//!   the same campaign, gated with `--overhead-gate` (percent) so the
//!   observability layer itself provably does not perturb throughput.
//! - **USL fit** — a grid-search least-squares fit of the Universal
//!   Scalability Law `s(n) = n / (1 + σ(n−1) + κ·n(n−1))` over the
//!   measured speedups, reporting the serial fraction σ and coherency
//!   term κ alongside the direct Amdahl inversion at the widest point.
//! - **Diagnosis** — the named serializing component. On a host where
//!   `host_cores < max(threads)` the honest answer is CPU
//!   oversubscription: extra threads time-slice one core, no software
//!   fix changes the curve, and the `--expect-scaling` gate is skipped
//!   (with a note) rather than fabricating a speedup.
//!
//! Outcome identity is enforced throughout: every campaign in the sweep
//! (all thread counts, metrics on or off) must classify every injection
//! exactly like the metrics-off reference run.
//!
//! Artifacts: `scaling_report.md` + `scaling_report.json` under
//! `--out-dir` (default `out/scaling/`), and the `BENCH_5.json` summary
//! at `--bench-out`. `--smoke` shrinks the workload so the whole report
//! finishes in seconds (used by `scripts/verify.sh`).

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use vs_core::workloads::VsWorkload;
use vs_core::PipelineConfig;
use vs_fault::campaign::{self, phase, CampaignConfig, CheckpointPolicy, Injection};
use vs_fault::spec::RegClass;
use vs_telemetry::metrics::{self, MetricsRegistry, WorkerMetrics};
use vs_telemetry::Value;
use vs_video::{render_input, InputSpec};

const USAGE: &str = "usage: scaling_report [--frames N] [--inj N] [--threads N[,N...]] [--every-k K] [--seed S] [--repeats R] [--out-dir DIR] [--bench-out FILE] [--trace FILE] [--overhead-gate PCT] [--expect-scaling X] [--min-coverage F] [--smoke]";

struct Opts {
    frames: usize,
    width: usize,
    height: usize,
    injections: usize,
    /// Thread counts to sweep; the first is the speedup baseline.
    threads: Vec<usize>,
    every_k: usize,
    seed: u64,
    /// Timed repeats per sweep cell (median/min/mean reported).
    repeats: usize,
    out_dir: PathBuf,
    bench_out: PathBuf,
    trace: Option<PathBuf>,
    /// Metrics-on overhead bound in percent over metrics-off (0 = off).
    overhead_gate_pct: f64,
    /// Required speedup at max threads vs baseline (0 = off). Skipped
    /// with a note when the host cannot physically provide it.
    expect_scaling: f64,
    /// Minimum attribution coverage per sweep cell.
    min_coverage: f64,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            frames: 16,
            width: 128,
            height: 96,
            injections: 120,
            threads: vec![1, 2, 4],
            every_k: 1,
            seed: 0xBE6C,
            repeats: 3,
            out_dir: "out/scaling".into(),
            bench_out: "BENCH_5.json".into(),
            trace: None,
            overhead_gate_pct: 0.0,
            expect_scaling: 0.0,
            min_coverage: 0.95,
        }
    }
}

/// Parse a `--threads` comma list: non-empty, every count positive.
fn parse_threads(v: &str) -> Result<Vec<usize>, String> {
    let list: Vec<usize> = v
        .split(',')
        .map(|s| s.trim().parse::<usize>().map_err(|_| "bad --threads"))
        .collect::<Result<_, _>>()?;
    if list.is_empty() || list.contains(&0) {
        return Err("--threads needs positive counts".into());
    }
    Ok(list)
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--frames" => o.frames = val("--frames")?.parse().map_err(|_| "bad --frames")?,
            "--inj" => o.injections = val("--inj")?.parse().map_err(|_| "bad --inj")?,
            "--threads" => o.threads = parse_threads(&val("--threads")?)?,
            "--every-k" => o.every_k = val("--every-k")?.parse().map_err(|_| "bad --every-k")?,
            "--seed" => o.seed = val("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--repeats" => o.repeats = val("--repeats")?.parse().map_err(|_| "bad --repeats")?,
            "--out-dir" => o.out_dir = val("--out-dir")?.into(),
            "--bench-out" => o.bench_out = val("--bench-out")?.into(),
            "--trace" => o.trace = Some(val("--trace")?.into()),
            "--overhead-gate" => {
                o.overhead_gate_pct = val("--overhead-gate")?
                    .parse()
                    .map_err(|_| "bad --overhead-gate")?
            }
            "--expect-scaling" => {
                o.expect_scaling = val("--expect-scaling")?
                    .parse()
                    .map_err(|_| "bad --expect-scaling")?
            }
            "--min-coverage" => {
                o.min_coverage = val("--min-coverage")?
                    .parse()
                    .map_err(|_| "bad --min-coverage")?
            }
            "--smoke" => {
                o.frames = 6;
                o.width = 80;
                o.height = 60;
                o.injections = 24;
                o.threads = vec![1, 2];
                o.repeats = 2;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if o.every_k == 0 {
        return Err("--every-k must be positive".into());
    }
    if o.repeats == 0 {
        return Err("--repeats must be positive".into());
    }
    if !(0.0..=1.0).contains(&o.min_coverage) {
        return Err("--min-coverage must be in [0, 1]".into());
    }
    Ok(o)
}

fn json_f(x: f64) -> String {
    format!("{x:.6}")
}

/// Median / min / mean of a set of wall times.
#[derive(Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    mean: f64,
}

fn spread(times: &[f64]) -> Spread {
    let mut s = times.to_vec();
    s.sort_by(f64::total_cmp);
    Spread {
        median: s[s.len() / 2],
        min: s[0],
        mean: s.iter().sum::<f64>() / s.len() as f64,
    }
}

/// Outcome identity: same faults drawn, same firing, same
/// classification, in the same campaign order.
fn same_records<O>(a: &[Injection<O>], b: &[Injection<O>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.index == y.index && x.spec == y.spec && x.outcome == y.outcome && x.fired == y.fired
        })
}

/// One sweep cell: a thread count measured over `repeats` campaigns,
/// with the *last* repeat's merged phase metrics (the registry is reset
/// between repeats so counts stay per-campaign).
struct Cell {
    threads: usize,
    wall: Spread,
    identical: bool,
    merged: WorkerMetrics,
    per_worker: Vec<(usize, WorkerMetrics)>,
}

impl Cell {
    /// Nanoseconds attributed to the named top-level phases.
    fn attributed_ns(m: &WorkerMetrics) -> u64 {
        phase::TOP
            .iter()
            .filter_map(|p| m.histogram(p))
            .map(|h| h.sum())
            .sum()
    }

    fn wall_ns(m: &WorkerMetrics) -> u64 {
        m.histogram(phase::WORKER_WALL).map_or(0, |h| h.sum())
    }

    /// Share of summed worker wall time covered by the phase vocabulary.
    fn coverage(&self) -> f64 {
        let wall = Self::wall_ns(&self.merged);
        if wall == 0 {
            return 0.0;
        }
        Self::attributed_ns(&self.merged) as f64 / wall as f64
    }

    /// Worst single worker's coverage (driver row excluded — it has no
    /// `worker_wall` sample).
    fn min_worker_coverage(&self) -> f64 {
        self.per_worker
            .iter()
            .filter(|(id, _)| *id < self.threads)
            .map(|(_, m)| {
                let wall = Self::wall_ns(m);
                if wall == 0 {
                    0.0
                } else {
                    Self::attributed_ns(m) as f64 / wall as f64
                }
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Share of wall time spent in one phase.
    fn phase_share(&self, name: &str) -> f64 {
        let wall = Self::wall_ns(&self.merged);
        if wall == 0 {
            return 0.0;
        }
        self.merged.histogram(name).map_or(0, |h| h.sum()) as f64 / wall as f64
    }

    /// The top-level phase with the largest summed time.
    fn dominant_phase(&self) -> &'static str {
        phase::TOP
            .iter()
            .copied()
            .max_by_key(|p| self.merged.histogram(p).map_or(0, |h| h.sum()))
            .unwrap_or(phase::EXEC)
    }
}

/// Universal Scalability Law fit over measured (n, speedup) points via
/// grid search: `s(n) = n / (1 + sigma*(n-1) + kappa*n*(n-1))`.
struct UslFit {
    sigma: f64,
    kappa: f64,
    rms_error: f64,
}

fn usl_model(n: f64, sigma: f64, kappa: f64) -> f64 {
    n / (1.0 + sigma * (n - 1.0) + kappa * n * (n - 1.0))
}

fn fit_usl(points: &[(f64, f64)]) -> UslFit {
    let mut best = UslFit {
        sigma: 0.0,
        kappa: 0.0,
        rms_error: f64::INFINITY,
    };
    for si in 0..=1000 {
        let sigma = si as f64 * 1e-3;
        for ki in 0..=100 {
            let kappa = ki as f64 * 5e-4;
            let sse: f64 = points
                .iter()
                .map(|&(n, s)| {
                    let e = usl_model(n, sigma, kappa) - s;
                    e * e
                })
                .sum();
            let rms = (sse / points.len() as f64).sqrt();
            if rms < best.rms_error {
                best = UslFit {
                    sigma,
                    kappa,
                    rms_error: rms,
                };
            }
        }
    }
    best
}

/// Human-readable nanoseconds for report tables.
fn fmt_ns(ns: u64) -> String {
    vs_bench::timing::fmt_secs(ns as f64 / 1e9)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let sink = match vs_bench::trace::build_sink(o.trace.as_deref()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot create trace file: {e}");
            return ExitCode::FAILURE;
        }
    };
    vs_telemetry::set_trace_seed(o.seed);
    let _telemetry = vs_telemetry::install(sink);
    let host_cores = vs_bench::host_cores();
    vs_telemetry::emit(
        "bench_config",
        &[
            ("bench", Value::Str("scaling_report")),
            ("frames", Value::U64(o.frames as u64)),
            ("width", Value::U64(o.width as u64)),
            ("height", Value::U64(o.height as u64)),
            ("injections", Value::U64(o.injections as u64)),
            ("threads", Value::U64(o.threads[0] as u64)),
            ("thread_sweep", Value::U64(o.threads.len() as u64)),
            ("every_k", Value::U64(o.every_k as u64)),
            ("seed", Value::U64(o.seed)),
            ("repeats", Value::U64(o.repeats as u64)),
            ("host_cores", Value::U64(host_cores as u64)),
        ],
    );

    let frames = render_input(
        &InputSpec::input2_preset()
            .with_frames(o.frames)
            .with_frame_size(o.width, o.height),
    );
    let w = VsWorkload::new(frames, PipelineConfig::default());

    let t0 = Instant::now();
    let ck = campaign::profile_golden_checkpointed(&w, CheckpointPolicy::EveryKFrames(o.every_k))
        .expect("capturing golden run failed");
    vs_telemetry::emit(
        "golden_profiled",
        &[
            ("capturing_secs", Value::F64(t0.elapsed().as_secs_f64())),
            ("checkpoints", Value::U64(ck.checkpoints.len() as u64)),
        ],
    );

    let cfg_for = |n: usize| {
        CampaignConfig::new(RegClass::Gpr, o.injections)
            .seed(o.seed)
            .threads(n)
            .checkpoint_policy(CheckpointPolicy::EveryKFrames(o.every_k))
    };

    // Metrics-off reference: every other campaign in this report must
    // reproduce these records exactly.
    let base_threads = o.threads[0];
    let reference = campaign::run_campaign_checkpointed(&w, &ck, &cfg_for(base_threads));

    // Overhead A/B: interleaved off/on repeats at the baseline thread
    // count, so machine-wide drift lands on both sides equally.
    let overhead_reps = o.repeats.max(3);
    let overhead_reg = Arc::new(MetricsRegistry::new());
    let mut off_times = Vec::with_capacity(overhead_reps);
    let mut on_times = Vec::with_capacity(overhead_reps);
    let mut identical = true;
    for _ in 0..overhead_reps {
        let t = Instant::now();
        let recs = campaign::run_campaign_checkpointed(&w, &ck, &cfg_for(base_threads));
        off_times.push(t.elapsed().as_secs_f64());
        identical &= same_records(&recs, &reference);

        let guard = metrics::install(overhead_reg.clone());
        let t = Instant::now();
        let recs = campaign::run_campaign_checkpointed(&w, &ck, &cfg_for(base_threads));
        on_times.push(t.elapsed().as_secs_f64());
        drop(guard);
        identical &= same_records(&recs, &reference);
    }
    let off = spread(&off_times);
    let on = spread(&on_times);
    let overhead_pct = (on.median / off.median - 1.0) * 100.0;
    // Absolute slack floors the gate: at smoke scale a campaign lasts
    // tens of ms and a single scheduler hiccup exceeds any percentage.
    let overhead_ok = o.overhead_gate_pct <= 0.0
        || on.median <= off.median * (1.0 + o.overhead_gate_pct / 100.0) + 0.005;
    vs_telemetry::emit(
        "metrics_overhead",
        &[
            ("off_secs", Value::F64(off.median)),
            ("on_secs", Value::F64(on.median)),
            ("off_min_secs", Value::F64(off.min)),
            ("on_min_secs", Value::F64(on.min)),
            ("overhead_pct", Value::F64(overhead_pct)),
            ("repeats", Value::U64(overhead_reps as u64)),
        ],
    );

    // The sweep proper: one cell per thread count, metrics armed. The
    // registry is reset before each repeat so the retained (last)
    // repeat's counts are per-campaign, not per-cell-accumulated.
    let mut cells: Vec<Cell> = Vec::new();
    for &n in &o.threads {
        let reg = Arc::new(MetricsRegistry::new());
        let mut times = Vec::with_capacity(o.repeats);
        let mut cell_identical = true;
        for _ in 0..o.repeats {
            reg.reset();
            let guard = metrics::install(reg.clone());
            let t = Instant::now();
            let recs = campaign::run_campaign_checkpointed(&w, &ck, &cfg_for(n));
            times.push(t.elapsed().as_secs_f64());
            drop(guard);
            cell_identical &= same_records(&recs, &reference);
        }
        identical &= cell_identical;
        let merged = reg.merged();
        metrics::emit_snapshot(&merged, n, &[("threads", Value::U64(n as u64))]);
        let cell = Cell {
            threads: n,
            wall: spread(&times),
            identical: cell_identical,
            merged,
            per_worker: reg.per_worker(),
        };
        vs_telemetry::emit(
            "metrics_coverage",
            &[
                ("threads", Value::U64(n as u64)),
                (
                    "attributed_ns",
                    Value::U64(Cell::attributed_ns(&cell.merged)),
                ),
                ("wall_ns", Value::U64(Cell::wall_ns(&cell.merged))),
                ("coverage", Value::F64(cell.coverage())),
                (
                    "min_worker_coverage",
                    Value::F64(cell.min_worker_coverage()),
                ),
            ],
        );
        vs_telemetry::emit(
            "scaling_run",
            &[
                ("threads", Value::U64(n as u64)),
                ("median_secs", Value::F64(cell.wall.median)),
                ("min_secs", Value::F64(cell.wall.min)),
                ("mean_secs", Value::F64(cell.wall.mean)),
                (
                    "runs_per_sec",
                    Value::F64(o.injections as f64 / cell.wall.median),
                ),
                ("identical", Value::Bool(cell_identical)),
                ("oversubscribed", Value::Bool(n > host_cores)),
            ],
        );
        cells.push(cell);
    }

    let cell_at = |n: usize| {
        cells
            .iter()
            .find(|c| c.threads == n)
            .expect("sweep cell missing")
    };
    let max_n = *o.threads.iter().max().expect("threads non-empty");
    let base_cell = cell_at(base_threads);
    let max_cell = cell_at(max_n);

    // Speedup at the widest point.
    let speedup = base_cell.wall.median / max_cell.wall.median;
    let dominant = max_cell.dominant_phase();
    let min_coverage_seen = cells
        .iter()
        .map(Cell::coverage)
        .fold(f64::INFINITY, f64::min);

    // USL fit over the speedup curve, in thread units relative to the
    // baseline count.
    let usl_points: Vec<(f64, f64)> = o
        .threads
        .iter()
        .map(|&n| {
            (
                n as f64 / base_threads as f64,
                base_cell.wall.median / cell_at(n).wall.median,
            )
        })
        .collect();
    let usl = fit_usl(&usl_points);
    // Direct Amdahl inversion at the widest point: s = 1/(f + (1-f)/n).
    let amdahl_serial = if max_n > base_threads && speedup > 0.0 {
        let x = max_n as f64 / base_threads as f64;
        (((x / speedup) - 1.0) / (x - 1.0)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    vs_telemetry::emit(
        "scaling_fit",
        &[
            ("sigma", Value::F64(usl.sigma)),
            ("kappa", Value::F64(usl.kappa)),
            ("rms_error", Value::F64(usl.rms_error)),
            ("amdahl_serial_fraction", Value::F64(amdahl_serial)),
            ("speedup", Value::F64(speedup)),
        ],
    );

    // Diagnosis: name the serializing component the profile points at.
    let oversubscribed = host_cores < max_n;
    let serializing = if oversubscribed {
        format!("cpu_oversubscription(host_cores={host_cores})")
    } else {
        format!("phase:{dominant}")
    };
    let diagnosis = if oversubscribed {
        format!(
            "The sweep is flat because the host exposes {host_cores} core(s) for up to {max_n} \
             worker threads: extra threads time-slice the same core, so wall time cannot drop. \
             The phase profile shows no software serializer: workers share no lock, and {:.1}% \
             of worker time is `{dominant}` — compute. On a multi-core host the sweep is \
             expected to scale until `{dominant}` saturates physical cores.",
            max_cell.phase_share(dominant) * 100.0,
        )
    } else {
        format!(
            "At {max_n} threads on {host_cores} cores the dominant worker phase is `{dominant}` \
             ({:.1}% of wall time). Fitted USL serial fraction sigma = {:.3}.",
            max_cell.phase_share(dominant) * 100.0,
            usl.sigma,
        )
    };

    // ---- Artifacts -------------------------------------------------
    if let Err(e) = std::fs::create_dir_all(&o.out_dir) {
        eprintln!("error: cannot create {}: {e}", o.out_dir.display());
        return ExitCode::FAILURE;
    }

    let phase_order: Vec<&str> = phase::TOP
        .iter()
        .copied()
        .chain([phase::RESTORE, phase::COLLECT, phase::WORKER_WALL])
        .collect();
    let phase_table_md = |cell: &Cell| {
        let wall = Cell::wall_ns(&cell.merged).max(1);
        let mut rows = String::from(
            "| phase | count | total | share | p50 | p90 | p99 | max |\n|---|---:|---:|---:|---:|---:|---:|---:|\n",
        );
        for name in &phase_order {
            let Some(h) = cell.merged.histogram(name) else {
                continue;
            };
            if h.count() == 0 {
                continue;
            }
            rows.push_str(&format!(
                "| {name} | {} | {} | {:.1}% | {} | {} | {} | {} |\n",
                h.count(),
                fmt_ns(h.sum()),
                h.sum() as f64 / wall as f64 * 100.0,
                fmt_ns(h.p50()),
                fmt_ns(h.p90()),
                fmt_ns(h.p99()),
                fmt_ns(h.max()),
            ));
        }
        rows
    };

    let sweep_table_md = {
        let mut rows = String::from(
            "| threads | median | min | mean | runs/s | speedup | identical | oversubscribed |\n|---:|---:|---:|---:|---:|---:|---|---|\n",
        );
        for c in &cells {
            rows.push_str(&format!(
                "| {} | {:.3}s | {:.3}s | {:.3}s | {:.1} | {:.2}x | {} | {} |\n",
                c.threads,
                c.wall.median,
                c.wall.min,
                c.wall.mean,
                o.injections as f64 / c.wall.median,
                base_cell.wall.median / c.wall.median,
                c.identical,
                c.threads > host_cores,
            ));
        }
        rows
    };

    let scaling_note = if oversubscribed {
        format!(
            "\n> **Note:** host_cores = {host_cores} < {max_n} threads — every multi-thread cell \
             is oversubscribed, so the speedup column reflects time-slicing, not parallel \
             capacity. The `--expect-scaling` gate is skipped on this host.\n"
        )
    } else {
        String::new()
    };
    let md = format!(
        "# Scaling diagnosis: campaign thread sweep\n\n\
         Workload: {}x{} input2, {} frames, {} GPR injections, checkpoint every {} frame(s), \
         seed 0x{:X}. Host cores: {host_cores}. Repeats per cell: {}.\n\n\
         ## Metrics overhead (A/B, interleaved, {} repeats)\n\n\
         | side | median | min | mean |\n|---|---:|---:|---:|\n\
         | metrics off | {:.3}s | {:.3}s | {:.3}s |\n\
         | metrics on | {:.3}s | {:.3}s | {:.3}s |\n\n\
         Overhead: {overhead_pct:+.2}% on the median.\n\n\
         ## Thread sweep (speedup vs the {base_threads}-thread cell)\n\n\
         {sweep_table_md}{scaling_note}\n\
         ## Phase attribution @ {max_n} threads\n\n\
         {}\n\
         Attribution coverage: {:.1}% of summed worker wall time (worst worker {:.1}%; \
         worst sweep cell {:.1}%). Runs resumed from a checkpoint: {}, from scratch: {}.\n\n\
         ## USL fit\n\n\
         sigma (contention) = {:.3}, kappa (coherency) = {:.4}, rms error = {:.4}. \
         Amdahl inversion at {max_n} threads: serial fraction = {:.3}.\n\n\
         ## Diagnosis\n\n\
         Serializing component: **{serializing}**\n\n{diagnosis}\n",
        o.width,
        o.height,
        o.frames,
        o.injections,
        o.every_k,
        o.seed,
        o.repeats,
        overhead_reps,
        off.median,
        off.min,
        off.mean,
        on.median,
        on.min,
        on.mean,
        phase_table_md(max_cell),
        max_cell.coverage() * 100.0,
        max_cell.min_worker_coverage() * 100.0,
        min_coverage_seen * 100.0,
        max_cell.merged.counter(phase::RUNS_RESUMED),
        max_cell.merged.counter(phase::RUNS_FROM_SCRATCH),
        usl.sigma,
        usl.kappa,
        usl.rms_error,
        amdahl_serial,
    );

    let phase_rows_json = |cell: &Cell| {
        let wall = Cell::wall_ns(&cell.merged).max(1);
        phase_order
            .iter()
            .filter_map(|name| {
                let h = cell.merged.histogram(name)?;
                if h.count() == 0 {
                    return None;
                }
                Some(format!(
                    "      {{\"phase\": \"{name}\", \"count\": {}, \"sum_ns\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \"share_of_wall\": {}}}",
                    h.count(),
                    h.sum(),
                    h.mean(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.max(),
                    json_f(h.sum() as f64 / wall as f64),
                ))
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let sweep_rows_json = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"threads\": {}, \"median_secs\": {}, \"min_secs\": {}, \"mean_secs\": {}, \"runs_per_sec\": {}, \"speedup_vs_base\": {}, \"coverage\": {}, \"identical\": {}, \"oversubscribed\": {}}}",
                c.threads,
                json_f(c.wall.median),
                json_f(c.wall.min),
                json_f(c.wall.mean),
                json_f(o.injections as f64 / c.wall.median),
                json_f(base_cell.wall.median / c.wall.median),
                json_f(c.coverage()),
                c.identical,
                c.threads > host_cores,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"scaling_report\",\n  \"frames\": {},\n  \"frame_size\": [{}, {}],\n  \"injections\": {},\n  \"checkpoint_every_k\": {},\n  \"seed\": {},\n  \"threads\": {:?},\n  \"repeats\": {},\n  \"host_cores\": {host_cores},\n  \"overhead\": {{\"off_secs\": {}, \"on_secs\": {}, \"off_min_secs\": {}, \"on_min_secs\": {}, \"overhead_pct\": {}, \"repeats\": {overhead_reps}, \"within_gate\": {}}},\n  \"sweep\": [\n{sweep_rows_json}\n  ],\n  \"phases_max_threads\": [\n{}\n  ],\n  \"counters\": {{\"runs_resumed\": {}, \"runs_from_scratch\": {}}},\n  \"attribution_coverage\": {},\n  \"attribution_coverage_min_worker\": {},\n  \"attribution_coverage_min_cell\": {},\n  \"usl\": {{\"sigma\": {}, \"kappa\": {}, \"rms_error\": {}, \"amdahl_serial_fraction\": {}}},\n  \"speedup_at_max_threads\": {},\n  \"serializing_component\": \"{serializing}\",\n  \"dominant_phase\": \"{dominant}\",\n  \"outcomes_identical\": {identical}\n}}\n",
        o.frames,
        o.width,
        o.height,
        o.injections,
        o.every_k,
        o.seed,
        o.threads,
        o.repeats,
        json_f(off.median),
        json_f(on.median),
        json_f(off.min),
        json_f(on.min),
        json_f(overhead_pct),
        overhead_ok,
        phase_rows_json(max_cell),
        max_cell.merged.counter(phase::RUNS_RESUMED),
        max_cell.merged.counter(phase::RUNS_FROM_SCRATCH),
        json_f(max_cell.coverage()),
        json_f(max_cell.min_worker_coverage()),
        json_f(min_coverage_seen),
        json_f(usl.sigma),
        json_f(usl.kappa),
        json_f(usl.rms_error),
        json_f(amdahl_serial),
        json_f(speedup),
    );

    let md_path = o.out_dir.join("scaling_report.md");
    let json_path = o.out_dir.join("scaling_report.json");
    for (path, body) in [(&md_path, &md), (&json_path, &json), (&o.bench_out, &json)] {
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        let shown = path.display().to_string();
        vs_telemetry::emit("artifact", &[("path", Value::Str(&shown))]);
    }
    let mut manifest = vs_bench::manifest::Manifest::new("scaling_report")
        .u64(
            "config_digest",
            vs_bench::manifest::config_digest(&[
                o.frames as u64,
                o.width as u64,
                o.height as u64,
                o.injections as u64,
                o.every_k as u64,
                o.seed,
                o.repeats as u64,
                max_n as u64,
            ]),
        )
        .u64("injections", o.injections as u64)
        .u64("threads", max_n as u64)
        .u64("seed", o.seed)
        .f64(
            "runs_per_sec_on",
            o.injections as f64 / max_cell.wall.median,
        )
        .f64("overhead_pct", overhead_pct)
        .f64("speedup", speedup)
        .bool("identical", identical)
        .rates(&vs_fault::stats::outcome_rates(&reference));
    for name in phase::TOP {
        if let Some(h) = max_cell.merged.histogram(name) {
            manifest = manifest.phase(name, h);
        }
    }
    manifest.append_default();
    println!("\n{md}");

    // ---- Gates -----------------------------------------------------
    if !identical {
        eprintln!("error: a sweep campaign diverged from the metrics-off reference records");
        return ExitCode::FAILURE;
    }
    if min_coverage_seen < o.min_coverage {
        eprintln!(
            "error: attribution coverage {:.3} below required {:.3} — a worker phase is missing from the vocabulary",
            min_coverage_seen, o.min_coverage
        );
        return ExitCode::FAILURE;
    }
    if !overhead_ok {
        eprintln!(
            "error: metrics overhead {overhead_pct:+.2}% exceeds --overhead-gate {}%",
            o.overhead_gate_pct
        );
        return ExitCode::FAILURE;
    }
    if o.expect_scaling > 0.0 {
        if oversubscribed {
            println!(
                "note: --expect-scaling {} skipped — host_cores = {host_cores} < {max_n} threads, \
                 the requested speedup is physically unavailable on this host",
                o.expect_scaling
            );
        } else if speedup < o.expect_scaling {
            eprintln!(
                "error: speedup {speedup:.2}x at {max_n} threads below required {:.2}x",
                o.expect_scaling
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
