//! Fault-forensics campaign report: runs GPR and FPR campaigns against a
//! forensic golden profile and renders where faults entered the pipeline,
//! how deep they propagated and where they were absorbed.
//!
//! ```text
//! campaign_report [--frames N] [--inj N] [--threads N] [--every-k K]
//!                 [--seed S] [--out-dir DIR] [--trace FILE] [--smoke]
//! ```
//!
//! For each register class the report runs the *same* campaign twice:
//! once from a plain golden profile (forensics off) and once
//! fast-forwarded from a forensic checkpointed golden (forensics on).
//! Both must give every injection the same identity (index, spec, fired
//! fault and outcome, `Injection::identity`) — digest recording lives
//! outside the simulated machine, so any divergence is a bug and fails
//! the run. The forensic records then feed:
//!
//! * the stage×outcome propagation matrix (Wilson intervals per row),
//! * the divergence-depth histogram (how many stage digests a fault
//!   corrupted before the output),
//! * the egregiousness-vs-divergence-stage table (§V-D `SdcQuality` of
//!   each retained SDC output, grouped by attributed stage),
//! * register/bit/function coverage histograms.
//!
//! Artifacts land under `--out-dir` (default `out/forensics/`):
//! `report.md`, `propagation.csv` and `report.json`. The binary exits
//! non-zero if the off/on record lists differ, if fewer than 90% of FPR
//! masked runs attribute to the warp/summary stages, or if any GPR
//! non-crash run lands in the `unknown` row — the acceptance gates
//! `scripts/verify.sh` relies on.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use vs_bench::cli;
use vs_bench::manifest::{self, config_digest, rate_members};
use vs_core::quality::{self, SdcQuality};
use vs_core::workloads::VsWorkload;
use vs_core::PipelineConfig;
use vs_fault::campaign::{self, CampaignConfig, CheckpointPolicy, Injection, Outcome};
use vs_fault::forensics::{PropagationMatrix, Stage, NUM_STAGES};
use vs_fault::spec::RegClass;
use vs_fault::stats::{self, OutcomeClass};
use vs_fault::FuncId;
use vs_image::RgbImage;
use vs_telemetry::jsonl::Json;
use vs_telemetry::Value;
use vs_video::{render_input, InputSpec};

const USAGE: &str = "usage: campaign_report [--frames N] [--inj N] [--threads N] [--every-k K] [--seed S] [--out-dir DIR] [--trace FILE] [--smoke]";

struct ReportOpts {
    frames: usize,
    width: usize,
    height: usize,
    injections: usize,
    threads: usize,
    every_k: usize,
    seed: u64,
    out_dir: PathBuf,
    trace: Option<PathBuf>,
}

fn parse(a: &mut cli::Args) -> Result<ReportOpts, String> {
    let smoke = a.flag("--smoke");
    let (frames, width, height, injections) = if smoke {
        (6, 80, 60, 60)
    } else {
        (12, 128, 96, 200)
    };
    Ok(ReportOpts {
        frames: a.value("--frames")?.unwrap_or(frames),
        width,
        height,
        injections: a.value("--inj")?.unwrap_or(injections),
        threads: a.count("--threads")?.unwrap_or_else(vs_bench::host_cores),
        every_k: a.count("--every-k")?.unwrap_or(1),
        seed: a.value("--seed")?.unwrap_or(0xF0DE),
        out_dir: a
            .value("--out-dir")?
            .unwrap_or_else(|| "out/forensics".into()),
        trace: a.value("--trace")?,
    })
}

fn class_name(class: RegClass) -> &'static str {
    match class {
        RegClass::Gpr => "gpr",
        RegClass::Fpr => "fpr",
    }
}

/// SDC quality grouped by attributed stage (the `unknown` bucket last).
struct StageEd {
    stage: &'static str,
    n: usize,
    egregious: usize,
    norm_sum: f64,
    ed_sum: u64,
}

/// Everything the report renders for one register class.
struct ClassReport {
    class: RegClass,
    records: Vec<Injection<Vec<RgbImage>>>,
    matrix: PropagationMatrix,
    /// `depth_hist[d]` = non-crash runs whose trace diverged at `d` stages.
    depth_hist: [usize; NUM_STAGES + 1],
    stage_ed: Vec<StageEd>,
    reg_cv: f64,
    bit_cv: f64,
    func_hist: [u32; vs_fault::NUM_FUNCS],
    identical: bool,
}

fn analyze(
    w: &VsWorkload,
    golden_plain: &campaign::GoldenRun<Vec<RgbImage>>,
    ck: &campaign::CheckpointedGolden<VsWorkload>,
    class: RegClass,
    o: &ReportOpts,
) -> ClassReport {
    let cfg_off = CampaignConfig::new(class, o.injections)
        .seed(o.seed)
        .threads(o.threads);
    let off = campaign::run_campaign(w, golden_plain, &cfg_off);
    let cfg_on = CampaignConfig::new(class, o.injections)
        .seed(o.seed)
        .threads(o.threads)
        .checkpoint_policy(CheckpointPolicy::EveryKFrames(o.every_k));
    let on = campaign::run_campaign_checkpointed(w, ck, &cfg_on);
    let identical = off
        .iter()
        .map(Injection::identity)
        .eq(on.iter().map(Injection::identity));

    let matrix = PropagationMatrix::from_records(&on);
    let mut depth_hist = [0usize; NUM_STAGES + 1];
    for r in &on {
        if let Some(f) = &r.forensics {
            depth_hist[f.attribution.depth as usize] += 1;
        }
    }

    // §V-D quality of every retained SDC output, grouped by the stage
    // the corruption is attributed to.
    let mut stage_ed: Vec<StageEd> = PropagationMatrix::row_names()
        .iter()
        .map(|name| StageEd {
            stage: name,
            n: 0,
            egregious: 0,
            norm_sum: 0.0,
            ed_sum: 0,
        })
        .collect();
    for r in &on {
        let (Outcome::Sdc, Some(out)) = (r.outcome, r.sdc_output.as_ref()) else {
            continue;
        };
        let q: SdcQuality = quality::summary_quality(&ck.golden.output, out);
        let row = vs_fault::forensics::attributed_stage(r.forensics.as_ref(), r.fired)
            .map_or(NUM_STAGES, Stage::index);
        let e = &mut stage_ed[row];
        e.n += 1;
        match q.ed {
            Some(ed) => {
                e.norm_sum += q.relative_l2_norm;
                e.ed_sum += u64::from(ed);
            }
            None => e.egregious += 1,
        }
    }

    let reg_cv = stats::coefficient_of_variation(&stats::register_histogram(&on));
    let bit_cv = stats::coefficient_of_variation(&stats::bit_histogram(&on));
    let func_hist = stats::func_histogram(&on);
    vs_telemetry::emit(
        "forensics_summary",
        &[
            ("class", Value::Str(class_name(class))),
            ("injections", Value::U64(on.len() as u64)),
            ("identical", Value::Bool(identical)),
            (
                "unknown_noncrash",
                Value::U64((matrix.row(None).masked + matrix.row(None).sdc) as u64),
            ),
        ],
    );
    ClassReport {
        class,
        records: on,
        matrix,
        depth_hist,
        stage_ed,
        reg_cv,
        bit_cv,
        func_hist,
        identical,
    }
}

/// Fraction (percent) of a class's masked runs attributed to the warp or
/// summary stage — the FPR acceptance gate (FPR taps concentrate in the
/// per-pixel warp math, so absorbed flips should attribute there).
fn masked_warp_summary_pct(r: &ClassReport) -> f64 {
    let total: usize = r.matrix.rows().iter().map(|c| c.masked).sum();
    let ws = r.matrix.row(Some(Stage::Warp)).masked + r.matrix.row(Some(Stage::Summary)).masked;
    if total == 0 {
        0.0
    } else {
        100.0 * ws as f64 / total as f64
    }
}

fn render_markdown(reports: &[ClassReport], o: &ReportOpts, checkpoints: usize) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "# Fault-forensics campaign report\n");
    let _ = writeln!(
        md,
        "- input: {} frames at {}×{} (input2 preset), checkpoint interval {} ({} checkpoints)",
        o.frames, o.width, o.height, o.every_k, checkpoints
    );
    let _ = writeln!(
        md,
        "- campaigns: {} injections per class, seed {}, {} threads",
        o.injections, o.seed, o.threads
    );
    let _ = writeln!(
        md,
        "- zero-perturbation check: each campaign ran twice (forensics off/on); record lists must be identical\n"
    );
    for r in reports {
        let rates = stats::outcome_rates(&r.records);
        let _ = writeln!(md, "## {} campaign\n", class_name(r.class).to_uppercase());
        let _ = writeln!(
            md,
            "- outcomes: {rates}\n- forensics off/on record lists identical: **{}**\n",
            r.identical
        );
        let _ = writeln!(md, "### Propagation matrix (attributed stage × outcome)\n");
        let _ = writeln!(
            md,
            "| stage | n | masked | sdc | crash | hang | masked % [95% CI] | sdc % [95% CI] |"
        );
        let _ = writeln!(md, "|---|---|---|---|---|---|---|---|");
        for (name, row) in PropagationMatrix::row_names().iter().zip(r.matrix.rows()) {
            if row.n() == 0 {
                continue;
            }
            let rr = row.rates();
            let (mlo, mhi) = rr.wilson_interval(OutcomeClass::Masked);
            let (slo, shi) = rr.wilson_interval(OutcomeClass::Sdc);
            let _ = writeln!(
                md,
                "| {name} | {} | {} | {} | {} | {} | {:.1} [{:.1}, {:.1}] | {:.1} [{:.1}, {:.1}] |",
                row.n(),
                row.masked,
                row.sdc,
                row.crash_segfault + row.crash_abort,
                row.hang,
                rr.masked,
                mlo,
                mhi,
                rr.sdc,
                slo,
                shi
            );
        }
        let _ = writeln!(
            md,
            "\n### Divergence depth (stages corrupted per non-crash run)\n"
        );
        let _ = writeln!(md, "| depth | runs |");
        let _ = writeln!(md, "|---|---|");
        for (d, n) in r.depth_hist.iter().enumerate() {
            if *n > 0 {
                let _ = writeln!(md, "| {d} | {n} |");
            }
        }
        let _ = writeln!(md, "\n### SDC egregiousness by divergence stage (§V-D)\n");
        let _ = writeln!(md, "| stage | sdcs | egregious | mean rel-L2 % | mean ED |");
        let _ = writeln!(md, "|---|---|---|---|---|");
        for e in &r.stage_ed {
            if e.n == 0 {
                continue;
            }
            let graded = e.n - e.egregious;
            let (norm, ed) = if graded == 0 {
                ("—".to_string(), "—".to_string())
            } else {
                (
                    format!("{:.2}", e.norm_sum / graded as f64),
                    format!("{:.1}", e.ed_sum as f64 / graded as f64),
                )
            };
            let _ = writeln!(
                md,
                "| {} | {} | {} | {norm} | {ed} |",
                e.stage, e.n, e.egregious
            );
        }
        let _ = writeln!(
            md,
            "\n### Coverage\n\n- register histogram CV: {:.3}\n- bit histogram CV: {:.3}",
            r.reg_cv, r.bit_cv
        );
        let fired: Vec<String> = FuncId::ALL
            .iter()
            .filter(|f| r.func_hist[f.index()] > 0)
            .map(|f| format!("{}: {}", f.name(), r.func_hist[f.index()]))
            .collect();
        let _ = writeln!(md, "- fired-fault functions: {}\n", fired.join(", "));
        if r.class == RegClass::Fpr {
            let _ = writeln!(
                md,
                "- masked runs attributed to warp/summary: {:.1}% (gate: ≥ 90%)\n",
                masked_warp_summary_pct(r)
            );
        }
    }
    md.push_str(
        "Attribution: a run's `first_divergence` stage when its digest trace \
         diverged from golden, else the fired fault's stage. Masked runs whose \
         trace never diverged were absorbed before the next stage boundary.\n",
    );
    md
}

fn render_csv(reports: &[ClassReport]) -> String {
    let mut csv = String::from(
        "class,stage,n,masked,sdc,crash_segfault,crash_abort,hang,masked_pct,masked_lo,masked_hi,sdc_pct,sdc_lo,sdc_hi\n",
    );
    for r in reports {
        for (name, row) in PropagationMatrix::row_names().iter().zip(r.matrix.rows()) {
            let rr = row.rates();
            let (mlo, mhi) = rr.wilson_interval(OutcomeClass::Masked);
            let (slo, shi) = rr.wilson_interval(OutcomeClass::Sdc);
            let _ = writeln!(
                csv,
                "{},{name},{},{},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
                class_name(r.class),
                row.n(),
                row.masked,
                row.sdc,
                row.crash_segfault,
                row.crash_abort,
                row.hang,
                rr.masked,
                mlo,
                mhi,
                rr.sdc,
                slo,
                shi
            );
        }
    }
    csv
}

/// The `report.json` document, which is also the run's ledger record.
fn report_json(reports: &[ClassReport], o: &ReportOpts, checkpoints: usize) -> Json {
    let class = |r: &ClassReport| {
        let rows = PropagationMatrix::row_names()
            .into_iter()
            .zip(r.matrix.rows())
            .map(|(name, row)| {
                Json::object([
                    ("stage", name.into()),
                    ("masked", row.masked.into()),
                    ("sdc", row.sdc.into()),
                    ("crash_segfault", row.crash_segfault.into()),
                    ("crash_abort", row.crash_abort.into()),
                    ("hang", row.hang.into()),
                ])
            });
        let eds = r.stage_ed.iter().filter(|e| e.n > 0).map(|e| {
            let graded = e.n - e.egregious;
            Json::object([
                ("stage", e.stage.into()),
                ("sdcs", e.n.into()),
                ("egregious", e.egregious.into()),
                (
                    "mean_rel_l2",
                    if graded == 0 {
                        0.0
                    } else {
                        e.norm_sum / graded as f64
                    }
                    .into(),
                ),
            ])
        });
        Json::object([
            ("class", class_name(r.class).into()),
            ("identical_off_on", r.identical.into()),
            ("masked_warp_summary_pct", masked_warp_summary_pct(r).into()),
            ("register_cv", r.reg_cv.into()),
            ("bit_cv", r.bit_cv.into()),
            ("propagation", Json::Array(rows.collect())),
            ("depth_hist", r.depth_hist.to_vec().into()),
            ("sdc_quality_by_stage", Json::Array(eds.collect())),
        ])
    };
    let digest = config_digest(&[
        o.frames as u64,
        o.width as u64,
        o.height as u64,
        o.injections as u64,
        o.every_k as u64,
        o.seed,
    ]);
    let doc = Json::object([
        ("report", "fault_forensics".into()),
        ("config_digest", digest.into()),
        ("frames", o.frames.into()),
        ("frame_size", vec![o.width, o.height].into()),
        ("injections_per_class", o.injections.into()),
        ("threads", o.threads.into()),
        ("seed", o.seed.into()),
        ("checkpoint_every_k", o.every_k.into()),
        ("checkpoints", checkpoints.into()),
        ("identical", reports.iter().all(|r| r.identical).into()),
        ("classes", Json::Array(reports.iter().map(class).collect())),
    ]);
    let rates = reports.iter().flat_map(|r| {
        let prefix = format!("{}_", class_name(r.class));
        rate_members(&prefix, &stats::outcome_rates(&r.records))
    });
    manifest::with_members(doc, rates)
}

fn main() -> ExitCode {
    let o = match cli::parse(USAGE, parse) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let sink = match vs_bench::trace::build_sink(o.trace.as_deref()) {
        Ok(s) => s,
        Err(e) => return cli::fail(format!("cannot create trace file: {e}")),
    };
    vs_telemetry::set_trace_seed(o.seed);
    let _telemetry = vs_telemetry::install(sink);
    vs_telemetry::emit(
        "report_config",
        &[
            ("report", Value::Str("fault_forensics")),
            ("frames", Value::U64(o.frames as u64)),
            ("width", Value::U64(o.width as u64)),
            ("height", Value::U64(o.height as u64)),
            ("injections", Value::U64(o.injections as u64)),
            ("threads", Value::U64(o.threads as u64)),
            ("every_k", Value::U64(o.every_k as u64)),
            ("seed", Value::U64(o.seed)),
        ],
    );

    let frames = render_input(
        &InputSpec::input2_preset()
            .with_frames(o.frames)
            .with_frame_size(o.width, o.height),
    );
    let w = VsWorkload::new(frames, PipelineConfig::default());
    // One plain golden (drives the forensics-off control campaigns) and
    // one forensic checkpointed golden (drives the forensics-on runs).
    let golden_plain = campaign::profile_golden(&w).expect("golden run failed");
    let ck = campaign::profile_golden_checkpointed_forensic(
        &w,
        CheckpointPolicy::EveryKFrames(o.every_k),
    )
    .expect("forensic golden run failed");

    let reports: Vec<ClassReport> = [RegClass::Gpr, RegClass::Fpr]
        .iter()
        .map(|&class| analyze(&w, &golden_plain, &ck, class, &o))
        .collect();

    if let Err(e) = std::fs::create_dir_all(&o.out_dir) {
        return cli::fail(format!("cannot create {}: {e}", o.out_dir.display()));
    }
    let json = report_json(&reports, &o, ck.checkpoints.len());
    let artifacts = [
        (
            "report.md",
            render_markdown(&reports, &o, ck.checkpoints.len()),
        ),
        ("propagation.csv", render_csv(&reports)),
        ("report.json", json.render()),
    ];
    for (name, contents) in &artifacts {
        let path = o.out_dir.join(name);
        if let Err(e) = std::fs::write(&path, contents) {
            return cli::fail(format!("cannot write {}: {e}", path.display()));
        }
        let shown = path.display().to_string();
        vs_telemetry::emit("artifact", &[("path", Value::Str(&shown))]);
    }
    manifest::append("campaign_report", &json);

    // Acceptance gates (see module docs).
    let mut failed = false;
    for r in &reports {
        if !r.identical {
            eprintln!(
                "error: {} campaign records differ between forensics off and on",
                class_name(r.class)
            );
            failed = true;
        }
    }
    if let Some(gpr) = reports.iter().find(|r| r.class == RegClass::Gpr) {
        let unknown = gpr.matrix.row(None);
        if unknown.masked + unknown.sdc > 0 {
            eprintln!(
                "error: {} GPR non-crash runs have no stage attribution",
                unknown.masked + unknown.sdc
            );
            failed = true;
        }
    }
    if let Some(fpr) = reports.iter().find(|r| r.class == RegClass::Fpr) {
        let pct = masked_warp_summary_pct(fpr);
        if pct < 90.0 {
            eprintln!(
                "error: only {pct:.1}% of FPR masked runs attribute to warp/summary (gate: 90%)"
            );
            failed = true;
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!(
        "forensics report written to {} (gpr + fpr, {} injections each)",
        o.out_dir.display(),
        o.injections
    );
    ExitCode::SUCCESS
}
