//! Cross-process SIMD dispatch smoke: the record stream of a fault
//! campaign must not depend on which kernel implementation the runtime
//! dispatcher picked.
//!
//! Runs one plain (off-session) pipeline pass plus a small GPR and a
//! small FPR campaign on the standard `VsWorkload`, and prints one
//! digest line per phase to stdout; the dispatch level and detected
//! CPU features go to stderr only. It exits non-zero when the plain
//! pass's panoramas differ from the tapped golden run's output, so
//! every level checks its untapped render against the tapped one.
//! `scripts/verify.sh` executes this binary under `VS_SIMD=scalar`,
//! `swar`, `sse2` (on x86-64) and `auto` and diffs the stdout — any
//! divergence means a vector kernel leaked a bit somewhere (into the
//! output pixels, the tap stream, or an injection outcome).
//!
//! A campaign line folds the campaign's `campaign::record_digest`, the
//! record identities the pins in `tests/campaign_records.rs` compare,
//! then the pixels of every retained SDC output. Pixels are hashed with
//! `std::hash::DefaultHasher`, which is deterministic across processes
//! (SipHash with fixed keys), so the lines are directly comparable.
//!
//! `--trace FILE` streams the span-instrumented JSONL event trace to
//! FILE. The trace sink is file-only — never stdout — because the
//! digest lines are the contract this binary is diffed on.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::PathBuf;
use std::process::ExitCode;
use vs_bench::cli;
use vs_core::workloads::VsWorkload;
use vs_core::PipelineConfig;
use vs_fault::campaign::{self, CampaignConfig};
use vs_fault::spec::RegClass;
use vs_image::RgbImage;
use vs_video::{render_input, InputSpec};

const USAGE: &str = "usage: simd_check [--trace FILE]";

fn main() -> ExitCode {
    let trace: Option<PathBuf> = match cli::parse(USAGE, |a| a.value("--trace")) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let _telemetry = match &trace {
        Some(path) => match vs_bench::trace::build_jsonl_sink(path) {
            Ok(sink) => {
                vs_telemetry::set_trace_seed(0x51D0);
                Some(vs_telemetry::install(sink))
            }
            Err(e) => return cli::fail(format!("cannot create trace file: {e}")),
        },
        None => None,
    };
    eprintln!(
        "simd_check: level {} (detected: {})",
        vs_image::dispatch::level().as_str(),
        vs_image::dispatch::detected_features()
    );
    let frames = render_input(
        &InputSpec::input2_preset()
            .with_frames(6)
            .with_frame_size(96, 72),
    );
    let w = VsWorkload::new(frames, PipelineConfig::default());

    // Plain run: the panorama pixels themselves.
    let panoramas = match w.summarize() {
        Ok(s) => s.panoramas,
        Err(e) => return cli::fail(format!("plain run failed: {e:?}")),
    };
    let mut h = DefaultHasher::new();
    hash_images(&panoramas, &mut h);
    println!("plain {:016x}", h.finish());

    // Injection campaigns: every record's identity, then any retained
    // SDC output, folded into one digest per class.
    let golden = match campaign::profile_golden(&w) {
        Ok(g) => g,
        Err(e) => return cli::fail(format!("golden profile failed: {e:?}")),
    };
    // The plain run renders through the untapped path (at SSE2/AVX2 the
    // last-frame-first painter), the golden run frame by frame under
    // taps: at every level both must give the same panoramas.
    if panoramas != golden.output {
        return cli::fail("plain panoramas differ from the golden run's");
    }
    for class in [RegClass::Gpr, RegClass::Fpr] {
        let cfg = CampaignConfig::new(class, 32).seed(0x51D0);
        let records = campaign::run_campaign(&w, &golden, &cfg);
        let mut h = DefaultHasher::new();
        campaign::record_digest(&records).hash(&mut h);
        for out in records.iter().filter_map(|r| r.sdc_output.as_ref()) {
            hash_images(out, &mut h);
        }
        println!("{class} {:016x}", h.finish());
    }
    ExitCode::SUCCESS
}

/// Fold a list of images — count, then each one's shape and bytes.
fn hash_images(images: &[RgbImage], h: &mut DefaultHasher) {
    images.len().hash(h);
    for img in images {
        (img.width(), img.height()).hash(h);
        img.as_bytes().hash(h);
    }
}
