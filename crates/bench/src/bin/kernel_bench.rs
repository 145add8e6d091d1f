//! Per-kernel microbenchmark: times each SWAR/fixed-point kernel
//! against the scalar reference oracle it was proven bit-exact to, and
//! emits `BENCH_3.json`. With `--hd` it instead sweeps the runtime
//! SIMD dispatch levels (scalar / SWAR / SSE2 / AVX2) over HD frame
//! tiers and emits `BENCH_6.json`.
//!
//! ```text
//! kernel_bench [--seed S] [--out FILE] [--trace FILE] [--smoke]
//!              [--check-speedups] [--hd] [--check-simd]
//! ```
//!
//! Six kernel rows, each `scalar_ns` / `swar_ns` / `speedup` /
//! `identical` (the SWAR side is pinned to the explicit SWAR entry
//! points, so these rows keep their meaning regardless of what the
//! runtime dispatcher would pick):
//!
//! - `blur5x5` — separable u16 fixed-point blur vs the f64
//!   `get_clamped` path
//! - `downsample` — `(acc + 2) >> 2` vs the f64 mean/round path
//! - `fast_detect` — SWAR 16-bit-lane segment test with popcount
//!   pre-reject vs the saturating-i64 classify + arc scan
//! - `warp_affine` — constant-divisor hoisting + float blend vs the
//!   per-pixel projective divide (rotation: arbitrary weights)
//! - `warp_halfpix` — the i64 fixed-point interpolator path (dyadic
//!   subpixel translation: every weight is k/2^15)
//! - `hamming` — shared XOR+popcount core with the 128-bit early exit
//!   vs the scalar oracle pair, driven by a two-nearest scan
//!
//! The `identical` flag re-verifies bit-exactness on the bench inputs
//! (outputs compared before timing), and a steady-allocation probe
//! pins the warmed `_into` paths at zero heap calls. Kernels run on a
//! dedicated sink-less thread so telemetry timers stay disabled —
//! the same conditions campaign workers see.
//!
//! The binary fails when a kernel diverges from its scalar oracle or a
//! warmed kernel path allocates; `--check-speedups` additionally fails
//! it if any kernel row regresses below 1.0× — the `scripts/verify.sh`
//! gate. End-to-end campaign throughput, and its thread sweep, are
//! `campaign_bench`'s.
//!
//! # HD mode (`--hd`)
//!
//! For each HD tier (1280×720, 1920×1080, plus a 1919×1079
//! odd-dimension tier exercising pyramid-halving edge lanes), every
//! kernel is timed at each compiled dispatch level with the SWAR path
//! as the interleaved reference side, after a fresh bit-exactness
//! check against the scalar oracle. Every tier times `decode` (the
//! grayscale conversion; below AVX2 every level runs the plain loop),
//! `blur5x5` and `downsample`. The full tiers add the ORB rows:
//! `fast_detect` at `FastConfig::default()`, `fast_detect_paper` at the
//! Paper-scale pipeline's ORB threshold and per-level keypoint cap, and
//! `brief_describe` (rBRIEF over the tier's oriented FAST keypoints;
//! its SWAR side is the scalar pair loop). Rows whose batch coefficient
//! of variation exceeds 20% are flagged `unstable`. `--check-simd`
//! fails the process unless SSE2 reaches ≥ 1.5× over SWAR on at least
//! two of {fast_detect, warp_affine, warp_halfpix, hamming}; the AVX2
//! gate arms only when the CPU has AVX2 (a note is printed when it
//! auto-skips).

use std::process::ExitCode;
use std::time::Duration;
use vs_bench::alloc::{self, CountingAlloc};
use vs_bench::cli;
use vs_bench::timing::{fmt_secs, measure_pair, Measurement};
use vs_core::experiments::{pipeline_config, Scale};
use vs_core::Approximation;
use vs_features::fast::{self, FastConfig, FastScratch};
use vs_features::{brief, orientation, Descriptor, KeyPoint};
use vs_image::{
    downsample_half_into_level, downsample_half_into_scalar, downsample_half_into_swar,
    gaussian_blur_5x5_into_level, gaussian_blur_5x5_into_scalar, gaussian_blur_5x5_into_swar,
    GrayImage, RgbImage, SimdLevel,
};
use vs_linalg::{Mat3, Vec2};
use vs_matching::{Match, RatioMatcher};
use vs_rng::SplitMix64;
use vs_telemetry::Value;
use vs_video::{render_input, InputSpec};
use vs_warp::{warp_perspective_offset_into_level, warp_perspective_offset_into_scalar};

/// Pins the warmed kernel paths at zero allocations per call.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: kernel_bench [--seed S] [--out FILE] [--trace FILE] [--smoke] [--check-speedups] [--hd] [--check-simd]";

struct BenchOpts {
    seed: u64,
    /// Kernel input sizes and per-side timing budget.
    kernel_w: usize,
    kernel_h: usize,
    queries: usize,
    train: usize,
    budget: Duration,
    out: std::path::PathBuf,
    trace: Option<std::path::PathBuf>,
    check_speedups: bool,
    /// HD dispatch-level sweep mode (`BENCH_6.json`).
    hd: bool,
    /// Fail unless the armed SIMD speedup gates pass (HD mode).
    check_simd: bool,
    /// `--smoke`: shrink the HD tiers too.
    smoke: bool,
}

fn parse(a: &mut cli::Args) -> Result<BenchOpts, String> {
    let smoke = a.flag("--smoke");
    let hd = a.flag("--hd");
    let (kernel_w, kernel_h, queries, train, budget_ms) = if smoke {
        (240, 180, 64, 128, 150)
    } else {
        (480, 360, 256, 512, 500)
    };
    let out = if hd { "BENCH_6.json" } else { "BENCH_3.json" };
    Ok(BenchOpts {
        seed: a.value("--seed")?.unwrap_or(0xBE6C),
        kernel_w,
        kernel_h,
        queries,
        train,
        budget: Duration::from_millis(budget_ms),
        out: a.value("--out")?.unwrap_or_else(|| out.into()),
        trace: a.value("--trace")?,
        check_speedups: a.flag("--check-speedups"),
        hd,
        check_simd: a.flag("--check-simd"),
        smoke,
    })
}

/// One kernel row: scalar-vs-SWAR timing, a fresh bit-exactness check
/// on the bench input, and the warmed path's allocations per call.
struct KernelRow {
    name: &'static str,
    scalar: Measurement,
    swar: Measurement,
    identical: bool,
    steady_allocs: u64,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        self.scalar.secs_per_iter / self.swar.secs_per_iter
    }
}

/// Time a scalar/SWAR closure pair with interleaved batches (drift
/// lands on both sides equally, so the speedup ratio is stable). Both
/// closures were already invoked at least once by the caller's equality
/// check, so the allocation probe sees warmed buffers: the optimized
/// `_into` paths must not touch the heap at steady state.
fn run_pair(
    name: &'static str,
    budget: Duration,
    identical: bool,
    mut scalar_f: impl FnMut(),
    mut swar_f: impl FnMut(),
) -> KernelRow {
    swar_f();
    let a0 = alloc::calls();
    for _ in 0..4 {
        swar_f();
    }
    let steady_allocs = (alloc::calls() - a0) / 4;
    let (scalar, swar) = measure_pair(budget, &mut scalar_f, &mut swar_f);
    let row = KernelRow {
        name,
        scalar,
        swar,
        identical,
        steady_allocs,
    };
    println!(
        "{name:<14} scalar {:>10}/iter   swar {:>10}/iter   {:>5.2}x   identical={} allocs={}",
        fmt_secs(scalar.secs_per_iter),
        fmt_secs(swar.secs_per_iter),
        row.speedup(),
        identical,
        steady_allocs
    );
    row
}

/// Two-nearest descriptor scan (the matcher inner loop's shape): for
/// each query, the nearest train index/distance under an early-exit
/// bound that tightens to the running second-best.
fn two_nearest(
    queries: &[Descriptor],
    train: &[Descriptor],
    out: &mut Vec<(usize, u32)>,
    dist: impl Fn(&Descriptor, &Descriptor, u32) -> Option<u32>,
) {
    out.clear();
    out.extend(queries.iter().map(|q| {
        let mut best = (usize::MAX, u32::MAX);
        let mut second = u32::MAX;
        for (j, t) in train.iter().enumerate() {
            if let Some(d) = dist(q, t, second) {
                if d < best.1 {
                    second = best.1;
                    best = (j, d);
                } else {
                    second = d;
                }
            }
        }
        best
    }));
}

/// Run every kernel row. Called on a dedicated sink-less thread:
/// telemetry is disabled there (`vs_telemetry::enabled()` is false), so
/// the timers the instrumented kernels would otherwise read stay off —
/// exactly the conditions campaign worker threads see.
fn bench_kernels(o: &BenchOpts) -> Vec<KernelRow> {
    let (kw, kh) = (o.kernel_w, o.kernel_h);
    let frame = render_input(
        &InputSpec::input2_preset()
            .with_frames(1)
            .with_frame_size(kw, kh),
    )
    .remove(0);
    let gray = frame.to_gray();
    let mut rows = Vec::new();

    // blur5x5: fixed-point separable pass vs f64 oracle.
    {
        let (mut tmp_a, mut out_a) = (GrayImage::new(0, 0), GrayImage::new(0, 0));
        let (mut tmp_b, mut out_b) = (GrayImage::new(0, 0), GrayImage::new(0, 0));
        gaussian_blur_5x5_into_scalar(&gray, &mut tmp_a, &mut out_a);
        gaussian_blur_5x5_into_swar(&gray, &mut tmp_b, &mut out_b);
        let identical = out_a == out_b;
        rows.push(run_pair(
            "blur5x5",
            o.budget,
            identical,
            || {
                gaussian_blur_5x5_into_scalar(&gray, &mut tmp_a, &mut out_a);
            },
            || {
                gaussian_blur_5x5_into_swar(&gray, &mut tmp_b, &mut out_b);
            },
        ));
    }

    // downsample: (acc + 2) >> 2 vs f64 mean/round oracle.
    {
        let mut out_a = GrayImage::new(0, 0);
        let mut out_b = GrayImage::new(0, 0);
        downsample_half_into_scalar(&gray, &mut out_a);
        downsample_half_into_swar(&gray, &mut out_b);
        let identical = out_a == out_b;
        rows.push(run_pair(
            "downsample",
            o.budget,
            identical,
            || {
                downsample_half_into_scalar(&gray, &mut out_a);
            },
            || {
                downsample_half_into_swar(&gray, &mut out_b);
            },
        ));
    }

    // fast_detect: SWAR segment test + pre-reject vs classify/arc-scan.
    {
        let cfg = FastConfig::default();
        let mut scratch_a = FastScratch::default();
        let mut scratch_b = FastScratch::default();
        let mut out_a: Vec<KeyPoint> = Vec::new();
        let mut out_b: Vec<KeyPoint> = Vec::new();
        fast::detect_into_scalar(&gray, &cfg, &mut scratch_a, &mut out_a).expect("fast scalar");
        fast::detect_into_level(&gray, &cfg, &mut scratch_b, &mut out_b, SimdLevel::Swar)
            .expect("fast swar");
        let identical = out_a == out_b && scratch_b.prereject() > 0;
        rows.push(run_pair(
            "fast_detect",
            o.budget,
            identical,
            || {
                fast::detect_into_scalar(&gray, &cfg, &mut scratch_a, &mut out_a).expect("fast");
            },
            || {
                fast::detect_into_level(&gray, &cfg, &mut scratch_b, &mut out_b, SimdLevel::Swar)
                    .expect("fast");
            },
        ));
    }

    // warp_affine: rotation — constant divisor, arbitrary blend weights
    // (float path with hoisted row terms).
    // warp_halfpix: dyadic subpixel translation — every weight k/2^15,
    // the i64 fixed-point interpolator path.
    let origin = Vec2::new(-2.0, 1.0);
    for (name, h) in [
        (
            "warp_affine",
            Mat3::translation(10.0, 5.0) * Mat3::rotation(0.1),
        ),
        ("warp_halfpix", Mat3::translation(3.5, -2.25)),
    ] {
        let (mut dst_a, mut mask_a) = (RgbImage::new(0, 0), GrayImage::new(0, 0));
        let (mut dst_b, mut mask_b) = (RgbImage::new(0, 0), GrayImage::new(0, 0));
        warp_perspective_offset_into_scalar(&frame, &h, kw, kh, origin, &mut dst_a, &mut mask_a)
            .expect("warp scalar");
        warp_perspective_offset_into_level(
            &frame,
            &h,
            kw,
            kh,
            origin,
            &mut dst_b,
            &mut mask_b,
            SimdLevel::Swar,
        )
        .expect("warp swar");
        let identical = dst_a == dst_b && mask_a == mask_b;
        rows.push(run_pair(
            name,
            o.budget,
            identical,
            || {
                warp_perspective_offset_into_scalar(
                    &frame,
                    &h,
                    kw,
                    kh,
                    origin,
                    &mut dst_a,
                    &mut mask_a,
                )
                .expect("warp");
            },
            || {
                warp_perspective_offset_into_level(
                    &frame,
                    &h,
                    kw,
                    kh,
                    origin,
                    &mut dst_b,
                    &mut mask_b,
                    SimdLevel::Swar,
                )
                .expect("warp");
            },
        ));
    }

    // hamming: two-nearest scan over random descriptors, bounded
    // early-exit core vs the scalar oracle.
    {
        let mut rng = SplitMix64::new(o.seed ^ 0xD15C);
        let mut gen_descs = |n: usize| -> Vec<Descriptor> {
            (0..n)
                .map(|_| Descriptor(std::array::from_fn(|_| rng.next_u64())))
                .collect()
        };
        let queries = gen_descs(o.queries);
        let train = gen_descs(o.train);
        let mut nearest_a = Vec::new();
        let mut nearest_b = Vec::new();
        two_nearest(&queries, &train, &mut nearest_a, |q, t, b| {
            q.hamming_bounded_scalar(t, b)
        });
        two_nearest(&queries, &train, &mut nearest_b, |q, t, b| {
            q.hamming_bounded(t, b)
        });
        let identical = nearest_a == nearest_b;
        rows.push(run_pair(
            "hamming",
            o.budget,
            identical,
            || {
                two_nearest(&queries, &train, &mut nearest_a, |q, t, b| {
                    q.hamming_bounded_scalar(t, b)
                });
                std::hint::black_box(&nearest_a);
            },
            || {
                two_nearest(&queries, &train, &mut nearest_b, |q, t, b| {
                    q.hamming_bounded(t, b)
                });
                std::hint::black_box(&nearest_b);
            },
        ));
    }

    rows
}

fn json_f(x: f64) -> String {
    format!("{x:.6}")
}

/// One HD-tier row: a dispatch level timed against the interleaved SWAR
/// reference on the same input, plus a fresh bit-exactness verdict
/// against the scalar oracle.
struct HdRow {
    kernel: String,
    tier: String,
    level: SimdLevel,
    reference: Measurement,
    at_level: Measurement,
    identical: bool,
}

impl HdRow {
    fn speedup(&self) -> f64 {
        self.reference.secs_per_iter / self.at_level.secs_per_iter
    }

    /// Batch spread above 20% on either side: the row was measured
    /// under noise and its ratio should not be trusted as-is.
    fn unstable(&self) -> bool {
        self.reference.cv > 0.20 || self.at_level.cv > 0.20
    }
}

fn run_hd_pair(
    kernel: &str,
    tier: &str,
    level: SimdLevel,
    budget: Duration,
    identical: bool,
    mut ref_f: impl FnMut(),
    mut level_f: impl FnMut(),
) -> HdRow {
    let (reference, at_level) = measure_pair(budget, &mut ref_f, &mut level_f);
    let row = HdRow {
        kernel: kernel.into(),
        tier: tier.into(),
        level,
        reference,
        at_level,
        identical,
    };
    println!(
        "{:<24} {:<6} swar {:>11}/iter   level {:>11}/iter   {:>6.2}x   identical={}{}",
        format!("{kernel}@{tier}"),
        level.as_str(),
        fmt_secs(reference.secs_per_iter),
        fmt_secs(at_level.secs_per_iter),
        row.speedup(),
        identical,
        if row.unstable() { "  UNSTABLE" } else { "" }
    );
    row
}

/// The dispatch levels the HD sweep times against the SWAR reference:
/// everything compiled-and-available except SWAR itself.
fn hd_levels() -> Vec<SimdLevel> {
    SimdLevel::ALL
        .into_iter()
        .filter(|&l| l != SimdLevel::Swar && l.available())
        .collect()
}

/// The FAST settings the Paper-scale pipeline passes per pyramid level
/// (threshold, and the feature cap split evenly over the levels, as
/// `Orb::detect_and_describe_into` splits it) — the ones `golden_hd`
/// runs.
fn paper_fast_config() -> FastConfig {
    let orb = pipeline_config(Scale::Paper, Approximation::Baseline).orb;
    FastConfig {
        threshold: orb.fast_threshold,
        max_keypoints: (orb.max_features / orb.levels.max(1)).max(8),
        ..FastConfig::default()
    }
}

/// HD-tier dispatch-level sweep. Full tiers run every kernel; the
/// odd-dimension tier runs only decode, blur and downsample (its
/// purpose is the odd-width tails and pyramid-halving edge lanes).
fn bench_hd(o: &BenchOpts) -> Vec<HdRow> {
    let levels = hd_levels();
    let tiers: &[(usize, usize, bool)] = if o.smoke {
        &[(639, 359, true)]
    } else {
        &[(1280, 720, true), (1920, 1080, true), (1919, 1079, false)]
    };
    let mut rows = Vec::new();
    for &(kw, kh, full) in tiers {
        let tier = format!("{kw}x{kh}");
        let frame = render_input(
            &InputSpec::input2_preset()
                .with_frames(1)
                .with_frame_size(kw, kh),
        )
        .remove(0);
        let gray = frame.to_gray();

        {
            let mut out_o = GrayImage::new(0, 0);
            frame.to_gray_into_level(&mut out_o, SimdLevel::Scalar);
            for &level in &levels {
                let (mut out_s, mut out_l) = (GrayImage::new(0, 0), GrayImage::new(0, 0));
                frame.to_gray_into_level(&mut out_s, SimdLevel::Swar);
                frame.to_gray_into_level(&mut out_l, level);
                let identical = out_l == out_o && out_s == out_o;
                rows.push(run_hd_pair(
                    "decode",
                    &tier,
                    level,
                    o.budget,
                    identical,
                    || {
                        frame.to_gray_into_level(&mut out_s, SimdLevel::Swar);
                    },
                    || {
                        frame.to_gray_into_level(&mut out_l, level);
                    },
                ));
            }
        }

        {
            let (mut tmp_o, mut out_o) = (GrayImage::new(0, 0), GrayImage::new(0, 0));
            gaussian_blur_5x5_into_scalar(&gray, &mut tmp_o, &mut out_o);
            for &level in &levels {
                let (mut tmp_s, mut out_s) = (GrayImage::new(0, 0), GrayImage::new(0, 0));
                let (mut tmp_l, mut out_l) = (GrayImage::new(0, 0), GrayImage::new(0, 0));
                gaussian_blur_5x5_into_swar(&gray, &mut tmp_s, &mut out_s);
                gaussian_blur_5x5_into_level(&gray, &mut tmp_l, &mut out_l, level);
                let identical = out_l == out_o && out_s == out_o;
                rows.push(run_hd_pair(
                    "blur5x5",
                    &tier,
                    level,
                    o.budget,
                    identical,
                    || {
                        gaussian_blur_5x5_into_swar(&gray, &mut tmp_s, &mut out_s);
                    },
                    || {
                        gaussian_blur_5x5_into_level(&gray, &mut tmp_l, &mut out_l, level);
                    },
                ));
            }
        }

        {
            let mut out_o = GrayImage::new(0, 0);
            downsample_half_into_scalar(&gray, &mut out_o);
            for &level in &levels {
                let mut out_s = GrayImage::new(0, 0);
                let mut out_l = GrayImage::new(0, 0);
                downsample_half_into_swar(&gray, &mut out_s);
                downsample_half_into_level(&gray, &mut out_l, level);
                let identical = out_l == out_o && out_s == out_o;
                rows.push(run_hd_pair(
                    "downsample",
                    &tier,
                    level,
                    o.budget,
                    identical,
                    || {
                        downsample_half_into_swar(&gray, &mut out_s);
                    },
                    || {
                        downsample_half_into_level(&gray, &mut out_l, level);
                    },
                ));
            }
        }

        if !full {
            continue;
        }

        for (kernel, cfg) in [
            ("fast_detect", FastConfig::default()),
            ("fast_detect_paper", paper_fast_config()),
        ] {
            let mut scratch_o = FastScratch::default();
            let mut out_o: Vec<KeyPoint> = Vec::new();
            fast::detect_into_scalar(&gray, &cfg, &mut scratch_o, &mut out_o).expect("fast");
            for &level in &levels {
                let (mut scratch_s, mut scratch_l) =
                    (FastScratch::default(), FastScratch::default());
                let (mut out_s, mut out_l): (Vec<KeyPoint>, Vec<KeyPoint>) =
                    (Vec::new(), Vec::new());
                fast::detect_into_level(&gray, &cfg, &mut scratch_s, &mut out_s, SimdLevel::Swar)
                    .expect("fast");
                fast::detect_into_level(&gray, &cfg, &mut scratch_l, &mut out_l, level)
                    .expect("fast");
                let identical = out_l == out_o && out_s == out_o;
                rows.push(run_hd_pair(
                    kernel,
                    &tier,
                    level,
                    o.budget,
                    identical,
                    || {
                        fast::detect_into_level(
                            &gray,
                            &cfg,
                            &mut scratch_s,
                            &mut out_s,
                            SimdLevel::Swar,
                        )
                        .expect("fast");
                    },
                    || {
                        fast::detect_into_level(&gray, &cfg, &mut scratch_l, &mut out_l, level)
                            .expect("fast");
                    },
                ));
            }
        }

        {
            // brief_describe: rBRIEF over the tier's FAST keypoints,
            // oriented as ORB orients them, on the smoothed frame; the
            // SWAR side runs the scalar pair loop.
            let mut kps: Vec<KeyPoint> = Vec::new();
            fast::detect_into_scalar(
                &gray,
                &FastConfig::default(),
                &mut FastScratch::default(),
                &mut kps,
            )
            .expect("fast");
            orientation::assign_orientations_mut(&gray, &mut kps).expect("orientation");
            let (mut tmp, mut smoothed) = (GrayImage::new(0, 0), GrayImage::new(0, 0));
            gaussian_blur_5x5_into_scalar(&gray, &mut tmp, &mut smoothed);
            let mut out_o: Vec<Descriptor> = Vec::new();
            brief::describe_into_level(&smoothed, &kps, &mut out_o, SimdLevel::Scalar)
                .expect("brief");
            for &level in &levels {
                let (mut out_s, mut out_l): (Vec<Descriptor>, Vec<Descriptor>) =
                    (Vec::new(), Vec::new());
                brief::describe_into_level(&smoothed, &kps, &mut out_s, SimdLevel::Swar)
                    .expect("brief");
                brief::describe_into_level(&smoothed, &kps, &mut out_l, level).expect("brief");
                let identical = out_l == out_o && out_s == out_o;
                rows.push(run_hd_pair(
                    "brief_describe",
                    &tier,
                    level,
                    o.budget,
                    identical,
                    || {
                        brief::describe_into_level(&smoothed, &kps, &mut out_s, SimdLevel::Swar)
                            .expect("brief");
                    },
                    || {
                        brief::describe_into_level(&smoothed, &kps, &mut out_l, level)
                            .expect("brief");
                    },
                ));
            }
        }

        let origin = Vec2::new(-2.0, 1.0);
        for (name, h) in [
            (
                "warp_affine",
                Mat3::translation(10.0, 5.0) * Mat3::rotation(0.1),
            ),
            ("warp_halfpix", Mat3::translation(3.5, -2.25)),
        ] {
            let (mut dst_o, mut mask_o) = (RgbImage::new(0, 0), GrayImage::new(0, 0));
            warp_perspective_offset_into_scalar(
                &frame,
                &h,
                kw,
                kh,
                origin,
                &mut dst_o,
                &mut mask_o,
            )
            .expect("warp");
            for &level in &levels {
                let (mut dst_s, mut mask_s) = (RgbImage::new(0, 0), GrayImage::new(0, 0));
                let (mut dst_l, mut mask_l) = (RgbImage::new(0, 0), GrayImage::new(0, 0));
                warp_perspective_offset_into_level(
                    &frame,
                    &h,
                    kw,
                    kh,
                    origin,
                    &mut dst_s,
                    &mut mask_s,
                    SimdLevel::Swar,
                )
                .expect("warp");
                warp_perspective_offset_into_level(
                    &frame,
                    &h,
                    kw,
                    kh,
                    origin,
                    &mut dst_l,
                    &mut mask_l,
                    level,
                )
                .expect("warp");
                let identical =
                    dst_l == dst_o && mask_l == mask_o && dst_s == dst_o && mask_s == mask_o;
                rows.push(run_hd_pair(
                    name,
                    &tier,
                    level,
                    o.budget,
                    identical,
                    || {
                        warp_perspective_offset_into_level(
                            &frame,
                            &h,
                            kw,
                            kh,
                            origin,
                            &mut dst_s,
                            &mut mask_s,
                            SimdLevel::Swar,
                        )
                        .expect("warp");
                    },
                    || {
                        warp_perspective_offset_into_level(
                            &frame,
                            &h,
                            kw,
                            kh,
                            origin,
                            &mut dst_l,
                            &mut mask_l,
                            level,
                        )
                        .expect("warp");
                    },
                ));
            }
        }
    }

    // hamming: the real ratio-matcher inner loop over HD-scale
    // descriptor sets (resolution-independent, so one tier).
    {
        let mut rng = SplitMix64::new(o.seed ^ 0xD15C);
        let mut gen_descs = |n: usize| -> Vec<Descriptor> {
            (0..n)
                .map(|_| Descriptor(std::array::from_fn(|_| rng.next_u64())))
                .collect()
        };
        let queries = gen_descs(o.queries * 2);
        let train = gen_descs(o.train * 2);
        let tier = format!("{}q{}t", queries.len(), train.len());
        let ratio = RatioMatcher::default();
        let mut out_o: Vec<Match> = Vec::new();
        ratio
            .matches_into_level(&queries, &train, &mut out_o, SimdLevel::Scalar)
            .expect("hamming");
        for &level in &levels {
            let (mut out_s, mut out_l): (Vec<Match>, Vec<Match>) = (Vec::new(), Vec::new());
            ratio
                .matches_into_level(&queries, &train, &mut out_s, SimdLevel::Swar)
                .expect("hamming");
            ratio
                .matches_into_level(&queries, &train, &mut out_l, level)
                .expect("hamming");
            let identical = out_l == out_o && out_s == out_o;
            rows.push(run_hd_pair(
                "hamming",
                &tier,
                level,
                o.budget,
                identical,
                || {
                    ratio
                        .matches_into_level(&queries, &train, &mut out_s, SimdLevel::Swar)
                        .expect("hamming");
                    std::hint::black_box(&out_s);
                },
                || {
                    ratio
                        .matches_into_level(&queries, &train, &mut out_l, level)
                        .expect("hamming");
                    std::hint::black_box(&out_l);
                },
            ));
        }
    }

    rows
}

/// Kernels whose SIMD speedup the `--check-simd` gate inspects.
const GATE_KERNELS: [&str; 4] = ["fast_detect", "warp_affine", "warp_halfpix", "hamming"];

fn hd_row_json(r: &HdRow) -> String {
    format!(
        "    {{\"kernel\": \"{}\", \"tier\": \"{}\", \"level\": \"{}\", \"ref_kind\": \"swar\", \"ref_ns\": {}, \"level_ns\": {}, \"ref_min_ns\": {}, \"level_min_ns\": {}, \"speedup\": {}, \"ref_cv\": {}, \"level_cv\": {}, \"unstable\": {}, \"identical\": {}, \"batches\": {}}}",
        r.kernel,
        r.tier,
        r.level.as_str(),
        json_f(r.reference.secs_per_iter * 1e9),
        json_f(r.at_level.secs_per_iter * 1e9),
        json_f(r.reference.min_secs_per_iter * 1e9),
        json_f(r.at_level.min_secs_per_iter * 1e9),
        json_f(r.speedup()),
        json_f(r.reference.cv),
        json_f(r.at_level.cv),
        r.unstable(),
        r.identical,
        r.reference.batches.min(r.at_level.batches)
    )
}

/// HD mode entry: dispatch-level sweep, gates, `BENCH_6.json`.
fn run_hd(o: &BenchOpts, host_cores: usize) -> Result<(), String> {
    let features = vs_image::dispatch::detected_features();
    vs_telemetry::emit(
        "bench_config",
        &[
            ("bench", Value::Str("kernel_simd_hd")),
            ("seed", Value::U64(o.seed)),
            ("host_cores", Value::U64(host_cores as u64)),
            ("detected_features", Value::Str(&features)),
        ],
    );
    println!("detected features: {features}; host cores: {host_cores}");

    // All kernel timing on a sink-less thread (telemetry timers off —
    // the same conditions campaign workers see).
    let rows = std::thread::scope(|scope| {
        scope
            .spawn(|| bench_hd(o))
            .join()
            .expect("kernel bench thread panicked")
    });
    for r in &rows {
        vs_telemetry::emit(
            "hd_kernel_result",
            &[
                ("kernel", Value::Str(&r.kernel)),
                ("tier", Value::Str(&r.tier)),
                ("level", Value::Str(r.level.as_str())),
                ("ref_ns", Value::F64(r.reference.secs_per_iter * 1e9)),
                ("level_ns", Value::F64(r.at_level.secs_per_iter * 1e9)),
                ("speedup", Value::F64(r.speedup())),
                ("unstable", Value::Bool(r.unstable())),
                ("identical", Value::Bool(r.identical)),
            ],
        );
    }
    vs_telemetry::emit(
        "bench_result",
        &[("kernels", Value::U64(rows.len() as u64))],
    );

    // Gates. SSE2 is always armed (x86-64 baseline); AVX2 arms only
    // when the CPU has it.
    let wins = |lvl: SimdLevel| {
        GATE_KERNELS
            .iter()
            .filter(|k| {
                rows.iter()
                    .any(|r| r.kernel == **k && r.level == lvl && r.speedup() >= 1.5)
            })
            .count()
    };
    let sse2_armed = SimdLevel::Sse2.available();
    let sse2_wins = wins(SimdLevel::Sse2);
    let sse2_pass = sse2_wins >= 2;
    let avx2_armed = SimdLevel::Avx2.available();
    let avx2_wins = wins(SimdLevel::Avx2);
    let avx2_pass = avx2_wins >= 2;
    if sse2_armed {
        println!("gate sse2: {sse2_wins}/4 gate kernels at >=1.5x over swar -> pass={sse2_pass}");
    } else {
        println!("note: sse2 gate skipped (not an x86-64 host)");
    }
    if avx2_armed {
        println!("gate avx2: {avx2_wins}/4 gate kernels at >=1.5x over swar -> pass={avx2_pass}");
    } else {
        println!("note: avx2 gate skipped (avx2 not detected; features: {features})");
    }

    let rows_json = rows.iter().map(hd_row_json).collect::<Vec<_>>().join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"kernel_simd_hd\",\n  \"detected_features\": \"{features}\",\n  \"host_cores\": {host_cores},\n  \"seed\": {},\n  \"rows\": [\n{rows_json}\n  ],\n  \"gates\": {{\"sse2_armed\": {sse2_armed}, \"sse2_wins\": {sse2_wins}, \"sse2_pass\": {sse2_pass}, \"avx2_armed\": {avx2_armed}, \"avx2_wins\": {avx2_wins}, \"avx2_pass\": {avx2_pass}}}\n}}\n",
        o.seed,
    );
    std::fs::write(&o.out, &json).map_err(|e| format!("cannot write {}: {e}", o.out.display()))?;
    let out_path = o.out.display().to_string();
    vs_telemetry::emit("artifact", &[("path", Value::Str(&out_path))]);

    if let Some(bad) = rows.iter().find(|r| !r.identical) {
        return Err(format!(
            "{}@{} at level {} diverged from the scalar oracle",
            bad.kernel,
            bad.tier,
            bad.level.as_str()
        ));
    }
    if o.check_simd {
        if sse2_armed && !sse2_pass {
            return Err(format!(
                "sse2 gate failed ({sse2_wins}/4 gate kernels at >=1.5x, need >=2)"
            ));
        }
        if avx2_armed && !avx2_pass {
            return Err(format!(
                "avx2 gate failed ({avx2_wins}/4 gate kernels at >=1.5x, need >=2)"
            ));
        }
    }
    Ok(())
}

/// Scalar-versus-SWAR mode: kernel rows, gates, `BENCH_3.json`.
fn run_kernels(o: &BenchOpts, host_cores: usize) -> Result<(), String> {
    vs_telemetry::emit(
        "bench_config",
        &[
            ("bench", Value::Str("kernel_microbench")),
            ("kernel_width", Value::U64(o.kernel_w as u64)),
            ("kernel_height", Value::U64(o.kernel_h as u64)),
            ("seed", Value::U64(o.seed)),
            ("host_cores", Value::U64(host_cores as u64)),
        ],
    );

    // Kernel rows on a sink-less thread (telemetry timers disabled, no
    // per-call event spam from the instrumented kernels).
    let rows = std::thread::scope(|scope| {
        scope
            .spawn(|| bench_kernels(o))
            .join()
            .expect("kernel bench thread panicked")
    });
    for r in &rows {
        vs_telemetry::emit(
            "kernel_result",
            &[
                ("kernel", Value::Str(r.name)),
                ("scalar_ns", Value::F64(r.scalar.secs_per_iter * 1e9)),
                ("swar_ns", Value::F64(r.swar.secs_per_iter * 1e9)),
                ("speedup", Value::F64(r.speedup())),
                ("identical", Value::Bool(r.identical)),
                ("steady_allocs", Value::U64(r.steady_allocs)),
            ],
        );
    }

    let kernels_identical = rows.iter().all(|r| r.identical);
    let kernels_alloc_free = rows.iter().all(|r| r.steady_allocs == 0);
    vs_telemetry::emit(
        "bench_result",
        &[
            ("kernels", Value::U64(rows.len() as u64)),
            ("identical", Value::Bool(kernels_identical)),
        ],
    );

    let kernel_json = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"scalar_ns\": {}, \"swar_ns\": {}, \"scalar_min_ns\": {}, \"swar_min_ns\": {}, \"scalar_mean_ns\": {}, \"swar_mean_ns\": {}, \"batches\": {}, \"speedup\": {}, \"identical\": {}, \"steady_allocs\": {}}}",
                r.name,
                json_f(r.scalar.secs_per_iter * 1e9),
                json_f(r.swar.secs_per_iter * 1e9),
                json_f(r.scalar.min_secs_per_iter * 1e9),
                json_f(r.swar.min_secs_per_iter * 1e9),
                json_f(r.scalar.mean_secs_per_iter * 1e9),
                json_f(r.swar.mean_secs_per_iter * 1e9),
                r.scalar.batches.min(r.swar.batches),
                json_f(r.speedup()),
                r.identical,
                r.steady_allocs
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"kernel_microbench\",\n  \"kernel_frame_size\": [{}, {}],\n  \"seed\": {},\n  \"host_cores\": {},\n  \"kernels\": [\n{kernel_json}\n  ],\n  \"kernels_identical\": {}\n}}\n",
        o.kernel_w, o.kernel_h, o.seed, host_cores, kernels_identical
    );
    std::fs::write(&o.out, &json).map_err(|e| format!("cannot write {}: {e}", o.out.display()))?;
    let out_path = o.out.display().to_string();
    vs_telemetry::emit("artifact", &[("path", Value::Str(&out_path))]);
    let kernel_speedup_min = rows
        .iter()
        .map(KernelRow::speedup)
        .fold(f64::INFINITY, f64::min);
    vs_bench::manifest::Manifest::new("kernel_bench")
        .u64(
            "config_digest",
            vs_bench::manifest::config_digest(&[o.kernel_w as u64, o.kernel_h as u64, o.seed]),
        )
        .u64("seed", o.seed)
        .u64("kernels", rows.len() as u64)
        .f64("kernel_speedup_min", kernel_speedup_min)
        .bool("identical", kernels_identical)
        .append_default();

    if !kernels_identical {
        return Err("a SWAR kernel diverged from its scalar oracle".into());
    }
    if !kernels_alloc_free {
        return Err("a warmed kernel path still allocates at steady state".into());
    }
    if o.check_speedups {
        if let Some(r) = rows.iter().find(|r| r.speedup() < 1.0) {
            return Err(format!("kernel {} regressed ({:.3}x)", r.name, r.speedup()));
        }
    }
    Ok(())
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
    let host_cores = vs_bench::host_cores();
    let result = if o.hd {
        run_hd(&o, host_cores)
    } else {
        run_kernels(&o, host_cores)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => cli::fail(e),
    }
}
