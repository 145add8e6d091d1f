//! Per-kernel microbenchmark: times each SWAR/fixed-point kernel
//! against the scalar reference oracle it was proven bit-exact to, and
//! emits `BENCH_3.json`. With `--hd` it instead sweeps the runtime
//! SIMD dispatch levels (scalar / SWAR / SSE2 / AVX2) over HD frame
//! tiers and emits `BENCH_6.json`.
//!
//! ```text
//! kernel_bench [--threads N[,N...]] [--seed S] [--out FILE]
//!              [--trace FILE] [--smoke] [--check-speedups]
//!              [--hd] [--check-simd]
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
//! An end-to-end row then runs the checkpointed GPR campaign at every
//! `--threads` count (BENCH_2-compatible workload defaults) and
//! cross-checks that all thread counts classify every injection
//! identically; `runs_per_sec_on` is directly comparable with
//! `BENCH_2.json`. `--check-speedups` additionally fails the process
//! if any kernel row regresses below 1.0× — the `scripts/verify.sh`
//! gate.
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
//! of variation exceeds 20% are flagged `unstable`. A row-band parallel
//! warp row is added only when the host has ≥ 2 cores, and an
//! end-to-end checkpointed-campaign row anchors the kernel numbers to
//! campaign throughput. `--check-simd` fails the process unless SSE2
//! reaches ≥ 1.5× over SWAR on at least two of {fast_detect,
//! warp_affine, warp_halfpix, hamming}; the AVX2 and row-band gates
//! arm only when the CPU features / core count permit (a note is
//! printed when they auto-skip).

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use vs_bench::timing::{fmt_secs, measure_pair, Measurement};
use vs_core::experiments::{pipeline_config, Scale};
use vs_core::workloads::VsWorkload;
use vs_core::{Approximation, PipelineConfig};
use vs_fault::campaign::{self, CampaignConfig, CheckpointPolicy};
use vs_fault::spec::RegClass;
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
use vs_warp::{
    warp_perspective_offset_into_bands, warp_perspective_offset_into_level,
    warp_perspective_offset_into_scalar,
};

/// Process-wide allocation counter (bench binary only) — used to pin
/// the warmed kernel paths at zero allocations per call.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

const USAGE: &str =
    "usage: kernel_bench [--threads N[,N...]] [--seed S] [--out FILE] [--trace FILE] [--smoke] [--check-speedups] [--hd] [--check-simd]";

struct BenchOpts {
    /// End-to-end campaign workload — BENCH_2-compatible defaults so
    /// `runs_per_sec_on` is directly comparable.
    frames: usize,
    width: usize,
    height: usize,
    injections: usize,
    every_k: usize,
    seed: u64,
    /// Campaign thread counts; first is primary, rest are sweep reruns.
    threads: Vec<usize>,
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

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            frames: 16,
            width: 128,
            height: 96,
            injections: 120,
            every_k: 1,
            seed: 0xBE6C,
            threads: vec![vs_bench::host_cores()],
            kernel_w: 480,
            kernel_h: 360,
            queries: 256,
            train: 512,
            budget: Duration::from_millis(500),
            out: "BENCH_3.json".into(),
            trace: None,
            check_speedups: false,
            hd: false,
            check_simd: false,
            smoke: false,
        }
    }
}

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

fn parse(args: &[String]) -> Result<BenchOpts, String> {
    let mut o = BenchOpts::default();
    let mut out_set = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--threads" => o.threads = parse_threads(&val("--threads")?)?,
            "--seed" => o.seed = val("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--out" => {
                o.out = val("--out")?.into();
                out_set = true;
            }
            "--trace" => o.trace = Some(val("--trace")?.into()),
            "--check-speedups" => o.check_speedups = true,
            "--hd" => o.hd = true,
            "--check-simd" => o.check_simd = true,
            "--smoke" => {
                o.smoke = true;
                o.frames = 6;
                o.width = 80;
                o.height = 60;
                o.injections = 24;
                o.kernel_w = 240;
                o.kernel_h = 180;
                o.queries = 64;
                o.train = 128;
                o.budget = Duration::from_millis(150);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if o.hd && !out_set {
        o.out = "BENCH_6.json".into();
    }
    Ok(o)
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
    let a0 = alloc_calls();
    for _ in 0..4 {
        swar_f();
    }
    let steady_allocs = (alloc_calls() - a0) / 4;
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

/// One HD-tier row: a dispatch level timed against an interleaved
/// reference side on the same input (SWAR for level rows, the
/// single-band dispatched kernel for row-band rows), plus a fresh
/// bit-exactness verdict against the scalar oracle.
struct HdRow {
    kernel: String,
    tier: String,
    level: SimdLevel,
    /// What the reference side is ("swar" or "single_band").
    ref_kind: &'static str,
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

#[allow(clippy::too_many_arguments)]
fn run_hd_pair(
    kernel: &str,
    tier: &str,
    level: SimdLevel,
    ref_kind: &'static str,
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
        ref_kind,
        reference,
        at_level,
        identical,
    };
    println!(
        "{:<24} {:<6} {ref_kind} {:>11}/iter   level {:>11}/iter   {:>6.2}x   identical={}{}",
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
                    "swar",
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
                    "swar",
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
                    "swar",
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
                    "swar",
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
                    "swar",
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
                    "swar",
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
                "swar",
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

/// Row-band parallel warp row: banded vs single-band dispatched
/// kernel. Only meaningful with ≥ 2 host cores; skipped (with a note)
/// otherwise, so the serial-host CI lane never measures fake
/// parallelism.
fn bench_hd_bands(o: &BenchOpts, host_cores: usize) -> (Vec<HdRow>, Option<String>) {
    if host_cores < 2 {
        let note = format!("row-band parallel rows skipped: host_cores = {host_cores} < 2");
        println!("note: {note}");
        return (Vec::new(), Some(note));
    }
    let bands = host_cores.min(4);
    let level = vs_image::dispatch::level();
    let (kw, kh) = if o.smoke { (639, 359) } else { (1920, 1080) };
    let tier = format!("{kw}x{kh}");
    let frame = render_input(
        &InputSpec::input2_preset()
            .with_frames(1)
            .with_frame_size(kw, kh),
    )
    .remove(0);
    let mut rows = Vec::new();

    {
        let h = Mat3::translation(10.0, 5.0) * Mat3::rotation(0.1);
        let origin = Vec2::new(-2.0, 1.0);
        let (mut dst_o, mut mask_o) = (RgbImage::new(0, 0), GrayImage::new(0, 0));
        let (mut dst_s, mut mask_s) = (RgbImage::new(0, 0), GrayImage::new(0, 0));
        let (mut dst_b, mut mask_b) = (RgbImage::new(0, 0), GrayImage::new(0, 0));
        warp_perspective_offset_into_scalar(&frame, &h, kw, kh, origin, &mut dst_o, &mut mask_o)
            .expect("warp");
        warp_perspective_offset_into_level(
            &frame,
            &h,
            kw,
            kh,
            origin,
            &mut dst_s,
            &mut mask_s,
            level,
        )
        .expect("warp");
        warp_perspective_offset_into_bands(
            &frame,
            &h,
            kw,
            kh,
            origin,
            &mut dst_b,
            &mut mask_b,
            bands,
        )
        .expect("warp");
        let identical = dst_s == dst_o && mask_s == mask_o && dst_b == dst_o && mask_b == mask_o;
        rows.push(run_hd_pair(
            &format!("warp_affine_bands{bands}"),
            &tier,
            level,
            "single_band",
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
                    level,
                )
                .expect("warp");
            },
            || {
                warp_perspective_offset_into_bands(
                    &frame,
                    &h,
                    kw,
                    kh,
                    origin,
                    &mut dst_b,
                    &mut mask_b,
                    bands,
                )
                .expect("warp");
            },
        ));
    }

    (rows, None)
}

/// Kernels whose SIMD speedup the `--check-simd` gate inspects.
const GATE_KERNELS: [&str; 4] = ["fast_detect", "warp_affine", "warp_halfpix", "hamming"];

fn hd_row_json(r: &HdRow) -> String {
    format!(
        "    {{\"kernel\": \"{}\", \"tier\": \"{}\", \"level\": \"{}\", \"ref_kind\": \"{}\", \"ref_ns\": {}, \"level_ns\": {}, \"ref_min_ns\": {}, \"level_min_ns\": {}, \"speedup\": {}, \"ref_cv\": {}, \"level_cv\": {}, \"unstable\": {}, \"identical\": {}, \"batches\": {}}}",
        r.kernel,
        r.tier,
        r.level.as_str(),
        r.ref_kind,
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

/// HD mode entry: dispatch-level sweep, row-band rows, end-to-end
/// campaign anchor, gates, `BENCH_6.json`.
fn run_hd(o: &BenchOpts, host_cores: usize) -> ExitCode {
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
    let (rows, band_rows, band_note) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let rows = bench_hd(o);
                let (band_rows, band_note) = bench_hd_bands(o, host_cores);
                (rows, band_rows, band_note)
            })
            .join()
            .expect("kernel bench thread panicked")
    });
    for r in rows.iter().chain(&band_rows) {
        vs_telemetry::emit(
            "hd_kernel_result",
            &[
                ("kernel", Value::Str(&r.kernel)),
                ("tier", Value::Str(&r.tier)),
                ("level", Value::Str(r.level.as_str())),
                ("ref_kind", Value::Str(r.ref_kind)),
                ("ref_ns", Value::F64(r.reference.secs_per_iter * 1e9)),
                ("level_ns", Value::F64(r.at_level.secs_per_iter * 1e9)),
                ("speedup", Value::F64(r.speedup())),
                ("unstable", Value::Bool(r.unstable())),
                ("identical", Value::Bool(r.identical)),
            ],
        );
    }

    // End-to-end anchor: one checkpointed GPR campaign at the primary
    // thread count, BENCH_2-compatible workload defaults.
    let frames = render_input(
        &InputSpec::input2_preset()
            .with_frames(o.frames)
            .with_frame_size(o.width, o.height),
    );
    let w = VsWorkload::new(frames, PipelineConfig::default());
    let ck = campaign::profile_golden_checkpointed(&w, CheckpointPolicy::EveryKFrames(o.every_k))
        .expect("capturing golden run failed");
    let cfg = CampaignConfig::new(RegClass::Gpr, o.injections)
        .seed(o.seed)
        .threads(o.threads[0])
        .checkpoint_policy(CheckpointPolicy::EveryKFrames(o.every_k));
    let t0 = Instant::now();
    let results = campaign::run_campaign_checkpointed(&w, &ck, &cfg);
    let e2e_secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(results.len());
    let runs_on = o.injections as f64 / e2e_secs;
    println!(
        "end_to_end: {} injections at {} threads in {:.2}s ({:.2} runs/s)",
        o.injections, o.threads[0], e2e_secs, runs_on
    );
    vs_telemetry::emit(
        "bench_result",
        &[
            ("runs_per_sec_on", Value::F64(runs_on)),
            ("kernels", Value::U64((rows.len() + band_rows.len()) as u64)),
        ],
    );

    // Gates. SSE2 is always armed (x86-64 baseline); AVX2 and row-band
    // arm only when the CPU / core count permits.
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
    let band_armed = host_cores >= 2;
    let band_pass = band_rows.iter().any(|r| r.speedup() >= 1.2);
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
    if band_armed {
        println!(
            "gate bands: best {:.2}x -> pass={band_pass}",
            band_rows.iter().map(|r| r.speedup()).fold(0.0, f64::max)
        );
    } else {
        println!("note: row-band gate skipped (host_cores = {host_cores} < 2)");
    }

    let rows_json = rows.iter().map(hd_row_json).collect::<Vec<_>>().join(",\n");
    let band_json = band_rows
        .iter()
        .map(hd_row_json)
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"kernel_simd_hd\",\n  \"detected_features\": \"{features}\",\n  \"host_cores\": {host_cores},\n  \"seed\": {},\n  \"rows\": [\n{rows_json}\n  ],\n  \"band_rows\": [{}{band_json}{}],\n  \"band_note\": {},\n  \"end_to_end\": {{\"injections\": {}, \"threads\": {}, \"frames\": {}, \"frame_size\": [{}, {}], \"on_secs\": {}, \"runs_per_sec_on\": {}}},\n  \"gates\": {{\"sse2_armed\": {sse2_armed}, \"sse2_wins\": {sse2_wins}, \"sse2_pass\": {sse2_pass}, \"avx2_armed\": {avx2_armed}, \"avx2_wins\": {avx2_wins}, \"avx2_pass\": {avx2_pass}, \"band_armed\": {band_armed}, \"band_pass\": {band_pass}}}\n}}\n",
        o.seed,
        if band_rows.is_empty() { "" } else { "\n" },
        if band_rows.is_empty() { "" } else { "\n  " },
        band_note
            .as_ref()
            .map_or("null".to_string(), |n| format!("\"{n}\"")),
        o.injections,
        o.threads[0],
        o.frames,
        o.width,
        o.height,
        json_f(e2e_secs),
        json_f(runs_on),
    );
    if let Err(e) = std::fs::write(&o.out, &json) {
        eprintln!("error: cannot write {}: {e}", o.out.display());
        return ExitCode::FAILURE;
    }
    let out_path = o.out.display().to_string();
    vs_telemetry::emit("artifact", &[("path", Value::Str(&out_path))]);

    if let Some(bad) = rows.iter().chain(&band_rows).find(|r| !r.identical) {
        eprintln!(
            "error: {}@{} at level {} diverged from the scalar oracle",
            bad.kernel,
            bad.tier,
            bad.level.as_str()
        );
        return ExitCode::FAILURE;
    }
    if o.check_simd {
        if sse2_armed && !sse2_pass {
            eprintln!("error: sse2 gate failed ({sse2_wins}/4 gate kernels at >=1.5x, need >=2)");
            return ExitCode::FAILURE;
        }
        if avx2_armed && !avx2_pass {
            eprintln!("error: avx2 gate failed ({avx2_wins}/4 gate kernels at >=1.5x, need >=2)");
            return ExitCode::FAILURE;
        }
        if band_armed && !band_pass {
            eprintln!("error: row-band gate failed (no banded row at >=1.2x)");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
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
    if o.hd {
        return run_hd(&o, host_cores);
    }
    vs_telemetry::emit(
        "bench_config",
        &[
            ("bench", Value::Str("kernel_microbench")),
            ("kernel_width", Value::U64(o.kernel_w as u64)),
            ("kernel_height", Value::U64(o.kernel_h as u64)),
            ("frames", Value::U64(o.frames as u64)),
            ("width", Value::U64(o.width as u64)),
            ("height", Value::U64(o.height as u64)),
            ("injections", Value::U64(o.injections as u64)),
            ("threads", Value::U64(o.threads[0] as u64)),
            ("seed", Value::U64(o.seed)),
            ("host_cores", Value::U64(host_cores as u64)),
        ],
    );

    // Kernel rows on a sink-less thread (telemetry timers disabled, no
    // per-call event spam from the instrumented kernels).
    let rows = std::thread::scope(|scope| {
        scope
            .spawn(|| bench_kernels(&o))
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

    // End-to-end: the checkpointed GPR campaign at every requested
    // thread count, all counts cross-checked for identical outcomes.
    let frames = render_input(
        &InputSpec::input2_preset()
            .with_frames(o.frames)
            .with_frame_size(o.width, o.height),
    );
    let w = VsWorkload::new(frames, PipelineConfig::default());
    let ck = campaign::profile_golden_checkpointed(&w, CheckpointPolicy::EveryKFrames(o.every_k))
        .expect("capturing golden run failed");
    let mut sweep: Vec<(usize, f64, bool)> = Vec::new();
    let mut primary: Option<Vec<campaign::Injection<<VsWorkload as campaign::Workload>::Output>>> =
        None;
    let mut sweep_identical = true;
    for &n in &o.threads {
        let cfg = CampaignConfig::new(RegClass::Gpr, o.injections)
            .seed(o.seed)
            .threads(n)
            .checkpoint_policy(CheckpointPolicy::EveryKFrames(o.every_k));
        let t0 = Instant::now();
        let results = campaign::run_campaign_checkpointed(&w, &ck, &cfg);
        let secs = t0.elapsed().as_secs_f64();
        let same = primary.as_ref().is_none_or(|p: &Vec<_>| {
            p.len() == results.len()
                && p.iter()
                    .zip(&results)
                    .all(|(a, b)| a.spec == b.spec && a.outcome == b.outcome && a.fired == b.fired)
        });
        sweep_identical &= same;
        vs_telemetry::emit(
            "thread_sweep",
            &[
                ("threads", Value::U64(n as u64)),
                ("on_secs", Value::F64(secs)),
                ("runs_per_sec_on", Value::F64(o.injections as f64 / secs)),
                ("identical", Value::Bool(same)),
                ("oversubscribed", Value::Bool(n > host_cores)),
            ],
        );
        sweep.push((n, secs, same));
        if primary.is_none() {
            primary = Some(results);
        }
    }
    let runs_on = o.injections as f64 / sweep[0].1;

    let kernels_identical = rows.iter().all(|r| r.identical);
    let kernels_alloc_free = rows.iter().all(|r| r.steady_allocs == 0);
    let outcomes_identical = kernels_identical && sweep_identical;
    vs_telemetry::emit(
        "bench_result",
        &[
            ("runs_per_sec_on", Value::F64(runs_on)),
            ("kernels", Value::U64(rows.len() as u64)),
            ("identical", Value::Bool(outcomes_identical)),
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
    let sweep_json = sweep
        .iter()
        .map(|&(n, secs, same)| {
            format!(
                "    {{\"threads\": {n}, \"on_secs\": {}, \"runs_per_sec_on\": {}, \"identical\": {same}, \"oversubscribed\": {}}}",
                json_f(secs),
                json_f(o.injections as f64 / secs),
                n > host_cores
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"kernel_microbench\",\n  \"kernel_frame_size\": [{}, {}],\n  \"frames\": {},\n  \"frame_size\": [{}, {}],\n  \"injections\": {},\n  \"checkpoint_every_k\": {},\n  \"seed\": {},\n  \"host_cores\": {},\n  \"kernels\": [\n{kernel_json}\n  ],\n  \"runs_per_sec_on\": {},\n  \"thread_sweep\": [\n{sweep_json}\n  ],\n  \"outcomes_identical\": {}\n}}\n",
        o.kernel_w,
        o.kernel_h,
        o.frames,
        o.width,
        o.height,
        o.injections,
        o.every_k,
        o.seed,
        host_cores,
        json_f(runs_on),
        outcomes_identical
    );
    if let Err(e) = std::fs::write(&o.out, &json) {
        eprintln!("error: cannot write {}: {e}", o.out.display());
        return ExitCode::FAILURE;
    }
    let out_path = o.out.display().to_string();
    vs_telemetry::emit("artifact", &[("path", Value::Str(&out_path))]);
    let kernel_speedup_min = rows
        .iter()
        .map(KernelRow::speedup)
        .fold(f64::INFINITY, f64::min);
    let mut manifest = vs_bench::manifest::Manifest::new("kernel_bench")
        .u64(
            "config_digest",
            vs_bench::manifest::config_digest(&[
                o.kernel_w as u64,
                o.kernel_h as u64,
                o.frames as u64,
                o.width as u64,
                o.height as u64,
                o.injections as u64,
                o.every_k as u64,
                o.seed,
            ]),
        )
        .u64("injections", o.injections as u64)
        .u64("threads", o.threads[0] as u64)
        .u64("seed", o.seed)
        .u64("kernels", rows.len() as u64)
        .f64("runs_per_sec_on", runs_on)
        .f64("kernel_speedup_min", kernel_speedup_min)
        .bool("identical", outcomes_identical);
    if let Some(primary) = &primary {
        manifest = manifest.rates(&vs_fault::stats::outcome_rates(primary));
    }
    manifest.append_default();

    if !kernels_identical {
        eprintln!("error: a SWAR kernel diverged from its scalar oracle");
        return ExitCode::FAILURE;
    }
    if !sweep_identical {
        eprintln!("error: thread sweep diverged from primary campaign outcomes");
        return ExitCode::FAILURE;
    }
    if !kernels_alloc_free {
        eprintln!("error: a warmed kernel path still allocates at steady state");
        return ExitCode::FAILURE;
    }
    if o.check_speedups {
        for r in &rows {
            if r.speedup() < 1.0 {
                eprintln!("error: kernel {} regressed ({:.3}x)", r.name, r.speedup());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
