//! Per-kernel microbenchmark: times every runtime dispatch level of the
//! hot kernels against the SWAR reference, re-proves each level
//! bit-exact to its scalar oracle, and emits `BENCH_6.json`.
//!
//! ```text
//! kernel_bench [--seed S] [--out FILE] [--trace FILE] [--smoke]
//!              [--check-speedups] [--check-simd]
//! ```
//!
//! One sweep covers four frame tiers: 480×360, 1280×720, 1920×1080, and
//! 1919×1079, whose odd dimensions exercise the row tails and the
//! pyramid-halving edge lanes (`--smoke`: 240×180 and 639×359). Every
//! tier times every kernel:
//!
//! - `decode` — the RGB-to-gray conversion (below AVX2 every level runs
//!   the plain loop);
//! - `blur5x5` and `downsample` — the pyramid kernels;
//! - `fast_detect` at `FastConfig::default()`, and `fast_detect_paper`
//!   at the Paper-scale pipeline's ORB threshold and per-level keypoint
//!   cap;
//! - `brief_describe` — rBRIEF over the tier's oriented FAST keypoints
//!   on the smoothed frame (its SWAR level runs the scalar pair loop);
//! - `warp_affine` (a rotation: arbitrary blend weights) and
//!   `warp_halfpix` (a dyadic subpixel translation: every weight k/2^15).
//!
//! `hamming`, the ratio matcher over random descriptor sets, does not
//! depend on the frame size and runs once.
//!
//! Each kernel runs through its `_into_level` entry at every available
//! level except SWAR, timed in interleaved batches against SWAR on the
//! same input. A row's `speedup` is SWAR time over level time, so the
//! `scalar` rows read the SWAR tier's gain inverted. Rows whose batch
//! coefficient of variation exceeds 20% are flagged `unstable`. Kernels
//! run on a dedicated sink-less thread so telemetry timers stay off, the
//! conditions campaign workers see.
//!
//! The binary fails when either side of a row differs from the scalar
//! oracle, when a warmed row makes a heap call, or when the SWAR FAST
//! pre-reject never fires. `--check-speedups` also fails it unless SWAR
//! beats scalar on every kernel with its own SWAR tier (all but `decode`
//! and `brief_describe`). `--check-simd` fails it unless SSE2 reaches
//! ≥ 1.5× over SWAR on at least two of {fast_detect, warp_affine,
//! warp_halfpix, hamming}; the AVX2 gate arms only when the CPU has AVX2
//! (a note is printed when it auto-skips).

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use vs_bench::alloc::{self, CountingAlloc};
use vs_bench::cli;
use vs_bench::manifest::{self, config_digest};
use vs_bench::timing::{measure_pair, Measurement};
use vs_core::experiments::{pipeline_config, Scale};
use vs_core::Approximation;
use vs_features::fast::{self, FastConfig, FastScratch};
use vs_features::{brief, orientation, Descriptor, KeyPoint};
use vs_image::{
    downsample_half_into_level, gaussian_blur_5x5, gaussian_blur_5x5_into_level, GrayImage,
    RgbImage, SimdLevel,
};
use vs_linalg::{Mat3, Vec2};
use vs_matching::{Match, RatioMatcher};
use vs_rng::SplitMix64;
use vs_telemetry::jsonl::Json;
use vs_telemetry::{Event, Value};
use vs_video::{render_input, InputSpec};
use vs_warp::warp_perspective_offset_into_level;

/// Pins every warmed kernel call at zero allocations.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: kernel_bench [--seed S] [--out FILE] [--trace FILE] [--smoke] [--check-speedups] [--check-simd]";

/// Kernels whose SIMD speedup the `--check-simd` gate inspects.
const GATE_KERNELS: [&str; 4] = ["fast_detect", "warp_affine", "warp_halfpix", "hamming"];

/// Kernels whose SWAR level runs the scalar code: `--check-speedups`
/// has no SWAR tier to hold them to.
const NO_SWAR_TIER: [&str; 2] = ["decode", "brief_describe"];

/// Warmed calls per side in a row's allocation probe.
const PROBE_CALLS: u64 = 4;

struct Opts {
    seed: u64,
    /// Frame tiers as (width, height).
    tiers: &'static [(usize, usize)],
    /// Query and train descriptor counts of the `hamming` row.
    descriptors: (usize, usize),
    /// Timing budget per side of a row.
    budget: Duration,
    out: PathBuf,
    trace: Option<PathBuf>,
    check_speedups: bool,
    check_simd: bool,
}

fn parse(a: &mut cli::Args) -> Result<Opts, String> {
    let (tiers, descriptors, budget_ms): (&'static [(usize, usize)], _, _) = if a.flag("--smoke") {
        (&[(240, 180), (639, 359)], (128, 256), 150)
    } else {
        (
            &[(480, 360), (1280, 720), (1920, 1080), (1919, 1079)],
            (512, 1024),
            500,
        )
    };
    Ok(Opts {
        seed: a.value("--seed")?.unwrap_or(0xBE6C),
        tiers,
        descriptors,
        budget: Duration::from_millis(budget_ms),
        out: a.value("--out")?.unwrap_or_else(|| "BENCH_6.json".into()),
        trace: a.value("--trace")?,
        check_speedups: a.flag("--check-speedups"),
        check_simd: a.flag("--check-simd"),
    })
}

/// One row: a dispatch level timed against the interleaved SWAR
/// reference on one tier's input.
struct Row {
    kernel: &'static str,
    tier: String,
    level: SimdLevel,
    reference: Measurement,
    at_level: Measurement,
    /// Both sides reproduced the scalar oracle's output.
    identical: bool,
    /// Heap calls per warmed pair of calls (SWAR, then level), rounded
    /// up.
    steady_allocs: u64,
}

impl Row {
    /// SWAR time over level time.
    fn speedup(&self) -> f64 {
        self.reference.secs_per_iter / self.at_level.secs_per_iter
    }

    /// Batch spread above 20% on either side: the row was measured
    /// under noise and its ratio should not be trusted as-is.
    fn unstable(&self) -> bool {
        self.reference.cv > 0.20 || self.at_level.cv > 0.20
    }

    /// Scalar time over SWAR time, on the rows `--check-speedups`
    /// holds to SWAR beating scalar.
    fn swar_gain(&self) -> Option<f64> {
        (self.level == SimdLevel::Scalar && !NO_SWAR_TIER.contains(&self.kernel))
            .then(|| 1.0 / self.speedup())
    }

    fn json(&self) -> Json {
        let ns = |secs: f64| Json::from(secs * 1e9);
        Json::object([
            ("kernel", self.kernel.into()),
            ("tier", self.tier.as_str().into()),
            ("level", self.level.as_str().into()),
            ("ref_ns", ns(self.reference.secs_per_iter)),
            ("level_ns", ns(self.at_level.secs_per_iter)),
            ("ref_min_ns", ns(self.reference.min_secs_per_iter)),
            ("level_min_ns", ns(self.at_level.min_secs_per_iter)),
            ("speedup", self.speedup().into()),
            ("ref_cv", self.reference.cv.into()),
            ("level_cv", self.at_level.cv.into()),
            ("unstable", self.unstable().into()),
            ("identical", self.identical.into()),
            ("steady_allocs", self.steady_allocs.into()),
            (
                "batches",
                self.reference.batches.min(self.at_level.batches).into(),
            ),
        ])
    }
}

/// The rows measured so far, and the levels each kernel is measured at.
struct Sweep {
    budget: Duration,
    levels: Vec<SimdLevel>,
    rows: Vec<Row>,
    /// The calling thread's observers: each row is reported to their
    /// sink as it is measured, while the sweep thread stays sink-less.
    observers: vs_telemetry::Handle,
}

impl Sweep {
    /// Add one row per measured level for `kernel` on `tier`. `new`
    /// makes a fresh (scratch, output) pair and `run(level, scratch,
    /// output)` calls the kernel's `_into_level` entry. The scalar
    /// oracle runs once; each row checks both sides against it, probes
    /// their warmed calls for heap traffic, then times them. Returns the
    /// SWAR side's scratch.
    fn case<S, O: PartialEq>(
        &mut self,
        kernel: &'static str,
        tier: &str,
        new: impl Fn() -> (S, O),
        run: impl Fn(SimdLevel, &mut S, &mut O),
    ) -> S {
        let (mut scratch, mut oracle) = new();
        run(SimdLevel::Scalar, &mut scratch, &mut oracle);
        let (mut ref_s, mut ref_o) = new();
        run(SimdLevel::Swar, &mut ref_s, &mut ref_o);
        for &level in &self.levels {
            let (mut s, mut o) = new();
            run(level, &mut s, &mut o);
            let identical = ref_o == oracle && o == oracle;
            let a0 = alloc::calls();
            for _ in 0..PROBE_CALLS {
                run(SimdLevel::Swar, &mut ref_s, &mut ref_o);
                run(level, &mut s, &mut o);
            }
            let steady_allocs = (alloc::calls() - a0).div_ceil(PROBE_CALLS);
            let (reference, at_level) = measure_pair(
                self.budget,
                || run(SimdLevel::Swar, &mut ref_s, black_box(&mut ref_o)),
                || run(level, &mut s, black_box(&mut o)),
            );
            let row = Row {
                kernel,
                tier: tier.into(),
                level,
                reference,
                at_level,
                identical,
                steady_allocs,
            };
            if let Some(sink) = &self.observers.sink {
                sink.event(&Event::new(
                    "kernel_result",
                    &[
                        ("kernel", Value::Str(row.kernel)),
                        ("tier", Value::Str(&row.tier)),
                        ("level", Value::Str(level.as_str())),
                        ("ref_ns", Value::F64(reference.secs_per_iter * 1e9)),
                        ("level_ns", Value::F64(at_level.secs_per_iter * 1e9)),
                        ("speedup", Value::F64(row.speedup())),
                        ("unstable", Value::Bool(row.unstable())),
                        ("identical", Value::Bool(identical)),
                        ("steady_allocs", Value::U64(steady_allocs)),
                    ],
                ));
            }
            self.rows.push(row);
        }
        ref_s
    }
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

/// Every kernel on every tier, then `hamming`.
///
/// # Errors
///
/// The SWAR FAST pre-reject never fired on a tier.
fn sweep(o: &Opts, observers: vs_telemetry::Handle) -> Result<Vec<Row>, String> {
    let mut sweep = Sweep {
        budget: o.budget,
        levels: SimdLevel::ALL
            .into_iter()
            .filter(|&l| l != SimdLevel::Swar && l.available())
            .collect(),
        rows: Vec::new(),
        observers,
    };
    let gray_out = || ((), GrayImage::new(0, 0));
    for &(w, h) in o.tiers {
        let tier = format!("{w}x{h}");
        let frame = render_input(
            &InputSpec::input2_preset()
                .with_frames(1)
                .with_frame_size(w, h),
        )
        .remove(0);
        let gray = frame.to_gray();

        sweep.case("decode", &tier, gray_out, |l, _, out| {
            frame.to_gray_into_level(out, l);
        });
        let tmp_out = || (GrayImage::new(0, 0), GrayImage::new(0, 0));
        sweep.case("blur5x5", &tier, tmp_out, |l, tmp, out| {
            gaussian_blur_5x5_into_level(&gray, tmp, out, l);
        });
        sweep.case("downsample", &tier, gray_out, |l, _, out| {
            downsample_half_into_level(&gray, out, l);
        });
        for (kernel, cfg) in [
            ("fast_detect", FastConfig::default()),
            ("fast_detect_paper", paper_fast_config()),
        ] {
            let new = || (FastScratch::default(), Vec::<KeyPoint>::new());
            let swar = sweep.case(kernel, &tier, new, |l, scratch, out| {
                fast::detect_into_level(&gray, &cfg, scratch, out, l).expect("fast");
            });
            if swar.prereject() == 0 {
                return Err(format!(
                    "the SWAR FAST pre-reject never fired on {kernel}@{tier}"
                ));
            }
        }

        // rBRIEF over the tier's FAST keypoints, oriented as ORB orients
        // them, on the smoothed frame.
        let mut kps = fast::detect(&gray, &FastConfig::default()).expect("fast");
        orientation::assign_orientations_mut(&gray, &mut kps).expect("orientation");
        let smoothed = gaussian_blur_5x5(&gray);
        let new = || ((), Vec::<Descriptor>::new());
        sweep.case("brief_describe", &tier, new, |l, _, out| {
            brief::describe_into_level(&smoothed, &kps, out, l).expect("brief");
        });

        let origin = Vec2::new(-2.0, 1.0);
        for (kernel, m) in [
            (
                "warp_affine",
                Mat3::translation(10.0, 5.0) * Mat3::rotation(0.1),
            ),
            ("warp_halfpix", Mat3::translation(3.5, -2.25)),
        ] {
            let new = || ((), (RgbImage::new(0, 0), GrayImage::new(0, 0)));
            sweep.case(kernel, &tier, new, |l, _, (dst, mask)| {
                warp_perspective_offset_into_level(&frame, &m, w, h, origin, dst, mask, l)
                    .expect("warp");
            });
        }
    }

    let mut rng = SplitMix64::new(o.seed ^ 0xD15C);
    let mut descriptors = |n: usize| -> Vec<Descriptor> {
        (0..n)
            .map(|_| Descriptor(std::array::from_fn(|_| rng.next_u64())))
            .collect()
    };
    let (queries, train) = (descriptors(o.descriptors.0), descriptors(o.descriptors.1));
    let ratio = RatioMatcher::default();
    let tier = format!("{}q{}t", queries.len(), train.len());
    let new = || ((), Vec::<Match>::new());
    sweep.case("hamming", &tier, new, |l, _, out| {
        ratio
            .matches_into_level(&queries, &train, out, l)
            .expect("hamming");
    });
    Ok(sweep.rows)
}

fn run(o: &Opts) -> Result<(), String> {
    let host_cores = vs_bench::host_cores();
    let features = vs_image::dispatch::detected_features();
    vs_telemetry::emit(
        "bench_config",
        &[
            ("bench", Value::Str("kernel_simd_hd")),
            ("seed", Value::U64(o.seed)),
            ("host_cores", Value::U64(host_cores as u64)),
            ("detected_features", Value::Str(&features)),
            ("tiers", Value::U64(o.tiers.len() as u64)),
        ],
    );
    println!("detected features: {features}; host cores: {host_cores}");

    let observers = vs_telemetry::capture();
    let rows = std::thread::scope(|scope| {
        scope
            .spawn(|| sweep(o, observers))
            .join()
            .expect("kernel bench thread panicked")
    })?;
    let identical = rows.iter().all(|r| r.identical);
    vs_telemetry::emit(
        "bench_result",
        &[
            ("kernels", Value::U64(rows.len() as u64)),
            ("identical", Value::Bool(identical)),
        ],
    );

    // SIMD gates: SSE2 is always armed on x86-64; AVX2 arms only when
    // the CPU has it. A gate passes with at least two gate kernels at
    // >= 1.5x over SWAR.
    let gates = [SimdLevel::Sse2, SimdLevel::Avx2].map(|level| {
        let wins = GATE_KERNELS
            .iter()
            .filter(|k| {
                rows.iter()
                    .any(|r| r.kernel == **k && r.level == level && r.speedup() >= 1.5)
            })
            .count();
        (level.as_str(), level.available(), wins)
    });
    for (name, armed, wins) in gates {
        if armed {
            println!(
                "gate {name}: {wins}/4 gate kernels at >=1.5x over swar -> pass={}",
                wins >= 2
            );
        } else {
            println!("note: {name} gate skipped ({name} not detected; features: {features})");
        }
    }
    let gates_json = gates.iter().flat_map(|&(name, armed, wins)| {
        [
            (format!("{name}_armed"), armed.into()),
            (format!("{name}_wins"), wins.into()),
            (format!("{name}_pass"), (wins >= 2).into()),
        ]
    });

    let (w, h) = o.tiers[0];
    let doc = Json::object([
        ("bench", "kernel_simd_hd".into()),
        (
            "config_digest",
            config_digest(&[w as u64, h as u64, o.seed]).into(),
        ),
        ("detected_features", features.as_str().into()),
        ("host_cores", host_cores.into()),
        ("seed", o.seed.into()),
        ("kernels", rows.len().into()),
        (
            "kernel_speedup_min",
            rows.iter()
                .filter_map(Row::swar_gain)
                .fold(f64::INFINITY, f64::min)
                .into(),
        ),
        ("identical", identical.into()),
        ("rows", Json::Array(rows.iter().map(Row::json).collect())),
        ("gates", Json::Object(gates_json.collect())),
    ]);
    std::fs::write(&o.out, doc.render())
        .map_err(|e| format!("cannot write {}: {e}", o.out.display()))?;
    let out_path = o.out.display().to_string();
    vs_telemetry::emit("artifact", &[("path", Value::Str(&out_path))]);
    manifest::append("kernel_bench", &doc);

    let at = |r: &Row| format!("{}@{} at level {}", r.kernel, r.tier, r.level.as_str());
    if let Some(r) = rows.iter().find(|r| !r.identical) {
        return Err(format!("{} diverged from the scalar oracle", at(r)));
    }
    if let Some(r) = rows.iter().find(|r| r.steady_allocs != 0) {
        return Err(format!(
            "{} makes {} heap calls per warmed call pair",
            at(r),
            r.steady_allocs
        ));
    }
    if o.check_speedups {
        let loss = rows
            .iter()
            .find_map(|r| r.swar_gain().filter(|&g| g < 1.0).map(|g| (r, g)));
        if let Some((r, gain)) = loss {
            return Err(format!(
                "SWAR {}@{} does not beat scalar ({gain:.3}x)",
                r.kernel, r.tier
            ));
        }
    }
    if o.check_simd {
        if let Some((name, _, wins)) = gates.iter().find(|&&(_, armed, wins)| armed && wins < 2) {
            return Err(format!(
                "{name} gate failed ({wins}/4 gate kernels at >=1.5x, need >=2)"
            ));
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
    match run(&o) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => cli::fail(e),
    }
}
