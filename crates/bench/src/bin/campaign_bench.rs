//! Campaign-throughput benchmark: measures how much golden-prefix
//! fast-forwarding plus per-worker workspace reuse (checkpointed fault
//! campaigns) speeds up injection throughput, counts the workload's
//! steady-state heap allocations, and emits the result as `BENCH_2.json`.
//!
//! ```text
//! campaign_bench [--frames N] [--inj N] [--threads N[,N...]] [--every-k K]
//!                [--seed S] [--out FILE] [--trace FILE] [--smoke]
//!                [--adaptive] [--adaptive-out FILE] [--epsilon PP]
//!                [--cache FILE] [--rate-agreement] [--min-reduction X]
//! ```
//!
//! `--threads` accepts a comma list (`--threads 1,2,4`): the first count
//! drives the off/on comparison, and every further count re-runs the
//! checkpointed campaign as a scaling sweep whose outcome records must
//! be identical to the first run's (thread-striping is index-
//! deterministic, so any divergence is a bug). The sweep lands in the
//! JSON as `thread_sweep` rows, each annotated with whether it
//! oversubscribes the recorded `host_cores`.
//!
//! `--adaptive` switches to the adaptive-campaign benchmark (emitted as
//! `BENCH_4.json`): one fixed-budget reference campaign, the
//! Wilson-gated adaptive campaign at the same seed, and a cold/warm
//! compositional pass against a (optionally persistent, `--cache`)
//! group-measurement cache. `--rate-agreement` gates every estimate's
//! per-class rates against the reference campaign's 95% Wilson interval
//! widened by the adaptive epsilon; `--min-reduction X` additionally
//! requires the adaptive campaign to stop early with at least an `X`-fold
//! injection reduction. The cold compositional pass runs with a metrics
//! registry installed, and the binary fails when that pass injected
//! pilots but fast-forwarded none of them (a golden-prefix chain the
//! compositional driver failed to capture).
//!
//! The benchmark profiles one golden run (plain and checkpoint-capturing),
//! then runs the same GPR campaign twice — every injection re-executed
//! from scratch, and every injection fast-forwarded from the latest
//! usable checkpoint, both into reused per-worker workspaces — and
//! cross-checks that both campaigns classify every injection identically
//! before reporting runs/sec. A counting global allocator (this binary only) measures the
//! workspace path: the first run on a cold workspace allocates
//! (`allocs_per_run_scratch`), warmed-up runs must not allocate at all
//! (`allocs_per_run_steady`, gated to 0). `--smoke` shrinks everything so
//! the whole benchmark finishes in seconds (used by `scripts/verify.sh`
//! as an offline end-to-end gate).
//!
//! All progress output flows through the `vs-telemetry` sink layer:
//! human-readable lines on stdout, plus a complete JSONL trace (stage
//! counters, per-injection outcomes, live campaign snapshots, per-run
//! `scratch_reuse` counters) when `--trace` is given. Validate traces
//! with the `trace_check` binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vs_core::workloads::VsWorkload;
use vs_core::{PipelineConfig, RunScratch};
use vs_fault::adaptive::{self, AdaptiveConfig};
use vs_fault::campaign::{self, CampaignConfig, CheckpointPolicy, Workload};
use vs_fault::compose::{self, CampaignCache, ComposeConfig};
use vs_fault::spec::RegClass;
use vs_fault::stats::{outcome_rates, OutcomeClass, OutcomeRates};
use vs_telemetry::metrics::{self, MetricsRegistry};
use vs_telemetry::Value;
use vs_video::{render_input, InputSpec};

/// Process-wide allocation counter: every `alloc`/`realloc`/
/// `alloc_zeroed` bumps it. Bench binary only — the library crates stay
/// on the system allocator. Measurement windows run on an otherwise
/// quiescent process, so deltas attribute cleanly to the code under
/// test.
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

/// Allocation counts of the workspace path: first run on a cold
/// workspace, and the per-run average over a warmed-up workspace (which
/// the zero-allocation steady-state invariant pins to exactly 0).
struct AllocStats {
    per_run_scratch: u64,
    per_run_steady: f64,
}

/// Measure workload allocations on a dedicated thread: the telemetry
/// sink is thread-local (no sink → `emit` is a no-op) and the main
/// thread blocks in `join`, so the global counter's delta is exactly the
/// workload's.
fn measure_allocs(w: &VsWorkload) -> AllocStats {
    const WARMUP_RUNS: usize = 3;
    const STEADY_RUNS: u64 = 8;
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut scratch = RunScratch::default();
                let a0 = alloc_calls();
                w.run(&mut scratch, None).expect("golden run failed");
                let per_run_scratch = alloc_calls() - a0;
                // Swap-paired buffers (current/previous features, RANSAC
                // inlier lists) reach their high-water marks only once
                // each buffer has served every role: warm up past that.
                for _ in 0..WARMUP_RUNS {
                    w.run(&mut scratch, None).expect("golden run failed");
                }
                let a1 = alloc_calls();
                for _ in 0..STEADY_RUNS {
                    w.run(&mut scratch, None).expect("golden run failed");
                }
                AllocStats {
                    per_run_scratch,
                    per_run_steady: (alloc_calls() - a1) as f64 / STEADY_RUNS as f64,
                }
            })
            .join()
            .expect("alloc measurement thread panicked")
    })
}

const USAGE: &str = "usage: campaign_bench [--frames N] [--inj N] [--threads N[,N...]] [--every-k K] [--seed S] [--out FILE] [--trace FILE] [--smoke] [--adaptive] [--adaptive-out FILE] [--epsilon PP] [--cache FILE] [--rate-agreement] [--min-reduction X]";

struct BenchOpts {
    frames: usize,
    width: usize,
    height: usize,
    injections: usize,
    /// Thread counts to bench: the first is the primary off/on
    /// comparison, the rest are scaling-sweep reruns.
    threads: Vec<usize>,
    every_k: usize,
    seed: u64,
    out: std::path::PathBuf,
    trace: Option<std::path::PathBuf>,
    /// Run the adaptive-campaign benchmark instead of the throughput
    /// benchmark.
    adaptive: bool,
    /// Output path of the adaptive benchmark JSON.
    adaptive_out: std::path::PathBuf,
    /// Adaptive Wilson half-width target, percentage points. `None`
    /// picks a scale-appropriate default (8pp full, 30pp smoke).
    epsilon: Option<f64>,
    /// Persistent compositional cache path (loaded before the cold
    /// pass, saved after the warm pass).
    cache: Option<std::path::PathBuf>,
    /// Fail unless every estimate passes the per-class agreement gate.
    rate_agreement: bool,
    /// Fail unless the adaptive campaign converges with at least this
    /// injection reduction (0 disables the gate).
    min_reduction: f64,
    /// Whether `--smoke` was given (picks smoke-scale adaptive/compose
    /// parameters).
    smoke: bool,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            frames: 16,
            width: 128,
            height: 96,
            injections: 120,
            threads: vec![vs_bench::host_cores()],
            every_k: 1,
            seed: 0xBE6C,
            out: "BENCH_2.json".into(),
            trace: None,
            adaptive: false,
            adaptive_out: "BENCH_4.json".into(),
            epsilon: None,
            cache: None,
            rate_agreement: false,
            min_reduction: 0.0,
            smoke: false,
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

fn parse(args: &[String]) -> Result<BenchOpts, String> {
    let mut o = BenchOpts::default();
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
            "--out" => o.out = val("--out")?.into(),
            "--trace" => o.trace = Some(val("--trace")?.into()),
            "--adaptive" => o.adaptive = true,
            "--adaptive-out" => o.adaptive_out = val("--adaptive-out")?.into(),
            "--epsilon" => {
                o.epsilon = Some(val("--epsilon")?.parse().map_err(|_| "bad --epsilon")?)
            }
            "--cache" => o.cache = Some(val("--cache")?.into()),
            "--rate-agreement" => o.rate_agreement = true,
            "--min-reduction" => {
                o.min_reduction = val("--min-reduction")?
                    .parse()
                    .map_err(|_| "bad --min-reduction")?
            }
            "--smoke" => {
                o.frames = 6;
                o.width = 80;
                o.height = 60;
                o.injections = 24;
                o.smoke = true;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        if o.every_k == 0 {
            return Err("--every-k must be positive".into());
        }
    }
    Ok(o)
}

fn json_f(x: f64) -> String {
    format!("{x:.6}")
}

/// One outcome class of an estimate checked against the reference
/// campaign's widened 95% Wilson interval.
struct AgreementRow {
    class: &'static str,
    reference: f64,
    estimate: f64,
    lo: f64,
    hi: f64,
    pass: bool,
}

/// Check every outcome class of `estimate` against `reference`'s 95%
/// Wilson interval widened by `widen_pp` percentage points. The
/// widening is the resolution the adaptive stopping rule was asked for
/// (`epsilon_pp`): a passing estimate equals the reference within the
/// confidence that was actually purchased, which is the meaning of
/// "fewer injections at equal confidence".
fn agreement(
    estimate: &OutcomeRates,
    reference: &OutcomeRates,
    widen_pp: f64,
) -> Vec<AgreementRow> {
    OutcomeClass::ALL
        .iter()
        .map(|&c| {
            let (lo, hi) = reference.wilson_interval(c);
            let r = estimate.rate(c);
            AgreementRow {
                class: c.name(),
                reference: reference.rate(c),
                estimate: r,
                lo,
                hi,
                pass: r >= lo - widen_pp && r <= hi + widen_pp,
            }
        })
        .collect()
}

fn agreement_json(rows: &[AgreementRow], widen_pp: f64) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "    {{\"class\": \"{}\", \"reference\": {}, \"estimate\": {}, \"lo\": {}, \"hi\": {}, \"widen_pp\": {}, \"pass\": {}}}",
                r.class,
                json_f(r.reference),
                json_f(r.estimate),
                json_f(r.lo),
                json_f(r.hi),
                json_f(widen_pp),
                r.pass
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn rates_json(r: &OutcomeRates) -> String {
    format!(
        "{{\"n\": {}, \"masked\": {}, \"sdc\": {}, \"crash\": {}, \"hang\": {}}}",
        r.n,
        json_f(r.masked),
        json_f(r.sdc),
        json_f(r.crash),
        json_f(r.hang)
    )
}

/// The adaptive-campaign benchmark (`--adaptive`): one fixed-budget
/// reference campaign, the Wilson-gated adaptive campaign at the same
/// seed (whose records are a prefix of the reference's), and a
/// cold+warm compositional pass against the group-measurement cache.
/// Emits the BENCH_4 JSON and applies the warm-reuse, rate-agreement
/// and injection-reduction gates.
fn run_adaptive_bench(
    o: &BenchOpts,
    w: &VsWorkload,
    host_cores: usize,
    pipeline_digest: u64,
) -> Result<(), String> {
    let epsilon_pp = o.epsilon.unwrap_or(if o.smoke { 30.0 } else { 8.0 });
    let acfg = AdaptiveConfig {
        epsilon_pp,
        batch: if o.smoke { 8 } else { 25 },
        min_injections: if o.smoke { 16 } else { 100 },
        knee_tol_pp: epsilon_pp / 2.0,
    };
    let threads = o.threads[0];
    // The smoke preset stops each group at a couple of pilots; the full
    // preset resolves each group to 12pp before the weighted merge.
    let ccfg = if o.smoke {
        ComposeConfig {
            seed: o.seed ^ 0xC05E,
            epsilon_pp: 100.0,
            batch: 4,
            min_pilots: 2,
            max_pilots: 4,
            hang_factor: 16,
            threads,
        }
    } else {
        ComposeConfig {
            seed: o.seed ^ 0xC05E,
            epsilon_pp: 12.0,
            batch: 8,
            min_pilots: 8,
            max_pilots: 24,
            hang_factor: 16,
            threads,
        }
    };

    let golden = campaign::profile_golden_checkpointed_forensic(
        w,
        CheckpointPolicy::EveryKFrames(o.every_k),
    )
    .map_err(|e| format!("forensic golden run failed: {e:?}"))?;

    let cfg = CampaignConfig::new(RegClass::Gpr, o.injections)
        .seed(o.seed)
        .threads(threads)
        .checkpoint_policy(CheckpointPolicy::EveryKFrames(o.every_k));

    let t0 = Instant::now();
    let fixed = campaign::run_campaign_checkpointed(w, &golden, &cfg);
    let fixed_secs = t0.elapsed().as_secs_f64();
    let fixed_rates = outcome_rates(&fixed);

    let t0 = Instant::now();
    let adapted = adaptive::run_adaptive_checkpointed(w, &golden, &cfg, &acfg);
    let adaptive_secs = t0.elapsed().as_secs_f64();
    let reduction = fixed.len() as f64 / adapted.records.len().max(1) as f64;

    let mut cache = match &o.cache {
        Some(p) => CampaignCache::load(p)?,
        None => CampaignCache::new(),
    };
    // The registry counts how many cold pilots resumed from the chain the
    // compositional driver captures for itself.
    let registry = Arc::new(MetricsRegistry::new());
    let t0 = Instant::now();
    let cold = {
        let _m = metrics::install(registry.clone());
        compose::run_composed_campaign(w, &golden.golden, &ccfg, &mut cache)
    };
    let cold_secs = t0.elapsed().as_secs_f64();
    let cold_resumed = registry.merged().counter(campaign::phase::RUNS_RESUMED);
    let t0 = Instant::now();
    let warm = compose::run_composed_campaign(w, &golden.golden, &ccfg, &mut cache);
    let warm_secs = t0.elapsed().as_secs_f64();
    if let Some(p) = &o.cache {
        cache.workload_digest = pipeline_digest;
        cache
            .save(p)
            .map_err(|e| format!("write {}: {e}", p.display()))?;
    }
    let cold_groups_injected = cold.groups.len() - cold.reused_groups;
    let warm_groups_injected = warm.groups.len() - warm.reused_groups;

    let a_rows = agreement(&adapted.rates, &fixed_rates, epsilon_pp);
    let c_rows = agreement(&cold.estimate, &fixed_rates, ccfg.epsilon_pp);
    let agreement_ok = a_rows.iter().chain(&c_rows).all(|r| r.pass);

    println!(
        "fixed     {:>5} injections in {:>6.2}s",
        fixed.len(),
        fixed_secs
    );
    println!(
        "adaptive  {:>5} injections in {:>6.2}s   {:.1}x fewer, converged={}, half-width {:.2}pp (target {:.0}pp)",
        adapted.records.len(),
        adaptive_secs,
        reduction,
        adapted.converged,
        adaptive::max_half_width(&adapted.rates),
        epsilon_pp
    );
    println!(
        "composed  {:>5} injections in {:>6.2}s cold ({}/{} groups injected, {} resumed); warm: {} injections, {} groups",
        cold.injections_executed,
        cold_secs,
        cold_groups_injected,
        cold.groups.len(),
        cold_resumed,
        warm.injections_executed,
        warm_groups_injected
    );
    println!(
        "rate agreement: {}",
        if agreement_ok { "pass" } else { "FAIL" }
    );
    vs_telemetry::emit(
        "adaptive_bench",
        &[
            ("fixed_injections", Value::U64(fixed.len() as u64)),
            (
                "adaptive_injections",
                Value::U64(adapted.records.len() as u64),
            ),
            ("reduction", Value::F64(reduction)),
            (
                "cold_groups_injected",
                Value::U64(cold_groups_injected as u64),
            ),
            (
                "warm_groups_injected",
                Value::U64(warm_groups_injected as u64),
            ),
            ("agreement", Value::Bool(agreement_ok)),
        ],
    );

    let json = format!(
        "{{\n  \"bench\": \"adaptive_campaign\",\n  \"frames\": {},\n  \"frame_size\": [{}, {}],\n  \"threads\": {},\n  \"host_cores\": {},\n  \"seed\": {},\n  \"config_digest\": {},\n  \"compose_digest\": {},\n  \"epsilon_pp\": {},\n  \"fixed_injections\": {},\n  \"fixed_secs\": {},\n  \"adaptive_injections\": {},\n  \"adaptive_secs\": {},\n  \"adaptive_stopped_early\": {},\n  \"adaptive_max_half_width_pp\": {},\n  \"injection_reduction\": {},\n  \"composed_groups\": {},\n  \"cold_groups_injected\": {},\n  \"cold_injections\": {},\n  \"cold_secs\": {},\n  \"warm_groups_injected\": {},\n  \"warm_injections\": {},\n  \"warm_secs\": {},\n  \"rates\": {{\n    \"fixed\": {},\n    \"adaptive\": {},\n    \"composed\": {}\n  }},\n  \"adaptive_agreement\": [\n{}\n  ],\n  \"composed_agreement\": [\n{}\n  ],\n  \"rate_agreement\": {}\n}}\n",
        o.frames,
        o.width,
        o.height,
        threads,
        host_cores,
        o.seed,
        pipeline_digest,
        ccfg.digest(),
        json_f(epsilon_pp),
        fixed.len(),
        json_f(fixed_secs),
        adapted.records.len(),
        json_f(adaptive_secs),
        adapted.converged,
        json_f(adaptive::max_half_width(&adapted.rates)),
        json_f(reduction),
        cold.groups.len(),
        cold_groups_injected,
        cold.injections_executed,
        json_f(cold_secs),
        warm_groups_injected,
        warm.injections_executed,
        json_f(warm_secs),
        rates_json(&fixed_rates),
        rates_json(&adapted.rates),
        rates_json(&cold.estimate),
        agreement_json(&a_rows, epsilon_pp),
        agreement_json(&c_rows, ccfg.epsilon_pp),
        agreement_ok
    );
    std::fs::write(&o.adaptive_out, &json)
        .map_err(|e| format!("cannot write {}: {e}", o.adaptive_out.display()))?;
    let out_path = o.adaptive_out.display().to_string();
    vs_telemetry::emit("artifact", &[("path", Value::Str(&out_path))]);
    vs_bench::manifest::Manifest::new("adaptive_bench")
        .u64(
            "config_digest",
            vs_bench::manifest::config_digest(&[
                o.frames as u64,
                o.width as u64,
                o.height as u64,
                o.injections as u64,
                o.every_k as u64,
                o.seed,
                pipeline_digest,
            ]),
        )
        .u64("pipeline_digest", pipeline_digest)
        .u64("injections", o.injections as u64)
        .u64("threads", threads as u64)
        .u64("seed", o.seed)
        .f64("injection_reduction", reduction)
        .f64(
            "fixed_runs_per_sec",
            fixed.len() as f64 / fixed_secs.max(1e-9),
        )
        .bool("identical", agreement_ok)
        .rates(&fixed_rates)
        .append_default();

    if warm_groups_injected != 0 {
        return Err(format!(
            "warm compositional pass re-injected {warm_groups_injected} groups"
        ));
    }
    if cold.injections_executed > 0 && cold_resumed == 0 {
        return Err(format!(
            "cold compositional pass ran all {} pilots from scratch: no golden-prefix chain was captured",
            cold.injections_executed
        ));
    }
    if o.rate_agreement && !agreement_ok {
        return Err("an estimate left the reference campaign's widened Wilson interval".into());
    }
    if o.min_reduction > 0.0 {
        if !adapted.converged {
            return Err(format!(
                "adaptive campaign failed to converge within {} injections",
                o.injections
            ));
        }
        if reduction < o.min_reduction {
            return Err(format!(
                "injection reduction {reduction:.2}x below the {}x gate",
                o.min_reduction
            ));
        }
    }
    Ok(())
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
            (
                "bench",
                Value::Str(if o.adaptive {
                    "adaptive_campaign"
                } else {
                    "campaign_throughput"
                }),
            ),
            ("frames", Value::U64(o.frames as u64)),
            ("width", Value::U64(o.width as u64)),
            ("height", Value::U64(o.height as u64)),
            ("injections", Value::U64(o.injections as u64)),
            ("threads", Value::U64(o.threads[0] as u64)),
            ("thread_sweep", Value::U64(o.threads.len() as u64)),
            ("every_k", Value::U64(o.every_k as u64)),
            ("seed", Value::U64(o.seed)),
            ("host_cores", Value::U64(host_cores as u64)),
        ],
    );

    let frames = render_input(
        &InputSpec::input2_preset()
            .with_frames(o.frames)
            .with_frame_size(o.width, o.height),
    );
    let pipeline = PipelineConfig::default();
    let pipeline_digest = pipeline.digest();
    let w = VsWorkload::new(frames, pipeline);

    if o.adaptive {
        return match run_adaptive_bench(&o, &w, host_cores, pipeline_digest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Steady-state allocation count of the workspace path (quiet
    // thread), then a short traced demo on this thread so the JSONL
    // trace carries per-run `scratch_reuse` counters reaching grown=0.
    let allocs = measure_allocs(&w);
    vs_telemetry::emit(
        "bench_alloc",
        &[
            ("allocs_per_run_scratch", Value::U64(allocs.per_run_scratch)),
            ("allocs_per_run_steady", Value::F64(allocs.per_run_steady)),
        ],
    );

    // Golden runs: plain (what scratch campaigns need) and capturing
    // (what checkpointed campaigns need).
    let t0 = Instant::now();
    let golden = campaign::profile_golden(&w).expect("golden run failed");
    let golden_run_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let ck = campaign::profile_golden_checkpointed(&w, CheckpointPolicy::EveryKFrames(o.every_k))
        .expect("capturing golden run failed");
    let golden_capturing_secs = t0.elapsed().as_secs_f64();
    vs_telemetry::emit(
        "golden_profiled",
        &[
            ("plain_secs", Value::F64(golden_run_secs)),
            ("capturing_secs", Value::F64(golden_capturing_secs)),
            ("checkpoints", Value::U64(ck.checkpoints.len() as u64)),
        ],
    );

    // The same campaign, from scratch and fast-forwarded.
    let primary_threads = o.threads[0];
    let cfg_off = CampaignConfig::new(RegClass::Gpr, o.injections)
        .seed(o.seed)
        .threads(primary_threads);
    let t0 = Instant::now();
    let scratch = campaign::run_campaign(&w, &golden, &cfg_off);
    let campaign_off_secs = t0.elapsed().as_secs_f64();

    let cfg_on = CampaignConfig::new(RegClass::Gpr, o.injections)
        .seed(o.seed)
        .threads(primary_threads)
        .checkpoint_policy(CheckpointPolicy::EveryKFrames(o.every_k));
    let t0 = Instant::now();
    let fast = campaign::run_campaign_checkpointed(&w, &ck, &cfg_on);
    let campaign_on_secs = t0.elapsed().as_secs_f64();

    // Scaling sweep: rerun the checkpointed campaign at every further
    // thread count. Thread-striping only partitions injection indices,
    // so every rerun must classify every injection exactly like the
    // primary run — a divergence means a cross-thread determinism bug.
    let mut sweep_rows = vec![(primary_threads, campaign_on_secs, true)];
    let mut sweep_identical = true;
    for &n in &o.threads[1..] {
        let cfg = CampaignConfig::new(RegClass::Gpr, o.injections)
            .seed(o.seed)
            .threads(n)
            .checkpoint_policy(CheckpointPolicy::EveryKFrames(o.every_k));
        let t0 = Instant::now();
        let rerun = campaign::run_campaign_checkpointed(&w, &ck, &cfg);
        let secs = t0.elapsed().as_secs_f64();
        let same = rerun.len() == fast.len()
            && rerun
                .iter()
                .zip(&fast)
                .all(|(a, b)| a.spec == b.spec && a.outcome == b.outcome && a.fired == b.fired);
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
        sweep_rows.push((n, secs, same));
    }

    let identical = scratch.len() == fast.len()
        && scratch
            .iter()
            .zip(&fast)
            .all(|(a, b)| a.spec == b.spec && a.outcome == b.outcome && a.fired == b.fired);
    let runs_off = o.injections as f64 / campaign_off_secs;
    let runs_on = o.injections as f64 / campaign_on_secs;
    let speedup = campaign_off_secs / campaign_on_secs;
    vs_telemetry::emit(
        "bench_result",
        &[
            ("off_secs", Value::F64(campaign_off_secs)),
            ("runs_per_sec_off", Value::F64(runs_off)),
            ("on_secs", Value::F64(campaign_on_secs)),
            ("runs_per_sec_on", Value::F64(runs_on)),
            ("speedup", Value::F64(speedup)),
            ("identical", Value::Bool(identical)),
            ("allocs_per_run_steady", Value::F64(allocs.per_run_steady)),
        ],
    );

    // Traced steady-state demo: a few golden runs on this thread (where
    // the sink lives) so the trace ends with `scratch_reuse` counters at
    // grown=0 — what `trace_check --scratch-steady` validates.
    {
        let mut demo = RunScratch::default();
        for _ in 0..4 {
            w.run(&mut demo, None).expect("golden run failed");
        }
    }

    let sweep_json = sweep_rows
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
        "{{\n  \"bench\": \"campaign_throughput\",\n  \"frames\": {},\n  \"frame_size\": [{}, {}],\n  \"injections\": {},\n  \"threads\": {},\n  \"host_cores\": {},\n  \"checkpoint_every_k\": {},\n  \"checkpoints\": {},\n  \"golden_run_secs\": {},\n  \"golden_capturing_secs\": {},\n  \"campaign_checkpoint_off_secs\": {},\n  \"campaign_checkpoint_on_secs\": {},\n  \"runs_per_sec_off\": {},\n  \"runs_per_sec_on\": {},\n  \"speedup\": {},\n  \"allocs_per_run_scratch\": {},\n  \"allocs_per_run_steady\": {},\n  \"thread_sweep\": [\n{sweep_json}\n  ],\n  \"outcomes_identical\": {}\n}}\n",
        o.frames,
        o.width,
        o.height,
        o.injections,
        primary_threads,
        host_cores,
        o.every_k,
        ck.checkpoints.len(),
        json_f(golden_run_secs),
        json_f(golden_capturing_secs),
        json_f(campaign_off_secs),
        json_f(campaign_on_secs),
        json_f(runs_off),
        json_f(runs_on),
        json_f(speedup),
        allocs.per_run_scratch,
        json_f(allocs.per_run_steady),
        identical && sweep_identical
    );
    if let Err(e) = std::fs::write(&o.out, &json) {
        eprintln!("error: cannot write {}: {e}", o.out.display());
        return ExitCode::FAILURE;
    }
    let out_path = o.out.display().to_string();
    vs_telemetry::emit("artifact", &[("path", Value::Str(&out_path))]);
    vs_bench::manifest::Manifest::new("campaign_bench")
        .u64(
            "config_digest",
            vs_bench::manifest::config_digest(&[
                o.frames as u64,
                o.width as u64,
                o.height as u64,
                o.injections as u64,
                o.every_k as u64,
                o.seed,
                pipeline_digest,
            ]),
        )
        .u64("pipeline_digest", pipeline_digest)
        .u64("injections", o.injections as u64)
        .u64("threads", primary_threads as u64)
        .u64("seed", o.seed)
        .f64("runs_per_sec_off", runs_off)
        .f64("runs_per_sec_on", runs_on)
        .f64("speedup", speedup)
        .f64("allocs_per_run_steady", allocs.per_run_steady)
        .bool("identical", identical && sweep_identical)
        .rates(&outcome_rates(&fast))
        .append_default();
    if !identical {
        eprintln!("error: checkpointed campaign diverged from scratch campaign");
        return ExitCode::FAILURE;
    }
    if !sweep_identical {
        eprintln!("error: thread sweep diverged from primary campaign outcomes");
        return ExitCode::FAILURE;
    }
    if allocs.per_run_steady != 0.0 {
        eprintln!(
            "error: steady-state workspace runs still allocate ({} allocs/run)",
            allocs.per_run_steady
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
