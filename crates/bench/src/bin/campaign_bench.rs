//! Campaign-throughput benchmark: measures how much golden-prefix
//! fast-forwarding plus per-worker workspace reuse (checkpointed fault
//! campaigns) speeds up injection throughput, counts the workload's
//! steady-state heap allocations, sweeps worker thread counts with the
//! campaign phase metrics armed, and emits the result as `BENCH_2.json`.
//!
//! ```text
//! campaign_bench [--frames N] [--inj N] [--threads N[,N...]] [--every-k K]
//!                [--seed S] [--out FILE] [--trace FILE] [--smoke]
//!                [--expect-scaling X] [--adaptive] [--epsilon PP]
//!                [--cache FILE] [--rate-agreement] [--min-reduction X]
//! ```
//!
//! The benchmark profiles one golden run (plain and checkpoint-capturing),
//! then runs the same GPR campaign twice, metrics off — every injection
//! re-executed from scratch, and every injection fast-forwarded from the
//! latest usable checkpoint, both into reused per-worker workspaces —
//! and reports runs/sec. A counting global allocator measures the
//! workspace path: the first run on a cold workspace allocates
//! (`allocs_per_run_scratch`), warmed-up runs must not allocate at all
//! (`allocs_per_run_steady`).
//!
//! The thread sweep then re-runs the checkpointed campaign at every
//! `--threads` count (a comma list, `--threads 1,2,4`) with a
//! `MetricsRegistry` installed, so each worker's wall time decomposes
//! into the named campaign phases (`draw`, `setup`, `exec`, `teardown`,
//! `classify`, `record`), and `exec` into the pipeline stages, each
//! timed by the span that names it. At the first count the campaign
//! runs in interleaved metrics-off/metrics-on pairs, an A/B of what
//! arming the metrics costs; each further count runs the preset's
//! repeat count. The
//! sweep lands in the JSON as `thread_sweep` rows (median wall time,
//! phase-attribution coverage, and whether the count oversubscribes the
//! recorded `host_cores`) plus an `overhead` object; the first row's
//! phase and stage quantiles become `phase_<name>_{p50,p90,p99}_ns`
//! members and `stage_share` (the stages' summed time over `exec`). The
//! trace carries `metrics_phase`/`metrics_counter` snapshots,
//! `metrics_coverage` and `metrics_overhead` events.
//!
//! The binary fails when
//! - the checkpointed campaign, or any sweep campaign, classifies an
//!   injection differently from the primary checkpointed run
//!   (thread-striping only partitions injection indices, and metrics
//!   live outside the simulated machine);
//! - a warmed workspace run still allocates;
//! - any sweep row attributes less than 95% of worker wall time to the
//!   phase vocabulary;
//! - the metrics-on median exceeds the metrics-off median by more than
//!   2% plus 5 ms (the slack floors smoke-scale scheduler noise);
//! - `--expect-scaling X` is given, the host has at least as many cores
//!   as the widest count, and the widest count is less than `X` times
//!   as fast as the first. On a smaller host the gate is skipped with a
//!   note.
//!
//! `--adaptive` switches to the adaptive-campaign benchmark (written to
//! `--out`, default `BENCH_4.json`): one fixed-budget reference
//! campaign, the Wilson-gated adaptive campaign at the same seed, and a
//! cold/warm compositional pass against a (optionally persistent,
//! `--cache`) group-measurement cache. It fails when the warm pass
//! re-injects a group, when the cold pass injected pilots but
//! fast-forwarded none of them, and when a loaded cache carries this
//! run's digest yet the cold pass still injects a group: group keys are
//! a function of the run's configuration, the compositional
//! configuration and the golden stage digests, which that digest folds.
//! `--rate-agreement` gates every estimate's per-class rates against
//! the reference campaign's 95% Wilson interval widened by the adaptive
//! epsilon; `--min-reduction X` requires the adaptive campaign to
//! converge with at least an `X`-fold injection reduction.
//!
//! `--smoke` shrinks everything so the whole benchmark finishes in
//! seconds; explicit flags override it. All progress output flows
//! through the `vs-telemetry` sink layer: human-readable lines on
//! stdout, plus a complete JSONL trace when `--trace` is given. Validate
//! traces with the `trace_check` binary.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use vs_bench::alloc::{self, CountingAlloc};
use vs_bench::cli;
use vs_bench::manifest::{self, config_digest, phase_members, rate_members};
use vs_bench::timing::median;
use vs_core::workloads::VsWorkload;
use vs_core::{PipelineConfig, RunScratch};
use vs_fault::adaptive::{self, AdaptiveConfig};
use vs_fault::campaign::{
    self, phase, CampaignConfig, CheckpointPolicy, CheckpointedGolden, Injection, Workload,
};
use vs_fault::compose::{self, CampaignCache, ComposeConfig};
use vs_fault::forensics::Stage;
use vs_fault::spec::RegClass;
use vs_fault::stats::{outcome_rates, OutcomeClass, OutcomeRates};
use vs_image::RgbImage;
use vs_telemetry::jsonl::Json;
use vs_telemetry::metrics::{self, MetricsRegistry, WorkerMetrics};
use vs_telemetry::Value;
use vs_video::{render_input, InputSpec};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Largest metrics overhead the A/B accepts, as a share of the
/// metrics-off median...
const MAX_OVERHEAD: f64 = 0.02;
/// ...plus this absolute slack: a smoke campaign lasts tens of
/// milliseconds, and one scheduler hiccup exceeds any percentage.
const OVERHEAD_SLACK_SECS: f64 = 0.005;
/// Interleaved metrics-off/metrics-on pairs in the overhead A/B.
const OVERHEAD_PAIRS: usize = 3;
/// Smallest share of summed worker wall time the phase vocabulary must
/// attribute in every sweep row.
const MIN_COVERAGE: f64 = 0.95;

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
                let a0 = alloc::calls();
                w.run(&mut scratch, None).expect("golden run failed");
                let per_run_scratch = alloc::calls() - a0;
                // Swap-paired buffers (current/previous features, RANSAC
                // inlier lists) reach their high-water marks only once
                // each buffer has served every role: warm up past that.
                for _ in 0..WARMUP_RUNS {
                    w.run(&mut scratch, None).expect("golden run failed");
                }
                let a1 = alloc::calls();
                for _ in 0..STEADY_RUNS {
                    w.run(&mut scratch, None).expect("golden run failed");
                }
                AllocStats {
                    per_run_scratch,
                    per_run_steady: (alloc::calls() - a1) as f64 / STEADY_RUNS as f64,
                }
            })
            .join()
            .expect("alloc measurement thread panicked")
    })
}

const USAGE: &str = "usage: campaign_bench [--frames N] [--inj N] [--threads N[,N...]] [--every-k K] [--seed S] [--out FILE] [--trace FILE] [--smoke] [--expect-scaling X] [--adaptive] [--epsilon PP] [--cache FILE] [--rate-agreement] [--min-reduction X]";

struct BenchOpts {
    frames: usize,
    width: usize,
    height: usize,
    injections: usize,
    /// Thread counts to bench: the first drives the off/on comparison
    /// and the overhead A/B, every count gets a sweep row.
    threads: Vec<usize>,
    every_k: usize,
    seed: u64,
    /// Metrics-armed campaigns per sweep row after the first.
    repeats: usize,
    out: PathBuf,
    trace: Option<PathBuf>,
    /// Required speedup of the widest thread count over the first (0
    /// disables the gate).
    expect_scaling: f64,
    /// Run the adaptive-campaign benchmark instead of the throughput
    /// benchmark.
    adaptive: bool,
    /// Adaptive Wilson half-width target, percentage points. `None`
    /// picks a scale-appropriate default (8pp full, 30pp smoke).
    epsilon: Option<f64>,
    /// Persistent compositional cache path (loaded before the cold
    /// pass, saved after the warm pass).
    cache: Option<PathBuf>,
    /// Fail unless every estimate passes the per-class agreement gate.
    rate_agreement: bool,
    /// Fail unless the adaptive campaign converges with at least this
    /// injection reduction (0 disables the gate).
    min_reduction: f64,
    /// Whether `--smoke` was given (picks smoke-scale adaptive/compose
    /// parameters).
    smoke: bool,
}

fn parse(a: &mut cli::Args) -> Result<BenchOpts, String> {
    let smoke = a.flag("--smoke");
    let adaptive = a.flag("--adaptive");
    let (frames, width, height, injections, repeats) = if smoke {
        (6, 80, 60, 24, 2)
    } else {
        (16, 128, 96, 120, 3)
    };
    let out = if adaptive {
        "BENCH_4.json"
    } else {
        "BENCH_2.json"
    };
    Ok(BenchOpts {
        frames: a.value("--frames")?.unwrap_or(frames),
        width,
        height,
        injections: a.value("--inj")?.unwrap_or(injections),
        threads: a
            .counts("--threads")?
            .unwrap_or_else(|| vec![vs_bench::host_cores()]),
        every_k: a.count("--every-k")?.unwrap_or(1),
        seed: a.value("--seed")?.unwrap_or(0xBE6C),
        repeats,
        out: a.value("--out")?.unwrap_or_else(|| out.into()),
        trace: a.value("--trace")?,
        expect_scaling: a.value("--expect-scaling")?.unwrap_or(0.0),
        adaptive,
        epsilon: a.value("--epsilon")?,
        cache: a.value("--cache")?,
        rate_agreement: a.flag("--rate-agreement"),
        min_reduction: a.value("--min-reduction")?.unwrap_or(0.0),
        smoke,
    })
}

impl BenchOpts {
    /// The ledger's config digest: the run's shape, so comparable runs
    /// share a series.
    fn config_digest(&self, pipeline_digest: u64) -> u64 {
        config_digest(&[
            self.frames as u64,
            self.width as u64,
            self.height as u64,
            self.injections as u64,
            self.every_k as u64,
            self.seed,
            pipeline_digest,
        ])
    }

    /// The checkpointed GPR campaign at `threads` workers.
    fn campaign(&self, threads: usize) -> CampaignConfig {
        CampaignConfig::new(RegClass::Gpr, self.injections)
            .seed(self.seed)
            .threads(threads)
            .checkpoint_policy(CheckpointPolicy::EveryKFrames(self.every_k))
    }
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

fn agreement_json(rows: &[AgreementRow], widen_pp: f64) -> Json {
    let row = |r: &AgreementRow| {
        Json::object([
            ("class", r.class.into()),
            ("reference", r.reference.into()),
            ("estimate", r.estimate.into()),
            ("lo", r.lo.into()),
            ("hi", r.hi.into()),
            ("widen_pp", widen_pp.into()),
            ("pass", r.pass.into()),
        ])
    };
    Json::Array(rows.iter().map(row).collect())
}

fn rates_json(r: &OutcomeRates) -> Json {
    Json::object([
        ("n", r.n.into()),
        ("masked", r.masked.into()),
        ("sdc", r.sdc.into()),
        ("crash", r.crash.into()),
        ("hang", r.hang.into()),
    ])
}

/// The adaptive-campaign benchmark (`--adaptive`): one fixed-budget
/// reference campaign, the Wilson-gated adaptive campaign at the same
/// seed (whose records are a prefix of the reference's), and a
/// cold+warm compositional pass against the group-measurement cache.
/// Emits the BENCH_4 JSON and applies the cache-reuse, rate-agreement
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
    // Everything a group key folds: the run's configuration, the
    // compositional configuration and the golden stage digests.
    let stages = golden
        .golden
        .digests
        .as_ref()
        .ok_or("forensic golden run recorded no stage digests")?;
    let cache_digest = config_digest(
        &[o.config_digest(pipeline_digest), ccfg.digest()]
            .into_iter()
            .chain(
                Stage::ALL
                    .iter()
                    .flat_map(|&s| [stages.digest(s), stages.count(s)]),
            )
            .collect::<Vec<_>>(),
    );

    let cfg = o.campaign(threads);
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
    let warm_start = !cache.is_empty() && cache.workload_digest == cache_digest;
    // The registry counts how many cold pilots resumed from the chain the
    // compositional driver captures for itself.
    let registry = Arc::new(MetricsRegistry::new());
    let t0 = Instant::now();
    let cold = {
        let _m = metrics::install(registry.clone());
        compose::run_composed_campaign(w, &golden.golden, &ccfg, &mut cache)
    };
    let cold_secs = t0.elapsed().as_secs_f64();
    let cold_resumed = registry.merged().counter(phase::RUNS_RESUMED);
    let t0 = Instant::now();
    let warm = compose::run_composed_campaign(w, &golden.golden, &ccfg, &mut cache);
    let warm_secs = t0.elapsed().as_secs_f64();
    if let Some(p) = &o.cache {
        cache.workload_digest = cache_digest;
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

    let json = Json::object([
        ("bench", "adaptive_campaign".into()),
        ("config_digest", o.config_digest(pipeline_digest).into()),
        ("frames", o.frames.into()),
        ("frame_size", vec![o.width, o.height].into()),
        ("threads", threads.into()),
        ("host_cores", host_cores.into()),
        ("seed", o.seed.into()),
        ("pipeline_digest", pipeline_digest.into()),
        ("compose_digest", ccfg.digest().into()),
        ("epsilon_pp", epsilon_pp.into()),
        ("fixed_injections", fixed.len().into()),
        ("fixed_secs", fixed_secs.into()),
        (
            "fixed_runs_per_sec",
            (fixed.len() as f64 / fixed_secs.max(1e-9)).into(),
        ),
        ("adaptive_injections", adapted.records.len().into()),
        ("adaptive_secs", adaptive_secs.into()),
        ("adaptive_stopped_early", adapted.converged.into()),
        (
            "adaptive_max_half_width_pp",
            adaptive::max_half_width(&adapted.rates).into(),
        ),
        ("injection_reduction", reduction.into()),
        ("composed_groups", cold.groups.len().into()),
        ("cold_groups_injected", cold_groups_injected.into()),
        ("cold_injections", cold.injections_executed.into()),
        ("cold_secs", cold_secs.into()),
        ("warm_groups_injected", warm_groups_injected.into()),
        ("warm_injections", warm.injections_executed.into()),
        ("warm_secs", warm_secs.into()),
        (
            "rates",
            Json::object([
                ("fixed", rates_json(&fixed_rates)),
                ("adaptive", rates_json(&adapted.rates)),
                ("composed", rates_json(&cold.estimate)),
            ]),
        ),
        ("adaptive_agreement", agreement_json(&a_rows, epsilon_pp)),
        (
            "composed_agreement",
            agreement_json(&c_rows, ccfg.epsilon_pp),
        ),
        ("rate_agreement", agreement_ok.into()),
    ]);
    let json = manifest::with_members(json, rate_members("", &fixed_rates));
    std::fs::write(&o.out, json.render())
        .map_err(|e| format!("cannot write {}: {e}", o.out.display()))?;
    let out_path = o.out.display().to_string();
    vs_telemetry::emit("artifact", &[("path", Value::Str(&out_path))]);
    manifest::append("adaptive_bench", &json);

    if warm_groups_injected != 0 {
        return Err(format!(
            "warm compositional pass re-injected {warm_groups_injected} groups"
        ));
    }
    if warm_start && cold_groups_injected != 0 {
        return Err(format!(
            "the loaded cache carries this run's digest, yet the cold pass injected {cold_groups_injected} of {} groups",
            cold.groups.len()
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

/// One thread-sweep row: metrics-armed checkpointed campaigns at one
/// thread count.
struct SweepRow {
    threads: usize,
    /// Median wall time of the row's metrics-armed campaigns.
    secs: f64,
    /// Whether every campaign of the row matched the primary records.
    identical: bool,
    /// Merged phase metrics of the row's last campaign.
    metrics: WorkerMetrics,
}

impl SweepRow {
    /// Nanoseconds the top-level phases attribute, and summed worker
    /// wall time.
    fn attribution(&self) -> (u64, u64) {
        let sum = |name: &str| self.metrics.histogram(name).map_or(0, |h| h.sum());
        (
            phase::TOP.iter().map(|p| sum(p)).sum(),
            sum(phase::WORKER_WALL),
        )
    }

    /// Share of summed worker wall time the phase vocabulary covers.
    fn coverage(&self) -> f64 {
        let (attributed, wall) = self.attribution();
        if wall == 0 {
            0.0
        } else {
            attributed as f64 / wall as f64
        }
    }

    /// Share of summed `exec` time the pipeline stages' spans cover.
    fn stage_share(&self) -> f64 {
        let sum = |name: &str| self.metrics.histogram(name).map_or(0, |h| h.sum());
        let stages: u64 = Stage::ALL.iter().map(|s| sum(s.name())).sum();
        match sum(phase::EXEC) {
            0 => 0.0,
            exec => stages as f64 / exec as f64,
        }
    }
}

/// The metrics-overhead A/B at the first thread count.
struct Overhead {
    off: Vec<f64>,
    on: Vec<f64>,
}

impl Overhead {
    fn pct(&self) -> f64 {
        (median(&self.on) / median(&self.off) - 1.0) * 100.0
    }

    fn within_gate(&self) -> bool {
        median(&self.on) <= median(&self.off) * (1.0 + MAX_OVERHEAD) + OVERHEAD_SLACK_SECS
    }

    fn json(&self) -> Json {
        let min = |t: &[f64]| t.iter().copied().fold(f64::INFINITY, f64::min);
        Json::object([
            ("off_secs", median(&self.off).into()),
            ("on_secs", median(&self.on).into()),
            ("off_min_secs", min(&self.off).into()),
            ("on_min_secs", min(&self.on).into()),
            ("pairs", self.off.len().into()),
            ("within_gate", self.within_gate().into()),
        ])
    }
}

/// Time one checkpointed campaign, with `registry` installed (and reset
/// first, so it holds this campaign's metrics only) when given. Returns
/// the wall time and whether the record identities equal `reference`'s.
fn timed_campaign(
    w: &VsWorkload,
    golden: &CheckpointedGolden<VsWorkload>,
    cfg: &CampaignConfig,
    registry: Option<&Arc<MetricsRegistry>>,
    reference: &[Injection<Vec<RgbImage>>],
) -> (f64, bool) {
    let _metrics = registry.map(|r| {
        r.reset();
        metrics::install(r.clone())
    });
    let t0 = Instant::now();
    let records = campaign::run_campaign_checkpointed(w, golden, cfg);
    let secs = t0.elapsed().as_secs_f64();
    let same = records.iter().map(Injection::identity);
    (secs, same.eq(reference.iter().map(Injection::identity)))
}

/// The thread sweep: the overhead A/B at the first count (its
/// metrics-on side is the first row), then `repeats` metrics-armed
/// campaigns at every further count. Emits the metrics snapshot,
/// coverage and row events of every row, and the overhead event.
fn thread_sweep(
    o: &BenchOpts,
    w: &VsWorkload,
    ck: &CheckpointedGolden<VsWorkload>,
    reference: &[Injection<Vec<RgbImage>>],
    host_cores: usize,
) -> (Overhead, Vec<SweepRow>) {
    let registry = Arc::new(MetricsRegistry::new());
    let first = o.threads[0];
    let mut overhead = Overhead {
        off: Vec::new(),
        on: Vec::new(),
    };
    let mut identical = true;
    for _ in 0..OVERHEAD_PAIRS {
        let (off, same_off) = timed_campaign(w, ck, &o.campaign(first), None, reference);
        let (on, same_on) = timed_campaign(w, ck, &o.campaign(first), Some(&registry), reference);
        overhead.off.push(off);
        overhead.on.push(on);
        identical &= same_off && same_on;
    }
    let mut rows = vec![SweepRow {
        threads: first,
        secs: median(&overhead.on),
        identical,
        metrics: registry.merged(),
    }];
    for &n in &o.threads[1..] {
        let runs: Vec<(f64, bool)> = (0..o.repeats)
            .map(|_| timed_campaign(w, ck, &o.campaign(n), Some(&registry), reference))
            .collect();
        let secs: Vec<f64> = runs.iter().map(|r| r.0).collect();
        rows.push(SweepRow {
            threads: n,
            secs: median(&secs),
            identical: runs.iter().all(|r| r.1),
            metrics: registry.merged(),
        });
    }

    for row in &rows {
        let n = row.threads;
        let (attributed, wall) = row.attribution();
        metrics::emit_snapshot(&row.metrics, n, &[("threads", Value::U64(n as u64))]);
        vs_telemetry::emit(
            "metrics_coverage",
            &[
                ("threads", Value::U64(n as u64)),
                ("attributed_ns", Value::U64(attributed)),
                ("wall_ns", Value::U64(wall)),
                ("coverage", Value::F64(row.coverage())),
            ],
        );
        vs_telemetry::emit(
            "thread_sweep",
            &[
                ("threads", Value::U64(n as u64)),
                ("on_secs", Value::F64(row.secs)),
                (
                    "runs_per_sec_on",
                    Value::F64(o.injections as f64 / row.secs),
                ),
                ("identical", Value::Bool(row.identical)),
                ("oversubscribed", Value::Bool(n > host_cores)),
                ("coverage", Value::F64(row.coverage())),
            ],
        );
    }
    vs_telemetry::emit(
        "metrics_overhead",
        &[
            ("off_secs", Value::F64(median(&overhead.off))),
            ("on_secs", Value::F64(median(&overhead.on))),
            ("overhead_pct", Value::F64(overhead.pct())),
            ("pairs", Value::U64(OVERHEAD_PAIRS as u64)),
        ],
    );
    (overhead, rows)
}

/// The throughput benchmark: allocation count, golden runs, the
/// scratch and checkpointed campaigns, the thread sweep, `BENCH_2.json`
/// and every gate.
fn run_throughput_bench(
    o: &BenchOpts,
    w: &VsWorkload,
    host_cores: usize,
    pipeline_digest: u64,
) -> Result<(), String> {
    // Steady-state allocation count of the workspace path (quiet
    // thread): no buffer can grow without a heap call.
    let allocs = measure_allocs(w);
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
    let golden = campaign::profile_golden(w).expect("golden run failed");
    let golden_run_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let ck = campaign::profile_golden_checkpointed(w, CheckpointPolicy::EveryKFrames(o.every_k))
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

    // The same campaign, from scratch and fast-forwarded, metrics off.
    let primary_threads = o.threads[0];
    let cfg_off = CampaignConfig::new(RegClass::Gpr, o.injections)
        .seed(o.seed)
        .threads(primary_threads);
    let t0 = Instant::now();
    let scratch = campaign::run_campaign(w, &golden, &cfg_off);
    let campaign_off_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let fast = campaign::run_campaign_checkpointed(w, &ck, &o.campaign(primary_threads));
    let campaign_on_secs = t0.elapsed().as_secs_f64();

    let identical = scratch
        .iter()
        .map(Injection::identity)
        .eq(fast.iter().map(Injection::identity));
    let (overhead, rows) = thread_sweep(o, w, &ck, &fast, host_cores);
    let sweep_identical = rows.iter().all(|r| r.identical);

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

    let sweep_row = |r: &SweepRow| {
        Json::object([
            ("threads", r.threads.into()),
            ("on_secs", r.secs.into()),
            ("runs_per_sec_on", (o.injections as f64 / r.secs).into()),
            ("identical", r.identical.into()),
            ("oversubscribed", (r.threads > host_cores).into()),
            ("coverage", r.coverage().into()),
        ])
    };
    let json = Json::object([
        ("bench", "campaign_throughput".into()),
        ("config_digest", o.config_digest(pipeline_digest).into()),
        ("frames", o.frames.into()),
        ("frame_size", vec![o.width, o.height].into()),
        ("injections", o.injections.into()),
        ("threads", primary_threads.into()),
        ("host_cores", host_cores.into()),
        ("seed", o.seed.into()),
        ("pipeline_digest", pipeline_digest.into()),
        ("checkpoint_every_k", o.every_k.into()),
        ("checkpoints", ck.checkpoints.len().into()),
        ("golden_run_secs", golden_run_secs.into()),
        ("golden_capturing_secs", golden_capturing_secs.into()),
        ("campaign_checkpoint_off_secs", campaign_off_secs.into()),
        ("campaign_checkpoint_on_secs", campaign_on_secs.into()),
        ("runs_per_sec_off", runs_off.into()),
        ("runs_per_sec_on", runs_on.into()),
        ("speedup", speedup.into()),
        ("allocs_per_run_scratch", allocs.per_run_scratch.into()),
        ("allocs_per_run_steady", allocs.per_run_steady.into()),
        (
            "thread_sweep",
            Json::Array(rows.iter().map(sweep_row).collect()),
        ),
        ("overhead", overhead.json()),
        ("overhead_pct", overhead.pct().into()),
        ("stage_share", rows[0].stage_share().into()),
        ("outcomes_identical", (identical && sweep_identical).into()),
    ]);
    // The campaign-phase and pipeline-stage layers of the record: the
    // first sweep row's phase and stage quantiles.
    let stages = Stage::ALL.map(Stage::name);
    let phases = phase::TOP.iter().chain(&stages).flat_map(|&name| {
        rows[0]
            .metrics
            .histogram(name)
            .map_or_else(Vec::new, |h| phase_members(name, h))
    });
    let json = manifest::with_members(
        json,
        rate_members("", &outcome_rates(&fast))
            .into_iter()
            .chain(phases),
    );
    std::fs::write(&o.out, json.render())
        .map_err(|e| format!("cannot write {}: {e}", o.out.display()))?;
    let out_path = o.out.display().to_string();
    vs_telemetry::emit("artifact", &[("path", Value::Str(&out_path))]);
    manifest::append("campaign_bench", &json);

    if !identical {
        return Err("checkpointed campaign diverged from scratch campaign".into());
    }
    if !sweep_identical {
        return Err("thread sweep diverged from primary campaign outcomes".into());
    }
    if allocs.per_run_steady != 0.0 {
        return Err(format!(
            "steady-state workspace runs still allocate ({} allocs/run)",
            allocs.per_run_steady
        ));
    }
    if let Some(r) = rows.iter().find(|r| r.coverage() < MIN_COVERAGE) {
        return Err(format!(
            "attribution coverage {:.3} at {} threads below {MIN_COVERAGE}: a worker phase is missing from the vocabulary",
            r.coverage(),
            r.threads
        ));
    }
    if !overhead.within_gate() {
        return Err(format!(
            "metrics overhead {:+.2}% exceeds {}% plus {} ms",
            overhead.pct(),
            MAX_OVERHEAD * 100.0,
            OVERHEAD_SLACK_SECS * 1e3
        ));
    }
    if o.expect_scaling > 0.0 {
        let widest = rows.iter().max_by_key(|r| r.threads).expect("rows");
        let scaling = rows[0].secs / widest.secs;
        if host_cores < widest.threads {
            println!(
                "note: --expect-scaling {} skipped: host_cores = {host_cores} < {} threads, the requested speedup is physically unavailable on this host",
                o.expect_scaling, widest.threads
            );
        } else if scaling < o.expect_scaling {
            return Err(format!(
                "speedup {scaling:.2}x at {} threads below required {:.2}x",
                widest.threads, o.expect_scaling
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

    let result = if o.adaptive {
        run_adaptive_bench(&o, &w, host_cores, pipeline_digest)
    } else {
        run_throughput_bench(&o, &w, host_cores, pipeline_digest)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => cli::fail(e),
    }
}
