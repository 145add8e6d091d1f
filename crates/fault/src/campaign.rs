//! Statistical fault-injection campaigns.
//!
//! A campaign reproduces the paper's methodology end to end:
//!
//! 1. [`profile_golden`] runs the workload once with counting enabled,
//!    recording the error-free output (the *golden output*) and the number
//!    of dynamic taps — the population of candidate error sites.
//! 2. [`run_campaign`] performs N independent runs. Each draws a uniformly
//!    random `(tap index, bit)` fault in the chosen register class, runs
//!    the workload with that fault armed, and classifies the outcome as
//!    Mask, SDC, Crash (segfault or abort) or Hang — the paper's four
//!    outcomes, with its crash-cause split.
//!
//! Runs are independent and execute in parallel across threads; all
//! randomness derives from the campaign seed, so results are reproducible
//! bit for bit regardless of thread count. Every campaign flavour —
//! plain, checkpointed, adaptive, pruned and compositional — drives its
//! runs through one driver and one executor, so they all share the same
//! workspace reuse, panic handling, classification and metrics.

use crate::error::SimError;
use crate::forensics::{Attribution, ForensicsRecord};
use crate::func::FuncMask;
use crate::session::{self, TapSnapshot};
use crate::spec::{FaultSpec, FiredFault, RegClass, REG_BITS};
use crate::telemetry::CampaignMonitor;
use crate::{mix64, state};
use std::fmt;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock, PoisonError};
use vs_telemetry::digest::{self, DigestTrace, Stage};
use vs_telemetry::{metrics, span};

/// Phase vocabulary of the campaign metrics: every campaign phase is a
/// span named by one of these constants ([`vs_telemetry::span`]), and a
/// span on a metrics-armed worker records its duration into the
/// worker's histogram of that name. Workers are armed when a
/// [`metrics::MetricsRegistry`] is installed on the campaign's calling
/// thread (see [`metrics::install`]); every nanosecond of a worker's
/// stripe is then attributed to one of the [`TOP`](phase::TOP) phases,
/// and the pipeline's stage spans inside [`EXEC`](phase::EXEC) yield
/// one histogram per [`Stage`] name. With no registry installed the
/// spans never read the clock.
pub mod phase {
    /// Fault-spec draw plus checkpoint selection, per run.
    pub const DRAW: &str = "draw";
    /// Forensic-recorder and injection-session guard setup, per run.
    pub const SETUP: &str = "setup";
    /// Workload execution under the armed fault (including any
    /// checkpoint restore), per run.
    pub const EXEC: &str = "exec";
    /// Checkpoint-restore slice of [`EXEC`], recorded by resuming
    /// workloads (a nested sub-phase: excluded from [`TOP`]).
    pub const RESTORE: &str = "restore";
    /// Session teardown: fired-fault readback, guard drop, forensic
    /// trace take, per run.
    pub const TEARDOWN: &str = "teardown";
    /// Outcome classification against the golden output, per run.
    pub const CLASSIFY: &str = "classify";
    /// Campaign-monitor record (telemetry fan-out), per run.
    pub const RECORD: &str = "record";
    /// Driver-side scatter of worker stripes into index order, one
    /// sample per driven batch (runs on the calling thread, so it is
    /// *not* worker time, and is deposited directly rather than timed
    /// by a span, which would trace into a traced campaign).
    pub const COLLECT: &str = "collect";
    /// Whole stripe wall time, one sample per worker — the attribution
    /// denominator.
    pub const WORKER_WALL: &str = "worker_wall";
    /// Counter: runs fast-forwarded from a checkpoint.
    pub const RUNS_RESUMED: &str = "runs_resumed";
    /// Counter: runs executed from scratch.
    pub const RUNS_FROM_SCRATCH: &str = "runs_from_scratch";
    /// The non-overlapping per-worker phases whose sum a scaling report
    /// compares against [`WORKER_WALL`] for attribution coverage.
    /// [`RESTORE`] nests inside [`EXEC`] and [`COLLECT`] happens on the
    /// driver thread, so neither belongs here.
    pub const TOP: &[&str] = &[DRAW, SETUP, EXEC, TEARDOWN, CLASSIFY, RECORD];
}

/// A fault-injectable program under study.
///
/// `run` must be deterministic in the absence of faults (seed all
/// internal randomness) — Mask/SDC classification compares outputs for
/// equality. It is invoked concurrently from several threads, one run
/// per armed fault, and must route its architecturally meaningful values
/// through the [`crate::tap`] functions to be injectable.
///
/// Every run executes into a [`Workload::Workspace`]. Campaign drivers
/// keep one per worker thread for the whole campaign, so a warmed-up run
/// need not allocate.
/// Reuse must be unobservable: a used workspace gives the same tap
/// stream, error and output as a fresh one, even after a faulted,
/// panicked or aborted run — so every buffer is reset before its first
/// read.
///
/// A run may also resume after a checkpoint captured during the golden
/// run ([`Workload::run_capturing`]) — the *golden-prefix
/// fast-forward*. An injected run matches the golden run until its
/// fault fires, so for a fault at or beyond a checkpoint's tap count,
/// resuming reproduces the from-scratch run: same output, fired fault
/// and outcome. The resumed run must replay *exactly* the computation
/// after the capture point, re-executing no tap of the prefix (the
/// checkpoint's [`TapSnapshot`] stands in for those). Workloads that
/// capture nothing use [`NoCheckpoint`].
pub trait Workload: Sync {
    /// The program's observable output (e.g. the panorama images). The
    /// golden output is shared by reference across campaign worker
    /// threads, hence `Sync`; profiling clones it out of the workspace.
    type Output: PartialEq + Clone + Send + Sync + 'static;

    /// Reusable per-worker run state, output included. `Send` because
    /// the driver keeps each worker's workspace for the whole campaign
    /// and hands it to that worker's thread for every batch.
    type Workspace: Default + Send;

    /// Workload state at a capture boundary of the golden run.
    type Checkpoint: Checkpoint;

    /// Execute the program once into `ws` — from the start, or only the
    /// suffix after `from` — and return its output, which lives in the
    /// workspace.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when (possibly corrupted) state violates a
    /// machine- or library-level invariant: these become Crash and Hang
    /// outcomes.
    fn run<'w>(
        &self,
        ws: &'w mut Self::Workspace,
        from: Option<&Self::Checkpoint>,
    ) -> Result<&'w Self::Output, SimError>;

    /// Run from the start into `ws`, tap for tap as [`Workload::run`]
    /// does, while capturing a checkpoint every `every_k` workload-defined
    /// units (frames and composites, for the pipeline), in execution
    /// order. The default captures none.
    ///
    /// # Errors
    ///
    /// As for [`Workload::run`].
    fn run_capturing<'w>(
        &self,
        ws: &'w mut Self::Workspace,
        _every_k: usize,
    ) -> Result<(&'w Self::Output, Vec<Self::Checkpoint>), SimError> {
        Ok((self.run(ws, None)?, Vec::new()))
    }
}

/// A resumable state captured during the golden run by
/// [`Workload::run_capturing`].
pub trait Checkpoint: Send + Sync {
    /// The tap counters at the capture boundary.
    fn tap_snapshot(&self) -> &TapSnapshot;

    /// The forensic digest trace accumulated over the golden prefix up
    /// to the boundary, so a resumed run's recorder lands on the same
    /// per-stage digests a from-scratch run folds. The default (an empty
    /// trace) is correct for workloads without forensic instrumentation.
    fn digest_trace(&self) -> DigestTrace {
        DigestTrace::default()
    }
}

/// The checkpoint type of workloads that never capture one.
#[derive(Debug, Clone, Copy)]
pub enum NoCheckpoint {}

impl Checkpoint for NoCheckpoint {
    fn tap_snapshot(&self) -> &TapSnapshot {
        match *self {}
    }
}

/// When the golden profiler captures resumable checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointPolicy {
    /// No checkpoints: every injected run executes from scratch.
    #[default]
    Off,
    /// Capture a checkpoint every `k` workload-defined units (frames).
    EveryKFrames(usize),
}

impl CheckpointPolicy {
    /// The capture interval, if checkpointing is on (`k` floored at 1).
    pub fn interval(self) -> Option<usize> {
        match self {
            CheckpointPolicy::Off => None,
            CheckpointPolicy::EveryKFrames(k) => Some(k.max(1)),
        }
    }
}

/// Golden (error-free) run artifacts: reference output plus tap profile.
#[derive(Debug, Clone)]
pub struct GoldenRun<O> {
    /// The error-free output every injected run is compared against.
    pub output: O,
    /// Tap population and instruction counts: the session counters at
    /// the end of the golden run.
    pub profile: TapSnapshot,
    /// Function mask the profile was taken under (campaigns reuse it).
    pub mask: FuncMask,
    /// Per-stage digest trace of the golden run, recorded only by the
    /// `*_forensic` profilers. When present, campaigns run with a
    /// forensic recorder installed and attribute every completed
    /// injection against this trace.
    pub digests: Option<DigestTrace>,
}

/// Golden-run artifacts of a checkpoint-capturing profile: the usual
/// [`GoldenRun`] plus the chain of resumable checkpoints (in execution
/// order, so their eligible-tap counts are non-decreasing).
pub struct CheckpointedGolden<W: Workload> {
    /// The plain golden artifacts (usable with [`run_campaign`] too).
    pub golden: GoldenRun<W::Output>,
    /// Resumable mid-run checkpoints captured during profiling.
    pub checkpoints: Vec<W::Checkpoint>,
}

/// Profile the golden run with all functions eligible.
///
/// # Errors
///
/// Propagates a [`SimError`] if the supposedly error-free workload fails,
/// which indicates a workload bug.
pub fn profile_golden<W: Workload>(workload: &W) -> Result<GoldenRun<W::Output>, SimError> {
    profile_golden_masked(workload, FuncMask::all())
}

/// Profile the golden run with fault eligibility confined to `mask`
/// (used by the hot-function case study of Fig 11b).
///
/// # Errors
///
/// Propagates a [`SimError`] if the workload fails without a fault.
pub fn profile_golden_masked<W: Workload>(
    workload: &W,
    mask: FuncMask,
) -> Result<GoldenRun<W::Output>, SimError> {
    profile(workload, mask, None, false).map(|ck| ck.golden)
}

/// [`profile_golden`] with forensic digest recording: the returned
/// golden run carries the per-stage digest trace, which arms forensic
/// attribution in [`run_campaign`].
///
/// # Errors
///
/// Propagates a [`SimError`] if the workload fails without a fault.
pub fn profile_golden_forensic<W: Workload>(
    workload: &W,
) -> Result<GoldenRun<W::Output>, SimError> {
    profile(workload, FuncMask::all(), None, true).map(|ck| ck.golden)
}

/// Profile the golden run while capturing resumable checkpoints per
/// `policy`, with all functions eligible.
///
/// # Errors
///
/// Propagates a [`SimError`] if the workload fails without a fault.
pub fn profile_golden_checkpointed<W: Workload>(
    workload: &W,
    policy: CheckpointPolicy,
) -> Result<CheckpointedGolden<W>, SimError> {
    profile(workload, FuncMask::all(), policy.interval(), false)
}

/// [`profile_golden_checkpointed`] with forensic digest recording; the
/// captured checkpoints snapshot their prefix traces (via the
/// workload's capture sites), arming forensic attribution in
/// [`run_campaign_checkpointed`].
///
/// # Errors
///
/// Propagates a [`SimError`] if the workload fails without a fault.
pub fn profile_golden_checkpointed_forensic<W: Workload>(
    workload: &W,
    policy: CheckpointPolicy,
) -> Result<CheckpointedGolden<W>, SimError> {
    profile(workload, FuncMask::all(), policy.interval(), true)
}

/// The one golden profiler behind the public variants: a counting
/// session under `mask`, capturing checkpoints every `every_k` units if
/// set, recording (and announcing) the per-stage digest trace if
/// `forensic`.
fn profile<W: Workload>(
    workload: &W,
    mask: FuncMask,
    every_k: Option<usize>,
    forensic: bool,
) -> Result<CheckpointedGolden<W>, SimError> {
    let recorder = forensic.then(|| digest::record_from(DigestTrace::default()));
    let (output, checkpoints, profile) = {
        // Telemetry-only span bracketing the golden run in driver traces.
        let _stage = vs_telemetry::span("profile_golden");
        let mut ws = W::Workspace::default();
        let _guard = begin_golden(mask);
        let (output, checkpoints) = match every_k {
            Some(k) => workload.run_capturing(&mut ws, k)?,
            None => (workload.run(&mut ws, None)?, Vec::new()),
        };
        let profile = session::snapshot();
        vs_telemetry::emit(
            "golden_profile",
            &[
                ("gpr_taps", vs_telemetry::Value::U64(profile.gpr_taps)),
                ("fpr_taps", vs_telemetry::Value::U64(profile.fpr_taps)),
                (
                    "eligible_gpr",
                    vs_telemetry::Value::U64(profile.eligible_gpr),
                ),
                (
                    "eligible_fpr",
                    vs_telemetry::Value::U64(profile.eligible_fpr),
                ),
                ("instr_total", vs_telemetry::Value::U64(profile.instr.total)),
            ],
        );
        (output.clone(), checkpoints, profile)
    };
    let digests = recorder.map(|r| {
        let trace = digest::trace();
        drop(r);
        // One field per stage digest — `trace_check --forensics`
        // requires this event.
        let fields: Vec<(&str, vs_telemetry::Value)> = Stage::ALL
            .iter()
            .map(|&s| (s.name(), vs_telemetry::Value::U64(trace.digest(s))))
            .collect();
        vs_telemetry::emit("forensics_golden", &fields);
        trace
    });
    Ok(CheckpointedGolden {
        golden: GoldenRun {
            output,
            profile,
            mask,
            digests,
        },
        checkpoints,
    })
}

/// Begin the counting session of a golden run, with fault eligibility
/// confined to `mask`.
fn begin_golden(mask: FuncMask) -> session::SessionGuard {
    let guard = session::begin_profile();
    state::with(|s| s.mask_bits.set(mask.bits()));
    guard
}

/// The golden-prefix chain of a driver whose golden run carries none
/// (the pruned and compositional campaigns): re-run the golden run into
/// `ws` under `golden.mask`, capturing a checkpoint at every unit (k =
/// 1). The chain is kept only if the re-run reproduces `golden.output`
/// and `golden.profile` exactly, so it cannot move a record; otherwise it
/// is empty and every run starts from scratch. The re-run runs on the
/// calling thread, which, as for [`profile_golden`], must have no tap
/// session, with its observation context detached
/// ([`vs_telemetry::detach`]), so none of the caller's observers sees
/// it: a traced campaign streams the golden run's stage events once, and
/// the caller's digest trace folds nothing. Its buffers come from the
/// caller's heap, as the golden run's did. The grouped drivers attribute
/// nothing, so the checkpoints' digest traces go unused.
pub(crate) fn capture_chain<W: Workload>(
    workload: &W,
    golden: &GoldenRun<W::Output>,
    ws: &mut W::Workspace,
) -> Vec<W::Checkpoint> {
    let _detached = vs_telemetry::detach();
    let _guard = begin_golden(golden.mask);
    match workload.run_capturing(ws, 1) {
        Ok((output, chain))
            if *output == golden.output && session::snapshot() == golden.profile =>
        {
            chain
        }
        _ => Vec::new(),
    }
}

/// Outcome of one injected run — the paper's four classes, with crashes
/// split by cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Output identical to golden: the error was masked.
    Masked,
    /// Output differs from golden: silent data corruption.
    Sdc,
    /// Simulated segmentation fault (memory-access violation).
    CrashSegfault,
    /// Simulated abort (internal constraint violation).
    CrashAbort,
    /// Hang monitor tripped.
    Hang,
}

impl Outcome {
    /// Whether this outcome is a crash of either cause.
    pub fn is_crash(self) -> bool {
        matches!(self, Outcome::CrashSegfault | Outcome::CrashAbort)
    }

    /// The aggregate class this outcome collapses into (the two crash
    /// causes both map to [`crate::stats::OutcomeClass::Crash`]).
    pub fn class(self) -> crate::stats::OutcomeClass {
        match self {
            Outcome::Masked => crate::stats::OutcomeClass::Masked,
            Outcome::Sdc => crate::stats::OutcomeClass::Sdc,
            Outcome::CrashSegfault | Outcome::CrashAbort => crate::stats::OutcomeClass::Crash,
            Outcome::Hang => crate::stats::OutcomeClass::Hang,
        }
    }

    /// Short lowercase name used in reports. Delegates to
    /// [`crate::stats::OutcomeClass::name`] wherever the class name is
    /// exact, so outcome and class labels cannot drift apart; only the
    /// crash-cause split keeps its own strings.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::CrashSegfault => "crash_segfault",
            Outcome::CrashAbort => "crash_abort",
            other => other.class().name(),
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Record of one injected run.
///
/// Its [`identity`](Injection::identity) — index, spec, fired fault and
/// outcome — is what every campaign flavour, thread count, checkpoint
/// policy, SIMD level and observer promises to reproduce, and what every
/// record comparison compares; [`record_digest`] folds it into the
/// pinned stream digests. The retained SDC output and the forensic
/// record are extras that not every campaign keeps.
#[derive(Debug, Clone)]
pub struct Injection<O> {
    /// Position of this run in the campaign (stable across thread counts).
    pub index: usize,
    /// The armed fault.
    pub spec: FaultSpec,
    /// Where the fault actually landed, if it fired.
    pub fired: Option<FiredFault>,
    /// Classified outcome.
    pub outcome: Outcome,
    /// The corrupted output, retained for SDC-quality analysis when the
    /// outcome is [`Outcome::Sdc`] and the campaign keeps outputs.
    pub sdc_output: Option<O>,
    /// Digest trace and divergence attribution of this run, present
    /// only for completed runs (Masked/Sdc) of forensic campaigns — a
    /// crashed or hung run's trace stops at an arbitrary point and is
    /// discarded.
    pub forensics: Option<ForensicsRecord>,
}

impl<O> Injection<O> {
    /// The part of the record every campaign flavour reproduces:
    /// `(index, spec, fired, outcome)`, with the full [`FaultSpec`]
    /// (its site group included). Two record streams are the same
    /// streams when their identities are equal in order.
    pub fn identity(&self) -> (usize, FaultSpec, Option<FiredFault>, Outcome) {
        (self.index, self.spec, self.fired, self.outcome)
    }
}

/// Order-sensitive digest of a record stream: every record's
/// [`Injection::identity`] folded through [`mix64`], the stream digest
/// the record pins compare with their constants.
///
/// The digest reads the fields directly rather than formatting the
/// records: `Debug` and `Display` text is free to change while the
/// records it describes stay the same. It folds no site group, to keep
/// the pins' format: a grouped pilot always fires inside its group, and
/// `fired` records where it landed.
pub fn record_digest<O>(records: &[Injection<O>]) -> u64 {
    let mut h = mix64(records.len() as u64);
    let mut fold = |v: u64| h = mix64(h ^ v);
    for r in records {
        let (index, spec, fired, outcome) = r.identity();
        fold(index as u64);
        fold(match spec.class {
            RegClass::Gpr => 1,
            RegClass::Fpr => 2,
        });
        fold(spec.tap_index);
        fold(u64::from(spec.bit));
        match fired {
            None => fold(u64::MAX),
            Some(f) => {
                fold(f.func.index() as u64);
                fold(f.op.index() as u64);
                fold(u64::from(f.reg));
                fold(u64::from(f.bit));
                fold(f.before);
                fold(f.after);
            }
        }
        for b in outcome.name().bytes() {
            fold(u64::from(b));
        }
    }
    h
}

/// Campaign parameters. Construct with [`CampaignConfig::new`] and chain
/// the builder methods.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    pub(crate) class: RegClass,
    pub(crate) injections: usize,
    pub(crate) seed: u64,
    pub(crate) threads: usize,
    pub(crate) hang_factor: u64,
    pub(crate) keep_sdc_outputs: bool,
    pub(crate) checkpoint_policy: CheckpointPolicy,
}

impl CampaignConfig {
    /// A campaign of `injections` single-bit flips in `class` registers.
    pub fn new(class: RegClass, injections: usize) -> Self {
        CampaignConfig {
            class,
            injections,
            seed: 0,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            hang_factor: 16,
            keep_sdc_outputs: true,
            checkpoint_policy: CheckpointPolicy::Off,
        }
    }

    /// Seed for fault-site sampling (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads (default: available parallelism).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "campaign needs at least one thread");
        self.threads = threads;
        self
    }

    /// Hang budget as a multiple of the golden run's instruction count
    /// (default 16).
    pub fn hang_factor(mut self, factor: u64) -> Self {
        self.hang_factor = factor.max(2);
        self
    }

    /// Whether to retain corrupted outputs of SDC runs for quality
    /// analysis (default true; disable for memory-constrained sweeps).
    pub fn keep_sdc_outputs(mut self, keep: bool) -> Self {
        self.keep_sdc_outputs = keep;
        self
    }

    /// Golden-prefix checkpointing policy (default off). Only consulted
    /// by [`profile_golden_checkpointed`] / [`run_campaign_checkpointed`];
    /// the plain [`run_campaign`] always runs from scratch.
    pub fn checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint_policy = policy;
        self
    }

    /// Register class under test.
    pub fn class(&self) -> RegClass {
        self.class
    }

    /// Number of injections.
    pub fn injections(&self) -> usize {
        self.injections
    }

    /// The configured checkpointing policy.
    pub fn checkpointing(&self) -> CheckpointPolicy {
        self.checkpoint_policy
    }
}

/// Install (once) a panic hook that silences panics raised inside
/// injection runs — a corrupted index panicking in a slice access is an
/// *expected* crash outcome, not test noise.
fn install_quiet_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let in_injection = state::with(|s| s.in_injection.get());
            if !in_injection {
                previous(info);
            }
        }));
    });
}

/// Draw the fault spec for run `index` of a campaign. Depends only on
/// `(cfg.seed, cfg.class, sites, index)` — never on how many runs the
/// campaign will ultimately execute — so an early-stopped campaign's
/// records are an exact prefix of the fixed-budget campaign's records at
/// the same seed (the property `adaptive` builds on).
pub(crate) fn draw_spec(cfg: &CampaignConfig, sites: u64, index: usize) -> FaultSpec {
    let h = mix64(cfg.seed ^ mix64(index as u64 ^ 0x0121_7ec7_1011));
    let tap_index = mix64(h ^ 0x07a9_517e) % sites;
    let bit = (mix64(h ^ 0x0b17_f11b) % REG_BITS as u64) as u8;
    FaultSpec::new(cfg.class, tap_index, bit)
}

/// What every injected run of one campaign, batch or pilot loop shares.
pub(crate) struct Plan<'a, W: Workload> {
    pub workload: &'a W,
    pub golden: &'a GoldenRun<W::Output>,
    /// Resumable golden-prefix checkpoints, in execution order (empty:
    /// every run starts from scratch).
    pub checkpoints: &'a [W::Checkpoint],
    /// Hang budget as a multiple of the golden instruction count.
    pub hang_factor: u64,
    /// Worker threads (capped at the number of runs driven).
    pub threads: usize,
    /// Whether SDC runs keep a clone of their corrupted output.
    pub keep_sdc: bool,
    /// Golden digest trace to attribute every completed run against;
    /// `Some` records a digest trace per run, which slows each run.
    pub digests: Option<DigestTrace>,
    /// One workspace per worker, kept across [`Plan::drive`] calls so a
    /// batch starts warm (grown to the thread count on first use).
    pub workspaces: Mutex<Vec<W::Workspace>>,
    /// The calling thread's observers, captured once
    /// ([`vs_telemetry::capture`]): every worker arms its metrics from
    /// them, and the campaign monitor reports to their sink.
    pub observers: vs_telemetry::Handle,
}

impl<W: Workload> Plan<'_, W> {
    /// The campaign driver: execute runs `runs` across thread-striped
    /// workers, `draw(i)` giving run `i`'s fault, and return their
    /// records in index order. Worker `t` takes the `t`-th, `t +
    /// threads`-th, ... run into workspace `t`, so the records do not
    /// depend on the thread count. `monitor`, if any, records every
    /// classified run.
    ///
    /// Every worker arms itself from the plan's captured observers
    /// ([`vs_telemetry::Handle::arm`]): with a metrics registry
    /// captured, every phase and stage span it closes records lock-free,
    /// and it deposits its stripe's histograms into the registry under
    /// its worker id once, at stripe end; the driver itself deposits the
    /// scatter time under id `threads`. With no registry captured the
    /// arming is skipped and no span inside the runs reads the clock.
    pub(crate) fn drive(
        &self,
        runs: Range<usize>,
        draw: impl Fn(usize) -> FaultSpec + Sync,
        monitor: Option<&CampaignMonitor>,
    ) -> Vec<Injection<W::Output>> {
        install_quiet_hook();
        let budget = self
            .golden
            .profile
            .instr
            .total
            .saturating_mul(self.hang_factor.max(2))
            .saturating_add(1_000_000);
        let threads = self.threads.clamp(1, runs.len().max(1));
        let draw = &draw;
        let mut workspaces = self
            .workspaces
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if workspaces.len() < threads {
            workspaces.resize_with(threads, Default::default);
        }
        let stripes: Vec<Vec<Injection<W::Output>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = workspaces[..threads]
                .iter_mut()
                .enumerate()
                .map(|(t, ws)| {
                    let stripe = (runs.start + t..runs.end).step_by(threads);
                    scope.spawn(move || {
                        let _armed = self.observers.arm(t);
                        // Declared after the arming, so it closes, and
                        // records, before the deposit.
                        let _wall = span(phase::WORKER_WALL);
                        stripe
                            .map(|i| {
                                let draw_span = span(phase::DRAW);
                                let spec = draw(i);
                                let from = self.resume_point(&spec);
                                drop(draw_span);
                                let rec = self.execute(from, spec, budget, i, ws);
                                if let Some(m) = monitor {
                                    m.record(&rec);
                                }
                                rec
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked"))
                .collect()
        });
        drop(workspaces);
        // Interleave the stripes back into index order: run `j` is the
        // next record of stripe `j % threads`.
        let registry = self.observers.registry.as_deref();
        let scatter_start = registry.map(|_| std::time::Instant::now());
        let mut stripes: Vec<_> = stripes.into_iter().map(Vec::into_iter).collect();
        let records = (0..runs.len())
            .map(|j| stripes[j % threads].next().expect("stripe holds its runs"))
            .collect();
        if let (Some(reg), Some(t0)) = (registry, scatter_start) {
            let mut driver = metrics::WorkerMetrics::default();
            driver.record_ns(phase::COLLECT, t0.elapsed().as_nanos() as u64);
            reg.absorb(threads, driver);
        }
        records
    }

    /// The latest checkpoint whose prefix ends at or before `spec`'s
    /// tap, counted in the spec's own index space (its group's taps for
    /// a group-confined spec), or `None` when the run must start from
    /// scratch.
    fn resume_point(&self, spec: &FaultSpec) -> Option<&W::Checkpoint> {
        let usable = self
            .checkpoints
            .partition_point(|c| c.tap_snapshot().consumed(spec) <= spec.tap_index);
        usable.checked_sub(1).map(|j| &self.checkpoints[j])
    }

    /// The injection executor, the only place a run is armed, caught and
    /// classified: run the workload with `spec` armed into `ws`,
    /// resuming after `from` if set, and classify the outcome against
    /// the golden output. Exactness rests on the [`Workload`] contract:
    /// a resumed run skips a prefix identical to the golden run's, and
    /// workspace reuse never changes the tap stream or the output.
    ///
    /// Classification compares the output *borrowed* from the
    /// workspace; only retained SDC outputs pay for a clone.
    fn execute(
        &self,
        from: Option<&W::Checkpoint>,
        spec: FaultSpec,
        budget: u64,
        index: usize,
        ws: &mut W::Workspace,
    ) -> Injection<W::Output> {
        metrics::add(
            if from.is_some() {
                phase::RUNS_RESUMED
            } else {
                phase::RUNS_FROM_SCRATCH
            },
            1,
        );
        let setup = span(phase::SETUP);
        let recorder = self.digests.map(|_| {
            digest::record_from(from.map_or_else(DigestTrace::default, |c| c.digest_trace()))
        });
        let mask = self.golden.mask;
        let guard = match from {
            Some(c) => session::begin_injection_at(spec, mask, budget, c.tap_snapshot()),
            None => session::begin_injection(spec, mask, budget),
        };
        drop(setup);
        let exec = span(phase::EXEC);
        state::with(|s| s.in_injection.set(true));
        let result = panic::catch_unwind(AssertUnwindSafe(move || {
            // Moving the workspace borrow out of the closure lets the
            // output reference outlive the call.
            let ws = ws;
            self.workload.run(ws, from)
        }));
        state::with(|s| s.in_injection.set(false));
        drop(exec);
        let teardown = span(phase::TEARDOWN);
        let fired = session::fired();
        drop(guard);
        let trace = recorder.map(|r| {
            let t = digest::trace();
            drop(r);
            t
        });
        drop(teardown);
        let _classify = span(phase::CLASSIFY);
        let (outcome, sdc_output) = match result {
            Err(_) | Ok(Err(SimError::Segfault)) => (Outcome::CrashSegfault, None),
            Ok(Err(SimError::Abort)) => (Outcome::CrashAbort, None),
            Ok(Err(SimError::Hang)) => (Outcome::Hang, None),
            Ok(Ok(out)) if *out == self.golden.output => (Outcome::Masked, None),
            Ok(Ok(out)) => (Outcome::Sdc, self.keep_sdc.then(|| out.clone())),
        };
        // Only completed runs carry a meaningful end-of-run trace.
        let forensics = match (self.digests, trace) {
            (Some(g), Some(t)) if matches!(outcome, Outcome::Masked | Outcome::Sdc) => {
                Some(ForensicsRecord {
                    trace: t,
                    attribution: Attribution::between(&g, &t),
                })
            }
            _ => None,
        };
        Injection {
            index,
            spec,
            fired,
            outcome,
            sdc_output,
            forensics,
        }
    }
}

/// The uniform-sampling campaign body behind [`run_campaign`],
/// [`run_campaign_checkpointed`] and
/// [`crate::adaptive::run_adaptive_checkpointed`]: draw run `i`'s fault
/// with [`draw_spec`], drive the runs in batches of `batch`, and stop
/// once `stop` holds over the records so far or `cfg.injections` runs
/// are done.
///
/// # Panics
///
/// Panics if the golden profile recorded zero eligible taps for the
/// campaign's register class — there would be nowhere to inject.
pub(crate) fn run_batches<W: Workload>(
    workload: &W,
    golden: &GoldenRun<W::Output>,
    checkpoints: &[W::Checkpoint],
    cfg: &CampaignConfig,
    batch: usize,
    mut stop: impl FnMut(&[Injection<W::Output>]) -> bool,
) -> Vec<Injection<W::Output>> {
    let sites = golden.profile.eligible(cfg.class);
    assert!(
        sites > 0,
        "no eligible {} taps recorded in the golden profile",
        cfg.class
    );
    // Telemetry-only span on the driver thread; workers run sink-free.
    let _stage = vs_telemetry::span("campaign");
    let plan = Plan {
        workload,
        golden,
        checkpoints,
        hang_factor: cfg.hang_factor,
        threads: cfg.threads,
        keep_sdc: cfg.keep_sdc_outputs,
        digests: golden.digests,
        workspaces: Mutex::default(),
        observers: vs_telemetry::capture(),
    };
    let monitor = CampaignMonitor::new(
        cfg,
        sites,
        checkpoints.len(),
        golden.digests.is_some(),
        plan.observers.sink.as_ref(),
    );
    let mut records = Vec::new();
    while records.len() < cfg.injections {
        let start = records.len();
        let end = cfg.injections.min(start + batch.max(1));
        records.extend(plan.drive(start..end, |i| draw_spec(cfg, sites, i), Some(&monitor)));
        if stop(&records) {
            break;
        }
    }
    monitor.finish();
    records
}

/// Run a fault-injection campaign against `workload`, every run from
/// scratch.
///
/// Returns one [`Injection`] record per run, ordered by run index
/// (deterministic for a given seed, independent of thread count).
///
/// # Panics
///
/// Panics if the golden profile recorded zero eligible taps for the
/// campaign's register class — there would be nowhere to inject.
pub fn run_campaign<W: Workload>(
    workload: &W,
    golden: &GoldenRun<W::Output>,
    cfg: &CampaignConfig,
) -> Vec<Injection<W::Output>> {
    run_batches(workload, golden, &[], cfg, cfg.injections, |_| false)
}

/// Run a fault-injection campaign with golden-prefix fast-forward: each
/// injected run starts from the latest checkpoint whose eligible-tap
/// count does not exceed the drawn fault's tap index (or from scratch if
/// none qualifies).
///
/// Classification is bit-for-bit identical to [`run_campaign`] on the
/// same seed — same specs, same outcomes, same fired faults — because
/// the skipped prefix of every run is identical to the golden run.
///
/// # Panics
///
/// Panics if the golden profile recorded zero eligible taps for the
/// campaign's register class.
pub fn run_campaign_checkpointed<W: Workload>(
    workload: &W,
    golden: &CheckpointedGolden<W>,
    cfg: &CampaignConfig,
) -> Vec<Injection<W::Output>> {
    run_batches(
        workload,
        &golden.golden,
        &golden.checkpoints,
        cfg,
        cfg.injections,
        |_| false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{FuncId, OpClass};
    use crate::tap;

    /// Toy workload with address, control, data and float taps; rich
    /// enough to produce every outcome class.
    struct Toy;

    /// Checkpoint for [`Toy`]: integer-loop state at a capture boundary.
    struct ToyCheckpoint {
        i: usize,
        bound: usize,
        acc: u64,
        taps: TapSnapshot,
        trace: DigestTrace,
    }

    impl Checkpoint for ToyCheckpoint {
        fn tap_snapshot(&self) -> &TapSnapshot {
            &self.taps
        }

        fn digest_trace(&self) -> DigestTrace {
            self.trace
        }
    }

    impl Toy {
        /// The program: from the start or resuming after `from`,
        /// capturing a checkpoint every `k` loop iterations into
        /// `capture` if given.
        fn exec(
            &self,
            from: Option<&ToyCheckpoint>,
            mut capture: Option<(usize, &mut Vec<ToyCheckpoint>)>,
        ) -> Result<(u64, u64), SimError> {
            let _f = tap::scope(FuncId::Other);
            let data: Vec<u64> = (0..64).collect();
            let (mut i, bound, mut acc) = match from {
                Some(c) => (c.i, c.bound, c.acc),
                None => (0, tap::ctl(data.len()), 0),
            };
            while i < bound {
                if let Some((k, checkpoints)) = capture.as_mut() {
                    if i > 0 && i.is_multiple_of(*k) {
                        checkpoints.push(ToyCheckpoint {
                            i,
                            bound,
                            acc,
                            taps: session::snapshot(),
                            trace: digest::trace(),
                        });
                    }
                }
                tap::work(OpClass::Control, 1)?;
                let idx = tap::addr(i);
                let v = *data.get(idx).ok_or(SimError::Segfault)?;
                acc = acc.wrapping_add(tap::gpr(v));
                // Dead state: a scratch value that never reaches the
                // output — faults landing here are always masked.
                let _scratch = tap::gpr(v.wrapping_mul(3));
                // Forensic digest of the live integer state (two toy
                // "stages" so attribution has an order to resolve).
                digest::record(Stage::Match, acc);
                i += 1;
            }
            let mut facc = 0.0f64;
            for k in 0..32 {
                tap::work(OpClass::Float, 1)?;
                let x = tap::fpr(k as f64 * 0.5);
                // Saturating narrow, as the pipeline's float->u8 step does.
                facc += x.clamp(0.0, 255.0).floor();
            }
            digest::record(Stage::Summary, facc.to_bits());
            Ok((acc, facc as u64))
        }
    }

    impl Workload for Toy {
        type Output = (u64, u64);
        type Workspace = Option<(u64, u64)>;
        type Checkpoint = ToyCheckpoint;

        fn run<'w>(
            &self,
            ws: &'w mut Self::Workspace,
            from: Option<&ToyCheckpoint>,
        ) -> Result<&'w (u64, u64), SimError> {
            Ok(ws.insert(self.exec(from, None)?))
        }

        fn run_capturing<'w>(
            &self,
            ws: &'w mut Self::Workspace,
            every_k: usize,
        ) -> Result<(&'w (u64, u64), Vec<ToyCheckpoint>), SimError> {
            let mut checkpoints = Vec::new();
            let out = self.exec(None, Some((every_k, &mut checkpoints)))?;
            Ok((ws.insert(out), checkpoints))
        }
    }

    #[test]
    fn golden_profile_counts_sites() {
        let g = profile_golden(&Toy).unwrap();
        assert_eq!(g.profile.gpr_taps, 1 + 64 * 3);
        assert_eq!(g.profile.fpr_taps, 32);
        assert_eq!(g.profile.eligible(RegClass::Gpr), g.profile.eligible_gpr);
        assert_eq!(g.output, Toy.exec(None, None).unwrap());
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let g = profile_golden(&Toy).unwrap();
        let [a, b] = [1, 4].map(|threads| {
            let cfg = CampaignConfig::new(RegClass::Gpr, 64).seed(11);
            let recs = run_campaign(&Toy, &g, &cfg.threads(threads));
            recs.iter().map(Injection::identity).collect::<Vec<_>>()
        });
        assert_eq!(a, b);
    }

    #[test]
    fn gpr_campaign_produces_crashes_and_masks() {
        let g = profile_golden(&Toy).unwrap();
        let cfg = CampaignConfig::new(RegClass::Gpr, 300).seed(3).threads(2);
        let recs = run_campaign(&Toy, &g, &cfg);
        assert_eq!(recs.len(), 300);
        let crashes = recs.iter().filter(|r| r.outcome.is_crash()).count();
        let masked = recs.iter().filter(|r| r.outcome == Outcome::Masked).count();
        assert!(crashes > 0, "address faults must produce some crashes");
        assert!(masked > 0, "low bits of control values must mask sometimes");
        // Every fired fault must be recorded.
        for r in &recs {
            if r.outcome != Outcome::Masked {
                assert!(
                    r.fired.is_some(),
                    "non-masked outcome without a fired fault"
                );
            }
        }
    }

    #[test]
    fn fpr_campaign_is_mostly_masked_or_sdc_never_crashing() {
        let g = profile_golden(&Toy).unwrap();
        let cfg = CampaignConfig::new(RegClass::Fpr, 200).seed(5).threads(2);
        let recs = run_campaign(&Toy, &g, &cfg);
        assert!(recs.iter().all(|r| !r.outcome.is_crash()));
        assert!(recs.iter().any(|r| r.outcome == Outcome::Masked));
    }

    #[test]
    fn sdc_outputs_are_retained_when_requested() {
        let g = profile_golden(&Toy).unwrap();
        let cfg = CampaignConfig::new(RegClass::Gpr, 400).seed(9).threads(2);
        let recs = run_campaign(&Toy, &g, &cfg);
        for r in recs.iter().filter(|r| r.outcome == Outcome::Sdc) {
            let out = r.sdc_output.as_ref().expect("sdc output retained");
            assert_ne!(*out, g.output);
        }
    }

    #[test]
    fn campaign_without_sdc_retention_drops_outputs() {
        let g = profile_golden(&Toy).unwrap();
        let cfg = CampaignConfig::new(RegClass::Gpr, 100)
            .seed(9)
            .threads(2)
            .keep_sdc_outputs(false);
        let recs = run_campaign(&Toy, &g, &cfg);
        assert!(recs.iter().all(|r| r.sdc_output.is_none()));
    }

    #[test]
    fn checkpointed_profile_matches_plain_profile() {
        let plain = profile_golden(&Toy).unwrap();
        let ck = profile_golden_checkpointed(&Toy, CheckpointPolicy::EveryKFrames(10)).unwrap();
        assert_eq!(ck.golden.output, plain.output);
        assert_eq!(ck.golden.profile, plain.profile);
        assert_eq!(ck.checkpoints.len(), 6, "64 iterations / 10 (skipping i=0)");
        // Eligible counts must be non-decreasing along the chain.
        let counts: Vec<u64> = ck
            .checkpoints
            .iter()
            .map(|c| c.taps.eligible(RegClass::Gpr))
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn checkpoint_policy_off_captures_nothing() {
        let ck = profile_golden_checkpointed(&Toy, CheckpointPolicy::Off).unwrap();
        assert!(ck.checkpoints.is_empty());
        assert_eq!(ck.golden.profile, profile_golden(&Toy).unwrap().profile);
    }

    #[test]
    fn checkpointed_campaign_is_outcome_identical() {
        let plain = profile_golden(&Toy).unwrap();
        let ck = profile_golden_checkpointed(&Toy, CheckpointPolicy::EveryKFrames(7)).unwrap();
        for class in [RegClass::Gpr, RegClass::Fpr] {
            let reference = run_campaign(
                &Toy,
                &plain,
                &CampaignConfig::new(class, 150).seed(21).threads(2),
            );
            for threads in [1, 4] {
                let cfg = CampaignConfig::new(class, 150)
                    .seed(21)
                    .threads(threads)
                    .checkpoint_policy(CheckpointPolicy::EveryKFrames(7));
                let fast = run_campaign_checkpointed(&Toy, &ck, &cfg);
                let [a, b] = [&reference, &fast]
                    .map(|recs| recs.iter().map(Injection::identity).collect::<Vec<_>>());
                assert_eq!(a, b, "class {class} threads {threads}");
            }
        }
    }

    /// Group-confined pilots resume from the latest checkpoint whose
    /// count of *their group's* taps lies at or before their tap, and
    /// replay the from-scratch records exactly: one pilot stream per
    /// populated group of Toy, at 1 and 4 threads.
    #[test]
    fn grouped_pilots_resume_by_group_prefix() {
        let ck = profile_golden_checkpointed(&Toy, CheckpointPolicy::EveryKFrames(5)).unwrap();
        let groups = crate::pruning::site_groups(&ck.golden);
        assert_eq!(groups.len(), 3, "Toy's data, address and control taps");
        let plan = |checkpoints, threads| Plan {
            workload: &Toy,
            golden: &ck.golden,
            checkpoints,
            hang_factor: 16,
            threads,
            keep_sdc: false,
            digests: None,
            workspaces: Mutex::default(),
            observers: vs_telemetry::capture(),
        };
        let mut resumed_somewhere = false;
        for group in &groups {
            let draw = |i: usize| group.pilot(crate::mix64(0x9e0 ^ i as u64));
            let scratch = plan(&[], 1).drive(0..60, draw, None);
            // Pilots whose group tap lies at or after the first
            // checkpoint's group count must resume.
            let resumable = (0..60)
                .filter(|&i| {
                    let spec = draw(i);
                    spec.tap_index >= ck.checkpoints[0].taps.consumed(&spec)
                })
                .count() as u64;
            resumed_somewhere |= resumable > 0;
            for threads in [1, 4] {
                let reg = std::sync::Arc::new(metrics::MetricsRegistry::new());
                let fast = {
                    let _g = metrics::install(reg.clone());
                    plan(&ck.checkpoints, threads).drive(0..60, draw, None)
                };
                let [want, got] = [&scratch, &fast]
                    .map(|recs| recs.iter().map(Injection::identity).collect::<Vec<_>>());
                assert_eq!(
                    want, got,
                    "{:?}/{:?} at {threads} threads",
                    group.func, group.op
                );
                let m = reg.merged();
                assert_eq!(m.counter(phase::RUNS_RESUMED), resumable);
                assert_eq!(m.counter(phase::RUNS_FROM_SCRATCH), 60 - resumable);
            }
        }
        assert!(resumed_somewhere);
    }

    /// A workload whose only taps are loop bounds: corrupting them upward
    /// must trip the hang monitor.
    struct Spinner;

    impl Workload for Spinner {
        type Output = u64;
        type Workspace = Option<u64>;
        type Checkpoint = NoCheckpoint;

        fn run<'w>(
            &self,
            ws: &'w mut Option<u64>,
            _from: Option<&NoCheckpoint>,
        ) -> Result<&'w u64, SimError> {
            let _f = tap::scope(FuncId::Other);
            let bound = tap::ctl(16);
            let mut acc = 0u64;
            let mut i = 0usize;
            while i < bound {
                tap::work(OpClass::Control, 1)?;
                acc = acc.wrapping_add(1);
                i += 1;
            }
            Ok(ws.insert(acc))
        }
    }

    /// Zero perturbation at the Toy layer: every subset of the
    /// observation capabilities — a trace sink, a metrics registry,
    /// forensic digests — leaves the golden profile and the record
    /// identities of scratch and checkpointed campaigns equal to the
    /// unobserved campaign's, while each capability observes exactly its
    /// share: the sink one `injection` event per run with the unobserved
    /// outcome and a final rates snapshot whose Wilson bounds bracket the
    /// rates, the registry one `exec` sample per run, and forensics a
    /// payload on every completed run only.
    /// Scratch campaigns run on 2 threads, checkpointed ones on 4.
    #[test]
    fn observation_does_not_perturb_campaigns() {
        use crate::stats::{outcome_rates, OutcomeClass};
        use std::sync::Arc;
        let policy = CheckpointPolicy::EveryKFrames(9);
        let plain = profile(&Toy, FuncMask::all(), policy.interval(), false).unwrap();
        for class in [RegClass::Gpr, RegClass::Fpr] {
            let scratch = CampaignConfig::new(class, 120).seed(17).threads(2);
            let quiet = run_campaign(&Toy, &plain.golden, &scratch);
            let rates = outcome_rates(&quiet);
            // Every subset of {trace, metrics, forensics}.
            for caps in 0..8 {
                let (trace, metered, forensic) = (caps & 1 != 0, caps & 2 != 0, caps & 4 != 0);
                for checkpointed in [false, true] {
                    let cell = format!("{class} {trace}/{metered}/{forensic}/{checkpointed}");
                    let cfg = if checkpointed {
                        scratch.clone().threads(4).checkpoint_policy(policy)
                    } else {
                        scratch.clone()
                    };
                    let sink = Arc::new(vs_telemetry::MemorySink::new());
                    let reg = Arc::new(metrics::MetricsRegistry::new());
                    let recs = {
                        let _s = trace.then(|| vs_telemetry::install(sink.clone()));
                        let _m = metered.then(|| metrics::install(reg.clone()));
                        let ck =
                            profile(&Toy, FuncMask::all(), policy.interval(), forensic).unwrap();
                        assert_eq!(ck.golden.profile, plain.golden.profile, "{cell}");
                        assert_eq!(ck.golden.output, plain.golden.output, "{cell}");
                        let counts = ck
                            .golden
                            .digests
                            .map(|t| (t.count(Stage::Match), t.count(Stage::Summary)));
                        assert_eq!(counts, forensic.then_some((64, 1)), "{cell}");
                        if checkpointed {
                            run_campaign_checkpointed(&Toy, &ck, &cfg)
                        } else {
                            run_campaign(&Toy, &ck.golden, &cfg)
                        }
                    };
                    let [want, got] = [&quiet, &recs]
                        .map(|recs| recs.iter().map(Injection::identity).collect::<Vec<_>>());
                    assert_eq!(want, got, "{cell}");
                    for r in &recs {
                        let completed = matches!(r.outcome, Outcome::Masked | Outcome::Sdc);
                        assert_eq!(r.forensics.is_some(), forensic && completed, "{cell}");
                    }
                    let exec = reg.merged().histogram(phase::EXEC).map_or(0, |h| h.count());
                    assert_eq!(exec, if metered { 120 } else { 0 }, "{cell}");
                    if !trace {
                        assert!(sink.is_empty(), "{cell}");
                        continue;
                    }
                    assert_eq!(sink.count("golden_profile"), 1, "{cell}");
                    assert_eq!(sink.count("forensics_golden"), usize::from(forensic));
                    assert!(sink.count("campaign_progress") >= 1, "{cell}");
                    let events = sink.events();
                    let named = |name: &'static str| events.iter().filter(move |e| e.name == name);
                    let starts: Vec<_> = named("campaign_start").collect();
                    // 64 iterations, a checkpoint every 9.
                    let (checkpoints, every) = if checkpointed { (7, 9) } else { (0, 0) };
                    assert_eq!(starts.len(), 1, "{cell}");
                    assert_eq!(starts[0].u64("checkpoints"), Some(checkpoints), "{cell}");
                    assert_eq!(starts[0].u64("ckpt_interval"), Some(every), "{cell}");
                    let mut seen: Vec<(u64, &str)> = named("injection")
                        .map(|e| (e.u64("index").unwrap(), e.str("outcome").unwrap()))
                        .collect();
                    seen.sort_unstable();
                    let outcomes = quiet.iter().map(|r| r.outcome.name());
                    let expected: Vec<(u64, &str)> = (0u64..).zip(outcomes).collect();
                    assert_eq!(seen, expected, "{cell}");
                    let done: Vec<_> = named("campaign_done").collect();
                    assert_eq!(done.len(), 1, "{cell}");
                    assert_eq!(done[0].u64("done"), Some(120), "{cell}");
                    assert_eq!(done[0].f64("masked"), Some(rates.masked), "{cell}");
                    let (lo, hi) = rates.wilson_interval(OutcomeClass::Masked);
                    assert_eq!(done[0].f64("masked_lo"), Some(lo), "{cell}");
                    assert_eq!(done[0].f64("masked_hi"), Some(hi), "{cell}");
                    assert!(lo <= rates.masked && rates.masked <= hi);
                }
            }
        }
    }

    /// Attribution resolves stages: every SDC's trace diverges
    /// somewhere, and Toy's masked runs never diverge (its integer
    /// state is cumulative — corruption either reaches the output or
    /// never crossed a stage boundary), so they attribute through the
    /// fired fault's function.
    #[test]
    fn forensic_attribution_resolves_stages() {
        let golden = profile_golden_forensic(&Toy).unwrap();
        let cfg = CampaignConfig::new(RegClass::Gpr, 300).seed(3).threads(2);
        let recs = run_campaign(&Toy, &golden, &cfg);
        let mut sdcs = 0;
        for r in &recs {
            match r.outcome {
                Outcome::Sdc => {
                    sdcs += 1;
                    let f = r.forensics.as_ref().unwrap();
                    assert!(
                        f.attribution.first_divergence.is_some(),
                        "SDC with no digest divergence at index {}",
                        r.index
                    );
                    assert!(f.attribution.depth >= 1);
                }
                Outcome::Masked => {
                    let f = r.forensics.as_ref().unwrap();
                    assert_eq!(f.attribution.first_divergence, None);
                    assert_eq!(f.attribution.depth, 0);
                }
                _ => {}
            }
        }
        assert!(sdcs > 0, "campaign produced no SDCs to attribute");
        let matrix = crate::forensics::PropagationMatrix::from_records(&recs);
        assert_eq!(matrix.n(), recs.len());
    }

    /// Fast-forwarded forensic runs must fold the *same* digest traces
    /// as from-scratch runs: the checkpoint's seeded prefix trace plus
    /// the replayed suffix reproduces the full fold exactly.
    #[test]
    fn forensic_checkpointed_campaign_matches_scratch_traces() {
        let golden = profile_golden_forensic(&Toy).unwrap();
        let ck =
            profile_golden_checkpointed_forensic(&Toy, CheckpointPolicy::EveryKFrames(7)).unwrap();
        assert_eq!(
            ck.golden.digests, golden.digests,
            "capturing profile must fold the same digests"
        );
        for class in [RegClass::Gpr, RegClass::Fpr] {
            let scratch = run_campaign(
                &Toy,
                &golden,
                &CampaignConfig::new(class, 150).seed(21).threads(2),
            );
            for threads in [1, 4] {
                let cfg = CampaignConfig::new(class, 150)
                    .seed(21)
                    .threads(threads)
                    .checkpoint_policy(CheckpointPolicy::EveryKFrames(7));
                let fast = run_campaign_checkpointed(&Toy, &ck, &cfg);
                assert_eq!(scratch.len(), fast.len());
                for (a, b) in scratch.iter().zip(&fast) {
                    assert_eq!(a.identity(), b.identity());
                    assert_eq!(
                        a.forensics, b.forensics,
                        "digest trace not resume-exact at index {} ({class}, {threads} threads)",
                        a.index
                    );
                }
            }
        }
    }

    /// Forensic campaigns annotate their injection telemetry with
    /// attribution fields; SDC events must be stage-resolved.
    #[test]
    fn forensic_campaign_telemetry_carries_attribution() {
        let sink = std::sync::Arc::new(vs_telemetry::MemorySink::new());
        let _g = vs_telemetry::install(sink.clone());
        let golden = profile_golden_forensic(&Toy).unwrap();
        let cfg = CampaignConfig::new(RegClass::Gpr, 80).seed(13).threads(2);
        let _recs = run_campaign(&Toy, &golden, &cfg);
        assert_eq!(sink.count("forensics_golden"), 1);
        let events = sink.events();
        let injections: Vec<_> = events.iter().filter(|e| e.name == "injection").collect();
        assert_eq!(injections.len(), cfg.injections());
        for e in injections {
            let attr = e
                .str("attr_stage")
                .expect("forensic injection events carry attr_stage");
            if e.str("outcome") == Some("sdc") {
                assert_ne!(attr, "unknown", "SDC must be stage-resolved");
                assert!(e.u64("depth").unwrap() >= 1);
            }
        }
    }

    /// The phase histograms fully attribute the campaign: one `exec`
    /// sample per run, one `worker_wall` sample per worker, resume
    /// counters summing to the run count, the top-level phase sums
    /// bounded by (and dominating) the worker wall time, and the
    /// driver's scatter deposited under id `threads`.
    #[test]
    fn metrics_registry_attributes_worker_time() {
        let ck = profile_golden_checkpointed(&Toy, CheckpointPolicy::EveryKFrames(7)).unwrap();
        let n = 60usize;
        let threads = 2usize;
        let cfg = CampaignConfig::new(RegClass::Gpr, n)
            .seed(21)
            .threads(threads)
            .checkpoint_policy(CheckpointPolicy::EveryKFrames(7));
        let reg = std::sync::Arc::new(metrics::MetricsRegistry::new());
        {
            let _g = metrics::install(reg.clone());
            run_campaign_checkpointed(&Toy, &ck, &cfg);
        }
        let merged = reg.merged();
        for name in [
            phase::DRAW,
            phase::SETUP,
            phase::EXEC,
            phase::TEARDOWN,
            phase::CLASSIFY,
        ] {
            let h = merged
                .histogram(name)
                .unwrap_or_else(|| panic!("{name} histogram missing"));
            assert_eq!(h.count(), n as u64, "{name} samples");
        }
        let wall = merged.histogram(phase::WORKER_WALL).expect("worker_wall");
        assert_eq!(wall.count(), threads as u64);
        assert_eq!(
            merged.counter(phase::RUNS_RESUMED) + merged.counter(phase::RUNS_FROM_SCRATCH),
            n as u64
        );
        // Attribution: named phases nest inside the stripe wall.
        let attributed: u64 = phase::TOP
            .iter()
            .filter_map(|p| merged.histogram(p))
            .map(|h| h.sum())
            .sum();
        assert!(attributed > 0);
        assert!(
            attributed <= wall.sum(),
            "phases cannot exceed the wall they nest in"
        );
        let per = reg.per_worker();
        assert_eq!(per.len(), threads + 1);
        assert_eq!(per[threads].0, threads);
        assert!(per[threads].1.histogram(phase::COLLECT).is_some());
    }

    #[test]
    fn corrupted_loop_bounds_hang() {
        let g = profile_golden(&Spinner).unwrap();
        let plan = Plan {
            workload: &Spinner,
            golden: &g,
            checkpoints: &[],
            hang_factor: 16,
            threads: 1,
            keep_sdc: true,
            digests: None,
            workspaces: Mutex::default(),
            observers: vs_telemetry::capture(),
        };
        // Flip a high bit of the single control tap: guaranteed huge bound.
        let recs = plan.drive(0..1, |_| FaultSpec::new(RegClass::Gpr, 0, 40), None);
        assert_eq!(recs[0].outcome, Outcome::Hang);
    }
}
