//! The zero-perturbation check of the observation context on the real
//! workload. `telemetry_equivalence`, `metrics_equivalence` and
//! `forensics_equivalence` each run cells of one matrix — capabilities
//! {trace, metrics, forensics, all} × flavour {scratch, checkpointed
//! k = 2, composed} — and every cell runs at 1 and 4 threads, in both
//! register classes where the flavour draws from both.
//!
//! A cell profiles the golden run and drives a campaign with its
//! capabilities installed on the calling thread, then compares the
//! record identities (`Injection::identity`) with the unobserved
//! ("none") campaign's: a scratch campaign for the scratch and
//! checkpointed flavours, a cold composed campaign for the composed one. A divergence means an
//! observer leaked into the tap stream. Each capability must also have
//! observed its share:
//!
//! * trace — a JSONL sink: the streamed trace parses, its span tree is
//!   well-formed, a campaign announces itself once with one `injection`
//!   event per run, and every event stamped with a thread id comes from
//!   the calling thread, so campaign workers emit no stage events;
//! * metrics — a registry: one `exec` sample and one resumed-or-scratch
//!   count per run, the top-level phases nest inside worker wall time,
//!   and the injected runs are timed stage by stage: the stage spans'
//!   time nests inside `exec`, and scratch runs time every stage;
//! * forensics — a forensic golden run and a digest trace recording on
//!   the calling thread: every completed run carries the attribution an
//!   unobserved forensic scratch campaign gives it (so resumed runs fold
//!   the digests of scratch runs), and the campaign leaves the caller's
//!   trace empty.
//!
//! No flavour observes more than its one golden run: the trace holds one
//! `frame` event per input frame, and a composed campaign's re-run of
//! the golden run, which captures its checkpoint chain, is unobserved.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use video_summarization::prelude::*;
use vs_core::workloads::VsWorkload;
use vs_fault::campaign::{phase, CheckpointPolicy, GoldenRun, Injection};
use vs_fault::compose::{self, CampaignCache, ComposeConfig};
use vs_fault::forensics::attributed_stage;
use vs_telemetry::digest::{self, DigestTrace, Stage};
use vs_telemetry::metrics::{self, MetricsRegistry};
use vs_telemetry::{JsonlSink, OwnedEvent};

/// The observers a cell installs around its observed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Caps {
    Trace,
    Metrics,
    Forensics,
    All,
}

impl Caps {
    /// Whether the cell installs `cap` (`All` installs every one).
    fn has(self, cap: Caps) -> bool {
        self == cap || self == Caps::All
    }
}

/// The campaign driver a cell exercises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Flavour {
    Scratch,
    Checkpointed,
    Composed,
}

type Golden = GoldenRun<Vec<RgbImage>>;
type Records = Vec<Injection<Vec<RgbImage>>>;

/// Runs per campaign.
const N: usize = 16;

const SEED: u64 = 0x7E1E;

/// The workload every check runs: Input 2, Quick scale, baseline.
pub fn workload() -> VsWorkload {
    experiments::vs_workload(InputId::Input2, Scale::Quick, Approximation::Baseline)
}

/// Run one cell of the matrix.
pub fn check(caps: Caps, flavour: Flavour) {
    let w = workload();
    let plain = campaign::profile_golden(&w).unwrap();
    let classes: &[RegClass] = match flavour {
        Flavour::Composed => &[RegClass::Gpr],
        _ => &[RegClass::Gpr, RegClass::Fpr],
    };
    for &class in classes {
        let cfg = CampaignConfig::new(class, N).seed(SEED);
        let (reference, forensic_reference) = if flavour == Flavour::Composed {
            let golden = campaign::profile_golden_forensic(&w).unwrap();
            (composed(&w, &golden, 2).0, None)
        } else {
            let forensic = caps.has(Caps::Forensics).then(|| {
                let golden = campaign::profile_golden_forensic(&w).unwrap();
                campaign::run_campaign(&w, &golden, &cfg)
            });
            (campaign::run_campaign(&w, &plain, &cfg), forensic)
        };
        for threads in [1, 4] {
            let cell = format!("{caps:?} {flavour:?} {class} threads({threads})");
            let seen = observe(&w, caps, flavour, cfg.clone().threads(threads), threads);
            assert_eq!(seen.golden.profile, plain.profile, "{cell}: tap profile");
            assert_eq!(seen.golden.output, plain.output, "{cell}: golden output");
            let [want, got] = [&reference, &seen.records]
                .map(|recs| recs.iter().map(Injection::identity).collect::<Vec<_>>());
            assert_eq!(want, got, "{cell}: records perturbed");

            // Only forensic scratch and checkpointed campaigns attribute,
            // every completed run, exactly as an unobserved forensic
            // scratch campaign does.
            let attributed = caps.has(Caps::Forensics) && flavour != Flavour::Composed;
            for r in &seen.records {
                let completed = matches!(r.outcome, Outcome::Masked | Outcome::Sdc);
                assert_eq!(r.forensics.is_some(), attributed && completed, "{cell}");
                let stage = attributed_stage(r.forensics.as_ref(), r.fired);
                assert!(stage.is_some() || r.fired.is_none(), "{cell}: {}", r.spec);
                assert!(flavour != Flavour::Composed || r.sdc_output.is_none());
            }
            for (a, b) in forensic_reference.iter().flatten().zip(&seen.records) {
                assert_eq!(a.forensics, b.forensics, "{cell}: digests of {}", a.spec);
            }

            if caps.has(Caps::Trace) {
                check_trace(&seen, flavour, w.frames().len(), &cell);
            }
            if caps.has(Caps::Metrics) {
                check_metrics(&seen, flavour, threads, &cell);
            }
        }
    }
}

/// What one observed cell produced.
struct Seen {
    golden: Golden,
    records: Records,
    /// Runs executed (composed campaigns: pilots).
    runs: u64,
    trace: Vec<OwnedEvent>,
    registry: Arc<MetricsRegistry>,
}

/// Profile the golden run and drive one campaign with `caps` installed
/// on this thread.
fn observe(
    w: &VsWorkload,
    caps: Caps,
    flavour: Flavour,
    cfg: CampaignConfig,
    threads: usize,
) -> Seen {
    let registry = Arc::new(MetricsRegistry::new());
    let forensic = caps.has(Caps::Forensics);
    let ((golden, records, runs), trace) = traced(caps.has(Caps::Trace), || {
        let _metrics = caps
            .has(Caps::Metrics)
            .then(|| metrics::install(registry.clone()));
        let _digests = forensic.then(|| digest::record_from(DigestTrace::default()));
        let _case = vs_telemetry::span("equivalence_case");
        let policy = CheckpointPolicy::EveryKFrames(2);
        let seen = match flavour {
            Flavour::Scratch => {
                let golden = if forensic {
                    campaign::profile_golden_forensic(w)
                } else {
                    campaign::profile_golden(w)
                }
                .unwrap();
                let records = campaign::run_campaign(w, &golden, &cfg);
                (golden, records, N as u64)
            }
            Flavour::Checkpointed => {
                let ck = if forensic {
                    campaign::profile_golden_checkpointed_forensic(w, policy)
                } else {
                    campaign::profile_golden_checkpointed(w, policy)
                }
                .unwrap();
                let cfg = cfg.checkpoint_policy(policy);
                let records = campaign::run_campaign_checkpointed(w, &ck, &cfg);
                (ck.golden, records, N as u64)
            }
            Flavour::Composed => {
                let golden = campaign::profile_golden_forensic(w).unwrap();
                let (records, runs) = composed(w, &golden, threads);
                (golden, records, runs)
            }
        };
        assert_eq!(digest::trace(), DigestTrace::default(), "caller's trace");
        seen
    });
    Seen {
        golden,
        records,
        runs,
        trace,
        registry,
    }
}

/// Run `f` with a JSONL sink installed on this thread if `on`: its
/// result and the trace the sink streamed, parsed.
pub fn traced<T>(on: bool, f: impl FnOnce() -> T) -> (T, Vec<OwnedEvent>) {
    let bytes = Arc::new(Mutex::new(Vec::new()));
    let out = {
        let sink = Arc::new(JsonlSink::new(SharedWriter(Arc::clone(&bytes))));
        let _trace = on.then(|| vs_telemetry::install(sink));
        f()
    };
    let text = String::from_utf8(bytes.lock().unwrap().clone()).unwrap();
    let trace = vs_telemetry::jsonl::parse_trace(&text).expect("trace must parse");
    (out, trace)
}

fn check_trace(seen: &Seen, flavour: Flavour, frames: usize, cell: &str) {
    let named = |name: &'static str| seen.trace.iter().filter(move |e| e.name == name);
    assert_eq!(named("golden_profile").count(), 1, "{cell}");
    assert_eq!(
        named("frame").count(),
        frames,
        "{cell}: one golden run's frames"
    );
    let forensic = usize::from(seen.golden.digests.is_some());
    assert_eq!(named("forensics_golden").count(), forensic, "{cell}");
    if flavour == Flavour::Composed {
        assert_eq!(
            named("injection").count(),
            0,
            "{cell}: pilots are not reported"
        );
        assert_eq!(named("compose_done").count(), 1, "{cell}");
    } else {
        assert_eq!(named("campaign_start").count(), 1, "{cell}");
        assert_eq!(named("injection").count(), N, "{cell}: one event per run");
        let done: Vec<_> = named("campaign_done").map(|e| e.u64("done")).collect();
        assert_eq!(done, [Some(N as u64)], "{cell}");
    }
    let spans = vs_telemetry::export::validate_spans(&seen.trace).expect("span tree");
    assert!(
        spans.max_depth >= 2,
        "{cell}: driver spans nest in the case span"
    );
    let tids: BTreeSet<u64> = seen.trace.iter().filter_map(|e| e.u64("tid")).collect();
    assert_eq!(tids.len(), 1, "{cell}: events from threads {tids:?}");
}

fn check_metrics(seen: &Seen, flavour: Flavour, threads: usize, cell: &str) {
    let m = seen.registry.merged();
    let exec = m.histogram(phase::EXEC).expect("exec histogram");
    assert_eq!(exec.count(), seen.runs, "{cell}: one exec sample per run");
    let resumed = m.counter(phase::RUNS_RESUMED);
    let from_scratch = m.counter(phase::RUNS_FROM_SCRATCH);
    assert_eq!(resumed + from_scratch, seen.runs, "{cell}");
    if flavour == Flavour::Scratch {
        assert_eq!(resumed, 0, "{cell}");
    } else {
        assert!(resumed > 0, "{cell}: runs resume from the chain");
        assert!(
            m.histogram(phase::RESTORE).is_some(),
            "{cell}: restores timed"
        );
    }
    let wall = m.histogram(phase::WORKER_WALL).expect("wall histogram");
    if flavour != Flavour::Composed {
        assert_eq!(
            wall.count(),
            threads as u64,
            "{cell}: one sample per worker"
        );
    }
    let phases = phase::TOP.iter().filter_map(|p| m.histogram(p));
    let attributed: u64 = phases.map(|h| h.sum()).sum();
    assert!(attributed > 0 && attributed <= wall.sum(), "{cell}");
    let stages = Stage::ALL.map(|s| m.histogram(s.name()));
    let staged: u64 = stages.iter().flatten().map(|h| h.sum()).sum();
    assert!(
        staged > 0 && staged <= exec.sum(),
        "{cell}: stages timed inside exec"
    );
    if flavour == Flavour::Scratch {
        for (stage, h) in Stage::ALL.iter().zip(&stages) {
            let n = h.map_or(0, |h| h.count());
            assert!(n > 0, "{cell}: stage {stage} never timed");
        }
    }
}

/// A cold composed campaign, every group injecting two pilots: its
/// records and the number of pilots it ran.
fn composed(w: &VsWorkload, golden: &Golden, threads: usize) -> (Records, u64) {
    let cfg = ComposeConfig {
        seed: SEED,
        epsilon_pp: 100.0,
        batch: 2,
        min_pilots: 2,
        max_pilots: 2,
        hang_factor: 4,
        threads,
    };
    let res = compose::run_composed_campaign(w, golden, &cfg, &mut CampaignCache::new());
    (res.records, res.injections_executed as u64)
}

/// A writer whose bytes stay reachable after the sink is uninstalled.
struct SharedWriter(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
