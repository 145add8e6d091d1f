//! Live campaign telemetry: per-injection outcome events plus periodic
//! rate snapshots with Wilson error bars, throughput and ETA.
//!
//! Campaign injections execute on plain worker threads that have **no
//! telemetry sink of their own** — deliberately, so the millions of
//! stage events an instrumented pipeline run could produce are never
//! even generated inside injected runs. Instead the campaign driver
//! captures the *calling* thread's observation context once
//! ([`vs_telemetry::capture`]) and hands its sink to a
//! [`CampaignMonitor`], which routes the low-rate campaign events (one
//! `injection` per run, a `campaign_progress` snapshot every few
//! percent, one `campaign_done`) through it directly.
//!
//! Zero-perturbation: nothing in this module touches the tap or
//! instruction counters in [`crate::tap`]/[`crate::state`] — a record
//! is taken only *after* an injection's session guard has been dropped
//! and its outcome classified, so golden profiles, fault draws and
//! classifications are bit-for-bit identical with telemetry on or off
//! (proven by the observation test in `campaign.rs` and the workspace
//! observation-equivalence tests).

use crate::campaign::{CampaignConfig, Injection, Outcome};
use crate::forensics::{attributed_stage, Stage};
use crate::spec::RegClass;
use crate::stats::{OutcomeClass, OutcomeCounts, OutcomeRates};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vs_telemetry::{Event, Sink, Value};

/// Short lowercase name of a register class for telemetry fields.
fn class_name(class: RegClass) -> &'static str {
    match class {
        RegClass::Gpr => "gpr",
        RegClass::Fpr => "fpr",
    }
}

/// Observer attached to one campaign run. Created on the campaign's
/// calling thread with the sink the driver captured there, if any, and
/// shared by reference with the worker threads, which call [`record`]
/// once per classified injection.
///
/// When no sink was captured the monitor is entirely inert: `record` is
/// a single branch, with no locking. With a sink installed the
/// per-record path is lock-free — per-outcome atomic counters plus a
/// completion counter, the last cross-thread lock that used to sit on
/// the campaign hot path.
///
/// [`record`]: CampaignMonitor::record
pub(crate) struct CampaignMonitor {
    sink: Option<Arc<dyn Sink>>,
    total: usize,
    /// Emit a `campaign_progress` snapshot every this many completions.
    snapshot_every: usize,
    start: Instant,
    counts: AtomicOutcomeCounts,
    /// Whether this campaign runs against a forensic golden — injection
    /// events then carry stage-attribution fields.
    forensic: bool,
}

/// Lock-free outcome tallies: one atomic per outcome, plus a completion
/// counter that orders snapshot emission.
#[derive(Default)]
struct AtomicOutcomeCounts {
    masked: AtomicU64,
    sdc: AtomicU64,
    crash_segfault: AtomicU64,
    crash_abort: AtomicU64,
    hang: AtomicU64,
    done: AtomicU64,
}

impl AtomicOutcomeCounts {
    /// Tally one outcome; returns the number of completions including
    /// this one. The outcome increment is released before the `done`
    /// increment, so a thread observing `done == total` after acquiring
    /// it sees every tally (the exactness `finish` additionally gets
    /// from running after the drive loop joins).
    fn add(&self, outcome: Outcome) -> usize {
        let slot = match outcome {
            Outcome::Masked => &self.masked,
            Outcome::Sdc => &self.sdc,
            Outcome::CrashSegfault => &self.crash_segfault,
            Outcome::CrashAbort => &self.crash_abort,
            Outcome::Hang => &self.hang,
        };
        slot.fetch_add(1, Ordering::Relaxed);
        (self.done.fetch_add(1, Ordering::AcqRel) + 1) as usize
    }

    /// Snapshot the tallies. Mid-campaign snapshots may run slightly
    /// ahead of a given `done` observation (other workers keep
    /// tallying); each snapshot is internally consistent.
    fn load(&self) -> OutcomeCounts {
        OutcomeCounts {
            masked: self.masked.load(Ordering::Acquire) as usize,
            sdc: self.sdc.load(Ordering::Acquire) as usize,
            crash_segfault: self.crash_segfault.load(Ordering::Acquire) as usize,
            crash_abort: self.crash_abort.load(Ordering::Acquire) as usize,
            hang: self.hang.load(Ordering::Acquire) as usize,
        }
    }
}

impl CampaignMonitor {
    /// Announce the campaign to `sink`, the calling thread's captured
    /// sink.
    ///
    /// `sites` is the eligible-tap population faults are drawn from;
    /// `checkpoints` the number of resumable checkpoints available (0
    /// for the from-scratch driver); `forensic` whether the golden run
    /// carries a digest trace.
    pub(crate) fn new(
        cfg: &CampaignConfig,
        sites: u64,
        checkpoints: usize,
        forensic: bool,
        sink: Option<&Arc<dyn Sink>>,
    ) -> Self {
        let sink = sink.cloned();
        let total = cfg.injections();
        if let Some(s) = &sink {
            let ckpt_interval = cfg.checkpointing().interval().unwrap_or(0) as u64;
            s.event(&Event::new(
                "campaign_start",
                &[
                    ("class", Value::Str(class_name(cfg.class()))),
                    ("injections", Value::U64(total as u64)),
                    ("sites", Value::U64(sites)),
                    ("ckpt_interval", Value::U64(ckpt_interval)),
                    ("checkpoints", Value::U64(checkpoints as u64)),
                ],
            ));
        }
        CampaignMonitor {
            sink,
            total,
            // ~20 snapshots per campaign, at least one injection apart.
            snapshot_every: (total / 20).max(1),
            start: Instant::now(),
            counts: AtomicOutcomeCounts::default(),
            forensic,
        }
    }

    /// Record one classified injection. Called from worker threads; the
    /// time spent here (event assembly plus sink fan-out) is a span named
    /// by the `record` phase, timed when the worker is armed for metrics.
    pub(crate) fn record<O>(&self, rec: &Injection<O>) {
        let _span = vs_telemetry::span(crate::campaign::phase::RECORD);
        let Some(sink) = &self.sink else { return };
        let done = self.counts.add(rec.outcome);
        let fired_func = rec.fired.map_or("", |f| f.func.name());
        let mut fields = vec![
            ("index", Value::U64(rec.index as u64)),
            ("tap", Value::U64(rec.spec.tap_index)),
            ("bit", Value::U64(u64::from(rec.spec.bit))),
            ("outcome", Value::Str(rec.outcome.name())),
            ("fired", Value::Bool(rec.fired.is_some())),
            ("fired_func", Value::Str(fired_func)),
        ];
        if self.forensic {
            let attr = attributed_stage(rec.forensics.as_ref(), rec.fired);
            fields.push((
                "attr_stage",
                Value::Str(attr.map_or("unknown", |s| s.name())),
            ));
            if let Some(f) = &rec.forensics {
                let stage_name = |s: Option<Stage>| Value::Str(s.map_or("none", |s| s.name()));
                fields.push(("div_stage", stage_name(f.attribution.first_divergence)));
                fields.push(("mask_stage", stage_name(f.attribution.masked_at)));
                fields.push(("depth", Value::U64(u64::from(f.attribution.depth))));
            }
        }
        sink.event(&Event::new("injection", &fields));
        if done.is_multiple_of(self.snapshot_every) || done == self.total {
            let counts = self.counts.load();
            self.emit_rates(sink, "campaign_progress", done, &counts.rates());
        }
    }

    /// Emit the final `campaign_done` snapshot. Called once, after the
    /// drive loop joins, on the campaign's calling thread — so the
    /// atomic tallies are exact here.
    pub(crate) fn finish(&self) {
        let Some(sink) = &self.sink else { return };
        let counts = self.counts.load();
        self.emit_rates(sink, "campaign_done", counts.n(), &counts.rates());
    }

    /// One rates snapshot: counts, percentage rates with 95% Wilson
    /// bounds per class, elapsed wall time, throughput and ETA.
    fn emit_rates(
        &self,
        sink: &Arc<dyn Sink>,
        name: &'static str,
        done: usize,
        rates: &OutcomeRates,
    ) {
        let elapsed = self.start.elapsed().as_secs_f64();
        let inj_per_sec = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let remaining = self.total.saturating_sub(done);
        let eta_s = if inj_per_sec > 0.0 {
            remaining as f64 / inj_per_sec
        } else {
            0.0
        };
        let interval = |c: OutcomeClass| rates.wilson_interval(c);
        let (masked_lo, masked_hi) = interval(OutcomeClass::Masked);
        let (sdc_lo, sdc_hi) = interval(OutcomeClass::Sdc);
        let (crash_lo, crash_hi) = interval(OutcomeClass::Crash);
        let (hang_lo, hang_hi) = interval(OutcomeClass::Hang);
        sink.event(&Event::new(
            name,
            &[
                ("done", Value::U64(done as u64)),
                ("total", Value::U64(self.total as u64)),
                ("elapsed_s", Value::F64(elapsed)),
                ("inj_per_sec", Value::F64(inj_per_sec)),
                ("eta_s", Value::F64(eta_s)),
                ("masked", Value::F64(rates.masked)),
                ("sdc", Value::F64(rates.sdc)),
                ("crash", Value::F64(rates.crash)),
                ("hang", Value::F64(rates.hang)),
                ("masked_lo", Value::F64(masked_lo)),
                ("masked_hi", Value::F64(masked_hi)),
                ("sdc_lo", Value::F64(sdc_lo)),
                ("sdc_hi", Value::F64(sdc_hi)),
                ("crash_lo", Value::F64(crash_lo)),
                ("crash_hi", Value::F64(crash_hi)),
                ("hang_lo", Value::F64(hang_lo)),
                ("hang_hi", Value::F64(hang_hi)),
            ],
        ));
    }
}
