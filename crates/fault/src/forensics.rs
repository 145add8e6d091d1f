//! Fault forensics: divergence attribution of stage-level digest traces.
//!
//! A campaign outcome (Masked/SDC/Crash/Hang) says *what* a fault did to
//! the final output but not *where* the corruption entered the pipeline
//! or *where* it was absorbed. This module adds that layer on top of the
//! per-stage [`DigestTrace`] instrumented pipeline stages fold into the
//! observation context (`vs_telemetry::digest`):
//!
//! * the campaign driver records the golden trace once, has every
//!   non-crash injected run of a forensic campaign carry its own trace,
//!   and attributes each injection by comparing the two
//!   ([`Attribution`]): the first-divergence stage, the stage where
//!   digests re-converge (masking stage) and the propagation depth;
//! * [`attributed_stage`] falls back to the fired fault's stage
//!   ([`FuncId::stage`](crate::FuncId::stage)) when a run's trace never
//!   diverged or never completed;
//! * [`PropagationMatrix`] aggregates attributed records into the
//!   stage×outcome table the `campaign_report` binary renders, reusing
//!   [`OutcomeCounts`]/`OutcomeRates` so rates come with Wilson
//!   intervals.
//!
//! Digests live *outside* the simulated machine — recording never touches
//! the tap stream, instruction counts or fault-draw arithmetic. The
//! workspace observation-equivalence tests and the Toy campaign test in
//! `campaign.rs` check record-list equality with forensics off and on,
//! across thread counts and checkpoint policies.

use crate::campaign::{Injection, Outcome};
use crate::spec::FiredFault;
use crate::stats::OutcomeCounts;
// The digest types attribution compares, defined next to the
// observation context that records them.
pub use vs_telemetry::digest::{DigestTrace, Stage, NUM_STAGES};

/// Where an injected run's digest trace diverged from golden, and where
/// it re-converged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribution {
    /// Earliest stage (dataflow order) whose digest differs from golden;
    /// `None` if the trace matches golden everywhere (fault absorbed
    /// before any stage boundary).
    pub first_divergence: Option<Stage>,
    /// The stage after the *last* divergent stage — where the corrupted
    /// state was fully absorbed and every later digest matches golden
    /// again. `None` when nothing diverged or the divergence reached the
    /// summary (nothing left to mask it).
    pub masked_at: Option<Stage>,
    /// Number of stages whose digests diverged — how deep the corruption
    /// propagated through the dataflow.
    pub depth: u32,
}

impl Attribution {
    /// Compare an injected run's trace against the golden trace.
    pub fn between(golden: &DigestTrace, injected: &DigestTrace) -> Attribution {
        let mut first = None;
        let mut last = None;
        let mut depth = 0u32;
        for s in Stage::ALL {
            if injected.diverges_at(golden, s) {
                first.get_or_insert(s);
                last = Some(s);
                depth += 1;
            }
        }
        let masked_at = last.and_then(|s| Stage::ALL.get(s.index() + 1).copied());
        Attribution {
            first_divergence: first,
            masked_at,
            depth,
        }
    }
}

/// The forensic payload of one non-crash injected run: its digest trace
/// and the attribution against golden.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForensicsRecord {
    /// Per-stage digests of the injected run.
    pub trace: DigestTrace,
    /// Divergence attribution against the golden trace.
    pub attribution: Attribution,
}

/// The stage an injection is attributed to: the first-divergence stage
/// when the digest trace diverged, otherwise the fired fault's stage
/// (the only evidence a fully-absorbed or crashed run leaves). `None`
/// means no evidence at all — rendered as `unknown` in reports.
pub fn attributed_stage(
    forensics: Option<&ForensicsRecord>,
    fired: Option<FiredFault>,
) -> Option<Stage> {
    forensics
        .and_then(|f| f.attribution.first_divergence)
        .or_else(|| fired.map(|f| f.func.stage()))
}

/// Stage×outcome propagation matrix: outcome tallies per attributed
/// stage, plus an `unknown` row for records with no attribution
/// evidence. Rates and Wilson intervals come from each row's
/// [`OutcomeCounts::rates`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PropagationMatrix {
    rows: [OutcomeCounts; NUM_STAGES + 1],
}

impl PropagationMatrix {
    /// Row labels, aligned with [`PropagationMatrix::rows`]: the stage
    /// names followed by `"unknown"`.
    pub fn row_names() -> [&'static str; NUM_STAGES + 1] {
        let mut names = ["unknown"; NUM_STAGES + 1];
        for s in Stage::ALL {
            names[s.index()] = s.name();
        }
        names
    }

    /// Tally one attributed outcome.
    pub fn add(&mut self, stage: Option<Stage>, outcome: Outcome) {
        let row = stage.map_or(NUM_STAGES, Stage::index);
        self.rows[row].add(outcome);
    }

    /// The tallies of one stage's row (`None` = the `unknown` row).
    pub fn row(&self, stage: Option<Stage>) -> &OutcomeCounts {
        &self.rows[stage.map_or(NUM_STAGES, Stage::index)]
    }

    /// All rows in [`PropagationMatrix::row_names`] order.
    pub fn rows(&self) -> &[OutcomeCounts; NUM_STAGES + 1] {
        &self.rows
    }

    /// Total injections tallied.
    pub fn n(&self) -> usize {
        self.rows.iter().map(OutcomeCounts::n).sum()
    }

    /// Build the matrix from campaign records, attributing each via
    /// [`attributed_stage`].
    pub fn from_records<O>(records: &[Injection<O>]) -> PropagationMatrix {
        let mut m = PropagationMatrix::default();
        for r in records {
            m.add(attributed_stage(r.forensics.as_ref(), r.fired), r.outcome);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FaultSpec, RegClass};
    use crate::{FuncId, OpClass};

    #[test]
    fn attribution_finds_first_divergence_and_masking() {
        let mut golden = DigestTrace::default();
        let mut injected = DigestTrace::default();
        for s in Stage::ALL {
            golden.fold(s, 100 + s.index() as u64);
            injected.fold(s, 100 + s.index() as u64);
        }
        // Diverge at Fast and Orb, re-converge from Match on.
        injected.fold(Stage::Fast, 1);
        injected.fold(Stage::Orb, 2);
        let a = Attribution::between(&golden, &injected);
        assert_eq!(a.first_divergence, Some(Stage::Fast));
        assert_eq!(a.masked_at, Some(Stage::Match));
        assert_eq!(a.depth, 2);
    }

    #[test]
    fn attribution_of_identical_traces_is_empty() {
        let t = DigestTrace::default();
        let a = Attribution::between(&t, &t);
        assert_eq!(a.first_divergence, None);
        assert_eq!(a.masked_at, None);
        assert_eq!(a.depth, 0);
    }

    #[test]
    fn divergence_reaching_summary_has_no_masking_stage() {
        let golden = DigestTrace::default();
        let mut injected = DigestTrace::default();
        injected.fold(Stage::Summary, 1);
        let a = Attribution::between(&golden, &injected);
        assert_eq!(a.first_divergence, Some(Stage::Summary));
        assert_eq!(a.masked_at, None);
        assert_eq!(a.depth, 1);
    }

    fn fired(func: FuncId) -> FiredFault {
        FiredFault {
            func,
            op: OpClass::Float,
            reg: 3,
            bit: 17,
            before: 0,
            after: 1 << 17,
        }
    }

    #[test]
    fn attributed_stage_prefers_divergence_over_fired_func() {
        let golden = DigestTrace::default();
        let mut injected = DigestTrace::default();
        injected.fold(Stage::Match, 5);
        let rec = ForensicsRecord {
            trace: injected,
            attribution: Attribution::between(&golden, &injected),
        };
        assert_eq!(
            attributed_stage(Some(&rec), Some(fired(FuncId::RemapBilinear))),
            Some(Stage::Match)
        );
        // No divergence → fall back to the fired function's stage.
        let clean = ForensicsRecord {
            trace: golden,
            attribution: Attribution::between(&golden, &golden),
        };
        assert_eq!(
            attributed_stage(Some(&clean), Some(fired(FuncId::RemapBilinear))),
            Some(Stage::Warp)
        );
        assert_eq!(attributed_stage(None, None), None);
    }

    #[test]
    fn propagation_matrix_tallies_rows() {
        let mut m = PropagationMatrix::default();
        m.add(Some(Stage::Warp), Outcome::Masked);
        m.add(Some(Stage::Warp), Outcome::Masked);
        m.add(Some(Stage::Decode), Outcome::Sdc);
        m.add(None, Outcome::CrashSegfault);
        assert_eq!(m.n(), 4);
        assert_eq!(m.row(Some(Stage::Warp)).masked, 2);
        assert_eq!(m.row(Some(Stage::Decode)).sdc, 1);
        assert_eq!(m.row(None).crash_segfault, 1);
        let names = PropagationMatrix::row_names();
        assert_eq!(names[0], "decode");
        assert_eq!(names[NUM_STAGES], "unknown");
        // Rows expose Wilson intervals through OutcomeRates.
        let (lo, hi) = m
            .row(Some(Stage::Warp))
            .rates()
            .wilson_interval(crate::stats::OutcomeClass::Masked);
        assert!(lo > 0.0 && hi == 100.0);
    }

    #[test]
    fn propagation_matrix_from_records_attributes_each() {
        let golden = DigestTrace::default();
        let mut diverged = DigestTrace::default();
        diverged.fold(Stage::Ransac, 1);
        let mk = |forensics, fired_func: Option<FuncId>, outcome| Injection {
            index: 0,
            spec: FaultSpec::new(RegClass::Gpr, 1, 2),
            fired: fired_func.map(fired),
            outcome,
            sdc_output: None::<u64>,
            forensics,
        };
        let recs = vec![
            mk(
                Some(ForensicsRecord {
                    trace: diverged,
                    attribution: Attribution::between(&golden, &diverged),
                }),
                Some(FuncId::MatchKeypoints),
                Outcome::Sdc,
            ),
            mk(None, Some(FuncId::RemapBilinear), Outcome::CrashSegfault),
            mk(None, None, Outcome::Hang),
        ];
        let m = PropagationMatrix::from_records(&recs);
        assert_eq!(m.row(Some(Stage::Ransac)).sdc, 1);
        assert_eq!(m.row(Some(Stage::Warp)).crash_segfault, 1);
        assert_eq!(m.row(None).hang, 1);
    }
}
