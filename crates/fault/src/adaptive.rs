//! Adaptive early termination for injection campaigns.
//!
//! The paper sizes its campaigns by eyeballing rate convergence
//! (Fig 9a, ~1000 injections); this module replaces the eyeball with a
//! sequential stopping rule. Injections execute in batches through the
//! same driver as [`crate::campaign::run_campaign_checkpointed`],
//! and after every batch the running per-class 95% Wilson intervals
//! ([`crate::stats::OutcomeRates::wilson_interval`]) are recomputed. The
//! campaign stops as soon as
//!
//! 1. at least [`AdaptiveConfig::min_injections`] runs have completed,
//! 2. the running convergence curve has a [`crate::convergence::knee`]
//!    strictly before its last point (the rates have been stable for at
//!    least one whole batch), and
//! 3. every tracked outcome class's Wilson half-width has dropped below
//!    [`AdaptiveConfig::epsilon_pp`] percentage points.
//!
//! Because the campaign's fault draw (`campaign::draw_spec`) depends
//! only on the seed and the run index — never on the campaign length —
//! an adaptive campaign's records are an exact *prefix* of the
//! fixed-budget campaign's records at the same seed: stopping early
//! discards statistically redundant runs and nothing else. The
//! workspace `adaptive_equivalence` tests pin this prefix property
//! record for record.

use crate::campaign::{self, CampaignConfig, CheckpointedGolden, Injection, Workload};
use crate::convergence::{knee, ConvergencePoint};
use crate::stats::{outcome_rates, OutcomeClass, OutcomeRates};

/// Stopping-rule parameters for an adaptive campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Target 95% Wilson half-width, in percentage points: the campaign
    /// stops once every outcome class is resolved at least this finely.
    pub epsilon_pp: f64,
    /// Injections per batch. One convergence point is appended (and the
    /// stopping rule evaluated) after each batch.
    pub batch: usize,
    /// Minimum injections before stopping is considered, regardless of
    /// interval widths — guards against a lucky narrow interval over a
    /// handful of runs.
    pub min_injections: usize,
    /// Tolerance (percentage points) for the [`knee`]-based stability
    /// floor: some batch boundary strictly before the latest one must
    /// already agree with every later boundary within this tolerance.
    pub knee_tol_pp: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            epsilon_pp: 5.0,
            batch: 25,
            min_injections: 50,
            knee_tol_pp: 2.0,
        }
    }
}

/// Result of an adaptive campaign.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome<O> {
    /// Injection records actually executed — a prefix of the records the
    /// fixed-budget campaign at the same seed would produce.
    pub records: Vec<Injection<O>>,
    /// Outcome rates over the executed records.
    pub rates: OutcomeRates,
    /// Whether the stopping rule fired before the budget ran out. When
    /// `false` the full budget executed without reaching `epsilon_pp`.
    pub converged: bool,
    /// The fixed budget the campaign was allowed (its config's
    /// injection count).
    pub budget: usize,
    /// Running rates at each batch boundary, for convergence reporting.
    pub curve: Vec<ConvergencePoint>,
}

/// 95% Wilson half-width of one outcome class, in percentage points.
pub fn half_width(rates: &OutcomeRates, class: OutcomeClass) -> f64 {
    let (lo, hi) = rates.wilson_interval(class);
    (hi - lo) / 2.0
}

/// The widest 95% Wilson half-width across all four outcome classes —
/// the quantity the stopping rule drives below `epsilon_pp`.
pub fn max_half_width(rates: &OutcomeRates) -> f64 {
    OutcomeClass::ALL
        .iter()
        .map(|&c| half_width(rates, c))
        .fold(0.0, f64::max)
}

/// Evaluate the sequential stopping rule on a running convergence curve
/// whose last point summarizes all records so far.
pub fn should_stop(curve: &[ConvergencePoint], cfg: &AdaptiveConfig) -> bool {
    let Some(last) = curve.last() else {
        return false;
    };
    if last.n < cfg.min_injections || max_half_width(&last.rates) > cfg.epsilon_pp {
        return false;
    }
    // Stability floor: the trailing point is trivially a knee of its own
    // curve, so require a *strictly earlier* batch boundary that already
    // agrees with everything after it.
    knee(curve, cfg.knee_tol_pp).is_some_and(|k| k < last.n)
}

/// Run a Wilson-gated adaptive campaign through the campaign driver,
/// resuming runs from `golden`'s checkpoints. `cfg.injections` is the
/// fall-back fixed budget; the stopping rule in `acfg` usually
/// terminates well before it. Records, outcomes and fired faults for
/// the executed prefix are bit-identical to
/// [`campaign::run_campaign_checkpointed`] on the same config.
///
/// # Panics
///
/// Panics if the golden profile recorded zero eligible taps for the
/// campaign's register class.
pub fn run_adaptive_checkpointed<W: Workload>(
    workload: &W,
    golden: &CheckpointedGolden<W>,
    cfg: &CampaignConfig,
    acfg: &AdaptiveConfig,
) -> AdaptiveOutcome<W::Output> {
    let mut curve = Vec::new();
    let mut converged = false;
    let records = campaign::run_batches(
        workload,
        &golden.golden,
        &golden.checkpoints,
        cfg,
        acfg.batch,
        |records| {
            curve.push(ConvergencePoint {
                n: records.len(),
                rates: outcome_rates(records),
            });
            converged = should_stop(&curve, acfg);
            converged
        },
    );
    let max = cfg.injections;
    let rates = curve
        .last()
        .map_or_else(|| outcome_rates(&records), |p| p.rates);
    vs_telemetry::emit(
        "adaptive_stop",
        &[
            ("executed", vs_telemetry::Value::U64(records.len() as u64)),
            ("budget", vs_telemetry::Value::U64(max as u64)),
            ("converged", vs_telemetry::Value::Bool(converged)),
            ("epsilon_pp", vs_telemetry::Value::F64(acfg.epsilon_pp)),
            (
                "max_half_width_pp",
                vs_telemetry::Value::F64(max_half_width(&rates)),
            ),
        ],
    );
    AdaptiveOutcome {
        records,
        rates,
        converged,
        budget: max,
        curve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Outcome;
    use crate::spec::{FaultSpec, RegClass};

    fn rec(outcome: Outcome, i: u64) -> Injection<u64> {
        Injection {
            index: i as usize,
            spec: FaultSpec::new(RegClass::Gpr, i, (i % 64) as u8),
            fired: None,
            outcome,
            sdc_output: None,
            forensics: None,
        }
    }

    fn curve_of(records: &[Injection<u64>], batch: usize) -> Vec<ConvergencePoint> {
        let cps = crate::convergence::even_checkpoints(records.len(), batch);
        crate::convergence::convergence_curve(records, &cps)
    }

    #[test]
    fn stop_requires_minimum_samples() {
        // Perfectly stable rates over too few runs must not stop.
        let recs: Vec<_> = (0..20).map(|i| rec(Outcome::Masked, i)).collect();
        let curve = curve_of(&recs, 5);
        let cfg = AdaptiveConfig {
            min_injections: 50,
            epsilon_pp: 50.0,
            ..AdaptiveConfig::default()
        };
        assert!(!should_stop(&curve, &cfg));
    }

    #[test]
    fn stop_requires_narrow_intervals() {
        // 50/50 masked/sdc over 60 runs: half-width ~12pp, above a 5pp
        // epsilon, so the rule must keep sampling.
        let recs: Vec<_> = (0..60)
            .map(|i| {
                rec(
                    if i % 2 == 0 {
                        Outcome::Masked
                    } else {
                        Outcome::Sdc
                    },
                    i,
                )
            })
            .collect();
        let curve = curve_of(&recs, 20);
        let cfg = AdaptiveConfig {
            min_injections: 40,
            epsilon_pp: 5.0,
            ..AdaptiveConfig::default()
        };
        assert!(!should_stop(&curve, &cfg));
        // With a generous epsilon the same curve stops.
        let loose = AdaptiveConfig {
            min_injections: 40,
            epsilon_pp: 20.0,
            ..AdaptiveConfig::default()
        };
        assert!(should_stop(&curve, &loose));
    }

    #[test]
    fn stop_requires_a_strictly_earlier_knee() {
        // Rates that drift right up to the final batch: every earlier
        // point disagrees with the last, so the knee floor blocks.
        let recs: Vec<_> = (0..100)
            .map(|i| {
                rec(
                    if i < 50 {
                        Outcome::Masked
                    } else {
                        Outcome::CrashSegfault
                    },
                    i,
                )
            })
            .collect();
        let curve = curve_of(&recs, 10);
        let cfg = AdaptiveConfig {
            min_injections: 10,
            epsilon_pp: 100.0,
            knee_tol_pp: 5.0,
            ..AdaptiveConfig::default()
        };
        assert!(!should_stop(&curve, &cfg));
    }

    #[test]
    fn half_width_matches_wilson_interval() {
        let counts = {
            let mut c = crate::stats::OutcomeCounts::default();
            for _ in 0..90 {
                c.add(Outcome::Masked);
            }
            for _ in 0..10 {
                c.add(Outcome::Sdc);
            }
            c
        };
        let rates = counts.rates();
        let (lo, hi) = rates.wilson_interval(OutcomeClass::Masked);
        assert!((half_width(&rates, OutcomeClass::Masked) - (hi - lo) / 2.0).abs() < 1e-12);
        assert!(max_half_width(&rates) >= half_width(&rates, OutcomeClass::Hang));
    }

    #[test]
    fn empty_curve_never_stops() {
        assert!(!should_stop(&[], &AdaptiveConfig::default()));
    }
}
