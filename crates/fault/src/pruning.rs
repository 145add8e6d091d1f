//! Relyzer-style error-site pruning — the paper's named future work.
//!
//! The paper relies on uniform statistical sampling and notes that "more
//! comprehensive and higher precision techniques such as Relyzer could
//! be applied but are left to future work" (§V-A). Relyzer's insight is
//! that error sites fall into *equivalence classes* whose members behave
//! alike; injecting into a few *pilots* per class and weighting by class
//! population estimates the application's resiliency with far fewer
//! runs.
//!
//! Our class key is the `(function, operation-class)` site group: taps
//! inside one pipeline function with the same architectural role
//! (address / control / data) share their fault behaviour to first
//! order. [`run_pruned_campaign`] injects a fixed number of pilots into
//! every populated group (random tap within the group, random bit) and
//! combines the per-group outcome rates into a population-weighted
//! estimate of the full-campaign rates.

use crate::campaign::{self, GoldenRun, Injection, Plan, Workload};
use crate::func::{FuncId, OpClass};
use crate::mix64;
use crate::session::group_index;
use crate::spec::{FaultSpec, RegClass, REG_BITS};
use crate::stats::{outcome_rates, OutcomeRates};
use std::sync::Mutex;

/// One populated `(function, op-class)` site group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteGroup {
    /// The function the group's taps execute in.
    pub func: FuncId,
    /// The architectural role of the group's values.
    pub op: OpClass,
    /// Number of eligible dynamic taps in the group (its population).
    pub population: u64,
}

impl SiteGroup {
    /// The group-confined GPR fault a pilot hash `h` draws: a uniform
    /// tap of the group's eligible-tap stream and a uniform bit.
    pub(crate) fn pilot(&self, h: u64) -> FaultSpec {
        let tap_index = mix64(h ^ 0x0009_0113) % self.population;
        let bit = (mix64(h ^ 0xb17) % REG_BITS as u64) as u8;
        FaultSpec {
            group: Some((self.func, self.op)),
            ..FaultSpec::new(RegClass::Gpr, tap_index, bit)
        }
    }
}

/// Enumerate the populated GPR site groups of a golden profile,
/// largest-population first.
pub fn site_groups<O>(golden: &GoldenRun<O>) -> Vec<SiteGroup> {
    let mut out = Vec::new();
    for func in FuncId::ALL {
        for op in OpClass::ALL {
            let population = golden.profile.gpr_groups[group_index(func, op)];
            if population > 0 {
                out.push(SiteGroup {
                    func,
                    op,
                    population,
                });
            }
        }
    }
    out.sort_by(|a, b| {
        b.population
            .cmp(&a.population)
            .then_with(|| (a.func, a.op).cmp(&(b.func, b.op)))
    });
    out
}

/// Pruned-campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrunedConfig {
    /// Total pilot budget, allocated across groups proportionally to
    /// their populations (stratified sampling with proportional
    /// allocation — strictly lower variance than uniform sampling of the
    /// same size).
    pub total_pilots: usize,
    /// Minimum pilots per populated group (small groups still get
    /// representation).
    pub min_pilots_per_group: usize,
    /// Seed for pilot sampling.
    pub seed: u64,
    /// Hang budget as a multiple of the golden instruction count.
    pub hang_factor: u64,
}

impl Default for PrunedConfig {
    fn default() -> Self {
        PrunedConfig {
            total_pilots: 160,
            min_pilots_per_group: 4,
            seed: 0,
            hang_factor: 16,
        }
    }
}

/// Result of a pruned campaign.
#[derive(Debug, Clone)]
pub struct PrunedResult<O> {
    /// Per-group measurements: the group, its pilots' records, and its
    /// empirical rates.
    pub groups: Vec<(SiteGroup, OutcomeRates)>,
    /// Population-weighted estimate of the full-campaign rates.
    pub estimate: OutcomeRates,
    /// Total injections performed.
    pub injections: usize,
    /// Pilot records (for coverage or quality analysis).
    pub records: Vec<Injection<O>>,
}

/// Run a Relyzer-style pruned GPR campaign: `pilots_per_group`
/// injections into each populated site group, population-weighted
/// aggregation.
///
/// The call first re-runs the golden run to capture its own
/// golden-prefix chain (a checkpoint at every frame and composite, for
/// the pipeline), and every pilot resumes from the latest checkpoint
/// before its fault. Records are the ones from-scratch pilots give.
///
/// # Panics
///
/// Panics if the golden profile has no eligible GPR taps.
pub fn run_pruned_campaign<W: Workload>(
    workload: &W,
    golden: &GoldenRun<W::Output>,
    cfg: &PrunedConfig,
) -> PrunedResult<W::Output> {
    let groups = site_groups(golden);
    assert!(
        !groups.is_empty(),
        "no populated GPR site groups in the golden profile"
    );
    let mut ws = W::Workspace::default();
    let chain = campaign::capture_chain(workload, golden, &mut ws);
    let plan = Plan {
        workload,
        golden,
        checkpoints: &chain,
        hang_factor: cfg.hang_factor,
        threads: 1,
        keep_sdc: false,
        digests: None,
        workspaces: Mutex::new(vec![ws]),
        observers: vs_telemetry::capture(),
    };

    let mut per_group = Vec::with_capacity(groups.len());
    let mut all_records = Vec::new();
    let mut injections = 0usize;
    let total_pop: u64 = groups.iter().map(|g| g.population).sum();

    for (gi, group) in groups.iter().enumerate() {
        let share = group.population as f64 / total_pop as f64;
        let pilots = ((cfg.total_pilots as f64 * share).round() as usize)
            .max(cfg.min_pilots_per_group)
            .min(group.population as usize);
        let first = injections;
        let records = plan.drive(
            first..first + pilots,
            |i| {
                let p = i - first;
                group.pilot(mix64(cfg.seed ^ mix64((gi as u64) << 32 | p as u64)))
            },
            None,
        );
        injections += records.len();
        per_group.push((*group, outcome_rates(&records)));
        all_records.extend(records);
    }

    let estimate = weighted_estimate(&per_group, injections);
    PrunedResult {
        groups: per_group,
        estimate,
        injections,
        records: all_records,
    }
}

/// Population-weighted aggregate of per-group outcome rates — the
/// estimator both [`run_pruned_campaign`] and the compositional runner
/// in [`crate::compose`] assemble their campaign-level rates with.
/// Each group's rates are weighted by its share of the total eligible
/// population; crash-cause shares are reweighted by each group's crash
/// mass. `n` is recorded verbatim as the estimate's sample size.
///
/// Degenerate inputs are well-defined rather than NaN: an empty slice or
/// an all-zero-population slice yields all-zero rates, and groups with
/// zero population contribute nothing.
pub fn weighted_estimate(groups: &[(SiteGroup, OutcomeRates)], n: usize) -> OutcomeRates {
    let total_pop: u64 = groups.iter().map(|(g, _)| g.population).sum();
    let mut estimate = OutcomeRates {
        n,
        masked: 0.0,
        sdc: 0.0,
        crash: 0.0,
        hang: 0.0,
        crash_segfault_share: 0.0,
        crash_abort_share: 0.0,
    };
    if total_pop == 0 {
        return estimate;
    }
    // Aggregate as weighted sums of percentages.
    let mut seg_share = 0.0f64;
    let mut abort_share = 0.0f64;
    let mut crash_weight = 0.0f64;
    for (group, rates) in groups {
        let w = group.population as f64 / total_pop as f64;
        estimate.masked += w * rates.masked;
        estimate.sdc += w * rates.sdc;
        estimate.crash += w * rates.crash;
        estimate.hang += w * rates.hang;
        if rates.crash > 0.0 {
            seg_share += w * rates.crash * rates.crash_segfault_share / 100.0;
            abort_share += w * rates.crash * rates.crash_abort_share / 100.0;
            crash_weight += w * rates.crash;
        }
    }
    if crash_weight > 0.0 {
        estimate.crash_segfault_share = 100.0 * seg_share / crash_weight;
        estimate.crash_abort_share = 100.0 * abort_share / crash_weight;
    }
    estimate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{profile_golden, CampaignConfig, NoCheckpoint};
    use crate::tap;
    use crate::SimError;

    /// A workload with two very different site groups: crash-prone
    /// address taps in one function, maskable data taps in another.
    struct TwoGroup;

    impl Workload for TwoGroup {
        type Output = u64;
        type Workspace = Option<u64>;
        type Checkpoint = NoCheckpoint;

        fn run<'w>(
            &self,
            ws: &'w mut Option<u64>,
            _from: Option<&NoCheckpoint>,
        ) -> Result<&'w u64, SimError> {
            let data: Vec<u64> = (0..32).collect();
            let mut acc = 0u64;
            {
                let _f = tap::scope(FuncId::MatchKeypoints);
                for i in 0..32usize {
                    tap::work(OpClass::Control, 1)?;
                    let idx = tap::addr(i);
                    acc = acc.wrapping_add(*data.get(idx).ok_or(SimError::Segfault)?);
                }
            }
            {
                let _f = tap::scope(FuncId::Blend);
                for i in 0..96u64 {
                    tap::work(OpClass::IntAlu, 1)?;
                    // Dead data taps: always masked.
                    let _ = tap::gpr(i * 3);
                }
            }
            Ok(ws.insert(acc))
        }
    }

    #[test]
    fn site_groups_enumerate_populations() {
        let g = profile_golden(&TwoGroup).unwrap();
        let groups = site_groups(&g);
        assert_eq!(groups.len(), 2);
        // Largest first: 96 dead data taps vs 32 address taps.
        assert_eq!(groups[0].func, FuncId::Blend);
        assert_eq!(groups[0].population, 96);
        assert_eq!(groups[1].func, FuncId::MatchKeypoints);
        assert_eq!(groups[1].op, OpClass::Addr);
        assert_eq!(groups[1].population, 32);
    }

    #[test]
    fn grouped_faults_fire_in_their_group() {
        // A forensic golden must not make pilots attribute or keep outputs.
        let g = crate::campaign::profile_golden_forensic(&TwoGroup).unwrap();
        let res = run_pruned_campaign(
            &TwoGroup,
            &g,
            &PrunedConfig {
                total_pilots: 16,
                min_pilots_per_group: 4,
                seed: 3,
                hang_factor: 16,
            },
        );
        assert!(res.injections >= 16);
        for r in &res.records {
            let fired = r.fired.expect("pilot must fire");
            assert!(
                (fired.func == FuncId::Blend && fired.op == OpClass::IntAlu)
                    || (fired.func == FuncId::MatchKeypoints && fired.op == OpClass::Addr),
                "pilot fired outside its group: {fired}"
            );
            assert!(r.forensics.is_none() && r.sdc_output.is_none());
        }
    }

    #[test]
    fn pruned_estimate_approximates_full_campaign() {
        let g = profile_golden(&TwoGroup).unwrap();
        let full_cfg = CampaignConfig::new(RegClass::Gpr, 600).seed(1).threads(2);
        let full = outcome_rates(&crate::campaign::run_campaign(&TwoGroup, &g, &full_cfg));
        let pruned = run_pruned_campaign(
            &TwoGroup,
            &g,
            &PrunedConfig {
                total_pilots: 96,
                min_pilots_per_group: 8,
                seed: 2,
                hang_factor: 16,
            },
        );
        // ~100 pruned injections must estimate the 600-injection
        // campaign within a few percentage points.
        assert!(
            pruned.estimate.max_abs_delta(&full) < 12.0,
            "pruned {:?} vs full {:?}",
            pruned.estimate,
            full
        );
        assert!(pruned.injections < 600 / 4);
    }

    fn rates_of(masked: usize, sdc: usize, seg: usize, hang: usize) -> OutcomeRates {
        let mut c = crate::stats::OutcomeCounts::default();
        for _ in 0..masked {
            c.add(crate::campaign::Outcome::Masked);
        }
        for _ in 0..sdc {
            c.add(crate::campaign::Outcome::Sdc);
        }
        for _ in 0..seg {
            c.add(crate::campaign::Outcome::CrashSegfault);
        }
        for _ in 0..hang {
            c.add(crate::campaign::Outcome::Hang);
        }
        c.rates()
    }

    fn group(func: FuncId, op: OpClass, population: u64) -> SiteGroup {
        SiteGroup {
            func,
            op,
            population,
        }
    }

    #[test]
    fn weighted_estimate_of_single_group_is_its_own_rates() {
        let rates = rates_of(6, 2, 2, 0);
        let est = weighted_estimate(&[(group(FuncId::Blend, OpClass::IntAlu, 40), rates)], 10);
        assert_eq!(est.n, 10);
        assert!((est.masked - rates.masked).abs() < 1e-12);
        assert!((est.sdc - rates.sdc).abs() < 1e-12);
        assert!((est.crash - rates.crash).abs() < 1e-12);
        assert!((est.crash_segfault_share - 100.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_estimate_ignores_zero_population_groups() {
        // A zero-population group must contribute nothing — its rates
        // are weighted by population share, which is zero.
        let live = rates_of(10, 0, 0, 0);
        let ghost = rates_of(0, 10, 0, 0);
        let est = weighted_estimate(
            &[
                (group(FuncId::Blend, OpClass::IntAlu, 64), live),
                (group(FuncId::MatchKeypoints, OpClass::Addr, 0), ghost),
            ],
            20,
        );
        assert!((est.masked - 100.0).abs() < 1e-12, "est {est}");
        assert!(est.sdc.abs() < 1e-12);
    }

    #[test]
    fn weighted_estimate_of_empty_or_unpopulated_profile_is_zero() {
        let empty = weighted_estimate(&[], 0);
        assert_eq!(empty.n, 0);
        assert_eq!(empty.masked, 0.0);
        assert_eq!(empty.crash_segfault_share, 0.0);
        // All-zero populations: no weights exist, rates stay zero
        // rather than NaN.
        let unpop = weighted_estimate(
            &[(
                group(FuncId::Blend, OpClass::IntAlu, 0),
                rates_of(4, 0, 0, 0),
            )],
            4,
        );
        assert_eq!(unpop.n, 4);
        assert_eq!(unpop.masked, 0.0);
        assert!(unpop.masked.is_finite());
    }

    #[test]
    fn weighted_rates_sum_to_one_hundred() {
        let g = profile_golden(&TwoGroup).unwrap();
        let res = run_pruned_campaign(&TwoGroup, &g, &PrunedConfig::default());
        let total = res.estimate.masked + res.estimate.sdc + res.estimate.crash + res.estimate.hang;
        assert!((total - 100.0).abs() < 1e-6, "rates sum to {total}");
    }
}
