//! Ablation studies for the reproduction's load-bearing design choices.
//!
//! Each ablation switches off (or sweeps) one modeling decision from
//! DESIGN.md and shows its effect on the headline numbers, so readers
//! can see *why* the model is shaped the way it is:
//!
//! 1. **FPR liveness** — the dead-register model behind the 99.7% FPR
//!    masking. Sweeping the live-register count shows masking collapse
//!    as more of the file is treated as live.
//! 2. **Compositional masking** — Fig 11b's effect needs downstream
//!    frames painting over corrupted warp output; injecting only into
//!    the *last* composite of the WP kernel removes that redundancy.
//! 3. **Hang budget** — the hang monitor's factor trades campaign time
//!    against misclassifying slow runs; the outcome rates must be
//!    insensitive to it over a wide range.

use crate::figs::golden;
use crate::report::{pct, Table};
use crate::Opts;
use vs_core::experiments::InputId;
use vs_core::Approximation;
use vs_fault::campaign::{run_campaign, CampaignConfig};
use vs_fault::spec::RegClass;
use vs_fault::stats::outcome_rates;

/// Ablation 1: how FPR masking depends on the assumed live-register
/// count. The production model uses `FPR_LIVE_REGS = 2`; this study
/// reports what masking *would* be if K of 32 registers were live, by
/// reclassifying dead-register hits of a real campaign.
pub fn fpr_liveness(opts: &Opts) -> String {
    let (w, g) = golden(InputId::Input1, opts.scale, Approximation::Baseline);
    let cfg = CampaignConfig::new(RegClass::Fpr, opts.injections)
        .seed(opts.seed)
        .threads(opts.threads)
        .keep_sdc_outputs(false);
    let recs = run_campaign(&w, &g, &cfg);
    // Under the production model, faults with register >= FPR_LIVE_REGS
    // are guaranteed masked. For the sweep we report the *observed*
    // masked rate restricted to live-register hits, extrapolated to a
    // hypothetical live count K: masked(K) = 1 - K/32 * (1 - masked_live).
    let live: Vec<_> = recs
        .iter()
        .filter(|r| r.spec.register() < vs_fault::spec::FPR_LIVE_REGS)
        .collect();
    let live_masked = if live.is_empty() {
        1.0
    } else {
        live.iter()
            .filter(|r| r.outcome == vs_fault::campaign::Outcome::Masked)
            .count() as f64
            / live.len() as f64
    };
    let mut t = Table::new(["live FPRs (of 32)", "projected masked rate"]);
    for k in [1u32, 2, 4, 8, 16, 32] {
        let masked = 1.0 - (k as f64 / 32.0) * (1.0 - live_masked);
        t.row([k.to_string(), pct(100.0 * masked)]);
    }
    format!(
        "Ablation: FPR liveness (live-register hits observed masked {}; production model uses {} live regs)\n{}",
        pct(100.0 * live_masked),
        vs_fault::spec::FPR_LIVE_REGS,
        t.to_text()
    )
}

/// Ablation 2: hang-budget sensitivity. Outcome rates should be stable
/// across a wide budget range; a too-small factor would misclassify slow
/// (but terminating) corrupted runs as hangs.
pub fn hang_budget(opts: &Opts) -> String {
    let (w, g) = golden(InputId::Input1, opts.scale, Approximation::Baseline);
    let mut t = Table::new(["hang factor", "masked", "sdc", "crash", "hang"]);
    for factor in [2u64, 4, 16, 64] {
        let cfg = CampaignConfig::new(RegClass::Gpr, opts.injections)
            .seed(opts.seed)
            .threads(opts.threads)
            .hang_factor(factor)
            .keep_sdc_outputs(false);
        let r = outcome_rates(&run_campaign(&w, &g, &cfg));
        t.row([
            format!("{factor}x"),
            pct(r.masked),
            pct(r.sdc),
            pct(r.crash),
            pct(r.hang),
        ]);
    }
    format!(
        "Ablation: hang-budget sensitivity (GPR, Input 1)\n{}",
        t.to_text()
    )
}

/// Ablation 3: approximation operating points. Sweeps the RFD drop rate
/// and KDS keep divisor to show the time/quality trade-off curve that
/// the paper's single operating points (10%, one-third) sit on.
pub fn operating_points(_opts: &Opts) -> String {
    use vs_core::quality;
    use vs_perfmodel::MachineModel;
    // Paper scale: the trade-off curve needs flight-length inputs.
    let scale = vs_core::experiments::Scale::Paper;
    let model = MachineModel::default();
    let base = vs_core::experiments::vs_workload(InputId::Input1, scale, Approximation::Baseline);
    let base_g = vs_fault::campaign::profile_golden(&base).expect("baseline golden");
    let base_perf = model.evaluate(&base_g.profile.instr);

    let mut t = Table::new(["variant", "knob", "time(norm)", "quality dev"]);
    for rate in [0.05, 0.10, 0.20] {
        let w = vs_core::experiments::vs_workload(
            InputId::Input1,
            scale,
            Approximation::Rfd { drop_rate: rate },
        );
        let g = vs_fault::campaign::profile_golden(&w).expect("golden");
        let perf = model.evaluate(&g.profile.instr);
        let q = quality::summary_quality(&base_g.output, &g.output);
        t.row([
            "VS_RFD".to_string(),
            format!("drop {:.0}%", rate * 100.0),
            format!("{:.2}", perf.time_seconds / base_perf.time_seconds),
            pct(q.relative_l2_norm),
        ]);
    }
    for div in [2usize, 3, 5] {
        let w = vs_core::experiments::vs_workload(
            InputId::Input1,
            scale,
            Approximation::Kds { keep_divisor: div },
        );
        let g = vs_fault::campaign::profile_golden(&w).expect("golden");
        let perf = model.evaluate(&g.profile.instr);
        let q = quality::summary_quality(&base_g.output, &g.output);
        t.row([
            "VS_KDS".to_string(),
            format!("keep 1/{div}"),
            format!("{:.2}", perf.time_seconds / base_perf.time_seconds),
            pct(q.relative_l2_norm),
        ]);
    }
    format!(
        "Ablation: approximation operating points (Input 1)\n{}",
        t.to_text()
    )
}

/// Ablation 4: blend mode vs compositional masking. Fig 11b's masking
/// comes from later frames painting over corrupted warp output; feather
/// blending only attenuates the corruption, so warp-confined faults
/// should mask less and SDC more.
pub fn blend_mode_masking(opts: &Opts) -> String {
    use vs_core::VsWorkload;
    use vs_fault::{campaign, FuncId, FuncMask};
    use vs_warp::{BlendMode, CompositeOptions};
    let mask = FuncMask::only(&[FuncId::WarpPerspective, FuncId::RemapBilinear]);
    let frames = vs_video::render_input(&vs_core::experiments::input_spec(
        InputId::Input1,
        opts.scale,
    ));
    let mut t = Table::new(["blend mode", "masked", "sdc", "crash", "hang"]);
    for (label, blend) in [
        ("overwrite", BlendMode::Overwrite),
        ("feather", BlendMode::Feather),
    ] {
        let config = vs_core::experiments::pipeline_config(opts.scale, Approximation::Baseline)
            .with_compositing(CompositeOptions { blend });
        let w = VsWorkload::new(frames.clone(), config);
        let g = campaign::profile_golden_masked(&w, mask).expect("golden run");
        let cfg = CampaignConfig::new(RegClass::Gpr, opts.injections)
            .seed(opts.seed)
            .threads(opts.threads)
            .keep_sdc_outputs(false);
        let r = outcome_rates(&run_campaign(&w, &g, &cfg));
        t.row([
            label.to_string(),
            pct(r.masked),
            pct(r.sdc),
            pct(r.crash),
            pct(r.hang),
        ]);
    }
    format!(
        "Ablation: blend mode vs compositional masking (warp-confined GPR faults, Input 1)\n{}",
        t.to_text()
    )
}

/// All ablations.
pub fn run(opts: &Opts) -> String {
    format!(
        "{}\n{}\n{}\n{}",
        fpr_liveness(opts),
        hang_budget(opts),
        blend_mode_masking(opts),
        operating_points(opts)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_core::experiments::Scale;

    fn test_opts() -> Opts {
        Opts {
            scale: Scale::Quick,
            injections: 80,
            out_dir: std::env::temp_dir().join(format!("abl_test_{}", std::process::id())),
            ..Opts::default()
        }
    }

    #[test]
    fn liveness_projection_is_monotone() {
        let report = fpr_liveness(&test_opts());
        assert!(report.contains("live FPRs"));
        // Extract the projected rates and check monotone decrease.
        let rates: Vec<f64> = report
            .lines()
            .filter_map(|l| {
                let l = l.trim();
                let (first, rest) = l.split_once(char::is_whitespace)?;
                first.parse::<u32>().ok()?;
                rest.trim().strip_suffix('%')?.parse::<f64>().ok()
            })
            .collect();
        assert_eq!(rates.len(), 6);
        for w in rates.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "masking must fall as liveness grows");
        }
    }

    #[test]
    fn blend_mode_ablation_reports_both_modes() {
        let report = blend_mode_masking(&test_opts());
        assert!(report.contains("overwrite"));
        assert!(report.contains("feather"));
    }

    #[test]
    fn hang_rates_stay_bounded_across_budgets() {
        let report = hang_budget(&test_opts());
        assert!(report.contains("hang factor"));
        assert!(report.contains("16x"));
    }
}
