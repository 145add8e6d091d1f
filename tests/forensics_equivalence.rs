//! Zero-perturbation proof for fault forensics: a forensic golden run
//! against a plain one, and the forensics cells of the observation
//! matrix (see `observation/mod.rs`). Campaigns against a forensic
//! golden, with per-run digest recording, must produce (spec, outcome,
//! fired) records bit-identical to campaigns against a plain golden —
//! across register classes, thread counts and campaign flavours — and
//! resumed runs must fold the digest traces of scratch runs; any
//! divergence means a digest computation leaked into the tap stream.

mod observation;

use observation::{check, workload, Caps, Flavour};
use video_summarization::prelude::*;

#[test]
fn forensic_golden_matches_plain_golden() {
    let w = workload();
    let plain = campaign::profile_golden(&w).unwrap();
    let forensic = campaign::profile_golden_forensic(&w).unwrap();
    assert_eq!(plain.profile, forensic.profile, "tap profile perturbed");
    assert_eq!(plain.output, forensic.output, "golden output perturbed");
    assert!(
        forensic.digests.is_some(),
        "forensic profiling recorded no digest trace"
    );
}

#[test]
fn campaigns_match_with_forensics_on_across_classes_and_threads() {
    check(Caps::Forensics, Flavour::Scratch);
}

#[test]
fn checkpointed_forensic_campaigns_match_scratch() {
    check(Caps::Forensics, Flavour::Checkpointed);
}

#[test]
fn composed_pilots_are_identical_with_forensics_recording() {
    check(Caps::Forensics, Flavour::Composed);
}
