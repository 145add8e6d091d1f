//! Pinned record streams: every campaign flavour, run at a fixed seed
//! on Input2 at `Scale::Quick`, must keep producing exactly these
//! records. Each test folds every record's identity — index, fault spec
//! (class, tap, bit), fired fault and outcome — into one digest
//! (`campaign::record_digest`) and compares it with a constant, so a
//! refactor of the campaign engine that changes any draw, landing site
//! or classification fails here.

use std::sync::Arc;
use video_summarization::prelude::*;
use vs_core::workloads::VsWorkload;
use vs_fault::adaptive::{self, AdaptiveConfig};
use vs_fault::campaign::{phase, CheckpointPolicy, Injection};
use vs_fault::compose::{self, CampaignCache, ComposeConfig};
use vs_fault::forensics::{Attribution, DigestTrace, ForensicsRecord, Stage};
use vs_fault::pruning::{self, PrunedConfig};
use vs_fault::{mix64, FaultSpec, FiredFault, OpClass};
use vs_telemetry::metrics::{self, MetricsRegistry};

const SEED: u64 = 0x9E_C0DE;

fn workload() -> VsWorkload {
    experiments::vs_workload(InputId::Input2, Scale::Quick, Approximation::Baseline)
}

fn assert_digest<O>(flavour: &str, records: &[Injection<O>], expected: u64) {
    let got = campaign::record_digest(records);
    assert_eq!(
        got,
        expected,
        "{flavour}: record stream changed ({} records, digest {got:#018x})",
        records.len()
    );
}

/// The digest reads a record's identity and nothing else: changing any
/// field it folds moves it, and the extras a campaign may keep — a
/// retained SDC output, a forensic record — do not. The site group is
/// the one identity field it leaves out, keeping the pins' format: a
/// grouped pilot fires inside its group, and `fired` records where.
#[test]
fn record_digest_folds_the_identity_and_nothing_else() {
    type Rec = Injection<Vec<u8>>;
    let base = Rec {
        index: 4,
        spec: FaultSpec::new(RegClass::Gpr, 77, 9),
        fired: Some(FiredFault {
            func: FuncId::RemapBilinear,
            op: OpClass::Addr,
            reg: 3,
            bit: 9,
            before: 0x40,
            after: 0x240,
        }),
        outcome: Outcome::Sdc,
        sdc_output: None,
        forensics: None,
    };
    fn fired(r: &mut Rec) -> &mut FiredFault {
        r.fired.as_mut().unwrap()
    }
    let digest = |r: &Rec| campaign::record_digest(std::slice::from_ref(r));
    let edits: [fn(&mut Rec); 12] = [
        |r| r.index += 1,
        |r| r.spec.class = RegClass::Fpr,
        |r| r.spec.tap_index += 1,
        |r| r.spec.bit += 1,
        |r| r.fired = None,
        |r| fired(r).func = FuncId::WarpPerspective,
        |r| fired(r).op = OpClass::IntAlu,
        |r| fired(r).reg += 1,
        |r| fired(r).bit += 1,
        |r| fired(r).before += 1,
        |r| fired(r).after += 1,
        |r| r.outcome = Outcome::Masked,
    ];
    for (i, edit) in edits.iter().enumerate() {
        let mut r = base.clone();
        edit(&mut r);
        assert_ne!(r.identity(), base.identity(), "edit {i}");
        assert_ne!(digest(&r), digest(&base), "edit {i} left the digest");
    }
    let mut trace = DigestTrace::default();
    trace.fold(Stage::Warp, 0x5eed);
    let extras = Rec {
        sdc_output: Some(vec![1, 2, 3]),
        forensics: Some(ForensicsRecord {
            trace,
            attribution: Attribution::between(&DigestTrace::default(), &trace),
        }),
        ..base.clone()
    };
    assert_eq!(extras.identity(), base.identity());
    assert_eq!(digest(&extras), digest(&base), "extras moved the digest");
    let grouped = Rec {
        spec: FaultSpec {
            group: Some((FuncId::RemapBilinear, OpClass::Addr)),
            ..base.spec
        },
        ..base.clone()
    };
    assert_ne!(grouped.identity(), base.identity());
    assert_eq!(digest(&grouped), digest(&base), "the pins fold no group");
}

#[test]
fn from_scratch_campaigns_are_pinned() {
    let w = workload();
    let golden = campaign::profile_golden(&w).unwrap();
    for (class, expected) in [
        (RegClass::Gpr, 0x3895_f1c6_0c70_79b7),
        (RegClass::Fpr, 0xd69c_0c68_55ca_c559),
    ] {
        let cfg = CampaignConfig::new(class, 24).seed(SEED).threads(2);
        let records = campaign::run_campaign(&w, &golden, &cfg);
        assert_digest(class.name(), &records, expected);
    }
}

#[test]
fn checkpointed_campaign_is_pinned() {
    let w = workload();
    let policy = CheckpointPolicy::EveryKFrames(2);
    let ck = campaign::profile_golden_checkpointed(&w, policy).unwrap();
    let cfg = CampaignConfig::new(RegClass::Gpr, 24)
        .seed(SEED)
        .threads(2)
        .checkpoint_policy(policy);
    let records = campaign::run_campaign_checkpointed(&w, &ck, &cfg);
    assert_digest("checkpointed", &records, 0x3895_f1c6_0c70_79b7);
}

#[test]
fn adaptive_campaign_is_pinned() {
    let w = workload();
    let policy = CheckpointPolicy::EveryKFrames(2);
    let ck = campaign::profile_golden_checkpointed(&w, policy).unwrap();
    // A seed of its own, so this stream is not the fixed campaign's.
    let cfg = CampaignConfig::new(RegClass::Gpr, 48)
        .seed(SEED + 1)
        .threads(2)
        .checkpoint_policy(policy);
    let acfg = AdaptiveConfig {
        epsilon_pp: 25.0,
        batch: 8,
        min_injections: 16,
        knee_tol_pp: 10.0,
    };
    let out = adaptive::run_adaptive_checkpointed(&w, &ck, &cfg, &acfg);
    assert_digest("adaptive", &out.records, 0x4df3_70c7_e58a_9e2e);
}

#[test]
fn pruned_campaign_is_pinned() {
    let w = workload();
    let golden = campaign::profile_golden(&w).unwrap();
    let cfg = PrunedConfig {
        total_pilots: 24,
        min_pilots_per_group: 1,
        seed: SEED,
        hang_factor: 16,
    };
    let res = pruning::run_pruned_campaign(&w, &golden, &cfg);
    assert_digest("pruned", &res.records, 0xbf2e_18f4_c32f_6010);
}

#[test]
fn composed_cold_campaign_is_pinned() {
    let w = workload();
    let golden = campaign::profile_golden_forensic(&w).unwrap();
    let cfg = ComposeConfig {
        seed: SEED,
        epsilon_pp: 100.0,
        batch: 2,
        min_pilots: 2,
        max_pilots: 2,
        hang_factor: 4,
        threads: 2,
    };
    let res = compose::run_composed_campaign(&w, &golden, &cfg, &mut CampaignCache::new());
    assert_eq!(res.reused_groups, 0, "a cold pass injects every group");
    assert_digest("composed cold", &res.records, 0xfcac_6e4b_1ec1_24e9);
}

/// A pruned campaign on a golden run profiled under a function mask:
/// pilots fire only inside the mask, and they resume from the chain the
/// pruned driver captures for itself. That chain is kept only if its
/// re-run reproduces the golden profile, which it does only under the
/// golden run's mask.
#[test]
fn masked_pruned_campaign_is_pinned() {
    let w = workload();
    let mask = FuncMask::only(&[FuncId::WarpPerspective, FuncId::RemapBilinear]);
    let golden = campaign::profile_golden_masked(&w, mask).unwrap();
    let cfg = PrunedConfig {
        total_pilots: 24,
        min_pilots_per_group: 1,
        seed: SEED,
        hang_factor: 16,
    };
    let registry = Arc::new(MetricsRegistry::new());
    let res = {
        let _m = metrics::install(registry.clone());
        pruning::run_pruned_campaign(&w, &golden, &cfg)
    };
    assert!(registry.merged().counter(phase::RUNS_RESUMED) > 0);
    assert!(res
        .records
        .iter()
        .all(|r| r.fired.is_none_or(|f| mask.contains(f.func))));
    assert_digest("masked pruned", &res.records, 0x6654_c5b1_c901_e323);
}

/// A stratified pruned campaign with many pilots per group at a tight
/// hang budget: it reaches the sparsely drawn groups (orientation and
/// description sites among them) and their hang pilots, where debug and
/// release builds once recorded different outcomes. Tier-1 runs this
/// test in the debug profile and `scripts/verify.sh` in release, so a
/// profile split fails one of them.
#[test]
fn stratified_pruned_campaign_is_pinned() {
    let w = workload();
    let golden = campaign::profile_golden(&w).unwrap();
    let cfg = PrunedConfig {
        total_pilots: 128,
        min_pilots_per_group: 8,
        seed: SEED,
        hang_factor: 4,
    };
    let res = pruning::run_pruned_campaign(&w, &golden, &cfg);
    assert_eq!(res.groups.len(), 14, "populated site groups");
    assert_eq!(res.records.len(), 202, "pilots");
    assert_digest("stratified pruned", &res.records, 0xf0b3_ef25_71fc_c2db);
}

/// The forensic golden run's per-stage digests and fold counts, in
/// `Stage::ALL` order. They key every entry of the persisted
/// compositional cache, so a changed digest fold, stage order or
/// instrumentation site would silently cold-start every cache.
#[test]
fn forensic_golden_digests_are_pinned() {
    let golden = campaign::profile_golden_forensic(&workload()).unwrap();
    let trace = golden.digests.expect("forensic golden carries digests");
    let mut h = mix64(Stage::ALL.len() as u64);
    for s in Stage::ALL {
        h = mix64(h ^ trace.digest(s));
        h = mix64(h ^ trace.count(s));
    }
    assert_eq!(
        h, 0x766b_1e44_99bb_83c8,
        "forensic golden digests changed: {h:#018x}"
    );
}
