//! Equivalence proofs for the adaptive/compositional campaign engine.
//!
//! 1. Wilson-gated early stopping must be a pure *truncation*: the
//!    records an adaptive campaign executes are bit-identical to a
//!    prefix of the fixed-budget campaign at the same seed.
//! 2. A warm compositional cache on an unchanged pipeline must re-inject
//!    nothing and reproduce the cold run's estimate exactly.
//! 3. An approximation change must invalidate exactly the groups whose
//!    upstream stage digests diverged — reuse follows the diff.

use video_summarization::prelude::*;
use vs_core::workloads::VsWorkload;
use vs_fault::adaptive::{self, AdaptiveConfig};
use vs_fault::campaign::{CheckpointPolicy, Injection};
use vs_fault::compose::{self, CampaignCache, ComposeConfig};
use vs_fault::forensics::Stage;
use vs_fault::pruning;

fn workload(approx: Approximation) -> VsWorkload {
    experiments::vs_workload(InputId::Input2, Scale::Quick, approx)
}

fn compose_cfg() -> ComposeConfig {
    ComposeConfig {
        seed: 0xADAF,
        // Generous epsilon: unit-scale pilot counts keep the test fast;
        // the statistical behaviour is covered by vs-fault's own tests.
        epsilon_pp: 100.0,
        batch: 4,
        min_pilots: 3,
        max_pilots: 4,
        hang_factor: 16,
        threads: 4,
    }
}

#[test]
fn adaptive_records_are_a_prefix_of_the_fixed_campaign() {
    let w = workload(Approximation::Baseline);
    let golden =
        campaign::profile_golden_checkpointed_forensic(&w, CheckpointPolicy::EveryKFrames(2))
            .unwrap();
    let cfg = CampaignConfig::new(RegClass::Gpr, 96)
        .seed(0xF0E2)
        .threads(4)
        .checkpoint_policy(CheckpointPolicy::EveryKFrames(2));
    let fixed = campaign::run_campaign_checkpointed(&w, &golden, &cfg);

    let acfg = AdaptiveConfig {
        epsilon_pp: 20.0,
        batch: 12,
        min_injections: 24,
        knee_tol_pp: 10.0,
    };
    let adaptive = adaptive::run_adaptive_checkpointed(&w, &golden, &cfg, &acfg);

    assert!(
        adaptive.converged,
        "adaptive campaign must stop early at a 20pp epsilon (executed {}/{})",
        adaptive.records.len(),
        adaptive.budget
    );
    assert!(adaptive.records.len() < fixed.len());
    let [got, want] = [&adaptive.records[..], &fixed[..adaptive.records.len()]]
        .map(|recs| recs.iter().map(Injection::identity).collect::<Vec<_>>());
    assert_eq!(got, want, "early stopping must truncate, never perturb");
    // The adaptive estimate is the running rate at the stopping point.
    let prefix_rates = outcome_rates(&fixed[..adaptive.records.len()]);
    assert_eq!(adaptive.rates, prefix_rates);
    assert!(adaptive::max_half_width(&adaptive.rates) <= acfg.epsilon_pp);
}

#[test]
fn warm_compositional_cache_reinjects_zero_groups() {
    let w = workload(Approximation::Baseline);
    let golden = campaign::profile_golden_forensic(&w).unwrap();
    let cfg = compose_cfg();
    let mut cache = CampaignCache::new();

    let cold = compose::run_composed_campaign(&w, &golden, &cfg, &mut cache);
    assert!(cold.injections_executed > 0);
    assert_eq!(cold.reused_groups, 0);

    let warm = compose::run_composed_campaign(&w, &golden, &cfg, &mut cache);
    assert_eq!(
        warm.injections_executed, 0,
        "warm cache must skip every group"
    );
    assert_eq!(warm.reused_groups, warm.groups.len());
    assert_eq!(
        warm.estimate, cold.estimate,
        "inherited counts must be exact"
    );
    for (c, h) in cold.groups.iter().zip(&warm.groups) {
        assert_eq!(c.key, h.key);
        assert_eq!(c.counts, h.counts);
    }

    // And a cache reloaded from its JSONL serialization is just as warm.
    let mut reloaded = CampaignCache::from_jsonl(&cache.to_jsonl()).unwrap();
    let rewarm = compose::run_composed_campaign(&w, &golden, &cfg, &mut reloaded);
    assert_eq!(rewarm.injections_executed, 0);
    assert_eq!(rewarm.estimate, cold.estimate);
}

#[test]
fn approximation_change_invalidates_exactly_diverged_stage_groups() {
    let base = workload(Approximation::Baseline);
    let golden_base = campaign::profile_golden_forensic(&base).unwrap();
    let cfg = compose_cfg();
    let mut cache = CampaignCache::new();
    compose::run_composed_campaign(&base, &golden_base, &cfg, &mut cache);

    // VS_KDS subsets the key points at the matching stage: stages up to
    // ORB are bit-identical, matching and everything downstream diverge.
    let kds = workload(Approximation::kds_default());
    let golden_kds = campaign::profile_golden_forensic(&kds).unwrap();
    let d_base = golden_base.digests.as_ref().unwrap();
    let d_kds = golden_kds.digests.as_ref().unwrap();

    let upstream_identical = |stage: Stage| {
        Stage::ALL[..=stage.index()]
            .iter()
            .all(|&s| d_base.digest(s) == d_kds.digest(s) && d_base.count(s) == d_kds.count(s))
    };
    // The change must be visible in the golden digests at all, and not
    // from the first stage (the input frames are untouched).
    assert!(!upstream_identical(Stage::Summary), "KDS must move digests");
    assert!(
        upstream_identical(Stage::Decode),
        "KDS must not touch decode"
    );

    let base_groups = pruning::site_groups(&golden_base);
    let res = compose::run_composed_campaign(&kds, &golden_kds, &cfg, &mut cache);
    let mut reused = 0usize;
    for g in &res.groups {
        let stage = g.group.func.stage();
        let same_group_upstream = upstream_identical(stage) && base_groups.contains(&g.group);
        assert_eq!(
            g.reused, same_group_upstream,
            "group {:?}/{:?} at stage {:?}: reuse must track upstream digest equality",
            g.group.func, g.group.op, stage
        );
        reused += usize::from(g.reused);
    }
    assert!(reused > 0, "pre-divergence groups must be inherited");
    assert!(
        reused < res.groups.len(),
        "post-divergence groups must re-inject"
    );
}
