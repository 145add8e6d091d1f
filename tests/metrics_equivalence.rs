//! Zero-perturbation proof for the metrics layer: arming per-worker
//! phase histograms must never change what the fault simulator
//! computes. Fault draws, firing records and outcome classifications
//! have to be bit-for-bit identical with metrics off and with a
//! registry collecting every phase sample — across thread counts, both
//! checkpoint policies, and compositional pilots. Metrics live outside
//! the simulated machine; any divergence here means a timer leaked into
//! the tap stream.

use std::sync::Arc;
use video_summarization::prelude::*;
use vs_core::workloads::VsWorkload;
use vs_fault::campaign::{phase, CheckpointPolicy, Injection};
use vs_fault::compose::{self, CampaignCache, ComposeConfig};
use vs_telemetry::metrics::{self, MetricsRegistry};

fn workload() -> VsWorkload {
    experiments::vs_workload(InputId::Input2, Scale::Quick, Approximation::Baseline)
}

/// (spec, outcome, fired) fingerprint of a campaign — everything the
/// resiliency statistics are built from.
fn fingerprint(recs: &[Injection<Vec<RgbImage>>]) -> Vec<String> {
    recs.iter()
        .map(|r| format!("{} {:?} {:?}", r.spec, r.outcome, r.fired))
        .collect()
}

#[test]
fn campaigns_are_identical_with_metrics_registry_installed() {
    let w = workload();
    let golden = campaign::profile_golden(&w).unwrap();
    const N: usize = 16;

    for threads in [1usize, 4] {
        let cfg = CampaignConfig::new(RegClass::Gpr, N)
            .seed(0x7E1E)
            .threads(threads);
        let quiet = campaign::run_campaign(&w, &golden, &cfg);

        let reg = Arc::new(MetricsRegistry::new());
        let metered = {
            let _g = metrics::install(reg.clone());
            campaign::run_campaign(&w, &golden, &cfg)
        };
        assert_eq!(
            fingerprint(&quiet),
            fingerprint(&metered),
            "metrics perturbed campaign at threads({threads})"
        );

        // The registry really collected: one exec sample per injection,
        // one wall sample per worker, and the phase sums nest inside
        // the wall denominator.
        let m = reg.merged();
        let exec = m.histogram(phase::EXEC).expect("exec histogram");
        assert_eq!(exec.count(), N as u64);
        let wall = m.histogram(phase::WORKER_WALL).expect("wall histogram");
        assert_eq!(wall.count(), threads as u64);
        let attributed: u64 = phase::TOP
            .iter()
            .filter_map(|p| m.histogram(p))
            .map(|h| h.sum())
            .sum();
        assert!(attributed > 0 && attributed <= wall.sum());
    }
}

#[test]
fn checkpointed_campaigns_are_identical_with_metrics_registry_installed() {
    let w = workload();
    let ck = campaign::profile_golden_checkpointed(&w, CheckpointPolicy::EveryKFrames(2)).unwrap();
    const N: usize = 16;

    for threads in [1usize, 4] {
        let cfg = CampaignConfig::new(RegClass::Gpr, N)
            .seed(0x7E1E)
            .threads(threads)
            .checkpoint_policy(CheckpointPolicy::EveryKFrames(2));
        let quiet = campaign::run_campaign_checkpointed(&w, &ck, &cfg);

        let reg = Arc::new(MetricsRegistry::new());
        let metered = {
            let _g = metrics::install(reg.clone());
            campaign::run_campaign_checkpointed(&w, &ck, &cfg)
        };
        assert_eq!(
            fingerprint(&quiet),
            fingerprint(&metered),
            "metrics perturbed checkpointed campaign at threads({threads})"
        );

        // Every run is counted exactly once as resumed or from-scratch.
        let m = reg.merged();
        assert_eq!(
            m.counter(phase::RUNS_RESUMED) + m.counter(phase::RUNS_FROM_SCRATCH),
            N as u64
        );
        assert!(
            m.histogram(phase::RESTORE).is_some(),
            "resumed runs must time checkpoint restore"
        );
    }
}

/// Compose pilots run on the campaign executor too: a cold composed
/// pass produces identical records with a registry installed, records
/// one `exec` sample per pilot, fast-forwards pilots from the golden
/// chain it captures (timing their restores), and keeps its records
/// free of forensic payloads and retained outputs.
#[test]
fn composed_pilots_are_identical_with_metrics_registry_installed() {
    let w = workload();
    let golden = campaign::profile_golden_forensic(&w).unwrap();
    let cfg = ComposeConfig {
        seed: 0x7E1E,
        epsilon_pp: 100.0,
        batch: 2,
        min_pilots: 2,
        max_pilots: 2,
        hang_factor: 4,
        threads: 2,
    };
    let quiet = compose::run_composed_campaign(&w, &golden, &cfg, &mut CampaignCache::new());
    let reg = Arc::new(MetricsRegistry::new());
    let metered = {
        let _g = metrics::install(reg.clone());
        compose::run_composed_campaign(&w, &golden, &cfg, &mut CampaignCache::new())
    };
    assert!(metered.injections_executed > 0);
    assert_eq!(
        fingerprint(&quiet.records),
        fingerprint(&metered.records),
        "metrics perturbed the composed pilots"
    );
    let pilots = metered.injections_executed as u64;
    let m = reg.merged();
    assert_eq!(m.histogram(phase::EXEC).expect("exec").count(), pilots);
    assert_eq!(
        m.counter(phase::RUNS_RESUMED) + m.counter(phase::RUNS_FROM_SCRATCH),
        pilots
    );
    assert!(
        m.counter(phase::RUNS_RESUMED) > 0,
        "compose pilots must resume from the captured chain"
    );
    assert!(
        m.histogram(phase::RESTORE).is_some(),
        "resumed pilots must time checkpoint restore"
    );
    assert!(metered
        .records
        .iter()
        .all(|r| r.forensics.is_none() && r.sdc_output.is_none()));
}
