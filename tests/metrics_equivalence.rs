//! Zero-perturbation proof for the metrics layer: the metrics cells of
//! the observation matrix (see `observation/mod.rs`). Arming per-worker
//! phase histograms must leave fault draws, firing records and outcome
//! classifications bit-for-bit identical, across thread counts,
//! checkpoint policies and compositional pilots, while the registry
//! collects every phase sample; any divergence means a timer leaked
//! into the tap stream.

mod observation;

use observation::{check, Caps, Flavour};

#[test]
fn campaigns_are_identical_with_metrics_registry_installed() {
    check(Caps::Metrics, Flavour::Scratch);
}

#[test]
fn checkpointed_campaigns_are_identical_with_metrics_registry_installed() {
    check(Caps::Metrics, Flavour::Checkpointed);
}

#[test]
fn composed_pilots_are_identical_with_metrics_registry_installed() {
    check(Caps::Metrics, Flavour::Composed);
}
