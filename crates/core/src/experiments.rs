//! Canonical experiment setups shared by tests, benches and the `repro`
//! harness.
//!
//! The paper runs each configuration on two VIRAT inputs of 1000 frames.
//! Our synthetic stand-ins are parameterized by [`Scale`]: `Quick` keeps
//! CI and unit tests fast, `Paper` is the default for regenerating
//! figures, and frame counts can be raised further from the `repro`
//! binary for higher-fidelity runs.

use crate::config::{Approximation, PipelineConfig};
use crate::workloads::VsWorkload;
use vs_video::{render_input, InputSpec, WorldConfig};

/// Which of the paper's two inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputId {
    /// High-variation aerial tape (`09152008flight2tape1_2`).
    Input1,
    /// Low-variation aerial tape (`09152008flight2tape2_4`).
    Input2,
}

impl InputId {
    /// Both inputs, in paper order.
    pub const BOTH: [InputId; 2] = [InputId::Input1, InputId::Input2];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            InputId::Input1 => "Input1",
            InputId::Input2 => "Input2",
        }
    }
}

impl std::fmt::Display for InputId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Experiment fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Small frames, short flight: seconds per campaign. For tests.
    Quick,
    /// The figure-regeneration default (scaled down from the paper's
    /// 1000 frames to keep thousand-injection campaigns tractable on a
    /// laptop; shapes are preserved).
    Paper,
}

/// The input spec for an input at a scale.
pub fn input_spec(input: InputId, scale: Scale) -> InputSpec {
    let base = match input {
        InputId::Input1 => InputSpec::input1_preset(),
        InputId::Input2 => InputSpec::input2_preset(),
    };
    match scale {
        Scale::Quick => InputSpec {
            world: WorldConfig {
                size: 560,
                fields: 26,
                roads: 11,
                buildings: 140,
                tree_clusters: 85,
                ..base.world
            },
            ..base
        }
        .with_frames(10)
        .with_frame_size(96, 72),
        Scale::Paper => base.with_frames(40).with_frame_size(120, 90),
    }
}

/// The pipeline configuration for a scale and approximation.
pub fn pipeline_config(scale: Scale, approx: Approximation) -> PipelineConfig {
    let base = PipelineConfig::default();
    let base = match scale {
        Scale::Quick => PipelineConfig {
            orb: vs_features::OrbConfig {
                max_features: 160,
                levels: 2,
                ..base.orb
            },
            ransac: vs_geometry::RansacConfig {
                iterations: 80,
                ..base.ransac
            },
            ..base
        },
        Scale::Paper => PipelineConfig {
            orb: vs_features::OrbConfig {
                max_features: 360,
                ..base.orb
            },
            ..base
        },
    };
    base.with_approximation(approx)
}

/// Build the complete VS workload for `(input, scale, approximation)`:
/// renders the synthetic input and pairs it with the matching pipeline
/// configuration.
pub fn vs_workload(input: InputId, scale: Scale, approx: Approximation) -> VsWorkload {
    let frames = render_input(&input_spec(input, scale));
    VsWorkload::new(frames, pipeline_config(scale, approx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_differ_by_input_and_scale() {
        let a = input_spec(InputId::Input1, Scale::Quick);
        let b = input_spec(InputId::Input2, Scale::Quick);
        assert_ne!(a.trajectory, b.trajectory);
        let c = input_spec(InputId::Input1, Scale::Paper);
        assert!(c.frames > a.frames);
        assert!(c.frame_width > a.frame_width);
    }

    #[test]
    fn quick_workload_summarizes() {
        let w = vs_workload(InputId::Input2, Scale::Quick, Approximation::Baseline);
        let s = w.summarize().unwrap();
        assert!(!s.panoramas.is_empty());
        assert_eq!(s.stats.frames_in, 10);
    }

    #[test]
    fn input_names_match_paper() {
        assert_eq!(InputId::Input1.to_string(), "Input1");
        assert_eq!(InputId::BOTH.len(), 2);
    }
}
