//! Synthetic aerial-video substrate.
//!
//! The paper evaluates on two VIRAT aerial tapes that cannot be
//! redistributed. This crate generates deterministic stand-ins with the
//! two *properties* the evaluation depends on (§III-B):
//!
//! * **Input 1** — high inter-frame variation: fast panning, rotation and
//!   zoom changes, and abrupt viewpoint cuts. The pipeline produces many
//!   mini-panoramas, approximations drop many frames, and output quality
//!   is more fragile.
//! * **Input 2** — low variation: a slow, steady pan with constant zoom.
//!   Consecutive frames are highly redundant; the pipeline produces one
//!   large panorama robust to approximation.
//!
//! Frames are rendered by flying a virtual camera (translation, rotation,
//! zoom, jitter) over a procedurally generated landscape (value-noise
//! terrain with fields, roads, buildings and tree cover) and adding
//! sensor noise. Everything derives from explicit seeds.
//!
//! # Example
//!
//! ```
//! use vs_video::{InputSpec, render_input};
//!
//! let spec = InputSpec::input2_preset().with_frames(6).with_frame_size(96, 72);
//! let frames = render_input(&spec);
//! assert_eq!(frames.len(), 6);
//! assert_eq!(frames[0].width(), 96);
//! // Deterministic: same spec, same bytes.
//! assert_eq!(render_input(&spec)[3], frames[3]);
//! ```

mod camera;
mod noise;
mod terrain;

pub use camera::{
    render_frame, render_frame_with_objects, CameraPose, MovingObject, Trajectory, TrajectoryKind,
};
pub use noise::{value_noise_2d, ValueNoise};
pub use terrain::{generate_world, WorldConfig};

use vs_image::RgbImage;

/// Full description of a synthetic input video.
#[derive(Debug, Clone, PartialEq)]
pub struct InputSpec {
    /// Human-readable name ("input1"/"input2").
    pub name: &'static str,
    /// Number of frames to render.
    pub frames: usize,
    /// Frame count the trajectory speed is calibrated for. Rendering
    /// fewer frames yields a shorter flight at the same speed (so test
    /// workloads keep realistic inter-frame overlap).
    pub nominal_frames: usize,
    /// Frame width in pixels.
    pub frame_width: usize,
    /// Frame height in pixels.
    pub frame_height: usize,
    /// World generation parameters.
    pub world: WorldConfig,
    /// Camera trajectory.
    pub trajectory: Trajectory,
    /// Sensor noise amplitude (grey levels).
    pub sensor_noise: f64,
    /// Seed for sensor noise.
    pub noise_seed: u64,
    /// Moving ground objects painted into the scene (empty for the
    /// paper's coverage-summarization experiments).
    pub objects: Vec<MovingObject>,
}

impl InputSpec {
    /// The high-variation input (the paper's `09152008flight2tape1_2`).
    pub fn input1_preset() -> Self {
        InputSpec {
            name: "input1",
            frames: 60,
            nominal_frames: 60,
            frame_width: 120,
            frame_height: 90,
            world: WorldConfig {
                seed: 0xED5397896,
                ..WorldConfig::default()
            },
            trajectory: Trajectory::new(TrajectoryKind::HighVariation, 0xF1),
            sensor_noise: 2.0,
            noise_seed: 0x901,
            objects: Vec::new(),
        }
    }

    /// The low-variation input (the paper's `09152008flight2tape2_4`).
    pub fn input2_preset() -> Self {
        InputSpec {
            name: "input2",
            frames: 60,
            nominal_frames: 60,
            frame_width: 120,
            frame_height: 90,
            world: WorldConfig {
                seed: 0x1023E60681B,
                ..WorldConfig::default()
            },
            trajectory: Trajectory::new(TrajectoryKind::LowVariation, 0xF2),
            sensor_noise: 2.0,
            noise_seed: 0x902,
            objects: Vec::new(),
        }
    }

    /// Override the frame count.
    pub fn with_frames(mut self, frames: usize) -> Self {
        self.frames = frames;
        self
    }

    /// Override the frame dimensions.
    pub fn with_frame_size(mut self, width: usize, height: usize) -> Self {
        self.frame_width = width;
        self.frame_height = height;
        self
    }

    /// Replace the moving objects with an explicit set.
    pub fn with_objects(mut self, objects: Vec<MovingObject>) -> Self {
        self.objects = objects;
        self
    }

    /// Camera pose at frame `index` of this spec (convenience for
    /// placing objects in the camera's field of view).
    pub fn pose_at_frame(&self, index: usize) -> CameraPose {
        let denom = self.nominal_frames.max(2) - 1;
        let t = (index as f64 / denom as f64).min(1.0);
        self.trajectory
            .pose_at(t, index, self.world.size, self.world.size)
    }
}

/// Render every frame of an input.
///
/// Rendering happens *outside* the fault-injected pipeline (inputs are
/// generated once and shared across injection runs), so this code is not
/// instrumented.
pub fn render_input(spec: &InputSpec) -> Vec<RgbImage> {
    let world = generate_world(&spec.world);
    render_input_over(spec, &world)
}

/// Render an input over a pre-generated world (lets callers share the
/// expensive world synthesis across specs).
pub fn render_input_over(spec: &InputSpec, world: &RgbImage) -> Vec<RgbImage> {
    (0..spec.frames)
        .map(|i| {
            let denom = spec.nominal_frames.max(2) - 1;
            let t = (i as f64 / denom as f64).min(1.0);
            let pose = spec.trajectory.pose_at(t, i, world.width(), world.height());
            camera::render_frame_with_objects(
                world,
                &pose,
                spec.frame_width,
                spec.frame_height,
                spec.sensor_noise,
                spec.noise_seed ^ (i as u64) << 8,
                &spec.objects,
                i,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: fn() -> InputSpec) -> InputSpec {
        kind().with_frames(8).with_frame_size(80, 60)
    }

    #[test]
    fn rendering_is_deterministic() {
        let spec = tiny(InputSpec::input1_preset);
        let a = render_input(&spec);
        let b = render_input(&spec);
        assert_eq!(a, b);
    }

    #[test]
    fn inputs_differ_from_each_other() {
        let a = render_input(&tiny(InputSpec::input1_preset));
        let b = render_input(&tiny(InputSpec::input2_preset));
        assert_ne!(a[0], b[0]);
    }

    #[test]
    fn frames_are_textured_not_flat() {
        for spec in [
            tiny(InputSpec::input1_preset),
            tiny(InputSpec::input2_preset),
        ] {
            for f in render_input(&spec) {
                let g = f.to_gray();
                let mean = g.mean();
                let var = g
                    .as_bytes()
                    .iter()
                    .map(|&v| (v as f64 - mean).powi(2))
                    .sum::<f64>()
                    / g.as_bytes().len() as f64;
                assert!(
                    var > 25.0,
                    "frame too flat (var {var:.1}) for {}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn consecutive_frames_overlap_strongly_in_input2() {
        let spec = tiny(InputSpec::input2_preset);
        let frames = render_input(&spec);
        // Low-variation input: consecutive frames should be visually
        // close (mean abs difference well under the image contrast).
        for w in frames.windows(2) {
            let a = w[0].to_gray();
            let b = w[1].to_gray();
            let mad = a
                .as_bytes()
                .iter()
                .zip(b.as_bytes())
                .map(|(&x, &y)| (x as i32 - y as i32).unsigned_abs() as u64)
                .sum::<u64>() as f64
                / a.as_bytes().len() as f64;
            assert!(mad < 40.0, "consecutive frames too different: {mad:.1}");
        }
    }

    #[test]
    fn input1_has_more_interframe_variation_than_input2() {
        // Long enough to include input1's viewpoint cuts.
        let f1 = render_input(&tiny(InputSpec::input1_preset).with_frames(24));
        let f2 = render_input(&tiny(InputSpec::input2_preset).with_frames(24));
        let deltas = |frames: &[RgbImage]| -> Vec<f64> {
            frames
                .windows(2)
                .map(|w| {
                    let a = w[0].to_gray();
                    let b = w[1].to_gray();
                    a.as_bytes()
                        .iter()
                        .zip(b.as_bytes())
                        .map(|(&x, &y)| (x as i32 - y as i32).unsigned_abs() as u64)
                        .sum::<u64>() as f64
                        / a.as_bytes().len() as f64
                })
                .collect()
        };
        let d1 = deltas(&f1);
        let d2 = deltas(&f2);
        // Mean MAD saturates once the pan exceeds the texture correlation
        // length, so the discriminator is the worst-case change: input1's
        // rotation/zoom churn and viewpoint cuts produce frame pairs far
        // more different than anything in input2's steady pan.
        let max1 = d1.iter().cloned().fold(0.0, f64::max);
        let max2 = d2.iter().cloned().fold(0.0, f64::max);
        assert!(
            max1 > max2 * 1.3,
            "input1 max delta {max1:.1} must clearly exceed input2 max delta {max2:.1}"
        );
    }

    #[test]
    fn single_frame_input_renders() {
        let spec = tiny(InputSpec::input1_preset).with_frames(1);
        assert_eq!(render_input(&spec).len(), 1);
    }
}
