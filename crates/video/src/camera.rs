//! Virtual UAV camera: pose model, trajectories and frame rendering.

use crate::noise::value_noise_2d;
use vs_image::{saturate_u8, RgbImage};
use vs_linalg::{Mat3, Vec2};

/// A camera pose over the world plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraPose {
    /// World coordinates the frame centre looks at.
    pub center: Vec2,
    /// Roll angle in radians.
    pub angle: f64,
    /// Ground-sample scale: world pixels per frame pixel (zoom).
    pub scale: f64,
}

impl CameraPose {
    /// The transform mapping frame pixel coordinates to world
    /// coordinates for a `fw`×`fh` frame.
    pub fn world_from_frame(&self, fw: usize, fh: usize) -> Mat3 {
        Mat3::translation(self.center.x, self.center.y)
            * Mat3::rotation(self.angle)
            * Mat3::scaling(self.scale)
            * Mat3::translation(-(fw as f64) / 2.0, -(fh as f64) / 2.0)
    }
}

/// The two trajectory archetypes of the paper's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrajectoryKind {
    /// Input 1: fast pan, rotation/zoom changes, abrupt viewpoint cuts.
    HighVariation,
    /// Input 2: slow steady pan, constant zoom, no cuts.
    LowVariation,
}

/// A deterministic camera path over the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trajectory {
    kind: TrajectoryKind,
    seed: u64,
}

impl Trajectory {
    /// Create a trajectory of the given archetype.
    pub fn new(kind: TrajectoryKind, seed: u64) -> Self {
        Trajectory { kind, seed }
    }

    /// The archetype of this trajectory.
    pub fn kind(&self) -> TrajectoryKind {
        self.kind
    }

    /// Pose at progress `t ∈ [0, 1]` (frame `index`), for a world of the
    /// given dimensions. The margin keeps the footprint inside the world.
    pub fn pose_at(&self, t: f64, index: usize, world_w: usize, world_h: usize) -> CameraPose {
        let ww = world_w as f64;
        let wh = world_h as f64;
        let margin_x = ww * 0.22;
        let margin_y = wh * 0.22;
        let span_x = ww - 2.0 * margin_x;
        let span_y = wh - 2.0 * margin_y;
        // Deterministic jitter per frame.
        let jit = |salt: u64, amp: f64| {
            (value_noise_2d(self.seed ^ salt, index as f64 * 0.9, 0.0) - 0.5) * 2.0 * amp
        };
        match self.kind {
            TrajectoryKind::LowVariation => {
                // Gentle S-curve across the world, constant zoom.
                let x = margin_x + span_x * t;
                let y = margin_y + span_y * (0.5 + 0.25 * (t * std::f64::consts::PI * 2.0).sin());
                CameraPose {
                    center: Vec2::new(x + jit(1, 0.6), y + jit(2, 0.6)),
                    angle: 0.04 * (t * 3.0).sin() + jit(3, 0.004),
                    scale: 1.0,
                }
            }
            TrajectoryKind::HighVariation => {
                // Many short legs separated by abrupt viewpoint cuts: the
                // camera dashes across the world, re-targets, and dashes
                // again. Consecutive frames overlap enough to stitch, but
                // skipping one frame (as VS_RFD does) shrinks the overlap
                // below matchability — the paper's discard cascade.
                let legs = 8.0;
                let leg = (t * legs).floor().min(legs - 1.0);
                let lt = t * legs - leg; // progress within the leg
                let leg_u = leg as u64;
                let base =
                    |salt: u64| value_noise_2d(self.seed ^ salt ^ (leg_u * 0x51), 7.3 * leg, 1.1);
                // Endpoints forced to opposite halves of the world so every
                // leg sweeps a long path (fast pan), alternating direction.
                let near = |b: f64| 0.05 + 0.35 * b;
                let far = |b: f64| 0.60 + 0.35 * b;
                let (fx0, fx1) = if leg_u.is_multiple_of(2) {
                    (near(base(10)), far(base(12)))
                } else {
                    (far(base(10)), near(base(12)))
                };
                let (fy0, fy1) = if !leg_u.is_multiple_of(2) {
                    (near(base(11)), far(base(13)))
                } else {
                    (far(base(11)), near(base(13)))
                };
                let x = margin_x + span_x * (fx0 + (fx1 - fx0) * lt);
                let y = margin_y + span_y * (fy0 + (fy1 - fy0) * lt);
                let angle = 0.6 * (base(14) - 0.5) + 0.5 * lt + jit(4, 0.015);
                let scale = 0.9 + 0.2 * ((lt * 5.0 + leg * 2.0).sin());
                CameraPose {
                    center: Vec2::new(x + jit(5, 1.6), y + jit(6, 1.6)),
                    angle,
                    scale,
                }
            }
        }
    }
}

/// A moving ground object (vehicle-like) rendered into the scene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovingObject {
    /// World position of the object's centre at frame 0.
    pub start: Vec2,
    /// World-pixels-per-frame velocity.
    pub velocity: Vec2,
    /// Half-extents of the painted rectangle, world pixels.
    pub half_size: (f64, f64),
    /// Body colour.
    pub color: [u8; 3],
}

impl MovingObject {
    /// World position of the centre at a frame index.
    pub fn position_at(&self, frame: usize) -> Vec2 {
        self.start + self.velocity * frame as f64
    }

    /// Whether a world coordinate falls inside the object at `frame`.
    pub fn covers(&self, world: Vec2, frame: usize) -> bool {
        let c = self.position_at(frame);
        (world.x - c.x).abs() <= self.half_size.0 && (world.y - c.y).abs() <= self.half_size.1
    }
}

/// Render one frame: inverse-warp the world through the pose transform,
/// paint moving objects, and add deterministic sensor noise.
#[allow(clippy::too_many_arguments)] // one call site per renderer; a config struct would obscure it
pub fn render_frame_with_objects(
    world: &RgbImage,
    pose: &CameraPose,
    fw: usize,
    fh: usize,
    noise_amp: f64,
    noise_seed: u64,
    objects: &[MovingObject],
    frame_index: usize,
) -> RgbImage {
    let m = pose.world_from_frame(fw, fh);
    RgbImage::from_fn(fw, fh, |x, y| {
        let p = Vec2::new(x as f64, y as f64);
        let w = m.apply(p).unwrap_or(Vec2::ZERO);
        let mut s = world.sample_bilinear(w.x, w.y).unwrap_or([0.0, 0.0, 0.0]);
        for o in objects {
            if o.covers(w, frame_index) {
                s = [o.color[0] as f64, o.color[1] as f64, o.color[2] as f64];
                break;
            }
        }
        let n =
            (value_noise_2d(noise_seed, x as f64 * 3.1, y as f64 * 2.7) - 0.5) * 2.0 * noise_amp;
        [
            saturate_u8(s[0] + n),
            saturate_u8(s[1] + n),
            saturate_u8(s[2] + n),
        ]
    })
}

/// Render one frame without moving objects.
pub fn render_frame(
    world: &RgbImage,
    pose: &CameraPose,
    fw: usize,
    fh: usize,
    noise_amp: f64,
    noise_seed: u64,
) -> RgbImage {
    render_frame_with_objects(world, pose, fw, fh, noise_amp, noise_seed, &[], 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_from_frame_centres_the_view() {
        let pose = CameraPose {
            center: Vec2::new(100.0, 80.0),
            angle: 0.3,
            scale: 1.5,
        };
        let m = pose.world_from_frame(40, 30);
        let c = m.apply(Vec2::new(20.0, 15.0)).unwrap();
        assert!((c - pose.center).norm() < 1e-9);
    }

    #[test]
    fn zero_pose_is_pure_crop() {
        let pose = CameraPose {
            center: Vec2::new(20.0, 15.0),
            angle: 0.0,
            scale: 1.0,
        };
        let m = pose.world_from_frame(40, 30);
        // Frame (0,0) maps to world (0,0) for this centre.
        let p = m.apply(Vec2::ZERO).unwrap();
        assert!((p - Vec2::ZERO).norm() < 1e-9);
    }

    #[test]
    fn low_variation_path_moves_smoothly() {
        let tr = Trajectory::new(TrajectoryKind::LowVariation, 7);
        let mut prev = tr.pose_at(0.0, 0, 768, 768);
        for i in 1..50 {
            let t = i as f64 / 49.0;
            let pose = tr.pose_at(t, i, 768, 768);
            let step = (pose.center - prev.center).norm();
            assert!(step < 25.0, "step {step:.1} too large for smooth pan");
            assert_eq!(pose.scale, 1.0);
            prev = pose;
        }
    }

    #[test]
    fn high_variation_path_has_cuts_and_zoom() {
        let tr = Trajectory::new(TrajectoryKind::HighVariation, 7);
        let poses: Vec<_> = (0..60)
            .map(|i| tr.pose_at(i as f64 / 59.0, i, 768, 768))
            .collect();
        let max_step = poses
            .windows(2)
            .map(|w| (w[1].center - w[0].center).norm())
            .fold(0.0, f64::max);
        assert!(
            max_step > 40.0,
            "expected an abrupt cut, max step {max_step:.1}"
        );
        let zooms: Vec<f64> = poses.iter().map(|p| p.scale).collect();
        let zmin = zooms.iter().cloned().fold(f64::MAX, f64::min);
        let zmax = zooms.iter().cloned().fold(f64::MIN, f64::max);
        assert!(zmax - zmin > 0.1, "zoom must vary: {zmin:.2}..{zmax:.2}");
    }

    #[test]
    fn poses_stay_inside_world_margins() {
        for kind in [TrajectoryKind::HighVariation, TrajectoryKind::LowVariation] {
            let tr = Trajectory::new(kind, 3);
            for i in 0..80 {
                let p = tr.pose_at(i as f64 / 79.0, i, 512, 512);
                assert!(
                    p.center.x > 60.0 && p.center.x < 452.0,
                    "{kind:?} x {}",
                    p.center.x
                );
                assert!(
                    p.center.y > 60.0 && p.center.y < 452.0,
                    "{kind:?} y {}",
                    p.center.y
                );
            }
        }
    }

    #[test]
    fn render_frame_is_deterministic_and_sized() {
        let world = RgbImage::from_fn(128, 128, |x, y| [(x * 2) as u8, (y * 2) as u8, 9]);
        let pose = CameraPose {
            center: Vec2::new(64.0, 64.0),
            angle: 0.1,
            scale: 1.0,
        };
        let a = render_frame(&world, &pose, 40, 30, 2.0, 5);
        let b = render_frame(&world, &pose, 40, 30, 2.0, 5);
        assert_eq!(a, b);
        assert_eq!((a.width(), a.height()), (40, 30));
        let c = render_frame(&world, &pose, 40, 30, 2.0, 6);
        assert_ne!(a, c, "different noise seed must change pixels");
    }
}
