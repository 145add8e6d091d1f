//! Feature detection and description: the ORB pipeline (FAST detector +
//! oriented rBRIEF descriptors) used by the video-summarization
//! application, reimplemented from scratch.
//!
//! The paper's application uses OpenCV's FAST detectors and ORB
//! descriptors "to achieve efficient and accurate feature point detection
//! and matching" (§III-A). This crate provides:
//!
//! * [`fast::detect`] — FAST-9 corner detection with non-maximum
//!   suppression,
//! * [`orientation::intensity_centroid`] — ORB's patch-moment orientation,
//! * [`brief::describe`] — 256-bit rotation-steered BRIEF descriptors,
//! * [`Orb`] — the composed detector/descriptor with pyramid support.
//!
//! All stages are fault-instrumented with `vs-fault` taps; detection
//! routines return `Result<_, SimError>` so corrupted indices surface as
//! simulated segfaults rather than panics.
//!
//! # Example
//!
//! ```
//! use vs_features::{Orb, OrbConfig};
//! use vs_image::GrayImage;
//!
//! // A grid of isolated bright squares has strong corners everywhere.
//! let img = GrayImage::from_fn(96, 96, |x, y| {
//!     if (x % 16) < 8 && (y % 16) < 8 { 230 } else { 25 }
//! });
//! let orb = Orb::new(OrbConfig::default());
//! let features = orb.detect_and_describe(&img)?;
//! assert!(!features.is_empty());
//! # Ok::<(), vs_fault::SimError>(())
//! ```

pub mod brief;
pub mod fast;
mod keypoint;
pub mod orientation;
mod simd;

pub use brief::Descriptor;
pub use keypoint::KeyPoint;

use vs_fault::SimError;
use vs_image::{gaussian_blur_5x5_into, GrayImage};
use vs_telemetry::digest::{self, Stage};

/// A keypoint together with its descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct Feature {
    /// The detected keypoint (coordinates at full resolution).
    pub keypoint: KeyPoint,
    /// Its 256-bit rBRIEF descriptor.
    pub descriptor: Descriptor,
}

/// Configuration of the composed ORB detector.
#[derive(Debug, Clone, PartialEq)]
pub struct OrbConfig {
    /// FAST intensity threshold.
    pub fast_threshold: u8,
    /// Maximum keypoints retained per image (strongest first).
    pub max_features: usize,
    /// Pyramid levels (1 = full resolution only).
    pub levels: usize,
    /// Minimum image side length for a pyramid level to be built.
    pub min_level_size: usize,
}

impl Default for OrbConfig {
    fn default() -> Self {
        OrbConfig {
            fast_threshold: 20,
            max_features: 300,
            levels: 3,
            min_level_size: 32,
        }
    }
}

/// The composed ORB detector/descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct Orb {
    config: OrbConfig,
}

impl Orb {
    /// Create a detector with the given configuration.
    pub fn new(config: OrbConfig) -> Self {
        Orb { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &OrbConfig {
        &self.config
    }

    /// Detect FAST corners across the pyramid, assign orientations, and
    /// extract rBRIEF descriptors. Keypoint coordinates are mapped back
    /// to full resolution.
    ///
    /// # Errors
    ///
    /// Propagates simulated faults ([`SimError`]) from instrumented code.
    pub fn detect_and_describe(&self, img: &GrayImage) -> Result<Vec<Feature>, SimError> {
        let mut scratch = OrbScratch::default();
        let mut features = Vec::new();
        self.detect_and_describe_into(img, &mut scratch, &mut features)?;
        Ok(features)
    }

    /// [`Orb::detect_and_describe`] into caller-owned buffers, reusing
    /// every transient allocation (pyramid levels, blur planes, FAST
    /// candidate buffers, keypoint and descriptor vectors) across calls.
    ///
    /// Tap stream and features are bit-identical to the allocating path:
    /// the pyramid construction and per-level detect/orient/blur/describe
    /// sequence is unchanged, only buffer ownership moved to `scratch`.
    ///
    /// # Errors
    ///
    /// Propagates simulated faults ([`SimError`]) from instrumented code.
    pub fn detect_and_describe_into(
        &self,
        img: &GrayImage,
        scratch: &mut OrbScratch,
        features: &mut Vec<Feature>,
    ) -> Result<(), SimError> {
        features.clear();
        // Telemetry-only stage spans (no taps; near-free without a sink),
        // each around the code whose output its stage's digest folds.
        let pyramid = vs_telemetry::span(Stage::Pyramid.name());
        // scratch.levels[i] holds pyramid level i+1, level 0 is `img`
        // itself.
        let max_levels = self.config.levels.max(1);
        let min_size = self.config.min_level_size;
        let mut n_levels = 1usize;
        while n_levels < max_levels {
            let (built, rest) = scratch.levels.split_at_mut(n_levels - 1);
            let prev: &GrayImage = if n_levels == 1 {
                img
            } else {
                &built[n_levels - 2]
            };
            if prev.width() / 2 < min_size || prev.height() / 2 < min_size {
                break;
            }
            match rest.first_mut() {
                Some(slot) => {
                    vs_image::downsample_half_into(prev, slot);
                }
                None => {
                    let level = vs_image::downsample_half(prev);
                    scratch.levels.push(level);
                }
            }
            n_levels += 1;
        }

        // One digest per *built* pyramid level (level 0 is the caller's
        // image, already covered by the decode-stage digest).
        for level in &scratch.levels[..n_levels - 1] {
            digest::record_bytes(Stage::Pyramid, level.as_bytes());
        }
        drop(pyramid);

        let per_level = self.config.max_features / n_levels;
        let mut fast_prereject = 0u64;
        for level in 0..n_levels {
            let level_img: &GrayImage = if level == 0 {
                img
            } else {
                &scratch.levels[level - 1]
            };
            let fast_span = vs_telemetry::span(Stage::Fast.name());
            fast::detect_into(
                level_img,
                &fast::FastConfig {
                    threshold: self.config.fast_threshold,
                    max_keypoints: per_level.max(8),
                    ..fast::FastConfig::default()
                },
                &mut scratch.fast,
                &mut scratch.kps,
            )?;
            fast_prereject += scratch.fast.prereject();
            if digest::enabled() {
                let mut h = 0u64;
                for kp in &scratch.kps {
                    h = digest::hash_fold(h, kp.x.to_bits());
                    h = digest::hash_fold(h, kp.y.to_bits());
                    h = digest::hash_fold(h, kp.response.to_bits());
                }
                digest::record(Stage::Fast, h);
            }
            drop(fast_span);
            let _orb = vs_telemetry::span(Stage::Orb.name());
            orientation::assign_orientations_mut(level_img, &mut scratch.kps)?;
            gaussian_blur_5x5_into(level_img, &mut scratch.blur_tmp, &mut scratch.smoothed);
            brief::describe_into(&scratch.smoothed, &scratch.kps, &mut scratch.descs)?;
            if digest::enabled() {
                let mut h = 0u64;
                for (kp, desc) in scratch.kps.iter().zip(&scratch.descs) {
                    h = digest::hash_fold(h, kp.angle.to_bits());
                    for w in desc.0 {
                        h = digest::hash_fold(h, w);
                    }
                }
                digest::record(Stage::Orb, h);
            }
            let scale = (1u64 << level) as f64;
            for (kp, desc) in scratch.kps.iter().zip(&scratch.descs) {
                features.push(Feature {
                    keypoint: KeyPoint {
                        x: kp.x * scale,
                        y: kp.y * scale,
                        level: level as u8,
                        ..*kp
                    },
                    descriptor: *desc,
                });
            }
        }
        vs_telemetry::emit(
            "orb",
            &[
                ("keypoints", vs_telemetry::Value::U64(features.len() as u64)),
                ("levels", vs_telemetry::Value::U64(n_levels as u64)),
                ("fast_prereject", vs_telemetry::Value::U64(fast_prereject)),
            ],
        );
        Ok(())
    }
}

/// Reusable buffers for [`Orb::detect_and_describe_into`]: downsampled
/// pyramid levels, blur planes, FAST scratch, and per-level keypoint /
/// descriptor vectors.
#[derive(Debug, Default)]
pub struct OrbScratch {
    levels: Vec<GrayImage>,
    blur_tmp: GrayImage,
    smoothed: GrayImage,
    fast: fast::FastScratch,
    kps: Vec<KeyPoint>,
    descs: Vec<Descriptor>,
}

impl OrbScratch {
    /// Total heap footprint (element counts of the owned buffers).
    pub fn footprint(&self) -> usize {
        self.levels.capacity()
            + self.levels.iter().map(|l| l.capacity()).sum::<usize>()
            + self.blur_tmp.capacity()
            + self.smoothed.capacity()
            + self.fast.footprint()
            + self.kps.capacity()
            + self.descs.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A grid of isolated bright squares on a dark field: every square
    /// contributes four strong FAST corners (unlike a checkerboard, whose
    /// X-junctions FAST famously rejects).
    fn checkerboard(side: usize, cell: usize) -> GrayImage {
        GrayImage::from_fn(side, side, |x, y| {
            if (x % cell) < cell / 2 && (y % cell) < cell / 2 {
                230
            } else {
                25
            }
        })
    }

    #[test]
    fn orb_finds_features_on_textured_images() {
        let orb = Orb::new(OrbConfig::default());
        let feats = orb.detect_and_describe(&checkerboard(128, 16)).unwrap();
        assert!(feats.len() > 20, "found only {} features", feats.len());
        for f in &feats {
            assert!(f.keypoint.x >= 0.0 && f.keypoint.x < 128.0);
            assert!(f.keypoint.y >= 0.0 && f.keypoint.y < 128.0);
        }
    }

    #[test]
    fn orb_finds_nothing_on_flat_images() {
        let orb = Orb::new(OrbConfig::default());
        let img = GrayImage::from_fn(96, 96, |_, _| 128);
        let feats = orb.detect_and_describe(&img).unwrap();
        assert!(feats.is_empty());
    }

    #[test]
    fn orb_respects_max_features() {
        let cfg = OrbConfig {
            max_features: 30,
            levels: 1,
            ..OrbConfig::default()
        };
        let feats = Orb::new(cfg)
            .detect_and_describe(&checkerboard(160, 10))
            .unwrap();
        assert!(feats.len() <= 30);
        assert!(!feats.is_empty());
    }

    #[test]
    fn orb_is_deterministic() {
        let orb = Orb::new(OrbConfig::default());
        let img = checkerboard(96, 12);
        let a = orb.detect_and_describe(&img).unwrap();
        let b = orb.detect_and_describe(&img).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn scratch_reuse_matches_fresh_detection() {
        let orb = Orb::new(OrbConfig::default());
        let imgs = [
            checkerboard(128, 16),
            checkerboard(96, 12),
            checkerboard(128, 16),
        ];
        let mut scratch = OrbScratch::default();
        let mut out = Vec::new();
        for img in &imgs {
            orb.detect_and_describe_into(img, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, orb.detect_and_describe(img).unwrap());
        }
        let footprint = scratch.footprint();
        orb.detect_and_describe_into(&imgs[0], &mut scratch, &mut out)
            .unwrap();
        assert_eq!(scratch.footprint(), footprint, "steady state must not grow");
    }

    #[test]
    fn pyramid_levels_contribute_features() {
        let cfg = OrbConfig {
            levels: 3,
            ..OrbConfig::default()
        };
        let feats = Orb::new(cfg)
            .detect_and_describe(&checkerboard(192, 24))
            .unwrap();
        let has_level_gt0 = feats.iter().any(|f| f.keypoint.level > 0);
        assert!(has_level_gt0, "expected features from coarser levels");
    }

    /// The levels ORB builds: each halves the previous one, odd trailing
    /// rows and columns dropped, until `levels` exist (the base counts)
    /// or the next would fall below `min_level_size` on a side.
    #[test]
    fn pyramid_stops_at_min_size_and_max_levels() {
        let build = |(w, h), levels, min_level_size| {
            let img = GrayImage::from_fn(w, h, |x, y| (x * 7 + y * 13) as u8);
            let orb = Orb::new(OrbConfig {
                levels,
                min_level_size,
                ..OrbConfig::default()
            });
            let mut scratch = OrbScratch::default();
            orb.detect_and_describe_into(&img, &mut scratch, &mut Vec::new())
                .unwrap();
            let sizes = scratch.levels.iter().map(|l| (l.width(), l.height()));
            (img, sizes.collect::<Vec<_>>(), scratch.levels)
        };
        // 64 -> 32 -> 16, then 16 / 2 = 8 < 16 stops.
        assert_eq!(build((64, 64), 10, 16).1, [(32, 32), (16, 16)]);
        assert_eq!(build((1024, 1024), 3, 4).1, [(512, 512), (256, 256)]);
        assert!(build((64, 64), 0, 2).1.is_empty(), "the base alone");
        let (hd, sizes, levels) = build((1919, 1079), 4, 8);
        assert_eq!(sizes, [(959, 539), (479, 269), (239, 134)]);
        assert_eq!(levels[0], vs_image::downsample_half(&hd), "level 1");
    }

    #[test]
    fn shifted_image_shifts_features() {
        // Translate the checkerboard by 4px; matching corners should exist
        // at translated positions (allowing detection jitter).
        let a = checkerboard(128, 16);
        let b = GrayImage::from_fn(128, 128, |x, y| {
            a.get_clamped(x as isize - 4, y as isize - 4)
        });
        let orb = Orb::new(OrbConfig {
            levels: 1,
            ..OrbConfig::default()
        });
        let fa = orb.detect_and_describe(&a).unwrap();
        let fb = orb.detect_and_describe(&b).unwrap();
        let mut shifted_hits = 0;
        for f in fa.iter().take(40) {
            if fb.iter().any(|g| {
                (g.keypoint.x - f.keypoint.x - 4.0).abs() <= 1.5
                    && (g.keypoint.y - f.keypoint.y - 4.0).abs() <= 1.5
            }) {
                shifted_hits += 1;
            }
        }
        assert!(
            shifted_hits >= 10,
            "only {shifted_hits} corners tracked the shift"
        );
    }
}
