//! Cross-crate SIMD equivalence: every compiled dispatch level must
//! reproduce the scalar oracle bit-for-bit on golden inputs AND on
//! fault-corrupted inputs.
//!
//! The corrupted inputs matter because SIMD kernels run inside fault
//! campaigns on data an earlier injection already damaged: the
//! bit-exactness contract has to hold on arbitrary bytes, not just on
//! well-behaved rendered frames. Corruption here is deterministic bit
//! flips over the input planes — the same damage an SDC-class fault
//! leaves behind.

use vs_features::fast::{self, FastConfig, FastScratch};
use vs_features::{Descriptor, KeyPoint};
use vs_image::{
    downsample_half_into_level, gaussian_blur_5x5_into_level, GrayImage, RgbImage, SimdLevel,
};
use vs_linalg::{Mat3, Vec2};
use vs_matching::{Match, RatioMatcher, SimpleMatcher};
use vs_rng::SplitMix64;
use vs_video::{render_input, InputSpec};
use vs_warp::warp_perspective_offset_into_level;

fn available_levels() -> Vec<SimdLevel> {
    SimdLevel::ALL
        .into_iter()
        .filter(|l| l.available())
        .collect()
}

/// Flip `n` deterministic bits across a byte plane — the shape of
/// damage an SDC fault leaves in an image that later kernels consume.
fn corrupt_bytes(bytes: &mut [u8], n: usize, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..n {
        let idx = rng.gen_range(0..bytes.len());
        let bit = rng.gen_range(0u32..8);
        bytes[idx] ^= 1 << bit;
    }
}

/// Golden, corrupted, and adversarial saturation-extreme gray images.
fn gray_inputs() -> Vec<(String, GrayImage)> {
    let frame = render_input(
        &InputSpec::input2_preset()
            .with_frames(1)
            .with_frame_size(201, 117),
    )
    .remove(0);
    let golden = frame.to_gray();
    let mut corrupted = golden.clone();
    corrupt_bytes(corrupted.as_bytes_mut(), 400, 0x5EED_0001);
    let checker = GrayImage::from_fn(97, 64, |x, y| if (x + y) % 2 == 0 { 0 } else { 255 });
    vec![
        ("golden".into(), golden),
        ("corrupted".into(), corrupted),
        ("checker".into(), checker),
    ]
}

#[test]
fn blur_levels_match_scalar_on_golden_and_corrupted() {
    for (name, img) in gray_inputs() {
        let (mut tmp_o, mut out_o) = (GrayImage::new(0, 0), GrayImage::new(0, 0));
        gaussian_blur_5x5_into_level(&img, &mut tmp_o, &mut out_o, SimdLevel::Scalar);
        let (mut tmp, mut out) = (GrayImage::new(0, 0), GrayImage::new(0, 0));
        for level in available_levels() {
            gaussian_blur_5x5_into_level(&img, &mut tmp, &mut out, level);
            assert_eq!(out, out_o, "blur {name} level {level}");
        }
    }
}

#[test]
fn downsample_levels_match_scalar_on_golden_and_corrupted() {
    for (name, img) in gray_inputs() {
        let mut out_o = GrayImage::new(0, 0);
        downsample_half_into_level(&img, &mut out_o, SimdLevel::Scalar);
        let mut out = GrayImage::new(0, 0);
        for level in available_levels() {
            downsample_half_into_level(&img, &mut out, level);
            assert_eq!(out, out_o, "downsample {name} level {level}");
        }
    }
}

#[test]
fn fast_levels_match_scalar_on_golden_and_corrupted() {
    let cfg = FastConfig::default();
    for (name, img) in gray_inputs() {
        let mut scratch_o = FastScratch::default();
        let mut out_o: Vec<KeyPoint> = Vec::new();
        fast::detect_into_level(&img, &cfg, &mut scratch_o, &mut out_o, SimdLevel::Scalar).unwrap();
        for level in available_levels() {
            let mut scratch = FastScratch::default();
            let mut out: Vec<KeyPoint> = Vec::new();
            fast::detect_into_level(&img, &cfg, &mut scratch, &mut out, level).unwrap();
            assert_eq!(out, out_o, "fast {name} level {level}");
        }
    }
}

#[test]
fn warp_levels_match_scalar_on_golden_and_corrupted() {
    let frame = render_input(
        &InputSpec::input2_preset()
            .with_frames(1)
            .with_frame_size(160, 120),
    )
    .remove(0);
    let mut corrupted = frame.clone();
    corrupt_bytes(corrupted.as_bytes_mut(), 600, 0x5EED_0002);
    let transforms = [
        Mat3::translation(7.5, -3.0) * Mat3::rotation(0.2),
        Mat3::translation(3.5, -2.25),
        Mat3::from_rows([1.0, 0.01, 2.0, -0.02, 1.0, -1.0, 1e-4, -2e-4, 1.0]),
    ];
    let origin = Vec2::new(-4.0, 2.5);
    for (name, src) in [("golden", &frame), ("corrupted", &corrupted)] {
        for (ti, h) in transforms.iter().enumerate() {
            let warp = |level, dst: &mut RgbImage, mask: &mut GrayImage| {
                warp_perspective_offset_into_level(src, h, 150, 110, origin, dst, mask, level)
                    .unwrap()
            };
            let (mut dst_o, mut mask_o) = (RgbImage::new(0, 0), GrayImage::new(0, 0));
            warp(SimdLevel::Scalar, &mut dst_o, &mut mask_o);
            let (mut dst, mut mask) = (RgbImage::new(0, 0), GrayImage::new(0, 0));
            for level in available_levels() {
                warp(level, &mut dst, &mut mask);
                assert_eq!(dst, dst_o, "warp {name} t{ti} level {level}: pixels");
                assert_eq!(mask, mask_o, "warp {name} t{ti} level {level}: mask");
            }
        }
    }
}

/// Outside a fault session the AVX2 FAST walk records block corners
/// without tapping; inside one it taps every passing centre. On the
/// pyramid of an HD Input 2 frame, at the Paper pipeline's settings
/// (threshold 14, 180 keypoints per level) and the default ones, both
/// walks give the same keypoints and pre-reject count at every level.
#[test]
fn fast_untapped_walk_matches_tapped_walk_on_hd_pyramid() {
    let frame = render_input(
        &InputSpec::input2_preset()
            .with_frames(1)
            .with_frame_size(1280, 720),
    )
    .remove(0);
    let mut pyramid = vec![frame.to_gray()];
    for _ in 0..2 {
        let next = vs_image::downsample_half(pyramid.last().unwrap());
        pyramid.push(next);
    }
    let configs = [
        FastConfig {
            threshold: 14,
            max_keypoints: 180,
            ..FastConfig::default()
        },
        FastConfig::default(),
    ];
    let (mut s_off, mut s_on) = (FastScratch::default(), FastScratch::default());
    let (mut off, mut on): (Vec<KeyPoint>, Vec<KeyPoint>) = (Vec::new(), Vec::new());
    for (i, img) in pyramid.iter().enumerate() {
        for cfg in &configs {
            for level in available_levels() {
                fast::detect_into_level(img, cfg, &mut s_off, &mut off, level).unwrap();
                {
                    let _s = vs_fault::session::begin_profile();
                    fast::detect_into_level(img, cfg, &mut s_on, &mut on, level).unwrap();
                }
                let ctx = format!("pyramid level {i} t={} level {level}", cfg.threshold);
                assert!(!off.is_empty(), "{ctx}: no keypoints");
                assert_eq!(off, on, "{ctx}");
                assert_eq!(s_off.prereject(), s_on.prereject(), "{ctx}");
            }
        }
    }
}

#[test]
fn matchers_match_scalar_on_golden_and_corrupted_descriptors() {
    let mut rng = SplitMix64::new(0x5EED_0003);
    let golden: Vec<Descriptor> = (0..96)
        .map(|_| Descriptor(std::array::from_fn(|_| rng.next_u64())))
        .collect();
    let mut corrupted = golden.clone();
    for d in &mut corrupted {
        let w = rng.gen_range(0..4usize);
        d.0[w] ^= 1u64 << rng.gen_range(0u32..64);
    }
    let ratio = RatioMatcher::default();
    let simple = SimpleMatcher::default();
    for (name, query, train) in [
        ("golden", &golden, &corrupted),
        ("corrupted", &corrupted, &golden),
    ] {
        let mut r_o: Vec<Match> = Vec::new();
        let mut s_o: Vec<Match> = Vec::new();
        ratio
            .matches_into_level(query, train, &mut r_o, SimdLevel::Scalar)
            .unwrap();
        simple
            .matches_into_level(query, train, &mut s_o, SimdLevel::Scalar)
            .unwrap();
        for level in available_levels() {
            let mut r: Vec<Match> = Vec::new();
            let mut s: Vec<Match> = Vec::new();
            ratio
                .matches_into_level(query, train, &mut r, level)
                .unwrap();
            simple
                .matches_into_level(query, train, &mut s, level)
                .unwrap();
            assert_eq!(r, r_o, "ratio {name} level {level}");
            assert_eq!(s, s_o, "simple {name} level {level}");
        }
    }
}
