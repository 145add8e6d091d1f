//! Rotation-steered BRIEF (rBRIEF) descriptors — ORB's descriptor half.
//!
//! Each keypoint gets a 256-bit binary string: bit *i* compares the
//! smoothed intensities of a fixed pair of offsets inside a ±[`PATCH`]
//! patch, with the pair pattern rotated by the keypoint's orientation.
//! The pattern itself is generated once, deterministically, from the
//! crate-fixed seed, so descriptors are comparable across runs and
//! processes.
//!
//! At the AVX2 dispatch level the pair loop runs in the vector sampler
//! (`simd::brief_words`), four pairs per step over the pattern's
//! coordinate columns (`pattern_columns`). It samples exactly the
//! pixels the scalar loop samples, which stays as the other levels'
//! path and as the sampler's oracle; the taps are the same at every
//! level.

use crate::keypoint::KeyPoint;
use std::sync::OnceLock;
use vs_fault::{mix64, tap, FuncId, OpClass, SimError};
use vs_image::GrayImage;

/// Half-width of the descriptor sampling patch.
pub const PATCH: i32 = 8;

/// Number of descriptor bits.
pub const BITS: usize = 256;

/// A 256-bit binary descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Descriptor(pub [u64; 4]);

impl Descriptor {
    /// XOR+popcount over one 128-bit half (`h` = 0 or 1) — the single
    /// shared core both [`Self::hamming`] and [`Self::hamming_bounded`]
    /// build on, so the two paths cannot drift apart.
    #[inline(always)]
    fn half_hamming(&self, other: &Descriptor, h: usize) -> u32 {
        (self.0[2 * h] ^ other.0[2 * h]).count_ones()
            + (self.0[2 * h + 1] ^ other.0[2 * h + 1]).count_ones()
    }

    /// Hamming distance to another descriptor (0..=256).
    #[inline]
    pub fn hamming(&self, other: &Descriptor) -> u32 {
        self.half_hamming(other, 0) + self.half_hamming(other, 1)
    }

    /// Hamming distance to `other` when it is strictly below `bound`,
    /// else `None` — abandoning the scan once per 128 bits, when the
    /// first half's popcount already reaches `bound`. Half-wise partial
    /// sums are monotone, so this is exact: `Some(d)` iff
    /// `self.hamming(other) < bound`, with `d` the true distance, and
    /// the matchers' `hamming_early_exits` telemetry (one per `None`)
    /// is unchanged from the word-wise scan it replaces.
    ///
    /// Brute-force matchers use this to skip most of each candidate's
    /// 256 bits once a closer neighbour is known.
    #[inline]
    pub fn hamming_bounded(&self, other: &Descriptor, bound: u32) -> Option<u32> {
        let lo = self.half_hamming(other, 0);
        if lo >= bound {
            return None;
        }
        let d = lo + self.half_hamming(other, 1);
        (d < bound).then_some(d)
    }

    /// Scalar reference oracle for [`Self::hamming`]: the original
    /// word-by-word iterator chain. Kept for the kernel equivalence
    /// harness and `kernel_bench`.
    pub fn hamming_scalar(&self, other: &Descriptor) -> u32 {
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Scalar reference oracle for [`Self::hamming_bounded`]: the
    /// original per-word early-exit scan. `Some`/`None` results agree
    /// with the 128-bit-granularity scan on every input because both
    /// return `Some(d)` exactly when the full distance is below `bound`.
    pub fn hamming_bounded_scalar(&self, other: &Descriptor, bound: u32) -> Option<u32> {
        let mut d = 0u32;
        for (a, b) in self.0.iter().zip(&other.0) {
            d += (a ^ b).count_ones();
            if d >= bound {
                return None;
            }
        }
        Some(d)
    }

    /// Number of set bits.
    pub fn popcount(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }
}

/// One test pair: compare intensity at `(x1, y1)` with `(x2, y2)`.
#[derive(Debug, Clone, Copy)]
struct TestPair {
    x1: f64,
    y1: f64,
    x2: f64,
    y2: f64,
}

/// The fixed sampling pattern, generated deterministically.
fn pattern() -> &'static [TestPair; BITS] {
    static PATTERN: OnceLock<[TestPair; BITS]> = OnceLock::new();
    PATTERN.get_or_init(|| {
        let mut out = [TestPair {
            x1: 0.0,
            y1: 0.0,
            x2: 0.0,
            y2: 0.0,
        }; BITS];
        let range = (2 * PATCH + 1) as u64;
        let mut k = 0u64;
        let mut coord = |salt: u64| -> f64 {
            k += 1;
            (mix64(k ^ salt.wrapping_mul(0x9e3779b97f4a7c15)) % range) as f64 - PATCH as f64
        };
        for (i, pair) in out.iter_mut().enumerate() {
            let s = i as u64 + 1;
            *pair = TestPair {
                x1: coord(s),
                y1: coord(s ^ 0xa5a5),
                x2: coord(s ^ 0x5a5a),
                y2: coord(s ^ 0xc3c3),
            };
        }
        out
    })
}

/// The pattern as four coordinate columns — every pair's `x1`, then
/// `y1`, `x2`, `y2` — the layout the vector sampler loads four pairs at
/// a time from. Built once from [`pattern`].
pub(crate) fn pattern_columns() -> &'static [[f64; BITS]; 4] {
    static COLUMNS: OnceLock<[[f64; BITS]; 4]> = OnceLock::new();
    COLUMNS.get_or_init(|| {
        let pat = pattern();
        [
            std::array::from_fn(|i| pat[i].x1),
            std::array::from_fn(|i| pat[i].y1),
            std::array::from_fn(|i| pat[i].x2),
            std::array::from_fn(|i| pat[i].y2),
        ]
    })
}

/// The scalar pair loop: the descriptor words of a keypoint at
/// `(cx, cy)` with orientation `(sin, cos)`.
fn words_scalar(smoothed: &GrayImage, cx: f64, cy: f64, sin: f64, cos: f64) -> [u64; 4] {
    let mut words = [0u64; 4];
    for (i, p) in pattern().iter().enumerate() {
        // Rotate both sample offsets by the keypoint orientation.
        let r1x = cx + p.x1 * cos - p.y1 * sin;
        let r1y = cy + p.x1 * sin + p.y1 * cos;
        let r2x = cx + p.x2 * cos - p.y2 * sin;
        let r2y = cy + p.x2 * sin + p.y2 * cos;
        let a = smoothed.get_clamped(r1x.round() as isize, r1y.round() as isize);
        let b = smoothed.get_clamped(r2x.round() as isize, r2y.round() as isize);
        if a < b {
            words[i / 64] |= 1u64 << (i % 64);
        }
    }
    words
}

/// Describe each keypoint with a rotation-steered BRIEF descriptor over
/// the (pre-smoothed) image.
///
/// Callers should pass a Gaussian-smoothed image, as ORB does, to make
/// single-pixel comparisons robust to noise.
///
/// Instrumentation: each finished descriptor word flows through a data
/// tap (a corrupted word yields spurious matches/mismatches downstream),
/// and per-keypoint work feeds the hang monitor.
///
/// # Errors
///
/// Propagates hang-budget exhaustion.
pub fn describe(smoothed: &GrayImage, keypoints: &[KeyPoint]) -> Result<Vec<Descriptor>, SimError> {
    let mut out = Vec::with_capacity(keypoints.len());
    describe_into(smoothed, keypoints, &mut out)?;
    Ok(out)
}

/// [`describe`] into a caller-owned vector (cleared first), reusing its
/// allocation. Tap stream and descriptors are bit-identical.
///
/// # Errors
///
/// Propagates hang-budget exhaustion.
pub fn describe_into(
    smoothed: &GrayImage,
    keypoints: &[KeyPoint],
    out: &mut Vec<Descriptor>,
) -> Result<(), SimError> {
    describe_into_level(smoothed, keypoints, out, vs_image::dispatch::level())
}

/// [`describe_into`] at an explicit [`vs_image::SimdLevel`]: the AVX2
/// level samples with the vector sampler, every other level with the
/// scalar pair loop. Descriptors and tap stream are identical at every
/// level.
///
/// # Errors
///
/// Propagates hang-budget exhaustion.
pub fn describe_into_level(
    smoothed: &GrayImage,
    keypoints: &[KeyPoint],
    out: &mut Vec<Descriptor>,
    level: vs_image::SimdLevel,
) -> Result<(), SimError> {
    let _f = tap::scope(FuncId::OrbDescribe);
    let vector = level == vs_image::SimdLevel::Avx2;
    out.clear();
    for kp in keypoints {
        tap::work(OpClass::Mem, 2 * BITS as u64)?;
        tap::work(OpClass::IntAlu, 4 * BITS as u64)?;
        tap::work(OpClass::Float, 4 * BITS as u64)?;
        let (sin, cos) = kp.angle.sin_cos();
        let sampled = vector
            .then(|| crate::simd::brief_words(smoothed, pattern_columns(), kp.x, kp.y, sin, cos))
            .flatten();
        let words = sampled.unwrap_or_else(|| words_scalar(smoothed, kp.x, kp.y, sin, cos));
        // Store the descriptor through tapped index and data registers:
        // a corrupted store index escapes the descriptor buffer (the
        // address-fault crash surface), a corrupted data word silently
        // perturbs matching downstream.
        let mut stored = [0u64; 4];
        for (w_i, word) in words.into_iter().enumerate() {
            let wi = tap::addr(w_i);
            *stored.get_mut(wi).ok_or(SimError::Segfault)? = tap::gpr(word);
        }
        out.push(Descriptor(stored));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_image::gaussian_blur_5x5;

    fn textured(seed: u64, w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            (mix64(seed ^ ((y * w + x) as u64)) % 256) as u8
        })
    }

    fn kp(x: usize, y: usize, angle: f64) -> KeyPoint {
        KeyPoint {
            x: x as f64,
            y: y as f64,
            response: 1.0,
            angle,
            level: 0,
        }
    }

    #[test]
    fn hamming_distance_basics() {
        let z = Descriptor::default();
        let mut one = Descriptor::default();
        one.0[0] = 1;
        assert_eq!(z.hamming(&z), 0);
        assert_eq!(z.hamming(&one), 1);
        let all = Descriptor([!0; 4]);
        assert_eq!(z.hamming(&all), 256);
        assert_eq!(all.popcount(), 256);
    }

    #[test]
    fn hamming_bounded_agrees_with_hamming() {
        // Deterministic random pairs at every interesting bound.
        let mut s = 0x5eedu64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s
        };
        for _ in 0..200 {
            let a = Descriptor([next(), next(), next(), next()]);
            let b = Descriptor([next(), next(), next(), next()]);
            let d = a.hamming(&b);
            for bound in [0, 1, d.saturating_sub(1), d, d + 1, 256, u32::MAX] {
                let got = a.hamming_bounded(&b, bound);
                if d < bound {
                    assert_eq!(got, Some(d));
                } else {
                    assert_eq!(got, None);
                }
            }
        }
    }

    /// The shared-core hamming paths agree with the retained scalar
    /// oracles — distances, and Some/None plus early-exit behaviour at
    /// every bound — on random descriptor pairs.
    #[test]
    fn hamming_core_matches_scalar_oracles() {
        let mut rng = vs_rng::SplitMix64::new(0x4A3A_5EED);
        for trial in 0..2_000 {
            let a = Descriptor(std::array::from_fn(|_| rng.next_u64()));
            // Mix of far (independent) and near (few-bit-flip) pairs so
            // both sides of every bound comparison get exercised.
            let b = if trial % 2 == 0 {
                Descriptor(std::array::from_fn(|_| rng.next_u64()))
            } else {
                let mut b = a;
                for _ in 0..(trial % 7) {
                    let bit = rng.gen_range(0u32..256);
                    b.0[(bit / 64) as usize] ^= 1u64 << (bit % 64);
                }
                b
            };
            assert_eq!(a.hamming(&b), a.hamming_scalar(&b));
            let d = a.hamming(&b);
            for bound in [0, 1, d.saturating_sub(1), d, d + 1, 48, 256, u32::MAX] {
                assert_eq!(
                    a.hamming_bounded(&b, bound),
                    a.hamming_bounded_scalar(&b, bound),
                    "trial {trial} bound {bound} d {d}"
                );
            }
        }
    }

    #[test]
    fn identical_patches_give_identical_descriptors() {
        let img = gaussian_blur_5x5(&textured(7, 64, 64));
        let d = describe(&img, &[kp(30, 30, 0.0), kp(30, 30, 0.0)]).unwrap();
        assert_eq!(d[0], d[1]);
    }

    #[test]
    fn different_patches_give_distant_descriptors() {
        let img = gaussian_blur_5x5(&textured(7, 96, 96));
        let d = describe(&img, &[kp(20, 20, 0.0), kp(70, 70, 0.0)]).unwrap();
        // Random binary strings differ in ~128 bits; unrelated patches
        // should be far apart.
        assert!(d[0].hamming(&d[1]) > 60, "distance {}", d[0].hamming(&d[1]));
    }

    #[test]
    fn translation_of_whole_scene_preserves_descriptor() {
        let base = textured(42, 96, 96);
        let shifted = GrayImage::from_fn(96, 96, |x, y| {
            base.get_clamped(x as isize - 10, y as isize - 7)
        });
        let a = describe(&gaussian_blur_5x5(&base), &[kp(40, 40, 0.0)]).unwrap();
        let b = describe(&gaussian_blur_5x5(&shifted), &[kp(50, 47, 0.0)]).unwrap();
        let dist = a[0].hamming(&b[0]);
        assert!(dist <= 20, "translated patch too far: {dist}");
    }

    #[test]
    fn rotation_steering_compensates_patch_rotation() {
        // A patch and the same patch rotated 90°; descriptors computed
        // with the correct angles should be close.
        let base = gaussian_blur_5x5(&textured(99, 64, 64));
        let rotated = GrayImage::from_fn(64, 64, |x, y| {
            // Rotate the image by +90° about (32, 32): source = R^-1 p.
            let dx = x as f64 - 32.0;
            let dy = y as f64 - 32.0;
            base.get_clamped((32.0 + dy).round() as isize, (32.0 - dx).round() as isize)
        });
        let a = describe(&base, &[kp(32, 32, 0.0)]).unwrap();
        let b = describe(&rotated, &[kp(32, 32, std::f64::consts::FRAC_PI_2)]).unwrap();
        let steered = a[0].hamming(&b[0]);
        let unsteered = a[0].hamming(&describe(&rotated, &[kp(32, 32, 0.0)]).unwrap()[0]);
        assert!(
            steered < unsteered,
            "steering must help: steered={steered} unsteered={unsteered}"
        );
        assert!(steered <= 64, "steered distance too large: {steered}");
    }

    #[test]
    fn pattern_is_deterministic_and_in_patch() {
        let p1 = pattern();
        let p2 = pattern();
        for (a, b) in p1.iter().zip(p2.iter()) {
            assert_eq!(a.x1, b.x1);
            assert!(a.x1.abs() <= PATCH as f64 && a.y2.abs() <= PATCH as f64);
        }
        // Pairs must not all be identical (degenerate pattern).
        let distinct = p1.iter().filter(|p| (p.x1, p.y1) != (p.x2, p.y2)).count();
        assert!(distinct > 250);
    }

    /// The vector sampler (AVX2 level) against the scalar pair loop at
    /// every available level: border and far-outside keypoints, 1×1 and
    /// 2×3 images, NaN, ±inf and random-bit angles (FPR flips of the
    /// orientation tap produce them), and coordinates with a fraction of
    /// exactly ±0.5 — ties only half-away-from-zero rounding resolves as
    /// the scalar loop does.
    #[test]
    fn vector_sampler_matches_scalar_loop() {
        use std::f64::consts::{FRAC_PI_2, PI};
        use vs_image::SimdLevel;
        let mut rng = vs_rng::SplitMix64::new(0x0B1E_F5A1);
        let mut angles = vec![
            0.0,
            FRAC_PI_2,
            -PI,
            1e-300,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        angles.extend((0..24).map(|_| f64::from_bits(rng.next_u64())));
        for (w, h) in [(1usize, 1usize), (2, 3), (64, 48), (97, 33)] {
            let img = textured((w * 31 + h) as u64, w, h);
            let (wf, hf) = (w as f64, h as f64);
            let centres = [
                (0.0, 0.0),
                (wf - 1.0, hf - 1.0),
                (wf / 2.0, 0.0),
                (10.5, 7.5),
                (10.5, -0.5),
                (-2.5, 3.5),
                (wf + 0.5, hf / 2.0 + 0.5),
                (1e18, -1e18),
            ];
            let kps: Vec<KeyPoint> = centres
                .iter()
                .flat_map(|&(x, y)| {
                    angles.iter().map(move |&angle| KeyPoint {
                        x,
                        y,
                        response: 1.0,
                        angle,
                        level: 0,
                    })
                })
                .collect();
            let mut want = Vec::new();
            describe_into_level(&img, &kps, &mut want, SimdLevel::Scalar).unwrap();
            let mut got = Vec::new();
            for level in SimdLevel::ALL.into_iter().filter(|l| l.available()) {
                describe_into_level(&img, &kps, &mut got, level).unwrap();
                for (i, (g, s)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g, s, "{w}x{h} level {level} keypoint {:?}", kps[i]);
                }
                assert_eq!(got.len(), want.len());
            }
        }
    }

    #[test]
    fn empty_keypoint_list_is_fine() {
        let img = textured(1, 32, 32);
        assert!(describe(&img, &[]).unwrap().is_empty());
    }
}
