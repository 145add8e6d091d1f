//! FAST (Features from Accelerated Segment Test) corner detection.
//!
//! Implements the FAST-9 variant: a pixel is a corner when at least 9
//! contiguous pixels on the 16-pixel Bresenham circle of radius 3 are all
//! brighter than `p + t` or all darker than `p - t`. A 3×3 non-maximum
//! suppression over the SAD response keeps the strongest corners.
//!
//! The scan loop is fault-instrumented: the row base address of each scan
//! line flows through an address tap (a corrupted base drives the centre
//! pixel load out of bounds → simulated segfault) and candidate centre
//! intensities flow through data taps.

use crate::keypoint::KeyPoint;
use vs_fault::{tap, FuncId, OpClass, SimError};
use vs_image::GrayImage;

/// The 16 circle offsets `(dx, dy)` of radius 3, clockwise from 12
/// o'clock — the classic FAST sampling pattern.
pub const CIRCLE: [(i8, i8); 16] = [
    (0, -3),
    (1, -3),
    (2, -2),
    (3, -1),
    (3, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 3),
    (-1, 3),
    (-2, 2),
    (-3, 1),
    (-3, 0),
    (-3, -1),
    (-2, -2),
    (-1, -3),
];

/// Number of contiguous circle pixels required (the "9" in FAST-9).
pub const ARC_LENGTH: usize = 9;

/// Detector parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FastConfig {
    /// Intensity threshold `t`.
    pub threshold: u8,
    /// Apply 3×3 non-maximum suppression.
    pub nonmax_suppression: bool,
    /// Keep at most this many keypoints, strongest first.
    pub max_keypoints: usize,
}

impl Default for FastConfig {
    fn default() -> Self {
        FastConfig {
            threshold: 20,
            nonmax_suppression: true,
            max_keypoints: 500,
        }
    }
}

/// Classify circle pixels against the centre: 1 = brighter, 2 = darker.
#[inline]
pub(crate) fn classify(v: u8, center: u8, t: u8) -> u8 {
    let ci = center as i16;
    let vi = v as i16;
    if vi >= ci + t as i16 {
        1
    } else if vi <= ci - t as i16 {
        2
    } else {
        0
    }
}

/// Does the 16-entry classification ring contain `ARC_LENGTH` contiguous
/// entries of the same non-zero state?
fn has_arc(states: &[u8; 16]) -> bool {
    for want in [1u8, 2u8] {
        let mut run = 0usize;
        // Walk the ring twice to handle wrap-around runs.
        for i in 0..32 {
            if states[i % 16] == want {
                run += 1;
                if run >= ARC_LENGTH {
                    return true;
                }
            } else {
                run = 0;
            }
        }
    }
    false
}

/// SWAR lane layout: the 16 ring pixels live in four u64 words of four
/// 16-bit lanes each. 8-bit lanes cannot hold the bright threshold
/// `c + t` (up to 510), so the lanes are 16 bits wide.
const LANE_ONES: u64 = 0x0001_0001_0001_0001;
/// High (sign) bit of each 16-bit lane.
const LANE_HI: u64 = 0x8000_8000_8000_8000;

/// Compress the four lane-high bits of `x` (bits 15/31/47/63) into bits
/// 0..4, preserving lane order. The multiplier routes each source bit to
/// a distinct bit of the top nibble with no carry overlap.
#[inline]
fn movemask4(x: u64) -> u32 {
    const GATHER: u64 = (1 << 48) | (1 << 33) | (1 << 18) | (1 << 3);
    ((((x >> 15) & LANE_ONES).wrapping_mul(GATHER)) >> 48) as u32 & 0xF
}

/// Does a 16-bit ring mask contain `ARC_LENGTH` (9) contiguous set bits,
/// counting wrap-around? Doubling the mask into 32 bits makes wrapped
/// runs contiguous; the shift-and ladder ANDs the mask with itself at
/// offsets 1, 2, 4, 1 (= 8 cumulative + 1), leaving a bit set exactly
/// where a run of ≥ 9 begins. Proven against the scalar run counter for
/// all 2^16 masks in the tests.
#[inline]
pub(crate) fn has_arc16(m: u16) -> bool {
    let m32 = (m as u32) | ((m as u32) << 16);
    let r2 = m32 & (m32 >> 1);
    let r4 = r2 & (r2 >> 2);
    let r8 = r4 & (r4 >> 4);
    let r9 = r8 & (r8 >> 1);
    r9 & 0xFFFF != 0
}

/// SWAR segment test for an in-range centre register value.
///
/// Computes the 16-bit bright (`v >= c + t`) and dark (`v <= c - t`)
/// ring masks four lanes at a time, then applies a popcount pre-reject
/// (an arc of 9 needs at least 9 set bits — candidates killed here are
/// counted in `prereject`) before the exact contiguous-arc test.
///
/// Lane safety: with `c ≤ 255`, `t ≤ 255`, `v ≤ 255` every lane
/// difference stays strictly inside `(0, 2^16)`, so no borrow crosses a
/// lane boundary. Bright: `(v | H) - (c+t)` has lane value
/// `v + 0x8000 - (c+t) ≥ 0x8000 - 510 > 0`; its lane-high bit is set iff
/// `v ≥ c + t`. Dark (only when `c ≥ t`, otherwise no u8 can satisfy
/// `v ≤ c - t < 0`): `((c-t) | H) - v ≥ 0x8000 - 255 > 0`; lane-high set
/// iff `v ≤ c - t`. Equivalence with the scalar `classify`/`has_arc`
/// path is proven exhaustively per-lane and on random rings in the tests.
#[inline]
pub(crate) fn swar_segment_test(ring_vals: &[u8; 16], c: u64, t: u8, prereject: &mut u64) -> bool {
    let cpt = (c + t as u64).wrapping_mul(LANE_ONES);
    // (c - t) | H in every lane; None when c < t (no dark pixel possible).
    let cmt = (c >= t as u64).then(|| (c - t as u64).wrapping_mul(LANE_ONES) | LANE_HI);
    let mut bright = 0u32;
    let mut dark = 0u32;
    for q in 0..4 {
        let v = ring_vals[4 * q] as u64
            | (ring_vals[4 * q + 1] as u64) << 16
            | (ring_vals[4 * q + 2] as u64) << 32
            | (ring_vals[4 * q + 3] as u64) << 48;
        bright |= movemask4((v | LANE_HI).wrapping_sub(cpt) & LANE_HI) << (4 * q);
        if let Some(k) = cmt {
            dark |= movemask4(k.wrapping_sub(v) & LANE_HI) << (4 * q);
        }
    }
    // The scalar classify is an else-if chain: bright wins when both
    // predicates hold (possible only at t = 0, where c+t ≤ v ≤ c-t
    // collapses to v = c). Masking dark with !bright reproduces that
    // priority; for t ≥ 1 the conditions are disjoint and this is a
    // no-op.
    dark &= !bright;
    if bright.count_ones() < ARC_LENGTH as u32 && dark.count_ones() < ARC_LENGTH as u32 {
        *prereject += 1;
        return false;
    }
    has_arc16(bright as u16) || has_arc16(dark as u16)
}

/// SAD corner response: sum of |circle - centre| over pixels exceeding
/// the threshold.
fn response(img: &GrayImage, x: usize, y: usize, center: u8, t: u8) -> f64 {
    let mut acc = 0.0;
    for &(dx, dy) in &CIRCLE {
        let v = img.get_clamped(x as isize + dx as isize, y as isize + dy as isize);
        let d = (v as i16 - center as i16).abs();
        if d > t as i16 {
            acc += d as f64;
        }
    }
    acc
}

/// Reusable buffers for [`detect_into`]: the NMS score plane and the
/// candidate list survive across frames so steady-state detection
/// allocates nothing.
#[derive(Debug, Default)]
pub struct FastScratch {
    scores: Vec<f64>,
    candidates: Vec<(usize, usize, f64)>,
    prereject: u64,
}

impl FastScratch {
    /// Total heap footprint (element counts of the owned buffers) —
    /// feeds the scratch-reuse telemetry counter.
    pub fn footprint(&self) -> usize {
        self.scores.capacity() + self.candidates.capacity()
    }

    /// Candidates the last [`detect_into`] call killed with the SWAR
    /// popcount pre-reject (before the exact arc scan) — feeds the
    /// `fast_prereject` telemetry counter. Always 0 for the scalar
    /// oracle path.
    pub fn prereject(&self) -> u64 {
        self.prereject
    }
}

/// Detect FAST corners.
///
/// Returns keypoints ordered strongest-first, truncated to
/// `config.max_keypoints`, with deterministic tie-breaking.
///
/// # Errors
///
/// Returns [`SimError::Segfault`] when a fault-corrupted row address
/// escapes the image, and propagates hang-budget exhaustion.
pub fn detect(img: &GrayImage, config: &FastConfig) -> Result<Vec<KeyPoint>, SimError> {
    let mut scratch = FastScratch::default();
    let mut out = Vec::new();
    detect_into(img, config, &mut scratch, &mut out)?;
    Ok(out)
}

/// [`detect`] into caller-owned buffers.
///
/// Tap stream and results are bit-identical to [`detect`]; the scan is
/// restructured for cache behaviour only. Each row's centre loads walk a
/// hoisted row slice when the tapped row base is uncorrupted (the
/// fault-free and masked-fault case), falling back to the original
/// checked `get_linear` walk when a fault has redirected the base
/// register. Circle samples read through a precomputed linear-offset
/// table — interior pixels make every ring read in-bounds, so the table
/// walk returns exactly what the clamped per-coordinate reads did.
///
/// The segment test runs as a SWAR mask computation
/// ([`swar_segment_test`]) whenever the tapped centre register holds an
/// in-range u8 value; a fault-widened centre falls back to the original
/// saturating-i64 classify loop so corrupted-run outcomes are untouched.
/// The SWAR path sits strictly between the same taps as the scalar loop
/// and computes the same corner decision, so the tap stream and results
/// stay bit-identical — [`detect_into_scalar`] keeps the original path
/// alive as the proof oracle.
pub fn detect_into(
    img: &GrayImage,
    config: &FastConfig,
    scratch: &mut FastScratch,
    out: &mut Vec<KeyPoint>,
) -> Result<(), SimError> {
    detect_into_level(img, config, scratch, out, vs_image::dispatch::level())
}

/// Scalar reference oracle for [`detect_into`]: the original per-pixel
/// classify/arc-scan segment test with no SWAR pre-reject. Exposed for
/// the kernel equivalence harness and `kernel_bench`.
pub fn detect_into_scalar(
    img: &GrayImage,
    config: &FastConfig,
    scratch: &mut FastScratch,
    out: &mut Vec<KeyPoint>,
) -> Result<(), SimError> {
    detect_into_impl(img, config, scratch, out, Mode::Scalar)
}

/// [`detect_into`] at an explicit [`vs_image::SimdLevel`]. Keypoints,
/// tap stream, and prereject bookkeeping are identical at every level
/// except that the scalar oracle never prerejects.
pub fn detect_into_level(
    img: &GrayImage,
    config: &FastConfig,
    scratch: &mut FastScratch,
    out: &mut Vec<KeyPoint>,
    level: vs_image::SimdLevel,
) -> Result<(), SimError> {
    let mode = match level {
        vs_image::SimdLevel::Scalar => Mode::Scalar,
        vs_image::SimdLevel::Swar => Mode::Swar,
        vs_image::SimdLevel::Sse2 => Mode::Sse2,
        vs_image::SimdLevel::Avx2 => Mode::Avx2,
    };
    detect_into_impl(img, config, scratch, out, mode)
}

/// Runtime implementation selector for one `detect_into` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Original per-pixel classify/arc loop, no pre-reject.
    Scalar,
    /// SWAR masks + popcount pre-reject (PR 4).
    Swar,
    /// Vector compass quick-scan + 128-bit ring classify.
    Sse2,
    /// As [`Mode::Sse2`] with a 32-lane quick-scan.
    Avx2,
}

/// The tapped candidate block shared by every scan strategy: data-tap
/// the centre register, run the full segment test, and score/record the
/// corner. Byte-identical tap stream across modes; a fault-widened
/// centre always falls back to the saturating-i64 classify loop.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn process_candidate(
    img: &GrayImage,
    data: &[u8],
    ring: &[isize; 16],
    w: usize,
    x: usize,
    y: usize,
    center: u8,
    t: u8,
    mode: Mode,
    prereject: &mut u64,
    scores: &mut [f64],
    candidates: &mut Vec<(usize, usize, f64)>,
) -> Result<(), SimError> {
    // Full segment test on a data-tapped centre value. The comparison
    // happens in the full register width, as the native `cmp` would: a
    // corrupted high bit makes the centre enormous and every circle
    // pixel "darker".
    let center_reg = tap::gpr(center as u64) as i64;
    tap::work(OpClass::IntAlu, 32)?;
    let base = (y * w + x) as isize;
    let corner = if mode != Mode::Scalar && (0..=255).contains(&center_reg) {
        // Uncorrupted centre: mask computation + popcount pre-reject,
        // exact arc test on the surviving masks.
        let ring_vals: [u8; 16] = std::array::from_fn(|i| data[(base + ring[i]) as usize]);
        if mode == Mode::Swar {
            swar_segment_test(&ring_vals, center_reg as u64, t, prereject)
        } else {
            crate::simd::segment_test_simd(&ring_vals, center_reg as u8, t, prereject)
        }
    } else {
        // Fault-widened centre (or the scalar oracle): original
        // saturating-i64 classify loop.
        let mut states = [0u8; 16];
        for (i, s) in states.iter_mut().enumerate() {
            let v = data[(base + ring[i]) as usize] as i64;
            *s = if v >= center_reg.saturating_add(t as i64) {
                1
            } else if v <= center_reg.saturating_sub(t as i64) {
                2
            } else {
                0
            };
        }
        has_arc(&states)
    };
    if corner {
        let center = center_reg.clamp(0, 255) as u8;
        let score = response(img, x, y, center, t);
        scores[y * w + x] = score;
        candidates.push((x, y, score));
    }
    Ok(())
}

fn detect_into_impl(
    img: &GrayImage,
    config: &FastConfig,
    scratch: &mut FastScratch,
    out: &mut Vec<KeyPoint>,
    mode: Mode,
) -> Result<(), SimError> {
    let _f = tap::scope(FuncId::FastDetect);
    scratch.prereject = 0;
    out.clear();
    let w = img.width();
    let h = img.height();
    if w < 8 || h < 8 {
        return Ok(());
    }
    let scores = &mut scratch.scores;
    scores.clear();
    scores.resize(w * h, 0.0);
    let candidates = &mut scratch.candidates;
    candidates.clear();
    let t = config.threshold;
    let data = img.as_bytes();
    // Linear offsets of the 16-pixel ring; in-bounds for every interior
    // (3-pixel-margin) centre, where the clamped reads never clamped.
    let mut ring = [0isize; 16];
    for (o, &(dx, dy)) in ring.iter_mut().zip(CIRCLE.iter()) {
        *o = dy as isize * w as isize + dx as isize;
    }
    let mut prereject = 0u64;

    for y in 3..h - 3 {
        // One address tap per row: the row base pointer. All centre loads
        // derive from it, so corrupting it models a corrupted base
        // register feeding the load stream.
        let row_base = tap::addr(y * w);
        tap::work(OpClass::Mem, (w as u64) * 2)?;
        tap::work(OpClass::IntAlu, (w as u64) * 4)?;
        tap::work(OpClass::Control, w as u64)?;
        // Row-slice fast path only while the base register is intact.
        let row = (row_base == y * w).then(|| &data[row_base..row_base + w]);
        if let (Some(r), Mode::Sse2 | Mode::Avx2) = (row, mode) {
            // Vector compass quick-scan: the quick rejection is tap-free
            // in the scalar walk, so computing its pass mask 16/32
            // centres at a time and visiting survivors in ascending x
            // reproduces the tap stream byte-for-byte.
            let lanes = crate::simd::quick_lanes(mode == Mode::Avx2);
            let mut x = 3usize;
            while x + lanes + 3 <= w {
                let mut mask = crate::simd::quick_pass_mask(data, w, y, x, t, mode == Mode::Avx2);
                while mask != 0 {
                    let j = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    process_candidate(
                        img,
                        data,
                        &ring,
                        w,
                        x + j,
                        y,
                        r[x + j],
                        t,
                        mode,
                        &mut prereject,
                        scores,
                        candidates,
                    )?;
                }
                x += lanes;
            }
            while x < w - 3 {
                let base = (y * w + x) as isize;
                let vals: [u8; 4] = std::array::from_fn(|q| data[(base + ring[4 * q]) as usize]);
                if crate::simd::compass_pass(vals, r[x], t) {
                    process_candidate(
                        img,
                        data,
                        &ring,
                        w,
                        x,
                        y,
                        r[x],
                        t,
                        mode,
                        &mut prereject,
                        scores,
                        candidates,
                    )?;
                }
                x += 1;
            }
            continue;
        }
        for x in 3..w - 3 {
            let center = match row {
                Some(r) => r[x],
                None => img.get_linear(row_base + x).ok_or(SimError::Segfault)?,
            };
            let base = (y * w + x) as isize;
            let at = |i: usize| data[(base + ring[i]) as usize];
            // Quick rejection: a contiguous 9-arc on the 16-ring must
            // contain at least 2 of the 4 compass points (ring entries
            // 0, 4, 8, 12 = top, right, bottom, left).
            let quick = [
                classify(at(0), center, t),
                classify(at(4), center, t),
                classify(at(8), center, t),
                classify(at(12), center, t),
            ];
            let bright = quick.iter().filter(|&&s| s == 1).count();
            let dark = quick.iter().filter(|&&s| s == 2).count();
            if bright < 2 && dark < 2 {
                continue;
            }
            process_candidate(
                img,
                data,
                &ring,
                w,
                x,
                y,
                center,
                t,
                mode,
                &mut prereject,
                scores,
                candidates,
            )?;
        }
    }

    if config.nonmax_suppression {
        out.extend(
            candidates
                .iter()
                .filter(|&&(x, y, s)| {
                    let mut is_max = true;
                    'outer: for dy in -1isize..=1 {
                        for dx in -1isize..=1 {
                            if dx == 0 && dy == 0 {
                                continue;
                            }
                            let nx = x as isize + dx;
                            let ny = y as isize + dy;
                            if nx < 0 || ny < 0 || nx >= w as isize || ny >= h as isize {
                                continue;
                            }
                            let n = scores[ny as usize * w + nx as usize];
                            // Strictly-greater on one side of the raster order
                            // keeps exactly one point of a plateau.
                            if n > s || (n == s && (ny, nx) < (y as isize, x as isize)) {
                                is_max = false;
                                break 'outer;
                            }
                        }
                    }
                    is_max
                })
                .map(|&(x, y, s)| KeyPoint::new(x, y, s)),
        );
    } else {
        out.extend(candidates.iter().map(|&(x, y, s)| KeyPoint::new(x, y, s)));
    }

    // Strongest first; deterministic tie-break on raster position. The
    // comparator is a strict total order over distinct candidates
    // (responses are finite, positions unique), so the in-place unstable
    // sort agrees with a stable one.
    out.sort_unstable_by(|a, b| {
        b.response
            .partial_cmp(&a.response)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.y as u64, a.x as u64).cmp(&(b.y as u64, b.x as u64)))
    });
    out.truncate(config.max_keypoints);
    scratch.prereject = prereject;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single bright square on a dark field: corners at its vertices.
    fn square_image() -> GrayImage {
        let mut img = GrayImage::from_fn(64, 64, |_, _| 30);
        vs_image::fill_rect_gray(&mut img, 20, 20, 24, 24, 220);
        img
    }

    #[test]
    fn detects_square_corners() {
        let kps = detect(&square_image(), &FastConfig::default()).unwrap();
        assert!(!kps.is_empty());
        let corners = [(20.0, 20.0), (43.0, 20.0), (20.0, 43.0), (43.0, 43.0)];
        for (cx, cy) in corners {
            let hit = kps
                .iter()
                .any(|k| (k.x - cx).abs() <= 2.0 && (k.y - cy).abs() <= 2.0);
            assert!(hit, "no keypoint near corner ({cx},{cy}); got {kps:?}");
        }
    }

    #[test]
    fn flat_image_has_no_corners() {
        let img = GrayImage::from_fn(64, 64, |_, _| 99);
        assert!(detect(&img, &FastConfig::default()).unwrap().is_empty());
    }

    #[test]
    fn straight_edges_are_not_corners() {
        // A vertical step edge: FAST must reject points along it (at most
        // 8 contiguous circle pixels differ).
        let img = GrayImage::from_fn(64, 64, |x, _| if x < 32 { 20 } else { 220 });
        let kps = detect(&img, &FastConfig::default()).unwrap();
        assert!(
            kps.is_empty(),
            "edge pixels misdetected as corners: {kps:?}"
        );
    }

    #[test]
    fn nonmax_reduces_keypoint_count() {
        let with = detect(&square_image(), &FastConfig::default()).unwrap();
        let without = detect(
            &square_image(),
            &FastConfig {
                nonmax_suppression: false,
                ..FastConfig::default()
            },
        )
        .unwrap();
        assert!(with.len() <= without.len());
        assert!(!with.is_empty());
    }

    #[test]
    fn max_keypoints_truncates_strongest_first() {
        let all = detect(&square_image(), &FastConfig::default()).unwrap();
        let some = detect(
            &square_image(),
            &FastConfig {
                max_keypoints: 2,
                ..FastConfig::default()
            },
        )
        .unwrap();
        assert_eq!(some.len(), 2.min(all.len()));
        if all.len() >= 2 {
            assert_eq!(some[0].response, all[0].response);
        }
    }

    #[test]
    fn higher_threshold_finds_fewer_corners() {
        let img = square_image();
        let low = detect(
            &img,
            &FastConfig {
                threshold: 10,
                ..FastConfig::default()
            },
        )
        .unwrap();
        let high = detect(
            &img,
            &FastConfig {
                threshold: 120,
                ..FastConfig::default()
            },
        )
        .unwrap();
        assert!(high.len() <= low.len());
    }

    #[test]
    fn tiny_images_yield_nothing() {
        let img = GrayImage::new(6, 6);
        assert!(detect(&img, &FastConfig::default()).unwrap().is_empty());
    }

    #[test]
    fn detect_into_reuses_buffers_without_changing_results() {
        let a = square_image();
        let b = GrayImage::from_fn(48, 40, |x, y| ((x * 7) ^ (y * 13)) as u8);
        let mut scratch = FastScratch::default();
        let mut out = Vec::new();
        for img in [&a, &b, &a] {
            detect_into(img, &FastConfig::default(), &mut scratch, &mut out).unwrap();
            assert_eq!(out, detect(img, &FastConfig::default()).unwrap());
        }
    }

    /// Scalar segment test mirroring the fallback path, for oracle use.
    fn scalar_segment(ring: &[u8; 16], center_reg: i64, t: u8) -> bool {
        let mut states = [0u8; 16];
        for (i, s) in states.iter_mut().enumerate() {
            let v = ring[i] as i64;
            *s = if v >= center_reg.saturating_add(t as i64) {
                1
            } else if v <= center_reg.saturating_sub(t as i64) {
                2
            } else {
                0
            };
        }
        has_arc(&states)
    }

    /// `has_arc16` agrees with the scalar double-walk run counter on
    /// every one of the 2^16 possible ring masks.
    #[test]
    fn arc16_matches_scalar_arc_scan_exhaustively() {
        for m in 0..=u16::MAX {
            let states: [u8; 16] = std::array::from_fn(|i| ((m >> i) & 1) as u8);
            assert_eq!(
                has_arc16(m),
                has_arc(&states),
                "mask {m:#06x} disagrees with the run counter"
            );
        }
    }

    /// SWAR lane predicates agree with the scalar classify comparisons
    /// for every (centre, threshold, value) triple — exhaustive over the
    /// full u8 cube via uniform rings (all 16 lanes carry `v`).
    #[test]
    fn swar_lane_predicates_exhaustive() {
        for c in 0u64..=255 {
            for t in 0u16..=255 {
                let t = t as u8;
                for v in 0u8..=255 {
                    let ring = [v; 16];
                    let mut pre = 0u64;
                    assert_eq!(
                        swar_segment_test(&ring, c, t, &mut pre),
                        scalar_segment(&ring, c as i64, t),
                        "c={c} t={t} v={v}"
                    );
                }
            }
        }
    }

    /// SWAR segment test vs the scalar classify/arc path on random
    /// mixed rings, including threshold extremes.
    #[test]
    fn swar_segment_matches_scalar_on_random_rings() {
        let mut rng = vs_rng::SplitMix64::new(0xFA57_5EED);
        for trial in 0..200_000 {
            let c = rng.gen_range(0u32..256) as u64;
            let t = match trial % 5 {
                0 => 0,
                1 => 255,
                _ => rng.gen_range(0u32..256) as u8,
            };
            let ring: [u8; 16] = std::array::from_fn(|_| rng.gen_range(0u32..256) as u8);
            let mut pre = 0u64;
            assert_eq!(
                swar_segment_test(&ring, c, t, &mut pre),
                scalar_segment(&ring, c as i64, t),
                "trial {trial}: c={c} t={t} ring={ring:?}"
            );
        }
    }

    /// Full-detector equivalence on random images (textured, sparse, and
    /// small/border-dominated), plus identical prereject bookkeeping.
    #[test]
    fn detect_matches_scalar_oracle_on_random_images() {
        let mut rng = vs_rng::SplitMix64::new(0xDE7EC7);
        let mut s_swar = FastScratch::default();
        let mut s_ref = FastScratch::default();
        let mut kp_swar = Vec::new();
        let mut kp_ref = Vec::new();
        for trial in 0..30 {
            let w = 8 + rng.gen_range(0usize..40);
            let h = 8 + rng.gen_range(0usize..40);
            let img = match trial % 3 {
                0 => GrayImage::from_fn(w, h, |_, _| rng.gen_range(0u32..256) as u8),
                1 => {
                    GrayImage::from_fn(w, h, |x, y| if (x / 5 + y / 5) % 2 == 0 { 230 } else { 25 })
                }
                _ => GrayImage::from_fn(w, h, |x, y| ((x * 7) ^ (y * 13)) as u8),
            };
            let cfg = FastConfig {
                threshold: [4, 20, 60][trial % 3],
                ..FastConfig::default()
            };
            detect_into(&img, &cfg, &mut s_swar, &mut kp_swar).unwrap();
            detect_into_scalar(&img, &cfg, &mut s_ref, &mut kp_ref).unwrap();
            assert_eq!(kp_swar, kp_ref, "trial {trial}: {w}x{h}");
            assert_eq!(s_ref.prereject(), 0, "scalar path must not prereject");
        }
    }

    /// Every dispatch level of the detector returns identical keypoints
    /// on random images, and the pre-rejecting levels agree on the
    /// prereject count too.
    #[test]
    fn detect_levels_agree_on_random_images() {
        use vs_image::SimdLevel;
        let mut rng = vs_rng::SplitMix64::new(0x1E7E1 ^ 0x5EED);
        let mut s_ref = FastScratch::default();
        let mut s_lvl = FastScratch::default();
        let mut kp_ref = Vec::new();
        let mut kp_lvl = Vec::new();
        for trial in 0..24 {
            let w = 8 + rng.gen_range(0usize..50);
            let h = 8 + rng.gen_range(0usize..50);
            let img = GrayImage::from_fn(w, h, |_, _| rng.gen_range(0u32..256) as u8);
            let cfg = FastConfig {
                threshold: [0, 4, 20, 255][trial % 4],
                ..FastConfig::default()
            };
            detect_into_scalar(&img, &cfg, &mut s_ref, &mut kp_ref).unwrap();
            let mut swar_pre = None;
            for level in SimdLevel::ALL {
                if !level.available() {
                    continue;
                }
                detect_into_level(&img, &cfg, &mut s_lvl, &mut kp_lvl, level).unwrap();
                assert_eq!(kp_lvl, kp_ref, "trial {trial} level {level}: {w}x{h}");
                if level != SimdLevel::Scalar {
                    let pre = swar_pre.get_or_insert(s_lvl.prereject());
                    assert_eq!(s_lvl.prereject(), *pre, "trial {trial} level {level}");
                }
            }
        }
    }

    /// Fault-campaign equivalence: the SWAR and scalar detectors expose
    /// identical tap streams, so golden profiles and every injection
    /// record (spec, fired fault, outcome) must match exactly.
    #[test]
    fn fault_campaign_outcomes_identical_to_scalar() {
        use vs_fault::campaign::{profile_golden, run_campaign, CampaignConfig};
        use vs_fault::RegClass;

        struct DetectWl<const SWAR: bool>(GrayImage);
        impl<const SWAR: bool> vs_fault::campaign::Workload for DetectWl<SWAR> {
            type Output = Vec<KeyPoint>;
            type Workspace = (FastScratch, Vec<KeyPoint>);
            type Checkpoint = vs_fault::campaign::NoCheckpoint;
            fn run<'w>(
                &self,
                (scratch, out): &'w mut Self::Workspace,
                _from: Option<&Self::Checkpoint>,
            ) -> Result<&'w Vec<KeyPoint>, SimError> {
                let cfg = FastConfig::default();
                if SWAR {
                    detect_into(&self.0, &cfg, scratch, out)?;
                } else {
                    detect_into_scalar(&self.0, &cfg, scratch, out)?;
                }
                Ok(out)
            }
        }

        let img = square_image();
        let swar = DetectWl::<true>(img.clone());
        let scalar = DetectWl::<false>(img);
        let g_swar = profile_golden(&swar).unwrap();
        let g_scalar = profile_golden(&scalar).unwrap();
        assert_eq!(g_swar.profile, g_scalar.profile, "tap profiles diverge");
        assert_eq!(g_swar.output, g_scalar.output, "golden outputs diverge");

        let cfg = CampaignConfig::new(RegClass::Gpr, 120)
            .seed(0xFA57)
            .threads(2);
        let a = run_campaign(&swar, &g_swar, &cfg);
        let b = run_campaign(&scalar, &g_scalar, &cfg);
        let ka: Vec<_> = a.iter().map(|r| (r.spec, r.fired, r.outcome)).collect();
        let kb: Vec<_> = b.iter().map(|r| (r.spec, r.fired, r.outcome)).collect();
        assert_eq!(ka, kb, "injection records diverge");
    }

    #[test]
    fn arc_detection_handles_wraparound() {
        let mut states = [0u8; 16];
        // 5 at the end + 4 at the start = 9 contiguous via wrap.
        for s in states.iter_mut().take(4) {
            *s = 1;
        }
        for s in states.iter_mut().skip(11) {
            *s = 1;
        }
        assert!(has_arc(&states));
        // 8 contiguous is not enough.
        let mut eight = [0u8; 16];
        for s in eight.iter_mut().take(8) {
            *s = 2;
        }
        assert!(!has_arc(&eight));
    }
}
