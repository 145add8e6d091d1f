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
//!
//! Scores are integers (a SAD of at most 16 · 255 = 4080), kept in a
//! `u16` plane for the non-maximum suppression; the `f64` keypoint
//! response carries the same value. At the AVX2 dispatch level the scan
//! runs the block segment test of `simd::RowBlocks::block` over 32
//! centres at a time. Inside a fault session it taps each surviving
//! centre exactly as the other levels do; outside one every tap returns
//! its input, so the walk records the block's corners directly and
//! visits no other centre.
//!
//! Selection is lazy: candidates are visited strongest first (response
//! descending, then raster position), in rounds that partition and sort
//! only a prefix of the candidate list, and the non-maximum test stops
//! at the `max_keypoints`-th survivor. The test reads only the score
//! plane and calls no tap, so the result is the full sort's prefix at
//! every level, in and out of sessions.

use crate::keypoint::KeyPoint;
use crate::simd;
use std::cmp::{Ordering, Reverse};
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
/// the threshold (at most 16 · 255, so it fits a `u16`).
fn response(img: &GrayImage, x: usize, y: usize, center: u8, t: u8) -> u16 {
    let mut acc = 0u16;
    for &(dx, dy) in &CIRCLE {
        let v = img.get_clamped(x as isize + dx as isize, y as isize + dy as isize);
        let d = (v as i16 - center as i16).abs();
        if d > t as i16 {
            acc += d as u16;
        }
    }
    acc
}

/// Reusable buffers for [`detect_into`]: the NMS score plane and the
/// candidate list survive across frames so steady-state detection
/// allocates nothing.
#[derive(Debug, Default)]
pub struct FastScratch {
    scores: Vec<u16>,
    candidates: Vec<(usize, usize, u16)>,
    prereject: u64,
}

impl FastScratch {
    /// Total heap footprint (element counts of the owned buffers).
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
/// (`swar_segment_test`) whenever the tapped centre register holds an
/// in-range u8 value; a fault-widened centre falls back to the original
/// saturating-i64 classify loop so corrupted-run outcomes are untouched.
/// The SWAR path sits strictly between the same taps as the scalar loop
/// and computes the same corner decision, so the tap stream and results
/// stay bit-identical — the `SimdLevel::Scalar` arm keeps the original
/// path alive as the proof oracle. The AVX2 level decides 32 centres per
/// block before their taps and uses a block's verdict only for a centre
/// whose tapped value equals the loaded pixel; any other tapped value
/// takes the single-candidate path. Outside a fault session, where
/// `tap::gpr` returns its input and `tap::work` never fails, the AVX2
/// walk skips the per-centre taps and records each block's corners and
/// pre-reject count directly: the same records and count the tapped
/// walk would reach.
///
/// The strongest survivors are then picked lazily: candidates are
/// partitioned and sorted one strongest-first prefix at a time, and the
/// 3×3 non-maximum test runs in that order until `max_keypoints`
/// survivors are found. Each prefix holds only candidates stronger than
/// every later one, so the survivors and their order equal those of
/// suppressing every candidate and sorting the result.
pub fn detect_into(
    img: &GrayImage,
    config: &FastConfig,
    scratch: &mut FastScratch,
    out: &mut Vec<KeyPoint>,
) -> Result<(), SimError> {
    detect_into_level(img, config, scratch, out, vs_image::dispatch::level())
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
    /// SWAR masks + popcount pre-reject.
    Swar,
    /// Vector compass quick-scan + 128-bit ring classify.
    Sse2,
    /// 32-centre block segment test; SSE2 for the single candidates.
    Avx2,
}

/// Per-call state of the candidate walk: the image and its ring
/// offsets, and the outputs every tested candidate feeds.
struct Walk<'a> {
    img: &'a GrayImage,
    ring: [isize; 16],
    t: u8,
    mode: Mode,
    prereject: u64,
    scores: &'a mut [u16],
    candidates: &'a mut Vec<(usize, usize, u16)>,
}

impl Walk<'_> {
    /// The tapped candidate block shared by every scan strategy:
    /// data-tap the centre register, then run the full segment test on
    /// the tapped value. Byte-identical tap stream across modes.
    #[inline(always)]
    fn candidate(&mut self, x: usize, y: usize, center: u8) -> Result<(), SimError> {
        // The comparison happens in the full register width, as the
        // native `cmp` would: a corrupted high bit makes the centre
        // enormous and every circle pixel "darker".
        let center_reg = tap::gpr(center as u64) as i64;
        tap::work(OpClass::IntAlu, 32)?;
        self.test(x, y, center_reg);
        Ok(())
    }

    /// Segment test, scoring and recording of one candidate whose
    /// centre register holds `center_reg`. A fault-widened centre always
    /// takes the saturating-i64 classify loop.
    fn test(&mut self, x: usize, y: usize, center_reg: i64) {
        let w = self.img.width();
        let data = self.img.as_bytes();
        let base = (y * w + x) as isize;
        let ring = &self.ring;
        let corner = if self.mode != Mode::Scalar && (0..=255).contains(&center_reg) {
            // Uncorrupted centre: mask computation + popcount pre-reject,
            // exact arc test on the surviving masks.
            let ring_vals: [u8; 16] = std::array::from_fn(|i| data[(base + ring[i]) as usize]);
            if self.mode == Mode::Swar {
                swar_segment_test(&ring_vals, center_reg as u64, self.t, &mut self.prereject)
            } else {
                crate::simd::segment_test_simd(
                    &ring_vals,
                    center_reg as u8,
                    self.t,
                    &mut self.prereject,
                )
            }
        } else {
            // Fault-widened centre (or the scalar oracle): original
            // saturating-i64 classify loop.
            let mut states = [0u8; 16];
            for (i, s) in states.iter_mut().enumerate() {
                let v = data[(base + ring[i]) as usize] as i64;
                *s = if v >= center_reg.saturating_add(self.t as i64) {
                    1
                } else if v <= center_reg.saturating_sub(self.t as i64) {
                    2
                } else {
                    0
                };
            }
            has_arc(&states)
        };
        if corner {
            let center = center_reg.clamp(0, 255) as u8;
            self.record(x, y, response(self.img, x, y, center, self.t));
        }
    }

    fn record(&mut self, x: usize, y: usize, score: u16) {
        self.scores[y * self.img.width() + x] = score;
        self.candidates.push((x, y, score));
    }
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
    scratch.scores.clear();
    scratch.scores.resize(w * h, 0);
    scratch.candidates.clear();
    let t = config.threshold;
    let data = img.as_bytes();
    // Linear offsets of the 16-pixel ring; in-bounds for every interior
    // (3-pixel-margin) centre, where the clamped reads never clamped.
    let ring = simd::ring_offsets(w);
    // Set up once per call: the block kernel's ring offsets and AVX2
    // check, and the session check, as the render loop gates its painter.
    let blocks = (mode == Mode::Avx2).then(|| simd::Blocks::new(w, t));
    let untapped = blocks.is_some() && !vs_fault::session::active();
    let mut walk = Walk {
        img,
        ring,
        t,
        mode,
        prereject: 0,
        scores: &mut scratch.scores,
        candidates: &mut scratch.candidates,
    };

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
            // The quick rejection is tap-free in the scalar walk, so
            // deciding it for a block of centres and visiting survivors
            // in ascending x reproduces the tap stream byte-for-byte.
            let mut x = 3usize;
            if let Some(blocks) = &blocks {
                let row_blocks = blocks.row(data, y);
                if untapped {
                    // Off-session taps return their input and charge
                    // nothing, so the tapped walk below would trust every
                    // block verdict: it would count exactly the block's
                    // pre-rejects and record exactly its corners.
                    while x + simd::BLOCK + 3 <= w {
                        let block = row_blocks.block(x);
                        walk.prereject += u64::from(block.prereject.count_ones());
                        let mut mask = block.corner;
                        while mask != 0 {
                            let j = mask.trailing_zeros() as usize;
                            mask &= mask - 1;
                            walk.record(x + j, y, block.response[j]);
                        }
                        x += simd::BLOCK;
                    }
                } else {
                    // The block also decides each survivor's segment test,
                    // pre-reject and response for its loaded centre value,
                    // which a fault in the centre's tap may change.
                    while x + simd::BLOCK + 3 <= w {
                        let block = row_blocks.block(x);
                        let mut mask = block.pass;
                        while mask != 0 {
                            let j = mask.trailing_zeros() as usize;
                            mask &= mask - 1;
                            let center = r[x + j];
                            let center_reg = tap::gpr(center as u64) as i64;
                            tap::work(OpClass::IntAlu, 32)?;
                            if center_reg != i64::from(center) {
                                walk.test(x + j, y, center_reg);
                                continue;
                            }
                            walk.prereject += u64::from(block.prereject >> j & 1);
                            if block.corner >> j & 1 == 1 {
                                walk.record(x + j, y, block.response[j]);
                            }
                        }
                        x += simd::BLOCK;
                    }
                }
            } else {
                while x + simd::QUICK_LANES + 3 <= w {
                    let mut mask = simd::quick_pass_mask(data, w, y, x, t);
                    while mask != 0 {
                        let j = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        walk.candidate(x + j, y, r[x + j])?;
                    }
                    x += simd::QUICK_LANES;
                }
            }
            while x < w - 3 {
                let base = (y * w + x) as isize;
                let vals: [u8; 4] = std::array::from_fn(|q| data[(base + ring[4 * q]) as usize]);
                if simd::compass_pass(vals, r[x], t) {
                    walk.candidate(x, y, r[x])?;
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
            walk.candidate(x, y, center)?;
        }
    }
    scratch.prereject = walk.prereject;
    select_strongest(
        &mut scratch.candidates,
        &scratch.scores,
        w,
        config.nonmax_suppression,
        config.max_keypoints,
        out,
    );
    Ok(())
}

/// Strongest first: response descending, then raster position `(y, x)`
/// ascending. A strict total order, since candidate positions are
/// unique.
fn strongest_first(a: &(usize, usize, u16), b: &(usize, usize, u16)) -> Ordering {
    (Reverse(a.2), a.1, a.0).cmp(&(Reverse(b.2), b.1, b.0))
}

/// The 3×3 non-maximum test on the score plane of width `w`: a
/// neighbour with a higher score, or an equal score earlier in raster
/// order, suppresses `(x, y)`. The one-sided tie-break keeps exactly one
/// point of a plateau. Candidates keep a 3-pixel margin, so every
/// neighbour is inside the plane.
fn is_local_max(scores: &[u16], w: usize, x: usize, y: usize, s: u16) -> bool {
    for ny in y - 1..=y + 1 {
        for nx in x - 1..=x + 1 {
            let n = scores[ny * w + nx];
            if (nx, ny) != (x, y) && (n > s || (n == s && (ny, nx) < (y, x))) {
                return false;
            }
        }
    }
    true
}

/// Push the `k` strongest survivors of `candidates` to `out`, strongest
/// first, visiting candidates lazily in [`strongest_first`] order.
///
/// Each round partitions a prefix of the unvisited candidates with
/// `select_nth_unstable_by` and sorts only that prefix, so every round
/// holds candidates stronger than all later ones and the visit order is
/// exactly a full sort's. The non-maximum test depends only on the
/// score plane, so stopping at the `k`-th survivor yields the prefix of
/// the full suppress-then-sort result. Reorders `candidates` in place.
fn select_strongest(
    candidates: &mut [(usize, usize, u16)],
    scores: &[u16],
    w: usize,
    nonmax_suppression: bool,
    k: usize,
    out: &mut Vec<KeyPoint>,
) {
    let mut rest = candidates;
    while out.len() < k && !rest.is_empty() {
        let m = (k - out.len()).saturating_mul(4).max(64).min(rest.len());
        if m < rest.len() {
            rest.select_nth_unstable_by(m - 1, strongest_first);
        }
        let (round, tail) = std::mem::take(&mut rest).split_at_mut(m);
        round.sort_unstable_by(strongest_first);
        for &(x, y, s) in round.iter() {
            if !nonmax_suppression || is_local_max(scores, w, x, y, s) {
                out.push(KeyPoint::new(x, y, f64::from(s)));
                if out.len() == k {
                    return;
                }
            }
        }
        rest = tail;
    }
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
            let scalar = vs_image::SimdLevel::Scalar;
            detect_into_level(&img, &cfg, &mut s_ref, &mut kp_ref, scalar).unwrap();
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
        let mut check = |img: &GrayImage, cfg: &FastConfig, ctx: &str| {
            detect_into_level(img, cfg, &mut s_ref, &mut kp_ref, SimdLevel::Scalar).unwrap();
            let mut swar_pre = None;
            for level in SimdLevel::ALL {
                if !level.available() {
                    continue;
                }
                detect_into_level(img, cfg, &mut s_lvl, &mut kp_lvl, level).unwrap();
                assert_eq!(kp_lvl, kp_ref, "{ctx} level {level}");
                if level != SimdLevel::Scalar {
                    let pre = swar_pre.get_or_insert(s_lvl.prereject());
                    assert_eq!(s_lvl.prereject(), *pre, "{ctx} level {level}");
                }
            }
            kp_ref.len()
        };
        for trial in 0..24 {
            let w = 8 + rng.gen_range(0usize..50);
            let h = 8 + rng.gen_range(0usize..50);
            let img = GrayImage::from_fn(w, h, |_, _| rng.gen_range(0u32..256) as u8);
            let cfg = FastConfig {
                threshold: [0, 4, 20, 255][trial % 4],
                ..FastConfig::default()
            };
            check(&img, &cfg, &format!("trial {trial}: {w}x{h}"));
        }
        // Widths covering one to four 32-centre blocks plus 0–31-pixel
        // tails; random, plateau (equal-score corners of identical
        // squares tie in NMS and at the top-k cut) and flat images (at
        // t = 0 every pixel is a corner of response 0); thresholds 0 and
        // 255 among them; and `max_keypoints` of 0, 1, a few, and more
        // than there are candidates.
        for blocks in 1..=4usize {
            for tail in [0usize, 1, 17, 31, rng.gen_range(0usize..32)] {
                let w = 6 + 32 * blocks + tail;
                let h = 8 + rng.gen_range(0usize..8);
                let images = [
                    GrayImage::from_fn(w, h, |_, _| rng.gen_range(0u32..256) as u8),
                    GrayImage::from_fn(w, h, |x, y| if x % 7 < 3 && y % 6 < 3 { 210 } else { 40 }),
                    GrayImage::from_fn(w, h, |_, _| 77),
                ];
                for (k, img) in images.iter().enumerate() {
                    for threshold in [0u8, 1, 20, 255] {
                        for max_keypoints in [0, 1, 5, usize::MAX] {
                            let cfg = FastConfig {
                                threshold,
                                max_keypoints,
                                ..FastConfig::default()
                            };
                            let ctx = format!("{w}x{h} image {k} t={threshold} k={max_keypoints}");
                            let n = check(img, &cfg, &ctx);
                            assert!(n <= max_keypoints, "{ctx}: {n} keypoints");
                        }
                    }
                }
            }
        }
    }

    /// Test-side reference for the whole detector that shares no code
    /// with its walk or its selection: the segment test at every
    /// interior pixel, a 3×3 suppression with the raster tie-break over
    /// every candidate, a full sort, then truncation.
    fn detect_oracle(img: &GrayImage, cfg: &FastConfig) -> Vec<KeyPoint> {
        let (w, h) = (img.width(), img.height());
        if w < 8 || h < 8 {
            return Vec::new();
        }
        let t = cfg.threshold;
        let mut scores = vec![0u16; w * h];
        let mut candidates = Vec::new();
        for y in 3..h - 3 {
            for x in 3..w - 3 {
                let c = img.get(x, y).unwrap();
                let ring = CIRCLE.map(|(dx, dy)| {
                    img.get(
                        (x as isize + dx as isize) as usize,
                        (y as isize + dy as isize) as usize,
                    )
                    .unwrap()
                });
                if scalar_segment(&ring, i64::from(c), t) {
                    let s = ring
                        .iter()
                        .map(|&v| v.abs_diff(c))
                        .filter(|&d| d > t)
                        .map(u16::from)
                        .sum();
                    scores[y * w + x] = s;
                    candidates.push((x, y, s));
                }
            }
        }
        // A neighbour beats (x, y) with a higher score, or with the same
        // score at an earlier raster position.
        let survives = |&(x, y, s): &(usize, usize, u16)| {
            (-1isize..=1).all(|dy| {
                (-1isize..=1).all(|dx| {
                    let (nx, ny) = (x as isize + dx, y as isize + dy);
                    let n = scores[ny as usize * w + nx as usize];
                    (dx, dy) == (0, 0) || n < s || (n == s && (ny, nx) > (y as isize, x as isize))
                })
            })
        };
        let mut kept: Vec<_> = candidates
            .into_iter()
            .filter(|c| !cfg.nonmax_suppression || survives(c))
            .collect();
        kept.sort_by(|a, b| b.2.cmp(&a.2).then((a.1, a.0).cmp(&(b.1, b.0))));
        kept.truncate(cfg.max_keypoints);
        kept.into_iter()
            .map(|(x, y, s)| KeyPoint::new(x, y, f64::from(s)))
            .collect()
    }

    /// The lazy strongest-first selection equals the full
    /// suppress-sort-truncate reference at every level, for keypoint caps
    /// around the survivor count `s`, with and without suppression.
    /// Plateau images tie responses across neighbours (the raster
    /// tie-break decides) and at the cap; random images at a low
    /// threshold hold many more candidates than survivors, so reaching
    /// `s` survivors takes several selection rounds.
    #[test]
    fn selection_matches_full_sort_oracle_at_every_level() {
        use vs_image::SimdLevel;
        let mut rng = vs_rng::SplitMix64::new(0x5E1E_C7ED);
        let mut images = vec![
            // Identical squares: equal-score corners, tied across
            // squares, and 2×2 blocks whose four pixels tie.
            GrayImage::from_fn(77, 41, |x, y| if x % 7 < 3 && y % 6 < 3 { 210 } else { 40 }),
            GrayImage::from_fn(70, 20, |x, y| if x % 4 < 2 && y % 4 < 2 { 200 } else { 60 }),
            // Wide flat plateaus with single-step edges.
            GrayImage::from_fn(90, 30, |x, y| ((x / 11 + y / 9) % 2) as u8 * 30 + 100),
            // Grid lines.
            GrayImage::from_fn(
                66,
                34,
                |x, y| if x % 8 == 0 || y % 8 == 0 { 250 } else { 5 },
            ),
        ];
        for (w, h) in [(40, 40), (101, 37), (140, 24)] {
            images.push(GrayImage::from_fn(w, h, |_, _| {
                rng.gen_range(0u32..256) as u8
            }));
        }
        let mut scratch = FastScratch::default();
        let mut out = Vec::new();
        for (i, img) in images.iter().enumerate() {
            for threshold in [0u8, 1, 20, 255] {
                for nonmax_suppression in [true, false] {
                    let all = FastConfig {
                        threshold,
                        nonmax_suppression,
                        max_keypoints: usize::MAX,
                    };
                    let s = detect_oracle(img, &all).len();
                    let caps = [0, 1, 5, s.saturating_sub(1), s, s + 1, usize::MAX];
                    for max_keypoints in caps {
                        let cfg = FastConfig {
                            max_keypoints,
                            ..all.clone()
                        };
                        let want = detect_oracle(img, &cfg);
                        for level in SimdLevel::ALL.into_iter().filter(|l| l.available()) {
                            detect_into_level(img, &cfg, &mut scratch, &mut out, level).unwrap();
                            assert_eq!(
                                out, want,
                                "image {i} t={threshold} nms={nonmax_suppression} \
                                 k={max_keypoints} (s={s}) level {level}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Outside a fault session the AVX2 walk visits only the block
    /// corners; inside one it taps every passing centre. Both must give
    /// the same keypoints and pre-reject count at every level.
    #[test]
    fn untapped_walk_matches_tapped_walk_at_every_level() {
        use vs_fault::session;
        use vs_image::SimdLevel;
        let mut rng = vs_rng::SplitMix64::new(0x0B7A_99ED);
        let mut s_off = FastScratch::default();
        let mut s_on = FastScratch::default();
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for trial in 0..24 {
            let w = 8 + rng.gen_range(0usize..150);
            let h = 8 + rng.gen_range(0usize..30);
            let img = GrayImage::from_fn(w, h, |_, _| rng.gen_range(0u32..256) as u8);
            let cfg = FastConfig {
                threshold: [0, 1, 20, 255][trial % 4],
                max_keypoints: [1, 120, usize::MAX][trial % 3],
                ..FastConfig::default()
            };
            for level in SimdLevel::ALL.into_iter().filter(|l| l.available()) {
                detect_into_level(&img, &cfg, &mut s_off, &mut off, level).unwrap();
                {
                    let _s = session::begin_profile();
                    detect_into_level(&img, &cfg, &mut s_on, &mut on, level).unwrap();
                }
                let ctx = format!("trial {trial}: {w}x{h} level {level}");
                assert_eq!(off, on, "{ctx}");
                assert_eq!(s_off.prereject(), s_on.prereject(), "{ctx}");
            }
        }
    }

    /// Fault-path equivalence at every level. Under the same
    /// `(FastDetect, IntAlu)`-confined fault every level returns the
    /// scalar oracle's keypoints (or error), fires the same fault and
    /// counts the same instructions. Flips of bits 0–7 keep the tapped
    /// centre in 0..=255 but change it, so a level that trusted its
    /// vector verdict for the loaded centre would diverge; bits 8, 40 and
    /// 63 widen it. The image spans three 32-centre blocks plus a tail.
    #[test]
    fn fault_path_matches_scalar_at_every_level() {
        use vs_fault::{session, FaultSpec, FuncMask, RegClass};
        use vs_image::SimdLevel;
        let mut rng = vs_rng::SplitMix64::new(0xFA17_0B10);
        let img = GrayImage::from_fn(131, 40, |x, y| {
            if (x / 9 + y / 7) % 3 == 0 {
                rng.gen_range(0u32..256) as u8
            } else {
                (x + 2 * y) as u8
            }
        });
        let cfg = FastConfig::default();
        let group = (FuncId::FastDetect, OpClass::IntAlu);
        let taps = {
            let _s = session::begin_profile();
            detect(&img, &cfg).unwrap();
            session::snapshot().gpr_groups[session::group_index(group.0, group.1)]
        };
        assert!(taps > 300, "only {taps} candidate taps");
        let run = |level: Option<SimdLevel>, spec: FaultSpec| {
            let _s = session::begin_injection(spec, FuncMask::all(), u64::MAX);
            let mut scratch = FastScratch::default();
            let mut out = Vec::new();
            let res = match level {
                None => detect_into_level(&img, &cfg, &mut scratch, &mut out, SimdLevel::Scalar),
                Some(l) => detect_into_level(&img, &cfg, &mut scratch, &mut out, l),
            };
            (
                res.map(|()| out),
                session::fired(),
                session::snapshot().instr,
            )
        };
        let levels: Vec<_> = SimdLevel::ALL
            .into_iter()
            .filter(|l| l.available())
            .collect();
        for tap_index in (0..taps).step_by(13) {
            for bit in (0..8).chain([8, 40, 63]) {
                let spec = FaultSpec {
                    group: Some(group),
                    ..FaultSpec::new(RegClass::Gpr, tap_index, bit)
                };
                let want = run(None, spec);
                assert!(want.1.is_some(), "tap {tap_index} bit {bit} never fired");
                for &level in &levels {
                    assert_eq!(
                        run(Some(level), spec),
                        want,
                        "tap {tap_index} bit {bit} level {level}"
                    );
                }
            }
        }
    }

    /// Fault-campaign equivalence: the SWAR and scalar detectors expose
    /// identical tap streams, so golden profiles and every injection
    /// record (spec, fired fault, outcome) must match exactly.
    #[test]
    fn fault_campaign_outcomes_identical_to_scalar() {
        use vs_fault::campaign::{profile_golden, run_campaign, CampaignConfig, Injection};
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
                    detect_into_level(&self.0, &cfg, scratch, out, vs_image::SimdLevel::Scalar)?;
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
        let [ka, kb] = [a, b].map(|r| r.iter().map(Injection::identity).collect::<Vec<_>>());
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
