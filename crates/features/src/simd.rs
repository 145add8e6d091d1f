//! Explicit SSE2/AVX2 paths for ORB — the FAST-9 segment test and the
//! rBRIEF sampler — and the only `unsafe` code in the features crate.
//!
//! Every vector path computes exactly what the scalar code computes,
//! and none of them sits inside the fault-tap stream, so they are
//! campaign-safe at any dispatch level:
//!
//! * the SSE2 per-row **compass quick-scan** ([`quick_pass_mask`]): the
//!   scalar detector rejects a pixel without any taps when fewer than 2
//!   of the 4 compass points (ring entries 0/4/8/12) clear the
//!   threshold. The vector scan computes that pass/fail bit for 16
//!   consecutive centres at once; surviving candidates are then
//!   processed in ascending-x order, so the tap sequence is
//!   byte-identical to the scalar walk.
//! * the SSE2 per-candidate **ring classify** ([`segment_test_simd`]):
//!   the 16 gathered ring bytes are classified against `c ± t` in one
//!   128-bit comparison pair instead of four 4-lane SWAR words; the
//!   resulting bright/dark masks feed the same popcount pre-reject and
//!   [`crate::fast`] `has_arc16` scan.
//! * the AVX2 **block segment test** ([`RowBlocks::block`]): one pass
//!   over the 16 ring rows of 32 consecutive centres returns the compass
//!   pass mask, the corner mask, the popcount pre-reject mask and 32 SAD
//!   responses in u16 lanes. Each row's bright and dark masks are
//!   movemasked into one `u64` word as soon as they are classified and
//!   counted into two running i8 sums, so no mask array outlives its
//!   row; an AND ladder across the 16 words finds every 9-arc of both
//!   polarities, wrap-around included. The walk sets the kernel up once
//!   per call ([`Blocks`]) and checks row bounds once per row. The
//!   detector still taps every passing centre in ascending x, and
//!   trusts the block only when the tapped centre equals the loaded one.
//! * the AVX2 **rBRIEF sampler** ([`brief_words`]): four pattern pairs
//!   per step in f64 lanes, in the scalar loop's expression order with
//!   separate multiplies and adds (no FMA). It rounds half away from
//!   zero as `trunc + (f ≥ 0.5) − (f ≤ −0.5)` and clamps in f64 with NaN
//!   mapped to 0 (as `NaN.round() as isize` is 0), so each sample index
//!   is the pixel `GrayImage::get_clamped` reads. The two loads per
//!   pair are bounds-checked slice reads.
//!
//! Threshold predicates avoid the saturating-add trap: `v ≥ c + t` is
//! evaluated as `sat(v - c) ≥ t` (exact for `t ≥ 1`; `adds_epu8(c, t)`
//! would saturate at 255 and misclassify `v = 255` centres), and `t = 0`
//! falls back to plain `v ≥ c` / `v < c` with the scalar classifier's
//! bright-wins priority. Unsigned `≥` is `cmpeq(max_epu8(a, b), a)` —
//! SSE2 has no unsigned compare. Proven against the scalar classifier
//! over the full (c, t, v) cube in the tests.
#![deny(unsafe_op_in_unsafe_fn)]

use crate::brief::BITS;
use crate::fast::{classify, has_arc16, ARC_LENGTH, CIRCLE};
use vs_image::GrayImage;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::brief::BITS;
    use std::arch::x86_64::*;

    /// Unsigned per-byte `a ≥ b`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn ge_u8(a: __m128i, b: __m128i) -> __m128i {
        _mm_cmpeq_epi8(_mm_max_epu8(a, b), a)
    }

    /// Bright (`v ≥ c + t`) and dark (`v ≤ c − t`, bright wins) masks
    /// for 16 centres against 16 sample values.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn classify16(v: __m128i, c: __m128i, tv: __m128i, t_zero: bool) -> (__m128i, __m128i) {
        if t_zero {
            let bright = ge_u8(v, c);
            let dark = _mm_andnot_si128(bright, ge_u8(c, v));
            (bright, dark)
        } else {
            let bright = ge_u8(_mm_subs_epu8(v, c), tv);
            let dark = _mm_andnot_si128(bright, ge_u8(_mm_subs_epu8(c, v), tv));
            (bright, dark)
        }
    }

    /// "At least 2 of 4" over four 0/-1 byte masks: summing as i8 puts
    /// each lane in [-4, 0]; `< -1` means ≥ 2 masks were set.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn at_least2(m0: __m128i, m1: __m128i, m2: __m128i, m3: __m128i) -> __m128i {
        let sum = _mm_add_epi8(_mm_add_epi8(m0, m1), _mm_add_epi8(m2, m3));
        _mm_cmpgt_epi8(_mm_set1_epi8(-1), sum)
    }

    /// Compass pass mask for 16 consecutive centres at `(x0.., y)`.
    ///
    /// Caller guarantees `3 ≤ y < h-3`, `x0 ≥ 3`, `x0 + 19 ≤ w` (so all
    /// five 16-byte loads are in bounds) — asserted in the safe wrapper.
    #[target_feature(enable = "sse2")]
    pub(super) fn quick16(data: &[u8], w: usize, y: usize, x0: usize, t: u8) -> u32 {
        let tv = _mm_set1_epi8(t as i8);
        let t_zero = t == 0;
        // SAFETY: the five loads read data[(y±3)·w + x0 ± 3 .. +16];
        // the wrapper asserts x0 ≥ 3 and (y+3)·w + x0 + 19 ≤ data.len().
        unsafe {
            let p = data.as_ptr();
            let c = _mm_loadu_si128(p.add(y * w + x0).cast());
            let top = _mm_loadu_si128(p.add((y - 3) * w + x0).cast());
            let bot = _mm_loadu_si128(p.add((y + 3) * w + x0).cast());
            let right = _mm_loadu_si128(p.add(y * w + x0 + 3).cast());
            let left = _mm_loadu_si128(p.add(y * w + x0 - 3).cast());
            let (b0, d0) = classify16(top, c, tv, t_zero);
            let (b1, d1) = classify16(right, c, tv, t_zero);
            let (b2, d2) = classify16(bot, c, tv, t_zero);
            let (b3, d3) = classify16(left, c, tv, t_zero);
            let pass = _mm_or_si128(at_least2(b0, b1, b2, b3), at_least2(d0, d1, d2, d3));
            _mm_movemask_epi8(pass) as u32
        }
    }

    /// AVX2 twin of [`ge_u8`].
    #[inline]
    #[target_feature(enable = "avx2")]
    fn ge_u8_256(a: __m256i, b: __m256i) -> __m256i {
        _mm256_cmpeq_epi8(_mm256_max_epu8(a, b), a)
    }

    /// AVX2 twin of [`classify16`], 32 centres.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn classify32(v: __m256i, c: __m256i, tv: __m256i, t_zero: bool) -> (__m256i, __m256i) {
        if t_zero {
            let bright = ge_u8_256(v, c);
            let dark = _mm256_andnot_si256(bright, ge_u8_256(c, v));
            (bright, dark)
        } else {
            let bright = ge_u8_256(_mm256_subs_epu8(v, c), tv);
            let dark = _mm256_andnot_si256(bright, ge_u8_256(_mm256_subs_epu8(c, v), tv));
            (bright, dark)
        }
    }

    /// AVX2 twin of [`at_least2`].
    #[inline]
    #[target_feature(enable = "avx2")]
    fn at_least2_256(m0: __m256i, m1: __m256i, m2: __m256i, m3: __m256i) -> __m256i {
        let sum = _mm256_add_epi8(_mm256_add_epi8(m0, m1), _mm256_add_epi8(m2, m3));
        _mm256_cmpgt_epi8(_mm256_set1_epi8(-1), sum)
    }

    /// One ring row's bright and dark masks as one word: the bright
    /// movemask in the low 32 bits, the dark one in the high 32.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn row_word(bright: __m256i, dark: __m256i) -> u64 {
        let b = _mm256_movemask_epi8(bright) as u32;
        let d = _mm256_movemask_epi8(dark) as u32;
        u64::from(b) | u64::from(d) << 32
    }

    /// Block segment test for the 32 centres at `data[base..base + 32]`
    /// (movemask bit order is ascending byte order — ascending x).
    ///
    /// The four compass rows decide the quick rejection (≥ 2 of 4)
    /// first. A block with a survivor then classifies all sixteen rows,
    /// and each row's masks leave the vector registers at once: they are
    /// movemasked into one [`row_word`] and added into two running i8
    /// counts, bright and dark, whose ≥ 9-of-16 test is the popcount
    /// pre-reject. The arc test runs on the sixteen scalar words. Only
    /// the centre row, the two counts and the two SAD accumulators stay
    /// live across rows. The compass rows are classified again rather
    /// than kept: every form that reused their masks compiled to
    /// byte-by-byte mask rebuilds from movemask bits, at twice the cost.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2, and every ring row lies in `data`:
    /// `base + ring[i] ≥ 0` and `base + ring[i] + 32 ≤ data.len()` for
    /// all `i`, as does `base + 32 ≤ data.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn block32(
        data: &[u8],
        ring: &[isize; 16],
        base: usize,
        t: u8,
    ) -> super::Block32 {
        let tv = _mm256_set1_epi8(t as i8);
        let t_zero = t == 0;
        let p = data.as_ptr();
        let zero = _mm256_setzero_si256();
        // The 32 bytes at `base + off`, for `off` 0 or a ring offset.
        let row = |off: isize| {
            // SAFETY: the caller guarantees that the centre row and each
            // ring row `base + ring[i] .. + 32` lie in `data`.
            unsafe { _mm256_loadu_si256(p.offset(base as isize + off).cast()) }
        };
        let c = row(0);
        // Compass entries first: a block none of whose centres survives
        // the quick rejection needs nothing else.
        let (b0, d0) = classify32(row(ring[0]), c, tv, t_zero);
        let (b1, d1) = classify32(row(ring[4]), c, tv, t_zero);
        let (b2, d2) = classify32(row(ring[8]), c, tv, t_zero);
        let (b3, d3) = classify32(row(ring[12]), c, tv, t_zero);
        let pass = _mm256_or_si256(at_least2_256(b0, b1, b2, b3), at_least2_256(d0, d1, d2, d3));
        let pass = _mm256_movemask_epi8(pass) as u32;
        if pass == 0 {
            return super::Block32::default();
        }
        let mut words = [0u64; 16];
        let (mut bright, mut dark) = (zero, zero);
        let (mut sad_lo, mut sad_hi) = (zero, zero);
        for (word, &off) in words.iter_mut().zip(ring) {
            let v = row(off);
            let (b, d) = classify32(v, c, tv, t_zero);
            bright = _mm256_add_epi8(bright, b);
            dark = _mm256_add_epi8(dark, d);
            *word = row_word(b, d);
            // The SAD response adds |v − c| where it exceeds t.
            let diff = _mm256_or_si256(_mm256_subs_epu8(v, c), _mm256_subs_epu8(c, v));
            let kept = _mm256_andnot_si256(ge_u8_256(tv, diff), diff);
            sad_lo = _mm256_add_epi16(sad_lo, _mm256_unpacklo_epi8(kept, zero));
            sad_hi = _mm256_add_epi16(sad_hi, _mm256_unpackhi_epi8(kept, zero));
        }
        let arcs = super::arc9_words(&words);
        // Each set mask added −1, so a count below −8 means 9 or more.
        let nine = _mm256_set1_epi8(-8);
        let survive = _mm256_or_si256(
            _mm256_cmpgt_epi8(nine, bright),
            _mm256_cmpgt_epi8(nine, dark),
        );
        // The unpacks interleave within 128-bit lanes: `sad_lo` holds
        // centres 0..8 and 16..24, `sad_hi` 8..16 and 24..32.
        let mut response = [0u16; 32];
        let first = _mm256_permute2x128_si256::<0x20>(sad_lo, sad_hi);
        let second = _mm256_permute2x128_si256::<0x31>(sad_lo, sad_hi);
        // SAFETY: `response` holds 32 u16 lanes, two 256-bit stores.
        unsafe {
            _mm256_storeu_si256(response.as_mut_ptr().cast(), first);
            _mm256_storeu_si256(response.as_mut_ptr().add(16).cast(), second);
        }
        super::Block32 {
            pass,
            corner: (arcs as u32 | (arcs >> 32) as u32) & pass,
            prereject: !(_mm256_movemask_epi8(survive) as u32) & pass,
            response,
        }
    }

    /// `f.round()` (half away from zero) in four f64 lanes, as
    /// `trunc(f) + (f − trunc(f) ≥ 0.5) − (f − trunc(f) ≤ −0.5)`. The
    /// difference is exact; ±inf stays ±inf and NaN stays NaN. Only the
    /// sign of a zero result may differ from `f64::round`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn round_half_away(f: __m256d) -> __m256d {
        let t = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(f);
        let frac = _mm256_sub_pd(f, t);
        let one = _mm256_set1_pd(1.0);
        let up = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(frac, _mm256_set1_pd(0.5)), one);
        let down = _mm256_and_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(frac, _mm256_set1_pd(-0.5)), one);
        _mm256_sub_pd(_mm256_add_pd(t, up), down)
    }

    /// `clamp(f, 0, max)` with NaN mapped to 0. `max_pd` returns its
    /// second operand when either is NaN, so the zero goes second.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn clamp_nan0(f: __m256d, max: __m256d) -> __m256d {
        _mm256_min_pd(_mm256_max_pd(f, _mm256_setzero_pd()), max)
    }

    /// Linear sample indices of all `BITS` rBRIEF pairs for a keypoint
    /// at `(cx, cy)` with orientation `(sin, cos)`, four pairs per step:
    /// `idx[0][i]` / `idx[1][i]` are the first / second sample of pair
    /// `i` in a `w × h` image (`w, h ≥ 1`, `w·h ≤ 2^52`, checked in the
    /// safe wrapper). `cols` holds the pattern's x1, y1, x2, y2 columns.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) fn brief_indices(
        cols: &[[f64; BITS]; 4],
        cx: f64,
        cy: f64,
        sin: f64,
        cos: f64,
        w: usize,
        h: usize,
        idx: &mut [[u64; BITS]; 2],
    ) {
        let (vcx, vcy) = (_mm256_set1_pd(cx), _mm256_set1_pd(cy));
        let (vsin, vcos) = (_mm256_set1_pd(sin), _mm256_set1_pd(cos));
        let xmax = _mm256_set1_pd((w - 1) as f64);
        let ymax = _mm256_set1_pd((h - 1) as f64);
        let wf = _mm256_set1_pd(w as f64);
        // 2^52: adding it to an integer n in [0, 2^52) leaves n in the
        // low mantissa bits, so the bit patterns differ by exactly n.
        let magic = _mm256_set1_pd(4_503_599_627_370_496.0);
        let index = |px: __m256d, py: __m256d| {
            // (cx + px·cos) − py·sin and (cy + px·sin) + py·cos, as the
            // scalar loop evaluates them.
            let rx = _mm256_sub_pd(
                _mm256_add_pd(vcx, _mm256_mul_pd(px, vcos)),
                _mm256_mul_pd(py, vsin),
            );
            let ry = _mm256_add_pd(
                _mm256_add_pd(vcy, _mm256_mul_pd(px, vsin)),
                _mm256_mul_pd(py, vcos),
            );
            let xi = clamp_nan0(round_half_away(rx), xmax);
            let yi = clamp_nan0(round_half_away(ry), ymax);
            // y·w + x < w·h < 2^52: exact in f64.
            let lin = _mm256_add_pd(_mm256_mul_pd(yi, wf), xi);
            _mm256_sub_epi64(
                _mm256_castpd_si256(_mm256_add_pd(lin, magic)),
                _mm256_castpd_si256(magic),
            )
        };
        for s in (0..BITS).step_by(4) {
            // SAFETY: `s + 4 <= BITS`, the length of every column and of
            // both index rows.
            unsafe {
                let x1 = _mm256_loadu_pd(cols[0].as_ptr().add(s));
                let y1 = _mm256_loadu_pd(cols[1].as_ptr().add(s));
                let x2 = _mm256_loadu_pd(cols[2].as_ptr().add(s));
                let y2 = _mm256_loadu_pd(cols[3].as_ptr().add(s));
                _mm256_storeu_si256(idx[0].as_mut_ptr().add(s).cast(), index(x1, y1));
                _mm256_storeu_si256(idx[1].as_mut_ptr().add(s).cast(), index(x2, y2));
            }
        }
    }

    /// Bright/dark ring masks for one candidate: one 16-byte classify
    /// instead of four 4-lane SWAR words.
    #[target_feature(enable = "sse2")]
    pub(super) fn ring_masks(ring: &[u8; 16], c: u8, t: u8) -> (u16, u16) {
        let cv = _mm_set1_epi8(c as i8);
        let tv = _mm_set1_epi8(t as i8);
        // SAFETY: `ring` is exactly 16 bytes.
        let v = unsafe { _mm_loadu_si128(ring.as_ptr().cast()) };
        let (bright, dark) = classify16(v, cv, tv, t == 0);
        (
            _mm_movemask_epi8(bright) as u16,
            _mm_movemask_epi8(dark) as u16,
        )
    }
}

/// Scalar compass predicate (used by the vector tail and non-x86
/// builds): ≥ 2 of the 4 compass samples share a non-zero classify
/// state. Byte-identical to the inline test in the scalar detector.
pub(crate) fn compass_pass(vals: [u8; 4], center: u8, t: u8) -> bool {
    let mut bright = 0u32;
    let mut dark = 0u32;
    for v in vals {
        match classify(v, center, t) {
            1 => bright += 1,
            2 => dark += 1,
            _ => {}
        }
    }
    bright >= 2 || dark >= 2
}

/// How many centres one SSE2 quick-scan step covers.
pub(crate) const QUICK_LANES: usize = 16;

/// Pass mask for [`QUICK_LANES`] consecutive centres starting at
/// `(x0, y)`: bit `j` set iff centre `x0 + j` survives the compass
/// quick-rejection. Requires an interior span: `3 ≤ y < h-3`, `x0 ≥ 3`,
/// `x0 + 19 ≤ w`.
pub(crate) fn quick_pass_mask(data: &[u8], w: usize, y: usize, x0: usize, t: u8) -> u32 {
    assert!(
        x0 >= 3 && x0 + QUICK_LANES + 3 <= w,
        "quick-scan span out of bounds"
    );
    assert!(
        (y + 3) * w + x0 + QUICK_LANES + 3 <= data.len(),
        "quick-scan rows out of bounds"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is baseline x86-64.
    unsafe {
        x86::quick16(data, w, y, x0, t)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let mut mask = 0u32;
        for j in 0..QUICK_LANES {
            let x = x0 + j;
            let c = data[y * w + x];
            let vals = [
                data[(y - 3) * w + x],
                data[y * w + x + 3],
                data[(y + 3) * w + x],
                data[y * w + x - 3],
            ];
            if compass_pass(vals, c, t) {
                mask |= 1 << j;
            }
        }
        mask
    }
}

/// How many centres one [`RowBlocks::block`] call covers.
pub(crate) const BLOCK: usize = 32;

/// What [`RowBlocks::block`] computes for 32 consecutive centres; bit
/// (or lane) `j` describes centre `x0 + j`. `corner` and `prereject`
/// bits are set only where `pass` is, and `response[j]` is meaningful
/// only there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Block32 {
    /// The compass quick-rejection passes.
    pub pass: u32,
    /// The ring holds 9 contiguous bright or 9 contiguous dark pixels.
    pub corner: u32,
    /// Fewer than 9 bright and fewer than 9 dark ring pixels: the
    /// popcount pre-reject the SWAR and SSE2 segment tests count.
    pub prereject: u32,
    /// SAD response: the sum of `|v − c|` over ring pixels where it
    /// exceeds `t`, at most 16 · 255.
    pub response: [u16; BLOCK],
}

/// Linear offsets of the 16 ring pixels at row stride `w`.
pub(crate) fn ring_offsets(w: usize) -> [isize; 16] {
    CIRCLE.map(|(dx, dy)| dy as isize * w as isize + dx as isize)
}

/// Lanes holding 9 contiguous set masks of the 16-entry ring, counting
/// wrap-around, for every lane of the 16 words at once: `has_arc16`'s
/// AND ladder (offsets 1, 2, 4, then the ninth entry) run across words
/// instead of across bits. A bright and a dark lane of the same centre
/// sit in different bits, so one pass finds both polarities.
fn arc9_words(m: &[u64; 16]) -> u64 {
    let r2: [u64; 16] = std::array::from_fn(|i| m[i] & m[(i + 1) % 16]);
    let r4: [u64; 16] = std::array::from_fn(|i| r2[i] & r2[(i + 2) % 16]);
    (0..16).fold(0, |any, i| any | r4[i] & r4[(i + 4) % 16] & m[(i + 8) % 16])
}

/// The block segment test of one detector call at threshold `t` on
/// rows of width `w`: the ring offsets are computed and AVX2 detected
/// once, when the walk starts.
pub(crate) struct Blocks {
    ring: [isize; 16],
    w: usize,
    t: u8,
    avx2: bool,
}

/// One row's blocks: its bounds were asserted once, in [`Blocks::row`].
pub(crate) struct RowBlocks<'a> {
    blocks: &'a Blocks,
    data: &'a [u8],
    row: usize,
}

impl Blocks {
    pub(crate) fn new(w: usize, t: u8) -> Blocks {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Blocks {
            ring: ring_offsets(w),
            w,
            t,
            avx2,
        }
    }

    /// The blocks of row `y` of `data`. Requires `3 ≤ y` and rows
    /// `y − 3 ..= y + 3` in `data`: `(y + 4) · w ≤ data.len()`.
    pub(crate) fn row<'a>(&'a self, data: &'a [u8], y: usize) -> RowBlocks<'a> {
        assert!(
            y >= 3
                && (y + 4)
                    .checked_mul(self.w)
                    .is_some_and(|end| end <= data.len()),
            "block rows out of bounds"
        );
        RowBlocks {
            blocks: self,
            data,
            row: y * self.w,
        }
    }
}

impl RowBlocks<'_> {
    /// Block segment test for the [`BLOCK`] centres `x0..x0 + 32` of
    /// this row, with the scalar detector's classify, arc, pre-reject and
    /// response semantics for a centre equal to its loaded pixel.
    /// Requires an interior span: `x0 ≥ 3`, `x0 + 35 ≤ w`.
    #[inline]
    pub(crate) fn block(&self, x0: usize) -> Block32 {
        let b = self.blocks;
        assert!(x0 >= 3 && x0 + BLOCK + 3 <= b.w, "block span out of bounds");
        let base = self.row + x0;
        #[cfg(target_arch = "x86_64")]
        if b.avx2 {
            // SAFETY: AVX2 was detected in `Blocks::new`. Every ring row
            // lies in `data`: the lowest, `base − 3w − 3`, is ≥ 0 since
            // y ≥ 3 and x0 ≥ 3, and the highest ends at `base + 3w + 35
            // ≤ (y + 4)·w ≤ data.len()` since x0 + 35 ≤ w (both asserted).
            return unsafe { x86::block32(self.data, &b.ring, base, b.t) };
        }
        block32_lanes(self.data, &b.ring, base, b.t)
    }
}

/// Per-centre form of [`RowBlocks::block`]: the scalar compass
/// predicate, the SWAR segment test and a scalar SAD, lane by lane. The
/// block's body without AVX2, and the oracle the vector block is tested
/// against.
fn block32_lanes(data: &[u8], ring: &[isize; 16], base: usize, t: u8) -> Block32 {
    let mut b = Block32::default();
    for j in 0..BLOCK {
        let at = base + j;
        let c = data[at];
        let v: [u8; 16] = std::array::from_fn(|i| data[(at as isize + ring[i]) as usize]);
        if !compass_pass([v[0], v[4], v[8], v[12]], c, t) {
            continue;
        }
        b.pass |= 1 << j;
        let mut pre = 0u64;
        b.corner |= u32::from(crate::fast::swar_segment_test(&v, c as u64, t, &mut pre)) << j;
        b.prereject |= (pre as u32) << j;
        b.response[j] = v
            .iter()
            .map(|&p| p.abs_diff(c))
            .filter(|&d| d > t)
            .map(u16::from)
            .sum();
    }
    b
}

/// The four rBRIEF descriptor words of a keypoint at `(cx, cy)` with
/// orientation `(sin, cos)`, sampled by the AVX2 sampler: bit `i` is set
/// iff pair `i`'s first sample is darker than its second. `cols` holds
/// the pattern's x1, y1, x2 and y2 columns. `None` without AVX2 or on
/// an empty image; the caller then runs the scalar pair loop.
pub(crate) fn brief_words(
    img: &GrayImage,
    cols: &[[f64; BITS]; 4],
    cx: f64,
    cy: f64,
    sin: f64,
    cos: f64,
) -> Option<[u64; 4]> {
    let mut idx = [[0u64; BITS]; 2];
    if !brief_indices(img, cols, cx, cy, sin, cos, &mut idx) {
        return None;
    }
    let data = img.as_bytes();
    let mut words = [0u64; 4];
    for (i, (&a, &b)) in idx[0].iter().zip(&idx[1]).enumerate() {
        words[i / 64] |= u64::from(data[a as usize] < data[b as usize]) << (i % 64);
    }
    Some(words)
}

/// Fill `idx` with the linear sample indices of every rBRIEF pair (see
/// `x86::brief_indices`); `false`, leaving `idx` untouched, without
/// AVX2 or on an empty image.
fn brief_indices(
    img: &GrayImage,
    cols: &[[f64; BITS]; 4],
    cx: f64,
    cy: f64,
    sin: f64,
    cos: f64,
    idx: &mut [[u64; BITS]; 2],
) -> bool {
    let (w, h) = (img.width(), img.height());
    if img.is_empty() {
        return false;
    }
    // `vs_image::MAX_PIXELS` keeps every index far below the sampler's
    // 2^52 exactness bound.
    assert!(
        img.as_bytes().len() as u64 <= 1 << 52,
        "image too large for the sampler"
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was just detected; the sampler's loads and stores
        // stay inside the fixed-size `cols` and `idx` arrays.
        unsafe { x86::brief_indices(cols, cx, cy, sin, cos, w, h, idx) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (cols, cx, cy, sin, cos, idx);
    false
}

/// SSE2 full segment test for one candidate: same contract as the SWAR
/// path (`swar_segment_test`) — popcount pre-reject counted in
/// `prereject`, exact contiguous-arc decision on the survivors.
pub(crate) fn segment_test_simd(ring: &[u8; 16], c: u8, t: u8, prereject: &mut u64) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is baseline x86-64.
        let (bright, dark) = unsafe { x86::ring_masks(ring, c, t) };
        if bright.count_ones() < ARC_LENGTH as u32 && dark.count_ones() < ARC_LENGTH as u32 {
            *prereject += 1;
            return false;
        }
        has_arc16(bright) || has_arc16(dark)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        crate::fast::swar_segment_test(ring, c as u64, t, prereject)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::swar_segment_test;

    /// The SSE2 ring classify agrees with the SWAR segment test —
    /// decision *and* prereject bookkeeping — over the full
    /// (centre, threshold) cube with uniform rings (exhausts every
    /// per-lane predicate) and on random mixed rings.
    #[test]
    fn simd_segment_matches_swar_exhaustive_lanes() {
        for c in 0u16..=255 {
            for t in [0u8, 1, 2, 19, 20, 127, 128, 254, 255] {
                for v in 0u16..=255 {
                    let ring = [v as u8; 16];
                    let (mut pa, mut pb) = (0u64, 0u64);
                    let a = segment_test_simd(&ring, c as u8, t, &mut pa);
                    let b = swar_segment_test(&ring, c as u64, t, &mut pb);
                    assert_eq!(a, b, "c={c} t={t} v={v}");
                    assert_eq!(pa, pb, "prereject c={c} t={t} v={v}");
                }
            }
        }
    }

    #[test]
    fn simd_segment_matches_swar_random_rings() {
        let mut rng = vs_rng::SplitMix64::new(0x513D_FA57);
        for trial in 0..200_000u32 {
            let c = rng.gen_range(0u32..256) as u8;
            let t = match trial % 5 {
                0 => 0,
                1 => 255,
                _ => rng.gen_range(0u32..256) as u8,
            };
            let ring: [u8; 16] = std::array::from_fn(|_| rng.gen_range(0u32..256) as u8);
            let (mut pa, mut pb) = (0u64, 0u64);
            assert_eq!(
                segment_test_simd(&ring, c, t, &mut pa),
                swar_segment_test(&ring, c as u64, t, &mut pb),
                "trial {trial}: c={c} t={t} ring={ring:?}"
            );
            assert_eq!(pa, pb, "trial {trial} prereject");
        }
    }

    /// The vector quick-scan mask agrees bit-for-bit with the scalar
    /// compass predicate at every lane, across thresholds (including the
    /// t = 0 priority edge).
    #[test]
    fn quick_mask_matches_scalar_compass() {
        let mut rng = vs_rng::SplitMix64::new(0xC0_3A55);
        let (w, h) = (80usize, 16usize);
        for trial in 0..40u32 {
            let data: Vec<u8> = (0..w * h).map(|_| rng.gen_range(0u32..256) as u8).collect();
            let t = match trial % 4 {
                0 => 0,
                1 => 255,
                _ => rng.gen_range(0u32..256) as u8,
            };
            for y in 3..h - 3 {
                let mut x0 = 3usize;
                while x0 + QUICK_LANES + 3 <= w {
                    let mask = quick_pass_mask(&data, w, y, x0, t);
                    for j in 0..QUICK_LANES {
                        let x = x0 + j;
                        let c = data[y * w + x];
                        let vals = [
                            data[(y - 3) * w + x],
                            data[y * w + x + 3],
                            data[(y + 3) * w + x],
                            data[y * w + x - 3],
                        ];
                        assert_eq!(
                            mask >> j & 1 == 1,
                            compass_pass(vals, c, t),
                            "trial {trial} y={y} x={x} t={t}"
                        );
                    }
                    x0 += QUICK_LANES;
                }
            }
        }
    }

    /// The AVX2 block segment test equals its per-centre form — pass,
    /// corner and pre-reject masks exactly, responses on every passing
    /// lane — at every block offset of random, two-level (bright and
    /// dark runs abut, so a ladder that mixed polarities would find
    /// false arcs), plateau and saturated images, across thresholds
    /// including 0, 1 and 255.
    #[test]
    fn block32_matches_per_centre_lanes() {
        if !vs_image::SimdLevel::Avx2.available() {
            return;
        }
        let mut rng = vs_rng::SplitMix64::new(0xB10C_3232);
        let (w, h) = (77usize, 12usize);
        for trial in 0..48u32 {
            let data: Vec<u8> = match trial % 4 {
                0 => (0..w * h).map(|_| rng.gen_range(0u32..256) as u8).collect(),
                1 => (0..w * h)
                    .map(|_| if rng.gen_range(0u32..2) == 0 { 0 } else { 255 })
                    .collect(),
                2 => (0..w * h)
                    .map(|i| if (i % w) / 9 % 2 == 0 { 120 } else { 121 })
                    .collect(),
                _ => (0..w * h)
                    .map(|_| 100 + rng.gen_range(0u32..40) as u8)
                    .collect(),
            };
            let t = match trial % 6 {
                0 => 0,
                1 => 1,
                2 => 255,
                _ => rng.gen_range(0u32..64) as u8,
            };
            let ring = ring_offsets(w);
            let blocks = Blocks::new(w, t);
            for y in 3..h - 3 {
                let row = blocks.row(&data, y);
                for x0 in 3..=w - BLOCK - 3 {
                    let got = row.block(x0);
                    let want = block32_lanes(&data, &ring, y * w + x0, t);
                    let ctx = format!("trial {trial} t={t} y={y} x0={x0}");
                    assert_eq!(got.pass, want.pass, "pass: {ctx}");
                    assert_eq!(got.corner, want.corner, "corner: {ctx}");
                    assert_eq!(got.prereject, want.prereject, "prereject: {ctx}");
                    for j in (0..BLOCK).filter(|j| want.pass >> j & 1 == 1) {
                        assert_eq!(got.response[j], want.response[j], "response {j}: {ctx}");
                    }
                }
            }
        }
    }

    /// The vector rounding is `f64::round` (half away from zero) on
    /// ties, near-ties, huge, infinite, NaN and random-bit inputs.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn round_half_away_matches_f64_round() {
        use std::arch::x86_64::*;
        if !vs_image::SimdLevel::Avx2.available() {
            return;
        }
        let mut vals = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            10.5,
            -10.5,
            0.49999999999999994,
            -0.49999999999999994,
            4503599627370495.5,
            -4503599627370495.5,
            4503599627370497.0,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut rng = vs_rng::SplitMix64::new(0x0020_C00D);
        vals.extend((0..4000).map(|_| f64::from_bits(rng.next_u64())));
        vals.extend((0..4000).map(|i| (i as f64 - 2000.0) * 0.25));
        while vals.len() % 4 != 0 {
            vals.push(0.5);
        }
        for lanes in vals.chunks_exact(4) {
            let mut out = [0f64; 4];
            // SAFETY: AVX2 is available (checked above); `lanes` and
            // `out` hold four f64 each.
            unsafe {
                let v = _mm256_loadu_pd(lanes.as_ptr());
                _mm256_storeu_pd(out.as_mut_ptr(), x86::round_half_away(v));
            }
            for (f, r) in lanes.iter().zip(out) {
                // `==`, not bit equality: `-0.3` rounds to `+0.0` here and
                // to `-0.0` in `f64::round`, and both clamp to index 0.
                let want = f.round();
                assert!(
                    r == want || (r.is_nan() && want.is_nan()),
                    "round({f:e}) = {r:e}, want {want:e}"
                );
            }
        }
    }

    /// Scalar sample index of one pattern point: the rotation the scalar
    /// rBRIEF loop evaluates, then `get_clamped`'s coordinate clamp.
    fn scalar_index(
        (w, h): (usize, usize),
        (cx, cy): (f64, f64),
        (sin, cos): (f64, f64),
        (px, py): (f64, f64),
    ) -> u64 {
        let rx = cx + px * cos - py * sin;
        let ry = cy + px * sin + py * cos;
        let x = (rx.round() as isize).clamp(0, w as isize - 1) as u64;
        let y = (ry.round() as isize).clamp(0, h as isize - 1) as u64;
        y * w as u64 + x
    }

    /// Every sample index of the AVX2 rBRIEF sampler equals the scalar
    /// loop's: interior, border and far-outside keypoints, half-integer
    /// coordinates (ties), 1×1 and 2×3 images, and NaN, ±inf and
    /// random-bit orientations.
    #[test]
    fn brief_indices_match_scalar_rotation_and_clamp() {
        if !vs_image::SimdLevel::Avx2.available() {
            return;
        }
        let cols = crate::brief::pattern_columns();
        let mut rng = vs_rng::SplitMix64::new(0xB41E_F00D);
        let mut angles = vec![
            0.0,
            std::f64::consts::FRAC_PI_2,
            -std::f64::consts::PI,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
        ];
        angles.extend((0..40).map(|_| f64::from_bits(rng.next_u64())));
        angles.extend(
            (0..40).map(|_| rng.gen_range(0u32..6284) as f64 / 1000.0 - std::f64::consts::PI),
        );
        for (w, h) in [(1usize, 1usize), (2, 3), (40, 30), (131, 17)] {
            let img = GrayImage::new(w, h);
            let centres = [
                (0.0, 0.0),
                (w as f64 - 1.0, h as f64 - 1.0),
                (w as f64 / 2.0, h as f64 / 2.0),
                (10.5, 7.5),
                (-3.5, 2.5),
                (w as f64 + 0.5, -0.5),
                (1e18, -1e18),
            ];
            for &(cx, cy) in &centres {
                for &angle in &angles {
                    let (sin, cos) = f64::sin_cos(angle);
                    let mut idx = [[0u64; BITS]; 2];
                    assert!(brief_indices(&img, cols, cx, cy, sin, cos, &mut idx));
                    for i in 0..BITS {
                        for (k, row) in idx.iter().enumerate() {
                            let point = (cols[2 * k][i], cols[2 * k + 1][i]);
                            let want = scalar_index((w, h), (cx, cy), (sin, cos), point);
                            assert_eq!(
                                row[i], want,
                                "{w}x{h} centre ({cx}, {cy}) angle {angle:e} pair {i} sample {k}"
                            );
                        }
                    }
                }
            }
        }
    }
}
