//! Vectorized bilinear warp — the only `unsafe` code in the warp crate.
//!
//! The warp's inner loop has two halves: the homogeneous coordinate
//! transform (`hx/hw`, `hy/hw` — multiply/add/divide chains in f64) and
//! the bilinear sample/store. The transform is tap-free and
//! elementwise, so it vectorizes exactly: every SSE2/AVX2 lane performs
//! the same IEEE operations in the same order as the scalar expression
//! (`inv₀·dx + r1dy + inv₂`, then one correctly-rounded division), so
//! the coordinates are bit-identical to [`super::remap_bilinear`]'s
//! uncorrupted path.
//!
//! The AVX2 tier samples four pixels per step as well
//! (`x86::sample_avx2`): lanes that fail the finite/range checks are
//! zeroed before any index math, the texels come from two 32-bit
//! gathers per source row, and every lane runs the float blend's IEEE
//! sequence (separate multiply and add, no FMA) with
//! [`super::round_u8_in_range`]'s `trunc + (v − t ≥ 0.5)` rounding. No
//! fixed-point branch is needed: for dyadic weights the float path
//! computes the same bytes (`fixed_point_bilinear_matches_float_path`).
//! Block tails and the SSE2 tier sample through the scalar
//! [`sample_pixel`] (the uncorrupted-path body of the instrumented
//! kernel).
//!
//! The per-pixel fault taps (`tap::fpr` on `sx`, `tap::addr` on the
//! load/store bases, `tap::gpr` on the packed pixel) have no vector
//! equivalent, so this path only runs when no instrumentation session
//! is active on the thread ([`vs_fault::session::active`]); inside
//! campaigns the warp falls back to the instrumented kernel, keeping
//! every injection record identical across `VS_SIMD` levels. Outside
//! sessions the taps are pure pass-throughs, so skipping them changes
//! nothing but the cycle count.
#![deny(unsafe_op_in_unsafe_fn)]

use std::ops::Range;
use vs_fault::SimError;
use vs_image::{GrayImage, RgbImage};
use vs_linalg::{Mat3, Vec2};

/// Pixels per coordinate batch (two cache lines of f64 per axis).
const BLOCK: usize = 16;

/// Fill `sxs`/`sys[..n]` with the source coordinates of destination
/// pixels `x0..x0+n` on the row with hoisted products `r1dy`/`r4dy`.
/// `const_hw` is the affine constant-divisor fast path (`Some(1.0)` =
/// no division); `None` computes the per-pixel projective divisor and
/// encodes the scalar path's tiny-divisor `continue` as a NaN
/// coordinate (the sampler's finite check skips it identically).
#[allow(clippy::too_many_arguments)]
fn fill_coords(
    inv: &[f64; 9],
    ox: f64,
    dy: f64,
    r1dy: f64,
    r4dy: f64,
    const_hw: Option<f64>,
    x0: usize,
    n: usize,
    sxs: &mut [f64; BLOCK],
    sys: &mut [f64; BLOCK],
    wide: bool,
) {
    // SAFETY: SSE2 is baseline x86-64; `wide` is only set when
    // dispatch selected AVX2 (availability-checked).
    #[cfg(target_arch = "x86_64")]
    let mut j = unsafe {
        if wide {
            x86::coords_avx2(inv, ox, dy, r1dy, r4dy, const_hw, x0, n, sxs, sys)
        } else {
            x86::coords_sse2(inv, ox, dy, r1dy, r4dy, const_hw, x0, n, sxs, sys)
        }
    };
    #[cfg(not(target_arch = "x86_64"))]
    let mut j = {
        let _ = wide;
        0usize
    };
    // Scalar tail lanes: one-lane IEEE is the same IEEE.
    while j < n {
        let dx = (x0 + j) as f64 + ox;
        let hx = inv[0] * dx + r1dy + inv[2];
        let hy = inv[3] * dx + r4dy + inv[5];
        (sxs[j], sys[j]) = match const_hw {
            Some(1.0) => (hx, hy),
            Some(c) => (hx / c, hy / c),
            None => {
                let hw = inv[6] * dx + inv[7] * dy + inv[8];
                if hw.abs() < 1e-12 {
                    (f64::NAN, f64::NAN)
                } else {
                    (hx / hw, hy / hw)
                }
            }
        };
        j += 1;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::BLOCK;
    use std::arch::x86_64::*;

    /// Two-lane coordinate transform; returns how many lanes were
    /// filled (the largest even number ≤ n).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "sse2")]
    pub(super) fn coords_sse2(
        inv: &[f64; 9],
        ox: f64,
        dy: f64,
        r1dy: f64,
        r4dy: f64,
        const_hw: Option<f64>,
        x0: usize,
        n: usize,
        sxs: &mut [f64; BLOCK],
        sys: &mut [f64; BLOCK],
    ) -> usize {
        let inv0 = _mm_set1_pd(inv[0]);
        let inv2 = _mm_set1_pd(inv[2]);
        let inv3 = _mm_set1_pd(inv[3]);
        let inv5 = _mm_set1_pd(inv[5]);
        let r1 = _mm_set1_pd(r1dy);
        let r4 = _mm_set1_pd(r4dy);
        let oxv = _mm_set1_pd(ox);
        let mut j = 0usize;
        while j + 2 <= n {
            let xs = _mm_set_pd((x0 + j + 1) as f64, (x0 + j) as f64);
            let dx = _mm_add_pd(xs, oxv);
            // Same association as the scalar path: (inv·dx + rdy) + inv_c.
            let hx = _mm_add_pd(_mm_add_pd(_mm_mul_pd(inv0, dx), r1), inv2);
            let hy = _mm_add_pd(_mm_add_pd(_mm_mul_pd(inv3, dx), r4), inv5);
            let (sx, sy) = match const_hw {
                Some(1.0) => (hx, hy),
                Some(c) => {
                    let cv = _mm_set1_pd(c);
                    (_mm_div_pd(hx, cv), _mm_div_pd(hy, cv))
                }
                None => {
                    let inv6 = _mm_set1_pd(inv[6]);
                    let inv7 = _mm_set1_pd(inv[7]);
                    let inv8 = _mm_set1_pd(inv[8]);
                    let dyv = _mm_set1_pd(dy);
                    let hw = _mm_add_pd(
                        _mm_add_pd(_mm_mul_pd(inv6, dx), _mm_mul_pd(inv7, dyv)),
                        inv8,
                    );
                    // |hw| < 1e-12 lanes become NaN coordinates, the
                    // vector spelling of the scalar `continue`.
                    let abs_mask = _mm_castsi128_pd(_mm_set1_epi64x(0x7FFF_FFFF_FFFF_FFFF));
                    let tiny = _mm_cmplt_pd(_mm_and_pd(hw, abs_mask), _mm_set1_pd(1e-12));
                    let nan = _mm_set1_pd(f64::NAN);
                    let sx = _mm_div_pd(hx, hw);
                    let sy = _mm_div_pd(hy, hw);
                    (
                        _mm_or_pd(_mm_and_pd(tiny, nan), _mm_andnot_pd(tiny, sx)),
                        _mm_or_pd(_mm_and_pd(tiny, nan), _mm_andnot_pd(tiny, sy)),
                    )
                }
            };
            // SAFETY: j + 2 ≤ n ≤ BLOCK bounds both 2-lane stores.
            unsafe {
                _mm_storeu_pd(sxs.as_mut_ptr().add(j), sx);
                _mm_storeu_pd(sys.as_mut_ptr().add(j), sy);
            }
            j += 2;
        }
        j
    }

    /// Four-lane coordinate transform; returns how many lanes were
    /// filled (the largest multiple of 4 ≤ n).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) fn coords_avx2(
        inv: &[f64; 9],
        ox: f64,
        dy: f64,
        r1dy: f64,
        r4dy: f64,
        const_hw: Option<f64>,
        x0: usize,
        n: usize,
        sxs: &mut [f64; BLOCK],
        sys: &mut [f64; BLOCK],
    ) -> usize {
        let inv0 = _mm256_set1_pd(inv[0]);
        let inv2 = _mm256_set1_pd(inv[2]);
        let inv3 = _mm256_set1_pd(inv[3]);
        let inv5 = _mm256_set1_pd(inv[5]);
        let r1 = _mm256_set1_pd(r1dy);
        let r4 = _mm256_set1_pd(r4dy);
        let oxv = _mm256_set1_pd(ox);
        let mut j = 0usize;
        while j + 4 <= n {
            let xs = _mm256_set_pd(
                (x0 + j + 3) as f64,
                (x0 + j + 2) as f64,
                (x0 + j + 1) as f64,
                (x0 + j) as f64,
            );
            let dx = _mm256_add_pd(xs, oxv);
            let hx = _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(inv0, dx), r1), inv2);
            let hy = _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(inv3, dx), r4), inv5);
            let (sx, sy) = match const_hw {
                Some(1.0) => (hx, hy),
                Some(c) => {
                    let cv = _mm256_set1_pd(c);
                    (_mm256_div_pd(hx, cv), _mm256_div_pd(hy, cv))
                }
                None => {
                    let inv6 = _mm256_set1_pd(inv[6]);
                    let inv7 = _mm256_set1_pd(inv[7]);
                    let inv8 = _mm256_set1_pd(inv[8]);
                    let dyv = _mm256_set1_pd(dy);
                    let hw = _mm256_add_pd(
                        _mm256_add_pd(_mm256_mul_pd(inv6, dx), _mm256_mul_pd(inv7, dyv)),
                        inv8,
                    );
                    let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFF_FFFF_FFFF_FFFF));
                    let tiny = _mm256_cmp_pd(
                        _mm256_and_pd(hw, abs_mask),
                        _mm256_set1_pd(1e-12),
                        _CMP_LT_OQ,
                    );
                    let nan = _mm256_set1_pd(f64::NAN);
                    let sx = _mm256_div_pd(hx, hw);
                    let sy = _mm256_div_pd(hy, hw);
                    (
                        _mm256_blendv_pd(sx, nan, tiny),
                        _mm256_blendv_pd(sy, nan, tiny),
                    )
                }
            };
            // SAFETY: j + 4 ≤ n ≤ BLOCK bounds both 4-lane stores.
            unsafe {
                _mm256_storeu_pd(sxs.as_mut_ptr().add(j), sx);
                _mm256_storeu_pd(sys.as_mut_ptr().add(j), sy);
            }
            j += 4;
        }
        j
    }

    /// Byte `k` of each 32-bit lane of `v`, as four f64 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn byte_lanes(v: __m128i, k: i32) -> __m256d {
        let shifted = _mm_srl_epi32(v, _mm_cvtsi32_si128(8 * k));
        _mm256_cvtepi32_pd(_mm_and_si128(shifted, _mm_set1_epi32(0xff)))
    }

    /// Four-lane [`super::sample_pixel`] over the coordinate lanes
    /// `0..n` of a block, for `dst`/`mask` pixels `idx0..idx0 + n`;
    /// returns how many lanes it sampled (the largest multiple of 4
    /// ≤ n). Stored bytes equal the scalar sampler's lane for lane.
    ///
    /// # Safety
    ///
    /// `src` must hold exactly `sh` rows of `row_stride = 3 * sw` bytes,
    /// with `sw >= 2`, `sh >= 2` and `src.len() <= i32::MAX`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sample_avx2(
        src: &[u8],
        row_stride: usize,
        sw: usize,
        sh: usize,
        sxs: &[f64; BLOCK],
        sys: &[f64; BLOCK],
        n: usize,
        dst: &mut [u8],
        mask: &mut [u8],
        idx0: usize,
    ) -> usize {
        let zero = _mm256_setzero_pd();
        let one = _mm256_set1_pd(1.0);
        let half = _mm256_set1_pd(0.5);
        let lo = _mm256_set1_pd(-1.0);
        let swf = _mm256_set1_pd(sw as f64);
        let shf = _mm256_set1_pd(sh as f64);
        // The casts are exact: 3 * sw * sh = src.len() ≤ i32::MAX.
        let xmax = _mm_set1_epi32(sw as i32 - 2);
        let ymax = _mm_set1_epi32(sh as i32 - 2);
        let stride = _mm_set1_epi32(row_stride as i32);
        let texel = _mm_set1_epi32(3);
        let two = _mm_set1_epi32(2);
        let src_ptr = src.as_ptr().cast::<i32>();
        let mut j = 0usize;
        while j + 4 <= n {
            // SAFETY: j + 4 ≤ n ≤ BLOCK bounds both 4-lane loads.
            let (sx, sy) = unsafe {
                (
                    _mm256_loadu_pd(sxs.as_ptr().add(j)),
                    _mm256_loadu_pd(sys.as_ptr().add(j)),
                )
            };
            // The scalar finite and range checks: ordered compares fail
            // on NaN, and ±inf fails a bound.
            let valid = _mm256_and_pd(
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_GE_OQ>(sx, lo),
                    _mm256_cmp_pd::<_CMP_GE_OQ>(sy, lo),
                ),
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_LE_OQ>(sx, swf),
                    _mm256_cmp_pd::<_CMP_LE_OQ>(sy, shf),
                ),
            );
            // Lanes whose mask byte is already set keep their bytes.
            let unset = (0..4).fold(0, |b, l| b | (i32::from(mask[idx0 + j + l] == 0) << l));
            let lanes = _mm256_movemask_pd(valid) & unset;
            if lanes == 0 {
                j += 4;
                continue;
            }
            // Invalid lanes become (0, 0) before any index math: they
            // gather texel (0, 0) and are never stored.
            let sx = _mm256_and_pd(sx, valid);
            let sy = _mm256_and_pd(sy, valid);
            // `as isize` truncation, then the clamp to [0, s - 2].
            let x0 = _mm_min_epi32(
                _mm_max_epi32(_mm256_cvttpd_epi32(sx), _mm_setzero_si128()),
                xmax,
            );
            let y0 = _mm_min_epi32(
                _mm_max_epi32(_mm256_cvttpd_epi32(sy), _mm_setzero_si128()),
                ymax,
            );
            // `clamp(0.0, 1.0)`: the second operand wins ties, as in
            // the scalar clamp.
            let fx = _mm256_min_pd(
                one,
                _mm256_max_pd(zero, _mm256_sub_pd(sx, _mm256_cvtepi32_pd(x0))),
            );
            let fy = _mm256_min_pd(
                one,
                _mm256_max_pd(zero, _mm256_sub_pd(sy, _mm256_cvtepi32_pd(y0))),
            );
            let base0 = _mm_add_epi32(_mm_mullo_epi32(y0, stride), _mm_mullo_epi32(x0, texel));
            let base1 = _mm_add_epi32(base0, stride);
            // SAFETY: x0 ≤ sw - 2 and y0 ≤ sh - 2 give `base0 +
            // row_stride + 5 ≤ 3·sw·sh - 1`, so the dwords at base0,
            // base0 + 2, base1 and base1 + 2 (the 6-byte texel pairs of
            // both rows) lie inside `src`; the offsets fit in i32 since
            // src.len() ≤ i32::MAX.
            let (t0, t2, b0, b2) = unsafe {
                (
                    _mm_i32gather_epi32::<1>(src_ptr, base0),
                    _mm_i32gather_epi32::<1>(src_ptr, _mm_add_epi32(base0, two)),
                    _mm_i32gather_epi32::<1>(src_ptr, base1),
                    _mm_i32gather_epi32::<1>(src_ptr, _mm_add_epi32(base1, two)),
                )
            };
            let mut packed = _mm_setzero_si128();
            for c in 0..3 {
                // Channel c of the left texel is dword byte c at +0; of
                // the right texel, byte c + 1 at +2.
                let p00 = byte_lanes(t0, c);
                let p10 = byte_lanes(t2, c + 1);
                let p01 = byte_lanes(b0, c);
                let p11 = byte_lanes(b2, c + 1);
                let top = _mm256_add_pd(p00, _mm256_mul_pd(_mm256_sub_pd(p10, p00), fx));
                let bottom = _mm256_add_pd(p01, _mm256_mul_pd(_mm256_sub_pd(p11, p01), fx));
                let v = _mm256_add_pd(top, _mm256_mul_pd(_mm256_sub_pd(bottom, top), fy));
                let t = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(v);
                let up = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_sub_pd(v, t), half), one);
                let byte = _mm_and_si128(
                    _mm256_cvttpd_epi32(_mm256_add_pd(t, up)),
                    _mm_set1_epi32(0xff),
                );
                packed = _mm_or_si128(packed, _mm_sll_epi32(byte, _mm_cvtsi32_si128(8 * c)));
            }
            let mut pixels = [0u32; 4];
            // SAFETY: `pixels` is 16 writable bytes.
            unsafe { _mm_storeu_si128(pixels.as_mut_ptr().cast(), packed) };
            for (lane, p) in pixels.iter().enumerate() {
                if lanes & (1 << lane) != 0 {
                    let idx = idx0 + j + lane;
                    dst[idx * 3..idx * 3 + 3].copy_from_slice(&p.to_le_bytes()[..3]);
                    mask[idx] = 255;
                }
            }
            j += 4;
        }
        j
    }
}

/// Sample one destination pixel from precomputed source coordinates:
/// the uncorrupted-path body of [`super::remap_bilinear`] minus taps.
/// `idx` is the destination pixel index local to the byte bands.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn sample_pixel(
    src_bytes: &[u8],
    row_stride: usize,
    sw: usize,
    sh: usize,
    sx: f64,
    sy: f64,
    dst_band: &mut [u8],
    mask_band: &mut [u8],
    idx: usize,
) {
    if mask_band[idx] != 0 || !sx.is_finite() || !sy.is_finite() {
        return;
    }
    if sx < -1.0 || sy < -1.0 || sx > sw as f64 || sy > sh as f64 {
        return;
    }
    let x0c = (sx as isize).clamp(0, sw as isize - 2) as usize;
    let y0c = (sy as isize).clamp(0, sh as isize - 2) as usize;
    let fx = (sx - x0c as f64).clamp(0.0, 1.0);
    let fy = (sy - y0c as f64).clamp(0.0, 1.0);
    let src_base = y0c * row_stride + x0c * 3;
    let row0 = &src_bytes[src_base..src_base + 6];
    let row1 = &src_bytes[src_base + row_stride..src_base + row_stride + 6];
    let mxf = fx * 32768.0;
    let myf = fy * 32768.0;
    let mx = mxf as i64;
    let my = myf as i64;
    let out = &mut dst_band[idx * 3..idx * 3 + 3];
    if mx as f64 == mxf && my as f64 == myf {
        for c in 0..3 {
            let p00 = row0[c] as i64;
            let p10 = row0[3 + c] as i64;
            let p01 = row1[c] as i64;
            let p11 = row1[3 + c] as i64;
            let top = (p00 << 15) + (p10 - p00) * mx;
            let bot = (p01 << 15) + (p11 - p01) * mx;
            let n = (top << 15) + (bot - top) * my;
            out[c] = ((n + (1 << 29)) >> 30) as u8;
        }
    } else {
        for c in 0..3 {
            let p00 = f64::from(row0[c]);
            let p10 = f64::from(row0[3 + c]);
            let p01 = f64::from(row1[c]);
            let p11 = f64::from(row1[3 + c]);
            let top = p00 + (p10 - p00) * fx;
            let bottom = p01 + (p11 - p01) * fx;
            out[c] = super::round_u8_in_range(top + (bottom - top) * fy);
        }
    }
    mask_band[idx] = 255;
}

/// Whether all 16 mask bytes are set, read as two `u64` words. The
/// masks hold 0 or 255, so a word of 255s is a fully painted half; a
/// half holding other non-zero bytes is not skipped, and its pixels
/// skip themselves.
#[inline]
fn painted16(mask: &[u8; BLOCK]) -> bool {
    let (lo, hi) = mask.split_at(8);
    let word = |half: &[u8]| u64::from_ne_bytes(half.try_into().expect("8 bytes"));
    word(lo) == u64::MAX && word(hi) == u64::MAX
}

/// Remap the canvas window `cols` × `rows` into band-local byte slices
/// (`dst_band`/`mask_band` hold rows `rows` in full, `w` pixels each).
/// Bit-identical to the instrumented kernel's output on the same
/// pixels.
///
/// A pixel whose mask byte is already set keeps its bytes, and a block
/// whose mask bytes are all set is skipped. On a zeroed mask (every
/// whole-image warp) that changes nothing; [`crate::Canvas`]'s
/// last-frame-first painter passes the set of pixels later frames have
/// painted, and walks only the window its frame can reach.
#[allow(clippy::too_many_arguments)]
pub(crate) fn remap_span_bytes(
    src: &RgbImage,
    inv: &Mat3,
    dst_band: &mut [u8],
    mask_band: &mut [u8],
    w: usize,
    origin: Vec2,
    rows: Range<usize>,
    cols: Range<usize>,
    wide: bool,
) -> Result<(), SimError> {
    let sw = src.width();
    let sh = src.height();
    if sw < 2 || sh < 2 {
        return Err(SimError::Abort);
    }
    let src_bytes = src.as_bytes();
    let row_stride = sw * 3;
    let inv_rows = inv.to_rows();
    let const_hw =
        (inv_rows[6] == 0.0 && inv_rows[7] == 0.0 && origin.x.is_finite() && origin.y.is_finite())
            .then_some(inv_rows[8]);
    if let Some(c) = const_hw {
        if c != 1.0 && c.abs() < 1e-12 {
            // The scalar path skips every pixel; no bytes are written.
            return Ok(());
        }
    }
    // The AVX2 sampler's contract: the image invariant, which
    // `vs_image::MAX_PIXELS` keeps within 32-bit gather offsets.
    assert!(
        src_bytes.len() == row_stride * sh && src_bytes.len() <= i32::MAX as usize,
        "source bytes disagree with the source dimensions"
    );
    assert!(cols.end <= w, "window wider than the rows");
    let mut sxs = [0f64; BLOCK];
    let mut sys = [0f64; BLOCK];
    for y in rows.clone() {
        let local_base = (y - rows.start) * w;
        let dy = y as f64 + origin.y;
        let r1dy = inv_rows[1] * dy;
        let r4dy = inv_rows[4] * dy;
        let mut x = cols.start;
        while x < cols.end {
            let n = BLOCK.min(cols.end - x);
            let at = local_base + x;
            let done = if let Ok(block) = mask_band[at..at + n].try_into() {
                painted16(block)
            } else {
                mask_band[at..at + n].iter().all(|&m| m != 0)
            };
            if done {
                x += n;
                continue;
            }
            fill_coords(
                &inv_rows, origin.x, dy, r1dy, r4dy, const_hw, x, n, &mut sxs, &mut sys, wide,
            );
            // SAFETY: `wide` is only set when dispatch selected AVX2
            // (availability-checked); the source contract is asserted
            // above and `sw, sh >= 2` was checked on entry.
            #[cfg(target_arch = "x86_64")]
            let sampled = if wide {
                unsafe {
                    x86::sample_avx2(
                        src_bytes, row_stride, sw, sh, &sxs, &sys, n, dst_band, mask_band, at,
                    )
                }
            } else {
                0
            };
            #[cfg(not(target_arch = "x86_64"))]
            let sampled = 0;
            for j in sampled..n {
                sample_pixel(
                    src_bytes,
                    row_stride,
                    sw,
                    sh,
                    sxs[j],
                    sys[j],
                    dst_band,
                    mask_band,
                    at + j,
                );
            }
            x += n;
        }
    }
    Ok(())
}

/// `RemapFn`-shaped SSE2 entry: whole-image remap through the vector
/// coordinate path. Only selected off-session (see module docs).
pub(crate) fn remap_sse2(
    src: &RgbImage,
    inv: &Mat3,
    dst: &mut RgbImage,
    mask: &mut GrayImage,
    origin: Vec2,
    y0: usize,
    y1: usize,
) -> Result<(), SimError> {
    let w = dst.width();
    let dst_band = &mut dst.as_bytes_mut()[y0 * w * 3..y1 * w * 3];
    let mask_band = &mut mask.as_bytes_mut()[y0 * w..y1 * w];
    remap_span_bytes(
        src,
        inv,
        dst_band,
        mask_band,
        w,
        origin,
        y0..y1,
        0..w,
        false,
    )
}

/// `RemapFn`-shaped AVX2 entry (dispatch guarantees availability).
pub(crate) fn remap_avx2(
    src: &RgbImage,
    inv: &Mat3,
    dst: &mut RgbImage,
    mask: &mut GrayImage,
    origin: Vec2,
    y0: usize,
    y1: usize,
) -> Result<(), SimError> {
    let w = dst.width();
    let dst_band = &mut dst.as_bytes_mut()[y0 * w * 3..y1 * w * 3];
    let mask_band = &mut mask.as_bytes_mut()[y0 * w..y1 * w];
    remap_span_bytes(src, inv, dst_band, mask_band, w, origin, y0..y1, 0..w, true)
}
