//! Explicit vector kernels for the separable blur (AVX2) and the
//! pyramid downsample (SSE2 and AVX2), and the AVX2 compilation of the
//! grayscale decode — the only `unsafe` code in the image crate (and,
//! with the sibling `simd.rs` modules, in the whole workspace outside
//! the bench allocator probes).
//!
//! All three are pure integer pipelines with no fault taps, so the
//! vector paths are usable unconditionally — inside and outside
//! injection sessions — as long as they are bit-exact, which they are
//! by construction: every vector lane computes the *same* u16
//! fixed-point arithmetic as the SWAR path (`half + Σ kᵢ·vᵢ` then
//! `>> shift` for the blur; `(a+b+c+d+2) >> 2` for the downsample),
//! proven against the scalar oracles in the tests, and the decode is
//! the one luma loop compiled twice. `_mm_avg_epu8` is deliberately not
//! used for the downsample: its per-pair rounding
//! (`avg(avg(a,b), avg(c,d))`) biases upward relative to the exact
//! 4-sum average and would break bit-exactness. The blur has no SSE2
//! rows: they ran at 0.93–0.98× of the SWAR pass at every HD tier, so
//! the SSE2 level blurs through SWAR.
//!
//! The blur additionally tiles for cache locality: instead of a full
//! horizontal pass over the image followed by a full vertical pass
//! (which walks the whole `tmp` plane twice — at 1080p that is ~2 MB,
//! far past L2), the horizontal rows are produced *on demand*, two rows
//! ahead of the vertical consumer, so the working set is a rolling
//! five-row window. `tmp` still ends up holding the complete horizontal
//! pass (each row is computed exactly once), preserving the buffer
//! contract of [`crate::gaussian_blur_5x5_into`].
//!
//! Safety discipline: `#![deny(unsafe_op_in_unsafe_fn)]`, raw-pointer
//! loads/stores are the only unsafe operations, and every one sits
//! behind an explicit bounds argument in a `// SAFETY:` comment. The
//! AVX2 entry points assert `is_x86_feature_detected!("avx2")` before
//! dispatching into `#[target_feature]` code.
#![deny(unsafe_op_in_unsafe_fn)]

use crate::GrayImage;

/// The 5-tap binomial weights and rounding constant shared with the
/// SWAR path (`[1, 4, 6, 4, 1] / 16`).
const HALF5: u16 = 8;
const SHIFT5: u32 = 4;

/// One blurred pixel with clamped (replicate-border) window reads —
/// identical arithmetic to the fixed-point path's border lanes.
#[inline]
fn hpix_clamped(src: &[u8], x: usize) -> u8 {
    const W: [u16; 5] = [1, 4, 6, 4, 1];
    let w = src.len() as isize;
    let mut s = HALF5;
    for (i, &k) in W.iter().enumerate() {
        let xi = (x as isize + i as isize - 2).clamp(0, w - 1) as usize;
        s += k * src[xi] as u16;
    }
    (s >> SHIFT5) as u8
}

/// One vertical-pass pixel from five pre-clamped rows.
#[inline]
fn vpix(rows: &[&[u8]; 5], x: usize) -> u8 {
    let s = HALF5
        + rows[0][x] as u16
        + 4 * rows[1][x] as u16
        + 6 * rows[2][x] as u16
        + 4 * rows[3][x] as u16
        + rows[4][x] as u16;
    (s >> SHIFT5) as u8
}

/// One downsampled pixel: exact 2×2 block average with round-half-up.
#[inline]
fn dpix(row0: &[u8], row1: &[u8], x: usize) -> u8 {
    let acc =
        row0[2 * x] as u32 + row0[2 * x + 1] as u32 + row1[2 * x] as u32 + row1[2 * x + 1] as u32;
    ((acc + 2) >> 2) as u8
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{dpix, hpix_clamped, vpix, HALF5, SHIFT5};
    use std::arch::x86_64::*;

    /// `(half + a + 4b + 6c + 4d + e) >> 4` on sixteen u16 lanes. Max
    /// lane value before the shift is `255·16 + 8 = 4088 < 2¹⁵`: no
    /// wrap, no sign issues, and after the shift every lane is ≤ 255 so
    /// the caller's `packus` saturation is a no-op.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn wsum16_avx2(a: __m256i, b: __m256i, c: __m256i, d: __m256i, e: __m256i) -> __m256i {
        let bd4 = _mm256_slli_epi16(_mm256_add_epi16(b, d), 2);
        let c6 = _mm256_add_epi16(_mm256_slli_epi16(c, 2), _mm256_slli_epi16(c, 1));
        let s = _mm256_add_epi16(_mm256_add_epi16(a, e), _mm256_add_epi16(bd4, c6));
        _mm256_srli_epi16(
            _mm256_add_epi16(s, _mm256_set1_epi16(HALF5 as i16)),
            SHIFT5 as i32,
        )
    }

    /// Horizontal 5-tap pass over one row, 32 pixels per iteration.
    ///
    /// Lane order: the 256-bit `unpacklo`/`unpackhi` split each 128-bit
    /// lane's bytes 0–7 / 8–15 into u16 lanes and `packus(lo, hi)`
    /// reassembles them in the same order (both are lane-local and
    /// complementary), so output byte `x + i` is the window sum at
    /// `x + i` exactly, with no cross-lane permute.
    #[target_feature(enable = "avx2")]
    pub(super) fn hrow_avx2(src: &[u8], dst: &mut [u8]) {
        let w = src.len();
        debug_assert_eq!(dst.len(), w);
        let mut x = 0usize;
        if w >= 36 {
            dst[0] = hpix_clamped(src, 0);
            dst[1] = hpix_clamped(src, 1);
            x = 2;
            let zero = _mm256_setzero_si256();
            while x + 34 <= w {
                // SAFETY: the five loads cover src[x-2 ..= x+33]; x ≥ 2
                // and x + 34 ≤ w keep every byte in bounds, and the
                // store covers dst[x .. x+32] ⊆ dst[..w].
                unsafe {
                    let p = src.as_ptr();
                    let a = _mm256_loadu_si256(p.add(x - 2).cast());
                    let b = _mm256_loadu_si256(p.add(x - 1).cast());
                    let c = _mm256_loadu_si256(p.add(x).cast());
                    let d = _mm256_loadu_si256(p.add(x + 1).cast());
                    let e = _mm256_loadu_si256(p.add(x + 2).cast());
                    let lo = wsum16_avx2(
                        _mm256_unpacklo_epi8(a, zero),
                        _mm256_unpacklo_epi8(b, zero),
                        _mm256_unpacklo_epi8(c, zero),
                        _mm256_unpacklo_epi8(d, zero),
                        _mm256_unpacklo_epi8(e, zero),
                    );
                    let hi = wsum16_avx2(
                        _mm256_unpackhi_epi8(a, zero),
                        _mm256_unpackhi_epi8(b, zero),
                        _mm256_unpackhi_epi8(c, zero),
                        _mm256_unpackhi_epi8(d, zero),
                        _mm256_unpackhi_epi8(e, zero),
                    );
                    _mm256_storeu_si256(
                        dst.as_mut_ptr().add(x).cast(),
                        _mm256_packus_epi16(lo, hi),
                    );
                }
                x += 32;
            }
        }
        while x < w {
            dst[x] = hpix_clamped(src, x);
            x += 1;
        }
    }

    /// Vertical 5-tap pass for one output row from five pre-clamped
    /// source rows, 32 pixels per iteration.
    #[target_feature(enable = "avx2")]
    pub(super) fn vrow_avx2(rows: &[&[u8]; 5], dst: &mut [u8]) {
        let w = dst.len();
        debug_assert!(rows.iter().all(|r| r.len() == w));
        let zero = _mm256_setzero_si256();
        let mut x = 0usize;
        while x + 32 <= w {
            // SAFETY: each load reads rows[i][x .. x+32] and the store
            // writes dst[x .. x+32]; x + 32 ≤ w bounds both, and every
            // row slice has length w (asserted above).
            unsafe {
                let v: [__m256i; 5] = [
                    _mm256_loadu_si256(rows[0].as_ptr().add(x).cast()),
                    _mm256_loadu_si256(rows[1].as_ptr().add(x).cast()),
                    _mm256_loadu_si256(rows[2].as_ptr().add(x).cast()),
                    _mm256_loadu_si256(rows[3].as_ptr().add(x).cast()),
                    _mm256_loadu_si256(rows[4].as_ptr().add(x).cast()),
                ];
                let lo = wsum16_avx2(
                    _mm256_unpacklo_epi8(v[0], zero),
                    _mm256_unpacklo_epi8(v[1], zero),
                    _mm256_unpacklo_epi8(v[2], zero),
                    _mm256_unpacklo_epi8(v[3], zero),
                    _mm256_unpacklo_epi8(v[4], zero),
                );
                let hi = wsum16_avx2(
                    _mm256_unpackhi_epi8(v[0], zero),
                    _mm256_unpackhi_epi8(v[1], zero),
                    _mm256_unpackhi_epi8(v[2], zero),
                    _mm256_unpackhi_epi8(v[3], zero),
                    _mm256_unpackhi_epi8(v[4], zero),
                );
                _mm256_storeu_si256(dst.as_mut_ptr().add(x).cast(), _mm256_packus_epi16(lo, hi));
            }
            x += 32;
        }
        while x < w {
            dst[x] = vpix(rows, x);
            x += 1;
        }
    }

    /// Sum the 2×2 block columns of two source rows into u16 lanes:
    /// even bytes + odd bytes of each 16-byte load, both rows. Max lane
    /// value `4·255 = 1020 < 2¹⁵`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn pairsum16(v0: __m128i, v1: __m128i) -> __m128i {
        let lo_mask = _mm_set1_epi16(0x00FF);
        let e0 = _mm_and_si128(v0, lo_mask);
        let o0 = _mm_srli_epi16(v0, 8);
        let e1 = _mm_and_si128(v1, lo_mask);
        let o1 = _mm_srli_epi16(v1, 8);
        _mm_add_epi16(_mm_add_epi16(e0, o0), _mm_add_epi16(e1, o1))
    }

    /// AVX2 twin of [`pairsum16`].
    #[inline]
    #[target_feature(enable = "avx2")]
    fn pairsum16_avx2(v0: __m256i, v1: __m256i) -> __m256i {
        let lo_mask = _mm256_set1_epi16(0x00FF);
        let e0 = _mm256_and_si256(v0, lo_mask);
        let o0 = _mm256_srli_epi16(v0, 8);
        let e1 = _mm256_and_si256(v1, lo_mask);
        let o1 = _mm256_srli_epi16(v1, 8);
        _mm256_add_epi16(_mm256_add_epi16(e0, o0), _mm256_add_epi16(e1, o1))
    }

    /// One downsampled row (16 output pixels / 64 input bytes per
    /// iteration): exact `(a+b+c+d+2) >> 2` in u16 lanes.
    #[target_feature(enable = "sse2")]
    pub(super) fn drow_sse2(row0: &[u8], row1: &[u8], dst: &mut [u8]) {
        let w = dst.len();
        debug_assert!(row0.len() >= 2 * w && row1.len() >= 2 * w);
        let two = _mm_set1_epi16(2);
        let mut x = 0usize;
        while x + 16 <= w {
            // SAFETY: the four loads read rowN[2x .. 2x+32]; x + 16 ≤ w
            // gives 2x + 32 ≤ 2w ≤ rowN.len(), and the store writes
            // dst[x .. x+16] ⊆ dst[..w].
            unsafe {
                let p0 = row0.as_ptr().add(2 * x);
                let p1 = row1.as_ptr().add(2 * x);
                let a0 = _mm_loadu_si128(p0.cast());
                let a1 = _mm_loadu_si128(p0.add(16).cast());
                let b0 = _mm_loadu_si128(p1.cast());
                let b1 = _mm_loadu_si128(p1.add(16).cast());
                let lo = _mm_srli_epi16(_mm_add_epi16(pairsum16(a0, b0), two), 2);
                let hi = _mm_srli_epi16(_mm_add_epi16(pairsum16(a1, b1), two), 2);
                _mm_storeu_si128(dst.as_mut_ptr().add(x).cast(), _mm_packus_epi16(lo, hi));
            }
            x += 16;
        }
        while x < w {
            dst[x] = dpix(row0, row1, x);
            x += 1;
        }
    }

    /// AVX2 downsampled row, 32 output pixels per iteration. The
    /// 256-bit `packus` interleaves 64-bit quarters across lanes
    /// (`[A₀₋₇, B₀₋₇ | A₈₋₁₅, B₈₋₁₅]`); `permute4x64(0b11_01_10_00)`
    /// restores ascending output order.
    #[target_feature(enable = "avx2")]
    pub(super) fn drow_avx2(row0: &[u8], row1: &[u8], dst: &mut [u8]) {
        let w = dst.len();
        debug_assert!(row0.len() >= 2 * w && row1.len() >= 2 * w);
        let two = _mm256_set1_epi16(2);
        let mut x = 0usize;
        while x + 32 <= w {
            // SAFETY: the four loads read rowN[2x .. 2x+64]; x + 32 ≤ w
            // gives 2x + 64 ≤ 2w ≤ rowN.len(), and the store writes
            // dst[x .. x+32] ⊆ dst[..w].
            unsafe {
                let p0 = row0.as_ptr().add(2 * x);
                let p1 = row1.as_ptr().add(2 * x);
                let a0 = _mm256_loadu_si256(p0.cast());
                let a1 = _mm256_loadu_si256(p0.add(32).cast());
                let b0 = _mm256_loadu_si256(p1.cast());
                let b1 = _mm256_loadu_si256(p1.add(32).cast());
                let lo = _mm256_srli_epi16(_mm256_add_epi16(pairsum16_avx2(a0, b0), two), 2);
                let hi = _mm256_srli_epi16(_mm256_add_epi16(pairsum16_avx2(a1, b1), two), 2);
                let packed = _mm256_packus_epi16(lo, hi);
                let ordered = _mm256_permute4x64_epi64(packed, 0b11_01_10_00);
                _mm256_storeu_si256(dst.as_mut_ptr().add(x).cast(), ordered);
            }
            x += 32;
        }
        while x < w {
            dst[x] = dpix(row0, row1, x);
            x += 1;
        }
    }
}

/// Which vector row kernels the downsample runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Width {
    Sse2,
    Avx2,
}

/// Run one horizontal blur row with AVX2.
fn hrow(src: &[u8], dst: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: only reached from `blur5x5_avx2`, which asserts AVX2.
    unsafe {
        x86::hrow_avx2(src, dst)
    }
    #[cfg(not(target_arch = "x86_64"))]
    for x in 0..src.len() {
        dst[x] = hpix_clamped(src, x);
    }
}

/// Run one vertical blur row with AVX2.
fn vrow(rows: &[&[u8]; 5], dst: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: as in [`hrow`].
    unsafe {
        x86::vrow_avx2(rows, dst)
    }
    #[cfg(not(target_arch = "x86_64"))]
    for x in 0..dst.len() {
        dst[x] = vpix(rows, x);
    }
}

/// Run one downsample row at the requested width.
fn drow(row0: &[u8], row1: &[u8], dst: &mut [u8], width: Width) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of baseline x86-64; Width::Avx2 is only
    // constructed behind an AVX2 availability check.
    unsafe {
        match width {
            Width::Sse2 => x86::drow_sse2(row0, row1, dst),
            Width::Avx2 => x86::drow_avx2(row0, row1, dst),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = width;
        for x in 0..dst.len() {
            dst[x] = dpix(row0, row1, x);
        }
    }
}

/// AVX2 [`crate::gaussian_blur_5x5_into`]: bit-identical output and
/// buffer contract, vectorized rows with a cache-tiled pass structure.
///
/// # Panics
///
/// Panics when the host lacks AVX2 — callers dispatch through
/// [`crate::dispatch::level`], which never selects an unavailable level.
pub fn blur5x5_avx2(img: &GrayImage, tmp: &mut GrayImage, out: &mut GrayImage) -> bool {
    assert!(
        crate::dispatch::SimdLevel::Avx2.available(),
        "blur5x5_avx2 requires AVX2"
    );
    let (w, h) = (img.width(), img.height());
    let mut grew = tmp
        .reset_for_overwrite(w, h)
        .expect("image dimensions exceed MAX_PIXELS");
    grew |= out
        .reset_for_overwrite(w, h)
        .expect("image dimensions exceed MAX_PIXELS");
    if img.is_empty() {
        return grew;
    }
    let src = img.as_bytes();
    let tmp_bytes = tmp.as_bytes_mut();
    let dst = out.as_bytes_mut();
    // Fused rolling passes: produce horizontal row y+2 just before the
    // vertical pass consumes rows y-2..=y+2, keeping a five-row window
    // hot in cache. Every tmp row is written exactly once, so tmp ends
    // up identical to a full horizontal pass.
    let mut next_h = 0usize;
    for y in 0..h {
        let need = (y + 2).min(h - 1);
        while next_h <= need {
            let (s, t) = (
                &src[next_h * w..next_h * w + w],
                &mut tmp_bytes[next_h * w..next_h * w + w],
            );
            hrow(s, t);
            next_h += 1;
        }
        let t: &[u8] = tmp_bytes;
        let rows: [&[u8]; 5] = std::array::from_fn(|i| {
            let yc = (y as isize + i as isize - 2).clamp(0, h as isize - 1) as usize;
            &t[yc * w..yc * w + w]
        });
        vrow(&rows, &mut dst[y * w..y * w + w]);
    }
    grew
}

fn downsample_width(img: &GrayImage, out: &mut GrayImage, width: Width) -> bool {
    let w = img.width() / 2;
    let h = img.height() / 2;
    let grew = out
        .reset_for_overwrite(w, h)
        .expect("image dimensions exceed MAX_PIXELS");
    if w == 0 || h == 0 {
        return grew;
    }
    let src = img.as_bytes();
    let src_w = img.width();
    let dst = out.as_bytes_mut();
    for (y, dst_row) in dst.chunks_exact_mut(w).enumerate() {
        let row0 = &src[2 * y * src_w..2 * y * src_w + src_w];
        let row1 = &src[(2 * y + 1) * src_w..(2 * y + 1) * src_w + src_w];
        drow(row0, row1, dst_row, width);
    }
    grew
}

/// SSE2 [`crate::downsample_half_into`]: bit-identical output.
pub fn downsample_half_sse2(img: &GrayImage, out: &mut GrayImage) -> bool {
    downsample_width(img, out, Width::Sse2)
}

/// AVX2 [`crate::downsample_half_into`].
///
/// # Panics
///
/// Panics when the host lacks AVX2 (see [`blur5x5_avx2`]).
pub fn downsample_half_avx2(img: &GrayImage, out: &mut GrayImage) -> bool {
    assert!(
        crate::dispatch::SimdLevel::Avx2.available(),
        "downsample_half_avx2 requires AVX2"
    );
    downsample_width(img, out, Width::Avx2)
}

/// The fixed-point BT.601 luma loop of [`crate::RgbImage::to_gray_into`]:
/// `(306 R + 601 G + 117 B + 512) >> 10` per pixel of `width`-pixel
/// rows. Integer-only, so every compilation of it yields the same bytes.
#[inline(always)]
fn luma_rows(src: &[u8], dst: &mut [u8], width: usize) {
    for (dst_row, src_row) in dst.chunks_exact_mut(width).zip(src.chunks_exact(width * 3)) {
        for (d, px) in dst_row.iter_mut().zip(src_row.chunks_exact(3)) {
            let r = px[0] as u32;
            let g = px[1] as u32;
            let b = px[2] as u32;
            // Fixed-point 0.299 R + 0.587 G + 0.114 B.
            *d = ((r * 306 + g * 601 + b * 117 + 512) >> 10) as u8;
        }
    }
}

/// [`luma_rows`] compiled with AVX2 enabled, which lets LLVM vectorize
/// the stride-3 loads it leaves scalar on the x86-64 baseline.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn luma_rows_avx2(src: &[u8], dst: &mut [u8], width: usize) {
    luma_rows(src, dst, width);
}

/// Grayscale decode at `level`: the AVX2 compilation of [`luma_rows`]
/// at the AVX2 level, the baseline one at every other level.
///
/// # Panics
///
/// Panics when `level` is AVX2 and the host lacks it.
pub(crate) fn luma(src: &[u8], dst: &mut [u8], width: usize, level: crate::dispatch::SimdLevel) {
    #[cfg(target_arch = "x86_64")]
    if level == crate::dispatch::SimdLevel::Avx2 {
        assert!(level.available(), "luma at the AVX2 level requires AVX2");
        // SAFETY: AVX2 was detected on this host just above, and
        // `luma_rows_avx2` performs only safe slice operations.
        unsafe { luma_rows_avx2(src, dst, width) };
        return;
    }
    let _ = level;
    luma_rows(src, dst, width);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::SimdLevel;
    use crate::filter::gaussian_blur_5x5_into_swar;
    use crate::pyramid::downsample_half_into_swar;
    use vs_rng::SplitMix64;

    fn random_image(rng: &mut SplitMix64, w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |_, _| rng.gen_range(0u32..256) as u8)
    }

    /// The AVX2 blur reproduces the SWAR pass (itself
    /// proven against the f64 oracle) bit-for-bit, across sizes that
    /// exercise borders, vector tails, and sub-vector rows.
    #[test]
    fn vector_blur_matches_swar_across_sizes() {
        let mut rng = SplitMix64::new(0x51_4D_D0);
        let (mut ta, mut oa) = (GrayImage::default(), GrayImage::default());
        let (mut tb, mut ob) = (GrayImage::default(), GrayImage::default());
        let sizes: &[(usize, usize)] = &[
            (1, 1),
            (3, 5),
            (15, 4),
            (16, 16),
            (17, 3),
            (19, 19),
            (20, 6),
            (33, 9),
            (34, 34),
            (35, 7),
            (64, 48),
            (127, 31),
        ];
        if !SimdLevel::Avx2.available() {
            return;
        }
        for &(w, h) in sizes {
            let img = random_image(&mut rng, w, h);
            gaussian_blur_5x5_into_swar(&img, &mut ta, &mut oa);
            blur5x5_avx2(&img, &mut tb, &mut ob);
            assert_eq!(oa, ob, "avx2 blur {w}x{h}");
            assert_eq!(ta, tb, "avx2 blur tmp plane {w}x{h}");
        }
    }

    /// Vector downsample vs the SWAR pass, including odd trailing
    /// rows/columns and widths straddling the 16/32-pixel tails.
    #[test]
    fn vector_downsample_matches_swar_across_sizes() {
        let mut rng = SplitMix64::new(0xD0_55_17);
        let mut a = GrayImage::default();
        let mut b = GrayImage::default();
        let sizes: &[(usize, usize)] = &[
            (1, 1),
            (2, 2),
            (5, 3),
            (31, 9),
            (32, 32),
            (33, 33),
            (63, 17),
            (64, 64),
            (65, 65),
            (129, 67),
        ];
        for &(w, h) in sizes {
            let img = random_image(&mut rng, w, h);
            downsample_half_into_swar(&img, &mut a);
            downsample_half_sse2(&img, &mut b);
            assert_eq!(a, b, "sse2 downsample {w}x{h}");
            if SimdLevel::Avx2.available() {
                downsample_half_avx2(&img, &mut b);
                assert_eq!(a, b, "avx2 downsample {w}x{h}");
            }
        }
    }

    /// The producers that reuse a buffer without zero-filling it — the
    /// grayscale decode, the half downsample and both 5×5 blur planes —
    /// write every byte at every level: into buffers left dirty by a
    /// same-size image and by a larger one, filled with either of two
    /// values, each equals its output into fresh buffers.
    #[test]
    fn overwriting_producers_write_every_byte_at_every_level() {
        use crate::{downsample_half_into_level, gaussian_blur_5x5_into_level, RgbImage};
        let mut rng = SplitMix64::new(0xD1_27_B0);
        for (w, h) in [(1, 1), (2, 3), (17, 9), (33, 34), (64, 48), (131, 67)] {
            let rgb = RgbImage::from_fn(w, h, |_, _| {
                std::array::from_fn(|_| rng.gen_range(0u32..256) as u8)
            });
            let gray = random_image(&mut rng, w, h);
            for level in SimdLevel::ALL.into_iter().filter(|l| l.available()) {
                let (mut gray_want, mut half_want) = (GrayImage::default(), GrayImage::default());
                let (mut tmp_want, mut blur_want) = (GrayImage::default(), GrayImage::default());
                rgb.to_gray_into_level(&mut gray_want, level);
                downsample_half_into_level(&gray, &mut half_want, level);
                gaussian_blur_5x5_into_level(&gray, &mut tmp_want, &mut blur_want, level);
                for (dw, dh, fill) in [(w, h, 0xA5), (w, h, 0x5A), (w + 5, h + 3, 0xA5)] {
                    let dirty = || GrayImage::from_fn(dw, dh, |_, _| fill);
                    let ctx = format!("{w}x{h} level {level} over {dw}x{dh} of {fill:#x}");
                    let mut out = dirty();
                    rgb.to_gray_into_level(&mut out, level);
                    assert_eq!(out, gray_want, "decode {ctx}");
                    let mut out = dirty();
                    downsample_half_into_level(&gray, &mut out, level);
                    assert_eq!(out, half_want, "downsample {ctx}");
                    let (mut tmp, mut out) = (dirty(), dirty());
                    gaussian_blur_5x5_into_level(&gray, &mut tmp, &mut out, level);
                    assert_eq!(
                        (tmp, out),
                        (tmp_want.clone(), blur_want.clone()),
                        "blur {ctx}"
                    );
                }
            }
        }
    }

    /// Exhaustive u8 window sweep through the vector horizontal row: a
    /// row enumerating every (value, position-in-vector) pairing must
    /// match the scalar clamped window at every x.
    #[test]
    fn hrow_exhaustive_value_sweep() {
        if !SimdLevel::Avx2.available() {
            return;
        }
        // 256 values × shifted starts cover all lane alignments.
        for shift in 0..4usize {
            let w = 256 + shift;
            let src: Vec<u8> = (0..w).map(|i| (i * 37 + shift * 11) as u8).collect();
            let mut dst = vec![0u8; w];
            hrow(&src, &mut dst);
            for (x, d) in dst.iter().enumerate() {
                assert_eq!(*d, hpix_clamped(&src, x), "avx2 x={x} shift={shift}");
            }
        }
    }
}
