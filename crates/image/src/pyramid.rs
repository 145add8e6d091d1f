//! Pyramid downsampling.
//!
//! ORB detects FAST corners at several scales; each pyramid level it
//! builds halves the previous one with 2×2 box averaging.

use crate::{saturate_u8, GrayImage};

/// Downsample by a factor of two with 2×2 box averaging.
///
/// Odd trailing rows/columns are dropped, matching the conventional
/// `pyrDown` grid. Images smaller than 2×2 collapse to an empty image.
pub fn downsample_half(img: &GrayImage) -> GrayImage {
    let mut out = GrayImage::new(0, 0);
    downsample_half_into(img, &mut out);
    out
}

/// [`downsample_half`] into a caller-owned image, reusing its buffer.
///
/// The 2×2 block average runs in pure integer arithmetic: the block sum
/// `S ≤ 4*255 = 1020` is a dyadic numerator, so the historical
/// `saturate_u8(S as f64 / 4.0)` (exact division, round half away from
/// zero, max 255) is exactly `(S + 2) >> 2` — proven exhaustively over
/// every reachable sum in the tests and kept honest by the float oracle
/// `downsample_half_into_scalar`. Returns whether the destination
/// buffer grew.
///
/// Dispatches to the widest proven-bit-exact implementation for the
/// process ([`crate::dispatch::level`]); use
/// [`downsample_half_into_level`] to pin a level explicitly.
pub fn downsample_half_into(img: &GrayImage, out: &mut GrayImage) -> bool {
    downsample_half_into_level(img, out, crate::dispatch::level())
}

/// [`downsample_half_into`] at an explicit
/// [`SimdLevel`](crate::SimdLevel). All levels
/// produce bit-identical output.
pub fn downsample_half_into_level(
    img: &GrayImage,
    out: &mut GrayImage,
    level: crate::dispatch::SimdLevel,
) -> bool {
    use crate::dispatch::SimdLevel;
    match level {
        SimdLevel::Scalar => downsample_half_into_scalar(img, out),
        SimdLevel::Swar => downsample_half_into_swar(img, out),
        SimdLevel::Sse2 => crate::simd::downsample_half_sse2(img, out),
        SimdLevel::Avx2 => crate::simd::downsample_half_avx2(img, out),
    }
}

/// The integer pass: the `Swar` arm, and the portable proof oracle the
/// vector paths are verified against.
pub(crate) fn downsample_half_into_swar(img: &GrayImage, out: &mut GrayImage) -> bool {
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
        for (x, d) in dst_row.iter_mut().enumerate() {
            let acc = row0[2 * x] as u32
                + row0[2 * x + 1] as u32
                + row1[2 * x] as u32
                + row1[2 * x + 1] as u32;
            *d = ((acc + 2) >> 2) as u8;
        }
    }
    grew
}

/// Float reference oracle for [`downsample_half_into`], the `Scalar`
/// arm: the original `u32`-sum / `f64`-average / [`saturate_u8`]
/// arithmetic.
fn downsample_half_into_scalar(img: &GrayImage, out: &mut GrayImage) -> bool {
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
        for (x, d) in dst_row.iter_mut().enumerate() {
            let acc = row0[2 * x] as u32
                + row0[2 * x + 1] as u32
                + row1[2 * x] as u32
                + row1[2 * x + 1] as u32;
            *d = saturate_u8(acc as f64 / 4.0);
        }
    }
    grew
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsample_averages_blocks() {
        let img = GrayImage::from_fn(4, 2, |x, _| (x as u8) * 40);
        // Blocks: {0,40,0,40}->20, {80,120,80,120}->100
        let d = downsample_half(&img);
        assert_eq!(d.width(), 2);
        assert_eq!(d.height(), 1);
        assert_eq!(d.get(0, 0), Some(20));
        assert_eq!(d.get(1, 0), Some(100));
    }

    #[test]
    fn downsample_into_matches_allocating_version() {
        let img = GrayImage::from_fn(9, 7, |x, y| (x * 31 + y * 17) as u8);
        let mut out = GrayImage::from_fn(3, 3, |_, _| 99);
        let grew = downsample_half_into(&img, &mut out);
        assert!(grew, "9-pixel buffer cannot hold a 12-pixel result");
        assert_eq!(out, downsample_half(&img));
        assert!(!downsample_half_into(&img, &mut out), "second pass reuses");
    }

    /// Every reachable 2×2 block sum rounds identically through the
    /// integer shift and the float funnel.
    #[test]
    fn integer_rounding_matches_float_for_all_block_sums() {
        for s in 0u32..=1020 {
            assert_eq!(((s + 2) >> 2) as u8, saturate_u8(s as f64 / 4.0), "sum {s}");
        }
    }

    /// Randomized equivalence: integer downsample vs the float oracle.
    #[test]
    fn downsample_matches_scalar_reference_randomized() {
        let mut rng = vs_rng::SplitMix64::new(0xD0_5EED);
        let mut a = GrayImage::new(0, 0);
        let mut b = GrayImage::new(0, 0);
        for trial in 0..40 {
            let w = 1 + rng.gen_range(0usize..33);
            let h = 1 + rng.gen_range(0usize..33);
            let img = GrayImage::from_fn(w, h, |_, _| rng.gen_range(0u32..256) as u8);
            downsample_half_into(&img, &mut a);
            downsample_half_into_scalar(&img, &mut b);
            assert_eq!(a, b, "trial {trial}: {w}x{h}");
        }
    }

    #[test]
    fn odd_dimensions_truncate() {
        let img = GrayImage::new(5, 3);
        let d = downsample_half(&img);
        assert_eq!((d.width(), d.height()), (2, 1));
    }

    /// HD odd-dimension halving: 1919×1079-class frames drop the odd
    /// trailing row/column and stay bit-identical to the float oracle
    /// (the dispatched path may be a vector level here). The levels ORB
    /// builds from such a frame are pinned in `vs-features`.
    #[test]
    fn hd_odd_dimensions_match_oracle() {
        let mut rng = vs_rng::SplitMix64::new(0x1919_1079);
        let img = GrayImage::from_fn(1919, 1079, |_, _| rng.gen_range(0u32..256) as u8);
        let mut a = GrayImage::new(0, 0);
        let mut b = GrayImage::new(0, 0);
        downsample_half_into(&img, &mut a);
        downsample_half_into_scalar(&img, &mut b);
        assert_eq!((a.width(), a.height()), (959, 539));
        assert_eq!(a, b, "dispatched HD downsample vs float oracle");
    }
}
