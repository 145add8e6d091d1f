//! Image pyramids.
//!
//! ORB detects FAST corners at several scales; the pyramid here halves
//! resolution per level with 2×2 box averaging.

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
        .try_reset(w, h)
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
        .try_reset(w, h)
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

/// A multi-scale pyramid: level 0 is the source image, each further level
/// halves the resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pyramid {
    levels: Vec<GrayImage>,
}

impl Pyramid {
    /// Build a pyramid with at most `max_levels` levels, stopping early
    /// when a level would fall below `min_size` pixels on a side.
    ///
    /// # Panics
    ///
    /// Panics if `max_levels` is zero.
    pub fn new(base: &GrayImage, max_levels: usize, min_size: usize) -> Self {
        assert!(max_levels > 0, "pyramid needs at least one level");
        let mut levels = vec![base.clone()];
        while levels.len() < max_levels {
            let prev = levels.last().expect("non-empty by construction");
            if prev.width() / 2 < min_size || prev.height() / 2 < min_size {
                break;
            }
            levels.push(downsample_half(prev));
        }
        Pyramid { levels }
    }

    /// Number of levels actually built.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the pyramid has no levels (never true after `new`).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Image at `level` (0 = full resolution).
    pub fn level(&self, level: usize) -> Option<&GrayImage> {
        self.levels.get(level)
    }

    /// The scale factor mapping level-`level` coordinates back to level 0.
    pub fn scale(&self, level: usize) -> f64 {
        (1u64 << level) as f64
    }

    /// Iterate over `(level_index, image)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &GrayImage)> {
        self.levels.iter().enumerate()
    }
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
    /// trailing row/column at every level and stay bit-identical to the
    /// float oracle (the dispatched path may be a vector level here).
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
        let p = Pyramid::new(&img, 4, 8);
        let sizes: Vec<_> = p.iter().map(|(_, im)| (im.width(), im.height())).collect();
        assert_eq!(
            sizes,
            vec![(1919, 1079), (959, 539), (479, 269), (239, 134)]
        );
        assert_eq!(
            p.level(1).unwrap(),
            &a,
            "pyramid level 1 is the halved frame"
        );
    }

    #[test]
    fn pyramid_respects_min_size() {
        let img = GrayImage::new(64, 64);
        let p = Pyramid::new(&img, 10, 16);
        // 64 -> 32 -> 16, then 16/2=8 < 16 stops.
        assert_eq!(p.len(), 3);
        assert_eq!(p.level(2).unwrap().width(), 16);
        assert!(p.level(3).is_none());
        assert!(!p.is_empty());
    }

    #[test]
    fn pyramid_respects_max_levels() {
        let img = GrayImage::new(1024, 1024);
        let p = Pyramid::new(&img, 3, 4);
        assert_eq!(p.len(), 3);
        assert_eq!(p.scale(0), 1.0);
        assert_eq!(p.scale(2), 4.0);
    }

    #[test]
    fn iter_yields_all_levels() {
        let img = GrayImage::new(32, 32);
        let p = Pyramid::new(&img, 4, 2);
        let sizes: Vec<_> = p.iter().map(|(i, im)| (i, im.width())).collect();
        assert_eq!(sizes, vec![(0, 32), (1, 16), (2, 8), (3, 4)]);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_levels_rejected() {
        let _ = Pyramid::new(&GrayImage::new(8, 8), 0, 2);
    }
}
