//! Separable smoothing filters.
//!
//! ORB smooths the image before sampling BRIEF point pairs.
//!
//! The binomial Gaussian blur runs as fixed-point u16 row/column passes.
//! Their weights are dyadic rationals (k/2^s), so the historical float
//! path computes every partial sum exactly in `f64`; the integer passes
//! reproduce it bit-for-bit (see [`separable_blur_fixed_into`]) and the
//! float code is retained as the reference oracle
//! ([`gaussian_blur_5x5_into_scalar`]).

use crate::{saturate_u8, GrayImage};

/// Float reference for the separable blurs: per-pixel `get_clamped`
/// accumulation in `f64`, then [`saturate_u8`]. Kept as the oracle the
/// fixed-point passes are proven against.
fn separable_blur_into_scalar(
    img: &GrayImage,
    kernel: &[f64],
    tmp: &mut GrayImage,
    out: &mut GrayImage,
) -> bool {
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
    let r = (kernel.len() / 2) as isize;
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            for (i, k) in kernel.iter().enumerate() {
                acc += k * img.get_clamped(x as isize + i as isize - r, y as isize) as f64;
            }
            tmp.set(x, y, saturate_u8(acc));
        }
    }
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            for (i, k) in kernel.iter().enumerate() {
                acc += k * tmp.get_clamped(x as isize, y as isize + i as isize - r) as f64;
            }
            out.set(x, y, saturate_u8(acc));
        }
    }
    grew
}

/// Fixed-point separable convolution for binomial kernels whose float
/// weights are `weights[i] / 2^shift`.
///
/// Bit-exactness vs the float path: each float weight `k/2^shift` is a
/// dyadic rational, and every product `k/2^shift * v` (v ≤ 255) and every
/// partial sum has ≤ `shift` fractional bits with numerator far below
/// 2^53, so the float accumulation is exact and equals `S / 2^shift` for
/// the integer sum `S` computed here. `saturate_u8` rounds half away
/// from zero; for a non-negative dyadic `S / 2^shift` that is exactly
/// `(S + 2^(shift-1)) >> shift`, and the result cannot exceed 255
/// because `S ≤ 255 * 2^shift`. The u16 accumulator cannot overflow:
/// `S + 2^(shift-1) ≤ 255*16 + 8 = 4088`.
fn separable_blur_fixed_into<const N: usize>(
    img: &GrayImage,
    weights: &[u16; N],
    shift: u32,
    tmp: &mut GrayImage,
    out: &mut GrayImage,
) -> bool {
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
    let r = N / 2;
    let half = 1u16 << (shift - 1);
    let src = img.as_bytes();
    // Horizontal pass: clamped accumulation on the border columns,
    // branch-free windowed reads in the interior.
    {
        let dst = tmp.as_bytes_mut();
        for y in 0..h {
            let row = &src[y * w..y * w + w];
            let trow = &mut dst[y * w..y * w + w];
            let clamped_at = |x: usize, i: usize| {
                let xi = x as isize + i as isize - r as isize;
                row[xi.clamp(0, w as isize - 1) as usize] as u16
            };
            if w > 2 * r {
                for (x, t) in trow.iter_mut().enumerate().take(r) {
                    let mut s = half;
                    for (i, &k) in weights.iter().enumerate() {
                        s += k * clamped_at(x, i);
                    }
                    *t = (s >> shift) as u8;
                }
                for x in r..w - r {
                    let win = &row[x - r..x + r + 1];
                    let mut s = half;
                    for (i, &k) in weights.iter().enumerate() {
                        s += k * win[i] as u16;
                    }
                    trow[x] = (s >> shift) as u8;
                }
                for (x, t) in trow.iter_mut().enumerate().skip(w - r) {
                    let mut s = half;
                    for (i, &k) in weights.iter().enumerate() {
                        s += k * clamped_at(x, i);
                    }
                    *t = (s >> shift) as u8;
                }
            } else {
                for (x, t) in trow.iter_mut().enumerate() {
                    let mut s = half;
                    for (i, &k) in weights.iter().enumerate() {
                        s += k * clamped_at(x, i);
                    }
                    *t = (s >> shift) as u8;
                }
            }
        }
    }
    // Vertical pass: N row slices with clamped indices per output row,
    // then a branch-free column sweep the compiler can vectorize.
    {
        let t = tmp.as_bytes();
        let dst = out.as_bytes_mut();
        for y in 0..h {
            let rows: [&[u8]; N] = std::array::from_fn(|i| {
                let yi = y as isize + i as isize - r as isize;
                let yc = yi.clamp(0, h as isize - 1) as usize;
                &t[yc * w..yc * w + w]
            });
            let orow = &mut dst[y * w..y * w + w];
            for (x, o) in orow.iter_mut().enumerate() {
                let mut s = half;
                for (i, &k) in weights.iter().enumerate() {
                    s += k * rows[i][x] as u16;
                }
                *o = (s >> shift) as u8;
            }
        }
    }
    grew
}

/// 5×5 Gaussian blur (binomial [1 4 6 4 1]/16 kernel), replicate borders.
pub fn gaussian_blur_5x5(img: &GrayImage) -> GrayImage {
    let mut tmp = GrayImage::new(0, 0);
    let mut out = GrayImage::new(0, 0);
    gaussian_blur_5x5_into(img, &mut tmp, &mut out);
    out
}

/// [`gaussian_blur_5x5`] into caller-owned scratch images (`tmp` for
/// the horizontal pass, `out` for the result), bit-identical output.
/// Returns whether either buffer grew.
///
/// Dispatches to the widest proven-bit-exact implementation for the
/// process ([`crate::dispatch::level`]); use
/// [`gaussian_blur_5x5_into_level`] to pin a level explicitly.
pub fn gaussian_blur_5x5_into(img: &GrayImage, tmp: &mut GrayImage, out: &mut GrayImage) -> bool {
    gaussian_blur_5x5_into_level(img, tmp, out, crate::dispatch::level())
}

/// [`gaussian_blur_5x5_into`] at an explicit
/// [`SimdLevel`](crate::SimdLevel). All levels
/// produce bit-identical `tmp` and `out` planes.
pub fn gaussian_blur_5x5_into_level(
    img: &GrayImage,
    tmp: &mut GrayImage,
    out: &mut GrayImage,
    level: crate::dispatch::SimdLevel,
) -> bool {
    use crate::dispatch::SimdLevel;
    match level {
        SimdLevel::Scalar => gaussian_blur_5x5_into_scalar(img, tmp, out),
        // SSE2 rows lost to SWAR at every HD tier, so SSE2 blurs
        // through SWAR.
        SimdLevel::Swar | SimdLevel::Sse2 => gaussian_blur_5x5_into_swar(img, tmp, out),
        SimdLevel::Avx2 => crate::simd::blur5x5_avx2(img, tmp, out),
    }
}

/// The SWAR/fixed-point pass: the `Swar` arm, and the portable proof
/// oracle the vector paths are verified against.
pub(crate) fn gaussian_blur_5x5_into_swar(
    img: &GrayImage,
    tmp: &mut GrayImage,
    out: &mut GrayImage,
) -> bool {
    separable_blur_fixed_into(img, &[1, 4, 6, 4, 1], 4, tmp, out)
}

/// Float reference oracle for [`gaussian_blur_5x5_into`], the `Scalar`
/// arm: the original per-pixel `get_clamped` f64 path.
fn gaussian_blur_5x5_into_scalar(
    img: &GrayImage,
    tmp: &mut GrayImage,
    out: &mut GrayImage,
) -> bool {
    separable_blur_into_scalar(
        img,
        &[1.0 / 16.0, 4.0 / 16.0, 6.0 / 16.0, 4.0 / 16.0, 1.0 / 16.0],
        tmp,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_rng::SplitMix64;

    #[test]
    fn blur_preserves_constant_images() {
        let img = GrayImage::from_fn(10, 10, |_, _| 128);
        assert_eq!(gaussian_blur_5x5(&img), img);
    }

    #[test]
    fn blur_smooths_an_impulse() {
        let mut img = GrayImage::new(7, 7);
        img.set(3, 3, 255);
        let b = gaussian_blur_5x5(&img);
        let center = b.get(3, 3).unwrap();
        let neighbor = b.get(3, 2).unwrap();
        let corner = b.get(2, 2).unwrap();
        assert!(center > neighbor, "centre must dominate");
        assert!(neighbor > corner, "cross neighbours exceed corners");
        assert!(corner > 0, "energy spreads to the 5x5 window");
        assert_eq!(b.get(0, 0), Some(0), "energy stays local");
    }

    #[test]
    fn blur_into_matches_allocating_blur() {
        let img = GrayImage::from_fn(11, 9, |x, y| (x * 23 + y * 5) as u8);
        let mut tmp = GrayImage::new(0, 0);
        let mut out = GrayImage::from_fn(2, 2, |_, _| 7);
        assert!(gaussian_blur_5x5_into(&img, &mut tmp, &mut out));
        assert_eq!(out, gaussian_blur_5x5(&img));
        assert!(!gaussian_blur_5x5_into(&img, &mut tmp, &mut out));
    }

    #[test]
    fn blur_handles_empty_images() {
        let img = GrayImage::new(0, 0);
        assert!(gaussian_blur_5x5(&img).is_empty());
    }

    /// Every reachable integer sum rounds identically through the float
    /// funnel and the fixed-point shift.
    #[test]
    fn fixed_rounding_matches_float_for_all_sums() {
        for s in 0u32..=4080 {
            let float = saturate_u8(s as f64 / 16.0);
            let fixed = ((s + 8) >> 4) as u8;
            assert_eq!(fixed, float, "5x5 kernel sum {s}");
        }
    }

    /// The float path's left-associated accumulation of dyadic products
    /// is exact: it lands on S/16 with no rounding for random windows.
    #[test]
    fn float_accumulation_of_dyadic_weights_is_exact() {
        let kernel = [1.0 / 16.0, 4.0 / 16.0, 6.0 / 16.0, 4.0 / 16.0, 1.0 / 16.0];
        let ik = [1u32, 4, 6, 4, 1];
        let mut rng = SplitMix64::new(0x5EED_B10B);
        for _ in 0..10_000 {
            let vs: [u8; 5] = std::array::from_fn(|_| rng.gen_range(0u32..256) as u8);
            let mut acc = 0.0;
            let mut s = 0u32;
            for i in 0..5 {
                acc += kernel[i] * vs[i] as f64;
                s += ik[i] * vs[i] as u32;
            }
            assert_eq!(acc, s as f64 / 16.0, "window {vs:?}");
        }
    }

    /// Randomized equivalence: fixed-point separable blur vs the float
    /// reference, over many sizes including ones narrower/shorter than
    /// the kernel (border clamping dominates there).
    #[test]
    fn fixed_blur_matches_scalar_reference_randomized() {
        let mut rng = SplitMix64::new(0xB1_0B5EED);
        let mut tmp_a = GrayImage::new(0, 0);
        let mut out_a = GrayImage::new(0, 0);
        let mut tmp_b = GrayImage::new(0, 0);
        let mut out_b = GrayImage::new(0, 0);
        for trial in 0..60 {
            let w = 1 + rng.gen_range(0usize..24);
            let h = 1 + rng.gen_range(0usize..24);
            let img = GrayImage::from_fn(w, h, |_, _| rng.gen_range(0u32..256) as u8);
            gaussian_blur_5x5_into(&img, &mut tmp_a, &mut out_a);
            gaussian_blur_5x5_into_scalar(&img, &mut tmp_b, &mut out_b);
            assert_eq!(out_a, out_b, "trial {trial}: {w}x{h}");
        }
    }
}
