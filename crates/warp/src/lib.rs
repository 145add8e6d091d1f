//! Perspective/affine image warping and panorama compositing.
//!
//! This is the Rust build of the paper's hot function: OpenCV's
//! `warpPerspective`, whose `WarpPerspectiveInvoker` + `remapBilinear`
//! pair consumes 54.4% of the VS application's execution time (Fig 8).
//! [`warp_perspective`] reproduces the same structure — an outer driver
//! that inverts the transform and walks destination rows, and an inner
//! bilinear remap kernel — and instruments both with `vs-fault` taps so
//! the hot-function resiliency study (Fig 11b) can confine injections to
//! exactly these functions.
//!
//! [`Canvas`] composites warped frames into a panorama with
//! later-frame-overwrites blending; that overlap is what masks many
//! warp-stage SDCs in the end-to-end workflow (§VI-C). Tapped runs warp
//! every frame across the whole canvas, as the paper's application
//! does; untapped summaries paint a segment's composites last frame
//! first ([`Canvas::paint_overwrites`]), sampling each canvas pixel once,
//! by the last frame that covers it, for the same bytes.
//!
//! # Example
//!
//! ```
//! use vs_image::RgbImage;
//! use vs_linalg::Mat3;
//! use vs_warp::warp_perspective;
//!
//! let src = RgbImage::from_fn(32, 32, |x, y| [x as u8 * 8, y as u8 * 8, 0]);
//! let shift = Mat3::translation(5.0, 0.0);
//! let (out, mask) = warp_perspective(&src, &shift, 32, 32)?;
//! assert_eq!(out.get(10, 10), src.get(5, 10));
//! assert_eq!(mask.get(2, 0), Some(0)); // left strip has no source
//! # Ok::<(), vs_fault::SimError>(())
//! ```

mod canvas;
mod simd;

pub use canvas::{BlendMode, Canvas, CanvasPatch, CompositeOptions};

/// Reusable warp destination + coverage-mask buffers for
/// [`Canvas::composite_scratch`] (and any caller of
/// [`warp_perspective_offset_into`] that wants a named pair).
#[derive(Debug, Default)]
pub struct WarpScratch {
    pub(crate) patch: RgbImage,
    pub(crate) mask: GrayImage,
}

impl WarpScratch {
    /// Total heap footprint of the owned buffers, in bytes.
    pub fn footprint(&self) -> usize {
        self.patch.capacity() + self.mask.capacity()
    }
}

use vs_fault::{tap, FuncId, OpClass, SimError};
use vs_image::{saturate_u8, GrayImage, RgbImage};
use vs_linalg::{Mat3, Vec2};

/// Upper bound on warp destination pixels, mirroring library allocation
/// sanity limits; exceeding it is a simulated abort.
pub const MAX_WARP_PIXELS: usize = 1 << 24;

/// [`saturate_u8`] for values already known to lie in `[0, 255]` — true
/// of every uncorrupted bilinear blend, which is a convex combination
/// of u8 samples (each float step stays within the sample bounds plus
/// sub-ulp rounding that cannot escape `[0, 255]` after rounding).
/// Truncation plus an exact fraction test (`v - trunc(v)` is exact by
/// Sterbenz) reproduces round-half-away-from-zero bit-for-bit without
/// the libm `round` call baseline x86-64 would emit.
#[inline(always)]
pub(crate) fn round_u8_in_range(v: f64) -> u8 {
    let t = v as i64;
    (t + i64::from(v - t as f64 >= 0.5)) as u8
}

/// Inner bilinear remap kernel: fill destination rows `y0..y1` of `dst`
/// by sampling `src` at `inv · (x + ox, y + oy)`.
///
/// This is the analogue of OpenCV's `remapBilinear`; the Fig 11b study
/// injects faults here and in the [`warp_perspective`] driver.
///
/// Two branch-lean fast paths accelerate the loop without moving a
/// single tap or changing a single stored bit (oracle:
/// [`remap_bilinear_scalar`], proven equivalent in the tests):
///
/// * **Constant homogeneous divisor.** When `inv_rows[6]` and
///   `inv_rows[7]` are (signed) zero — every affine transform's inverse,
///   since those entries are cofactor products of exact zeros — the
///   per-pixel divisor is `±0·dx + ±0·dy + inv_rows[8]`, which IEEE
///   addition collapses to exactly `inv_rows[8]` whenever it is nonzero.
///   The per-pixel `hw` computation folds to a constant, and when that
///   constant is exactly 1.0 the two divisions disappear entirely
///   (`v / 1.0` is the identity).
/// * **Fixed-point bilinear blend.** When both interpolation weights are
///   exact multiples of 2⁻¹⁵ (true for every integer- and
///   half/quarter-pixel translation), the blend runs in i64: all float
///   partials of the scalar path are then exact in `f64` (numerators
///   < 2³⁸ ≪ 2⁵³), so `round(n / 2³⁰)` = `(n + 2²⁹) >> 30` reproduces
///   `saturate_u8` bit-for-bit — swept exhaustively over u8 pairs ×
///   weights in the tests.
fn remap_bilinear(
    src: &RgbImage,
    inv: &Mat3,
    dst: &mut RgbImage,
    mask: &mut GrayImage,
    origin: Vec2,
    y0: usize,
    y1: usize,
) -> Result<(), SimError> {
    let _f = tap::scope(FuncId::RemapBilinear);
    let w = dst.width();
    let sw = src.width();
    let sh = src.height();
    if sw < 2 || sh < 2 {
        return Err(SimError::Abort);
    }
    let src_bytes = src.as_bytes();
    let row_stride = sw * 3;
    let inv_rows = inv.to_rows();
    // Finite origin keeps dx/dy finite, so ±0 * dx cannot produce NaN
    // and the divisor really is inv_rows[8] on the fast path.
    let const_hw =
        (inv_rows[6] == 0.0 && inv_rows[7] == 0.0 && origin.x.is_finite() && origin.y.is_finite())
            .then_some(inv_rows[8]);
    for y in y0..y1 {
        let row_base = y * w;
        tap::work(OpClass::Float, 14 * w as u64)?;
        tap::work(OpClass::Mem, 9 * w as u64)?;
        tap::work(OpClass::IntAlu, 6 * w as u64)?;
        tap::work(OpClass::Control, w as u64)?;
        let dy = y as f64 + origin.y;
        // Hoisted dy products; the per-pixel sums below keep the scalar
        // path's left-to-right association, so every hx/hy/hw value is
        // bit-identical.
        let r1dy = inv_rows[1] * dy;
        let r4dy = inv_rows[4] * dy;
        for x in 0..w {
            let dx = x as f64 + origin.x;
            let hx = inv_rows[0] * dx + r1dy + inv_rows[2];
            let hy = inv_rows[3] * dx + r4dy + inv_rows[5];
            let (sx_raw, sy_raw) = if let Some(c) = const_hw {
                if c == 1.0 {
                    (hx, hy)
                } else {
                    if c.abs() < 1e-12 {
                        continue;
                    }
                    (hx / c, hy / c)
                }
            } else {
                let hw = inv_rows[6] * dx + inv_rows[7] * dy + inv_rows[8];
                if hw.abs() < 1e-12 {
                    continue;
                }
                (hx / hw, hy / hw)
            };
            // The source x coordinate lives in an FPR: tap it. Faults
            // here shift the sampled texel; the result re-enters u8
            // storage through saturation, so most flips are masked.
            let sx = tap::fpr(sx_raw);
            let sy = sy_raw;
            if !sx.is_finite() || !sy.is_finite() {
                continue;
            }
            if sx < -1.0 || sy < -1.0 || sx > sw as f64 || sy > sh as f64 {
                continue;
            }
            // Bilinear fetch through an explicit, tapped source address:
            // the load-base register of the gather. A corrupted high bit
            // drives the checked loads out of bounds (segfault), exactly
            // how address-register faults kill the native application.
            //
            // `as isize` truncates toward zero where the oracle floors,
            // but the range check above pins sx/sy to [-1, sw]/[-1, sh]:
            // the two differ only on (-1, 0), where both clamp to 0 —
            // and it avoids a libm `floor` call per coordinate on
            // baseline x86-64.
            let x0c = (sx as isize).clamp(0, sw as isize - 2) as usize;
            let y0c = (sy as isize).clamp(0, sh as isize - 2) as usize;
            let fx = (sx - x0c as f64).clamp(0.0, 1.0);
            let fy = (sy - y0c as f64).clamp(0.0, 1.0);
            let src_base = y0c * row_stride + x0c * 3;
            let src_idx = tap::addr(src_base);
            let mut packed = 0u64;
            if src_idx == src_base {
                // Uncorrupted address: gather through two row slices with
                // the bounds check hoisted out of the channel loop. The
                // clamps above give `src_base + row_stride + 5 <
                // src_bytes.len()`, so these slices cannot fail.
                let row0 = &src_bytes[src_base..src_base + 6];
                let row1 = &src_bytes[src_base + row_stride..src_base + row_stride + 6];
                let mxf = fx * 32768.0;
                let myf = fy * 32768.0;
                // Round-trip integrality test: for finite mxf in
                // [0, 32768], `mx as f64 == mxf` holds exactly when mxf
                // is an integer — same predicate as `mxf == mxf.floor()`
                // without the libm floor calls.
                let mx = mxf as i64;
                let my = myf as i64;
                if mx as f64 == mxf && my as f64 == myf {
                    // Both weights are k/2^15: integer blend, bit-exact
                    // per the function docs.
                    for c in 0..3 {
                        let p00 = row0[c] as i64;
                        let p10 = row0[3 + c] as i64;
                        let p01 = row1[c] as i64;
                        let p11 = row1[3 + c] as i64;
                        let top = (p00 << 15) + (p10 - p00) * mx;
                        let bot = (p01 << 15) + (p11 - p01) * mx;
                        let n = (top << 15) + (bot - top) * my;
                        packed |= (((n + (1 << 29)) >> 30) as u64) << (8 * c);
                    }
                } else {
                    for c in 0..3 {
                        let p00 = f64::from(row0[c]);
                        let p10 = f64::from(row0[3 + c]);
                        let p01 = f64::from(row1[c]);
                        let p11 = f64::from(row1[3 + c]);
                        let top = p00 + (p10 - p00) * fx;
                        let bottom = p01 + (p11 - p01) * fx;
                        packed |= (round_u8_in_range(top + (bottom - top) * fy) as u64) << (8 * c);
                    }
                }
            } else {
                // Corrupted load base: per-byte checked fetches splitting
                // out-of-bounds accesses by magnitude, as native crashes
                // do — mild overshoot lands in adjacent allocations and
                // trips library assertions (abort); wild pointers
                // segfault.
                let fetch = |off: usize| -> Result<f64, SimError> {
                    let i = src_idx.wrapping_add(off);
                    match src_bytes.get(i) {
                        Some(&v) => Ok(f64::from(v)),
                        None if i < src_bytes.len().saturating_mul(16) => Err(SimError::Abort),
                        None => Err(SimError::Segfault),
                    }
                };
                for c in 0..3 {
                    let p00 = fetch(c)?;
                    let p10 = fetch(3 + c)?;
                    let p01 = fetch(row_stride + c)?;
                    let p11 = fetch(row_stride + 3 + c)?;
                    let top = p00 + (p10 - p00) * fx;
                    let bottom = p01 + (p11 - p01) * fx;
                    packed |= (saturate_u8(top + (bottom - top) * fy) as u64) << (8 * c);
                }
            }
            // Dead-register tap: compiled remap kernels keep several
            // ephemeral temporaries per pixel whose corruption never
            // reaches the output — the paper's dominant masking source.
            let _dead = tap::gpr(packed ^ (src_idx as u64).rotate_left(17));
            // Data tap on the packed pixel value (an integer register
            // holding store data); and an address tap on the store index.
            let packed = tap::gpr(packed);
            let mut pixel = [0u8; 3];
            for (c, px) in pixel.iter_mut().enumerate() {
                *px = ((packed >> (8 * c)) & 0xff) as u8;
            }
            let idx = tap::addr(row_base + x);
            if idx == row_base + x {
                // Uncorrupted store index: direct byte store, skipping the
                // div/mod recovery and the per-pixel bounds re-check
                // (`idx < w * dst_h` since `y < y1 <= dst.height()`).
                let byte = idx * 3;
                dst.as_bytes_mut()[byte..byte + 3].copy_from_slice(&pixel);
                mask.as_bytes_mut()[idx] = 255;
            } else {
                let (px, py) = (idx % w, idx / w);
                if !dst.set(px, py, pixel) {
                    return Err(if idx < dst.width() * dst.height() * 16 {
                        SimError::Abort
                    } else {
                        SimError::Segfault
                    });
                }
                mask.set(px, py, 255);
            }
        }
    }
    Ok(())
}

/// Scalar reference oracle for [`remap_bilinear`]: the original
/// per-pixel homogeneous divide and float-only bilinear blend, with the
/// identical tap sequence. Retained so the equivalence harness and
/// `kernel_bench` can prove and measure the fast paths against it.
fn remap_bilinear_scalar(
    src: &RgbImage,
    inv: &Mat3,
    dst: &mut RgbImage,
    mask: &mut GrayImage,
    origin: Vec2,
    y0: usize,
    y1: usize,
) -> Result<(), SimError> {
    let _f = tap::scope(FuncId::RemapBilinear);
    let w = dst.width();
    let sw = src.width();
    let sh = src.height();
    if sw < 2 || sh < 2 {
        return Err(SimError::Abort);
    }
    let src_bytes = src.as_bytes();
    let row_stride = sw * 3;
    let inv_rows = inv.to_rows();
    for y in y0..y1 {
        let row_base = y * w;
        tap::work(OpClass::Float, 14 * w as u64)?;
        tap::work(OpClass::Mem, 9 * w as u64)?;
        tap::work(OpClass::IntAlu, 6 * w as u64)?;
        tap::work(OpClass::Control, w as u64)?;
        let dy = y as f64 + origin.y;
        for x in 0..w {
            let dx = x as f64 + origin.x;
            let hx = inv_rows[0] * dx + inv_rows[1] * dy + inv_rows[2];
            let hy = inv_rows[3] * dx + inv_rows[4] * dy + inv_rows[5];
            let hw = inv_rows[6] * dx + inv_rows[7] * dy + inv_rows[8];
            if hw.abs() < 1e-12 {
                continue;
            }
            let sx = tap::fpr(hx / hw);
            let sy = hy / hw;
            if !sx.is_finite() || !sy.is_finite() {
                continue;
            }
            if sx < -1.0 || sy < -1.0 || sx > sw as f64 || sy > sh as f64 {
                continue;
            }
            let x0c = (sx.floor() as isize).clamp(0, sw as isize - 2) as usize;
            let y0c = (sy.floor() as isize).clamp(0, sh as isize - 2) as usize;
            let fx = (sx - x0c as f64).clamp(0.0, 1.0);
            let fy = (sy - y0c as f64).clamp(0.0, 1.0);
            let src_base = y0c * row_stride + x0c * 3;
            let src_idx = tap::addr(src_base);
            let mut packed = 0u64;
            if src_idx == src_base {
                let row0 = &src_bytes[src_base..src_base + 6];
                let row1 = &src_bytes[src_base + row_stride..src_base + row_stride + 6];
                for c in 0..3 {
                    let p00 = f64::from(row0[c]);
                    let p10 = f64::from(row0[3 + c]);
                    let p01 = f64::from(row1[c]);
                    let p11 = f64::from(row1[3 + c]);
                    let top = p00 + (p10 - p00) * fx;
                    let bottom = p01 + (p11 - p01) * fx;
                    packed |= (saturate_u8(top + (bottom - top) * fy) as u64) << (8 * c);
                }
            } else {
                let fetch = |off: usize| -> Result<f64, SimError> {
                    let i = src_idx.wrapping_add(off);
                    match src_bytes.get(i) {
                        Some(&v) => Ok(f64::from(v)),
                        None if i < src_bytes.len().saturating_mul(16) => Err(SimError::Abort),
                        None => Err(SimError::Segfault),
                    }
                };
                for c in 0..3 {
                    let p00 = fetch(c)?;
                    let p10 = fetch(3 + c)?;
                    let p01 = fetch(row_stride + c)?;
                    let p11 = fetch(row_stride + 3 + c)?;
                    let top = p00 + (p10 - p00) * fx;
                    let bottom = p01 + (p11 - p01) * fx;
                    packed |= (saturate_u8(top + (bottom - top) * fy) as u64) << (8 * c);
                }
            }
            let _dead = tap::gpr(packed ^ (src_idx as u64).rotate_left(17));
            let packed = tap::gpr(packed);
            let mut pixel = [0u8; 3];
            for (c, px) in pixel.iter_mut().enumerate() {
                *px = ((packed >> (8 * c)) & 0xff) as u8;
            }
            let idx = tap::addr(row_base + x);
            if idx == row_base + x {
                let byte = idx * 3;
                dst.as_bytes_mut()[byte..byte + 3].copy_from_slice(&pixel);
                mask.as_bytes_mut()[idx] = 255;
            } else {
                let (px, py) = (idx % w, idx / w);
                if !dst.set(px, py, pixel) {
                    return Err(if idx < dst.width() * dst.height() * 16 {
                        SimError::Abort
                    } else {
                        SimError::Segfault
                    });
                }
                mask.set(px, py, 255);
            }
        }
    }
    Ok(())
}

/// Warp `src` by `h` into a `dst_w`×`dst_h` image whose pixel `(x, y)`
/// corresponds to output-plane coordinate `(x, y)` (origin at zero).
///
/// Returns the warped image and a coverage mask (255 where a source
/// sample landed).
///
/// # Errors
///
/// * [`SimError::Abort`] — `h` is not invertible, or the destination
///   exceeds [`MAX_WARP_PIXELS`] (library constraint violations).
/// * [`SimError::Segfault`] — a fault-corrupted index escaped bounds.
/// * [`SimError::Hang`] — instruction budget exhausted.
pub fn warp_perspective(
    src: &RgbImage,
    h: &Mat3,
    dst_w: usize,
    dst_h: usize,
) -> Result<(RgbImage, GrayImage), SimError> {
    warp_perspective_offset(src, h, dst_w, dst_h, Vec2::ZERO)
}

/// [`warp_perspective`] with a destination-plane origin offset: output
/// pixel `(x, y)` corresponds to plane coordinate `(x + origin.x,
/// y + origin.y)`. Panorama canvases use negative origins.
///
/// # Errors
///
/// As [`warp_perspective`].
pub fn warp_perspective_offset(
    src: &RgbImage,
    h: &Mat3,
    dst_w: usize,
    dst_h: usize,
    origin: Vec2,
) -> Result<(RgbImage, GrayImage), SimError> {
    let mut dst = RgbImage::default();
    let mut mask = GrayImage::default();
    warp_perspective_offset_into(src, h, dst_w, dst_h, origin, &mut dst, &mut mask)?;
    Ok((dst, mask))
}

/// [`warp_perspective_offset`] into caller-owned destination and mask
/// buffers, reused (zero-filled) across calls. Tap stream and pixels are
/// bit-identical to the allocating path. On error the buffers are left
/// in an unspecified (but valid) state.
///
/// # Errors
///
/// As [`warp_perspective`].
pub fn warp_perspective_offset_into(
    src: &RgbImage,
    h: &Mat3,
    dst_w: usize,
    dst_h: usize,
    origin: Vec2,
    dst: &mut RgbImage,
    mask: &mut GrayImage,
) -> Result<(), SimError> {
    warp_perspective_offset_into_level(
        src,
        h,
        dst_w,
        dst_h,
        origin,
        dst,
        mask,
        vs_image::dispatch::level(),
    )
}

/// [`warp_perspective_offset_into`] at an explicit
/// [`vs_image::SimdLevel`]. Output bytes are bit-identical at every
/// level. The vector levels drop the per-pixel fault taps, so they only
/// run outside instrumentation sessions; inside a session (profiling or
/// injection) they fall back to the instrumented SWAR kernel, which
/// keeps the tap stream — and therefore every campaign record —
/// identical across `VS_SIMD` settings.
///
/// # Errors
///
/// As [`warp_perspective`].
#[allow(clippy::too_many_arguments)]
pub fn warp_perspective_offset_into_level(
    src: &RgbImage,
    h: &Mat3,
    dst_w: usize,
    dst_h: usize,
    origin: Vec2,
    dst: &mut RgbImage,
    mask: &mut GrayImage,
    level: vs_image::SimdLevel,
) -> Result<(), SimError> {
    use vs_image::SimdLevel;
    let remap: RemapFn = match level {
        SimdLevel::Scalar => remap_bilinear_scalar,
        SimdLevel::Swar => remap_bilinear,
        SimdLevel::Sse2 | SimdLevel::Avx2 if vs_fault::session::active() => remap_bilinear,
        SimdLevel::Sse2 => simd::remap_sse2,
        SimdLevel::Avx2 => simd::remap_avx2,
    };
    warp_driver(src, h, dst_w, dst_h, origin, dst, mask, remap)
}

type RemapFn =
    fn(&RgbImage, &Mat3, &mut RgbImage, &mut GrayImage, Vec2, usize, usize) -> Result<(), SimError>;

/// The `warp` kernel event: destination `pixels`. A composite's
/// duration is its enclosing `warp` stage span.
pub(crate) fn emit_warp(pixels: usize) {
    vs_telemetry::emit(
        "warp",
        &[("pixels", vs_telemetry::Value::U64(pixels as u64))],
    );
}

/// The checks a warp of `src` by `h` into a `dst_w`×`dst_h` destination
/// makes before it samples, in order: the destination within
/// [`MAX_WARP_PIXELS`], an invertible transform, and a source of at least
/// 2×2 pixels (the bilinear footprint). Returns the inverse the remap
/// kernels sample with. Tap-free, so callers place it after their taps.
///
/// # Errors
///
/// [`SimError::Abort`] when any check fails.
pub(crate) fn checked_inverse(
    src: &RgbImage,
    h: &Mat3,
    dst_w: usize,
    dst_h: usize,
) -> Result<Mat3, SimError> {
    if dst_w.checked_mul(dst_h).is_none_or(|p| p > MAX_WARP_PIXELS) {
        return Err(SimError::Abort);
    }
    let inv = h.inverse().ok_or(SimError::Abort)?;
    if src.width() < 2 || src.height() < 2 {
        return Err(SimError::Abort);
    }
    Ok(inv)
}

#[allow(clippy::too_many_arguments)]
fn warp_driver(
    src: &RgbImage,
    h: &Mat3,
    dst_w: usize,
    dst_h: usize,
    origin: Vec2,
    dst: &mut RgbImage,
    mask: &mut GrayImage,
    remap: RemapFn,
) -> Result<(), SimError> {
    let _f = tap::scope(FuncId::WarpPerspective);
    tap::work(OpClass::Float, 120)?;
    tap::work(OpClass::IntAlu, 60)?;
    let inv = checked_inverse(src, h, dst_w, dst_h)?;
    dst.try_reset(dst_w, dst_h).ok_or(SimError::Abort)?;
    mask.try_reset(dst_w, dst_h).ok_or(SimError::Abort)?;
    remap(src, &inv, dst, mask, origin, 0, dst_h)?;
    emit_warp(dst_w * dst_h);
    Ok(())
}

/// Warp an affine transform (`h` must have last row `[0, 0, 1]`); same
/// contract as [`warp_perspective`] otherwise.
///
/// # Errors
///
/// As [`warp_perspective`], plus [`SimError::Abort`] if `h` is not
/// affine.
pub fn warp_affine(
    src: &RgbImage,
    h: &Mat3,
    dst_w: usize,
    dst_h: usize,
) -> Result<(RgbImage, GrayImage), SimError> {
    if !h.is_affine() {
        return Err(SimError::Abort);
    }
    warp_perspective(src, h, dst_w, dst_h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: usize, h: usize) -> RgbImage {
        RgbImage::from_fn(w, h, |x, y| {
            [(x * 7 % 256) as u8, (y * 11 % 256) as u8, 128]
        })
    }

    #[test]
    fn identity_warp_reproduces_source() {
        let src = gradient(24, 18);
        let (out, mask) = warp_perspective(&src, &Mat3::IDENTITY, 24, 18).unwrap();
        assert_eq!(out, src);
        assert!(mask.as_bytes().iter().all(|&m| m == 255));
    }

    #[test]
    fn translation_shifts_content() {
        let src = gradient(32, 32);
        let t = Mat3::translation(8.0, 3.0);
        let (out, mask) = warp_perspective(&src, &t, 32, 32).unwrap();
        assert_eq!(out.get(20, 20), src.get(12, 17));
        // The strip that maps outside the source is unwritten.
        assert_eq!(mask.get(3, 10), Some(0));
        assert_eq!(out.get(3, 1), Some([0, 0, 0]));
    }

    #[test]
    fn rotation_preserves_center_pixel() {
        let mut src = RgbImage::new(33, 33);
        src.set(16, 16, [200, 100, 50]);
        // Rotate about the centre: T(c) R T(-c).
        let r =
            Mat3::translation(16.0, 16.0) * Mat3::rotation(0.7) * Mat3::translation(-16.0, -16.0);
        let (out, _) = warp_perspective(&src, &r, 33, 33).unwrap();
        let p = out.get(16, 16).unwrap();
        assert!(p[0] > 100, "centre pixel must survive rotation: {p:?}");
    }

    #[test]
    fn singular_transform_aborts() {
        let src = gradient(8, 8);
        let singular = Mat3::from_rows([1.0, 2.0, 0.0, 2.0, 4.0, 0.0, 0.0, 0.0, 1.0]);
        assert_eq!(
            warp_perspective(&src, &singular, 8, 8).unwrap_err(),
            SimError::Abort
        );
    }

    #[test]
    fn oversized_destination_aborts() {
        let src = gradient(8, 8);
        assert_eq!(
            warp_perspective(&src, &Mat3::IDENTITY, 1 << 13, 1 << 13).unwrap_err(),
            SimError::Abort
        );
        assert_eq!(
            warp_perspective(&src, &Mat3::IDENTITY, usize::MAX, 2).unwrap_err(),
            SimError::Abort
        );
    }

    #[test]
    fn warp_affine_validates_affinity() {
        let src = gradient(8, 8);
        let projective = Mat3::from_rows([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1e-3, 0.0, 1.0]);
        assert_eq!(
            warp_affine(&src, &projective, 8, 8).unwrap_err(),
            SimError::Abort
        );
        assert!(warp_affine(&src, &Mat3::translation(1.0, 1.0), 8, 8).is_ok());
    }

    #[test]
    fn offset_origin_pans_the_viewport() {
        let src = gradient(40, 40);
        let (a, _) = warp_perspective(&src, &Mat3::IDENTITY, 20, 20).unwrap();
        let (b, _) =
            warp_perspective_offset(&src, &Mat3::IDENTITY, 20, 20, Vec2::new(10.0, 5.0)).unwrap();
        assert_eq!(b.get(0, 0), src.get(10, 5));
        assert_eq!(a.get(0, 0), src.get(0, 0));
    }

    #[test]
    fn scaling_up_interpolates_smoothly() {
        let src = RgbImage::from_fn(4, 2, |x, _| [(x * 60) as u8, 0, 0]);
        let (out, _) = warp_perspective(&src, &Mat3::scaling(4.0), 16, 4).unwrap();
        // Red channel must be monotone non-decreasing along x.
        let mut prev = 0u8;
        for x in 0..16 {
            let r = out.get(x, 1).unwrap()[0];
            assert!(r >= prev, "non-monotone at {x}: {r} < {prev}");
            prev = r;
        }
    }

    #[test]
    fn warp_roundtrip_approximates_identity() {
        let src = gradient(48, 48);
        let t = Mat3::translation(4.0, -2.0) * Mat3::rotation(0.2);
        let (warped, _) = warp_perspective(&src, &t, 48, 48).unwrap();
        let (back, mask) = warp_perspective(&warped, &t.inverse().unwrap(), 48, 48).unwrap();
        // Compare where the roundtrip has coverage.
        let mut diff_sum = 0u64;
        let mut n = 0u64;
        for y in 8..40 {
            for x in 8..40 {
                if mask.get(x, y) == Some(255) {
                    let a = back.get(x, y).unwrap();
                    let b = src.get(x, y).unwrap();
                    diff_sum += (a[0] as i32 - b[0] as i32).unsigned_abs() as u64;
                    n += 1;
                }
            }
        }
        assert!(n > 200, "roundtrip coverage too small");
        let mean = diff_sum as f64 / n as f64;
        assert!(mean < 12.0, "roundtrip error too large: {mean}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use vs_rng::SplitMix64;

    fn gradient(w: usize, h: usize) -> RgbImage {
        RgbImage::from_fn(w, h, |x, y| [(x * 5 % 256) as u8, (y * 7 % 256) as u8, 99])
    }

    /// The libm-free rounding used by the fast blend must agree with
    /// `saturate_u8` on its whole [0, 255] domain — half boundaries,
    /// values a single ulp either side of them, and random reals.
    #[test]
    fn round_u8_in_range_matches_saturate_u8() {
        for k in 0..=510u32 {
            let v = f64::from(k) / 2.0;
            assert_eq!(round_u8_in_range(v), saturate_u8(v), "v={v}");
            for adj in [v.next_down().max(0.0), v.next_up().min(255.0)] {
                assert_eq!(round_u8_in_range(adj), saturate_u8(adj), "v={adj}");
            }
        }
        let mut rng = SplitMix64::new(0x0D0D);
        for _ in 0..200_000 {
            let v = rng.next_u64() as f64 / u64::MAX as f64 * 255.0;
            assert_eq!(round_u8_in_range(v), saturate_u8(v), "v={v}");
        }
    }

    /// Warping by a random translation relocates pixels exactly:
    /// every interior destination pixel equals the source pixel the
    /// translation maps it from.
    #[test]
    fn translation_warp_relocates_pixels() {
        let mut rng = SplitMix64::new(0x7a21_0001);
        for case in 0..64u64 {
            let tx: i32 = rng.gen_range(-10i32..10);
            let ty: i32 = rng.gen_range(-8i32..8);
            let px: usize = rng.gen_range(12usize..28);
            let py: usize = rng.gen_range(12usize..20);
            let src = gradient(40, 32);
            let t = Mat3::translation(tx as f64, ty as f64);
            let (out, mask) = warp_perspective(&src, &t, 40, 32).unwrap();
            let sx = px as i64 - tx as i64;
            let sy = py as i64 - ty as i64;
            if sx >= 0 && sy >= 0 && (sx as usize) < 40 && (sy as usize) < 32 {
                assert_eq!(mask.get(px, py), Some(255), "case {case}");
                assert_eq!(
                    out.get(px, py),
                    src.get(sx as usize, sy as usize),
                    "case {case}"
                );
            }
        }
    }

    /// Identity-composited canvases reproduce frame content at the
    /// frame's location for any in-bounds probe.
    #[test]
    fn canvas_composite_preserves_content() {
        use vs_geometry::transform::Bounds;
        use vs_linalg::Vec2;
        let mut rng = SplitMix64::new(0x7a21_0002);
        for case in 0..64u64 {
            let ox: usize = rng.gen_range(0usize..12);
            let oy: usize = rng.gen_range(0usize..10);
            let qx: usize = rng.gen_range(0usize..16);
            let qy: usize = rng.gen_range(0usize..12);
            let frame = gradient(16, 12);
            let b = Bounds::of_points(&[Vec2::ZERO, Vec2::new(40.0, 30.0)]).unwrap();
            let mut canvas = Canvas::new(&b).unwrap();
            canvas
                .composite(&frame, &Mat3::translation(ox as f64, oy as f64))
                .unwrap();
            assert_eq!(
                canvas.image().get(ox + qx, oy + qy),
                frame.get(qx, qy),
                "case {case}"
            );
        }
    }

    /// Fixed-point bilinear blend equals the float+saturate path: swept
    /// over every u8 value pair × a dense weight grid (both 1-D stages),
    /// then over random quads × random weight pairs for the full 2-D
    /// formula.
    #[test]
    fn fixed_point_bilinear_matches_float_path() {
        let blend_float = |p00: u8, p10: u8, p01: u8, p11: u8, fx: f64, fy: f64| -> u8 {
            let (p00, p10, p01, p11) = (p00 as f64, p10 as f64, p01 as f64, p11 as f64);
            let top = p00 + (p10 - p00) * fx;
            let bottom = p01 + (p11 - p01) * fx;
            saturate_u8(top + (bottom - top) * fy)
        };
        let blend_fixed = |p00: u8, p10: u8, p01: u8, p11: u8, mx: i64, my: i64| -> u8 {
            let (p00, p10, p01, p11) = (p00 as i64, p10 as i64, p01 as i64, p11 as i64);
            let top = (p00 << 15) + (p10 - p00) * mx;
            let bot = (p01 << 15) + (p11 - p01) * mx;
            let n = (top << 15) + (bot - top) * my;
            ((n + (1 << 29)) >> 30) as u8
        };
        // Exhaustive pair sweep: every (a, b) × 48 weights spanning the
        // whole range, exercising both the horizontal (fy = 0) and
        // vertical (fx = 0) stages.
        let mut weights: Vec<i64> = (0..=32768).step_by(700).collect();
        weights.extend_from_slice(&[1, 2, 16383, 16384, 16385, 32767, 32768]);
        for a in 0u32..=255 {
            for b in 0u32..=255 {
                let (a, b) = (a as u8, b as u8);
                for &m in &weights {
                    let f = m as f64 / 32768.0;
                    assert_eq!(
                        blend_fixed(a, b, a, b, m, 12345),
                        blend_float(a, b, a, b, f, 12345.0 / 32768.0),
                        "horiz a={a} b={b} m={m}"
                    );
                    assert_eq!(
                        blend_fixed(a, a, b, b, 777, m),
                        blend_float(a, a, b, b, 777.0 / 32768.0, f),
                        "vert a={a} b={b} m={m}"
                    );
                }
            }
        }
        // Random full quads.
        let mut rng = vs_rng::SplitMix64::new(0xB111_EA12);
        for trial in 0..500_000 {
            let q: [u8; 4] = std::array::from_fn(|_| rng.gen_range(0u32..256) as u8);
            let mx = rng.gen_range(0i64..32769);
            let my = rng.gen_range(0i64..32769);
            assert_eq!(
                blend_fixed(q[0], q[1], q[2], q[3], mx, my),
                blend_float(
                    q[0],
                    q[1],
                    q[2],
                    q[3],
                    mx as f64 / 32768.0,
                    my as f64 / 32768.0
                ),
                "trial {trial}: {q:?} mx={mx} my={my}"
            );
        }
    }

    /// Full-warp equivalence against the scalar oracle over random
    /// transforms covering all three divisor paths: affine with unit
    /// divisor (translations, rotations), affine with non-unit divisor,
    /// and genuinely projective matrices.
    #[test]
    fn warp_matches_scalar_oracle_randomized() {
        let mut rng = vs_rng::SplitMix64::new(0x3A12_70FF);
        let src = RgbImage::from_fn(40, 32, |x, y| {
            [
                (x * 5 % 256) as u8,
                (y * 7 % 256) as u8,
                ((x * y) % 256) as u8,
            ]
        });
        let mut fast = (RgbImage::default(), GrayImage::default());
        let mut refr = (RgbImage::default(), GrayImage::default());
        for case in 0..120u64 {
            let m = match case % 6 {
                // Integer and subpixel (k/2^15) translations: fixed-point
                // interpolator territory.
                0 => Mat3::translation(
                    rng.gen_range(-9i32..10) as f64,
                    rng.gen_range(-7i32..8) as f64,
                ),
                1 => Mat3::translation(
                    rng.gen_range(-9i32..10) as f64 + 0.5,
                    rng.gen_range(-7i32..8) as f64 + 0.25,
                ),
                // Rotations/general affines: unit-divisor float blend.
                2 => Mat3::rotation(rng.gen_range(-3.0f64..3.0)),
                3 => Mat3::affine(
                    rng.gen_range(-2.0f64..2.0),
                    rng.gen_range(-2.0f64..2.0),
                    rng.gen_range(-20.0f64..20.0),
                    rng.gen_range(-2.0f64..2.0),
                    rng.gen_range(-2.0f64..2.0),
                    rng.gen_range(-20.0f64..20.0),
                ),
                // Scaled affine: the inverse's divisor is a non-unit
                // constant (h scaled by s has inverse scaled by 1/s in
                // the bottom-right).
                4 => {
                    let s = rng.gen_range(0.5f64..2.0);
                    Mat3::from_rows([s, 0.0, 3.0, 0.0, s, -2.0, 0.0, 0.0, s])
                }
                // Projective: per-pixel divisor path.
                _ => Mat3::from_rows([
                    1.0,
                    rng.gen_range(-0.1f64..0.1),
                    rng.gen_range(-5.0f64..5.0),
                    rng.gen_range(-0.1f64..0.1),
                    1.0,
                    rng.gen_range(-5.0f64..5.0),
                    rng.gen_range(-0.002f64..0.002),
                    rng.gen_range(-0.002f64..0.002),
                    1.0,
                ]),
            };
            let origin = if case % 2 == 0 {
                Vec2::ZERO
            } else {
                Vec2::new(rng.gen_range(-6.0f64..6.0), rng.gen_range(-6.0f64..6.0))
            };
            let a =
                warp_perspective_offset_into(&src, &m, 36, 28, origin, &mut fast.0, &mut fast.1);
            let b = warp_perspective_offset_into_level(
                &src,
                &m,
                36,
                28,
                origin,
                &mut refr.0,
                &mut refr.1,
                vs_image::SimdLevel::Scalar,
            );
            assert_eq!(a, b, "case {case}: result status diverged");
            if a.is_ok() {
                assert_eq!(fast.0, refr.0, "case {case}: pixels diverged ({m:?})");
                assert_eq!(fast.1, refr.1, "case {case}: masks diverged ({m:?})");
            }
        }
    }

    /// Every available dispatch level produces bit-identical pixels and
    /// masks: on small canvases across the transform families the oracle test
    /// sweeps, and on canvases much larger than their source at the
    /// vector samplers' edge cases: coordinates exactly at -1, `sw` and
    /// `sh`; NaN lanes from a vanishing projective divisor beside valid
    /// lanes; block tails with `n % 4 != 0`; and a 2×2 source, whose
    /// texel pairs span it whole.
    #[test]
    fn warp_levels_match_scalar_oracle() {
        use vs_image::SimdLevel;
        let mut rng = vs_rng::SplitMix64::new(0x513D_3A12);
        let small = RgbImage::from_fn(40, 32, |x, y| {
            [
                (x * 5 % 256) as u8,
                (y * 7 % 256) as u8,
                ((x + 2 * y) % 256) as u8,
            ]
        });
        let mut noise = SplitMix64::new(0x5A3B_1E04);
        let big = RgbImage::from_fn(160, 120, |_, _| {
            let v = noise.next_u64();
            [v as u8, (v >> 8) as u8, (v >> 16) as u8]
        });
        let tiny = RgbImage::from_fn(2, 2, |x, y| [(90 * x + 7) as u8, (200 * y) as u8, 255]);
        // The pole: its divisor vanishes, while the rest of its row maps
        // to within half a pixel of source (64, 48). The determinant is
        // -32, so both inversions (here and in `warp_driver`) are exact.
        let (pole_x, pole_y) = (150.0, 100.0);
        let pole_inv = Mat3::from_rows([
            64.0,
            0.0,
            -64.0 * pole_x,
            48.0,
            1.0,
            0.5 - 48.0 * pole_x - pole_y,
            1.0,
            1.0,
            -pole_x - pole_y,
        ]);
        let pole = pole_inv.inverse().unwrap();
        assert_eq!(pole.inverse(), Some(pole_inv));
        // Reference mask values `(x, y, mask)` a case must show. Identity
        // at origin (-1, -1): destination pixels 0 and sw + 1 (sh + 1)
        // sample exactly at -1 and sw (sh); sw + 2 lies past the source.
        let edges = [(0, 0, 255), (161, 121, 255), (162, 60, 0)];
        // The pole pixel is skipped, its row neighbours are sampled.
        let poles = [(150, 100, 0), (149, 100, 255), (151, 100, 255)];
        // (source, transform, origin, width, height, probes)
        let mut cases = Vec::new();
        for case in 0..40u64 {
            let m = match case % 4 {
                0 => Mat3::translation(
                    rng.gen_range(-9i32..10) as f64 + 0.5,
                    rng.gen_range(-7i32..8) as f64,
                ),
                1 => Mat3::rotation(rng.gen_range(-3.0f64..3.0)),
                2 => {
                    let s = rng.gen_range(0.5f64..2.0);
                    Mat3::from_rows([s, 0.0, 3.0, 0.0, s, -2.0, 0.0, 0.0, s])
                }
                _ => Mat3::from_rows([
                    1.0,
                    rng.gen_range(-0.1f64..0.1),
                    rng.gen_range(-5.0f64..5.0),
                    rng.gen_range(-0.1f64..0.1),
                    1.0,
                    rng.gen_range(-5.0f64..5.0),
                    rng.gen_range(-0.002f64..0.002),
                    rng.gen_range(-0.002f64..0.002),
                    1.0,
                ]),
            };
            let origin = Vec2::new(rng.gen_range(-6.0f64..6.0), rng.gen_range(-6.0f64..6.0));
            cases.push((&small, m, origin, 37, 29, &[][..]));
        }
        for case in 0..24u64 {
            let (source, m, origin, probes) = match case % 6 {
                0 => (&big, Mat3::IDENTITY, Vec2::new(-1.0, -1.0), &edges[..]),
                // Dyadic translations: ties of the rounding.
                1 => (
                    &big,
                    Mat3::translation(
                        rng.gen_range(-40i32..140) as f64 + 0.5,
                        rng.gen_range(-30i32..80) as f64 + 0.25,
                    ),
                    Vec2::ZERO,
                    &[][..],
                ),
                2 => (
                    &big,
                    Mat3::translation(70.0, 40.0)
                        * Mat3::rotation(rng.gen_range(-3.0f64..3.0))
                        * Mat3::scaling(rng.gen_range(0.5f64..2.0)),
                    Vec2::new(rng.gen_range(-8.0f64..8.0), rng.gen_range(-8.0f64..8.0)),
                    &[][..],
                ),
                3 => (
                    &big,
                    Mat3::from_rows([
                        1.0 + rng.gen_range(-0.2f64..0.2),
                        rng.gen_range(-0.1f64..0.1),
                        rng.gen_range(0.0f64..100.0),
                        rng.gen_range(-0.1f64..0.1),
                        1.0 + rng.gen_range(-0.2f64..0.2),
                        rng.gen_range(0.0f64..60.0),
                        rng.gen_range(-0.002f64..0.002),
                        rng.gen_range(-0.002f64..0.002),
                        1.0,
                    ]),
                    Vec2::ZERO,
                    &[][..],
                ),
                4 => (&big, pole, Vec2::ZERO, &poles[..]),
                _ => (
                    &tiny,
                    Mat3::translation(rng.gen_range(0.0f64..150.0), rng.gen_range(0.0f64..100.0))
                        * Mat3::rotation(rng.gen_range(-3.0f64..3.0))
                        * Mat3::scaling(rng.gen_range(8.0f64..90.0)),
                    Vec2::ZERO,
                    &[][..],
                ),
            };
            // Widths 301..=303 leave 1-3 scalar tail lanes per row.
            cases.push((source, m, origin, 301 + (case % 3) as usize, 200, probes));
        }
        let mut refr = (RgbImage::default(), GrayImage::default());
        let mut got = (RgbImage::default(), GrayImage::default());
        for (case, &(source, m, origin, w, h, probes)) in cases.iter().enumerate() {
            warp_perspective_offset_into_level(
                source,
                &m,
                w,
                h,
                origin,
                &mut refr.0,
                &mut refr.1,
                SimdLevel::Scalar,
            )
            .unwrap();
            // The edge cases are all on the large canvases, and none may
            // be vacuous.
            assert!(
                w < 300 || refr.1.as_bytes().contains(&255),
                "case {case} samples nothing"
            );
            for &(x, y, want) in probes {
                assert_eq!(
                    refr.1.get(x, y),
                    Some(want),
                    "case {case}: mask at ({x}, {y})"
                );
            }
            for level in SimdLevel::ALL {
                if !level.available() {
                    continue;
                }
                warp_perspective_offset_into_level(
                    source, &m, w, h, origin, &mut got.0, &mut got.1, level,
                )
                .unwrap();
                assert_eq!(got.0, refr.0, "case {case} level {level}: pixels");
                assert_eq!(got.1, refr.1, "case {case} level {level}: masks");
            }
        }
    }

    /// Fault-campaign equivalence: the fast and scalar warps expose the
    /// same tap stream, so golden profiles and every injection record
    /// must match for both integer and float fault classes.
    #[test]
    fn fault_campaign_outcomes_identical_to_scalar() {
        use vs_fault::campaign::{profile_golden, run_campaign, CampaignConfig, Injection};
        use vs_fault::RegClass;

        struct WarpWl<const SCALAR: bool> {
            src: RgbImage,
            m: Mat3,
        }
        impl<const SCALAR: bool> vs_fault::campaign::Workload for WarpWl<SCALAR> {
            type Output = (RgbImage, GrayImage);
            type Workspace = (RgbImage, GrayImage);
            type Checkpoint = vs_fault::campaign::NoCheckpoint;
            fn run<'w>(
                &self,
                out: &'w mut Self::Workspace,
                _from: Option<&Self::Checkpoint>,
            ) -> Result<&'w Self::Output, SimError> {
                let level = if SCALAR {
                    vs_image::SimdLevel::Scalar
                } else {
                    vs_image::dispatch::level()
                };
                let (dst, mask) = &mut *out;
                let origin = Vec2::new(-2.0, 1.0);
                warp_perspective_offset_into_level(
                    &self.src, &self.m, 30, 24, origin, dst, mask, level,
                )?;
                Ok(out)
            }
        }

        let src = RgbImage::from_fn(32, 26, |x, y| {
            [(x * 9 % 256) as u8, (y * 5 % 256) as u8, 77]
        });
        let m = Mat3::translation(3.0, -1.0) * Mat3::rotation(0.35);
        let fast = WarpWl::<false> {
            src: src.clone(),
            m,
        };
        let scalar = WarpWl::<true> { src, m };
        let g_fast = profile_golden(&fast).unwrap();
        let g_scalar = profile_golden(&scalar).unwrap();
        assert_eq!(g_fast.profile, g_scalar.profile, "tap profiles diverge");
        assert_eq!(g_fast.output, g_scalar.output, "golden outputs diverge");

        for class in [RegClass::Gpr, RegClass::Fpr] {
            let cfg = CampaignConfig::new(class, 100).seed(0x3A12).threads(2);
            let a = run_campaign(&fast, &g_fast, &cfg);
            let b = run_campaign(&scalar, &g_scalar, &cfg);
            let [ka, kb] = [a, b].map(|r| r.iter().map(Injection::identity).collect::<Vec<_>>());
            assert_eq!(ka, kb, "{class:?} injection records diverge");
        }
    }

    /// The warp never panics for arbitrary finite affine transforms:
    /// it either succeeds or reports a simulated abort.
    #[test]
    fn warp_total_over_random_affines() {
        let mut rng = SplitMix64::new(0x7a21_0003);
        for _ in 0..64u64 {
            let a = rng.gen_range(-2.0f64..2.0);
            let b = rng.gen_range(-2.0f64..2.0);
            let c = rng.gen_range(-2.0f64..2.0);
            let d = rng.gen_range(-2.0f64..2.0);
            let tx = rng.gen_range(-50.0f64..50.0);
            let ty = rng.gen_range(-50.0f64..50.0);
            let src = gradient(20, 16);
            let m = Mat3::affine(a, b, tx, c, d, ty);
            let _ = warp_perspective(&src, &m, 24, 18);
        }
    }
}
