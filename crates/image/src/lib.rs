//! Image containers and basic processing for the video-summarization
//! pipeline.
//!
//! This crate replaces the subset of OpenCV's `core` and `imgproc` the
//! paper's application relies on: 8-bit grayscale and RGB images with
//! checked accessors, PPM/PGM I/O, drawing primitives, separable blurs
//! and pyramid downsampling.
//!
//! All pixel accessors are *checked*: `get`-style methods return `Option`
//! so callers in the fault-injected pipeline can translate out-of-bounds
//! accesses (from corrupted indices) into simulated segfaults instead of
//! panicking.
//!
//! # Example
//!
//! ```
//! use vs_image::{GrayImage, RgbImage};
//!
//! let mut g = GrayImage::new(8, 4);
//! g.set(3, 2, 200);
//! assert_eq!(g.get(3, 2), Some(200));
//! assert_eq!(g.get(99, 0), None);
//! let rgb = RgbImage::from_gray(&g);
//! assert_eq!(rgb.get(3, 2), Some([200, 200, 200]));
//! ```

pub mod dispatch;
mod draw;
mod filter;
mod gray;
mod ppm;
mod pyramid;
mod rgb;
mod simd;

pub use dispatch::SimdLevel;
pub use draw::{draw_disc_gray, draw_line_gray, fill_rect_gray, fill_rect_rgb};
pub use filter::{gaussian_blur_5x5, gaussian_blur_5x5_into, gaussian_blur_5x5_into_level};
pub use gray::GrayImage;
pub use ppm::{read_pgm, read_ppm, write_pgm, write_ppm, PnmError};
pub use pyramid::{downsample_half, downsample_half_into, downsample_half_into_level};
pub use rgb::RgbImage;

/// Hard cap on pixels per image (256 Mpx).
///
/// Mirrors the allocation sanity checks in native image libraries: a
/// fault-corrupted dimension that would blow past this cap is an internal
/// constraint violation (the paper's "abort" crash cause), not an
/// allocation attempt.
pub const MAX_PIXELS: usize = 1 << 28;

/// Saturate an `f64` to the 8-bit pixel range, mapping NaN to 0.
///
/// This is the Rust equivalent of OpenCV's `saturate_cast<uchar>`, the
/// conversion the paper credits for masking 99.7% of FPR faults: float
/// pixel math re-enters 8-bit storage through this clamp.
#[inline]
pub fn saturate_u8(v: f64) -> u8 {
    // `as` saturates and maps NaN to 0 per Rust float->int cast semantics.
    v.round() as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturate_clamps_and_rounds() {
        assert_eq!(saturate_u8(-5.0), 0);
        assert_eq!(saturate_u8(0.4), 0);
        assert_eq!(saturate_u8(0.6), 1);
        assert_eq!(saturate_u8(254.7), 255);
        assert_eq!(saturate_u8(1e300), 255);
        assert_eq!(saturate_u8(f64::NAN), 0);
        assert_eq!(saturate_u8(f64::NEG_INFINITY), 0);
        assert_eq!(saturate_u8(f64::INFINITY), 255);
    }

    /// The masking property the paper measures: small float perturbations
    /// vanish through saturation.
    #[test]
    fn saturation_masks_small_float_perturbations() {
        let v = 200.0f64;
        let perturbed = f64::from_bits(v.to_bits() ^ 1); // lowest mantissa bit
        assert_eq!(saturate_u8(v), saturate_u8(perturbed));
    }
}
