//! 8-bit grayscale images.

use crate::MAX_PIXELS;
use std::fmt;

/// An 8-bit single-channel image in row-major layout.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl GrayImage {
    /// A black image of the given size.
    ///
    /// # Panics
    ///
    /// Panics if `width * height` exceeds [`MAX_PIXELS`]. Use
    /// [`GrayImage::try_new`] when dimensions are untrusted.
    pub fn new(width: usize, height: usize) -> Self {
        Self::try_new(width, height).expect("image dimensions exceed MAX_PIXELS")
    }

    /// A black image, or `None` if the dimensions overflow the pixel cap
    /// (the fallible path for fault-corrupted sizes).
    pub fn try_new(width: usize, height: usize) -> Option<Self> {
        let pixels = width.checked_mul(height)?;
        if pixels > MAX_PIXELS {
            return None;
        }
        Some(GrayImage {
            width,
            height,
            data: vec![0u8; pixels],
        })
    }

    /// Reuse this image's buffer as a zero-filled `width`×`height`
    /// image, or `None` if the dimensions overflow the pixel cap.
    ///
    /// The allocation is kept whenever the existing capacity suffices;
    /// the returned flag is `true` when the buffer had to grow (the
    /// scratch-workspace steady-state counter feeds on it).
    pub fn try_reset(&mut self, width: usize, height: usize) -> Option<bool> {
        let kept = self.data.len();
        let grew = self.reset_for_overwrite(width, height)?;
        // Bytes past the kept prefix were zeroed as the buffer resized.
        let kept = kept.min(self.data.len());
        self.data[..kept].fill(0);
        Some(grew)
    }

    /// [`GrayImage::try_reset`] for a producer that writes every pixel:
    /// the bytes the buffer already holds are left as they are, so a
    /// warm buffer is written once, by the producer, not zero-filled
    /// first. Each caller's level tests start from a dirty buffer.
    pub(crate) fn reset_for_overwrite(&mut self, width: usize, height: usize) -> Option<bool> {
        let pixels = width.checked_mul(height)?;
        if pixels > MAX_PIXELS {
            return None;
        }
        let grew = pixels > self.data.capacity();
        self.data.resize(pixels, 0);
        self.width = width;
        self.height = height;
        Some(grew)
    }

    /// Heap capacity of the pixel buffer, in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Build an image by evaluating `f(x, y)` for every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> u8) -> Self {
        let mut img = GrayImage::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.data[y * width + x] = f(x, y);
            }
        }
        img
    }

    /// Wrap raw row-major bytes.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn from_raw(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert_eq!(data.len(), width * height, "raw buffer size mismatch");
        GrayImage {
            width,
            height,
            data,
        }
    }

    /// Width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Whether the image has zero area.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Checked pixel read.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Option<u8> {
        if x < self.width && y < self.height {
            Some(self.data[y * self.width + x])
        } else {
            None
        }
    }

    /// Pixel read with coordinates clamped to the border (replicate
    /// padding), as OpenCV's `BORDER_REPLICATE`.
    ///
    /// # Panics
    ///
    /// Panics if the image is empty.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> u8 {
        assert!(!self.is_empty(), "get_clamped on empty image");
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Checked pixel write; returns false when out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u8) -> bool {
        if x < self.width && y < self.height {
            self.data[y * self.width + x] = v;
            true
        } else {
            false
        }
    }

    /// Checked linear read by flat index (used by fault-instrumented code
    /// that models address arithmetic explicitly).
    #[inline]
    pub fn get_linear(&self, idx: usize) -> Option<u8> {
        self.data.get(idx).copied()
    }

    /// Row-major pixel buffer.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable row-major pixel buffer.
    #[inline]
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn row(&self, y: usize) -> &[u8] {
        assert!(y < self.height, "row index out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Mean pixel value (0 for an empty image).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&v| v as u64).sum::<u64>() as f64 / self.data.len() as f64
    }

    /// Bilinear sample at fractional coordinates with replicate border.
    ///
    /// Returns `None` for non-finite coordinates or coordinates more than
    /// one pixel outside the image.
    pub fn sample_bilinear(&self, x: f64, y: f64) -> Option<f64> {
        if !x.is_finite() || !y.is_finite() || self.is_empty() {
            return None;
        }
        if x < -1.0 || y < -1.0 || x > self.width as f64 || y > self.height as f64 {
            return None;
        }
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = x - x0;
        let fy = y - y0;
        let x0 = x0 as isize;
        let y0 = y0 as isize;
        let p00 = self.get_clamped(x0, y0) as f64;
        let p10 = self.get_clamped(x0 + 1, y0) as f64;
        let p01 = self.get_clamped(x0, y0 + 1) as f64;
        let p11 = self.get_clamped(x0 + 1, y0 + 1) as f64;
        let top = p00 + (p10 - p00) * fx;
        let bottom = p01 + (p11 - p01) * fx;
        Some(top + (bottom - top) * fy)
    }

    /// Extract a sub-image; `None` if the rectangle escapes the bounds.
    pub fn crop(&self, x: usize, y: usize, w: usize, h: usize) -> Option<GrayImage> {
        if x.checked_add(w)? > self.width || y.checked_add(h)? > self.height {
            return None;
        }
        let mut out = GrayImage::new(w, h);
        for row in 0..h {
            let src = &self.data[(y + row) * self.width + x..(y + row) * self.width + x + w];
            out.data[row * w..(row + 1) * w].copy_from_slice(src);
        }
        Some(out)
    }
}

impl Default for GrayImage {
    /// An empty 0×0 image — the natural seed for reusable scratch
    /// buffers that grow on first use.
    fn default() -> Self {
        GrayImage::new(0, 0)
    }
}

impl fmt::Debug for GrayImage {
    /// Compact representation: dimensions, not megabytes of pixel dumps.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GrayImage {{ {}x{} }}", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_black() {
        let g = GrayImage::new(4, 3);
        assert_eq!(g.width(), 4);
        assert_eq!(g.height(), 3);
        assert!(g.as_bytes().iter().all(|&v| v == 0));
    }

    #[test]
    fn try_new_rejects_absurd_sizes() {
        assert!(GrayImage::try_new(usize::MAX, 2).is_none());
        assert!(GrayImage::try_new(1 << 20, 1 << 20).is_none());
        assert!(GrayImage::try_new(16, 16).is_some());
    }

    #[test]
    fn try_reset_reuses_capacity_and_zero_fills() {
        let mut g = GrayImage::from_fn(8, 4, |_, _| 9);
        let grew = g.try_reset(4, 4).unwrap();
        assert!(!grew, "shrinking must reuse the buffer");
        assert_eq!((g.width(), g.height()), (4, 4));
        assert!(g.as_bytes().iter().all(|&v| v == 0));
        // Dirty bytes are zeroed whether the buffer keeps or outgrows them.
        g.as_bytes_mut().fill(9);
        assert!(!g.try_reset(6, 4).unwrap());
        assert!(g.as_bytes().iter().all(|&v| v == 0));
        g.as_bytes_mut().fill(9);
        assert!(g.try_reset(16, 16).unwrap(), "growth must be reported");
        assert!(g.as_bytes().iter().all(|&v| v == 0));
        assert!(g.try_reset(usize::MAX, 2).is_none());
        // A failed reset leaves the previous geometry untouched.
        assert_eq!((g.width(), g.height()), (16, 16));
    }

    #[test]
    fn get_set_roundtrip_and_bounds() {
        let mut g = GrayImage::new(5, 5);
        assert!(g.set(4, 4, 77));
        assert_eq!(g.get(4, 4), Some(77));
        assert!(!g.set(5, 0, 1));
        assert_eq!(g.get(0, 5), None);
        assert_eq!(g.get_linear(24), Some(77));
        assert_eq!(g.get_linear(25), None);
    }

    #[test]
    fn clamped_reads_replicate_border() {
        let g = GrayImage::from_fn(3, 3, |x, y| (x * 10 + y) as u8);
        assert_eq!(g.get_clamped(-5, -5), g.get(0, 0).unwrap());
        assert_eq!(g.get_clamped(10, 1), g.get(2, 1).unwrap());
    }

    #[test]
    fn bilinear_interpolates_between_pixels() {
        let mut g = GrayImage::new(2, 1);
        g.set(0, 0, 0);
        g.set(1, 0, 100);
        assert_eq!(g.sample_bilinear(0.5, 0.0), Some(50.0));
        assert_eq!(g.sample_bilinear(0.0, 0.0), Some(0.0));
        assert_eq!(g.sample_bilinear(f64::NAN, 0.0), None);
        assert_eq!(g.sample_bilinear(500.0, 0.0), None);
    }

    #[test]
    fn crop_extracts_and_bounds_checks() {
        let g = GrayImage::from_fn(6, 4, |x, y| (y * 6 + x) as u8);
        let c = g.crop(2, 1, 3, 2).unwrap();
        assert_eq!(c.width(), 3);
        assert_eq!(c.get(0, 0), g.get(2, 1));
        assert_eq!(c.get(2, 1), g.get(4, 2));
        assert!(g.crop(5, 0, 2, 1).is_none());
        assert!(g.crop(0, 3, 1, 2).is_none());
    }

    #[test]
    fn mean_and_rows() {
        let g = GrayImage::from_fn(2, 2, |x, _| if x == 0 { 0 } else { 100 });
        assert_eq!(g.mean(), 50.0);
        assert_eq!(g.row(0), &[0, 100]);
        assert_eq!(GrayImage::new(0, 0).mean(), 0.0);
    }

    #[test]
    fn debug_is_compact() {
        let g = GrayImage::new(640, 480);
        assert_eq!(format!("{g:?}"), "GrayImage { 640x480 }");
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn from_raw_validates_length() {
        let _ = GrayImage::from_raw(3, 3, vec![0; 8]);
    }
}
