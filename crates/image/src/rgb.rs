//! 8-bit three-channel (RGB) images.

use crate::gray::GrayImage;
use crate::MAX_PIXELS;
use std::fmt;

/// An 8-bit RGB image in row-major, interleaved layout.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RgbImage {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl RgbImage {
    /// A black image of the given size.
    ///
    /// # Panics
    ///
    /// Panics if `width * height` exceeds [`MAX_PIXELS`]. Use
    /// [`RgbImage::try_new`] when dimensions are untrusted.
    pub fn new(width: usize, height: usize) -> Self {
        Self::try_new(width, height).expect("image dimensions exceed MAX_PIXELS")
    }

    /// A black image, or `None` if the dimensions overflow the pixel cap.
    pub fn try_new(width: usize, height: usize) -> Option<Self> {
        let pixels = width.checked_mul(height)?;
        if pixels > MAX_PIXELS {
            return None;
        }
        Some(RgbImage {
            width,
            height,
            data: vec![0u8; pixels * 3],
        })
    }

    /// Reuse this image's buffer as a zero-filled `width`×`height`
    /// image, or `None` if the dimensions overflow the pixel cap.
    ///
    /// Same contract as [`GrayImage::try_reset`]: the allocation is kept
    /// whenever the capacity suffices, and the returned flag reports
    /// whether the buffer had to grow.
    pub fn try_reset(&mut self, width: usize, height: usize) -> Option<bool> {
        let pixels = width.checked_mul(height)?;
        if pixels > MAX_PIXELS {
            return None;
        }
        let grew = pixels * 3 > self.data.capacity();
        self.data.clear();
        self.data.resize(pixels * 3, 0);
        self.width = width;
        self.height = height;
        Some(grew)
    }

    /// Heap capacity of the pixel buffer, in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Overwrite this image with a bit-copy of `src`, reusing the
    /// existing buffer whenever its capacity suffices — the
    /// allocation-free counterpart of `clone` for recycled workspaces.
    pub fn copy_from(&mut self, src: &RgbImage) {
        self.width = src.width;
        self.height = src.height;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Build an image by evaluating `f(x, y)` for every pixel.
    pub fn from_fn(
        width: usize,
        height: usize,
        mut f: impl FnMut(usize, usize) -> [u8; 3],
    ) -> Self {
        let mut img = RgbImage::new(width, height);
        for y in 0..height {
            for x in 0..width {
                let p = f(x, y);
                let o = (y * width + x) * 3;
                img.data[o..o + 3].copy_from_slice(&p);
            }
        }
        img
    }

    /// Replicate a grayscale image into all three channels.
    pub fn from_gray(gray: &GrayImage) -> Self {
        RgbImage::from_fn(gray.width(), gray.height(), |x, y| {
            let v = gray.get(x, y).unwrap_or(0);
            [v, v, v]
        })
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
    pub fn get(&self, x: usize, y: usize) -> Option<[u8; 3]> {
        if x < self.width && y < self.height {
            let o = (y * self.width + x) * 3;
            Some([self.data[o], self.data[o + 1], self.data[o + 2]])
        } else {
            None
        }
    }

    /// Pixel read with replicate border padding.
    ///
    /// # Panics
    ///
    /// Panics if the image is empty.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> [u8; 3] {
        assert!(!self.is_empty(), "get_clamped on empty image");
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        let o = (cy * self.width + cx) * 3;
        [self.data[o], self.data[o + 1], self.data[o + 2]]
    }

    /// Checked pixel write; returns false when out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, p: [u8; 3]) -> bool {
        if x < self.width && y < self.height {
            let o = (y * self.width + x) * 3;
            self.data[o..o + 3].copy_from_slice(&p);
            true
        } else {
            false
        }
    }

    /// Interleaved RGB bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable interleaved RGB bytes.
    #[inline]
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Convert to grayscale with the ITU-R BT.601 luma weights, the same
    /// weights OpenCV's `cvtColor(COLOR_RGB2GRAY)` uses.
    pub fn to_gray(&self) -> GrayImage {
        let mut out = GrayImage::new(0, 0);
        self.to_gray_into(&mut out);
        out
    }

    /// Grayscale conversion into a caller-owned image, reusing its
    /// buffer. Bit-identical to [`RgbImage::to_gray`]: the row-wise
    /// slice walk performs the same fixed-point luma computation in the
    /// same raster order. Returns whether the destination buffer grew.
    ///
    /// Dispatches on [`crate::dispatch::level`]; use
    /// [`RgbImage::to_gray_into_level`] to pin a level explicitly.
    pub fn to_gray_into(&self, out: &mut GrayImage) -> bool {
        self.to_gray_into_level(out, crate::dispatch::level())
    }

    /// [`RgbImage::to_gray_into`] at an explicit [`SimdLevel`]. Every
    /// level runs the same integer loop, compiled for AVX2 at the AVX2
    /// level, so all levels produce identical bytes.
    ///
    /// # Panics
    ///
    /// Panics when `level` is AVX2 and the host lacks it.
    ///
    /// [`SimdLevel`]: crate::dispatch::SimdLevel
    pub fn to_gray_into_level(&self, out: &mut GrayImage, level: crate::SimdLevel) -> bool {
        // `self` exists, so width*height already respects MAX_PIXELS.
        let grew = out
            .reset_for_overwrite(self.width, self.height)
            .expect("image dimensions exceed MAX_PIXELS");
        if self.width == 0 || self.height == 0 {
            return grew;
        }
        crate::simd::luma(&self.data, out.as_bytes_mut(), self.width, level);
        grew
    }

    /// Bilinear sample of all channels at fractional coordinates.
    ///
    /// Returns `None` for non-finite or far-out-of-range coordinates.
    pub fn sample_bilinear(&self, x: f64, y: f64) -> Option<[f64; 3]> {
        if !x.is_finite() || !y.is_finite() || self.is_empty() {
            return None;
        }
        if x < -1.0 || y < -1.0 || x > self.width as f64 || y > self.height as f64 {
            return None;
        }
        let x0f = x.floor();
        let y0f = y.floor();
        let fx = x - x0f;
        let fy = y - y0f;
        let x0 = x0f as isize;
        let y0 = y0f as isize;
        let p00 = self.get_clamped(x0, y0);
        let p10 = self.get_clamped(x0 + 1, y0);
        let p01 = self.get_clamped(x0, y0 + 1);
        let p11 = self.get_clamped(x0 + 1, y0 + 1);
        let mut out = [0.0f64; 3];
        for c in 0..3 {
            let top = p00[c] as f64 + (p10[c] as f64 - p00[c] as f64) * fx;
            let bottom = p01[c] as f64 + (p11[c] as f64 - p01[c] as f64) * fx;
            out[c] = top + (bottom - top) * fy;
        }
        Some(out)
    }

    /// Extract a sub-image; `None` if the rectangle escapes the bounds.
    pub fn crop(&self, x: usize, y: usize, w: usize, h: usize) -> Option<RgbImage> {
        let mut out = RgbImage::new(0, 0);
        self.crop_into(x, y, w, h, &mut out).then_some(out)
    }

    /// Extract a sub-image into a caller-owned image, reusing its
    /// buffer. Returns `false` (leaving `out` untouched) if the
    /// rectangle escapes the bounds.
    pub fn crop_into(&self, x: usize, y: usize, w: usize, h: usize, out: &mut RgbImage) -> bool {
        let in_bounds = x.checked_add(w).is_some_and(|r| r <= self.width)
            && y.checked_add(h).is_some_and(|b| b <= self.height);
        if !in_bounds || out.try_reset(w, h).is_none() {
            return false;
        }
        for row in 0..h {
            let src_off = ((y + row) * self.width + x) * 3;
            let dst_off = row * w * 3;
            out.data[dst_off..dst_off + w * 3]
                .copy_from_slice(&self.data[src_off..src_off + w * 3]);
        }
        true
    }
}

impl Default for RgbImage {
    /// An empty 0×0 image — the natural seed for reusable scratch
    /// buffers that grow on first use.
    fn default() -> Self {
        RgbImage::new(0, 0)
    }
}

impl fmt::Debug for RgbImage {
    /// Compact representation: dimensions only.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RgbImage {{ {}x{} }}", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let mut img = RgbImage::new(3, 2);
        assert!(img.set(2, 1, [1, 2, 3]));
        assert_eq!(img.get(2, 1), Some([1, 2, 3]));
        assert_eq!(img.get(3, 0), None);
        assert!(!img.set(0, 2, [0, 0, 0]));
    }

    #[test]
    fn gray_conversion_matches_luma_weights() {
        let img = RgbImage::from_fn(1, 1, |_, _| [255, 0, 0]);
        let g = img.to_gray();
        let v = g.get(0, 0).unwrap();
        assert!(
            (v as i32 - 76).abs() <= 1,
            "red luma should be ~76, got {v}"
        );
        let white = RgbImage::from_fn(1, 1, |_, _| [255, 255, 255]).to_gray();
        assert_eq!(white.get(0, 0), Some(255));
    }

    #[test]
    fn gray_roundtrip_preserves_values() {
        let g = GrayImage::from_fn(4, 4, |x, y| (x * 16 + y) as u8);
        let rgb = RgbImage::from_gray(&g);
        assert_eq!(rgb.to_gray(), g);
    }

    #[test]
    fn bilinear_midpoint() {
        let mut img = RgbImage::new(2, 1);
        img.set(0, 0, [0, 10, 20]);
        img.set(1, 0, [100, 30, 40]);
        let s = img.sample_bilinear(0.5, 0.0).unwrap();
        assert_eq!(s, [50.0, 20.0, 30.0]);
    }

    #[test]
    fn crop_matches_source() {
        let img = RgbImage::from_fn(5, 5, |x, y| [x as u8, y as u8, 7]);
        let c = img.crop(1, 2, 3, 2).unwrap();
        assert_eq!(c.get(0, 0), img.get(1, 2));
        assert_eq!(c.get(2, 1), img.get(3, 3));
        assert!(img.crop(4, 4, 2, 2).is_none());
    }

    /// The per-pixel luma formula, written out independently of the
    /// row loop the levels share.
    fn luma_oracle(img: &RgbImage) -> GrayImage {
        GrayImage::from_fn(img.width(), img.height(), |x, y| {
            let [r, g, b] = img.get(x, y).unwrap().map(u32::from);
            ((r * 306 + g * 601 + b * 117 + 512) >> 10) as u8
        })
    }

    #[test]
    fn to_gray_into_matches_to_gray_and_reuses_buffer() {
        let img = RgbImage::from_fn(7, 5, |x, y| [x as u8, (y * 3) as u8, (x * y) as u8]);
        let mut out = GrayImage::from_fn(9, 9, |_, _| 42);
        let grew = img.to_gray_into(&mut out);
        assert!(!grew, "81-pixel buffer must absorb a 35-pixel result");
        assert_eq!(out, img.to_gray());
        // Every available level on widths around the vector widths, on
        // random bytes with both extremes forced in; then every channel
        // value at every channel position, and the corners of the
        // colour cube. One buffer serves every size, so each call also
        // resizes a dirty destination.
        let mut rng = vs_rng::SplitMix64::new(0x6EA7_DEC0);
        let mut images: Vec<RgbImage> = [(1, 3), (2, 2), (3, 4), (31, 3), (33, 5), (1919, 2)]
            .into_iter()
            .map(|(w, h)| {
                let mut img = RgbImage::from_fn(w, h, |_, _| {
                    std::array::from_fn(|_| rng.gen_range(0u32..256) as u8)
                });
                let bytes = img.as_bytes_mut();
                bytes[0] = 0;
                bytes[w * h * 3 - 1] = 255;
                img
            })
            .collect();
        images.push(RgbImage::from_fn(256, 3, |x, y| {
            let mut p = [255 - x as u8; 3];
            p[y] = x as u8;
            p
        }));
        images.push(RgbImage::from_fn(8, 1, |x, _| {
            std::array::from_fn(|c| if x >> c & 1 == 1 { 255 } else { 0 })
        }));
        for img in &images {
            let want = luma_oracle(img);
            for level in crate::SimdLevel::ALL.into_iter().filter(|l| l.available()) {
                img.to_gray_into_level(&mut out, level);
                assert_eq!(out, want, "{img:?} level {level}");
            }
        }
    }

    #[test]
    fn crop_into_matches_crop() {
        let img = RgbImage::from_fn(5, 5, |x, y| [x as u8, y as u8, 7]);
        let mut out = RgbImage::new(8, 8);
        assert!(img.crop_into(1, 2, 3, 2, &mut out));
        assert_eq!(Some(out.clone()), img.crop(1, 2, 3, 2));
        assert!(!img.crop_into(4, 4, 2, 2, &mut out));
        assert_eq!(out.width(), 3, "failed crop must leave the target alone");
    }

    #[test]
    fn try_reset_reuses_capacity() {
        let mut img = RgbImage::from_fn(4, 4, |_, _| [1, 2, 3]);
        assert!(!img.try_reset(2, 2).unwrap());
        assert!(img.as_bytes().iter().all(|&v| v == 0));
        assert!(img.try_reset(8, 8).unwrap());
        assert!(img.try_reset(usize::MAX, 3).is_none());
    }

    #[test]
    fn try_new_caps_allocation() {
        assert!(RgbImage::try_new(1 << 15, 1 << 15).is_none());
        assert!(RgbImage::try_new(64, 64).is_some());
    }

    #[test]
    fn clamped_reads() {
        let img = RgbImage::from_fn(2, 2, |x, y| [(x * 2 + y) as u8, 0, 0]);
        assert_eq!(img.get_clamped(-1, -1), img.get(0, 0).unwrap());
        assert_eq!(img.get_clamped(5, 5), img.get(1, 1).unwrap());
    }
}
