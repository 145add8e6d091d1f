//! Panorama canvas: accumulates warped frames in a shared world frame.
//!
//! All frames of a mini-panorama are aligned to the first frame's
//! coordinate system (§III-A: "we align every frame to the first ...").
//! The canvas covers the union of all transformed frame bounds; each
//! frame is warped into its window and composited with later-frame-
//! overwrites blending. That overwrite is the mechanism behind the
//! compositional masking of Fig 11b: an SDC in one warped frame can be
//! painted over by the next frame. Outside fault sessions the same
//! overwrite composites can run last frame first
//! ([`Canvas::paint_overwrites`]), so no pixel a later frame covers is
//! sampled at all.

use crate::simd::remap_span_bytes;
use crate::{checked_inverse, warp_perspective_offset_into, WarpScratch, MAX_WARP_PIXELS};
use std::ops::Range;
use vs_fault::{tap, FuncId, OpClass, SimError};
use vs_geometry::transform::{transformed_bounds, Bounds};
use vs_image::{GrayImage, RgbImage};
use vs_linalg::{Mat3, Vec2};
use vs_telemetry::digest::Stage;

/// Pixels [`Canvas::paint_overwrites`] widens each frame's footprint
/// window by on every side, against rounding in the corner projection.
const WINDOW_MARGIN: f64 = 2.0;

/// How overlapping frames are combined on the canvas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlendMode {
    /// Later frames overwrite earlier pixels (the paper's behaviour —
    /// and the mechanism behind Fig 11b's compositional masking).
    #[default]
    Overwrite,
    /// Overlapping pixels are averaged, softening seams. Reduces the
    /// paint-over masking effect (see the blend-mode ablation).
    Feather,
}

/// Per-composite options (all default to the paper's behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CompositeOptions {
    /// Blending policy for overlapping pixels.
    pub blend: BlendMode,
}

/// The canvas pixels one composite wrote, with their values after it: a
/// render checkpoint's record of the canvas so far costs only these
/// bytes, not a whole-canvas copy (see [`Canvas::written_by`] and
/// [`Canvas::apply`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CanvasPatch {
    /// `(first pixel index, pixel count)` of each run of written pixels,
    /// in raster order.
    runs: Vec<(usize, usize)>,
    /// RGB bytes of the written pixels, run after run.
    rgb: Vec<u8>,
}

/// A panorama accumulation surface.
#[derive(Debug, Clone, PartialEq)]
pub struct Canvas {
    image: RgbImage,
    mask: GrayImage,
    origin: Vec2,
}

impl Default for Canvas {
    /// An empty 0×0 canvas — the natural seed for a reusable canvas
    /// that is [`Canvas::reset`] before each use.
    fn default() -> Self {
        Canvas {
            image: RgbImage::default(),
            mask: GrayImage::default(),
            origin: Vec2::ZERO,
        }
    }
}

impl Canvas {
    /// Allocate a canvas covering `bounds` (world coordinates).
    ///
    /// # Errors
    ///
    /// [`SimError::Abort`] when the bounds are non-finite, inverted, or
    /// exceed [`MAX_WARP_PIXELS`] — the library-allocation constraint
    /// that fault-corrupted homographies trip.
    pub fn new(bounds: &Bounds) -> Result<Canvas, SimError> {
        let mut canvas = Canvas {
            image: RgbImage::default(),
            mask: GrayImage::default(),
            origin: Vec2::ZERO,
        };
        canvas.reset(bounds)?;
        Ok(canvas)
    }

    /// Re-target this canvas at `bounds`, reusing its pixel buffers
    /// (zero-filled, exactly as a fresh allocation would be).
    ///
    /// # Errors
    ///
    /// As [`Canvas::new`]; on error the canvas is left in an unspecified
    /// (but valid) state.
    pub fn reset(&mut self, bounds: &Bounds) -> Result<(), SimError> {
        let (w, h) = bounds.pixel_size().ok_or(SimError::Abort)?;
        if w.checked_mul(h).is_none_or(|p| p > MAX_WARP_PIXELS) {
            return Err(SimError::Abort);
        }
        self.image.try_reset(w, h).ok_or(SimError::Abort)?;
        self.mask.try_reset(w, h).ok_or(SimError::Abort)?;
        self.origin = bounds.min;
        Ok(())
    }

    /// Total heap footprint of the canvas buffers, in bytes.
    pub fn footprint(&self) -> usize {
        self.image.capacity() + self.mask.capacity()
    }

    /// The pixels the last [`Canvas::composite_scratch`] into this canvas
    /// with `warp` wrote, with their values now. Call it right after that
    /// composite: the written pixels are the ones `warp`'s coverage mask
    /// marks.
    ///
    /// # Panics
    ///
    /// Panics if `warp` does not hold a composite of this canvas's size.
    pub fn written_by(&self, warp: &WarpScratch) -> CanvasPatch {
        let written = warp.mask.as_bytes();
        assert_eq!(
            written.len(),
            self.mask.as_bytes().len(),
            "warp scratch holds no composite of this canvas"
        );
        let rgb = self.image.as_bytes();
        let pixels = written.iter().filter(|&&m| m == 255).count();
        let mut patch = CanvasPatch {
            runs: Vec::new(),
            rgb: Vec::with_capacity(3 * pixels),
        };
        let mut i = 0;
        while i < written.len() {
            if written[i] != 255 {
                i += 1;
                continue;
            }
            let start = i;
            while i < written.len() && written[i] == 255 {
                i += 1;
            }
            patch.runs.push((start, i - start));
            patch.rgb.extend_from_slice(&rgb[3 * start..3 * i]);
        }
        patch.runs.shrink_to_fit();
        patch
    }

    /// Replay a recorded patch: write its pixels and mark them covered.
    /// Applying a segment's patches in order to a canvas freshly
    /// [`Canvas::reset`] to the segment's bounds rebuilds the canvas as
    /// composited.
    ///
    /// # Panics
    ///
    /// Panics if the patch does not fit this canvas (it was recorded on a
    /// canvas of another size).
    pub fn apply(&mut self, patch: &CanvasPatch) {
        let mut at = 0;
        let image = self.image.as_bytes_mut();
        let mask = self.mask.as_bytes_mut();
        for &(start, len) in &patch.runs {
            image[3 * start..3 * (start + len)].copy_from_slice(&patch.rgb[at..at + 3 * len]);
            mask[start..start + len].fill(255);
            at += 3 * len;
        }
    }

    /// World coordinate of canvas pixel `(0, 0)`.
    pub fn origin(&self) -> Vec2 {
        self.origin
    }

    /// The composited panorama so far.
    pub fn image(&self) -> &RgbImage {
        &self.image
    }

    /// Coverage mask (255 where any frame contributed).
    pub fn mask(&self) -> &GrayImage {
        &self.mask
    }

    /// Fraction of canvas pixels covered by at least one frame.
    pub fn coverage(&self) -> f64 {
        if self.mask.is_empty() {
            return 0.0;
        }
        let covered = self.mask.as_bytes().iter().filter(|&&m| m != 0).count();
        covered as f64 / self.mask.as_bytes().len() as f64
    }

    /// Warp `src` by `h` (source → world) and composite it, overwriting
    /// previously painted pixels where the new frame has coverage.
    ///
    /// # Errors
    ///
    /// * [`SimError::Abort`] — degenerate transform or oversized window.
    /// * Propagates faults from the warp kernel.
    pub fn composite(&mut self, src: &RgbImage, h: &Mat3) -> Result<(), SimError> {
        self.composite_with(src, h, &CompositeOptions::default())
    }

    /// [`Canvas::composite`] with explicit blending options.
    ///
    /// # Errors
    ///
    /// As [`Canvas::composite`].
    pub fn composite_with(
        &mut self,
        src: &RgbImage,
        h: &Mat3,
        opts: &CompositeOptions,
    ) -> Result<(), SimError> {
        self.composite_scratch(src, h, opts, &mut WarpScratch::default())
    }

    /// [`Canvas::composite_with`] with a caller-owned warp workspace —
    /// the allocation-free form. Tap stream and pixels are bit-identical.
    ///
    /// # Errors
    ///
    /// As [`Canvas::composite`].
    pub fn composite_scratch(
        &mut self,
        src: &RgbImage,
        h: &Mat3,
        opts: &CompositeOptions,
        warp: &mut WarpScratch,
    ) -> Result<(), SimError> {
        // Telemetry-only stage span (no taps) around warp and blend;
        // near-free without a sink.
        let _stage = vs_telemetry::span(Stage::Warp.name());
        // Degenerate-transform check (the native library asserts here).
        let _ = transformed_bounds(h, src.width(), src.height()).ok_or(SimError::Abort)?;
        // Paper-faithful cost structure: like OpenCV's `warpPerspective`
        // with `dsize` = panorama size, every frame is warped across the
        // ENTIRE canvas. Tapped runs (golden profiles, every campaign
        // pilot) composite this way, which is what makes the warp pair
        // dominate the execution profile (Fig 8) and what makes the
        // stitching cost effectively polynomial in accepted frames
        // (§IV-A): fewer or smaller panoramas save panorama-sized work
        // per frame. Untapped summaries reach the same pixels through
        // `paint_overwrites`, which samples each pixel once.
        let (win_w, win_h) = (self.image.width(), self.image.height());
        warp_perspective_offset_into(
            src,
            h,
            win_w,
            win_h,
            self.origin,
            &mut warp.patch,
            &mut warp.mask,
        )?;
        let (patch, patch_mask) = (&warp.patch, &warp.mask);

        let _f = tap::scope(FuncId::Blend);
        let w = self.image.width();
        let len = self.mask.as_bytes().len();
        let feather = opts.blend == BlendMode::Feather;
        for row in 0..win_h {
            tap::work(OpClass::Mem, 4 * win_w as u64)?;
            tap::work(OpClass::IntAlu, 2 * win_w as u64)?;
            tap::work(OpClass::Control, win_w as u64)?;
            // Address tap on the canvas row base of the store stream.
            // The canvas is row-major, so patch row `row` is stored as
            // `w` consecutive pixels from that base: canvas row `row`
            // when the base is intact (every row off-session), a run
            // shifted across row boundaries when a fault corrupted it.
            // Every blend mode writes the run through row slices, up to
            // the end of the canvas; a covered pixel past it segfaults.
            let canvas_row = tap::addr(row * w);
            let fit = len.saturating_sub(canvas_row).min(w);
            let (at, to) = (row * w, canvas_row.min(len));
            let covered = &patch_mask.as_bytes()[at..at + w];
            let src = &patch.as_bytes()[3 * at..3 * (at + fit)];
            let mask = &mut self.mask.as_bytes_mut()[to..to + fit];
            let dst = &mut self.image.as_bytes_mut()[3 * to..3 * (to + fit)];
            let pixels = src.chunks_exact(3).zip(dst.chunks_exact_mut(3));
            for ((&m, k), (s, d)) in covered[..fit].iter().zip(mask).zip(pixels) {
                if m == 255 {
                    let old = (feather && *k == 255).then(|| pixel(d));
                    d.copy_from_slice(&blend(pixel(s), old));
                    *k = 255;
                }
            }
            if covered[fit..].contains(&255) {
                return Err(SimError::Segfault);
            }
        }
        Ok(())
    }

    /// Composite `items` — `(index into frames, transform)` pairs — with
    /// [`BlendMode::Overwrite`], leaving the canvas exactly as
    /// consecutive [`Canvas::composite_scratch`] calls would, but
    /// painting **last frame first**: each frame samples only
    /// the pixels no later frame has painted, so every canvas pixel is
    /// sampled once, by the last frame that covers it.
    ///
    /// Every item is checked in order before any pixel is painted, with
    /// [`Canvas::composite_scratch`]'s checks in its order, so a list
    /// that would abort part-way returns the same error and paints
    /// nothing. The painted set lives in `warp`'s mask (its patch buffer
    /// is never touched), apart from the canvas mask, so content already
    /// on the canvas — a segment rebuilt from its
    /// [`CanvasPatch`] chain — is overwritten wherever a frame covers it.
    /// Each composite is one `warp` stage span and one `warp` event, in
    /// paint order, as on the sequential path.
    ///
    /// The pixels are bit-identical at every `level`: AVX2 samples
    /// through the four-lane sampler, any other level through the SSE2
    /// coordinate path. Tap-free, so it belongs outside instrumentation
    /// sessions, where taps are pass-throughs.
    ///
    /// # Errors
    ///
    /// * [`SimError::Segfault`] — an item's frame index is out of range
    ///   (the frame-pointer dereference the render loop models).
    /// * [`SimError::Abort`] — as [`Canvas::composite`], for the first
    ///   failing item.
    pub fn paint_overwrites(
        &mut self,
        frames: &[RgbImage],
        items: &[(usize, Mat3)],
        warp: &mut WarpScratch,
        level: vs_image::SimdLevel,
    ) -> Result<(), SimError> {
        assert!(
            !vs_fault::session::active(),
            "paint_overwrites skips the fault taps: call it outside sessions"
        );
        let (w, h) = (self.image.width(), self.image.height());
        let checked = |&(idx, ref m): &(usize, Mat3)| {
            let src = frames.get(idx).ok_or(SimError::Segfault)?;
            let _ = transformed_bounds(m, src.width(), src.height()).ok_or(SimError::Abort)?;
            checked_inverse(src, m, w, h).map(|inv| (src, inv))
        };
        for item in items {
            checked(item)?;
        }
        warp.mask.try_reset(w, h).ok_or(SimError::Abort)?;
        let wide = level == vs_image::SimdLevel::Avx2;
        for item in items.iter().rev() {
            let _stage = vs_telemetry::span(Stage::Warp.name());
            let (src, inv) = checked(item)?;
            let (cols, rows) = self.footprint_window(&item.1, src);
            if !cols.is_empty() && !rows.is_empty() {
                let dst = &mut self.image.as_bytes_mut()[3 * rows.start * w..3 * rows.end * w];
                let painted = &mut warp.mask.as_bytes_mut()[rows.start * w..rows.end * w];
                remap_span_bytes(src, &inv, dst, painted, w, self.origin, rows, cols, wide)?;
            }
            crate::emit_warp(w * h);
        }
        for (k, &p) in self
            .mask
            .as_bytes_mut()
            .iter_mut()
            .zip(warp.mask.as_bytes())
        {
            *k |= p;
        }
        Ok(())
    }

    /// The canvas window `(columns, rows)` outside which no pixel of
    /// `src` warped by `h` can land: the bounding box of `h` applied to
    /// the corners of the source rectangle the remap accepts,
    /// [−1, sw] × [−1, sh], widened by [`WINDOW_MARGIN`] pixels against
    /// rounding and clamped to the canvas. A pixel outside it fails the
    /// remap's own range test, so walking only the window writes the
    /// same bytes.
    ///
    /// The box bounds the footprint when `h`'s divisor keeps one sign
    /// over that rectangle, which its four corners decide, since the
    /// divisor is affine in x and y: the image of any of its points is
    /// then a convex combination of the corners' images, and a canvas
    /// pixel the remap accepts is the image of the source point it
    /// samples. That holds for every affine item. Any other item gets
    /// the whole canvas.
    fn footprint_window(&self, h: &Mat3, src: &RgbImage) -> (Range<usize>, Range<usize>) {
        let (w, ht) = (self.image.width(), self.image.height());
        let whole = (0..w, 0..ht);
        let (sw, sh) = (src.width() as f64, src.height() as f64);
        let [.., h6, h7, h8] = h.to_rows();
        let rect = [(-1.0, -1.0), (sw, -1.0), (sw, sh), (-1.0, sh)];
        let divisors = rect.map(|(x, y)| h6 * x + h7 * y + h8);
        if !(divisors.iter().all(|&v| v > 0.0) || divisors.iter().all(|&v| v < 0.0)) {
            return whole;
        }
        let (x0, y0) = (self.origin.x, self.origin.y);
        let mut projected = [Vec2::ZERO; 4];
        for (p, (x, y)) in projected.iter_mut().zip(rect) {
            match h.apply(Vec2::new(x, y)) {
                Some(q) => *p = q,
                None => return whole,
            }
        }
        let Some(b) = Bounds::of_points(&projected) else {
            return whole;
        };
        // Pixel i sits at world x0 + i; clamp in f64, then cast.
        let span = |lo: f64, hi: f64, n: usize| {
            let first = (lo - WINDOW_MARGIN).floor().clamp(0.0, n as f64) as usize;
            let end = (hi + WINDOW_MARGIN).ceil().clamp(-1.0, n as f64 - 1.0) + 1.0;
            first..(end as usize).max(first)
        };
        (
            span(b.min.x - x0, b.max.x - x0, w),
            span(b.min.y - y0, b.max.y - y0, ht),
        )
    }

    /// Crop the canvas to the bounding box of covered pixels.
    ///
    /// Returns `None` when nothing was composited.
    pub fn crop_to_content(&self) -> Option<RgbImage> {
        self.crop_to_content_with_origin().map(|(img, _)| img)
    }

    /// Like [`Canvas::crop_to_content`], additionally returning the world
    /// coordinate of the cropped image's pixel `(0, 0)` — needed to map
    /// world-frame annotations (e.g. object tracks) onto the panorama.
    pub fn crop_to_content_with_origin(&self) -> Option<(RgbImage, Vec2)> {
        let mut img = RgbImage::default();
        let origin = self.crop_to_content_into(&mut img)?;
        Some((img, origin))
    }

    /// [`Canvas::crop_to_content_with_origin`] into a caller-owned image
    /// (reusing its buffer), returning the world coordinate of the
    /// cropped image's pixel `(0, 0)`. `out` is untouched when nothing
    /// was composited.
    pub fn crop_to_content_into(&self, out: &mut RgbImage) -> Option<Vec2> {
        let w = self.image.width();
        if w == 0 {
            return None;
        }
        // Each row's first and last covered pixel bound its coverage.
        let (mut min_x, mut min_y, mut max_x, mut max_y) = (w, None, 0, 0);
        for (y, row) in self.mask.as_bytes().chunks_exact(w).enumerate() {
            let Some(first) = row.iter().position(|&m| m == 255) else {
                continue;
            };
            let last = row.iter().rposition(|&m| m == 255).unwrap_or(first);
            min_y.get_or_insert(y);
            (min_x, max_x, max_y) = (min_x.min(first), max_x.max(last), y);
        }
        let min_y = min_y?;
        if !self
            .image
            .crop_into(min_x, min_y, max_x - min_x + 1, max_y - min_y + 1, out)
        {
            return None;
        }
        Some(Vec2::new(
            self.origin.x + min_x as f64,
            self.origin.y + min_y as f64,
        ))
    }
}

/// The first three bytes of `b` as a pixel.
fn pixel(b: &[u8]) -> [u8; 3] {
    [b[0], b[1], b[2]]
}

/// A patch pixel as it lands on the canvas: averaged with the covered
/// canvas pixel `old` when feathering.
#[inline(always)]
fn blend(mut p: [u8; 3], old: Option<[u8; 3]>) -> [u8; 3] {
    if let Some(old) = old {
        for (pc, oc) in p.iter_mut().zip(old) {
            *pc = ((*pc as u16 + oc as u16) / 2) as u8;
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_linalg::Vec2;

    fn bounds(x0: f64, y0: f64, x1: f64, y1: f64) -> Bounds {
        Bounds::of_points(&[Vec2::new(x0, y0), Vec2::new(x1, y1)]).unwrap()
    }

    fn solid(w: usize, h: usize, p: [u8; 3]) -> RgbImage {
        RgbImage::from_fn(w, h, |_, _| p)
    }

    #[test]
    fn canvas_rejects_absurd_bounds() {
        assert_eq!(
            Canvas::new(&bounds(0.0, 0.0, 1e9, 1e9)).unwrap_err(),
            SimError::Abort
        );
        let inverted = Bounds {
            min: Vec2::new(10.0, 10.0),
            max: Vec2::new(0.0, 0.0),
        };
        assert_eq!(Canvas::new(&inverted).unwrap_err(), SimError::Abort);
    }

    #[test]
    fn composite_at_identity_paints_frame() {
        let mut c = Canvas::new(&bounds(0.0, 0.0, 40.0, 30.0)).unwrap();
        c.composite(&solid(20, 15, [9, 9, 9]), &Mat3::IDENTITY)
            .unwrap();
        assert_eq!(c.image().get(5, 5), Some([9, 9, 9]));
        assert_eq!(c.mask().get(25, 20), Some(0));
        assert!(c.coverage() > 0.1 && c.coverage() < 0.5);
    }

    #[test]
    fn later_frames_overwrite_earlier() {
        let mut c = Canvas::new(&bounds(0.0, 0.0, 30.0, 30.0)).unwrap();
        c.composite(&solid(20, 20, [10, 0, 0]), &Mat3::IDENTITY)
            .unwrap();
        c.composite(&solid(20, 20, [0, 20, 0]), &Mat3::translation(5.0, 5.0))
            .unwrap();
        // Overlap region takes the second frame.
        assert_eq!(c.image().get(10, 10), Some([0, 20, 0]));
        // Non-overlapping part of the first frame survives.
        assert_eq!(c.image().get(2, 2), Some([10, 0, 0]));
    }

    #[test]
    fn negative_origin_places_frames_correctly() {
        let mut c = Canvas::new(&bounds(-10.0, -10.0, 20.0, 20.0)).unwrap();
        c.composite(&solid(5, 5, [77, 0, 0]), &Mat3::translation(-10.0, -10.0))
            .unwrap();
        assert_eq!(c.image().get(0, 0), Some([77, 0, 0]));
        assert_eq!(c.origin(), Vec2::new(-10.0, -10.0));
    }

    #[test]
    fn off_canvas_frames_are_ignored() {
        let mut c = Canvas::new(&bounds(0.0, 0.0, 10.0, 10.0)).unwrap();
        c.composite(&solid(4, 4, [5, 5, 5]), &Mat3::translation(100.0, 100.0))
            .unwrap();
        assert_eq!(c.coverage(), 0.0);
    }

    #[test]
    fn crop_to_content_tightens() {
        let mut c = Canvas::new(&bounds(0.0, 0.0, 50.0, 50.0)).unwrap();
        c.composite(&solid(8, 6, [3, 3, 3]), &Mat3::translation(10.0, 20.0))
            .unwrap();
        let cropped = c.crop_to_content().unwrap();
        // Bilinear border bleed can extend coverage by ~1px per side.
        assert!(
            (7..=10).contains(&cropped.width()),
            "width {}",
            cropped.width()
        );
        assert!(
            (5..=8).contains(&cropped.height()),
            "height {}",
            cropped.height()
        );
        assert_eq!(cropped.get(2, 2), Some([3, 3, 3]));
        // A mask with holes: several runs per row, uncovered rows between
        // covered ones, and a lone pixel that alone sets the right edge.
        for (x, y) in [(2.0, 20.0), (30.0, 22.0), (12.0, 40.0)] {
            c.composite(&solid(4, 3, [5, 5, 5]), &Mat3::translation(x, y))
                .unwrap();
        }
        c.mask.set(47, 30, 255);
        let covered: Vec<(usize, usize)> = (0..c.mask.height())
            .flat_map(|y| (0..c.mask.width()).map(move |x| (x, y)))
            .filter(|&(x, y)| c.mask.get(x, y) == Some(255))
            .collect();
        let x0 = covered.iter().map(|p| p.0).min().unwrap();
        let x1 = covered.iter().map(|p| p.0).max().unwrap();
        let y0 = covered.iter().map(|p| p.1).min().unwrap();
        let y1 = covered.iter().map(|p| p.1).max().unwrap();
        assert_eq!(x1, 47);
        let (img, origin) = c.crop_to_content_with_origin().unwrap();
        assert_eq!(origin, Vec2::new(x0 as f64, y0 as f64));
        let mut want = RgbImage::default();
        assert!(c
            .image
            .crop_into(x0, y0, x1 - x0 + 1, y1 - y0 + 1, &mut want));
        assert_eq!(img, want);
    }

    #[test]
    fn empty_canvas_has_no_content() {
        let c = Canvas::new(&bounds(0.0, 0.0, 10.0, 10.0)).unwrap();
        assert!(c.crop_to_content().is_none());
    }

    #[test]
    fn feather_blend_averages_overlap() {
        let mut c = Canvas::new(&bounds(0.0, 0.0, 20.0, 20.0)).unwrap();
        let opts = CompositeOptions {
            blend: BlendMode::Feather,
        };
        c.composite_with(&solid(10, 10, [100, 0, 0]), &Mat3::IDENTITY, &opts)
            .unwrap();
        c.composite_with(&solid(10, 10, [200, 0, 0]), &Mat3::IDENTITY, &opts)
            .unwrap();
        assert_eq!(
            c.image().get(5, 5),
            Some([150, 0, 0]),
            "overlap must average"
        );
    }

    #[test]
    fn overwrite_default_is_unchanged_by_options_struct() {
        let frame = solid(10, 10, [33, 44, 55]);
        let mut a = Canvas::new(&bounds(0.0, 0.0, 20.0, 20.0)).unwrap();
        a.composite(&frame, &Mat3::IDENTITY).unwrap();
        let mut b = Canvas::new(&bounds(0.0, 0.0, 20.0, 20.0)).unwrap();
        b.composite_with(&frame, &Mat3::IDENTITY, &CompositeOptions::default())
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn reset_and_scratch_composite_match_fresh() {
        let frame = solid(10, 10, [33, 44, 55]);
        let mut fresh = Canvas::new(&bounds(0.0, 0.0, 20.0, 20.0)).unwrap();
        fresh.composite(&frame, &Mat3::IDENTITY).unwrap();
        // Dirty the reused canvas with unrelated content first, then
        // re-target it: the result must be indistinguishable from new.
        let mut reused = Canvas::new(&bounds(0.0, 0.0, 40.0, 25.0)).unwrap();
        reused
            .composite(&frame, &Mat3::translation(3.0, 3.0))
            .unwrap();
        let mut warp = WarpScratch::default();
        reused.reset(&bounds(0.0, 0.0, 20.0, 20.0)).unwrap();
        reused
            .composite_scratch(
                &frame,
                &Mat3::IDENTITY,
                &CompositeOptions::default(),
                &mut warp,
            )
            .unwrap();
        assert_eq!(fresh, reused);
        let mut out = RgbImage::default();
        let origin = reused.crop_to_content_into(&mut out).unwrap();
        let (img, origin_fresh) = fresh.crop_to_content_with_origin().unwrap();
        assert_eq!(out, img);
        assert_eq!(origin, origin_fresh);
        // Steady state: repeating the same work must not grow buffers.
        let fp = reused.footprint() + warp.footprint();
        reused.reset(&bounds(0.0, 0.0, 20.0, 20.0)).unwrap();
        reused
            .composite_scratch(
                &frame,
                &Mat3::IDENTITY,
                &CompositeOptions::default(),
                &mut warp,
            )
            .unwrap();
        assert_eq!(reused.footprint() + warp.footprint(), fp);
    }

    #[test]
    fn patch_chain_rebuilds_every_composite() {
        let frames = tilted_frames();
        let area = bounds(-3.0, -3.0, 45.0, 32.0);
        for opts in ALL_OPTS {
            let mut canvas = Canvas::new(&area).unwrap();
            let mut warp = WarpScratch::default();
            let mut patches = Vec::new();
            // A dirty canvas of another size, re-targeted before each
            // replay, as a resumed campaign run's workspace would be.
            let mut replayed = Canvas::new(&bounds(0.0, 0.0, 7.0, 9.0)).unwrap();
            for (img, h) in &frames {
                canvas.composite_scratch(img, h, &opts, &mut warp).unwrap();
                patches.push(canvas.written_by(&warp));
                replayed.reset(&area).unwrap();
                for p in &patches {
                    replayed.apply(p);
                }
                assert_eq!(
                    replayed,
                    canvas,
                    "{opts:?} after {} composites",
                    patches.len()
                );
            }
            // The chain costs less than one whole canvas per composite.
            let chain: usize = patches
                .iter()
                .map(|p| 16 * p.runs.len() + p.rgb.len())
                .sum();
            assert!(chain < patches.len() * canvas.footprint());
        }
    }

    /// Overlapping frames of different brightness on a tilted path, so
    /// every composite overwrites or blends earlier ones.
    fn tilted_frames() -> Vec<(RgbImage, Mat3)> {
        (0..5u8)
            .map(|k| {
                let img = RgbImage::from_fn(18, 14, |x, y| {
                    [40 + 30 * k, (x * 9) as u8, (y * 11) as u8 ^ (k * 17)]
                });
                let h = Mat3::translation(4.0 * k as f64, 2.5 * k as f64)
                    * Mat3::rotation(0.04 * k as f64);
                (img, h)
            })
            .collect()
    }

    const ALL_OPTS: [CompositeOptions; 2] = [
        CompositeOptions {
            blend: BlendMode::Overwrite,
        },
        CompositeOptions {
            blend: BlendMode::Feather,
        },
    ];

    /// Per-pixel reference for the blend of `warp` onto `before`: each
    /// covered pixel of patch row `r` is stored at canvas index
    /// `base(r) + col`, split into `(idx % w, idx / w)`.
    fn reference_blend(
        before: &Canvas,
        warp: &WarpScratch,
        opts: &CompositeOptions,
        base: impl Fn(usize) -> usize,
    ) -> Result<Canvas, SimError> {
        let mut out = before.clone();
        let (w, h) = (out.image.width(), out.image.height());
        for row in 0..h {
            for col in 0..w {
                if warp.mask.get(col, row) != Some(255) {
                    continue;
                }
                let mut p = warp.patch.get(col, row).unwrap();
                let idx = base(row) + col;
                let (x, y) = (idx % w, idx / w);
                if y >= h {
                    return Err(SimError::Segfault);
                }
                if opts.blend == BlendMode::Feather && out.mask.get(x, y) == Some(255) {
                    let old = out.image.get(x, y).unwrap();
                    for c in 0..3 {
                        p[c] = ((u16::from(p[c]) + u16::from(old[c])) / 2) as u8;
                    }
                }
                out.image.set(x, y, p);
                out.mask.set(x, y, 255);
            }
        }
        Ok(out)
    }

    #[test]
    fn row_slice_blend_matches_per_pixel_reference() {
        let area = bounds(-3.0, -3.0, 45.0, 32.0);
        for opts in ALL_OPTS {
            let mut canvas = Canvas::new(&area).unwrap();
            let mut warp = WarpScratch::default();
            for (img, h) in &tilted_frames() {
                let before = canvas.clone();
                canvas.composite_scratch(img, h, &opts, &mut warp).unwrap();
                let w = canvas.image.width();
                let want = reference_blend(&before, &warp, &opts, |r| r * w).unwrap();
                assert_eq!(canvas, want, "{opts:?}");
            }
        }
    }

    /// A fault on one row base of the blend's store stream moves that
    /// row's stores as the per-pixel reference does: a low bit shifts
    /// them (wrapping across rows), a high bit sends them off the canvas.
    #[test]
    fn corrupted_row_base_matches_per_pixel_reference() {
        use vs_fault::{session, FaultSpec, FuncMask, RegClass};
        let area = bounds(-3.0, -3.0, 45.0, 32.0);
        let frames = tilted_frames();
        let row = 12;
        for opts in ALL_OPTS {
            for bit in [0u8, 1, 3, 40] {
                let mut canvas = Canvas::new(&area).unwrap();
                let w = canvas.image.width();
                for (img, h) in &frames[..3] {
                    canvas.composite_with(img, h, &opts).unwrap();
                }
                let before = canvas.clone();
                let mut warp = WarpScratch::default();
                let spec = FaultSpec {
                    group: Some((FuncId::Blend, OpClass::Addr)),
                    ..FaultSpec::new(RegClass::Gpr, row as u64, bit)
                };
                let got = {
                    let _s = session::begin_injection(spec, FuncMask::all(), u64::MAX);
                    let (img, h) = &frames[3];
                    let got = canvas.composite_scratch(img, h, &opts, &mut warp);
                    let fired = session::fired().expect("fault never fired");
                    assert_eq!(fired.before, (row * w) as u64);
                    got
                };
                let want = reference_blend(&before, &warp, &opts, |r| {
                    if r == row {
                        (r * w) ^ (1 << bit)
                    } else {
                        r * w
                    }
                });
                if bit < 32 {
                    assert_eq!(got, Ok(()), "{opts:?} bit {bit}");
                    assert_eq!(Ok(&canvas), want.as_ref(), "{opts:?} bit {bit}");
                    assert_ne!(
                        canvas,
                        reference_blend(&before, &warp, &opts, |r| r * w).unwrap()
                    );
                } else {
                    assert_eq!(got, Err(SimError::Segfault), "{opts:?} bit {bit}");
                    assert_eq!(want.unwrap_err(), SimError::Segfault);
                }
            }
        }
    }

    /// Runs `items` through sequential Overwrite [`Canvas::composite_scratch`]
    /// calls and through the painter at both vector levels, from the same
    /// `start` canvas: results must agree, the canvases must be equal, a
    /// failing list must leave the painted canvas untouched, and the
    /// painter must never grow the patch buffer. Returns the sequential
    /// canvas.
    fn assert_paints_like_sequential(
        start: &Canvas,
        frames: &[RgbImage],
        items: &[(usize, Mat3)],
    ) -> Canvas {
        use vs_image::SimdLevel;
        let mut want = start.clone();
        let mut warp = WarpScratch::default();
        let opts = CompositeOptions::default();
        let seq = items.iter().try_for_each(|&(i, h)| {
            let src = frames.get(i).ok_or(SimError::Segfault)?;
            want.composite_scratch(src, &h, &opts, &mut warp)
        });
        for level in [SimdLevel::Sse2, SimdLevel::Avx2] {
            if !level.available() {
                continue;
            }
            let mut got = start.clone();
            let mut warp = WarpScratch::default();
            let painted = got.paint_overwrites(frames, items, &mut warp, level);
            assert_eq!(painted, seq, "{level}: result");
            if seq.is_ok() {
                assert_eq!(got, want, "{level}: canvas");
            } else {
                assert_eq!(&got, start, "{level}: painted before failing");
            }
            assert_eq!(warp.patch.capacity(), 0, "{level}: patch buffer touched");
        }
        want
    }

    #[test]
    fn painter_matches_sequential_overwrites() {
        let area = bounds(-3.0, -3.0, 45.0, 32.0);
        let (frames, hs): (Vec<RgbImage>, Vec<Mat3>) = tilted_frames().into_iter().unzip();
        let items: Vec<(usize, Mat3)> = hs.into_iter().enumerate().collect();
        let fresh = Canvas::new(&area).unwrap();
        let all = assert_paints_like_sequential(&fresh, &frames, &items);
        assert!(all.coverage() > 0.3);
        // Projective, off-canvas and constant-divisor (|c| < 1e-12, so
        // the warp samples nothing) items among the tilted ones.
        let projective = Mat3::from_rows([1.0, 0.05, 2.0, -0.03, 0.9, 1.0, 0.004, -0.003, 1.0]);
        let off_canvas = Mat3::translation(500.0, -400.0);
        let tiny_divisor = Mat3::from_rows([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1e13]);
        let c = tiny_divisor.inverse().unwrap().to_rows()[8];
        assert!(c != 0.0 && c.abs() < 1e-12, "divisor {c}");
        let mut mixed = items.clone();
        mixed.insert(1, (2, projective));
        mixed.insert(3, (0, off_canvas));
        mixed.push((4, tiny_divisor));
        let painted = assert_paints_like_sequential(&fresh, &frames, &mixed);
        for (i, h) in [(2, projective), (0, off_canvas), (4, tiny_divisor)] {
            let mut alone = fresh.clone();
            alone.composite(&frames[i], &h).unwrap();
            assert_eq!(alone.coverage() > 0.0, i == 2, "item ({i}, {h:?})");
        }
        assert_ne!(painted, all, "the projective item changed nothing");

        // Footprint windows. Frame 5 is 2×2 and frame 6 a thin 40×2
        // strip; the canvas spans world [−3, 45] × [−3, 32].
        let mut frames = frames;
        frames.push(RgbImage::from_fn(2, 2, |x, y| {
            [200, 60 + 90 * x as u8, 30 + 110 * y as u8]
        }));
        frames.push(RgbImage::from_fn(40, 2, |x, y| {
            [(6 * x) as u8, 90, 250 - 80 * y as u8]
        }));
        // Footprints ([−1, sw] × [−1, sh] after the shift) within a pixel
        // of the left, right, top and bottom edges, and of two corners.
        let edges = [
            (0, Mat3::translation(-2.5, 9.0)),
            (1, Mat3::translation(27.5, 9.0)),
            (2, Mat3::translation(12.0, -2.5)),
            (3, Mat3::translation(12.0, 18.5)),
            (4, Mat3::translation(-1.75, -1.75)),
            (0, Mat3::translation(26.75, 17.75)),
        ];
        let magnified = (5, Mat3::translation(8.3, 6.7) * Mat3::scaling(7.5));
        let strip = (6, Mat3::translation(2.0, 1.0) * Mat3::rotation(0.75));
        // The remap's divisor 1 − x/20 changes sign at world x = 20;
        // no canvas pixel past it samples the frame.
        let canvas_horizon = (
            0,
            Mat3::from_rows([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.05, 0.0, 1.0]),
        );
        // The frame's own horizon, x = 10: its corners' box misses every
        // pixel it paints, all right of world x ≈ −0.9.
        let frame_horizon = (
            1,
            Mat3::from_rows([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, -0.1, 0.0, 1.0]),
        );
        let whole = (0..fresh.image.width(), 0..fresh.image.height());
        let window = |&(i, h): &(usize, Mat3)| fresh.footprint_window(&h, &frames[i]);
        let mut windowed = edges.to_vec();
        windowed.extend([magnified, strip]);
        for item in &windowed {
            let (cols, rows) = window(item);
            assert!(
                cols.len() < whole.0.len() || rows.len() < whole.1.len(),
                "{item:?}"
            );
        }
        let (cols, rows) = window(&strip);
        assert!(
            cols.len() * rows.len() > 5 * 40 * 2,
            "strip window {cols:?} × {rows:?}"
        );
        assert_eq!(window(&frame_horizon), whole, "a frame across its horizon");
        windowed.extend([canvas_horizon, frame_horizon]);
        for item in &windowed {
            let alone = assert_paints_like_sequential(&fresh, &frames, &[*item]);
            assert!(alone.coverage() > 0.0, "{item:?} painted nothing");
        }
        let mut list = items.clone();
        list.extend(&windowed);
        list.swap(2, 9);
        assert_paints_like_sequential(&fresh, &frames, &list);
    }

    /// A resumed segment: the canvas is rebuilt from its patch chain, so
    /// restored pixels carry mask bytes the painter must still paint over.
    #[test]
    fn painter_overwrites_restored_canvas_content() {
        let area = bounds(-3.0, -3.0, 45.0, 32.0);
        let (frames, hs): (Vec<RgbImage>, Vec<Mat3>) = tilted_frames().into_iter().unzip();
        let items: Vec<(usize, Mat3)> = hs.into_iter().enumerate().collect();
        for pos in 1..items.len() {
            let mut canvas = Canvas::new(&area).unwrap();
            let mut warp = WarpScratch::default();
            let mut patches = Vec::new();
            for &(i, h) in &items[..pos] {
                canvas
                    .composite_scratch(&frames[i], &h, &CompositeOptions::default(), &mut warp)
                    .unwrap();
                patches.push(canvas.written_by(&warp));
            }
            let mut resumed = Canvas::new(&bounds(0.0, 0.0, 7.0, 9.0)).unwrap();
            resumed.reset(&area).unwrap();
            for p in &patches {
                resumed.apply(p);
            }
            assert_eq!(resumed, canvas);
            let done = assert_paints_like_sequential(&resumed, &frames, &items[pos..]);
            // The later frames do overlap the restored ones.
            assert_ne!(done.image, resumed.image, "resume at {pos}");
        }
    }

    /// A list that aborts part-way returns the first failing item's
    /// error and paints nothing.
    #[test]
    fn painter_checks_every_item_before_painting() {
        let area = bounds(-3.0, -3.0, 45.0, 32.0);
        let (mut frames, hs): (Vec<RgbImage>, Vec<Mat3>) = tilted_frames().into_iter().unzip();
        frames.push(solid(1, 7, [9, 9, 9]));
        let items: Vec<(usize, Mat3)> = hs.into_iter().enumerate().collect();
        let degenerate = Mat3::from_rows([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, -1.0 / 18.0, 0.0, 1.0]);
        let singular = Mat3::from_rows([1.0, 2.0, 0.0, 2.0, 4.0, 0.0, 0.0, 0.0, 1.0]);
        let fresh = Canvas::new(&area).unwrap();
        let (mut warp, level) = (WarpScratch::default(), vs_image::dispatch::level());
        let cases = [
            ((1, degenerate), SimError::Abort),
            ((3, singular), SimError::Abort),
            ((5, Mat3::IDENTITY), SimError::Abort),
            ((9, Mat3::IDENTITY), SimError::Segfault),
        ];
        for (bad, err) in cases {
            let mut list = items.clone();
            list.insert(2, bad);
            let mut canvas = fresh.clone();
            let got = canvas.paint_overwrites(&frames, &list, &mut warp, level);
            assert_eq!(got, Err(err), "{bad:?}");
            assert_paints_like_sequential(&fresh, &frames, &list);
            // Two failing items: the earlier one's error wins.
            list.insert(4, cases[3].0);
            assert_paints_like_sequential(&fresh, &frames, &list);
            list.insert(1, cases[3].0);
            let got = canvas.paint_overwrites(&frames, &list, &mut warp, level);
            assert_eq!(got, Err(SimError::Segfault));
        }
    }

    #[test]
    fn degenerate_transform_aborts_composite() {
        let mut c = Canvas::new(&bounds(0.0, 0.0, 20.0, 20.0)).unwrap();
        // Sends the frame's right edge (x = 30) to infinity.
        let degenerate = Mat3::from_rows([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, -1.0 / 30.0, 0.0, 1.0]);
        assert_eq!(
            c.composite(&solid(30, 30, [1, 1, 1]), &degenerate)
                .unwrap_err(),
            SimError::Abort
        );
    }
}
