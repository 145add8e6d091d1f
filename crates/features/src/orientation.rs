//! ORB orientation assignment via the intensity centroid.
//!
//! ORB ("Oriented FAST") makes BRIEF rotation-invariant by measuring each
//! patch's dominant orientation as the angle of the vector from the
//! keypoint to the intensity centroid of its circular patch:
//! `θ = atan2(m01, m10)` with moments `m_pq = Σ x^p y^q I(x, y)`.

use crate::keypoint::KeyPoint;
use vs_fault::{tap, FuncId, OpClass, SimError};
use vs_image::GrayImage;

/// Radius of the circular orientation patch.
pub const PATCH_RADIUS: isize = 8;

/// Half-width of each row of the circular patch: row `dy` holds the
/// pixels `dx ∈ [−h, h]` with `dx² + dy² ≤ PATCH_RADIUS²`, where `h` is
/// entry `dy + PATCH_RADIUS`.
const HALF_WIDTHS: [isize; 2 * PATCH_RADIUS as usize + 1] = {
    let mut half = [0; 2 * PATCH_RADIUS as usize + 1];
    let mut i = 0;
    while i < half.len() {
        let dy = i as isize - PATCH_RADIUS;
        while (half[i] + 1) * (half[i] + 1) + dy * dy <= PATCH_RADIUS * PATCH_RADIUS {
            half[i] += 1;
        }
        i += 1;
    }
    half
};

/// Compute the intensity-centroid orientation of the patch centred on
/// `(cx, cy)`, in radians.
///
/// Patches overlapping the border are read with replicate padding, so the
/// function is total over in-image centres.
pub fn intensity_centroid(img: &GrayImage, cx: f64, cy: f64) -> f64 {
    let xi = cx.round() as isize;
    let yi = cy.round() as isize;
    let mut m01 = 0.0f64;
    let mut m10 = 0.0f64;
    let r2 = PATCH_RADIUS * PATCH_RADIUS;
    for dy in -PATCH_RADIUS..=PATCH_RADIUS {
        for dx in -PATCH_RADIUS..=PATCH_RADIUS {
            if dx * dx + dy * dy > r2 {
                continue;
            }
            let v = img.get_clamped(xi + dx, yi + dy) as f64;
            m10 += dx as f64 * v;
            m01 += dy as f64 * v;
        }
    }
    m01.atan2(m10)
}

/// Assign an orientation to every keypoint.
///
/// The computed angle flows through an FPR tap: a fault here rotates the
/// BRIEF sampling pattern, corrupting the descriptor without any crash —
/// the classic SDC-or-masked float-fault behaviour.
///
/// # Errors
///
/// Propagates hang-budget exhaustion from the instrumented loop.
pub fn assign_orientations(
    img: &GrayImage,
    mut keypoints: Vec<KeyPoint>,
) -> Result<Vec<KeyPoint>, SimError> {
    assign_orientations_mut(img, &mut keypoints)?;
    Ok(keypoints)
}

/// [`assign_orientations`] on a borrowed slice — the allocation-free
/// form the scratch-workspace pipeline uses. Tap stream and angles are
/// bit-identical.
///
/// # Errors
///
/// Propagates hang-budget exhaustion from the instrumented loop.
pub fn assign_orientations_mut(
    img: &GrayImage,
    keypoints: &mut [KeyPoint],
) -> Result<(), SimError> {
    let _f = tap::scope(FuncId::OrbOrientation);
    for kp in keypoints.iter_mut() {
        // The patch radius is a loop bound living in a control register.
        // Corruption inflates the moment loops until the hang monitor
        // trips — the pure-hang surface of this pipeline (patch reads are
        // border-clamped, so no crash intervenes first).
        let r = tap::ctl(PATCH_RADIUS as usize) as isize;
        tap::work(OpClass::Float, 8)?;
        let xi = kp.x.round() as isize;
        let yi = kp.y.round() as isize;
        let (m01, m10) = if r == PATCH_RADIUS && patch_inside(img, xi, yi) {
            interior_moments(img, xi, yi)?
        } else {
            clamped_moments(img, xi, yi, r)?
        };
        kp.angle = tap::fpr(m01.atan2(m10));
    }
    Ok(())
}

/// Whether the whole `PATCH_RADIUS` patch around `(xi, yi)` lies inside
/// `img`, so that no read clamps.
fn patch_inside(img: &GrayImage, xi: isize, yi: isize) -> bool {
    let r = PATCH_RADIUS;
    xi >= r && yi >= r && xi < img.width() as isize - r && yi < img.height() as isize - r
}

/// The moments `(m01, m10)` of a patch of radius `r` at `(xi, yi)`, read
/// with replicate padding, with the row taps of a radius-`r` loop.
fn clamped_moments(
    img: &GrayImage,
    xi: isize,
    yi: isize,
    r: isize,
) -> Result<(f64, f64), SimError> {
    let r2 = r.saturating_mul(r);
    // Row width 2r + 1, wrapping as the native loop-bound arithmetic
    // does: a corrupted radius near 2^62 charges the same (huge) count
    // in every build profile instead of panicking in debug.
    let width = r.max(0).wrapping_mul(2).wrapping_add(1) as u64;
    let mut m01 = 0.0f64;
    let mut m10 = 0.0f64;
    let mut dy = -r;
    while dy <= r {
        tap::work(OpClass::IntAlu, width)?;
        tap::work(OpClass::Mem, width)?;
        let mut dx = -r;
        while dx <= r {
            if dx.saturating_mul(dx).saturating_add(dy.saturating_mul(dy)) <= r2 {
                let v = img.get_clamped(xi + dx, yi + dy) as f64;
                m10 += dx as f64 * v;
                m01 += dy as f64 * v;
            }
            dx += 1;
        }
        dy += 1;
    }
    Ok((m01, m10))
}

/// [`clamped_moments`] at radius `PATCH_RADIUS` for a patch inside the
/// image, summed in integers over the precomputed row half-widths, with
/// the same row taps (each sum stays below 197 · 8 · 255 < 2^19).
/// Bit-identical: every term and partial sum of the f64 loop is an
/// integer far below 2^53, so each of its additions is
/// exact and its sums equal these; and its accumulators, starting at
/// +0.0, never turn −0.0 (adding −0.0 keeps +0.0, and an exact
/// cancellation rounds to +0.0), as the converted integers never are.
fn interior_moments(img: &GrayImage, xi: isize, yi: isize) -> Result<(f64, f64), SimError> {
    let width = 2 * PATCH_RADIUS as u64 + 1;
    let w = img.width();
    let data = img.as_bytes();
    let (mut m01, mut m10) = (0i32, 0i32);
    for (dy, &half) in (-PATCH_RADIUS..=PATCH_RADIUS).zip(&HALF_WIDTHS) {
        tap::work(OpClass::IntAlu, width)?;
        tap::work(OpClass::Mem, width)?;
        let start = (yi + dy) as usize * w + (xi - half) as usize;
        let row = &data[start..=start + 2 * half as usize];
        let (mut sum, mut moment) = (0i32, 0i32);
        for (dx, &v) in (-half as i32..).zip(row) {
            sum += i32::from(v);
            moment += dx * i32::from(v);
        }
        m10 += moment;
        m01 += dy as i32 * sum;
    }
    Ok((m01 as f64, m10 as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An image bright on the +x side of the centre: centroid points
    /// along +x, angle ≈ 0.
    #[test]
    fn gradient_right_gives_zero_angle() {
        let img = GrayImage::from_fn(32, 32, |x, _| if x >= 16 { 200 } else { 20 });
        let a = intensity_centroid(&img, 16.0, 16.0);
        assert!(a.abs() < 0.2, "angle {a} not ~0");
    }

    /// Bright below the centre: angle ≈ +π/2 (y grows downward).
    #[test]
    fn gradient_down_gives_half_pi() {
        let img = GrayImage::from_fn(32, 32, |_, y| if y >= 16 { 200 } else { 20 });
        let a = intensity_centroid(&img, 16.0, 16.0);
        assert!((a - std::f64::consts::FRAC_PI_2).abs() < 0.2, "angle {a}");
    }

    /// Rotating the intensity pattern rotates the measured angle.
    #[test]
    fn orientation_tracks_pattern_rotation() {
        for theta_deg in [0.0f64, 45.0, 90.0, 135.0, 180.0, -90.0] {
            let theta = theta_deg.to_radians();
            let (s, c) = theta.sin_cos();
            let img = GrayImage::from_fn(48, 48, |x, y| {
                // Brightness increases along direction theta.
                let dx = x as f64 - 24.0;
                let dy = y as f64 - 24.0;
                let proj = dx * c + dy * s;
                if proj > 0.0 {
                    220
                } else {
                    30
                }
            });
            let a = intensity_centroid(&img, 24.0, 24.0);
            let mut err = (a - theta).abs();
            if err > std::f64::consts::PI {
                err = 2.0 * std::f64::consts::PI - err;
            }
            assert!(
                err < 0.25,
                "theta={theta_deg}° measured {}°",
                a.to_degrees()
            );
        }
    }

    #[test]
    fn flat_patch_has_arbitrary_but_finite_angle() {
        let img = GrayImage::from_fn(32, 32, |_, _| 100);
        let a = intensity_centroid(&img, 16.0, 16.0);
        assert!(a.is_finite());
    }

    #[test]
    fn assign_orientations_preserves_positions() {
        let img = GrayImage::from_fn(32, 32, |x, _| if x >= 16 { 200 } else { 20 });
        let kps = vec![KeyPoint::new(16, 16, 5.0), KeyPoint::new(10, 20, 3.0)];
        let out = assign_orientations(&img, kps.clone()).unwrap();
        assert_eq!(out.len(), 2);
        for (a, b) in out.iter().zip(&kps) {
            assert_eq!(a.x, b.x);
            assert_eq!(a.y, b.y);
            assert_eq!(a.response, b.response);
        }
        assert!(out[0].angle.abs() < 0.2);
    }

    /// Every bit of a corrupted patch radius ends in a modeled outcome
    /// under every build profile. Bit 62 overflows the row width
    /// 2r + 1, which must wrap into a hang (as release builds always
    /// did), not panic under debug assertions.
    #[test]
    fn corrupted_radius_never_panics() {
        use vs_fault::{session, FaultSpec, FuncMask, RegClass};
        let img = GrayImage::from_fn(32, 32, |x, y| (x * 7 + y * 3) as u8);
        for bit in 0..64u8 {
            let spec = FaultSpec {
                group: Some((FuncId::OrbOrientation, OpClass::Control)),
                ..FaultSpec::new(RegClass::Gpr, 0, bit)
            };
            let mut kps = [KeyPoint::new(16, 16, 1.0)];
            let _session = session::begin_injection(spec, FuncMask::all(), 1_000_000);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                assign_orientations_mut(&img, &mut kps)
            }));
            assert!(session::fired().is_some(), "bit {bit}: never fired");
            let result = result.unwrap_or_else(|_| panic!("bit {bit} panicked"));
            if bit == 62 {
                assert_eq!(result, Err(SimError::Hang));
            }
        }
    }

    /// Every angle equals [`intensity_centroid`]'s bit for bit, at every
    /// pixel of random, two-level and flat images — interior patches
    /// (the integer sums) and border ones (the clamped loop) — and at
    /// half-pixel positions, which round onto either side of the border.
    #[test]
    fn angles_match_intensity_centroid_bit_for_bit() {
        let mut rng = vs_rng::SplitMix64::new(0x0C3A_7E55);
        let images = [
            GrayImage::from_fn(40, 31, |_, _| rng.gen_range(0u32..256) as u8),
            GrayImage::from_fn(
                25,
                19,
                |_, _| if rng.gen_range(0u32..2) == 0 { 0 } else { 255 },
            ),
            GrayImage::from_fn(20, 18, |_, _| 0),
            GrayImage::from_fn(17, 17, |x, y| (x * 13 + y * 7) as u8),
        ];
        for img in &images {
            let (w, h) = (img.width(), img.height());
            let mut kps: Vec<KeyPoint> = (0..h)
                .flat_map(|y| (0..w).map(move |x| KeyPoint::new(x, y, 1.0)))
                .collect();
            for k in [7.5, 8.5, w as f64 - 8.5] {
                kps.push(KeyPoint {
                    x: k,
                    y: k,
                    ..KeyPoint::new(0, 0, 1.0)
                });
            }
            let interior = kps
                .iter()
                .filter(|k| patch_inside(img, k.x.round() as isize, k.y.round() as isize))
                .count();
            assert!(interior > 0 && interior < kps.len(), "{w}x{h}");
            assign_orientations_mut(img, &mut kps).unwrap();
            for k in &kps {
                let want = intensity_centroid(img, k.x, k.y);
                assert_eq!(
                    k.angle.to_bits(),
                    want.to_bits(),
                    "{w}x{h} at ({}, {})",
                    k.x,
                    k.y
                );
            }
        }
    }

    #[test]
    fn border_keypoints_do_not_panic() {
        let img = GrayImage::from_fn(16, 16, |x, y| (x * y) as u8);
        let kps = vec![KeyPoint::new(0, 0, 1.0), KeyPoint::new(15, 15, 1.0)];
        let out = assign_orientations(&img, kps).unwrap();
        assert!(out.iter().all(|k| k.angle.is_finite()));
    }
}
