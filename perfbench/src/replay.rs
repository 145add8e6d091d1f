//! Stage replay: every frame of a workload's input, in pipeline order,
//! through the kernel crates' public entry points with the workload's
//! `PipelineConfig`, then the golden run's alignments composited onto one
//! canvas per segment. Each kernel call sits in its own benchmark span, so
//! the traced run reads stage times from the trace.

use vs_core::workloads::VsWorkload;
use vs_core::Summary;
use vs_fault::{session, SimError};
use vs_features::{fast, Descriptor, Feature, KeyPoint, Orb, OrbScratch};
use vs_geometry::ransac::{self, RansacScratch};
use vs_geometry::transform::{transformed_bounds, Bounds};
use vs_image::{downsample_half_into, gaussian_blur_5x5_into, GrayImage};
use vs_linalg::Vec2;
use vs_matching::{Match, RatioMatcher};
use vs_telemetry::span;
use vs_warp::{Canvas, WarpScratch};

/// The stages a golden run executes one after another. Blur, downsample
/// and FAST also run inside ORB; their standalone replays are kernel
/// timings and stay out of the sum that must account for a golden run.
pub const PIPELINE_STAGES: [&str; 5] = [
    "image.decode",
    "features.orb",
    "matching.match",
    "geometry.ransac",
    "warp.composite",
];

/// Work counts of one replay pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub frames: u64,
    pub keypoints: u64,
    pub queries: u64,
    pub matches: u64,
    pub ransac_pairs: u64,
    pub inliers: u64,
    pub composite_px: u64,
}

#[derive(Default)]
struct Buffers {
    gray: GrayImage,
    blur_tmp: GrayImage,
    blurred: GrayImage,
    half: GrayImage,
    orb: OrbScratch,
    features: Vec<Feature>,
    descriptors: Vec<Descriptor>,
    prev_features: Vec<Feature>,
    prev_descriptors: Vec<Descriptor>,
    fast: fast::FastScratch,
    keypoints: Vec<KeyPoint>,
    matches: Vec<Match>,
    pairs: Vec<(Vec2, Vec2)>,
    ransac: RansacScratch,
    canvas: Canvas,
    warp: WarpScratch,
}

/// One replay pass over `w`'s input. With `tapped` the pass runs inside a
/// fault profile session, so every tap counts as it would in a golden
/// profile and warp takes its session (non-SIMD) path.
///
/// # Errors
///
/// Propagates a simulated fault from a kernel; error-free inputs have
/// none.
pub fn replay(w: &VsWorkload, golden: &Summary, tapped: bool) -> Result<Counts, SimError> {
    let _session = tapped.then(session::begin_profile);
    let cfg = w.config();
    let orb = Orb::new(cfg.orb.clone());
    // ORB's level-0 FAST settings.
    let fast_cfg = fast::FastConfig {
        threshold: cfg.orb.fast_threshold,
        max_keypoints: (cfg.orb.max_features / cfg.orb.levels.max(1)).max(8),
        ..fast::FastConfig::default()
    };
    let matcher = RatioMatcher {
        ratio: cfg.match_ratio,
    };
    let mut b = Buffers::default();
    let mut n = Counts::default();

    for (i, frame) in w.frames().iter().enumerate() {
        n.frames += 1;
        {
            let _s = span("image.decode");
            frame.to_gray_into(&mut b.gray);
        }
        {
            let _s = span("features.orb");
            orb.detect_and_describe_into(&b.gray, &mut b.orb, &mut b.features)?;
        }
        {
            let _s = span("image.blur");
            gaussian_blur_5x5_into(&b.gray, &mut b.blur_tmp, &mut b.blurred);
        }
        {
            let _s = span("image.downsample");
            downsample_half_into(&b.gray, &mut b.half);
        }
        {
            let _s = span("features.fast");
            fast::detect_into(&b.gray, &fast_cfg, &mut b.fast, &mut b.keypoints)?;
        }
        n.keypoints += b.features.len() as u64;
        b.descriptors.clear();
        b.descriptors
            .extend(b.features.iter().map(|f| f.descriptor));
        if i > 0 {
            {
                let _s = span("matching.match");
                matcher.matches_into(&b.descriptors, &b.prev_descriptors, &mut b.matches)?;
            }
            n.queries += b.descriptors.len() as u64;
            n.matches += b.matches.len() as u64;
            b.pairs.clear();
            b.pairs.extend(b.matches.iter().map(|m| {
                let q = &b.features[m.query].keypoint;
                let t = &b.prev_features[m.train].keypoint;
                (Vec2::new(q.x, q.y), Vec2::new(t.x, t.y))
            }));
            if b.pairs.len() >= cfg.min_matches_homography {
                // The pipeline's per-frame RANSAC seed.
                let seed = cfg.seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9));
                let fit = {
                    let _s = span("geometry.ransac");
                    ransac::estimate_homography_scratch(&b.pairs, &cfg.ransac, seed, &mut b.ransac)?
                };
                n.ransac_pairs += b.pairs.len() as u64;
                if fit.is_some() {
                    n.inliers += b.ransac.inliers().len() as u64;
                }
            }
        }
        std::mem::swap(&mut b.features, &mut b.prev_features);
        std::mem::swap(&mut b.descriptors, &mut b.prev_descriptors);
    }

    for segment in 0..golden.stats.segments {
        let aligned = || {
            golden
                .alignments
                .iter()
                .filter(move |a| a.segment == segment)
        };
        let mut bounds: Option<Bounds> = None;
        for a in aligned() {
            let f = &w.frames()[a.frame];
            let fb =
                transformed_bounds(&a.h_to_anchor, f.width(), f.height()).ok_or(SimError::Abort)?;
            bounds = Some(bounds.map_or(fb, |acc| acc.union(&fb)));
        }
        b.canvas.reset(&bounds.ok_or(SimError::Abort)?)?;
        for a in aligned() {
            let _s = span("warp.composite");
            b.canvas.composite_scratch(
                &w.frames()[a.frame],
                &a.h_to_anchor,
                &cfg.compositing,
                &mut b.warp,
            )?;
            n.composite_px += (b.canvas.image().width() * b.canvas.image().height()) as u64;
        }
    }
    Ok(n)
}
