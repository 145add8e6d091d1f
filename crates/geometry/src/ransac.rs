//! RANSAC (RANdom SAmple Consensus) model estimation.
//!
//! Fischler & Bolles' algorithm as the paper's pipeline uses it: sample a
//! minimal correspondence set, hypothesize a model, count inliers under a
//! reprojection threshold, keep the best hypothesis, and refit it on its
//! inliers. The loop is seeded (deterministic) and fault-instrumented:
//! the iteration count flows through a control tap (corruption can spin
//! the loop into the hang monitor), sample indices through address taps
//! (corruption → simulated segfault), and hypothesis entries through
//! float taps (corruption → bad models and SDCs downstream).

use crate::{affine, homography};
use vs_fault::{tap, FuncId, OpClass, SimError};
use vs_linalg::{Mat3, Vec2};
use vs_rng::SplitMix64;
use vs_telemetry::digest::Stage;

/// RANSAC parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RansacConfig {
    /// Number of sampling iterations.
    pub iterations: usize,
    /// Inlier reprojection threshold in pixels.
    pub inlier_threshold: f64,
    /// Minimum inliers for a model to be accepted.
    pub min_inliers: usize,
    /// Refit the best model on its inliers with least squares.
    pub refine: bool,
}

impl Default for RansacConfig {
    fn default() -> Self {
        RansacConfig {
            iterations: 200,
            inlier_threshold: 3.0,
            min_inliers: 8,
            refine: true,
        }
    }
}

/// A fitted model with its consensus set.
#[derive(Debug, Clone, PartialEq)]
pub struct RansacFit {
    /// The estimated transform.
    pub model: Mat3,
    /// Indices of correspondences within the inlier threshold.
    pub inliers: Vec<usize>,
}

/// Reusable buffers for the allocation-free RANSAC entry points
/// ([`estimate_homography_scratch`] / [`estimate_affine_scratch`]):
/// sample indices, the two consensus sets, refit point vectors and the
/// normalization buffers of the minimal/refit solvers.
#[derive(Debug, Default)]
pub struct RansacScratch {
    sample: Vec<usize>,
    inliers: Vec<usize>,
    best_inliers: Vec<usize>,
    refit_src: Vec<Vec2>,
    refit_dst: Vec<Vec2>,
    norm: homography::NormScratch,
}

impl RansacScratch {
    /// Consensus set of the model returned by the last `*_scratch`
    /// estimate (empty when it returned `None`).
    ///
    /// Deliberately reads `best_inliers`, not the per-iteration
    /// `inliers` working buffer.
    #[allow(clippy::misnamed_getters)]
    pub fn inliers(&self) -> &[usize] {
        &self.best_inliers
    }

    /// Total heap footprint (element counts of the owned buffers).
    pub fn footprint(&self) -> usize {
        self.sample.capacity()
            + self.inliers.capacity()
            + self.best_inliers.capacity()
            + self.refit_src.capacity()
            + self.refit_dst.capacity()
            + self.norm.footprint()
    }
}

/// Collect inliers of `model` into a caller-owned vector (cleared first).
fn consensus_into(model: &Mat3, pairs: &[(Vec2, Vec2)], threshold: f64, out: &mut Vec<usize>) {
    out.clear();
    out.extend(
        pairs
            .iter()
            .enumerate()
            .filter(|(_, (s, d))| homography::transfer_error(model, *s, *d) <= threshold)
            .map(|(i, _)| i),
    );
}

/// Sample `k` distinct indices in `0..n`.
fn sample_distinct(rng: &mut SplitMix64, n: usize, k: usize, out: &mut Vec<usize>) {
    out.clear();
    while out.len() < k {
        let idx = rng.gen_range(0..n);
        if !out.contains(&idx) {
            out.push(idx);
        }
    }
}

/// Generic RANSAC loop over a minimal-sample estimator. `kind` labels
/// the model family in telemetry events.
///
/// All transient state lives in `s`; on `Ok(Some(model))` the consensus
/// set is left in `s.best_inliers`. The hypothesize/score/refine
/// sequence — and hence the tap stream — is identical to the historical
/// allocating loop; only buffer ownership moved into the scratch.
#[allow(clippy::too_many_arguments)]
fn estimate_scratch(
    kind: &'static str,
    pairs: &[(Vec2, Vec2)],
    cfg: &RansacConfig,
    seed: u64,
    sample_size: usize,
    mut fit_minimal: impl FnMut(&[usize], &[(Vec2, Vec2)], &mut homography::NormScratch) -> Option<Mat3>,
    mut refit: impl FnMut(&[Vec2], &[Vec2], &mut homography::NormScratch) -> Option<Mat3>,
    s: &mut RansacScratch,
) -> Result<Option<Mat3>, SimError> {
    // Telemetry-only stage span (no taps); near-free without a sink.
    let _stage = vs_telemetry::span_with(
        Stage::Ransac.name(),
        &[("kind", vs_telemetry::Value::Str(kind))],
    );
    let RansacScratch {
        sample,
        inliers,
        best_inliers,
        refit_src,
        refit_dst,
        norm,
    } = s;
    best_inliers.clear();
    if pairs.len() < sample_size {
        emit_ransac_event(kind, 0, pairs.len(), 0);
        return Ok(None);
    }
    let mut rng = SplitMix64::new(seed);
    let mut best: Option<Mat3> = None;
    let iterations = tap::ctl(cfg.iterations);
    let mut it = 0usize;
    while it < iterations {
        it += 1;
        tap::work(OpClass::Control, 4)?;
        tap::work(OpClass::IntAlu, 60)?;
        tap::work(OpClass::Float, 40 + 10 * pairs.len() as u64)?;
        tap::work(OpClass::Mem, 4 * pairs.len() as u64)?;
        sample_distinct(&mut rng, pairs.len(), sample_size, sample);
        // Address-tap the first sample index: the load below is the
        // crash surface for corrupted index registers.
        let first = tap::addr(sample[0]);
        if pairs.get(first).is_none() {
            return Err(SimError::Segfault);
        }
        sample[0] = first;
        let Some(model) = fit_minimal(sample, pairs, norm) else {
            continue;
        };
        // Float-tap one model entry per hypothesis: corrupted FPR state
        // perturbs the hypothesis, not the control flow.
        let rows = model.to_rows();
        let tapped = Mat3::from_rows([
            rows[0],
            rows[1],
            tap::fpr(rows[2]),
            rows[3],
            rows[4],
            rows[5],
            rows[6],
            rows[7],
            rows[8],
        ]);
        if !tapped.is_finite() {
            continue;
        }
        consensus_into(&tapped, pairs, cfg.inlier_threshold, inliers);
        if inliers.len() >= cfg.min_inliers.max(sample_size)
            && (best.is_none() || inliers.len() > best_inliers.len())
        {
            std::mem::swap(inliers, best_inliers);
            best = Some(tapped);
        }
    }

    let Some(mut fit) = best else {
        emit_ransac_event(kind, it, pairs.len(), 0);
        return Ok(None);
    };
    if cfg.refine {
        refit_src.clear();
        refit_dst.clear();
        for &i in best_inliers.iter() {
            refit_src.push(pairs[i].0);
            refit_dst.push(pairs[i].1);
        }
        if let Some(refined) = refit(refit_src, refit_dst, norm) {
            consensus_into(&refined, pairs, cfg.inlier_threshold, inliers);
            if inliers.len() >= best_inliers.len() {
                std::mem::swap(inliers, best_inliers);
                fit = refined;
            }
        }
    }
    emit_ransac_event(kind, it, pairs.len(), best_inliers.len());
    Ok(Some(fit))
}

/// One per-call `ransac` telemetry event (no-op without a sink).
fn emit_ransac_event(kind: &'static str, iterations: usize, pairs: usize, inliers: usize) {
    use vs_telemetry::Value;
    vs_telemetry::emit(
        "ransac",
        &[
            ("kind", Value::Str(kind)),
            ("iterations", Value::U64(iterations as u64)),
            ("pairs", Value::U64(pairs as u64)),
            ("inliers", Value::U64(inliers as u64)),
        ],
    );
}

/// Estimate a homography between correspondence pairs with RANSAC.
///
/// Returns `Ok(None)` when no model reaches `min_inliers` — the pipeline
/// then falls back to [`estimate_affine`], and discards the frame if that
/// fails too.
///
/// # Errors
///
/// Propagates simulated faults from instrumented code.
pub fn estimate_homography(
    pairs: &[(Vec2, Vec2)],
    cfg: &RansacConfig,
    seed: u64,
) -> Result<Option<RansacFit>, SimError> {
    let mut s = RansacScratch::default();
    Ok(
        estimate_homography_scratch(pairs, cfg, seed, &mut s)?.map(|model| RansacFit {
            model,
            inliers: std::mem::take(&mut s.best_inliers),
        }),
    )
}

/// [`estimate_homography`] with caller-owned buffers — the
/// allocation-free form. On `Ok(Some(_))` the consensus set is left in
/// [`RansacScratch::inliers`]. Tap stream and model are bit-identical.
///
/// # Errors
///
/// Propagates simulated faults from instrumented code.
pub fn estimate_homography_scratch(
    pairs: &[(Vec2, Vec2)],
    cfg: &RansacConfig,
    seed: u64,
    s: &mut RansacScratch,
) -> Result<Option<Mat3>, SimError> {
    let _f = tap::scope(FuncId::RansacHomography);
    estimate_scratch(
        "homography",
        pairs,
        cfg,
        seed,
        4,
        |sample, pairs, norm| {
            let src = [
                pairs[sample[0]].0,
                pairs[sample[1]].0,
                pairs[sample[2]].0,
                pairs[sample[3]].0,
            ];
            let dst = [
                pairs[sample[0]].1,
                pairs[sample[1]].1,
                pairs[sample[2]].1,
                pairs[sample[3]].1,
            ];
            homography::from_four_points_with(&src, &dst, norm)
        },
        homography::least_squares_with,
        s,
    )
}

/// Estimate an affine transform with RANSAC — the fallback model that
/// "requires fewer matching points" (§III-A).
///
/// # Errors
///
/// Propagates simulated faults from instrumented code.
pub fn estimate_affine(
    pairs: &[(Vec2, Vec2)],
    cfg: &RansacConfig,
    seed: u64,
) -> Result<Option<RansacFit>, SimError> {
    let mut s = RansacScratch::default();
    Ok(
        estimate_affine_scratch(pairs, cfg, seed, &mut s)?.map(|model| RansacFit {
            model,
            inliers: std::mem::take(&mut s.best_inliers),
        }),
    )
}

/// [`estimate_affine`] with caller-owned buffers — the allocation-free
/// form. On `Ok(Some(_))` the consensus set is left in
/// [`RansacScratch::inliers`]. Tap stream and model are bit-identical.
///
/// # Errors
///
/// Propagates simulated faults from instrumented code.
pub fn estimate_affine_scratch(
    pairs: &[(Vec2, Vec2)],
    cfg: &RansacConfig,
    seed: u64,
    s: &mut RansacScratch,
) -> Result<Option<Mat3>, SimError> {
    let _f = tap::scope(FuncId::EstimateAffine);
    estimate_scratch(
        "affine",
        pairs,
        cfg,
        seed,
        3,
        |sample, pairs, _| {
            let src = [pairs[sample[0]].0, pairs[sample[1]].0, pairs[sample[2]].0];
            let dst = [pairs[sample[0]].1, pairs[sample[1]].1, pairs[sample[2]].1];
            affine::from_three_points(&src, &dst)
        },
        |src, dst, _| affine::least_squares(src, dst),
        s,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_pairs(truth: &Mat3, n: usize) -> Vec<(Vec2, Vec2)> {
        (0..n)
            .map(|i| {
                let p = Vec2::new((i % 10) as f64 * 17.0 + 3.0, (i / 10) as f64 * 13.0 + 5.0);
                (p, truth.apply(p).unwrap())
            })
            .collect()
    }

    #[test]
    fn clean_data_recovers_homography() {
        let truth = Mat3::translation(20.0, -10.0) * Mat3::rotation(0.15);
        let pairs = grid_pairs(&truth, 50);
        let fit = estimate_homography(&pairs, &RansacConfig::default(), 1)
            .unwrap()
            .unwrap();
        assert_eq!(fit.inliers.len(), 50);
        for (p, q) in &pairs {
            assert!(homography::transfer_error(&fit.model, *p, *q) < 0.5);
        }
    }

    #[test]
    fn outliers_are_rejected() {
        let truth = Mat3::translation(8.0, 4.0);
        let mut pairs = grid_pairs(&truth, 40);
        // 30% gross outliers.
        for i in 0..12 {
            pairs.push((
                Vec2::new(i as f64 * 11.0, 50.0),
                Vec2::new(500.0 - i as f64 * 23.0, i as f64 * 31.0),
            ));
        }
        let fit = estimate_homography(&pairs, &RansacConfig::default(), 2)
            .unwrap()
            .unwrap();
        assert!(fit.inliers.len() >= 40, "inliers {}", fit.inliers.len());
        assert!(fit.inliers.len() <= 42, "outliers crept in");
        assert!(fit.model.distance(&truth) < 0.2, "model\n{}", fit.model);
    }

    #[test]
    fn insufficient_consensus_returns_none() {
        // Pure noise: no consistent model exists.
        let pairs: Vec<(Vec2, Vec2)> = (0..30)
            .map(|i| {
                let k = i as f64;
                (
                    Vec2::new((k * 37.0) % 100.0, (k * 53.0) % 90.0),
                    Vec2::new((k * 71.0) % 100.0, (k * 89.0) % 90.0),
                )
            })
            .collect();
        let cfg = RansacConfig {
            min_inliers: 20,
            ..RansacConfig::default()
        };
        assert!(estimate_homography(&pairs, &cfg, 3).unwrap().is_none());
    }

    #[test]
    fn too_few_pairs_returns_none() {
        let truth = Mat3::translation(1.0, 1.0);
        let pairs = grid_pairs(&truth, 3);
        assert!(estimate_homography(&pairs, &RansacConfig::default(), 0)
            .unwrap()
            .is_none());
        assert!(estimate_affine(&pairs[..2], &RansacConfig::default(), 0)
            .unwrap()
            .is_none());
    }

    #[test]
    fn affine_needs_fewer_points_than_homography() {
        let truth = Mat3::affine(1.0, 0.0, 6.0, 0.0, 1.0, -2.0);
        let src = [
            Vec2::new(3.0, 5.0),
            Vec2::new(80.0, 12.0),
            Vec2::new(30.0, 70.0),
        ];
        let pairs: Vec<(Vec2, Vec2)> = src.iter().map(|&p| (p, truth.apply(p).unwrap())).collect();
        let cfg = RansacConfig {
            min_inliers: 3,
            ..RansacConfig::default()
        };
        // Homography needs a 4-point minimal sample; with only 3 pairs
        // only the affine fallback can produce a model.
        let three = &pairs[..3];
        assert!(estimate_homography(three, &cfg, 1).unwrap().is_none());
        let fit = estimate_affine(three, &cfg, 1).unwrap().unwrap();
        assert!(fit.model.distance(&truth) < 1e-6);
    }

    #[test]
    fn ransac_is_deterministic_for_a_seed() {
        let truth = Mat3::rotation(0.1) * Mat3::translation(3.0, 4.0);
        let mut pairs = grid_pairs(&truth, 30);
        pairs.push((Vec2::new(0.0, 0.0), Vec2::new(77.0, 88.0)));
        let a = estimate_homography(&pairs, &RansacConfig::default(), 9).unwrap();
        let b = estimate_homography(&pairs, &RansacConfig::default(), 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn scratch_path_matches_allocating_path() {
        let truth = Mat3::translation(8.0, 4.0);
        let mut pairs = grid_pairs(&truth, 40);
        for i in 0..12 {
            pairs.push((
                Vec2::new(i as f64 * 11.0, 50.0),
                Vec2::new(500.0 - i as f64 * 23.0, i as f64 * 31.0),
            ));
        }
        let cfg = RansacConfig::default();
        let mut s = RansacScratch::default();
        for seed in [2u64, 9, 77] {
            let fresh = estimate_homography(&pairs, &cfg, seed).unwrap().unwrap();
            let model = estimate_homography_scratch(&pairs, &cfg, seed, &mut s)
                .unwrap()
                .unwrap();
            assert_eq!(model, fresh.model);
            assert_eq!(s.inliers(), fresh.inliers.as_slice());
            let fresh_a = estimate_affine(&pairs, &cfg, seed).unwrap().unwrap();
            let model_a = estimate_affine_scratch(&pairs, &cfg, seed, &mut s)
                .unwrap()
                .unwrap();
            assert_eq!(model_a, fresh_a.model);
            assert_eq!(s.inliers(), fresh_a.inliers.as_slice());
        }
        let footprint = s.footprint();
        estimate_homography_scratch(&pairs, &cfg, 2, &mut s)
            .unwrap()
            .unwrap();
        assert_eq!(s.footprint(), footprint, "steady state must not grow");
        // A failed estimate clears the stale consensus set.
        assert!(estimate_homography_scratch(&pairs[..3], &cfg, 0, &mut s)
            .unwrap()
            .is_none());
        assert!(s.inliers().is_empty());
    }

    #[test]
    fn refinement_does_not_lose_inliers() {
        let truth = Mat3::translation(2.0, 2.0);
        let pairs = grid_pairs(&truth, 25);
        let refined = estimate_homography(
            &pairs,
            &RansacConfig {
                refine: true,
                ..RansacConfig::default()
            },
            4,
        )
        .unwrap()
        .unwrap();
        let raw = estimate_homography(
            &pairs,
            &RansacConfig {
                refine: false,
                ..RansacConfig::default()
            },
            4,
        )
        .unwrap()
        .unwrap();
        assert!(refined.inliers.len() >= raw.inliers.len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;

    /// RANSAC recovers a random similarity transform from clean
    /// correspondences plus bounded outliers, over a deterministic sweep
    /// of randomized cases.
    #[test]
    fn recovers_random_similarity_with_outliers() {
        let mut rng = SplitMix64::new(0x5a5a_1234);
        for case in 0..16u64 {
            let angle = rng.gen_range(-0.5f64..0.5);
            let scale = rng.gen_range(0.7f64..1.4);
            let tx = rng.gen_range(-30.0f64..30.0);
            let ty = rng.gen_range(-30.0f64..30.0);
            let seed = rng.gen_range(0u64..1000);
            let truth = Mat3::translation(tx, ty) * Mat3::rotation(angle) * Mat3::scaling(scale);
            let mut pairs: Vec<(Vec2, Vec2)> = (0..40)
                .map(|i| {
                    let p = Vec2::new((i % 8) as f64 * 15.0 + 2.0, (i / 8) as f64 * 12.0 + 3.0);
                    (p, truth.apply(p).unwrap())
                })
                .collect();
            for i in 0..8 {
                pairs.push((
                    Vec2::new(i as f64 * 9.0, 70.0),
                    Vec2::new(300.0 - i as f64 * 17.0, i as f64 * 23.0),
                ));
            }
            let fit = estimate_homography(&pairs, &RansacConfig::default(), seed)
                .unwrap()
                .expect("model must be found");
            assert!(
                fit.inliers.len() >= 40,
                "case {case}: {}",
                fit.inliers.len()
            );
            for (p, q) in pairs.iter().take(40) {
                let e = crate::homography::transfer_error(&fit.model, *p, *q);
                assert!(e < 1.0, "case {case}: transfer error {e}");
            }
        }
    }
}
