//! Pipeline configuration and the approximation knobs of §IV.

use vs_features::OrbConfig;
use vs_geometry::RansacConfig;
use vs_warp::CompositeOptions;

/// The software approximation applied to the VS algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Approximation {
    /// The precise baseline algorithm.
    #[default]
    Baseline,
    /// *VS_RFD* — randomly drop a fraction of input frames (input
    /// sampling). The paper evaluates up to 10%.
    Rfd {
        /// Probability of dropping each frame, in `[0, 1]`.
        drop_rate: f64,
    },
    /// *VS_KDS* — match only `1 / keep_divisor` of the key points
    /// (selective computation). The paper uses one third.
    Kds {
        /// Keep every `keep_divisor`-th key point (≥ 1).
        keep_divisor: usize,
    },
    /// *VS_SM* — single-nearest-neighbour matching with an absolute
    /// distance bound instead of the 2-NN ratio test (algorithmic
    /// transformation).
    Sm {
        /// Maximum accepted Hamming distance.
        max_distance: u32,
    },
}

impl Approximation {
    /// The paper's RFD operating point: drop 10% of frames.
    pub fn rfd_default() -> Self {
        Approximation::Rfd { drop_rate: 0.10 }
    }

    /// The paper's KDS operating point: keep one third of key points.
    pub fn kds_default() -> Self {
        Approximation::Kds { keep_divisor: 3 }
    }

    /// The default SM operating point: near-perfect matches only.
    pub fn sm_default() -> Self {
        Approximation::Sm { max_distance: 26 }
    }

    /// Short name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Approximation::Baseline => "VS",
            Approximation::Rfd { .. } => "VS_RFD",
            Approximation::Kds { .. } => "VS_KDS",
            Approximation::Sm { .. } => "VS_SM",
        }
    }

    /// The four algorithm variants at their paper operating points, in
    /// figure order.
    pub fn paper_variants() -> [Approximation; 4] {
        [
            Approximation::Baseline,
            Approximation::rfd_default(),
            Approximation::kds_default(),
            Approximation::sm_default(),
        ]
    }
}

impl std::fmt::Display for Approximation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full configuration of the VS pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Feature detector/descriptor settings.
    pub orb: OrbConfig,
    /// RANSAC settings for homography estimation.
    pub ransac: RansacConfig,
    /// Lowe ratio for the baseline matcher.
    pub match_ratio: f64,
    /// Minimum matches required to attempt a homography.
    pub min_matches_homography: usize,
    /// Minimum matches required to attempt the affine fallback.
    pub min_matches_affine: usize,
    /// Consecutive discarded frames before the current mini-panorama is
    /// closed and a new segment begins.
    pub max_discard_streak: usize,
    /// The active approximation.
    pub approximation: Approximation,
    /// Compositing options (the blend mode). The default reproduces the
    /// paper's overwrite stitching.
    pub compositing: CompositeOptions,
    /// Seed for all pipeline randomness (RANSAC sampling, RFD drops).
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            orb: OrbConfig {
                fast_threshold: 14,
                max_features: 240,
                levels: 2,
                min_level_size: 32,
            },
            ransac: RansacConfig {
                iterations: 120,
                inlier_threshold: 2.0,
                min_inliers: 10,
                refine: true,
            },
            match_ratio: 0.8,
            min_matches_homography: 12,
            min_matches_affine: 6,
            max_discard_streak: 2,
            approximation: Approximation::Baseline,
            compositing: CompositeOptions::default(),
            seed: 0x5eed_0001,
        }
    }
}

impl PipelineConfig {
    /// Replace the approximation, keeping everything else.
    pub fn with_approximation(mut self, approx: Approximation) -> Self {
        self.approximation = approx;
        self
    }

    /// Replace the seed, keeping everything else.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the compositing options, keeping everything else.
    pub fn with_compositing(mut self, compositing: CompositeOptions) -> Self {
        self.compositing = compositing;
        self
    }

    /// Stable 64-bit digest over every configuration field — provenance
    /// for campaign caches and bench artifacts, so a measurement can be
    /// tied to the exact pipeline settings it was taken under. Any
    /// field change (including approximation operating points and float
    /// knobs, folded by bit pattern) changes the digest.
    pub fn digest(&self) -> u64 {
        use vs_fault::mix64;
        let approx = match self.approximation {
            Approximation::Baseline => (0u64, 0u64),
            Approximation::Rfd { drop_rate } => (1, drop_rate.to_bits()),
            Approximation::Kds { keep_divisor } => (2, keep_divisor as u64),
            Approximation::Sm { max_distance } => (3, u64::from(max_distance)),
        };
        let blend = match self.compositing.blend {
            vs_warp::BlendMode::Overwrite => 0u64,
            vs_warp::BlendMode::Feather => 1,
        };
        let parts = [
            u64::from(self.orb.fast_threshold),
            self.orb.max_features as u64,
            self.orb.levels as u64,
            self.orb.min_level_size as u64,
            self.ransac.iterations as u64,
            self.ransac.inlier_threshold.to_bits(),
            self.ransac.min_inliers as u64,
            u64::from(self.ransac.refine),
            self.match_ratio.to_bits(),
            self.min_matches_homography as u64,
            self.min_matches_affine as u64,
            self.max_discard_streak as u64,
            approx.0,
            approx.1,
            blend,
            self.seed,
        ];
        let mut k = mix64(0x0c0f_16d1_6e57_0001);
        for p in parts {
            k = mix64(k ^ p);
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names_match_paper() {
        let names: Vec<_> = Approximation::paper_variants()
            .iter()
            .map(|a| a.name())
            .collect();
        assert_eq!(names, vec!["VS", "VS_RFD", "VS_KDS", "VS_SM"]);
    }

    #[test]
    fn defaults_are_sane() {
        let c = PipelineConfig::default();
        assert!(c.min_matches_homography > c.min_matches_affine);
        assert!(c.ransac.min_inliers >= 4);
        assert_eq!(c.approximation, Approximation::Baseline);
        assert!(matches!(
            Approximation::rfd_default(),
            Approximation::Rfd { drop_rate } if (drop_rate - 0.1).abs() < 1e-12
        ));
        assert!(matches!(
            Approximation::kds_default(),
            Approximation::Kds { keep_divisor: 3 }
        ));
    }

    #[test]
    fn digest_tracks_every_knob() {
        let base = PipelineConfig::default();
        assert_eq!(base.digest(), PipelineConfig::default().digest());
        let mut seen = vec![base.digest()];
        for variant in [
            base.clone().with_seed(99),
            base.clone()
                .with_approximation(Approximation::kds_default()),
            base.clone()
                .with_approximation(Approximation::Rfd { drop_rate: 0.2 }),
            {
                let mut c = base.clone();
                c.match_ratio = 0.7;
                c
            },
            {
                let mut c = base.clone();
                c.orb.fast_threshold = 15;
                c
            },
        ] {
            let d = variant.digest();
            assert!(!seen.contains(&d), "digest collision for {variant:?}");
            seen.push(d);
        }
    }

    #[test]
    fn builder_methods_compose() {
        let c = PipelineConfig::default()
            .with_seed(99)
            .with_approximation(Approximation::sm_default());
        assert_eq!(c.seed, 99);
        assert_eq!(c.approximation.name(), "VS_SM");
    }
}
