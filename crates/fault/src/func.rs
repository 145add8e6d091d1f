//! Function and operation-class identities for instrumentation.
//!
//! Every tap and every counted instruction is attributed to the pipeline
//! function executing it ([`FuncId`]) and to a coarse operation class
//! ([`OpClass`]). Function attribution serves two purposes:
//!
//! * the execution profile of Fig 8 (fraction of dynamic instructions per
//!   function, where `WarpPerspective`/`RemapBilinear` dominate), and
//! * the hot-function case study of Fig 11b, which restricts injections to
//!   the warp functions via a [`FuncMask`].

use std::fmt;
use vs_telemetry::digest::Stage;

/// Identity of an instrumented pipeline function.
///
/// The set mirrors the functions visible in the paper's `perf` profile
/// (Fig 8): the OpenCV-equivalent kernels (`FastDetect` through `Blend`)
/// plus application-level control, input decoding and the quality checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum FuncId {
    /// Input decoding / frame preparation (grayscale conversion etc.).
    Decode = 0,
    /// FAST-9 corner detection.
    FastDetect = 1,
    /// Intensity-centroid orientation assignment (ORB).
    OrbOrientation = 2,
    /// Rotated-BRIEF descriptor extraction (ORB).
    OrbDescribe = 3,
    /// Brute-force Hamming key-point matching.
    MatchKeypoints = 4,
    /// RANSAC homography estimation.
    RansacHomography = 5,
    /// Affine fallback estimation.
    EstimateAffine = 6,
    /// Perspective warp driver (the paper's `WarpPerspectiveInvoker`).
    WarpPerspective = 7,
    /// Bilinear remapping inner kernel (the paper's `remapBilinear`).
    RemapBilinear = 8,
    /// Panorama compositing / blending.
    Blend = 9,
    /// Application-level stitching control flow.
    StitchControl = 10,
    /// Output quality computation.
    Quality = 11,
    /// Synthetic input generation (excluded from pipeline statistics).
    Terrain = 12,
    /// Moving-object detection (event summarization).
    DetectMotion = 13,
    /// Object track association (event summarization).
    TrackObjects = 14,
    /// Anything not otherwise attributed.
    Other = 15,
}

/// Number of distinct [`FuncId`] values.
pub const NUM_FUNCS: usize = 16;

impl FuncId {
    /// All function ids, in discriminant order.
    pub const ALL: [FuncId; NUM_FUNCS] = [
        FuncId::Decode,
        FuncId::FastDetect,
        FuncId::OrbOrientation,
        FuncId::OrbDescribe,
        FuncId::MatchKeypoints,
        FuncId::RansacHomography,
        FuncId::EstimateAffine,
        FuncId::WarpPerspective,
        FuncId::RemapBilinear,
        FuncId::Blend,
        FuncId::StitchControl,
        FuncId::Quality,
        FuncId::Terrain,
        FuncId::DetectMotion,
        FuncId::TrackObjects,
        FuncId::Other,
    ];

    /// Stable index of this function in per-function count arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable name matching the paper's profile labels.
    pub fn name(self) -> &'static str {
        match self {
            FuncId::Decode => "decode",
            FuncId::FastDetect => "fast_detect",
            FuncId::OrbOrientation => "orb_orientation",
            FuncId::OrbDescribe => "orb_describe",
            FuncId::MatchKeypoints => "match_keypoints",
            FuncId::RansacHomography => "ransac_homography",
            FuncId::EstimateAffine => "estimate_affine",
            FuncId::WarpPerspective => "warp_perspective",
            FuncId::RemapBilinear => "remap_bilinear",
            FuncId::Blend => "blend",
            FuncId::StitchControl => "stitch_control",
            FuncId::Quality => "quality",
            FuncId::Terrain => "terrain",
            FuncId::DetectMotion => "detect_motion",
            FuncId::TrackObjects => "track_objects",
            FuncId::Other => "other",
        }
    }

    /// Whether this function is part of the vision-library layer (the
    /// paper's "OpenCV libraries" bucket in Fig 8) rather than the
    /// application layer.
    pub fn is_library(self) -> bool {
        matches!(
            self,
            FuncId::FastDetect
                | FuncId::OrbOrientation
                | FuncId::OrbDescribe
                | FuncId::MatchKeypoints
                | FuncId::WarpPerspective
                | FuncId::RemapBilinear
                | FuncId::Blend
        )
    }

    /// The pipeline stage this function belongs to — the fallback
    /// forensic attribution for runs whose digest trace never diverged
    /// (the fault was absorbed before any stage boundary) or never
    /// completed (crash/hang).
    pub fn stage(self) -> Stage {
        match self {
            FuncId::Decode => Stage::Decode,
            FuncId::FastDetect => Stage::Fast,
            FuncId::OrbOrientation | FuncId::OrbDescribe => Stage::Orb,
            FuncId::MatchKeypoints => Stage::Match,
            FuncId::RansacHomography | FuncId::EstimateAffine => Stage::Ransac,
            FuncId::WarpPerspective | FuncId::RemapBilinear | FuncId::Blend => Stage::Warp,
            // Application control flow, the quality checker and the
            // event-summarization helpers all run at the summary level;
            // Terrain only executes during input synthesis (never inside
            // a campaign) and Other is the unattributed bucket.
            FuncId::StitchControl
            | FuncId::Quality
            | FuncId::Terrain
            | FuncId::DetectMotion
            | FuncId::TrackObjects
            | FuncId::Other => Stage::Summary,
        }
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Coarse operation class of a counted instruction or tap.
///
/// The class drives the CPI/energy model in `vs-perfmodel` and is recorded
/// on fired faults so crash causes can be analysed (address and control
/// corruption crash far more often than data corruption — the paper's
/// explanation for the ~40% GPR crash rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum OpClass {
    /// Integer ALU work on data values.
    IntAlu = 0,
    /// Address/index computation feeding a memory access.
    Addr = 1,
    /// Control-flow decisions (loop bounds, trip counts, branches).
    Control = 2,
    /// Floating-point arithmetic.
    Float = 3,
    /// Memory loads/stores.
    Mem = 4,
}

/// Number of distinct [`OpClass`] values.
pub const NUM_CLASSES: usize = 5;

impl OpClass {
    /// All operation classes, in discriminant order.
    pub const ALL: [OpClass; NUM_CLASSES] = [
        OpClass::IntAlu,
        OpClass::Addr,
        OpClass::Control,
        OpClass::Float,
        OpClass::Mem,
    ];

    /// Stable index of this class in per-class count arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::IntAlu => "int_alu",
            OpClass::Addr => "addr",
            OpClass::Control => "control",
            OpClass::Float => "float",
            OpClass::Mem => "mem",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of [`FuncId`]s in which faults are eligible to fire.
///
/// The default mask covers every function; the Fig 11b case study uses
/// `FuncMask::only(&[FuncId::WarpPerspective, FuncId::RemapBilinear])` to
/// confine injections to the hot function, both inside the full pipeline
/// and inside the standalone `WP` toy benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuncMask(u64);

impl FuncMask {
    /// Mask covering every function.
    pub fn all() -> Self {
        FuncMask(!0)
    }

    /// Mask covering exactly the given functions.
    pub fn only(funcs: &[FuncId]) -> Self {
        let mut bits = 0u64;
        for f in funcs {
            bits |= 1u64 << f.index();
        }
        FuncMask(bits)
    }

    /// Whether faults may fire inside `func`.
    #[inline]
    pub fn contains(self, func: FuncId) -> bool {
        self.0 & (1u64 << func.index()) != 0
    }

    /// Raw bit representation (one bit per [`FuncId`] index).
    #[inline]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Reconstruct a mask from [`Self::bits`].
    #[inline]
    pub fn from_bits(bits: u64) -> Self {
        FuncMask(bits)
    }
}

impl Default for FuncMask {
    fn default() -> Self {
        FuncMask::all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_follow_the_dataflow() {
        // Exhaustiveness is enforced by the match; spot-check the
        // dataflow mapping.
        assert_eq!(FuncId::Decode.stage(), Stage::Decode);
        assert_eq!(FuncId::OrbDescribe.stage(), Stage::Orb);
        assert_eq!(FuncId::Blend.stage(), Stage::Warp);
        assert_eq!(FuncId::StitchControl.stage(), Stage::Summary);
    }

    #[test]
    fn func_indices_are_dense_and_unique() {
        for (i, f) in FuncId::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
        }
    }

    #[test]
    fn class_indices_are_dense_and_unique() {
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = FuncId::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_FUNCS);
    }

    #[test]
    fn mask_all_contains_everything() {
        let m = FuncMask::all();
        for f in FuncId::ALL {
            assert!(m.contains(f));
        }
    }

    #[test]
    fn mask_only_is_exact() {
        let m = FuncMask::only(&[FuncId::WarpPerspective, FuncId::RemapBilinear]);
        assert!(m.contains(FuncId::WarpPerspective));
        assert!(m.contains(FuncId::RemapBilinear));
        assert!(!m.contains(FuncId::FastDetect));
        assert!(!m.contains(FuncId::Other));
    }

    #[test]
    fn mask_roundtrips_through_bits() {
        let m = FuncMask::only(&[FuncId::Blend]);
        assert_eq!(FuncMask::from_bits(m.bits()), m);
    }

    #[test]
    fn library_split_matches_paper_buckets() {
        assert!(FuncId::WarpPerspective.is_library());
        assert!(FuncId::RemapBilinear.is_library());
        assert!(!FuncId::StitchControl.is_library());
        assert!(!FuncId::Decode.is_library());
    }
}
