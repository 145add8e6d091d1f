//! Forensic stage digests: the per-stage rolling hashes an instrumented
//! pipeline run folds into the observation context, and the fold itself.
//!
//! Instrumented stages fold cheap splitmix64 digests of their outputs
//! into the thread's [`DigestTrace`] (one rolling hash per [`Stage`]) —
//! but only while a trace is being recorded ([`record_from`]). With no
//! trace recording, [`enabled`] is one thread-local read and a branch
//! and every record call is a no-op, so runs without forensics are
//! provably unperturbed. Attribution — comparing an injected run's trace
//! with the golden run's — lives in `vs_fault::forensics`.
//!
//! The golden digests key the persisted compositional campaign cache,
//! so the fold, the stage order and the instrumentation sites are part
//! of the cache format: changing any of them cold-starts every cache.

use crate::context::{self, Guard, Saved};

/// Number of instrumented pipeline stages.
pub const NUM_STAGES: usize = 8;

/// One instrumented stage of the summarization pipeline, in dataflow
/// order. Digest comparison walks this order, so "first divergence"
/// means "earliest point in the dataflow where injected state differs
/// from golden".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Stage {
    /// Frame decode / grayscale conversion.
    Decode = 0,
    /// Image pyramid construction.
    Pyramid = 1,
    /// FAST-9 corner detection.
    Fast = 2,
    /// ORB orientation + descriptor extraction.
    Orb = 3,
    /// Brute-force descriptor matching.
    Match = 4,
    /// RANSAC/affine model estimation.
    Ransac = 5,
    /// Perspective warp and canvas compositing.
    Warp = 6,
    /// Summary assembly (panoramas, origins, run statistics).
    Summary = 7,
}

impl Stage {
    /// All stages, in dataflow order.
    pub const ALL: [Stage; NUM_STAGES] = [
        Stage::Decode,
        Stage::Pyramid,
        Stage::Fast,
        Stage::Orb,
        Stage::Match,
        Stage::Ransac,
        Stage::Warp,
        Stage::Summary,
    ];

    /// Stable index of this stage in per-stage arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short lowercase name used in reports and telemetry fields.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Pyramid => "pyramid",
            Stage::Fast => "fast",
            Stage::Orb => "orb",
            Stage::Match => "match",
            Stage::Ransac => "ransac",
            Stage::Warp => "warp",
            Stage::Summary => "summary",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-stage rolling digests of one pipeline run.
///
/// Every record folds order-sensitively into its stage's slot
/// (`digest = hash_fold(digest, value)`), and `counts` tracks how many
/// records each stage folded — two traces are equal only if every stage
/// saw the same values in the same order, the same number of times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DigestTrace {
    digests: [u64; NUM_STAGES],
    counts: [u64; NUM_STAGES],
}

impl DigestTrace {
    /// Fold one digest into a stage's rolling hash.
    #[inline]
    pub fn fold(&mut self, stage: Stage, digest: u64) {
        let i = stage.index();
        self.digests[i] = hash_fold(self.digests[i], digest);
        self.counts[i] = self.counts[i].wrapping_add(1);
    }

    /// The rolling digest of one stage.
    #[inline]
    pub fn digest(&self, stage: Stage) -> u64 {
        self.digests[stage.index()]
    }

    /// How many records one stage folded.
    #[inline]
    pub fn count(&self, stage: Stage) -> u64 {
        self.counts[stage.index()]
    }

    /// Whether a stage's digest (or record count) differs from `golden`'s.
    #[inline]
    pub fn diverges_at(&self, golden: &DigestTrace, stage: Stage) -> bool {
        self.digest(stage) != golden.digest(stage) || self.count(stage) != golden.count(stage)
    }
}

/// Splitmix64 finalizer — a bijection on `u64`, the same values as
/// `vs_rng::mix64` (this crate is deliberately dependency-free).
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Fold one 64-bit value into a running splitmix64 hash.
///
/// The fold is order-sensitive (`hash_fold(hash_fold(h, a), b)` differs
/// from `hash_fold(hash_fold(h, b), a)` except on collisions), which is
/// what a state digest needs: the same values recorded in a different
/// order must produce a different digest.
#[inline]
pub fn hash_fold(h: u64, v: u64) -> u64 {
    mix64(h ^ v)
}

/// Hash a byte slice into a 64-bit digest seeded at `seed`.
///
/// Folds 8-byte little-endian chunks through [`hash_fold`], then the
/// zero-padded tail, then the length (so `[0]` and `[0, 0]` differ and
/// a trailing zero byte is never silently absorbed).
#[must_use]
pub fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = hash_fold(h, u64::from_le_bytes(c.try_into().unwrap()));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut buf = [0u8; 8];
        buf[..tail.len()].copy_from_slice(tail);
        h = hash_fold(h, u64::from_le_bytes(buf));
    }
    hash_fold(h, bytes.len() as u64)
}

/// Record digests on this thread until the guard drops, starting from
/// `base`: an empty trace for a run from the start, or the trace a
/// golden-prefix checkpoint accumulated before its capture point, so a
/// fast-forwarded run's fold over the replayed suffix lands on the same
/// digests a from-scratch run would produce.
pub fn record_from(base: DigestTrace) -> Guard {
    Guard::restoring(Saved::Digests(context::with(|cx| {
        cx.digests.replace(Some(base))
    })))
}

/// Whether this thread is recording a digest trace. Instrumentation
/// sites whose digest input needs assembling (serializing keypoints,
/// model matrices) gate on this.
#[inline]
pub fn enabled() -> bool {
    context::with(|cx| cx.digests.borrow().is_some())
}

/// Fold one pre-computed digest into this thread's trace (no-op when
/// not recording).
#[inline]
pub fn record(stage: Stage, digest: u64) {
    context::with(|cx| {
        if let Some(trace) = cx.digests.borrow_mut().as_mut() {
            trace.fold(stage, digest);
        }
    });
}

/// Hash a byte slice and fold it into this thread's trace. The hash is
/// only computed while recording.
pub fn record_bytes(stage: Stage, bytes: &[u8]) {
    if enabled() {
        record(stage, hash_bytes(stage.index() as u64, bytes));
    }
}

/// The trace recorded so far on this thread (empty when not
/// recording). Checkpoint capture snapshots the prefix trace with this.
#[inline]
pub fn trace() -> DigestTrace {
    context::with(|cx| cx.digests.borrow().unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_is_order_sensitive_per_stage() {
        let mut a = DigestTrace::default();
        a.fold(Stage::Fast, 1);
        a.fold(Stage::Fast, 2);
        let mut b = DigestTrace::default();
        b.fold(Stage::Fast, 2);
        b.fold(Stage::Fast, 1);
        assert_ne!(a, b);
        assert_eq!(a.count(Stage::Fast), 2);
        assert_eq!(a.digest(Stage::Warp), 0, "other stages untouched");
        assert_eq!(
            hash_fold(hash_fold(0, 1), 2),
            a.digest(Stage::Fast),
            "a stage digest is the plain fold of its records"
        );
    }

    #[test]
    fn count_only_divergence_is_detected() {
        // Same rolling digest values but a different record count must
        // still count as divergence (guards against fold-count slips).
        let mut golden = DigestTrace::default();
        golden.fold(Stage::Ransac, 9);
        let mut injected = golden;
        injected.counts[Stage::Ransac.index()] += 1;
        assert!(injected.diverges_at(&golden, Stage::Ransac));
        assert!(!injected.diverges_at(&golden, Stage::Warp));
    }

    #[test]
    fn hash_bytes_separates_length_and_padding() {
        assert_eq!(hash_bytes(7, b"abc"), hash_bytes(7, b"abc"));
        assert_ne!(hash_bytes(7, b"abc"), hash_bytes(8, b"abc"));
        assert_ne!(hash_bytes(0, &[0]), hash_bytes(0, &[0, 0]));
        assert_ne!(hash_bytes(0, &[]), hash_bytes(0, &[0]));
        assert_ne!(hash_bytes(0, &[1; 8]), hash_bytes(0, &[1; 9]));
    }
}
