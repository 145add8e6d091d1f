//! Minimal deterministic pseudo-randomness for the workspace.
//!
//! The repository must build and test with no network access, so nothing
//! here may depend on external crates. This crate provides the two
//! primitives the rest of the workspace needs:
//!
//! * [`mix64`] — the splitmix64 finalizer, used as a stateless counter
//!   hash (per-injection fault draws, coordinate hashing, descriptor
//!   pattern generation).
//! * [`SplitMix64`] — a tiny sequential generator built on the same
//!   finalizer, replacing the former external `rand::StdRng` uses
//!   (RANSAC sampling, terrain structure placement).
//!
//! Determinism is the contract: every consumer seeds explicitly, and the
//! streams are stable across platforms, threads and releases. Statistical
//! quality is that of splitmix64 — far more than the simulation needs.
//!
//! # Example
//!
//! ```
//! use vs_rng::SplitMix64;
//!
//! let mut rng = SplitMix64::new(7);
//! let a: usize = rng.gen_range(0..10);
//! assert!(a < 10);
//! let x: f64 = rng.gen_range(-1.0..1.0);
//! assert!((-1.0..1.0).contains(&x));
//! // Same seed, same stream.
//! let mut again = SplitMix64::new(7);
//! assert_eq!(again.gen_range(0..10usize), a);
//! ```

use std::ops::Range;

/// Weyl increment of the splitmix64 sequence.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Deterministic 64-bit mixer (splitmix64 finalizer).
///
/// Maps a counter or key to a well-spread 64-bit value. `mix64(x)` equals
/// `finalize(x + GOLDEN_GAMMA)` — one step of splitmix64 seeded at `x`.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN_GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Sequential splitmix64 generator.
///
/// Each call to [`SplitMix64::next_u64`] advances a Weyl sequence by
/// the golden-ratio increment γ and finalizes it with [`mix64`], so the
/// stream from seed `s` is `mix64(s), mix64(s + γ), mix64(s + 2γ), …`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator seeded at `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = mix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        out
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform value in a half-open `lo..hi` range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Uniform boolean with probability `p` of `true`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// A range that [`SplitMix64::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one uniform value.
    fn sample(self, rng: &mut SplitMix64) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty => $wide:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut SplitMix64) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                let off = rng.next_u64() % span;
                ((self.start as $wide).wrapping_add(off as $wide)) as $t
            }
        }
    )*};
}

impl_int_range!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample(self, rng: &mut SplitMix64) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(0), mix64(0));
        assert_ne!(mix64(0), mix64(1));
        let a = mix64(1) % 32;
        let b = mix64(2) % 32;
        let c = mix64(3) % 32;
        assert!(!(a == b && b == c));
    }

    #[test]
    fn streams_are_reproducible() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(43);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn stream_matches_mix64_of_weyl_sequence() {
        let mut r = SplitMix64::new(5);
        assert_eq!(r.next_u64(), mix64(5));
        assert_eq!(r.next_u64(), mix64(5u64.wrapping_add(GOLDEN_GAMMA)));
    }

    #[test]
    fn int_ranges_stay_in_bounds() {
        let mut r = SplitMix64::new(1);
        for _ in 0..1000 {
            let v: usize = r.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: isize = r.gen_range(-9..-2);
            assert!((-9..-2).contains(&w));
            let b: u8 = r.gen_range(250..255);
            assert!((250..255).contains(&b));
        }
    }

    #[test]
    fn int_ranges_cover_all_values() {
        let mut r = SplitMix64::new(9);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[r.gen_range(0..8usize)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all residues must appear: {seen:?}"
        );
    }

    #[test]
    fn float_range_is_uniform_ish() {
        let mut r = SplitMix64::new(11);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.gen_range(0.0..1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = SplitMix64::new(0);
        let _: u32 = r.gen_range(5..5);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SplitMix64::new(3);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "hits {hits}");
    }
}
