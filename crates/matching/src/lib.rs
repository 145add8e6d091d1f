//! Brute-force descriptor matching with the two policies the paper
//! studies.
//!
//! The baseline *VS* algorithm matches key points with a k-nearest-
//! neighbour search (k = 2) over Hamming distance and keeps a match only
//! when the nearest neighbour is sufficiently closer than the second
//! nearest — Lowe's ratio test, which suppresses false positives
//! (§III-A). The *VS_SM* (Simple Matching) approximation replaces this
//! with a single-nearest-neighbour search bounded by an absolute distance
//! cap (§IV, approximation 3).
//!
//! Both matchers are fault-instrumented: query indices flow through
//! address taps (corruption → simulated segfault) and accepted distances
//! through data taps (corruption → spurious or lost matches downstream).
//!
//! # Example
//!
//! ```
//! use vs_matching::{RatioMatcher, SimpleMatcher};
//! use vs_features::Descriptor;
//!
//! let a = Descriptor([0b1111, 0, 0, 0]);
//! let b = Descriptor([0b1110, 0, 0, 0]);      // distance 1 to `a`
//! let far = Descriptor([!0, !0, 0, 0]);       // distance >100 to `a`
//! let matches = RatioMatcher::default()
//!     .matches(&[a], &[b, far])?;
//! assert_eq!(matches.len(), 1);
//! assert_eq!(matches[0].train, 0);
//!
//! let simple = SimpleMatcher::default().matches(&[a], &[b, far])?;
//! assert_eq!(simple[0].distance, 1);
//! # Ok::<(), vs_fault::SimError>(())
//! ```

use vs_fault::{tap, FuncId, OpClass, SimError};
use vs_features::Descriptor;
use vs_image::SimdLevel;
use vs_telemetry::digest::Stage;
use vs_telemetry::Value;

mod simd;
use simd::{bounded_dist_for, BoundedDist};

/// A correspondence between a query descriptor and a train descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Match {
    /// Index into the query descriptor set.
    pub query: usize,
    /// Index into the train descriptor set.
    pub train: usize,
    /// Hamming distance of the pair.
    pub distance: u32,
}

/// The two nearest neighbours of a query descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TwoNearest {
    best: usize,
    best_dist: u32,
    second_dist: u32,
}

/// Scan `train` for the two nearest neighbours of `desc`, tallying
/// abandoned candidate scans into `early_exits`. The SWAR half-wise
/// scan is the reference strategy; `two_nearest_with` takes any
/// strategy from the dispatch table (all observationally identical).
#[cfg(test)]
fn two_nearest(
    desc: &Descriptor,
    train: &[Descriptor],
    early_exits: &mut u64,
) -> Option<TwoNearest> {
    two_nearest_with(desc, train, early_exits, Descriptor::hamming_bounded)
}

/// [`two_nearest`] parameterized on the bounded-distance strategy the
/// dispatch level selected. Every strategy returns `Some(d)` iff the
/// true distance is below the bound, so the neighbours found and the
/// `early_exits` tally (one per `None`) are identical across levels.
fn two_nearest_with(
    desc: &Descriptor,
    train: &[Descriptor],
    early_exits: &mut u64,
    dist: BoundedDist,
) -> Option<TwoNearest> {
    let mut best = usize::MAX;
    let mut best_dist = u32::MAX;
    let mut second_dist = u32::MAX;
    for (j, t) in train.iter().enumerate() {
        // Early exit: a candidate at or above the current second-best
        // distance can affect neither slot, so its scan is abandoned as
        // soon as the partial word sums prove that (exact — see
        // `Descriptor::hamming_bounded`).
        let Some(d) = dist(desc, t, second_dist) else {
            *early_exits += 1;
            continue;
        };
        if d < best_dist {
            second_dist = best_dist;
            best_dist = d;
            best = j;
        } else {
            second_dist = d;
        }
    }
    (best != usize::MAX).then_some(TwoNearest {
        best,
        best_dist,
        second_dist,
    })
}

/// Baseline matcher: 2-NN search + Lowe ratio test.
///
/// A match is kept when `best_dist < ratio * second_dist`, i.e. the
/// nearest neighbour is unambiguously closer than the runner-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioMatcher {
    /// Ratio threshold in (0, 1]; smaller is stricter. Default 0.8.
    pub ratio: f64,
}

impl Default for RatioMatcher {
    fn default() -> Self {
        RatioMatcher { ratio: 0.8 }
    }
}

impl RatioMatcher {
    /// Match every query descriptor against the train set.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Segfault`] when a fault-corrupted query index
    /// escapes the descriptor array; propagates hang-budget exhaustion.
    pub fn matches(
        &self,
        query: &[Descriptor],
        train: &[Descriptor],
    ) -> Result<Vec<Match>, SimError> {
        let mut out = Vec::new();
        self.matches_into(query, train, &mut out)?;
        Ok(out)
    }

    /// [`RatioMatcher::matches`] into a caller-owned vector (cleared
    /// first), reusing its allocation. Tap stream and matches are
    /// bit-identical.
    ///
    /// # Errors
    ///
    /// Same as [`RatioMatcher::matches`].
    pub fn matches_into(
        &self,
        query: &[Descriptor],
        train: &[Descriptor],
        out: &mut Vec<Match>,
    ) -> Result<(), SimError> {
        self.matches_into_level(query, train, out, vs_image::dispatch::level())
    }

    /// [`RatioMatcher::matches_into`] at an explicit dispatch level.
    /// Matches, tap stream and early-exit telemetry are bit-identical
    /// across levels; only the Hamming inner loop changes.
    ///
    /// # Errors
    ///
    /// Same as [`RatioMatcher::matches`].
    pub fn matches_into_level(
        &self,
        query: &[Descriptor],
        train: &[Descriptor],
        out: &mut Vec<Match>,
        level: SimdLevel,
    ) -> Result<(), SimError> {
        let dist = bounded_dist_for(level);
        // Telemetry-only stage span (no taps); near-free without a sink.
        let _stage = vs_telemetry::span(Stage::Match.name());
        let _f = tap::scope(FuncId::MatchKeypoints);
        out.clear();
        let mut early_exits = 0u64;
        for i in 0..query.len() {
            // Cost model: one 256-bit Hamming distance is 4 xors + 4
            // popcounts + compare per train entry.
            tap::work(OpClass::IntAlu, 10 * train.len() as u64)?;
            tap::work(OpClass::Mem, 4 * train.len() as u64)?;
            tap::work(OpClass::Control, train.len() as u64)?;
            let qi = tap::addr(i);
            let desc = query.get(qi).ok_or(SimError::Segfault)?;
            let Some(nn) = two_nearest_with(desc, train, &mut early_exits, dist) else {
                continue;
            };
            let best_dist = tap::gpr(nn.best_dist as u64) as u32;
            // A Hamming distance above 256 bits is impossible: corrupted
            // state caught by the library's internal assertion (abort).
            if best_dist > 256 && nn.best_dist <= 256 {
                return Err(SimError::Abort);
            }
            // With a single train entry the second distance is infinite
            // and the ratio test passes trivially, as in OpenCV.
            if (best_dist as f64) < self.ratio * nn.second_dist as f64 {
                out.push(Match {
                    query: i,
                    train: nn.best,
                    distance: best_dist,
                });
            }
        }
        emit_match_event("ratio", query.len(), train.len(), out.len(), early_exits);
        Ok(())
    }
}

/// One per-call `match` telemetry event (no-op without an installed
/// sink); the enclosing `match` span carries the call's duration.
fn emit_match_event(matcher: &str, queries: usize, train: usize, matches: usize, early_exits: u64) {
    vs_telemetry::emit(
        "match",
        &[
            ("matcher", Value::Str(matcher)),
            ("queries", Value::U64(queries as u64)),
            ("train", Value::U64(train as u64)),
            ("matches", Value::U64(matches as u64)),
            ("hamming_early_exits", Value::U64(early_exits)),
        ],
    );
}

/// *VS_SM* matcher: single nearest neighbour with an absolute distance
/// cap — "only those key points in the incoming frame which match almost
/// perfectly with those in the original frame" (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimpleMatcher {
    /// Maximum accepted Hamming distance. Default 48 (of 256 bits).
    pub max_distance: u32,
}

impl Default for SimpleMatcher {
    fn default() -> Self {
        SimpleMatcher { max_distance: 48 }
    }
}

impl SimpleMatcher {
    /// Match every query descriptor against the train set.
    ///
    /// Roughly half the arithmetic of [`RatioMatcher::matches`]: no
    /// second-nearest bookkeeping, single comparison per candidate.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Segfault`] on corrupted indices; propagates
    /// hang-budget exhaustion.
    pub fn matches(
        &self,
        query: &[Descriptor],
        train: &[Descriptor],
    ) -> Result<Vec<Match>, SimError> {
        let mut out = Vec::new();
        self.matches_into(query, train, &mut out)?;
        Ok(out)
    }

    /// [`SimpleMatcher::matches`] into a caller-owned vector (cleared
    /// first), reusing its allocation. Tap stream and matches are
    /// bit-identical.
    ///
    /// # Errors
    ///
    /// Same as [`SimpleMatcher::matches`].
    pub fn matches_into(
        &self,
        query: &[Descriptor],
        train: &[Descriptor],
        out: &mut Vec<Match>,
    ) -> Result<(), SimError> {
        self.matches_into_level(query, train, out, vs_image::dispatch::level())
    }

    /// [`SimpleMatcher::matches_into`] at an explicit dispatch level.
    /// Matches, tap stream and early-exit telemetry are bit-identical
    /// across levels; only the Hamming inner loop changes.
    ///
    /// # Errors
    ///
    /// Same as [`SimpleMatcher::matches`].
    pub fn matches_into_level(
        &self,
        query: &[Descriptor],
        train: &[Descriptor],
        out: &mut Vec<Match>,
        level: SimdLevel,
    ) -> Result<(), SimError> {
        let dist = bounded_dist_for(level);
        // Telemetry-only stage span (no taps); near-free without a sink.
        let _stage = vs_telemetry::span(Stage::Match.name());
        let _f = tap::scope(FuncId::MatchKeypoints);
        out.clear();
        let mut early_exits = 0u64;
        for i in 0..query.len() {
            tap::work(OpClass::IntAlu, 6 * train.len() as u64)?;
            tap::work(OpClass::Mem, 4 * train.len() as u64)?;
            tap::work(OpClass::Control, train.len() as u64)?;
            let qi = tap::addr(i);
            let desc = query.get(qi).ok_or(SimError::Segfault)?;
            let mut best = usize::MAX;
            let mut best_dist = u32::MAX;
            for (j, t) in train.iter().enumerate() {
                // Same early exit as `two_nearest`, bounded by the single
                // best distance.
                if let Some(d) = dist(desc, t, best_dist) {
                    best_dist = d;
                    best = j;
                } else {
                    early_exits += 1;
                }
            }
            if best == usize::MAX {
                continue;
            }
            let best_dist = tap::gpr(best_dist as u64) as u32;
            if best_dist > 256 && best != usize::MAX {
                return Err(SimError::Abort);
            }
            if best_dist <= self.max_distance {
                out.push(Match {
                    query: i,
                    train: best,
                    distance: best_dist,
                });
            }
        }
        emit_match_event("simple", query.len(), train.len(), out.len(), early_exits);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_fault::mix64;

    fn random_desc(seed: u64) -> Descriptor {
        Descriptor([
            mix64(seed),
            mix64(seed ^ 1),
            mix64(seed ^ 2),
            mix64(seed ^ 3),
        ])
    }

    /// Flip `n` deterministic bit positions of a descriptor.
    fn perturb(d: &Descriptor, n: u32, salt: u64) -> Descriptor {
        let mut out = *d;
        let mut flipped = 0;
        let mut k = salt;
        while flipped < n {
            k = mix64(k);
            let bit = (k % 256) as usize;
            let mask = 1u64 << (bit % 64);
            if out.0[bit / 64] & mask == d.0[bit / 64] & mask {
                out.0[bit / 64] ^= mask;
                flipped += 1;
            }
        }
        out
    }

    #[test]
    fn ratio_matcher_finds_clear_correspondences() {
        let train: Vec<Descriptor> = (0..20).map(|i| random_desc(1000 + i)).collect();
        // Queries are noisy copies of train entries (8 bits flipped).
        let query: Vec<Descriptor> = train
            .iter()
            .enumerate()
            .map(|(i, d)| perturb(d, 8, i as u64))
            .collect();
        let m = RatioMatcher::default().matches(&query, &train).unwrap();
        assert_eq!(m.len(), 20, "all clean correspondences must survive");
        for mm in &m {
            assert_eq!(mm.query, mm.train);
            assert!(mm.distance <= 8);
        }
    }

    #[test]
    fn ratio_test_rejects_ambiguous_matches() {
        // Two nearly identical train entries: the 2-NN distances tie, so
        // the ratio test must reject the match ("two identical objects").
        let base = random_desc(7);
        let train = vec![perturb(&base, 1, 11), perturb(&base, 1, 22)];
        let query = vec![base];
        let m = RatioMatcher { ratio: 0.8 }.matches(&query, &train).unwrap();
        assert!(m.is_empty(), "ambiguous match must be filtered: {m:?}");
        // The simple matcher, by design, accepts it (possible mismatch).
        let s = SimpleMatcher::default().matches(&query, &train).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn simple_matcher_enforces_distance_cap() {
        let a = random_desc(1);
        let far = perturb(&a, 120, 5);
        let m = SimpleMatcher { max_distance: 48 }
            .matches(&[a], &[far])
            .unwrap();
        assert!(m.is_empty());
        let near = perturb(&a, 10, 6);
        let m = SimpleMatcher { max_distance: 48 }
            .matches(&[a], &[near, far])
            .unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].train, 0);
    }

    #[test]
    fn empty_sets_produce_no_matches() {
        let d = [random_desc(3)];
        assert!(RatioMatcher::default().matches(&[], &d).unwrap().is_empty());
        assert!(RatioMatcher::default().matches(&d, &[]).unwrap().is_empty());
        assert!(SimpleMatcher::default()
            .matches(&d, &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn single_train_entry_passes_ratio_trivially() {
        let a = random_desc(9);
        let near = perturb(&a, 4, 1);
        let m = RatioMatcher::default().matches(&[a], &[near]).unwrap();
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn exact_self_match_has_zero_distance() {
        let train: Vec<Descriptor> = (0..10).map(|i| random_desc(50 + i)).collect();
        let m = RatioMatcher::default().matches(&train, &train).unwrap();
        for mm in &m {
            assert_eq!(mm.query, mm.train);
            assert_eq!(mm.distance, 0);
        }
    }

    #[test]
    fn match_events_report_early_exit_counts() {
        let train: Vec<Descriptor> = (0..20).map(|i| random_desc(1000 + i)).collect();
        let query: Vec<Descriptor> = train
            .iter()
            .enumerate()
            .map(|(i, d)| perturb(d, 8, i as u64))
            .collect();
        let quiet = RatioMatcher::default().matches(&query, &train).unwrap();

        let sink = std::sync::Arc::new(vs_telemetry::MemorySink::new());
        let observed = {
            let _g = vs_telemetry::install(sink.clone());
            RatioMatcher::default().matches(&query, &train).unwrap()
        };
        // Telemetry must not change the matches themselves.
        assert_eq!(observed, quiet);

        let events = sink.events();
        let ev = events
            .iter()
            .find(|e| e.name == "match")
            .expect("match event emitted");
        assert_eq!(ev.str("matcher"), Some("ratio"));
        assert_eq!(ev.u64("queries"), Some(20));
        assert_eq!(ev.u64("train"), Some(20));
        assert_eq!(ev.u64("matches"), Some(quiet.len() as u64));
        // With noisy copies of distinct random descriptors, most of the
        // 20×20 candidate scans are abandoned early.
        let exits = ev.u64("hamming_early_exits").unwrap();
        assert!(exits > 0 && exits < 400, "exits = {exits}");
        // The call's duration is its `match` stage span.
        let spans = events.iter().filter(|e| e.str("span") == Some("match"));
        assert_eq!(spans.count(), 2, "one match span, entered and exited");
    }

    #[test]
    fn matches_into_reuses_buffer_identically() {
        let train: Vec<Descriptor> = (0..20).map(|i| random_desc(1000 + i)).collect();
        let query: Vec<Descriptor> = train
            .iter()
            .enumerate()
            .map(|(i, d)| perturb(d, 8, i as u64))
            .collect();
        let mut out = Vec::new();
        let ratio = RatioMatcher::default();
        ratio.matches_into(&query, &train, &mut out).unwrap();
        assert_eq!(out, ratio.matches(&query, &train).unwrap());
        let cap = out.capacity();
        ratio.matches_into(&query, &train, &mut out).unwrap();
        assert_eq!(out.capacity(), cap, "steady state must reuse the buffer");
        let simple = SimpleMatcher::default();
        simple.matches_into(&query, &train, &mut out).unwrap();
        assert_eq!(out, simple.matches(&query, &train).unwrap());
    }

    #[test]
    fn simple_matcher_is_stricter_with_smaller_cap() {
        let train: Vec<Descriptor> = (0..30).map(|i| random_desc(200 + i)).collect();
        let query: Vec<Descriptor> = train
            .iter()
            .enumerate()
            .map(|(i, d)| perturb(d, (i as u32 * 3) % 90, i as u64))
            .collect();
        let loose = SimpleMatcher { max_distance: 100 }
            .matches(&query, &train)
            .unwrap();
        let tight = SimpleMatcher { max_distance: 10 }
            .matches(&query, &train)
            .unwrap();
        assert!(tight.len() <= loose.len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use vs_rng::SplitMix64;

    fn rand_desc(rng: &mut SplitMix64) -> Descriptor {
        Descriptor([
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        ])
    }

    fn rand_descs(rng: &mut SplitMix64, lo: usize, hi: usize) -> Vec<Descriptor> {
        let n: usize = rng.gen_range(lo..hi);
        (0..n).map(|_| rand_desc(rng)).collect()
    }

    /// Matches always reference valid indices and report the true
    /// Hamming distance of the pair.
    #[test]
    fn matches_are_consistent() {
        let mut rng = SplitMix64::new(0x3a7c_0001);
        for _ in 0..128u64 {
            let query = rand_descs(&mut rng, 0, 13);
            let train = rand_descs(&mut rng, 0, 13);
            for m in RatioMatcher::default().matches(&query, &train).unwrap() {
                assert!(m.query < query.len());
                assert!(m.train < train.len());
                assert_eq!(m.distance, query[m.query].hamming(&train[m.train]));
            }
            for m in SimpleMatcher::default().matches(&query, &train).unwrap() {
                assert!(m.query < query.len());
                assert!(m.train < train.len());
                assert_eq!(m.distance, query[m.query].hamming(&train[m.train]));
                assert!(m.distance <= SimpleMatcher::default().max_distance);
            }
        }
    }

    /// The early-exit Hamming scan must select exactly the neighbours a
    /// naive full-distance scan selects — same winner on ties included,
    /// since both keep the first index at the minimum distance.
    #[test]
    fn early_exit_scan_matches_naive_scan() {
        let mut rng = SplitMix64::new(0x3a7c_0003);
        for case in 0..256u64 {
            let query = rand_descs(&mut rng, 1, 8);
            // Low-entropy descriptors every other case to force ties.
            let train: Vec<Descriptor> = if case % 2 == 0 {
                rand_descs(&mut rng, 1, 20)
            } else {
                let n = rng.gen_range(1..20usize);
                (0..n)
                    .map(|_| Descriptor([rng.next_u64() & 0xff, 0, 0, 0]))
                    .collect()
            };
            for q in &query {
                // Naive two-nearest, as the pre-optimization code did it.
                let (mut best, mut bd, mut sd) = (usize::MAX, u32::MAX, u32::MAX);
                for (j, t) in train.iter().enumerate() {
                    let d = q.hamming(t);
                    if d < bd {
                        sd = bd;
                        bd = d;
                        best = j;
                    } else if d < sd {
                        sd = d;
                    }
                }
                let nn = two_nearest(q, &train, &mut 0).unwrap();
                assert_eq!((nn.best, nn.best_dist, nn.second_dist), (best, bd, sd));
            }
            let ratio = RatioMatcher::default().matches(&query, &train).unwrap();
            for m in &ratio {
                let min = train.iter().map(|t| query[m.query].hamming(t)).min();
                assert_eq!(Some(m.distance), min);
            }
        }
    }

    /// Every available dispatch level yields the same matches AND the
    /// same `hamming_early_exits` telemetry as the SWAR reference, for
    /// both matchers, on random and tie-heavy descriptor sets.
    #[test]
    fn matcher_levels_agree_with_swar_reference() {
        let mut rng = SplitMix64::new(0x3a7c_0004);
        let ratio = RatioMatcher::default();
        let simple = SimpleMatcher { max_distance: 128 };
        let run = |level: SimdLevel, query: &[Descriptor], train: &[Descriptor]| {
            let sink = std::sync::Arc::new(vs_telemetry::MemorySink::new());
            let mut r = Vec::new();
            let mut s = Vec::new();
            {
                let _g = vs_telemetry::install(sink.clone());
                ratio
                    .matches_into_level(query, train, &mut r, level)
                    .unwrap();
                simple
                    .matches_into_level(query, train, &mut s, level)
                    .unwrap();
            }
            let exits: Vec<u64> = sink
                .events()
                .iter()
                .filter(|e| e.name == "match")
                .map(|e| e.u64("hamming_early_exits").unwrap())
                .collect();
            (r, s, exits)
        };
        for case in 0..48u64 {
            let query = rand_descs(&mut rng, 0, 10);
            let train: Vec<Descriptor> = if case % 2 == 0 {
                rand_descs(&mut rng, 0, 24)
            } else {
                // Low-entropy sets force distance ties and frequent exits.
                let n = rng.gen_range(0..24usize);
                (0..n)
                    .map(|_| Descriptor([rng.next_u64() & 0xffff, 0, 0, 0]))
                    .collect()
            };
            let reference = run(SimdLevel::Swar, &query, &train);
            for level in SimdLevel::ALL {
                if level == SimdLevel::Swar || !level.available() {
                    continue;
                }
                let got = run(level, &query, &train);
                assert_eq!(got, reference, "case {case} level {level}");
            }
        }
    }

    /// The simple matcher's accepted match is genuinely the nearest
    /// train descriptor.
    #[test]
    fn simple_match_is_nearest() {
        let mut rng = SplitMix64::new(0x3a7c_0002);
        for _ in 0..128u64 {
            let query = rand_descs(&mut rng, 1, 6);
            let train = rand_descs(&mut rng, 1, 12);
            let ms = SimpleMatcher { max_distance: 256 }
                .matches(&query, &train)
                .unwrap();
            for m in ms {
                let d = m.distance;
                for t in &train {
                    assert!(query[m.query].hamming(t) >= d);
                }
            }
        }
    }
}
