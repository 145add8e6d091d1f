//! Minimal wall-clock measurement for `kernel_bench`, and the one CV
//! and median definitions the bench binaries share.
//!
//! The external `criterion` harness was dropped to keep the workspace
//! buildable offline; this module provides the small subset the repo
//! needs: interleaved A/B batches repeated until a time floor, and a
//! median-of-batches estimate that is robust to scheduler noise.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured benchmark: median batch time divided by batch
/// iterations, with the batch spread (min/mean) alongside so BENCH
/// entries carry variance, not just a point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Seconds per iteration (median over batches) — the headline
    /// number, robust to scheduler noise.
    pub secs_per_iter: f64,
    /// Fastest batch's seconds per iteration — the low-noise floor.
    pub min_secs_per_iter: f64,
    /// Mean seconds per iteration across batches.
    pub mean_secs_per_iter: f64,
    /// Number of timed batches behind the spread.
    pub batches: u64,
    /// Iterations actually executed (all batches).
    pub iters: u64,
    /// Coefficient of variation of batch times (stddev / mean, 0 when
    /// the mean is zero). High values flag a measurement taken under
    /// scheduler or frequency-scaling noise; `kernel_bench` marks rows
    /// above 20% as unstable.
    pub cv: f64,
}

impl Measurement {
    /// Summarize sorted per-iteration batch times (ascending).
    fn from_sorted_batches(batch_times: &[f64], iters: u64) -> Measurement {
        let n = batch_times.len();
        let mean = batch_times.iter().sum::<f64>() / n as f64;
        Measurement {
            secs_per_iter: batch_times[n / 2],
            min_secs_per_iter: batch_times[0],
            mean_secs_per_iter: mean,
            batches: n as u64,
            iters,
            cv: cv_of(batch_times),
        }
    }
}

/// Coefficient of variation of a sample (population stddev over mean, 0
/// for an empty sample or a zero/negative mean).
///
/// The one CV definition the repo uses for noise awareness: the batch
/// spread inside [`Measurement`], and the run-to-run spread the
/// `obs_report` regression sentinel widens its thresholds by.
pub fn cv_of(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Median of a non-empty sample (the upper one for even counts): the
/// headline of a repeated measurement, and the baseline the `obs_report`
/// sentinel compares a series' latest run against.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

/// Time two closures with interleaved batches: A, B, A, B, … until the
/// shared budget runs out, then take each side's median batch time.
///
/// Interleaving is what makes the *ratio* of the two times meaningful:
/// machine-wide drift between two sequential measurement windows —
/// frequency scaling, a noisy neighbour — lands on one side only and
/// swamps modest speedups, whereas interleaved batches see the same
/// conditions within every A/B pair.
pub fn measure_pair<RA, RB>(
    budget: Duration,
    mut a: impl FnMut() -> RA,
    mut b: impl FnMut() -> RB,
) -> (Measurement, Measurement) {
    black_box(a());
    black_box(b());
    let t0 = Instant::now();
    black_box(a());
    let once_a = t0.elapsed().max(Duration::from_nanos(50));
    let t0 = Instant::now();
    black_box(b());
    let once_b = t0.elapsed().max(Duration::from_nanos(50));
    let per_batch = budget.div_f64(16.0).max(Duration::from_micros(200));
    let iters_a = (per_batch.as_secs_f64() / once_a.as_secs_f64()).clamp(1.0, 1e7) as u64;
    let iters_b = (per_batch.as_secs_f64() / once_b.as_secs_f64()).clamp(1.0, 1e7) as u64;

    let mut times_a = Vec::new();
    let mut times_b = Vec::new();
    let mut total_a = 0u64;
    let mut total_b = 0u64;
    let deadline = Instant::now() + budget * 2;
    while times_a.len() < 3 || Instant::now() < deadline {
        let t = Instant::now();
        for _ in 0..iters_a {
            black_box(a());
        }
        times_a.push(t.elapsed().as_secs_f64() / iters_a as f64);
        total_a += iters_a;
        let t = Instant::now();
        for _ in 0..iters_b {
            black_box(b());
        }
        times_b.push(t.elapsed().as_secs_f64() / iters_b as f64);
        total_b += iters_b;
        if times_a.len() >= 64 {
            break;
        }
    }
    times_a.sort_by(f64::total_cmp);
    times_b.sort_by(f64::total_cmp);
    (
        Measurement::from_sorted_batches(&times_a, total_a),
        Measurement::from_sorted_batches(&times_b, total_b),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_pair_reports_sane_times_and_consistent_spread() {
        let sum = || std::hint::black_box((0..100u64).sum::<u64>());
        let (a, b) = measure_pair(Duration::from_millis(20), sum, sum);
        for m in [a, b] {
            assert!(m.secs_per_iter > 0.0);
            assert!(m.secs_per_iter < 0.1, "100-element sum can't take 100ms");
            assert!(m.batches >= 3 && m.iters >= 3);
            // min <= median, and the mean lies within the batch range.
            assert!(m.min_secs_per_iter > 0.0);
            assert!(m.min_secs_per_iter <= m.secs_per_iter);
            assert!(m.mean_secs_per_iter >= m.min_secs_per_iter);
            // CV is a finite non-negative ratio; equal batches would give 0.
            assert!(m.cv.is_finite() && m.cv >= 0.0, "cv = {}", m.cv);
        }
    }

    #[test]
    fn measure_pair_resolves_a_heavy_side() {
        let (light, heavy) = measure_pair(
            Duration::from_millis(20),
            || std::hint::black_box((0..100u64).sum::<u64>()),
            || {
                std::hint::black_box(
                    (0..2000u64).fold(0u64, |acc, x| acc ^ x.wrapping_mul(acc | 1)),
                )
            },
        );
        assert!(light.secs_per_iter > 0.0 && heavy.secs_per_iter > 0.0);
        assert!(
            heavy.secs_per_iter > light.secs_per_iter,
            "20x the serial work must measure slower: light={} heavy={}",
            light.secs_per_iter,
            heavy.secs_per_iter
        );
    }
}
