//! The benchmark's own arithmetic: order statistics over timing samples,
//! the Wilson half-width stop check, peak-RSS parsing and the digests the
//! correctness checks compare.

use vs_fault::adaptive;
use vs_fault::campaign::{Injection, Outcome};
use vs_fault::mix64;
use vs_fault::spec::RegClass;
use vs_fault::stats::OutcomeRates;
use vs_image::RgbImage;

/// Linearly interpolated `q`-quantile (`0 <= q <= 1`) of `xs`, the
/// definition `numpy.percentile` uses by default.
///
/// # Panics
///
/// Panics on an empty slice: a timing summary needs a sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The highest of p99, p90 and p50 that leaves at least ten samples
/// above it, or `None` when even the median has fewer than ten beyond
/// it. A tail percentile read from fewer samples is a guess.
pub fn tail_quantile(samples: usize) -> Option<f64> {
    [0.99, 0.9, 0.5]
        .into_iter()
        .find(|q| samples as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

/// A timing series summarized for printing: its sample count, median,
/// and highest well-resolved tail percentile as `(q, value)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub samples: usize,
    pub median: f64,
    pub tail: Option<(f64, f64)>,
}

impl Timing {
    pub fn of(xs: &[f64]) -> Timing {
        Timing {
            samples: xs.len(),
            median: median(xs),
            tail: tail_quantile(xs.len()).map(|q| (q, percentile(xs, q))),
        }
    }
}

/// Whether every outcome class of `rates` is resolved to a 95% Wilson
/// half-width of at most `epsilon_pp` percentage points — the target an
/// adaptive campaign promises when it reports convergence.
pub fn target_met(rates: &OutcomeRates, epsilon_pp: f64) -> bool {
    adaptive::max_half_width(rates) <= epsilon_pp
}

/// Peak resident set size in MiB, parsed from the `VmHWM` line of a
/// `/proc/<pid>/status` text. `None` when the line is missing or not
/// in kB.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb / 1024.0)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn fold(h: u64, v: u64) -> u64 {
    mix64(h ^ mix64(v))
}

fn outcome_code(o: Outcome) -> u64 {
    match o {
        Outcome::Masked => 1,
        Outcome::Sdc => 2,
        Outcome::CrashSegfault => 3,
        Outcome::CrashAbort => 4,
        Outcome::Hang => 5,
    }
}

/// Order-sensitive digest of a record stream over each record's index,
/// fault spec, fired fault and outcome — the fields that must not change
/// when only speed changes.
pub fn record_digest<O>(records: &[Injection<O>]) -> u64 {
    records.iter().fold(0x5eed, |mut h, r| {
        h = fold(h, r.index as u64);
        h = fold(h, u64::from(r.spec.class == RegClass::Fpr));
        h = fold(h, r.spec.tap_index);
        h = fold(h, u64::from(r.spec.bit));
        if let Some(f) = r.fired {
            for v in [
                f.func.index() as u64,
                f.op.index() as u64,
                u64::from(f.reg),
                u64::from(f.bit),
                f.before,
                f.after,
            ] {
                h = fold(h, v);
            }
        }
        fold(h, outcome_code(r.outcome))
    })
}

/// Whether the first `reference.len()` records of `timed` equal
/// `reference` record for record (by digest).
pub fn prefix_matches<O>(timed: &[Injection<O>], reference: &[Injection<O>]) -> bool {
    reference.len() <= timed.len()
        && record_digest(&timed[..reference.len()]) == record_digest(reference)
}

/// Digest of a panorama list: sizes and every byte, in order.
pub fn image_digest(images: &[RgbImage]) -> u64 {
    images.iter().fold(0x1a6e, |mut h, img| {
        h = fold(h, img.width() as u64);
        h = fold(h, img.height() as u64);
        for chunk in img.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = fold(h, u64::from_le_bytes(word));
        }
        h
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_fault::spec::FaultSpec;
    use vs_fault::stats::OutcomeCounts;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert!((percentile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn percentile_of_nothing_panics() {
        percentile(&[], 0.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(99), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        let t = Timing::of(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(t.samples, 100);
        assert_eq!(t.median, 50.5);
        assert_eq!(t.tail.map(|(q, _)| q), Some(0.9));
        assert_eq!(Timing::of(&[1.0, 2.0]).tail, None);
    }

    fn rates(masked: usize, crash: usize) -> OutcomeRates {
        let mut c = OutcomeCounts::default();
        (0..masked).for_each(|_| c.add(Outcome::Masked));
        (0..crash).for_each(|_| c.add(Outcome::CrashSegfault));
        c.rates()
    }

    #[test]
    fn half_width_target_tracks_sample_size() {
        // 34% crash: the 95% Wilson half-width is ~6.5pp at n=200 and
        // ~4.6pp at n=400, so a 5pp target is met only by the latter.
        assert!(!target_met(&rates(132, 68), 5.0));
        assert!(target_met(&rates(264, 136), 5.0));
        // An all-masked campaign is resolved almost immediately.
        assert!(target_met(&rates(150, 0), 5.0));
    }

    #[test]
    fn peak_rss_parses_vmhwm_in_kb() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(200.0));
        assert_eq!(parse_peak_rss_mb("VmRSS:\t1024 kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\tlots kB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    fn rec(index: usize, outcome: Outcome) -> Injection<()> {
        Injection {
            index,
            spec: FaultSpec::new(RegClass::Gpr, 40 + index as u64, 3),
            fired: None,
            outcome,
            sdc_output: None,
            forensics: None,
        }
    }

    #[test]
    fn record_digests_see_order_outcome_and_prefix() {
        let a = vec![rec(0, Outcome::Masked), rec(1, Outcome::Sdc)];
        let b = vec![rec(0, Outcome::Masked), rec(1, Outcome::Hang)];
        let swapped = vec![rec(1, Outcome::Sdc), rec(0, Outcome::Masked)];
        assert_eq!(record_digest(&a), record_digest(&a.clone()));
        assert_ne!(record_digest(&a), record_digest(&b));
        assert_ne!(record_digest(&a), record_digest(&swapped));
        assert!(prefix_matches(&a, &a[..1]));
        assert!(prefix_matches(&a, &[]));
        assert!(!prefix_matches(&b, &a));
        assert!(!prefix_matches(&a[..1], &a));
    }

    #[test]
    fn image_digests_see_pixels_and_shape() {
        let img = RgbImage::from_fn(5, 3, |x, y| [x as u8, y as u8, 7]);
        let mut changed = img.clone();
        changed.set(4, 2, [0, 0, 0]);
        let wide = RgbImage::from_fn(15, 1, |x, _| [(x % 5) as u8, (x / 5) as u8, 7]);
        assert_eq!(image_digest(&[img.clone()]), image_digest(&[img.clone()]));
        assert_ne!(image_digest(&[img.clone()]), image_digest(&[changed]));
        assert_ne!(image_digest(&[img.clone()]), image_digest(&[wide]));
        assert_ne!(
            image_digest(&[img.clone()]),
            image_digest(&[img.clone(), img])
        );
    }
}
