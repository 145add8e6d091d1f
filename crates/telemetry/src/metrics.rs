//! Low-overhead metrics: per-worker counters and log2-bucketed latency
//! histograms, mergeable across workers, for phase, stage and
//! contention attribution inside fault campaigns.
//!
//! # Design
//!
//! The campaign hot path executes millions of injected runs; a metrics
//! layer that took a lock (or even a cache-contended atomic) per sample
//! would perturb the very scaling behaviour it exists to diagnose. So
//! the hot path is **thread-local and lock-free**: each worker thread is
//! *armed* with its own private [`WorkerMetrics`] (a handful of named
//! counters and [`Histogram`]s, linear-scanned — the phase and stage
//! vocabulary is tiny), samples go straight into that worker's buffers,
//! and the worker hands its finished buffers to the shared
//! [`MetricsRegistry`] exactly once, when its stripe ends. The registry's single mutex is therefore
//! touched `O(workers)` times per campaign, never per run.
//!
//! The gating lives in the observation context ([`crate::context`]):
//!
//! * [`install`] puts a [`MetricsRegistry`] in the *calling* thread's
//!   context; campaign drivers capture it ([`crate::capture`]) and arm
//!   each worker from the captured handle ([`crate::Handle::arm`]),
//!   whose guard deposits the worker's metrics into the registry when
//!   it drops.
//! * Histograms are fed by spans, the one timer ([`crate::span`]): a
//!   span opened on an armed thread records its duration under its own
//!   name when it closes, so every campaign phase and every pipeline
//!   stage an injected run passes through gets a histogram. Counters
//!   are fed by [`add`].
//! * On a thread that is not armed, [`add`] and every span's timing
//!   half are one thread-local read and a branch: a span reads no
//!   clock, so a metrics-off campaign executes zero timer calls.
//!
//! Nothing in this module touches the tap stream: arming metrics leaves
//! golden profiles, fault draws and outcome classifications bit-for-bit
//! identical (proven by the workspace observation-equivalence tests).
//!
//! # Histograms
//!
//! [`Histogram`] is fixed-point log2-bucketed: 64 buckets, value `v`
//! lands in bucket `64 - v.leading_zeros()` (clamped to the top
//! bucket), i.e. one bucket per binary order of magnitude. Quantiles
//! (p50/p90/p99) walk the cumulative counts and report the bucket's
//! upper bound clamped to the observed maximum — at most one power of
//! two of overestimate, monotone in the quantile, and exact for the
//! max. Buckets are plain `u64`s, so merging across workers is
//! elementwise addition (associative and commutative).

use crate::context::{self, Guard, Saved};
use crate::Value;
use std::sync::{Arc, Mutex};

/// Number of log2 buckets: one per possible `u64` bit length, plus a
/// zero bucket.
pub const BUCKETS: usize = 64;

/// A fixed-point log2-bucketed histogram of `u64` samples (nanoseconds,
/// for span durations). Mergeable across workers; quantile
/// error bounded by one binary order of magnitude and always clamped to
/// the observed maximum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// Bucket index of a sample: 0 for 0, else its bit length, clamped so
/// every value of 2^62 and above saturates into the top bucket.
fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of a bucket (the largest value that lands in
/// it); the top bucket is unbounded and reports `u64::MAX`.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, truncated (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`q` in `[0, 1]`, clamped): the upper bound of
    /// the bucket holding the sample of rank `ceil(q * count)`, clamped
    /// to the observed maximum. 0 when empty. Monotone in `q` by
    /// construction, and `quantile(1.0) == max()`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold another histogram into this one (elementwise bucket
    /// addition — associative and commutative, so cross-worker merge
    /// order never matters).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// One worker's private metrics: named counters and histograms, looked
/// up by linear scan (the phase and stage vocabulary is a handful of
/// `&'static str`s; a hash map would cost more than it saves and pull in nothing
/// we want on the hot path).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    counters: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, Histogram)>,
}

impl WorkerMetrics {
    /// Add `n` to the named counter, creating it at 0 first.
    pub fn add(&mut self, name: &'static str, n: u64) {
        match self.counters.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v += n,
            None => self.counters.push((name, n)),
        }
    }

    /// Record one sample into the named histogram, creating it empty
    /// first.
    pub fn record_ns(&mut self, name: &'static str, ns: u64) {
        match self.histograms.iter_mut().find(|(k, _)| *k == name) {
            Some((_, h)) => h.record(ns),
            None => {
                let mut h = Histogram::default();
                h.record(ns);
                self.histograms.push((name, h));
            }
        }
    }

    /// The named counter's value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, h)| h)
    }

    /// All counters, in first-touch order.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// All histograms, in first-touch order.
    pub fn histograms(&self) -> &[(&'static str, Histogram)] {
        &self.histograms
    }

    /// Fold another worker's metrics into this one.
    pub fn merge(&mut self, other: &WorkerMetrics) {
        for &(name, v) in &other.counters {
            self.add(name, v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(k, _)| *k == *name) {
                Some((_, mine)) => mine.merge(h),
                None => self.histograms.push((name, h.clone())),
            }
        }
    }
}

/// Cross-worker collection point for one campaign (or sweep cell): each
/// armed worker deposits its private [`WorkerMetrics`] here once, at
/// stripe end, tagged with its worker id. The mutex is cold by design —
/// `O(workers)` acquisitions total.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    workers: Mutex<Vec<(usize, WorkerMetrics)>>,
}

impl MetricsRegistry {
    /// An empty registry, ready to [`install`].
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Deposit one worker's finished metrics. Drivers that run several
    /// batches (the adaptive loop) deposit once per batch under the
    /// same id; [`per_worker`](MetricsRegistry::per_worker) re-merges.
    pub fn absorb(&self, worker: usize, metrics: WorkerMetrics) {
        self.workers
            .lock()
            .expect("metrics registry poisoned")
            .push((worker, metrics));
    }

    /// All deposits merged into one view — the campaign-wide phase
    /// profile.
    pub fn merged(&self) -> WorkerMetrics {
        let workers = self.workers.lock().expect("metrics registry poisoned");
        let mut all = WorkerMetrics::default();
        for (_, m) in workers.iter() {
            all.merge(m);
        }
        all
    }

    /// Deposits merged per worker id, sorted by id — the per-worker
    /// attribution view.
    pub fn per_worker(&self) -> Vec<(usize, WorkerMetrics)> {
        let workers = self.workers.lock().expect("metrics registry poisoned");
        let mut out: Vec<(usize, WorkerMetrics)> = Vec::new();
        for (id, m) in workers.iter() {
            match out.iter_mut().find(|(k, _)| k == id) {
                Some((_, mine)) => mine.merge(m),
                None => out.push((*id, m.clone())),
            }
        }
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Discard all deposits (reuse one registry across sweep cells).
    pub fn reset(&self) {
        self.workers
            .lock()
            .expect("metrics registry poisoned")
            .clear();
    }
}

/// Install a metrics registry on the current thread until the guard
/// drops. Campaign drivers called on this thread capture it
/// ([`crate::capture`]) and arm their workers from it; with no registry
/// installed, campaigns run with metrics fully off.
pub fn install(reg: Arc<MetricsRegistry>) -> Guard {
    Guard::restoring(Saved::Registry(context::with(|cx| {
        cx.registry.replace(Some(reg))
    })))
}

/// Add `n` to the named counter. No-op when disarmed.
pub fn add(name: &'static str, n: u64) {
    context::with(|cx| {
        if let Some(m) = cx.armed.borrow_mut().as_mut() {
            m.add(name, n);
        }
    });
}

/// Emit a metrics snapshot through the current thread's telemetry sink:
/// one `metrics_phase` event per histogram (count, sum and the
/// quantile ladder), one `metrics_counter` event per counter, each
/// carrying the caller's `labels` verbatim (sweep cells tag snapshots
/// with their thread count here). Quiet when no sink is installed.
pub fn emit_snapshot(merged: &WorkerMetrics, workers: usize, labels: &[(&str, Value<'_>)]) {
    for (name, h) in merged.histograms() {
        let mut fields = vec![
            ("phase", Value::Str(name)),
            ("workers", Value::U64(workers as u64)),
            ("count", Value::U64(h.count())),
            ("sum_ns", Value::U64(h.sum())),
            ("mean_ns", Value::U64(h.mean())),
            ("p50_ns", Value::U64(h.p50())),
            ("p90_ns", Value::U64(h.p90())),
            ("p99_ns", Value::U64(h.p99())),
            ("max_ns", Value::U64(h.max())),
        ];
        fields.extend_from_slice(labels);
        crate::scope::emit("metrics_phase", &fields);
    }
    for &(name, v) in merged.counters() {
        let mut fields = vec![("counter", Value::Str(name)), ("value", Value::U64(v))];
        fields.extend_from_slice(labels);
        crate::scope::emit("metrics_counter", &fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
    }

    #[test]
    fn single_sample_pins_every_quantile() {
        for v in [0u64, 1, 7, 1000, 1 << 40, u64::MAX] {
            let mut h = Histogram::default();
            h.record(v);
            assert_eq!(h.count(), 1);
            assert_eq!(h.max(), v);
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(h.quantile(q), v, "q={q} v={v}");
            }
        }
    }

    #[test]
    fn top_bucket_saturates_without_losing_counts() {
        let mut h = Histogram::default();
        // All of these exceed 2^62 and must share the top bucket.
        for v in [1u64 << 62, (1 << 62) + 5, 1 << 63, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), u64::MAX);
        // Quantiles stay clamped to the observed max, never beyond.
        assert!(h.p50() <= h.max());
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn bucket_index_is_log2_with_zero_bucket() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every bucket's upper bound lands in that bucket.
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_upper(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let mut h = Histogram::default();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let a = mk(&[1, 5, 900]);
        let b = mk(&[0, 3, 1 << 50]);
        let c = mk(&[17, 17, u64::MAX]);
        let left = {
            let mut ab = a.clone();
            ab.merge(&b);
            ab.merge(&c);
            ab
        };
        let right = {
            let mut bc = b.clone();
            bc.merge(&c);
            let mut abc = a.clone();
            abc.merge(&bc);
            abc
        };
        assert_eq!(left, right);
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba);
        // The merge equals recording everything into one histogram.
        assert_eq!(left, mk(&[1, 5, 900, 0, 3, 1 << 50, 17, 17, u64::MAX]));
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Histogram::default();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..500 {
            // splitmix-ish scramble for a spread of magnitudes.
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h.record(x % 1_000_000_007);
        }
        let mut prev = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile ladder must be monotone at q={q}");
            assert!(v <= h.max());
            prev = v;
        }
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn quantile_upper_bound_is_within_one_bucket() {
        // All samples equal: every quantile is exact (clamped to max).
        let mut h = Histogram::default();
        for _ in 0..100 {
            h.record(1000);
        }
        assert_eq!(h.p50(), 1000);
        assert_eq!(h.p99(), 1000);
        // Mixed: p50's bucket upper bound is < 2x the true median.
        let mut h = Histogram::default();
        for v in [100u64; 50].into_iter().chain([10_000u64; 50]) {
            h.record(v);
        }
        let p50 = h.p50();
        assert!((100..200).contains(&p50), "p50={p50}");
    }

    #[test]
    fn worker_metrics_counters_and_histograms_accumulate() {
        let mut m = WorkerMetrics::default();
        m.add("runs", 1);
        m.add("runs", 2);
        m.add("resumes", 5);
        m.record_ns("exec", 10);
        m.record_ns("exec", 30);
        assert_eq!(m.counter("runs"), 3);
        assert_eq!(m.counter("resumes"), 5);
        assert_eq!(m.counter("absent"), 0);
        assert_eq!(m.histogram("exec").unwrap().count(), 2);
        assert!(m.histogram("absent").is_none());
        let mut other = WorkerMetrics::default();
        other.add("runs", 4);
        other.record_ns("exec", 100);
        other.record_ns("classify", 7);
        m.merge(&other);
        assert_eq!(m.counter("runs"), 7);
        assert_eq!(m.histogram("exec").unwrap().count(), 3);
        assert_eq!(m.histogram("classify").unwrap().count(), 1);
    }

    #[test]
    fn registry_merges_across_workers() {
        let reg = MetricsRegistry::new();
        for worker in 0..3usize {
            let mut m = WorkerMetrics::default();
            m.add("runs", worker as u64 + 1);
            m.record_ns("exec", 100 * (worker as u64 + 1));
            reg.absorb(worker, m);
        }
        // A second deposit under an existing id (adaptive batches).
        let mut again = WorkerMetrics::default();
        again.add("runs", 10);
        reg.absorb(1, again);
        let merged = reg.merged();
        assert_eq!(merged.counter("runs"), 1 + 2 + 3 + 10);
        assert_eq!(merged.histogram("exec").unwrap().count(), 3);
        let per = reg.per_worker();
        assert_eq!(per.len(), 3);
        assert_eq!(per[1].0, 1);
        assert_eq!(per[1].1.counter("runs"), 2 + 10);
        reg.reset();
        assert_eq!(reg.merged(), WorkerMetrics::default());
    }

    #[test]
    fn snapshot_emits_phase_and_counter_events() {
        let sink = Arc::new(crate::MemorySink::new());
        let mut m = WorkerMetrics::default();
        m.record_ns("exec", 1000);
        m.record_ns("exec", 3000);
        m.add("runs", 2);
        {
            let _g = crate::install(sink.clone());
            emit_snapshot(&m, 4, &[("threads", Value::U64(4))]);
        }
        assert_eq!(sink.count("metrics_phase"), 1);
        assert_eq!(sink.count("metrics_counter"), 1);
        let events = sink.events();
        let phase = events.iter().find(|e| e.name == "metrics_phase").unwrap();
        assert_eq!(phase.str("phase"), Some("exec"));
        assert_eq!(phase.u64("count"), Some(2));
        assert_eq!(phase.u64("sum_ns"), Some(4000));
        assert_eq!(phase.u64("max_ns"), Some(3000));
        assert_eq!(phase.u64("threads"), Some(4));
        assert!(phase.u64("p50_ns").unwrap() <= phase.u64("p90_ns").unwrap());
        assert!(phase.u64("p99_ns").unwrap() <= phase.u64("max_ns").unwrap());
        let counter = events.iter().find(|e| e.name == "metrics_counter").unwrap();
        assert_eq!(counter.str("counter"), Some("runs"));
        assert_eq!(counter.u64("value"), Some(2));
    }
}
