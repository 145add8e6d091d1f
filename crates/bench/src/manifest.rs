//! Run-manifest assembly for the persistent run ledger.
//!
//! Every bench binary finishing a measured run appends one
//! `run_manifest` line to `out/ledger/ledger.jsonl` (see
//! [`vs_telemetry::ledger`]). The builder here stamps the fields shared
//! by every tool — tool name, wall-clock time, the active `VS_SIMD`
//! dispatch level and [`host_cores`](crate::host_cores) — so manifests
//! from different binaries stay comparable, then lets the tool add its
//! own throughput, allocation, phase-quantile and outcome-rate fields.
//!
//! The ledger is observability-only: appends happen after all
//! measurement, and a failed append is reported as a warning, never an
//! exit-code failure — a read-only checkout must not fail a bench run.

use std::path::Path;
use vs_fault::stats::{OutcomeClass, OutcomeRates};
use vs_telemetry::ledger::{self, Ledger};
use vs_telemetry::metrics::Histogram;
use vs_telemetry::{OwnedEvent, OwnedValue};

/// Builder for one ledger manifest.
#[derive(Debug)]
pub struct Manifest {
    fields: Vec<(String, OwnedValue)>,
}

impl Manifest {
    /// Start a manifest for `tool`, stamping the shared comparability
    /// fields: `tool`, `unix_ms`, `simd`, `host_cores`.
    pub fn new(tool: &str) -> Manifest {
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        Manifest {
            fields: vec![
                ("tool".into(), OwnedValue::Str(tool.into())),
                ("unix_ms".into(), OwnedValue::U64(unix_ms)),
                (
                    "simd".into(),
                    OwnedValue::Str(vs_image::dispatch::level().as_str().into()),
                ),
                (
                    "host_cores".into(),
                    OwnedValue::U64(crate::host_cores() as u64),
                ),
            ],
        }
    }

    /// Add one field. Later duplicates of a key are ignored so the
    /// manifest stays readable by the strict JSONL parser.
    pub fn field(mut self, key: &str, value: OwnedValue) -> Manifest {
        if !self.fields.iter().any(|(k, _)| k == key) {
            self.fields.push((key.into(), value));
        }
        self
    }

    /// Add an unsigned counter field.
    pub fn u64(self, key: &str, v: u64) -> Manifest {
        self.field(key, OwnedValue::U64(v))
    }

    /// Add a floating-point measurement field.
    pub fn f64(self, key: &str, v: f64) -> Manifest {
        self.field(key, OwnedValue::F64(v))
    }

    /// Add a boolean field.
    pub fn bool(self, key: &str, v: bool) -> Manifest {
        self.field(key, OwnedValue::Bool(v))
    }

    /// Add `phase_<name>_{p50,p90,p99}_ns` quantiles of one campaign
    /// phase histogram (skipped when the histogram is empty).
    pub fn phase(self, name: &str, h: &Histogram) -> Manifest {
        if h.count() == 0 {
            return self;
        }
        self.u64(&format!("phase_{name}_p50_ns"), h.p50())
            .u64(&format!("phase_{name}_p90_ns"), h.p90())
            .u64(&format!("phase_{name}_p99_ns"), h.p99())
    }

    /// Add per-class outcome rates with 95% Wilson bounds:
    /// `rate_<class>` plus `rate_<class>_lo` / `rate_<class>_hi`, all
    /// in percent, and the sample size `rate_n`.
    pub fn rates(self, rates: &OutcomeRates) -> Manifest {
        self.rates_prefixed("", rates)
    }

    /// Like [`rates`](Manifest::rates) with every key prefixed (e.g.
    /// `gpr_rate_sdc`), for manifests carrying more than one campaign.
    pub fn rates_prefixed(self, prefix: &str, rates: &OutcomeRates) -> Manifest {
        let mut m = self.u64(&format!("{prefix}rate_n"), rates.n as u64);
        for class in OutcomeClass::ALL {
            let (lo, hi) = rates.wilson_interval(class);
            let name = class.name();
            m = m
                .f64(&format!("{prefix}rate_{name}"), rates.rate(class))
                .f64(&format!("{prefix}rate_{name}_lo"), lo)
                .f64(&format!("{prefix}rate_{name}_hi"), hi);
        }
        m
    }

    /// Finish the manifest as a ledger-ready event.
    pub fn build(self) -> OwnedEvent {
        ledger::manifest(self.fields)
    }

    /// Append to the shared ledger every bench binary writes to:
    /// `$VS_LEDGER_DIR/ledger.jsonl` when the environment variable is
    /// set, else `out/ledger/ledger.jsonl` relative to the working
    /// directory. Failures are reported on stderr and swallowed — the
    /// ledger must never fail a bench run.
    pub fn append_default(self) {
        let ledger = match std::env::var("VS_LEDGER_DIR") {
            Ok(dir) if !dir.is_empty() => Ledger::in_dir(Path::new(&dir)),
            _ => Ledger::default_location(),
        };
        self.append_to(&ledger);
    }

    fn append_to(self, ledger: &Ledger) {
        let event = self.build();
        if let Err(e) = ledger.append(&event) {
            eprintln!(
                "warning: cannot append run manifest to {}: {e}",
                ledger.path().display()
            );
        }
    }
}

/// Order-sensitive digest of a run configuration, for matching
/// comparable ledger entries across runs: folds each knob through the
/// shared splitmix64 finalizer so any changed knob scrambles the whole
/// digest.
pub fn config_digest(values: &[u64]) -> u64 {
    values
        .iter()
        .fold(0xC0F1_6D16_E5E5_D000, |acc, &v| vs_rng::mix64(acc ^ v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_shared_fields_and_builds_a_manifest_event() {
        let event = Manifest::new("campaign_bench")
            .u64("injections", 200)
            .f64("runs_per_sec", 41.5)
            .build();
        assert_eq!(event.name, ledger::MANIFEST_EVENT);
        let field = |k: &str| event.fields.iter().find(|(key, _)| key == k);
        assert_eq!(
            field("tool").map(|(_, v)| v),
            Some(&OwnedValue::Str("campaign_bench".into()))
        );
        assert!(field("unix_ms").is_some());
        assert!(field("simd").is_some());
        assert!(matches!(
            field("host_cores").map(|(_, v)| v),
            Some(OwnedValue::U64(n)) if *n >= 1
        ));
        assert_eq!(
            field("injections").map(|(_, v)| v),
            Some(&OwnedValue::U64(200))
        );
    }

    #[test]
    fn duplicate_keys_are_dropped_not_doubled() {
        let event = Manifest::new("t").u64("x", 1).u64("x", 2).build();
        let xs: Vec<_> = event.fields.iter().filter(|(k, _)| k == "x").collect();
        assert_eq!(xs.len(), 1);
        assert_eq!(xs[0].1, OwnedValue::U64(1));
    }

    #[test]
    fn rates_carry_wilson_bounds_per_class() {
        let rates = OutcomeRates {
            n: 200,
            masked: 90.0,
            sdc: 5.0,
            crash: 4.0,
            hang: 1.0,
            crash_segfault_share: 50.0,
            crash_abort_share: 50.0,
        };
        let event = Manifest::new("t").rates(&rates).build();
        let get = |k: &str| {
            event
                .fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(get("rate_n"), Some(OwnedValue::U64(200)));
        let (Some(OwnedValue::F64(lo)), Some(OwnedValue::F64(r)), Some(OwnedValue::F64(hi))) =
            (get("rate_sdc_lo"), get("rate_sdc"), get("rate_sdc_hi"))
        else {
            panic!("missing sdc rate fields");
        };
        assert!(lo < r && r < hi, "wilson interval brackets the rate");
    }

    #[test]
    fn empty_phase_histograms_are_skipped() {
        let empty = Histogram::default();
        let mut full = Histogram::default();
        full.record(1_000);
        full.record(2_000);
        let event = Manifest::new("t")
            .phase("draw", &empty)
            .phase("exec", &full)
            .build();
        assert!(!event
            .fields
            .iter()
            .any(|(k, _)| k.starts_with("phase_draw")));
        assert!(event.fields.iter().any(|(k, _)| k == "phase_exec_p50_ns"));
    }

    #[test]
    fn config_digest_is_order_and_value_sensitive() {
        let a = config_digest(&[3, 64, 48, 200]);
        assert_eq!(a, config_digest(&[3, 64, 48, 200]));
        assert_ne!(a, config_digest(&[3, 64, 48, 201]));
        assert_ne!(a, config_digest(&[64, 3, 48, 200]));
    }

    #[test]
    fn append_round_trips_through_the_ledger() {
        let dir = std::env::temp_dir().join(format!("vs_manifest_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ledger = Ledger::in_dir(&dir);
        Manifest::new("t").u64("x", 7).append_to(&ledger);
        let back = ledger.read().unwrap();
        assert_eq!(back.len(), 1);
        assert!(back[0]
            .fields
            .iter()
            .any(|(k, v)| k == "x" && *v == OwnedValue::U64(7)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
