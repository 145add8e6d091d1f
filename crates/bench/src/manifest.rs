//! The persistent run ledger's writer.
//!
//! Every bench binary builds its result once, as the JSON document it
//! writes as its artifact, and [`append`]s that document to
//! `out/ledger/ledger.jsonl` (see [`vs_telemetry::ledger`]): one
//! `run_manifest` line holding the document's top-level scalars, stamped
//! with the fields every tool shares — tool name, wall-clock time, the
//! active `VS_SIMD` dispatch level and [`host_cores`](crate::host_cores)
//! — so lines from different binaries stay comparable. A measurement
//! reaches the `obs_report` sentinel only as a top-level scalar of its
//! artifact: [`rate_members`] builds the Wilson-bounded outcome rates
//! it compares interval against interval, [`phase_members`] the
//! campaign-phase quantiles.
//!
//! The ledger is observability-only: appends happen after all
//! measurement, and a failed append is reported as a warning, never an
//! exit-code failure — a read-only checkout must not fail a bench run.

use vs_fault::stats::{OutcomeClass, OutcomeRates};
use vs_telemetry::jsonl::Json;
use vs_telemetry::ledger::{self, Ledger};
use vs_telemetry::metrics::Histogram;
use vs_telemetry::{OwnedEvent, OwnedValue};

/// Append `doc`'s top-level scalars to the shared ledger every bench
/// binary writes to ([`Ledger::default_location`]). Failures are
/// reported on stderr and swallowed — the ledger must never fail a
/// bench run.
pub fn append(tool: &str, doc: &Json) {
    append_to(&Ledger::default_location(), tool, doc);
}

fn append_to(ledger: &Ledger, tool: &str, doc: &Json) {
    if let Err(e) = ledger.append(&record(tool, doc)) {
        eprintln!(
            "warning: cannot append run manifest to {}: {e}",
            ledger.path().display()
        );
    }
}

/// The ledger line of `doc`: the shared stamps `tool`, `unix_ms`,
/// `simd` and `host_cores`, each unless the document carries it
/// already, then the document's top-level scalars in order.
fn record(tool: &str, doc: &Json) -> OwnedEvent {
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let stamps = [
        ("tool", OwnedValue::Str(tool.into())),
        ("unix_ms", OwnedValue::U64(unix_ms)),
        (
            "simd",
            OwnedValue::Str(vs_image::dispatch::level().as_str().into()),
        ),
        ("host_cores", OwnedValue::U64(crate::host_cores() as u64)),
    ];
    let mut fields: Vec<(String, OwnedValue)> = stamps
        .into_iter()
        .filter(|(key, _)| doc.get(key).is_none())
        .map(|(key, value)| (key.into(), value))
        .collect();
    fields.extend(doc.clone().into_fields());
    ledger::manifest(fields)
}

/// `doc`, an object, with `members` appended.
///
/// # Panics
///
/// Panics if `doc` is not an object.
pub fn with_members(doc: Json, members: impl IntoIterator<Item = (String, Json)>) -> Json {
    let Json::Object(mut all) = doc else {
        panic!("a bench artifact is a JSON object");
    };
    all.extend(members);
    Json::Object(all)
}

/// Per-class outcome rates with 95% Wilson bounds: `rate_<class>` plus
/// `rate_<class>_lo` / `rate_<class>_hi`, all in percent, and the sample
/// size `rate_n`, every key prefixed by `prefix` (e.g. `gpr_rate_sdc`
/// in an artifact carrying more than one campaign).
pub fn rate_members(prefix: &str, rates: &OutcomeRates) -> Vec<(String, Json)> {
    let mut members = vec![(format!("{prefix}rate_n"), rates.n.into())];
    for class in OutcomeClass::ALL {
        let (lo, hi) = rates.wilson_interval(class);
        let key = format!("{prefix}rate_{}", class.name());
        members.push((key.clone(), rates.rate(class).into()));
        members.push((format!("{key}_lo"), lo.into()));
        members.push((format!("{key}_hi"), hi.into()));
    }
    members
}

/// `phase_<name>_{p50,p90,p99}_ns` quantiles of one campaign phase
/// histogram; none when the histogram is empty.
pub fn phase_members(name: &str, h: &Histogram) -> Vec<(String, Json)> {
    if h.count() == 0 {
        return Vec::new();
    }
    [("p50", h.p50()), ("p90", h.p90()), ("p99", h.p99())]
        .into_iter()
        .map(|(q, ns)| (format!("phase_{name}_{q}_ns"), ns.into()))
        .collect()
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

    fn rates() -> OutcomeRates {
        OutcomeRates {
            n: 200,
            masked: 90.0,
            sdc: 5.0,
            crash: 4.0,
            hang: 1.0,
            crash_segfault_share: 50.0,
            crash_abort_share: 50.0,
        }
    }

    fn member(members: &[(String, Json)], key: &str) -> Option<OwnedValue> {
        members
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| match v {
                Json::Scalar(v) => v.clone(),
                other => panic!("{key} is not a scalar: {other:?}"),
            })
    }

    #[test]
    fn rates_carry_wilson_bounds_per_class() {
        let members = rate_members("", &rates());
        assert_eq!(member(&members, "rate_n"), Some(OwnedValue::U64(200)));
        let (Some(OwnedValue::F64(lo)), Some(OwnedValue::F64(r)), Some(OwnedValue::F64(hi))) = (
            member(&members, "rate_sdc_lo"),
            member(&members, "rate_sdc"),
            member(&members, "rate_sdc_hi"),
        ) else {
            panic!("missing sdc rate fields");
        };
        assert!(lo < r && r < hi, "wilson interval brackets the rate");
        let prefixed = rate_members("gpr_", &rates());
        assert!(prefixed.iter().all(|(k, _)| k.starts_with("gpr_rate_")));
        assert_eq!(prefixed.len(), members.len());
    }

    #[test]
    fn empty_phase_histograms_are_skipped() {
        let empty = Histogram::default();
        let mut full = Histogram::default();
        full.record(1_000);
        full.record(2_000);
        assert!(phase_members("draw", &empty).is_empty());
        let members = phase_members("exec", &full);
        assert!(member(&members, "phase_exec_p50_ns").is_some());
        assert_eq!(members.len(), 3);
    }

    #[test]
    fn config_digest_is_order_and_value_sensitive() {
        let a = config_digest(&[3, 64, 48, 200]);
        assert_eq!(a, config_digest(&[3, 64, 48, 200]));
        assert_ne!(a, config_digest(&[3, 64, 48, 201]));
        assert_ne!(a, config_digest(&[64, 3, 48, 200]));
    }

    #[test]
    fn append_writes_the_top_level_scalars_and_each_stamp_once() {
        let dir = std::env::temp_dir().join(format!("vs_manifest_test_{}", std::process::id()));
        let ledger = Ledger::in_dir(&dir);
        let doc = with_members(
            Json::object([
                ("bench", "t".into()),
                ("host_cores", 3u64.into()),
                ("rows", vec![1u64, 2].into()),
                ("gates", Json::object([("x", true.into())])),
                ("runs_per_sec", 41.5.into()),
            ]),
            rate_members("", &rates()),
        );
        append_to(&ledger, "tool_t", &doc);
        let back = ledger.read().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(back.len(), 1);
        let keys: Vec<&str> = back[0].fields.iter().map(|(k, _)| k.as_str()).collect();
        let rate_keys = rate_members("", &rates());
        let stamps_and_scalars = [
            "tool",
            "unix_ms",
            "simd",
            "bench",
            "host_cores",
            "runs_per_sec",
        ];
        let expected: Vec<&str> = stamps_and_scalars
            .into_iter()
            .chain(rate_keys.iter().map(|(k, _)| k.as_str()))
            .collect();
        assert_eq!(keys, expected, "no nested member, no stamp written twice");
        assert_eq!(back[0].str("tool"), Some("tool_t"));
        assert_eq!(back[0].u64("host_cores"), Some(3), "the document's own");
        assert_eq!(back[0].f64("runs_per_sec"), Some(41.5));
        assert!(back[0].u64("unix_ms").is_some() && back[0].str("simd").is_some());
    }
}
