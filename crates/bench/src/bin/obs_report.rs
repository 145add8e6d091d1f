//! Cross-run regression sentinel over the persistent run ledger.
//!
//! ```text
//! obs_report [--ledger DIR] [--out-dir DIR] [--threshold-pct P]
//!            [--widen-pp W] [--quiet]
//! ```
//!
//! Every bench binary appends one `run_manifest` line per run to the
//! ledger (`Ledger::default_location`: `$VS_LEDGER_DIR`, else
//! `out/ledger`; see `vs_telemetry::ledger`), which this binary reads
//! unless `--ledger DIR` names another: the top-level scalars of the
//! artifact it wrote (`vs_bench::manifest`).
//! This binary groups those manifests into comparable series — same
//! tool, config digest, `VS_SIMD` level, host cores and thread count —
//! and compares each series' latest run against the median of its
//! earlier runs:
//!
//! * **Throughput regressions.** A throughput metric (`runs_per_sec_*`,
//!   `speedup`, ...) is flagged when the latest run drops below the
//!   baseline median by more than a CV-aware threshold:
//!   `max(--threshold-pct, 2 sigma of the baseline's own run-to-run
//!   spread)` — the same coefficient-of-variation definition
//!   `Measurement::cv` uses for batch noise, so a historically noisy
//!   series needs a proportionally bigger drop to alarm.
//! * **Outcome-rate drift.** Every rate field carrying Wilson bounds
//!   (`rate_sdc` with `rate_sdc_lo`/`rate_sdc_hi`, any prefix) is
//!   compared interval-against-interval with the previous run; both
//!   intervals are widened by `--widen-pp` percentage points and the
//!   field is flagged only when they fail to overlap — a statistically
//!   resolvable shift in campaign outcomes, not sampling noise.
//!
//! Writes `obs_report.md` and `obs_report.json` under `--out-dir`
//! (default `out/observatory`). Exit code: 0 clean, 2 when any
//! regression is flagged, 1 on an unreadable ledger or an unwritable
//! report — `scripts/verify.sh --full` runs this as an advisory gate.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use vs_bench::cli;
use vs_bench::timing::{cv_of, median};
use vs_telemetry::jsonl::Json;
use vs_telemetry::ledger::Ledger;
use vs_telemetry::{OwnedEvent, OwnedValue};

const USAGE: &str =
    "usage: obs_report [--ledger DIR] [--out-dir DIR] [--threshold-pct P] [--widen-pp W] [--quiet]";

/// Headline higher-is-better metrics compared across runs.
const THROUGHPUT_KEYS: &[&str] = &[
    "runs_per_sec_on",
    "runs_per_sec_off",
    "fixed_runs_per_sec",
    "speedup",
    "kernel_speedup_min",
    "injection_reduction",
];

struct Opts {
    ledger: Ledger,
    out_dir: PathBuf,
    threshold_pct: f64,
    widen_pp: f64,
    quiet: bool,
}

fn parse(a: &mut cli::Args) -> Result<Opts, String> {
    Ok(Opts {
        ledger: a
            .value::<PathBuf>("--ledger")?
            .map_or_else(Ledger::default_location, |dir| Ledger::in_dir(&dir)),
        out_dir: a
            .value("--out-dir")?
            .unwrap_or_else(|| "out/observatory".into()),
        threshold_pct: a.value("--threshold-pct")?.unwrap_or(10.0),
        widen_pp: a.value("--widen-pp")?.unwrap_or(1.0),
        quiet: a.flag("--quiet"),
    })
}

/// One flagged regression.
#[derive(Debug, Clone, PartialEq)]
struct Finding {
    /// Comparable-series key.
    group: String,
    /// Metric or rate-field name.
    metric: String,
    /// Baseline value (median of earlier runs; rate midpoint for drift).
    baseline: f64,
    /// Latest run's value.
    latest: f64,
    /// Threshold the comparison used (percent drop, or widening in pp).
    threshold: f64,
    /// `"throughput"` or `"rate_drift"`.
    kind: &'static str,
}

/// One comparable series' comparison summary (for the report even when
/// nothing is flagged).
struct GroupSummary {
    group: String,
    runs: usize,
    compared: usize,
    flagged: usize,
}

fn display_field(ev: &OwnedEvent, key: &str) -> String {
    match ev.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
        Some(OwnedValue::Str(s)) => s.clone(),
        Some(OwnedValue::U64(x)) => x.to_string(),
        Some(OwnedValue::I64(x)) => x.to_string(),
        Some(OwnedValue::F64(x)) => format!("{x}"),
        Some(OwnedValue::Bool(b)) => b.to_string(),
        Some(OwnedValue::Null) | None => "?".into(),
    }
}

/// Comparable-series key of a manifest: tool + config digest + SIMD
/// level + host shape. Runs in the same series measured the same thing
/// on the same kind of machine.
fn group_key(ev: &OwnedEvent) -> String {
    format!(
        "{}/cfg={}/simd={}/cores={}/threads={}",
        display_field(ev, "tool"),
        display_field(ev, "config_digest"),
        display_field(ev, "simd"),
        display_field(ev, "host_cores"),
        display_field(ev, "threads"),
    )
}

/// Compare `latest` against `priors` for one higher-is-better metric.
/// Returns the finding if the drop exceeds the CV-aware threshold.
fn throughput_finding(
    group: &str,
    metric: &str,
    priors: &[f64],
    latest: f64,
    threshold_pct: f64,
) -> Option<Finding> {
    let baseline = median(priors);
    if baseline <= 0.0 || !baseline.is_finite() || !latest.is_finite() {
        return None;
    }
    // Two sigmas of the baseline's own run-to-run spread, floored by
    // the static threshold: noisy series need bigger drops to alarm.
    let threshold = threshold_pct.max(200.0 * cv_of(priors));
    let drop_pct = (1.0 - latest / baseline) * 100.0;
    (drop_pct > threshold).then(|| Finding {
        group: group.to_string(),
        metric: metric.to_string(),
        baseline,
        latest,
        threshold,
        kind: "throughput",
    })
}

/// Rate fields of a manifest that carry Wilson bounds: every key `k`
/// with `k_lo` and `k_hi` siblings.
fn rate_keys(ev: &OwnedEvent) -> Vec<String> {
    ev.fields
        .iter()
        .filter(|(k, _)| !k.ends_with("_lo") && !k.ends_with("_hi"))
        .filter(|(k, _)| {
            ev.f64(&format!("{k}_lo")).is_some() && ev.f64(&format!("{k}_hi")).is_some()
        })
        .map(|(k, _)| k.clone())
        .collect()
}

/// Compare one rate field's Wilson interval between two runs; flag only
/// when the intervals, widened by `widen_pp` on each side, fail to
/// overlap.
fn drift_finding(
    group: &str,
    key: &str,
    prev: &OwnedEvent,
    latest: &OwnedEvent,
    widen_pp: f64,
) -> Option<Finding> {
    let (p_lo, p_hi) = (
        prev.f64(&format!("{key}_lo"))?,
        prev.f64(&format!("{key}_hi"))?,
    );
    let (l_lo, l_hi) = (
        latest.f64(&format!("{key}_lo"))?,
        latest.f64(&format!("{key}_hi"))?,
    );
    let disjoint = l_lo - widen_pp > p_hi + widen_pp || l_hi + widen_pp < p_lo - widen_pp;
    disjoint.then(|| Finding {
        group: group.to_string(),
        metric: key.to_string(),
        baseline: prev.f64(key).unwrap_or((p_lo + p_hi) / 2.0),
        latest: latest.f64(key).unwrap_or((l_lo + l_hi) / 2.0),
        threshold: widen_pp,
        kind: "rate_drift",
    })
}

/// Analyze the whole ledger: group manifests into comparable series and
/// compare each series' latest run against its history.
fn analyze_ledger(
    entries: &[OwnedEvent],
    threshold_pct: f64,
    widen_pp: f64,
) -> (Vec<GroupSummary>, Vec<Finding>) {
    let mut groups: BTreeMap<String, Vec<&OwnedEvent>> = BTreeMap::new();
    for ev in entries {
        groups.entry(group_key(ev)).or_default().push(ev);
    }
    let mut summaries = Vec::new();
    let mut findings = Vec::new();
    for (group, mut runs) in groups {
        // Append order is already chronological; unix_ms refines it
        // when ledgers are concatenated.
        runs.sort_by_key(|ev| ev.u64("unix_ms").unwrap_or(0));
        let mut compared = 0usize;
        let mut flagged = 0usize;
        if let Some((latest, priors)) = runs.split_last() {
            if !priors.is_empty() {
                for metric in THROUGHPUT_KEYS {
                    let Some(l) = latest.f64(metric) else {
                        continue;
                    };
                    let history: Vec<f64> = priors.iter().filter_map(|p| p.f64(metric)).collect();
                    if history.is_empty() {
                        continue;
                    }
                    compared += 1;
                    if let Some(f) = throughput_finding(&group, metric, &history, l, threshold_pct)
                    {
                        flagged += 1;
                        findings.push(f);
                    }
                }
                let prev = priors.last().expect("non-empty priors");
                for key in rate_keys(latest) {
                    if prev.f64(&key).is_none() {
                        continue;
                    }
                    compared += 1;
                    if let Some(f) = drift_finding(&group, &key, prev, latest, widen_pp) {
                        flagged += 1;
                        findings.push(f);
                    }
                }
            }
        }
        summaries.push(GroupSummary {
            group,
            runs: runs.len(),
            compared,
            flagged,
        });
    }
    (summaries, findings)
}

fn render_markdown(summaries: &[GroupSummary], findings: &[Finding], ledger_path: &Path) -> String {
    let mut md = String::from("# Observability report: cross-run regression sentinel\n\n");
    md.push_str(&format!(
        "Ledger: `{}`.\n\n## Verdict\n\n",
        ledger_path.display()
    ));
    if findings.is_empty() {
        md.push_str("No regressions flagged.\n\n");
    } else {
        md.push_str(&format!(
            "**{} regression(s) flagged.**\n\n",
            findings.len()
        ));
        md.push_str("| group | metric | kind | baseline | latest | threshold |\n|---|---|---|---:|---:|---:|\n");
        for f in findings {
            md.push_str(&format!(
                "| {} | {} | {} | {:.4} | {:.4} | {:.2}{} |\n",
                f.group,
                f.metric,
                f.kind,
                f.baseline,
                f.latest,
                f.threshold,
                if f.kind == "throughput" { "%" } else { "pp" },
            ));
        }
        md.push('\n');
    }
    md.push_str("## Series\n\n| series | runs | comparisons | flagged |\n|---|---:|---:|---:|\n");
    for s in summaries {
        md.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            s.group, s.runs, s.compared, s.flagged
        ));
    }
    md
}

fn render_json(summaries: &[GroupSummary], findings: &[Finding]) -> String {
    let finding = |f: &Finding| {
        Json::object([
            ("group", f.group.as_str().into()),
            ("metric", f.metric.as_str().into()),
            ("kind", f.kind.into()),
            ("baseline", f.baseline.into()),
            ("latest", f.latest.into()),
            ("threshold", f.threshold.into()),
        ])
    };
    let series = |s: &GroupSummary| {
        Json::object([
            ("series", s.group.as_str().into()),
            ("runs", s.runs.into()),
            ("comparisons", s.compared.into()),
            ("flagged", s.flagged.into()),
        ])
    };
    Json::object([
        ("report", "obs_report".into()),
        ("regressions", findings.len().into()),
        (
            "findings",
            Json::Array(findings.iter().map(finding).collect()),
        ),
        (
            "series",
            Json::Array(summaries.iter().map(series).collect()),
        ),
    ])
    .render()
}

fn main() -> ExitCode {
    let o = match cli::parse(USAGE, parse) {
        Ok(o) => o,
        Err(code) => return code,
    };

    let entries = match o.ledger.read() {
        Ok(e) => e,
        Err(e) => {
            return cli::fail(format!(
                "cannot read ledger {}: {e}",
                o.ledger.path().display()
            ))
        }
    };

    let (summaries, mut findings) = analyze_ledger(&entries, o.threshold_pct, o.widen_pp);
    // Most interesting first: biggest relative drop.
    findings.sort_by(|a, b| {
        let drop = |f: &Finding| (f.baseline - f.latest) / f.baseline.abs().max(1e-12);
        drop(b).total_cmp(&drop(a))
    });

    let md = render_markdown(&summaries, &findings, o.ledger.path());
    let json = render_json(&summaries, &findings);
    if let Err(e) = std::fs::create_dir_all(&o.out_dir) {
        return cli::fail(format!("cannot create {}: {e}", o.out_dir.display()));
    }
    for (name, body) in [("obs_report.md", &md), ("obs_report.json", &json)] {
        let path = o.out_dir.join(name);
        if let Err(e) = std::fs::write(&path, body) {
            return cli::fail(format!("cannot write {}: {e}", path.display()));
        }
    }
    if !o.quiet {
        print!("{md}");
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        // Distinct from hard errors (1): regressions flagged.
        ExitCode::from(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_telemetry::{jsonl, ledger};

    /// A synthetic campaign_bench manifest.
    fn manifest(unix_ms: u64, runs_per_sec: f64, sdc: (f64, f64, f64)) -> OwnedEvent {
        let (rate, lo, hi) = sdc;
        ledger::manifest(vec![
            ("tool".into(), OwnedValue::Str("campaign_bench".into())),
            ("unix_ms".into(), OwnedValue::U64(unix_ms)),
            ("simd".into(), OwnedValue::Str("swar".into())),
            ("host_cores".into(), OwnedValue::U64(4)),
            ("threads".into(), OwnedValue::U64(4)),
            ("config_digest".into(), OwnedValue::U64(0xD16E57)),
            ("runs_per_sec_on".into(), OwnedValue::F64(runs_per_sec)),
            ("rate_sdc".into(), OwnedValue::F64(rate)),
            ("rate_sdc_lo".into(), OwnedValue::F64(lo)),
            ("rate_sdc_hi".into(), OwnedValue::F64(hi)),
        ])
    }

    /// Same manifest in a different comparable series (other digest).
    fn manifest_in_series(unix_ms: u64, runs_per_sec: f64, digest: u64) -> OwnedEvent {
        let mut m = manifest(unix_ms, runs_per_sec, (5.0, 3.0, 8.0));
        if let Some((_, v)) = m.fields.iter_mut().find(|(k, _)| k == "config_digest") {
            *v = OwnedValue::U64(digest);
        }
        m
    }

    #[test]
    fn flags_exactly_the_degraded_run() {
        // Two series: one stable, one with a 40% throughput collapse in
        // its latest entry. Exactly the degraded series is flagged.
        let entries = vec![
            manifest(1_000, 100.0, (5.0, 3.0, 8.0)),
            manifest(2_000, 101.0, (5.0, 3.0, 8.0)),
            manifest_in_series(1_500, 100.0, 0xBADD16),
            manifest_in_series(2_500, 60.0, 0xBADD16),
        ];
        let (summaries, findings) = analyze_ledger(&entries, 10.0, 1.0);
        assert_eq!(summaries.len(), 2);
        assert_eq!(findings.len(), 1, "exactly the degraded run is flagged");
        assert!(
            findings[0].group.contains("cfg=12246294"),
            "0xBADD16 series"
        );
        assert_eq!(findings[0].metric, "runs_per_sec_on");
        assert_eq!(findings[0].kind, "throughput");
        assert_eq!(findings[0].latest, 60.0);
    }

    #[test]
    fn noisy_series_need_bigger_drops() {
        // Baseline spread (CV) ~20%: a 25% drop stays under the 2-sigma
        // threshold; the same drop on a tight baseline alarms.
        let noisy: Vec<f64> = vec![80.0, 100.0, 120.0];
        assert!(throughput_finding("g", "m", &noisy, 75.0, 10.0).is_none());
        let tight: Vec<f64> = vec![99.0, 100.0, 101.0];
        assert!(throughput_finding("g", "m", &tight, 75.0, 10.0).is_some());
    }

    #[test]
    fn rate_drift_uses_widened_wilson_intervals() {
        let a = manifest(1_000, 100.0, (5.0, 3.0, 8.0));
        // Overlaps once widened by 1pp: no flag.
        let b = manifest(2_000, 100.0, (10.0, 8.5, 13.0));
        let (_, findings) = analyze_ledger(&[a.clone(), b], 10.0, 1.0);
        assert!(findings.is_empty(), "widened intervals overlap");
        // Far outside even after widening: flagged as drift.
        let c = manifest(2_000, 100.0, (20.0, 16.0, 25.0));
        let (_, findings) = analyze_ledger(&[a, c], 10.0, 1.0);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, "rate_drift");
        assert_eq!(findings[0].metric, "rate_sdc");
    }

    #[test]
    fn single_run_series_compare_nothing() {
        let (summaries, findings) =
            analyze_ledger(&[manifest(1_000, 100.0, (5.0, 3.0, 8.0))], 10.0, 1.0);
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].compared, 0);
        assert!(findings.is_empty());
    }

    #[test]
    fn report_json_carries_ledger_strings_verbatim() {
        // Ledger strings reach the report's series and finding groups;
        // a quote or backslash in them must not break the document.
        let tool = r#"a"b\c"#;
        let named = |unix_ms, runs_per_sec| {
            let mut m = manifest(unix_ms, runs_per_sec, (5.0, 3.0, 8.0));
            for (k, v) in &mut m.fields {
                if k == "tool" {
                    *v = OwnedValue::Str(tool.into());
                }
            }
            m
        };
        let (summaries, findings) =
            analyze_ledger(&[named(1_000, 100.0), named(2_000, 50.0)], 10.0, 1.0);
        assert_eq!(findings.len(), 1);
        let doc = jsonl::parse_document(&render_json(&summaries, &findings)).unwrap();
        let group = |list: &str, key: &str| match doc.get(list) {
            Some(Json::Array(items)) => match items[0].get(key) {
                Some(Json::Scalar(OwnedValue::Str(s))) => s.clone(),
                other => panic!("{list}[0].{key}: {other:?}"),
            },
            other => panic!("{list}: {other:?}"),
        };
        assert!(group("series", "series").starts_with(&format!("{tool}/cfg=")));
        assert!(group("findings", "group").starts_with(&format!("{tool}/cfg=")));
    }
}
