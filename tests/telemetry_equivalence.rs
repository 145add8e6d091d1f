//! Zero-perturbation proof at the workload layer for trace sinks, alone
//! and together with every other observer: the trace and all-capability
//! cells of the observation matrix (see `observation/mod.rs`), plus the
//! golden run under a sink and campaigns with spans open and ledger
//! writes in flight. A JSONL sink streaming every event must leave
//! golden tap profiles, fault draws, fired faults and outcome
//! classifications bit-for-bit identical, across thread counts and
//! campaign flavours; any divergence means an event emission leaked
//! into the tap stream. Two checks pin what a trace says: spans name
//! pipeline stages by the forensic `Stage`s, and an untapped summary
//! traces one warp per composite.

mod observation;

use observation::{check, traced, workload, Caps, Flavour};
use std::sync::Arc;
use video_summarization::prelude::*;
use vs_fault::campaign::{CheckpointPolicy, Injection};
use vs_telemetry::digest::Stage;
use vs_telemetry::ledger::{self, Ledger};
use vs_telemetry::{MemorySink, OwnedEvent, OwnedValue};

#[test]
fn golden_profile_is_identical_with_jsonl_sink_installed() {
    let w = workload();
    let quiet = campaign::profile_golden(&w).unwrap();
    let (traced, events) = traced(true, || campaign::profile_golden(&w).unwrap());
    assert_eq!(quiet.profile, traced.profile, "tap profile perturbed");
    assert_eq!(quiet.output, traced.output, "golden output perturbed");
    assert!(
        events.iter().any(|e| e.name == "golden_profile"),
        "golden run emitted no profile event"
    );
    assert!(events.iter().any(|e| e.name == "frame"));
}

#[test]
fn spans_and_ledger_do_not_perturb_campaigns() {
    let w = workload();
    let golden = campaign::profile_golden(&w).unwrap();
    let policy = CheckpointPolicy::EveryKFrames(2);
    let ck = campaign::profile_golden_checkpointed(&w, policy).unwrap();
    const N: usize = 12;

    let dir = std::env::temp_dir().join(format!("vs_equiv_ledger_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ledger = Ledger::in_dir(&dir);
    vs_telemetry::set_trace_seed(0x0B5E);
    let mut appended = 0usize;

    for threads in [1usize, 4] {
        for checkpointed in [false, true] {
            let cfg = CampaignConfig::new(RegClass::Gpr, N)
                .seed(0x0B5E)
                .threads(threads);
            let ck_cfg = cfg.clone().checkpoint_policy(policy);
            let run = || {
                if checkpointed {
                    campaign::run_campaign_checkpointed(&w, &ck, &ck_cfg)
                } else {
                    campaign::run_campaign(&w, &golden, &cfg)
                }
            };
            let quiet = run();
            let (traced, events) = traced(true, || {
                let _case = vs_telemetry::span("equivalence_case");
                let recs = run();
                // Persist a manifest while the trace is live: ledger
                // writes must be as invisible to the campaign as the
                // sink itself.
                let manifest = ledger::manifest(vec![
                    ("tool".into(), OwnedValue::Str("equivalence".into())),
                    ("threads".into(), OwnedValue::U64(threads as u64)),
                    ("checkpointed".into(), OwnedValue::Bool(checkpointed)),
                ]);
                ledger.append(&manifest).expect("ledger append");
                recs
            });
            appended += 1;
            let [want, got] = [&quiet, &traced]
                .map(|recs| recs.iter().map(Injection::identity).collect::<Vec<_>>());
            assert_eq!(
                want, got,
                "spans+ledger perturbed campaign (threads {threads}, checkpointed {checkpointed})"
            );

            assert!(events.iter().any(|e| e.name == "span_enter"));
            assert!(events.iter().any(|e| e.name == "span_exit"));
            let stats =
                vs_telemetry::export::validate_spans(&events).expect("span tree well-formed");
            assert!(
                stats.spans >= 2,
                "test span plus driver campaign span, got {}",
                stats.spans
            );
            assert!(
                stats.max_depth >= 2,
                "campaign span must nest inside the test span"
            );
            assert_eq!(events.iter().filter(|e| e.name == "injection").count(), N);
        }
    }

    let back = ledger.read().expect("ledger reads back");
    assert_eq!(back.len(), appended);
    assert!(back.iter().all(|e| e.str("tool") == Some("equivalence")));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `f` under a memory sink: its result and the names of the spans
/// it opened, in order.
fn spans_of<T>(f: impl FnOnce() -> T) -> (T, Vec<OwnedEvent>, Vec<String>) {
    let sink = Arc::new(MemorySink::new());
    let out = {
        let _g = vs_telemetry::install(sink.clone());
        f()
    };
    let events = sink.events();
    let names = events
        .iter()
        .filter(|e| e.name == "span_enter")
        .filter_map(|e| e.str("span").map(str::to_string))
        .collect();
    (out, events, names)
}

/// The stages, in dataflow order, with at least one span in `names`.
fn spanned(names: &[String]) -> Vec<Stage> {
    let named = |s: &Stage| names.iter().any(|n| n == s.name());
    Stage::ALL.into_iter().filter(named).collect()
}

/// Spans and forensic digests name pipeline stages with one vocabulary:
/// a forensic golden run opens spans of exactly the stages whose digest
/// folded a record, its other spans are structural, and an untapped
/// summary opens spans of the same stages.
#[test]
fn spans_and_digests_share_the_stage_vocabulary() {
    let w = workload();
    let (golden, _, names) = spans_of(|| campaign::profile_golden_forensic(&w).unwrap());
    let structural = ["profile_golden", "pipeline_run", "frame", "render"];
    for name in &names {
        assert!(
            Stage::ALL.iter().any(|s| s.name() == name) || structural.contains(&name.as_str()),
            "span '{name}' is neither a stage nor structural"
        );
    }
    let digests = golden.digests.expect("forensic golden run");
    let digested: Vec<Stage> = Stage::ALL
        .into_iter()
        .filter(|&s| digests.count(s) > 0)
        .collect();
    assert_eq!(digested, Stage::ALL, "every stage folds a digest");
    assert_eq!(spanned(&names), digested, "tapped golden run");
    let (_, _, untapped) = spans_of(|| w.summarize().unwrap());
    assert_eq!(spanned(&untapped), digested, "untapped summary");
}

/// Untapped summaries paint each segment last frame first, but still
/// trace one `warp` stage span and one `warp` event per composite, in a
/// well-formed span tree.
#[test]
fn untapped_summary_traces_one_warp_per_composite() {
    let w = workload();
    let (summary, events, names) = spans_of(|| w.summarize().unwrap());
    let composites = summary.alignments.len();
    assert!(composites > 1);
    let warps: Vec<_> = events.iter().filter(|e| e.name == "warp").collect();
    assert_eq!(warps.len(), composites, "one warp event per composite");
    for e in &warps {
        assert!(e.u64("pixels").is_some_and(|px| px > 0), "{e:?}");
    }
    let spans = names.iter().filter(|n| *n == Stage::Warp.name()).count();
    assert_eq!(spans, composites, "one warp span per composite");
    vs_telemetry::export::validate_spans(&events).expect("span tree must validate");
}

#[test]
fn campaigns_are_identical_across_threads_with_jsonl_sink() {
    check(Caps::Trace, Flavour::Scratch);
}

#[test]
fn checkpointed_campaigns_are_identical_with_jsonl_sink() {
    check(Caps::Trace, Flavour::Checkpointed);
}

#[test]
fn composed_pilots_are_identical_with_jsonl_sink() {
    check(Caps::Trace, Flavour::Composed);
}

#[test]
fn campaigns_are_identical_with_every_observer() {
    check(Caps::All, Flavour::Scratch);
}

#[test]
fn checkpointed_campaigns_are_identical_with_every_observer() {
    check(Caps::All, Flavour::Checkpointed);
}

#[test]
fn composed_pilots_are_identical_with_every_observer() {
    check(Caps::All, Flavour::Composed);
}
