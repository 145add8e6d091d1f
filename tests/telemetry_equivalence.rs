//! Zero-perturbation proof at the workload layer: telemetry sinks must
//! never change what the fault simulator computes. Golden tap profiles,
//! fault draws, outcome classifications and fired-fault records have to
//! be bit-for-bit identical with telemetry off and with a JSONL sink
//! streaming every event — across thread counts and both checkpoint
//! policies. Telemetry lives outside the simulated machine; any
//! divergence here means an event emission leaked into the tap stream.

use std::sync::{Arc, Mutex};
use video_summarization::prelude::*;
use vs_core::workloads::VsWorkload;
use vs_fault::campaign::{CheckpointPolicy, Injection};
use vs_telemetry::ledger::Ledger;
use vs_telemetry::{JsonlSink, OwnedValue, Sink};

fn workload() -> VsWorkload {
    experiments::vs_workload(InputId::Input2, Scale::Quick, Approximation::Baseline)
}

/// (spec, outcome, fired) fingerprint of a campaign — everything the
/// resiliency statistics are built from.
fn fingerprint(recs: &[Injection<Vec<RgbImage>>]) -> Vec<String> {
    recs.iter()
        .map(|r| format!("{} {:?} {:?}", r.spec, r.outcome, r.fired))
        .collect()
}

/// A JSONL sink whose bytes stay reachable after the install guard
/// drops, so the test can parse what was streamed.
fn shared_jsonl_sink() -> (Arc<dyn Sink>, Arc<Mutex<Vec<u8>>>) {
    struct SharedWriter(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for SharedWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let bytes = Arc::new(Mutex::new(Vec::new()));
    let sink = JsonlSink::new(SharedWriter(Arc::clone(&bytes)));
    (Arc::new(sink), bytes)
}

#[test]
fn golden_profile_is_identical_with_jsonl_sink_installed() {
    let w = workload();
    let quiet = campaign::profile_golden(&w).unwrap();

    let (sink, bytes) = shared_jsonl_sink();
    let traced = {
        let _g = vs_telemetry::install(sink);
        campaign::profile_golden(&w).unwrap()
    };

    assert_eq!(quiet.profile, traced.profile, "tap profile perturbed");
    assert_eq!(quiet.output, traced.output, "golden output perturbed");

    let text = String::from_utf8(bytes.lock().unwrap().clone()).unwrap();
    let events = vs_telemetry::jsonl::parse_trace(&text).expect("trace must parse");
    assert!(
        events.iter().any(|e| e.name == "golden_profile"),
        "golden run emitted no profile event"
    );
    assert!(events.iter().any(|e| e.name == "frame"));
}

/// Untapped summaries paint each segment last frame first, but still
/// trace one `warp_stage` span and one timed `warp` event per composite,
/// in a well-formed span tree.
#[test]
fn untapped_summary_traces_one_warp_per_composite() {
    let w = workload();
    let (sink, bytes) = shared_jsonl_sink();
    let summary = {
        let _g = vs_telemetry::install(sink);
        w.summarize().unwrap()
    };
    let text = String::from_utf8(bytes.lock().unwrap().clone()).unwrap();
    let events = vs_telemetry::jsonl::parse_trace(&text).expect("trace must parse");
    let composites = summary.alignments.len();
    assert!(composites > 1);
    let warps: Vec<_> = events.iter().filter(|e| e.name == "warp").collect();
    assert_eq!(warps.len(), composites, "one warp event per composite");
    for e in &warps {
        assert!(e.u64("ns").is_some_and(|ns| ns > 0), "untimed warp: {e:?}");
        assert!(e.u64("pixels").is_some_and(|px| px > 0), "{e:?}");
    }
    let stages = events
        .iter()
        .filter(|e| e.name == "span_enter" && e.str("span") == Some("warp_stage"))
        .count();
    assert_eq!(stages, composites, "one warp_stage span per composite");
    vs_telemetry::export::validate_spans(&events).expect("span tree must validate");
}

#[test]
fn campaigns_are_identical_across_threads_with_jsonl_sink() {
    let w = workload();
    let golden = campaign::profile_golden(&w).unwrap();
    const N: usize = 16;

    for threads in [1usize, 4] {
        let cfg = CampaignConfig::new(RegClass::Gpr, N)
            .seed(0x7E1E)
            .threads(threads);
        let quiet = campaign::run_campaign(&w, &golden, &cfg);

        let (sink, bytes) = shared_jsonl_sink();
        let traced = {
            let _g = vs_telemetry::install(sink);
            campaign::run_campaign(&w, &golden, &cfg)
        };
        assert_eq!(
            fingerprint(&quiet),
            fingerprint(&traced),
            "campaign perturbed at threads({threads})"
        );

        let text = String::from_utf8(bytes.lock().unwrap().clone()).unwrap();
        let events = vs_telemetry::jsonl::parse_trace(&text).expect("trace must parse");
        let injections = events.iter().filter(|e| e.name == "injection").count();
        assert_eq!(injections, N, "one injection event per run");
        assert_eq!(
            events.iter().filter(|e| e.name == "campaign_start").count(),
            1
        );
        assert_eq!(
            events.iter().filter(|e| e.name == "campaign_done").count(),
            1
        );
    }
}

#[test]
fn spans_and_ledger_do_not_perturb_campaigns() {
    let w = workload();
    let golden = campaign::profile_golden(&w).unwrap();
    let ck = campaign::profile_golden_checkpointed(&w, CheckpointPolicy::EveryKFrames(2)).unwrap();
    const N: usize = 12;

    let dir = std::env::temp_dir().join(format!("vs_equiv_ledger_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ledger = Ledger::in_dir(&dir);
    vs_telemetry::set_trace_seed(0x0B5E);
    let mut appended = 0usize;

    for threads in [1usize, 4] {
        for checkpointed in [false, true] {
            let mut cfg = CampaignConfig::new(RegClass::Gpr, N)
                .seed(0x0B5E)
                .threads(threads);
            if checkpointed {
                cfg = cfg.checkpoint_policy(CheckpointPolicy::EveryKFrames(2));
            }
            let quiet = if checkpointed {
                campaign::run_campaign_checkpointed(&w, &ck, &cfg)
            } else {
                campaign::run_campaign(&w, &golden, &cfg)
            };

            let (sink, bytes) = shared_jsonl_sink();
            let traced = {
                let _g = vs_telemetry::install(sink);
                let _case = vs_telemetry::span("equivalence_case");
                let recs = if checkpointed {
                    campaign::run_campaign_checkpointed(&w, &ck, &cfg)
                } else {
                    campaign::run_campaign(&w, &golden, &cfg)
                };
                // Persist a manifest while the trace is live: ledger
                // writes must be as invisible to the campaign as the
                // sink itself.
                ledger
                    .append(&vs_telemetry::ledger::manifest(vec![
                        ("tool".into(), OwnedValue::Str("equivalence".into())),
                        ("threads".into(), OwnedValue::U64(threads as u64)),
                        ("checkpointed".into(), OwnedValue::Bool(checkpointed)),
                    ]))
                    .expect("ledger append");
                appended += 1;
                recs
            };
            assert_eq!(
                fingerprint(&quiet),
                fingerprint(&traced),
                "spans+ledger perturbed campaign (threads {threads}, checkpointed {checkpointed})"
            );

            let text = String::from_utf8(bytes.lock().unwrap().clone()).unwrap();
            let events = vs_telemetry::jsonl::parse_trace(&text).expect("trace must parse");
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

#[test]
fn checkpointed_campaigns_are_identical_with_jsonl_sink() {
    let w = workload();
    let golden = campaign::profile_golden(&w).unwrap();
    let ck = campaign::profile_golden_checkpointed(&w, CheckpointPolicy::EveryKFrames(2)).unwrap();
    assert_eq!(golden.profile, ck.golden.profile);
    const N: usize = 16;

    for threads in [1usize, 4] {
        let cfg = CampaignConfig::new(RegClass::Gpr, N)
            .seed(0x7E1E)
            .threads(threads)
            .checkpoint_policy(CheckpointPolicy::EveryKFrames(2));
        let quiet = campaign::run_campaign_checkpointed(&w, &ck, &cfg);

        let (sink, bytes) = shared_jsonl_sink();
        let traced = {
            let _g = vs_telemetry::install(sink);
            campaign::run_campaign_checkpointed(&w, &ck, &cfg)
        };
        assert_eq!(
            fingerprint(&quiet),
            fingerprint(&traced),
            "checkpointed campaign perturbed at threads({threads})"
        );

        // Fast-forwarded campaigns must also match the scratch campaign
        // (fingerprints carry over from the run_campaign test seed).
        let scratch = campaign::run_campaign(
            &w,
            &golden,
            &CampaignConfig::new(RegClass::Gpr, N)
                .seed(0x7E1E)
                .threads(threads),
        );
        assert_eq!(fingerprint(&scratch), fingerprint(&traced));

        let text = String::from_utf8(bytes.lock().unwrap().clone()).unwrap();
        let events = vs_telemetry::jsonl::parse_trace(&text).expect("trace must parse");
        assert_eq!(events.iter().filter(|e| e.name == "injection").count(), N);
        let done = events
            .iter()
            .find(|e| e.name == "campaign_done")
            .expect("campaign_done present");
        assert_eq!(done.u64("done"), Some(N as u64));
    }
}
