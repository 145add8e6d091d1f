//! Workspace reuse must never change what the fault simulator computes.
//! Every run executes into a per-worker workspace, and a workspace that
//! already served earlier runs — faulted, crashed and hung ones
//! included — has to behave exactly like a freshly allocated one. Tap
//! reports (total, eligible and per-function counts), fault draws,
//! outcome classifications and fired-fault records must be bit-for-bit
//! identical across repeated reuse, thread counts and both checkpoint
//! policies. The workspace is a buffer recycler outside the simulated
//! machine; any divergence here means buffer reuse leaked into the tap
//! stream or the output.

use video_summarization::prelude::*;
use vs_core::RunScratch;
use vs_fault::campaign::{Checkpoint, CheckpointPolicy, Injection};
use vs_fault::session::{self, TapSnapshot};
use vs_fault::FiredFault;

fn workload() -> VsWorkload {
    experiments::vs_workload(InputId::Input2, Scale::Quick, Approximation::Baseline)
}

/// What a session reports at its end: its counters and the fault it
/// fired.
type Report = (TapSnapshot, Option<FiredFault>);

fn report() -> Report {
    (session::snapshot(), session::fired())
}

/// One profiled run — from the start, or resumed after `from` — into a
/// freshly allocated workspace: its output and tap report.
fn fresh_run<W: Workload>(w: &W, from: Option<&W::Checkpoint>) -> (W::Output, Report) {
    let mut ws = W::Workspace::default();
    let _g = match from {
        Some(c) => session::begin_profile_at(c.tap_snapshot()),
        None => session::begin_profile(),
    };
    let out = w.run(&mut ws, from).unwrap().clone();
    (out, report())
}

#[test]
fn workspace_runs_match_allocating_runs_tap_for_tap() {
    let w = workload();
    let (fresh, fresh_taps) = fresh_run(&w, None);
    // The same workspace, reused run after run: the tap report (which
    // carries per-function and per-class instruction counts) and the
    // output must never drift from the fresh workspace's.
    let mut ws = RunScratch::default();
    for round in 0..3 {
        let _g = session::begin_profile();
        let out = w.run(&mut ws, None).unwrap();
        assert_eq!(
            report(),
            fresh_taps,
            "tap profile diverged on reuse round {round}"
        );
        assert_eq!(*out, fresh, "output diverged on reuse round {round}");
    }
}

#[test]
fn workspace_resume_matches_allocating_resume_at_every_checkpoint() {
    let w = workload();
    let ck = campaign::profile_golden_checkpointed(&w, CheckpointPolicy::EveryKFrames(2)).unwrap();
    assert!(!ck.checkpoints.is_empty());
    let mut ws = RunScratch::default();
    // Dirty the workspace with a full run first: a restore must fully
    // reset every buffer it touches.
    w.run(&mut ws, None).unwrap();
    for (i, c) in ck.checkpoints.iter().enumerate() {
        let (fresh, fresh_taps) = fresh_run(&w, Some(c));
        let _g = session::begin_profile_at(c.tap_snapshot());
        let out = w.run(&mut ws, Some(c)).unwrap();
        assert_eq!(
            report(),
            fresh_taps,
            "tap counters diverged resuming checkpoint {i}"
        );
        assert_eq!(*out, fresh, "output diverged resuming checkpoint {i}");
        assert_eq!(fresh, ck.golden.output, "checkpoint {i} resume vs golden");
    }
}

/// A faulted run never leaks state into the next one. With one worker,
/// a single workspace serves every run of the campaign, faulted ones
/// included; with one worker per run, every run gets a fresh workspace.
/// Both must produce the same records, under both checkpoint policies.
#[test]
fn campaigns_match_across_policies_and_threads() {
    let w = workload();
    let ck_off = campaign::profile_golden_checkpointed(&w, CheckpointPolicy::Off).unwrap();
    let ck2 = campaign::profile_golden_checkpointed(&w, CheckpointPolicy::EveryKFrames(2)).unwrap();
    assert_eq!(
        ck_off.golden.profile, ck2.golden.profile,
        "checkpoint capture perturbed the golden profile"
    );
    assert!(ck_off.checkpoints.is_empty(), "Off must capture nothing");
    assert!(
        ck2.checkpoints.iter().any(|c| c.is_render()),
        "render-phase checkpoints expected at EveryKFrames(2)"
    );
    const N: usize = 16;
    for class in [RegClass::Gpr, RegClass::Fpr] {
        for (policy, g) in [
            (CheckpointPolicy::Off, &ck_off),
            (CheckpointPolicy::EveryKFrames(2), &ck2),
        ] {
            let run = |threads: usize| {
                let cfg = CampaignConfig::new(class, N)
                    .seed(0x7E1E)
                    .threads(threads)
                    .checkpoint_policy(policy);
                campaign::run_campaign_checkpointed(&w, g, &cfg)
            };
            let reused = run(1);
            if class == RegClass::Gpr {
                assert!(
                    reused.iter().any(|r| r.outcome != Outcome::Masked),
                    "the shared workspace must also serve faulted runs"
                );
            }
            let [want, got] = [reused, run(N)]
                .map(|recs| recs.iter().map(Injection::identity).collect::<Vec<_>>());
            assert_eq!(
                want, got,
                "shared workspace diverged from fresh ones: {class} {policy:?}"
            );
        }
    }
}
