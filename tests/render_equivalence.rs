//! Untapped summaries paint each segment's Overwrite composites last
//! frame first; golden profiles (tapped) composite frame by frame across
//! the whole canvas. Both must give the same panoramas for every input,
//! approximation and compositing option, or the speed-up would change
//! what the campaigns compare their SDCs against.

use video_summarization::prelude::*;

const ALL_OPTS: [CompositeOptions; 2] = [
    CompositeOptions {
        blend: BlendMode::Overwrite,
    },
    CompositeOptions {
        blend: BlendMode::Feather,
    },
];

/// Off-session `summarize()` against the tapped golden run's output.
fn assert_summary_matches_golden(
    input: InputId,
    scale: Scale,
    approx: Approximation,
    opts: CompositeOptions,
) {
    let frames = render_input(&experiments::input_spec(input, scale));
    let config = experiments::pipeline_config(scale, approx).with_compositing(opts);
    let w = VsWorkload::new(frames, config);
    let plain = w.summarize().expect("untapped summary");
    let golden = campaign::profile_golden(&w).expect("golden profile");
    assert!(!plain.panoramas.is_empty(), "{input} {scale:?} {approx:?}");
    assert!(
        plain.panoramas == golden.output,
        "{input} {scale:?} {approx:?} {opts:?}: panoramas differ from the golden run"
    );
}

#[test]
fn quick_summaries_match_golden_for_every_variant_and_option() {
    for input in InputId::BOTH {
        for approx in Approximation::paper_variants() {
            for opts in ALL_OPTS {
                assert_summary_matches_golden(input, Scale::Quick, approx, opts);
            }
        }
    }
}

#[test]
fn paper_scale_baseline_summaries_match_golden() {
    for input in InputId::BOTH {
        assert_summary_matches_golden(
            input,
            Scale::Paper,
            Approximation::Baseline,
            CompositeOptions::default(),
        );
    }
}
