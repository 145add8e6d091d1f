//! The end-to-end video-summarization pipeline (§III).
//!
//! Frames are processed in order. Each is (optionally) dropped by the
//! RFD approximation, decoded to grayscale, reduced to ORB features,
//! matched against the previous accepted frame, and chained into the
//! current segment via a RANSAC homography (affine fallback, discard as
//! last resort). Segments — broken by match failure streaks, the paper's
//! "dissimilar viewing angles and settings" — are each stitched into a
//! mini-panorama by aligning every frame to the segment's first frame.

use crate::approx::drop_frame;
use crate::config::{Approximation, PipelineConfig};
use std::sync::Arc;
use vs_fault::campaign::{phase::RESTORE, Checkpoint};
use vs_fault::session::{self, TapSnapshot};
use vs_fault::{tap, FuncId, OpClass, SimError};
use vs_features::{Descriptor, Feature, Orb, OrbScratch};
use vs_geometry::ransac::{self, RansacConfig, RansacScratch};
use vs_geometry::transform::{transformed_bounds, Bounds};
use vs_image::{GrayImage, RgbImage, SimdLevel};
use vs_linalg::{Mat3, Vec2};
use vs_matching::{Match, RatioMatcher, SimpleMatcher};
use vs_telemetry::digest::{self, DigestTrace, Stage};
use vs_telemetry::Value;
use vs_warp::{BlendMode, Canvas, CanvasPatch, WarpScratch};

/// Counters describing what the pipeline did with its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SummaryStats {
    /// Frames presented to the pipeline.
    pub frames_in: usize,
    /// Frames dropped by the RFD input approximation.
    pub frames_dropped_by_input: usize,
    /// Frames discarded for insufficient matches (§III-A).
    pub frames_discarded: usize,
    /// Frames aligned with a full homography.
    pub homographies: usize,
    /// Frames aligned with the affine fallback.
    pub affine_fallbacks: usize,
    /// Mini-panoramas produced.
    pub segments: usize,
}

/// How one frame was aligned into its mini-panorama.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameAlignment {
    /// Index of the frame in the input sequence.
    pub frame: usize,
    /// Segment (mini-panorama) it belongs to.
    pub segment: usize,
    /// Transform from this frame's coordinates to the segment anchor's.
    pub h_to_anchor: Mat3,
}

/// The pipeline's output: one image per mini-panorama, plus statistics
/// and the per-frame alignments (consumed by the event-summarization
/// branch).
///
/// Only the panoramas constitute the *observable output* compared for
/// SDC classification; the rest is diagnostic/auxiliary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Summary {
    /// Mini-panorama images, in segment order.
    pub panoramas: Vec<RgbImage>,
    /// World coordinate of each panorama's pixel `(0, 0)` in its segment
    /// anchor's frame (for overlaying world-frame annotations).
    pub panorama_origins: Vec<Vec2>,
    /// Alignment of every stitched frame.
    pub alignments: Vec<FrameAlignment>,
    /// Processing statistics.
    pub stats: SummaryStats,
}

/// State carried from the last accepted frame.
#[derive(Clone)]
struct PrevFrame {
    features: Vec<Feature>,
    /// The features' descriptors, extracted once when the frame was
    /// accepted and reused as the train side of every later match —
    /// the query side borrows the same vector when KDS keeps all points.
    descriptors: Vec<Descriptor>,
    h_to_anchor: Mat3,
}

/// Run-scoped workspace owning every transient buffer one pipeline run
/// needs: the gray plane, ORB pyramid/detection scratch, feature and
/// descriptor vectors for the current and previous frame, match and
/// correspondence lists, RANSAC buffers, segment alignment lists (plus a
/// recycling pool), the stitching canvas with its warp patch, and the
/// [`Summary`] the run writes into.
///
/// Feed the same workspace to [`VideoSummarizer::run_with`] across runs
/// and, once the buffers have grown to the workload's high-water mark,
/// steady-state execution performs no heap allocation at all. Results
/// are bit-identical to the allocating entry points.
#[derive(Default)]
pub struct RunScratch {
    summary: Summary,
    gray: GrayImage,
    orb: OrbScratch,
    features: Vec<Feature>,
    descriptors: Vec<Descriptor>,
    prev_features: Vec<Feature>,
    prev_descriptors: Vec<Descriptor>,
    prev_h: Mat3,
    prev_some: bool,
    downsampled: Vec<Descriptor>,
    matches: Vec<Match>,
    pairs: Vec<(Vec2, Vec2)>,
    ransac: RansacScratch,
    segments: Vec<Vec<(usize, Mat3)>>,
    current: Vec<(usize, Mat3)>,
    pool: Vec<Vec<(usize, Mat3)>>,
    canvas: Canvas,
    warp: WarpScratch,
}

impl RunScratch {
    /// The output of the last successful `run_with` call.
    /// Contents are unspecified after a run that returned an error.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Total heap footprint (element counts) of all owned buffers.
    pub fn footprint(&self) -> usize {
        self.gray.capacity()
            + self.orb.footprint()
            + self.features.capacity()
            + self.descriptors.capacity()
            + self.prev_features.capacity()
            + self.prev_descriptors.capacity()
            + self.downsampled.capacity()
            + self.matches.capacity()
            + self.pairs.capacity()
            + self.ransac.footprint()
            + self.segments.capacity()
            + self.segments.iter().map(|s| s.capacity()).sum::<usize>()
            + self.current.capacity()
            + self.pool.capacity()
            + self.pool.iter().map(|s| s.capacity()).sum::<usize>()
            + self.canvas.footprint()
            + self.warp.footprint()
            + self.summary.panoramas.capacity()
            + self
                .summary
                .panoramas
                .iter()
                .map(|p| p.capacity())
                .sum::<usize>()
            + self.summary.panorama_origins.capacity()
            + self.summary.alignments.capacity()
    }
}

/// Render-phase extension of [`PipelineCheckpoint`]: the canvas pixels
/// composited so far plus every already-finished panorama, so a resumed
/// run replays only the composites at and after the captured position.
/// The render phase holds ~90% of a run's taps (the warp pair dominates
/// the execution profile, Fig 8), so these checkpoints — not the
/// frame-loop ones — carry most of the campaign fast-forward.
///
/// The canvas is stored as a patch chain rather than a copy: a resumed
/// run re-derives the segment's bounds, resets its canvas (both
/// tap-free) and replays the patches. Each patch, and the finished
/// panoramas, are shared by every checkpoint of the segment.
#[derive(Clone)]
struct RenderCheckpoint {
    /// Segment being rendered.
    segment: usize,
    /// Composites `0..pos` of that segment are already on the canvas.
    pos: usize,
    /// The pixels composites `0..pos` wrote, in composite order.
    patches: Vec<Arc<CanvasPatch>>,
    /// Finished panoramas of segments `< segment`, with their origins.
    finished: Arc<[(RgbImage, Vec2)]>,
}

/// Pipeline state at a frame or composite boundary during golden
/// profiling, plus the tap counters there ([`TapSnapshot`]) — everything
/// needed to replay the run's suffix exactly. Captured by
/// [`VideoSummarizer::run_capturing`], consumed by
/// [`VideoSummarizer::run_with`]; the golden-prefix fast-forward for fault
/// campaigns (see [`vs_fault::campaign::Workload`]).
///
/// Opaque on purpose: its fields mirror the loop's private state.
#[derive(Clone)]
pub struct PipelineCheckpoint {
    /// Frame index the resumed loop starts at (`frames.len()` for
    /// render-phase checkpoints: the frame loop is already complete).
    next_frame: usize,
    stats: SummaryStats,
    segments: Vec<Vec<(usize, Mat3)>>,
    current: Vec<(usize, Mat3)>,
    prev: Option<PrevFrame>,
    discard_streak: usize,
    /// Mid-render state, when captured inside the render phase.
    render: Option<RenderCheckpoint>,
    taps: TapSnapshot,
    /// Stage digest trace accumulated up to the capture point (all-zero
    /// when forensics was off during the capturing run).
    digests: DigestTrace,
}

impl Checkpoint for PipelineCheckpoint {
    fn tap_snapshot(&self) -> &TapSnapshot {
        &self.taps
    }

    /// Seeding a resumed run's recorder with this trace makes the
    /// replayed suffix fold to exactly the digests a from-scratch run
    /// produces (all-zero when forensics was off during capture).
    fn digest_trace(&self) -> DigestTrace {
        self.digests
    }
}

impl PipelineCheckpoint {
    /// The frame index the resumed loop starts at.
    pub fn next_frame(&self) -> usize {
        self.next_frame
    }

    /// Whether this checkpoint was captured inside the render phase
    /// (after the frame loop completed).
    pub fn is_render(&self) -> bool {
        self.render.is_some()
    }
}

/// The video-summarization application.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoSummarizer {
    config: PipelineConfig,
}

impl VideoSummarizer {
    /// Create a summarizer with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        VideoSummarizer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Summarize a frame sequence into mini-panoramas.
    ///
    /// Deterministic for a given `(config, frames)` pair: all internal
    /// randomness (RANSAC sampling, RFD drops) derives from
    /// `config.seed`.
    ///
    /// # Errors
    ///
    /// Propagates simulated faults ([`SimError`]) from instrumented
    /// stages; an error-free run over non-degenerate input succeeds.
    pub fn run(&self, frames: &[RgbImage]) -> Result<Summary, SimError> {
        let mut scratch = RunScratch::default();
        self.run_inner(frames, None, None, &mut scratch)?;
        Ok(std::mem::take(&mut scratch.summary))
    }

    /// As [`VideoSummarizer::run`], but into a caller-owned workspace:
    /// the output lands in [`RunScratch::summary`] and every transient
    /// buffer is recycled from the previous run. Bit-identical to
    /// [`VideoSummarizer::run`]; allocation-free once `scratch` has
    /// warmed up.
    ///
    /// With `from` set, only the suffix of the run after that checkpoint
    /// is replayed — exact for any injected fault whose tap index lies at
    /// or beyond the checkpoint's eligible-tap count (the session must
    /// have been started with [`vs_fault::session::begin_injection_at`]
    /// or [`vs_fault::session::begin_profile_at`] on the same snapshot).
    ///
    /// # Errors
    ///
    /// As for [`VideoSummarizer::run`]. On error the workspace stays
    /// reusable but its summary contents are unspecified.
    pub fn run_with(
        &self,
        frames: &[RgbImage],
        from: Option<&PipelineCheckpoint>,
        scratch: &mut RunScratch,
    ) -> Result<(), SimError> {
        self.run_inner(frames, from, None, scratch)
    }

    /// Run from the start into `scratch` as
    /// [`VideoSummarizer::run_with`] does — tap-for-tap identical — while
    /// capturing a resumable `PipelineCheckpoint` every `every_k`
    /// frames (at the top of the frame loop, skipping frame 0) and every
    /// `every_k` composites of each segment. Meant to run under golden
    /// profiling so the checkpoints carry meaningful tap counters.
    ///
    /// # Errors
    ///
    /// As for [`VideoSummarizer::run`].
    pub fn run_capturing(
        &self,
        frames: &[RgbImage],
        every_k: usize,
        scratch: &mut RunScratch,
    ) -> Result<Vec<PipelineCheckpoint>, SimError> {
        let mut checkpoints = Vec::new();
        self.run_inner(
            frames,
            None,
            Some((every_k.max(1), &mut checkpoints)),
            scratch,
        )?;
        Ok(checkpoints)
    }

    fn run_inner(
        &self,
        frames: &[RgbImage],
        resume: Option<&PipelineCheckpoint>,
        mut capture: Option<(usize, &mut Vec<PipelineCheckpoint>)>,
        scratch: &mut RunScratch,
    ) -> Result<(), SimError> {
        let _ctl = tap::scope(FuncId::StitchControl);
        // Telemetry-only span (no taps): near-free without a sink, so it
        // is safe on campaign worker threads.
        let _run_span = vs_telemetry::span_with(
            "pipeline_run",
            &[("resumed", Value::Bool(resume.is_some()))],
        );
        let mut stats;
        let mut discard_streak;
        let n;
        let mut i;
        // Every buffer is reset *before* its first read: a previous run
        // that was faulted or aborted leaves arbitrary state behind.
        match resume {
            Some(ck) => {
                // The `restore` sub-phase of `exec`, timed when the
                // campaign worker is armed for metrics.
                let _restore = vs_telemetry::span(RESTORE);
                vs_telemetry::emit(
                    "checkpoint_restore",
                    &[
                        ("frame", Value::U64(ck.next_frame as u64)),
                        (
                            "phase",
                            Value::Str(if ck.render.is_some() {
                                "render"
                            } else {
                                "frames"
                            }),
                        ),
                    ],
                );
                stats = ck.stats;
                // Restore the segment lists without shedding capacity:
                // surplus lists park in the pool, missing ones come back
                // from it, and each is overwritten element-wise.
                while scratch.segments.len() > ck.segments.len() {
                    let mut seg = scratch.segments.pop().expect("len checked");
                    seg.clear();
                    scratch.pool.push(seg);
                }
                while scratch.segments.len() < ck.segments.len() {
                    scratch
                        .segments
                        .push(scratch.pool.pop().unwrap_or_default());
                }
                for (dst, src) in scratch.segments.iter_mut().zip(ck.segments.iter()) {
                    dst.clear();
                    dst.extend_from_slice(src);
                }
                scratch.current.clear();
                scratch.current.extend_from_slice(&ck.current);
                match ck.prev.as_ref() {
                    Some(p) => {
                        scratch.prev_features.clone_from(&p.features);
                        scratch.prev_descriptors.clone_from(&p.descriptors);
                        scratch.prev_h = p.h_to_anchor;
                        scratch.prev_some = true;
                    }
                    None => scratch.prev_some = false,
                }
                discard_streak = ck.discard_streak;
                // The loop bound was tapped into a control register
                // *before* the skipped prefix's frames; re-tapping it
                // here would shift the eligible-tap stream off the
                // golden run's. In the prefix the tap passed the value
                // through unchanged (the armed fault lies beyond the
                // checkpoint), so the plain length is exact.
                n = frames.len();
                i = ck.next_frame;
            }
            None => {
                stats = SummaryStats {
                    frames_in: frames.len(),
                    ..SummaryStats::default()
                };
                while let Some(mut seg) = scratch.segments.pop() {
                    seg.clear();
                    scratch.pool.push(seg);
                }
                scratch.current.clear();
                scratch.prev_some = false;
                discard_streak = 0;
                // The frame-loop bound lives in a control register.
                n = tap::ctl(frames.len());
                i = 0;
            }
        }

        let orb = Orb::new(self.config.orb.clone());
        while i < n {
            if let Some((every_k, sink)) = capture.as_mut() {
                if i > 0 && i % *every_k == 0 {
                    sink.push(PipelineCheckpoint {
                        next_frame: i,
                        stats,
                        segments: scratch.segments.clone(),
                        current: scratch.current.clone(),
                        prev: scratch.prev_some.then(|| PrevFrame {
                            features: scratch.prev_features.clone(),
                            descriptors: scratch.prev_descriptors.clone(),
                            h_to_anchor: scratch.prev_h,
                        }),
                        discard_streak,
                        render: None,
                        taps: session::snapshot(),
                        digests: digest::trace(),
                    });
                }
            }
            let _frame_span = vs_telemetry::span_with("frame", &[("frame", Value::U64(i as u64))]);
            tap::work(OpClass::Control, 12)?;
            tap::work(OpClass::IntAlu, 40)?;
            // The frame pointer is address arithmetic: tap it.
            let fi = tap::addr(i);
            let frame = frames.get(fi).ok_or(SimError::Segfault)?;

            if let Approximation::Rfd { drop_rate } = self.config.approximation {
                if drop_frame(self.config.seed, i, drop_rate) {
                    stats.frames_dropped_by_input += 1;
                    emit_frame_event(i, "dropped", 0);
                    i += 1;
                    continue;
                }
            }

            decode_into(frame, &mut scratch.gray)?;
            orb.detect_and_describe_into(&scratch.gray, &mut scratch.orb, &mut scratch.features)?;
            // How this frame fared, for the per-frame telemetry event.
            let action;
            let feature_count = scratch.features.len();
            // Extract the descriptor vector once per accepted frame: it
            // serves as this frame's query side now and, unchanged, as
            // the train side when the next frame matches against it.
            scratch.descriptors.clear();
            scratch
                .descriptors
                .extend(scratch.features.iter().map(|f| f.descriptor));

            if !scratch.prev_some {
                action = "anchor";
                scratch.current.push((i, Mat3::IDENTITY));
                accept_frame(scratch, Mat3::IDENTITY);
            } else {
                self.match_pairs_scratch(
                    &scratch.features,
                    &scratch.descriptors,
                    &scratch.prev_features,
                    &scratch.prev_descriptors,
                    &mut scratch.downsampled,
                    &mut scratch.matches,
                    &mut scratch.pairs,
                )?;
                if digest::enabled() {
                    let mut h = 0u64;
                    for (q, t) in &scratch.pairs {
                        h = digest::hash_fold(h, q.x.to_bits());
                        h = digest::hash_fold(h, q.y.to_bits());
                        h = digest::hash_fold(h, t.x.to_bits());
                        h = digest::hash_fold(h, t.y.to_bits());
                    }
                    digest::record(Stage::Match, h);
                }
                let model = self.estimate_model_scratch(
                    &scratch.pairs,
                    i,
                    &mut stats,
                    &mut scratch.ransac,
                )?;
                if digest::enabled() {
                    let mut h = 0u64;
                    match &model {
                        Some(m) => {
                            for v in m.to_rows() {
                                h = digest::hash_fold(h, v.to_bits());
                            }
                        }
                        // Discards digest as a distinct constant so a
                        // fault flipping accept→discard still diverges.
                        None => h = digest::hash_fold(h, u64::MAX),
                    }
                    digest::record(Stage::Ransac, h);
                }
                match model {
                    Some(h_cur_to_prev) => {
                        let h_to_anchor = scratch.prev_h * h_cur_to_prev;
                        if chain_is_sane(&h_to_anchor, scratch.gray.width(), scratch.gray.height())
                        {
                            action = "aligned";
                            scratch.current.push((i, h_to_anchor));
                            accept_frame(scratch, h_to_anchor);
                            discard_streak = 0;
                        } else {
                            // Accumulated drift became geometrically
                            // absurd: close the segment and re-anchor.
                            action = "reanchor";
                            close_segment(
                                &mut scratch.segments,
                                &mut scratch.current,
                                &mut scratch.pool,
                            );
                            scratch.current.push((i, Mat3::IDENTITY));
                            accept_frame(scratch, Mat3::IDENTITY);
                            discard_streak = 0;
                        }
                    }
                    None => {
                        discard_streak += 1;
                        if discard_streak > self.config.max_discard_streak {
                            // Scene change: start a new mini-panorama
                            // anchored at this frame (not discarded).
                            action = "segment_break";
                            close_segment(
                                &mut scratch.segments,
                                &mut scratch.current,
                                &mut scratch.pool,
                            );
                            scratch.current.push((i, Mat3::IDENTITY));
                            accept_frame(scratch, Mat3::IDENTITY);
                            discard_streak = 0;
                        } else {
                            action = "discarded";
                            stats.frames_discarded += 1;
                        }
                    }
                }
            }
            emit_frame_event(i, action, feature_count);
            i += 1;
        }
        if !scratch.current.is_empty() {
            close_segment(
                &mut scratch.segments,
                &mut scratch.current,
                &mut scratch.pool,
            );
        }
        // Drop empty segments (none arise today — every close is
        // preceded by an anchor push — but the invariant is cheap to
        // keep). Removed lists go back to the pool, not the allocator.
        let mut k = 0;
        while k < scratch.segments.len() {
            if scratch.segments[k].is_empty() {
                let seg = scratch.segments.remove(k);
                scratch.pool.push(seg);
            } else {
                k += 1;
            }
        }

        let seg_count = scratch.segments.len();
        scratch.summary.panorama_origins.clear();
        scratch.summary.alignments.clear();
        scratch.summary.panoramas.truncate(seg_count);
        while scratch.summary.panoramas.len() < seg_count {
            scratch.summary.panoramas.push(RgbImage::default());
        }
        // Render fast-forward: a checkpoint captured mid-render carries
        // the canvas pixels composited so far and every finished
        // panorama, so a resumed run replays only the composites at and
        // after the captured position. Restores rebuild golden state bit
        // for bit, and the bounds/reset work they repeat is tap-free,
        // keeping the resumed tap stream exactly on the golden run's.
        let render_resume = resume.and_then(|ck| ck.render.as_ref());
        // Untapped Overwrite renders paint each segment last frame first
        // (`Canvas::paint_overwrites`): the same pixels, each sampled once.
        // Tapped runs (profiles, campaign pilots, checkpoint capture) and
        // the scalar/SWAR levels keep the sequential full-canvas warps,
        // whose tap stream sets Fig 5/8 and every campaign record.
        let level = vs_image::dispatch::level();
        let opts = &self.config.compositing;
        let paint = capture.is_none()
            && !session::active()
            && opts.blend == BlendMode::Overwrite
            && matches!(level, SimdLevel::Sse2 | SimdLevel::Avx2);
        let render_span =
            vs_telemetry::span_with("render", &[("segments", Value::U64(seg_count as u64))]);
        for si in 0..seg_count {
            if let Some(rc) = render_resume {
                if si < rc.segment {
                    let _restore = vs_telemetry::span(RESTORE);
                    let (pano, origin) = &rc.finished[si];
                    scratch.summary.panoramas[si].copy_from(pano);
                    scratch.summary.panorama_origins.push(*origin);
                    push_alignments(&mut scratch.summary.alignments, &scratch.segments[si], si);
                    continue;
                }
            }
            let resumed = render_resume.filter(|rc| rc.segment == si);
            let restore = resumed.map(|_| vs_telemetry::span(RESTORE));
            let bounds = segment_bounds(&scratch.segments[si], frames)?;
            scratch.canvas.reset(&bounds)?;
            let start = match resumed {
                Some(rc) => {
                    for patch in &rc.patches {
                        scratch.canvas.apply(patch);
                    }
                    rc.pos
                }
                None => 0,
            };
            drop(restore);
            if paint {
                let items = &scratch.segments[si][start..];
                scratch
                    .canvas
                    .paint_overwrites(frames, items, &mut scratch.warp, level)?;
                for &(idx, h) in items {
                    record_composite(idx, &h);
                }
            } else {
                // Capture-only state of this segment: the finished panoramas
                // and the patches composited so far.
                let finished: Option<Arc<[(RgbImage, Vec2)]>> = capture.is_some().then(|| {
                    scratch.summary.panoramas[..si]
                        .iter()
                        .cloned()
                        .zip(scratch.summary.panorama_origins.iter().copied())
                        .collect()
                });
                let mut written: Vec<Arc<CanvasPatch>> = Vec::new();
                for pos in start..scratch.segments[si].len() {
                    if let (Some((every_k, sink)), Some(finished)) = (capture.as_mut(), &finished) {
                        if pos % *every_k == 0 {
                            sink.push(PipelineCheckpoint {
                                next_frame: n,
                                stats,
                                segments: scratch.segments.clone(),
                                current: Vec::new(),
                                prev: None,
                                discard_streak,
                                render: Some(RenderCheckpoint {
                                    segment: si,
                                    pos,
                                    patches: written.clone(),
                                    finished: finished.clone(),
                                }),
                                taps: session::snapshot(),
                                digests: digest::trace(),
                            });
                        }
                    }
                    tap::work(OpClass::IntAlu, 50)?;
                    let (idx, h) = scratch.segments[si][pos];
                    let fi = tap::addr(idx);
                    let frame = frames.get(fi).ok_or(SimError::Segfault)?;
                    scratch.canvas.composite_scratch(
                        frame,
                        &h,
                        &self.config.compositing,
                        &mut scratch.warp,
                    )?;
                    if capture.is_some() {
                        written.push(Arc::new(scratch.canvas.written_by(&scratch.warp)));
                    }
                    record_composite(idx, &h);
                }
            }
            digest::record_bytes(Stage::Warp, scratch.canvas.image().as_bytes());
            let _summary = vs_telemetry::span(Stage::Summary.name());
            let origin = scratch
                .canvas
                .crop_to_content_into(&mut scratch.summary.panoramas[si])
                .ok_or(SimError::Abort)?;
            scratch.summary.panorama_origins.push(origin);
            push_alignments(&mut scratch.summary.alignments, &scratch.segments[si], si);
        }
        drop(render_span);
        let summary = vs_telemetry::span(Stage::Summary.name());
        stats.segments = seg_count;
        if digest::enabled() {
            // The panoramas are the observable output compared for SDC
            // classification, so any SDC necessarily diverges here even
            // when every upstream digest agreed.
            for pano in &scratch.summary.panoramas {
                digest::record_bytes(Stage::Summary, pano.as_bytes());
            }
            let mut h = 0u64;
            for o in &scratch.summary.panorama_origins {
                h = digest::hash_fold(h, o.x.to_bits());
                h = digest::hash_fold(h, o.y.to_bits());
            }
            h = digest::hash_fold(h, stats.frames_dropped_by_input as u64);
            h = digest::hash_fold(h, stats.frames_discarded as u64);
            h = digest::hash_fold(h, stats.homographies as u64);
            h = digest::hash_fold(h, stats.affine_fallbacks as u64);
            h = digest::hash_fold(h, stats.segments as u64);
            digest::record(Stage::Summary, h);
        }
        vs_telemetry::emit(
            "summary",
            &[
                ("frames_in", Value::U64(stats.frames_in as u64)),
                (
                    "dropped_by_input",
                    Value::U64(stats.frames_dropped_by_input as u64),
                ),
                ("discarded", Value::U64(stats.frames_discarded as u64)),
                ("homographies", Value::U64(stats.homographies as u64)),
                (
                    "affine_fallbacks",
                    Value::U64(stats.affine_fallbacks as u64),
                ),
                ("segments", Value::U64(stats.segments as u64)),
            ],
        );
        drop(summary);
        scratch.summary.stats = stats;
        Ok(())
    }

    /// Match the current frame's features against the previous frame's
    /// with the configured matcher, leaving point pairs (current →
    /// previous) in `pairs`. All three output buffers are recycled.
    #[allow(clippy::too_many_arguments)]
    fn match_pairs_scratch(
        &self,
        current: &[Feature],
        current_descs: &[Descriptor],
        prev_features: &[Feature],
        prev_descs: &[Descriptor],
        downsampled: &mut Vec<Descriptor>,
        matches: &mut Vec<Match>,
        pairs: &mut Vec<(Vec2, Vec2)>,
    ) -> Result<(), SimError> {
        // VS_KDS: "only perform matching on a fraction (one-third) of
        // the key points" — every kept query point still scans the full
        // train set, cutting the O(n^2) matching cost by the keep
        // fraction. The price is fewer matches, so some frames fall below
        // the homography/affine thresholds and are discarded (SIV).
        let keep = match self.config.approximation {
            Approximation::Kds { keep_divisor } => keep_divisor.max(1),
            _ => 1,
        };
        // Query role: borrow the frame's descriptor vector outright in
        // the common keep-all case; train role: the previous frame's
        // vector, extracted once when that frame was accepted.
        let query: &[Descriptor] = if keep == 1 {
            current_descs
        } else {
            downsampled.clear();
            downsampled.extend(downsample_query(current_descs, keep).copied());
            downsampled
        };
        match self.config.approximation {
            Approximation::Sm { max_distance } => {
                SimpleMatcher { max_distance }.matches_into(query, prev_descs, matches)?;
            }
            _ => {
                RatioMatcher {
                    ratio: self.config.match_ratio,
                }
                .matches_into(query, prev_descs, matches)?;
            }
        }
        pairs.clear();
        pairs.extend(matches.iter().map(|m| {
            // Query index `m.query` walks the downsampled stream;
            // the underlying feature sits at `m.query * keep`.
            let q = &current[m.query * keep].keypoint;
            let t = &prev_features[m.train].keypoint;
            (Vec2::new(q.x, q.y), Vec2::new(t.x, t.y))
        }));
        Ok(())
    }

    /// Homography with affine fallback (§III-A), or `None` to discard.
    fn estimate_model_scratch(
        &self,
        pairs: &[(Vec2, Vec2)],
        frame_index: usize,
        stats: &mut SummaryStats,
        rs: &mut RansacScratch,
    ) -> Result<Option<Mat3>, SimError> {
        let seed = self
            .config
            .seed
            .wrapping_add((frame_index as u64).wrapping_mul(0x9e37_79b9));
        if pairs.len() >= self.config.min_matches_homography {
            if let Some(model) =
                ransac::estimate_homography_scratch(pairs, &self.config.ransac, seed, rs)?
            {
                stats.homographies += 1;
                return Ok(Some(stabilize(model)));
            }
        }
        if pairs.len() >= self.config.min_matches_affine {
            let affine_cfg = RansacConfig {
                min_inliers: self.config.min_matches_affine.max(4),
                ..self.config.ransac
            };
            if let Some(model) =
                ransac::estimate_affine_scratch(pairs, &affine_cfg, seed ^ 0xaff1, rs)?
            {
                stats.affine_fallbacks += 1;
                return Ok(Some(model));
            }
        }
        Ok(None)
    }
}

/// Hand the just-processed frame's features to the `prev_*` slots by
/// swapping buffers: the displaced previous-frame vectors become next
/// frame's (cleared-before-use) scratch, keeping their capacity.
fn accept_frame(s: &mut RunScratch, h_to_anchor: Mat3) {
    std::mem::swap(&mut s.features, &mut s.prev_features);
    std::mem::swap(&mut s.descriptors, &mut s.prev_descriptors);
    s.prev_h = h_to_anchor;
    s.prev_some = true;
}

/// Move `current` into `segments`, replacing it with a recycled (or
/// fresh) empty list. The pool exists because `mem::take` would hand
/// `current` a capacity-less vector, reintroducing steady-state growth.
fn close_segment(
    segments: &mut Vec<Vec<(usize, Mat3)>>,
    current: &mut Vec<(usize, Mat3)>,
    pool: &mut Vec<Vec<(usize, Mat3)>>,
) {
    let mut fresh = pool.pop().unwrap_or_default();
    std::mem::swap(&mut fresh, current);
    segments.push(fresh);
}

/// One per-frame telemetry event (no-op without an installed sink).
fn emit_frame_event(index: usize, action: &'static str, features: usize) {
    vs_telemetry::emit(
        "frame",
        &[
            ("index", Value::U64(index as u64)),
            ("action", Value::Str(action)),
            ("features", Value::U64(features as u64)),
        ],
    );
}

/// Suppress noise in the projective row of an estimated homography.
///
/// Aerial nadir imagery relates consecutive frames by a near-affine
/// transform; tiny fitted perspective terms are estimation noise that
/// compounds into scale drift over long alignment chains ("blurs and
/// distortions" the paper's corrective actions address). Terms below the
/// noise floor are snapped to zero.
fn stabilize(h: Mat3) -> Mat3 {
    let m = h.to_rows();
    if m[6].abs() < 1e-4 && m[7].abs() < 1e-4 {
        Mat3::from_rows([m[0], m[1], m[2], m[3], m[4], m[5], 0.0, 0.0, m[8]])
            .normalized()
            .unwrap_or(h)
    } else {
        h
    }
}

/// Keep every `keep`-th item for the KDS query side. `keep` of 0 is
/// treated as 1 (keep everything); a `keep` beyond the input length
/// keeps only the first item. Lazy, so the caller can collect into a
/// recycled buffer.
fn downsample_query<T>(items: &[T], keep: usize) -> impl Iterator<Item = &T> {
    items.iter().step_by(keep.max(1))
}

/// Decode a frame: RGB → grayscale with instruction accounting, into a
/// recycled gray plane, folding the plane into the decode digest.
fn decode_into(frame: &RgbImage, out: &mut GrayImage) -> Result<(), SimError> {
    let _stage = vs_telemetry::span(Stage::Decode.name());
    let _f = tap::scope(FuncId::Decode);
    let px = (frame.width() * frame.height()) as u64;
    tap::work(OpClass::Mem, 4 * px)?;
    tap::work(OpClass::IntAlu, 5 * px)?;
    frame.to_gray_into(out);
    digest::record_bytes(Stage::Decode, out.as_bytes());
    Ok(())
}

/// Is the chained transform still geometrically plausible? Guards
/// against slow drift blowing up the canvas in long golden runs.
fn chain_is_sane(h: &Mat3, w: usize, ht: usize) -> bool {
    let Some(b) = transformed_bounds(h, w, ht) else {
        return false;
    };
    let area_in = (w * ht) as f64;
    let area_out = b.width() * b.height();
    area_out.is_finite() && area_out > area_in * 0.05 && area_out < area_in * 30.0
}

/// Union of the transformed bounds of every frame in a segment — the
/// canvas extent of its mini-panorama. Tap-free on purpose: render
/// checkpoint restores skip it without shifting the tap stream.
fn segment_bounds(segment: &[(usize, Mat3)], frames: &[RgbImage]) -> Result<Bounds, SimError> {
    let mut bounds: Option<Bounds> = None;
    for (idx, h) in segment {
        let frame = frames.get(*idx).ok_or(SimError::Segfault)?;
        let fb = transformed_bounds(h, frame.width(), frame.height()).ok_or(SimError::Abort)?;
        bounds = Some(match bounds {
            None => fb,
            Some(b) => b.union(&fb),
        });
    }
    bounds.ok_or(SimError::Abort)
}

/// Fold one composite's frame index and transform into the warp-stage
/// digest (a no-op when forensics is off).
fn record_composite(idx: usize, h: &Mat3) {
    if digest::enabled() {
        let mut hd = digest::hash_fold(0, idx as u64);
        for v in h.to_rows() {
            hd = digest::hash_fold(hd, v.to_bits());
        }
        digest::record(Stage::Warp, hd);
    }
}

/// Record the alignment of every frame in a segment.
fn push_alignments(out: &mut Vec<FrameAlignment>, segment: &[(usize, Mat3)], si: usize) {
    for &(frame, h) in segment {
        out.push(FrameAlignment {
            frame,
            segment: si,
            h_to_anchor: h,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_video::{render_input, InputSpec};

    fn quick_input2(frames: usize) -> Vec<RgbImage> {
        render_input(
            &InputSpec::input2_preset()
                .with_frames(frames)
                .with_frame_size(96, 72),
        )
    }

    fn quick_input1(frames: usize) -> Vec<RgbImage> {
        render_input(
            &InputSpec::input1_preset()
                .with_frames(frames)
                .with_frame_size(96, 72),
        )
    }

    #[test]
    fn smooth_input_yields_single_growing_panorama() {
        let frames = quick_input2(10);
        let vs = VideoSummarizer::new(PipelineConfig::default());
        let s = vs.run(&frames).unwrap();
        assert_eq!(s.stats.frames_in, 10);
        assert_eq!(s.stats.frames_dropped_by_input, 0);
        assert!(
            s.stats.segments <= 2,
            "smooth pan fragmenting into {} segments",
            s.stats.segments
        );
        let pano = crate::quality::primary_panorama(&s.panoramas).unwrap();
        assert!(
            pano.width() > 100,
            "panorama ({}x{}) barely wider than a frame",
            pano.width(),
            pano.height()
        );
        assert!(s.stats.homographies + s.stats.affine_fallbacks >= 7);
    }

    #[test]
    fn run_is_deterministic() {
        let frames = quick_input2(8);
        let vs = VideoSummarizer::new(PipelineConfig::default());
        let a = vs.run(&frames).unwrap();
        let b = vs.run(&frames).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn high_variation_input_fragments_more() {
        let f1 = quick_input1(24);
        let f2 = quick_input2(24);
        let vs = VideoSummarizer::new(PipelineConfig::default());
        let s1 = vs.run(&f1).unwrap();
        let s2 = vs.run(&f2).unwrap();
        assert!(
            s1.stats.segments > s2.stats.segments,
            "input1 segments {} must exceed input2 segments {}",
            s1.stats.segments,
            s2.stats.segments
        );
    }

    #[test]
    fn rfd_drops_frames_and_still_summarizes() {
        let frames = quick_input2(12);
        let vs = VideoSummarizer::new(
            PipelineConfig::default().with_approximation(Approximation::Rfd { drop_rate: 0.25 }),
        );
        let s = vs.run(&frames).unwrap();
        assert!(s.stats.frames_dropped_by_input > 0);
        assert!(!s.panoramas.is_empty());
    }

    #[test]
    fn kds_reduces_matches_but_usually_still_stitches() {
        let frames = quick_input2(8);
        let vs = VideoSummarizer::new(
            PipelineConfig::default().with_approximation(Approximation::kds_default()),
        );
        let s = vs.run(&frames).unwrap();
        assert!(!s.panoramas.is_empty());
    }

    #[test]
    fn sm_matching_still_stitches_smooth_input() {
        let frames = quick_input2(8);
        let vs = VideoSummarizer::new(
            PipelineConfig::default().with_approximation(Approximation::sm_default()),
        );
        let s = vs.run(&frames).unwrap();
        assert!(!s.panoramas.is_empty());
        assert!(s.stats.homographies >= 4);
    }

    #[test]
    fn empty_input_produces_empty_summary() {
        let vs = VideoSummarizer::new(PipelineConfig::default());
        let s = vs.run(&[]).unwrap();
        assert!(s.panoramas.is_empty());
        assert_eq!(s.stats.segments, 0);
    }

    #[test]
    fn single_frame_becomes_its_own_panorama() {
        let frames = quick_input2(1);
        let vs = VideoSummarizer::new(PipelineConfig::default());
        let s = vs.run(&frames).unwrap();
        assert_eq!(s.panoramas.len(), 1);
        // Canvas bounds are ceil+1, so the pano may carry one border
        // column/row of replicate bleed.
        assert!((96..=97).contains(&s.panoramas[0].width()));
        assert_eq!(s.stats.segments, 1);
    }

    #[test]
    fn unrelated_frames_break_into_segments() {
        // Two unrelated scenes: matching across the cut must fail and the
        // pipeline must produce two mini-panoramas.
        let mut frames = quick_input2(4);
        frames.extend(quick_input1(4));
        let cfg = PipelineConfig {
            max_discard_streak: 0,
            ..PipelineConfig::default()
        };
        let s = VideoSummarizer::new(cfg).run(&frames).unwrap();
        assert!(
            s.stats.segments >= 2,
            "expected a segment break at the scene cut: {:?}",
            s.stats
        );
    }

    #[test]
    fn compositing_options_are_honored() {
        use vs_warp::{BlendMode, CompositeOptions};
        let frames = quick_input2(8);
        let default_out = VideoSummarizer::new(PipelineConfig::default())
            .run(&frames)
            .unwrap();
        let feather_cfg = PipelineConfig::default().with_compositing(CompositeOptions {
            blend: BlendMode::Feather,
        });
        let feather_out = VideoSummarizer::new(feather_cfg).run(&frames).unwrap();
        assert_eq!(
            default_out.stats, feather_out.stats,
            "compositing must not change alignment decisions"
        );
        assert_ne!(
            default_out.panoramas, feather_out.panoramas,
            "feather blending must change overlap pixels"
        );
    }

    #[test]
    fn downsample_query_edge_cases() {
        let items: Vec<u32> = (0..10).collect();
        // keep == 0 is treated as keep-everything (step 1), not a panic.
        let all: Vec<u32> = downsample_query(&items, 0).copied().collect();
        assert_eq!(all, items);
        let every: Vec<u32> = downsample_query(&items, 1).copied().collect();
        assert_eq!(every, items);
        // keep > len degenerates to just the first item.
        let first: Vec<u32> = downsample_query(&items, 100).copied().collect();
        assert_eq!(first, vec![0]);
        let thirds: Vec<u32> = downsample_query(&items, 3).copied().collect();
        assert_eq!(thirds, vec![0, 3, 6, 9]);
        assert!(downsample_query::<u32>(&[], 4).next().is_none());
    }

    #[test]
    fn workspace_reuse_is_bit_identical_and_footprint_stable() {
        let frames = quick_input2(8);
        let vs = VideoSummarizer::new(PipelineConfig::default());
        let fresh = vs.run(&frames).unwrap();
        let mut scratch = RunScratch::default();
        // Swapped buffer pairs (features/prev_features, RANSAC inlier
        // lists) reach their high-water marks only once each buffer has
        // served every role, so warm up for a few runs first.
        for _ in 0..3 {
            vs.run_with(&frames, None, &mut scratch).unwrap();
            assert_eq!(*scratch.summary(), fresh);
        }
        let warmed = scratch.footprint();
        assert!(warmed > 0);
        for _ in 0..3 {
            vs.run_with(&frames, None, &mut scratch).unwrap();
            assert_eq!(*scratch.summary(), fresh);
            assert_eq!(
                scratch.footprint(),
                warmed,
                "steady-state run must not grow any buffer"
            );
        }
        // A dirtied workspace (different input) must not leak state into
        // the next run.
        vs.run_with(&quick_input1(5), None, &mut scratch).unwrap();
        vs.run_with(&frames, None, &mut scratch).unwrap();
        assert_eq!(*scratch.summary(), fresh);
    }

    #[test]
    fn checkpoint_resume_replays_golden_exactly() {
        let frames = quick_input2(8);
        let vs = VideoSummarizer::new(PipelineConfig::default());
        let (golden, ckpts, final_taps) = {
            let _g = session::begin_profile();
            let mut scratch = RunScratch::default();
            let c = vs.run_capturing(&frames, 3, &mut scratch).unwrap();
            (scratch.summary().clone(), c, session::snapshot())
        };
        assert!(
            !ckpts.is_empty(),
            "8 frames at k=3 must capture checkpoints"
        );
        // Capturing must not perturb the run itself.
        assert_eq!(golden, vs.run(&frames).unwrap());
        let mut scratch = RunScratch::default();
        for ck in &ckpts {
            let _g = session::begin_profile_at(ck.tap_snapshot());
            vs.run_with(&frames, Some(ck), &mut scratch).unwrap();
            assert_eq!(
                *scratch.summary(),
                golden,
                "resume from frame {} diverged from golden",
                ck.next_frame()
            );
            assert_eq!(
                session::snapshot(),
                final_taps,
                "tap counters diverged resuming at frame {}",
                ck.next_frame()
            );
        }
    }

    /// An untapped resume from a render checkpoint paints the rest of
    /// the segment last frame first over the restored canvas, which must
    /// reproduce the tapped golden run.
    #[test]
    fn off_session_render_resume_matches_golden() {
        let frames = quick_input2(8);
        let vs = VideoSummarizer::new(PipelineConfig::default());
        let mut scratch = RunScratch::default();
        let ckpts = {
            let _g = session::begin_profile();
            vs.run_capturing(&frames, 2, &mut scratch).unwrap()
        };
        let golden = scratch.summary().clone();
        let renders: Vec<&PipelineCheckpoint> = ckpts.iter().filter(|c| c.is_render()).collect();
        assert!(
            renders.iter().any(|c| c.render.as_ref().unwrap().pos > 0),
            "no checkpoint restores canvas pixels"
        );
        for ck in renders {
            let rc = ck.render.as_ref().unwrap();
            vs.run_with(&frames, Some(ck), &mut scratch).unwrap();
            assert_eq!(
                *scratch.summary(),
                golden,
                "resume at segment {} composite {}",
                rc.segment,
                rc.pos
            );
        }
    }

    #[test]
    fn checkpoint_capture_respects_interval() {
        let frames = quick_input2(9);
        let vs = VideoSummarizer::new(PipelineConfig::default());
        let mut scratch = RunScratch::default();
        let ckpts = vs.run_capturing(&frames, 4, &mut scratch).unwrap();
        let summary = scratch.summary();
        let frame_at: Vec<usize> = ckpts
            .iter()
            .filter(|c| !c.is_render())
            .map(|c| c.next_frame())
            .collect();
        assert_eq!(frame_at, vec![4, 8]);
        // Render checkpoints: one every 4 composites, all after the frame
        // loop, and monotone in the tap stream.
        let renders: Vec<&PipelineCheckpoint> = ckpts.iter().filter(|c| c.is_render()).collect();
        let composites: usize = summary.alignments.len();
        assert_eq!(
            renders.len(),
            summary
                .panoramas
                .iter()
                .enumerate()
                .map(|(si, _)| {
                    let in_seg = summary
                        .alignments
                        .iter()
                        .filter(|a| a.segment == si)
                        .count();
                    in_seg.div_ceil(4)
                })
                .sum::<usize>(),
            "one render checkpoint per 4 composites ({composites} total)"
        );
        for r in &renders {
            assert_eq!(
                r.next_frame(),
                9,
                "render checkpoints follow the frame loop"
            );
        }
        let taps: Vec<u64> = ckpts.iter().map(|c| c.tap_snapshot().gpr_taps).collect();
        assert!(
            taps.windows(2).all(|w| w[0] <= w[1]),
            "checkpoint order: {taps:?}"
        );
    }

    #[test]
    fn stats_accounting_is_consistent() {
        let frames = quick_input2(10);
        let vs = VideoSummarizer::new(PipelineConfig::default());
        let s = vs.run(&frames).unwrap();
        let accounted = s.stats.frames_dropped_by_input
            + s.stats.frames_discarded
            + s.stats.homographies
            + s.stats.affine_fallbacks
            + s.stats.segments; // each segment has one anchor frame
        assert_eq!(
            accounted, s.stats.frames_in,
            "stats must partition frames: {:?}",
            s.stats
        );
    }
}
