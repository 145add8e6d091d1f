//! The end-to-end video-summarization (VS) application — the paper's
//! primary contribution — together with its three software
//! approximations, the SDC-quality metric, and fault-injection workload
//! adapters.
//!
//! The pipeline reproduces §III of the paper: frames are decoded to
//! grayscale, FAST/ORB features are detected and described, successive
//! frames are matched with a ratio test, a homography is estimated with
//! RANSAC (affine fallback, frame discard as a last resort), every frame
//! is aligned to the first frame of its segment, and segments are
//! stitched into mini-panoramas.
//!
//! Three approximations (§IV):
//!
//! * [`Approximation::Rfd`] — *Random Frame Dropping*: input sampling.
//! * [`Approximation::Kds`] — *Key-point Down-Sampling*: selective
//!   computation (match only a third of the key points).
//! * [`Approximation::Sm`] — *Simple Matching*: algorithmic
//!   transformation (single-NN matching with an absolute cap).
//!
//! # Example
//!
//! ```
//! use vs_core::{Approximation, PipelineConfig, VideoSummarizer};
//! use vs_video::{render_input, InputSpec};
//!
//! let frames = render_input(&InputSpec::input2_preset().with_frames(8));
//! let vs = VideoSummarizer::new(PipelineConfig::default());
//! let summary = vs.run(&frames)?;
//! assert!(!summary.panoramas.is_empty());
//!
//! let approx = VideoSummarizer::new(
//!     PipelineConfig::default().with_approximation(Approximation::rfd_default()),
//! );
//! let approx_summary = approx.run(&frames)?;
//! assert!(approx_summary.stats.frames_dropped_by_input > 0 || frames.len() < 10);
//! # Ok::<(), vs_fault::SimError>(())
//! ```

mod approx;
mod config;
pub mod experiments;
pub mod integrated;
mod pipeline;
pub mod quality;
pub mod workloads;

pub use approx::{downsample_features, drop_frame};
pub use config::{Approximation, PipelineConfig};
pub use integrated::{summarize_with_events, EventConfig, IntegratedSummary};
pub use pipeline::{FrameAlignment, RunScratch, Summary, SummaryStats, VideoSummarizer};
pub use quality::{ed_cdf, primary_panorama, sdc_quality, SdcQuality};
pub use workloads::{IntegratedWorkload, VsWorkload, WpWorkload};
