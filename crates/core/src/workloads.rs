//! Fault-injection workload adapters: the full VS application and the
//! standalone `WP` hot-function toy benchmark of §V-C.

use crate::config::PipelineConfig;
use crate::pipeline::{PipelineCheckpoint, RunScratch, VideoSummarizer};
use vs_fault::campaign::{NoCheckpoint, Workload};
use vs_fault::SimError;
use vs_image::RgbImage;
use vs_linalg::Mat3;
use vs_warp::warp_perspective;

/// The end-to-end VS application as an injectable workload.
///
/// The observable output is the list of mini-panorama images — exactly
/// what AFI's result-checking procedure compares against the golden
/// output.
#[derive(Debug, Clone)]
pub struct VsWorkload {
    frames: Vec<RgbImage>,
    summarizer: VideoSummarizer,
}

impl VsWorkload {
    /// Wrap a frame sequence and pipeline configuration.
    pub fn new(frames: Vec<RgbImage>, config: PipelineConfig) -> Self {
        VsWorkload {
            frames,
            summarizer: VideoSummarizer::new(config),
        }
    }

    /// The input frames.
    pub fn frames(&self) -> &[RgbImage] {
        &self.frames
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        self.summarizer.config()
    }

    /// Run the pipeline and return the full summary (panoramas + stats),
    /// outside any fault campaign.
    ///
    /// # Errors
    ///
    /// Propagates simulated faults; error-free runs succeed.
    pub fn summarize(&self) -> Result<crate::Summary, SimError> {
        self.summarizer.run(&self.frames)
    }
}

/// Campaign runs execute into the pipeline's [`RunScratch`], which
/// recycles every transient buffer across runs.
impl Workload for VsWorkload {
    type Output = Vec<RgbImage>;
    type Workspace = RunScratch;
    type Checkpoint = PipelineCheckpoint;

    fn run<'w>(
        &self,
        scratch: &'w mut RunScratch,
        from: Option<&PipelineCheckpoint>,
    ) -> Result<&'w Vec<RgbImage>, SimError> {
        self.summarizer.run_with(&self.frames, from, scratch)?;
        Ok(&scratch.summary().panoramas)
    }

    fn run_capturing<'w>(
        &self,
        scratch: &'w mut RunScratch,
        every_k: usize,
    ) -> Result<(&'w Vec<RgbImage>, Vec<PipelineCheckpoint>), SimError> {
        let checkpoints = self
            .summarizer
            .run_capturing(&self.frames, every_k, scratch)?;
        Ok((&scratch.summary().panoramas, checkpoints))
    }
}

/// The full Fig 2 workflow (coverage + event summarization) as an
/// injectable workload — an extension experiment: the paper injects only
/// into coverage summarization, this adapter lets campaigns cover the
/// event branch too. The observable output is the annotated panoramas.
#[derive(Debug, Clone)]
pub struct IntegratedWorkload {
    frames: Vec<RgbImage>,
    config: PipelineConfig,
    events: crate::integrated::EventConfig,
}

impl IntegratedWorkload {
    /// Wrap a frame sequence with pipeline and event configurations.
    pub fn new(
        frames: Vec<RgbImage>,
        config: PipelineConfig,
        events: crate::integrated::EventConfig,
    ) -> Self {
        IntegratedWorkload {
            frames,
            config,
            events,
        }
    }

    /// The input frames.
    pub fn frames(&self) -> &[RgbImage] {
        &self.frames
    }
}

impl Workload for IntegratedWorkload {
    type Output = Vec<RgbImage>;
    type Workspace = Vec<RgbImage>;
    type Checkpoint = NoCheckpoint;

    fn run<'w>(
        &self,
        out: &'w mut Vec<RgbImage>,
        _from: Option<&NoCheckpoint>,
    ) -> Result<&'w Vec<RgbImage>, SimError> {
        *out = crate::integrated::summarize_with_events(&self.frames, &self.config, &self.events)?
            .coverage
            .panoramas;
        Ok(out)
    }
}

/// The `WP` toy benchmark (§V-C): a standalone `WarpPerspective` call on
/// one image and one transform, whose output is the function's return
/// value as the VS application would see it.
#[derive(Debug, Clone)]
pub struct WpWorkload {
    image: RgbImage,
    transform: Mat3,
}

impl WpWorkload {
    /// Wrap an image and a perspective transform.
    pub fn new(image: RgbImage, transform: Mat3) -> Self {
        WpWorkload { image, transform }
    }

    /// A representative instance: the first frame of an input and a
    /// realistic inter-frame homography (small rotation + translation +
    /// mild perspective), matching how the VS pipeline invokes the
    /// function.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty.
    pub fn representative(frames: &[RgbImage]) -> Self {
        let image = frames.first().expect("WP needs at least one frame").clone();
        let w = image.width() as f64;
        let h = image.height() as f64;
        let transform = Mat3::translation(w * 0.06, -h * 0.04)
            * Mat3::translation(w / 2.0, h / 2.0)
            * Mat3::rotation(0.05)
            * Mat3::scaling(1.02)
            * Mat3::translation(-w / 2.0, -h / 2.0)
            * Mat3::from_rows([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 2e-5, -1e-5, 1.0]);
        WpWorkload::new(image, transform)
    }

    /// The transform under test.
    pub fn transform(&self) -> &Mat3 {
        &self.transform
    }
}

impl Workload for WpWorkload {
    type Output = RgbImage;
    type Workspace = RgbImage;
    type Checkpoint = NoCheckpoint;

    fn run<'w>(
        &self,
        out: &'w mut RgbImage,
        _from: Option<&NoCheckpoint>,
    ) -> Result<&'w RgbImage, SimError> {
        (*out, _) = warp_perspective(
            &self.image,
            &self.transform,
            self.image.width(),
            self.image.height(),
        )?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_fault::campaign::{self, CampaignConfig};
    use vs_fault::spec::RegClass;
    use vs_fault::{FuncId, FuncMask};
    use vs_video::{render_input, InputSpec};

    fn tiny_frames() -> Vec<RgbImage> {
        render_input(
            &InputSpec::input2_preset()
                .with_frames(4)
                .with_frame_size(80, 60),
        )
    }

    #[test]
    fn vs_workload_golden_profile_has_sites() {
        let w = VsWorkload::new(tiny_frames(), PipelineConfig::default());
        let golden = campaign::profile_golden(&w).unwrap();
        assert!(!golden.output.is_empty());
        assert!(golden.profile.gpr_taps > 1000);
        assert!(golden.profile.fpr_taps > 1000);
        assert!(golden.profile.instr.total > 100_000);
    }

    #[test]
    fn vs_workload_small_gpr_campaign_classifies_outcomes() {
        let w = VsWorkload::new(tiny_frames(), PipelineConfig::default());
        let golden = campaign::profile_golden(&w).unwrap();
        let cfg = CampaignConfig::new(RegClass::Gpr, 24).seed(5).threads(4);
        let recs = campaign::run_campaign(&w, &golden, &cfg);
        assert_eq!(recs.len(), 24);
        // Every outcome must have been classified (no panics escaping).
        for r in &recs {
            let _ = r.outcome;
        }
    }

    #[test]
    fn vs_checkpointed_campaign_matches_scratch_campaign() {
        use vs_fault::campaign::{CheckpointPolicy, Injection};
        let w = VsWorkload::new(tiny_frames(), PipelineConfig::default());
        let ck =
            campaign::profile_golden_checkpointed(&w, CheckpointPolicy::EveryKFrames(1)).unwrap();
        assert!(
            !ck.checkpoints.is_empty(),
            "4 frames at k=1 must checkpoint"
        );
        let scratch = campaign::run_campaign(
            &w,
            &ck.golden,
            &CampaignConfig::new(RegClass::Gpr, 20).seed(11).threads(2),
        );
        for threads in [1, 3] {
            let cfg = CampaignConfig::new(RegClass::Gpr, 20)
                .seed(11)
                .threads(threads)
                .checkpoint_policy(CheckpointPolicy::EveryKFrames(1));
            let fast = campaign::run_campaign_checkpointed(&w, &ck, &cfg);
            let [a, b] =
                [&scratch, &fast].map(|r| r.iter().map(Injection::identity).collect::<Vec<_>>());
            assert_eq!(a, b, "threads {threads}");
        }
    }

    #[test]
    fn wp_workload_matches_direct_warp() {
        let frames = tiny_frames();
        let wp = WpWorkload::representative(&frames);
        let mut ws = RgbImage::default();
        let out = wp.run(&mut ws, None).unwrap();
        assert_eq!(out.width(), frames[0].width());
        let direct = warp_perspective(
            &frames[0],
            wp.transform(),
            frames[0].width(),
            frames[0].height(),
        )
        .unwrap()
        .0;
        assert_eq!(*out, direct);
    }

    #[test]
    fn wp_workload_has_only_warp_taps() {
        let frames = tiny_frames();
        let wp = WpWorkload::representative(&frames);
        let mask = FuncMask::only(&[FuncId::WarpPerspective, FuncId::RemapBilinear]);
        let golden = campaign::profile_golden_masked(&wp, mask).unwrap();
        // Everything WP does is warp: eligible taps == total taps.
        assert_eq!(golden.profile.eligible_gpr, golden.profile.gpr_taps);
        assert_eq!(golden.profile.eligible_fpr, golden.profile.fpr_taps);
        assert!(golden.profile.gpr_taps > 100);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn wp_representative_requires_frames() {
        let _ = WpWorkload::representative(&[]);
    }

    #[test]
    fn integrated_workload_supports_campaigns() {
        let w = IntegratedWorkload::new(
            tiny_frames(),
            PipelineConfig::default(),
            crate::integrated::EventConfig::default(),
        );
        let golden = campaign::profile_golden(&w).unwrap();
        assert!(!golden.output.is_empty());
        // The event branch's functions must contribute taps.
        let detect = golden.profile.instr.by_func[FuncId::DetectMotion.index()];
        assert!(detect > 0, "event branch uninstrumented");
        let cfg = CampaignConfig::new(RegClass::Gpr, 16).seed(3).threads(2);
        let recs = campaign::run_campaign(&w, &golden, &cfg);
        assert_eq!(recs.len(), 16);
    }
}
