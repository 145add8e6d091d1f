//! The three workloads: how each is set up, what one timed call runs,
//! and the checks every call's output must pass.

use vs_core::experiments::{input_spec, pipeline_config, vs_workload, InputId, Scale};
use vs_core::workloads::VsWorkload;
use vs_core::{Approximation, Summary};
use vs_fault::adaptive::{self, AdaptiveConfig};
use vs_fault::campaign::{
    self, CampaignConfig, CheckpointPolicy, CheckpointedGolden, GoldenRun, Injection, Outcome,
};
use vs_fault::compose::{self, CampaignCache, ComposeConfig};
use vs_fault::spec::RegClass;
use vs_image::RgbImage;
use vs_telemetry::span;
use vs_video::render_input;

use crate::stats::{image_digest, prefix_matches, record_digest, target_met};

/// Wilson half-width target of the adaptive GPR campaign, in percentage
/// points. At 5 pp a call took ~12 s (~400 injections), so a run held
/// two calls and host speed drift set its spread; 8 pp stops near 150.
const EPSILON_PP: f64 = 8.0;
/// Fall-back budget of the adaptive campaign.
const GPR_BUDGET: usize = 1000;
/// Records of each campaign compared against an untimed from-scratch
/// campaign at the same seed.
const PREFIX_CHECK: usize = 8;
/// Frame size and count of the HD golden workload.
const HD_SIZE: (usize, usize) = (1280, 720);
const HD_FRAMES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    GprInput1,
    ComposedCold,
    GoldenHd,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::GprInput1, Kind::ComposedCold, Kind::GoldenHd];

    pub fn name(self) -> &'static str {
        match self {
            Kind::GprInput1 => "gpr_input1",
            Kind::ComposedCold => "composed_cold",
            Kind::GoldenHd => "golden_hd",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The golden state a workload's timed calls start from.
pub enum Golden {
    /// Profiled golden run plus frame checkpoints (adaptive campaigns).
    Checkpointed(CheckpointedGolden<VsWorkload>),
    /// Golden run with per-stage digests (compositional campaigns).
    Forensic(GoldenRun<Vec<RgbImage>>),
    /// Digest of the set-up run's panoramas (error-free summarization).
    Panoramas(u64),
}

/// Everything built before the first timed call.
pub struct Setup {
    pub seed: u64,
    pub workload: VsWorkload,
    pub golden: Golden,
}

/// Fault-draw seed of a run's `k`-th call. Each call draws a fresh
/// campaign, so a run averages over several draws of the outcome mix
/// (hangs cost up to 16 golden runs) rather than repeating one; call 0
/// uses the run's seed itself.
fn call_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64) << 32)
}

/// What one timed call did.
pub struct Call {
    /// Pipeline runs executed: injected runs, or one summary.
    pub runs: usize,
    /// Record-stream digest (campaigns) or panorama digest.
    pub digest: u64,
    /// Whether the call kept its own promise: the adaptive campaign
    /// converged to its target, the cold pass injected every group, or
    /// the summary reproduced the set-up run's panoramas.
    pub ok: bool,
    /// Injection records (empty for summaries).
    pub records: Vec<Injection<Vec<RgbImage>>>,
    /// The group cache a compositional call filled.
    pub cache: Option<CampaignCache>,
    /// Layer facts the call exposes, for the traced run.
    pub facts: Vec<(&'static str, f64)>,
}

fn render(input: InputId, scale: Scale) -> VsWorkload {
    let _s = span("video.render");
    vs_workload(input, scale, Approximation::Baseline)
}

fn render_hd() -> VsWorkload {
    let _s = span("video.render");
    let spec = input_spec(InputId::Input2, Scale::Paper)
        .with_frames(HD_FRAMES)
        .with_frame_size(HD_SIZE.0, HD_SIZE.1);
    VsWorkload::new(
        render_input(&spec),
        pipeline_config(Scale::Paper, Approximation::Baseline),
    )
}

fn capture(w: &VsWorkload) -> Result<Golden, String> {
    let _s = span("fault.capture");
    campaign::profile_golden_checkpointed(w, CheckpointPolicy::EveryKFrames(1))
        .map(Golden::Checkpointed)
        .map_err(|e| format!("checkpointed golden run failed: {e:?}"))
}

impl Setup {
    /// Render the input and build the golden state the timed calls need.
    pub fn new(kind: Kind, seed: u64) -> Result<Setup, String> {
        let (workload, golden) = match kind {
            Kind::GprInput1 => {
                let w = render(InputId::Input1, Scale::Paper);
                let g = capture(&w)?;
                (w, g)
            }
            Kind::ComposedCold => {
                let w = render(InputId::Input1, Scale::Quick);
                let g = {
                    let _s = span("fault.profile");
                    campaign::profile_golden_forensic(&w)
                        .map_err(|e| format!("forensic golden run failed: {e:?}"))?
                };
                (w, Golden::Forensic(g))
            }
            Kind::GoldenHd => {
                let w = render_hd();
                let s = w
                    .summarize()
                    .map_err(|e| format!("set-up summary failed: {e:?}"))?;
                (w, Golden::Panoramas(image_digest(&s.panoramas)))
            }
        };
        Ok(Setup {
            seed,
            workload,
            golden,
        })
    }

    fn campaign_config(&self, seed: u64) -> CampaignConfig {
        // Retained SDC panoramas would make memory depend on how many
        // SDCs a seed draws; the benchmark compares records, not outputs.
        CampaignConfig::new(RegClass::Gpr, GPR_BUDGET)
            .seed(seed)
            .threads(1)
            .keep_sdc_outputs(false)
            .checkpoint_policy(CheckpointPolicy::EveryKFrames(1))
    }

    fn compose_config(&self, seed: u64) -> ComposeConfig {
        ComposeConfig {
            seed: seed ^ 0xC05E,
            epsilon_pp: 12.0,
            batch: 8,
            min_pilots: 8,
            max_pilots: 24,
            // Pilots are stratified by site group, so ~9% of them hang
            // (against ~1% in a uniform campaign). At a 16x budget the
            // hang count a seed happens to draw sets ~70% of the call's
            // time; 4x keeps the from-scratch executor the dominant cost.
            hang_factor: 4,
            threads: 1,
        }
    }

    /// Input frames per pipeline run.
    pub fn frames(&self) -> usize {
        self.workload.frames().len()
    }

    /// Checkpoints captured at set-up.
    pub fn checkpoints(&self) -> usize {
        match &self.golden {
            Golden::Checkpointed(g) => g.checkpoints.len(),
            _ => 0,
        }
    }

    /// Timed call `k` of a run: the campaign up to its estimate, or one
    /// summary.
    pub fn call(&self, k: usize) -> Result<Call, String> {
        let seed = call_seed(self.seed, k);
        match &self.golden {
            Golden::Checkpointed(g) => {
                let acfg = AdaptiveConfig {
                    epsilon_pp: EPSILON_PP,
                    ..AdaptiveConfig::default()
                };
                let out = adaptive::run_adaptive_checkpointed(
                    &self.workload,
                    g,
                    &self.campaign_config(seed),
                    &acfg,
                );
                let mut facts = outcome_facts(&out.records);
                facts.extend([
                    ("adaptive.batches", out.curve.len() as f64),
                    (
                        "adaptive.half_width_pp",
                        adaptive::max_half_width(&out.rates),
                    ),
                    ("adaptive.injections", out.records.len() as f64),
                ]);
                Ok(Call {
                    runs: out.records.len(),
                    digest: record_digest(&out.records),
                    ok: out.converged && target_met(&out.rates, EPSILON_PP),
                    records: out.records,
                    cache: None,
                    facts,
                })
            }
            Golden::Forensic(g) => {
                let mut cache = CampaignCache::new();
                let cold = compose::run_composed_campaign(
                    &self.workload,
                    g,
                    &self.compose_config(seed),
                    &mut cache,
                );
                let injected = cold.groups.len() - cold.reused_groups;
                let mut facts = outcome_facts(&cold.records);
                facts.extend([
                    ("compose.groups", cold.groups.len() as f64),
                    ("compose.groups_injected", injected as f64),
                    (
                        "compose.pilots_per_group",
                        cold.injections_executed as f64 / injected.max(1) as f64,
                    ),
                ]);
                Ok(Call {
                    runs: cold.injections_executed,
                    digest: record_digest(&cold.records),
                    ok: injected == cold.groups.len(),
                    records: cold.records,
                    cache: Some(cache),
                    facts,
                })
            }
            Golden::Panoramas(reference) => {
                let s = self
                    .workload
                    .summarize()
                    .map_err(|e| format!("summary failed: {e:?}"))?;
                let digest = image_digest(&s.panoramas);
                Ok(Call {
                    runs: 1,
                    digest,
                    ok: digest == *reference,
                    records: Vec::new(),
                    cache: None,
                    facts: summary_facts(&s),
                })
            }
        }
    }

    /// The untimed checks a call's output must pass beyond its own
    /// promise ([`Call::ok`]).
    ///
    /// * Adaptive campaigns: the first records must equal an untimed
    ///   from-scratch fixed campaign at the same seed. Draws depend only
    ///   on the seed and run index, and an adaptive campaign's records are
    ///   a prefix of the fixed campaign's, so both agree record for record.
    /// * Compositional campaigns: a warm pass over the cache the call
    ///   filled must inject no group.
    pub fn check(&self, call: &mut Call, k: usize) -> bool {
        let seed = call_seed(self.seed, k);
        match &self.golden {
            Golden::Checkpointed(g) => {
                let cfg = CampaignConfig::new(RegClass::Gpr, PREFIX_CHECK)
                    .seed(seed)
                    .threads(1);
                let reference = campaign::run_campaign(&self.workload, &g.golden, &cfg);
                prefix_matches(&call.records, &reference)
            }
            Golden::Forensic(g) => call.cache.as_mut().is_some_and(|cache| {
                let ccfg = self.compose_config(seed);
                let warm = compose::run_composed_campaign(&self.workload, g, &ccfg, cache);
                warm.injections_executed == 0 && warm.reused_groups == warm.groups.len()
            }),
            Golden::Panoramas(_) => true,
        }
    }
}

fn outcome_facts<O>(records: &[Injection<O>]) -> Vec<(&'static str, f64)> {
    let count = |f: fn(Outcome) -> bool| records.iter().filter(|r| f(r.outcome)).count() as f64;
    vec![
        ("fault.masked", count(|o| o == Outcome::Masked)),
        ("fault.sdc", count(|o| o == Outcome::Sdc)),
        ("fault.crash", count(Outcome::is_crash)),
        ("fault.hang", count(|o| o == Outcome::Hang)),
    ]
}

/// Pipeline counters of one summary.
pub fn summary_facts(s: &Summary) -> Vec<(&'static str, f64)> {
    vec![
        ("core.segments", s.stats.segments as f64),
        ("core.frames_discarded", s.stats.frames_discarded as f64),
        ("core.affine_fallbacks", s.stats.affine_fallbacks as f64),
    ]
}
