//! Compositional campaign reuse (FastFlip-style) over Relyzer site
//! groups.
//!
//! FastFlip's observation is that error-injection results compose
//! per-section and survive code changes that leave a section's inputs
//! and behaviour untouched. Our sections are the pipeline stages of
//! [`vs_telemetry::digest::Stage`]; our injection unit is the
//! `(function, op-class)` site group of [`crate::pruning`]. Each group's
//! measured [`OutcomeCounts`] are stored in a JSONL cache keyed by
//!
//! * a digest of the sampling configuration ([`ComposeConfig::digest`]),
//! * the golden per-stage [`DigestTrace`] digests *and* fold counts of
//!   every stage up to and including the group's own stage (its
//!   *upstream* stages in dataflow order), and
//! * the group identity (function, op-class, population).
//!
//! Because stage digests propagate downstream — a change to stage *k*'s
//! computation perturbs the golden digests of stages `k..` and only
//! those — a code or approximation change invalidates exactly the
//! groups at and below the first diverged stage. Groups whose upstream
//! digests are bit-identical to a cached entry inherit its counts and
//! skip injection entirely; only diverged groups re-inject, each with
//! its own Wilson-gated adaptive pilot loop. The campaign-level
//! estimate is assembled with [`crate::pruning::weighted_estimate`] —
//! the exact estimator the pruned campaign uses.
//!
//! First-order assumption: a fault injected in an upstream-identical
//! group propagates through downstream stages whose code may have
//! changed; reuse treats the group's outcome distribution as a property
//! of the group's own stage. The `--rate-agreement` gate in
//! `campaign_bench` checks this empirically against a full fixed-budget
//! campaign.

use crate::campaign::{self, GoldenRun, Injection, Plan, Workload};
use crate::func::{FuncId, OpClass};
use crate::pruning::{self, SiteGroup};
use crate::spec::FaultSpec;
use crate::stats::{outcome_rates, OutcomeCounts, OutcomeRates};
use crate::{adaptive, mix64};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use vs_telemetry::digest::{DigestTrace, Stage};
use vs_telemetry::OwnedEvent;

/// Sampling parameters for the injected (cache-miss) groups of a
/// composed campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComposeConfig {
    /// Seed for pilot sampling (part of the cache key: entries measured
    /// under different seeds are different measurements).
    pub seed: u64,
    /// Per-group Wilson half-width target, percentage points: a group
    /// stops injecting once all four outcome classes are resolved this
    /// finely (or its pilot cap is reached).
    pub epsilon_pp: f64,
    /// Pilots per adaptive round within a group.
    pub batch: usize,
    /// Minimum pilots per injected group.
    pub min_pilots: usize,
    /// Maximum pilots per injected group.
    pub max_pilots: usize,
    /// Hang budget as a multiple of the golden instruction count.
    pub hang_factor: u64,
    /// Worker threads for each pilot batch.
    pub threads: usize,
}

impl Default for ComposeConfig {
    fn default() -> Self {
        ComposeConfig {
            seed: 0,
            epsilon_pp: 10.0,
            batch: 8,
            min_pilots: 4,
            max_pilots: 64,
            hang_factor: 16,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

impl ComposeConfig {
    /// Digest of every parameter that changes what a cache entry
    /// *means* (seed, stopping rule, pilot caps, hang budget). Thread
    /// count is excluded: outcomes are thread-invariant by the driver's
    /// determinism contract.
    pub fn digest(&self) -> u64 {
        let mut k = mix64(0x00c0_a905_e0d1_6e57_u64);
        for part in [
            self.seed,
            self.epsilon_pp.to_bits(),
            self.batch as u64,
            self.min_pilots as u64,
            self.max_pilots as u64,
            self.hang_factor,
        ] {
            k = mix64(k ^ part);
        }
        k
    }
}

/// Cache key for one site group under one golden run: folds the config
/// digest, the golden digest *and* fold count of every stage upstream
/// of (and including) the group's stage, and the group identity.
pub fn group_key(config_digest: u64, golden: &DigestTrace, group: &SiteGroup) -> u64 {
    let stage = group.func.stage();
    let mut k = mix64(config_digest ^ 0x5e1f_c0de_4b05u64);
    for s in &Stage::ALL[..=stage.index()] {
        k = mix64(k ^ golden.digest(*s));
        k = mix64(k ^ golden.count(*s));
    }
    k = mix64(k ^ (((group.func.index() as u64) << 8) | group.op.index() as u64));
    mix64(k ^ group.population)
}

/// One cached (or freshly measured) group measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// The [`group_key`] this entry was stored under.
    pub key: u64,
    /// The function the group's taps execute in.
    pub func: FuncId,
    /// The architectural role of the group's values.
    pub op: OpClass,
    /// The group's eligible-tap population when measured.
    pub population: u64,
    /// Pilot outcome tallies.
    pub counts: OutcomeCounts,
}

/// A persistent campaign cache: group measurements keyed by
/// [`group_key`], serialized as a JSONL trace (one `cache_entry` event
/// per measurement) through the ordinary `vs-telemetry` machinery — no
/// external JSON dependency, and `trace_check` can parse it.
#[derive(Debug, Clone, Default)]
pub struct CampaignCache {
    /// Provenance annotation (e.g. the workload's config digest).
    /// Informational only — never part of a key.
    pub workload_digest: u64,
    entries: BTreeMap<u64, CacheEntry>,
}

/// Cache file format version (`cache_header.version`).
const CACHE_VERSION: u64 = 1;

impl CampaignCache {
    /// An empty cache.
    pub fn new() -> Self {
        CampaignCache::default()
    }

    /// Number of cached group measurements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no measurements.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a measurement by key.
    pub fn get(&self, key: u64) -> Option<&CacheEntry> {
        self.entries.get(&key)
    }

    /// Insert (or replace) a measurement.
    pub fn insert(&mut self, entry: CacheEntry) {
        self.entries.insert(entry.key, entry);
    }

    /// Serialize to a JSONL trace: one `cache_header` line, then one
    /// `cache_entry` line per measurement in key order.
    pub fn to_jsonl(&self) -> String {
        use vs_telemetry::{event::to_jsonl, Event, Value};
        let mut out = String::new();
        out.push_str(&to_jsonl(&Event::new(
            "cache_header",
            &[
                ("version", Value::U64(CACHE_VERSION)),
                ("workload", Value::U64(self.workload_digest)),
                ("entries", Value::U64(self.entries.len() as u64)),
            ],
        )));
        out.push('\n');
        for e in self.entries.values() {
            out.push_str(&to_jsonl(&Event::new(
                "cache_entry",
                &[
                    ("key", Value::U64(e.key)),
                    ("func", Value::Str(e.func.name())),
                    ("op", Value::Str(e.op.name())),
                    ("population", Value::U64(e.population)),
                    ("masked", Value::U64(e.counts.masked as u64)),
                    ("sdc", Value::U64(e.counts.sdc as u64)),
                    ("crash_segfault", Value::U64(e.counts.crash_segfault as u64)),
                    ("crash_abort", Value::U64(e.counts.crash_abort as u64)),
                    ("hang", Value::U64(e.counts.hang as u64)),
                ],
            )));
            out.push('\n');
        }
        out
    }

    /// Parse a cache back from its JSONL serialization: exactly one
    /// `cache_header` line, first, whose `entries` count matches the
    /// `cache_entry` lines that follow it. Every field is required: a
    /// line that lacks one is rejected, never read as 0.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line, missing or
    /// misplaced header, missing field (named), version or entry-count
    /// mismatch, or unknown function/op name.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let events = vs_telemetry::jsonl::parse_trace(text)
            .map_err(|(line, e)| format!("cache line {line}: {e}"))?;
        let Some((header, entries)) = events
            .split_first()
            .filter(|(h, _)| h.name == "cache_header")
        else {
            return Err("cache does not start with a cache_header line".into());
        };
        let missing = |ev: &OwnedEvent, k: &str| format!("{} missing field {k}", ev.name);
        let field = |ev: &OwnedEvent, k: &str| ev.u64(k).ok_or_else(|| missing(ev, k));
        let version = field(header, "version")?;
        if version != CACHE_VERSION {
            return Err(format!(
                "cache version {version} (expected {CACHE_VERSION})"
            ));
        }
        let declared = field(header, "entries")?;
        if declared != entries.len() as u64 {
            return Err(format!(
                "cache header declares {declared} entries, file holds {}",
                entries.len()
            ));
        }
        let mut cache = CampaignCache::new();
        cache.workload_digest = field(header, "workload")?;
        for ev in entries {
            if ev.name != "cache_entry" {
                return Err(format!("unexpected cache event {:?}", ev.name));
            }
            let field = |k: &str| field(ev, k);
            let name = |k: &str| ev.str(k).ok_or_else(|| missing(ev, k));
            let func_name = name("func")?;
            let func = FuncId::ALL
                .iter()
                .copied()
                .find(|f| f.name() == func_name)
                .ok_or_else(|| format!("unknown cache function {func_name:?}"))?;
            let op_name = name("op")?;
            let op = OpClass::ALL
                .iter()
                .copied()
                .find(|o| o.name() == op_name)
                .ok_or_else(|| format!("unknown cache op class {op_name:?}"))?;
            cache.insert(CacheEntry {
                key: field("key")?,
                func,
                op,
                population: field("population")?,
                counts: OutcomeCounts {
                    masked: field("masked")? as usize,
                    sdc: field("sdc")? as usize,
                    crash_segfault: field("crash_segfault")? as usize,
                    crash_abort: field("crash_abort")? as usize,
                    hang: field("hang")? as usize,
                },
            });
        }
        Ok(cache)
    }

    /// Load a cache from `path`; a missing file yields an empty cache.
    ///
    /// # Errors
    ///
    /// Returns a description of an unreadable or malformed cache file.
    pub fn load(path: &Path) -> Result<Self, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::from_jsonl(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(CampaignCache::new()),
            Err(e) => Err(format!("read {}: {e}", path.display())),
        }
    }

    /// Write the cache to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

/// Per-group outcome of a composed campaign.
#[derive(Debug, Clone, Copy)]
pub struct GroupOutcome {
    /// The site group.
    pub group: SiteGroup,
    /// Its cache key under this golden run.
    pub key: u64,
    /// Pilot tallies (inherited or freshly measured).
    pub counts: OutcomeCounts,
    /// Whether the tallies were inherited from the cache (no injections
    /// executed for this group).
    pub reused: bool,
}

/// Result of a composed campaign.
#[derive(Debug, Clone)]
pub struct ComposedResult<O> {
    /// Per-group measurements, in [`pruning::site_groups`] order.
    pub groups: Vec<GroupOutcome>,
    /// Population-weighted estimate over all groups (cached and fresh),
    /// assembled with [`pruning::weighted_estimate`]. Its `n` is the
    /// total pilots represented, including inherited ones.
    pub estimate: OutcomeRates,
    /// Injections actually executed in this run (fresh groups only).
    pub injections_executed: usize,
    /// Groups inherited from the cache.
    pub reused_groups: usize,
    /// Records of the freshly injected pilots.
    pub records: Vec<Injection<O>>,
}

/// Draw pilot `p` for a site group. Keyed to the group's *identity*
/// (function, op-class), never its position in the group list, so a
/// group's pilot stream is stable as other groups appear or vanish
/// across pipeline changes.
fn pilot_spec(seed: u64, group: &SiteGroup, p: usize) -> FaultSpec {
    let salt = ((group.func.index() as u64) << 8) | group.op.index() as u64;
    group.pilot(mix64(seed ^ mix64((salt << 32) | p as u64)))
}

/// Run a compositional GPR campaign: groups whose upstream stage
/// digests match a cached entry inherit its counts; the rest inject
/// Wilson-gated pilot batches. Fresh measurements are inserted into
/// `cache`, so running twice against an unchanged golden run executes
/// zero injections the second time.
///
/// When any group misses the cache, the call first re-runs the golden
/// run to capture its own golden-prefix chain (a checkpoint at every
/// frame and composite, for the pipeline), and every pilot resumes from
/// the latest checkpoint before its fault. Records are the ones
/// from-scratch pilots give.
///
/// # Panics
///
/// Panics if `golden` carries no forensic digest trace (profile with
/// [`crate::campaign::profile_golden_forensic`]) or no populated GPR site
/// groups.
pub fn run_composed_campaign<W: Workload>(
    workload: &W,
    golden: &GoldenRun<W::Output>,
    cfg: &ComposeConfig,
    cache: &mut CampaignCache,
) -> ComposedResult<W::Output> {
    let digests = golden
        .digests
        .as_ref()
        .expect("composed campaigns need a forensic golden (use profile_golden_forensic)");
    let groups = pruning::site_groups(golden);
    assert!(
        !groups.is_empty(),
        "no populated GPR site groups in the golden profile"
    );
    let config_digest = cfg.digest();
    let lookups: Vec<(u64, Option<OutcomeCounts>)> = groups
        .iter()
        .map(|group| {
            let key = group_key(config_digest, digests, group);
            let cached = cache
                .get(key)
                .filter(|e| {
                    e.func == group.func && e.op == group.op && e.population == group.population
                })
                .map(|e| e.counts);
            (key, cached)
        })
        .collect();
    let mut ws = W::Workspace::default();
    let chain = if lookups.iter().any(|(_, cached)| cached.is_none()) {
        campaign::capture_chain(workload, golden, &mut ws)
    } else {
        Vec::new()
    };
    // Pilots are group-confined and never attributed: the stage digests
    // key the cache, they do not arm the forensic recorder. The capture
    // warmed the first worker's workspace.
    let plan = Plan {
        workload,
        golden,
        checkpoints: &chain,
        hang_factor: cfg.hang_factor,
        threads: cfg.threads,
        keep_sdc: false,
        digests: None,
        workspaces: Mutex::new(vec![ws]),
        observers: vs_telemetry::capture(),
    };

    let mut group_outcomes = Vec::with_capacity(groups.len());
    let mut records = Vec::new();
    let mut injections_executed = 0usize;
    let mut reused_groups = 0usize;

    for (group, &(key, cached)) in groups.iter().zip(&lookups) {
        let (counts, reused) = match cached {
            Some(counts) => (counts, true),
            None => {
                let fresh = inject_group(&plan, cfg, group, records.len());
                let mut counts = OutcomeCounts::default();
                for r in &fresh {
                    counts.add(r.outcome);
                }
                injections_executed += fresh.len();
                records.extend(fresh);
                cache.insert(CacheEntry {
                    key,
                    func: group.func,
                    op: group.op,
                    population: group.population,
                    counts,
                });
                (counts, false)
            }
        };
        reused_groups += usize::from(reused);
        vs_telemetry::emit(
            "compose_group",
            &[
                ("func", vs_telemetry::Value::Str(group.func.name())),
                ("op", vs_telemetry::Value::Str(group.op.name())),
                ("population", vs_telemetry::Value::U64(group.population)),
                ("key", vs_telemetry::Value::U64(key)),
                ("reused", vs_telemetry::Value::Bool(reused)),
                ("pilots", vs_telemetry::Value::U64(counts.n() as u64)),
            ],
        );
        group_outcomes.push(GroupOutcome {
            group: *group,
            key,
            counts,
            reused,
        });
    }

    let rated: Vec<(SiteGroup, OutcomeRates)> = group_outcomes
        .iter()
        .map(|g| (g.group, g.counts.rates()))
        .collect();
    let total_pilots: usize = group_outcomes.iter().map(|g| g.counts.n()).sum();
    let estimate = pruning::weighted_estimate(&rated, total_pilots);
    vs_telemetry::emit(
        "compose_done",
        &[
            ("groups", vs_telemetry::Value::U64(groups.len() as u64)),
            ("reused", vs_telemetry::Value::U64(reused_groups as u64)),
            (
                "injected",
                vs_telemetry::Value::U64((groups.len() - reused_groups) as u64),
            ),
            (
                "injections",
                vs_telemetry::Value::U64(injections_executed as u64),
            ),
            ("masked", vs_telemetry::Value::F64(estimate.masked)),
            ("sdc", vs_telemetry::Value::F64(estimate.sdc)),
            ("crash", vs_telemetry::Value::F64(estimate.crash)),
            ("hang", vs_telemetry::Value::F64(estimate.hang)),
        ],
    );
    ComposedResult {
        groups: group_outcomes,
        estimate,
        injections_executed,
        reused_groups,
        records,
    }
}

/// Wilson-gated pilot loop for one cache-miss group: inject batches
/// (thread-striped, deterministic by pilot index) until every outcome
/// class's 95% half-width is below `epsilon_pp` or the pilot cap / group
/// population is exhausted.
fn inject_group<W: Workload>(
    plan: &Plan<'_, W>,
    cfg: &ComposeConfig,
    group: &SiteGroup,
    base_index: usize,
) -> Vec<Injection<W::Output>> {
    let cap = cfg
        .max_pilots
        .max(cfg.min_pilots)
        .min(group.population as usize)
        .max(1);
    let mut recs: Vec<Injection<W::Output>> = Vec::new();
    while recs.len() < cap {
        let start = base_index + recs.len();
        let n_batch = cfg.batch.max(1).min(cap - recs.len());
        recs.extend(plan.drive(
            start..start + n_batch,
            |i| pilot_spec(cfg.seed, group, i - base_index),
            None,
        ));
        if recs.len() >= cfg.min_pilots.min(cap)
            && adaptive::max_half_width(&outcome_rates(&recs)) <= cfg.epsilon_pp
        {
            break;
        }
    }
    recs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{profile_golden_forensic, NoCheckpoint, Workload};
    use crate::tap;
    use crate::SimError;
    use vs_telemetry::digest::{self, Stage};

    /// A two-stage workload whose later stage can be "re-tuned" (as an
    /// approximation knob or kernel edit would) without touching the
    /// earlier stage: taps and digests of the Match-stage loop are
    /// unchanged, taps and digests of the Warp-stage loop shift.
    struct TwoStage {
        warp_knob: u64,
    }

    impl Workload for TwoStage {
        type Output = (u64, u64);
        type Workspace = Option<(u64, u64)>;
        type Checkpoint = NoCheckpoint;

        fn run<'w>(
            &self,
            ws: &'w mut Self::Workspace,
            _from: Option<&NoCheckpoint>,
        ) -> Result<&'w (u64, u64), SimError> {
            let mut acc = 0u64;
            {
                let _f = tap::scope(crate::FuncId::MatchKeypoints);
                for i in 0..48u64 {
                    tap::work(crate::OpClass::IntAlu, 1)?;
                    acc = acc.wrapping_add(tap::gpr(i * 7));
                }
                digest::record(Stage::Match, acc);
            }
            let mut warped = 0u64;
            {
                let _f = tap::scope(crate::FuncId::Blend);
                for i in 0..32u64 {
                    tap::work(crate::OpClass::IntAlu, 1)?;
                    warped = warped.wrapping_add(tap::gpr(acc ^ (i * self.warp_knob)));
                }
                digest::record(Stage::Warp, warped);
            }
            Ok(ws.insert((acc, warped)))
        }
    }

    fn compose_cfg() -> ComposeConfig {
        ComposeConfig {
            seed: 0x5eed,
            epsilon_pp: 100.0, // stop at min_pilots: unit tests want speed
            batch: 4,
            min_pilots: 4,
            max_pilots: 8,
            hang_factor: 16,
            threads: 2,
        }
    }

    #[test]
    fn warm_cache_reinjects_nothing_and_preserves_the_estimate() {
        let w = TwoStage { warp_knob: 3 };
        let golden = profile_golden_forensic(&w).unwrap();
        let cfg = compose_cfg();
        let mut cache = CampaignCache::new();

        let cold = run_composed_campaign(&w, &golden, &cfg, &mut cache);
        assert_eq!(cold.reused_groups, 0);
        assert!(cold.injections_executed > 0);
        assert_eq!(cache.len(), cold.groups.len());

        let warm = run_composed_campaign(&w, &golden, &cfg, &mut cache);
        assert_eq!(warm.reused_groups, warm.groups.len());
        assert_eq!(warm.injections_executed, 0);
        assert!(warm.records.is_empty());
        // Inherited counts reproduce the cold estimate exactly.
        assert_eq!(warm.estimate, cold.estimate);
        for (c, h) in cold.groups.iter().zip(&warm.groups) {
            assert_eq!(c.key, h.key);
            assert_eq!(c.counts, h.counts);
        }
    }

    #[test]
    fn cache_round_trips_through_jsonl() {
        let w = TwoStage { warp_knob: 3 };
        let golden = profile_golden_forensic(&w).unwrap();
        let cfg = compose_cfg();
        let mut cache = CampaignCache::new();
        cache.workload_digest = 0xABCD;
        let cold = run_composed_campaign(&w, &golden, &cfg, &mut cache);

        let text = cache.to_jsonl();
        let reloaded = CampaignCache::from_jsonl(&text).expect("cache must re-parse");
        assert_eq!(reloaded.workload_digest, 0xABCD);
        assert_eq!(reloaded.len(), cache.len());

        // A reloaded cache is as warm as the original.
        let mut reloaded = reloaded;
        let warm = run_composed_campaign(&w, &golden, &cfg, &mut reloaded);
        assert_eq!(warm.injections_executed, 0);
        assert_eq!(warm.estimate, cold.estimate);
    }

    #[test]
    fn from_jsonl_rejects_garbage() {
        let parse = |lines: &[&str]| CampaignCache::from_jsonl(&lines.join("\n"));
        assert!(parse(&["not json"]).is_err());
        assert!(parse(&["{\"event\":\"cache_header\",\"version\":99,\"entries\":0}"]).is_err());
        assert!(parse(&[
            "{\"event\":\"cache_header\",\"version\":1,\"workload\":0,\"entries\":1}",
            "{\"event\":\"cache_entry\",\"key\":1,\"func\":\"nope\",\"op\":\"data\"}",
        ])
        .is_err());
        assert!(parse(&["{\"event\":\"frame\",\"n\":1}"]).is_err());

        // A real two-group cache, then damaged copies of it.
        let w = TwoStage { warp_knob: 3 };
        let mut cache = CampaignCache::new();
        run_composed_campaign(
            &w,
            &profile_golden_forensic(&w).unwrap(),
            &compose_cfg(),
            &mut cache,
        );
        let text = cache.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(parse(&lines).map(|c| c.len()), Ok(2));
        // No header: entries alone are not a cache.
        assert!(parse(&lines[1..]).is_err());
        // The header must come first.
        assert!(parse(&[lines[1], lines[0], lines[2]]).is_err());
        // Exactly one header, even when the count matches.
        assert!(parse(&[lines[0], lines[1], lines[0]]).is_err());
        // A cache cut at a line boundary is not a smaller cache.
        assert!(parse(&lines[..2]).is_err());
    }

    /// A header that lacks `field` is rejected with an error naming it,
    /// instead of reading the field as 0.
    fn header_without(field: &str) {
        let header = |skip: &str| {
            let fields = [("version", CACHE_VERSION), ("workload", 7), ("entries", 0)];
            let kept: String = fields
                .iter()
                .filter(|(k, _)| *k != skip)
                .map(|(k, v)| format!(",\"{k}\":{v}"))
                .collect();
            format!("{{\"event\":\"cache_header\"{kept}}}\n")
        };
        let mut cache = CampaignCache::new();
        cache.workload_digest = 7;
        assert_eq!(cache.to_jsonl(), header(""), "the header the writer emits");
        assert_eq!(
            CampaignCache::from_jsonl(&header(field)).map(|c| c.len()),
            Err(format!("cache_header missing field {field}"))
        );
    }

    #[test]
    fn header_without_version_is_rejected() {
        header_without("version");
    }

    #[test]
    fn header_without_entries_is_rejected() {
        header_without("entries");
    }

    #[test]
    fn header_without_workload_is_rejected() {
        header_without("workload");
    }

    #[test]
    fn stage_change_invalidates_exactly_downstream_groups() {
        let base = TwoStage { warp_knob: 3 };
        let golden = profile_golden_forensic(&base).unwrap();
        let cfg = compose_cfg();
        let mut cache = CampaignCache::new();
        run_composed_campaign(&base, &golden, &cfg, &mut cache);

        // Re-tune the Warp-stage kernel. The Match-stage loop is
        // bit-identical (same taps, same digests); the Warp-stage golden
        // digest diverges.
        let tuned = TwoStage { warp_knob: 5 };
        let golden2 = profile_golden_forensic(&tuned).unwrap();
        let d1 = golden.digests.as_ref().unwrap();
        let d2 = golden2.digests.as_ref().unwrap();
        assert_eq!(d1.digest(Stage::Match), d2.digest(Stage::Match));
        assert_ne!(d1.digest(Stage::Warp), d2.digest(Stage::Warp));

        let res = run_composed_campaign(&tuned, &golden2, &cfg, &mut cache);
        assert_eq!(res.groups.len(), 2);
        for g in &res.groups {
            let stage = g.group.func.stage();
            assert_eq!(
                g.reused,
                stage < Stage::Warp,
                "group {:?}/{:?} at stage {:?}: reuse must follow the diff",
                g.group.func,
                g.group.op,
                stage
            );
        }
        // Only the Warp-stage group re-injected.
        assert_eq!(res.reused_groups, 1);
        assert!(res.injections_executed > 0);
    }

    #[test]
    fn config_digest_invalidates_the_cache() {
        let w = TwoStage { warp_knob: 3 };
        let golden = profile_golden_forensic(&w).unwrap();
        let cfg = compose_cfg();
        let mut cache = CampaignCache::new();
        run_composed_campaign(&w, &golden, &cfg, &mut cache);
        // A different seed is a different measurement: nothing reuses.
        let reseeded = ComposeConfig {
            seed: cfg.seed ^ 1,
            ..cfg
        };
        let res = run_composed_campaign(&w, &golden, &reseeded, &mut cache);
        assert_eq!(res.reused_groups, 0);
    }

    #[test]
    fn pilot_specs_are_group_identity_stable() {
        let g = SiteGroup {
            func: crate::FuncId::Blend,
            op: crate::OpClass::IntAlu,
            population: 32,
        };
        let a = pilot_spec(7, &g, 3);
        let b = pilot_spec(7, &g, 3);
        assert_eq!(a, b);
        let other = SiteGroup {
            func: crate::FuncId::MatchKeypoints,
            ..g
        };
        assert_ne!(pilot_spec(7, &g, 0), pilot_spec(7, &other, 0));
    }

    #[test]
    fn composed_batches_are_thread_deterministic() {
        let w = TwoStage { warp_knob: 3 };
        let golden = profile_golden_forensic(&w).unwrap();
        let run_at = |threads: usize| {
            let mut cache = CampaignCache::new();
            let cfg = ComposeConfig {
                threads,
                ..compose_cfg()
            };
            run_composed_campaign(&w, &golden, &cfg, &mut cache)
        };
        let one = run_at(1);
        let four = run_at(4);
        let [a, b] = [&one.records, &four.records]
            .map(|recs| recs.iter().map(Injection::identity).collect::<Vec<_>>());
        assert_eq!(a, b);
        assert_eq!(one.estimate, four.estimate);
    }
}
