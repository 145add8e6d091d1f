//! Benchmark harness regenerating every figure of the paper's
//! evaluation (Figs 5–13).
//!
//! Each `figs::figN` module reproduces one figure as a printed table or
//! series (and, for the qualitative figures, PPM files). The `repro`
//! binary drives them:
//!
//! ```text
//! cargo run --release -p vs-bench --bin repro -- all
//! cargo run --release -p vs-bench --bin repro -- fig10 --scale paper --inj 1000
//! ```
//!
//! Absolute numbers come from this repo's simulated machine and
//! synthetic inputs; the claims under reproduction are the *shapes*
//! (orderings, crossovers, magnitudes' ballpark) — see EXPERIMENTS.md.

pub mod alloc;
pub mod cli;
pub mod figs;
pub mod manifest;
pub mod report;
pub mod timing;
pub mod trace;

use vs_core::experiments::Scale;

/// Logical cores on this host (1 when undetectable).
///
/// Every bench binary reports this in its `bench_config` event, its
/// JSON artifact and its run-ledger manifest through this one probe,
/// so cross-run comparisons (`obs_report`) can match runs by host
/// shape without worrying about probe drift.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Options shared by all figure generators.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Experiment fidelity.
    pub scale: Scale,
    /// Injections per campaign (Figs 9–11; Fig 12 uses 2×).
    pub injections: usize,
    /// Directory for CSV/PPM artifacts.
    pub out_dir: std::path::PathBuf,
    /// Campaign worker threads.
    pub threads: usize,
    /// Base seed for campaigns.
    pub seed: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: Scale::Quick,
            injections: 200,
            out_dir: std::path::PathBuf::from("out"),
            threads: host_cores(),
            seed: 0xDA7A,
        }
    }
}

impl Opts {
    /// Ensure the artifact directory (and a subdirectory) exists and
    /// return its path.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn artifact_dir(&self, sub: &str) -> std::path::PathBuf {
        let dir = self.out_dir.join(sub);
        std::fs::create_dir_all(&dir).expect("failed to create artifact directory");
        dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_opts_are_quick_scale() {
        let o = Opts::default();
        assert_eq!(o.scale, Scale::Quick);
        assert!(o.injections >= 100);
        assert!(o.threads >= 1);
    }

    #[test]
    fn committed_bench_artifacts_parse() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut parsed = 0;
        for entry in std::fs::read_dir(&root).expect("repository root") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            if name.is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json")) {
                let text = std::fs::read_to_string(&path).expect("readable artifact");
                if let Err(e) = vs_telemetry::jsonl::parse_document(&text) {
                    panic!("{}: {e}", path.display());
                }
                parsed += 1;
            }
        }
        assert!(parsed > 0, "no BENCH_*.json under {}", root.display());
    }

    #[test]
    fn artifact_dir_is_created() {
        let o = Opts {
            out_dir: std::env::temp_dir().join(format!("vs_bench_test_{}", std::process::id())),
            ..Opts::default()
        };
        let d = o.artifact_dir("figX");
        assert!(d.is_dir());
        std::fs::remove_dir_all(&o.out_dir).ok();
    }
}
