//! The persistent run ledger: an append-only JSONL store of run
//! manifests under `out/ledger/`.
//!
//! Every bench binary appends one `run_manifest` event per invocation —
//! config digest, SIMD level, host shape, throughput, outcome rates —
//! so a machine accumulates a cross-run trajectory that the `obs_report`
//! regression sentinel can mine. The format is deliberately the trace
//! format: one flat JSON object per line, first key `"event"`, written
//! with [`crate::event::owned_to_jsonl`] and re-read with
//! [`crate::jsonl::parse_trace`], so the ledger is validated by exactly
//! the machinery that validates traces.
//!
//! Appends are best-effort durable (`create` + `append` + flush) and
//! each line is self-contained, so concurrent writers from separate
//! processes at worst interleave whole lines, never corrupt them
//! (single `write_all` per line of well under `PIPE_BUF`-scale sizes on
//! the platforms this repo targets; a torn tail line is reported —
//! not silently skipped — by [`Ledger::read`]).

use crate::event::{owned_to_jsonl, OwnedEvent, OwnedValue};
use crate::jsonl;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Event name of every ledger line.
pub const MANIFEST_EVENT: &str = "run_manifest";

/// Default ledger directory, relative to the repo root.
pub const DEFAULT_DIR: &str = "out/ledger";

/// File name of the ledger inside its directory.
pub const FILE_NAME: &str = "ledger.jsonl";

/// Handle to one append-only ledger file.
#[derive(Debug, Clone)]
pub struct Ledger {
    path: PathBuf,
}

impl Ledger {
    /// The ledger at `dir/ledger.jsonl`.
    pub fn in_dir(dir: &Path) -> Ledger {
        Ledger {
            path: dir.join(FILE_NAME),
        }
    }

    /// The ledger every tool reads and writes by default:
    /// `$VS_LEDGER_DIR/ledger.jsonl` when that environment variable is
    /// set and non-empty, else [`DEFAULT_DIR`]`/ledger.jsonl` relative to
    /// the working directory.
    pub fn default_location() -> Ledger {
        match std::env::var("VS_LEDGER_DIR") {
            Ok(dir) if !dir.is_empty() => Ledger::in_dir(Path::new(&dir)),
            _ => Ledger::in_dir(Path::new(DEFAULT_DIR)),
        }
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one manifest line, creating the directory and file on
    /// first use.
    ///
    /// # Errors
    ///
    /// I/O failure, or a manifest that is not a `run_manifest` event —
    /// the ledger holds nothing else.
    pub fn append(&self, manifest: &OwnedEvent) -> io::Result<()> {
        if manifest.name != MANIFEST_EVENT {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "ledger only stores {MANIFEST_EVENT} events, got '{}'",
                    manifest.name
                ),
            ));
        }
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut line = owned_to_jsonl(manifest);
        line.push('\n');
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(line.as_bytes())?;
        file.flush()
    }

    /// Read every manifest in append order. A missing ledger file is an
    /// empty ledger, not an error.
    ///
    /// # Errors
    ///
    /// I/O failure, a line that does not parse as a trace event, or a
    /// parsed event that is not a `run_manifest`.
    pub fn read(&self) -> io::Result<Vec<OwnedEvent>> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let events = jsonl::parse_trace(&text).map_err(|(line, err)| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}:{line}: {err}", self.path.display()),
            )
        })?;
        for e in &events {
            if e.name != MANIFEST_EVENT {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: unexpected '{}' event in ledger",
                        self.path.display(),
                        e.name
                    ),
                ));
            }
        }
        Ok(events)
    }
}

/// Assemble a `run_manifest` event from owned fields.
pub fn manifest(fields: Vec<(String, OwnedValue)>) -> OwnedEvent {
    OwnedEvent {
        name: MANIFEST_EVENT.to_string(),
        fields,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vs_ledger_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_read_round_trip() {
        let dir = temp_dir("roundtrip");
        let ledger = Ledger::in_dir(&dir);
        assert!(ledger.read().unwrap().is_empty(), "missing file is empty");
        let m1 = manifest(vec![
            (
                "bench".into(),
                OwnedValue::Str("campaign_throughput".into()),
            ),
            ("runs_per_sec".into(), OwnedValue::F64(54.5)),
            ("host_cores".into(), OwnedValue::U64(8)),
        ]);
        let m2 = manifest(vec![
            ("bench".into(), OwnedValue::Str("kernel_simd".into())),
            ("identical".into(), OwnedValue::Bool(true)),
        ]);
        ledger.append(&m1).unwrap();
        ledger.append(&m2).unwrap();
        let back = ledger.read().unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].str("bench"), Some("campaign_throughput"));
        assert_eq!(back[0].f64("runs_per_sec"), Some(54.5));
        assert_eq!(back[1].get("identical"), Some(&OwnedValue::Bool(true)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_foreign_events_on_both_paths() {
        let dir = temp_dir("foreign");
        let ledger = Ledger::in_dir(&dir);
        let bad = OwnedEvent {
            name: "not_a_manifest".into(),
            fields: vec![],
        };
        assert!(ledger.append(&bad).is_err());
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(ledger.path(), "{\"event\":\"intruder\"}\n").unwrap();
        assert!(ledger.read().is_err());
        std::fs::write(ledger.path(), "{\"event\":\"run_manifest\",\"x\":\n").unwrap();
        assert!(ledger.read().is_err(), "torn tail line is an error");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
