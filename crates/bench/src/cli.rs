//! The one command-line parser of the bench binaries.
//!
//! A binary's parse function takes what it accepts out of an [`Args`]:
//! boolean flags, typed values, comma lists, repeated values and, last,
//! positionals. Whatever is left is an unknown argument. A value never
//! begins with `--`, so a flag given without its value is reported as
//! such instead of swallowing the next flag. Presets such as `--smoke`
//! are taken first and explicit values after them, so an explicit flag
//! overrides a preset wherever it stands on the command line.
//!
//! [`parse`] reads the process arguments and reports any error with the
//! binary's usage line; [`fail`] reports a run-time error. This module
//! is the only reader of `std::env::args` in the crate.

use std::process::ExitCode;
use std::str::FromStr;

/// The arguments a binary has not taken yet.
#[derive(Debug)]
pub struct Args(Vec<String>);

impl Args {
    /// Whether the boolean flag `name` was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    /// Every value given with the repeatable flag `name`, in order,
    /// each read by `read`.
    ///
    /// # Errors
    ///
    /// `name` without a value, or a value `read` rejects.
    pub fn values_with<T>(
        &mut self,
        name: &str,
        read: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        while let Some(i) = self.0.iter().position(|a| a == name) {
            let value = match self.0.get(i + 1) {
                Some(v) if !v.starts_with("--") => v,
                _ => return Err(format!("{name} needs a value")),
            };
            out.push(read(value).ok_or_else(|| format!("bad {name} '{value}'"))?);
            self.0.drain(i..i + 2);
        }
        Ok(out)
    }

    /// The value of `name` read by `read`; the last one given wins.
    ///
    /// # Errors
    ///
    /// As [`values_with`](Args::values_with).
    pub fn value_with<T>(
        &mut self,
        name: &str,
        read: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        Ok(self.values_with(name, read)?.pop())
    }

    /// The typed value of `name`; the last one given wins.
    ///
    /// # Errors
    ///
    /// As [`values_with`](Args::values_with).
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value_with(name, |v| v.parse().ok())
    }

    /// Every typed value of the repeatable flag `name`, in order.
    ///
    /// # Errors
    ///
    /// As [`values_with`](Args::values_with).
    pub fn values<T: FromStr>(&mut self, name: &str) -> Result<Vec<T>, String> {
        self.values_with(name, |v| v.parse().ok())
    }

    /// A positive count, such as `--every-k 2`.
    ///
    /// # Errors
    ///
    /// As [`values_with`](Args::values_with); zero is rejected.
    pub fn count(&mut self, name: &str) -> Result<Option<usize>, String> {
        self.value_with(name, positive)
    }

    /// A non-empty comma list of positive counts, such as
    /// `--threads 1,2,4`.
    ///
    /// # Errors
    ///
    /// As [`values_with`](Args::values_with); an empty item or a zero
    /// is rejected.
    pub fn counts(&mut self, name: &str) -> Result<Option<Vec<usize>>, String> {
        self.value_with(name, |v| v.split(',').map(positive).collect())
    }

    /// The remaining arguments that are not flags, in order. Take them
    /// after every flag and value.
    pub fn positionals(&mut self) -> Vec<String> {
        let (flags, positionals) = std::mem::take(&mut self.0)
            .into_iter()
            .partition(|a| a.starts_with("--"));
        self.0 = flags;
        positionals
    }
}

fn positive(v: &str) -> Option<usize> {
    v.trim().parse().ok().filter(|&n| n > 0)
}

/// Parse `args` with `take`, which must take every argument it accepts.
///
/// # Errors
///
/// The first error `take` returns, or the first argument it left.
fn parse_args<T>(
    args: impl IntoIterator<Item = String>,
    take: impl FnOnce(&mut Args) -> Result<T, String>,
) -> Result<T, String> {
    let mut args = Args(args.into_iter().collect());
    let parsed = take(&mut args)?;
    match args.0.first() {
        Some(extra) => Err(format!("unknown argument '{extra}'")),
        None => Ok(parsed),
    }
}

/// Parse this process's arguments with `take`. On an error, print it
/// with `usage` and return the failure exit code for `main` to return.
///
/// # Errors
///
/// [`ExitCode::FAILURE`] after printing the error.
pub fn parse<T>(
    usage: &str,
    take: impl FnOnce(&mut Args) -> Result<T, String>,
) -> Result<T, ExitCode> {
    parse_args(std::env::args().skip(1), take).map_err(|e| fail(format!("{e}\n{usage}")))
}

/// Print `error: {e}` to stderr and return the failure exit code.
pub fn fail(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run<T>(line: &str, take: impl FnOnce(&mut Args) -> Result<T, String>) -> Result<T, String> {
        parse_args(line.split_whitespace().map(String::from), take)
    }

    /// A `--smoke` preset with two overridable values, as the bench
    /// binaries read theirs.
    fn preset(a: &mut Args) -> Result<(usize, u64), String> {
        let smoke = a.flag("--smoke");
        let frames = a.value("--frames")?.unwrap_or(if smoke { 6 } else { 16 });
        let seed = a.value("--seed")?.unwrap_or(7);
        Ok((frames, seed))
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        assert_eq!(
            run("--smoke --bogus 3", preset),
            Err("unknown argument '--bogus'".into())
        );
        assert_eq!(run("stray", preset), Err("unknown argument 'stray'".into()));
        assert_eq!(run("", preset), Ok((16, 7)));
    }

    #[test]
    fn a_missing_value_is_rejected() {
        assert_eq!(
            run("--frames", preset),
            Err("--frames needs a value".into())
        );
        // A flag is never taken as a value.
        assert_eq!(
            run("--frames --smoke", preset),
            Err("--frames needs a value".into())
        );
    }

    #[test]
    fn a_malformed_number_is_rejected() {
        assert_eq!(run("--frames 1x", preset), Err("bad --frames '1x'".into()));
        assert_eq!(run("--seed -3", preset), Err("bad --seed '-3'".into()));
    }

    #[test]
    fn zero_counts_and_empty_lists_are_rejected() {
        let threads = |a: &mut Args| a.counts("--threads");
        assert_eq!(run("--threads 0", threads), Err("bad --threads '0'".into()));
        assert_eq!(
            run("--threads 1,0", threads),
            Err("bad --threads '1,0'".into())
        );
        assert_eq!(run("--threads ,", threads), Err("bad --threads ','".into()));
        assert_eq!(
            parse_args(["--threads".to_string(), String::new()], threads),
            Err("bad --threads ''".into())
        );
        let every_k = |a: &mut Args| a.count("--every-k");
        assert_eq!(run("--every-k 0", every_k), Err("bad --every-k '0'".into()));
        assert_eq!(run("--every-k 2", every_k), Ok(Some(2)));
    }

    #[test]
    fn comma_lists_parse_in_order() {
        let threads = |a: &mut Args| a.counts("--threads");
        assert_eq!(run("--threads 1,2,4", threads), Ok(Some(vec![1, 2, 4])));
        assert_eq!(run("--threads 3", threads), Ok(Some(vec![3])));
        assert_eq!(run("", threads), Ok(None));
    }

    #[test]
    fn repeated_values_collect_in_order() {
        let census = |a: &mut Args| {
            let expect = a.values_with("--expect", |v| {
                let (name, count) = v.split_once('=')?;
                Some((name.to_string(), count.parse::<usize>().ok()?))
            })?;
            let require: Vec<String> = a.values("--require")?;
            Ok((expect, require))
        };
        let (expect, require) =
            run("--expect a=1 --require x --expect b=2 --require y", census).unwrap();
        assert_eq!(expect, [("a".to_string(), 1), ("b".to_string(), 2)]);
        assert_eq!(require, ["x", "y"]);
        assert_eq!(run("--expect a", census), Err("bad --expect 'a'".into()));
    }

    #[test]
    fn positionals_come_after_flags() {
        let trace_check = |a: &mut Args| {
            let quiet = a.flag("--quiet");
            let expect: Vec<String> = a.values("--expect")?;
            Ok((a.positionals(), quiet, expect))
        };
        assert_eq!(
            run("--quiet trace.jsonl --expect a=1", trace_check),
            Ok((
                vec!["trace.jsonl".to_string()],
                true,
                vec!["a=1".to_string()]
            ))
        );
        let repro = |a: &mut Args| {
            let inj: Option<usize> = a.value("--inj")?;
            Ok((a.positionals(), inj))
        };
        assert_eq!(
            run("fig5 --inj 6 fig9a", repro),
            Ok((vec!["fig5".to_string(), "fig9a".to_string()], Some(6)))
        );
        // A flag nobody took stays an error after the positionals.
        assert_eq!(
            run("fig5 --bogus", repro),
            Err("unknown argument '--bogus'".into())
        );
    }

    #[test]
    fn explicit_flags_override_the_smoke_preset_in_any_order() {
        assert_eq!(run("--smoke", preset), Ok((6, 7)));
        assert_eq!(run("--frames 10 --smoke", preset), Ok((10, 7)));
        assert_eq!(run("--smoke --frames 10", preset), Ok((10, 7)));
        assert_eq!(run("--seed 9 --smoke --frames 10", preset), Ok((10, 9)));
        // The last of repeated single values wins.
        assert_eq!(run("--frames 3 --frames 4", preset), Ok((4, 7)));
    }
}
