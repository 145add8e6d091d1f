//! Runtime SIMD dispatch for the hot kernels.
//!
//! Every optimized kernel in the workspace exists at up to four levels —
//! the float scalar oracle, the SWAR/fixed-point rewrite (PR 4), and
//! explicit SSE2/AVX2 vector paths — all proven bit-exact to each other,
//! so which one runs is purely a throughput decision. This module makes
//! that decision once per process:
//!
//! * `VS_SIMD=scalar|swar|sse2|avx2` pins the level (useful for A/B
//!   verification and for testing every path on any host),
//! * `VS_SIMD=auto` (or unset) picks the widest level the CPU supports:
//!   AVX2 when `is_x86_feature_detected!` reports it, else SSE2 on
//!   x86-64 (part of the baseline ISA), else SWAR.
//!
//! The choice is cached in a `OnceLock`, so per-call dispatch is a load
//! and a jump. Campaign record equality across levels is enforced by
//! `scripts/verify.sh`, which replays the same campaign under `scalar`,
//! `swar`, `sse2` (on x86_64) and `auto` (AVX2 where the CPU has it) in
//! separate processes and diffs the records.

use std::sync::OnceLock;

/// One implementation level of a dispatched kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// The float/per-pixel reference oracles.
    Scalar,
    /// SWAR and fixed-point integer rewrites (portable).
    Swar,
    /// Explicit SSE2 intrinsics (baseline x86-64).
    Sse2,
    /// Explicit AVX2 intrinsics (runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// All levels, narrowest first.
    pub const ALL: [SimdLevel; 4] = [
        SimdLevel::Scalar,
        SimdLevel::Swar,
        SimdLevel::Sse2,
        SimdLevel::Avx2,
    ];

    /// The `VS_SIMD` spelling of this level.
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Swar => "swar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Whether this level can run on the current host.
    pub fn available(self) -> bool {
        match self {
            SimdLevel::Scalar | SimdLevel::Swar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Sse2 | SimdLevel::Avx2 => false,
        }
    }

    /// Parse a `VS_SIMD` value. `auto` maps to [`detect`]; unknown
    /// spellings are `None`.
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
            "swar" => Some(SimdLevel::Swar),
            "sse2" => Some(SimdLevel::Sse2),
            "avx2" => Some(SimdLevel::Avx2),
            "auto" => Some(detect()),
            _ => None,
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Widest level the current CPU supports.
pub fn detect() -> SimdLevel {
    if SimdLevel::Avx2.available() {
        SimdLevel::Avx2
    } else if SimdLevel::Sse2.available() {
        SimdLevel::Sse2
    } else {
        SimdLevel::Swar
    }
}

/// The process-wide dispatch level: `VS_SIMD` when set (a pinned level
/// must be available on this host), else [`detect`]. Read once; every
/// dispatched kernel consults this.
///
/// # Panics
///
/// Panics on an unknown `VS_SIMD` value or a pinned level the host
/// cannot run (e.g. `VS_SIMD=avx2` without AVX2) — a silent fallback
/// would invalidate any A/B measurement the override was set up for.
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| match std::env::var("VS_SIMD") {
        Ok(v) => {
            let lvl = SimdLevel::parse(&v)
                .unwrap_or_else(|| panic!("VS_SIMD={v:?}: expected scalar|swar|sse2|avx2|auto"));
            assert!(
                lvl.available(),
                "VS_SIMD={v:?}: level {lvl} is not available on this host"
            );
            lvl
        }
        Err(_) => detect(),
    })
}

/// Comma-separated list of the vector features this host exposes, for
/// bench provenance (`BENCH_6.json` records it next to the timings).
pub fn detected_features() -> String {
    let mut feats: Vec<&str> = Vec::new();
    if SimdLevel::Sse2.available() {
        feats.push("sse2");
    }
    if SimdLevel::Avx2.available() {
        feats.push("avx2");
    }
    if feats.is_empty() {
        feats.push("none");
    }
    feats.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portable_levels_are_always_available() {
        assert!(SimdLevel::Scalar.available());
        assert!(SimdLevel::Swar.available());
    }

    #[test]
    fn parse_accepts_known_levels() {
        assert_eq!(SimdLevel::parse("scalar"), Some(SimdLevel::Scalar));
        assert_eq!(SimdLevel::parse("SWAR"), Some(SimdLevel::Swar));
        assert_eq!(SimdLevel::parse(" sse2 "), Some(SimdLevel::Sse2));
        assert_eq!(SimdLevel::parse("avx2"), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse("auto"), Some(detect()));
        assert_eq!(SimdLevel::parse("avx512"), None);
        assert_eq!(SimdLevel::parse(""), None);
    }

    #[test]
    fn detect_is_available_and_at_least_swar() {
        let d = detect();
        assert!(d.available());
        assert_ne!(d, SimdLevel::Scalar, "auto never picks the oracle");
    }

    #[test]
    fn level_is_stable_and_available() {
        let a = level();
        let b = level();
        assert_eq!(a, b, "dispatch level must be cached");
        assert!(a.available());
    }

    #[test]
    fn detected_features_lists_what_availability_says() {
        let f = detected_features();
        assert_eq!(f.contains("sse2"), SimdLevel::Sse2.available());
        assert_eq!(f.contains("avx2"), SimdLevel::Avx2.available());
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for lvl in SimdLevel::ALL {
            assert_eq!(SimdLevel::parse(lvl.as_str()), Some(lvl));
        }
    }
}
