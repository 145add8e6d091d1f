//! Software-implemented fault injection (SWiFI) for the video-summarization
//! resiliency study.
//!
//! This crate is the Rust analogue of the paper's AFI (Application Fault
//! Injection) tool. AFI flips a single bit in a random architectural
//! register (GPR or FPR) at a random execution cycle of the unmodified
//! binary and then watches the program for crashes, hangs, silent data
//! corruptions (SDCs) or masking. We cannot flip real machine registers
//! from safe Rust, so the pipeline is instrumented with *taps*: inlined
//! calls through which every architecturally meaningful value flows.
//!
//! * Integer taps ([`tap::gpr`], [`tap::addr`], [`tap::ctl`]) model the
//!   general-purpose register file.
//! * Float taps ([`tap::fpr`]) model the floating-point register file.
//!
//! A *campaign* ([`campaign::run_campaign`]) first profiles a golden run to
//! learn the number of dynamic taps ("execution cycles" in the paper's
//! terminology), then performs N independent runs, each with one armed
//! fault: a `(register class, dynamic tap index, bit)` triple drawn
//! uniformly at random. The *fault monitor* half of AFI is reproduced by
//! the campaign runner: simulated segfaults and aborts surface as
//! [`SimError`] values (or panics, which are caught), hangs are detected
//! with an instruction budget, and SDC/Mask classification is a byte
//! comparison of the output against the golden output.
//!
//! Every campaign flavour returns one [`campaign::Injection`] record per
//! run, and every one of them promises the same thing: the same seed
//! gives the same record identities ([`campaign::Injection::identity`]:
//! index, fault spec, fired fault and outcome) whatever the thread
//! count, checkpoint policy, SIMD level or installed observers. Record
//! streams are compared through that identity and pinned through
//! [`campaign::record_digest`], its order-sensitive fold.
//!
//! # Example
//!
//! ```
//! use vs_fault::{tap, FuncId, SimError};
//! use vs_fault::campaign::{self, CampaignConfig, NoCheckpoint, Workload};
//! use vs_fault::spec::RegClass;
//!
//! /// A toy workload: sums tapped values; a flipped high bit in the
//! /// accumulator produces an SDC, a flipped index bit a crash. Each
//! /// run writes its output into the worker's workspace and captures no
//! /// checkpoints.
//! struct Sum;
//! impl Workload for Sum {
//!     type Output = u64;
//!     type Workspace = Option<u64>;
//!     type Checkpoint = NoCheckpoint;
//!     fn run<'w>(
//!         &self,
//!         ws: &'w mut Option<u64>,
//!         _from: Option<&NoCheckpoint>,
//!     ) -> Result<&'w u64, SimError> {
//!         let _g = tap::scope(FuncId::Other);
//!         let data = [1u64, 2, 3, 4];
//!         let mut acc = 0u64;
//!         for i in 0..data.len() {
//!             let i = tap::addr(i);
//!             let v = *data.get(i).ok_or(SimError::Segfault)?;
//!             acc = acc.wrapping_add(tap::gpr(v));
//!         }
//!         Ok(ws.insert(acc))
//!     }
//! }
//!
//! let golden = campaign::profile_golden(&Sum).expect("golden run must succeed");
//! assert_eq!(golden.output, 10);
//! let cfg = CampaignConfig::new(RegClass::Gpr, 100).seed(7).threads(2);
//! let records = campaign::run_campaign(&Sum, &golden, &cfg);
//! assert_eq!(records.len(), 100);
//! ```

pub mod adaptive;
pub mod campaign;
pub mod compose;
pub mod convergence;
pub mod error;
pub mod forensics;
pub mod func;
pub mod pruning;
pub mod session;
pub mod spec;
mod state;
pub mod stats;
pub mod tap;
mod telemetry;

pub use error::{CrashKind, SimError};
pub use func::{FuncId, FuncMask, OpClass, NUM_CLASSES, NUM_FUNCS};
pub use session::InstrCounts;
pub use spec::{FaultSpec, FiredFault, RegClass, NUM_REGS};

/// Deterministic 64-bit mixer (splitmix64 finalizer).
///
/// Used to derive per-injection RNG seeds and to assign virtual register
/// ids to dynamic taps; exposed because the video substrate reuses it for
/// cheap coordinate hashing. The implementation lives in [`vs_rng`] so
/// the whole workspace shares one dependency-free randomness core.
pub use vs_rng::mix64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(0), mix64(0));
        assert_ne!(mix64(0), mix64(1));
        // Low-entropy inputs should produce well-spread outputs.
        let a = mix64(1) % 32;
        let b = mix64(2) % 32;
        let c = mix64(3) % 32;
        assert!(!(a == b && b == c));
    }
}
