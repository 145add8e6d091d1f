//! Fault specifications and fired-fault records.

use crate::func::{FuncId, OpClass};
use crate::mix64;
use std::fmt;

/// Architectural register class targeted by an injection, mirroring the
/// paper's separate GPR and FPR experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegClass {
    /// General-purpose (integer) register file — modelled by integer taps.
    Gpr,
    /// Floating-point register file — modelled by float taps.
    Fpr,
}

impl RegClass {
    /// Short uppercase name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            RegClass::Gpr => "GPR",
            RegClass::Fpr => "FPR",
        }
    }
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of virtual registers per class (the paper's POWER machine has 32
/// GPRs and 32 FPRs; Fig 9b shows injections uniformly distributed over
/// them).
pub const NUM_REGS: u8 = 32;

/// Width in bits of a register (64-bit GPRs and FPRs, per Fig 9's
/// "uniformly distributed among 64 bits within the registers").
pub const REG_BITS: u8 = 64;

/// Number of FPRs holding *live* values at a random execution point.
///
/// The VS application is integer-dominated: floating point "is only used
/// when some manipulation of the pixels is required" and immediately
/// funnels back into 8-bit storage (§VI-A). At any random cycle the FP
/// working set is a couple of registers out of 32 — a random FPR flip
/// overwhelmingly lands in a dead (never-read-again) register and masks.
/// This constant is that working-set size: an armed FPR fault whose
/// virtual register id is `>= FPR_LIVE_REGS` hits dead state and leaves
/// the value stream untouched. GPRs get no such model because compiled
/// loop code keeps most of the integer file live.
pub const FPR_LIVE_REGS: u8 = 2;

/// A single-bit-flip fault to arm for one run: flip `bit` of the value
/// flowing through the `tap_index`-th eligible dynamic tap of `class`.
///
/// The dynamic tap index is the SWiFI analogue of the paper's "random
/// execution cycle": taps are visited in a deterministic order, so a
/// uniformly random index is a uniformly random point in the execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Register class whose taps are eligible.
    pub class: RegClass,
    /// Zero-based index into the run's sequence of eligible taps.
    pub tap_index: u64,
    /// Bit position to flip, `0..64`.
    pub bit: u8,
    /// `(function, op-class)` site group the fault is confined to
    /// (GPR only; see [`crate::pruning`]). When set, `tap_index`
    /// indexes that group's eligible taps instead of all of them.
    pub group: Option<(FuncId, OpClass)>,
}

impl FaultSpec {
    /// Create a spec, validating the bit position.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 64`.
    pub fn new(class: RegClass, tap_index: u64, bit: u8) -> Self {
        assert!(bit < REG_BITS, "bit position {bit} out of range");
        FaultSpec {
            class,
            tap_index,
            bit,
            group: None,
        }
    }

    /// The virtual register id this fault lands in.
    ///
    /// AFI picks a random register and a random cycle; our taps are visited
    /// in deterministic order, so we derive the register from the tap index
    /// with a uniform hash. Fig 9b's uniform register histogram follows by
    /// construction, matching the paper's observed coverage.
    pub fn register(&self) -> u8 {
        (mix64(self.tap_index ^ 0xda7a_5eed) % NUM_REGS as u64) as u8
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} r{} bit {} @ tap {}",
            self.class,
            self.register(),
            self.bit,
            self.tap_index
        )
    }
}

/// Record of a fault that actually fired during a run: where it landed and
/// what it did to the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FiredFault {
    /// Function executing when the fault fired.
    pub func: FuncId,
    /// Operation class of the corrupted value (address faults crash far
    /// more often than data faults).
    pub op: OpClass,
    /// Virtual register id, `0..NUM_REGS`.
    pub reg: u8,
    /// Flipped bit position.
    pub bit: u8,
    /// Raw bits of the value before the flip.
    pub before: u64,
    /// Raw bits after the flip.
    pub after: u64,
}

impl fmt::Display for FiredFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fired in {} ({}) r{} bit {}: {:#x} -> {:#x}",
            self.func, self.op, self.reg, self.bit, self.before, self.after
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_register_is_stable_and_in_range() {
        for i in 0..1000u64 {
            let s = FaultSpec::new(RegClass::Gpr, i, 3);
            assert!(s.register() < NUM_REGS);
            assert_eq!(s.register(), FaultSpec::new(RegClass::Fpr, i, 9).register());
        }
    }

    #[test]
    fn spec_registers_cover_the_file_roughly_uniformly() {
        let mut hist = [0u32; NUM_REGS as usize];
        let n = 32_000u64;
        for i in 0..n {
            hist[FaultSpec::new(RegClass::Gpr, i, 0).register() as usize] += 1;
        }
        let expected = n as f64 / NUM_REGS as f64;
        for (r, &c) in hist.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(
                dev < 0.15,
                "register {r} count {c} deviates {dev:.2} from uniform"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn spec_rejects_out_of_range_bit() {
        let _ = FaultSpec::new(RegClass::Gpr, 0, 64);
    }

    #[test]
    fn displays_are_informative() {
        let s = FaultSpec::new(RegClass::Gpr, 42, 7);
        let txt = s.to_string();
        assert!(txt.contains("GPR") && txt.contains("bit 7") && txt.contains("42"));
    }
}
