//! Tap instrumentation: the points where architectural values become
//! corruptible.
//!
//! The paper's AFI flips a bit of a random GPR or FPR at a random cycle.
//! Here, pipeline code routes its architecturally meaningful values through
//! these inlined functions; each call is one dynamic "register write".
//! During profiling the calls are counted; during an injection run exactly
//! one of them — chosen uniformly at random from a profiled run's count —
//! returns its value with one bit flipped.
//!
//! Three integer flavours model how GPRs are used on the paper's POWER
//! machine (and explain its crash-dominated GPR profile):
//!
//! * [`addr`] — index/address computation. A flipped high bit typically
//!   drives a checked access out of bounds → simulated segfault.
//! * [`ctl`] — loop bounds and trip counts. Corruption can skip work
//!   (masked/SDC) or inflate a loop until the hang budget trips.
//! * [`gpr`] — data values. Corruption usually yields SDCs
//!   or is masked by later saturation.
//!
//! [`fpr`] taps `f64` values; the pipeline's float results funnel through a
//! saturating `f64 → u8` conversion, which is why the paper measures 99.7%
//! masking for FPR faults.

use crate::error::SimError;
use crate::func::{FuncId, OpClass};
use crate::spec::FiredFault;
use crate::state::{self, Mode};

#[inline]
fn int_tap(v: u64, op: OpClass) -> u64 {
    state::with(|s| {
        let mode = s.mode.get();
        if mode == Mode::Off {
            return v;
        }
        s.gpr_taps.set(s.gpr_taps.get() + 1);
        s.instr_total.set(s.instr_total.get() + 1);
        s.by_class[op.index()].set(s.by_class[op.index()].get() + 1);
        let func_idx = s.func.get() as usize;
        s.by_func[func_idx].set(s.by_func[func_idx].get() + 1);
        if s.mask_bits.get() & (1u64 << func_idx) == 0 {
            return v;
        }
        let elig = s.elig_gpr.get();
        s.elig_gpr.set(elig + 1);
        let group = func_idx * crate::func::NUM_CLASSES + op.index();
        let group_count = s.gpr_groups[group].get();
        s.gpr_groups[group].set(group_count + 1);
        if mode == Mode::Inject && s.armed.get() && s.armed_is_gpr.get() {
            // Ungrouped faults index the global eligible-tap stream;
            // group-confined faults (site pruning) index their group's.
            let armed_group = s.armed_group.get();
            let hit = if armed_group == u16::MAX {
                elig == s.armed_tap.get()
            } else {
                armed_group as usize == group && group_count == s.armed_tap.get()
            };
            if hit {
                let bit = s.armed_bit.get();
                let corrupted = v ^ (1u64 << bit);
                s.armed.set(false);
                s.fired.set(Some(FiredFault {
                    func: FuncId::ALL[func_idx],
                    op,
                    reg: s.armed_reg.get(),
                    bit,
                    before: v,
                    after: corrupted,
                }));
                return corrupted;
            }
        }
        v
    })
}

/// Tap an integer data value (GPR model, ALU class).
#[inline]
pub fn gpr(v: u64) -> u64 {
    int_tap(v, OpClass::IntAlu)
}

/// Tap an index/address computation (GPR model, address class).
///
/// Callers must treat the returned index as untrusted: use checked
/// accessors and convert failures into [`SimError::Segfault`].
#[inline]
pub fn addr(i: usize) -> usize {
    int_tap(i as u64, OpClass::Addr) as usize
}

/// Tap a control value — loop bound, trip count or branch input (GPR
/// model, control class).
///
/// Callers must bound loops driven by the returned value with [`work`]
/// calls so runaway trip counts are caught by the hang monitor.
#[inline]
pub fn ctl(v: usize) -> usize {
    int_tap(v as u64, OpClass::Control) as usize
}

/// Tap a floating-point value (FPR model).
#[inline]
pub fn fpr(v: f64) -> f64 {
    state::with(|s| {
        let mode = s.mode.get();
        if mode == Mode::Off {
            return v;
        }
        s.fpr_taps.set(s.fpr_taps.get() + 1);
        s.instr_total.set(s.instr_total.get() + 1);
        let cls = OpClass::Float.index();
        s.by_class[cls].set(s.by_class[cls].get() + 1);
        let func_idx = s.func.get() as usize;
        s.by_func[func_idx].set(s.by_func[func_idx].get() + 1);
        if s.mask_bits.get() & (1u64 << func_idx) == 0 {
            return v;
        }
        let elig = s.elig_fpr.get();
        s.elig_fpr.set(elig + 1);
        if mode == Mode::Inject
            && s.armed.get()
            && !s.armed_is_gpr.get()
            && elig == s.armed_tap.get()
        {
            let bit = s.armed_bit.get();
            let reg = s.armed_reg.get();
            let before = v.to_bits();
            let after = before ^ (1u64 << bit);
            s.armed.set(false);
            s.fired.set(Some(FiredFault {
                func: FuncId::ALL[func_idx],
                op: OpClass::Float,
                reg,
                bit,
                before,
                after,
            }));
            // FPR liveness model (see `spec::FPR_LIVE_REGS`): a flip in a
            // register outside the tiny FP working set corrupts dead
            // state — recorded as fired, but the value stream is intact.
            if reg < crate::spec::FPR_LIVE_REGS {
                return f64::from_bits(after);
            }
            return v;
        }
        v
    })
}

/// Account `n` instructions of class `op` to the current function and
/// check the hang budget.
///
/// Instrumented loops call this once per batch (row, candidate, RANSAC
/// iteration, ...). It is the only place the hang monitor runs, so any
/// loop whose trip count derives from a [`ctl`] tap must call it.
///
/// # Errors
///
/// Returns [`SimError::Hang`] when an injection run has exceeded its
/// instruction budget.
#[inline]
pub fn work(op: OpClass, n: u64) -> Result<(), SimError> {
    state::with(|s| {
        if s.mode.get() == Mode::Off {
            return Ok(());
        }
        let total = s.instr_total.get() + n;
        s.instr_total.set(total);
        s.by_class[op.index()].set(s.by_class[op.index()].get() + n);
        let func_idx = s.func.get() as usize;
        s.by_func[func_idx].set(s.by_func[func_idx].get() + n);
        if total > s.budget.get() {
            return Err(SimError::Hang);
        }
        Ok(())
    })
}

/// RAII guard that attributes taps and instruction counts to a function
/// for its lifetime, restoring the previous attribution on drop.
#[derive(Debug)]
pub struct FuncScope {
    prev: u8,
}

/// Enter `func` for instrumentation attribution until the guard drops.
#[inline]
pub fn scope(func: FuncId) -> FuncScope {
    let prev = state::with(|s| {
        let prev = s.func.get();
        s.func.set(func as u8);
        prev
    });
    FuncScope { prev }
}

/// The function currently charged for taps on this thread.
pub fn current_func() -> FuncId {
    state::with(|s| FuncId::ALL[s.func.get() as usize])
}

impl Drop for FuncScope {
    fn drop(&mut self) {
        let prev = self.prev;
        state::with(|s| s.func.set(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session;
    use crate::spec::{FaultSpec, RegClass};

    #[test]
    fn taps_are_pass_through_when_off() {
        assert_eq!(gpr(42), 42);
        assert_eq!(addr(7), 7);
        assert_eq!(ctl(3), 3);
        assert_eq!(fpr(1.5), 1.5);
        assert!(work(OpClass::Mem, 1000).is_ok());
    }

    #[test]
    fn profile_counts_taps_and_instructions() {
        let _g = session::begin_profile();
        let _f = scope(FuncId::FastDetect);
        for i in 0..10u64 {
            assert_eq!(gpr(i), i);
        }
        let _ = fpr(2.0);
        work(OpClass::Mem, 5).unwrap();
        let r = session::snapshot();
        assert_eq!(r.gpr_taps, 10);
        assert_eq!(r.fpr_taps, 1);
        assert_eq!(r.instr.total, 10 + 1 + 5);
        assert_eq!(r.instr.by_func[FuncId::FastDetect.index()], 16);
        assert!(session::fired().is_none());
    }

    #[test]
    fn armed_gpr_fault_fires_exactly_once_at_its_tap() {
        let spec = FaultSpec::new(RegClass::Gpr, 3, 5);
        let _g = session::begin_injection(spec, crate::FuncMask::all(), u64::MAX);
        let _f = scope(FuncId::MatchKeypoints);
        let mut outs = Vec::new();
        for _ in 0..8 {
            outs.push(gpr(0));
        }
        let corrupted: Vec<_> = outs.iter().enumerate().filter(|(_, &v)| v != 0).collect();
        assert_eq!(corrupted.len(), 1);
        assert_eq!(corrupted[0].0, 3);
        assert_eq!(*corrupted[0].1, 1u64 << 5);
        let fired = session::fired().expect("fault must fire");
        assert_eq!(fired.func, FuncId::MatchKeypoints);
        assert_eq!(fired.bit, 5);
        assert_eq!(fired.before, 0);
        assert_eq!(fired.after, 1 << 5);
    }

    /// Find a tap index whose derived virtual register is inside the FPR
    /// live set, so the flip actually lands in a live value.
    fn live_fpr_tap() -> u64 {
        (0u64..1000)
            .find(|&t| FaultSpec::new(RegClass::Fpr, t, 0).register() < crate::spec::FPR_LIVE_REGS)
            .expect("some tap index must map to a live register")
    }

    #[test]
    fn fpr_fault_ignores_gpr_taps_and_vice_versa() {
        let live = live_fpr_tap();
        let spec = FaultSpec::new(RegClass::Fpr, live, 63);
        let _g = session::begin_injection(spec, crate::FuncMask::all(), u64::MAX);
        for _ in 0..live {
            assert_eq!(fpr(1.0), 1.0, "fault must not fire early");
        }
        assert_eq!(gpr(1), 1); // gpr taps unaffected by an FPR fault
        let v = fpr(1.0);
        assert!(v < 0.0, "flipping the sign bit must negate: got {v}");
    }

    #[test]
    fn fpr_fault_in_dead_register_fires_without_corrupting() {
        let dead = (0u64..1000)
            .find(|&t| FaultSpec::new(RegClass::Fpr, t, 0).register() >= crate::spec::FPR_LIVE_REGS)
            .expect("some tap index must map to a dead register");
        let spec = FaultSpec::new(RegClass::Fpr, dead, 63);
        let _g = session::begin_injection(spec, crate::FuncMask::all(), u64::MAX);
        for _ in 0..=dead {
            assert_eq!(fpr(2.5), 2.5, "dead-register flip must not corrupt");
        }
        assert!(session::fired().is_some(), "the fault still fired");
    }

    #[test]
    fn func_mask_excludes_taps_from_eligibility() {
        let spec = FaultSpec::new(RegClass::Gpr, 0, 0);
        let mask = crate::FuncMask::only(&[FuncId::WarpPerspective]);
        let _g = session::begin_injection(spec, mask, u64::MAX);
        {
            let _f = scope(FuncId::FastDetect);
            assert_eq!(gpr(9), 9, "ineligible function must not be corrupted");
        }
        {
            let _f = scope(FuncId::WarpPerspective);
            assert_eq!(gpr(9), 9 ^ 1, "first eligible tap must be corrupted");
        }
        let r = session::snapshot();
        assert_eq!(r.gpr_taps, 2);
        assert_eq!(r.eligible_gpr, 1);
    }

    #[test]
    fn hang_budget_trips_work() {
        let spec = FaultSpec::new(RegClass::Gpr, u64::MAX, 0); // never fires
        let _g = session::begin_injection(spec, crate::FuncMask::all(), 100);
        assert!(work(OpClass::Control, 50).is_ok());
        assert!(work(OpClass::Control, 50).is_ok());
        assert_eq!(work(OpClass::Control, 1), Err(SimError::Hang));
    }

    #[test]
    fn scopes_nest_and_restore() {
        let _g = session::begin_profile();
        let _a = scope(FuncId::Blend);
        assert_eq!(current_func(), FuncId::Blend);
        {
            let _b = scope(FuncId::Quality);
            assert_eq!(current_func(), FuncId::Quality);
        }
        assert_eq!(current_func(), FuncId::Blend);
    }
}
