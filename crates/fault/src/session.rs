//! Instrumentation sessions: profiling and injection runs.
//!
//! A *session* brackets one execution of a workload on the current thread.
//! [`begin_profile`] starts a counting-only session (the golden run);
//! [`begin_injection`] additionally arms one [`FaultSpec`]. The returned
//! guard resets the thread's instrumentation to the off state when
//! dropped, so sessions cannot leak into subsequent work.

use crate::func::{FuncId, FuncMask, OpClass, NUM_CLASSES, NUM_FUNCS};
use crate::spec::{FaultSpec, FiredFault, RegClass};
use crate::state::{self, Mode, NUM_GROUPS};

/// Instruction counts gathered during a session, consumed by the
/// performance/energy model and the Fig 8 execution profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstrCounts {
    /// Total counted instructions.
    pub total: u64,
    /// Instructions per [`crate::OpClass`] (indexed by `OpClass::index`).
    pub by_class: [u64; NUM_CLASSES],
    /// Instructions per [`crate::FuncId`] (indexed by `FuncId::index`).
    pub by_func: [u64; NUM_FUNCS],
}

/// Index of a `(function, op-class)` site group in
/// [`TapSnapshot::gpr_groups`].
pub fn group_index(func: FuncId, op: OpClass) -> usize {
    func.index() * NUM_CLASSES + op.index()
}

/// Snapshot of a session's tap and instruction counters. Taken at the
/// end of the golden run it is the campaign's profile: the population
/// of candidate error sites. Taken mid-run, at a workload-defined
/// boundary (a frame, for the VS pipeline) during golden profiling, it
/// summarizes the golden prefix.
///
/// Paired with the workload's own state at the same boundary it forms a
/// *checkpoint*: because an injected run is bit-identical to the golden
/// run until its armed fault fires, any fault whose tap index lies at or
/// beyond the snapshot's eligible count can start from the checkpoint
/// instead of re-executing the golden prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapSnapshot {
    /// Total integer taps observed up to the boundary.
    pub gpr_taps: u64,
    /// Total float taps observed up to the boundary.
    pub fpr_taps: u64,
    /// Eligible integer taps consumed by the prefix.
    pub eligible_gpr: u64,
    /// Eligible float taps consumed by the prefix.
    pub eligible_fpr: u64,
    /// Eligible GPR taps per `(function, op-class)` site group.
    pub gpr_groups: [u64; NUM_FUNCS * NUM_CLASSES],
    /// Instruction accounting of the prefix (drives the hang budget).
    pub instr: InstrCounts,
}

impl TapSnapshot {
    /// Eligible taps of `class` counted up to the snapshot (for a golden
    /// profile, the candidate error sites).
    pub fn eligible(&self, class: RegClass) -> u64 {
        match class {
            RegClass::Gpr => self.eligible_gpr,
            RegClass::Fpr => self.eligible_fpr,
        }
    }

    /// Taps of `spec`'s index space counted up to the snapshot: its
    /// group's eligible taps for a group-confined GPR spec, its class's
    /// eligible taps otherwise. A run armed with `spec` may resume after
    /// this prefix only if `spec.tap_index` is at least this count.
    pub fn consumed(&self, spec: &FaultSpec) -> u64 {
        match (spec.class, spec.group) {
            (RegClass::Gpr, Some((func, op))) => self.gpr_groups[group_index(func, op)],
            (class, _) => self.eligible(class),
        }
    }
}

/// Whether an instrumentation session (profile or injection) is active
/// on the current thread.
///
/// Kernels whose vector paths cannot reproduce the per-pixel tap stream
/// (e.g. the SIMD warp) consult this to fall back to their instrumented
/// implementation inside sessions, keeping campaign records identical
/// while the uninstrumented path serves plain summarization traffic.
pub fn active() -> bool {
    state::with(|s| s.mode.get() != Mode::Off)
}

/// Snapshot the current thread's session counters, mid-run or at its
/// end (any mode); all zero outside a session.
pub fn snapshot() -> TapSnapshot {
    state::with(|s| {
        let mut by_class = [0u64; NUM_CLASSES];
        for (dst, src) in by_class.iter_mut().zip(&s.by_class) {
            *dst = src.get();
        }
        let mut by_func = [0u64; NUM_FUNCS];
        for (dst, src) in by_func.iter_mut().zip(&s.by_func) {
            *dst = src.get();
        }
        let mut gpr_groups = [0u64; NUM_GROUPS];
        for (dst, src) in gpr_groups.iter_mut().zip(&s.gpr_groups) {
            *dst = src.get();
        }
        TapSnapshot {
            gpr_taps: s.gpr_taps.get(),
            fpr_taps: s.fpr_taps.get(),
            eligible_gpr: s.elig_gpr.get(),
            eligible_fpr: s.elig_fpr.get(),
            gpr_groups,
            instr: InstrCounts {
                total: s.instr_total.get(),
                by_class,
                by_func,
            },
        }
    })
}

/// The fault the current injection session fired, if it was reached.
pub fn fired() -> Option<FiredFault> {
    state::with(|s| s.fired.get())
}

/// Pre-advance the current session's counters to `base`, as if the
/// golden prefix they summarize had just executed.
fn apply_snapshot(base: &TapSnapshot) {
    state::with(|s| {
        s.gpr_taps.set(base.gpr_taps);
        s.fpr_taps.set(base.fpr_taps);
        s.elig_gpr.set(base.eligible_gpr);
        s.elig_fpr.set(base.eligible_fpr);
        for (cell, v) in s.gpr_groups.iter().zip(&base.gpr_groups) {
            cell.set(*v);
        }
        s.instr_total.set(base.instr.total);
        for (cell, v) in s.by_class.iter().zip(&base.instr.by_class) {
            cell.set(*v);
        }
        for (cell, v) in s.by_func.iter().zip(&base.instr.by_func) {
            cell.set(*v);
        }
    });
}

/// RAII guard for an instrumentation session. Dropping it turns
/// instrumentation off and clears all session state on this thread.
#[derive(Debug)]
pub struct SessionGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

fn begin(mode: Mode) {
    state::with(|s| {
        assert_eq!(
            s.mode.get(),
            Mode::Off,
            "instrumentation session already active on this thread"
        );
        s.reset_session();
        s.mode.set(mode);
    });
}

/// Begin a counting-only (golden) session on this thread.
///
/// # Panics
///
/// Panics if a session is already active on this thread.
#[must_use = "the session ends when the guard is dropped"]
pub fn begin_profile() -> SessionGuard {
    begin(Mode::Profile);
    SessionGuard {
        _not_send: std::marker::PhantomData,
    }
}

/// Begin an injection session with `spec` armed, faults confined to
/// `mask` (and to `spec.group`, when set), and the hang monitor set to
/// `budget` instructions.
///
/// # Panics
///
/// Panics if a session is already active on this thread.
#[must_use = "the session ends when the guard is dropped"]
pub fn begin_injection(spec: FaultSpec, mask: FuncMask, budget: u64) -> SessionGuard {
    begin(Mode::Inject);
    state::with(|s| {
        s.mask_bits.set(mask.bits());
        s.budget.set(budget);
        s.armed.set(true);
        s.armed_is_gpr.set(spec.class == RegClass::Gpr);
        s.armed_tap.set(spec.tap_index);
        s.armed_bit.set(spec.bit);
        s.armed_reg.set(spec.register());
        if let Some((func, op)) = spec.group {
            s.armed_group.set(group_index(func, op) as u16);
        }
    });
    SessionGuard {
        _not_send: std::marker::PhantomData,
    }
}

/// Begin a counting-only session whose counters start pre-advanced to
/// `base`, as if the golden prefix it summarizes had just run. Used to
/// validate checkpoint-resumed replays against from-scratch runs.
///
/// # Panics
///
/// Panics if a session is already active on this thread.
#[must_use = "the session ends when the guard is dropped"]
pub fn begin_profile_at(base: &TapSnapshot) -> SessionGuard {
    let guard = begin_profile();
    apply_snapshot(base);
    guard
}

/// Begin an injection session that resumes after a golden prefix: the
/// tap and instruction counters start at `base`, so `spec.tap_index`
/// keeps its meaning in the whole-run eligible-tap stream (or, for a
/// group-confined spec, in its group's stream).
///
/// # Panics
///
/// Panics if a session is already active on this thread, or if the armed
/// fault's tap index lies inside the skipped prefix
/// ([`TapSnapshot::consumed`]; the fault would silently never fire).
#[must_use = "the session ends when the guard is dropped"]
pub fn begin_injection_at(
    spec: FaultSpec,
    mask: FuncMask,
    budget: u64,
    base: &TapSnapshot,
) -> SessionGuard {
    assert!(
        spec.tap_index >= base.consumed(&spec),
        "fault tap {} lies inside the skipped prefix ({} {} taps of its index space)",
        spec.tap_index,
        base.consumed(&spec),
        spec.class,
    );
    let guard = begin_injection(spec, mask, budget);
    apply_snapshot(base);
    guard
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        state::with(|s| {
            s.mode.set(Mode::Off);
            s.reset_session();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tap;
    use crate::{FuncId, OpClass};

    #[test]
    fn guard_drop_resets_everything() {
        {
            let _g = begin_profile();
            let _ = tap::gpr(1);
            assert_eq!(snapshot().gpr_taps, 1);
        }
        assert_eq!(snapshot().gpr_taps, 0);
        assert_eq!(tap::gpr(5), 5);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn nested_sessions_are_rejected() {
        let _a = begin_profile();
        let _b = begin_profile();
    }

    #[test]
    fn injection_session_arms_the_spec() {
        let spec = FaultSpec::new(RegClass::Gpr, 0, 2);
        let _g = begin_injection(spec, FuncMask::all(), 1_000);
        let _f = tap::scope(FuncId::Other);
        assert_eq!(tap::gpr(0), 4);
        assert_eq!(fired().unwrap().reg, spec.register());
    }

    #[test]
    fn profile_at_resumes_counters() {
        let base = {
            let _g = begin_profile();
            let _f = tap::scope(FuncId::Other);
            for i in 0..7u64 {
                let _ = tap::gpr(i);
            }
            let _ = tap::fpr(1.0);
            snapshot()
        };
        let _g = begin_profile_at(&base);
        let _f = tap::scope(FuncId::Other);
        let _ = tap::gpr(0);
        let r = snapshot();
        assert_eq!(r.gpr_taps, 8);
        assert_eq!(r.fpr_taps, 1);
        assert_eq!(r.eligible_gpr, 8);
        assert_eq!(r.instr.total, base.instr.total + 1);
    }

    #[test]
    fn injection_at_fires_at_the_global_index() {
        let base = {
            let _g = begin_profile();
            let _f = tap::scope(FuncId::Other);
            for i in 0..5u64 {
                let _ = tap::gpr(i);
            }
            snapshot()
        };
        // Tap index 6 = the second tap after the 5-tap prefix.
        let spec = FaultSpec::new(RegClass::Gpr, 6, 0);
        let _g = begin_injection_at(spec, FuncMask::all(), u64::MAX, &base);
        let _f = tap::scope(FuncId::Other);
        assert_eq!(tap::gpr(8), 8, "tap 5 must pass through");
        assert_eq!(tap::gpr(8), 9, "tap 6 must corrupt bit 0");
        assert!(fired().is_some());
    }

    #[test]
    #[should_panic(expected = "inside the skipped prefix")]
    fn injection_at_rejects_prefix_faults() {
        let base = TapSnapshot {
            gpr_taps: 10,
            fpr_taps: 0,
            eligible_gpr: 10,
            eligible_fpr: 0,
            gpr_groups: [0; NUM_FUNCS * NUM_CLASSES],
            instr: InstrCounts::default(),
        };
        let spec = FaultSpec::new(RegClass::Gpr, 3, 0);
        let _g = begin_injection_at(spec, FuncMask::all(), u64::MAX, &base);
    }

    /// A prefix of 4 data taps and 3 address taps, all in `Other`.
    fn mixed_prefix() -> TapSnapshot {
        let _g = begin_profile();
        let _f = tap::scope(FuncId::Other);
        for i in 0..4u64 {
            let _ = tap::gpr(i);
        }
        for i in 0..3 {
            let _ = tap::addr(i);
        }
        snapshot()
    }

    #[test]
    fn injection_at_counts_grouped_taps_in_their_group() {
        let base = mixed_prefix();
        assert_eq!(base.eligible_gpr, 7);
        // Address tap 3 is the first address tap after the prefix, even
        // though the class has already counted 7 eligible taps.
        let spec = FaultSpec {
            group: Some((FuncId::Other, OpClass::Addr)),
            ..FaultSpec::new(RegClass::Gpr, 3, 0)
        };
        assert_eq!(base.consumed(&spec), 3);
        let _g = begin_injection_at(spec, FuncMask::all(), u64::MAX, &base);
        let _f = tap::scope(FuncId::Other);
        assert_eq!(tap::gpr(8), 8, "data taps are outside the group");
        assert_eq!(tap::addr(8), 9, "the group's tap 3 must corrupt bit 0");
        assert!(fired().is_some());
    }

    #[test]
    #[should_panic(expected = "inside the skipped prefix")]
    fn injection_at_rejects_grouped_prefix_faults() {
        let base = mixed_prefix();
        let spec = FaultSpec {
            group: Some((FuncId::Other, OpClass::Addr)),
            ..FaultSpec::new(RegClass::Gpr, 2, 0)
        };
        let _g = begin_injection_at(spec, FuncMask::all(), u64::MAX, &base);
    }

    #[test]
    fn snapshot_counts_eligible_separately() {
        let spec = FaultSpec::new(RegClass::Fpr, 100, 1);
        let mask = FuncMask::only(&[FuncId::Quality]);
        let _g = begin_injection(spec, mask, u64::MAX);
        {
            let _f = tap::scope(FuncId::Decode);
            let _ = tap::fpr(1.0);
        }
        {
            let _f = tap::scope(FuncId::Quality);
            let _ = tap::fpr(1.0);
        }
        let r = snapshot();
        assert_eq!(r.fpr_taps, 2);
        assert_eq!(r.eligible_fpr, 1);
    }
}
