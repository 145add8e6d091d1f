//! Allocation counting for the bench binaries.
//!
//! A binary that measures heap traffic installs [`CountingAlloc`] in one
//! line:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: vs_bench::alloc::CountingAlloc = vs_bench::alloc::CountingAlloc;
//! ```
//!
//! Every `alloc`, `realloc` and `alloc_zeroed` then bumps a process-wide
//! counter, read with [`calls`]. The library crates stay on the system
//! allocator. Measurement windows run on an otherwise quiescent process,
//! so deltas attribute to the code under test. This module holds the
//! crate's only `unsafe` code.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with a call counter in front.
pub struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller's contract for
        // `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc_zeroed` is passed
        // through.
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// Allocation calls so far in this process; stays 0 unless the binary
/// installed [`CountingAlloc`].
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}
