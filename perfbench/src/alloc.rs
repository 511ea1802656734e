//! The benchmark's global allocator: the system allocator, switched to
//! `telemetry::CountingAlloc` for the traced pass only.
//!
//! A binary has one global allocator, but the untraced timings must not
//! pay for allocation counting while the traced pass needs it for the
//! per-layer `alloc.bytes.*` figures. One relaxed flag load per
//! allocation is the whole cost of the switch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

static COUNTER: telemetry::CountingAlloc = telemetry::CountingAlloc::new();

// A plain mode switch: it publishes no other data, so `Relaxed` is
// enough. Both allocators free through `System`, so a block allocated
// in one mode may be freed in the other.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Turns allocation counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// The allocator mode in effect, for the result stamp.
pub fn mode() -> &'static str {
    if COUNTING.load(Ordering::Relaxed) {
        "counting"
    } else {
        "system"
    }
}

/// Main-thread bytes allocated since the thread started (zero while
/// counting is off). Worker threads count on their own tallies, so
/// deltas of this miss what engine workers allocate.
pub fn main_thread_bytes() -> u64 {
    telemetry::alloc_counters().0
}

pub struct SwitchAlloc;

// SAFETY: every call delegates to `System` or to `CountingAlloc`, which
// itself delegates to `System`; both free with `System.dealloc`, so any
// block is released by the allocator family that produced it.
unsafe impl GlobalAlloc for SwitchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            COUNTER.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            COUNTER.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            COUNTER.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }
}
