//! Heap bytes the program holds, counted at the allocator.
//!
//! The process's resident set is not a steady reading here: the same
//! seed gave VmHWM between 19.8 and 25.3 MiB on `sim_big`, whatever the
//! allocator's settings, and with two callers side by side the peak
//! also depends on how their allocations happen to overlap. Live heap
//! bytes depend on the program alone. They are counted from process
//! start until `stop`, which the run calls when the first caller has
//! set up and run its checked pass, still alone; after that an
//! allocation costs one more relaxed load and nothing is written, so
//! the two callers share no cache line through this.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(true);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: usize) {
    if COUNTING.load(Relaxed) {
        let live = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrink(bytes: usize) {
    if COUNTING.load(Relaxed) {
        LIVE.fetch_sub(bytes as isize, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters beside it are plain atomics
// and never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Stop counting and return the most bytes that were live at once, in
/// MiB. Later calls return the same figure.
pub fn stop() -> f64 {
    COUNTING.store(false, Relaxed);
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}
