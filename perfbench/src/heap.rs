//! A counting global allocator: the benchmark process's peak live heap.
//!
//! Peak RSS (`VmHWM`) also counts freed memory the C allocator keeps
//! mapped, and on a process of a few MiB that swings by whole
//! allocations between identical runs. The peak of live heap bytes is
//! what the program actually held, and repeats exactly on a
//! single-threaded, deterministic run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator with live-byte accounting.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    // ordering: Relaxed — statistics counters; they publish no other data.
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    // ordering: Relaxed — see `grow`.
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the
// memory they count.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations on `layout` pass through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`, plus the caller's `new_size` bounds.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most heap the process has held at once, in MiB.
pub fn peak_mb() -> f64 {
    // ordering: Relaxed — see `grow`.
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
