//! A counting global allocator: the source of the `alloc.*` per-layer
//! counters and of the `peak_heap_mib` end-to-end metric.
//!
//! Every counter is a statistic that publishes no other data, so all
//! atomics use `Relaxed` ordering.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Forwards every request to [`System`] and counts it.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: each method passes the caller's pointer and layout to `System`
// unchanged and returns its result unchanged, so every `GlobalAlloc`
// contract the caller upholds is the one `System` relies on. The
// bookkeeping touches only static atomics and never allocates, so it
// cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block from this allocator and `new_size` is valid for `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

/// Allocation totals since the process started.
#[derive(Debug, Clone, Copy)]
pub struct Totals {
    /// Allocation calls (a growing `realloc` counts as one).
    pub count: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

/// The running totals.
pub fn totals() -> Totals {
    Totals {
        count: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Restarts peak tracking from the heap currently live.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The largest live heap seen since the last [`reset_peak`], in bytes.
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}
