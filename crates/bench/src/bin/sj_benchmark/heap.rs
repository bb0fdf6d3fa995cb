//! Heap accounting for the `heap_peak_mb` metric: a pass-through global
//! allocator that tracks live and peak bytes.
//!
//! The driver reports index memory only for index techniques, so it reads
//! 0 for the batch category. Counting at the allocator sees every layer
//! alike: tables, indexes, tile replicas and forks, batch buffers and the
//! driver's pair buffer. The cost is two relaxed atomic updates per
//! allocation, and steady-state ticks allocate almost nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Highest value of `LIVE` since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

pub struct CountingAlloc;

fn grew(bytes: usize) {
    // Relaxed: both counters are statistics and publish no other data.
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract discharges each obligation; the accounting is two atomic
// updates that neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is forwarded verbatim to the system allocator.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    // SAFETY: the caller's guarantees are `System.dealloc`'s, forwarded.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with this same `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    // SAFETY: the caller's guarantees are `System.realloc`'s, forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, which is `System` plus a
        // counter, so forwarding `(ptr, layout, new_size)` is valid.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        new
    }
}

/// Restart peak tracking from the current live size, which is returned.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Peak live bytes since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}
