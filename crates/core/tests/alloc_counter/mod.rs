//! The counting global allocator the allocation tests share: per thread,
//! the bytes asked for, the bytes live, and the most bytes live since the
//! last [`reset_peak`].
//!
//! The counts are kept per thread, because `n_threads: 1` runs every shard
//! on the calling thread and the test harness may run other tests beside
//! the measured one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting as the module says.
struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Records `grown` more bytes live, of which `asked` were requested.
fn count(asked: usize, grown: i64) {
    // A thread's TLS may already be gone while it frees its last buffers;
    // such late requests go uncounted.
    let _ = BYTES.try_with(|b| b.set(b.get() + asked as u64));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + grown);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the ones returned; the counters
// are const-initialised `Cell`s that never allocate.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract, passed on as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as i64);
        // SAFETY: forwarded under the caller's `alloc` contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::alloc_zeroed`'s contract, passed on as is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as i64);
        // SAFETY: forwarded under the caller's `alloc_zeroed` contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::realloc`'s contract, passed on as is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded under the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: callers uphold `GlobalAlloc::dealloc`'s contract, passed on as is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as i64));
        // SAFETY: forwarded under the caller's `dealloc` contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread has allocated so far.
pub fn allocated() -> u64 {
    BYTES.with(Cell::get)
}

/// Bytes this thread holds live now; the peak restarts from here.
pub fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    live
}

/// The most bytes this thread has held live since [`reset_peak`] returned
/// `live_before`, above that.
pub fn peak_above(live_before: i64) -> u64 {
    (PEAK.with(Cell::get) - live_before) as u64
}
