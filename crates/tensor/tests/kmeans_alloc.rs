//! Deterministic work counter for `kmeans`: the bytes one run at the
//! `serve_sharded_ivf` smoke shard's shape allocates, counted by a global
//! allocator.
//!
//! The count is kept per thread, because the test harness may run other
//! tests beside this one. It is a property of the code, not of the host:
//! the same on every lane type and every allocator.

use gb_tensor::kmeans::kmeans;
use gb_tensor::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes each thread asks it for.
struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A thread's TLS may already be gone while it frees its last buffers;
    // such late requests go uncounted.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the ones returned; the counter is
// a const-initialised `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract, passed on as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded under the caller's `alloc` contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::alloc_zeroed`'s contract, passed on as is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded under the caller's `alloc_zeroed` contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::realloc`'s contract, passed on as is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded under the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: callers uphold `GlobalAlloc::dealloc`'s contract, passed on as is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's `dealloc` contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread has allocated so far.
fn allocated() -> u64 {
    BYTES.with(Cell::get)
}

/// The bound on one run's allocation: its count (2 355 584 bytes, or
/// 25 743 872 while every assignment pass built its `n × k` table of dot
/// products), rounded up to 4 KiB. The row panels, one copy of the data,
/// are 2 MiB of it. A change that allocates less lowers it.
const KMEANS_BYTES_BOUND: u64 = 2_359_296;

#[test]
fn a_kmeans_run_allocates_within_its_bound() {
    let (n, d, k) = (16_384, 32, 64);
    let data = Matrix::from_fn(n, d, |r, c| ((r * 31 + c * 7) as f32 * 0.013).sin());
    let before = allocated();
    let km = kmeans(&data, k, 5, 47);
    let bytes = allocated() - before;
    assert_eq!(km.assignments.len(), n);
    eprintln!("one kmeans run allocates {bytes} bytes");
    assert!(
        bytes <= KMEANS_BYTES_BOUND,
        "one kmeans run allocates {bytes} bytes, above its bound of {KMEANS_BYTES_BOUND}"
    );
}
