//! Deterministic work counter for the streaming tick: the bytes one
//! freshness-recipe tick allocates, counted by a global allocator.
//!
//! The count is kept per thread, because `n_threads: 1` runs every shard
//! on the calling thread and the test harness may run other tests beside
//! this one. The measured tick follows a warm-up tick, so it takes the
//! forward the warm-up's `finalize` retained — as every tick after the
//! first does in the `freshness` benchmark — and its count covers the
//! backward through that forward, the shard tapes, the step and the next
//! `finalize`'s forward.

use gb_core::{GbgcnConfig, GbgcnModel, ParallelTrainConfig};
use gb_data::synth::{generate, SynthConfig};
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

/// Deals per tick and ticks held back from the history, as in the
/// `freshness` benchmark.
const TICK_DEALS: usize = 32;
const HELD_BACK: usize = 150;

/// The bound on one tick's allocation: its count (21 982 664 bytes, or
/// 29 232 848 while the propagation still copied its levels into the
/// exported tables), rounded up to 4 KiB. A change that allocates less
/// lowers it.
const TICK_BYTES_BOUND: u64 = 21_983_232;

#[test]
fn a_tick_allocates_within_its_bound() {
    let d = generate(&SynthConfig::beibei_like().with_seed(47));
    let n_hist = d.behaviors().len() - HELD_BACK * TICK_DEALS;
    let hist = d.with_behaviors(d.behaviors()[..n_hist].to_vec());
    let ticks: Vec<_> = (0..2)
        .map(|k| {
            let lo = n_hist + k * TICK_DEALS;
            hist.with_behaviors(d.behaviors()[lo..lo + TICK_DEALS].to_vec())
        })
        .collect();
    let cfg = GbgcnConfig {
        pretrain_epochs: 0,
        finetune_epochs: 1,
        batch_size: TICK_DEALS,
        seed: 47,
        ..GbgcnConfig::default()
    };
    let par = ParallelTrainConfig {
        n_shards: 4,
        n_threads: 1,
        refresh_every: 0,
    };
    let mut model = GbgcnModel::new(cfg, &hist);
    model.fit_parallel(&ticks[0], &par, None);

    let before = allocated();
    let forwards = model.propagation_forward_count();
    model.fit_parallel(&ticks[1], &par, None);
    let bytes = allocated() - before;
    assert_eq!(
        model.propagation_forward_count() - forwards,
        1,
        "the measured tick takes the retained forward and runs finalize's"
    );
    eprintln!("one tick allocates {bytes} bytes");
    assert!(
        bytes <= TICK_BYTES_BOUND,
        "one tick allocates {bytes} bytes, above its bound of {TICK_BYTES_BOUND}"
    );
}
