//! Deterministic work counters for the streaming tick: the bytes one
//! freshness-recipe tick allocates and the most it holds live at once,
//! counted by a global allocator.
//!
//! The counts are per thread (`alloc_counter`), and with `n_threads: 1`
//! every shard runs on the calling thread. The measured tick follows a
//! warm-up tick, so it takes the forward the warm-up's `finalize`
//! retained — as every tick after the first does in the `freshness`
//! benchmark — and its count covers the backward through that forward,
//! the shard tapes, the step and the next `finalize`'s forward.

mod alloc_counter;

use alloc_counter::{allocated, peak_above, reset_peak};
use gb_core::{GbgcnConfig, GbgcnModel, ParallelTrainConfig};
use gb_data::synth::{generate, SynthConfig};

/// Deals per tick and ticks held back from the history, as in the
/// `freshness` benchmark.
const TICK_DEALS: usize = 32;
const HELD_BACK: usize = 150;

/// The bound on one tick's allocation: its count (19 609 460 bytes;
/// 21 982 664 while the backward still copied its cotangents, and
/// 29 232 848 while the propagation still copied its levels into the
/// exported tables), rounded up to 4 KiB. A change that allocates less
/// lowers it.
const TICK_BYTES_BOUND: u64 = 19_611_648;

/// The bound on the most bytes one tick holds live above what was live at
/// its start: its count (1 319 492 bytes; 5 222 720 while `finalize`
/// recorded its forward beside the previous one's tables), rounded up to
/// 4 KiB. A change that holds less lowers it.
const TICK_PEAK_BOUND: u64 = 1_323_008;

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
    let live_before = reset_peak();
    let forwards = model.propagation_forward_count();
    model.fit_parallel(&ticks[1], &par, None);
    let bytes = allocated() - before;
    let peak = peak_above(live_before);
    assert_eq!(
        model.propagation_forward_count() - forwards,
        1,
        "the measured tick takes the retained forward and runs finalize's"
    );
    eprintln!("one tick allocates {bytes} bytes and peaks {peak} bytes above its entry heap");
    assert!(
        bytes <= TICK_BYTES_BOUND,
        "one tick allocates {bytes} bytes, above its bound of {TICK_BYTES_BOUND}"
    );
    assert!(
        peak <= TICK_PEAK_BOUND,
        "one tick peaks {peak} bytes above its entry heap, above its bound of {TICK_PEAK_BOUND}"
    );
}
