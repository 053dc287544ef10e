//! Deterministic work counters for one fine-tuning epoch: the bytes it
//! allocates and the most it holds live at once, counted by a global
//! allocator.
//!
//! The peak matters more than the total. When a batch frees its tables,
//! the allocator hands the top of the heap back to the kernel, and the
//! next batch faults its whole working set back in: the page faults per
//! epoch track the batch's peak live heap, not the bytes it allocates.
//! The faults are printed from `/proc/self/stat` beside the two counts,
//! but not gated — they depend on the allocator's trim threshold and on
//! what else shares the process. The two counts are per thread
//! (`alloc_counter`), and with `n_threads: 1` every shard runs on the
//! calling thread.

mod alloc_counter;

use alloc_counter::{allocated, peak_above, reset_peak};
use gb_core::{GbgcnConfig, GbgcnModel, ParallelTrainConfig};
use gb_data::split::leave_one_out;
use gb_data::synth::{generate, SynthConfig};

/// Minor page faults of the whole process so far (`minflt`, the tenth
/// field of `/proc/self/stat`), or `None` where that file is not readable.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name in field 2 may hold spaces; fields 3.. follow its
    // closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(7)?.parse().ok()
}

/// The bound on one measured epoch's allocation: its count (286 153 560
/// bytes; 357 155 400 while the backward copied its cotangents and every
/// shard's L2 gradient was a full table), rounded up to 4 KiB. A change
/// that allocates less lowers it.
const EPOCH_BYTES_BOUND: u64 = 286_154_752;

/// The bound on the most bytes the measured epoch holds live above what
/// was live at its start: its count (8 699 456 bytes; 21 366 700 while
/// the shared tape held every forward table until the batch ended),
/// rounded up to 4 KiB. A change that holds less lowers it.
const EPOCH_PEAK_BOUND: u64 = 8_699_904;

#[test]
fn a_fine_tune_epoch_allocates_and_peaks_within_its_bounds() {
    let data = generate(&SynthConfig::beibei_like().with_seed(47));
    let split = leave_one_out(&data, 47);
    let cfg = GbgcnConfig {
        pretrain_epochs: 1,
        finetune_epochs: 1,
        seed: 47,
        ..GbgcnConfig::default()
    };
    let par = ParallelTrainConfig {
        n_shards: 4,
        n_threads: 1,
        refresh_every: 0,
    };
    let mut model = GbgcnModel::new(cfg, &split.train);
    model.fit_parallel(&split.train, &par, None);
    let batches = split
        .train
        .behaviors()
        .len()
        .div_ceil(model.config().batch_size) as u64;

    let faults_before = minor_faults();
    let before = allocated();
    let live_before = reset_peak();
    let forwards = model.propagation_forward_count();
    model.measure_epoch_secs_parallel(1, &par);
    let bytes = allocated() - before;
    let peak = peak_above(live_before);
    let faults = faults_before.zip(minor_faults()).map(|(a, b)| b - a);
    assert_eq!(
        model.propagation_forward_count() - forwards,
        batches,
        "a measured epoch runs one propagation per batch"
    );
    eprintln!(
        "one epoch of {batches} batches allocates {bytes} bytes ({} per batch) \
         and peaks {peak} bytes above its entry heap; {} minor faults",
        bytes / batches,
        faults.map_or_else(|| "no count of".to_string(), |f| f.to_string()),
    );
    assert!(
        bytes <= EPOCH_BYTES_BOUND,
        "one epoch allocates {bytes} bytes, above its bound of {EPOCH_BYTES_BOUND}"
    );
    assert!(
        peak <= EPOCH_PEAK_BOUND,
        "one epoch peaks {peak} bytes above its entry heap, above its bound of \
         {EPOCH_PEAK_BOUND}"
    );
}
