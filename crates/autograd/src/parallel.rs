//! Deterministic parallel gradient accumulation.
//!
//! GBGCN's sharded trainer (`gb-core`'s `fit_parallel`) splits each
//! mini-batch into a fixed sequence of shards, computes one [`Gradients`]
//! per shard, and reduces them into a single merged gradient for one
//! optimizer step. [`ShardExecutor`] owns the scheduling side of that
//! contract:
//!
//! * the **shard decomposition** is chosen by the caller and is part of
//!   the numerical recipe — changing the shard count changes float
//!   summation order, exactly like changing the batch size does;
//! * the **thread count** is pure scheduling and must never change the
//!   result. Per-shard gradients are computed independently (each shard
//!   runs its own forward/backward tape against the same frozen parameter
//!   values), parked in a slot indexed by shard id, and merged in shard
//!   order `0, 1, …, n-1` after all threads join.
//!
//! Because float addition is deterministic for a fixed operand order, the
//! merged gradient from `t` threads is bit-identical to the one produced
//! by the serial fallback (`t = 1`) for the same shard count — `gb-core`'s
//! `parallel_determinism` property tests assert this for GBGCN.
//!
//! ## Threads
//!
//! With more than one thread and more than one shard, [`ShardExecutor::accumulate`]
//! runs under [`std::thread::scope`]: the caller's thread computes the
//! first chunk of shards and one scoped thread per remaining chunk the
//! rest. Every thread is joined before the call returns, so no thread
//! outlives it and a nested `accumulate` just spawns its own threads.

use crate::params::Gradients;
use std::panic::resume_unwind;

/// Scheduler for sharded backward passes.
///
/// `threads = 1` is a plain serial loop on the caller's thread; larger
/// thread counts spawn scoped threads per call (see the module docs). The
/// thread count is pure scheduling — for a fixed shard count every value
/// produces bit-identical results.
#[derive(Debug)]
pub struct ShardExecutor {
    threads: usize,
}

impl ShardExecutor {
    /// An executor running shard work on up to `threads` OS threads
    /// (clamped to at least one), the caller's thread included.
    /// `ShardExecutor::serial()` and `threads = 1` compute everything on
    /// the caller's thread.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The single-threaded executor.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Runs `shard_fn(0..n_shards)`, merging the per-shard `(loss,
    /// gradients)` results in ascending shard order.
    ///
    /// Returns the loss sum (reduced in shard order) and the merged
    /// gradient set. `shard_fn` must be a pure function of the shard
    /// index and the (frozen) state it captures — it may run on any
    /// thread, in any order, possibly concurrently with other shards.
    ///
    /// Zero shards return immediately (`0.0` loss, empty gradients)
    /// without spawning. A panicking shard re-raises its own payload on
    /// the caller's thread once every other thread of the call has
    /// joined.
    pub fn accumulate<F>(&self, n_params: usize, n_shards: usize, shard_fn: F) -> (f32, Gradients)
    where
        F: Fn(usize) -> (f32, Gradients) + Sync,
    {
        if n_shards == 0 {
            return (0.0, Gradients::empty(n_params));
        }
        let threads = self.threads.min(n_shards);
        let mut slots: Vec<Option<(f32, Gradients)>> = (0..n_shards).map(|_| None).collect();
        let run = |base: usize, chunk: &mut [Option<(f32, Gradients)>]| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = Some(shard_fn(base + i));
            }
        };
        if threads > 1 {
            // Contiguous static partition: chunk `t` owns shards
            // `[t*chunk, (t+1)*chunk)`. No work stealing — assignment
            // must not depend on timing. The caller computes chunk 0;
            // chunks 1.. run on scoped threads.
            let chunk = n_shards.div_ceil(threads);
            std::thread::scope(|scope| {
                let mut chunks = slots.chunks_mut(chunk);
                // invariant: `n_shards == 0` returned early above, so
                // `chunks_mut` yields at least one chunk.
                let caller_chunk = chunks.next().expect("n_shards > 0");
                let handles: Vec<_> = chunks
                    .enumerate()
                    .map(|(t, slot_chunk)| scope.spawn(move || run((t + 1) * chunk, slot_chunk)))
                    .collect();
                // A panic here unwinds into the scope, which joins the
                // spawned threads and then re-raises this payload.
                run(0, caller_chunk);
                // Join by hand: the scope's implicit join would replace a
                // shard's own panic payload with a generic one.
                for handle in handles {
                    if let Err(payload) = handle.join() {
                        resume_unwind(payload);
                    }
                }
            });
        } else {
            run(0, &mut slots);
        }
        let mut merged = Gradients::empty(n_params);
        let mut loss = 0.0f32;
        for slot in slots {
            // invariant: both arms above either filled all `n_shards`
            // slots or unwound before reaching the merge — a `None`
            // slot cannot survive to this loop.
            let (shard_loss, grads) = slot.expect("every shard computed");
            loss += shard_loss;
            merged.merge(grads);
        }
        (loss, merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_tensor::Matrix;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A synthetic shard gradient whose value depends on the shard index
    /// in a way that makes reduction-order mistakes visible: repeated
    /// noncommutative-ish float sums of distinct magnitudes.
    fn shard_grad(shard: usize) -> (f32, Gradients) {
        let mut g = Gradients::empty(3);
        let v = 0.1f32 * (shard as f32 + 1.0) + 1e-7 * shard as f32;
        g.accumulate(0, Matrix::full(2, 2, v));
        if shard.is_multiple_of(2) {
            g.accumulate(2, Matrix::full(1, 3, v * v));
        }
        (v, g)
    }

    #[test]
    fn parallel_reduction_is_bit_identical_to_serial() {
        for n_shards in [1usize, 2, 3, 7, 8, 16] {
            let (serial_loss, serial) = ShardExecutor::serial().accumulate(3, n_shards, shard_grad);
            for threads in [2usize, 3, 4, 9] {
                let (loss, merged) =
                    ShardExecutor::new(threads).accumulate(3, n_shards, shard_grad);
                assert_eq!(
                    loss.to_bits(),
                    serial_loss.to_bits(),
                    "loss {n_shards} shards"
                );
                for id in 0..3 {
                    match (serial.get(id), merged.get(id)) {
                        (None, None) => {}
                        (Some(a), Some(b)) => assert_eq!(
                            a.as_slice(),
                            b.as_slice(),
                            "param {id}, {n_shards} shards, {threads} threads"
                        ),
                        _ => panic!("touched-set mismatch for param {id}"),
                    }
                }
            }
        }
    }

    #[test]
    fn untouched_params_stay_untouched() {
        let (_, merged) = ShardExecutor::new(4).accumulate(3, 5, shard_grad);
        assert!(merged.get(0).is_some());
        assert!(merged.get(1).is_none(), "param 1 never touched");
        assert!(merged.get(2).is_some());
    }

    #[test]
    fn zero_shards_yield_empty_gradients() {
        let (loss, merged) = ShardExecutor::new(4).accumulate(2, 0, shard_grad);
        assert_eq!(loss, 0.0);
        assert_eq!(merged.touched(), 0);
    }

    #[test]
    fn more_threads_than_shards_is_fine() {
        let (_, a) = ShardExecutor::new(64).accumulate(3, 2, shard_grad);
        let (_, b) = ShardExecutor::serial().accumulate(3, 2, shard_grad);
        assert_eq!(a.get(0).unwrap().as_slice(), b.get(0).unwrap().as_slice());
    }

    #[test]
    fn persistent_pool_is_reused_across_batches() {
        // One executor, many accumulate calls — the training-loop shape.
        // Every call must reproduce the serial bits, and the chunks past
        // the caller's must actually run on spawned threads: 8 shards on
        // 4 threads leave the caller 2 and hand the other 6 off.
        let executor = ShardExecutor::new(4);
        let (serial_loss, serial) = ShardExecutor::serial().accumulate(3, 8, shard_grad);
        let caller = std::thread::current().id();
        let off_caller = AtomicUsize::new(0);
        let shard = |s: usize| {
            if std::thread::current().id() != caller {
                off_caller.fetch_add(1, Ordering::Relaxed);
            }
            shard_grad(s)
        };
        for _batch in 0..50 {
            let (loss, merged) = executor.accumulate(3, 8, shard);
            assert_eq!(loss.to_bits(), serial_loss.to_bits());
            assert_eq!(
                merged.get(0).unwrap().as_slice(),
                serial.get(0).unwrap().as_slice()
            );
        }
        assert_eq!(off_caller.load(Ordering::Relaxed), 50 * 6);
    }

    #[test]
    fn nested_accumulate_completes_and_matches_serial() {
        // A shard_fn that re-enters the same executor completes: the
        // nested call spawns its own scoped threads.
        let executor = ShardExecutor::new(3);
        let nested_fn = |s: usize| {
            let (inner_loss, inner) = ShardExecutor::serial().accumulate(3, 4, shard_grad);
            let _ = (inner_loss, inner);
            shard_grad(s)
        };
        let reentrant_fn = {
            let executor = &executor;
            move |s: usize| {
                // Re-enter the *same* threaded executor from inside a shard.
                let (_, _inner) = executor.accumulate(3, 4, shard_grad);
                shard_grad(s)
            }
        };
        let (loss_a, a) = executor.accumulate(3, 6, nested_fn);
        let (loss_b, b) = executor.accumulate(3, 6, reentrant_fn);
        let (want_loss, want) = ShardExecutor::serial().accumulate(3, 6, shard_grad);
        assert_eq!(loss_a.to_bits(), want_loss.to_bits());
        assert_eq!(loss_b.to_bits(), want_loss.to_bits());
        for g in [&a, &b] {
            assert_eq!(
                g.get(0).unwrap().as_slice(),
                want.get(0).unwrap().as_slice()
            );
        }
    }

    #[test]
    fn zero_shards_never_touch_the_pool() {
        let executor = ShardExecutor::new(4);
        let (loss, merged) = executor.accumulate(2, 0, |s| -> (f32, Gradients) {
            panic!("shard {s} of zero ran")
        });
        assert_eq!(loss, 0.0);
        assert_eq!(merged.touched(), 0);
    }

    #[test]
    fn shard_panic_propagates_and_pool_survives() {
        // 6 shards on 3 threads: shard 4 runs on a spawned thread, shard 0
        // on the caller's. Either way the caller sees the shard's own
        // payload, and the executor still reproduces the serial bits.
        let executor = ShardExecutor::new(3);
        let (_, want) = ShardExecutor::serial().accumulate(3, 6, shard_grad);
        for bad in [4usize, 0] {
            let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                executor.accumulate(3, 6, |s| {
                    if s == bad {
                        panic!("shard {bad} exploded");
                    }
                    shard_grad(s)
                })
            }));
            let Err(payload) = poisoned else {
                panic!("the shard {bad} panic must reach the caller");
            };
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(format!("shard {bad} exploded").as_str()),
                "shard {bad}'s own payload"
            );
            let (_, merged) = executor.accumulate(3, 6, shard_grad);
            assert_eq!(
                merged.get(0).unwrap().as_slice(),
                want.get(0).unwrap().as_slice()
            );
        }
    }

    /// No thread outlives an `accumulate`: run many executors of 1–8
    /// threads and check the OS thread count returns to its baseline
    /// (Linux-only observability). Other tests of this binary start and
    /// end threads concurrently, so the check waits, with a deadline, for
    /// the count to settle instead of reading it once; a leaked thread
    /// never lets it settle.
    #[test]
    #[cfg(target_os = "linux")]
    fn pool_shutdown_leaks_no_threads_soak() {
        use std::time::{Duration, Instant};
        let live_threads = || {
            std::fs::read_dir("/proc/self/task")
                .expect("procfs")
                .count()
        };
        let before = live_threads();
        for round in 0..200 {
            let executor = ShardExecutor::new(1 + round % 8);
            for _ in 0..4 {
                let _ = executor.accumulate(3, 8, shard_grad);
            }
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut after = live_threads();
        while after > before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
            after = live_threads();
        }
        assert!(
            after <= before,
            "thread leak: {before} threads before soak, {after} after"
        );
    }
}
