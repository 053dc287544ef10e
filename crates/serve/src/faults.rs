//! Deterministic fault injection for serving-tier robustness tests.
//!
//! A [`FaultPlan`] is a scripted, seeded schedule of failures that the
//! serving hot paths consult at fixed *fault sites*:
//!
//! | site                    | consulted by                                  | faults available            |
//! |-------------------------|-----------------------------------------------|-----------------------------|
//! | scoring call            | `QueryEngine::rank`/`rank_many` dispatch      | panic the Nth call, panic every Nth, delay |
//! | shard scatter           | `ShardedEngine` scatter, per shard, per query | delay a shard, fail (panic) a shard N times or every Nth |
//! | deal-filter install     | `ShardedEngine::set_deal_filter`, before its slot swap | delay (widens the race window the atomic install must close) |
//! | snapshot open           | [`crate::mmap::open_mmap_snapshot_faulted`]   | fail the next N opens       |
//!
//! Plans are **per-instance**, not global: an engine only consults the
//! plan it was built with ([`QueryEngine::with_faults`],
//! [`ShardedEngine::with_faults`]), so parallel tests in one process
//! can never leak panics into each other, and production engines —
//! built without a plan — pay one `Option` check per site.
//!
//! All schedules are counter-based and therefore deterministic for a
//! deterministic call sequence (single-threaded tests get exact
//! "panic the 3rd query" semantics); under concurrency the counters
//! still fire exactly the scripted *number* of faults, just on
//! whichever thread reaches the count. Injected panics carry the
//! `"fault injection:"` prefix so a soak can tell a scripted failure
//! from a real one.
//!
//! [`corrupt_file`] complements the scripted open failures with *real*
//! corruption: a seeded, reproducible byte flip for exercising the
//! loaders' validation paths in soaks.
//!
//! [`QueryEngine::with_faults`]: crate::engine::QueryEngine::with_faults
//! [`ShardedEngine::with_faults`]: crate::router::ShardedEngine::with_faults

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A scripted failure schedule. Build one with the chainable
/// constructors, wrap it in an `Arc`, and hand clones to the engines
/// under test; the counters inside are shared, so "panic the 3rd
/// scoring call" means the 3rd call across every holder of the plan.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Sorted 1-based scoring-call indices that panic.
    panic_calls: Vec<u64>,
    /// Panic every Nth scoring call (0 = off) — the soak workhorse.
    panic_every: u64,
    /// Sleep before every scoring call (holds workers busy so overload
    /// tests can fill the queue deterministically).
    score_delay: Option<Duration>,
    /// Scoring calls observed so far.
    score_calls: AtomicU64,
    /// `(shard, delay)` — sleep before that shard scores a scatter.
    shard_delays: Vec<(usize, Duration)>,
    /// Per-shard scripted failures.
    shard_fails: Vec<ShardFail>,
    /// Sleep inside `set_deal_filter` just before it swaps the slot.
    install_delay: Option<Duration>,
    /// Remaining scripted snapshot-open failures.
    open_fails: AtomicU64,
}

/// Scripted failures for one shard: the first `remaining` scatters
/// panic, and/or every `every`th scatter panics.
#[derive(Debug)]
struct ShardFail {
    shard: usize,
    remaining: AtomicU64,
    every: u64,
    calls: AtomicU64,
}

impl FaultPlan {
    /// An empty plan (no faults fire until scripted).
    pub fn new() -> Self {
        Self::default()
    }

    /// Panic the `n`th scoring call (1-based). Chainable and repeatable.
    pub fn panic_on_call(mut self, n: u64) -> Self {
        self.panic_calls.push(n.max(1));
        self.panic_calls.sort_unstable();
        self
    }

    /// Panic every `n`th scoring call (soak mode). `0` disables.
    pub fn panic_every(mut self, n: u64) -> Self {
        self.panic_every = n;
        self
    }

    /// Sleep `delay` before every scoring call.
    pub fn delay_scoring(mut self, delay: Duration) -> Self {
        self.score_delay = Some(delay);
        self
    }

    /// Sleep `delay` before shard `shard` scores each scatter.
    pub fn delay_shard(mut self, shard: usize, delay: Duration) -> Self {
        self.shard_delays.push((shard, delay));
        self
    }

    /// Panic shard `shard`'s next `times` scatters (then heal — a
    /// retried scatter against a healed shard succeeds).
    pub fn fail_shard(self, shard: usize, times: u64) -> Self {
        self.shard_fault(shard, times, 0)
    }

    /// Panic every `every`th scatter that reaches shard `shard`.
    pub fn fail_shard_every(self, shard: usize, every: u64) -> Self {
        self.shard_fault(shard, 0, every)
    }

    fn shard_fault(mut self, shard: usize, times: u64, every: u64) -> Self {
        self.shard_fails.push(ShardFail {
            shard,
            remaining: AtomicU64::new(times),
            every,
            calls: AtomicU64::new(0),
        });
        self
    }

    /// Sleep `delay` inside `set_deal_filter` just before its slot swap,
    /// widening the window a racing scatter must never observe a mixed
    /// mask in.
    pub fn delay_filter_install(mut self, delay: Duration) -> Self {
        self.install_delay = Some(delay);
        self
    }

    /// Fail the next `times` faulted snapshot opens
    /// ([`crate::mmap::open_mmap_snapshot_faulted`]).
    pub fn fail_opens(mut self, times: u64) -> Self {
        self.open_fails = AtomicU64::new(times);
        self
    }

    /// Scoring calls observed so far (test assertion hook).
    pub fn scoring_calls(&self) -> u64 {
        self.score_calls.load(Ordering::Relaxed)
    }

    /// Fault site: one engine scoring call (exact or IVF, single or
    /// batched — one count per uncached rank dispatch).
    ///
    /// # Panics
    /// Panics when the call count hits a scripted index — that is the
    /// injected fault, expected to be caught by worker supervision.
    pub(crate) fn at_score(&self) {
        let call = self.score_calls.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(d) = self.score_delay {
            std::thread::sleep(d);
        }
        if self.panic_calls.binary_search(&call).is_ok()
            || (self.panic_every > 0 && call.is_multiple_of(self.panic_every))
        {
            // invariant: this panic IS the product — the scripted fault
            // that worker supervision must catch and convert to a typed
            // error; it never fires without an explicit fault plan.
            panic!("fault injection: scripted panic at scoring call {call}");
        }
    }

    /// Fault site: shard `shard` about to score one scatter.
    ///
    /// # Panics
    /// Panics when this shard has a scripted failure due — expected to
    /// be caught by the router's degraded scatter.
    pub(crate) fn at_shard(&self, shard: usize) {
        if let Some(&(_, d)) = self.shard_delays.iter().find(|&&(s, _)| s == shard) {
            std::thread::sleep(d);
        }
        for fail in self.shard_fails.iter().filter(|f| f.shard == shard) {
            let call = fail.calls.fetch_add(1, Ordering::Relaxed) + 1;
            let budgeted = fail
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok();
            if budgeted || (fail.every > 0 && call.is_multiple_of(fail.every)) {
                // invariant: this panic IS the product — the scripted
                // shard failure the degraded scatter must absorb; it
                // never fires without an explicit fault plan.
                panic!("fault injection: scripted failure of shard {shard} (scatter {call})");
            }
        }
    }

    /// Fault site: just before a sharded deal filter's slot swap.
    pub(crate) fn at_filter_install(&self) {
        if let Some(d) = self.install_delay {
            std::thread::sleep(d);
        }
    }

    /// Fault site: one faulted snapshot open. Returns `true` when the
    /// open should fail (consuming one scripted failure).
    pub(crate) fn fail_next_open(&self) -> bool {
        self.open_fails
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }
}

/// Flips one seeded, reproducible bit of the file at `path`, returning
/// `(byte offset, bit)` so a test can log or undo it. Same seed + same
/// file length = same flip. Bytes 0..4 (the magic) are fair game too —
/// loaders must reject any corruption without panicking.
pub fn corrupt_file(path: impl AsRef<std::path::Path>, seed: u64) -> std::io::Result<(u64, u8)> {
    let mut bytes = std::fs::read(&path)?;
    if bytes.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "cannot corrupt an empty file",
        ));
    }
    // SplitMix64 — the workspace's seeded-stream idiom.
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let offset = (next() % bytes.len() as u64) as usize;
    let bit = (next() % 8) as u8;
    bytes[offset] ^= 1 << bit;
    std::fs::write(&path, &bytes)?;
    Ok((offset as u64, bit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_scoring_panics_fire_on_exact_calls() {
        let plan = FaultPlan::new().panic_on_call(2).panic_on_call(4);
        plan.at_score(); // call 1: fine
        for expect in [2u64, 4] {
            while plan.scoring_calls() + 1 < expect {
                plan.at_score();
            }
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.at_score()))
                .expect_err("scripted call must panic");
            let msg = err.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains("fault injection"), "{msg}");
            assert!(msg.contains(&format!("call {expect}")), "{msg}");
        }
        plan.at_score(); // call 5: healed
        assert_eq!(plan.scoring_calls(), 5);
    }

    #[test]
    fn panic_every_fires_periodically() {
        let plan = FaultPlan::new().panic_every(3);
        let mut panics = 0;
        for _ in 0..9 {
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.at_score())).is_err() {
                panics += 1;
            }
        }
        assert_eq!(panics, 3, "calls 3, 6, 9");
    }

    #[test]
    fn shard_failures_heal_after_the_budget() {
        let plan = FaultPlan::new().fail_shard(1, 2);
        plan.at_shard(0); // other shards untouched
        for _ in 0..2 {
            assert!(
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.at_shard(1)))
                    .is_err()
            );
        }
        plan.at_shard(1); // budget spent: healed
    }

    #[test]
    fn open_failures_consume_their_budget() {
        let plan = FaultPlan::new().fail_opens(2);
        assert!(plan.fail_next_open());
        assert!(plan.fail_next_open());
        assert!(!plan.fail_next_open());
    }

    #[test]
    fn corrupt_file_is_seeded_and_reproducible() {
        let dir = std::env::temp_dir().join("gb_serve_faults_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt_me.bin");
        let original: Vec<u8> = (0u8..=255).collect();
        std::fs::write(&path, &original).unwrap();
        let (offset, bit) = corrupt_file(&path, 42).unwrap();
        let flipped = std::fs::read(&path).unwrap();
        assert_eq!(flipped.len(), original.len());
        let diff: Vec<usize> = (0..original.len())
            .filter(|&i| original[i] != flipped[i])
            .collect();
        assert_eq!(diff, vec![offset as usize], "exactly one byte changed");
        assert_eq!(
            original[offset as usize] ^ (1 << bit),
            flipped[offset as usize]
        );
        // Same seed on the restored file flips the same bit.
        std::fs::write(&path, &original).unwrap();
        assert_eq!(corrupt_file(&path, 42).unwrap(), (offset, bit));
        std::fs::remove_file(&path).ok();
    }
}
