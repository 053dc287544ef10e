//! Fault-injection soaks: scripted panics, shard failures, deal-filter
//! churn, and snapshot corruption, all fired concurrently with live
//! queries and hot publishes. Every response must still be internally
//! consistent with exactly one published snapshot version and exactly
//! one installed deal filter — a typed error is always acceptable, a
//! torn or blended answer never is.
//!
//! Ignored by default (these exist to soak the failure paths, not to
//! gate every local `cargo test`); CI runs them explicitly with a
//! timeout:
//!
//! ```text
//! cargo test -p gb-serve --test faults_soak --release -- --ignored
//! ```

use gb_graph::BitMatrix;
use gb_models::{EmbeddingSnapshot, SnapshotHandle};
use gb_serve::{
    corrupt_file, mmap::open_mmap_snapshot_faulted, open_mmap_snapshot, save_mmap_snapshot,
    EngineConfig, FaultPlan, QueryEngine, RecommendService, ServeError, ServiceConfig, ShardPlan,
    ShardedConfig, ShardedEngine,
};
use gb_tensor::Matrix;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const N_USERS: usize = 24;
const N_ITEMS: usize = 120;

/// A version-stamped snapshot: `score(u, i) = v * (1 + i)`. Every
/// served score identifies the exact snapshot it was computed from
/// (see `stress.rs` for the argument); all factors are small integers,
/// so the f32 products are exact.
fn stamped(v: u64) -> EmbeddingSnapshot {
    EmbeddingSnapshot::without_social(
        Matrix::full(N_USERS, 1, v as f32),
        Matrix::from_fn(N_ITEMS, 1, |r, _| 1.0 + r as f32),
    )
}

/// Workers panic on a scripted cadence while a writer hot-swaps
/// snapshots: every caller gets either a stamp-consistent answer or
/// [`ServeError::Poisoned`] — never a hang, never a torn ranking — and
/// the worker pool survives to serve the next request.
#[test]
#[ignore = "soak test; CI runs it explicitly with a timeout"]
fn workers_survive_scripted_panics_under_publish_fire() {
    const N_READERS: usize = 4;
    const QUERIES_PER_READER: usize = 1200;
    const N_PUBLISHES: u64 = 150;

    let handle = SnapshotHandle::new(stamped(1));
    let plan = Arc::new(FaultPlan::new().panic_every(17));
    let service = RecommendService::with_config(
        QueryEngine::with_handle(
            handle.clone(),
            EngineConfig {
                cache_capacity: 64,
                ..Default::default()
            },
        )
        .with_faults(Arc::clone(&plan)),
        ServiceConfig {
            workers: 4,
            queue_depth: 64,
            ..Default::default()
        },
    );
    let done_publishing = AtomicBool::new(false);
    let total_ok = AtomicU64::new(0);
    let total_poisoned = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let service = &service;
        let handle = &handle;
        let done = &done_publishing;
        let total_ok = &total_ok;
        let total_poisoned = &total_poisoned;

        scope.spawn(move || {
            for v in 2..=N_PUBLISHES {
                assert_eq!(handle.publish(stamped(v)), v);
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });

        for reader in 0..N_READERS {
            scope.spawn(move || {
                let mut x = 0x9E37_79B9u64.wrapping_mul(reader as u64 + 1);
                for q in 0..QUERIES_PER_READER {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let user = (x >> 33) as u32 % N_USERS as u32;
                    let k = 1 + (x >> 17) as usize % 20;
                    match service.try_recommend_versioned(user, k) {
                        Ok((version, items)) => {
                            total_ok.fetch_add(1, Ordering::Relaxed);
                            assert!((1..=N_PUBLISHES).contains(&version));
                            assert_eq!(items.len(), k.min(N_ITEMS));
                            for e in items.iter() {
                                let expect = version as f32 * (1.0 + e.item as f32);
                                assert_eq!(
                                    e.score.to_bits(),
                                    expect.to_bits(),
                                    "reader {reader} query {q}: item {} scored {} under \
                                     version {version} — torn or stale response",
                                    e.item,
                                    e.score
                                );
                            }
                        }
                        Err(ServeError::Poisoned { reason }) => {
                            total_poisoned.fetch_add(1, Ordering::Relaxed);
                            assert!(
                                reason.contains("scripted panic"),
                                "unexpected poison: {reason}"
                            );
                        }
                        Err(other) => panic!("reader {reader} query {q}: {other}"),
                    }
                }
            });
        }
    });

    assert!(
        done_publishing.load(Ordering::Acquire),
        "publisher finished"
    );
    assert!(
        total_poisoned.load(Ordering::Relaxed) > 0,
        "the fault schedule never fired — the soak tested nothing"
    );
    assert!(service.worker_panics() > 0);
    // Only served requests feed the counters and the percentiles.
    assert_eq!(
        service.requests_served() as u64,
        total_ok.load(Ordering::Relaxed)
    );
    assert_eq!(
        service.latency_stopwatch().n_samples() as u64,
        total_ok.load(Ordering::Relaxed)
    );
    // The pool outlives every scripted panic.
    let healed = service
        .try_recommend(0, 5)
        .or_else(|_| service.try_recommend(0, 5))
        .expect("service serves after the soak");
    assert!(!healed.is_empty());
}

/// The sharded tier under simultaneous fire: a flaky shard (periodic
/// scripted failures), a slow shard (injected delay), hot snapshot
/// publishes, and a deal-filter installer flipping between parity
/// filters. With `k = N_ITEMS` the served set equals the allowed set
/// exactly, so every response must be one installed filter's candidate
/// set minus the ranges of exactly the shards it reports missing —
/// anything else is a mixed-generation mask or a torn merge.
#[test]
#[ignore = "soak test; CI runs it explicitly with a timeout"]
fn degraded_scatter_under_filter_churn_and_publishes_never_tears() {
    const N_SHARDS: usize = 4;
    const N_READERS: usize = 3;
    const QUERIES_PER_READER: usize = 500;
    const N_PUBLISHES: u64 = 80;
    const FLAKY_SHARD: usize = 1;

    let fault = FaultPlan::new()
        .fail_shard_every(FLAKY_SHARD, 13)
        .delay_shard(2, Duration::from_micros(200));
    let sharded = ShardedEngine::with_config(
        stamped(1),
        ShardedConfig {
            n_shards: N_SHARDS,
            scatter_retries: 0,
            allow_partial: true,
            engine: EngineConfig {
                cache_capacity: 0,
                ..Default::default()
            },
        },
    )
    .with_faults(Arc::new(fault));

    let mut block_evens = BitMatrix::zeros(1, N_ITEMS);
    let mut block_odds = BitMatrix::zeros(1, N_ITEMS);
    for i in 0..N_ITEMS {
        if i % 2 == 0 {
            block_evens.set(0, i);
        } else {
            block_odds.set(0, i);
        }
    }
    let ranges = ShardPlan::balanced(N_ITEMS, N_SHARDS).ranges().to_vec();
    // The three candidate sets an atomic install can expose.
    let all: Vec<u32> = (0..N_ITEMS as u32).collect();
    let odds: Vec<u32> = all.iter().copied().filter(|i| i % 2 == 1).collect();
    let evens: Vec<u32> = all.iter().copied().filter(|i| i % 2 == 0).collect();
    let candidate_sets = [all, odds, evens];

    let readers_done = AtomicBool::new(false);
    let degraded_seen = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let sharded = &sharded;
        let done = &readers_done;
        let degraded_seen = &degraded_seen;
        let candidate_sets = &candidate_sets;
        let ranges = &ranges;
        let block_evens = &block_evens;
        let block_odds = &block_odds;

        scope.spawn(move || {
            for v in 2..=N_PUBLISHES {
                assert_eq!(sharded.publish(stamped(v)), v);
                std::thread::yield_now();
            }
        });
        scope.spawn(move || {
            let mut round = 0u64;
            while !done.load(Ordering::Acquire) {
                match round % 3 {
                    0 => sharded.set_deal_filter(block_evens.clone()),
                    1 => sharded.set_deal_filter(block_odds.clone()),
                    _ => sharded.clear_deal_filter(),
                }
                round += 1;
                std::thread::yield_now();
            }
        });

        let readers: Vec<_> = (0..N_READERS)
            .map(|reader| {
                scope.spawn(move || {
                    let mut x = 0xA076_1D64u64.wrapping_mul(reader as u64 + 1);
                    for q in 0..QUERIES_PER_READER {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let user = (x >> 33) as u32 % N_USERS as u32;
                        match sharded.try_recommend(user, N_ITEMS) {
                            Ok(got) => {
                                assert!((1..=N_PUBLISHES).contains(&got.version));
                                if !got.missing_shards.is_empty() {
                                    assert_eq!(got.missing_shards, vec![FLAKY_SHARD]);
                                    degraded_seen.fetch_add(1, Ordering::Relaxed);
                                }
                                for e in got.items.iter() {
                                    let expect = got.version as f32 * (1.0 + e.item as f32);
                                    assert_eq!(
                                        e.score.to_bits(),
                                        expect.to_bits(),
                                        "reader {reader} query {q}: torn score under \
                                         version {}",
                                        got.version
                                    );
                                }
                                let mut served: Vec<u32> =
                                    got.items.iter().map(|e| e.item).collect();
                                served.sort_unstable();
                                let matches_one_filter = candidate_sets.iter().any(|set| {
                                    let expected: Vec<u32> = set
                                        .iter()
                                        .copied()
                                        .filter(|&i| {
                                            !got.missing_shards.iter().any(|&s| {
                                                let (start, len) = ranges[s];
                                                (i as usize) >= start && (i as usize) < start + len
                                            })
                                        })
                                        .collect();
                                    expected == served
                                });
                                assert!(
                                    matches_one_filter,
                                    "reader {reader} query {q}: served set ({} items, \
                                     missing {:?}) matches no single installed filter — \
                                     mixed-generation mask or torn merge",
                                    served.len(),
                                    got.missing_shards
                                );
                            }
                            Err(ServeError::ShardFailed { shards }) => {
                                assert_eq!(shards, vec![FLAKY_SHARD]);
                            }
                            Err(other) => panic!("reader {reader} query {q}: {other}"),
                        }
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().expect("reader panicked");
        }
        readers_done.store(true, Ordering::Release);
    });

    assert!(
        degraded_seen.load(Ordering::Relaxed) > 0,
        "the flaky shard never degraded a response — the soak tested nothing"
    );
    assert_eq!(
        sharded.degraded_served(),
        degraded_seen.load(Ordering::Relaxed)
    );
    assert!(sharded.shard_failures()[FLAKY_SHARD] > 0);
}

/// Seeded single-bit corruption over the whole mmap snapshot file: the
/// loader must reject or serve every corrupted image without panicking,
/// and flipping the same seeded bit back must restore a byte-identical
/// snapshot. Scripted open failures surface as `Err`, then heal.
#[test]
#[ignore = "soak test; CI runs it explicitly with a timeout"]
fn corrupted_snapshot_opens_never_panic_and_heal_bitwise() {
    let dir = std::env::temp_dir().join(format!("gb_faults_soak_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("soak.gbsnap2");
    let original = stamped(3);
    save_mmap_snapshot(&original, &path).expect("save");

    for seed in 0..200u64 {
        let (offset, bit) = corrupt_file(&path, seed).expect("corrupt");
        // Reject or serve — never panic. A flip in a table section or
        // padding can still parse; its dims must then be untouched.
        if let Ok(snap) = open_mmap_snapshot(&path) {
            assert_eq!(snap.n_users(), N_USERS);
            assert_eq!(snap.n_items(), N_ITEMS);
        }
        // Same seed, same flip: a second pass restores the bit.
        let restored = corrupt_file(&path, seed).expect("restore");
        assert_eq!((offset, bit), restored, "seeded flip is reproducible");
    }
    let healed = open_mmap_snapshot(&path).expect("restored file parses");
    for (u, i) in [(0u32, 0u32), (3, 7), (23, 119)] {
        assert_eq!(
            healed.score(u, i).to_bits(),
            original.score(u, i).to_bits(),
            "restored snapshot diverged at ({u}, {i})"
        );
    }

    // Scripted open failures: exactly `times` rejections, then healed.
    let plan = FaultPlan::new().fail_opens(2);
    assert!(open_mmap_snapshot_faulted(&path, &plan).is_err());
    assert!(open_mmap_snapshot_faulted(&path, &plan).is_err());
    assert!(open_mmap_snapshot_faulted(&path, &plan).is_ok());

    std::fs::remove_dir_all(&dir).ok();
}
