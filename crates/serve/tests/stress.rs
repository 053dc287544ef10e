//! Concurrency stress: reader threads hammer a cached
//! [`RecommendService`] while a writer hot-swaps snapshots in a tight
//! loop. Every response must be internally consistent with exactly one
//! published snapshot version — no torn reads, no stale blends, no
//! panics.
//!
//! Ignored by default (it exists to soak the swap path, not to gate
//! every local `cargo test`); CI runs it explicitly with a timeout:
//!
//! ```text
//! cargo test -p gb-serve --test stress --release -- --ignored
//! ```

use gb_models::{EmbeddingSnapshot, SnapshotHandle};
use gb_serve::{EngineConfig, QueryEngine, RecommendService, ServiceConfig};
use gb_tensor::Matrix;
use std::sync::atomic::{AtomicBool, Ordering};

const N_USERS: usize = 32;
const N_ITEMS: usize = 200;
const N_READERS: usize = 4;
const QUERIES_PER_READER: usize = 1500;
const N_PUBLISHES: u64 = 400;

/// A version-stamped snapshot: `score(u, i) = v * (1 + i)`.
///
/// Every served score identifies the exact snapshot it was computed
/// from, so a response mixing tables from two publishes — or a cache
/// entry surviving a version boundary — shows up as a score that fails
/// the stamp equation. All factors are small integers, so the f32
/// products are exact.
fn stamped(v: u64) -> EmbeddingSnapshot {
    EmbeddingSnapshot::without_social(
        Matrix::full(N_USERS, 1, v as f32),
        Matrix::from_fn(N_ITEMS, 1, |r, _| 1.0 + r as f32),
    )
}

#[test]
#[ignore = "soak test; CI runs it explicitly with a timeout"]
fn swapping_under_reader_fire_never_tears_or_staleness() {
    let handle = SnapshotHandle::new(stamped(1));
    let service = RecommendService::with_config(
        QueryEngine::with_handle(
            handle.clone(),
            EngineConfig {
                cache_capacity: 128,
                ..Default::default()
            },
        ),
        ServiceConfig {
            workers: 4,
            queue_depth: 64,
            ..Default::default()
        },
    );
    let done_publishing = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let service = &service;
        let handle = &handle;
        let done = &done_publishing;

        // The writer: publish stamped snapshots back to back, yielding
        // between publishes so swaps interleave with live queries instead
        // of finishing before the readers ramp up.
        scope.spawn(move || {
            for v in 2..=N_PUBLISHES {
                assert_eq!(handle.publish(stamped(v)), v);
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });

        for reader in 0..N_READERS {
            scope.spawn(move || {
                // Deterministic per-reader query stream.
                let mut x = 0x9E37_79B9u64.wrapping_mul(reader as u64 + 1);
                let mut last_version = 0u64;
                for q in 0..QUERIES_PER_READER {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let user = (x >> 33) as u32 % N_USERS as u32;
                    let k = 1 + (x >> 17) as usize % 20;
                    let (version, items) = service.try_recommend_versioned(user, k).unwrap();

                    // Consistency with exactly one published version: the
                    // stamp equation holds for every entry.
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
                    // Ranking within the response is version-coherent too:
                    // higher item ids always win under the stamp tables.
                    for w in items.windows(2) {
                        assert!(w[0].item > w[1].item, "stamp ranking broken");
                    }
                    // Versions observed by one reader never go backwards.
                    assert!(
                        version >= last_version,
                        "reader {reader}: version went backwards \
                         ({last_version} -> {version})"
                    );
                    last_version = version;
                }
                // Soak the tail: after the writer finishes, responses must
                // settle on the final version.
                if done.load(Ordering::Acquire) {
                    let (version, _) = service.try_recommend_versioned(0, 5).unwrap();
                    assert_eq!(version, N_PUBLISHES);
                }
            });
        }
    });

    assert_eq!(handle.version(), N_PUBLISHES);
    let (hits, misses) = service.engine().cache_stats();
    assert!(
        hits + misses >= (N_READERS * QUERIES_PER_READER) as u64,
        "every query went through the cache path"
    );
}

/// The batched path under fire: reader threads issue *bursts* of queries
/// (saturating the queue so workers coalesce multi-user groups) while the
/// writer hot-swaps snapshots back to back. Every reply in every burst
/// must satisfy the stamp equation for its reported version — a coalesced
/// group that mixed versions, tore a read, or cross-wired replies between
/// queued requests shows up immediately.
#[test]
#[ignore = "soak test; CI runs it explicitly with a timeout"]
fn coalesced_batches_under_publish_fire_stay_version_coherent() {
    const BURSTS_PER_READER: usize = 150;
    const BURST: usize = 24; // 3 user-blocks of coalescing per burst
    let handle = SnapshotHandle::new(stamped(1));
    let service = RecommendService::with_config(
        QueryEngine::with_handle(
            handle.clone(),
            EngineConfig {
                cache_capacity: 128,
                user_block: 8,
                ..Default::default()
            },
        ),
        ServiceConfig {
            workers: 4,
            queue_depth: 64,
            ..Default::default()
        },
    );

    std::thread::scope(|scope| {
        let service = &service;
        let handle = &handle;

        scope.spawn(move || {
            for v in 2..=N_PUBLISHES {
                assert_eq!(handle.publish(stamped(v)), v);
                std::thread::yield_now();
            }
        });

        for reader in 0..N_READERS {
            scope.spawn(move || {
                let mut x = 0xDEAD_BEEFu64.wrapping_mul(reader as u64 + 1);
                for burst in 0..BURSTS_PER_READER {
                    let users: Vec<u32> = (0..BURST)
                        .map(|_| {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            (x >> 33) as u32 % N_USERS as u32
                        })
                        .collect();
                    let k = 1 + (x >> 17) as usize % 20;
                    let answers = service.try_recommend_batch(&users, k);
                    assert_eq!(answers.len(), users.len());
                    for (slot, items) in answers.iter().enumerate() {
                        let items = items.as_ref().unwrap();
                        assert_eq!(items.len(), k.min(N_ITEMS));
                        // Recover the version from the top item's stamp;
                        // every other entry must agree with it exactly.
                        let top = &items[0];
                        let version = (top.score / (1.0 + top.item as f32)) as u64;
                        assert!(
                            (1..=N_PUBLISHES).contains(&version),
                            "reader {reader} burst {burst} slot {slot}: \
                             implausible version {version}"
                        );
                        for e in items.iter() {
                            let expect = version as f32 * (1.0 + e.item as f32);
                            assert_eq!(
                                e.score.to_bits(),
                                expect.to_bits(),
                                "reader {reader} burst {burst} slot {slot}: item {} \
                                 scored {} — coalesced response tore across versions",
                                e.item,
                                e.score
                            );
                        }
                        for w in items.windows(2) {
                            assert!(w[0].item > w[1].item, "stamp ranking broken");
                        }
                    }
                }
            });
        }
    });

    assert_eq!(handle.version(), N_PUBLISHES);
    assert_eq!(
        service.requests_served(),
        N_READERS * BURSTS_PER_READER * BURST,
        "monotone served counter covers every coalesced request"
    );
}
