//! Fuzz/property tests for the mappable v2 snapshot layout:
//!
//! * save → [`open_mmap_snapshot`] round-trips bit-identically for
//!   arbitrary table shapes (including zero-dimension tables), also for
//!   tables larger than the writer's buffer, and the heap loader agrees
//!   with the mapped loader bit-for-bit. (Awkward bit patterns and
//!   damaged bytes at small shapes are `snapshot_fuzz`'s.)
//! * A sharded engine serving a *mapped* snapshot answers bitwise like a
//!   single engine serving the original in-memory snapshot — the whole
//!   PR 6 path (mmap → shared tables → slices → scatter-gather merge)
//!   composes without perturbing a single bit.
//! * Truncating a v2 file anywhere yields `Err`, never a panic or an
//!   out-of-bounds access; flipping any single byte yields `Ok` or
//!   `Err`, never a panic — and a structurally-valid-but-poisoned load
//!   still serves without panicking (non-finite scores are dropped at
//!   the heap, by contract). Descriptors advertising near-overflow table
//!   shapes are rejected by both opens without the allocation they
//!   describe.

use gb_models::EmbeddingSnapshot;
use gb_serve::{
    open_mmap_snapshot, open_mmap_snapshot_heap, save_mmap_snapshot, QueryEngine, ScoredItem,
    ShardedEngine,
};
use gb_tensor::Matrix;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn snapshot(
    tag: u64,
    n_users: usize,
    n_items: usize,
    d_own: usize,
    d_social: usize,
) -> EmbeddingSnapshot {
    let t = tag as f32;
    EmbeddingSnapshot::new(
        0.4,
        Matrix::from_fn(n_users, d_own, |r, c| {
            ((r * 7 + c * 3) as f32 * 0.17 + t).sin()
        }),
        Matrix::from_fn(n_items, d_own, |r, c| ((r * 5 + c) as f32 * 0.31 - t).cos()),
        Matrix::from_fn(n_users, d_social, |r, c| {
            ((r + c * 11) as f32 * 0.13 + t).sin()
        }),
        Matrix::from_fn(n_items, d_social, |r, c| {
            ((r * 3 + c * 2) as f32 * 0.23 + t).cos()
        }),
    )
}

/// A unique temp path per test case (proptest shrinks rerun cases; the
/// discriminator keeps reruns from racing each other's files).
fn tmp(name: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gb_serve_mmap_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{case}.gbsn2"))
}

/// Every table's raw bits, plus α's: equality here is bit identity,
/// which `==` on floats is not (it equates the two zeros).
fn bits(snap: &EmbeddingSnapshot) -> (u32, [Vec<u32>; 4]) {
    let table = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect();
    (
        snap.alpha().to_bits(),
        [
            table(snap.user_own()),
            table(snap.item_own()),
            table(snap.user_social()),
            table(snap.item_social()),
        ],
    )
}

/// Saves `snap`, opens it both ways, and checks each open against it
/// bit for bit.
fn assert_roundtrips(snap: &EmbeddingSnapshot, path: &std::path::Path) {
    save_mmap_snapshot(snap, path).unwrap();
    let mapped = open_mmap_snapshot(path).unwrap();
    let heaped = open_mmap_snapshot_heap(path).unwrap();
    assert!(bits(&mapped) == bits(snap), "mapped load differs");
    assert!(bits(&heaped) == bits(snap), "heap load differs");
    std::fs::remove_file(path).ok();
}

fn pairs(items: &Arc<Vec<ScoredItem>>) -> Vec<(u32, u32)> {
    items.iter().map(|e| (e.item, e.score.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn roundtrip_and_heap_fallback_are_bit_identical(
        tag in 0u64..1000,
        n_users in 0usize..20,
        n_items in 0usize..60,
        d_own in 0usize..10,
        d_social in 0usize..10,
    ) {
        let snap = snapshot(tag, n_users, n_items, d_own, d_social);
        let path = tmp("roundtrip", tag * 1_000_000 + (n_users * 600 + n_items * 10 + d_own) as u64);
        assert_roundtrips(&snap, &path);
    }

    #[test]
    fn sharded_serving_from_a_mapped_snapshot_is_bitwise_exact(
        tag in 0u64..100,
        n_shards in 1usize..=6,
        k in 1usize..=12,
    ) {
        let snap = snapshot(tag, 9, 83, 8, 4);
        let path = tmp("serve", tag * 100 + (n_shards * 13 + k) as u64);
        save_mmap_snapshot(&snap, &path).unwrap();
        let single = QueryEngine::new(snap);
        let sharded = ShardedEngine::new(open_mmap_snapshot(&path).unwrap(), n_shards);
        for user in 0..9u32 {
            prop_assert_eq!(
                pairs(&sharded.try_recommend(user, k).unwrap().items),
                pairs(&single.try_recommend(user, k).unwrap()),
                "user {} shards {}",
                user,
                n_shards
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_anywhere_errors_instead_of_panicking(
        tag in 0u64..100,
        cut_frac in 0.0f64..1.0,
    ) {
        let snap = snapshot(tag, 5, 23, 6, 3);
        let path = tmp("trunc", tag * 1000 + (cut_frac * 997.0) as u64);
        save_mmap_snapshot(&snap, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        let cut = ((full.len() as f64) * cut_frac) as usize; // always < len
        std::fs::write(&path, &full[..cut]).unwrap();
        prop_assert!(
            open_mmap_snapshot(&path).is_err(),
            "truncation to {} of {} bytes must be rejected",
            cut,
            full.len()
        );
        prop_assert!(open_mmap_snapshot_heap(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn single_byte_corruption_never_panics(
        tag in 0u64..100,
        at_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let snap = snapshot(tag, 5, 23, 6, 3);
        let path = tmp("flip", tag * 100_000 + (at_frac * 9973.0) as u64 * 10 + xor as u64 % 10);
        save_mmap_snapshot(&snap, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = ((bytes.len() as f64) * at_frac) as usize;
        bytes[at] ^= xor;
        std::fs::write(&path, &bytes).unwrap();
        // Ok or Err, but never a panic or a wild read — and anything
        // that loads must also *serve* without panicking (a poisoned
        // payload degrades to dropped candidates at the TopK heap).
        // What the scanning heap open accepts, the mapped one loads
        // identically.
        if let Ok(heaped) = open_mmap_snapshot_heap(&path) {
            prop_assert!(open_mmap_snapshot(&path).is_ok_and(|m| bits(&m) == bits(&heaped)));
        }
        if let Ok(loaded) = open_mmap_snapshot(&path) {
            if loaded.n_users() > 0 {
                let engine = QueryEngine::new(loaded);
                let top = engine.try_recommend(0, 5).unwrap();
                prop_assert!(top.iter().all(|e| e.score.is_finite()));
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Tables larger than the writer's 64 KiB buffer cross several flushes,
/// each at a different offset into a row.
#[test]
fn tables_larger_than_the_write_buffer_roundtrip() {
    let snap = snapshot(7, 3_001, 40_009, 3, 2);
    assert!(snap.item_own().len() * 4 > 4 * 64 * 1024, "several flushes");
    assert_roundtrips(&snap, &tmp("large", 0));
}

/// The zero-user/zero-item universe is a legal snapshot and must survive
/// the file, not just the in-memory constructor.
#[test]
fn empty_universe_roundtrips() {
    let snap = EmbeddingSnapshot::without_social(Matrix::zeros(0, 3), Matrix::zeros(0, 3));
    assert_roundtrips(&snap, &tmp("empty", 0));
}

/// Descriptors advertising near-overflow table shapes are rejected by
/// both opens without attempting the giant allocation they describe.
#[test]
fn near_overflow_dims_rejected_without_oom() {
    let snap = EmbeddingSnapshot::without_social(Matrix::zeros(2, 2), Matrix::zeros(3, 2));
    let path = tmp("overflow", 0);
    save_mmap_snapshot(&snap, &path).unwrap();
    let good = std::fs::read(&path).unwrap();
    // The first section descriptor's rows and cols follow the 16-byte
    // fixed header.
    for (rows, cols) in [
        (u64::MAX, u64::MAX),
        (u64::MAX, 3),
        (1 << 62, 1), // rows*cols*4 overflows u64/usize
        (1 << 40, 1), // representable but astronomically larger than the file
        (u64::MAX / 4, 1_000_000),
    ] {
        let mut bad = good.clone();
        bad[16..24].copy_from_slice(&rows.to_le_bytes());
        bad[24..32].copy_from_slice(&cols.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(
            open_mmap_snapshot(&path).is_err(),
            "rows {rows} cols {cols}"
        );
        assert!(
            open_mmap_snapshot_heap(&path).is_err(),
            "rows {rows} cols {cols}"
        );
    }
    std::fs::remove_file(&path).ok();
}
