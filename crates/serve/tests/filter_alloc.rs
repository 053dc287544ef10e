//! Installing a filter on the sharded tier copies no table: every shard
//! probes the caller's seen filter and deal row at its own item offset,
//! so `ShardedEngine::with_seen_filter` and `set_deal_filter` allocate
//! (and hold live) a few pointer-sized cells, never a filter-sized slice.
//!
//! One test in this binary: the counting allocator is per thread, and a
//! lone test keeps the harness's own allocations out of the measured
//! window.

#[path = "../../core/tests/alloc_counter/mod.rs"]
mod alloc_counter;

use alloc_counter::{allocated, peak_above, reset_peak};
use gb_graph::BitMatrix;
use gb_models::EmbeddingSnapshot;
use gb_serve::ShardedEngine;
use gb_tensor::Matrix;

/// Users and items of the catalogue. The item count is not a multiple of
/// 64, so all three inner shard starts fall mid-word.
const N_USERS: usize = 64;
const N_ITEMS: usize = 100_003;
const N_SHARDS: usize = 4;

/// Bytes allocated, and the most held live above the entry heap, while
/// `f` runs on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let live = reset_peak();
    let before = allocated();
    let out = f();
    (out, allocated() - before, peak_above(live))
}

#[test]
fn installing_filters_on_the_router_copies_no_table() {
    let table = |rows: usize, phase: f32| {
        Matrix::from_fn(rows, 4, |r, c| ((r * 5 + c) as f32 * 0.31 + phase).sin())
    };
    let snap = EmbeddingSnapshot::new(
        0.4,
        table(N_USERS, 0.0),
        table(N_ITEMS, 1.0),
        table(N_USERS, 2.0),
        table(N_ITEMS, 3.0),
    );
    let mut seen = BitMatrix::zeros(N_USERS, N_ITEMS);
    let mut deal = BitMatrix::zeros(1, N_ITEMS);
    for item in (0..N_ITEMS).step_by(7) {
        seen.set(item % N_USERS, item);
        deal.set(0, (item * 3) % N_ITEMS);
    }
    let (seen_bytes, deal_bytes) = (seen.size_bytes() as u64, deal.size_bytes() as u64);
    let (seen_copy, deal_copy) = (seen.clone(), deal.clone());
    let router = ShardedEngine::new(snap, N_SHARDS);

    let (router, seen_alloc, seen_peak) = counted(|| router.with_seen_filter(seen));
    let ((), deal_alloc, deal_peak) = counted(|| router.set_deal_filter(deal));
    println!(
        "with_seen_filter: {seen_alloc} B allocated, {seen_peak} B peak of a {seen_bytes} B filter"
    );
    println!(
        "set_deal_filter: {deal_alloc} B allocated, {deal_peak} B peak of a {deal_bytes} B row"
    );
    assert!(
        seen_alloc.max(seen_peak) < seen_bytes / 16,
        "with_seen_filter allocated {seen_alloc} B (peak {seen_peak} B) for a {seen_bytes} B filter"
    );
    assert!(
        deal_alloc.max(deal_peak) < deal_bytes / 16,
        "set_deal_filter allocated {deal_alloc} B (peak {deal_peak} B) for a {deal_bytes} B row"
    );

    // The shared filters still gate every shard.
    let items = router.try_recommend(3, 50).unwrap().items;
    assert_eq!(items.len(), 50);
    for e in items.iter() {
        let item = e.item as usize;
        assert!(!seen_copy.contains(3, item), "seen item {item} served");
        assert!(!deal_copy.contains(0, item), "blocked item {item} served");
    }
}
