//! Property tests for PR 4's serving fixes and batched path:
//!
//! * [`LruCache`] against a naive reference model over arbitrary
//!   insert/get/clear sequences — contents, eviction order, and counters
//!   all agree.
//! * `QueryEngine::try_recommend_batch` and the service coalescer
//!   (`try_recommend_batch`) against the reference top-k of each user's
//!   scores (`gb_eval::topk::reference_topk`) — bitwise, across
//!   user-block sizes 1–8, duplicate users, and a concurrent publish.
//! * Every serving path over catalogues longer than the engine's
//!   512-item scoring block, under a seen filter, against the same
//!   reference.

use gb_eval::topk::reference_topk;
use gb_graph::BitMatrix;
use gb_models::EmbeddingSnapshot;
use gb_serve::{
    EngineConfig, LruCache, QueryEngine, RecommendService, Retrieval, ScoredItem, ServiceConfig,
    ShardedEngine,
};
use gb_tensor::Matrix;
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// LruCache vs a naive reference model
// ---------------------------------------------------------------------------

/// The obviously-correct model: a recency-ordered Vec (front = most
/// recently used), linear scans everywhere.
struct NaiveLru {
    capacity: usize,
    entries: Vec<(u8, u32)>,
    hits: u64,
    misses: u64,
}

impl NaiveLru {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn get(&mut self, key: u8) -> Option<u32> {
        match self.entries.iter().position(|e| e.0 == key) {
            Some(at) => {
                self.hits += 1;
                let e = self.entries.remove(at);
                let v = e.1;
                self.entries.insert(0, e);
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: u8, value: u32) {
        if let Some(at) = self.entries.iter().position(|e| e.0 == key) {
            self.entries.remove(at);
        } else if self.entries.len() == self.capacity {
            self.entries.pop(); // evict the back = LRU
        }
        self.entries.insert(0, (key, value));
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// One scripted cache operation, decoded from raw proptest bytes.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u8, u32),
    Get(u8),
    Clear,
}

fn decode_ops(raw: &[(u8, u8, u32)]) -> Vec<Op> {
    raw.iter()
        .map(|&(sel, key, value)| match sel % 8 {
            // Clear is rare (1 in 8): mostly exercise insert/get churn.
            0..=3 => Op::Insert(key, value),
            4..=6 => Op::Get(key),
            _ => Op::Clear,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lru_matches_naive_model(
        capacity in 1usize..=9,
        raw in proptest::collection::vec((0u8..=255, 0u8..=24, 0u32..1000), 0..120),
    ) {
        let mut real = LruCache::new(capacity);
        let mut naive = NaiveLru::new(capacity);
        for op in decode_ops(&raw) {
            match op {
                Op::Insert(k, v) => {
                    real.insert(k, v);
                    naive.insert(k, v);
                }
                Op::Get(k) => {
                    prop_assert_eq!(real.get(&k).copied(), naive.get(k), "get({})", k);
                }
                Op::Clear => {
                    real.clear();
                    naive.clear();
                }
            }
            prop_assert_eq!(real.len(), naive.entries.len());
            prop_assert!(real.len() <= capacity);
            prop_assert_eq!(real.is_empty(), naive.entries.is_empty());
            prop_assert_eq!(real.stats(), (naive.hits, naive.misses));
        }
        // Final sweep: every key the model holds is retrievable with the
        // model's value; every key it evicted is gone.
        for key in 0u8..=24 {
            let expect = naive.entries.iter().find(|e| e.0 == key).map(|e| e.1);
            prop_assert_eq!(real.get(&key).copied(), expect, "final get({})", key);
        }
    }
}

// ---------------------------------------------------------------------------
// batched and coalesced serving == the reference top-k, bitwise
// ---------------------------------------------------------------------------

/// A deterministic synthetic snapshot; `tag` varies the tables so a
/// publish visibly changes every score.
fn snapshot(tag: u64, n_users: usize, n_items: usize, d: usize) -> EmbeddingSnapshot {
    let t = tag as f32;
    EmbeddingSnapshot::new(
        0.4,
        Matrix::from_fn(n_users, d, |r, c| ((r * 7 + c * 3) as f32 * 0.17 + t).sin()),
        Matrix::from_fn(n_items, d, |r, c| ((r * 5 + c) as f32 * 0.31 - t).cos()),
        Matrix::from_fn(n_users, d, |r, c| ((r + c * 11) as f32 * 0.13 + t).sin()),
        Matrix::from_fn(n_items, d, |r, c| ((r * 3 + c * 2) as f32 * 0.23 + t).cos()),
    )
}

fn pairs(items: &Arc<Vec<ScoredItem>>) -> Vec<(u32, u32)> {
    items.iter().map(|e| (e.item, e.score.to_bits())).collect()
}

/// The oracle: the reference top-`k` of `user`'s scores over the whole
/// catalogue, as `(item, score bits)` — computed by `gb-eval`, not by
/// any serving path.
fn oracle(snap: &EmbeddingSnapshot, user: u32, k: usize) -> Vec<(u32, u32)> {
    let candidates: Vec<u32> = (0..snap.n_items() as u32).collect();
    reference_topk(snap, user, &candidates, k)
        .into_iter()
        .map(|(item, score)| (item, score.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recommend_many_is_bitwise_sequential_across_user_blocks(
        seed in 0u64..1 << 32,
        user_block in 1usize..=8,
        k in 1usize..=12,
        users in proptest::collection::vec(0u32..40, 1..20),
        cached in 0u8..2,
    ) {
        let snap = snapshot(seed % 5, 40, 137, 8);
        let batched = QueryEngine::with_config(
            snap.clone(),
            EngineConfig {
                user_block,
                cache_capacity: if cached == 1 { 8 } else { 0 },
                ..Default::default()
            },
        );
        let (_, many) = batched.try_recommend_batch(&users, k).unwrap();
        for (slot, &user) in users.iter().enumerate() {
            prop_assert_eq!(
                pairs(&many[slot]),
                oracle(&snap, user, k),
                "user {} (user_block {})",
                user,
                user_block
            );
        }
    }

    #[test]
    fn coalesced_service_is_bitwise_sequential_across_a_publish(
        seed in 0u64..1 << 32,
        user_block in 1usize..=8,
        k in 1usize..=10,
        users in proptest::collection::vec(0u32..30, 1..24),
        publish_at in 0usize..24,
    ) {
        let v1 = snapshot(seed % 7, 30, 90, 8);
        let v2 = snapshot(seed % 7 + 1, 30, 90, 8);
        let service = RecommendService::with_config(
            QueryEngine::with_config(
                v1.clone(),
                EngineConfig {
                    user_block,
                    cache_capacity: 16,
                    ..Default::default()
                },
            ),
            ServiceConfig {
                workers: 2,
                queue_depth: 32,
                warm_k: 5,
                ..Default::default()
            },
        );

        // Fire the batch, publishing mid-stream: every response must be
        // bitwise the reference top-k under whichever version the engine
        // pinned for it.
        let mut answers = Vec::with_capacity(users.len());
        for (i, &user) in users.iter().enumerate() {
            if i == publish_at.min(users.len() - 1) {
                service.engine().handle().publish(v2.clone());
            }
            answers.push(service.try_recommend_versioned(user, k).unwrap());
        }
        for (&user, (version, got)) in users.iter().zip(&answers) {
            let want = match *version {
                1 => oracle(&v1, user, k),
                2 => oracle(&v2, user, k),
                v => panic!("unexpected version {v}"),
            };
            prop_assert_eq!(pairs(got), want, "user {} version {}", user, version);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Catalogues of 513–1300 items: each walk scores at least one full
    /// 512-item block and a tail (IVF with one cell walks a list that
    /// spans blocks), across three shards and through the service, with
    /// duplicate users and a seen filter.
    #[test]
    fn catalogues_past_one_block_serve_the_reference_on_every_path(
        seed in 0u64..1 << 32,
        n_items in 513usize..=1300,
        k in 1usize..=12,
        users in proptest::collection::vec(0u32..16, 1..12),
        seen in proptest::collection::vec((0usize..16, 0usize..1300), 0..300),
    ) {
        let snap = snapshot(seed % 5, 16, n_items, 8);
        let mut filter = BitMatrix::zeros(16, n_items);
        for &(user, item) in &seen {
            filter.set(user, item % n_items);
        }
        let want: Vec<Vec<(u32, u32)>> = users
            .iter()
            .map(|&user| {
                let unseen: Vec<u32> = (0..n_items as u32)
                    .filter(|&i| !filter.contains(user as usize, i as usize))
                    .collect();
                reference_topk(&snap, user, &unseen, k)
                    .into_iter()
                    .map(|(item, score)| (item, score.to_bits()))
                    .collect()
            })
            .collect();
        let exact = QueryEngine::new(snap.clone()).with_seen_filter(filter.clone());
        let one_cell = EngineConfig {
            retrieval: Retrieval::Ivf { n_clusters: 1, n_probe: 1 },
            ..Default::default()
        };
        let ivf = QueryEngine::with_config(snap.clone(), one_cell).with_seen_filter(filter.clone());
        let sharded = ShardedEngine::new(snap.clone(), 3).with_seen_filter(filter.clone());
        let service = RecommendService::with_config(
            QueryEngine::new(snap).with_seen_filter(filter),
            ServiceConfig { workers: 2, ..Default::default() },
        );
        for (path, got) in [
            ("exact", exact.try_recommend_batch(&users, k).unwrap().1),
            ("ivf", ivf.try_recommend_batch(&users, k).unwrap().1),
            ("sharded", sharded.try_recommend_batch(&users, k).unwrap().results),
            (
                "service",
                service.try_recommend_batch(&users, k).into_iter().map(Result::unwrap).collect(),
            ),
        ] {
            for (slot, &user) in users.iter().enumerate() {
                prop_assert_eq!(
                    pairs(&got[slot]),
                    want[slot].clone(),
                    "{} user {} items {}",
                    path,
                    user,
                    n_items
                );
            }
        }
    }
}

/// The coalescer proper: saturate the queue from many threads so workers
/// actually drain multi-user groups, then check every reply bitwise.
#[test]
fn saturated_coalescer_answers_match_sequential_bitwise() {
    let snap = snapshot(3, 24, 120, 8);
    let service = RecommendService::with_config(
        QueryEngine::with_config(
            snap.clone(),
            EngineConfig {
                user_block: 8,
                ..Default::default()
            },
        ),
        ServiceConfig {
            workers: 2,
            queue_depth: 64,
            warm_k: 5,
            ..Default::default()
        },
    );
    let users: Vec<u32> = (0..24u32).cycle().take(192).collect();
    let got = service.try_recommend_batch(&users, 10);
    for (slot, &user) in users.iter().enumerate() {
        let reply = got[slot].as_ref().unwrap();
        assert_eq!(pairs(reply), oracle(&snap, user, 10), "user {user}");
    }
    assert_eq!(service.requests_served(), 192);
    let sw = service.latency_stopwatch();
    assert_eq!(sw.n_samples(), 192);
    assert_eq!(
        service.requests_served(),
        192,
        "draining latencies must not reset the served counter"
    );
}
