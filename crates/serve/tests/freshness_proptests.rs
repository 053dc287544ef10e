//! Property tests for the streaming freshness path: delta snapshot
//! publishes, incremental IVF maintenance, and deal-state candidate
//! filtering.
//!
//! The contracts pinned here:
//!
//! * A chain of [`SnapshotDelta`] publishes serves **bitwise
//!   identically** to the equivalent chain of full publishes — through a
//!   single exact engine, through full-probe IVF with incremental index
//!   maintenance, and through the sharded scatter-gather tier at 1–8
//!   shards.
//! * The deal-state filter composes with the per-user seen filter
//!   exactly like brute-force candidate-set intersection.
//! * An incrementally updated IVF index never blends rows across a
//!   publish: every served score comes from the version the response
//!   reports, even at partial probe and under concurrent publishes.

use gb_eval::topk::reference_topk;
use gb_eval::Scorer;
use gb_graph::BitMatrix;
use gb_models::{EmbeddingSnapshot, SnapshotDelta};
use gb_serve::{
    EngineConfig, QueryEngine, Retrieval, ScoredItem, ShardedConfig, ShardedEngine, SnapshotHandle,
};
use gb_tensor::Matrix;
use proptest::prelude::*;
use std::sync::Arc;

/// A deterministic synthetic snapshot; `tag` varies the tables.
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

/// One user's reply and the version it was computed from.
fn versioned(engine: &QueryEngine, user: u32, k: usize) -> (u64, Arc<Vec<ScoredItem>>) {
    let (version, mut lists) = engine.try_recommend_batch(&[user], k).unwrap();
    (version, lists.swap_remove(0))
}

/// One user's merged reply and the version it was computed from.
fn sharded_versioned(sharded: &ShardedEngine, user: u32, k: usize) -> (u64, Arc<Vec<ScoredItem>>) {
    let r = sharded.try_recommend(user, k).unwrap();
    (r.version, r.items)
}

fn pairs(items: &Arc<Vec<ScoredItem>>) -> Vec<(u32, u32)> {
    items.iter().map(|e| (e.item, e.score.to_bits())).collect()
}

/// A deterministic delta against `prev`: `n_changed` replaced item rows,
/// one replaced user row, and `n_appended` items appended past the end —
/// all values seeded by `step` so every chain position differs.
fn delta_step(
    prev: &EmbeddingSnapshot,
    step: u64,
    n_changed: usize,
    n_appended: usize,
) -> SnapshotDelta {
    let (od, sd) = (prev.own_dim(), prev.social_dim());
    let n = prev.n_items();
    let row = |base: usize, w: usize, sign: f32| -> Vec<f32> {
        (0..w)
            .map(|c| ((base * 3 + c) as f32 * 0.21 + sign * step as f32).sin())
            .collect()
    };
    let mut delta = SnapshotDelta::new();
    for j in 0..n_changed.min(n) {
        let id = ((step as usize).wrapping_mul(31) + j * 17) % n;
        delta = delta.set_item(id as u32, row(id, od, 1.0), row(id + 1, sd, -1.0));
    }
    let user = (step as usize * 13) % prev.n_users();
    delta = delta.set_user(user as u32, row(user, od, -1.0), row(user + 2, sd, 1.0));
    for a in 0..n_appended {
        delta = delta.append_item(row(n + a, od, 1.0), row(n + a + 1, sd, -1.0));
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One delta chain, three consumers — a delta-published sharded
    /// exact engine and a delta-published full-probe incremental-IVF
    /// engine must both serve bitwise what a full-publish exact single
    /// engine serves, at every link of the chain.
    #[test]
    fn delta_chain_matches_full_publishes_bitwise(
        tag in 0u64..5,
        n_shards in 1usize..=8,
        n_items in 20usize..=90,
        k in 1usize..=15,
        n_changed in 0usize..6,
        n_appended in 0usize..4,
    ) {
        let base = snapshot(tag, 8, n_items, 6);
        let sharded = ShardedEngine::new(base.clone(), n_shards);
        let ivf = QueryEngine::with_config(
            base.clone(),
            EngineConfig {
                retrieval: Retrieval::Ivf { n_clusters: 5, n_probe: 5 },
                ivf_incremental: true,
                ..Default::default()
            },
        );
        ivf.try_recommend(0, 1).unwrap(); // build the v1 index so updates can chain
        let full = QueryEngine::new(base.clone());
        let mut current = base;
        for step in 0..3u64 {
            let delta = delta_step(&current, tag * 10 + step, n_changed, n_appended);
            sharded.handle().publish_delta(&delta);
            ivf.handle().publish_delta(&delta);
            current = delta.apply(&current);
            full.handle().publish(current.clone());
            for user in 0..8u32 {
                let want = full.try_recommend(user, k).unwrap();
                prop_assert_eq!(
                    pairs(&sharded.try_recommend(user, k).unwrap().items),
                    pairs(&want),
                    "sharded: step {} user {} shards {}", step, user, n_shards
                );
                prop_assert_eq!(
                    pairs(&ivf.try_recommend(user, k).unwrap()),
                    pairs(&want),
                    "incremental ivf: step {} user {}", step, user
                );
            }
        }
    }

    /// deal ∘ seen == brute-force candidate intersection, on the single
    /// engine and through the sharded tier.
    #[test]
    fn deal_and_seen_composition_matches_brute_force(
        tag in 0u64..5,
        n_shards in 1usize..=6,
        k in 1usize..=80,
        seen in proptest::collection::vec((0u32..6, 0usize..80), 0..40),
        blocked in proptest::collection::vec(0usize..80, 0..40),
    ) {
        let snap = snapshot(tag, 6, 80, 6);
        let mut seen_bits = BitMatrix::zeros(6, 80);
        for &(user, item) in &seen {
            seen_bits.set(user as usize, item);
        }
        let mut deal = BitMatrix::zeros(1, 80);
        for &item in &blocked {
            deal.set(0, item);
        }
        let single = QueryEngine::new(snap.clone()).with_seen_filter(seen_bits.clone());
        single.set_deal_filter(deal.clone());
        let sharded = ShardedEngine::new(snap.clone(), n_shards).with_seen_filter(seen_bits.clone());
        sharded.set_deal_filter(deal.clone());
        for user in 0..6u32 {
            let allowed: Vec<u32> = (0..80u32)
                .filter(|&i| !seen_bits.contains(user as usize, i as usize) && !deal.contains(0, i as usize))
                .collect();
            let want = reference_topk(&snap, user, &allowed, k);
            let got: Vec<(u32, f32)> = single
                .try_recommend(user, k).unwrap()
                .iter()
                .map(|e| (e.item, e.score))
                .collect();
            prop_assert_eq!(got, want, "single: user {}", user);
            prop_assert_eq!(
                pairs(&sharded.try_recommend(user, k).unwrap().items),
                pairs(&single.try_recommend(user, k).unwrap()),
                "sharded: user {} shards {}", user, n_shards
            );
        }
    }

    /// Partial-probe incremental IVF never serves a stale row: every
    /// returned score bit-matches a fresh scoring of the reported
    /// version's tables, at every link of a delta chain.
    #[test]
    fn incremental_ivf_chain_never_blends(
        tag in 0u64..5,
        n_changed in 0usize..8,
        n_appended in 0usize..4,
        n_probe in 1usize..=4,
    ) {
        let base = snapshot(tag, 6, 100, 6);
        let engine = QueryEngine::with_config(
            base.clone(),
            EngineConfig {
                retrieval: Retrieval::Ivf { n_clusters: 8, n_probe },
                ivf_incremental: true,
                ..Default::default()
            },
        );
        engine.try_recommend(0, 1).unwrap();
        let mut current = base;
        for step in 0..4u64 {
            let delta = delta_step(&current, tag * 7 + step, n_changed, n_appended);
            engine.handle().publish_delta(&delta);
            current = delta.apply(&current);
            for user in 0..6u32 {
                let (version, got) = versioned(&engine, user, 12);
                prop_assert_eq!(version, step + 2);
                prop_assert!(!got.is_empty());
                for e in got.iter() {
                    let fresh = current.score_items(user, &[e.item])[0];
                    prop_assert_eq!(
                        e.score.to_bits(),
                        fresh.to_bits(),
                        "step {} user {} item {}: stale row served", step, user, e.item
                    );
                }
            }
        }
    }
}

/// A publisher thread streams a chain of delta publishes while queries
/// race it through the sharded tier: every response must be bitwise
/// identical to a single-engine answer for *its* reported version.
#[test]
fn concurrent_delta_publishes_never_tear_a_response() {
    const STEPS: usize = 5;
    let base = snapshot(0, 10, 84, 6);
    let mut versions = vec![base.clone()];
    let mut deltas = Vec::new();
    for step in 0..STEPS as u64 {
        let delta = delta_step(versions.last().expect("nonempty"), step, 4, 2);
        versions.push(delta.apply(versions.last().expect("nonempty")));
        deltas.push(delta);
    }
    let solos: Vec<QueryEngine> = versions
        .iter()
        .map(|s| QueryEngine::new(s.clone()))
        .collect();
    let sharded = ShardedEngine::with_handle(
        SnapshotHandle::new(base),
        ShardedConfig {
            n_shards: 4,
            engine: EngineConfig {
                retrieval: Retrieval::Ivf {
                    n_clusters: 4,
                    n_probe: 4,
                },
                ivf_incremental: true,
                ..Default::default()
            },
            ..Default::default()
        },
    );

    std::thread::scope(|scope| {
        let (sharded, deltas) = (&sharded, &deltas);
        let publisher = scope.spawn(move || {
            for delta in deltas {
                std::thread::sleep(std::time::Duration::from_millis(2));
                sharded.handle().publish_delta(delta);
            }
        });
        for round in 0..60u32 {
            let user = round % 10;
            let (version, got) = sharded_versioned(sharded, user, 9);
            let solo = solos[(version - 1) as usize]
                .try_recommend(user, 9)
                .unwrap();
            assert_eq!(
                pairs(&got),
                pairs(&solo),
                "user {user} version {version} round {round}"
            );
            let users: Vec<u32> = (0..10).map(|i| (round + i) % 10).collect();
            let batch = sharded.try_recommend_batch(&users, 6).unwrap();
            let (version, many) = (batch.version, batch.results);
            for (slot, &u) in users.iter().enumerate() {
                let solo = solos[(version - 1) as usize].try_recommend(u, 6).unwrap();
                assert_eq!(
                    pairs(&many[slot]),
                    pairs(&solo),
                    "batched user {u} v{version}"
                );
            }
        }
        publisher.join().expect("publisher");
    });
    assert_eq!(sharded.handle().load().version() as usize, STEPS + 1);
}
