//! Property tests for the sharded scatter-gather tier: at any shard
//! count (1–8), over arbitrary snapshots, seen and deal filters (one
//! catalogue-wide bitset each, probed by every shard at its item offset),
//! retrieval modes with exact semantics, grow-only and concurrent
//! publishes, [`ShardedEngine`]
//! answers **bitwise identically** to a single unsharded [`QueryEngine`]
//! — same items, same score bits, same order.
//!
//! IVF is tested at full probe (`n_probe = n_clusters`), where the
//! per-shard candidate sets are exhaustive by construction. At *partial*
//! probe a sharded deployment clusters each shard independently, so its
//! candidate sets legitimately differ from a single-engine build's; that
//! regime is approximate on both sides and carries no bitwise contract.

use gb_graph::BitMatrix;
use gb_models::EmbeddingSnapshot;
use gb_serve::{
    EngineConfig, QueryEngine, Retrieval, ScoredItem, ShardedConfig, ShardedEngine, SnapshotHandle,
};
use gb_tensor::Matrix;
use proptest::prelude::*;
use std::sync::Arc;

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

/// One user's merged reply and the version it was computed from.
fn versioned(sharded: &ShardedEngine, user: u32, k: usize) -> (u64, Arc<Vec<ScoredItem>>) {
    let r = sharded.try_recommend(user, k).unwrap();
    (r.version, r.items)
}

fn pairs(items: &Arc<Vec<ScoredItem>>) -> Vec<(u32, u32)> {
    items.iter().map(|e| (e.item, e.score.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_recommend_is_bitwise_single_engine(
        tag in 0u64..6,
        n_shards in 1usize..=8,
        n_items in 1usize..=160,
        k in 1usize..=20,
    ) {
        let snap = snapshot(tag, 12, n_items, 8);
        let single = QueryEngine::new(snap.clone());
        let sharded = ShardedEngine::new(snap, n_shards);
        for user in 0..12u32 {
            prop_assert_eq!(
                pairs(&sharded.try_recommend(user, k).unwrap().items),
                pairs(&single.try_recommend(user, k).unwrap()),
                "user {} shards {} items {}",
                user,
                n_shards,
                n_items
            );
        }
    }

    #[test]
    fn sharded_full_probe_ivf_is_bitwise_exact_single_engine(
        tag in 0u64..6,
        n_shards in 1usize..=6,
        n_clusters in 1usize..=12,
        k in 1usize..=15,
    ) {
        let snap = snapshot(tag, 8, 120, 8);
        // Ground truth: an exact single engine. Full probe makes IVF
        // exact, per shard and unsharded alike.
        let single = QueryEngine::new(snap.clone());
        let sharded = ShardedEngine::with_config(
            snap,
            ShardedConfig {
                n_shards,
                engine: EngineConfig {
                    retrieval: Retrieval::Ivf {
                        n_clusters,
                        n_probe: n_clusters,
                    },
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        for user in 0..8u32 {
            prop_assert_eq!(
                pairs(&sharded.try_recommend(user, k).unwrap().items),
                pairs(&single.try_recommend(user, k).unwrap()),
                "user {} shards {} clusters {}",
                user,
                n_shards,
                n_clusters
            );
        }
    }

    #[test]
    fn sharded_recommend_many_is_bitwise_single_engine(
        tag in 0u64..6,
        n_shards in 1usize..=8,
        k in 1usize..=12,
        users in proptest::collection::vec(0u32..15, 1..24),
    ) {
        let snap = snapshot(tag, 15, 101, 8);
        let single = QueryEngine::new(snap.clone());
        let sharded = ShardedEngine::new(snap, n_shards);
        let many = sharded.try_recommend_batch(&users, k).unwrap().results;
        let (_, solo_many) = single.try_recommend_batch(&users, k).unwrap();
        for (slot, &user) in users.iter().enumerate() {
            prop_assert_eq!(
                pairs(&many[slot]),
                pairs(&solo_many[slot]),
                "user {} slot {} shards {}",
                user,
                slot,
                n_shards
            );
        }
    }

    #[test]
    fn sharded_seen_filter_matches_global_filter(
        tag in 0u64..6,
        n_shards in 1usize..=8,
        k in 1usize..=90,
        seen in proptest::collection::vec((0u32..10, 0usize..90), 0..60),
    ) {
        let snap = snapshot(tag, 10, 90, 6);
        let mut filter = BitMatrix::zeros(10, 90);
        for &(user, item) in &seen {
            filter.set(user as usize, item);
        }
        let single = QueryEngine::new(snap.clone()).with_seen_filter(filter.clone());
        let sharded = ShardedEngine::new(snap, n_shards).with_seen_filter(filter);
        for user in 0..10u32 {
            prop_assert_eq!(
                pairs(&sharded.try_recommend(user, k).unwrap().items),
                pairs(&single.try_recommend(user, k).unwrap()),
                "user {} shards {}",
                user,
                n_shards
            );
        }
    }

    #[test]
    fn a_deal_filter_narrower_than_the_plan_matches_a_single_engine(
        tag in 0u64..6,
        n_shards in 1usize..=8,
        n_items in 1usize..=130,
        cols_frac in 0.0f64..1.0,
        k in 1usize..=40,
        blocked in proptest::collection::vec(0usize..130, 0..50),
    ) {
        // Items past the filter's columns probe as allowed on a single
        // engine; every shard must agree, including shards whose whole
        // range lies past them.
        let cols = (n_items as f64 * cols_frac) as usize;
        let mut deal = BitMatrix::zeros(1, cols);
        for &item in blocked.iter().filter(|&&item| item < cols) {
            deal.set(0, item);
        }
        let snap = snapshot(tag, 6, n_items, 6);
        let single = QueryEngine::new(snap.clone());
        single.set_deal_filter(deal.clone());
        let sharded = ShardedEngine::new(snap, n_shards);
        sharded.set_deal_filter(deal);
        for user in 0..6u32 {
            prop_assert_eq!(
                pairs(&sharded.try_recommend(user, k).unwrap().items),
                pairs(&single.try_recommend(user, k).unwrap()),
                "user {} shards {} items {} filter cols {}",
                user,
                n_shards,
                n_items,
                cols
            );
        }
    }

    #[test]
    fn seen_and_deal_filters_compose_across_shards_and_a_grown_publish(
        tag in 0u64..6,
        n_shards in 1usize..=8,
        words in 1usize..=4,
        tail in 1usize..64,
        grown in 0usize..=70,
        n_clusters in 0usize..=9,
        deal_frac in 0.0f64..=1.0,
        k in 1usize..=40,
        bits in proptest::collection::vec((0u32..6, 0usize..320), 0..80),
    ) {
        // `64 * words + tail` items: never a multiple of 64, so shard
        // starts fall mid-word whenever the plan cuts between words.
        let n_items = 64 * words + tail;
        let deal_cols = (n_items as f64 * deal_frac) as usize;
        let mut seen = BitMatrix::zeros(6, n_items);
        let mut deal = BitMatrix::zeros(1, deal_cols);
        for (i, &(user, item)) in bits.iter().enumerate() {
            let item = item % n_items;
            if i % 2 == 0 {
                seen.set(user as usize, item);
            } else if item < deal_cols {
                deal.set(0, item);
            }
        }
        // 0 clusters serves exactly; more probe every cell.
        let retrieval = match n_clusters {
            0 => Retrieval::Exact,
            n_clusters => Retrieval::Ivf {
                n_clusters,
                n_probe: n_clusters,
            },
        };
        // Ground truth: an exact single engine under the same filters.
        let single = QueryEngine::new(snapshot(tag, 6, n_items, 6)).with_seen_filter(seen.clone());
        single.set_deal_filter(deal.clone());
        let sharded = ShardedEngine::with_config(
            snapshot(tag, 6, n_items, 6),
            ShardedConfig {
                n_shards,
                engine: EngineConfig { retrieval, ..Default::default() },
                ..Default::default()
            },
        )
        .with_seen_filter(seen);
        sharded.set_deal_filter(deal);
        for version in [1u64, 2] {
            if version == 2 {
                // Grow-only: the appended items lie past both filters.
                let grown_snap = snapshot(tag + 1, 6, n_items + grown, 6);
                single.handle().publish(grown_snap.clone());
                prop_assert_eq!(sharded.publish(grown_snap), 2);
            }
            let n_served = if version == 1 { n_items } else { n_items + grown };
            for user in 0..6u32 {
                for k in [k, n_served] {
                    let (got_version, got) = versioned(&sharded, user, k);
                    prop_assert_eq!(got_version, version);
                    let want = single.try_recommend(user, k).unwrap();
                    prop_assert_eq!(
                        pairs(&got),
                        pairs(&want),
                        "user {} k {} v{} shards {} items {} grown {} {:?}",
                        user, k, version, n_shards, n_items, grown, retrieval
                    );
                    if k == n_served {
                        // Every appended item is unseen and allowed.
                        for item in n_items..n_served {
                            prop_assert!(
                                got.iter().any(|e| e.item as usize == item),
                                "appended item {} filtered for user {}", item, user
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn responses_pin_one_version_across_interleaved_publishes(
        tag in 0u64..4,
        n_shards in 2usize..=6,
        k in 1usize..=10,
        users in proptest::collection::vec(0u32..10, 1..20),
        publish_at in 0usize..20,
    ) {
        let v1 = snapshot(tag, 10, 77, 8);
        let v2 = snapshot(tag + 1, 10, 77, 8);
        let solo_v1 = QueryEngine::new(v1.clone());
        let solo_v2 = QueryEngine::new(v2.clone());
        let sharded = ShardedEngine::new(v1, n_shards);
        let mut answers = Vec::with_capacity(users.len());
        for (i, &user) in users.iter().enumerate() {
            if i == publish_at.min(users.len() - 1) {
                sharded.publish(v2.clone());
            }
            answers.push(versioned(&sharded, user, k));
        }
        for (&user, (version, got)) in users.iter().zip(&answers) {
            let solo = match *version {
                1 => solo_v1.try_recommend(user, k).unwrap(),
                2 => solo_v2.try_recommend(user, k).unwrap(),
                v => panic!("unexpected version {v}"),
            };
            prop_assert_eq!(pairs(got), pairs(&solo), "user {} version {}", user, version);
        }
    }
}

/// A publisher thread races a stream of queries: every response must be
/// bitwise identical to a single-engine answer for *its* reported
/// version — a scatter must never mix shard answers from two versions.
#[test]
fn concurrent_publishes_never_tear_a_scatter() {
    const VERSIONS: u64 = 6;
    let solos: Vec<QueryEngine> = (0..VERSIONS)
        .map(|tag| QueryEngine::new(snapshot(tag, 12, 96, 8)))
        .collect();
    let sharded = ShardedEngine::with_handle(
        SnapshotHandle::new(snapshot(0, 12, 96, 8)),
        ShardedConfig {
            n_shards: 4,
            ..Default::default()
        },
    );

    std::thread::scope(|scope| {
        let sharded = &sharded;
        let publisher = scope.spawn(move || {
            for tag in 1..VERSIONS {
                std::thread::sleep(std::time::Duration::from_millis(2));
                sharded.publish(snapshot(tag, 12, 96, 8));
            }
        });
        for round in 0..60u32 {
            let user = round % 12;
            let (version, got) = versioned(sharded, user, 10);
            // Version v serves the tables of tag v-1.
            let solo = solos[(version - 1) as usize]
                .try_recommend(user, 10)
                .unwrap();
            assert_eq!(
                pairs(&got),
                pairs(&solo),
                "user {user} version {version} round {round}"
            );
            let users: Vec<u32> = (0..12).map(|i| (round + i) % 12).collect();
            let batch = sharded.try_recommend_batch(&users, 7).unwrap();
            let (version, many) = (batch.version, batch.results);
            for (slot, &u) in users.iter().enumerate() {
                let solo = solos[(version - 1) as usize].try_recommend(u, 7).unwrap();
                assert_eq!(
                    pairs(&many[slot]),
                    pairs(&solo),
                    "batched user {u} v{version}"
                );
            }
        }
        publisher.join().expect("publisher");
    });
    assert_eq!(sharded.handle().load().version(), VERSIONS);
}
