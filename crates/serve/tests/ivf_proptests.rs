//! Property tests for the IVF approximate retrieval layer (PR 5):
//!
//! * `Retrieval::Ivf` with `n_probe = n_clusters` is **bit-identical** to
//!   `Retrieval::Exact` — for `try_recommend` and `try_recommend_batch`,
//!   across block sizes, user blocks, cluster counts, and a concurrent
//!   publish (the index must be rebuilt, not served stale).
//! * Partial probes always return a subset of the exact ranking with
//!   bit-identical scores, and recall on a *clustered* catalogue (the
//!   regime IVF exists for) stays high at a small probe fraction.

use gb_eval::metrics::recall_vs_exact;
use gb_models::EmbeddingSnapshot;
use gb_serve::{EngineConfig, QueryEngine, Retrieval, ScoredItem};
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

fn pairs(items: &Arc<Vec<ScoredItem>>) -> Vec<(u32, u32)> {
    items.iter().map(|e| (e.item, e.score.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The tentpole exactness envelope: probing every cell routes the
    /// query through k-means centroids, inverted lists, and the gathered
    /// scoring kernel — and still reproduces the exhaustive catalogue
    /// walk bit-for-bit, before and after a hot publish.
    #[test]
    fn ivf_full_probe_is_bitwise_exact(
        seed in 0u64..1 << 32,
        user_block in 1usize..=8,
        k in 1usize..=12,
        n_clusters in 1usize..=12,
        users in proptest::collection::vec(0u32..40, 1..16),
    ) {
        let v1 = snapshot(seed % 5, 40, 137, 8);
        let v2 = snapshot(seed % 5 + 1, 40, 137, 8);
        let exact = QueryEngine::new(v1.clone());
        let ivf = QueryEngine::with_config(
            v1,
            EngineConfig {
                user_block,
                retrieval: Retrieval::Ivf { n_clusters, n_probe: n_clusters },
                ..Default::default()
            },
        );

        for &user in &users {
            prop_assert_eq!(
                pairs(&ivf.try_recommend(user, k).unwrap()),
                pairs(&exact.try_recommend(user, k).unwrap()),
                "pre-publish user {} (clusters {})", user, n_clusters
            );
        }
        let (_, many) = ivf.try_recommend_batch(&users, k).unwrap();
        for (slot, &user) in users.iter().enumerate() {
            prop_assert_eq!(
                pairs(&many[slot]),
                pairs(&exact.try_recommend(user, k).unwrap()),
                "pre-publish batched user {}", user
            );
        }

        // Publish to both engines: the IVF index must be rebuilt for the
        // new version, never served stale.
        exact.handle().publish(v2.clone());
        ivf.handle().publish(v2);
        for &user in &users {
            prop_assert_eq!(
                pairs(&ivf.try_recommend(user, k).unwrap()),
                pairs(&exact.try_recommend(user, k).unwrap()),
                "post-publish user {}", user
            );
        }
        prop_assert_eq!(ivf.ivf_index_version(), Some(2));
    }

    /// Partial probes prune candidates but never perturb them: every
    /// returned item carries the exact pass's bit-identical score and the
    /// returned order embeds into the exact full ranking.
    #[test]
    fn ivf_partial_probe_embeds_into_exact_ranking(
        seed in 0u64..1 << 32,
        n_clusters in 2usize..=12,
        n_probe in 1usize..=12,
        user in 0u32..40,
        k in 1usize..=20,
    ) {
        let snap = snapshot(seed % 9, 40, 150, 8);
        let exact = QueryEngine::new(snap.clone());
        let ivf = QueryEngine::with_config(
            snap,
            EngineConfig {
                retrieval: Retrieval::Ivf { n_clusters, n_probe },
                ..Default::default()
            },
        );
        let full = exact.try_recommend(user, 150).unwrap();
        let approx = ivf.try_recommend(user, k).unwrap();
        let mut last_pos = 0usize;
        for e in approx.iter() {
            let pos = full.iter().position(|f| f.item == e.item);
            prop_assert!(pos.is_some(), "item {} not in the exact ranking", e.item);
            let pos = pos.expect("checked");
            prop_assert_eq!(e.score.to_bits(), full[pos].score.to_bits());
            prop_assert!(pos >= last_pos, "order must embed into the exact ranking");
            last_pos = pos;
        }
    }
}

/// A catalogue with genuine cluster structure — `n_cats` latent
/// categories, items = category center + small noise. This is the regime
/// IVF targets: real item embeddings are clustered, and the cells k-means
/// recovers route most of any user's top-K into a few lists.
fn clustered_snapshot(
    n_users: usize,
    n_items: usize,
    d: usize,
    n_cats: usize,
) -> EmbeddingSnapshot {
    let center = |cat: usize, c: usize| ((cat * 31 + c * 17) as f32 * 0.73).sin();
    let noise = |r: usize, c: usize| ((r * 13 + c * 7) as f32 * 0.37).sin() * 0.12;
    EmbeddingSnapshot::new(
        0.4,
        Matrix::from_fn(n_users, d, |r, c| ((r * 7 + c * 3) as f32 * 0.29).sin()),
        Matrix::from_fn(n_items, d, |r, c| center(r % n_cats, c) + noise(r, c)),
        Matrix::from_fn(n_users, d, |r, c| ((r + c * 11) as f32 * 0.19).cos()),
        Matrix::from_fn(n_items, d, |r, c| {
            center(r % n_cats, c + d) + noise(r + n_items, c)
        }),
    )
}

/// Recall@10 of partial-probe IVF against exact serving on clustered
/// data. Fully deterministic (fixed tables, seeded k-means), so the
/// asserted floor is stable, not flaky.
#[test]
fn ivf_recall_stays_high_on_clustered_catalogue() {
    let snap = clustered_snapshot(24, 2000, 16, 16);
    let exact = QueryEngine::new(snap.clone());
    let ivf = QueryEngine::with_config(
        snap,
        EngineConfig {
            retrieval: Retrieval::Ivf {
                n_clusters: 16,
                n_probe: 4,
            },
            ..Default::default()
        },
    );
    let mut total = 0.0f64;
    for user in 0..24u32 {
        let e: Vec<u32> = exact
            .try_recommend(user, 10)
            .unwrap()
            .iter()
            .map(|x| x.item)
            .collect();
        let a: Vec<u32> = ivf
            .try_recommend(user, 10)
            .unwrap()
            .iter()
            .map(|x| x.item)
            .collect();
        total += recall_vs_exact(&e, &a) as f64;
    }
    let recall = total / 24.0;
    assert!(
        recall >= 0.95,
        "recall@10 {recall} below 0.95 at a 4/16 probe fraction"
    );
}

/// The cache composes with IVF exactly as with exact retrieval: entries
/// are keyed by version, hits are pointer-equal, and a publish makes the
/// old entries unreachable.
#[test]
fn ivf_results_cache_and_invalidate_by_version() {
    let v1 = snapshot(1, 10, 90, 8);
    let v2 = snapshot(2, 10, 90, 8);
    let engine = QueryEngine::with_config(
        v1,
        EngineConfig {
            cache_capacity: 8,
            retrieval: Retrieval::Ivf {
                n_clusters: 5,
                n_probe: 2,
            },
            ..Default::default()
        },
    );
    let first = engine.try_recommend(3, 5).unwrap();
    let second = engine.try_recommend(3, 5).unwrap();
    assert!(Arc::ptr_eq(&first, &second), "second query is a cache hit");
    assert_eq!(engine.cache_stats(), (1, 1));
    engine.handle().publish(v2);
    let fresh = engine.try_recommend(3, 5).unwrap();
    assert!(
        !Arc::ptr_eq(&first, &fresh),
        "a v1 response must not serve v2"
    );
    assert_eq!(engine.cache_stats(), (1, 2));
}
