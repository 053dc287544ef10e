//! Property tests for the IVF approximate retrieval layer (PR 5):
//!
//! * `Retrieval::Ivf` with `n_probe = n_clusters` is **bit-identical** to
//!   `Retrieval::Exact` — for `try_recommend` and `try_recommend_batch`,
//!   across block sizes, user blocks, cluster counts, and a concurrent
//!   publish (the index must be rebuilt, not served stale).
//! * Partial probes always return a subset of the exact ranking with
//!   bit-identical scores, and recall on a *clustered* catalogue (the
//!   regime IVF exists for) stays high at a small probe fraction.
//! * The per-cell bound that skips routed cells changes no reply: the
//!   engine and the router answer bit for bit what scoring every routed
//!   cell of the same index answers.

use gb_eval::metrics::recall_vs_exact;
use gb_eval::topk::reference_topk;
use gb_graph::BitMatrix;
use gb_models::{EmbeddingSnapshot, SnapshotDelta};
use gb_serve::{
    EngineConfig, IvfIndex, QueryEngine, Retrieval, ScoredItem, ShardPlan, ShardedConfig,
    ShardedEngine,
};
use gb_tensor::{init::xavier_uniform, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// The engine's k-means seed: the wall builds the index each core builds.
const IVF_SEED: u64 = 0x1BF5_2026;
const WALL_USERS: usize = 12;
const WALL_ITEMS: usize = 240;
const WALL_DIM: usize = 8;
const WALL_CELLS: usize = 8;

/// The wall's catalogue: Xavier items, or 8 categories of Xavier centres
/// plus 0.08 of Xavier noise (`clustered`). Every fifth item from the
/// ninth on repeats the row of its category one cycle back, so scores tie
/// at every rank; item 7's own row holds a NaN and item 100's social row
/// a `+∞`; the last user is all zeros (every finite score ties at 0) and
/// the one before it has a NaN.
fn wall_catalogue(seed: u64, clustered: bool, alpha: f32) -> EmbeddingSnapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let items = |rng: &mut StdRng| {
        let noise = xavier_uniform(WALL_ITEMS, WALL_DIM, rng);
        if !clustered {
            return noise;
        }
        let centres = xavier_uniform(WALL_CELLS, WALL_DIM, rng);
        Matrix::from_fn(WALL_ITEMS, WALL_DIM, |r, c| {
            centres.get(r % WALL_CELLS, c) + 0.08 * noise.get(r, c)
        })
    };
    let mut item_own = items(&mut rng);
    let mut item_social = items(&mut rng);
    for r in (WALL_CELLS..WALL_ITEMS).filter(|r| r % 5 == 0) {
        for table in [&mut item_own, &mut item_social] {
            let twin = table.row(r - WALL_CELLS).to_vec();
            table.row_mut(r).copy_from_slice(&twin);
        }
    }
    item_own.row_mut(7)[1] = f32::NAN;
    item_social.row_mut(100)[0] = f32::INFINITY;
    let mut user_own = xavier_uniform(WALL_USERS, WALL_DIM, &mut rng);
    let mut user_social = xavier_uniform(WALL_USERS, WALL_DIM, &mut rng);
    user_own.row_mut(WALL_USERS - 1).fill(0.0);
    user_social.row_mut(WALL_USERS - 1).fill(0.0);
    user_own.row_mut(WALL_USERS - 2)[3] = f32::NAN;
    EmbeddingSnapshot::new_trusted(alpha, user_own, item_own, user_social, item_social)
}

/// A delta that replaces two rows and appends one far row per user in
/// `far_users`: that user's own and social vectors times 6, which tops
/// their ranking and lands far outside every cell's first radius.
fn far_delta(snap: &EmbeddingSnapshot, changed: [u32; 2], far_users: [usize; 2]) -> SnapshotDelta {
    let mut delta = SnapshotDelta::new();
    for (n, item) in changed.into_iter().enumerate() {
        let row = |t: usize| {
            (0..WALL_DIM)
                .map(|c| ((c + t + n) as f32 * 0.7).sin() * 0.3)
                .collect()
        };
        delta = delta.set_item(item, row(0), row(3));
    }
    for user in far_users {
        let scaled = |row: &[f32]| row.iter().map(|v| 6.0 * v).collect();
        delta = delta.append_item(
            scaled(snap.user_own().row(user)),
            scaled(snap.user_social().row(user)),
        );
    }
    delta
}

/// What scoring every routed cell answers: per shard, the index the core
/// holds for this version and its slice of the catalogue.
struct RoutedReference {
    shards: Vec<(usize, EmbeddingSnapshot, IvfIndex)>,
}

impl RoutedReference {
    fn build(snap: &EmbeddingSnapshot, n_shards: usize) -> Self {
        let shards = ShardPlan::balanced(snap.n_items(), n_shards)
            .ranges()
            .iter()
            .map(|&(start, len)| {
                let slice = snap.slice_items(start, len);
                let index = IvfIndex::build(&slice, 1, WALL_CELLS, IVF_SEED, true);
                (start, slice, index)
            })
            .collect();
        Self { shards }
    }

    /// The successor's indexes after `delta`, updated the way a core
    /// with `ivf_incremental` updates: the last shard takes the appended
    /// rows, and each shard re-routes its own changed rows.
    fn update(&self, next: &EmbeddingSnapshot, version: u64, delta: &SnapshotDelta) -> Self {
        let last = self.shards.len() - 1;
        let changed = delta.changed_item_ids();
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, (start, prev, index))| {
                let appended = if s == last { delta.n_appended() } else { 0 };
                let slice = next.slice_items(*start, prev.n_items() + appended);
                let local: Vec<u32> = changed
                    .iter()
                    .filter(|&&g| (*start..*start + prev.n_items()).contains(&(g as usize)))
                    .map(|&g| g - *start as u32)
                    .collect();
                let index = index.update(&slice, version, &local, appended);
                (*start, slice, index)
            })
            .collect();
        Self { shards }
    }

    /// The first routed cell of every shard for `user`, as global ids.
    fn first_cells(&self, user: u32) -> Vec<u32> {
        (self.shards.iter())
            .flat_map(|(start, slice, index)| {
                let cell = index.probe_cells(slice, user, 1)[0];
                index.list(cell).iter().map(move |&i| i + *start as u32)
            })
            .collect()
    }

    /// Top `k` over every routed cell's unfiltered members, non-finite
    /// scores dropped, as `(item, score bits)`.
    fn reply(
        &self,
        snap: &EmbeddingSnapshot,
        user: u32,
        k: usize,
        n_probe: usize,
        seen: &BitMatrix,
        deal: &BitMatrix,
    ) -> Vec<(u32, u32)> {
        let blocked =
            |f: &BitMatrix, r: usize, g: u32| (g as usize) < f.cols() && f.contains(r, g as usize);
        let candidates: Vec<u32> = (self.shards.iter())
            .flat_map(|(start, slice, index)| {
                index
                    .probe_cells(slice, user, n_probe)
                    .into_iter()
                    .flat_map(move |cell| index.list(cell).iter().map(move |&i| i + *start as u32))
            })
            .filter(|&g| !blocked(seen, user as usize, g) && !blocked(deal, 0, g))
            .collect();
        reference_topk(snap, user, &candidates, candidates.len())
            .into_iter()
            .filter(|(_, score)| score.is_finite())
            .take(k)
            .map(|(item, score)| (item, score.to_bits()))
            .collect()
    }
}

/// One reply per user, in user order.
type Replies = Vec<Arc<Vec<ScoredItem>>>;

/// One engine under the wall: a single `QueryEngine` or a router.
enum Served {
    Single(QueryEngine),
    Sharded(ShardedEngine),
}

impl Served {
    fn new(snap: EmbeddingSnapshot, n_shards: usize, n_probe: usize, seen: BitMatrix) -> Self {
        let engine = EngineConfig {
            retrieval: Retrieval::Ivf {
                n_clusters: WALL_CELLS,
                n_probe,
            },
            ivf_incremental: true,
            ..Default::default()
        };
        if n_shards == 1 {
            return Self::Single(QueryEngine::with_config(snap, engine).with_seen_filter(seen));
        }
        let cfg = ShardedConfig {
            n_shards,
            engine,
            ..Default::default()
        };
        Self::Sharded(ShardedEngine::with_config(snap, cfg).with_seen_filter(seen))
    }

    fn set_deal_filter(&self, deal: BitMatrix) {
        match self {
            Self::Single(e) => e.set_deal_filter(deal),
            Self::Sharded(e) => e.set_deal_filter(deal),
        }
    }

    fn publish_delta(&self, delta: &SnapshotDelta) -> u64 {
        match self {
            Self::Single(e) => e.handle().publish_delta(delta),
            Self::Sharded(e) => e.publish_delta(delta),
        }
    }

    /// Each user alone, then all of them as one batch.
    fn replies(&self, users: &[u32], k: usize) -> (Replies, Replies) {
        match self {
            Self::Single(e) => (
                users
                    .iter()
                    .map(|&u| e.try_recommend(u, k).unwrap())
                    .collect(),
                e.try_recommend_batch(users, k).unwrap().1,
            ),
            Self::Sharded(e) => (
                users
                    .iter()
                    .map(|&u| e.try_recommend(u, k).unwrap().items)
                    .collect(),
                e.try_recommend_batch(users, k).unwrap().results,
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The bound's exactness wall: over clustered and Xavier catalogues,
    /// α ∈ {0, 0.6, 1}, seen and deal filters (a routed cell of every
    /// shard fully filtered for user 1, a whole cell for everyone), ties
    /// at every rank, non-finite item and user rows, `k` ∈ {0, 1, 7,
    /// more than the catalogue}, 1 and 3 shards and a chain of two
    /// incremental updates that append far rows, every reply — alone or
    /// batched — equals top-`k` over every routed cell's members of the
    /// same index, bit for bit.
    #[test]
    fn pruned_replies_equal_scoring_every_routed_cell(
        seed in 0u64..1 << 32,
        clustered in 0u8..2,
        n_probe in 1usize..=WALL_CELLS,
    ) {
        let users: Vec<u32> = (0..WALL_USERS as u32).collect();
        for alpha in [0.0f32, 0.6, 1.0] {
            for n_shards in [1usize, 3] {
                let mut snap = wall_catalogue(seed, clustered == 1, alpha);
                let mut reference = RoutedReference::build(&snap, n_shards);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5EE5);
                let mut seen = BitMatrix::zeros(WALL_USERS, WALL_ITEMS);
                let mut deal = BitMatrix::zeros(1, WALL_ITEMS);
                for user in 0..WALL_USERS {
                    for item in 0..WALL_ITEMS {
                        if rng.gen_bool(0.15) {
                            seen.set(user, item);
                        }
                    }
                }
                for item in reference.first_cells(1) {
                    seen.set(1, item as usize);
                }
                let (_, slice, index) = &reference.shards[0];
                for &item in index.list(index.probe_cells(slice, 0, 1)[0]) {
                    deal.set(0, item as usize);
                }
                for item in (3..WALL_ITEMS).step_by(17) {
                    deal.set(0, item);
                }
                let served = Served::new(snap.clone(), n_shards, n_probe, seen.clone());
                served.set_deal_filter(deal.clone());
                let deltas = [([3u32, 150], [0usize, 1]), ([41, 199], [2, 3])];
                for step in 0..=deltas.len() {
                    for k in [0, 1, 7, WALL_ITEMS + 10] {
                        let (alone, batched) = served.replies(&users, k);
                        for &user in &users {
                            let want = reference.reply(&snap, user, k, n_probe, &seen, &deal);
                            prop_assert_eq!(
                                pairs(&alone[user as usize]), want.clone(),
                                "user {} k {} α {} shards {} step {}", user, k, alpha, n_shards, step
                            );
                            prop_assert_eq!(
                                pairs(&batched[user as usize]), want,
                                "batched user {} k {} α {} shards {} step {}", user, k, alpha, n_shards, step
                            );
                        }
                    }
                    if let Some(&(changed, far)) = deltas.get(step) {
                        let delta = far_delta(&snap, changed, far);
                        let version = served.publish_delta(&delta);
                        snap = delta.apply(&snap);
                        reference = reference.update(&snap, version, &delta);
                    }
                }
            }
        }
    }
}
