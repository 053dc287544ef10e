//! Mini-batch construction for the double-pairwise loss (Sec. III-C.2).
//!
//! A batch samples group-buying behaviors, attaches `k` negative items to
//! each (Sec. III-C.2's quadruples), and flattens them into the index
//! lists the loss needs:
//!
//! * **forward pairs** — `(user, observed item, negative item)` ranked
//!   `observed > negative`: the initiator of *every* behavior plus every
//!   participant of *successful* behaviors (Eqs. 10 first term, 11);
//! * **reversed pairs** — `(friend, negative item, failed item)` ranked
//!   `negative > failed`, weighted by `β`: every friend of the initiator
//!   of a *failed* behavior (Eq. 10 second term).

use gb_data::{Dataset, NegativeSampler};
use rand::rngs::StdRng;
use std::sync::Arc;

/// Flattened index lists for one training batch.
///
/// The index vectors are `Arc`-shared: the gather ops on the tape keep a
/// handle to the very vectors built at batch/split time, so a grad step
/// never re-clones them (they used to be copied once per gather per
/// step).
#[derive(Debug, Default)]
pub struct LossBatch {
    /// Users of the forward BPR pairs (initiators + successful
    /// participants).
    pub fwd_users: Arc<Vec<u32>>,
    /// Observed items of the forward pairs.
    pub fwd_pos: Arc<Vec<u32>>,
    /// Negative items of the forward pairs.
    pub fwd_neg: Arc<Vec<u32>>,
    /// Friends of failed-behavior initiators (reversed pairs).
    pub rev_users: Arc<Vec<u32>>,
    /// The *negative* item, ranked higher for the friend (Eq. 10).
    pub rev_pos: Arc<Vec<u32>>,
    /// The failed target item, ranked lower for the friend.
    pub rev_neg: Arc<Vec<u32>>,
    /// Number of behaviors represented (loss normalizer).
    pub n_behaviors: usize,
}

impl LossBatch {
    /// Assembles a batch from the behaviors at `indices`.
    pub fn build(
        dataset: &Dataset,
        indices: &[usize],
        neg_ratio: usize,
        sampler: &NegativeSampler,
        rng: &mut StdRng,
    ) -> Self {
        let mut fwd_users = Vec::new();
        let mut fwd_pos = Vec::new();
        let mut fwd_neg = Vec::new();
        let mut rev_users = Vec::new();
        let mut rev_pos = Vec::new();
        let mut rev_neg = Vec::new();
        for &idx in indices {
            let b = &dataset.behaviors()[idx];
            let successful = dataset.is_successful(b);
            for _ in 0..neg_ratio.max(1) {
                let neg = sampler.sample_one(b.initiator, rng);
                // Initiator term: present for successful AND failed
                // behaviors (the initiator did want the item).
                fwd_users.push(b.initiator);
                fwd_pos.push(b.item);
                fwd_neg.push(neg);
                if successful {
                    // Participants wanted the item too (Eq. 11).
                    for &p in &b.participants {
                        fwd_users.push(p);
                        fwd_pos.push(b.item);
                        fwd_neg.push(neg);
                    }
                } else {
                    // Friends implicitly rejected the item (Eq. 10):
                    // ranked the unobserved item above the failed one.
                    for &f in dataset.social().friends(b.initiator) {
                        rev_users.push(f);
                        rev_pos.push(neg);
                        rev_neg.push(b.item);
                    }
                }
            }
        }
        LossBatch {
            fwd_users: Arc::new(fwd_users),
            fwd_pos: Arc::new(fwd_pos),
            fwd_neg: Arc::new(fwd_neg),
            rev_users: Arc::new(rev_users),
            rev_pos: Arc::new(rev_pos),
            rev_neg: Arc::new(rev_neg),
            n_behaviors: indices.len() * neg_ratio.max(1),
        }
    }

    /// Whether the batch carries no loss pairs at all (neither forward
    /// nor reversed). Empty batches must never reach the shard executor —
    /// the trainers skip them up front.
    pub fn is_empty(&self) -> bool {
        self.fwd_users.is_empty() && self.rev_users.is_empty()
    }

    /// Splits the batch into up to `n_shards` contiguous sub-batches for
    /// the sharded trainer.
    ///
    /// Forward and reversed pair lists are chunked independently (their
    /// lengths are unrelated), and every shard keeps the parent's
    /// `n_behaviors` so per-shard losses stay on the parent's
    /// normalization — the shard-summed loss equals the unsharded loss up
    /// to the regularization terms, which de-duplicate touched users and
    /// items per shard rather than per batch. Shards empty on both sides
    /// are dropped.
    ///
    /// The decomposition is a pure function of `(self, n_shards)`: it is
    /// the determinism anchor that makes parallel execution bit-identical
    /// to serial execution at the same shard count.
    pub fn split(&self, n_shards: usize) -> Vec<LossBatch> {
        let n = n_shards.max(1);
        let fwd_chunk = self.fwd_users.len().div_ceil(n).max(1);
        let rev_chunk = self.rev_users.len().div_ceil(n).max(1);
        let mut shards = Vec::with_capacity(n);
        for s in 0..n {
            let f0 = (s * fwd_chunk).min(self.fwd_users.len());
            let f1 = ((s + 1) * fwd_chunk).min(self.fwd_users.len());
            let r0 = (s * rev_chunk).min(self.rev_users.len());
            let r1 = ((s + 1) * rev_chunk).min(self.rev_users.len());
            if f0 == f1 && r0 == r1 {
                continue;
            }
            shards.push(LossBatch {
                fwd_users: Arc::new(self.fwd_users[f0..f1].to_vec()),
                fwd_pos: Arc::new(self.fwd_pos[f0..f1].to_vec()),
                fwd_neg: Arc::new(self.fwd_neg[f0..f1].to_vec()),
                rev_users: Arc::new(self.rev_users[r0..r1].to_vec()),
                rev_pos: Arc::new(self.rev_pos[r0..r1].to_vec()),
                rev_neg: Arc::new(self.rev_neg[r0..r1].to_vec()),
                n_behaviors: self.n_behaviors,
            });
        }
        shards
    }

    /// The same pairs with every user id replaced by its position in
    /// `users` and — when `items` is given — every item id by its position
    /// in `items`: the batch as it indexes *compact* tables holding only
    /// those rows. Both lists must be sorted, distinct and cover the
    /// batch ([`LossBatch::touched_users`] / [`LossBatch::touched_items`]
    /// are); the cost is `O(pairs · log rows)`, never a function of the
    /// full table sizes.
    pub(crate) fn to_local_rows(&self, users: &[u32], items: Option<&[u32]>) -> LossBatch {
        let local = |ids: &Arc<Vec<u32>>, rows: Option<&[u32]>| match rows {
            None => Arc::clone(ids),
            Some(rows) => Arc::new(
                ids.iter()
                    .map(|id| {
                        // invariant: `rows` lists every id of the batch
                        // (the caller computed it from this batch).
                        rows.binary_search(id)
                            .expect("batch id missing from its row list")
                            as u32
                    })
                    .collect(),
            ),
        };
        LossBatch {
            fwd_users: local(&self.fwd_users, Some(users)),
            fwd_pos: local(&self.fwd_pos, items),
            fwd_neg: local(&self.fwd_neg, items),
            rev_users: local(&self.rev_users, Some(users)),
            rev_pos: local(&self.rev_pos, items),
            rev_neg: local(&self.rev_neg, items),
            n_behaviors: self.n_behaviors,
        }
    }

    /// All distinct users appearing in the batch (for regularization),
    /// strictly ascending. The trainer gathers a shard's table rows at
    /// this list, and the tape keeps their cotangents row-sparse only for
    /// strictly ascending gathers.
    pub fn touched_users(&self) -> Vec<u32> {
        let mut users: Vec<u32> = self
            .fwd_users
            .iter()
            .chain(self.rev_users.iter())
            .copied()
            .collect();
        users.sort_unstable();
        users.dedup();
        users
    }

    /// All distinct items appearing in the batch, strictly ascending (as
    /// [`LossBatch::touched_users`]).
    pub(crate) fn touched_items(&self) -> Vec<u32> {
        let mut items: Vec<u32> = self
            .fwd_pos
            .iter()
            .chain(self.fwd_neg.iter())
            .chain(self.rev_pos.iter())
            .chain(self.rev_neg.iter())
            .copied()
            .collect();
        items.sort_unstable();
        items.dedup();
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_data::synth::{generate, SynthConfig};
    use gb_data::GroupBehavior;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn dataset() -> Dataset {
        Dataset::new(
            5,
            10,
            vec![
                GroupBehavior::new(0, 0, vec![1, 2]), // success (t=1)
                GroupBehavior::new(3, 1, vec![]),     // failed: friends 4
            ],
            vec![(0, 1), (0, 2), (3, 4)],
            vec![1; 10],
        )
    }

    #[test]
    fn successful_behavior_contributes_initiator_and_participants() {
        let d = dataset();
        let sampler = NegativeSampler::from_dataset(&d);
        let mut rng = StdRng::seed_from_u64(0);
        let b = LossBatch::build(&d, &[0], 1, &sampler, &mut rng);
        // initiator + 2 participants
        assert_eq!(*b.fwd_users, vec![0, 1, 2]);
        assert_eq!(*b.fwd_pos, vec![0, 0, 0]);
        assert_eq!(b.fwd_neg.len(), 3);
        // same negative shared within the behavior
        assert!(b.fwd_neg.iter().all(|&n| n == b.fwd_neg[0]));
        assert!(b.rev_users.is_empty());
        assert_eq!(b.n_behaviors, 1);
    }

    #[test]
    fn failed_behavior_contributes_initiator_and_reversed_friends() {
        let d = dataset();
        let sampler = NegativeSampler::from_dataset(&d);
        let mut rng = StdRng::seed_from_u64(0);
        let b = LossBatch::build(&d, &[1], 1, &sampler, &mut rng);
        assert_eq!(*b.fwd_users, vec![3]); // initiator still a positive pair
        assert_eq!(*b.rev_users, vec![4]); // friend 4 gets the reversed pair
        assert_eq!(*b.rev_neg, vec![1]); // failed item ranked lower
        assert_eq!(b.rev_pos.len(), 1); // the sampled negative ranked higher
        assert_ne!(b.rev_pos[0], 1);
    }

    #[test]
    fn neg_ratio_multiplies_quadruples() {
        let d = dataset();
        let sampler = NegativeSampler::from_dataset(&d);
        let mut rng = StdRng::seed_from_u64(0);
        let b = LossBatch::build(&d, &[0], 3, &sampler, &mut rng);
        assert_eq!(b.fwd_users.len(), 9); // 3 negatives x (1 init + 2 parts)
        assert_eq!(b.n_behaviors, 3);
    }

    #[test]
    fn negatives_are_unobserved_for_the_initiator() {
        let d = dataset();
        let sampler = NegativeSampler::from_dataset(&d);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            // Behavior 0's initiator is user 0, whose positives are {0}.
            let b = LossBatch::build(&d, &[0], 1, &sampler, &mut rng);
            assert!(b.fwd_neg.iter().all(|&n| !sampler.is_positive(0, n)));
            // Behavior 1's initiator is user 3, whose positives are {1}.
            let b = LossBatch::build(&d, &[1], 1, &sampler, &mut rng);
            assert!(b.fwd_neg.iter().all(|&n| !sampler.is_positive(3, n)));
        }
    }

    #[test]
    fn split_partitions_pairs_without_loss_or_reorder() {
        let d = dataset();
        let sampler = NegativeSampler::from_dataset(&d);
        let mut rng = StdRng::seed_from_u64(7);
        let b = LossBatch::build(&d, &[0, 1, 0, 1], 3, &sampler, &mut rng);
        for n_shards in 1..=8 {
            let shards = b.split(n_shards);
            assert!(shards.len() <= n_shards);
            let fwd: Vec<u32> = shards
                .iter()
                .flat_map(|s| s.fwd_users.iter().copied())
                .collect();
            let rev: Vec<u32> = shards
                .iter()
                .flat_map(|s| s.rev_users.iter().copied())
                .collect();
            assert_eq!(fwd, *b.fwd_users, "{n_shards} shards");
            assert_eq!(rev, *b.rev_users, "{n_shards} shards");
            assert!(shards.iter().all(|s| s.n_behaviors == b.n_behaviors));
            // Aligned lists stay aligned within every shard.
            for s in &shards {
                assert_eq!(s.fwd_users.len(), s.fwd_pos.len());
                assert_eq!(s.fwd_users.len(), s.fwd_neg.len());
                assert_eq!(s.rev_users.len(), s.rev_pos.len());
                assert_eq!(s.rev_users.len(), s.rev_neg.len());
            }
        }
    }

    #[test]
    fn split_one_is_the_identity_decomposition() {
        let d = dataset();
        let sampler = NegativeSampler::from_dataset(&d);
        let mut rng = StdRng::seed_from_u64(0);
        let b = LossBatch::build(&d, &[0, 1], 2, &sampler, &mut rng);
        let shards = b.split(1);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].fwd_users, b.fwd_users);
        assert_eq!(shards[0].rev_neg, b.rev_neg);
        assert_eq!(shards[0].n_behaviors, b.n_behaviors);
    }

    #[test]
    fn split_drops_fully_empty_shards() {
        let b = LossBatch {
            fwd_users: Arc::new(vec![1, 2]),
            fwd_pos: Arc::new(vec![0, 0]),
            fwd_neg: Arc::new(vec![3, 4]),
            n_behaviors: 2,
            ..Default::default()
        };
        let shards = b.split(8);
        assert_eq!(shards.len(), 2, "only two one-pair shards survive");
        let empty = LossBatch::default();
        assert!(empty.split(4).is_empty());
    }

    #[test]
    fn local_rows_index_the_touched_lists() {
        let d = dataset();
        let sampler = NegativeSampler::from_dataset(&d);
        let mut rng = StdRng::seed_from_u64(3);
        let b = LossBatch::build(&d, &[0, 1, 1, 0], 2, &sampler, &mut rng);
        let (users, items) = (b.touched_users(), b.touched_items());
        let through = |local: &[u32], rows: &[u32]| -> Vec<u32> {
            local.iter().map(|&r| rows[r as usize]).collect()
        };
        let both = b.to_local_rows(&users, Some(&items));
        assert_eq!(through(&both.fwd_users, &users), *b.fwd_users);
        assert_eq!(through(&both.rev_users, &users), *b.rev_users);
        assert_eq!(through(&both.fwd_pos, &items), *b.fwd_pos);
        assert_eq!(through(&both.fwd_neg, &items), *b.fwd_neg);
        assert_eq!(through(&both.rev_pos, &items), *b.rev_pos);
        assert_eq!(through(&both.rev_neg, &items), *b.rev_neg);
        assert_eq!(both.n_behaviors, b.n_behaviors);
        // Without an item list the item ids stay global.
        let users_only = b.to_local_rows(&users, None);
        assert_eq!(users_only.fwd_users, both.fwd_users);
        assert_eq!(users_only.fwd_neg, b.fwd_neg);
        assert_eq!(users_only.rev_pos, b.rev_pos);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tape keeps a shard's table cotangents row-sparse only when
        /// its gathers' indices are strictly ascending: were these lists
        /// ever unsorted or repeated, every bit would stay right and the
        /// sparse backward would silently stop running.
        #[test]
        fn every_shards_touched_lists_are_strictly_ascending_and_in_range(
            picks in prop::collection::vec(0usize..10_000, 0..48),
            neg_ratio in 1usize..=3,
            seed in 0u64..1_000,
        ) {
            let d = generate(&SynthConfig::tiny());
            let indices: Vec<usize> = picks.iter().map(|p| p % d.behaviors().len()).collect();
            let sampler = NegativeSampler::from_dataset(&d);
            let mut rng = StdRng::seed_from_u64(seed);
            let batch = LossBatch::build(&d, &indices, neg_ratio, &sampler, &mut rng);
            for n_shards in 1..=8 {
                for shard in std::iter::once(&batch).chain(&batch.split(n_shards)) {
                    for (ids, n) in [
                        (shard.touched_users(), d.n_users()),
                        (shard.touched_items(), d.n_items()),
                    ] {
                        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
                        prop_assert!(ids.iter().all(|&id| (id as usize) < n));
                    }
                }
            }
        }
    }

    #[test]
    fn touched_sets_are_sorted_and_deduped() {
        let d = dataset();
        let sampler = NegativeSampler::from_dataset(&d);
        let mut rng = StdRng::seed_from_u64(0);
        let b = LossBatch::build(&d, &[0, 1], 2, &sampler, &mut rng);
        let users = b.touched_users();
        assert!(users.windows(2).all(|w| w[0] < w[1]));
        let items = b.touched_items();
        assert!(items.windows(2).all(|w| w[0] < w[1]));
        assert!(items.contains(&0) && items.contains(&1));
    }
}
