//! Negative sampling (Sec. III-C.2) and test-candidate sampling
//! (Sec. IV-A.2).

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::Rng;

/// Samples unobserved items for users.
///
/// Two uses, matching the paper:
/// * **training** — for each observed behavior, draw `k` items the user has
///   never interacted with (negative sampling ratio 1:1 in the paper's
///   main experiments);
/// * **evaluation** — draw the 999 candidate items that the test item is
///   ranked against.
pub struct NegativeSampler {
    n_items: usize,
    /// Per-user sorted interacted-item lists (both roles).
    interacted: Vec<Vec<u32>>,
}

impl NegativeSampler {
    /// Builds the sampler from a dataset's interaction sets.
    pub fn from_dataset(dataset: &Dataset) -> Self {
        Self {
            n_items: dataset.n_items(),
            interacted: dataset.interacted_items(),
        }
    }

    /// Whether `user` has interacted with `item` in any role.
    pub fn is_positive(&self, user: u32, item: u32) -> bool {
        self.interacted[user as usize].binary_search(&item).is_ok()
    }

    /// Number of items a user has interacted with.
    pub fn n_positives(&self, user: u32) -> usize {
        self.interacted[user as usize].len()
    }

    /// Draws one unobserved item for `user` by rejection sampling.
    ///
    /// # Panics
    /// Panics if the user has interacted with every item.
    pub fn sample_one(&self, user: u32, rng: &mut StdRng) -> u32 {
        let positives = &self.interacted[user as usize];
        assert!(
            positives.len() < self.n_items,
            "user {user} interacted with all {} items",
            self.n_items
        );
        loop {
            let item = rng.gen_range(0..self.n_items) as u32;
            if positives.binary_search(&item).is_err() {
                return item;
            }
        }
    }

    /// Draws `k` *distinct* unobserved items, excluding `extra_exclude` —
    /// the evaluation-candidate sampler (999 negatives per test instance;
    /// `extra_exclude` carries the held-out test item, which is excluded
    /// from the user's training positives by construction).
    pub fn sample_distinct(
        &self,
        user: u32,
        k: usize,
        extra_exclude: &[u32],
        rng: &mut StdRng,
    ) -> Vec<u32> {
        let positives = &self.interacted[user as usize];
        let mut seen = std::collections::HashSet::with_capacity(k + extra_exclude.len());
        // Count only excludes that actually shrink the sampleable pool:
        // an exclude that is already a positive (or a duplicate, or out
        // of catalogue range) removes nothing the positives haven't
        // already removed. Over-counting here used to spuriously panic
        // for dense users on small catalogues even though `k` distinct
        // negatives existed.
        let mut effective_excludes = 0usize;
        for &e in extra_exclude {
            if seen.insert(e) && (e as usize) < self.n_items && positives.binary_search(&e).is_err()
            {
                effective_excludes += 1;
            }
        }
        let available = self.n_items - positives.len() - effective_excludes;
        assert!(
            available >= k,
            "cannot draw {k} distinct negatives: only {available} \
             non-positive non-excluded items exist"
        );
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let item = rng.gen_range(0..self.n_items) as u32;
            if positives.binary_search(&item).is_ok() || !seen.insert(item) {
                continue;
            }
            out.push(item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::GroupBehavior;
    use rand::SeedableRng;

    fn dataset() -> Dataset {
        Dataset::new(
            2,
            10,
            vec![
                GroupBehavior::new(0, 3, vec![1]),
                GroupBehavior::new(0, 7, vec![]),
            ],
            vec![(0, 1)],
            vec![1; 10],
        )
    }

    #[test]
    fn negatives_are_never_positives() {
        let s = NegativeSampler::from_dataset(&dataset());
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            let n = s.sample_one(0, &mut rng);
            assert!(n != 3 && n != 7);
        }
        // User 1 participated in item 3 only.
        for _ in 0..200 {
            assert_ne!(s.sample_one(1, &mut rng), 3);
        }
    }

    #[test]
    fn distinct_sampling_has_no_duplicates_and_respects_exclusions() {
        let s = NegativeSampler::from_dataset(&dataset());
        let mut rng = StdRng::seed_from_u64(1);
        let cands = s.sample_distinct(0, 6, &[9], &mut rng);
        assert_eq!(cands.len(), 6);
        let mut sorted = cands.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "duplicates drawn");
        assert!(!cands.contains(&9));
        assert!(!cands.contains(&3));
        assert!(!cands.contains(&7));
    }

    #[test]
    #[should_panic(expected = "distinct negatives")]
    fn distinct_sampling_rejects_impossible_requests() {
        let s = NegativeSampler::from_dataset(&dataset());
        let mut rng = StdRng::seed_from_u64(2);
        let _ = s.sample_distinct(0, 9, &[], &mut rng); // only 8 non-positives
    }

    #[test]
    fn distinct_sampling_boundary_with_positive_exclude() {
        // User 0's positives are {3, 7} over 10 items: exactly 8
        // non-positives. Excluding an item that is *already* a positive
        // must not shrink the counted pool — the pre-fix assert required
        // 8 >= 8 + 1 and panicked on a request that is satisfiable.
        let s = NegativeSampler::from_dataset(&dataset());
        let mut rng = StdRng::seed_from_u64(3);
        let cands = s.sample_distinct(0, 8, &[3], &mut rng);
        assert_eq!(cands.len(), 8);
        let mut sorted = cands.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn distinct_sampling_ignores_duplicate_and_out_of_range_excludes() {
        let s = NegativeSampler::from_dataset(&dataset());
        let mut rng = StdRng::seed_from_u64(4);
        // [9, 9, 42]: one distinct in-range non-positive exclude (9);
        // the duplicate and the out-of-catalogue id cost nothing, so 7
        // distinct negatives remain and the draw must succeed.
        let cands = s.sample_distinct(0, 7, &[9, 9, 42], &mut rng);
        assert_eq!(cands.len(), 7);
        assert!(!cands.contains(&9) && !cands.contains(&3) && !cands.contains(&7));
    }

    #[test]
    #[should_panic(expected = "distinct negatives")]
    fn distinct_sampling_still_rejects_truly_impossible_requests() {
        // 8 non-positives, one genuinely excluded -> 7 available < 8.
        let s = NegativeSampler::from_dataset(&dataset());
        let mut rng = StdRng::seed_from_u64(5);
        let _ = s.sample_distinct(0, 8, &[9], &mut rng);
    }

    #[test]
    fn is_positive_covers_participant_role() {
        let s = NegativeSampler::from_dataset(&dataset());
        assert!(s.is_positive(0, 3));
        assert!(s.is_positive(1, 3)); // participant role counts
        assert!(!s.is_positive(1, 7));
        assert_eq!(s.n_positives(0), 2);
    }
}
