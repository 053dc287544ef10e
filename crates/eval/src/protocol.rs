//! The leave-one-out ranking protocol (Sec. IV-A.2).
//!
//! For every test instance `(user, held-out item)` the protocol draws
//! candidate items the user has never interacted with, asks the model to
//! score the held-out item among them, and accumulates Recall@K / NDCG@K
//! from the resulting rank. The paper samples 999 candidates from a
//! 30,782-item catalogue; with the scaled synthetic catalogue this
//! protocol also supports ranking against *all* non-interacted items,
//! which removes candidate-sampling noise entirely (strictly harder and
//! lower-variance).

use crate::metrics::{rank_of, RankingMetrics};
use gb_data::{NegativeSampler, TestInstance};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Anything that can score items for a user acting as an initiator.
///
/// Implemented by every baseline and by GBGCN; evaluation only ever calls
/// this after training, so implementations typically read from cached
/// final embeddings.
pub trait Scorer {
    /// Scores of `items` for `user` (higher = more recommendable).
    fn score_items(&self, user: u32, items: &[u32]) -> Vec<f32>;
}

/// How evaluation candidates are chosen per test instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateSet {
    /// Sample `n` distinct unobserved items (the paper uses 999). Falls
    /// back to [`CandidateSet::AllUnobserved`] when fewer exist.
    Sampled(usize),
    /// Rank against every unobserved item.
    AllUnobserved,
}

/// The evaluation protocol configuration.
#[derive(Clone, Debug)]
pub struct EvalProtocol {
    /// Candidate selection strategy.
    pub candidates: CandidateSet,
    /// Metric cutoffs (the paper reports K in {3, 5, 10, 20}).
    pub ks: Vec<usize>,
    /// Seed for candidate sampling.
    pub seed: u64,
}

impl Default for EvalProtocol {
    fn default() -> Self {
        Self {
            candidates: CandidateSet::Sampled(999),
            ks: vec![3, 5, 10, 20],
            seed: 0x5eed,
        }
    }
}

impl EvalProtocol {
    /// Paper-default protocol (999 sampled candidates, K ∈ {3,5,10,20}).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Protocol ranking against all unobserved items.
    pub fn exhaustive() -> Self {
        Self {
            candidates: CandidateSet::AllUnobserved,
            ..Self::default()
        }
    }

    /// Evaluates `scorer` on `instances`.
    ///
    /// `sampler` must be built from the **training** split so the held-out
    /// item is sampleable as a candidate exclusion.
    pub fn evaluate(
        &self,
        scorer: &dyn Scorer,
        instances: &[TestInstance],
        sampler: &NegativeSampler,
        n_items: usize,
    ) -> RankingMetrics {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut metrics = RankingMetrics::new(self.ks.clone());
        for inst in instances {
            let cands = self.candidates_for(inst, sampler, n_items, &mut rng);
            let mut all_items = Vec::with_capacity(cands.len() + 1);
            all_items.push(inst.item);
            all_items.extend_from_slice(&cands);
            let scores = scorer.score_items(inst.user, &all_items);
            debug_assert_eq!(scores.len(), all_items.len());
            let rank = rank_of(scores[0], &scores[1..]);
            metrics.push_rank(rank);
        }
        metrics
    }

    fn candidates_for(
        &self,
        inst: &TestInstance,
        sampler: &NegativeSampler,
        n_items: usize,
        rng: &mut StdRng,
    ) -> Vec<u32> {
        let all_unobserved = || -> Vec<u32> {
            (0..n_items as u32)
                .filter(|&i| i != inst.item && !sampler.is_positive(inst.user, i))
                .collect()
        };
        match self.candidates {
            CandidateSet::AllUnobserved => all_unobserved(),
            CandidateSet::Sampled(n) => {
                // The held-out item is not a training positive, so exclude
                // it explicitly; fall back to exhaustive when the catalogue
                // is too small for n distinct draws.
                let exclude_test = if sampler.is_positive(inst.user, inst.item) {
                    0
                } else {
                    1
                };
                let available = n_items - sampler.n_positives(inst.user) - exclude_test;
                if available <= n {
                    all_unobserved()
                } else {
                    sampler.sample_distinct(inst.user, n, &[inst.item], rng)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_data::{Dataset, GroupBehavior};

    /// Scores item ids directly: item k gets score -(k as f32), so item 0
    /// always ranks first.
    struct IdScorer;
    impl Scorer for IdScorer {
        fn score_items(&self, _user: u32, items: &[u32]) -> Vec<f32> {
            items.iter().map(|&i| -(i as f32)).collect()
        }
    }

    fn dataset() -> Dataset {
        Dataset::new(
            2,
            50,
            vec![
                GroupBehavior::new(0, 10, vec![1]),
                GroupBehavior::new(0, 11, vec![]),
                GroupBehavior::new(1, 12, vec![0]),
            ],
            vec![(0, 1)],
            vec![1; 50],
        )
    }

    #[test]
    fn perfect_scorer_gets_perfect_metrics() {
        let d = dataset();
        let sampler = NegativeSampler::from_dataset(&d);
        let protocol = EvalProtocol::exhaustive();
        // user 0 held out item 0 => IdScorer ranks it first.
        let instances = vec![TestInstance { user: 0, item: 0 }];
        let m = protocol.evaluate(&IdScorer, &instances, &sampler, d.n_items());
        assert_eq!(m.recall_at(3), 1.0);
        assert_eq!(m.ndcg_at(3), 1.0);
    }

    #[test]
    fn worst_scorer_gets_zero() {
        let d = dataset();
        let sampler = NegativeSampler::from_dataset(&d);
        let protocol = EvalProtocol::exhaustive();
        let instances = vec![TestInstance { user: 0, item: 49 }];
        let m = protocol.evaluate(&IdScorer, &instances, &sampler, d.n_items());
        assert_eq!(m.recall_at(20), 0.0);
        assert_eq!(m.ndcg_at(20), 0.0);
    }

    #[test]
    fn sampled_candidates_exclude_positives_and_test_item() {
        let d = dataset();
        let sampler = NegativeSampler::from_dataset(&d);
        let protocol = EvalProtocol {
            candidates: CandidateSet::Sampled(10),
            ks: vec![3],
            seed: 1,
        };
        let inst = TestInstance { user: 0, item: 5 };
        let mut rng = StdRng::seed_from_u64(1);
        let cands = protocol.candidates_for(&inst, &sampler, d.n_items(), &mut rng);
        assert_eq!(cands.len(), 10);
        assert!(!cands.contains(&5), "test item leaked into candidates");
        assert!(!cands.contains(&10) && !cands.contains(&11) && !cands.contains(&12));
    }

    #[test]
    fn sampled_falls_back_to_exhaustive_when_catalogue_small() {
        let d = dataset();
        let sampler = NegativeSampler::from_dataset(&d);
        let protocol = EvalProtocol {
            candidates: CandidateSet::Sampled(999),
            ks: vec![3],
            seed: 2,
        };
        let inst = TestInstance { user: 0, item: 5 };
        let mut rng = StdRng::seed_from_u64(2);
        let cands = protocol.candidates_for(&inst, &sampler, d.n_items(), &mut rng);
        // 50 items - 3 positives - 1 test item = 46 candidates.
        assert_eq!(cands.len(), 46);
    }

    #[test]
    fn evaluation_is_deterministic_per_seed() {
        let d = dataset();
        let sampler = NegativeSampler::from_dataset(&d);
        let protocol = EvalProtocol {
            candidates: CandidateSet::Sampled(20),
            ks: vec![3, 5],
            seed: 7,
        };
        let instances = vec![
            TestInstance { user: 0, item: 5 },
            TestInstance { user: 1, item: 9 },
        ];
        let a = protocol.evaluate(&IdScorer, &instances, &sampler, d.n_items());
        let b = protocol.evaluate(&IdScorer, &instances, &sampler, d.n_items());
        assert_eq!(a.per_user_recall, b.per_user_recall);
        assert_eq!(a.per_user_ndcg, b.per_user_ndcg);
    }
}
