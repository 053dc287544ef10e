//! Ranking metrics: Recall@K and NDCG@K (Sec. IV-A.2).
//!
//! Under leave-one-out with a single relevant item per user:
//!
//! * `Recall@K` is 1 if the test item appears in the top-K, else 0
//!   (equivalently HitRate@K);
//! * `NDCG@K` is `1 / log2(rank + 2)` if the test item is at 0-based
//!   `rank < K`, else 0 — the ideal DCG is 1, so no further
//!   normalization is needed.
//!
//! Reported values are means over all test users, exactly as the paper
//! reports them.

/// Recall@K of a single leave-one-out instance given the test item's
/// 0-based rank.
pub fn recall_at_k(rank: usize, k: usize) -> f32 {
    if rank < k {
        1.0
    } else {
        0.0
    }
}

/// NDCG@K of a single leave-one-out instance given the test item's
/// 0-based rank.
pub fn ndcg_at_k(rank: usize, k: usize) -> f32 {
    if rank < k {
        1.0 / ((rank as f32) + 2.0).log2()
    } else {
        0.0
    }
}

/// 0-based rank of the test item among candidates.
///
/// `test_score` is compared against every candidate score; ties are
/// counted as half a position (mid-rank convention), which is unbiased
/// when scores collide — important early in training when many scores
/// are near-identical.
///
/// A non-finite `test_score` ranks as a miss (`candidate_scores.len()`,
/// i.e. below every candidate): NaN compares false against everything,
/// so counting comparisons would rank a diverged model's NaN at 0 and
/// report Recall@K = 1.0. This mirrors the serving-side policy
/// (`gb-serve`'s `TopK::push` drops non-finite scores) — an
/// incomparable score is never treated as a hit. Candidates keep plain
/// comparison semantics: a NaN candidate is neither greater nor equal,
/// so it never pushes the test item down, while a `+∞` candidate *is*
/// greater and counts against the rank like any other larger score.
pub fn rank_of(test_score: f32, candidate_scores: &[f32]) -> usize {
    if !test_score.is_finite() {
        return candidate_scores.len();
    }
    let mut greater = 0usize;
    let mut equal = 0usize;
    for &s in candidate_scores {
        if s > test_score {
            greater += 1;
        } else if s == test_score {
            equal += 1;
        }
    }
    greater + equal / 2
}

/// Fraction of an exact (reference) top-K that an approximate ranking
/// retrieved — the recall-vs-exact measurement for approximate retrieval
/// (e.g. the IVF serving mode in `gb-serve`). Order does not matter,
/// only membership; an empty exact ranking is trivially fully recalled.
pub fn recall_vs_exact(exact: &[u32], approx: &[u32]) -> f32 {
    if exact.is_empty() {
        return 1.0;
    }
    let hits = exact.iter().filter(|i| approx.contains(i)).count();
    hits as f32 / exact.len() as f32
}

/// Aggregated ranking metrics at several cutoffs, with per-user values
/// retained for significance testing.
#[derive(Clone, Debug)]
pub struct RankingMetrics {
    /// Cutoffs `K` (the paper uses {3, 5, 10, 20}).
    pub ks: Vec<usize>,
    /// `per_user_recall[u][i]` = Recall@ks\[i\] of the u-th test instance.
    pub per_user_recall: Vec<Vec<f32>>,
    /// `per_user_ndcg[u][i]` = NDCG@ks\[i\] of the u-th test instance.
    pub per_user_ndcg: Vec<Vec<f32>>,
}

impl RankingMetrics {
    /// Creates an empty accumulator for the given cutoffs.
    pub fn new(ks: Vec<usize>) -> Self {
        Self {
            ks,
            per_user_recall: Vec::new(),
            per_user_ndcg: Vec::new(),
        }
    }

    /// Records one test instance by the test item's 0-based rank.
    pub(crate) fn push_rank(&mut self, rank: usize) {
        self.per_user_recall
            .push(self.ks.iter().map(|&k| recall_at_k(rank, k)).collect());
        self.per_user_ndcg
            .push(self.ks.iter().map(|&k| ndcg_at_k(rank, k)).collect());
    }

    /// Number of evaluated instances.
    pub fn n_users(&self) -> usize {
        self.per_user_recall.len()
    }

    /// Mean Recall@ks\[i\] over users.
    pub fn recall(&self, i: usize) -> f64 {
        mean_column(&self.per_user_recall, i)
    }

    /// Mean NDCG@ks\[i\] over users.
    fn ndcg(&self, i: usize) -> f64 {
        mean_column(&self.per_user_ndcg, i)
    }

    /// Mean Recall at a specific cutoff `k` (must be one of `ks`).
    pub fn recall_at(&self, k: usize) -> f64 {
        self.recall(self.k_index(k))
    }

    /// Mean NDCG at a specific cutoff `k` (must be one of `ks`).
    pub fn ndcg_at(&self, k: usize) -> f64 {
        self.ndcg(self.k_index(k))
    }

    fn k_index(&self, k: usize) -> usize {
        self.ks
            .iter()
            .position(|&kk| kk == k)
            .unwrap_or_else(|| panic!("cutoff {k} not evaluated (have {:?})", self.ks))
    }

    /// Per-user column of NDCG@k values (for paired tests).
    pub fn ndcg_column(&self, k: usize) -> Vec<f32> {
        let i = self.k_index(k);
        self.per_user_ndcg.iter().map(|r| r[i]).collect()
    }
}

fn mean_column(rows: &[Vec<f32>], i: usize) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|r| r[i] as f64).sum::<f64>() / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recall_is_top_k_membership() {
        assert_eq!(recall_at_k(0, 1), 1.0);
        assert_eq!(recall_at_k(2, 3), 1.0);
        assert_eq!(recall_at_k(3, 3), 0.0);
        assert_eq!(recall_at_k(100, 20), 0.0);
    }

    #[test]
    fn ndcg_decays_with_rank() {
        assert_eq!(ndcg_at_k(0, 10), 1.0);
        assert!((ndcg_at_k(1, 10) - 1.0 / 3.0_f32.log2()).abs() < 1e-6);
        assert!(ndcg_at_k(1, 10) > ndcg_at_k(2, 10));
        assert_eq!(ndcg_at_k(10, 10), 0.0);
    }

    #[test]
    fn rank_counts_strictly_greater() {
        assert_eq!(rank_of(0.5, &[0.9, 0.4, 0.3]), 1);
        assert_eq!(rank_of(1.0, &[0.1, 0.2]), 0);
        assert_eq!(rank_of(0.0, &[0.5, 0.5, 0.5]), 3);
    }

    #[test]
    fn non_finite_test_score_is_a_miss_not_a_hit() {
        // NaN compares false against everything, so the pre-fix
        // comparison count ranked it 0 — a diverged model evaluated as
        // perfect. All non-finite test scores rank below every candidate.
        let cands = [0.9f32, 0.1, -0.5];
        for bad in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(rank_of(bad, &cands), 3, "test_score {bad}");
            assert_eq!(recall_at_k(rank_of(bad, &cands), 3), 0.0);
            assert_eq!(ndcg_at_k(rank_of(bad, &cands), 3), 0.0);
        }
        // A finite test score against all-NaN candidates stays rank 0:
        // the guard applies to the test score, not the candidates.
        assert_eq!(rank_of(0.5, &[f32::NAN, f32::NAN]), 0);
    }

    #[test]
    fn nan_candidates_rank_below_finite_test_scores() {
        // A NaN candidate is neither greater nor equal: it never pushes
        // the test item down.
        assert_eq!(rank_of(0.5, &[f32::NAN, 0.9, f32::NAN, 0.1]), 1);
        // An infinite candidate, by contrast, compares normally: +inf
        // counts as greater, -inf as smaller.
        assert_eq!(rank_of(0.5, &[f32::INFINITY, f32::NEG_INFINITY]), 1);
    }

    #[test]
    fn recall_vs_exact_counts_membership() {
        assert_eq!(recall_vs_exact(&[1, 2, 3, 4], &[4, 9, 1, 7]), 0.5);
        assert_eq!(recall_vs_exact(&[1, 2], &[2, 1]), 1.0);
        assert_eq!(recall_vs_exact(&[5], &[]), 0.0);
        assert_eq!(recall_vs_exact(&[], &[3]), 1.0);
    }

    #[test]
    fn rank_mid_ranks_ties() {
        // two candidates tie with the test item -> half of them count.
        assert_eq!(rank_of(0.5, &[0.5, 0.5, 0.1]), 1);
    }

    #[test]
    fn aggregation_means_over_users() {
        let mut m = RankingMetrics::new(vec![1, 5]);
        m.push_rank(0); // hit@1, hit@5
        m.push_rank(3); // miss@1, hit@5
        m.push_rank(9); // miss both
        assert_eq!(m.n_users(), 3);
        assert!((m.recall_at(1) - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.recall_at(5) - 2.0 / 3.0).abs() < 1e-12);
        let expected_ndcg5 = (1.0 + 1.0 / 5.0_f64.log2()) / 3.0;
        assert!((m.ndcg_at(5) - expected_ndcg5).abs() < 1e-6);
    }

    #[test]
    fn per_user_columns_align() {
        let mut m = RankingMetrics::new(vec![3]);
        m.push_rank(1);
        m.push_rank(7);
        assert_eq!(m.per_user_recall, vec![vec![1.0], vec![0.0]]);
        assert_eq!(m.ndcg_column(3)[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "not evaluated")]
    fn unknown_cutoff_panics() {
        let m = RankingMetrics::new(vec![3]);
        m.recall_at(10);
    }
}
