//! The reference every served list is checked against:
//! `gb_eval::reference_topk` over the pinned version's tables, with the
//! candidate set the engine's composed seen + deal mask leaves.

use gb_eval::metrics::recall_vs_exact;
use gb_eval::reference_topk;
use gb_models::EmbeddingSnapshot;
use gb_serve::ScoredItem;

fn bit(words: Option<&[u64]>, item: usize) -> bool {
    words.is_some_and(|w| w.get(item / 64).is_some_and(|x| x >> (item % 64) & 1 == 1))
}

/// The reference top-`k` for `user`: every item neither seen by the
/// user nor deal-blocked, scored and fully sorted by the offline path.
pub fn reference(
    snapshot: &EmbeddingSnapshot,
    seen: Option<&[u64]>,
    deal: Option<&[u64]>,
    user: u32,
    k: usize,
) -> Vec<(u32, f32)> {
    let candidates: Vec<u32> = (0..snapshot.n_items())
        .filter(|&i| !bit(seen, i) && !bit(deal, i))
        .map(|i| i as u32)
        .collect();
    reference_topk(snapshot, user, &candidates, k)
}

/// Whether a served list equals the reference item for item, score bit
/// for score bit.
pub fn bitwise_equal(reply: &[ScoredItem], want: &[(u32, f32)]) -> bool {
    reply.len() == want.len()
        && reply
            .iter()
            .zip(want)
            .all(|(r, w)| r.item == w.0 && r.score.to_bits() == w.1.to_bits())
}

/// Share of the reference list an approximate reply retrieved.
pub fn recall(reply: &[ScoredItem], want: &[(u32, f32)]) -> f64 {
    let exact: Vec<u32> = want.iter().map(|w| w.0).collect();
    let approx: Vec<u32> = reply.iter().map(|r| r.item).collect();
    f64::from(recall_vs_exact(&exact, &approx))
}
