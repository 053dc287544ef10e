//! Bounded top-K accumulation.
//!
//! The eval path materializes all candidate scores and sorts them —
//! `O(n log n)` time and `O(n)` memory per query. The serving engine
//! instead streams scores through a size-`k` binary min-heap: `O(n log k)`
//! worst case, and in practice most candidates fail the "beats the
//! current k-th best" check. The engine therefore offers whole score
//! blocks ([`TopK::offer_block`], [`TopK::offer_listed`]), which compare
//! `SCAN` scores at a time against the heap floor and run the seen/deal
//! filter probe and [`TopK::push`] for the few survivors only. The filter
//! rows are catalogue-wide: a shard probes them at its item offset, so
//! item `i` of a block reads bit `offset + i`.

use gb_eval::topk::ranks_before;

/// Scores compared against the heap floor per step of the block scan.
const SCAN: usize = 8;

/// Whether `item`'s bit is set in a filter row. Bounds-checked: items
/// past the row's words — appended by a grow-only publish after the
/// filter was built — read as unset, i.e. unseen/allowed.
#[inline]
fn bit_set(words: &[u64], item: usize) -> bool {
    words
        .get(item / 64)
        .is_some_and(|w| w >> (item % 64) & 1 == 1)
}

/// The composed candidate gate: the candidate at filter bit `bit` is
/// blocked when its per-user seen bit *or* its catalogue-wide deal-state
/// bit is set.
#[inline]
fn blocked(seen: Option<&[u64]>, deal: Option<&[u64]>, bit: usize) -> bool {
    seen.is_some_and(|w| bit_set(w, bit)) || deal.is_some_and(|w| bit_set(w, bit))
}

/// One ranked recommendation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredItem {
    /// The item id.
    pub item: u32,
    /// The model score (higher = better).
    pub score: f32,
}

/// A bounded min-heap keeping the `k` best `(item, score)` pairs seen so
/// far under the workspace ranking order (descending score, ascending
/// item id on ties — see [`gb_eval::topk::ranks_before`]).
#[derive(Clone, Debug)]
pub struct TopK {
    k: usize,
    /// Binary heap ordered worst-first: `heap[0]` is the weakest kept pair.
    heap: Vec<(u32, f32)>,
}

impl TopK {
    /// An empty accumulator for the `k` best entries.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: Vec::with_capacity(k.min(4096)),
        }
    }

    /// Number of entries currently held (`<= k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The weakest currently-kept entry, if the heap is full.
    #[inline]
    pub fn threshold(&self) -> Option<(u32, f32)> {
        if self.heap.len() == self.k {
            self.heap.first().copied()
        } else {
            None
        }
    }

    /// Offers one candidate; keeps it iff it ranks among the best `k`.
    ///
    /// Non-finite scores are rejected outright: `total_cmp` ranks a
    /// positive NaN above `+∞`, so without this guard a diverged snapshot
    /// would serve NaN-scored items at rank 1. Serving never ranks what it
    /// cannot compare meaningfully.
    #[inline]
    pub fn push(&mut self, item: u32, score: f32) {
        if self.k == 0 || !score.is_finite() {
            return;
        }
        let entry = (item, score);
        if self.heap.len() < self.k {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        } else if ranks_before(entry, self.heap[0]) {
            self.heap[0] = entry;
            self.sift_down(0);
        }
    }

    /// Offers `scores[j]` as item `first + j` for every `j`, skipping
    /// items whose bit `offset + item` is set in the `seen` or `deal`
    /// filter row (bits past a row's end read as unset). Leaves exactly
    /// the heap a [`TopK::push`] per unblocked item would.
    pub fn offer_block(
        &mut self,
        first: u32,
        scores: &[f32],
        seen: Option<&[u64]>,
        deal: Option<&[u64]>,
        offset: usize,
    ) {
        self.offer(scores, |j| first + j as u32, seen, deal, offset);
    }

    /// [`TopK::offer_block`] for an explicit id list: offers `scores[j]`
    /// as item `items[j]`.
    ///
    /// # Panics
    /// Panics if `items` and `scores` differ in length.
    pub fn offer_listed(
        &mut self,
        items: &[u32],
        scores: &[f32],
        seen: Option<&[u64]>,
        deal: Option<&[u64]>,
        offset: usize,
    ) {
        assert_eq!(items.len(), scores.len(), "offer_listed: length mismatch");
        self.offer(scores, |j| items[j], seen, deal, offset);
    }

    /// The score an offer must reach to have any chance of being kept:
    /// the weakest kept score once the heap is full, `-∞` while it fills.
    #[inline]
    fn floor(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::NEG_INFINITY
        } else {
            self.heap[0].1
        }
    }

    /// The threshold-first scan under both `offer_*` methods.
    ///
    /// A full heap keeps an offer iff it `ranks_before` the root: its
    /// score is `total_cmp`-greater, or equal with a smaller id. For
    /// finite scores either implies `score >= floor` under IEEE `>=`
    /// (`+0.0 >= -0.0` included), NaN fails `>=`, and `push` rejects every
    /// non-finite score itself — so `score >= floor` passes every offer
    /// `push` would keep. The heap holds a set selected under a strict
    /// total order, so when the filter probe runs relative to the score
    /// test cannot change the result.
    #[inline]
    fn offer(
        &mut self,
        scores: &[f32],
        id: impl Fn(usize) -> u32,
        seen: Option<&[u64]>,
        deal: Option<&[u64]>,
        offset: usize,
    ) {
        if self.k == 0 {
            return;
        }
        // Offers one score that reached the floor; returns the floor after.
        let survivor = |topk: &mut Self, j: usize, score: f32| {
            let item = id(j);
            if !blocked(seen, deal, offset + item as usize) {
                topk.push(item, score);
            }
            topk.floor()
        };
        let mut floor = self.floor();
        let mut j = 0;
        let mut groups = scores.chunks_exact(SCAN);
        for group in groups.by_ref() {
            if group.iter().fold(false, |any, &s| any | (s >= floor)) {
                for (l, &score) in group.iter().enumerate() {
                    if score >= floor {
                        floor = survivor(self, j + l, score);
                    }
                }
            }
            j += SCAN;
        }
        for (l, &score) in groups.remainder().iter().enumerate() {
            if score >= floor {
                floor = survivor(self, j + l, score);
            }
        }
    }

    /// Consumes the accumulator, returning kept entries best-first.
    pub fn into_sorted(mut self) -> Vec<ScoredItem> {
        // Repeatedly pop the heap root (the worst kept entry) to the back.
        let mut out = vec![
            ScoredItem {
                item: 0,
                score: 0.0
            };
            self.heap.len()
        ];
        for slot in (0..out.len()).rev() {
            let (item, score) = self.heap.swap_remove(0);
            if !self.heap.is_empty() {
                self.sift_down(0);
            }
            out[slot] = ScoredItem { item, score };
        }
        out
    }

    /// Whether `a` is ranked *worse* than `b` (heap order is worst-first).
    #[inline]
    fn weaker(a: (u32, f32), b: (u32, f32)) -> bool {
        ranks_before(b, a)
    }

    fn sift_up(&mut self, mut at: usize) {
        while at > 0 {
            let parent = (at - 1) / 2;
            if Self::weaker(self.heap[at], self.heap[parent]) {
                self.heap.swap(at, parent);
                at = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut at: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * at + 1, 2 * at + 2);
            let mut weakest = at;
            if l < n && Self::weaker(self.heap[l], self.heap[weakest]) {
                weakest = l;
            }
            if r < n && Self::weaker(self.heap[r], self.heap[weakest]) {
                weakest = r;
            }
            if weakest == at {
                break;
            }
            self.heap.swap(at, weakest);
            at = weakest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(pairs: &[(u32, f32)], k: usize) -> Vec<(u32, f32)> {
        let mut topk = TopK::new(k);
        for &(i, s) in pairs {
            topk.push(i, s);
        }
        topk.into_sorted()
            .into_iter()
            .map(|e| (e.item, e.score))
            .collect()
    }

    #[test]
    fn keeps_the_best_k_in_order() {
        let pairs: Vec<(u32, f32)> = (0..100u32).map(|i| (i, ((i * 37) % 100) as f32)).collect();
        let got = collect(&pairs, 5);
        let mut expect = pairs.clone();
        expect.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        expect.truncate(5);
        assert_eq!(got, expect);
    }

    #[test]
    fn ties_break_by_item_id() {
        let got = collect(&[(9, 1.0), (2, 1.0), (5, 1.0), (0, 0.5)], 2);
        assert_eq!(got, vec![(2, 1.0), (5, 1.0)]);
    }

    #[test]
    fn fewer_candidates_than_k() {
        let got = collect(&[(3, 0.1), (1, 0.9)], 10);
        assert_eq!(got, vec![(1, 0.9), (3, 0.1)]);
    }

    #[test]
    fn k_zero_keeps_nothing() {
        assert!(collect(&[(1, 1.0)], 0).is_empty());
    }

    #[test]
    fn threshold_exposes_current_floor() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), None);
        t.push(1, 5.0);
        assert_eq!(t.threshold(), None, "not full yet");
        t.push(2, 7.0);
        assert_eq!(t.threshold(), Some((1, 5.0)));
        t.push(3, 6.0);
        assert_eq!(t.threshold(), Some((3, 6.0)));
    }

    #[test]
    fn non_finite_scores_never_ranked() {
        // A NaN would beat +inf under total_cmp; the heap must drop it at
        // the door, along with both infinities.
        let got = collect(
            &[
                (0, f32::NAN),
                (1, 2.0),
                (2, f32::INFINITY),
                (3, 1.0),
                (4, f32::NEG_INFINITY),
                (5, -f32::NAN),
            ],
            3,
        );
        assert_eq!(got, vec![(1, 2.0), (3, 1.0)]);
        // All-NaN input yields an empty ranking, not a NaN at rank 1.
        assert!(collect(&[(7, f32::NAN), (8, f32::NAN)], 2).is_empty());
    }

    #[test]
    fn matches_reference_topk_on_random_input() {
        use gb_eval::topk::reference_topk;
        use gb_eval::Scorer;
        struct Hash;
        impl Scorer for Hash {
            fn score_items(&self, _u: u32, items: &[u32]) -> Vec<f32> {
                items
                    .iter()
                    .map(|&i| ((i.wrapping_mul(2654435761) >> 7) % 1000) as f32 * 0.001)
                    .collect()
            }
        }
        let candidates: Vec<u32> = (0..500).collect();
        let scores = Hash.score_items(0, &candidates);
        let mut topk = TopK::new(25);
        for (&i, &s) in candidates.iter().zip(&scores) {
            topk.push(i, s);
        }
        let got: Vec<(u32, f32)> = topk
            .into_sorted()
            .into_iter()
            .map(|e| (e.item, e.score))
            .collect();
        assert_eq!(got, reference_topk(&Hash, 0, &candidates, 25));
    }
}
