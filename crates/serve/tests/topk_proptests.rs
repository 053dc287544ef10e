//! Property tests for the threshold-first block scan:
//! [`TopK::offer_block`] / [`TopK::offer_listed`] over a sequence of score
//! blocks must leave exactly the ranking a [`TopK::push`] per unblocked
//! item leaves — under heavy ties, duplicates straddling the heap floor,
//! signed zeros, non-finite scores, every `k` regime, filter rows
//! shorter than the catalogue, and filter rows probed at an item offset
//! that falls mid-word (a shard's view of the catalogue-wide rows).

use gb_serve::TopK;
use proptest::prelude::*;

/// Decodes one raw draw into a score. The palette is small on purpose:
/// most draws collide, so ties and floor-straddling duplicates are the
/// common case, and the specials (±0.0, NaN, ±∞, subnormal) appear in
/// nearly every catalogue.
fn score(raw: u32) -> f32 {
    match raw % 24 {
        0 => 0.0,
        1 => -0.0,
        2 => f32::NAN,
        3 => -f32::NAN,
        4 => f32::INFINITY,
        5 => f32::NEG_INFINITY,
        6 => f32::MIN_POSITIVE / 4.0,
        7 => -f32::MIN_POSITIVE / 4.0,
        r => ((raw / 24) % 5) as f32 * 0.25 - (r % 3) as f32,
    }
}

/// A filter row over `n` items from raw words: `mode` picks none, random,
/// all blocked, or random but `short` words long (items past the row read
/// as unseen).
fn filter_row(mode: u32, words: &[u64], n: usize, short: usize) -> Option<Vec<u64>> {
    let n_words = n.div_ceil(64);
    let word = |w: usize| words[w % words.len()];
    match mode % 4 {
        0 => None,
        1 => Some((0..n_words).map(word).collect()),
        2 => Some(vec![u64::MAX; n_words]),
        _ => Some((0..short.min(n_words)).map(word).collect()),
    }
}

fn is_blocked(row: Option<&[u64]>, bit: usize) -> bool {
    row.and_then(|w| w.get(bit / 64))
        .is_some_and(|w| w >> (bit % 64) & 1 == 1)
}

/// `(item, score bits)` best-first: bit patterns, so `+0.0` vs `-0.0` and
/// NaN payloads cannot hide behind `==`.
fn ranking(topk: TopK) -> Vec<(u32, u32)> {
    topk.into_sorted()
        .into_iter()
        .map(|e| (e.item, e.score.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn offer_block_and_listed_match_push_per_item(
        raw in prop::collection::vec(0u32..1 << 16, 0..200),
        block_lens in prop::collection::vec(1usize..=40, 1..8),
        words in prop::collection::vec(0u64..u64::MAX, 1..5),
        knobs in (0u32..5, 0u32..16, 0usize..4, 0u64..1 << 32),
        offset in 0usize..200,
    ) {
        let (k_sel, modes, short, perm_seed) = knobs;
        let scores: Vec<f32> = raw.iter().map(|&r| score(r)).collect();
        let n = scores.len();
        let k = [0, 1, 10, n, n + 5][k_sel as usize];
        // The rows cover `offset + n` bits; item `i` probes bit `offset + i`.
        let seen = filter_row(modes, &words, offset + n, short);
        let deal = filter_row(modes / 4, &words[words.len() / 2..], offset + n, short);
        let (seen, deal) = (seen.as_deref(), deal.as_deref());

        // `offer_listed` sees the catalogue under a seeded permutation of
        // the ids, so its id lookup is not the identity.
        let mut items: Vec<u32> = (0..n as u32).collect();
        let mut state = perm_seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            items.swap(i, (state >> 33) as usize % (i + 1));
        }
        let listed_scores: Vec<f32> = items.iter().map(|&i| scores[i as usize]).collect();

        let mut pushed = TopK::new(k);
        for (item, &s) in scores.iter().enumerate() {
            if !is_blocked(seen, offset + item) && !is_blocked(deal, offset + item) {
                pushed.push(item as u32, s);
            }
        }
        let want = ranking(pushed);

        let mut by_block = TopK::new(k);
        let mut by_list = TopK::new(k);
        let mut start = 0usize;
        for &len in block_lens.iter().cycle() {
            if start == n {
                break;
            }
            let end = (start + len).min(n);
            by_block.offer_block(start as u32, &scores[start..end], seen, deal, offset);
            by_list.offer_listed(&items[start..end], &listed_scores[start..end], seen, deal, offset);
            start = end;
        }
        prop_assert_eq!(ranking(by_block), want.clone(), "offer_block, k = {}", k);
        prop_assert_eq!(ranking(by_list), want, "offer_listed, k = {}", k);
    }
}
