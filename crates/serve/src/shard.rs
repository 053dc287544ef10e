//! Catalogue partitioning for the sharded serving tier.
//!
//! A [`ShardPlan`] splits the item catalogue `[0, n_items)` into N
//! contiguous, balanced, non-overlapping ranges — shard `s` owns global
//! items `[start_s, start_s + len_s)` and serves them under *local* ids
//! `0..len_s`. Contiguity is what makes the split free at serving time:
//! a contiguous item range of an [`EmbeddingSnapshot`] is a zero-copy
//! row-range view of its item tables
//! ([`EmbeddingSnapshot::slice_items`]), a shard probes the one
//! catalogue-wide seen filter and deal row at its offset (local item `i`
//! reads global bit `start_s + i`, so no filter is ever copied per
//! shard), and translating a shard's local result back to global ids is
//! the same addition (`global = start_s + local`).
//!
//! The plan is deterministic in `(n_items, n_shards)`, so every replica
//! of a deployment partitions identically and a persisted per-shard
//! artifact (e.g. an IVF index) is valid on any process with the same
//! plan.
//!
//! [`EmbeddingSnapshot`]: gb_models::EmbeddingSnapshot
//! [`EmbeddingSnapshot::slice_items`]: gb_models::EmbeddingSnapshot::slice_items

/// A balanced contiguous partition of `[0, n_items)` into shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    n_items: usize,
    /// Per-shard `(start, len)`, starts ascending, lens summing to
    /// `n_items`.
    ranges: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Partitions `n_items` into `n_shards` contiguous ranges whose
    /// lengths differ by at most one (the first `n_items % n_shards`
    /// shards get the extra item). `n_shards` is clamped to at least 1;
    /// shards beyond the catalogue size simply receive empty ranges, so
    /// any shard count is valid for any catalogue (including an empty
    /// one).
    pub fn balanced(n_items: usize, n_shards: usize) -> Self {
        let n_shards = n_shards.max(1);
        let base = n_items / n_shards;
        let extra = n_items % n_shards;
        let mut ranges = Vec::with_capacity(n_shards);
        let mut start = 0usize;
        for s in 0..n_shards {
            let len = base + usize::from(s < extra);
            ranges.push((start, len));
            start += len;
        }
        Self { n_items, ranges }
    }

    /// Items in the partitioned catalogue.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of shards.
    pub(crate) fn n_shards(&self) -> usize {
        self.ranges.len()
    }

    /// All `(start, len)` ranges, shard order.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_ranges_partition_the_catalogue() {
        for (n_items, n_shards) in [
            (0usize, 1usize),
            (0, 4),
            (1, 1),
            (1, 3),
            (7, 3),
            (8, 8),
            (8, 16),
            (100, 7),
            (1000, 1),
        ] {
            let plan = ShardPlan::balanced(n_items, n_shards);
            assert_eq!(plan.n_shards(), n_shards.max(1));
            assert_eq!(plan.n_items(), n_items);
            // Contiguous cover: starts chain, lengths sum.
            let mut next = 0usize;
            for s in 0..plan.n_shards() {
                let (start, len) = plan.ranges()[s];
                assert_eq!(start, next, "shard {s} of {n_items}/{n_shards}");
                next = start + len;
            }
            assert_eq!(next, n_items);
            // Balance: lengths differ by at most one, larger first.
            let lens: Vec<usize> = plan.ranges().iter().map(|&(_, l)| l).collect();
            let (min, max) = (
                *lens.iter().min().unwrap_or(&0),
                *lens.iter().max().unwrap_or(&0),
            );
            assert!(max - min <= 1, "{n_items}/{n_shards}: {lens:?}");
            assert!(lens.windows(2).all(|w| w[0] >= w[1]), "larger shards first");
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let plan = ShardPlan::balanced(5, 0);
        assert_eq!(plan.n_shards(), 1);
        assert_eq!(plan.ranges(), [(0, 5)]);
    }

    #[test]
    fn deterministic_for_fixed_inputs() {
        assert_eq!(ShardPlan::balanced(101, 4), ShardPlan::balanced(101, 4));
        assert_eq!(
            ShardPlan::balanced(10, 4).ranges(),
            &[(0, 3), (3, 3), (6, 2), (8, 2)]
        );
    }
}
