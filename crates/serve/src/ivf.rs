//! IVF (inverted-file) approximate retrieval over the item catalogue.
//!
//! Past a certain catalogue size, even the blocked multi-user pass is
//! linear work per query — every query touches every item. IVF makes the
//! per-query work sublinear: partition the items into `n_clusters` cells
//! offline, and per query score only the cells whose centroids look best
//! for this user.
//!
//! ## Why one k-means fits the blended score
//!
//! The serving score is `(1-α)·u_own·v_own + α·u_social·v_social` — two
//! dot products. But that is exactly *one* dot product in the
//! concatenated embedding space:
//!
//! ```text
//! q_u = [ w_own · u_own ; α · u_social ]     (the query vector)
//! x_i = [ v_own[i]      ; v_social[i]  ]     (the item vector)
//! q_u · x_i = blended score,  w_own = 1 when α = 0, else (1-α)
//! ```
//!
//! so a single deterministic k-means over the per-item concatenated
//! vectors `{x_i}` ([`gb_tensor::kmeans`]) yields centroids + inverted
//! lists that route *any* user query, whatever its α-blend: rank
//! centroids by `q_u · c_j`, probe the best `n_probe` lists, and score
//! only the survivors with the exact kernels.
//!
//! ## Packed vs. in-place cell scoring
//!
//! A cell's members are scattered across the catalogue tables, and a
//! strided gather defeats the hardware prefetcher. The index therefore
//! *packs* each cell's item rows into contiguous per-cell tables at build
//! time — probing streams sequentially through the same blocked kernel as
//! the exhaustive walk — at the cost of one full extra copy of the item
//! tables. That trade is wrong for memory-tight deployments (e.g. many
//! shards on one box), so packing is now a build-time choice: an unpacked
//! index scores cell members through the gathered kernel
//! ([`gb_tensor::kernels::blend_dot_indexed`]) directly against the
//! snapshot tables — zero extra item-table memory, bit-identical scores
//! (both kernels run the same per-row lane-blocked dot), just a slower
//! stream. [`IvfIndex::size_bytes`] reports the honest total either way:
//! centroids + inverted lists + packed tables (if any).
//!
//! ## Exactness envelope
//!
//! Probing is the only approximation. Survivor scores come from the same
//! lane-blocked dot as the exhaustive pass, and the serving heap
//! selects under a *strict total order* (descending score, ascending
//! item id) — so its kept set and output order depend only on the set of
//! `(item, score)` pairs offered, never on the order they arrive. With
//! `n_probe = n_clusters` every list is probed, the candidate set is the
//! full catalogue, and the served ranking is **bit-identical** to exact
//! serving — property-tested in `ivf_proptests.rs`.
//!
//! ## Version tagging
//!
//! An index is built from one [`EmbeddingSnapshot`] and stamped with that
//! snapshot's published version. The query engine rebuilds the index
//! whenever the served version moves, so approximate results can never
//! blend centroids from one publish with item tables from another.

use gb_models::EmbeddingSnapshot;
use gb_tensor::{kernels, kmeans, Matrix};
use std::collections::HashMap;
use std::sync::Arc;

/// Lloyd iterations used for index builds. Routing quality saturates
/// quickly — the index only has to rank cells, not place centroids
/// optimally — and build cost is linear in this.
const KMEANS_ITERS: usize = 5;

/// Contiguous per-cell copies of the item tables, rows in list order.
/// Each cell's tables sit behind an `Arc` so an incremental update
/// ([`IvfIndex::update`]) can alias the cells a delta never touched
/// instead of re-gathering them.
#[derive(Clone, Debug)]
struct PackedCells {
    own: Vec<Arc<Matrix>>,
    social: Vec<Arc<Matrix>>,
}

/// An inverted-file index over one snapshot's item catalogue.
///
/// Immutable once built; the engine shares it across queries behind an
/// `Arc` and replaces it wholesale when a new snapshot version is
/// published.
#[derive(Clone, Debug)]
pub struct IvfIndex {
    /// The snapshot version the index was built from.
    version: u64,
    /// Own-embedding width, to split query vectors the same way the item
    /// vectors were concatenated.
    own_dim: usize,
    /// `n_clusters × (own_dim + social_dim)` cell centroids.
    centroids: Matrix,
    /// Per-centroid item ids, each list ascending (items are assigned in
    /// ascending id order).
    lists: Vec<Vec<u32>>,
    /// Packed per-cell item tables when the build opted into the
    /// memory-for-bandwidth trade; `None` scores cells in place through
    /// the gathered kernel.
    packed: Option<PackedCells>,
}

impl IvfIndex {
    /// Clusters `snapshot`'s concatenated item vectors into `n_clusters`
    /// cells (clamped to the catalogue size) with a seeded deterministic
    /// k-means, and tags the index with `version`. `packed` chooses the
    /// cell-scoring layout (see the module docs): `true` copies each
    /// cell's item rows into contiguous tables for sequential streaming,
    /// `false` keeps only the inverted lists and scores against the
    /// snapshot tables in place. Rankings are bit-identical either way.
    pub fn build(
        snapshot: &EmbeddingSnapshot,
        version: u64,
        n_clusters: usize,
        seed: u64,
        packed: bool,
    ) -> Self {
        let item_own = snapshot.item_own();
        let item_social = snapshot.item_social();
        let concat = kernels::concat_cols(&[item_own, item_social]);
        let km = kmeans::kmeans(&concat, n_clusters.max(1), KMEANS_ITERS, seed);
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); km.centroids.rows()];
        for (item, &cell) in km.assignments.iter().enumerate() {
            lists[cell as usize].push(item as u32);
        }
        let packed = packed.then(|| PackedCells {
            own: lists
                .iter()
                .map(|list| Arc::new(kernels::gather_rows(item_own, list)))
                .collect(),
            social: lists
                .iter()
                .map(|list| Arc::new(kernels::gather_rows(item_social, list)))
                .collect(),
        });
        Self {
            version,
            own_dim: snapshot.own_dim(),
            centroids: km.centroids,
            lists,
            packed,
        }
    }

    /// Derives the index for a *delta* successor of the snapshot this
    /// index was built from, without re-running k-means.
    ///
    /// The delta contract (see `gb_models::DeltaStamp`) guarantees that
    /// between the two versions only the rows in `changed` moved and
    /// `n_appended` rows appeared past the old catalogue end — every
    /// other item row is byte-identical. So the centroids are kept as-is,
    /// only the changed + appended items are re-routed to their nearest
    /// existing cell ([`kmeans::assign`] — the same argmin the full
    /// build's final pass uses), and only the cells that gained or lost a
    /// member are re-packed; untouched cells alias the previous packed
    /// tables outright. Cost is `O(moved · n_clusters · d)` routing plus
    /// the affected-cell repack, versus the full build's
    /// `O(n · n_clusters · d · iters)` k-means over the whole catalogue.
    ///
    /// The derived index still partitions the catalogue, so full-probe
    /// serving through it stays bit-identical to exact serving of the new
    /// snapshot. Cell *boundaries* are those of the original build
    /// (centroids are not re-fit), so partial-probe routing quality
    /// degrades gracefully over long delta chains — a periodic full
    /// rebuild re-fits them.
    ///
    /// # Panics
    /// Panics if the index has no cells (nothing to assign into), if
    /// `snapshot`'s widths disagree with the index, if `changed` contains
    /// ids outside the previous catalogue, or if the previous catalogue
    /// size implied by `snapshot.n_items() - n_appended` disagrees with
    /// the index's lists.
    pub fn update(
        &self,
        snapshot: &EmbeddingSnapshot,
        version: u64,
        changed: &[u32],
        n_appended: usize,
    ) -> Self {
        let n = snapshot.n_items();
        assert!(n >= n_appended, "update: more appended items than items");
        let prev_n = n - n_appended;
        let od = snapshot.own_dim();
        let sd = snapshot.social_dim();
        assert!(!self.lists.is_empty(), "update: index has no cells");
        assert_eq!(od, self.own_dim, "update: own-embedding width mismatch");
        assert_eq!(
            od + sd,
            self.centroids.cols(),
            "update: concat width disagrees with the IVF centroids"
        );
        assert_eq!(
            prev_n,
            self.lists.iter().map(Vec::len).sum::<usize>(),
            "update: previous catalogue size disagrees with the index"
        );
        for &item in changed {
            assert!(
                (item as usize) < prev_n,
                "update: changed item {item} outside the previous catalogue ({prev_n} items)"
            );
        }
        assert!(
            changed.windows(2).all(|w| w[0] < w[1]),
            "update: changed ids must be ascending and unique"
        );
        // The moved set: replaced rows plus the appended tail.
        let moved: Vec<u32> = changed
            .iter()
            .copied()
            .chain(prev_n as u32..n as u32)
            .collect();
        let item_own = snapshot.item_own();
        let item_social = snapshot.item_social();
        let concat = kernels::concat_cols(&[
            &kernels::gather_rows(item_own, &moved),
            &kernels::gather_rows(item_social, &moved),
        ]);
        let cells = kmeans::assign(&concat, &self.centroids);

        let mut lists = self.lists.clone();
        let mut affected = vec![false; lists.len()];
        for (cell, list) in lists.iter_mut().enumerate() {
            let before = list.len();
            list.retain(|i| changed.binary_search(i).is_err());
            if list.len() != before {
                affected[cell] = true;
            }
        }
        for (&item, &cell) in moved.iter().zip(&cells) {
            let list = &mut lists[cell as usize];
            let pos = list
                .binary_search(&item)
                .expect_err("moved item already present in its target cell");
            list.insert(pos, item);
            affected[cell as usize] = true;
        }

        // Re-pack only the cells whose membership (or member rows)
        // changed; every member of an untouched cell is an unchanged item
        // whose row is byte-equal across the two versions, so aliasing
        // the old packed tables serves identical bits.
        let packed = self.packed.as_ref().map(|old| PackedCells {
            own: lists
                .iter()
                .enumerate()
                .map(|(c, list)| {
                    if affected[c] {
                        Arc::new(kernels::gather_rows(item_own, list))
                    } else {
                        Arc::clone(&old.own[c])
                    }
                })
                .collect(),
            social: lists
                .iter()
                .enumerate()
                .map(|(c, list)| {
                    if affected[c] {
                        Arc::new(kernels::gather_rows(item_social, list))
                    } else {
                        Arc::clone(&old.social[c])
                    }
                })
                .collect(),
        });
        Self {
            version,
            own_dim: od,
            centroids: self.centroids.clone(),
            lists,
            packed,
        }
    }

    /// The snapshot version this index was built from.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether this index carries packed per-cell item tables.
    pub fn is_packed(&self) -> bool {
        self.packed.is_some()
    }

    /// Number of cells (≤ the requested `n_clusters` only when the
    /// catalogue itself is smaller).
    pub fn n_clusters(&self) -> usize {
        self.lists.len()
    }

    /// The items of one cell, ascending.
    pub fn list(&self, cell: usize) -> &[u32] {
        &self.lists[cell]
    }

    /// Scores the members `[start, start + out.len())` of one cell's
    /// list for `user` into `out` — `out[j]` is the (bit-identical)
    /// served score of item `self.list(cell)[start + j]`.
    ///
    /// A packed index streams the cell's contiguous item tables through
    /// the blocked kernel of the exhaustive walk; an unpacked index
    /// gathers the same rows from the snapshot tables through the
    /// indexed kernel. Both run the identical per-row lane-blocked dot,
    /// so every score is bit-identical across layouts.
    ///
    /// # Panics
    /// Panics if `user` is out of range, the range exceeds the cell, or
    /// `snapshot` disagrees with the index on embedding widths.
    pub fn score_cell(
        &self,
        snapshot: &EmbeddingSnapshot,
        user: u32,
        cell: usize,
        start: usize,
        out: &mut [f32],
    ) {
        match &self.packed {
            Some(packed) => kernels::blend_dot_block(
                snapshot.user_own().row(user as usize),
                &packed.own[cell],
                snapshot.user_social().row(user as usize),
                &packed.social[cell],
                snapshot.alpha(),
                start,
                out,
            ),
            None => kernels::blend_dot_indexed(
                snapshot.user_own().row(user as usize),
                snapshot.item_own(),
                snapshot.user_social().row(user as usize),
                snapshot.item_social(),
                snapshot.alpha(),
                &self.lists[cell][start..start + out.len()],
                out,
            ),
        }
    }

    /// Honest heap footprint of the index in bytes: centroids, inverted
    /// lists, and — only when built packed — the per-cell item-table
    /// copies. (An earlier revision reported the packed tables alone,
    /// understating unpacked indexes as free and omitting routing state.)
    pub fn size_bytes(&self) -> usize {
        let centroids = 4 * self.centroids.len();
        let lists = 4 * self.lists.iter().map(Vec::len).sum::<usize>();
        let packed = match &self.packed {
            Some(p) => {
                4 * (p.own.iter().chain(p.social.iter()))
                    .map(|m| m.len())
                    .sum::<usize>()
            }
            None => 0,
        };
        centroids + lists + packed
    }

    /// The user's routing vector in the concatenated item space:
    /// `[w_own · u_own ; α · u_social]` with `w_own = 1` when `α = 0`
    /// (the blend leaves the own product unweighted there), else `1-α` —
    /// so `query · x_i` is exactly the served blend score.
    fn query_vector(&self, snapshot: &EmbeddingSnapshot, user: u32) -> Vec<f32> {
        let alpha = snapshot.alpha();
        let own_w = if alpha == 0.0 { 1.0 } else { 1.0 - alpha };
        let own = snapshot.user_own().row(user as usize);
        let social = snapshot.user_social().row(user as usize);
        debug_assert_eq!(own.len(), self.own_dim);
        own.iter()
            .map(|&v| own_w * v)
            .chain(social.iter().map(|&v| alpha * v))
            .collect()
    }

    /// Ranks every cell against one routing vector, best first (ties
    /// toward the lower cell index), truncated to `n_probe`.
    fn route(&self, query: &[f32], n_probe: usize) -> Vec<usize> {
        let k = self.lists.len();
        assert_eq!(
            query.len(),
            self.centroids.cols(),
            "snapshot embedding widths disagree with the IVF index"
        );
        let mut ranked: Vec<(usize, f32)> = (0..k)
            .map(|j| (j, kernels::dot(query, self.centroids.row(j))))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(n_probe.max(1).min(k));
        ranked.into_iter().map(|(j, _)| j).collect()
    }

    /// The `n_probe` cell indices whose centroids score best against the
    /// user's routing vector, best first (ties toward the lower cell
    /// index). This is the per-query routing step — `n_clusters` dots
    /// plus a small sort, independent of catalogue size. The engine
    /// scores the returned cells' lists directly, best cell first, so
    /// the heap's threshold fills with strong candidates early.
    ///
    /// # Panics
    /// Panics if `user` is out of range for `snapshot`, or `snapshot`
    /// disagrees with the index on embedding widths.
    pub fn probe_cells(
        &self,
        snapshot: &EmbeddingSnapshot,
        user: u32,
        n_probe: usize,
    ) -> Vec<usize> {
        if self.lists.is_empty() {
            return Vec::new();
        }
        self.route(&self.query_vector(snapshot, user), n_probe)
    }

    /// [`IvfIndex::probe_cells`] for a coalesced user block: routing is
    /// computed once per *distinct* routing vector and shared across
    /// duplicates (queued duplicate users are common under bursty
    /// coalesced serving, and routing costs `n_clusters` dots each). The
    /// returned slot `i` holds exactly what `probe_cells(snapshot,
    /// users[i], n_probe)` returns — deduplication keys on the routing
    /// vector's raw bits, so only provably identical routes are shared.
    ///
    /// # Panics
    /// Panics if any user is out of range for `snapshot`, or `snapshot`
    /// disagrees with the index on embedding widths.
    pub fn probe_cells_block(
        &self,
        snapshot: &EmbeddingSnapshot,
        users: &[u32],
        n_probe: usize,
    ) -> Vec<Arc<Vec<usize>>> {
        if self.lists.is_empty() {
            return users.iter().map(|_| Arc::new(Vec::new())).collect();
        }
        // lint:allow(no-hash-iteration): lookup-only memo, never iterated — order cannot leak
        let mut memo: HashMap<Vec<u32>, Arc<Vec<usize>>> = HashMap::new();
        users
            .iter()
            .map(|&user| {
                let query = self.query_vector(snapshot, user);
                let key: Vec<u32> = query.iter().map(|v| v.to_bits()).collect();
                Arc::clone(
                    memo.entry(key)
                        .or_insert_with(|| Arc::new(self.route(&query, n_probe))),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-side candidate materialization: the members of the `n_probe`
    /// best cells, merged ascending (the engine walks the cells
    /// directly; tests want the flat set to assert coverage).
    fn probe(index: &IvfIndex, snap: &EmbeddingSnapshot, user: u32, n_probe: usize) -> Vec<u32> {
        let mut out: Vec<u32> = index
            .probe_cells(snap, user, n_probe)
            .into_iter()
            .flat_map(|c| index.list(c).to_vec())
            .collect();
        out.sort_unstable();
        out
    }

    fn snapshot(n_items: usize) -> EmbeddingSnapshot {
        EmbeddingSnapshot::new(
            0.4,
            Matrix::from_fn(5, 6, |r, c| ((r * 7 + c * 3) as f32 * 0.17).sin()),
            Matrix::from_fn(n_items, 6, |r, c| ((r * 5 + c) as f32 * 0.31).cos()),
            Matrix::from_fn(5, 4, |r, c| ((r + c * 11) as f32 * 0.13).sin()),
            Matrix::from_fn(n_items, 4, |r, c| ((r * 3 + c * 2) as f32 * 0.23).cos()),
        )
    }

    #[test]
    fn lists_partition_the_catalogue() {
        let snap = snapshot(97);
        let index = IvfIndex::build(&snap, 1, 8, 0, true);
        assert_eq!(index.version(), 1);
        let mut all: Vec<u32> = (0..index.n_clusters())
            .flat_map(|c| index.list(c).to_vec())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..97u32).collect::<Vec<_>>());
        // Each list is ascending by construction.
        for c in 0..index.n_clusters() {
            assert!(index.list(c).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn full_probe_returns_the_whole_catalogue_ascending() {
        let snap = snapshot(60);
        let index = IvfIndex::build(&snap, 1, 6, 0, true);
        for user in 0..5u32 {
            let cands = probe(&index, &snap, user, index.n_clusters());
            assert_eq!(cands, (0..60u32).collect::<Vec<_>>(), "user {user}");
            // Over-probing clamps to every list.
            assert_eq!(probe(&index, &snap, user, 1000), cands);
        }
    }

    #[test]
    fn partial_probe_is_a_sorted_subset_of_cells() {
        let snap = snapshot(80);
        let index = IvfIndex::build(&snap, 1, 8, 0, true);
        let cands = probe(&index, &snap, 2, 3);
        assert!(cands.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
        assert!(cands.len() < 80, "a partial probe prunes something");
        // Every candidate belongs to some cell (sanity on membership).
        for &i in &cands {
            assert!((0..index.n_clusters()).any(|c| index.list(c).contains(&i)));
        }
    }

    #[test]
    fn same_seed_builds_identical_indexes() {
        let snap = snapshot(50);
        let a = IvfIndex::build(&snap, 3, 5, 99, true);
        let b = IvfIndex::build(&snap, 3, 5, 99, true);
        assert_eq!(a.n_clusters(), b.n_clusters());
        for c in 0..a.n_clusters() {
            assert_eq!(a.list(c), b.list(c), "cell {c}");
        }
    }

    #[test]
    fn clusters_clamp_to_catalogue_size() {
        let snap = snapshot(3);
        let index = IvfIndex::build(&snap, 1, 16, 0, true);
        assert_eq!(index.n_clusters(), 3);
    }

    #[test]
    fn empty_catalogue_probes_empty() {
        let snap = snapshot(0);
        let index = IvfIndex::build(&snap, 1, 4, 0, true);
        assert_eq!(index.n_clusters(), 0);
        assert!(probe(&index, &snap, 0, 4).is_empty());
        // The block router handles the empty index too.
        let routes = index.probe_cells_block(&snap, &[0, 1], 4);
        assert!(routes.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn unpacked_scores_match_packed_bitwise() {
        let snap = snapshot(73);
        let packed = IvfIndex::build(&snap, 1, 6, 0, true);
        let unpacked = IvfIndex::build(&snap, 1, 6, 0, false);
        assert!(packed.is_packed() && !unpacked.is_packed());
        for c in 0..packed.n_clusters() {
            assert_eq!(packed.list(c), unpacked.list(c), "same clustering");
            let n = packed.list(c).len();
            // Score in misaligned sub-ranges to cover start offsets.
            for (start, take) in [(0usize, n), (1, n.saturating_sub(1)), (n / 2, n - n / 2)] {
                for user in 0..3u32 {
                    let mut a = vec![0.0f32; take];
                    let mut b = vec![0.0f32; take];
                    packed.score_cell(&snap, user, c, start, &mut a);
                    unpacked.score_cell(&snap, user, c, start, &mut b);
                    for (x, y) in a.iter().zip(&b) {
                        assert_eq!(x.to_bits(), y.to_bits(), "cell {c} user {user}");
                    }
                }
            }
        }
    }

    #[test]
    fn size_bytes_reports_the_layout_difference() {
        let snap = snapshot(100);
        let packed = IvfIndex::build(&snap, 1, 5, 0, true);
        let unpacked = IvfIndex::build(&snap, 1, 5, 0, false);
        // Both count centroids + lists; packed adds one full copy of the
        // item tables (100 items × (6 own + 4 social) × 4 bytes).
        assert_eq!(packed.size_bytes(), unpacked.size_bytes() + 100 * 10 * 4);
        assert!(unpacked.size_bytes() > 0, "routing state is not free");
    }

    #[test]
    fn block_routing_matches_single_routing_and_shares_duplicates() {
        let snap = snapshot(90);
        let index = IvfIndex::build(&snap, 1, 9, 0, true);
        let users = [3u32, 0, 3, 1, 3, 0];
        let routes = index.probe_cells_block(&snap, &users, 3);
        assert_eq!(routes.len(), users.len());
        for (slot, &user) in users.iter().enumerate() {
            assert_eq!(
                *routes[slot],
                index.probe_cells(&snap, user, 3),
                "slot {slot}"
            );
        }
        // Duplicate users share one routing allocation.
        assert!(Arc::ptr_eq(&routes[0], &routes[2]));
        assert!(Arc::ptr_eq(&routes[2], &routes[4]));
        assert!(Arc::ptr_eq(&routes[1], &routes[5]));
        assert!(!Arc::ptr_eq(&routes[0], &routes[1]));
    }

    /// A delta successor of `snapshot(n)`: item 3's rows replaced, two
    /// items appended past the old end.
    fn delta_successor(prev: &EmbeddingSnapshot) -> (EmbeddingSnapshot, Vec<u32>, usize) {
        let delta = gb_models::SnapshotDelta::new()
            .set_item(3, vec![0.9; 6], vec![-0.4; 4])
            .append_item(vec![0.2; 6], vec![0.7; 4])
            .append_item(vec![-0.6; 6], vec![0.1; 4]);
        (
            delta.apply(prev),
            delta.changed_item_ids(),
            delta.n_appended(),
        )
    }

    #[test]
    fn update_partitions_the_grown_catalogue() {
        let prev = snapshot(50);
        let index = IvfIndex::build(&prev, 1, 6, 0, true);
        let (next, changed, appended) = delta_successor(&prev);
        let updated = index.update(&next, 2, &changed, appended);
        assert_eq!(updated.version(), 2);
        assert_eq!(updated.n_clusters(), index.n_clusters());
        let mut all: Vec<u32> = (0..updated.n_clusters())
            .flat_map(|c| updated.list(c).to_vec())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..52u32).collect::<Vec<_>>());
        for c in 0..updated.n_clusters() {
            assert!(updated.list(c).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn update_scores_match_a_fresh_gather_bitwise() {
        // Packed and unpacked updates must agree with each other (the
        // unpacked side always reads the new snapshot tables directly, so
        // agreement proves the aliased/repacked cells hold the new bits).
        let prev = snapshot(41);
        let packed = IvfIndex::build(&prev, 1, 5, 0, true);
        let unpacked = IvfIndex::build(&prev, 1, 5, 0, false);
        let (next, changed, appended) = delta_successor(&prev);
        let up = packed.update(&next, 2, &changed, appended);
        let uu = unpacked.update(&next, 2, &changed, appended);
        assert!(up.is_packed() && !uu.is_packed());
        for c in 0..up.n_clusters() {
            assert_eq!(up.list(c), uu.list(c), "same re-routing");
            let n = up.list(c).len();
            let mut a = vec![0.0f32; n];
            let mut b = vec![0.0f32; n];
            for user in 0..3u32 {
                up.score_cell(&next, user, c, 0, &mut a);
                uu.score_cell(&next, user, c, 0, &mut b);
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "cell {c} user {user}");
                }
            }
        }
    }

    #[test]
    fn update_reroutes_like_a_final_assignment_pass() {
        // Every moved item must land in the cell a nearest-centroid pass
        // over the *old* centroids picks — i.e. exactly where the full
        // build's final assignment would put that vector.
        let prev = snapshot(37);
        let index = IvfIndex::build(&prev, 1, 4, 0, true);
        let (next, changed, appended) = delta_successor(&prev);
        let updated = index.update(&next, 2, &changed, appended);
        // Unchanged items keep their cell.
        for c in 0..index.n_clusters() {
            for &item in index.list(c) {
                if changed.contains(&item) {
                    continue;
                }
                assert!(updated.list(c).contains(&item), "item {item} moved cells");
            }
        }
    }

    #[test]
    fn update_with_empty_delta_aliases_every_packed_cell() {
        let prev = snapshot(30);
        let index = IvfIndex::build(&prev, 1, 4, 0, true);
        let updated = index.update(&prev, 2, &[], 0);
        assert_eq!(updated.version(), 2);
        let (old, new) = (
            index.packed.as_ref().unwrap(),
            updated.packed.as_ref().unwrap(),
        );
        for c in 0..index.n_clusters() {
            assert_eq!(index.list(c), updated.list(c));
            assert!(
                Arc::ptr_eq(&old.own[c], &new.own[c]),
                "cell {c} re-gathered"
            );
            assert!(Arc::ptr_eq(&old.social[c], &new.social[c]));
        }
    }

    #[test]
    #[should_panic(expected = "catalogue size disagrees")]
    fn update_rejects_a_non_successor_snapshot() {
        let prev = snapshot(30);
        let index = IvfIndex::build(&prev, 1, 4, 0, true);
        index.update(&snapshot(33), 2, &[], 0); // 3 new items, not stamped
    }
}
