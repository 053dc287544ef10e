//! Immutable embedding snapshots — the hand-off artifact between
//! offline training and online serving.
//!
//! Every cached-embedding scorer in this workspace evaluates the same
//! Eq. 9-shaped prediction: a `(1-α)`-weighted *own* dot product plus an
//! `α`-weighted *social* dot product over a per-user friend aggregate.
//! [`EmbeddingSnapshot`] freezes exactly the four tables that prediction
//! needs (own/social user tables, own/social item tables) plus `α`, so a
//! serving process can answer queries without the training graph, the
//! parameter store, or the autodiff tape.
//!
//! Models opt in through [`SnapshotSource`]; `gb-serve` adds the
//! versioned binary persistence and the top-K query engine on top.

use crate::gbmf::Gbmf;
use crate::mf::Mf;
use gb_eval::Scorer;
use gb_tensor::{kernels, Matrix};

/// Frozen post-training embeddings, sufficient to score any
/// `(user, item)` pair.
///
/// Scoring is `(1-α) · u_own[u]·v_own[n] + α · u_social[u]·v_social[n]`,
/// computed in the same accumulation order as the offline scorers so
/// served scores are bit-identical to evaluation scores. Models without
/// a social term use `α = 0` and zero-width social tables.
#[derive(Clone, Debug, PartialEq)]
pub struct EmbeddingSnapshot {
    alpha: f32,
    user_own: Matrix,
    item_own: Matrix,
    user_social: Matrix,
    item_social: Matrix,
}

impl EmbeddingSnapshot {
    /// Assembles a snapshot from its four tables.
    ///
    /// # Panics
    /// Panics if row counts disagree between the own/social tables, the
    /// own widths of users and items disagree, the social widths
    /// disagree, `alpha` is not a finite value in `[0, 1]`, or any table
    /// holds a non-finite value (a diverged training run must fail
    /// loudly at export, not serve NaN rankings).
    pub fn new(
        alpha: f32,
        user_own: Matrix,
        item_own: Matrix,
        user_social: Matrix,
        item_social: Matrix,
    ) -> Self {
        for (name, m) in [
            ("user_own", &user_own),
            ("item_own", &item_own),
            ("user_social", &user_social),
            ("item_social", &item_social),
        ] {
            assert!(
                !m.has_non_finite(),
                "snapshot table `{name}` holds non-finite values"
            );
        }
        Self::new_trusted(alpha, user_own, item_own, user_social, item_social)
    }

    /// Assembles a snapshot from tables that are already known finite —
    /// the shape/alpha checks of [`EmbeddingSnapshot::new`] still run,
    /// but the O(elements) non-finite scan is skipped.
    ///
    /// Two callers earn that trust: [`EmbeddingSnapshot::slice_items`]
    /// (its inputs are views of already-validated tables) and the
    /// serving mmap loader (which must publish a multi-GB mapped file
    /// without faulting every page in; it defends against corrupted
    /// floats downstream instead, where the serving heap refuses to rank
    /// non-finite scores). Everyone else should use
    /// [`EmbeddingSnapshot::new`].
    pub fn new_trusted(
        alpha: f32,
        user_own: Matrix,
        item_own: Matrix,
        user_social: Matrix,
        item_social: Matrix,
    ) -> Self {
        assert!(
            alpha.is_finite() && (0.0..=1.0).contains(&alpha),
            "alpha {alpha} outside [0, 1]"
        );
        assert_eq!(
            user_own.rows(),
            user_social.rows(),
            "user table row mismatch"
        );
        assert_eq!(
            item_own.rows(),
            item_social.rows(),
            "item table row mismatch"
        );
        assert_eq!(
            user_own.cols(),
            item_own.cols(),
            "own embedding width mismatch"
        );
        assert_eq!(
            user_social.cols(),
            item_social.cols(),
            "social embedding width mismatch"
        );
        Self {
            alpha,
            user_own,
            item_own,
            user_social,
            item_social,
        }
    }

    /// Snapshot of a pure dot-product model (no social term, `α = 0`).
    pub fn without_social(user_own: Matrix, item_own: Matrix) -> Self {
        let nu = user_own.rows();
        let ni = item_own.rows();
        Self::new(
            0.0,
            user_own,
            item_own,
            Matrix::zeros(nu, 0),
            Matrix::zeros(ni, 0),
        )
    }

    /// The role coefficient `α`.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.user_own.rows()
    }

    /// Number of items in the catalogue.
    pub fn n_items(&self) -> usize {
        self.item_own.rows()
    }

    /// Width of the own-interest embeddings.
    pub fn own_dim(&self) -> usize {
        self.user_own.cols()
    }

    /// Width of the social-interest embeddings (0 for social-free models).
    pub fn social_dim(&self) -> usize {
        self.user_social.cols()
    }

    /// The own-interest user table.
    pub fn user_own(&self) -> &Matrix {
        &self.user_own
    }

    /// The own-interest item table.
    pub fn item_own(&self) -> &Matrix {
        &self.item_own
    }

    /// The social-interest user table (friend aggregates).
    pub fn user_social(&self) -> &Matrix {
        &self.user_social
    }

    /// The social-interest item table.
    pub fn item_social(&self) -> &Matrix {
        &self.item_social
    }

    /// Scores one `(user, item)` pair.
    pub fn score(&self, user: u32, item: u32) -> f32 {
        let mut out = [0.0f32];
        self.score_block(user, item as usize, &mut out);
        out[0]
    }

    /// Scores the contiguous item range `[start, start + out.len())` for
    /// `user` into `out` — the blocked serving fast path.
    pub(crate) fn score_block(&self, user: u32, start: usize, out: &mut [f32]) {
        kernels::blend_dot_block(
            self.user_own.row(user as usize),
            &self.item_own,
            self.user_social.row(user as usize),
            &self.item_social,
            self.alpha,
            start,
            out,
        );
    }

    /// The own and social embedding rows of `users`, in order — gathered
    /// once per batched catalogue walk and handed to
    /// [`EmbeddingSnapshot::score_block_rows`] for every block of it.
    ///
    /// # Panics
    /// Panics if any user is out of range.
    pub fn user_rows(&self, users: &[u32]) -> (Vec<&[f32]>, Vec<&[f32]>) {
        users
            .iter()
            .map(|&u| {
                (
                    self.user_own.row(u as usize),
                    self.user_social.row(u as usize),
                )
            })
            .unzip()
    }

    /// Scores the contiguous item range `[start, start + len)` for a
    /// *block* of users in one pass over the item tables — the batched
    /// serving fast path. `owns`/`socials` are the users' rows as
    /// [`EmbeddingSnapshot::user_rows`] returns them; `out` holds one
    /// `len`-wide row per user, row-major: `out[u * len + j]` is user
    /// `u`'s score for item `start + j`, bit-identical to what
    /// `EmbeddingSnapshot::score_block` writes for that user alone (the
    /// kernel shares loads of the item tables across the block; it never
    /// changes any user's accumulation order).
    ///
    /// # Panics
    /// Panics if the item range exceeds the catalogue, a row has the wrong
    /// width, or `out.len() != owns.len() * len`.
    pub fn score_block_rows(
        &self,
        owns: &[&[f32]],
        socials: &[&[f32]],
        start: usize,
        len: usize,
        out: &mut [f32],
    ) {
        kernels::blend_dot_block_multi(
            owns,
            &self.item_own,
            socials,
            &self.item_social,
            self.alpha,
            start,
            len,
            out,
        );
    }

    /// Scores an explicit list of item ids for `user` into `out` — the
    /// gathered scoring path behind `Scorer::score_items` (explicit
    /// candidate lists, e.g. the evaluation protocol's 1000-candidate
    /// sets). Each score is bit-identical to what
    /// [`EmbeddingSnapshot::score_block`] computes for that item (both
    /// are the same lane-blocked dot), so selecting a candidate subset
    /// never changes an item's score.
    ///
    /// # Panics
    /// Panics if `user` or any item id is out of range, or
    /// `out.len() != items.len()`.
    pub(crate) fn score_indexed(&self, user: u32, items: &[u32], out: &mut [f32]) {
        kernels::blend_dot_indexed(
            self.user_own.row(user as usize),
            &self.item_own,
            self.user_social.row(user as usize),
            &self.item_social,
            self.alpha,
            items,
            out,
        );
    }

    /// Heap footprint of the four tables in bytes.
    pub fn size_bytes(&self) -> usize {
        4 * (self.user_own.len()
            + self.item_own.len()
            + self.user_social.len()
            + self.item_social.len())
    }

    /// A snapshot whose four tables are shareable: clones and item-range
    /// slices ([`EmbeddingSnapshot::slice_items`]) of the result are
    /// O(1) and allocation-free. Idempotent — already-shared tables are
    /// reused, not recopied — and every score is bit-identical to the
    /// source snapshot (the tables are the same bytes).
    ///
    /// The sharded serving tier calls this once per publish so that N
    /// shard slices alias one copy of the catalogue instead of holding N
    /// partial copies plus N user-table duplicates.
    pub fn to_shared(&self) -> EmbeddingSnapshot {
        EmbeddingSnapshot::new_trusted(
            self.alpha,
            self.user_own.to_shared(),
            self.item_own.to_shared(),
            self.user_social.to_shared(),
            self.item_social.to_shared(),
        )
    }

    /// The sub-snapshot owning the contiguous item range
    /// `[start, start + len)`: full user tables, sliced item tables, the
    /// same `α`. Local item id `j` in the slice is global item
    /// `start + j`, and its score for any user is bit-identical to the
    /// full snapshot's (`score_block` reads whole item rows; slicing
    /// never changes a row).
    ///
    /// On a shared snapshot ([`EmbeddingSnapshot::to_shared`]) the slice
    /// is zero-copy; on an owned snapshot the item range is copied out
    /// and the user tables are duplicated — shard construction should
    /// share first.
    ///
    /// # Panics
    /// Panics if `start + len > n_items()`.
    pub fn slice_items(&self, start: usize, len: usize) -> EmbeddingSnapshot {
        assert!(
            start
                .checked_add(len)
                .is_some_and(|end| end <= self.n_items()),
            "item range [{start}, {start}+{len}) out of bounds ({} items)",
            self.n_items()
        );
        EmbeddingSnapshot::new_trusted(
            self.alpha,
            self.user_own.clone(),
            self.item_own.view_rows(start, len),
            self.user_social.clone(),
            self.item_social.view_rows(start, len),
        )
    }
}

impl Scorer for EmbeddingSnapshot {
    /// Scores an explicit candidate list through the gathered kernel
    /// (`EmbeddingSnapshot::score_indexed`) — one call instead of one
    /// single-item block per candidate, with every score bit-identical
    /// either way (the same lane-blocked dot per item).
    fn score_items(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let mut out = vec![0.0f32; items.len()];
        self.score_indexed(user, items, &mut out);
        out
    }
}

/// A sparse, grow-only update to an [`EmbeddingSnapshot`]: the changed
/// user rows, the changed item rows, and item rows appended to the end
/// of the catalogue (newly opened deals).
///
/// [`SnapshotDelta::apply`] materializes the successor snapshot
/// copy-on-write over the previous version's tables: a table with no
/// changed rows is aliased (an O(1) shared clone — see
/// [`gb_tensor::Matrix::to_shared`]), a table with changed rows pays
/// exactly one copy, and the result is **bitwise identical** to building
/// the equivalent full snapshot from scratch — scoring reads whole rows,
/// and every row is byte-for-byte the same either way.
///
/// The universe is grow-only: items can be appended, never removed, and
/// the user count never changes mid-run (seen-filters are sized per
/// user at startup; item-side filters probe appended ids as unseen).
#[derive(Clone, Debug, Default)]
pub struct SnapshotDelta {
    /// `(user, own row, social row)` replacements.
    user_rows: Vec<(u32, Vec<f32>, Vec<f32>)>,
    /// `(item, own row, social row)` replacements.
    item_rows: Vec<(u32, Vec<f32>, Vec<f32>)>,
    /// `(own row, social row)` appended past the current catalogue end.
    appended_items: Vec<(Vec<f32>, Vec<f32>)>,
}

impl SnapshotDelta {
    /// An empty delta (applying it aliases every table unchanged).
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces `user`'s own/social rows. Last write wins on duplicates.
    pub fn set_user(mut self, user: u32, own: Vec<f32>, social: Vec<f32>) -> Self {
        self.user_rows.push((user, own, social));
        self
    }

    /// Replaces `item`'s own/social rows. Last write wins on duplicates.
    pub fn set_item(mut self, item: u32, own: Vec<f32>, social: Vec<f32>) -> Self {
        self.item_rows.push((item, own, social));
        self
    }

    /// Appends a new item row past the catalogue end (a newly opened
    /// deal). Appended ids are assigned in call order starting at the
    /// previous snapshot's `n_items()`.
    pub fn append_item(mut self, own: Vec<f32>, social: Vec<f32>) -> Self {
        self.appended_items.push((own, social));
        self
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.user_rows.is_empty() && self.item_rows.is_empty() && self.appended_items.is_empty()
    }

    /// Number of appended item rows.
    pub fn n_appended(&self) -> usize {
        self.appended_items.len()
    }

    /// The replaced item ids, ascending and deduplicated (appended ids
    /// are not included — the consumer derives them from the row-count
    /// growth). The incremental IVF maintainer reassigns exactly these.
    pub fn changed_item_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.item_rows.iter().map(|(i, _, _)| *i).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Materializes the successor of `prev` under this delta.
    ///
    /// # Panics
    /// Panics if any row id is out of range for `prev`, any row has the
    /// wrong width, or any replacement value is non-finite (the same
    /// export-time discipline as [`EmbeddingSnapshot::new`], paid only on
    /// the delta rows instead of the whole universe).
    pub fn apply(&self, prev: &EmbeddingSnapshot) -> EmbeddingSnapshot {
        let check = |what: &str, id: usize, row: &[f32], want: usize| {
            assert_eq!(
                row.len(),
                want,
                "{what} row {id} has width {}, snapshot expects {want}",
                row.len()
            );
            assert!(
                row.iter().all(|v| v.is_finite()),
                "{what} row {id} holds non-finite values"
            );
        };
        for (u, own, social) in &self.user_rows {
            assert!(
                (*u as usize) < prev.n_users(),
                "delta user {u} out of range ({} users)",
                prev.n_users()
            );
            check("user own", *u as usize, own, prev.own_dim());
            check("user social", *u as usize, social, prev.social_dim());
        }
        for (i, own, social) in &self.item_rows {
            assert!(
                (*i as usize) < prev.n_items(),
                "delta item {i} out of range ({} items)",
                prev.n_items()
            );
            check("item own", *i as usize, own, prev.own_dim());
            check("item social", *i as usize, social, prev.social_dim());
        }
        for (n, (own, social)) in self.appended_items.iter().enumerate() {
            let id = prev.n_items() + n;
            check("appended item own", id, own, prev.own_dim());
            check("appended item social", id, social, prev.social_dim());
        }

        // Unchanged tables are aliased (shared clone, O(1) once the
        // source is shared); changed tables pay exactly one copy — the
        // copy-on-write detach of the first `set_row`, or the plain clone
        // if the source is still owned. Either way the previous version's
        // tables are untouched, so in-flight queries keep serving them.
        let patch = |table: &Matrix, rows: &[(u32, Vec<f32>, Vec<f32>)], social: bool| {
            if rows.is_empty() {
                return table.to_shared();
            }
            let mut out = table.clone();
            for (id, own_row, social_row) in rows {
                out.set_row(*id as usize, if social { social_row } else { own_row });
            }
            out
        };
        let user_own = patch(prev.user_own(), &self.user_rows, false);
        let user_social = patch(prev.user_social(), &self.user_rows, true);
        let mut item_own = patch(prev.item_own(), &self.item_rows, false);
        let mut item_social = patch(prev.item_social(), &self.item_rows, true);
        if !self.appended_items.is_empty() {
            // Grow-only append: the extended tables pay one copy of the
            // catalogue (vstack), never a re-layout of existing rows.
            let stack = |base: &Matrix, cols: usize, social: bool| {
                let tail = Matrix::from_fn(self.appended_items.len(), cols, |r, c| {
                    let (own_row, social_row) = &self.appended_items[r];
                    if social {
                        social_row[c]
                    } else {
                        own_row[c]
                    }
                });
                Matrix::vstack(&[base, &tail])
            };
            item_own = stack(&item_own, prev.own_dim(), false);
            item_social = stack(&item_social, prev.social_dim(), true);
        }
        EmbeddingSnapshot::new_trusted(prev.alpha(), user_own, item_own, user_social, item_social)
    }
}

/// A trained model that can export its cached final embeddings.
pub trait SnapshotSource {
    /// Freezes the model's post-training embeddings for serving.
    ///
    /// # Panics
    /// Implementations panic if the model has not been fitted.
    fn export_snapshot(&self) -> EmbeddingSnapshot;
}

impl SnapshotSource for Mf {
    fn export_snapshot(&self) -> EmbeddingSnapshot {
        assert!(self.user_embeddings().rows() > 0, "model not fitted");
        EmbeddingSnapshot::without_social(
            self.user_embeddings().clone(),
            self.item_embeddings().clone(),
        )
    }
}

impl SnapshotSource for Gbmf {
    fn export_snapshot(&self) -> EmbeddingSnapshot {
        let (user, item, friend_mean) = self.tables();
        assert!(user.rows() > 0, "model not fitted");
        // GBMF shares one item table between the own and social terms.
        EmbeddingSnapshot::new(
            self.alpha(),
            user.clone(),
            item.clone(),
            friend_mean.clone(),
            item.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> EmbeddingSnapshot {
        EmbeddingSnapshot::new(
            0.25,
            Matrix::from_fn(3, 2, |r, c| (r + c) as f32),
            Matrix::from_fn(5, 2, |r, c| (r as f32 - c as f32) * 0.5),
            Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1),
            Matrix::from_fn(5, 4, |r, c| ((r + c) % 3) as f32),
        )
    }

    #[test]
    fn score_blends_own_and_social() {
        let s = snap();
        let (u, i) = (1u32, 2u32);
        let own: f32 = s
            .user_own()
            .row(u as usize)
            .iter()
            .zip(s.item_own().row(i as usize))
            .map(|(a, b)| a * b)
            .sum();
        let social: f32 = s
            .user_social()
            .row(u as usize)
            .iter()
            .zip(s.item_social().row(i as usize))
            .map(|(a, b)| a * b)
            .sum();
        let expect = 0.75 * own + 0.25 * social;
        assert!((s.score(u, i) - expect).abs() < 1e-6);
    }

    #[test]
    fn score_block_matches_pointwise_scores() {
        let s = snap();
        let mut block = vec![0.0f32; 5];
        s.score_block(2, 0, &mut block);
        for (i, &b) in block.iter().enumerate() {
            assert_eq!(b, s.score(2, i as u32));
        }
    }

    #[test]
    fn score_block_multi_matches_score_block_bitwise() {
        let s = snap();
        let users = [2u32, 0, 1, 2]; // duplicates allowed
        for &(start, len) in &[(0usize, 5usize), (1, 3), (4, 1), (2, 0)] {
            let mut multi = vec![0.0f32; users.len() * len];
            let (owns, socials) = s.user_rows(&users);
            s.score_block_rows(&owns, &socials, start, len, &mut multi);
            for (u, &user) in users.iter().enumerate() {
                let mut single = vec![0.0f32; len];
                s.score_block(user, start, &mut single);
                for j in 0..len {
                    assert_eq!(
                        multi[u * len + j].to_bits(),
                        single[j].to_bits(),
                        "user {user} item {j} (start {start})"
                    );
                }
            }
        }
    }

    #[test]
    fn score_indexed_matches_score_block_bitwise() {
        let s = snap();
        let mut full = vec![0.0f32; 5];
        s.score_block(1, 0, &mut full);
        let items = [4u32, 0, 2, 2, 1];
        let mut got = vec![0.0f32; items.len()];
        s.score_indexed(1, &items, &mut got);
        for (j, &i) in items.iter().enumerate() {
            assert_eq!(got[j].to_bits(), full[i as usize].to_bits(), "item {i}");
        }
    }

    #[test]
    fn scorer_impl_matches_score() {
        let s = snap();
        let items = [4u32, 0, 2];
        let scores = s.score_items(1, &items);
        for (&i, &v) in items.iter().zip(&scores) {
            assert_eq!(v, s.score(1, i));
        }
    }

    #[test]
    fn without_social_is_pure_dot() {
        let s = EmbeddingSnapshot::without_social(
            Matrix::from_vec(1, 2, vec![2.0, 3.0]),
            Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.5, 0.5]),
        );
        assert_eq!(s.score(0, 0), 2.0);
        assert_eq!(s.score(0, 1), 2.5);
        assert_eq!(s.social_dim(), 0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn diverged_embeddings_rejected() {
        let mut bad = Matrix::zeros(3, 2);
        bad.set(1, 1, f32::NAN);
        EmbeddingSnapshot::without_social(bad, Matrix::zeros(5, 2));
    }

    #[test]
    fn shared_snapshot_scores_bitwise_like_the_original() {
        let s = snap();
        let shared = s.to_shared();
        assert!(shared.item_own().is_shared());
        for u in 0..3u32 {
            for i in 0..5u32 {
                assert_eq!(shared.score(u, i).to_bits(), s.score(u, i).to_bits());
            }
        }
        // Idempotent: re-sharing aliases the same table memory.
        let again = shared.to_shared();
        assert_eq!(
            again.item_own().as_slice().as_ptr(),
            shared.item_own().as_slice().as_ptr()
        );
    }

    #[test]
    fn slice_items_scores_match_the_full_catalogue_bitwise() {
        let s = snap().to_shared();
        for (start, len) in [(0usize, 5usize), (1, 3), (4, 1), (2, 0), (5, 0)] {
            let slice = s.slice_items(start, len);
            assert_eq!(slice.n_items(), len);
            assert_eq!(slice.n_users(), s.n_users());
            let mut local = vec![0.0f32; len];
            let mut global = vec![0.0f32; len];
            for u in 0..s.n_users() as u32 {
                slice.score_block(u, 0, &mut local);
                s.score_block(u, start, &mut global);
                for (a, b) in local.iter().zip(&global) {
                    assert_eq!(a.to_bits(), b.to_bits(), "user {u} range {start}+{len}");
                }
            }
            // Zero-copy: the slice aliases the shared item table.
            if len > 0 {
                assert_eq!(
                    slice.item_own().as_slice().as_ptr(),
                    s.item_own().row(start).as_ptr()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_items_checks_bounds() {
        snap().slice_items(3, 3);
    }

    #[test]
    fn delta_apply_is_bitwise_the_full_rebuild() {
        let base = snap().to_shared();
        let delta = SnapshotDelta::new()
            .set_user(1, vec![9.0, -2.0], vec![0.5, 0.25, 0.0, 1.0])
            .set_item(3, vec![1.5, 2.5], vec![0.0, 1.0, 2.0, 3.0])
            .set_item(3, vec![-1.5, 0.5], vec![4.0, 3.0, 2.0, 1.0]) // last wins
            .append_item(vec![7.0, 8.0], vec![1.0, 1.0, 1.0, 1.0]);
        let next = delta.apply(&base);

        // The equivalent full rebuild, row by row.
        let full = EmbeddingSnapshot::new(
            base.alpha(),
            Matrix::from_fn(3, 2, |r, c| {
                if r == 1 {
                    [9.0, -2.0][c]
                } else {
                    base.user_own().get(r, c)
                }
            }),
            Matrix::from_fn(6, 2, |r, c| match r {
                3 => [-1.5, 0.5][c],
                5 => [7.0, 8.0][c],
                _ => base.item_own().get(r, c),
            }),
            Matrix::from_fn(3, 4, |r, c| {
                if r == 1 {
                    [0.5, 0.25, 0.0, 1.0][c]
                } else {
                    base.user_social().get(r, c)
                }
            }),
            Matrix::from_fn(6, 4, |r, c| match r {
                3 => [4.0, 3.0, 2.0, 1.0][c],
                5 => [1.0; 4][c],
                _ => base.item_social().get(r, c),
            }),
        );
        assert_eq!(next.n_items(), 6);
        for u in 0..3u32 {
            for i in 0..6u32 {
                assert_eq!(
                    next.score(u, i).to_bits(),
                    full.score(u, i).to_bits(),
                    "user {u} item {i}"
                );
            }
        }
        // The previous version's tables are untouched by the publish.
        assert_eq!(base.n_items(), 5);
        assert_eq!(base.item_own().get(3, 0), snap().item_own().get(3, 0));
    }

    #[test]
    fn delta_apply_aliases_unchanged_tables() {
        let base = snap().to_shared();
        let next = SnapshotDelta::new()
            .set_item(0, vec![1.0, 2.0], vec![0.0, 0.0, 0.0, 0.0])
            .apply(&base);
        // User tables had no changed rows: zero-copy aliases.
        assert_eq!(
            next.user_own().as_slice().as_ptr(),
            base.user_own().as_slice().as_ptr()
        );
        assert_eq!(
            next.user_social().as_slice().as_ptr(),
            base.user_social().as_slice().as_ptr()
        );
        // Item tables changed: detached, base unchanged.
        assert_ne!(
            next.item_own().as_slice().as_ptr(),
            base.item_own().as_slice().as_ptr()
        );
        assert_eq!(next.item_own().get(0, 0), 1.0);
        assert_eq!(base.item_own().get(0, 0), snap().item_own().get(0, 0));
    }

    #[test]
    fn empty_delta_is_identity() {
        let base = snap().to_shared();
        let delta = SnapshotDelta::new();
        assert!(delta.is_empty());
        let next = delta.apply(&base);
        assert_eq!(next, base);
        assert_eq!(
            next.item_own().as_slice().as_ptr(),
            base.item_own().as_slice().as_ptr()
        );
    }

    #[test]
    fn delta_changed_ids_are_sorted_and_deduped() {
        let d = SnapshotDelta::new()
            .set_item(4, vec![0.0; 2], vec![0.0; 4])
            .set_item(1, vec![0.0; 2], vec![0.0; 4])
            .set_item(4, vec![0.0; 2], vec![0.0; 4]);
        assert_eq!(d.changed_item_ids(), vec![1, 4]);
        assert_eq!(d.n_appended(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn delta_rejects_out_of_range_item() {
        SnapshotDelta::new()
            .set_item(5, vec![0.0; 2], vec![0.0; 4])
            .apply(&snap());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn delta_rejects_non_finite_rows() {
        SnapshotDelta::new()
            .set_item(0, vec![f32::NAN, 0.0], vec![0.0; 4])
            .apply(&snap());
    }

    #[test]
    #[should_panic(expected = "width")]
    fn delta_rejects_wrong_width_rows() {
        SnapshotDelta::new()
            .append_item(vec![0.0; 3], vec![0.0; 4])
            .apply(&snap());
    }

    #[test]
    #[should_panic(expected = "row mismatch")]
    fn mismatched_tables_rejected() {
        EmbeddingSnapshot::new(
            0.5,
            Matrix::zeros(3, 2),
            Matrix::zeros(5, 2),
            Matrix::zeros(4, 2),
            Matrix::zeros(5, 2),
        );
    }
}
