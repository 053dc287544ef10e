//! Row-major dense `f32` matrix.

use std::any::Any;
use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// Backing storage of a [`Matrix`].
///
/// `Owned` is the classic exclusive `Vec` every matrix starts life with.
/// `Shared` points into immutable memory kept alive by an `Arc` — another
/// matrix's buffer, or a memory-mapped snapshot region — so clones and
/// contiguous row-range views ([`Matrix::view_rows`]) are O(1) and
/// allocation-free. Shared data is never written through: any mutable
/// access first materializes a private owned copy (copy-on-write), so the
/// sharing is invisible to every numeric consumer.
enum Storage {
    Owned(Vec<f32>),
    Shared {
        ptr: *const f32,
        len: usize,
        /// Keeps the memory behind `ptr` alive (and, per the
        /// [`Matrix::from_raw_shared`] contract, immutable) for as long
        /// as any view of it exists.
        keep: Arc<dyn Any + Send + Sync>,
    },
}

// SAFETY: `Shared` memory is immutable for the lifetime of `keep` (the
// construction contract), so aliased reads from any thread are sound;
// `Owned` is a plain `Vec<f32>`, which is already `Send + Sync`.
unsafe impl Send for Storage {}
// SAFETY: as above — immutable shared reads only.
unsafe impl Sync for Storage {}

impl Clone for Storage {
    fn clone(&self) -> Self {
        match self {
            Storage::Owned(v) => Storage::Owned(v.clone()),
            Storage::Shared { ptr, len, keep } => Storage::Shared {
                ptr: *ptr,
                len: *len,
                keep: Arc::clone(keep),
            },
        }
    }
}

/// A dense, row-major `f32` matrix.
///
/// This is the single numeric container of the reproduction: embedding
/// tables, propagated representations, FC weights and gradients are all
/// `Matrix` values. Vectors are represented as `n x 1` or `1 x n` matrices.
///
/// A matrix either owns its buffer or is a zero-copy view into shared
/// immutable memory (see [`Matrix::to_shared`] / [`Matrix::view_rows`]);
/// the distinction never changes any numeric result — mutation of a
/// shared matrix transparently copies first.
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Storage,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.as_slice() == other.as_slice()
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: Storage::Owned(vec![0.0; rows * cols]),
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: Storage::Owned(vec![value; rows * cols]),
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self {
            rows,
            cols,
            data: Storage::Owned(data),
        }
    }

    /// Creates a matrix by evaluating `f(r, c)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self {
            rows,
            cols,
            data: Storage::Owned(data),
        }
    }

    /// Builds a square identity matrix.
    #[cfg(test)]
    pub(crate) fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// A zero-copy matrix over caller-managed immutable memory.
    ///
    /// `ptr` must point to `rows * cols` contiguous row-major `f32`s and
    /// `keep` must own (or keep alive) that memory. The serving mmap
    /// loader uses this to serve embedding tables straight out of a
    /// page-cached file mapping.
    ///
    /// # Safety
    /// The caller must guarantee, for the entire lifetime of `keep` (and
    /// therefore of every clone/view of the returned matrix):
    /// * `ptr` is non-null, 4-byte aligned, and valid for reads of
    ///   `rows * cols * 4` bytes;
    /// * the pointed-to memory is never written to by anyone.
    pub unsafe fn from_raw_shared(
        rows: usize,
        cols: usize,
        ptr: *const f32,
        keep: Arc<dyn Any + Send + Sync>,
    ) -> Self {
        Self {
            rows,
            cols,
            data: Storage::Shared {
                ptr,
                len: rows * cols,
                keep,
            },
        }
    }

    /// A zero-copy view of the matrix behind `m`, O(1): the view keeps the
    /// `Arc` alive, and no copy of the buffer is ever made for it.
    ///
    /// Sound without a caller promise: a matrix inside an `Arc` can only be
    /// changed through `Arc::get_mut` / `Arc::make_mut`, and the clone the
    /// view holds makes the first fail and the second copy, so the buffer
    /// the view reads never changes while the view exists.
    pub fn from_arc(m: Arc<Matrix>) -> Matrix {
        if m.is_shared() {
            return (*m).clone();
        }
        let (rows, cols, ptr) = (m.rows, m.cols, m.as_slice().as_ptr());
        // SAFETY: `ptr` is the start of `m`'s owned buffer of
        // `rows * cols` floats (non-null and aligned even when empty), and
        // `keep` is `m` itself, so the buffer lives as long as any view of
        // it. Nobody writes to it: `m`'s matrix is reachable only through
        // the `Arc`, whose other owners cannot get `&mut` access while
        // `keep` holds a count, and `keep` is never unwrapped.
        unsafe { Matrix::from_raw_shared(rows, cols, ptr, m) }
    }

    /// Whether this matrix is a zero-copy view into shared memory.
    #[inline]
    pub fn is_shared(&self) -> bool {
        matches!(self.data, Storage::Shared { .. })
    }

    /// A shareable version of this matrix: clones and
    /// [`Matrix::view_rows`] of the result are O(1) and allocation-free.
    ///
    /// Already-shared matrices return an O(1) clone; owned matrices pay
    /// one copy of their buffer into an `Arc` (so `to_shared` is
    /// idempotent — call it once, share everywhere).
    pub fn to_shared(&self) -> Matrix {
        match &self.data {
            Storage::Shared { .. } => self.clone(),
            Storage::Owned(v) => {
                let keep: Arc<Vec<f32>> = Arc::new(v.clone());
                let ptr = keep.as_ptr();
                Matrix {
                    rows: self.rows,
                    cols: self.cols,
                    data: Storage::Shared {
                        ptr,
                        len: v.len(),
                        keep,
                    },
                }
            }
        }
    }

    /// A view of the contiguous row range `[start, start + n_rows)`.
    ///
    /// On a shared matrix this is zero-copy: the view aliases the same
    /// memory (the sharded serving tier slices one catalogue table into
    /// per-shard item ranges this way). On an owned matrix the rows are
    /// copied out — call [`Matrix::to_shared`] first when slicing many
    /// times. Either way the view's contents are bit-identical to the
    /// source rows.
    ///
    /// # Panics
    /// Panics if `start + n_rows > rows`.
    pub fn view_rows(&self, start: usize, n_rows: usize) -> Matrix {
        assert!(
            start
                .checked_add(n_rows)
                .is_some_and(|end| end <= self.rows),
            "row range [{start}, {start}+{n_rows}) out of bounds ({} rows)",
            self.rows
        );
        match &self.data {
            Storage::Shared { ptr, keep, .. } => Matrix {
                rows: n_rows,
                cols: self.cols,
                data: Storage::Shared {
                    // SAFETY: `start * cols <= len`, so the offset stays
                    // inside (or one past) the shared allocation.
                    ptr: unsafe { ptr.add(start * self.cols) },
                    len: n_rows * self.cols,
                    keep: Arc::clone(keep),
                },
            },
            Storage::Owned(v) => Matrix::from_vec(
                n_rows,
                self.cols,
                v[start * self.cols..(start + n_rows) * self.cols].to_vec(),
            ),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        match &self.data {
            Storage::Owned(v) => v,
            // SAFETY: construction guarantees `ptr` is valid for `len`
            // reads and immutable while `keep` lives.
            Storage::Shared { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }

    /// The owned buffer, materializing a private copy first if the
    /// matrix currently views shared memory (copy-on-write).
    #[inline]
    fn data_mut(&mut self) -> &mut Vec<f32> {
        if let Storage::Shared { .. } = self.data {
            self.data = Storage::Owned(self.as_slice().to_vec());
        }
        match &mut self.data {
            Storage::Owned(v) => v,
            Storage::Shared { .. } => unreachable!("just materialized an owned copy"),
        }
    }

    /// Mutable view of the underlying row-major buffer.
    ///
    /// On a shared matrix this detaches a private owned copy first
    /// (copy-on-write); other views of the shared memory are unaffected.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data_mut()
    }

    /// Consumes the matrix, returning the row-major buffer (copied out
    /// if the matrix viewed shared memory).
    pub fn into_vec(self) -> Vec<f32> {
        match self.data {
            Storage::Owned(v) => v,
            Storage::Shared { ptr, len, .. } => {
                // SAFETY: same contract as `as_slice`; `keep` is still
                // alive here because `self.data` owns it until drop.
                unsafe { std::slice::from_raw_parts(ptr, len) }.to_vec()
            }
        }
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &self.as_slice()[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        let cols = self.cols;
        &mut self.data_mut()[r * cols..(r + 1) * cols]
    }

    /// Element accessor with bounds checking in debug builds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.as_slice()[r * self.cols + c]
    }

    /// Element setter with bounds checking in debug builds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        let idx = r * self.cols + c;
        self.data_mut()[idx] = v;
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f32) {
        self.as_mut_slice().iter_mut().for_each(|v| *v = value);
    }

    /// Returns the transpose as a new matrix.
    pub fn transposed(&self) -> Matrix {
        let src = self.as_slice();
        let mut data = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            for c in 0..self.cols {
                data[c * self.rows + r] = src[r * self.cols + c];
            }
        }
        Matrix::from_vec(self.cols, self.rows, data)
    }

    /// Applies `f` elementwise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: Storage::Owned(self.as_slice().iter().map(|&v| f(v)).collect()),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        self.as_mut_slice().iter_mut().for_each(|v| *v = f(*v));
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements (0.0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Squared Frobenius norm (sum of squared elements).
    pub fn sq_norm(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Largest absolute element; 0.0 for an empty matrix.
    #[cfg(test)]
    pub(crate) fn max_abs(&self) -> f32 {
        self.as_slice()
            .iter()
            .fold(0.0_f32, |acc, v| acc.max(v.abs()))
    }

    /// Returns true if any element is NaN or infinite.
    ///
    /// Scanned in 8-wide lane blocks with a branch-free OR-fold per block
    /// and an early exit between blocks: the tape's per-node debug assert
    /// runs this on every recorded value, so the all-finite common case
    /// must stay close to memory bandwidth instead of branching per
    /// element.
    pub fn has_non_finite(&self) -> bool {
        const LANES: usize = 8;
        let data = self.as_slice();
        let mut chunks = data.chunks_exact(LANES);
        for block in &mut chunks {
            let mut any = false;
            for v in block {
                any |= !v.is_finite();
            }
            if any {
                return true;
            }
        }
        chunks.remainder().iter().any(|v| !v.is_finite())
    }

    /// Copies `src` into row `r`.
    ///
    /// # Panics
    /// Panics if `src.len() != cols`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols, "row length mismatch");
        self.row_mut(r).copy_from_slice(src);
    }

    /// Stacks `mats` vertically; all inputs must share the column count.
    pub fn vstack(mats: &[&Matrix]) -> Matrix {
        assert!(!mats.is_empty(), "vstack of zero matrices");
        let cols = mats[0].cols;
        let rows: usize = mats.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            assert_eq!(m.cols, cols, "vstack column mismatch");
            data.extend_from_slice(m.as_slice());
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// Extracts the sub-matrix made of the listed rows (in order).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.as_slice()[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        let idx = r * self.cols + c;
        &mut self.data_mut()[idx]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:>9.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ... ({} more rows)", self.rows - max_rows)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_correct_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_is_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn transpose_swaps_elements() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = m.transposed();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), m.get(1, 2));
    }

    #[test]
    fn eye_is_identity_under_indexing() {
        let i = Matrix::eye(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.sq_norm(), 30.0);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn map_applies_elementwise() {
        let m = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        let doubled = m.map(|v| v * 2.0);
        assert_eq!(doubled.as_slice(), &[2.0, -4.0, 6.0]);
    }

    #[test]
    fn select_rows_gathers_in_order() {
        let m = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let s = m.select_rows(&[3, 1, 1]);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(0), &[6.0, 7.0]);
        assert_eq!(s.row(1), &[2.0, 3.0]);
        assert_eq!(s.row(2), &[2.0, 3.0]);
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn non_finite_detection() {
        let mut m = Matrix::zeros(2, 2);
        assert!(!m.has_non_finite());
        m.set(0, 1, f32::NAN);
        assert!(m.has_non_finite());
    }

    #[test]
    fn non_finite_found_at_every_lane_block_position() {
        // 3x7 = 21 elements: two full 8-lane blocks plus a 5-element
        // remainder. A bad value must be caught wherever it lands —
        // first block, middle block, or the scalar tail — for every
        // non-finite kind.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for pos in [0, 7, 8, 15, 16, 20] {
                let mut m = Matrix::from_fn(3, 7, |r, c| (r * 7 + c) as f32);
                m.as_mut_slice()[pos] = bad;
                assert!(m.has_non_finite(), "missed {bad} at element {pos}");
            }
        }
        let clean = Matrix::from_fn(3, 7, |r, c| (r * 7 + c) as f32);
        assert!(!clean.has_non_finite());
        assert!(!Matrix::zeros(0, 0).has_non_finite());
    }

    #[test]
    fn to_shared_preserves_contents_bitwise() {
        let m = Matrix::from_fn(7, 3, |r, c| ((r * 3 + c) as f32 * 0.37).sin());
        let s = m.to_shared();
        assert!(s.is_shared() && !m.is_shared());
        assert_eq!(s, m);
        for (a, b) in s.as_slice().iter().zip(m.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Idempotent: re-sharing clones the same memory.
        let s2 = s.to_shared();
        assert_eq!(s2.as_slice().as_ptr(), s.as_slice().as_ptr());
    }

    #[test]
    fn shared_clone_aliases_memory() {
        let s = Matrix::from_fn(4, 4, |r, c| (r + c) as f32).to_shared();
        let c = s.clone();
        assert_eq!(c.as_slice().as_ptr(), s.as_slice().as_ptr());
    }

    #[test]
    fn view_rows_of_shared_is_zero_copy() {
        let m = Matrix::from_fn(10, 3, |r, c| (r * 3 + c) as f32).to_shared();
        let v = m.view_rows(4, 3);
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v.row(0), m.row(4));
        assert_eq!(v.row(2), m.row(6));
        assert_eq!(v.as_slice().as_ptr(), m.row(4).as_ptr(), "aliases source");
        // Empty views at either end are fine.
        assert_eq!(m.view_rows(0, 0).shape(), (0, 3));
        assert_eq!(m.view_rows(10, 0).shape(), (0, 3));
    }

    #[test]
    fn view_rows_of_owned_copies() {
        let m = Matrix::from_fn(5, 2, |r, c| (r * 2 + c) as f32);
        let v = m.view_rows(1, 3);
        assert!(!v.is_shared());
        assert_eq!(v.as_slice(), &[2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_rows_checks_bounds() {
        Matrix::zeros(3, 2).view_rows(2, 2);
    }

    #[test]
    fn mutation_of_shared_copies_on_write() {
        let base = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32).to_shared();
        let mut edited = base.clone();
        edited.set(0, 0, 99.0);
        assert!(!edited.is_shared(), "mutation detached a private copy");
        assert_eq!(edited.get(0, 0), 99.0);
        assert_eq!(base.get(0, 0), 0.0, "the shared original is untouched");
        // The other mutators detach too.
        let mut f = base.clone();
        f.fill(1.0);
        assert_eq!(base.get(1, 1), 4.0);
        let mut mi = base.clone();
        mi.map_inplace(|v| v + 1.0);
        assert_eq!(base.get(0, 1), 1.0);
        let mut rm = base.clone();
        rm.row_mut(1)[0] = -5.0;
        assert_eq!(base.get(1, 0), 3.0);
        let mut ix = base.clone();
        ix[(2, 0)] = 7.0;
        assert_eq!(base.get(2, 0), 6.0);
    }

    #[test]
    fn into_vec_copies_out_of_shared_memory() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let s = m.to_shared();
        assert_eq!(s.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn from_raw_shared_serves_external_memory() {
        let backing: Arc<Vec<f32>> = Arc::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // SAFETY: the Arc'd Vec provides 2*3 aligned, initialized f32s,
        // `backing.clone()` keeps it alive, and nobody writes to it.
        let m = unsafe { Matrix::from_raw_shared(2, 3, backing.as_ptr(), backing.clone()) };
        assert!(m.is_shared());
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        // The view keeps the backing alive on its own.
        drop(backing);
        assert_eq!(m.get(0, 2), 3.0);
    }

    #[test]
    fn from_arc_views_the_arcs_buffer_and_outlives_it() {
        let src = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 - 5.5);
        let mut arc = Arc::new(src.clone());
        let view = Matrix::from_arc(Arc::clone(&arc));
        assert!(view.is_shared());
        assert_eq!(view.as_slice().as_ptr(), arc.as_slice().as_ptr(), "no copy");
        assert_eq!(view, src);
        // The other owner cannot write through the shared buffer: it gets
        // a copy, and the view keeps reading the original.
        Arc::make_mut(&mut arc).set(0, 0, 99.0);
        assert_ne!(view.as_slice().as_ptr(), arc.as_slice().as_ptr());
        drop(arc);
        assert_eq!(view, src);
        // Writing through the view detaches it; clones alias it.
        let alias = view.clone();
        let mut edited = view;
        edited.set(2, 3, -1.0);
        assert_eq!(alias, src);
        // An already-shared matrix is re-viewed, not re-wrapped; empty works.
        let shared = Arc::new(src.to_shared());
        let again = Matrix::from_arc(Arc::clone(&shared));
        assert_eq!(again.as_slice().as_ptr(), shared.as_slice().as_ptr());
        assert!(Matrix::from_arc(Arc::new(Matrix::zeros(0, 4))).is_empty());
    }

    #[test]
    fn empty_shared_matrices_are_safe() {
        let m = Matrix::zeros(0, 4).to_shared();
        assert!(m.is_empty());
        assert_eq!(m.as_slice().len(), 0);
        assert_eq!(m.view_rows(0, 0).len(), 0);
    }
}
