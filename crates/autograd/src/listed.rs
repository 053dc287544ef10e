//! Row-listed tables: a `height x cols` table stored as its listed rows
//! (ascending, distinct), every other row exactly `+0.0`, and the
//! arithmetic that keeps such a table bit for bit the full one it stands
//! for. A mini-batch's gradients are nonzero in the rows it touched and
//! nowhere else, so both the tape's cotangents and the parameter
//! gradients carry them this way while they cover fewer than half of the
//! table.

use gb_tensor::Matrix;
use std::ops::Range;

/// Columns `cols` of `m`, read in place.
#[derive(Clone)]
pub(crate) struct Window<'a> {
    pub(crate) m: &'a Matrix,
    pub(crate) cols: Range<usize>,
}

impl<'a> Window<'a> {
    /// All of `m`.
    pub(crate) fn whole(m: &'a Matrix) -> Self {
        Self {
            m,
            cols: 0..m.cols(),
        }
    }

    pub(crate) fn width(&self) -> usize {
        self.cols.len()
    }

    /// Row `r` of the window.
    pub(crate) fn row(&self, r: usize) -> &'a [f32] {
        &self.m.row(r)[self.cols.clone()]
    }
}

/// A sum of row-listed tables: the full table once its rows reach half of
/// it, the listed rows and their values before that.
pub(crate) enum Merged {
    Full(Matrix),
    Listed(Vec<u32>, Matrix),
}

/// The full `height`-row table the row-listed `(rows, m)` stands for.
pub(crate) fn to_full(height: usize, rows: &[u32], m: Window<'_>) -> Matrix {
    let mut out = Matrix::zeros(height, m.width());
    for (from, &to) in rows.iter().enumerate() {
        out.row_mut(to as usize).copy_from_slice(m.row(from));
    }
    out
}

/// Which operand of `x + 1.0·y` a row-listed table is in
/// [`add_listed_rows`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// `x`: each element of `full` becomes `x + 1.0·full`.
    First,
    /// `y`: each element of `full` becomes `full + 1.0·y`.
    Second,
}

/// `full` replaced in place by the sum of itself and the row-listed table
/// `(rows, m)` (of `full`'s height, unlisted rows `+0.0`), with the
/// operands in the order `listed` says — bit for bit `add_assign` of the
/// two full tables: a listed row adds its row of `m`, and every other row
/// adds the `+0.0` it stands for (`x + 0.0`, or `0.0 + y`), which turns a
/// `-0.0` into `+0.0` exactly as the full sum does.
pub(crate) fn add_listed_rows(full: &mut Matrix, rows: &[u32], m: Window<'_>, listed: Side) {
    let add = |d: &mut f32, x: f32| match listed {
        Side::First => *d = x + 1.0 * *d,
        Side::Second => *d += 1.0 * x,
    };
    let mut next = rows.iter().enumerate().peekable();
    for r in 0..full.rows() {
        let dst = full.row_mut(r);
        match next.next_if(|&(_, &at)| at as usize == r) {
            Some((k, _)) => dst.iter_mut().zip(m.row(k)).for_each(|(d, &x)| add(d, x)),
            None => dst.iter_mut().for_each(|d| add(d, 0.0)),
        }
    }
}

/// What a row listed only on the existing side of [`merge_rows`] becomes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Merge {
    /// `x + 0.0`: `add_assign` adds the other side's `+0.0` row, which
    /// turns a `-0.0` into `+0.0`.
    Add,
    /// `x`: a scatter leaves the rows it does not list untouched.
    Scatter,
}

/// `dst += alpha · src`, elementwise — the arithmetic of `kernels`'
/// `add_assign`, `scatter_add_rows` and `segment_mean_backward` on one row.
pub(crate) fn axpy_row(dst: &mut [f32], alpha: f32, src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += alpha * s;
    }
}

/// The sum of two row-listed tables of height `height`, the `existing`
/// one first: a row listed on both sides is `x + 1.0·y`, one listed on
/// the `new` side only is `0.0 + 1.0·y`, one listed on the `existing`
/// side only is as `how` says. Comes back listed over the union of the
/// two lists while that covers fewer than half of `height`, and as the
/// full table once it reaches half.
pub(crate) fn merge_rows(
    height: usize,
    (ra, ma): (&[u32], Window<'_>),
    (rb, mb): (&[u32], Window<'_>),
    how: Merge,
) -> Merged {
    let mut union: Vec<u32> = ra.iter().chain(rb).copied().collect();
    union.sort_unstable();
    union.dedup();
    let full = 2 * union.len() >= height;
    let mut out = Matrix::zeros(if full { height } else { union.len() }, mb.width());
    let (mut i, mut j) = (0, 0);
    for (k, &r) in union.iter().enumerate() {
        let dst = out.row_mut(if full { r as usize } else { k });
        let (in_a, in_b) = (ra.get(i) == Some(&r), rb.get(j) == Some(&r));
        if in_a {
            dst.copy_from_slice(ma.row(i));
            i += 1;
            if !in_b && how == Merge::Add {
                dst.iter_mut().for_each(|x| *x += 0.0);
            }
        }
        if in_b {
            axpy_row(dst, 1.0, mb.row(j));
            j += 1;
        }
    }
    if full {
        Merged::Full(out)
    } else {
        Merged::Listed(union, out)
    }
}
