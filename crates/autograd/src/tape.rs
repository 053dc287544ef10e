//! The computation tape: forward op recording and reverse-mode backward.
//!
//! Recording is dfdx-style: each forward op pushes a boxed `FnOnce`
//! that owns (or `Arc`-shares) exactly the operands its vector-Jacobian
//! product needs. The reverse sweep visits nodes in strictly descending
//! index order — the same fixed execution order the enum-dispatch tape
//! used — so parallel==serial bitwise determinism is preserved while
//! backward kernels are free to fuse (gather backwards scatter into the
//! reused accumulator slot instead of allocating a zeroed table per
//! node).
//!
//! A cotangent travels in one of two forms (`Cot`): a full table, or
//! only its listed rows with every other row `+0.0`. The second is born
//! where a mini-batch's gathers scatter into a table and is carried
//! through the propagation's own VJPs, so a backward pays for the rows a
//! batch touched rather than for the table heights. Either form is a
//! column window of a table that several nodes may share (`Shared`): a
//! concatenation hands each part the window of its cotangent that covers
//! it and `add` hands both operands the same one, so a VJP that only reads
//! its cotangent copies nothing, and one that needs a table of its own
//! copies only when someone else still holds it. `dense` writes
//! `g ⊙ tanh′` over its own output, once nothing else holds that.
//!
//! **What the tape holds, and for how long.** A tape holds every value it
//! records until [`Tape::release_values`] lets go of its own handles —
//! typically once the forward is recorded and its readers have taken what
//! they need. From then on a value a backward closure reads lives in that
//! closure until the sweep consumes it, a value a caller took through
//! [`Tape::arc_value`] or [`Tape::arc_window`] lives with the caller, and
//! every other value is gone: the forward's peak, not its sum, is what
//! stays live through the backward. Shapes outlive the release, so the
//! sweep runs as before and gives the same bits; reading a released value
//! panics with a message naming the node. [`Tape::gather_unheld`] records
//! a gather whose rows the tape never holds at all.
//!
//! **Tables and windows.** A node's value is a column window of a table
//! the tape holds: usually all of a table its op created, but a caller can
//! [`Tape::reserve`] a table and have `param`, `segment_mean`, `add` and
//! `concat_cols` write their results into column windows of it (their
//! `*_into` forms; the plain op is the same body writing a fresh table).
//! GBGCN lays its Eq. 3 levels and Eq. 8 halves out this way, so that a
//! concatenation whose parts already sit side by side in its destination
//! only records the wider window and copies nothing. That changes no bit:
//! every element is computed by the same kernel from the same inputs, and
//! a copy that is not made leaves exactly the bits the copy would have
//! written. It changes no gradient either, because the backward closures
//! of those four ops read no forward value — only shapes and index lists.
//! Each column of a reserved table is written once, and only while the
//! tape is the table's sole owner (`Arc::get_mut`): a second write, or a
//! write after the table was handed out, panics instead of changing what
//! someone already read.

use crate::listed::{self, add_listed_rows, axpy_row, merge_rows, Merge, Merged, Side, Window};
use crate::params::{Gradients, ParamId, ParamStore};
use gb_tensor::{kernels, Matrix};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Handle to a node on the [`Tape`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Var(usize);

/// Handle to a table reserved on the [`Tape`] ([`Tape::reserve`]), whose
/// column windows ops write their results into.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Table(usize);

/// A recorded backward op: consumes the node's incoming cotangent and
/// routes contributions to upstream nodes (`NodeGrads`) or terminal
/// sinks (`GradSinks`: parameter slots and input leaves).
type BackwardOp = Box<dyn FnOnce(Cot, &mut NodeGrads, &mut GradSinks) + Send>;

/// The backward of an op that reads its cotangent as a full table.
fn dense_op(
    f: impl FnOnce(Matrix, &mut NodeGrads, &mut GradSinks) + Send + 'static,
) -> Option<BackwardOp> {
    Some(Box::new(move |g: Cot, ng, sinks| {
        f(g.into_dense(), ng, sinks)
    }))
}

/// Columns `cols` of a cotangent table that several nodes may share. A
/// concatenation hands each part the window of its own cotangent that
/// covers it, and `add` hands both operands the same one, instead of
/// copying; a consumer reads the window in place, or takes a table of its
/// own with [`Shared::into_matrix`], which copies only when the window is
/// narrower than its table or someone else still holds the table.
#[derive(Clone)]
struct Shared {
    m: Arc<Matrix>,
    cols: Range<usize>,
}

impl Shared {
    fn whole(m: Matrix) -> Self {
        let cols = 0..m.cols();
        Self {
            m: Arc::new(m),
            cols,
        }
    }

    fn view(&self) -> Window<'_> {
        Window {
            m: &self.m,
            cols: self.cols.clone(),
        }
    }

    fn is_whole(&self) -> bool {
        self.cols == (0..self.m.cols())
    }

    /// Columns `at .. at + w` of the window.
    fn narrow(&self, at: usize, w: usize) -> Self {
        let start = self.cols.start + at;
        Self {
            m: Arc::clone(&self.m),
            cols: start..start + w,
        }
    }

    /// The table itself, when the window spans it and nothing else holds
    /// it.
    fn try_take(self) -> Result<Matrix, Self> {
        if !self.is_whole() {
            return Err(self);
        }
        let cols = self.cols;
        Arc::try_unwrap(self.m).map_err(|m| Self { m, cols })
    }

    /// The window as a table of its own: [`Shared::try_take`]'s, or a copy.
    fn into_matrix(self) -> Matrix {
        self.try_take().unwrap_or_else(|s| s.to_matrix())
    }

    fn to_matrix(&self) -> Matrix {
        if self.is_whole() {
            (*self.m).clone()
        } else {
            kernels::slice_cols(&self.m, self.cols.start, self.cols.len())
        }
    }

    /// The window as a table to read: its table when the window spans it,
    /// a copy otherwise.
    fn as_matrix(&self) -> Cow<'_, Matrix> {
        if self.is_whole() {
            Cow::Borrowed(&self.m)
        } else {
            Cow::Owned(self.to_matrix())
        }
    }
}

/// `a += b`, bit for bit [`kernels::add_assign`] of `a` and the window.
fn add_window(a: &mut Matrix, b: Window<'_>) {
    if b.cols == (0..b.m.cols()) {
        kernels::add_assign(a, b.m);
    } else {
        for r in 0..a.rows() {
            axpy_row(a.row_mut(r), 1.0, b.row(r));
        }
    }
}

/// `b` replaced by `a + 1.0·b` — bit for bit `add_assign` of the window
/// `a` and `b`, computed into `b`'s buffer.
fn add_window_into(a: Window<'_>, b: &mut Matrix) {
    for r in 0..b.rows() {
        for (d, &x) in b.row_mut(r).iter_mut().zip(a.row(r)) {
            *d = x + 1.0 * *d;
        }
    }
}

/// A cotangent during the reverse sweep.
///
/// `Rows` stands for the `height x m.cols()` table whose rows `rows`
/// (ascending, distinct, fewer than half of `height`) are the rows of
/// `m` in order, and whose every other row is `+0.0` — exactly `+0.0`,
/// by definition. It is born where a gather with strictly ascending
/// indices scatters into an empty or `Rows` slot
/// ([`NodeGrads::scatter_accumulate`]) and carried, never scanned,
/// through the VJPs that map a `+0.0` row to a `+0.0` row:
/// `concat_cols` (column windows of the same rows), `add` (the same rows,
/// twice), `scale` by a finite `α ≥ +0.0`, `dense` (whose `tanh′ ≥ 0`,
/// and whose kernels start every accumulator at `+0.0`) and
/// `segment_mean` (which scatters the listed segments only). Every
/// other op, every sink and every seed reads it through
/// [`Cot::into_dense`].
///
/// Both forms give the same bits: a VJP of a `Rows` cotangent computes
/// its listed rows exactly as the dense VJP computes them, and the
/// dense VJP's unlisted rows are `+0.0`, which is what `Rows` says they
/// are. Either form's table is a [`Shared`] window: whether a VJP reads
/// it in place or copies it out, it reads the same values.
#[derive(Clone)]
enum Cot {
    Dense(Shared),
    Rows {
        height: usize,
        rows: Arc<Vec<u32>>,
        m: Shared,
    },
}

impl From<Matrix> for Cot {
    fn from(m: Matrix) -> Self {
        Cot::Dense(Shared::whole(m))
    }
}

impl Cot {
    /// A sum of row-listed tables of height `height` as a cotangent.
    fn merged(height: usize, merged: Merged) -> Self {
        match merged {
            Merged::Full(m) => Cot::from(m),
            Merged::Listed(rows, m) => Cot::Rows {
                height,
                rows: Arc::new(rows),
                m: Shared::whole(m),
            },
        }
    }

    /// The full table, as a table of its own.
    fn into_dense(self) -> Matrix {
        match self {
            Cot::Dense(m) => m.into_matrix(),
            Cot::Rows { height, rows, m } => listed::to_full(height, &rows, m.view()),
        }
    }

    /// Columns `at .. at + w`, shared rather than copied.
    fn narrow(&self, at: usize, w: usize) -> Cot {
        match self {
            Cot::Dense(m) => Cot::Dense(m.narrow(at, w)),
            Cot::Rows { height, rows, m } => Cot::Rows {
                height: *height,
                rows: Arc::clone(rows),
                m: m.narrow(at, w),
            },
        }
    }

    /// `f` applied to the stored rows. `f` must compute each output row
    /// from the same input row alone and map a `+0.0` row to a `+0.0`
    /// row, so that the unlisted rows stay `+0.0`.
    fn map_rows(&self, f: impl FnOnce(&Matrix) -> Matrix) -> Cot {
        match self {
            Cot::Dense(m) => Cot::from(f(&m.as_matrix())),
            Cot::Rows { height, rows, m } => Cot::Rows {
                height: *height,
                rows: Arc::clone(rows),
                m: Shared::whole(f(&m.as_matrix())),
            },
        }
    }

    /// `self += 1.0 · other`, bit for bit what [`kernels::add_assign`]
    /// gives on the two full tables. A full table and a row-listed one
    /// add in place into the full one, never densifying the other; two
    /// full ones add into whichever of the two is a table nobody else
    /// holds, and into a copy of `self` only when neither is.
    fn add(self, other: Cot) -> Cot {
        match (self, other) {
            (
                Cot::Rows { height, rows, m },
                Cot::Rows {
                    rows: r2, m: m2, ..
                },
            ) => Cot::merged(
                height,
                merge_rows(height, (&rows, m.view()), (&r2, m2.view()), Merge::Add),
            ),
            (Cot::Dense(a), Cot::Rows { rows, m, .. }) => {
                let mut a = a.into_matrix();
                add_listed_rows(&mut a, &rows, m.view(), Side::Second);
                Cot::from(a)
            }
            (Cot::Rows { rows, m, .. }, Cot::Dense(b)) => {
                let mut b = b.into_matrix();
                add_listed_rows(&mut b, &rows, m.view(), Side::First);
                Cot::from(b)
            }
            (Cot::Dense(a), Cot::Dense(b)) => match (a.try_take(), b) {
                (Ok(mut a), b) => {
                    add_window(&mut a, b.view());
                    Cot::from(a)
                }
                (Err(a), b) => match b.try_take() {
                    Ok(mut b) => {
                        add_window_into(a.view(), &mut b);
                        Cot::from(b)
                    }
                    Err(b) => {
                        let mut a = a.into_matrix();
                        add_window(&mut a, b.view());
                        Cot::from(a)
                    }
                },
            },
        }
    }
}

/// Backward of `segment_mean` for a cotangent listed at the segments
/// `rows`: each listed segment, in ascending order, adds `inv · g` to
/// each of its member rows in list order, exactly as
/// `kernels::segment_mean_backward` does (which skips the unlisted
/// segments' `+0.0` rows anyway). `Rows` over the union of the listed
/// segments' members while that is under half of `src_rows`, the full
/// table otherwise.
///
/// The union is read off one `src_rows`-long position map — marked, then
/// numbered in ascending row order — so it comes out ascending, and each
/// member finds its output row in one lookup.
fn segment_mean_rows_vjp(
    rows: &[u32],
    m: Window<'_>,
    offsets: &[usize],
    members: &[u32],
    src_rows: usize,
) -> Cot {
    const UNLISTED: u32 = u32::MAX;
    let segment = |s: u32| &members[offsets[s as usize]..offsets[s as usize + 1]];
    let mut at = vec![UNLISTED; src_rows];
    for &s in rows {
        for &member in segment(s) {
            at[member as usize] = 0;
        }
    }
    let union: Vec<u32> = (0..src_rows as u32)
        .filter(|&r| at[r as usize] != UNLISTED)
        .collect();
    let dense = 2 * union.len() >= src_rows;
    if !dense {
        for (k, &r) in union.iter().enumerate() {
            at[r as usize] = k as u32;
        }
    }
    let mut out = Matrix::zeros(if dense { src_rows } else { union.len() }, m.width());
    for (k, &s) in rows.iter().enumerate() {
        let seg = segment(s);
        let inv = 1.0 / seg.len() as f32;
        for &member in seg {
            let row = if dense {
                member as usize
            } else {
                at[member as usize] as usize
            };
            axpy_row(out.row_mut(row), inv, m.row(k));
        }
    }
    if dense {
        Cot::from(out)
    } else {
        Cot::Rows {
            height: src_rows,
            rows: Arc::new(union),
            m: Shared::whole(out),
        }
    }
}

/// `g ⊙ tanh′` in place, from the stored *output* `y`: `tanh′ = 1 - y²`,
/// which is `≥ 0`, so a `+0.0` element of `g` stays `+0.0`.
fn tanh_vjp(g: &mut [f32], y: &[f32]) {
    g.iter_mut().zip(y).for_each(|(d, &yy)| *d *= 1.0 - yy * yy);
}

/// [`tanh_vjp`] written over the output instead of the cotangent: each
/// element of `y` becomes `g · (1 - y²)`, the same product of the same
/// two factors.
fn tanh_vjp_over_output(y: &mut Matrix, g: Window<'_>) {
    for r in 0..y.rows() {
        let pairs = y.row_mut(r).iter_mut().zip(g.row(r));
        pairs.for_each(|(yy, &d)| *yy = d * (1.0 - *yy * *yy));
    }
}

/// `(dX, dW)` of `Y = X W` for the cotangent `g` of `Y`: `g W^T` and
/// `X^T g`, paying only for the rows of `g` that are not entirely `±0.0`.
///
/// A mini-batch's cotangent is nonzero in the rows the batch touched and
/// nowhere else. When fewer than half of `g`'s rows are live, the live
/// rows of `g` are gathered (ascending), `matmul_nt` runs on them and
/// `matmul_tn_rows` on them and `X`'s live rows read in place, and `dX`'s
/// rows are written back into a zeroed table; otherwise both products run
/// on the full operands, `dW` first. Either way a square `W`'s `dX` is
/// written over `g`'s own buffer, which has its shape. The two paths
/// agree bit for bit given finite `X` and `W` (`0 · ∞` is the only way a
/// skipped row could have contributed): a zero row's products are all
/// `±0.0`; every accumulator in `kernels.rs` starts at `+0.0`, so it is
/// never `-0.0` and `acc + ±0.0 == acc` — the row's `dX` is `+0.0`
/// throughout, and its terms drop out of `dW`'s ascending-row sums without
/// reordering the rest. A row holding a NaN is not zero and is kept.
///
/// Only full-table cotangents reach this scan: a [`Cot::Rows`] one already
/// lists its rows, and [`Tape::dense`] runs the compact products on them
/// directly.
fn matmul_vjp(x: &Matrix, w: &Matrix, mut g: Matrix) -> (Matrix, Matrix) {
    let live: Vec<u32> = (0..g.rows())
        .filter(|&r| g.row(r).iter().any(|&v| v != 0.0))
        .map(|r| r as u32)
        .collect();
    if 2 * live.len() >= g.rows() {
        let dw = kernels::matmul_tn(x, &g);
        if w.rows() == w.cols() {
            kernels::matmul_nt_in_place(&mut g, w);
            return (g, dw);
        }
        return (kernels::matmul_nt(&g, w), dw);
    }
    let g_live = kernels::gather_rows(&g, &live);
    let dx_live = kernels::matmul_nt(&g_live, w);
    let dw = kernels::matmul_tn_rows(x, &live, &g_live);
    // A square `W`'s `dX` has `g`'s shape: zeroed, `g` holds it.
    let mut dx = if w.rows() == w.cols() {
        g.as_mut_slice().fill(0.0);
        g
    } else {
        Matrix::zeros(x.rows(), x.cols())
    };
    for (from, &to) in live.iter().enumerate() {
        dx.row_mut(to as usize).copy_from_slice(dx_live.row(from));
    }
    (dx, dw)
}

/// `x w` as [`Tape::dense`]'s forward computes it, bit for bit
/// `kernels::matmul(x, w)`: the product on the rows of `x` that are not
/// entirely `±0.0`, the others left `+0.0` — exactly what the full product
/// gives them when `w` is finite. A `w` holding a non-finite value lists
/// every row, since `0 · ∞` and `0 · NaN` are NaN.
fn dense_product(x: &Matrix, w: &Matrix) -> Matrix {
    let finite_w = !w.has_non_finite();
    let rows: Vec<u32> = (0..x.rows())
        .filter(|&r| !finite_w || x.row(r).iter().any(|&v| v != 0.0))
        .map(|r| r as u32)
        .collect();
    kernels::matmul_rows(x, &rows, w)
}

/// A table the tape holds.
struct Held {
    /// `Arc`-shared so backward closures (and callers, via
    /// [`Tape::arc_value`]) can hold it without copying it. `None` once
    /// [`Tape::release_values`] has let go of it.
    m: Option<Arc<Matrix>>,
    /// The table's height, which outlives its release: shape checks read
    /// it.
    rows: usize,
    /// For a table from [`Tape::reserve`]: which of its columns an op has
    /// written. `None` for a table an op created whole.
    written: Option<Vec<bool>>,
}

/// Where a node's value lies: columns `cols` of held table `table`.
struct Loc {
    table: usize,
    cols: Range<usize>,
}

struct Node {
    at: Loc,
    /// The value of a window narrower than its table, copied out the first
    /// time someone asks for it as a matrix of its own
    /// ([`Tape::value`]).
    copy: OnceLock<Arc<Matrix>>,
    /// `None` for non-differentiable leaves (constants); taken (consumed)
    /// by the single reverse sweep otherwise.
    backward: Option<BackwardOp>,
}

/// Per-node gradient accumulator used during one reverse sweep.
struct NodeGrads {
    slots: Vec<Option<Cot>>,
}

impl NodeGrads {
    fn accumulate(&mut self, v: Var, g: impl Into<Cot>) {
        let slot = &mut self.slots[v.0];
        *slot = Some(match slot.take() {
            Some(existing) => existing.add(g.into()),
            None => g.into(),
        });
    }

    /// Fused gather backward: scatters `g` rows straight into the
    /// accumulator slot for `v` (a `rows x cols` table), allocating the
    /// zeroed table at most once per slot instead of once per gather node.
    ///
    /// Strictly ascending `indices` into an empty or [`Cot::Rows`] slot
    /// merge as rows, which stay compact while they cover fewer than half
    /// of the table: a mini-batch's gathers at its sorted touched ids are
    /// exactly this. Unsorted or repeated indices, or a full slot, take
    /// the full-table scatter.
    fn scatter_accumulate(
        &mut self,
        v: Var,
        rows: usize,
        cols: usize,
        indices: &[u32],
        g: &Matrix,
    ) {
        let ascending = indices.windows(2).all(|w| w[0] < w[1]);
        let new = (indices, Window::whole(g));
        let acc = match self.slots[v.0].take() {
            None if ascending => {
                let none = Matrix::zeros(0, cols);
                let merged = merge_rows(rows, (&[], Window::whole(&none)), new, Merge::Scatter);
                Cot::merged(rows, merged)
            }
            Some(Cot::Rows { rows: have, m, .. }) if ascending => Cot::merged(
                rows,
                merge_rows(rows, (&have, m.view()), new, Merge::Scatter),
            ),
            existing => {
                let mut acc = existing.map_or_else(|| Matrix::zeros(rows, cols), Cot::into_dense);
                kernels::scatter_add_rows(&mut acc, indices, g);
                Cot::from(acc)
            }
        };
        self.slots[v.0] = Some(acc);
    }

    /// Fused [`Tape::gather_dot`] backward for one operand: scatters
    /// `src[src_idx[r]] * g[r]` into row `dst_idx[r]` of the accumulator
    /// slot for `v` (as wide as `src`), never materializing the scaled
    /// rows.
    fn scatter_accumulate_scaled(
        &mut self,
        v: Var,
        rows: usize,
        dst_idx: &[u32],
        src: &Matrix,
        src_idx: &[u32],
        g: &Matrix,
    ) {
        let mut acc = self.slots[v.0]
            .take()
            .map_or_else(|| Matrix::zeros(rows, src.cols()), Cot::into_dense);
        kernels::scatter_add_scaled_rows(&mut acc, dst_idx, src, src_idx, g);
        self.slots[v.0] = Some(Cot::from(acc));
    }

    fn take(&mut self, idx: usize) -> Option<Cot> {
        self.slots[idx].take()
    }
}

/// Terminal gradient sinks of a reverse sweep: parameter gradients and
/// the cotangents that reached [`Tape::input`] leaves.
struct GradSinks {
    params: Gradients,
    inputs: Vec<Option<Matrix>>,
}

/// A forward-computation record supporting one reverse sweep.
///
/// Typical training-step usage:
///
/// ```
/// use gb_autograd::{ParamStore, Tape, Sgd};
/// use gb_tensor::Matrix;
///
/// let mut store = ParamStore::new();
/// let w = store.add("w", Matrix::full(2, 1, 0.5));
///
/// let mut tape = Tape::new();
/// let x = tape.constant(Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
/// let wv = tape.param(&store, w);
/// let y = tape.matmul(x, wv);
/// let loss = tape.sum_sq(y);
/// let grads = tape.backward(loss, &store);
/// Sgd::new(0.1).step(&mut store, &grads);
/// ```
///
/// Ownership rules of the boxed-op model: the backward closures are
/// `FnOnce` and are consumed by the sweep, so a tape supports exactly
/// one backward pass (`backward`, `backward_with_inputs`, or
/// `backward_seeded`) — a second call panics. Forward values stay
/// readable through [`Tape::value`] afterwards, up to
/// [`Tape::release_values`]: after it, only what a caller took through
/// [`Tape::arc_value`] / [`Tape::arc_window`] can still be read, a value
/// only backward closures hold is freed as the sweep consumes them, and
/// [`Tape::value`] panics, naming the node.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    tables: Vec<Held>,
    /// Number of [`Tape::input`] leaves recorded so far; sizes the
    /// `GradSinks::inputs` vector at backward time.
    n_inputs: usize,
    /// Set once a backward pass has consumed the closures.
    consumed: bool,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self {
            nodes: Vec::with_capacity(64),
            tables: Vec::with_capacity(64),
            n_inputs: 0,
            consumed: false,
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Reserves a `rows x cols` table for the `*_into` ops to write column
    /// windows of. Each column is written once; a window records a node
    /// only once an op has written it, and a node of the whole table only
    /// once every column is written.
    pub fn reserve(&mut self, rows: usize, cols: usize) -> Table {
        self.tables.push(Held {
            m: Some(Arc::new(Matrix::zeros(rows, cols))),
            rows,
            written: Some(vec![false; cols]),
        });
        Table(self.tables.len() - 1)
    }

    /// The held table behind `v` and the columns of it `v` occupies.
    ///
    /// # Panics
    /// Panics, naming the node, once [`Tape::release_values`] has let go
    /// of the table, or for a [`Tape::gather_unheld`] node.
    fn window(&self, v: Var) -> (&Arc<Matrix>, Range<usize>) {
        let at = &self.nodes[v.0].at;
        let Some(m) = &self.tables[at.table].m else {
            // invariant: documented panic — a released or unheld value is
            // not there to read, and reading it is a caller's bug, not a
            // value to make up.
            panic!(
                "the value of node {} is not held: the tape released it or never held it",
                v.0
            );
        };
        (m, at.cols.clone())
    }

    /// The table behind `v` (shared, not copied) and the columns of it
    /// that hold `v`'s value — for callers that read a window in place.
    pub fn arc_window(&self, v: Var) -> (Arc<Matrix>, Range<usize>) {
        let (m, cols) = self.window(v);
        (Arc::clone(m), cols)
    }

    /// `(rows, cols)` of a node's value, released or not.
    fn shape(&self, v: Var) -> (usize, usize) {
        let at = &self.nodes[v.0].at;
        (self.tables[at.table].rows, at.cols.len())
    }

    /// Lets go of the tape's own handle on every value it holds, so that
    /// each is freed as soon as nothing else needs it: a value a backward
    /// closure reads lives in that closure until the sweep consumes it,
    /// one a caller took through [`Tape::arc_value`] or
    /// [`Tape::arc_window`] lives with the caller, and every other one
    /// goes now. Shapes stay, so the sweep and its seed checks work as
    /// before and give the same bits; reading a value afterwards panics.
    pub fn release_values(&mut self) {
        for held in &mut self.tables {
            held.m = None;
        }
        for node in &mut self.nodes {
            node.copy.take();
        }
    }

    /// Shared handle to a node's value. This is how the sharded trainer
    /// hands propagated tables to shard tapes without copying them.
    ///
    /// A node spanning its whole table returns the table itself; a
    /// narrower window is copied out once, on the first call, and that
    /// copy is returned from then on.
    pub fn arc_value(&self, v: Var) -> Arc<Matrix> {
        Arc::clone(self.value_arc(v))
    }

    /// Value of a node (for inspection / prediction extraction); see
    /// [`Tape::arc_value`] for what a window narrower than its table costs.
    pub fn value(&self, v: Var) -> &Matrix {
        self.value_arc(v)
    }

    fn value_arc(&self, v: Var) -> &Arc<Matrix> {
        let (m, cols) = self.window(v);
        if cols == (0..m.cols()) {
            return m;
        }
        self.nodes[v.0]
            .copy
            .get_or_init(|| Arc::new(kernels::slice_cols(m, cols.start, cols.len())))
    }

    /// Holds a table an op created whole; returns where it lies.
    fn hold(&mut self, m: Arc<Matrix>) -> Loc {
        debug_assert!(!m.has_non_finite(), "non-finite forward value");
        let cols = 0..m.cols();
        self.tables.push(Held {
            rows: m.rows(),
            m: Some(m),
            written: None,
        });
        Loc {
            table: self.tables.len() - 1,
            cols,
        }
    }

    /// Writes columns `col .. col + width` of the reserved table `t`
    /// through `write(table, col)` and returns where they lie.
    ///
    /// # Panics
    /// Panics if the window does not fit, if any of its columns was
    /// written before, or if the table is not the tape's alone — handed
    /// out through [`Tape::arc_value`] / [`Tape::arc_window`], held by a
    /// backward closure, read by the op writing it, or already released
    /// ([`Tape::release_values`]).
    fn write_window(
        &mut self,
        (Table(t), col): (Table, usize),
        width: usize,
        write: impl FnOnce(&mut Matrix, usize),
    ) -> Loc {
        let held = &mut self.tables[t];
        let cols = col..col + width;
        // invariant: a `Table` comes from `reserve` alone, which gives the
        // table its column record.
        let written = held
            .written
            .as_mut()
            .expect("a `Table` handle names a reserved table");
        assert!(
            cols.end <= written.len(),
            "window {cols:?} past the table's {} columns",
            written.len()
        );
        assert!(
            !written[cols.clone()].contains(&true),
            "columns {cols:?} of a reserved table written twice"
        );
        written[cols.clone()].fill(true);
        // invariant: documented panic — the tape writes a reserved table
        // only while it holds it and nothing else does, so a value someone
        // already read never changes under them.
        let m = held
            .m
            .as_mut()
            .and_then(Arc::get_mut)
            .expect("a reserved table is written only while the tape alone holds it");
        write(m, col);
        debug_assert!(
            (0..m.rows()).all(|r| m.row(r)[cols.clone()].iter().all(|v| v.is_finite())),
            "non-finite forward value"
        );
        Loc { table: t, cols }
    }

    /// Where an op's `width`-column value goes: the fresh table `fresh`
    /// builds when `dst` is `None`, or the window of `dst` that `into`
    /// writes. The one body of every op that takes a destination.
    fn place(
        &mut self,
        dst: Option<(Table, usize)>,
        width: usize,
        fresh: impl FnOnce() -> Matrix,
        into: impl FnOnce(&mut Matrix, usize),
    ) -> Loc {
        match dst {
            None => self.hold(Arc::new(fresh())),
            Some(dst) => self.write_window(dst, width, into),
        }
    }

    fn push_at(&mut self, at: Loc, backward: Option<BackwardOp>) -> Var {
        self.nodes.push(Node {
            at,
            copy: OnceLock::new(),
            backward,
        });
        Var(self.nodes.len() - 1)
    }

    fn push(&mut self, value: Matrix, backward: Option<BackwardOp>) -> Var {
        self.push_arc(Arc::new(value), backward)
    }

    fn push_arc(&mut self, value: Arc<Matrix>, backward: Option<BackwardOp>) -> Var {
        let at = self.hold(value);
        self.push_at(at, backward)
    }

    // ----- leaves -------------------------------------------------------

    /// Records a constant (non-differentiable) leaf.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, None)
    }

    /// Records a full parameter matrix as a node: a copy of its value.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.param_into(store, id, None)
    }

    /// [`Tape::param`], the copy written into columns `col ..` of a
    /// reserved table when `dst` is `Some((table, col))`.
    pub fn param_into(
        &mut self,
        store: &ParamStore,
        id: ParamId,
        dst: Option<(Table, usize)>,
    ) -> Var {
        let value = store.value(id);
        let at = self.place(
            dst,
            value.cols(),
            || value.clone(),
            |m, col| kernels::copy_cols(value, 0..value.cols(), m, col),
        );
        self.push_at(
            at,
            dense_op(move |g, _ng, sinks| sinks.params.accumulate(id, g)),
        )
    }

    /// Records an externally computed matrix as a differentiable input
    /// leaf. The cotangent that reaches it is collected by
    /// [`Tape::backward_with_inputs`], positionally in recording order —
    /// this is the shard side of the shared-forward protocol: the batch
    /// tape computes a table once, each shard tape `input`s the `Arc`'d
    /// value (or a `gather` of just its own rows) and the shards'
    /// cotangents later seed the batch tape.
    pub fn input(&mut self, value: Arc<Matrix>) -> Var {
        let slot = self.n_inputs;
        self.n_inputs += 1;
        self.push_arc(
            value,
            dense_op(move |g, _ng, sinks| match &mut sinks.inputs[slot] {
                Some(existing) => kernels::add_assign(existing, &g),
                s @ None => *s = Some(g),
            }),
        )
    }

    /// Embedding lookup: rows of parameter `id` at `indices`.
    pub fn gather_param(&mut self, store: &ParamStore, id: ParamId, indices: Arc<Vec<u32>>) -> Var {
        let value = kernels::gather_rows(store.value(id), &indices);
        let (rows, cols) = store.value(id).shape();
        self.push(
            value,
            dense_op(move |g, _ng, sinks| {
                sinks
                    .params
                    .scatter_accumulate(id, rows, cols, &indices, &g);
            }),
        )
    }

    // ----- structural ops ------------------------------------------------

    /// Rows of node `src` at `indices`.
    pub fn gather(&mut self, src: Var, indices: Arc<Vec<u32>>) -> Var {
        let value = kernels::gather_rows(self.value(src), &indices);
        let backward = self.gather_backward(src, indices);
        self.push(value, backward)
    }

    /// [`Tape::gather`] recorded without its value: the tape neither
    /// computes nor holds the rows, and whoever reads them gathers them
    /// from `src`'s value itself (`kernels::gather_rows`, what `gather`
    /// runs), when and where it needs them. A table that many consumers
    /// read in pieces is then never copied all at once. Reading the node's
    /// value panics; its backward is `gather`'s, so a cotangent seeded at
    /// it ([`Tape::backward_seeded`]) scatters into `src`'s exactly as one
    /// seeded at a `gather` does. Reads no value, so it records after
    /// [`Tape::release_values`] too.
    pub fn gather_unheld(&mut self, src: Var, indices: Arc<Vec<u32>>) -> Var {
        self.tables.push(Held {
            m: None,
            rows: indices.len(),
            written: None,
        });
        let at = Loc {
            table: self.tables.len() - 1,
            cols: 0..self.shape(src).1,
        };
        let backward = self.gather_backward(src, indices);
        self.push_at(at, backward)
    }

    /// The backward of a gather of `src` at `indices`: its cotangent's rows
    /// scatter-add into `src`'s accumulator.
    fn gather_backward(&self, src: Var, indices: Arc<Vec<u32>>) -> Option<BackwardOp> {
        let (rows, cols) = self.shape(src);
        dense_op(move |g, ng, _sinks| {
            ng.scatter_accumulate(src, rows, cols, &indices, &g);
        })
    }

    /// CSR segment mean: output row `i` is the mean of
    /// `src[members[offsets[i]..offsets[i+1]]]`; empty segments yield zero.
    ///
    /// Backward: a cotangent listed at a few segments scatters those
    /// segments only; a full one goes through
    /// `kernels::segment_mean_backward`, whose zero-row skip only ever
    /// sees full tables.
    pub fn segment_mean(
        &mut self,
        src: Var,
        offsets: Arc<Vec<usize>>,
        members: Arc<Vec<u32>>,
    ) -> Var {
        self.segment_mean_into(src, offsets, members, None)
    }

    /// [`Tape::segment_mean`], written into columns `col ..` of a reserved
    /// table when `dst` is `Some((table, col))`. Reads `src`'s window in
    /// place.
    pub fn segment_mean_into(
        &mut self,
        src: Var,
        offsets: Arc<Vec<usize>>,
        members: Arc<Vec<u32>>,
        dst: Option<(Table, usize)>,
    ) -> Var {
        let (table, cols) = self.arc_window(src);
        let src_rows = table.rows();
        let at = self.place(
            dst,
            cols.len(),
            || kernels::segment_mean_cols(&table, cols.clone(), &offsets, &members),
            |m, col| kernels::segment_mean_into(&table, cols.clone(), &offsets, &members, m, col),
        );
        self.push_at(
            at,
            Some(Box::new(move |g, ng, _sinks| {
                let back = match g {
                    Cot::Rows { rows, m, .. } => {
                        segment_mean_rows_vjp(&rows, m.view(), &offsets, &members, src_rows)
                    }
                    Cot::Dense(g) => Cot::from(kernels::segment_mean_backward(
                        &g.m,
                        g.cols.clone(),
                        &offsets,
                        &members,
                        src_rows,
                    )),
                };
                ng.accumulate(src, back);
            })),
        )
    }

    /// Horizontal concatenation of nodes with equal row counts.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        self.concat_cols_into(parts, None)
    }

    /// [`Tape::concat_cols`] into columns `col ..` of a reserved table when
    /// `dst` is `Some((table, col))`. A part whose window already lies
    /// where the concatenation puts it is not copied — the node only
    /// records the wider window — and every other part is copied into its
    /// columns.
    pub fn concat_cols_into(&mut self, parts: &[Var], dst: Option<(Table, usize)>) -> Var {
        let widths: Vec<(Var, usize)> = parts.iter().map(|&p| (p, self.shape(p).1)).collect();
        let width: usize = widths.iter().map(|&(_, w)| w).sum();
        let at = match dst {
            None => {
                let mats: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
                let value = kernels::concat_cols(&mats);
                self.hold(Arc::new(value))
            }
            Some((table, col)) => {
                let mut offset = col;
                for &(p, w) in &widths {
                    let in_place = self.nodes[p.0].at.table == table.0
                        && self.nodes[p.0].at.cols.start == offset;
                    if !in_place {
                        let (src, cols) = self.arc_window(p);
                        self.write_window((table, offset), w, |m, at| {
                            kernels::copy_cols(&src, cols, m, at)
                        });
                    }
                    offset += w;
                }
                Loc {
                    table: table.0,
                    cols: col..col + width,
                }
            }
        };
        self.push_at(
            at,
            Some(Box::new(move |g: Cot, ng, _sinks| {
                let mut at = 0;
                for (p, w) in widths {
                    ng.accumulate(p, g.narrow(at, w));
                    at += w;
                }
            })),
        )
    }

    // ----- linear algebra -------------------------------------------------

    /// Matrix product `a * b`. The backward pays only for the cotangent's
    /// nonzero rows; operands must be finite (see [`Tape::dense`]).
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let av = self.arc_value(a);
        let bv = self.arc_value(b);
        let value = kernels::matmul(&av, &bv);
        self.push(
            value,
            dense_op(move |g, ng, _sinks| {
                let (da, db) = matmul_vjp(&av, &bv, g);
                ng.accumulate(a, da);
                ng.accumulate(b, db);
            }),
        )
    }

    /// One fully-connected layer as one node: `tanh(x * w + bias)`, `bias`
    /// a `1 x cols` row added to every row. Bit-identical — value and all
    /// three cotangents — to recording [`Tape::matmul`], [`Tape::add_bias`]
    /// and [`Tape::tanh`] in a chain, but the product, the biased sum and
    /// the tanh share one buffer, so the tape holds one table for the
    /// layer instead of three.
    ///
    /// Forward: the product skips the rows of `x` that are entirely `±0.0`
    /// (`dense_product` says when that changes no bit) — a node with no
    /// neighbours in a view propagates an empty-segment zero row. The bias
    /// and the tanh then run over every row in one pass per row (each is a
    /// function of its element alone; `kernels::tanh_inplace` is all there
    /// is under `kernels::tanh`).
    ///
    /// Backward: `g ⊙ tanh′(y)` in place, its column sum to `bias`, then the
    /// matmul VJP, which skips rows of it that are entirely `±0.0` (a
    /// mini-batch's cotangent is zero outside the rows it touched). The
    /// skip changes no bit provided `x` and `w` are finite — `0 · ∞` is the
    /// only way a skipped row could have contributed. A cotangent listed
    /// at a few rows is not scanned: `tanh′`, the column sum,
    /// `dX = g W^T` and `dW = X[rows]^T g` run on its listed rows alone
    /// (`X`'s read in place), and `dX` stays listed at the same rows. A
    /// full cotangent's `g ⊙ tanh′(y)` is written over `y`'s buffer once
    /// the tape has released its values (this closure then holds the last
    /// handle on it), so the cotangent is read, not copied.
    ///
    /// # Panics
    /// Panics if the shapes do not compose.
    pub fn dense(&mut self, x: Var, w: Var, bias: Var) -> Var {
        let xv = self.arc_value(x);
        let wv = self.arc_value(w);
        let mut value = dense_product(&xv, &wv);
        let b = self.value(bias);
        assert_eq!(b.rows(), 1, "bias must be a row vector");
        assert_eq!(value.cols(), b.cols(), "bias width mismatch");
        for r in 0..value.rows() {
            let row = value.row_mut(r);
            for (v, y) in row.iter_mut().zip(b.row(0)) {
                *v += y;
            }
            kernels::tanh_inplace(row);
        }
        let value = Arc::new(value);
        let y = Arc::clone(&value);
        self.push_arc(
            value,
            Some(Box::new(move |g, ng, _sinks| match g {
                Cot::Rows { height, rows, m } => {
                    let mut m = m.into_matrix();
                    for (i, &r) in rows.iter().enumerate() {
                        tanh_vjp(m.row_mut(i), y.row(r as usize));
                    }
                    ng.accumulate(bias, kernels::col_sum(&m));
                    let dx = kernels::matmul_nt(&m, &wv);
                    let dw = kernels::matmul_tn_rows(&xv, &rows, &m);
                    ng.accumulate(
                        x,
                        Cot::Rows {
                            height,
                            rows,
                            m: Shared::whole(dx),
                        },
                    );
                    ng.accumulate(w, dw);
                }
                Cot::Dense(g) => {
                    // `g ⊙ tanh′(y)` over `y`'s own buffer when this closure
                    // holds the last handle on it (the tape has released its
                    // values), reading `g` in place; over a copy of `g`
                    // otherwise.
                    let g = match Arc::try_unwrap(y) {
                        Ok(mut y) => {
                            tanh_vjp_over_output(&mut y, g.view());
                            y
                        }
                        Err(y) => {
                            let mut g = g.into_matrix();
                            tanh_vjp(g.as_mut_slice(), y.as_slice());
                            g
                        }
                    };
                    ng.accumulate(bias, kernels::col_sum(&g));
                    let (dx, dw) = matmul_vjp(&xv, &wv, g);
                    ng.accumulate(x, dx);
                    ng.accumulate(w, dw);
                }
            })),
        )
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.add_into(a, b, None)
    }

    /// [`Tape::add`], written into columns `col ..` of a reserved table
    /// when `dst` is `Some((table, col))`.
    pub fn add_into(&mut self, a: Var, b: Var, dst: Option<(Table, usize)>) -> Var {
        let (av, bv) = (self.arc_value(a), self.arc_value(b));
        let at = self.place(
            dst,
            av.cols(),
            || kernels::add(&av, &bv),
            |m, col| kernels::add_into(&av, &bv, m, col),
        );
        self.push_at(
            at,
            Some(Box::new(move |g: Cot, ng, _sinks| {
                ng.accumulate(a, g.clone());
                ng.accumulate(b, g);
            })),
        )
    }

    /// Elementwise difference `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = kernels::sub(self.value(a), self.value(b));
        self.push(
            value,
            dense_op(move |g, ng, _sinks| {
                ng.accumulate(b, kernels::scale(&g, -1.0));
                ng.accumulate(a, g);
            }),
        )
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let av = self.arc_value(a);
        let bv = self.arc_value(b);
        let value = kernels::mul(&av, &bv);
        self.push(
            value,
            dense_op(move |g, ng, _sinks| {
                let da = kernels::mul(&g, &bv);
                let db = kernels::mul(&g, &av);
                ng.accumulate(a, da);
                ng.accumulate(b, db);
            }),
        )
    }

    /// Adds a `1 x cols` bias row to every row of `x`.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let value = kernels::add_bias(self.value(x), self.value(bias));
        self.push(
            value,
            dense_op(move |g, ng, _sinks| {
                ng.accumulate(bias, kernels::col_sum(&g));
                ng.accumulate(x, g);
            }),
        )
    }

    /// Scalar multiple `alpha * a`.
    pub fn scale(&mut self, a: Var, alpha: f32) -> Var {
        let value = kernels::scale(self.value(a), alpha);
        self.push(
            value,
            Some(Box::new(move |g: Cot, ng, _sinks| {
                // `+0.0 · alpha` is `+0.0` only for a finite `alpha ≥ +0.0`
                // (`-0.0` for a negative one, NaN for an infinite one), so
                // any other `alpha` needs the full table.
                let g = if alpha.is_sign_positive() && alpha.is_finite() {
                    g
                } else {
                    Cot::from(g.into_dense())
                };
                ng.accumulate(a, g.map_rows(|m| kernels::scale(m, alpha)));
            })),
        )
    }

    /// Row-wise dot products, producing an `n x 1` column of scores.
    pub fn rowwise_dot(&mut self, a: Var, b: Var) -> Var {
        let av = self.arc_value(a);
        let bv = self.arc_value(b);
        let value = kernels::rowwise_dot(&av, &bv);
        self.push(
            value,
            dense_op(move |g, ng, _sinks| {
                // d(a·b)/da = g[i] * b[i] rowwise (g is n x 1).
                let mut da = (*bv).clone();
                let mut db = (*av).clone();
                for r in 0..g.rows() {
                    let gr = g.get(r, 0);
                    da.row_mut(r).iter_mut().for_each(|v| *v *= gr);
                    db.row_mut(r).iter_mut().for_each(|v| *v *= gr);
                }
                ng.accumulate(a, da);
                ng.accumulate(b, db);
            }),
        )
    }

    /// Dot products of indexed row pairs, producing an `n x 1` column of
    /// scores: `out[r] = a[ia[r]] · b[ib[r]]`, read straight off the two
    /// tables.
    ///
    /// Bit-identical — value and both cotangents — to
    /// `rowwise_dot(gather(a, ia), gather(b, ib))` when each gather feeds
    /// that one dot, without the two gathered copies or their two scaled
    /// clones on the way back. The backward scatters `b`'s rows first,
    /// then `a`'s, each in index order with the product rounded before
    /// the add — the order the composition's descending sweep meets its
    /// two gathers in — so `a` and `b` may be the same node.
    pub fn gather_dot(&mut self, a: Var, ia: Arc<Vec<u32>>, b: Var, ib: Arc<Vec<u32>>) -> Var {
        let av = self.arc_value(a);
        let bv = self.arc_value(b);
        let value = kernels::gather_dot(&av, &ia, &bv, &ib);
        self.push(
            value,
            dense_op(move |g, ng, _sinks| {
                ng.scatter_accumulate_scaled(b, bv.rows(), &ib, &av, &ia, &g);
                ng.scatter_accumulate_scaled(a, av.rows(), &ia, &bv, &ib, &g);
            }),
        )
    }

    /// Scales row `i` of `a` by the scalar `s[i]` (`s` is `n x 1`).
    pub fn scale_rows(&mut self, a: Var, s: Var) -> Var {
        let av = self.arc_value(a);
        let sv = self.arc_value(s);
        let value = kernels::scale_rows(&av, &sv);
        self.push(
            value,
            dense_op(move |g, ng, _sinks| {
                // out[i] = s[i] * a[i]  =>  da[i] = s[i] * g[i],
                // ds[i] = g[i] · a[i].
                let da = kernels::scale_rows(&g, &sv);
                let ds = kernels::rowwise_dot(&g, &av);
                ng.accumulate(a, da);
                ng.accumulate(s, ds);
            }),
        )
    }

    // ----- activations -----------------------------------------------------

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = Arc::new(kernels::sigmoid(self.value(a)));
        let y = Arc::clone(&value);
        self.push_arc(
            value,
            dense_op(move |mut g, ng, _sinks| {
                // σ′ = y(1 - y) from the stored output.
                let pairs = g.as_mut_slice().iter_mut().zip(y.as_slice());
                pairs.for_each(|(d, &yy)| *d *= yy * (1.0 - yy));
                ng.accumulate(a, g);
            }),
        )
    }

    /// Elementwise tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = Arc::new(kernels::tanh(self.value(a)));
        let y = Arc::clone(&value);
        self.push_arc(
            value,
            dense_op(move |mut g, ng, _sinks| {
                tanh_vjp(g.as_mut_slice(), y.as_slice());
                ng.accumulate(a, g);
            }),
        )
    }

    /// Elementwise LeakyReLU (negative slope `alpha`).
    pub fn leaky_relu(&mut self, a: Var, alpha: f32) -> Var {
        let value = Arc::new(kernels::leaky_relu(self.value(a), alpha));
        let y = Arc::clone(&value);
        self.push_arc(
            value,
            dense_op(move |mut g, ng, _sinks| {
                // For a positive slope the output has its input's sign.
                let pairs = g.as_mut_slice().iter_mut().zip(y.as_slice());
                pairs.for_each(|(d, &yy)| {
                    if yy < 0.0 {
                        *d *= alpha;
                    }
                });
                ng.accumulate(a, g);
            }),
        )
    }

    /// Numerically stable `ln(sigmoid(x))` — the BPR building block
    /// (Eqs. 10–11 of the paper).
    pub fn log_sigmoid(&mut self, a: Var) -> Var {
        let x = self.arc_value(a);
        let value = x.map(kernels::log_sigmoid_scalar);
        self.push(
            value,
            dense_op(move |mut g, ng, _sinks| {
                // d/dx ln σ(x) = σ(-x); uses the stored input.
                for (d, &xx) in g.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    *d *= kernels::sigmoid_scalar(-xx);
                }
                ng.accumulate(a, g);
            }),
        )
    }

    // ----- reductions -------------------------------------------------------

    /// Sum of all elements, as a `1 x 1` node.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = kernels::sum_all(self.value(a));
        let (rows, cols) = self.shape(a);
        self.push(
            value,
            dense_op(move |g, ng, _sinks| {
                ng.accumulate(a, Matrix::full(rows, cols, g.get(0, 0)));
            }),
        )
    }

    /// Mean of all elements, as a `1 x 1` node.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = kernels::mean_all(self.value(a));
        let (rows, cols) = self.shape(a);
        self.push(
            value,
            dense_op(move |g, ng, _sinks| {
                let n = (rows * cols).max(1) as f32;
                ng.accumulate(a, Matrix::full(rows, cols, g.get(0, 0) / n));
            }),
        )
    }

    /// Sum of squared elements, as a `1 x 1` node (L2 regularization term).
    pub fn sum_sq(&mut self, a: Var) -> Var {
        let x = self.arc_value(a);
        let value = Matrix::from_vec(1, 1, vec![x.sq_norm()]);
        self.push(
            value,
            dense_op(move |g, ng, _sinks| {
                ng.accumulate(a, kernels::scale(&x, 2.0 * g.get(0, 0)));
            }),
        )
    }

    /// Mean over rows producing a `1 x cols` row vector.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let m = self.value(a);
        let (rows, cols) = m.shape();
        let mut value = kernels::col_sum(m);
        if rows > 0 {
            let inv = 1.0 / rows as f32;
            value.map_inplace(|v| v * inv);
        }
        self.push(
            value,
            dense_op(move |g, ng, _sinks| {
                let inv = 1.0 / rows.max(1) as f32;
                let mut da = Matrix::zeros(rows, cols);
                for r in 0..rows {
                    for (d, &gg) in da.row_mut(r).iter_mut().zip(g.row(0)) {
                        *d = gg * inv;
                    }
                }
                ng.accumulate(a, da);
            }),
        )
    }

    // ----- backward ---------------------------------------------------------

    /// Reverse sweep from scalar node `loss`, returning parameter gradients.
    ///
    /// # Panics
    /// Panics if `loss` is not `1 x 1`, or if the tape's backward
    /// closures were already consumed by a previous sweep.
    pub fn backward(&mut self, loss: Var, store: &ParamStore) -> Gradients {
        self.backward_with_inputs(loss, store).0
    }

    /// Like [`Tape::backward`], additionally returning the cotangents
    /// that reached each [`Tape::input`] leaf (positionally, in
    /// recording order; `None` where no gradient flowed).
    pub fn backward_with_inputs(
        &mut self,
        loss: Var,
        store: &ParamStore,
    ) -> (Gradients, Vec<Option<Matrix>>) {
        assert_eq!(
            self.shape(loss),
            (1, 1),
            "backward seed must be a scalar node"
        );
        self.sweep(vec![(loss, Matrix::from_vec(1, 1, vec![1.0]))], store)
    }

    /// Reverse sweep seeded with explicit cotangents instead of a scalar
    /// loss — the batch-tape side of the shared-forward protocol: one
    /// seeded sweep backpropagates the shards' input gradients through
    /// the shared forward. They reach it reduced in fixed shard order
    /// either way: summed by the caller and seeded at the table's node,
    /// or seeded shard by shard at per-shard `gather` nodes of the table,
    /// whose fused backwards accumulate them in sweep (descending node)
    /// order.
    ///
    /// # Panics
    /// Panics if a seed's shape differs from its node's value shape, or
    /// if the tape was already consumed.
    pub fn backward_seeded(&mut self, seeds: Vec<(Var, Matrix)>, store: &ParamStore) -> Gradients {
        self.sweep(seeds, store).0
    }

    /// The single reverse sweep: consumes the backward closures in
    /// strictly descending node order (the fixed execution order the
    /// bitwise determinism proptests pin).
    fn sweep(
        &mut self,
        seeds: Vec<(Var, Matrix)>,
        store: &ParamStore,
    ) -> (Gradients, Vec<Option<Matrix>>) {
        assert!(
            !self.consumed,
            "tape already consumed by a previous backward pass"
        );
        self.consumed = true;
        let mut node_grads = NodeGrads {
            slots: (0..self.nodes.len()).map(|_| None).collect(),
        };
        let mut start = None;
        for (v, g) in seeds {
            assert_eq!(
                g.shape(),
                self.shape(v),
                "backward seed shape must match its node value"
            );
            start = Some(start.map_or(v.0, |s: usize| s.max(v.0)));
            node_grads.accumulate(v, g);
        }
        let mut sinks = GradSinks {
            params: Gradients::empty(store.len()),
            inputs: (0..self.n_inputs).map(|_| None).collect(),
        };
        if let Some(start) = start {
            for idx in (0..=start).rev() {
                let Some(g) = node_grads.take(idx) else {
                    continue;
                };
                let Some(back) = self.nodes[idx].backward.take() else {
                    continue;
                };
                back(g, &mut node_grads, &mut sinks);
            }
        }
        (sinks.params, sinks.inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(name: &str, m: Matrix) -> (ParamStore, ParamId) {
        let mut s = ParamStore::new();
        let id = s.add(name, m);
        (s, id)
    }

    #[test]
    fn linear_chain_gradient() {
        // loss = sum(3 * w) => d loss / d w = 3.
        let (store, w) = store_with("w", Matrix::full(2, 2, 1.0));
        let mut t = Tape::new();
        let wv = t.param(&store, w);
        let s = t.scale(wv, 3.0);
        let loss = t.sum_all(s);
        let grads = t.backward(loss, &store);
        assert_eq!(grads.get(w).unwrap().as_slice(), &[3.0; 4]);
    }

    #[test]
    fn fan_out_accumulates() {
        // loss = sum(w) + sum(w) => gradient 2 everywhere.
        let (store, w) = store_with("w", Matrix::full(1, 3, 5.0));
        let mut t = Tape::new();
        let wv = t.param(&store, w);
        let s1 = t.sum_all(wv);
        let s2 = t.sum_all(wv);
        let loss = t.add(s1, s2);
        let grads = t.backward(loss, &store);
        assert_eq!(grads.get(w).unwrap().as_slice(), &[2.0; 3]);
    }

    #[test]
    fn matmul_gradient_shapes() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::full(2, 3, 1.0));
        let b = store.add("b", Matrix::full(3, 4, 1.0));
        let mut t = Tape::new();
        let av = t.param(&store, a);
        let bv = t.param(&store, b);
        let c = t.matmul(av, bv);
        let loss = t.sum_all(c);
        let grads = t.backward(loss, &store);
        assert_eq!(grads.get(a).unwrap().shape(), (2, 3));
        assert_eq!(grads.get(b).unwrap().shape(), (3, 4));
        // dA = ones(2,4) * B^T = rows of 4s.
        assert_eq!(grads.get(a).unwrap().as_slice(), &[4.0; 6]);
        assert_eq!(grads.get(b).unwrap().as_slice(), &[2.0; 12]);
    }

    #[test]
    fn gather_param_routes_sparse_grads() {
        let (store, w) = store_with("emb", Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32));
        let mut t = Tape::new();
        let g = t.gather_param(&store, w, Arc::new(vec![1, 1, 3]));
        let loss = t.sum_all(g);
        let grads = t.backward(loss, &store);
        let gw = grads.get(w).unwrap();
        assert_eq!(gw.row(0), &[0.0, 0.0]);
        assert_eq!(gw.row(1), &[2.0, 2.0]); // picked twice
        assert_eq!(gw.row(2), &[0.0, 0.0]);
        assert_eq!(gw.row(3), &[1.0, 1.0]);
    }

    #[test]
    fn segment_mean_grad_scales_by_len() {
        let (store, w) = store_with("emb", Matrix::full(3, 2, 1.0));
        let mut t = Tape::new();
        let wv = t.param(&store, w);
        // one segment holding all three rows
        let sm = t.segment_mean(wv, Arc::new(vec![0, 3]), Arc::new(vec![0, 1, 2]));
        let loss = t.sum_all(sm);
        let grads = t.backward(loss, &store);
        for r in 0..3 {
            for &v in grads.get(w).unwrap().row(r) {
                assert!((v - 1.0 / 3.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn bpr_style_loss_direction() {
        // loss = -ln σ(pos - neg): gradient should push pos up, neg down.
        let mut store = ParamStore::new();
        let p = store.add("pos", Matrix::from_vec(1, 1, vec![0.2]));
        let n = store.add("neg", Matrix::from_vec(1, 1, vec![0.4]));
        let mut t = Tape::new();
        let pv = t.param(&store, p);
        let nv = t.param(&store, n);
        let diff = t.sub(pv, nv);
        let ls = t.log_sigmoid(diff);
        let sum = t.sum_all(ls);
        let loss = t.scale(sum, -1.0);
        let grads = t.backward(loss, &store);
        assert!(
            grads.get(p).unwrap().get(0, 0) < 0.0,
            "pos grad must be negative (descent raises pos)"
        );
        assert!(grads.get(n).unwrap().get(0, 0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "scalar node")]
    fn backward_rejects_non_scalar() {
        let (store, w) = store_with("w", Matrix::zeros(2, 2));
        let mut t = Tape::new();
        let wv = t.param(&store, w);
        t.backward(wv, &store);
    }

    #[test]
    fn constant_receives_no_gradient() {
        let (store, w) = store_with("w", Matrix::full(1, 2, 1.0));
        let mut t = Tape::new();
        let c = t.constant(Matrix::full(1, 2, 7.0));
        let wv = t.param(&store, w);
        let prod = t.mul(c, wv);
        let loss = t.sum_all(prod);
        let grads = t.backward(loss, &store);
        // d loss / d w = c
        assert_eq!(grads.get(w).unwrap().as_slice(), &[7.0, 7.0]);
    }

    #[test]
    fn mean_rows_backward_uniform() {
        let (store, w) = store_with("w", Matrix::full(4, 3, 2.0));
        let mut t = Tape::new();
        let wv = t.param(&store, w);
        let m = t.mean_rows(wv);
        let loss = t.sum_all(m);
        let grads = t.backward(loss, &store);
        for &v in grads.get(w).unwrap().as_slice() {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    // ----- boxed-op ownership model ---------------------------------------

    #[test]
    #[should_panic(expected = "already consumed")]
    fn double_backward_panics() {
        let (store, w) = store_with("w", Matrix::full(2, 2, 1.0));
        let mut t = Tape::new();
        let wv = t.param(&store, w);
        let loss = t.sum_all(wv);
        let _ = t.backward(loss, &store);
        let _ = t.backward(loss, &store);
    }

    #[test]
    fn values_stay_readable_after_backward() {
        let (store, w) = store_with("w", Matrix::full(2, 2, 1.5));
        let mut t = Tape::new();
        let wv = t.param(&store, w);
        let loss = t.sum_all(wv);
        let _ = t.backward(loss, &store);
        assert_eq!(t.value(loss).get(0, 0), 6.0);
        assert_eq!(t.value(wv).as_slice(), &[1.5; 4]);
    }

    #[test]
    #[should_panic(expected = "the value of node 1 is not held")]
    fn reading_a_released_value_panics_naming_the_node() {
        let (store, w) = store_with("w", Matrix::full(2, 2, 1.5));
        let mut t = Tape::new();
        let wv = t.param(&store, w);
        let s = t.scale(wv, 2.0);
        t.release_values();
        t.value(s);
    }

    #[test]
    fn a_released_tape_keeps_shapes_and_what_callers_took() {
        let (store, w) = store_with("w", Matrix::full(2, 3, 1.5));
        let mut t = Tape::new();
        let wv = t.param(&store, w);
        let s = t.scale(wv, 2.0);
        let taken = t.arc_value(s);
        let loss = t.sum_all(s);
        t.release_values();
        assert_eq!(taken.as_slice(), &[3.0; 6]);
        // The seed check reads the released node's shape.
        let grads = t.backward_seeded(vec![(loss, Matrix::full(1, 1, 1.0))], &store);
        assert_eq!(grads.get(w).unwrap().as_slice(), &[2.0; 6]);
    }

    #[test]
    fn an_unheld_gather_backpropagates_as_a_gather_bitwise() {
        let (store, w) = store_with("emb", awkward(6, 3, 4));
        let rows = Arc::new(vec![0u32, 2, 5]);
        let g = awkward(3, 3, 9);
        let run = |unheld: bool| {
            let mut t = Tape::new();
            let wv = t.param(&store, w);
            let sm = t.segment_mean(
                wv,
                Arc::new(vec![0, 2, 3, 3, 5, 6, 6]),
                Arc::new(vec![1, 4, 0, 2, 3, 5]),
            );
            let picked = if unheld {
                t.release_values();
                t.gather_unheld(sm, Arc::clone(&rows))
            } else {
                t.gather(sm, Arc::clone(&rows))
            };
            let grads = t.backward_seeded(vec![(picked, g.clone())], &store);
            bits(grads.get(w).unwrap())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    #[should_panic(expected = "the value of node 1 is not held")]
    fn an_unheld_gather_has_no_value() {
        let (store, w) = store_with("w", Matrix::full(3, 2, 1.0));
        let mut t = Tape::new();
        let wv = t.param(&store, w);
        let picked = t.gather_unheld(wv, Arc::new(vec![2, 0]));
        t.value(picked);
    }

    #[test]
    fn input_leaf_collects_gradient() {
        // loss = sum(3 * input): the input leaf's cotangent is 3s, and
        // fan-out accumulates into one slot.
        let store = ParamStore::new();
        let mut t = Tape::new();
        let x = t.input(Arc::new(Matrix::full(2, 2, 1.0)));
        let s = t.scale(x, 3.0);
        let l1 = t.sum_all(s);
        let l2 = t.sum_all(x);
        let loss = t.add(l1, l2);
        let (grads, inputs) = t.backward_with_inputs(loss, &store);
        assert_eq!(grads.touched(), 0);
        assert_eq!(inputs.len(), 1);
        assert_eq!(inputs[0].as_ref().unwrap().as_slice(), &[4.0; 4]);
    }

    #[test]
    fn seeded_backward_composes_with_input_tapes() {
        // Split one computation across two tapes at a table boundary and
        // check the composition reproduces the single-tape gradients
        // bitwise: fwd = segment_mean(w); shard = sum(3 * gather(fwd)).
        let (store, w) = store_with(
            "emb",
            Matrix::from_fn(3, 2, |r, c| 0.5 + r as f32 - c as f32),
        );
        let offsets = Arc::new(vec![0usize, 2, 3]);
        let members = Arc::new(vec![0u32, 1, 2]);
        let idx = Arc::new(vec![1u32, 0, 1]);

        // Single-tape reference.
        let mut full = Tape::new();
        let wv = full.param(&store, w);
        let sm = full.segment_mean(wv, Arc::clone(&offsets), Arc::clone(&members));
        let gt = full.gather(sm, Arc::clone(&idx));
        let sc = full.scale(gt, 3.0);
        let loss = full.sum_all(sc);
        let want = full.backward(loss, &store);

        // Two-tape composition over the table boundary.
        let mut fwd = Tape::new();
        let wv2 = fwd.param(&store, w);
        let sm2 = fwd.segment_mean(wv2, offsets, members);
        let table = fwd.arc_value(sm2);

        let mut shard = Tape::new();
        let tin = shard.input(table);
        let gt2 = shard.gather(tin, idx);
        let sc2 = shard.scale(gt2, 3.0);
        let loss2 = shard.sum_all(sc2);
        let (mut got, input_grads) = shard.backward_with_inputs(loss2, &store);
        let seed = input_grads.into_iter().next().unwrap().unwrap();
        got.merge(fwd.backward_seeded(vec![(sm2, seed)], &store));

        assert_eq!(
            got.get(w).unwrap().as_slice(),
            want.get(w).unwrap().as_slice()
        );
    }

    #[test]
    #[should_panic(expected = "seed shape")]
    fn seeded_backward_rejects_shape_mismatch() {
        let (store, w) = store_with("w", Matrix::full(2, 2, 1.0));
        let mut t = Tape::new();
        let wv = t.param(&store, w);
        let _ = t.backward_seeded(vec![(wv, Matrix::zeros(1, 1))], &store);
    }

    #[test]
    fn fused_gather_backward_matches_table_per_node_reference() {
        let (store, w) = store_with("emb", Matrix::from_fn(4, 2, |r, c| (r + c) as f32 * 0.3));
        // Row 2 repeats inside the first gather and recurs in the second.
        let (idx1, idx2) = (vec![0u32, 2, 2], vec![1u32, 2]);
        // Dyadic weights: every partial sum below is exact in any order.
        let (w1, w2) = (0.5f32, 0.25f32);

        let mut t = Tape::new();
        let wv = t.param(&store, w);
        let g1 = t.gather(wv, Arc::new(idx1.clone()));
        let g2 = t.gather(wv, Arc::new(idx2.clone()));
        let s1 = t.sum_all(g1);
        let s2 = t.sum_all(g2);
        let s1 = t.scale(s1, w1);
        let s2 = t.scale(s2, w2);
        let loss = t.add(s1, s2);
        let fused = t.backward(loss, &store);

        // Reference: one zeroed table per gather node, summed afterwards.
        let table_of = |idx: &[u32], weight: f32| {
            let mut table = Matrix::zeros(4, 2);
            kernels::scatter_add_rows(&mut table, idx, &Matrix::full(idx.len(), 2, weight));
            table
        };
        let mut want = table_of(&idx2, w2);
        kernels::add_assign(&mut want, &table_of(&idx1, w1));

        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(fused.get(w).unwrap()), bits(&want));
    }

    // ----- gather_dot == gather + gather + rowwise_dot ---------------------

    /// `(a, ia, b, ib)`: tables by position, and their aligned row lists.
    type DotSpec = (usize, Vec<u32>, usize, Vec<u32>);

    /// One dot per spec over the tables `params`, recorded fused or as the
    /// three-node composition, each through its own `log σ(w_k · dot)` so
    /// every row's cotangent differs. Returns the dots' value bits and the
    /// table gradients.
    fn dots_grads(
        store: &ParamStore,
        params: &[ParamId],
        specs: &[DotSpec],
        fused: bool,
    ) -> (Vec<Vec<u32>>, Gradients) {
        let mut t = Tape::new();
        let tables: Vec<Var> = params.iter().map(|&p| t.param(store, p)).collect();
        let mut values = Vec::new();
        let mut total = None;
        for (k, (a, ia, b, ib)) in specs.iter().enumerate() {
            let (ia, ib) = (Arc::new(ia.clone()), Arc::new(ib.clone()));
            let d = if fused {
                t.gather_dot(tables[*a], ia, tables[*b], ib)
            } else {
                let ga = t.gather(tables[*a], ia);
                let gb = t.gather(tables[*b], ib);
                t.rowwise_dot(ga, gb)
            };
            values.push(t.value(d).as_slice().iter().map(|v| v.to_bits()).collect());
            let w = t.scale(d, 0.3 + 0.4 * k as f32);
            let ls = t.log_sigmoid(w);
            let term = t.sum_all(ls);
            total = Some(match total {
                Some(acc) => t.add(acc, term),
                None => term,
            });
        }
        let loss = total.expect("at least one dot spec");
        (values, t.backward(loss, store))
    }

    fn assert_fused_matches_composition(widths: &[usize], rows: &[usize], specs: &[DotSpec]) {
        for &w in widths {
            let mut store = ParamStore::new();
            let params: Vec<ParamId> = rows
                .iter()
                .enumerate()
                .map(|(p, &n)| {
                    store.add(
                        format!("t{p}"),
                        Matrix::from_fn(n, w, |r, c| {
                            ((p * 31 + r * 7 + c * 3) as f32 * 0.37).sin() * 0.9
                        }),
                    )
                })
                .collect();
            let (fused_values, fused) = dots_grads(&store, &params, specs, true);
            let (comp_values, comp) = dots_grads(&store, &params, specs, false);
            assert_eq!(fused_values, comp_values, "width {w}: forward bits");
            for &p in &params {
                let bits = |g: &Gradients| {
                    g.get(p)
                        .map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                };
                assert_eq!(
                    bits(&fused),
                    bits(&comp),
                    "width {w}: cotangent of table {p}"
                );
            }
        }
    }

    #[test]
    fn gather_dot_matches_gather_gather_rowwise_dot_bitwise() {
        // Duplicate indices on both sides, an empty index list (its tables
        // still receive a zero cotangent), every lane-tail width, and
        // several dots sharing a table on either side — the four
        // `tape_scores` calls of one shard, in miniature.
        assert_fused_matches_composition(
            &[1, 7, 8, 32, 33],
            &[5, 4, 6, 3],
            &[
                (0, vec![4, 0, 4, 4, 2, 0], 1, vec![3, 3, 1, 0, 3, 2]),
                (0, vec![1, 4, 1], 2, vec![5, 0, 5]),
                (2, vec![0, 0, 3, 5], 1, vec![2, 2, 2, 1]),
                (3, vec![], 1, vec![]),
                (0, vec![2], 2, vec![2]),
            ],
        );
    }

    #[test]
    fn gather_dot_of_a_table_with_itself_scatters_b_side_first() {
        // `a` and `b` the same node: both scatters land in one
        // accumulator, `b`'s rows first and then `a`'s — the order the
        // composition's sweep meets its two gathers in. Overlapping
        // indices make any other order round differently.
        assert_fused_matches_composition(
            &[1, 7, 33],
            &[6],
            &[
                (0, vec![0, 1, 2, 3, 1, 5], 0, vec![1, 1, 0, 3, 4, 5]),
                (0, vec![5, 5, 2], 0, vec![2, 5, 2]),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "gather_dot index count mismatch")]
    fn gather_dot_rejects_misaligned_index_lists() {
        let (store, w) = store_with("w", Matrix::zeros(3, 2));
        let mut t = Tape::new();
        let wv = t.param(&store, w);
        t.gather_dot(wv, Arc::new(vec![0, 1]), wv, Arc::new(vec![0]));
    }

    // ----- zero-row-aware matmul VJP, and the fused dense node -------------

    fn bits(m: &Matrix) -> Vec<u32> {
        // Any NaN equals any NaN: which operand's payload an x86 NaN
        // result carries depends on operand order.
        m.as_slice()
            .iter()
            .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
            .collect()
    }

    /// Finite test data with the awkward values mixed in: signed zeros,
    /// subnormals and 1e30-scale magnitudes, whose products overflow.
    fn awkward(rows: usize, cols: usize, seed: u32) -> Matrix {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let unit = (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5;
            match (state >> 4) % 16 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::MIN_POSITIVE * unit,
                3 => 1e30 * unit,
                _ => unit,
            }
        })
    }

    #[test]
    fn row_aware_matmul_vjp_equals_the_dense_vjp_bitwise() {
        // `(m, row, col)` -> the cotangent element a pattern overwrites;
        // `None` keeps the awkward data.
        type Pattern = fn(usize, usize, usize) -> Option<f32>;
        let patterns: [(&str, Pattern); 7] = [
            ("no zero row", |_, _, c| (c == 0).then_some(0.25)),
            ("all rows zero", |_, _, _| Some(0.0)),
            ("all rows -0.0", |_, _, _| Some(-0.0)),
            ("mixed-sign zeros, first row live", |_, r, c| {
                (r != 0).then_some(if (r + c) % 2 == 0 { 0.0 } else { -0.0 })
            }),
            ("last row live", |m, r, _| (r + 1 != m).then_some(-0.0)),
            ("a NaN row among zero rows", |m, r, _| {
                Some(if r == m / 2 { f32::NAN } else { 0.0 })
            }),
            ("a third of the rows live", |_, r, _| {
                (r % 3 != 0).then_some(0.0)
            }),
        ];
        for m in [0usize, 1, 3, 4, 5, 33, 2000] {
            // Reduction and output widths with and without lane tails; the
            // training shape only at the training height.
            let shapes: &[(usize, usize)] = if m == 2000 {
                &[(96, 96), (7, 33)]
            } else {
                &[(8, 16), (7, 9), (33, 17), (1, 1)]
            };
            for &(k, n) in shapes {
                let x = awkward(m, k, (m * 31 + k) as u32);
                let w = awkward(k, n, (k * 17 + n) as u32);
                let base = awkward(m, n, (m + n) as u32 + 5);
                for (what, pattern) in &patterns {
                    let g =
                        Matrix::from_fn(m, n, |r, c| pattern(m, r, c).unwrap_or(base.get(r, c)));
                    let (dx, dw) = matmul_vjp(&x, &w, g.clone());
                    let what = format!("{what}, {m}x{k} * {k}x{n}");
                    assert_eq!(bits(&dx), bits(&kernels::matmul_nt(&g, &w)), "dX: {what}");
                    assert_eq!(bits(&dw), bits(&kernels::matmul_tn(&x, &g)), "dW: {what}");
                }
            }
        }
    }

    #[test]
    fn dense_equals_the_matmul_add_bias_activation_chain_bitwise() {
        let mut store = ParamStore::new();
        let finite = |rows, cols, seed: f32| {
            Matrix::from_fn(rows, cols, |r, c| {
                (seed + 0.7 * r as f32 + 0.31 * c as f32).sin() * 0.8
            })
        };
        // Every third row of `x` signed zeros: the forward skips them.
        let zero_rows = |m: Matrix| {
            Matrix::from_fn(m.rows(), m.cols(), |r, c| match (r % 3, c % 2) {
                (1, 0) => 0.0,
                (1, _) => -0.0,
                _ => m.get(r, c),
            })
        };
        // Widths with and without lane tails.
        for (m, k, n) in [(9usize, 5usize, 7usize), (12, 16, 32), (1, 3, 1)] {
            let tag = format!("{m}x{k}x{n}");
            let x = store.add(format!("x{tag}"), zero_rows(finite(m, k, 0.2)));
            let w = store.add(format!("w{tag}"), finite(k, n, 0.9));
            let b = store.add(format!("b{tag}"), finite(1, n, 1.7));
            // A sparse read (most cotangent rows zero: the compact VJP) and
            // a read of every row (the full one).
            let reads: [Vec<u32>; 2] = [vec![m as u32 - 1, 0, 0], (0..m as u32).collect()];
            for read in &reads {
                let run = |fused: bool| {
                    let mut t = Tape::new();
                    let (xv, wv, bv) = (t.param(&store, x), t.param(&store, w), t.param(&store, b));
                    let y = if fused {
                        t.dense(xv, wv, bv)
                    } else {
                        let lin = t.matmul(xv, wv);
                        let biased = t.add_bias(lin, bv);
                        t.tanh(biased)
                    };
                    let value = bits(t.value(y));
                    let picked = t.gather(y, Arc::new(read.clone()));
                    let ls = t.log_sigmoid(picked);
                    let loss = t.sum_all(ls);
                    let grads = t.backward(loss, &store);
                    let of = |p| grads.get(p).map(bits);
                    (value, of(x), of(w), of(b), t.len())
                };
                let (fused, chain) = (run(true), run(false));
                let what = format!("{tag}, {} rows read", read.len());
                assert_eq!(fused.0, chain.0, "value: {what}");
                assert_eq!(fused.1, chain.1, "dX: {what}");
                assert_eq!(fused.2, chain.2, "dW: {what}");
                assert_eq!(fused.3, chain.3, "db: {what}");
                assert_eq!(fused.4 + 2, chain.4, "one node for three: {what}");
            }
        }
    }

    /// `dense`'s forward product skips `x`'s signed-zero rows only while
    /// `w` is finite: with a `w` holding `∞` (or NaN) those rows are NaN
    /// in the full product, and the forward reproduces them. (Through the
    /// tape itself a non-finite value trips the debug assertion on every
    /// recorded node, so the product is tested directly.)
    #[test]
    fn dense_forward_lists_every_row_when_w_is_not_finite() {
        let x = Matrix::from_fn(6, 9, |r, c| match r {
            1 => 0.0,
            4 => -0.0,
            _ => (r as f32 * 0.9 - c as f32 * 0.4).sin(),
        });
        let finite = Matrix::from_fn(9, 17, |r, c| (r as f32 * 0.3 + c as f32 * 0.7).cos());
        let same = |a: &Matrix, b: &Matrix| {
            a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(p, q)| p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()))
        };
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let mut w = finite.clone();
            w.set(5, 11, bad);
            let got = dense_product(&x, &w);
            assert!(same(&got, &kernels::matmul(&x, &w)), "w holding {bad}");
            for r in [1, 4] {
                assert!(got.get(r, 11).is_nan(), "zero row {r} against {bad}");
            }
        }
    }

    // ----- the row-listed cotangent -----------------------------------------

    fn rows_cot(height: usize, rows: &[u32], m: Matrix) -> Cot {
        Cot::Rows {
            height,
            rows: Arc::new(rows.to_vec()),
            m: Shared::whole(m),
        }
    }

    #[test]
    fn rows_plus_rows_equals_add_assign_bitwise() {
        // Row 3 holds a `-0.0` listed on the existing side only, row 4 one
        // listed on the new side only; row 1 is listed on both, with a
        // `-0.0` on each side in column 0.
        let a = Matrix::from_vec(2, 2, vec![-0.0, 1.5, -0.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![-0.0, -1.5, -0.0, 0.25]);
        for height in [10usize, 5] {
            let ca = rows_cot(height, &[1, 3], a.clone());
            let cb = rows_cot(height, &[1, 4], b.clone());
            let mut want = ca.clone().into_dense();
            kernels::add_assign(&mut want, &cb.clone().into_dense());
            let got = ca.add(cb);
            // Three listed rows are under half of 10 and reach half of 5.
            assert_eq!(matches!(got, Cot::Rows { .. }), height == 10);
            assert_eq!(bits(&got.into_dense()), bits(&want), "height {height}");
        }
    }

    #[test]
    fn a_scatter_into_listed_rows_leaves_the_others_untouched() {
        // The dense scatter never reads the rows it does not list, so a
        // `-0.0` there stays `-0.0`.
        let (height, cols) = (9, 2);
        let existing = rows_cot(
            height,
            &[2, 5],
            Matrix::from_vec(2, 2, vec![-0.0, 3.0, 1.0, -0.0]),
        );
        let g = Matrix::from_vec(2, 2, vec![0.5, -0.0, -0.0, 4.0]);
        let mut want = existing.clone().into_dense();
        kernels::scatter_add_rows(&mut want, &[1, 5], &g);
        let mut ng = NodeGrads {
            slots: vec![Some(existing)],
        };
        ng.scatter_accumulate(Var(0), height, cols, &[1, 5], &g);
        let got = ng.take(0).expect("slot filled");
        assert!(matches!(got, Cot::Rows { .. }));
        assert_eq!(bits(&got.into_dense()), bits(&want));
    }

    #[test]
    fn unsorted_or_repeated_gather_indices_take_the_dense_path() {
        let (height, cols) = (10, 3);
        let cases: [(&[u32], bool); 6] = [
            (&[1, 4], true),
            (&[], true),
            (&[4, 1], false),
            (&[1, 1], false),
            (&[0, 1, 2, 3, 4], false),
            (&[0, 2, 4, 6], true),
        ];
        for (indices, listed) in cases {
            let g = awkward(indices.len(), cols, indices.len() as u32);
            let mut want = Matrix::zeros(height, cols);
            kernels::scatter_add_rows(&mut want, indices, &g);
            let mut ng = NodeGrads { slots: vec![None] };
            ng.scatter_accumulate(Var(0), height, cols, indices, &g);
            let got = ng.take(0).expect("slot filled");
            assert_eq!(matches!(got, Cot::Rows { .. }), listed, "{indices:?}");
            assert_eq!(bits(&got.into_dense()), bits(&want), "{indices:?}");
        }
        // A full slot stays full, whatever the indices.
        let mut ng = NodeGrads {
            slots: vec![Some(Cot::from(Matrix::zeros(height, cols)))],
        };
        ng.scatter_accumulate(Var(0), height, cols, &[3], &Matrix::full(1, cols, 1.0));
        assert!(matches!(ng.take(0), Some(Cot::Dense(_))));
    }

    #[test]
    fn full_plus_rows_in_place_equals_add_assign_bitwise() {
        // `-0.0` on both sides, in listed and unlisted rows alike.
        let height = 6;
        let full = Matrix::from_fn(height, 3, |r, c| match (r + c) % 4 {
            0 => -0.0,
            1 => 0.0,
            _ => (r as f32 - 2.5) * 0.75 + c as f32,
        });
        let lists: [&[u32]; 4] = [&[], &[1, 4], &[0, 2, 5], &[0, 1, 2, 3, 4, 5]];
        for rows in lists {
            let m = Matrix::from_fn(rows.len(), 3, |k, c| match (k + c) % 3 {
                0 => -0.0,
                _ => 0.5 - k as f32 + 0.25 * c as f32,
            });
            let listed = rows_cot(height, rows, m);
            for listed_first in [false, true] {
                let (a, b) = if listed_first {
                    (listed.clone(), Cot::from(full.clone()))
                } else {
                    (Cot::from(full.clone()), listed.clone())
                };
                let mut want = a.clone().into_dense();
                kernels::add_assign(&mut want, &b.clone().into_dense());
                let got = a.add(b);
                assert!(matches!(got, Cot::Dense(_)));
                assert_eq!(
                    bits(&got.into_dense()),
                    bits(&want),
                    "rows {rows:?}, listed side first: {listed_first}"
                );
            }
        }
    }

    // ----- column windows of reserved tables -------------------------------

    #[test]
    fn a_planned_layout_equals_the_fresh_one_bitwise_and_copies_nothing() {
        let mut store = ParamStore::new();
        let p = store.add("p", awkward(5, 3, 1));
        let q = store.add("q", awkward(5, 2, 2));
        let offsets = Arc::new(vec![0usize, 2, 2, 3, 5, 6]);
        let members = Arc::new(vec![4u32, 0, 3, 1, 1, 2]);
        let run = |planned: bool| {
            let mut t = Tape::new();
            let table = t.reserve(5, 8);
            let dst = |col| planned.then_some((table, col));
            let pv = t.param_into(&store, p, dst(0));
            let qv = t.param(&store, q);
            let mean = t.segment_mean_into(qv, Arc::clone(&offsets), Arc::clone(&members), dst(3));
            // Read in place from the reserved table, into a fresh one.
            let mean_p = t.segment_mean(pv, Arc::clone(&offsets), Arc::clone(&members));
            // Two parts in place, one copied in.
            let cat = t.concat_cols_into(&[pv, mean, mean_p], dst(0));
            if planned {
                let (held, cols) = t.arc_window(cat);
                assert_eq!(cols, 0..8);
                assert!(Arc::ptr_eq(&held, &t.arc_value(cat)), "the table itself");
                assert_eq!(t.arc_window(mean).1, 3..5);
            }
            let value = bits(t.value(cat));
            let mean_value = bits(t.value(mean));
            let picked = t.gather(cat, Arc::new(vec![4, 1]));
            let ls = t.log_sigmoid(picked);
            let loss = t.sum_all(ls);
            let grads = t.backward(loss, &store);
            let of = |id| grads.get(id).map(bits);
            (value, mean_value, of(p), of(q), t.len())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn a_narrow_window_is_copied_out_once() {
        let (store, w) = store_with("w", awkward(4, 3, 3));
        let mut t = Tape::new();
        let table = t.reserve(4, 5);
        let wv = t.param_into(&store, w, Some((table, 2)));
        let first = t.arc_value(wv);
        assert!(Arc::ptr_eq(&first, &t.arc_value(wv)));
        assert_eq!(bits(&first), bits(store.value(w)));
        assert_eq!(bits(t.value(wv)), bits(store.value(w)));
    }

    #[test]
    #[should_panic(expected = "written twice")]
    fn a_reserved_column_is_written_once() {
        let (store, w) = store_with("w", Matrix::full(2, 2, 1.0));
        let mut t = Tape::new();
        let table = t.reserve(2, 3);
        t.param_into(&store, w, Some((table, 0)));
        t.param_into(&store, w, Some((table, 1)));
    }

    #[test]
    #[should_panic(expected = "alone holds it")]
    fn a_write_after_the_table_was_shared_panics() {
        let (store, w) = store_with("w", Matrix::full(2, 2, 1.0));
        let mut t = Tape::new();
        let table = t.reserve(2, 4);
        let wv = t.param_into(&store, w, Some((table, 0)));
        let _held = t.arc_window(wv);
        t.param_into(&store, w, Some((table, 2)));
    }

    #[test]
    #[should_panic(expected = "written twice")]
    fn a_part_elsewhere_in_the_destination_is_not_taken_as_in_place() {
        // Both parts lie in the destination table, swapped: neither is
        // where the concatenation puts it, so each would be copied over
        // columns the other already holds — which the tape refuses.
        let (store, w) = store_with("w", Matrix::full(2, 2, 1.0));
        let mut t = Tape::new();
        let table = t.reserve(2, 4);
        let a = t.param_into(&store, w, Some((table, 0)));
        let b = t.param_into(&store, w, Some((table, 2)));
        t.concat_cols_into(&[b, a], Some((table, 0)));
    }
}
