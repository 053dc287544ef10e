//! Numeric kernels over [`Matrix`].
//!
//! Each kernel is a free function so the autodiff tape in `gb-autograd` can
//! compose forward and backward passes from the same verified primitives.
//!
//! ## Blocking contract
//!
//! The dense hot paths (the propagation matmuls during training, the
//! blended dot-product scoring during serving) are cache-blocked and
//! register-tiled around one shared lane width, [`DOT_LANES`], with
//! fixed-order tail handling for dimensions that are not a multiple of the
//! lane width. Every reduction has a *fixed* summation order — lane `l`
//! always sums indices `l, l+8, l+16, …` and the lanes always combine in
//! the same pairwise tree — so repeated calls are bit-identical and the
//! train/serve call sites that share [`dot`] (the offline scorers in
//! `gb-models`/`gb-core`, `blend_dot_block` in `gb-serve`) produce
//! bit-identical scores.
//!
//! Each vector kernel has **one body**, written over `simd::Lane8`,
//! `#[inline(always)]` into the one function that runs it, and run at
//! `simd::Native`: a `__m256` wherever the build enables AVX2 (the
//! workspace default, see `.cargo/config.toml`), a `[f32; 8]` everywhere
//! else, each array operation mirroring its intrinsic bit for bit. The
//! unit tests instantiate the same bodies at `simd::Portable` and hold the
//! two to each other, which is a real comparison on AVX2 builds only;
//! [`reference`] shares no code with either (bar `reference::tanh`, which
//! keeps `tanh`'s two arms and drops only its shortcut). The lanes are explicit
//! because, left to itself, LLVM SLP-vectorises an array accumulator
//! *across the 4-item tile* instead of along the 8 lanes: 128-bit
//! multiplies fed by shuffles, and no 256-bit arithmetic at all.
//!
//! The one reduction along lanes is `dot_tile`; the three `blend_dot_*`
//! kernels add a fused 4-item tile that reduces and blends eight
//! accumulators at once (`Lane8::reduce_blend`). The products that do not
//! reduce along lanes — [`matmul`], [`matmul_rows`] and [`matmul_tn`], the
//! propagation FCs forward and their weight gradients — share one tile
//! loop that differs only in how it addresses the left operand (`Lhs`:
//! `a[i*k + kk]` for the first two, `a[kk*m + i]` for `matmul_tn`) and in
//! which output rows it walks (`RowSet`: all of them, or `matmul_rows`'
//! ascending list, position `p` of a tile reading and writing row
//! `rows[p]`). Every whole 4-row × 16-column output tile is eight
//! accumulator vectors held across the full reduction
//! (`acc[r][0..2] += splat(a) * loadu(b)`), a leftover 8 columns the same
//! tile one vector wide, and the edges one element at a time. Tiles
//! partition the *output*, never the reduction: every element is the
//! ascending-index sum from `+0.0` whichever tile produced it — so a
//! listed row comes out of `matmul_rows` with `matmul`'s bits, and an
//! unlisted one stays at the `+0.0` that `matmul` also writes for a row of
//! `A` made of signed zeros whenever `B` is finite (every product is a
//! signed zero, and `+0.0 + ±0.0` is `+0.0`).
//! [`segment_mean`] follows the same arrangement — each output row
//! accumulated in registers over 32-column strips, then single vectors,
//! then single columns, per-element order `(((0 + s0) + s1) + …) * inv` in
//! all three. [`matmul_nt`] reduces along lanes and stays on `dot_tile`.
//!
//! The third form puts one *row* in each lane. `RowPanels` transposes a
//! matrix once into panels of eight rows, column `q` of a panel being one
//! vector, and `panel_dot` runs in lane `l` the sum `dot` runs for row
//! `l`: eight accumulator vectors, accumulator `a` collecting columns
//! `8c + a` over ascending `c` from `+0.0`, folded by `reduce_lanes`'
//! tree, then the tail columns in index order. Each lane is
//! `dot(x_l, y)` bit for bit, nothing crosses lanes, and a short last
//! panel is padded. k-means' assignment and farthest-point passes run on
//! it with their argmin, or running minimum and argmax, folded into the
//! same pass, so no table of dot products is built.
//!
//! **No FMA, on either lane type, in any kernel.** Every product is rounded
//! before it is added (`mul` then `add`; never `_mm256_fmadd_ps` or
//! `f32::mul_add`). A fused multiply-add changes the low bit, and the
//! serve == offline, sharded == single, parallel == serial and
//! multi == single walls all rest on one rounding sequence.
//!
//! **One `tanh`, and not libm's.** [`tanh_inplace`] is the only hyperbolic
//! tangent the workspace computes (`gb-lint`'s `no-libm-tanh` keeps it
//! so): the Cephes split over the same `simd::Lane8`, within 2 ulp of the
//! exact value for every `f32`. Its exponential arm runs only for a vector
//! with a lane at or above the split; a vector of small lanes returns the
//! polynomial arm the per-lane select would have picked in every lane, so
//! the branch is a scheduling choice and never a numeric one. A slice's
//! tail is padded into one more vector, so an element's result depends on
//! that element alone: not on its index, its neighbours, the slice's
//! length, the build, or the host's C library.
//!
//! **Column windows.** The autodiff tape lays several results side by side
//! in one table (GBGCN's Eq. 3 and Eq. 8 concatenations), so the kernels it
//! writes them with take a destination window: [`segment_mean_into`],
//! [`add_into`] and [`copy_cols`] write columns `dst_col .. dst_col + w` of
//! every row of `dst` and nothing else, and [`segment_mean_into`] /
//! [`segment_mean_cols`] read a column range of their source. A window
//! changes no bit: each output element is computed from the same inputs in
//! the same order whichever table or column it lands in — a concatenation
//! is a copy, and a copy that is not made (the part already sits where the
//! concatenation would put it) leaves the same bits in place. The kernels
//! that return a fresh table ([`segment_mean`], [`concat_cols`],
//! [`slice_cols`], [`gather_rows`], [`add`]) grow it row by row instead of
//! zero-filling elements they then overwrite; an empty segment still
//! writes `+0.0`.
//!
//! The pre-blocking scalar loops survive in [`reference`]; the property
//! tests pin the blocked kernels to them within float-reassociation
//! tolerance.

use crate::simd::{self, reduce_lanes, Lane8, EXP2I_BIAS};
use crate::Matrix;
use std::ops::Range;

/// Lane width (in `f32` elements) of every blocked reduction in this
/// module. Callers that want to block to the same widths — the serving
/// engine's item blocks, the scorer tables — should use multiples of this.
pub const DOT_LANES: usize = simd::LANES;

/// Rows of `A` per register tile in [`matmul`] / [`matmul_tn`], and items
/// per tile in [`matmul_nt`] / [`blend_dot_block`].
const ROW_TILE: usize = 4;

/// The `T` lane-accumulator vectors of `a` against `rows` over the whole
/// chunks of `a`: lane `l` of vector `t` is
/// `Σ_c a[8c + l] * rows[t][8c + l]`, ascending `c`, starting from `+0.0`.
#[inline(always)]
fn lane_sums<L: Lane8, const T: usize>(a: &[f32], rows: &[&[f32]; T]) -> [L; T] {
    for row in rows {
        assert!(row.len() >= a.len(), "dot_tile: row shorter than vector");
    }
    // SAFETY: each load reads floats `8c .. 8c + 8` with
    // `8c + 8 <= a.len()`, and every row is at least `a.len()` long
    // (asserted above), so all eight are inside the slice.
    unsafe {
        let mut acc = [L::splat(0.0); T];
        for c in 0..a.len() / DOT_LANES {
            let va = L::loadu_ptr(a.as_ptr().add(c * DOT_LANES));
            for t in 0..T {
                let vb = L::loadu_ptr(rows[t].as_ptr().add(c * DOT_LANES));
                acc[t] = acc[t].add(va.mul(vb));
            }
        }
        acc
    }
}

/// `T` simultaneous lane-blocked dot products of `a` against `rows`,
/// sharing the loads of `a`: [`lane_sums`] over the whole chunks, the fixed
/// lane reduction, then the tail in index order. Each output is
/// bit-identical to `dot(a, rows[t])` — the tile is a scheduling choice,
/// not a numeric one.
#[inline(always)]
fn dot_tile_on<L: Lane8, const T: usize>(a: &[f32], rows: [&[f32]; T]) -> [f32; T] {
    let sums = lane_sums::<L, T>(a, &rows);
    let tail = a.len() / DOT_LANES * DOT_LANES;
    let mut out = [0.0f32; T];
    for t in 0..T {
        let mut lanes = [0.0f32; DOT_LANES];
        sums[t].storeu(&mut lanes);
        let mut acc = reduce_lanes(&lanes);
        for q in tail..a.len() {
            acc += a[q] * rows[t][q];
        }
        out[t] = acc;
    }
    out
}

/// [`dot_tile_on`] the lanes this build computes with.
#[inline(always)]
fn dot_tile<const T: usize>(a: &[f32], rows: [&[f32]; T]) -> [f32; T] {
    dot_tile_on::<simd::Native, T>(a, rows)
}

/// One fused 4-item Eq. 9 tile for widths with no scalar tail:
/// `out[t] = (1-alpha) * own·own_rows[t] + alpha * social·social_rows[t]`,
/// each product bit-identical to [`dot_tile`]'s: the same [`lane_sums`],
/// and the eight accumulators (four own, four social) reduced and blended
/// together by [`Lane8::reduce_blend`].
///
/// # Panics
/// Panics if either width has a tail, a row is shorter than its vector, or
/// `out` holds fewer than four floats.
#[inline(always)]
fn blend_tile<L: Lane8>(
    own: &[f32],
    own_rows: &[&[f32]; ROW_TILE],
    social: &[f32],
    social_rows: &[&[f32]; ROW_TILE],
    alpha: f32,
    out: &mut [f32],
) {
    assert!(
        own.len().is_multiple_of(DOT_LANES) && social.len().is_multiple_of(DOT_LANES),
        "blend_tile: width with a scalar tail"
    );
    let out = out
        .first_chunk_mut()
        .expect("blend_tile: output tile too short");
    let o = lane_sums::<L, ROW_TILE>(own, own_rows);
    let s = lane_sums::<L, ROW_TILE>(social, social_rows);
    L::reduce_blend(o, s, alpha, out);
}

/// Lane-blocked dot product: eight independent accumulators over chunks of
/// [`DOT_LANES`], a fixed pairwise lane reduction, then the tail in index
/// order. Deterministic (same inputs ⇒ bit-identical output) and shared by
/// every scorer in the workspace, so served and offline scores agree
/// bit-for-bit.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    dot_tile::<1>(a, [b])[0]
}

/// `dst[j] += alpha * src[j]`, lane-chunked. Elementwise, so the blocking
/// cannot change results — it only removes the bounds checks and branches
/// that defeat vectorization.
#[inline(always)]
fn axpy_into(dst: &mut [f32], alpha: f32, src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut dc = dst.chunks_exact_mut(DOT_LANES);
    let mut sc = src.chunks_exact(DOT_LANES);
    for (d, s) in dc.by_ref().zip(sc.by_ref()) {
        for l in 0..DOT_LANES {
            d[l] += alpha * s[l];
        }
    }
    for (d, s) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
        *d += alpha * *s;
    }
}

/// Which step along `k_stride` the product's reduction index `kk` reads:
/// `kk` itself ([`Every`]), or the `kk`-th of a strictly ascending list
/// ([`Listed`]). A type, not a value, so the common case's tile loop
/// carries no list lookup.
trait Reduce: Copy {
    fn at(self, kk: usize) -> usize;
}

/// Every reduction index, in order.
#[derive(Clone, Copy)]
struct Every;

impl Reduce for Every {
    #[inline(always)]
    fn at(self, kk: usize) -> usize {
        kk
    }
}

/// The listed reduction indices, strictly ascending.
#[derive(Clone, Copy)]
struct Listed<'a>(&'a [u32]);

impl Reduce for Listed<'_> {
    #[inline(always)]
    fn at(self, kk: usize) -> usize {
        self.0[kk] as usize
    }
}

/// The left operand of [`matmul`] / [`matmul_tn`] as their shared tile
/// loop reads it: the factor for output row `i` at reduction index `kk` is
/// `data[i * i_stride + reduce.at(kk) * k_stride]`. `matmul` reads `A`
/// row-major (`i_stride = k`, `k_stride = 1`); `matmul_tn` reads `A^T` out
/// of `A`'s own buffer (`i_stride = 1`, `k_stride = m`) without
/// materializing it, and [`matmul_tn_rows`] reads `A[rows]^T` the same
/// way, stepping through the listed rows only.
#[derive(Clone, Copy)]
struct Lhs<'a, K = Every> {
    data: &'a [f32],
    i_stride: usize,
    k_stride: usize,
    reduce: K,
}

impl<'a> Lhs<'a> {
    /// `a` itself, row-major.
    fn row_major(a: &'a Matrix) -> Self {
        Self {
            data: a.as_slice(),
            i_stride: a.cols(),
            k_stride: 1,
            reduce: Every,
        }
    }

    /// `a^T`, read down `a`'s columns.
    fn transposed(a: &'a Matrix) -> Self {
        Self {
            data: a.as_slice(),
            i_stride: 1,
            k_stride: a.cols(),
            reduce: Every,
        }
    }
}

impl<'a> Lhs<'a, Listed<'a>> {
    /// `a[rows]^T`, read down `a`'s columns at the rows `rows` only.
    ///
    /// # Panics
    /// Panics unless `rows` is strictly ascending with every row under
    /// `a.rows()`.
    fn transposed_rows(a: &'a Matrix, rows: &'a [u32]) -> Self {
        assert!(
            rows.windows(2).all(|w| w[0] < w[1])
                && rows.last().is_none_or(|&r| (r as usize) < a.rows()),
            "matmul_tn_rows: rows not strictly ascending below {}",
            a.rows()
        );
        Self {
            data: a.as_slice(),
            i_stride: 1,
            k_stride: a.cols(),
            reduce: Listed(rows),
        }
    }
}

impl<K: Reduce> Lhs<'_, K> {
    #[inline(always)]
    fn at(&self, i: usize, kk: usize) -> f32 {
        self.data[i * self.i_stride + self.reduce.at(kk) * self.k_stride]
    }
}

/// The output rows a product computes: `0..m`, or a strictly ascending
/// list of rows under `m`. Position `p` of the tile loop reads and writes
/// row `row(p)`.
#[derive(Clone, Copy)]
struct RowSet<'a> {
    m: usize,
    list: Option<&'a [u32]>,
}

impl<'a> RowSet<'a> {
    fn all(m: usize) -> Self {
        Self { m, list: None }
    }

    /// # Panics
    /// Panics unless `list` is strictly ascending and under `m`.
    fn listed(m: usize, list: &'a [u32]) -> Self {
        assert!(
            list.windows(2).all(|w| w[0] < w[1]) && list.last().is_none_or(|&r| (r as usize) < m),
            "matmul_rows: rows not strictly ascending below {m}"
        );
        Self {
            m,
            list: Some(list),
        }
    }

    /// Rows the tile loop walks.
    #[inline(always)]
    fn len(&self) -> usize {
        self.list.map_or(self.m, <[u32]>::len)
    }

    /// The row at position `p`.
    #[inline(always)]
    fn row(&self, p: usize) -> usize {
        self.list.map_or(p, |l| l[p] as usize)
    }
}

/// Every whole `ROW_TILE x 8V` tile in columns `from..` of the `m x n`
/// product `out = a * b`, over the rows of `rows` four at a time: `4V`
/// accumulator vectors live across the full `k` loop — per `kk`, `V` loads
/// of `b`'s row segment and four broadcasts of `a` feed `4V`
/// `mul`-then-`add`s. Each element is the ascending-`kk` sum
/// `Σ a(i, kk) * b[kk][j]` from `+0.0`.
///
/// Returns the column the tiles stopped at; the caller computes the rest.
///
/// # Panics
/// Panics if an operand is shorter than its shape, or a row is not under
/// `m`.
#[inline(always)]
fn matmul_tiles<L: Lane8, K: Reduce, const V: usize>(
    a: Lhs<'_, K>,
    b: &[f32],
    out: &mut [f32],
    rows: RowSet<'_>,
    k: usize,
    n: usize,
    from: usize,
) -> usize {
    let (p_full, width) = (rows.len() - rows.len() % ROW_TILE, V * DOT_LANES);
    let to = from + n.saturating_sub(from) / width * width;
    if p_full == 0 || to == from || k == 0 {
        return from;
    }
    let m = rows.m;
    assert!(
        m > 0
            && (m - 1) * a.i_stride + a.reduce.at(k - 1) * a.k_stride < a.data.len()
            && k * n <= b.len()
            && m * n <= out.len(),
        "matmul_tiles: operand shorter than its shape"
    );
    // SAFETY: with every tile row `i < m` (asserted per tile below),
    // `kk < k` and `j0 + width <= to <= n`: the read of `a` is at most
    // `(m - 1) * i_stride + reduce.at(k - 1) * k_stride` (`reduce.at` is
    // `kk` itself or a strictly ascending list, checked where the `Lhs` is
    // built and indexed with bounds checks, so its largest value is its
    // last), the `V` loads of `b` end at `kk * n + j0 + width <= k * n`,
    // and the `V` stores end at `i * n + j0 + width <= m * n` — all inside
    // their slices by the assert above.
    unsafe {
        for p0 in (0..p_full).step_by(ROW_TILE) {
            let i: [usize; ROW_TILE] = std::array::from_fn(|r| rows.row(p0 + r));
            assert!(
                i.iter().all(|&i| i < m),
                "matmul_tiles: row outside the product"
            );
            let ap: [*const f32; ROW_TILE] =
                std::array::from_fn(|r| a.data.as_ptr().add(i[r] * a.i_stride));
            for j0 in (from..to).step_by(width) {
                let mut acc = [[L::splat(0.0); V]; ROW_TILE];
                for kk in 0..k {
                    let bp = b.as_ptr().add(kk * n + j0);
                    let bv: [L; V] = std::array::from_fn(|v| L::loadu_ptr(bp.add(v * DOT_LANES)));
                    for (acc, ap) in acc.iter_mut().zip(&ap) {
                        let av = L::splat(*ap.add(a.reduce.at(kk) * a.k_stride));
                        for (acc, &bv) in acc.iter_mut().zip(&bv) {
                            *acc = acc.add(av.mul(bv));
                        }
                    }
                }
                for (acc, &i) in acc.iter().zip(&i) {
                    let op = out.as_mut_ptr().add(i * n + j0);
                    for (v, acc) in acc.iter().enumerate() {
                        acc.storeu_ptr(op.add(v * DOT_LANES));
                    }
                }
            }
        }
    }
    to
}

/// Columns `cols` of the rows at positions `at` of `rows`, in the zeroed
/// `m x n` buffer `od`, one element at a time: what the tiles do not
/// reach. The same ascending-`kk` order per element, accumulated in the
/// output itself.
#[allow(clippy::too_many_arguments)]
fn matmul_edge<K: Reduce>(
    a: Lhs<'_, K>,
    bd: &[f32],
    od: &mut [f32],
    rows: RowSet<'_>,
    k: usize,
    n: usize,
    at: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) {
    // The common case — `n` a multiple of the tile width — must cost
    // nothing: the checked reads of `a` below would survive as a loop.
    if cols.is_empty() {
        return;
    }
    for p in at {
        let i = rows.row(p);
        let orow = &mut od[i * n + cols.start..i * n + cols.end];
        for kk in 0..k {
            let av = a.at(i, kk);
            let brow = &bd[kk * n + cols.start..kk * n + cols.end];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// The `m x n` product of `a` (`m x k` as [`Lhs`] addresses it) and `b`
/// on the rows of `rows`, every other row left `+0.0`: whole 4x16 tiles,
/// then 4x8 tiles over the columns those leave, then the remaining columns
/// and rows one element at a time. One copy of the tile loop serves all
/// three products: the strides and the row list stay run-time values.
fn matmul_strided<L: Lane8, K: Reduce>(
    a: Lhs<'_, K>,
    b: &Matrix,
    rows: RowSet<'_>,
    k: usize,
) -> Matrix {
    let n = b.cols();
    let mut out = Matrix::zeros(rows.m, n);
    let (bd, od) = (b.as_slice(), out.as_mut_slice());
    let wide = matmul_tiles::<L, K, 2>(a, bd, od, rows, k, n, 0);
    let tiled = matmul_tiles::<L, K, 1>(a, bd, od, rows, k, n, wide);
    let p_full = rows.len() - rows.len() % ROW_TILE;
    matmul_edge(a, bd, od, rows, k, n, 0..p_full, tiled..n);
    matmul_edge(a, bd, od, rows, k, n, p_full..rows.len(), 0..n);
    out
}

/// `C = A * B` (matrix product).
///
/// Register-tiled micro-kernel: each output tile is accumulated in
/// registers across the full `k` loop, so each element of `B`'s row
/// segment is loaded once per tile instead of once per output row. Every
/// output element is the ascending-`k` ordered sum `Σ_k a[i][k] * b[k][j]`
/// from `+0.0` regardless of which tile computed it; [`matmul_tn`] runs
/// the same tile loop over a transposed read of its left operand, so the
/// two are bit-identical on transposed inputs.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul shape mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let (m, k) = a.shape();
    matmul_strided::<simd::Native, _>(Lhs::row_major(a), b, RowSet::all(m), k)
}

/// `C = A * B` on the listed rows of `A` only: row `rows[i]` of the
/// result is row `rows[i]` of [`matmul`]`(a, b)`, bit for bit — the same
/// tile loop, its row `i` reading and writing row `rows[i]` — and every
/// other row is `+0.0`. This is what `matmul` itself gives on a row of
/// `A` that is entirely `±0.0` when `B` is finite: each product is a
/// signed zero, and a sum that starts at `+0.0` stays `+0.0`.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`, or `rows` is not strictly ascending
/// with every row under `a.rows()`.
pub fn matmul_rows(a: &Matrix, rows: &[u32], b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_rows shape mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let (m, k) = a.shape();
    matmul_strided::<simd::Native, _>(Lhs::row_major(a), b, RowSet::listed(m, rows), k)
}

/// `C = A^T * B`.
///
/// Used by matmul backward (`dW = X^T * dY`) without materializing `A^T`:
/// [`matmul`]'s tile loop with the left factor for output row `i` read
/// down column `i` of `A`. Per-element order is the ascending-`r` sum —
/// bit-identical to `matmul(a.transposed(), b)`.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn shape mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let (k, m) = a.shape();
    matmul_strided::<simd::Native, _>(Lhs::transposed(a), b, RowSet::all(m), k)
}

/// `C = A[rows]^T * B` for strictly ascending `rows`: [`matmul_tn`]'s tile
/// loop stepping down `A`'s columns through the listed rows only — bit for
/// bit `matmul_tn(&gather_rows(a, rows), b)`, without the gathered copy.
/// The weight gradient `X[rows]^T G` of a product whose cotangent `G`
/// lists only the rows `rows`.
///
/// # Panics
/// Panics if `rows.len() != b.rows()`, or `rows` is not strictly
/// ascending with every row under `a.rows()`.
pub fn matmul_tn_rows(a: &Matrix, rows: &[u32], b: &Matrix) -> Matrix {
    assert_eq!(
        rows.len(),
        b.rows(),
        "matmul_tn_rows shape mismatch: {} rows of {:?} x {:?}",
        rows.len(),
        a.shape(),
        b.shape()
    );
    let lhs = Lhs::transposed_rows(a, rows);
    matmul_strided::<simd::Native, _>(lhs, b, RowSet::all(a.cols()), rows.len())
}

/// `C = A * B^T`.
///
/// Used by matmul backward (`dX = dY * W^T`) without materializing `B^T`.
/// Each output element is a lane-blocked [`dot`] of two rows; rows of `B`
/// are tiled [`ROW_TILE`] at a time so the loads of `A`'s row are shared
/// across the tile. Bit-identical to calling [`dot`] per element.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt shape mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        matmul_nt_row(a.row(i), b, out.row_mut(i));
    }
    out
}

/// [`matmul_nt`] written over `a`: row `i` of `a` becomes row `i` of
/// `a * b^T`, bit for bit, through one row of scratch instead of a second
/// table. `b` must be square, so that each row keeps its width — the
/// `dX = G W^T` of a square layer, with `G` a table the caller owns.
///
/// # Panics
/// Panics if `b` is not square or `a.cols() != b.cols()`.
pub fn matmul_nt_in_place(a: &mut Matrix, b: &Matrix) {
    assert!(
        a.cols() == b.cols() && b.rows() == b.cols(),
        "matmul_nt_in_place shape mismatch: {:?} x {:?}^T",
        a.shape(),
        b.shape()
    );
    let mut row = vec![0.0; a.cols()];
    for i in 0..a.rows() {
        row.copy_from_slice(a.row(i));
        matmul_nt_row(&row, b, a.row_mut(i));
    }
}

/// `out_row = a_row * b^T`: the row of [`matmul_nt`], rows of `b`
/// [`ROW_TILE`] at a time, each element a lane-blocked [`dot`].
#[inline(always)]
fn matmul_nt_row(a_row: &[f32], b: &Matrix, out_row: &mut [f32]) {
    let n = b.rows();
    let mut j0 = 0;
    while j0 + ROW_TILE <= n {
        let tile = dot_tile::<ROW_TILE>(
            a_row,
            [b.row(j0), b.row(j0 + 1), b.row(j0 + 2), b.row(j0 + 3)],
        );
        out_row[j0..j0 + ROW_TILE].copy_from_slice(&tile);
        j0 += ROW_TILE;
    }
    for (j, slot) in out_row.iter_mut().enumerate().skip(j0) {
        *slot = dot_tile::<1>(a_row, [b.row(j)])[0];
    }
}

/// A matrix's rows eight to a *panel*, one row per lane: column `q` of
/// panel `p` is the vector `[m[8p][q], m[8p + 1][q], …, m[8p + 7][q]]`, so
/// one lane op on it acts on eight rows at once. Lanes past the last row
/// hold NaN: every distance they give is NaN, which no strict comparison
/// picks, and the scans drop those lanes. The k-means distance passes run
/// over this layout ([`RowPanels::nearest`], [`RowPanels::maxmin_sweep`]).
pub(crate) struct RowPanels {
    rows: usize,
    cols: usize,
    /// Panel `p`'s columns at `p * cols .. (p + 1) * cols`.
    data: Vec<[f32; DOT_LANES]>,
}

/// Eight [`dot`]s at once, one per lane: lane `l` of the result is
/// `dot(x_l, y)` bit for bit, where `x_l` is the panel's row `l` and `y`
/// is `Some` vector as wide as the panel, or `dot(x_l, x_l)` for `None`.
/// Lane `l` keeps `dot`'s eight accumulators in eight vectors —
/// accumulator `a` sums columns `8c + a` over ascending `c` from `+0.0`,
/// each product `x·y` rounded before the add — folds them with
/// [`reduce_lanes`]' tree and adds the tail columns in index order: the
/// whole-chunk loop runs outside the eight accumulators so they stay in
/// registers.
///
/// # Panics
/// Panics if `y` is not as wide as the panel.
#[inline(always)]
fn panel_dot<L: Lane8>(panel: &[[f32; DOT_LANES]], y: Option<&[f32]>) -> L {
    if let Some(y) = y {
        assert_eq!(y.len(), panel.len(), "panel_dot: width mismatch");
    }
    let factor = |q: usize, x: L| match y {
        // SAFETY: every `q` below is a column of the panel, so
        // `q < panel.len() == y.len()` (asserted above).
        Some(y) => L::splat(unsafe { *y.get_unchecked(q) }),
        None => x,
    };
    let mut chunks = panel.chunks_exact(DOT_LANES);
    let mut acc = [L::splat(0.0); DOT_LANES];
    for (c, chunk) in chunks.by_ref().enumerate() {
        for (a, (acc, x)) in acc.iter_mut().zip(chunk).enumerate() {
            let x = L::loadu(x);
            *acc = acc.add(x.mul(factor(c * DOT_LANES + a, x)));
        }
    }
    let [a0, a1, a2, a3, a4, a5, a6, a7] = acc;
    let mut sum = a0.add(a4).add(a2.add(a6)).add(a1.add(a5).add(a3.add(a7)));
    let tail = panel.len() - chunks.remainder().len();
    for (q, x) in chunks.remainder().iter().enumerate() {
        let x = L::loadu(x);
        sum = sum.add(x.mul(factor(tail + q, x)));
    }
    sum
}

/// Largest centroid count and panel count whose indices the scans carry
/// in f32 lanes, where every integer up to it is exact.
const MAX_LANE_INDEX: usize = 1 << 24;

impl RowPanels {
    /// `m`'s rows in panels, the last one padded with NaN rows.
    pub(crate) fn new(m: &Matrix) -> Self {
        let (rows, cols) = m.shape();
        let mut data = vec![[f32::NAN; DOT_LANES]; rows.div_ceil(DOT_LANES) * cols];
        for r in 0..rows {
            let panel = &mut data[r / DOT_LANES * cols..][..cols];
            for (col, &v) in panel.iter_mut().zip(m.row(r)) {
                col[r % DOT_LANES] = v;
            }
        }
        Self { rows, cols, data }
    }

    /// Panel `p`'s columns.
    #[inline(always)]
    fn panel(&self, p: usize) -> &[[f32; DOT_LANES]] {
        &self.data[p * self.cols..(p + 1) * self.cols]
    }

    /// The number of panels.
    fn len(&self) -> usize {
        self.rows.div_ceil(DOT_LANES)
    }

    /// `‖x‖² = dot(x, x)` of every row, lane `l` of entry `p` for row
    /// `8p + l` (NaN on the padded lanes): the panel times itself.
    pub(crate) fn sq_norms(&self) -> Vec<[f32; DOT_LANES]> {
        self.sq_norms_on::<simd::Native>()
    }

    #[inline(always)]
    fn sq_norms_on<L: Lane8>(&self) -> Vec<[f32; DOT_LANES]> {
        (0..self.len())
            .map(|p| {
                let mut out = [0.0; DOT_LANES];
                panel_dot::<L>(self.panel(p), None).storeu(&mut out);
                out
            })
            .collect()
    }

    /// `out[i] = argmin_j (half_norms[j] − dot(x_i, c_j))` over the rows
    /// `c_j` of `centroids`: the scalar scan of each row, eight rows at a
    /// time. Per lane, `j` ascends from `0` under a strict `<`, so ties
    /// keep the lowest `j` and a NaN distance at `j = 0` is never replaced.
    ///
    /// # Panics
    /// Panics if the widths disagree, `out` has a length other than the
    /// row count, `centroids` has no rows, more than `2^24` rows, or other
    /// than one half-norm per row.
    pub(crate) fn nearest(&self, centroids: &Matrix, half_norms: &[f32], out: &mut [u32]) {
        self.nearest_on::<simd::Native>(centroids, half_norms, out);
    }

    #[inline(always)]
    fn nearest_on<L: Lane8>(&self, centroids: &Matrix, half_norms: &[f32], out: &mut [u32]) {
        let k = centroids.rows();
        assert!(
            k > 0 && k <= MAX_LANE_INDEX && half_norms.len() == k,
            "nearest: {k} centroids, {} half-norms",
            half_norms.len()
        );
        assert_eq!(centroids.cols(), self.cols, "nearest: width mismatch");
        assert_eq!(out.len(), self.rows, "nearest: output length");
        let dist = |panel: &[[f32; DOT_LANES]], j: usize| {
            L::splat(half_norms[j]).sub(panel_dot::<L>(panel, Some(centroids.row(j))))
        };
        for (p, out) in out.chunks_mut(DOT_LANES).enumerate() {
            let panel = self.panel(p);
            let mut best_d = dist(panel, 0);
            let mut best = L::splat(0.0);
            for j in 1..k {
                let d = dist(panel, j);
                best = d.select_lt(best_d, L::splat(j as f32), best);
                best_d = d.min(best_d);
            }
            let mut lanes = [0.0f32; DOT_LANES];
            best.storeu(&mut lanes);
            for (o, &j) in out.iter_mut().zip(&lanes) {
                *o = j as u32;
            }
        }
    }

    /// One farthest-point sweep against the chosen row `c` (`y = x_c`):
    /// every row's distance `(‖x‖² + ‖y‖²) − 2·dot(x, y)` becomes its
    /// `min_dist` on the `first` sweep and replaces it when strictly
    /// smaller after that; the sweep returns the row with the largest
    /// `min_dist` — strict `>` from `−∞` in row order, so the first such
    /// row, never a NaN, and row 0 when nothing beats `−∞`. The argmax runs
    /// per lane over the panels, then across the lanes.
    ///
    /// # Panics
    /// Panics if `sq_norms` is not [`RowPanels::sq_norms`]' shape or
    /// `min_dist` not the same, `c` is not a row, or the table has more
    /// than `2^24` panels.
    pub(crate) fn maxmin_sweep(
        &self,
        sq_norms: &[[f32; DOT_LANES]],
        c: usize,
        min_dist: &mut [[f32; DOT_LANES]],
        first: bool,
    ) -> usize {
        self.maxmin_sweep_on::<simd::Native>(sq_norms, c, min_dist, first)
    }

    #[inline(always)]
    fn maxmin_sweep_on<L: Lane8>(
        &self,
        sq_norms: &[[f32; DOT_LANES]],
        c: usize,
        min_dist: &mut [[f32; DOT_LANES]],
        first: bool,
    ) -> usize {
        let panels = self.len();
        assert!(
            panels <= MAX_LANE_INDEX && c < self.rows,
            "maxmin_sweep: row {c} of {}",
            self.rows
        );
        assert!(
            sq_norms.len() == panels && min_dist.len() == panels,
            "maxmin_sweep: operand shapes"
        );
        let (cp, cl) = (c / DOT_LANES, c % DOT_LANES);
        let y: Vec<f32> = self.panel(cp).iter().map(|col| col[cl]).collect();
        let sq_y = L::splat(sq_norms[cp][cl]);
        let two = L::splat(2.0);
        let mut best_d = L::splat(f32::NEG_INFINITY);
        let mut best = L::splat(0.0);
        for (p, (sq, slot)) in sq_norms.iter().zip(min_dist.iter_mut()).enumerate() {
            let dot = panel_dot::<L>(self.panel(p), Some(&y));
            let d = L::loadu(sq).add(sq_y).sub(two.mul(dot));
            let m = if first { d } else { d.min(L::loadu(slot)) };
            m.storeu(slot);
            best = best_d.select_lt(m, L::splat(p as f32), best);
            best_d = best_d.select_lt(m, m, best_d);
        }
        let (mut lane_d, mut lane_p) = ([0.0f32; DOT_LANES], [0.0f32; DOT_LANES]);
        best_d.storeu(&mut lane_d);
        best.storeu(&mut lane_p);
        // Each lane holds its first row at its maximum; the answer is the
        // lowest such row among the lanes at the overall maximum.
        let top = lane_d
            .iter()
            .fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m });
        (0..DOT_LANES)
            .filter(|&l| top > f32::NEG_INFINITY && lane_d[l] == top)
            .map(|l| lane_p[l] as usize * DOT_LANES + l)
            .min()
            .unwrap_or(0)
    }
}

/// Elementwise `a + b` — bit for bit [`add_assign`] into a copy of `a`
/// (`x + 1.0 · y` is `x + y`: the product is exact).
pub fn add(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "add shape mismatch");
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| x + y)
        .collect();
    Matrix::from_vec(a.rows(), a.cols(), data)
}

/// [`add`] written into columns `dst_col .. dst_col + a.cols()` of `dst`.
///
/// # Panics
/// Panics if the shapes differ or the window does not fit in `dst`.
pub fn add_into(a: &Matrix, b: &Matrix, dst: &mut Matrix, dst_col: usize) {
    assert_eq!(a.shape(), b.shape(), "add shape mismatch");
    let w = a.cols();
    check_window(dst, a.rows(), dst_col, w);
    for r in 0..a.rows() {
        let out = &mut dst.row_mut(r)[dst_col..dst_col + w];
        for ((o, x), y) in out.iter_mut().zip(a.row(r)).zip(b.row(r)) {
            *o = x + y;
        }
    }
}

/// Asserts that `dst` has `rows` rows and room for `w` columns at
/// `dst_col`.
fn check_window(dst: &Matrix, rows: usize, dst_col: usize, w: usize) {
    assert_eq!(dst.rows(), rows, "destination height mismatch");
    assert!(
        dst_col + w <= dst.cols(),
        "window {dst_col}..{} past the destination's {} columns",
        dst_col + w,
        dst.cols()
    );
}

/// Copies columns `src_cols` of `src` into columns
/// `dst_col .. dst_col + src_cols.len()` of `dst`.
///
/// # Panics
/// Panics if the heights differ or either window does not fit.
pub fn copy_cols(src: &Matrix, src_cols: Range<usize>, dst: &mut Matrix, dst_col: usize) {
    assert!(
        src_cols.end <= src.cols(),
        "copy_cols: source window out of bounds"
    );
    let w = src_cols.len();
    check_window(dst, src.rows(), dst_col, w);
    for r in 0..src.rows() {
        dst.row_mut(r)[dst_col..dst_col + w].copy_from_slice(&src.row(r)[src_cols.clone()]);
    }
}

/// Elementwise `a += b`.
pub fn add_assign(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "add_assign shape mismatch");
    axpy_into(a.as_mut_slice(), 1.0, b.as_slice());
}

/// Elementwise `a - b`.
pub fn sub(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "sub shape mismatch");
    let mut out = a.clone();
    for (x, y) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x -= y;
    }
    out
}

/// Elementwise Hadamard product `a ⊙ b`.
pub fn mul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "mul shape mismatch");
    let mut out = a.clone();
    for (x, y) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x *= y;
    }
    out
}

/// `a += alpha * b` (AXPY).
pub fn axpy(a: &mut Matrix, alpha: f32, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "axpy shape mismatch");
    axpy_into(a.as_mut_slice(), alpha, b.as_slice());
}

/// `alpha * a` as a new matrix.
pub fn scale(a: &Matrix, alpha: f32) -> Matrix {
    a.map(|v| v * alpha)
}

/// Adds a `1 x cols` bias row to every row of `a`.
pub fn add_bias(a: &Matrix, bias: &Matrix) -> Matrix {
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(a.cols(), bias.cols(), "bias width mismatch");
    let mut out = a.clone();
    let b = bias.row(0);
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        for (x, y) in row.iter_mut().zip(b) {
            *x += y;
        }
    }
    out
}

/// Column-wise sum producing a `1 x cols` row vector.
///
/// The backward pass of [`add_bias`] (bias gradient).
pub fn col_sum(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(1, a.cols());
    for r in 0..a.rows() {
        let row = a.row(r);
        let o = out.row_mut(0);
        for (x, y) in o.iter_mut().zip(row) {
            *x += y;
        }
    }
    out
}

/// Row-wise dot products of two equally-shaped matrices, as an `n x 1`
/// column: `out[i] = a[i] · b[i]`.
///
/// This is the similarity primitive of the prediction layer (Eq. 9).
pub fn rowwise_dot(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "rowwise_dot shape mismatch");
    let mut out = Matrix::zeros(a.rows(), 1);
    for r in 0..a.rows() {
        out.set(r, 0, dot(a.row(r), b.row(r)));
    }
    out
}

/// Scales each row of `a` by the matching entry of the `n x 1` column
/// vector `s`: `out[i] = s[i] * a[i]`.
///
/// This is the gating primitive of the attention-style aggregations in the
/// AGREE/SIGR baselines.
pub fn scale_rows(a: &Matrix, s: &Matrix) -> Matrix {
    assert_eq!(s.cols(), 1, "scale factor must be a column vector");
    assert_eq!(a.rows(), s.rows(), "scale_rows row mismatch");
    let mut out = a.clone();
    for r in 0..out.rows() {
        let f = s.get(r, 0);
        out.row_mut(r).iter_mut().for_each(|v| *v *= f);
    }
    out
}

/// Gathers rows of `src` listed in `indices` into a new matrix.
pub fn gather_rows(src: &Matrix, indices: &[u32]) -> Matrix {
    let mut data = Vec::with_capacity(indices.len() * src.cols());
    for &idx in indices {
        data.extend_from_slice(src.row(idx as usize));
    }
    Matrix::from_vec(indices.len(), src.cols(), data)
}

/// Scatter-add: `dst[indices[i]] += src[i]` for every row `i`.
///
/// The backward pass of [`gather_rows`]; duplicate indices accumulate.
pub fn scatter_add_rows(dst: &mut Matrix, indices: &[u32], src: &Matrix) {
    assert_eq!(
        indices.len(),
        src.rows(),
        "scatter_add_rows index count mismatch"
    );
    assert_eq!(dst.cols(), src.cols(), "scatter_add_rows width mismatch");
    for (i, &idx) in indices.iter().enumerate() {
        axpy_into(dst.row_mut(idx as usize), 1.0, src.row(i));
    }
}

/// Dot products of indexed row pairs, as an `n x 1` column:
/// `out[r] = a[ia[r]] · b[ib[r]]`, read straight off the two tables.
///
/// Bit-identical to [`rowwise_dot`] of the two [`gather_rows`] copies —
/// the same [`dot`] over the same rows — without making them.
pub fn gather_dot(a: &Matrix, ia: &[u32], b: &Matrix, ib: &[u32]) -> Matrix {
    assert_eq!(ia.len(), ib.len(), "gather_dot index count mismatch");
    assert_eq!(a.cols(), b.cols(), "gather_dot width mismatch");
    let mut out = Matrix::zeros(ia.len(), 1);
    for (o, (&i, &j)) in out.as_mut_slice().iter_mut().zip(ia.iter().zip(ib)) {
        *o = dot(a.row(i as usize), b.row(j as usize));
    }
    out
}

/// Scaled scatter-add between indexed rows:
/// `dst[id[r]] += src[is[r]] * g[r]` for every `r` in order, `g` an
/// `n x 1` column, each product rounded before it is added.
///
/// One side of the backward pass of [`gather_dot`]. Bit-identical to
/// scaling the gathered rows of `src` by `g` into a copy and
/// [`scatter_add_rows`]-ing the copy: same products, same row order.
pub fn scatter_add_scaled_rows(dst: &mut Matrix, id: &[u32], src: &Matrix, is: &[u32], g: &Matrix) {
    assert!(
        id.len() == g.rows() && is.len() == g.rows() && g.cols() == 1,
        "scatter_add_scaled_rows index count mismatch"
    );
    assert_eq!(
        dst.cols(),
        src.cols(),
        "scatter_add_scaled_rows width mismatch"
    );
    for ((&d, &s), &gr) in id.iter().zip(is).zip(g.as_slice()) {
        axpy_into(dst.row_mut(d as usize), gr, src.row(s as usize));
    }
}

/// Columns per register strip of [`segment_mean`]: four lane vectors.
const SEG_STRIP: usize = 4 * DOT_LANES;

/// Columns `c .. c + 8V` of one [`segment_mean`] output row, read from
/// columns `src_col + c ..` of the member rows: `V` accumulator vectors
/// from `+0.0`, one `add` per member row in list order, one `mul` by `inv`
/// and one store.
#[inline(always)]
fn segment_strip<L: Lane8, const V: usize>(
    src: &Matrix,
    src_col: usize,
    seg: &[u32],
    c: usize,
    inv: f32,
    out: &mut [f32],
) {
    let end = c + V * DOT_LANES;
    let mut acc = [L::splat(0.0); V];
    for &m in seg {
        let row = &src.row(m as usize)[src_col..];
        assert!(end <= row.len(), "segment_mean: strip past the source row");
        // SAFETY: load `v < V` reads floats `c + 8v .. c + 8v + 8` of
        // `row`, which end by `end <= row.len()` (asserted above).
        unsafe {
            for (v, acc) in acc.iter_mut().enumerate() {
                *acc = acc.add(L::loadu_ptr(row.as_ptr().add(c + v * DOT_LANES)));
            }
        }
    }
    let inv = L::splat(inv);
    assert!(end <= out.len(), "segment_mean: strip past the output row");
    // SAFETY: store `v < V` writes floats `c + 8v .. c + 8v + 8` of `out`,
    // which end by `end <= out.len()` (asserted above).
    unsafe {
        for (v, acc) in acc.iter().enumerate() {
            acc.mul(inv)
                .storeu_ptr(out.as_mut_ptr().add(c + v * DOT_LANES));
        }
    }
}

/// One [`segment_mean`] output row over columns `src_col ..` of `src`, as
/// wide as `out`: [`SEG_STRIP`]-column strips, then single lane vectors,
/// then single columns, each accumulated from `+0.0` over the member rows
/// in list order and scaled by `inv` once — `(((0 + s0) + s1) + …) * inv`
/// per element, whatever the strip width.
#[inline(always)]
fn segment_mean_row<L: Lane8>(
    src: &Matrix,
    src_col: usize,
    seg: &[u32],
    inv: f32,
    out: &mut [f32],
) {
    let mut c = 0;
    while c + SEG_STRIP <= out.len() {
        segment_strip::<L, { SEG_STRIP / DOT_LANES }>(src, src_col, seg, c, inv, out);
        c += SEG_STRIP;
    }
    while c + DOT_LANES <= out.len() {
        segment_strip::<L, 1>(src, src_col, seg, c, inv, out);
        c += DOT_LANES;
    }
    for (c, o) in out.iter_mut().enumerate().skip(c) {
        let sum = seg
            .iter()
            .fold(0.0f32, |acc, &m| acc + src.row(m as usize)[src_col + c]);
        *o = sum * inv;
    }
}

/// Output row `i` of a segment mean over columns `src_col ..` of `src`,
/// as wide as `out`: `+0.0` throughout for an empty segment.
#[inline(always)]
fn segment_mean_at(
    src: &Matrix,
    src_col: usize,
    (offsets, members): (&[usize], &[u32]),
    i: usize,
    out: &mut [f32],
) {
    let seg = &members[offsets[i]..offsets[i + 1]];
    if seg.is_empty() {
        out.fill(0.0);
    } else {
        let inv = 1.0 / seg.len() as f32;
        segment_mean_row::<simd::Native>(src, src_col, seg, inv, out);
    }
}

/// The segment count of `offsets`, after checking that `src_cols` lies
/// inside `src`.
fn segments(src: &Matrix, src_cols: &Range<usize>, offsets: &[usize]) -> usize {
    assert!(!offsets.is_empty(), "segment_mean: offsets is empty");
    assert!(
        src_cols.start <= src_cols.end && src_cols.end <= src.cols(),
        "segment_mean: source columns {src_cols:?} out of bounds"
    );
    offsets.len() - 1
}

/// Mean-aggregates rows of `src` over CSR-style segments.
///
/// `offsets` has `n_out + 1` entries; output row `i` is the mean of
/// `src[members[offsets[i]..offsets[i+1]]]`. Empty segments produce a zero
/// row — exactly the convention of the paper's propagation (a node with no
/// neighbours in a view contributes nothing).
///
/// Each output row is accumulated in registers a column strip at a time
/// (one load per member per strip, one store per strip) instead of through
/// a load-add-store of the output row per member. [`segment_mean_cols`]
/// over every column of `src`.
///
/// # Panics
/// Panics if `offsets` is empty: even zero segments have the one offset.
pub fn segment_mean(src: &Matrix, offsets: &[usize], members: &[u32]) -> Matrix {
    segment_mean_cols(src, 0..src.cols(), offsets, members)
}

/// [`segment_mean`] of the columns `src_cols` of `src`, as a fresh
/// `n_out x src_cols.len()` table grown a row at a time: each row is
/// computed into a scratch row and appended, so no element is written
/// twice.
///
/// # Panics
/// Panics if `offsets` is empty or `src_cols` does not lie inside `src`.
pub fn segment_mean_cols(
    src: &Matrix,
    src_cols: Range<usize>,
    offsets: &[usize],
    members: &[u32],
) -> Matrix {
    let n_out = segments(src, &src_cols, offsets);
    let w = src_cols.len();
    let mut data = Vec::with_capacity(n_out * w);
    let mut row = vec![0.0f32; w];
    for i in 0..n_out {
        segment_mean_at(src, src_cols.start, (offsets, members), i, &mut row);
        data.extend_from_slice(&row);
    }
    Matrix::from_vec(n_out, w, data)
}

/// [`segment_mean_cols`] written into columns
/// `dst_col .. dst_col + src_cols.len()` of `dst` (one row per segment);
/// the rest of `dst` is not touched. The same per-element arithmetic, so
/// the same bits.
///
/// # Panics
/// Panics if `offsets` is empty, `src_cols` does not lie inside `src`, or
/// the window does not fit in `dst`.
pub fn segment_mean_into(
    src: &Matrix,
    src_cols: Range<usize>,
    offsets: &[usize],
    members: &[u32],
    dst: &mut Matrix,
    dst_col: usize,
) {
    let n_out = segments(src, &src_cols, offsets);
    let w = src_cols.len();
    check_window(dst, n_out, dst_col, w);
    for i in 0..n_out {
        let out = &mut dst.row_mut(i)[dst_col..dst_col + w];
        segment_mean_at(src, src_cols.start, (offsets, members), i, out);
    }
}

/// Backward of [`segment_mean`]: routes the columns `grad_cols` of `grad`
/// (one row per segment) back to the member rows, scaled by
/// `1 / segment_len`. The window is read in place: bit for bit the
/// backward of the window copied out.
///
/// A row of `grad` that is entirely `±0.0` is skipped — a mini-batch's
/// cotangent is nonzero in the rows it touched and nowhere else. Skipping
/// changes no bit: `inv * ±0.0` is `±0.0`, every output element is a sum
/// that starts from `+0.0` and so is never `-0.0`, and `acc + ±0.0 == acc`
/// for every such `acc`. (A NaN row is not zero and is routed as before.)
///
/// # Panics
/// Panics if `offsets` is empty (even zero segments have the one offset),
/// or if `grad_cols` runs past `grad`.
pub fn segment_mean_backward(
    grad: &Matrix,
    grad_cols: Range<usize>,
    offsets: &[usize],
    members: &[u32],
    src_rows: usize,
) -> Matrix {
    assert!(
        !offsets.is_empty(),
        "segment_mean_backward: offsets is empty"
    );
    assert!(
        grad_cols.end <= grad.cols(),
        "segment_mean_backward: window {grad_cols:?} past {} columns",
        grad.cols()
    );
    let mut out = Matrix::zeros(src_rows, grad_cols.len());
    for i in 0..offsets.len() - 1 {
        let seg = &members[offsets[i]..offsets[i + 1]];
        let g = &grad.row(i)[grad_cols.clone()];
        if seg.is_empty() || g.iter().all(|&v| v == 0.0) {
            continue;
        }
        let inv = 1.0 / seg.len() as f32;
        for &m in seg {
            axpy_into(out.row_mut(m as usize), inv, g);
        }
    }
    out
}

/// Horizontally concatenates matrices with equal row counts.
pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
    assert!(!parts.is_empty(), "concat_cols of zero matrices");
    let rows = parts[0].rows();
    assert!(
        parts.iter().all(|p| p.rows() == rows),
        "concat_cols row mismatch"
    );
    let cols: usize = parts.iter().map(|p| p.cols()).sum();
    let mut data = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for p in parts {
            data.extend_from_slice(p.row(r));
        }
    }
    Matrix::from_vec(rows, cols, data)
}

/// Extracts columns `[start, start+width)` into a new matrix (backward of
/// [`concat_cols`] for one part).
pub fn slice_cols(a: &Matrix, start: usize, width: usize) -> Matrix {
    assert!(start + width <= a.cols(), "slice_cols out of bounds");
    let mut data = Vec::with_capacity(a.rows() * width);
    for r in 0..a.rows() {
        data.extend_from_slice(&a.row(r)[start..start + width]);
    }
    Matrix::from_vec(a.rows(), width, data)
}

/// Numerically stable sigmoid `1 / (1 + e^{-x})`.
#[inline]
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// Numerically stable `ln(sigmoid(x)) = -softplus(-x)`.
#[inline]
pub fn log_sigmoid_scalar(x: f32) -> f32 {
    // ln σ(x) = -ln(1 + e^{-x}); rewrite for both signs of x.
    if x >= 0.0 {
        -((-x).exp()).ln_1p()
    } else {
        x - (x.exp()).ln_1p()
    }
}

/// Elementwise sigmoid.
pub fn sigmoid(a: &Matrix) -> Matrix {
    a.map(sigmoid_scalar)
}

/// `|x|` below which [`tanh_lanes`] takes its polynomial arm.
const TANH_POLY_BELOW: f32 = 0.625;

/// `|x|` is clamped here before the exponential arm. Anything at or above
/// ≈ 9.011 already evaluates to exactly `1.0` (`2 / (e^{2|x|} + 1)` is
/// under half an ulp of one), so the clamp changes no result; it keeps
/// `e^{2|x|}` finite so that `±∞` needs no case of its own.
const TANH_CLAMP: f32 = 10.0;

/// `c[0] x^n + c[1] x^{n-1} + … + c[n]`, Horner's rule, each product
/// rounded before its add.
#[inline(always)]
fn horner<L: Lane8>(x: L, c: &[f32]) -> L {
    c[1..]
        .iter()
        .fold(L::splat(c[0]), |acc, &ck| acc.mul(x).add(L::splat(ck)))
}

/// `tanh`'s polynomial arm at `z = min(CLAMP, |x|)`: `z + z · z² P(z²)`,
/// `P` the Cephes degree-4 minimax fit, meant for `z < 0.625`.
#[inline(always)]
#[allow(clippy::excessive_precision)] // the coefficients as Cephes prints them
fn tanh_poly_arm<L: Lane8>(z: L) -> L {
    let w = z.mul(z);
    let p = horner(
        w,
        &[
            -5.704_988_727_45e-3,
            2.063_908_879_54e-2,
            -5.373_971_555_31e-2,
            1.333_144_220_36e-1,
            -3.333_328_194_22e-1,
        ],
    );
    p.mul(w).mul(z).add(z)
}

/// `tanh`'s exponential arm at `z = min(CLAMP, |x|)`:
/// `1 − 2 / (e^{2z} + 1)`, where `e^a = 2^n e^r` with
/// `n = round(a log₂e)`, `r = a − n ln 2` (`ln 2` split in two so that
/// `n · C1` is exact) and `e^r = 1 + r + r² Q(r)`.
#[inline(always)]
#[allow(clippy::excessive_precision)] // the coefficients as Cephes prints them
fn tanh_exp_arm<L: Lane8>(z: L) -> L {
    let a = z.add(z);
    let biased = a
        .mul(L::splat(std::f32::consts::LOG2_E))
        .add(L::splat(EXP2I_BIAS));
    let n = biased.sub(L::splat(EXP2I_BIAS));
    let r = a
        .sub(n.mul(L::splat(0.693_359_375)))
        .sub(n.mul(L::splat(-2.121_944_40e-4)));
    let q = horner(
        r,
        &[
            1.987_569_150_0e-4,
            1.398_199_950_7e-3,
            8.333_451_907_3e-3,
            4.166_579_589_4e-2,
            1.666_666_545_9e-1,
            5.000_000_120_1e-1,
        ],
    );
    let e = q
        .mul(r.mul(r))
        .add(r)
        .add(L::splat(1.0))
        .mul(biased.exp2i());
    L::splat(1.0).sub(L::splat(2.0).div(e.add(L::splat(1.0))))
}

/// `tanh` of eight lanes, the Cephes single-precision split: with
/// `z = min(CLAMP, |x|)`, lane by lane the polynomial arm
/// ([`tanh_poly_arm`]) where `z < 0.625` and the exponential arm
/// ([`tanh_exp_arm`]) elsewhere, chosen by `select_lt`.
///
/// The exponential arm — the `div` and most of the work — is computed
/// only when some lane needs it. A vector whose every lane has
/// `z < 0.625` (`Lane8::all_lt`, the comparison the select makes) returns
/// the polynomial arm directly, which is what the select picks in every
/// lane of such a vector, so the shortcut changes no bit; the arms are
/// pure arithmetic, and leaving one uncomputed is unobservable. A NaN lane
/// fails the ordered compare and takes the select as before. The
/// both-arms form survives as [`reference::tanh`], and the tests hold
/// this to it bit for bit on every `f32`.
///
/// The sign goes back on with `copysign`, so `tanh(-x) == -tanh(x)` and
/// `-0.0 → -0.0` bit for bit. NaN stays NaN through either arm (the clamp
/// is `min(CLAMP, z)`, which returns its second operand for a NaN);
/// subnormal and tiny `x` return themselves (`z²` underflows and the
/// correction with it). Worst error over all 2³² inputs: see the
/// `tanh_exhaustive_sweep` test.
#[inline(always)]
fn tanh_lanes<L: Lane8>(x: L) -> L {
    let z = L::splat(TANH_CLAMP).min(x.abs());
    let below = L::splat(TANH_POLY_BELOW);
    let small = tanh_poly_arm(z);
    let y = if z.all_lt(below) {
        small
    } else {
        z.select_lt(below, small, tanh_exp_arm(z))
    };
    y.copysign(x)
}

/// [`tanh_lanes`] without the shortcut: both arms, then the select —
/// the body [`reference::tanh`] runs.
#[inline(always)]
fn tanh_lanes_both_arms<L: Lane8>(x: L) -> L {
    let z = L::splat(TANH_CLAMP).min(x.abs());
    z.select_lt(L::splat(TANH_POLY_BELOW), tanh_poly_arm(z), tanh_exp_arm(z))
        .copysign(x)
}

/// `f` over `xs` in place: whole vectors, then the tail padded with zeros
/// into one more. Every element goes through the same `f` whatever its
/// index and whatever the slice's length.
#[inline(always)]
fn map_lanes<L: Lane8>(xs: &mut [f32], f: impl Fn(L) -> L) {
    let (chunks, tail) = xs.as_chunks_mut::<{ simd::LANES }>();
    for c in chunks {
        f(L::loadu(c)).storeu(c);
    }
    if !tail.is_empty() {
        let mut pad = [0.0f32; simd::LANES];
        pad[..tail.len()].copy_from_slice(tail);
        f(L::loadu(&pad)).storeu(&mut pad);
        tail.copy_from_slice(&pad[..tail.len()]);
    }
}

/// [`tanh_inplace`] over a given [`Lane8`].
#[inline(always)]
fn tanh_slice<L: Lane8>(xs: &mut [f32]) {
    map_lanes(xs, tanh_lanes::<L>);
}

/// Elementwise `tanh` in place — the workspace's only `tanh`, computed in
/// this crate rather than by the host's libm.
///
/// Within 2 ulp of the exact value for every `f32`; odd bit for bit;
/// `NaN → NaN`, `±∞ → ±1`, `±0 → ±0`, `|y| ≤ 1`. An element's result is a
/// function of that element alone: not of its position, of the slice's
/// length, or of whether the build has AVX2 (see [`tanh_lanes`] and the
/// `simd` module).
pub fn tanh_inplace(xs: &mut [f32]) {
    tanh_slice::<simd::Native>(xs);
}

/// Elementwise tanh ([`tanh_inplace`] on a copy).
pub fn tanh(a: &Matrix) -> Matrix {
    let mut out = a.clone();
    tanh_inplace(out.as_mut_slice());
    out
}

/// Elementwise LeakyReLU with slope `alpha` for negative inputs.
pub fn leaky_relu(a: &Matrix, alpha: f32) -> Matrix {
    a.map(|v| if v >= 0.0 { v } else { alpha * v })
}

/// Mean of all elements as a `1 x 1` matrix.
pub fn mean_all(a: &Matrix) -> Matrix {
    Matrix::from_vec(1, 1, vec![a.mean()])
}

/// Sum of all elements as a `1 x 1` matrix.
pub fn sum_all(a: &Matrix) -> Matrix {
    Matrix::from_vec(1, 1, vec![a.sum()])
}

/// Row-wise L2 normalization; zero rows are left untouched.
///
/// Used to normalize pre-trained embeddings before fine-tuning
/// (Sec. III-C.3 of the paper).
pub fn normalize_rows(a: &Matrix) -> Matrix {
    let mut out = a.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let norm: f32 = row.iter().map(|v| v * v).sum::<f32>().sqrt();
        if norm > 0.0 {
            let inv = 1.0 / norm;
            row.iter_mut().for_each(|v| *v *= inv);
        }
    }
    out
}

/// The tile under [`blend_dot_block`], [`blend_dot_block_multi`] and
/// [`blend_dot_indexed`]: both item tables and the Eq. 9 blend, resolved
/// once per kernel call. The three kernels differ only in which rows they
/// hand to [`BlendTile::score`] and in what order; every score is
/// `blend(dot(own, item_own[i]), dot(social, item_social[i]))` with the
/// same [`dot`] and the same blend arithmetic whichever kernel, tile
/// width or code path produced it.
struct BlendTile<'a> {
    item_own: &'a Matrix,
    item_social: &'a Matrix,
    alpha: f32,
    /// The social product contributes: the model has a social table and
    /// a non-zero blend weight.
    has_social: bool,
}

impl<'a> BlendTile<'a> {
    fn new(item_own: &'a Matrix, item_social: &'a Matrix, alpha: f32) -> Self {
        Self {
            item_own,
            item_social,
            alpha,
            has_social: item_social.cols() > 0 && alpha != 0.0,
        }
    }

    /// Rows every scored id must stay under.
    fn n_items(&self) -> usize {
        if self.has_social {
            self.item_own.rows().min(self.item_social.rows())
        } else {
            self.item_own.rows()
        }
    }

    /// Panics unless the user vectors are as wide as their tables.
    fn check_user(&self, kernel: &str, own: &[f32], social: &[f32]) {
        assert_eq!(
            self.item_own.cols(),
            own.len(),
            "{kernel}: own width mismatch"
        );
        if self.has_social {
            assert_eq!(
                self.item_social.cols(),
                social.len(),
                "{kernel}: social width mismatch"
            );
        }
    }

    /// `out[t]` = the blended score of item `ids[t]`, `t < T`.
    #[inline(always)]
    fn score<const T: usize>(&self, own: &[f32], social: &[f32], ids: [usize; T], out: &mut [f32]) {
        let alpha = self.alpha;
        let own_rows: [&[f32]; T] = std::array::from_fn(|t| self.item_own.row(ids[t]));
        if !self.has_social {
            let o = dot_tile(own, own_rows);
            for t in 0..T {
                out[t] = if alpha == 0.0 {
                    o[t]
                } else {
                    (1.0 - alpha) * o[t]
                };
            }
            return;
        }
        let social_rows: [&[f32]; T] = std::array::from_fn(|t| self.item_social.row(ids[t]));
        if own.len().is_multiple_of(DOT_LANES) && social.len().is_multiple_of(DOT_LANES) {
            if let (Ok(own_rows), Ok(social_rows)) =
                (own_rows[..].try_into(), social_rows[..].try_into())
            {
                // A full tile of tail-free widths: one fused pass.
                return blend_tile::<simd::Native>(own, own_rows, social, social_rows, alpha, out);
            }
        }
        let o = dot_tile(own, own_rows);
        let s = dot_tile(social, social_rows);
        for t in 0..T {
            out[t] = (1.0 - alpha) * o[t] + alpha * s[t];
        }
    }

    /// Scores items `id(0), …, id(out.len() - 1)` for one user: full
    /// [`ROW_TILE`]-item tiles, then the remainder one at a time.
    #[inline(always)]
    fn score_each(
        &self,
        own: &[f32],
        social: &[f32],
        id: impl Fn(usize) -> usize,
        out: &mut [f32],
    ) {
        let mut tiles = out.chunks_exact_mut(ROW_TILE);
        let mut j = 0;
        for tile in tiles.by_ref() {
            self.score::<ROW_TILE>(own, social, std::array::from_fn(|t| id(j + t)), tile);
            j += ROW_TILE;
        }
        for slot in tiles.into_remainder().chunks_mut(1) {
            self.score::<1>(own, social, [id(j)], slot);
            j += 1;
        }
    }
}

/// Blocked Eq. 9-style scoring of a contiguous item range for one user:
/// for each `j < out.len()`,
/// `out[j] = (1-alpha) * own · item_own[start+j] + alpha * social · item_social[start+j]`.
///
/// This is the serving fast path: the caller walks the catalogue in
/// cache-sized blocks (multiples of [`DOT_LANES`]) and both item tables
/// are streamed once, row-major, [`ROW_TILE`] items per register tile so
/// the user vectors' loads are shared across the tile. Every per-item
/// product is the lane-blocked [`dot`] — the exact accumulation the
/// offline scorers in `gb-models`/`gb-core` use — so served scores are
/// bit-identical to offline evaluation scores.
///
/// `item_social` may have zero columns (models without a social term);
/// the social product is then 0. With `alpha == 0.0` the own product is
/// returned unblended, matching plain dot-product scorers bit-for-bit.
///
/// # Panics
/// Panics if the range `[start, start + out.len())` exceeds either item
/// table, or if a non-empty table's width disagrees with its user vector.
pub fn blend_dot_block(
    own: &[f32],
    item_own: &Matrix,
    social: &[f32],
    item_social: &Matrix,
    alpha: f32,
    start: usize,
    out: &mut [f32],
) {
    let tile = BlendTile::new(item_own, item_social, alpha);
    assert!(
        start + out.len() <= tile.n_items(),
        "blend_dot_block: item range out of bounds"
    );
    tile.check_user("blend_dot_block", own, social);
    tile.score_each(own, social, |j| start + j, out);
}

/// Multi-user variant of [`blend_dot_block`]: scores the same contiguous
/// item range `[start, start + len)` for a *block* of users in one
/// catalogue pass. `out` holds one `len`-wide row per user, row-major:
/// `out[u * len + j]` is user `u`'s score for item `start + j`.
///
/// The item tiles are the outer loop and the users the inner one, so each
/// `ROW_TILE`-row segment of the item tables comes from memory once per
/// user block and from L1 for every user after the first. Per user, every
/// tile is the *same* tile [`blend_dot_block`] computes, so each user's
/// row is bit-identical to a single-user call: batching is a scheduling
/// choice, never a numeric one.
///
/// A block of one user — the serving tier's single-user request — runs
/// [`blend_dot_block`]'s own loop: the same tiles in the same order,
/// without the per-tile walk over the user block, which for a lone user
/// measured ≈ 40 % slower per pass than [`blend_dot_block`] (median over
/// 2 000 passes of a 20 000-item, 32 + 32-wide catalogue in 512-item
/// blocks, AVX2 build, 2-vCPU Xeon VM).
///
/// `item_social` may have zero columns (models without a social term).
/// Zero users is a no-op.
///
/// # Panics
/// Panics if `owns` and `socials` disagree in length, `out` is not
/// exactly `owns.len() * len`, the range exceeds either item table, or a
/// non-empty table's width disagrees with any user vector.
#[allow(clippy::too_many_arguments)]
pub fn blend_dot_block_multi(
    owns: &[&[f32]],
    item_own: &Matrix,
    socials: &[&[f32]],
    item_social: &Matrix,
    alpha: f32,
    start: usize,
    len: usize,
    out: &mut [f32],
) {
    assert_eq!(
        owns.len(),
        socials.len(),
        "blend_dot_block_multi: user vector count mismatch"
    );
    assert_eq!(
        out.len(),
        owns.len() * len,
        "blend_dot_block_multi: output size mismatch"
    );
    let tile = BlendTile::new(item_own, item_social, alpha);
    assert!(
        start + len <= tile.n_items(),
        "blend_dot_block_multi: item range out of bounds"
    );
    for (own, social) in owns.iter().zip(socials) {
        tile.check_user("blend_dot_block_multi", own, social);
    }
    if let ([own], [social]) = (owns, socials) {
        return tile.score_each(own, social, |j| start + j, out);
    }
    let full = len - len % ROW_TILE;
    for j0 in (0..full).step_by(ROW_TILE) {
        let ids = std::array::from_fn(|t| start + j0 + t);
        for (u, (own, social)) in owns.iter().zip(socials).enumerate() {
            let at = u * len + j0;
            tile.score::<ROW_TILE>(own, social, ids, &mut out[at..at + ROW_TILE]);
        }
    }
    for j in full..len {
        for (u, (own, social)) in owns.iter().zip(socials).enumerate() {
            let at = u * len + j;
            tile.score::<1>(own, social, [start + j], &mut out[at..at + 1]);
        }
    }
}

/// Gathered variant of [`blend_dot_block`]: scores an explicit list of
/// item ids instead of a contiguous range — the scoring path for
/// arbitrary candidate sets (the offline `Scorer::score_items` surface;
/// the evaluation protocol ranks explicit 1000-candidate lists through
/// it). The IVF serving path instead streams *packed* per-cell tables
/// through [`blend_dot_block`] — a gather defeats the prefetcher on hot
/// catalogue-sized tables.
///
/// `out[j]` is the Eq. 9 blend for item `items[j]`, from the same tile
/// (over [`ROW_TILE`] gathered rows at a time) as [`blend_dot_block`]
/// computes for that item, so a gathered item's score is **bit-identical**
/// to what a contiguous pass computes — candidate selection changes which
/// items are scored, never what any score is.
///
/// `item_social` may have zero columns (models without a social term);
/// with `alpha == 0.0` the own product is returned unblended.
///
/// # Panics
/// Panics if `out.len() != items.len()`, any id is out of range for
/// either (non-empty) item table, or a non-empty table's width disagrees
/// with its user vector.
#[allow(clippy::too_many_arguments)]
pub fn blend_dot_indexed(
    own: &[f32],
    item_own: &Matrix,
    social: &[f32],
    item_social: &Matrix,
    alpha: f32,
    items: &[u32],
    out: &mut [f32],
) {
    assert_eq!(
        out.len(),
        items.len(),
        "blend_dot_indexed: output size mismatch"
    );
    let tile = BlendTile::new(item_own, item_social, alpha);
    tile.check_user("blend_dot_indexed", own, social);
    for &i in items {
        assert!(
            (i as usize) < tile.n_items(),
            "blend_dot_indexed: item {i} out of range"
        );
    }
    tile.score_each(own, social, |j| items[j] as usize, out);
}

/// Cosine similarity between two equal-length vectors; 0.0 if either is a
/// zero vector.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine_similarity length mismatch");
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// Scalar reference implementations of the blocked hot-path kernels.
///
/// These are the straightforward row-major loops the blocked kernels
/// replaced, kept as the ground truth the property tests compare the
/// blocked kernels against (`tests/kernel_proptests.rs` is an
/// integration test, so the module stays `pub`). They are *not* used by
/// any training or serving path.
pub mod reference {
    use crate::simd;
    use crate::Matrix;

    /// Plain ascending-index dot product.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        let mut acc = 0.0f32;
        for (x, y) in a.iter().zip(b) {
            acc += x * y;
        }
        acc
    }

    /// Scalar ikj `C = A * B` — the seed implementation verbatim,
    /// including the data-dependent zero-skip branch that defeats
    /// auto-vectorization of the inner loop (results differ from the
    /// branch-free kernels only on signed-zero edge cases).
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
        let (m, k) = a.shape();
        let n = b.cols();
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for (kk, &a_ik) in a_row.iter().enumerate().take(k) {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = b.row(kk);
                for j in 0..n {
                    out_row[j] += a_ik * b_row[j];
                }
            }
        }
        out
    }

    /// Scalar `C = A^T * B` — the seed implementation verbatim (with the
    /// same vectorization-defeating zero-skip branch).
    pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "matmul_tn shape mismatch");
        let m = a.cols();
        let n = b.cols();
        let mut out = Matrix::zeros(m, n);
        for r in 0..a.rows() {
            let a_row = a.row(r);
            let b_row = b.row(r);
            for (i, &a_ri) in a_row.iter().enumerate() {
                if a_ri == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for j in 0..n {
                    out_row[j] += a_ri * b_row[j];
                }
            }
        }
        out
    }

    /// Scalar `C = A * B^T`.
    pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.cols(), "matmul_nt shape mismatch");
        let m = a.rows();
        let n = b.rows();
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for (j, out_v) in out_row.iter_mut().enumerate().take(n) {
                *out_v = dot(a_row, b.row(j));
            }
        }
        out
    }

    /// Mean aggregation one element at a time (same contract as
    /// [`super::segment_mean`]): `(((0 + s0) + s1) + …) * (1 / len)` over
    /// the member rows in list order, `+0.0` for an empty segment.
    pub fn segment_mean(src: &Matrix, offsets: &[usize], members: &[u32]) -> Matrix {
        assert!(!offsets.is_empty(), "segment_mean: offsets is empty");
        let mut out = Matrix::zeros(offsets.len() - 1, src.cols());
        for i in 0..offsets.len() - 1 {
            let seg = &members[offsets[i]..offsets[i + 1]];
            for c in 0..src.cols() {
                let mut acc = 0.0f32;
                for &m in seg {
                    acc += src.get(m as usize, c);
                }
                if !seg.is_empty() {
                    acc *= 1.0 / seg.len() as f32;
                }
                out.set(i, c, acc);
            }
        }
        out
    }

    /// Elementwise `tanh` computed the way [`super::tanh`] computed it
    /// before it learned to skip the exponential arm: both Cephes arms for
    /// every vector, then the per-lane select. The oracle that shortcut is
    /// held to bit for bit.
    pub fn tanh(a: &Matrix) -> Matrix {
        let mut out = a.clone();
        super::map_lanes(
            out.as_mut_slice(),
            super::tanh_lanes_both_arms::<simd::Native>,
        );
        out
    }

    /// Scalar blended dual-dot block scoring (same contract as
    /// [`super::blend_dot_block`]).
    pub fn blend_dot_block(
        own: &[f32],
        item_own: &Matrix,
        social: &[f32],
        item_social: &Matrix,
        alpha: f32,
        start: usize,
        out: &mut [f32],
    ) {
        let n = out.len();
        assert!(
            start + n <= item_own.rows(),
            "blend_dot_block: own range out of bounds"
        );
        assert_eq!(
            item_own.cols(),
            own.len(),
            "blend_dot_block: own width mismatch"
        );
        let has_social = item_social.cols() > 0 && alpha != 0.0;
        if has_social {
            assert!(
                start + n <= item_social.rows(),
                "blend_dot_block: social range out of bounds"
            );
            assert_eq!(
                item_social.cols(),
                social.len(),
                "blend_dot_block: social width mismatch"
            );
        }
        for (j, slot) in out.iter_mut().enumerate() {
            let o = dot(own, item_own.row(start + j));
            if has_social {
                let s = dot(social, item_social.row(start + j));
                *slot = (1.0 - alpha) * o + alpha * s;
            } else if alpha == 0.0 {
                *slot = o;
            } else {
                *slot = (1.0 - alpha) * o;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    /// Seeded test data with the awkward values mixed in: signed zeros,
    /// subnormals, 1e30-scale magnitudes (products overflow to ±∞ and
    /// their sums to NaN) and mixed signs.
    fn awkward(n: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..n)
            .map(|_| {
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
            .collect()
    }

    /// Bitwise equality, with any NaN equal to any NaN: which operand's
    /// payload an x86 NaN result carries depends on operand order, and
    /// serving rejects non-finite scores before ranking them.
    fn same_bits(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn matmul_small_known_product() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(matmul(&a, &Matrix::eye(4)), a);
        assert_eq!(matmul(&Matrix::eye(4), &a), a);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(3, 4, |r, c| (r * c) as f32 + 1.0);
        assert_eq!(matmul_tn(&a, &b), matmul(&a.transposed(), &b));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 2, |r, c| (r + 2 * c) as f32);
        let b = Matrix::from_fn(5, 2, |r, c| (r * 2 + c) as f32 - 3.0);
        assert_eq!(matmul_nt(&a, &b), matmul(&a, &b.transposed()));
    }

    #[test]
    fn bias_broadcast_and_grad() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(1, 2, &[10.0, 20.0]);
        let out = add_bias(&a, &b);
        assert_eq!(out.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(col_sum(&a).as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn rowwise_dot_known() {
        let a = m(2, 3, &[1.0, 0.0, 2.0, -1.0, 1.0, 0.5]);
        let b = m(2, 3, &[3.0, 5.0, 0.5, 2.0, 2.0, 2.0]);
        let d = rowwise_dot(&a, &b);
        assert_eq!(d.as_slice(), &[4.0, 1.0]);
    }

    #[test]
    fn gather_scatter_roundtrip_accumulates() {
        let src = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let idx = [2u32, 0, 2];
        let g = gather_rows(&src, &idx);
        assert_eq!(g.row(0), src.row(2));
        assert_eq!(g.row(1), src.row(0));

        let mut acc = Matrix::zeros(4, 2);
        scatter_add_rows(&mut acc, &idx, &Matrix::full(3, 2, 1.0));
        assert_eq!(acc.row(2), &[2.0, 2.0]); // duplicated index accumulates
        assert_eq!(acc.row(0), &[1.0, 1.0]);
        assert_eq!(acc.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn segment_mean_handles_empty_segments() {
        let src = m(3, 2, &[2.0, 4.0, 6.0, 8.0, 10.0, 12.0]);
        // segment 0 = {0,1}, segment 1 = {}, segment 2 = {2}
        let offsets = [0usize, 2, 2, 3];
        let members = [0u32, 1, 2];
        let out = segment_mean(&src, &offsets, &members);
        assert_eq!(out.row(0), &[4.0, 6.0]);
        assert_eq!(out.row(1), &[0.0, 0.0]);
        assert_eq!(out.row(2), &[10.0, 12.0]);
    }

    #[test]
    fn segment_mean_backward_distributes_scaled_grad() {
        let offsets = [0usize, 2, 2, 3];
        let members = [0u32, 1, 2];
        let grad = m(3, 2, &[1.0, 2.0, 99.0, 99.0, 3.0, 4.0]);
        let back = segment_mean_backward(&grad, 0..2, &offsets, &members, 3);
        assert_eq!(back.row(0), &[0.5, 1.0]);
        assert_eq!(back.row(1), &[0.5, 1.0]);
        assert_eq!(back.row(2), &[3.0, 4.0]);
    }

    #[test]
    fn concat_then_slice_recovers_parts() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 1, &[5.0, 6.0]);
        let cat = concat_cols(&[&a, &b]);
        assert_eq!(cat.shape(), (2, 3));
        assert_eq!(slice_cols(&cat, 0, 2), a);
        assert_eq!(slice_cols(&cat, 2, 1), b);
    }

    #[test]
    fn sigmoid_stability_at_extremes() {
        assert!(sigmoid_scalar(100.0) <= 1.0);
        assert!(sigmoid_scalar(-100.0) >= 0.0);
        assert!((sigmoid_scalar(0.0) - 0.5).abs() < 1e-7);
        assert!(log_sigmoid_scalar(-100.0).is_finite());
        assert!((log_sigmoid_scalar(100.0)).abs() < 1e-6);
    }

    #[test]
    fn log_sigmoid_consistent_with_sigmoid() {
        for &x in &[-5.0f32, -1.0, 0.0, 0.5, 3.0] {
            let expect = sigmoid_scalar(x).ln();
            assert!((log_sigmoid_scalar(x) - expect).abs() < 1e-5, "x={x}");
        }
    }

    #[test]
    fn normalize_rows_unit_norm() {
        let a = m(2, 2, &[3.0, 4.0, 0.0, 0.0]);
        let n = normalize_rows(&a);
        assert!((n.row(0)[0] - 0.6).abs() < 1e-6);
        assert!((n.row(0)[1] - 0.8).abs() < 1e-6);
        assert_eq!(n.row(1), &[0.0, 0.0]); // zero row untouched
    }

    #[test]
    fn cosine_similarity_bounds() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn scale_rows_gates_each_row() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let s = m(2, 1, &[2.0, -1.0]);
        let out = scale_rows(&a, &s);
        assert_eq!(out.as_slice(), &[2.0, 4.0, -3.0, -4.0]);
    }

    #[test]
    fn blend_dot_block_matches_scalar_scoring() {
        let item_own = Matrix::from_fn(7, 3, |r, c| (r as f32 * 0.3 - c as f32 * 0.1).sin());
        let item_social = Matrix::from_fn(7, 5, |r, c| (r as f32 * 0.2 + c as f32 * 0.4).cos());
        let own = [0.5f32, -1.0, 0.25];
        let social = [1.0f32, 0.0, -0.5, 0.75, 0.1];
        let alpha = 0.6f32;
        let mut out = vec![0.0f32; 4];
        blend_dot_block(&own, &item_own, &social, &item_social, alpha, 2, &mut out);
        for (j, &got) in out.iter().enumerate() {
            let mut o = 0.0f32;
            let mut s = 0.0f32;
            for (k, &ow) in own.iter().enumerate() {
                o += ow * item_own.get(2 + j, k);
            }
            for (k, &so) in social.iter().enumerate() {
                s += so * item_social.get(2 + j, k);
            }
            let expect = (1.0 - alpha) * o + alpha * s;
            assert_eq!(got, expect, "item {j}");
        }
    }

    #[test]
    fn blend_dot_block_alpha_zero_is_pure_dot() {
        let item_own = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let empty_social = Matrix::zeros(4, 0);
        let own = [2.0f32, -1.0];
        let mut out = vec![0.0f32; 4];
        blend_dot_block(&own, &item_own, &[], &empty_social, 0.0, 0, &mut out);
        assert_eq!(out, vec![-1.0, 1.0, 3.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn blend_dot_block_checks_range() {
        let item_own = Matrix::zeros(3, 2);
        let item_social = Matrix::zeros(3, 0);
        let mut out = vec![0.0f32; 2];
        blend_dot_block(&[0.0, 0.0], &item_own, &[], &item_social, 0.0, 2, &mut out);
    }

    #[test]
    fn blend_dot_block_multi_matches_single_user_bitwise() {
        // Widths with a scalar tail (the per-table path) and without one
        // (the fused tile); block lengths that are and are not multiples
        // of the 4-item tile, so full tiles and the remainder both run;
        // a block of one user (its own loop) and a block of three.
        for (&(wo, ws), n_users) in [(13usize, 5usize), (16, 8), (32, 32), (40, 8)]
            .iter()
            .flat_map(|w| [(w, 1u32), (w, 3)])
        {
            let item_own = Matrix::from_vec(11, wo, awkward(11 * wo, 1));
            let item_social = Matrix::from_vec(11, ws, awkward(11 * ws, 2));
            let owns_data: Vec<Vec<f32>> = (0..n_users).map(|u| awkward(wo, 10 + u)).collect();
            let socials_data: Vec<Vec<f32>> = (0..n_users).map(|u| awkward(ws, 20 + u)).collect();
            let owns: Vec<&[f32]> = owns_data.iter().map(Vec::as_slice).collect();
            let socials: Vec<&[f32]> = socials_data.iter().map(Vec::as_slice).collect();
            for &(start, len) in &[(0usize, 11usize), (2, 7), (3, 1), (0, 0), (1, 8), (7, 4)] {
                let mut multi = vec![0.0f32; owns.len() * len];
                blend_dot_block_multi(
                    &owns,
                    &item_own,
                    &socials,
                    &item_social,
                    0.35,
                    start,
                    len,
                    &mut multi,
                );
                for u in 0..owns.len() {
                    let mut single = vec![0.0f32; len];
                    blend_dot_block(
                        owns[u],
                        &item_own,
                        socials[u],
                        &item_social,
                        0.35,
                        start,
                        &mut single,
                    );
                    for j in 0..len {
                        assert!(
                            same_bits(multi[u * len + j], single[j]),
                            "widths {wo}+{ws}, user {u} item {j} (start {start}, len {len})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn blend_dot_block_multi_no_social_matches_single() {
        let item_own = Matrix::from_fn(9, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        let empty_social = Matrix::zeros(9, 0);
        let owns_data: Vec<Vec<f32>> = (0..2)
            .map(|u| (0..4).map(|i| (u + i) as f32).collect())
            .collect();
        let owns: Vec<&[f32]> = owns_data.iter().map(Vec::as_slice).collect();
        let socials: Vec<&[f32]> = vec![&[], &[]];
        let mut multi = vec![0.0f32; 2 * 9];
        blend_dot_block_multi(
            &owns,
            &item_own,
            &socials,
            &empty_social,
            0.0,
            0,
            9,
            &mut multi,
        );
        for u in 0..2 {
            let mut single = vec![0.0f32; 9];
            blend_dot_block(owns[u], &item_own, &[], &empty_social, 0.0, 0, &mut single);
            assert_eq!(&multi[u * 9..(u + 1) * 9], single.as_slice(), "user {u}");
        }
    }

    #[test]
    #[should_panic(expected = "output size mismatch")]
    fn blend_dot_block_multi_checks_output_size() {
        let item_own = Matrix::zeros(4, 2);
        let item_social = Matrix::zeros(4, 0);
        let mut out = vec![0.0f32; 3];
        blend_dot_block_multi(
            &[&[0.0, 0.0], &[0.0, 0.0]],
            &item_own,
            &[&[], &[]],
            &item_social,
            0.0,
            0,
            2,
            &mut out,
        );
    }

    #[test]
    fn blend_dot_indexed_matches_block_scores_bitwise() {
        for &(wo, ws) in &[(13usize, 5usize), (16, 8), (32, 32), (40, 8)] {
            let item_own = Matrix::from_vec(17, wo, awkward(17 * wo, 3));
            let item_social = Matrix::from_vec(17, ws, awkward(17 * ws, 4));
            let own = awkward(wo, 5);
            let social = awkward(ws, 6);
            let alpha = 0.35f32;
            let mut full = vec![0.0f32; 17];
            blend_dot_block(&own, &item_own, &social, &item_social, alpha, 0, &mut full);
            // Arbitrary gathers (with repeats, unsorted) across both tile
            // paths, contiguous runs `start..start + n` whose tiles fall
            // differently from the block's, and the whole catalogue.
            let gathers: Vec<Vec<u32>> = vec![
                vec![],
                vec![16],
                vec![3, 1, 4, 1, 5, 9, 2, 6],
                vec![0, 5, 10, 15, 2],
                (1..9u32).collect(),
                (2..13u32).collect(),
                (0..17u32).collect(),
            ];
            for items in gathers {
                let mut got = vec![0.0f32; items.len()];
                blend_dot_indexed(
                    &own,
                    &item_own,
                    &social,
                    &item_social,
                    alpha,
                    &items,
                    &mut got,
                );
                for (j, &i) in items.iter().enumerate() {
                    assert!(
                        same_bits(got[j], full[i as usize]),
                        "widths {wo}+{ws}, item {i} (slot {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn blend_dot_indexed_alpha_zero_is_pure_dot() {
        let item_own = Matrix::from_fn(6, 2, |r, c| (r * 2 + c) as f32);
        let empty_social = Matrix::zeros(6, 0);
        let own = [2.0f32, -1.0];
        let mut out = vec![0.0f32; 3];
        blend_dot_indexed(
            &own,
            &item_own,
            &[],
            &empty_social,
            0.0,
            &[5, 0, 2],
            &mut out,
        );
        assert_eq!(out, vec![9.0, -1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn blend_dot_indexed_checks_ids() {
        let item_own = Matrix::zeros(3, 2);
        let item_social = Matrix::zeros(3, 0);
        let mut out = vec![0.0f32; 1];
        blend_dot_indexed(
            &[0.0, 0.0],
            &item_own,
            &[],
            &item_social,
            0.0,
            &[3],
            &mut out,
        );
    }

    #[test]
    fn leaky_relu_slope() {
        let a = m(1, 3, &[-2.0, 0.0, 3.0]);
        let out = leaky_relu(&a, 0.1);
        assert_eq!(out.as_slice(), &[-0.2, 0.0, 3.0]);
    }

    #[test]
    fn dot_handles_every_tail_length() {
        for d in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
            let a: Vec<f32> = (0..d).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..d).map(|i| (i as f32 * 0.23).cos()).collect();
            let got = dot(&a, &b);
            let want = reference::dot(&a, &b);
            let scale: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            assert!(
                (got - want).abs() <= 1e-5 * scale.max(1.0),
                "d={d}: {got} vs {want}"
            );
            // Bit-determinism: a second call reproduces the bits.
            assert_eq!(got.to_bits(), dot(&a, &b).to_bits(), "d={d}");
        }
    }

    #[test]
    fn dot_short_vectors_match_scalar_bitwise() {
        // Below one lane chunk the blocked path degenerates to the plain
        // ascending sum, so short dims are bit-identical to the reference.
        for d in [0usize, 1, 3, 7] {
            let a: Vec<f32> = (0..d).map(|i| (i as f32 * 1.7).sin()).collect();
            let b: Vec<f32> = (0..d).map(|i| (i as f32 * 0.9).cos()).collect();
            assert_eq!(dot(&a, &b).to_bits(), reference::dot(&a, &b).to_bits());
        }
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_reference_order() {
        // The blocked matmul/matmul_tn tile over outputs, not over the
        // reduction index, so they keep the reference's ascending-k
        // per-element order exactly.
        for (mm, kk, nn) in [(1, 1, 1), (4, 8, 8), (5, 9, 11), (7, 3, 17), (12, 16, 9)] {
            let a = Matrix::from_fn(mm, kk, |r, c| ((r * 13 + c * 7) as f32 * 0.11).sin());
            let b = Matrix::from_fn(kk, nn, |r, c| ((r * 5 + c * 3) as f32 * 0.17).cos());
            assert_eq!(matmul(&a, &b), reference::matmul(&a, &b), "{mm}x{kk}x{nn}");
            let at = Matrix::from_fn(kk, mm, |r, c| ((r + c * 2) as f32 * 0.13).sin());
            assert_eq!(
                matmul_tn(&at, &b),
                reference::matmul_tn(&at, &b),
                "tn {mm}x{kk}x{nn}"
            );
        }
    }

    #[test]
    fn matmul_nt_tile_matches_per_element_dot() {
        let a = Matrix::from_fn(3, 33, |r, c| ((r * 31 + c) as f32 * 0.07).sin());
        let b = Matrix::from_fn(9, 33, |r, c| ((r * 17 + c * 5) as f32 * 0.19).cos());
        let out = matmul_nt(&a, &b);
        for i in 0..3 {
            for j in 0..9 {
                assert_eq!(
                    out.get(i, j).to_bits(),
                    dot(a.row(i), b.row(j)).to_bits(),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn blend_dot_block_is_the_blend_of_two_dots_bitwise() {
        let item_own = Matrix::from_fn(13, 33, |r, c| (r as f32 * 0.3 - c as f32 * 0.1).sin());
        let item_social = Matrix::from_fn(13, 9, |r, c| (r as f32 * 0.2 + c as f32 * 0.4).cos());
        let own: Vec<f32> = (0..33).map(|i| (i as f32 * 0.21).sin()).collect();
        let social: Vec<f32> = (0..9).map(|i| (i as f32 * 0.41).cos()).collect();
        let alpha = 0.35f32;
        let mut out = vec![0.0f32; 13];
        blend_dot_block(&own, &item_own, &social, &item_social, alpha, 0, &mut out);
        for (j, &got) in out.iter().enumerate() {
            let o = dot(&own, item_own.row(j));
            let s = dot(&social, item_social.row(j));
            let want = (1.0 - alpha) * o + alpha * s;
            assert_eq!(got.to_bits(), want.to_bits(), "item {j}");
        }
    }

    #[test]
    fn dot_tile_matches_portable_tile_bitwise() {
        // Every length 0..=100 covers every chunk count and every tail.
        // A real comparison only under `cfg(target_feature = "avx2")`:
        // elsewhere `Native` is `Portable` and both sides are one function.
        for d in 0..=100usize {
            let a = awkward(d, d as u32);
            let rows: Vec<Vec<f32>> = (0..4)
                .map(|t| awkward(d, 1000 + 4 * d as u32 + t))
                .collect();
            let tile = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
            let got = dot_tile::<4>(&a, tile);
            let want = dot_tile_on::<simd::Portable, 4>(&a, tile);
            for t in 0..4 {
                assert!(
                    same_bits(got[t], want[t]),
                    "d={d} t={t}: {} vs {}",
                    got[t],
                    want[t]
                );
                let one = dot_tile::<1>(&a, [tile[t]])[0];
                assert!(same_bits(one, want[t]), "d={d} t={t} (T = 1)");
            }
        }
    }

    #[test]
    fn blend_tile_is_the_portable_blend_of_two_dots_bitwise() {
        // Tail-free widths take the fused tile, the others the per-table
        // path; nine items are two full tiles and one remainder item.
        // `alpha == 0` and a zero-width social table are the two
        // social-free forms. The oracle is the unfused `Portable` dot on
        // every build, so the fused-vs-unfused half of this holds on all
        // of them and the AVX2-vs-portable half only under
        // `cfg(target_feature = "avx2")`.
        let n = 9;
        for &wo in &[8usize, 16, 32, 40, 1, 7, 9, 31, 33] {
            for &ws in &[8usize, 16, 32, 40, 1, 7, 9, 31, 33, 0] {
                let item_own = Matrix::from_vec(n, wo, awkward(n * wo, 7));
                let item_social = Matrix::from_vec(n, ws, awkward(n * ws, 8));
                let own = awkward(wo, 9);
                let social = awkward(ws, 10);
                for &alpha in &[0.0f32, 0.6, 1.0] {
                    let mut got = vec![0.0f32; n];
                    blend_dot_block(&own, &item_own, &social, &item_social, alpha, 0, &mut got);
                    for (j, &got) in got.iter().enumerate() {
                        let o = dot_tile_on::<simd::Portable, 1>(&own, [item_own.row(j)])[0];
                        let s = dot_tile_on::<simd::Portable, 1>(&social, [item_social.row(j)])[0];
                        let want = if ws > 0 && alpha != 0.0 {
                            (1.0 - alpha) * o + alpha * s
                        } else if alpha == 0.0 {
                            o
                        } else {
                            (1.0 - alpha) * o
                        };
                        assert!(
                            same_bits(got, want),
                            "widths {wo}+{ws} alpha {alpha} item {j}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_panels_match_their_portable_forms_and_dot_bitwise() {
        // Heights around one panel (a padded last panel, whole panels) and
        // widths with every tail; 1e30-scale values make infinite and NaN
        // distances. Every norm is also `dot`'s own bits. The Native ==
        // Portable half is a real comparison only under
        // `cfg(target_feature = "avx2")`.
        let mut seed = 0u32;
        for n in [1usize, 7, 8, 9, 17, 24] {
            for d in (1..=20).chain([31, 32, 33]) {
                seed += 1;
                let data = Matrix::from_vec(n, d, awkward(n * d, seed));
                let cents = Matrix::from_vec(5, d, awkward(5 * d, seed ^ 0x3333));
                let panels = RowPanels::new(&data);
                let sq = panels.sq_norms();
                let sq_portable = panels.sq_norms_on::<simd::Portable>();
                for i in 0..n {
                    let (got, want) = (sq[i / 8][i % 8], dot(data.row(i), data.row(i)));
                    assert!(same_bits(got, want), "n={n} d={d} row {i}: ‖x‖²");
                    assert!(same_bits(got, sq_portable[i / 8][i % 8]), "n={n} d={d}");
                }
                let half: Vec<f32> = (0..5)
                    .map(|j| 0.5 * dot(cents.row(j), cents.row(j)))
                    .collect();
                let (mut got, mut want) = (vec![0; n], vec![0; n]);
                panels.nearest(&cents, &half, &mut got);
                panels.nearest_on::<simd::Portable>(&cents, &half, &mut want);
                assert_eq!(got, want, "n={n} d={d}: nearest");
                let mut md = vec![[0.0; DOT_LANES]; sq.len()];
                let mut md_portable = md.clone();
                let mut c = seed as usize % n;
                for sweep in 0..4 {
                    let next = panels.maxmin_sweep(&sq, c, &mut md, sweep == 0);
                    let want = panels.maxmin_sweep_on::<simd::Portable>(
                        &sq,
                        c,
                        &mut md_portable,
                        sweep == 0,
                    );
                    assert_eq!(next, want, "n={n} d={d} sweep {sweep}");
                    for (a, b) in md.iter().flatten().zip(md_portable.iter().flatten()) {
                        assert!(same_bits(*a, *b), "n={n} d={d} sweep {sweep}: min_dist");
                    }
                    if sweep == 0 {
                        // The first sweep stores each distance as it is:
                        // `dot`'s bits in every term.
                        let (x, y) = (|i: usize| data.row(i), data.row(c));
                        for i in 0..n {
                            let want = (dot(x(i), x(i)) + dot(y, y)) - 2.0 * dot(x(i), y);
                            assert!(same_bits(md[i / 8][i % 8], want), "n={n} d={d} row {i}");
                        }
                    }
                    c = next;
                }
            }
        }
    }

    /// Every size `0..=20` (no tile, one row tile, one column tile, every
    /// edge width on every side, empty dims) plus the widths around and at
    /// the trainer's own.
    fn tile_dims() -> Vec<usize> {
        (0..=20).chain([31, 32, 33, 96]).collect()
    }

    fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for (i, (&g, &w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(same_bits(g, w), "{what}: element {i}: {g} vs {w}");
        }
    }

    #[test]
    fn matmul_and_matmul_tn_match_their_portable_forms_bitwise() {
        // A real comparison only under `cfg(target_feature = "avx2")`:
        // elsewhere `Native` is `Portable` and both sides are one function.
        let dims = tile_dims();
        let mut seed = 0u32;
        for &mm in &dims {
            for &kk in &dims {
                for &nn in &dims {
                    seed += 1;
                    let b = Matrix::from_vec(kk, nn, awkward(kk * nn, seed));
                    let a = Matrix::from_vec(mm, kk, awkward(mm * kk, seed ^ 0x5555));
                    let all = RowSet::all(mm);
                    assert_same_bits(
                        &matmul(&a, &b),
                        &matmul_strided::<simd::Portable, _>(Lhs::row_major(&a), &b, all, kk),
                        &format!("matmul {mm}x{kk}x{nn}"),
                    );
                    // Every other row, from the first or the second.
                    let rows: Vec<u32> = (seed as usize % 2..mm)
                        .step_by(2)
                        .map(|r| r as u32)
                        .collect();
                    assert_same_bits(
                        &matmul_rows(&a, &rows, &b),
                        &matmul_strided::<simd::Portable, _>(
                            Lhs::row_major(&a),
                            &b,
                            RowSet::listed(mm, &rows),
                            kk,
                        ),
                        &format!("matmul_rows {mm}x{kk}x{nn}"),
                    );
                    let at = Matrix::from_vec(kk, mm, awkward(kk * mm, seed ^ 0xAAAA));
                    assert_same_bits(
                        &matmul_tn(&at, &b),
                        &matmul_strided::<simd::Portable, _>(Lhs::transposed(&at), &b, all, kk),
                        &format!("matmul_tn {mm}x{kk}x{nn}"),
                    );
                    // Every other row of `at`, against as many rows of `b`.
                    let listed: Vec<u32> = (seed as usize % 2..kk)
                        .step_by(2)
                        .map(|r| r as u32)
                        .collect();
                    let bl = gather_rows(&b, &listed);
                    assert_same_bits(
                        &matmul_tn_rows(&at, &listed, &bl),
                        &matmul_strided::<simd::Portable, _>(
                            Lhs::transposed_rows(&at, &listed),
                            &bl,
                            all,
                            listed.len(),
                        ),
                        &format!("matmul_tn_rows {mm}x{kk}x{nn}"),
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_tn_is_matmul_of_the_transpose_bitwise_at_training_shape() {
        // The matmul-backward shape of the propagation FCs:
        // `dW = X^T * dY` with 2000 users and 96-wide layers.
        let a = Matrix::from_vec(2000, 96, awkward(2000 * 96, 11));
        let b = Matrix::from_vec(2000, 96, awkward(2000 * 96, 12));
        assert_same_bits(
            &matmul_tn(&a, &b),
            &matmul(&a.transposed(), &b),
            "matmul_tn 2000x96x96",
        );
    }

    #[test]
    fn segment_mean_matches_its_portable_form_bitwise() {
        // Empty segments (first, middle, last), duplicate members, a
        // 1-member segment and one long enough to round differently in
        // any other order; every strip / vector / scalar-tail split. The
        // first comparison is a real one only under
        // `cfg(target_feature = "avx2")`; the second, against the
        // reference that shares no code with the strips, on every build.
        let offsets = [0usize, 0, 3, 4, 4, 11, 13, 13];
        let members = [5u32, 0, 5, 2, 1, 6, 1, 3, 3, 4, 0, 6, 6];
        for w in tile_dims() {
            let src = Matrix::from_vec(7, w, awkward(7 * w, w as u32 + 40));
            let got = segment_mean(&src, &offsets, &members);
            let mut want = Matrix::zeros(offsets.len() - 1, w);
            for i in 0..offsets.len() - 1 {
                let seg = &members[offsets[i]..offsets[i + 1]];
                if !seg.is_empty() {
                    let inv = 1.0 / seg.len() as f32;
                    segment_mean_row::<simd::Portable>(&src, 0, seg, inv, want.row_mut(i));
                }
            }
            assert_same_bits(&got, &want, &format!("segment_mean w={w}"));
            // The per-element definition, independent of any strip.
            assert_same_bits(
                &got,
                &reference::segment_mean(&src, &offsets, &members),
                &format!("segment_mean vs reference w={w}"),
            );
        }
    }

    #[test]
    fn column_windows_change_no_bit_and_touch_nothing_else() {
        // A source window starting mid-table, at every strip / vector /
        // scalar-tail split, written into a destination window whose
        // other columns hold a sentinel; an empty segment overwrites
        // `-0.0` garbage with `+0.0`.
        let offsets = [0usize, 0, 3, 4, 4, 11, 13, 13];
        let members = [5u32, 0, 5, 2, 1, 6, 1, 3, 3, 4, 0, 6, 6];
        let n_out = offsets.len() - 1;
        let sentinel = 7.25f32;
        for w in tile_dims() {
            let (lead, trail) = (3, 5);
            let wide = Matrix::from_vec(7, lead + w + trail, awkward(7 * (lead + w + trail), 61));
            let src = slice_cols(&wide, lead, w);
            let want = segment_mean(&src, &offsets, &members);
            let cols = lead..lead + w;
            assert_same_bits(
                &segment_mean_cols(&wide, cols.clone(), &offsets, &members),
                &want,
                &format!("segment_mean_cols w={w}"),
            );
            let mut dst = Matrix::full(n_out, 2 + w + 1, sentinel);
            dst.row_mut(3)[2..2 + w].fill(-0.0);
            segment_mean_into(&wide, cols, &offsets, &members, &mut dst, 2);
            assert_same_bits(&slice_cols(&dst, 2, w), &want, &format!("into w={w}"));
            for r in 0..n_out {
                let row = dst.row(r);
                assert!(row[..2].iter().chain(&row[2 + w..]).all(|&v| v == sentinel));
            }
            assert!(dst.row(3)[2..2 + w].iter().all(|v| v.to_bits() == 0));

            let b = Matrix::from_vec(7, w, awkward(7 * w, 62));
            let mut dst = Matrix::full(7, w + 4, sentinel);
            add_into(&src, &b, &mut dst, 1);
            let mut sum = src.clone();
            add_assign(&mut sum, &b);
            assert_same_bits(&slice_cols(&dst, 1, w), &sum, &format!("add_into w={w}"));
            assert_same_bits(&add(&src, &b), &sum, &format!("add w={w}"));
            copy_cols(&wide, lead..lead + w, &mut dst, 4);
            assert_same_bits(&slice_cols(&dst, 4, w), &src, &format!("copy_cols w={w}"));
            assert!((0..7).all(|r| dst.row(r)[0] == sentinel));

            // The backward reads a window of a cotangent as its copy.
            let g = Matrix::from_vec(
                n_out,
                lead + w + trail,
                awkward(n_out * (lead + w + trail), 63),
            );
            assert_same_bits(
                &segment_mean_backward(&g, lead..lead + w, &offsets, &members, 7),
                &segment_mean_backward(&slice_cols(&g, lead, w), 0..w, &offsets, &members, 7),
                &format!("segment_mean_backward window w={w}"),
            );
        }
    }

    #[test]
    #[should_panic(expected = "segment_mean: offsets is empty")]
    fn segment_mean_rejects_empty_offsets() {
        segment_mean(&Matrix::zeros(2, 3), &[], &[]);
    }

    #[test]
    #[should_panic(expected = "segment_mean_backward: offsets is empty")]
    fn segment_mean_backward_rejects_empty_offsets() {
        segment_mean_backward(&Matrix::zeros(0, 3), 0..3, &[], &[], 2);
    }

    #[test]
    fn segment_mean_backward_zero_row_skip_changes_no_bit() {
        // Empty segments (0, 3, 6), duplicated members (5 within segment 1;
        // 6 and 3 across segments), and member rows that only ever receive
        // skipped rows.
        let offsets = [0usize, 0, 3, 4, 4, 11, 13, 13, 15];
        let members = [5u32, 0, 5, 2, 1, 6, 1, 3, 3, 4, 0, 6, 6, 7, 8];
        let n_seg = offsets.len() - 1;
        for w in tile_dims() {
            let base = Matrix::from_vec(n_seg, w, awkward(n_seg * w, w as u32 + 90));
            let rows_of = |fill: &dyn Fn(usize, usize) -> Option<f32>| {
                Matrix::from_fn(n_seg, w, |r, c| fill(r, c).unwrap_or(base.get(r, c)))
            };
            let cases = [
                ("no zero row", rows_of(&|_, c| (c == 0).then_some(0.5))),
                ("all rows zero", rows_of(&|_, _| Some(0.0))),
                ("all rows -0.0", rows_of(&|_, _| Some(-0.0))),
                (
                    "mixed-sign zero rows",
                    rows_of(&|r, c| (r % 2 == 1).then_some(if c % 2 == 0 { 0.0 } else { -0.0 })),
                ),
                (
                    "one live row",
                    rows_of(&|r, c| (r != 4).then_some(if c == 1 { -0.0 } else { 0.0 })),
                ),
                ("a NaN row", rows_of(&|r, _| (r == 1).then_some(f32::NAN))),
                (
                    "subnormal rows",
                    rows_of(&|r, _| (r < 5).then_some(-f32::MIN_POSITIVE / 4.0)),
                ),
            ];
            for (what, grad) in &cases {
                let got = segment_mean_backward(grad, 0..w, &offsets, &members, 9);
                // The kernel without the skip.
                let mut want = Matrix::zeros(9, w);
                for i in 0..n_seg {
                    let seg = &members[offsets[i]..offsets[i + 1]];
                    for &m in seg {
                        axpy_into(
                            want.row_mut(m as usize),
                            1.0 / seg.len() as f32,
                            grad.row(i),
                        );
                    }
                }
                assert_same_bits(&got, &want, &format!("{what}, w={w}"));
            }
        }
    }

    /// `tanh_inplace` of one value (through the padded tail).
    fn tanh1(x: f32) -> f32 {
        let mut v = [x];
        tanh_inplace(&mut v);
        v[0]
    }

    /// `|y - tanh(x)|` in units of the `f32` spacing at the exact value.
    fn tanh_ulp_error(x: f32, y: f32) -> f64 {
        let exact = (x as f64).tanh();
        let exponent = ((exact.abs().to_bits() >> 52) as i32 - 1023).max(-126);
        (y as f64 - exact).abs() / 2.0f64.powi(exponent - 23)
    }

    /// Runs the kernel over `xs` and over `-xs`, asserting what holds for
    /// *every* input — odd bit for bit, NaN exactly where the input is,
    /// and otherwise finite, `|y| ≤ 1` and the input's sign — and returns
    /// the outputs for `xs` with the worst [`tanh_ulp_error`] and its input.
    fn tanh_checked(xs: &[f32]) -> (Vec<f32>, (f64, f32)) {
        let mut ys = xs.to_vec();
        let mut negated: Vec<f32> = xs.iter().map(|x| -x).collect();
        tanh_inplace(&mut ys);
        tanh_inplace(&mut negated);
        let mut worst = (0.0f64, 0.0f32);
        for ((&x, &y), &n) in xs.iter().zip(&ys).zip(&negated) {
            assert_eq!((-y).to_bits(), n.to_bits(), "tanh(±{x:e})");
            assert_eq!(x.is_nan(), y.is_nan(), "tanh({:#x})", x.to_bits());
            if x.is_nan() {
                continue;
            }
            assert!(y.abs() <= 1.0, "tanh({x:e}) = {y:e}");
            assert_eq!(
                x.is_sign_negative(),
                y.is_sign_negative(),
                "tanh({x:e}) = {y:e}"
            );
            let err = tanh_ulp_error(x, y);
            if err > worst.0 {
                worst = (err, x);
            }
        }
        (ys, worst)
    }

    /// The smallest positive float the kernel maps to exactly `1.0`.
    fn tanh_saturation_point() -> f32 {
        let (mut lo, mut hi) = (8.0f32.to_bits(), TANH_CLAMP.to_bits());
        assert!(tanh1(f32::from_bits(lo)) < 1.0 && tanh1(f32::from_bits(hi)) == 1.0);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if tanh1(f32::from_bits(mid)) == 1.0 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        f32::from_bits(hi)
    }

    #[test]
    fn tanh_specials_are_pinned() {
        assert!(tanh1(f32::NAN).is_nan());
        assert!(tanh1(-f32::NAN).is_nan());
        assert!(tanh1(f32::from_bits(0x7F80_0001)).is_nan());
        assert_eq!(tanh1(f32::INFINITY), 1.0);
        assert_eq!(tanh1(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh1(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh1(-0.0).to_bits(), (-0.0f32).to_bits());
        // Subnormals, and everything else too small for x³/3 to show,
        // come back unchanged.
        for bits in [1u32, 2, 0x0040_0000, 0x007F_FFFF, 0x0080_0000, 0x3900_0000] {
            for sign in [0u32, 0x8000_0000] {
                let x = f32::from_bits(bits | sign);
                assert_eq!(tanh1(x).to_bits(), x.to_bits(), "tanh({x:e})");
            }
        }
        // Beyond saturation the answer is exactly ±1, up to f32::MAX.
        let sat = tanh_saturation_point();
        assert!(
            (9.0..9.02).contains(&sat),
            "saturates at {sat}, expected ≈ 9.011"
        );
        for x in [sat, 9.5, TANH_CLAMP, 11.0, 44.0, 89.0, 1.0e30, f32::MAX] {
            assert_eq!(tanh1(x), 1.0, "tanh({x:e})");
            assert_eq!(tanh1(-x), -1.0, "tanh(-{x:e})");
        }
        assert_eq!(tanh1(0.5), 0.462_117_17);
        assert_eq!(tanh1(-1.0), -0.761_594_2);
    }

    /// Every exponent × 4 096 mantissas (the top twelve bits swept, the low
    /// eleven scrambled, plus all-ones) × both signs, and every float
    /// within 4 096 ulp of the arm threshold, of the saturation point and
    /// of the clamp.
    #[test]
    fn tanh_within_two_ulp_on_a_stratified_sweep() {
        let mut xs = Vec::new();
        for exponent in 0u32..255 {
            for i in 0u32..4096 {
                let mantissa = (i << 11) | (i.wrapping_mul(0x9E5) & 0x7FF);
                xs.push(f32::from_bits((exponent << 23) | mantissa));
            }
            xs.push(f32::from_bits((exponent << 23) | 0x007F_FFFF));
        }
        for centre in [TANH_POLY_BELOW, tanh_saturation_point(), TANH_CLAMP] {
            let c = centre.to_bits();
            xs.extend((c - 4096..=c + 4096).map(f32::from_bits));
        }
        // Both signs: `tanh_checked` holds `-xs` to `xs` bit for bit.
        let (_, (err, at)) = tanh_checked(&xs);
        assert!(err <= 2.0, "{err} ulp at {at:e}");
    }

    /// Lanes that share a vector with the swept value in
    /// [`tanh_matches_its_both_arms_reference`]: the first three and `-0.0`
    /// leave an all-small vector on the polynomial shortcut, `0.7`, `20.0`
    /// and NaN send it through both arms and the select.
    const TANH_COMPANIONS: [f32; 6] = [0.1, -0.3, 0.7, 20.0, f32::NAN, -0.0];

    /// `xs[i]` in lane 0 of vector `i`, the other seven lanes all
    /// `TANH_COMPANIONS[i % 6]`, through `tanh_inplace` and through
    /// [`reference::tanh`]: every lane bitwise equal.
    fn tanh_matches_its_both_arms_reference(xs: &[f32]) {
        let vectors: Vec<f32> = xs
            .iter()
            .enumerate()
            .flat_map(|(i, &x)| {
                let c = TANH_COMPANIONS[i % TANH_COMPANIONS.len()];
                std::iter::once(x).chain([c; DOT_LANES - 1])
            })
            .collect();
        let want = reference::tanh(&Matrix::from_vec(xs.len(), DOT_LANES, vectors.clone()));
        let mut got = vectors;
        tanh_inplace(&mut got);
        for (i, (&g, &w)) in got.iter().zip(want.as_slice()).enumerate() {
            assert!(
                same_bits(g, w),
                "tanh({:#010x}) lane {}: {g:e} vs both arms {w:e}",
                xs[i / DOT_LANES].to_bits(),
                i % DOT_LANES
            );
        }
    }

    /// The shortcut at its edge and at the specials: the split itself
    /// (both arms then the select), the float below it (the polynomial arm
    /// alone), the float above; signed zeros, subnormals and infinities;
    /// and a NaN lane — each alone in a vector, among small lanes in every
    /// position, and through both lane types.
    #[test]
    fn tanh_shortcut_equals_both_arms_at_the_split_and_the_specials() {
        let split = TANH_POLY_BELOW;
        let edge = [
            f32::from_bits(split.to_bits() - 1),
            split,
            f32::from_bits(split.to_bits() + 1),
        ];
        let specials = [
            0.0,
            f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NAN,
        ];
        let mut vectors: Vec<[f32; DOT_LANES]> = Vec::new();
        for v in edge.into_iter().chain(specials) {
            for v in [v, -v] {
                vectors.push([v; DOT_LANES]);
                for l in 0..DOT_LANES {
                    let mut vector = [0.3; DOT_LANES];
                    vector[l] = v;
                    vectors.push(vector);
                }
            }
        }
        let xs = vectors.concat();
        let want = reference::tanh(&Matrix::from_vec(vectors.len(), DOT_LANES, xs.clone()));
        let (mut native, mut portable) = (xs.clone(), xs.clone());
        tanh_inplace(&mut native);
        tanh_slice::<simd::Portable>(&mut portable);
        for (i, &x) in xs.iter().enumerate() {
            let w = want.as_slice()[i];
            assert!(
                same_bits(native[i], w),
                "tanh({x:e}) in vector {}",
                i / DOT_LANES
            );
            assert!(same_bits(portable[i], w), "portable tanh({x:e})");
        }
        // Every float within 4 096 ulp of the split, each beside each
        // companion kind.
        let c = split.to_bits();
        let near: Vec<f32> = (c - 4096..=c + 4096).map(f32::from_bits).collect();
        tanh_matches_its_both_arms_reference(&near);
    }

    /// All 2³² bit patterns, once per PR that touches the kernel:
    /// `cargo test --release -p gb-tensor tanh_exhaustive -- --ignored --nocapture`
    /// (≈ 8 min on two threads). Every input's result equals the
    /// both-arms [`reference::tanh`] bit for bit, alone in lane 0 of a
    /// vector whose other lanes take and skip the shortcut in turn
    /// ([`TANH_COMPANIONS`]). Last run after the exponential arm became
    /// conditional, AVX2 and `-C target-cpu=x86-64` builds alike — the
    /// same outputs the kernel has had since it replaced libm's: worst
    /// 1.3303 ulp at x = 6.2830955e-1 (0x3f20d8e5), output checksum
    /// 0xc02e6ccdb4f4d8df.
    #[test]
    #[ignore = "2^32 evaluations against f64 tanh and 2^35 against the both-arms reference: minutes"]
    fn tanh_exhaustive_sweep() {
        const BLOCK: u32 = 1 << 16;
        // The non-negative half against the oracle, split across two
        // threads; the negative half against the non-negative one, bit
        // for bit (`tanh_checked`), so it inherits the bound. The checksum
        // (FNV-1a over the non-negative half's output bits, ascending) is
        // what two builds compare to show they agree on every input. Both
        // halves also against the both-arms reference.
        let sweep = |blocks: std::ops::Range<u32>| {
            let mut worst = (0.0f64, 0.0f32);
            let mut sum = 0xcbf2_9ce4_8422_2325u64;
            for b in blocks {
                let xs: Vec<f32> = (b * BLOCK..=b * BLOCK + (BLOCK - 1))
                    .map(f32::from_bits)
                    .collect();
                tanh_matches_its_both_arms_reference(&xs);
                let negated: Vec<f32> = xs.iter().map(|x| -x).collect();
                tanh_matches_its_both_arms_reference(&negated);
                let (ys, w) = tanh_checked(&xs);
                for y in ys {
                    sum = (sum ^ u64::from(y.to_bits())).wrapping_mul(0x0100_0000_01b3);
                }
                if w.0 > worst.0 {
                    worst = w;
                }
            }
            (worst, sum)
        };
        let half = (1u32 << 31) / BLOCK;
        let ((a, sum_a), (b, sum_b)) = std::thread::scope(|s| {
            let t = s.spawn(|| sweep(0..half / 2));
            let b = sweep(half / 2..half);
            (t.join().expect("sweep thread"), b)
        });
        let (err, at) = if a.0 >= b.0 { a } else { b };
        println!(
            "tanh exhaustive: worst {err:.4} ulp at x = {at:e} ({:#010x}), checksum {:#018x}",
            at.to_bits(),
            sum_a ^ sum_b.rotate_left(1)
        );
        assert!(err <= 2.0, "{err} ulp at {at:e}");
    }

    /// Inputs for the bitwise walls: [`awkward`]'s values stretched over
    /// both arms (±3, ±24, the threshold itself) with NaNs and infinities
    /// mixed in, on a period of 7 so each kind visits every lane.
    fn tanh_inputs(n: usize, seed: u32) -> Vec<f32> {
        awkward(n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| match i % 7 {
                0 => f32::NAN,
                1 => f32::INFINITY.copysign(v),
                2 => TANH_POLY_BELOW.copysign(v),
                3 | 4 => 48.0 * v,
                _ => 6.0 * v,
            })
            .collect()
    }

    fn bits_of(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    #[test]
    fn tanh_avx2_equals_portable_bitwise_at_every_length() {
        for n in (0..=20).chain([31, 32, 33, 96, 2000 * 96]) {
            let xs = tanh_inputs(n, n as u32 + 5);
            let (mut fast, mut slow) = (xs.clone(), xs);
            tanh_slice::<simd::Avx2>(&mut fast);
            tanh_slice::<simd::Portable>(&mut slow);
            assert_eq!(bits_of(&fast), bits_of(&slow), "length {n}");
        }
    }

    /// A value's result does not depend on where in a slice it sits, on
    /// what sits beside it, or on how long the slice is: whole-vector
    /// lanes and the padded tail run one sequence of operations.
    #[test]
    fn tanh_is_position_independent() {
        let xs = tanh_inputs(37, 3);
        let alone: Vec<u32> = xs.iter().map(|&x| tanh1(x).to_bits()).collect();
        for offset in 0..8 {
            for trailing in [0, 1, 5, 8] {
                let mut buf = tanh_inputs(offset, 11);
                buf.extend_from_slice(&xs);
                buf.extend(tanh_inputs(trailing, 12));
                tanh_inplace(&mut buf);
                assert_eq!(
                    bits_of(&buf[offset..offset + xs.len()]),
                    alone,
                    "offset {offset}, {trailing} trailing"
                );
            }
        }
    }

    #[test]
    fn tanh_of_a_matrix_is_tanh_inplace_of_its_buffer() {
        let a = Matrix::from_vec(5, 7, tanh_inputs(35, 9));
        let shared = a.to_shared();
        let mut want = a.as_slice().to_vec();
        tanh_inplace(&mut want);
        assert_eq!(bits_of(tanh(&a).as_slice()), bits_of(&want));
        assert_eq!(bits_of(tanh(&shared).as_slice()), bits_of(&want));
        assert_eq!(bits_of(shared.as_slice()), bits_of(a.as_slice()));
    }
}
