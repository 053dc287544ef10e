//! Oracle for the tape's row-sparse reverse sweep: a random chain of the
//! propagation's ops (`segment_mean`, `concat_cols`, `dense`, `add`,
//! `scale` by either sign) is seeded two ways — through
//! `gather`s of its last table at ascending row sets, whose backward keeps
//! the cotangent listed at those rows, and directly at the table with the
//! same cotangents scattered into a full one — and every parameter
//! gradient must come out bit for bit the same.
//!
//! The same chains also run with their results written into column
//! windows of reserved tables — each op's own table, wider than its
//! result, or one table a segment mean and a sum fill side by side before
//! a concatenation that finds them in place — and must give the fresh
//! layout's values and gradients bit for bit.
//!
//! And they run with the tape's values released once the forward is
//! recorded ([`Tape::release_values`]), in either layout, from a leaf bound
//! as an `input`: values, parameter gradients and the input's cotangent
//! must be the unreleased tape's, bit for bit.

use gb_autograd::{Gradients, ParamId, ParamStore, Table, Tape, Var};
use gb_tensor::{kernels, Matrix};
use proptest::prelude::*;
use std::sync::Arc;

/// A deterministic stream of choices (xorshift64*), so one drawn seed
/// spells out a whole chain.
struct Choices(u64);

impl Choices {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }

    /// A finite value in `(-0.9, 0.9)`.
    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32 * 1.8 - 0.9
    }

    /// A cotangent element: signed zeros, subnormals and ordinary values.
    fn awkward(&mut self) -> f32 {
        match self.below(8) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::MIN_POSITIVE * self.unit(),
            _ => self.unit(),
        }
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.unit())
    }

    /// `segments` segments over `src_rows` rows: empty segments, one-member
    /// segments and repeated members all turn up. Members drawn from a
    /// narrow pool make segments share them, so a few listed segments
    /// reach few source rows; long segments over every row make a few
    /// reach more than half of them — the union of a row-listed
    /// cotangent's members falls on both sides of the half-height switch.
    fn csr(&mut self, segments: usize, src_rows: usize) -> (Arc<Vec<usize>>, Arc<Vec<u32>>) {
        let (pool, max_len) = match self.below(3) {
            0 => (1 + self.below(src_rows.min(3)), 5),
            1 => (src_rows, 5),
            _ => (src_rows, src_rows + 1),
        };
        let mut offsets = vec![0];
        let mut members = Vec::new();
        for _ in 0..segments {
            for _ in 0..self.below(max_len) {
                members.push(self.below(pool) as u32);
            }
            offsets.push(members.len());
        }
        (Arc::new(offsets), Arc::new(members))
    }

    /// Ascending rows of `0..n`: none, one, just under half, or all.
    fn ascending_rows(&mut self, n: usize) -> Vec<u32> {
        let take = match self.below(4) {
            0 => 0,
            1 => 1,
            2 => (n - 1) / 2,
            _ => n,
        };
        let mut rows: Vec<u32> = (0..n as u32).collect();
        while rows.len() > take {
            rows.remove(self.below(rows.len()));
        }
        rows
    }
}

/// Scale factors: both signs, and both zeros — `+0.0` keeps a cotangent
/// row-listed and turns its negative entries into `-0.0`.
const ALPHAS: [f32; 6] = [0.5, 1.25, 0.0, -0.5, -2.0, -0.0];

/// One recorded chain: its parameters and the final table's node.
struct Chain {
    params: Vec<ParamId>,
    table: Var,
}

/// Where a `w`-wide result goes when `windows` is on: a table reserved
/// for it, up to two columns wider, at a drawn column. Drawn either way,
/// so both layouts record the same chain from one seed.
fn dst(
    tape: &mut Tape,
    c: &mut Choices,
    windows: bool,
    n: usize,
    w: usize,
) -> Option<(Table, usize)> {
    let pad = c.below(3);
    let col = c.below(pad + 1);
    windows.then(|| (tape.reserve(n, w + pad), col))
}

/// Records `n_ops` random ops over `n`-row tables on `tape`, drawing the
/// chain from `seed` (the same seed records the same chain on any tape,
/// with or without `windows`). With `input`, the second leaf is an
/// [`Tape::input`] of the same value instead of a parameter, wherever
/// `windows` would have put it.
fn record(
    tape: &mut Tape,
    store: &mut ParamStore,
    seed: u64,
    n: usize,
    n_ops: usize,
    windows: bool,
    input: bool,
) -> Chain {
    let mut c = Choices(seed | 1);
    let mut params = Vec::new();
    let mut param = |tape: &mut Tape, store: &mut ParamStore, m: Matrix, at| {
        let id = store.add(format!("p{}", params.len()), m);
        params.push(id);
        tape.param_into(store, id, at)
    };
    let widths = [1, 3, 8, 9, 17];
    let w0 = c.pick(&widths);
    let mut nodes = Vec::new();
    for leaf in 0..2 {
        let m = c.matrix(n, w0);
        let at = dst(tape, &mut c, windows, n, w0);
        let node = if input && leaf == 1 {
            tape.input(Arc::new(m))
        } else {
            param(tape, store, m, at)
        };
        nodes.push((node, w0));
    }
    for _ in 0..n_ops {
        // Mostly extend the newest node, so the chain runs deep.
        let (x, wx) = if c.below(2) == 0 {
            nodes[nodes.len() - 1]
        } else {
            nodes[c.below(nodes.len())]
        };
        let (y, wy) = nodes[c.below(nodes.len())];
        let next = match c.below(8) {
            0 => {
                let (offsets, members) = c.csr(n, n);
                let at = dst(tape, &mut c, windows, n, wx);
                (tape.segment_mean_into(x, offsets, members, at), wx)
            }
            1 => {
                let at = dst(tape, &mut c, windows, n, wx + wy);
                (tape.concat_cols_into(&[x, y], at), wx + wy)
            }
            2 => {
                let wout = c.pick(&widths);
                let w = param(tape, store, c.matrix(wx, wout), None);
                let b = param(tape, store, c.matrix(1, wout), None);
                (tape.dense(x, w, b), wout)
            }
            3 => {
                let y = if wx == wy { y } else { x };
                let at = dst(tape, &mut c, windows, n, wx);
                (tape.add_into(x, y, at), wx)
            }
            4 => (tape.scale(x, c.pick(&ALPHAS)), wx),
            5 => {
                // A mean and a sum side by side in one table, and the
                // concatenation that finds both in place.
                let (offsets, members) = c.csr(n, n);
                let at = dst(tape, &mut c, windows, n, 2 * wx);
                let mean = tape.segment_mean_into(x, offsets, members, at);
                let sum = tape.add_into(x, x, at.map(|(t, col)| (t, col + wx)));
                (tape.concat_cols_into(&[mean, sum], at), 2 * wx)
            }
            6 => {
                // A mean in place beside a part the concatenation copies.
                let (offsets, members) = c.csr(n, n);
                let at = dst(tape, &mut c, windows, n, wx + wy);
                let mean = tape.segment_mean_into(x, offsets, members, at);
                (tape.concat_cols_into(&[mean, y], at), wx + wy)
            }
            _ => {
                // A residual neighbour mean: `x` reaches two consumers
                // whose cotangents list different rows.
                let (offsets, members) = c.csr(n, n);
                let mean = tape.segment_mean(x, offsets, members);
                let own = tape.scale(x, c.pick(&ALPHAS));
                (tape.add(mean, own), wx)
            }
        };
        nodes.push(next);
    }
    let table = nodes.last().expect("two leaves at least").0;
    Chain { params, table }
}

/// Every parameter's gradient bits, any NaN read as one value (which
/// operand's payload an x86 NaN carries depends on operand order).
fn bits(chain: &Chain, grads: &Gradients) -> Vec<Option<Vec<u32>>> {
    chain
        .params
        .iter()
        .map(|&p| {
            grads.get(p).map(|m| {
                m.as_slice()
                    .iter()
                    .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
                    .collect()
            })
        })
        .collect()
}

/// `n_gathers` cotangents for ascending row sets of an `n x width` table,
/// the first a row of NaN one time in four.
fn gather_seeds(
    seed: u64,
    n: usize,
    width: usize,
    n_gathers: usize,
) -> Vec<(Arc<Vec<u32>>, Matrix)> {
    let mut c = Choices(seed.rotate_left(17) | 1);
    let with_nan = c.below(4) == 0;
    (0..n_gathers)
        .map(|k| {
            let rows = c.ascending_rows(n);
            let mut g = Matrix::from_fn(rows.len(), width, |_, _| c.awkward());
            if with_nan && k == 0 && !rows.is_empty() {
                g.row_mut(0).fill(f32::NAN);
            }
            (Arc::new(rows), g)
        })
        .collect()
}

/// The chain's table value bits and its parameters' gradients, seeded
/// through gathers of the table at `seeds`' rows.
fn gathered_backward(
    seed: u64,
    n: usize,
    n_ops: usize,
    windows: bool,
    seeds: impl FnOnce(usize) -> Vec<(Arc<Vec<u32>>, Matrix)>,
) -> (Vec<u32>, Vec<Option<Vec<u32>>>) {
    let mut store = ParamStore::new();
    let mut tape = Tape::new();
    let chain = record(&mut tape, &mut store, seed, n, n_ops, windows, false);
    let value: Vec<u32> = tape
        .value(chain.table)
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let gathered: Vec<(Var, Matrix)> = seeds(tape.value(chain.table).cols())
        .into_iter()
        .map(|(rows, g)| (tape.gather(chain.table, rows), g))
        .collect();
    let grads = tape.backward_seeded(gathered, &store);
    (value, bits(&chain, &grads))
}

/// NaN-blind bits of a table.
fn table_bits(m: &Matrix) -> Vec<u32> {
    m.as_slice()
        .iter()
        .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
        .collect()
}

/// A chain's value bits (the table's, then the loss's), its parameters'
/// gradient bits and its input's cotangent bits.
type ChainBits = (Vec<u32>, Vec<Option<Vec<u32>>>, Option<Vec<u32>>);

/// Everything a chain with an input leaf gives — its table's value bits,
/// its parameters' gradients and the input's cotangent — under the loss
/// `Σ_k sum(gather(table, rows_k) ⊙ g_k)`, whose cotangent at the `k`-th
/// gather is exactly `g_k`: the same row-listed cotangents
/// [`gathered_backward`] seeds. With `release`, the tape lets go of its
/// values once the loss is recorded and read.
fn released_or_kept(
    seed: u64,
    n: usize,
    n_ops: usize,
    windows: bool,
    n_gathers: usize,
    release: bool,
) -> ChainBits {
    let mut store = ParamStore::new();
    let mut tape = Tape::new();
    let chain = record(&mut tape, &mut store, seed, n, n_ops, windows, true);
    let value = table_bits(tape.value(chain.table));
    let width = tape.value(chain.table).cols();
    let mut loss = None;
    for (rows, g) in gather_seeds(seed, n, width, n_gathers) {
        let picked = tape.gather(chain.table, rows);
        // A forward value must be finite: the NaN row becomes ones.
        let g = tape.constant(g.map(|v| if v.is_nan() { 1.0 } else { v }));
        let weighted = tape.mul(picked, g);
        let term = tape.sum_all(weighted);
        loss = Some(match loss {
            Some(acc) => tape.add(acc, term),
            None => term,
        });
    }
    let loss = loss.expect("at least one gather");
    let loss_bits = table_bits(tape.value(loss));
    if release {
        tape.release_values();
    }
    let (grads, inputs) = tape.backward_with_inputs(loss, &store);
    let input = inputs[0].as_ref().map(table_bits);
    let mut value = value;
    value.extend(loss_bits);
    (value, bits(&chain, &grads), input)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn a_released_tape_gives_the_kept_tape_bitwise(
        seed in 0u64..u64::MAX,
        n in 1usize..=24,
        n_ops in 1usize..=8,
        n_gathers in 1usize..=3,
        layout in 0u32..2,
    ) {
        let windows = layout == 1;
        let kept = released_or_kept(seed, n, n_ops, windows, n_gathers, false);
        let released = released_or_kept(seed, n, n_ops, windows, n_gathers, true);
        prop_assert_eq!(released, kept);
    }

    #[test]
    fn row_sparse_backward_equals_the_dense_backward_bitwise(
        seed in 0u64..u64::MAX,
        n in 1usize..=24,
        n_ops in 1usize..=8,
        n_gathers in 1usize..=3,
    ) {
        // Seeded through gathers of the table: row-listed cotangents.
        let mut kept = Vec::new();
        let (_, sparse) = gathered_backward(seed, n, n_ops, false, |width| {
            kept = gather_seeds(seed, n, width, n_gathers);
            kept.clone()
        });

        // Seeded at the table with the same cotangents scattered in the
        // order the sweep meets the gathers: the last recorded first.
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let chain = record(&mut tape, &mut store, seed, n, n_ops, false, false);
        let mut full = Matrix::zeros(n, tape.value(chain.table).cols());
        for (rows, g) in kept.iter().rev() {
            kernels::scatter_add_rows(&mut full, rows, g);
        }
        let dense = tape.backward_seeded(vec![(chain.table, full)], &store);

        prop_assert_eq!(sparse, bits(&chain, &dense));
    }

    #[test]
    fn a_chain_written_into_reserved_tables_equals_the_fresh_chain_bitwise(
        seed in 0u64..u64::MAX,
        n in 1usize..=24,
        n_ops in 1usize..=8,
        n_gathers in 1usize..=3,
    ) {
        let seeds = |width| gather_seeds(seed, n, width, n_gathers);
        let fresh = gathered_backward(seed, n, n_ops, false, seeds);
        let windowed = gathered_backward(seed, n, n_ops, true, seeds);
        prop_assert_eq!(windowed, fresh);
    }
}
