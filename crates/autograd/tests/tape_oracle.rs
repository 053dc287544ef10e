//! Oracle for the tape's row-sparse reverse sweep: a random chain of the
//! propagation's ops (`segment_mean`, `concat_cols`, `dense` under every
//! activation, `add`, `scale` by either sign) is seeded two ways — through
//! `gather`s of its last table at ascending row sets, whose backward keeps
//! the cotangent listed at those rows, and directly at the table with the
//! same cotangents scattered into a full one — and every parameter
//! gradient must come out bit for bit the same.

use gb_autograd::{Activation, Gradients, ParamId, ParamStore, Tape, Var};
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
    /// segments and repeated members all turn up.
    fn csr(&mut self, segments: usize, src_rows: usize) -> (Arc<Vec<usize>>, Arc<Vec<u32>>) {
        let mut offsets = vec![0];
        let mut members = Vec::new();
        for _ in 0..segments {
            for _ in 0..self.below(5) {
                members.push(self.below(src_rows) as u32);
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

/// Records `n_ops` random ops over `n`-row tables on `tape`, drawing the
/// chain from `seed` (the same seed records the same chain on any tape).
fn record(tape: &mut Tape, store: &mut ParamStore, seed: u64, n: usize, n_ops: usize) -> Chain {
    let mut c = Choices(seed | 1);
    let mut params = Vec::new();
    let mut param = |tape: &mut Tape, store: &mut ParamStore, m: Matrix| {
        let id = store.add(format!("p{}", params.len()), m);
        params.push(id);
        tape.param(store, id)
    };
    let widths = [1, 3, 8, 9, 17];
    let w0 = c.pick(&widths);
    let mut nodes = vec![
        (param(tape, store, c.matrix(n, w0)), w0),
        (param(tape, store, c.matrix(n, w0)), w0),
    ];
    for _ in 0..n_ops {
        // Mostly extend the newest node, so the chain runs deep.
        let (x, wx) = if c.below(2) == 0 {
            nodes[nodes.len() - 1]
        } else {
            nodes[c.below(nodes.len())]
        };
        let (y, wy) = nodes[c.below(nodes.len())];
        let next = match c.below(6) {
            0 => {
                let (offsets, members) = c.csr(n, n);
                (tape.segment_mean(x, offsets, members), wx)
            }
            1 => (tape.concat_cols(&[x, y]), wx + wy),
            2 => {
                let wout = c.pick(&widths);
                let w = param(tape, store, c.matrix(wx, wout));
                let b = param(tape, store, c.matrix(1, wout));
                let act = c.pick(&[
                    Activation::Tanh,
                    Activation::Sigmoid,
                    Activation::LeakyRelu(0.2),
                ]);
                (tape.dense(x, w, b, act), wout)
            }
            3 if wx == wy => (tape.add(x, y), wx),
            3 => (tape.add(x, x), wx),
            4 => (tape.scale(x, c.pick(&ALPHAS)), wx),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn row_sparse_backward_equals_the_dense_backward_bitwise(
        seed in 0u64..u64::MAX,
        n in 1usize..=24,
        n_ops in 1usize..=8,
        n_gathers in 1usize..=3,
    ) {
        // Seeded through gathers of the table: row-listed cotangents.
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let chain = record(&mut tape, &mut store, seed, n, n_ops);
        let width = tape.value(chain.table).cols();
        let mut c = Choices(seed.rotate_left(17) | 1);
        let with_nan = c.below(4) == 0;
        let seeds: Vec<(Arc<Vec<u32>>, Matrix)> = (0..n_gathers)
            .map(|k| {
                let rows = c.ascending_rows(n);
                let mut g = Matrix::from_fn(rows.len(), width, |_, _| c.awkward());
                if with_nan && k == 0 && !rows.is_empty() {
                    g.row_mut(0).fill(f32::NAN);
                }
                (Arc::new(rows), g)
            })
            .collect();
        let gathered: Vec<(Var, Matrix)> = seeds
            .iter()
            .map(|(rows, g)| (tape.gather(chain.table, Arc::clone(rows)), g.clone()))
            .collect();
        let sparse = tape.backward_seeded(gathered, &store);

        // Seeded at the table with the same cotangents scattered in the
        // order the sweep meets the gathers: the last recorded first.
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let chain = record(&mut tape, &mut store, seed, n, n_ops);
        let mut full = Matrix::zeros(n, width);
        for (rows, g) in seeds.iter().rev() {
            kernels::scatter_add_rows(&mut full, rows, g);
        }
        let dense = tape.backward_seeded(vec![(chain.table, full)], &store);

        prop_assert_eq!(bits(&chain, &sparse), bits(&chain, &dense));
    }
}
