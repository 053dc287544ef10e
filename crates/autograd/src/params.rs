//! Named trainable parameters and their gradients.

use crate::listed::{self, merge_rows, Merge, Merged, Side, Window};
use gb_tensor::Matrix;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Stable handle for a parameter inside a [`ParamStore`].
pub type ParamId = usize;

/// A collection of named trainable parameters.
///
/// Every model in the reproduction (GBGCN and all baselines) keeps its
/// embedding tables and FC weights here; the [`crate::Tape`] reads values
/// during the forward pass and the optimizers apply updates after
/// [`crate::Tape::backward`] has produced a [`Gradients`].
#[derive(Default)]
pub struct ParamStore {
    values: Vec<Matrix>,
    names: Vec<String>,
    by_name: HashMap<String, ParamId>,
    /// See [`ParamStore::generation`].
    generation: u64,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter under `name` and returns its id.
    ///
    /// # Panics
    /// Panics if `name` is already registered — parameter names identify
    /// checkpoints, so silent replacement would corrupt save/load.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "parameter `{name}` registered twice"
        );
        let id = self.values.len();
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        self.values.push(value);
        self.generation += 1;
        id
    }

    /// Counts the calls that could have changed a value: [`ParamStore::add`]
    /// and [`ParamStore::value_mut`] — the only two ways in, so optimizer
    /// steps, [`crate::checkpoint::restore`] and
    /// [`crate::checkpoint::load_json`] all move it. Equal generations of
    /// one store mean bit-identical parameters, which is what lets a
    /// computation recorded from them be reused instead of re-run.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Value of parameter `id`.
    #[inline]
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id]
    }

    /// Mutable value of parameter `id` (used by optimizers and pre-training
    /// normalization). Advances [`ParamStore::generation`], whether or not
    /// the caller then writes.
    #[inline]
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        self.generation += 1;
        &mut self.values[id]
    }

    /// Name of parameter `id`.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id]
    }

    /// Looks up a parameter id by name.
    pub fn id(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied()
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar weights (for model-size reporting).
    pub fn scalar_count(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    /// Iterates `(id, name, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Matrix)> {
        self.values
            .iter()
            .enumerate()
            .map(|(id, v)| (id, self.names[id].as_str(), v))
    }
}

/// Per-parameter gradients produced by one backward pass.
///
/// Entries are `None` for parameters untouched by the mini-batch, which is
/// the common case for embedding tables under negative sampling; optimizers
/// skip them entirely (sparse update semantics, matching how the paper's
/// PyTorch implementation updates only embedding rows in the batch).
///
/// A gradient built only by scatters at strictly ascending rows (an
/// embedding gathered at a mini-batch's sorted ids) keeps just those rows
/// while they are fewer than half of the table, so a shard's gradient is
/// `O(batch)`, not a function of the table height. [`Gradients::merge`]
/// adds such a gradient into a full table row by row; a read through
/// [`Gradients::get`] or [`Gradients::iter`] makes the full table once.
/// Either way every bit is what the full table gives.
pub struct Gradients {
    grads: Vec<Option<Grad>>,
}

/// One parameter's gradient.
enum Grad {
    Full(Matrix),
    /// Rows `rows` — ascending, distinct, fewer than half of `height` — of
    /// the `height`-row table whose every other row is `+0.0`, and that
    /// table itself once someone has read it.
    Listed {
        height: usize,
        rows: Vec<u32>,
        m: Matrix,
        full: OnceLock<Matrix>,
    },
}

impl Grad {
    fn from_merged(height: usize, merged: Merged) -> Self {
        match merged {
            Merged::Full(m) => Grad::Full(m),
            Merged::Listed(rows, m) => Grad::Listed {
                height,
                rows,
                m,
                full: OnceLock::new(),
            },
        }
    }

    fn as_full(&self) -> &Matrix {
        match self {
            Grad::Full(m) => m,
            Grad::Listed {
                height,
                rows,
                m,
                full,
            } => full.get_or_init(|| listed::to_full(*height, rows, Window::whole(m))),
        }
    }

    fn into_full(self) -> Matrix {
        match self {
            Grad::Full(m) => m,
            Grad::Listed {
                height,
                rows,
                m,
                full,
            } => full
                .into_inner()
                .unwrap_or_else(|| listed::to_full(height, &rows, Window::whole(&m))),
        }
    }
}

impl Gradients {
    /// Creates an all-`None` gradient set for `n_params` parameters.
    pub fn empty(n_params: usize) -> Self {
        Self {
            grads: (0..n_params).map(|_| None).collect(),
        }
    }

    /// Gradient for `id`, if that parameter participated in the loss.
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        self.grads
            .get(id)
            .and_then(|g| g.as_ref())
            .map(Grad::as_full)
    }

    /// Accumulates `g` into the slot for `id`.
    pub fn accumulate(&mut self, id: ParamId, g: Matrix) {
        let slot = &mut self.grads[id];
        *slot = Some(Grad::Full(match slot.take() {
            Some(existing) => {
                let mut existing = existing.into_full();
                gb_tensor::kernels::add_assign(&mut existing, &g);
                existing
            }
            None => g,
        }));
    }

    /// Fused gather backward: scatters the rows of `g` at `indices`
    /// straight into the `(rows x cols)` accumulator slot for `id`,
    /// allocating the zeroed table at most once per backward sweep
    /// instead of once per gather node — and not at all while every
    /// scatter into the slot lists strictly ascending rows, which are
    /// kept as rows (see [`Gradients`]).
    pub(crate) fn scatter_accumulate(
        &mut self,
        id: ParamId,
        rows: usize,
        cols: usize,
        indices: &[u32],
        g: &Matrix,
    ) {
        let ascending = indices.windows(2).all(|w| w[0] < w[1]);
        let new = (indices, Window::whole(g));
        let slot = &mut self.grads[id];
        *slot = Some(match slot.take() {
            None if ascending => {
                let none = Matrix::zeros(0, cols);
                let merged = merge_rows(rows, (&[], Window::whole(&none)), new, Merge::Scatter);
                Grad::from_merged(rows, merged)
            }
            Some(Grad::Listed { rows: have, m, .. }) if ascending => {
                let merged = merge_rows(rows, (&have, Window::whole(&m)), new, Merge::Scatter);
                Grad::from_merged(rows, merged)
            }
            existing => {
                let mut acc = existing.map_or_else(|| Matrix::zeros(rows, cols), Grad::into_full);
                gb_tensor::kernels::scatter_add_rows(&mut acc, indices, g);
                Grad::Full(acc)
            }
        });
    }

    /// Merges `other` into `self` by accumulating every touched slot.
    ///
    /// Both sides must have been created for the same parameter count.
    /// Slots are visited in ascending `ParamId` order and element-wise
    /// addition is deterministic, so merging a fixed sequence of gradient
    /// sets always produces bit-identical results regardless of which
    /// thread computed each set — the invariant the sharded trainer's
    /// reduction relies on. A slot of `self` comes out a full table: a
    /// row-listed gradient merged into an empty slot is made full there,
    /// and one merged into a full table adds its rows in place — the
    /// `+0.0` it stands for elsewhere changes no bit of a table that is
    /// itself never `-0.0`, and turns a `-0.0` into `+0.0` exactly as the
    /// full sum does.
    pub fn merge(&mut self, other: Gradients) {
        assert_eq!(
            self.grads.len(),
            other.grads.len(),
            "gradient sets cover different parameter counts"
        );
        for (slot, g) in self.grads.iter_mut().zip(other.grads) {
            let Some(g) = g else { continue };
            *slot = Some(Grad::Full(match (slot.take(), g) {
                (None, g) => g.into_full(),
                (Some(existing), Grad::Full(g)) => {
                    let mut existing = existing.into_full();
                    gb_tensor::kernels::add_assign(&mut existing, &g);
                    existing
                }
                (Some(existing), Grad::Listed { rows, m, .. }) => {
                    let mut existing = existing.into_full();
                    listed::add_listed_rows(&mut existing, &rows, Window::whole(&m), Side::Second);
                    existing
                }
            }));
        }
    }

    /// Iterates `(id, grad)` pairs for parameters with gradients.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.grads
            .iter()
            .enumerate()
            .filter_map(|(id, g)| g.as_ref().map(|g| (id, g.as_full())))
    }

    /// Number of parameters with a gradient this step.
    pub fn touched(&self) -> usize {
        self.grads.iter().filter(|g| g.is_some()).count()
    }

    /// Global gradient norm over all touched parameters.
    pub(crate) fn global_norm(&self) -> f32 {
        self.iter().map(|(_, g)| g.sq_norm()).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut s = ParamStore::new();
        let a = s.add("emb.user", Matrix::zeros(4, 2));
        let b = s.add("emb.item", Matrix::zeros(3, 2));
        assert_eq!(s.id("emb.user"), Some(a));
        assert_eq!(s.id("emb.item"), Some(b));
        assert_eq!(s.id("missing"), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.scalar_count(), 14);
        assert_eq!(s.name(a), "emb.user");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_name_panics() {
        let mut s = ParamStore::new();
        s.add("w", Matrix::zeros(1, 1));
        s.add("w", Matrix::zeros(1, 1));
    }

    #[test]
    fn gradients_accumulate() {
        let mut g = Gradients::empty(2);
        assert_eq!(g.touched(), 0);
        g.accumulate(1, Matrix::full(2, 2, 1.0));
        g.accumulate(1, Matrix::full(2, 2, 0.5));
        assert_eq!(g.touched(), 1);
        assert!(g.get(0).is_none());
        assert_eq!(g.get(1).unwrap().as_slice(), &[1.5, 1.5, 1.5, 1.5]);
    }

    #[test]
    fn a_row_listed_gradient_is_the_full_table_bitwise() {
        use gb_tensor::kernels::{add_assign, scatter_add_rows};
        let (height, cols) = (10, 3);
        let signed = |rows: usize, seed: f32| {
            Matrix::from_fn(rows, cols, |r, c| match (r + c) % 3 {
                0 => -0.0,
                _ => seed - r as f32 + 0.25 * c as f32,
            })
        };
        let scatters: [(&[u32], Matrix); 2] =
            [(&[1, 4], signed(2, 0.5)), (&[4, 7], signed(2, -1.5))];
        let listed = || {
            let mut g = Gradients::empty(1);
            for (rows, m) in &scatters {
                g.scatter_accumulate(0, height, cols, rows, m);
            }
            assert!(matches!(g.grads[0], Some(Grad::Listed { .. })));
            g
        };
        let mut full = Matrix::zeros(height, cols);
        for (rows, m) in &scatters {
            scatter_add_rows(&mut full, rows, m);
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(listed().get(0).unwrap()), bits(&full), "read");

        // Merged into an empty slot, and into a full table holding `-0.0`s.
        let mut into_empty = Gradients::empty(1);
        into_empty.merge(listed());
        assert_eq!(bits(into_empty.get(0).unwrap()), bits(&full), "into empty");
        let base = signed(height, 2.0);
        let mut into_full = Gradients::empty(1);
        into_full.accumulate(0, base.clone());
        into_full.merge(listed());
        let mut want = base;
        add_assign(&mut want, &full);
        assert_eq!(bits(into_full.get(0).unwrap()), bits(&want), "into full");
    }

    #[test]
    fn generation_moves_with_every_mutation_path_and_no_read() {
        use crate::{checkpoint, Adam, AdamConfig, Sgd};
        let mut s = ParamStore::new();
        assert_eq!(s.generation(), 0);
        let a = s.add("a", Matrix::full(2, 2, 1.0));
        let b = s.add("b", Matrix::full(1, 2, 1.0));
        let mut last = s.generation();
        assert_eq!(last, 2, "one per `add`");

        // Reads leave it alone.
        let _ = (s.value(a), s.iter().count(), s.id("b"), s.scalar_count());
        let _ = checkpoint::snapshot(&s);
        let mut json = Vec::new();
        checkpoint::save_json(&s, &mut json).unwrap();
        assert_eq!(s.generation(), last);

        let mut grads = Gradients::empty(s.len());
        grads.accumulate(b, Matrix::full(1, 2, 0.5));
        let snap = checkpoint::snapshot(&s);
        let mut adam = Adam::new(AdamConfig::with_lr(0.1), &s);
        type Mutation<'a> = Box<dyn FnMut(&mut ParamStore) + 'a>;
        let mutations: Vec<(&str, Mutation)> = vec![
            ("value_mut", Box::new(|s| s.value_mut(a).fill(3.0))),
            (
                "value_mut without a write",
                Box::new(|s| {
                    let _ = s.value_mut(a);
                }),
            ),
            ("an SGD step", Box::new(|s| Sgd::new(0.1).step(s, &grads))),
            ("an Adam step", Box::new(|s| adam.step(s, &grads))),
            (
                "checkpoint::restore",
                Box::new(|s| checkpoint::restore(s, &snap)),
            ),
            (
                "checkpoint::load_json",
                Box::new(|s| {
                    checkpoint::load_json(s, json.as_slice()).unwrap();
                }),
            ),
            (
                "add",
                Box::new(|s| {
                    s.add("c", Matrix::zeros(1, 1));
                }),
            ),
        ];
        for (what, mut mutate) in mutations {
            mutate(&mut s);
            assert!(s.generation() > last, "{what} must advance the generation");
            last = s.generation();
        }
    }
}
