//! Named trainable parameters and their gradients.

use gb_tensor::Matrix;
use std::collections::HashMap;

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

    /// Returns true if any parameter contains NaN/Inf — used by training
    /// loops as a divergence tripwire.
    pub fn any_non_finite(&self) -> bool {
        self.values.iter().any(Matrix::has_non_finite)
    }
}

/// Per-parameter gradients produced by one backward pass.
///
/// Entries are `None` for parameters untouched by the mini-batch, which is
/// the common case for embedding tables under negative sampling; optimizers
/// skip them entirely (sparse update semantics, matching how the paper's
/// PyTorch implementation updates only embedding rows in the batch).
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
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
        self.grads.get(id).and_then(|g| g.as_ref())
    }

    /// Accumulates `g` into the slot for `id`.
    pub fn accumulate(&mut self, id: ParamId, g: Matrix) {
        match &mut self.grads[id] {
            Some(existing) => gb_tensor::kernels::add_assign(existing, &g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Fused gather backward: scatters the rows of `g` at `indices`
    /// straight into the `(rows x cols)` accumulator slot for `id`,
    /// allocating the zeroed table at most once per backward sweep
    /// instead of once per gather node.
    pub fn scatter_accumulate(
        &mut self,
        id: ParamId,
        rows: usize,
        cols: usize,
        indices: &[u32],
        g: &Matrix,
    ) {
        let acc = self.grads[id].get_or_insert_with(|| Matrix::zeros(rows, cols));
        gb_tensor::kernels::scatter_add_rows(acc, indices, g);
    }

    /// Merges `other` into `self` by accumulating every touched slot.
    ///
    /// Both sides must have been created for the same parameter count.
    /// Slots are visited in ascending `ParamId` order and element-wise
    /// addition is deterministic, so merging a fixed sequence of gradient
    /// sets always produces bit-identical results regardless of which
    /// thread computed each set — the invariant the sharded trainer's
    /// reduction relies on.
    pub fn merge(&mut self, other: Gradients) {
        assert_eq!(
            self.grads.len(),
            other.grads.len(),
            "gradient sets cover different parameter counts"
        );
        for (id, g) in other.grads.into_iter().enumerate() {
            if let Some(g) = g {
                self.accumulate(id, g);
            }
        }
    }

    /// Iterates `(id, grad)` pairs for parameters with gradients.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.grads
            .iter()
            .enumerate()
            .filter_map(|(id, g)| g.as_ref().map(|g| (id, g)))
    }

    /// Number of parameters with a gradient this step.
    pub fn touched(&self) -> usize {
        self.grads.iter().filter(|g| g.is_some()).count()
    }

    /// Global gradient norm over all touched parameters.
    pub fn global_norm(&self) -> f32 {
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
        let _ = (checkpoint::snapshot(&s), s.any_non_finite());
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

    #[test]
    fn non_finite_tripwire() {
        let mut s = ParamStore::new();
        let id = s.add("w", Matrix::zeros(1, 2));
        assert!(!s.any_non_finite());
        s.value_mut(id).set(0, 0, f32::INFINITY);
        assert!(s.any_non_finite());
    }
}
