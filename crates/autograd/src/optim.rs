//! Optimizers: vanilla SGD and Adam.
//!
//! The paper's training recipe (Sec. III-C.3, IV-A.2) uses **Adam for the
//! pre-training stage** and **vanilla SGD for fine-tuning** ("to avoid the
//! problem of loss of momentum information"). Both optimizers here update
//! only the parameters touched by the current mini-batch (sparse updates),
//! which matches how embedding tables behave under negative sampling.

use crate::params::{Gradients, ParamStore};
use gb_tensor::Matrix;

/// Vanilla stochastic gradient descent with optional global-norm clipping.
#[derive(Clone, Copy, Debug)]
pub struct Sgd {
    /// Learning rate (the paper searches {10, 3, 1, 0.3} for fine-tuning).
    pub lr: f32,
    /// Global-norm clip applied before the update; 0 disables clipping.
    pub clip_norm: f32,
}

impl Sgd {
    /// SGD with the given learning rate and no clipping.
    pub fn new(lr: f32) -> Self {
        Self { lr, clip_norm: 0.0 }
    }

    /// Enables global-norm gradient clipping.
    pub fn with_clip_norm(mut self, clip: f32) -> Self {
        self.clip_norm = clip;
        self
    }

    /// Applies one descent step for all touched parameters.
    pub fn step(&self, store: &mut ParamStore, grads: &Gradients) {
        let scale = clip_scale(grads, self.clip_norm);
        for (id, g) in grads.iter() {
            let p = store.value_mut(id);
            for (w, &gv) in p.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *w -= self.lr * (gv * scale);
            }
        }
    }
}

/// Adam configuration; defaults follow Kingma & Ba \[29\].
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    /// Learning rate (the paper searches {1e-2, 1e-3, 1e-4, 1e-5}).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

impl AdamConfig {
    /// Config with the given learning rate and library defaults otherwise.
    pub fn with_lr(lr: f32) -> Self {
        Self {
            lr,
            ..Self::default()
        }
    }
}

/// Adam optimizer with lazily-allocated per-parameter moment state.
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
    /// Per-parameter step counts: bias correction must track how many times
    /// each (sparsely updated) parameter has actually been stepped.
    t: Vec<u64>,
}

impl Adam {
    /// Creates an optimizer for `store` with the given config.
    pub fn new(cfg: AdamConfig, store: &ParamStore) -> Self {
        Self {
            cfg,
            m: (0..store.len()).map(|_| None).collect(),
            v: (0..store.len()).map(|_| None).collect(),
            t: vec![0; store.len()],
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AdamConfig {
        &self.cfg
    }

    /// Applies one Adam step for all touched parameters.
    pub fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        for (id, g) in grads.iter() {
            let shape = g.shape();
            let m = self.m[id].get_or_insert_with(|| Matrix::zeros(shape.0, shape.1));
            let v = self.v[id].get_or_insert_with(|| Matrix::zeros(shape.0, shape.1));
            self.t[id] += 1;
            let t = self.t[id] as f32;
            let b1 = self.cfg.beta1;
            let b2 = self.cfg.beta2;
            let bias1 = 1.0 - b1.powf(t);
            let bias2 = 1.0 - b2.powf(t);
            let p = store.value_mut(id);
            for i in 0..p.len() {
                let grad = g.as_slice()[i];
                let mi = &mut m.as_mut_slice()[i];
                *mi = b1 * *mi + (1.0 - b1) * grad;
                let vi = &mut v.as_mut_slice()[i];
                *vi = b2 * *vi + (1.0 - b2) * grad * grad;
                let m_hat = *mi / bias1;
                let v_hat = *vi / bias2;
                p.as_mut_slice()[i] -= self.cfg.lr * m_hat / (v_hat.sqrt() + self.cfg.eps);
            }
        }
    }
}

/// Returns the multiplier that rescales gradients to `clip` global norm
/// (1.0 when clipping is disabled or the norm is within bounds).
fn clip_scale(grads: &Gradients, clip: f32) -> f32 {
    if clip <= 0.0 {
        return 1.0;
    }
    let norm = grads.global_norm();
    if norm > clip {
        clip / norm
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use crate::ParamStore;

    /// Minimizes f(w) = (w - 3)^2 and checks convergence.
    fn quadratic_descent(mut step: impl FnMut(&mut ParamStore, &Gradients, usize)) -> f32 {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 1, vec![0.0]));
        for i in 0..200 {
            let mut t = Tape::new();
            let wv = t.param(&store, w);
            let target = t.constant(Matrix::from_vec(1, 1, vec![3.0]));
            let diff = t.sub(wv, target);
            let loss = t.sum_sq(diff);
            let grads = t.backward(loss, &store);
            step(&mut store, &grads, i);
        }
        store.value(w).get(0, 0)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let sgd = Sgd::new(0.1);
        let w = quadratic_descent(|s, g, _| sgd.step(s, g));
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store_probe = ParamStore::new();
        store_probe.add("w", Matrix::zeros(1, 1));
        let mut adam = Adam::new(AdamConfig::with_lr(0.1), &store_probe);
        let w = quadratic_descent(|s, g, _| adam.step(s, g));
        assert!((w - 3.0).abs() < 0.05, "w = {w}");
    }

    #[test]
    fn clipping_caps_update_magnitude() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::zeros(1, 1));
        let sgd = Sgd::new(1.0).with_clip_norm(1.0);
        let mut grads = Gradients::empty(1);
        grads.accumulate(a, Matrix::full(1, 1, 100.0));
        sgd.step(&mut store, &grads);
        assert!(
            (store.value(a).get(0, 0) + 1.0).abs() < 1e-6,
            "clipped to norm 1"
        );
    }

    #[test]
    fn adam_bias_correction_first_step_magnitude() {
        // With bias correction the very first Adam step is ~lr regardless of
        // gradient scale.
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::zeros(1, 1));
        let mut adam = Adam::new(AdamConfig::with_lr(0.01), &store);
        let mut grads = Gradients::empty(1);
        grads.accumulate(a, Matrix::full(1, 1, 1e-3));
        adam.step(&mut store, &grads);
        let w = store.value(a).get(0, 0);
        assert!((w + 0.01).abs() < 1e-3, "first step ≈ -lr, got {w}");
    }
}
