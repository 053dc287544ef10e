//! Finite-difference gradient verification.
//!
//! Every differentiable op on the tape is validated against central
//! finite differences. This is the correctness backbone of the training
//! substrate: if these checks pass for composite graphs (propagation +
//! FC + loss), the GBGCN gradients are trustworthy.

use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};

/// Result of a single finite-difference comparison.
#[derive(Debug)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric gradients.
    pub max_abs_err: f32,
    /// Largest relative difference (guarded against tiny denominators).
    pub max_rel_err: f32,
    /// Number of scalar entries compared.
    pub checked: usize,
}

/// Compares analytic gradients of `param` against central finite
/// differences of the scalar loss built by `build`.
///
/// `build` must construct the loss node from the current store contents —
/// it is invoked `2 * param.len() + 1` times.
pub(crate) fn check_param_grad(
    store: &mut ParamStore,
    param: ParamId,
    eps: f32,
    build: impl Fn(&ParamStore, &mut Tape) -> Var,
) -> GradCheckReport {
    // Analytic gradient at the current point.
    let mut tape = Tape::new();
    let loss = build(store, &mut tape);
    let grads = tape.backward(loss, store);
    let analytic = grads
        .get(param)
        .map(|g| g.as_slice().to_vec())
        .unwrap_or_else(|| vec![0.0; store.value(param).len()]);

    let n = store.value(param).len();
    let mut max_abs_err = 0.0f32;
    let mut max_rel_err = 0.0f32;
    // An index loop is required: each step mutably perturbs `store` while
    // `analytic[i]` is read, so iterating `analytic` would hold a borrow.
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        let orig = store.value(param).as_slice()[i];

        store.value_mut(param).as_mut_slice()[i] = orig + eps;
        let mut tp = Tape::new();
        let lp = build(store, &mut tp);
        let f_plus = tp.value(lp).get(0, 0);

        store.value_mut(param).as_mut_slice()[i] = orig - eps;
        let mut tm = Tape::new();
        let lm = build(store, &mut tm);
        let f_minus = tm.value(lm).get(0, 0);

        store.value_mut(param).as_mut_slice()[i] = orig;

        let numeric = (f_plus - f_minus) / (2.0 * eps);
        let abs_err = (analytic[i] - numeric).abs();
        let denom = analytic[i].abs().max(numeric.abs()).max(1e-4);
        max_abs_err = max_abs_err.max(abs_err);
        max_rel_err = max_rel_err.max(abs_err / denom);
    }
    GradCheckReport {
        max_abs_err,
        max_rel_err,
        checked: n,
    }
}

/// Asserts that the gradient check passes within `tol` relative error.
///
/// Intended for use in `#[test]`s:
///
/// ```
/// use gb_autograd::{gradcheck, ParamStore};
/// use gb_tensor::Matrix;
///
/// let mut store = ParamStore::new();
/// let w = store.add("w", Matrix::from_vec(2, 2, vec![0.3, -0.1, 0.5, 0.2]));
/// gradcheck::assert_grads_match(&mut store, w, 1e-2, |s, t| {
///     let wv = t.param(s, w);
///     let sig = t.sigmoid(wv);
///     t.sum_all(sig)
/// });
/// ```
pub fn assert_grads_match(
    store: &mut ParamStore,
    param: ParamId,
    tol: f32,
    build: impl Fn(&ParamStore, &mut Tape) -> Var,
) {
    let report = check_param_grad(store, param, 1e-2, build);
    assert!(
        report.max_rel_err < tol,
        "gradient mismatch for param {}: max_rel_err = {}, max_abs_err = {} over {} entries",
        param,
        report.max_rel_err,
        report.max_abs_err,
        report.checked
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_tensor::Matrix;
    use std::sync::Arc;

    fn seeded(rows: usize, cols: usize, seed: f32) -> Matrix {
        // Deterministic non-degenerate values in roughly [-0.6, 0.6].
        Matrix::from_fn(rows, cols, |r, c| {
            let x = seed + 0.7 * r as f32 + 0.31 * c as f32;
            (x.sin()) * 0.6
        })
    }

    #[test]
    fn gradcheck_matmul() {
        let mut store = ParamStore::new();
        let a = store.add("a", seeded(3, 4, 0.1));
        let b = store.add("b", seeded(4, 2, 0.9));
        for p in [a, b] {
            assert_grads_match(&mut store, p, 2e-2, |s, t| {
                let av = t.param(s, a);
                let bv = t.param(s, b);
                let c = t.matmul(av, bv);
                let sg = t.sigmoid(c);
                t.sum_all(sg)
            });
        }
    }

    #[test]
    fn gradcheck_add_bias_and_tanh() {
        let mut store = ParamStore::new();
        let x = store.add("x", seeded(4, 3, 0.2));
        let bias = store.add("bias", seeded(1, 3, 1.3));
        for p in [x, bias] {
            assert_grads_match(&mut store, p, 2e-2, |s, t| {
                let xv = t.param(s, x);
                let bv = t.param(s, bias);
                let y = t.add_bias(xv, bv);
                let a = t.tanh(y);
                t.sum_sq(a)
            });
        }
    }

    #[test]
    fn gradcheck_dense() {
        let mut store = ParamStore::new();
        let x = store.add("x", seeded(6, 3, 0.2));
        let w = store.add("w", seeded(3, 4, 0.7));
        let bias = store.add("bias", seeded(1, 4, 1.3));
        for p in [x, w, bias] {
            // Two of six rows read: the cotangent's other four rows are
            // zero, so the backward takes its compact path.
            assert_grads_match(&mut store, p, 2e-2, |s, t| {
                let (xv, wv, bv) = (t.param(s, x), t.param(s, w), t.param(s, bias));
                let y = t.dense(xv, wv, bv);
                let picked = t.gather(y, Arc::new(vec![4, 1, 4]));
                t.sum_sq(picked)
            });
        }
    }

    #[test]
    fn gradcheck_gather_and_segment_mean() {
        let mut store = ParamStore::new();
        let emb = store.add("emb", seeded(5, 3, 0.4));
        let offsets = Arc::new(vec![0usize, 2, 2, 5]);
        let members = Arc::new(vec![0u32, 3, 1, 2, 4]);
        assert_grads_match(&mut store, emb, 2e-2, move |s, t| {
            let e = t.param(s, emb);
            let agg = t.segment_mean(e, offsets.clone(), members.clone());
            let g = t.gather(agg, Arc::new(vec![0, 2, 2]));
            let sg = t.sigmoid(g);
            t.mean_all(sg)
        });
    }

    #[test]
    fn gradcheck_gather_param() {
        let mut store = ParamStore::new();
        let emb = store.add("emb", seeded(6, 2, 0.8));
        assert_grads_match(&mut store, emb, 2e-2, |s, t| {
            let g = t.gather_param(s, emb, Arc::new(vec![5, 0, 0, 2]));
            let sq = t.sum_sq(g);
            t.scale(sq, 0.5)
        });
    }

    #[test]
    fn gradcheck_rowwise_dot_logsigmoid() {
        // The exact BPR shape used by every model's loss.
        let mut store = ParamStore::new();
        let u = store.add("u", seeded(4, 3, 0.15));
        let vpos = store.add("vpos", seeded(4, 3, 0.55));
        let vneg = store.add("vneg", seeded(4, 3, 0.95));
        for p in [u, vpos, vneg] {
            assert_grads_match(&mut store, p, 2e-2, |s, t| {
                let uv = t.param(s, u);
                let pv = t.param(s, vpos);
                let nv = t.param(s, vneg);
                let pos = t.rowwise_dot(uv, pv);
                let neg = t.rowwise_dot(uv, nv);
                let diff = t.sub(pos, neg);
                let ls = t.log_sigmoid(diff);
                let m = t.mean_all(ls);
                t.scale(m, -1.0)
            });
        }
    }

    #[test]
    fn gradcheck_gather_dot() {
        // Eq. 9's shape: a user table and an item table met through
        // aligned index lists with repeats, then the table dotted with
        // itself.
        let mut store = ParamStore::new();
        let u = store.add("u", seeded(4, 3, 0.15));
        let v = store.add("v", seeded(5, 3, 0.55));
        for p in [u, v] {
            assert_grads_match(&mut store, p, 2e-2, |s, t| {
                let uv = t.param(s, u);
                let vv = t.param(s, v);
                let users = Arc::new(vec![3u32, 0, 3, 1]);
                let pos = t.gather_dot(uv, users.clone(), vv, Arc::new(vec![4, 4, 0, 2]));
                let neg = t.gather_dot(uv, users, vv, Arc::new(vec![1, 3, 1, 0]));
                let own = t.gather_dot(vv, Arc::new(vec![0, 2]), vv, Arc::new(vec![2, 2]));
                let diff = t.sub(pos, neg);
                let ls = t.log_sigmoid(diff);
                let bpr = t.mean_all(ls);
                let reg = t.sum_all(own);
                let reg = t.scale(reg, 0.1);
                t.sub(reg, bpr)
            });
        }
    }

    #[test]
    fn gradcheck_concat_and_leaky_relu() {
        let mut store = ParamStore::new();
        let a = store.add("a", seeded(3, 2, 0.3));
        let b = store.add("b", seeded(3, 4, 0.6));
        for p in [a, b] {
            assert_grads_match(&mut store, p, 2e-2, |s, t| {
                let av = t.param(s, a);
                let bv = t.param(s, b);
                let cat = t.concat_cols(&[av, bv]);
                let act = t.leaky_relu(cat, 0.2);
                t.sum_sq(act)
            });
        }
    }

    #[test]
    fn gradcheck_mul_and_mean_rows() {
        let mut store = ParamStore::new();
        let a = store.add("a", seeded(4, 3, 0.25));
        let b = store.add("b", seeded(4, 3, 0.75));
        for p in [a, b] {
            assert_grads_match(&mut store, p, 2e-2, |s, t| {
                let av = t.param(s, a);
                let bv = t.param(s, b);
                let m = t.mul(av, bv);
                let mr = t.mean_rows(m);
                let sg = t.sigmoid(mr);
                t.sum_all(sg)
            });
        }
    }

    #[test]
    fn gradcheck_scale_rows_gate() {
        // The AGREE/SIGR gating shape: gate = σ(u·v), out = gate * u.
        let mut store = ParamStore::new();
        let u = store.add("u", seeded(4, 3, 0.2));
        let v = store.add("v", seeded(4, 3, 0.9));
        for p in [u, v] {
            assert_grads_match(&mut store, p, 2e-2, |s, t| {
                let uv = t.param(s, u);
                let vv = t.param(s, v);
                let dot = t.rowwise_dot(uv, vv);
                let gate = t.sigmoid(dot);
                let gated = t.scale_rows(uv, gate);
                t.sum_sq(gated)
            });
        }
    }

    #[test]
    fn gradcheck_add_scale_sum_all() {
        let mut store = ParamStore::new();
        let a = store.add("a", seeded(3, 3, 0.11));
        let b = store.add("b", seeded(3, 3, 0.81));
        for p in [a, b] {
            assert_grads_match(&mut store, p, 2e-2, |s, t| {
                let av = t.param(s, a);
                let bv = t.param(s, b);
                let y = t.add(av, bv);
                let y = t.scale(y, 1.7);
                t.sum_all(y)
            });
        }
    }

    #[test]
    fn gradcheck_sub_mean_all() {
        let mut store = ParamStore::new();
        let a = store.add("a", seeded(4, 2, 0.33));
        let b = store.add("b", seeded(4, 2, 0.66));
        for p in [a, b] {
            assert_grads_match(&mut store, p, 2e-2, |s, t| {
                let av = t.param(s, a);
                let bv = t.param(s, b);
                let d = t.sub(av, bv);
                let sq = t.mul(d, d);
                t.mean_all(sq)
            });
        }
    }

    #[test]
    fn gradcheck_sigmoid_standalone() {
        let mut store = ParamStore::new();
        let w = store.add("w", seeded(3, 4, 0.5));
        assert_grads_match(&mut store, w, 2e-2, |s, t| {
            let wv = t.param(s, w);
            let sg = t.sigmoid(wv);
            t.sum_all(sg)
        });
    }

    #[test]
    fn gradcheck_tanh_standalone() {
        let mut store = ParamStore::new();
        let w = store.add("w", seeded(3, 4, 0.7));
        assert_grads_match(&mut store, w, 2e-2, |s, t| {
            let wv = t.param(s, w);
            let a = t.tanh(wv);
            t.mean_all(a)
        });
    }

    #[test]
    fn gradcheck_constant_blocks_gradient_but_composes() {
        // Constants carry no gradient; the param side of the mix must
        // still match finite differences exactly.
        let mut store = ParamStore::new();
        let w = store.add("w", seeded(3, 3, 0.27));
        let fixed = seeded(3, 3, 1.11);
        assert_grads_match(&mut store, w, 2e-2, move |s, t| {
            let wv = t.param(s, w);
            let c = t.constant(fixed.clone());
            let prod = t.mul(wv, c);
            let shifted = t.add(prod, wv);
            t.sum_sq(shifted)
        });
    }

    #[test]
    fn gradcheck_segment_mean_with_empty_segments() {
        // Empty segments (loner users without friends) produce zero rows
        // and must route no gradient — the exact shape the social graph
        // feeds the GBGCN and GBMF losses.
        let mut store = ParamStore::new();
        let emb = store.add("emb", seeded(5, 3, 0.4));
        let offsets = Arc::new(vec![0usize, 0, 2, 2, 5, 5]);
        let members = Arc::new(vec![0u32, 3, 1, 2, 4]);
        assert_grads_match(&mut store, emb, 2e-2, move |s, t| {
            let e = t.param(s, emb);
            let agg = t.segment_mean(e, offsets.clone(), members.clone());
            let sg = t.sigmoid(agg);
            t.sum_sq(sg)
        });
    }

    #[test]
    fn gradcheck_concat_cols_single_part() {
        // Degenerate concat of one part: backward must slice the full
        // cotangent straight back into the lone operand.
        let mut store = ParamStore::new();
        let a = store.add("a", seeded(3, 2, 0.52));
        assert_grads_match(&mut store, a, 2e-2, |s, t| {
            let av = t.param(s, a);
            let cat = t.concat_cols(&[av]);
            let act = t.tanh(cat);
            t.sum_sq(act)
        });
    }

    #[test]
    fn gradcheck_two_layer_gcn_like_composite() {
        // Mimics the paper's in-view propagation followed by cross-view FC:
        // emb -> segment_mean -> segment_mean -> concat -> FC -> sigmoid ->
        // rowwise_dot -> BPR. One assertion covering the whole pipeline.
        let mut store = ParamStore::new();
        let emb = store.add("emb", seeded(6, 2, 0.12));
        let w = store.add("w", seeded(4, 4, 0.44));
        let bias = store.add("bias", seeded(1, 4, 0.77));
        let offsets = Arc::new(vec![0usize, 2, 4, 6]);
        let members = Arc::new(vec![0u32, 1, 2, 3, 4, 5]);
        let offsets2 = Arc::new(vec![0usize, 1, 3]);
        let members2 = Arc::new(vec![0u32, 1, 2]);
        for p in [emb, w, bias] {
            let offsets = offsets.clone();
            let members = members.clone();
            let offsets2 = offsets2.clone();
            let members2 = members2.clone();
            assert_grads_match(&mut store, p, 3e-2, move |s, t| {
                let e = t.param(s, emb);
                let l1 = t.segment_mean(e, offsets.clone(), members.clone());
                let l2 = t.segment_mean(l1, offsets2.clone(), members2.clone());
                let cat = t.concat_cols(&[l2, l2]);
                let wv = t.param(s, w);
                let bv = t.param(s, bias);
                let fc = t.matmul(cat, wv);
                let fcb = t.add_bias(fc, bv);
                let act = t.sigmoid(fcb);
                let other = t.gather(act, Arc::new(vec![1, 0]));
                let dot = t.rowwise_dot(act, other);
                let ls = t.log_sigmoid(dot);
                let m = t.mean_all(ls);
                t.scale(m, -1.0)
            });
        }
    }
}
