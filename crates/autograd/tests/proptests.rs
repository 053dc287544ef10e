//! Property-based verification of the autodiff engine: every test draws
//! random parameter values, builds a composite graph, and checks analytic
//! gradients against central finite differences.

use gb_autograd::{gradcheck, Gradients, ParamStore, Sgd, Tape};
use gb_tensor::Matrix;
use proptest::prelude::*;
use std::sync::Arc;

fn values(n: usize) -> impl Strategy<Value = Vec<f32>> {
    // Keep magnitudes moderate so finite differences stay well-conditioned.
    prop::collection::vec(-0.8f32..0.8, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gradcheck_matmul_bias_activation(w in values(12), b in values(4)) {
        let mut store = ParamStore::new();
        let wid = store.add("w", Matrix::from_vec(3, 4, w));
        let bid = store.add("b", Matrix::from_vec(1, 4, b));
        let x = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) as f32 * 0.17).sin() * 0.5);
        for p in [wid, bid] {
            let x = x.clone();
            gradcheck::assert_grads_match(&mut store, p, 5e-2, move |s, t| {
                let xv = t.constant(x.clone());
                let wv = t.param(s, wid);
                let bv = t.param(s, bid);
                let lin = t.matmul(xv, wv);
                let biased = t.add_bias(lin, bv);
                let act = t.tanh(biased);
                t.sum_sq(act)
            });
        }
    }

    #[test]
    fn gradcheck_bpr_composite(emb in values(12)) {
        let mut store = ParamStore::new();
        let e = store.add("emb", Matrix::from_vec(6, 2, emb));
        gradcheck::assert_grads_match(&mut store, e, 5e-2, |s, t| {
            let users = t.gather_param(s, e, Arc::new(vec![0, 1]));
            let pos = t.gather_param(s, e, Arc::new(vec![2, 3]));
            let neg = t.gather_param(s, e, Arc::new(vec![4, 5]));
            let ps = t.rowwise_dot(users, pos);
            let ns = t.rowwise_dot(users, neg);
            let diff = t.sub(ps, ns);
            let ls = t.log_sigmoid(diff);
            let m = t.mean_all(ls);
            t.scale(m, -1.0)
        });
    }

    #[test]
    fn gradcheck_segment_mean_chain(emb in values(10), cut in 1usize..5) {
        let mut store = ParamStore::new();
        let e = store.add("emb", Matrix::from_vec(5, 2, emb));
        let offsets = Arc::new(vec![0usize, cut, 5]);
        let members: Arc<Vec<u32>> = Arc::new((0..5).collect());
        gradcheck::assert_grads_match(&mut store, e, 5e-2, move |s, t| {
            let ev = t.param(s, e);
            let agg = t.segment_mean(ev, offsets.clone(), members.clone());
            let sig = t.sigmoid(agg);
            let sq = t.sum_sq(sig);
            t.scale(sq, 0.7)
        });
    }

    #[test]
    fn gradcheck_scale_rows_gate_chain(a in values(8), g in values(4)) {
        let mut store = ParamStore::new();
        let aid = store.add("a", Matrix::from_vec(4, 2, a));
        let gid = store.add("g", Matrix::from_vec(4, 1, g));
        for p in [aid, gid] {
            gradcheck::assert_grads_match(&mut store, p, 5e-2, move |s, t| {
                let av = t.param(s, aid);
                let gv = t.param(s, gid);
                let gate = t.sigmoid(gv);
                let gated = t.scale_rows(av, gate);
                let mr = t.mean_all(gated);
                t.sum_sq(mr)
            });
        }
    }

    /// SGD on a random positive-definite quadratic always reduces loss.
    #[test]
    fn sgd_descends_random_quadratic(target in values(4), start in values(4)) {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(2, 2, start));
        let target_m = Matrix::from_vec(2, 2, target);
        let loss_of = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let wv = t.param(store, w);
            let tv = t.constant(target_m.clone());
            let d = t.sub(wv, tv);
            let l = t.sum_sq(d);
            t.value(l).get(0, 0)
        };
        let before = loss_of(&store);
        let sgd = Sgd::new(0.1);
        for _ in 0..10 {
            let mut t = Tape::new();
            let wv = t.param(&store, w);
            let tv = t.constant(target_m.clone());
            let d = t.sub(wv, tv);
            let l = t.sum_sq(d);
            let grads = t.backward(l, &store);
            sgd.step(&mut store, &grads);
        }
        let after = loss_of(&store);
        prop_assert!(after <= before + 1e-6, "loss rose: {before} -> {after}");
    }

    /// Gradient accumulation is linear: grad(a*L) = a * grad(L).
    #[test]
    fn backward_is_linear_in_loss_scale(vals in values(6), scale in 0.1f32..3.0) {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(2, 3, vals));
        let grad_with = |s: f32| -> Vec<f32> {
            let mut t = Tape::new();
            let wv = t.param(&store, w);
            let sq = t.sum_sq(wv);
            let scaled = t.scale(sq, s);
            let g: Gradients = t.backward(scaled, &store);
            g.get(w).unwrap().as_slice().to_vec()
        };
        let g1 = grad_with(1.0);
        let gs = grad_with(scale);
        for (a, b) in g1.iter().zip(&gs) {
            prop_assert!((a * scale - b).abs() < 1e-4);
        }
    }
}
