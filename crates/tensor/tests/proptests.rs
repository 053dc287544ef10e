//! Property-based tests of the numeric kernels.

use gb_tensor::{kernels, Matrix};
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The adjoint identity of gather/scatter:
    /// ⟨gather(x, idx), y⟩ = ⟨x, scatter_add(idx, y)⟩.
    /// This is exactly the property backward passes rely on.
    #[test]
    fn gather_scatter_are_adjoint(
        x in matrix(6, 3),
        y in matrix(4, 3),
        idx in prop::collection::vec(0u32..6, 4),
    ) {
        let gx = kernels::gather_rows(&x, &idx);
        let lhs: f32 = gx.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();

        let mut sy = Matrix::zeros(6, 3);
        kernels::scatter_add_rows(&mut sy, &idx, &y);
        let rhs: f32 = x.as_slice().iter().zip(sy.as_slice()).map(|(a, b)| a * b).sum();

        prop_assert!((lhs - rhs).abs() < 1e-3, "lhs {lhs} rhs {rhs}");
    }

    /// The adjoint identity of segment_mean and its backward.
    #[test]
    fn segment_mean_adjoint(
        x in matrix(5, 2),
        g in matrix(2, 2),
        cut in 0usize..=5,
    ) {
        let offsets = vec![0usize, cut, 5];
        let members: Vec<u32> = (0..5).collect();
        let fwd = kernels::segment_mean(&x, &offsets, &members);
        let lhs: f32 = fwd.as_slice().iter().zip(g.as_slice()).map(|(a, b)| a * b).sum();

        let back = kernels::segment_mean_backward(&g, 0..g.cols(), &offsets, &members, 5);
        let rhs: f32 = x.as_slice().iter().zip(back.as_slice()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3);
    }

    /// matmul associates with scalar multiplication.
    #[test]
    fn matmul_scalar_commutes(a in matrix(3, 4), b in matrix(4, 2), s in -2.0f32..2.0) {
        let lhs = kernels::matmul(&kernels::scale(&a, s), &b);
        let rhs = kernels::scale(&kernels::matmul(&a, &b), s);
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// concat_cols then slice_cols recovers each part exactly.
    #[test]
    fn concat_slice_roundtrip(a in matrix(3, 2), b in matrix(3, 5)) {
        let cat = kernels::concat_cols(&[&a, &b]);
        prop_assert_eq!(kernels::slice_cols(&cat, 0, 2), a);
        prop_assert_eq!(kernels::slice_cols(&cat, 2, 5), b);
    }

    /// sigmoid maps into [0, 1], is monotone, and is strictly interior
    /// for moderate inputs (f32 saturates to exactly 0/1 beyond |x|≈17).
    #[test]
    fn sigmoid_properties(x in -40.0f32..40.0, dx in 0.01f32..5.0) {
        let s1 = kernels::sigmoid_scalar(x);
        let s2 = kernels::sigmoid_scalar(x + dx);
        prop_assert!((0.0..=1.0).contains(&s1));
        prop_assert!(s2 >= s1);
        if x.abs() < 15.0 {
            prop_assert!(s1 > 0.0 && s1 < 1.0);
        }
        // σ(-x) = 1 - σ(x)
        prop_assert!((kernels::sigmoid_scalar(-x) - (1.0 - s1)).abs() < 1e-5);
    }

    /// log_sigmoid equals ln(sigmoid) where the naive form is stable.
    #[test]
    fn log_sigmoid_matches_naive(x in -15.0f32..15.0) {
        let stable = kernels::log_sigmoid_scalar(x);
        let naive = kernels::sigmoid_scalar(x).ln();
        prop_assert!((stable - naive).abs() < 1e-4, "{stable} vs {naive}");
    }

    /// Row normalization produces unit rows (or zero rows).
    #[test]
    fn normalize_rows_unit_or_zero(a in matrix(4, 5)) {
        let n = kernels::normalize_rows(&a);
        for r in 0..4 {
            let norm: f32 = n.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
            prop_assert!(norm < 1e-6 || (norm - 1.0).abs() < 1e-4);
        }
    }

    /// Cosine similarity is symmetric and bounded in [-1, 1].
    #[test]
    fn cosine_symmetric_bounded(
        a in prop::collection::vec(-3.0f32..3.0, 6),
        b in prop::collection::vec(-3.0f32..3.0, 6),
    ) {
        let ab = kernels::cosine_similarity(&a, &b);
        let ba = kernels::cosine_similarity(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-6);
        prop_assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&ab));
    }

    /// add_bias then col_sum adjoint: bias gradient equals column sums.
    #[test]
    fn bias_adjoint(x in matrix(4, 3), bias in matrix(1, 3), g in matrix(4, 3)) {
        // d/d(bias) ⟨add_bias(x, bias), g⟩ = col_sum(g)
        let eps = 1e-2f32;
        for c in 0..3 {
            let mut bp = bias.clone();
            bp.set(0, c, bias.get(0, c) + eps);
            let mut bm = bias.clone();
            bm.set(0, c, bias.get(0, c) - eps);
            let fp: f32 = kernels::add_bias(&x, &bp).as_slice().iter().zip(g.as_slice()).map(|(a, b)| a * b).sum();
            let fm: f32 = kernels::add_bias(&x, &bm).as_slice().iter().zip(g.as_slice()).map(|(a, b)| a * b).sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = kernels::col_sum(&g).get(0, c);
            prop_assert!((numeric - analytic).abs() < 0.05, "{numeric} vs {analytic}");
        }
    }
}
