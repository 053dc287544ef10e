//! Property tests pinning the blocked hot-path kernels to their scalar
//! references.
//!
//! Three guarantees per kernel, over random shapes that deliberately
//! include non-multiple-of-lane dims (1, 7, 8, 9, 31, 32, 33; every width
//! `0..=100` for `segment_mean`, which is bitwise its reference):
//!
//! 1. **Accuracy** — the blocked result matches the scalar reference
//!    within 1e-5 relative tolerance (the only difference is float
//!    reassociation across the lane accumulators);
//! 2. **Determinism** — repeated calls on the same inputs are
//!    bit-identical (the summation order is fixed, never data- or
//!    timing-dependent);
//! 3. **Call-site consistency** — the serve-side kernel
//!    (`blend_dot_block`) reproduces the train-side scorer composition
//!    (`(1-α)·dot + α·dot`) bit-for-bit, which is what keeps served
//!    scores identical to offline evaluation scores; and `matmul_rows`
//!    is `matmul` on its listed rows and `+0.0` elsewhere, bit for bit,
//!    on data with signed zeros, subnormals and 1e30 magnitudes.
//!
//! `kmeans` and `assign` are held bitwise to a transcription of the
//! algorithm with every distance a per-element `dot` call, on small shapes
//! with repeated rows, signed zeros, subnormals and (for `assign`) `±∞`
//! and NaN. The `kmeans` oracle runs every round; well-separated rows make
//! the library's fixed-point exit the common case there, not a corner.

use gb_tensor::kernels::{self, reference};
use gb_tensor::{init, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Dimension pool stressing every tail length around the 8-lane width.
const DIMS: [usize; 7] = [1, 7, 8, 9, 31, 32, 33];

fn dim(idx: usize) -> usize {
    DIMS[idx % DIMS.len()]
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    init::xavier_uniform(rows, cols, &mut rng)
}

/// `|got - want| <= 1e-5 * scale`, where `scale` is the natural magnitude
/// of the reduction (sum of |term|), so the bound stays meaningful when
/// cancellation makes the result small.
fn assert_close(got: f32, want: f32, scale: f32, what: &str) {
    let tol = 1e-5 * scale.max(1.0);
    assert!(
        (got - want).abs() <= tol,
        "{what}: {got} vs {want} (tol {tol})"
    );
}

/// Output widths for `matmul_rows`: around one 8-wide vector and one
/// 16-wide tile, with and without a scalar edge.
const ROW_LIST_WIDTHS: [usize; 8] = [1, 7, 8, 9, 16, 17, 31, 33];

/// Seeded values with the awkward ones mixed in: signed zeros,
/// subnormals, 1e30-scale magnitudes (products overflow to ±∞ and their
/// sums to NaN) and mixed signs.
fn awkward_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = (seed as u32).wrapping_mul(2_654_435_761).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
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

/// Bitwise, with any NaN equal to any NaN (which payload survives an x86
/// NaN sum is the operand order's business).
fn same_bits(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Row lists of an `m`-row operand: none, one, every row, and the rows a
/// 16-bit mask picks — always strictly ascending.
fn row_list(m: usize, kind: u32, mask: u32) -> Vec<u32> {
    match kind {
        0 => Vec::new(),
        1 => vec![mask % m as u32],
        2 => (0..m as u32).collect(),
        _ => (0..m as u32).filter(|r| mask >> r & 1 == 1).collect(),
    }
}

/// Natural scale of `out[i][j]` for an `A*B`-shaped product.
fn product_scale(a_row: &[f32], b_col: impl Iterator<Item = f32>) -> f32 {
    a_row.iter().zip(b_col).map(|(x, y)| (x * y).abs()).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dot_matches_reference_and_is_deterministic(di in 0usize..7, seed in 0u64..1 << 20) {
        let d = dim(di);
        let a = random_matrix(1, d, seed);
        let b = random_matrix(1, d, seed ^ 0xABCD);
        let got = kernels::dot(a.row(0), b.row(0));
        let want = reference::dot(a.row(0), b.row(0));
        let scale = product_scale(a.row(0), b.row(0).iter().copied());
        assert_close(got, want, scale, &format!("dot d={d}"));
        prop_assert_eq!(got.to_bits(), kernels::dot(a.row(0), b.row(0)).to_bits());
    }

    #[test]
    fn matmul_matches_reference_bitwise(
        mi in 0usize..7, ki in 0usize..7, ni in 0usize..7, seed in 0u64..1 << 20
    ) {
        // matmul tiles over *outputs*, not the reduction index, so it
        // keeps the reference's exact ascending-k association: the match
        // is bitwise, not just within tolerance.
        let (m, k, n) = (dim(mi), dim(ki), dim(ni));
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed ^ 0xBEEF);
        let got = kernels::matmul(&a, &b);
        let want = reference::matmul(&a, &b);
        prop_assert_eq!(got.as_slice(), want.as_slice());
        prop_assert_eq!(kernels::matmul(&a, &b).as_slice(), got.as_slice());
    }

    #[test]
    fn matmul_rows_is_matmul_on_its_rows_and_zero_elsewhere(
        m in 1usize..14, ki in 0usize..7, ni in 0usize..8,
        kind in 0u32..4, mask in 0u32..1 << 16, seed in 0u64..1 << 20
    ) {
        // Heights on both sides of the 4-row tile, widths on both sides
        // of the 16-column one: a listed row may sit in a tile in one
        // product and on the edge in the other.
        let (k, n) = (dim(ki), ROW_LIST_WIDTHS[ni]);
        let a = awkward_matrix(m, k, seed);
        let b = awkward_matrix(k, n, seed ^ 0xD00D);
        let rows = row_list(m, kind, mask);
        let got = kernels::matmul_rows(&a, &rows, &b);
        let full = kernels::matmul(&a, &b);
        prop_assert_eq!(got.shape(), full.shape());
        for r in 0..m {
            let listed = rows.contains(&(r as u32));
            for (c, (&g, &f)) in got.row(r).iter().zip(full.row(r)).enumerate() {
                if listed {
                    prop_assert!(same_bits(g, f), "row {} col {}: {} vs {}", r, c, g, f);
                } else {
                    prop_assert_eq!(g.to_bits(), 0, "unlisted row {} col {}", r, c);
                }
            }
        }
    }

    #[test]
    fn matmul_nt_in_place_is_matmul_nt_bitwise(
        m in 0usize..14, ki in 0usize..8, seed in 0u64..1 << 20
    ) {
        let k = ROW_LIST_WIDTHS[ki];
        let a = awkward_matrix(m, k, seed);
        let b = awkward_matrix(k, k, seed ^ 0xF00D);
        let mut got = a.clone();
        kernels::matmul_nt_in_place(&mut got, &b);
        let want = kernels::matmul_nt(&a, &b);
        prop_assert_eq!(got.shape(), want.shape());
        for (i, (&g, &w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            prop_assert!(same_bits(g, w), "element {}: {} vs {}", i, g, w);
        }
    }

    #[test]
    fn matmul_tn_rows_is_matmul_tn_of_the_gathered_rows(
        m in 1usize..14, ki in 0usize..7, ni in 0usize..8,
        kind in 0u32..4, mask in 0u32..1 << 16, seed in 0u64..1 << 20
    ) {
        // `a` is `m x k`; the product reduces over its listed rows, as many
        // as `b` has: none, one, some or all, on both sides of the tiles.
        let (k, n) = (dim(ki), ROW_LIST_WIDTHS[ni]);
        let a = awkward_matrix(m, k, seed);
        let rows = row_list(m, kind, mask);
        let b = awkward_matrix(rows.len(), n, seed ^ 0xBEEF);
        let got = kernels::matmul_tn_rows(&a, &rows, &b);
        let want = kernels::matmul_tn(&kernels::gather_rows(&a, &rows), &b);
        prop_assert_eq!(got.shape(), want.shape());
        for (i, (&g, &w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            prop_assert!(same_bits(g, w), "element {}: {} vs {}", i, g, w);
        }
    }

    #[test]
    fn matmul_rows_over_the_nonzero_rows_is_matmul_for_a_finite_b(
        m in 1usize..14, ki in 0usize..7, ni in 0usize..8,
        zero_mask in 0u32..1 << 16, seed in 0u64..1 << 20
    ) {
        // Rows of signed zeros (the mask's), then the list `Tape::dense`
        // builds: every row with a non-zero element. `b` is finite (1e30
        // included), so the skipped rows' products are all signed zeros
        // and the full product leaves them `+0.0` too.
        let (k, n) = (dim(ki), ROW_LIST_WIDTHS[ni]);
        let noisy = awkward_matrix(m, k, seed);
        let a = Matrix::from_fn(m, k, |r, c| match (zero_mask >> r & 1, c % 2) {
            (1, 0) => 0.0,
            (1, _) => -0.0,
            _ => noisy.get(r, c),
        });
        let b = awkward_matrix(k, n, seed ^ 0xFEED);
        let rows: Vec<u32> = (0..m as u32)
            .filter(|&r| a.row(r as usize).iter().any(|&v| v != 0.0))
            .collect();
        let got = kernels::matmul_rows(&a, &rows, &b);
        let full = kernels::matmul(&a, &b);
        for (i, (&g, &f)) in got.as_slice().iter().zip(full.as_slice()).enumerate() {
            prop_assert!(same_bits(g, f), "element {}: {} vs {}", i, g, f);
        }
    }

    #[test]
    fn matmul_tn_matches_reference_bitwise(
        ri in 0usize..7, mi in 0usize..7, ni in 0usize..7, seed in 0u64..1 << 20
    ) {
        let (r, m, n) = (dim(ri), dim(mi), dim(ni));
        let a = random_matrix(r, m, seed);
        let b = random_matrix(r, n, seed ^ 0xF00D);
        let got = kernels::matmul_tn(&a, &b);
        prop_assert_eq!(got.as_slice(), reference::matmul_tn(&a, &b).as_slice());
        // Cross-kernel consistency: same association as matmul on the
        // materialized transpose.
        prop_assert_eq!(got.as_slice(), kernels::matmul(&a.transposed(), &b).as_slice());
    }

    #[test]
    fn matmul_nt_matches_reference_within_tolerance(
        mi in 0usize..7, ni in 0usize..7, ki in 0usize..7, seed in 0u64..1 << 20
    ) {
        // matmul_nt reduces through the lane accumulators, so it may
        // differ from the scalar reference by reassociation only.
        let (m, n, k) = (dim(mi), dim(ni), dim(ki));
        let a = random_matrix(m, k, seed);
        let b = random_matrix(n, k, seed ^ 0xCAFE);
        let got = kernels::matmul_nt(&a, &b);
        let want = reference::matmul_nt(&a, &b);
        for i in 0..m {
            for j in 0..n {
                let scale = product_scale(a.row(i), b.row(j).iter().copied());
                assert_close(got.get(i, j), want.get(i, j), scale, &format!("nt ({i},{j})"));
                // Per element the tile is exactly the shared lane dot.
                prop_assert_eq!(got.get(i, j).to_bits(), kernels::dot(a.row(i), b.row(j)).to_bits());
            }
        }
        prop_assert_eq!(kernels::matmul_nt(&a, &b).as_slice(), got.as_slice());
    }

    #[test]
    fn segment_mean_matches_reference_bitwise(
        width in 0usize..=100,
        src_rows in 1usize..12,
        segs in prop::collection::vec(prop::collection::vec(0u32..1 << 16, 0..6), 0..8),
        empty_ends in 0u32..4,
        seed in 0u64..1 << 20,
    ) {
        // Random CSR: empty segments anywhere (and forced first / last by
        // `empty_ends`), up to five members each out of at most eleven
        // rows, so duplicates are common.
        let mut offsets = vec![0usize];
        let mut members = Vec::new();
        if empty_ends & 1 == 1 {
            offsets.push(0);
        }
        for seg in &segs {
            members.extend(seg.iter().map(|m| m % src_rows as u32));
            offsets.push(members.len());
        }
        if empty_ends & 2 == 2 {
            offsets.push(members.len());
        }
        let src = random_matrix(src_rows, width, seed);
        let got = kernels::segment_mean(&src, &offsets, &members);
        let want = reference::segment_mean(&src, &offsets, &members);
        prop_assert_eq!(got.shape(), want.shape());
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn blend_dot_block_matches_reference_and_train_scorers(
        items in 1usize..40,
        di in 0usize..7,
        si in 0usize..7,
        social_flag in 0u32..2,
        alpha_steps in 0u32..=10,
        seed in 0u64..1 << 20,
    ) {
        let d = dim(di);
        let sd = if social_flag == 1 { dim(si) } else { 0 };
        let alpha = alpha_steps as f32 / 10.0;
        let item_own = random_matrix(items, d, seed);
        let item_social = random_matrix(items, sd, seed ^ 0x5150);
        let own = random_matrix(1, d, seed ^ 0x1234);
        let social = random_matrix(1, sd, seed ^ 0x4321);

        let mut got = vec![0.0f32; items];
        kernels::blend_dot_block(
            own.row(0), &item_own, social.row(0), &item_social, alpha, 0, &mut got,
        );

        // (1) accuracy against the scalar reference;
        let mut want = vec![0.0f32; items];
        reference::blend_dot_block(
            own.row(0), &item_own, social.row(0), &item_social, alpha, 0, &mut want,
        );
        for j in 0..items {
            let scale = product_scale(own.row(0), item_own.row(j).iter().copied())
                + product_scale(social.row(0), item_social.row(j).iter().copied());
            assert_close(got[j], want[j], scale, &format!("blend item {j}"));
        }

        // (2) determinism across repeated calls;
        let mut again = vec![0.0f32; items];
        kernels::blend_dot_block(
            own.row(0), &item_own, social.row(0), &item_social, alpha, 0, &mut again,
        );
        for j in 0..items {
            prop_assert_eq!(got[j].to_bits(), again[j].to_bits());
        }

        // (3) bit-identity with the train-side scorer composition (the
        // exact expression `gb-core`/`gb-models` score with offline).
        for (j, &served) in got.iter().enumerate() {
            let o = kernels::dot(own.row(0), item_own.row(j));
            let s = kernels::dot(social.row(0), item_social.row(j));
            let offline = if sd > 0 && alpha != 0.0 {
                (1.0 - alpha) * o + alpha * s
            } else if alpha == 0.0 {
                o
            } else {
                (1.0 - alpha) * o
            };
            prop_assert_eq!(served.to_bits(), offline.to_bits(), "item {}", j);
        }
    }

    #[test]
    fn blend_dot_block_offsets_are_consistent(start in 0usize..30, seed in 0u64..1 << 20) {
        // A mid-catalogue block must equal the same rows scored from 0 —
        // blocking never changes per-item scores.
        let item_own = random_matrix(64, 33, seed);
        let empty = Matrix::zeros(64, 0);
        let own = random_matrix(1, 33, seed ^ 0x77);
        let len = 64 - start;
        let mut blocked = vec![0.0f32; len];
        kernels::blend_dot_block(own.row(0), &item_own, &[], &empty, 0.0, start, &mut blocked);
        let mut full = vec![0.0f32; 64];
        kernels::blend_dot_block(own.row(0), &item_own, &[], &empty, 0.0, 0, &mut full);
        for j in 0..len {
            prop_assert_eq!(blocked[j].to_bits(), full[start + j].to_bits());
        }
    }
}

/// `kmeans::assign` as the scalar scan over per-element [`kernels::dot`]
/// calls: `argmin_j (0.5 * dot(c_j, c_j) - dot(x, c_j))`, strict `<`
/// from `j = 0`.
fn oracle_assign(data: &Matrix, centroids: &Matrix) -> Vec<u32> {
    let k = centroids.rows();
    let half: Vec<f32> = (0..k)
        .map(|j| 0.5 * kernels::dot(centroids.row(j), centroids.row(j)))
        .collect();
    (0..data.rows())
        .map(|i| {
            let x = data.row(i);
            let mut best = 0;
            let mut best_d = half[0] - kernels::dot(x, centroids.row(0));
            for (j, &h) in half.iter().enumerate().skip(1) {
                let d = h - kernels::dot(x, centroids.row(j));
                if d < best_d {
                    best = j;
                    best_d = d;
                }
            }
            best as u32
        })
        .collect()
}

/// `kmeans::kmeans` as a direct transcription: a SplitMix64-seeded first
/// row, farthest-point rows by `(‖x‖² + ‖c‖²) − 2·dot(x, c)` with a strict
/// `>` argmax from `−∞`, then Lloyd rounds of [`oracle_assign`] and
/// ascending-row means. Every distance is a [`kernels::dot`] call.
fn oracle_kmeans(data: &Matrix, k: usize, iters: usize, seed: u64) -> (Matrix, Vec<u32>) {
    let (n, d) = data.shape();
    let k = k.min(n);
    if k == 0 {
        return (Matrix::zeros(0, d), Vec::new());
    }
    // One SplitMix64 step from `seed ^ 0xD1B5_4A32_D192_ED03`.
    let mut z = (seed ^ 0xD1B5_4A32_D192_ED03).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let mut chosen = vec![((z ^ (z >> 31)) % n as u64) as usize];
    let sq: Vec<f32> = (0..n)
        .map(|i| kernels::dot(data.row(i), data.row(i)))
        .collect();
    let dist = |i: usize, c: usize| sq[i] + sq[c] - 2.0 * kernels::dot(data.row(i), data.row(c));
    let mut min_dist: Vec<f32> = (0..n).map(|i| dist(i, chosen[0])).collect();
    while chosen.len() < k {
        let mut best = 0;
        let mut best_d = f32::NEG_INFINITY;
        for (i, &v) in min_dist.iter().enumerate() {
            if v > best_d {
                best = i;
                best_d = v;
            }
        }
        chosen.push(best);
        for (i, slot) in min_dist.iter_mut().enumerate() {
            let v = dist(i, best);
            if v < *slot {
                *slot = v;
            }
        }
    }
    let mut centroids = data.select_rows(&chosen);
    for _ in 0..iters {
        let assignments = oracle_assign(data, &centroids);
        let mut sums = Matrix::zeros(k, d);
        kernels::scatter_add_rows(&mut sums, &assignments, data);
        let mut counts = vec![0usize; k];
        for &a in &assignments {
            counts[a as usize] += 1;
        }
        for (c, &count) in counts.iter().enumerate() {
            if count > 0 {
                let inv = 1.0 / count as f32;
                for (x, &s) in centroids.row_mut(c).iter_mut().zip(sums.row(c)) {
                    *x = s * inv;
                }
            }
        }
    }
    let assignments = oracle_assign(data, &centroids);
    (centroids, assignments)
}

/// `n × d` rows drawn from `distinct` seeded rows (so repeats are common),
/// each value from a pool with signed zeros, subnormals and mixed scales;
/// `specials` adds `±∞` and NaN to the pool.
fn pooled_rows(n: usize, d: usize, distinct: usize, specials: bool, seed: u64) -> Matrix {
    const POOL: [f32; 10] = [
        0.0,
        -0.0,
        1e-40,
        -1e-40,
        f32::MIN_POSITIVE,
        1.0,
        -0.75,
        0.125,
        3.5,
        -1e-3,
    ];
    const SPECIAL: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let mut state = (seed as u32).wrapping_mul(2_654_435_761).wrapping_add(7);
    let mut next = || {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        state >> 8
    };
    let base: Vec<f32> = (0..distinct * d)
        .map(|_| {
            let r = next();
            match r % 40 {
                0..=2 if specials => SPECIAL[(r / 40) as usize % SPECIAL.len()],
                // Unit-scale values beside the pool's exact ones.
                3..=19 => (r >> 6) as f32 / (1u32 << 18) as f32 - 0.5,
                _ => POOL[(r / 40) as usize % POOL.len()],
            }
        })
        .collect();
    let picks: Vec<usize> = (0..n).map(|_| next() as usize % distinct).collect();
    Matrix::from_fn(n, d, |r, c| base[picks[r] * d + c])
}

/// `n × d` rows near `clusters` well-separated centers: center `c` is
/// `16·(c + 1)` on axis `c mod d` and `0` elsewhere, and each row adds
/// noise in `[-0.25, 0.25)` to a seeded center. Lloyd settles within a
/// round or two here, so most runs reach the fixed point and skip rounds.
fn separated_rows(n: usize, d: usize, clusters: usize, seed: u64) -> Matrix {
    let mut state = (seed as u32).wrapping_mul(2_654_435_761).wrapping_add(11);
    let mut next = || {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        state >> 8
    };
    let picks: Vec<usize> = (0..n).map(|_| next() as usize % clusters).collect();
    Matrix::from_fn(n, d, |r, c| {
        let hub = picks[r];
        let center = if c == hub % d {
            16.0 * (hub + 1) as f32
        } else {
            0.0
        };
        center + (next() as f32 / (1u32 << 24) as f32 - 0.5) * 0.5
    })
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn kmeans_equals_the_per_element_dot_oracle_bitwise(
        n in 0usize..70, d in 1usize..40, k in 1usize..12, iters in 0usize..8,
        distinct in 1usize..24, separated in (0u8..2).prop_map(|b| b == 1), seed in 0u64..1 << 20,
    ) {
        let data = if separated {
            separated_rows(n, d, distinct, seed)
        } else {
            pooled_rows(n, d, distinct, false, seed)
        };
        let km = gb_tensor::kmeans::kmeans(&data, k, iters, seed);
        let (centroids, assignments) = oracle_kmeans(&data, k, iters, seed);
        prop_assert_eq!(km.centroids.shape(), centroids.shape());
        prop_assert_eq!(bits(&km.centroids), bits(&centroids));
        prop_assert_eq!(km.assignments, assignments);
    }

    #[test]
    fn assign_equals_the_per_element_dot_oracle_bitwise(
        n in 0usize..70, d in 1usize..40, k in 1usize..12,
        distinct in 1usize..24, seed in 0u64..1 << 20,
    ) {
        // `±∞` and NaN in both operands: NaN distances never win a strict
        // `<`, except at `j = 0`, where one sticks.
        let data = pooled_rows(n, d, distinct, true, seed);
        let centroids = pooled_rows(k, d, k, true, seed ^ 0xC3);
        prop_assert_eq!(
            gb_tensor::kmeans::assign(&data, &centroids),
            oracle_assign(&data, &centroids)
        );
    }
}
