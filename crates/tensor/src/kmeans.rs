//! Seeded, deterministic Lloyd k-means over the rows of a [`Matrix`].
//!
//! This is the clustering primitive behind approximate retrieval
//! (`gb-serve`'s IVF index partitions the item catalogue with it). The
//! requirements there are stricter than "converges nicely":
//!
//! * **Determinism.** Same `(data, k, iters, seed)` ⇒ bit-identical
//!   centroids and assignments, on every run and every thread count. Every
//!   distance is [`kernels::dot`]'s fixed-order lane sum, accumulation
//!   walks rows in ascending index order ([`kernels::scatter_add_rows`]),
//!   and initialization uses an inline SplitMix64 stream — no global RNG
//!   state anywhere.
//! * **Total assignment.** Every row gets a cluster; distance ties break
//!   toward the lowest centroid index; empty clusters keep their previous
//!   centroid (they can be re-populated by a later iteration).
//! * **Non-finite rows stay out.** A row holding a NaN or an infinity
//!   takes no part in the init or in any recenter; only the final
//!   assignment places it. One such row would otherwise make its
//!   centroid NaN, and a NaN distance at `j = 0` is never replaced, so
//!   every row would join cluster 0.
//!
//! Lloyd's update is used verbatim: assign each row to the nearest
//! centroid under squared Euclidean distance, then recenter each cluster
//! on the mean of its members. `argmin_j ‖x − c_j‖²` is computed as
//! `argmin_j (½‖c_j‖² − x·c_j)`, a per-centroid norm minus a dot product.
//!
//! **Fixed-point exit.** The rounds stop as soon as an assignment pass
//! after the first moves no row, and the current centroids and
//! assignments are returned. This is exact, not approximate. If round
//! `t ≥ 1` assigns every row the cell round `t − 1` did, every non-empty
//! cluster has the same members, so the ascending-row scatter-add and the
//! `s * (1/count)` give the same centroid bits; every empty cluster keeps
//! the centroid it already had. So `C_t == C_{t−1}`, every later round
//! repeats `A_t`, and the final pass returns `A_t`: the output is
//! bit-identical to running all `iters` rounds, on every input. The check
//! costs no copy: the pass compares each index with the one it overwrites.
//!
//! **Row panels.** Both distance passes — the farthest-point init and
//! every Lloyd assignment — read `data` transposed once into
//! `kernels::RowPanels`: eight rows per vector, one row per lane. One
//! lane body then computes, for a centroid `y`, eight `dot(x, y)` at once,
//! and the argmin (assignment) or the running minimum and argmax (init)
//! is folded into the same pass, so no `n × k` table of dot products is
//! ever built. A lane *is* [`kernels::dot`], bit for bit: it keeps `dot`'s
//! eight accumulators `p_a = Σ_c x[8c + a]·y[8c + a]` (ascending `c` from
//! `+0.0`, each product rounded before the add, no FMA), folds them with
//! `dot`'s tree `((p0+p4)+(p2+p6))+((p1+p5)+(p3+p7))` and adds the
//! `d mod 8` tail columns in index order. Lanes never interact, so the
//! last panel is padded and its extra lanes dropped: one path for every
//! `n`, `d` and `k`.

use crate::kernels::{self, RowPanels};
use crate::Matrix;

/// Output of [`kmeans`]: `k × d` centroids plus one cluster id per input
/// row, consistent with a final assignment pass against those centroids.
#[derive(Clone, Debug)]
pub struct KMeans {
    /// Cluster centers, one row each. May have fewer rows than the
    /// requested `k` when the data has fewer rows than `k`.
    pub centroids: Matrix,
    /// `assignments[i]` is the centroid index row `i` belongs to.
    pub assignments: Vec<u32>,
}

/// SplitMix64 step — a tiny, seedable, allocation-free generator, enough
/// to pick distinct initial centroid rows deterministically.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `½‖c_j‖²` of every centroid, as `0.5 * dot(c_j, c_j)`.
fn half_norms(centroids: &Matrix) -> Vec<f32> {
    (0..centroids.rows())
        .map(|j| 0.5 * kernels::dot(centroids.row(j), centroids.row(j)))
        .collect()
}

/// Nearest-centroid assignment: `out[i] = argmin_j ‖data[i] − c_j‖²`,
/// ties broken toward the lowest `j`.
///
/// The comparison drops the (assignment-invariant) `‖x‖²` term:
/// `out[i] = argmin_j (½‖c_j‖² − dot(data[i], c_j))`, scanned over
/// ascending `j` under a strict `<` (so a NaN distance at `j = 0` is never
/// replaced, and a later one never wins). No `n × k` table is built: the
/// rows go through `kernels::RowPanels` eight at a time, one row per
/// lane, each lane running [`kernels::dot`]'s own summation (see the
/// module docs), so every distance has the `dot` call's bits and the
/// argmin is the scalar scan's.
///
/// # Panics
/// Panics if widths disagree, or `centroids` has no rows (or more than
/// `2^24`: the scan carries `j` in an f32 lane) while `data` has rows.
pub fn assign(data: &Matrix, centroids: &Matrix) -> Vec<u32> {
    if data.rows() == 0 {
        return Vec::new();
    }
    assert!(centroids.rows() > 0, "assign: no centroids");
    assert_eq!(data.cols(), centroids.cols(), "assign: width mismatch");
    let mut out = vec![0; data.rows()];
    RowPanels::new(data).nearest(centroids, &half_norms(centroids), &mut out);
    out
}

#[cfg(test)]
thread_local! {
    /// Assignment passes [`lloyd`] has run on this thread.
    static PASSES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One Lloyd assignment pass of `panels`' rows against `centroids`;
/// returns whether any row changed cell.
fn assign_pass(panels: &RowPanels, centroids: &Matrix, assignments: &mut [u32]) -> bool {
    #[cfg(test)]
    PASSES.with(|p| p.set(p.get() + 1));
    panels.nearest(centroids, &half_norms(centroids), assignments)
}

/// Seeded farthest-point ("maxmin") initialization: the first center is
/// a seeded random row, each further center the row farthest from every
/// center chosen so far (ties toward the lower row index).
///
/// Random-row init routinely leaves well-separated natural clusters
/// unseeded (drawing `k` rows from `k` equal clusters misses ~`1/e` of
/// them), and Lloyd cannot split a merged cell afterwards; maxmin seeds
/// every distant mode by construction. Deterministic given `seed`, and
/// `O(n·k·d)` — the cost of one extra assignment pass.
///
/// Each center but the last costs one sweep over the panels
/// (`RowPanels::maxmin_sweep`): the distance to the newest center,
/// `(‖x‖² + ‖c‖²) − 2·dot(x, c)` with `‖x‖²` kept explicitly since the
/// argmax compares different rows, folded into each row's running minimum
/// and the running argmax in the same pass.
fn farthest_point_init(panels: &RowPanels, n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0xD1B5_4A32_D192_ED03;
    let first = (splitmix64(&mut state) % n as u64) as usize;
    let mut chosen = Vec::with_capacity(k);
    chosen.push(first);
    let sq_norms = panels.sq_norms();
    let mut min_dist = vec![[0.0; kernels::DOT_LANES]; sq_norms.len()];
    while chosen.len() < k {
        let c = chosen[chosen.len() - 1];
        let next = panels.maxmin_sweep(&sq_norms, c, &mut min_dist, chosen.len() == 1);
        chosen.push(next);
    }
    chosen
}

/// Seeded Lloyd k-means: `iters` assignment/update rounds from `k`
/// centers chosen by seeded farthest-point initialization.
///
/// `k` is clamped to the number of data rows; zero rows yield an empty
/// result. The returned assignments are a *final* assignment pass against
/// the returned centroids, so they are mutually consistent even when
/// `iters == 0` (pure seeded initialization).
///
/// `iters` is a cap: a round whose assignment pass, after the first,
/// moves no row ends the loop, because every later round would rebuild
/// the same centroid bits (see the module docs' fixed-point exit). The
/// result is bitwise that of all `iters` rounds.
///
/// Rows holding a non-finite value are left out of the clustering: the
/// centroids are bitwise those of `kmeans` over the finite rows alone
/// (`k` then clamps to their count), and the final pass assigns every
/// row, a NaN row to cluster 0 by [`assign`]'s rule. When no row is
/// finite, the rows are clustered as they are.
///
/// # Panics
/// Panics if `data` has more than `2^27` rows (the init's argmax carries
/// a panel index in an f32 lane) or `k` is above `2^24`.
pub fn kmeans(data: &Matrix, k: usize, iters: usize, seed: u64) -> KMeans {
    if data.has_non_finite() {
        let finite: Vec<usize> = (0..data.rows())
            .filter(|&r| data.row(r).iter().all(|v| v.is_finite()))
            .collect();
        if !finite.is_empty() {
            let centroids = lloyd(&data.select_rows(&finite), k, iters, seed).centroids;
            let assignments = assign(data, &centroids);
            return KMeans {
                centroids,
                assignments,
            };
        }
    }
    lloyd(data, k, iters, seed)
}

/// [`kmeans`] over rows taken as they are.
fn lloyd(data: &Matrix, k: usize, iters: usize, seed: u64) -> KMeans {
    let n = data.rows();
    let d = data.cols();
    let k = k.min(n);
    if k == 0 {
        return KMeans {
            centroids: Matrix::zeros(0, d),
            assignments: Vec::new(),
        };
    }

    let panels = RowPanels::new(data);
    let chosen = farthest_point_init(&panels, n, k, seed);
    let mut centroids = data.select_rows(&chosen);
    let mut assignments = vec![0; n];

    for round in 0..iters {
        let moved = assign_pass(&panels, &centroids, &mut assignments);
        if round > 0 && !moved {
            // A fixed point: recentering would rebuild these centroids bit
            // for bit, and every later pass would repeat these cells.
            return KMeans {
                centroids,
                assignments,
            };
        }
        // Recenter: ascending-row scatter-add keeps the mean's summation
        // order fixed; empty clusters keep their previous centroid.
        let mut sums = Matrix::zeros(k, d);
        kernels::scatter_add_rows(&mut sums, &assignments, data);
        let mut counts = vec![0usize; k];
        for &a in &assignments {
            counts[a as usize] += 1;
        }
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let inv = 1.0 / count as f32;
            let src = sums.row(c);
            let dst = centroids.row_mut(c);
            for (x, &s) in dst.iter_mut().zip(src) {
                *x = s * inv;
            }
        }
    }

    assign_pass(&panels, &centroids, &mut assignments);
    KMeans {
        centroids,
        assignments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated blobs around (±5, ±5).
    fn blobs() -> Matrix {
        Matrix::from_fn(20, 2, |r, c| {
            let sign = if r < 10 { 5.0 } else { -5.0 };
            sign + ((r * 2 + c) as f32 * 0.37).sin() * 0.3
        })
    }

    /// `kmeans_wall`'s catalogue shape: `n` rows around `clusters` seeded
    /// centers in `[-2, 2)^d`, row `i` near center `i % clusters` with
    /// noise in `[-0.15, 0.15)`.
    fn clustered(n: usize, d: usize, clusters: usize, seed: u32) -> Matrix {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        };
        let centers: Vec<f32> = (0..clusters * d).map(|_| 4.0 * next()).collect();
        Matrix::from_fn(n, d, |r, c| centers[(r % clusters) * d + c] + 0.3 * next())
    }

    /// `kmeans(data, k, iters, seed)` and the assignment passes it ran.
    fn counted(data: &Matrix, k: usize, iters: usize, seed: u64) -> (KMeans, usize) {
        let before = PASSES.with(std::cell::Cell::get);
        let km = kmeans(data, k, iters, seed);
        (km, PASSES.with(std::cell::Cell::get) - before)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn nearest_reports_whether_a_row_moved() {
        // Nine points on a line (two panels, the second padded) around 1.5
        // and 12; row 8, at 3.0, is the one a centroid moved to 4.0 takes.
        let data = Matrix::from_vec(9, 1, vec![10.0, 11.0, 12.0, 13.0, 0.0, 1.0, 2.0, 14.0, 3.0]);
        let panels = RowPanels::new(&data);
        let mut cents = Matrix::from_vec(2, 1, vec![1.5, 12.0]);
        let mut out = vec![0; data.rows()];
        assert!(panels.nearest(&cents, &half_norms(&cents), &mut out));
        let settled = out.clone();
        assert_eq!(settled, [1, 1, 1, 1, 0, 0, 0, 1, 0]);
        assert!(!panels.nearest(&cents, &half_norms(&cents), &mut out));
        assert_eq!(out, settled);
        cents.set_row(1, &[4.0]);
        assert!(panels.nearest(&cents, &half_norms(&cents), &mut out));
        assert_eq!(out, [1, 1, 1, 1, 0, 0, 0, 1, 1]);
        assert!(!panels.nearest(&cents, &half_norms(&cents), &mut out));
    }

    #[test]
    fn lloyd_stops_at_its_fixed_point_with_the_same_bits() {
        for (data, k, seed) in [(blobs(), 2, 7), (clustered(16_384, 32, 64, 47), 64, 47)] {
            let (want, _) = counted(&data, k, 2, seed);
            for iters in [5, 50] {
                let (km, passes) = counted(&data, k, iters, seed);
                assert_eq!(passes, 2, "{} rows, iters {iters}", data.rows());
                assert_eq!(bits(&km.centroids), bits(&want.centroids));
                assert_eq!(km.assignments, want.assignments);
            }
        }
    }

    #[test]
    fn recovers_separated_clusters() {
        let data = blobs();
        let km = kmeans(&data, 2, 10, 7);
        assert_eq!(km.centroids.rows(), 2);
        assert_eq!(km.assignments.len(), 20);
        // All of the first blob lands in one cluster, the second in the
        // other.
        let first = km.assignments[0];
        assert!(km.assignments[..10].iter().all(|&a| a == first));
        assert!(km.assignments[10..].iter().all(|&a| a != first));
        // Centroids sit near the blob centers.
        for c in 0..2 {
            let row = km.centroids.row(c as usize);
            let near = (row[0].abs() - 5.0).abs() < 0.5 && (row[1].abs() - 5.0).abs() < 0.5;
            assert!(near, "centroid {c} at {row:?}");
        }
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let data = Matrix::from_fn(33, 7, |r, c| ((r * 13 + c * 5) as f32 * 0.11).sin());
        let a = kmeans(&data, 5, 6, 42);
        let b = kmeans(&data, 5, 6, 42);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids.rows(), b.centroids.rows());
        for (x, y) in a.centroids.as_slice().iter().zip(b.centroids.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn k_clamped_to_row_count() {
        let data = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
        let km = kmeans(&data, 10, 4, 0);
        assert_eq!(km.centroids.rows(), 3);
        // With k == n every row is its own cluster: assignments are a
        // permutation covering all centroids.
        let mut seen = km.assignments.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn empty_data_yields_empty_result() {
        let km = kmeans(&Matrix::zeros(0, 4), 3, 5, 1);
        assert_eq!(km.centroids.rows(), 0);
        assert!(km.assignments.is_empty());
    }

    #[test]
    fn zero_iters_is_a_consistent_seeded_partition() {
        let data = blobs();
        let km = kmeans(&data, 3, 0, 9);
        assert_eq!(km.assignments, assign(&data, &km.centroids));
    }

    #[test]
    fn non_finite_rows_take_no_part_in_the_clustering() {
        // 64 rows in 4 axis-aligned clusters, then NaN, +inf and -inf rows
        // (one entry or the whole row) spliced in among them.
        let clean = Matrix::from_fn(64, 4, |r, c| {
            let hub = if c == r / 16 { 10.0 } else { 0.0 };
            hub + ((r * 5 + c) as f32 * 0.7).sin() * 0.5
        });
        let bad: [(usize, [f32; 4]); 4] = [
            (5, [0.3, f32::NAN, 0.1, 0.2]),
            (20, [f32::INFINITY, 1.0, 1.0, 1.0]),
            (41, [f32::NAN; 4]),
            (60, [0.0, 0.0, f32::NEG_INFINITY, 0.0]),
        ];
        let n = clean.rows() + bad.len();
        let mut dirty = Matrix::zeros(n, 4);
        let mut clean_of = Vec::new(); // dirty row -> clean row, finite rows only
        let mut next = 0;
        for r in 0..n {
            match bad.iter().find(|(at, _)| *at == r) {
                Some((_, row)) => dirty.set_row(r, row),
                None => {
                    dirty.set_row(r, clean.row(next));
                    clean_of.push((r, next));
                    next += 1;
                }
            }
        }
        let mut first_centre_was_bad = false;
        for seed in 0..32u64 {
            let mut state = seed ^ 0xD1B5_4A32_D192_ED03;
            let first = (splitmix64(&mut state) % n as u64) as usize;
            first_centre_was_bad |= bad.iter().any(|(at, _)| *at == first);
            let want = kmeans(&clean, 4, 8, seed);
            let got = kmeans(&dirty, 4, 8, seed);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.centroids), bits(&want.centroids), "seed {seed}");
            for &(r, c) in &clean_of {
                assert_eq!(
                    got.assignments[r], want.assignments[c],
                    "seed {seed} row {r}"
                );
            }
            assert_eq!(got.assignments, assign(&dirty, &got.centroids));
            let mut sizes = [0usize; 4];
            for &(r, _) in &clean_of {
                sizes[got.assignments[r] as usize] += 1;
            }
            assert_eq!(sizes, [16; 4], "seed {seed}: the four clusters are found");
        }
        assert!(
            first_centre_was_bad,
            "no seed drew a non-finite first centre"
        );
    }

    #[test]
    fn assignment_ties_break_to_lowest_index() {
        // Two identical centroids: everything must go to index 0.
        let data = Matrix::from_fn(4, 2, |r, _| r as f32);
        let centroids = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        assert_eq!(assign(&data, &centroids), vec![0, 0, 0, 0]);
    }
}
