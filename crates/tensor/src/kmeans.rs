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
//!
//! Lloyd's update is used verbatim: assign each row to the nearest
//! centroid under squared Euclidean distance, then recenter each cluster
//! on the mean of its members. `argmin_j ‖x − c_j‖²` is computed as
//! `argmin_j (½‖c_j‖² − x·c_j)`, a per-centroid norm minus a dot product.
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
/// # Panics
/// Panics if `data` has more than `2^27` rows (the init's argmax carries
/// a panel index in an f32 lane) or `k` is above `2^24`.
pub fn kmeans(data: &Matrix, k: usize, iters: usize, seed: u64) -> KMeans {
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

    for _ in 0..iters {
        panels.nearest(&centroids, &half_norms(&centroids), &mut assignments);
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

    panels.nearest(&centroids, &half_norms(&centroids), &mut assignments);
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
    fn assignment_ties_break_to_lowest_index() {
        // Two identical centroids: everything must go to index 0.
        let data = Matrix::from_fn(4, 2, |r, _| r as f32);
        let centroids = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        assert_eq!(assign(&data, &centroids), vec![0, 0, 0, 0]);
    }
}
