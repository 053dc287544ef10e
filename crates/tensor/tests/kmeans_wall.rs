//! Bitwise wall for `gb_tensor::kmeans`: the centroids and assignments of
//! seeded runs at the shapes the serving tier clusters, and of the inputs
//! that reach the scans' corners, must reproduce FNV-1a fingerprints
//! recorded when every distance still went through `matmul_nt` and
//! per-row `dot` calls.
//!
//! The IVF tests in `gb-serve` compare one build with another; this wall
//! holds the clustering itself to recorded bits. A deliberate numerics
//! change re-records the constants and says so; a refactor or an
//! optimisation never touches them.

use gb_tensor::kmeans::{assign, kmeans, KMeans};
use gb_tensor::Matrix;

/// FNV-1a over bytes; `f32`s hash as their little-endian bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn matrix(&mut self, m: &Matrix) {
        m.as_slice()
            .iter()
            .for_each(|&x| self.bytes(&x.to_bits().to_le_bytes()));
    }

    fn ids(&mut self, ids: &[u32]) {
        ids.iter().for_each(|&i| self.bytes(&i.to_le_bytes()));
    }
}

/// Hash of a run's centroid bits, then its assignments.
fn fingerprint(km: &KMeans) -> u64 {
    let mut h = Fnv::new();
    h.matrix(&km.centroids);
    h.ids(&km.assignments);
    h.0
}

/// A seeded stream of floats uniform in `[-0.5, 0.5)`.
struct Stream(u32);

impl Stream {
    fn next(&mut self) -> f32 {
        self.0 = self.0.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (self.0 >> 8) as f32 / (1u32 << 24) as f32 - 0.5
    }
}

/// `n` rows around `clusters` seeded centers, row `i` drawn near center
/// `i % clusters`: the shape of a catalogue whose items group by category.
fn clustered(n: usize, d: usize, clusters: usize, seed: u32) -> Matrix {
    let mut s = Stream(seed);
    let centers: Vec<f32> = (0..clusters * d).map(|_| 4.0 * s.next()).collect();
    Matrix::from_fn(n, d, |r, c| {
        centers[(r % clusters) * d + c] + 0.3 * s.next()
    })
}

/// `n` seeded rows with no structure.
fn uniform(n: usize, d: usize, seed: u32) -> Matrix {
    let mut s = Stream(seed);
    Matrix::from_fn(n, d, |_, _| s.next())
}

#[test]
fn the_serving_shape_is_pinned() {
    // One `serve_sharded_ivf` smoke shard: 16 384 rows of width 32, 64
    // cells, the IVF index's five Lloyd rounds.
    let km = kmeans(&clustered(16_384, 32, 64, 47), 64, 5, 47);
    assert_eq!(fingerprint(&km), 14_949_848_379_178_212_081);
}

#[test]
fn the_freshness_index_shape_is_pinned() {
    // `freshness`' item index: 400 rows of width 384, 16 cells.
    let km = kmeans(&uniform(400, 384, 400), 16, 5, 3);
    assert_eq!(fingerprint(&km), 12_659_958_495_655_340_051);
}

#[test]
fn a_column_tail_is_pinned() {
    // Width 13: one whole lane chunk and a five-column tail; 1 003 rows
    // leave a three-row last panel.
    let km = kmeans(&clustered(1_003, 13, 7, 13), 5, 5, 11);
    assert_eq!(fingerprint(&km), 3_570_117_518_494_933_620);
}

#[test]
fn fewer_rows_than_a_panel_are_pinned() {
    let km = kmeans(&uniform(7, 20, 7), 3, 4, 5);
    assert_eq!(fingerprint(&km), 8_184_342_546_920_613_308);
}

#[test]
fn ties_and_more_cells_than_distinct_rows_are_pinned() {
    // 64 rows that repeat five distinct ones, one of them all zeros, into
    // 12 cells: the maxmin scan meets equal distances and picks repeated
    // rows, and the assignment meets equal centroids.
    let base = uniform(5, 9, 64);
    let data = Matrix::from_fn(64, 9, |r, c| match r * 7 % 5 {
        0 => 0.0,
        b => base.get(b, c),
    });
    let km = kmeans(&data, 12, 3, 1);
    assert_eq!(fingerprint(&km), 6_240_603_977_646_503_113);
}

#[test]
fn assign_with_non_finite_entries_is_pinned() {
    // A NaN row, an infinite row and ordinary rows against finite
    // centroids; then centroids whose first half-norm is NaN, so every
    // row's first distance is NaN and stays the minimum.
    let mut data = uniform(11, 10, 5).as_slice().to_vec();
    data[3 * 10 + 4] = f32::NAN;
    data[6 * 10] = f32::INFINITY;
    data[8 * 10 + 9] = f32::NEG_INFINITY;
    let data = Matrix::from_vec(11, 10, data);
    let centroids = uniform(4, 10, 9);
    let mut h = Fnv::new();
    h.ids(&assign(&data, &centroids));
    let mut nan_first = centroids.as_slice().to_vec();
    nan_first[2] = f32::NAN;
    h.ids(&assign(&data, &Matrix::from_vec(4, 10, nan_first)));
    assert_eq!(h.0, 7_933_660_519_219_903_094);
}
