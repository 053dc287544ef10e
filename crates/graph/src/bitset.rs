//! Dense bitset membership structures.
//!
//! The serving layer must answer "has user `u` already interacted with
//! item `n`?" millions of times per second while filtering candidates.
//! The CSR adjacency answers that in `O(log degree)` via binary search;
//! [`BitMatrix`] trades `rows x cols / 8` bytes for an `O(1)` word probe,
//! which is the right call on the hot path (30k items = 3.8 KB per user).

use crate::Csr;

/// A dense `rows x cols` bit matrix (row-major, 64-bit words).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// An all-zero `rows x cols` bit matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        Self {
            rows,
            cols,
            words_per_row,
            words: vec![0; rows * words_per_row],
        }
    }

    /// Builds the membership matrix of a CSR adjacency: bit `(u, v)` is
    /// set iff `v` is a neighbour of `u`. `n_cols` must bound every
    /// neighbour id (e.g. the item count for a user→item CSR).
    pub fn from_csr(csr: &Csr, n_cols: usize) -> Self {
        let mut m = Self::zeros(csr.n_nodes(), n_cols);
        for u in 0..csr.n_nodes() as u32 {
            for &v in csr.neighbors(u) {
                m.set(u as usize, v as usize);
            }
        }
        m
    }

    /// Builds from per-row neighbour lists (ids must be `< n_cols`).
    pub fn from_rows(rows: &[Vec<u32>], n_cols: usize) -> Self {
        let mut m = Self::zeros(rows.len(), n_cols);
        for (r, list) in rows.iter().enumerate() {
            for &c in list {
                m.set(r, c as usize);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sets bit `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize) {
        assert!(
            r < self.rows && c < self.cols,
            "bit ({r}, {c}) out of bounds"
        );
        self.words[r * self.words_per_row + c / 64] |= 1u64 << (c % 64);
    }

    /// Whether bit `(r, c)` is set.
    #[inline]
    pub fn contains(&self, r: usize, c: usize) -> bool {
        debug_assert!(
            r < self.rows && c < self.cols,
            "bit ({r}, {c}) out of bounds"
        );
        self.words[r * self.words_per_row + c / 64] >> (c % 64) & 1 == 1
    }

    /// The 64-bit words of row `r` (bit `c` of the row lives in word
    /// `c / 64` at position `c % 64`). Lets scoring loops test 64
    /// candidates per load. Bits past `cols` in the last word are always
    /// clear, so a probe past the columns reads unset.
    #[inline]
    pub fn row_words(&self, r: usize) -> &[u64] {
        debug_assert!(r < self.rows, "row {r} out of bounds");
        &self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Total number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Heap footprint of the bit store in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_probe() {
        let mut m = BitMatrix::zeros(3, 130);
        m.set(0, 0);
        m.set(1, 63);
        m.set(1, 64);
        m.set(2, 129);
        assert!(m.contains(0, 0) && m.contains(1, 63) && m.contains(1, 64));
        assert!(m.contains(2, 129));
        assert!(!m.contains(0, 1) && !m.contains(2, 0) && !m.contains(0, 129));
        assert_eq!(m.count(), 4);
    }

    #[test]
    fn matches_csr_membership() {
        let csr = Csr::from_edges(4, &[(0, 5), (0, 1), (2, 0), (3, 7), (3, 7)]);
        let m = BitMatrix::from_csr(&csr, 8);
        for u in 0..4u32 {
            for v in 0..8u32 {
                assert_eq!(
                    m.contains(u as usize, v as usize),
                    csr.contains(u, v),
                    "mismatch at ({u}, {v})"
                );
            }
        }
        assert_eq!(m.count(), csr.n_edges());
    }

    #[test]
    fn from_rows_matches_lists() {
        let rows = vec![vec![0u32, 64, 65], vec![], vec![127]];
        let m = BitMatrix::from_rows(&rows, 128);
        assert!(m.contains(0, 0) && m.contains(0, 64) && m.contains(0, 65));
        assert!(m.row_words(1).iter().all(|&w| w == 0));
        assert!(m.contains(2, 127));
        assert_eq!(m.size_bytes(), 3 * 2 * 8);
    }

    #[test]
    fn row_words_expose_bit_layout() {
        let mut m = BitMatrix::zeros(1, 70);
        m.set(0, 2);
        m.set(0, 69);
        let words = m.row_words(0);
        assert_eq!(words.len(), 2);
        assert_eq!(words[0], 1 << 2);
        assert_eq!(words[1], 1 << 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_checks_bounds() {
        BitMatrix::zeros(2, 10).set(0, 10);
    }
}
