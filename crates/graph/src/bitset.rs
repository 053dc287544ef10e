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
    /// candidates per load.
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

    /// The sub-matrix of the contiguous column range `[start, start+len)`:
    /// bit `(r, c)` of the slice equals bit `(r, start + c)` of `self`.
    ///
    /// The sharded serving tier slices one catalogue-wide seen-filter
    /// into per-shard item ranges with this, so each shard probes a
    /// filter indexed by its *local* item ids. Built word-at-a-time (a
    /// shift-and-or across adjacent source words), not bit-at-a-time.
    ///
    /// # Panics
    /// Panics if `start + len > cols`.
    pub fn slice_cols(&self, start: usize, len: usize) -> BitMatrix {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.cols),
            "column range [{start}, {start}+{len}) out of bounds ({} cols)",
            self.cols
        );
        let mut out = BitMatrix::zeros(self.rows, len);
        let (base, shift) = (start / 64, start % 64);
        for r in 0..self.rows {
            let src = self.row_words(r);
            let dst = &mut out.words[r * out.words_per_row..(r + 1) * out.words_per_row];
            for (j, w) in dst.iter_mut().enumerate() {
                let lo = src.get(base + j).copied().unwrap_or(0) >> shift;
                // `>> 64` is UB-adjacent in Rust (it panics in debug,
                // wraps in release), so the shift==0 case must not read
                // the next word at all.
                let hi = if shift == 0 {
                    0
                } else {
                    src.get(base + j + 1).copied().unwrap_or(0) << (64 - shift)
                };
                *w = lo | hi;
            }
            // Clear bits past `len` in the final word: `count` assumes
            // trailing bits are zero.
            if !len.is_multiple_of(64) {
                if let Some(last) = dst.last_mut() {
                    *last &= (1u64 << (len % 64)) - 1;
                }
            }
        }
        out
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

    #[test]
    fn slice_cols_matches_per_bit_membership() {
        // Dense-ish pseudo-random pattern over a shape that exercises
        // word-straddling slices.
        let mut m = BitMatrix::zeros(3, 200);
        for r in 0..3usize {
            for c in 0..200usize {
                if (r * 7 + c * 13) % 5 == 0 {
                    m.set(r, c);
                }
            }
        }
        for (start, len) in [
            (0usize, 200usize),
            (0, 64),
            (1, 63),
            (63, 2),
            (64, 64),
            (77, 101),
            (130, 70),
            (199, 1),
            (50, 0),
            (200, 0),
        ] {
            let s = m.slice_cols(start, len);
            assert_eq!((s.rows(), s.cols()), (3, len), "range {start}+{len}");
            let mut expect_count = 0usize;
            for r in 0..3 {
                for c in 0..len {
                    assert_eq!(
                        s.contains(r, c),
                        m.contains(r, start + c),
                        "bit ({r}, {c}) of range {start}+{len}"
                    );
                    expect_count += usize::from(m.contains(r, start + c));
                }
            }
            // Trailing bits past `len` stayed clear.
            assert_eq!(s.count(), expect_count, "range {start}+{len}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_cols_checks_bounds() {
        BitMatrix::zeros(2, 10).slice_cols(5, 6);
    }
}
