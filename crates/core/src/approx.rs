//! Approximate (quantised) vectors `P⁽ᴬ⁾` and `W⁽ᴬ⁾`, with the bit-string
//! compression of paper §3.2.
//!
//! [`ApproxVectors`] stores one byte per dimension — the fast scan format.
//! [`PackedApproxVectors`] stores exactly `b = log₂ n` bits per dimension
//! (the paper's Figure 6 shows `p⁽ᵃ⁾ = (2, 0, 2)` packed into the 6-bit
//! string `100010`), cutting approximate-vector storage to `b/64` of the
//! original 64-bit float data. Both formats round-trip losslessly.

use crate::grid::GridTable;
use rrq_types::{PointSet, WeightSet};

/// Byte-per-dimension approximate vectors (scan format).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApproxVectors {
    dim: usize,
    cells: Vec<u8>,
}

impl ApproxVectors {
    /// Quantises every point of `points` with `grid`'s point partitions.
    pub fn from_points<G: GridTable>(grid: &G, points: &PointSet) -> Self {
        let dim = points.dim();
        let mut cells = Vec::with_capacity(points.len() * dim);
        for (_, p) in points.iter() {
            cells.extend(p.iter().map(|&v| grid.point_cell(v)));
        }
        Self { dim, cells }
    }

    /// Quantises every weight of `weights` with `grid`'s weight
    /// partitions.
    pub fn from_weights<G: GridTable>(grid: &G, weights: &WeightSet) -> Self {
        let dim = weights.dim();
        let mut cells = Vec::with_capacity(weights.len() * dim);
        for (_, w) in weights.iter() {
            cells.extend(w.iter().map(|&v| grid.weight_cell(v)));
        }
        Self { dim, cells }
    }

    /// Quantises a single vector (e.g. a query point) with the point
    /// partitions.
    pub fn quantize_point<G: GridTable>(grid: &G, v: &[f64]) -> Vec<u8> {
        v.iter().map(|&x| grid.point_cell(x)).collect()
    }

    /// An empty collection of `dim`-dimensional rows.
    pub(crate) fn empty(dim: usize) -> Self {
        Self {
            dim,
            cells: Vec::new(),
        }
    }

    /// Appends point `v`, quantised with `grid`'s point partitions.
    pub(crate) fn push_point<G: GridTable>(&mut self, grid: &G, v: &[f64]) {
        self.cells.extend(v.iter().map(|&x| grid.point_cell(x)));
    }

    /// `Σ row[k]` per row: the per-point constant of the blocked scan's
    /// integer-domain upper-bound sum.
    pub(crate) fn row_sums(&self) -> Vec<u32> {
        self.iter()
            .map(|row| row.iter().map(|&c| c as u32).sum())
            .collect()
    }

    /// Dimension-major copy, `cols[k · len + i] = row_i[k]`: the blocked
    /// scan's multiply-accumulate reads 64 contiguous cells per dimension
    /// and multiplies them by one broadcast weight cell, which vectorises
    /// — the row-major layout cannot.
    pub(crate) fn columns(&self) -> Vec<u8> {
        let n = self.len();
        let mut cols = vec![0u8; self.cells.len()];
        for (i, row) in self.iter().enumerate() {
            for (k, &c) in row.iter().enumerate() {
                cols[k * n + i] = c;
            }
        }
        cols
    }

    /// Number of vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Whether the collection is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u8] {
        &self.cells[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterates over rows.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.cells.chunks_exact(self.dim)
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.cells.len()
    }

    /// Borrow the flat row-major cell storage (hot scan loops index it
    /// directly to avoid per-row slicing overhead).
    #[inline]
    pub fn as_flat(&self) -> &[u8] {
        &self.cells
    }
}

/// Bit-packed approximate vectors: `bits` bits per dimension, rows packed
/// back to back in a `u64` little-endian bit stream (paper §3.2 /
/// Figure 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedApproxVectors {
    dim: usize,
    bits: u32,
    len: usize,
    words: Vec<u64>,
}

impl PackedApproxVectors {
    /// Packs byte-format approximate vectors using `bits` bits per
    /// dimension.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 8` and every cell fits in `bits` bits.
    pub fn pack(approx: &ApproxVectors, bits: u32) -> Self {
        assert!((1..=8).contains(&bits), "bits per dimension must be 1..=8");
        let max = if bits == 8 {
            u8::MAX
        } else {
            (1u8 << bits) - 1
        };
        let dim = approx.dim();
        let len = approx.len();
        let total_bits = (len * dim) as u64 * bits as u64;
        let mut words = vec![0u64; total_bits.div_ceil(64) as usize];
        let mut bitpos = 0u64;
        for row in approx.iter() {
            for &cell in row {
                assert!(cell <= max, "cell {cell} does not fit in {bits} bits");
                let word = (bitpos / 64) as usize;
                let off = bitpos % 64;
                words[word] |= (cell as u64) << off;
                let spill = off + bits as u64;
                if spill > 64 {
                    words[word + 1] |= (cell as u64) >> (64 - off);
                }
                bitpos += bits as u64;
            }
        }
        Self {
            dim,
            bits,
            len,
            words,
        }
    }

    /// The number of bits a grid with `n` partitions needs per dimension:
    /// `⌈log₂ n⌉`.
    pub fn bits_for_partitions(n: usize) -> u32 {
        assert!(n >= 2);
        usize::BITS - (n - 1).leading_zeros()
    }

    /// Number of vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the collection is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Bits per dimension.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Decodes row `i` into `out` (length `dim`).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim` or `i` is out of bounds (debug).
    #[inline]
    pub fn decode_row(&self, i: usize, out: &mut [u8]) {
        assert_eq!(out.len(), self.dim);
        debug_assert!(i < self.len);
        let mask = if self.bits == 8 {
            u64::from(u8::MAX)
        } else {
            (1u64 << self.bits) - 1
        };
        let mut bitpos = (i * self.dim) as u64 * self.bits as u64;
        for cell in out.iter_mut() {
            let word = (bitpos / 64) as usize;
            let off = bitpos % 64;
            let mut v = self.words[word] >> off;
            let spill = off + self.bits as u64;
            if spill > 64 {
                v |= self.words[word + 1] << (64 - off);
            }
            *cell = (v & mask) as u8;
            bitpos += self.bits as u64;
        }
    }

    /// Unpacks everything back to the byte format.
    pub fn unpack(&self) -> ApproxVectors {
        let mut cells = vec![0u8; self.len * self.dim];
        for i in 0..self.len {
            self.decode_row(i, &mut cells[i * self.dim..(i + 1) * self.dim]);
        }
        ApproxVectors {
            dim: self.dim,
            cells,
        }
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Borrow the packed payload words (for persistence).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reassembles a packed collection from its raw parts (the inverse
    /// of the accessors; used by the persistence layer).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=8` or the word count does not
    /// match `len · dim · bits` bits.
    pub fn from_parts(dim: usize, bits: u32, len: usize, words: Vec<u64>) -> Self {
        assert!((1..=8).contains(&bits), "bits per dimension must be 1..=8");
        let expected = ((len * dim) as u64 * bits as u64).div_ceil(64) as usize;
        assert_eq!(words.len(), expected, "payload size mismatch");
        Self {
            dim,
            bits,
            len,
            words,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrq_data::synthetic;

    use crate::grid::Grid;

    fn grid() -> Grid {
        Grid::new(4, 1.0)
    }

    #[test]
    fn figure_6_packing() {
        // p⁽ᵃ⁾ = (2, 0, 2) with b = 2 → bit-string (LSB-first here):
        // 10 00 10.
        let av = ApproxVectors {
            dim: 3,
            cells: vec![2, 0, 2],
        };
        let packed = PackedApproxVectors::pack(&av, 2);
        assert_eq!(packed.words[0] & 0b11_11_11, 0b10_00_10);
        let mut out = [0u8; 3];
        packed.decode_row(0, &mut out);
        assert_eq!(out, [2, 0, 2]);
    }

    #[test]
    fn from_points_matches_grid_cells() {
        let ps = synthetic::uniform_points(3, 50, 1.0, 1).unwrap();
        let g = grid();
        let av = ApproxVectors::from_points(&g, &ps);
        assert_eq!(av.len(), 50);
        assert_eq!(av.dim(), 3);
        for (i, (_, p)) in ps.iter().enumerate() {
            for (k, &v) in p.iter().enumerate() {
                assert_eq!(av.row(i)[k], g.point_cell(v));
            }
        }
    }

    #[test]
    fn from_weights_matches_grid_cells() {
        let ws = synthetic::uniform_weights(4, 50, 2).unwrap();
        let g = Grid::new(32, 1.0);
        let av = ApproxVectors::from_weights(&g, &ws);
        for (i, (_, w)) in ws.iter().enumerate() {
            for (k, &v) in w.iter().enumerate() {
                assert_eq!(av.row(i)[k], g.weight_cell(v));
            }
        }
    }

    #[test]
    fn pack_round_trips_across_bit_widths() {
        for n in [2usize, 4, 16, 32, 64, 128, 255] {
            let bits = PackedApproxVectors::bits_for_partitions(n);
            let g = Grid::new(n, 10_000.0);
            let ps = synthetic::uniform_points(7, 300, 10_000.0, n as u64).unwrap();
            let av = ApproxVectors::from_points(&g, &ps);
            let packed = PackedApproxVectors::pack(&av, bits);
            assert_eq!(packed.unpack(), av, "n = {n}");
        }
    }

    #[test]
    fn bits_for_partitions_is_ceil_log2() {
        assert_eq!(PackedApproxVectors::bits_for_partitions(2), 1);
        assert_eq!(PackedApproxVectors::bits_for_partitions(4), 2);
        assert_eq!(PackedApproxVectors::bits_for_partitions(5), 3);
        assert_eq!(PackedApproxVectors::bits_for_partitions(32), 5);
        assert_eq!(PackedApproxVectors::bits_for_partitions(33), 6);
        assert_eq!(PackedApproxVectors::bits_for_partitions(128), 7);
        assert_eq!(PackedApproxVectors::bits_for_partitions(256), 8);
    }

    #[test]
    fn packed_is_much_smaller_than_floats() {
        // §3.2: with b = 6 the approximate vectors cost less than 1/10 of
        // the original 64-bit data.
        let g = Grid::new(64, 10_000.0);
        let ps = synthetic::uniform_points(6, 1000, 10_000.0, 9).unwrap();
        let av = ApproxVectors::from_points(&g, &ps);
        let packed = PackedApproxVectors::pack(&av, 6);
        let original = ps.as_flat().len() * 8;
        assert!(
            packed.memory_bytes() * 10 <= original,
            "packed {} vs original {original}",
            packed.memory_bytes()
        );
    }

    #[test]
    fn decode_row_handles_word_boundaries() {
        // 7-bit cells force straddling of 64-bit word boundaries.
        let cells: Vec<u8> = (0..100u8).map(|i| i % 128).collect();
        let av = ApproxVectors { dim: 10, cells };
        let packed = PackedApproxVectors::pack(&av, 7);
        assert_eq!(packed.unpack(), av);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn pack_rejects_oversized_cells() {
        let av = ApproxVectors {
            dim: 1,
            cells: vec![4],
        };
        PackedApproxVectors::pack(&av, 2);
    }

    #[test]
    fn empty_collections() {
        let av = ApproxVectors {
            dim: 3,
            cells: vec![],
        };
        assert!(av.is_empty());
        let packed = PackedApproxVectors::pack(&av, 2);
        assert!(packed.is_empty());
        assert_eq!(packed.unpack(), av);
    }

    #[test]
    fn quantize_point_matches_rows() {
        let g = grid();
        let q = [0.62, 0.15, 0.73];
        assert_eq!(ApproxVectors::quantize_point(&g, &q), vec![2, 0, 2]);
    }
}
