//! Compressed sparse row (CSR) matrices.
//!
//! The transition matrix of a Markov chain induced by a positional strategy in
//! the selfish-mining MDP is extremely sparse (each state has at most a few
//! dozen successors out of potentially hundreds of thousands of states), so
//! the Markov-chain routines in `sm-markov` operate on this type.
//!
//! Column indices and the row-pointer table are stored as `u32`: the largest
//! attack topologies stay far below four billion states/entries, and halving
//! the index width halves the sweep kernels' resident working set. The
//! triplet constructor converts its `usize` indices with overflow *checks*
//! ([`LinalgError::IndexOverflow`]) — a topology that genuinely exceeds
//! `u32::MAX` fails loudly instead of wrapping.

use crate::LinalgError;

/// The largest index or entry count the compact CSR storage can hold.
const COMPACT_INDEX_LIMIT: usize = u32::MAX as usize;

/// Checked `usize` → `u32` conversion for compact sparse storage.
#[inline]
pub(crate) fn compact_index(value: usize) -> Result<u32, LinalgError> {
    u32::try_from(value).map_err(|_| LinalgError::IndexOverflow {
        value,
        limit: COMPACT_INDEX_LIMIT,
    })
}

/// A `(row, col, value)` entry used to assemble a [`CsrMatrix`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triplet {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
    /// Value stored at `(row, col)`.
    pub value: f64,
}

impl Triplet {
    /// Convenience constructor.
    pub fn new(row: usize, col: usize, value: f64) -> Self {
        Triplet { row, col, value }
    }
}

/// A compressed sparse row matrix of `f64` values with `u32` indices.
///
/// # Example
///
/// ```
/// use sm_linalg::{CsrMatrix, Triplet};
///
/// # fn main() -> Result<(), sm_linalg::LinalgError> {
/// let m = CsrMatrix::from_triplets(2, 2, &[
///     Triplet::new(0, 0, 0.5),
///     Triplet::new(0, 1, 0.5),
///     Triplet::new(1, 1, 1.0),
/// ])?;
/// assert_eq!(m.nnz(), 3);
/// assert_eq!(m.row(0), (&[0u32, 1][..], &[0.5, 0.5][..]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    /// Row pointer array of length `rows + 1`.
    row_ptr: Vec<u32>,
    /// Column indices, sorted within each row.
    col_idx: Vec<u32>,
    /// Non-zero values aligned with `col_idx`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from triplets. Duplicate `(row, col)` entries are
    /// summed. Entries equal to zero are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] if any triplet lies outside
    /// the `rows x cols` shape, [`LinalgError::InvalidValue`] if a value is
    /// not finite and [`LinalgError::IndexOverflow`] if an index or the entry
    /// count exceeds the compact `u32` storage.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[Triplet],
    ) -> Result<Self, LinalgError> {
        for t in triplets {
            if t.row >= rows {
                return Err(LinalgError::IndexOutOfBounds {
                    index: t.row,
                    len: rows,
                });
            }
            if t.col >= cols {
                return Err(LinalgError::IndexOutOfBounds {
                    index: t.col,
                    len: cols,
                });
            }
            if !t.value.is_finite() {
                return Err(LinalgError::InvalidValue {
                    context: "sparse matrix entry",
                });
            }
        }
        // Count entries per row, then bucket and merge duplicates.
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
        for t in triplets {
            per_row[t.row].push((t.col, t.value));
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        row_ptr.push(0u32);
        for row in per_row.iter_mut() {
            row.sort_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let col = row[i].0;
                let mut sum = 0.0;
                while i < row.len() && row[i].0 == col {
                    sum += row[i].1;
                    i += 1;
                }
                if sum != 0.0 {
                    col_idx.push(compact_index(col)?);
                    values.push(sum);
                }
            }
            row_ptr.push(compact_index(col_idx.len())?);
        }
        Ok(CsrMatrix {
            rows,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds a CSR matrix directly from its compact raw arrays, validating
    /// the invariants the accessors rely on: `row_ptr` must have length
    /// `rows + 1`, start at 0, be non-decreasing and end at the number of
    /// stored entries; column indices must be strictly increasing within each
    /// row and in bounds; values must be finite.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for malformed pointer
    /// arrays, [`LinalgError::IndexOutOfBounds`] for out-of-range columns and
    /// [`LinalgError::InvalidValue`] for non-finite values or unsorted /
    /// duplicate columns within a row.
    pub fn from_raw_parts_u32(
        rows: usize,
        cols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, LinalgError> {
        if row_ptr.len() != rows + 1 || row_ptr.first() != Some(&0) {
            return Err(LinalgError::DimensionMismatch {
                operation: "csr from raw parts (row_ptr length)",
                expected: rows + 1,
                actual: row_ptr.len(),
            });
        }
        if col_idx.len() != values.len() || row_ptr[rows] as usize != col_idx.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "csr from raw parts (entry count)",
                expected: row_ptr[rows] as usize,
                actual: col_idx.len(),
            });
        }
        for row in 0..rows {
            let (start, end) = (row_ptr[row] as usize, row_ptr[row + 1] as usize);
            if start > end || end > col_idx.len() {
                return Err(LinalgError::DimensionMismatch {
                    operation: "csr from raw parts (row_ptr monotonicity)",
                    expected: start,
                    actual: end,
                });
            }
            for k in start..end {
                if col_idx[k] as usize >= cols {
                    return Err(LinalgError::IndexOutOfBounds {
                        index: col_idx[k] as usize,
                        len: cols,
                    });
                }
                if k > start && col_idx[k] <= col_idx[k - 1] {
                    return Err(LinalgError::InvalidValue {
                        context: "unsorted or duplicate column within csr row",
                    });
                }
                if !values[k].is_finite() {
                    return Err(LinalgError::InvalidValue {
                        context: "sparse matrix entry",
                    });
                }
            }
        }
        Ok(CsrMatrix {
            rows,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of explicitly stored non-zero entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the column indices and values of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> (&[u32], &[f64]) {
        assert!(row < self.rows, "row index out of bounds");
        let start = self.row_ptr[row] as usize;
        let end = self.row_ptr[row + 1] as usize;
        (&self.col_idx[start..end], &self.values[start..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                Triplet::new(0, 0, 0.5),
                Triplet::new(0, 2, 0.5),
                Triplet::new(1, 1, 1.0),
                Triplet::new(2, 0, 0.25),
                Triplet::new(2, 1, 0.25),
                Triplet::new(2, 2, 0.5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_triplets_sums_duplicates_and_drops_zeros() {
        let m = CsrMatrix::from_triplets(
            1,
            2,
            &[
                Triplet::new(0, 0, 0.25),
                Triplet::new(0, 0, 0.75),
                Triplet::new(0, 1, 0.0),
            ],
        )
        .unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.row(0), (&[0u32][..], &[1.0][..]));
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds_and_nan() {
        assert!(matches!(
            CsrMatrix::from_triplets(1, 1, &[Triplet::new(1, 0, 1.0)]),
            Err(LinalgError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            CsrMatrix::from_triplets(1, 1, &[Triplet::new(0, 0, f64::NAN)]),
            Err(LinalgError::InvalidValue { .. })
        ));
    }

    #[test]
    fn row_view_is_sorted_by_column() {
        let m = sample();
        let (cols, vals) = m.row(2);
        assert_eq!(cols, &[0u32, 1, 2]);
        assert_eq!(vals, &[0.25, 0.25, 0.5]);
    }

    #[test]
    fn from_raw_parts_validates_invariants() {
        // row_ptr wrong length.
        assert!(matches!(
            CsrMatrix::from_raw_parts_u32(2, 2, vec![0, 1], vec![0], vec![1.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        // row_ptr not starting at zero.
        assert!(matches!(
            CsrMatrix::from_raw_parts_u32(1, 1, vec![1, 1], vec![], vec![]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        // Entry count mismatch.
        assert!(matches!(
            CsrMatrix::from_raw_parts_u32(1, 2, vec![0, 2], vec![0], vec![1.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        // Non-monotone row_ptr.
        assert!(matches!(
            CsrMatrix::from_raw_parts_u32(2, 2, vec![0, 2, 1], vec![0], vec![1.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        // Column out of bounds.
        assert!(matches!(
            CsrMatrix::from_raw_parts_u32(1, 1, vec![0, 1], vec![3], vec![1.0]),
            Err(LinalgError::IndexOutOfBounds { .. })
        ));
        // Unsorted columns within a row.
        assert!(matches!(
            CsrMatrix::from_raw_parts_u32(1, 3, vec![0, 2], vec![2, 0], vec![0.5, 0.5]),
            Err(LinalgError::InvalidValue { .. })
        ));
        // Duplicate columns within a row.
        assert!(matches!(
            CsrMatrix::from_raw_parts_u32(1, 3, vec![0, 2], vec![1, 1], vec![0.5, 0.5]),
            Err(LinalgError::InvalidValue { .. })
        ));
        // Non-finite value.
        assert!(matches!(
            CsrMatrix::from_raw_parts_u32(1, 1, vec![0, 1], vec![0], vec![f64::NAN]),
            Err(LinalgError::InvalidValue { .. })
        ));
        // A well-formed empty row is fine.
        let m = CsrMatrix::from_raw_parts_u32(2, 2, vec![0, 0, 1], vec![1], vec![2.0]).unwrap();
        assert_eq!(m.row(0), (&[][..], &[][..]));
        assert_eq!(m.row(1), (&[1u32][..], &[2.0][..]));
    }

    #[test]
    fn usize_inputs_beyond_u32_fail_with_the_typed_overflow_error() {
        // Only the column index is out of the compact range, so the matrix
        // shape stays tiny — no giant allocations needed to exercise the
        // overflow path.
        let too_big = u32::MAX as usize + 1;
        assert_eq!(
            CsrMatrix::from_triplets(1, too_big + 1, &[Triplet::new(0, too_big, 1.0)]).unwrap_err(),
            LinalgError::IndexOverflow {
                value: too_big,
                limit: COMPACT_INDEX_LIMIT,
            }
        );
    }
}
