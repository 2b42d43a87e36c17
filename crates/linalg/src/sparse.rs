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
//! `usize`-taking constructors convert with overflow *checks*
//! ([`LinalgError::IndexOverflow`]) — a topology that genuinely exceeds
//! `u32::MAX` fails loudly instead of wrapping.

use crate::LinalgError;

/// The largest index or entry count the compact CSR storage can hold.
pub const COMPACT_INDEX_LIMIT: usize = u32::MAX as usize;

/// Checked `usize` → `u32` conversion for compact sparse storage.
#[inline]
pub(crate) fn compact_index(value: usize) -> Result<u32, LinalgError> {
    u32::try_from(value).map_err(|_| LinalgError::IndexOverflow {
        value,
        limit: COMPACT_INDEX_LIMIT,
    })
}

/// Checked conversion of a whole `usize` index array.
pub(crate) fn compact_indices(values: Vec<usize>) -> Result<Vec<u32>, LinalgError> {
    values.into_iter().map(compact_index).collect()
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
/// assert_eq!(m.matvec(&[1.0, 2.0])?, vec![1.5, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
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
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds a CSR matrix from raw `usize` arrays: the indices are converted
    /// to the compact `u32` storage with overflow checks, then validated by
    /// [`CsrMatrix::from_raw_parts_u32`].
    ///
    /// This is the zero-copy entry point for callers that already hold a CSR
    /// layout — e.g. Markov chains extracted from the flat MDP transition
    /// arena — and must not pay a triplet round-trip.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOverflow`] if an index or count exceeds
    /// `u32::MAX`, plus every error of [`CsrMatrix::from_raw_parts_u32`].
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, LinalgError> {
        // Convert *before* the structural validation so overflowing inputs
        // fail with the typed error even when the companion arrays are tiny.
        let row_ptr = compact_indices(row_ptr)?;
        let col_idx = compact_indices(col_idx)?;
        Self::from_raw_parts_u32(rows, cols, row_ptr, col_idx, values)
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
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Decomposes the matrix into its compact raw `(row_ptr, col_idx,
    /// values)` arrays, the inverse of [`CsrMatrix::from_raw_parts_u32`].
    pub fn into_raw_parts(self) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
        (self.row_ptr, self.col_idx, self.values)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of explicitly stored non-zero entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the entry at `(row, col)` (zero if not stored).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let (cols, vals) = self.row(row);
        // Stored columns always fit u32; a wider query column is not stored.
        let Ok(col) = u32::try_from(col) else {
            return 0.0;
        };
        match cols.binary_search(&col) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
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

    /// Iterates over all stored `(row, col, value)` entries.
    pub fn iter(&self) -> impl Iterator<Item = Triplet> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| Triplet::new(r, c as usize, v))
        })
    }

    /// Matrix-vector product `A * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "sparse matvec",
                expected: self.cols,
                actual: x.len(),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (i, slot) in out.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c as usize];
            }
            *slot = acc;
        }
        Ok(out)
    }

    /// Transposed matrix-vector product `Aᵀ * x`, i.e. left multiplication
    /// `xᵀ A` — the operation used by power iteration on row-stochastic
    /// transition matrices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.rows()`.
    pub fn transpose_matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "sparse transpose matvec",
                expected: self.rows,
                actual: x.len(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                out[c as usize] += v * xi;
            }
        }
        Ok(out)
    }

    /// Checks whether the matrix is row-stochastic: all entries non-negative
    /// and every row sums to 1 within `tol`.
    pub fn is_row_stochastic(&self, tol: f64) -> bool {
        (0..self.rows).all(|i| {
            let (_, vals) = self.row(i);
            vals.iter().all(|&v| v >= -tol) && (vals.iter().sum::<f64>() - 1.0).abs() <= tol
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row-major dense copy of `m`, the reference the products are checked
    /// against.
    fn dense(m: &CsrMatrix) -> Vec<Vec<f64>> {
        (0..m.rows())
            .map(|i| (0..m.cols()).map(|j| m.get(i, j)).collect())
            .collect()
    }

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
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
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
    fn matvec_matches_dense() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        let sparse = m.matvec(&x).unwrap();
        let reference: Vec<f64> = dense(&m)
            .iter()
            .map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum())
            .collect();
        assert_eq!(sparse, reference);
    }

    #[test]
    fn transpose_matvec_matches_dense_transpose() {
        let m = sample();
        let x = vec![0.2, 0.3, 0.5];
        let sparse = m.transpose_matvec(&x).unwrap();
        let rows = dense(&m);
        let reference: Vec<f64> = (0..m.cols())
            .map(|j| rows.iter().zip(&x).map(|(row, xi)| row[j] * xi).sum())
            .collect();
        for (a, b) in sparse.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn row_view_is_sorted_by_column() {
        let m = sample();
        let (cols, vals) = m.row(2);
        assert_eq!(cols, &[0u32, 1, 2]);
        assert_eq!(vals, &[0.25, 0.25, 0.5]);
    }

    #[test]
    fn stochastic_check_detects_bad_rows() {
        assert!(sample().is_row_stochastic(1e-12));
        let bad =
            CsrMatrix::from_triplets(1, 2, &[Triplet::new(0, 0, 0.4), Triplet::new(0, 1, 0.4)])
                .unwrap();
        assert!(!bad.is_row_stochastic(1e-12));
    }

    #[test]
    fn iter_yields_all_nonzeros() {
        let m = sample();
        assert_eq!(m.iter().count(), m.nnz());
        assert!(m.iter().all(|t| t.value != 0.0));
    }

    #[test]
    fn matvec_dimension_checks() {
        let m = sample();
        assert!(m.matvec(&[1.0, 2.0]).is_err());
        assert!(m.transpose_matvec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn raw_parts_roundtrip_preserves_matrix() {
        let m = sample();
        let (row_ptr, col_idx, values) = m.clone().into_raw_parts();
        let rebuilt = CsrMatrix::from_raw_parts_u32(3, 3, row_ptr, col_idx, values).unwrap();
        assert_eq!(m, rebuilt);
        // The checked usize path builds the same matrix.
        let (row_ptr, col_idx, values) = m.clone().into_raw_parts();
        let widened = CsrMatrix::from_raw_parts(
            3,
            3,
            row_ptr.iter().map(|&x| x as usize).collect(),
            col_idx.iter().map(|&x| x as usize).collect(),
            values,
        )
        .unwrap();
        assert_eq!(m, widened);
    }

    #[test]
    fn from_raw_parts_validates_invariants() {
        // row_ptr wrong length.
        assert!(matches!(
            CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        // row_ptr not starting at zero.
        assert!(matches!(
            CsrMatrix::from_raw_parts(1, 1, vec![1, 1], vec![], vec![]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        // Entry count mismatch.
        assert!(matches!(
            CsrMatrix::from_raw_parts(1, 2, vec![0, 2], vec![0], vec![1.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        // Non-monotone row_ptr.
        assert!(matches!(
            CsrMatrix::from_raw_parts(2, 2, vec![0, 2, 1], vec![0], vec![1.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        // Column out of bounds.
        assert!(matches!(
            CsrMatrix::from_raw_parts(1, 1, vec![0, 1], vec![3], vec![1.0]),
            Err(LinalgError::IndexOutOfBounds { .. })
        ));
        // Unsorted columns within a row.
        assert!(matches!(
            CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![0.5, 0.5]),
            Err(LinalgError::InvalidValue { .. })
        ));
        // Duplicate columns within a row.
        assert!(matches!(
            CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![1, 1], vec![0.5, 0.5]),
            Err(LinalgError::InvalidValue { .. })
        ));
        // Non-finite value.
        assert!(matches!(
            CsrMatrix::from_raw_parts(1, 1, vec![0, 1], vec![0], vec![f64::NAN]),
            Err(LinalgError::InvalidValue { .. })
        ));
        // A well-formed empty row is fine.
        let m = CsrMatrix::from_raw_parts(2, 2, vec![0, 0, 1], vec![1], vec![2.0]).unwrap();
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(1, 1), 2.0);
    }

    #[test]
    fn usize_inputs_beyond_u32_fail_with_the_typed_overflow_error() {
        // The conversion is checked *before* structural validation, so the
        // companion arrays can stay tiny — no giant allocations needed to
        // exercise the overflow path.
        let too_big = u32::MAX as usize + 1;
        assert_eq!(
            CsrMatrix::from_raw_parts(1, 1, vec![0, too_big], vec![0], vec![1.0]).unwrap_err(),
            LinalgError::IndexOverflow {
                value: too_big,
                limit: COMPACT_INDEX_LIMIT,
            }
        );
        assert!(matches!(
            CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![too_big], vec![1.0]),
            Err(LinalgError::IndexOverflow { .. })
        ));
    }
}
