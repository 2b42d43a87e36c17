//! Row-major dense matrices: the storage of the oracle's dense linear
//! systems.

/// A row-major dense matrix of `f64` values.
///
/// The matrix is intentionally minimal: storage is a single `Vec<f64>`, and
/// the only operations are element access and the LU solve of
/// `crate::lu`. The MDPs produced by the selfish-mining model have sparse
/// transition structure and are handled by the CSR arrays of `sm_mdp`; the
/// dense type holds the small systems of the exact stationary, gain and
/// policy-evaluation solves.
///
/// # Example
///
/// ```
/// use sm_oracle::DenseMatrix;
///
/// let mut m = DenseMatrix::identity(3);
/// m.set(0, 2, 5.0);
/// assert_eq!((m.rows(), m.cols()), (3, 3));
/// assert_eq!(m.get(0, 2), 5.0);
/// assert_eq!(m.get(1, 1), 1.0);
/// assert_eq!(DenseMatrix::zeros(2, 3).get(1, 2), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity_have_expected_entries() {
        let z = DenseMatrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(!z.is_square());
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(z.get(i, j), 0.0);
            }
        }

        let id = DenseMatrix::identity(3);
        assert!(id.is_square());
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(id.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }
}
