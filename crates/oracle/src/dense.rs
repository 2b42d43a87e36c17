//! Row-major dense matrices.

use crate::{LinalgError, DEFAULT_TOLERANCE};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A row-major dense matrix of `f64` values.
///
/// The matrix is intentionally simple: storage is a single `Vec<f64>` and all
/// operations are `O(rows * cols)` or `O(rows * cols * inner)` loops. The MDPs
/// produced by the selfish-mining model have sparse transition structure and
/// are handled by the CSR arrays of `sm_mdp`; the dense type is used for the
/// small dense systems of the exact stationary and policy evaluation
/// solves.
///
/// # Example
///
/// ```
/// use sm_oracle::DenseMatrix;
///
/// # fn main() -> Result<(), sm_oracle::LinalgError> {
/// let identity = DenseMatrix::identity(3);
/// let m = DenseMatrix::from_rows(&[
///     vec![1.0, 2.0, 3.0],
///     vec![4.0, 5.0, 6.0],
///     vec![7.0, 8.0, 9.0],
/// ])?;
/// assert_eq!(m.multiply(&identity)?, m);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
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

    /// Builds a matrix from a slice of row vectors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::RaggedRows`] if the rows do not all have the
    /// same length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Ok(DenseMatrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(LinalgError::RaggedRows);
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            data.extend_from_slice(row);
        }
        Ok(DenseMatrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "from_row_major",
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(DenseMatrix { rows, cols, data })
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

    /// Returns a borrowed view of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Returns the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Matrix-vector product `A * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "matvec",
                expected: self.cols,
                actual: x.len(),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = crate::dot(self.row(i), x);
        }
        Ok(out)
    }

    /// Matrix-matrix product `A * B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the inner dimensions differ.
    pub fn multiply(&self, other: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "multiply",
                expected: self.cols,
                actual: other.rows,
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    let v = out.get(i, j) + aik * other.get(k, j);
                    out.set(i, j, v);
                }
            }
        }
        Ok(out)
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn add_matrix(&self, other: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn sub_matrix(&self, other: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Multiplies every entry by `alpha`.
    pub fn scale(&self, alpha: f64) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * alpha).collect(),
        }
    }

    /// Checks whether every row sums to 1 (within `tol`) and all entries are
    /// non-negative, i.e. whether the matrix is row-stochastic.
    pub fn is_row_stochastic(&self, tol: f64) -> bool {
        (0..self.rows).all(|i| {
            let row = self.row(i);
            row.iter().all(|&v| v >= -tol) && (row.iter().sum::<f64>() - 1.0).abs() <= tol
        })
    }

    /// Returns `true` if the two matrices differ by at most
    /// [`DEFAULT_TOLERANCE`] in every entry.
    pub fn approx_eq(&self, other: &DenseMatrix) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && crate::max_abs_diff(&self.data, &other.data) <= DEFAULT_TOLERANCE
    }

    fn zip_with(
        &self,
        other: &DenseMatrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<DenseMatrix, LinalgError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: op,
                expected: self.rows * self.cols,
                actual: other.rows * other.cols,
            });
        }
        Ok(DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self.get(i, j))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

impl Add for &DenseMatrix {
    type Output = DenseMatrix;

    fn add(self, rhs: &DenseMatrix) -> DenseMatrix {
        self.add_matrix(rhs)
            .expect("matrix addition shape mismatch")
    }
}

impl Sub for &DenseMatrix {
    type Output = DenseMatrix;

    fn sub(self, rhs: &DenseMatrix) -> DenseMatrix {
        self.sub_matrix(rhs)
            .expect("matrix subtraction shape mismatch")
    }
}

impl Mul for &DenseMatrix {
    type Output = DenseMatrix;

    fn mul(self, rhs: &DenseMatrix) -> DenseMatrix {
        self.multiply(rhs)
            .expect("matrix multiplication shape mismatch")
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
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let id = DenseMatrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(id.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert_eq!(err, LinalgError::RaggedRows);
    }

    #[test]
    fn from_row_major_validates_length() {
        assert!(DenseMatrix::from_row_major(2, 2, vec![1.0; 4]).is_ok());
        assert!(DenseMatrix::from_row_major(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn matvec_computes_expected_product() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let y = m.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 7.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn multiply_by_identity_is_noop() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let id = DenseMatrix::identity(2);
        assert_eq!(m.multiply(&id).unwrap(), m);
        assert_eq!(id.multiply(&m).unwrap(), m);
    }

    #[test]
    fn transpose_swaps_dimensions() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn add_sub_scale_roundtrip() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5]]).unwrap();
        let sum = (&a + &b).sub_matrix(&b).unwrap();
        assert!(sum.approx_eq(&a));
        let doubled = a.scale(2.0);
        assert_eq!(doubled.get(1, 1), 8.0);
        let diff = &doubled - &a;
        assert!(diff.approx_eq(&a));
    }

    #[test]
    fn operator_mul_matches_multiply() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[vec![2.0, 0.0], vec![1.0, 2.0]]).unwrap();
        assert_eq!(&a * &b, a.multiply(&b).unwrap());
    }

    #[test]
    fn row_stochastic_check() {
        let p = DenseMatrix::from_rows(&[vec![0.5, 0.5], vec![0.1, 0.9]]).unwrap();
        assert!(p.is_row_stochastic(1e-12));
        let q = DenseMatrix::from_rows(&[vec![0.5, 0.6], vec![0.1, 0.9]]).unwrap();
        assert!(!q.is_row_stochastic(1e-12));
        let neg = DenseMatrix::from_rows(&[vec![-0.1, 1.1]]).unwrap();
        assert!(!neg.is_row_stochastic(1e-12));
    }

    #[test]
    fn display_renders_all_rows() {
        let m = DenseMatrix::identity(2);
        let s = format!("{m}");
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn empty_matrix_from_rows() {
        let m = DenseMatrix::from_rows(&[]).unwrap();
        assert_eq!(m.rows(), 0);
        assert_eq!(m.cols(), 0);
    }
}
