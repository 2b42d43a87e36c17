//! LU decomposition with partial pivoting and linear-system solving.
//!
//! Policy evaluation in mean-payoff MDPs (the gain/bias equations of
//! [`crate::PolicyIteration`]) and the exact stationary analysis reduce to
//! solving moderate-size dense linear systems; this module provides
//! the factorisation used for that.

use crate::{DenseMatrix, LinalgError};

/// An LU factorisation `P·A = L·U` of a square matrix with partial pivoting.
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined L (strictly lower, unit diagonal implicit) and U (upper) factors.
    lu: DenseMatrix,
    /// Row permutation applied to the input matrix.
    perm: Vec<usize>,
}

/// Pivot entries smaller than this in absolute value are treated as zero.
const PIVOT_TOLERANCE: f64 = 1e-12;

impl LuDecomposition {
    /// Factorises the square matrix `a`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if `a` is not square and
    /// [`LinalgError::SingularMatrix`] if a pivot smaller than the internal
    /// tolerance is encountered.
    pub fn new(a: &DenseMatrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Find the pivot row: largest absolute value in this column at or
            // below the diagonal.
            let mut pivot_row = col;
            let mut pivot_val = lu.get(col, col).abs();
            for row in (col + 1)..n {
                let v = lu.get(row, col).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = row;
                }
            }
            if pivot_val < PIVOT_TOLERANCE {
                return Err(LinalgError::SingularMatrix);
            }
            if pivot_row != col {
                swap_rows(&mut lu, pivot_row, col);
                perm.swap(pivot_row, col);
            }
            let pivot = lu.get(col, col);
            for row in (col + 1)..n {
                let factor = lu.get(row, col) / pivot;
                lu.set(row, col, factor);
                for k in (col + 1)..n {
                    let v = lu.get(row, k) - factor * lu.get(col, k);
                    lu.set(row, k, v);
                }
            }
        }
        Ok(LuDecomposition { lu, perm })
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b` using the stored factorisation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "lu solve",
                expected: n,
                actual: b.len(),
            });
        }
        // Apply the permutation, then forward- and back-substitute.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                acc -= self.lu.get(i, j) * xj;
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for (j, &xj) in x.iter().enumerate().take(n).skip(i + 1) {
                acc -= self.lu.get(i, j) * xj;
            }
            x[i] = acc / self.lu.get(i, i);
        }
        Ok(x)
    }
}

fn swap_rows(m: &mut DenseMatrix, a: usize, b: usize) {
    if a == b {
        return;
    }
    for col in 0..m.cols() {
        let va = m.get(a, col);
        let vb = m.get(b, col);
        m.set(a, col, vb);
        m.set(b, col, va);
    }
}

/// Solves the square linear system `A x = b` with LU decomposition and partial
/// pivoting. This is a convenience wrapper around [`LuDecomposition`].
///
/// # Errors
///
/// Returns an error if `A` is not square, is singular, or the dimensions of
/// `A` and `b` do not match.
pub fn solve_linear_system(a: &DenseMatrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    LuDecomposition::new(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_simple_two_by_two() {
        let a = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let x = solve_linear_system(&a, &[3.0, 4.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solves_system_requiring_pivoting() {
        // Leading zero forces a row swap.
        let a = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = solve_linear_system(&a, &[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn detects_singular_matrix() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(
            LuDecomposition::new(&a).unwrap_err(),
            LinalgError::SingularMatrix
        );
    }

    #[test]
    fn rejects_non_square_matrix() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn solve_validates_rhs_length() {
        let a = DenseMatrix::identity(3);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn residual_is_small_on_moderate_system() {
        // Deterministic pseudo-random matrix: diagonal dominance keeps it
        // well-conditioned without needing an RNG.
        let n = 20;
        let mut rows = Vec::new();
        for i in 0..n {
            let mut row = Vec::with_capacity(n);
            for j in 0..n {
                let v = ((i * 31 + j * 17 + 7) % 13) as f64 / 13.0;
                row.push(if i == j { v + (n as f64) } else { v });
            }
            rows.push(row);
        }
        let a = DenseMatrix::from_rows(&rows).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = solve_linear_system(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        assert!(crate::max_abs_diff(&ax, &b) < 1e-9);
    }
}
