//! Free functions on `&[f64]` vectors.
//!
//! Deliberately simple, allocation-free helpers for the dense matrix and the
//! simplex tableau, written for clarity rather than generality.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// assert_eq!(sm_oracle::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Scales a vector in place by `alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Maximum absolute entry (infinity norm). Returns 0 for the empty vector.
pub fn infinity_norm(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |acc, v| acc.max(v.abs()))
}

/// Maximum absolute component-wise difference of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter()
        .zip(b)
        .fold(0.0, |acc, (x, y)| acc.max((x - y).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn scale_multiplies_every_entry() {
        let mut x = vec![1.0, -2.0, 4.0];
        scale(-0.5, &mut x);
        assert_eq!(x, vec![-0.5, 1.0, -2.0]);
    }

    #[test]
    fn norms_agree_on_simple_vectors() {
        let x = [3.0, -4.0];
        assert_eq!(infinity_norm(&x), 4.0);
        assert_eq!(infinity_norm(&[-1.0, 0.5]), 1.0);
    }

    #[test]
    fn norms_of_empty_vector_are_zero() {
        assert_eq!(infinity_norm(&[]), 0.0);
    }

    #[test]
    fn max_abs_diff_detects_largest_gap() {
        assert_eq!(max_abs_diff(&[1.0, 2.0, 3.0], &[1.0, 0.0, 3.5]), 2.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_length_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
