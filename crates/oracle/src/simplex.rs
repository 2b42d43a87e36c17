//! A two-phase primal simplex solver for small dense linear programs.
//!
//! The LP route to mean-payoff optimisation ([`crate::LinearProgrammingSolver`],
//! an independent cross-check of value and policy iteration, mirroring how
//! the paper relies on a model checker with multiple engines) produces LPs
//! with a few thousand constraints at most, so a dense tableau implementation
//! with Bland's anti-cycling rule is sufficient and easy to audit.

use crate::LinalgError;

/// Direction of optimisation for a [`LinearProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveSense {
    /// Maximise the objective.
    Maximize,
    /// Minimise the objective.
    Minimize,
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// `lhs <= rhs`
    LessEq,
    /// `lhs >= rhs`
    GreaterEq,
    /// `lhs == rhs`
    Equal,
}

/// Status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The LP has no feasible point.
    Infeasible,
    /// The LP is unbounded in the direction of optimisation.
    Unbounded,
}

/// Solution of a linear program.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Optimal objective value (in the original sense of the program).
    pub objective: f64,
    /// Values of the original variables (in the order they were added).
    pub values: Vec<f64>,
}

#[derive(Debug, Clone)]
struct Constraint {
    coefficients: Vec<(usize, f64)>,
    comparison: Comparison,
    rhs: f64,
}

/// Whether a variable may take negative values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VariableKind {
    NonNegative,
    Free,
}

/// A linear program assembled incrementally.
///
/// Variables are referenced by the index returned from
/// [`LinearProgram::add_variable`] / [`LinearProgram::add_free_variable`].
///
/// # Example
///
/// ```
/// use sm_oracle::{Comparison, LinearProgram, LpStatus, ObjectiveSense, SimplexSolver};
///
/// # fn main() -> Result<(), sm_oracle::LinalgError> {
/// // maximize 3x + 2y subject to x + y <= 4, x <= 2, x,y >= 0
/// let mut lp = LinearProgram::new(ObjectiveSense::Maximize);
/// let x = lp.add_variable(3.0);
/// let y = lp.add_variable(2.0);
/// lp.add_constraint(&[(x, 1.0), (y, 1.0)], Comparison::LessEq, 4.0)?;
/// lp.add_constraint(&[(x, 1.0)], Comparison::LessEq, 2.0)?;
/// let solution = SimplexSolver::default().solve(&lp)?;
/// assert_eq!(solution.status, LpStatus::Optimal);
/// assert!((solution.objective - 10.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LinearProgram {
    sense: ObjectiveSense,
    objective: Vec<f64>,
    kinds: Vec<VariableKind>,
    constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Creates an empty program with the given optimisation sense.
    pub fn new(sense: ObjectiveSense) -> Self {
        LinearProgram {
            sense,
            objective: Vec::new(),
            kinds: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Adds a non-negative variable with the given objective coefficient and
    /// returns its index.
    pub fn add_variable(&mut self, objective_coefficient: f64) -> usize {
        self.objective.push(objective_coefficient);
        self.kinds.push(VariableKind::NonNegative);
        self.objective.len() - 1
    }

    /// Adds a free (unbounded in both directions) variable with the given
    /// objective coefficient and returns its index.
    pub fn add_free_variable(&mut self, objective_coefficient: f64) -> usize {
        self.objective.push(objective_coefficient);
        self.kinds.push(VariableKind::Free);
        self.objective.len() - 1
    }

    /// Number of variables added so far.
    pub fn num_variables(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds the constraint `sum coeff_i * x_i  <cmp>  rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] if a variable index has not
    /// been created and [`LinalgError::InvalidValue`] if any coefficient or
    /// the right-hand side is not finite.
    pub fn add_constraint(
        &mut self,
        coefficients: &[(usize, f64)],
        comparison: Comparison,
        rhs: f64,
    ) -> Result<(), LinalgError> {
        for &(idx, coeff) in coefficients {
            if idx >= self.num_variables() {
                return Err(LinalgError::IndexOutOfBounds {
                    index: idx,
                    len: self.num_variables(),
                });
            }
            if !coeff.is_finite() {
                return Err(LinalgError::InvalidValue {
                    context: "constraint coefficient",
                });
            }
        }
        if !rhs.is_finite() {
            return Err(LinalgError::InvalidValue {
                context: "constraint right-hand side",
            });
        }
        self.constraints.push(Constraint {
            coefficients: coefficients.to_vec(),
            comparison,
            rhs,
        });
        Ok(())
    }
}

/// Two-phase primal simplex solver with Bland's anti-cycling rule.
#[derive(Debug, Clone)]
pub struct SimplexSolver {
    /// Maximum number of pivots before giving up (per phase).
    pub max_iterations: usize,
    /// Numerical tolerance for pivot and optimality tests.
    pub tolerance: f64,
}

impl Default for SimplexSolver {
    fn default() -> Self {
        SimplexSolver {
            max_iterations: 100_000,
            tolerance: 1e-9,
        }
    }
}

impl SimplexSolver {
    /// Solves the given linear program.
    ///
    /// Infeasibility and unboundedness are reported through
    /// [`LpSolution::status`] rather than as errors, so that callers can
    /// branch on them without string matching.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IterationLimit`] if the pivot budget is
    /// exhausted, which for non-degenerate inputs indicates a bug rather than
    /// a property of the program.
    pub fn solve(&self, lp: &LinearProgram) -> Result<LpSolution, LinalgError> {
        // --- Convert to standard form: maximise cᵀx, Ax = b, x >= 0, b >= 0.
        //
        // Free variables are split into a difference of two non-negative
        // variables. Inequalities receive slack/surplus variables. Rows with
        // negative rhs are negated.
        let n_orig = lp.num_variables();
        // Column mapping: for each original variable, (positive column, optional negative column).
        let mut col_of: Vec<(usize, Option<usize>)> = Vec::with_capacity(n_orig);
        let mut n_cols = 0usize;
        for kind in &lp.kinds {
            match kind {
                VariableKind::NonNegative => {
                    col_of.push((n_cols, None));
                    n_cols += 1;
                }
                VariableKind::Free => {
                    col_of.push((n_cols, Some(n_cols + 1)));
                    n_cols += 2;
                }
            }
        }
        let n_rows = lp.num_constraints();

        // Objective in "maximise" orientation.
        let sense_factor = match lp.sense {
            ObjectiveSense::Maximize => 1.0,
            ObjectiveSense::Minimize => -1.0,
        };
        let mut slack_count = 0;
        for c in &lp.constraints {
            if c.comparison != Comparison::Equal {
                slack_count += 1;
            }
        }
        let total_cols = n_cols + slack_count;

        let mut a = vec![vec![0.0; total_cols]; n_rows];
        let mut b = vec![0.0; n_rows];
        let mut obj = vec![0.0; total_cols];
        for (var, &coeff) in lp.objective.iter().enumerate() {
            let (pos, neg) = col_of[var];
            obj[pos] += sense_factor * coeff;
            if let Some(neg) = neg {
                obj[neg] -= sense_factor * coeff;
            }
        }

        let mut slack_idx = n_cols;
        for (row, c) in lp.constraints.iter().enumerate() {
            for &(var, coeff) in &c.coefficients {
                let (pos, neg) = col_of[var];
                a[row][pos] += coeff;
                if let Some(neg) = neg {
                    a[row][neg] -= coeff;
                }
            }
            b[row] = c.rhs;
            match c.comparison {
                Comparison::LessEq => {
                    a[row][slack_idx] = 1.0;
                    slack_idx += 1;
                }
                Comparison::GreaterEq => {
                    a[row][slack_idx] = -1.0;
                    slack_idx += 1;
                }
                Comparison::Equal => {}
            }
            if b[row] < 0.0 {
                for v in a[row].iter_mut() {
                    *v = -*v;
                }
                b[row] = -b[row];
            }
        }

        // --- Phase 1: find a basic feasible solution with artificial variables.
        let mut tableau = Tableau::new(a, b, total_cols, self.tolerance);
        match tableau.phase_one(self.max_iterations)? {
            PhaseOneOutcome::Feasible => {}
            PhaseOneOutcome::Infeasible => {
                return Ok(LpSolution {
                    status: LpStatus::Infeasible,
                    objective: f64::NAN,
                    values: vec![f64::NAN; n_orig],
                });
            }
        }

        // --- Phase 2: optimise the real objective.
        let outcome = tableau.phase_two(&obj, self.max_iterations)?;
        if outcome == PhaseTwoOutcome::Unbounded {
            return Ok(LpSolution {
                status: LpStatus::Unbounded,
                objective: if lp.sense == ObjectiveSense::Maximize {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                },
                values: vec![f64::NAN; n_orig],
            });
        }

        let x = tableau.primal_solution();
        let mut values = vec![0.0; n_orig];
        for (var, &(pos, neg)) in col_of.iter().enumerate() {
            values[var] = x[pos] - neg.map_or(0.0, |n| x[n]);
        }
        let objective: f64 = lp.objective.iter().zip(&values).map(|(c, v)| c * v).sum();
        Ok(LpSolution {
            status: LpStatus::Optimal,
            objective,
            values,
        })
    }
}

#[derive(Debug, PartialEq, Eq)]
enum PhaseOneOutcome {
    Feasible,
    Infeasible,
}

#[derive(Debug, PartialEq, Eq)]
enum PhaseTwoOutcome {
    Optimal,
    Unbounded,
}

/// Dense simplex tableau over the standard-form problem, including artificial
/// variables appended after the structural + slack columns.
#[derive(Debug)]
struct Tableau {
    /// Constraint matrix including artificial columns.
    a: Vec<Vec<f64>>,
    /// Right-hand sides (always kept non-negative).
    b: Vec<f64>,
    /// Index of the basic variable of each row.
    basis: Vec<usize>,
    /// Number of structural + slack columns (artificials start here).
    n_structural: usize,
    tolerance: f64,
}

impl Tableau {
    fn new(mut a: Vec<Vec<f64>>, b: Vec<f64>, n_structural: usize, tolerance: f64) -> Self {
        let n_rows = a.len();
        // Append an identity of artificial variables.
        for (i, row) in a.iter_mut().enumerate() {
            row.extend((0..n_rows).map(|j| if i == j { 1.0 } else { 0.0 }));
        }
        let basis = (0..n_rows).map(|i| n_structural + i).collect();
        Tableau {
            a,
            b,
            basis,
            n_structural,
            tolerance,
        }
    }

    fn n_rows(&self) -> usize {
        self.a.len()
    }

    fn n_cols(&self) -> usize {
        self.a.first().map_or(0, |r| r.len())
    }

    /// Runs the simplex method on the phase-1 objective (minimise the sum of
    /// artificial variables, expressed as a maximisation of their negation).
    fn phase_one(&mut self, max_iterations: usize) -> Result<PhaseOneOutcome, LinalgError> {
        let mut obj = vec![0.0; self.n_cols()];
        for slot in obj.iter_mut().skip(self.n_structural) {
            *slot = -1.0;
        }
        let outcome = self.optimize(&obj, max_iterations, /* allow_artificial */ true)?;
        debug_assert_ne!(outcome, PhaseTwoOutcome::Unbounded, "phase 1 is bounded");
        let artificial_sum: f64 = (0..self.n_rows())
            .filter(|&i| self.basis[i] >= self.n_structural)
            .map(|i| self.b[i])
            .sum();
        if artificial_sum > 1e-7 {
            return Ok(PhaseOneOutcome::Infeasible);
        }
        // Drive any remaining artificial variables out of the basis if possible.
        for row in 0..self.n_rows() {
            if self.basis[row] >= self.n_structural {
                if let Some(col) =
                    (0..self.n_structural).find(|&c| self.a[row][c].abs() > self.tolerance)
                {
                    self.pivot(row, col);
                }
                // If the whole row is zero the constraint is redundant; the
                // artificial stays basic at value 0, which is harmless.
            }
        }
        Ok(PhaseOneOutcome::Feasible)
    }

    fn phase_two(
        &mut self,
        structural_obj: &[f64],
        max_iterations: usize,
    ) -> Result<PhaseTwoOutcome, LinalgError> {
        let mut obj = vec![0.0; self.n_cols()];
        obj[..structural_obj.len()].copy_from_slice(structural_obj);
        self.optimize(&obj, max_iterations, /* allow_artificial */ false)
    }

    /// Primal simplex loop with Bland's rule on the reduced costs.
    fn optimize(
        &mut self,
        obj: &[f64],
        max_iterations: usize,
        allow_artificial: bool,
    ) -> Result<PhaseTwoOutcome, LinalgError> {
        let allowed_cols = if allow_artificial {
            self.n_cols()
        } else {
            self.n_structural
        };
        for _ in 0..max_iterations {
            let duals = self.dual_values(obj);
            // Entering column: smallest index with positive reduced cost (Bland).
            let entering = (0..allowed_cols).find(|&col| {
                if self.basis.contains(&col) {
                    return false;
                }
                let reduced = obj[col] - crate::dot(&duals, &self.column(col));
                reduced > self.tolerance
            });
            let Some(col) = entering else {
                return Ok(PhaseTwoOutcome::Optimal);
            };
            // Ratio test: leaving row minimising b_i / a_ic over positive a_ic,
            // tie-broken by smallest basis index (Bland).
            let mut leaving: Option<(usize, f64)> = None;
            for row in 0..self.n_rows() {
                let coeff = self.a[row][col];
                if coeff > self.tolerance {
                    let ratio = self.b[row] / coeff;
                    let better = match leaving {
                        None => true,
                        Some((best_row, best_ratio)) => {
                            ratio < best_ratio - self.tolerance
                                || (ratio <= best_ratio + self.tolerance
                                    && self.basis[row] < self.basis[best_row])
                        }
                    };
                    if better {
                        leaving = Some((row, ratio));
                    }
                }
            }
            let Some((row, _)) = leaving else {
                return Ok(PhaseTwoOutcome::Unbounded);
            };
            self.pivot(row, col);
        }
        Err(LinalgError::IterationLimit {
            limit: max_iterations,
        })
    }

    /// Simplex multipliers y = c_B · B⁻¹, computed implicitly: because the
    /// tableau is kept in "product form" (rows already transformed), the
    /// reduced cost of column j is obj[j] - Σ_i c_{B(i)} · a[i][j].
    fn dual_values(&self, obj: &[f64]) -> Vec<f64> {
        (0..self.n_rows()).map(|i| obj[self.basis[i]]).collect()
    }

    fn column(&self, col: usize) -> Vec<f64> {
        (0..self.n_rows()).map(|i| self.a[i][col]).collect()
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let pivot = self.a[row][col];
        debug_assert!(pivot.abs() > 0.0, "pivot on zero element");
        for v in self.a[row].iter_mut() {
            *v /= pivot;
        }
        self.b[row] /= pivot;
        for other in 0..self.n_rows() {
            if other == row {
                continue;
            }
            let factor = self.a[other][col];
            if factor == 0.0 {
                continue;
            }
            for c in 0..self.n_cols() {
                self.a[other][c] -= factor * self.a[row][c];
            }
            self.b[other] -= factor * self.b[row];
        }
        self.basis[row] = col;
    }

    fn primal_solution(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.n_cols()];
        for (row, &basic) in self.basis.iter().enumerate() {
            x[basic] = self.b[row];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    #[test]
    fn maximizes_textbook_program() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
        let mut lp = LinearProgram::new(ObjectiveSense::Maximize);
        let x = lp.add_variable(3.0);
        let y = lp.add_variable(5.0);
        lp.add_constraint(&[(x, 1.0)], Comparison::LessEq, 4.0)
            .unwrap();
        lp.add_constraint(&[(y, 2.0)], Comparison::LessEq, 12.0)
            .unwrap();
        lp.add_constraint(&[(x, 3.0), (y, 2.0)], Comparison::LessEq, 18.0)
            .unwrap();
        let sol = SimplexSolver::default().solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 36.0);
        assert_close(sol.values[x], 2.0);
        assert_close(sol.values[y], 6.0);
    }

    #[test]
    fn minimizes_with_greater_eq_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3
        let mut lp = LinearProgram::new(ObjectiveSense::Minimize);
        let x = lp.add_variable(2.0);
        let y = lp.add_variable(3.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Comparison::GreaterEq, 10.0)
            .unwrap();
        lp.add_constraint(&[(x, 1.0)], Comparison::GreaterEq, 2.0)
            .unwrap();
        lp.add_constraint(&[(y, 1.0)], Comparison::GreaterEq, 3.0)
            .unwrap();
        let sol = SimplexSolver::default().solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        // Optimal: y at its lower bound 3, x = 7.
        assert_close(sol.values[x], 7.0);
        assert_close(sol.values[y], 3.0);
        assert_close(sol.objective, 23.0);
    }

    #[test]
    fn detects_infeasibility() {
        let mut lp = LinearProgram::new(ObjectiveSense::Maximize);
        let x = lp.add_variable(1.0);
        lp.add_constraint(&[(x, 1.0)], Comparison::LessEq, 1.0)
            .unwrap();
        lp.add_constraint(&[(x, 1.0)], Comparison::GreaterEq, 2.0)
            .unwrap();
        let sol = SimplexSolver::default().solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        let mut lp = LinearProgram::new(ObjectiveSense::Maximize);
        let x = lp.add_variable(1.0);
        lp.add_constraint(&[(x, 1.0)], Comparison::GreaterEq, 1.0)
            .unwrap();
        let sol = SimplexSolver::default().solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
        assert!(sol.objective.is_infinite());
    }

    #[test]
    fn equality_constraints_are_respected() {
        // max x + y s.t. x + y = 5, x <= 3
        let mut lp = LinearProgram::new(ObjectiveSense::Maximize);
        let x = lp.add_variable(1.0);
        let y = lp.add_variable(1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Comparison::Equal, 5.0)
            .unwrap();
        lp.add_constraint(&[(x, 1.0)], Comparison::LessEq, 3.0)
            .unwrap();
        let sol = SimplexSolver::default().solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 5.0);
        assert_close(sol.values[x] + sol.values[y], 5.0);
    }

    #[test]
    fn free_variables_can_go_negative() {
        // min z s.t. z >= x - 4, z >= -x, with x fixed to 1  => z = max(-3, -1) = -1
        let mut lp = LinearProgram::new(ObjectiveSense::Minimize);
        let z = lp.add_free_variable(1.0);
        let x = lp.add_variable(0.0);
        lp.add_constraint(&[(x, 1.0)], Comparison::Equal, 1.0)
            .unwrap();
        lp.add_constraint(&[(z, 1.0), (x, -1.0)], Comparison::GreaterEq, -4.0)
            .unwrap();
        lp.add_constraint(&[(z, 1.0), (x, 1.0)], Comparison::GreaterEq, 0.0)
            .unwrap();
        let sol = SimplexSolver::default().solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[z], -1.0);
    }

    #[test]
    fn negative_rhs_rows_are_normalised() {
        // max -x s.t. -x <= -2  (i.e. x >= 2); optimum x = 2.
        let mut lp = LinearProgram::new(ObjectiveSense::Maximize);
        let x = lp.add_variable(-1.0);
        lp.add_constraint(&[(x, -1.0)], Comparison::LessEq, -2.0)
            .unwrap();
        let sol = SimplexSolver::default().solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[x], 2.0);
        assert_close(sol.objective, -2.0);
    }

    #[test]
    fn rejects_bad_variable_indices_and_nan() {
        let mut lp = LinearProgram::new(ObjectiveSense::Maximize);
        let _x = lp.add_variable(1.0);
        assert!(lp
            .add_constraint(&[(7, 1.0)], Comparison::LessEq, 1.0)
            .is_err());
        assert!(lp
            .add_constraint(&[(0, f64::NAN)], Comparison::LessEq, 1.0)
            .is_err());
        assert!(lp
            .add_constraint(&[(0, 1.0)], Comparison::LessEq, f64::INFINITY)
            .is_err());
    }

    #[test]
    fn degenerate_program_terminates() {
        // A classic degenerate LP; Bland's rule must terminate.
        let mut lp = LinearProgram::new(ObjectiveSense::Maximize);
        let x1 = lp.add_variable(10.0);
        let x2 = lp.add_variable(-57.0);
        let x3 = lp.add_variable(-9.0);
        let x4 = lp.add_variable(-24.0);
        lp.add_constraint(
            &[(x1, 0.5), (x2, -5.5), (x3, -2.5), (x4, 9.0)],
            Comparison::LessEq,
            0.0,
        )
        .unwrap();
        lp.add_constraint(
            &[(x1, 0.5), (x2, -1.5), (x3, -0.5), (x4, 1.0)],
            Comparison::LessEq,
            0.0,
        )
        .unwrap();
        lp.add_constraint(&[(x1, 1.0)], Comparison::LessEq, 1.0)
            .unwrap();
        let sol = SimplexSolver::default().solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 1.0);
    }
}
