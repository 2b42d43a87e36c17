//! Shared harness for the benchmark binaries and Criterion benches that
//! regenerate the paper's evaluation (Table 1 and Figure 2).
//!
//! Two entry points are provided on top of the experiment drivers of the
//! `selfish-mining` crate:
//!
//! * [`table1`] — runs the runtime measurements of Table 1 and renders them as
//!   an aligned text table.
//! * [`figure2`] / [`figure2_panels`] — compute the expected-relative-revenue
//!   curves of Figure 2 (one panel per switching probability γ) through the
//!   parallel sweep engine (`sm_grid::SweepConfig`: one parametric arena per
//!   `(d, f)`, warm-started solves along each `p` curve) and render them as
//!   aligned series, one row per adversarial resource value `p`.
//!
//! Expensive configurations (`d = 3, f = 2` and `d = 4, f = 2`) are gated
//! behind the `SM_BENCH_EXPENSIVE` environment variable so that the default
//! run finishes in minutes; see `EXPERIMENTS.md` for the reproduction notes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use selfish_mining::experiments::{
    coarse_p_grid, paper_p_grid, table1_row, table1_single_tree_row, Figure2Point, Table1Row,
    PAPER_ATTACK_GRID, PAPER_GAMMA_GRID,
};
use selfish_mining::SelfishMiningError;
use sm_grid::SweepConfig;
use std::fmt::Write as _;
use std::time::Instant;

/// Environment variable that unlocks the expensive configurations.
pub const EXPENSIVE_ENV: &str = "SM_BENCH_EXPENSIVE";

/// Whether the expensive configurations are enabled for this process.
pub fn expensive_enabled() -> bool {
    std::env::var(EXPENSIVE_ENV).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The `(d, f)` grid to run: the paper's full grid when expensive mode is on,
/// otherwise its affordable prefix.
pub fn attack_grid() -> Vec<(usize, usize)> {
    if expensive_enabled() {
        PAPER_ATTACK_GRID.to_vec()
    } else {
        vec![(1, 1), (2, 1), (2, 2)]
    }
}

/// The `p` grid to sweep: the paper's 0.01-step grid in expensive mode, a
/// 0.05-step grid otherwise.
pub fn p_grid() -> Vec<f64> {
    if expensive_enabled() {
        paper_p_grid()
    } else {
        coarse_p_grid()
    }
}

/// Runs the Table 1 measurement (runtimes of the analysis per attack
/// configuration at `γ = 0.5`) and returns the rows, each with
/// [`Table1Row::seconds`] set to the wall-clock time of its call.
///
/// # Errors
///
/// Propagates model-construction and solver errors.
pub fn table1(epsilon: f64) -> Result<Vec<Table1Row>, SelfishMiningError> {
    let mut rows = Vec::new();
    for (depth, forks) in attack_grid() {
        rows.push(timed(|| table1_row(0.3, 0.5, depth, forks, 4, epsilon))?);
    }
    rows.push(timed(|| table1_single_tree_row(0.3, 0.5, 4, 5))?);
    Ok(rows)
}

/// Computes one Table 1 row and records the wall-clock time of the call in
/// its `seconds` field.
fn timed(
    row: impl FnOnce() -> Result<Table1Row, SelfishMiningError>,
) -> Result<Table1Row, SelfishMiningError> {
    let start = Instant::now();
    let mut row = row()?;
    row.seconds = start.elapsed().as_secs_f64();
    Ok(row)
}

/// Renders Table 1 rows as an aligned text table mirroring the paper's layout.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>6} {:>6} {:>12} {:>12} {:>10}",
        "Attack Type", "d", "f", "states", "time (s)", "ERRev"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>6} {:>6} {:>12} {:>12.2} {:>10.4}",
            row.attack, row.depth, row.forks, row.num_states, row.seconds, row.revenue
        );
    }
    out
}

/// One Figure 2 panel: the γ it belongs to, its data points and the rendered
/// rows.
#[derive(Debug, Clone)]
pub struct Figure2Panel {
    /// The switching probability of the panel.
    pub gamma: f64,
    /// The panel's data, one [`Figure2Point`] per `p` in sweep order.
    pub points: Vec<Figure2Point>,
    /// Rendered text of the panel.
    pub rendered: String,
}

/// Computes and renders one Figure 2 panel (ERRev as a function of `p` for
/// every attack configuration and both baselines) for the given γ.
///
/// # Errors
///
/// Propagates model-construction and solver errors.
pub fn figure2(gamma: f64, epsilon: f64) -> Result<Figure2Panel, SelfishMiningError> {
    let mut panels = figure2_panels(&[gamma], epsilon)?;
    Ok(panels.pop().expect("one gamma yields one panel"))
}

/// Computes and renders every requested Figure 2 panel in **one** run of the
/// parallel sweep engine (`sm_grid::SweepConfig`): each `(d, f)` parametric
/// arena is built once for all panels and the `(d, f) × γ` curve jobs are
/// fanned out over the worker pool with warm-started solves along each `p`
/// curve.
///
/// # Errors
///
/// Propagates model-construction and solver errors.
pub fn figure2_panels(
    gammas: &[f64],
    epsilon: f64,
) -> Result<Vec<Figure2Panel>, SelfishMiningError> {
    let grid = attack_grid();
    let config = SweepConfig {
        attack_grid: grid.clone(),
        epsilon,
        ..SweepConfig::default()
    };
    let ps = p_grid();
    let points = config.run(gammas, &ps)?;
    Ok(gammas
        .iter()
        .enumerate()
        .map(|(gamma_index, &gamma)| {
            let rows = points[gamma_index * ps.len()..(gamma_index + 1) * ps.len()].to_vec();
            Figure2Panel {
                gamma,
                rendered: render_figure2_rows(&grid, &rows),
                points: rows,
            }
        })
        .collect())
}

/// Renders one panel's rows as an aligned text series.
fn render_figure2_rows(grid: &[(usize, usize)], points: &[Figure2Point]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:>6} {:>9} {:>12}", "p", "honest", "single-tree");
    for (d, f) in grid {
        let _ = write!(out, " {:>11}", format!("d={d},f={f}"));
    }
    let _ = writeln!(out);
    for point in points {
        let _ = write!(
            out,
            "{:>6.2} {:>9.4} {:>12.4}",
            point.p, point.honest_revenue, point.single_tree_revenue
        );
        for value in &point.attack_revenue {
            let _ = write!(out, " {:>11.4}", value);
        }
        let _ = writeln!(out);
    }
    out
}

/// The γ values of the paper's Figure 2.
pub fn gamma_grid() -> Vec<f64> {
    PAPER_GAMMA_GRID.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grids_are_affordable() {
        // The test environment does not set the expensive flag, so the grids
        // must stay small.
        if !expensive_enabled() {
            assert!(attack_grid().len() <= 3);
            assert!(p_grid().len() <= 7);
        }
        assert_eq!(gamma_grid().len(), 5);
    }

    #[test]
    fn table1_renders_all_rows() {
        let rows = vec![Table1Row {
            attack: "our attack".to_string(),
            depth: 2,
            forks: 1,
            num_states: 123,
            seconds: 1.5,
            revenue: 0.31,
        }];
        let rendered = render_table1(&rows);
        assert!(rendered.contains("our attack"));
        assert!(rendered.contains("123"));
        assert_eq!(rendered.lines().count(), 2);
    }

    #[test]
    fn figure2_panel_small_smoke_test() {
        // A single cheap panel point set: restrict via a tiny epsilon-coarse
        // sweep by calling the underlying sweep directly through figure2 with
        // the default (non-expensive) grids.
        let panel = figure2(0.5, 1e-2).unwrap();
        assert_eq!(panel.gamma, 0.5);
        assert!(panel.rendered.contains("single-tree"));
        assert!(panel.rendered.lines().count() >= 2);
    }
}
