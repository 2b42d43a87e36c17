//! Parameter sweep: how the optimal expected relative revenue changes with the
//! adversarial resource `p` and the switching probability `γ` — a scaled-down,
//! quickly-running version of the paper's Figure 2, driven by the parallel
//! sweep engine (`sm_grid::SweepConfig`): one parametric arena per `(d, f)`
//! configuration, curve jobs fanned out over a worker pool, and
//! warm-started solves along each `p` curve. CI runs this example on every
//! push to exercise the parallel path end to end.
//!
//! ```text
//! cargo run --release --example parameter_sweep
//! cargo run --release --example parameter_sweep -- --threads 4
//! ```
//!
//! `--threads N` pins the engine's global thread budget (outer curve jobs +
//! intra-solve threads); the default auto-detects the machine. The output
//! is identical for any budget.

use selfish_mining::experiments::coarse_p_grid;
use selfish_mining_repro::cli::thread_budget;
use selfish_mining_repro::grid::SweepConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workers = thread_budget(std::env::args().skip(1))?.unwrap_or(0);
    let config = SweepConfig {
        attack_grid: vec![(1, 1), (2, 1)],
        epsilon: 1e-3,
        workers,
        ..SweepConfig::default()
    };
    let ps = coarse_p_grid();
    // γ = 0 and γ = 1 exercise the masked (structurally kept,
    // numerically zero) branches of the parametric arena.
    let gammas = [0.0, 0.5, 1.0];
    let points = config.run(&gammas, &ps)?;

    for (gamma_index, gamma) in gammas.iter().enumerate() {
        println!("gamma = {gamma}");
        println!(
            "{:>6} {:>9} {:>12} {:>11} {:>11}",
            "p", "honest", "single-tree", "d=1,f=1", "d=2,f=1"
        );
        for point in &points[gamma_index * ps.len()..(gamma_index + 1) * ps.len()] {
            println!(
                "{:>6.2} {:>9.4} {:>12.4} {:>11.4} {:>11.4}",
                point.p,
                point.honest_revenue,
                point.single_tree_revenue,
                point.attack_revenue[0],
                point.attack_revenue[1]
            );
        }
        println!();
    }
    println!("(use `cargo run -p sm-bench --bin figure2` for the full figure reproduction)");
    Ok(())
}
