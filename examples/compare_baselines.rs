//! Full comparison at a single operating point: our attack for several
//! configurations versus the honest baseline, the single-tree baseline and the
//! classic proof-of-work closed form.
//!
//! ```text
//! cargo run --release --example compare_baselines            # p = 0.3, gamma = 0.5
//! cargo run --release --example compare_baselines -- 0.25 1  # custom p and gamma
//! ```

use selfish_mining::baselines::{
    eyal_sirer_relative_revenue, honest_relative_revenue, SingleTreeAttack,
};
use selfish_mining::experiments::CurveTracker;
use selfish_mining::{AnalysisConfig, ParametricModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let p: f64 = args.next().map(|a| a.parse()).transpose()?.unwrap_or(0.3);
    let gamma: f64 = args.next().map(|a| a.parse()).transpose()?.unwrap_or(0.5);

    println!("expected relative revenue at p = {p}, gamma = {gamma}\n");
    println!("{:<32} {:>10}", "strategy", "ERRev");
    println!(
        "{:<32} {:>10.4}",
        "honest mining",
        honest_relative_revenue(p)?
    );
    println!(
        "{:<32} {:>10.4}",
        "PoW selfish mining (closed form)",
        eyal_sirer_relative_revenue(p, gamma)?
    );
    let single_tree = SingleTreeAttack::paper_configuration(p, gamma).analyse()?;
    println!(
        "{:<32} {:>10.4}",
        "single-tree attack (l=4, f=5)", single_tree.relative_revenue
    );

    for (depth, forks) in [(1usize, 1usize), (2, 1), (2, 2)] {
        let family = ParametricModel::build(depth, forks, 4)?;
        let result = CurveTracker::new(&family, gamma, true, AnalysisConfig::with_epsilon(1e-3))
            .advance(p)?;
        println!(
            "{:<32} {:>10.4}",
            format!("our attack (d={depth}, f={forks}, l=4)"),
            result.strategy_revenue
        );
    }
    println!("\nchain quality is 1 - ERRev for each row (Section 2.2 of the paper).");
    Ok(())
}
