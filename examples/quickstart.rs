//! Quickstart: build the selfish-mining MDP for one configuration, certify
//! one point with the analysis of Section 3.3 and print the ε-tight lower
//! bound on the optimal expected relative revenue together with the
//! strategy's exact value.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use selfish_mining::baselines::{honest_relative_revenue, SingleTreeAttack};
use selfish_mining::experiments::CurveTracker;
use selfish_mining::{AnalysisConfig, ParametricModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The smallest configuration in which the paper's attack beats both
    // baselines: depth d = 2, forking number f = 1, maximal fork length l = 4.
    let p = 0.3;
    let gamma = 0.5;

    println!("building the selfish-mining MDP for p={p}, gamma={gamma}, d=2, f=1, l=4 ...");
    let family = ParametricModel::build(2, 1, 4)?;
    println!(
        "  {} reachable states, {} state-action pairs",
        family.num_states(),
        family.num_pairs()
    );

    println!("certifying ERRev* (Dinkelbach iteration over beta, epsilon = 1e-3) ...");
    let mut tracker = CurveTracker::new(&family, gamma, true, AnalysisConfig::with_epsilon(1e-3));
    let result = tracker.advance(p)?;
    let model = tracker
        .into_arena()
        .ok_or("the tracker instantiated no arena")?;
    println!(
        "  epsilon-tight lower bound on ERRev*: {:.4} (bracket upper end {:.4}, {} inner solves)",
        result.beta_low,
        result.beta_up,
        result.steps.len()
    );
    println!(
        "  exact ERRev of the returned strategy: {:.4}",
        result.strategy_revenue
    );

    // Compare against the two baselines of the paper's evaluation.
    let honest = honest_relative_revenue(p)?;
    let single_tree = SingleTreeAttack::paper_configuration(p, gamma).analyse()?;
    println!("comparison at p = {p}, gamma = {gamma}:");
    println!("  honest mining        : {honest:.4}");
    println!(
        "  single-tree attack   : {:.4}",
        single_tree.relative_revenue
    );
    println!("  our attack (d=2,f=1) : {:.4}", result.strategy_revenue);

    // A short, human-readable view of the withholding behaviour the optimal
    // strategy uses (states in which it releases a fork).
    let releases = model.describe_strategy(&result.strategy)?;
    println!(
        "the optimal strategy publishes a private fork in {} of the {} states; first examples:",
        releases.len(),
        model.num_states()
    );
    for (state, action) in releases.iter().take(5) {
        println!("  {state}  ->  {action}");
    }
    Ok(())
}
