//! Quickstart: build the selfish-mining MDP for one configuration, run the
//! formal analysis (Algorithm 1) and print the ε-tight lower bound on the
//! optimal expected relative revenue together with the strategy's exact value.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use selfish_mining::baselines::{honest_relative_revenue, SingleTreeAttack};
use selfish_mining::{AnalysisProcedure, ParametricModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The smallest configuration in which the paper's attack beats both
    // baselines: depth d = 2, forking number f = 1, maximal fork length l = 4.
    let p = 0.3;
    let gamma = 0.5;

    println!("building the selfish-mining MDP for p={p}, gamma={gamma}, d=2, f=1, l=4 ...");
    let model = ParametricModel::build(2, 1, 4)?.instantiate(p, gamma)?;
    println!(
        "  {} reachable states, {} state-action pairs",
        model.num_states(),
        model.mdp().num_pairs()
    );

    println!("running Algorithm 1 (binary search over beta, epsilon = 1e-3) ...");
    let analysis = AnalysisProcedure::with_epsilon(1e-3);
    let result = analysis.solve(&model)?;
    println!(
        "  epsilon-tight lower bound on ERRev*: {:.4} (bracket [{:.4}, {:.4}], {} inner solves)",
        result.expected_relative_revenue,
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
