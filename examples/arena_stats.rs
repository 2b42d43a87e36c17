//! Arena memory report: resident bytes of the compact CSR skeleton and the
//! interned symbolic term tables per `(d, f, scenario)` topology, next to
//! what the same tables would occupy in the pre-compaction representation
//! (`usize` indices, un-interned per-transition terms), and the bytes each
//! `(p, γ)` instantiation adds on top of the shared family (its probability
//! buffer and two per-pair reward tables).
//!
//! ```text
//! cargo run --release --example arena_stats
//! ```
//!
//! With `SM_BENCH_JSON=<path>` set, each footprint is also recorded into the
//! `mem_footprint` array of the `sm-bench/v2` report, so the CI gate
//! (`bench_check`) tracks memory next to wall-clock time. The expensive
//! `d=4, f=3` topology is included when `SM_BENCH_EXPENSIVE=1`.

use criterion::record_memory;
use selfish_mining::{AttackScenario, ParametricModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut configs = vec![
        (AttackScenario::Optimal, 2, 1, 4),
        (AttackScenario::Optimal, 2, 2, 4),
        (AttackScenario::LeadStubborn, 2, 2, 4),
        (AttackScenario::Optimal, 3, 2, 4),
    ];
    if std::env::var("SM_BENCH_EXPENSIVE").as_deref() == Ok("1") {
        // The `d = 4, f = 3` scale target runs at level budget l = 2: the
        // l ≥ 3 reachable sets blow past the solver's default 12M-state
        // limit, while l = 2 lands at ~3.0M states / 22.9M transitions.
        configs.push((AttackScenario::Optimal, 4, 3, 2));
    }

    println!(
        "{:<28} {:>9} {:>10} {:>12} {:>14} {:>14} {:>9} {:>14}",
        "topology",
        "states",
        "pairs",
        "transitions",
        "compact (B)",
        "before (B)",
        "saved",
        "per model (B)"
    );
    for (scenario, d, f, l) in configs {
        let family = ParametricModel::build_scenario(scenario, d, f, l)?;
        let name = format!("{}-d{d}-f{f}-l{l}", scenario.label());

        let layout = family.layout_bytes();
        let terms = family.term_table_bytes();
        let compact = layout + terms;
        // The pre-compaction footprint of the same data: the CSR offset and
        // column tables at 8 bytes per index, the term tables un-interned.
        let states = family.num_states();
        let pairs = family.num_pairs();
        let transitions = family.num_transitions();
        let layout_before = 8 * (states + 1 + pairs + 1 + transitions);
        let before = layout_before + family.term_table_bytes_uncompressed();
        let saved = 100.0 * (1.0 - compact as f64 / before as f64);
        let per_model = family.instantiate(0.3, 0.5)?.resident_bytes();

        println!(
            "{name:<28} {states:>9} {pairs:>10} {transitions:>12} {compact:>14} {before:>14} \
             {saved:>8.1}% {per_model:>14}"
        );
        println!(
            "  distinct terms: {}, distinct outcomes: {}",
            family.distinct_terms(),
            family.distinct_outcomes()
        );

        record_memory(format!("arena/{name}/layout_bytes"), layout as u64);
        record_memory(format!("arena/{name}/term_table_bytes"), terms as u64);
    }
    Ok(())
}
