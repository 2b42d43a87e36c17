//! Umbrella crate for the reproduction of *"Fully Automated Selfish Mining
//! Analysis in Efficient Proof Systems Blockchains"* (PODC 2024).
//!
//! This crate re-exports the workspace members under one roof so that the
//! examples and integration tests can depend on a single package:
//!
//! * [`mdp`] — finite MDPs, the relative-value-iteration mean-payoff
//!   solver, and the Markov chains positional strategies induce with the
//!   fused iterative evaluation of their long-run average rewards; also the
//!   workspace's one thread substrate (`mdp::run_budgeted_jobs`, the
//!   nested-budget job loop of the grid runner, the sweep engine and the
//!   query service).
//! * [`proofs`] — simulated efficient proof systems (PoW, PoStake, PoSpace,
//!   VDF, PoST) and the `(p, k)`-mining abstraction.
//! * [`chain`] — the discrete-time longest-chain blockchain simulator.
//! * [`selfish_mining`] — the paper's selfish-mining MDP, the certified
//!   analysis (`experiments::CurveTracker`) and the baselines.
//! * [`conformance`] — statistical conformance: Monte-Carlo estimation of
//!   exported strategies and solver-vs-simulator certification.
//! * [`grid`] — the conformance grid and its one runner, a fault-tolerant
//!   sharded orchestrator: idempotent point-jobs with durable `sm-grid/v1`
//!   artifacts, scan → execute rounds that re-schedule failed or torn
//!   points, checkpoint/resume and a deterministic merge; plus the parallel `(p, γ)` Figure 2 sweep over
//!   the parametric transition arena (`grid::SweepConfig`: worker pool +
//!   warm-started solves).
//! * [`service`] — the persistent certified-analysis query service: cached
//!   parametric arenas, memoized certified solves and a JSONL front end.
//! * [`audit`] — the independent static-analysis layer: certificate
//!   re-verification, arena invariant checks and the source lint.
//!
//! The exact reference solvers the integration tests cross-check against
//! (policy iteration, stationary analysis, dense LU) are the
//! dev-only `sm-oracle` crate, deliberately not re-exported here.
//!
//! See `README.md` for a quickstart, `ARCHITECTURE.md` for the workspace
//! map and cross-cutting contracts, and `EXPERIMENTS.md` for the
//! reproduction of every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sm_audit as audit;
pub use sm_chain as chain;
pub use sm_conformance as conformance;
pub use sm_grid as grid;
pub use sm_mdp as mdp;
pub use sm_proofs as proofs;
pub use sm_service as service;

pub use selfish_mining;

/// Command-line plumbing shared by the example drivers.
pub mod cli {
    /// Extracts a `--threads N` / `--threads=N` flag from command-line
    /// arguments: the global thread budget for the sweep engine's nested
    /// scheduler (outer curve jobs plus intra-solve threads — see
    /// `sm_grid::SweepConfig::workers`). Returns `None` when the flag is
    /// absent (callers default to `0`, i.e. auto-detection), so CI and
    /// local runs can pin the pool shape explicitly:
    ///
    /// ```text
    /// cargo run --release --example parameter_sweep -- --threads 4
    /// ```
    ///
    /// When the flag is repeated, the last occurrence wins — the usual
    /// command-line convention, which lets wrapper scripts append an
    /// override after a default (`--threads 4 ... --threads=8` is 8).
    ///
    /// # Errors
    ///
    /// Returns a usage message when any occurrence of the flag is missing a
    /// value or carries one that is not a positive integer.
    pub fn thread_budget<I>(args: I) -> Result<Option<usize>, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut budget = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let value = if arg == "--threads" {
                args.next()
                    .ok_or("--threads needs a value (e.g. --threads 4)")?
            } else if let Some(value) = arg.strip_prefix("--threads=") {
                value.to_string()
            } else {
                continue;
            };
            budget = Some(
                value
                    .parse::<usize>()
                    .ok()
                    .filter(|&threads| threads >= 1)
                    .ok_or(format!(
                        "--threads expects a positive integer, got {value:?}"
                    ))?,
            );
        }
        Ok(budget)
    }

    /// Extracts a `--backends LIST` / `--backends=LIST` flag from
    /// command-line arguments: the consensus backends a conformance run
    /// witnesses each grid point under (`sm_conformance::
    /// ConformanceSettings::backends`). `LIST` is either the word `all`
    /// (the full default family, `selfish_mining::ConsensusBackend::
    /// default_family`) or a comma-separated list of backend labels:
    ///
    /// ```text
    /// cargo run --release --example grid -- reduced --backends all
    /// cargo run --release --example grid -- scenarios --backends bernoulli,postake,vdf
    /// ```
    ///
    /// Returns `None` when the flag is absent (callers keep the settings
    /// default). When the flag is repeated, the last occurrence wins, as
    /// with [`thread_budget`].
    ///
    /// # Errors
    ///
    /// Returns a usage message when any occurrence is missing a value or
    /// lists an unknown (or empty) backend label.
    pub fn backend_matrix<I>(
        args: I,
    ) -> Result<Option<Vec<selfish_mining::ConsensusBackend>>, String>
    where
        I: IntoIterator<Item = String>,
    {
        use selfish_mining::ConsensusBackend;
        let mut backends = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let value = if arg == "--backends" {
                args.next().ok_or(
                    "--backends needs a value (e.g. --backends bernoulli,vdf or --backends all)",
                )?
            } else if let Some(value) = arg.strip_prefix("--backends=") {
                value.to_string()
            } else {
                continue;
            };
            if value == "all" {
                backends = Some(ConsensusBackend::default_family());
                continue;
            }
            let parsed: Result<Vec<ConsensusBackend>, String> = value
                .split(',')
                .map(|label| {
                    let label = label.trim();
                    ConsensusBackend::from_label(label)
                        .ok_or_else(|| format!("--backends: unknown backend label {label:?}"))
                })
                .collect();
            backends = Some(parsed?);
        }
        Ok(backends)
    }

    #[cfg(test)]
    mod tests {
        use super::{backend_matrix, thread_budget};
        use selfish_mining::ConsensusBackend;

        fn strings(args: &[&str]) -> Vec<String> {
            args.iter().map(|s| s.to_string()).collect()
        }

        #[test]
        fn parses_both_flag_forms_and_absence() {
            assert_eq!(thread_budget(strings(&[])).unwrap(), None);
            assert_eq!(
                thread_budget(strings(&["reduced", "--threads", "4"])).unwrap(),
                Some(4)
            );
            assert_eq!(
                thread_budget(strings(&["--threads=8", "reduced"])).unwrap(),
                Some(8)
            );
        }

        #[test]
        fn rejects_missing_or_malformed_values() {
            assert!(thread_budget(strings(&["--threads"])).is_err());
            assert!(thread_budget(strings(&["--threads", "zero"])).is_err());
            assert!(thread_budget(strings(&["--threads", "0"])).is_err());
        }

        #[test]
        fn last_occurrence_wins_across_both_spellings() {
            assert_eq!(
                thread_budget(strings(&["--threads", "4", "--threads", "8"])).unwrap(),
                Some(8)
            );
            assert_eq!(
                thread_budget(strings(&["--threads=4", "reduced", "--threads", "2"])).unwrap(),
                Some(2)
            );
            assert_eq!(
                thread_budget(strings(&["--threads", "2", "--threads=6"])).unwrap(),
                Some(6)
            );
            // A malformed occurrence is a usage error even when a later
            // occurrence would be valid: silent recovery would hide typos.
            assert!(thread_budget(strings(&["--threads", "x", "--threads", "4"])).is_err());
        }

        #[test]
        fn backend_matrix_parses_lists_and_the_all_family() {
            assert_eq!(backend_matrix(strings(&[])).unwrap(), None);
            assert_eq!(
                backend_matrix(strings(&[
                    "reduced",
                    "--backends",
                    "bernoulli,postake , vdf"
                ]))
                .unwrap(),
                Some(vec![
                    ConsensusBackend::Bernoulli,
                    ConsensusBackend::PoStake,
                    ConsensusBackend::Vdf,
                ])
            );
            assert_eq!(
                backend_matrix(strings(&["--backends=post(3)"])).unwrap(),
                Some(vec![ConsensusBackend::Post { vdfs: 3 }])
            );
            assert_eq!(
                backend_matrix(strings(&["--backends", "all"])).unwrap(),
                Some(ConsensusBackend::default_family())
            );
            // Last occurrence wins across both spellings.
            assert_eq!(
                backend_matrix(strings(&["--backends", "all", "--backends=pow-lottery"])).unwrap(),
                Some(vec![ConsensusBackend::PowLottery])
            );
        }

        #[test]
        fn backend_matrix_rejects_missing_unknown_and_empty_values() {
            assert!(backend_matrix(strings(&["--backends"])).is_err());
            assert!(backend_matrix(strings(&["--backends", "quantum"])).is_err());
            assert!(backend_matrix(strings(&["--backends", ""])).is_err());
            assert!(backend_matrix(strings(&["--backends", "bernoulli,,vdf"])).is_err());
            // A malformed occurrence is a usage error even when a later
            // occurrence would be valid.
            assert!(backend_matrix(strings(&["--backends", "x", "--backends", "all"])).is_err());
        }
    }
}
