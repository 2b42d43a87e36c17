//! `sm-audit` — independent static checks for the selfish-mining solver
//! stack. Three passes, none of which import any solver machinery on their
//! checking path:
//!
//! 1. **Certificate audit** ([`audit_certificate`]): re-validates a
//!    serialized [`CertificateArtifact`] (bracket, strategy, bias witness)
//!    against an arena with plain Jacobi Bellman-residual sweeps — no
//!    relative value iteration, no Dinkelbach, no warm starts. Soundness
//!    rests on the residual sandwich `min Δ ≤ g*(β) ≤ max Δ`, which holds
//!    for *any* finite bias vector; see [`certificate`] for the argument.
//! 2. **Arena invariant analysis** ([`audit_model`], [`audit_parametric`],
//!    [`audit_scenario_restriction`]): proves CSR layouts, probability
//!    mass, reward tables, symbolic term tables and scenario action-subset
//!    relations well-formed without solving anything.
//! 3. **Source lint** ([`lint`] and the `lint_source` binary): a
//!    dependency-free scan of the workspace for determinism and panic
//!    hygiene (hash-container iteration, `unwrap()`/indexing/casts outside
//!    tests, undocumented `unsafe`), gated by a committed allowlist.
//!
//! The crate deliberately depends only on `sm-core` and `sm-mdp` (for the
//! arena types), keeping the trusted base of the audit small.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod artifact;
pub mod certificate;
pub mod fingerprint;
pub mod json;
pub mod links;
pub mod lint;
pub mod report;

pub use arena::{
    audit_mdp, audit_model, audit_parametric, audit_rewards, audit_scenario_restriction,
};
pub use artifact::{CertificateArtifact, ARTIFACT_SCHEMA};
pub use certificate::{audit_certificate, derive_tolerances, AuditConfig, AuditTolerances};
pub use fingerprint::{model_fingerprint, Fnv1a};
pub use lint::{lint_source, lint_workspace, Finding, LintOutcome};
pub use report::{AuditReport, Obligation, ObligationOutcome};
