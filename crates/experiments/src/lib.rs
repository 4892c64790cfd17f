//! # experiments — the paper's evaluation, reproduced
//!
//! This crate regenerates every table and figure of the paper's Section 5:
//!
//! | Artefact | Module | Paper claim reproduced |
//! |---|---|---|
//! | Figure 5 | [`fig5`] | probabilistic estimates track the simulated period under maximum contention; the worst-case bound is several-fold pessimistic |
//! | Table 1  | [`table1`](mod@table1) | mean inaccuracy of the worst-case approach ≫ the probabilistic approaches |
//! | Figure 6 | [`fig6`] | worst-case inaccuracy grows steeply with concurrent applications; probabilistic inaccuracy stays roughly flat |
//! | Timing (§5) | [`timing`] | analysis is orders of magnitude faster than exhaustive simulation |
//!
//! Beyond the paper's artefacts: [`validation`] (predicted vs observed
//! waiting times and node utilisation) and [`signoff`] (per-application
//! guarantees over all use-cases — the introduction's motivating workflow).
//!
//! The workload ([`workload`]) substitutes the paper's SDF³-generated graphs
//! with this repository's seeded generator, and the POOSL simulator with
//! `mpsoc-sim`, which arbitrates each node first-come-first-served and
//! non-preemptively as the paper's platform model prescribes.
//!
//! # Quick start
//!
//! ```no_run
//! use experiments::{
//!     report::render_table1,
//!     runner::{evaluate, EvalOptions},
//!     table1::table1,
//!     workload::{paper_workload, DEFAULT_SEED},
//! };
//! use platform::UseCase;
//!
//! let spec = paper_workload(DEFAULT_SEED)?;
//! let all = UseCase::all(10); // the paper's 1023 use-cases
//! let eval = evaluate(&spec, &all, &EvalOptions::default())?;
//! println!("{}", render_table1(&table1(&eval)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fig5;
pub mod fig6;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod signoff;
pub mod table1;
pub mod timing;
pub mod validation;
pub mod workload;

pub use fig5::{figure5_from_eval, Fig5Row};
pub use fig6::{figure6, Fig6Point};
pub use runner::{evaluate, EvalOptions, Evaluation, SimStats, UseCaseEval};
pub use signoff::{sign_off, AppSignOff, SignOffReport};
pub use table1::{table1, Table1Row};
pub use timing::TimingSummary;
pub use validation::{validate_internals, Validation};
pub use workload::{paper_workload, workload_with, DEFAULT_SEED, PAPER_APP_COUNT};
