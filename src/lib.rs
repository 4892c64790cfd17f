//! # probcon — probabilistic resource-contention performance estimation
//!
//! An open-source reproduction of *"A Probabilistic Approach to Model
//! Resource Contention for Performance Estimation of Multi-featured Media
//! Devices"* (Kumar, Mesman, Corporaal, Theelen, Ha — DAC 2007).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`sdf`] — Synchronous Data Flow substrate: graphs, repetition vectors,
//!   exact self-timed period analysis, HSDF/MCR cross-validation, random
//!   graph generation, exact rational arithmetic.
//! * [`platform`] — processing nodes, mappings, applications, use-cases.
//! * [`contention`] — **the paper's contribution**: blocking probabilities,
//!   the exact and m-th order waiting-time formulae, the composability
//!   algebra with inverses, worst-case baselines, run-time admission
//!   control, stochastic execution times.
//! * [`mpsoc_sim`] — the deterministic discrete-event simulator used as
//!   ground truth (the reproduction's POOSL substitute).
//! * [`experiments`] — runners regenerating Figure 5, Table 1, Figure 6 and
//!   the timing comparison.
//! * [`runtime`] — the concurrent online resource manager: one unified
//!   `AdmissionService` trait implemented by the multi-platform
//!   `FleetManager` (sharded admission controllers per platform group,
//!   deciding without waiting and journaling every decision for
//!   deterministic replay), composable middleware layers (`Cached`
//!   estimate memoization with sign-off warming, `Metered`
//!   latency/throughput rows), and a one-version remote protocol whose
//!   client pipelines many admissions on one connection (`probcon serve`
//!   / `fleet-bench` / `replay`).
//!
//! # Example
//!
//! The paper's two-application worked example, end to end:
//!
//! ```
//! use probcon::contention::{estimate, Method};
//! use probcon::platform::{AppId, Application, Mapping, SystemSpec, UseCase};
//! use probcon::sdf::{figure2_graphs, Rational};
//!
//! let (a, b) = figure2_graphs();
//! let spec = SystemSpec::builder()
//!     .application(Application::new("A", a)?)
//!     .application(Application::new("B", b)?)
//!     .mapping(Mapping::by_actor_index(3))
//!     .build()?;
//! let est = estimate(&spec, UseCase::full(2), Method::SECOND_ORDER)?;
//! assert_eq!(est.period(AppId(0)), Rational::new(1075, 3)); // the paper's "359"
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use contention;
pub use experiments;
pub use mpsoc_sim;
pub use platform;
pub use runtime;
pub use sdf;
