//! # sdf — Synchronous Data Flow substrate
//!
//! This crate implements the SDF machinery that the probabilistic contention
//! model (crate `contention`) and the multiprocessor simulator (crate
//! `mpsoc-sim`) are built on, reproducing the toolchain of *"A Probabilistic
//! Approach to Model Resource Contention for Performance Estimation of
//! Multi-featured Media Devices"* (Kumar et al., DAC 2007):
//!
//! * [`SdfGraph`] / [`SdfGraphBuilder`] — the graph model (actors, channels,
//!   rates, initial tokens);
//! * [`repetition_vector`] — consistency and per-iteration firing counts
//!   (Definition 2 of the paper);
//! * [`analyze_period`] — exact self-timed period `Per(A)` via state-space
//!   exploration (Definition 3; Ghamarian et al. \[5\]);
//! * [`HsdfGraph`] + [`maximum_cycle_ratio`] — the classical MCM route
//!   (Dasdan \[4\]) used to cross-validate the state space;
//! * [`generate_graph`] — the SDF³-style random workload generator used by
//!   the paper's evaluation;
//! * [`Rational`] — exact arithmetic shared by all analyses.
//!
//! # Quick start
//!
//! ```
//! use sdf::{analyze_period, figure2_graphs, Rational};
//!
//! // The paper's Figure 2: two three-actor applications with period 300.
//! let (app_a, app_b) = figure2_graphs();
//! assert_eq!(analyze_period(&app_a)?.period, Rational::integer(300));
//! assert_eq!(analyze_period(&app_b)?.period, Rational::integer(300));
//! # Ok::<(), sdf::SdfError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod benchmarks;
pub mod buffer;
pub mod dot;
pub mod generator;
pub mod graph;
pub mod hsdf;
pub mod latency;
pub mod liveness;
pub mod mcm;
pub mod rational;
pub mod repetition;
pub mod state_space;
pub mod topology;

pub use buffer::{
    bounded_buffer_model, buffer_requirements, buffer_requirements_with, minimize_buffers,
    BufferReport,
};
pub use dot::to_dot;
pub use generator::{generate_graph, generate_graphs, GeneratorConfig};
pub use graph::{
    figure2_graphs, Actor, ActorId, Channel, ChannelId, SdfError, SdfGraph, SdfGraphBuilder,
};
pub use hsdf::{Firing, HsdfEdge, HsdfGraph};
pub use latency::iteration_latency;
pub use liveness::{is_live, validate_analyzable};
pub use mcm::maximum_cycle_ratio;
pub use rational::Rational;
pub use repetition::{is_consistent, repetition_vector, RepetitionVector};
pub use state_space::{
    analyze_period, analyze_period_with, period, period_with_times, AnalysisOptions, PeriodAnalysis,
};
pub use topology::{is_strongly_connected, reachable_from, strongly_connected_components};
