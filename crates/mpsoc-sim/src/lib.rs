//! # mpsoc-sim — multi-application MPSoC simulator
//!
//! A deterministic discrete-event simulator executing several SDF
//! applications on shared processing nodes with **non-preemptive**
//! arbitration — this reproduction's substitute for the POOSL simulations
//! the paper uses as ground truth ("Simulations were performed using POOSL
//! to give actual performance achieved for each use-case", Section 5).
//!
//! The simulator exercises exactly the mechanism the probabilistic model of
//! the `contention` crate abstracts: actors of independent applications
//! arrive at shared nodes at times governed by their own graphs' token flow
//! and queue for the resource without any imposed order.
//!
//! # Quick start
//!
//! ```
//! use mpsoc_sim::{simulate, SimConfig};
//! use platform::{AppId, Application, Mapping, SystemSpec, UseCase};
//! use sdf::figure2_graphs;
//!
//! let (a, b) = figure2_graphs();
//! let spec = SystemSpec::builder()
//!     .application(Application::new("A", a)?)
//!     .application(Application::new("B", b)?)
//!     .mapping(Mapping::by_actor_index(3))
//!     .build()?;
//!
//! let result = simulate(&spec, UseCase::full(2), SimConfig::with_horizon(60_000))?;
//! let period = result.app(AppId(0)).unwrap().average_period().unwrap();
//! assert!(period >= 300.0); // never faster than isolation
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod engine;
pub mod metrics;
pub mod trace;

pub use config::{JitterConfig, SimConfig};
pub use engine::{SimError, Simulation};
pub use metrics::{ActorStats, AppMetrics, NodeStats, SimResult};

use platform::{SystemSpec, UseCase};

/// Simulates `use_case` on `spec` — convenience wrapper around
/// [`Simulation::new`] + [`Simulation::run`].
///
/// # Errors
///
/// See [`Simulation::new`] and [`Simulation::run`].
///
/// # Examples
///
/// See the [crate documentation](crate).
pub fn simulate(
    spec: &SystemSpec,
    use_case: UseCase,
    config: SimConfig,
) -> Result<SimResult, SimError> {
    Simulation::new(spec, use_case, config)?.run()
}
