//! # contention — the paper's probabilistic resource-contention model
//!
//! This crate is the primary contribution of *"A Probabilistic Approach to
//! Model Resource Contention for Performance Estimation of Multi-featured
//! Media Devices"* (Kumar, Mesman, Corporaal, Theelen, Ha — DAC 2007),
//! implemented over the `sdf` and `platform` substrates:
//!
//! * [`ActorLoad`] — blocking probability `P(a) = τ·q/Per` and average
//!   blocking time `µ(a) = τ/2` (Definitions 4/5);
//! * [`waiting_time`] with [`Order`] — the exact waiting-time formula
//!   (Equation 4) and its m-th order approximations (Equation 5);
//! * [`Composite`] — the composability algebra `⊕`/`⊗` with exact inverses
//!   (Equations 6–9, Section 4.2);
//! * [`estimate`] with [`Method`] — the period-estimation algorithm of
//!   Figure 4, including the worst-case baselines of the related work
//!   ([`worst_case`]);
//! * [`AdmissionController`] — the run-time admission-control application
//!   sketched in the paper's conclusions;
//! * [`ExecutionTime`] — the stochastic execution-time extension.
//!
//! # Quick start
//!
//! ```
//! use contention::{estimate, Method};
//! use platform::{AppId, Application, Mapping, SystemSpec, UseCase};
//! use sdf::{figure2_graphs, Rational};
//!
//! let (a, b) = figure2_graphs();
//! let spec = SystemSpec::builder()
//!     .application(Application::new("A", a)?)
//!     .application(Application::new("B", b)?)
//!     .mapping(Mapping::by_actor_index(3))
//!     .build()?;
//!
//! // Estimated period under contention (paper: "359", exactly 1075/3).
//! let est = estimate(&spec, UseCase::full(2), Method::SECOND_ORDER)?;
//! assert_eq!(est.period(AppId(0)), Rational::new(1075, 3));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod compose;
pub mod dse;
pub mod estimator;
pub mod load;
pub mod stochastic;
pub mod symmetric;
pub mod waiting;
pub mod worst_case;

pub use admission::{AdmissionController, AdmissionOutcome, Decision, KernelCounters, Violation};
pub use compose::{composability_waiting_time, Composite};
pub use estimator::{estimate, Estimate, Method};
pub use load::ActorLoad;
pub use stochastic::ExecutionTime;
pub use waiting::{fourth_order_waiting_time, second_order_waiting_time, waiting_time, Order};

use platform::{AppId, PlatformError};
use sdf::{Rational, SdfError};
use std::fmt;

/// Errors of the contention analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentionError {
    /// A blocking probability fell outside `[0, 1]`.
    InvalidProbability(Rational),
    /// A blocking time was negative.
    NegativeBlockingTime(Rational),
    /// A period was zero or negative.
    NonPositivePeriod(Rational),
    /// The composability inverse was applied against a saturating load
    /// (`P = 1`, Equation 8's excluded case).
    SaturatedInverse,
    /// A stochastic execution-time distribution was malformed.
    InvalidDistribution(&'static str),
    /// [`Method::Order`] with `m = 0`: Equation 5 truncates at an order of
    /// at least 1, so a zeroth-order truncation is meaningless.
    ZeroOrder,
    /// An application id was not known to the admission controller.
    UnknownApplication(AppId),
    /// A platform-level error (unknown use-case member, mapping issues).
    Platform(PlatformError),
    /// An SDF analysis error during period recomputation.
    Graph(SdfError),
}

impl fmt::Display for ContentionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContentionError::InvalidProbability(p) => {
                write!(f, "blocking probability {p} outside [0, 1]")
            }
            ContentionError::NegativeBlockingTime(t) => {
                write!(f, "negative blocking time {t}")
            }
            ContentionError::NonPositivePeriod(p) => write!(f, "non-positive period {p}"),
            ContentionError::SaturatedInverse => {
                write!(f, "composability inverse undefined for P = 1")
            }
            ContentionError::InvalidDistribution(msg) => {
                write!(f, "invalid execution-time distribution: {msg}")
            }
            ContentionError::ZeroOrder => {
                write!(f, "truncation order must be at least 1 (got order-0)")
            }
            ContentionError::UnknownApplication(a) => write!(f, "unknown application {a}"),
            ContentionError::Platform(e) => write!(f, "platform error: {e}"),
            ContentionError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for ContentionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ContentionError::Platform(e) => Some(e),
            ContentionError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlatformError> for ContentionError {
    fn from(e: PlatformError) -> Self {
        ContentionError::Platform(e)
    }
}

impl From<SdfError> for ContentionError {
    fn from(e: SdfError) -> Self {
        ContentionError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(ContentionError::SaturatedInverse
            .to_string()
            .contains("P = 1"));
        assert!(ContentionError::InvalidProbability(Rational::new(3, 2))
            .to_string()
            .contains("3/2"));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn check<E: std::error::Error + Send + Sync + 'static>() {}
        check::<ContentionError>();
    }

    #[test]
    fn error_sources() {
        use std::error::Error;
        let e = ContentionError::Graph(SdfError::Deadlocked);
        assert!(e.source().is_some());
        assert!(ContentionError::SaturatedInverse.source().is_none());
    }
}
