//! Simulation configuration.

use serde::{Deserialize, Serialize};

/// Options of one simulation run.
///
/// Nodes arbitrate first-come-first-served and non-preemptively: the
/// paper's platform model imposes no order ("actors are allowed to execute
/// with least contention on their own").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Simulated time horizon (time units). The paper simulates each
    /// use-case for 500 000 cycles.
    pub horizon: u64,
    /// Fraction of *completed iterations* discarded as warm-up before the
    /// average period is measured (self-timed executions have a transient).
    pub warmup_fraction: f64,
    /// Record a full execution trace ([`crate::trace::TraceEvent`] per
    /// request/start/completion). Off by default — paper-scale runs process
    /// millions of firings.
    pub trace: bool,
    /// Optional execution-time jitter, for validating the stochastic
    /// extension of the contention model (paper conclusions: "execution
    /// times … follow a probabilistic distribution").
    pub jitter: Option<JitterConfig>,
}

/// Multiplicative, uniformly distributed execution-time jitter.
///
/// Each firing's duration is drawn uniformly from
/// `τ · [1 − spread, 1 + spread]` (rounded, minimum 1 cycle), where
/// `spread = spread_percent / 100`. The mean duration stays `τ`, so the
/// blocking probability `P` is unchanged while the residual blocking time
/// `µ` grows with the variance — exactly what
/// `contention::ExecutionTime::uniform` predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JitterConfig {
    /// Half-width of the uniform jitter in percent of `τ` (0–100).
    pub spread_percent: u32,
    /// RNG seed (runs stay deterministic).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            horizon: 500_000,
            warmup_fraction: 0.25,
            trace: false,
            jitter: None,
        }
    }
}

impl SimConfig {
    /// A configuration with a custom horizon and default everything else.
    ///
    /// # Examples
    ///
    /// ```
    /// use mpsoc_sim::SimConfig;
    /// let c = SimConfig::with_horizon(100_000);
    /// assert_eq!(c.horizon, 100_000);
    /// ```
    pub fn with_horizon(horizon: u64) -> Self {
        SimConfig {
            horizon,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.horizon, 500_000);
        assert!(c.warmup_fraction > 0.0 && c.warmup_fraction < 1.0);
    }

    #[test]
    fn with_horizon() {
        assert_eq!(SimConfig::with_horizon(42).horizon, 42);
    }
}
