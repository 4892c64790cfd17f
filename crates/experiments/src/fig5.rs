//! Figure 5 — "Comparison of period computed using different analysis
//! techniques as compared to simulation result (all 10 applications running
//! concurrently)".
//!
//! One bar group per application `A`–`J`; every series is the application's
//! period under maximum contention **normalized to its isolation period**:
//! the analytical estimates, the simulated average, the worst case observed
//! in simulation, and the original (≡ 1 by construction).

use crate::runner::Evaluation;
use contention::Method;
use platform::{AppId, SystemSpec, UseCase};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One application's bar group in Figure 5 (all values normalized to the
/// isolation period).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Row {
    /// The application.
    pub app: AppId,
    /// Display name (`A`–`J`).
    pub name: String,
    /// Isolation period (the normalization denominator), in time units.
    pub isolation_period: f64,
    /// Original period, normalized — always exactly 1.
    pub original: f64,
    /// Simulated average period, normalized.
    pub simulated: f64,
    /// Worst period observed in simulation, normalized.
    pub simulated_worst: f64,
    /// Estimated period per method (display name), normalized.
    pub estimates: BTreeMap<String, f64>,
}

/// Builds Figure 5 from an [`Evaluation`] that contains the full use-case.
///
/// Returns `None` if the evaluation lacks the all-applications use-case.
pub fn figure5_from_eval(spec: &SystemSpec, eval: &Evaluation) -> Option<Vec<Fig5Row>> {
    let full = UseCase::full(spec.application_count());
    let case = eval.cases.iter().find(|c| c.use_case == full)?;
    let mut rows = Vec::new();
    for (app_id, app) in spec.iter() {
        let Some(stats) = case.simulated.get(&app_id) else {
            continue;
        };
        let iso = app.isolation_period().to_f64();
        let mut estimates = BTreeMap::new();
        for (method, per_app) in &case.estimated {
            if let Some(p) = per_app.get(&app_id) {
                estimates.insert(method.clone(), p / iso);
            }
        }
        rows.push(Fig5Row {
            app: app_id,
            name: app.name().to_string(),
            isolation_period: iso,
            original: 1.0,
            simulated: stats.average_period / iso,
            simulated_worst: stats.worst_period / iso,
            estimates,
        });
    }
    Some(rows)
}

/// Convenience: the default Figure 5 method set (the paper's four plus the
/// exact formula).
pub fn figure5_methods() -> Vec<Method> {
    vec![
        Method::WorstCaseRoundRobin,
        Method::FOURTH_ORDER,
        Method::SECOND_ORDER,
        Method::Composability,
        Method::Exact,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{evaluate, EvalOptions};
    use crate::workload::{workload_with, DEFAULT_SEED};
    use mpsoc_sim::SimConfig;
    use sdf::GeneratorConfig;

    #[test]
    fn figure5_shape_small_workload() {
        // 3 applications for test speed; `probcon paper` renders the full
        // 10-app figure.
        let spec = workload_with(DEFAULT_SEED, 3, &GeneratorConfig::default()).unwrap();
        let opts = EvalOptions {
            methods: figure5_methods(),
            sim: SimConfig::with_horizon(30_000),
        };
        let eval = evaluate(&spec, &[UseCase::full(3)], &opts).unwrap();
        let rows = figure5_from_eval(&spec, &eval).unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.original, 1.0);
            assert!(
                row.simulated >= 1.0 - 1e-9,
                "{}: {}",
                row.name,
                row.simulated
            );
            assert!(row.simulated_worst >= row.simulated - 1e-9);
            assert_eq!(row.estimates.len(), 5);
            // Worst-case estimate dominates the probabilistic ones.
            let wc = row.estimates[&Method::WorstCaseRoundRobin.to_string()];
            let second = row.estimates[&Method::SECOND_ORDER.to_string()];
            assert!(wc >= second, "{}: wc {wc} < 2nd {second}", row.name);
        }
    }

    #[test]
    fn figure5_from_eval_requires_full_case() {
        let spec = workload_with(DEFAULT_SEED, 2, &GeneratorConfig::default()).unwrap();
        let opts = EvalOptions {
            methods: vec![Method::SECOND_ORDER],
            sim: SimConfig::with_horizon(20_000),
        };
        let eval = evaluate(&spec, &[UseCase::single(AppId(0))], &opts).unwrap();
        assert!(figure5_from_eval(&spec, &eval).is_none());
    }
}
