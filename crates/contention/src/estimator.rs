//! The period estimator — the algorithm of the paper's Figure 4.
//!
//! For every actor of every active application the estimator
//!
//! 1. computes the blocking probability `P(aᵢⱼ)` from the application's
//!    period (steps 2–4 of Figure 4),
//! 2. computes the waiting time from the other actors mapped on the same
//!    node with the selected [`Method`] (step 8),
//! 3. inflates the actor's execution time by its waiting time (step 9), and
//! 4. recomputes the application's period on the inflated graph via the
//!    exact state-space analysis (step 11).
//!
//! Like the paper, the estimator makes a single pass: blocking
//! probabilities are derived from the *isolation* periods.
//!
//! # Examples
//!
//! Reproducing the paper's Section 3.1 numbers end to end:
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
//! let est = estimate(&spec, UseCase::full(2), Method::Exact)?;
//! // "The new period of SDFG A and B is computed as 359 time units"
//! // (exactly 1075/3 = 358.33…).
//! assert_eq!(est.period(AppId(0)), Rational::new(1075, 3));
//! assert_eq!(est.period(AppId(1)), Rational::new(1075, 3));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::compose::Composite;
use crate::load::ActorLoad;
use crate::waiting::{waiting_time, Order};
use crate::worst_case::{round_robin_waiting_time, tdma_waiting_time};
use crate::ContentionError;
use platform::{AppId, NodeId, SystemSpec, UseCase};
use sdf::{ActorId, Rational};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Quantisation grid for blocking probabilities: probabilities are snapped
/// to the nearest multiple of `1/PROBABILITY_GRID` before entering the
/// waiting-time formulae.
///
/// Exact arithmetic over `i128` cannot absorb 9-fold products of
/// probabilities with arbitrary denominators (periods of random graphs);
/// `2520 = 2³·3²·5·7` keeps every "textbook" probability (thirds, quarters,
/// tenths, …) exact — including all of the paper's worked examples — while
/// bounding the absolute quantisation error by `1/5040 ≈ 2·10⁻⁴`, far below
/// the model's own ~10 % accuracy.
pub const PROBABILITY_GRID: i128 = 2520;

/// Quantisation grid for waiting times: computed waiting times are snapped
/// to the nearest `1/WAITING_TIME_GRID = 1/2520² ≈ 1.6·10⁻⁷` before
/// inflating execution times, which bounds denominators in the subsequent
/// state-space period analysis.
pub const WAITING_TIME_GRID: i128 = 2520 * 2520;

/// The estimation technique to apply — the four approaches of the paper's
/// Table 1 plus the exact formula and a TDMA variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Equation 4 in full (evaluated in `O(n²)` via symmetric-polynomial
    /// deconvolution, see [`crate::symmetric`]).
    Exact,
    /// m-th order truncation (Equation 5), `m ≥ 1`; the paper's
    /// "Probabilistic Second Order" is `Order(2)`, "Probabilistic Fourth
    /// Order" is `Order(4)`.
    Order(u32),
    /// The composability algebra of Section 4.2 (Equations 6/7, with the
    /// `O(n)` inverse-based per-actor extraction of Equations 8/9).
    Composability,
    /// Worst-case response time for non-preemptive round-robin (Hoes \[6\]).
    WorstCaseRoundRobin,
    /// Worst-case response time for preemptive equal-share TDMA (after
    /// Bekooij et al. \[3\]).
    WorstCaseTdma,
}

impl Method {
    /// The paper's second-order approximation.
    pub const SECOND_ORDER: Method = Method::Order(2);
    /// The paper's fourth-order approximation.
    pub const FOURTH_ORDER: Method = Method::Order(4);

    /// The four methods of the paper's Table 1, in its row order.
    pub fn table1() -> [Method; 4] {
        [
            Method::WorstCaseRoundRobin,
            Method::Composability,
            Method::FOURTH_ORDER,
            Method::SECOND_ORDER,
        ]
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Method::Exact => write!(f, "exact"),
            Method::Order(m) => write!(f, "order-{m}"),
            Method::Composability => write!(f, "composability"),
            Method::WorstCaseRoundRobin => write!(f, "worst-case-rr"),
            Method::WorstCaseTdma => write!(f, "worst-case-tdma"),
        }
    }
}

impl std::str::FromStr for Method {
    type Err = String;

    /// Parses the [`Display`](fmt::Display) names (`exact`, `order-N` with
    /// `N ≥ 1`, `composability`, `worst-case-rr`, `worst-case-tdma`) — the
    /// round-trip the `probcon` CLI and serialized artefacts (e.g. sign-off
    /// reports) rely on.
    fn from_str(s: &str) -> Result<Method, String> {
        Ok(match s {
            "exact" => Method::Exact,
            "composability" => Method::Composability,
            "worst-case-rr" => Method::WorstCaseRoundRobin,
            "worst-case-tdma" => Method::WorstCaseTdma,
            other => {
                if let Some(m) = other.strip_prefix("order-") {
                    match m.parse() {
                        Ok(m) if m >= 1 => Method::Order(m),
                        _ => return Err(format!("bad order '{other}': expected N ≥ 1")),
                    }
                } else {
                    return Err(format!("unknown method '{other}'"));
                }
            }
        })
    }
}

/// Result of one estimation run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Estimate {
    method: Method,
    use_case: UseCase,
    periods: BTreeMap<AppId, Rational>,
    waiting_times: BTreeMap<(AppId, ActorId), Rational>,
}

impl Estimate {
    /// The method that produced this estimate.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The use-case that was analyzed.
    pub fn use_case(&self) -> UseCase {
        self.use_case
    }

    /// Estimated period of `app`.
    ///
    /// # Panics
    ///
    /// Panics if `app` was not part of the analyzed use-case.
    pub fn period(&self, app: AppId) -> Rational {
        self.periods[&app]
    }

    /// Estimated throughput (`1/period`) of `app`.
    ///
    /// # Panics
    ///
    /// Panics if `app` was not part of the analyzed use-case.
    pub fn throughput(&self, app: AppId) -> Rational {
        self.periods[&app].recip()
    }

    /// All estimated periods, keyed by application.
    pub fn periods(&self) -> &BTreeMap<AppId, Rational> {
        &self.periods
    }

    /// Estimated waiting time of one actor.
    pub fn waiting_time(&self, app: AppId, actor: ActorId) -> Option<Rational> {
        self.waiting_times.get(&(app, actor)).copied()
    }

    /// All per-actor waiting times.
    pub fn waiting_times(&self) -> &BTreeMap<(AppId, ActorId), Rational> {
        &self.waiting_times
    }
}

/// Runs the Figure 4 algorithm.
///
/// # Errors
///
/// * [`ContentionError::ZeroOrder`] for `Method::Order(0)`;
/// * [`ContentionError::Platform`] if `use_case` references unknown
///   applications;
/// * [`ContentionError::Graph`] if a period recomputation fails (e.g. the
///   analysis budget is exhausted);
/// * probability-domain errors if a load is malformed (cannot happen for
///   specs built from validated [`platform::Application`]s).
///
/// # Examples
///
/// See the [module documentation](self).
pub fn estimate(
    spec: &SystemSpec,
    use_case: UseCase,
    method: Method,
) -> Result<Estimate, ContentionError> {
    if method == Method::Order(0) {
        return Err(ContentionError::ZeroOrder);
    }
    spec.validate_use_case(use_case)
        .map_err(ContentionError::Platform)?;

    let active: Vec<AppId> = use_case.app_ids().collect();

    // Steps 2-4: blocking probabilities (and µ) for every actor, from the
    // isolation period Per(Ai) of the unloaded graph.
    let mut node_members: BTreeMap<NodeId, Vec<(AppId, ActorId, ActorLoad, Rational)>> =
        BTreeMap::new();
    for &app_id in &active {
        let app = spec.application(app_id);
        let per = app.isolation_period();
        for actor in app.graph().actor_ids() {
            let tau = app.graph().execution_time(actor);
            let q = app.repetition_vector().get(actor);
            let load = ActorLoad::from_constant_time(tau, q, per)?.quantized(PROBABILITY_GRID)?;
            let node = spec.node_of(app_id, actor);
            node_members
                .entry(node)
                .or_default()
                .push((app_id, actor, load, tau));
        }
    }

    // Steps 6-10: waiting time per actor, execution-time inflation.
    let mut waiting_times: BTreeMap<(AppId, ActorId), Rational> = BTreeMap::new();
    for members in node_members.values() {
        // Composability fast path: fold the whole node once, then
        // extract each actor's "others" via the inverse (Equations 8/9).
        let node_composite = if method == Method::Composability {
            Some(Composite::from_actors(members.iter().map(|m| m.2)))
        } else {
            None
        };

        for (i, &(app_id, actor, load, tau)) in members.iter().enumerate() {
            let twait = match method {
                Method::Exact => {
                    let others = collect_others(members, i);
                    waiting_time(&others, Order::Exact)
                }
                Method::Order(m) => {
                    let others = collect_others(members, i);
                    waiting_time(&others, Order::Truncated(m))
                }
                Method::Composability => {
                    let all = node_composite.expect("composite computed above");
                    match all.decompose(Composite::from_actor(load)) {
                        Ok(rest) => rest.expected_waiting(),
                        // P = 1 blocks the inverse; fall back to the
                        // direct O(n) fold over the others.
                        Err(ContentionError::SaturatedInverse) => Composite::from_actors(
                            members
                                .iter()
                                .enumerate()
                                .filter(|(k, _)| *k != i)
                                .map(|(_, m)| m.2),
                        )
                        .expected_waiting(),
                        Err(e) => return Err(e),
                    }
                }
                Method::WorstCaseRoundRobin => {
                    let taus: Vec<Rational> = members
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| *k != i)
                        .map(|(_, m)| m.3)
                        .collect();
                    round_robin_waiting_time(&taus)
                }
                Method::WorstCaseTdma => tdma_waiting_time(tau, members.len() - 1),
            };
            waiting_times.insert((app_id, actor), twait.quantize(WAITING_TIME_GRID));
        }
    }

    // Step 11: new period per application on the inflated graph.
    let mut periods: BTreeMap<AppId, Rational> = BTreeMap::new();
    for &app_id in &active {
        let app = spec.application(app_id);
        let times: Vec<Rational> = app
            .graph()
            .actor_ids()
            .map(|actor| {
                app.graph().execution_time(actor)
                    + waiting_times
                        .get(&(app_id, actor))
                        .copied()
                        .unwrap_or(Rational::ZERO)
            })
            .collect();
        let period = app
            .period_with_times(&times)
            .map_err(ContentionError::Graph)?;
        periods.insert(app_id, period);
    }

    Ok(Estimate {
        method,
        use_case,
        periods,
        waiting_times,
    })
}

fn collect_others(
    members: &[(AppId, ActorId, ActorLoad, Rational)],
    skip: usize,
) -> Vec<ActorLoad> {
    members
        .iter()
        .enumerate()
        .filter(|(k, _)| *k != skip)
        .map(|(_, m)| m.2)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::{Application, Mapping};
    use sdf::figure2_graphs;

    fn figure2_spec() -> SystemSpec {
        let (a, b) = figure2_graphs();
        SystemSpec::builder()
            .application(Application::new("A", a).unwrap())
            .application(Application::new("B", b).unwrap())
            .mapping(Mapping::by_actor_index(3))
            .build()
            .unwrap()
    }

    #[test]
    fn paper_section31_waiting_times() {
        let spec = figure2_spec();
        let est = estimate(&spec, UseCase::full(2), Method::Exact).unwrap();
        // twait[a0 a1 a2] = [25/3, 50/3, 50/3]
        assert_eq!(
            est.waiting_time(AppId(0), ActorId(0)),
            Some(Rational::new(25, 3))
        );
        assert_eq!(
            est.waiting_time(AppId(0), ActorId(1)),
            Some(Rational::new(50, 3))
        );
        assert_eq!(
            est.waiting_time(AppId(0), ActorId(2)),
            Some(Rational::new(50, 3))
        );
        // twait[b0 b1 b2] = [50/3, 25/3, 50/3]
        assert_eq!(
            est.waiting_time(AppId(1), ActorId(0)),
            Some(Rational::new(50, 3))
        );
        assert_eq!(
            est.waiting_time(AppId(1), ActorId(1)),
            Some(Rational::new(25, 3))
        );
        assert_eq!(
            est.waiting_time(AppId(1), ActorId(2)),
            Some(Rational::new(50, 3))
        );
    }

    #[test]
    fn paper_section31_periods() {
        let spec = figure2_spec();
        for method in [
            Method::Exact,
            Method::SECOND_ORDER,
            Method::FOURTH_ORDER,
            Method::Composability,
        ] {
            let est = estimate(&spec, UseCase::full(2), method).unwrap();
            // One other actor per node: all probabilistic methods coincide
            // and give the paper's 359 (exactly 1075/3).
            assert_eq!(est.period(AppId(0)), Rational::new(1075, 3), "{method}");
            assert_eq!(est.period(AppId(1)), Rational::new(1075, 3), "{method}");
        }
    }

    #[test]
    fn single_app_use_case_is_isolation() {
        let spec = figure2_spec();
        for method in [
            Method::Exact,
            Method::Composability,
            Method::WorstCaseRoundRobin,
            Method::WorstCaseTdma,
        ] {
            let est = estimate(&spec, UseCase::single(AppId(0)), method).unwrap();
            assert_eq!(est.period(AppId(0)), Rational::integer(300), "{method}");
        }
    }

    #[test]
    fn worst_case_is_more_pessimistic() {
        let spec = figure2_spec();
        let prob = estimate(&spec, UseCase::full(2), Method::Exact).unwrap();
        let wc = estimate(&spec, UseCase::full(2), Method::WorstCaseRoundRobin).unwrap();
        assert!(wc.period(AppId(0)) > prob.period(AppId(0)));
        // Worst case round-robin: each actor waits the other's full τ.
        // A: τ' = [100+50, 50+100, 100+100] → Per = 150+2·150+200 = 650.
        assert_eq!(wc.period(AppId(0)), Rational::integer(650));
    }

    #[test]
    fn tdma_bound() {
        let spec = figure2_spec();
        let est = estimate(&spec, UseCase::full(2), Method::WorstCaseTdma).unwrap();
        // k = 2 on every node → response = 2τ → period doubles.
        assert_eq!(est.period(AppId(0)), Rational::integer(600));
    }

    #[test]
    fn unknown_app_rejected() {
        let spec = figure2_spec();
        let err = estimate(&spec, UseCase::single(AppId(9)), Method::Exact).unwrap_err();
        assert!(matches!(err, ContentionError::Platform(_)));
    }

    #[test]
    fn zeroth_order_rejected() {
        let spec = figure2_spec();
        let err = estimate(&spec, UseCase::full(2), Method::Order(0)).unwrap_err();
        assert_eq!(err, ContentionError::ZeroOrder);
        assert!(estimate(&spec, UseCase::full(2), Method::Order(1)).is_ok());
    }

    #[test]
    fn estimate_metadata() {
        let spec = figure2_spec();
        let est = estimate(&spec, UseCase::full(2), Method::SECOND_ORDER).unwrap();
        assert_eq!(est.method(), Method::SECOND_ORDER);
        assert_eq!(est.use_case(), UseCase::full(2));
        assert_eq!(est.periods().len(), 2);
        assert_eq!(est.waiting_times().len(), 6);
        assert_eq!(est.throughput(AppId(0)), est.period(AppId(0)).recip());
        assert_eq!(est.waiting_time(AppId(0), ActorId(9)), None);
    }

    #[test]
    fn method_display_and_table1() {
        assert_eq!(Method::Exact.to_string(), "exact");
        assert_eq!(Method::SECOND_ORDER.to_string(), "order-2");
        assert_eq!(Method::Composability.to_string(), "composability");
        assert_eq!(Method::WorstCaseRoundRobin.to_string(), "worst-case-rr");
        assert_eq!(Method::table1().len(), 4);
    }

    #[test]
    fn method_parse_roundtrips_display() {
        for method in [
            Method::Exact,
            Method::SECOND_ORDER,
            Method::FOURTH_ORDER,
            Method::Order(7),
            Method::Composability,
            Method::WorstCaseRoundRobin,
            Method::WorstCaseTdma,
        ] {
            assert_eq!(method.to_string().parse::<Method>(), Ok(method));
        }
        assert!("bogus".parse::<Method>().is_err());
        assert!("order-x".parse::<Method>().is_err());
        assert!("order-0".parse::<Method>().is_err());
    }
}
