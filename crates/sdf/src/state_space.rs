//! Self-timed execution and exact period (throughput) analysis.
//!
//! For a consistent, strongly connected, live SDF graph with constant actor
//! execution times, *self-timed* execution (every actor fires as soon as its
//! input tokens are available) enters a periodic regime after a finite
//! transient (Ghamarian et al., ACSD 2006). This module executes the
//! operational semantics with exact [`Rational`] time, detects the first
//! recurrent state, and derives the exact average period per graph
//! iteration — the quantity the paper calls `Per(A)` (Definition 3).
//!
//! The execution semantics match the paper's platform model:
//! * tokens are consumed atomically when a firing starts and produced
//!   atomically when it completes;
//! * auto-concurrency is *not* restricted here — restrict it explicitly with
//!   a one-token self-loop per actor (as [`crate::figure2_graphs`] and the
//!   generator do) to model an actor occupying a processor.
//!
//! # Examples
//!
//! ```
//! use sdf::{analyze_period, figure2_graphs, Rational};
//!
//! let (a, _) = figure2_graphs();
//! let analysis = analyze_period(&a)?;
//! assert_eq!(analysis.period, Rational::integer(300));
//! assert_eq!(analysis.throughput(), Rational::new(1, 300));
//! # Ok::<(), sdf::SdfError>(())
//! ```

use crate::graph::{ActorId, SdfError, SdfGraph};
use crate::rational::Rational;
use crate::repetition::{repetition_vector, RepetitionVector};
use crate::topology::is_strongly_connected;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Options controlling the state-space exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisOptions {
    /// Maximum number of discrete execution steps (time advances) before the
    /// exploration gives up with [`SdfError::BudgetExhausted`].
    pub max_steps: u64,
    /// If `true` (default), require the graph to be strongly connected —
    /// non-strongly-connected graphs can have an unbounded state space.
    pub require_strongly_connected: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            max_steps: 1_000_000,
            require_strongly_connected: true,
        }
    }
}

/// Result of a period analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeriodAnalysis {
    /// Exact average time per graph iteration in the periodic regime.
    pub period: Rational,
    /// Time at which the recurrent state was first visited.
    pub transient_end: Rational,
    /// Length (in time) of one period of the recurrent cycle. This spans
    /// `iterations_per_cycle` graph iterations.
    pub cycle_length: Rational,
    /// Graph iterations completed in one recurrent cycle.
    pub iterations_per_cycle: u64,
    /// Discrete steps executed during exploration.
    pub steps: u64,
    /// The repetition vector used for iteration counting.
    pub repetition_vector: RepetitionVector,
    /// Maximum token count observed on each channel during the explored
    /// execution (transient + one full recurrent cycle) — the buffer
    /// capacity each channel needs under maximal-throughput self-timed
    /// scheduling (cf. Stuijk et al., DAC 2006 \[16\]).
    pub max_channel_occupancy: Vec<u64>,
}

impl PeriodAnalysis {
    /// Throughput = 1 / period (iterations per time unit).
    pub fn throughput(&self) -> Rational {
        self.period.recip()
    }
}

/// Mutable execution state of one graph, shared by the analyzer and usable
/// for custom explorations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ExecState {
    /// Token count per channel.
    tokens: Vec<u64>,
    /// Sorted remaining times of the active firings of each actor.
    active: Vec<Vec<Rational>>,
}

impl ExecState {
    fn initial(graph: &SdfGraph) -> Self {
        ExecState {
            tokens: graph.channels().map(|(_, c)| c.initial_tokens()).collect(),
            active: vec![Vec::new(); graph.actor_count()],
        }
    }

    fn actor_enabled(&self, graph: &SdfGraph, a: ActorId) -> bool {
        graph
            .incoming(a)
            .iter()
            .all(|&cid| self.tokens[cid.index()] >= graph.channel(cid).consumption())
    }

    /// Starts every enabled firing (repeatedly, until fixpoint); a firing
    /// of actor `a` takes `times[a]`.
    fn start_enabled(&mut self, graph: &SdfGraph, times: &[Rational]) {
        loop {
            let mut any = false;
            for a in graph.actor_ids() {
                while self.actor_enabled(graph, a) {
                    for &cid in graph.incoming(a) {
                        self.tokens[cid.index()] -= graph.channel(cid).consumption();
                    }
                    let rem = times[a.0];
                    let list = &mut self.active[a.0];
                    let pos = list.partition_point(|r| *r <= rem);
                    list.insert(pos, rem);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
    }

    /// Smallest remaining time among active firings, if any.
    fn next_completion(&self) -> Option<Rational> {
        self.active.iter().filter_map(|l| l.first().copied()).min()
    }

    /// Advances time by `dt`, completing firings that reach zero and
    /// adding them to the per-actor completion counts.
    fn advance(
        &mut self,
        graph: &SdfGraph,
        dt: Rational,
        completions: &mut [u64],
    ) -> Result<(), SdfError> {
        for (i, list) in self.active.iter_mut().enumerate() {
            let mut done = 0;
            for r in list.iter_mut() {
                *r = r.checked_add(-dt).ok_or(SdfError::Overflow)?;
                if r.is_zero() {
                    done += 1;
                }
            }
            if done > 0 {
                list.drain(0..done);
                completions[i] += done as u64;
                for _ in 0..done {
                    for &cid in graph.outgoing(ActorId(i)) {
                        self.tokens[cid.index()] += graph.channel(cid).production();
                    }
                }
            }
        }
        Ok(())
    }

    fn is_idle(&self) -> bool {
        self.active.iter().all(|l| l.is_empty())
    }
}

/// Computes the exact self-timed period of `graph` with default options.
///
/// # Errors
///
/// * [`SdfError::Inconsistent`] — no repetition vector exists.
/// * [`SdfError::NotStronglyConnected`] — unbounded executions are rejected.
/// * [`SdfError::Deadlocked`] — execution stops before completing an
///   iteration.
/// * [`SdfError::BudgetExhausted`] — the default step budget was exceeded.
/// * [`SdfError::Overflow`] — the rates or the execution's clock do not
///   fit exact `i128` arithmetic.
///
/// # Examples
///
/// ```
/// use sdf::{analyze_period, figure2_graphs, Rational};
/// let (_, b) = figure2_graphs();
/// assert_eq!(analyze_period(&b)?.period, Rational::integer(300));
/// # Ok::<(), sdf::SdfError>(())
/// ```
pub fn analyze_period(graph: &SdfGraph) -> Result<PeriodAnalysis, SdfError> {
    analyze_period_with(graph, AnalysisOptions::default())
}

/// Computes the exact self-timed period with explicit [`AnalysisOptions`].
///
/// Checks the graph (consistency, and strong connectivity unless the
/// options waive it), then runs the same exploration as
/// [`period_with_times`] at the graph's own execution times.
///
/// # Errors
///
/// See [`analyze_period`].
pub fn analyze_period_with(
    graph: &SdfGraph,
    options: AnalysisOptions,
) -> Result<PeriodAnalysis, SdfError> {
    let q = repetition_vector(graph)?;
    if options.require_strongly_connected && !is_strongly_connected(graph) {
        return Err(SdfError::NotStronglyConnected);
    }
    let times: Vec<Rational> = graph.actors().map(|(_, a)| a.execution_time()).collect();
    explore(graph, &times, q, options.max_steps)
}

/// The exact self-timed period of `graph` when a firing of actor `a` takes
/// `times[a]`, explored from the graph's known `repetition` vector with the
/// default step budget.
///
/// This is [`analyze_period`] without its graph checks and without the
/// graph copy [`SdfGraph::with_execution_times`] makes: it trusts the
/// caller that `repetition` is `repetition_vector(graph)` and that `graph`
/// is strongly connected, the two facts that bound the exploration.
/// Execution times do not enter either fact, so a graph checked once at
/// its own times can be analysed at any positive times without checking
/// it again — `platform::Application` holds such a graph. On a graph that
/// breaks the trust the answer is meaningless, but the step budget still
/// bounds the exploration.
///
/// # Errors
///
/// * [`SdfError::NonPositiveExecutionTime`] — some `times[a]` is `<= 0`.
/// * [`SdfError::Deadlocked`] — execution stops before completing an
///   iteration.
/// * [`SdfError::BudgetExhausted`] — the default step budget was exceeded.
/// * [`SdfError::Overflow`] — the rates or the execution's clock do not
///   fit exact `i128` arithmetic.
///
/// # Panics
///
/// Panics if `times.len() != graph.actor_count()`, or if `repetition` has
/// no positive entry for actor 0.
///
/// # Examples
///
/// ```
/// use sdf::{figure2_graphs, period_with_times, repetition_vector, Rational};
/// let (a, _) = figure2_graphs();
/// let q = repetition_vector(&a)?;
/// let times = [Rational::new(325, 3), Rational::new(200, 3), Rational::new(350, 3)];
/// assert_eq!(period_with_times(&a, &times, &q)?, Rational::new(1075, 3));
/// # Ok::<(), sdf::SdfError>(())
/// ```
pub fn period_with_times(
    graph: &SdfGraph,
    times: &[Rational],
    repetition: &RepetitionVector,
) -> Result<Rational, SdfError> {
    assert_eq!(
        times.len(),
        graph.actor_count(),
        "one execution time per actor required"
    );
    if let Some(a) = times.iter().position(|t| !t.is_positive()) {
        return Err(SdfError::NonPositiveExecutionTime(ActorId(a)));
    }
    let max_steps = AnalysisOptions::default().max_steps;
    Ok(explore(graph, times, repetition.clone(), max_steps)?.period)
}

/// Executes `graph` self-timed, a firing of actor `a` taking `times[a]`,
/// until a state recurs; `q` is the graph's repetition vector.
fn explore(
    graph: &SdfGraph,
    times: &[Rational],
    q: RepetitionVector,
    max_steps: u64,
) -> Result<PeriodAnalysis, SdfError> {
    // Reference actor for iteration counting: actor 0.
    let q_ref = q.get(ActorId(0));

    let mut state = ExecState::initial(graph);
    let mut completions = vec![0u64; graph.actor_count()];
    let mut now = Rational::ZERO;
    let mut steps = 0u64;
    let mut max_occupancy: Vec<u64> = state.tokens.clone();

    // Recurrence detection: state -> (time, completions of reference actor).
    let mut seen: HashMap<ExecState, (Rational, u64)> = HashMap::new();

    state.start_enabled(graph, times);

    loop {
        if steps >= max_steps {
            return Err(SdfError::BudgetExhausted { steps });
        }
        steps += 1;

        match seen.entry(state.clone()) {
            Entry::Occupied(prev) => {
                let (t0, c0) = *prev.get();
                let cycle_length = now.checked_add(-t0).ok_or(SdfError::Overflow)?;
                let dc = completions[0] - c0;
                if dc == 0 || cycle_length.is_zero() {
                    // A recurrent state with no progress means deadlock
                    // (should be caught below, but guard anyway).
                    return Err(SdfError::Deadlocked);
                }
                // dc completions of actor0 = dc / q_ref iterations.
                let iterations = Rational::new(dc as i128, q_ref as i128);
                let period = cycle_length
                    .checked_mul(iterations.recip())
                    .ok_or(SdfError::Overflow)?;
                return Ok(PeriodAnalysis {
                    period,
                    transient_end: t0,
                    cycle_length,
                    iterations_per_cycle: (iterations.numer() / iterations.denom()).max(0) as u64,
                    steps,
                    repetition_vector: q,
                    max_channel_occupancy: max_occupancy,
                });
            }
            Entry::Vacant(slot) => {
                slot.insert((now, completions[0]));
            }
        }

        let Some(dt) = state.next_completion() else {
            return Err(SdfError::Deadlocked);
        };
        now = now.checked_add(dt).ok_or(SdfError::Overflow)?;
        state.advance(graph, dt, &mut completions)?;
        for (m, &t) in max_occupancy.iter_mut().zip(&state.tokens) {
            *m = (*m).max(t);
        }
        state.start_enabled(graph, times);

        if state.is_idle() && state.next_completion().is_none() {
            // No active firing and nothing became enabled: deadlock.
            if !graph.actor_ids().any(|a| state.actor_enabled(graph, a)) {
                return Err(SdfError::Deadlocked);
            }
        }
    }
}

/// Convenience wrapper returning just the period.
///
/// # Errors
///
/// See [`analyze_period`].
///
/// # Examples
///
/// ```
/// use sdf::{figure2_graphs, period, Rational};
/// let (a, _) = figure2_graphs();
/// assert_eq!(period(&a)?, Rational::integer(300));
/// # Ok::<(), sdf::SdfError>(())
/// ```
pub fn period(graph: &SdfGraph) -> Result<Rational, SdfError> {
    Ok(analyze_period(graph)?.period)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{figure2_graphs, SdfGraphBuilder};

    #[test]
    fn figure2_periods_are_300() {
        let (a, b) = figure2_graphs();
        assert_eq!(period(&a).unwrap(), Rational::integer(300));
        assert_eq!(period(&b).unwrap(), Rational::integer(300));
    }

    #[test]
    fn figure3_response_time_period() {
        // Paper: with response times [117, 67, 108] / [67, 117, 108] the
        // estimated period of both graphs is 359.
        let (a, b) = figure2_graphs();
        // twait per actor from the paper: a0 += 25/3, a1 += 50/3, a2 += 50/3.
        // Per = τ(a0)' + 2τ(a1)' + τ(a2)' = (100+25/3) + 2(50+50/3) + (100+50/3).
        let p = period(&a.with_execution_times(&[
            Rational::integer(100) + Rational::new(25, 3),
            Rational::integer(50) + Rational::new(50, 3),
            Rational::integer(100) + Rational::new(50, 3),
        ]))
        .unwrap();
        assert_eq!(p, Rational::new(1075, 3)); // ≈ 358.33, paper rounds to 359
        let p_b = period(&b.with_execution_times(&[
            Rational::integer(50) + Rational::new(50, 3),
            Rational::integer(100) + Rational::new(25, 3),
            Rational::integer(100) + Rational::new(50, 3),
        ]))
        .unwrap();
        assert_eq!(p_b, Rational::new(1075, 3));
    }

    #[test]
    fn two_actor_pipeline_overlap() {
        // x -(1,1)-> y, y -(1,1) 2 tokens-> x: two tokens allow pipelining;
        // period limited by the slower actor.
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 3);
        let y = b.actor("y", 7);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 2).unwrap();
        b.self_loop(x, 1);
        b.self_loop(y, 1);
        assert_eq!(period(&b.build().unwrap()).unwrap(), Rational::integer(7));
    }

    #[test]
    fn single_token_cycle_serialises() {
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 3);
        let y = b.actor("y", 7);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        assert_eq!(period(&b.build().unwrap()).unwrap(), Rational::integer(10));
    }

    #[test]
    fn deadlock_detected() {
        // Cycle with no initial tokens can never start.
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 0).unwrap();
        assert_eq!(
            analyze_period(&b.build().unwrap()).unwrap_err(),
            SdfError::Deadlocked
        );
    }

    #[test]
    fn not_strongly_connected_rejected() {
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.self_loop(x, 1);
        b.self_loop(y, 1);
        b.channel(x, y, 1, 1, 0).unwrap();
        assert_eq!(
            analyze_period(&b.build().unwrap()).unwrap_err(),
            SdfError::NotStronglyConnected
        );
    }

    #[test]
    fn budget_exhausted_reported() {
        let (a, _) = figure2_graphs();
        let err = analyze_period_with(
            &a,
            AnalysisOptions {
                max_steps: 2,
                require_strongly_connected: true,
            },
        )
        .unwrap_err();
        assert!(matches!(err, SdfError::BudgetExhausted { .. }));
    }

    #[test]
    fn rational_execution_times_supported() {
        // Same pipeline as above but with τ(y) = 50/3: period = τ(x)+τ(y).
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor_rational("x", Rational::integer(3));
        let y = b.actor_rational("y", Rational::new(50, 3));
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        assert_eq!(period(&b.build().unwrap()).unwrap(), Rational::new(59, 3));
    }

    #[test]
    fn multirate_period_counts_all_firings() {
        // x fires twice per iteration (q = [2,1]): serial cycle with one
        // token: period = 2τ(x) + τ(y).
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 5);
        let y = b.actor("y", 9);
        b.channel(x, y, 1, 2, 0).unwrap();
        b.channel(y, x, 2, 1, 2).unwrap();
        b.self_loop(x, 1);
        b.self_loop(y, 1);
        assert_eq!(period(&b.build().unwrap()).unwrap(), Rational::integer(19));
    }

    #[test]
    fn auto_concurrency_speeds_up_without_self_loop() {
        // With 3 tokens in the cycle and no self-loops, x can run three
        // concurrent firings: throughput is bounded by tokens/τ-cycle.
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 6);
        let y = b.actor("y", 2);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 3).unwrap();
        // cycle time = 8, 3 tokens => period = 8/3.
        assert_eq!(period(&b.build().unwrap()).unwrap(), Rational::new(8, 3));
    }

    #[test]
    fn analysis_metadata_consistent() {
        let (a, _) = figure2_graphs();
        let r = analyze_period(&a).unwrap();
        assert!(r.steps > 0);
        assert!(r.cycle_length.is_positive());
        assert_eq!(
            r.period * Rational::integer(r.iterations_per_cycle as i128),
            r.cycle_length
        );
        assert_eq!(r.throughput(), r.period.recip());
    }

    #[test]
    fn period_with_times_matches_the_checked_analysis() {
        let (a, _) = figure2_graphs();
        let q = repetition_vector(&a).unwrap();
        let times = [
            Rational::new(325, 3),
            Rational::new(200, 3),
            Rational::new(350, 3),
        ];
        assert_eq!(
            period_with_times(&a, &times, &q).unwrap(),
            period(&a.with_execution_times(&times)).unwrap()
        );
        // At the graph's own times it is the isolation period.
        let own: Vec<Rational> = a.actor_ids().map(|x| a.execution_time(x)).collect();
        assert_eq!(
            period_with_times(&a, &own, &q).unwrap(),
            Rational::integer(300)
        );
    }

    #[test]
    fn period_with_times_ends_clock_overflow_in_a_typed_error() {
        use crate::generator::{generate_graph, GeneratorConfig};
        // Two times whose common denominator leaves i128 behind as soon as
        // the execution's clock combines them.
        let graph = generate_graph(&GeneratorConfig::with_actors(3), 7);
        let q = repetition_vector(&graph).unwrap();
        let ten37 = 10i128.pow(37);
        let times = [
            Rational::new(1, ten37 - 1),
            Rational::new(1, ten37 - 3),
            graph.execution_time(ActorId(2)),
        ];
        assert_eq!(
            period_with_times(&graph, &times, &q).unwrap_err(),
            SdfError::Overflow
        );
    }

    #[test]
    fn period_with_times_rejects_non_positive_times_typed() {
        let (a, _) = figure2_graphs();
        let q = repetition_vector(&a).unwrap();
        for bad in [Rational::ZERO, Rational::integer(-5)] {
            assert_eq!(
                period_with_times(&a, &[Rational::ONE, bad, Rational::ONE], &q).unwrap_err(),
                SdfError::NonPositiveExecutionTime(ActorId(1))
            );
        }
    }
}
