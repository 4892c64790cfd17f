//! The discrete-event simulation engine.
//!
//! Executes a set of SDF applications on shared processing nodes with
//! non-preemptive arbitration. The firing protocol per actor:
//!
//! 1. when every incoming channel holds enough tokens (and the actor has no
//!    firing in flight — auto-concurrency is additionally bounded by the
//!    graphs' own self-loops), the actor *requests* its node;
//! 2. requests queue at the node; when the node is free it grants the
//!    oldest request (first-come-first-served), the firing *consumes* its
//!    input tokens and occupies the node for the actor's execution time;
//! 3. on completion the firing *produces* its output tokens, releases the
//!    node, and newly enabled actors issue requests.
//!
//! Completions at the same time are ordered by a monotonic sequence
//! number, making runs fully deterministic.

use crate::config::SimConfig;
use crate::metrics::{ActorStats, AppMetrics, NodeStats, SimResult};
use crate::trace::{TraceEvent, TraceKind};
use platform::{AppId, NodeId, SystemSpec, UseCase};
use sdf::ActorId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;
use std::fmt;

/// Errors of the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// An actor's execution time is not a positive integer (the simulator
    /// operates in integer cycles, like the paper's 500 000-cycle POOSL
    /// runs).
    NonIntegerExecutionTime {
        /// Application owning the offending actor.
        app: AppId,
        /// The offending actor.
        actor: ActorId,
    },
    /// The use-case references an application outside the spec.
    UnknownApplication(AppId),
    /// The system deadlocked before the horizon (no event left while
    /// applications still owe firings).
    Deadlock {
        /// Simulation time of the deadlock.
        time: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NonIntegerExecutionTime { app, actor } => {
                write!(f, "{app}/{actor} has a non-integer execution time")
            }
            SimError::UnknownApplication(a) => write!(f, "unknown application {a}"),
            SimError::Deadlock { time } => write!(f, "deadlock at time {time}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Dense index of an active (application, actor) pair.
type Slot = usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ActorState {
    Idle,
    Queued,
    Executing,
}

struct NodeState {
    busy: bool,
    queue: VecDeque<(u64, Slot)>, // (arrival time, slot) — FCFS order
}

/// One actor instance in the flattened simulation state.
struct ActorInstance {
    app: AppId,
    actor: ActorId,
    node: NodeId,
    execution_time: u64,
    state: ActorState,
    /// Incoming channel slots as (channel index into app tokens, consumption).
    inputs: Vec<(usize, u64)>,
    /// Outgoing channel slots as (channel index into app tokens, production).
    outputs: Vec<(usize, u64)>,
}

struct AppState {
    tokens: Vec<u64>,
    /// Slot of each actor, indexed by actor id.
    slots: Vec<Slot>,
}

/// The simulation engine; construct with [`Simulation::new`] and drive with
/// [`Simulation::run`].
pub struct Simulation<'a> {
    spec: &'a SystemSpec,
    use_case: UseCase,
    config: SimConfig,

    actors: Vec<ActorInstance>,
    apps: Vec<(AppId, AppState)>,
    nodes: Vec<NodeState>,

    now: u64,
    seq: u64,
    events: BinaryHeap<Reverse<(u64, u64, Slot)>>, // (completion time, seq, slot)
    metrics: Vec<AppMetrics>,
    actor_stats: Vec<ActorStats>,
    node_stats: Vec<NodeStats>,
    trace: Option<Vec<TraceEvent>>,
    jitter_rng: Option<rand::rngs::StdRng>,
    events_processed: u64,
}

impl fmt::Debug for Simulation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("use_case", &self.use_case)
            .field("now", &self.now)
            .field("actors", &self.actors.len())
            .finish_non_exhaustive()
    }
}

impl<'a> Simulation<'a> {
    /// Prepares a simulation of `use_case` on `spec`.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownApplication`] for out-of-range use-case members;
    /// * [`SimError::NonIntegerExecutionTime`] if any active actor's
    ///   execution time is not a positive integer.
    pub fn new(
        spec: &'a SystemSpec,
        use_case: UseCase,
        config: SimConfig,
    ) -> Result<Simulation<'a>, SimError> {
        for a in use_case.app_ids() {
            if a.index() >= spec.application_count() {
                return Err(SimError::UnknownApplication(a));
            }
        }

        let mut actors = Vec::new();
        let mut apps = Vec::new();
        let mut metrics = Vec::new();

        for app_id in use_case.app_ids() {
            let app = spec.application(app_id);
            let graph = app.graph();
            let mut slots = Vec::with_capacity(graph.actor_count());
            for actor in graph.actor_ids() {
                let tau = graph.execution_time(actor);
                if !tau.is_integer() || !tau.is_positive() || tau.numer() > u64::MAX as i128 {
                    return Err(SimError::NonIntegerExecutionTime { app: app_id, actor });
                }
                let inputs = graph
                    .incoming(actor)
                    .iter()
                    .map(|&cid| (cid.index(), graph.channel(cid).consumption()))
                    .collect();
                let outputs = graph
                    .outgoing(actor)
                    .iter()
                    .map(|&cid| (cid.index(), graph.channel(cid).production()))
                    .collect();
                slots.push(actors.len());
                actors.push(ActorInstance {
                    app: app_id,
                    actor,
                    node: spec.node_of(app_id, actor),
                    execution_time: tau.numer() as u64,
                    state: ActorState::Idle,
                    inputs,
                    outputs,
                });
            }
            let tokens = graph.channels().map(|(_, c)| c.initial_tokens()).collect();
            apps.push((app_id, AppState { tokens, slots }));
            metrics.push(AppMetrics::new(
                app_id,
                app.repetition_vector().get(ActorId(0)),
            ));
        }

        let nodes = (0..spec.node_count())
            .map(|_| NodeState {
                busy: false,
                queue: VecDeque::new(),
            })
            .collect();

        let actor_count = actors.len();
        let node_count = spec.node_count();
        Ok(Simulation {
            spec,
            use_case,
            config,
            actors,
            apps,
            nodes,
            now: 0,
            seq: 0,
            events: BinaryHeap::new(),
            metrics,
            actor_stats: vec![ActorStats::default(); actor_count],
            node_stats: vec![NodeStats::default(); node_count],
            trace: config.trace.then(Vec::new),
            jitter_rng: config.jitter.map(|j| {
                use rand::SeedableRng;
                rand::rngs::StdRng::seed_from_u64(j.seed)
            }),
            events_processed: 0,
        })
    }

    fn app_index(&self, app: AppId) -> usize {
        self.apps
            .iter()
            .position(|(id, _)| *id == app)
            .expect("active app")
    }

    fn actor_enabled(&self, slot: Slot) -> bool {
        let inst = &self.actors[slot];
        let (_, app_state) = &self.apps[self.app_index(inst.app)];
        inst.inputs
            .iter()
            .all(|&(ch, need)| app_state.tokens[ch] >= need)
    }

    fn request_if_enabled(&mut self, slot: Slot) {
        if self.actors[slot].state == ActorState::Idle && self.actor_enabled(slot) {
            self.actors[slot].state = ActorState::Queued;
            let node = self.actors[slot].node.index();
            self.nodes[node].queue.push_back((self.now, slot));
            self.record(slot, TraceKind::Request);
        }
    }

    fn grant(&mut self, node: usize) {
        if self.nodes[node].busy {
            return;
        }
        if let Some((arrived, slot)) = self.nodes[node].queue.pop_front() {
            // Consume input tokens at firing start.
            let app_idx = self.app_index(self.actors[slot].app);
            {
                let tokens = &mut self.apps[app_idx].1.tokens;
                for &(ch, need) in &self.actors[slot].inputs {
                    debug_assert!(tokens[ch] >= need, "enabled firing lost its tokens");
                    tokens[ch] -= need;
                }
            }
            self.actors[slot].state = ActorState::Executing;
            self.nodes[node].busy = true;
            let duration = self.firing_duration(slot);
            // Queueing accounting: the empirical t_wait of this firing.
            self.actor_stats[slot].requests += 1;
            self.actor_stats[slot].total_wait += self.now - arrived;
            self.node_stats[node].grants += 1;
            self.node_stats[node].busy_time += duration;
            self.record(slot, TraceKind::Start);
            let done = self.now + duration;
            let seq = self.seq;
            self.seq += 1;
            self.events.push(Reverse((done, seq, slot)));
        }
    }

    /// Duration of one firing: the actor's execution time, optionally
    /// jittered uniformly within ±spread (mean preserved, minimum 1 cycle).
    fn firing_duration(&mut self, slot: Slot) -> u64 {
        let tau = self.actors[slot].execution_time;
        let (Some(rng), Some(jitter)) = (&mut self.jitter_rng, self.config.jitter) else {
            return tau;
        };
        use rand::Rng;
        let spread = u64::from(jitter.spread_percent.min(100));
        if spread == 0 {
            return tau;
        }
        // Uniform on [τ·(100−s), τ·(100+s)] / 100, rounded to cycles.
        let lo = tau * (100 - spread);
        let hi = tau * (100 + spread);
        let scaled = rng.gen_range(lo..=hi);
        ((scaled + 50) / 100).max(1)
    }

    fn record(&mut self, slot: Slot, kind: TraceKind) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent {
                time: self.now,
                node: self.actors[slot].node,
                app: self.actors[slot].app,
                actor: self.actors[slot].actor,
                kind,
            });
        }
    }

    /// Runs to the configured horizon and returns the collected metrics.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if no event remains before the horizon (a
    /// correctly validated spec cannot deadlock, but inflated or hand-built
    /// graphs might).
    pub fn run(mut self) -> Result<SimResult, SimError> {
        // Initial requests and grants.
        for slot in 0..self.actors.len() {
            self.request_if_enabled(slot);
        }
        for node in 0..self.nodes.len() {
            self.grant(node);
        }

        while let Some(Reverse((time, _, slot))) = self.events.pop() {
            if time > self.config.horizon {
                self.now = self.config.horizon;
                break;
            }
            self.now = time;
            self.events_processed += 1;

            // Complete the firing: produce tokens, release the node.
            let app_id = self.actors[slot].app;
            let actor = self.actors[slot].actor;
            let node = self.actors[slot].node.index();
            let app_idx = self.app_index(app_id);
            {
                let tokens = &mut self.apps[app_idx].1.tokens;
                for &(ch, amount) in &self.actors[slot].outputs {
                    tokens[ch] += amount;
                }
            }
            self.actors[slot].state = ActorState::Idle;
            self.nodes[node].busy = false;
            self.record(slot, TraceKind::Complete);

            self.metrics[app_idx].record_completion(actor, self.now);

            // Newly enabled actors of the same application (token-driven),
            // plus the completing actor itself.
            let candidate_slots: Vec<Slot> = self.apps[app_idx].1.slots.clone();
            for s in candidate_slots {
                self.request_if_enabled(s);
            }

            // Grant the released node and any node that received requests.
            for n in 0..self.nodes.len() {
                self.grant(n);
            }
        }

        if self.events.is_empty() && self.now < self.config.horizon {
            // Nothing in flight and nothing enabled: deadlock (all actors
            // idle and unable to fire).
            let any_queued = self.actors.iter().any(|a| a.state != ActorState::Idle);
            if !any_queued {
                return Err(SimError::Deadlock { time: self.now });
            }
        }

        let actor_stats = self
            .actors
            .iter()
            .zip(&self.actor_stats)
            .map(|(inst, stats)| ((inst.app, inst.actor), *stats))
            .collect();
        Ok(SimResult::new(
            self.use_case,
            self.config,
            self.now.min(self.config.horizon),
            self.events_processed,
            self.metrics,
            actor_stats,
            self.node_stats,
            self.trace,
            self.spec,
        ))
    }
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
    fn isolated_app_achieves_isolation_period() {
        let spec = figure2_spec();
        let sim = Simulation::new(
            &spec,
            UseCase::single(AppId(0)),
            SimConfig::with_horizon(30_000),
        )
        .unwrap();
        let result = sim.run().unwrap();
        let m = result.app(AppId(0)).unwrap();
        assert!((m.average_period().unwrap() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn contended_period_between_isolation_and_serialised() {
        // Paper Section 3.1: A and B contending achieve period 300 (in this
        // rotational alignment) — at most the serial bound 600, at least the
        // isolation 300.
        let spec = figure2_spec();
        let sim =
            Simulation::new(&spec, UseCase::full(2), SimConfig::with_horizon(60_000)).unwrap();
        let result = sim.run().unwrap();
        for id in [AppId(0), AppId(1)] {
            let p = result.app(id).unwrap().average_period().unwrap();
            assert!(p >= 300.0 - 1e-9, "{id}: {p}");
            assert!(p <= 600.0 + 1e-9, "{id}: {p}");
        }
    }

    #[test]
    fn determinism() {
        let spec = figure2_spec();
        let run = || {
            Simulation::new(&spec, UseCase::full(2), SimConfig::with_horizon(50_000))
                .unwrap()
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.app(AppId(0)).unwrap().iteration_times(),
            b.app(AppId(0)).unwrap().iteration_times()
        );
    }

    #[test]
    fn unknown_app_rejected() {
        let spec = figure2_spec();
        let err =
            Simulation::new(&spec, UseCase::single(AppId(7)), SimConfig::default()).unwrap_err();
        assert_eq!(err, SimError::UnknownApplication(AppId(7)));
    }

    #[test]
    fn non_integer_time_rejected() {
        let (a, _) = figure2_graphs();
        let frac = a.with_execution_times(&[
            sdf::Rational::new(50, 3),
            sdf::Rational::integer(50),
            sdf::Rational::integer(100),
        ]);
        let spec = SystemSpec::builder()
            .application(Application::new("A", frac).unwrap())
            .mapping(Mapping::by_actor_index(3))
            .build()
            .unwrap();
        let err =
            Simulation::new(&spec, UseCase::single(AppId(0)), SimConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::NonIntegerExecutionTime { .. }));
    }

    #[test]
    fn jitter_preserves_mean_period() {
        // ±30% uniform jitter keeps the mean execution times, so the
        // average period stays near the deterministic one.
        let spec = figure2_spec();
        let mut cfg = SimConfig::with_horizon(300_000);
        cfg.jitter = Some(crate::config::JitterConfig {
            spread_percent: 30,
            seed: 99,
        });
        let jittered = Simulation::new(&spec, UseCase::single(AppId(0)), cfg)
            .unwrap()
            .run()
            .unwrap();
        let p = jittered.app(AppId(0)).unwrap().average_period().unwrap();
        assert!((p - 300.0).abs() / 300.0 < 0.05, "jittered period {p}");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let spec = figure2_spec();
        let mut cfg = SimConfig::with_horizon(50_000);
        cfg.jitter = Some(crate::config::JitterConfig {
            spread_percent: 50,
            seed: 7,
        });
        let run = |cfg| {
            Simulation::new(&spec, UseCase::full(2), cfg)
                .unwrap()
                .run()
                .unwrap()
        };
        let a = run(cfg);
        let b = run(cfg);
        assert_eq!(
            a.app(AppId(0)).unwrap().iteration_times(),
            b.app(AppId(0)).unwrap().iteration_times()
        );
        let mut other = cfg;
        other.jitter = Some(crate::config::JitterConfig {
            spread_percent: 50,
            seed: 8,
        });
        let c = run(other);
        assert_ne!(
            a.app(AppId(0)).unwrap().iteration_times(),
            c.app(AppId(0)).unwrap().iteration_times(),
            "different seeds must differ"
        );
    }

    #[test]
    fn queueing_stats_recorded() {
        let spec = figure2_spec();
        let result = Simulation::new(&spec, UseCase::full(2), SimConfig::with_horizon(60_000))
            .unwrap()
            .run()
            .unwrap();
        // Every actor fired; total wait is positive somewhere (contention).
        let mut any_wait = false;
        for stats in result.all_actor_stats().values() {
            assert!(stats.requests > 0);
            any_wait |= stats.total_wait > 0;
        }
        assert!(any_wait, "two apps per node must queue at least once");
        // Node utilization is in (0, 1] and busy time ≤ end time.
        for n in result.node_stats() {
            assert!(n.grants > 0);
            assert!(n.busy_time <= result.end_time());
            let u = n.utilization(result.end_time());
            assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        }
    }

    #[test]
    fn isolated_actor_never_waits() {
        let spec = figure2_spec();
        let result = Simulation::new(
            &spec,
            UseCase::single(AppId(0)),
            SimConfig::with_horizon(30_000),
        )
        .unwrap()
        .run()
        .unwrap();
        for stats in result.all_actor_stats().values() {
            assert_eq!(stats.total_wait, 0, "no contention, no waiting");
            assert_eq!(stats.mean_wait(), Some(0.0));
        }
    }

    #[test]
    fn error_display() {
        assert!(SimError::Deadlock { time: 5 }.to_string().contains('5'));
        assert!(SimError::UnknownApplication(AppId(1))
            .to_string()
            .contains("app#1"));
    }
}
