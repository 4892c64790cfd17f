//! Elastic capacity controller closing the plan→serve loop.
//!
//! The [planner](crate::planner) answers "what shape *would have*
//! served this load" offline; the autoscaler answers it live. An
//! [`Autoscaler`] periodically samples the fleet the way
//! [`TelemetrySnapshot`](crate::TelemetrySnapshot) aggregates do —
//! per-group residents over live capacity — feeds the observation to a
//! pluggable, serde-able [`ScalePolicy`], and executes the resulting
//! [`ScaleAction`] through [`FleetManager::resize`], which journals every
//! action (applied *or* refused) as a first-class
//! [`DecisionEvent::Resize`](crate::DecisionEvent::Resize). A journal
//! recorded under autoscaling therefore replays outcome-for-outcome with
//! [`JournalReplayer`](crate::JournalReplayer), and `probcon plan` can
//! evaluate the same policy file against recorded history.
//!
//! # Control loop
//!
//! ```text
//!        sample                evaluate                 execute
//! fleet ────────▶ Observation ──────────▶ ScaleAction ─────────▶ resize()
//!   ▲            (utilisation,           (grow/shrink/            │
//!   │             saturation              add/drain or            │ journals
//!   │             streaks)                hold)                   ▼
//!   └──────────────── capacity change ◀──────────── DecisionEvent::Resize
//! ```
//!
//! [`TargetPolicy`] is a target-utilisation band with hysteresis: the
//! fleet must breach the band for a configurable number of *consecutive*
//! ticks before the controller acts, and after every applied action a
//! cooldown holds further actions so one decision's effect is observed
//! before the next is made. The policy never flaps — an action is never
//! followed by its reverse within one cooldown, because no action at all
//! fires during cooldown.

use crate::fleet::{FleetError, FleetManager, FleetSnapshot, GroupConfig, MAX_FLEET_SHARDS};
use crate::journal::{ScaleAction, ScaleOutcome};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Policies: plain serde-able data.
// ---------------------------------------------------------------------------

/// What the controller is allowed to do. Plain data — `probcon serve
/// --autoscale policy.json` deserializes one, and `probcon plan
/// --policy-file` evaluates the same file against a recorded journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScalePolicy {
    /// No controller at all: the loop does not run.
    Off,
    /// Observe-only: the loop samples and publishes
    /// [`AutoscalerStatus`] (so `probcon top` shows live utilisation and
    /// streaks) but never emits an action — the operator resizes by hand.
    Manual,
    /// Closed-loop target-utilisation band with hysteresis.
    Target(TargetPolicy),
}

impl ScalePolicy {
    /// Short label for status lines.
    pub fn label(&self) -> String {
        match self {
            ScalePolicy::Off => "off".to_string(),
            ScalePolicy::Manual => "manual".to_string(),
            ScalePolicy::Target(t) => format!(
                "target {:.0}%-{:.0}% (grow after {}, shrink after {}, cooldown {})",
                t.low * 100.0,
                t.high * 100.0,
                t.grow_after,
                t.shrink_after,
                t.cooldown
            ),
        }
    }

    /// Parses a policy from its JSON form.
    ///
    /// # Errors
    ///
    /// The serde error, stringified, when the JSON does not describe a
    /// policy.
    pub fn from_json(json: &str) -> Result<ScalePolicy, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Renders the policy to JSON (the format `from_json` accepts).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }
}

/// Target-utilisation band policy. All thresholds are in ticks of the
/// controller's sampling interval, so the same policy file means the same
/// thing at any interval relative to itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetPolicy {
    /// Shrink when fleet utilisation stays below this fraction.
    pub low: f64,
    /// Grow when fleet utilisation stays above this fraction.
    pub high: f64,
    /// Consecutive above-band ticks required before a grow fires.
    pub grow_after: u32,
    /// Consecutive below-band ticks required before a shrink fires.
    pub shrink_after: u32,
    /// Ticks to hold after an applied action before the next one.
    pub cooldown: u32,
    /// Per-shard capacity floor a shrink never goes below.
    pub min_capacity_per_shard: u64,
    /// Per-shard capacity ceiling a grow never exceeds.
    pub max_capacity_per_shard: u64,
    /// Per-shard capacity delta each grow/shrink applies.
    pub step: u64,
    /// Escalate to `AddGroup` (cloning the busiest group's shape) when a
    /// grow is due but the busiest group is already at the ceiling, while
    /// the fleet stays within
    /// [`MAX_FLEET_SHARDS`].
    pub add_group_at_max: bool,
    /// Escalate to `Drain` of the least-utilised group when a shrink is
    /// due but that group is already at the floor (never drains the last
    /// active group).
    pub drain_at_min: bool,
}

impl Default for TargetPolicy {
    fn default() -> TargetPolicy {
        TargetPolicy {
            low: 0.3,
            high: 0.85,
            grow_after: 3,
            shrink_after: 6,
            cooldown: 10,
            min_capacity_per_shard: 1,
            max_capacity_per_shard: 64,
            step: 1,
            add_group_at_max: false,
            drain_at_min: false,
        }
    }
}

impl TargetPolicy {
    /// Clamps degenerate knobs into their documented ranges (band ordered
    /// and in `[0, 1]`, step/bounds nonzero, at-least-one-tick
    /// thresholds).
    #[must_use]
    pub fn normalized(mut self) -> TargetPolicy {
        self.low = self.low.clamp(0.0, 1.0);
        self.high = self.high.clamp(self.low, 1.0);
        self.grow_after = self.grow_after.max(1);
        self.shrink_after = self.shrink_after.max(1);
        self.min_capacity_per_shard = self.min_capacity_per_shard.max(1);
        self.max_capacity_per_shard = self.max_capacity_per_shard.max(self.min_capacity_per_shard);
        self.step = self.step.max(1);
        self
    }
}

// ---------------------------------------------------------------------------
// Observations and pure evaluation.
// ---------------------------------------------------------------------------

/// One group as the controller sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupObservation {
    /// Group index (stable for the fleet's lifetime).
    pub group: u64,
    /// Live residents.
    pub residents: u64,
    /// Live capacity (0 once retired).
    pub capacity: u64,
    /// Live per-shard capacity.
    pub capacity_per_shard: u64,
    /// Admission shards.
    pub shards: u64,
    /// Retired by a drain.
    pub retired: bool,
}

impl GroupObservation {
    fn utilisation(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.residents as f64 / self.capacity as f64
        }
    }
}

/// One controller sample: the telemetry aggregates a decision is made
/// from. Built by [`Autoscaler::observe`]; tests construct them directly
/// to drive [`evaluate`] as a pure function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Per-group live state.
    pub groups: Vec<GroupObservation>,
    /// Fleet-wide residents / capacity, in `[0, 1]`.
    pub utilisation: f64,
}

impl Observation {
    /// Builds an observation from a fleet snapshot.
    pub fn from_snapshot(fleet: &FleetManager, snapshot: &FleetSnapshot) -> Observation {
        let groups = snapshot
            .groups
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let shape = fleet.group_shape(i).ok();
                let shards = shape.as_ref().map_or(1, |s| s.shards as u64);
                GroupObservation {
                    group: i as u64,
                    residents: g.residents as u64,
                    capacity: g.capacity as u64,
                    capacity_per_shard: shape.map_or(0, |s| s.capacity_per_shard as u64),
                    shards,
                    retired: g.retired,
                }
            })
            .collect();
        Observation {
            groups,
            utilisation: snapshot.utilisation(),
        }
    }

    fn busiest_active(&self) -> Option<&GroupObservation> {
        self.groups.iter().filter(|g| !g.retired).max_by(|a, b| {
            a.utilisation()
                .partial_cmp(&b.utilisation())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    fn idlest_active(&self) -> Option<&GroupObservation> {
        self.groups.iter().filter(|g| !g.retired).min_by(|a, b| {
            a.utilisation()
                .partial_cmp(&b.utilisation())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    fn active_groups(&self) -> usize {
        self.groups.iter().filter(|g| !g.retired).count()
    }
}

/// The controller's memory between ticks: breach streaks and the
/// remaining cooldown. Plain data so the hysteresis property tests can
/// drive [`evaluate`] deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerState {
    /// Consecutive ticks above the band.
    pub high_streak: u32,
    /// Consecutive ticks below the band.
    pub low_streak: u32,
    /// Ticks left before another action may fire.
    pub cooldown_left: u32,
}

/// One tick of the target-band policy, as a pure function: new streaks
/// and the action (if any) follow from the policy, the observation, and
/// the previous state alone. The caller executes the action and calls
/// [`ControllerState::acted`] if it was applied.
pub fn evaluate(
    policy: &TargetPolicy,
    observation: &Observation,
    state: &mut ControllerState,
) -> Option<ScaleAction> {
    if observation.utilisation > policy.high {
        state.high_streak = state.high_streak.saturating_add(1);
        state.low_streak = 0;
    } else if observation.utilisation < policy.low {
        state.low_streak = state.low_streak.saturating_add(1);
        state.high_streak = 0;
    } else {
        state.high_streak = 0;
        state.low_streak = 0;
    }

    // Cooldown gates the *action*, not the bookkeeping: streaks keep
    // accumulating so a persistent breach acts the instant cooldown ends.
    if state.cooldown_left > 0 {
        state.cooldown_left -= 1;
        return None;
    }

    if state.high_streak >= policy.grow_after {
        // Busiest group with ceiling headroom — a group already at the
        // ceiling must not shadow a growable sibling.
        let growable = observation
            .groups
            .iter()
            .filter(|g| !g.retired && g.capacity_per_shard < policy.max_capacity_per_shard)
            .max_by(|a, b| {
                a.utilisation()
                    .partial_cmp(&b.utilisation())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        if let Some(busiest) = growable {
            let target = busiest
                .capacity_per_shard
                .saturating_add(policy.step)
                .min(policy.max_capacity_per_shard);
            return Some(ScaleAction::Grow {
                group: busiest.group,
                capacity_per_shard: target,
            });
        }
        let busiest = observation.busiest_active()?;
        // The added group clones the busiest one's shards; a fleet at its
        // size cap holds at the ceiling, as a fixed bound would.
        let shards: u64 = observation.groups.iter().map(|g| g.shards.max(1)).sum();
        if policy.add_group_at_max && shards + busiest.shards.max(1) <= MAX_FLEET_SHARDS as u64 {
            return Some(ScaleAction::AddGroup {
                group: observation.groups.len() as u64,
                shape: GroupConfig {
                    name: format!("auto-{}", observation.groups.len()),
                    shards: (busiest.shards as usize).max(1),
                    capacity_per_shard: busiest.capacity_per_shard as usize,
                    tags: Vec::new(),
                },
            });
        }
        return None;
    }

    if state.low_streak >= policy.shrink_after {
        // Idlest group still above the floor — a group already at the
        // floor must not shadow a shrinkable sibling.
        let shrinkable = observation
            .groups
            .iter()
            .filter(|g| !g.retired && g.capacity_per_shard > policy.min_capacity_per_shard)
            .min_by(|a, b| {
                a.utilisation()
                    .partial_cmp(&b.utilisation())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        if let Some(idlest) = shrinkable {
            let target = idlest
                .capacity_per_shard
                .saturating_sub(policy.step)
                .max(policy.min_capacity_per_shard);
            return Some(ScaleAction::Shrink {
                group: idlest.group,
                capacity_per_shard: target,
            });
        }
        if policy.drain_at_min && observation.active_groups() > 1 {
            let idlest = observation.idlest_active()?;
            return Some(ScaleAction::Drain {
                group: idlest.group,
            });
        }
        return None;
    }

    None
}

impl ControllerState {
    /// Registers an applied action: arms the cooldown and clears both
    /// streaks, so the next decision starts from fresh evidence.
    pub fn acted(&mut self, cooldown: u32) {
        self.cooldown_left = cooldown;
        self.high_streak = 0;
        self.low_streak = 0;
    }
}

// ---------------------------------------------------------------------------
// Status: what `probcon top` and telemetry show.
// ---------------------------------------------------------------------------

/// The most recent scale decision, as rendered strings (self-contained
/// for wire transport and `probcon top`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScaleDecision {
    /// Controller tick the decision fired on.
    pub tick: u64,
    /// The action, rendered (`"grow group 0 to 5/shard"`).
    pub action: String,
    /// The journaled outcome (`"applied"` / `"refused (...)"`).
    pub outcome: String,
}

/// Live controller state published after every tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoscalerStatus {
    /// Policy label ([`ScalePolicy::label`]).
    pub policy: String,
    /// Ticks taken so far.
    pub ticks: u64,
    /// Fleet utilisation at the last sample.
    pub utilisation: f64,
    /// Consecutive above-band ticks.
    pub high_streak: u32,
    /// Consecutive below-band ticks.
    pub low_streak: u32,
    /// Ticks left before another action may fire (0 = eligible now).
    pub cooldown_left: u32,
    /// Last scale decision, if any fired yet.
    pub last_decision: Option<ScaleDecision>,
    /// Actions applied by this controller.
    pub applied: u64,
    /// Actions refused by the fleet (journaled refusals).
    pub refused: u64,
}

impl AutoscalerStatus {
    fn new(policy: &ScalePolicy) -> AutoscalerStatus {
        AutoscalerStatus {
            policy: policy.label(),
            ticks: 0,
            utilisation: 0.0,
            high_streak: 0,
            low_streak: 0,
            cooldown_left: 0,
            last_decision: None,
            applied: 0,
            refused: 0,
        }
    }

    /// One-line rendering for `probcon top`.
    pub fn render(&self) -> String {
        let last = match &self.last_decision {
            Some(d) => format!("last: {} -> {} (tick {})", d.action, d.outcome, d.tick),
            None => "last: none".to_string(),
        };
        let next = if self.cooldown_left > 0 {
            format!("next: eligible in {} ticks", self.cooldown_left)
        } else {
            "next: eligible now".to_string()
        };
        format!(
            "autoscaler[{}] tick {} util {:.0}% streaks +{}/-{} applied {} refused {} | {} | {}",
            self.policy,
            self.ticks,
            self.utilisation * 100.0,
            self.high_streak,
            self.low_streak,
            self.applied,
            self.refused,
            last,
            next,
        )
    }
}

// ---------------------------------------------------------------------------
// The controller.
// ---------------------------------------------------------------------------

/// The elastic capacity controller (see the [module docs](self)).
///
/// Drive it synchronously with [`tick`](Self::tick) (tests, benches) or
/// spawn the background loop with [`spawn`](Autoscaler::spawn).
pub struct Autoscaler {
    fleet: Arc<FleetManager>,
    policy: ScalePolicy,
    target: Option<TargetPolicy>,
    state: Mutex<ControllerState>,
    status: Mutex<AutoscalerStatus>,
    ticks: Mutex<u64>,
}

impl Autoscaler {
    /// Controller over a live fleet. `Target` policies are
    /// [normalized](TargetPolicy::normalized) on the way in.
    pub fn new(fleet: Arc<FleetManager>, policy: ScalePolicy) -> Autoscaler {
        let policy = match policy {
            ScalePolicy::Target(t) => ScalePolicy::Target(t.normalized()),
            p => p,
        };
        let target = match &policy {
            ScalePolicy::Target(t) => Some(t.clone()),
            _ => None,
        };
        Autoscaler {
            status: Mutex::new(AutoscalerStatus::new(&policy)),
            fleet,
            policy,
            target,
            state: Mutex::new(ControllerState::default()),
            ticks: Mutex::new(0),
        }
    }

    /// The policy in effect.
    pub fn policy(&self) -> &ScalePolicy {
        &self.policy
    }

    /// The fleet under control.
    pub fn fleet(&self) -> &Arc<FleetManager> {
        &self.fleet
    }

    /// Samples the fleet into an [`Observation`].
    pub fn observe(&self) -> Observation {
        Observation::from_snapshot(&self.fleet, &self.fleet.snapshot())
    }

    /// One control-loop iteration: sample, evaluate, execute, publish
    /// status. Returns the executed action and its journaled outcome, or
    /// `None` when the policy held.
    ///
    /// # Errors
    ///
    /// [`FleetError`] when executing the action failed without a decision
    /// (refusals are outcomes, not errors).
    pub fn tick(&self) -> Result<Option<(ScaleAction, ScaleOutcome)>, FleetError> {
        let tick = {
            let mut ticks = lock(&self.ticks);
            *ticks += 1;
            *ticks
        };
        let observation = self.observe();

        let action = match &self.target {
            Some(policy) => {
                let mut state = lock(&self.state);
                let action = evaluate(policy, &observation, &mut state);
                drop(state);
                action
            }
            // Off/Manual never act; Manual still publishes observations.
            None => None,
        };

        let executed = match action {
            Some(action) => {
                let outcome = self.fleet.resize(action.clone())?;
                if matches!(outcome, ScaleOutcome::Applied) {
                    if let Some(policy) = &self.target {
                        lock(&self.state).acted(policy.cooldown);
                    }
                }
                Some((action, outcome))
            }
            None => None,
        };

        let state = lock(&self.state).clone();
        {
            let mut status = lock(&self.status);
            status.ticks = tick;
            status.utilisation = observation.utilisation;
            status.high_streak = state.high_streak;
            status.low_streak = state.low_streak;
            status.cooldown_left = state.cooldown_left;
            if let Some((action, outcome)) = &executed {
                match outcome {
                    ScaleOutcome::Applied => status.applied += 1,
                    ScaleOutcome::Refused { .. } => status.refused += 1,
                }
                status.last_decision = Some(ScaleDecision {
                    tick,
                    action: action.to_string(),
                    outcome: match outcome {
                        ScaleOutcome::Applied => "applied".to_string(),
                        ScaleOutcome::Refused { reason } => format!("refused ({reason})"),
                    },
                });
            }
        }
        Ok(executed)
    }

    /// The status published by the last [`tick`](Self::tick).
    pub fn status(&self) -> AutoscalerStatus {
        lock(&self.status).clone()
    }

    /// Starts the background control loop, ticking every `interval`.
    /// `ScalePolicy::Off` loops too (cheaply publishing status), so the
    /// handle's lifecycle is uniform; pass the policy you mean.
    pub fn spawn(self: Arc<Self>, interval: Duration) -> AutoscalerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let controller = Arc::clone(&self);
        let thread = std::thread::Builder::new()
            .name("autoscaler".to_string())
            .spawn(move || {
                while !flag.load(Ordering::Acquire) {
                    // A tick failing (fleet stopped mid-shutdown) ends the
                    // loop rather than spinning on errors.
                    if controller.tick().is_err() {
                        break;
                    }
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn autoscaler thread");
        AutoscalerHandle {
            controller: self,
            stop,
            thread: Some(thread),
        }
    }
}

/// Service layer stamping the live [`AutoscalerStatus`] into the stack's
/// [`TelemetrySnapshot`](crate::TelemetrySnapshot), so `probcon top`
/// (local or over the wire) shows the controller's last and next scale
/// decisions next to the fleet it steers. All decisions pass through
/// unchanged.
pub struct Autoscaled<S> {
    inner: S,
    controller: Arc<Autoscaler>,
}

impl<S: crate::service::AdmissionService> Autoscaled<S> {
    /// Wraps `inner`, reporting `controller`'s status.
    pub fn new(inner: S, controller: Arc<Autoscaler>) -> Autoscaled<S> {
        Autoscaled { inner, controller }
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The controller whose status this layer reports.
    pub fn controller(&self) -> &Arc<Autoscaler> {
        &self.controller
    }
}

impl<S: crate::service::AdmissionService> crate::service::AdmissionService for Autoscaled<S> {
    fn admit(
        &self,
        request: &crate::service::AdmissionRequest,
    ) -> Result<crate::service::AdmissionDecision, crate::service::ServiceError> {
        self.inner.admit(request)
    }

    fn release(&self, resident: u64) -> Result<(), crate::service::ServiceError> {
        self.inner.release(resident)
    }

    fn snapshot(&self) -> crate::service::ServiceSnapshot {
        self.inner.snapshot()
    }

    fn workload(&self) -> Option<&platform::SystemSpec> {
        self.inner.workload()
    }

    fn estimate(
        &self,
        use_case: platform::UseCase,
        method: contention::Method,
    ) -> Result<Arc<contention::Estimate>, crate::service::ServiceError> {
        self.inner.estimate(use_case, method)
    }

    fn telemetry(&self) -> crate::telemetry::TelemetrySnapshot {
        let mut telemetry = self.inner.telemetry();
        telemetry.autoscaler = Some(self.controller.status());
        telemetry
    }

    fn trace_tail(&self, limit: usize) -> Vec<crate::telemetry::TraceEvent> {
        self.inner.trace_tail(limit)
    }

    fn trace_recorder(&self) -> Option<Arc<crate::telemetry::TraceRecorder>> {
        self.inner.trace_recorder()
    }
}

/// Join handle for a spawned control loop; stops the loop on
/// [`stop`](Self::stop) or drop.
pub struct AutoscalerHandle {
    controller: Arc<Autoscaler>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl AutoscalerHandle {
    /// The controller behind the loop (for status queries).
    pub fn controller(&self) -> &Arc<Autoscaler> {
        &self.controller
    }

    /// Signals the loop to stop and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for AutoscalerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetConfig, RoutingPolicy};
    use crate::journal::journaled;
    use experiments::workload::workload_with;
    use sdf::GeneratorConfig;

    fn observation(utilisation: f64, capacity_per_shard: u64) -> Observation {
        let capacity = capacity_per_shard * 2;
        Observation {
            groups: vec![GroupObservation {
                group: 0,
                residents: (utilisation * capacity as f64).round() as u64,
                capacity,
                capacity_per_shard,
                shards: 2,
                retired: false,
            }],
            utilisation,
        }
    }

    fn policy() -> TargetPolicy {
        TargetPolicy {
            low: 0.25,
            high: 0.75,
            grow_after: 2,
            shrink_after: 2,
            cooldown: 3,
            min_capacity_per_shard: 1,
            max_capacity_per_shard: 8,
            step: 1,
            add_group_at_max: false,
            drain_at_min: false,
        }
    }

    #[test]
    fn grow_requires_consecutive_breaches() {
        let policy = policy();
        let mut state = ControllerState::default();
        assert_eq!(evaluate(&policy, &observation(0.9, 4), &mut state), None);
        // An in-band tick resets the streak.
        assert_eq!(evaluate(&policy, &observation(0.5, 4), &mut state), None);
        assert_eq!(evaluate(&policy, &observation(0.9, 4), &mut state), None);
        assert_eq!(
            evaluate(&policy, &observation(0.9, 4), &mut state),
            Some(ScaleAction::Grow {
                group: 0,
                capacity_per_shard: 5
            })
        );
    }

    #[test]
    fn cooldown_holds_actions_and_counts_down() {
        let policy = policy();
        let mut state = ControllerState::default();
        for _ in 0..2 {
            evaluate(&policy, &observation(0.9, 4), &mut state);
        }
        state.acted(policy.cooldown);
        for tick in 0..policy.cooldown {
            assert_eq!(
                evaluate(&policy, &observation(0.9, 4), &mut state),
                None,
                "tick {tick} must hold during cooldown"
            );
        }
        // Streaks accumulated through cooldown: the breach acts now.
        assert!(evaluate(&policy, &observation(0.9, 4), &mut state).is_some());
    }

    #[test]
    fn bounds_stop_scaling_without_escalation() {
        let policy = policy();
        let mut state = ControllerState::default();
        for _ in 0..4 {
            assert_eq!(evaluate(&policy, &observation(0.9, 8), &mut state), None);
        }
        let mut state = ControllerState::default();
        for _ in 0..4 {
            assert_eq!(evaluate(&policy, &observation(0.1, 1), &mut state), None);
        }
    }

    #[test]
    fn shrink_at_floor_escalates_to_drain_when_enabled() {
        let mut policy = policy();
        policy.drain_at_min = true;
        let mut state = ControllerState::default();
        let mut obs = observation(0.1, 1);
        obs.groups.push(GroupObservation {
            group: 1,
            residents: 1,
            capacity: 2,
            capacity_per_shard: 1,
            shards: 2,
            retired: false,
        });
        for _ in 0..(policy.shrink_after - 1) {
            assert_eq!(evaluate(&policy, &obs, &mut state), None);
        }
        assert_eq!(
            evaluate(&policy, &obs, &mut state),
            Some(ScaleAction::Drain { group: 0 })
        );
    }

    #[test]
    fn add_group_escalation_stops_at_the_fleet_size_cap() {
        let mut policy = policy();
        policy.add_group_at_max = true;
        let escalate = |shards: u64| {
            let mut obs = observation(0.9, 8);
            obs.groups[0].shards = shards;
            let mut state = ControllerState::default();
            (0..policy.grow_after)
                .map(|_| evaluate(&policy, &obs, &mut state))
                .last()
                .flatten()
        };
        let half = MAX_FLEET_SHARDS as u64 / 2;
        assert!(matches!(escalate(half), Some(ScaleAction::AddGroup { .. })));
        assert_eq!(escalate(half + 1), None);
    }

    #[test]
    fn policy_json_round_trips() {
        for policy in [
            ScalePolicy::Off,
            ScalePolicy::Manual,
            ScalePolicy::Target(policy()),
        ] {
            let json = policy.to_json();
            assert_eq!(ScalePolicy::from_json(&json).expect("parses"), policy);
        }
    }

    #[test]
    fn live_controller_grows_a_hot_fleet_and_journals_it() {
        let spec = workload_with(7, 5, &GeneratorConfig::with_actors(4)).expect("workload");
        let config = FleetConfig::uniform(2, 2, 2, RoutingPolicy::LeastUtilised);
        let fleet = Arc::new(FleetManager::new(spec, config).expect("fleet"));
        // Load group 0; the residents stay live until released by id.
        let mut admitted = 0;
        for i in 0..16 {
            let request = crate::AdmissionRequest::new(i).on(0);
            if crate::AdmissionService::admit(&fleet, &request).is_ok_and(|d| d.is_admitted()) {
                admitted += 1;
            }
        }
        assert!(admitted > 0, "at least one admission must land");

        let controller = Autoscaler::new(
            Arc::clone(&fleet),
            ScalePolicy::Target(TargetPolicy {
                grow_after: 1,
                cooldown: 0,
                high: 0.05,
                low: 0.0,
                ..TargetPolicy::default()
            }),
        );
        let decision = (0..10)
            .find_map(|_| controller.tick().expect("tick"))
            .expect("a grow fires within a few ticks");
        let (action, outcome) = decision;
        assert!(matches!(action, ScaleAction::Grow { .. }));
        assert_eq!(outcome, ScaleOutcome::Applied);
        assert!(journaled(fleet.journal()).iter().any(|e| matches!(
            e,
            crate::journal::DecisionEvent::Resize {
                outcome: ScaleOutcome::Applied,
                ..
            }
        )));
        let status = controller.status();
        assert_eq!(status.applied, 1);
        assert!(status.last_decision.is_some());
    }
}
