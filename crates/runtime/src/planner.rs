//! Offline capacity planning: what-if journal replay over hypothetical
//! fleet shapes.
//!
//! The paper's argument is *conservative admission at design time*:
//! predicting whether a use-case fits a platform before committing silicon
//! or capacity. The [`Journal`] gives us the raw material — every real
//! admit/reject/saturate/release/rebalance decision a fleet ever made —
//! and this module closes the loop by re-executing a recorded decision
//! stream against a **hypothetical** fleet instead of the recorded one:
//!
//! * a candidate fleet is a [`FleetConfig`] — the one fleet shape type,
//!   serde-able, decoded from any [`JournalHeader`](crate::JournalHeader) by
//!   [`FleetConfig::from_header`] and reshaped through
//!   [`scale_capacity`](FleetConfig::scale_capacity),
//!   [`with_group_count`](FleetConfig::with_group_count) or a new
//!   `policy`;
//! * [`PlanRun`] — one counterfactual replay: the journal's admission
//!   stream is re-decided through the fleet's
//!   [`AdmissionService`](crate::AdmissionService) path against the
//!   hypothetical shape, producing a [`PlanReport`] with
//!   per-event [`Flip`] records ([`RejectedNowAdmitted`],
//!   [`AdmittedNowRejected`], [`Rerouted`]), per-group peak/mean
//!   utilisation and saturation windows;
//! * [`PlanSweep`] — a grid of shapes executed in parallel on a worker
//!   pool, summarized by a frontier: the smallest shape with zero
//!   regressions and the cheapest shape within an acceptable flip budget.
//!
//! A plan run re-executes the journal through the same engine as
//! [`JournalReplayer`](crate::JournalReplayer): the base snapshot
//! checkpoint restores its group shape and residents, and each recorded
//! event is re-driven through the fleet. Unlike the replayer, a plan run
//! **never verifies outcomes** — on a different shape the outcomes are
//! *supposed* to differ, so divergence is recorded as data (flips), not
//! failure. Both judge the same (recorded, replayed) pairs, so on the
//! *identical* shape a journal that replays EQUIVALENT reports zero flips,
//! compacted or not: the planner ≡ replayer anchor every what-if answer
//! hangs off holds by construction.
//!
//! [`RejectedNowAdmitted`]: FlipKind::RejectedNowAdmitted
//! [`AdmittedNowRejected`]: FlipKind::AdmittedNowRejected
//! [`Rerouted`]: FlipKind::Rerouted
//!
//! # Example
//!
//! ```
//! use platform::{Application, Mapping, SystemSpec};
//! use runtime::{
//!     AdmissionRequest, AdmissionService, FleetConfig, FleetManager, PlanRun, RoutingPolicy,
//! };
//! use sdf::figure2_graphs;
//!
//! let (a, b) = figure2_graphs();
//! let spec = SystemSpec::builder()
//!     .application(Application::new("A", a)?)
//!     .application(Application::new("B", b)?)
//!     .mapping(Mapping::by_actor_index(3))
//!     .build()?;
//!
//! // Record a little history on a 1-group fleet of capacity 2.
//! let fleet = FleetManager::new(
//!     spec.clone(),
//!     FleetConfig::uniform(1, 1, 2, RoutingPolicy::LeastUtilised),
//! )?;
//! assert!(fleet.admit(&AdmissionRequest::new(0))?.is_admitted());
//! assert!(fleet.admit(&AdmissionRequest::new(1))?.is_admitted());
//!
//! // What if the same traffic had hit a fleet with HALF the capacity?
//! let recorded = FleetConfig::from_header(fleet.journal().header())?;
//! let halved = recorded.clone().scale_capacity(0.5);
//! let report = PlanRun::new(&spec, fleet.journal(), &halved).execute()?;
//! assert_eq!(report.regressions(), 1); // one admission no longer fits
//!
//! // ... and against the recorded shape, nothing flips.
//! let identity = PlanRun::new(&spec, fleet.journal(), &recorded).execute()?;
//! assert!(identity.flips.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::fleet::{FleetConfig, FleetError, FleetManager, RoutingPolicy};
use crate::journal::{
    DecisionEvent, Journal, JournalEntry, JournalError, JournalOutcome, ScaleOutcome,
};
use crate::reexec::{Reexecutor, Undriven};
use crate::service::ServiceError;
use crate::wal::FleetCheckpoint;
use platform::SystemSpec;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Flips: divergence as data.
// ---------------------------------------------------------------------------

/// How a counterfactual decision differed from the recorded one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlipKind {
    /// The recording denied this admission (rejected or saturated); the
    /// hypothetical fleet admits it — spare headroom recovered.
    RejectedNowAdmitted,
    /// The recording admitted this request; the hypothetical fleet denies
    /// it (contract rejection or saturation) — a **regression**: real
    /// served traffic this shape would have turned away.
    AdmittedNowRejected,
    /// Same outcome class, different group: the hypothetical routing sent
    /// the request elsewhere.
    Rerouted,
    /// A recorded elastic resize ([`DecisionEvent::Resize`]) came out
    /// differently on the hypothetical fleet — it applied where the
    /// recording refused, or vice versa.
    ResizeDiverged,
}

impl fmt::Display for FlipKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlipKind::RejectedNowAdmitted => write!(f, "rejected-now-admitted"),
            FlipKind::AdmittedNowRejected => write!(f, "admitted-now-rejected"),
            FlipKind::Rerouted => write!(f, "rerouted"),
            FlipKind::ResizeDiverged => write!(f, "resize-diverged"),
        }
    }
}

/// One journal event whose counterfactual outcome differed from the
/// recording.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flip {
    /// Sequence number of the event in the source journal.
    pub seq: u64,
    /// What kind of difference.
    pub kind: FlipKind,
    /// The recorded outcome, rendered.
    pub recorded: String,
    /// The hypothetical outcome, rendered.
    pub hypothetical: String,
}

impl fmt::Display for Flip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seq {}: {} (recorded `{}`, hypothetical `{}`)",
            self.seq, self.kind, self.recorded, self.hypothetical
        )
    }
}

/// Admission outcome counts of one side of a plan run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeTotals {
    /// Admissions granted.
    pub admitted: u64,
    /// Admissions rejected by throughput contracts.
    pub rejected: u64,
    /// Admissions bounced for lack of capacity.
    pub saturated: u64,
}

impl OutcomeTotals {
    /// Counts one admission outcome; `true` when it admitted.
    fn count(&mut self, outcome: &JournalOutcome) -> bool {
        match outcome {
            JournalOutcome::Admitted { .. } => self.admitted += 1,
            JournalOutcome::Rejected { .. } => self.rejected += 1,
            JournalOutcome::Saturated => self.saturated += 1,
        }
        matches!(outcome, JournalOutcome::Admitted { .. })
    }
}

impl fmt::Display for OutcomeTotals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} admitted / {} rejected / {} saturated",
            self.admitted, self.rejected, self.saturated
        )
    }
}

/// A maximal stretch of journal positions during which a group sat at full
/// capacity in the counterfactual run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SaturationWindow {
    /// First sequence number at which the group was full.
    pub from_seq: u64,
    /// Last sequence number at which the group was still full (inclusive).
    pub until_seq: u64,
}

impl fmt::Display for SaturationWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.from_seq, self.until_seq)
    }
}

/// Per-group load profile of a counterfactual run, sampled after every
/// journal event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupUsage {
    /// Group name (from the hypothetical shape).
    pub name: String,
    /// Resident capacity of the group under the hypothetical shape.
    pub capacity: u64,
    /// Highest resident count observed.
    pub peak_residents: u64,
    /// Mean resident/capacity ratio over all events.
    pub mean_utilisation: f64,
    /// Events after which the group sat at full capacity.
    pub saturated_events: u64,
    /// Maximal full-capacity stretches, in journal order.
    pub saturation_windows: Vec<SaturationWindow>,
}

// ---------------------------------------------------------------------------
// PlanRun: one counterfactual replay.
// ---------------------------------------------------------------------------

/// How a plan run picks the group each recorded admission is tried on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouteMode {
    /// Reuse the recorded routing when the shape still
    /// [routes like](FleetConfig::routes_like) the recording (same group
    /// count and policy) — isolating pure capacity effects and keeping
    /// even concurrency-recorded journals flip-free on the identity shape
    /// — and re-route by policy otherwise (the recorded groups may not
    /// even exist). The default.
    #[default]
    Auto,
    /// Always prefer the recorded group (falling back to policy routing
    /// for events whose recorded group is out of range).
    Recorded,
    /// Always re-route through the hypothetical fleet's policy, as if the
    /// traffic arrived fresh. Admissions keep their recorded affinity
    /// tags, so an affinity policy re-routes them by tag.
    Replan,
}

impl RouteMode {
    /// Rendered name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            RouteMode::Auto => "auto",
            RouteMode::Recorded => "recorded",
            RouteMode::Replan => "replanned",
        }
    }
}

/// Why a plan run (or sweep) failed outright — as opposed to *flipping*,
/// which is the result, not a failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The hypothetical fleet could not be built.
    Fleet(FleetError),
    /// Re-deciding an admission failed (analysis error, stopped service).
    Service(ServiceError),
    /// The sweep was misconfigured (empty grid, …).
    Config(String),
    /// The journal's entries could not be read; nothing was planned.
    Journal(JournalError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Fleet(e) => write!(f, "cannot build hypothetical fleet: {e}"),
            PlanError::Service(e) => write!(f, "counterfactual decision failed: {e}"),
            PlanError::Config(e) => write!(f, "invalid plan configuration: {e}"),
            PlanError::Journal(e) => write!(f, "cannot read the journal: {e}"),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Fleet(e) => Some(e),
            PlanError::Service(e) => Some(e),
            PlanError::Journal(e) => Some(e),
            PlanError::Config(_) => None,
        }
    }
}

impl From<FleetError> for PlanError {
    fn from(e: FleetError) -> Self {
        PlanError::Fleet(e)
    }
}

impl From<ServiceError> for PlanError {
    fn from(e: ServiceError) -> Self {
        PlanError::Service(e)
    }
}

/// One counterfactual replay of a journal against a hypothetical
/// [`FleetConfig`] (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct PlanRun<'a> {
    spec: &'a SystemSpec,
    journal: &'a Journal,
    shape: &'a FleetConfig,
    routing: RouteMode,
    scale_policy: Option<(crate::autoscaler::ScalePolicy, u64)>,
}

impl<'a> PlanRun<'a> {
    /// A run re-deciding `journal`'s stream — phrased against `spec`, the
    /// workload the journal was recorded for — on a fleet shaped like
    /// `shape`.
    pub fn new(spec: &'a SystemSpec, journal: &'a Journal, shape: &'a FleetConfig) -> PlanRun<'a> {
        PlanRun {
            spec,
            journal,
            shape,
            routing: RouteMode::Auto,
            scale_policy: None,
        }
    }

    /// Overrides the [`RouteMode`].
    #[must_use]
    pub fn with_routing(mut self, routing: RouteMode) -> PlanRun<'a> {
        self.routing = routing;
        self
    }

    /// Evaluates an elastic [`ScalePolicy`](crate::ScalePolicy) against
    /// the recorded stream: an [`Autoscaler`](crate::Autoscaler) over the
    /// hypothetical fleet ticks every `every` replayed events, its
    /// actions land in [`PlanReport::policy_actions`], and the journal's
    /// own recorded resizes are *skipped* (the policy under evaluation
    /// decides capacity instead). `probcon plan --policy-file` drives
    /// this.
    #[must_use]
    pub fn with_scale_policy(
        mut self,
        policy: crate::autoscaler::ScalePolicy,
        every: u64,
    ) -> PlanRun<'a> {
        self.scale_policy = Some((policy, every.max(1)));
        self
    }

    /// Executes the counterfactual replay.
    ///
    /// The journal's base checkpoint is restored into the hypothetical
    /// fleet, then every recorded admission, release and rebalance — and
    /// every applied resize, unless a scale policy is under evaluation —
    /// is re-driven through the one re-execution engine that `probcon
    /// replay` drives too. Releases of flipped-away admissions are skipped
    /// and counted. Outcomes are **never verified** — differences land in
    /// the report as [`Flip`]s.
    ///
    /// # Errors
    ///
    /// [`PlanError::Journal`] when the journal's entries cannot be read;
    /// [`PlanError`] when the fleet cannot be built or an admission cannot
    /// be *decided* (rejections and saturations are decisions, not
    /// errors).
    pub fn execute(&self) -> Result<PlanReport, PlanError> {
        let entries = self.journal.try_entries().map_err(PlanError::Journal)?;
        self.execute_over(self.journal.base_checkpoint().as_ref(), &entries)
    }

    /// [`execute`](Self::execute) over a checkpoint and entry slice read
    /// once — how [`PlanSweep`] shares one read across its workers.
    fn execute_over(
        &self,
        checkpoint: Option<&FleetCheckpoint>,
        entries: &[JournalEntry],
    ) -> Result<PlanReport, PlanError> {
        let fleet = FleetManager::new(self.spec.clone(), self.shape.clone())?;
        let recorded = FleetConfig::from_header(self.journal.header());
        let routing = match self.routing {
            RouteMode::Auto if recorded.is_ok_and(|r| self.shape.routes_like(&r)) => {
                RouteMode::Recorded
            }
            RouteMode::Auto => RouteMode::Replan,
            routing => routing,
        };
        let mut engine = Reexecutor::new(&fleet, routing);
        let mut report = PlanReport {
            shape: self.shape.clone(),
            routing: routing.name().to_string(),
            events: 0,
            flips: Vec::new(),
            recorded: OutcomeTotals::default(),
            hypothetical: OutcomeTotals::default(),
            releases_applied: 0,
            releases_skipped: 0,
            untracked_admissions: 0,
            rebalances_applied: 0,
            rebalances_failed: 0,
            rebalances_skipped: 0,
            resizes_applied: 0,
            resizes_refused: 0,
            resizes_skipped: 0,
            restored: 0,
            groups: Vec::new(),
            residents_at_end: 0,
            policy: self.scale_policy.as_ref().map(|(policy, _)| policy.label()),
            policy_actions: Vec::new(),
        };

        // A snapshot-compacted journal carries the fleet's state instead of
        // the admissions that built it. A resident the hypothetical shape
        // cannot seat is a regression of traffic the recording was serving
        // — an AdmittedNowRejected flip anchored at its recorded admission.
        if let Some(checkpoint) = checkpoint {
            for (resident, restored) in engine.restore(checkpoint)? {
                report.recorded.admitted += 1;
                if let Err(e) = restored {
                    report.hypothetical.rejected += 1;
                    report.flips.push(Flip {
                        seq: resident.admitted_seq,
                        kind: FlipKind::AdmittedNowRejected,
                        recorded: format!("admitted on group {}", resident.group),
                        hypothetical: format!("snapshot restore failed: {e}"),
                    });
                } else {
                    report.restored += 1;
                    report.hypothetical.admitted += 1;
                }
            }
        }

        let mut usage = UsageTracker::new(&fleet);
        // Policy evaluation: the controller observes the same fleet the
        // replay mutates, so its decisions see the replayed load.
        let controller = self.scale_policy.as_ref().map(|(policy, every)| {
            (
                crate::autoscaler::Autoscaler::new(
                    std::sync::Arc::new(fleet.clone()),
                    policy.clone(),
                ),
                *every,
            )
        });
        for entry in entries {
            report.events += 1;
            match &entry.event {
                // Under policy evaluation the policy decides capacity, so
                // the recording's resizes are set aside; a recorded refused
                // resize mutated nothing, so nothing re-drives it.
                DecisionEvent::Resize { outcome, .. }
                    if controller.is_some() || outcome != &ScaleOutcome::Applied =>
                {
                    report.resizes_skipped += 1;
                }
                recorded => report.tally(entry.seq, recorded, engine.drive(recorded))?,
            }
            usage.observe(entry.seq, &fleet);
            if let Some((controller, every)) = &controller {
                if (report.events as u64).is_multiple_of(*every) {
                    if let Some((action, outcome)) = controller.tick().map_err(PlanError::Fleet)? {
                        match &outcome {
                            ScaleOutcome::Applied => report.resizes_applied += 1,
                            ScaleOutcome::Refused { .. } => report.resizes_refused += 1,
                        }
                        report.policy_actions.push(PolicyDecision {
                            after_event: report.events as u64,
                            action: action.to_string(),
                            outcome: match &outcome {
                                ScaleOutcome::Applied => "applied".to_string(),
                                ScaleOutcome::Refused { reason } => {
                                    format!("refused ({reason})")
                                }
                            },
                        });
                    }
                }
            }
        }

        report.groups = usage.finish();
        report.residents_at_end = fleet.resident_count();
        fleet.stop();
        Ok(report)
    }
}

/// Plan's rendering of a decision, applied alike to the recorded event and
/// to its counterfactual.
fn flip_text(event: &DecisionEvent) -> String {
    match event {
        DecisionEvent::Admit { group, outcome, .. } => match outcome {
            JournalOutcome::Admitted { .. } => format!("admitted on group {group}"),
            JournalOutcome::Rejected { violations } => {
                format!("rejected on group {group} ({violations} violations)")
            }
            JournalOutcome::Saturated => format!("saturated on group {group}"),
        },
        DecisionEvent::Resize { action, outcome } => match outcome {
            ScaleOutcome::Applied => format!("resize applied: {action}"),
            ScaleOutcome::Refused { reason } => format!("resize refused: {reason}"),
        },
        other => other.to_string(),
    }
}

/// Per-group utilisation accumulator sampled after every journal event.
struct UsageTracker {
    groups: Vec<GroupTrack>,
    events: u64,
    last_seq: u64,
}

/// One group's load profile so far, plus what finishing it needs.
struct GroupTrack {
    usage: GroupUsage,
    resident_sum: u64,
    /// First seq of the full-capacity stretch still running, if any.
    open_window: Option<u64>,
}

impl UsageTracker {
    fn new(fleet: &FleetManager) -> UsageTracker {
        let mut tracker = UsageTracker {
            groups: Vec::new(),
            events: 0,
            last_seq: 0,
        };
        tracker.sync_groups(fleet);
        tracker
    }

    /// Grows the per-group accumulators to the fleet's current group
    /// count (a replayed `AddGroup` can appear mid-journal) and refreshes
    /// capacities, which elastic resizes move under the replay. A new
    /// group's peak starts at its current occupancy: a fleet restored from
    /// a snapshot checkpoint starts with residents.
    fn sync_groups(&mut self, fleet: &FleetManager) {
        for g in self.groups.len()..fleet.group_count() {
            self.groups.push(GroupTrack {
                usage: GroupUsage {
                    name: fleet.group_name(g).unwrap_or_else(|_| "?".to_string()),
                    capacity: 0,
                    peak_residents: fleet.resident_count_of(g).unwrap_or(0) as u64,
                    mean_utilisation: 0.0,
                    saturated_events: 0,
                    saturation_windows: Vec::new(),
                },
                resident_sum: 0,
                open_window: None,
            });
        }
        for (g, track) in self.groups.iter_mut().enumerate() {
            track.usage.capacity = fleet.capacity_of(g).unwrap_or(0) as u64;
        }
    }

    fn observe(&mut self, seq: u64, fleet: &FleetManager) {
        self.sync_groups(fleet);
        self.events += 1;
        self.last_seq = seq;
        for (g, track) in self.groups.iter_mut().enumerate() {
            let residents = fleet.resident_count_of(g).unwrap_or(0) as u64;
            let usage = &mut track.usage;
            usage.peak_residents = usage.peak_residents.max(residents);
            track.resident_sum += residents;
            if usage.capacity > 0 && residents >= usage.capacity {
                usage.saturated_events += 1;
                track.open_window.get_or_insert(seq);
            } else if let Some(from_seq) = track.open_window.take() {
                usage.saturation_windows.push(SaturationWindow {
                    from_seq,
                    // The previous event was the last full one; `seq` is
                    // the first event after which the group had headroom
                    // again. Clamp for the degenerate single-event case.
                    until_seq: seq.saturating_sub(1).max(from_seq),
                });
            }
        }
    }

    fn finish(self) -> Vec<GroupUsage> {
        let (events, last_seq) = (self.events, self.last_seq);
        self.groups
            .into_iter()
            .map(|mut track| {
                let usage = &mut track.usage;
                if let Some(from_seq) = track.open_window {
                    usage.saturation_windows.push(SaturationWindow {
                        from_seq,
                        until_seq: last_seq,
                    });
                }
                if events > 0 && usage.capacity > 0 {
                    usage.mean_utilisation =
                        track.resident_sum as f64 / (events as f64 * usage.capacity as f64);
                }
                track.usage
            })
            .collect()
    }
}

/// Result of one counterfactual replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanReport {
    /// The hypothetical shape the journal was replayed against.
    pub shape: FleetConfig,
    /// Effective routing (`"recorded"` or `"replanned"`, after
    /// [`RouteMode::Auto`] resolution).
    pub routing: String,
    /// Journal events replayed.
    pub events: usize,
    /// Every outcome difference, in sequence order.
    pub flips: Vec<Flip>,
    /// Outcome counts of the recording.
    pub recorded: OutcomeTotals,
    /// Outcome counts of the counterfactual.
    pub hypothetical: OutcomeTotals,
    /// Recorded releases applied to a counterfactually live resident.
    pub releases_applied: u64,
    /// Recorded releases skipped because the counterfactual never admitted
    /// the resident.
    pub releases_skipped: u64,
    /// Counterfactual admissions the recording denied — they hold capacity
    /// to the end because the recording has no release for them.
    pub untracked_admissions: u64,
    /// Recorded rebalances that applied cleanly.
    pub rebalances_applied: u64,
    /// Recorded rebalances refused by the hypothetical target group (full
    /// or contract-bound).
    pub rebalances_failed: u64,
    /// Recorded rebalances skipped (resident flipped away, target group
    /// absent, or resident already on the target).
    pub rebalances_skipped: u64,
    /// Recorded elastic resizes that re-applied cleanly.
    pub resizes_applied: u64,
    /// Recorded applied resizes the hypothetical fleet refused (each is
    /// also a [`FlipKind::ResizeDiverged`] flip).
    pub resizes_refused: u64,
    /// Recorded refused resizes (nothing to re-apply — a refusal mutates
    /// nothing).
    pub resizes_skipped: u64,
    /// Residents seeded from the journal's snapshot checkpoint before the
    /// entry replay (zero for uncompacted journals).
    pub restored: u64,
    /// Per-group load profile of the counterfactual run.
    pub groups: Vec<GroupUsage>,
    /// Residents still live when the journal ended.
    pub residents_at_end: usize,
    /// Label of the elastic policy under evaluation
    /// ([`PlanRun::with_scale_policy`]); absent on plain replays.
    #[serde(skip_none)]
    pub policy: Option<String>,
    /// Resize timeline the evaluated policy produced, in replay order.
    pub policy_actions: Vec<PolicyDecision>,
}

/// One action an evaluated [`ScalePolicy`](crate::ScalePolicy) took
/// during a counterfactual replay.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyDecision {
    /// Number of journal events replayed when the action fired.
    pub after_event: u64,
    /// The action, rendered.
    pub action: String,
    /// `"applied"` or `"refused (...)"`.
    pub outcome: String,
}

impl PlanReport {
    /// Sorts one (recorded, replayed) pair from the re-execution engine
    /// into the report's counters and flips.
    fn tally(
        &mut self,
        seq: u64,
        recorded: &DecisionEvent,
        replayed: Result<DecisionEvent, Undriven>,
    ) -> Result<(), PlanError> {
        use DecisionEvent::{Admit, Release, Resize};
        let replayed = match replayed {
            Ok(replayed) => replayed,
            Err(why) => return self.skip(recorded, why),
        };
        let kind = match (recorded, &replayed) {
            (
                Admit { group, outcome, .. },
                Admit {
                    group: now_group,
                    outcome: now,
                    ..
                },
            ) => {
                match (self.recorded.count(outcome), self.hypothetical.count(now)) {
                    (true, false) => Some(FlipKind::AdmittedNowRejected),
                    (false, true) => {
                        // The recording never releases it: it holds its
                        // capacity to the end.
                        self.untracked_admissions += 1;
                        Some(FlipKind::RejectedNowAdmitted)
                    }
                    _ => (now_group != group).then_some(FlipKind::Rerouted),
                }
            }
            (_, Resize { outcome, .. }) if *outcome != ScaleOutcome::Applied => {
                self.resizes_refused += 1;
                Some(FlipKind::ResizeDiverged)
            }
            (_, Resize { .. }) => {
                self.resizes_applied += 1;
                None
            }
            (_, Release { .. }) => {
                self.releases_applied += 1;
                None
            }
            // The engine answers in kind: what remains is a rebalance.
            _ => {
                self.rebalances_applied += 1;
                None
            }
        };
        if let Some(kind) = kind {
            self.flips.push(Flip {
                seq,
                kind,
                recorded: flip_text(recorded),
                hypothetical: flip_text(&replayed),
            });
        }
        Ok(())
    }

    /// Counts a recorded release or rebalance the counterfactual could not
    /// re-drive; any other failure ends the plan.
    fn skip(&mut self, recorded: &DecisionEvent, why: Undriven) -> Result<(), PlanError> {
        match (recorded, why) {
            // The counterfactual never admitted this resident (its
            // admission flipped away): nothing to free.
            (DecisionEvent::Release { .. }, Undriven::UnknownResident(_)) => {
                self.releases_skipped += 1;
            }
            // The moved resident flipped away, the target group is absent
            // from the shape, or the resident already lives there (its
            // admission routed differently).
            (
                _,
                Undriven::UnknownResident(_)
                | Undriven::Fleet(FleetError::UnknownGroup(_) | FleetError::SameGroup { .. }),
            ) => self.rebalances_skipped += 1,
            (
                _,
                Undriven::Fleet(FleetError::MoveSaturated { .. } | FleetError::MoveRejected { .. }),
            ) => self.rebalances_failed += 1,
            (_, Undriven::Fleet(e)) => return Err(PlanError::Fleet(e)),
            (_, Undriven::Service(e)) => return Err(PlanError::Service(e)),
        }
        Ok(())
    }

    /// Total flips.
    pub fn flip_count(&self) -> usize {
        self.flips.len()
    }

    /// Flips of one kind.
    pub fn count(&self, kind: FlipKind) -> usize {
        self.flips.iter().filter(|f| f.kind == kind).count()
    }

    /// Flips that deny traffic the recording served
    /// ([`FlipKind::AdmittedNowRejected`]) — the frontier's "no worse than
    /// reality" criterion.
    pub fn regressions(&self) -> usize {
        self.count(FlipKind::AdmittedNowRejected)
    }

    /// `true` when the shape serves everything the recording served (it
    /// may still reroute or recover denied admissions).
    pub fn is_clean(&self) -> bool {
        self.regressions() == 0
    }

    /// Highest per-group peak utilisation, in `[0, 1]`.
    pub fn peak_utilisation(&self) -> f64 {
        self.groups
            .iter()
            .filter(|g| g.capacity > 0)
            .map(|g| g.peak_residents as f64 / g.capacity as f64)
            .fold(0.0, f64::max)
    }

    /// Renders the table printed by `probcon plan`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan: shape {} (capacity {}), {} routing",
            self.shape.label(),
            self.shape.total_capacity(),
            self.routing,
        );
        let _ = writeln!(
            out,
            "replayed {} events: {} flips ({} admitted-now-rejected, \
             {} rejected-now-admitted, {} rerouted)",
            self.events,
            self.flip_count(),
            self.count(FlipKind::AdmittedNowRejected),
            self.count(FlipKind::RejectedNowAdmitted),
            self.count(FlipKind::Rerouted),
        );
        let _ = writeln!(
            out,
            "outcomes: recorded {} -> hypothetical {}",
            self.recorded, self.hypothetical
        );
        if self.restored > 0 {
            let _ = writeln!(
                out,
                "restored {} residents from the snapshot checkpoint before replay",
                self.restored
            );
        }
        let _ = writeln!(
            out,
            "releases: {} applied, {} skipped; rebalances: {} applied, {} failed, \
             {} skipped; {} untracked admissions, {} residents at end",
            self.releases_applied,
            self.releases_skipped,
            self.rebalances_applied,
            self.rebalances_failed,
            self.rebalances_skipped,
            self.untracked_admissions,
            self.residents_at_end,
        );
        if self.resizes_applied + self.resizes_refused + self.resizes_skipped > 0 {
            let _ = writeln!(
                out,
                "resizes: {} applied, {} refused ({} resize-diverged flips), {} skipped",
                self.resizes_applied,
                self.resizes_refused,
                self.count(FlipKind::ResizeDiverged),
                self.resizes_skipped,
            );
        }
        if let Some(policy) = &self.policy {
            let _ = writeln!(
                out,
                "policy under evaluation: {policy} ({} action(s))",
                self.policy_actions.len()
            );
            for decision in &self.policy_actions {
                let _ = writeln!(
                    out,
                    "  after event {:>6}: {} -> {}",
                    decision.after_event, decision.action, decision.outcome
                );
            }
        }
        let _ = writeln!(
            out,
            "{:<12} {:>9} {:>9} {:>10} {:>10}  saturation windows",
            "group", "capacity", "peak", "mean-util", "sat-events"
        );
        for g in &self.groups {
            let windows: Vec<String> = g
                .saturation_windows
                .iter()
                .take(4)
                .map(SaturationWindow::to_string)
                .collect();
            let suffix = if g.saturation_windows.len() > 4 {
                format!(" (+{} more)", g.saturation_windows.len() - 4)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "{:<12} {:>9} {:>9} {:>9.0}% {:>10}  {}{}",
                g.name,
                g.capacity,
                g.peak_residents,
                100.0 * g.mean_utilisation,
                g.saturated_events,
                if windows.is_empty() {
                    "-".to_string()
                } else {
                    windows.join(", ")
                },
                suffix,
            );
        }
        let shown = self.flips.len().min(8);
        for flip in &self.flips[..shown] {
            let _ = writeln!(out, "  FLIP {flip}");
        }
        if self.flips.len() > shown {
            let _ = writeln!(out, "  ... {} more flips", self.flips.len() - shown);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// PlanSweep: many shapes on a worker pool, with a frontier summary.
// ---------------------------------------------------------------------------

/// A grid of hypothetical shapes replayed in parallel (see the
/// [module docs](self)).
pub struct PlanSweep<'a> {
    spec: &'a SystemSpec,
    journal: &'a Journal,
    shapes: Vec<FleetConfig>,
    routing: RouteMode,
    workers: usize,
    flip_budget: u64,
}

impl<'a> PlanSweep<'a> {
    /// An empty sweep over `journal` (recorded for `spec`); add shapes
    /// with [`shape`](Self::shape) / [`shapes`](Self::shapes) or build a
    /// grid with [`grid`](Self::grid).
    pub fn new(spec: &'a SystemSpec, journal: &'a Journal) -> PlanSweep<'a> {
        PlanSweep {
            spec,
            journal,
            shapes: Vec::new(),
            routing: RouteMode::Auto,
            workers: 1,
            flip_budget: 0,
        }
    }

    /// Adds one candidate shape.
    #[must_use]
    pub fn shape(mut self, shape: FleetConfig) -> PlanSweep<'a> {
        self.shapes.push(shape);
        self
    }

    /// Adds many candidate shapes.
    #[must_use]
    pub fn shapes(mut self, shapes: impl IntoIterator<Item = FleetConfig>) -> PlanSweep<'a> {
        self.shapes.extend(shapes);
        self
    }

    /// Worker threads replaying shapes concurrently (each shape runs on
    /// one worker; results are deterministic regardless of worker count).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> PlanSweep<'a> {
        self.workers = workers.max(1);
        self
    }

    /// Regressions ([`FlipKind::AdmittedNowRejected`] flips) a shape may
    /// show and still qualify for the
    /// [`cheapest_within_budget`](SweepReport::cheapest_within_budget)
    /// frontier pick.
    #[must_use]
    pub fn flip_budget(mut self, budget: u64) -> PlanSweep<'a> {
        self.flip_budget = budget;
        self
    }

    /// Overrides the [`RouteMode`] for every run.
    #[must_use]
    pub fn routing(mut self, routing: RouteMode) -> PlanSweep<'a> {
        self.routing = routing;
        self
    }

    /// Cross product of group counts × capacity scales × policies applied
    /// to `base` — the grid `probcon plan --sweep` builds. Empty axes keep
    /// the base value. Duplicate shapes (e.g. from a scale of 1.0 and a
    /// group count equal to the base) are emitted once.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when a group count grows `base` past
    /// [`MAX_FLEET_SHARDS`](crate::fleet::MAX_FLEET_SHARDS).
    pub fn grid(
        base: &FleetConfig,
        group_counts: &[usize],
        capacity_scales: &[f64],
        policies: &[RoutingPolicy],
    ) -> Result<Vec<FleetConfig>, FleetError> {
        let counts: Vec<usize> = if group_counts.is_empty() {
            vec![base.groups.len()]
        } else {
            group_counts.to_vec()
        };
        let scales: Vec<f64> = if capacity_scales.is_empty() {
            vec![1.0]
        } else {
            capacity_scales.to_vec()
        };
        let policies: Vec<RoutingPolicy> = if policies.is_empty() {
            vec![base.policy]
        } else {
            policies.to_vec()
        };
        let mut shapes: Vec<FleetConfig> = Vec::new();
        for &count in &counts {
            for &scale in &scales {
                for &policy in &policies {
                    let mut shape = base.clone().with_group_count(count)?.scale_capacity(scale);
                    shape.policy = policy;
                    if !shapes.contains(&shape) {
                        shapes.push(shape);
                    }
                }
            }
        }
        Ok(shapes)
    }

    /// Replays every shape (in parallel on the worker pool) and summarizes
    /// the frontier. Report order always matches shape insertion order, so
    /// the same grid yields the same report regardless of worker count.
    ///
    /// # Errors
    ///
    /// [`PlanError::Config`] for an empty sweep, [`PlanError::Journal`]
    /// when the journal's entries cannot be read; the first per-shape
    /// [`PlanError`] otherwise.
    pub fn execute(&self) -> Result<SweepReport, PlanError> {
        if self.shapes.is_empty() {
            return Err(PlanError::Config("sweep has no shapes".into()));
        }
        let started = Instant::now();
        // One read of the journal, shared by every worker.
        let checkpoint = self.journal.base_checkpoint();
        let entries = self.journal.try_entries().map_err(PlanError::Journal)?;
        let next = Mutex::new(0usize);
        let results: Mutex<Vec<Option<Result<PlanReport, PlanError>>>> =
            Mutex::new(vec![None; self.shapes.len()]);
        let workers = self.workers.min(self.shapes.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = {
                        let mut next = crate::cache::lock(&next);
                        let index = *next;
                        if index >= self.shapes.len() {
                            return;
                        }
                        *next += 1;
                        index
                    };
                    let result = PlanRun::new(self.spec, self.journal, &self.shapes[index])
                        .with_routing(self.routing)
                        .execute_over(checkpoint.as_ref(), &entries);
                    crate::cache::lock(&results)[index] = Some(result);
                });
            }
        });

        let mut reports = Vec::with_capacity(self.shapes.len());
        for slot in crate::cache::lock(&results).drain(..) {
            reports.push(slot.expect("every sweep slot is filled")?);
        }
        let smallest_clean = frontier_pick(&reports, 0);
        let cheapest_within_budget = frontier_pick(&reports, self.flip_budget);
        Ok(SweepReport {
            reports,
            smallest_clean,
            cheapest_within_budget,
            flip_budget: self.flip_budget,
            workers,
            wall: started.elapsed(),
        })
    }
}

/// Index of the cheapest shape whose regressions fit `budget`: minimal
/// total capacity, then fewest groups, then insertion order — a
/// deterministic pick for a deterministic grid.
fn frontier_pick(reports: &[PlanReport], budget: u64) -> Option<usize> {
    reports
        .iter()
        .enumerate()
        .filter(|(_, r)| r.regressions() as u64 <= budget)
        .min_by_key(|(i, r)| (r.shape.total_capacity(), r.shape.groups.len(), *i))
        .map(|(i, _)| i)
}

/// Result of a [`PlanSweep`]: one report per shape plus the frontier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// One report per candidate shape, in insertion order.
    pub reports: Vec<PlanReport>,
    /// Index (into [`reports`](Self::reports)) of the smallest shape with
    /// zero regressions, if any.
    pub smallest_clean: Option<usize>,
    /// Index of the cheapest shape within the regression budget, if any.
    pub cheapest_within_budget: Option<usize>,
    /// The regression budget the sweep was asked to respect.
    pub flip_budget: u64,
    /// Worker threads actually used.
    pub workers: usize,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
}

impl SweepReport {
    /// The smallest clean shape's report, if any shape qualified.
    pub fn smallest_clean_report(&self) -> Option<&PlanReport> {
        self.smallest_clean.map(|i| &self.reports[i])
    }

    /// Renders the frontier table printed by `probcon plan --sweep`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sweep: {} shapes on {} workers in {:.3?} (regression budget {})",
            self.reports.len(),
            self.workers,
            self.wall,
            self.flip_budget,
        );
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>6} {:>6} {:>6} {:>9} {:>9}  verdict",
            "shape", "capacity", "a->r", "r->a", "rerte", "peak-util", "residents"
        );
        for (i, report) in self.reports.iter().enumerate() {
            let verdict = match (
                Some(i) == self.smallest_clean,
                Some(i) == self.cheapest_within_budget,
                report.is_clean(),
            ) {
                (true, true, _) => "<= frontier (smallest clean, cheapest in budget)",
                (true, false, _) => "<= smallest clean",
                (false, true, _) => "<= cheapest in budget",
                (false, false, true) => "clean",
                (false, false, false) => "regresses",
            };
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>6} {:>6} {:>6} {:>8.0}% {:>9}  {}",
                report.shape.label(),
                report.shape.total_capacity(),
                report.count(FlipKind::AdmittedNowRejected),
                report.count(FlipKind::RejectedNowAdmitted),
                report.count(FlipKind::Rerouted),
                100.0 * report.peak_utilisation(),
                report.residents_at_end,
                verdict,
            );
        }
        match self.smallest_clean_report() {
            Some(report) => {
                let _ = writeln!(
                    out,
                    "frontier: smallest clean shape is {} (capacity {}), serving every \
                     recorded admission",
                    report.shape.label(),
                    report.shape.total_capacity(),
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "frontier: no candidate shape serves every recorded admission"
                );
            }
        }
        if self.cheapest_within_budget != self.smallest_clean {
            if let Some(report) = self.cheapest_within_budget.map(|i| &self.reports[i]) {
                let _ = writeln!(
                    out,
                    "frontier: cheapest within budget is {} (capacity {}, {} regressions)",
                    report.shape.label(),
                    report.shape.total_capacity(),
                    report.regressions(),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{DecisionEvent, JournalHeader};
    use crate::service::{AdmissionRequest, AdmissionService};
    use platform::{Application, Mapping};
    use sdf::{figure2_graphs, Rational};

    fn spec() -> SystemSpec {
        let (a, b) = figure2_graphs();
        SystemSpec::builder()
            .application(Application::new("A", a).unwrap())
            .application(Application::new("B", b).unwrap())
            .mapping(Mapping::by_actor_index(3))
            .build()
            .unwrap()
    }

    fn uniform_shape(groups: usize, capacity: usize, policy: RoutingPolicy) -> FleetConfig {
        FleetConfig::uniform(groups, 1, capacity, policy)
    }

    /// Hand-built journal whose header records `shape`.
    fn journal_for(shape: &FleetConfig, events: Vec<DecisionEvent>) -> Journal {
        let header = JournalHeader {
            policy: shape.policy.to_string(),
            ..JournalHeader::default()
        };
        let journal = Journal::new(FleetManager::stamped_header(shape, header));
        for event in events {
            journal.append(event);
        }
        journal
    }

    fn admit_event(group: u64, app_index: u64, outcome: JournalOutcome) -> DecisionEvent {
        DecisionEvent::Admit {
            group,
            app_index,
            required_throughput: None,
            outcome,
            affinity: None,
        }
    }

    fn admitted(resident: u64) -> JournalOutcome {
        JournalOutcome::Admitted {
            resident,
            // Periods are never verified by the planner; any value works.
            predicted_period: Rational::integer(300),
        }
    }

    #[test]
    fn shape_builder_ops_compose() {
        let base = uniform_shape(2, 4, RoutingPolicy::LeastUtilised);
        assert_eq!(base.total_capacity(), 8);
        assert_eq!(base.label(), "2g×1s×4c least-utilised");

        let scaled = base.clone().scale_capacity(0.5);
        assert_eq!(scaled.total_capacity(), 4);
        // Scaling never erases a group: capacity floors at 1.
        let floored = base.clone().scale_capacity(0.01);
        assert!(floored.groups.iter().all(|g| g.capacity_per_shard == 1));

        let grown = base.clone().with_group_count(4).unwrap();
        assert_eq!(grown.groups.len(), 4);
        assert_eq!(grown.groups[3].name, "group3");
        assert_eq!(grown.groups[3].capacity_per_shard, 4);
        assert_eq!(base.clone().with_group_count(1).unwrap().groups.len(), 1);

        let mut added = base.clone();
        added.groups.push(crate::GroupConfig::new("extra", 2, 3));
        assert_eq!(added.total_capacity(), 14);
        assert!(added.label().contains("3g/14c"));

        // A stamped header decodes back to exactly the shape.
        let header = FleetManager::stamped_header(&added, JournalHeader::default());
        assert_eq!(FleetConfig::from_header(&header), Ok(added));
    }

    #[test]
    fn identity_shape_reports_zero_flips_on_real_journal() {
        let spec = spec();
        let fleet = FleetManager::new(
            spec.clone(),
            FleetConfig::uniform(2, 1, 2, RoutingPolicy::LeastUtilised),
        )
        .unwrap();
        // Real traffic: admits (some denied), releases, a rebalance.
        let admit = |app: usize| fleet.admit(&AdmissionRequest::new(app)).unwrap();
        let first = admit(0).resident().unwrap();
        for app in [1, 0, 1] {
            assert!(admit(app).is_admitted());
        }
        let _denied = admit(0); // saturated
        assert!(fleet.release_resident(first));
        assert!(admit(1).is_admitted());

        let shape = FleetConfig::from_header(fleet.journal().header()).unwrap();
        let report = PlanRun::new(&spec, fleet.journal(), &shape)
            .execute()
            .expect("plans");
        assert_eq!(report.flips, vec![], "identity must not flip");
        assert_eq!(report.routing, "recorded");
        assert_eq!(report.events, fleet.journal().len());
        assert_eq!(report.recorded, report.hypothetical);
        assert_eq!(report.releases_skipped, 0);
        assert_eq!(report.untracked_admissions, 0);
        assert_eq!(report.residents_at_end, fleet.resident_count());
    }

    #[test]
    fn halved_capacity_flips_admissions_to_denied() {
        let shape = uniform_shape(1, 2, RoutingPolicy::LeastUtilised);
        let journal = journal_for(
            &shape,
            vec![
                admit_event(0, 0, admitted(0)),
                admit_event(0, 1, admitted(1)),
                DecisionEvent::Release { resident: 1 },
            ],
        );
        let halved = shape.clone().scale_capacity(0.5);
        let report = PlanRun::new(&spec(), &journal, &halved)
            .execute()
            .expect("plans");
        assert_eq!(report.count(FlipKind::AdmittedNowRejected), 1);
        assert_eq!(report.regressions(), 1);
        assert!(!report.is_clean());
        // The flipped-away resident's release is skipped, not an error.
        assert_eq!(report.releases_skipped, 1);
        assert_eq!(report.releases_applied, 0);
        assert_eq!(report.hypothetical.saturated, 1);
        let rendered = report.render();
        for needle in ["admitted-now-rejected", "FLIP", "group0", "saturation"] {
            assert!(
                rendered.contains(needle),
                "missing {needle} in:\n{rendered}"
            );
        }
    }

    #[test]
    fn doubled_capacity_flips_saturation_to_admitted() {
        let shape = uniform_shape(1, 1, RoutingPolicy::LeastUtilised);
        let journal = journal_for(
            &shape,
            vec![
                admit_event(0, 0, admitted(0)),
                admit_event(0, 1, JournalOutcome::Saturated),
            ],
        );
        let doubled = shape.clone().scale_capacity(2.0);
        let report = PlanRun::new(&spec(), &journal, &doubled)
            .execute()
            .expect("plans");
        assert_eq!(report.count(FlipKind::RejectedNowAdmitted), 1);
        assert!(report.is_clean(), "recovered headroom is not a regression");
        // The recovered admission has no recorded release: it stays live.
        assert_eq!(report.untracked_admissions, 1);
        assert_eq!(report.residents_at_end, 2);
    }

    #[test]
    fn contract_rejection_recovers_on_added_group() {
        let spec = spec();
        // Record reality: on one group of capacity 4, the second admission
        // rejects because the first insists on its isolation throughput.
        let fleet = FleetManager::new(
            spec.clone(),
            FleetConfig::uniform(1, 1, 4, RoutingPolicy::LeastUtilised),
        )
        .unwrap();
        let iso = spec.application(platform::AppId(0)).isolation_throughput();
        let first = fleet
            .admit(&AdmissionRequest::new(0).with_contract(iso))
            .unwrap();
        assert!(first.is_admitted());
        let denied = fleet.admit(&AdmissionRequest::new(1)).unwrap();
        assert!(!denied.is_admitted(), "second admission must reject");

        // What if a second group had existed? Group counts differ, so Auto
        // re-routes: the rejected admission lands alone on the new group.
        let shape = FleetConfig::from_header(fleet.journal().header())
            .unwrap()
            .with_group_count(2)
            .unwrap();
        let report = PlanRun::new(&spec, fleet.journal(), &shape)
            .execute()
            .expect("plans");
        assert_eq!(report.routing, "replanned");
        assert_eq!(report.count(FlipKind::RejectedNowAdmitted), 1);
        assert_eq!(report.regressions(), 0);
    }

    #[test]
    fn reroute_detected_when_group_count_changes() {
        let shape = uniform_shape(2, 2, RoutingPolicy::LeastUtilised);
        // Recorded on group 1; a 3-group hypothetical re-routes by
        // least-utilised, which picks group 0 first.
        let journal = journal_for(&shape, vec![admit_event(1, 0, admitted(0))]);
        let grown = shape.clone().with_group_count(3).unwrap();
        let report = PlanRun::new(&spec(), &journal, &grown)
            .execute()
            .expect("plans");
        assert_eq!(report.count(FlipKind::Rerouted), 1);
        assert_eq!(report.flips[0].kind, FlipKind::Rerouted);
        assert!(report.flips[0].recorded.contains("group 1"));
        assert!(report.flips[0].hypothetical.contains("group 0"));
        assert!(report.is_clean(), "a reroute serves the traffic elsewhere");
    }

    #[test]
    fn route_mode_overrides_auto() {
        let shape = uniform_shape(2, 2, RoutingPolicy::RoundRobin);
        // Two admissions recorded round-robin on groups 0 and 1.
        let journal = journal_for(
            &shape,
            vec![
                admit_event(0, 0, admitted(0)),
                admit_event(1, 1, admitted(1)),
            ],
        );
        // Replan on the identical shape: round-robin re-routes 0, 1 — the
        // same groups — so even forced replanning stays flip-free here.
        let replanned = PlanRun::new(&spec(), &journal, &shape)
            .with_routing(RouteMode::Replan)
            .execute()
            .expect("plans");
        assert_eq!(replanned.routing, "replanned");
        assert_eq!(replanned.flips, vec![]);
        // Recorded mode on a shrunken shape: group 1 is gone, so its
        // admission falls back to policy routing.
        let shrunk = shape.clone().with_group_count(1).unwrap();
        let recorded = PlanRun::new(&spec(), &journal, &shrunk)
            .with_routing(RouteMode::Recorded)
            .execute()
            .expect("plans");
        assert_eq!(recorded.count(FlipKind::Rerouted), 1);
    }

    #[test]
    fn rebalance_counterfactuals_apply_skip_and_fail() {
        let shape = uniform_shape(2, 2, RoutingPolicy::LeastUtilised);
        let journal = journal_for(
            &shape,
            vec![
                admit_event(0, 0, admitted(0)),
                DecisionEvent::Rebalance {
                    resident: 0,
                    from_group: 0,
                    to_group: 1,
                    predicted_period: Rational::integer(300),
                },
                // Rebalance of a resident the counterfactual may not have.
                DecisionEvent::Rebalance {
                    resident: 99,
                    from_group: 0,
                    to_group: 1,
                    predicted_period: Rational::integer(300),
                },
            ],
        );
        // Identity: the real move applies; the bogus resident is skipped.
        let identity = PlanRun::new(&spec(), &journal, &shape)
            .execute()
            .expect("plans");
        assert_eq!(identity.rebalances_applied, 1);
        assert_eq!(identity.rebalances_skipped, 1);
        // One group: the move's target does not exist — skipped as data.
        let single = shape.clone().with_group_count(1).unwrap();
        let report = PlanRun::new(&spec(), &journal, &single)
            .execute()
            .expect("plans");
        assert_eq!(report.rebalances_applied, 0);
        assert_eq!(report.rebalances_skipped, 2);
    }

    #[test]
    fn usage_tracks_peaks_means_and_saturation_windows() {
        let shape = uniform_shape(1, 1, RoutingPolicy::LeastUtilised);
        let journal = journal_for(
            &shape,
            vec![
                admit_event(0, 0, admitted(0)),               // seq 0: full
                admit_event(0, 1, JournalOutcome::Saturated), // seq 1: full
                DecisionEvent::Release { resident: 0 },       // seq 2: empty
                admit_event(0, 0, admitted(1)),               // seq 3: full to end
            ],
        );
        let report = PlanRun::new(&spec(), &journal, &shape)
            .execute()
            .expect("plans");
        let usage = &report.groups[0];
        assert_eq!(usage.capacity, 1);
        assert_eq!(usage.peak_residents, 1);
        assert_eq!(usage.saturated_events, 3);
        assert!((usage.mean_utilisation - 0.75).abs() < 1e-9);
        assert_eq!(
            usage.saturation_windows,
            vec![
                SaturationWindow {
                    from_seq: 0,
                    until_seq: 1
                },
                SaturationWindow {
                    from_seq: 3,
                    until_seq: 3
                },
            ]
        );
    }

    #[test]
    fn sweep_grid_crosses_axes_and_dedupes() {
        let base = uniform_shape(2, 4, RoutingPolicy::LeastUtilised);
        let shapes = PlanSweep::grid(&base, &[1, 2], &[0.5, 1.0], &[]).unwrap();
        assert_eq!(shapes.len(), 4);
        assert!(shapes.contains(&base));
        // Empty axes keep the base.
        assert_eq!(
            PlanSweep::grid(&base, &[], &[], &[]).unwrap(),
            vec![base.clone()]
        );
        // Duplicates collapse: scaling by 1.0 twice is one shape.
        assert_eq!(
            PlanSweep::grid(&base, &[2, 2], &[1.0, 1.0], &[])
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn sweep_finds_frontier_and_is_deterministic_under_workers() {
        let spec = spec();
        let shape = uniform_shape(1, 3, RoutingPolicy::LeastUtilised);
        // Three residents at peak: capacity 3 is the smallest clean shape.
        let journal = journal_for(
            &shape,
            vec![
                admit_event(0, 0, admitted(0)),
                admit_event(0, 1, admitted(1)),
                admit_event(0, 0, admitted(2)),
                DecisionEvent::Release { resident: 0 },
                DecisionEvent::Release { resident: 1 },
                DecisionEvent::Release { resident: 2 },
            ],
        );
        let grid =
            PlanSweep::grid(&shape, &[1], &[1.0 / 3.0, 2.0 / 3.0, 1.0, 4.0 / 3.0], &[]).unwrap();
        assert_eq!(grid.len(), 4);
        let sweep = |workers: usize| {
            PlanSweep::new(&spec, &journal)
                .shapes(grid.clone())
                .workers(workers)
                .flip_budget(1)
                .execute()
                .expect("sweeps")
        };
        let report = sweep(8);
        let clean = report.smallest_clean_report().expect("one shape is clean");
        assert_eq!(clean.shape.total_capacity(), 3);
        // Budget 1 admits the capacity-2 shape (exactly one regression).
        let cheap = &report.reports[report.cheapest_within_budget.unwrap()];
        assert_eq!(cheap.shape.total_capacity(), 2);
        assert_eq!(cheap.regressions(), 1);
        // Same grid, different worker counts: identical reports + frontier.
        for workers in [1, 3, 8] {
            let again = sweep(workers);
            assert_eq!(again.reports, report.reports);
            assert_eq!(again.smallest_clean, report.smallest_clean);
            assert_eq!(again.cheapest_within_budget, report.cheapest_within_budget);
        }
        let rendered = report.render();
        for needle in ["frontier", "smallest clean", "cheapest", "verdict", "a->r"] {
            assert!(
                rendered.contains(needle),
                "missing {needle} in:\n{rendered}"
            );
        }
    }

    #[test]
    fn empty_sweep_and_empty_shape_are_config_errors() {
        let spec = spec();
        let journal = Journal::new(JournalHeader::default());
        assert!(matches!(
            PlanSweep::new(&spec, &journal).execute(),
            Err(PlanError::Config(_))
        ));
        let empty = FleetConfig {
            groups: Vec::new(),
            policy: RoutingPolicy::LeastUtilised,
        };
        assert!(matches!(
            PlanRun::new(&spec, &journal, &empty).execute(),
            Err(PlanError::Fleet(FleetError::Config(_)))
        ));
    }

    #[test]
    fn report_serializes_to_json() {
        let shape = uniform_shape(1, 2, RoutingPolicy::LeastUtilised);
        let journal = journal_for(&shape, vec![admit_event(0, 0, admitted(0))]);
        let report = PlanRun::new(&spec(), &journal, &shape)
            .execute()
            .expect("plans");
        let json = serde_json::to_string(&report).expect("serializes");
        for needle in ["\"shape\"", "\"flips\"", "\"mean_utilisation\"", "group0"] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        let back: PlanReport = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back, report);
    }
}
