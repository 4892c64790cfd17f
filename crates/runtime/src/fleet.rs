//! Multi-platform fleet management: routing, rebalancing, journaling.
//!
//! A [`FleetManager`] serves admissions for **one workload spec across many
//! named platform groups** — heterogeneous node groups, each a set of
//! admission shards (one [`contention::AdmissionController`] per shard,
//! behind its own lock) with its own capacity. Requests are routed by a
//! pluggable [`RoutingPolicy`] (least-utilised, round-robin,
//! affinity-by-use-case), residents can be [moved](FleetManager::move_resident)
//! between groups by a [`rebalance`](FleetManager::rebalance) pass, and
//! every admit/reject/release/rebalance decision is appended to the fleet's
//! [`Journal`] with its predicted period — the audit trail that
//! [`JournalReplayer`](crate::JournalReplayer) re-executes to verify
//! outcome-for-outcome equivalence.
//!
//! Admissions go through the fleet's
//! [`AdmissionService`](crate::AdmissionService) implementation and are
//! **non-blocking**: a full group answers
//! [`AdmissionDecision::Saturated`] immediately instead of queueing, which
//! keeps every decision a pure function of the group's resident mix at its
//! journal position — the property deterministic replay rests on. A caller
//! that wants to wait for capacity retries; nothing queues decisions.
//!
//! # Example
//!
//! ```
//! use platform::{Application, Mapping, SystemSpec};
//! use runtime::{AdmissionRequest, AdmissionService, FleetConfig, FleetManager, RoutingPolicy};
//! use sdf::figure2_graphs;
//!
//! let (a, b) = figure2_graphs();
//! let spec = SystemSpec::builder()
//!     .application(Application::new("A", a)?)
//!     .application(Application::new("B", b)?)
//!     .mapping(Mapping::by_actor_index(3))
//!     .build()?;
//!
//! let fleet = FleetManager::new(
//!     spec,
//!     FleetConfig::uniform(2, 1, 4, RoutingPolicy::LeastUtilised),
//! )?;
//!
//! // Admissions spread across the emptier group; every decision lands in
//! // the journal.
//! let first = fleet.admit(&AdmissionRequest::new(0))?;
//! let second = fleet.admit(&AdmissionRequest::new(1))?;
//! assert!(first.is_admitted() && second.is_admitted());
//! assert_ne!(first.domain(), second.domain());
//! assert_eq!(fleet.resident_count(), 2);
//! assert_eq!(fleet.journal().len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cache::lock;
use crate::journal::{
    DecisionEvent, Journal, JournalError, JournalHeader, JournalOutcome, ScaleAction, ScaleOutcome,
    ScaleRefusal,
};
use crate::service::AdmissionDecision;
use crate::telemetry::TraceRecorder;
use crate::wal::{CheckpointGroup, CheckpointResident, FleetCheckpoint};
use contention::{AdmissionController, ContentionError, Decision, KernelCounters, Violation};
use platform::{AppId, Application, NodeId, SystemSpec};
use sdf::Rational;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// How the fleet picks a group for an incoming admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Route to the group with the lowest resident/capacity ratio
    /// (deterministic: ties break toward the lowest group index; default).
    #[default]
    LeastUtilised,
    /// Rotate through groups in index order.
    RoundRobin,
    /// Route to the least-utilised group advertising the request's affinity
    /// tag (a use-case class); requests without a tag — or tags no group
    /// advertises — fall back to least-utilised over all groups.
    Affinity,
}

impl fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingPolicy::LeastUtilised => write!(f, "least-utilised"),
            RoutingPolicy::RoundRobin => write!(f, "round-robin"),
            RoutingPolicy::Affinity => write!(f, "affinity"),
        }
    }
}

impl FromStr for RoutingPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<RoutingPolicy, String> {
        match s {
            "least-utilised" | "least-utilized" => Ok(RoutingPolicy::LeastUtilised),
            "round-robin" => Ok(RoutingPolicy::RoundRobin),
            "affinity" => Ok(RoutingPolicy::Affinity),
            other => Err(format!("unknown routing policy '{other}'")),
        }
    }
}

/// A policy is written as its [`Display`](fmt::Display) name and read back
/// through [`FromStr`], so an unknown name fails to decode.
impl Serialize for RoutingPolicy {
    fn serialize<S: serde::Serializer>(&self, s: &mut S) {
        s.str(&self.to_string());
    }
}

impl Deserialize for RoutingPolicy {
    fn deserialize<'de, D: serde::Deserializer<'de>>(d: &mut D) -> Result<Self, serde::Error> {
        String::deserialize(d)?.parse().map_err(serde::Error)
    }
}

/// The most admission controllers one fleet allocates: one per shard,
/// summed over its groups. Far above every shape this repository builds; a
/// journal header, an `AddGroup` action, a checkpoint's added group or a
/// CLI flag asking for more is refused before anything is allocated.
pub const MAX_FLEET_SHARDS: usize = 4096;

/// The one size check: refuses a fleet of `controllers` admission
/// controllers above [`MAX_FLEET_SHARDS`].
fn check_shards(controllers: u128) -> Result<(), FleetError> {
    if controllers > MAX_FLEET_SHARDS as u128 {
        return Err(FleetError::Config(format!(
            "the fleet would allocate {controllers} admission controllers (shards over all \
             groups), above the cap of {MAX_FLEET_SHARDS}"
        )));
    }
    Ok(())
}

/// The one shape check, run wherever groups enter a fleet: refuses a group
/// of no shards or no capacity in `groups`, then runs [`check_shards`] over
/// their shards plus `others` controllers allocated besides them.
fn check_groups<'g>(
    others: u128,
    groups: impl IntoIterator<Item = &'g GroupConfig>,
) -> Result<(), FleetError> {
    let mut controllers = others;
    for group in groups {
        if group.shards == 0 || group.capacity_per_shard == 0 {
            return Err(FleetError::Config(format!(
                "group {} has {} shard(s) of capacity {}: a group needs at least one shard \
                 and a capacity of at least 1",
                group.name, group.shards, group.capacity_per_shard
            )));
        }
        controllers += group.shards as u128;
    }
    check_shards(controllers)
}

/// The error for a `Grow`/`Shrink` or a checkpoint override that moves
/// group `group` to a capacity of 0 per shard — the rule
/// [`check_groups`] applies to a whole group.
fn no_capacity(group: u64) -> FleetError {
    FleetError::Config(format!(
        "group {group} moved to a capacity of 0 per shard: a group needs a capacity of at least 1"
    ))
}

/// One named platform group: an independent sharded admission domain.
///
/// The same value is the group's recorded shape: a journal header's
/// `group_shapes`, an `AddGroup` action and a checkpoint's added group
/// carry it field for field, and decode it verbatim (a fleet refuses a
/// recorded group of no shards or no capacity).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupConfig {
    /// Group name (for metrics and rendering).
    pub name: String,
    /// Admission shards inside the group.
    pub shards: usize,
    /// Resident capacity per shard.
    pub capacity_per_shard: usize,
    /// Affinity tags this group advertises (use-case classes it prefers to
    /// host); consulted by [`RoutingPolicy::Affinity`].
    pub tags: Vec<String>,
}

impl GroupConfig {
    /// Group with the given shape and no affinity tags.
    pub fn new(name: impl Into<String>, shards: usize, capacity_per_shard: usize) -> GroupConfig {
        GroupConfig {
            name: name.into(),
            shards: shards.max(1),
            capacity_per_shard: capacity_per_shard.max(1),
            tags: Vec::new(),
        }
    }

    /// Group `i` of a uniform fleet: named `group{i}`, advertising the one
    /// affinity tag `uc{i}`.
    fn numbered(i: usize, shards: usize, capacity_per_shard: usize) -> GroupConfig {
        GroupConfig {
            name: format!("group{i}"),
            shards,
            capacity_per_shard,
            tags: vec![format!("uc{i}")],
        }
    }

    /// Adds affinity tags.
    #[must_use]
    pub fn with_tags(mut self, tags: impl IntoIterator<Item = impl Into<String>>) -> GroupConfig {
        self.tags.extend(tags.into_iter().map(Into::into));
        self
    }

    /// Total resident capacity of the group.
    pub fn capacity(&self) -> usize {
        self.shards * self.capacity_per_shard
    }
}

/// Configuration of a [`FleetManager`] — and the fleet shape the capacity
/// planner ([`PlanRun`](crate::PlanRun)) replays a journal against.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// The platform groups (≥ 1).
    pub groups: Vec<GroupConfig>,
    /// Routing policy for admissions that name no target group.
    pub policy: RoutingPolicy,
}

impl FleetConfig {
    /// Homogeneous fleet: `groups` identical groups named `group0..` with
    /// one affinity tag `uc{i}` each — the shape `probcon fleet-bench`
    /// records into journal headers and `probcon replay` rebuilds.
    pub fn uniform(
        groups: usize,
        shards: usize,
        capacity_per_shard: usize,
        policy: RoutingPolicy,
    ) -> FleetConfig {
        FleetConfig {
            groups: (0..groups.max(1))
                .map(|i| GroupConfig::numbered(i, shards.max(1), capacity_per_shard.max(1)))
                .collect(),
            policy,
        }
    }

    /// Rebuilds the fleet shape recorded in a journal header: the exact
    /// per-group shapes when present (every [`FleetManager`] stamps them,
    /// heterogeneous fleets included), falling back to the uniform summary
    /// fields otherwise.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when the header's policy string is unknown,
    /// when a recorded group has no shards or no capacity, or when its
    /// shape exceeds [`MAX_FLEET_SHARDS`] (checked before any group is
    /// listed).
    pub fn from_header(header: &JournalHeader) -> Result<FleetConfig, FleetError> {
        let policy = header
            .policy
            .parse::<RoutingPolicy>()
            .map_err(FleetError::Config)?;
        if header.group_shapes.is_empty() {
            check_shards(
                u128::from(header.groups.max(1)) * u128::from(header.shards_per_group.max(1)),
            )?;
            return Ok(FleetConfig::uniform(
                header.groups as usize,
                header.shards_per_group as usize,
                header.capacity_per_shard as usize,
                policy,
            ));
        }
        check_groups(0, &header.group_shapes)?;
        Ok(FleetConfig {
            groups: header.group_shapes.clone(),
            policy,
        })
    }

    /// Scales every group's per-shard capacity by `factor` (rounded to the
    /// nearest integer, floored at 1 — a group never vanishes by scaling).
    ///
    /// Two limits of what a scaled shape measures in a plan:
    /// - a recorded absolute `Grow`/`Shrink`, or a snapshot checkpoint's
    ///   capacities, replaces the scaled capacity of its group once
    ///   applied, so on a resized journal the capacity axis measures
    ///   little beyond the stretch before the first resize;
    /// - a recorded rejection that the scaled shape admits stays resident
    ///   until the journal ends (nothing recorded releases it), so a larger
    ///   shape can report more regressions than a smaller one — a sweep's
    ///   frontier is not monotone in capacity.
    #[must_use]
    pub fn scale_capacity(mut self, factor: f64) -> FleetConfig {
        for group in &mut self.groups {
            let scaled = (group.capacity_per_shard as f64 * factor).round();
            group.capacity_per_shard = if scaled < 1.0 { 1 } else { scaled as usize };
        }
        self
    }

    /// Grows or shrinks to exactly `count` groups: extra groups are
    /// truncated from the end; missing ones clone the last group's shards
    /// and capacity under [`uniform`](Self::uniform)'s `group{i}` / `uc{i}`
    /// names.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when a group has no shards or no capacity,
    /// or the grown fleet would exceed [`MAX_FLEET_SHARDS`] (checked before
    /// any group is added).
    pub fn with_group_count(mut self, count: usize) -> Result<FleetConfig, FleetError> {
        let count = count.max(1);
        self.groups.truncate(count);
        let (shards, capacity) = self
            .groups
            .last()
            .map_or((1, 1), |g| (g.shards, g.capacity_per_shard));
        let missing = count - self.groups.len();
        check_groups(missing as u128 * shards as u128, &self.groups)?;
        for i in self.groups.len()..count {
            self.groups.push(GroupConfig::numbered(i, shards, capacity));
        }
        Ok(self)
    }

    /// Total resident capacity across all groups — the "cost" axis a plan
    /// sweep's frontier minimizes.
    pub fn total_capacity(&self) -> usize {
        self.groups.iter().map(GroupConfig::capacity).sum()
    }

    /// `true` when this fleet routes like `other` (same group count and
    /// policy), which lets a plan run reuse the recorded routing instead of
    /// re-deciding it — see [`RouteMode::Auto`](crate::RouteMode::Auto).
    pub fn routes_like(&self, other: &FleetConfig) -> bool {
        self.groups.len() == other.groups.len() && self.policy == other.policy
    }

    /// Compact display label, e.g. `3g×1s×4c least-utilised` for uniform
    /// shapes or `3g/14c affinity` for heterogeneous ones.
    pub fn label(&self) -> String {
        let uniform = self.groups.windows(2).all(|w| {
            w[0].shards == w[1].shards && w[0].capacity_per_shard == w[1].capacity_per_shard
        });
        match (uniform, self.groups.first()) {
            (true, Some(first)) => format!(
                "{}g×{}s×{}c {}",
                self.groups.len(),
                first.shards,
                first.capacity_per_shard,
                self.policy
            ),
            _ => format!(
                "{}g/{}c {}",
                self.groups.len(),
                self.total_capacity(),
                self.policy
            ),
        }
    }
}

impl fmt::Display for FleetConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig::uniform(2, 2, 8, RoutingPolicy::LeastUtilised)
    }
}

/// Why a fleet operation failed outright (as opposed to deciding a
/// rejection or saturation — see [`AdmissionDecision`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The configuration is unusable (no groups, unknown policy name, …).
    Config(String),
    /// A group index was out of range.
    UnknownGroup(usize),
    /// A resident id is not (or no longer) live.
    UnknownResident(u64),
    /// A move targeted the group the resident already lives on.
    SameGroup {
        /// The resident's current (and requested) group.
        group: usize,
    },
    /// A move failed because the target group was full.
    MoveSaturated {
        /// The full target group.
        to: usize,
    },
    /// A move failed because throughput contracts on the target group would
    /// be violated.
    MoveRejected {
        /// The rejecting target group.
        to: usize,
        /// Number of violated requirements.
        violations: usize,
    },
    /// The fleet was [stopped](FleetManager::stop) before a decision was
    /// made.
    Stopped,
    /// The contention analysis failed; no decision was made (see the
    /// admission module's rejection-versus-error contract).
    Analysis(ContentionError),
    /// A checkpointed resident could not be restored into the fleet —
    /// the shape differs from the recording, or the snapshot is stale.
    Restore {
        /// The resident that failed to restore.
        resident: u64,
        /// Why the restore failed.
        reason: String,
    },
    /// The journal a replay re-executes could not be read.
    Journal(JournalError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Config(e) => write!(f, "invalid fleet configuration: {e}"),
            FleetError::UnknownGroup(g) => write!(f, "group {g} out of range"),
            FleetError::UnknownResident(r) => write!(f, "resident #{r} is not live"),
            FleetError::SameGroup { group } => {
                write!(f, "resident already lives on group {group}")
            }
            FleetError::MoveSaturated { to } => write!(f, "target group {to} is full"),
            FleetError::MoveRejected { to, violations } => {
                write!(
                    f,
                    "target group {to} rejected the move ({violations} violations)"
                )
            }
            FleetError::Stopped => write!(f, "fleet is stopped"),
            FleetError::Analysis(e) => write!(f, "analysis failure: {e}"),
            FleetError::Restore { resident, reason } => {
                write!(f, "cannot restore resident #{resident}: {reason}")
            }
            FleetError::Journal(e) => write!(f, "cannot read the journal: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Analysis(e) => Some(e),
            FleetError::Journal(e) => Some(e),
            _ => None,
        }
    }
}

/// A live resident held by the fleet, and where it lives: the shard of
/// its group and the id that shard's controller gave it.
struct ResidentEntry {
    group: usize,
    shard: usize,
    app: AppId,
    app_index: usize,
    required_throughput: Option<Rational>,
}

/// Per-group lock-free outcome counters.
#[derive(Debug, Default)]
struct GroupCounters {
    admitted: AtomicU64,
    rejected: AtomicU64,
    saturated: AtomicU64,
}

/// What one shard decided for one admission.
enum ShardDecision {
    /// Admitted on `shard` under the controller-assigned `app` id.
    Admitted {
        shard: usize,
        app: AppId,
        predicted_period: Rational,
    },
    /// Rejected by throughput contracts; nothing changed.
    Rejected(Vec<Violation>),
    /// The shard was at capacity; the controller never ran.
    Full,
}

struct GroupRuntime {
    config: GroupConfig,
    /// One admission controller per shard, each behind its own lock, so
    /// the shards of a group decide in parallel.
    shards: Vec<Mutex<AdmissionController>>,
    /// Live per-shard capacity: starts at `config.capacity_per_shard` and
    /// moves with elastic grow/shrink. Decisions read it at decision time,
    /// so a shrink evicts nobody — an over-full shard refuses admissions
    /// until it drains below the new bound.
    capacity_per_shard: AtomicUsize,
    /// Serializes decision + journal append, so the journal order is a
    /// valid serialization of this group's decision order.
    order: Mutex<()>,
    counters: GroupCounters,
    /// `true` once a drain retired the group: it keeps its index (journal
    /// replay needs stable indices) but takes no new admissions and is
    /// skipped by routing, rebalancing and capacity sums.
    retired: AtomicBool,
}

impl GroupRuntime {
    fn from_config(config: GroupConfig) -> GroupRuntime {
        GroupRuntime {
            shards: (0..config.shards)
                .map(|_| Mutex::new(AdmissionController::new()))
                .collect(),
            capacity_per_shard: AtomicUsize::new(config.capacity_per_shard),
            config,
            order: Mutex::new(()),
            counters: GroupCounters::default(),
            retired: AtomicBool::new(false),
        }
    }

    fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }

    /// Live total capacity (elastic resizes move it; 0 once retired).
    fn capacity(&self) -> usize {
        if self.is_retired() {
            0
        } else {
            self.shards.len() * self.capacity_per_shard()
        }
    }

    fn capacity_per_shard(&self) -> usize {
        self.capacity_per_shard.load(Ordering::Acquire)
    }

    /// Moves the per-shard capacity to `capacity`.
    fn set_capacity_per_shard(&self, capacity: usize) {
        self.capacity_per_shard.store(capacity, Ordering::Release);
    }

    /// The shard hosting application `app_index`. It must be a pure
    /// function of journal-visible data so replay rebuilds the same
    /// per-shard mixes; one RNG step spreads sequential indices.
    fn shard_for(&self, app_index: usize) -> usize {
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        StdRng::seed_from_u64(app_index as u64).next_u64() as usize % self.shards.len()
    }

    /// Resident count of every shard, in shard order.
    fn shard_occupancy(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| lock(s).resident_count())
            .collect()
    }

    /// Live residents across the group's shards (mid-move duplicates
    /// included).
    fn resident_count(&self) -> usize {
        self.shards.iter().map(|s| lock(s).resident_count()).sum()
    }

    /// Decides one admission of `app` (an instance of the spec's
    /// application `app_index`) on its shard without waiting: a shard at
    /// capacity answers [`ShardDecision::Full`] before the analysis runs.
    /// The controller's [`decide`](AdmissionController::decide) analyses
    /// only the candidate and the shard's contract holders.
    fn decide(
        &self,
        app_index: usize,
        app: Application,
        assignment: &[NodeId],
        required_throughput: Option<Rational>,
    ) -> Result<ShardDecision, ContentionError> {
        let shard = self.shard_for(app_index);
        let mut ctrl = lock(&self.shards[shard]);
        if ctrl.resident_count() >= self.capacity_per_shard() {
            return Ok(ShardDecision::Full);
        }
        Ok(match ctrl.decide(app, assignment, required_throughput)? {
            Decision::Admitted {
                id,
                predicted_period,
            } => ShardDecision::Admitted {
                shard,
                app: id,
                predicted_period,
            },
            Decision::Rejected { violations } => ShardDecision::Rejected(violations),
        })
    }

    /// Removes a resident from the shard that admitted it.
    fn release(&self, shard: usize, app: AppId) {
        // The id came from this shard's controller and each resident is
        // released once, so the removal cannot miss.
        let _ = lock(&self.shards[shard]).remove(app);
    }
}

/// Every resident a [`FleetManager::restore`] re-admitted, in admission
/// order, with its result.
pub type Restored<'c> = Vec<(&'c CheckpointResident, Result<(), FleetError>)>;

/// Checks `added`'s shape, and that adding it keeps a fleet of `groups`
/// within [`MAX_FLEET_SHARDS`].
fn check_added(groups: &[Arc<GroupRuntime>], added: &GroupConfig) -> Result<(), FleetError> {
    let live: u128 = groups.iter().map(|g| g.shards.len() as u128).sum();
    check_groups(live, [added])
}

struct FleetInner {
    spec: SystemSpec,
    groups: RwLock<Vec<Arc<GroupRuntime>>>,
    policy: RoutingPolicy,
    round_robin: AtomicUsize,
    next_resident: AtomicU64,
    residents: Mutex<BTreeMap<u64, ResidentEntry>>,
    journal: Journal,
    released: AtomicU64,
    rebalances: AtomicU64,
    resizes: AtomicU64,
    resize_refusals: AtomicU64,
    /// Set by [`FleetManager::stop`]: decisions fail, releases still work.
    stopped: AtomicBool,
    /// Optional flight recorder for fleet-level decision spans
    /// (see [`FleetManager::attach_trace`]).
    trace: OnceLock<Arc<TraceRecorder>>,
}

impl FleetInner {
    /// Point-in-time view of the group list (cheap `Arc` clones). Groups
    /// are never removed — a drain retires in place — so indices in the
    /// returned vector are fleet group indices.
    fn groups_snapshot(&self) -> Vec<Arc<GroupRuntime>> {
        self.groups
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    fn group(&self, index: usize) -> Result<Arc<GroupRuntime>, FleetError> {
        self.groups
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(index)
            .cloned()
            .ok_or(FleetError::UnknownGroup(index))
    }
}

/// Thread-safe multi-platform fleet manager (see the [module docs](self)).
#[derive(Clone)]
pub struct FleetManager {
    inner: Arc<FleetInner>,
}

impl fmt::Debug for FleetManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetManager")
            .field("groups", &self.group_count())
            .field("policy", &self.inner.policy)
            .field("residents", &self.resident_count())
            .finish_non_exhaustive()
    }
}

impl FleetManager {
    /// Fleet over `spec` with the given group layout, journaling into a
    /// header derived from the configuration (workload fields zeroed; use
    /// [`with_header`](Self::with_header) to stamp them).
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when `config.groups` is empty.
    pub fn new(spec: SystemSpec, config: FleetConfig) -> Result<FleetManager, FleetError> {
        let first = config
            .groups
            .first()
            .ok_or_else(|| FleetError::Config("fleet needs at least one group".into()))?;
        let header = JournalHeader {
            groups: config.groups.len() as u64,
            shards_per_group: first.shards as u64,
            capacity_per_shard: first.capacity_per_shard as u64,
            policy: config.policy.to_string(),
            ..JournalHeader::default()
        };
        FleetManager::with_header(spec, config, header)
    }

    /// [`new`](Self::new) with an explicit journal header, consumed by
    /// `probcon replay`. The fleet stamps its actual per-group shapes into
    /// the header (overwriting whatever the caller left there), so the
    /// recorded journal always replays against the true fleet layout —
    /// heterogeneous groups included.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when `config.groups` is empty.
    pub fn with_header(
        spec: SystemSpec,
        config: FleetConfig,
        header: JournalHeader,
    ) -> Result<FleetManager, FleetError> {
        let header = FleetManager::stamped_header(&config, header);
        FleetManager::with_journal(spec, config, Journal::new(header))
    }

    /// Stamps the fleet's actual per-group shapes from `config` into
    /// `header` — the header a journal for this fleet must carry so
    /// recorded decisions replay against the true layout. Used by callers
    /// creating a WAL-backed journal up front (the WAL persists its header
    /// in the manifest at creation time).
    pub fn stamped_header(config: &FleetConfig, mut header: JournalHeader) -> JournalHeader {
        header.group_shapes = config.groups.clone();
        header
    }

    /// [`with_header`](Self::with_header) with an explicit journal — how a
    /// fleet records into a durable WAL-backed [`Journal`] instead of a
    /// fresh in-memory one. The journal's header must already carry the
    /// fleet's shapes (see [`stamped_header`](Self::stamped_header));
    /// decisions append to the journal exactly as recorded, continuing its
    /// existing sequence numbering. Restoring the resident state a
    /// non-empty journal describes is [`recover`](Self::recover)'s job.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when `config.groups` is empty, holds a group
    /// of no shards or no capacity, or exceeds [`MAX_FLEET_SHARDS`].
    pub fn with_journal(
        spec: SystemSpec,
        config: FleetConfig,
        journal: Journal,
    ) -> Result<FleetManager, FleetError> {
        if config.groups.is_empty() {
            return Err(FleetError::Config("fleet needs at least one group".into()));
        }
        check_groups(0, &config.groups)?;
        let groups = config
            .groups
            .into_iter()
            .map(|group| Arc::new(GroupRuntime::from_config(group)))
            .collect();
        Ok(FleetManager {
            inner: Arc::new(FleetInner {
                spec,
                groups: RwLock::new(groups),
                policy: config.policy,
                round_robin: AtomicUsize::new(0),
                next_resident: AtomicU64::new(0),
                residents: Mutex::new(BTreeMap::new()),
                journal,
                released: AtomicU64::new(0),
                rebalances: AtomicU64::new(0),
                resizes: AtomicU64::new(0),
                resize_refusals: AtomicU64::new(0),
                stopped: AtomicBool::new(false),
                trace: OnceLock::new(),
            }),
        })
    }

    /// Attaches a flight recorder: service admissions decided while a
    /// [`SpanScope`](crate::SpanScope) is active are recorded as
    /// [`TraceKind::FleetAdmit`](crate::TraceKind) spans — the innermost
    /// link of a request's span tree. Attach the recorder of the stack's
    /// outer [`Traced`](crate::Traced) layer; the first attachment wins.
    pub fn attach_trace(&self, recorder: Arc<TraceRecorder>) {
        let _ = self.inner.trace.set(recorder);
    }

    /// The attached flight recorder, if any.
    pub(crate) fn attached_trace(&self) -> Option<&Arc<TraceRecorder>> {
        self.inner.trace.get()
    }

    /// The workload spec admissions draw applications from.
    pub fn spec(&self) -> &SystemSpec {
        &self.inner.spec
    }

    /// Number of platform groups, retired ones included (group indices are
    /// stable for the fleet's lifetime; see
    /// [`group_retired`](Self::group_retired)).
    pub fn group_count(&self) -> usize {
        self.inner
            .groups
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// `true` when the group was drained and retired.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownGroup`] if out of range.
    pub fn group_retired(&self, group: usize) -> Result<bool, FleetError> {
        Ok(self.group(group)?.is_retired())
    }

    /// Name of a group.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownGroup`] if out of range.
    pub fn group_name(&self, group: usize) -> Result<String, FleetError> {
        Ok(self.group(group)?.config.name.clone())
    }

    /// The routing policy in effect.
    pub fn policy(&self) -> RoutingPolicy {
        self.inner.policy
    }

    /// The fleet's decision journal.
    pub fn journal(&self) -> &Journal {
        &self.inner.journal
    }

    /// Live residents across the whole fleet.
    pub fn resident_count(&self) -> usize {
        lock(&self.inner.residents).len()
    }

    /// Live residents on one group, counted on its shards (so a resident
    /// mid-move briefly counts on both groups).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownGroup`] if out of range.
    pub fn resident_count_of(&self, group: usize) -> Result<usize, FleetError> {
        Ok(self.group(group)?.resident_count())
    }

    /// Group a live resident currently lives on (rebalancing moves it).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownResident`] if not (or no longer) live.
    pub fn group_of(&self, resident: u64) -> Result<usize, FleetError> {
        lock(&self.inner.residents)
            .get(&resident)
            .map(|entry| entry.group)
            .ok_or(FleetError::UnknownResident(resident))
    }

    /// Total resident capacity of the fleet (active groups only; retired
    /// groups contribute nothing).
    pub fn capacity(&self) -> usize {
        self.inner
            .groups_snapshot()
            .iter()
            .map(|g| g.capacity())
            .sum()
    }

    /// Resident capacity of one group (its live, possibly resized value;
    /// 0 once retired).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownGroup`] if out of range.
    pub fn capacity_of(&self, group: usize) -> Result<usize, FleetError> {
        Ok(self.group(group)?.capacity())
    }

    /// Current shape of one group: the configured name/shards/tags with
    /// the **live** per-shard capacity (elastic resizes move it away from
    /// the configured value). The autoscaler clones this to size
    /// `AddGroup` actions.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownGroup`] if out of range.
    pub fn group_shape(&self, group: usize) -> Result<GroupConfig, FleetError> {
        let g = self.group(group)?;
        let mut shape = g.config.clone();
        shape.shards = g.shards.len();
        shape.capacity_per_shard = g.capacity_per_shard();
        Ok(shape)
    }

    /// The group the routing policy would pick for `affinity` right now.
    /// Retired groups are never picked.
    pub fn route(&self, affinity: Option<&str>) -> usize {
        let groups = self.inner.groups_snapshot();
        match self.inner.policy {
            RoutingPolicy::RoundRobin => {
                // Rotate, skipping retired slots (bounded: at least one
                // group is always active).
                for _ in 0..groups.len().max(1) {
                    let i = self.inner.round_robin.fetch_add(1, Ordering::Relaxed) % groups.len();
                    if !groups[i].is_retired() {
                        return i;
                    }
                }
                least_utilised(&groups, |_| true)
            }
            RoutingPolicy::LeastUtilised => least_utilised(&groups, |_| true),
            RoutingPolicy::Affinity => match affinity {
                Some(tag)
                    if groups
                        .iter()
                        .any(|g| !g.is_retired() && g.config.tags.iter().any(|t| t == tag)) =>
                {
                    least_utilised(&groups, |g| g.config.tags.iter().any(|t| t == tag))
                }
                _ => least_utilised(&groups, |_| true),
            },
        }
    }

    /// Decides one admission of the spec's application `app_index` on
    /// `group` without waiting — the body of the fleet's
    /// [`AdmissionService::admit`](crate::AdmissionService::admit), whose
    /// router picks `group` when the request names none. Whatever the
    /// decision, it is journaled with `affinity`: the tag does not steer
    /// this decision (`group` does), but re-routed replays
    /// (`RouteMode::Replan`) re-run the affinity policy from it.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownGroup`] / [`FleetError::Stopped`] /
    /// [`FleetError::Analysis`]; nothing is journaled.
    pub(crate) fn admit_on(
        &self,
        group: usize,
        app_index: usize,
        required_throughput: Option<Rational>,
        affinity: Option<&str>,
    ) -> Result<AdmissionDecision, FleetError> {
        let g = self.group(group)?;
        let app_index = app_index % self.inner.spec.application_count();
        let _order = lock(&g.order);
        match self.decide(&g, app_index, required_throughput)? {
            ShardDecision::Admitted {
                shard,
                app,
                predicted_period,
            } => {
                let resident = self.inner.next_resident.fetch_add(1, Ordering::Relaxed);
                self.inner.journal.append(DecisionEvent::Admit {
                    group: group as u64,
                    app_index: app_index as u64,
                    required_throughput,
                    outcome: JournalOutcome::Admitted {
                        resident,
                        predicted_period,
                    },
                    affinity: affinity.map(str::to_string),
                });
                lock(&self.inner.residents).insert(
                    resident,
                    ResidentEntry {
                        group,
                        shard,
                        app,
                        app_index,
                        required_throughput,
                    },
                );
                g.counters.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(AdmissionDecision::Admitted {
                    resident,
                    domain: group,
                    predicted_period,
                })
            }
            ShardDecision::Rejected(violations) => {
                g.counters.rejected.fetch_add(1, Ordering::Relaxed);
                self.inner.journal.append(DecisionEvent::Admit {
                    group: group as u64,
                    app_index: app_index as u64,
                    required_throughput,
                    outcome: JournalOutcome::Rejected {
                        violations: violations.len() as u64,
                    },
                    affinity: affinity.map(str::to_string),
                });
                Ok(AdmissionDecision::Rejected {
                    domain: group,
                    violations,
                })
            }
            ShardDecision::Full => {
                g.counters.saturated.fetch_add(1, Ordering::Relaxed);
                self.inner.journal.append(DecisionEvent::Admit {
                    group: group as u64,
                    app_index: app_index as u64,
                    required_throughput,
                    outcome: JournalOutcome::Saturated,
                    affinity: affinity.map(str::to_string),
                });
                Ok(AdmissionDecision::Saturated { domain: group })
            }
        }
    }

    /// Decides one admission of the spec's application `app_index`
    /// (already reduced modulo the app count) on group `g`, without
    /// waiting. A stopped fleet refuses before capacity is checked.
    fn decide(
        &self,
        g: &GroupRuntime,
        app_index: usize,
        required_throughput: Option<Rational>,
    ) -> Result<ShardDecision, FleetError> {
        if self.inner.stopped.load(Ordering::Acquire) {
            return Err(FleetError::Stopped);
        }
        let (app, assignment) = self.instantiate(app_index);
        g.decide(app_index, app, &assignment, required_throughput)
            .map_err(FleetError::Analysis)
    }

    /// Points a live resident at its new placement (`group`, `shard`,
    /// controller id `app`) and returns its old `(shard, app)`, for the
    /// caller to free on the source group.
    fn relocate(
        &self,
        resident: u64,
        group: usize,
        shard: usize,
        app: AppId,
    ) -> Result<(usize, AppId), FleetError> {
        let mut residents = lock(&self.inner.residents);
        let entry = residents
            .get_mut(&resident)
            .ok_or(FleetError::UnknownResident(resident))?;
        entry.group = group;
        Ok((
            std::mem::replace(&mut entry.shard, shard),
            std::mem::replace(&mut entry.app, app),
        ))
    }

    /// Moves a live resident to another group: admit on the target (same
    /// application instance, same contract), then release on the source.
    /// The move is atomic with respect to the journal — one
    /// [`DecisionEvent::Rebalance`] entry ordered against both groups'
    /// decisions — and the resident id survives the move.
    ///
    /// Returns the period predicted on the target group.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownResident`] / [`FleetError::UnknownGroup`] /
    /// [`FleetError::SameGroup`] / [`FleetError::MoveSaturated`] /
    /// [`FleetError::MoveRejected`] / [`FleetError::Stopped`] /
    /// [`FleetError::Analysis`]. Failed moves change nothing and journal
    /// nothing.
    pub fn move_resident(&self, resident: u64, to: usize) -> Result<Rational, FleetError> {
        if to >= self.group_count() {
            return Err(FleetError::UnknownGroup(to));
        }
        loop {
            // Snapshot the resident's current group, then take both group
            // locks in index order and re-verify (the resident may move or
            // release concurrently between snapshot and lock).
            let (from, app_index, required) = {
                let residents = lock(&self.inner.residents);
                let entry = residents
                    .get(&resident)
                    .ok_or(FleetError::UnknownResident(resident))?;
                (entry.group, entry.app_index, entry.required_throughput)
            };
            if from == to {
                return Err(FleetError::SameGroup { group: from });
            }
            let (source, target) = (self.group(from)?, self.group(to)?);
            let (first, second) = if from < to {
                (&source, &target)
            } else {
                (&target, &source)
            };
            let _order_first = lock(&first.order);
            let _order_second = lock(&second.order);
            {
                let residents = lock(&self.inner.residents);
                match residents.get(&resident) {
                    Some(entry) if entry.group == from => {}
                    Some(_) => continue, // moved meanwhile; retry with fresh group
                    None => return Err(FleetError::UnknownResident(resident)),
                }
            }

            return match self.decide(&target, app_index, required)? {
                ShardDecision::Admitted {
                    shard,
                    app,
                    predicted_period,
                } => {
                    // Verified live under both group locks.
                    let (old_shard, old_app) = self.relocate(resident, to, shard, app)?;
                    source.release(old_shard, old_app);
                    self.inner.rebalances.fetch_add(1, Ordering::Relaxed);
                    self.inner.journal.append(DecisionEvent::Rebalance {
                        resident,
                        from_group: from as u64,
                        to_group: to as u64,
                        predicted_period,
                    });
                    Ok(predicted_period)
                }
                ShardDecision::Rejected(violations) => Err(FleetError::MoveRejected {
                    to,
                    violations: violations.len(),
                }),
                ShardDecision::Full => Err(FleetError::MoveSaturated { to }),
            };
        }
    }

    /// One rebalancing pass: if moving a resident from the most-utilised
    /// group to the least-utilised one would strictly improve balance (the
    /// target stays below the source's pre-move utilisation), move the
    /// oldest such resident and return the move. Returns `None` when the
    /// fleet is balanced or the move failed (full/contract-bound target).
    pub fn rebalance(&self) -> Option<RebalanceMove> {
        let groups = self.inner.groups_snapshot();
        // Retired groups neither donate (they are empty) nor receive.
        let indices: Vec<usize> = (0..groups.len())
            .filter(|&i| !groups[i].is_retired())
            .collect();
        let loads: Vec<(usize, usize)> = indices
            .iter()
            .map(|&i| (groups[i].resident_count(), groups[i].capacity()))
            .collect();
        let from_pos = max_utilised(&loads)?;
        let to_pos = min_utilised(&loads)?;
        let ((r_f, c_f), (r_t, c_t)) = (loads[from_pos], loads[to_pos]);
        let (from, to) = (indices[from_pos], indices[to_pos]);
        // Move only when the target's post-move ratio stays strictly below
        // the source's pre-move ratio — prevents ping-pong.
        if from == to || r_f == 0 || (r_t + 1) * c_f >= r_f * c_t {
            return None;
        }
        let resident = {
            let residents = lock(&self.inner.residents);
            residents
                .iter()
                .find(|(_, e)| e.group == from)
                .map(|(&id, _)| id)?
        };
        match self.move_resident(resident, to) {
            Ok(predicted_period) => Some(RebalanceMove {
                resident,
                from,
                to,
                predicted_period,
            }),
            Err(_) => None,
        }
    }

    /// What the decision kernel has cost so far: period analyses run and
    /// contract-free residents skipped, summed over every shard of every
    /// group (retired ones included).
    pub fn kernel_counters(&self) -> KernelCounters {
        let groups = self.inner.groups_snapshot();
        groups
            .iter()
            .flat_map(|g| g.shards.iter().map(|s| lock(s).kernel_counters()))
            .sum()
    }

    /// Point-in-time utilisation/outcome summary of the whole fleet.
    pub fn snapshot(&self) -> FleetSnapshot {
        let groups: Vec<GroupSnapshot> = self
            .inner
            .groups_snapshot()
            .iter()
            .map(|g| {
                let residents = g.resident_count();
                let capacity = g.capacity();
                GroupSnapshot {
                    name: g.config.name.clone(),
                    residents,
                    capacity,
                    admitted: g.counters.admitted.load(Ordering::Relaxed),
                    rejected: g.counters.rejected.load(Ordering::Relaxed),
                    saturated: g.counters.saturated.load(Ordering::Relaxed),
                    retired: g.is_retired(),
                }
            })
            .collect();
        FleetSnapshot {
            residents: self.resident_count(),
            capacity: groups.iter().map(|g| g.capacity).sum(),
            admitted: groups.iter().map(|g| g.admitted).sum(),
            rejected: groups.iter().map(|g| g.rejected).sum(),
            saturated: groups.iter().map(|g| g.saturated).sum(),
            released: self.inner.released.load(Ordering::Relaxed),
            rebalances: self.inner.rebalances.load(Ordering::Relaxed),
            resizes: self.inner.resizes.load(Ordering::Relaxed),
            resize_refusals: self.inner.resize_refusals.load(Ordering::Relaxed),
            groups,
        }
    }

    /// Releases a live resident **by id**, journaling the release and
    /// returning whether it was live — the
    /// [`AdmissionService`](crate::AdmissionService) release path. Safe
    /// against concurrent moves: retries until the resident's group is
    /// stable under that group's lock.
    pub fn release_resident(&self, resident: u64) -> bool {
        loop {
            let group = {
                let residents = lock(&self.inner.residents);
                match residents.get(&resident) {
                    Some(entry) => entry.group,
                    None => return false, // already released
                }
            };
            let Ok(g) = self.group(group) else {
                return false;
            };
            let _order = lock(&g.order);
            let entry = {
                let mut residents = lock(&self.inner.residents);
                match residents.get(&resident) {
                    Some(entry) if entry.group == group => residents.remove(&resident),
                    Some(_) => continue, // moved meanwhile; retry
                    None => return false,
                }
            };
            if let Some(entry) = entry {
                g.release(entry.shard, entry.app);
                self.inner.released.fetch_add(1, Ordering::Relaxed);
                self.inner
                    .journal
                    .append(DecisionEvent::Release { resident });
                return true;
            }
            return false;
        }
    }

    /// Re-admits one checkpointed resident: same group, same application
    /// instance, same contract, same fleet-wide id — without journaling
    /// anything or touching the outcome counters (the decision is already
    /// in the history the checkpoint folds).
    ///
    /// Restoring a checkpoint's residents onto the recorded fleet shape
    /// always succeeds: each group's final mix, and so every mix on the way
    /// to it, is a subset of the last mix the recording validated there
    /// (every later change to the group removed residents), and contention
    /// only grows with co-residents.
    ///
    /// # Errors
    ///
    /// [`FleetError::Restore`] when the resident id is already live or the
    /// (hypothetical) shape rejects the re-admission;
    /// [`FleetError::UnknownGroup`] / [`FleetError::Stopped`] /
    /// [`FleetError::Analysis`].
    fn restore_resident(&self, restored: &CheckpointResident) -> Result<(), FleetError> {
        let group_index = restored.group as usize;
        let g = self.group(group_index)?;
        let app_index = (restored.app_index as usize) % self.inner.spec.application_count();
        let _order = lock(&g.order);
        if lock(&self.inner.residents).contains_key(&restored.resident) {
            return Err(FleetError::Restore {
                resident: restored.resident,
                reason: "resident id already live".to_string(),
            });
        }
        match self.decide(&g, app_index, restored.required_throughput)? {
            ShardDecision::Admitted { shard, app, .. } => {
                lock(&self.inner.residents).insert(
                    restored.resident,
                    ResidentEntry {
                        group: group_index,
                        shard,
                        app,
                        app_index,
                        required_throughput: restored.required_throughput,
                    },
                );
                // Keep id assignment monotone past every restored id.
                self.inner
                    .next_resident
                    .fetch_max(restored.resident + 1, Ordering::Relaxed);
                Ok(())
            }
            ShardDecision::Rejected(violations) => Err(FleetError::Restore {
                resident: restored.resident,
                reason: format!("re-admission rejected ({} violations)", violations.len()),
            }),
            ShardDecision::Full => Err(FleetError::Restore {
                resident: restored.resident,
                reason: format!("group {group_index} is full"),
            }),
        }
    }

    /// Restores a snapshot checkpoint: first the group state it records
    /// (added groups, capacity overrides, retired flags — the starting
    /// shape, so residents admitted after a grow or onto an added group
    /// fit back in), then every resident in recorded admission order;
    /// finally the resident-id counter moves past the checkpoint's. An
    /// override naming a group this fleet lacks is skipped, and each
    /// resident on such a group fails on its own.
    ///
    /// Returns every resident's re-admission result in that order (an
    /// already-live id, a full group or a rejecting mix is a
    /// [`FleetError::Restore`]). Whether a failure is fatal is the caller's
    /// rule: replay and [`recover`](Self::recover) stop at the first,
    /// `probcon plan` counts each as a regression.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when an added group has no shards or no
    /// capacity, or would take the fleet past [`MAX_FLEET_SHARDS`], or a
    /// capacity override is 0; no resident is restored.
    pub fn restore<'c>(&self, checkpoint: &'c FleetCheckpoint) -> Result<Restored<'c>, FleetError> {
        let mut shapes: Vec<&CheckpointGroup> = checkpoint.groups.iter().flatten().collect();
        shapes.sort_by_key(|g| g.group);
        for shape in shapes {
            let index = shape.group as usize;
            if let Some(added) = &shape.added {
                self.apply_add_group(index, added.clone())?;
            }
            let Ok(g) = self.group(index) else { continue };
            if let Some(capacity) = shape.capacity_per_shard {
                if capacity == 0 {
                    return Err(no_capacity(shape.group));
                }
                g.set_capacity_per_shard(capacity as usize);
            }
            // After the capacity, so a retired group's shape restores too.
            if shape.retired {
                g.retired.store(true, Ordering::Release);
            }
        }
        let mut residents: Vec<&CheckpointResident> = checkpoint.residents.iter().collect();
        residents.sort_by_key(|r| r.admitted_seq);
        let results = residents
            .into_iter()
            .map(|r| (r, self.restore_resident(r)))
            .collect();
        self.inner
            .next_resident
            .fetch_max(checkpoint.next_resident, Ordering::Relaxed);
        Ok(results)
    }

    /// Rebuilds a fleet from a journal that already holds history — the
    /// `probcon serve --journal-dir` restart path. The fleet takes the
    /// shape the journal's header records
    /// ([`FleetConfig::from_header`]) and [restores](Self::restore) the
    /// journal's [`checkpoint`](Journal::checkpoint) onto it: the group
    /// state every applied resize left, then each live resident on its
    /// current group under its recorded id. Nothing is journaled; the
    /// returned fleet appends new decisions after the recovered history,
    /// and its residents and capacities are the journal's end state.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when the header's shape is unusable;
    /// the first resident [`restore`](Self::restore) cannot seat, as a
    /// [`FleetError::Restore`] (or the [`FleetError`] its re-admission
    /// failed with).
    pub fn recover(spec: SystemSpec, journal: Journal) -> Result<FleetManager, FleetError> {
        let config = FleetConfig::from_header(journal.header())?;
        let checkpoint = journal.checkpoint();
        let fleet = FleetManager::with_journal(spec, config, journal)?;
        for (_, seated) in fleet.restore(&checkpoint)? {
            seated?;
        }
        Ok(fleet)
    }

    /// Executes one elastic capacity change and journals it (and its
    /// outcome — applied or refused) as a first-class
    /// [`DecisionEvent::Resize`]. This is the single entry point the
    /// autoscaler, the CLI and deterministic replay all drive:
    ///
    /// - `Grow`/`Shrink` move a group's per-shard capacity to the given
    ///   **absolute** value. A shrink below any shard's current occupancy
    ///   is refused ([`ScaleRefusal::Occupied`]).
    /// - `AddGroup` appends a new group; the action's recorded index must
    ///   be the next free one, [`group_count`](Self::group_count)
    ///   ([`ScaleRefusal::UnknownGroup`] otherwise).
    /// - `Drain` rebalances every resident off the group (each move is
    ///   journaled as a [`DecisionEvent::Rebalance`] *before* the resize
    ///   entry) and retires it in place. If any resident cannot be placed
    ///   the whole drain is refused ([`ScaleRefusal::Unplaceable`]) and the
    ///   fleet is left as it was. The fleet's last active group cannot be
    ///   drained ([`ScaleRefusal::LastGroup`]).
    ///
    /// Refusals are `Ok(ScaleOutcome::Refused { .. })`, not errors: they
    /// are decisions, journaled so replay reproduces them.
    ///
    /// # Errors
    ///
    /// [`FleetError`] only for non-decisions: [`FleetError::Config`] for a
    /// `Grow`/`Shrink` to a capacity of 0 or an `AddGroup` shape the fleet
    /// refuses, and analysis failures during a drain's moves. Nothing is
    /// journaled in those cases.
    pub fn resize(&self, action: ScaleAction) -> Result<ScaleOutcome, FleetError> {
        let outcome = match &action {
            ScaleAction::Grow {
                group,
                capacity_per_shard,
            }
            | ScaleAction::Shrink {
                group,
                capacity_per_shard,
            } => {
                if *capacity_per_shard == 0 {
                    return Err(no_capacity(*group));
                }
                self.resize_capacity(
                    *group as usize,
                    *capacity_per_shard as usize,
                    matches!(action, ScaleAction::Shrink { .. }),
                    &action,
                )
            }
            ScaleAction::AddGroup { group, shape } => {
                self.resize_add(*group as usize, shape.clone(), &action)?
            }
            ScaleAction::Drain { group } => self.resize_drain(*group as usize, &action)?,
        };
        match &outcome {
            ScaleOutcome::Applied => self.inner.resizes.fetch_add(1, Ordering::Relaxed),
            ScaleOutcome::Refused { .. } => {
                self.inner.resize_refusals.fetch_add(1, Ordering::Relaxed)
            }
        };
        Ok(outcome)
    }

    /// Grow/Shrink: decide, apply and journal under the group's order
    /// lock, so the capacity change is atomically ordered against the
    /// group's admission decisions.
    fn resize_capacity(
        &self,
        group: usize,
        capacity_per_shard: usize,
        is_shrink: bool,
        action: &ScaleAction,
    ) -> ScaleOutcome {
        let Ok(g) = self.inner.group(group) else {
            return self.journal_refusal(
                action,
                ScaleRefusal::UnknownGroup {
                    group: group as u64,
                },
            );
        };
        let _order = lock(&g.order);
        if g.is_retired() {
            let reason = ScaleRefusal::Retired {
                group: group as u64,
            };
            self.append_resize(
                action,
                ScaleOutcome::Refused {
                    reason: reason.clone(),
                },
            );
            return ScaleOutcome::Refused { reason };
        }
        if is_shrink {
            let occupancy = g.shard_occupancy();
            if let Some((shard, residents)) = occupancy
                .iter()
                .enumerate()
                .find(|(_, &r)| r > capacity_per_shard)
            {
                let reason = ScaleRefusal::Occupied {
                    group: group as u64,
                    shard: shard as u64,
                    residents: *residents as u64,
                    capacity: capacity_per_shard as u64,
                };
                self.append_resize(
                    action,
                    ScaleOutcome::Refused {
                        reason: reason.clone(),
                    },
                );
                return ScaleOutcome::Refused { reason };
            }
        }
        g.set_capacity_per_shard(capacity_per_shard);
        self.append_resize(action, ScaleOutcome::Applied);
        ScaleOutcome::Applied
    }

    /// AddGroup: append under the group-list write lock, so the index
    /// check, the new group and its journal entry are atomic against any
    /// other AddGroup — the journal records adds in index order. A group of
    /// no shards or no capacity, or one that would take the fleet past
    /// [`MAX_FLEET_SHARDS`], is an error, not a decision: nothing is
    /// journaled.
    fn resize_add(
        &self,
        index: usize,
        config: GroupConfig,
        action: &ScaleAction,
    ) -> Result<ScaleOutcome, FleetError> {
        let mut groups = self
            .inner
            .groups
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if index != groups.len() {
            drop(groups);
            return Ok(self.journal_refusal(
                action,
                ScaleRefusal::UnknownGroup {
                    group: index as u64,
                },
            ));
        }
        check_added(&groups, &config)?;
        groups.push(Arc::new(GroupRuntime::from_config(config)));
        self.append_resize(action, ScaleOutcome::Applied);
        Ok(ScaleOutcome::Applied)
    }

    /// Drain: capacity-feasibility check, then journaled moves, then the
    /// retire + resize entry. All-or-nothing: an unplaceable resident
    /// refuses the whole drain with the fleet unchanged (moves already
    /// made for this drain are moved back).
    fn resize_drain(&self, group: usize, action: &ScaleAction) -> Result<ScaleOutcome, FleetError> {
        let Ok(g) = self.inner.group(group) else {
            return Ok(self.journal_refusal(
                action,
                ScaleRefusal::UnknownGroup {
                    group: group as u64,
                },
            ));
        };
        if g.is_retired() {
            return Ok(self.journal_refusal(
                action,
                ScaleRefusal::Retired {
                    group: group as u64,
                },
            ));
        }
        let groups = self.inner.groups_snapshot();
        if groups.iter().filter(|g| !g.is_retired()).count() <= 1 {
            return Ok(self.journal_refusal(action, ScaleRefusal::LastGroup));
        }

        // Feasibility first, against simulated per-shard occupancies — a
        // pure function of journal-visible state, so a refusal replays to
        // the same refusal. Placement targets mirror the move itself:
        // `shard_for(app_index)` on each candidate group.
        let placements = {
            let residents = lock(&self.inner.residents);
            let mut occupancy: Vec<Vec<usize>> =
                groups.iter().map(|g| g.shard_occupancy()).collect();
            let mut placements: Vec<(u64, usize)> = Vec::new();
            for (&id, entry) in residents.iter().filter(|(_, e)| e.group == group) {
                let mut placed = false;
                for (i, candidate) in groups.iter().enumerate() {
                    if i == group || candidate.is_retired() {
                        continue;
                    }
                    let shard = candidate.shard_for(entry.app_index);
                    if occupancy[i][shard] < candidate.capacity_per_shard() {
                        occupancy[i][shard] += 1;
                        placements.push((id, i));
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    drop(residents);
                    return Ok(
                        self.journal_refusal(action, ScaleRefusal::Unplaceable { resident: id })
                    );
                }
            }
            placements
        };

        // Execute the planned moves; each is a first-class journaled
        // rebalance. A move can still fail (a contract rejection the
        // capacity check cannot see, or a concurrent admission racing the
        // plan): roll the completed moves back and refuse.
        let mut moved: Vec<(u64, usize)> = Vec::new();
        for (resident, to) in placements {
            match self.move_resident(resident, to) {
                Ok(_) => moved.push((resident, group)),
                Err(FleetError::UnknownResident(_)) => {
                    // Released concurrently — nothing left to move.
                }
                Err(FleetError::MoveSaturated { .. } | FleetError::MoveRejected { .. }) => {
                    for (resident, back) in moved.into_iter().rev() {
                        let _ = self.move_resident(resident, back);
                    }
                    return Ok(self.journal_refusal(action, ScaleRefusal::Unplaceable { resident }));
                }
                Err(e) => return Err(e),
            }
        }

        // Retire + journal atomically against the group's decisions.
        let _order = lock(&g.order);
        g.retired.store(true, Ordering::Release);
        self.append_resize(action, ScaleOutcome::Applied);
        Ok(ScaleOutcome::Applied)
    }

    /// Appends a refusal entry and returns the refusal.
    fn journal_refusal(&self, action: &ScaleAction, reason: ScaleRefusal) -> ScaleOutcome {
        let outcome = ScaleOutcome::Refused { reason };
        self.append_resize(action, outcome.clone());
        outcome
    }

    fn append_resize(&self, action: &ScaleAction, outcome: ScaleOutcome) {
        self.inner.journal.append(DecisionEvent::Resize {
            action: action.clone(),
            outcome,
        });
    }

    /// Appends a group without journaling (the restore path). It joins
    /// only at the next free index: a fleet that already has the group
    /// keeps its own, one short of it skips it.
    fn apply_add_group(&self, index: usize, config: GroupConfig) -> Result<(), FleetError> {
        let mut groups = self
            .inner
            .groups
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if index == groups.len() {
            check_added(&groups, &config)?;
            groups.push(Arc::new(GroupRuntime::from_config(config)));
        }
        Ok(())
    }

    /// Stops the fleet: every later admission, move or restore fails with
    /// [`FleetError::Stopped`] and journals nothing, while live residents
    /// still release by id so load drains.
    pub fn stop(&self) {
        self.inner.stopped.store(true, Ordering::Release);
    }

    fn group(&self, index: usize) -> Result<Arc<GroupRuntime>, FleetError> {
        self.inner.group(index)
    }

    /// Fresh instance + node assignment of the spec's application
    /// `app_index` (callers reduce the index modulo the app count).
    fn instantiate(&self, app_index: usize) -> (Application, Vec<NodeId>) {
        crate::service::instantiate(&self.inner.spec, app_index)
    }
}

/// Least-utilised active group among those passing `eligible`, comparing
/// resident/capacity ratios exactly (cross-multiplied, no floats), ties
/// toward the lowest index. Retired groups never qualify.
fn least_utilised(groups: &[Arc<GroupRuntime>], eligible: impl Fn(&GroupRuntime) -> bool) -> usize {
    let mut best = 0usize;
    let mut best_key: Option<(usize, usize)> = None; // (residents, capacity)
    for (i, g) in groups.iter().enumerate() {
        if g.is_retired() || !eligible(g) {
            continue;
        }
        let key = (g.resident_count(), g.capacity());
        let better = match best_key {
            None => true,
            // r_i / c_i < r_best / c_best  ⇔  r_i · c_best < r_best · c_i
            Some((rb, cb)) => key.0 * cb < rb * key.1,
        };
        if better {
            best = i;
            best_key = Some(key);
        }
    }
    best
}

/// Helpers picking extreme-utilisation groups by exact ratio comparison.
fn max_utilised(loads: &[(usize, usize)]) -> Option<usize> {
    loads
        .iter()
        .enumerate()
        .max_by(|(_, (ra, ca)), (_, (rb, cb))| (ra * cb).cmp(&(rb * ca)))
        .map(|(i, _)| i)
}

fn min_utilised(loads: &[(usize, usize)]) -> Option<usize> {
    loads
        .iter()
        .enumerate()
        .min_by(|(_, (ra, ca)), (_, (rb, cb))| (ra * cb).cmp(&(rb * ca)))
        .map(|(i, _)| i)
}

/// A completed rebalancing move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceMove {
    /// The moved resident.
    pub resident: u64,
    /// Source group.
    pub from: usize,
    /// Target group.
    pub to: usize,
    /// Period predicted on the target group.
    pub predicted_period: Rational,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::journaled;
    use crate::{AdmissionRequest, AdmissionService, ServiceError};
    use platform::{AppId, Application, Mapping};
    use sdf::figure2_graphs;

    fn spec() -> SystemSpec {
        let (a, b) = figure2_graphs();
        SystemSpec::builder()
            .application(Application::new("A", a).unwrap())
            .application(Application::new("B", b).unwrap())
            .mapping(Mapping::by_actor_index(3))
            .build()
            .unwrap()
    }

    fn fleet(groups: usize, capacity: usize, policy: RoutingPolicy) -> FleetManager {
        FleetManager::new(spec(), FleetConfig::uniform(groups, 1, capacity, policy)).unwrap()
    }

    /// Admits `request` and returns the resident id, which must exist.
    fn admitted(f: &FleetManager, request: AdmissionRequest) -> u64 {
        f.admit(&request).unwrap().resident().expect("request fits")
    }

    #[test]
    fn shapes_past_the_shard_cap_fail_before_anything_is_allocated() {
        // A header naming 10^12 groups, or a group of 10^12 shards.
        let wide = JournalHeader {
            groups: 1_000_000_000_000,
            ..JournalHeader::default()
        };
        let err = FleetConfig::from_header(&wide).unwrap_err();
        assert!(
            err.to_string()
                .contains("1000000000000 admission controllers"),
            "{err}"
        );
        let mut deep = FleetManager::stamped_header(
            &FleetConfig::uniform(2, 1, 1, RoutingPolicy::LeastUtilised),
            JournalHeader::default(),
        );
        deep.group_shapes[0].shards = 1_000_000_000_000;
        assert!(matches!(
            FleetConfig::from_header(&deep),
            Err(FleetError::Config(_))
        ));

        // Growing a shape by count is checked the same way.
        let base = FleetConfig::uniform(1, 2, 1, RoutingPolicy::LeastUtilised);
        assert!(base.clone().with_group_count(MAX_FLEET_SHARDS / 2).is_ok());
        assert!(base.with_group_count(MAX_FLEET_SHARDS / 2 + 1).is_err());

        // So is a group added to a live fleet — an error, journaled nowhere
        // — and a checkpoint's added group.
        let f = fleet(1, 1, RoutingPolicy::LeastUtilised);
        let huge = GroupConfig::new("huge", MAX_FLEET_SHARDS, 1);
        assert!(matches!(
            f.resize(ScaleAction::AddGroup {
                group: 1,
                shape: huge.clone(),
            }),
            Err(FleetError::Config(_))
        ));
        assert!(f.journal().is_empty());
        let checkpoint =
            FleetCheckpoint::new(0, 0, Vec::new()).with_groups(vec![CheckpointGroup {
                group: 1,
                added: Some(huge),
                capacity_per_shard: None,
                retired: false,
            }]);
        assert!(matches!(f.restore(&checkpoint), Err(FleetError::Config(_))));
        assert_eq!(f.group_count(), 1);
    }

    #[test]
    fn a_recorded_group_of_no_shards_or_no_capacity_is_refused() {
        let f = fleet(1, 1, RoutingPolicy::LeastUtilised);
        for (shards, capacity_per_shard) in [(0, 1), (1, 0)] {
            let empty = GroupConfig {
                shards,
                capacity_per_shard,
                ..GroupConfig::new("empty", 1, 1)
            };
            // In a journal header ...
            let mut header = FleetManager::stamped_header(
                &FleetConfig::uniform(2, 1, 1, RoutingPolicy::LeastUtilised),
                JournalHeader::default(),
            );
            header.group_shapes[0] = empty.clone();
            let err = FleetConfig::from_header(&header).unwrap_err();
            assert!(err.to_string().contains("group empty"), "{err}");
            // ... as an AddGroup action, journaled nowhere ...
            assert!(matches!(
                f.resize(ScaleAction::AddGroup {
                    group: 1,
                    shape: empty.clone(),
                }),
                Err(FleetError::Config(_))
            ));
            assert!(f.journal().is_empty());
            // ... and as a checkpoint's added group.
            let checkpoint =
                FleetCheckpoint::new(0, 0, Vec::new()).with_groups(vec![CheckpointGroup {
                    group: 1,
                    added: Some(empty),
                    capacity_per_shard: None,
                    retired: false,
                }]);
            assert!(matches!(f.restore(&checkpoint), Err(FleetError::Config(_))));
            assert_eq!(f.group_count(), 1);
        }
        // A Grow or Shrink to no capacity, or a checkpoint override to it,
        // is the same error, and leaves the capacity where it was.
        for action in [
            ScaleAction::Grow {
                group: 0,
                capacity_per_shard: 0,
            },
            ScaleAction::Shrink {
                group: 0,
                capacity_per_shard: 0,
            },
        ] {
            let err = f.resize(action).unwrap_err();
            assert!(err.to_string().contains("group 0"), "{err}");
        }
        assert!(f.journal().is_empty());
        let checkpoint =
            FleetCheckpoint::new(0, 0, Vec::new()).with_groups(vec![CheckpointGroup {
                group: 0,
                added: None,
                capacity_per_shard: Some(0),
                retired: false,
            }]);
        assert!(matches!(f.restore(&checkpoint), Err(FleetError::Config(_))));
        assert_eq!(f.group_shape(0).unwrap().capacity_per_shard, 1);
    }

    #[test]
    fn a_shape_decodes_only_a_known_policy() {
        let shape = FleetConfig::uniform(2, 1, 3, RoutingPolicy::RoundRobin);
        let json = serde_json::to_string(&shape).unwrap();
        assert!(json.ends_with(r#"],"policy":"round-robin"}"#), "{json}");
        assert_eq!(serde_json::from_str::<FleetConfig>(&json), Ok(shape));

        let bogus = json.replace("round-robin", "bogus");
        assert!(serde_json::from_str::<FleetConfig>(&bogus).is_err());
        let header = JournalHeader {
            policy: "bogus".into(),
            ..JournalHeader::default()
        };
        assert!(matches!(
            FleetConfig::from_header(&header),
            Err(FleetError::Config(_))
        ));
    }

    #[test]
    fn empty_config_rejected() {
        let err = FleetManager::new(
            spec(),
            FleetConfig {
                groups: Vec::new(),
                policy: RoutingPolicy::LeastUtilised,
            },
        )
        .unwrap_err();
        assert!(matches!(err, FleetError::Config(_)));
    }

    #[test]
    fn least_utilised_spreads_admissions() {
        let f = fleet(3, 4, RoutingPolicy::LeastUtilised);
        let mut groups: Vec<usize> = [0, 1, 0]
            .iter()
            .map(|&app| {
                let decision = f.admit(&AdmissionRequest::new(app)).unwrap();
                assert!(decision.is_admitted());
                decision.domain()
            })
            .collect();
        groups.sort_unstable();
        assert_eq!(groups, [0, 1, 2]);
        assert_eq!(f.resident_count(), 3);
        for g in 0..3 {
            assert_eq!(f.resident_count_of(g).unwrap(), 1);
        }
    }

    #[test]
    fn round_robin_rotates() {
        let f = fleet(2, 8, RoutingPolicy::RoundRobin);
        assert_eq!(f.route(None), 0);
        assert_eq!(f.route(None), 1);
        assert_eq!(f.route(None), 0);
    }

    #[test]
    fn affinity_prefers_tagged_group_and_falls_back() {
        let config = FleetConfig {
            groups: vec![
                GroupConfig::new("video", 1, 4).with_tags(["video"]),
                GroupConfig::new("audio", 1, 4).with_tags(["audio"]),
            ],
            policy: RoutingPolicy::Affinity,
        };
        let f = FleetManager::new(spec(), config).unwrap();
        assert_eq!(f.route(Some("audio")), 1);
        assert_eq!(f.route(Some("video")), 0);
        // Unknown tags and missing tags fall back to least-utilised.
        admitted(&f, AdmissionRequest::new(0).on(0));
        assert_eq!(f.route(Some("haptics")), 1);
        assert_eq!(f.route(None), 1);
    }

    #[test]
    fn saturation_is_a_decision_not_an_error() {
        let f = fleet(1, 1, RoutingPolicy::LeastUtilised);
        admitted(&f, AdmissionRequest::new(0));
        let outcome = f.admit(&AdmissionRequest::new(1)).unwrap();
        assert!(matches!(
            outcome,
            AdmissionDecision::Saturated { domain: 0 }
        ));
        assert_eq!(f.snapshot().saturated, 1);
        // Both decisions journaled.
        assert_eq!(f.journal().len(), 2);
    }

    #[test]
    fn contract_rejection_journaled() {
        let f = fleet(1, 4, RoutingPolicy::LeastUtilised);
        let iso = spec().application(AppId(0)).isolation_throughput();
        admitted(&f, AdmissionRequest::new(0).with_contract(iso));
        let outcome = f.admit(&AdmissionRequest::new(1)).unwrap();
        let AdmissionDecision::Rejected { domain, violations } = outcome else {
            panic!("tight contract must reject the second admission");
        };
        assert_eq!(domain, 0);
        assert!(!violations.is_empty());
        let events = journaled(f.journal());
        assert!(matches!(
            &events[1],
            DecisionEvent::Admit {
                outcome: JournalOutcome::Rejected { .. },
                ..
            }
        ));
    }

    #[test]
    fn release_by_id_frees_and_journals() {
        let f = fleet(2, 4, RoutingPolicy::LeastUtilised);
        let resident = admitted(&f, AdmissionRequest::new(0));
        assert_eq!(f.resident_count(), 1);
        assert!(f.release_resident(resident));
        assert_eq!(f.resident_count(), 0);
        // A second release of the same id is refused and journals nothing.
        assert!(!f.release_resident(resident));
        let events = journaled(f.journal());
        assert_eq!(events.len(), 2);
        assert!(matches!(events[1], DecisionEvent::Release { resident: 0 }));
        assert_eq!(f.snapshot().released, 1);
    }

    #[test]
    fn kernel_counters_count_what_each_decision_analyses() {
        // One group, one shard of three: every decided admit analyses the
        // candidate plus the residents holding a contract, and skips the
        // rest; a saturated admit analyses nothing.
        let f = fleet(1, 3, RoutingPolicy::LeastUtilised);
        let loose = Rational::new(1, 1000);
        let script = [
            // (app, contract, admitted?, contract holders, contract-free)
            (0, None, true, 0, 0),
            (1, Some(loose), true, 0, 1),
            // A at its isolation throughput cannot share the nodes.
            (0, Some(Rational::new(1, 300)), false, 1, 1),
            (1, None, true, 1, 1),
        ];
        let (mut analyses, mut skipped) = (0, 0);
        for (app, contract, admits, holders, free) in script {
            let mut request = AdmissionRequest::new(app);
            if let Some(required) = contract {
                request = request.with_contract(required);
            }
            assert_eq!(
                f.admit(&request).unwrap().is_admitted(),
                admits,
                "{request:?}"
            );
            analyses += 1 + holders;
            skipped += free;
            assert_eq!(
                f.kernel_counters(),
                KernelCounters {
                    period_analyses: analyses,
                    contract_free_skipped: skipped
                }
            );
        }
        let full = f.admit(&AdmissionRequest::new(0)).unwrap();
        assert!(!full.is_admitted());
        assert_eq!(f.snapshot().saturated, 1);

        // The fleet layer carries both sums, and Prometheus renders them.
        let snapshot = AdmissionService::snapshot(&f);
        assert_eq!(snapshot.counter("fleet", "period_analyses"), Some(6));
        assert_eq!(snapshot.counter("fleet", "contract_free_skipped"), Some(3));
        let prometheus = AdmissionService::telemetry(&f).render_prometheus();
        assert!(
            prometheus.contains("probcon_layer{layer=\"fleet\",metric=\"period_analyses\"} 6"),
            "{prometheus}"
        );
    }

    #[test]
    fn move_resident_crosses_groups_and_survives() {
        let f = fleet(2, 4, RoutingPolicy::LeastUtilised);
        let id = admitted(&f, AdmissionRequest::new(0).on(0));
        let period = f.move_resident(id, 1).unwrap();
        assert_eq!(period, Rational::integer(300)); // alone on the target
        assert_eq!(f.resident_count_of(0).unwrap(), 0);
        assert_eq!(f.resident_count_of(1).unwrap(), 1);
        // The id still releases the moved resident.
        assert!(f.release_resident(id));
        assert_eq!(f.resident_count(), 0);
        assert!(matches!(
            journaled(f.journal()).as_slice(),
            [
                DecisionEvent::Admit { .. },
                DecisionEvent::Rebalance {
                    from_group: 0,
                    to_group: 1,
                    ..
                },
                DecisionEvent::Release { .. },
            ]
        ));
    }

    #[test]
    fn move_errors() {
        let f = fleet(2, 1, RoutingPolicy::LeastUtilised);
        let id = admitted(&f, AdmissionRequest::new(0).on(0));
        admitted(&f, AdmissionRequest::new(1).on(1));
        assert_eq!(
            f.move_resident(id, 0).unwrap_err(),
            FleetError::SameGroup { group: 0 }
        );
        assert_eq!(
            f.move_resident(id, 1).unwrap_err(),
            FleetError::MoveSaturated { to: 1 }
        );
        assert_eq!(
            f.move_resident(id, 9).unwrap_err(),
            FleetError::UnknownGroup(9)
        );
        assert_eq!(
            f.move_resident(99, 1).unwrap_err(),
            FleetError::UnknownResident(99)
        );
        // Failed moves journal nothing beyond the two admissions.
        assert_eq!(f.journal().len(), 2);
    }

    #[test]
    fn rebalance_moves_toward_balance_and_converges() {
        let f = fleet(2, 4, RoutingPolicy::LeastUtilised);
        for app in 0..3 {
            admitted(&f, AdmissionRequest::new(app).on(0));
        }
        assert_eq!(f.resident_count_of(0).unwrap(), 3);
        let mv = f.rebalance().expect("imbalanced fleet must move");
        assert_eq!((mv.from, mv.to), (0, 1));
        assert_eq!(f.resident_count_of(0).unwrap(), 2);
        assert_eq!(f.resident_count_of(1).unwrap(), 1);
        // 2 vs 1 on equal capacities: moving again would just ping-pong.
        assert!(f.rebalance().is_none());
        assert_eq!(f.snapshot().rebalances, 1);
    }

    #[test]
    fn snapshot_totals_match_groups() {
        let f = fleet(2, 2, RoutingPolicy::RoundRobin);
        admitted(&f, AdmissionRequest::new(0));
        admitted(&f, AdmissionRequest::new(1));
        let snap = FleetManager::snapshot(&f);
        assert_eq!(snap.residents, 2);
        assert_eq!(snap.capacity, 4);
        assert_eq!(snap.admitted, 2);
        assert_eq!(
            snap.groups.iter().map(|g| g.residents).sum::<usize>(),
            snap.residents
        );
        let text = snap.render();
        for needle in ["group0", "group1", "residents", "admitted", "util"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn policy_parse_display_roundtrip() {
        for policy in [
            RoutingPolicy::LeastUtilised,
            RoutingPolicy::RoundRobin,
            RoutingPolicy::Affinity,
        ] {
            assert_eq!(policy.to_string().parse::<RoutingPolicy>(), Ok(policy));
        }
        assert!("bogus".parse::<RoutingPolicy>().is_err());
    }

    #[test]
    fn stopped_fleet_refuses_decisions_and_drains() {
        let f = fleet(2, 4, RoutingPolicy::LeastUtilised);
        let first = admitted(&f, AdmissionRequest::new(0).on(0));
        let second = admitted(&f, AdmissionRequest::new(1).on(0));
        f.stop();
        assert_eq!(
            f.admit_on(0, 0, None, None).unwrap_err(),
            FleetError::Stopped
        );
        assert_eq!(
            f.admit(&AdmissionRequest::new(0)).unwrap_err(),
            ServiceError::Stopped
        );
        assert_eq!(f.move_resident(second, 1).unwrap_err(), FleetError::Stopped);
        // The refused calls journaled nothing beyond the two admissions.
        assert_eq!(f.journal().len(), 2);
        // Residents still release by id, each journaling one release.
        assert!(f.release_resident(second));
        assert!(f.release_resident(first));
        assert_eq!(f.resident_count(), 0);
        assert_eq!(f.resident_count_of(0).unwrap(), 0);
        assert!(matches!(
            journaled(f.journal()).as_slice(),
            [
                DecisionEvent::Admit { .. },
                DecisionEvent::Admit { .. },
                DecisionEvent::Release { .. },
                DecisionEvent::Release { .. },
            ]
        ));
    }

    #[test]
    fn shard_placement_is_pinned_and_shards_fill_independently() {
        // Recorded journals of multi-shard fleets replay only while the
        // placement hash stays exactly this.
        let f = FleetManager::new(
            spec(),
            FleetConfig::uniform(1, 4, 1, RoutingPolicy::LeastUtilised),
        )
        .unwrap();
        let g = f.group(0).unwrap();
        let placement: Vec<usize> = (0..10).map(|app_index| g.shard_for(app_index)).collect();
        assert_eq!(placement, [3, 1, 2, 1, 2, 2, 0, 3, 2, 0]);
        // App 0 fills shard 3: a second instance saturates there though
        // the group has free shards, while app 1 still lands on shard 1.
        admitted(&f, AdmissionRequest::new(0).on(0));
        assert!(matches!(
            f.admit(&AdmissionRequest::new(0).on(0)).unwrap(),
            AdmissionDecision::Saturated { domain: 0 }
        ));
        admitted(&f, AdmissionRequest::new(1).on(0));
        assert_eq!(g.shard_occupancy(), [0, 1, 0, 1]);
    }

    #[test]
    fn fleet_is_send_sync() {
        fn check<T: Send + Sync + Clone>() {}
        check::<FleetManager>();
    }
}

/// Point-in-time state of one group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSnapshot {
    /// Group name.
    pub name: String,
    /// Live residents.
    pub residents: usize,
    /// Resident capacity.
    pub capacity: usize,
    /// Admissions granted on this group.
    pub admitted: u64,
    /// Admissions rejected by contracts on this group.
    pub rejected: u64,
    /// Admissions bounced for lack of capacity on this group.
    pub saturated: u64,
    /// `true` once the group was drained and retired (capacity reads 0).
    pub retired: bool,
}

impl GroupSnapshot {
    /// Resident/capacity ratio.
    pub fn utilisation(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.residents as f64 / self.capacity as f64
        }
    }

    /// [`utilisation`](Self::utilisation) as a whole percentage — the
    /// integer form telemetry counters and gauge expositions carry.
    pub fn utilisation_percent(&self) -> u64 {
        (100.0 * self.utilisation()).round() as u64
    }
}

/// Point-in-time state of the whole fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSnapshot {
    /// Per-group state.
    pub groups: Vec<GroupSnapshot>,
    /// Live residents fleet-wide.
    pub residents: usize,
    /// Total capacity fleet-wide.
    pub capacity: usize,
    /// Total admissions granted.
    pub admitted: u64,
    /// Total contract rejections.
    pub rejected: u64,
    /// Total capacity bounces.
    pub saturated: u64,
    /// Total releases.
    pub released: u64,
    /// Total completed rebalance moves.
    pub rebalances: u64,
    /// Elastic resizes applied (grow/shrink/add/drain).
    pub resizes: u64,
    /// Elastic resizes refused (journaled no-ops).
    pub resize_refusals: u64,
}

impl FleetSnapshot {
    /// Fleet-wide resident/capacity ratio.
    pub fn utilisation(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.residents as f64 / self.capacity as f64
        }
    }

    /// Renders the per-group utilisation table printed by
    /// `probcon fleet-bench`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>9} {:>7} {:>9} {:>9} {:>10}",
            "group", "residents", "capacity", "util", "admitted", "rejected", "saturated"
        );
        for g in &self.groups {
            let name = if g.retired {
                format!("{}†", g.name)
            } else {
                g.name.clone()
            };
            let _ = writeln!(
                out,
                "{:<10} {:>9} {:>9} {:>6.0}% {:>9} {:>9} {:>10}",
                name,
                g.residents,
                g.capacity,
                100.0 * g.utilisation(),
                g.admitted,
                g.rejected,
                g.saturated,
            );
        }
        let _ = writeln!(
            out,
            "fleet: {}/{} residents ({:.0}% util), {} admitted, {} rejected, \
             {} saturated, {} released, {} rebalances",
            self.residents,
            self.capacity,
            100.0 * self.utilisation(),
            self.admitted,
            self.rejected,
            self.saturated,
            self.released,
            self.rebalances,
        );
        if self.resizes > 0 || self.resize_refusals > 0 {
            let _ = writeln!(
                out,
                "elastic: {} resizes applied, {} refused",
                self.resizes, self.resize_refusals,
            );
        }
        out
    }
}
