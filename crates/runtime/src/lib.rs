//! # runtime — concurrent online resource management
//!
//! The paper's closing argument is that millisecond-scale estimates make
//! **run-time admission control** feasible. The `contention` crate
//! implements that controller single-threaded; this crate turns it into an
//! online service able to serve heavy concurrent traffic:
//!
//! * [`FleetManager`] — the one admission path: admissions routed across
//!   many named platform groups ([`RoutingPolicy`]: least-utilised,
//!   round-robin, affinity-by-use-case), each a set of sharded
//!   admission controllers deciding admit, reject or saturate without
//!   waiting, with cross-group rebalancing, elastic resizing and
//!   fleet-wide metrics;
//! * [`EstimateCache`] — LRU memoization of [`contention::estimate`]
//!   results keyed by (spec fingerprint, use-case mask, method), with
//!   observable hit/miss counters;
//! * [`Journal`] — the fleet's own append-only, checksummed log of every
//!   admit/reject/release/rebalance decision, in memory or in a [`wal`]
//!   directory, with [`JournalReplayer`] verifying that re-executing a
//!   journal against a fresh fleet reproduces every outcome (the engine
//!   behind `probcon fleet-bench` / `probcon replay`);
//! * [`AdmissionService`] — the unified service trait the fleet
//!   implements, whose [`admit`](AdmissionService::admit) is the only way
//!   to decide, with composable middleware layers [`Cached`] and
//!   [`Metered`] (see [`service`]);
//! * [`RemoteServer`] / [`RemoteClient`] — the remote transport: one
//!   protocol version of length-prefixed binary frames, hellos included,
//!   over TCP or Unix domain sockets, whose both ends are just
//!   [`AdmissionService`]s, so a fleet spans processes and every
//!   existing caller works against it unchanged; the client pipelines
//!   many admissions on one connection, each answered through a
//!   [`Completion`], and the server's few readiness loops each decide
//!   every frame on the thread that read it (see [`remote`]);
//! * [`Traced`] / [`TraceRecorder`] / [`TelemetrySnapshot`] — the
//!   telemetry subsystem: a fixed-capacity flight recorder of structured
//!   decision events, bounded HDR-style [`LatencyHistogram`]s, and the
//!   one observation surface, [`AdmissionService::telemetry`], through
//!   which every layer reports itself once, served over the wire and
//!   rendered as a table or Prometheus-style text (see [`telemetry`],
//!   the engine behind `probcon top` / `probcon trace`);
//! * [`PlanRun`] / [`PlanSweep`] — the offline capacity planner: replay
//!   any recorded journal against hypothetical [`FleetConfig`]s (scaled
//!   capacities, added groups, swapped policies) and report which
//!   decisions would have flipped, with a parallel sweep finding the
//!   smallest shape that serves everything the recording served (see
//!   [`planner`], the engine behind `probcon plan`).
//!
//! # Example
//!
//! ```
//! use platform::{AppId, Application, Mapping, SystemSpec};
//! use runtime::{
//!     AdmissionDecision, AdmissionRequest, AdmissionService, FleetConfig, FleetManager,
//!     RoutingPolicy,
//! };
//! use sdf::figure2_graphs;
//!
//! let (a, b) = figure2_graphs();
//! let spec = SystemSpec::builder()
//!     .application(Application::new("A", a)?)
//!     .application(Application::new("B", b)?)
//!     .mapping(Mapping::by_actor_index(3))
//!     .build()?;
//! // One group of one shard holding up to 8 residents.
//! let fleet = FleetManager::new(
//!     spec.clone(),
//!     FleetConfig::uniform(1, 1, 8, RoutingPolicy::LeastUtilised),
//! )?;
//!
//! // Admit A; it insists on its full isolation throughput of 1/300.
//! let iso = spec.application(AppId(0)).isolation_throughput();
//! let first = AdmissionService::admit(&fleet, &AdmissionRequest::new(0).with_contract(iso))?;
//! let resident = first.resident().expect("first admission fits");
//!
//! // B would slow A below its contract: rejected, no capacity consumed.
//! let second = AdmissionService::admit(&fleet, &AdmissionRequest::new(1))?;
//! assert!(matches!(second, AdmissionDecision::Rejected { .. }));
//! assert_eq!(fleet.resident_count(), 1);
//!
//! fleet.release(resident)?; // frees the group for the next request
//! assert_eq!(fleet.resident_count(), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod autoscaler;
pub mod cache;
pub mod fleet;
pub mod fleet_bench;
pub mod journal;
pub mod planner;
mod reexec;
pub mod remote;
pub mod service;
pub mod telemetry;
pub mod wal;

pub use autoscaler::{
    evaluate, Autoscaled, Autoscaler, AutoscalerHandle, AutoscalerStatus, ControllerState,
    GroupObservation, Observation, ScaleDecision, ScalePolicy, TargetPolicy,
};
pub use cache::{CacheKey, EstimateCache};
pub use fleet::{
    FleetConfig, FleetError, FleetManager, FleetSnapshot, GroupConfig, GroupSnapshot,
    RebalanceMove, Restored, RoutingPolicy, MAX_FLEET_SHARDS,
};
pub use fleet_bench::{
    run_requests, seeded_fleet_requests, ConnectionPoint, ConnectionSampler, FleetBenchReport,
    FleetRequest, TelemetryPoint,
};
pub use journal::{
    fold_checkpoint, ClientScope, DecisionEvent, Divergence, Journal, JournalEntry, JournalError,
    JournalHeader, JournalOutcome, JournalPage, JournalReplayer, ReplayReport, ScaleAction,
    ScaleOutcome, ScaleRefusal, JOURNAL_CHECKPOINT_VERSION, JOURNAL_VERSION,
};
pub use planner::{
    Flip, FlipKind, GroupUsage, OutcomeTotals, PlanError, PlanReport, PlanRun, PlanSweep,
    PolicyDecision, RouteMode, SaturationWindow, SweepReport,
};
pub use remote::{
    ClientConfig, Endpoint, RemoteClient, RemoteClientStats, RemoteServer, RemoteServerConfig,
    RemoteServerStats, WireMode, EVENT_LOOPS, MAX_CLIENT_ID, MAX_FRAME, MAX_REQUEST_FRAME,
    REMOTE_PROTOCOL_VERSION,
};
pub use service::{
    AdmissionDecision, AdmissionRequest, AdmissionService, Cached, Completion, LayerMetrics,
    Metered, OpRate, ServiceError, ServiceOp, ServiceSnapshot,
};
pub use telemetry::{
    build_span_trees, render_chrome_trace, ConnectionStats, EventLoopStats, HistogramRecorder,
    LatencyHistogram, OpHistogram, SpanContext, SpanNode, SpanScope, SpanTree, TelemetrySnapshot,
    TenantBreakdown, TraceEvent, TraceKind, TraceRecorder, TraceStats, Traced, MAX_TENANT_ROWS,
    OVERFLOW_TENANT,
};
pub use wal::{
    CheckpointGroup, CheckpointResident, FleetCheckpoint, FsyncPolicy, Manifest, SegmentMeta,
    SnapshotMeta, WalConfig, WalRecovery, WalStats, MANIFEST_FILE, WAL_VERSION,
};
