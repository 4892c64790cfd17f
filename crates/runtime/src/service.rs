//! The unified, layered admission-service API.
//!
//! Every online surface of this crate speaks **one protocol with many
//! channels**: a typed [`AdmissionRequest`] / [`AdmissionDecision`]
//! vocabulary and an [`AdmissionService`] trait that the [`FleetManager`]
//! implements — its [`admit`](AdmissionService::admit) is the only way a
//! decision is made — plus tower-style middleware that composes via
//! generics:
//!
//! * [`Cached<S>`] — serves [`estimate`](AdmissionService::estimate)
//!   requests from an LRU [`EstimateCache`], with per-layer hit/miss
//!   metrics and [sign-off warming](Cached::warm_from_signoff);
//! * [`Metered<S>`] — per-operation latency/throughput rows that used to
//!   be re-implemented by every driver.
//!
//! The fleet records every decision in its own
//! [`Journal`](crate::Journal) (in memory or a write-ahead log), ordered
//! per group, and the layers above it are decision-transparent, so a
//! stack like `Metered<Cached<FleetManager>>` decides and journals exactly
//! like the bare fleet. Stacks are built from plain constructors and
//! served as one `Arc<dyn AdmissionService>`: a
//! [`RemoteServer`](crate::RemoteServer) decides every frame through
//! exactly this object.
//!
//! # Example
//!
//! ```
//! use platform::{Application, Mapping, SystemSpec};
//! use runtime::{
//!     AdmissionRequest, AdmissionService, Cached, FleetConfig, FleetManager, Metered,
//! };
//! use sdf::figure2_graphs;
//!
//! let (a, b) = figure2_graphs();
//! let spec = SystemSpec::builder()
//!     .application(Application::new("A", a)?)
//!     .application(Application::new("B", b)?)
//!     .mapping(Mapping::by_actor_index(3))
//!     .build()?;
//! let fleet = FleetManager::new(spec, FleetConfig::default())?;
//!
//! // Layer estimate caching and metering over the fleet; the stack is
//! // still one AdmissionService, and the fleet journals every decision.
//! let stack = Metered::new(Cached::new(fleet.clone(), 64));
//! let decision = stack.admit(&AdmissionRequest::new(0))?;
//! assert!(decision.is_admitted());
//! stack.release(decision.resident().expect("admitted"))?;
//!
//! let snapshot = stack.snapshot();
//! assert_eq!(snapshot.admitted, 1);
//! assert_eq!(snapshot.released, 1);
//! assert_eq!(snapshot.counter("fleet", "journal_entries"), Some(2));
//! assert_eq!(fleet.journal().len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cache::{lock, CacheKey, EstimateCache};
use crate::fleet::{FleetError, FleetManager};
use crate::telemetry::{
    op_rate, HistogramRecorder, LatencyHistogram, SpanContext, SpanScope, TelemetrySnapshot,
    TraceEvent, TraceKind, TraceRecorder,
};
use contention::{ContentionError, Estimate, Method, Violation};
use experiments::signoff::SignOffReport;
use platform::{AppId, Application, NodeId, SystemSpec, UseCase};
use sdf::Rational;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// One admission request, phrased against the service's workload spec.
///
/// Requests are *spec-relative*: they name the application by index, so the
/// same request stream can drive any [`AdmissionService`] — a fleet, a
/// remote client, or a middleware stack — without knowing how the service
/// instantiates and maps the application.
///
/// Serializable: the [`remote`](crate::remote) transport ships requests
/// between processes exactly as drivers phrase them.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AdmissionRequest {
    /// Index of the application in the service's workload spec (reduced
    /// modulo the application count).
    pub app_index: usize,
    /// Required minimum throughput, if the request carries a contract.
    pub required_throughput: Option<Rational>,
    /// Affinity tag steering tag-aware routing (ignored by services without
    /// affinity routing).
    pub affinity: Option<String>,
    /// Explicit admission domain (fleet group) bypassing the service's
    /// routing; `None` lets the service route.
    pub target: Option<usize>,
    /// Causal span context minted at the outermost layer that saw the
    /// request (the remote client); layers derive child spans
    /// from it. Trailing `skip_none` field: requests to and from peers
    /// that predate spans interop byte-identically.
    #[serde(skip_none)]
    pub span: Option<SpanContext>,
}

impl AdmissionRequest {
    /// Request for an instance of application `app_index`, routed by the
    /// service, with no contract.
    pub fn new(app_index: usize) -> AdmissionRequest {
        AdmissionRequest {
            app_index,
            ..AdmissionRequest::default()
        }
    }

    /// Demands a minimum throughput.
    #[must_use]
    pub fn with_contract(mut self, required_throughput: Rational) -> AdmissionRequest {
        self.required_throughput = Some(required_throughput);
        self
    }

    /// Steers affinity-aware routing.
    #[must_use]
    pub fn with_affinity(mut self, tag: impl Into<String>) -> AdmissionRequest {
        self.affinity = Some(tag.into());
        self
    }

    /// Targets an explicit admission domain, bypassing routing.
    #[must_use]
    pub fn on(mut self, domain: usize) -> AdmissionRequest {
        self.target = Some(domain);
        self
    }

    /// Attaches an explicit span context (normally minted by the
    /// outermost layer, not by callers).
    #[must_use]
    pub fn with_span(mut self, span: SpanContext) -> AdmissionRequest {
        self.span = Some(span);
        self
    }
}

/// The shared decision vocabulary: what any [`AdmissionService`] answers.
///
/// The fleet decides in this shape directly, and it is the only shape
/// middleware layers and the remote transport ever see.
///
/// Serializable: decisions cross the [`remote`](crate::remote) wire with
/// exact rational periods and full violation lists.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionDecision {
    /// Admitted: the service holds the capacity under `resident` until
    /// [`release`](AdmissionService::release)d.
    Admitted {
        /// Service-scoped resident id keying the later release.
        resident: u64,
        /// Admission domain (fleet group) that decided.
        domain: usize,
        /// Period predicted for the new resident at admission time.
        predicted_period: Rational,
    },
    /// Rejected by throughput contracts; no capacity was consumed.
    Rejected {
        /// Admission domain that decided.
        domain: usize,
        /// Every violated requirement.
        violations: Vec<Violation>,
    },
    /// The routed domain had no free capacity; no capacity was consumed.
    Saturated {
        /// Admission domain that decided.
        domain: usize,
    },
}

impl AdmissionDecision {
    /// `true` iff admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, AdmissionDecision::Admitted { .. })
    }

    /// The resident id, if admitted.
    pub fn resident(&self) -> Option<u64> {
        match self {
            AdmissionDecision::Admitted { resident, .. } => Some(*resident),
            _ => None,
        }
    }

    /// The admission domain that decided.
    pub fn domain(&self) -> usize {
        match self {
            AdmissionDecision::Admitted { domain, .. }
            | AdmissionDecision::Rejected { domain, .. }
            | AdmissionDecision::Saturated { domain } => *domain,
        }
    }
}

impl fmt::Display for AdmissionDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionDecision::Admitted {
                resident,
                domain,
                predicted_period,
            } => write!(
                f,
                "admitted #{resident} on domain {domain} (predicted period {predicted_period})"
            ),
            AdmissionDecision::Rejected { domain, violations } => {
                write!(
                    f,
                    "rejected on domain {domain} ({} violations)",
                    violations.len()
                )
            }
            AdmissionDecision::Saturated { domain } => write!(f, "saturated on domain {domain}"),
        }
    }
}

/// Why a service operation failed outright (as opposed to deciding a
/// rejection or saturation — those are [`AdmissionDecision`]s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The service has no workload spec bound (see
    /// [`AdmissionService::workload`]).
    NoWorkload,
    /// The resident id is not (or no longer) live on this service.
    UnknownResident(u64),
    /// The requested admission domain is out of range.
    UnknownDomain(usize),
    /// The service was stopped before deciding.
    Stopped,
    /// The configuration or an artefact was unusable (parse failures, …).
    Config(String),
    /// The underlying analysis failed; no decision was computed.
    Analysis(ContentionError),
    /// A remote transport failed before a decision arrived (disconnect,
    /// malformed frame, handshake refusal) — see [`crate::remote`]. The
    /// request may or may not have been decided by the far end.
    Transport(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::NoWorkload => write!(f, "service has no workload spec bound"),
            ServiceError::UnknownResident(r) => write!(f, "resident #{r} is not live"),
            ServiceError::UnknownDomain(d) => write!(f, "admission domain {d} out of range"),
            ServiceError::Stopped => write!(f, "service is stopped"),
            ServiceError::Config(e) => write!(f, "service configuration error: {e}"),
            ServiceError::Analysis(e) => write!(f, "analysis failure: {e}"),
            ServiceError::Transport(e) => write!(f, "transport failure: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Analysis(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ContentionError> for ServiceError {
    fn from(e: ContentionError) -> Self {
        ServiceError::Analysis(e)
    }
}

/// Rate and quantile summary of one operation class on one layer,
/// surfaced in the [`ServiceSnapshot`] ops table. All fields are plain
/// integers so snapshots stay `Eq` and wire-serializable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpRate {
    /// Operation class (`"admit"`, `"release"`, …).
    pub op: String,
    /// Operations recorded.
    pub count: u64,
    /// Operations per second since the layer started, rounded.
    pub ops_per_sec: u64,
    /// Mean latency in microseconds.
    pub mean_us: u64,
    /// Median latency in microseconds.
    pub p50_us: u64,
    /// 90th-percentile latency in microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile latency in microseconds.
    pub p999_us: u64,
    /// Maximum latency in microseconds.
    pub max_us: u64,
}

/// One middleware layer's own counters, surfaced through
/// [`AdmissionService::telemetry`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerMetrics {
    /// Layer name (`"fleet"`, `"cached"`, `"metered"`, `"traced"`,
    /// `"remote"`, …).
    pub layer: String,
    /// Ordered `(metric, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// Per-operation rate/quantile rows (empty on layers that do not
    /// time operations).
    pub ops: Vec<OpRate>,
}

impl LayerMetrics {
    /// Empty metrics for a named layer.
    pub fn new(layer: impl Into<String>) -> LayerMetrics {
        LayerMetrics {
            layer: layer.into(),
            counters: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Appends one counter.
    #[must_use]
    pub fn counter(mut self, name: impl Into<String>, value: u64) -> LayerMetrics {
        self.counters.push((name.into(), value));
        self
    }

    /// Appends one per-operation rate row.
    #[must_use]
    pub fn op_rate(mut self, rate: OpRate) -> LayerMetrics {
        self.ops.push(rate);
        self
    }
}

/// Point-in-time state of a whole service stack: the base service's
/// utilisation/outcome totals plus one [`LayerMetrics`] entry per layer,
/// innermost first. Serializable, so a [`RemoteClient`](crate::remote)
/// surfaces the far end's layer table as its own inner layers.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceSnapshot {
    /// Live residents.
    pub residents: usize,
    /// Total resident capacity.
    pub capacity: usize,
    /// Admissions granted.
    pub admitted: u64,
    /// Admissions rejected by throughput contracts.
    pub rejected: u64,
    /// Admissions bounced for lack of capacity.
    pub saturated: u64,
    /// Residents released.
    pub released: u64,
    /// Per-layer metrics, innermost layer first.
    pub layers: Vec<LayerMetrics>,
}

impl ServiceSnapshot {
    /// Resident/capacity ratio.
    pub fn utilisation(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.residents as f64 / self.capacity as f64
        }
    }

    /// Looks up one layer counter by layer and metric name.
    pub fn counter(&self, layer: &str, name: &str) -> Option<u64> {
        self.layers
            .iter()
            .filter(|l| l.layer == layer)
            .flat_map(|l| l.counters.iter())
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Renders the per-layer metrics table printed by
    /// `probcon fleet-bench`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "service: {}/{} residents ({:.0}% util), {} admitted, {} rejected, \
             {} saturated, {} released",
            self.residents,
            self.capacity,
            100.0 * self.utilisation(),
            self.admitted,
            self.rejected,
            self.saturated,
            self.released,
        );
        if self.layers.is_empty() {
            return out;
        }
        let _ = writeln!(out, "{:<12} {:<26} {:>14}", "layer", "metric", "value");
        for layer in &self.layers {
            for (name, value) in &layer.counters {
                let _ = writeln!(out, "{:<12} {:<26} {:>14}", layer.layer, name, value);
            }
        }
        if self.layers.iter().any(|l| !l.ops.is_empty()) {
            let _ = writeln!(
                out,
                "{:<12} {:<10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                "layer",
                "op",
                "count",
                "ops/s",
                "mean_us",
                "p50_us",
                "p90_us",
                "p99_us",
                "p999_us",
                "max_us"
            );
            for layer in &self.layers {
                for rate in &layer.ops {
                    let _ = writeln!(
                        out,
                        "{:<12} {:<10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                        layer.layer,
                        rate.op,
                        rate.count,
                        rate.ops_per_sec,
                        rate.mean_us,
                        rate.p50_us,
                        rate.p90_us,
                        rate.p99_us,
                        rate.p999_us,
                        rate.max_us
                    );
                }
            }
        }
        out
    }
}

/// The unified admission-service abstraction (see the [module docs](self)).
///
/// Implementations decide **without blocking for capacity**: a full domain
/// answers [`AdmissionDecision::Saturated`] immediately; a caller that
/// wants to wait for capacity retries. Every method takes `&self`; all
/// implementations in this crate are thread-safe.
pub trait AdmissionService: Send + Sync {
    /// Decides one admission request.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when no decision could be computed; rejection and
    /// saturation are decisions, not errors.
    fn admit(&self, request: &AdmissionRequest) -> Result<AdmissionDecision, ServiceError>;

    /// Releases a resident admitted through this service.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownResident`] when not (or no longer) live.
    fn release(&self, resident: u64) -> Result<(), ServiceError>;

    /// The workload spec requests index into (`None` when unbound).
    fn workload(&self) -> Option<&SystemSpec>;

    /// Estimates all per-application periods of `use_case` under `method`.
    ///
    /// The default implementation computes a fresh estimate from the
    /// workload spec; a [`Cached`] layer serves repeats from its LRU.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NoWorkload`] / [`ServiceError::Analysis`].
    fn estimate(&self, use_case: UseCase, method: Method) -> Result<Arc<Estimate>, ServiceError> {
        let spec = self.workload().ok_or(ServiceError::NoWorkload)?;
        Ok(Arc::new(contention::estimate(spec, use_case, method)?))
    }

    /// Live telemetry for the whole stack — the one way a layer reports
    /// itself: the base service's totals, one [`LayerMetrics`] row per
    /// layer (innermost first), full per-op latency distributions and
    /// flight-recorder stats.
    ///
    /// Each layer calls its inner service's `telemetry()` and adds its own
    /// facts once; a [`RemoteClient`](crate::RemoteClient) fetches the far
    /// end's view over the wire. Observing has no side effects: two calls
    /// in a row report the same counts, and no layer meters the call.
    fn telemetry(&self) -> TelemetrySnapshot;

    /// The layered totals and counters of [`telemetry`](Self::telemetry),
    /// without its distributions or flight-recorder stats. Layers report
    /// through `telemetry` alone and keep this provided body.
    fn snapshot(&self) -> ServiceSnapshot {
        self.telemetry().service
    }

    /// Up to the last `limit` flight-recorder events, oldest first.
    ///
    /// Empty by default; a [`Traced`](crate::Traced) layer answers from
    /// its ring buffer, middleware forwards inward, and a
    /// [`RemoteClient`](crate::RemoteClient) fetches the far end's tail.
    fn trace_tail(&self, limit: usize) -> Vec<TraceEvent> {
        let _ = limit;
        Vec::new()
    }

    /// The stack's shared flight recorder, if one is present — how a
    /// server layer records transport spans (frame decode, dispatch)
    /// into the same ring as the decision layers. Middleware forwards
    /// inward; a [`Traced`](crate::Traced) layer answers its own.
    fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        None
    }
}

impl<S: AdmissionService + ?Sized> AdmissionService for Arc<S> {
    fn admit(&self, request: &AdmissionRequest) -> Result<AdmissionDecision, ServiceError> {
        (**self).admit(request)
    }

    fn release(&self, resident: u64) -> Result<(), ServiceError> {
        (**self).release(resident)
    }

    fn workload(&self) -> Option<&SystemSpec> {
        (**self).workload()
    }

    fn estimate(&self, use_case: UseCase, method: Method) -> Result<Arc<Estimate>, ServiceError> {
        (**self).estimate(use_case, method)
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        (**self).telemetry()
    }

    fn trace_tail(&self, limit: usize) -> Vec<TraceEvent> {
        (**self).trace_tail(limit)
    }

    fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        (**self).trace_recorder()
    }
}

// ---------------------------------------------------------------------------
// Completions: the wait handle for pipelined remote calls.
// ---------------------------------------------------------------------------

struct CompletionState<T> {
    slot: Mutex<Option<Result<T, ServiceError>>>,
    cond: Condvar,
}

impl<T: fmt::Debug> fmt::Debug for CompletionState<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompletionState")
            .field("slot", &self.slot)
            .finish_non_exhaustive()
    }
}

/// A one-shot completion: the receiving half of a pipelined
/// [`RemoteClient`](crate::RemoteClient) call
/// ([`submit`](crate::RemoteClient::submit), or
/// [`submit_release`](crate::RemoteClient::submit_release), which
/// completes with `()`), filled by the client's reader thread when the
/// correlated response arrives.
///
/// Block on [`wait`](Completion::wait); the result can be read any number
/// of times, from any clone.
#[derive(Debug)]
pub struct Completion<T = AdmissionDecision> {
    state: Arc<CompletionState<T>>,
}

impl<T> Clone for Completion<T> {
    fn clone(&self) -> Self {
        Completion {
            state: Arc::clone(&self.state),
        }
    }
}

/// The fulfilling half of a pending [`Completion`]. Dropping a completer
/// without completing delivers [`ServiceError::Stopped`] — a submission can
/// never be silently lost.
#[derive(Debug)]
pub(crate) struct Completer<T = AdmissionDecision> {
    state: Arc<CompletionState<T>>,
    done: bool,
}

impl<T: Clone> Completion<T> {
    /// A pending completion and its fulfilling half.
    pub(crate) fn pending() -> (Completer<T>, Completion<T>) {
        let state = Arc::new(CompletionState {
            slot: Mutex::new(None),
            cond: Condvar::new(),
        });
        (
            Completer {
                state: Arc::clone(&state),
                done: false,
            },
            Completion { state },
        )
    }

    /// Blocks until the result arrives.
    pub fn wait(&self) -> Result<T, ServiceError> {
        let mut slot = lock(&self.state.slot);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self
                .state
                .cond
                .wait(slot)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

impl<T> Completer<T> {
    /// Delivers the result, waking every waiter.
    pub(crate) fn complete(mut self, result: Result<T, ServiceError>) {
        self.fill(result);
    }

    fn fill(&mut self, result: Result<T, ServiceError>) {
        if self.done {
            return;
        }
        self.done = true;
        let mut slot = lock(&self.state.slot);
        if slot.is_none() {
            *slot = Some(result);
        }
        drop(slot);
        self.state.cond.notify_all();
    }
}

impl<T> Drop for Completer<T> {
    fn drop(&mut self) {
        self.fill(Err(ServiceError::Stopped));
    }
}

// ---------------------------------------------------------------------------
// Base implementation: FleetManager.
// ---------------------------------------------------------------------------

/// Fresh instance + node assignment of the spec's application `app_index`
/// (reduced modulo the application count).
pub(crate) fn instantiate(spec: &SystemSpec, app_index: usize) -> (Application, Vec<NodeId>) {
    let id = AppId(app_index % spec.application_count());
    let app = spec.application(id).clone();
    let assignment = app
        .graph()
        .actor_ids()
        .map(|actor| spec.node_of(id, actor))
        .collect();
    (app, assignment)
}

impl AdmissionService for FleetManager {
    /// Decides on `request.target` as an explicit group, or on the group
    /// the fleet's routing policy picks, and journals the decision in the
    /// fleet's own journal. When a flight recorder is
    /// [attached](FleetManager::attach_trace) and the request is traced,
    /// the decision is also recorded as the innermost
    /// [`TraceKind::FleetAdmit`] span.
    fn admit(&self, request: &AdmissionRequest) -> Result<AdmissionDecision, ServiceError> {
        let start = Instant::now();
        // Targeted admissions journal the affinity tag too: it does not
        // steer the decision (the target does), but replays re-record the
        // recorded stream byte for byte only if the entry carries it.
        let affinity = request.affinity.as_deref();
        let group = request.target.unwrap_or_else(|| self.route(affinity));
        let decision = self
            .admit_on(
                group,
                request.app_index,
                request.required_throughput,
                affinity,
            )
            .map_err(|e| match e {
                FleetError::UnknownGroup(g) => ServiceError::UnknownDomain(g),
                FleetError::Stopped => ServiceError::Stopped,
                FleetError::Analysis(e) => ServiceError::Analysis(e),
                e => ServiceError::Config(e.to_string()),
            })?;
        if let Some(recorder) = self.attached_trace() {
            if SpanScope::current().is_some() || request.span.is_some() {
                recorder.record(
                    TraceEvent::new(TraceKind::FleetAdmit)
                        .app(request.app_index)
                        .domain(decision.domain())
                        .duration(start.elapsed()),
                );
            }
        }
        Ok(decision)
    }

    fn release(&self, resident: u64) -> Result<(), ServiceError> {
        if self.release_resident(resident) {
            Ok(())
        } else {
            Err(ServiceError::UnknownResident(resident))
        }
    }

    fn workload(&self) -> Option<&SystemSpec> {
        Some(self.spec())
    }

    /// The fleet's totals, a `"fleet"` layer of fleet-wide counters and a
    /// `"fleet-groups"` layer carrying each group's residents, capacity,
    /// utilisation, outcome counts and retired flag.
    fn telemetry(&self) -> TelemetrySnapshot {
        let snapshot = FleetManager::snapshot(self);
        let kernel = self.kernel_counters();
        let mut groups = LayerMetrics::new("fleet-groups");
        for group in &snapshot.groups {
            let name = &group.name;
            groups = groups
                .counter(format!("{name}_residents"), group.residents as u64)
                .counter(format!("{name}_capacity"), group.capacity as u64)
                .counter(format!("{name}_util_percent"), group.utilisation_percent())
                .counter(format!("{name}_admitted"), group.admitted)
                .counter(format!("{name}_rejected"), group.rejected)
                .counter(format!("{name}_saturated"), group.saturated)
                .counter(format!("{name}_retired"), u64::from(group.retired));
        }
        TelemetrySnapshot::from_service(ServiceSnapshot {
            residents: snapshot.residents,
            capacity: snapshot.capacity,
            admitted: snapshot.admitted,
            rejected: snapshot.rejected,
            saturated: snapshot.saturated,
            released: snapshot.released,
            layers: vec![
                LayerMetrics::new("fleet")
                    .counter("groups", self.group_count() as u64)
                    .counter("rebalances", snapshot.rebalances)
                    .counter("resizes", snapshot.resizes)
                    .counter("resize_refusals", snapshot.resize_refusals)
                    .counter("journal_entries", self.journal().len() as u64)
                    .counter("period_analyses", kernel.period_analyses)
                    .counter("contract_free_skipped", kernel.contract_free_skipped),
                groups,
            ],
        })
    }

    fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.attached_trace().cloned()
    }
}

// ---------------------------------------------------------------------------
// Middleware: Cached, Metered.
// ---------------------------------------------------------------------------

/// Estimate-caching middleware: serves
/// [`estimate`](AdmissionService::estimate) requests from an LRU
/// [`EstimateCache`] keyed by (spec fingerprint, use-case mask, method),
/// passing admissions straight through — decisions are untouched in any
/// layer order.
///
/// The layer surfaces its own hit/miss/entry counters through
/// [`telemetry`](AdmissionService::telemetry) under the `"cached"` layer, and
/// can be pre-populated from a sign-off artefact with
/// [`warm_from_signoff`](Cached::warm_from_signoff).
#[derive(Debug)]
pub struct Cached<S> {
    inner: S,
    cache: EstimateCache,
    fingerprint: OnceLock<u64>,
    warmed: AtomicU64,
    trace: OnceLock<Arc<TraceRecorder>>,
}

impl<S: AdmissionService> Cached<S> {
    /// Caching layer retaining up to `capacity` estimates.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(inner: S, capacity: usize) -> Cached<S> {
        Cached {
            inner,
            cache: EstimateCache::new(capacity),
            fingerprint: OnceLock::new(),
            warmed: AtomicU64::new(0),
            trace: OnceLock::new(),
        }
    }

    /// Attaches a flight recorder: every estimate served afterwards is
    /// recorded as a [`TraceKind::Estimate`](crate::TraceKind)
    /// event with its cache hit/miss attribution. Attach the recorder of
    /// the stack's outer [`Traced`](crate::Traced) layer to see cache
    /// behaviour inline with decisions. The first attachment wins.
    pub fn attach_trace(&self, recorder: Arc<TraceRecorder>) {
        let _ = self.trace.set(recorder);
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The layer's estimate cache (for direct inspection).
    pub fn cache(&self) -> &EstimateCache {
        &self.cache
    }

    /// Estimates warmed in via [`warm_from_signoff`](Self::warm_from_signoff).
    pub fn warmed(&self) -> u64 {
        self.warmed.load(Ordering::Relaxed)
    }

    fn spec_fingerprint(&self) -> Option<u64> {
        if let Some(f) = self.fingerprint.get() {
            return Some(*f);
        }
        let spec = self.inner.workload()?;
        let f = EstimateCache::fingerprint(spec);
        Some(*self.fingerprint.get_or_init(|| f))
    }

    /// Pre-populates the cache from a sign-off artefact: every one of the
    /// `2ⁿ − 1` use-cases the report enumerated is estimated (with the
    /// report's method) and inserted **before traffic arrives**, so online
    /// estimate requests hit a warm cache. Warming bypasses the hit/miss
    /// counters — the reported hit rate describes traffic only.
    ///
    /// Returns the number of warmed entries.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Config`] when the report's method does not parse,
    /// [`ServiceError::NoWorkload`] when the service has no spec, and any
    /// estimation failure. The report must describe the service's workload.
    pub fn warm_from_signoff(&self, report: &SignOffReport) -> Result<usize, ServiceError> {
        let method: Method = report.method.parse().map_err(ServiceError::Config)?;
        let fingerprint = self.spec_fingerprint().ok_or(ServiceError::NoWorkload)?;
        let mut warmed = 0usize;
        for use_case in UseCase::iter_all(report.apps.len()) {
            let estimate = self.inner.estimate(use_case, method)?;
            self.cache.insert(
                CacheKey {
                    fingerprint,
                    use_case_mask: use_case.mask(),
                    method,
                },
                estimate,
            );
            warmed += 1;
        }
        self.warmed.fetch_add(warmed as u64, Ordering::Relaxed);
        Ok(warmed)
    }

    fn trace_estimate(&self, hit: bool, start: Instant) {
        if let Some(recorder) = self.trace.get() {
            recorder.record(
                TraceEvent::new(TraceKind::Estimate)
                    .cache(hit)
                    .duration(start.elapsed()),
            );
        }
    }
}

impl<S: AdmissionService> AdmissionService for Cached<S> {
    fn admit(&self, request: &AdmissionRequest) -> Result<AdmissionDecision, ServiceError> {
        self.inner.admit(request)
    }

    fn release(&self, resident: u64) -> Result<(), ServiceError> {
        self.inner.release(resident)
    }

    fn workload(&self) -> Option<&SystemSpec> {
        self.inner.workload()
    }

    fn estimate(&self, use_case: UseCase, method: Method) -> Result<Arc<Estimate>, ServiceError> {
        let start = Instant::now();
        let Some(fingerprint) = self.spec_fingerprint() else {
            return self.inner.estimate(use_case, method); // surfaces NoWorkload
        };
        let key = CacheKey {
            fingerprint,
            use_case_mask: use_case.mask(),
            method,
        };
        if let Some(hit) = self.cache.lookup(&key) {
            self.trace_estimate(true, start);
            return Ok(hit);
        }
        let estimate = self.inner.estimate(use_case, method)?;
        self.cache.insert(key, Arc::clone(&estimate));
        self.trace_estimate(false, start);
        Ok(estimate)
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        let mut telemetry = self.inner.telemetry();
        telemetry.service.layers.push(
            LayerMetrics::new("cached")
                .counter("hits", self.cache.hits())
                .counter("misses", self.cache.misses())
                .counter("entries", self.cache.len() as u64)
                .counter("capacity", self.cache.capacity() as u64)
                .counter("warmed", self.warmed()),
        );
        telemetry
    }

    fn trace_tail(&self, limit: usize) -> Vec<TraceEvent> {
        self.inner.trace_tail(limit)
    }

    fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.inner.trace_recorder()
    }
}

/// The operation classes a [`Metered`] layer samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceOp {
    /// [`AdmissionService::admit`] calls.
    Admit,
    /// [`AdmissionService::release`] calls.
    Release,
    /// [`AdmissionService::estimate`] calls.
    Estimate,
}

const SERVICE_OPS: [ServiceOp; 3] = [ServiceOp::Admit, ServiceOp::Release, ServiceOp::Estimate];

impl ServiceOp {
    fn index(self) -> usize {
        self as usize
    }

    /// Lower-case operation name used in layer metrics.
    pub fn name(self) -> &'static str {
        match self {
            ServiceOp::Admit => "admit",
            ServiceOp::Release => "release",
            ServiceOp::Estimate => "estimate",
        }
    }
}

/// Latency/throughput middleware: samples the wall-clock latency of every
/// operation against the wrapped service into bounded
/// [`LatencyHistogram`]s and surfaces order statistics (count, mean,
/// p50…p999, max) per class. Memory stays flat no matter how many
/// operations are recorded.
#[derive(Debug)]
pub struct Metered<S> {
    inner: S,
    stats: [HistogramRecorder; 3],
    started: Instant,
}

impl<S: AdmissionService> Metered<S> {
    /// Metering layer over `inner`.
    pub fn new(inner: S) -> Metered<S> {
        Metered {
            inner,
            stats: Default::default(),
            started: Instant::now(),
        }
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The bounded latency distribution for one operation class
    /// (quantiles carry ≤ 1/16 relative error; count, mean and max are
    /// exact).
    pub fn histogram(&self, op: ServiceOp) -> LatencyHistogram {
        self.stats[op.index()].snapshot()
    }

    fn record<T>(&self, op: ServiceOp, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let result = f();
        self.stats[op.index()].record_duration(start.elapsed());
        result
    }
}

impl<S: AdmissionService> AdmissionService for Metered<S> {
    fn admit(&self, request: &AdmissionRequest) -> Result<AdmissionDecision, ServiceError> {
        self.record(ServiceOp::Admit, || self.inner.admit(request))
    }

    fn release(&self, resident: u64) -> Result<(), ServiceError> {
        self.record(ServiceOp::Release, || self.inner.release(resident))
    }

    fn workload(&self) -> Option<&SystemSpec> {
        self.inner.workload()
    }

    fn estimate(&self, use_case: UseCase, method: Method) -> Result<Arc<Estimate>, ServiceError> {
        self.record(ServiceOp::Estimate, || {
            self.inner.estimate(use_case, method)
        })
    }

    /// The inner view plus a `"metered"` layer with one [`OpRate`] row
    /// per active class — the one place a class's count, rate, mean and
    /// quantiles are rendered; its `ops_per_sec` is the rate since the
    /// layer started — and each class's full distribution.
    fn telemetry(&self) -> TelemetrySnapshot {
        let mut telemetry = self.inner.telemetry();
        let elapsed = self.started.elapsed();
        let mut layer = LayerMetrics::new("metered");
        for op in SERVICE_OPS {
            let hist = self.histogram(op);
            if !hist.is_empty() {
                layer = layer.op_rate(op_rate(op.name(), &hist, elapsed));
                telemetry.push_histogram("metered", op.name(), hist);
            }
        }
        telemetry.service.layers.push(layer);
        telemetry
    }

    fn trace_tail(&self, limit: usize) -> Vec<TraceEvent> {
        self.inner.trace_tail(limit)
    }

    fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.inner.trace_recorder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetConfig, RoutingPolicy};
    use crate::journal::journaled;
    use platform::{Application, Mapping};
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

    fn fleet(groups: usize, capacity: usize) -> FleetManager {
        FleetManager::new(
            spec(),
            FleetConfig::uniform(groups, 1, capacity, RoutingPolicy::LeastUtilised),
        )
        .unwrap()
    }

    #[test]
    fn request_builder_composes() {
        let request = AdmissionRequest::new(3)
            .with_contract(Rational::new(1, 400))
            .with_affinity("uc1")
            .on(2);
        assert_eq!(request.app_index, 3);
        assert_eq!(request.required_throughput, Some(Rational::new(1, 400)));
        assert_eq!(request.affinity.as_deref(), Some("uc1"));
        assert_eq!(request.target, Some(2));
    }

    #[test]
    fn fleet_service_roundtrip_and_conversions() {
        let f = FleetManager::new(
            spec(),
            FleetConfig::uniform(2, 1, 2, RoutingPolicy::Affinity),
        )
        .unwrap();
        let decision =
            AdmissionService::admit(&f, &AdmissionRequest::new(0).with_affinity("uc1")).unwrap();
        assert!(decision.is_admitted());
        assert_eq!(decision.domain(), 1); // affinity routes to the tagged group
        let resident = decision.resident().unwrap();
        assert_eq!(f.resident_count(), 1);

        // Contract rejection converts with its violations.
        let iso = spec().application(AppId(0)).isolation_throughput();
        let rejected =
            AdmissionService::admit(&f, &AdmissionRequest::new(0).on(1).with_contract(iso))
                .unwrap();
        assert!(matches!(
            rejected,
            AdmissionDecision::Rejected { domain: 1, .. }
        ));
        // An out-of-range target is an unknown domain, decided nowhere.
        assert_eq!(
            AdmissionService::admit(&f, &AdmissionRequest::new(0).on(99)).unwrap_err(),
            ServiceError::UnknownDomain(99)
        );

        f.release(resident).unwrap();
        assert_eq!(f.resident_count(), 0);
        assert_eq!(
            f.release(resident).unwrap_err(),
            ServiceError::UnknownResident(resident)
        );
        // Admit + reject + release all landed in the fleet's own journal.
        assert_eq!(f.journal().len(), 3);
        assert_eq!(
            AdmissionService::snapshot(&f).counter("fleet", "journal_entries"),
            Some(3)
        );
    }

    #[test]
    fn cached_layer_is_decision_transparent_and_caches_estimates() {
        let bare = fleet(2, 2);
        let cached = Cached::new(fleet(2, 2), 16);

        let request = AdmissionRequest::new(0);
        assert_eq!(
            AdmissionService::admit(&bare, &request).unwrap(),
            cached.admit(&request).unwrap()
        );

        let uc = UseCase::full(2);
        let first = cached.estimate(uc, Method::SECOND_ORDER).unwrap();
        let second = cached.estimate(uc, Method::SECOND_ORDER).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((cached.cache().hits(), cached.cache().misses()), (1, 1));
        let snapshot = cached.snapshot();
        assert_eq!(snapshot.counter("cached", "hits"), Some(1));
        assert_eq!(snapshot.counter("cached", "misses"), Some(1));
    }

    #[test]
    fn cached_warm_from_signoff_prepopulates_without_counting() {
        let cached = Cached::new(fleet(2, 4), 16);
        let report = experiments::signoff::sign_off(&spec(), Method::Composability, None).unwrap();
        let warmed = cached.warm_from_signoff(&report).unwrap();
        assert_eq!(warmed, 3); // 2² − 1 use-cases
        assert_eq!(cached.warmed(), 3);
        assert_eq!(cached.cache().len(), 3);
        // Warming bypassed the counters; the first traffic lookup hits.
        assert_eq!((cached.cache().hits(), cached.cache().misses()), (0, 0));
        cached
            .estimate(UseCase::full(2), Method::Composability)
            .unwrap();
        assert_eq!((cached.cache().hits(), cached.cache().misses()), (1, 0));
        // A garbage method name is a configuration error.
        let mut bad = report;
        bad.method = "bogus".to_string();
        assert!(matches!(
            cached.warm_from_signoff(&bad).unwrap_err(),
            ServiceError::Config(_)
        ));
    }

    #[test]
    fn metered_layer_samples_every_class() {
        let metered = Metered::new(Cached::new(fleet(2, 4), 8));
        let decision = metered.admit(&AdmissionRequest::new(0)).unwrap();
        metered
            .estimate(UseCase::full(2), Method::Composability)
            .unwrap();
        // Observing is not traffic: no layer meters the read.
        let _probe = metered.snapshot();
        metered.release(decision.resident().unwrap()).unwrap();
        assert_eq!(metered.histogram(ServiceOp::Admit).count(), 1);
        assert_eq!(metered.histogram(ServiceOp::Estimate).count(), 1);
        assert_eq!(metered.histogram(ServiceOp::Release).count(), 1);
        let snapshot = metered.snapshot();
        // Every active class surfaces one OpRate row and no counters:
        // the row is the one rendering of the class.
        let metered_layer = snapshot
            .layers
            .iter()
            .find(|l| l.layer == "metered")
            .unwrap();
        let ops: Vec<&str> = metered_layer.ops.iter().map(|r| r.op.as_str()).collect();
        assert_eq!(ops, ["admit", "release", "estimate"]);
        assert!(metered_layer.counters.is_empty());
        let admit = metered_layer.ops.iter().find(|r| r.op == "admit").unwrap();
        assert_eq!(admit.count, 1);
        assert!(admit.mean_us <= admit.max_us);
        assert_eq!(snapshot.counter("metered", "admit_count"), None);
        // The stack renders the consistent per-layer table.
        let table = snapshot.render();
        for needle in [
            "service:", "layer", "cached", "metered", "hits", "mean_us", "p999_us",
        ] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
        // Telemetry carries the full distributions.
        let telemetry = metered.telemetry();
        assert!(telemetry.histogram("metered", "admit").is_some());
        assert!(telemetry.histogram("cached", "admit").is_none());
    }

    /// Golden-output test pinning the exact `ServiceSnapshot::render()`
    /// format (satellite of ISSUE 6) so the table stops drifting.
    #[test]
    fn snapshot_render_golden_output() {
        let snapshot = ServiceSnapshot {
            residents: 4,
            capacity: 8,
            admitted: 120,
            rejected: 5,
            saturated: 2,
            released: 116,
            layers: vec![
                LayerMetrics::new("fleet").counter("groups", 2),
                LayerMetrics::new("cached").counter("hits", 242),
                LayerMetrics::new("metered").op_rate(OpRate {
                    op: "admit".to_string(),
                    count: 120,
                    ops_per_sec: 40,
                    mean_us: 236,
                    p50_us: 210,
                    p90_us: 300,
                    p99_us: 480,
                    p999_us: 1200,
                    max_us: 1500,
                }),
            ],
        };
        let expected = "\
service: 4/8 residents (50% util), 120 admitted, 5 rejected, 2 saturated, 116 released
layer        metric                              value
fleet        groups                                  2
cached       hits                                  242
layer        op              count    ops/s  mean_us   p50_us   p90_us   p99_us  p999_us   max_us
metered      admit             120       40      236      210      300      480     1200     1500
";
        assert_eq!(snapshot.render(), expected);
    }

    #[test]
    fn composition_order_is_equivalent() {
        let (fa, fb) = (fleet(2, 2), fleet(2, 2));
        let a = Cached::new(Metered::new(fa.clone()), 8);
        let b = Metered::new(Cached::new(fb.clone(), 8));
        let bare = fleet(2, 2);
        let requests = [
            AdmissionRequest::new(0),
            AdmissionRequest::new(1).with_contract(Rational::new(1, 300)),
            AdmissionRequest::new(0).on(0),
            AdmissionRequest::new(1),
        ];
        for request in &requests {
            let expected = AdmissionService::admit(&bare, request).unwrap();
            assert_eq!(a.admit(request).unwrap(), expected);
            assert_eq!(b.admit(request).unwrap(), expected);
        }
        // Either order leaves the fleet's journal identical to the bare
        // fleet's.
        assert_eq!(journaled(fa.journal()), journaled(bare.journal()));
        assert_eq!(journaled(fb.journal()), journaled(bare.journal()));
    }

    #[test]
    fn completion_wait_clone_and_drop_semantics() {
        let (completer, completion) = Completion::pending();
        let waiter = {
            let completion = completion.clone();
            std::thread::spawn(move || completion.wait())
        };
        completer.complete(Ok(AdmissionDecision::Saturated { domain: 7 }));
        assert_eq!(
            waiter.join().unwrap().unwrap(),
            AdmissionDecision::Saturated { domain: 7 }
        );
        // The decision can be read repeatedly.
        assert_eq!(
            completion.wait().unwrap(),
            AdmissionDecision::Saturated { domain: 7 }
        );

        // Dropping a completer without completing delivers Stopped.
        let (dropped, orphan) = Completion::<AdmissionDecision>::pending();
        drop(dropped);
        assert_eq!(orphan.wait().unwrap_err(), ServiceError::Stopped);
    }

    #[test]
    fn arc_dyn_stack_composes() {
        let stack: Arc<dyn AdmissionService> = Arc::new(Cached::new(fleet(2, 2), 8));
        let metered = Metered::new(Arc::clone(&stack));
        let decision = metered.admit(&AdmissionRequest::new(0)).unwrap();
        assert!(decision.is_admitted());
        assert!(metered.workload().is_some());
        metered.release(decision.resident().unwrap()).unwrap();
        fn is_send_sync<T: Send + Sync>() {}
        is_send_sync::<Arc<dyn AdmissionService>>();
    }
}
