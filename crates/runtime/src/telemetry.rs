//! Structured tracing, bounded latency histograms and live telemetry
//! exposition for the admission stack.
//!
//! Three pieces make the runtime's behaviour a first-class measurable
//! signal:
//!
//! * [`LatencyHistogram`] — an HDR-style log-bucketed histogram
//!   (power-of-two buckets with [`SUB_BUCKETS`] linear sub-buckets per
//!   octave, ≤ 1/16 relative error) whose memory is bounded by
//!   [`BUCKET_COUNT`] regardless of traffic volume. Histograms are
//!   mergeable and serde-able; [`HistogramRecorder`] is the lock-free
//!   atomic writer side used inside middleware.
//! * [`TraceRecorder`] / [`TraceEvent`] — a fixed-capacity ring-buffer
//!   flight recorder of structured decision events, fed by the
//!   [`Traced`] middleware (which composes like
//!   [`Cached`](crate::Cached) / [`Metered`](crate::Metered)), by the
//!   fleet's innermost admit span, and by instrumentation points in the
//!   remote server.
//! * [`TelemetrySnapshot`] — the exposition surface aggregating the
//!   [`ServiceSnapshot`] of every layer plus full latency distributions
//!   and flight-recorder stats, answered by every
//!   [`AdmissionService`] via
//!   [`telemetry`](crate::AdmissionService::telemetry), forwarded
//!   transparently over the wire, and renderable as a human table
//!   ([`TelemetrySnapshot::render`]) or Prometheus-style text
//!   ([`TelemetrySnapshot::render_prometheus`]).

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use contention::{Estimate, Method};
use platform::{SystemSpec, UseCase};
use serde::{Deserialize, Serialize};

use crate::journal::ClientScope;
use crate::service::{
    AdmissionDecision, AdmissionRequest, AdmissionService, LayerMetrics, OpRate, ServiceError,
    ServiceSnapshot,
};

/// Number of linear sub-buckets per power-of-two octave (16 → worst-case
/// relative quantile error of 1/16 ≈ 6.25%).
pub const SUB_BUCKETS: u64 = 16;

const SUB_BITS: u32 = 4;

/// Total number of distinct histogram buckets covering the full `u64`
/// microsecond range. This bounds histogram memory at any traffic volume.
pub const BUCKET_COUNT: usize = ((64 - SUB_BITS as usize) * SUB_BUCKETS as usize) + 16;

/// Maps a microsecond value onto its bucket index.
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let msb = 63 - u64::from(value.leading_zeros());
    let sub = (value >> (msb - u64::from(SUB_BITS))) & (SUB_BUCKETS - 1);
    ((msb - u64::from(SUB_BITS) + 1) * SUB_BUCKETS + sub) as usize
}

/// Lowest microsecond value falling into `index` (the bucket's
/// representative value for quantile reads).
fn bucket_floor(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let block = index / SUB_BUCKETS;
    let sub = index % SUB_BUCKETS;
    let msb = block + u64::from(SUB_BITS) - 1;
    (SUB_BUCKETS + sub) << (msb - u64::from(SUB_BITS))
}

/// Bounded log-bucketed latency histogram (HDR-style: power-of-two
/// octaves split into [`SUB_BUCKETS`] linear sub-buckets).
///
/// Memory is O([`BUCKET_COUNT`]) no matter how many samples are
/// recorded; quantile reads are O(buckets) and carry at most 1/16
/// relative error (min, max, mean and count stay exact). Histograms
/// merge losslessly: merging N shard histograms is identical to having
/// recorded every sample into one (see the proptest in
/// `tests/telemetry.rs`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// Sparse `(bucket index, sample count)` pairs sorted by index.
    buckets: Vec<(u64, u64)>,
}

impl LatencyHistogram {
    /// Fresh empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one sample, in microseconds.
    pub fn record(&mut self, micros: u64) {
        self.record_n(micros, 1);
    }

    /// Records `n` occurrences of the same sample value.
    pub fn record_n(&mut self, micros: u64, n: u64) {
        if n == 0 {
            return;
        }
        if self.count == 0 {
            self.min = micros;
            self.max = micros;
        } else {
            self.min = self.min.min(micros);
            self.max = self.max.max(micros);
        }
        self.count += n;
        self.sum = self.sum.saturating_add(micros.saturating_mul(n));
        let index = bucket_index(micros) as u64;
        match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += n,
            Err(pos) => self.buckets.insert(pos, (index, n)),
        }
    }

    /// Merges another histogram into this one. The result is identical
    /// to having recorded all of `other`'s samples here directly.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for &(index, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += n,
                Err(pos) => self.buckets.insert(pos, (index, n)),
            }
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples in microseconds (saturating).
    pub fn sum_micros(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (exact; 0 when empty).
    pub fn min_micros(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (exact; 0 when empty).
    pub fn max_micros(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Arithmetic mean in microseconds (exact; 0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of occupied buckets (bounded by [`BUCKET_COUNT`]).
    pub fn bucket_len(&self) -> usize {
        self.buckets.len()
    }

    /// Value at quantile `q` in `[0, 1]`, in microseconds, with at most
    /// 1/16 relative error. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_floor(index as usize).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median, in microseconds.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile, in microseconds.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile, in microseconds.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile, in microseconds.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

/// Lock-free writer side of a [`LatencyHistogram`]: a dense array of
/// [`BUCKET_COUNT`] atomic counters sized ~8 KiB, shared by any number
/// of recording threads.
pub struct HistogramRecorder {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramRecorder {
    fn default() -> HistogramRecorder {
        HistogramRecorder::new()
    }
}

impl std::fmt::Debug for HistogramRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramRecorder")
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl HistogramRecorder {
    /// Fresh zeroed recorder.
    pub fn new() -> HistogramRecorder {
        let counts = (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect();
        HistogramRecorder {
            counts,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample, in microseconds.
    pub fn record(&self, micros: u64) {
        self.counts[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(micros, Ordering::Relaxed);
        self.min.fetch_min(micros, Ordering::Relaxed);
        self.max.fetch_max(micros, Ordering::Relaxed);
    }

    /// Records an elapsed [`Duration`].
    pub fn record_duration(&self, elapsed: Duration) {
        self.record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples in microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample recorded so far (0 when empty).
    pub fn max_micros(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Point-in-time copy as a mergeable [`LatencyHistogram`]. Under
    /// concurrent writers the copy is approximate (counters are read
    /// without a global lock) but each counter is monotone.
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (index, counter) in self.counts.iter().enumerate() {
            let n = counter.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((index as u64, n));
                count += n;
            }
        }
        let min = self.min.load(Ordering::Relaxed);
        LatencyHistogram {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 || min == u64::MAX {
                0
            } else {
                min
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

// ---------------------------------------------------------------------------
// Span contexts: the causal identity threaded through a request.
// ---------------------------------------------------------------------------

/// SplitMix64 finalizer: disperses the sequential mint counter into
/// ids that are unique across the process fleet with overwhelming
/// probability.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-process entropy mixed into every minted id so two processes (the
/// client and server halves of one trace) never collide.
fn process_entropy() -> u64 {
    static ENTROPY: OnceLock<u64> = OnceLock::new();
    *ENTROPY.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let pid = u64::from(std::process::id());
        let aslr = &ENTROPY as *const _ as u64;
        mix64(nanos ^ pid.rotate_left(32) ^ aslr)
    })
}

static NEXT_MINT: AtomicU64 = AtomicU64::new(1);

/// Mints a fleet-unique nonzero id (trace or span).
fn mint_id() -> u64 {
    let counter = NEXT_MINT.fetch_add(1, Ordering::Relaxed);
    let id = mix64(process_entropy().wrapping_add(counter));
    if id == 0 {
        1
    } else {
        id
    }
}

/// Causal identity of one operation within a request's span tree.
///
/// A context is minted once where a request enters the system
/// ([`RemoteClient::submit`](crate::RemoteClient::submit), or a local
/// caller's [`AdmissionRequest::with_span`]) and threaded through
/// [`AdmissionRequest`] — across the wire as a
/// trailing `skip_none` field, so peers that predate spans interop
/// byte-identically. Each layer that does real work derives a
/// [`child`](SpanContext::child) and records its [`TraceEvent`] against
/// it; [`build_span_trees`] reassembles the tree from the flat ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanContext {
    /// Identifier shared by every span of one end-to-end request.
    pub trace_id: u64,
    /// This span's own identifier.
    pub span_id: u64,
    /// The enclosing span; absent on a request's root span.
    #[serde(skip_none)]
    pub parent_span_id: Option<u64>,
}

impl SpanContext {
    /// Mints a fresh root context (new trace, no parent).
    pub fn root() -> SpanContext {
        SpanContext {
            trace_id: mint_id(),
            span_id: mint_id(),
            parent_span_id: None,
        }
    }

    /// Derives a child context in the same trace.
    #[must_use]
    pub fn child(&self) -> SpanContext {
        SpanContext {
            trace_id: self.trace_id,
            span_id: mint_id(),
            parent_span_id: Some(self.span_id),
        }
    }
}

std::thread_local! {
    static SPAN_SCOPE: std::cell::Cell<Option<SpanContext>> =
        const { std::cell::Cell::new(None) };
}

/// RAII guard making a [`SpanContext`] ambient **on this thread**: while
/// the guard lives, every [`TraceRecorder::record`] without an explicit
/// span is stamped as a fresh child of the scope, and layers that mint
/// their own child (like [`Traced`]) parent it here.
///
/// This mirrors [`ClientScope`]: the remote server
/// enters one scope per frame on the event loop deciding it, so the
/// whole downstack (traced layer, fleet, cache) emits parent-linked
/// spans without threading a context through every signature. Scopes
/// nest; dropping restores the previous one.
#[derive(Debug)]
pub struct SpanScope {
    previous: Option<SpanContext>,
}

impl SpanScope {
    /// Enters a scope: recordings on this thread are parented under
    /// `context` until the returned guard drops.
    pub fn enter(context: SpanContext) -> SpanScope {
        let previous = SPAN_SCOPE.with(|scope| scope.replace(Some(context)));
        SpanScope { previous }
    }

    /// The ambient span context on this thread, if any.
    pub fn current() -> Option<SpanContext> {
        SPAN_SCOPE.with(std::cell::Cell::get)
    }
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        SPAN_SCOPE.with(|scope| scope.set(self.previous.take()));
    }
}

/// Classifies a [`TraceEvent`] in the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// An admission was granted.
    Admit,
    /// An admission was rejected by a throughput contract.
    Reject,
    /// An admission bounced off a full domain.
    Saturate,
    /// A resident was released.
    Release,
    /// A fleet rebalance pass ran.
    Rebalance,
    /// A contention estimate was computed or served.
    Estimate,
    /// A remote server decoded one request frame off a connection.
    FrameDecode,
    /// A remote server decided one decoded frame on the event loop that
    /// read it: the served stack's call, response encoding excluded.
    Dispatch,
    /// The fleet manager decided an admission (innermost span).
    FleetAdmit,
}

impl TraceKind {
    /// Stable lowercase label used in renderings.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Admit => "admit",
            TraceKind::Reject => "reject",
            TraceKind::Saturate => "saturate",
            TraceKind::Release => "release",
            TraceKind::Rebalance => "rebalance",
            TraceKind::Estimate => "estimate",
            TraceKind::FrameDecode => "frame-decode",
            TraceKind::Dispatch => "dispatch",
            TraceKind::FleetAdmit => "fleet-admit",
        }
    }
}

/// One structured event in the flight recorder.
///
/// Construct with [`TraceEvent::new`] plus the builder setters; the
/// recorder stamps `seq`, `at_micros` and (when unset) the ambient
/// [`ClientScope`] on [`TraceRecorder::record`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Monotone per-recorder sequence number (the request id).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub at_micros: u64,
    /// Event class / decision.
    pub kind: TraceKind,
    /// Application index the event concerns (0 when not applicable).
    pub app_index: u64,
    /// Domain / group index that decided (0 when not applicable).
    pub domain: u64,
    /// Resident id granted or released, if any.
    pub resident: Option<u64>,
    /// Time the traced operation took, in microseconds.
    pub duration_micros: u64,
    /// For estimate events produced by a cache layer: whether the
    /// estimate was served from cache.
    pub cache_hit: Option<bool>,
    /// Remote client identity active when the event was recorded.
    pub client: Option<String>,
    /// Trace this event's span belongs to. Trailing `skip_none` fields:
    /// events from builds without spans parse unchanged.
    #[serde(skip_none)]
    pub trace_id: Option<u64>,
    /// The event's own span id within the trace.
    #[serde(skip_none)]
    pub span_id: Option<u64>,
    /// The enclosing span; absent on a trace's root span.
    #[serde(skip_none)]
    pub parent_span_id: Option<u64>,
    /// Timeline track (connection or worker-thread label) the event is
    /// rendered on by the Chrome-trace exporter.
    #[serde(skip_none)]
    pub track: Option<String>,
}

impl TraceEvent {
    /// Fresh event of the given kind; `seq`/`at_micros`/`client` are
    /// stamped by the recorder.
    pub fn new(kind: TraceKind) -> TraceEvent {
        TraceEvent {
            seq: 0,
            at_micros: 0,
            kind,
            app_index: 0,
            domain: 0,
            resident: None,
            duration_micros: 0,
            cache_hit: None,
            client: None,
            trace_id: None,
            span_id: None,
            parent_span_id: None,
            track: None,
        }
    }

    /// Sets the application index.
    #[must_use]
    pub fn app(mut self, app_index: usize) -> TraceEvent {
        self.app_index = app_index as u64;
        self
    }

    /// Sets the deciding domain / group index.
    #[must_use]
    pub fn domain(mut self, domain: usize) -> TraceEvent {
        self.domain = domain as u64;
        self
    }

    /// Sets the resident id.
    #[must_use]
    pub fn resident(mut self, resident: u64) -> TraceEvent {
        self.resident = Some(resident);
        self
    }

    /// Sets the operation duration.
    #[must_use]
    pub fn duration(mut self, elapsed: Duration) -> TraceEvent {
        self.duration_micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self
    }

    /// Marks the event as a cache hit or miss.
    #[must_use]
    pub fn cache(mut self, hit: bool) -> TraceEvent {
        self.cache_hit = Some(hit);
        self
    }

    /// Stamps the event with an explicit span identity (otherwise the
    /// recorder derives a child of the ambient [`SpanScope`]).
    #[must_use]
    pub fn span(mut self, context: SpanContext) -> TraceEvent {
        self.trace_id = Some(context.trace_id);
        self.span_id = Some(context.span_id);
        self.parent_span_id = context.parent_span_id;
        self
    }

    /// Pins the timeline track the exporter renders the event on.
    #[must_use]
    pub fn track(mut self, track: impl Into<String>) -> TraceEvent {
        self.track = Some(track.into());
        self
    }
}

struct TraceRing {
    events: VecDeque<TraceEvent>,
    next_seq: u64,
}

/// Fixed-capacity ring-buffer flight recorder of [`TraceEvent`]s.
///
/// Lock-light: recording takes one short mutex hold to push into the
/// ring (no allocation once the ring is full — the oldest event is
/// evicted and counted in [`dropped`](TraceRecorder::dropped)).
#[derive(Debug)]
pub struct TraceRecorder {
    start: Instant,
    /// Wall-clock epoch microseconds at `start`, captured **once**: event
    /// timestamps are purely monotonic (`start.elapsed()`), so spans never
    /// go negative across NTP steps, and exporters needing wall-clock add
    /// this anchor back on.
    anchor_micros: u64,
    capacity: usize,
    recorded: AtomicU64,
    dropped: AtomicU64,
    ring: Mutex<TraceRing>,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("len", &self.events.len())
            .finish_non_exhaustive()
    }
}

impl TraceRecorder {
    /// Recorder holding at most `capacity` events (clamped to ≥ 1).
    pub fn new(capacity: usize) -> TraceRecorder {
        let capacity = capacity.max(1);
        let anchor_micros = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        TraceRecorder {
            start: Instant::now(),
            anchor_micros,
            capacity,
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(TraceRing {
                events: VecDeque::with_capacity(capacity),
                next_seq: 0,
            }),
        }
    }

    /// Stamps and records an event, evicting the oldest when full.
    ///
    /// Besides `seq`/`at_micros`/`client`, span identity is stamped: an
    /// event without an explicit [`span`](TraceEvent::span) becomes a
    /// fresh child of the ambient [`SpanScope`] (and no span at all when
    /// no scope is active — untraced paths pay nothing extra). Spanned
    /// events without a pinned track inherit the recording thread's name.
    pub fn record(&self, mut event: TraceEvent) {
        event.at_micros = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        if event.client.is_none() {
            event.client = ClientScope::current();
        }
        if event.span_id.is_none() {
            if let Some(scope) = SpanScope::current() {
                event = event.span(scope.child());
            }
        }
        if event.span_id.is_some() && event.track.is_none() {
            if let Some(name) = std::thread::current().name() {
                event.track = Some(name.to_string());
            }
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        event.seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.events.push_back(event);
    }

    /// Up to the last `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<TraceEvent> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        let skip = ring.events.len().saturating_sub(n);
        ring.events.iter().skip(skip).cloned().collect()
    }

    /// The `n` slowest retained events, longest first.
    pub fn slowest(&self, n: usize) -> Vec<TraceEvent> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        let mut events: Vec<TraceEvent> = ring.events.iter().cloned().collect();
        drop(ring);
        events.sort_by_key(|event| std::cmp::Reverse(event.duration_micros));
        events.truncate(n);
        events
    }

    /// Wall-clock epoch microseconds when the recorder's monotonic clock
    /// started (event `at_micros` are offsets from this anchor).
    pub fn anchor_micros(&self) -> u64 {
        self.anchor_micros
    }

    /// Events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring poisoned").events.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events evicted to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Flight-recorder stats for telemetry exposition.
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            recorded: self.recorded(),
            dropped: self.dropped(),
            capacity: self.capacity as u64,
            anchor_micros: Some(self.anchor_micros),
        }
    }
}

// ---------------------------------------------------------------------------
// Span trees: reassembling causal request trees from the flat ring.
// ---------------------------------------------------------------------------

/// One span and the spans it caused, in recording (seq) order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanNode {
    /// The span's recorded event.
    pub event: TraceEvent,
    /// Child spans, oldest first.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn walk(&self, f: &mut impl FnMut(&TraceEvent, usize), depth: usize) {
        f(&self.event, depth);
        for child in &self.children {
            child.walk(f, depth + 1);
        }
    }
}

/// All spans of one trace (one end-to-end request), reassembled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanTree {
    /// The trace the spans share.
    pub trace_id: u64,
    /// Spans whose parent was not captured in the ring (normally the
    /// single span nearest the request's origin), oldest first.
    pub roots: Vec<SpanNode>,
}

impl SpanTree {
    /// Visits every event in the tree, depth-first, with its depth.
    pub fn walk(&self, mut f: impl FnMut(&TraceEvent, usize)) {
        for root in &self.roots {
            root.walk(&mut f, 0);
        }
    }

    /// Events in the tree.
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.walk(|_, _| n += 1);
        n
    }

    /// True when the tree holds no spans.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// The whole request's duration: the envelope from the earliest span
    /// start to the latest span end across the tree.
    pub fn duration_micros(&self) -> u64 {
        let (start, end) = self.envelope_micros();
        end.saturating_sub(start)
    }

    /// `(earliest start, latest end)` across every span, as monotonic
    /// recorder offsets. A span's `at_micros` stamps its **end** (events
    /// are recorded on completion), so its start is `at − duration`.
    pub fn envelope_micros(&self) -> (u64, u64) {
        let mut start = u64::MAX;
        let mut end = 0u64;
        self.walk(|event, _| {
            start = start.min(event.at_micros.saturating_sub(event.duration_micros));
            end = end.max(event.at_micros);
        });
        if start == u64::MAX {
            (0, 0)
        } else {
            (start, end)
        }
    }
}

/// Reassembles span trees from a flat event slice (e.g. a
/// [`trace_tail`](AdmissionService::trace_tail) fetched over the wire).
///
/// Events without span identity are skipped. Within a trace, an event
/// whose parent span has no recorded event becomes a root — with full
/// propagation that is exactly the span nearest the request's origin
/// (the remote client's submit span is synthesized by the exporter, not
/// recorded server-side). Trees are returned oldest-root first.
pub fn build_span_trees(events: &[TraceEvent]) -> Vec<SpanTree> {
    let spanned: Vec<&TraceEvent> = events.iter().filter(|e| e.span_id.is_some()).collect();
    // span id → indices of its children (an id can repeat across ring
    // wraps; keep every event, parenting onto the latest owner).
    let mut owner: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, event) in spanned.iter().enumerate() {
        if let Some(id) = event.span_id {
            owner.insert(id, i);
        }
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spanned.len()];
    let mut roots_by_trace: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut trace_order: Vec<u64> = Vec::new();
    for (i, event) in spanned.iter().enumerate() {
        let trace = event.trace_id.unwrap_or(0);
        roots_by_trace.entry(trace).or_insert_with(|| {
            trace_order.push(trace);
            Vec::new()
        });
        let parent = event
            .parent_span_id
            .and_then(|p| owner.get(&p).copied())
            .filter(|&p| p != i && spanned[p].trace_id == event.trace_id);
        match parent {
            Some(p) => children[p].push(i),
            None => roots_by_trace
                .get_mut(&trace)
                .expect("trace registered above")
                .push(i),
        }
    }
    fn assemble(index: usize, spanned: &[&TraceEvent], children: &[Vec<usize>]) -> SpanNode {
        SpanNode {
            event: spanned[index].clone(),
            children: children[index]
                .iter()
                .map(|&c| assemble(c, spanned, children))
                .collect(),
        }
    }
    trace_order
        .into_iter()
        .map(|trace_id| SpanTree {
            trace_id,
            roots: roots_by_trace[&trace_id]
                .iter()
                .map(|&r| assemble(r, &spanned, &children))
                .collect(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Chrome-trace export: load the ring in Perfetto / chrome://tracing.
// ---------------------------------------------------------------------------

fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders events as Chrome-trace JSON (the `traceEvents` array format),
/// loadable in Perfetto (`ui.perfetto.dev` → *Open trace file*) and
/// `chrome://tracing`.
///
/// Every spanned event becomes a complete (`ph:"X"`) slice on one track
/// per connection / named thread (`tid` per distinct
/// [`track`](TraceEvent::track)); span-less events share a `"loose"`
/// track. For each trace whose root references an uncaptured parent span
/// (the remote client's request span), a synthetic slice covering the
/// tree's envelope is emitted on a separate `"client"` process — the
/// cross-process link between client submit and server-side spans.
/// `anchor_micros` (see [`TraceRecorder::anchor_micros`]) converts the
/// monotonic offsets back to wall-clock timestamps.
pub fn render_chrome_trace(events: &[TraceEvent], anchor_micros: u64) -> String {
    const SERVER_PID: u64 = 1;
    const CLIENT_PID: u64 = 0;
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut tracks: BTreeMap<String, u64> = BTreeMap::new();
    let slice = |out: &mut String,
                 first: &mut bool,
                 name: &str,
                 ph: &str,
                 ts: u64,
                 dur: u64,
                 pid: u64,
                 tid: u64,
                 args: &[(&str, String)]| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str("{\"name\":\"");
        json_escape(out, name);
        let _ = write!(out, "\",\"cat\":\"probcon\",\"ph\":\"{ph}\"");
        if ph == "X" {
            let _ = write!(out, ",\"ts\":{ts},\"dur\":{dur}");
        }
        let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid}");
        if !args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (key, value)) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{key}\":\"");
                json_escape(out, value);
                out.push('"');
            }
            out.push('}');
        }
        out.push('}');
    };
    for event in events {
        let track = match (&event.track, event.span_id) {
            (Some(track), _) => track.clone(),
            (None, Some(_)) => "untracked".to_string(),
            (None, None) => "loose".to_string(),
        };
        let next = tracks.len() as u64 + 1;
        let tid = *tracks.entry(track).or_insert(next);
        let ts = anchor_micros + event.at_micros.saturating_sub(event.duration_micros);
        let mut args: Vec<(&str, String)> = vec![("seq", event.seq.to_string())];
        if let Some(trace_id) = event.trace_id {
            args.push(("trace_id", format!("{trace_id:016x}")));
        }
        if let Some(span_id) = event.span_id {
            args.push(("span_id", format!("{span_id:016x}")));
        }
        if let Some(parent) = event.parent_span_id {
            args.push(("parent_span_id", format!("{parent:016x}")));
        }
        if let Some(client) = &event.client {
            args.push(("client", client.clone()));
        }
        args.push(("app_index", event.app_index.to_string()));
        args.push(("domain", event.domain.to_string()));
        slice(
            &mut out,
            &mut first,
            event.kind.name(),
            "X",
            ts,
            event.duration_micros.max(1),
            SERVER_PID,
            tid,
            &args,
        );
    }
    // Synthesize the uncaptured client-side request span per trace so the
    // exported timeline links both processes on one trace id.
    let captured: std::collections::BTreeSet<u64> =
        events.iter().filter_map(|e| e.span_id).collect();
    let client_tid = tracks.len() as u64 + 1;
    let mut synthesized = false;
    for tree in build_span_trees(events) {
        let missing_parent = tree
            .roots
            .iter()
            .filter_map(|root| root.event.parent_span_id)
            .find(|parent| !captured.contains(parent));
        if let Some(span_id) = missing_parent {
            let (start, end) = tree.envelope_micros();
            synthesized = true;
            slice(
                &mut out,
                &mut first,
                "request",
                "X",
                anchor_micros + start,
                (end - start).max(1),
                CLIENT_PID,
                client_tid,
                &[
                    ("trace_id", format!("{:016x}", tree.trace_id)),
                    ("span_id", format!("{span_id:016x}")),
                ],
            );
        }
    }
    // Metadata: process and per-track thread names.
    slice(
        &mut out,
        &mut first,
        "process_name",
        "M",
        0,
        0,
        SERVER_PID,
        0,
        &[("name", "probcon-server".to_string())],
    );
    for (track, tid) in &tracks {
        slice(
            &mut out,
            &mut first,
            "thread_name",
            "M",
            0,
            0,
            SERVER_PID,
            *tid,
            &[("name", track.clone())],
        );
    }
    if synthesized {
        slice(
            &mut out,
            &mut first,
            "process_name",
            "M",
            0,
            0,
            CLIENT_PID,
            0,
            &[("name", "client".to_string())],
        );
        slice(
            &mut out,
            &mut first,
            "thread_name",
            "M",
            0,
            0,
            CLIENT_PID,
            client_tid,
            &[("name", "submit".to_string())],
        );
    }
    out.push_str("]}");
    out
}

/// Named rows a [`Traced`] layer keeps in its per-tenant table. Decisions
/// by any client id first seen after the table is full are counted in one
/// more row, labelled [`OVERFLOW_TENANT`], so the table stays bounded
/// whatever ids clients announce.
pub const MAX_TENANT_ROWS: usize = 64;

/// The client label of the per-tenant row that counts every tenant past
/// [`MAX_TENANT_ROWS`] (and a client that announces this label itself).
pub const OVERFLOW_TENANT: &str = "(other tenants)";

/// Tracing middleware: records every decision flowing through the
/// wrapped service into a shared [`TraceRecorder`].
///
/// Composes like [`Cached`](crate::Cached) / [`Metered`](crate::Metered)
/// and is decision-transparent: it never changes an outcome, only
/// observes it (see the byte-identical-journal test in
/// `tests/telemetry.rs`).
#[derive(Debug)]
pub struct Traced<S> {
    inner: S,
    recorder: Arc<TraceRecorder>,
    /// Per-tenant outcome counters + admit latency, keyed by the ambient
    /// [`ClientScope`], at most [`MAX_TENANT_ROWS`] named rows plus the
    /// [`OVERFLOW_TENANT`] row. Only decisions attributed to a client
    /// touch this map — anonymous local traffic pays no lock here.
    tenants: Mutex<BTreeMap<String, TenantCounters>>,
}

#[derive(Debug, Default)]
struct TenantCounters {
    admitted: u64,
    rejected: u64,
    saturated: u64,
    released: u64,
    latency: LatencyHistogram,
}

impl<S: AdmissionService> Traced<S> {
    /// Wraps `inner` with a fresh flight recorder of `capacity` events.
    pub fn new(inner: S, capacity: usize) -> Traced<S> {
        Traced::with_recorder(inner, Arc::new(TraceRecorder::new(capacity)))
    }

    /// Wraps `inner` recording into an existing (possibly shared)
    /// recorder.
    pub fn with_recorder(inner: S, recorder: Arc<TraceRecorder>) -> Traced<S> {
        Traced {
            inner,
            recorder,
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    /// The shared flight recorder.
    pub fn recorder(&self) -> &Arc<TraceRecorder> {
        &self.recorder
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn layer(&self) -> LayerMetrics {
        LayerMetrics::new("traced")
            .counter("events", self.recorder.recorded())
            .counter("dropped", self.recorder.dropped())
            .counter("capacity", self.recorder.capacity() as u64)
    }

    fn account_tenant(&self, decision: &AdmissionDecision, elapsed: Duration) {
        let Some(client) = ClientScope::current() else {
            return;
        };
        let mut tenants = self.tenants.lock().expect("tenant map poisoned");
        let counters = tenant_row(&mut tenants, client);
        match decision {
            AdmissionDecision::Admitted { .. } => counters.admitted += 1,
            AdmissionDecision::Rejected { .. } => counters.rejected += 1,
            AdmissionDecision::Saturated { .. } => counters.saturated += 1,
        }
        counters
            .latency
            .record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }
}

impl<S: AdmissionService> AdmissionService for Traced<S> {
    fn admit(&self, request: &AdmissionRequest) -> Result<AdmissionDecision, ServiceError> {
        // Derive this layer's span only when the request is traced (an
        // explicit context on the request, or an ambient scope entered by
        // a dispatcher); untraced admissions skip all span work.
        let span = SpanScope::current()
            .or(request.span)
            .map(|parent| parent.child());
        let start = Instant::now();
        let result = match span {
            Some(context) => {
                let _scope = SpanScope::enter(context);
                self.inner.admit(request)
            }
            None => self.inner.admit(request),
        };
        if let Ok(decision) = &result {
            let mut event = match decision {
                AdmissionDecision::Admitted {
                    resident, domain, ..
                } => TraceEvent::new(TraceKind::Admit)
                    .domain(*domain)
                    .resident(*resident),
                AdmissionDecision::Rejected { domain, .. } => {
                    TraceEvent::new(TraceKind::Reject).domain(*domain)
                }
                AdmissionDecision::Saturated { domain } => {
                    TraceEvent::new(TraceKind::Saturate).domain(*domain)
                }
            };
            if let Some(context) = span {
                event = event.span(context);
            }
            self.recorder
                .record(event.app(request.app_index).duration(start.elapsed()));
            self.account_tenant(decision, start.elapsed());
        }
        result
    }

    fn release(&self, resident: u64) -> Result<(), ServiceError> {
        let start = Instant::now();
        let result = self.inner.release(resident);
        if result.is_ok() {
            self.recorder.record(
                TraceEvent::new(TraceKind::Release)
                    .resident(resident)
                    .duration(start.elapsed()),
            );
            if let Some(client) = ClientScope::current() {
                let mut tenants = self.tenants.lock().expect("tenant map poisoned");
                tenant_row(&mut tenants, client).released += 1;
            }
        }
        result
    }

    fn snapshot(&self) -> ServiceSnapshot {
        let mut snapshot = self.inner.snapshot();
        snapshot.layers.push(self.layer());
        snapshot
    }

    fn workload(&self) -> Option<&SystemSpec> {
        self.inner.workload()
    }

    fn estimate(&self, use_case: UseCase, method: Method) -> Result<Arc<Estimate>, ServiceError> {
        // Estimate events are recorded by a [`Cached`](crate::Cached)
        // layer with hit/miss attribution (see
        // [`Cached::attach_trace`](crate::Cached::attach_trace)) — this
        // layer only forwards, so a shared recorder never sees the same
        // estimate twice.
        self.inner.estimate(use_case, method)
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        let mut telemetry = self.inner.telemetry();
        telemetry.service.layers.push(self.layer());
        telemetry.trace = self.recorder.stats();
        let tenants = self.tenants.lock().expect("tenant map poisoned");
        if !tenants.is_empty() {
            // Named rows in id order, the overflow row last.
            let (overflow, named): (Vec<_>, Vec<_>) = tenants
                .iter()
                .partition(|(client, _)| client.as_str() == OVERFLOW_TENANT);
            telemetry.tenants = Some(
                named
                    .into_iter()
                    .chain(overflow)
                    .map(|(client, counters)| TenantBreakdown {
                        client: client.clone(),
                        admitted: counters.admitted,
                        rejected: counters.rejected,
                        saturated: counters.saturated,
                        released: counters.released,
                        latency: counters.latency.clone(),
                    })
                    .collect(),
            );
        }
        telemetry
    }

    fn trace_tail(&self, limit: usize) -> Vec<TraceEvent> {
        self.recorder.tail(limit)
    }

    fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        Some(Arc::clone(&self.recorder))
    }
}

/// The row of `tenants` that counts `client`'s decisions: its own while
/// fewer than [`MAX_TENANT_ROWS`] named rows exist, the
/// [`OVERFLOW_TENANT`] row after that.
fn tenant_row(
    tenants: &mut BTreeMap<String, TenantCounters>,
    client: String,
) -> &mut TenantCounters {
    let named = tenants.len() - usize::from(tenants.contains_key(OVERFLOW_TENANT));
    let key = if named < MAX_TENANT_ROWS || tenants.contains_key(&client) {
        client
    } else {
        OVERFLOW_TENANT.to_string()
    };
    tenants.entry(key).or_default()
}

/// Full latency distribution of one operation class on one layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpHistogram {
    /// Layer that recorded the distribution (e.g. `"metered"`).
    pub layer: String,
    /// Operation class (e.g. `"admit"`).
    pub op: String,
    /// The recorded distribution.
    pub histogram: LatencyHistogram,
}

/// Flight-recorder counters surfaced in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Total events ever recorded.
    pub recorded: u64,
    /// Events evicted from the ring.
    pub dropped: u64,
    /// Ring capacity (0 when no recorder is present in the stack).
    pub capacity: u64,
    /// Wall-clock epoch microseconds of the recorder's monotonic zero
    /// (see [`TraceRecorder::anchor_micros`]). Trailing `skip_none`
    /// field: stats from older builds parse unchanged.
    #[serde(skip_none)]
    pub anchor_micros: Option<u64>,
}

/// Per-tenant admission breakdown, keyed by the
/// [`ClientScope`] identity decisions were made
/// under — one row per remote client seen by the [`Traced`] layer, up to
/// [`MAX_TENANT_ROWS`], then one [`OVERFLOW_TENANT`] row for the rest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantBreakdown {
    /// Client identity (from the connection handshake).
    pub client: String,
    /// Admissions granted to this tenant.
    pub admitted: u64,
    /// Admissions rejected by contracts.
    pub rejected: u64,
    /// Admissions bounced off full domains.
    pub saturated: u64,
    /// Residents released by this tenant.
    pub released: u64,
    /// This tenant's admit latency distribution.
    pub latency: LatencyHistogram,
}

/// Live per-connection counters from a remote server's readiness loop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectionStats {
    /// Event-loop token identifying the connection.
    pub token: u64,
    /// Client identity from the handshake, once seen.
    pub client: Option<String>,
    /// Request frames decoded off this connection.
    pub frames_in: u64,
    /// Response frames queued to this connection.
    pub frames_out: u64,
    /// Bytes read from the socket.
    pub bytes_in: u64,
    /// Bytes written to the socket.
    pub bytes_out: u64,
    /// Bytes currently buffered for write (write-buffer depth).
    pub write_buffered: u64,
    /// Requests being decided (decoded, not yet answered).
    pub in_flight: u64,
    /// Times the loop paused reads on this connection under backpressure
    /// (write buffer over its bound).
    pub backpressure_pauses: u64,
}

/// Readiness-event-loop health of a remote server, over all its loops.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventLoopStats {
    /// Completed poll ticks.
    pub poll_ticks: u64,
    /// Distribution of time spent processing one tick, in microseconds.
    pub tick: LatencyHistogram,
    /// Distribution of the ready-set size per tick.
    pub ready: LatencyHistogram,
}

/// Live telemetry aggregated across every layer of an admission stack:
/// the layered [`ServiceSnapshot`], full per-op latency distributions,
/// and flight-recorder stats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Layered counters and op rates (same shape as
    /// [`AdmissionService::snapshot`]).
    pub service: ServiceSnapshot,
    /// Full latency distributions per layer and operation class.
    pub histograms: Vec<OpHistogram>,
    /// Flight-recorder stats from the outermost [`Traced`] layer.
    pub trace: TraceStats,
    /// Live autoscaler state when an elastic controller runs over this
    /// service (`probcon serve --autoscale`); absent otherwise. Trailing
    /// `skip_none` field: snapshots from builds without a controller
    /// parse unchanged.
    #[serde(skip_none)]
    pub autoscaler: Option<crate::autoscaler::AutoscalerStatus>,
    /// Per-tenant breakdown from the [`Traced`] layer; absent until a
    /// decision is attributed to a client. Trailing `skip_none` field.
    #[serde(skip_none)]
    pub tenants: Option<Vec<TenantBreakdown>>,
    /// Per-connection counters when a remote server answers; absent on
    /// local stacks. Trailing `skip_none` field.
    #[serde(skip_none)]
    pub connections: Option<Vec<ConnectionStats>>,
    /// Readiness-loop health when a remote server answers; absent on
    /// local stacks. Trailing `skip_none` field.
    #[serde(skip_none)]
    pub event_loop: Option<EventLoopStats>,
}

impl TelemetrySnapshot {
    /// Wraps a bare [`ServiceSnapshot`] (no distributions, no trace) —
    /// the default for services without telemetry instrumentation.
    pub fn from_service(service: ServiceSnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            service,
            histograms: Vec::new(),
            trace: TraceStats::default(),
            autoscaler: None,
            tenants: None,
            connections: None,
            event_loop: None,
        }
    }

    /// Adds a per-op latency distribution.
    pub fn push_histogram(
        &mut self,
        layer: impl Into<String>,
        op: impl Into<String>,
        histogram: LatencyHistogram,
    ) {
        self.histograms.push(OpHistogram {
            layer: layer.into(),
            op: op.into(),
            histogram,
        });
    }

    /// Looks up the distribution recorded by `layer` for `op`.
    pub fn histogram(&self, layer: &str, op: &str) -> Option<&LatencyHistogram> {
        self.histograms
            .iter()
            .find(|h| h.layer == layer && h.op == op)
            .map(|h| &h.histogram)
    }

    /// Human-readable multi-table rendering: the layered service table
    /// (whose per-op rows carry every layer's count, mean and quantiles),
    /// flight-recorder stats, the autoscaler line, the per-tenant table and
    /// the transport view. The full [`histograms`](Self::histograms) are
    /// rendered only by [`render_prometheus`](Self::render_prometheus), so
    /// no latency fact is printed twice.
    pub fn render(&self) -> String {
        let mut out = self.service.render();
        if self.trace.capacity > 0 {
            let _ = writeln!(
                out,
                "trace: {} recorded, {} dropped, capacity {}",
                self.trace.recorded, self.trace.dropped, self.trace.capacity
            );
        }
        if let Some(autoscaler) = &self.autoscaler {
            let _ = writeln!(out, "{}", autoscaler.render());
        }
        if let Some(tenants) = &self.tenants {
            out.push('\n');
            let _ = writeln!(
                out,
                "{:<20} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                "tenant", "admitted", "rejected", "saturated", "released", "p50_us", "p99_us"
            );
            for tenant in tenants {
                let _ = writeln!(
                    out,
                    "{:<20} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                    tenant.client,
                    tenant.admitted,
                    tenant.rejected,
                    tenant.saturated,
                    tenant.released,
                    tenant.latency.p50(),
                    tenant.latency.p99()
                );
            }
        }
        if self.connections.is_some() || self.event_loop.is_some() {
            out.push('\n');
            out.push_str(&self.render_connections());
        }
        out
    }

    /// The transport-visibility block alone: the per-connection table and
    /// the event-loop health line (the `probcon top --connections` view).
    /// Empty when the snapshot carries neither — e.g. from a local stack
    /// with no server in front of it.
    pub fn render_connections(&self) -> String {
        let mut out = String::new();
        if let Some(connections) = &self.connections {
            let _ = writeln!(
                out,
                "{:<6} {:<16} {:>9} {:>10} {:>10} {:>10} {:>9} {:>9} {:>7}",
                "conn",
                "client",
                "frames_in",
                "frames_out",
                "bytes_in",
                "bytes_out",
                "buffered",
                "in_flight",
                "pauses"
            );
            for conn in connections {
                let _ = writeln!(
                    out,
                    "{:<6} {:<16} {:>9} {:>10} {:>10} {:>10} {:>9} {:>9} {:>7}",
                    conn.token,
                    conn.client.as_deref().unwrap_or("-"),
                    conn.frames_in,
                    conn.frames_out,
                    conn.bytes_in,
                    conn.bytes_out,
                    conn.write_buffered,
                    conn.in_flight,
                    conn.backpressure_pauses
                );
            }
        }
        if let Some(event_loop) = &self.event_loop {
            let _ = writeln!(
                out,
                "event loop: {} ticks, tick p50 {}us p99 {}us max {}us, \
                 ready p50 {} max {}",
                event_loop.poll_ticks,
                event_loop.tick.p50(),
                event_loop.tick.p99(),
                event_loop.tick.max_micros(),
                event_loop.ready.p50(),
                event_loop.ready.max_micros()
            );
        }
        out
    }

    /// Prometheus-style text exposition (`# TYPE` comments, `probcon_`
    /// metric family prefix, layer/op/quantile labels).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let gauge = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP probcon_{name} {help}");
            let _ = writeln!(out, "# TYPE probcon_{name} gauge");
            let _ = writeln!(out, "probcon_{name} {value}");
        };
        gauge(
            &mut out,
            "residents",
            "Live admitted residents.",
            self.service.residents as u64,
        );
        gauge(
            &mut out,
            "capacity",
            "Total resident capacity.",
            self.service.capacity as u64,
        );
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP probcon_{name} {help}");
            let _ = writeln!(out, "# TYPE probcon_{name} counter");
            let _ = writeln!(out, "probcon_{name} {value}");
        };
        counter(
            &mut out,
            "admitted_total",
            "Admissions granted.",
            self.service.admitted,
        );
        counter(
            &mut out,
            "rejected_total",
            "Admissions rejected by contracts.",
            self.service.rejected,
        );
        counter(
            &mut out,
            "saturated_total",
            "Admissions bounced off full domains.",
            self.service.saturated,
        );
        counter(
            &mut out,
            "released_total",
            "Residents released.",
            self.service.released,
        );
        if !self.service.layers.is_empty() {
            let _ = writeln!(out, "# HELP probcon_layer Per-layer metric counters.");
            let _ = writeln!(out, "# TYPE probcon_layer gauge");
            for layer in &self.service.layers {
                for (metric, value) in &layer.counters {
                    let _ = writeln!(
                        out,
                        "probcon_layer{{layer=\"{}\",metric=\"{}\"}} {}",
                        layer.layer, metric, value
                    );
                }
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "# HELP probcon_op_latency_microseconds Operation latency quantiles."
            );
            let _ = writeln!(out, "# TYPE probcon_op_latency_microseconds summary");
            for entry in &self.histograms {
                let h = &entry.histogram;
                for (q, v) in [
                    ("0.5", h.p50()),
                    ("0.9", h.p90()),
                    ("0.99", h.p99()),
                    ("0.999", h.p999()),
                ] {
                    let _ = writeln!(
                        out,
                        "probcon_op_latency_microseconds{{layer=\"{}\",op=\"{}\",quantile=\"{}\"}} {}",
                        entry.layer, entry.op, q, v
                    );
                }
                let _ = writeln!(
                    out,
                    "probcon_op_latency_microseconds_count{{layer=\"{}\",op=\"{}\"}} {}",
                    entry.layer,
                    entry.op,
                    h.count()
                );
                let _ = writeln!(
                    out,
                    "probcon_op_latency_microseconds_sum{{layer=\"{}\",op=\"{}\"}} {}",
                    entry.layer,
                    entry.op,
                    h.sum_micros()
                );
            }
        }
        counter(
            &mut out,
            "trace_events_total",
            "Flight-recorder events recorded.",
            self.trace.recorded,
        );
        counter(
            &mut out,
            "trace_dropped_total",
            "Flight-recorder events evicted.",
            self.trace.dropped,
        );
        gauge(
            &mut out,
            "trace_capacity",
            "Flight-recorder ring capacity.",
            self.trace.capacity,
        );
        if let Some(tenants) = &self.tenants {
            let _ = writeln!(out, "# HELP probcon_tenant Per-tenant decision counters.");
            let _ = writeln!(out, "# TYPE probcon_tenant counter");
            for tenant in tenants {
                for (metric, value) in [
                    ("admitted", tenant.admitted),
                    ("rejected", tenant.rejected),
                    ("saturated", tenant.saturated),
                    ("released", tenant.released),
                ] {
                    let _ = writeln!(
                        out,
                        "probcon_tenant{{client=\"{}\",outcome=\"{}\"}} {}",
                        tenant.client, metric, value
                    );
                }
            }
            let _ = writeln!(
                out,
                "# HELP probcon_tenant_admit_latency_microseconds Per-tenant admit latency."
            );
            let _ = writeln!(
                out,
                "# TYPE probcon_tenant_admit_latency_microseconds summary"
            );
            for tenant in tenants {
                for (q, v) in [
                    ("0.5", tenant.latency.p50()),
                    ("0.99", tenant.latency.p99()),
                ] {
                    let _ = writeln!(
                        out,
                        "probcon_tenant_admit_latency_microseconds{{client=\"{}\",quantile=\"{}\"}} {}",
                        tenant.client, q, v
                    );
                }
            }
        }
        if let Some(connections) = &self.connections {
            let _ = writeln!(
                out,
                "# HELP probcon_connection Per-connection event-loop counters."
            );
            let _ = writeln!(out, "# TYPE probcon_connection gauge");
            for conn in connections {
                for (metric, value) in [
                    ("frames_in", conn.frames_in),
                    ("frames_out", conn.frames_out),
                    ("bytes_in", conn.bytes_in),
                    ("bytes_out", conn.bytes_out),
                    ("write_buffered", conn.write_buffered),
                    ("in_flight", conn.in_flight),
                    ("backpressure_pauses", conn.backpressure_pauses),
                ] {
                    let _ = writeln!(
                        out,
                        "probcon_connection{{token=\"{}\",metric=\"{}\"}} {}",
                        conn.token, metric, value
                    );
                }
            }
        }
        if let Some(event_loop) = &self.event_loop {
            counter(
                &mut out,
                "event_loop_poll_ticks_total",
                "Readiness-loop poll ticks completed.",
                event_loop.poll_ticks,
            );
            gauge(
                &mut out,
                "event_loop_tick_p99_microseconds",
                "99th-percentile poll-tick processing time.",
                event_loop.tick.p99(),
            );
            gauge(
                &mut out,
                "event_loop_ready_set_p99",
                "99th-percentile ready-set size per tick.",
                event_loop.ready.p99(),
            );
        }
        out
    }
}

/// Builds the [`OpRate`] row a layer exposes for one operation class,
/// given its distribution and the layer's uptime.
pub fn op_rate(op: &str, histogram: &LatencyHistogram, elapsed: Duration) -> OpRate {
    let secs = elapsed.as_secs_f64();
    let rate = if secs > 0.0 {
        (histogram.count() as f64 / secs).round() as u64
    } else {
        0
    };
    OpRate {
        op: op.to_string(),
        count: histogram.count(),
        ops_per_sec: rate,
        mean_us: histogram.mean_micros(),
        p50_us: histogram.p50(),
        p90_us: histogram.p90(),
        p99_us: histogram.p99(),
        p999_us: histogram.p999(),
        max_us: histogram.max_micros(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut last_value = 0u64;
        let mut last_index = 0usize;
        for shift in 0u32..64 {
            let v = 1u64 << shift;
            for probe in [v.saturating_sub(1), v, v.saturating_add(v / 7)] {
                let index = bucket_index(probe);
                assert!(index < BUCKET_COUNT, "index {index} for {probe}");
                if probe >= last_value {
                    assert!(index >= last_index, "index not monotone at {probe}");
                    last_value = probe;
                    last_index = index;
                }
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn bucket_floor_inverts_index() {
        for v in [0u64, 1, 5, 15, 16, 17, 31, 32, 100, 1000, 65_535, 1 << 40] {
            let index = bucket_index(v);
            let floor = bucket_floor(index);
            assert!(floor <= v, "floor {floor} above value {v}");
            assert_eq!(bucket_index(floor), index, "floor not in same bucket: {v}");
        }
    }

    #[test]
    fn quantiles_within_relative_error() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.min_micros(), 1);
        assert_eq!(h.max_micros(), 10_000);
        for (q, exact) in [
            (0.50, 5_000u64),
            (0.90, 9_000),
            (0.99, 9_900),
            (0.999, 9_990),
        ] {
            let got = h.quantile(q);
            let err = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(err <= 1.0 / 16.0, "q{q}: got {got}, exact {exact}");
        }
    }

    #[test]
    fn merge_matches_single_recording() {
        let mut all = LatencyHistogram::new();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in [3u64, 19, 19, 250, 4_000, 4_001, 900_000] {
            all.record(v);
        }
        for v in [3u64, 19, 4_001] {
            a.record(v);
        }
        for v in [19u64, 250, 4_000, 900_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn recorder_snapshot_matches_direct_histogram() {
        let recorder = HistogramRecorder::new();
        let mut direct = LatencyHistogram::new();
        for v in [0u64, 1, 17, 300, 300, 12_345] {
            recorder.record(v);
            direct.record(v);
        }
        assert_eq!(recorder.snapshot(), direct);
    }

    #[test]
    fn bounded_memory_over_one_million_samples() {
        let mut h = LatencyHistogram::new();
        for i in 0..1_000_000u64 {
            h.record(i % 100_000);
        }
        assert_eq!(h.count(), 1_000_000);
        assert!(h.bucket_len() <= BUCKET_COUNT);
    }

    #[test]
    fn trace_ring_wraps_and_counts_drops() {
        let recorder = TraceRecorder::new(4);
        for i in 0..10usize {
            recorder.record(TraceEvent::new(TraceKind::Admit).app(i));
        }
        assert_eq!(recorder.recorded(), 10);
        assert_eq!(recorder.dropped(), 6);
        assert_eq!(recorder.len(), 4);
        let tail = recorder.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].app_index, 8);
        assert_eq!(tail[1].app_index, 9);
        assert_eq!(tail[1].seq, 9);
    }

    #[test]
    fn slowest_orders_by_duration() {
        let recorder = TraceRecorder::new(8);
        for (i, micros) in [5u64, 100, 30, 7].iter().enumerate() {
            recorder.record(
                TraceEvent::new(TraceKind::Admit)
                    .app(i)
                    .duration(Duration::from_micros(*micros)),
            );
        }
        let slow = recorder.slowest(2);
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].app_index, 1);
        assert_eq!(slow[1].app_index, 2);
    }

    #[test]
    fn prometheus_rendering_contains_families() {
        let mut t = TelemetrySnapshot::from_service(ServiceSnapshot::default());
        let mut h = LatencyHistogram::new();
        h.record(120);
        t.push_histogram("metered", "admit", h);
        t.trace = TraceStats {
            recorded: 7,
            dropped: 1,
            capacity: 4,
            anchor_micros: None,
        };
        let text = t.render_prometheus();
        assert!(text.contains("# TYPE probcon_residents gauge"));
        assert!(text.contains("probcon_admitted_total 0"));
        assert!(text.contains(
            "probcon_op_latency_microseconds{layer=\"metered\",op=\"admit\",quantile=\"0.5\"} 120"
        ));
        assert!(text
            .contains("probcon_op_latency_microseconds_count{layer=\"metered\",op=\"admit\"} 1"));
        assert!(text.contains("probcon_trace_events_total 7"));
        assert!(text.contains("# TYPE probcon_trace_dropped_total counter"));
        assert!(text.contains("probcon_trace_dropped_total 1"));
    }
}
