//! The async admission front-end: one event loop, thousands of in-flight
//! admissions, no thread per waiter.
//!
//! [`FrontEnd`] is the ROADMAP's "async front-end": a hand-rolled event
//! loop that accepts admissions over a bounded MPSC submission queue,
//! drives any `Box<dyn AdmissionService>` stack with a small worker pool,
//! and delivers decisions through [`Completion`] tickets. Thousands of
//! submissions can be queued concurrently while only `workers` OS threads
//! exist — callers poll or wait on their completions instead of parking a
//! thread each.
//!
//! The front-end is itself an [`AdmissionService`]: its
//! [`submit`](AdmissionService::submit) is genuinely non-blocking (the
//! default trait implementation decides synchronously), its
//! [`admit`](AdmissionService::admit) submits and waits, and its
//! [`snapshot`](AdmissionService::snapshot) appends a `"front-end"` layer
//! with queue depth/latency metrics. Stacks therefore nest:
//! `FrontEnd` over `Metered<Cached<FleetManager>>` is just another service.
//!
//! # Example
//!
//! ```
//! use platform::{Application, Mapping, SystemSpec};
//! use runtime::{
//!     AdmissionRequest, AdmissionService, FleetConfig, FleetManager, FrontEnd, FrontEndConfig,
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
//! let front = FrontEnd::new(Box::new(fleet), FrontEndConfig::default());
//! // Queue many admissions without blocking, then reap the completions.
//! let completions: Vec<_> = (0..8)
//!     .map(|i| front.submit(AdmissionRequest::new(i)))
//!     .collect();
//! for completion in completions {
//!     let decision = completion.wait()?;
//!     if let Some(resident) = decision.resident() {
//!         front.release(resident)?;
//!     }
//! }
//! front.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cache::lock;
use crate::service::{
    AdmissionDecision, AdmissionRequest, AdmissionService, Completer, Completion, LayerMetrics,
    ServiceError, ServiceSnapshot,
};
use crate::telemetry::{
    op_rate, HistogramRecorder, SpanContext, SpanScope, TelemetrySnapshot, TraceEvent, TraceKind,
    TraceRecorder,
};
use contention::{Estimate, Method};
use platform::{SystemSpec, UseCase};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Configuration of a [`FrontEnd`].
#[derive(Debug, Clone)]
pub struct FrontEndConfig {
    /// Worker threads draining the submission queue (≥ 1). Keep this far
    /// smaller than the queue: the whole point is multiplexing thousands of
    /// queued admissions over a handful of threads.
    pub workers: usize,
    /// Maximum queued submissions; further submissions complete immediately
    /// with [`ServiceError::QueueFull`] (≥ 1).
    pub queue_capacity: usize,
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        FrontEndConfig {
            workers: 4,
            queue_capacity: 4096,
        }
    }
}

enum Op {
    Admit(AdmissionRequest, Completer<AdmissionDecision>),
    Release(u64, Completer<()>),
}

struct Job {
    op: Op,
    enqueued: Instant,
}

struct FrontEndInner {
    service: Box<dyn AdmissionService>,
    queue: Mutex<VecDeque<Job>>,
    cond: Condvar,
    stopped: AtomicBool,
    capacity: usize,
    workers: usize,
    started: Instant,
    submitted: AtomicU64,
    completed: AtomicU64,
    queue_full: AtomicU64,
    peak_depth: AtomicU64,
    /// Time jobs spent queued before a worker picked them up.
    queue_wait: HistogramRecorder,
    /// Time workers spent inside the wrapped service per job (dwell).
    dwell: HistogramRecorder,
    /// Queue depth sampled at every accepted submission.
    depth: HistogramRecorder,
    /// Optional flight recorder receiving queue-wait events.
    trace: Option<Arc<TraceRecorder>>,
}

impl FrontEndInner {
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.stopped.load(Ordering::Acquire) {
                        return;
                    }
                    queue = self
                        .cond
                        .wait(queue)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            let wait = job.enqueued.elapsed();
            self.queue_wait.record_duration(wait);
            if let Some(trace) = &self.trace {
                let mut event = TraceEvent::new(TraceKind::QueueWait).duration(wait);
                // A traced admission's queue wait is a child span of the
                // request's context, so it nests inside the request tree.
                if let Op::Admit(request, _) = &job.op {
                    if let Some(context) = request.span {
                        event = event.span(context.child());
                    }
                }
                trace.record(event);
            }
            // Count the completion before delivering it: a waiter woken by
            // the completion must already observe it in the counters.
            let dwell = Instant::now();
            match job.op {
                Op::Admit(request, completer) => {
                    // Make the request's span ambient for the service call:
                    // the downstack (traced layer, fleet) parents its spans
                    // here even though the request hopped threads.
                    let result = match request.span {
                        Some(context) => {
                            let _scope = SpanScope::enter(context);
                            self.service.admit(&request)
                        }
                        None => self.service.admit(&request),
                    };
                    self.dwell.record_duration(dwell.elapsed());
                    self.completed.fetch_add(1, Ordering::Relaxed);
                    completer.complete(result);
                }
                Op::Release(resident, completer) => {
                    let result = self.service.release(resident);
                    self.dwell.record_duration(dwell.elapsed());
                    self.completed.fetch_add(1, Ordering::Relaxed);
                    completer.complete(result);
                }
            }
        }
    }
}

/// The async event-loop front-end (see the [module docs](self)).
pub struct FrontEnd {
    inner: Arc<FrontEndInner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl fmt::Debug for FrontEnd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrontEnd")
            .field("workers", &self.inner.workers)
            .field("queue_capacity", &self.inner.capacity)
            .field("queue_depth", &self.queue_depth())
            .finish_non_exhaustive()
    }
}

impl FrontEnd {
    /// Front-end over any service stack, spawning the worker pool
    /// immediately (`workers`/`queue_capacity` are clamped to ≥ 1).
    pub fn new(service: Box<dyn AdmissionService>, config: FrontEndConfig) -> FrontEnd {
        FrontEnd::with_trace(service, config, None)
    }

    /// Like [`new`](Self::new), but every queue wait is also recorded
    /// into `trace` as a
    /// [`TraceKind::QueueWait`](crate::TraceKind) event —
    /// share the recorder of the stack's [`Traced`](crate::Traced) layer
    /// to see queueing inline with decisions.
    pub fn traced(
        service: Box<dyn AdmissionService>,
        config: FrontEndConfig,
        trace: Arc<TraceRecorder>,
    ) -> FrontEnd {
        FrontEnd::with_trace(service, config, Some(trace))
    }

    fn with_trace(
        service: Box<dyn AdmissionService>,
        config: FrontEndConfig,
        trace: Option<Arc<TraceRecorder>>,
    ) -> FrontEnd {
        let workers = config.workers.max(1);
        let inner = Arc::new(FrontEndInner {
            service,
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            stopped: AtomicBool::new(false),
            capacity: config.queue_capacity.max(1),
            workers,
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            queue_full: AtomicU64::new(0),
            peak_depth: AtomicU64::new(0),
            queue_wait: HistogramRecorder::new(),
            dwell: HistogramRecorder::new(),
            depth: HistogramRecorder::new(),
            trace,
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                // Named threads so spanned events recorded on a worker land
                // on a stable per-worker track in exported timelines.
                std::thread::Builder::new()
                    .name(format!("worker{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn front-end worker")
            })
            .collect();
        FrontEnd {
            inner,
            handles: Mutex::new(handles),
        }
    }

    /// The wrapped service stack.
    pub fn service(&self) -> &dyn AdmissionService {
        &*self.inner.service
    }

    /// Submissions currently queued (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        lock(&self.inner.queue).len()
    }

    /// Deepest the queue has ever been.
    pub fn peak_queue_depth(&self) -> usize {
        self.inner.peak_depth.load(Ordering::Relaxed) as usize
    }

    /// Total accepted submissions (admissions and releases).
    pub fn submitted(&self) -> u64 {
        self.inner.submitted.load(Ordering::Relaxed)
    }

    /// Total completed submissions.
    pub fn completed(&self) -> u64 {
        self.inner.completed.load(Ordering::Relaxed)
    }

    /// `true` once [`shutdown`](Self::shutdown) has been called.
    pub fn is_stopped(&self) -> bool {
        self.inner.stopped.load(Ordering::Acquire)
    }

    /// Enqueues `job`, re-checking the stopped flag **under the queue
    /// lock**: [`shutdown`](Self::shutdown) sets the flag under the same
    /// lock, so a job can never slip into the queue after the workers have
    /// been told to drain and exit (its completion would hang).
    fn enqueue(&self, job: Job) -> Result<(), ServiceError> {
        let mut queue = lock(&self.inner.queue);
        if self.inner.stopped.load(Ordering::Acquire) {
            return Err(ServiceError::Stopped);
        }
        if queue.len() >= self.inner.capacity {
            self.inner.queue_full.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::QueueFull);
        }
        queue.push_back(job);
        let depth = queue.len() as u64;
        self.inner.peak_depth.fetch_max(depth, Ordering::Relaxed);
        self.inner.depth.record(depth);
        drop(queue);
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        self.inner.cond.notify_one();
        Ok(())
    }

    /// Queues one admission without blocking; the decision arrives through
    /// the completion. A full queue or stopped front-end completes
    /// immediately with [`ServiceError::QueueFull`] /
    /// [`ServiceError::Stopped`].
    pub fn submit(&self, mut request: AdmissionRequest) -> Completion {
        // The front-end is the outermost layer a local submission crosses:
        // mint the request's root span here so queue wait and decision
        // spans share one trace even across the thread hop.
        if request.span.is_none() {
            request.span = Some(SpanContext::root());
        }
        let (completer, completion) = Completion::pending();
        if let Err(e) = self.enqueue(Job {
            op: Op::Admit(request, completer),
            enqueued: Instant::now(),
        }) {
            return Completion::ready(Err(e));
        }
        completion
    }

    /// Queues one release without blocking; the completion resolves to `()`
    /// once the wrapped service released the resident.
    pub fn submit_release(&self, resident: u64) -> Completion<()> {
        let (completer, completion) = Completion::pending();
        if let Err(e) = self.enqueue(Job {
            op: Op::Release(resident, completer),
            enqueued: Instant::now(),
        }) {
            return Completion::ready(Err(e));
        }
        completion
    }

    /// Stops the front-end: new submissions are refused, queued work is
    /// drained by the workers, and the pool is joined. Idempotent.
    pub fn shutdown(&self) {
        {
            // Under the queue lock, ordered against every enqueue: jobs
            // enqueued before this point are drained by the workers; later
            // submissions observe the flag and are refused.
            let _queue = lock(&self.inner.queue);
            self.inner.stopped.store(true, Ordering::Release);
        }
        self.inner.cond.notify_all();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.handles));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// The `"front-end"` layer row: queue/worker counters plus rate and
    /// quantile rows for queue wait and worker dwell time.
    fn layer(&self) -> LayerMetrics {
        let elapsed = self.inner.started.elapsed();
        let queue_wait = self.inner.queue_wait.snapshot();
        let dwell = self.inner.dwell.snapshot();
        let mut layer = LayerMetrics::new("front-end")
            .counter("workers", self.inner.workers as u64)
            .counter("queue_depth", self.queue_depth() as u64)
            .counter("peak_queue_depth", self.peak_queue_depth() as u64)
            .counter("submitted", self.submitted())
            .counter("completed", self.completed())
            .counter("queue_full", self.inner.queue_full.load(Ordering::Relaxed))
            .counter("mean_queue_wait_us", queue_wait.mean_micros())
            .counter("max_queue_wait_us", queue_wait.max_micros());
        if !queue_wait.is_empty() {
            layer = layer.op_rate(op_rate("queue_wait", &queue_wait, elapsed));
        }
        if !dwell.is_empty() {
            layer = layer.op_rate(op_rate("dwell", &dwell, elapsed));
        }
        layer
    }
}

impl Drop for FrontEnd {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl AdmissionService for FrontEnd {
    /// Submits and waits — the synchronous convenience over the queue.
    fn admit(&self, request: &AdmissionRequest) -> Result<AdmissionDecision, ServiceError> {
        self.submit(request.clone()).wait()
    }

    /// Releases synchronously through the queue, preserving submission
    /// order with queued admissions.
    fn release(&self, resident: u64) -> Result<(), ServiceError> {
        self.submit_release(resident).wait()
    }

    fn snapshot(&self) -> ServiceSnapshot {
        let mut snapshot = self.inner.service.snapshot();
        snapshot.layers.push(self.layer());
        snapshot
    }

    fn workload(&self) -> Option<&SystemSpec> {
        self.inner.service.workload()
    }

    /// Estimates bypass the queue: they change no admission state, so
    /// serving them inline keeps the queue for decisions.
    fn estimate(&self, use_case: UseCase, method: Method) -> Result<Arc<Estimate>, ServiceError> {
        self.inner.service.estimate(use_case, method)
    }

    /// The genuinely non-blocking submission path.
    fn submit(&self, request: AdmissionRequest) -> Completion {
        FrontEnd::submit(self, request)
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        let mut telemetry = self.inner.service.telemetry();
        telemetry.service.layers.push(self.layer());
        for (op, recorder) in [
            ("queue_wait", &self.inner.queue_wait),
            ("dwell", &self.inner.dwell),
            ("queue_depth", &self.inner.depth),
        ] {
            let hist = recorder.snapshot();
            if !hist.is_empty() {
                telemetry.push_histogram("front-end", op, hist);
            }
        }
        if let Some(trace) = &self.inner.trace {
            telemetry.trace = trace.stats();
        }
        telemetry
    }

    fn trace_tail(&self, limit: usize) -> Vec<TraceEvent> {
        match &self.inner.trace {
            Some(trace) => trace.tail(limit),
            None => self.inner.service.trace_tail(limit),
        }
    }

    fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.inner
            .trace
            .clone()
            .or_else(|| self.inner.service.trace_recorder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetConfig, FleetManager, RoutingPolicy};
    use platform::{Application, Mapping};
    use sdf::figure2_graphs;

    fn fleet(groups: usize, capacity: usize) -> FleetManager {
        let (a, b) = figure2_graphs();
        let spec = SystemSpec::builder()
            .application(Application::new("A", a).unwrap())
            .application(Application::new("B", b).unwrap())
            .mapping(Mapping::by_actor_index(3))
            .build()
            .unwrap();
        FleetManager::new(
            spec,
            FleetConfig::uniform(groups, 1, capacity, RoutingPolicy::LeastUtilised),
        )
        .unwrap()
    }

    fn front(groups: usize, capacity: usize, config: FrontEndConfig) -> FrontEnd {
        FrontEnd::new(Box::new(fleet(groups, capacity)), config)
    }

    #[test]
    fn submissions_complete_and_release_through_queue() {
        let front = front(2, 4, FrontEndConfig::default());
        let completions: Vec<Completion> = (0..4)
            .map(|i| front.submit(AdmissionRequest::new(i)))
            .collect();
        let mut residents = Vec::new();
        for completion in completions {
            let decision = completion.wait().unwrap();
            residents.extend(decision.resident());
        }
        assert_eq!(residents.len(), 4);
        for resident in residents {
            front.submit_release(resident).wait().unwrap();
        }
        assert_eq!(front.submitted(), 8);
        assert_eq!(front.completed(), 8);
        let snapshot = AdmissionService::snapshot(&front);
        assert_eq!(snapshot.residents, 0);
        assert_eq!(snapshot.admitted, 4);
        assert_eq!(snapshot.released, 4);
        assert_eq!(snapshot.counter("front-end", "submitted"), Some(8));
        front.shutdown();
    }

    #[test]
    fn single_worker_preserves_submission_order() {
        // One worker drains the MPSC queue in order: with capacity 1, the
        // first admission admits and the next two saturate deterministically.
        let front = front(
            1,
            1,
            FrontEndConfig {
                workers: 1,
                queue_capacity: 64,
            },
        );
        let completions: Vec<Completion> = (0..3)
            .map(|i| front.submit(AdmissionRequest::new(i)))
            .collect();
        let decisions: Vec<AdmissionDecision> =
            completions.iter().map(|c| c.wait().unwrap()).collect();
        assert!(decisions[0].is_admitted());
        assert_eq!(decisions[1], AdmissionDecision::Saturated { domain: 0 });
        assert_eq!(decisions[2], AdmissionDecision::Saturated { domain: 0 });
    }

    #[test]
    fn full_queue_rejects_submission() {
        let front = front(
            1,
            1,
            FrontEndConfig {
                workers: 1,
                queue_capacity: 1,
            },
        );
        // Stall the single worker behind a burst bigger than the queue.
        let burst: Vec<Completion> = (0..50)
            .map(|i| front.submit(AdmissionRequest::new(i)))
            .collect();
        let outcomes: Vec<Result<AdmissionDecision, ServiceError>> =
            burst.iter().map(|c| c.wait()).collect();
        assert!(
            outcomes.iter().any(|o| o == &Err(ServiceError::QueueFull)),
            "a 50-deep burst into a 1-slot queue must overflow"
        );
        assert!(outcomes.iter().any(Result::is_ok), "some submissions land");
    }

    #[test]
    fn shutdown_refuses_new_submissions_and_joins() {
        let front = front(2, 4, FrontEndConfig::default());
        let decision = front.submit(AdmissionRequest::new(0)).wait().unwrap();
        assert!(decision.is_admitted());
        front.shutdown();
        assert!(front.is_stopped());
        assert_eq!(
            front.submit(AdmissionRequest::new(1)).wait().unwrap_err(),
            ServiceError::Stopped
        );
        // Idempotent.
        front.shutdown();
    }

    #[test]
    fn telemetry_surfaces_queue_and_dwell_distributions() {
        let recorder = Arc::new(TraceRecorder::new(64));
        let front = FrontEnd::traced(
            Box::new(fleet(2, 4)),
            FrontEndConfig::default(),
            Arc::clone(&recorder),
        );
        let completions: Vec<Completion> = (0..4)
            .map(|i| front.submit(AdmissionRequest::new(i)))
            .collect();
        for completion in completions {
            completion.wait().unwrap();
        }
        let telemetry = AdmissionService::telemetry(&front);
        for op in ["queue_wait", "dwell", "queue_depth"] {
            let hist = telemetry.histogram("front-end", op).unwrap();
            assert_eq!(hist.count(), 4, "{op} must sample every job");
        }
        assert_eq!(telemetry.trace.capacity, 64);
        assert_eq!(telemetry.trace.recorded, 4);
        let tail = AdmissionService::trace_tail(&front, 10);
        assert_eq!(tail.len(), 4);
        assert!(tail.iter().all(|e| e.kind == TraceKind::QueueWait));
        // The snapshot layer carries the op-rate rows.
        let snapshot = AdmissionService::snapshot(&front);
        let layer = snapshot
            .layers
            .iter()
            .find(|l| l.layer == "front-end")
            .unwrap();
        assert!(layer.ops.iter().any(|r| r.op == "queue_wait"));
        assert!(layer.ops.iter().any(|r| r.op == "dwell"));
        front.shutdown();
    }

    #[test]
    fn front_end_is_an_admission_service() {
        let front = front(2, 4, FrontEndConfig::default());
        let decision = AdmissionService::admit(&front, &AdmissionRequest::new(0)).unwrap();
        assert!(decision.is_admitted());
        AdmissionService::release(&front, decision.resident().unwrap()).unwrap();
        assert!(front.workload().is_some());
        front
            .estimate(UseCase::full(2), Method::SECOND_ORDER)
            .unwrap();
        fn is_send_sync<T: Send + Sync>() {}
        is_send_sync::<FrontEnd>();
    }
}
