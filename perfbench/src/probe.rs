//! The benchmark's own timing probes for traced runs.
//!
//! A [`Probe`] is an [`AdmissionService`] wrapper inserted between two
//! layers of the served stack; it times every call into the layer below it
//! and keeps the span in memory. Spans nest per thread (each request is
//! decided on one worker thread), so a span's *self* time is its duration
//! minus the spans of the probes directly beneath it.

use contention::{Estimate, Method};
use platform::{Application, SystemSpec, UseCase};
use runtime::{
    AdmissionDecision, AdmissionRequest, AdmissionService, ServiceError, ServiceSnapshot,
    TelemetrySnapshot, TraceEvent, TraceRecorder,
};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::stats::Samples;

/// The layer a probe times: the span covers that layer and everything
/// beneath it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A benchmark client's call into its `RemoteClient`.
    Client,
    /// The served stack's outermost layer, `Traced`.
    Traced,
    Metered,
    Cached,
    FleetManager,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Admit,
    Release,
    Estimate,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Admitted,
    Rejected,
    Saturated,
    Done,
    Failed,
}

impl Outcome {
    pub fn of_admit(result: &Result<AdmissionDecision, ServiceError>) -> Outcome {
        match result {
            Ok(AdmissionDecision::Admitted { .. }) => Outcome::Admitted,
            Ok(AdmissionDecision::Rejected { .. }) => Outcome::Rejected,
            Ok(AdmissionDecision::Saturated { .. }) => Outcome::Saturated,
            Err(_) => Outcome::Failed,
        }
    }

    pub fn of<T>(result: &Result<T, ServiceError>) -> Outcome {
        if result.is_ok() {
            Outcome::Done
        } else {
            Outcome::Failed
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub op: Op,
    pub outcome: Outcome,
    pub span_ns: u64,
    pub self_ns: u64,
}

thread_local! {
    /// Child-span time accumulated by each open span on this thread,
    /// innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The in-memory span store, switched on only for traced rounds.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// Switched only between rounds, while no call is in flight.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Runs `f` as one span of `layer`, unless tracing is off.
    pub fn span<T>(
        &self,
        layer: Layer,
        op: Op,
        f: impl FnOnce() -> T,
        outcome: impl FnOnce(&T) -> Outcome,
    ) -> T {
        if !self.enabled.load(Ordering::Relaxed) {
            return f();
        }
        OPEN.with(|open| open.borrow_mut().push(0));
        let start = Instant::now();
        let out = f();
        let span_ns = start.elapsed().as_nanos() as u64;
        let child_ns = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let child = open.pop().unwrap_or(0);
            if let Some(parent) = open.last_mut() {
                *parent += span_ns;
            }
            child
        });
        let span = Span {
            layer,
            op,
            outcome: outcome(&out),
            span_ns,
            self_ns: span_ns.saturating_sub(child_ns),
        };
        self.spans.lock().expect("span store poisoned").push(span);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Times every call from the layer above into `inner`.
pub struct Probe<S> {
    layer: Layer,
    inner: S,
    tracer: Arc<Tracer>,
}

impl<S> Probe<S> {
    pub fn new(layer: Layer, inner: S, tracer: &Arc<Tracer>) -> Probe<S> {
        Probe {
            layer,
            inner,
            tracer: Arc::clone(tracer),
        }
    }
}

impl<S: AdmissionService> AdmissionService for Probe<S> {
    fn admit(&self, request: &AdmissionRequest) -> Result<AdmissionDecision, ServiceError> {
        self.tracer.span(
            self.layer,
            Op::Admit,
            || self.inner.admit(request),
            Outcome::of_admit,
        )
    }

    fn release(&self, resident: u64) -> Result<(), ServiceError> {
        self.tracer.span(
            self.layer,
            Op::Release,
            || self.inner.release(resident),
            Outcome::of,
        )
    }

    fn snapshot(&self) -> ServiceSnapshot {
        self.inner.snapshot()
    }

    fn workload(&self) -> Option<&SystemSpec> {
        self.inner.workload()
    }

    fn estimate(&self, use_case: UseCase, method: Method) -> Result<Arc<Estimate>, ServiceError> {
        self.tracer.span(
            self.layer,
            Op::Estimate,
            || self.inner.estimate(use_case, method),
            Outcome::of,
        )
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        self.inner.telemetry()
    }

    fn trace_tail(&self, limit: usize) -> Vec<TraceEvent> {
        self.inner.trace_tail(limit)
    }

    fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.inner.trace_recorder()
    }
}

/// Span durations in microseconds.
pub fn span_us<'a>(spans: impl Iterator<Item = &'a Span>) -> Samples {
    let mut out = Samples::default();
    for s in spans {
        out.push_us(s.span_ns as f64 / 1e3);
    }
    out
}

/// Self times in microseconds.
pub fn self_us<'a>(spans: impl Iterator<Item = &'a Span>) -> Samples {
    let mut out = Samples::default();
    for s in spans {
        out.push_us(s.self_ns as f64 / 1e3);
    }
    out
}

/// `sdf::analyze_period` on every application graph in isolation,
/// `repeats` times each: the kernel probe every workload reports.
pub fn analyze_period_us(apps: &[Application], repeats: usize) -> Result<Samples, String> {
    let mut samples = Samples::default();
    for app in apps {
        for _ in 0..repeats {
            let start = Instant::now();
            let analysis = sdf::analyze_period(std::hint::black_box(app.graph()))
                .map_err(|e| format!("analyze_period({}): {e}", app.name()))?;
            samples.push(start.elapsed());
            if analysis.period != app.isolation_period() {
                return Err(format!(
                    "analyze_period({}) gave {} but the application's isolation period is {}",
                    app.name(),
                    analysis.period,
                    app.isolation_period()
                ));
            }
        }
    }
    Ok(samples)
}
