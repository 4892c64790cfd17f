//! Seeded fleet workload driver — the engine behind `probcon fleet-bench`
//! and the deterministic-replay integration tests.
//!
//! [`seeded_fleet_requests`] produces a deterministic
//! admit/release/rebalance/estimate stream for a workload spec, and
//! [`run_requests`] — the one driver — drains it through **any**
//! [`AdmissionService`] stack on a worker pool: a bare or layered local
//! [`FleetManager`], or a remote client whose fleet lives in another
//! process. Single-threaded runs are fully deterministic, which is what
//! the replay tests record. Every decision the run makes lands in the
//! fleet's journal, including the final drain of still-held residents, so
//! a recorded journal always ends on an empty fleet.

use crate::cache::lock;
use crate::fleet::{FleetManager, FleetSnapshot};
use crate::service::{AdmissionDecision, AdmissionRequest, AdmissionService, ServiceSnapshot};
use contention::Method;
use platform::{AppId, SystemSpec, UseCase};
use sdf::Rational;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One unit of fleet work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetRequest {
    /// Admit an instance of the spec's application `app_index`.
    Admit {
        /// Index of the application in the workload spec.
        app_index: usize,
        /// Required minimum throughput, if any.
        required_throughput: Option<Rational>,
        /// Affinity tag steering [`RoutingPolicy::Affinity`](crate::RoutingPolicy::Affinity).
        affinity: Option<String>,
    },
    /// Release the oldest still-held resident (no-op when none).
    Release,
    /// Run one fleet rebalancing pass.
    Rebalance,
    /// Estimate all periods of a use-case through the stack (served by a
    /// [`Cached`](crate::Cached) layer when one is present).
    Estimate {
        /// Active-application mask.
        use_case: UseCase,
        /// Estimation method.
        method: Method,
    },
}

/// Deterministic seeded request stream with a fleet-bench-shaped mix
/// (≈45 % admit, 30 % release, 10 % rebalance, 15 % estimate). Half the
/// admissions carry a throughput contract at 60 % of isolation; half carry
/// an affinity tag `uc{app_index % groups}` matching
/// [`FleetConfig::uniform`](crate::FleetConfig::uniform). Estimates use
/// [`Method::Composability`] — the sign-off default, so
/// [`Cached::warm_from_signoff`](crate::Cached::warm_from_signoff) covers
/// them.
pub fn seeded_fleet_requests(
    spec: &SystemSpec,
    groups: usize,
    count: usize,
    seed: u64,
) -> Vec<FleetRequest> {
    use rand::{rngs::StdRng, RngCore, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next = move || rng.next_u64();
    let apps = spec.application_count();
    let groups = groups.max(1);
    (0..count)
        .map(|_| {
            let roll = next() % 100;
            if roll < 45 {
                let app_index = next() as usize % apps;
                let required_throughput = if next() % 2 == 0 {
                    Some(
                        spec.application(AppId(app_index)).isolation_throughput()
                            * Rational::new(3, 5),
                    )
                } else {
                    None
                };
                let affinity = if next() % 2 == 0 {
                    Some(format!("uc{}", app_index % groups))
                } else {
                    None
                };
                FleetRequest::Admit {
                    app_index,
                    required_throughput,
                    affinity,
                }
            } else if roll < 75 {
                FleetRequest::Release
            } else if roll < 85 {
                FleetRequest::Rebalance
            } else {
                let mask = next() % ((1u64 << apps.min(20)) - 1) + 1;
                FleetRequest::Estimate {
                    use_case: UseCase::from_mask(mask),
                    method: Method::Composability,
                }
            }
        })
        .collect()
}

/// Outcome counts and fleet state of one executed request stream.
#[derive(Debug, Clone)]
pub struct FleetBenchReport {
    /// Requests executed.
    pub requests: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time for the whole stream.
    pub wall: Duration,
    /// Residents still held when the stream ended (before the drain).
    pub residents_at_end: usize,
    /// Fleet state after the final drain (journal totals include the drain
    /// releases). `None` when the run drove a service with no local fleet
    /// — e.g. a [`RemoteClient`](crate::RemoteClient), whose fleet lives in
    /// another process and shows up in [`stack`](Self::stack) instead.
    pub snapshot: Option<FleetSnapshot>,
    /// Final service-stack snapshot with per-layer metrics (cache hits,
    /// journal length, latency rows, queue depth — whatever the layers in
    /// the driven stack surface).
    pub stack: ServiceSnapshot,
    /// Journal entries recorded by the run.
    pub journal_len: usize,
}

impl FleetBenchReport {
    /// Requests per second over the wall-clock time.
    pub fn throughput(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.requests as f64 / self.wall.as_secs_f64()
        }
    }

    /// Renders the metrics block printed by `probcon fleet-bench`: the
    /// per-group fleet table followed by the per-layer service table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} requests on {} threads in {:.3?}  ({:.1} req/s), \
             {} residents at end, {} journal entries",
            self.requests,
            self.threads,
            self.wall,
            self.throughput(),
            self.residents_at_end,
            self.journal_len,
        );
        if let Some(snapshot) = &self.snapshot {
            out.push_str(&snapshot.render());
        }
        out.push_str(&self.stack.render());
        out
    }
}

/// One periodic sample of a running stream's live telemetry — the points
/// of the trajectory `probcon fleet-bench --telemetry` writes out.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryPoint {
    /// Milliseconds since the run started.
    pub t_ms: u64,
    /// Residents live at the sample.
    pub residents: u64,
    /// Admissions granted so far (cumulative).
    pub admitted: u64,
    /// Admissions rejected so far.
    pub rejected: u64,
    /// Admissions bounced for saturation so far.
    pub saturated: u64,
    /// Residents released so far.
    pub released: u64,
    /// Median admit latency (µs) over the whole run so far, as the
    /// outermost [`Metered`](crate::Metered) layer of the driven stack saw
    /// it — over `--connect` that is the client's layer, not the served
    /// stack's; 0 without a `Metered` layer.
    pub admit_p50_us: u64,
    /// 99th-percentile admit latency (µs) so far.
    pub admit_p99_us: u64,
    /// 99.9th-percentile admit latency (µs) so far.
    pub admit_p999_us: u64,
    /// Per-connection fan-in at the sample, when the run drives several
    /// client connections (`probcon fleet-bench --connect
    /// --connections N`). Trailing `skip_none` field: trajectories from
    /// single-connection runs serialize unchanged.
    #[serde(skip_none)]
    pub connections: Option<Vec<ConnectionPoint>>,
}

/// One client connection's cumulative traffic inside a
/// [`TelemetryPoint`] — how the request stream fanned in across the
/// connection pool at that instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectionPoint {
    /// Connection index within the run's pool.
    pub conn: u64,
    /// Request frames this connection has sent.
    pub requests_sent: u64,
    /// Responses it has received.
    pub responses: u64,
    /// Requests failed by transport errors.
    pub transport_errors: u64,
    /// Requests in flight at the sample.
    pub pending: u64,
}

/// Reads the per-connection fan-in for one [`TelemetryPoint`]; `None`
/// when the run has no connection pool to sample.
pub type ConnectionSampler<'a> = &'a (dyn Fn() -> Vec<ConnectionPoint> + Sync);

impl TelemetryPoint {
    fn sample(
        service: &dyn AdmissionService,
        start: Instant,
        connections: Option<ConnectionSampler<'_>>,
    ) -> TelemetryPoint {
        let telemetry = service.telemetry();
        let service = &telemetry.service;
        // Layers push their histograms innermost first, so the last
        // `metered` one is the driven stack's outermost — a served
        // stack's own `Metered` layer would understate what a remote
        // driver observed.
        let admit = telemetry
            .histograms
            .iter()
            .rev()
            .find(|h| h.layer == "metered" && h.op == "admit")
            .map(|h| &h.histogram);
        TelemetryPoint {
            t_ms: u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX),
            residents: service.residents as u64,
            admitted: service.admitted,
            rejected: service.rejected,
            saturated: service.saturated,
            released: service.released,
            admit_p50_us: admit.map_or(0, |h| h.p50()),
            admit_p99_us: admit.map_or(0, |h| h.p99()),
            admit_p999_us: admit.map_or(0, |h| h.p999()),
            connections: connections.map(|sample| sample()),
        }
    }
}

/// Executes `requests` against `service` on `threads` workers and
/// reports the run's metrics — the one driver behind every fleet bench.
///
/// Admissions, releases and estimates go through the stack. Residents
/// admitted during the run are held in a shared pool (drained
/// oldest-first by `Release` requests) and all released when the run
/// ends, so the journal closes on an empty fleet. With `threads == 1` the
/// run — and therefore the journal — is fully deterministic.
///
/// * `fleet` is the [`FleetManager`] the stack is layered over, when it
///   lives in this process: rebalance passes go to it directly
///   (rebalancing is a fleet operation, not a service one) and the report
///   carries its [`snapshot`](FleetBenchReport::snapshot). With `None` —
///   a [`RemoteClient`](crate::RemoteClient) or any other stack whose
///   fleet lives elsewhere — rebalance passes become snapshot probes, the
///   report's snapshot is `None`, and the journal length is read from the
///   stack's `fleet` layer.
/// * `sample_every` runs a side thread that samples the stack's live
///   [`telemetry`](AdmissionService::telemetry) — the surface
///   `probcon top` polls — into [`TelemetryPoint`]s at that interval,
///   closing the trajectory with one point on the executed stream's end
///   state (before the drain). With `None` the returned trajectory is
///   empty.
/// * `connections` adds one [`ConnectionPoint`] per client connection to
///   every sample — the engine behind
///   `probcon fleet-bench --connect --connections N --telemetry`.
pub fn run_requests(
    service: &dyn AdmissionService,
    fleet: Option<&FleetManager>,
    requests: Vec<FleetRequest>,
    threads: usize,
    sample_every: Option<Duration>,
    connections: Option<ConnectionSampler<'_>>,
) -> (FleetBenchReport, Vec<TelemetryPoint>) {
    let threads = threads.max(1);
    let total = requests.len();
    let queue = Mutex::new(requests.into_iter().collect::<VecDeque<FleetRequest>>());
    let pool: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let done = AtomicBool::new(false);
    let points: Mutex<Vec<TelemetryPoint>> = Mutex::new(Vec::new());

    let start = Instant::now();
    let wall = std::thread::scope(|scope| {
        if let Some(interval) = sample_every {
            let interval = interval.max(Duration::from_millis(1));
            // Poll the stop flag at a finer grain than the sample interval
            // so a finished run is not held open for a whole period.
            let tick = interval.min(Duration::from_millis(5));
            let done = &done;
            let points = &points;
            scope.spawn(move || {
                let mut next_at = start + interval;
                while !done.load(Ordering::Acquire) {
                    std::thread::sleep(tick);
                    if Instant::now() >= next_at {
                        lock(points).push(TelemetryPoint::sample(service, start, connections));
                        next_at += interval;
                    }
                }
                // Close the trajectory on the end state (pre-drain).
                lock(points).push(TelemetryPoint::sample(service, start, connections));
            });
        }
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let queue = &queue;
                let pool = &pool;
                scope.spawn(move || loop {
                    let Some(request) = lock(queue).pop_front() else {
                        return;
                    };
                    match request {
                        FleetRequest::Admit {
                            app_index,
                            required_throughput,
                            affinity,
                        } => {
                            // Analysis errors cannot occur for generator-valid
                            // specs; a saturated or rejected decision is already
                            // journaled and counted by the fleet.
                            let request = AdmissionRequest {
                                app_index,
                                required_throughput,
                                affinity,
                                target: None,
                                span: None,
                            };
                            if let Ok(AdmissionDecision::Admitted { resident, .. }) =
                                service.admit(&request)
                            {
                                lock(pool).push(resident);
                            }
                        }
                        FleetRequest::Release => {
                            let resident = {
                                let mut pool = lock(pool);
                                if pool.is_empty() {
                                    None
                                } else {
                                    Some(pool.remove(0))
                                }
                            };
                            if let Some(resident) = resident {
                                let _ = service.release(resident);
                            }
                        }
                        FleetRequest::Rebalance => match fleet {
                            Some(fleet) => {
                                fleet.rebalance();
                            }
                            // No local fleet: keep the stream shape by probing
                            // the stack instead (a cheap read, like rebalance
                            // evaluation on an already-balanced fleet).
                            None => {
                                let _ = service.snapshot();
                            }
                        },
                        FleetRequest::Estimate { use_case, method } => {
                            let _ = service.estimate(use_case, method);
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            let _ = worker.join();
        }
        let wall = start.elapsed();
        // Stop the sampler only after the workers are done so its final
        // point reflects the fully-executed stream.
        done.store(true, Ordering::Release);
        wall
    });

    let residents_at_end = lock(&pool).len();
    // Drain: journal a release for every still-held resident.
    for resident in lock(&pool).drain(..) {
        let _ = service.release(resident);
    }

    let stack = service.snapshot();
    let journal_len = match fleet {
        Some(fleet) => fleet.journal().len(),
        // Remote stacks surface the served fleet's journal length through
        // its layer counter instead.
        None => stack.counter("fleet", "journal_entries").unwrap_or(0) as usize,
    };
    let report = FleetBenchReport {
        requests: total,
        threads,
        wall,
        residents_at_end,
        snapshot: fleet.map(FleetManager::snapshot),
        stack,
        journal_len,
    };
    (report, points.into_inner().unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetConfig, RoutingPolicy};
    use crate::journal::journaled;
    use crate::service::{Cached, Metered};
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

    #[test]
    fn seeded_stream_deterministic_and_mixed() {
        let spec = spec();
        let a = seeded_fleet_requests(&spec, 4, 300, 11);
        let b = seeded_fleet_requests(&spec, 4, 300, 11);
        assert_eq!(a, b);
        assert_ne!(a, seeded_fleet_requests(&spec, 4, 300, 12));
        let admits = a
            .iter()
            .filter(|r| matches!(r, FleetRequest::Admit { .. }))
            .count();
        let rebalances = a
            .iter()
            .filter(|r| matches!(r, FleetRequest::Rebalance))
            .count();
        let estimates = a
            .iter()
            .filter(|r| matches!(r, FleetRequest::Estimate { .. }))
            .count();
        assert!((90..=210).contains(&admits), "{admits}");
        assert!((10..=70).contains(&rebalances), "{rebalances}");
        assert!((15..=90).contains(&estimates), "{estimates}");
        // Affinity tags stay within the group universe.
        for r in &a {
            if let FleetRequest::Admit {
                affinity: Some(tag),
                ..
            } = r
            {
                assert!(tag.starts_with("uc"), "{tag}");
            }
        }
    }

    #[test]
    fn run_drains_and_balances_books() {
        let spec = spec();
        let fleet = FleetManager::new(
            spec.clone(),
            FleetConfig::uniform(2, 1, 3, RoutingPolicy::LeastUtilised),
        )
        .unwrap();
        let (report, points) = run_requests(
            &fleet,
            Some(&fleet),
            seeded_fleet_requests(&spec, 2, 120, 5),
            1,
            None,
            None,
        );
        assert!(points.is_empty(), "no sampler without an interval");
        assert_eq!(report.requests, 120);
        assert!(
            report.snapshot.as_ref().is_some_and(|s| s.admitted > 0),
            "{report:?}"
        );
        // Fully drained after the run; admits and releases balance.
        assert_eq!(fleet.resident_count(), 0);
        let snap = fleet.snapshot();
        assert_eq!(snap.admitted, snap.released);
        assert_eq!(report.journal_len, fleet.journal().len());
        let text = report.render();
        for needle in ["req/s", "journal entries", "fleet:", "admitted", "service:"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn sampled_run_records_a_monotone_trajectory() {
        let spec = spec();
        let fleet = FleetManager::new(
            spec.clone(),
            FleetConfig::uniform(2, 1, 3, RoutingPolicy::LeastUtilised),
        )
        .unwrap();
        let stack = Metered::new(Cached::new(fleet.clone(), 32));
        let (report, points) = run_requests(
            &stack,
            Some(&fleet),
            seeded_fleet_requests(&spec, 2, 400, 5),
            2,
            Some(Duration::from_millis(1)),
            None,
        );
        assert_eq!(report.requests, 400);
        // At least the closing point lands, and time never runs backwards.
        assert!(!points.is_empty());
        for pair in points.windows(2) {
            assert!(pair[0].t_ms <= pair[1].t_ms, "{points:?}");
            assert!(pair[0].admitted <= pair[1].admitted, "{points:?}");
        }
        let last = points.last().unwrap();
        assert!(last.admitted > 0, "{last:?}");
        assert!(last.admit_p999_us >= last.admit_p50_us, "{last:?}");
        // The trajectory serializes as JSON for --telemetry output.
        let json = serde_json::to_string(&points).unwrap();
        let back: Vec<TelemetryPoint> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, points);
    }

    #[test]
    fn stack_run_surfaces_layer_metrics_and_matches_bare_decisions() {
        let spec = spec();
        let requests = seeded_fleet_requests(&spec, 2, 120, 5);

        let bare = FleetManager::new(
            spec.clone(),
            FleetConfig::uniform(2, 1, 3, RoutingPolicy::LeastUtilised),
        )
        .unwrap();
        let _ = run_requests(&bare, Some(&bare), requests.clone(), 1, None, None);

        let fleet = FleetManager::new(
            spec.clone(),
            FleetConfig::uniform(2, 1, 3, RoutingPolicy::LeastUtilised),
        )
        .unwrap();
        let stack = Metered::new(Cached::new(fleet.clone(), 32));
        let (report, _) = run_requests(&stack, Some(&fleet), requests, 1, None, None);

        // Middleware is decision-transparent: the journals agree event for
        // event with the bare run.
        assert_eq!(journaled(fleet.journal()), journaled(bare.journal()));
        // ... and the stack surfaced cache + latency metrics.
        assert!(report.stack.counter("cached", "misses").unwrap_or(0) > 0);
        assert!(report.stack.counter("metered", "operations").unwrap_or(0) > 0);
        let text = report.render();
        for needle in ["cached", "metered", "hits"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
