//! `serve-remote`: the deployed path.
//!
//! An in-process `RemoteServer` (default config, 4 workers) serves the
//! `probcon serve` stack on a Unix socket in a fresh directory of the
//! working tree: `Traced` (4096-event recorder) over `Metered` over
//! `Cached` (256 entries) over a `FleetManager` of
//! `workload_with(2007, 6, 5 actors)`, 4 groups × 1 shard × capacity 4,
//! least-utilised routing, journaling into a WAL with the default config.
//! One client drives one binary-wire `RemoteClient` through a seeded
//! closed-loop mix: 40% admit (half with a contract at 60% of isolation
//! throughput), 30% release of its oldest resident (skipped when it holds
//! none), 30% Composability estimate of a uniformly drawn non-empty
//! use-case. Each round ends with the client releasing what it holds, so
//! every round starts from an empty fleet and, with one call in flight at a
//! time, makes the very same decisions: every round must hash alike. Every
//! thread of the run shares one CPU (see [`pin_to_current_cpu`]).
//!
//! After timing, the WAL is reopened from disk and replayed against a
//! fresh fleet of the same shape; the run fails unless the replay is
//! equivalent.

use crate::probe::{analyze_period_us, self_us, span_us, Layer, Op, Outcome, Probe, Tracer};
use crate::report::Report;
use crate::rng::Rng;
use crate::rounds::{timed_setups, Budget, Fastest, RoundRates};
use crate::stats::{peak_rss_mb, share, OutputHash, Samples};
use contention::{Estimate, Method};
use experiments::workload::{workload_with, DEFAULT_SEED};
use platform::{SystemSpec, UseCase};
use runtime::{
    AdmissionDecision, AdmissionRequest, AdmissionService, Cached, ClientConfig, DecisionEvent,
    Endpoint, FleetConfig, FleetManager, Journal, JournalHeader, JournalOutcome, JournalReplayer,
    Metered, RemoteClient, RemoteServer, RemoteServerConfig, RoutingPolicy, ServiceError,
    TraceRecorder, Traced, WalConfig, WireMode, JOURNAL_VERSION,
};
use sdf::{GeneratorConfig, Rational};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const APPS: usize = 6;
const ACTORS: usize = 5;
const GROUPS: usize = 4;
const SHARDS: usize = 1;
const CAPACITY: usize = 4;
const CACHE_ENTRIES: usize = 256;
const TRACE_EVENTS: usize = 4096;
const STREAM: u64 = 3;
const WARMUP_OPS: usize = 1000;
const ROUND_OPS: usize = 4000;
const ADMIT_PERCENT: usize = 40;
const RELEASE_PERCENT: usize = 30;
const CONTRACT_PERCENT: usize = 50;
/// Where runs keep their sockets and WALs, relative to the working
/// directory (a short relative path keeps the socket path within the
/// platform's limit however deep the checkout is).
const RUN_ROOT: &str = ".bench_run";

#[derive(Debug, Clone, Copy)]
enum Intent {
    Admit { app: usize, contract: bool },
    ReleaseOldest,
    Estimate { mask: u64 },
}

/// The client's stream: the warm-up prefix, then the round prefix.
fn intents(seed: u64) -> Vec<Intent> {
    let mut rng = Rng::new(seed, STREAM);
    (0..WARMUP_OPS + ROUND_OPS)
        .map(|_| {
            let roll = rng.below(100);
            if roll < ADMIT_PERCENT {
                Intent::Admit {
                    app: rng.below(APPS),
                    contract: rng.chance(CONTRACT_PERCENT),
                }
            } else if roll < ADMIT_PERCENT + RELEASE_PERCENT {
                Intent::ReleaseOldest
            } else {
                Intent::Estimate {
                    mask: 1 + rng.below((1 << APPS) - 1) as u64,
                }
            }
        })
        .collect()
}

fn fleet_config(capacity: usize) -> FleetConfig {
    FleetConfig::uniform(GROUPS, SHARDS, capacity, RoutingPolicy::LeastUtilised)
}

/// This run's directory under [`RUN_ROOT`], removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> Result<RunDir, String> {
        let path = Path::new(RUN_ROOT).join(format!("serve-remote-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(RunDir(path))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only when no other run is using the root.
        let _ = std::fs::remove_dir(RUN_ROOT);
    }
}

/// What the client's calls did, summed over rounds.
#[derive(Default)]
struct Tally {
    /// Calls of the mix.
    calls: u64,
    /// Releases of what the client still holds at the end of a round: real
    /// calls, but outside the mix, so not timed.
    drained: u64,
    admits: u64,
    admitted: u64,
    rejected: u64,
    saturated: u64,
    failed: u64,
    transport_failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn attempted(&self) -> u64 {
        self.calls + self.drained
    }

    fn fail(&mut self, what: &str, e: ServiceError) {
        self.failed += 1;
        if matches!(e, ServiceError::Transport(_)) {
            self.transport_failed += 1;
        }
        if self.errors.len() < 5 {
            self.errors.push(format!("{what}: {e}"));
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.errors.len() < 5 {
            self.errors.push(what());
        }
    }
}

/// One pass over a stream: each timed call's kind and time in microseconds,
/// in call order, and the hash of every answer except resident ids (the
/// fleet's and the kernel's), which grow from round to round.
#[derive(Default)]
struct Pass {
    ops: Vec<Op>,
    times: Vec<f64>,
    hash: OutputHash,
}

impl Pass {
    fn push(&mut self, op: Op, start: Instant) {
        self.ops.push(op);
        self.times.push(start.elapsed().as_secs_f64() * 1e6);
    }
}

/// The client's connection and what it holds.
struct Client {
    conn: RemoteClient,
    /// Residents admitted through this client, oldest first.
    held: VecDeque<u64>,
    /// The first answer to each estimate key; every later one must equal
    /// it.
    seen: HashMap<u64, Arc<Estimate>>,
}

impl Client {
    /// Runs `intents` closed-loop, timing each call, then releases what it
    /// still holds. With a tracer, each call is also a client span.
    fn drive(
        &mut self,
        intents: &[Intent],
        contracts: &[Rational],
        tally: &mut Tally,
        pass: &mut Pass,
        tracer: Option<&Tracer>,
    ) {
        for intent in intents {
            match *intent {
                Intent::Admit { app, contract } => {
                    let mut request = AdmissionRequest::new(app);
                    if contract {
                        request = request.with_contract(contracts[app]);
                    }
                    let start = Instant::now();
                    let result = client_span(
                        tracer,
                        Op::Admit,
                        || self.conn.admit(&request),
                        Outcome::of_admit,
                    );
                    pass.push(Op::Admit, start);
                    tally.calls += 1;
                    tally.admits += 1;
                    pass.hash.u64(1);
                    pass.hash.u64(app as u64);
                    pass.hash.u64(u64::from(contract));
                    match result {
                        Ok(AdmissionDecision::Admitted {
                            resident,
                            domain,
                            predicted_period,
                        }) => {
                            tally.admitted += 1;
                            self.held.push_back(resident);
                            pass.hash.u64(domain as u64);
                            pass.hash.rational(predicted_period);
                            tally.check(domain < GROUPS && predicted_period.is_positive(), || {
                                format!(
                                    "admit #{resident}: domain {domain}, period {predicted_period}"
                                )
                            });
                        }
                        Ok(AdmissionDecision::Rejected { domain, violations }) => {
                            tally.rejected += 1;
                            pass.hash.u64(u64::MAX - 1);
                            pass.hash.u64(domain as u64);
                            for v in &violations {
                                // Whether the candidate or a resident is
                                // violated: resident ids grow between rounds.
                                pass.hash.u64(u64::from(v.app.is_some()));
                                pass.hash.rational(v.required);
                                pass.hash.rational(v.predicted);
                            }
                            tally.check(!violations.is_empty(), || {
                                "rejection without a violation".to_string()
                            });
                        }
                        Ok(AdmissionDecision::Saturated { domain }) => {
                            tally.saturated += 1;
                            pass.hash.u64(u64::MAX - 2);
                            pass.hash.u64(domain as u64);
                        }
                        Err(e) => {
                            pass.hash.u64(u64::MAX);
                            tally.fail("admit", e);
                        }
                    }
                }
                Intent::ReleaseOldest => {
                    let Some(resident) = self.held.pop_front() else {
                        continue;
                    };
                    let start = Instant::now();
                    let result = client_span(
                        tracer,
                        Op::Release,
                        || self.conn.release(resident),
                        Outcome::of,
                    );
                    pass.push(Op::Release, start);
                    tally.calls += 1;
                    pass.hash.u64(2);
                    pass.hash.u64(u64::from(result.is_ok()));
                    if let Err(e) = result {
                        tally.fail("release", e);
                    }
                }
                Intent::Estimate { mask } => {
                    let use_case = UseCase::from_mask(mask);
                    let start = Instant::now();
                    let result = client_span(
                        tracer,
                        Op::Estimate,
                        || self.conn.estimate(use_case, Method::Composability),
                        Outcome::of,
                    );
                    pass.push(Op::Estimate, start);
                    tally.calls += 1;
                    pass.hash.u64(3);
                    pass.hash.u64(mask);
                    match result {
                        Ok(estimate) => {
                            for (app, period) in estimate.periods() {
                                pass.hash.u64(app.0 as u64);
                                pass.hash.rational(*period);
                            }
                            let first = self
                                .seen
                                .entry(mask)
                                .or_insert_with(|| Arc::clone(&estimate));
                            let same = **first == *estimate;
                            tally.check(same, || {
                                format!("estimate {use_case} changed between calls")
                            });
                        }
                        Err(e) => {
                            pass.hash.u64(u64::MAX);
                            tally.fail("estimate", e);
                        }
                    }
                }
            }
        }
        while let Some(resident) = self.held.pop_front() {
            tally.drained += 1;
            if let Err(e) = self.conn.release(resident) {
                tally.fail("release", e);
            }
        }
    }
}

/// Runs one client call, as a client span when tracing.
fn client_span<T>(
    tracer: Option<&Tracer>,
    op: Op,
    call: impl FnOnce() -> Result<T, ServiceError>,
    outcome: fn(&Result<T, ServiceError>) -> Outcome,
) -> Result<T, ServiceError> {
    match tracer {
        Some(t) => t.span(Layer::Client, op, call, outcome),
        None => call(),
    }
}

/// The served stack, its server and the connected client.
///
/// Fields drop in order: the client disconnects before the server shuts
/// down.
struct Served {
    client: Client,
    server: RemoteServer,
    stack: Arc<dyn AdmissionService>,
    recorder: Arc<TraceRecorder>,
    fleet: FleetManager,
    spec: SystemSpec,
    contracts: Vec<Rational>,
    stream: Vec<Intent>,
    wal: PathBuf,
}

impl Served {
    fn setup(seed: u64, tracer: Option<&Arc<Tracer>>, dir: &Path) -> Result<Served, String> {
        let root = dir.join(format!("s{}", SETUP_INDEX.fetch_add(1, Ordering::Relaxed)));
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        let spec = workload_with(DEFAULT_SEED, APPS, &GeneratorConfig::with_actors(ACTORS))
            .map_err(|e| e.to_string())?;
        let config = fleet_config(CAPACITY);
        let header = JournalHeader {
            version: JOURNAL_VERSION,
            seed: DEFAULT_SEED,
            apps: APPS as u64,
            actors: ACTORS as u64,
            groups: GROUPS as u64,
            shards_per_group: SHARDS as u64,
            capacity_per_shard: CAPACITY as u64,
            policy: RoutingPolicy::LeastUtilised.to_string(),
            group_shapes: Vec::new(),
        };
        let wal = root.join("wal");
        let journal = Journal::create_wal(
            &wal,
            FleetManager::stamped_header(&config, header),
            WalConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let fleet =
            FleetManager::with_journal(spec.clone(), config, journal).map_err(|e| e.to_string())?;

        // The `probcon serve` stack, outermost first; a traced run puts a
        // probe above each layer.
        let recorder = Arc::new(TraceRecorder::new(TRACE_EVENTS));
        fleet.attach_trace(Arc::clone(&recorder));
        let stack: Arc<dyn AdmissionService> = match tracer {
            Some(tracer) => {
                let cached = Cached::new(
                    Probe::new(Layer::FleetManager, fleet.clone(), tracer),
                    CACHE_ENTRIES,
                );
                cached.attach_trace(Arc::clone(&recorder));
                let metered = Metered::new(Probe::new(Layer::Cached, cached, tracer));
                let traced = Traced::with_recorder(
                    Probe::new(Layer::Metered, metered, tracer),
                    Arc::clone(&recorder),
                );
                Arc::new(Probe::new(Layer::Traced, traced, tracer))
            }
            None => {
                let cached = Cached::new(fleet.clone(), CACHE_ENTRIES);
                cached.attach_trace(Arc::clone(&recorder));
                Arc::new(Traced::with_recorder(
                    Metered::new(cached),
                    Arc::clone(&recorder),
                ))
            }
        };
        let server = RemoteServer::bind_with(
            &Endpoint::Unix(root.join("sock")),
            Arc::clone(&stack),
            None,
            RemoteServerConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let conn = RemoteClient::connect_config(
            server.local_addr(),
            ClientConfig {
                client: Some("perfbench".to_string()),
                wire: WireMode::Binary,
                ..ClientConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        if conn.wire_mode() != WireMode::Binary {
            return Err(format!(
                "the client was granted {:?} framing",
                conn.wire_mode()
            ));
        }
        let mut client = Client {
            conn,
            held: VecDeque::new(),
            seen: HashMap::new(),
        };
        let contracts: Vec<Rational> = spec
            .applications()
            .iter()
            .map(|a| a.isolation_throughput() * Rational::new(3, 5))
            .collect();
        let stream = intents(seed);
        let mut warmup = Tally::default();
        client.drive(
            &stream[..WARMUP_OPS],
            &contracts,
            &mut warmup,
            &mut Pass::default(),
            None,
        );
        if let Some(e) = warmup.errors.first() {
            return Err(format!("warm-up: {e}"));
        }
        Ok(Served {
            client,
            server,
            stack,
            recorder,
            fleet,
            spec,
            contracts,
            stream,
            wal,
        })
    }

    fn cache_counts(&self) -> (u64, u64) {
        let snapshot = self.stack.snapshot();
        (
            snapshot.counter("cached", "hits").unwrap_or(0),
            snapshot.counter("cached", "misses").unwrap_or(0),
        )
    }
}

/// Distinguishes the set-up directories of one run.
static SETUP_INDEX: AtomicU64 = AtomicU64::new(0);

/// Pins the calling thread, and every thread it starts afterwards (the
/// server's event loop and workers, the client's reader), to the CPU it is
/// running on; returns that CPU.
///
/// One call is in flight at a time, so the threads a call passes through
/// never run together, and on one CPU each hand-off between them is a plain
/// context switch. Spread over the vCPUs of a shared VM, the same hand-offs
/// wait on cross-CPU wake-ups, which spread `ops_per_s` by 12% (quartile
/// distance over median) across seeds and runs.
#[cfg(target_os = "linux")]
fn pin_to_current_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads the calling
    // thread's state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu)
        .map_err(|_| format!("sched_getcpu: {}", std::io::Error::last_os_error()))?;
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} does not fit a 1024-CPU mask"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is initialised and lives across the call, its size in
    // bytes is the size passed, and pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_cpu() -> Result<usize, String> {
    Err("pinning is implemented only on Linux".into())
}

/// Runs the workload; returns the output hash of one round.
pub fn run(
    seed: u64,
    budget: &Budget,
    replay_capacity: Option<usize>,
    report: &mut Report,
) -> Result<u64, String> {
    // Unpinned, the run still works but spreads wider.
    let pinned = pin_to_current_cpu();
    let dir = RunDir::create()?;
    let tracer = budget.traced.then(|| Arc::new(Tracer::default()));
    let (mut served, setup_s, setups) =
        timed_setups(budget, || Served::setup(seed, tracer.as_ref(), &dir.0))?;

    let (hits_before, misses_before) = served.cache_counts();
    let mut rates = RoundRates::default();
    let mut fastest = Fastest::default();
    let mut ops = Vec::new();
    let mut untraced = Tally::default();
    let mut traced = Tally::default();
    let mut round_hash = None;
    let started = Instant::now();
    let mut round = 0;
    while budget.more(round, started) {
        let is_traced = budget.traced_round(round);
        let (tally, probe) = if is_traced {
            (&mut traced, tracer.as_deref())
        } else {
            (&mut untraced, None)
        };
        if let Some(t) = &tracer {
            t.set_enabled(is_traced);
        }
        let mut pass = Pass::default();
        let before = tally.attempted();
        let start = Instant::now();
        served.client.drive(
            &served.stream[WARMUP_OPS..],
            &served.contracts,
            tally,
            &mut pass,
            probe,
        );
        rates.push(is_traced, tally.attempted() - before, start.elapsed());
        if !is_traced {
            fastest.record(&pass.times);
        }
        let hash = pass.hash.finish();
        let first = *round_hash.get_or_insert(hash);
        report.check(hash == first, || {
            format!("round {round} hashed {hash:#018x}, round 0 hashed {first:#018x}")
        });
        ops = pass.ops;
        round += 1;
    }
    if let Some(t) = &tracer {
        t.set_enabled(false);
    }
    let rss_mb = peak_rss_mb();
    let (hits_after, misses_after) = served.cache_counts();
    for tally in [&untraced, &traced] {
        report.attempted += tally.attempted();
        report.failed += tally.failed;
        report.errors.extend(tally.errors.iter().cloned());
    }

    // Every answer to an estimate key equals a local estimate of it.
    let mut keys: Vec<u64> = served.client.seen.keys().copied().collect();
    keys.sort_unstable();
    for &mask in &keys {
        let local = contention::estimate(
            &served.spec,
            UseCase::from_mask(mask),
            Method::Composability,
        )
        .map_err(|e| format!("local estimate {mask:#x}: {e}"))?;
        report.check(*served.client.seen[&mask] == local, || {
            format!(
                "remote estimate of {} differs from the local one",
                UseCase::from_mask(mask)
            )
        });
    }
    let transport_errors = served.client.conn.stats().transport_errors;
    let transport_failed = untraced.transport_failed + traced.transport_failed;
    report.check(transport_errors == transport_failed, || {
        format!(
            "the client reports {transport_errors} transport errors, the benchmark counted {transport_failed}"
        )
    });
    let protocol_errors = served.server.stats().protocol_errors;
    report.check(protocol_errors == 0, || {
        format!("server saw {protocol_errors} protocol errors")
    });
    let trace = served.recorder.stats();
    let journal = served.fleet.journal();
    journal.sync().map_err(|e| format!("WAL sync: {e}"))?;
    let decisions = journal.len() as u64;
    let disk_bytes = journal.wal_stats().map_or(0, |s| s.disk_bytes);
    report.check(journal.io_errors() == 0, || {
        format!("{} WAL append errors", journal.io_errors())
    });

    // Shut everything down, then check what is on disk.
    let Served {
        client,
        server,
        stack,
        fleet,
        spec,
        wal,
        ..
    } = served;
    drop(client);
    server.shutdown();
    drop(server);
    drop(stack);
    fleet.stop();
    drop(fleet);
    let (journal, recovery) =
        Journal::open_wal(&wal, WalConfig::default()).map_err(|e| format!("reopen WAL: {e}"))?;
    let entries = journal
        .try_entries()
        .map_err(|e| format!("read WAL: {e}"))?;
    report.check(recovery.truncated_bytes == 0, || {
        format!(
            "reopening the WAL truncated {} torn bytes",
            recovery.truncated_bytes
        )
    });
    report.check(entries.len() as u64 == decisions, || {
        format!(
            "WAL holds {} decisions, the fleet journaled {decisions}",
            entries.len()
        )
    });
    let by_k = residents_at_admit(&entries);
    let replay_shape = fleet_config(replay_capacity.unwrap_or(CAPACITY));
    let (replay, replayed) = JournalReplayer::new(&spec)
        .replay(&journal, replay_shape)
        .map_err(|e| format!("replay: {e}"))?;
    replayed.stop();
    report.check(replay.is_equivalent(), || {
        let first = replay
            .divergences
            .first()
            .map(|d| d.to_string())
            .unwrap_or_default();
        format!(
            "WAL replay diverged {} times, first: {first}",
            replay.divergences.len()
        )
    });
    report.check(
        replay.events == entries.len() && replay.residents_at_end == 0,
        || {
            format!(
                "replay re-executed {} of {} decisions and ended with {} residents",
                replay.events,
                entries.len(),
                replay.residents_at_end
            )
        },
    );

    let admits = untraced.admits + traced.admits;
    let admitted = untraced.admitted + traced.admitted;
    let rejected = untraced.rejected + traced.rejected;
    let saturated = untraced.saturated + traced.saturated;
    if let Some(tracer) = &tracer {
        let spans = tracer.spans();
        let of = |layer: Layer, op: Option<Op>| {
            spans
                .iter()
                .filter(move |s| s.layer == layer && op.is_none_or(|op| s.op == op))
        };
        for (name, op) in [
            ("admit", Op::Admit),
            ("release", Op::Release),
            ("estimate", Op::Estimate),
        ] {
            let client = span_us(of(Layer::Client, Some(op)));
            let served_us = span_us(of(Layer::Traced, Some(op)));
            report.metric(
                format!("remote.{name}_self_us"),
                "us",
                client.mean() - served_us.mean(),
                client.len() as u64,
            );
        }
        let traced_self = self_us(of(Layer::Traced, None));
        report.latency("telemetry.traced_self_us", &traced_self, Samples::mean);
        let metered_self = self_us(of(Layer::Metered, None));
        report.latency("service.metered_self_us", &metered_self, Samples::mean);
        let cached_self = self_us(of(Layer::Cached, Some(Op::Estimate)));
        report.latency("cache.self_us", &cached_self, Samples::mean);
        let fleet_admit = span_us(of(Layer::FleetManager, Some(Op::Admit)));
        report.latency("fleet.admit_us.p50", &fleet_admit, Samples::p50);
        report.latency("fleet.admit_us.p99", &fleet_admit, Samples::p99);
        let saturated_admit = span_us(
            of(Layer::FleetManager, Some(Op::Admit)).filter(|s| s.outcome == Outcome::Saturated),
        );
        report.latency("fleet.saturated_admit_us", &saturated_admit, Samples::p50);
        let fleet_release = span_us(of(Layer::FleetManager, Some(Op::Release)));
        report.latency("fleet.release_us.p50", &fleet_release, Samples::p50);
        report.latency("fleet.release_us.p99", &fleet_release, Samples::p99);

        let hits = hits_after - hits_before;
        let lookups = hits + misses_after - misses_before;
        report.ratio("cache.hit_ratio", hits, lookups);
        report.metric(
            "wal.bytes_per_decision",
            "B",
            share(disk_bytes, decisions),
            decisions,
        );
        report.ratio("fleet.admitted_share", admitted, admits);
        report.ratio("fleet.rejected_share", rejected, admits);
        report.ratio("fleet.saturated_share", saturated, admits);
        report.ratio(
            "telemetry.trace_dropped_share",
            trace.dropped,
            trace.recorded,
        );
        let analyze = analyze_period_us(spec.applications(), 20)?;
        report.latency("sdf.analyze_period_us", &analyze, Samples::p50);
        report.metric(
            "probe.overhead_pct",
            "%",
            rates.overhead_pct(),
            rates.traced.len() as u64,
        );
    } else {
        // Every round makes the same calls from the same state, so each
        // counts at its fastest across rounds (see `rounds`).
        let calls = fastest.samples(|_| true);
        let of = |op: Op| fastest.samples(|i| ops[i] == op);
        report.metric("setup_s", "s", setup_s, setups as u64);
        report.metric(
            "ops_per_s",
            "ops/s",
            fastest.ops_per_s(),
            calls.len() as u64,
        );
        report.latency("call_p99_us", &calls, Samples::p99);
        report.metric("peak_rss_mb", "MB", rss_mb, 1);
        report.latency("admit_p50_us", &of(Op::Admit), Samples::p50);
        report.latency("admit_p99_us", &of(Op::Admit), Samples::p99);
        report.latency("release_p99_us", &of(Op::Release), Samples::p99);
        report.latency("estimate_p50_us", &of(Op::Estimate), Samples::p50);
        report.latency("estimate_p99_us", &of(Op::Estimate), Samples::p99);
    }

    let total: u64 = by_k.values().sum();
    let histogram: Vec<String> = by_k
        .iter()
        .map(|(k, n)| format!("k{k}={:.3}", share(*n, total)))
        .collect();
    report.property(format!(
        "admits by residents on the routed group (share of {total} journaled admits): {}",
        histogram.join(" ")
    ));
    report.property("node-disjoint candidate-resident pairs: 0 (actor j runs on node j of its group for every application)");
    report.property(format!(
        "estimate keys: {} distinct of {} possible, cache capacity {CACHE_ENTRIES}",
        keys.len(),
        (1u64 << APPS) - 1
    ));
    report.property(format!(
        "admit outcomes: {admitted} admitted, {rejected} rejected, {saturated} saturated (of {admits})"
    ));
    report.property(format!(
        "rounds: {} untraced + {} traced, one client on one connection, {ROUND_OPS} intents each after a {WARMUP_OPS}-intent warm-up",
        rates.untraced.len(),
        rates.traced.len()
    ));
    report.property(match &pinned {
        Ok(cpu) => format!("every thread pinned to CPU {cpu}"),
        Err(e) => format!("threads not pinned ({e}): timings spread wider than pinned runs'"),
    });
    report.property(format!(
        "journal: {} decisions, {disk_bytes} bytes on disk, {} torn bytes truncated on reopen, replay {}",
        entries.len(),
        recovery.truncated_bytes,
        if replay.is_equivalent() { "EQUIVALENT" } else { "DIVERGED" }
    ));
    Ok(round_hash.unwrap_or_default())
}

/// How many residents the routed group held at each journaled admit.
fn residents_at_admit(entries: &[runtime::JournalEntry]) -> BTreeMap<usize, u64> {
    let mut on_group = [0usize; GROUPS];
    let mut group_of = HashMap::new();
    let mut by_k = BTreeMap::new();
    for entry in entries {
        match &entry.event {
            DecisionEvent::Admit { group, outcome, .. } => {
                let g = *group as usize % GROUPS;
                *by_k.entry(on_group[g]).or_insert(0) += 1;
                if let JournalOutcome::Admitted { resident, .. } = outcome {
                    on_group[g] += 1;
                    group_of.insert(*resident, g);
                }
            }
            DecisionEvent::Release { resident } => {
                if let Some(g) = group_of.remove(resident) {
                    on_group[g] -= 1;
                }
            }
            _ => {}
        }
    }
    by_k
}
