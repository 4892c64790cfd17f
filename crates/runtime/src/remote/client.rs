//! The pipelined remote client: one writer, one reader thread, correlated
//! completions.
//!
//! The client speaks the granted [`WireMode`] after a JSON handshake (see
//! the [module docs](super)). It requests binary frames by default and
//! JSON lines — the debug codec — on request. A server naming any
//! protocol version but [`REMOTE_PROTOCOL_VERSION`] fails the connect
//! with a typed error naming both versions.

use super::codec::{write_frame, FrameEvent, FrameReader, WireMode};
use super::endpoint::{Conn, Endpoint};
use super::{
    ClientHello, ServerHello, WireBody, WireOp, WireRequest, WireResponse, MAGIC,
    REMOTE_PROTOCOL_VERSION,
};
use crate::cache::lock;
use crate::journal::{Journal, JournalError, JournalPage};
use crate::service::{
    AdmissionDecision, AdmissionRequest, AdmissionService, Completer, Completion, LayerMetrics,
    ServiceError, ServiceSnapshot,
};
use crate::telemetry::{SpanContext, TelemetrySnapshot, TraceEvent};
use contention::{Estimate, Method};
use platform::{SystemSpec, UseCase};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Times [`RemoteClient::fetch_journal`] starts again from seq 0 after the
/// server refuses a later page (a compaction folded it).
const FETCH_RESTARTS: u32 = 3;

/// Connection options of a [`RemoteClient`]; the `..Default::default()`
/// spread keeps call sites stable as knobs are added.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// How long the handshake may take before the connect fails.
    pub handshake_timeout: Duration,
    /// `Some(t)`: fail everything if requests stay pending for `t` with
    /// no response arriving — bounds a wedged-but-connected server.
    /// `None` (the default) waits as long as the connection lives.
    pub response_timeout: Option<Duration>,
    /// Client identity stamped into the server-side journal's provenance
    /// for every decision this connection drives.
    pub client: Option<String>,
    /// Which framing to request at handshake. The server grants it when
    /// its [`WirePolicy`](super::WirePolicy) allows; the granted mode is
    /// readable via [`RemoteClient::wire_mode`].
    pub wire: WireMode,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            handshake_timeout: Duration::from_secs(5),
            response_timeout: None,
            client: None,
            wire: WireMode::Binary,
        }
    }
}

/// What a pending request will complete once its response (or a transport
/// failure) arrives.
enum PendingOp {
    Admit(Completer<AdmissionDecision>),
    Release(Completer<()>),
    Snapshot(Completer<ServiceSnapshot>),
    Estimate(Completer<Arc<Estimate>>),
    JournalPage(Completer<JournalPage>),
    Telemetry(Completer<TelemetrySnapshot>),
    Trace(Completer<Vec<TraceEvent>>),
}

impl PendingOp {
    fn fail(self, error: ServiceError) {
        match self {
            PendingOp::Admit(c) => c.complete(Err(error)),
            PendingOp::Release(c) => c.complete(Err(error)),
            PendingOp::Snapshot(c) => c.complete(Err(error)),
            PendingOp::Estimate(c) => c.complete(Err(error)),
            PendingOp::JournalPage(c) => c.complete(Err(error)),
            PendingOp::Telemetry(c) => c.complete(Err(error)),
            PendingOp::Trace(c) => c.complete(Err(error)),
        }
    }

    fn complete(self, body: WireBody) {
        // An Error body fails any pending kind; otherwise body and kind
        // must agree, or the far end answered with the wrong shape.
        if let WireBody::Error(fault) = body {
            return self.fail(fault.into_service_error());
        }
        let mismatch = ServiceError::Transport("response type mismatch".to_string());
        match (self, body) {
            (PendingOp::Admit(c), WireBody::Decision(decision)) => c.complete(Ok(decision)),
            (PendingOp::Release(c), WireBody::Released) => c.complete(Ok(())),
            (PendingOp::Snapshot(c), WireBody::Snapshot(snapshot)) => c.complete(Ok(snapshot)),
            (PendingOp::Estimate(c), WireBody::Estimate(estimate)) => c.complete(Ok(estimate)),
            (PendingOp::JournalPage(c), WireBody::JournalPage(page)) => c.complete(Ok(page)),
            (PendingOp::Telemetry(c), WireBody::Telemetry(telemetry)) => {
                c.complete(Ok(*telemetry));
            }
            (PendingOp::Trace(c), WireBody::Trace(events)) => c.complete(Ok(events)),
            (pending, _) => pending.fail(mismatch),
        }
    }
}

struct ClientShared {
    /// The socket's write half, with the buffer request frames are built
    /// in.
    writer: Mutex<(Conn, Vec<u8>)>,
    /// A second handle onto the same socket, held *outside* the writer
    /// mutex: [`RemoteClient::close`] shuts the socket down through it
    /// even while a pipelined `send` holds the writer lock mid-write —
    /// the write fails fast instead of `close` waiting on it.
    shutdown_handle: Conn,
    pending: Mutex<HashMap<u64, PendingOp>>,
    next_id: AtomicU64,
    /// First transport failure; set once, fails every later call fast.
    broken: Mutex<Option<String>>,
    /// `Some(t)`: fail everything if requests stay pending for `t` with no
    /// response arriving — bounds a wedged-but-connected server. `None`
    /// (the default) waits as long as the connection lives.
    response_timeout: Option<Duration>,
    /// Last time a response arrived (or a burst started against an empty
    /// pending map) — the reference point for `response_timeout`.
    last_progress: Mutex<Instant>,
    /// The granted framing; requests and responses after the handshake
    /// are encoded with it.
    wire: WireMode,
    workload: Option<SystemSpec>,
    domains: u64,
    peer: Endpoint,
    requests_sent: AtomicU64,
    responses: AtomicU64,
    transport_errors: AtomicU64,
}

impl ClientShared {
    /// Fails every pending completion and marks the connection broken —
    /// a disconnected client resolves, never hangs.
    fn fail_all(&self, reason: &str) {
        {
            let mut broken = lock(&self.broken);
            if broken.is_none() {
                *broken = Some(reason.to_string());
            }
        }
        let drained: Vec<PendingOp> = {
            let mut pending = lock(&self.pending);
            pending.drain().map(|(_, op)| op).collect()
        };
        if !drained.is_empty() {
            self.transport_errors
                .fetch_add(drained.len() as u64, Ordering::Relaxed);
        }
        for op in drained {
            op.fail(ServiceError::Transport(reason.to_string()));
        }
    }

    fn reader_loop(&self, mut reader: FrameReader<Conn>) {
        loop {
            match reader.read_frame::<WireResponse>() {
                Ok(FrameEvent::Frame(Ok(response))) => {
                    self.responses.fetch_add(1, Ordering::Relaxed);
                    *lock(&self.last_progress) = Instant::now();
                    let pending = lock(&self.pending).remove(&response.id);
                    match pending {
                        Some(op) => op.complete(response.body),
                        None => {
                            // id 0 = uncorrelated server-side protocol
                            // error: the connection state is unknown.
                            if response.id == 0 {
                                let reason = match response.body {
                                    WireBody::Error(fault) => {
                                        fault.into_service_error().to_string()
                                    }
                                    _ => "uncorrelated server response".to_string(),
                                };
                                self.fail_all(&reason);
                                return;
                            }
                            self.transport_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Ok(FrameEvent::Frame(Err(e))) => {
                    self.fail_all(&format!("malformed response: {e}"));
                    return;
                }
                // Idle polls only occur when a response deadline is set
                // (reads are blocking otherwise): a server that stays
                // connected but answers nothing for the whole deadline is
                // failed typed instead of hanging its completions.
                Ok(FrameEvent::Idle) => {
                    if let Some(timeout) = self.response_timeout {
                        let stalled = !lock(&self.pending).is_empty()
                            && lock(&self.last_progress).elapsed() > timeout;
                        if stalled {
                            self.fail_all(&format!(
                                "server stopped responding ({}ms response deadline exceeded)",
                                timeout.as_millis()
                            ));
                            return;
                        }
                    }
                }
                Ok(FrameEvent::Closed) => {
                    self.fail_all("server closed the connection");
                    return;
                }
                Err(msg) => {
                    self.fail_all(&msg);
                    return;
                }
            }
        }
    }

    /// Registers a pending op and writes its request frame; on write
    /// failure the whole connection is failed (a broken pipe is terminal).
    fn send(&self, op: WireOp, pending: PendingOp) {
        if let Some(reason) = lock(&self.broken).clone() {
            return pending.fail(ServiceError::Transport(reason));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut map = lock(&self.pending);
            if map.is_empty() {
                // Arm the response deadline from the front of a burst.
                *lock(&self.last_progress) = Instant::now();
            }
            map.insert(id, pending);
        }
        let frame = WireRequest { id, op };
        let result = {
            let mut writer = lock(&self.writer);
            let (conn, scratch) = &mut *writer;
            write_frame(conn, self.wire, &frame, scratch)
        };
        match result {
            Ok(()) => {
                self.requests_sent.fetch_add(1, Ordering::Relaxed);
                // Close the race with a concurrent fail_all(): if the
                // reader died between the broken check above and our
                // insert, the drain may have missed this op — it would
                // otherwise never resolve.
                if let Some(reason) = lock(&self.broken).clone() {
                    if let Some(op) = lock(&self.pending).remove(&id) {
                        self.transport_errors.fetch_add(1, Ordering::Relaxed);
                        op.fail(ServiceError::Transport(reason));
                    }
                }
            }
            Err(msg) => self.fail_all(&msg),
        }
    }
}

/// A point-in-time view of one client connection's request traffic —
/// the counters behind the `"remote"` layer of
/// [`RemoteClient::snapshot`], exposed directly so drivers (e.g.
/// `fleet-bench --connections`) can sample per-connection fan-in
/// without parsing layer metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemoteClientStats {
    /// Request frames successfully written to the socket.
    pub requests_sent: u64,
    /// Response frames received and correlated.
    pub responses: u64,
    /// Requests failed by transport errors (disconnects, deadline
    /// expiries, uncorrelated responses).
    pub transport_errors: u64,
    /// Requests currently in flight (sent, not yet answered).
    pub pending: u64,
}

/// An [`AdmissionService`] whose decisions are made by a [`RemoteServer`]
/// in another process (see the [module docs](super)).
///
/// [`RemoteServer`]: super::RemoteServer
pub struct RemoteClient {
    shared: Arc<ClientShared>,
    reader_handle: Mutex<Option<JoinHandle<()>>>,
}

impl fmt::Debug for RemoteClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteClient")
            .field("peer", &self.shared.peer)
            .field("wire", &self.shared.wire)
            .field("pending", &lock(&self.shared.pending).len())
            .field("broken", &*lock(&self.shared.broken))
            .finish_non_exhaustive()
    }
}

impl RemoteClient {
    /// Connects and handshakes with the server at `addr`, requesting
    /// binary framing (granted unless the server's policy forces JSON).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Transport`] on connection failure, handshake
    /// timeout, bad magic, or a protocol-version mismatch (the error names
    /// both versions).
    pub fn connect(addr: &Endpoint) -> Result<RemoteClient, ServiceError> {
        RemoteClient::connect_config(addr, ClientConfig::default())
    }

    /// [`connect`](Self::connect) with every option explicit: a client
    /// identity the server stamps into its journal, a handshake timeout,
    /// a response deadline and the requested framing (see
    /// [`ClientConfig`]).
    ///
    /// # Errors
    ///
    /// See [`connect`](Self::connect).
    pub fn connect_config(
        addr: &Endpoint,
        config: ClientConfig,
    ) -> Result<RemoteClient, ServiceError> {
        let transport = ServiceError::Transport;
        let (writer, shutdown_handle, mut reader, hello, mode) =
            RemoteClient::handshake(addr, &config)?;
        // Handshake done. Without a response deadline the reader blocks
        // until the server answers; with one, it polls so the deadline can
        // be enforced between frames.
        // Poll at a quarter of the deadline (floored so a tiny deadline
        // still yields a non-zero read timeout rather than panicking).
        let poll = config
            .response_timeout
            .map(|t| (t / 4).max(Duration::from_millis(1)));
        reader
            .src
            .set_read_timeout(poll)
            .map_err(|e| transport(format!("configure {addr}: {e}")))?;
        // Polling reads may time out mid-frame while the server is still
        // writing; allow roughly two deadlines of stall before declaring
        // the frame truncated (the handshake above used a single stall).
        reader.max_stalls = if poll.is_some() { 8 } else { 1 };
        // Every frame after the hellos speaks the granted codec.
        reader.wire = mode;

        let shared = Arc::new(ClientShared {
            writer: Mutex::new((writer, Vec::new())),
            shutdown_handle,
            pending: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            broken: Mutex::new(None),
            response_timeout: config.response_timeout,
            last_progress: Mutex::new(Instant::now()),
            wire: mode,
            workload: hello.workload,
            domains: hello.domains,
            peer: addr.clone(),
            requests_sent: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            transport_errors: AtomicU64::new(0),
        });
        let reader_shared = Arc::clone(&shared);
        let reader_handle = std::thread::spawn(move || reader_shared.reader_loop(reader));
        Ok(RemoteClient {
            shared,
            reader_handle: Mutex::new(Some(reader_handle)),
        })
    }

    /// Connects and exchanges hellos: the writer, a shutdown handle, the
    /// reader and the accepted server hello with its granted mode. Hellos
    /// are always JSON-framed, whatever `config.wire` asks for.
    fn handshake(
        addr: &Endpoint,
        config: &ClientConfig,
    ) -> Result<(Conn, Conn, FrameReader<Conn>, ServerHello, WireMode), ServiceError> {
        let transport = ServiceError::Transport;
        let conn = Conn::connect(addr).map_err(|e| transport(format!("connect {addr}: {e}")))?;
        conn.set_read_timeout(Some(
            config.handshake_timeout.max(Duration::from_millis(10)),
        ))
        .map_err(|e| transport(format!("configure {addr}: {e}")))?;
        let mut writer = conn
            .try_clone()
            .map_err(|e| transport(format!("clone {addr}: {e}")))?;
        let shutdown_handle = conn
            .try_clone()
            .map_err(|e| transport(format!("clone {addr}: {e}")))?;
        write_frame(
            &mut writer,
            WireMode::Json,
            &ClientHello {
                magic: MAGIC.to_string(),
                version: REMOTE_PROTOCOL_VERSION,
                client: config.client.clone(),
                wire: Some(config.wire.name().to_string()),
            },
            &mut Vec::new(),
        )
        .map_err(transport)?;
        let mut reader = FrameReader::new(conn, WireMode::Json, 1);
        let hello = match reader.read_frame::<ServerHello>().map_err(transport)? {
            FrameEvent::Frame(hello) => {
                hello.map_err(|e| transport(format!("malformed server hello: {e}")))?
            }
            FrameEvent::Idle => return Err(transport("handshake timed out".to_string())),
            FrameEvent::Closed => {
                return Err(transport(
                    "server closed the connection during handshake".to_string(),
                ))
            }
        };
        if hello.magic != MAGIC {
            return Err(transport(format!(
                "peer is not a {MAGIC} server (magic '{}')",
                hello.magic
            )));
        }
        if hello.version != REMOTE_PROTOCOL_VERSION {
            return Err(transport(format!(
                "protocol version mismatch: client {REMOTE_PROTOCOL_VERSION}, server {}",
                hello.version
            )));
        }
        // The granted mode is whatever the server said; an absent or
        // unparseable grant means JSON lines.
        let mode = hello
            .wire
            .as_deref()
            .and_then(|w| w.parse().ok())
            .unwrap_or(WireMode::Json);
        Ok((writer, shutdown_handle, reader, hello, mode))
    }

    /// The framing granted at handshake — [`WireMode::Binary`] for the
    /// default request, [`WireMode::Json`] under a JSON-only server policy
    /// or an explicit [`ClientConfig::wire`] of JSON.
    pub fn wire_mode(&self) -> WireMode {
        self.shared.wire
    }

    /// Admission domains (fleet groups) the server advertised at
    /// handshake.
    pub fn domains(&self) -> usize {
        self.shared.domains as usize
    }

    /// `Some(reason)` once the transport has failed; every subsequent call
    /// fails fast with that reason.
    pub fn broken(&self) -> Option<String> {
        lock(&self.shared.broken).clone()
    }

    /// Pipelined admission: the request goes out immediately and the
    /// completion resolves when the correlated response arrives, so many
    /// admissions can be in flight on one connection. The server decides
    /// one connection's frames one at a time, in arrival order.
    ///
    /// A request without a [`SpanContext`] is stamped with a fresh root
    /// span here — the outermost traced layer — so the server-side
    /// flight recorder links every frame-decode/dispatch/admit event it
    /// records for this request under one trace id.
    pub fn submit(&self, mut request: AdmissionRequest) -> Completion {
        if request.span.is_none() {
            request.span = Some(SpanContext::root());
        }
        let (completer, completion) = Completion::pending();
        self.shared
            .send(WireOp::Admit(request), PendingOp::Admit(completer));
        completion
    }

    /// Pipelined release: the completion resolves once the far end
    /// released (or refused to release) the resident.
    pub fn submit_release(&self, resident: u64) -> Completion<()> {
        let (completer, completion) = Completion::pending();
        self.shared
            .send(WireOp::Release(resident), PendingOp::Release(completer));
        completion
    }

    /// Fetches the served stack's snapshot as a `Result` (the trait's
    /// [`snapshot`](AdmissionService::snapshot) swallows transport errors
    /// into an empty snapshot, since it is infallible by signature).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Transport`] when the connection failed.
    pub fn remote_snapshot(&self) -> Result<ServiceSnapshot, ServiceError> {
        let (completer, completion) = Completion::pending();
        self.shared
            .send(WireOp::Snapshot, PendingOp::Snapshot(completer));
        completion.wait()
    }

    /// Fetches the served stack's live telemetry as a `Result` (the
    /// trait's [`telemetry`](AdmissionService::telemetry) swallows
    /// transport errors into a local degraded snapshot, since it is
    /// infallible by signature). The returned snapshot carries every
    /// server-side layer's histograms plus the server's own
    /// `remote-server` frame-latency distribution.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Transport`] when the connection failed.
    pub fn remote_telemetry(&self) -> Result<TelemetrySnapshot, ServiceError> {
        let (completer, completion) = Completion::pending();
        self.shared
            .send(WireOp::Telemetry, PendingOp::Telemetry(completer));
        completion.wait()
    }

    /// Fetches the newest `tail` trace events from the server-side flight
    /// recorder, oldest first.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Transport`] when the connection failed.
    pub fn remote_trace(&self, tail: usize) -> Result<Vec<TraceEvent>, ServiceError> {
        let (completer, completion) = Completion::pending();
        self.shared.send(
            WireOp::Trace { tail: tail as u64 },
            PendingOp::Trace(completer),
        );
        completion.wait()
    }

    /// Fetches and parses the server-side decision journal — the exact
    /// checksummed record the far end kept, ready for
    /// [`JournalReplayer`](crate::JournalReplayer) or `probcon replay`.
    /// Pages through the journal in bounded frames: a WAL-backed journal
    /// can outgrow a single frame's budget, and the server never has to
    /// materialize the whole render either.
    ///
    /// The server refuses a page that a compaction since the first page
    /// folded away ([`Journal::render_page`]); the fetch then starts again
    /// from seq 0, up to three times, after which the refusal is the error.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Transport`] on connection failure,
    /// [`ServiceError::Config`] when the server records no journal, cannot
    /// read a page of it, or the fetched text fails verification.
    pub fn fetch_journal(&self) -> Result<Journal, ServiceError> {
        let mut text = String::new();
        let mut from = 0u64;
        let mut restarts = 0;
        loop {
            let (completer, completion) = Completion::pending();
            self.shared.send(
                WireOp::JournalPage { from_seq: from },
                PendingOp::JournalPage(completer),
            );
            match completion.wait() {
                Ok(page) => {
                    text.push_str(&page.text);
                    match page.next_seq {
                        // A page that does not advance would loop forever;
                        // treat it as the end and let parsing judge the result.
                        Some(next) if next > from => from = next,
                        Some(_) | None => break,
                    }
                }
                // A later page refused is, in practice, one a compaction
                // folded; any other read failure recurs and still ends
                // the fetch once the restarts are spent.
                Err(ServiceError::Config(_)) if from > 0 && restarts < FETCH_RESTARTS => {
                    restarts += 1;
                    text.clear();
                    from = 0;
                }
                Err(e) => return Err(e),
            }
        }
        Journal::parse(&text)
            .map_err(|e: JournalError| ServiceError::Config(format!("fetched journal: {e}")))
    }

    /// Closes the connection: the socket is shut down through a handle
    /// held outside the writer lock — so a pipelined `submit` caught
    /// mid-write fails fast with [`ServiceError::Transport`] instead of
    /// deadlocking `close` — then every pending completion is failed and
    /// the reader joined. Idempotent; called on drop.
    pub fn close(&self) {
        self.shared.shutdown_handle.shutdown();
        self.shared.fail_all("client closed the connection");
        if let Some(handle) = lock(&self.reader_handle).take() {
            let _ = handle.join();
        }
    }

    /// This connection's live request counters (see
    /// [`RemoteClientStats`]).
    pub fn stats(&self) -> RemoteClientStats {
        RemoteClientStats {
            requests_sent: self.shared.requests_sent.load(Ordering::Relaxed),
            responses: self.shared.responses.load(Ordering::Relaxed),
            transport_errors: self.shared.transport_errors.load(Ordering::Relaxed),
            pending: lock(&self.shared.pending).len() as u64,
        }
    }

    fn client_layer(&self) -> LayerMetrics {
        LayerMetrics::new("remote")
            .counter(
                "requests_sent",
                self.shared.requests_sent.load(Ordering::Relaxed),
            )
            .counter("responses", self.shared.responses.load(Ordering::Relaxed))
            .counter(
                "transport_errors",
                self.shared.transport_errors.load(Ordering::Relaxed),
            )
            .counter("pending", lock(&self.shared.pending).len() as u64)
            .counter("broken", u64::from(lock(&self.shared.broken).is_some()))
    }
}

impl Drop for RemoteClient {
    fn drop(&mut self) {
        self.close();
    }
}

impl AdmissionService for RemoteClient {
    /// Sends the admission over the wire and waits for the correlated
    /// decision.
    fn admit(&self, request: &AdmissionRequest) -> Result<AdmissionDecision, ServiceError> {
        self.submit(request.clone()).wait()
    }

    fn release(&self, resident: u64) -> Result<(), ServiceError> {
        self.submit_release(resident).wait()
    }

    /// The far end's snapshot with this client's `"remote"` layer
    /// appended; a failed transport yields an all-zero snapshot whose
    /// `remote` layer records the failure (`broken` = 1).
    fn snapshot(&self) -> ServiceSnapshot {
        let mut snapshot = self.remote_snapshot().unwrap_or(ServiceSnapshot {
            residents: 0,
            capacity: 0,
            admitted: 0,
            rejected: 0,
            saturated: 0,
            released: 0,
            layers: Vec::new(),
        });
        snapshot.layers.push(self.client_layer());
        snapshot
    }

    /// The workload spec the server advertised at handshake.
    fn workload(&self) -> Option<&SystemSpec> {
        self.shared.workload.as_ref()
    }

    /// Estimates on the far end — a server-side
    /// [`Cached`](crate::Cached) layer serves repeats fleet-wide, across
    /// every connected client.
    fn estimate(&self, use_case: UseCase, method: Method) -> Result<Arc<Estimate>, ServiceError> {
        let (completer, completion) = Completion::pending();
        self.shared.send(
            WireOp::Estimate {
                mask: use_case.mask(),
                method,
            },
            PendingOp::Estimate(completer),
        );
        completion.wait()
    }

    /// The far end's full telemetry (per-layer histograms, trace counters,
    /// server frame latency) with this client's `"remote"` layer appended;
    /// a failed transport degrades to a telemetry view of the local
    /// [`snapshot`](AdmissionService::snapshot) (whose `remote` layer
    /// records the failure).
    fn telemetry(&self) -> TelemetrySnapshot {
        match self.remote_telemetry() {
            Ok(mut telemetry) => {
                telemetry.service.layers.push(self.client_layer());
                telemetry
            }
            Err(_) => TelemetrySnapshot::from_service(self.snapshot()),
        }
    }

    /// The server-side flight recorder's tail; empty when the transport
    /// has failed.
    fn trace_tail(&self, limit: usize) -> Vec<TraceEvent> {
        self.remote_trace(limit).unwrap_or_default()
    }
}
