//! The readiness-loop server: a few threads, thousands of connections.
//!
//! [`EVENT_LOOPS`] readiness loops serve every connection. Loop 0 starts
//! the other loops and one more thread, the acceptor, which owns the
//! listener and never decides: it accepts each connection and
//! places it on the loop with the fewest live connections (ties to the
//! lowest index, so a lone client stays on loop 0), handing it over
//! through that loop's inbox and self-pipe waker. From
//! then on one loop owns the connection: it polls the socket for
//! readiness, reads bytes into the connection's [`FrameBuffer`], and
//! decodes, decides, encodes and writes back every complete frame on its
//! own thread, one frame at a time in arrival order. No other thread
//! touches a request between the socket read and the socket write.
//!
//! Nothing blocks on any single peer: a connection whose peer stops
//! reading is paused once its output buffer passes a bound, and a frame
//! declaring more than [`MAX_REQUEST_FRAME`] bytes is refused from its
//! length prefix — backpressure by bounded buffers, not unbounded queues
//! or threads. A slow decision stalls only the connections on the loop
//! deciding it, a new connection placed there included; accepts and every
//! other loop carry on. Stall and handshake timers measure from the loop's
//! last poll, so bytes that arrive while a loop decides are not a stall.

use super::codec::{self, FrameBuffer, MAX_REQUEST_FRAME};
use super::endpoint::{is_timeout, Conn, Endpoint, Listener};
use super::{
    ClientHello, ServerHello, WireBody, WireFault, WireOp, WireRequest, WireResponse, MAGIC,
    MAX_CLIENT_ID, REMOTE_PROTOCOL_VERSION,
};
use crate::cache::lock;
use crate::fleet::FleetManager;
use crate::journal::ClientScope;
use crate::service::{AdmissionService, LayerMetrics, ServiceError};
use crate::telemetry::{
    op_rate, ConnectionStats, EventLoopStats, HistogramRecorder, SpanScope, TraceEvent, TraceKind,
    TraceRecorder,
};
use platform::UseCase;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::{Read, Write};
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Entries per journal page served to [`WireOp::JournalPage`] requests: a
/// long-running journal never has to materialize as one string or frame.
const JOURNAL_PAGE_ENTRIES: usize = 4096;

/// Readiness loops per server, each a thread that reads, decides and
/// answers the frames of the connections placed on it, one frame at a
/// time. The acceptor thread places each connection on the loop with the
/// fewest live connections.
pub const EVENT_LOOPS: usize = 4;

/// Tuning knobs of a [`RemoteServer`].
#[derive(Debug, Clone)]
pub struct RemoteServerConfig {
    /// Maximum simultaneously served connections; further accepts are
    /// closed immediately.
    pub max_connections: usize,
    /// Poll granularity of the event loops and the acceptor — the latency
    /// with which timers (handshake deadlines, stalls, shutdown) are
    /// observed. Readiness itself is event-driven, not bounded by this.
    pub poll_interval: Duration,
    /// How long a peer may stall *inside* a frame before the connection
    /// is declared truncated and cut; also the budget for flushing
    /// answers at shutdown.
    pub stall_timeout: Duration,
    /// How long a fresh connection may take to complete the handshake.
    pub handshake_timeout: Duration,
    /// Shut the server down after its first connection closes — one-shot
    /// mode for scripted drivers (`probcon serve --once`) that should exit
    /// when their client is done.
    pub once: bool,
    /// Pause reading from a connection whose un-flushed output exceeds
    /// this many bytes — the server's backpressure: a peer that stops
    /// reading cannot grow server memory beyond its bounded buffers.
    pub max_buffered: usize,
}

impl Default for RemoteServerConfig {
    fn default() -> Self {
        RemoteServerConfig {
            max_connections: 1024,
            poll_interval: Duration::from_millis(20),
            stall_timeout: Duration::from_secs(5),
            handshake_timeout: Duration::from_secs(5),
            once: false,
            max_buffered: 4 * 1024 * 1024,
        }
    }
}

/// Point-in-time counters of a [`RemoteServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Connections currently being served.
    pub active: u64,
    /// Requests decided and answered.
    pub requests: u64,
    /// Connections cut for malformed/truncated frames.
    pub protocol_errors: u64,
    /// Handshakes refused (bad magic, unsupported version, an over-long
    /// client id, timeout).
    pub handshake_rejects: u64,
}

// ---------------------------------------------------------------------------
// Readiness: poll(2) + a self-pipe waker.
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod poller {
    use std::io::{Read, Write};
    use std::os::raw::c_int;
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    #[cfg(target_os = "macos")]
    type Nfds = std::os::raw::c_uint;
    #[cfg(not(target_os = "macos"))]
    type Nfds = std::os::raw::c_ulong;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Blocks until any fd is ready or the timeout lapses. Errors (EINTR
    /// and friends) are treated as "nothing ready"; the caller's timers
    /// and retries absorb them.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> bool {
        let millis = timeout.as_millis().min(i32::MAX as u128) as c_int;
        // SAFETY: `fds` is a valid, exclusive slice of `#[repr(C)]`
        // pollfd-layout structs for the duration of the call, and the
        // kernel writes only within it.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, millis) };
        n > 0
    }

    /// A self-pipe (socketpair) written one byte into to wake a thread
    /// out of `poll`: the acceptor handing a loop a connection, or a
    /// shutdown.
    pub struct Waker {
        tx: UnixStream,
        rx: UnixStream,
    }

    impl Waker {
        pub fn new() -> std::io::Result<Waker> {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            Ok(Waker { tx, rx })
        }

        /// One byte is enough: coalesced wakes are fine, a loop empties
        /// its whole inbox per tick. A full pipe means a wake is already
        /// pending — equally fine.
        pub fn wake(&self) {
            let _ = (&self.tx).write(&[1]);
        }

        /// Empties the pipe so the next `poll` blocks again.
        pub fn drain(&self) {
            let mut sink = [0u8; 64];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        }

        pub fn fd(&self) -> RawFd {
            self.rx.as_raw_fd()
        }
    }
}

/// The cross-thread face of one readiness loop: the acceptor places
/// accepted connections in its inbox and wakes it.
struct LoopSlot {
    inbox: Mutex<Vec<Connection>>,
    /// Connections placed on this loop and not yet reaped — the placement
    /// key.
    live: AtomicUsize,
    #[cfg(unix)]
    waker: poller::Waker,
}

impl LoopSlot {
    fn wake(&self) {
        #[cfg(unix)]
        self.waker.wake();
    }
}

// ---------------------------------------------------------------------------
// Shared server state.
// ---------------------------------------------------------------------------

struct ServerShared {
    service: Arc<dyn AdmissionService>,
    /// The fleet whose journal the server pages out, if it serves one.
    fleet: Option<FleetManager>,
    config: RemoteServerConfig,
    started: Instant,
    /// Latency of each request frame, timed around dispatch (decode and
    /// write excluded) — the server-side contribution to remote latency.
    frame_latency: HistogramRecorder,
    /// The served stack's flight recorder, if any layer exposes one —
    /// the sink for the server-side span chain (frame decode → dispatch
    /// → admit). `None` when the stack is untraced: the transport then
    /// records nothing.
    trace: Option<Arc<TraceRecorder>>,
    /// Live per-connection counters, keyed by token; shared with each
    /// [`Connection`] so a telemetry request decided on any loop can read
    /// every loop's connections.
    conn_stats: Mutex<BTreeMap<u64, Arc<ConnTelemetry>>>,
    /// Event-loop iterations completed, summed over the loops.
    poll_ticks: AtomicU64,
    /// Time spent *processing* per tick (readiness wait excluded).
    tick_hist: HistogramRecorder,
    /// Ready-set size per tick (a histogram of counts, not of times).
    ready_hist: HistogramRecorder,
    /// One slot per readiness loop, loop 0 first.
    loops: Vec<LoopSlot>,
    /// Wakes the acceptor out of its poll when shutdown is requested.
    #[cfg(unix)]
    accept_waker: poller::Waker,
    /// Shutdown was requested ([`RemoteServer::shutdown`] or once mode).
    stopping: AtomicBool,
    /// The acceptor has closed the listener, so every loop now drains its
    /// connections and exits. Set only after the last accept: accepts
    /// stop before the first connection is cut.
    draining: AtomicBool,
    connections: AtomicU64,
    /// Connections that completed the handshake — only these arm `once`
    /// mode (liveness probes and the UDS stale-socket check connect and
    /// drop without handshaking; they must not shut a one-shot server
    /// down before its real client arrives).
    handshaken: AtomicU64,
    active: AtomicU64,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    handshake_rejects: AtomicU64,
}

impl ServerShared {
    /// Requests shutdown: the acceptor closes the listener, then wakes
    /// the loops to drain.
    fn stop(&self) {
        self.stopping.store(true, Ordering::Release);
        #[cfg(unix)]
        self.accept_waker.wake();
    }

    fn handshake_domains(&self) -> u64 {
        self.service
            .snapshot()
            .counter("fleet", "groups")
            .unwrap_or(1)
    }

    /// Decides one operation, converting a panicking service (an analysis
    /// edge case, a poisoned layer) into a typed error instead of a dead
    /// loop — remote clients always get an answer.
    fn dispatch(&self, op: WireOp) -> WireBody {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.dispatch_inner(op)))
            .unwrap_or_else(|panic| {
                let reason = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                WireBody::Error(WireFault::Analysis(format!(
                    "service panicked while deciding: {reason}"
                )))
            })
    }

    fn dispatch_inner(&self, op: WireOp) -> WireBody {
        match op {
            WireOp::Admit(request) => match self.service.admit(&request) {
                Ok(decision) => WireBody::Decision(decision),
                Err(e) => WireBody::Error(WireFault::from(&e)),
            },
            WireOp::Release(resident) => match self.service.release(resident) {
                Ok(()) => WireBody::Released,
                Err(e) => WireBody::Error(WireFault::from(&e)),
            },
            WireOp::Snapshot => WireBody::Snapshot(self.service.snapshot()),
            WireOp::Estimate { mask, method } => {
                match self.service.estimate(UseCase::from_mask(mask), method) {
                    Ok(estimate) => WireBody::Estimate(estimate),
                    Err(e) => WireBody::Error(WireFault::from(&e)),
                }
            }
            WireOp::JournalPage { from_seq } => match &self.fleet {
                Some(fleet) => match fleet.journal().render_page(from_seq, JOURNAL_PAGE_ENTRIES) {
                    Ok(page) => WireBody::JournalPage(page),
                    Err(e) => WireBody::Error(WireFault::Config(format!(
                        "journal page from seq {from_seq}: {e}"
                    ))),
                },
                None => WireBody::Error(WireFault::Config("server records no journal".to_string())),
            },
            WireOp::Telemetry => {
                let mut telemetry = self.service.telemetry();
                telemetry.service.layers.push(self.server_layer());
                telemetry.push_histogram("remote-server", "frame", self.frame_latency.snapshot());
                let connections = self.connection_stats();
                if !connections.is_empty() {
                    telemetry.connections = Some(connections);
                }
                telemetry.event_loop = Some(self.event_loop_stats());
                WireBody::Telemetry(Box::new(telemetry))
            }
            WireOp::Trace { tail } => {
                WireBody::Trace(self.service.trace_tail(tail.min(1_000_000) as usize))
            }
        }
    }

    /// Point-in-time view of every live connection's counters, in token
    /// (accept) order.
    fn connection_stats(&self) -> Vec<ConnectionStats> {
        lock(&self.conn_stats)
            .values()
            .map(|telem| ConnectionStats {
                token: telem.token,
                client: lock(&telem.client).clone(),
                frames_in: telem.frames_in.load(Ordering::Relaxed),
                frames_out: telem.frames_out.load(Ordering::Relaxed),
                bytes_in: telem.bytes_in.load(Ordering::Relaxed),
                bytes_out: telem.bytes_out.load(Ordering::Relaxed),
                write_buffered: telem.write_buffered.load(Ordering::Relaxed),
                in_flight: telem.in_flight.load(Ordering::Relaxed),
                backpressure_pauses: telem.pauses.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// The event loops' own health: tick count, per-tick processing time
    /// and ready-set size distributions, over every loop.
    fn event_loop_stats(&self) -> EventLoopStats {
        EventLoopStats {
            poll_ticks: self.poll_ticks.load(Ordering::Relaxed),
            tick: self.tick_hist.snapshot(),
            ready: self.ready_hist.snapshot(),
        }
    }

    /// This server's own telemetry layer: connection/request counters plus
    /// the frame-latency distribution.
    fn server_layer(&self) -> LayerMetrics {
        let frame = self.frame_latency.snapshot();
        let mut layer = LayerMetrics::new("remote-server")
            .counter("connections", self.connections.load(Ordering::Relaxed))
            .counter("active", self.active.load(Ordering::Relaxed))
            .counter("requests", self.requests.load(Ordering::Relaxed))
            .counter(
                "protocol_errors",
                self.protocol_errors.load(Ordering::Relaxed),
            )
            .counter(
                "handshake_rejects",
                self.handshake_rejects.load(Ordering::Relaxed),
            );
        if frame.count() > 0 {
            layer = layer.op_rate(op_rate("frame", &frame, self.started.elapsed()));
        }
        layer
    }
}

// ---------------------------------------------------------------------------
// Per-connection state.
// ---------------------------------------------------------------------------

/// Encoded-but-unflushed response bytes of one connection.
#[derive(Default)]
struct OutBuf {
    buf: Vec<u8>,
    start: usize,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

/// Live counters of one served connection, written by the loop that owns
/// the [`Connection`] and read by telemetry requests on any loop — the
/// source of [`ConnectionStats`](crate::telemetry::ConnectionStats).
struct ConnTelemetry {
    token: u64,
    /// Identity the peer announced at handshake, if any.
    client: Mutex<Option<String>>,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    /// Un-flushed output bytes.
    write_buffered: AtomicU64,
    /// Requests being decided (decoded, not yet answered).
    in_flight: AtomicU64,
    /// False→true backpressure transitions (output saturation paused
    /// reads).
    pauses: AtomicU64,
}

struct Connection {
    conn: Conn,
    inbuf: FrameBuffer,
    out: OutBuf,
    telemetry: Arc<ConnTelemetry>,
    /// Pause state at the last timer check — edge detection for the
    /// `pauses` counter.
    was_paused: bool,
    handshaken: bool,
    client: Option<String>,
    handshake_deadline: Instant,
    /// Advances on every byte read and every frame decoded — the
    /// reference point for the mid-frame stall timer.
    last_progress: Instant,
    /// Peer sent EOF; answer the frames already read, flush, then close.
    peer_closed: bool,
    /// Close once `out` is flushed.
    closing: bool,
    /// Handshake refusal — counted in `handshake_rejects` when reaped.
    refused: bool,
    /// Malformed/truncated frames — counted in `protocol_errors`.
    errored: bool,
    /// Socket failed; close immediately, no flush.
    dead: bool,
}

/// One decoded server-bound frame; the `Err`s are well-formed frames of
/// the wrong shape.
enum Frame {
    Hello(Result<ClientHello, String>),
    Request(Result<WireRequest, String>),
}

impl Connection {
    fn new(conn: Conn, token: u64, handshake_timeout: Duration) -> Connection {
        let now = Instant::now();
        Connection {
            conn,
            inbuf: FrameBuffer::new(),
            out: OutBuf::default(),
            telemetry: Arc::new(ConnTelemetry {
                token,
                client: Mutex::new(None),
                frames_in: AtomicU64::new(0),
                frames_out: AtomicU64::new(0),
                bytes_in: AtomicU64::new(0),
                bytes_out: AtomicU64::new(0),
                write_buffered: AtomicU64::new(0),
                in_flight: AtomicU64::new(0),
                pauses: AtomicU64::new(0),
            }),
            was_paused: false,
            handshaken: false,
            client: None,
            handshake_deadline: now + handshake_timeout,
            last_progress: now,
            peer_closed: false,
            closing: false,
            refused: false,
            errored: false,
            dead: false,
        }
    }

    /// Backpressure: stop consuming this peer's bytes while its output is
    /// saturated.
    fn paused(&self, config: &RemoteServerConfig) -> bool {
        self.out.pending() > config.max_buffered
    }

    /// Whether the loop should read this peer's bytes now.
    fn wants_input(&self, config: &RemoteServerConfig) -> bool {
        !self.dead && !self.closing && !self.peer_closed && !self.paused(config)
    }

    /// Finished: dead, or closing/EOF with every answer flushed.
    fn finished(&self) -> bool {
        self.dead || ((self.closing || self.peer_closed) && self.out.pending() == 0)
    }

    /// One tick of work on a ready connection: flush, read one chunk,
    /// decide every complete frame, and flush the answers.
    fn serve(&mut self, shared: &ServerShared, readable: bool, writable: bool) {
        if writable {
            self.flush();
        }
        if readable && self.wants_input(&shared.config) {
            self.read();
        }
        if self.inbuf.buffered() > 0 {
            self.process_frames(shared);
        }
        self.flush();
    }

    fn read(&mut self) {
        let mut chunk = [0u8; 16 * 1024];
        match self.conn.read(&mut chunk) {
            Ok(0) => self.peer_closed = true,
            Ok(n) => {
                self.inbuf.extend(&chunk[..n]);
                self.telemetry
                    .bytes_in
                    .fetch_add(n as u64, Ordering::Relaxed);
                self.last_progress = Instant::now();
            }
            Err(e) if is_timeout(&e) || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => self.dead = true,
        }
    }

    fn process_frames(&mut self, shared: &ServerShared) {
        while !self.dead && !self.closing && !self.paused(&shared.config) {
            // The frame-decode span times the whole decode: bytes →
            // request.
            let decode_started = Instant::now();
            let frame = match self.inbuf.take_frame(MAX_REQUEST_FRAME) {
                Ok(Some(payload)) if self.handshaken => {
                    codec::decode_payload(payload).map(Frame::Request)
                }
                Ok(Some(payload)) => codec::decode_payload(payload).map(Frame::Hello),
                Ok(None) => return,
                Err(msg) => Err(msg),
            };
            match frame {
                Ok(frame) => {
                    self.last_progress = decode_started;
                    self.telemetry.frames_in.fetch_add(1, Ordering::Relaxed);
                    match frame {
                        Frame::Hello(hello) => self.handle_hello(shared, hello),
                        Frame::Request(Ok(request)) => {
                            self.handle_request(shared, request, decode_started);
                        }
                        Frame::Request(Err(e)) => self.fail(format!("malformed request: {e}")),
                    }
                }
                Err(msg) => {
                    self.fail(msg);
                    return;
                }
            }
        }
    }

    fn handle_hello(&mut self, shared: &ServerShared, hello: Result<ClientHello, String>) {
        let accepted = hello.ok().filter(|hello| {
            hello.magic == MAGIC
                && hello.version == REMOTE_PROTOCOL_VERSION
                && hello
                    .client
                    .as_ref()
                    .is_none_or(|id| id.len() <= MAX_CLIENT_ID)
        });
        // A refusal still answers, naming this server's version, so the
        // peer can fail with a precise error; it carries no workload.
        self.push_hello(&ServerHello {
            magic: MAGIC.to_string(),
            version: REMOTE_PROTOCOL_VERSION,
            workload: accepted
                .as_ref()
                .and_then(|_| shared.service.workload().cloned()),
            domains: shared.handshake_domains(),
        });
        let Some(hello) = accepted else {
            self.refused = true;
            self.closing = true;
            return;
        };
        self.handshaken = true;
        *lock(&self.telemetry.client) = hello.client.clone();
        self.client = hello.client;
        shared.handshaken.fetch_add(1, Ordering::Release);
    }

    /// Decides one request frame and buffers its answer.
    fn handle_request(
        &mut self,
        shared: &ServerShared,
        request: WireRequest,
        decode_started: Instant,
    ) {
        shared.requests.fetch_add(1, Ordering::Relaxed);
        self.telemetry.in_flight.fetch_add(1, Ordering::Relaxed);

        // Server-side span chain, recorded only when the served stack
        // exposes a flight recorder AND the admission carries a
        // client-minted span — untraced requests pay nothing. The decode
        // span is a child of the client's request span, pinned to this
        // connection's track; the dispatch span, the decision on this
        // loop's thread track, is the decode span's child.
        let dispatch_span = match (&shared.trace, &request.op) {
            (Some(trace), WireOp::Admit(admission)) => admission.span.map(|context| {
                let decode = context.child();
                trace.record(
                    TraceEvent::new(TraceKind::FrameDecode)
                        .app(admission.app_index)
                        .duration(decode_started.elapsed())
                        .span(decode)
                        .track(format!("conn{}", self.telemetry.token)),
                );
                decode.child()
            }),
            _ => None,
        };
        // Attribute every decision this connection drives to the client
        // id it announced, and parent every event the layers below record
        // (admit, fleet-admit) under the dispatch span.
        let _client_scope = self.client.clone().map(ClientScope::enter);
        let _span_scope = dispatch_span.map(SpanScope::enter);
        let started = Instant::now();
        let body = shared.dispatch(request.op);
        let decided = started.elapsed();
        shared.frame_latency.record_duration(decided);
        if let (Some(trace), Some(span)) = (&shared.trace, dispatch_span) {
            trace.record(
                TraceEvent::new(TraceKind::Dispatch)
                    .duration(decided)
                    .span(span),
            );
        }
        self.push_response(&WireResponse {
            id: request.id,
            body,
        });
        self.telemetry.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Answers a protocol fault with a best-effort uncorrelated error,
    /// then closes once it is flushed.
    fn fail(&mut self, msg: String) {
        self.push_response(&WireResponse {
            id: 0,
            body: WireBody::Error(WireFault::Transport(msg)),
        });
        self.errored = true;
        self.closing = true;
    }

    /// Buffers one response frame. An answer too large for a frame is
    /// replaced by a typed error, so the caller's completion still
    /// resolves.
    fn push_response(&mut self, response: &WireResponse) {
        let encoded = codec::encode(response, &mut self.out.buf).or_else(|e| {
            let error = WireResponse {
                id: response.id,
                body: WireBody::Error(WireFault::Transport(format!("encode response: {e}"))),
            };
            codec::encode(&error, &mut self.out.buf)
        });
        if encoded.is_ok() {
            self.telemetry.frames_out.fetch_add(1, Ordering::Relaxed);
        }
        self.sync_buffered();
    }

    /// Buffers the hello reply.
    fn push_hello(&mut self, hello: &ServerHello) {
        let _ = codec::encode(hello, &mut self.out.buf);
        self.sync_buffered();
    }

    fn sync_buffered(&self) {
        self.telemetry
            .write_buffered
            .store(self.out.pending() as u64, Ordering::Relaxed);
    }

    /// Writes as much of the buffered output as the socket accepts.
    fn flush(&mut self) {
        if self.dead || self.out.pending() == 0 {
            return;
        }
        let out = &mut self.out;
        while out.pending() > 0 {
            match self.conn.write(&out.buf[out.start..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    out.start += n;
                    self.telemetry
                        .bytes_out
                        .fetch_add(n as u64, Ordering::Relaxed);
                }
                Err(e) if is_timeout(&e) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if out.pending() == 0 {
            out.buf.clear();
            out.start = 0;
        } else if out.start > 64 * 1024 {
            out.buf.drain(..out.start);
            out.start = 0;
        }
        self.sync_buffered();
    }

    /// Handshake deadline, stall detection and backpressure accounting, as
    /// of `now`: the loop's last poll.
    fn check_timers(&mut self, config: &RemoteServerConfig, now: Instant) {
        if self.dead || self.closing {
            return;
        }
        // Edge-detect backpressure pauses once per tick: a false→true
        // transition is one pause episode, however long it lasts.
        let paused = self.paused(config);
        if paused && !self.was_paused {
            self.telemetry.pauses.fetch_add(1, Ordering::Relaxed);
        }
        self.was_paused = paused;
        if !self.handshaken {
            if now >= self.handshake_deadline {
                self.refused = true;
                self.dead = true;
            }
            return;
        }
        // A partial frame sitting un-grown past the stall budget is a
        // truncation — unless the connection is paused (backpressure,
        // not a peer fault).
        if self.inbuf.buffered() > 0
            && !paused
            && now.saturating_duration_since(self.last_progress) > config.stall_timeout
        {
            self.fail("truncated frame: peer stalled mid-frame".to_string());
        }
    }
}

// ---------------------------------------------------------------------------
// The event loops.
// ---------------------------------------------------------------------------

struct EventLoop {
    shared: Arc<ServerShared>,
    /// Position in [`ServerShared::loops`].
    index: usize,
    conns: HashMap<u64, Connection>,
}

/// Readiness of one connection in one tick.
struct Ready {
    token: u64,
    readable: bool,
    writable: bool,
}

impl EventLoop {
    fn new(shared: Arc<ServerShared>, index: usize) -> EventLoop {
        EventLoop {
            shared,
            index,
            conns: HashMap::new(),
        }
    }

    fn slot(&self) -> &LoopSlot {
        &self.shared.loops[self.index]
    }

    /// Loop 0: spawns the peer loops and the acceptor, serves, then joins
    /// them. Loop 0 allocates before any other server thread exists, so a
    /// lone client's working set lands in the same malloc arena in every
    /// server a process starts; with the threads racing to allocate first,
    /// repeated set-ups spread peak RSS over several arenas.
    fn run_first(self, acceptor: Acceptor) {
        let mut threads: Vec<JoinHandle<()>> = (1..self.shared.loops.len())
            .map(|index| {
                let shared = Arc::clone(&self.shared);
                spawn_named(format!("loop{index}"), move || {
                    EventLoop::new(shared, index).run()
                })
                .expect("spawn event loop")
            })
            .collect();
        threads.push(
            spawn_named("accept".to_string(), move || acceptor.run()).expect("spawn acceptor"),
        );
        self.run();
        for thread in threads {
            let _ = thread.join();
        }
    }

    fn run(mut self) {
        let mut drain_deadline: Option<Instant> = None;
        loop {
            // Read the flag before emptying the inbox: once draining is
            // seen, every placement on this loop is already in it.
            let draining = self.shared.draining.load(Ordering::Acquire);
            let placed = std::mem::take(&mut *lock(&self.slot().inbox));
            for conn in placed {
                self.conns.insert(conn.telemetry.token, conn);
            }
            if draining {
                let deadline = *drain_deadline
                    .get_or_insert_with(|| Instant::now() + self.shared.config.stall_timeout);
                let expired = Instant::now() >= deadline;
                for conn in self.conns.values_mut() {
                    conn.closing = true;
                    conn.dead |= expired;
                }
                self.reap();
                if self.conns.is_empty() {
                    return;
                }
            } else if self.shared.config.once
                && !self.shared.stopping.load(Ordering::Acquire)
                && self.shared.handshaken.load(Ordering::Acquire) > 0
                && self.shared.active.load(Ordering::Acquire) == 0
            {
                self.shared.stop();
            }

            let ready = self.wait_ready();
            // Timers measure from this poll, not from the end of the tick:
            // bytes that arrive while this loop decides are not a stall.
            let polled = Instant::now();
            self.shared.poll_ticks.fetch_add(1, Ordering::Relaxed);
            self.shared.ready_hist.record(ready.len() as u64);
            for r in &ready {
                if let Some(conn) = self.conns.get_mut(&r.token) {
                    conn.serve(&self.shared, r.readable, r.writable);
                }
            }
            for conn in self.conns.values_mut() {
                conn.check_timers(&self.shared.config, polled);
            }
            self.reap();
            self.shared.tick_hist.record_duration(polled.elapsed());
        }
    }

    /// One readiness wait: poll(2) over the waker and every connection
    /// that currently wants bytes in or out.
    #[cfg(unix)]
    fn wait_ready(&mut self) -> Vec<Ready> {
        use poller::{PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};

        let config = &self.shared.config;
        let mut fds = vec![PollFd {
            fd: self.slot().waker.fd(),
            events: POLLIN,
            revents: 0,
        }];
        let mut tokens = Vec::new();
        for (&token, conn) in &self.conns {
            let mut events = 0i16;
            if conn.wants_input(config) {
                events |= POLLIN;
            }
            if conn.out.pending() > 0 {
                events |= POLLOUT;
            }
            if events == 0 {
                continue;
            }
            fds.push(PollFd {
                fd: conn.conn.as_raw_fd(),
                events,
                revents: 0,
            });
            tokens.push(token);
        }
        poller::wait(&mut fds, config.poll_interval);
        if fds[0].revents != 0 {
            self.slot().waker.drain();
        }
        tokens
            .iter()
            .zip(&fds[1..])
            .filter(|(_, fd)| fd.revents != 0)
            .map(|(&token, fd)| Ready {
                token,
                // HUP/ERR surface through read()/write() results.
                readable: fd.revents & (POLLIN | POLLHUP | POLLERR) != 0,
                writable: fd.revents & (POLLOUT | POLLHUP | POLLERR) != 0,
            })
            .collect()
    }

    /// Portable fallback: sleep one poll interval and treat everything as
    /// ready — correctness over efficiency where poll(2) is unavailable.
    #[cfg(not(unix))]
    fn wait_ready(&mut self) -> Vec<Ready> {
        std::thread::sleep(self.shared.config.poll_interval);
        self.conns
            .iter()
            .map(|(&token, conn)| Ready {
                token,
                readable: conn.wants_input(&self.shared.config),
                writable: conn.out.pending() > 0,
            })
            .collect()
    }

    /// Removes finished connections: dead ones immediately, closing/EOF
    /// ones once their answers are flushed.
    fn reap(&mut self) {
        let shared = &*self.shared;
        let slot = &shared.loops[self.index];
        self.conns.retain(|&token, conn| {
            if !conn.finished() {
                return true;
            }
            lock(&shared.conn_stats).remove(&token);
            if conn.refused || !conn.handshaken {
                // EOF before any hello counts as a reject too (probes).
                shared.handshake_rejects.fetch_add(1, Ordering::Relaxed);
            } else if conn.errored {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
            conn.conn.shutdown();
            slot.live.fetch_sub(1, Ordering::Relaxed);
            shared.active.fetch_sub(1, Ordering::Release);
            false
        });
    }
}

// ---------------------------------------------------------------------------
// The acceptor.
// ---------------------------------------------------------------------------

/// The thread that owns the listener. It never decides, so no decision,
/// however slow, holds up an accept.
struct Acceptor {
    shared: Arc<ServerShared>,
    listener: Listener,
    next_token: u64,
}

impl Acceptor {
    /// Accepts until shutdown. Then it stops accepts before any connection
    /// is cut: it drops the listener, then sets `draining` and wakes every
    /// loop.
    fn run(mut self) {
        while !self.shared.stopping.load(Ordering::Acquire) {
            if self.wait_acceptable() {
                self.accept_all();
            }
        }
        drop(self.listener);
        self.shared.draining.store(true, Ordering::Release);
        for slot in &self.shared.loops {
            slot.wake();
        }
    }

    /// Waits up to one poll interval for a pending connection or a wake;
    /// `true` when the listener is readable. At `max_connections` the
    /// listener is left out of the wait.
    #[cfg(unix)]
    fn wait_acceptable(&self) -> bool {
        use poller::{PollFd, POLLIN};

        let config = &self.shared.config;
        let mut fds = [
            PollFd {
                fd: self.shared.accept_waker.fd(),
                events: POLLIN,
                revents: 0,
            },
            PollFd {
                fd: self.listener.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            },
        ];
        let below_max = self.shared.active.load(Ordering::Acquire) < config.max_connections as u64;
        let polled = if below_max { 2 } else { 1 };
        poller::wait(&mut fds[..polled], config.poll_interval);
        if fds[0].revents != 0 {
            self.shared.accept_waker.drain();
        }
        below_max && fds[1].revents != 0
    }

    /// Portable fallback: sleep one poll interval, then try to accept.
    #[cfg(not(unix))]
    fn wait_acceptable(&self) -> bool {
        std::thread::sleep(self.shared.config.poll_interval);
        self.shared.active.load(Ordering::Acquire) < self.shared.config.max_connections as u64
    }

    /// Accepts every pending connection and places each one.
    fn accept_all(&mut self) {
        while let Ok(conn) = self.listener.accept() {
            let config = &self.shared.config;
            if self.shared.active.load(Ordering::Acquire) >= config.max_connections as u64 {
                conn.shutdown();
                continue;
            }
            self.shared.connections.fetch_add(1, Ordering::Release);
            self.shared.active.fetch_add(1, Ordering::Release);
            let token = self.next_token;
            self.next_token += 1;
            let connection = Connection::new(conn, token, config.handshake_timeout);
            lock(&self.shared.conn_stats).insert(token, Arc::clone(&connection.telemetry));
            self.place(connection);
        }
    }

    /// Hands a fresh connection to the loop with the fewest live
    /// connections, ties to the lowest index.
    fn place(&self, connection: Connection) {
        let loops = &self.shared.loops;
        let live = |i: usize| loops[i].live.load(Ordering::Relaxed);
        let target =
            (1..loops.len()).fold(0, |best, i| if live(i) < live(best) { i } else { best });
        loops[target].live.fetch_add(1, Ordering::Relaxed);
        lock(&loops[target].inbox).push(connection);
        loops[target].wake();
    }
}

/// Starts a named server thread (`accept`, `loop0`, …), so spans recorded
/// while deciding land on a stable per-loop track in exported timelines.
fn spawn_named(
    name: String,
    body: impl FnOnce() + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(body)
}

// ---------------------------------------------------------------------------
// Public handle.
// ---------------------------------------------------------------------------

/// Serves any `Arc<dyn AdmissionService>` over TCP or UDS with readiness
/// event loops (see the [module docs](super)).
pub struct RemoteServer {
    shared: Arc<ServerShared>,
    local_addr: Endpoint,
    /// Loop 0, which joins the other loops and the acceptor before it
    /// exits.
    loop_handle: Mutex<Option<JoinHandle<()>>>,
    #[cfg(unix)]
    unix_path: Option<PathBuf>,
}

impl fmt::Debug for RemoteServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteServer")
            .field("local_addr", &self.local_addr)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl RemoteServer {
    /// Binds and starts serving `service` on `addr` with default tuning
    /// and no journal.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Transport`] when the address cannot be bound.
    pub fn bind(
        addr: &Endpoint,
        service: Arc<dyn AdmissionService>,
    ) -> Result<RemoteServer, ServiceError> {
        RemoteServer::bind_with(addr, service, None, RemoteServerConfig::default())
    }

    /// Binds with an explicit [`RemoteServerConfig`], serving `fleet`'s
    /// journal to [`RemoteClient::fetch_journal`](crate::RemoteClient::fetch_journal)
    /// in pages of 4096 entries — usually the fleet at the bottom of
    /// `service`. A page that cannot be read reaches the client as a
    /// [`WireFault::Config`] naming the failure; with no fleet, every
    /// journal request is answered "server records no journal".
    ///
    /// # Errors
    ///
    /// [`ServiceError::Transport`] when the address cannot be bound or
    /// the first loop cannot start.
    pub fn bind_with(
        addr: &Endpoint,
        service: Arc<dyn AdmissionService>,
        fleet: Option<FleetManager>,
        config: RemoteServerConfig,
    ) -> Result<RemoteServer, ServiceError> {
        let (listener, local_addr) = Listener::bind(addr)
            .map_err(|e| ServiceError::Transport(format!("bind {addr}: {e}")))?;
        #[cfg(unix)]
        let unix_path = match &local_addr {
            Endpoint::Unix(path) => Some(path.clone()),
            Endpoint::Tcp(_) => None,
        };
        let loops = (0..EVENT_LOOPS)
            .map(|_| {
                Ok(LoopSlot {
                    inbox: Mutex::new(Vec::new()),
                    live: AtomicUsize::new(0),
                    #[cfg(unix)]
                    waker: poller::Waker::new()
                        .map_err(|e| ServiceError::Transport(format!("waker pipe: {e}")))?,
                })
            })
            .collect::<Result<Vec<_>, ServiceError>>()?;
        let trace = service.trace_recorder();
        let shared = Arc::new(ServerShared {
            service,
            fleet,
            config,
            started: Instant::now(),
            frame_latency: HistogramRecorder::new(),
            trace,
            conn_stats: Mutex::new(BTreeMap::new()),
            poll_ticks: AtomicU64::new(0),
            tick_hist: HistogramRecorder::new(),
            ready_hist: HistogramRecorder::new(),
            loops,
            #[cfg(unix)]
            accept_waker: poller::Waker::new()
                .map_err(|e| ServiceError::Transport(format!("waker pipe: {e}")))?,
            stopping: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            handshaken: AtomicU64::new(0),
            active: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            handshake_rejects: AtomicU64::new(0),
        });
        let acceptor = Acceptor {
            shared: Arc::clone(&shared),
            listener,
            next_token: 1,
        };
        let first = EventLoop::new(Arc::clone(&shared), 0);
        let loop_handle = spawn_named("loop0".to_string(), move || first.run_first(acceptor))
            .map_err(|e| ServiceError::Transport(format!("spawn event loop: {e}")))?;
        Ok(RemoteServer {
            shared,
            local_addr,
            loop_handle: Mutex::new(Some(loop_handle)),
            #[cfg(unix)]
            unix_path,
        })
    }

    /// The actually bound address — for `tcp:HOST:0`, the ephemeral port
    /// is resolved here.
    pub fn local_addr(&self) -> &Endpoint {
        &self.local_addr
    }

    /// The served stack.
    pub fn service(&self) -> &dyn AdmissionService {
        &*self.shared.service
    }

    /// Current server counters.
    pub fn stats(&self) -> RemoteServerStats {
        RemoteServerStats {
            connections: self.shared.connections.load(Ordering::Relaxed),
            active: self.shared.active.load(Ordering::Relaxed),
            requests: self.shared.requests.load(Ordering::Relaxed),
            protocol_errors: self.shared.protocol_errors.load(Ordering::Relaxed),
            handshake_rejects: self.shared.handshake_rejects.load(Ordering::Relaxed),
        }
    }

    /// `true` once shutdown has begun (accepts stopped or stopping).
    pub fn is_stopping(&self) -> bool {
        self.shared.stopping.load(Ordering::Acquire)
    }

    /// Blocks until the server has fully stopped: every event loop has
    /// exited and every connection has drained. With
    /// [`once`](RemoteServerConfig::once) set, that is right after the
    /// first connection closes; otherwise it requires
    /// [`shutdown`](Self::shutdown) from another thread.
    pub fn wait(&self) {
        if let Some(handle) = lock(&self.loop_handle).take() {
            let _ = handle.join();
        }
    }

    /// Graceful shutdown, ordered against accepts: stops accepting new
    /// connections first, then drains every live connection (answers to
    /// frames already decided are flushed) and joins every loop.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.shared.stop();
        self.wait();
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for RemoteServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
