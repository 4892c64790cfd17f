//! Remote admission transport: process-spanning fleets over the service
//! trait.
//!
//! PR 3 gave every online surface one vocabulary ([`AdmissionRequest`] /
//! [`AdmissionDecision`]) behind the object-safe
//! [`AdmissionService`](crate::AdmissionService) trait. This module is the
//! wire `impl`: a **protocol whose client and server are both just
//! `AdmissionService`**, so a fleet can span processes —
//!
//! * [`RemoteServer`] accepts connections over TCP or Unix domain sockets
//!   and drives any `Arc<dyn AdmissionService>`, so a stack like
//!   `Traced<Metered<Cached<FleetManager>>>` serves over the wire
//!   unchanged;
//! * [`RemoteClient`] *implements* the trait, so every existing caller
//!   (`fleet-bench`, the benchmark) works against a remote fleet with
//!   zero changes, and [pipelines](RemoteClient::submit) many admissions
//!   on one connection.
//!
//! # Wire format (protocol v5)
//!
//! Every frame on a connection, from the first hello on, is one compact
//! length-prefixed binary frame (see [`codec`] for the layout). The codec
//! streams: each message is encoded straight to its frame bytes and decoded
//! straight from them, with no value tree in between, and it caps nesting
//! at [`serde::MAX_DEPTH`].
//!
//! A connection opens with a hello exchange ([`ClientHello`] →
//! [`ServerHello`]). There is one protocol version,
//! [`REMOTE_PROTOCOL_VERSION`]: the client names it, and the server answers
//! with the same version and the served stack's workload spec, so drivers
//! can phrase spec-relative requests without out-of-band configuration. A
//! hello naming any other version, or a client id longer than
//! [`MAX_CLIENT_ID`] bytes, is refused: the server answers with its own
//! version and no workload, then closes, and a client seeing another
//! version fails with a typed error naming both. A peer of protocol 4 or
//! earlier, which framed its hellos as JSON lines, fails typed too, never
//! hangs: the ASCII digits that open such a frame read as a length prefix
//! past [`MAX_FRAME`], so either end refuses the frame from its first four
//! bytes.
//!
//! After the handshake, requests carry a client-assigned correlation id
//! and may be **pipelined**: many admissions can be in flight on one
//! connection, and responses are matched back to their
//! [`Completion`](crate::Completion)s by id — responses may arrive in any
//! order.
//!
//! # One server, thousands of connections
//!
//! The server runs [`EVENT_LOOPS`] **non-blocking readiness loops**, not
//! a thread per connection. An acceptor thread, which never decides,
//! places each new connection on the loop with the fewest live
//! connections. Each loop polls its own sockets, reads into
//! per-connection frame buffers, and decodes, decides, encodes and
//! writes every frame on its own thread, with no hand-off to another
//! thread between the socket read and the socket write. One
//! connection's frames are decided one at a time, in arrival order:
//! pipelining saves round trips, not decision time, so a client that
//! wants decisions made in parallel opens several connections. A slow
//! decision holds up only the connections on its own loop; accepts and
//! the other loops carry on. A connection whose peer stops reading is
//! paused once its output buffer passes
//! [`max_buffered`](RemoteServerConfig::max_buffered), and a server-bound
//! frame longer than [`MAX_REQUEST_FRAME`] is refused from its length
//! prefix — bounded buffers, not unbounded queues, are the backpressure —
//! so thousands of connections cost the fixed set of server threads, at
//! flat memory.
//!
//! Failures are typed, never panics: disconnects, malformed frames,
//! version mismatches and mid-flight shutdowns all surface as
//! [`ServiceError::Transport`] (every outstanding completion resolves).
//!
//! # Shutdown ordering
//!
//! [`RemoteServer::shutdown`] first stops accepting new connections, then
//! lets every live connection drain: answers to frames already decided
//! are flushed before the connection closes. Accepts always stop before
//! the first connection is cut.
//!
//! # Example
//!
//! ```
//! use platform::{Application, Mapping, SystemSpec};
//! use runtime::{
//!     AdmissionRequest, AdmissionService, Endpoint, FleetConfig, FleetManager, RemoteClient,
//!     RemoteServer,
//! };
//! use sdf::figure2_graphs;
//! use std::sync::Arc;
//!
//! let (a, b) = figure2_graphs();
//! let spec = SystemSpec::builder()
//!     .application(Application::new("A", a)?)
//!     .application(Application::new("B", b)?)
//!     .mapping(Mapping::by_actor_index(3))
//!     .build()?;
//! let fleet = FleetManager::new(spec, FleetConfig::default())?;
//!
//! // Serve the fleet over a loopback TCP socket (port 0 = ephemeral).
//! let addr: Endpoint = "tcp:127.0.0.1:0".parse()?;
//! let server = RemoteServer::bind(&addr, Arc::new(fleet))?;
//! let client = RemoteClient::connect(server.local_addr())?;
//!
//! // The client is just another AdmissionService.
//! let decision = client.admit(&AdmissionRequest::new(0))?;
//! client.release(decision.resident().expect("admitted"))?;
//! client.close();
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod codec;

mod client;
mod endpoint;
mod server;

pub use client::{ClientConfig, RemoteClient, RemoteClientStats};
pub use codec::{WireMode, MAX_FRAME, MAX_REQUEST_FRAME};
pub use endpoint::Endpoint;
pub use server::{RemoteServer, RemoteServerConfig, RemoteServerStats, EVENT_LOOPS};

use crate::journal::JournalPage;
use crate::service::{AdmissionDecision, AdmissionRequest, ServiceError, ServiceSnapshot};
use crate::telemetry::{TelemetrySnapshot, TraceEvent};
use contention::{Estimate, Method};
use platform::SystemSpec;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The remote-protocol version this build speaks — the only one. Both
/// ends must name it in their hellos; a server refuses any other version
/// and a client fails its connect on one.
pub const REMOTE_PROTOCOL_VERSION: u64 = 5;

/// Longest client id, in bytes, a hello may announce. The id names the
/// tenant's row in the served stack's telemetry and, after `probcon journal
/// split`, a file; a client refuses a longer one before it dials, and a
/// server refuses a hello that carries one.
pub const MAX_CLIENT_ID: usize = 64;

/// Handshake magic identifying this protocol on the wire.
pub(crate) const MAGIC: &str = "probcon-remote";

// ---------------------------------------------------------------------------
// Wire messages.
// ---------------------------------------------------------------------------

/// First frame on a connection, client → server.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientHello {
    /// Protocol magic (`"probcon-remote"`).
    pub magic: String,
    /// The protocol version the client speaks.
    pub version: u64,
    /// Optional client identity, at most [`MAX_CLIENT_ID`] bytes
    /// ([`ClientConfig::client`] / `fleet-bench --client`): the server
    /// enters a [`ClientScope`](crate::ClientScope) for the connection, so
    /// every journaled decision this connection drives carries the id —
    /// the provenance `probcon journal split` separates recordings by.
    pub client: Option<String>,
}

/// Handshake reply, server → client. On a refused hello the server still
/// answers (naming its own version, omitting the workload) and then
/// closes, so the client can produce a precise typed error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerHello {
    /// Protocol magic (`"probcon-remote"`).
    pub magic: String,
    /// The server's protocol version, on acceptance and on refusal alike.
    pub version: u64,
    /// The served stack's workload spec, so clients can phrase
    /// spec-relative requests (and drivers can seed request streams)
    /// without out-of-band configuration. `None` on refusal.
    pub workload: Option<SystemSpec>,
    /// Admission domains of the served stack (fleet groups), for drivers
    /// that spread requests across domains.
    pub domains: u64,
}

/// One request frame: a client-assigned correlation id plus the operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireRequest {
    /// Correlation id echoed by the matching [`WireResponse`].
    pub id: u64,
    /// The requested operation.
    pub op: WireOp,
}

/// Operations a [`RemoteClient`] can request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireOp {
    /// Decide one admission.
    Admit(AdmissionRequest),
    /// Release a resident by id.
    Release(u64),
    /// Snapshot the served stack (with per-layer metrics).
    Snapshot,
    /// Estimate all periods of the use-case with the given mask.
    Estimate {
        /// Active-application mask
        /// ([`UseCase::mask`](platform::UseCase::mask)).
        mask: u64,
        /// Estimation method.
        method: Method,
    },
    /// Fetch one bounded page of the server-side decision journal,
    /// starting at the given entry sequence number (page 0 carries the
    /// header/checkpoint prologue). The response's
    /// [`next_seq`](crate::JournalPage::next_seq) chains to the next page.
    JournalPage {
        /// First entry sequence number of the requested page.
        from_seq: u64,
    },
    /// Collect the served stack's live telemetry (per-layer histograms,
    /// trace counters, server frame latency).
    Telemetry,
    /// Fetch the newest trace events from the served stack's flight
    /// recorder, oldest first.
    Trace {
        /// Maximum number of events to return.
        tail: u64,
    },
}

/// One response frame, correlated to its request by `id`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireResponse {
    /// Correlation id of the answered [`WireRequest`] (0 for protocol-level
    /// errors that could not be correlated, e.g. malformed frames).
    pub id: u64,
    /// The outcome.
    pub body: WireBody,
}

/// Response payloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireBody {
    /// The admission was decided (admitted, rejected or saturated — all
    /// three are decisions, not errors).
    Decision(AdmissionDecision),
    /// The release succeeded.
    Released,
    /// The served stack's snapshot.
    Snapshot(ServiceSnapshot),
    /// The computed estimate — shared with the cache that holds it, so
    /// serving a cached estimate copies nothing before it is encoded.
    Estimate(Arc<Estimate>),
    /// One bounded page of the server-side journal
    /// ([`Journal::render_page`](crate::Journal::render_page)).
    JournalPage(JournalPage),
    /// The served stack's live telemetry. Boxed: the snapshot (layer
    /// histograms, tenants, connections, event loop) dwarfs every other
    /// variant, and bodies are built once per frame anyway.
    Telemetry(Box<TelemetrySnapshot>),
    /// Trace events from the served stack's flight recorder.
    Trace(Vec<TraceEvent>),
    /// The operation failed.
    Error(WireFault),
}

/// A [`ServiceError`] flattened for the wire (the analysis error's
/// structure does not cross; its rendering does).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireFault {
    /// See [`ServiceError::NoWorkload`].
    NoWorkload,
    /// See [`ServiceError::UnknownResident`].
    UnknownResident(u64),
    /// See [`ServiceError::UnknownDomain`].
    UnknownDomain(u64),
    /// See [`ServiceError::Stopped`].
    Stopped,
    /// See [`ServiceError::Config`].
    Config(String),
    /// The far end's analysis failed; carries the rendered
    /// [`ServiceError::Analysis`] message.
    Analysis(String),
    /// A transport-layer failure (malformed frame, unsupported request).
    Transport(String),
}

impl From<&ServiceError> for WireFault {
    fn from(e: &ServiceError) -> WireFault {
        match e {
            ServiceError::NoWorkload => WireFault::NoWorkload,
            ServiceError::UnknownResident(r) => WireFault::UnknownResident(*r),
            ServiceError::UnknownDomain(d) => WireFault::UnknownDomain(*d as u64),
            ServiceError::Stopped => WireFault::Stopped,
            ServiceError::Config(msg) => WireFault::Config(msg.clone()),
            ServiceError::Analysis(e) => WireFault::Analysis(e.to_string()),
            ServiceError::Transport(msg) => WireFault::Transport(msg.clone()),
        }
    }
}

impl WireFault {
    fn into_service_error(self) -> ServiceError {
        match self {
            WireFault::NoWorkload => ServiceError::NoWorkload,
            WireFault::UnknownResident(r) => ServiceError::UnknownResident(r),
            WireFault::UnknownDomain(d) => ServiceError::UnknownDomain(d as usize),
            WireFault::Stopped => ServiceError::Stopped,
            WireFault::Config(msg) => ServiceError::Config(msg),
            WireFault::Analysis(msg) => {
                ServiceError::Config(format!("remote analysis failure: {msg}"))
            }
            WireFault::Transport(msg) => ServiceError::Transport(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::codec::{write_frame, FrameEvent, FrameReader};
    use super::*;
    use crate::fleet::{FleetConfig, FleetManager, RoutingPolicy};
    use crate::service::{AdmissionService, Cached, Completion};
    use platform::{Application, Mapping, UseCase};
    use sdf::figure2_graphs;
    use std::io::Read;
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

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

    static NEXT_SOCKET: AtomicUsize = AtomicUsize::new(0);

    #[cfg(unix)]
    fn uds_addr(tag: &str) -> Endpoint {
        let dir = std::env::temp_dir().join("probcon-remote-unit");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let n = NEXT_SOCKET.fetch_add(1, Ordering::Relaxed);
        Endpoint::Unix(dir.join(format!("{tag}-{}-{n}.sock", std::process::id())))
    }

    #[test]
    fn frames_roundtrip_and_survive_chunked_reads() {
        struct OneByte<R: Read>(R);
        impl<R: Read> Read for OneByte<R> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let take = 1.min(buf.len());
                self.0.read(&mut buf[..take])
            }
        }
        let mut wire = Vec::new();
        let hello = ClientHello {
            magic: MAGIC.to_string(),
            version: REMOTE_PROTOCOL_VERSION,
            client: Some("alpha".to_string()),
        };
        let mut scratch = Vec::new();
        write_frame(&mut wire, &hello, &mut scratch).unwrap();
        write_frame(&mut wire, &hello, &mut scratch).unwrap();
        let mut reader = FrameReader::new(OneByte(&wire[..]), 4);
        for _ in 0..2 {
            let FrameEvent::Frame(back) = reader.read_frame::<ClientHello>().unwrap() else {
                panic!("expected frame");
            };
            assert_eq!(back.unwrap(), hello);
        }
        assert!(matches!(
            reader.read_frame::<ClientHello>().unwrap(),
            FrameEvent::Closed
        ));
    }

    #[test]
    fn frame_reader_rejects_garbage_and_truncation() {
        let read = |bytes: Vec<u8>| {
            FrameReader::new(&bytes[..], 4)
                .read_frame::<serde::Value>()
                .map(|_| ())
        };
        let frame = |len: u32, payload: &[u8]| [&len.to_le_bytes()[..], payload].concat();
        // Oversized declared length.
        assert!(read(frame(MAX_FRAME as u32 + 1, &[]))
            .unwrap_err()
            .contains("exceeds maximum"));
        // A JSON-lines frame: its digits read as an oversized length.
        assert!(read(b"2 {}\n".to_vec())
            .unwrap_err()
            .contains("exceeds maximum"));
        // Length lies beyond the payload and the stream ends: truncated.
        assert!(read(frame(10, &[0, 0])).unwrap_err().contains("truncated"));
        // A malformed payload is an error; a well-formed one of the wrong
        // shape is a frame that carries why.
        assert!(read(frame(2, &[0, 99]))
            .unwrap_err()
            .contains("malformed frame"));
        let empty = codec::encode_frame(&Vec::<u64>::new()).unwrap();
        let mut reader = FrameReader::new(&empty[..], 4);
        assert!(matches!(
            reader.read_frame::<ClientHello>(),
            Ok(FrameEvent::Frame(Err(_)))
        ));
    }

    #[test]
    fn wire_messages_roundtrip_through_the_codec() {
        let request = WireRequest {
            id: 42,
            op: WireOp::Admit(AdmissionRequest::new(1).with_affinity("uc0").on(2)),
        };
        let bytes = codec::encode_frame(&request).unwrap();
        let (back, _) = codec::decode::<WireRequest>(&bytes, MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(back, request);

        let response = WireResponse {
            id: 42,
            body: WireBody::Error(WireFault::UnknownResident(7)),
        };
        let bytes = codec::encode_frame(&response).unwrap();
        let (back, _) = codec::decode::<WireResponse>(&bytes, MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(back, response);
        let WireBody::Error(fault) = back.body else {
            panic!("error body");
        };
        assert_eq!(fault.into_service_error(), ServiceError::UnknownResident(7));
    }

    #[test]
    fn tcp_roundtrip_admit_release_estimate_snapshot() {
        let server = RemoteServer::bind(
            &"tcp:127.0.0.1:0".parse().unwrap(),
            Arc::new(Cached::new(fleet(2, 2), 16)),
        )
        .unwrap();
        let client = RemoteClient::connect(server.local_addr()).unwrap();

        // The handshake delivered the workload spec and domain count.
        assert_eq!(client.workload().unwrap().application_count(), 2);
        assert_eq!(client.domains(), 2);

        let decision = client.admit(&AdmissionRequest::new(0)).unwrap();
        assert!(decision.is_admitted());
        let estimate = client
            .estimate(UseCase::full(2), Method::SECOND_ORDER)
            .unwrap();
        assert!(!estimate.periods().is_empty());
        // The wire decodes `Method` without parsing it, so `Order(0)`
        // reaches the estimator: it answers with a typed error, not a
        // caught panic, and the connection keeps serving.
        let err = client
            .estimate(UseCase::full(2), Method::Order(0))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Config(_)), "{err}");
        assert!(!err.to_string().contains("panicked"), "{err}");
        assert!(err.to_string().contains("order"), "{err}");
        let snapshot = AdmissionService::snapshot(&client);
        assert_eq!(snapshot.admitted, 1);
        assert_eq!(snapshot.counter("fleet", "groups"), Some(2));
        assert_eq!(snapshot.counter("remote", "transport_errors"), Some(0));
        client.release(decision.resident().unwrap()).unwrap();
        assert_eq!(
            client.release(decision.resident().unwrap()).unwrap_err(),
            ServiceError::UnknownResident(decision.resident().unwrap())
        );

        client.close();
        server.shutdown();
        assert_eq!(server.stats().active, 0);
        assert_eq!(server.stats().protocol_errors, 0);
    }

    #[cfg(unix)]
    #[test]
    fn uds_roundtrip_and_journal_fetch() {
        let addr = uds_addr("roundtrip");
        let fleet = fleet(1, 2);
        let server = RemoteServer::bind_with(
            &addr,
            Arc::new(Cached::new(fleet.clone(), 8)),
            Some(fleet.clone()),
            RemoteServerConfig::default(),
        )
        .unwrap();
        // A second server cannot take a live server's socket path.
        assert!(RemoteServer::bind(&addr, Arc::new(fleet.clone())).is_err());
        let client = RemoteClient::connect(server.local_addr()).unwrap();
        let decision = client.admit(&AdmissionRequest::new(0)).unwrap();
        client.release(decision.resident().unwrap()).unwrap();

        // Fill the group, then let saturated admissions — journaled
        // without an analysis — run the journal past one 4096-entry page,
        // so the client's fetch loop crosses a page boundary.
        for _ in 0..4200 {
            fleet.admit(&AdmissionRequest::new(0)).unwrap();
        }

        // The journal fetched over the wire verifies, and its pages
        // concatenate to the server fleet's own render byte for byte.
        let journal = client.fetch_journal().unwrap();
        assert_eq!(journal.len(), 4202);
        journal.verify().unwrap();
        assert_eq!(journal.render().unwrap(), fleet.journal().render().unwrap());

        client.close();
        server.shutdown();
        // The socket file is removed on shutdown.
        let Endpoint::Unix(path) = &addr else {
            panic!("uds addr");
        };
        assert!(!path.exists());
    }

    #[test]
    fn telemetry_and_trace_roundtrip_over_tcp() {
        use crate::service::Metered;
        use crate::telemetry::{TraceKind, Traced};

        let stack = Traced::new(Metered::new(Cached::new(fleet(2, 4), 16)), 256);
        let server =
            RemoteServer::bind(&"tcp:127.0.0.1:0".parse().unwrap(), Arc::new(stack)).unwrap();
        let client = RemoteClient::connect(server.local_addr()).unwrap();

        let decision = client.admit(&AdmissionRequest::new(0)).unwrap();
        client.release(decision.resident().unwrap()).unwrap();

        // Telemetry crosses the wire: per-layer histograms from the served
        // stack, the server's own frame latency, and this client's layer.
        let telemetry = client.remote_telemetry().unwrap();
        let admit = telemetry.histogram("metered", "admit").unwrap();
        assert_eq!(admit.count(), 1);
        let frame = telemetry.histogram("remote-server", "frame").unwrap();
        assert!(frame.count() >= 2, "admit + release frames timed");
        assert!(telemetry.trace.recorded >= 2, "admit + release traced");
        let trait_view = AdmissionService::telemetry(&client);
        assert!(trait_view
            .service
            .layers
            .iter()
            .any(|layer| layer.layer == "remote"));
        assert!(trait_view.histogram("remote-server", "frame").is_some());

        // Live transport visibility rides along: per-connection counters
        // and the event loop's own health.
        let connections = telemetry.connections.as_ref().expect("connection stats");
        assert!(connections.iter().any(|c| c.frames_in > 0));
        let event_loop = telemetry.event_loop.as_ref().expect("event loop stats");
        assert!(event_loop.poll_ticks > 0);

        // The flight recorder's tail crosses too, oldest first — and the
        // admission produced a parent-linked server-side span chain under
        // the client-minted trace id: frame decode → dispatch → admit.
        let events = client.remote_trace(16).unwrap();
        assert!(events.len() >= 3);
        let decode = events
            .iter()
            .find(|e| e.kind == TraceKind::FrameDecode)
            .expect("frame decode traced");
        let dispatch = events
            .iter()
            .find(|e| e.kind == TraceKind::Dispatch)
            .expect("dispatch traced");
        let admit = events
            .iter()
            .find(|e| e.kind == TraceKind::Admit)
            .expect("admit traced");
        assert!(decode.trace_id.is_some());
        assert_eq!(decode.trace_id, dispatch.trace_id);
        assert_eq!(decode.trace_id, admit.trace_id);
        assert_eq!(dispatch.parent_span_id, decode.span_id);
        assert_eq!(admit.parent_span_id, dispatch.span_id);
        assert!(
            decode.parent_span_id.is_some(),
            "decode links up to the client-side root span"
        );
        assert_eq!(decode.track.as_deref(), Some("conn1"));
        assert!(events.iter().any(|e| e.kind == TraceKind::Release));
        assert_eq!(AdmissionService::trace_tail(&client, 1).len(), 1);

        // The rendered exposition includes the remote layers.
        let text = telemetry.render_prometheus();
        assert!(text.contains("probcon_op_latency_microseconds"));

        client.close();
        server.shutdown();
    }

    #[test]
    fn pipelined_submissions_correlate_by_id() {
        let server =
            RemoteServer::bind(&"tcp:127.0.0.1:0".parse().unwrap(), Arc::new(fleet(2, 16)))
                .unwrap();
        let client = RemoteClient::connect(server.local_addr()).unwrap();

        // Queue a burst without waiting: all in flight on one connection.
        let completions: Vec<Completion> = (0..12)
            .map(|i| client.submit(AdmissionRequest::new(i)))
            .collect();
        let mut residents = Vec::new();
        for completion in &completions {
            residents.extend(completion.wait().unwrap().resident());
        }
        assert_eq!(residents.len(), 12);
        // Releases interleave with a snapshot request on the same pipe.
        let releases: Vec<Completion<()>> = residents
            .iter()
            .map(|&r| client.submit_release(r))
            .collect();
        let snapshot = client.remote_snapshot().unwrap();
        assert_eq!(snapshot.admitted, 12);
        for release in releases {
            release.wait().unwrap();
        }
        client.close();
        server.shutdown();
    }

    #[test]
    fn a_loop_serves_several_connections() {
        let server =
            RemoteServer::bind(&"tcp:127.0.0.1:0".parse().unwrap(), Arc::new(fleet(2, 16)))
                .unwrap();
        // One connection per loop, then three more: placement on the loop
        // with the fewest live connections, ties to the lowest index, puts
        // the extra three on loops 0–2, so each of those serves two.
        let connections = EVENT_LOOPS + 3;
        let clients: Vec<RemoteClient> = (0..connections)
            .map(|_| RemoteClient::connect(server.local_addr()).unwrap())
            .collect();
        // A pipelined burst on every connection at once.
        let completions: Vec<Completion> = clients
            .iter()
            .flat_map(|client| (0..4).map(move |i| client.submit(AdmissionRequest::new(i))))
            .collect();
        for completion in completions {
            assert!(completion.wait().unwrap().is_admitted());
        }
        for client in &clients {
            client.close();
        }
        server.shutdown();
        assert_eq!(server.stats().connections, connections as u64);
        assert_eq!(server.stats().requests, 4 * connections as u64);
    }

    #[test]
    fn client_identity_stamps_provenance_into_served_journal() {
        let fleet = fleet(1, 4);
        let server = RemoteServer::bind(
            &"tcp:127.0.0.1:0".parse().unwrap(),
            Arc::new(fleet.clone()) as Arc<dyn AdmissionService>,
        )
        .unwrap();

        // Two identified clients and one anonymous one, sequentially.
        for (client, app) in [(Some("alpha"), 0usize), (Some("beta"), 1), (None, 0)] {
            let remote = RemoteClient::connect_config(
                server.local_addr(),
                ClientConfig {
                    client: client.map(str::to_string),
                    ..ClientConfig::default()
                },
            )
            .unwrap();
            let decision = remote.admit(&AdmissionRequest::new(app)).unwrap();
            remote.release(decision.resident().expect("fits")).unwrap();
            remote.close();
        }
        server.shutdown();

        // Every decision a connection drove carries its hello's client id
        // — including the releases — and anonymous traffic stays None.
        let clients: Vec<Option<String>> = fleet
            .journal()
            .try_entries()
            .expect("journal reads")
            .iter()
            .map(|e| e.client.clone())
            .collect();
        assert_eq!(
            clients,
            [
                Some("alpha".to_string()),
                Some("alpha".to_string()),
                Some("beta".to_string()),
                Some("beta".to_string()),
                None,
                None
            ]
        );
        fleet.journal().verify().expect("stamped journal verifies");
        // The journal splits into one valid journal per client.
        assert_eq!(
            fleet
                .journal()
                .split_by_client()
                .expect("no checkpoint")
                .len(),
            3
        );
    }

    #[test]
    fn server_refuses_future_versions_with_its_own_version() {
        let server =
            RemoteServer::bind(&"tcp:127.0.0.1:0".parse().unwrap(), Arc::new(fleet(1, 1))).unwrap();
        let Endpoint::Tcp(hostport) = server.local_addr().clone() else {
            panic!("tcp addr");
        };
        // Raw clients speaking an older and a future protocol version:
        // there is one version, so both are refused alike.
        let versions = [REMOTE_PROTOCOL_VERSION - 1, REMOTE_PROTOCOL_VERSION + 1];
        for version in versions {
            let mut conn = TcpStream::connect(hostport.as_str()).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            write_frame(
                &mut conn,
                &ClientHello {
                    magic: MAGIC.to_string(),
                    version,
                    client: None,
                },
                &mut Vec::new(),
            )
            .unwrap();
            let mut reader = FrameReader::new(conn.try_clone().unwrap(), 100);
            let FrameEvent::Frame(hello) = reader.read_frame::<ServerHello>().unwrap() else {
                panic!("server answers the v{version} hello");
            };
            let hello = hello.unwrap();
            assert_eq!(hello.version, REMOTE_PROTOCOL_VERSION);
            assert!(hello.workload.is_none(), "no spec for refused clients");
            // ... and then closes the connection.
            assert!(matches!(
                reader.read_frame::<ServerHello>(),
                Ok(FrameEvent::Closed) | Err(_)
            ));
        }
        loop {
            // A reject is counted when the loop reaps the connection,
            // which races this assertion by one poll tick.
            if server.stats().handshake_rejects == versions.len() as u64 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    #[test]
    fn graceful_shutdown_stops_accepts_then_drains_in_flight() {
        let server =
            RemoteServer::bind(&"tcp:127.0.0.1:0".parse().unwrap(), Arc::new(fleet(2, 8))).unwrap();
        let client = RemoteClient::connect(server.local_addr()).unwrap();
        let burst: Vec<Completion> = (0..8)
            .map(|i| client.submit(AdmissionRequest::new(i)))
            .collect();
        let addr = server.local_addr().clone();
        server.shutdown();
        assert!(server.is_stopping());
        // Accepts stopped: a fresh connect cannot handshake any more.
        let short_handshake = ClientConfig {
            handshake_timeout: Duration::from_millis(300),
            ..ClientConfig::default()
        };
        assert!(RemoteClient::connect_config(&addr, short_handshake).is_err());
        // ... but every in-flight submission resolved (decision or typed
        // transport error — drain answers what it read before closing).
        for completion in burst {
            match completion.wait() {
                Ok(decision) => assert!(decision.domain() < 2),
                Err(ServiceError::Transport(_)) => {}
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        client.close();
    }

    #[test]
    fn once_mode_ignores_probe_connections_without_handshake() {
        let server = RemoteServer::bind_with(
            &"tcp:127.0.0.1:0".parse().unwrap(),
            Arc::new(fleet(1, 2)),
            None,
            RemoteServerConfig {
                once: true,
                handshake_timeout: Duration::from_millis(200),
                ..RemoteServerConfig::default()
            },
        )
        .unwrap();
        let Endpoint::Tcp(hostport) = server.local_addr().clone() else {
            panic!("tcp addr");
        };
        // A liveness probe: connect and drop without ever handshaking.
        // It must not arm once-mode and shut the server down before the
        // real client arrives.
        drop(TcpStream::connect(hostport.as_str()).unwrap());
        std::thread::sleep(Duration::from_millis(400)); // probe conn reaped
        assert!(!server.is_stopping(), "probe must not stop a once server");

        let client = RemoteClient::connect(server.local_addr()).unwrap();
        assert!(client
            .admit(&AdmissionRequest::new(0))
            .unwrap()
            .is_admitted());
        client.close();
        server.wait();
        assert!(server.is_stopping());
    }

    #[test]
    fn once_mode_stops_after_first_connection_closes() {
        let server = RemoteServer::bind_with(
            &"tcp:127.0.0.1:0".parse().unwrap(),
            Arc::new(fleet(1, 2)),
            None,
            RemoteServerConfig {
                once: true,
                ..RemoteServerConfig::default()
            },
        )
        .unwrap();
        let client = RemoteClient::connect(server.local_addr()).unwrap();
        let decision = client.admit(&AdmissionRequest::new(0)).unwrap();
        assert!(decision.is_admitted());
        client.close();
        // The server notices the disconnect and stops by itself.
        server.wait();
        assert!(server.is_stopping());
    }

    #[test]
    fn broken_client_fails_fast_with_typed_errors() {
        let server =
            RemoteServer::bind(&"tcp:127.0.0.1:0".parse().unwrap(), Arc::new(fleet(1, 2))).unwrap();
        let client = RemoteClient::connect(server.local_addr()).unwrap();
        client.close();
        assert!(client.broken().is_some());
        assert!(matches!(
            client.admit(&AdmissionRequest::new(0)).unwrap_err(),
            ServiceError::Transport(_)
        ));
        // The infallible snapshot degrades to the zeroed form, flagged.
        let snapshot = AdmissionService::snapshot(&client);
        assert_eq!(snapshot.capacity, 0);
        assert_eq!(snapshot.counter("remote", "broken"), Some(1));
        server.shutdown();
    }
}
