//! Failure-mode tests of the `runtime::remote` transport: truncated
//! frames, malformed JSON, protocol-version mismatches and mid-flight
//! disconnects. The invariant under test throughout: **client completions
//! resolve with typed errors, they never hang** — every scenario runs
//! under the same watchdog the runtime stress tests use, so a wedged
//! transport fails the suite instead of freezing it.

use platform::{Application, Mapping, SystemSpec};
use runtime::remote::codec::encode_frame;
use runtime::remote::{WireBody, WireFault, WireOp, WireRequest, WireResponse};
use runtime::{
    AdmissionDecision, AdmissionRequest, AdmissionService, ClientConfig, Completion, Endpoint,
    FleetConfig, FleetManager, JournalReplayer, RemoteClient, RemoteServer, RemoteServerConfig,
    RoutingPolicy, ServiceError, ServiceSnapshot, WireMode, EVENT_LOOPS, MAX_FRAME,
    MAX_REQUEST_FRAME, REMOTE_PROTOCOL_VERSION,
};
use sdf::{figure2_graphs, Rational};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(120);

/// Runs `f` on a fresh thread and fails the test if it does not finish
/// within [`WATCHDOG`] — a hanging completion would block forever
/// otherwise.
fn with_watchdog<F: FnOnce() + Send + 'static>(f: F) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        tx.send(()).expect("watchdog receiver lives");
    });
    rx.recv_timeout(WATCHDOG)
        .expect("transport test hung: watchdog expired");
    worker.join().expect("transport test panicked");
}

fn spec() -> SystemSpec {
    let (a, b) = figure2_graphs();
    SystemSpec::builder()
        .application(Application::new("A", a).expect("valid"))
        .application(Application::new("B", b).expect("valid"))
        .mapping(Mapping::by_actor_index(3))
        .build()
        .expect("valid spec")
}

fn fleet(groups: usize, capacity: usize) -> FleetManager {
    FleetManager::new(
        spec(),
        FleetConfig::uniform(groups, 1, capacity, RoutingPolicy::LeastUtilised),
    )
    .expect("valid fleet")
}

fn serve(groups: usize, capacity: usize) -> RemoteServer {
    RemoteServer::bind_with(
        &"tcp:127.0.0.1:0".parse().expect("addr"),
        Arc::new(fleet(groups, capacity)),
        None,
        RemoteServerConfig {
            // Tight stall budget so truncation tests conclude quickly.
            stall_timeout: Duration::from_millis(300),
            handshake_timeout: Duration::from_secs(2),
            ..RemoteServerConfig::default()
        },
    )
    .expect("server binds")
}

/// Raw TCP connection to a server, for speaking the protocol incorrectly
/// on purpose. Performs a valid handshake first (the failure under test
/// comes after it): `Some(mode)` asks for that wire mode, `None` sends a
/// hello naming no mode, which the server must grant as JSON.
fn raw_handshaken(server: &RemoteServer, wire: Option<&str>) -> TcpStream {
    let Endpoint::Tcp(hostport) = server.local_addr().clone() else {
        panic!("tcp server expected");
    };
    let mut conn = TcpStream::connect(hostport.as_str()).expect("connects");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    let hello = match wire {
        Some(wire) => format!(
            "{{\"magic\":\"probcon-remote\",\"version\":{REMOTE_PROTOCOL_VERSION},\"wire\":\"{wire}\"}}"
        ),
        None => format!("{{\"magic\":\"probcon-remote\",\"version\":{REMOTE_PROTOCOL_VERSION}}}"),
    };
    writeln!(conn, "{} {hello}", hello.len()).expect("hello frame");
    read_one_frame(&mut conn).expect("server hello arrives");
    conn
}

/// Reads one `LEN JSON\n` frame, returning its payload (None on EOF).
fn read_one_frame(conn: &mut TcpStream) -> Option<String> {
    let mut prefix = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        if conn.read(&mut byte).ok()? == 0 {
            return None;
        }
        if byte[0] == b' ' {
            break;
        }
        prefix.push(byte[0]);
    }
    let len: usize = String::from_utf8(prefix).ok()?.parse().ok()?;
    let mut payload = vec![0u8; len + 1]; // + newline
    conn.read_exact(&mut payload).ok()?;
    payload.pop();
    String::from_utf8(payload).ok()
}

/// A fake "server" accepting one connection and running `script` on it —
/// for failure modes a real server never produces (bogus version, garbage
/// responses, mid-flight death).
fn fake_server<F>(script: F) -> Endpoint
where
    F: FnOnce(TcpStream) + Send + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("fake server binds");
    let addr = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
    std::thread::spawn(move || {
        if let Ok((conn, _)) = listener.accept() {
            script(conn);
        }
    });
    addr
}

/// Reads the client hello off a fake-server connection.
fn consume_client_hello(conn: &mut TcpStream) {
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let _ = read_one_frame(conn).expect("client hello arrives");
}

// ---------------------------------------------------------------------------
// Truncated frames.
// ---------------------------------------------------------------------------

#[test]
fn server_survives_truncated_frame_and_keeps_serving() {
    with_watchdog(|| {
        let server = serve(1, 2);

        // A frame whose declared length exceeds what is ever sent, then
        // silence: the server must cut the connection as truncated ...
        let mut evil = raw_handshaken(&server, None);
        evil.write_all(b"400 {\"id\":1,").expect("partial frame");
        evil.flush().expect("flush");
        let mut rest = Vec::new();
        let _ = evil.read_to_end(&mut rest); // server answers an error frame and/or closes
        drop(evil);

        // ... and keep serving well-formed clients afterwards.
        let client = RemoteClient::connect(server.local_addr()).expect("real client connects");
        let decision = client
            .admit(&AdmissionRequest::new(0))
            .expect("healthy connection still decides");
        assert!(decision.is_admitted());
        client.close();
        // Handlers are joined by shutdown; only then are stats reliable.
        server.shutdown();
        assert!(server.stats().protocol_errors >= 1, "{:?}", server.stats());
    });
}

#[test]
fn client_resolves_on_truncated_response() {
    with_watchdog(|| {
        let addr = fake_server(|mut conn| {
            consume_client_hello(&mut conn);
            let hello = format!(
                "{{\"magic\":\"probcon-remote\",\"version\":{REMOTE_PROTOCOL_VERSION},\
                 \"workload\":null,\"domains\":1}}"
            );
            writeln!(conn, "{} {hello}", hello.len()).expect("server hello");
            // Read the admit request, answer with a truncated frame, die.
            let _ = read_one_frame(&mut conn);
            conn.write_all(b"999 {\"id\":1,\"body\"")
                .expect("truncated");
            conn.flush().expect("flush");
            // Connection drops here.
        });
        let client = RemoteClient::connect(&addr).expect("handshake succeeds");
        let completion = client.submit(AdmissionRequest::new(0));
        // The completion resolves with a typed transport error — no hang.
        match completion.wait() {
            Err(ServiceError::Transport(msg)) => {
                assert!(msg.contains("truncated"), "unexpected reason: {msg}");
            }
            other => panic!("expected transport error, got {other:?}"),
        }
        assert!(client.broken().is_some());
    });
}

// ---------------------------------------------------------------------------
// Malformed JSON.
// ---------------------------------------------------------------------------

#[test]
fn server_answers_malformed_json_with_typed_error() {
    with_watchdog(|| {
        let server = serve(1, 2);
        let mut evil = raw_handshaken(&server, None);
        // Correct framing (16 payload bytes declared and sent), garbage
        // payload — this must reach the serde branch, not the framing one.
        evil.write_all(b"16 this is not json\n").expect("bad frame");
        evil.flush().expect("flush");
        let reply = read_one_frame(&mut evil).expect("server answers before closing");
        assert!(
            reply.contains("Error") && reply.contains("\"id\":0"),
            "expected an uncorrelated error frame, got: {reply}"
        );
        // Handlers are joined by shutdown; only then is the stat reliable.
        server.shutdown();
        assert_eq!(server.stats().protocol_errors, 1);
    });
}

#[test]
fn a_deeply_nested_hello_is_refused_and_the_server_keeps_serving() {
    with_watchdog(|| {
        let server = serve(1, 2);
        let Endpoint::Tcp(hostport) = server.local_addr().clone() else {
            panic!("tcp server expected");
        };
        let mut evil = TcpStream::connect(hostport.as_str()).expect("connects");
        evil.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout set");
        // 30,000 nested arrays in one 30 KB pre-handshake frame: under
        // MAX_REQUEST_FRAME, and deep enough to overflow a loop thread's
        // stack in a parser without a nesting cap.
        let hello = "[".repeat(30_000);
        writeln!(evil, "{} {hello}", hello.len()).expect("deep hello");
        evil.flush().expect("flush");
        // The server answers with a typed error, or closes this one
        // connection.
        let mut reply = Vec::new();
        let _ = evil.read_to_end(&mut reply);
        if !reply.is_empty() {
            let (response, _) = WireMode::Json
                .decode::<WireResponse>(&reply, MAX_FRAME)
                .expect("a well-formed response frame")
                .expect("complete reply");
            assert!(
                matches!(
                    &response.body,
                    WireBody::Error(WireFault::Transport(msg)) if msg.contains("nesting")
                ),
                "expected a typed nesting error, got {:?}",
                response.body
            );
        }
        drop(evil);

        // The server is alive and serves the next client.
        let client = RemoteClient::connect(server.local_addr()).expect("real client connects");
        assert!(client
            .admit(&AdmissionRequest::new(0))
            .expect("healthy connection still decides")
            .is_admitted());
        client.close();
        server.shutdown();
        // A connection cut before its handshake counts as a reject.
        assert_eq!(server.stats().handshake_rejects, 1);
    });
}

#[test]
fn server_refuses_an_over_cap_frame_from_its_length_prefix() {
    with_watchdog(|| {
        let server = serve(1, 2);
        let over = MAX_REQUEST_FRAME + 1;
        for mode in [WireMode::Json, WireMode::Binary] {
            let wire = mode.name();
            // Announce one byte over the cap and send no payload: the
            // server must answer from the length prefix alone, then close.
            let mut evil = raw_handshaken(&server, Some(wire));
            if wire == "json" {
                write!(evil, "{over} ").expect("json prefix");
            } else {
                evil.write_all(&(over as u32).to_le_bytes())
                    .expect("binary prefix");
            }
            evil.flush().expect("flush");
            let mut reply = Vec::new();
            evil.read_to_end(&mut reply)
                .expect("answered and closed without waiting for the payload");
            let (response, _) = mode
                .decode::<WireResponse>(&reply, MAX_FRAME)
                .expect("a well-formed response frame")
                .expect("complete reply");
            assert_eq!(response.id, 0, "uncorrelated: no request was read");
            assert!(
                matches!(
                    &response.body,
                    WireBody::Error(WireFault::Transport(msg)) if msg.contains("exceeds maximum")
                ),
                "{wire}: expected a typed malformed-frame error, got {:?}",
                response.body
            );
        }

        // Well-formed clients are still served.
        let client = RemoteClient::connect(server.local_addr()).expect("real client connects");
        assert!(client
            .admit(&AdmissionRequest::new(0))
            .expect("healthy connection still decides")
            .is_admitted());
        client.close();
        server.shutdown();
        assert_eq!(server.stats().protocol_errors, 2);
    });
}

#[test]
fn client_fails_pending_on_malformed_response() {
    with_watchdog(|| {
        let addr = fake_server(|mut conn| {
            consume_client_hello(&mut conn);
            let hello = format!(
                "{{\"magic\":\"probcon-remote\",\"version\":{REMOTE_PROTOCOL_VERSION},\
                 \"workload\":null,\"domains\":1}}"
            );
            writeln!(conn, "{} {hello}", hello.len()).expect("server hello");
            let _ = read_one_frame(&mut conn);
            conn.write_all(b"9 not-json!\n").expect("garbage");
            conn.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(200));
        });
        let client = RemoteClient::connect(&addr).expect("handshake succeeds");
        let completion = client.submit(AdmissionRequest::new(0));
        match completion.wait() {
            Err(ServiceError::Transport(msg)) => {
                assert!(msg.contains("malformed"), "unexpected reason: {msg}");
            }
            other => panic!("expected transport error, got {other:?}"),
        }
    });
}

/// Sets every `key` field anywhere inside `tree` to `value`.
fn set_everywhere(tree: &mut serde::Value, key: &str, value: &serde::Value) {
    match tree {
        serde::Value::Object(fields) => {
            for (k, v) in fields.iter_mut() {
                if k == key {
                    *v = value.clone();
                } else {
                    set_everywhere(v, key, value);
                }
            }
        }
        serde::Value::Array(items) => {
            for v in items {
                set_everywhere(v, key, value);
            }
        }
        _ => {}
    }
}

#[test]
fn a_non_canonical_contract_is_a_malformed_request_in_both_codecs() {
    // A contract of 10⁻⁶ sent as -1/-1000000 used to decode as written,
    // and `Ord` (which assumes a positive denominator) then rejected the
    // admission. It is malformed: the server answers its typed fault and
    // closes that connection, deciding and journaling nothing.
    with_watchdog(|| {
        let fleet = Arc::new(fleet(1, 2));
        let server = RemoteServer::bind_with(
            &"tcp:127.0.0.1:0".parse().expect("addr"),
            Arc::clone(&fleet) as Arc<dyn AdmissionService>,
            None,
            RemoteServerConfig::default(),
        )
        .expect("server binds");
        let mut request = serde::to_value(&WireRequest {
            id: 5,
            op: WireOp::Admit(AdmissionRequest::new(0).with_contract(Rational::new(1, 1_000_000))),
        });
        let mut hostile = serde::Value::object();
        hostile.insert("numer", serde::Value::Int(-1));
        hostile.insert("denom", serde::Value::Int(-1_000_000));
        set_everywhere(&mut request, "required_throughput", &hostile);

        for wire in [WireMode::Json, WireMode::Binary] {
            let mut conn = raw_handshaken(&server, Some(wire.name()));
            conn.write_all(&encode_frame(wire, &request).expect("encodes"))
                .expect("request frame");
            let mut reply = Vec::new();
            conn.read_to_end(&mut reply)
                .expect("the server closes the connection");
            let (response, _) = wire
                .decode::<WireResponse>(&reply, MAX_FRAME)
                .expect("a well-formed answer")
                .expect("one whole frame");
            match response.body {
                WireBody::Error(WireFault::Transport(msg)) => assert!(
                    msg.contains("malformed request") && msg.contains("lowest terms"),
                    "{wire}: {msg}"
                ),
                other => panic!("{wire}: expected the malformed-request fault, got {other:?}"),
            }
        }
        let snapshot = fleet.snapshot();
        assert_eq!(
            snapshot.admitted + snapshot.rejected + snapshot.saturated,
            0
        );
        assert_eq!(fleet.journal().len(), 0, "nothing may be journaled");

        // The server keeps serving: a second client is decided normally.
        let client = RemoteClient::connect(server.local_addr()).expect("connects");
        let decision = client
            .admit(&AdmissionRequest::new(0).with_contract(Rational::new(1, 1_000_000)))
            .expect("decides");
        assert!(decision.is_admitted(), "{decision:?}");
        client.close();
        server.shutdown();
        assert_eq!(server.stats().protocol_errors, 2);
    });
}

#[test]
fn a_server_hello_advertising_an_empty_spec_fails_the_connect() {
    // `fleet-bench --connect` builds its request stream from the
    // advertised spec; an empty one used to decode and then divide by
    // its zero application count.
    with_watchdog(|| {
        let addr = fake_server(|mut conn| {
            consume_client_hello(&mut conn);
            let hello = format!(
                "{{\"magic\":\"probcon-remote\",\"version\":{REMOTE_PROTOCOL_VERSION},\
                 \"workload\":{{\"applications\":[],\"mapping\":{{\"ByActorIndex\":\
                 {{\"node_count\":3}}}},\"node_count\":3}},\"domains\":1}}"
            );
            writeln!(conn, "{} {hello}", hello.len()).expect("server hello");
            std::thread::sleep(Duration::from_millis(200));
        });
        match RemoteClient::connect(&addr) {
            Err(ServiceError::Transport(msg)) => assert!(
                msg.contains("malformed server hello") && msg.contains("no applications"),
                "{msg}"
            ),
            Ok(_) => panic!("a hello with an empty spec was accepted"),
            Err(other) => panic!("expected a transport error, got {other:?}"),
        }
    });
}

// ---------------------------------------------------------------------------
// Protocol-version mismatch.
// ---------------------------------------------------------------------------

#[test]
fn client_rejects_future_server_version_naming_both() {
    with_watchdog(|| {
        // There is one protocol version: an older server and a future one
        // fail the connect alike, and the client never redials at the
        // server's version.
        for server_version in [3, REMOTE_PROTOCOL_VERSION + 41] {
            let listener = TcpListener::bind("127.0.0.1:0").expect("fake server binds");
            let addr = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
            let fake = std::thread::spawn(move || {
                let (mut conn, _) = listener.accept().expect("first connection");
                consume_client_hello(&mut conn);
                let hello = format!(
                    "{{\"magic\":\"probcon-remote\",\"version\":{server_version},\
                     \"workload\":null,\"domains\":1}}"
                );
                writeln!(conn, "{} {hello}", hello.len()).expect("server hello");
                listener
            });
            match RemoteClient::connect(&addr) {
                Err(ServiceError::Transport(msg)) => {
                    assert!(
                        msg.contains("version mismatch")
                            && msg.contains(&format!("client {REMOTE_PROTOCOL_VERSION}"))
                            && msg.contains(&format!("server {server_version}")),
                        "mismatch error must name both versions: {msg}"
                    );
                }
                other => panic!("expected transport error, got {other:?}"),
            }
            // The listener is still open, yet no second connection waits.
            let listener = fake.join().expect("fake server");
            listener.set_nonblocking(true).expect("non-blocking accept");
            assert!(
                matches!(listener.accept(), Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
                "the client redialed a v{server_version} server"
            );
        }
    });
}

#[test]
fn server_rejects_stale_client_version_but_keeps_serving() {
    with_watchdog(|| {
        let server = serve(1, 2);
        let Endpoint::Tcp(hostport) = server.local_addr().clone() else {
            panic!("tcp server expected");
        };
        let mut stale = TcpStream::connect(hostport.as_str()).expect("connects");
        stale
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let hello = "{\"magic\":\"probcon-remote\",\"version\":99}";
        writeln!(stale, "{} {hello}", hello.len()).expect("stale hello");
        // The server answers naming its own version, then closes.
        let reply = read_one_frame(&mut stale).expect("server answers");
        assert!(
            reply.contains(&format!("\"version\":{REMOTE_PROTOCOL_VERSION}")),
            "reply must name the server version: {reply}"
        );
        let mut rest = Vec::new();
        assert_eq!(stale.read_to_end(&mut rest).unwrap_or(0), 0, "then EOF");

        // Compatible clients are unaffected.
        let client = RemoteClient::connect(server.local_addr()).expect("connects");
        assert!(client.admit(&AdmissionRequest::new(0)).is_ok());
        client.close();
        // Handlers are joined by shutdown; only then are stats reliable.
        server.shutdown();
        assert_eq!(server.stats().handshake_rejects, 1);
    });
}

// ---------------------------------------------------------------------------
// Server disconnect mid-flight.
// ---------------------------------------------------------------------------

#[test]
fn mid_flight_disconnect_resolves_every_completion() {
    with_watchdog(|| {
        // A fake server that reads a few requests, answers none, and dies
        // with admissions still in flight.
        let addr = fake_server(|mut conn| {
            consume_client_hello(&mut conn);
            let hello = format!(
                "{{\"magic\":\"probcon-remote\",\"version\":{REMOTE_PROTOCOL_VERSION},\
                 \"workload\":null,\"domains\":2}}"
            );
            writeln!(conn, "{} {hello}", hello.len()).expect("server hello");
            for _ in 0..3 {
                let _ = read_one_frame(&mut conn);
            }
            // Dies without answering anything.
        });
        let client = RemoteClient::connect(&addr).expect("handshake succeeds");
        let in_flight: Vec<Completion> = (0..8)
            .map(|i| client.submit(AdmissionRequest::new(i)))
            .collect();
        for completion in in_flight {
            match completion.wait() {
                Err(ServiceError::Transport(_)) => {}
                other => panic!("expected transport error, got {other:?}"),
            }
        }
        // Later submissions fail fast instead of queueing into the void.
        assert!(matches!(
            client.admit(&AdmissionRequest::new(0)).unwrap_err(),
            ServiceError::Transport(_)
        ));
    });
}

#[test]
fn wedged_server_fails_completions_at_the_response_deadline() {
    with_watchdog(|| {
        // A server that handshakes, then stays connected but answers
        // nothing — the worst case for a client without a deadline, since
        // the connection never closes.
        let addr = fake_server(|mut conn| {
            consume_client_hello(&mut conn);
            let hello = format!(
                "{{\"magic\":\"probcon-remote\",\"version\":{REMOTE_PROTOCOL_VERSION},\
                 \"workload\":null,\"domains\":1}}"
            );
            writeln!(conn, "{} {hello}", hello.len()).expect("server hello");
            std::thread::sleep(Duration::from_secs(30)); // wedged
        });
        let client = RemoteClient::connect_config(
            &addr,
            ClientConfig {
                response_timeout: Some(Duration::from_millis(300)),
                ..ClientConfig::default()
            },
        )
        .expect("handshake succeeds");
        let completion = client.submit(AdmissionRequest::new(0));
        match completion.wait() {
            Err(ServiceError::Transport(msg)) => {
                assert!(
                    msg.contains("stopped responding"),
                    "unexpected reason: {msg}"
                );
            }
            other => panic!("expected transport error, got {other:?}"),
        }
        assert!(client.broken().is_some());
    });
}

#[test]
fn real_server_shutdown_mid_burst_resolves_every_completion() {
    with_watchdog(|| {
        let server = serve(4, 8);
        let client = RemoteClient::connect(server.local_addr()).expect("connects");
        let burst: Vec<Completion> = (0..64)
            .map(|i| client.submit(AdmissionRequest::new(i)))
            .collect();
        // Shut down with the burst (partially) in flight: drained frames
        // get decisions, the rest typed transport errors — all resolve.
        server.shutdown();
        let mut decided = 0usize;
        let mut failed = 0usize;
        for completion in burst {
            match completion.wait() {
                Ok(_) => decided += 1,
                Err(ServiceError::Transport(_)) => failed += 1,
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert_eq!(decided + failed, 64);
        client.close();
    });
}

// ---------------------------------------------------------------------------
// One slow decision.
// ---------------------------------------------------------------------------

/// A fleet whose admits of app 0 each block until the test lets them
/// through: every such admit reports on `entered`, then waits on
/// `proceed` and fails after 10 s without a go-ahead.
struct Gated {
    fleet: FleetManager,
    entered: mpsc::Sender<()>,
    proceed: Mutex<mpsc::Receiver<()>>,
}

impl AdmissionService for Gated {
    fn admit(&self, request: &AdmissionRequest) -> Result<AdmissionDecision, ServiceError> {
        if request.app_index == 0 {
            let _ = self.entered.send(());
            let proceed = self.proceed.lock().expect("gate lock");
            if proceed.recv_timeout(Duration::from_secs(10)).is_err() {
                return Err(ServiceError::Config(
                    "the other connection was never answered".to_string(),
                ));
            }
        }
        AdmissionService::admit(&self.fleet, request)
    }

    fn release(&self, resident: u64) -> Result<(), ServiceError> {
        AdmissionService::release(&self.fleet, resident)
    }

    fn snapshot(&self) -> ServiceSnapshot {
        AdmissionService::snapshot(&self.fleet)
    }

    fn workload(&self) -> Option<&SystemSpec> {
        AdmissionService::workload(&self.fleet)
    }
}

/// Serves a [`Gated`] fleet with `config`. Returns the server, the
/// receiver that hears each gated admit arrive, and the sender that lets
/// one through.
fn serve_gated(config: RemoteServerConfig) -> (RemoteServer, mpsc::Receiver<()>, mpsc::Sender<()>) {
    let (entered_tx, entered) = mpsc::channel();
    let (proceed, proceed_rx) = mpsc::channel();
    let service = Gated {
        fleet: fleet(2, 4),
        entered: entered_tx,
        proceed: Mutex::new(proceed_rx),
    };
    let server = RemoteServer::bind_with(
        &"tcp:127.0.0.1:0".parse().expect("addr"),
        Arc::new(service),
        None,
        config,
    )
    .expect("server binds");
    (server, entered, proceed)
}

#[test]
fn a_slow_decision_does_not_stall_another_connection() {
    with_watchdog(|| {
        let (server, entered, proceed) = serve_gated(RemoteServerConfig::default());
        // The first connection lands on loop 0, the second on the least
        // loaded loop, 1.
        let a = RemoteClient::connect(server.local_addr()).expect("a connects");
        let b = RemoteClient::connect(server.local_addr()).expect("b connects");
        let slow = a.submit(AdmissionRequest::new(0));
        entered
            .recv_timeout(Duration::from_secs(10))
            .expect("a's admit reaches the service");
        // B is answered while A's decision still holds its loop; only then
        // is A let through. Served on one loop, B would wait for A's
        // 10 s timeout, and A's admit would fail.
        let fast = b
            .admit(&AdmissionRequest::new(1))
            .expect("b is answered while a is being decided");
        assert!(fast.is_admitted());
        proceed.send(()).expect("a's admit still waits");
        assert!(slow
            .wait()
            .expect("a's admit is decided, not timed out")
            .is_admitted());
        a.close();
        b.close();
        server.shutdown();
    });
}

#[test]
fn a_slow_decision_does_not_hold_up_new_connections() {
    with_watchdog(|| {
        let (server, entered, proceed) = serve_gated(RemoteServerConfig::default());
        let a = RemoteClient::connect(server.local_addr()).expect("a connects");
        let slow = a.submit(AdmissionRequest::new(0));
        entered
            .recv_timeout(Duration::from_secs(10))
            .expect("a's admit reaches the service");
        // While A's decision holds loop 0, a new client is accepted,
        // placed on an idle loop, handshaken and answered. Were accepts
        // queued behind the decision, C's handshake would time out after
        // 5 s, and A's admit would fail after 10.
        let c = RemoteClient::connect(server.local_addr())
            .expect("c connects while a is being decided");
        assert!(c
            .admit(&AdmissionRequest::new(1))
            .expect("c is answered while a is being decided")
            .is_admitted());
        proceed.send(()).expect("a's admit still waits");
        assert!(slow
            .wait()
            .expect("a's admit is decided, not timed out")
            .is_admitted());
        a.close();
        c.close();
        server.shutdown();
    });
}

#[test]
fn bytes_that_arrive_while_a_loop_decides_are_not_a_stall() {
    with_watchdog(|| {
        // A's slow decision holds up C's frame on the loop both share. The
        // decision outlasts the stall budget.
        let (server, entered, proceed) = serve_gated(RemoteServerConfig {
            stall_timeout: Duration::from_secs(1),
            ..RemoteServerConfig::default()
        });
        let a = RemoteClient::connect(server.local_addr()).expect("a connects");
        // A holds loop 0; one idle client on each other loop. Placement
        // picks the loop with the fewest live connections, ties to the
        // lowest index, so C lands back on A's loop.
        let _fillers: Vec<RemoteClient> = (1..EVENT_LOOPS)
            .map(|_| RemoteClient::connect(server.local_addr()).expect("filler connects"))
            .collect();
        let mut c = raw_handshaken(&server, None);
        let frame = encode_frame(
            WireMode::Json,
            &WireRequest {
                id: 7,
                op: WireOp::Snapshot,
            },
        )
        .expect("request encodes");
        let (head, tail) = frame.split_at(frame.len() / 2);
        // C is the one JSON connection; A speaks binary.
        let c_bytes_in = || {
            a.remote_telemetry()
                .expect("telemetry")
                .connections
                .expect("live connections")
                .iter()
                .find(|conn| conn.wire == "json")
                .expect("c is live")
                .bytes_in
        };
        let before = c_bytes_in();
        c.write_all(head).expect("first half");
        // The loop reads the first half before A's admit takes it.
        while c_bytes_in() < before + head.len() as u64 {}
        let slow = a.submit(AdmissionRequest::new(0));
        entered
            .recv_timeout(Duration::from_secs(10))
            .expect("a's admit reaches the service");
        // The rest arrives while the loop decides, after the stall budget
        // has run out since C's last progress, and sits unread until A's
        // decision ends. C was not stalled when the loop last polled, so it
        // must not be cut as truncated.
        std::thread::sleep(Duration::from_millis(1500));
        c.write_all(tail).expect("second half");
        proceed.send(()).expect("a's admit still waits");
        assert!(slow.wait().expect("a's admit is decided").is_admitted());
        let reply = read_one_frame(&mut c).expect("c is answered, not cut");
        assert!(
            reply.contains("\"id\":7") && reply.contains("Snapshot") && !reply.contains("Error"),
            "expected c's snapshot, got: {reply}"
        );
        a.close();
        server.shutdown();
        assert_eq!(server.stats().protocol_errors, 0);
    });
}

// ---------------------------------------------------------------------------
// Client close racing pipelined submissions.
// ---------------------------------------------------------------------------

#[test]
fn close_with_pipelined_submissions_outstanding_resolves_not_hangs() {
    with_watchdog(|| {
        // A server that handshakes, then swallows requests and answers
        // nothing — so every submitted completion is still outstanding
        // when close() runs. close() must cut the socket even while a
        // concurrent submit holds the writer mid-write, and every
        // completion must resolve with a typed transport error.
        let addr = fake_server(|mut conn| {
            consume_client_hello(&mut conn);
            let hello = format!(
                "{{\"magic\":\"probcon-remote\",\"version\":{REMOTE_PROTOCOL_VERSION},\
                 \"workload\":null,\"domains\":1}}"
            );
            writeln!(conn, "{} {hello}", hello.len()).expect("server hello");
            let mut sink = [0u8; 4096];
            while matches!(conn.read(&mut sink), Ok(n) if n > 0) {}
        });
        let client = Arc::new(RemoteClient::connect(&addr).expect("handshake succeeds"));
        let in_flight: Vec<Completion> = (0..32)
            .map(|i| client.submit(AdmissionRequest::new(i % 2)))
            .collect();
        // A second thread keeps pipelining submissions while this one
        // closes — the race under test.
        let racer = {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                (0..256)
                    .map(|i| client.submit(AdmissionRequest::new(i % 2)))
                    .collect::<Vec<Completion>>()
            })
        };
        client.close();
        let raced = racer.join().expect("racing submitter");
        for completion in in_flight.into_iter().chain(raced) {
            match completion.wait() {
                Err(ServiceError::Transport(_)) => {}
                other => panic!("expected transport error, got {other:?}"),
            }
        }
        assert!(client.broken().is_some());
    });
}

/// A compaction on the server between two pages of a fetch folds the next
/// page, which the server then refuses; the fetch starts again from seq 0
/// and still returns a journal that parses, replays, and holds every
/// decision recorded before the fetch began.
#[test]
fn a_journal_fetch_survives_compactions_between_its_pages() {
    with_watchdog(|| {
        // Capacity 1: after one admission every request saturates, and a
        // saturated admission is journaled without an analysis, so the
        // journal outgrows a 4096-entry page cheaply.
        let fleet = fleet(1, 1);
        fleet.admit(&AdmissionRequest::new(0)).expect("decides");
        let server = RemoteServer::bind_with(
            &"tcp:127.0.0.1:0".parse().expect("addr"),
            Arc::new(fleet.clone()),
            Some(fleet.clone()),
            RemoteServerConfig::default(),
        )
        .expect("server binds");
        let stop = Arc::new(AtomicBool::new(false));
        let compactor = {
            let fleet = fleet.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut compactions = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..8192 {
                        fleet.admit(&AdmissionRequest::new(0)).expect("decides");
                    }
                    fleet.journal().compact().expect("compacts");
                    compactions += 1;
                    // Every other round leaves nothing after the base for
                    // a while, so some fetches meet a fold that no entry
                    // follows.
                    if compactions.is_multiple_of(2) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                compactions
            })
        };
        let client = RemoteClient::connect(server.local_addr()).expect("connects");
        let replayer = JournalReplayer::new(fleet.spec());
        for fetch in 0..20 {
            let recorded = fleet.journal().next_seq();
            let journal = client
                .fetch_journal()
                .unwrap_or_else(|e| panic!("fetch {fetch}: {e}"));
            assert!(
                journal.next_seq() >= recorded,
                "fetch {fetch} ends at seq {} before the {recorded} decisions recorded",
                journal.next_seq()
            );
            let config = FleetConfig::from_header(journal.header()).expect("shape");
            let (report, _) = replayer.replay(&journal, config).expect("replays");
            assert!(report.is_equivalent(), "fetch {fetch}: {}", report.render());
        }
        stop.store(true, Ordering::Relaxed);
        assert!(compactor.join().expect("compactor") > 0);
        client.close();
        server.shutdown();
    });
}
