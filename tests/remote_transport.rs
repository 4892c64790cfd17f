//! Failure-mode tests of the `runtime::remote` transport: truncated
//! frames, malformed payloads, protocol-version mismatches, peers that
//! speak the retired JSON-lines frames and mid-flight disconnects. The
//! invariant under test throughout: **client completions resolve with
//! typed errors, they never hang** — every scenario runs under the same
//! watchdog the runtime stress tests use, so a wedged transport fails the
//! suite instead of freezing it. The last test holds the wire to the
//! decisions of the same stack driven in process.

use experiments::workload::workload_with;
use platform::{Application, Mapping, SystemSpec};
use runtime::remote::codec::{decode, encode_frame};
use runtime::remote::{
    ClientHello, ServerHello, WireBody, WireFault, WireOp, WireRequest, WireResponse,
};
use runtime::{
    run_requests, seeded_fleet_requests, AdmissionDecision, AdmissionRequest, AdmissionService,
    Cached, ClientConfig, Completion, DecisionEvent, Endpoint, FleetConfig, FleetManager,
    JournalOutcome, JournalReplayer, Metered, RemoteClient, RemoteServer, RemoteServerConfig,
    RoutingPolicy, ServiceError, TelemetrySnapshot, Traced, EVENT_LOOPS, MAX_CLIENT_ID, MAX_FRAME,
    MAX_REQUEST_FRAME, REMOTE_PROTOCOL_VERSION,
};
use sdf::{figure2_graphs, GeneratorConfig, Rational};
use serde::Deserialize;
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

/// A client hello frame naming `version` and, optionally, a client id.
fn client_hello(version: u64, client: Option<&str>) -> Vec<u8> {
    encode_frame(&ClientHello {
        magic: "probcon-remote".to_string(),
        version,
        client: client.map(str::to_string),
    })
    .expect("hello encodes")
}

/// A server hello frame naming `version` and `domains`, with no workload.
fn server_hello(version: u64, domains: u64) -> Vec<u8> {
    encode_frame(&ServerHello {
        magic: "probcon-remote".to_string(),
        version,
        workload: None,
        domains,
    })
    .expect("hello encodes")
}

/// The retired JSON-lines framing (`LEN JSON\n`) of `json`, as a peer of
/// protocol v4 and earlier wrote every hello.
fn json_line(json: &str) -> Vec<u8> {
    format!("{} {json}\n", json.len()).into_bytes()
}

/// Raw TCP connection to a server, for speaking the protocol incorrectly
/// on purpose.
fn raw_connect(server: &RemoteServer) -> TcpStream {
    let Endpoint::Tcp(hostport) = server.local_addr().clone() else {
        panic!("tcp server expected");
    };
    let conn = TcpStream::connect(hostport.as_str()).expect("connects");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    conn
}

/// [`raw_connect`], then a valid handshake announcing `client` (the
/// failure under test comes after it).
fn raw_handshaken(server: &RemoteServer, client: Option<&str>) -> TcpStream {
    let mut conn = raw_connect(server);
    conn.write_all(&client_hello(REMOTE_PROTOCOL_VERSION, client))
        .expect("hello frame");
    let hello: ServerHello = read_one_frame(&mut conn).expect("server hello arrives");
    assert!(hello.workload.is_some(), "the hello was accepted");
    conn
}

/// Reads one frame and decodes it as a `T` — `None` on EOF, a length past
/// [`MAX_FRAME`] or a frame that is not a `T`.
fn read_one_frame<T: Deserialize>(conn: &mut TcpStream) -> Option<T> {
    let mut frame = vec![0u8; 4];
    conn.read_exact(&mut frame).ok()?;
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    if len > MAX_FRAME {
        return None;
    }
    frame.resize(4 + len, 0);
    conn.read_exact(&mut frame[4..]).ok()?;
    let (msg, _) = decode::<T>(&frame, MAX_FRAME).ok()??;
    Some(msg)
}

/// Reads to EOF and decodes the one frame the server answered before
/// closing.
fn read_last_answer(conn: &mut TcpStream) -> WireResponse {
    let mut reply = Vec::new();
    conn.read_to_end(&mut reply).expect("answered and closed");
    let (response, consumed) = decode::<WireResponse>(&reply, MAX_FRAME)
        .expect("a well-formed response frame")
        .expect("complete reply");
    assert_eq!(consumed, reply.len(), "one frame, then EOF");
    response
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
    let _: ClientHello = read_one_frame(conn).expect("client hello arrives");
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
        let request = encode_frame(&WireRequest {
            id: 1,
            op: WireOp::Telemetry,
        })
        .expect("request encodes");
        evil.write_all(&400u32.to_le_bytes())
            .expect("length prefix");
        evil.write_all(&request[4..]).expect("partial frame");
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
            conn.write_all(&server_hello(REMOTE_PROTOCOL_VERSION, 1))
                .expect("server hello");
            // Read the admit request, answer with a truncated frame, die.
            let _: Option<WireRequest> = read_one_frame(&mut conn);
            conn.write_all(&999u32.to_le_bytes())
                .expect("length prefix");
            conn.write_all(&[0, 2]).expect("truncated");
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
// Malformed payloads.
// ---------------------------------------------------------------------------

#[test]
fn server_answers_malformed_json_with_typed_error() {
    with_watchdog(|| {
        let server = serve(1, 2);
        let mut evil = raw_handshaken(&server, None);
        // Correct framing (16 payload bytes declared and sent), a payload
        // of text where a binary payload belongs — this must reach the
        // payload decoder, not the framing checks.
        evil.write_all(&16u32.to_le_bytes()).expect("length prefix");
        evil.write_all(b"this is not json").expect("bad payload");
        evil.flush().expect("flush");
        let reply: WireResponse = read_one_frame(&mut evil).expect("server answers before closing");
        assert_eq!(reply.id, 0, "uncorrelated: no request was read");
        assert!(
            matches!(
                &reply.body,
                WireBody::Error(WireFault::Transport(msg)) if msg.starts_with("malformed frame")
            ),
            "expected a typed malformed-frame error, got {:?}",
            reply.body
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
        let mut evil = raw_connect(&server);
        // 30,000 nested arrays in one 60 KB pre-handshake frame: under
        // MAX_REQUEST_FRAME, and deep enough to overflow a loop thread's
        // stack in a parser without a nesting cap.
        let mut body = vec![0u8];
        for _ in 0..30_000 {
            body.extend_from_slice(&[6, 1]); // an array of one element ...
        }
        body.push(0); // ... around a null
        evil.write_all(&(body.len() as u32).to_le_bytes())
            .expect("length prefix");
        evil.write_all(&body).expect("deep hello");
        evil.flush().expect("flush");
        // The server answers with a typed error, or closes this one
        // connection.
        let mut reply = Vec::new();
        let _ = evil.read_to_end(&mut reply);
        if !reply.is_empty() {
            let (response, _) = decode::<WireResponse>(&reply, MAX_FRAME)
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
        // Announce one byte over the cap and send no payload — and, as a
        // peer of the retired JSON-lines framing would, a decimal prefix,
        // whose digits read as hundreds of megabytes. The server must
        // answer from the four prefix bytes alone, then close.
        for prefix in [
            (over as u32).to_le_bytes().to_vec(),
            format!("{over} ").into_bytes(),
        ] {
            let mut evil = raw_handshaken(&server, None);
            evil.write_all(&prefix).expect("length prefix");
            evil.flush().expect("flush");
            let response = read_last_answer(&mut evil);
            assert_eq!(response.id, 0, "uncorrelated: no request was read");
            assert!(
                matches!(
                    &response.body,
                    WireBody::Error(WireFault::Transport(msg)) if msg.contains("exceeds maximum")
                ),
                "{prefix:?}: expected a typed malformed-frame error, got {:?}",
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
            conn.write_all(&server_hello(REMOTE_PROTOCOL_VERSION, 1))
                .expect("server hello");
            let _: Option<WireRequest> = read_one_frame(&mut conn);
            conn.write_all(&9u32.to_le_bytes()).expect("length prefix");
            conn.write_all(b"not-json!").expect("garbage");
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
fn a_non_canonical_contract_is_a_malformed_request() {
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

        let mut conn = raw_handshaken(&server, None);
        conn.write_all(&encode_frame(&request).expect("encodes"))
            .expect("request frame");
        match read_last_answer(&mut conn).body {
            WireBody::Error(WireFault::Transport(msg)) => assert!(
                msg.contains("malformed request") && msg.contains("lowest terms"),
                "{msg}"
            ),
            other => panic!("expected the malformed-request fault, got {other:?}"),
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
        assert_eq!(server.stats().protocol_errors, 1);
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
            // No `SystemSpec` holds zero applications, so the hello is
            // built as a value tree.
            let hello: serde::Value = serde_json::from_str(&format!(
                "{{\"magic\":\"probcon-remote\",\"version\":{REMOTE_PROTOCOL_VERSION},\
                 \"workload\":{{\"applications\":[],\"mapping\":{{\"ByActorIndex\":\
                 {{\"node_count\":3}}}},\"node_count\":3}},\"domains\":1}}"
            ))
            .expect("hello tree");
            conn.write_all(&encode_frame(&hello).expect("hello encodes"))
                .expect("server hello");
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
        for server_version in [REMOTE_PROTOCOL_VERSION - 1, REMOTE_PROTOCOL_VERSION + 41] {
            let listener = TcpListener::bind("127.0.0.1:0").expect("fake server binds");
            let addr = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
            let fake = std::thread::spawn(move || {
                let (mut conn, _) = listener.accept().expect("first connection");
                consume_client_hello(&mut conn);
                conn.write_all(&server_hello(server_version, 1))
                    .expect("server hello");
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
        // Version 5 is the protocol that still carried a `Snapshot` op.
        for version in [5, 99] {
            let mut stale = raw_connect(&server);
            stale
                .write_all(&client_hello(version, None))
                .expect("stale hello");
            // The server answers naming its own version, then closes.
            let reply: ServerHello = read_one_frame(&mut stale).expect("server answers");
            assert_eq!(reply.version, REMOTE_PROTOCOL_VERSION, "{reply:?}");
            assert!(reply.workload.is_none(), "no spec for refused clients");
            let mut rest = Vec::new();
            assert_eq!(stale.read_to_end(&mut rest).unwrap_or(0), 0, "then EOF");
        }

        // Compatible clients are unaffected.
        let client = RemoteClient::connect(server.local_addr()).expect("connects");
        assert!(client.admit(&AdmissionRequest::new(0)).is_ok());
        client.close();
        // Handlers are joined by shutdown; only then are stats reliable.
        server.shutdown();
        assert_eq!(server.stats().handshake_rejects, 2);
    });
}

#[test]
fn a_v4_json_hello_is_refused_and_the_server_keeps_serving() {
    with_watchdog(|| {
        let server = serve(1, 2);
        // A peer of protocol v4 opens with a JSON-lines hello: ASCII digits
        // where the length prefix belongs, which read as a length past
        // MAX_REQUEST_FRAME. The server refuses the frame from those four
        // bytes with a typed error, then closes.
        let mut old = raw_connect(&server);
        old.write_all(&json_line(
            "{\"magic\":\"probcon-remote\",\"version\":4,\"wire\":\"binary\"}",
        ))
        .expect("v4 hello");
        let response = read_last_answer(&mut old);
        assert!(
            matches!(
                &response.body,
                WireBody::Error(WireFault::Transport(msg)) if msg.contains("exceeds maximum")
            ),
            "expected a typed malformed-frame error, got {:?}",
            response.body
        );

        // Current clients are unaffected.
        let client = RemoteClient::connect(server.local_addr()).expect("connects");
        assert!(client
            .admit(&AdmissionRequest::new(0))
            .expect("decides")
            .is_admitted());
        client.close();
        server.shutdown();
        // A connection cut before its handshake counts as a reject.
        assert_eq!(server.stats().handshake_rejects, 1);
        assert_eq!(server.stats().protocol_errors, 0);
    });
}

#[test]
fn a_client_fails_typed_against_a_json_lines_server() {
    with_watchdog(|| {
        // A server of protocol v4 answers in JSON lines: an error frame
        // when it cannot read the binary hello, or its own hello. Either
        // way the client reads its digits as a length past MAX_FRAME and
        // fails the connect at once.
        let answers = [
            "{\"id\":0,\"body\":{\"Error\":{\"Transport\":\"malformed frame: bad length prefix\"}}}",
            "{\"magic\":\"probcon-remote\",\"version\":4,\"workload\":null,\"domains\":1,\"wire\":\"binary\"}",
        ];
        for answer in answers {
            let addr = fake_server(move |mut conn| {
                consume_client_hello(&mut conn);
                conn.write_all(&json_line(answer)).expect("json answer");
                // Stay connected: the client must fail on the bytes, not
                // on EOF.
                std::thread::sleep(Duration::from_secs(2));
            });
            match RemoteClient::connect(&addr) {
                Err(ServiceError::Transport(msg)) => {
                    assert!(msg.contains("exceeds maximum"), "{answer}: {msg}");
                }
                Ok(_) => panic!("a JSON-lines peer was accepted"),
                Err(other) => panic!("expected a transport error, got {other:?}"),
            }
        }
    });
}

#[test]
fn an_over_long_client_id_is_refused_by_the_client_and_by_the_server() {
    with_watchdog(|| {
        let longest = "c".repeat(MAX_CLIENT_ID);
        let too_long = format!("{longest}c");
        let config = |client: &str| ClientConfig {
            client: Some(client.to_string()),
            ..ClientConfig::default()
        };

        // The client refuses before it dials: nothing reaches the listener.
        let listener = TcpListener::bind("127.0.0.1:0").expect("listener binds");
        let addr = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
        match RemoteClient::connect_config(&addr, config(&too_long)) {
            Err(ServiceError::Config(msg)) => {
                assert!(msg.contains(&(MAX_CLIENT_ID + 1).to_string()), "{msg}");
            }
            Ok(_) => panic!("an over-long client id was sent"),
            Err(other) => panic!("expected a config error, got {other:?}"),
        }
        listener.set_nonblocking(true).expect("non-blocking accept");
        assert!(
            matches!(listener.accept(), Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
            "the client dialed"
        );

        // A server refuses such a hello from any peer: a refusal hello,
        // then EOF, and no tenant row.
        let server = RemoteServer::bind_with(
            &"tcp:127.0.0.1:0".parse().expect("addr"),
            Arc::new(Traced::new(fleet(1, 2), 64)),
            None,
            RemoteServerConfig::default(),
        )
        .expect("server binds");
        let mut raw = raw_connect(&server);
        raw.write_all(&client_hello(REMOTE_PROTOCOL_VERSION, Some(&too_long)))
            .expect("hello");
        let reply: ServerHello = read_one_frame(&mut raw).expect("server answers");
        assert_eq!(reply.version, REMOTE_PROTOCOL_VERSION);
        assert!(reply.workload.is_none(), "no spec for refused clients");
        let mut rest = Vec::new();
        assert_eq!(raw.read_to_end(&mut rest).unwrap_or(0), 0, "then EOF");

        // The longest id is served and names the stack's one tenant row.
        let client =
            RemoteClient::connect_config(server.local_addr(), config(&longest)).expect("connects");
        assert!(client
            .admit(&AdmissionRequest::new(0))
            .expect("decides")
            .is_admitted());
        let tenants = client
            .remote_telemetry()
            .expect("telemetry")
            .tenants
            .expect("a tenant table");
        let rows: Vec<&str> = tenants.iter().map(|row| row.client.as_str()).collect();
        assert_eq!(rows, [longest.as_str()]);
        client.close();
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
            conn.write_all(&server_hello(REMOTE_PROTOCOL_VERSION, 2))
                .expect("server hello");
            for _ in 0..3 {
                let _: Option<WireRequest> = read_one_frame(&mut conn);
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
            conn.write_all(&server_hello(REMOTE_PROTOCOL_VERSION, 1))
                .expect("server hello");
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

    fn telemetry(&self) -> TelemetrySnapshot {
        AdmissionService::telemetry(&self.fleet)
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
        let mut c = raw_handshaken(&server, Some("c"));
        let frame = encode_frame(&WireRequest {
            id: 7,
            op: WireOp::Telemetry,
        })
        .expect("request encodes");
        let (head, tail) = frame.split_at(frame.len() / 2);
        // C is the one connection that announced a client id.
        let c_bytes_in = || {
            a.remote_telemetry()
                .expect("telemetry")
                .connections
                .expect("live connections")
                .iter()
                .find(|conn| conn.client.as_deref() == Some("c"))
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
        let reply: WireResponse = read_one_frame(&mut c).expect("c is answered, not cut");
        assert!(
            reply.id == 7 && matches!(reply.body, WireBody::Telemetry(_)),
            "expected c's telemetry, got: {reply:?}"
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
            conn.write_all(&server_hello(REMOTE_PROTOCOL_VERSION, 1))
                .expect("server hello");
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

// ---------------------------------------------------------------------------
// The wire never changes a decision.
// ---------------------------------------------------------------------------

/// One seeded request stream, single-threaded, through a client of a
/// served `Metered<Cached<FleetManager>>` and through an identical stack in
/// this process. Neither run is handed its fleet, so rebalances are
/// snapshot probes on both sides, and the two journals must hold the same
/// decisions at the same sequence numbers: a codec that mis-decoded a
/// request field would still replay its own recording, but not match this.
#[test]
fn a_served_stack_journals_the_decisions_of_the_same_stack_in_process() {
    with_watchdog(|| {
        const GROUPS: usize = 3;
        let spec = workload_with(2007, 4, &GeneratorConfig::with_actors(4)).expect("workload");
        let config = FleetConfig::uniform(GROUPS, 1, 3, RoutingPolicy::LeastUtilised);
        let served = FleetManager::new(spec.clone(), config.clone()).expect("valid fleet");
        let local = FleetManager::new(spec.clone(), config).expect("valid fleet");
        let stack = |fleet: &FleetManager| Metered::new(Cached::new(fleet.clone(), 256));
        let stream = seeded_fleet_requests(&spec, GROUPS, 2000, 2007);

        let server = RemoteServer::bind_with(
            &"tcp:127.0.0.1:0".parse().expect("addr"),
            Arc::new(stack(&served)),
            None,
            RemoteServerConfig::default(),
        )
        .expect("server binds");
        let client = RemoteClient::connect(server.local_addr()).expect("connects");
        run_requests(&client, None, stream.clone(), 1, None, None);
        client.close();
        server.shutdown();
        run_requests(&stack(&local), None, stream, 1, None, None);

        let decisions = |fleet: &FleetManager| -> Vec<(u64, DecisionEvent)> {
            let entries = fleet.journal().try_entries().expect("journal reads");
            entries.into_iter().map(|e| (e.seq, e.event)).collect()
        };
        let (remote, in_process) = (decisions(&served), decisions(&local));
        // The stream reaches every field the wire carries: contracts,
        // affinities, and outcomes of every kind.
        let admits = || {
            in_process.iter().filter_map(|(_, event)| match event {
                DecisionEvent::Admit {
                    required_throughput,
                    affinity,
                    outcome,
                    ..
                } => Some((required_throughput, affinity, outcome)),
                _ => None,
            })
        };
        assert!(admits().any(|(contract, _, _)| contract.is_some()));
        assert!(admits().any(|(_, affinity, _)| affinity.is_some()));
        assert!(admits().any(|(_, _, o)| matches!(o, JournalOutcome::Admitted { .. })));
        assert!(admits().any(|(_, _, o)| !matches!(o, JournalOutcome::Admitted { .. })));
        for (wire, local) in remote.iter().zip(&in_process) {
            assert_eq!(wire, local, "the served stack decided differently");
        }
        assert_eq!(remote.len(), in_process.len(), "journal lengths");
    });
}
