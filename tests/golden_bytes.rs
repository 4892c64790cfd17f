//! Byte-identity oracle: the wire frames, a journal text, a checkpoint
//! with an added group and a pretty-printed CLI document, recorded into
//! `tests/fixtures/` by earlier builds, must be reproduced byte for byte,
//! decode back to equal messages, and (for the journal and the
//! checkpoint) verify every checksum. A change that moves one byte of
//! any wire frame, journal line or checksum fails here.

use contention::{Estimate, Method, Violation};
use platform::{AppId, Application, Mapping, SystemSpec, UseCase};
use runtime::remote::codec::{decode, encode_frame, MAX_FRAME};
use runtime::remote::{
    ClientHello, ServerHello, WireBody, WireFault, WireOp, WireRequest, WireResponse,
};
use runtime::{
    AdmissionDecision, AdmissionRequest, AutoscalerStatus, CheckpointGroup, CheckpointResident,
    ConnectionStats, DecisionEvent, EventLoopStats, FleetCheckpoint, GroupConfig, Journal,
    JournalHeader, JournalOutcome, JournalPage, LatencyHistogram, LayerMetrics, OpRate,
    ScaleAction, ScaleDecision, ScaleOutcome, ScaleRefusal, ServiceSnapshot, SpanContext,
    TelemetrySnapshot, TenantBreakdown, TraceEvent, TraceKind, TraceStats,
    JOURNAL_CHECKPOINT_VERSION,
};
use sdf::{figure2_graphs, generate_graph, GeneratorConfig, Rational, SdfGraph};
use std::sync::Arc;

const WIRE_BINARY: &[u8] = include_bytes!("fixtures/wire_frames.bin");
const JOURNAL: &str = include_str!("fixtures/journal.jsonl");
const PRETTY: &str = include_str!("fixtures/generate_seed7.json");
const ADDED_GROUP_CHECKPOINT: &str = include_str!("fixtures/checkpoint_added_group.json");

fn estimate_body(e: Estimate) -> Arc<Estimate> {
    Arc::new(e)
}
// ---------------------------------------------------------------------------
// The fixed message set. Every payload is hand-built or computed from the
// figure-2 spec, so the bytes do not depend on timing or randomness.
// ---------------------------------------------------------------------------

fn spec() -> SystemSpec {
    let (a, b) = figure2_graphs();
    SystemSpec::builder()
        .application(Application::new("A", a).expect("valid"))
        .application(Application::new("B", b).expect("valid"))
        .mapping(Mapping::by_actor_index(3))
        .build()
        .expect("valid spec")
}

/// One message of the golden set, by wire type.
#[derive(Debug, Clone, PartialEq)]
enum Golden {
    ClientHello(ClientHello),
    ServerHello(ServerHello),
    Request(WireRequest),
    Response(WireResponse),
}

fn histogram(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

fn op_rate(op: &str, base: u64) -> OpRate {
    OpRate {
        op: op.to_string(),
        count: base * 10,
        ops_per_sec: base * 3,
        mean_us: base + 1,
        p50_us: base,
        p90_us: base + 5,
        p99_us: base + 20,
        p999_us: base + 90,
        max_us: base + 400,
    }
}

fn snapshot() -> ServiceSnapshot {
    ServiceSnapshot {
        residents: 3,
        capacity: 6,
        admitted: 17,
        rejected: 2,
        saturated: 1,
        released: 14,
        layers: vec![
            LayerMetrics::new("fleet")
                .counter("groups", 2)
                .counter("rebalanced", 0),
            LayerMetrics::new("cached")
                .counter("hits", 40)
                .counter("misses", 3)
                .op_rate(op_rate("estimate", 2)),
            LayerMetrics::new("metered")
                .op_rate(op_rate("admit", 130))
                .op_rate(op_rate("release", 35)),
        ],
    }
}

fn telemetry_full() -> TelemetrySnapshot {
    let mut t = TelemetrySnapshot::from_service(snapshot());
    t.push_histogram("metered", "admit", histogram(&[120, 131, 131, 140, 900]));
    t.push_histogram("metered", "release", histogram(&[30, 35]));
    t.push_histogram("traced", "estimate", LatencyHistogram::new());
    t.trace = TraceStats {
        recorded: 5000,
        dropped: 904,
        capacity: 4096,
        anchor_micros: Some(1_700_000_000_000_000),
    };
    t.autoscaler = Some(AutoscalerStatus {
        policy: "target-band".to_string(),
        ticks: 17,
        utilisation: 0.625,
        high_streak: 2,
        low_streak: 0,
        cooldown_left: 3,
        last_decision: Some(ScaleDecision {
            tick: 15,
            action: "grow group 0 to 5/shard".to_string(),
            outcome: "applied".to_string(),
        }),
        applied: 1,
        refused: 0,
    });
    t.tenants = Some(vec![TenantBreakdown {
        client: "bench-7".to_string(),
        admitted: 9,
        rejected: 1,
        saturated: 0,
        released: 8,
        latency: histogram(&[100, 200, 300]),
    }]);
    t.connections = Some(vec![
        ConnectionStats {
            token: 1,
            client: Some("bench-7".to_string()),
            frames_in: 20,
            frames_out: 20,
            bytes_in: 1200,
            bytes_out: 3400,
            write_buffered: 0,
            in_flight: 1,
            backpressure_pauses: 0,
        },
        ConnectionStats {
            token: 2,
            client: None,
            frames_in: 1,
            frames_out: 1,
            bytes_in: 90,
            bytes_out: 900,
            write_buffered: 12,
            in_flight: 0,
            backpressure_pauses: 3,
        },
    ]);
    t.event_loop = Some(EventLoopStats {
        poll_ticks: 77,
        tick: histogram(&[10, 11, 12, 50]),
        ready: histogram(&[1, 1, 2]),
    });
    t
}

fn trace_events() -> Vec<TraceEvent> {
    let mut admit = TraceEvent::new(TraceKind::Admit);
    admit.seq = 1;
    admit.at_micros = 250;
    admit.app_index = 1;
    admit.domain = 0;
    admit.resident = Some(3);
    admit.duration_micros = 131;
    admit.client = Some("bench-7".to_string());
    admit.trace_id = Some(0x1234_5678_9abc_def0);
    admit.span_id = Some(99);
    admit.parent_span_id = Some(42);
    admit.track = Some("conn1".to_string());
    let mut estimate = TraceEvent::new(TraceKind::Estimate);
    estimate.seq = 2;
    estimate.at_micros = 400;
    estimate.duration_micros = 2;
    estimate.cache_hit = Some(true);
    estimate.trace_id = Some(7);
    estimate.span_id = Some(8);
    let mut release = TraceEvent::new(TraceKind::Release);
    release.seq = 3;
    release.at_micros = 900;
    release.resident = Some(3);
    release.duration_micros = 35;
    vec![
        admit,
        estimate,
        release,
        TraceEvent::new(TraceKind::FleetAdmit),
    ]
}

fn rational_violations() -> Vec<Violation> {
    vec![
        Violation {
            app: Some(AppId(1)),
            required: Rational::new(1, 300),
            predicted: Rational::new(1, 412),
        },
        Violation {
            app: None,
            required: Rational::new(2, 7),
            predicted: Rational::new(-3, 11),
        },
    ]
}

fn journal_page_text() -> String {
    "{\"version\":1,\"policy\":\"least-utilised\"}\n\
     {\"quote\":\"a \\\"b\\\"\",\"tab\":\"\\t\",\"ctl\":\"\\u0001\",\"uni\":\"é→✓\"}\n"
        .to_string()
}

fn golden_messages() -> Vec<(&'static str, Golden)> {
    let spec = spec();
    let composability =
        contention::estimate(&spec, UseCase::from_mask(0b11), Method::Composability)
            .expect("estimates");
    let exact =
        contention::estimate(&spec, UseCase::from_mask(0b01), Method::Exact).expect("estimates");
    let request = |id: u64, op: WireOp| Golden::Request(WireRequest { id, op });
    let response = |id: u64, body: WireBody| Golden::Response(WireResponse { id, body });
    vec![
        (
            "client-hello",
            Golden::ClientHello(ClientHello {
                magic: "probcon-remote".to_string(),
                version: 6,
                client: Some("bench-7".to_string()),
            }),
        ),
        (
            "client-hello-bare",
            Golden::ClientHello(ClientHello {
                magic: "probcon-remote".to_string(),
                version: 6,
                client: None,
            }),
        ),
        (
            "server-hello",
            Golden::ServerHello(ServerHello {
                magic: "probcon-remote".to_string(),
                version: 6,
                workload: Some(spec.clone()),
                domains: 3,
            }),
        ),
        (
            "server-hello-refusal",
            Golden::ServerHello(ServerHello {
                magic: "probcon-remote".to_string(),
                version: 6,
                workload: None,
                domains: 1,
            }),
        ),
        (
            "admit-bare",
            request(1, WireOp::Admit(AdmissionRequest::new(0))),
        ),
        (
            "admit-contract-affinity-target",
            request(
                2,
                WireOp::Admit(
                    AdmissionRequest::new(1)
                        .with_contract(Rational::new(3, 7))
                        .with_affinity("edge-7")
                        .on(2),
                ),
            ),
        ),
        (
            "admit-root-span",
            request(
                3,
                WireOp::Admit(AdmissionRequest::new(1).with_span(SpanContext {
                    trace_id: 0x1234_5678_9abc_def0,
                    span_id: 42,
                    parent_span_id: None,
                })),
            ),
        ),
        (
            "admit-child-span",
            request(
                4,
                WireOp::Admit(
                    AdmissionRequest::new(0)
                        .with_contract(Rational::new(-5, 3))
                        .with_span(SpanContext {
                            trace_id: u64::MAX,
                            span_id: 7,
                            parent_span_id: Some(42),
                        }),
                ),
            ),
        ),
        ("release", request(5, WireOp::Release(u64::MAX))),
        (
            "estimate-composability",
            request(
                7,
                WireOp::Estimate {
                    mask: 0b11,
                    method: Method::Composability,
                },
            ),
        ),
        (
            "estimate-order-2",
            request(
                8,
                WireOp::Estimate {
                    mask: 0b01,
                    method: Method::Order(2),
                },
            ),
        ),
        (
            "journal-page",
            request(9, WireOp::JournalPage { from_seq: 4096 }),
        ),
        ("telemetry", request(10, WireOp::Telemetry)),
        ("trace", request(11, WireOp::Trace { tail: 1_000_000 })),
        (
            "decision-admitted",
            response(
                1,
                WireBody::Decision(AdmissionDecision::Admitted {
                    resident: 3,
                    domain: 1,
                    predicted_period: Rational::new(250, 3),
                }),
            ),
        ),
        (
            "decision-rejected",
            response(
                2,
                WireBody::Decision(AdmissionDecision::Rejected {
                    domain: 0,
                    violations: rational_violations(),
                }),
            ),
        ),
        (
            "decision-saturated",
            response(
                3,
                WireBody::Decision(AdmissionDecision::Saturated { domain: 2 }),
            ),
        ),
        ("released", response(5, WireBody::Released)),
        (
            "estimate-body-composability",
            response(7, WireBody::Estimate(estimate_body(composability))),
        ),
        (
            "estimate-body-exact",
            response(8, WireBody::Estimate(estimate_body(exact))),
        ),
        (
            "journal-page-body",
            response(
                9,
                WireBody::JournalPage(JournalPage {
                    text: journal_page_text(),
                    next_seq: Some(17),
                }),
            ),
        ),
        (
            "journal-page-last",
            response(
                9,
                WireBody::JournalPage(JournalPage {
                    text: String::new(),
                    next_seq: None,
                }),
            ),
        ),
        (
            "telemetry-full",
            response(10, WireBody::Telemetry(Box::new(telemetry_full()))),
        ),
        (
            "telemetry-bare",
            response(
                10,
                WireBody::Telemetry(Box::new(TelemetrySnapshot::from_service(
                    ServiceSnapshot::default(),
                ))),
            ),
        ),
        ("trace-body", response(11, WireBody::Trace(trace_events()))),
        ("trace-empty", response(11, WireBody::Trace(Vec::new()))),
        (
            "error-no-workload",
            response(12, WireBody::Error(WireFault::NoWorkload)),
        ),
        (
            "error-unknown-resident",
            response(13, WireBody::Error(WireFault::UnknownResident(42))),
        ),
        (
            "error-unknown-domain",
            response(14, WireBody::Error(WireFault::UnknownDomain(7))),
        ),
        (
            "error-stopped",
            response(15, WireBody::Error(WireFault::Stopped)),
        ),
        (
            "error-config",
            response(
                17,
                WireBody::Error(WireFault::Config("no journal".to_string())),
            ),
        ),
        (
            "error-analysis",
            response(
                18,
                WireBody::Error(WireFault::Analysis("period diverged".to_string())),
            ),
        ),
        (
            "error-transport-uncorrelated",
            response(
                0,
                WireBody::Error(WireFault::Transport(
                    "malformed frame: \"ünïcode\" \\ and\nnewline".to_string(),
                )),
            ),
        ),
    ]
}

// ---------------------------------------------------------------------------
// The journal text: a header, a checkpoint, one entry per decision-event
// variant (every scale action and outcome too), with and without client
// and origin_seq.
// ---------------------------------------------------------------------------

fn journal_header() -> JournalHeader {
    JournalHeader {
        version: JOURNAL_CHECKPOINT_VERSION,
        seed: 2007,
        apps: 2,
        actors: 4,
        groups: 2,
        shards_per_group: 1,
        capacity_per_shard: 3,
        policy: "least-utilised".to_string(),
        group_shapes: vec![
            GroupConfig {
                name: "group-0".to_string(),
                shards: 1,
                capacity_per_shard: 3,
                tags: vec!["edge-7".to_string()],
            },
            GroupConfig {
                name: "group-1".to_string(),
                shards: 1,
                capacity_per_shard: 3,
                tags: Vec::new(),
            },
        ],
    }
}

fn journal_checkpoint() -> FleetCheckpoint {
    FleetCheckpoint::new(
        3,
        2,
        vec![
            CheckpointResident {
                resident: 1,
                group: 1,
                app_index: 1,
                required_throughput: None,
                admitted_seq: 1,
            },
            CheckpointResident {
                resident: 0,
                group: 0,
                app_index: 0,
                required_throughput: Some(Rational::new(1, 500)),
                admitted_seq: 0,
            },
        ],
    )
    .with_groups(vec![CheckpointGroup {
        group: 0,
        added: None,
        capacity_per_shard: Some(4),
        retired: false,
    }])
}

/// A checkpoint whose group overrides include an added group (the journal
/// fixture's checkpoint has none) and a retired one.
fn added_group_checkpoint() -> FleetCheckpoint {
    FleetCheckpoint::new(
        11,
        4,
        vec![
            CheckpointResident {
                resident: 3,
                group: 2,
                app_index: 0,
                required_throughput: Some(Rational::new(1, 400)),
                admitted_seq: 10,
            },
            CheckpointResident {
                resident: 2,
                group: 0,
                app_index: 1,
                required_throughput: None,
                admitted_seq: 3,
            },
        ],
    )
    .with_groups(vec![
        CheckpointGroup {
            group: 2,
            added: Some(GroupConfig {
                name: "group-2".to_string(),
                shards: 2,
                capacity_per_shard: 1,
                tags: vec!["burst".to_string(), "edge-7".to_string()],
            }),
            capacity_per_shard: Some(3),
            retired: false,
        },
        CheckpointGroup {
            group: 1,
            added: None,
            capacity_per_shard: Some(5),
            retired: true,
        },
    ])
}

/// `(event, client, origin_seq)` for each tail entry, from seq 3 on.
fn journal_events() -> Vec<(DecisionEvent, Option<String>, Option<u64>)> {
    let shape = GroupConfig {
        name: "group-2".to_string(),
        shards: 2,
        capacity_per_shard: 1,
        tags: vec!["burst".to_string()],
    };
    vec![
        (
            DecisionEvent::Admit {
                group: 0,
                app_index: 1,
                required_throughput: Some(Rational::new(1, 300)),
                outcome: JournalOutcome::Admitted {
                    resident: 2,
                    predicted_period: Rational::new(412, 3),
                },
                affinity: Some("edge-7".to_string()),
            },
            Some("bench-7".to_string()),
            None,
        ),
        (
            DecisionEvent::Admit {
                group: 1,
                app_index: 0,
                required_throughput: Some(Rational::new(1, 2)),
                outcome: JournalOutcome::Rejected { violations: 2 },
                affinity: None,
            },
            None,
            Some(12),
        ),
        (
            DecisionEvent::Admit {
                group: 1,
                app_index: 1,
                required_throughput: None,
                outcome: JournalOutcome::Saturated,
                affinity: None,
            },
            Some("a:origin=7".to_string()),
            Some(13),
        ),
        (DecisionEvent::Release { resident: 0 }, None, None),
        (
            DecisionEvent::Rebalance {
                resident: 1,
                from_group: 1,
                to_group: 0,
                predicted_period: Rational::new(250, 3),
            },
            None,
            None,
        ),
        (
            DecisionEvent::Resize {
                action: ScaleAction::Grow {
                    group: 1,
                    capacity_per_shard: 5,
                },
                outcome: ScaleOutcome::Applied,
            },
            None,
            None,
        ),
        (
            DecisionEvent::Resize {
                action: ScaleAction::Shrink {
                    group: 0,
                    capacity_per_shard: 1,
                },
                outcome: ScaleOutcome::Refused {
                    reason: ScaleRefusal::Occupied {
                        group: 0,
                        shard: 0,
                        residents: 2,
                        capacity: 1,
                    },
                },
            },
            Some("ops".to_string()),
            None,
        ),
        (
            DecisionEvent::Resize {
                action: ScaleAction::AddGroup { group: 2, shape },
                outcome: ScaleOutcome::Applied,
            },
            None,
            None,
        ),
        (
            DecisionEvent::Resize {
                action: ScaleAction::Drain { group: 1 },
                outcome: ScaleOutcome::Refused {
                    reason: ScaleRefusal::Unplaceable { resident: 1 },
                },
            },
            None,
            None,
        ),
        (
            DecisionEvent::Resize {
                action: ScaleAction::Drain { group: 0 },
                outcome: ScaleOutcome::Refused {
                    reason: ScaleRefusal::LastGroup,
                },
            },
            None,
            None,
        ),
        (
            DecisionEvent::Resize {
                action: ScaleAction::Grow {
                    group: 9,
                    capacity_per_shard: 2,
                },
                outcome: ScaleOutcome::Refused {
                    reason: ScaleRefusal::UnknownGroup { group: 9 },
                },
            },
            None,
            None,
        ),
        (
            DecisionEvent::Resize {
                action: ScaleAction::Shrink {
                    group: 1,
                    capacity_per_shard: 1,
                },
                outcome: ScaleOutcome::Refused {
                    reason: ScaleRefusal::Retired { group: 1 },
                },
            },
            None,
            None,
        ),
    ]
}

/// The document `probcon generate --seed 7 --out` writes.
fn pretty_document() -> String {
    serde_json::to_string_pretty(&generate_graph(&GeneratorConfig::default(), 7))
        .expect("serializes")
}

// ---------------------------------------------------------------------------
// The checks.
// ---------------------------------------------------------------------------

fn encode(msg: &Golden) -> Vec<u8> {
    match msg {
        Golden::ClientHello(m) => encode_frame(m),
        Golden::ServerHello(m) => encode_frame(m),
        Golden::Request(m) => encode_frame(m),
        Golden::Response(m) => encode_frame(m),
    }
    .expect("encodes")
}

/// Decodes the frame at the front of `bytes` as `like`'s message type,
/// returning it and the frame's length.
fn decode_like(like: &Golden, bytes: &[u8]) -> (Golden, usize) {
    fn one<T: serde::Deserialize>(bytes: &[u8]) -> (T, usize) {
        decode(bytes, MAX_FRAME)
            .expect("decodes")
            .expect("complete")
    }
    match like {
        Golden::ClientHello(_) => {
            let (m, n) = one(bytes);
            (Golden::ClientHello(m), n)
        }
        Golden::ServerHello(_) => {
            let (m, n) = one(bytes);
            (Golden::ServerHello(m), n)
        }
        Golden::Request(_) => {
            let (m, n) = one(bytes);
            (Golden::Request(m), n)
        }
        Golden::Response(_) => {
            let (m, n) = one(bytes);
            (Golden::Response(m), n)
        }
    }
}

#[test]
fn wire_frames_reproduce_the_fixture_byte_for_byte() {
    let mut rest = WIRE_BINARY;
    for (name, msg) in &golden_messages() {
        let bytes = encode(msg);
        assert!(
            rest.starts_with(&bytes),
            "frame `{name}` differs from the fixture:\n  now:   {:?}\n  fixed: {:?}",
            String::from_utf8_lossy(&bytes),
            String::from_utf8_lossy(&rest[..bytes.len().min(rest.len())]),
        );
        let (back, consumed) = decode_like(msg, rest);
        assert_eq!(consumed, bytes.len(), "`{name}`: frame length");
        assert_eq!(&back, msg, "`{name}`: decodes to an equal message");
        rest = &rest[consumed..];
    }
    assert!(rest.is_empty(), "{} fixture bytes left over", rest.len());
}

#[test]
fn journal_fixture_verifies_and_renders_byte_for_byte() {
    let journal = Journal::parse(JOURNAL).expect("the fixture parses");
    journal.verify().expect("every checksum verifies");
    assert_eq!(
        journal.render().expect("journal renders"),
        JOURNAL,
        "renders byte for byte"
    );
    assert_eq!(journal.base_checkpoint(), Some(journal_checkpoint()));
    let header = journal_header();
    assert_eq!(journal.header(), &header);
    let entries = journal.try_entries().expect("journal reads");
    let events = journal_events();
    assert_eq!(entries.len(), events.len());
    for (entry, (event, client, origin_seq)) in entries.iter().zip(events) {
        assert_eq!(entry.event, event, "seq {}", entry.seq);
        assert_eq!(entry.client, client, "seq {}", entry.seq);
        assert_eq!(entry.origin_seq, origin_seq, "seq {}", entry.seq);
        // Each line is exactly what the serializer writes for the entry.
        let line = serde_json::to_string(entry).expect("serializes");
        assert!(JOURNAL.contains(&format!("{line}\n")), "seq {}", entry.seq);
    }
}

#[test]
fn added_group_checkpoint_reproduces_the_fixture_and_its_checksum() {
    let checkpoint = added_group_checkpoint();
    assert_eq!(checkpoint.checksum, 5105773071787389819);
    assert!(checkpoint.verify());
    let line = serde_json::to_string(&checkpoint).expect("serializes");
    assert_eq!(format!("{line}\n"), ADDED_GROUP_CHECKPOINT);
    let back: FleetCheckpoint =
        serde_json::from_str(ADDED_GROUP_CHECKPOINT.trim_end()).expect("parses");
    assert_eq!(back, checkpoint);
}

#[test]
fn pretty_document_reproduces_the_fixture_and_parses_back() {
    assert_eq!(pretty_document(), PRETTY);
    let graph: SdfGraph = serde_json::from_str(PRETTY).expect("parses");
    assert_eq!(graph, generate_graph(&GeneratorConfig::default(), 7));
    assert_eq!(
        serde_json::to_string_pretty(&graph).expect("serializes"),
        PRETTY
    );
}
