//! Codec equivalence properties of the remote transport: every wire
//! message round-trips **byte-exactly** through the binary codec and
//! decodes to the identical value tree through the JSON-lines codec —
//! so a `--wire json` debug session observes exactly what a binary
//! session ships, and the negotiated mode can never change a decision.

use platform::{Application, Mapping, SystemSpec, UseCase};
use proptest::prelude::*;
use runtime::remote::codec::{encode_frame, WireMode, MAX_FRAME, MAX_REQUEST_FRAME};
use runtime::remote::{
    ClientHello, ServerHello, WireBody, WireFault, WireOp, WireRequest, WireResponse,
};
use runtime::{
    AdmissionRequest, AdmissionService, Cached, FleetConfig, FleetManager, Metered, RoutingPolicy,
    TraceRecorder, Traced,
};
use sdf::{figure2_graphs, Rational};
use serde::de::IgnoredAny;
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

fn spec() -> SystemSpec {
    let (a, b) = figure2_graphs();
    SystemSpec::builder()
        .application(Application::new("A", a).expect("valid"))
        .application(Application::new("B", b).expect("valid"))
        .mapping(Mapping::by_actor_index(3))
        .build()
        .expect("valid spec")
}

/// The equivalence under test, for one message:
/// 1. binary encode → decode consumes the whole frame and yields the
///    serialized value tree;
/// 2. re-encoding the decoded tree reproduces the identical bytes
///    (byte-exact round-trip — the codec is deterministic);
/// 3. the JSON-lines twin decodes to the identical tree;
/// 4. both trees parse back into a message equal to the original, and so
///    does the typed decode straight off each frame.
fn assert_codecs_agree<T>(msg: &T)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    let value = serde::to_value(msg);

    let bin = encode_frame(WireMode::Binary, msg).expect("binary encodes");
    let (bin_tree, consumed) = WireMode::Binary
        .decode::<Value>(&bin, MAX_FRAME)
        .expect("binary frame decodes")
        .expect("binary frame is complete");
    assert_eq!(consumed, bin.len(), "binary decode must consume the frame");
    assert_eq!(bin_tree, value, "binary must carry the exact value tree");
    let reencoded = encode_frame(WireMode::Binary, msg).expect("binary re-encodes");
    assert_eq!(reencoded, bin, "binary encoding must be deterministic");
    let from_tree = encode_frame(WireMode::Binary, &bin_tree).expect("decoded tree re-encodes");
    assert_eq!(from_tree, bin, "decode→encode must be byte-exact");

    let json = encode_frame(WireMode::Json, msg).expect("json encodes");
    let (json_tree, json_consumed) = WireMode::Json
        .decode::<Value>(&json, MAX_FRAME)
        .expect("json frame decodes")
        .expect("json frame is complete");
    assert_eq!(json_consumed, json.len());
    assert_eq!(
        json_tree, bin_tree,
        "JSON and binary twins must decode identically"
    );

    let from_bin: T = serde::from_value(&bin_tree).expect("typed decode from binary tree");
    let from_json: T = serde::from_value(&json_tree).expect("typed decode from json tree");
    assert_eq!(&from_bin, msg);
    assert_eq!(&from_json, msg);
    for (wire, frame) in [(WireMode::Binary, &bin), (WireMode::Json, &json)] {
        let (direct, _) = wire
            .decode::<T>(frame, MAX_FRAME)
            .expect("typed decode")
            .expect("complete");
        assert_eq!(&direct, msg, "{wire}: typed decode straight off the frame");
    }
}

// ---------------------------------------------------------------------------
// Every variant once, with driven (not mocked) payloads.
// ---------------------------------------------------------------------------

#[test]
fn every_wire_op_variant_crosses_both_codecs_identically() {
    let ops = vec![
        WireOp::Admit(
            AdmissionRequest::new(1)
                .with_contract(Rational::new(3, 7))
                .with_affinity("edge-7")
                .on(2),
        ),
        WireOp::Admit(AdmissionRequest::new(0)),
        WireOp::Release(u64::MAX),
        WireOp::Snapshot,
        WireOp::Estimate {
            mask: 0b11,
            method: "order-2".parse().expect("method"),
        },
        WireOp::JournalPage { from_seq: 4096 },
        WireOp::Telemetry,
        WireOp::Trace { tail: 1_000_000 },
    ];
    for (i, op) in ops.into_iter().enumerate() {
        assert_codecs_agree(&WireRequest { id: i as u64, op });
    }
}

#[test]
fn every_wire_body_variant_crosses_both_codecs_identically() {
    // Drive a real stack so the payloads are the production shapes —
    // layered snapshots, populated histograms, exact rational periods —
    // not hand-mocked skeletons.
    let spec = spec();
    let fleet = FleetManager::new(
        spec.clone(),
        FleetConfig::uniform(2, 1, 3, RoutingPolicy::LeastUtilised),
    )
    .expect("valid fleet");
    let recorder = Arc::new(TraceRecorder::new(64));
    let stack = Traced::with_recorder(
        Metered::new(Cached::new(fleet.clone(), 16)),
        Arc::clone(&recorder),
    );
    let decision = stack.admit(&AdmissionRequest::new(0)).expect("admits");
    let resident = decision.resident().expect("admitted");
    let estimate = stack
        .estimate(UseCase::from_mask(0b11), "exact".parse().expect("method"))
        .expect("estimates");
    stack.release(resident).expect("releases");
    let journal = fleet.journal();
    let page = journal.render_page(0, 2).expect("page");
    let mut telemetry = stack.telemetry();
    // The trailing-Option field, populated: an elastic controller's
    // status must survive both codecs (and its absence must too — the
    // bare telemetry() above starts as None and is covered below).
    telemetry.autoscaler = Some(runtime::AutoscalerStatus {
        policy: "target-band".to_string(),
        ticks: 17,
        utilisation: 0.625,
        high_streak: 2,
        low_streak: 0,
        cooldown_left: 3,
        last_decision: None,
        applied: 1,
        refused: 0,
    });

    let bodies = vec![
        WireBody::Decision(decision),
        WireBody::Released,
        WireBody::Snapshot(stack.snapshot()),
        WireBody::Estimate(estimate),
        WireBody::JournalPage(page),
        WireBody::Telemetry(Box::new(telemetry)),
        WireBody::Telemetry(Box::new(stack.telemetry())),
        WireBody::Trace(stack.trace_tail(64)),
        WireBody::Error(WireFault::NoWorkload),
        WireBody::Error(WireFault::UnknownResident(42)),
        WireBody::Error(WireFault::UnknownDomain(7)),
        WireBody::Error(WireFault::Stopped),
        WireBody::Error(WireFault::QueueFull),
        WireBody::Error(WireFault::Config("no journal".to_string())),
        WireBody::Error(WireFault::Analysis("period diverged".to_string())),
        WireBody::Error(WireFault::Transport("truncated frame".to_string())),
    ];
    for (i, body) in bodies.into_iter().enumerate() {
        assert_codecs_agree(&WireResponse { id: i as u64, body });
    }
}

#[test]
fn hellos_cross_both_codecs_identically() {
    // Hellos are JSON-framed on the wire, but the codec equivalence must
    // hold for them regardless — including the skip_none `wire` field in
    // both states and a populated workload spec.
    for wire in [None, Some("binary".to_string()), Some("json".to_string())] {
        assert_codecs_agree(&ClientHello {
            magic: "probcon-remote".to_string(),
            version: 4,
            client: Some("bench-7".to_string()),
            wire: wire.clone(),
        });
        assert_codecs_agree(&ServerHello {
            magic: "probcon-remote".to_string(),
            version: 4,
            workload: Some(spec()),
            domains: 3,
            wire,
        });
    }
}

// ---------------------------------------------------------------------------
// Randomized properties.
// ---------------------------------------------------------------------------

/// Printable ASCII strings of up to 48 bytes.
fn printable() -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 0..48)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

proptest! {
    #[test]
    fn random_admit_requests_cross_identically(
        id in 0u64..=u64::MAX,
        app in 0usize..64,
        num in -5_000i128..5_000,
        den in 1i128..5_000,
        with_contract in (0u8..2).prop_map(|b| b == 1),
        affinity in (0usize..4, printable()).prop_map(|(k, s)| (k == 0).then_some(s)),
        target in (0usize..4, 0usize..16).prop_map(|(k, d)| (k == 0).then_some(d)),
    ) {
        let mut request = AdmissionRequest::new(app);
        if with_contract {
            // Exact rational contracts: the binary codec must carry the
            // reduced numerator/denominator without quantisation.
            request = request.with_contract(Rational::new(num, den));
        }
        request.affinity = affinity;
        request.target = target;
        assert_codecs_agree(&WireRequest { id, op: WireOp::Admit(request) });
    }

    #[test]
    fn random_faults_and_scalars_cross_identically(
        id in 0u64..=u64::MAX,
        resident in 0u64..=u64::MAX,
        msg in printable(),
        pick in 0usize..4,
    ) {
        let fault = match pick {
            0 => WireFault::UnknownResident(resident),
            1 => WireFault::Config(msg.clone()),
            2 => WireFault::Analysis(msg.clone()),
            _ => WireFault::Transport(msg.clone()),
        };
        assert_codecs_agree(&WireResponse { id, body: WireBody::Error(fault) });
        assert_codecs_agree(&WireRequest { id, op: WireOp::Release(resident) });
        assert_codecs_agree(&WireRequest { id, op: WireOp::JournalPage { from_seq: resident } });
    }
}

// ---------------------------------------------------------------------------
// Span-context wire compatibility.
// ---------------------------------------------------------------------------

/// The `span` field of [`AdmissionRequest`] is trailing and skip-none: a
/// peer that predates spans ships frames without the key, and those
/// frames round-trip unchanged on both codecs — span propagation never
/// changes the bytes of an untraced request.
#[test]
fn span_context_field_is_wire_backward_compatible() {
    use runtime::SpanContext;

    // A span-less request serializes WITHOUT the key — byte-identical to
    // what a pre-span peer ships.
    let bare = AdmissionRequest::new(3)
        .with_contract(Rational::new(1, 300))
        .with_affinity("edge-7");
    assert!(bare.span.is_none());
    let json = encode_frame(
        WireMode::Json,
        &WireRequest {
            id: 9,
            op: WireOp::Admit(bare.clone()),
        },
    )
    .expect("encodes");
    let text = String::from_utf8(json).expect("json frames are utf-8");
    assert!(
        !text.contains("span"),
        "span-less requests must omit the field entirely: {text}"
    );

    // A frame missing the key (as an old peer would send it) decodes to
    // span: None and re-encodes byte-identically, through both codecs.
    assert_codecs_agree(&WireRequest {
        id: 9,
        op: WireOp::Admit(bare),
    });

    // And a span-carrying request survives both codecs with its causal
    // identity intact — including the nested skip-none parent id in both
    // states (a root has no parent; a child does).
    let root = SpanContext::root();
    for context in [root, root.child()] {
        let mut traced = AdmissionRequest::new(1);
        traced.span = Some(context);
        let request = WireRequest {
            id: 10,
            op: WireOp::Admit(traced),
        };
        assert_codecs_agree(&request);
        let bytes = encode_frame(WireMode::Binary, &request).expect("encodes");
        let (back, _) = WireMode::Binary
            .decode::<WireRequest>(&bytes, MAX_FRAME)
            .expect("decodes")
            .expect("complete");
        match back.op {
            WireOp::Admit(request) => assert_eq!(request.span, Some(context)),
            other => panic!("unexpected op: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Hostile bytes: every input ends in a message, an incomplete frame or a
// typed error — never a panic, and never an allocation the input's size
// does not bound.
// ---------------------------------------------------------------------------

/// The golden frames recorded for `tests/golden_bytes.rs`, one codec's
/// worth, split at their frame boundaries.
fn golden_frames(wire: WireMode) -> Vec<&'static [u8]> {
    let mut rest: &'static [u8] = match wire {
        WireMode::Binary => include_bytes!("fixtures/wire_frames.bin"),
        WireMode::Json => include_bytes!("fixtures/wire_frames.jsonl"),
    };
    let mut frames = Vec::new();
    while !rest.is_empty() {
        let (_, len) = wire
            .decode::<IgnoredAny>(rest, MAX_FRAME)
            .expect("golden frames are well-formed")
            .expect("golden frames are complete");
        frames.push(&rest[..len]);
        rest = &rest[len..];
    }
    assert!(frames.len() > 30, "{wire}: {} golden frames", frames.len());
    frames
}

/// Decodes `bytes` as every message type a peer may be sent, plus the
/// hello parser: the property is that none of them panics. Returns
/// whether the bytes hold a well-formed frame.
fn decode_every_way(wire: WireMode, bytes: &[u8]) -> bool {
    let _ = wire.decode::<WireRequest>(bytes, MAX_REQUEST_FRAME);
    let _ = wire.decode::<WireResponse>(bytes, MAX_FRAME);
    let _ = wire.decode::<ServerHello>(bytes, MAX_FRAME);
    let _ = wire.decode::<Value>(bytes, MAX_FRAME);
    // Hellos are always JSON-framed: the server parses every first frame
    // this way, whatever the connection later speaks.
    let _ = WireMode::Json.decode::<ClientHello>(bytes, MAX_REQUEST_FRAME);
    matches!(wire.decode::<IgnoredAny>(bytes, MAX_FRAME), Ok(Some(_)))
}

#[test]
fn every_strict_prefix_of_a_golden_frame_is_incomplete() {
    for wire in [WireMode::Binary, WireMode::Json] {
        for frame in golden_frames(wire) {
            for cut in 0..frame.len() {
                let decoded = wire.decode::<Value>(&frame[..cut], MAX_FRAME);
                assert!(
                    matches!(decoded, Ok(None)),
                    "{wire}: a {cut}-byte prefix of a {}-byte frame must be incomplete, got {decoded:?}",
                    frame.len()
                );
            }
        }
    }
}

#[test]
fn single_byte_mutations_of_golden_frames_never_panic() {
    for wire in [WireMode::Binary, WireMode::Json] {
        let mut decoded = 0usize;
        for frame in golden_frames(wire) {
            let mut mutant = frame.to_vec();
            for i in 0..frame.len() {
                // One mutation per byte, cycling through flips, nudges,
                // tag and varint bytes and an opening bracket.
                let byte = frame[i];
                mutant[i] = [byte ^ 0xff, byte.wrapping_add(1), 0x00, 0x80, b'['][i % 5];
                if decode_every_way(wire, &mutant) {
                    decoded += 1;
                }
                mutant[i] = byte;
            }
        }
        // Many mutations still leave a frame the codec reads (an id, a
        // count, a character changed): the bytes reach the decoders.
        assert!(decoded > 500, "{wire}: {decoded} mutants decoded");
    }
}

#[test]
fn declared_lengths_past_the_payload_fail_before_allocating() {
    // 2^40 as a varint: five continuation bytes, then bit 40.
    let huge = [0x80, 0x80, 0x80, 0x80, 0x80, 0x20];
    let frame = |body: &[u8]| {
        let mut out = (body.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(body);
        out
    };
    let cases: [(&str, Vec<u8>); 4] = [
        ("key table", frame(&huge)),
        ("array", frame(&[&[0, 6], huge.as_slice()].concat())),
        ("object", frame(&[&[0, 7], huge.as_slice()].concat())),
        ("string", frame(&[&[0, 5], huge.as_slice()].concat())),
    ];
    for (what, bytes) in cases {
        assert!(bytes.len() <= 12, "{what}: a {}-byte frame", bytes.len());
        // Allocating 2^40 elements would abort the test process; a typed
        // error comes back instead.
        let err = WireMode::Binary
            .decode::<Value>(&bytes, MAX_FRAME)
            .expect_err(what);
        assert!(err.starts_with("malformed frame"), "{what}: {err}");
        assert!(!decode_every_way(WireMode::Binary, &bytes), "{what}");
    }
    // The JSON codec never trusts a count: the text is the only length.
    let err = WireMode::Json
        .decode::<Value>(b"8 [1,2,3,4\n", MAX_FRAME)
        .expect_err("an unterminated array");
    assert!(err.starts_with("malformed frame payload"), "{err}");
}

#[test]
fn deep_nesting_is_a_typed_error_in_both_codecs() {
    let depth = 30_000;
    let json = "[".repeat(depth);
    let json_frame = format!("{} {json}\n", json.len());
    let mut body = vec![0u8];
    for _ in 0..depth {
        body.extend_from_slice(&[6, 1]); // an array of one element ...
    }
    body.push(0); // ... around a null
    let mut binary_frame = (body.len() as u32).to_le_bytes().to_vec();
    binary_frame.extend_from_slice(&body);
    let err = WireMode::Json
        .decode::<ClientHello>(json_frame.as_bytes(), MAX_REQUEST_FRAME)
        .expect_err("too deep");
    assert!(err.contains("nesting deeper than"), "{err}");
    let err = WireMode::Binary
        .decode::<Value>(&binary_frame, MAX_FRAME)
        .expect_err("too deep");
    assert!(err.contains("nesting too deep"), "{err}");
}

#[test]
fn rationals_decode_only_in_canonical_form_in_both_codecs() {
    let pair = |numer: i128, denom: i128| {
        let mut tree = Value::object();
        tree.insert("numer", Value::Int(numer));
        tree.insert("denom", Value::Int(denom));
        tree
    };
    for wire in [WireMode::Binary, WireMode::Json] {
        let decode = |tree: &Value| {
            let frame = encode_frame(wire, tree).expect("encodes");
            wire.decode::<Rational>(&frame, MAX_FRAME)
                .map(|decoded| decoded.expect("complete frame").0)
        };
        for r in [
            Rational::new(1, 1_000_000),
            Rational::new(-7, 3),
            Rational::ZERO,
            Rational::integer(i128::MAX),
            Rational::new(1, i128::MAX),
        ] {
            assert_eq!(decode(&serde::to_value(&r)), Ok(r), "{wire}: {r}");
        }
        for (numer, denom) in [
            (-1, -1_000_000),
            (1, 0),
            (0, 0),
            (0, 7),
            (6, 4),
            (5, -1),
            (i128::MIN, 1),
        ] {
            let err = decode(&pair(numer, denom)).expect_err("non-canonical");
            assert!(
                err.contains("lowest terms"),
                "{wire}: {numer}/{denom}: {err}"
            );
        }
    }
}

proptest! {
    #[test]
    fn random_bytes_never_panic_either_codec(
        bytes in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..256),
    ) {
        for wire in [WireMode::Binary, WireMode::Json] {
            let _ = decode_every_way(wire, &bytes);
        }
        // The same bytes as a correctly framed payload, so they reach the
        // payload decoders rather than the length prefix checks.
        let mut binary = (bytes.len() as u32).to_le_bytes().to_vec();
        binary.extend_from_slice(&bytes);
        let _ = decode_every_way(WireMode::Binary, &binary);
        let mut json = format!("{} ", bytes.len()).into_bytes();
        json.extend_from_slice(&bytes);
        json.push(b'\n');
        let _ = decode_every_way(WireMode::Json, &json);
    }

    #[test]
    fn random_json_like_text_never_panics(
        picks in prop::collection::vec(0usize..16, 0..200),
    ) {
        const PIECES: [&str; 16] = [
            "{", "}", "[", "]", ",", ":", "\"id\"", "\"op\"", "\"Admit\"", "1", "-7",
            "2.5e3", "null", "true", "\"\\u00e9\\n\"", " ",
        ];
        let text: String = picks.iter().map(|&i| PIECES[i]).collect();
        let frame = format!("{} {text}\n", text.len());
        let _ = decode_every_way(WireMode::Json, frame.as_bytes());
    }
}
