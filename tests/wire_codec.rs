//! Codec properties of the remote transport: every wire message
//! round-trips **byte-exactly** through the binary codec, and the frame
//! carries exactly the value tree of the reference path
//! (`serde::to_value` / `serde::from_value`) — the two codecs the
//! equivalence tests below hold against each other. The hostile-input
//! tests hold the wire codec and the JSON parser that journal files
//! arrive through to the same standard: a message, an incomplete frame
//! or a typed error, never a panic.

use platform::{Application, Mapping, SystemSpec, UseCase};
use proptest::prelude::*;
use runtime::remote::codec::{decode, encode_frame, MAX_FRAME, MAX_REQUEST_FRAME};
use runtime::remote::{
    ClientHello, ServerHello, WireBody, WireFault, WireOp, WireRequest, WireResponse,
};
use runtime::{
    AdmissionRequest, AdmissionService, Cached, FleetConfig, FleetManager, Journal, Metered,
    RoutingPolicy, TraceRecorder, Traced,
};
use sdf::{figure2_graphs, Rational};
use serde::de::IgnoredAny;
use serde::{Deserialize, Serialize, Value};
use std::sync::{Arc, OnceLock};

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
/// 1. encode → decode consumes the whole frame and yields the reference
///    value tree (`serde::to_value`);
/// 2. re-encoding the message, or the decoded tree, reproduces the
///    identical bytes (byte-exact round-trip — the codec is deterministic);
/// 3. the tree parses back into a message equal to the original, and so
///    does the typed decode straight off the frame.
fn assert_codecs_agree<T>(msg: &T)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    let value = serde::to_value(msg);

    let bin = encode_frame(msg).expect("encodes");
    let (tree, consumed) = decode::<Value>(&bin, MAX_FRAME)
        .expect("frame decodes")
        .expect("frame is complete");
    assert_eq!(consumed, bin.len(), "decode must consume the frame");
    assert_eq!(tree, value, "the frame must carry the exact value tree");
    let reencoded = encode_frame(msg).expect("re-encodes");
    assert_eq!(reencoded, bin, "encoding must be deterministic");
    let from_tree = encode_frame(&tree).expect("decoded tree re-encodes");
    assert_eq!(from_tree, bin, "decode→encode must be byte-exact");

    let from_tree: T = serde::from_value(&tree).expect("typed decode from the tree");
    assert_eq!(&from_tree, msg);
    let (direct, _) = decode::<T>(&bin, MAX_FRAME)
        .expect("typed decode")
        .expect("complete");
    assert_eq!(&direct, msg, "typed decode straight off the frame");
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
    // status must survive the codec (and its absence must too — the
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
    // The hellos open every connection in the same binary frames as the
    // requests after them: with and without a client id, with a populated
    // workload spec and without one (a refusal).
    for client in [None, Some("bench-7".to_string())] {
        assert_codecs_agree(&ClientHello {
            magic: "probcon-remote".to_string(),
            version: 5,
            client,
        });
    }
    for workload in [None, Some(spec())] {
        assert_codecs_agree(&ServerHello {
            magic: "probcon-remote".to_string(),
            version: 5,
            workload,
            domains: 3,
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
            // Exact rational contracts: the codec must carry the
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
/// frames round-trip unchanged — span propagation never changes the bytes
/// of an untraced request.
#[test]
fn span_context_field_is_wire_backward_compatible() {
    use runtime::SpanContext;

    // A span-less request serializes WITHOUT the key — byte-identical to
    // what a pre-span peer ships. Keys cross as text in the frame's key
    // table, so a frame with the key holds its bytes.
    let bare = AdmissionRequest::new(3)
        .with_contract(Rational::new(1, 300))
        .with_affinity("edge-7");
    assert!(bare.span.is_none());
    let frame = encode_frame(&WireRequest {
        id: 9,
        op: WireOp::Admit(bare.clone()),
    })
    .expect("encodes");
    assert!(
        !frame.windows(4).any(|w| w == b"span"),
        "span-less requests must omit the field entirely: {frame:?}"
    );

    // A frame missing the key (as an old peer would send it) decodes to
    // span: None and re-encodes byte-identically.
    assert_codecs_agree(&WireRequest {
        id: 9,
        op: WireOp::Admit(bare),
    });

    // And a span-carrying request survives the codec with its causal
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
        let bytes = encode_frame(&request).expect("encodes");
        let (back, _) = decode::<WireRequest>(&bytes, MAX_FRAME)
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

/// The golden frames recorded for `tests/golden_bytes.rs`, split at their
/// frame boundaries.
fn golden_frames() -> Vec<&'static [u8]> {
    let mut rest: &'static [u8] = include_bytes!("fixtures/wire_frames.bin");
    let mut frames = Vec::new();
    while !rest.is_empty() {
        let (_, len) = decode::<IgnoredAny>(rest, MAX_FRAME)
            .expect("golden frames are well-formed")
            .expect("golden frames are complete");
        frames.push(&rest[..len]);
        rest = &rest[len..];
    }
    assert!(frames.len() > 30, "{} golden frames", frames.len());
    frames
}

/// Decodes `bytes` as every message type a peer may be sent, the hellos
/// included: the property is that none of them panics. Returns whether
/// the bytes hold a well-formed frame.
fn decode_every_way(bytes: &[u8]) -> bool {
    let _ = decode::<ClientHello>(bytes, MAX_REQUEST_FRAME);
    let _ = decode::<WireRequest>(bytes, MAX_REQUEST_FRAME);
    let _ = decode::<WireResponse>(bytes, MAX_FRAME);
    let _ = decode::<ServerHello>(bytes, MAX_FRAME);
    let _ = decode::<Value>(bytes, MAX_FRAME);
    matches!(decode::<IgnoredAny>(bytes, MAX_FRAME), Ok(Some(_)))
}

/// The header line of an empty journal, so hostile text can reach the
/// journal parser's entry lines as well as its header.
fn journal_header_line() -> &'static str {
    static HEADER: OnceLock<String> = OnceLock::new();
    HEADER.get_or_init(|| {
        let fleet = FleetManager::new(
            spec(),
            FleetConfig::uniform(1, 1, 3, RoutingPolicy::LeastUtilised),
        )
        .expect("valid fleet");
        let text = fleet.journal().render().expect("renders");
        text.lines().next().expect("a header line").to_string()
    })
}

#[test]
fn every_strict_prefix_of_a_golden_frame_is_incomplete() {
    for frame in golden_frames() {
        for cut in 0..frame.len() {
            let decoded = decode::<Value>(&frame[..cut], MAX_FRAME);
            assert!(
                matches!(decoded, Ok(None)),
                "a {cut}-byte prefix of a {}-byte frame must be incomplete, got {decoded:?}",
                frame.len()
            );
        }
    }
}

#[test]
fn single_byte_mutations_of_golden_frames_never_panic() {
    let mut decoded = 0usize;
    for frame in golden_frames() {
        let mut mutant = frame.to_vec();
        for i in 0..frame.len() {
            // One mutation per byte, cycling through flips, nudges, tag and
            // varint bytes and an opening bracket.
            let byte = frame[i];
            mutant[i] = [byte ^ 0xff, byte.wrapping_add(1), 0x00, 0x80, b'['][i % 5];
            if decode_every_way(&mutant) {
                decoded += 1;
            }
            mutant[i] = byte;
        }
    }
    // Many mutations still leave a frame the codec reads (an id, a count,
    // a character changed): the bytes reach the decoders.
    assert!(decoded > 500, "{decoded} mutants decoded");
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
        let err = decode::<Value>(&bytes, MAX_FRAME).expect_err(what);
        assert!(err.starts_with("malformed frame"), "{what}: {err}");
        assert!(!decode_every_way(&bytes), "{what}");
    }
    // Journal files carry no counts: their JSON text is the only length,
    // and an unterminated array in it is a typed error.
    let text = format!("{}\n[1,2,3,4\n", journal_header_line());
    assert!(Journal::parse(&text).is_err(), "an unterminated array");
}

#[test]
fn deep_nesting_is_a_typed_error_in_both_codecs() {
    // The wire codec, on a hello-sized frame: 30,000 arrays of one
    // element around a null.
    let depth = 30_000;
    let mut body = vec![0u8];
    for _ in 0..depth {
        body.extend_from_slice(&[6, 1]);
    }
    body.push(0);
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    assert!(frame.len() <= MAX_REQUEST_FRAME + 4);
    let err = decode::<ClientHello>(&frame, MAX_REQUEST_FRAME).expect_err("too deep");
    assert!(err.contains("nesting too deep"), "{err}");
    let err = decode::<Value>(&frame, MAX_FRAME).expect_err("too deep");
    assert!(err.contains("nesting too deep"), "{err}");
    // The JSON parser journal files arrive through, on a header line and
    // on an entry line.
    let deep = "[".repeat(depth);
    for text in [deep.clone(), format!("{}\n{deep}", journal_header_line())] {
        let err = Journal::parse(&text).expect_err("too deep").to_string();
        assert!(err.contains("nesting deeper than"), "{err}");
    }
}

#[test]
fn rationals_decode_only_in_canonical_form_in_both_codecs() {
    // Rationals arrive from outside in wire frames and in journal files'
    // JSON; both decoders refuse every non-canonical form.
    let pair = |numer: i128, denom: i128| {
        let mut tree = Value::object();
        tree.insert("numer", Value::Int(numer));
        tree.insert("denom", Value::Int(denom));
        tree
    };
    let wire = |tree: &Value| {
        let frame = encode_frame(tree).expect("encodes");
        decode::<Rational>(&frame, MAX_FRAME).map(|decoded| decoded.expect("complete frame").0)
    };
    let json = |tree: &Value| {
        let text = serde_json::to_string(tree).expect("serializes");
        serde_json::from_str::<Rational>(&text).map_err(|e| e.to_string())
    };
    for (name, decode) in [
        ("wire", &wire as &dyn Fn(&Value) -> Result<Rational, String>),
        ("json", &json),
    ] {
        for r in [
            Rational::new(1, 1_000_000),
            Rational::new(-7, 3),
            Rational::ZERO,
            Rational::integer(i128::MAX),
            Rational::new(1, i128::MAX),
        ] {
            assert_eq!(decode(&serde::to_value(&r)), Ok(r), "{name}: {r}");
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
                "{name}: {numer}/{denom}: {err}"
            );
        }
    }
}

proptest! {
    #[test]
    fn random_bytes_never_panic_either_codec(
        bytes in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..256),
    ) {
        let _ = decode_every_way(&bytes);
        // The same bytes as a correctly framed payload, so they reach the
        // payload decoders rather than the length prefix checks.
        let mut framed = (bytes.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&bytes);
        let _ = decode_every_way(&framed);
        // And as the text of a journal file, alone and after a header.
        let text = String::from_utf8_lossy(&bytes);
        let _ = Journal::parse(&text);
        let _ = Journal::parse(&format!("{}\n{text}", journal_header_line()));
    }

    #[test]
    fn random_json_like_text_never_panics(
        picks in prop::collection::vec(0usize..16, 0..200),
    ) {
        // Journal files are the JSON that arrives from outside: the text
        // as a header line, and as an entry line after a valid header.
        const PIECES: [&str; 16] = [
            "{", "}", "[", "]", ",", ":", "\"seq\"", "\"event\"", "\"Admit\"", "1", "-7",
            "2.5e3", "null", "true", "\"\\u00e9\\n\"", " ",
        ];
        let text: String = picks.iter().map(|&i| PIECES[i]).collect();
        let _ = Journal::parse(&text);
        let _ = Journal::parse(&format!("{}\n{text}", journal_header_line()));
    }
}
