//! Codec equivalence properties of the remote transport: every wire
//! message round-trips **byte-exactly** through the binary codec and
//! decodes to the identical value tree through the JSON-lines codec —
//! so a `--wire json` debug session observes exactly what a binary
//! session ships, and the negotiated mode can never change a decision.

use platform::{Application, Mapping, SystemSpec, UseCase};
use proptest::prelude::*;
use runtime::remote::codec::{
    decode_message, encode_frame, BinaryCodec, JsonLinesCodec, WireCodec, MAX_FRAME,
};
use runtime::remote::{
    ClientHello, ServerHello, WireBody, WireFault, WireOp, WireRequest, WireResponse,
};
use runtime::{
    AdmissionRequest, AdmissionService, Cached, FleetConfig, FleetManager, Metered, RoutingPolicy,
    TraceRecorder, Traced,
};
use sdf::{figure2_graphs, Rational};
use serde::{Deserialize, Serialize};
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
/// 4. both trees parse back into a message equal to the original.
fn assert_codecs_agree<T>(msg: &T)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    let value = msg.serialize();

    let bin = encode_frame(&BinaryCodec, msg).expect("binary encodes");
    let (bin_tree, consumed) = BinaryCodec
        .decode_value(&bin, MAX_FRAME)
        .expect("binary frame decodes")
        .expect("binary frame is complete");
    assert_eq!(consumed, bin.len(), "binary decode must consume the frame");
    assert_eq!(bin_tree, value, "binary must carry the exact value tree");
    let reencoded = encode_frame(&BinaryCodec, msg).expect("binary re-encodes");
    assert_eq!(reencoded, bin, "binary encoding must be deterministic");
    let mut from_tree = Vec::new();
    BinaryCodec
        .encode_value(&bin_tree, &mut from_tree)
        .expect("decoded tree re-encodes");
    assert_eq!(from_tree, bin, "decode→encode must be byte-exact");

    let json = encode_frame(&JsonLinesCodec, msg).expect("json encodes");
    let (json_tree, json_consumed) = JsonLinesCodec
        .decode_value(&json, MAX_FRAME)
        .expect("json frame decodes")
        .expect("json frame is complete");
    assert_eq!(json_consumed, json.len());
    assert_eq!(
        json_tree, bin_tree,
        "JSON and binary twins must decode identically"
    );

    let from_bin: T = decode_message(&bin_tree).expect("typed decode from binary");
    let from_json: T = decode_message(&json_tree).expect("typed decode from json");
    assert_eq!(&from_bin, msg);
    assert_eq!(&from_json, msg);
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
        WireBody::Estimate((*estimate).clone()),
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
        &JsonLinesCodec,
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
        let bytes = encode_frame(&BinaryCodec, &request).expect("encodes");
        let (tree, _) = BinaryCodec
            .decode_value(&bytes, MAX_FRAME)
            .expect("decodes")
            .expect("complete");
        let back: WireRequest = decode_message(&tree).expect("typed decode");
        match back.op {
            WireOp::Admit(request) => assert_eq!(request.span, Some(context)),
            other => panic!("unexpected op: {other:?}"),
        }
    }
}
