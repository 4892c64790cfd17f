//! Telemetry-subsystem integration properties: histogram shard-merge
//! equivalence, flat memory under sustained load, and trace-layer
//! transparency (a `Traced` middleware must not perturb the journal the
//! stack underneath it records).

mod common;

use common::journaled;
use platform::{Application, Mapping, SystemSpec};
use proptest::prelude::*;
use runtime::telemetry::BUCKET_COUNT;
use runtime::{
    build_span_trees, run_requests, seeded_fleet_requests, AdmissionRequest, AdmissionService,
    Cached, FleetConfig, FleetManager, HistogramRecorder, Journal, LatencyHistogram, Metered,
    RemoteClient, RemoteServer, RoutingPolicy, ServiceOp, SpanContext, SpanNode, TraceEvent,
    TraceKind, TraceRecorder, Traced,
};
use sdf::figure2_graphs;
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

fn fleet() -> FleetManager {
    FleetManager::new(
        spec(),
        FleetConfig::uniform(2, 1, 3, RoutingPolicy::LeastUtilised),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Recording a workload sharded across N histograms and merging them is
    // lossless: the merged histogram equals one that saw every sample.
    #[test]
    fn merging_shard_histograms_matches_single_recording(
        shards in prop::collection::vec(prop::collection::vec(0u64..2_000_000, 0..200), 1..8)
    ) {
        let mut merged = LatencyHistogram::new();
        for shard in &shards {
            let mut histogram = LatencyHistogram::new();
            for &sample in shard {
                histogram.record(sample);
            }
            merged.merge(&histogram);
        }
        let mut single = LatencyHistogram::new();
        for &sample in shards.iter().flatten() {
            single.record(sample);
        }
        prop_assert_eq!(merged, single);
    }

    // Every quantile the log-bucketed histogram reports stays within the
    // scheme's relative error of the exact order statistic.
    #[test]
    fn quantiles_track_exact_order_statistics(
        samples in prop::collection::vec(1u64..10_000_000, 1..300)
    ) {
        let mut histogram = LatencyHistogram::new();
        for &sample in &samples {
            histogram.record(sample);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for (q_num, q_den) in [(1u64, 2u64), (9, 10), (99, 100), (999, 1000)] {
            let rank = (q_num * sorted.len() as u64)
                .div_ceil(q_den)
                .clamp(1, sorted.len() as u64);
            let exact = sorted[rank as usize - 1];
            let approx = histogram.quantile(q_num as f64 / q_den as f64);
            prop_assert!(approx <= exact, "quantile floor above exact: {approx} > {exact}");
            prop_assert!(
                exact <= approx + approx / 16 + 1,
                "relative error exceeded: exact {exact}, approx {approx}"
            );
        }
    }
}

/// The Metered layer's memory no longer grows with traffic: a million
/// operations land in a fixed bucket table instead of a sample vector.
#[test]
fn metered_memory_stays_flat_over_a_million_operations() {
    let stack = Metered::new(fleet());
    for i in 0..1_000_000u64 {
        // Unknown-resident releases: cheap, typed, and still metered.
        let _ = stack.release(u64::MAX - (i % 17));
    }
    let histogram = stack.histogram(ServiceOp::Release);
    assert_eq!(histogram.count(), 1_000_000);
    assert!(
        histogram.bucket_len() <= BUCKET_COUNT,
        "histogram grew beyond its fixed bucket table: {} > {BUCKET_COUNT}",
        histogram.bucket_len()
    );
}

fn drive(stack: &dyn AdmissionService, fleet: &FleetManager) {
    let stream = seeded_fleet_requests(&spec(), 2, 250, 17);
    let _ = run_requests(stack, Some(fleet), stream, 1, None, None);
}

/// Renders a journal's entries with timestamps zeroed — the only field
/// that legitimately differs between two otherwise-identical runs (and the
/// one field the per-entry checksum deliberately excludes).
fn rendered_without_timestamps(journal: &Journal) -> Vec<String> {
    journal
        .try_entries()
        .expect("entries")
        .into_iter()
        .map(|mut entry| {
            entry.timestamp_micros = 0;
            serde_json::to_string(&entry).unwrap()
        })
        .collect()
}

/// Wrapping a fleet in `Traced` changes nothing its journal records: same
/// events, same checksums, byte-identical rendering modulo wall-clock
/// timestamps.
#[test]
fn traced_layer_is_journal_transparent() {
    let plain = fleet();
    drive(&plain, &plain);

    let traced_fleet = fleet();
    let traced = Traced::new(traced_fleet.clone(), 1024);
    drive(&traced, &traced_fleet);

    assert_eq!(
        rendered_without_timestamps(plain.journal()),
        rendered_without_timestamps(traced_fleet.journal()),
    );
    // The single-threaded seeded run is deterministic end to end, so the
    // two fleets' journals agree event-for-event too.
    assert_eq!(
        journaled(plain.journal()),
        journaled(traced_fleet.journal())
    );
    // ... and the recorder actually saw the run it did not perturb.
    assert!(traced.recorder().recorded() > 0);
}

/// `probcon top` renders each `Metered` operation once: one row per op in
/// the layered table, carrying the mean and the tail quantiles, and no
/// second table repeating the same histograms.
#[test]
fn telemetry_render_shows_one_row_per_metered_op() {
    let fleet = fleet();
    let stack = Traced::new(Metered::new(Cached::new(fleet.clone(), 16)), 256);
    drive(&stack, &fleet);
    let text = stack.telemetry().render();
    for op in ["admit", "release", "estimate", "snapshot"] {
        let rows = text
            .lines()
            .filter(|line| {
                let mut words = line.split_whitespace();
                words.next() == Some("metered") && words.next() == Some(op)
            })
            .count();
        assert_eq!(rows, 1, "one `metered {op}` row expected in:\n{text}");
    }
    for column in ["mean_us", "p999_us"] {
        assert!(text.contains(column), "missing {column} in:\n{text}");
    }
}

/// Over a connection, a sampled run's admit quantiles are what the driving
/// client observed — not the served stack's own `Metered` layer, whose
/// histogram rides the same telemetry snapshot further in.
#[test]
fn remote_trajectory_reports_client_observed_admit_latency() {
    let fleet = fleet();
    let server = RemoteServer::bind(
        &"tcp:127.0.0.1:0".parse().expect("endpoint"),
        Arc::new(Metered::new(fleet)),
    )
    .expect("server binds");
    let client = Metered::new(RemoteClient::connect(server.local_addr()).expect("connects"));
    let stream = seeded_fleet_requests(&spec(), 2, 200, 17);
    let (_, points) = run_requests(
        &client,
        None,
        stream,
        1,
        Some(Duration::from_millis(5)),
        None,
    );
    // The closing point is taken once every request ran; only releases
    // follow it, so the client's admit histogram is final there.
    let last = points.last().expect("closing point");
    let admit = client.histogram(ServiceOp::Admit);
    assert!(admit.count() > 0);
    assert_eq!(
        (last.admit_p50_us, last.admit_p99_us, last.admit_p999_us),
        (admit.p50(), admit.p99(), admit.p999())
    );
    client.inner().close();
    server.shutdown();
}

/// The lock-free recorder's snapshot matches a directly-recorded histogram
/// and keeps its fixed footprint regardless of sample count.
#[test]
fn recorder_snapshot_is_bounded_and_faithful() {
    let recorder = HistogramRecorder::new();
    let mut direct = LatencyHistogram::new();
    for i in 0..100_000u64 {
        let sample = (i * 7919) % 3_000_000;
        recorder.record(sample);
        direct.record(sample);
    }
    let snapshot = recorder.snapshot();
    assert_eq!(snapshot, direct);
    assert!(snapshot.bucket_len() <= BUCKET_COUNT);
}

/// The `autoscaler` status is a trailing skip-none field of
/// `TelemetrySnapshot`: a controller-less snapshot serializes WITHOUT it
/// (so historical consumers and recordings see identical bytes), an
/// autoscaled one round-trips it through JSON, and old-format JSON
/// missing the field still parses.
#[test]
fn telemetry_snapshot_autoscaler_field_is_wire_compatible() {
    use runtime::{Autoscaled, Autoscaler, ScalePolicy, TelemetrySnapshot};
    use std::sync::Arc;

    let fleet = fleet();
    let bare = Metered::new(fleet.clone());
    let without = bare.telemetry();
    let json_without = serde_json::to_string(&without).expect("serializes");
    assert!(
        !json_without.contains("autoscaler"),
        "controller-less snapshots must omit the field: {json_without}"
    );

    // Old-format JSON (no `autoscaler` key) parses to None.
    let parsed: TelemetrySnapshot = serde_json::from_str(&json_without).expect("parses");
    assert_eq!(parsed, without);
    assert!(parsed.autoscaler.is_none());

    // An autoscaled stack stamps the status, and it survives the wire.
    let controller = Arc::new(Autoscaler::new(
        Arc::new(fleet.clone()),
        ScalePolicy::Manual,
    ));
    let stack = Autoscaled::new(Metered::new(fleet), controller);
    let with = stack.telemetry();
    let status = with
        .autoscaler
        .clone()
        .expect("autoscaled stack stamps status");
    assert_eq!(status.policy, "manual");
    let json_with = serde_json::to_string(&with).expect("serializes");
    let roundtrip: TelemetrySnapshot = serde_json::from_str(&json_with).expect("parses");
    assert_eq!(roundtrip, with);
    assert!(roundtrip.render().contains("autoscaler["));
}

/// However many client ids a stack meets, its tenant table keeps at most
/// `MAX_TENANT_ROWS` named rows plus one overflow row, and counts every
/// decision in exactly one of them.
#[test]
fn tenant_table_is_bounded_and_counts_every_decision() {
    use runtime::{ClientScope, MAX_TENANT_ROWS, OVERFLOW_TENANT};

    let traced = Traced::new(fleet(), 64);
    let decide = |client: String, app: usize| {
        let _scope = ClientScope::enter(client);
        let decision = traced.admit(&AdmissionRequest::new(app)).expect("decides");
        if let Some(resident) = decision.resident() {
            traced.release(resident).expect("releases");
        }
        decision.is_admitted()
    };
    let ids = 200;
    let mut admitted = 0;
    for id in 0..ids {
        admitted += u64::from(decide(format!("tenant-{id:03}"), id % 2));
    }
    // An id seen before the table filled keeps counting in its own row.
    admitted += u64::from(decide("tenant-000".to_string(), 0));

    let telemetry = traced.telemetry();
    let rows = telemetry.tenants.as_ref().expect("a tenant table");
    assert_eq!(rows.len(), MAX_TENANT_ROWS + 1);
    let decided = |row: &runtime::TenantBreakdown| row.admitted + row.rejected + row.saturated;
    assert_eq!(rows.iter().map(decided).sum::<u64>(), ids as u64 + 1);
    assert_eq!(rows.iter().map(|row| row.released).sum::<u64>(), admitted);
    assert_eq!(rows[0].client, "tenant-000");
    assert_eq!(decided(&rows[0]), 2);
    let overflow = rows.last().expect("rows");
    assert_eq!(overflow.client, OVERFLOW_TENANT, "the overflow row is last");
    assert_eq!(decided(overflow), (ids - MAX_TENANT_ROWS) as u64);
    // `probcon top` labels the overflow row as such.
    assert!(telemetry.render().contains(OVERFLOW_TENANT));
}

// ---------------------------------------------------------------------------
// Span-tree reconstruction.
// ---------------------------------------------------------------------------

/// One synthetic request's span tree: `parents[i]` is the parent of node
/// `i + 2` (node indices start at 1; node 1 always hangs off the
/// unrecorded origin span, like the server-side chain hangs off the
/// remote client's root).
fn synthetic_request_events(
    request: usize,
    parents: &[usize],
    next_span: &mut u64,
) -> Vec<TraceEvent> {
    let trace_id = 1_000 + request as u64;
    let origin = 900_000 + request as u64;
    let node_count = parents.len() + 1;
    // parent span id and depth per node, 1-indexed.
    let mut span_ids = vec![0u64; node_count + 1];
    let mut depths = vec![0usize; node_count + 1];
    let mut events = Vec::new();
    for node in 1..=node_count {
        *next_span += 1;
        span_ids[node] = *next_span;
        let parent = if node == 1 { 0 } else { parents[node - 2] };
        depths[node] = if parent == 0 { 1 } else { depths[parent] + 1 };
        // Strictly nested intervals: each level starts later and ends
        // earlier than its parent, well clear of any other request.
        let base = request as u64 * 1_000_000;
        let start = base + depths[node] as u64 * 1_000 + node as u64;
        let end = base + 900_000 - depths[node] as u64 * 1_000 - node as u64;
        let context = SpanContext {
            trace_id,
            span_id: span_ids[node],
            parent_span_id: Some(if parent == 0 {
                origin
            } else {
                span_ids[parent]
            }),
        };
        let mut event = TraceEvent::new(TraceKind::Admit)
            .app(request)
            .span(context)
            .duration(Duration::from_micros(end - start));
        event.at_micros = end;
        events.push(event);
    }
    events
}

/// `slack_micros` absorbs clock skew on real pipelines: parent and child
/// durations are measured by independent `Instant` timers, so a child's
/// reconstructed start can land a few microseconds before its parent's.
/// Synthetic forests use zero slack (exact nesting by construction).
fn assert_node_well_formed(node: &SpanNode, trace_id: u64, slack_micros: u64) {
    let start = node
        .event
        .at_micros
        .saturating_sub(node.event.duration_micros);
    assert_eq!(node.event.trace_id, Some(trace_id));
    for child in &node.children {
        assert_eq!(
            child.event.parent_span_id, node.event.span_id,
            "child must point at its parent's span"
        );
        let child_start = child
            .event
            .at_micros
            .saturating_sub(child.event.duration_micros);
        assert!(
            child_start + slack_micros >= start && child.event.at_micros <= node.event.at_micros,
            "child interval [{child_start}, {}] must nest inside parent [{start}, {}]",
            child.event.at_micros,
            node.event.at_micros
        );
        assert_node_well_formed(child, trace_id, slack_micros);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Reconstructing span trees from a flat (and interleaved) event ring
    // is well-formed: one tree per request, exactly one root per tree
    // (the span whose parent — the origin — was never recorded), every
    // non-root attached to its recorded parent, and child intervals
    // nested inside their parents'.
    #[test]
    fn reconstructed_span_trees_are_well_formed(
        shapes in prop::collection::vec(prop::collection::vec(0usize..100, 0..5), 1..7)
    ) {
        let mut next_span = 0u64;
        let mut per_request: Vec<Vec<TraceEvent>> = Vec::new();
        for (request, raw) in shapes.iter().enumerate() {
            // Node i+2's parent is any earlier node (1-indexed), so the
            // tree is connected under node 1 by construction.
            let parents: Vec<usize> = raw
                .iter()
                .enumerate()
                .map(|(i, &pick)| 1 + pick % (i + 1))
                .collect();
            per_request.push(synthetic_request_events(request, &parents, &mut next_span));
        }
        // Interleave the requests' events the way concurrent requests
        // land in the ring: round-robin across requests, not grouped.
        let mut events = Vec::new();
        let deepest = per_request.iter().map(Vec::len).max().unwrap_or(0);
        for slot in 0..deepest {
            for request in &per_request {
                if let Some(event) = request.get(slot) {
                    events.push(event.clone());
                }
            }
        }

        let trees = build_span_trees(&events);
        prop_assert_eq!(trees.len(), shapes.len(), "one tree per request");
        let mut total = 0usize;
        for tree in &trees {
            let request = (tree.trace_id - 1_000) as usize;
            prop_assert_eq!(
                tree.roots.len(), 1,
                "exactly one root per request (the origin's only child)"
            );
            prop_assert_eq!(
                tree.roots[0].event.parent_span_id,
                Some(900_000 + request as u64),
                "the root's parent is the unrecorded origin span"
            );
            prop_assert_eq!(tree.len(), shapes[request].len() + 1, "no span lost");
            for root in &tree.roots {
                assert_node_well_formed(root, tree.trace_id, 0);
            }
            total += tree.len();
        }
        prop_assert_eq!(total, events.len(), "every spanned event lands in a tree");
    }
}

/// Pipelining real requests to a served stack yields one trace per
/// request. The server's frame-decode span is each tree's single root:
/// its parent, the root span the client minted at submit, is recorded by
/// no one. Below it hang the dispatch span, the traced layer's decision
/// and the fleet's innermost span. The same holds through an `Autoscaled`
/// layer, which must hand the server the stack's recorder.
#[test]
fn remote_submissions_build_one_trace_per_request() {
    use runtime::{Autoscaled, Autoscaler, ScalePolicy};

    let traced = || {
        let fleet = fleet();
        let recorder = Arc::new(TraceRecorder::new(4096));
        fleet.attach_trace(Arc::clone(&recorder));
        let stack = Traced::with_recorder(Metered::new(fleet.clone()), Arc::clone(&recorder));
        (fleet, recorder, stack)
    };
    let (_, recorder, stack) = traced();
    assert_one_trace_per_remote_request(Arc::new(stack), &recorder);

    let (fleet, recorder, stack) = traced();
    let controller = Arc::new(Autoscaler::new(Arc::new(fleet), ScalePolicy::Manual));
    assert_one_trace_per_remote_request(Arc::new(Autoscaled::new(stack, controller)), &recorder);
}

fn assert_one_trace_per_remote_request(stack: Arc<dyn AdmissionService>, recorder: &TraceRecorder) {
    let server = RemoteServer::bind(&"tcp:127.0.0.1:0".parse().unwrap(), stack).unwrap();
    let client = RemoteClient::connect(server.local_addr()).unwrap();
    let requests = 12usize;
    let completions: Vec<_> = (0..requests)
        .map(|i| client.submit(AdmissionRequest::new(i % 2)))
        .collect();
    for completion in &completions {
        let _ = completion.wait();
    }
    client.close();
    server.shutdown();

    let events = recorder.tail(recorder.len());
    let trees = build_span_trees(&events);
    assert_eq!(trees.len(), requests, "one trace per submitted request");
    for tree in &trees {
        let mut kinds = Vec::new();
        tree.walk(|event, _| kinds.push(event.kind));
        assert_eq!(tree.roots.len(), 1, "one root per request: {kinds:?}");
        let decode = &tree.roots[0];
        assert_eq!(
            decode.event.kind,
            TraceKind::FrameDecode,
            "FrameDecode traced: {kinds:?}"
        );
        assert_eq!(decode.event.trace_id, Some(tree.trace_id));
        let [dispatch] = decode.children.as_slice() else {
            panic!("one dispatch under the frame decode: {kinds:?}");
        };
        assert_eq!(dispatch.event.kind, TraceKind::Dispatch);
        assert_eq!(dispatch.event.parent_span_id, decode.event.span_id);
        let [decision] = dispatch.children.as_slice() else {
            panic!("one decision under the dispatch: {kinds:?}");
        };
        assert!(
            matches!(
                decision.event.kind,
                TraceKind::Admit | TraceKind::Reject | TraceKind::Saturate
            ),
            "decision traced: {kinds:?}"
        );
        let [fleet_admit] = decision.children.as_slice() else {
            panic!("one fleet span under the decision: {kinds:?}");
        };
        assert_eq!(fleet_admit.event.kind, TraceKind::FleetAdmit);
        // Parent links hold at every node, intervals nest from the dispatch
        // span down. The dispatch span starts after its parent frame decode
        // ends, so that one pair does not nest.
        assert_node_well_formed(dispatch, tree.trace_id, 100);
    }
}
