//! Telemetry-subsystem cost: what instrumentation adds to the hot path.
//!
//! Measures (a) the full admission stack with and without the `Traced`
//! flight-recorder shell at 8 worker threads — the acceptance bar is
//! traced staying within ~10% of untraced — and (b) the raw record
//! primitives underneath it (bounded histogram, atomic recorder, trace
//! ring), which bound the per-event cost every layer pays.

use criterion::{criterion_group, criterion_main, Criterion};
use platform::{Application, Mapping, SystemSpec};
use runtime::{
    run_requests, seeded_fleet_requests, Cached, FleetConfig, FleetManager, HistogramRecorder,
    LatencyHistogram, Metered, RoutingPolicy, TraceEvent, TraceKind, TraceRecorder, Traced,
};
use sdf::figure2_graphs;
use std::hint::black_box;
use std::time::Duration;

const GROUPS: usize = 4;
const REQUESTS: usize = 200;
const THREADS: usize = 8;

fn spec() -> SystemSpec {
    let (a, b) = figure2_graphs();
    SystemSpec::builder()
        .application(Application::new("A", a).expect("valid"))
        .application(Application::new("B", b).expect("valid"))
        .mapping(Mapping::by_actor_index(3))
        .build()
        .expect("valid spec")
}

fn fleet() -> FleetManager {
    FleetManager::new(
        spec(),
        FleetConfig::uniform(GROUPS, 1, 8, RoutingPolicy::LeastUtilised),
    )
    .expect("valid fleet")
}

fn bench_traced_overhead(c: &mut Criterion) {
    println!("\n===== Traced flight-recorder overhead at {THREADS} threads =====");
    println!("{REQUESTS} seeded admissions through Metered<Cached<FleetManager>> per sample;");
    println!("traced adds the ring-buffer shell and must stay within ~10% of untraced:");

    let spec = spec();
    let mut group = c.benchmark_group("traced_overhead");
    group.sample_size(15);

    let untraced_fleet = fleet();
    let untraced = Metered::new(Cached::new(untraced_fleet.clone(), 64));
    group.bench_function("untraced_8threads", |b| {
        b.iter(|| {
            let stream = seeded_fleet_requests(&spec, GROUPS, REQUESTS, 7);
            black_box(run_requests(
                &untraced,
                Some(&untraced_fleet),
                stream,
                THREADS,
                None,
                None,
            ));
        });
    });

    let traced_fleet = fleet();
    let traced = Traced::new(Metered::new(Cached::new(traced_fleet.clone(), 64)), 4096);
    group.bench_function("traced_8threads", |b| {
        b.iter(|| {
            let stream = seeded_fleet_requests(&spec, GROUPS, REQUESTS, 7);
            black_box(run_requests(
                &traced,
                Some(&traced_fleet),
                stream,
                THREADS,
                None,
                None,
            ));
        });
    });
    group.finish();
}

fn bench_record_primitives(c: &mut Criterion) {
    println!("\n===== Record-path primitives (per 1024 samples) =====");

    let mut group = c.benchmark_group("telemetry_primitives");
    group.sample_size(60);

    group.bench_function("histogram_record_1024", |b| {
        b.iter(|| {
            let mut histogram = LatencyHistogram::new();
            for i in 0u64..1024 {
                histogram.record(black_box((i * 7919) % 2_000_000));
            }
            black_box(histogram.p999())
        });
    });

    let recorder = HistogramRecorder::new();
    group.bench_function("atomic_recorder_record_1024", |b| {
        b.iter(|| {
            for i in 0u64..1024 {
                recorder.record(black_box((i * 7919) % 2_000_000));
            }
            black_box(recorder.count())
        });
    });

    let ring = TraceRecorder::new(4096);
    group.bench_function("trace_ring_record_1024", |b| {
        b.iter(|| {
            for i in 0u64..1024 {
                ring.record(
                    TraceEvent::new(TraceKind::Admit)
                        .app((i % 4) as usize)
                        .resident(i)
                        .duration(Duration::from_micros(i % 500)),
                );
            }
            black_box(ring.recorded())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_traced_overhead, bench_record_primitives);
criterion_main!(benches);
