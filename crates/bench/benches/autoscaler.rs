//! Elastic-controller overhead: what one autoscaler tick costs, and what
//! a journaled resize costs the fleet.
//!
//! Three layers, separated so regressions attribute cleanly:
//! (a) [`evaluate`] — the pure policy decision over an N-group
//! observation, the cost paid even when nothing fires; (b) a full
//! [`Autoscaler::tick`] against a live in-band fleet — telemetry
//! sampling plus evaluation, the steady-state background cost of
//! `probcon serve --autoscale`; (c) a grow+shrink [`FleetManager::resize`]
//! round-trip — the journaled mutation path a firing action takes.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use platform::{Application, Mapping, SystemSpec};
use runtime::{
    evaluate, AdmissionRequest, AdmissionService, Autoscaler, ControllerState, FleetConfig,
    FleetManager, GroupObservation, Observation, RoutingPolicy, ScaleAction, ScalePolicy,
    TargetPolicy,
};
use sdf::figure2_graphs;

fn spec() -> SystemSpec {
    let (a, b) = figure2_graphs();
    SystemSpec::builder()
        .application(Application::new("A", a).expect("valid"))
        .application(Application::new("B", b).expect("valid"))
        .mapping(Mapping::by_actor_index(3))
        .build()
        .expect("valid spec")
}

/// An in-band observation: utilisation 0.5 sits inside the default
/// 0.3–0.85 target band, so `evaluate` walks every group yet fires
/// nothing — the common steady-state case.
fn in_band_observation(groups: usize) -> Observation {
    Observation {
        groups: (0..groups)
            .map(|g| GroupObservation {
                group: g as u64,
                residents: 4,
                capacity: 8,
                capacity_per_shard: 8,
                shards: 1,
                retired: false,
            })
            .collect(),
        utilisation: 0.5,
    }
}

fn bench_evaluate(c: &mut Criterion) {
    println!("\n===== Autoscaler: pure policy evaluation =====");
    let policy = TargetPolicy::default().normalized();

    let mut group = c.benchmark_group("autoscaler_evaluate");
    for groups in [4usize, 64] {
        let observation = in_band_observation(groups);
        group.bench_with_input(
            BenchmarkId::new("in_band_groups", groups),
            &observation,
            |b, observation| {
                let mut state = ControllerState::default();
                b.iter(|| evaluate(&policy, observation, &mut state));
            },
        );
    }
    group.finish();
}

fn bench_tick(c: &mut Criterion) {
    println!("\n===== Autoscaler: full tick against a live fleet =====");
    let spec = spec();
    let fleet = FleetManager::new(
        spec,
        FleetConfig::uniform(2, 1, 8, RoutingPolicy::LeastUtilised),
    )
    .expect("valid fleet");
    // Park residents at half capacity so the target band holds and every
    // tick is a no-action sample — the steady-state serve overhead.
    for i in 0..8 {
        let _ = fleet.admit(&AdmissionRequest::new(i));
    }
    let controller = Autoscaler::new(
        Arc::new(fleet),
        ScalePolicy::Target(TargetPolicy::default()),
    );

    let mut group = c.benchmark_group("autoscaler_tick");
    group.sample_size(10);
    group.bench_function("in_band_no_action", |b| {
        b.iter(|| controller.tick().expect("ticks"));
    });
    group.finish();
}

fn bench_resize(c: &mut Criterion) {
    println!("\n===== Autoscaler: journaled resize round-trip =====");
    let spec = spec();
    let fleet = FleetManager::new(
        spec,
        FleetConfig::uniform(2, 1, 8, RoutingPolicy::LeastUtilised),
    )
    .expect("valid fleet");

    let mut group = c.benchmark_group("autoscaler_resize");
    // Each iteration appends two journal entries; keep the in-memory
    // journal bounded by keeping samples short.
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(200));
    group.bench_function("grow_then_shrink", |b| {
        b.iter(|| {
            fleet
                .resize(ScaleAction::Grow {
                    group: 0,
                    capacity_per_shard: 9,
                })
                .expect("grows");
            fleet
                .resize(ScaleAction::Shrink {
                    group: 0,
                    capacity_per_shard: 8,
                })
                .expect("shrinks");
        });
    });
    group.finish();
    fleet.stop();
}

criterion_group!(benches, bench_evaluate, bench_tick, bench_resize);
criterion_main!(benches);
