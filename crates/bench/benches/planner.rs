//! Capacity-planner throughput: one counterfactual replay, and sweep
//! scaling with worker count.
//!
//! Measures (a) a single [`PlanRun`] over a recorded journal — the cost of
//! one what-if answer — and (b) a fixed 8-shape [`PlanSweep`] grid executed
//! on 1/2/4/8 workers, showing how sweep wall-clock scales when shapes are
//! replayed in parallel (`probcon plan --sweep --workers N`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use platform::{Application, Mapping, SystemSpec};
use runtime::{
    run_requests, seeded_fleet_requests, FleetConfig, FleetManager, FleetShape, Journal, PlanRun,
    PlanSweep, RoutingPolicy,
};
use sdf::figure2_graphs;

const GROUPS: usize = 2;
const REQUESTS: usize = 300;

fn spec() -> SystemSpec {
    let (a, b) = figure2_graphs();
    SystemSpec::builder()
        .application(Application::new("A", a).expect("valid"))
        .application(Application::new("B", b).expect("valid"))
        .mapping(Mapping::by_actor_index(3))
        .build()
        .expect("valid spec")
}

/// Records the seeded journal every benchmark replays.
fn recorded_journal(spec: &SystemSpec) -> Journal {
    let fleet = FleetManager::new(
        spec.clone(),
        FleetConfig::uniform(GROUPS, 1, 3, RoutingPolicy::LeastUtilised),
    )
    .expect("valid fleet");
    let stream = seeded_fleet_requests(spec, GROUPS, REQUESTS, 2026);
    run_requests(&fleet, Some(&fleet), stream, 1, None, None);
    Journal::parse(&fleet.journal().render()).expect("round-trips")
}

fn bench_plan_run(c: &mut Criterion) {
    println!("\n===== Capacity planner: one counterfactual replay =====");
    let spec = spec();
    let journal = recorded_journal(&spec);
    let recorded = FleetShape::from_header(journal.header());
    println!(
        "replaying {} recorded decisions per iteration:",
        journal.len()
    );

    let mut group = c.benchmark_group("planner_run");
    group.sample_size(10);
    for (label, shape) in [
        ("identity", recorded.clone()),
        ("halved_capacity", recorded.clone().scale_capacity(0.5)),
        ("extra_group", recorded.clone().with_group_count(GROUPS + 1)),
    ] {
        group.bench_with_input(BenchmarkId::new("what_if", label), &shape, |b, shape| {
            b.iter(|| {
                let report = PlanRun::new(&spec, &journal, shape)
                    .execute()
                    .expect("plans");
                assert_eq!(report.events, journal.len());
            });
        });
    }
    group.finish();
}

fn bench_sweep_workers(c: &mut Criterion) {
    println!("\n===== Capacity planner: sweep throughput vs worker count =====");
    let spec = spec();
    let journal = recorded_journal(&spec);
    let base = FleetShape::from_header(journal.header());
    let grid = PlanSweep::grid(&base, &[1, 2, 3, 4], &[0.5, 1.0], &[]);
    println!(
        "sweeping {} shapes × {} decisions per iteration:",
        grid.len(),
        journal.len()
    );

    let mut group = c.benchmark_group("planner_sweep");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("grid8_workers", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let report = PlanSweep::new(&spec, &journal)
                        .shapes(grid.clone())
                        .workers(workers)
                        .execute()
                        .expect("sweeps");
                    assert_eq!(report.reports.len(), grid.len());
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_plan_run, bench_sweep_workers);
criterion_main!(benches);
