//! Fleet-manager throughput: routed admissions across platform groups
//! (with journaling on every decision) and deterministic journal replay.
//!
//! Measures (a) admit+release round-trips through each routing policy —
//! the per-decision cost of routing + analysis + journal append — and
//! (b) end-to-end replay of a recorded decision stream, the regression
//! oracle `probcon replay` runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use platform::{Application, Mapping, SystemSpec};
use runtime::{
    run_requests, seeded_fleet_requests, AdmissionRequest, AdmissionService, FleetConfig,
    FleetManager, JournalReplayer, RoutingPolicy,
};
use sdf::figure2_graphs;

const GROUPS: usize = 4;
const OPS_PER_SAMPLE: usize = 32;

fn spec() -> SystemSpec {
    let (a, b) = figure2_graphs();
    SystemSpec::builder()
        .application(Application::new("A", a).expect("valid"))
        .application(Application::new("B", b).expect("valid"))
        .mapping(Mapping::by_actor_index(3))
        .build()
        .expect("valid spec")
}

fn bench_routed_admission(c: &mut Criterion) {
    println!("\n===== Fleet admission throughput by routing policy =====");
    println!(
        "{OPS_PER_SAMPLE} journaled admit+release round-trips across {GROUPS} groups per sample:"
    );

    let mut group = c.benchmark_group("fleet_admission");
    group.sample_size(15);
    for policy in [
        RoutingPolicy::LeastUtilised,
        RoutingPolicy::RoundRobin,
        RoutingPolicy::Affinity,
    ] {
        let fleet = FleetManager::new(spec(), FleetConfig::uniform(GROUPS, 1, 8, policy))
            .expect("valid fleet");
        group.bench_with_input(
            BenchmarkId::new("admit_release_32ops", policy),
            &policy,
            |b, _| {
                b.iter(|| {
                    for i in 0..OPS_PER_SAMPLE {
                        let request =
                            AdmissionRequest::new(i).with_affinity(format!("uc{}", i % GROUPS));
                        let decision = fleet.admit(&request).expect("no analysis error");
                        if let Some(resident) = decision.resident() {
                            fleet.release(resident).expect("live resident");
                        }
                    }
                });
            },
        );
    }
    group.finish();
}

fn bench_journal_replay(c: &mut Criterion) {
    println!("\n===== Journal replay (deterministic re-execution) =====");

    // Record once: a seeded 200-request stream across 4 groups.
    let spec = spec();
    let fleet = FleetManager::new(
        spec.clone(),
        FleetConfig::uniform(GROUPS, 1, 4, RoutingPolicy::LeastUtilised),
    )
    .expect("valid fleet");
    let stream = seeded_fleet_requests(&spec, GROUPS, 200, 2026);
    run_requests(&fleet, Some(&fleet), stream, 1, None, None);
    let journal = runtime::Journal::parse(&fleet.journal().render()).expect("round-trips");
    println!(
        "replaying {} recorded decisions per iteration:",
        journal.len()
    );

    let mut group = c.benchmark_group("fleet_replay");
    group.sample_size(10);
    group.bench_function("replay_200req_journal", |b| {
        b.iter(|| {
            let (report, _fleet) = JournalReplayer::new(&spec)
                .replay(
                    &journal,
                    FleetConfig::uniform(GROUPS, 1, 4, RoutingPolicy::LeastUtilised),
                )
                .expect("replays");
            assert!(report.is_equivalent());
        });
    });
    group.finish();
}

criterion_group!(benches, bench_routed_admission, bench_journal_replay);
criterion_main!(benches);
