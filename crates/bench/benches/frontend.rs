//! Front-end vs direct service admission throughput.
//!
//! Measures the cost of queueing in front of the service stack: the same
//! admit+release round-trip batch executed (a) through a one-group
//! `FleetManager`'s `AdmissionService` implementation and (b) submitted
//! through the async `FrontEnd` event loop (queued, decided by the worker
//! pool, completion-waited). The delta is the price of queue + wakeup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use platform::{Application, Mapping, SystemSpec};
use runtime::{
    AdmissionRequest, AdmissionService, Completion, FleetConfig, FleetManager, FrontEnd,
    FrontEndConfig, RoutingPolicy,
};
use sdf::figure2_graphs;

const OPS_PER_SAMPLE: usize = 64;

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
    // One group of one shard whose capacity covers a whole sample: the
    // front-end case queues every admission of a batch before the first
    // release is submitted.
    FleetManager::new(
        spec(),
        FleetConfig::uniform(1, 1, OPS_PER_SAMPLE, RoutingPolicy::LeastUtilised),
    )
    .expect("valid fleet")
}

fn bench_front_end_vs_direct(c: &mut Criterion) {
    println!("\n===== Front-end vs direct service admission throughput =====");
    println!("{OPS_PER_SAMPLE} admit+release round-trips per sample:");

    let mut group = c.benchmark_group("frontend");
    group.sample_size(15);

    // (a) The fleet through the AdmissionService trait — the baseline.
    let service = fleet();
    group.bench_function(BenchmarkId::new("service_trait", "decisions"), |b| {
        b.iter(|| {
            for _ in 0..OPS_PER_SAMPLE {
                let decision = AdmissionService::admit(&service, &AdmissionRequest::new(0).on(0))
                    .expect("no analysis error");
                let resident = decision.resident().expect("fits");
                AdmissionService::release(&service, resident).expect("live resident");
            }
        });
    });

    // (b) Queued through the async front-end, batched submissions.
    for workers in [1usize, 4] {
        let front = FrontEnd::new(
            Box::new(fleet()),
            FrontEndConfig {
                workers,
                queue_capacity: OPS_PER_SAMPLE * 2,
            },
        );
        group.bench_with_input(
            BenchmarkId::new("front_end_workers", workers),
            &workers,
            |b, _| {
                b.iter(|| {
                    let completions: Vec<Completion> = (0..OPS_PER_SAMPLE)
                        .map(|_| front.submit(AdmissionRequest::new(0).on(0)))
                        .collect();
                    let releases: Vec<Completion<()>> = completions
                        .into_iter()
                        .map(|completion| {
                            let resident = completion
                                .wait()
                                .expect("no analysis error")
                                .resident()
                                .expect("fits");
                            front.submit_release(resident)
                        })
                        .collect();
                    for release in releases {
                        release.wait().expect("live resident");
                    }
                });
            },
        );
        front.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_front_end_vs_direct);
criterion_main!(benches);
