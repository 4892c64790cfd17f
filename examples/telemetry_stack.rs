//! The fully-instrumented admission stack:
//! `Traced<Metered<Cached<FleetManager>>>` under concurrent
//! load, with the flight recorder shared between the `Traced` shell and
//! the cache layer (which owns estimate hit/miss events), a manual
//! rebalance span, Prometheus exposition of every layer's bounded
//! histograms, and the five slowest spans pulled from the recorder.
//!
//! Run with: `cargo run --release --example telemetry_stack`

use experiments::workload::workload_with;
use runtime::{
    run_requests, seeded_fleet_requests, AdmissionService, Cached, FleetConfig, FleetManager,
    Metered, RoutingPolicy, TraceEvent, TraceKind, TraceRecorder, Traced,
};
use sdf::GeneratorConfig;
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = workload_with(2007, 4, &GeneratorConfig::with_actors(4))?;
    let fleet = FleetManager::new(
        spec.clone(),
        FleetConfig::uniform(3, 1, 4, RoutingPolicy::LeastUtilised),
    )?;

    // One recorder, created first and threaded through the stack: the
    // cache layer records estimate spans with hit/miss flags, everything
    // else is recorded by the outermost `Traced` shell.
    let recorder = Arc::new(TraceRecorder::new(2048));
    let cached = Cached::new(fleet.clone(), 64);
    cached.attach_trace(Arc::clone(&recorder));
    let stack = Traced::with_recorder(Metered::new(cached), Arc::clone(&recorder));

    println!("== 600 admissions through three instrumented layers, 4 threads ==");
    let stream = seeded_fleet_requests(&spec, 3, 600, 2007);
    let (report, _) = run_requests(&stack, Some(&fleet), stream, 4, None, None);
    print!("{}", report.render());

    // Cross-group rebalancing is driven outside the service trait, so the
    // recorder API accepts hand-built spans for it: same ring, same tail.
    let rebalance_started = Instant::now();
    while let Some(step) = fleet.rebalance() {
        recorder.record(
            TraceEvent::new(TraceKind::Rebalance)
                .resident(step.resident)
                .duration(rebalance_started.elapsed()),
        );
    }

    println!("\n== Prometheus exposition (every layer, bounded histograms) ==");
    print!("{}", stack.telemetry().render_prometheus());

    println!("\n== five slowest spans in the flight recorder ==");
    for event in recorder.slowest(5) {
        println!(
            "  #{:<6} {:<10} {:>8}us  app={:?} resident={:?} cache_hit={:?}",
            event.seq,
            event.kind.name(),
            event.duration_micros,
            event.app_index,
            event.resident,
            event.cache_hit,
        );
    }
    let stats = recorder.stats();
    println!(
        "\nflight recorder: {} recorded, {} dropped (capacity {})",
        stats.recorded, stats.dropped, stats.capacity
    );

    // The fleet's journal three layers down saw every decision the
    // tracer saw.
    let journal = stack.inner().inner().inner().journal();
    println!("fleet journal three layers down: {} events", journal.len());
    assert!(stats.recorded > 0 && !journal.is_empty());
    Ok(())
}
