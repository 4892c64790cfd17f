//! The layered admission-service stack, end to end: one `AdmissionService`
//! trait, composable middleware (`Metered<Cached<FleetManager>>`) over a
//! fleet that journals every decision, sign-off cache warming, and the
//! async `FrontEnd` multiplexing hundreds of queued admissions over a
//! four-thread worker pool.
//!
//! Run with: `cargo run --release --example service_stack`

use contention::Method;
use experiments::signoff::sign_off;
use experiments::workload::workload_with;
use platform::UseCase;
use runtime::{
    AdmissionRequest, AdmissionService, Cached, Completion, FleetConfig, FleetManager, FrontEnd,
    FrontEndConfig, JournalReplayer, Metered, RoutingPolicy,
};
use sdf::GeneratorConfig;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = workload_with(2007, 4, &GeneratorConfig::with_actors(4))?;

    // One fleet, two middleware layers, one front-end — all the same
    // AdmissionService, so each layer wraps any other. The layer we want
    // to inspect later is held behind an Arc.
    let fleet = FleetManager::new(
        spec.clone(),
        FleetConfig::uniform(3, 1, 4, RoutingPolicy::LeastUtilised),
    )?;
    let cached = Arc::new(Cached::new(fleet.clone(), 64));

    println!("== cache warming from the sign-off artefact ==");
    let report = sign_off(&spec, Method::Composability, None)?;
    let warmed = cached.warm_from_signoff(&report)?;
    println!("warmed {warmed} estimates (all 2^4 - 1 use-cases) before traffic");

    let front = FrontEnd::new(
        Box::new(Metered::new(Arc::clone(&cached))),
        FrontEndConfig {
            workers: 4,
            queue_capacity: 1024,
        },
    );

    println!("\n== non-blocking submission: 200 queued admissions, 4 workers ==");
    let completions: Vec<Completion> = (0..200)
        .map(|i| front.submit(AdmissionRequest::new(i)))
        .collect();
    println!("peak queue depth: {}", front.peak_queue_depth());
    let mut residents = Vec::new();
    let mut saturated = 0usize;
    for completion in completions {
        let decision = completion.wait()?;
        match decision.resident() {
            Some(resident) => residents.push(resident),
            None => saturated += 1,
        }
    }
    println!(
        "{} admitted (fleet capacity 12), {} saturated, every completion resolved",
        residents.len(),
        saturated
    );

    // Estimates ride the same stack and hit the warmed cache.
    for mask in [1u64, 3, 7, 15, 15, 7] {
        front.estimate(UseCase::from_mask(mask), Method::Composability)?;
    }
    println!(
        "estimate cache after traffic: {} hits, {} misses (warmed entries serve)",
        cached.cache().hits(),
        cached.cache().misses()
    );

    // Release through the queue, then read the per-layer metrics table.
    let releases: Vec<Completion<()>> = residents
        .into_iter()
        .map(|resident| front.submit_release(resident))
        .collect();
    for release in releases {
        release.wait()?;
    }

    println!("\n== one consistent per-layer metrics table ==");
    print!("{}", AdmissionService::snapshot(&front).render());
    front.shutdown();

    println!("\n== the fleet's journal replays outcome for outcome ==");
    let journal = runtime::Journal::parse(&fleet.journal().render())?;
    let (replay, _fleet) = JournalReplayer::new(&spec).replay(
        &journal,
        FleetConfig::uniform(3, 1, 4, RoutingPolicy::LeastUtilised),
    )?;
    print!("{}", replay.render());
    assert!(replay.is_equivalent());
    Ok(())
}
