//! The layered admission-service stack, end to end: one `AdmissionService`
//! trait, composable middleware (`Metered<Cached<FleetManager>>`) over a
//! fleet that journals every decision, sign-off cache warming, and four
//! threads deciding through one shared stack: every layer takes `&self`,
//! so concurrent callers need no wrapper.
//!
//! Run with: `cargo run --release --example service_stack`

use contention::Method;
use experiments::signoff::sign_off;
use experiments::workload::workload_with;
use platform::UseCase;
use runtime::{
    AdmissionDecision, AdmissionRequest, AdmissionService, Cached, FleetConfig, FleetManager,
    JournalReplayer, Metered, RoutingPolicy, ServiceError,
};
use sdf::GeneratorConfig;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = workload_with(2007, 4, &GeneratorConfig::with_actors(4))?;

    // One fleet, two middleware layers — all the same AdmissionService, so
    // each layer wraps any other. The layer we want to inspect later is
    // held behind an Arc.
    let fleet = FleetManager::new(
        spec.clone(),
        FleetConfig::uniform(3, 1, 4, RoutingPolicy::LeastUtilised),
    )?;
    let cached = Arc::new(Cached::new(fleet.clone(), 64));

    println!("== cache warming from the sign-off artefact ==");
    let report = sign_off(&spec, Method::Composability, None)?;
    let warmed = cached.warm_from_signoff(&report)?;
    println!("warmed {warmed} estimates (all 2^4 - 1 use-cases) before traffic");

    let stack = Metered::new(Arc::clone(&cached));

    println!("\n== concurrent admission: 200 requests from 4 threads ==");
    let decisions = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..4)
            .map(|first| {
                let stack = &stack;
                scope.spawn(move || -> Result<Vec<AdmissionDecision>, ServiceError> {
                    (first..200)
                        .step_by(4)
                        .map(|i| stack.admit(&AdmissionRequest::new(i)))
                        .collect()
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|thread| thread.join().expect("admission thread"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let mut residents = Vec::new();
    let mut saturated = 0usize;
    for decision in decisions.into_iter().flatten() {
        match decision.resident() {
            Some(resident) => residents.push(resident),
            None => saturated += 1,
        }
    }
    println!(
        "{} admitted (fleet capacity 12), {} saturated, every request decided",
        residents.len(),
        saturated
    );

    // Estimates ride the same stack and hit the warmed cache.
    for mask in [1u64, 3, 7, 15, 15, 7] {
        stack.estimate(UseCase::from_mask(mask), Method::Composability)?;
    }
    println!(
        "estimate cache after traffic: {} hits, {} misses (warmed entries serve)",
        cached.cache().hits(),
        cached.cache().misses()
    );

    // Release through the same stack, then read the per-layer metrics
    // table.
    for resident in residents {
        stack.release(resident)?;
    }

    println!("\n== one consistent per-layer metrics table ==");
    print!("{}", stack.snapshot().render());

    println!("\n== the fleet's journal replays outcome for outcome ==");
    let journal = runtime::Journal::parse(&fleet.journal().render()?)?;
    let (replay, _fleet) = JournalReplayer::new(&spec).replay(
        &journal,
        FleetConfig::uniform(3, 1, 4, RoutingPolicy::LeastUtilised),
    )?;
    print!("{}", replay.render());
    assert!(replay.is_equivalent());
    Ok(())
}
