//! Elastic fleet capacity — the `runtime::autoscaler` control loop
//! closing the plan→serve gap: a target-utilisation policy observes the
//! fleet, grows it under load, a drain rebalances a group empty before
//! retiring it, and the journaled run replays outcome-for-outcome,
//! resizes included.
//!
//! Run with: `cargo run --release --example elastic_fleet`

use std::sync::Arc;

use platform::{Application, Mapping, SystemSpec};
use runtime::{
    AdmissionRequest, AdmissionService, Autoscaler, FleetConfig, FleetManager, JournalReplayer,
    RoutingPolicy, ScaleAction, ScalePolicy, TargetPolicy,
};
use sdf::figure2_graphs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (a, b) = figure2_graphs();
    let spec = SystemSpec::builder()
        .application(Application::new("video", a)?)
        .application(Application::new("audio", b)?)
        .mapping(Mapping::by_actor_index(3))
        .build()?;

    // Two small groups; the controller may raise per-shard capacity up to 6.
    let fleet = Arc::new(FleetManager::new(
        spec.clone(),
        FleetConfig::uniform(2, 1, 2, RoutingPolicy::LeastUtilised),
    )?);

    println!("== a hot fleet under a target-utilisation policy ==");
    // Aggressive knobs so the demo converges in a handful of ticks: grow
    // on the first above-band sample, no cooldown between actions.
    let policy = TargetPolicy {
        low: 0.25,
        high: 0.75,
        grow_after: 1,
        shrink_after: 2,
        cooldown: 0,
        min_capacity_per_shard: 1,
        max_capacity_per_shard: 6,
        step: 1,
        add_group_at_max: false,
        drain_at_min: false,
    };
    let controller = Autoscaler::new(Arc::clone(&fleet), ScalePolicy::Target(policy));

    // Saturate the fleet: park residents (they stay resident until
    // released by id) until both groups are full.
    let mut parked = 0;
    for i in 0..4 {
        if fleet.admit(&AdmissionRequest::new(i))?.is_admitted() {
            parked += 1;
        }
    }
    println!(
        "parked {parked} residents; {}",
        controller.status().render()
    );

    // Tick the control loop by hand (probcon serve --autoscale runs the
    // same loop in a background thread). Each applied grow is journaled.
    for tick in 0..4 {
        if let Some((action, outcome)) = controller.tick()? {
            println!("tick {tick}: {action:?} -> {outcome:?}");
        }
    }
    // The fleet's own snapshot, called by path: on an `Arc<FleetManager>`
    // the in-scope trait's `snapshot` would resolve first.
    let snapshot = FleetManager::snapshot(&fleet);
    println!(
        "fleet grew to capacity {} ({} resizes journaled)",
        snapshot.groups.iter().map(|g| g.capacity).sum::<usize>(),
        snapshot.resizes,
    );

    println!("\n== draining a group empty before retiring it ==");
    // A drain is all-or-nothing: it rebalances every resident out before
    // retiring the group, and refuses (journaled, fleet untouched) when
    // any resident cannot be placed. Right now group 0 lacks the headroom
    // for both of group 1's residents:
    let refused = fleet.resize(ScaleAction::Drain { group: 1 })?;
    println!("drain group 1 -> {refused:?}");
    // Make room — the same resize API the controller drives (this is what
    // ScalePolicy::Manual leaves to the operator) — and drain again.
    fleet.resize(ScaleAction::Grow {
        group: 0,
        capacity_per_shard: 5,
    })?;
    let outcome = fleet.resize(ScaleAction::Drain { group: 1 })?;
    println!("after growing group 0: drain group 1 -> {outcome:?}");
    print!("{}", FleetManager::snapshot(&fleet).render());

    println!("\n== the autoscaled run replays outcome-for-outcome ==");
    let journal = runtime::Journal::parse(&fleet.journal().render()?)?;
    let config = FleetConfig::from_header(journal.header())?;
    let (report, _replayed) = JournalReplayer::new(&spec).replay(&journal, config)?;
    print!("{}", report.render());
    assert!(
        report.is_equivalent(),
        "replay must reproduce the recording, resizes included"
    );
    Ok(())
}
