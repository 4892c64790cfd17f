//! Offline capacity planning — replaying a recorded admission journal
//! against hypothetical fleet shapes and reading the frontier.
//!
//! The flow mirrors how a designer would use the tool: record real traffic
//! once (`probcon fleet-bench --journal`), then ask "what if the fleet had
//! been smaller / bigger / shaped differently?" without ever re-running
//! the traffic (`probcon plan --sweep`).
//!
//! Run with: `cargo run --release --example capacity_planning`

use runtime::{
    run_requests, seeded_fleet_requests, FleetConfig, FleetManager, FlipKind, PlanRun, PlanSweep,
    RoutingPolicy,
};
use sdf::GeneratorConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A seeded 3-application workload, like `probcon fleet-bench` builds.
    let spec = experiments::workload::workload_with(2007, 3, &GeneratorConfig::with_actors(4))?;

    // Record reality: 300 seeded requests against a 2-group fleet of
    // capacity 3 per group. Every decision lands in the fleet's journal.
    let fleet = FleetManager::new(
        spec.clone(),
        FleetConfig::uniform(2, 1, 3, RoutingPolicy::LeastUtilised),
    )?;
    let stream = seeded_fleet_requests(&spec, 2, 300, 2007);
    run_requests(&fleet, Some(&fleet), stream, 1, None, None);
    let journal = fleet.journal();
    let recorded = FleetConfig::from_header(journal.header())?;
    println!(
        "== recorded {} decisions on a {recorded} fleet ==\n",
        journal.len()
    );

    // Sanity anchor: against the recorded shape, the planner reproduces
    // every decision — zero flips, by construction.
    let identity = PlanRun::new(&spec, journal, &recorded).execute()?;
    assert!(identity.flips.is_empty(), "identity replay must not flip");
    println!("== identity shape ==");
    print!("{}", identity.render());

    // What if capacity had been halved? Admissions reality served start
    // bouncing — each one a recorded regression with its sequence number.
    let halved = recorded.clone().scale_capacity(0.5);
    let report = PlanRun::new(&spec, journal, &halved).execute()?;
    println!("\n== halved capacity ==");
    print!("{}", report.render());
    assert!(
        report.count(FlipKind::AdmittedNowRejected) > 0,
        "halving capacity must regress some admission"
    );

    // Sweep a grid: 1..=3 groups × three capacity scales, replayed in
    // parallel on 4 workers, summarized by the frontier.
    let grid = PlanSweep::grid(&recorded, &[1, 2, 3], &[0.5, 1.0, 1.5], &[])?;
    let sweep = PlanSweep::new(&spec, journal)
        .shapes(grid)
        .workers(4)
        .flip_budget(3)
        .execute()?;
    println!("\n== sweep ==");
    print!("{}", sweep.render());
    let clean = sweep
        .smallest_clean_report()
        .expect("the recorded shape itself is clean");
    assert!(clean.shape.total_capacity() <= recorded.total_capacity());

    fleet.stop();
    Ok(())
}
