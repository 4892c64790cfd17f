//! Multi-platform fleet management with an audited admission journal —
//! the `runtime` crate's `FleetManager` routing admissions across
//! heterogeneous platform groups, rebalancing residents, and recording
//! every decision for deterministic replay.
//!
//! Run with: `cargo run --release --example fleet_journal`

use platform::{AppId, Application, Mapping, SystemSpec};
use runtime::{
    AdmissionDecision, AdmissionRequest, AdmissionService, FleetConfig, FleetManager, GroupConfig,
    JournalReplayer, RoutingPolicy,
};
use sdf::{figure2_graphs, Rational};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (a, b) = figure2_graphs();
    let spec = SystemSpec::builder()
        .application(Application::new("video", a)?)
        .application(Application::new("audio", b)?)
        .mapping(Mapping::by_actor_index(3))
        .build()?;

    // A heterogeneous fleet: a big "video" group and a small "audio" one,
    // routed by affinity tag with least-utilised fallback.
    let fleet = FleetManager::new(
        spec.clone(),
        FleetConfig {
            groups: vec![
                GroupConfig::new("video-nodes", 2, 3).with_tags(["video"]),
                GroupConfig::new("audio-nodes", 1, 2).with_tags(["audio"]),
            ],
            policy: RoutingPolicy::Affinity,
        },
    )?;

    println!("== affinity routing with throughput contracts ==");
    // Admissions go through the unified AdmissionService vocabulary — the
    // same requests could drive a remote client or a whole middleware
    // stack unchanged.
    let contract = spec.application(AppId(0)).isolation_throughput() * Rational::new(3, 5);
    let mut residents = Vec::new();
    for (app_index, affinity) in [(0, "video"), (1, "audio"), (0, "video"), (1, "audio")] {
        let request = AdmissionRequest::new(app_index)
            .with_contract(contract)
            .with_affinity(affinity);
        let decision = AdmissionService::admit(&fleet, &request)?;
        let group = fleet.group_name(decision.domain())?;
        match &decision {
            AdmissionDecision::Admitted {
                resident,
                predicted_period,
                ..
            } => {
                println!(
                    "{affinity:<6} -> {group} (resident #{resident}, \
                     predicted period {predicted_period})"
                );
                residents.push(*resident);
            }
            AdmissionDecision::Rejected { violations, .. } => {
                println!(
                    "{affinity:<6} -> {group}: rejected ({} violations)",
                    violations.len()
                );
            }
            AdmissionDecision::Saturated { .. } => {
                println!("{affinity:<6} -> {group}: saturated");
            }
        }
    }

    println!("\n== cross-group rebalancing ==");
    while let Some(mv) = fleet.rebalance() {
        println!(
            "moved resident #{} from {} to {} (predicted period {})",
            mv.resident,
            fleet.group_name(mv.from)?,
            fleet.group_name(mv.to)?,
            mv.predicted_period,
        );
    }
    print!("{}", fleet.snapshot().render());

    println!("\n== journal persistence and deterministic replay ==");
    for resident in residents.drain(..) {
        AdmissionService::release(&fleet, resident)?;
    }
    let path = std::env::temp_dir().join("fleet_journal_example.jsonl");
    fleet.journal().write_to(&path)?;
    println!(
        "wrote {} checksummed decisions to {}",
        fleet.journal().len(),
        path.display()
    );

    let journal = runtime::Journal::read_from(&path)?;
    // The header stamps every group's exact shape — heterogeneous fleets
    // included — so the journal alone rebuilds the fleet it was recorded
    // on, and every admit, rejection, release and rebalance must reproduce
    // its exact recorded outcome.
    let config = FleetConfig::from_header(journal.header())?;
    assert_eq!(config.groups[1].name, "audio-nodes");
    assert_eq!(config.groups[1].capacity(), 2);
    let (report, _replayed) = JournalReplayer::new(&spec).replay(&journal, config)?;
    print!("{}", report.render());
    assert!(
        report.is_equivalent(),
        "replay must reproduce the recording"
    );
    Ok(())
}
