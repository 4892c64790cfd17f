//! Elastic-fleet integration tests: the autoscaler control loop, the
//! all-or-nothing drain contract, and the acceptance oracle the feature
//! hangs off — an autoscaled recording (grows, shrinks, drains and all)
//! replays outcome-for-outcome and plans its identity shape with zero
//! flips.

mod common;

use common::journaled;
use std::sync::Arc;

use experiments::workload::workload_with;
use runtime::{
    AdmissionDecision, AdmissionRequest, AdmissionService, Autoscaler, DecisionEvent, FleetConfig,
    FleetManager, GroupConfig, JournalHeader, JournalReplayer, PlanRun, RoutingPolicy, ScaleAction,
    ScaleOutcome, ScalePolicy, ScaleRefusal, TargetPolicy, JOURNAL_VERSION,
};
use sdf::GeneratorConfig;

const SEED: u64 = 2007;
const APPS: usize = 5;
const ACTORS: usize = 4;

fn spec() -> platform::SystemSpec {
    workload_with(SEED, APPS, &GeneratorConfig::with_actors(ACTORS)).expect("workload")
}

fn header(groups: usize, shards: usize, capacity: usize) -> JournalHeader {
    JournalHeader {
        version: JOURNAL_VERSION,
        seed: SEED,
        apps: APPS as u64,
        actors: ACTORS as u64,
        groups: groups as u64,
        shards_per_group: shards as u64,
        capacity_per_shard: capacity as u64,
        policy: RoutingPolicy::LeastUtilised.to_string(),
        group_shapes: Vec::new(),
    }
}

fn fleet(groups: usize, shards: usize, capacity: usize) -> FleetManager {
    FleetManager::with_header(
        spec(),
        FleetConfig::uniform(groups, shards, capacity, RoutingPolicy::LeastUtilised),
        header(groups, shards, capacity),
    )
    .expect("fleet")
}

/// Parks `count` residents on `group`; they stay resident for the test's
/// duration (nothing releases them).
fn park(fleet: &FleetManager, group: usize, count: usize) -> Vec<u64> {
    let mut residents = Vec::new();
    for i in 0..count {
        match fleet
            .admit(&AdmissionRequest::new(i).on(group))
            .expect("admits")
        {
            AdmissionDecision::Admitted { resident, .. } => residents.push(resident),
            other => panic!("parking admission bounced: {other:?}"),
        }
    }
    residents
}

// ---------------------------------------------------------------------------
// Satellite: the DrainGroup contract.
// ---------------------------------------------------------------------------

/// A drain rebalances EVERY resident out before retiring the group, and
/// the journal shows the moves strictly before the resize entry — which
/// is exactly why a replay (which re-executes entries in order) finds
/// the group empty when it reaches the drain.
#[test]
fn drain_rebalances_every_resident_before_removal() {
    let fleet = fleet(2, 1, 4);
    let movers = park(&fleet, 1, 2);
    park(&fleet, 0, 1);

    let outcome = fleet
        .resize(ScaleAction::Drain { group: 1 })
        .expect("drain decides");
    assert_eq!(outcome, ScaleOutcome::Applied);

    let snapshot = fleet.snapshot();
    assert!(snapshot.groups[1].retired, "drained group must retire");
    assert_eq!(
        snapshot.groups[1].residents, 0,
        "drained group must be empty"
    );
    assert_eq!(
        snapshot.groups[0].residents, 3,
        "every resident rebalanced out"
    );
    assert_eq!(snapshot.resizes, 1);
    assert_eq!(snapshot.resize_refusals, 0);

    // Journal order: each mover's Rebalance entry precedes the Resize.
    let events = journaled(fleet.journal());
    let resize_at = events
        .iter()
        .position(|e| matches!(e, DecisionEvent::Resize { .. }))
        .expect("drain journaled");
    for &resident in &movers {
        let moved_at = events
            .iter()
            .position(|e| {
                matches!(
                    e,
                    DecisionEvent::Rebalance { resident: r, .. } if *r == resident
                )
            })
            .unwrap_or_else(|| panic!("resident {resident} has a journaled move"));
        assert!(
            moved_at < resize_at,
            "resident {resident} moved at {moved_at}, after the drain at {resize_at}"
        );
    }

    // And the whole recording replays outcome-for-outcome.
    let journal = runtime::Journal::parse(&fleet.journal().render().expect("journal renders"))
        .expect("round-trips");
    let config = FleetConfig::from_header(journal.header()).expect("config");
    let (report, _) = JournalReplayer::new(&spec())
        .replay(&journal, config)
        .expect("replays");
    assert!(report.is_equivalent(), "{report:?}");
}

/// When any resident cannot be placed, the drain refuses as a whole:
/// nothing moves, nothing retires — the fleet is exactly as it was, plus
/// one journaled refusal.
#[test]
fn drain_refuses_unplaceable_without_mutating_the_fleet() {
    let fleet = fleet(2, 1, 2);
    // Both groups full: no headroom anywhere for group 1's residents.
    park(&fleet, 0, 2);
    park(&fleet, 1, 2);
    let before = fleet.snapshot();

    let outcome = fleet
        .resize(ScaleAction::Drain { group: 1 })
        .expect("drain decides");
    assert!(
        matches!(
            outcome,
            ScaleOutcome::Refused {
                reason: ScaleRefusal::Unplaceable { .. }
            }
        ),
        "expected an unplaceable refusal, got {outcome:?}"
    );

    let after = fleet.snapshot();
    assert_eq!(after.resize_refusals, before.resize_refusals + 1);
    assert_eq!(after.resizes, before.resizes);
    // Refusal counter aside, the fleet is untouched: same residents in
    // the same groups, nothing retired, no rebalances recorded.
    assert_eq!(after.groups, before.groups);
    assert_eq!(after.rebalances, before.rebalances);
    assert!(!after.groups[1].retired);

    // The refusal is journaled — and the recording still replays.
    let journal = runtime::Journal::parse(&fleet.journal().render().expect("journal renders"))
        .expect("round-trips");
    assert!(journaled(&journal).iter().any(|e| matches!(
        e,
        DecisionEvent::Resize {
            outcome: ScaleOutcome::Refused { .. },
            ..
        }
    )));
    let config = FleetConfig::from_header(journal.header()).expect("config");
    let (report, _) = JournalReplayer::new(&spec())
        .replay(&journal, config)
        .expect("replays");
    assert!(report.is_equivalent(), "{report:?}");
}

/// The last active group can never be drained away.
#[test]
fn drain_refuses_the_last_active_group() {
    let fleet = fleet(2, 1, 4);
    park(&fleet, 0, 1);
    assert_eq!(
        fleet
            .resize(ScaleAction::Drain { group: 1 })
            .expect("drain decides"),
        ScaleOutcome::Applied
    );
    assert_eq!(
        fleet
            .resize(ScaleAction::Drain { group: 0 })
            .expect("drain decides"),
        ScaleOutcome::Refused {
            reason: ScaleRefusal::LastGroup
        }
    );
    assert!(!fleet.snapshot().groups[0].retired);
}

// ---------------------------------------------------------------------------
// Acceptance: autoscaled runs replay and plan like any other.
// ---------------------------------------------------------------------------

/// Drives a live controller through a grow phase (parked load above the
/// band) and a shrink phase (load released below the band), then checks
/// the acceptance oracle: the journal contains both resize kinds, the
/// replayer verifies it outcome-for-outcome, and the planner's identity
/// shape reports zero flips with the resizes re-applied.
#[test]
fn autoscaled_run_replays_and_plans_identity_with_zero_flips() {
    let fleet = fleet(2, 1, 2);
    let policy = TargetPolicy {
        low: 0.2,
        high: 0.5,
        grow_after: 1,
        shrink_after: 1,
        cooldown: 0,
        min_capacity_per_shard: 2,
        max_capacity_per_shard: 8,
        step: 2,
        add_group_at_max: false,
        drain_at_min: false,
    };
    let controller = Autoscaler::new(Arc::new(fleet.clone()), ScalePolicy::Target(policy));

    // Phase 1: saturate, and tick until the controller has grown the
    // fleet at least twice.
    let residents: Vec<u64> = (0..2).flat_map(|g| park(&fleet, g, 2)).collect();
    let mut grows = 0;
    for _ in 0..16 {
        if let Some((ScaleAction::Grow { .. }, ScaleOutcome::Applied)) =
            controller.tick().expect("ticks")
        {
            grows += 1;
            if grows >= 2 {
                break;
            }
        }
    }
    assert!(grows >= 2, "controller must grow a saturated fleet");

    // Phase 2: release everything; the now-idle fleet shrinks back.
    for resident in residents {
        assert!(fleet.release_resident(resident), "resident releases");
    }
    let mut shrinks = 0;
    for _ in 0..16 {
        if let Some((ScaleAction::Shrink { .. }, ScaleOutcome::Applied)) =
            controller.tick().expect("ticks")
        {
            shrinks += 1;
            if shrinks >= 2 {
                break;
            }
        }
    }
    assert!(shrinks >= 2, "controller must shrink an idle fleet");

    let journal = runtime::Journal::parse(&fleet.journal().render().expect("journal renders"))
        .expect("round-trips");
    let kinds: Vec<&str> = journaled(&journal)
        .iter()
        .filter_map(|e| match e {
            DecisionEvent::Resize {
                action: ScaleAction::Grow { .. },
                ..
            } => Some("grow"),
            DecisionEvent::Resize {
                action: ScaleAction::Shrink { .. },
                ..
            } => Some("shrink"),
            _ => None,
        })
        .collect();
    assert!(kinds.contains(&"grow") && kinds.contains(&"shrink"));

    // Replayer: outcome-for-outcome.
    let config = FleetConfig::from_header(journal.header()).expect("config");
    let (report, replayed) = JournalReplayer::new(&spec())
        .replay(&journal, config)
        .expect("replays");
    assert!(report.is_equivalent(), "{report:?}");
    // The replayed fleet landed on the same final shape.
    assert_eq!(replayed.snapshot().capacity, fleet.snapshot().capacity);

    // Planner: identity shape, zero flips, resizes re-applied as data.
    let shape = FleetConfig::from_header(journal.header()).expect("shape");
    let identity = PlanRun::new(&spec(), &journal, &shape)
        .execute()
        .expect("plans");
    assert_eq!(identity.flips, vec![]);
    assert!(identity.resizes_applied >= 4, "{identity:?}");
    assert_eq!(identity.resizes_refused, 0);
    assert_eq!(identity.recorded, identity.hypothetical);
}

/// Compacts `fleet`'s whole journal into one snapshot checkpoint and
/// checks that its group state is the starting shape for replay and plan
/// alike: both restore every resident, the identity plan flips nothing,
/// and its groups have the capacities the recording ended with.
fn assert_compacted_identity(fleet: &FleetManager) {
    let checkpoint = fleet.journal().compact().expect("compacts");
    assert!(
        checkpoint.groups.as_ref().is_some_and(|g| !g.is_empty()),
        "the checkpoint records group overrides: {checkpoint:?}"
    );
    let journal = runtime::Journal::parse(&fleet.journal().render().expect("journal renders"))
        .expect("round-trips");
    assert!(journal.is_empty(), "every decision folded");

    let config = FleetConfig::from_header(journal.header()).expect("config");
    let (replay, _) = JournalReplayer::new(&spec())
        .replay(&journal, config)
        .expect("replays");
    assert!(replay.is_equivalent(), "{replay:?}");
    assert_eq!(replay.restored, checkpoint.residents.len());

    let shape = FleetConfig::from_header(journal.header()).expect("shape");
    let identity = PlanRun::new(&spec(), &journal, &shape)
        .execute()
        .expect("plans");
    assert_eq!(identity.flips, vec![]);
    assert_eq!(identity.restored, checkpoint.residents.len() as u64);
    assert_eq!(identity.recorded, identity.hypothetical);
    assert_eq!(identity.residents_at_end, replay.residents_at_end);
    let capacities: Vec<u64> = identity.groups.iter().map(|g| g.capacity).collect();
    let recorded: Vec<u64> = (0..fleet.group_count())
        .map(|g| fleet.capacity_of(g).expect("group") as u64)
        .collect();
    assert_eq!(capacities, recorded);

    // A restart from the compacted journal seats the same residents on
    // the same groups.
    let recovered = FleetManager::recover(spec(), journal).expect("recovers");
    let per_group = |f: &FleetManager| -> Vec<usize> {
        (0..f.group_count())
            .map(|g| f.resident_count_of(g).expect("group"))
            .collect()
    };
    assert_eq!(per_group(&recovered), per_group(fleet));
}

/// A resident admitted after a grow sits above the header's capacity; the
/// compacted journal still plans its identity shape flip-free.
#[test]
fn grown_then_compacted_journal_plans_identity_with_zero_flips() {
    let fleet = fleet(1, 1, 1);
    park(&fleet, 0, 1);
    assert_eq!(
        fleet
            .resize(ScaleAction::Grow {
                group: 0,
                capacity_per_shard: 2
            })
            .expect("grow decides"),
        ScaleOutcome::Applied
    );
    park(&fleet, 0, 1);
    assert_eq!(fleet.resident_count_of(0).expect("group 0"), 2);
    assert_compacted_identity(&fleet);
}

/// A resident on a group added after the header sits outside the header's
/// shape; the compacted journal still plans its identity shape flip-free.
#[test]
fn added_group_then_compacted_journal_plans_identity_with_zero_flips() {
    let fleet = fleet(1, 1, 1);
    park(&fleet, 0, 1);
    assert_eq!(
        fleet
            .resize(ScaleAction::AddGroup {
                group: 1,
                shape: GroupConfig::new("group1", 1, 1),
            })
            .expect("add decides"),
        ScaleOutcome::Applied
    );
    park(&fleet, 1, 1);
    assert_compacted_identity(&fleet);
}

/// `PlanRun::with_scale_policy` evaluates a policy OFFLINE against a
/// recorded stream: recorded resizes are set aside, the policy's own
/// actions land in the report's decision timeline, and the recorded
/// admissions still verify.
#[test]
fn planner_evaluates_a_policy_file_against_a_recorded_run() {
    // Record a run with NO autoscaler: a small fleet under pressure.
    let fleet = fleet(2, 1, 2);
    park(&fleet, 0, 2);
    park(&fleet, 1, 2);
    for i in 0..4 {
        // Saturated admissions: recorded rejections the policy will see
        // as sustained pressure.
        let _ = fleet
            .admit(&AdmissionRequest::new(i).on(i % 2))
            .expect("decides");
    }
    let journal = runtime::Journal::parse(&fleet.journal().render().expect("journal renders"))
        .expect("round-trips");

    let policy = ScalePolicy::Target(TargetPolicy {
        low: 0.1,
        high: 0.5,
        grow_after: 1,
        shrink_after: 8,
        cooldown: 0,
        min_capacity_per_shard: 1,
        max_capacity_per_shard: 8,
        step: 1,
        add_group_at_max: false,
        drain_at_min: false,
    });
    let shape = FleetConfig::from_header(journal.header()).expect("shape");
    let report = PlanRun::new(&spec(), &journal, &shape)
        .with_scale_policy(policy, 1)
        .execute()
        .expect("plans");

    assert_eq!(report.policy.as_deref().map(|p| p.is_empty()), Some(false));
    assert!(
        !report.policy_actions.is_empty(),
        "a saturated fleet under a tight band must provoke the policy: {report:?}"
    );
    assert!(report
        .policy_actions
        .iter()
        .all(|d| !d.action.is_empty() && !d.outcome.is_empty()));
    // The render mentions the policy evaluation (CLI surface).
    assert!(report.render().contains("policy under evaluation"));
}

/// The wire form of a policy round-trips, and the JSON file format the
/// CLI loads (`--autoscale policy.json`, `--policy-file`) is the same.
#[test]
fn scale_policy_json_roundtrips() {
    for policy in [
        ScalePolicy::Off,
        ScalePolicy::Manual,
        ScalePolicy::Target(TargetPolicy::default()),
    ] {
        let json = policy.to_json();
        let back = ScalePolicy::from_json(&json).expect("parses");
        assert_eq!(back, policy, "{json}");
    }
    assert!(ScalePolicy::from_json("{\"bogus\": 1}").is_err());
}
