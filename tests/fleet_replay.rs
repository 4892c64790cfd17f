//! Deterministic-replay integration tests: a seeded multi-group workload
//! recorded to an append-only journal must replay — twice — with
//! byte-identical admit/reject outcome sequences and final fleet metrics.
//! This is the strongest end-to-end regression oracle for the admission
//! path: any behavioural drift in routing, admission analysis, rebalancing
//! or journaling shows up as a replay divergence.

mod common;

use common::journaled;
use experiments::workload::workload_with;
use runtime::{
    run_requests, seeded_fleet_requests, DecisionEvent, FleetConfig, FleetManager, Journal,
    JournalHeader, JournalReplayer, ReplayReport, RoutingPolicy, ScaleAction, JOURNAL_VERSION,
};
use sdf::GeneratorConfig;

const SEED: u64 = 2007;
const APPS: usize = 5;
const ACTORS: usize = 4;
const GROUPS: usize = 4;
const SHARDS: usize = 1;
const CAPACITY: usize = 3;
const REQUESTS: usize = 250;

fn header() -> JournalHeader {
    JournalHeader {
        version: JOURNAL_VERSION,
        seed: SEED,
        apps: APPS as u64,
        actors: ACTORS as u64,
        groups: GROUPS as u64,
        shards_per_group: SHARDS as u64,
        capacity_per_shard: CAPACITY as u64,
        policy: RoutingPolicy::LeastUtilised.to_string(),
        // Stamped with the real shapes by FleetManager::with_header.
        group_shapes: Vec::new(),
    }
}

fn config() -> FleetConfig {
    FleetConfig::uniform(GROUPS, SHARDS, CAPACITY, RoutingPolicy::LeastUtilised)
}

/// Records the seeded 4-group mixed workload and returns its journal
/// (rendered + reparsed, so the persistence path is part of the oracle).
fn record() -> Journal {
    let spec = workload_with(SEED, APPS, &GeneratorConfig::with_actors(ACTORS)).expect("workload");
    let fleet = FleetManager::with_header(spec.clone(), config(), header()).expect("fleet");
    let stream = seeded_fleet_requests(&spec, GROUPS, REQUESTS, SEED);
    let (report, _) = run_requests(&fleet, Some(&fleet), stream, 1, None, None);
    let totals = &report.stack;
    assert!(totals.admitted > 0, "workload admits: {report:?}");
    assert!(
        totals.rejected + totals.saturated > 0,
        "workload must exercise rejections or saturation: {report:?}"
    );
    assert!(
        journaled(fleet.journal())
            .iter()
            .any(|e| matches!(e, DecisionEvent::Rebalance { .. })),
        "workload must exercise rebalancing"
    );
    Journal::parse(&fleet.journal().render().expect("journal renders"))
        .expect("journal round-trips")
}

/// The admit/reject outcome sequence of a journal, decision by decision.
fn outcome_sequence(journal: &Journal) -> Vec<String> {
    journaled(journal).iter().map(|e| e.to_string()).collect()
}

#[test]
fn recorded_journal_replays_equivalently_twice() {
    let journal = record();
    journal.verify().expect("checksums hold");

    let spec = workload_with(SEED, APPS, &GeneratorConfig::with_actors(ACTORS)).expect("workload");
    let replayer = JournalReplayer::new(&spec);
    let (first, first_fleet) = replayer.replay(&journal, config()).expect("first replay");
    let (second, second_fleet) = replayer.replay(&journal, config()).expect("second replay");

    for (label, report) in [("first", &first), ("second", &second)] {
        assert!(
            report.is_equivalent(),
            "{label} replay diverged:\n{}",
            report.render()
        );
        assert_eq!(report.events, journal.len());
        assert_eq!(report.matches, journal.len());
    }

    // Identical decision streams across both replays, step for step.
    assert_eq!(
        journaled(first_fleet.journal()),
        journaled(second_fleet.journal())
    );
    // ... and identical final fleet metrics.
    assert_eq!(first_fleet.snapshot(), second_fleet.snapshot());
    assert_eq!(first.residents_at_end, second.residents_at_end);
}

#[test]
fn replayed_fleet_rerecords_the_same_decision_stream() {
    let journal = record();
    let spec = workload_with(SEED, APPS, &GeneratorConfig::with_actors(ACTORS)).expect("workload");
    let (report, replayed_fleet) = JournalReplayer::new(&spec)
        .replay(&journal, config())
        .expect("replay");
    assert!(report.is_equivalent(), "{}", report.render());

    // The replayed fleet journaled its own decisions; a single-threaded
    // recording re-records *exactly* the same events (ids included).
    assert_eq!(journaled(replayed_fleet.journal()), journaled(&journal));
    // The re-recorded journal is itself replayable: the oracle is a fixed
    // point, not a one-shot.
    let rerecorded = Journal::parse(&replayed_fleet.journal().render().expect("journal renders"))
        .expect("parses");
    let (again, _) = JournalReplayer::new(&spec)
        .replay(&rerecorded, config())
        .expect("replay of the re-recording");
    assert!(again.is_equivalent(), "{}", again.render());
}

#[test]
fn replay_through_journal_file_roundtrip() {
    let journal = record();
    let dir = std::env::temp_dir().join("probcon-fleet-replay-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("recorded.jsonl");
    journal.write_to(&path).expect("writes");

    let loaded = Journal::read_from(&path).expect("reads and verifies");
    assert_eq!(loaded.header(), journal.header());
    assert_eq!(outcome_sequence(&loaded), outcome_sequence(&journal));

    // The header alone suffices to rebuild workload and fleet — exactly
    // what `probcon replay <file>` does.
    let spec = workload_with(
        loaded.header().seed,
        loaded.header().apps as usize,
        &GeneratorConfig::with_actors(loaded.header().actors as usize),
    )
    .expect("workload from header");
    let config = FleetConfig::from_header(loaded.header()).expect("config from header");
    let (report, _) = JournalReplayer::new(&spec)
        .replay(&loaded, config)
        .expect("replay");
    assert!(report.is_equivalent(), "{}", report.render());
}

#[test]
fn concurrent_recording_still_replays_equivalently() {
    // Journal order serializes each group's decisions even when the
    // recording itself raced across 8 worker threads, so sequential replay
    // must still reproduce every outcome.
    let spec = workload_with(SEED, APPS, &GeneratorConfig::with_actors(ACTORS)).expect("workload");
    let fleet = FleetManager::with_header(spec.clone(), config(), header()).expect("fleet");
    let stream = seeded_fleet_requests(&spec, GROUPS, REQUESTS, SEED + 1);
    run_requests(&fleet, Some(&fleet), stream, 8, None, None);
    let journal =
        Journal::parse(&fleet.journal().render().expect("journal renders")).expect("round-trips");

    let (report, _) = JournalReplayer::new(&spec)
        .replay(&journal, config())
        .expect("replay");
    assert!(report.is_equivalent(), "{}", report.render());
    assert_eq!(report.events, journal.len());
}

#[test]
fn corrupted_recording_is_rejected_and_divergence_is_reported() {
    let journal = record();

    // Corrupt one byte of the persisted form: loading must fail checksum.
    let text = journal.render().expect("journal renders");
    let admitted_pos = text.find("Admitted").expect("an admission was recorded");
    let mut tampered = text.clone();
    tampered.replace_range(admitted_pos..admitted_pos + 8, "admitteD");
    assert!(
        Journal::parse(&tampered).is_err(),
        "tampering must not load"
    );

    // A journal recorded against a *different* fleet shape replays with
    // divergences, and the report says so.
    let spec = workload_with(SEED, APPS, &GeneratorConfig::with_actors(ACTORS)).expect("workload");
    let smaller = FleetConfig::uniform(GROUPS, SHARDS, 1, RoutingPolicy::LeastUtilised);
    let (report, _): (ReplayReport, FleetManager) = JournalReplayer::new(&spec)
        .replay(&journal, smaller)
        .expect("replay runs");
    assert!(
        !report.is_equivalent(),
        "capacity-1 groups cannot reproduce a capacity-3 recording"
    );
    assert!(report.render().contains("NOT equivalent"));
    // Divergences carry the recorded expectation and what happened instead.
    let d = &report.divergences[0];
    assert!(journal.len() as u64 > d.seq);
    assert_ne!(d.expected, d.got);
    // Saturated outcomes appear where the recording admitted.
    assert!(
        report
            .divergences
            .iter()
            .any(|d| d.expected.starts_with("admitted period") && d.got == "saturated"),
        "shrunk capacity must saturate recorded admissions"
    );
}

#[test]
fn planner_agrees_with_replayer_on_identity_and_reports_shrink_as_flips() {
    use runtime::{FlipKind, PlanRun, PlanSweep};

    let journal = record();
    let spec = workload_with(SEED, APPS, &GeneratorConfig::with_actors(ACTORS)).expect("workload");

    // The replayer verifies the identity shape outcome-for-outcome...
    let (replay, _) = JournalReplayer::new(&spec)
        .replay(&journal, config())
        .expect("replays");
    assert!(replay.is_equivalent());

    // ... and the planner agrees: zero flips, identical outcome totals,
    // every recorded release/rebalance applied.
    let shape = FleetConfig::from_header(journal.header()).expect("shape");
    let identity = PlanRun::new(&spec, &journal, &shape)
        .execute()
        .expect("plans");
    assert_eq!(identity.flips, vec![]);
    assert_eq!(identity.recorded, identity.hypothetical);
    assert_eq!(identity.releases_skipped, 0);
    assert_eq!(
        identity.recorded.admitted + identity.recorded.rejected + identity.recorded.saturated,
        journaled(&journal)
            .iter()
            .filter(|e| matches!(e, DecisionEvent::Admit { .. }))
            .count() as u64
    );

    // Where the replayer calls the same shrunken shape a DIVERGENCE
    // (verification failed), the planner calls it DATA: each admission the
    // smaller fleet turns away is an admitted-now-rejected flip.
    let shrunk = shape.clone().scale_capacity(1.0 / CAPACITY as f64);
    let report = PlanRun::new(&spec, &journal, &shrunk)
        .execute()
        .expect("plans");
    assert!(report.count(FlipKind::AdmittedNowRejected) > 0);
    assert!(!report.is_clean());
    // Bookkeeping stays balanced: every recorded release either applied or
    // was skipped because its admission flipped away.
    assert_eq!(
        report.releases_applied + report.releases_skipped,
        journaled(&journal)
            .iter()
            .filter(|e| matches!(e, DecisionEvent::Release { .. }))
            .count() as u64
    );

    // A sweep over capacity scales finds the recorded shape (or smaller)
    // as its clean frontier, deterministically across worker counts.
    let grid = PlanSweep::grid(&shape, &[], &[1.0 / 3.0, 2.0 / 3.0, 1.0], &[]).expect("grid");
    let run = |workers: usize| {
        PlanSweep::new(&spec, &journal)
            .shapes(grid.clone())
            .workers(workers)
            .execute()
            .expect("sweeps")
    };
    let eight = run(8);
    let clean = eight.smallest_clean_report().expect("identity is clean");
    assert!(clean.shape.total_capacity() <= shape.total_capacity());
    let one = run(1);
    assert_eq!(one.reports, eight.reports);
    assert_eq!(one.smallest_clean, eight.smallest_clean);
}

/// Records the seeded workload into a segmented WAL directory (tiny
/// segments, so the recording crosses many rotation boundaries) and
/// returns `(dir, recorded outcome sequence, residents at end)`.
fn record_wal(name: &str) -> (std::path::PathBuf, Vec<String>, usize) {
    use runtime::{FsyncPolicy, WalConfig};

    let dir =
        std::env::temp_dir().join(format!("probcon-replay-wal-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal_config = WalConfig {
        segment_max_entries: 32,
        fsync: FsyncPolicy::OnRotate,
        keep_snapshots: 1,
    };
    let spec = workload_with(SEED, APPS, &GeneratorConfig::with_actors(ACTORS)).expect("workload");
    let journal = Journal::create_wal(
        &dir,
        FleetManager::stamped_header(&config(), header()),
        wal_config,
    )
    .expect("fresh WAL");
    let fleet = FleetManager::with_journal(spec.clone(), config(), journal).expect("fleet");
    let stream = seeded_fleet_requests(&spec, GROUPS, REQUESTS, SEED);
    run_requests(&fleet, Some(&fleet), stream, 1, None, None);
    fleet.journal().sync().expect("sync");
    assert_eq!(fleet.journal().io_errors(), 0, "no append may fail");
    let outcomes = outcome_sequence(fleet.journal());
    let residents = fleet.resident_count();
    fleet.stop();
    (dir, outcomes, residents)
}

#[test]
fn wal_recording_recovers_restores_and_replays_equivalently() {
    use runtime::{FsyncPolicy, WalConfig};

    let (dir, recorded_outcomes, recorded_residents) = record_wal("recover");
    let wal_config = WalConfig {
        segment_max_entries: 32,
        fsync: FsyncPolicy::OnRotate,
        keep_snapshots: 1,
    };
    let spec = workload_with(SEED, APPS, &GeneratorConfig::with_actors(ACTORS)).expect("workload");

    // Restart path: reopen the directory and RECOVER a live fleet from it —
    // the same residents hold the same capacity as when the recorder died.
    let (journal, recovery) = Journal::open_wal(&dir, wal_config).expect("reopen");
    assert_eq!(
        recovery.truncated_bytes, 0,
        "clean shutdown leaves no torn tail"
    );
    let recovered = FleetManager::recover(spec.clone(), journal).expect("recover");
    assert_eq!(recovered.resident_count(), recorded_residents);
    recovered.stop();

    // Replay path: the WAL directory loads like any journal file and
    // verifies outcome-for-outcome.
    let (loaded, _) = Journal::load(&dir).expect("load dir");
    assert_eq!(outcome_sequence(&loaded), recorded_outcomes);
    loaded
        .verify()
        .expect("checksums hold across segment files");
    let stats = loaded.wal_stats().expect("wal-backed");
    assert!(stats.segments > 3, "tiny segments must rotate: {stats:?}");
    let (report, replayed) = JournalReplayer::new(&spec)
        .replay(&loaded, config())
        .expect("replay");
    assert!(report.is_equivalent(), "{}", report.render());
    assert_eq!(report.restored, 0, "no checkpoint yet");
    assert_eq!(replayed.resident_count(), recorded_residents);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointed_wal_replays_from_snapshot_and_plans_identity_with_zero_flips() {
    use runtime::{fold_checkpoint, PlanRun};

    let (dir, _, recorded_residents) = record_wal("checkpoint");
    let spec = workload_with(SEED, APPS, &GeneratorConfig::with_actors(ACTORS)).expect("workload");

    // Install a checkpoint folding the FIRST HALF of the history, so the
    // replay exercises both paths: snapshot restore, then entry replay.
    let (loaded, _) = Journal::load(&dir).expect("load dir");
    let entries = loaded.try_entries().expect("entries");
    let mid = entries.len() / 2;
    let checkpoint = fold_checkpoint(None, &entries[..mid]);
    assert!(!checkpoint.residents.is_empty(), "midpoint holds residents");
    loaded
        .install_checkpoint(checkpoint.clone())
        .expect("install");
    assert_eq!(loaded.base_seq(), checkpoint.upto_seq);
    drop(loaded);

    // A fresh load starts from the snapshot: fewer entries, same outcome.
    let (compacted, _) = Journal::load(&dir).expect("reload");
    assert_eq!(compacted.base_seq(), checkpoint.upto_seq);
    assert!(compacted.len() < entries.len());
    let (report, replayed) = JournalReplayer::new(&spec)
        .replay(&compacted, config())
        .expect("replay from snapshot");
    assert!(report.is_equivalent(), "{}", report.render());
    assert_eq!(report.restored, checkpoint.residents.len());
    assert!(report.render().contains("restored"));
    assert_eq!(replayed.resident_count(), recorded_residents);

    // Acceptance anchor: the planner on a snapshotted WAL restores the
    // checkpoint first and reports ZERO flips for the identity shape.
    let shape = FleetConfig::from_header(compacted.header()).expect("shape");
    let identity = PlanRun::new(&spec, &compacted, &shape)
        .execute()
        .expect("plans");
    assert_eq!(identity.flips, vec![], "identity must not flip");
    assert_eq!(identity.restored, checkpoint.residents.len() as u64);
    assert_eq!(identity.recorded, identity.hypothetical);
    assert_eq!(replayed.resident_count(), identity.residents_at_end);

    // Full compaction folds the tail too; replay output stays unchanged
    // (the snapshot restores what the dropped entries would have rebuilt).
    let folded = compacted.compact().expect("compact");
    assert_eq!(folded.residents.len(), recorded_residents);
    drop(compacted);
    let (fully, _) = Journal::load(&dir).expect("reload compacted");
    assert_eq!(fully.len(), 0, "all history folded into the snapshot");
    let (report, replayed) = JournalReplayer::new(&spec)
        .replay(&fully, config())
        .expect("replay pure snapshot");
    assert!(report.is_equivalent(), "{}", report.render());
    assert_eq!(replayed.resident_count(), recorded_residents);
    let stats = fully.wal_stats().expect("wal-backed");
    assert_eq!(
        stats.segments, 1,
        "compaction garbage-collects covered segments"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A WAL whose header says capacity 2 while group 0 was grown to 4 and
/// holds four residents: a restart recovers onto the header's shape plus
/// the recorded grow, and the snapshot its compaction writes replays
/// EQUIVALENT with every resident restored. (A restart that took its shape
/// from outside the journal, with a checkpoint that recorded only the
/// capacities differing from that shape, lost the grow: the replay then
/// found group 0 full at the third resident.)
#[test]
fn grown_wal_recovers_onto_its_header_and_compacts_equivalently() {
    use runtime::{AdmissionRequest, AdmissionService, FsyncPolicy, ScaleOutcome, WalConfig};

    let dir = std::env::temp_dir().join(format!("probcon-replay-wal-{}-grown", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal_config = WalConfig {
        segment_max_entries: 32,
        fsync: FsyncPolicy::OnRotate,
        keep_snapshots: 1,
    };
    let spec = workload_with(SEED, APPS, &GeneratorConfig::with_actors(ACTORS)).expect("workload");
    let config = FleetConfig::uniform(2, SHARDS, 2, RoutingPolicy::LeastUtilised);
    let header = FleetManager::stamped_header(
        &config,
        JournalHeader {
            groups: 2,
            capacity_per_shard: 2,
            ..header()
        },
    );
    let journal = Journal::create_wal(&dir, header, wal_config).expect("fresh WAL");
    let fleet = FleetManager::with_journal(spec.clone(), config, journal).expect("fleet");
    assert_eq!(
        fleet
            .resize(ScaleAction::Grow {
                group: 0,
                capacity_per_shard: 4
            })
            .expect("grow decides"),
        ScaleOutcome::Applied
    );
    for app in 0..4 {
        let decision = fleet
            .admit(&AdmissionRequest::new(app).on(0))
            .expect("decides");
        assert!(decision.is_admitted(), "{decision:?}");
    }
    fleet.journal().sync().expect("sync");
    fleet.stop();
    drop(fleet);

    // The restart seats the grown group's residents and compacts.
    let (journal, _) = Journal::open_wal(&dir, wal_config).expect("reopen");
    let recovered = FleetManager::recover(spec.clone(), journal).expect("recovers");
    assert_eq!(recovered.resident_count_of(0).expect("group 0"), 4);
    assert_eq!(recovered.capacity_of(0).expect("group 0"), 4);
    let snapshot = recovered.journal().compact().expect("compacts");
    assert_eq!(snapshot.residents.len(), 4);
    recovered.stop();
    drop(recovered);

    let (compacted, _) = Journal::load(&dir).expect("reload");
    assert!(compacted.is_empty(), "every decision folded");
    let config = FleetConfig::from_header(compacted.header()).expect("config");
    let (report, replayed) = JournalReplayer::new(&spec)
        .replay(&compacted, config)
        .expect("restores every resident");
    assert!(report.is_equivalent(), "{}", report.render());
    assert_eq!(report.restored, 4);
    assert_eq!(replayed.resident_count_of(0).expect("group 0"), 4);
    assert_eq!(replayed.capacity_of(0).expect("group 0"), 4);

    let _ = std::fs::remove_dir_all(&dir);
}
