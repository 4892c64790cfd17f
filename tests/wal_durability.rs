//! WAL durability integration tests: sustained appends keep the journal's
//! in-memory footprint flat (the fix for the unbounded `Vec<JournalEntry>`
//! the journal used to hold), segments rotate on schedule, compaction
//! shrinks the directory without changing what a replay sees, and a
//! restart from any crash point holds what a replay re-executes to.

mod common;

use common::journaled;
use runtime::{DecisionEvent, FsyncPolicy, Journal, JournalHeader, WalConfig};
use std::sync::Arc;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "probcon-wal-durability-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The journal's memory no longer grows with traffic: a million appends
/// stream to segment files and no entry stays in memory — a read of the
/// entries goes to the segments. (Before the WAL, every append pushed
/// into one ever-growing in-memory vector.)
#[test]
fn wal_journal_memory_stays_flat_over_a_million_appends() {
    const APPENDS: u64 = 1_000_000;
    const SEGMENT: u64 = 65_536;

    let dir = tmp_dir("flat-rss");
    let config = WalConfig {
        segment_max_entries: SEGMENT,
        fsync: FsyncPolicy::OnRotate,
        keep_snapshots: 1,
    };
    let journal = Journal::create_wal(&dir, JournalHeader::default(), config).expect("fresh WAL");
    for i in 0..APPENDS {
        journal.append(DecisionEvent::Release { resident: i });
    }
    assert_eq!(journal.io_errors(), 0, "every append must land");
    assert_eq!(journal.next_seq(), APPENDS);
    assert_eq!(journal.len(), APPENDS as usize);

    // Rotation kept every segment bounded too.
    journal.sync().expect("sync");
    let stats = journal.wal_stats().expect("wal-backed");
    assert_eq!(stats.segments as u64, APPENDS / SEGMENT + 1);

    // Compaction folds the whole history (all releases, no residents) into
    // one snapshot; covered segments are garbage-collected and the
    // directory shrinks by orders of magnitude.
    let checkpoint = journal.compact().expect("compact");
    assert_eq!(checkpoint.upto_seq, APPENDS);
    assert!(checkpoint.residents.is_empty());
    let after = journal.wal_stats().expect("wal-backed");
    assert_eq!(after.segments, 1, "only the empty active segment remains");
    assert!(
        after.disk_bytes * 10 < stats.disk_bytes,
        "compaction must shrink the directory: {} -> {} bytes",
        stats.disk_bytes,
        after.disk_bytes
    );

    // The entry view after the snapshot is read back from the segments.
    journal.append(DecisionEvent::Release { resident: APPENDS });
    let seqs: Vec<u64> = journal
        .try_entries()
        .expect("the active segment reads")
        .iter()
        .map(|e| e.seq)
        .collect();
    assert_eq!(seqs, [APPENDS]);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Appends made AFTER a snapshot checkpoint keep flowing into the rotated
/// active segment chain and replay on top of the snapshot base.
#[test]
fn appends_after_a_checkpoint_continue_the_chain() {
    let dir = tmp_dir("post-checkpoint");
    let config = WalConfig {
        segment_max_entries: 8,
        fsync: FsyncPolicy::OnRotate,
        keep_snapshots: 1,
    };
    let journal = Journal::create_wal(&dir, JournalHeader::default(), config).expect("fresh WAL");
    for i in 0..20u64 {
        journal.append(DecisionEvent::Release { resident: i });
    }
    journal.compact().expect("compact");
    for i in 20..30u64 {
        journal.append(DecisionEvent::Release { resident: i });
    }
    journal.sync().expect("sync");
    assert_eq!(journal.io_errors(), 0);
    assert_eq!(journal.base_seq(), 20);
    assert_eq!(journal.len(), 10);
    drop(journal);

    // A reopen sees the snapshot base plus exactly the post-checkpoint tail.
    let (journal, recovery) = Journal::open_wal(&dir, config).expect("reopen");
    assert_eq!(recovery.truncated_bytes, 0);
    assert_eq!(journal.base_seq(), 20);
    assert_eq!(journal.next_seq(), 30);
    journal.verify().expect("checksums hold");
    let seqs: Vec<u64> = journal
        .try_entries()
        .expect("entries")
        .iter()
        .map(|e| e.seq)
        .collect();
    assert_eq!(seqs, (20..30).collect::<Vec<u64>>());

    let _ = std::fs::remove_dir_all(&dir);
}

/// `keep_snapshots: K` retains the last K checkpoints as point-in-time
/// replay anchors: segment GC only advances to the OLDEST retained fold
/// point, so every retained snapshot still has the entry tail it needs,
/// and a further compaction rolls the window forward by exactly one.
#[test]
fn keep_snapshots_retains_point_in_time_checkpoints() {
    let dir = tmp_dir("keep-snapshots");
    let config = WalConfig {
        segment_max_entries: 4,
        fsync: FsyncPolicy::OnRotate,
        keep_snapshots: 2,
    };
    let snapshot_files = |dir: &std::path::Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("snapshot-"))
            .collect();
        names.sort();
        names
    };

    let journal = Journal::create_wal(&dir, JournalHeader::default(), config).expect("fresh WAL");
    for i in 0..10u64 {
        journal.append(DecisionEvent::Release { resident: i });
    }
    let first = journal.compact().expect("first compact");
    for i in 10..20u64 {
        journal.append(DecisionEvent::Release { resident: i });
    }
    let second = journal.compact().expect("second compact");

    // Both checkpoints live on disk, and the manifest counts them.
    let stats = journal.wal_stats().expect("wal-backed");
    assert_eq!(stats.snapshots, 2);
    assert_eq!(stats.snapshot_upto, Some(second.upto_seq));
    assert_eq!(snapshot_files(&dir).len(), 2);
    // GC held back: the segments between the two fold points survive so
    // the OLDER snapshot remains a valid replay base (its tail of entries
    // 10..20 is still on disk).
    let on_disk: u64 = std::fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("segment-"))
        .map(|e| {
            std::fs::read_to_string(e.path())
                .expect("segment")
                .lines()
                .count() as u64
        })
        .sum();
    assert!(
        on_disk >= second.upto_seq - first.upto_seq,
        "entries {}..{} must survive for point-in-time replay, found {on_disk}",
        first.upto_seq,
        second.upto_seq
    );

    // A third checkpoint rolls the retention window: still two snapshots,
    // and the first one's file is gone.
    for i in 20..30u64 {
        journal.append(DecisionEvent::Release { resident: i });
    }
    let third = journal.compact().expect("third compact");
    let files = snapshot_files(&dir);
    assert_eq!(files.len(), 2);
    assert!(!files
        .iter()
        .any(|f| f.contains(&format!("{:020}", first.upto_seq))));
    drop(journal);

    // A reopen recovers from the NEWEST snapshot and replays cleanly.
    let (journal, recovery) = Journal::open_wal(&dir, config).expect("reopen");
    assert_eq!(recovery.truncated_bytes, 0);
    assert_eq!(journal.base_seq(), third.upto_seq);
    journal.verify().expect("checksums hold");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Admits `app` (contract-free) on `group` and returns its resident id.
fn admit_on(fleet: &runtime::FleetManager, app: usize, group: usize) -> u64 {
    use runtime::{AdmissionDecision, AdmissionRequest, AdmissionService};
    match fleet
        .admit(&AdmissionRequest::new(app).on(group))
        .expect("decides")
    {
        AdmissionDecision::Admitted { resident, .. } => resident,
        other => panic!("admission on group {group} bounced: {other:?}"),
    }
}

/// Per-group (residents, capacity, retired) and the resident -> group map
/// of the first `ids` resident ids.
type FleetState = (Vec<(usize, usize, bool)>, Vec<Option<usize>>);

fn fleet_state(fleet: &runtime::FleetManager, ids: u64) -> FleetState {
    let groups = (0..fleet.group_count())
        .map(|g| {
            (
                fleet.resident_count_of(g).expect("group"),
                fleet.capacity_of(g).expect("group"),
                fleet.group_retired(g).expect("group"),
            )
        })
        .collect();
    let residents = (0..ids).map(|id| fleet.group_of(id).ok()).collect();
    (groups, residents)
}

/// Cut a single-segment WAL at every entry boundary and one byte past each
/// (a torn write). Whatever survives, a restart — `open_wal` then
/// `recover`, which restores the journal's fold onto its header's shape —
/// holds the same residents on the same groups at the same capacities as
/// a replay of the same reopened log re-executes to. The recording grows a
/// group, adds one and drains another whose residents move, so group
/// overrides and moved residents lie on the cut paths.
#[test]
fn every_crash_point_recovers_what_replay_re_executes() {
    use platform::{Application, Mapping, SystemSpec};
    use runtime::{
        FleetConfig, FleetManager, GroupConfig, JournalReplayer, RoutingPolicy, ScaleAction,
        ScaleOutcome,
    };

    let (a, b) = sdf::figure2_graphs();
    let spec = SystemSpec::builder()
        .application(Application::new("A", a).expect("valid"))
        .application(Application::new("B", b).expect("valid"))
        .mapping(Mapping::by_actor_index(3))
        .build()
        .expect("valid spec");
    let config = WalConfig {
        segment_max_entries: 1024,
        fsync: FsyncPolicy::OnRotate,
        keep_snapshots: 1,
    };
    let recording = tmp_dir("crash-points-recording");
    let shape = FleetConfig::uniform(2, 1, 2, RoutingPolicy::LeastUtilised);
    let journal = Journal::create_wal(
        &recording,
        FleetManager::stamped_header(&shape, JournalHeader::default()),
        config,
    )
    .expect("fresh WAL");
    let fleet = FleetManager::with_journal(spec.clone(), shape, journal).expect("fleet");
    let first = admit_on(&fleet, 0, 0);
    admit_on(&fleet, 1, 0);
    admit_on(&fleet, 0, 1);
    assert_eq!(
        fleet
            .resize(ScaleAction::Grow {
                group: 1,
                capacity_per_shard: 4
            })
            .expect("grows"),
        ScaleOutcome::Applied
    );
    assert_eq!(
        fleet
            .resize(ScaleAction::AddGroup {
                group: 2,
                shape: GroupConfig::new("group2", 1, 2),
            })
            .expect("adds"),
        ScaleOutcome::Applied
    );
    admit_on(&fleet, 1, 2);
    assert!(fleet.release_resident(first));
    admit_on(&fleet, 0, 0);
    assert_eq!(
        fleet
            .resize(ScaleAction::Drain { group: 0 })
            .expect("drains"),
        ScaleOutcome::Applied
    );
    let moved = journaled(fleet.journal())
        .iter()
        .filter(|e| matches!(e, DecisionEvent::Rebalance { .. }))
        .count();
    assert_eq!(moved, 2, "the drain moves both residents of group 0");
    let last = admit_on(&fleet, 1, 1);
    assert!(fleet.release_resident(last));
    admit_on(&fleet, 0, 2);
    fleet.journal().sync().expect("sync");
    let ids = fleet.journal().next_seq();
    let end = fleet_state(&fleet, ids);
    fleet.stop();
    drop(fleet);

    let segment = std::fs::read_dir(&recording)
        .expect("dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .find(|name| name.starts_with("segment-"))
        .expect("one segment");
    let manifest = std::fs::read(recording.join(runtime::MANIFEST_FILE)).expect("manifest");
    let bytes = std::fs::read(recording.join(&segment)).expect("segment");
    let mut cuts = vec![0];
    for (i, _) in bytes.iter().enumerate().filter(|(_, &b)| b == b'\n') {
        cuts.push(i + 1);
    }
    let boundaries = cuts.len();
    cuts.extend(
        cuts.clone()
            .into_iter()
            .map(|cut| cut + 1)
            .filter(|&cut| cut < bytes.len()),
    );

    let crashed = tmp_dir("crash-points");
    for &cut in &cuts {
        let _ = std::fs::remove_dir_all(&crashed);
        std::fs::create_dir_all(&crashed).expect("dir");
        std::fs::write(crashed.join(runtime::MANIFEST_FILE), &manifest).expect("manifest");
        std::fs::write(crashed.join(&segment), &bytes[..cut]).expect("segment");

        let (journal, _) = Journal::open_wal(&crashed, config).expect("opens");
        let recovered = FleetManager::recover(spec.clone(), journal).expect("recovers");
        let restarted = fleet_state(&recovered, ids);
        drop(recovered);

        let (journal, recovery) = Journal::open_wal(&crashed, config).expect("reopens");
        assert_eq!(
            recovery.truncated_bytes, 0,
            "the restart already cut the tail"
        );
        let header = FleetConfig::from_header(journal.header()).expect("config");
        let (report, replayed) = JournalReplayer::new(&spec)
            .replay(&journal, header)
            .expect("replays");
        assert!(report.is_equivalent(), "cut {cut}: {}", report.render());
        assert_eq!(restarted, fleet_state(&replayed, ids), "cut at byte {cut}");
        if cut == bytes.len() {
            assert_eq!(restarted, end, "the whole log recovers the live fleet");
        }
    }
    assert!(boundaries > 12, "{boundaries} entry boundaries");
    let _ = std::fs::remove_dir_all(&crashed);
    let _ = std::fs::remove_dir_all(&recording);
}

/// A WAL whose history cannot be read is an error for replay and plan: a
/// missing sealed segment must not replay as zero decisions that read
/// EQUIVALENT, nor plan as a clean report over nothing. Every read of the
/// journal fails the same way, and so does a fetch of it over the wire.
#[test]
fn an_unreadable_wal_fails_replay_and_plan() {
    use platform::{Application, Mapping, SystemSpec};
    use runtime::{
        AdmissionRequest, AdmissionService, FleetConfig, FleetError, FleetManager, JournalError,
        JournalReplayer, PlanError, PlanRun, PlanSweep, RemoteClient, RemoteServer,
        RemoteServerConfig, RoutingPolicy,
    };

    let (a, b) = sdf::figure2_graphs();
    let spec = SystemSpec::builder()
        .application(Application::new("A", a).expect("valid"))
        .application(Application::new("B", b).expect("valid"))
        .mapping(Mapping::by_actor_index(3))
        .build()
        .expect("valid spec");
    let config = WalConfig {
        segment_max_entries: 4,
        fsync: FsyncPolicy::OnRotate,
        keep_snapshots: 1,
    };
    let dir = tmp_dir("unreadable");
    let shape = FleetConfig::uniform(1, 1, 2, RoutingPolicy::LeastUtilised);
    let journal = Journal::create_wal(
        &dir,
        FleetManager::stamped_header(&shape, JournalHeader::default()),
        config,
    )
    .expect("fresh WAL");
    let fleet = FleetManager::with_journal(spec.clone(), shape.clone(), journal).expect("fleet");
    for app in 0..7 {
        let admitted = fleet
            .admit(&AdmissionRequest::new(app % 2))
            .expect("decides");
        fleet
            .release(admitted.resident().expect("fits"))
            .expect("releases");
    }
    fleet.journal().sync().expect("sync");
    assert_eq!(fleet.journal().next_seq(), 14);
    fleet.stop();
    drop(fleet);

    let (journal, _) = Journal::open_wal(&dir, config).expect("opens");
    std::fs::remove_file(dir.join(format!("segment-{:020}.jsonl", 0))).expect("first segment");

    let replayed = JournalReplayer::new(&spec).replay(&journal, shape.clone());
    assert!(
        matches!(replayed, Err(FleetError::Journal(_))),
        "{:?}",
        replayed.map(|(report, _)| report)
    );
    let planned = PlanRun::new(&spec, &journal, &shape).execute();
    assert!(matches!(planned, Err(PlanError::Journal(_))), "{planned:?}");
    let swept = PlanSweep::new(&spec, &journal)
        .shape(shape.clone())
        .execute();
    assert!(matches!(swept, Err(PlanError::Journal(_))), "{swept:?}");

    assert_eq!(journal.len(), 14, "the count needs no read");
    let io = |result: Result<(), JournalError>, read: &str| {
        assert!(
            matches!(result, Err(JournalError::Io(_))),
            "{read}: {result:?}"
        );
    };
    io(journal.try_entries().map(drop), "try_entries");
    io(journal.render().map(drop), "render");
    io(journal.render_to(&mut Vec::new()), "render_to");
    io(journal.render_page(0, 100).map(drop), "render_page");
    io(journal.verify(), "verify");

    let fleet = FleetManager::with_journal(spec, shape, journal).expect("fleet");
    let server = RemoteServer::bind_with(
        &"tcp:127.0.0.1:0".parse().expect("addr"),
        Arc::new(fleet.clone()),
        Some(fleet),
        RemoteServerConfig::default(),
    )
    .expect("binds");
    let client = RemoteClient::connect(server.local_addr()).expect("connects");
    let fetched = client.fetch_journal().expect_err("an unreadable journal");
    let why = fetched.to_string();
    assert!(why.contains("journal I/O error"), "{why}");
    assert!(!why.contains("records no journal"), "{why}");
    client.close();
    server.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}
