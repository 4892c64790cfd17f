//! Segmented, snapshot-checkpointed write-ahead log — the durable backing
//! store behind [`Journal`](crate::Journal).
//!
//! The in-memory journal of PR 2–6 kept every entry in a `Vec` forever and
//! persisted only by rewriting one whole file at shutdown: unbounded RSS
//! under sustained traffic, and a torn file (crash mid-write) lost the
//! entire history. This module replaces that store with a real WAL:
//!
//! * **Rotated segments** — entries stream to an append-only active
//!   segment file (`segment-<first_seq>.jsonl`, JSON lines, one
//!   [`JournalEntry`] per line); when it reaches
//!   [`segment_max_entries`](WalConfig::segment_max_entries) it is sealed
//!   (fsynced, marked immutable) and a fresh segment opens. No entry stays
//!   in memory — the journal keeps only its fold (live residents and
//!   resized groups) — so journal RSS is flat at any traffic volume.
//! * **Checksummed manifest** — `MANIFEST.json` names every segment, its
//!   first sequence number and entry count, plus the newest snapshot. The
//!   manifest carries an FNV-1a checksum over its own canonical JSON and
//!   is always replaced atomically (temp file, `fsync`, rename): a torn
//!   manifest is *detected* ([`JournalError::TornManifest`]), never
//!   silently half-read.
//! * **Snapshot checkpoints** — a [`FleetCheckpoint`] is the log's fold
//!   (live residents and resized groups) at a sequence number
//!   (`snapshot-<upto_seq>.json`); the journal keeps that fold as it
//!   appends, and [`Journal::compact`](crate::Journal::compact) writes it.
//!   Replay and planning restore the checkpoint and walk only the tail
//!   after it instead of re-deciding from seq 0, and sealed segments fully
//!   covered by the snapshot are garbage collected.
//! * **Torn-tail recovery** — on open, the active segment is scanned line
//!   by line; the first torn, corrupt or out-of-sequence line truncates
//!   the file back to the last valid entry ([`WalRecovery`] reports what
//!   was cut). Sealed segments were fsynced at seal time and are verified
//!   strictly: corruption there is an error, not a truncation.
//!
//! Durability is tunable per deployment through [`FsyncPolicy`]: `always`
//! (fsync every append), `every-N` (group commit), or `on-rotate` (fsync
//! only at segment seal — fastest, widest loss window).

use crate::fleet::GroupConfig;
use crate::journal::{fnv1a64, JournalEntry, JournalError, JournalHeader, LogFold};
use sdf::Rational;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Current WAL directory-format version (stored in the manifest).
pub const WAL_VERSION: u64 = 1;

/// File name of the WAL manifest inside a journal directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

/// When appended entries are fsynced to the active segment.
///
/// The policy bounds how many acknowledged decisions a power loss can tear
/// off the tail (torn lines are truncated at recovery): `Always` loses at
/// most the entry being written, `EveryN(n)` at most `n`, `OnRotate` at
/// most one segment's worth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append — maximum durability, slowest.
    Always,
    /// Group commit: `fsync` once every `n` appends (and at rotation).
    EveryN(u64),
    /// `fsync` only when a segment is sealed — fastest, widest loss window.
    OnRotate,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(256)
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every-{n}"),
            FsyncPolicy::OnRotate => write!(f, "on-rotate"),
        }
    }
}

impl FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "on-rotate" => Ok(FsyncPolicy::OnRotate),
            other => match other.strip_prefix("every-") {
                Some(n) => n
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .map(FsyncPolicy::EveryN)
                    .ok_or_else(|| format!("bad fsync policy '{other}' (want every-N, N > 0)")),
                None => Err(format!(
                    "unknown fsync policy '{other}' (always | every-N | on-rotate)"
                )),
            },
        }
    }
}

/// Tuning knobs of a WAL-backed journal. None bounds memory: the journal
/// keeps no entry in memory, only the fold of its log, and every read of
/// the entries streams from the segment files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Entries per segment before rotation (≥ 1).
    pub segment_max_entries: u64,
    /// When appends are fsynced.
    pub fsync: FsyncPolicy,
    /// Snapshot checkpoints retained on disk (≥ 1). The newest is the live
    /// base; older retained snapshots (and every segment after the oldest
    /// one's fold point) stay on disk for point-in-time replay: copy the
    /// header, an older `snapshot-*.json` and the segments from its fold
    /// point into a fresh journal to rewind the fleet to that moment.
    /// Segment GC is keyed to the **oldest** retained snapshot, so `keep_snapshots: 1`
    /// reproduces the original keep-exactly-one behavior.
    pub keep_snapshots: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_max_entries: 8192,
            fsync: FsyncPolicy::default(),
            keep_snapshots: 1,
        }
    }
}

/// One segment file as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// File name inside the WAL directory.
    pub file: String,
    /// Sequence number of the segment's first entry.
    pub first_seq: u64,
    /// Entry count — authoritative for sealed segments only (the active
    /// segment's count is discovered by scanning at open).
    pub entries: u64,
    /// `true` once the segment is immutable (fsynced and rotated away).
    pub sealed: bool,
}

/// The newest snapshot checkpoint, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotMeta {
    /// File name inside the WAL directory.
    pub file: String,
    /// Sequence number the snapshot folds the log up to (exclusive).
    pub upto_seq: u64,
}

/// The WAL directory's root of trust: header, segment list and snapshot
/// pointer, protected by an FNV-1a checksum over its canonical JSON and
/// replaced only by atomic rename.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// WAL directory-format version ([`WAL_VERSION`]).
    pub version: u64,
    /// The journal header (workload + fleet shape), exactly as a
    /// single-file journal's first line records it.
    pub header: JournalHeader,
    /// Every live segment, oldest first; the last one is active.
    pub segments: Vec<SegmentMeta>,
    /// The newest snapshot checkpoint, if one was taken.
    pub snapshot: Option<SnapshotMeta>,
    /// Older snapshots still retained for point-in-time replay, oldest
    /// first (see [`WalConfig::keep_snapshots`]). Omitted from the
    /// serialized form when `None`, so manifests written before the
    /// retention knob existed keep verifying their checksums.
    #[serde(skip_none)]
    pub snapshot_history: Option<Vec<SnapshotMeta>>,
    /// FNV-1a over this manifest's canonical JSON with `checksum` zeroed.
    pub checksum: u64,
}

impl Manifest {
    fn computed_checksum(&self) -> u64 {
        let mut canonical = self.clone();
        canonical.checksum = 0;
        fnv1a64(
            serde_json::to_string(&canonical)
                .unwrap_or_default()
                .as_bytes(),
        )
    }

    /// `true` when the stored checksum matches the contents.
    pub fn verify(&self) -> bool {
        self.checksum == self.computed_checksum()
    }
}

/// One live resident as folded into a [`FleetCheckpoint`]: everything a
/// fleet needs to re-admit it exactly (same group, same application
/// instance, same contract, same fleet-wide id).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointResident {
    /// Fleet-wide resident id (restored verbatim, so journaled releases
    /// after a restart keep citing the recorded id).
    pub resident: u64,
    /// Group the resident currently lives on (rebalancing included).
    pub group: u64,
    /// Index of the application in the workload spec.
    pub app_index: u64,
    /// Required minimum throughput, if the admission carried a contract.
    pub required_throughput: Option<Rational>,
    /// Sequence number of the admission that created the resident —
    /// restores re-admit in this order, so every intermediate mix is a
    /// subset of a mix the recording actually validated.
    pub admitted_seq: u64,
}

/// One group's shape as folded into a [`FleetCheckpoint`], recorded for
/// every group an applied resize touched: grown or shrunk (even back to
/// the header's capacity), added after the header, or drained. Groups no
/// applied resize touched keep the journal header's shape and are not
/// listed. Restores apply these overrides **before** re-admitting
/// residents, so a checkpoint taken after a grow restores into a fleet big
/// enough to hold what the recording admitted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointGroup {
    /// Group index in the fleet.
    pub group: u64,
    /// Full shape of a group added after the header was stamped
    /// (`ScaleAction::AddGroup`); `None` for groups the header records.
    #[serde(skip_none)]
    pub added: Option<GroupConfig>,
    /// Absolute per-shard capacity after the last applied grow/shrink;
    /// `None` when no grow/shrink was applied to the group (its capacity
    /// is the header's, or `added`'s).
    #[serde(skip_none)]
    pub capacity_per_shard: Option<u64>,
    /// `true` once the group was drained and retired.
    pub retired: bool,
}

impl CheckpointGroup {
    /// An override that (so far) changes nothing about `group`.
    pub fn unchanged(group: u64) -> CheckpointGroup {
        CheckpointGroup {
            group,
            added: None,
            capacity_per_shard: None,
            retired: false,
        }
    }
}

/// A snapshot checkpoint: the fleet's live-resident state with every
/// decision before `upto_seq` already folded in.
///
/// Replaying a checkpointed journal restores this state first and then
/// walks only the entries at `upto_seq` and later — O(tail) start-up
/// instead of O(lifetime) — and the WAL garbage-collects sealed segments
/// the snapshot fully covers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetCheckpoint {
    /// First sequence number **not** folded into the snapshot (the seq the
    /// post-checkpoint tail starts at).
    pub upto_seq: u64,
    /// The fleet's next unassigned resident id at the fold point.
    pub next_resident: u64,
    /// Every live resident at the fold point, ordered by id.
    pub residents: Vec<CheckpointResident>,
    /// Per-group shape overrides at the fold point, ordered by group index
    /// — one for every group an applied resize touched, `None` when no
    /// resize was applied. Omitted from the serialized form when `None`, so
    /// checkpoints written before elasticity existed keep verifying their
    /// checksums.
    #[serde(skip_none)]
    pub groups: Option<Vec<CheckpointGroup>>,
    /// FNV-1a over this checkpoint's canonical JSON with `checksum`
    /// zeroed.
    pub checksum: u64,
}

impl FleetCheckpoint {
    /// Checkpoint over the given resident set, checksum stamped.
    pub fn new(
        upto_seq: u64,
        next_resident: u64,
        mut residents: Vec<CheckpointResident>,
    ) -> FleetCheckpoint {
        residents.sort_by_key(|r| r.resident);
        let mut checkpoint = FleetCheckpoint {
            upto_seq,
            next_resident,
            residents,
            groups: None,
            checksum: 0,
        };
        checkpoint.checksum = checkpoint.computed_checksum();
        checkpoint
    }

    /// The same checkpoint with per-group shape overrides folded in and
    /// the checksum re-stamped. An empty list normalizes to `None`, so a
    /// never-resized fleet's checkpoints serialize exactly as the
    /// pre-elasticity format did.
    pub fn with_groups(mut self, mut groups: Vec<CheckpointGroup>) -> FleetCheckpoint {
        groups.sort_by_key(|g| g.group);
        self.groups = if groups.is_empty() {
            None
        } else {
            Some(groups)
        };
        self.checksum = self.computed_checksum();
        self
    }

    fn computed_checksum(&self) -> u64 {
        let mut canonical = self.clone();
        canonical.checksum = 0;
        fnv1a64(
            serde_json::to_string(&canonical)
                .unwrap_or_default()
                .as_bytes(),
        )
    }

    /// `true` when the stored checksum matches the contents.
    pub fn verify(&self) -> bool {
        self.checksum == self.computed_checksum()
    }
}

/// What opening an existing WAL directory had to repair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalRecovery {
    /// Valid entries found in the active segment.
    pub recovered_entries: u64,
    /// Bytes truncated off the active segment's torn tail (0 on a clean
    /// shutdown).
    pub truncated_bytes: u64,
}

/// Point-in-time shape of a WAL directory, for display and compaction
/// reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Live segment files (including the active one).
    pub segments: usize,
    /// Fold point of the newest snapshot, if any.
    pub snapshot_upto: Option<u64>,
    /// Snapshot checkpoints on disk (newest + retained history).
    pub snapshots: usize,
    /// Total bytes of the manifest, segments and snapshot on disk.
    pub disk_bytes: u64,
}

fn segment_file_name(first_seq: u64) -> String {
    format!("segment-{first_seq:020}.jsonl")
}

fn snapshot_file_name(upto_seq: u64) -> String {
    format!("snapshot-{upto_seq:020}.json")
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> JournalError {
    JournalError::Io(format!("{what} {}: {e}", path.display()))
}

/// Replaces `path` atomically with what `write` streams into it: a temp
/// file in the same directory, flushed, `sync_all`ed and renamed over
/// `path`, then a best-effort directory fsync. A crash leaves either the
/// old file or the new one, never a torn mix; on an error the temp file is
/// removed. Every whole-file write of a journal goes through here.
pub(crate) fn atomic_write(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), JournalError>,
) -> Result<(), JournalError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let result = (|| {
        let file = File::create(&tmp).map_err(|e| io_err("create", &tmp, &e))?;
        let mut writer = BufWriter::new(file);
        write(&mut writer)?;
        writer.flush().map_err(|e| io_err("write", &tmp, &e))?;
        writer
            .get_ref()
            .sync_all()
            .map_err(|e| io_err("sync", &tmp, &e))?;
        std::fs::rename(&tmp, path).map_err(|e| io_err("rename", &tmp, &e))?;
        if let Some(dir) = path.parent() {
            // Make the rename itself durable; failures here only widen the
            // crash window, they never corrupt.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// [`atomic_write`] of `value` as one JSON line (a manifest or snapshot).
fn atomic_write_json(path: &Path, value: &impl Serialize) -> Result<(), JournalError> {
    let line = serde_json::to_string(value).map_err(|e| JournalError::Parse(e.to_string()))?;
    atomic_write(path, |writer| {
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .map_err(|e| io_err("write", path, &e))
    })
}

/// A scan of one segment file: entries counted and checked line by line,
/// each valid one handed on as it is read.
struct SegmentScan {
    entries: u64,
    valid_bytes: u64,
    /// `true` when the consumer stopped the scan before the file ended.
    stopped: bool,
    /// The error that stopped the scan, if any (`valid_bytes` covers
    /// everything before it).
    error: Option<JournalError>,
}

/// The one reader of a segment file: parses each line of `path` and checks
/// it where the log expects it (the segment starts at `first_seq`), then
/// hands it to `on_entry`, which returns `false` to stop the scan. A torn,
/// corrupt or out-of-sequence line stops the scan and is recorded in it:
/// opening a WAL truncates the active segment there, every other use fails
/// with it (see [`read_segment`]).
fn scan_segment(
    path: &Path,
    first_seq: u64,
    mut on_entry: impl FnMut(JournalEntry) -> bool,
) -> Result<SegmentScan, JournalError> {
    let file = File::open(path).map_err(|e| io_err("open", path, &e))?;
    let mut reader = BufReader::new(file);
    let mut scan = SegmentScan {
        entries: 0,
        valid_bytes: 0,
        stopped: false,
        error: None,
    };
    let mut line = String::new();
    loop {
        line.clear();
        let read = match reader.read_line(&mut line) {
            Ok(n) => n,
            Err(e) => return Err(io_err("read", path, &e)),
        };
        if read == 0 {
            return Ok(scan);
        }
        // A line without its newline is a torn write in progress.
        if !line.ends_with('\n') {
            scan.error = Some(JournalError::Parse("torn trailing line".to_string()));
            return Ok(scan);
        }
        let entry: JournalEntry = match serde_json::from_str(line.trim_end()) {
            Ok(entry) => entry,
            Err(e) => {
                scan.error = Some(JournalError::Parse(e.to_string()));
                return Ok(scan);
            }
        };
        if let Err(error) = entry.check(first_seq + scan.entries) {
            scan.error = Some(error);
            return Ok(scan);
        }
        scan.entries += 1;
        scan.valid_bytes += read as u64;
        if !on_entry(entry) {
            scan.stopped = true;
            return Ok(scan);
        }
    }
}

/// Reads segment `seg` of the WAL in `dir` strictly: any scan error is the
/// read's error, and a sealed segment read to its end must hold the entry
/// count the manifest records. Returns `true` when `on_entry` stopped the
/// read early.
fn read_segment(
    dir: &Path,
    seg: &SegmentMeta,
    on_entry: impl FnMut(JournalEntry) -> bool,
) -> Result<bool, JournalError> {
    let scan = scan_segment(&dir.join(&seg.file), seg.first_seq, on_entry)?;
    if let Some(error) = scan.error {
        return Err(error);
    }
    if seg.sealed && !scan.stopped && scan.entries != seg.entries {
        return Err(JournalError::TornManifest(format!(
            "sealed segment {} holds {} entries (manifest says {})",
            seg.file, scan.entries, seg.entries
        )));
    }
    Ok(scan.stopped)
}

/// The WAL store proper: manifest + segment writer. Owned by a
/// [`Journal`](crate::Journal) behind its store lock.
#[derive(Debug)]
pub(crate) struct WalStore {
    dir: PathBuf,
    config: WalConfig,
    manifest: Manifest,
    checkpoint: Option<FleetCheckpoint>,
    writer: BufWriter<File>,
    active_entries: u64,
    next_seq: u64,
    unsynced: u64,
    io_errors: u64,
}

impl WalStore {
    /// Creates a fresh WAL directory. Fails if `dir` already holds one.
    pub(crate) fn create(
        dir: &Path,
        header: JournalHeader,
        config: WalConfig,
    ) -> Result<WalStore, JournalError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, &e))?;
        let manifest_path = dir.join(MANIFEST_FILE);
        if manifest_path.exists() {
            return Err(JournalError::Io(format!(
                "{} already holds a WAL (manifest exists)",
                dir.display()
            )));
        }
        let segment = SegmentMeta {
            file: segment_file_name(0),
            first_seq: 0,
            entries: 0,
            sealed: false,
        };
        let segment_path = dir.join(&segment.file);
        let file = File::create(&segment_path).map_err(|e| io_err("create", &segment_path, &e))?;
        let mut store = WalStore {
            dir: dir.to_path_buf(),
            config: normalize(config),
            manifest: Manifest {
                version: WAL_VERSION,
                header,
                segments: vec![segment],
                snapshot: None,
                snapshot_history: None,
                checksum: 0,
            },
            checkpoint: None,
            writer: BufWriter::new(file),
            active_entries: 0,
            next_seq: 0,
            unsynced: 0,
            io_errors: 0,
        };
        store.write_manifest()?;
        Ok(store)
    }

    /// Opens (and, if needed, repairs) an existing WAL directory, and
    /// returns the fold of its snapshot plus every entry after it, built
    /// from the entries the verification scan reads anyway.
    pub(crate) fn open(
        dir: &Path,
        config: WalConfig,
    ) -> Result<(WalStore, WalRecovery, LogFold), JournalError> {
        let config = normalize(config);
        let manifest_path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&manifest_path)
            .map_err(|e| io_err("read", &manifest_path, &e))?;
        let manifest: Manifest = serde_json::from_str(&text)
            .map_err(|e| JournalError::TornManifest(format!("manifest does not parse: {e}")))?;
        if !manifest.verify() {
            return Err(JournalError::TornManifest(
                "manifest checksum mismatch".to_string(),
            ));
        }
        if manifest.version != WAL_VERSION {
            return Err(JournalError::UnsupportedVersion(manifest.version));
        }
        // A stray temp file is a crashed manifest replacement; the rename
        // never happened, so the durable manifest is authoritative.
        let _ = std::fs::remove_file(dir.join(format!("{MANIFEST_FILE}.tmp")));

        let checkpoint = match &manifest.snapshot {
            Some(meta) => {
                let path = dir.join(&meta.file);
                let text = std::fs::read_to_string(&path).map_err(|e| io_err("read", &path, &e))?;
                let checkpoint: FleetCheckpoint = serde_json::from_str(&text).map_err(|e| {
                    JournalError::CorruptCheckpoint(format!("snapshot does not parse: {e}"))
                })?;
                if !checkpoint.verify() {
                    return Err(JournalError::CorruptCheckpoint(
                        "snapshot checksum mismatch".to_string(),
                    ));
                }
                if checkpoint.upto_seq != meta.upto_seq {
                    return Err(JournalError::CorruptCheckpoint(format!(
                        "snapshot folds to {} but manifest says {}",
                        checkpoint.upto_seq, meta.upto_seq
                    )));
                }
                Some(checkpoint)
            }
            None => None,
        };

        // Validate the segment chain: contiguous, all-but-last sealed, and
        // history complete back to seq 0 or the snapshot's fold point.
        let Some((active_meta, sealed)) = manifest.segments.split_last() else {
            return Err(JournalError::TornManifest(
                "manifest lists no segments".to_string(),
            ));
        };
        if active_meta.sealed {
            return Err(JournalError::TornManifest(
                "manifest's last segment is sealed (no active segment)".to_string(),
            ));
        }
        let floor = checkpoint.as_ref().map_or(0, |c| c.upto_seq);
        let first = manifest.segments[0].first_seq;
        if first > floor {
            return Err(JournalError::TornManifest(format!(
                "history starts at seq {first} but the snapshot only covers up to {floor}"
            )));
        }
        let mut expected = first;
        for seg in sealed {
            if !seg.sealed {
                return Err(JournalError::TornManifest(format!(
                    "segment {} is not sealed but is not last",
                    seg.file
                )));
            }
            if seg.first_seq != expected {
                return Err(JournalError::TornManifest(format!(
                    "segment {} starts at seq {} (expected {expected})",
                    seg.file, seg.first_seq
                )));
            }
            expected += seg.entries;
        }
        if active_meta.first_seq != expected {
            return Err(JournalError::TornManifest(format!(
                "active segment {} starts at seq {} (expected {expected})",
                active_meta.file, active_meta.first_seq
            )));
        }

        // Segments may start before the snapshot's fold point (a retained
        // older snapshot keeps them): only later entries are folded.
        let mut fold = LogFold::new(checkpoint.as_ref());
        let mut fold_entry = |entry: &JournalEntry| {
            if entry.seq >= floor {
                fold.apply(entry);
            }
        };

        // Sealed segments were fsynced at seal time: verify them strictly.
        for seg in sealed {
            read_segment(dir, seg, |entry| {
                fold_entry(&entry);
                true
            })?;
        }

        // The active segment may be torn: recover to the last valid entry.
        let active_path = dir.join(&active_meta.file);
        if !active_path.exists() {
            // Crash between sealing the old segment and creating the new
            // file: the manifest is ahead of the filesystem, harmlessly.
            File::create(&active_path).map_err(|e| io_err("create", &active_path, &e))?;
        }
        let scan = scan_segment(&active_path, active_meta.first_seq, |entry| {
            fold_entry(&entry);
            true
        })?;
        let file_len = std::fs::metadata(&active_path)
            .map_err(|e| io_err("stat", &active_path, &e))?
            .len();
        let mut recovery = WalRecovery {
            recovered_entries: scan.entries,
            truncated_bytes: 0,
        };
        if scan.error.is_some() || file_len > scan.valid_bytes {
            recovery.truncated_bytes = file_len.saturating_sub(scan.valid_bytes);
            let file = OpenOptions::new()
                .write(true)
                .open(&active_path)
                .map_err(|e| io_err("open", &active_path, &e))?;
            file.set_len(scan.valid_bytes)
                .map_err(|e| io_err("truncate", &active_path, &e))?;
            file.sync_all()
                .map_err(|e| io_err("sync", &active_path, &e))?;
        }
        let next_seq = active_meta.first_seq + scan.entries;
        let writer = OpenOptions::new()
            .append(true)
            .open(&active_path)
            .map_err(|e| io_err("open", &active_path, &e))?;
        let store = WalStore {
            dir: dir.to_path_buf(),
            config,
            manifest,
            checkpoint,
            writer: BufWriter::new(writer),
            active_entries: scan.entries,
            next_seq,
            unsynced: 0,
            io_errors: 0,
        };
        Ok((store, recovery, fold))
    }

    pub(crate) fn header(&self) -> &JournalHeader {
        &self.manifest.header
    }

    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// First sequence number of the journal's entry view (the snapshot's
    /// fold point, or 0 without one).
    pub(crate) fn base_seq(&self) -> u64 {
        self.checkpoint.as_ref().map_or(0, |c| c.upto_seq)
    }

    pub(crate) fn checkpoint(&self) -> Option<&FleetCheckpoint> {
        self.checkpoint.as_ref()
    }

    pub(crate) fn io_errors(&self) -> u64 {
        self.io_errors
    }

    pub(crate) fn stats(&self) -> WalStats {
        let mut disk_bytes = 0;
        let mut names: Vec<&str> = self
            .manifest
            .segments
            .iter()
            .map(|s| s.file.as_str())
            .collect();
        names.push(MANIFEST_FILE);
        if let Some(snapshot) = &self.manifest.snapshot {
            names.push(&snapshot.file);
        }
        if let Some(history) = &self.manifest.snapshot_history {
            for old in history {
                names.push(&old.file);
            }
        }
        for name in names {
            if let Ok(meta) = std::fs::metadata(self.dir.join(name)) {
                disk_bytes += meta.len();
            }
        }
        WalStats {
            segments: self.manifest.segments.len(),
            snapshot_upto: self.manifest.snapshot.as_ref().map(|s| s.upto_seq),
            snapshots: self.manifest.snapshot.iter().count()
                + self
                    .manifest
                    .snapshot_history
                    .as_ref()
                    .map_or(0, |h| h.len()),
            disk_bytes,
        }
    }

    fn write_manifest(&mut self) -> Result<(), JournalError> {
        self.manifest.checksum = self.manifest.computed_checksum();
        atomic_write_json(&self.dir.join(MANIFEST_FILE), &self.manifest)
    }

    /// Appends one pre-stamped entry. I/O failures are absorbed into the
    /// [`io_errors`](Self::io_errors) counter (the appending fleet cannot
    /// un-decide a decision); the sequence stays consistent, and recovery
    /// truncates any partial line.
    pub(crate) fn append_entry(&mut self, entry: JournalEntry) {
        debug_assert_eq!(entry.seq, self.next_seq, "WAL appends are sequential");
        if self.write_entry(&entry).is_err() {
            self.io_errors += 1;
        }
        self.next_seq += 1;
        // Rotate only after next_seq advanced: the fresh segment's
        // first_seq is the sequence number of the next append.
        if self.active_entries >= self.config.segment_max_entries && self.rotate().is_err() {
            self.io_errors += 1;
        }
    }

    fn write_entry(&mut self, entry: &JournalEntry) -> Result<(), JournalError> {
        let line = serde_json::to_string(entry).map_err(|e| JournalError::Parse(e.to_string()))?;
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| JournalError::Io(format!("append: {e}")))?;
        self.active_entries += 1;
        self.unsynced += 1;
        match self.config.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n {
                    self.sync()?;
                }
            }
            FsyncPolicy::OnRotate => {}
        }
        Ok(())
    }

    /// Flushes and fsyncs the active segment.
    pub(crate) fn sync(&mut self) -> Result<(), JournalError> {
        self.writer
            .flush()
            .map_err(|e| JournalError::Io(format!("flush: {e}")))?;
        self.writer
            .get_ref()
            .sync_all()
            .map_err(|e| JournalError::Io(format!("sync: {e}")))?;
        self.unsynced = 0;
        Ok(())
    }

    /// Seals the active segment (fsync, mark immutable) and opens a fresh
    /// one at the current sequence number.
    fn rotate(&mut self) -> Result<(), JournalError> {
        self.sync()?;
        let active = self
            .manifest
            .segments
            .last_mut()
            .expect("a WAL always has an active segment");
        active.entries = self.active_entries;
        active.sealed = true;
        let next = SegmentMeta {
            file: segment_file_name(self.next_seq),
            first_seq: self.next_seq,
            entries: 0,
            sealed: false,
        };
        let path = self.dir.join(&next.file);
        self.manifest.segments.push(next);
        self.write_manifest()?;
        let file = File::create(&path).map_err(|e| io_err("create", &path, &e))?;
        self.writer = BufWriter::new(file);
        self.active_entries = 0;
        self.unsynced = 0;
        Ok(())
    }

    /// Installs a snapshot checkpoint: writes the snapshot file, points
    /// the manifest at it and garbage-collects every sealed segment the
    /// snapshot fully covers (sealing the active segment first when it is
    /// covered too).
    pub(crate) fn install_checkpoint(
        &mut self,
        checkpoint: FleetCheckpoint,
    ) -> Result<(), JournalError> {
        if !checkpoint.verify() {
            return Err(JournalError::CorruptCheckpoint(
                "checksum mismatch".to_string(),
            ));
        }
        if checkpoint.upto_seq > self.next_seq || checkpoint.upto_seq < self.base_seq() {
            return Err(JournalError::CorruptCheckpoint(format!(
                "fold point {} outside [{}, {}]",
                checkpoint.upto_seq,
                self.base_seq(),
                self.next_seq
            )));
        }
        // Seal the active segment if the snapshot covers all of it, so it
        // is collectable below.
        let active_first = self
            .manifest
            .segments
            .last()
            .expect("a WAL always has an active segment")
            .first_seq;
        if self.active_entries > 0 && active_first + self.active_entries <= checkpoint.upto_seq {
            self.rotate()?;
        } else {
            self.sync()?;
        }
        let file = snapshot_file_name(checkpoint.upto_seq);
        atomic_write_json(&self.dir.join(&file), &checkpoint)?;

        let old_snapshot = self.manifest.snapshot.take();
        self.manifest.snapshot = Some(SnapshotMeta {
            file: file.clone(),
            upto_seq: checkpoint.upto_seq,
        });
        // Retention: the displaced snapshot joins the history (oldest
        // first), which is then trimmed so history + current stay within
        // keep_snapshots. Segment GC is keyed to the *oldest* snapshot
        // still retained, so every retained fold point keeps the tail it
        // needs for point-in-time replay.
        let mut history = self.manifest.snapshot_history.take().unwrap_or_default();
        if let Some(old) = old_snapshot {
            if old.file != file {
                history.push(old);
            }
        }
        let mut dropped: Vec<SnapshotMeta> = Vec::new();
        while history.len() + 1 > self.config.keep_snapshots {
            match history.first() {
                Some(_) => dropped.push(history.remove(0)),
                None => break,
            }
        }
        let gc_floor = history
            .first()
            .map_or(checkpoint.upto_seq, |oldest| oldest.upto_seq);
        self.manifest.snapshot_history = if history.is_empty() {
            None
        } else {
            Some(history)
        };
        let (keep, gone): (Vec<SegmentMeta>, Vec<SegmentMeta>) = self
            .manifest
            .segments
            .drain(..)
            .partition(|s| !(s.sealed && s.first_seq + s.entries <= gc_floor));
        self.manifest.segments = keep;
        self.write_manifest()?;
        // Only after the manifest durably stopped referencing them.
        for seg in gone {
            let _ = std::fs::remove_file(self.dir.join(&seg.file));
        }
        for old in dropped {
            if old.file != file {
                let _ = std::fs::remove_file(self.dir.join(&old.file));
            }
        }
        self.checkpoint = Some(checkpoint);
        Ok(())
    }

    /// Streams every entry with `seq >= from_seq` in order through `f`,
    /// reading each segment strictly (see [`read_segment`]), in O(1)
    /// memory. `f` returning `false` stops the stream early.
    pub(crate) fn stream_entries(
        &mut self,
        from_seq: u64,
        mut f: impl FnMut(&JournalEntry) -> bool,
    ) -> Result<(), JournalError> {
        // Reads go through the filesystem: make buffered appends visible.
        self.writer
            .flush()
            .map_err(|e| JournalError::Io(format!("flush: {e}")))?;
        for seg in &self.manifest.segments {
            let end = if seg.sealed {
                seg.first_seq + seg.entries
            } else {
                self.next_seq
            };
            if end > from_seq
                && read_segment(&self.dir, seg, |entry| entry.seq < from_seq || f(&entry))?
            {
                break;
            }
        }
        Ok(())
    }
}

fn normalize(mut config: WalConfig) -> WalConfig {
    config.segment_max_entries = config.segment_max_entries.max(1);
    config.keep_snapshots = config.keep_snapshots.max(1);
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{DecisionEvent, Journal};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("probcon-wal-test")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_config() -> WalConfig {
        WalConfig {
            segment_max_entries: 4,
            fsync: FsyncPolicy::OnRotate,
            keep_snapshots: 1,
        }
    }

    fn release(resident: u64) -> DecisionEvent {
        DecisionEvent::Release { resident }
    }

    #[test]
    fn fsync_policy_parse_display_roundtrip() {
        for policy in [
            FsyncPolicy::Always,
            FsyncPolicy::EveryN(64),
            FsyncPolicy::OnRotate,
        ] {
            assert_eq!(policy.to_string().parse::<FsyncPolicy>(), Ok(policy));
        }
        assert!("every-0".parse::<FsyncPolicy>().is_err());
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
    }

    #[test]
    fn appends_rotate_segments_and_reopen_resumes() {
        let dir = tmp_dir("rotate");
        let journal = Journal::create_wal(&dir, JournalHeader::default(), small_config()).unwrap();
        for i in 0..10 {
            assert_eq!(journal.append(release(i)), i);
        }
        assert_eq!(journal.len(), 10);
        // 4 + 4 + 2: two sealed segments plus the active one.
        assert_eq!(journal.wal_stats().unwrap().segments, 3);
        journal.sync().unwrap();
        drop(journal);

        let (journal, recovery) = Journal::open_wal(&dir, small_config()).unwrap();
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.recovered_entries, 2);
        assert_eq!(journal.len(), 10);
        assert_eq!(journal.append(release(10)), 10);
        let entries = journal.try_entries().unwrap();
        assert_eq!(entries.len(), 11);
        assert!(entries.iter().enumerate().all(|(i, e)| e.seq == i as u64));
        journal.verify().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_active_tail_is_truncated_to_last_valid_entry() {
        let dir = tmp_dir("torn-tail");
        let journal = Journal::create_wal(&dir, JournalHeader::default(), small_config()).unwrap();
        for i in 0..6 {
            journal.append(release(i));
        }
        journal.sync().unwrap();
        drop(journal);

        // Simulate a crash mid-append: garbage half-line on the active
        // segment (which holds seqs 4 and 5).
        let active = dir.join(segment_file_name(4));
        let mut file = OpenOptions::new().append(true).open(&active).unwrap();
        file.write_all(b"{\"seq\":6,\"timestamp_micros\":12,\"chec")
            .unwrap();
        drop(file);

        let (journal, recovery) = Journal::open_wal(&dir, small_config()).unwrap();
        assert_eq!(recovery.recovered_entries, 2);
        assert!(recovery.truncated_bytes > 0);
        assert_eq!(journal.len(), 6);
        // Appends continue where the valid history ended.
        assert_eq!(journal.append(release(6)), 6);
        journal.verify().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_mid_active_segment_truncates_the_rest() {
        let dir = tmp_dir("torn-mid");
        let journal = Journal::create_wal(&dir, JournalHeader::default(), small_config()).unwrap();
        for i in 0..3 {
            journal.append(release(i));
        }
        journal.sync().unwrap();
        drop(journal);

        // Flip a digit inside entry seq 1: its checksum no longer matches,
        // so recovery keeps only seq 0.
        let active = dir.join(segment_file_name(0));
        let text = std::fs::read_to_string(&active).unwrap();
        let tampered = text.replace("\"resident\":1", "\"resident\":7");
        assert_ne!(text, tampered);
        std::fs::write(&active, tampered).unwrap();

        let (journal, recovery) = Journal::open_wal(&dir, small_config()).unwrap();
        assert_eq!(recovery.recovered_entries, 1);
        assert_eq!(journal.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifest_rejected_with_typed_error() {
        let dir = tmp_dir("torn-manifest");
        let journal = Journal::create_wal(&dir, JournalHeader::default(), small_config()).unwrap();
        journal.append(release(0));
        journal.sync().unwrap();
        drop(journal);

        let manifest = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&manifest).unwrap();

        // Truncated mid-write: not valid JSON.
        std::fs::write(&manifest, &text[..text.len() / 2]).unwrap();
        assert!(matches!(
            Journal::open_wal(&dir, small_config()),
            Err(JournalError::TornManifest(_))
        ));

        // Valid JSON, edited contents: checksum catches it.
        std::fs::write(
            &manifest,
            text.replace("\"first_seq\":0", "\"first_seq\":9"),
        )
        .unwrap();
        assert!(matches!(
            Journal::open_wal(&dir, small_config()),
            Err(JournalError::TornManifest(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_sealed_segment_is_an_error_not_a_truncation() {
        let dir = tmp_dir("sealed-corrupt");
        let journal = Journal::create_wal(&dir, JournalHeader::default(), small_config()).unwrap();
        for i in 0..6 {
            journal.append(release(i));
        }
        journal.sync().unwrap();
        drop(journal);

        let sealed = dir.join(segment_file_name(0));
        let text = std::fs::read_to_string(&sealed).unwrap();
        std::fs::write(&sealed, text.replace("\"resident\":2", "\"resident\":9")).unwrap();
        assert!(matches!(
            Journal::open_wal(&dir, small_config()),
            Err(JournalError::Checksum { seq: 2 })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_garbage_collects_covered_segments() {
        let dir = tmp_dir("gc");
        let journal = Journal::create_wal(&dir, JournalHeader::default(), small_config()).unwrap();
        for i in 0..10 {
            journal.append(release(i));
        }
        let stats = journal.wal_stats().unwrap();
        assert_eq!(stats.segments, 3);

        let checkpoint = FleetCheckpoint::new(8, 0, Vec::new());
        journal.install_checkpoint(checkpoint.clone()).unwrap();
        let stats = journal.wal_stats().unwrap();
        // Both fully covered sealed segments are gone; the active one
        // (seqs 8, 9) survives.
        assert_eq!(stats.segments, 1);
        assert_eq!(stats.snapshot_upto, Some(8));
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.base_checkpoint(), Some(checkpoint));

        // Reopen: the view still starts at the fold point and appends
        // continue from seq 10.
        journal.sync().unwrap();
        drop(journal);
        let (journal, _) = Journal::open_wal(&dir, small_config()).unwrap();
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.append(release(10)), 10);
        let entries = journal.try_entries().unwrap();
        assert_eq!(entries.first().map(|e| e.seq), Some(8));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_checksum_tamper_detected() {
        let checkpoint = FleetCheckpoint::new(5, 3, Vec::new());
        assert!(checkpoint.verify());
        let mut tampered = checkpoint.clone();
        tampered.next_resident = 4;
        assert!(!tampered.verify());

        let dir = tmp_dir("snapshot-tamper");
        let journal = Journal::create_wal(&dir, JournalHeader::default(), small_config()).unwrap();
        for i in 0..6 {
            journal.append(release(i));
        }
        journal
            .install_checkpoint(FleetCheckpoint::new(5, 6, Vec::new()))
            .unwrap();
        journal.sync().unwrap();
        drop(journal);
        let snapshot = dir.join(snapshot_file_name(5));
        let text = std::fs::read_to_string(&snapshot).unwrap();
        std::fs::write(
            &snapshot,
            text.replace("\"next_resident\":6", "\"next_resident\":7"),
        )
        .unwrap();
        assert!(matches!(
            Journal::open_wal(&dir, small_config()),
            Err(JournalError::CorruptCheckpoint(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
