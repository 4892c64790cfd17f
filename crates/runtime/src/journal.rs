//! Append-only admission journal and deterministic replay.
//!
//! The ROADMAP asks for "persistence of admission logs (append-only journal
//! of admit/reject/release decisions with predicted periods) for replay,
//! audit and offline capacity planning". [`Journal`] is that log: every
//! fleet decision ([`DecisionEvent`]) is appended under the owning group's
//! decision lock, stamped with a monotonically increasing sequence number,
//! a wall-clock timestamp and an FNV-1a checksum over the serialized event,
//! and can be rendered to (and parsed back from) a JSON-lines file whose
//! first line is a [`JournalHeader`] describing how to rebuild the workload
//! and fleet.
//!
//! [`JournalReplayer`] re-executes a journal **sequentially** against a
//! fresh [`FleetManager`] and verifies
//! outcome-for-outcome equivalence: every recorded admit must admit again
//! with the *same exact predicted period* (the analysis is deterministic
//! rational arithmetic), every recorded rejection must reject with the same
//! violation count, every saturation must saturate, every rebalance must
//! land from the recorded group with the recorded period, and every resize
//! must apply or refuse as recorded. Because a decision depends only on
//! the owning group's resident mix — which is itself fully determined by
//! the prefix of the journal — sequential replay of the recorded decision
//! order reproduces every outcome, even for journals recorded under
//! concurrency.
//!
//! Re-execution has one engine, which `probcon plan`
//! ([`PlanRun`](crate::PlanRun)) drives too: it restores the base snapshot
//! checkpoint — the group shape it records, then its residents — and
//! answers each recorded event with the event the fleet journals now.
//! Replay requires the two to be equal; plan sorts their differences into
//! flips. So a journal that replays EQUIVALENT plans its recorded shape
//! with zero flips, snapshot-compacted journals included.
//!
//! The state a log implies has one fold, too. Every [`Journal`] keeps the
//! fold of its base checkpoint plus every later entry, applying each entry
//! as it is appended (or read, when the journal is parsed or a WAL is
//! opened). [`Journal::checkpoint`] returns it; [`Journal::compact`]
//! installs it as the new base, which is how `probcon journal compact` and
//! `probcon serve`'s checkpointer both snapshot a log; and
//! [`FleetManager::recover`] restarts a fleet by restoring it onto the
//! shape the journal's header records. [`fold_checkpoint`] runs the same
//! step over any entry prefix.

use crate::fleet::{FleetConfig, FleetError, FleetManager, GroupConfig};
use crate::planner::RouteMode;
use crate::reexec::{Reexecutor, Undriven};
use crate::service::ServiceError;
use crate::wal::{
    atomic_write, CheckpointGroup, CheckpointResident, FleetCheckpoint, WalConfig, WalRecovery,
    WalStats, WalStore,
};
use sdf::Rational;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::Mutex;

/// Current journal file-format version (plain header + entries).
pub const JOURNAL_VERSION: u64 = 1;

/// Journal file-format version whose second line is a snapshot checkpoint
/// ([`FleetCheckpoint`]) that folds every entry before its `upto_seq`;
/// entries follow from that sequence number. Rendered whenever a journal
/// carries a base checkpoint; version-1 files (PR 2–6) keep parsing and
/// render byte-identically when no checkpoint is present.
pub const JOURNAL_CHECKPOINT_VERSION: u64 = 2;

/// First line of a journal file: everything needed to rebuild the workload
/// spec and the fleet that recorded the decisions.
///
/// The workload fields (`seed`, `apps`, `actors`) parameterize
/// `experiments::workload::workload_with` — they are stamped by `probcon
/// fleet-bench` and zero for journals recorded by hand-built fleets. The
/// fleet shape is always self-contained: [`FleetManager`]
/// records every group's exact [`GroupConfig`] (the scalar
/// `groups`/`shards_per_group`/`capacity_per_shard` fields summarize the
/// first group for display). `probcon replay` consumes exactly these.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Journal format version ([`JOURNAL_VERSION`]).
    pub version: u64,
    /// Workload generator seed.
    pub seed: u64,
    /// Number of applications in the workload spec.
    pub apps: u64,
    /// Actors per generated application graph.
    pub actors: u64,
    /// Number of platform groups in the fleet.
    pub groups: u64,
    /// Admission shards per group.
    pub shards_per_group: u64,
    /// Resident capacity per shard.
    pub capacity_per_shard: u64,
    /// Routing policy name (`Display`/`FromStr` of
    /// [`RoutingPolicy`](crate::RoutingPolicy)).
    pub policy: String,
    /// Exact per-group shapes (authoritative when non-empty; the scalar
    /// fleet fields above are a uniform-fleet summary).
    pub group_shapes: Vec<GroupConfig>,
}

impl Default for JournalHeader {
    fn default() -> Self {
        JournalHeader {
            version: JOURNAL_VERSION,
            seed: 0,
            apps: 0,
            actors: 0,
            groups: 1,
            shards_per_group: 1,
            capacity_per_shard: 1,
            policy: "least-utilised".to_string(),
            group_shapes: Vec::new(),
        }
    }
}

/// One elastic capacity change requested against a live fleet.
///
/// Capacity values are **absolute** (the new per-shard capacity, not a
/// delta), so a recorded action means the same thing regardless of the
/// fleet state it is replayed into, and `probcon plan` can apply a recorded
/// resize stream verbatim. `AddGroup` records the index the fleet assigned
/// at execution time, making the action self-describing for log folds that
/// never rebuild a fleet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleAction {
    /// Raise a group's per-shard capacity to `capacity_per_shard`.
    Grow {
        /// Group index to grow.
        group: u64,
        /// New (absolute) resident capacity per shard.
        capacity_per_shard: u64,
    },
    /// Lower a group's per-shard capacity to `capacity_per_shard`.
    Shrink {
        /// Group index to shrink.
        group: u64,
        /// New (absolute) resident capacity per shard.
        capacity_per_shard: u64,
    },
    /// Append a new group with the given shape.
    AddGroup {
        /// Index the fleet assigned to the new group.
        group: u64,
        /// Exact shape of the new group.
        shape: GroupConfig,
    },
    /// Rebalance every resident out of a group, then retire it. The drain
    /// is all-or-nothing: if any resident cannot be placed elsewhere the
    /// whole action is refused and the fleet is untouched.
    Drain {
        /// Group index to drain and retire.
        group: u64,
    },
}

impl fmt::Display for ScaleAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaleAction::Grow {
                group,
                capacity_per_shard,
            } => write!(f, "grow group {group} to {capacity_per_shard}/shard"),
            ScaleAction::Shrink {
                group,
                capacity_per_shard,
            } => write!(f, "shrink group {group} to {capacity_per_shard}/shard"),
            ScaleAction::AddGroup { group, shape } => write!(
                f,
                "add group {group} ({} x {}/shard)",
                shape.shards, shape.capacity_per_shard
            ),
            ScaleAction::Drain { group } => write!(f, "drain group {group}"),
        }
    }
}

/// Why a [`ScaleAction`] was refused. Refusals are journaled (as
/// [`ScaleOutcome::Refused`]) exactly like applied actions, so a replay
/// reproduces the controller's full decision stream, refusals included.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleRefusal {
    /// A drain could not place this resident on any other group.
    Unplaceable {
        /// Fleet-wide resident id that had nowhere to go.
        resident: u64,
    },
    /// A shrink would cut capacity below a shard's current occupancy.
    Occupied {
        /// Group whose shard is too full.
        group: u64,
        /// Shard index inside the group.
        shard: u64,
        /// Residents currently on the shard.
        residents: u64,
        /// Capacity the shrink asked for.
        capacity: u64,
    },
    /// The fleet's last active group cannot be drained.
    LastGroup,
    /// The action named a group index the fleet does not have.
    UnknownGroup {
        /// The out-of-range group index.
        group: u64,
    },
    /// The action named a group that has already been drained and retired.
    Retired {
        /// The retired group's index.
        group: u64,
    },
}

impl fmt::Display for ScaleRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaleRefusal::Unplaceable { resident } => {
                write!(f, "resident #{resident} cannot be placed on any other group")
            }
            ScaleRefusal::Occupied {
                group,
                shard,
                residents,
                capacity,
            } => write!(
                f,
                "group {group} shard {shard} holds {residents} residents, above the requested capacity {capacity}"
            ),
            ScaleRefusal::LastGroup => write!(f, "cannot drain the last active group"),
            ScaleRefusal::UnknownGroup { group } => write!(f, "no group {group}"),
            ScaleRefusal::Retired { group } => write!(f, "group {group} is retired"),
        }
    }
}

/// Outcome of a journaled [`ScaleAction`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleOutcome {
    /// The action was applied; the fleet's shape changed.
    Applied,
    /// The action was refused; nothing changed.
    Refused {
        /// Why the fleet refused.
        reason: ScaleRefusal,
    },
}

/// Outcome of a journaled admission attempt.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JournalOutcome {
    /// Admitted under the fleet-wide resident id, with the period predicted
    /// at admission time.
    Admitted {
        /// Fleet-wide resident id assigned to the admission.
        resident: u64,
        /// Period predicted for the new resident at admission time.
        predicted_period: Rational,
    },
    /// Rejected by throughput contracts; nothing changed.
    Rejected {
        /// Number of violated requirements.
        violations: u64,
    },
    /// The routed group had no free capacity; nothing changed.
    Saturated,
}

/// One fleet decision, exactly as it changed (or declined to change) the
/// resident mix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecisionEvent {
    /// An admission attempt and its outcome.
    Admit {
        /// Group index the request was routed to.
        group: u64,
        /// Index of the application in the workload spec.
        app_index: u64,
        /// Required minimum throughput, if the request carried a contract.
        required_throughput: Option<Rational>,
        /// What the admission decided.
        outcome: JournalOutcome,
        /// Affinity tag the request carried, if any. Recorded so
        /// [`RouteMode::Replan`](crate::planner::RouteMode) re-routes
        /// affinity workloads the way the recorded run did. Omitted
        /// from the serialized form when `None`, so journals written before
        /// this field existed keep verifying their checksums.
        #[serde(skip_none)]
        affinity: Option<String>,
    },
    /// A resident released its capacity.
    Release {
        /// Fleet-wide resident id.
        resident: u64,
    },
    /// A resident was moved between groups.
    Rebalance {
        /// Fleet-wide resident id.
        resident: u64,
        /// Group the resident left.
        from_group: u64,
        /// Group the resident now lives on.
        to_group: u64,
        /// Period predicted on the target group at move time.
        predicted_period: Rational,
    },
    /// An elastic capacity change attempted by the autoscaler (or a manual
    /// `resize` call) and its outcome. First-class in the journal so
    /// replays reproduce autoscaled runs outcome-for-outcome: an `Applied`
    /// resize re-applies the recorded shape change, a `Refused` one is a
    /// recorded no-op.
    Resize {
        /// The capacity change that was attempted.
        action: ScaleAction,
        /// Whether the fleet applied or refused it.
        outcome: ScaleOutcome,
    },
}

impl fmt::Display for DecisionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecisionEvent::Admit {
                group,
                app_index,
                required_throughput,
                outcome,
                affinity,
            } => {
                write!(f, "admit app{app_index} -> group {group}")?;
                if let Some(tag) = affinity {
                    write!(f, " (affinity {tag})")?;
                }
                if required_throughput.is_some() {
                    write!(f, " (contract)")?;
                }
                match outcome {
                    JournalOutcome::Admitted {
                        resident,
                        predicted_period,
                    } => write!(f, ": admitted #{resident} period {predicted_period}"),
                    JournalOutcome::Rejected { violations } => {
                        write!(f, ": rejected ({violations} violations)")
                    }
                    JournalOutcome::Saturated => write!(f, ": saturated"),
                }
            }
            DecisionEvent::Release { resident } => write!(f, "release #{resident}"),
            DecisionEvent::Rebalance {
                resident,
                from_group,
                to_group,
                predicted_period,
            } => write!(
                f,
                "rebalance #{resident}: group {from_group} -> {to_group} period {predicted_period}"
            ),
            DecisionEvent::Resize { action, outcome } => {
                write!(f, "resize: {action}")?;
                match outcome {
                    ScaleOutcome::Applied => write!(f, ": applied"),
                    ScaleOutcome::Refused { reason } => write!(f, ": refused ({reason})"),
                }
            }
        }
    }
}

/// A journaled decision: sequence number, timestamp, checksum, payload and
/// optional provenance.
///
/// The two provenance fields are optional and default to `None` when absent
/// from the JSON, so journals recorded by older builds (which never wrote
/// them) still parse — and their checksums, which only cover provenance
/// when present, still verify.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Zero-based position in the journal (contiguous).
    pub seq: u64,
    /// Microseconds since the Unix epoch at append time.
    pub timestamp_micros: u64,
    /// FNV-1a checksum of `seq`, the serialized event and (when present)
    /// the provenance fields.
    pub checksum: u64,
    /// The decision itself.
    pub event: DecisionEvent,
    /// Client that drove the decision, stamped from the active
    /// [`ClientScope`] (a [`RemoteServer`](crate::RemoteServer) enters one
    /// per authenticated connection). `None` for locally driven decisions.
    pub client: Option<String>,
    /// Sequence number the entry held in the journal it was split out of
    /// (see [`Journal::split_by_client`]); [`Journal::merge`] uses it to
    /// reconstruct the original interleaving exactly.
    pub origin_seq: Option<u64>,
}

impl JournalEntry {
    /// Checks the entry read where the log expects sequence number
    /// `expected`: the sequence must continue there and the checksum must
    /// hold. Every reader of entries — file parser, WAL scan and stream,
    /// in-memory walk — runs this one check.
    pub(crate) fn check(&self, expected: u64) -> Result<(), JournalError> {
        if self.seq != expected {
            return Err(JournalError::SequenceGap {
                expected,
                found: self.seq,
            });
        }
        let checksum = checksum_of(
            self.seq,
            &self.event,
            self.client.as_deref(),
            self.origin_seq,
        );
        if self.checksum != checksum {
            return Err(JournalError::Checksum { seq: self.seq });
        }
        Ok(())
    }
}

/// Why a journal failed to load or verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// Filesystem failure.
    Io(String),
    /// A line was not valid JSON of the expected shape.
    Parse(String),
    /// An entry's stored checksum does not match its contents.
    Checksum {
        /// Sequence number of the corrupt entry.
        seq: u64,
    },
    /// Sequence numbers are not contiguous from zero.
    SequenceGap {
        /// Expected next sequence number.
        expected: u64,
        /// Sequence number actually found.
        found: u64,
    },
    /// The file had no header line.
    MissingHeader,
    /// The header's format version is not supported.
    UnsupportedVersion(u64),
    /// Two journals could not be merged because their headers describe
    /// different workloads or fleet shapes.
    IncompatibleHeaders(String),
    /// A WAL directory's manifest is torn, truncated or edited — it does
    /// not parse, fails its checksum, or describes an impossible segment
    /// chain.
    TornManifest(String),
    /// A snapshot checkpoint does not parse, fails its checksum, or folds
    /// to a sequence number outside the journal's range.
    CorruptCheckpoint(String),
    /// The operation needs the full entry history, but entries before the
    /// base checkpoint's fold point have been compacted away.
    Checkpointed {
        /// Fold point of the base checkpoint (history before it is gone).
        upto_seq: u64,
    },
    /// The path is a segmented WAL **directory**, but the operation only
    /// reads single-file journals. `probcon journal compact <dir> --out
    /// <file>` renders the directory into one they can read.
    IsWalDirectory {
        /// The directory that was passed where a file was expected.
        path: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Parse(e) => write!(f, "journal parse error: {e}"),
            JournalError::Checksum { seq } => {
                write!(f, "journal entry {seq} failed its checksum")
            }
            JournalError::SequenceGap { expected, found } => {
                write!(
                    f,
                    "journal sequence gap: expected {expected}, found {found}"
                )
            }
            JournalError::MissingHeader => write!(f, "journal file has no header line"),
            JournalError::UnsupportedVersion(v) => {
                write!(f, "unsupported journal version {v}")
            }
            JournalError::IncompatibleHeaders(why) => {
                write!(f, "journals cannot be merged: {why}")
            }
            JournalError::TornManifest(why) => {
                write!(f, "WAL manifest is torn or corrupt: {why}")
            }
            JournalError::CorruptCheckpoint(why) => {
                write!(f, "snapshot checkpoint is corrupt: {why}")
            }
            JournalError::Checkpointed { upto_seq } => {
                write!(
                    f,
                    "history before seq {upto_seq} was folded into a snapshot checkpoint"
                )
            }
            JournalError::IsWalDirectory { path } => {
                write!(
                    f,
                    "{path} is a segmented WAL directory, which this operation cannot read \
                     directly; run `probcon journal compact {path} --out <file>` to render it \
                     into a single journal file first"
                )
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// 64-bit FNV-1a over a byte string — stable, dependency-free, and plenty
/// for detecting torn or hand-edited journal lines (this is an integrity
/// check, not an authenticity one).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Checksum of one entry: FNV-1a over `"{seq}:{event-json}"`, extended with
/// `":client={byte-len}:{id}"` / `":origin={seq}"` segments when the
/// optional provenance fields are present. Entries without provenance
/// therefore checksum exactly as the original format did — old journals
/// keep verifying — while provenance, once stamped, is tamper-evident too.
/// The client id is length-prefixed so ids containing the delimiter text
/// (e.g. a wire-supplied `"a:origin=7"`) cannot collide with a different
/// (client, origin) pair's byte string. The vendored serializer emits
/// struct fields in declaration order, so the byte string is canonical for
/// a given event.
pub(crate) fn checksum_of(
    seq: u64,
    event: &DecisionEvent,
    client: Option<&str>,
    origin_seq: Option<u64>,
) -> u64 {
    let json = serde_json::to_string(event).unwrap_or_default();
    let mut bytes = format!("{seq}:{json}");
    if let Some(client) = client {
        bytes.push_str(&format!(":client={}:{client}", client.len()));
    }
    if let Some(origin) = origin_seq {
        bytes.push_str(&format!(":origin={origin}"));
    }
    fnv1a64(bytes.as_bytes())
}

fn now_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

std::thread_local! {
    static CLIENT_SCOPE: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
}

/// RAII guard attributing every [`Journal::append`] made **on this thread**
/// to a named client while the guard lives.
///
/// This is how per-client provenance reaches journals without threading an
/// identity through every `AdmissionService` signature: when decision and
/// append happen synchronously on the deciding thread, a
/// [`RemoteServer`](crate::RemoteServer) connection handler enters one
/// scope after the handshake and every decision that connection drives
/// carries the [`ClientHello`](crate::remote::ClientHello)'s client id in
/// the [`FleetManager`]'s journal. Scopes nest; dropping restores the
/// previous one.
///
/// **Limit:** the scope is thread-local, so it does not survive a hop to
/// another thread. A served layer that decides *off* the calling thread
/// journals those decisions unattributed (`client: None`). The server
/// decides every frame on the loop thread that entered the scope, so
/// every layer of a served stack keeps attribution.
#[derive(Debug)]
pub struct ClientScope {
    previous: Option<String>,
}

impl ClientScope {
    /// Enters a scope: appends on this thread are stamped with `client`
    /// until the returned guard drops.
    pub fn enter(client: impl Into<String>) -> ClientScope {
        let previous = CLIENT_SCOPE.with(|scope| scope.borrow_mut().replace(client.into()));
        ClientScope { previous }
    }

    /// The client id appends on this thread are currently stamped with.
    pub fn current() -> Option<String> {
        CLIENT_SCOPE.with(|scope| scope.borrow().clone())
    }
}

impl Drop for ClientScope {
    fn drop(&mut self) {
        CLIENT_SCOPE.with(|scope| *scope.borrow_mut() = self.previous.take());
    }
}

/// Backing store of a [`Journal`]: either the classic in-memory entry
/// vector (optionally based on a checkpoint, e.g. after parsing a
/// version-2 file) or a durable segmented WAL directory.
#[derive(Debug)]
enum Store {
    Memory {
        base: Option<FleetCheckpoint>,
        entries: Vec<JournalEntry>,
    },
    Wal(Box<WalStore>),
}

impl Store {
    fn base(&self) -> Option<&FleetCheckpoint> {
        match self {
            Store::Memory { base, .. } => base.as_ref(),
            Store::Wal(wal) => wal.checkpoint(),
        }
    }

    fn base_seq(&self) -> u64 {
        self.base().map_or(0, |c| c.upto_seq)
    }

    fn next_seq(&self) -> u64 {
        match self {
            Store::Memory { base, entries } => {
                base.as_ref().map_or(0, |c| c.upto_seq) + entries.len() as u64
            }
            Store::Wal(wal) => wal.next_seq(),
        }
    }

    /// Streams every entry with `seq >= from` in order through `f`,
    /// verifying checksums and sequence contiguity as it goes; `f`
    /// returning `false` stops the stream early.
    fn for_each_from(
        &mut self,
        from: u64,
        mut f: impl FnMut(&JournalEntry) -> bool,
    ) -> Result<(), JournalError> {
        match self {
            Store::Memory { base, entries } => {
                let first = base.as_ref().map_or(0, |c| c.upto_seq);
                for (expected, entry) in (first..).zip(entries.iter()) {
                    entry.check(expected)?;
                    if entry.seq >= from && !f(entry) {
                        return Ok(());
                    }
                }
                Ok(())
            }
            Store::Wal(wal) => wal.stream_entries(from, f),
        }
    }

    /// Installs `checkpoint` as the base (see
    /// [`Journal::install_checkpoint`]).
    fn install_checkpoint(&mut self, checkpoint: FleetCheckpoint) -> Result<(), JournalError> {
        match self {
            Store::Wal(wal) => wal.install_checkpoint(checkpoint),
            Store::Memory { base, entries } => {
                if !checkpoint.verify() {
                    return Err(JournalError::CorruptCheckpoint(
                        "checksum mismatch".to_string(),
                    ));
                }
                let floor = base.as_ref().map_or(0, |c| c.upto_seq);
                let next = floor + entries.len() as u64;
                if checkpoint.upto_seq < floor || checkpoint.upto_seq > next {
                    return Err(JournalError::CorruptCheckpoint(format!(
                        "fold point {} outside [{floor}, {next}]",
                        checkpoint.upto_seq
                    )));
                }
                entries.retain(|e| e.seq >= checkpoint.upto_seq);
                *base = Some(checkpoint);
                Ok(())
            }
        }
    }
}

/// A journal's backing store and the fold of everything it holds, kept
/// under the journal's one lock so the fold always describes exactly the
/// stored log.
#[derive(Debug)]
struct Log {
    store: Store,
    fold: LogFold,
}

/// Append-only, checksummed decision log (see the [module docs](self)).
///
/// Appends are thread-safe; sequence numbers are assigned under the
/// journal's internal lock in append order. The fleet serializes appends
/// per group (decision and append happen under one group lock), so the
/// journal order is a valid serialization of every group's decision order.
///
/// A journal is backed either by memory ([`new`](Self::new) /
/// [`parse`](Self::parse)) — the classic PR 2–6 shape — or by a segmented
/// WAL directory ([`create_wal`](Self::create_wal) /
/// [`open_wal`](Self::open_wal)), where appends stream to a rotated
/// segment file, no entry stays in memory, and a snapshot checkpoint lets
/// replay start from the nearest fold point instead of seq 0. See
/// [`crate::wal`] for the on-disk layout. Every read of the entries
/// returns a `Result`: a store that cannot be read is an error, never an
/// empty or shortened answer.
///
/// Either way the journal keeps the fold of its log — the base checkpoint
/// plus every later entry — in memory, one step per append. Its size is the
/// live residents and resized groups, not the history.
/// [`checkpoint`](Self::checkpoint) returns it and
/// [`compact`](Self::compact) installs it, without reading the log back.
#[derive(Debug)]
pub struct Journal {
    header: JournalHeader,
    log: Mutex<Log>,
}

impl Journal {
    /// Empty in-memory journal with the given header.
    pub fn new(header: JournalHeader) -> Journal {
        Journal::in_memory(header, None, Vec::new())
    }

    /// In-memory journal over `entries` after `base`, folding them.
    fn in_memory(
        header: JournalHeader,
        base: Option<FleetCheckpoint>,
        entries: Vec<JournalEntry>,
    ) -> Journal {
        let mut fold = LogFold::new(base.as_ref());
        for entry in &entries {
            fold.apply(entry);
        }
        Journal {
            header,
            log: Mutex::new(Log {
                store: Store::Memory { base, entries },
                fold,
            }),
        }
    }

    /// Journal over an opened WAL store whose log folds to `fold`.
    fn on_wal(store: WalStore, fold: LogFold) -> Journal {
        Journal {
            header: store.header().clone(),
            log: Mutex::new(Log {
                store: Store::Wal(Box::new(store)),
                fold,
            }),
        }
    }

    /// Creates a fresh WAL-backed journal in directory `dir` (which must
    /// not already hold one).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failures or an existing WAL.
    pub fn create_wal(
        dir: impl AsRef<Path>,
        header: JournalHeader,
        config: WalConfig,
    ) -> Result<Journal, JournalError> {
        let store = WalStore::create(dir.as_ref(), header, config)?;
        Ok(Journal::on_wal(store, LogFold::default()))
    }

    /// Opens an existing WAL directory, verifying the manifest, snapshot
    /// and every sealed segment, and truncating a torn active-segment tail
    /// back to the last valid entry (reported in the returned
    /// [`WalRecovery`]). The verification scan folds every entry from the
    /// snapshot's fold point on, so [`checkpoint`](Self::checkpoint) needs
    /// no second read.
    ///
    /// # Errors
    ///
    /// [`JournalError::TornManifest`] or
    /// [`JournalError::CorruptCheckpoint`] on manifest or snapshot damage;
    /// checksum/sequence errors on sealed-segment corruption; `Io` on
    /// filesystem failures.
    pub fn open_wal(
        dir: impl AsRef<Path>,
        config: WalConfig,
    ) -> Result<(Journal, WalRecovery), JournalError> {
        let (store, recovery, fold) = WalStore::open(dir.as_ref(), config)?;
        Ok((Journal::on_wal(store, fold), recovery))
    }

    /// Loads a journal from `path`, which may be a WAL directory or a
    /// single-file journal — `probcon replay`/`plan` accept both.
    ///
    /// # Errors
    ///
    /// Any [`JournalError`] variant.
    pub fn load(path: impl AsRef<Path>) -> Result<(Journal, Option<WalRecovery>), JournalError> {
        let path = path.as_ref();
        if path.is_dir() {
            let (journal, recovery) = Journal::open_wal(path, WalConfig::default())?;
            Ok((journal, Some(recovery)))
        } else {
            Ok((Journal::read_from(path)?, None))
        }
    }

    /// The header describing the recorded run.
    pub fn header(&self) -> &JournalHeader {
        &self.header
    }

    /// Appends a decision, returning its sequence number. The entry is
    /// stamped with the appending thread's active [`ClientScope`] (if any).
    ///
    /// On a WAL-backed journal the entry streams to the active segment
    /// (fsynced per the configured [`FsyncPolicy`](crate::wal::FsyncPolicy));
    /// write failures are absorbed into the [`io_errors`](Self::io_errors)
    /// counter — the fleet cannot un-decide a decision — and the in-memory
    /// sequence stays consistent.
    pub fn append(&self, event: DecisionEvent) -> u64 {
        let client = ClientScope::current();
        let mut log = crate::cache::lock(&self.log);
        let seq = log.store.next_seq();
        let entry = JournalEntry {
            seq,
            timestamp_micros: now_micros(),
            checksum: checksum_of(seq, &event, client.as_deref(), None),
            event,
            client,
            origin_seq: None,
        };
        log.fold.apply(&entry);
        match &mut log.store {
            Store::Memory { entries, .. } => entries.push(entry),
            Store::Wal(wal) => wal.append_entry(entry),
        }
        seq
    }

    /// Number of recorded decisions still in the entry view (decisions
    /// folded into the base checkpoint are not re-counted).
    pub fn len(&self) -> usize {
        let store = &crate::cache::lock(&self.log).store;
        (store.next_seq() - store.base_seq()) as usize
    }

    /// `true` when the entry view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sequence number the next append will receive (total decisions ever
    /// recorded, including those folded into the base checkpoint).
    pub fn next_seq(&self) -> u64 {
        crate::cache::lock(&self.log).store.next_seq()
    }

    /// First sequence number of the entry view: the base checkpoint's fold
    /// point, or 0 without one.
    pub fn base_seq(&self) -> u64 {
        crate::cache::lock(&self.log).store.base_seq()
    }

    /// The base snapshot checkpoint the entry view starts from, if any.
    pub fn base_checkpoint(&self) -> Option<FleetCheckpoint> {
        crate::cache::lock(&self.log).store.base().cloned()
    }

    /// The snapshot checkpoint of everything the journal holds — its base
    /// checkpoint with every later entry folded in, at
    /// [`next_seq`](Self::next_seq) — from the fold the journal keeps, so
    /// no entry is read back.
    pub fn checkpoint(&self) -> FleetCheckpoint {
        crate::cache::lock(&self.log).fold.checkpoint()
    }

    /// Append I/O failures absorbed so far (always 0 for in-memory
    /// journals).
    pub fn io_errors(&self) -> u64 {
        match &crate::cache::lock(&self.log).store {
            Store::Memory { .. } => 0,
            Store::Wal(wal) => wal.io_errors(),
        }
    }

    /// Flushes and fsyncs buffered appends (no-op for in-memory journals).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failures.
    pub fn sync(&self) -> Result<(), JournalError> {
        match &mut crate::cache::lock(&self.log).store {
            Store::Memory { .. } => Ok(()),
            Store::Wal(wal) => wal.sync(),
        }
    }

    /// Disk-shape statistics of a WAL-backed journal (`None` for in-memory
    /// journals).
    pub fn wal_stats(&self) -> Option<WalStats> {
        match &crate::cache::lock(&self.log).store {
            Store::Memory { .. } => None,
            Store::Wal(wal) => Some(wal.stats()),
        }
    }

    /// Snapshot of every entry in the view, verifying checksums and
    /// sequence contiguity.
    ///
    /// # Errors
    ///
    /// Checksum/sequence errors on corruption; [`JournalError::Io`] on a
    /// WAL read failure.
    pub fn try_entries(&self) -> Result<Vec<JournalEntry>, JournalError> {
        let store = &mut crate::cache::lock(&self.log).store;
        let from = store.base_seq();
        let mut out = Vec::with_capacity((store.next_seq() - from) as usize);
        store.for_each_from(from, |entry| {
            out.push(entry.clone());
            true
        })?;
        Ok(out)
    }

    /// Splits the journal into one valid, header-stamped journal per
    /// client id (plus one for unattributed entries when present), in
    /// first-appearance order.
    ///
    /// Every split journal carries the original header, re-sequences its
    /// entries from zero with recomputed checksums, keeps the original
    /// timestamps, and stamps each entry's [`origin_seq`] with the position
    /// it held here — so [`merge`](Self::merge) can reconstruct the
    /// original interleaving exactly, and per-client audits can still cite
    /// the original sequence numbers.
    ///
    /// [`origin_seq`]: JournalEntry::origin_seq
    ///
    /// # Errors
    ///
    /// [`JournalError::Checkpointed`] when a base checkpoint has folded
    /// away part of the history — the folded decisions carry no client
    /// attribution any more, so a split would silently misattribute state.
    /// Checksum/sequence/`Io` errors on a corrupt or unreadable store.
    pub fn split_by_client(&self) -> Result<Vec<(Option<String>, Journal)>, JournalError> {
        let mut split: Vec<(Option<String>, Vec<JournalEntry>)> = Vec::new();
        {
            let store = &mut crate::cache::lock(&self.log).store;
            if let Some(base) = store.base() {
                return Err(JournalError::Checkpointed {
                    upto_seq: base.upto_seq,
                });
            }
            store.for_each_from(0, |entry| {
                let part = match split.iter().position(|(c, _)| *c == entry.client) {
                    Some(i) => &mut split[i].1,
                    None => {
                        split.push((entry.client.clone(), Vec::new()));
                        &mut split.last_mut().expect("just pushed").1
                    }
                };
                let seq = part.len() as u64;
                let origin_seq = Some(entry.origin_seq.unwrap_or(entry.seq));
                part.push(JournalEntry {
                    seq,
                    timestamp_micros: entry.timestamp_micros,
                    checksum: checksum_of(seq, &entry.event, entry.client.as_deref(), origin_seq),
                    event: entry.event.clone(),
                    client: entry.client.clone(),
                    origin_seq,
                });
                true
            })?;
        }
        Ok(split
            .into_iter()
            .map(|(client, entries)| {
                (
                    client,
                    Journal::in_memory(self.header.clone(), None, entries),
                )
            })
            .collect())
    }

    /// Interleaves two journals into one replayable log, ordering entries
    /// by original sequence number ([`origin_seq`] when stamped by
    /// [`split_by_client`](Self::split_by_client), the entry's own `seq`
    /// otherwise) and breaking ties by timestamp, then by side (`a` first).
    /// Merging the journals produced by `split_by_client` therefore
    /// reconstructs the original decision order exactly.
    ///
    /// [`origin_seq`]: JournalEntry::origin_seq
    ///
    /// # Errors
    ///
    /// [`JournalError::IncompatibleHeaders`] unless both headers describe
    /// the same workload, fleet shape and policy — replaying an interleaved
    /// log is only meaningful against one fleet.
    /// [`JournalError::Checkpointed`] when either side's history was
    /// partially folded into a snapshot checkpoint (the folded prefix
    /// cannot be interleaved). Checksum/sequence/`Io` errors on a corrupt
    /// or unreadable store.
    pub fn merge(a: &Journal, b: &Journal) -> Result<Journal, JournalError> {
        if a.header != b.header {
            return Err(JournalError::IncompatibleHeaders(describe_header_diff(
                &a.header, &b.header,
            )));
        }
        let mut entries: Vec<(u64, u64, u8, JournalEntry)> = Vec::new();
        for (side, journal) in [(0u8, a), (1u8, b)] {
            if let Some(base) = journal.base_checkpoint() {
                return Err(JournalError::Checkpointed {
                    upto_seq: base.upto_seq,
                });
            }
            for entry in journal.try_entries()? {
                let order = entry.origin_seq.unwrap_or(entry.seq);
                entries.push((order, entry.timestamp_micros, side, entry));
            }
        }
        entries.sort_by_key(|x| (x.0, x.1, x.2));
        let mut out = Vec::with_capacity(entries.len());
        for (i, (_, _, _, entry)) in entries.into_iter().enumerate() {
            let seq = i as u64;
            let origin_seq = entry.origin_seq;
            out.push(JournalEntry {
                seq,
                timestamp_micros: entry.timestamp_micros,
                checksum: checksum_of(seq, &entry.event, entry.client.as_deref(), origin_seq),
                event: entry.event,
                client: entry.client,
                origin_seq,
            });
        }
        Ok(Journal::in_memory(a.header.clone(), None, out))
    }

    /// Verifies checksum and sequence contiguity of every entry.
    ///
    /// # Errors
    ///
    /// [`JournalError::Checksum`] / [`JournalError::SequenceGap`] on the
    /// first corrupt entry, [`JournalError::Io`] on a WAL read failure.
    pub fn verify(&self) -> Result<(), JournalError> {
        let store = &mut crate::cache::lock(&self.log).store;
        let from = store.base_seq();
        store.for_each_from(from, |_| true)
    }

    /// Installs a snapshot checkpoint folding every decision before its
    /// `upto_seq`: the entry view now starts there, and on a WAL-backed
    /// journal the snapshot is written durably and every sealed segment it
    /// fully covers is garbage collected. The journal's own fold (see
    /// [`checkpoint`](Self::checkpoint)) is left as it is: installing a
    /// prefix of the log changes nothing the whole log implies.
    ///
    /// # Errors
    ///
    /// [`JournalError::CorruptCheckpoint`] if the checkpoint fails its own
    /// checksum or folds to a sequence number outside
    /// `[base_seq, next_seq]`; [`JournalError::Io`] on WAL write failures.
    pub fn install_checkpoint(&self, checkpoint: FleetCheckpoint) -> Result<(), JournalError> {
        crate::cache::lock(&self.log)
            .store
            .install_checkpoint(checkpoint)
    }

    /// Installs the journal's [`checkpoint`](Self::checkpoint) as its new
    /// base — `probcon journal compact` and `probcon serve`'s
    /// checkpointer. On a WAL-backed journal this seals the active segment
    /// and garbage-collects everything the snapshot covers, shrinking the
    /// directory to the manifest, the snapshot and one empty active
    /// segment; replaying the compacted journal restores the exact same end
    /// state. Appends wait only for the snapshot write, never for a read of
    /// the log.
    ///
    /// # Errors
    ///
    /// Any [`JournalError`] variant.
    pub fn compact(&self) -> Result<FleetCheckpoint, JournalError> {
        let mut log = crate::cache::lock(&self.log);
        let checkpoint = log.fold.checkpoint();
        log.store.install_checkpoint(checkpoint.clone())?;
        Ok(checkpoint)
    }

    /// The journal's prologue lines: the header (version stamped to
    /// [`JOURNAL_CHECKPOINT_VERSION`] when a base checkpoint follows, kept
    /// verbatim otherwise — version-1 journals render byte-identically),
    /// plus the base checkpoint's JSON line when present.
    fn prologue(&self, base: Option<&FleetCheckpoint>) -> String {
        let mut out = String::new();
        match base {
            None => {
                out.push_str(
                    &serde_json::to_string(&self.header).unwrap_or_else(|_| "{}".to_string()),
                );
                out.push('\n');
            }
            Some(checkpoint) => {
                let mut header = self.header.clone();
                header.version = JOURNAL_CHECKPOINT_VERSION;
                out.push_str(&serde_json::to_string(&header).unwrap_or_else(|_| "{}".to_string()));
                out.push('\n');
                out.push_str(
                    &serde_json::to_string(checkpoint).unwrap_or_else(|_| "{}".to_string()),
                );
                out.push('\n');
            }
        }
        out
    }

    /// Streams the rendered journal to `writer`: the prologue, then one
    /// entry per line in sequence order — without ever materializing the
    /// whole journal as one string.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write failures (and WAL read failures);
    /// checksum/sequence errors on corruption.
    pub fn render_to<W: Write>(&self, writer: &mut W) -> Result<(), JournalError> {
        let store = &mut crate::cache::lock(&self.log).store;
        writer
            .write_all(self.prologue(store.base()).as_bytes())
            .map_err(|e| JournalError::Io(format!("write: {e}")))?;
        let from = store.base_seq();
        let mut write_error = None;
        store.for_each_from(from, |entry| {
            let line = serde_json::to_string(entry).unwrap_or_else(|_| "{}".to_string());
            let ok = writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"));
            match ok {
                Ok(()) => true,
                Err(e) => {
                    write_error = Some(JournalError::Io(format!("write: {e}")));
                    false
                }
            }
        })?;
        match write_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Renders the journal as JSON lines: the prologue, then one entry per
    /// line in sequence order.
    ///
    /// # Errors
    ///
    /// Checksum/sequence errors on corruption, [`JournalError::Io`] on a
    /// WAL read failure.
    pub fn render(&self) -> Result<String, JournalError> {
        let mut out = Vec::new();
        self.render_to(&mut out)?;
        Ok(String::from_utf8(out).expect("rendered JSON lines are UTF-8"))
    }

    /// Renders one page of the journal for wire transfer: entries from
    /// `from_seq` (at most `max_entries` of them), preceded by the
    /// prologue when `from_seq` is 0. `next_seq` names the next page, or
    /// `None` on the last one — concatenating the pages of a loop that
    /// starts at 0 and follows `next_seq` reproduces
    /// [`render`](Self::render) exactly.
    ///
    /// # Errors
    ///
    /// [`JournalError::Checkpointed`] when `from_seq` lies inside the base
    /// checkpoint's fold (`0 < from_seq < base_seq`): a compaction since
    /// the earlier pages folded this one, and the reader must start again
    /// from 0. Checksum/sequence errors on corruption,
    /// [`JournalError::Io`] on a WAL read failure.
    pub fn render_page(
        &self,
        from_seq: u64,
        max_entries: usize,
    ) -> Result<JournalPage, JournalError> {
        let max_entries = max_entries.max(1);
        let store = &mut crate::cache::lock(&self.log).store;
        let base_seq = store.base_seq();
        if 0 < from_seq && from_seq < base_seq {
            return Err(JournalError::Checkpointed { upto_seq: base_seq });
        }
        let mut text = String::new();
        if from_seq == 0 {
            text.push_str(&self.prologue(store.base()));
        }
        let start = from_seq.max(base_seq);
        let mut next_seq = None;
        let mut emitted = 0usize;
        store.for_each_from(start, |entry| {
            if emitted >= max_entries {
                next_seq = Some(entry.seq);
                return false;
            }
            text.push_str(&serde_json::to_string(entry).unwrap_or_else(|_| "{}".to_string()));
            text.push('\n');
            emitted += 1;
            true
        })?;
        Ok(JournalPage { text, next_seq })
    }

    /// Parses a journal rendered by [`render`](Self::render), verifying
    /// checksums and sequence contiguity. Accepts both the version-1
    /// format (header + entries, PR 2–6) and the version-2 checkpointed
    /// format (header + snapshot checkpoint + tail entries).
    ///
    /// # Errors
    ///
    /// Any [`JournalError`] variant except `Io`.
    pub fn parse(text: &str) -> Result<Journal, JournalError> {
        let mut parser = JournalParser::new();
        for line in text.lines() {
            parser.feed(line)?;
        }
        parser.finish()
    }

    /// Writes the rendered journal to `path` durably: entries stream to a
    /// temp file in the same directory, which is fsynced and atomically
    /// renamed over the target — a crash mid-write leaves the old file (or
    /// nothing), never a torn journal.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failures.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), JournalError> {
        atomic_write(path.as_ref(), |writer| self.render_to(writer))
    }

    /// Reads and verifies a journal file written by
    /// [`write_to`](Self::write_to), streaming line by line — verification
    /// memory is O(1) in history length until the entries themselves are
    /// collected.
    ///
    /// # Errors
    ///
    /// Any [`JournalError`] variant.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Journal, JournalError> {
        let path = path.as_ref();
        if path.is_dir() {
            return Err(JournalError::IsWalDirectory {
                path: path.display().to_string(),
            });
        }
        let file = File::open(path)
            .map_err(|e| JournalError::Io(format!("read {}: {e}", path.display())))?;
        let mut reader = BufReader::new(file);
        let mut parser = JournalParser::new();
        let mut line = String::new();
        loop {
            line.clear();
            let read = reader
                .read_line(&mut line)
                .map_err(|e| JournalError::Io(format!("read {}: {e}", path.display())))?;
            if read == 0 {
                return parser.finish();
            }
            parser.feed(&line)?;
        }
    }
}

/// One wire-transfer page of a rendered journal (see
/// [`Journal::render_page`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalPage {
    /// Rendered lines of this page (prologue included on the first page).
    pub text: String,
    /// Sequence number to request the next page from, or `None` when this
    /// page is the last.
    pub next_seq: Option<u64>,
}

/// Incremental line-by-line journal parser shared by [`Journal::parse`]
/// and [`Journal::read_from`]: verifies checksums and sequence contiguity
/// as lines arrive, so file verification needs no second pass.
struct JournalParser {
    header: Option<JournalHeader>,
    base: Option<FleetCheckpoint>,
    want_checkpoint: bool,
    next_seq: u64,
    entries: Vec<JournalEntry>,
}

impl JournalParser {
    fn new() -> JournalParser {
        JournalParser {
            header: None,
            base: None,
            want_checkpoint: false,
            next_seq: 0,
            entries: Vec::new(),
        }
    }

    fn feed(&mut self, line: &str) -> Result<(), JournalError> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(());
        }
        if self.header.is_none() {
            let header: JournalHeader =
                serde_json::from_str(line).map_err(|e| JournalError::Parse(e.to_string()))?;
            match header.version {
                JOURNAL_VERSION => {}
                JOURNAL_CHECKPOINT_VERSION => self.want_checkpoint = true,
                v => return Err(JournalError::UnsupportedVersion(v)),
            }
            self.header = Some(header);
            return Ok(());
        }
        if self.want_checkpoint {
            let checkpoint: FleetCheckpoint = serde_json::from_str(line).map_err(|e| {
                JournalError::CorruptCheckpoint(format!("checkpoint does not parse: {e}"))
            })?;
            if !checkpoint.verify() {
                return Err(JournalError::CorruptCheckpoint(
                    "checksum mismatch".to_string(),
                ));
            }
            self.next_seq = checkpoint.upto_seq;
            self.base = Some(checkpoint);
            self.want_checkpoint = false;
            return Ok(());
        }
        let entry: JournalEntry =
            serde_json::from_str(line).map_err(|e| JournalError::Parse(e.to_string()))?;
        entry.check(self.next_seq)?;
        self.next_seq += 1;
        self.entries.push(entry);
        Ok(())
    }

    fn finish(self) -> Result<Journal, JournalError> {
        let header = self.header.ok_or(JournalError::MissingHeader)?;
        if self.want_checkpoint {
            return Err(JournalError::CorruptCheckpoint(
                "version-2 journal ends before its checkpoint line".to_string(),
            ));
        }
        Ok(Journal::in_memory(header, self.base, self.entries))
    }
}

/// The state a log implies: live residents with their current groups,
/// recorded ids and admission sequence numbers, plus the group overrides
/// applied resizes left. A pure log fold — no fleet is rebuilt, no decision
/// re-decided — so the folded ids and sequence numbers are exactly the
/// recorded ones. [`fold_checkpoint`] runs it over an entry prefix; every
/// [`Journal`] keeps one over its whole log.
#[derive(Debug, Default)]
pub(crate) struct LogFold {
    upto_seq: u64,
    next_resident: u64,
    residents: BTreeMap<u64, CheckpointResident>,
    groups: BTreeMap<u64, CheckpointGroup>,
}

impl LogFold {
    /// The fold of a log that starts at `base` (empty without one).
    pub(crate) fn new(base: Option<&FleetCheckpoint>) -> LogFold {
        let Some(base) = base else {
            return LogFold::default();
        };
        LogFold {
            upto_seq: base.upto_seq,
            next_resident: base.next_resident,
            residents: base
                .residents
                .iter()
                .map(|r| (r.resident, r.clone()))
                .collect(),
            groups: base
                .groups
                .iter()
                .flatten()
                .map(|g| (g.group, g.clone()))
                .collect(),
        }
    }

    /// Folds in one entry — the one per-entry step of every fold.
    pub(crate) fn apply(&mut self, entry: &JournalEntry) {
        self.upto_seq = self.upto_seq.max(entry.seq + 1);
        match &entry.event {
            DecisionEvent::Admit {
                group,
                app_index,
                required_throughput,
                outcome: JournalOutcome::Admitted { resident, .. },
                ..
            } => {
                self.residents.insert(
                    *resident,
                    CheckpointResident {
                        resident: *resident,
                        group: *group,
                        app_index: *app_index,
                        required_throughput: *required_throughput,
                        admitted_seq: entry.seq,
                    },
                );
                self.next_resident = self.next_resident.max(resident + 1);
            }
            DecisionEvent::Admit { .. } => {}
            DecisionEvent::Release { resident } => {
                self.residents.remove(resident);
            }
            DecisionEvent::Rebalance {
                resident, to_group, ..
            } => {
                if let Some(r) = self.residents.get_mut(resident) {
                    r.group = *to_group;
                }
            }
            DecisionEvent::Resize {
                action,
                outcome: ScaleOutcome::Applied,
            } => match action {
                ScaleAction::Grow {
                    group,
                    capacity_per_shard,
                }
                | ScaleAction::Shrink {
                    group,
                    capacity_per_shard,
                } => {
                    self.group(*group).capacity_per_shard = Some(*capacity_per_shard);
                }
                ScaleAction::AddGroup { group, shape } => {
                    let mut added = CheckpointGroup::unchanged(*group);
                    added.added = Some(shape.clone());
                    self.groups.insert(*group, added);
                }
                ScaleAction::Drain { group } => self.group(*group).retired = true,
            },
            // A refused resize changed nothing, by definition.
            DecisionEvent::Resize { .. } => {}
        }
    }

    fn group(&mut self, group: u64) -> &mut CheckpointGroup {
        self.groups
            .entry(group)
            .or_insert_with(|| CheckpointGroup::unchanged(group))
    }

    /// The snapshot checkpoint of everything folded so far.
    pub(crate) fn checkpoint(&self) -> FleetCheckpoint {
        FleetCheckpoint::new(
            self.upto_seq,
            self.next_resident,
            self.residents.values().cloned().collect(),
        )
        .with_groups(self.groups.values().cloned().collect())
    }
}

/// Folds a base checkpoint (if any) and an entry tail into the snapshot
/// checkpoint describing the journal's end state — the fold
/// [`Journal::checkpoint`] keeps, run over any prefix of a log.
pub fn fold_checkpoint(
    base: Option<&FleetCheckpoint>,
    entries: &[JournalEntry],
) -> FleetCheckpoint {
    let mut fold = LogFold::new(base);
    for entry in entries {
        fold.apply(entry);
    }
    fold.checkpoint()
}

/// Human-readable first difference between two headers that refused to
/// merge.
fn describe_header_diff(a: &JournalHeader, b: &JournalHeader) -> String {
    let fields: [(&str, String, String); 8] = [
        ("version", a.version.to_string(), b.version.to_string()),
        ("seed", a.seed.to_string(), b.seed.to_string()),
        ("apps", a.apps.to_string(), b.apps.to_string()),
        ("actors", a.actors.to_string(), b.actors.to_string()),
        ("groups", a.groups.to_string(), b.groups.to_string()),
        (
            "shards_per_group",
            a.shards_per_group.to_string(),
            b.shards_per_group.to_string(),
        ),
        (
            "capacity_per_shard",
            a.capacity_per_shard.to_string(),
            b.capacity_per_shard.to_string(),
        ),
        ("policy", a.policy.clone(), b.policy.clone()),
    ];
    for (name, va, vb) in fields {
        if va != vb {
            return format!("headers disagree on {name} ({va} vs {vb})");
        }
    }
    if a.group_shapes != b.group_shapes {
        return "headers disagree on per-group shapes".to_string();
    }
    "headers disagree".to_string()
}

/// One replay step whose outcome differed from the recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Sequence number of the diverging entry.
    pub seq: u64,
    /// The recorded outcome.
    pub expected: String,
    /// What the replay produced instead.
    pub got: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seq {}: expected `{}`, got `{}`",
            self.seq, self.expected, self.got
        )
    }
}

/// Result of replaying a journal against a fresh fleet.
#[derive(Debug)]
pub struct ReplayReport {
    /// Residents restored from the journal's base snapshot checkpoint
    /// before any entry was replayed (0 for an uncheckpointed journal).
    pub restored: usize,
    /// Decisions replayed.
    pub events: usize,
    /// Decisions whose outcome matched the recording exactly.
    pub matches: usize,
    /// Every mismatch, in sequence order.
    pub divergences: Vec<Divergence>,
    /// Residents live in the replayed fleet when the journal ended.
    pub residents_at_end: usize,
}

impl ReplayReport {
    /// `true` iff every outcome matched the recording.
    pub fn is_equivalent(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Renders the verification summary printed by `probcon replay`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.restored > 0 {
            let _ = writeln!(
                out,
                "restored {} residents from snapshot checkpoint",
                self.restored
            );
        }
        let _ = writeln!(
            out,
            "replayed {} decisions: {} matched, {} diverged, {} residents at end",
            self.events,
            self.matches,
            self.divergences.len(),
            self.residents_at_end
        );
        for d in &self.divergences {
            let _ = writeln!(out, "  DIVERGED {d}");
        }
        if self.is_equivalent() {
            let _ = writeln!(out, "journal replay: outcome-for-outcome EQUIVALENT");
        } else {
            let _ = writeln!(out, "journal replay: NOT equivalent");
        }
        out
    }
}

/// Re-executes journals against fresh fleets (see the [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub struct JournalReplayer<'a> {
    spec: &'a platform::SystemSpec,
}

impl<'a> JournalReplayer<'a> {
    /// Replayer over the workload spec the journal was recorded against
    /// (rebuild it from the journal's [`JournalHeader`]).
    pub fn new(spec: &'a platform::SystemSpec) -> JournalReplayer<'a> {
        JournalReplayer { spec }
    }

    /// Replays `journal` against a fresh fleet built from `config`,
    /// verifying outcome-for-outcome equivalence: the journal's base
    /// checkpoint is restored, then every entry is re-driven through the
    /// one re-execution engine on its recorded group, and an entry matches
    /// when the fleet decides exactly what was recorded.
    ///
    /// Returns the verification report and the replayed fleet (whose own
    /// journal now holds the re-recorded decision stream, and whose metrics
    /// describe the replayed run). Any resident still live at journal end
    /// stays resident in the returned fleet, matching the recording's final
    /// state.
    ///
    /// # Errors
    ///
    /// [`FleetError::Journal`] if the journal's entries cannot be read
    /// (nothing is replayed); [`FleetError`] if the fleet cannot be built
    /// from `config`, or on the first checkpointed resident it cannot
    /// restore.
    pub fn replay(
        &self,
        journal: &Journal,
        config: FleetConfig,
    ) -> Result<(ReplayReport, FleetManager), FleetError> {
        let entries = journal.try_entries().map_err(FleetError::Journal)?;
        let fleet = FleetManager::with_header(self.spec.clone(), config, journal.header().clone())?;
        let mut engine = Reexecutor::new(&fleet, RouteMode::Recorded);
        let mut report = ReplayReport {
            restored: 0,
            events: 0,
            matches: 0,
            divergences: Vec::new(),
            residents_at_end: 0,
        };
        if let Some(checkpoint) = journal.base_checkpoint() {
            for (_, restored) in engine.restore(&checkpoint)? {
                restored?;
            }
            report.restored = checkpoint.residents.len();
        }
        report.events = entries.len();
        for entry in &entries {
            match engine.drive(&entry.event) {
                Ok(replayed) if replayed == entry.event => report.matches += 1,
                replayed => report.divergences.push(Divergence {
                    seq: entry.seq,
                    expected: replay_text(&entry.event),
                    got: match &replayed {
                        Ok(event) => replay_text(event),
                        Err(why) => undriven_text(&entry.event, why),
                    },
                }),
            }
        }
        report.residents_at_end = fleet.resident_count();
        Ok((report, fleet))
    }
}

/// Replay's rendering of a decision, applied alike to the recorded event
/// and to its re-execution.
fn replay_text(event: &DecisionEvent) -> String {
    match event {
        DecisionEvent::Admit { outcome, .. } => match outcome {
            JournalOutcome::Admitted {
                predicted_period, ..
            } => format!("admitted period {predicted_period}"),
            JournalOutcome::Rejected { violations } => {
                format!("rejected ({violations} violations)")
            }
            JournalOutcome::Saturated => "saturated".to_string(),
        },
        DecisionEvent::Release { resident } => format!("release #{resident}"),
        DecisionEvent::Rebalance {
            resident,
            from_group,
            to_group,
            predicted_period,
        } => format!("rebalance #{resident} {from_group}->{to_group} period {predicted_period}"),
        DecisionEvent::Resize { action, outcome } => match outcome {
            ScaleOutcome::Applied => format!("resize {action}: applied"),
            ScaleOutcome::Refused { reason } => format!("resize {action}: refused ({reason})"),
        },
    }
}

/// Replay's rendering of a recorded event the engine could not re-drive.
fn undriven_text(event: &DecisionEvent, why: &Undriven) -> String {
    let cause = match why {
        Undriven::UnknownResident(resident) => return format!("resident #{resident} unknown"),
        Undriven::Service(ServiceError::Analysis(e)) => return format!("analysis error: {e}"),
        Undriven::Service(e) => e.to_string(),
        Undriven::Fleet(e) => e.to_string(),
    };
    let failed = match event {
        DecisionEvent::Admit { .. } => "service error",
        DecisionEvent::Release { .. } => "release failed",
        DecisionEvent::Rebalance { .. } => "move failed",
        DecisionEvent::Resize { .. } => "resize failed",
    };
    format!("{failed}: {cause}")
}

/// Every decision `journal` holds; the crate's unit tests read journals
/// through it.
#[cfg(test)]
pub(crate) fn journaled(journal: &Journal) -> Vec<DecisionEvent> {
    journal
        .try_entries()
        .expect("journal reads")
        .into_iter()
        .map(|e| e.event)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(journal: &Journal) -> Vec<JournalEntry> {
        journal.try_entries().expect("journal reads")
    }

    fn sample_events() -> Vec<DecisionEvent> {
        vec![
            DecisionEvent::Admit {
                group: 0,
                app_index: 1,
                required_throughput: Some(Rational::new(1, 300)),
                outcome: JournalOutcome::Admitted {
                    resident: 0,
                    predicted_period: Rational::new(1075, 3),
                },
                affinity: None,
            },
            DecisionEvent::Admit {
                group: 1,
                app_index: 0,
                required_throughput: None,
                outcome: JournalOutcome::Rejected { violations: 2 },
                affinity: None,
            },
            DecisionEvent::Admit {
                group: 1,
                app_index: 0,
                required_throughput: None,
                outcome: JournalOutcome::Saturated,
                affinity: None,
            },
            DecisionEvent::Rebalance {
                resident: 0,
                from_group: 0,
                to_group: 1,
                predicted_period: Rational::integer(300),
            },
            DecisionEvent::Release { resident: 0 },
        ]
    }

    #[test]
    fn append_assigns_contiguous_sequence() {
        let journal = Journal::new(JournalHeader::default());
        for (i, event) in sample_events().into_iter().enumerate() {
            assert_eq!(journal.append(event), i as u64);
        }
        assert_eq!(journal.len(), 5);
        journal.verify().expect("fresh journal verifies");
    }

    #[test]
    fn render_parse_roundtrip() {
        let header = JournalHeader {
            seed: 2007,
            apps: 4,
            groups: 2,
            ..JournalHeader::default()
        };
        let journal = Journal::new(header.clone());
        for event in sample_events() {
            journal.append(event);
        }
        let text = journal.render().unwrap();
        let parsed = Journal::parse(&text).expect("rendered journal parses");
        assert_eq!(parsed.header(), &header);
        assert_eq!(entries(&parsed), entries(&journal));
    }

    #[test]
    fn tampering_fails_checksum() {
        let journal = Journal::new(JournalHeader::default());
        for event in sample_events() {
            journal.append(event);
        }
        let text = journal.render().unwrap();
        // Flip a recorded period digit: the checksum must catch it.
        let tampered = text.replace("1075", "1076");
        assert_ne!(text, tampered, "tamper target must exist");
        match Journal::parse(&tampered) {
            Err(JournalError::Checksum { .. }) => {}
            other => panic!("expected checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn sequence_gap_detected() {
        let journal = Journal::new(JournalHeader::default());
        journal.append(DecisionEvent::Release { resident: 7 });
        journal.append(DecisionEvent::Release { resident: 8 });
        let text = journal.render().unwrap();
        // Drop the first entry line: seq 1 arrives where 0 is expected.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(1);
        let truncated = lines.join("\n");
        assert_eq!(
            Journal::parse(&truncated).unwrap_err(),
            JournalError::SequenceGap {
                expected: 0,
                found: 1
            }
        );
    }

    #[test]
    fn missing_header_and_bad_version_rejected() {
        assert_eq!(Journal::parse("").unwrap_err(), JournalError::MissingHeader);
        let header = JournalHeader {
            version: 99,
            ..JournalHeader::default()
        };
        let text = Journal::new(header).render().unwrap();
        assert_eq!(
            Journal::parse(&text).unwrap_err(),
            JournalError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("probcon-journal-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("unit.jsonl");
        let journal = Journal::new(JournalHeader::default());
        for event in sample_events() {
            journal.append(event);
        }
        journal.write_to(&path).expect("writes");
        let back = Journal::read_from(&path).expect("reads");
        assert_eq!(journaled(&back), journaled(&journal));
        assert!(matches!(
            Journal::read_from(dir.join("missing.jsonl")).unwrap_err(),
            JournalError::Io(_)
        ));
    }

    #[test]
    fn old_format_without_provenance_parses_and_verifies() {
        // Simulate a journal recorded by a pre-provenance build: render a
        // fresh (unattributed) journal and strip the `client`/`origin_seq`
        // fields from every entry line. Checksums only cover provenance
        // when present, so the stripped file must still parse AND verify.
        let journal = Journal::new(JournalHeader::default());
        for event in sample_events() {
            journal.append(event);
        }
        let text = journal.render().unwrap();
        let stripped = text.replace(",\"client\":null,\"origin_seq\":null", "");
        assert_ne!(text, stripped, "provenance fields must have been rendered");
        let parsed = Journal::parse(&stripped).expect("old-format journal parses");
        assert_eq!(journaled(&parsed), journaled(&journal));
        assert!(entries(&parsed).iter().all(|e| e.client.is_none()));
    }

    #[test]
    fn client_scope_stamps_appends_and_nests() {
        let journal = Journal::new(JournalHeader::default());
        journal.append(DecisionEvent::Release { resident: 0 });
        {
            let _alpha = ClientScope::enter("alpha");
            assert_eq!(ClientScope::current().as_deref(), Some("alpha"));
            journal.append(DecisionEvent::Release { resident: 1 });
            {
                let _beta = ClientScope::enter("beta");
                journal.append(DecisionEvent::Release { resident: 2 });
            }
            // Dropping the inner scope restores the outer one.
            journal.append(DecisionEvent::Release { resident: 3 });
        }
        assert_eq!(ClientScope::current(), None);
        journal.append(DecisionEvent::Release { resident: 4 });
        let clients: Vec<Option<String>> =
            entries(&journal).iter().map(|e| e.client.clone()).collect();
        assert_eq!(
            clients,
            [
                None,
                Some("alpha".to_string()),
                Some("beta".to_string()),
                Some("alpha".to_string()),
                None
            ]
        );
        journal.verify().expect("stamped entries checksum");
        // Provenance is tamper-evident: editing a client id fails verify.
        let tampered = journal.render().unwrap().replace("beta", "beta2");
        assert!(matches!(
            Journal::parse(&tampered),
            Err(JournalError::Checksum { .. })
        ));
        // The round trip preserves attribution.
        let back = Journal::parse(&journal.render().unwrap()).expect("parses");
        assert_eq!(entries(&back), entries(&journal));
    }

    #[test]
    fn split_by_client_emits_valid_journals_and_merge_reconstructs() {
        let journal = Journal::new(JournalHeader {
            seed: 42,
            apps: 3,
            ..JournalHeader::default()
        });
        // Interleave two clients and an unattributed stretch.
        for i in 0..9u64 {
            let _scope = match i % 3 {
                0 => Some(ClientScope::enter("alpha")),
                1 => Some(ClientScope::enter("beta")),
                _ => None,
            };
            journal.append(DecisionEvent::Release { resident: i });
        }
        let split = journal.split_by_client().expect("no checkpoint");
        assert_eq!(split.len(), 3);
        for (client, part) in &split {
            part.verify().expect("split journal verifies");
            assert_eq!(part.header(), journal.header());
            assert_eq!(part.len(), 3);
            // Re-sequenced from zero, original position kept as provenance.
            for (i, entry) in entries(part).iter().enumerate() {
                assert_eq!(entry.seq, i as u64);
                assert_eq!(&entry.client, client);
                assert!(entry.origin_seq.is_some());
            }
        }
        // Merging the split parts back reconstructs the exact interleaving.
        let merged = Journal::merge(
            &Journal::merge(&split[0].1, &split[1].1).expect("compatible"),
            &split[2].1,
        )
        .expect("compatible");
        merged.verify().expect("merged journal verifies");
        assert_eq!(journaled(&merged), journaled(&journal));
        assert_eq!(
            entries(&merged)
                .iter()
                .map(|e| e.client.clone())
                .collect::<Vec<_>>(),
            entries(&journal)
                .iter()
                .map(|e| e.client.clone())
                .collect::<Vec<_>>()
        );
        // ... and survives a file-format round trip.
        let reparsed = Journal::parse(&merged.render().unwrap()).expect("parses");
        assert_eq!(entries(&reparsed), entries(&merged));
    }

    #[test]
    fn merge_rejects_incompatible_headers() {
        let a = Journal::new(JournalHeader {
            seed: 1,
            ..JournalHeader::default()
        });
        let b = Journal::new(JournalHeader {
            seed: 2,
            ..JournalHeader::default()
        });
        match Journal::merge(&a, &b) {
            Err(JournalError::IncompatibleHeaders(why)) => {
                assert!(why.contains("seed"), "{why}");
            }
            other => panic!("expected IncompatibleHeaders, got {other:?}"),
        }
    }

    #[test]
    fn merge_of_independent_journals_orders_by_seq_then_timestamp() {
        // Two journals recorded independently (no origin_seq): the merge
        // interleaves by sequence number, ties broken toward `a`.
        let a = Journal::new(JournalHeader::default());
        a.append(DecisionEvent::Release { resident: 10 });
        a.append(DecisionEvent::Release { resident: 11 });
        let b = Journal::new(JournalHeader::default());
        b.append(DecisionEvent::Release { resident: 20 });
        let merged = Journal::merge(&a, &b).expect("compatible");
        let residents: Vec<u64> = journaled(&merged)
            .iter()
            .map(|e| match e {
                DecisionEvent::Release { resident } => *resident,
                _ => unreachable!(),
            })
            .collect();
        // seq 0 of a, then seq 0 of b (tie on seq broken by timestamp,
        // a appended first), then seq 1 of a.
        assert_eq!(residents, [10, 20, 11]);
        merged.verify().expect("verifies");
    }

    #[test]
    fn a_memory_journal_compacted_every_k_appends_holds_at_most_k_entries() {
        const K: u64 = 7;
        let journal = Journal::new(JournalHeader::default());
        let mut appended = Vec::new();
        for i in 0..20 * K + 3 {
            // Admissions, releases of two of every three residents, and
            // resizes, so the fold carries residents and a group override.
            let event = match i % 4 {
                3 => DecisionEvent::Release { resident: i - 3 },
                2 => DecisionEvent::Resize {
                    action: ScaleAction::Grow {
                        group: 0,
                        capacity_per_shard: i,
                    },
                    outcome: ScaleOutcome::Applied,
                },
                _ => DecisionEvent::Admit {
                    group: i % 2,
                    app_index: i % 3,
                    required_throughput: None,
                    outcome: JournalOutcome::Admitted {
                        resident: i,
                        predicted_period: Rational::integer(i128::from(i) + 1),
                    },
                    affinity: None,
                },
            };
            journal.append(event);
            if (i + 1) % K == 0 {
                appended.extend(entries(&journal));
                journal.compact().expect("compacts");
            }
            assert!(journal.len() as u64 <= K, "{} entries", journal.len());
        }
        appended.extend(entries(&journal));
        assert!((0..).zip(&appended).all(|(seq, e)| e.seq == seq));
        let whole = fold_checkpoint(None, &appended);
        assert!(!whole.residents.is_empty() && whole.groups.is_some());
        assert_eq!(journal.checkpoint(), whole);
        let parsed = Journal::parse(&journal.render().unwrap()).unwrap();
        assert_eq!(parsed.checkpoint(), whole);
    }

    #[test]
    fn a_page_folded_by_a_compaction_is_refused() {
        let journal = Journal::new(JournalHeader::default());
        for resident in 0..4100 {
            journal.append(DecisionEvent::Release { resident });
        }
        let first = journal.render_page(0, 4096).expect("first page");
        assert_eq!(first.next_seq, Some(4096));
        journal.compact().expect("compacts");
        // Nothing appended since the compaction: a page started at the new
        // base would be empty and last, and the stitched pages a prefix
        // that silently drops seqs 4096..4100.
        let folded = Err(JournalError::Checkpointed { upto_seq: 4100 });
        assert_eq!(journal.render_page(4096, 4096).map(drop), folded);
        journal.append(DecisionEvent::Release { resident: 0 });
        assert_eq!(journal.render_page(4096, 4096).map(drop), folded);
        // A page at the base continues the earlier pages; seq 0 restarts.
        let next = journal.render_page(4100, 4096).expect("page at the base");
        assert_eq!(next.next_seq, None);
        let restart = journal.render_page(0, 4096).expect("restart");
        assert_eq!(restart.text, journal.render().unwrap());
    }

    #[test]
    fn event_display_is_descriptive() {
        let rendered: Vec<String> = sample_events().iter().map(|e| e.to_string()).collect();
        assert!(rendered[0].contains("admitted #0"));
        assert!(rendered[0].contains("contract"));
        assert!(rendered[1].contains("rejected (2 violations)"));
        assert!(rendered[2].contains("saturated"));
        assert!(rendered[3].contains("0 -> 1"));
        assert!(rendered[4].contains("release #0"));
    }
}
