//! # nebula-durable — crash-safe durability for the annotation pipeline
//!
//! The relational and annotation stores are in-memory structures; this
//! crate makes their mutations survive a crash:
//!
//! - [`wal`] — an append-only **write-ahead log** of annotation-pipeline
//!   mutations. Every record is length-prefixed, CRC32C-checksummed, and
//!   carries a monotonically increasing log sequence number (LSN).
//! - [`checkpoint`] — periodic **checkpoints** that frame the existing
//!   `NEBREL1`/`NEBANN1` snapshot codecs with a magic, a whole-image
//!   checksum, and the LSN watermark the image covers, then truncate the
//!   log. A checkpoint is read back and verified **before** the old
//!   checkpoint is replaced or the WAL is truncated, so a corrupted image
//!   (e.g. an injected bit flip) never costs data.
//! - [`recover`] — loads the newest valid checkpoint and **replays** the
//!   WAL on top of it. A torn or truncated tail is tolerated: replay stops
//!   at the first record that fails its checksum and the [`TailReport`]
//!   states exactly how many records were dropped. Records at or below the
//!   checkpoint watermark are skipped, making replay idempotent.
//! - [`manager`] — [`Durability`], the [`nebula_core::MutationSink`]
//!   implementation the engine logs through (log **before** apply), with
//!   `nebula-govern` I/O fault injection wired into every write path.
//! - [`segment`] — epoch-stamped replication frames: shipped WAL segments
//!   and checkpoint transfers, the payloads `nebula-replica` moves from a
//!   primary to its replicas.
//! - [`harness`] — the crash-point harness: kills-and-recovers the store at
//!   every log record boundary and asserts the recovered state equals a
//!   reference replay (prefix consistency).
//!
//! All activity is reported through `nebula-obs` under `durable.*` names.

use std::fmt;

pub mod archive;
pub mod checkpoint;
pub mod harness;
pub mod manager;
pub mod recover;
pub mod scrub;
pub mod segment;
pub mod wal;

pub use archive::{archive_stats, ArchiveStats};
pub use harness::{crash_points, state_digest, CrashPointReport};
pub use manager::{ArchiveConfig, Durability, DurabilityOptions, SyncPolicy};
pub use recover::{recover, recover_from_bytes, replay_op, Recovered};
pub use scrub::{inject_rot, scrub, RotReport, ScrubReport};
pub use segment::{CheckpointFrame, Segment};
pub use wal::{TailReport, WalOp, WalRecord};

/// Counter and span names this crate publishes to `nebula-obs`.
pub mod counters {
    /// WAL records appended.
    pub const RECORDS_APPENDED: &str = "durable.records_appended";
    /// WAL bytes appended.
    pub const BYTES_APPENDED: &str = "durable.bytes_appended";
    /// Successful WAL fsyncs.
    pub const FSYNCS: &str = "durable.fsyncs";
    /// Appends that failed (injected or real I/O errors).
    pub const APPEND_FAILURES: &str = "durable.append_failures";
    /// Checkpoints committed.
    pub const CHECKPOINTS: &str = "durable.checkpoints";
    /// Checkpoints that failed verification or I/O (no data lost).
    pub const CHECKPOINT_FAILURES: &str = "durable.checkpoint_failures";
    /// Recovery runs.
    pub const RECOVERIES: &str = "durable.recoveries";
    /// Records replayed during recovery.
    pub const RECORDS_REPLAYED: &str = "durable.records_replayed";
    /// Already-covered records skipped during recovery (idempotent replay).
    pub const RECORDS_SKIPPED: &str = "durable.records_skipped";
    /// Torn-tail records dropped during recovery.
    pub const RECORDS_DROPPED: &str = "durable.records_dropped";
    /// WAL tails truncated on resume (repair-on-open).
    pub const WAL_TRUNCATIONS: &str = "durable.wal_truncations";
    /// Span: one WAL append.
    pub const SPAN_APPEND: &str = "durable.append";
    /// Span: one checkpoint.
    pub const SPAN_CHECKPOINT: &str = "durable.checkpoint";
    /// Span: one recovery.
    pub const SPAN_RECOVER: &str = "durable.recover";
}

/// Errors from the durability layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// An operating-system I/O failure.
    Io(String),
    /// The manager refused an append because a prior torn write or fsync
    /// failure left the on-disk log in an unknown state; recover first.
    Wedged(String),
    /// An (injected) torn write: only `written` of `expected` bytes made it
    /// to disk and the manager is now wedged.
    TornWrite {
        /// Bytes that reached the file.
        written: usize,
        /// Bytes the record needed.
        expected: usize,
    },
    /// An (injected) short write, already repaired by truncating back to
    /// the pre-write offset; the record was not persisted.
    ShortWrite {
        /// Bytes that briefly reached the file.
        written: usize,
        /// Bytes the record needed.
        expected: usize,
    },
    /// An (injected) fsync failure; the manager is now wedged.
    SyncFailed(String),
    /// A checkpoint or WAL image failed validation.
    Corrupt(String),
    /// Replaying a structurally valid record failed against the state —
    /// the checkpoint and log disagree.
    Replay(String),
    /// The directory holds no durable state to recover.
    NotFound(String),
    /// The directory already holds durable state; `begin` refuses to
    /// clobber it (recover or pick a fresh directory).
    DirectoryInUse(String),
    /// A write returned no-space (`ENOSPC`); the write path wedged with
    /// this typed error instead of panicking.
    NoSpace(String),
    /// An archive write failed (torn segment, failed fsync); the
    /// enclosing checkpoint aborted, so the live WAL kept the records.
    Archive(String),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(msg) => write!(f, "i/o error: {msg}"),
            DurableError::Wedged(why) => {
                write!(f, "log wedged ({why}); run recovery before appending")
            }
            DurableError::TornWrite { written, expected } => {
                write!(f, "torn write: {written} of {expected} bytes persisted")
            }
            DurableError::ShortWrite { written, expected } => {
                write!(f, "short write: {written} of {expected} bytes persisted (repaired)")
            }
            DurableError::SyncFailed(msg) => write!(f, "fsync failed: {msg}"),
            DurableError::Corrupt(msg) => write!(f, "corrupt durable state: {msg}"),
            DurableError::Replay(msg) => write!(f, "replay failed: {msg}"),
            DurableError::NotFound(dir) => write!(f, "no durable state in {dir}"),
            DurableError::DirectoryInUse(dir) => {
                write!(f, "{dir} already holds durable state; RECOVER it or use a fresh directory")
            }
            DurableError::NoSpace(what) => {
                write!(f, "no space left on device (enospc) while {what}")
            }
            DurableError::Archive(msg) => write!(f, "archive write failed: {msg}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<nebula_codec::CodecError> for DurableError {
    fn from(e: nebula_codec::CodecError) -> DurableError {
        DurableError::Corrupt(e.to_string())
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> DurableError {
        DurableError::Io(e.to_string())
    }
}
