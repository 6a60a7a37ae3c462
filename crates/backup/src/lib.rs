//! # nebula-backup — disaster recovery for the annotation engine
//!
//! Crash recovery (nebula-durable) survives a process death; replication
//! (nebula-replica) survives a node death. Nothing below this crate
//! survives losing the data directory itself, an operator mistake, or a
//! logical corruption that checkpointed over the only good state. This
//! crate closes that gap:
//!
//! - [`bundle`] — `BACKUP TO '<dir>'`: capture a consistent, *verified*
//!   bundle (base checkpoints + sealed WAL segments from the archive the
//!   durability manager feeds, optional page file, and a signed manifest
//!   of per-file digests).
//! - [`restore`] — `RESTORE FROM '<dir>' [AS OF LSN n]`:
//!   verify every byte against the manifest, load the newest base at or
//!   below the target, and replay archived WAL through the same
//!   idempotent `replay_op` path crash recovery uses — true
//!   point-in-time recovery to any record boundary the archive covers.
//! - [`scrub()`] — walk an archive or bundle re-deriving every CRC, so
//!   torn or rotten archive files are found *before* a restore needs
//!   them (`ArchiveRot` is the seeded fault site).
//! - [`retention`] — GC that only ever deletes what a newer base makes
//!   redundant: the oldest restorable point moves forward, never past a
//!   still-needed segment.
//!
//! All activity is reported through `nebula-obs` under `backup.*` names.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(missing_docs)]

pub mod bundle;
pub mod manifest;
pub mod retention;
pub mod scrub;

pub use bundle::{create_bundle, restore, verify_bundle, BundleSpec, Restored, VerifyReport};
pub use manifest::{BackupManifest, ManifestEntry, MANIFEST_FILE};
pub use retention::{gc, GcReport};
pub use scrub::{inject_rot, scrub};

use std::fmt;

/// Counter and span names this crate publishes to `nebula-obs`.
pub mod counters {
    /// Bundles captured.
    pub const BUNDLES_CREATED: &str = "backup.bundles_created";
    /// Bytes written into bundles (files + manifest).
    pub const BUNDLE_BYTES: &str = "backup.bundle_bytes";
    /// Restores completed.
    pub const RESTORES: &str = "backup.restores";
    /// Records replayed by restores.
    pub const RESTORE_RECORDS_REPLAYED: &str = "backup.restore_records_replayed";
    /// Manifest/digest verifications that failed.
    pub const VERIFY_FAILURES: &str = "backup.verify_failures";
    /// Backup-side scrub passes.
    pub const SCRUBS: &str = "backup.scrubs";
    /// At-rest archive bit flips injected by the chaos hook.
    pub const ROT_INJECTED: &str = "backup.rot_injected";
    /// Corrupt archive/bundle files the scrubber found.
    pub const ROT_DETECTED: &str = "backup.rot_detected";
    /// Archive files removed by retention GC.
    pub const GC_REMOVED: &str = "backup.gc_removed";
    /// Span: one verified restore.
    pub const SPAN_RESTORE: &str = "backup.restore";
}

/// Errors from backup, verify, restore, scrub, and retention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackupError {
    /// An operating-system I/O failure.
    Io(String),
    /// A frame or image failed structural validation (CRC, magic, LSN
    /// contiguity).
    Corrupt(String),
    /// The bundle does not match its signed manifest (missing file,
    /// wrong length, wrong digest, bad signature). Restores refuse to
    /// hand such state to the engine.
    Verify(String),
    /// The requested LSN is outside what the archive can rebuild.
    NotRestorable(String),
    /// A write returned no-space (`ENOSPC`); the backup path wedged with
    /// this typed error instead of panicking.
    NoSpace(String),
}

impl fmt::Display for BackupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackupError::Io(msg) => write!(f, "backup i/o error: {msg}"),
            BackupError::Corrupt(msg) => write!(f, "corrupt backup state: {msg}"),
            BackupError::Verify(msg) => write!(f, "bundle failed verification: {msg}"),
            BackupError::NotRestorable(msg) => write!(f, "not restorable: {msg}"),
            BackupError::NoSpace(what) => {
                write!(f, "no space left on device (enospc) while {what}")
            }
        }
    }
}

impl std::error::Error for BackupError {}

impl From<std::io::Error> for BackupError {
    fn from(e: std::io::Error) -> BackupError {
        BackupError::Io(e.to_string())
    }
}

/// The manifest is the only format this crate parses itself, and a
/// manifest that does not parse fails verification.
impl From<nebula_codec::CodecError> for BackupError {
    fn from(e: nebula_codec::CodecError) -> BackupError {
        BackupError::Verify(e.to_string())
    }
}

impl From<nebula_durable::DurableError> for BackupError {
    fn from(e: nebula_durable::DurableError) -> BackupError {
        match e {
            nebula_durable::DurableError::NoSpace(what) => BackupError::NoSpace(what),
            nebula_durable::DurableError::Io(msg) => BackupError::Io(msg),
            other => BackupError::Corrupt(other.to_string()),
        }
    }
}
