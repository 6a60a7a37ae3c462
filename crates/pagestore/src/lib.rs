//! # nebula-pagestore — crash-safe paged storage
//!
//! Breaks the RAM ceiling of the relational substrate: row payloads and
//! inverted-index posting blocks move into a checksummed fixed-size-page
//! file behind a buffer pool, while the engine above stays byte-for-byte
//! deterministic. The crate provides:
//!
//! - a page [`format`](page) — magic + version + per-page CRC32C + LSN
//!   watermark, 4 KiB pages,
//! - a [`slotted`] record layout inside each page (stable slot indices,
//!   dead-slot reuse, in-page compaction),
//! - a [`PageFile`](file::PageFile) with torn-page defense: every flush
//!   is a shadow-write + fsync + read-back-verify + rename commit, and
//!   recovery idempotently re-applies a valid shadow image (the same
//!   commit discipline the durability layer's checkpoints use),
//! - a [`BufferPool`](pool::BufferPool) with pin/unpin and deterministic
//!   clock-hand (second-chance) eviction,
//! - a [`RecordHeap`](heap::RecordHeap) minting stable `u64` record ids,
//!   with overflow chains for records larger than a page,
//! - [`PagedStorage`](store::PagedStorage), which implements relstore's
//!   [`StorageBackend`](relstore::StorageBackend) /
//!   [`StorageFactory`](relstore::StorageFactory) traits so a `Database`
//!   pages to disk transparently.
//!
//! ## Fault discipline
//!
//! Every I/O syscall rolls the four `Page*` fault sites
//! ([`nebula_govern::FaultSite::PageRead`] and friends) against a fault
//! plan the store **owns** — never the engine's thread-local plan — so
//! page faults cannot shift the engine's seeded fault stream. That is
//! what keeps the paged backend digest-identical to the RAM backend for
//! a fixed seed even while page faults fire.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(missing_docs)]

pub mod file;
pub mod heap;
pub mod page;
pub mod pool;
pub mod slotted;
pub mod store;

pub use file::{PageFile, PageRepairReport, PageScrubReport};
pub use heap::RecordHeap;
pub use page::{PAGE_SIZE, PAYLOAD_SIZE};
pub use pool::{BufferPool, PoolStats};
pub use store::{PagedStorage, StorageMetrics};

use std::fmt;

/// Errors from the page store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageStoreError {
    /// An OS-level I/O failure (includes injected `PageWrite` /
    /// `PageFsync` faults, which surface exactly like real ones).
    Io(String),
    /// A page or shadow image failed checksum or structural verification.
    Corrupt(String),
    /// A record id does not resolve to a live record.
    UnknownRecord(u64),
    /// The filesystem is out of space (`ENOSPC`, real or injected via
    /// [`nebula_govern::FaultSite::Enospc`]). The flush aborted before
    /// any byte reached disk — the old page image is intact — and the
    /// caller should shed writes until space frees instead of retrying
    /// blindly.
    NoSpace,
}

impl fmt::Display for PageStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageStoreError::Io(msg) => write!(f, "page io error: {msg}"),
            PageStoreError::Corrupt(msg) => write!(f, "page corruption: {msg}"),
            PageStoreError::UnknownRecord(id) => write!(f, "unknown record id {id:#x}"),
            PageStoreError::NoSpace => {
                write!(f, "no space left on device (flush aborted; old image intact)")
            }
        }
    }
}

impl std::error::Error for PageStoreError {}

impl From<std::io::Error> for PageStoreError {
    fn from(e: std::io::Error) -> Self {
        PageStoreError::Io(e.to_string())
    }
}

impl From<PageStoreError> for relstore::StorageError {
    fn from(e: PageStoreError) -> Self {
        relstore::StorageError(e.to_string())
    }
}

/// Counter and gauge names this crate publishes to `nebula-obs`.
pub mod counters {
    /// Buffer-pool hits (page already resident).
    pub const HITS: &str = "page.hits";
    /// Buffer-pool misses (page read from disk).
    pub const MISSES: &str = "page.misses";
    /// Frames evicted by the clock hand.
    pub const EVICTIONS: &str = "page.evictions";
    /// Shadow-commit flushes of the dirty set.
    pub const FLUSHES: &str = "page.flushes";
    /// Dirty pages written back across all flushes.
    pub const WRITE_BACKS: &str = "page.write_backs";
    /// Injected page faults that fired (all four sites).
    pub const FAULTS_INJECTED: &str = "page.faults_injected";
    /// Read retries after transient injected read faults.
    pub const RETRIES: &str = "page.retries";
    /// Pages walked by the page scrubber.
    pub const SCRUB_PAGES: &str = "page.scrub_pages";
    /// Corrupt pages the scrubber found.
    pub const SCRUB_CORRUPT: &str = "page.scrub_corrupt";
}
