//! [`PagedStorage`]: the bridge between the page store and relstore's
//! [`StorageBackend`](relstore::StorageBackend) /
//! [`StorageFactory`](relstore::StorageFactory) traits.
//!
//! One [`PagedStorage`] owns one [`RecordHeap`] (one page file) shared by
//! every namespace the database opens — tables and the inverted index's
//! posting blocks interleave on the same pages, which keeps the file
//! compact and the placement deterministic. All access is serialized
//! through a mutex; the engine above already orders its storage calls
//! deterministically, so the lock adds safety, not ordering.
//!
//! Every mutation bumps an internal LSN; [`PagedStorage::flush`] stamps
//! it into the header-page watermark as part of the shadow commit, so
//! "how far did disk get" is always answerable after a crash.

use crate::file::{FaultTally, PageRepairReport, PageScrubReport};
use crate::heap::RecordHeap;
use crate::pool::PoolStats;
use crate::PageStoreError;
use nebula_govern::FaultPlan;
use relstore::{StorageBackend, StorageError, StorageFactory};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// One snapshot of the store's counters and positions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageMetrics {
    /// Buffer-pool counters.
    pub pool: PoolStats,
    /// Injected page faults and retries.
    pub faults: FaultTally,
    /// Dirty pages awaiting a flush.
    pub dirty_pages: u64,
    /// Resident frames.
    pub resident_pages: u64,
    /// Pages in the file (including the header page).
    pub page_count: u32,
    /// Durable LSN watermark (last flushed).
    pub watermark: u64,
    /// In-memory LSN (mutations since open, plus the opened watermark).
    pub lsn: u64,
}

#[derive(Debug)]
struct Inner {
    heap: RecordHeap,
    lsn: u64,
}

/// A paged storage factory rooted at one directory.
#[derive(Debug, Clone)]
pub struct PagedStorage {
    inner: Arc<Mutex<Inner>>,
    dir: PathBuf,
}

impl PagedStorage {
    /// Open (or create) a paged store in `dir` with `pool_frames`
    /// resident frames.
    pub fn open(dir: &Path, pool_frames: usize) -> Result<PagedStorage, PageStoreError> {
        std::fs::create_dir_all(dir)?;
        let heap = RecordHeap::open(dir, pool_frames)?;
        let lsn = heap.watermark();
        Ok(PagedStorage {
            inner: Arc::new(Mutex::new(Inner { heap, lsn })),
            dir: dir.to_path_buf(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The directory this store pages into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The frame budget the buffer pool was opened with.
    pub fn pool_frames(&self) -> usize {
        self.lock().heap.pool_frames()
    }

    /// Counter/position snapshot.
    pub fn metrics(&self) -> StorageMetrics {
        let inner = self.lock();
        let snapshot = StorageMetrics {
            pool: inner.heap.stats(),
            faults: inner.heap.fault_tally(),
            dirty_pages: inner.heap.dirty_pages(),
            resident_pages: inner.heap.resident_pages(),
            page_count: inner.heap.page_count(),
            watermark: inner.heap.watermark(),
            lsn: inner.lsn,
        };
        nebula_obs::gauge_set("page.dirty_pages", snapshot.dirty_pages);
        nebula_obs::gauge_set("page.resident_pages", snapshot.resident_pages);
        nebula_obs::gauge_set("page.file_pages", u64::from(snapshot.page_count));
        snapshot
    }

    /// Install (or clear) the fault plan this store's page I/O rolls
    /// against. The plan is owned here — page faults never touch the
    /// engine's seeded stream.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        self.lock().heap.set_fault_plan(plan);
    }

    /// Flush the dirty set through one shadow commit, stamping the
    /// current LSN as the durable watermark.
    pub fn flush_pages(&self) -> Result<(), PageStoreError> {
        let mut inner = self.lock();
        let lsn = inner.lsn;
        inner.heap.flush(lsn)
    }

    /// Read-only CRC walk over the flushed page file.
    pub fn scrub(&self) -> Result<PageScrubReport, PageStoreError> {
        self.lock().heap.scrub()
    }

    /// Roll the `PageRot` site; on a hit one at-rest bit flips on disk.
    pub fn inject_rot(&self) -> Result<Option<(u32, usize)>, PageStoreError> {
        self.lock().heap.inject_rot()
    }

    /// Heal single-bit rot in place via CRC linearity. Pages with wider
    /// damage are reported unrecoverable and need a rebuild from live
    /// state. Holds the store lock so no flush races the in-place writes.
    pub fn repair(&self) -> Result<PageRepairReport, PageStoreError> {
        let _guard = self.lock();
        crate::file::repair_dir(&self.dir)
    }
}

impl StorageFactory for PagedStorage {
    fn open(&self, namespace: u32) -> Box<dyn StorageBackend> {
        Box::new(NamespaceBackend { store: self.clone(), namespace })
    }

    fn flush(&self) -> Result<(), StorageError> {
        self.flush_pages().map_err(StorageError::from)
    }

    fn describe(&self) -> String {
        format!("disk:{}", self.dir.display())
    }
}

/// One namespace's view of the shared heap (namespaces share the record
/// id space; the tag only labels diagnostics).
#[derive(Debug)]
struct NamespaceBackend {
    store: PagedStorage,
    namespace: u32,
}

impl StorageBackend for NamespaceBackend {
    fn insert(&self, bytes: &[u8]) -> Result<u64, StorageError> {
        let mut inner = self.store.lock();
        inner.lsn += 1;
        inner.heap.insert(bytes).map_err(StorageError::from)
    }

    fn get(&self, id: u64) -> Result<Option<Vec<u8>>, StorageError> {
        self.store.lock().heap.get(id).map_err(StorageError::from)
    }

    fn update(&self, id: u64, bytes: &[u8]) -> Result<u64, StorageError> {
        let mut inner = self.store.lock();
        inner.lsn += 1;
        inner.heap.update(id, bytes).map_err(StorageError::from)
    }

    fn delete(&self, id: u64) -> Result<(), StorageError> {
        let mut inner = self.store.lock();
        inner.lsn += 1;
        inner.heap.delete(id).map(|_| ()).map_err(StorageError::from)
    }

    fn label(&self) -> String {
        format!("paged:{}", self.namespace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{DataType, Database, TableSchema, TupleId, Value};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nebula-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seed_db(db: &mut Database) -> Vec<TupleId> {
        db.create_table(
            TableSchema::builder("notes")
                .column("id", DataType::Int)
                .column("body", DataType::Text)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();
        (0..30i64)
            .map(|i| {
                db.insert(
                    "notes",
                    vec![Value::Int(i), Value::text(format!("note body number {i} zebra"))],
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn database_runs_on_paged_backend() {
        let dir = tmpdir("db");
        let store = PagedStorage::open(&dir, 8).unwrap();
        let mut db = Database::with_storage(Arc::new(store.clone()));
        let tids = seed_db(&mut db);
        assert_eq!(db.total_tuples(), 30);
        for (i, tid) in tids.iter().enumerate() {
            let tuple = db.get(*tid).expect("paged row readable");
            assert_eq!(tuple.get_by_name("id"), Some(&Value::Int(i as i64)));
        }
        let hits = db.inverted_index().lookup("zebra");
        assert_eq!(hits.len(), 30, "postings flow through the paged backend");
        store.flush_pages().unwrap();
        assert!(store.scrub().unwrap().is_clean());
        assert!(store.metrics().page_count > 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn paged_database_matches_mem_database() {
        let dir = tmpdir("parity");
        let store = PagedStorage::open(&dir, 4).unwrap();
        let mut paged = Database::with_storage(Arc::new(store));
        let mut mem = Database::new();
        let mut all_tids = Vec::new();
        for db in [&mut paged, &mut mem] {
            let tids = seed_db(db);
            // Updates and deletes too, to cover relocation paths.
            for (i, tid) in tids.iter().enumerate().step_by(3) {
                db.update(*tid, vec![Value::Int(i as i64), Value::text(format!("rewritten {i}"))])
                    .unwrap();
            }
            for tid in tids.iter().skip(1).step_by(7) {
                assert!(db.delete(*tid));
            }
            all_tids.push(tids);
        }
        assert_eq!(all_tids[0], all_tids[1], "tuple ids identical across backends");
        for tid in &all_tids[0] {
            assert_eq!(mem.get(*tid), paged.get(*tid), "row state identical at {tid:?}");
        }
        for token in ["zebra", "rewritten", "note"] {
            assert_eq!(
                mem.inverted_index().lookup(token).to_vec(),
                paged.inverted_index().lookup(token).to_vec(),
                "postings identical for {token:?}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
