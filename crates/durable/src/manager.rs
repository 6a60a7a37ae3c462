//! [`Durability`] — the live WAL/checkpoint manager the engine logs
//! through.
//!
//! ## Write path
//!
//! [`Durability::append`] encodes one record and writes it to the log,
//! with `nebula-govern` I/O fault sites consulted at every step:
//!
//! 1. **Torn write** — only a prefix of the record reaches the file and
//!    *stays there*, as a real crash mid-write would leave it. The manager
//!    **wedges**: further appends are refused until a checkpoint (which
//!    truncates the log, discarding the torn bytes) or a restart through
//!    [`Durability::resume`] (which truncates to the valid prefix).
//! 2. **Short write** — a prefix reaches the file but the failure is
//!    detected immediately, so the manager truncates back to the pre-write
//!    offset and reports the error; the log stays clean and unwedged.
//! 3. **Fsync failure** — the record bytes are in the file but stable
//!    storage was never confirmed; the manager wedges.
//!
//! Because the engine logs **before** it applies and never applies a
//! mutation whose append failed, the in-memory state always equals the
//! log's valid prefix — which is exactly what wedged-state checkpointing
//! and crash recovery rely on.
//!
//! ## Checkpoint path
//!
//! [`Durability::checkpoint`] **fully decodes** the framed image in memory,
//! archives it (when archiving is on), and commits it through
//! [`atomic_replace`] (temp write, fsync, byte-for-byte read-back, rename,
//! directory fsync) before it truncates the WAL. An injected bit flip (or
//! any real corruption) therefore fails the checkpoint cleanly — the
//! previous checkpoint and the complete WAL still hold every mutation, so
//! nothing is lost.

use crate::archive;
use crate::checkpoint;
use crate::recover::{recover, Recovered};
use crate::wal::{encode_record, WalOp, WAL_FILE};
use crate::{counters, DurableError};
use annostore::AnnotationStore;
use nebula_core::{Mutation, MutationSink, SinkError};
use nebula_govern::scrub::{atomic_replace, WriteFaults};
use nebula_govern::{inject_io, FaultSite};
use relstore::Database;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// When the WAL is fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync after every record — maximum durability, slowest.
    EveryRecord,
    /// Fsync once per batch (the engine flushes at batch end).
    Batch,
}

/// Tuning knobs for [`Durability`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// Fsync cadence.
    pub sync: SyncPolicy,
    /// Take a checkpoint after this many records (`None` = only on
    /// explicit request).
    pub checkpoint_every: Option<usize>,
}

impl Default for DurabilityOptions {
    fn default() -> DurabilityOptions {
        DurabilityOptions { sync: SyncPolicy::EveryRecord, checkpoint_every: None }
    }
}

/// Where (and as whom) a manager archives sealed WAL segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveConfig {
    /// The archive directory (`segment-*.seg` + `base-*.ckpt` files).
    pub dir: PathBuf,
    /// Epoch stamped into every archived frame.
    pub epoch: u64,
}

/// The live durability manager: an open WAL plus checkpoint bookkeeping.
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    wal: File,
    wal_len: u64,
    next_lsn: u64,
    ckpt_seq: u64,
    watermark: u64,
    since_checkpoint: usize,
    options: DurabilityOptions,
    wedged: Option<String>,
    archive: Option<ArchiveConfig>,
    image: Vec<u8>, // the last checkpoint image; the next is encoded over it
}

impl Durability {
    /// Start durability in a fresh directory: write an initial checkpoint
    /// of the current state and open an empty WAL.
    ///
    /// Refuses a directory that already holds durable state
    /// ([`DurableError::DirectoryInUse`]) — recover it or pick another.
    pub fn begin(
        dir: &Path,
        db: &Database,
        store: &AnnotationStore,
        options: DurabilityOptions,
    ) -> Result<Durability, DurableError> {
        Durability::begin_at(dir, db, store, options, 1)
    }

    /// [`Durability::begin`], but the first append gets LSN `first_lsn`
    /// (which must be ≥ 1). The initial checkpoint carries watermark
    /// `first_lsn - 1`, so the new log slots into an existing LSN
    /// sequence — this is how a promoted replica becomes a primary
    /// without renumbering the history it inherited.
    pub fn begin_at(
        dir: &Path,
        db: &Database,
        store: &AnnotationStore,
        options: DurabilityOptions,
        first_lsn: u64,
    ) -> Result<Durability, DurableError> {
        std::fs::create_dir_all(dir)?;
        let existing = checkpoint::list_checkpoints(dir)?;
        let wal_path = dir.join(WAL_FILE);
        let wal_populated = std::fs::metadata(&wal_path).map(|m| m.len() > 0).unwrap_or(false);
        if !existing.is_empty() || wal_populated {
            return Err(DurableError::DirectoryInUse(dir.display().to_string()));
        }
        let wal = OpenOptions::new().create(true).truncate(true).write(true).open(&wal_path)?;
        let mut durability = Durability {
            dir: dir.to_path_buf(),
            wal,
            wal_len: 0,
            next_lsn: first_lsn.max(1),
            ckpt_seq: 1,
            watermark: 0,
            since_checkpoint: 0,
            options,
            wedged: None,
            archive: None,
            image: Vec::new(),
        };
        durability.checkpoint(db, store)?;
        Ok(durability)
    }

    /// Reopen a directory: recover its state, repair the WAL tail
    /// (truncate to the valid prefix), and return a manager ready to
    /// append, alongside the recovered state. When a torn tail was
    /// truncated, [`Recovered::wal_truncated_to`] carries the surviving
    /// LSN watermark so replication can make its catch-up decision.
    pub fn resume(
        dir: &Path,
        options: DurabilityOptions,
    ) -> Result<(Durability, Recovered), DurableError> {
        let mut recovered = recover(dir)?;
        let wal_path = dir.join(WAL_FILE);
        let mut wal =
            OpenOptions::new().create(true).truncate(false).write(true).open(&wal_path)?;
        if recovered.tail.dropped_bytes > 0 {
            wal.set_len(recovered.tail.valid_bytes as u64)?;
            wal.sync_data()?;
            recovered.wal_truncated_to = Some(recovered.last_lsn);
            nebula_obs::counter_add(counters::WAL_TRUNCATIONS, 1);
        }
        wal.seek(SeekFrom::Start(recovered.tail.valid_bytes as u64))?;
        let ckpt_seq =
            checkpoint::list_checkpoints(dir)?.last().map(|(seq, _)| seq + 1).unwrap_or(1);
        let durability = Durability {
            dir: dir.to_path_buf(),
            wal,
            wal_len: recovered.tail.valid_bytes as u64,
            next_lsn: recovered.last_lsn + 1,
            ckpt_seq,
            watermark: recovered.watermark,
            since_checkpoint: recovered.replayed,
            options,
            wedged: None,
            archive: None,
            image: Vec::new(),
        };
        Ok((durability, recovered))
    }

    /// Append one operation to the log. Returns the assigned LSN.
    pub fn append(&mut self, op: &WalOp) -> Result<u64, DurableError> {
        let span = nebula_obs::span(counters::SPAN_APPEND);
        if let Some(why) = &self.wedged {
            nebula_obs::counter_add(counters::APPEND_FAILURES, 1);
            return Err(DurableError::Wedged(why.clone()));
        }
        let lsn = self.next_lsn;
        span.detail(|| format!("lsn={lsn}"));
        nebula_obs::trace::note_lsn(lsn);
        let record = encode_record(lsn, op);

        if inject_io(FaultSite::Enospc, record.len()).is_some() {
            // The filesystem is full: nothing reached the file, but no
            // further append can be trusted until space is freed (a
            // checkpoint truncates the log and unwedges).
            self.wedge(format!("no space left on device before lsn {lsn}"));
            nebula_obs::counter_add(counters::APPEND_FAILURES, 1);
            return Err(DurableError::NoSpace(format!("appending lsn {lsn}")));
        }
        if let Some(keep) = inject_io(FaultSite::TornWrite, record.len()) {
            // A crash mid-write: the prefix stays on disk and the log is
            // in an unknown state until a checkpoint or recovery.
            self.wal.write_all(&record[..keep])?;
            let _ = self.wal.sync_data();
            self.wedge(format!("torn write at lsn {lsn} ({keep} bytes persisted)"));
            nebula_obs::counter_add(counters::APPEND_FAILURES, 1);
            return Err(DurableError::TornWrite { written: keep, expected: record.len() });
        }
        if let Some(keep) = inject_io(FaultSite::ShortWrite, record.len()) {
            // Detected immediately: restore the pre-write length so the
            // log stays clean.
            self.wal.write_all(&record[..keep])?;
            self.wal.set_len(self.wal_len)?;
            self.wal.seek(SeekFrom::Start(self.wal_len))?;
            nebula_obs::counter_add(counters::APPEND_FAILURES, 1);
            return Err(DurableError::ShortWrite { written: keep, expected: record.len() });
        }

        self.wal.write_all(&record)?;
        if self.options.sync == SyncPolicy::EveryRecord {
            let fsync_span = nebula_obs::span("durable.fsync");
            if inject_io(FaultSite::FsyncFail, record.len()).is_some() {
                self.wedge(format!("fsync failed after lsn {lsn}"));
                nebula_obs::counter_add(counters::APPEND_FAILURES, 1);
                return Err(DurableError::SyncFailed(format!("after lsn {lsn}")));
            }
            self.wal.sync_data()?;
            nebula_obs::counter_add(counters::FSYNCS, 1);
            drop(fsync_span);
        }
        self.wal_len += record.len() as u64;
        self.next_lsn += 1;
        self.since_checkpoint += 1;
        nebula_obs::counter_add(counters::RECORDS_APPENDED, 1);
        nebula_obs::counter_add(counters::BYTES_APPENDED, record.len() as u64);
        Ok(lsn)
    }

    /// Refuse every append until a checkpoint, and tell the flight recorder
    /// `why`.
    fn wedge(&mut self, why: String) {
        nebula_obs::trace::flight_event("wedge", why.clone());
        self.wedged = Some(why);
    }

    /// Fsync the log (used by the [`SyncPolicy::Batch`] policy at batch
    /// boundaries; a no-op under [`SyncPolicy::EveryRecord`]).
    pub fn sync(&mut self) -> Result<(), DurableError> {
        if self.options.sync != SyncPolicy::Batch || self.wedged.is_some() {
            return Ok(());
        }
        if inject_io(FaultSite::FsyncFail, self.wal_len as usize).is_some() {
            self.wedge("batch fsync failed".to_string());
            return Err(DurableError::SyncFailed("batch flush".to_string()));
        }
        self.wal.sync_data()?;
        nebula_obs::counter_add(counters::FSYNCS, 1);
        Ok(())
    }

    /// Take a checkpoint of `db`/`store`, verify it, commit it, and
    /// truncate the WAL. Returns the watermark the checkpoint covers.
    ///
    /// Valid — and the only self-service repair — while wedged: the
    /// in-memory state equals the log's valid prefix (failed appends are
    /// never applied), so persisting it and truncating the log discards
    /// exactly the torn bytes.
    pub fn checkpoint(
        &mut self,
        db: &Database,
        store: &AnnotationStore,
    ) -> Result<u64, DurableError> {
        let _span = nebula_obs::span(counters::SPAN_CHECKPOINT);
        let watermark = self.next_lsn - 1;
        checkpoint::encode_into(&mut self.image, watermark, db, store);
        if let Some(bit) = inject_io(FaultSite::BitFlip, self.image.len()) {
            self.image[bit / 8] ^= 1 << (bit % 8);
        }
        let final_path = self.dir.join(checkpoint::file_name(self.ckpt_seq));
        // Decode before any byte lands: a corrupt image (an injected bit
        // flip) must never reach the archive, replace a good checkpoint or
        // cost WAL records.
        let committed = checkpoint::decode(&self.image)
            .and_then(|_| self.archive_sealed(watermark, &self.image))
            .and_then(|()| {
                Ok(atomic_replace(&final_path, &self.image, WriteFaults::default(), inject_io)?)
            });
        if let Err(e) = committed {
            nebula_obs::counter_add(counters::CHECKPOINT_FAILURES, 1);
            return Err(e);
        }

        // The image is durable: the log before the watermark is redundant.
        self.wal.set_len(0)?;
        self.wal.seek(SeekFrom::Start(0))?;
        self.wal.sync_data()?;
        self.wal_len = 0;
        self.watermark = watermark;
        self.since_checkpoint = 0;
        self.wedged = None;
        for (seq, path) in checkpoint::list_checkpoints(&self.dir)? {
            if seq < self.ckpt_seq {
                let _ = std::fs::remove_file(path);
            }
        }
        self.ckpt_seq += 1;
        nebula_obs::counter_add(counters::CHECKPOINTS, 1);
        Ok(watermark)
    }

    /// Archive before truncating: no WAL byte may be discarded until its
    /// sealed archived copy (and the covering base image) is durable. A
    /// failed archive write aborts the whole checkpoint — the live WAL and
    /// the previous checkpoint still hold everything.
    fn archive_sealed(&self, watermark: u64, image: &[u8]) -> Result<(), DurableError> {
        let Some(cfg) = &self.archive else { return Ok(()) };
        if self.wal_len > 0 {
            let wal_bytes = std::fs::read(self.dir.join(WAL_FILE))?;
            let valid = &wal_bytes[..(self.wal_len as usize).min(wal_bytes.len())];
            // At-rest rot (or a torn write awaiting this very checkpoint's
            // repair) can damage record bytes inside the prefix. The base
            // image below carries every record's effects, so seal only the
            // clean decodable prefix: restores inside the damaged span come
            // from the base, and no corrupt bytes enter the archive.
            let (_, tail) = crate::wal::read_wal(valid);
            archive::archive_segment(
                &cfg.dir,
                cfg.epoch,
                self.watermark + 1,
                &valid[..tail.valid_bytes],
            )?;
        }
        archive::archive_base(&cfg.dir, cfg.epoch, watermark, image)?;
        Ok(())
    }

    /// Enable WAL archiving into `dir`, stamping frames with `epoch`.
    ///
    /// The current checkpoint is copied in as the first restore base, so
    /// the archive's restorable range starts at the live watermark; every
    /// later checkpoint seals the WAL into the archive before truncating
    /// it.
    pub fn set_archive(&mut self, dir: &Path, epoch: u64) -> Result<(), DurableError> {
        let newest = checkpoint::list_checkpoints(&self.dir)?
            .into_iter()
            .next_back()
            .ok_or_else(|| DurableError::NotFound(self.dir.display().to_string()))?;
        let image = std::fs::read(newest.1)?;
        let (watermark, _, _) = checkpoint::decode(&image)?;
        archive::archive_base(dir, epoch, watermark, &image)?;
        self.archive = Some(ArchiveConfig { dir: dir.to_path_buf(), epoch });
        Ok(())
    }

    /// The archive directory, when archiving is enabled.
    pub fn archive_dir(&self) -> Option<&Path> {
        self.archive.as_ref().map(|cfg| cfg.dir.as_path())
    }

    /// Survey the archive, when archiving is enabled.
    pub fn archive_stats(&self) -> Option<archive::ArchiveStats> {
        self.archive.as_ref().and_then(|cfg| archive::archive_stats(&cfg.dir).ok())
    }

    /// The directory this manager persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The LSN the next append will use.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// The watermark of the last committed checkpoint.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Bytes currently in the WAL's valid prefix.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_len
    }

    /// Is the log wedged (torn write / fsync failure awaiting repair)?
    pub fn is_wedged(&self) -> bool {
        self.wedged.is_some()
    }
}

impl MutationSink for Durability {
    fn record(&mut self, mutation: &Mutation<'_>) -> Result<u64, SinkError> {
        self.append(&WalOp::from_mutation(mutation)).map_err(|e| SinkError(e.to_string()))
    }

    fn checkpoint_due(&self) -> bool {
        self.options.checkpoint_every.is_some_and(|every| self.since_checkpoint >= every)
    }

    fn checkpoint(&mut self, db: &Database, store: &AnnotationStore) -> Result<u64, SinkError> {
        Durability::checkpoint(self, db, store).map_err(|e| SinkError(e.to_string()))
    }

    fn flush(&mut self) -> Result<(), SinkError> {
        self.sync().map_err(|e| SinkError(e.to_string()))
    }

    fn healthy(&self) -> bool {
        !self.is_wedged()
    }

    fn set_archive(&mut self, dir: &Path) -> Result<(), SinkError> {
        // A standalone log lives in epoch 1 (no failovers to distinguish).
        Durability::set_archive(self, dir, 1).map_err(|e| SinkError(e.to_string()))
    }

    fn archive_dir(&self) -> Option<PathBuf> {
        Durability::archive_dir(self).map(Path::to_path_buf)
    }

    fn describe(&self) -> String {
        let policy = match self.options.sync {
            SyncPolicy::EveryRecord => "every-record",
            SyncPolicy::Batch => "batch",
        };
        let every =
            self.options.checkpoint_every.map_or_else(|| "manual".to_string(), |n| n.to_string());
        let archived = match &self.archive {
            Some(cfg) => match archive::archive_stats(&cfg.dir) {
                Ok(s) => format!(
                    " archive[dir={} segments={} oldest_restorable_lsn={}]",
                    cfg.dir.display(),
                    s.segments,
                    s.oldest_restorable_lsn
                ),
                Err(_) => format!(" archive[dir={} unreadable]", cfg.dir.display()),
            },
            None => String::new(),
        };
        format!(
            "dir={} sync={policy} checkpoint_every={every} next_lsn={} watermark={} \
             wal_bytes={}{}{archived}",
            self.dir.display(),
            self.next_lsn,
            self.watermark,
            self.wal_len,
            if self.wedged.is_some() { " WEDGED" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::recover;
    use annostore::AnnotationId;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nebula-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn op(n: u64) -> WalOp {
        WalOp::AddAnnotation {
            expected: AnnotationId(n),
            text: format!("note {n}"),
            author: None,
            kind: None,
        }
    }

    #[test]
    fn begin_append_recover_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut db = Database::new();
        let mut store = AnnotationStore::new();
        let mut d = Durability::begin(&dir, &db, &store, DurabilityOptions::default()).unwrap();
        for n in 0..4u64 {
            let lsn = d.append(&op(n)).unwrap();
            assert_eq!(lsn, n + 1);
            crate::recover::replay_op(&mut db, &mut store, &op(n)).unwrap();
        }
        drop(d);
        let r = recover(&dir).unwrap();
        assert_eq!(r.replayed, 4);
        assert_eq!(r.store.annotation_count(), 4);
        assert_eq!(r.last_lsn, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn begin_refuses_a_directory_in_use() {
        let dir = temp_dir("in-use");
        let db = Database::new();
        let store = AnnotationStore::new();
        let d = Durability::begin(&dir, &db, &store, DurabilityOptions::default()).unwrap();
        drop(d);
        let err = Durability::begin(&dir, &db, &store, DurabilityOptions::default()).unwrap_err();
        assert!(matches!(err, DurableError::DirectoryInUse(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_wal_and_raises_watermark() {
        let dir = temp_dir("ckpt");
        let mut db = Database::new();
        let mut store = AnnotationStore::new();
        let mut d = Durability::begin(&dir, &db, &store, DurabilityOptions::default()).unwrap();
        for n in 0..3u64 {
            d.append(&op(n)).unwrap();
            crate::recover::replay_op(&mut db, &mut store, &op(n)).unwrap();
        }
        assert!(d.wal_bytes() > 0);
        let watermark = d.checkpoint(&db, &store).unwrap();
        assert_eq!(watermark, 3);
        assert_eq!(d.wal_bytes(), 0);
        // One more record after the checkpoint; recovery must skip
        // nothing and replay exactly one.
        d.append(&op(3)).unwrap();
        crate::recover::replay_op(&mut db, &mut store, &op(3)).unwrap();
        drop(d);
        let r = recover(&dir).unwrap();
        assert_eq!(r.watermark, 3);
        assert_eq!(r.replayed, 1);
        assert_eq!(r.skipped, 0);
        assert_eq!(r.store.annotation_count(), 4);
        // Exactly one checkpoint file remains.
        assert_eq!(checkpoint::list_checkpoints(&dir).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_continues_the_lsn_sequence() {
        let dir = temp_dir("resume");
        let mut db = Database::new();
        let mut store = AnnotationStore::new();
        let mut d = Durability::begin(&dir, &db, &store, DurabilityOptions::default()).unwrap();
        for n in 0..2u64 {
            d.append(&op(n)).unwrap();
            crate::recover::replay_op(&mut db, &mut store, &op(n)).unwrap();
        }
        drop(d);
        let (mut d2, r) = Durability::resume(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(r.replayed, 2);
        assert_eq!(d2.next_lsn(), 3);
        assert_eq!(d2.append(&op(2)).unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_repairs_a_torn_tail() {
        let dir = temp_dir("repair");
        let db = Database::new();
        let store = AnnotationStore::new();
        let mut d = Durability::begin(&dir, &db, &store, DurabilityOptions::default()).unwrap();
        d.append(&op(0)).unwrap();
        let valid = d.wal_bytes();
        drop(d);
        // Tear the log by appending half of a record by hand.
        let torn = encode_record(2, &op(1));
        let mut bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(dir.join(WAL_FILE), &bytes).unwrap();

        let (d2, r) = Durability::resume(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(r.tail.dropped_records, 1);
        assert_eq!(
            r.wal_truncated_to,
            Some(1),
            "truncation reports the surviving LSN watermark, not just a counter"
        );
        assert_eq!(d2.wal_bytes(), valid);
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), valid);
        assert_eq!(d2.next_lsn(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_resume_reports_no_truncation() {
        let dir = temp_dir("clean-resume");
        let db = Database::new();
        let store = AnnotationStore::new();
        let mut d = Durability::begin(&dir, &db, &store, DurabilityOptions::default()).unwrap();
        d.append(&op(0)).unwrap();
        drop(d);
        let (_, r) = Durability::resume(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(r.wal_truncated_to, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn begin_at_slots_into_an_existing_lsn_sequence() {
        let dir = temp_dir("begin-at");
        let mut db = Database::new();
        let mut store = AnnotationStore::new();
        // A promoted replica at LSN 2 continues the history from LSN 3.
        for n in 0..2u64 {
            crate::recover::replay_op(&mut db, &mut store, &op(n)).unwrap();
        }
        let mut d =
            Durability::begin_at(&dir, &db, &store, DurabilityOptions::default(), 3).unwrap();
        assert_eq!(d.next_lsn(), 3);
        assert_eq!(d.watermark(), 2, "initial checkpoint covers the inherited prefix");
        assert_eq!(d.append(&op(2)).unwrap(), 3);
        drop(d);
        let r = recover(&dir).unwrap();
        assert_eq!(r.watermark, 2);
        assert_eq!(r.replayed, 1);
        assert_eq!(r.last_lsn, 3);
        assert_eq!(r.store.annotation_count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_wedges_until_checkpoint() {
        let dir = temp_dir("wedge");
        let mut db = Database::new();
        let mut store = AnnotationStore::new();
        let mut d = Durability::begin(&dir, &db, &store, DurabilityOptions::default()).unwrap();
        d.append(&op(0)).unwrap();
        crate::recover::replay_op(&mut db, &mut store, &op(0)).unwrap();

        nebula_govern::set_fault_plan(Some(
            nebula_govern::FaultPlan::new(0xDEAD_BEEF).with(FaultSite::TornWrite, 1.0),
        ));
        let err = d.append(&op(1)).unwrap_err();
        nebula_govern::set_fault_plan(None);
        assert!(matches!(err, DurableError::TornWrite { .. }), "{err}");
        assert!(d.is_wedged());
        // While wedged, appends are refused...
        assert!(matches!(d.append(&op(1)), Err(DurableError::Wedged(_))));
        // ...but the on-disk log still recovers to the applied prefix.
        let r = recover(&dir).unwrap();
        assert_eq!(r.store.annotation_count(), 1);
        // A checkpoint repairs the log and unwedges the manager.
        d.checkpoint(&db, &store).unwrap();
        assert!(!d.is_wedged());
        d.append(&op(1)).unwrap();
        crate::recover::replay_op(&mut db, &mut store, &op(1)).unwrap();
        drop(d);
        let r = recover(&dir).unwrap();
        assert_eq!(r.store.annotation_count(), 2);
        assert!(r.tail.is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_self_repairs() {
        let dir = temp_dir("short");
        let db = Database::new();
        let store = AnnotationStore::new();
        let mut d = Durability::begin(&dir, &db, &store, DurabilityOptions::default()).unwrap();
        d.append(&op(0)).unwrap();
        let before = d.wal_bytes();

        nebula_govern::set_fault_plan(Some(
            nebula_govern::FaultPlan::new(7).with(FaultSite::ShortWrite, 1.0),
        ));
        let err = d.append(&op(1)).unwrap_err();
        nebula_govern::set_fault_plan(None);
        assert!(matches!(err, DurableError::ShortWrite { .. }), "{err}");
        assert!(!d.is_wedged());
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), before);
        // The retry goes straight through with the same LSN.
        assert_eq!(d.append(&op(1)).unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_fails_the_checkpoint_without_losing_data() {
        let dir = temp_dir("flip");
        let mut db = Database::new();
        let mut store = AnnotationStore::new();
        let mut d = Durability::begin(&dir, &db, &store, DurabilityOptions::default()).unwrap();
        for n in 0..3u64 {
            d.append(&op(n)).unwrap();
            crate::recover::replay_op(&mut db, &mut store, &op(n)).unwrap();
        }
        nebula_govern::set_fault_plan(Some(
            nebula_govern::FaultPlan::new(99).with(FaultSite::BitFlip, 1.0),
        ));
        let err = d.checkpoint(&db, &store).unwrap_err();
        nebula_govern::set_fault_plan(None);
        assert!(matches!(err, DurableError::Corrupt(_)), "{err}");
        // WAL untouched, old checkpoint still valid, no temp file left.
        assert!(d.wal_bytes() > 0);
        let names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert!(names.iter().all(|n| !n.to_string_lossy().ends_with(".tmp")), "{names:?}");
        let r = recover(&dir).unwrap();
        assert_eq!(r.store.annotation_count(), 3);
        // And a clean checkpoint succeeds afterwards.
        d.checkpoint(&db, &store).unwrap();
        assert_eq!(d.wal_bytes(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_seal_the_wal_into_the_archive_before_truncating() {
        let dir = temp_dir("archive-seal");
        let arch = temp_dir("archive-seal-dest");
        let mut db = Database::new();
        let mut store = AnnotationStore::new();
        let mut d = Durability::begin(&dir, &db, &store, DurabilityOptions::default()).unwrap();
        d.set_archive(&arch, 1).unwrap();
        for n in 0..3u64 {
            d.append(&op(n)).unwrap();
            crate::recover::replay_op(&mut db, &mut store, &op(n)).unwrap();
        }
        d.checkpoint(&db, &store).unwrap();
        for n in 3..5u64 {
            d.append(&op(n)).unwrap();
            crate::recover::replay_op(&mut db, &mut store, &op(n)).unwrap();
        }
        d.checkpoint(&db, &store).unwrap();
        let stats = d.archive_stats().unwrap();
        assert_eq!(stats.segments, 2, "one sealed segment per truncating checkpoint");
        assert_eq!(stats.bases, 3, "set_archive base + one per checkpoint");
        assert_eq!(stats.oldest_restorable_lsn, 0);
        assert_eq!(stats.newest_lsn, 5);
        // The sealed segments replay to exactly the live history.
        let segs = crate::archive::list_segments(&arch).unwrap();
        let first = crate::segment::decode_segment(&std::fs::read(&segs[0].1).unwrap()).unwrap();
        assert_eq!(first.base_lsn, 1);
        assert_eq!(first.records.len(), 3);
        let second = crate::segment::decode_segment(&std::fs::read(&segs[1].1).unwrap()).unwrap();
        assert_eq!(second.base_lsn, 4);
        assert_eq!(second.records.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&arch);
    }

    #[test]
    fn a_failed_archive_write_aborts_the_checkpoint_and_keeps_the_wal() {
        let dir = temp_dir("archive-abort");
        let arch = temp_dir("archive-abort-dest");
        let mut db = Database::new();
        let mut store = AnnotationStore::new();
        let mut d = Durability::begin(&dir, &db, &store, DurabilityOptions::default()).unwrap();
        d.set_archive(&arch, 1).unwrap();
        for n in 0..2u64 {
            d.append(&op(n)).unwrap();
            crate::recover::replay_op(&mut db, &mut store, &op(n)).unwrap();
        }
        let wal_before = d.wal_bytes();
        nebula_govern::set_fault_plan(Some(
            nebula_govern::FaultPlan::new(17).with(FaultSite::ArchiveWrite, 1.0),
        ));
        let err = d.checkpoint(&db, &store).unwrap_err();
        nebula_govern::set_fault_plan(None);
        assert!(matches!(err, DurableError::Archive(_)), "{err}");
        assert_eq!(d.wal_bytes(), wal_before, "the WAL kept what the archive failed to take");
        assert_eq!(d.watermark(), 0);
        // Recovery still sees everything, and a clean retry succeeds.
        let r = recover(&dir).unwrap();
        assert_eq!(r.store.annotation_count(), 2);
        d.checkpoint(&db, &store).unwrap();
        assert_eq!(d.archive_stats().unwrap().newest_lsn, 2);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&arch);
    }

    #[test]
    fn enospc_wedges_the_append_path_until_checkpoint() {
        let dir = temp_dir("enospc-wedge");
        let db = Database::new();
        let store = AnnotationStore::new();
        let mut d = Durability::begin(&dir, &db, &store, DurabilityOptions::default()).unwrap();
        nebula_govern::set_fault_plan(Some(
            nebula_govern::FaultPlan::new(8).with(FaultSite::Enospc, 1.0),
        ));
        let err = d.append(&op(0)).unwrap_err();
        nebula_govern::set_fault_plan(None);
        assert!(matches!(err, DurableError::NoSpace(_)), "{err}");
        assert!(d.is_wedged());
        assert!(!MutationSink::healthy(&d), "the sink reports unhealthy so ingest sheds");
        assert!(matches!(d.append(&op(0)), Err(DurableError::Wedged(_))));
        assert_eq!(d.wal_bytes(), 0, "enospc persisted nothing");
        // Space freed: a checkpoint unwedges and appends flow again.
        d.checkpoint(&db, &store).unwrap();
        d.append(&op(0)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_failure_wedges_but_recovery_may_replay_the_record() {
        let dir = temp_dir("fsync");
        let db = Database::new();
        let store = AnnotationStore::new();
        let mut d = Durability::begin(&dir, &db, &store, DurabilityOptions::default()).unwrap();
        nebula_govern::set_fault_plan(Some(
            nebula_govern::FaultPlan::new(5).with(FaultSite::FsyncFail, 1.0),
        ));
        let err = d.append(&op(0)).unwrap_err();
        nebula_govern::set_fault_plan(None);
        assert!(matches!(err, DurableError::SyncFailed(_)), "{err}");
        assert!(d.is_wedged());
        // The record bytes reached the file; standard WAL semantics allow
        // a logged-but-unapplied record to replay on recovery.
        let r = recover(&dir).unwrap();
        assert!(r.store.annotation_count() <= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
