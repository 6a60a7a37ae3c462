//! Recovery: newest valid checkpoint + idempotent WAL replay with a
//! torn-tail report.
//!
//! ## Invariants
//!
//! - **Prefix consistency** — the recovered state equals replaying exactly
//!   the WAL's valid prefix on top of the checkpoint; nothing past the
//!   first invalid frame is applied, and nothing before it is lost.
//! - **Idempotent replay** — records with `lsn <= watermark` are already
//!   inside the checkpoint image and are skipped, so recovering twice (or
//!   recovering a log whose checkpoint raced ahead) changes nothing.
//! - **No partial application** — a record either replays fully or the
//!   recovery fails with [`DurableError::Replay`]; replay operations are
//!   themselves idempotent store operations (attach is a no-op on an
//!   existing edge, delete on a missing tuple is ignored).

use crate::checkpoint;
use crate::wal::{read_wal, TailReport, WalOp, WAL_FILE};
use crate::{counters, DurableError};
use annostore::AnnotationStore;
use relstore::Database;
use std::path::Path;

/// The outcome of a recovery.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered relational store.
    pub db: Database,
    /// The recovered annotation store.
    pub store: AnnotationStore,
    /// Watermark of the checkpoint the recovery started from.
    pub watermark: u64,
    /// Highest LSN seen (checkpoint watermark or last replayed record).
    pub last_lsn: u64,
    /// Records replayed on top of the checkpoint.
    pub replayed: usize,
    /// Records skipped because the checkpoint already covered them.
    pub skipped: usize,
    /// What the WAL tail looked like (dropped records, reason).
    pub tail: TailReport,
    /// Whether a checkpoint file was found (false = empty-state bootstrap).
    pub had_checkpoint: bool,
    /// When [`crate::Durability::resume`] repaired a torn tail, the LSN
    /// watermark the log was truncated back to (the highest LSN that
    /// survived). `None` when nothing was truncated. Replicas use this to
    /// decide whether WAL shipping can continue from their acked LSN or a
    /// checkpoint transfer is needed.
    pub wal_truncated_to: Option<u64>,
}

/// Apply one WAL operation to the state. Public so the crash-point
/// harness and the replication layer (`nebula-replica`) build their
/// reference and replica states through the same idempotent code path
/// recovery uses. What the operation does to the annotation store is
/// [`Mutation::apply`](nebula_core::Mutation::apply)'s business; this adds
/// only the relational half of a deletion and the guards that make a
/// double replay a no-op.
pub fn replay_op(
    db: &mut Database,
    store: &mut AnnotationStore,
    op: &WalOp,
) -> Result<(), DurableError> {
    match *op {
        // Already present (the record was replayed before).
        WalOp::AddAnnotation { expected, .. } if expected.0 < store.annotation_count() as u64 => {
            return Ok(());
        }
        // The predicted edge being gone already is fine.
        WalOp::RejectEdge { annotation, tuple } if store.edge(annotation, tuple).is_none() => {
            return Ok(());
        }
        WalOp::TupleDeleted { tuple } => {
            db.delete(tuple);
        }
        _ => {}
    }
    op.with_mutation(|m| m.apply(store)).map(drop).map_err(|e| DurableError::Replay(e.to_string()))
}

/// Recover from raw bytes: an optional checkpoint image plus the WAL.
///
/// This is the pure core of [`recover`]; the crash-point harness calls it
/// directly with in-memory prefixes so it never touches the filesystem.
pub fn recover_from_bytes(
    checkpoint_image: Option<&[u8]>,
    wal_bytes: &[u8],
) -> Result<Recovered, DurableError> {
    let _span = nebula_obs::span(counters::SPAN_RECOVER);
    let (watermark, mut db, mut store, had_checkpoint) = match checkpoint_image {
        Some(image) => {
            let (w, db, store) = checkpoint::decode(image)?;
            (w, db, store, true)
        }
        None => (0, Database::new(), AnnotationStore::new(), false),
    };
    let (records, tail) = read_wal(wal_bytes);
    let mut replayed = 0usize;
    let mut skipped = 0usize;
    let mut last_lsn = watermark;
    for rec in &records {
        if rec.lsn <= watermark {
            skipped += 1;
            continue;
        }
        replay_op(&mut db, &mut store, &rec.op).map_err(|e| match e {
            DurableError::Replay(msg) => DurableError::Replay(format!("lsn {}: {msg}", rec.lsn)),
            other => other,
        })?;
        replayed += 1;
        last_lsn = rec.lsn;
    }
    nebula_obs::counter_add(counters::RECOVERIES, 1);
    nebula_obs::counter_add(counters::RECORDS_REPLAYED, replayed as u64);
    nebula_obs::counter_add(counters::RECORDS_SKIPPED, skipped as u64);
    nebula_obs::counter_add(counters::RECORDS_DROPPED, tail.dropped_records as u64);
    Ok(Recovered {
        db,
        store,
        watermark,
        last_lsn,
        replayed,
        skipped,
        tail,
        had_checkpoint,
        wal_truncated_to: None,
    })
}

/// Recover durable state from a directory.
///
/// Tries checkpoints newest-first and falls back to older ones when an
/// image fails validation; replays the WAL's valid prefix on top.
pub fn recover(dir: &Path) -> Result<Recovered, DurableError> {
    let checkpoints = match checkpoint::list_checkpoints(dir) {
        Ok(list) => list,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let wal_path = dir.join(WAL_FILE);
    let wal_bytes = match std::fs::read(&wal_path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    if checkpoints.is_empty() && wal_bytes.is_empty() {
        return Err(DurableError::NotFound(dir.display().to_string()));
    }

    let mut last_error: Option<DurableError> = None;
    for (_, path) in checkpoints.iter().rev() {
        let image = std::fs::read(path)?;
        match recover_from_bytes(Some(&image), &wal_bytes) {
            Ok(recovered) => return Ok(recovered),
            Err(e @ DurableError::Corrupt(_)) => {
                last_error = Some(DurableError::Corrupt(format!(
                    "{}: {e}",
                    path.file_name().and_then(|n| n.to_str()).unwrap_or("checkpoint")
                )));
            }
            Err(e) => return Err(e),
        }
    }
    if let Some(e) = last_error {
        // Every checkpoint on disk failed validation; replaying the WAL
        // against empty state would silently lose the checkpointed data.
        return Err(e);
    }
    if checkpoints.is_empty() {
        // A WAL with no checkpoint: `begin` always writes one first, so
        // this is a damaged directory, not a fresh one.
        return Err(DurableError::Corrupt(format!(
            "{} has a WAL but no checkpoint",
            dir.display()
        )));
    }
    unreachable!("checkpoint loop either returns or records an error");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::encode_record;
    use annostore::AnnotationId;

    fn log_of(ops: &[(u64, WalOp)]) -> Vec<u8> {
        let mut log = Vec::new();
        for (lsn, op) in ops {
            log.extend_from_slice(&encode_record(*lsn, op));
        }
        log
    }

    fn ann(lsn: u64, id: u64, text: &str) -> (u64, WalOp) {
        (
            lsn,
            WalOp::AddAnnotation {
                expected: AnnotationId(id),
                text: text.to_string(),
                author: None,
                kind: None,
            },
        )
    }

    #[test]
    fn empty_bootstrap_replays_whole_log() {
        let log = log_of(&[ann(1, 0, "a"), ann(2, 1, "b")]);
        let r = recover_from_bytes(None, &log).unwrap();
        assert!(!r.had_checkpoint);
        assert_eq!(r.replayed, 2);
        assert_eq!(r.skipped, 0);
        assert_eq!(r.last_lsn, 2);
        assert_eq!(r.store.annotation_count(), 2);
        assert!(r.tail.is_clean());
    }

    #[test]
    fn watermark_skips_covered_records() {
        // Build checkpoint at watermark 1 holding annotation "a".
        let log = log_of(&[ann(1, 0, "a")]);
        let first = recover_from_bytes(None, &log).unwrap();
        let image = checkpoint::encode(1, &first.db, &first.store);
        // Full log has both records; replay must skip the covered one.
        let full = log_of(&[ann(1, 0, "a"), ann(2, 1, "b")]);
        let r = recover_from_bytes(Some(&image), &full).unwrap();
        assert_eq!(r.skipped, 1);
        assert_eq!(r.replayed, 1);
        assert_eq!(r.store.annotation_count(), 2);
    }

    #[test]
    fn annotation_id_gap_is_a_replay_error() {
        let log = log_of(&[ann(1, 3, "late")]);
        let err = recover_from_bytes(None, &log).unwrap_err();
        assert!(matches!(err, DurableError::Replay(_)), "{err}");
    }

    #[test]
    fn torn_tail_is_reported_not_fatal() {
        let mut log = log_of(&[ann(1, 0, "a"), ann(2, 1, "b")]);
        log.truncate(log.len() - 3);
        let r = recover_from_bytes(None, &log).unwrap();
        assert_eq!(r.replayed, 1);
        assert_eq!(r.tail.dropped_records, 1);
        assert!(r.tail.reason.is_some());
    }

    #[test]
    fn missing_directory_state_is_not_found() {
        let dir = std::env::temp_dir().join("nebula-durable-missing-xyzzy");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let err = recover(&dir).unwrap_err();
        assert!(matches!(err, DurableError::NotFound(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
