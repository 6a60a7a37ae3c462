//! The crash-point harness: simulated kill-and-recover at every WAL
//! record boundary.
//!
//! Given a durability directory, the harness reads the committed
//! checkpoint and the log, then for **every** record boundary `i` it
//! recovers from `checkpoint + wal[..boundary_i]` — exactly the bytes a
//! crash at that instant would leave behind — and asserts the recovered
//! state equals an incrementally maintained reference replay (**prefix
//! consistency**). It additionally tears the log mid-record after each
//! boundary and asserts recovery still lands on the same prefix state
//! while reporting **exactly one** dropped record.
//!
//! States are compared by CRC32C digests of the canonical snapshot
//! encodings, so the comparison covers the relational and annotation
//! stores byte-for-byte.

use crate::checkpoint;
use crate::recover::{recover_from_bytes, replay_op};
use crate::wal::{read_wal, WAL_FILE};
use crate::DurableError;
use annostore::AnnotationStore;
use nebula_codec::crc32c;
use relstore::Database;
use std::path::Path;

/// What [`crash_points`] verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPointReport {
    /// Record boundaries exercised (records + 1, counting the empty
    /// prefix).
    pub boundaries: usize,
    /// Records in the log (each also torn mid-record once).
    pub records: usize,
    /// Mid-record torn cuts exercised.
    pub torn_cuts: usize,
}

/// CRC32C digests of the two snapshot encodings — a compact equality
/// witness for a full engine state.
pub fn state_digest(db: &Database, store: &AnnotationStore) -> (u32, u32) {
    (crc32c(&relstore::snapshot::save(db)), crc32c(&annostore::snapshot::save(store)))
}

/// Kill-and-recover at every record boundary of the log in `dir`.
///
/// Requires a clean log (no pre-existing torn tail) so every boundary is
/// well defined; run this on a directory produced by a completed batch.
pub fn crash_points(dir: &Path) -> Result<CrashPointReport, DurableError> {
    let checkpoints = checkpoint::list_checkpoints(dir)?;
    let (_, ckpt_path) = checkpoints
        .last()
        .ok_or_else(|| DurableError::NotFound(format!("{} has no checkpoint", dir.display())))?;
    let image = std::fs::read(ckpt_path)?;
    let (watermark, mut ref_db, mut ref_store) = checkpoint::decode(&image)?;
    let wal_bytes = match std::fs::read(dir.join(WAL_FILE)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let (records, tail) = read_wal(&wal_bytes);
    if !tail.is_clean() {
        return Err(DurableError::Corrupt(format!(
            "crash-point harness needs a clean log; tail drops {} record(s) ({})",
            tail.dropped_records,
            tail.reason.as_deref().unwrap_or("unknown reason")
        )));
    }

    let mut boundaries = 0usize;
    let mut torn_cuts = 0usize;
    let mut prev_end = 0usize;
    // Boundary 0: the empty prefix must recover to the checkpoint itself.
    check_boundary(&image, &wal_bytes[..0], state_digest(&ref_db, &ref_store), 0)?;
    boundaries += 1;

    for rec in &records {
        // Advance the reference replay by this one record.
        if rec.lsn > watermark {
            replay_op(&mut ref_db, &mut ref_store, &rec.op).map_err(|e| {
                DurableError::Replay(format!("reference replay at lsn {}: {e}", rec.lsn))
            })?;
        }
        let expected = state_digest(&ref_db, &ref_store);

        // Crash exactly at the record boundary: clean recovery, no drops.
        check_boundary(&image, &wal_bytes[..rec.end_offset], expected, 0)?;
        boundaries += 1;

        // Crash mid-way through the *next* frame (or mid-way through this
        // one, seen from the previous boundary): the torn record — and
        // only it — is dropped, and the state is the previous boundary's.
        let cut = prev_end + (rec.end_offset - prev_end) / 2;
        if cut > prev_end {
            let before = recover_from_bytes(Some(&image), &wal_bytes[..prev_end])?;
            let r = recover_from_bytes(Some(&image), &wal_bytes[..cut])?;
            if r.tail.dropped_records != 1 {
                return Err(DurableError::Corrupt(format!(
                    "torn cut at byte {cut}: expected exactly 1 dropped record, got {} ({:?})",
                    r.tail.dropped_records, r.tail.reason
                )));
            }
            let got = state_digest(&r.db, &r.store);
            let want = state_digest(&before.db, &before.store);
            if got != want {
                return Err(DurableError::Corrupt(format!(
                    "torn cut at byte {cut}: recovered state diverged from the prefix state"
                )));
            }
            torn_cuts += 1;
        }
        prev_end = rec.end_offset;
    }

    Ok(CrashPointReport { boundaries, records: records.len(), torn_cuts })
}

fn check_boundary(
    image: &[u8],
    wal_prefix: &[u8],
    expected: (u32, u32),
    expected_drops: usize,
) -> Result<(), DurableError> {
    let r = recover_from_bytes(Some(image), wal_prefix)?;
    if r.tail.dropped_records != expected_drops {
        return Err(DurableError::Corrupt(format!(
            "boundary at byte {}: expected {expected_drops} dropped record(s), got {}",
            wal_prefix.len(),
            r.tail.dropped_records
        )));
    }
    let got = state_digest(&r.db, &r.store);
    if got != expected {
        return Err(DurableError::Corrupt(format!(
            "boundary at byte {}: recovered digest {got:?} != reference {expected:?}",
            wal_prefix.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{Durability, DurabilityOptions};
    use crate::wal::WalOp;
    use annostore::{Annotation, AnnotationId, AttachmentTarget};
    use relstore::{DataType, TableSchema, Value};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("nebula-durable-harness-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn every_boundary_of_a_mixed_log_recovers_consistently() {
        let dir = temp_dir("mixed");
        let mut db = Database::new();
        let schema = TableSchema::builder("gene").column("name", DataType::Text).build().unwrap();
        db.create_table(schema).unwrap();
        let mut tuples = Vec::new();
        for n in 0..4 {
            tuples.push(db.insert("gene", vec![Value::text(format!("g{n}"))]).unwrap());
        }
        let mut store = AnnotationStore::new();
        let mut d = Durability::begin(&dir, &db, &store, DurabilityOptions::default()).unwrap();

        // A mixed run through every op kind, logged then applied.
        let ops = vec![
            WalOp::AddAnnotation {
                expected: AnnotationId(0),
                text: "observed in strain K-12".into(),
                author: Some("curator".into()),
                kind: Some("comment".into()),
            },
            WalOp::AttachTuple { annotation: AnnotationId(0), tuple: tuples[0] },
            WalOp::AttachPredicted {
                annotation: AnnotationId(0),
                tuple: tuples[1],
                confidence: 0.8,
            },
            WalOp::AcceptEdge { annotation: AnnotationId(0), tuple: tuples[1] },
            WalOp::AttachPredicted {
                annotation: AnnotationId(0),
                tuple: tuples[2],
                confidence: 0.4,
            },
            WalOp::RejectEdge { annotation: AnnotationId(0), tuple: tuples[2] },
            WalOp::TupleDeleted { tuple: tuples[3] },
        ];
        for op in &ops {
            d.append(op).unwrap();
            replay_op(&mut db, &mut store, op).unwrap();
        }
        drop(d);

        let report = crash_points(&dir).unwrap();
        assert_eq!(report.records, ops.len());
        assert_eq!(report.boundaries, ops.len() + 1);
        assert_eq!(report.torn_cuts, ops.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_dirty_log_is_refused() {
        let dir = temp_dir("dirty");
        let db = Database::new();
        let store = AnnotationStore::new();
        let mut d = Durability::begin(&dir, &db, &store, DurabilityOptions::default()).unwrap();
        d.append(&WalOp::AddAnnotation {
            expected: AnnotationId(0),
            text: "x".into(),
            author: None,
            kind: None,
        })
        .unwrap();
        drop(d);
        // Tear the tail by hand.
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0xFF);
        std::fs::write(&path, &bytes).unwrap();
        let err = crash_points(&dir).unwrap_err();
        assert!(matches!(err, DurableError::Corrupt(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_distinguishes_states() {
        let db = Database::new();
        let mut store = AnnotationStore::new();
        let base = state_digest(&db, &store);
        let aid = store.add_annotation(Annotation::new("note"));
        assert_ne!(state_digest(&db, &store), base);
        let mut db2 = Database::new();
        let schema = TableSchema::builder("t").column("c", DataType::Int).build().unwrap();
        db2.create_table(schema).unwrap();
        let tid = db2.insert("t", vec![Value::Int(1)]).unwrap();
        store.attach(aid, AttachmentTarget::tuple(tid)).unwrap();
        assert_ne!(state_digest(&db2, &store), state_digest(&db, &store));
    }
}
