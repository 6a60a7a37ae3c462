//! The write-ahead log record codec and the torn-tail-tolerant reader.
//!
//! ## Record layout
//!
//! Every record is framed as:
//!
//! ```text
//! u32 payload_len   (little-endian; length of payload only)
//! u32 crc32c        (over the payload bytes)
//! payload:
//!   u64 lsn         (monotonically increasing log sequence number)
//!   u8  op_tag
//!   ... op fields (see the tag constants)
//! ```
//!
//! Strings are `u32 len + UTF-8 bytes`; optional strings carry a one-byte
//! presence flag; tuple ids are `u32 table + u64 row`.
//!
//! ## Tail tolerance
//!
//! [`read_wal`] parses records until the first frame that is incomplete,
//! fails its checksum, decodes to garbage, or breaks LSN monotonicity.
//! Everything before that point is the **valid prefix**; everything after
//! is counted — by walking the surviving length prefixes — so the
//! [`TailReport`] can state exactly how many records were dropped. The
//! count is exact for truncations and payload corruption; if a length
//! field itself was corrupted the walk (and therefore the count) is
//! best-effort beyond that frame.

use crate::DurableError;
use annostore::{Annotation, AnnotationId};
use nebula_codec::{crc32c, Reader, Writer};
use nebula_core::Mutation;
use relstore::schema::ColumnId;
use relstore::TupleId;

/// The WAL file name inside a durability directory.
pub const WAL_FILE: &str = "wal.log";

/// Frame header bytes (`payload_len` + `crc32c`).
pub const HEADER_BYTES: usize = 8;

/// Smallest possible payload: the LSN and the op tag.
const MIN_PAYLOAD: usize = 9;

/// Sanity cap on one record; anything larger is treated as corruption.
const MAX_PAYLOAD: usize = 1 << 24;

const TAG_ADD_ANNOTATION: u8 = 1;
const TAG_ATTACH_TUPLE: u8 = 2;
const TAG_ATTACH_CELL: u8 = 3;
const TAG_ATTACH_PREDICTED: u8 = 4;
const TAG_ACCEPT_EDGE: u8 = 5;
const TAG_REJECT_EDGE: u8 = 6;
const TAG_TUPLE_DELETED: u8 = 7;

/// One logged mutation, in owned form.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A new annotation; `expected` is the id the store must assign.
    AddAnnotation {
        /// The id the store must assign on replay.
        expected: AnnotationId,
        /// Annotation text.
        text: String,
        /// Optional author.
        author: Option<String>,
        /// Optional kind.
        kind: Option<String>,
    },
    /// A true whole-tuple attachment.
    AttachTuple {
        /// Attaching annotation.
        annotation: AnnotationId,
        /// Target tuple.
        tuple: TupleId,
    },
    /// A curated attachment refined to one cell.
    AttachCell {
        /// Attaching annotation.
        annotation: AnnotationId,
        /// Target tuple.
        tuple: TupleId,
        /// Target column.
        column: ColumnId,
    },
    /// A predicted attachment.
    AttachPredicted {
        /// Attaching annotation.
        annotation: AnnotationId,
        /// Predicted target tuple.
        tuple: TupleId,
        /// Prediction confidence.
        confidence: f64,
    },
    /// A predicted edge promoted to true.
    AcceptEdge {
        /// Attaching annotation.
        annotation: AnnotationId,
        /// Accepted tuple.
        tuple: TupleId,
    },
    /// A predicted edge discarded.
    RejectEdge {
        /// Attaching annotation.
        annotation: AnnotationId,
        /// Rejected tuple.
        tuple: TupleId,
    },
    /// A tuple deleted from the relational store.
    TupleDeleted {
        /// Deleted tuple.
        tuple: TupleId,
    },
}

impl WalOp {
    /// Owned WAL form of an engine [`Mutation`].
    pub fn from_mutation(m: &Mutation<'_>) -> WalOp {
        match *m {
            Mutation::AddAnnotation { expected, annotation } => WalOp::AddAnnotation {
                expected,
                text: annotation.text.clone(),
                author: annotation.author.clone(),
                kind: annotation.kind.clone(),
            },
            Mutation::AttachTuple { annotation, tuple } => WalOp::AttachTuple { annotation, tuple },
            Mutation::AttachCell { annotation, tuple, column } => {
                WalOp::AttachCell { annotation, tuple, column }
            }
            Mutation::AttachPredicted { annotation, tuple, confidence } => {
                WalOp::AttachPredicted { annotation, tuple, confidence }
            }
            Mutation::AcceptEdge { annotation, tuple } => WalOp::AcceptEdge { annotation, tuple },
            Mutation::RejectEdge { annotation, tuple } => WalOp::RejectEdge { annotation, tuple },
            Mutation::TupleDeleted { tuple } => WalOp::TupleDeleted { tuple },
        }
    }

    /// Hand `f` the borrowed engine view of this record — the inverse of
    /// [`WalOp::from_mutation`], and how every replayer reaches
    /// [`Mutation::apply`] and `Nebula::apply`. A closure because
    /// `Mutation::AddAnnotation` borrows a whole [`Annotation`], which the
    /// record holds as fields.
    pub fn with_mutation<R>(&self, f: impl FnOnce(&Mutation<'_>) -> R) -> R {
        match *self {
            WalOp::AddAnnotation { expected, ref text, ref author, ref kind } => {
                let annotation =
                    Annotation { text: text.clone(), author: author.clone(), kind: kind.clone() };
                f(&Mutation::AddAnnotation { expected, annotation: &annotation })
            }
            WalOp::AttachTuple { annotation, tuple } => {
                f(&Mutation::AttachTuple { annotation, tuple })
            }
            WalOp::AttachCell { annotation, tuple, column } => {
                f(&Mutation::AttachCell { annotation, tuple, column })
            }
            WalOp::AttachPredicted { annotation, tuple, confidence } => {
                f(&Mutation::AttachPredicted { annotation, tuple, confidence })
            }
            WalOp::AcceptEdge { annotation, tuple } => {
                f(&Mutation::AcceptEdge { annotation, tuple })
            }
            WalOp::RejectEdge { annotation, tuple } => {
                f(&Mutation::RejectEdge { annotation, tuple })
            }
            WalOp::TupleDeleted { tuple } => f(&Mutation::TupleDeleted { tuple }),
        }
    }

    fn tag(&self) -> u8 {
        match self {
            WalOp::AddAnnotation { .. } => TAG_ADD_ANNOTATION,
            WalOp::AttachTuple { .. } => TAG_ATTACH_TUPLE,
            WalOp::AttachCell { .. } => TAG_ATTACH_CELL,
            WalOp::AttachPredicted { .. } => TAG_ATTACH_PREDICTED,
            WalOp::AcceptEdge { .. } => TAG_ACCEPT_EDGE,
            WalOp::RejectEdge { .. } => TAG_REJECT_EDGE,
            WalOp::TupleDeleted { .. } => TAG_TUPLE_DELETED,
        }
    }
}

fn put_tuple(w: &mut Writer, t: TupleId) {
    w.tuple_id(t.table.0, t.row);
}

/// Encode one record (header + payload) ready to append.
pub fn encode_record(lsn: u64, op: &WalOp) -> Vec<u8> {
    let mut w = Writer::default();
    w.u64(lsn);
    w.u8(op.tag());
    match op {
        WalOp::AddAnnotation { expected, text, author, kind } => {
            w.u64(expected.0);
            w.string(text);
            w.opt_string(author.as_deref());
            w.opt_string(kind.as_deref());
        }
        WalOp::AttachTuple { annotation, tuple }
        | WalOp::AcceptEdge { annotation, tuple }
        | WalOp::RejectEdge { annotation, tuple } => {
            w.u64(annotation.0);
            put_tuple(&mut w, *tuple);
        }
        WalOp::AttachCell { annotation, tuple, column } => {
            w.u64(annotation.0);
            put_tuple(&mut w, *tuple);
            w.u32(column.0);
        }
        WalOp::AttachPredicted { annotation, tuple, confidence } => {
            w.u64(annotation.0);
            put_tuple(&mut w, *tuple);
            w.f64(*confidence);
        }
        WalOp::TupleDeleted { tuple } => put_tuple(&mut w, *tuple),
    }
    let payload = w.0;
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32c(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Decode one payload (after its checksum was verified).
fn decode_payload(payload: &[u8]) -> Result<(u64, WalOp), DurableError> {
    let mut r = Reader::new(payload);
    let lsn = r.u64("lsn")?;
    let tag = r.u8("op tag")?;
    let annotation = |r: &mut Reader<'_>| r.u64("annotation id").map(AnnotationId);
    let tuple = |r: &mut Reader<'_>| r.tuple_id("tuple id").map(TupleId::from);
    let op = match tag {
        TAG_ADD_ANNOTATION => WalOp::AddAnnotation {
            expected: annotation(&mut r)?,
            text: r.string("text")?,
            author: r.opt_string("author")?,
            kind: r.opt_string("kind")?,
        },
        TAG_ATTACH_TUPLE => {
            WalOp::AttachTuple { annotation: annotation(&mut r)?, tuple: tuple(&mut r)? }
        }
        TAG_ATTACH_CELL => WalOp::AttachCell {
            annotation: annotation(&mut r)?,
            tuple: tuple(&mut r)?,
            column: ColumnId(r.u32("column id")?),
        },
        TAG_ATTACH_PREDICTED => WalOp::AttachPredicted {
            annotation: annotation(&mut r)?,
            tuple: tuple(&mut r)?,
            confidence: r.f64("confidence")?,
        },
        TAG_ACCEPT_EDGE => {
            WalOp::AcceptEdge { annotation: annotation(&mut r)?, tuple: tuple(&mut r)? }
        }
        TAG_REJECT_EDGE => {
            WalOp::RejectEdge { annotation: annotation(&mut r)?, tuple: tuple(&mut r)? }
        }
        TAG_TUPLE_DELETED => WalOp::TupleDeleted { tuple: tuple(&mut r)? },
        other => return Err(DurableError::Corrupt(format!("unknown op tag {other}"))),
    };
    r.finish()?;
    Ok((lsn, op))
}

/// One decoded record plus where its frame ends in the byte stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Log sequence number.
    pub lsn: u64,
    /// The logged mutation.
    pub op: WalOp,
    /// Byte offset one past this record's frame (a valid crash point).
    pub end_offset: usize,
}

/// What [`read_wal`] found past the valid prefix.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TailReport {
    /// Records in the valid prefix.
    pub valid_records: usize,
    /// Bytes in the valid prefix.
    pub valid_bytes: usize,
    /// Records dropped after the first invalid frame (exact for
    /// truncation and payload corruption; a partial trailing frame counts
    /// as one).
    pub dropped_records: usize,
    /// Bytes dropped.
    pub dropped_bytes: usize,
    /// Why parsing stopped, when it did not consume the whole buffer.
    pub reason: Option<String>,
}

impl TailReport {
    /// Did the whole buffer parse as valid records?
    pub fn is_clean(&self) -> bool {
        self.dropped_records == 0 && self.dropped_bytes == 0
    }
}

/// Parse a WAL byte stream into its valid prefix plus a tail report.
pub fn read_wal(bytes: &[u8]) -> (Vec<WalRecord>, TailReport) {
    let mut records: Vec<WalRecord> = Vec::new();
    let mut offset = 0usize;
    let mut last_lsn: Option<u64> = None;
    let mut reason: Option<String> = None;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < HEADER_BYTES {
            reason = Some(format!("truncated frame header at byte {offset}"));
            break;
        }
        let len = u32::from_le_bytes([
            bytes[offset],
            bytes[offset + 1],
            bytes[offset + 2],
            bytes[offset + 3],
        ]) as usize;
        if !(MIN_PAYLOAD..=MAX_PAYLOAD).contains(&len) {
            reason = Some(format!("implausible payload length {len} at byte {offset}"));
            break;
        }
        if len > remaining - HEADER_BYTES {
            reason = Some(format!("truncated record body at byte {offset}"));
            break;
        }
        let stored_crc = u32::from_le_bytes([
            bytes[offset + 4],
            bytes[offset + 5],
            bytes[offset + 6],
            bytes[offset + 7],
        ]);
        let payload = &bytes[offset + HEADER_BYTES..offset + HEADER_BYTES + len];
        if crc32c(payload) != stored_crc {
            reason = Some(format!("checksum mismatch at byte {offset}"));
            break;
        }
        match decode_payload(payload) {
            Err(e) => {
                reason = Some(format!("undecodable record at byte {offset}: {e}"));
                break;
            }
            Ok((lsn, op)) => {
                if last_lsn.is_some_and(|prev| lsn <= prev) {
                    reason = Some(format!("non-monotonic lsn {lsn} at byte {offset}"));
                    break;
                }
                last_lsn = Some(lsn);
                offset += HEADER_BYTES + len;
                records.push(WalRecord { lsn, op, end_offset: offset });
            }
        }
    }

    // Count what the invalid tail held by walking the surviving length
    // prefixes; a final partial frame counts as one record.
    let valid_bytes = offset;
    let mut dropped_records = 0usize;
    let mut walk = offset;
    while walk < bytes.len() {
        let remaining = bytes.len() - walk;
        dropped_records += 1;
        if remaining < HEADER_BYTES {
            break;
        }
        let len =
            u32::from_le_bytes([bytes[walk], bytes[walk + 1], bytes[walk + 2], bytes[walk + 3]])
                as usize;
        if !(MIN_PAYLOAD..=MAX_PAYLOAD).contains(&len) || len > remaining - HEADER_BYTES {
            break;
        }
        walk += HEADER_BYTES + len;
    }
    let report = TailReport {
        valid_records: records.len(),
        valid_bytes,
        dropped_records,
        dropped_bytes: bytes.len() - valid_bytes,
        reason,
    };
    (records, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::schema::TableId;

    fn t(row: u64) -> TupleId {
        TupleId::new(TableId(0), row)
    }

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::AddAnnotation {
                expected: AnnotationId(0),
                text: "from the exp, gene JW0001".into(),
                author: Some("alice".into()),
                kind: None,
            },
            WalOp::AttachTuple { annotation: AnnotationId(0), tuple: t(3) },
            WalOp::AttachCell { annotation: AnnotationId(0), tuple: t(3), column: ColumnId(1) },
            WalOp::AttachPredicted { annotation: AnnotationId(0), tuple: t(4), confidence: 0.75 },
            WalOp::AcceptEdge { annotation: AnnotationId(0), tuple: t(4) },
            WalOp::RejectEdge { annotation: AnnotationId(0), tuple: t(5) },
            WalOp::TupleDeleted { tuple: t(5) },
        ]
    }

    fn sample_log() -> Vec<u8> {
        let mut log = Vec::new();
        for (i, op) in sample_ops().iter().enumerate() {
            log.extend_from_slice(&encode_record(i as u64 + 1, op));
        }
        log
    }

    #[test]
    fn roundtrip_all_ops() {
        let log = sample_log();
        let (records, tail) = read_wal(&log);
        assert!(tail.is_clean(), "{tail:?}");
        assert_eq!(records.len(), sample_ops().len());
        for (rec, op) in records.iter().zip(sample_ops()) {
            assert_eq!(rec.op, op);
        }
        assert_eq!(records.last().map(|r| r.end_offset), Some(log.len()));
    }

    #[test]
    fn every_truncation_reports_exactly_one_dropped_record() {
        let one = encode_record(1, &sample_ops()[0]);
        for cut in 0..one.len() {
            let (records, tail) = read_wal(&one[..cut]);
            if cut == 0 {
                assert!(tail.is_clean());
                continue;
            }
            assert!(records.is_empty());
            assert_eq!(tail.dropped_records, 1, "cut at {cut}");
            assert_eq!(tail.dropped_bytes, cut);
            assert!(tail.reason.is_some());
        }
    }

    #[test]
    fn corrupt_mid_log_record_preserves_prefix_and_counts_drops_exactly() {
        let log = sample_log();
        let (full, _) = read_wal(&log);
        // Flip a bit in record 4's stored checksum: 3 valid, 4 dropped
        // (the corrupt one plus the three intact frames behind it, counted
        // exactly because every length prefix survives).
        let mut bad = log.clone();
        bad[full[2].end_offset + 4] ^= 0x01;
        let (records, tail) = read_wal(&bad);
        assert_eq!(records.len(), 3);
        assert_eq!(tail.valid_bytes, full[2].end_offset);
        assert_eq!(tail.dropped_records, 4);
        assert_eq!(tail.dropped_bytes, log.len() - full[2].end_offset);
    }

    #[test]
    fn payload_bit_flip_drops_exactly_the_corrupt_record() {
        let log = sample_log();
        let (full, _) = read_wal(&log);
        // Flip one payload bit in record 2 (offset inside its payload).
        let start = full[0].end_offset;
        let mut bad = log.clone();
        bad[start + HEADER_BYTES + 9] ^= 0x10;
        let (records, tail) = read_wal(&bad);
        assert_eq!(records.len(), 1);
        assert_eq!(tail.dropped_records, full.len() - 1, "corrupt + everything behind it");
        assert!(tail.reason.as_deref().unwrap_or("").contains("checksum"));
    }

    #[test]
    fn lsn_regression_stops_parsing() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_record(5, &sample_ops()[1]));
        log.extend_from_slice(&encode_record(5, &sample_ops()[2]));
        let (records, tail) = read_wal(&log);
        assert_eq!(records.len(), 1);
        assert_eq!(tail.dropped_records, 1);
        assert!(tail.reason.as_deref().unwrap_or("").contains("non-monotonic"));
    }
}
