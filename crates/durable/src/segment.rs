//! Epoch-stamped replication frames: WAL segments and checkpoint
//! transfers.
//!
//! WAL shipping moves two payload kinds from a primary to its replicas:
//!
//! - a **segment** — a contiguous run of already-encoded WAL record
//!   frames, so the bytes a replica replays are byte-identical to the
//!   bytes the primary's log holds; and
//! - a **checkpoint transfer** — a full checkpoint image (the `NEBCKPT1`
//!   framing from [`crate::checkpoint`]) for replicas that have fallen
//!   behind the primary's truncated log.
//!
//! Both are wrapped in a magic + CRC32C envelope that additionally stamps
//! the primary's **epoch**. The epoch is the fencing token of failover:
//! promotion bumps it, every frame carries it, and a receiver holding a
//! higher epoch rejects the frame — which is how a deposed primary's
//! writes die on the wire instead of forking history.

use crate::wal::{read_wal, WalRecord};
use crate::DurableError;
use nebula_codec::{envelope, Reader, Writer};

/// Magic prefix of a shipped WAL segment.
pub const SEGMENT_MAGIC: &[u8; 8] = b"NEBSEG01";
/// Magic prefix of a shipped checkpoint transfer.
pub const CKPT_FRAME_MAGIC: &[u8; 8] = b"NEBSCP01";

/// A decoded, validated WAL segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// The shipping primary's epoch.
    pub epoch: u64,
    /// LSN of the first record (0 when the segment is empty).
    pub base_lsn: u64,
    /// The records, decoded through the same [`read_wal`] path recovery
    /// uses.
    pub records: Vec<WalRecord>,
}

/// A decoded, validated checkpoint transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFrame {
    /// The shipping primary's epoch.
    pub epoch: u64,
    /// The raw `NEBCKPT1` image; decode with [`crate::checkpoint::decode`].
    pub image: Vec<u8>,
}

/// Frame a run of already-encoded WAL record bytes as one epoch-stamped
/// segment. `records` is the concatenation of [`crate::wal::encode_record`]
/// outputs, `count` of them, the first at `base_lsn`.
pub fn encode_segment(epoch: u64, base_lsn: u64, count: u32, records: &[u8]) -> Vec<u8> {
    let mut body = Writer(Vec::with_capacity(20 + records.len()));
    body.u64(epoch);
    body.u64(base_lsn);
    body.u32(count);
    body.bytes(records);
    envelope::seal(SEGMENT_MAGIC, &body.0)
}

/// Decode and fully validate a shipped segment: magic, whole-frame
/// checksum, per-record checksums (via [`read_wal`]), record count, and
/// LSN contiguity from `base_lsn`.
pub fn decode_segment(bytes: &[u8]) -> Result<Segment, DurableError> {
    let mut body = Reader::new(open(SEGMENT_MAGIC, bytes, "segment")?);
    let epoch = body.u64("segment epoch")?;
    let base_lsn = body.u64("segment base lsn")?;
    let count = body.u32("segment record count")?;
    let (records, tail) = read_wal(body.rest());
    if !tail.is_clean() {
        return Err(DurableError::Corrupt(format!(
            "segment drops {} record(s): {}",
            tail.dropped_records,
            tail.reason.as_deref().unwrap_or("unknown reason")
        )));
    }
    if records.len() != count as usize {
        return Err(DurableError::Corrupt(format!(
            "segment claims {count} record(s) but holds {}",
            records.len()
        )));
    }
    for (i, rec) in records.iter().enumerate() {
        if rec.lsn != base_lsn + i as u64 {
            return Err(DurableError::Corrupt(format!(
                "segment record {i} has lsn {} but the run starts at {base_lsn}",
                rec.lsn
            )));
        }
    }
    Ok(Segment { epoch, base_lsn, records })
}

/// Frame a checkpoint image as one epoch-stamped transfer.
pub fn encode_checkpoint_frame(epoch: u64, image: &[u8]) -> Vec<u8> {
    let mut body = Writer(Vec::with_capacity(8 + image.len()));
    body.u64(epoch);
    body.bytes(image);
    envelope::seal(CKPT_FRAME_MAGIC, &body.0)
}

/// Decode and validate a checkpoint transfer envelope. The inner image is
/// returned as-is; [`crate::checkpoint::decode`] validates it separately.
pub fn decode_checkpoint_frame(bytes: &[u8]) -> Result<CheckpointFrame, DurableError> {
    let mut body = Reader::new(open(CKPT_FRAME_MAGIC, bytes, "checkpoint transfer")?);
    let epoch = body.u64("checkpoint transfer epoch")?;
    Ok(CheckpointFrame { epoch, image: body.rest().to_vec() })
}

fn open<'a>(magic: &[u8; 8], bytes: &'a [u8], what: &str) -> Result<&'a [u8], DurableError> {
    envelope::open(magic, bytes).map_err(|e| DurableError::Corrupt(format!("{what} frame: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{encode_record, WalOp};
    use annostore::AnnotationId;

    fn op(n: u64) -> WalOp {
        WalOp::AddAnnotation {
            expected: AnnotationId(n),
            text: format!("note {n}"),
            author: None,
            kind: None,
        }
    }

    fn run(base: u64, n: u64) -> (u32, Vec<u8>) {
        let mut bytes = Vec::new();
        for i in 0..n {
            bytes.extend_from_slice(&encode_record(base + i, &op(i)));
        }
        (n as u32, bytes)
    }

    #[test]
    fn segment_roundtrip_preserves_epoch_and_records() {
        let (count, bytes) = run(5, 3);
        let framed = encode_segment(7, 5, count, &bytes);
        let seg = decode_segment(&framed).unwrap();
        assert_eq!(seg.epoch, 7);
        assert_eq!(seg.base_lsn, 5);
        assert_eq!(seg.records.len(), 3);
        assert_eq!(seg.records[2].lsn, 7);
    }

    #[test]
    fn empty_segment_roundtrips() {
        let framed = encode_segment(2, 0, 0, &[]);
        let seg = decode_segment(&framed).unwrap();
        assert_eq!(seg.records.len(), 0);
    }

    #[test]
    fn corrupted_segment_is_rejected() {
        let (count, bytes) = run(1, 2);
        let mut framed = encode_segment(1, 1, count, &bytes);
        let last = framed.len() - 1;
        framed[last] ^= 0x40;
        assert!(matches!(decode_segment(&framed), Err(DurableError::Corrupt(_))));
    }

    #[test]
    fn wrong_count_and_gapped_lsns_are_rejected() {
        let (_, bytes) = run(1, 2);
        let framed = encode_segment(1, 1, 3, &bytes);
        assert!(matches!(decode_segment(&framed), Err(DurableError::Corrupt(_))));
        // A gap: records at lsn 1 then lsn 3.
        let mut gapped = encode_record(1, &op(0));
        gapped.extend_from_slice(&encode_record(3, &op(1)));
        let framed = encode_segment(1, 1, 2, &gapped);
        assert!(matches!(decode_segment(&framed), Err(DurableError::Corrupt(_))));
    }

    #[test]
    fn checkpoint_frame_roundtrips_and_rejects_flips() {
        let image = vec![1u8, 2, 3, 4, 5];
        let framed = encode_checkpoint_frame(9, &image);
        let f = decode_checkpoint_frame(&framed).unwrap();
        assert_eq!(f.epoch, 9);
        assert_eq!(f.image, image);
        let mut bad = framed.clone();
        bad[14] ^= 1;
        assert!(matches!(decode_checkpoint_frame(&bad), Err(DurableError::Corrupt(_))));
        assert!(matches!(decode_segment(&framed), Err(DurableError::Corrupt(_))), "wrong magic");
    }
}
