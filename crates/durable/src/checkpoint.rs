//! Checkpoint image framing: the existing `NEBREL1`/`NEBANN1` snapshot
//! codecs wrapped in a magic, a whole-image checksum, and the LSN
//! watermark the image covers.
//!
//! ```text
//! [0..8)   magic  b"NEBCKPT1"
//! [8..12)  u32    crc32c(body)
//! [12..)   body:
//!            u64 watermark       (highest LSN the image includes)
//!            u32 rel_len
//!            rel_len bytes       (NEBREL1 relational snapshot)
//!            u32 ann_len
//!            ann_len bytes       (NEBANN1 annotation snapshot)
//! ```
//!
//! The checksum covers the body only, so a bit flip anywhere in either
//! embedded snapshot (or the watermark) is caught before the snapshots
//! are even parsed.

use crate::DurableError;
use annostore::AnnotationStore;
use nebula_codec::{envelope, Reader};
use relstore::Database;
use std::path::{Path, PathBuf};

/// Leading magic of every checkpoint file.
pub const MAGIC: &[u8; 8] = b"NEBCKPT1";

/// Encode a checkpoint image covering everything up to `watermark`.
pub fn encode(watermark: u64, db: &Database, store: &AnnotationStore) -> Vec<u8> {
    let mut image = Vec::new();
    encode_into(&mut image, watermark, db, store);
    image
}

/// [`encode`] over `image`, sealed in place: once `image` has held one
/// image, encoding the next allocates nothing that large.
pub fn encode_into(image: &mut Vec<u8>, watermark: u64, db: &Database, store: &AnnotationStore) {
    let (rel, ann) = (relstore::snapshot::save(db), annostore::snapshot::save(store));
    envelope::begin(image, MAGIC);
    image.reserve(16 + rel.len() + ann.len());
    image.extend_from_slice(&watermark.to_le_bytes());
    for snapshot in [&rel, &ann] {
        image.extend_from_slice(&(snapshot.len() as u32).to_le_bytes());
        image.extend_from_slice(snapshot);
    }
    envelope::close(image);
}

/// Decode and fully validate a checkpoint image.
pub fn decode(bytes: &[u8]) -> Result<(u64, Database, AnnotationStore), DurableError> {
    let body = envelope::open(MAGIC, bytes)
        .map_err(|e| DurableError::Corrupt(format!("checkpoint: {e}")))?;
    let mut body = Reader::new(body);
    let watermark = body.u64("checkpoint watermark")?;
    let rel_len = body.u32("relational snapshot length")? as usize;
    let rel_bytes = body.bytes("relational snapshot", rel_len)?;
    let ann_len = body.u32("annotation snapshot length")? as usize;
    let ann_bytes = body.bytes("annotation snapshot", ann_len)?;
    body.finish()?;
    let db = relstore::snapshot::load(rel_bytes)
        .map_err(|e| DurableError::Corrupt(format!("relational snapshot: {e}")))?;
    let store = annostore::snapshot::load(ann_bytes)
        .map_err(|e| DurableError::Corrupt(format!("annotation snapshot: {e}")))?;
    Ok((watermark, db, store))
}

/// Name of the checkpoint file with the given sequence number.
pub fn file_name(seq: u64) -> String {
    format!("checkpoint-{seq:08}.ckpt")
}

/// Parse a checkpoint sequence number back out of a file name.
pub fn parse_seq(name: &str) -> Option<u64> {
    name.strip_prefix("checkpoint-")?.strip_suffix(".ckpt")?.parse().ok()
}

/// List checkpoint files in `dir`, ascending by sequence number.
pub fn list_checkpoints(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(seq) = name.to_str().and_then(parse_seq) {
            found.push((seq, entry.path()));
        }
    }
    found.sort_by_key(|(seq, _)| *seq);
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use annostore::Annotation;
    use relstore::{DataType, Database, TableSchema, Value};

    fn tiny_state() -> (Database, AnnotationStore) {
        let mut db = Database::new();
        let schema = TableSchema::builder("gene")
            .column("name", DataType::Text)
            .column("len", DataType::Int)
            .build()
            .unwrap();
        db.create_table(schema).unwrap();
        let tid = db.insert("gene", vec![Value::text("thrL"), Value::Int(66)]).unwrap();
        let mut store = AnnotationStore::new();
        let aid = store.add_annotation(Annotation::new("operon leader peptide"));
        store.attach(aid, annostore::AttachmentTarget::tuple(tid)).unwrap();
        (db, store)
    }

    #[test]
    fn roundtrip_preserves_watermark_and_state() {
        let (db, store) = tiny_state();
        let image = encode(42, &db, &store);
        let (watermark, db2, store2) = decode(&image).unwrap();
        assert_eq!(watermark, 42);
        assert_eq!(relstore::snapshot::save(&db2).to_vec(), relstore::snapshot::save(&db).to_vec());
        assert_eq!(store2.annotation_count(), 1);
    }

    #[test]
    fn encoding_over_an_old_buffer_writes_the_frame_bytes() {
        let (db, store) = tiny_state();
        let (rel, ann) = (relstore::snapshot::save(&db), annostore::snapshot::save(&store));
        let mut body = 9u64.to_le_bytes().to_vec();
        for snapshot in [&rel, &ann] {
            body.extend_from_slice(&(snapshot.len() as u32).to_le_bytes());
            body.extend_from_slice(snapshot);
        }
        let framed = envelope::seal(MAGIC, &body);
        assert_eq!(encode(9, &db, &store), framed);
        // A buffer that held something longer, or shorter, is overwritten.
        for mut old in [vec![0xAA; framed.len() * 2], vec![0xAA; 3]] {
            encode_into(&mut old, 9, &db, &store);
            assert_eq!(old, framed);
        }
    }

    #[test]
    fn any_single_bit_flip_is_rejected() {
        let (db, store) = tiny_state();
        let image = encode(7, &db, &store);
        // Sample every 13th byte to keep the test fast while still
        // covering magic, checksum, watermark, and both snapshots.
        for byte in (0..image.len()).step_by(13) {
            let mut bad = image.clone();
            bad[byte] ^= 0x04;
            assert!(decode(&bad).is_err(), "flip at byte {byte} accepted");
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let (db, store) = tiny_state();
        let image = encode(7, &db, &store);
        for cut in [0, 5, 11, 12, 20, image.len() - 1] {
            assert!(decode(&image[..cut]).is_err(), "truncation to {cut} accepted");
        }
    }

    #[test]
    fn file_names_roundtrip() {
        assert_eq!(file_name(3), "checkpoint-00000003.ckpt");
        assert_eq!(parse_seq("checkpoint-00000003.ckpt"), Some(3));
        assert_eq!(parse_seq("checkpoint-123456789.ckpt"), Some(123_456_789));
        assert_eq!(parse_seq("wal.log"), None);
        assert_eq!(parse_seq("checkpoint-xyz.ckpt"), None);
    }
}
