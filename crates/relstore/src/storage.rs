//! Pluggable byte-record storage behind the relational store.
//!
//! The row heap of every [`crate::Table`] and the posting blocks of the
//! [`crate::InvertedIndex`] read and write opaque byte records through the
//! [`StorageBackend`] trait. The default backend keeps records in RAM
//! (`Mem`); the `nebula-pagestore` crate provides a disk-backed
//! implementation (`Paged`) that hosts the same records in a checksummed,
//! buffer-pooled page file. Because every caller goes through this trait,
//! the two backends are digest-identical: the logical database bytes
//! ([`crate::snapshot::save`]) cannot depend on which backend holds them.
//!
//! Record ids are opaque `u64`s minted by the backend. An update may move
//! a record (a paged backend relocates records that outgrow their slot),
//! so [`StorageBackend::update`] returns the possibly-new id and the
//! caller must refresh its mapping.

use crate::snapshot::SnapshotError;
use crate::value::Value;
use nebula_codec::{Reader, Writer};
use std::fmt;

/// An error from a storage backend — an I/O failure, a checksum mismatch,
/// or a record that failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageError(pub String);

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "storage error: {}", self.0)
    }
}

impl std::error::Error for StorageError {}

/// One namespace of opaque byte records (a table's row heap, or the
/// inverted index's posting blocks).
///
/// Implementations must be deterministic: the same sequence of calls
/// mints the same ids and produces the same on-medium bytes, regardless
/// of wall clock or thread scheduling.
pub trait StorageBackend: fmt::Debug + Send + Sync {
    /// Store a new record, returning its id.
    fn insert(&self, bytes: &[u8]) -> Result<u64, StorageError>;

    /// Fetch a record by id. `Ok(None)` means the id is unknown or the
    /// record was deleted.
    fn get(&self, id: u64) -> Result<Option<Vec<u8>>, StorageError>;

    /// Replace record `id`, returning the (possibly new) id. The old id
    /// is invalid afterwards unless it is the one returned.
    fn update(&self, id: u64, bytes: &[u8]) -> Result<u64, StorageError>;

    /// Delete a record. Unknown ids are a no-op.
    fn delete(&self, id: u64) -> Result<(), StorageError>;

    /// Short human-readable description (for `SHOW STORAGE`).
    fn label(&self) -> String;
}

/// Opens one [`StorageBackend`] per namespace. A `Database` built with a
/// factory routes every table's rows and the inverted index's posting
/// blocks through backends the factory opens.
pub trait StorageFactory: fmt::Debug + Send + Sync {
    /// Open (or create) the backend for a namespace. Namespaces are
    /// assigned deterministically: table id `t` uses namespace `t`, the
    /// inverted index uses [`POSTINGS_NAMESPACE`].
    fn open(&self, namespace: u32) -> Box<dyn StorageBackend>;

    /// Ask every open backend to persist outstanding state.
    fn flush(&self) -> Result<(), StorageError>;

    /// Short human-readable description (for `SHOW STORAGE`).
    fn describe(&self) -> String;
}

/// The namespace the inverted index's posting blocks live in. Table
/// namespaces are table ids, which start at zero and stay far below this.
pub const POSTINGS_NAMESPACE: u32 = u32::MAX;

/// Encode one row as an opaque byte record: each value in the snapshot
/// value encoding (tag byte + payload), concatenated in column order. The
/// arity comes from the schema, so no count prefix is needed.
pub fn encode_row(values: &[Value]) -> Vec<u8> {
    let mut w = Writer::default();
    for v in values {
        crate::snapshot::put_value(&mut w, v);
    }
    w.0
}

/// Decode a row record written by [`encode_row`]. Fails cleanly on
/// truncated or hostile bytes; never panics, never over-allocates (the
/// per-value decoder validates lengths against the remaining buffer).
pub fn decode_row(bytes: &[u8], arity: usize) -> Result<Vec<Value>, SnapshotError> {
    let mut r = Reader::new(bytes);
    let mut values = Vec::with_capacity(arity.min(bytes.len() + 1));
    for _ in 0..arity {
        values.push(crate::snapshot::get_value(&mut r)?);
    }
    r.finish()?;
    Ok(values)
}

/// Encode one posting block: `u32` count, then per posting the table id,
/// column id (LEB128 varints) and the tuple row as a zigzag varint delta
/// from the previous posting's row. Postings within a block share the
/// delta chain; the first delta is against row 0.
pub fn encode_posting_block(postings: &[crate::Posting]) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(postings.len() as u32);
    let mut prev_row: i64 = 0;
    for p in postings {
        put_varint(&mut w, u64::from(p.table.0));
        put_varint(&mut w, u64::from(p.column.0));
        let row = p.tuple.row as i64;
        put_varint(&mut w, zigzag(row.wrapping_sub(prev_row)));
        prev_row = row;
    }
    w.0
}

/// Decode a posting block written by [`encode_posting_block`]. Fails
/// cleanly on hostile bytes: the count is validated against the smallest
/// possible per-posting cost before any allocation.
pub fn decode_posting_block(bytes: &[u8]) -> Result<Vec<crate::Posting>, SnapshotError> {
    use crate::schema::{ColumnId, TableId};
    use crate::tuple::TupleId;
    let mut r = Reader::new(bytes);
    let count = r.u32("posting count")? as usize;
    // Each posting costs at least three varint bytes.
    if count > r.remaining() / 3 {
        return Err(SnapshotError::Corrupt(format!("implausible posting count {count}")));
    }
    let mut out = Vec::with_capacity(count);
    let mut prev_row: i64 = 0;
    for _ in 0..count {
        let table = get_varint(&mut r)?;
        let column = get_varint(&mut r)?;
        let delta = unzigzag(get_varint(&mut r)?);
        let row = prev_row.wrapping_add(delta);
        prev_row = row;
        let table = u32::try_from(table)
            .map_err(|_| SnapshotError::Corrupt(format!("posting table id {table} overflows")))?;
        let column = u32::try_from(column)
            .map_err(|_| SnapshotError::Corrupt(format!("posting column id {column} overflows")))?;
        out.push(crate::Posting {
            table: TableId(table),
            column: ColumnId(column),
            tuple: TupleId::new(TableId(table), row as u64),
        });
    }
    r.finish()?;
    Ok(out)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(w: &mut Writer, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            w.u8(byte);
            return;
        }
        w.u8(byte | 0x80);
    }
}

fn get_varint(r: &mut Reader<'_>) -> Result<u64, SnapshotError> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = r.u8("varint")?;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(SnapshotError::Corrupt("varint longer than 10 bytes".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnId, TableId};
    use crate::tuple::TupleId;
    use crate::Posting;

    #[test]
    fn row_codec_roundtrips() {
        let rows: Vec<Vec<Value>> = vec![
            vec![],
            vec![Value::Null],
            vec![Value::Int(i64::MIN), Value::Float(f64::NAN), Value::text("naïve ünïcode")],
            vec![Value::text(""), Value::Int(0)],
        ];
        for row in rows {
            let bytes = encode_row(&row);
            let back = decode_row(&bytes, row.len()).expect("roundtrip");
            for (a, b) in row.iter().zip(&back) {
                match (a, b) {
                    (Value::Float(x), Value::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                    _ => assert_eq!(a, b),
                }
            }
        }
    }

    #[test]
    fn row_codec_rejects_hostile_bytes() {
        assert!(decode_row(&[], 1).is_err());
        assert!(decode_row(&[9], 1).is_err(), "bad tag");
        assert!(decode_row(&[1, 0, 0], 1).is_err(), "truncated int");
        assert!(decode_row(&[3, 0xff, 0xff, 0xff, 0xff, b'x'], 1).is_err(), "hostile length");
        let extra = encode_row(&[Value::Int(1), Value::Int(2)]);
        assert!(decode_row(&extra, 1).is_err(), "trailing bytes rejected");
    }

    #[test]
    fn posting_block_roundtrips() {
        let postings: Vec<Posting> = (0..100)
            .map(|i| Posting {
                table: TableId(i % 3),
                column: ColumnId(i % 5),
                tuple: TupleId::new(TableId(i % 3), u64::from(i * 37 % 50)),
            })
            .collect();
        let bytes = encode_posting_block(&postings);
        assert_eq!(decode_posting_block(&bytes).expect("roundtrip"), postings);
        // Delta coding keeps blocks compact: well under 4 bytes/posting
        // for small ids.
        assert!(bytes.len() < 4 + postings.len() * 4, "block is {} bytes", bytes.len());
    }

    #[test]
    fn posting_block_rejects_hostile_bytes() {
        assert!(decode_posting_block(&[]).is_err());
        assert!(decode_posting_block(&[0xff, 0xff, 0xff, 0xff]).is_err(), "hostile count");
        let mut bytes = encode_posting_block(&[Posting {
            table: TableId(0),
            column: ColumnId(0),
            tuple: TupleId::new(TableId(0), 7),
        }]);
        bytes.push(0);
        assert!(decode_posting_block(&bytes).is_err(), "trailing bytes rejected");
        assert!(decode_posting_block(&bytes[..bytes.len() - 2]).is_err(), "truncated");
    }
}
