//! Database snapshots: a compact, self-describing binary format for
//! saving and restoring a whole [`Database`] — schemas, foreign keys,
//! every row slot (including tombstones, so [`crate::TupleId`]s survive a
//! round trip), with the hash and inverted indexes rebuilt on load.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "NEBREL1\0"
//! u32 table_count
//! per table:
//!   string name
//!   u32 column_count
//!   per column: string name, u8 type, u8 indexed, u8 searchable
//!   u8 has_pk (+ u32 pk column)
//!   u64 slot_count
//!   per slot: u8 live, per column: tagged value
//! u32 fk_count; per fk: u32 from_table, u32 from_column, u32 to_table
//! ```
//!
//! Value tags: 0 = Null, 1 = Int(i64), 2 = Float(f64 bits), 3 = Text.
//!
//! The same records are the elements of the database's state digest: a
//! [`MultisetHash`] over one element per table header (tag 1, `u32` table
//! id, then the header as laid out above), one per row slot (tag 2, tuple
//! id, then the slot) and one per foreign key (tag 3, then the key).
//! [`Database::digest`] keeps that sum as rows change once it has been
//! read; [`fingerprint`] recomputes it from scratch and is its oracle.

use crate::catalog::ForeignKey;
use crate::database::Database;
use crate::schema::{ColumnId, TableId, TableSchema};
use crate::tuple::TupleId;
use crate::value::{DataType, Value};
use nebula_codec::{CodecError, MultisetHash, Reader, Writer};
use std::fmt;

const MAGIC: &[u8; 8] = b"NEBREL1\0";

/// Errors from snapshot decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the expected magic.
    BadMagic,
    /// A field was truncated, mis-flagged, or not valid UTF-8.
    Codec(CodecError),
    /// An enum tag was out of range.
    BadTag(&'static str, u8),
    /// The decoded structure violates an invariant.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a relstore snapshot (bad magic)"),
            SnapshotError::Codec(e) => write!(f, "bad snapshot field: {e}"),
            SnapshotError::BadTag(what, tag) => write!(f, "invalid {what} tag {tag}"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> SnapshotError {
        SnapshotError::Codec(e)
    }
}

pub(crate) fn put_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.u8(0),
        Value::Int(i) => {
            w.u8(1);
            w.u64(*i as u64);
        }
        Value::Float(x) => {
            w.u8(2);
            w.f64(*x);
        }
        Value::Text(s) => {
            w.u8(3);
            w.string(s);
        }
    }
}

pub(crate) fn get_value(r: &mut Reader<'_>) -> Result<Value, SnapshotError> {
    match r.u8("value tag")? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(r.u64("int value")? as i64)),
        2 => Ok(Value::Float(r.f64("float value")?)),
        3 => Ok(Value::Text(r.string("text value")?)),
        tag => Err(SnapshotError::BadTag("value", tag)),
    }
}

fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Null => 3,
    }
}

fn tag_type(tag: u8) -> Result<DataType, SnapshotError> {
    match tag {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Float),
        2 => Ok(DataType::Text),
        3 => Ok(DataType::Null),
        t => Err(SnapshotError::BadTag("data type", t)),
    }
}

fn put_header(w: &mut Writer, schema: &TableSchema) {
    w.string(&schema.name);
    w.u32(schema.arity() as u32);
    for (_, def) in schema.iter_columns() {
        w.string(&def.name);
        w.u8(type_tag(def.data_type));
        w.u8(def.indexed as u8);
        w.u8(def.searchable as u8);
    }
    match schema.primary_key {
        Some(pk) => {
            w.u8(1);
            w.u32(pk.0);
        }
        None => w.u8(0),
    }
}

fn put_slot(w: &mut Writer, live: bool, values: &[Value]) {
    w.u8(live as u8);
    for v in values {
        put_value(w, v);
    }
}

fn put_foreign_key(w: &mut Writer, fk: &ForeignKey) {
    w.u32(fk.from_table.0);
    w.u32(fk.from_column.0);
    w.u32(fk.to_table.0);
}

/// The digest element of a table header.
pub(crate) fn table_element(id: TableId, schema: &TableSchema) -> Vec<u8> {
    let mut w = Writer::default();
    w.u8(1);
    w.u32(id.0);
    put_header(&mut w, schema);
    w.0
}

/// The digest element of one row slot.
pub(crate) fn slot_element(tid: TupleId, live: bool, values: &[Value]) -> Vec<u8> {
    let mut w = Writer::default();
    w.u8(2);
    w.tuple_id(tid.table.0, tid.row);
    put_slot(&mut w, live, values);
    w.0
}

/// The digest element of a foreign key.
pub(crate) fn fk_element(fk: &ForeignKey) -> Vec<u8> {
    let mut w = Writer::default();
    w.u8(3);
    put_foreign_key(&mut w, fk);
    w.0
}

/// The database's state digest recomputed from scratch: the multiset
/// hash of every table header, row slot and foreign key.
///
/// Two databases with identical logical content fingerprint identically,
/// whichever backend holds their rows. This is the oracle
/// [`Database::digest`], the running value, is checked against; it reads
/// every row, so callers that compare states use the running value.
pub fn fingerprint(db: &Database) -> u64 {
    multiset(db).value()
}

/// The multiset [`fingerprint`] sums, which a running digest starts from.
pub(crate) fn multiset(db: &Database) -> MultisetHash {
    let mut h = MultisetHash::default();
    for (tid, _) in db.catalog().iter() {
        let table = db.table(tid).expect("catalog and tables agree");
        h.insert(&table_element(tid, table.schema()));
        for (row, (live, values)) in table.raw_slots().enumerate() {
            h.insert(&slot_element(TupleId::new(tid, row as u64), live, &values));
        }
    }
    for fk in db.catalog().foreign_keys() {
        h.insert(&fk_element(fk));
    }
    h
}

/// Serialize a database to bytes.
pub fn save(db: &Database) -> Vec<u8> {
    let mut w = Writer::default();
    w.bytes(MAGIC);
    let tables: Vec<TableId> = db.catalog().iter().map(|(tid, _)| tid).collect();
    w.u32(tables.len() as u32);
    for tid in tables {
        let table = db.table(tid).expect("catalog and tables agree");
        put_header(&mut w, table.schema());
        let slots = table.raw_slots();
        w.u64(slots.len() as u64);
        for (live, values) in slots {
            put_slot(&mut w, live, &values);
        }
    }
    let fks = db.catalog().foreign_keys();
    w.u32(fks.len() as u32);
    for fk in fks {
        put_foreign_key(&mut w, fk);
    }
    w.0
}

/// Restore a database from bytes produced by [`save`]. Tuple ids are
/// preserved exactly; all indexes (hash + inverted) are rebuilt.
pub fn load(bytes: &[u8]) -> Result<Database, SnapshotError> {
    load_with(bytes, None)
}

/// Restore a database from bytes produced by [`save`], routing row
/// payloads and posting blocks through backends opened by `factory`
/// (`None` keeps everything in RAM, exactly like [`load`]). The logical
/// content is identical either way — [`fingerprint`] cannot tell the
/// backends apart.
pub fn load_with(
    bytes: &[u8],
    factory: Option<std::sync::Arc<dyn crate::storage::StorageFactory>>,
) -> Result<Database, SnapshotError> {
    let mut r = Reader::new(bytes);
    if r.bytes("magic", MAGIC.len()) != Ok(&MAGIC[..]) {
        return Err(SnapshotError::BadMagic);
    }
    let mut db = match factory {
        Some(factory) => Database::with_storage(factory),
        None => Database::new(),
    };
    let table_count = r.u32("table count")?;
    // Every table needs at least a name length, a column count, a pk
    // flag, and a slot count — a hostile count fails here instead of
    // spinning through the loop.
    if table_count as usize > r.remaining() / 17 {
        return Err(SnapshotError::Corrupt(format!("implausible table count {table_count}")));
    }
    for _ in 0..table_count {
        let name = r.string("table name")?;
        let column_count = r.u32("column count")?;
        // Each column costs at least a name length plus three flag bytes;
        // never pre-allocate from an unvalidated length field.
        if column_count as usize > r.remaining() / 7 {
            return Err(SnapshotError::Corrupt(format!("implausible column count {column_count}")));
        }
        let mut builder = TableSchema::builder(&name);
        let mut column_names = Vec::with_capacity(column_count as usize);
        for _ in 0..column_count {
            let cname = r.string("column name")?;
            let ty = tag_type(r.u8("column type")?)?;
            let indexed = r.u8("column indexed flag")? != 0;
            let searchable = r.u8("column searchable flag")? != 0;
            builder = if indexed {
                builder.indexed_column(&cname, ty)
            } else if !searchable {
                builder.unsearchable_column(&cname, ty)
            } else {
                builder.column(&cname, ty)
            };
            column_names.push(cname);
        }
        if r.u8("pk flag")? != 0 {
            let pk = r.u32("pk column")? as usize;
            let pk_name = column_names
                .get(pk)
                .ok_or_else(|| SnapshotError::Corrupt(format!("pk column {pk} out of range")))?;
            builder = builder.primary_key(pk_name);
        }
        let schema = builder.build().map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        let arity = schema.arity();
        let tid = db.create_table(schema).map_err(|e| SnapshotError::Corrupt(e.to_string()))?;

        let slot_count = r.u64("slot count")?;
        // Each slot costs at least its liveness byte plus one value tag
        // per column.
        if slot_count > (r.remaining() / (1 + arity.max(1))) as u64 {
            return Err(SnapshotError::Corrupt(format!("implausible slot count {slot_count}")));
        }
        for _ in 0..slot_count {
            let live = r.u8("slot liveness")? != 0;
            let mut values = Vec::with_capacity(arity);
            for _ in 0..arity {
                values.push(get_value(&mut r)?);
            }
            db.restore_slot(tid, live, values)
                .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        }
    }
    let fk_count = r.u32("fk count")?;
    if fk_count as usize > r.remaining() / 12 {
        return Err(SnapshotError::Corrupt(format!("implausible foreign-key count {fk_count}")));
    }
    for _ in 0..fk_count {
        let fk = ForeignKey {
            from_table: TableId(r.u32("foreign key")?),
            from_column: ColumnId(r.u32("foreign key")?),
            to_table: TableId(r.u32("foreign key")?),
        };
        db.restore_foreign_key(fk).map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("gene")
                .column("gid", DataType::Text)
                .column("name", DataType::Text)
                .indexed_column("family", DataType::Text)
                .column("length", DataType::Int)
                .unsearchable_column("seq", DataType::Text)
                .primary_key("gid")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("protein")
                .column("pid", DataType::Text)
                .column("gene_id", DataType::Text)
                .column("mass", DataType::Float)
                .primary_key("pid")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_foreign_key("protein", "gene_id", "gene").unwrap();
        for (gid, name, fam, len) in [
            ("JW0013", "grpC", "F1", 1130i64),
            ("JW0014", "groP", "F6", 1916),
            ("JW0019", "yaaB", "F3", 905),
        ] {
            db.insert(
                "gene",
                vec![
                    Value::text(gid),
                    Value::text(name),
                    Value::text(fam),
                    Value::Int(len),
                    Value::text("ACGT"),
                ],
            )
            .unwrap();
        }
        db.insert("protein", vec![Value::text("P1"), Value::text("JW0013"), Value::Float(42.5)])
            .unwrap();
        db
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let mut db = sample_db();
        // Tombstone a row so slot preservation is exercised.
        let victim = db.table_by_name("gene").unwrap().scan().nth(1).unwrap().id;
        db.delete(victim);

        let bytes = save(&db);
        let restored = load(&bytes).unwrap();

        assert_eq!(restored.total_tuples(), db.total_tuples());
        assert_eq!(restored.catalog().len(), db.catalog().len());
        assert_eq!(restored.catalog().foreign_keys(), db.catalog().foreign_keys());
        // Tuple ids and contents preserved.
        for table in ["gene", "protein"] {
            let a = db.table_by_name(table).unwrap();
            let b = restored.table_by_name(table).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.scan().zip(b.scan()) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.values, y.values);
            }
        }
        // The tombstoned slot stays dead.
        assert!(restored.get(victim).is_none());
        // Indexes were rebuilt: PK lookup and inverted lookup work.
        let gene = restored.table_by_name("gene").unwrap();
        assert!(gene.lookup_key(&Value::text("JW0013")).is_some());
        assert_eq!(restored.inverted_index().lookup("grpc").len(), 1);
        // Unsearchable columns stay unindexed.
        assert_eq!(restored.inverted_index().lookup("acgt").len(), 0);
        // The freed primary key is reusable, and new rows continue the id
        // sequence after the restored slots.
        let mut restored = restored;
        let new_id = restored
            .insert(
                "gene",
                vec![
                    Value::text("JW0014"),
                    Value::text("groP2"),
                    Value::text("F6"),
                    Value::Int(1),
                    Value::text("A"),
                ],
            )
            .unwrap();
        assert_eq!(new_id.row, 3, "new rows append after restored slots");
    }

    /// Replicas compare digests across builds; the value of a fixed
    /// database must not move, and the running digest equals the
    /// from-scratch one.
    #[test]
    fn fingerprint_of_a_fixed_database_is_pinned() {
        let db = sample_db();
        assert_eq!(fingerprint(&db), 0x12f9_7244_1fb0_a4da);
        assert_eq!(db.digest(), fingerprint(&db));
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(load(b"garbage").unwrap_err(), SnapshotError::BadMagic);
        assert_eq!(load(b"").unwrap_err(), SnapshotError::BadMagic);
    }

    #[test]
    fn truncation_detected_everywhere() {
        let db = sample_db();
        let bytes = save(&db);
        // Every proper prefix must fail cleanly, never panic.
        for cut in [8usize, 9, 15, 30, 60, bytes.len() - 1] {
            let result = load(&bytes[..cut.min(bytes.len() - 1)]);
            assert!(result.is_err(), "prefix of {cut} bytes must be rejected");
        }
    }

    #[test]
    fn empty_database_roundtrips() {
        let db = Database::new();
        let restored = load(&save(&db)).unwrap();
        assert_eq!(restored.total_tuples(), 0);
        assert!(restored.catalog().is_empty());
    }

    #[test]
    fn special_values_survive() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("t")
                .column("id", DataType::Int)
                .column("f", DataType::Float)
                .column("s", DataType::Text)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert("t", vec![Value::Int(i64::MIN), Value::Float(f64::NAN), Value::text("")])
            .unwrap();
        db.insert("t", vec![Value::Int(i64::MAX), Value::Null, Value::text("naïve ünïcode")])
            .unwrap();
        let restored = load(&save(&db)).unwrap();
        let rows: Vec<_> = restored.table_by_name("t").unwrap().scan().collect();
        assert_eq!(rows[0].values[0], Value::Int(i64::MIN));
        assert_eq!(rows[0].values[1], Value::Float(f64::NAN), "NaN bit-preserved");
        assert_eq!(rows[1].values[1], Value::Null);
        assert_eq!(rows[1].values[2], Value::text("naïve ünïcode"));
    }
}
