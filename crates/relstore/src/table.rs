//! Row storage for a single table.

use crate::error::{Error, Result};
use crate::index::HashIndex;
use crate::schema::{ColumnId, TableId, TableSchema};
use crate::storage::{decode_row, encode_row, StorageBackend};
use crate::tuple::{Tuple, TupleId};
use crate::value::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// Where a table's row payloads live. The slot structure (live flags,
/// `TupleId` assignment) is identical either way; only the value bytes
/// move: `Mem` holds decoded rows in a `Vec`, `Paged` holds one opaque
/// record per slot in a [`StorageBackend`] and keeps the 8-byte record
/// ids in RAM.
#[derive(Debug)]
enum Rows {
    Mem(Vec<Vec<Value>>),
    Paged { backend: Box<dyn StorageBackend>, ids: Vec<u64>, arity: usize },
}

impl Rows {
    fn len(&self) -> usize {
        match self {
            Rows::Mem(rows) => rows.len(),
            Rows::Paged { ids, .. } => ids.len(),
        }
    }

    /// Append a row slot. Paged backends can fail on real I/O errors or
    /// injected page faults; `Mem` never fails.
    fn push(&mut self, values: Vec<Value>) -> Result<()> {
        match self {
            Rows::Mem(rows) => {
                rows.push(values);
                Ok(())
            }
            Rows::Paged { backend, ids, .. } => {
                let id = backend.insert(&encode_row(&values)).map_err(Error::Storage)?;
                ids.push(id);
                Ok(())
            }
        }
    }

    /// Read one slot's values. Storage read failures degrade to `None`
    /// after bumping `relstore.storage_errors` — callers treat the row as
    /// unreadable rather than panicking; the page scrubber finds and
    /// repairs the damage out of band.
    fn row(&self, i: usize) -> Option<Cow<'_, [Value]>> {
        match self {
            Rows::Mem(rows) => rows.get(i).map(|r| Cow::Borrowed(r.as_slice())),
            Rows::Paged { backend, ids, arity } => {
                let id = *ids.get(i)?;
                let mut values = None;
                let found = backend.read(id, &mut |bytes| values = decode_row(bytes, *arity).ok());
                match (found, values) {
                    (Ok(true), Some(values)) => Some(Cow::Owned(values)),
                    _ => {
                        nebula_obs::counter_add("relstore.storage_errors", 1);
                        None
                    }
                }
            }
        }
    }

    /// Replace one slot's values in place (used by update; the slot keeps
    /// its position, a paged record may move to a new record id).
    fn set(&mut self, i: usize, values: Vec<Value>) -> Result<()> {
        match self {
            Rows::Mem(rows) => {
                rows[i] = values;
                Ok(())
            }
            Rows::Paged { backend, ids, .. } => {
                let new_id =
                    backend.update(ids[i], &encode_row(&values)).map_err(Error::Storage)?;
                ids[i] = new_id;
                Ok(())
            }
        }
    }
}

/// A single table: schema, append-only row storage, and per-column hash
/// indexes for every column flagged `indexed`.
#[derive(Debug)]
pub struct Table {
    id: TableId,
    schema: Arc<TableSchema>,
    rows: Rows,
    /// Live flags — rows are tombstoned rather than removed so `TupleId`s
    /// stay stable.
    live: Vec<bool>,
    live_count: usize,
    indexes: HashMap<ColumnId, HashIndex>,
}

impl Table {
    /// Create an empty table with the given id and schema, rows in RAM.
    pub fn new(id: TableId, schema: TableSchema) -> Self {
        Table::build(id, schema, None)
    }

    /// Create an empty table whose row payloads live in `backend`.
    pub fn with_backend(
        id: TableId,
        schema: TableSchema,
        backend: Box<dyn StorageBackend>,
    ) -> Self {
        Table::build(id, schema, Some(backend))
    }

    fn build(id: TableId, schema: TableSchema, backend: Option<Box<dyn StorageBackend>>) -> Self {
        let indexes = schema
            .iter_columns()
            .filter(|(_, def)| def.indexed)
            .map(|(cid, _)| (cid, HashIndex::default()))
            .collect();
        let arity = schema.arity();
        let rows = match backend {
            None => Rows::Mem(Vec::new()),
            Some(backend) => Rows::Paged { backend, ids: Vec::new(), arity },
        };
        Table { id, schema: Arc::new(schema), rows, live: Vec::new(), live_count: 0, indexes }
    }

    /// The table's catalog id.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Shared schema handle.
    pub fn schema(&self) -> &Arc<TableSchema> {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// True when the table holds no live rows.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Validate a row against the schema (arity, types, PK uniqueness).
    fn validate(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.schema.arity() {
            return Err(Error::ArityMismatch {
                table: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: values.len(),
            });
        }
        for ((cid, def), v) in self.schema.iter_columns().zip(values) {
            if !v.conforms_to(def.data_type) {
                return Err(Error::TypeMismatch {
                    table: self.schema.name.clone(),
                    column: def.name.clone(),
                    expected: def.data_type,
                    got: v.data_type(),
                });
            }
            if Some(cid) == self.schema.primary_key {
                if v.is_null() {
                    return Err(Error::InvalidSchema(format!(
                        "NULL primary key in `{}`",
                        self.schema.name
                    )));
                }
                if self.lookup_key(v).is_some() {
                    return Err(Error::DuplicateKey {
                        table: self.schema.name.clone(),
                        key: v.render(),
                    });
                }
            }
        }
        Ok(())
    }

    /// The id the next inserted or restored slot receives.
    pub(crate) fn next_tid(&self) -> TupleId {
        TupleId::new(self.id, self.rows.len() as u64)
    }

    /// Insert a row, returning its stable id.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<TupleId> {
        self.validate(&values)?;
        let tid = self.next_tid();
        for (cid, index) in self.indexes.iter_mut() {
            index.insert(values[cid.index()].clone(), tid);
        }
        self.rows.push(values)?;
        self.live.push(true);
        self.live_count += 1;
        Ok(tid)
    }

    /// Fetch a live row by id.
    pub fn get(&self, tid: TupleId) -> Option<Tuple> {
        if tid.table != self.id {
            return None;
        }
        let i = tid.row as usize;
        if !*self.live.get(i)? {
            return None;
        }
        let values = self.rows.row(i)?.into_owned();
        Some(Tuple { id: tid, schema: Arc::clone(&self.schema), values })
    }

    /// Replace a live row's values in place (the tuple id is preserved).
    /// Validates arity, types, and primary-key uniqueness (the row may
    /// keep its own key) and maintains the hash indexes.
    pub fn update(&mut self, tid: TupleId, values: Vec<Value>) -> Result<()> {
        self.replace(tid, values).map(drop)
    }

    /// [`Table::update`], returning the values the row held before.
    pub(crate) fn replace(&mut self, tid: TupleId, values: Vec<Value>) -> Result<Vec<Value>> {
        if !self.is_live(tid) {
            return Err(Error::UnknownTuple(tid));
        }
        if values.len() != self.schema.arity() {
            return Err(Error::ArityMismatch {
                table: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: values.len(),
            });
        }
        for ((cid, def), v) in self.schema.iter_columns().zip(&values) {
            if !v.conforms_to(def.data_type) {
                return Err(Error::TypeMismatch {
                    table: self.schema.name.clone(),
                    column: def.name.clone(),
                    expected: def.data_type,
                    got: v.data_type(),
                });
            }
            if Some(cid) == self.schema.primary_key {
                if v.is_null() {
                    return Err(Error::InvalidSchema(format!(
                        "NULL primary key in `{}`",
                        self.schema.name
                    )));
                }
                if let Some(holder) = self.lookup_key(v) {
                    if holder != tid {
                        return Err(Error::DuplicateKey {
                            table: self.schema.name.clone(),
                            key: v.render(),
                        });
                    }
                }
            }
        }
        let row = tid.row as usize;
        let old = self.rows.row(row).map(Cow::into_owned).unwrap_or_default();
        for (cid, index) in self.indexes.iter_mut() {
            if let Some(v) = old.get(cid.index()) {
                index.remove(v, tid);
            }
            index.insert(values[cid.index()].clone(), tid);
        }
        self.rows.set(row, values)?;
        Ok(old)
    }

    /// Delete (tombstone) a row. Returns true if the row was live.
    ///
    /// The slot's values stay in storage (dead slots survive snapshots so
    /// `TupleId`s stay stable), only the live flag and indexes change.
    pub fn delete(&mut self, tid: TupleId) -> bool {
        self.tombstone(tid).is_some()
    }

    /// [`Table::delete`], returning the tombstoned row's values (`None`
    /// if the row was not live).
    pub(crate) fn tombstone(&mut self, tid: TupleId) -> Option<Vec<Value>> {
        if !self.is_live(tid) {
            return None;
        }
        let i = tid.row as usize;
        self.live[i] = false;
        self.live_count -= 1;
        let old = self.rows.row(i).map(Cow::into_owned).unwrap_or_default();
        for (cid, index) in self.indexes.iter_mut() {
            if let Some(v) = old.get(cid.index()) {
                index.remove(v, tid);
            }
        }
        Some(old)
    }

    /// Iterate all live tuples in insertion order.
    pub fn scan(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.rows.len()).filter(|i| self.live[*i]).filter_map(move |i| {
            Some(Tuple {
                id: TupleId::new(self.id, i as u64),
                schema: Arc::clone(&self.schema),
                values: self.rows.row(i)?.into_owned(),
            })
        })
    }

    /// Exact-match lookup on the primary key (O(1) via the PK index).
    pub fn lookup_key(&self, key: &Value) -> Option<TupleId> {
        let pk = self.schema.primary_key?;
        self.indexes
            .get(&pk)
            .and_then(|idx| idx.get(key).iter().copied().find(|tid| self.is_live(*tid)))
    }

    /// Exact-match lookup on any indexed column; falls back to a scan for
    /// unindexed columns.
    pub fn lookup(&self, col: ColumnId, value: &Value) -> Vec<TupleId> {
        if let Some(idx) = self.indexes.get(&col) {
            return idx.get(value).iter().copied().filter(|t| self.is_live(*t)).collect();
        }
        (0..self.rows.len())
            .filter(|i| {
                self.live[*i]
                    && self.rows.row(*i).is_some_and(|row| row.get(col.index()) == Some(value))
            })
            .map(|i| TupleId::new(self.id, i as u64))
            .collect()
    }

    /// Whether the given id refers to a live row of this table.
    pub fn is_live(&self, tid: TupleId) -> bool {
        tid.table == self.id && self.live.get(tid.row as usize).copied().unwrap_or(false)
    }

    /// Raw slot iterator for snapshotting: `(live, values)` in slot order,
    /// including tombstoned rows (their slots must survive a
    /// save/load cycle so `TupleId`s stay stable). A paged slot whose
    /// record cannot be read degrades to a row of `Null`s (arity
    /// preserved) so the snapshot structure stays decodable; the error
    /// counter and the page scrubber report the damage. Rows come one at
    /// a time: RAM rows borrowed, a paged row decoded for its turn only.
    pub(crate) fn raw_slots(&self) -> impl ExactSizeIterator<Item = (bool, Cow<'_, [Value]>)> + '_ {
        let arity = self.schema.arity();
        self.live.iter().enumerate().map(move |(i, live)| {
            let values = self.rows.row(i).unwrap_or_else(|| Cow::Owned(vec![Value::Null; arity]));
            (*live, values)
        })
    }

    /// Restore one slot during snapshot load, bypassing re-validation (the
    /// snapshot was valid when written) but maintaining the hash indexes
    /// for live rows. Returns the restored slot's tuple id.
    pub(crate) fn restore_slot(&mut self, live: bool, values: Vec<Value>) -> Result<TupleId> {
        let tid = self.next_tid();
        if live {
            for (cid, index) in self.indexes.iter_mut() {
                index.insert(values[cid.index()].clone(), tid);
            }
            self.live_count += 1;
        }
        self.rows.push(values)?;
        self.live.push(live);
        Ok(tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn table() -> Table {
        let schema = TableSchema::builder("gene")
            .column("gid", DataType::Text)
            .column("name", DataType::Text)
            .column("length", DataType::Int)
            .primary_key("gid")
            .build()
            .unwrap();
        Table::new(TableId(0), schema)
    }

    fn row(gid: &str, name: &str, len: i64) -> Vec<Value> {
        vec![Value::text(gid), Value::text(name), Value::Int(len)]
    }

    #[test]
    fn insert_get_scan() {
        let mut t = table();
        let a = t.insert(row("JW0013", "grpC", 1130)).unwrap();
        let b = t.insert(row("JW0014", "groP", 1916)).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).unwrap().get_by_name("name"), Some(&Value::text("grpC")));
        let ids: Vec<TupleId> = t.scan().map(|tp| tp.id).collect();
        assert_eq!(ids, vec![a, b]);
    }

    #[test]
    fn arity_and_type_checks() {
        let mut t = table();
        assert!(matches!(t.insert(vec![Value::text("JW0013")]), Err(Error::ArityMismatch { .. })));
        assert!(matches!(
            t.insert(vec![Value::text("JW0013"), Value::Int(3), Value::Int(4)]),
            Err(Error::TypeMismatch { .. })
        ));
    }

    #[test]
    fn nulls_allowed_except_primary_key() {
        let mut t = table();
        assert!(t.insert(vec![Value::text("JW0015"), Value::Null, Value::Null]).is_ok());
        assert!(t.insert(vec![Value::Null, Value::text("x"), Value::Int(1)]).is_err());
    }

    #[test]
    fn duplicate_keys_rejected() {
        let mut t = table();
        t.insert(row("JW0013", "grpC", 1130)).unwrap();
        assert!(matches!(t.insert(row("JW0013", "zzz", 1)), Err(Error::DuplicateKey { .. })));
    }

    #[test]
    fn delete_tombstones_and_frees_key() {
        let mut t = table();
        let a = t.insert(row("JW0013", "grpC", 1130)).unwrap();
        assert!(t.delete(a));
        assert!(!t.delete(a), "double delete is a no-op");
        assert_eq!(t.len(), 0);
        assert!(t.get(a).is_none());
        // Primary key can be reused after deletion.
        let b = t.insert(row("JW0013", "grpC2", 900)).unwrap();
        assert_ne!(a, b, "tuple ids are never reused");
        assert_eq!(t.lookup_key(&Value::text("JW0013")), Some(b));
    }

    #[test]
    fn lookup_indexed_and_unindexed() {
        let mut t = table();
        let a = t.insert(row("JW0013", "grpC", 1130)).unwrap();
        let b = t.insert(row("JW0014", "grpC", 1916)).unwrap();
        // PK (indexed)
        assert_eq!(t.lookup_key(&Value::text("JW0014")), Some(b));
        // name column is unindexed -> scan fallback
        let name_col = t.schema().column_id("name").unwrap();
        let mut hits = t.lookup(name_col, &Value::text("grpC"));
        hits.sort();
        assert_eq!(hits, vec![a, b]);
    }

    #[test]
    fn update_replaces_values_and_indexes() {
        let mut t = table();
        let a = t.insert(row("JW0013", "grpC", 1130)).unwrap();
        t.update(a, row("JW0013", "grpC2", 999)).unwrap();
        assert_eq!(t.get(a).unwrap().get_by_name("name"), Some(&Value::text("grpC2")));
        // Changing the primary key re-indexes it.
        t.update(a, row("JW0099", "grpC2", 999)).unwrap();
        assert_eq!(t.lookup_key(&Value::text("JW0099")), Some(a));
        assert_eq!(t.lookup_key(&Value::text("JW0013")), None);
    }

    #[test]
    fn update_validation() {
        let mut t = table();
        let a = t.insert(row("JW0013", "grpC", 1130)).unwrap();
        let b = t.insert(row("JW0014", "groP", 1916)).unwrap();
        // Stealing another row's key fails.
        assert!(matches!(t.update(a, row("JW0014", "x", 1)), Err(Error::DuplicateKey { .. })));
        // Keeping one's own key is fine.
        assert!(t.update(a, row("JW0013", "x", 1)).is_ok());
        // Arity and type checks apply.
        assert!(t.update(a, vec![Value::text("JW0013")]).is_err());
        assert!(t.update(a, vec![Value::text("JW0013"), Value::Int(1), Value::Int(1)]).is_err());
        // Dead rows cannot be updated.
        t.delete(b);
        assert!(matches!(t.update(b, row("JW0014", "y", 2)), Err(Error::UnknownTuple(_))));
    }

    #[test]
    fn get_from_wrong_table_is_none() {
        let t = table();
        assert!(t.get(TupleId::new(TableId(42), 0)).is_none());
    }
}
