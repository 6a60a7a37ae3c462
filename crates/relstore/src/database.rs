//! The `Database` facade: catalog + tables + the global inverted index.

use crate::catalog::{Catalog, ForeignKey};
use crate::error::{Error, Result};
use crate::index::InvertedIndex;
use crate::schema::{TableId, TableSchema};
use crate::storage::{StorageFactory, POSTINGS_NAMESPACE};
use crate::table::Table;
use crate::tuple::{Tuple, TupleId};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// A relational database, RAM-resident or disk-paged.
///
/// Maintains a [`Catalog`], one [`Table`] per registered schema, and a
/// database-wide [`InvertedIndex`] over every searchable text column —
/// the index the keyword-search layer probes. When built with
/// [`Database::with_storage`], row payloads and posting blocks live in
/// backends the factory opens (one namespace per table plus one for the
/// index); otherwise everything stays in RAM.
#[derive(Debug, Default)]
pub struct Database {
    catalog: Catalog,
    tables: HashMap<TableId, Table>,
    inverted: InvertedIndex,
    storage: Option<Arc<dyn StorageFactory>>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Create an empty database whose row payloads and posting blocks
    /// live in backends opened by `factory`.
    pub fn with_storage(factory: Arc<dyn StorageFactory>) -> Self {
        Database {
            catalog: Catalog::default(),
            tables: HashMap::new(),
            inverted: InvertedIndex::with_backend(factory.open(POSTINGS_NAMESPACE)),
            storage: Some(factory),
        }
    }

    /// One-line description of where the database's bytes live.
    pub fn storage_label(&self) -> String {
        match &self.storage {
            Some(f) => f.describe(),
            None => "mem".into(),
        }
    }

    /// Register a table from a schema. Fails if the name is taken.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<TableId> {
        let id = self.catalog.register(&schema.name)?;
        let table = match &self.storage {
            Some(factory) => Table::with_backend(id, schema, factory.open(id.0)),
            None => Table::new(id, schema),
        };
        self.tables.insert(id, table);
        Ok(id)
    }

    /// Declare a foreign key `from_table.from_column -> to_table` (which
    /// must have a primary key).
    pub fn add_foreign_key(
        &mut self,
        from_table: &str,
        from_column: &str,
        to_table: &str,
    ) -> Result<()> {
        let from = self.catalog.require(from_table)?;
        let to = self.catalog.require(to_table)?;
        let from_col = self.tables[&from].schema().require_column(from_column)?;
        if self.tables[&to].schema().primary_key.is_none() {
            return Err(Error::InvalidSchema(format!(
                "foreign key target `{to_table}` has no primary key"
            )));
        }
        self.catalog.add_foreign_key(ForeignKey {
            from_table: from,
            from_column: from_col,
            to_table: to,
        });
        Ok(())
    }

    /// The catalog (read-only).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The global inverted index (read-only).
    pub fn inverted_index(&self) -> &InvertedIndex {
        &self.inverted
    }

    /// Table handle by id.
    pub fn table(&self, id: TableId) -> Option<&Table> {
        self.tables.get(&id)
    }

    /// Table handle by name.
    pub fn table_by_name(&self, name: &str) -> Option<&Table> {
        self.catalog.resolve(name).and_then(|id| self.tables.get(&id))
    }

    /// Insert a row into the named table, indexing its text cells.
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> Result<TupleId> {
        let id = self.catalog.require(table)?;
        self.insert_into(id, values)
    }

    /// Insert a row into a table by id.
    pub fn insert_into(&mut self, table: TableId, values: Vec<Value>) -> Result<TupleId> {
        let t = self.tables.get_mut(&table).ok_or(Error::UnknownTable(format!("{table}")))?;
        // Snapshot searchable text cells before moving `values` into the table.
        let searchable: Vec<(crate::schema::ColumnId, String)> = t
            .schema()
            .iter_columns()
            .zip(values.iter())
            .filter(|((_, def), v)| def.searchable && v.as_text().is_some())
            .map(|((cid, _), v)| (cid, v.as_text().unwrap().to_string()))
            .collect();
        let tid = t.insert(values)?;
        for (cid, text) in searchable {
            self.inverted.add_cell(table, cid, tid, &text);
        }
        Ok(tid)
    }

    /// Restore one row slot during snapshot load: bypasses validation but
    /// rebuilds the inverted index for live searchable text cells.
    pub(crate) fn restore_slot(
        &mut self,
        table: TableId,
        live: bool,
        values: Vec<Value>,
    ) -> Result<()> {
        let Some(t) = self.tables.get_mut(&table) else { return Ok(()) };
        let searchable: Vec<(crate::schema::ColumnId, String)> = if live {
            t.schema()
                .iter_columns()
                .zip(values.iter())
                .filter(|((_, def), v)| def.searchable && v.as_text().is_some())
                .map(|((cid, _), v)| (cid, v.as_text().expect("filtered").to_string()))
                .collect()
        } else {
            Vec::new()
        };
        let tid = t.restore_slot(live, values)?;
        for (cid, text) in searchable {
            self.inverted.add_cell(table, cid, tid, &text);
        }
        Ok(())
    }

    /// Restore a foreign key during snapshot load, validating the
    /// referenced objects exist.
    pub(crate) fn restore_foreign_key(&mut self, fk: ForeignKey) -> Result<()> {
        let valid = self
            .tables
            .get(&fk.from_table)
            .map(|t| t.schema().column(fk.from_column).is_some())
            .unwrap_or(false)
            && self.tables.contains_key(&fk.to_table);
        if !valid {
            return Err(Error::InvalidSchema(format!(
                "snapshot foreign key references missing objects: {fk:?}"
            )));
        }
        self.catalog.add_foreign_key(fk);
        Ok(())
    }

    /// Fetch a live tuple by id.
    pub fn get(&self, tid: TupleId) -> Option<Tuple> {
        self.tables.get(&tid.table)?.get(tid)
    }

    /// Update a live tuple in place (id preserved), refreshing both the
    /// hash indexes and the inverted index.
    pub fn update(&mut self, tid: TupleId, values: Vec<Value>) -> Result<()> {
        let t = self.tables.get_mut(&tid.table).ok_or(Error::UnknownTuple(tid))?;
        let searchable: Vec<(crate::schema::ColumnId, String)> = t
            .schema()
            .iter_columns()
            .zip(values.iter())
            .filter(|((_, def), v)| def.searchable && v.as_text().is_some())
            .map(|((cid, _), v)| (cid, v.as_text().expect("filtered").to_string()))
            .collect();
        t.update(tid, values)?;
        self.inverted.remove_tuple(tid);
        for (cid, text) in searchable {
            self.inverted.add_cell(tid.table, cid, tid, &text);
        }
        Ok(())
    }

    /// Delete a tuple, cleaning its index entries. Returns true if it was live.
    pub fn delete(&mut self, tid: TupleId) -> bool {
        let Some(t) = self.tables.get_mut(&tid.table) else { return false };
        if t.delete(tid) {
            self.inverted.remove_tuple(tid);
            true
        } else {
            false
        }
    }

    /// Number of live tuples across all tables.
    pub fn total_tuples(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    /// Follow a foreign key from `tuple` to the referenced row, if any.
    pub fn follow_fk(&self, tuple: &Tuple, fk: &ForeignKey) -> Option<TupleId> {
        if tuple.id.table != fk.from_table {
            return None;
        }
        let key = tuple.get(fk.from_column)?;
        if key.is_null() {
            return None;
        }
        self.tables.get(&fk.to_table)?.lookup_key(key)
    }

    /// All tuples referencing `target` through any incoming foreign key.
    pub fn referencing(&self, target: TupleId) -> Vec<TupleId> {
        let Some(key_tuple) = self.get(target) else { return Vec::new() };
        let Some(key) = key_tuple.key() else { return Vec::new() };
        let mut out = Vec::new();
        for fk in self.catalog.incoming(target.table) {
            if let Some(t) = self.tables.get(&fk.from_table) {
                out.extend(t.lookup(fk.from_column, key));
            }
        }
        out
    }

    /// Materialize a restricted copy of this database containing only the
    /// given tuples (schemas, catalog and FKs are preserved; the inverted
    /// index covers only the surviving rows).
    ///
    /// This implements the *miniDB* of the paper's focal-based spreading
    /// search (§6.3): `KeywordSearch(q, miniDB)` runs unchanged over it.
    ///
    /// Note: tuple ids are **not** preserved — the returned map translates
    /// miniDB ids back to ids in `self`.
    pub fn materialize_subset(&self, tuples: &[TupleId]) -> (Database, HashMap<TupleId, TupleId>) {
        let mut mini = Database::new();
        // Recreate all tables so TableIds line up with the original catalog.
        for (tid, _name) in self.catalog.iter() {
            let schema = (**self.tables[&tid].schema()).clone();
            mini.create_table(schema).expect("fresh catalog cannot collide");
        }
        for fk in self.catalog.foreign_keys() {
            mini.catalog.add_foreign_key(*fk);
        }
        let mut back = HashMap::new();
        let mut sorted: Vec<TupleId> = tuples.to_vec();
        sorted.sort();
        sorted.dedup();
        for orig in sorted {
            if let Some(tuple) = self.get(orig) {
                // Skip rows whose PK already exists (duplicates collapse).
                match mini.insert_into(orig.table, tuple.values) {
                    Ok(new_id) => {
                        back.insert(new_id, orig);
                    }
                    Err(Error::DuplicateKey { .. }) => {}
                    Err(e) => unreachable!("subset insert cannot fail structurally: {e}"),
                }
            }
        }
        (mini, back)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::value::DataType;

    fn bio_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("gene")
                .column("gid", DataType::Text)
                .column("name", DataType::Text)
                .primary_key("gid")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("protein")
                .column("pid", DataType::Text)
                .column("pname", DataType::Text)
                .column("gene_id", DataType::Text)
                .primary_key("pid")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_foreign_key("protein", "gene_id", "gene").unwrap();
        db
    }

    #[test]
    fn create_insert_get() {
        let mut db = bio_db();
        let g = db.insert("gene", vec![Value::text("JW0013"), Value::text("grpC")]).unwrap();
        assert_eq!(db.get(g).unwrap().get_by_name("name"), Some(&Value::text("grpC")));
        assert_eq!(db.total_tuples(), 1);
    }

    #[test]
    fn inverted_index_tracks_inserts_and_deletes() {
        let mut db = bio_db();
        let g = db.insert("gene", vec![Value::text("JW0013"), Value::text("grpC")]).unwrap();
        assert_eq!(db.inverted_index().lookup("grpc").len(), 1);
        assert!(db.delete(g));
        assert_eq!(db.inverted_index().lookup("grpc").len(), 0);
    }

    #[test]
    fn update_refreshes_inverted_index() {
        let mut db = bio_db();
        let g = db.insert("gene", vec![Value::text("JW0013"), Value::text("grpC")]).unwrap();
        db.update(g, vec![Value::text("JW0013"), Value::text("renamedX")]).unwrap();
        assert_eq!(db.inverted_index().lookup("grpc").len(), 0, "old tokens gone");
        assert_eq!(db.inverted_index().lookup("renamedx").len(), 1);
        assert_eq!(db.get(g).unwrap().get_by_name("name"), Some(&Value::text("renamedX")));
    }

    #[test]
    fn follow_fk_and_referencing() {
        let mut db = bio_db();
        let g = db.insert("gene", vec![Value::text("JW0013"), Value::text("grpC")]).unwrap();
        let p = db
            .insert(
                "protein",
                vec![Value::text("P001"), Value::text("Actin"), Value::text("JW0013")],
            )
            .unwrap();
        let fk = db.catalog().foreign_keys()[0];
        let pt = db.get(p).unwrap();
        assert_eq!(db.follow_fk(&pt, &fk), Some(g));
        assert_eq!(db.referencing(g), vec![p]);
    }

    #[test]
    fn fk_to_table_without_pk_rejected() {
        let mut db = Database::new();
        db.create_table(TableSchema::builder("nopk").column("x", DataType::Int).build().unwrap())
            .unwrap();
        db.create_table(
            TableSchema::builder("src")
                .column("id", DataType::Int)
                .column("r", DataType::Int)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();
        assert!(db.add_foreign_key("src", "r", "nopk").is_err());
    }

    #[test]
    fn materialize_subset_preserves_schema_and_maps_ids() {
        let mut db = bio_db();
        let g1 = db.insert("gene", vec![Value::text("JW0013"), Value::text("grpC")]).unwrap();
        let _g2 = db.insert("gene", vec![Value::text("JW0014"), Value::text("groP")]).unwrap();
        let p = db
            .insert(
                "protein",
                vec![Value::text("P001"), Value::text("Actin"), Value::text("JW0013")],
            )
            .unwrap();

        let (mini, back) = db.materialize_subset(&[g1, p, g1]);
        assert_eq!(mini.total_tuples(), 2, "duplicates collapse");
        assert_eq!(mini.catalog().len(), db.catalog().len());
        assert_eq!(mini.catalog().foreign_keys().len(), 1);
        // Every miniDB tuple maps back to a real tuple.
        for (mini_id, orig_id) in &back {
            let a = mini.get(*mini_id).unwrap();
            let b = db.get(*orig_id).unwrap();
            assert_eq!(a.values, b.values);
        }
        // The miniDB's inverted index only covers surviving rows.
        assert_eq!(mini.inverted_index().lookup("grpc").len(), 1);
        assert_eq!(mini.inverted_index().lookup("grop").len(), 0);
    }
}
