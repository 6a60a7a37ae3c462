//! The catalog: table registry plus the FK–PK relationship graph.

use crate::error::{Error, Result};
use crate::schema::{ColumnId, TableId};
use std::collections::HashMap;

/// A foreign-key relationship: `from_table.from_column` references
/// `to_table`'s primary key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ForeignKey {
    /// Referencing table.
    pub from_table: TableId,
    /// Referencing column.
    pub from_column: ColumnId,
    /// Referenced table (keyed by its primary key).
    pub to_table: TableId,
}

/// Catalog of table names/ids and declared foreign keys.
///
/// The keyword-search layer walks the FK graph to join tuples from related
/// tables into meaningful answers, so the catalog exposes neighbor queries
/// in both directions.
#[derive(Debug, Default)]
pub struct Catalog {
    by_name: HashMap<String, TableId>,
    names: Vec<String>,
    foreign_keys: Vec<ForeignKey>,
}

impl Catalog {
    /// Register a new table name, returning its id.
    pub fn register(&mut self, name: &str) -> Result<TableId> {
        let key = name.to_lowercase();
        if self.by_name.contains_key(&key) {
            return Err(Error::TableExists(name.to_string()));
        }
        let id = TableId(self.names.len() as u32);
        self.by_name.insert(key, id);
        self.names.push(name.to_string());
        Ok(id)
    }

    /// Resolve a table name (case-insensitive).
    pub fn resolve(&self, name: &str) -> Option<TableId> {
        self.by_name.get(&name.to_lowercase()).copied()
    }

    /// Resolve or error.
    pub fn require(&self, name: &str) -> Result<TableId> {
        self.resolve(name).ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    /// The display name of a table id.
    pub fn name(&self, id: TableId) -> Option<&str> {
        self.names.get(id.0 as usize).map(String::as_str)
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(TableId, name)`.
    pub fn iter(&self) -> impl Iterator<Item = (TableId, &str)> {
        self.names.iter().enumerate().map(|(i, n)| (TableId(i as u32), n.as_str()))
    }

    /// Declare a foreign key. Returns false if it was already declared.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) -> bool {
        if self.foreign_keys.contains(&fk) {
            return false;
        }
        self.foreign_keys.push(fk);
        true
    }

    /// All declared foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Foreign keys whose referencing side is `table`.
    pub fn outgoing(&self, table: TableId) -> impl Iterator<Item = &ForeignKey> {
        self.foreign_keys.iter().filter(move |fk| fk.from_table == table)
    }

    /// Foreign keys whose referenced side is `table`.
    pub fn incoming(&self, table: TableId) -> impl Iterator<Item = &ForeignKey> {
        self.foreign_keys.iter().filter(move |fk| fk.to_table == table)
    }

    /// Tables adjacent to `table` in the FK graph (either direction),
    /// deduplicated.
    pub fn neighbors(&self, table: TableId) -> Vec<TableId> {
        let mut out: Vec<TableId> = self
            .outgoing(table)
            .map(|fk| fk.to_table)
            .chain(self.incoming(table).map(|fk| fk.from_table))
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_resolve() {
        let mut c = Catalog::default();
        let g = c.register("Gene").unwrap();
        let p = c.register("Protein").unwrap();
        assert_eq!(c.resolve("gene"), Some(g));
        assert_eq!(c.resolve("PROTEIN"), Some(p));
        assert_eq!(c.resolve("nope"), None);
        assert_eq!(c.name(g), Some("Gene"));
        assert_eq!(c.len(), 2);
        assert!(matches!(c.register("GENE"), Err(Error::TableExists(_))));
    }

    #[test]
    fn require_errors() {
        let c = Catalog::default();
        assert!(matches!(c.require("x"), Err(Error::UnknownTable(_))));
    }

    #[test]
    fn fk_graph_neighbors() {
        let mut c = Catalog::default();
        let gene = c.register("gene").unwrap();
        let protein = c.register("protein").unwrap();
        let publication = c.register("publication").unwrap();
        // protein.gene_id -> gene
        c.add_foreign_key(ForeignKey {
            from_table: protein,
            from_column: ColumnId(2),
            to_table: gene,
        });
        // publication_protein join is modeled as publication fk for the test
        c.add_foreign_key(ForeignKey {
            from_table: publication,
            from_column: ColumnId(1),
            to_table: protein,
        });

        assert_eq!(c.neighbors(protein), vec![gene, publication]);
        assert_eq!(c.neighbors(gene), vec![protein]);
        assert_eq!(c.outgoing(protein).count(), 1);
        assert_eq!(c.incoming(protein).count(), 1);
    }

    #[test]
    fn duplicate_fk_ignored() {
        let mut c = Catalog::default();
        let a = c.register("a").unwrap();
        let b = c.register("b").unwrap();
        let fk = ForeignKey { from_table: a, from_column: ColumnId(0), to_table: b };
        assert!(c.add_foreign_key(fk));
        assert!(!c.add_foreign_key(fk));
        assert_eq!(c.foreign_keys().len(), 1);
    }
}
