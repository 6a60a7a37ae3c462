//! Tuples (rows) and their stable identifiers.

use crate::schema::{ColumnId, TableId, TableSchema};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Globally unique, stable identifier of a row: `(table, row slot)`.
///
/// `TupleId`s never change once assigned and are never reused, which makes
/// them safe to store in annotation attachments and in the ACG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId {
    /// Owning table.
    pub table: TableId,
    /// Row slot within the table (dense, append-ordered).
    pub row: u64,
}

impl TupleId {
    /// Construct a tuple id.
    pub fn new(table: TableId, row: u64) -> Self {
        TupleId { table, row }
    }
}

/// The `(table, row)` pair a tuple id travels as on disk and on the wire.
impl From<(u32, u64)> for TupleId {
    fn from((table, row): (u32, u64)) -> Self {
        TupleId::new(TableId(table), row)
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.table, self.row)
    }
}

/// A materialized row: its id, schema handle, and values.
#[derive(Debug, Clone)]
pub struct Tuple {
    /// Stable identity.
    pub id: TupleId,
    /// Schema of the owning table (shared).
    pub schema: Arc<TableSchema>,
    /// Cell values in schema column order.
    pub values: Vec<Value>,
}

impl Tuple {
    /// Value of column `col`, if in range.
    pub fn get(&self, col: ColumnId) -> Option<&Value> {
        self.values.get(col.index())
    }

    /// Value of the named column.
    pub fn get_by_name(&self, name: &str) -> Option<&Value> {
        self.schema.column_id(name).and_then(|c| self.get(c))
    }

    /// The primary-key value, if the table has a primary key.
    pub fn key(&self) -> Option<&Value> {
        self.schema.primary_key.and_then(|pk| self.get(pk))
    }

    /// Render the row as `table(col=val, ...)` for logs and evidence strings.
    pub fn render(&self) -> String {
        let cols: Vec<String> = self
            .schema
            .iter_columns()
            .zip(&self.values)
            .map(|((_, def), v)| format!("{}={}", def.name, v))
            .collect();
        format!("{}({})", self.schema.name, cols.join(", "))
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Tuple {}

impl std::hash::Hash for Tuple {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn sample() -> Tuple {
        let schema = Arc::new(
            TableSchema::builder("gene")
                .column("gid", DataType::Text)
                .column("length", DataType::Int)
                .primary_key("gid")
                .build()
                .unwrap(),
        );
        Tuple {
            id: TupleId::new(TableId(1), 7),
            schema,
            values: vec![Value::text("JW0013"), Value::Int(1130)],
        }
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.get(ColumnId(0)), Some(&Value::text("JW0013")));
        assert_eq!(t.get_by_name("length"), Some(&Value::Int(1130)));
        assert_eq!(t.get_by_name("nope"), None);
        assert_eq!(t.key(), Some(&Value::text("JW0013")));
    }

    #[test]
    fn identity_semantics() {
        let a = sample();
        let mut b = sample();
        b.values[1] = Value::Int(999);
        // Equality is identity-based: same TupleId, different contents.
        assert_eq!(a, b);
        let mut c = sample();
        c.id = TupleId::new(TableId(1), 8);
        assert_ne!(a, c);
    }

    #[test]
    fn render_contains_all_cells() {
        let r = sample().render();
        assert!(r.contains("gene("));
        assert!(r.contains("gid=JW0013"));
        assert!(r.contains("length=1130"));
    }

    #[test]
    fn tuple_id_display() {
        assert_eq!(TupleId::new(TableId(2), 5).to_string(), "T2:5");
    }
}
