//! A small conjunctive-query layer.
//!
//! Keyword-search techniques over relational databases ultimately generate
//! *SQL queries* — conjunctive select/project/join plans. This module is
//! that target language: a [`ConjunctiveQuery`] names a base table, a set of
//! [`Predicate`]s over it, and a chain of FK [`JoinStep`]s whose predicates
//! constrain the joined tables.
//!
//! Execution is index-first: predicates that can be answered from a hash
//! index or the inverted index seed the candidate set; remaining predicates
//! are applied as filters.

use crate::database::Database;
use crate::error::{Error, Result};
use crate::schema::{ColumnId, TableId};
use crate::tuple::{Tuple, TupleId};
use crate::value::Value;
use std::collections::HashSet;
use std::fmt;

/// A single-column predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `col = value` (exact, typed).
    Eq(ColumnId, Value),
    /// The cell's tokenized text contains this token (case-insensitive).
    ContainsToken(ColumnId, String),
    /// `col` is not NULL.
    NotNull(ColumnId),
}

impl Predicate {
    /// Column the predicate constrains.
    pub fn column(&self) -> ColumnId {
        match self {
            Predicate::Eq(c, _) | Predicate::ContainsToken(c, _) | Predicate::NotNull(c) => *c,
        }
    }

    /// Evaluate against a tuple.
    pub fn matches(&self, tuple: &Tuple) -> bool {
        match self {
            Predicate::Eq(c, v) => tuple.get(*c) == Some(v),
            Predicate::ContainsToken(c, token) => {
                tuple.get(*c).and_then(Value::as_text).is_some_and(|text| {
                    let needle = token.to_lowercase();
                    crate::index::tokenize(text).contains(&needle)
                })
            }
            Predicate::NotNull(c) => tuple.get(*c).map(|v| !v.is_null()).unwrap_or(false),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Eq(c, v) => write!(f, "{c} = '{v}'"),
            Predicate::ContainsToken(c, t) => write!(f, "{c} CONTAINS '{t}'"),
            Predicate::NotNull(c) => write!(f, "{c} IS NOT NULL"),
        }
    }
}

/// One hop of an FK join: from the current table along a foreign key
/// (in either direction) into `table`, with extra predicates on it.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStep {
    /// The table joined in.
    pub table: TableId,
    /// Predicates over the joined table.
    pub predicates: Vec<Predicate>,
}

/// A conjunctive query: base table + predicates + optional FK-join chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctiveQuery {
    /// The table whose tuples are returned.
    pub base: TableId,
    /// Conjunctive predicates on the base table.
    pub predicates: Vec<Predicate>,
    /// FK joins; a base tuple qualifies only if every join step finds at
    /// least one matching partner.
    pub joins: Vec<JoinStep>,
}

/// Result of executing a query: qualifying base-table tuples, plus a count
/// of index probes / tuples inspected (used by the benchmarks to report
/// work done rather than wall-clock alone).
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Qualifying base-table tuple ids, in ascending order.
    pub tuples: Vec<TupleId>,
    /// Number of tuples the executor materialized and inspected.
    pub inspected: usize,
}

impl ConjunctiveQuery {
    /// A query over `base` with no predicates (full scan).
    pub fn scan(base: TableId) -> Self {
        ConjunctiveQuery { base, predicates: Vec::new(), joins: Vec::new() }
    }

    /// Add a predicate on the base table.
    pub fn with_predicate(mut self, p: Predicate) -> Self {
        self.predicates.push(p);
        self
    }

    /// Add a join step.
    pub fn with_join(mut self, j: JoinStep) -> Self {
        self.joins.push(j);
        self
    }

    /// Execute against `db`.
    pub fn execute(&self, db: &Database) -> Result<QueryResult> {
        let table = db
            .table(self.base)
            .ok_or_else(|| Error::InvalidQuery(format!("unknown base table {}", self.base)))?;
        for p in &self.predicates {
            if table.schema().column(p.column()).is_none() {
                return Err(Error::InvalidQuery(format!(
                    "predicate column {} out of range for table `{}`",
                    p.column(),
                    table.schema().name
                )));
            }
        }

        if let Some(fault) = nebula_govern::inject(nebula_govern::FaultSite::Query) {
            return Err(Error::FaultInjected(fault));
        }

        nebula_obs::counter_add("relstore.queries_executed", 1);
        let mut inspected = 0usize;

        // Seed the candidate set from the most selective indexable predicate.
        let seed: Option<Vec<TupleId>> = self.seed_candidates(db);
        let candidates: Vec<Tuple> = match seed {
            Some(ids) => ids.into_iter().filter_map(|tid| db.get(tid)).collect(),
            None => table.scan().collect(),
        };

        let mut out = Vec::new();
        for tuple in candidates {
            inspected += 1;
            nebula_govern::charge(nebula_govern::Resource::TuplesInspected, 1)?;
            if !self.predicates.iter().all(|p| p.matches(&tuple)) {
                continue;
            }
            if !self.joins.iter().all(|j| {
                let (ok, seen) = join_matches(db, &tuple, j);
                inspected += seen;
                ok
            }) {
                continue;
            }
            out.push(tuple.id);
        }
        out.sort();
        out.dedup();
        nebula_obs::counter_add("relstore.tuples_scanned", inspected as u64);
        Ok(QueryResult { tuples: out, inspected })
    }

    /// Try to answer one predicate from an index to seed candidates.
    fn seed_candidates(&self, db: &Database) -> Option<Vec<TupleId>> {
        // An injected index-probe failure degrades to the full-scan path,
        // which produces identical results — recovery without retry.
        if nebula_govern::inject(nebula_govern::FaultSite::IndexProbe).is_some() {
            nebula_govern::note_recovered(nebula_govern::FaultSite::IndexProbe);
            return None;
        }
        let table = db.table(self.base)?;
        // Prefer Eq on an indexed column, then ContainsToken via the
        // inverted index.
        for p in &self.predicates {
            if let Predicate::Eq(c, v) = p {
                let hits = table.lookup(*c, v);
                if table.schema().column(*c).map(|d| d.indexed).unwrap_or(false) {
                    // Inverted-index probes are counted inside the index;
                    // key-index probes are counted here.
                    nebula_obs::counter_add("relstore.index_probes", 1);
                    return Some(hits);
                }
            }
        }
        for p in &self.predicates {
            if let Predicate::ContainsToken(c, token) = p {
                return Some(db.inverted_index().pair_tuples(token, self.base, *c).into_owned());
            }
        }
        None
    }
}

/// Does `tuple` have at least one join partner in `step.table` satisfying
/// the step's predicates? Returns `(matched, partners_inspected)`.
fn join_matches(db: &Database, tuple: &Tuple, step: &JoinStep) -> (bool, usize) {
    let mut inspected = 0usize;
    // Outgoing FKs: tuple.table -> step.table
    for fk in db.catalog().outgoing(tuple.id.table) {
        if fk.to_table != step.table {
            continue;
        }
        if let Some(partner_id) = db.follow_fk(tuple, fk) {
            if let Some(partner) = db.get(partner_id) {
                inspected += 1;
                if step.predicates.iter().all(|p| p.matches(&partner)) {
                    return (true, inspected);
                }
            }
        }
    }
    // Incoming FKs: step.table -> tuple.table
    for fk in db.catalog().incoming(tuple.id.table) {
        if fk.from_table != step.table {
            continue;
        }
        let Some(key) = tuple.key() else { continue };
        if let Some(t) = db.table(fk.from_table) {
            for partner_id in t.lookup(fk.from_column, key) {
                if let Some(partner) = db.get(partner_id) {
                    inspected += 1;
                    if step.predicates.iter().all(|p| p.matches(&partner)) {
                        return (true, inspected);
                    }
                }
            }
        }
    }
    (false, inspected)
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT * FROM {}", self.base)?;
        let mut first = true;
        for p in &self.predicates {
            write!(f, "{} {p}", if first { " WHERE" } else { " AND" })?;
            first = false;
        }
        for j in &self.joins {
            write!(f, " JOIN {}", j.table)?;
            for p in &j.predicates {
                write!(f, " ON {p}")?;
            }
        }
        Ok(())
    }
}

/// Deduplicate a batch of tuple ids preserving ascending order.
pub fn dedup_ids(ids: impl IntoIterator<Item = TupleId>) -> Vec<TupleId> {
    let set: HashSet<TupleId> = ids.into_iter().collect();
    let mut v: Vec<TupleId> = set.into_iter().collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::value::DataType;

    fn db() -> (Database, TableId, TableId) {
        let mut db = Database::new();
        let gene = db
            .create_table(
                TableSchema::builder("gene")
                    .column("gid", DataType::Text)
                    .column("name", DataType::Text)
                    .indexed_column("family", DataType::Text)
                    .primary_key("gid")
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let protein = db
            .create_table(
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
        for (gid, name, fam) in [
            ("JW0013", "grpC", "F1"),
            ("JW0014", "groP", "F6"),
            ("JW0019", "yaaB", "F3"),
            ("JW0012", "yaaI", "F1"),
        ] {
            db.insert("gene", vec![Value::text(gid), Value::text(name), Value::text(fam)]).unwrap();
        }
        db.insert(
            "protein",
            vec![Value::text("P001"), Value::text("G-Actin"), Value::text("JW0013")],
        )
        .unwrap();
        (db, gene, protein)
    }

    #[test]
    fn eq_predicate_on_indexed_column() {
        let (db, gene, _) = db();
        let fam = db.table(gene).unwrap().schema().column_id("family").unwrap();
        let q = ConjunctiveQuery::scan(gene).with_predicate(Predicate::Eq(fam, Value::text("F1")));
        let r = q.execute(&db).unwrap();
        assert_eq!(r.tuples.len(), 2);
        // Index seeding: only the two F1 rows inspected, not all four.
        assert_eq!(r.inspected, 2);
    }

    #[test]
    fn contains_token_uses_inverted_index() {
        let (db, gene, _) = db();
        let name = db.table(gene).unwrap().schema().column_id("name").unwrap();
        let q = ConjunctiveQuery::scan(gene)
            .with_predicate(Predicate::ContainsToken(name, "GRPC".into()));
        let r = q.execute(&db).unwrap();
        assert_eq!(r.tuples.len(), 1);
        assert_eq!(r.inspected, 1);
    }

    #[test]
    fn conjunction_filters() {
        let (db, gene, _) = db();
        let schema = db.table(gene).unwrap().schema().clone();
        let fam = schema.column_id("family").unwrap();
        let name = schema.column_id("name").unwrap();
        let q = ConjunctiveQuery::scan(gene)
            .with_predicate(Predicate::Eq(fam, Value::text("F1")))
            .with_predicate(Predicate::ContainsToken(name, "yaai".into()));
        let r = q.execute(&db).unwrap();
        assert_eq!(r.tuples.len(), 1);
        let t = db.get(r.tuples[0]).unwrap();
        assert_eq!(t.get_by_name("gid"), Some(&Value::text("JW0012")));
    }

    #[test]
    fn full_scan_when_no_predicates() {
        let (db, gene, _) = db();
        let r = ConjunctiveQuery::scan(gene).execute(&db).unwrap();
        assert_eq!(r.tuples.len(), 4);
        assert_eq!(r.inspected, 4);
    }

    #[test]
    fn join_outgoing_direction() {
        let (db, gene, protein) = db();
        // proteins whose gene is in family F1
        let fam = db.table(gene).unwrap().schema().column_id("family").unwrap();
        let q = ConjunctiveQuery::scan(protein).with_join(JoinStep {
            table: gene,
            predicates: vec![Predicate::Eq(fam, Value::text("F1"))],
        });
        let r = q.execute(&db).unwrap();
        assert_eq!(r.tuples.len(), 1);
    }

    #[test]
    fn join_incoming_direction() {
        let (db, gene, protein) = db();
        // genes that have at least one protein named like "actin"
        let pname = db.table(protein).unwrap().schema().column_id("pname").unwrap();
        let q = ConjunctiveQuery::scan(gene).with_join(JoinStep {
            table: protein,
            predicates: vec![Predicate::ContainsToken(pname, "actin".into())],
        });
        let r = q.execute(&db).unwrap();
        assert_eq!(r.tuples.len(), 1);
        assert_eq!(db.get(r.tuples[0]).unwrap().get_by_name("gid"), Some(&Value::text("JW0013")));
    }

    #[test]
    fn join_with_no_partner_excludes_tuple() {
        let (db, gene, protein) = db();
        let pname = db.table(protein).unwrap().schema().column_id("pname").unwrap();
        let q = ConjunctiveQuery::scan(gene).with_join(JoinStep {
            table: protein,
            predicates: vec![Predicate::ContainsToken(pname, "nonexistent".into())],
        });
        assert!(q.execute(&db).unwrap().tuples.is_empty());
    }

    #[test]
    fn invalid_query_errors() {
        let (db, gene, _) = db();
        let q = ConjunctiveQuery::scan(TableId(99));
        assert!(q.execute(&db).is_err());
        let q = ConjunctiveQuery::scan(gene).with_predicate(Predicate::NotNull(ColumnId(99)));
        assert!(q.execute(&db).is_err());
    }

    #[test]
    fn not_null_predicate() {
        let (mut db, gene, _) = db();
        db.insert("gene", vec![Value::text("JW0999"), Value::Null, Value::Null]).unwrap();
        let name = db.table(gene).unwrap().schema().column_id("name").unwrap();
        let q = ConjunctiveQuery::scan(gene).with_predicate(Predicate::NotNull(name));
        assert_eq!(q.execute(&db).unwrap().tuples.len(), 4);
    }

    #[test]
    fn display_is_sql_like() {
        let (db, gene, _) = db();
        let fam = db.table(gene).unwrap().schema().column_id("family").unwrap();
        let q = ConjunctiveQuery::scan(gene).with_predicate(Predicate::Eq(fam, Value::text("F1")));
        let s = q.to_string();
        assert!(s.starts_with("SELECT * FROM"));
        assert!(s.contains("WHERE"));
    }

    #[test]
    fn dedup_ids_sorts_and_dedups() {
        let a = TupleId::new(TableId(0), 2);
        let b = TupleId::new(TableId(0), 1);
        assert_eq!(dedup_ids(vec![a, b, a]), vec![b, a]);
    }
}
