//! Multi-query shared execution.
//!
//! A single annotation generates *many* keyword queries at once, and their
//! compiled conjunctive queries overlap heavily — the same concept tokens
//! and value predicates recur across the group. [`SharedExecutor`]
//! exploits this by memoizing table-wide predicate evaluations, so a
//! predicate shared by `n` queries is evaluated once instead of `n` times
//! (the optimization the Nebula paper evaluates in Figure 13).
//!
//! [`ExecutionMode::Isolated`] runs every query with a cold memo —
//! the baseline each experiment compares against.

use relstore::schema::{ColumnId, TableId};
use relstore::{ConjunctiveQuery, Database, JoinStep, Predicate, QueryResult, TupleId, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::rc::Rc;

/// How a batch of queries is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Each query evaluated independently (cold caches).
    Isolated,
    /// Predicate evaluations shared across the whole batch.
    Shared,
}

/// Memo key for one table-wide predicate evaluation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum PredKey {
    Eq(TableId, ColumnId, Value),
    ContainsToken(TableId, ColumnId, String),
    NotNull(TableId, ColumnId),
}

impl PredKey {
    fn new(table: TableId, p: &Predicate) -> PredKey {
        match p {
            Predicate::Eq(c, v) => PredKey::Eq(table, *c, v.clone()),
            Predicate::ContainsToken(c, t) => PredKey::ContainsToken(table, *c, t.to_lowercase()),
            Predicate::NotNull(c) => PredKey::NotNull(table, *c),
        }
    }
}

/// Executes batches of conjunctive queries with predicate-level sharing.
#[derive(Debug)]
pub struct SharedExecutor<'a> {
    db: &'a Database,
    memo: HashMap<PredKey, IdSet<'a>>,
    /// Predicate evaluations actually performed (cache misses).
    pub evaluations: usize,
    /// Predicate evaluations answered from the memo.
    pub cache_hits: usize,
}

impl<'a> SharedExecutor<'a> {
    /// New executor over `db` with an empty memo.
    pub fn new(db: &'a Database) -> Self {
        SharedExecutor { db, memo: HashMap::new(), evaluations: 0, cache_hits: 0 }
    }

    /// Evaluate one predicate table-wide, memoized. Returns the sorted
    /// tuple ids satisfying it.
    fn eval_predicate(&mut self, table: TableId, p: &Predicate) -> IdSet<'a> {
        let key = PredKey::new(table, p);
        if let Some(hit) = self.memo.get(&key) {
            self.cache_hits += 1;
            return Rc::clone(hit);
        }
        self.evaluations += 1;
        let ids = self.eval_uncached(table, p);
        let rc = Rc::new(ids);
        self.memo.insert(key, Rc::clone(&rc));
        rc
    }

    fn eval_uncached(&self, table: TableId, p: &Predicate) -> Cow<'a, [TupleId]> {
        let Some(t) = self.db.table(table) else { return Cow::Borrowed(&[]) };
        let mut ids: Vec<TupleId> = match p {
            Predicate::Eq(c, v) => t.lookup(*c, v),
            Predicate::ContainsToken(..)
                if nebula_govern::inject(nebula_govern::FaultSite::IndexProbe).is_some() =>
            {
                // Injected index-probe failure: fall back to a table scan,
                // which yields the same live tuples the index would have.
                nebula_govern::note_recovered(nebula_govern::FaultSite::IndexProbe);
                t.scan().filter(|tuple| p.matches(tuple)).map(|tuple| tuple.id).collect()
            }
            // One group of the term directory: live tuples only, already
            // ascending and duplicate-free, borrowed when it is in RAM.
            Predicate::ContainsToken(c, token) => {
                return self.db.inverted_index().pair_tuples(token, table, *c);
            }
            Predicate::NotNull(c) => t
                .scan()
                .filter(|tuple| tuple.get(*c).map(|v| !v.is_null()).unwrap_or(false))
                .map(|tuple| tuple.id)
                .collect(),
        };
        ids.sort();
        ids.dedup();
        Cow::Owned(ids)
    }

    /// Execute one query through the memo.
    pub fn execute(&mut self, q: &ConjunctiveQuery) -> relstore::Result<QueryResult> {
        if let Some(fault) = nebula_govern::inject(nebula_govern::FaultSite::Query) {
            return Err(fault.into());
        }
        let mut inspected = 0usize;
        // Intersect per-predicate result sets, in query order; the first
        // predicate's memoized set is shared, not copied.
        let mut candidates: Option<IdSet<'a>> = None;
        for p in &q.predicates {
            let ids = self.eval_predicate(q.base, p);
            inspected += ids.len();
            nebula_govern::charge(nebula_govern::Resource::TuplesInspected, ids.len())?;
            let narrowed = match candidates.take() {
                None => ids,
                Some(prev) => Rc::new(Cow::Owned(intersect_sorted(&prev, &ids))),
            };
            if candidates.insert(narrowed).is_empty() {
                break;
            }
        }
        let Some(table) = self.db.table(q.base) else {
            return Ok(QueryResult { tuples: Vec::new(), inspected });
        };
        let base_ids: IdSet<'a> = match candidates {
            Some(ids) => ids,
            None => Rc::new(Cow::Owned(table.scan().map(|tuple| tuple.id).collect())),
        };
        // Apply join steps: a base tuple qualifies if every join step has a
        // partner in the step's qualifying set. Each set is built when the
        // first base tuple reaches its step and kept for the rest of the
        // query (outer `None`: not built yet; inner `None`: a step without
        // predicates). Base ids ascend, so the output does too.
        let mut qualifying: Vec<Option<Option<IdSet<'a>>>> = vec![None; q.joins.len()];
        let mut out = Vec::new();
        'tuples: for &tid in base_ids.iter() {
            if q.joins.is_empty() {
                // Nothing reads the row: liveness is all that is asked.
                if !table.is_live(tid) {
                    continue;
                }
                inspected += 1;
                nebula_govern::charge(nebula_govern::Resource::TuplesInspected, 1)?;
            } else {
                let Some(tuple) = self.db.get(tid) else { continue };
                inspected += 1;
                nebula_govern::charge(nebula_govern::Resource::TuplesInspected, 1)?;
                for (step, slot) in q.joins.iter().zip(&mut qualifying) {
                    let set = slot.get_or_insert_with(|| self.qualifying_set(step));
                    if !self.join_matches(&tuple, step, set) {
                        continue 'tuples;
                    }
                }
            }
            out.push(tid);
        }
        Ok(QueryResult { tuples: out, inspected })
    }

    /// Tuples of the joined table satisfying every predicate of the step,
    /// from memoized per-predicate sets (`None`: the step has no predicate,
    /// every partner qualifies).
    fn qualifying_set(&mut self, step: &JoinStep) -> Option<IdSet<'a>> {
        let mut acc: Option<IdSet<'a>> = None;
        for p in &step.predicates {
            let ids = self.eval_predicate(step.table, p);
            acc = Some(match acc {
                None => ids,
                Some(prev) => Rc::new(Cow::Owned(intersect_sorted(&prev, &ids))),
            });
        }
        acc
    }

    /// Whether `tuple` has a partner in `step.table` within the step's
    /// qualifying set.
    fn join_matches(
        &self,
        tuple: &relstore::Tuple,
        step: &JoinStep,
        set: &Option<IdSet<'a>>,
    ) -> bool {
        let holds = |pid: TupleId| match set {
            None => true,
            Some(ids) => ids.binary_search(&pid).is_ok(),
        };
        // Outgoing FK partners.
        for fk in self.db.catalog().outgoing(tuple.id.table) {
            if fk.to_table != step.table {
                continue;
            }
            if let Some(pid) = self.db.follow_fk(tuple, fk) {
                if holds(pid) {
                    return true;
                }
            }
        }
        // Incoming FK partners.
        for fk in self.db.catalog().incoming(tuple.id.table) {
            if fk.from_table != step.table {
                continue;
            }
            let Some(key) = tuple.key() else { continue };
            if let Some(t) = self.db.table(fk.from_table) {
                if t.lookup(fk.from_column, key).into_iter().any(holds) {
                    return true;
                }
            }
        }
        false
    }

    /// Execute a batch under the given mode, returning one result per
    /// query (in order).
    pub fn execute_batch(
        db: &Database,
        queries: &[ConjunctiveQuery],
        mode: ExecutionMode,
    ) -> relstore::Result<Vec<QueryResult>> {
        match mode {
            ExecutionMode::Shared => {
                let mut exec = SharedExecutor::new(db);
                queries.iter().map(|q| exec.execute(q)).collect()
            }
            ExecutionMode::Isolated => {
                queries.iter().map(|q| SharedExecutor::new(db).execute(q)).collect()
            }
        }
    }
}

/// A shared, strictly ascending answer set: borrowed from the term
/// directory when the index holds the group in RAM, owned otherwise.
type IdSet<'a> = Rc<Cow<'a, [TupleId]>>;

/// Intersection of two strictly ascending id lists: walk the shorter and
/// gallop through the longer, so the cost follows the shorter list.
fn intersect_sorted(a: &[TupleId], b: &[TupleId]) -> Vec<TupleId> {
    let (short, mut long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::new();
    for id in short {
        // Double the window until it holds the first element >= id.
        let mut bound = 1;
        while bound < long.len() && long[bound] < *id {
            bound *= 2;
        }
        let window = &long[bound / 2..long.len().min(bound + 1)];
        long = &long[bound / 2 + window.partition_point(|x| x < id)..];
        match long.first() {
            None => break,
            Some(hit) if hit == id => out.push(*id),
            Some(_) => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{DataType, TableSchema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("gene")
                .column("gid", DataType::Text)
                .column("name", DataType::Text)
                .indexed_column("family", DataType::Text)
                .primary_key("gid")
                .build()
                .unwrap(),
        )
        .unwrap();
        for (gid, name, fam) in [
            ("JW0013", "grpC", "F1"),
            ("JW0014", "groP", "F6"),
            ("JW0019", "yaaB", "F3"),
            ("JW0012", "yaaI", "F1"),
        ] {
            db.insert("gene", vec![Value::text(gid), Value::text(name), Value::text(fam)]).unwrap();
        }
        db
    }

    fn family_query(db: &Database, fam: &str) -> ConjunctiveQuery {
        let gene = db.catalog().resolve("gene").unwrap();
        let fcol = db.table(gene).unwrap().schema().column_id("family").unwrap();
        ConjunctiveQuery::scan(gene)
            .with_predicate(Predicate::ContainsToken(fcol, fam.to_lowercase()))
    }

    #[test]
    fn shared_matches_isolated_results() {
        let db = db();
        let queries =
            vec![family_query(&db, "F1"), family_query(&db, "F1"), family_query(&db, "F3")];
        let shared = SharedExecutor::execute_batch(&db, &queries, ExecutionMode::Shared).unwrap();
        let isolated =
            SharedExecutor::execute_batch(&db, &queries, ExecutionMode::Isolated).unwrap();
        for (s, i) in shared.iter().zip(&isolated) {
            assert_eq!(s.tuples, i.tuples);
        }
    }

    #[test]
    fn shared_mode_caches_repeated_predicates() {
        let db = db();
        let queries = vec![family_query(&db, "F1"); 5];
        let mut exec = SharedExecutor::new(&db);
        for q in &queries {
            exec.execute(q).unwrap();
        }
        assert_eq!(exec.evaluations, 1, "one real evaluation");
        assert_eq!(exec.cache_hits, 4, "four memo hits");
    }

    #[test]
    fn shared_matches_relstore_executor() {
        let db = db();
        let q = family_query(&db, "F1");
        let via_shared = SharedExecutor::new(&db).execute(&q).unwrap();
        let via_relstore = q.execute(&db).unwrap();
        assert_eq!(via_shared.tuples, via_relstore.tuples);
    }

    #[test]
    fn empty_intersection_short_circuits() {
        let db = db();
        let gene = db.catalog().resolve("gene").unwrap();
        let name = db.table(gene).unwrap().schema().column_id("name").unwrap();
        let fam = db.table(gene).unwrap().schema().column_id("family").unwrap();
        let q = ConjunctiveQuery::scan(gene)
            .with_predicate(Predicate::ContainsToken(name, "grpc".into()))
            .with_predicate(Predicate::ContainsToken(fam, "f6".into()));
        let r = SharedExecutor::new(&db).execute(&q).unwrap();
        assert!(r.tuples.is_empty());
    }

    #[test]
    fn intersect_sorted_works() {
        use relstore::schema::TableId;
        let t = |r| TupleId::new(TableId(0), r);
        assert_eq!(intersect_sorted(&[t(1), t(2), t(4)], &[t(2), t(3), t(4)]), vec![t(2), t(4)]);
        assert_eq!(intersect_sorted(&[], &[t(1)]), vec![]);
    }

    #[test]
    fn scan_query_returns_all() {
        let db = db();
        let gene = db.catalog().resolve("gene").unwrap();
        let r = SharedExecutor::new(&db).execute(&ConjunctiveQuery::scan(gene)).unwrap();
        assert_eq!(r.tuples.len(), 4);
    }

    fn db_with_fk() -> Database {
        let mut db = db();
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
        db.insert("protein", vec![Value::text("P1"), Value::text("Actin"), Value::text("JW0013")])
            .unwrap();
        db.insert("protein", vec![Value::text("P2"), Value::text("Kinase"), Value::text("JW0014")])
            .unwrap();
        db
    }

    #[test]
    fn join_through_memo_matches_relstore() {
        let db = db_with_fk();
        let gene = db.catalog().resolve("gene").unwrap();
        let protein = db.catalog().resolve("protein").unwrap();
        let pname = db.table(protein).unwrap().schema().column_id("pname").unwrap();
        // Genes having a protein named "actin" — incoming FK join.
        let q = ConjunctiveQuery::scan(gene).with_join(relstore::JoinStep {
            table: protein,
            predicates: vec![Predicate::ContainsToken(pname, "actin".into())],
        });
        let via_shared = SharedExecutor::new(&db).execute(&q).unwrap();
        let via_relstore = q.execute(&db).unwrap();
        assert_eq!(via_shared.tuples, via_relstore.tuples);
        assert_eq!(via_shared.tuples.len(), 1);

        // Outgoing direction: proteins of an F1 gene.
        let fam = db.table(gene).unwrap().schema().column_id("family").unwrap();
        let q2 = ConjunctiveQuery::scan(protein).with_join(relstore::JoinStep {
            table: gene,
            predicates: vec![Predicate::Eq(fam, Value::text("F1"))],
        });
        let a = SharedExecutor::new(&db).execute(&q2).unwrap();
        let b = q2.execute(&db).unwrap();
        assert_eq!(a.tuples, b.tuples);
        assert_eq!(a.tuples.len(), 1, "only P1's gene is in F1");
    }

    #[test]
    fn join_predicates_are_memoized_across_queries() {
        let db = db_with_fk();
        let gene = db.catalog().resolve("gene").unwrap();
        let protein = db.catalog().resolve("protein").unwrap();
        let pname = db.table(protein).unwrap().schema().column_id("pname").unwrap();
        let gname = db.table(gene).unwrap().schema().column_id("name").unwrap();
        let join = relstore::JoinStep {
            table: protein,
            predicates: vec![Predicate::ContainsToken(pname, "actin".into())],
        };
        let q1 = ConjunctiveQuery::scan(gene)
            .with_predicate(Predicate::ContainsToken(gname, "grpc".into()))
            .with_join(join.clone());
        let q2 = ConjunctiveQuery::scan(gene)
            .with_predicate(Predicate::ContainsToken(gname, "grop".into()))
            .with_join(join);
        let mut exec = SharedExecutor::new(&db);
        exec.execute(&q1).unwrap();
        let evals_after_first = exec.evaluations;
        exec.execute(&q2).unwrap();
        // Second query re-evaluates only its own base predicate; the join
        // predicate comes from the memo.
        assert_eq!(exec.evaluations, evals_after_first + 1);
        assert!(exec.cache_hits >= 1);
    }
}
