//! Property-based tests for the keyword-search engine.

use proptest::prelude::*;
use relstore::{DataType, Database, TableSchema, Value};
use textsearch::{ExecutionMode, KeywordQuery, KeywordSearch, SearchOptions};

/// Random single-table database of short text rows.
fn build_db(rows: &[String]) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("item")
            .column("id", DataType::Int)
            .column("body", DataType::Text)
            .primary_key("id")
            .build()
            .unwrap(),
    )
    .unwrap();
    for (i, body) in rows.iter().enumerate() {
        db.insert("item", vec![Value::Int(i as i64), Value::text(body.clone())]).unwrap();
    }
    db
}

proptest! {
    /// Soundness: every hit actually contains at least one query token
    /// (hits come from ContainsToken predicates over the query's tokens).
    #[test]
    fn hits_contain_some_query_token(
        rows in proptest::collection::vec("[a-d]{1,3}( [a-d]{1,3}){0,3}", 1..15),
        query in "[a-d]{1,3}",
    ) {
        let db = build_db(&rows);
        let engine = KeywordSearch::new(SearchOptions {
            min_confidence: 0.0,
            ..Default::default()
        });
        let hits = engine.search(&KeywordQuery::new([query.clone()]), &db).unwrap();
        for h in hits {
            let tuple = db.get(h.tuple).unwrap();
            let body = tuple.get_by_name("body").unwrap().render();
            prop_assert!(
                body.split_whitespace().any(|w| w == query),
                "hit `{body}` lacks token `{query}`"
            );
            prop_assert!(h.confidence > 0.0 && h.confidence <= 1.0);
        }
    }

    /// Completeness for unique tokens: a token occurring in exactly one
    /// row is always found with that row first.
    #[test]
    fn unique_token_always_found(
        mut rows in proptest::collection::vec("[a-c]{1,3}( [a-c]{1,3}){0,2}", 1..10),
    ) {
        // Inject a guaranteed-unique token into one row.
        rows[0] = format!("{} zqx", rows[0]);
        let db = build_db(&rows);
        let engine = KeywordSearch::default();
        let hits = engine.search(&KeywordQuery::new(["zqx"]), &db).unwrap();
        prop_assert_eq!(hits.len(), 1);
        let body = db.get(hits[0].tuple).unwrap().get_by_name("body").unwrap().render();
        prop_assert!(body.contains("zqx"));
    }

    /// Shared and isolated group execution return identical hit sets for
    /// arbitrary query groups.
    #[test]
    fn sharing_preserves_semantics(
        rows in proptest::collection::vec("[a-d]{1,3}( [a-d]{1,3}){0,3}", 1..12),
        queries in proptest::collection::vec("[a-d]{1,3}", 1..6),
    ) {
        let db = build_db(&rows);
        let engine = KeywordSearch::new(SearchOptions {
            min_confidence: 0.0,
            ..Default::default()
        });
        let group: Vec<KeywordQuery> =
            queries.iter().map(|q| KeywordQuery::new([q.clone()])).collect();
        let (shared, _) = engine.search_group(&group, &db, ExecutionMode::Shared).unwrap();
        let (isolated, _) = engine.search_group(&group, &db, ExecutionMode::Isolated).unwrap();
        prop_assert_eq!(shared.len(), isolated.len());
        for (s, i) in shared.iter().zip(&isolated) {
            let st: Vec<_> = s.iter().map(|h| h.tuple).collect();
            let it: Vec<_> = i.iter().map(|h| h.tuple).collect();
            prop_assert_eq!(st, it);
        }
    }

    /// Raising the confidence floor can only shrink the answer.
    #[test]
    fn min_confidence_monotone(
        rows in proptest::collection::vec("[a-d]{1,3}( [a-d]{1,3}){0,3}", 1..12),
        query in "[a-d]{1,3}",
        floor in 0.0f64..=1.0,
    ) {
        let db = build_db(&rows);
        let loose = KeywordSearch::new(SearchOptions { min_confidence: 0.0, ..Default::default() });
        let strict = KeywordSearch::new(SearchOptions { min_confidence: floor, ..Default::default() });
        let q = KeywordQuery::new([query]);
        let all = loose.search(&q, &db).unwrap();
        let some = strict.search(&q, &db).unwrap();
        prop_assert!(some.len() <= all.len());
        let all_set: std::collections::HashSet<_> = all.iter().map(|h| h.tuple).collect();
        for h in some {
            prop_assert!(all_set.contains(&h.tuple));
        }
    }
}

/// Two FK-linked tables of short text rows for the executor differential.
fn build_joined_db(genes: &[(String, String)], proteins: &[(String, usize)]) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("gene")
            .column("gid", DataType::Int)
            .column("name", DataType::Text)
            .column("family", DataType::Text)
            .primary_key("gid")
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::builder("protein")
            .column("pid", DataType::Int)
            .column("pname", DataType::Text)
            .column("gene_id", DataType::Int)
            .primary_key("pid")
            .build()
            .unwrap(),
    )
    .unwrap();
    db.add_foreign_key("protein", "gene_id", "gene").unwrap();
    for (i, (name, family)) in genes.iter().enumerate() {
        let row =
            vec![Value::Int(i as i64), Value::text(name.clone()), Value::text(family.clone())];
        db.insert("gene", row).unwrap();
    }
    for (i, (pname, gene)) in proteins.iter().enumerate() {
        let gene = Value::Int((gene % genes.len()) as i64);
        db.insert("protein", vec![Value::Int(i as i64), Value::text(pname.clone()), gene]).unwrap();
    }
    db
}

proptest! {
    /// The memoizing executor against the reference executor, on random
    /// conjunctive queries (1–3 token predicates, 0–1 join step) over a
    /// database with deleted rows: the same tuples, and `inspected` — the
    /// budget's unit — equal to the size of each evaluated predicate's
    /// answer set (evaluation stops at the first empty prefix) plus the
    /// live base ids. Both with the index answering and with every probe
    /// failing over to a scan.
    #[test]
    fn shared_executor_agrees_with_the_reference_and_counts_answer_sets(
        genes in proptest::collection::vec(("[a-c]{1,2}( [a-c]{1,2}){0,2}", "[a-c]{1,2}"), 1..12),
        proteins in proptest::collection::vec(("[a-c]{1,2}( [a-c]{1,2}){0,2}", 0usize..12), 0..16),
        deleted in proptest::collection::vec(any::<prop::sample::Index>(), 0..4),
        base_is_gene in any::<bool>(),
        predicates in proptest::collection::vec((0usize..2, "[a-c]{1,2}"), 1..4),
        join in proptest::collection::vec((0usize..2, "[a-c]{1,2}"), 0..3),
        with_join in any::<bool>(),
    ) {
        use relstore::{ColumnId, ConjunctiveQuery, JoinStep, Predicate, TupleId};
        use textsearch::SharedExecutor;

        let mut db = build_joined_db(&genes, &proteins);
        let gene = db.catalog().resolve("gene").unwrap();
        let protein = db.catalog().resolve("protein").unwrap();
        for ix in &deleted {
            let victims: Vec<TupleId> = db.table(gene).unwrap().scan().map(|t| t.id).collect();
            if victims.len() > 1 {
                db.delete(victims[ix.index(victims.len())]);
            }
        }
        // Text columns: gene.name / gene.family, protein.pname (twice).
        let text_column = |table, pick: usize| match (table == gene, pick) {
            (true, 0) => ColumnId(1),
            (true, _) => ColumnId(2),
            (false, _) => ColumnId(1),
        };
        let (base, other) = if base_is_gene { (gene, protein) } else { (protein, gene) };
        let mut q = ConjunctiveQuery::scan(base);
        for (pick, token) in &predicates {
            q = q.with_predicate(Predicate::ContainsToken(text_column(base, *pick), token.clone()));
        }
        if with_join {
            q = q.with_join(JoinStep {
                table: other,
                predicates: join
                    .iter()
                    .map(|(pick, t)| Predicate::ContainsToken(text_column(other, *pick), t.clone()))
                    .collect(),
            });
        }

        // Answer sets by brute force over the live rows.
        let mut expected_inspected = 0usize;
        let mut survivors: Option<Vec<TupleId>> = None;
        for p in &q.predicates {
            let answer: Vec<TupleId> =
                db.table(base).unwrap().scan().filter(|t| p.matches(t)).map(|t| t.id).collect();
            expected_inspected += answer.len();
            let kept: Vec<TupleId> = match &survivors {
                None => answer,
                Some(prev) => prev.iter().copied().filter(|t| answer.contains(t)).collect(),
            };
            let exhausted = kept.is_empty();
            survivors = Some(kept);
            if exhausted {
                break;
            }
        }
        expected_inspected += survivors.map_or(0, |s| s.len());

        for plan in [None, Some(nebula_govern::FaultPlan::new(7).with_index_probe(1.0))] {
            nebula_govern::set_fault_plan(plan);
            let shared = SharedExecutor::new(&db).execute(&q);
            let reference = q.execute(&db);
            nebula_govern::set_fault_plan(None);
            let (shared, reference) = (shared.unwrap(), reference.unwrap());
            prop_assert_eq!(&shared.tuples, &reference.tuples);
            prop_assert_eq!(shared.inspected, expected_inspected);
        }
    }
}
