//! Compiling configurations into conjunctive ("SQL") queries
//! (step 3 of the metadata approach).
//!
//! Value mappings become `ContainsToken` predicates on their column
//! (multi-token keywords such as `G-Actin` contribute one predicate per
//! token); the mapped table of each group of value predicates becomes the
//! query's base table. Schema (table/column) mappings do not filter by
//! themselves — they *contextualize*: a table mapping consistent with the
//! values raises the query's confidence, and value groups on distinct
//! FK-adjacent tables are connected with join steps so each base tuple
//! must have a matching partner.
//!
//! A compiled query's confidence reflects its **joint selectivity**: the
//! expected number of matching rows under token independence. A query
//! whose predicates individually match thousands of rows but jointly pin
//! down a handful (the `PName & PType` combined reference of the paper's
//! ConceptRefs) is trusted accordingly.

use crate::config::Configuration;
use crate::mapping::{is_fk_column, value_weight, MappingKind};
use crate::token::normalize;
use relstore::index::tokenize;
use relstore::schema::{ColumnId, TableId};
use relstore::{ConjunctiveQuery, Database, JoinStep, Predicate};
use std::collections::BTreeMap;

/// Confidence multiplier when the configuration's table mapping agrees
/// with the base table of a compiled query.
const TABLE_CONTEXT_BOOST: f64 = 1.15;
/// Confidence multiplier when a column mapping agrees with a value
/// predicate's column.
const COLUMN_CONTEXT_BOOST: f64 = 1.1;

/// A conjunctive query with its confidence and provenance tokens.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledQuery {
    /// The executable query.
    pub query: ConjunctiveQuery,
    /// Confidence this query captures the intended semantics, `(0, 1]`.
    pub confidence: f64,
    /// The normalized keyword tokens the query searches for (evidence).
    pub tokens: Vec<String>,
}

/// Compile one configuration into zero or more queries.
///
/// `keywords` is the original keyword list the configuration's mapping
/// indexes refer to.
pub fn compile_configuration(
    db: &Database,
    config: &Configuration,
    keywords: &[String],
) -> Vec<CompiledQuery> {
    // Group value mappings by their table; each keyword expands to its
    // tokens.
    let mut groups: BTreeMap<TableId, Vec<(ColumnId, Vec<String>)>> = BTreeMap::new();
    for m in config.value_mappings() {
        if let MappingKind::Value(tid, cid) = m.kind {
            let tokens = tokenize(&normalize(&keywords[m.keyword]));
            if tokens.is_empty() {
                continue;
            }
            groups.entry(tid).or_default().push((cid, tokens));
        }
    }
    if groups.is_empty() {
        return Vec::new();
    }

    let mapped_tables: Vec<TableId> = config
        .table_mappings()
        .filter_map(|m| match m.kind {
            MappingKind::Table(t) => Some(t),
            _ => None,
        })
        .collect();
    let mapped_columns: Vec<(TableId, ColumnId)> = config
        .column_mappings()
        .filter_map(|m| match m.kind {
            MappingKind::Column(t, c) => Some((t, c)),
            _ => None,
        })
        .collect();

    let group_tables: Vec<TableId> = groups.keys().copied().collect();
    let mut out = Vec::new();
    for (base, members) in &groups {
        let rows = db.table(*base).map(|t| t.len()).unwrap_or(0).max(1);
        let mut q = ConjunctiveQuery::scan(*base);
        let mut tokens = Vec::new();
        // Joint expected matches under token independence.
        let mut expected = rows as f64;
        let mut fk_damp = 1.0;
        for (cid, kw_tokens) in members {
            if is_fk_column(db, *base, *cid) {
                fk_damp = 0.5;
            }
            for token in kw_tokens {
                q = q.with_predicate(Predicate::ContainsToken(*cid, token.clone()));
                tokens.push(token.clone());
                let df = db.inverted_index().pair_df(token, *base, *cid);
                expected *= df as f64 / rows as f64;
            }
        }
        let expected_rows = expected.ceil().max(if expected > 0.0 { 1.0 } else { 0.0 });
        let mut confidence = if expected_rows == 0.0 {
            0.0
        } else {
            let coverage = 1.0 - (expected_rows - 1.0) / rows as f64;
            value_weight(expected_rows as usize) * coverage.max(0.0) * fk_damp
        };
        for (cid, _) in members {
            if mapped_columns.contains(&(*base, *cid)) {
                confidence *= COLUMN_CONTEXT_BOOST;
            }
        }
        if mapped_tables.contains(base) {
            confidence *= TABLE_CONTEXT_BOOST;
        }
        // Join to other value groups when FK-adjacent: a base tuple only
        // qualifies if a related tuple matches the other group's values.
        for other in &group_tables {
            if other == base {
                continue;
            }
            let adjacent = db.catalog().neighbors(*base).contains(other);
            if adjacent {
                let join_preds: Vec<Predicate> = groups[other]
                    .iter()
                    .flat_map(|(cid, kw_tokens)| {
                        kw_tokens.iter().map(|t| Predicate::ContainsToken(*cid, t.clone()))
                    })
                    .collect();
                q = q.with_join(JoinStep { table: *other, predicates: join_preds });
            }
        }
        if confidence > 0.0 {
            out.push(CompiledQuery { query: q, confidence: confidence.min(1.0), tokens });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigurationGenerator;
    use crate::mapping::SchemaVocabulary;
    use relstore::{DataType, TableSchema, Value};

    fn db() -> Database {
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
                .column("ptype", DataType::Text)
                .column("gene_id", DataType::Text)
                .primary_key("pid")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_foreign_key("protein", "gene_id", "gene").unwrap();
        db.insert("gene", vec![Value::text("JW0013"), Value::text("grpC")]).unwrap();
        db.insert("gene", vec![Value::text("JW0014"), Value::text("groP")]).unwrap();
        // Several same-named proteins with different types: the combined
        // PName & PType reference is what disambiguates.
        for (pid, pname, ptype, gene) in [
            ("P001", "G-Actin", "structural", "JW0013"),
            ("P002", "G-Actin", "enzyme", "JW0013"),
            ("P003", "B-Kinase", "enzyme", "JW0014"),
        ] {
            db.insert(
                "protein",
                vec![Value::text(pid), Value::text(pname), Value::text(ptype), Value::text(gene)],
            )
            .unwrap();
        }
        db
    }

    fn top_config(db: &Database, kws: &[&str]) -> (Configuration, Vec<String>) {
        let vocab = SchemaVocabulary::new();
        let gen = ConfigurationGenerator::default();
        let keywords: Vec<String> = kws.iter().map(|s| s.to_string()).collect();
        let configs = gen.generate(db, &vocab, &keywords);
        (configs[0].clone(), keywords)
    }

    #[test]
    fn value_only_config_compiles_to_single_query() {
        let db = db();
        let (config, keywords) = top_config(&db, &["grpc"]);
        let qs = compile_configuration(&db, &config, &keywords);
        assert_eq!(qs.len(), 1);
        assert_eq!(qs[0].tokens, vec!["grpc"]);
        let r = qs[0].query.execute(&db).unwrap();
        assert_eq!(r.tuples.len(), 1);
    }

    #[test]
    fn hyphenated_keyword_expands_to_token_predicates() {
        let db = db();
        let (config, keywords) = top_config(&db, &["G-Actin"]);
        let qs = compile_configuration(&db, &config, &keywords);
        assert!(!qs.is_empty());
        let q = &qs[0];
        assert!(q.tokens.contains(&"g".to_string()));
        assert!(q.tokens.contains(&"actin".to_string()));
        let r = q.query.execute(&db).unwrap();
        assert_eq!(r.tuples.len(), 2, "both G-Actin proteins match");
    }

    #[test]
    fn joint_selectivity_rewards_combined_references() {
        let db = db();
        // Name alone matches 2 rows; name + type matches 1 — the combined
        // query must be at least as confident.
        let (loose_cfg, loose_kw) = top_config(&db, &["G-Actin"]);
        let loose = compile_configuration(&db, &loose_cfg, &loose_kw);
        let (tight_cfg, tight_kw) = top_config(&db, &["G-Actin", "structural"]);
        let tight = compile_configuration(&db, &tight_cfg, &tight_kw);
        let best = |v: &[CompiledQuery]| v.iter().map(|q| q.confidence).fold(0.0_f64, f64::max);
        assert!(best(&tight) >= best(&loose));
        // And it pins down exactly one protein.
        let top = tight.iter().max_by(|a, b| a.confidence.total_cmp(&b.confidence)).unwrap();
        assert_eq!(top.query.execute(&db).unwrap().tuples.len(), 1);
    }

    #[test]
    fn fk_column_hits_are_damped() {
        let db = db();
        // "JW0013" maps both to gene.gid (PK) and protein.gene_id (FK).
        let (config, keywords) = top_config(&db, &["JW0013"]);
        let qs = compile_configuration(&db, &config, &keywords);
        // The beam may keep either mapping; find queries per table.
        let gene_t = db.catalog().resolve("gene").unwrap();
        let all: Vec<CompiledQuery> = {
            let vocab = SchemaVocabulary::new();
            let gen = ConfigurationGenerator::default();
            gen.generate(&db, &vocab, &keywords)
                .iter()
                .flat_map(|c| compile_configuration(&db, c, &keywords))
                .collect()
        };
        let gene_conf = all
            .iter()
            .filter(|q| q.query.base == gene_t)
            .map(|q| q.confidence)
            .fold(0.0_f64, f64::max);
        let fk_conf = all
            .iter()
            .filter(|q| q.query.base != gene_t)
            .map(|q| q.confidence)
            .fold(0.0_f64, f64::max);
        assert!(gene_conf > fk_conf, "PK interpretation beats FK: {gene_conf} vs {fk_conf}");
        let _ = qs;
    }

    #[test]
    fn table_context_boosts_confidence() {
        // Use a non-unique value ("G-Actin", 2 rows) so the confidence is
        // below the cap and the boost is visible.
        let db = db();
        let (with_table, kws1) = top_config(&db, &["protein", "G-Actin"]);
        let q1 = compile_configuration(&db, &with_table, &kws1);
        let (without, kws2) = top_config(&db, &["G-Actin"]);
        let q2 = compile_configuration(&db, &without, &kws2);
        assert!(q1[0].confidence > q2[0].confidence);
    }

    #[test]
    fn values_in_two_adjacent_tables_produce_joined_queries() {
        let db = db();
        // "grpc" is a gene value; "kinase" a protein value; tables are
        // FK-adjacent so each compiled query joins to the other group.
        let (config, keywords) = top_config(&db, &["grpc", "B-Kinase"]);
        let qs = compile_configuration(&db, &config, &keywords);
        assert!(!qs.is_empty());
        for cq in &qs {
            if !cq.query.joins.is_empty() {
                let r = cq.query.execute(&db).unwrap();
                // grpC's gene (JW0013) has no B-Kinase, so the join
                // eliminates it.
                assert!(r.tuples.is_empty());
            }
        }
    }

    #[test]
    fn schema_only_config_compiles_to_nothing() {
        let db = db();
        let (config, keywords) = top_config(&db, &["gene"]);
        assert!(compile_configuration(&db, &config, &keywords).is_empty());
    }

    #[test]
    fn confidence_capped_at_one() {
        let db = db();
        let (config, keywords) = top_config(&db, &["gene", "name", "grpc"]);
        for q in compile_configuration(&db, &config, &keywords) {
            assert!(q.confidence <= 1.0);
        }
    }
}
