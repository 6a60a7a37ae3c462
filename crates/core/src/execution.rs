//! Executing generated keyword queries — `IdentifyRelatedTuples()`
//! (paper §6.1, Figure 5) plus the focal-based confidence adjustment
//! (§6.2).
//!
//! Step 1 submits each keyword query to the underlying search technique
//! and scales each answer tuple's confidence by the query's weight.
//! Step 2 groups tuples across queries, *rewarding* tuples that satisfy
//! several queries of the same annotation, and (optionally) applies the
//! ACG focal reward. Step 3 normalizes confidences relative to the
//! maximum.

use crate::acg::Acg;
use crate::querygen::GeneratedQuery;
use relstore::{Database, TupleId};
use std::collections::HashMap;
use textsearch::{ExecutionMode, KeywordQuery, SearchBackend, SearchError, SearchStats};

/// A candidate attachment: a tuple the annotation likely references.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The candidate tuple (in the coordinate space of the searched
    /// database — callers translate miniDB ids back).
    pub tuple: TupleId,
    /// Normalized confidence in `(0, 1]`.
    pub confidence: f64,
    /// The generated queries this tuple satisfied, rendered as evidence
    /// strings for the verification task (§7: `v.evidence`).
    pub evidence: Vec<String>,
}

/// How the ACG rewards candidates connected to the focal (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcgRewardMode {
    /// Only direct edges to focal tuples reward (the paper's default —
    /// it judges the multi-hop variant "semantically weaker and may cause
    /// model overfitting").
    Direct,
    /// The §6.2 extension: indirect connections reward too, with the
    /// product of edge weights along the shortest path (capped hops).
    Path {
        /// Maximum path length considered.
        max_hops: usize,
    },
}

/// Knobs of the execution stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionConfig {
    /// Execute the query group isolated or shared (§6 / Figure 13).
    pub mode: ExecutionMode,
    /// Apply the ACG focal-based confidence adjustment (§6.2).
    pub acg_adjustment: bool,
    /// Direct-edge or shortest-path reward.
    pub reward: AcgRewardMode,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            mode: ExecutionMode::Shared,
            acg_adjustment: true,
            reward: AcgRewardMode::Direct,
        }
    }
}

/// `IdentifyRelatedTuples()`: execute the queries and produce ranked
/// candidate tuples.
///
/// `focal` is the annotation's focal (excluded from the candidates —
/// those attachments already exist — and used for the ACG reward).
/// Returns the candidates sorted by descending confidence, plus search
/// work counters. Fails when the installed budget trips mid-search or a
/// fault plan injects an unrecovered error.
pub fn identify_related_tuples(
    db: &Database,
    engine: &dyn SearchBackend,
    queries: &[GeneratedQuery],
    focal: &[TupleId],
    acg: Option<&Acg>,
    config: &ExecutionConfig,
) -> Result<(Vec<Candidate>, SearchStats), SearchError> {
    // Step 1: execute each keyword query; scale hit confidence by the
    // query's weight.
    let kw_queries: Vec<KeywordQuery> = queries
        .iter()
        .map(|q| KeywordQuery::new(q.keywords.clone()).with_weight(q.weight))
        .collect();
    let (per_query_hits, stats) = engine.run_group(&kw_queries, db, config.mode)?;

    // Candidate attachments are restricted to the *concept* tables the
    // queries anchor on (Definition 3.2's embedded references point at
    // ConceptRefs concepts); hits on other tables — e.g. free-text rows
    // that merely quote the same tokens — are not attachment candidates.
    let anchor_tables: std::collections::HashSet<relstore::schema::TableId> =
        queries.iter().map(|q| q.anchor_table).collect();

    // Step 2: group tuples across queries and sum confidences (rewarding
    // tuples that satisfy multiple queries), collecting evidence.
    let mut conf: HashMap<TupleId, f64> = HashMap::new();
    let mut evidence: HashMap<TupleId, Vec<String>> = HashMap::new();
    for (gq, hits) in queries.iter().zip(&per_query_hits) {
        let rendered = format!("q{{{}}} (w={:.2})", gq.keywords.join(" "), gq.weight);
        for hit in hits {
            if !anchor_tables.contains(&hit.tuple.table) {
                continue;
            }
            let weighted = hit.confidence * gq.weight;
            *conf.entry(hit.tuple).or_insert(0.0) += weighted;
            evidence.entry(hit.tuple).or_default().push(rendered.clone());
        }
    }

    // The focal tuples themselves are already attached — drop them.
    for f in focal {
        conf.remove(f);
        evidence.remove(f);
    }

    // §6.2 focal-based adjustment: for each ACG connection between t and
    // a focal tuple, t.conf += connection_weight × t.conf.
    if config.acg_adjustment {
        if let Some(acg) = acg {
            for (t, c) in conf.iter_mut() {
                for f in focal {
                    let w = match config.reward {
                        AcgRewardMode::Direct => acg.edge_weight(*t, *f),
                        AcgRewardMode::Path { max_hops } => acg.path_weight(*t, *f, max_hops),
                    };
                    if let Some(w) = w {
                        *c += w * *c;
                    }
                }
            }
        }
    }

    // Step 3: normalize into [0, 1]. The paper divides by the maximum
    // confidence; we instead *cap* at 1.0. Dividing by the max has two
    // failure modes the β-bound routing cannot recover from: an
    // annotation whose queries were all noise still gets a candidate at
    // confidence 1.0 (guaranteeing a false auto-accept), and the ACG
    // reward inflating one candidate suppresses every *unconnected* true
    // reference below β_lower. Capping keeps confidences absolute, which
    // is what the adaptive bounds need (see DESIGN.md).
    let mut raw: Vec<(TupleId, f64)> = conf.into_iter().collect();
    // Rank by the *uncapped* confidence so the ordering distinguishes
    // candidates whose routing confidence saturates at 1.0.
    raw.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut out: Vec<Candidate> = raw
        .into_iter()
        .map(|(tuple, c)| Candidate {
            tuple,
            confidence: c.min(1.0),
            evidence: evidence.remove(&tuple).unwrap_or_default(),
        })
        .collect();
    // Budget governance: keep only as many ranked candidates as the
    // installed budget admits (the list is already sorted by descending
    // confidence, so the weakest are dropped). A no-op when ungoverned.
    let allowed = nebula_govern::admit(nebula_govern::Resource::Candidates, out.len());
    out.truncate(allowed);
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{ConceptRef, NebulaMeta};
    use crate::patterns::Pattern;
    use crate::querygen::{generate_queries, QueryGenConfig};
    use annostore::{Annotation, AnnotationStore, AttachmentTarget};
    use relstore::{DataType, TableSchema, Value};
    use textsearch::KeywordSearch;

    fn setup() -> (Database, NebulaMeta, Vec<TupleId>) {
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
        let mut ids = Vec::new();
        for (gid, name) in
            [("JW0013", "grpC"), ("JW0014", "groP"), ("JW0019", "yaaB"), ("JW0012", "yaaI")]
        {
            ids.push(db.insert("gene", vec![Value::text(gid), Value::text(name)]).unwrap());
        }
        let mut meta = NebulaMeta::new();
        meta.add_concept(ConceptRef {
            concept: "Gene".into(),
            table: "gene".into(),
            referenced_by: vec![vec!["gid".into()], vec!["name".into()]],
        });
        meta.set_pattern("gene", "gid", Pattern::compile("JW[0-9]{4}").unwrap());
        meta.set_pattern("gene", "name", Pattern::compile("[a-z]{3}[A-Z]").unwrap());
        (db, meta, ids)
    }

    fn run(
        db: &Database,
        meta: &NebulaMeta,
        text: &str,
        focal: &[TupleId],
        acg: Option<&Acg>,
        config: &ExecutionConfig,
    ) -> Vec<Candidate> {
        let queries = generate_queries(db, meta, text, &QueryGenConfig::default());
        let engine = KeywordSearch::default();
        identify_related_tuples(db, &engine, &queries, focal, acg, config)
            .expect("ungoverned search cannot fail")
            .0
    }

    #[test]
    fn discovers_referenced_tuples() {
        let (db, meta, ids) = setup();
        let cands = run(
            &db,
            &meta,
            "this gene correlates with JW0014 and also grpC",
            &[ids[2]],
            None,
            &ExecutionConfig::default(),
        );
        let tuples: Vec<TupleId> = cands.iter().map(|c| c.tuple).collect();
        assert!(tuples.contains(&ids[1]), "JW0014 found");
        assert!(tuples.contains(&ids[0]), "grpC found");
        assert!(!tuples.contains(&ids[2]), "focal excluded");
        assert!(cands.iter().all(|c| c.confidence > 0.0 && c.confidence <= 1.0));
        assert!(cands.iter().all(|c| !c.evidence.is_empty()));
    }

    #[test]
    fn multi_query_tuples_rewarded() {
        let (db, meta, ids) = setup();
        // JW0014 referenced twice (by id and by name) → two queries hit
        // the same tuple → its summed confidence ranks first.
        let cands = run(
            &db,
            &meta,
            "gene JW0014 also known as gene groP interacts with gene yaaB",
            &[],
            None,
            &ExecutionConfig::default(),
        );
        assert_eq!(cands[0].tuple, ids[1]);
        assert_eq!(cands[0].confidence, 1.0);
        assert_eq!(cands[0].evidence.len(), 2);
    }

    #[test]
    fn acg_adjustment_boosts_focal_neighbors() {
        let (db, meta, ids) = setup();
        // ACG edge between focal ids[2] and candidate ids[1].
        let mut store = AnnotationStore::new();
        let a = store.add_annotation(Annotation::new("shared"));
        store.attach(a, AttachmentTarget::tuple(ids[2])).unwrap();
        store.attach(a, AttachmentTarget::tuple(ids[1])).unwrap();
        let acg = Acg::build_from_store(&store);

        let text = "gene JW0014 and gene grpC";
        let with = run(
            &db,
            &meta,
            text,
            &[ids[2]],
            Some(&acg),
            &ExecutionConfig { acg_adjustment: true, ..Default::default() },
        );
        // With the reward, JW0014 (connected to the focal) outranks grpC
        // (routing confidences may both saturate at 1.0; the *ranking*
        // uses the uncapped score).
        assert_eq!(with[0].tuple, ids[1]);
        assert!(with[0].confidence >= with[1].confidence);

        let without = run(
            &db,
            &meta,
            text,
            &[ids[2]],
            Some(&acg),
            &ExecutionConfig { acg_adjustment: false, ..Default::default() },
        );
        // Without it, both references score equally.
        assert!((without[0].confidence - without[1].confidence).abs() < 1e-9);
    }

    #[test]
    fn empty_queries_empty_result() {
        let (db, _meta, _) = setup();
        let engine = KeywordSearch::default();
        let (cands, stats) =
            identify_related_tuples(&db, &engine, &[], &[], None, &ExecutionConfig::default())
                .unwrap();
        assert!(cands.is_empty());
        assert_eq!(stats.compiled_queries, 0);
    }

    #[test]
    fn shared_and_isolated_agree() {
        let (db, meta, _) = setup();
        let text = "gene JW0014 or gene JW0013 or gene grpC";
        let a = run(
            &db,
            &meta,
            text,
            &[],
            None,
            &ExecutionConfig {
                mode: ExecutionMode::Shared,
                acg_adjustment: false,
                ..Default::default()
            },
        );
        let b = run(
            &db,
            &meta,
            text,
            &[],
            None,
            &ExecutionConfig {
                mode: ExecutionMode::Isolated,
                acg_adjustment: false,
                ..Default::default()
            },
        );
        assert_eq!(a, b);
    }
}
