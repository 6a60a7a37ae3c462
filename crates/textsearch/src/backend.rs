//! Pluggable search backends.
//!
//! The Nebula paper treats its keyword-search technique as a replaceable
//! black box ("any other technique can be used" — §6.1 Line 2). This
//! trait makes that true in code: the proactive layer talks to a
//! [`SearchBackend`], and two implementations ship —
//!
//! - [`KeywordSearch`]: the metadata approach
//!   (configurations + compiled conjunctive queries + shared execution),
//! - [`TfIdfSearch`]: a simpler SQAK-style disjunctive ranker that scores
//!   tuples by accumulated token rarity, with no schema metadata at all.

use crate::error::SearchError;
use crate::search::{KeywordQuery, KeywordSearch, SearchHit, SearchStats};
use crate::shared::ExecutionMode;
use relstore::{Database, TupleId};
use std::collections::HashMap;

/// A keyword-search technique usable as Nebula's Stage-2 black box.
///
/// `Send` because the ingest pool drives engines — and the backend one
/// may hold — from worker threads; `Debug` because the engine derives it.
pub trait SearchBackend: std::fmt::Debug + Send {
    /// Execute a group of keyword queries (typically all the queries
    /// generated from one annotation), returning one hit list per query
    /// plus work counters. `mode` requests isolated or shared execution;
    /// backends without sharing may ignore it. Fails when the installed
    /// budget trips or a fault plan injects an error.
    fn run_group(
        &self,
        queries: &[KeywordQuery],
        db: &Database,
        mode: ExecutionMode,
    ) -> Result<(Vec<Vec<SearchHit>>, SearchStats), SearchError>;

    /// Human-readable backend name (for logs and experiment tables).
    fn name(&self) -> &'static str;
}

impl SearchBackend for KeywordSearch {
    fn run_group(
        &self,
        queries: &[KeywordQuery],
        db: &Database,
        mode: ExecutionMode,
    ) -> Result<(Vec<Vec<SearchHit>>, SearchStats), SearchError> {
        self.search_group(queries, db, mode)
    }

    fn name(&self) -> &'static str {
        "metadata-approach"
    }
}

/// A metadata-free, SQAK-style disjunctive ranker: each query keyword's
/// tokens are looked up in the inverted index; tuples accumulate the
/// rarity weight of every token they match; tuples matching **all**
/// keywords score far above partial matches. No schema knowledge, no
/// joins, no sharing.
#[derive(Debug, Clone, Copy)]
pub struct TfIdfSearch {
    /// Hits scoring below this (after normalization) are dropped.
    pub min_score: f64,
    /// Multiplier applied when a tuple matches every keyword of the query.
    pub full_match_boost: f64,
}

impl Default for TfIdfSearch {
    fn default() -> Self {
        TfIdfSearch { min_score: 0.1, full_match_boost: 2.0 }
    }
}

impl TfIdfSearch {
    /// Score one query.
    fn search_one(
        &self,
        query: &KeywordQuery,
        db: &Database,
        stats: &mut SearchStats,
    ) -> Result<Vec<SearchHit>, SearchError> {
        if let Some(fault) = nebula_govern::inject(nebula_govern::FaultSite::Query) {
            return Err(fault.into());
        }
        let mut score: HashMap<TupleId, f64> = HashMap::new();
        let mut matched_keywords: HashMap<TupleId, usize> = HashMap::new();
        let mut live_keywords = 0usize;
        for keyword in &query.keywords {
            let tokens = relstore::index::tokenize(keyword);
            let mut keyword_hits: HashMap<TupleId, f64> = HashMap::new();
            for token in &tokens {
                let postings = db.inverted_index().lookup(token);
                stats.tuples_inspected += postings.len();
                nebula_govern::charge(nebula_govern::Resource::TuplesInspected, postings.len())?;
                if postings.is_empty() {
                    continue;
                }
                let w = crate::mapping::value_weight(postings.len());
                for p in postings.iter() {
                    *keyword_hits.entry(p.tuple).or_insert(0.0) += w;
                }
            }
            if keyword_hits.is_empty() {
                continue;
            }
            live_keywords += 1;
            for (t, s) in keyword_hits {
                *score.entry(t).or_insert(0.0) += s;
                *matched_keywords.entry(t).or_insert(0) += 1;
            }
        }
        stats.compiled_queries += live_keywords;
        for (t, s) in score.iter_mut() {
            if live_keywords > 0 && matched_keywords[t] == live_keywords {
                *s *= self.full_match_boost;
            }
        }
        let max = score.values().copied().fold(0.0_f64, f64::max);
        let mut hits: Vec<SearchHit> = score
            .into_iter()
            .filter_map(|(tuple, s)| {
                let confidence = if max > 0.0 { s / max } else { 0.0 };
                (confidence >= self.min_score).then_some(SearchHit { tuple, confidence })
            })
            .collect();
        hits.sort_by(|a, b| b.confidence.total_cmp(&a.confidence).then(a.tuple.cmp(&b.tuple)));
        Ok(hits)
    }
}

impl SearchBackend for TfIdfSearch {
    fn run_group(
        &self,
        queries: &[KeywordQuery],
        db: &Database,
        _mode: ExecutionMode,
    ) -> Result<(Vec<Vec<SearchHit>>, SearchStats), SearchError> {
        let mut stats = SearchStats { configurations: queries.len(), ..Default::default() };
        let hits = queries
            .iter()
            .map(|q| self.search_one(q, db, &mut stats))
            .collect::<Result<Vec<_>, _>>()?;
        stats.publish();
        Ok((hits, stats))
    }

    fn name(&self) -> &'static str {
        "tfidf-disjunctive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        for (gid, name) in [("JW0013", "grpC"), ("JW0014", "groP"), ("JW0019", "yaaB")] {
            db.insert("gene", vec![Value::text(gid), Value::text(name)]).unwrap();
        }
        db
    }

    #[test]
    fn tfidf_finds_referenced_tuple_first() {
        let db = db();
        let backend = TfIdfSearch::default();
        let (hits, stats) = backend
            .run_group(&[KeywordQuery::new(["gene", "JW0013"])], &db, ExecutionMode::Isolated)
            .unwrap();
        assert_eq!(hits.len(), 1);
        let top = &hits[0][0];
        assert_eq!(db.get(top.tuple).unwrap().get_by_name("gid"), Some(&Value::text("JW0013")));
        assert_eq!(top.confidence, 1.0);
        assert!(stats.tuples_inspected >= 1);
    }

    #[test]
    fn full_match_outranks_partial() {
        let mut db = db();
        // A decoy containing only one of the two keywords many times.
        db.insert("gene", vec![Value::text("JW0999"), Value::text("grpX")]).unwrap();
        let backend = TfIdfSearch { min_score: 0.0, ..Default::default() };
        let (hits, _) = backend
            .run_group(&[KeywordQuery::new(["JW0013", "grpC"])], &db, ExecutionMode::Isolated)
            .unwrap();
        let first = db.get(hits[0][0].tuple).unwrap();
        assert_eq!(first.get_by_name("gid"), Some(&Value::text("JW0013")));
    }

    #[test]
    fn both_backends_find_unique_references() {
        let db = db();
        let queries = vec![KeywordQuery::new(["gene", "yaaB"])];
        let metadata = KeywordSearch::default();
        let tfidf = TfIdfSearch::default();
        let (a, _) =
            SearchBackend::run_group(&metadata, &queries, &db, ExecutionMode::Shared).unwrap();
        let (b, _) = tfidf.run_group(&queries, &db, ExecutionMode::Shared).unwrap();
        let target = |hits: &Vec<Vec<SearchHit>>| {
            hits[0]
                .iter()
                .map(|h| db.get(h.tuple).unwrap().get_by_name("name").unwrap().render())
                .collect::<Vec<_>>()
        };
        assert!(target(&a).contains(&"yaaB".to_string()));
        assert!(target(&b).contains(&"yaaB".to_string()));
        assert_eq!(metadata.name(), "metadata-approach");
        assert_eq!(tfidf.name(), "tfidf-disjunctive");
    }

    #[test]
    fn min_score_filters() {
        let db = db();
        let strict = TfIdfSearch { min_score: 1.1, full_match_boost: 2.0 };
        let (hits, _) = strict
            .run_group(&[KeywordQuery::new(["gene", "JW0013"])], &db, ExecutionMode::Isolated)
            .unwrap();
        assert!(hits[0].is_empty(), "nothing reaches a score above 1.1");
    }
}
