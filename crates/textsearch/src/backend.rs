//! Pluggable search backends.
//!
//! The Nebula paper treats its keyword-search technique as a replaceable
//! black box ("any other technique can be used" — §6.1 Line 2). This
//! trait makes that true in code: the proactive layer talks to a
//! [`SearchBackend`]. [`KeywordSearch`] — the metadata approach
//! (configurations + compiled conjunctive queries + shared execution) —
//! implements it here; the shard layer's scatter-gather router
//! (`nebula-shard`) is the second implementation, installed in front of
//! the engine through `Nebula::set_group_search`.

use crate::error::SearchError;
use crate::search::{KeywordQuery, KeywordSearch, SearchHit, SearchStats};
use crate::shared::ExecutionMode;
use relstore::Database;

/// A keyword-search technique usable as Nebula's Stage-2 black box.
///
/// `Send` so an engine, with the backend it holds, can move to another
/// thread; `Debug` because the engine derives it.
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
    fn the_trait_runs_the_metadata_approach() {
        let db = db();
        let queries = vec![KeywordQuery::new(["gene", "yaaB"])];
        let metadata = KeywordSearch::default();
        let (hits, _) =
            SearchBackend::run_group(&metadata, &queries, &db, ExecutionMode::Shared).unwrap();
        let names: Vec<String> = hits[0]
            .iter()
            .map(|h| db.get(h.tuple).unwrap().get_by_name("name").unwrap().render())
            .collect();
        assert!(names.contains(&"yaaB".to_string()));
        assert_eq!(metadata.name(), "metadata-approach");
    }
}
