//! The keyword-search facade: keywords in, `(tuple, confidence)` out.

use crate::compile::{compile_configuration, CompiledQuery};
use crate::config::{ConfigurationGenerator, MappingCache};
use crate::error::SearchError;
use crate::mapping::SchemaVocabulary;
use crate::shared::{ExecutionMode, SharedExecutor};
use relstore::{Database, TupleId};
use std::sync::{Mutex, PoisonError};

/// A keyword query: an ordered bag of keywords, optionally carrying the
/// weight Nebula's query-generation phase assigned to it.
#[derive(Debug, Clone, PartialEq)]
pub struct KeywordQuery {
    /// The query keywords (raw; normalization happens inside the engine).
    pub keywords: Vec<String>,
    /// External weight in `(0, 1]` (defaults to 1.0); the caller multiplies
    /// hit confidences by it (paper §6.1, Line 4).
    pub weight: f64,
}

impl KeywordQuery {
    /// Query from any iterable of string-likes, weight 1.0.
    pub fn new<I, S>(keywords: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        KeywordQuery { keywords: keywords.into_iter().map(Into::into).collect(), weight: 1.0 }
    }

    /// Attach a weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }
}

/// One answer tuple with the engine's confidence it matches the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// The matching tuple.
    pub tuple: TupleId,
    /// Internal confidence in `(0, 1]` (before any caller-side weighting).
    pub confidence: f64,
}

/// Tunables of the search engine.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Configuration generation bounds.
    pub generator: ConfigurationGenerator,
    /// Schema vocabulary (equivalent names / synonyms).
    pub vocab: SchemaVocabulary,
    /// Compiled queries below this confidence are not executed at all —
    /// they encode unselective interpretations (e.g. a concept word
    /// matching thousands of free-text cells) whose answers would be
    /// noise.
    pub min_confidence: f64,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            generator: ConfigurationGenerator::default(),
            vocab: SchemaVocabulary::default(),
            min_confidence: 0.15,
        }
    }
}

/// Work counters for one search call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Configurations generated.
    pub configurations: usize,
    /// Conjunctive queries compiled and executed.
    pub compiled_queries: usize,
    /// Tuples the executor inspected.
    pub tuples_inspected: usize,
}

impl SearchStats {
    /// Fold another call's counters into this one (saturating — counters
    /// never wrap, they pin at `usize::MAX`).
    pub fn merge(&mut self, other: SearchStats) {
        self.configurations = self.configurations.saturating_add(other.configurations);
        self.compiled_queries = self.compiled_queries.saturating_add(other.compiled_queries);
        self.tuples_inspected = self.tuples_inspected.saturating_add(other.tuples_inspected);
    }

    /// Publish these counters to the global telemetry registry (one call
    /// per completed search, so enabling telemetry mid-run never double
    /// counts).
    pub(crate) fn publish(&self) {
        nebula_obs::counter_add("textsearch.configurations", self.configurations as u64);
        nebula_obs::counter_add("textsearch.compiled_queries", self.compiled_queries as u64);
        nebula_obs::counter_add("textsearch.tuples_inspected", self.tuples_inspected as u64);
    }
}

/// The keyword-search engine. Between calls it keeps only what shared
/// execution has mapped: the keyword mappings of the database state it
/// last searched, which every later shared group over that same state
/// reads instead of probing the index again.
#[derive(Debug, Default)]
pub struct KeywordSearch {
    options: SearchOptions,
    /// Shared mode's mapping cache, kept across groups.
    mappings: Mutex<MappingCache>,
}

impl Clone for KeywordSearch {
    /// The same options with a cold mapping cache.
    fn clone(&self) -> Self {
        KeywordSearch::new(self.options.clone())
    }
}

impl KeywordSearch {
    /// Engine with the given options.
    pub fn new(options: SearchOptions) -> Self {
        KeywordSearch { options, mappings: Mutex::default() }
    }

    /// Access the engine's options.
    pub fn options(&self) -> &SearchOptions {
        &self.options
    }

    /// Search, returning hits sorted by descending confidence.
    pub fn search(
        &self,
        query: &KeywordQuery,
        db: &Database,
    ) -> Result<Vec<SearchHit>, SearchError> {
        Ok(self.search_with_stats(query, db)?.0)
    }

    /// Search and report work counters.
    pub fn search_with_stats(
        &self,
        query: &KeywordQuery,
        db: &Database,
    ) -> Result<(Vec<SearchHit>, SearchStats), SearchError> {
        let (compiled, configurations) =
            self.compile_cached(query, db, &mut MappingCache::default());
        let mut stats =
            SearchStats { configurations, compiled_queries: compiled.len(), tuples_inspected: 0 };
        let mut exec = SharedExecutor::new(db);
        let hits = self.run_compiled(&compiled, &mut exec, &mut stats)?;
        stats.publish();
        Ok((hits, stats))
    }

    /// Compile a keyword query into its conjunctive queries.
    pub fn compile(&self, query: &KeywordQuery, db: &Database) -> Vec<CompiledQuery> {
        self.compile_cached(query, db, &mut MappingCache::default()).0
    }

    /// Compile through a mapping cache. Returns the compiled queries and
    /// the number of configurations generated.
    fn compile_cached(
        &self,
        query: &KeywordQuery,
        db: &Database,
        cache: &mut MappingCache,
    ) -> (Vec<CompiledQuery>, usize) {
        let mut configs =
            self.options.generator.generate_cached(db, &self.options.vocab, &query.keywords, cache);
        // Budget governance: only compile as many configurations as the
        // installed budget admits, keeping the highest-scoring ones. When
        // nothing is truncated the original order is untouched, so the
        // ungoverned path stays byte-identical.
        let allowed = nebula_govern::admit(nebula_govern::Resource::Configurations, configs.len());
        if allowed < configs.len() {
            configs.sort_by(|a, b| b.weight.total_cmp(&a.weight));
            configs.truncate(allowed);
        }
        let mut out = Vec::new();
        for config in &configs {
            out.extend(compile_configuration(db, config, &query.keywords));
        }
        (out, configs.len())
    }

    /// Execute pre-compiled queries through the given executor, merging
    /// per-tuple confidences by maximum.
    fn run_compiled(
        &self,
        compiled: &[CompiledQuery],
        exec: &mut SharedExecutor<'_>,
        stats: &mut SearchStats,
    ) -> Result<Vec<SearchHit>, SearchError> {
        let mut hits = Vec::new();
        for cq in compiled {
            if cq.confidence < self.options.min_confidence {
                continue;
            }
            let result = exec.execute(&cq.query)?;
            stats.merge(SearchStats {
                configurations: 0,
                compiled_queries: 0,
                tuples_inspected: result.inspected,
            });
            let confidence = cq.confidence;
            hits.extend(result.tuples.into_iter().map(|tuple| SearchHit { tuple, confidence }));
        }
        Ok(rank_by_max(hits))
    }

    /// Execute a *group* of keyword queries under the given execution mode
    /// (paper §6 shared-execution optimization; Figure 13). Returns one hit
    /// list per query, in order.
    ///
    /// Shared mode shares compilation (the engine's mapping cache —
    /// concept words recur in every query of the group, and in the next
    /// group over the same database state) and execution (one
    /// [`SharedExecutor`] for the group). Isolated mode gives every query
    /// a cold cache and a cold executor.
    pub fn search_group(
        &self,
        queries: &[KeywordQuery],
        db: &Database,
        mode: ExecutionMode,
    ) -> Result<(Vec<Vec<SearchHit>>, SearchStats), SearchError> {
        let mut stats = SearchStats::default();
        let mut results = Vec::with_capacity(queries.len());
        let mut shared_cache = match mode {
            ExecutionMode::Shared => {
                Some(self.mappings.lock().unwrap_or_else(PoisonError::into_inner))
            }
            ExecutionMode::Isolated => None,
        };
        let mut shared_exec = SharedExecutor::new(db);
        for q in queries {
            let (mut cold_cache, mut cold_exec) =
                (MappingCache::default(), SharedExecutor::new(db));
            let (cache, exec) = match shared_cache.as_deref_mut() {
                Some(cache) => (cache, &mut shared_exec),
                None => (&mut cold_cache, &mut cold_exec),
            };
            let (compiled, configs) = self.compile_cached(q, db, cache);
            let mut q_stats = SearchStats {
                configurations: configs,
                compiled_queries: compiled.len(),
                tuples_inspected: 0,
            };
            results.push(self.run_compiled(&compiled, exec, &mut q_stats)?);
            stats.merge(q_stats);
        }
        stats.publish();
        Ok((results, stats))
    }
}

/// Merge hits by tuple, keeping each tuple's highest confidence (a tuple
/// whose every confidence is zero, negative or NaN keeps 0.0), then rank
/// by descending confidence and ascending tuple id. Sorting by tuple
/// brings each tuple's hits together, so no map is built.
fn rank_by_max(mut hits: Vec<SearchHit>) -> Vec<SearchHit> {
    for hit in &mut hits {
        if hit.confidence.is_nan() || hit.confidence <= 0.0 {
            hit.confidence = 0.0;
        }
    }
    hits.sort_unstable_by_key(|hit| hit.tuple);
    hits.dedup_by(|next, kept| {
        if next.tuple != kept.tuple {
            return false;
        }
        if next.confidence > kept.confidence {
            kept.confidence = next.confidence;
        }
        true
    });
    hits.sort_by(|a, b| b.confidence.total_cmp(&a.confidence).then(a.tuple.cmp(&b.tuple)));
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use relstore::schema::TableId;
    use relstore::{DataType, TableSchema, Value};
    use std::collections::HashMap;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("gene")
                .column("gid", DataType::Text)
                .column("name", DataType::Text)
                .column("family", DataType::Text)
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

    #[test]
    fn unique_value_found_with_high_confidence() {
        let db = db();
        let engine = KeywordSearch::default();
        let hits = engine.search(&KeywordQuery::new(["gene", "JW0013"]), &db).unwrap();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].confidence > 0.5);
        assert_eq!(db.get(hits[0].tuple).unwrap().get_by_name("gid"), Some(&Value::text("JW0013")));
    }

    #[test]
    fn shared_value_returns_all_holders() {
        let db = db();
        let engine = KeywordSearch::default();
        let hits = engine.search(&KeywordQuery::new(["F1"]), &db).unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn no_match_returns_empty() {
        let db = db();
        let engine = KeywordSearch::default();
        assert!(engine.search(&KeywordQuery::new(["qqqq"]), &db).unwrap().is_empty());
    }

    #[test]
    fn hits_sorted_by_confidence_then_id() {
        let db = db();
        let engine = KeywordSearch::default();
        let hits = engine.search(&KeywordQuery::new(["gene", "F1", "yaaI"]), &db).unwrap();
        assert!(hits.windows(2).all(|w| w[0].confidence >= w[1].confidence));
    }

    #[test]
    fn stats_count_work() {
        let db = db();
        let engine = KeywordSearch::default();
        let (_, stats) =
            engine.search_with_stats(&KeywordQuery::new(["gene", "JW0013"]), &db).unwrap();
        assert!(stats.configurations >= 1);
        assert!(stats.compiled_queries >= 1);
        assert!(stats.tuples_inspected >= 1);
    }

    #[test]
    fn group_modes_agree_on_results() {
        let db = db();
        let engine = KeywordSearch::default();
        let queries = vec![
            KeywordQuery::new(["gene", "F1"]),
            KeywordQuery::new(["gene", "grpC"]),
            KeywordQuery::new(["gene", "F1"]),
        ];
        let (shared, _) = engine.search_group(&queries, &db, ExecutionMode::Shared).unwrap();
        let (isolated, _) = engine.search_group(&queries, &db, ExecutionMode::Isolated).unwrap();
        assert_eq!(shared.len(), 3);
        for (s, i) in shared.iter().zip(&isolated) {
            let st: Vec<TupleId> = s.iter().map(|h| h.tuple).collect();
            let it: Vec<TupleId> = i.iter().map(|h| h.tuple).collect();
            assert_eq!(st, it);
        }
    }

    #[test]
    fn query_weight_builder() {
        let q = KeywordQuery::new(["a"]).with_weight(0.4);
        assert_eq!(q.weight, 0.4);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = SearchStats { configurations: 1, compiled_queries: 2, tuples_inspected: 3 };
        a.merge(SearchStats { configurations: 10, compiled_queries: 20, tuples_inspected: 30 });
        assert_eq!(
            a,
            SearchStats { configurations: 11, compiled_queries: 22, tuples_inspected: 33 }
        );
    }

    #[test]
    fn stats_merge_saturates() {
        let mut a = SearchStats {
            configurations: usize::MAX - 1,
            compiled_queries: usize::MAX,
            tuples_inspected: 0,
        };
        a.merge(SearchStats { configurations: 5, compiled_queries: 1, tuples_inspected: 7 });
        assert_eq!(a.configurations, usize::MAX);
        assert_eq!(a.compiled_queries, usize::MAX);
        assert_eq!(a.tuples_inspected, 7);
    }

    /// `run_compiled`'s merge as it was written with a map: the reference
    /// [`rank_by_max`] must reproduce.
    fn rank_by_max_with_a_map(results: &[(f64, Vec<TupleId>)]) -> Vec<SearchHit> {
        let mut best: HashMap<TupleId, f64> = HashMap::new();
        for (confidence, tuples) in results {
            for tid in tuples {
                let entry = best.entry(*tid).or_insert(0.0);
                if *confidence > *entry {
                    *entry = *confidence;
                }
            }
        }
        let mut hits: Vec<SearchHit> =
            best.into_iter().map(|(tuple, confidence)| SearchHit { tuple, confidence }).collect();
        hits.sort_by(|a, b| b.confidence.total_cmp(&a.confidence).then(a.tuple.cmp(&b.tuple)));
        hits
    }

    proptest! {
        /// The sort merge equals the map merge bit for bit: per compiled
        /// query a confidence (drawn from a few values, so ties are common,
        /// zero, negative and NaN included) and a list of tuples over two
        /// tables, repeated within and across queries.
        #[test]
        fn rank_by_max_equals_the_map_merge(
            results in proptest::collection::vec(
                (
                    prop_oneof![
                        Just(0.0f64), Just(-0.0), Just(-0.25), Just(f64::NAN),
                        Just(0.15), Just(0.5), Just(0.5), Just(0.9), Just(1.0)
                    ],
                    proptest::collection::vec((0u32..2, 0u64..12), 0..10),
                ),
                0..12,
            ),
        ) {
            let results: Vec<(f64, Vec<TupleId>)> = results
                .into_iter()
                .map(|(c, ids)| {
                    (c, ids.into_iter().map(|(t, r)| TupleId::new(TableId(t), r)).collect())
                })
                .collect();
            let hits: Vec<SearchHit> = results
                .iter()
                .flat_map(|(confidence, tuples)| {
                    tuples.iter().map(|&tuple| SearchHit { tuple, confidence: *confidence })
                })
                .collect();
            let want = rank_by_max_with_a_map(&results);
            let got = rank_by_max(hits);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.tuple, w.tuple);
                prop_assert_eq!(g.confidence.to_bits(), w.confidence.to_bits());
            }
        }
    }
}
