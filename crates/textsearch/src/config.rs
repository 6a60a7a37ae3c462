//! Configurations: consistent interpretations of a keyword query
//! (step 2 of the metadata approach).
//!
//! A *configuration* assigns each keyword at most one [`Mapping`], giving
//! one possible semantics of the whole query. The space of configurations
//! is exponential, so generation is a bounded beam search over per-keyword
//! mapping candidates ranked by weight; a configuration's weight is the
//! geometric mean of its mappings' weights (keywords without any mapping
//! contribute a fixed *unmapped penalty*).

use crate::mapping::{match_values, Mapping, MappingKind, SchemaVocabulary};
use crate::token::{is_stopword, normalize};
use relstore::Database;

/// Weight contributed by a keyword no mapping could be found for.
const UNMAPPED_PENALTY: f64 = 0.05;

/// Keywords a [`MappingCache`] remembers before it starts over, so a
/// stream of ever-new keywords cannot grow it without bound.
const CACHED_KEYWORDS: usize = 1 << 16;

/// Cache of per-keyword mapping candidates for one generator and
/// vocabulary. What a keyword maps to is a pure function of the keyword
/// and the database state, so entries are kept until the database's
/// epoch moves. Keyed by the normalized keyword; the stored mappings carry
/// `keyword = 0` and are re-indexed on retrieval.
#[derive(Debug, Default)]
pub struct MappingCache {
    /// The [`Database::epoch`] the entries were computed in.
    epoch: u64,
    entries: std::collections::HashMap<String, Vec<Mapping>>,
    /// Cache hits (for tests and work accounting).
    pub hits: usize,
    /// Cache misses.
    pub misses: usize,
}

impl MappingCache {
    /// Candidates for `keyword` at position `index`, computed once per
    /// distinct normalized keyword and database state.
    pub fn candidates(
        &mut self,
        gen: &ConfigurationGenerator,
        db: &Database,
        vocab: &SchemaVocabulary,
        index: usize,
        keyword: &str,
    ) -> Vec<Mapping> {
        if self.epoch != db.epoch() || self.entries.len() >= CACHED_KEYWORDS {
            self.epoch = db.epoch();
            self.entries.clear();
        }
        let word = normalize(keyword);
        if let Some(cached) = self.entries.get(&word) {
            self.hits += 1;
            return cached.iter().map(|m| Mapping { keyword: index, ..m.clone() }).collect();
        }
        self.misses += 1;
        let computed = gen.keyword_candidates(db, vocab, 0, keyword);
        self.entries.insert(word, computed.clone());
        computed.into_iter().map(|m| Mapping { keyword: index, ..m }).collect()
    }
}

/// One consistent interpretation of the query.
#[derive(Debug, Clone, PartialEq)]
pub struct Configuration {
    /// Chosen mappings (at most one per keyword; keywords may be absent).
    pub mappings: Vec<Mapping>,
    /// Overall confidence of this interpretation, in `(0, 1]`.
    pub weight: f64,
}

/// Bounded generator of ranked configurations.
#[derive(Debug, Clone)]
pub struct ConfigurationGenerator {
    /// Max mapping candidates kept per keyword.
    pub per_keyword_limit: usize,
    /// Max configurations produced (beam width).
    pub beam_width: usize,
    /// Drop keywords that are stopwords before mapping.
    pub skip_stopwords: bool,
}

impl Default for ConfigurationGenerator {
    fn default() -> Self {
        ConfigurationGenerator { per_keyword_limit: 4, beam_width: 8, skip_stopwords: true }
    }
}

impl ConfigurationGenerator {
    /// All scored mapping candidates for one keyword.
    pub fn keyword_candidates(
        &self,
        db: &Database,
        vocab: &SchemaVocabulary,
        index: usize,
        keyword: &str,
    ) -> Vec<Mapping> {
        let word = normalize(keyword);
        if word.is_empty() || (self.skip_stopwords && is_stopword(&word)) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (tid, w) in vocab.match_tables(db, &word) {
            out.push(Mapping { keyword: index, kind: MappingKind::Table(tid), weight: w });
        }
        for (tid, cid, w) in vocab.match_columns(db, &word) {
            out.push(Mapping { keyword: index, kind: MappingKind::Column(tid, cid), weight: w });
        }
        for (tid, cid, w) in match_values(db, &word) {
            out.push(Mapping { keyword: index, kind: MappingKind::Value(tid, cid), weight: w });
        }
        out.sort_by(|a, b| b.weight.total_cmp(&a.weight));
        out.truncate(self.per_keyword_limit);
        out
    }

    /// Generate ranked configurations for a keyword list.
    pub fn generate(
        &self,
        db: &Database,
        vocab: &SchemaVocabulary,
        keywords: &[String],
    ) -> Vec<Configuration> {
        self.generate_cached(db, vocab, keywords, &mut MappingCache::default())
    }

    /// [`ConfigurationGenerator::generate`] through a mapping cache: when
    /// many keyword queries are compiled against one database state,
    /// shared keywords (concept words like `gene` recur in every query of
    /// an annotation, and across annotations) are mapped once — part of
    /// the shared multi-query execution of the paper's §6.
    pub fn generate_cached(
        &self,
        db: &Database,
        vocab: &SchemaVocabulary,
        keywords: &[String],
        cache: &mut MappingCache,
    ) -> Vec<Configuration> {
        // Beam of (mappings, product-of-weights, mapped-count).
        let mut beam: Vec<(Vec<Mapping>, f64, usize)> = vec![(Vec::new(), 1.0, 0)];
        for (i, kw) in keywords.iter().enumerate() {
            let candidates = cache.candidates(self, db, vocab, i, kw);
            if candidates.is_empty() {
                // Keyword stays unmapped in every beam entry.
                for entry in &mut beam {
                    entry.1 *= UNMAPPED_PENALTY.max(1e-9);
                    entry.2 += 1;
                }
                continue;
            }
            let mut next = Vec::with_capacity(beam.len() * candidates.len());
            for (mappings, product, count) in &beam {
                for cand in &candidates {
                    let mut m = mappings.clone();
                    m.push(cand.clone());
                    next.push((m, product * cand.weight, count + 1));
                }
            }
            next.sort_by(|a, b| b.1.total_cmp(&a.1));
            next.truncate(self.beam_width);
            beam = next;
        }
        beam.into_iter()
            .filter(|(m, ..)| !m.is_empty())
            .map(|(mappings, product, count)| Configuration {
                mappings,
                weight: product.powf(1.0 / count.max(1) as f64),
            })
            .collect()
    }
}

impl Configuration {
    /// Mappings of a particular kind.
    pub fn value_mappings(&self) -> impl Iterator<Item = &Mapping> {
        self.mappings.iter().filter(|m| matches!(m.kind, MappingKind::Value(..)))
    }

    /// Table-name mappings.
    pub fn table_mappings(&self) -> impl Iterator<Item = &Mapping> {
        self.mappings.iter().filter(|m| matches!(m.kind, MappingKind::Table(_)))
    }

    /// Column-name mappings.
    pub fn column_mappings(&self) -> impl Iterator<Item = &Mapping> {
        self.mappings.iter().filter(|m| matches!(m.kind, MappingKind::Column(..)))
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
        db.insert("gene", vec![Value::text("JW0013"), Value::text("grpC")]).unwrap();
        db.insert("gene", vec![Value::text("JW0014"), Value::text("groP")]).unwrap();
        db
    }

    #[test]
    fn candidates_ranked_and_capped() {
        let db = db();
        let vocab = SchemaVocabulary::new();
        let gen = ConfigurationGenerator { per_keyword_limit: 2, ..Default::default() };
        let c = gen.keyword_candidates(&db, &vocab, 0, "gene");
        assert!(!c.is_empty());
        assert!(c.len() <= 2);
        assert!(c.windows(2).all(|w| w[0].weight >= w[1].weight));
    }

    #[test]
    fn stopwords_produce_no_candidates() {
        let db = db();
        let vocab = SchemaVocabulary::new();
        let gen = ConfigurationGenerator::default();
        assert!(gen.keyword_candidates(&db, &vocab, 0, "the").is_empty());
    }

    #[test]
    fn generate_interprets_gene_grpc() {
        let db = db();
        let vocab = SchemaVocabulary::new();
        let gen = ConfigurationGenerator::default();
        let configs = gen.generate(&db, &vocab, &["gene".into(), "grpC".into()]);
        assert!(!configs.is_empty());
        let top = &configs[0];
        // Best interpretation: "gene" names the table, "grpC" is a value.
        assert!(top.table_mappings().count() == 1);
        assert!(top.value_mappings().count() == 1);
        assert!(top.weight > 0.5);
        // Ranked descending.
        assert!(configs.windows(2).all(|w| w[0].weight >= w[1].weight));
    }

    #[test]
    fn unmapped_keywords_penalize_weight() {
        let db = db();
        let vocab = SchemaVocabulary::new();
        let gen = ConfigurationGenerator::default();
        let clean = gen.generate(&db, &vocab, &["grpc".into()]);
        let noisy = gen.generate(&db, &vocab, &["grpc".into(), "xyzzy".into()]);
        assert!(noisy[0].weight < clean[0].weight);
    }

    #[test]
    fn all_stopword_query_yields_nothing() {
        let db = db();
        let vocab = SchemaVocabulary::new();
        let gen = ConfigurationGenerator::default();
        assert!(gen.generate(&db, &vocab, &["the".into(), "and".into()]).is_empty());
    }

    #[test]
    fn beam_width_bounds_output() {
        let db = db();
        let vocab = SchemaVocabulary::new();
        let gen = ConfigurationGenerator { beam_width: 3, ..Default::default() };
        let configs = gen.generate(&db, &vocab, &["gene".into(), "gid".into(), "jw0013".into()]);
        assert!(configs.len() <= 3);
    }

    #[test]
    fn mapping_cache_reuses_keyword_work() {
        let db = db();
        let vocab = SchemaVocabulary::new();
        let gen = ConfigurationGenerator::default();
        let mut cache = MappingCache::default();
        // "gene" appears in both queries — mapped once.
        let q1 = vec!["gene".to_string(), "grpc".to_string()];
        let q2 = vec!["gene".to_string(), "grop".to_string()];
        let c1 = gen.generate_cached(&db, &vocab, &q1, &mut cache);
        let c2 = gen.generate_cached(&db, &vocab, &q2, &mut cache);
        assert!(!c1.is_empty() && !c2.is_empty());
        assert_eq!(cache.misses, 3, "gene, grpc, grop computed once each");
        assert_eq!(cache.hits, 1, "the repeated `gene` hits the cache");
        // Cached results are identical to uncached ones.
        let fresh = gen.generate(&db, &vocab, &q2);
        assert_eq!(c2, fresh);
    }

    #[test]
    fn mapping_cache_starts_over_when_the_database_moves() {
        let mut db = db();
        let vocab = SchemaVocabulary::new();
        let gen = ConfigurationGenerator::default();
        let mut cache = MappingCache::default();
        let q = vec!["grpc".to_string()];
        let before = gen.generate_cached(&db, &vocab, &q, &mut cache);
        db.insert("gene", vec![Value::text("JW0015"), Value::text("grpC")]).unwrap();
        let after = gen.generate_cached(&db, &vocab, &q, &mut cache);
        assert_eq!(cache.misses, 2, "the insert moved the epoch");
        assert_eq!(after, gen.generate(&db, &vocab, &q));
        assert_ne!(after, before, "a second holder changes the value weight");
    }

    #[test]
    fn cached_mappings_carry_correct_keyword_index() {
        let db = db();
        let vocab = SchemaVocabulary::new();
        let gen = ConfigurationGenerator::default();
        let mut cache = MappingCache::default();
        // First query: "grpc" at position 0; second: at position 1.
        let _ = gen.generate_cached(&db, &vocab, &["grpc".into()], &mut cache);
        let configs = gen.generate_cached(&db, &vocab, &["gene".into(), "grpc".into()], &mut cache);
        let top = &configs[0];
        let value = top.value_mappings().next().unwrap();
        assert_eq!(value.keyword, 1, "re-indexed on retrieval");
    }
}
