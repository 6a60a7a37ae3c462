//! Signature maps (paper §5.2.1, Steps 1–3 of `QueryGeneration()`).
//!
//! Given an annotation's text, Nebula builds two *signature maps*:
//!
//! - the **Concept-Map** highlights words likely to reference a table name
//!   (*rectangle* shape) or column name (*triangle* shape) from the
//!   `ConceptRefs` auxiliary table, weighted by `p(w, c)`;
//! - the **Value-Map** highlights words likely to be a *value* of one of
//!   the target columns (*hexagon* shape), weighted by `d(w, c)`.
//!
//! Words whose best weight falls below the cutoff threshold ε are dropped
//! (replaced by `—` in the paper's illustration). The two maps are then
//! **overlaid** into the **Context-Map**, which keeps, per word position,
//! both kinds of mappings side by side so the context-based adjustment and
//! query generation can reason about neighborhoods.

use crate::meta::{ConceptTarget, NebulaMeta};
use relstore::schema::{ColumnId, TableId};
use relstore::Database;

/// One word of the annotation with its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Word {
    /// Normalized form (lower-cased, outer punctuation stripped).
    pub text: String,
    /// The raw token as it appeared.
    pub raw: String,
    /// Word index within the annotation.
    pub position: usize,
}

/// A *rectangle*/*triangle* mapping: the word may reference a schema
/// object, with weight `p(w, c)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConceptMapping {
    /// The referenced schema object.
    pub target: ConceptTarget,
    /// `p(w, c)` after any context adjustment.
    pub weight: f64,
}

/// A *hexagon* mapping: the word may be a value of `table.column`, with
/// weight `d(w, c)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueMapping {
    /// The table of the candidate column.
    pub table: TableId,
    /// The candidate column.
    pub column: ColumnId,
    /// `d(w, c)` after any context adjustment.
    pub weight: f64,
}

/// The per-word overlay entry of the Context-Map.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextEntry {
    /// The word itself.
    pub word: Word,
    /// Concept (schema) mappings that survived the ε cutoff.
    pub concepts: Vec<ConceptMapping>,
    /// Value mappings that survived the ε cutoff.
    pub values: Vec<ValueMapping>,
}

impl ContextEntry {
    /// True when the word carries no mapping at all (`—` in the paper).
    pub fn is_blank(&self) -> bool {
        self.concepts.is_empty() && self.values.is_empty()
    }

    /// The word's single best mapping weight, if any.
    pub fn best_weight(&self) -> Option<f64> {
        self.concepts
            .iter()
            .map(|m| m.weight)
            .chain(self.values.iter().map(|m| m.weight))
            .max_by(f64::total_cmp)
    }
}

/// The overlaid Context-Map.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ContextMap {
    /// One entry per word of the annotation, in order.
    pub entries: Vec<ContextEntry>,
}

impl ContextMap {
    /// Number of words.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the annotation had no words.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Count of words carrying at least one mapping.
    pub fn emphasized(&self) -> usize {
        self.entries.iter().filter(|e| !e.is_blank()).count()
    }
}

/// Split annotation text into [`Word`]s (normalization preserves
/// positions; stopword-like words are *kept* because positions matter for
/// influence ranges — the ε cutoff is what suppresses them).
pub fn split_annotation(text: &str) -> Vec<Word> {
    text.split_whitespace()
        .enumerate()
        .filter_map(|(position, raw)| {
            let text = textsearch::normalize(raw);
            if text.is_empty() {
                None
            } else {
                Some(Word { text, raw: raw.to_string(), position })
            }
        })
        .enumerate()
        .map(|(i, mut w)| {
            // Re-number densely after dropping pure-punctuation tokens.
            w.position = i;
            w
        })
        .collect()
}

/// Step 1: the Concept-Map — per word, the schema mappings with
/// `p(w, c) ≥ ε`.
pub fn generate_concept_map(
    db: &Database,
    meta: &NebulaMeta,
    words: &[Word],
    epsilon: f64,
) -> Vec<Vec<ConceptMapping>> {
    let matcher = meta.concept_matcher(db);
    words
        .iter()
        .map(|w| {
            matcher
                .match_word(&w.text)
                .into_iter()
                .filter(|(_, weight)| *weight >= epsilon)
                .map(|(target, weight)| ConceptMapping { target, weight })
                .collect()
        })
        .collect()
}

/// Step 2: the Value-Map — per word, the domain mappings with
/// `d(w, c) ≥ ε`. Stopwords are never value candidates; everything else
/// is scored by the NebulaMeta domain knowledge (which is what makes the
/// low ε = 0.4 threshold noisy, exactly as the paper reports).
pub fn generate_value_map(
    db: &Database,
    meta: &NebulaMeta,
    words: &[Word],
    epsilon: f64,
) -> Vec<Vec<ValueMapping>> {
    let matcher = meta.domain_matcher(db);
    words
        .iter()
        .map(|w| {
            if textsearch::is_stopword(&w.text) {
                return Vec::new();
            }
            matcher
                .match_word(&w.raw_for_matching())
                .into_iter()
                .filter(|(_, _, weight)| *weight >= epsilon)
                .map(|(table, column, weight)| ValueMapping { table, column, weight })
                .collect()
        })
        .collect()
}

impl Word {
    /// The form used for domain matching: the raw token with outer
    /// punctuation stripped but **case preserved**, because syntactic
    /// patterns are case-sensitive (`JW0013` vs `jw0013`).
    pub fn raw_for_matching(&self) -> String {
        self.raw.trim_matches(|c: char| !c.is_alphanumeric()).to_string()
    }
}

/// Step 3: overlay the two maps into the Context-Map.
pub fn overlay(
    words: &[Word],
    concept_map: Vec<Vec<ConceptMapping>>,
    value_map: Vec<Vec<ValueMapping>>,
) -> ContextMap {
    debug_assert_eq!(words.len(), concept_map.len());
    debug_assert_eq!(words.len(), value_map.len());
    let entries = words
        .iter()
        .zip(concept_map)
        .zip(value_map)
        .map(|((word, concepts), values)| ContextEntry { word: word.clone(), concepts, values })
        .collect();
    ContextMap { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{concept_weights, ConceptRef};
    use crate::patterns::Pattern;
    use relstore::{DataType, TableSchema, Value};

    fn setup() -> (Database, NebulaMeta) {
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
        let mut meta = NebulaMeta::new();
        meta.add_concept(ConceptRef {
            concept: "Gene".into(),
            table: "gene".into(),
            referenced_by: vec![vec!["gid".into()], vec!["name".into()]],
        });
        meta.set_pattern("gene", "gid", Pattern::compile("JW[0-9]{4}").unwrap());
        meta.set_pattern("gene", "name", Pattern::compile("[a-z]{3}[A-Z]").unwrap());
        (db, meta)
    }

    #[test]
    fn split_annotation_normalizes_and_renumbers() {
        let words = split_annotation("From the exp, it seems  ... gene JW0014!");
        let texts: Vec<&str> = words.iter().map(|w| w.text.as_str()).collect();
        assert_eq!(texts, vec!["from", "the", "exp", "it", "seems", "gene", "jw0014"]);
        assert_eq!(words.last().unwrap().position, 6);
        assert_eq!(words.last().unwrap().raw, "JW0014!");
        assert_eq!(words.last().unwrap().raw_for_matching(), "JW0014");
    }

    #[test]
    fn concept_map_highlights_schema_words() {
        let (db, meta) = setup();
        let words = split_annotation("this gene is interesting");
        let cmap = generate_concept_map(&db, &meta, &words, 0.6);
        assert!(cmap[0].is_empty(), "`this` is not a concept");
        assert_eq!(cmap[1].len(), 1, "`gene` maps to the gene table");
        assert_eq!(cmap[1][0].weight, concept_weights::EXACT);
    }

    #[test]
    fn value_map_highlights_pattern_words() {
        let (db, meta) = setup();
        let words = split_annotation("correlated to JW0014 maybe");
        let vmap = generate_value_map(&db, &meta, &words, 0.6);
        assert!(vmap[0].is_empty());
        assert_eq!(vmap[2].len(), 1, "JW0014 matches the gid pattern");
        assert!(vmap[2][0].weight >= 0.9);
    }

    #[test]
    fn epsilon_cutoff_filters() {
        let (db, meta) = setup();
        let words = split_annotation("JW0014");
        let strict = generate_value_map(&db, &meta, &words, 0.95);
        assert!(strict[0].is_empty(), "0.9 pattern match fails ε=0.95");
        let loose = generate_value_map(&db, &meta, &words, 0.5);
        assert!(!loose[0].is_empty());
    }

    #[test]
    fn case_matters_for_value_matching() {
        let (db, meta) = setup();
        let words = split_annotation("jw0014");
        let vmap = generate_value_map(&db, &meta, &words, 0.6);
        assert!(vmap[0].is_empty(), "lowercased id fails the case-sensitive pattern");
    }

    #[test]
    fn overlay_combines_maps() {
        let (db, meta) = setup();
        let words = split_annotation("gene JW0014");
        let cmap = generate_concept_map(&db, &meta, &words, 0.6);
        let vmap = generate_value_map(&db, &meta, &words, 0.6);
        let ctx = overlay(&words, cmap, vmap);
        assert_eq!(ctx.len(), 2);
        assert_eq!(ctx.emphasized(), 2);
        assert!(!ctx.entries[0].concepts.is_empty());
        assert!(!ctx.entries[1].values.is_empty());
        assert!(ctx.entries[0].best_weight().unwrap() > 0.9);
    }

    #[test]
    fn blank_entries_detected() {
        let (db, meta) = setup();
        let words = split_annotation("nothing matches here");
        let cmap = generate_concept_map(&db, &meta, &words, 0.6);
        let vmap = generate_value_map(&db, &meta, &words, 0.6);
        let ctx = overlay(&words, cmap, vmap);
        assert_eq!(ctx.emphasized(), 0);
        assert!(ctx.entries.iter().all(ContextEntry::is_blank));
        assert!(ctx.entries[0].best_weight().is_none());
    }
}
