//! Keyword → schema/value mappings (step 1 of the metadata approach).
//!
//! Each keyword of a query is scored against three kinds of potential
//! mappings: it may name a **table**, a **column**, or occur as a **value**
//! inside some column. Schema matching consults a [`SchemaVocabulary`] of
//! exact names, curator-supplied *equivalent names* (e.g. `GID` ≡
//! `"gene id"`), and synonyms; value matching probes the database's
//! inverted index, weighting rare (selective) terms above frequent ones.

use relstore::schema::{ColumnId, TableId};
use relstore::Database;
use std::collections::HashMap;

/// What a keyword might denote.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MappingKind {
    /// The keyword names a table.
    Table(TableId),
    /// The keyword names a column of a table.
    Column(TableId, ColumnId),
    /// The keyword occurs as (part of) a value in `table.column`.
    Value(TableId, ColumnId),
}

/// One scored mapping of one keyword.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    /// Index of the keyword within the query.
    pub keyword: usize,
    /// What it maps to.
    pub kind: MappingKind,
    /// Confidence of this interpretation, in `(0, 1]`.
    pub weight: f64,
}

/// Match strengths for schema-name matching. Exact and equivalent-name
/// matches rank above synonym matches, mirroring the paper's `p(w, c)`
/// (§5.2.1: "the first two matching types give higher weight than the
/// third").
pub mod weights {
    /// Keyword equals the table/column name.
    pub const EXACT: f64 = 0.95;
    /// Keyword equals a curator-declared equivalent name.
    pub const EQUIVALENT: f64 = 0.9;
    /// Keyword equals a lexicon synonym.
    pub const SYNONYM: f64 = 0.65;
}

/// Vocabulary for schema matching: equivalent names and synonyms for tables
/// and columns. The schema's own names always match exactly.
#[derive(Debug, Clone, Default)]
pub struct SchemaVocabulary {
    /// `(lower-cased alias) -> tables it names`
    table_aliases: HashMap<String, Vec<(TableId, f64)>>,
    /// `(lower-cased alias) -> columns it names`
    column_aliases: HashMap<String, Vec<(TableId, ColumnId, f64)>>,
}

impl SchemaVocabulary {
    /// Empty vocabulary (schema names still match exactly).
    pub fn new() -> Self {
        SchemaVocabulary::default()
    }

    /// Declare a curator equivalent name for a table.
    pub fn table_equivalent(&mut self, alias: &str, table: TableId) {
        self.table_aliases
            .entry(alias.to_lowercase())
            .or_default()
            .push((table, weights::EQUIVALENT));
    }

    /// Declare a lexicon synonym for a table.
    pub fn table_synonym(&mut self, alias: &str, table: TableId) {
        self.table_aliases.entry(alias.to_lowercase()).or_default().push((table, weights::SYNONYM));
    }

    /// Declare a curator equivalent name for a column.
    pub fn column_equivalent(&mut self, alias: &str, table: TableId, column: ColumnId) {
        self.column_aliases.entry(alias.to_lowercase()).or_default().push((
            table,
            column,
            weights::EQUIVALENT,
        ));
    }

    /// Declare a lexicon synonym for a column.
    pub fn column_synonym(&mut self, alias: &str, table: TableId, column: ColumnId) {
        self.column_aliases.entry(alias.to_lowercase()).or_default().push((
            table,
            column,
            weights::SYNONYM,
        ));
    }

    /// Tables a (normalized) word may name, with weights. Regular plurals
    /// match their singular form ("genes" names the `gene` table).
    pub fn match_tables(&self, db: &Database, word: &str) -> Vec<(TableId, f64)> {
        let singular = crate::token::singularize(word);
        let mut out = Vec::new();
        for (tid, name) in db.catalog().iter() {
            if name.eq_ignore_ascii_case(word) || singular.as_deref() == Some(&name.to_lowercase())
            {
                out.push((tid, weights::EXACT));
            }
        }
        for key in std::iter::once(word).chain(singular.as_deref()) {
            if let Some(aliases) = self.table_aliases.get(key) {
                out.extend(aliases.iter().copied());
            }
        }
        dedup_best_table(out)
    }

    /// Columns a (normalized) word may name, with weights. Regular plurals
    /// match their singular form.
    pub fn match_columns(&self, db: &Database, word: &str) -> Vec<(TableId, ColumnId, f64)> {
        let singular = crate::token::singularize(word);
        let mut out = Vec::new();
        for (tid, _name) in db.catalog().iter() {
            if let Some(table) = db.table(tid) {
                for (cid, def) in table.schema().iter_columns() {
                    if def.name.eq_ignore_ascii_case(word)
                        || singular.as_deref() == Some(&def.name.to_lowercase())
                    {
                        out.push((tid, cid, weights::EXACT));
                    }
                }
            }
        }
        for key in std::iter::once(word).chain(singular.as_deref()) {
            if let Some(aliases) = self.column_aliases.get(key) {
                out.extend(aliases.iter().copied());
            }
        }
        dedup_best_column(out)
    }
}

/// Sort by table then weight descending, keep the best weight per table.
fn dedup_best_table(mut v: Vec<(TableId, f64)>) -> Vec<(TableId, f64)> {
    v.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.total_cmp(&a.1)));
    v.dedup_by_key(|e| e.0);
    v
}

fn dedup_best_column(mut v: Vec<(TableId, ColumnId, f64)>) -> Vec<(TableId, ColumnId, f64)> {
    v.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(b.2.total_cmp(&a.2)));
    v.dedup_by_key(|e| (e.0, e.1));
    v
}

/// Weight of a value mapping from the token's document frequency: rare
/// tokens are more likely to be intentional references.
/// `df = 1 → 1.0`, decreasing smoothly with frequency.
pub fn value_weight(df: usize) -> f64 {
    if df == 0 {
        0.0
    } else {
        1.0 / (1.0 + (df as f64).ln())
    }
}

/// Is `(table, column)` the referencing side of a foreign key?
pub fn is_fk_column(db: &Database, table: TableId, column: ColumnId) -> bool {
    db.catalog().outgoing(table).any(|fk| fk.from_table == table && fk.from_column == column)
}

/// Weight of a `(table, column)` value mapping with the given document
/// frequency: rarity (`value_weight`) × a scale-invariant coverage
/// penalty (a token in nearly every row identifies nothing) × an FK damp
/// (a hit inside a foreign-key column primarily references the *other*
/// table's row — the metadata approach resolves such keywords through the
/// FK join, so the FK holder is a secondary interpretation).
pub fn pair_value_weight(db: &Database, table: TableId, column: ColumnId, df: usize) -> f64 {
    let rows = db.table(table).map(|t| t.len()).unwrap_or(0).max(df).max(1);
    let coverage = 1.0 - (df.saturating_sub(1)) as f64 / rows as f64;
    let fk_damp = if is_fk_column(db, table, column) { 0.5 } else { 1.0 };
    value_weight(df) * coverage * fk_damp
}

/// All value mappings of a (normalized) word: the distinct `(table,
/// column)` pairs whose cells contain it, weighted by
/// [`pair_value_weight`].
///
/// Multi-token words (e.g. the hyphenated protein name `G-Actin`) map to
/// the pairs containing **all** their tokens; the weakest token's weight
/// governs (conservative under token independence).
pub fn match_values(db: &Database, word: &str) -> Vec<(TableId, ColumnId, f64)> {
    let tokens = relstore::index::tokenize(word);
    if tokens.is_empty() {
        return Vec::new();
    }
    // Intersect per-token pair sets, tracking the max df (= the least
    // selective token) per surviving pair. The directory lists a token's
    // pairs in ascending order, so the survivors stay sorted.
    let mut acc: Option<Vec<((TableId, ColumnId), usize)>> = None;
    for token in &tokens {
        let df: Vec<_> = db.inverted_index().pair_counts(token).collect();
        if df.is_empty() {
            return Vec::new();
        }
        acc = Some(match acc {
            None => df,
            Some(prev) => df
                .into_iter()
                .filter_map(|(pair, d2)| {
                    let at = prev.binary_search_by_key(&pair, |e| e.0).ok()?;
                    Some((pair, prev[at].1.max(d2)))
                })
                .collect(),
        });
    }
    acc.unwrap_or_default()
        .into_iter()
        .filter_map(|((t, c), df)| {
            let w = pair_value_weight(db, t, c, df);
            (w > f64::EPSILON).then_some((t, c, w))
        })
        .collect()
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
    fn exact_table_match() {
        let db = db();
        let vocab = SchemaVocabulary::new();
        let m = vocab.match_tables(&db, "gene");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].1, weights::EXACT);
        assert!(vocab.match_tables(&db, "nothing").is_empty());
    }

    #[test]
    fn equivalent_beats_synonym_on_same_table() {
        let db = db();
        let gene = db.catalog().resolve("gene").unwrap();
        let mut vocab = SchemaVocabulary::new();
        vocab.table_synonym("locus", gene);
        vocab.table_equivalent("locus", gene);
        let m = vocab.match_tables(&db, "locus");
        assert_eq!(m.len(), 1, "deduped per table");
        assert_eq!(m[0].1, weights::EQUIVALENT, "best weight kept");
    }

    #[test]
    fn column_matching_with_aliases() {
        let db = db();
        let gene = db.catalog().resolve("gene").unwrap();
        let gid = db.table(gene).unwrap().schema().column_id("gid").unwrap();
        let mut vocab = SchemaVocabulary::new();
        vocab.column_equivalent("id", gene, gid);
        let m = vocab.match_columns(&db, "id");
        assert_eq!(m, vec![(gene, gid, weights::EQUIVALENT)]);
        let exact = vocab.match_columns(&db, "GID");
        assert_eq!(exact[0].2, weights::EXACT);
    }

    #[test]
    fn value_weight_decreases_with_frequency() {
        assert_eq!(value_weight(0), 0.0);
        assert_eq!(value_weight(1), 1.0);
        assert!(value_weight(10) < value_weight(2));
        assert!(value_weight(10_000) > 0.0);
    }

    #[test]
    fn match_values_probes_inverted_index() {
        let db = db();
        let gene = db.catalog().resolve("gene").unwrap();
        let name = db.table(gene).unwrap().schema().column_id("name").unwrap();
        let m = match_values(&db, "grpc");
        assert_eq!(m.len(), 1);
        assert_eq!((m[0].0, m[0].1), (gene, name));
        assert_eq!(m[0].2, 1.0, "unique token gets full weight");
        assert!(match_values(&db, "zzz").is_empty());
    }
}
