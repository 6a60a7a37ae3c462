//! NebulaMeta — the auxiliary-information repository (paper §5.1).
//!
//! NebulaMeta integrates the knowledge sources Nebula consults while
//! analyzing annotation text:
//!
//! 1. a lexicon of synonyms (the paper uses WordNet; here a built-in,
//!    user-extensible synonym table plays that role),
//! 2. curator-declared *equivalent names* for tables and columns
//!    (`GID` ≡ "gene id"),
//! 3. per-column **ontologies** (controlled vocabularies),
//! 4. per-column **syntactic patterns** (e.g. `Gene.ID ~ JW[0-9]{4}`),
//! 5. random **samples** of column values for columns without ontology or
//!    pattern, and
//! 6. the **ConceptRefs** table: the key concepts of the database and the
//!    column combinations most likely used to reference them inside
//!    annotations.
//!
//! Everything is stored by *name* and resolved against a live
//! [`Database`] at use time, so one `NebulaMeta` can serve the full
//! database and every focal miniDB built from it.

use crate::patterns::Pattern;
use relstore::schema::{ColumnId, TableId};
use relstore::{DataType, Database};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Match strengths for `p(w, c)` — concept (schema) matching. Exact and
/// equivalent-name matches rank above synonym matches (§5.2.1).
pub mod concept_weights {
    /// Word equals the table/column name itself.
    pub const EXACT: f64 = 0.95;
    /// Word equals a curator-declared equivalent name.
    pub const EQUIVALENT: f64 = 0.9;
    /// Word equals a lexicon synonym.
    pub const SYNONYM: f64 = 0.65;
}

/// Match strengths for `d(w, c)` — value (domain) matching.
pub mod domain_weights {
    /// Word is a member of the column's ontology.
    pub const ONTOLOGY_MEMBER: f64 = 0.95;
    /// Word matches the column's syntactic pattern.
    pub const PATTERN_MATCH: f64 = 0.9;
    /// Word exactly equals a sampled value.
    pub const SAMPLE_EXACT: f64 = 0.85;
    /// Word has the same character-class shape as a sampled value.
    pub const SAMPLE_SHAPE: f64 = 0.6;
    /// Word merely type-conforms to the column — the floor for every
    /// type-conforming word. This is what makes the ε = 0.4 cutoff so
    /// noisy in the paper's Figure 11(c): *every* word of the right type
    /// passes it.
    pub const TYPE_ONLY: f64 = 0.4;
}

/// One row of the `ConceptRefs` system table: a key database concept and
/// the column combinations most likely used to reference it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConceptRef {
    /// Human-readable concept name, e.g. `"Gene"`.
    pub concept: String,
    /// The table holding the concept.
    pub table: String,
    /// Alternative referencing column combinations, e.g.
    /// `[["gid"], ["name"]]` — a gene is referenced by its id *or* name —
    /// or `[["pname", "ptype"]]` for a combined reference.
    pub referenced_by: Vec<Vec<String>>,
}

/// Domain knowledge about one column's values.
#[derive(Debug, Clone, Default)]
pub struct ColumnDomain {
    /// Controlled vocabulary the values belong to (lower-cased terms).
    pub ontology: Option<HashSet<String>>,
    /// Syntactic pattern the values conform to.
    pub pattern: Option<Pattern>,
    /// Evidence from sampled values (used when neither ontology nor
    /// pattern exists). Shared, so cloning the repository copies no value.
    pub sample: Arc<SampleEvidence>,
}

/// What a drawn sample says about a column's values, compiled once by
/// [`NebulaMeta::set_sample`] so that matching a word costs two hash
/// lookups instead of a pass over the sample.
#[derive(Debug, Default)]
pub struct SampleEvidence {
    /// The sampled values, ASCII-case-folded.
    values: HashSet<String>,
    /// The distinct character-class shapes among the sampled values.
    shapes: HashSet<Vec<u8>>,
}

/// A schema object a word may reference — the paper's *rectangle* (table)
/// and *triangle* (column) shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConceptTarget {
    /// The word names a table.
    Table(TableId),
    /// The word names a column.
    Column(TableId, ColumnId),
}

impl ConceptTarget {
    /// The table this target belongs to.
    pub fn table(&self) -> TableId {
        match self {
            ConceptTarget::Table(t) | ConceptTarget::Column(t, _) => *t,
        }
    }
}

/// The NebulaMeta repository.
#[derive(Debug, Clone, Default)]
pub struct NebulaMeta {
    concept_refs: Vec<ConceptRef>,
    /// alias (lower) → table names it may denote, with weight.
    table_aliases: HashMap<String, Vec<(String, f64)>>,
    /// alias (lower) → `(table, column)` names it may denote, with weight.
    column_aliases: HashMap<String, Vec<(String, String, f64)>>,
    /// `(table lower, column lower)` → domain knowledge.
    domains: HashMap<(String, String), ColumnDomain>,
}

impl NebulaMeta {
    /// Empty repository.
    pub fn new() -> Self {
        NebulaMeta::default()
    }

    /// Register a concept (a `ConceptRefs` row).
    pub fn add_concept(&mut self, concept: ConceptRef) {
        self.concept_refs.push(concept);
    }

    /// The registered concepts.
    pub fn concepts(&self) -> &[ConceptRef] {
        &self.concept_refs
    }

    /// Declare a curator equivalent name for a table
    /// (e.g. `"locus table"` for `gene`).
    pub fn add_table_equivalent(&mut self, alias: &str, table: &str) {
        self.table_aliases
            .entry(alias.to_lowercase())
            .or_default()
            .push((table.to_string(), concept_weights::EQUIVALENT));
    }

    /// Declare a lexicon synonym for a table (the WordNet role).
    pub fn add_table_synonym(&mut self, alias: &str, table: &str) {
        self.table_aliases
            .entry(alias.to_lowercase())
            .or_default()
            .push((table.to_string(), concept_weights::SYNONYM));
    }

    /// Declare a curator equivalent name for a column
    /// (e.g. `"id"` for `gene.gid`).
    pub fn add_column_equivalent(&mut self, alias: &str, table: &str, column: &str) {
        self.column_aliases.entry(alias.to_lowercase()).or_default().push((
            table.to_string(),
            column.to_string(),
            concept_weights::EQUIVALENT,
        ));
    }

    /// Declare a lexicon synonym for a column.
    pub fn add_column_synonym(&mut self, alias: &str, table: &str, column: &str) {
        self.column_aliases.entry(alias.to_lowercase()).or_default().push((
            table.to_string(),
            column.to_string(),
            concept_weights::SYNONYM,
        ));
    }

    /// Attach an ontology (controlled vocabulary) to a column.
    pub fn set_ontology<I, S>(&mut self, table: &str, column: &str, terms: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.domain_mut(table, column).ontology =
            Some(terms.into_iter().map(|t| t.as_ref().to_lowercase()).collect());
    }

    /// Attach a syntactic pattern to a column.
    pub fn set_pattern(&mut self, table: &str, column: &str, pattern: Pattern) {
        self.domain_mut(table, column).pattern = Some(pattern);
    }

    /// Attach a drawn sample to a column.
    pub fn set_sample<I, S>(&mut self, table: &str, column: &str, values: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut evidence = SampleEvidence::default();
        for v in values {
            evidence.shapes.insert(shape_signature(v.as_ref()));
            evidence.values.insert(v.as_ref().to_ascii_lowercase());
        }
        self.domain_mut(table, column).sample = Arc::new(evidence);
    }

    fn domain_mut(&mut self, table: &str, column: &str) -> &mut ColumnDomain {
        self.domains.entry((table.to_lowercase(), column.to_lowercase())).or_default()
    }

    /// Domain knowledge for a column, if declared.
    pub fn domain(&self, table: &str, column: &str) -> Option<&ColumnDomain> {
        self.domains.get(&(table.to_lowercase(), column.to_lowercase()))
    }

    /// All *target columns* — the `(table, column)` pairs appearing in any
    /// concept's `referenced_by` lists — resolved against `db`.
    pub fn target_columns(&self, db: &Database) -> Vec<(TableId, ColumnId)> {
        let mut out = Vec::new();
        for cr in &self.concept_refs {
            let Some(tid) = db.catalog().resolve(&cr.table) else { continue };
            let Some(table) = db.table(tid) else { continue };
            for combo in &cr.referenced_by {
                for col in combo {
                    if let Some(cid) = table.schema().column_id(col) {
                        out.push((tid, cid));
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// The names `ConceptRefs` gives the schema objects of `db`, resolved
    /// once so a whole annotation's words are matched against them
    /// (`p(w, c)`, §5.2.1 Step 1). Only tables/columns appearing in
    /// `ConceptRefs` participate.
    pub fn concept_matcher<'a>(&'a self, db: &'a Database) -> ConceptMatcher<'a> {
        // Tables and columns named in ConceptRefs match exactly; the
        // concept's own display name is an equivalent of its table.
        let mut names = Vec::new();
        let mut name = |raw: &'a str, target, weight| {
            names.push(ConceptName { raw, lower: raw.to_lowercase(), target, weight });
        };
        for cr in &self.concept_refs {
            let Some(tid) = db.catalog().resolve(&cr.table) else { continue };
            name(&cr.table, ConceptTarget::Table(tid), concept_weights::EXACT);
            name(&cr.concept, ConceptTarget::Table(tid), concept_weights::EQUIVALENT);
            let Some(table) = db.table(tid) else { continue };
            for col in cr.referenced_by.iter().flatten() {
                if let Some(cid) = table.schema().column_id(col) {
                    name(col, ConceptTarget::Column(tid, cid), concept_weights::EXACT);
                }
            }
        }
        ConceptMatcher { meta: self, db, names }
    }

    fn table_in_concepts(&self, table: &str) -> bool {
        self.concept_refs.iter().any(|cr| cr.table.eq_ignore_ascii_case(table))
    }

    /// A column's data type and declared domain, if the column exists.
    fn column_domain(
        &self,
        db: &Database,
        table: TableId,
        column: ColumnId,
    ) -> Option<(DataType, Option<&ColumnDomain>)> {
        let schema = db.table(table)?.schema();
        let def = schema.column(column)?;
        let key = (schema.name.to_lowercase(), def.name.to_lowercase());
        Some((def.data_type, self.domains.get(&key)))
    }

    /// `d(w, c)`: probability the word belongs to the domain of column
    /// `(table, column)` (§5.2.1 Step 2). Returns 0.0 when the word cannot
    /// possibly be a value of the column (type mismatch).
    pub fn domain_weight(
        &self,
        db: &Database,
        word: &str,
        table: TableId,
        column: ColumnId,
    ) -> f64 {
        match self.column_domain(db, table, column) {
            Some((ty, domain)) => domain_score(&WordForms::of(word), ty, domain),
            None => 0.0,
        }
    }

    /// The target columns of `db` with their types and declared domains,
    /// resolved once so a whole annotation's words are scored against them.
    pub fn domain_matcher(&self, db: &Database) -> DomainMatcher<'_> {
        let columns = self
            .target_columns(db)
            .into_iter()
            .filter_map(|(t, c)| {
                let (ty, domain) = self.column_domain(db, t, c)?;
                Some((t, c, ty, domain))
            })
            .collect();
        DomainMatcher { columns }
    }

    /// Export the schema vocabulary for the keyword-search engine, so its
    /// metadata matching agrees with NebulaMeta's.
    pub fn to_vocabulary(&self, db: &Database) -> textsearch::SchemaVocabulary {
        let mut vocab = textsearch::SchemaVocabulary::new();
        for (alias, targets) in &self.table_aliases {
            for (tname, weight) in targets {
                if let Some(tid) = db.catalog().resolve(tname) {
                    if *weight >= concept_weights::EQUIVALENT {
                        vocab.table_equivalent(alias, tid);
                    } else {
                        vocab.table_synonym(alias, tid);
                    }
                }
            }
        }
        for (alias, targets) in &self.column_aliases {
            for (tname, cname, weight) in targets {
                if let Some(tid) = db.catalog().resolve(tname) {
                    if let Some(cid) = db.table(tid).and_then(|t| t.schema().column_id(cname)) {
                        if *weight >= concept_weights::EQUIVALENT {
                            vocab.column_equivalent(alias, tid, cid);
                        } else {
                            vocab.column_synonym(alias, tid, cid);
                        }
                    }
                }
            }
        }
        vocab
    }
}

/// One name a `ConceptRefs` row gives a schema object.
#[derive(Debug)]
struct ConceptName<'a> {
    raw: &'a str,
    lower: String,
    target: ConceptTarget,
    weight: f64,
}

/// `p(w, c)` over one database; see [`NebulaMeta::concept_matcher`].
#[derive(Debug)]
pub struct ConceptMatcher<'a> {
    meta: &'a NebulaMeta,
    db: &'a Database,
    names: Vec<ConceptName<'a>>,
}

impl ConceptMatcher<'_> {
    /// Schema objects the word may reference, each with its best weight,
    /// sorted by descending weight.
    pub fn match_word(&self, word: &str) -> Vec<(ConceptTarget, f64)> {
        let w = word.to_lowercase();
        // Plural concept words match their singular form ("genes JW0013
        // and JW0014" must reach the `gene` concept) — the lexical
        // normalization WordNet provides in the paper.
        let singular = textsearch::singularize(&w);

        let mut best: Vec<(ConceptTarget, f64)> = Vec::new();
        let mut add = |target: ConceptTarget, weight: f64| match best
            .iter_mut()
            .find(|(t, _)| *t == target)
        {
            Some((_, held)) => *held = held.max(weight),
            None => best.push((target, weight)),
        };

        for name in &self.names {
            if name.raw.eq_ignore_ascii_case(&w) || singular.as_deref() == Some(&name.lower) {
                add(name.target, name.weight);
            }
        }
        // Curator equivalents and lexicon synonyms (singular form too).
        let (meta, db) = (self.meta, self.db);
        for key in std::iter::once(w.as_str()).chain(singular.as_deref()) {
            for (tname, weight) in meta.table_aliases.get(key).into_iter().flatten() {
                if let Some(tid) = db.catalog().resolve(tname) {
                    if meta.table_in_concepts(tname) {
                        add(ConceptTarget::Table(tid), *weight);
                    }
                }
            }
            for (tname, cname, weight) in meta.column_aliases.get(key).into_iter().flatten() {
                if let Some(tid) = db.catalog().resolve(tname) {
                    if let Some(cid) = db.table(tid).and_then(|t| t.schema().column_id(cname)) {
                        add(ConceptTarget::Column(tid, cid), *weight);
                    }
                }
            }
        }
        best.sort_by(|a, b| b.1.total_cmp(&a.1));
        best
    }
}

/// `d(w, c)` over one database; see [`NebulaMeta::domain_matcher`].
#[derive(Debug)]
pub struct DomainMatcher<'a> {
    columns: Vec<(TableId, ColumnId, DataType, Option<&'a ColumnDomain>)>,
}

impl DomainMatcher<'_> {
    /// `d(w, c)` across **all** target columns: every column for which the
    /// word scores above zero, sorted by descending weight.
    pub fn match_word(&self, word: &str) -> Vec<(TableId, ColumnId, f64)> {
        let forms = WordForms::of(word);
        let mut out: Vec<(TableId, ColumnId, f64)> = self
            .columns
            .iter()
            .filter_map(|&(t, c, ty, domain)| {
                let w = domain_score(&forms, ty, domain);
                (w > 0.0).then_some((t, c, w))
            })
            .collect();
        out.sort_by(|a, b| b.2.total_cmp(&a.2));
        out
    }
}

/// A word in the forms the domain factors compare, derived once per word
/// rather than once per column.
struct WordForms<'w> {
    raw: &'w str,
    /// Lower-cased, as ontology terms are stored.
    lower: String,
    /// ASCII-case-folded, as sampled values are stored.
    folded: String,
    shape: Vec<u8>,
}

impl<'w> WordForms<'w> {
    fn of(raw: &'w str) -> Self {
        WordForms {
            raw,
            lower: raw.to_lowercase(),
            folded: raw.to_ascii_lowercase(),
            shape: shape_signature(raw),
        }
    }
}

/// `d(w, c)` for one column of the given type and declared domain.
fn domain_score(word: &WordForms<'_>, ty: DataType, domain: Option<&ColumnDomain>) -> f64 {
    // Factor 1: data-type conformance.
    if !type_conforms(word.raw, ty) {
        return 0.0;
    }
    // Type conformance is the evidence floor; each further factor only
    // raises the score (positive evidence accumulates by max — a word
    // failing the pattern still type-conforms, which is exactly why
    // the ε = 0.4 threshold is noisy in Figure 11(c)).
    let mut score = domain_weights::TYPE_ONLY;
    let Some(domain) = domain else { return score };
    // Factor 2: ontology membership.
    if domain.ontology.as_ref().is_some_and(|ont| ont.contains(&word.lower)) {
        score = score.max(domain_weights::ONTOLOGY_MEMBER);
    }
    // Factor 3: syntactic pattern.
    if domain.pattern.as_ref().is_some_and(|p| p.matches(word.raw)) {
        score = score.max(domain_weights::PATTERN_MATCH);
    }
    // Factor 4: sample matching — an exact value beats a shared shape.
    if domain.sample.values.contains(&word.folded) {
        score = score.max(domain_weights::SAMPLE_EXACT);
    } else if domain.sample.shapes.contains(&word.shape) {
        score = score.max(domain_weights::SAMPLE_SHAPE);
    }
    score
}

/// Can this word be a value of a column with the given type?
fn type_conforms(word: &str, ty: DataType) -> bool {
    match ty {
        DataType::Text => true,
        DataType::Int => word.parse::<i64>().is_ok(),
        DataType::Float => word.parse::<f64>().is_ok(),
        DataType::Null => false,
    }
}

/// Character-class shape of a string, run-length compressed:
/// `JW0013` → `[Upper, Digit]`, `grpC` → `[Lower, Upper]`.
fn shape_signature(s: &str) -> Vec<u8> {
    let mut out = Vec::new();
    for ch in s.chars() {
        let class = if ch.is_ascii_digit() {
            b'd'
        } else if ch.is_lowercase() {
            b'l'
        } else if ch.is_uppercase() {
            b'u'
        } else {
            b'o'
        };
        if out.last() != Some(&class) {
            out.push(class);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{TableSchema, Value};

    fn bio_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("gene")
                .column("gid", DataType::Text)
                .column("name", DataType::Text)
                .column("length", DataType::Int)
                .primary_key("gid")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert("gene", vec![Value::text("JW0013"), Value::text("grpC"), Value::Int(1130)])
            .unwrap();
        db
    }

    fn meta() -> NebulaMeta {
        let mut m = NebulaMeta::new();
        m.add_concept(ConceptRef {
            concept: "Gene".into(),
            table: "gene".into(),
            referenced_by: vec![vec!["gid".into()], vec!["name".into()]],
        });
        m.add_column_equivalent("id", "gene", "gid");
        m.add_table_synonym("locus", "gene");
        m.set_pattern("gene", "gid", Pattern::compile("JW[0-9]{4}").unwrap());
        m.set_pattern("gene", "name", Pattern::compile("[a-z]{3}[A-Z]").unwrap());
        m
    }

    #[test]
    fn concept_matching_ranks_exact_over_synonym() {
        let db = bio_db();
        let m = meta();
        let gene_t = db.catalog().resolve("gene").unwrap();
        let exact = m.concept_matcher(&db).match_word("gene");
        assert_eq!(exact[0], (ConceptTarget::Table(gene_t), concept_weights::EXACT));
        let syn = m.concept_matcher(&db).match_word("locus");
        assert_eq!(syn[0].1, concept_weights::SYNONYM);
        assert!(m.concept_matcher(&db).match_word("banana").is_empty());
    }

    #[test]
    fn column_equivalent_matches() {
        let db = bio_db();
        let m = meta();
        let gene_t = db.catalog().resolve("gene").unwrap();
        let gid = db.table(gene_t).unwrap().schema().column_id("gid").unwrap();
        let hits = m.concept_matcher(&db).match_word("id");
        assert_eq!(hits[0], (ConceptTarget::Column(gene_t, gid), concept_weights::EQUIVALENT));
        // The column's own name matches exactly.
        let hits = m.concept_matcher(&db).match_word("GID");
        assert_eq!(hits[0].1, concept_weights::EXACT);
    }

    #[test]
    fn domain_weight_pattern_path() {
        let db = bio_db();
        let m = meta();
        let gene_t = db.catalog().resolve("gene").unwrap();
        let gid = db.table(gene_t).unwrap().schema().column_id("gid").unwrap();
        let name = db.table(gene_t).unwrap().schema().column_id("name").unwrap();
        assert_eq!(m.domain_weight(&db, "JW0014", gene_t, gid), domain_weights::PATTERN_MATCH);
        // A pattern miss falls back to the type-conformance floor.
        assert_eq!(m.domain_weight(&db, "hello", gene_t, gid), domain_weights::TYPE_ONLY);
        assert_eq!(m.domain_weight(&db, "yaaB", gene_t, name), domain_weights::PATTERN_MATCH);
    }

    #[test]
    fn domain_weight_type_gate() {
        let db = bio_db();
        let m = meta();
        let gene_t = db.catalog().resolve("gene").unwrap();
        let length = db.table(gene_t).unwrap().schema().column_id("length").unwrap();
        // "abc" cannot be an Int value.
        assert_eq!(m.domain_weight(&db, "abc", gene_t, length), 0.0);
        // "1130" conforms; no domain knowledge declared for length.
        assert_eq!(m.domain_weight(&db, "1130", gene_t, length), domain_weights::TYPE_ONLY);
    }

    #[test]
    fn domain_weight_ontology_path() {
        let db = bio_db();
        let mut m = meta();
        m.set_ontology("gene", "name", ["grpc", "grop", "yaab"]);
        let gene_t = db.catalog().resolve("gene").unwrap();
        let name = db.table(gene_t).unwrap().schema().column_id("name").unwrap();
        // Ontology and pattern both present: the stronger signal wins.
        assert_eq!(m.domain_weight(&db, "grpC", gene_t, name), domain_weights::ONTOLOGY_MEMBER);
        // In the ontology but failing the pattern → still a member.
        m.set_ontology("gene", "name", ["notapattern"]);
        assert_eq!(
            m.domain_weight(&db, "notapattern", gene_t, name),
            domain_weights::ONTOLOGY_MEMBER
        );
    }

    #[test]
    fn domain_weight_sample_paths() {
        let db = bio_db();
        let mut m = NebulaMeta::new();
        m.add_concept(ConceptRef {
            concept: "Gene".into(),
            table: "gene".into(),
            referenced_by: vec![vec!["gid".into()]],
        });
        m.set_sample("gene", "gid", ["JW0013", "JW0555"]);
        let gene_t = db.catalog().resolve("gene").unwrap();
        let gid = db.table(gene_t).unwrap().schema().column_id("gid").unwrap();
        assert_eq!(m.domain_weight(&db, "jw0013", gene_t, gid), domain_weights::SAMPLE_EXACT);
        // Same shape (letters then digits) as the sample.
        assert_eq!(m.domain_weight(&db, "AB1234", gene_t, gid), domain_weights::SAMPLE_SHAPE);
        assert_eq!(m.domain_weight(&db, "hello", gene_t, gid), domain_weights::TYPE_ONLY);
    }

    #[test]
    fn match_domains_sorted_and_filtered() {
        let db = bio_db();
        let m = meta();
        let hits = m.domain_matcher(&db).match_word("JW0013");
        assert!(!hits.is_empty());
        assert!(hits.windows(2).all(|w| w[0].2 >= w[1].2));
        // gid (pattern match) should rank first.
        let gene_t = db.catalog().resolve("gene").unwrap();
        let gid = db.table(gene_t).unwrap().schema().column_id("gid").unwrap();
        assert_eq!((hits[0].0, hits[0].1), (gene_t, gid));
    }

    #[test]
    fn target_columns_resolves_concept_refs() {
        let db = bio_db();
        let m = meta();
        assert_eq!(m.target_columns(&db).len(), 2);
    }

    #[test]
    fn shape_signature_compresses_runs() {
        assert_eq!(shape_signature("JW0013"), shape_signature("AB1234"));
        assert_ne!(shape_signature("JW0013"), shape_signature("grpC"));
        assert_eq!(shape_signature("grpC"), shape_signature("yaaB"));
    }

    #[test]
    fn vocabulary_export_carries_aliases() {
        let db = bio_db();
        let m = meta();
        let vocab = m.to_vocabulary(&db);
        let hits = vocab.match_tables(&db, "locus");
        assert_eq!(hits.len(), 1);
    }
}
