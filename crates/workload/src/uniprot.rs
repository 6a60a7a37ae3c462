//! The synthetic UniProt-like dataset generator.
//!
//! Produces the Gene / Protein / Publication schema of the paper's §8.1
//! setup, populated deterministically from a seed: publications double as
//! relational rows (their abstracts are what makes the naive baseline
//! drown in matches) *and* as annotations attached to the gene/protein
//! tuples they reference (which is what builds the ACG).

use crate::names;
use crate::text;
use annostore::{Annotation, AnnotationStore, AttachmentTarget};
use nebula_core::{ConceptRef, NebulaMeta, Pattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::{DataType, Database, TableSchema, TupleId, Value};

/// Size/shape parameters of a generated dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Number of gene rows (≤ 10 000).
    pub genes: usize,
    /// Number of protein rows.
    pub proteins: usize,
    /// Number of publications (each is a row *and* an annotation).
    pub publications: usize,
    /// Min/max tuples a publication links to.
    pub links_per_publication: (usize, usize),
    /// Number of gene families.
    pub families: usize,
    /// Min/max filler words in a publication abstract.
    pub abstract_words: (usize, usize),
    /// One in `confuser_rate` filler words is identifier-shaped noise
    /// (0 disables).
    pub confuser_rate: usize,
    /// How many protein ids NebulaMeta samples for `protein.pid`.
    pub protein_sample_size: usize,
    /// Locality window (in gene-index units) within which a publication's
    /// references cluster. Real curation data exhibits strong locality —
    /// publications cite biologically related entities — which is what
    /// keeps ACG K-hop neighborhoods small (the premise of the paper's
    /// focal-based spreading search, §6.3).
    pub locality_window: usize,
}

impl DatasetSpec {
    /// Minimal dataset for unit tests and doc examples.
    pub fn tiny() -> Self {
        DatasetSpec {
            genes: 40,
            proteins: 60,
            publications: 80,
            links_per_publication: (1, 4),
            families: 4,
            abstract_words: (10, 25),
            confuser_rate: 12,
            protein_sample_size: 20,
            locality_window: 8,
        }
    }

    /// `D_small` — the 10% subset (scaled to laptop size).
    pub fn small() -> Self {
        DatasetSpec {
            genes: 500,
            proteins: 750,
            publications: 2_000,
            links_per_publication: (1, 5),
            families: 10,
            abstract_words: (20, 60),
            confuser_rate: 12,
            protein_sample_size: 150,
            locality_window: 12,
        }
    }

    /// `D_mid` — the 50% subset.
    pub fn mid() -> Self {
        DatasetSpec {
            genes: 2_500,
            proteins: 3_750,
            publications: 10_000,
            links_per_publication: (1, 5),
            families: 15,
            abstract_words: (20, 60),
            confuser_rate: 12,
            protein_sample_size: 400,
            locality_window: 12,
        }
    }

    /// `D_large` — the full extraction.
    pub fn large() -> Self {
        DatasetSpec {
            genes: 5_000,
            proteins: 7_500,
            publications: 20_000,
            links_per_publication: (1, 5),
            families: 20,
            abstract_words: (20, 60),
            confuser_rate: 12,
            protein_sample_size: 800,
            locality_window: 12,
        }
    }

    /// The gene a protein belongs to: proteins are laid out along the
    /// gene axis (many-to-one, locality-preserving).
    pub fn gene_of_protein(&self, protein: usize) -> usize {
        if self.proteins == 0 {
            return 0;
        }
        (protein * self.genes / self.proteins).min(self.genes.saturating_sub(1))
    }

    /// The protein index range belonging to a gene (possibly empty).
    pub fn proteins_of_gene(&self, gene: usize) -> std::ops::Range<usize> {
        if self.genes == 0 {
            return 0..0;
        }
        let lo = (gene * self.proteins).div_ceil(self.genes);
        let hi = ((gene + 1) * self.proteins).div_ceil(self.genes).min(self.proteins);
        lo..hi.max(lo)
    }
}

/// One reference to embed in an abstract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefSpec {
    /// The concept word introducing the reference (`gene` / `protein`).
    pub concept: &'static str,
    /// The referencing text (an id or name).
    pub text: String,
    /// The referenced tuple.
    pub tuple: TupleId,
}

/// A fully generated dataset.
#[derive(Debug)]
pub struct DatasetBundle {
    /// The relational database (gene, protein, publication tables).
    pub db: Database,
    /// The annotation store: every publication attached to its links.
    pub annotations: AnnotationStore,
    /// NebulaMeta configured for this schema.
    pub meta: NebulaMeta,
    /// Gene tuple ids by index.
    pub gene_tuples: Vec<TupleId>,
    /// Protein tuple ids by index.
    pub protein_tuples: Vec<TupleId>,
    /// Publication tuple ids by index.
    pub publication_tuples: Vec<TupleId>,
    /// The spec the bundle was generated from.
    pub spec: DatasetSpec,
    seed: u64,
}

impl DatasetBundle {
    /// Any gene tuple (used by examples).
    pub fn some_gene_tuple(&self) -> TupleId {
        self.gene_tuples[0]
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Build a [`RefSpec`] for entity index `i` in the combined
    /// gene-then-protein index space; genes alternate id/name references.
    pub fn reference_for(&self, i: usize, by_name: bool) -> RefSpec {
        if i < self.gene_tuples.len() {
            RefSpec {
                concept: "gene",
                text: if by_name { names::gene_name(i) } else { names::gene_id(i) },
                tuple: self.gene_tuples[i],
            }
        } else {
            let p = i - self.gene_tuples.len();
            RefSpec {
                concept: "protein",
                text: names::protein_id(p),
                tuple: self.protein_tuples[p],
            }
        }
    }
}

/// Create the Gene / Protein / Publication schema.
fn create_schema(db: &mut Database) {
    db.create_table(
        TableSchema::builder("gene")
            .column("gid", DataType::Text)
            .column("name", DataType::Text)
            .indexed_column("family", DataType::Text)
            .column("length", DataType::Int)
            .unsearchable_column("seq", DataType::Text)
            .primary_key("gid")
            .build()
            .expect("static schema is valid"),
    )
    .expect("fresh database");
    db.create_table(
        TableSchema::builder("protein")
            .column("pid", DataType::Text)
            .column("pname", DataType::Text)
            .column("ptype", DataType::Text)
            .column("gene_id", DataType::Text)
            .column("mass", DataType::Int)
            .primary_key("pid")
            .build()
            .expect("static schema is valid"),
    )
    .expect("fresh database");
    db.create_table(
        TableSchema::builder("publication")
            .column("pub_id", DataType::Text)
            .column("title", DataType::Text)
            .column("abstract", DataType::Text)
            .primary_key("pub_id")
            .build()
            .expect("static schema is valid"),
    )
    .expect("fresh database");
    db.add_foreign_key("protein", "gene_id", "gene").expect("fk targets exist");
}

/// Configure NebulaMeta for the generated schema (the §8.1 manual
/// population: Gene and Protein concepts, their referencing columns, the
/// syntactic patterns on `gene.gid` / `gene.name`, plus a protein-id
/// sample and the protein-type ontology).
pub fn build_meta(spec: &DatasetSpec) -> NebulaMeta {
    let mut meta = NebulaMeta::new();
    meta.add_concept(ConceptRef {
        concept: "Gene".into(),
        table: "gene".into(),
        referenced_by: vec![vec!["gid".into()], vec!["name".into()]],
    });
    meta.add_concept(ConceptRef {
        concept: "Protein".into(),
        table: "protein".into(),
        referenced_by: vec![vec!["pid".into()], vec!["pname".into(), "ptype".into()]],
    });
    meta.set_pattern("gene", "gid", Pattern::compile("JW[0-9]{4}").expect("static pattern"));
    meta.set_pattern("gene", "name", Pattern::compile("[a-z]{3}[A-Z]").expect("static pattern"));
    meta.set_sample(
        "protein",
        "pid",
        (0..spec.protein_sample_size.min(spec.proteins)).map(names::protein_id),
    );
    meta.set_ontology("protein", "ptype", names::PROTEIN_TYPES.iter().copied());
    meta.set_sample(
        "protein",
        "pname",
        (0..spec.protein_sample_size.min(spec.proteins)).map(names::protein_name),
    );
    // Curator equivalent names ("GID" ≡ "gene id" in the paper's example).
    meta.add_column_equivalent("id", "gene", "gid");
    meta.add_table_synonym("locus", "gene");
    meta
}

/// Compose an abstract embedding `refs`, with filler between them. If
/// `budget_bytes` is given the output stays within it (references take
/// priority over filler; the compact "concept r1 r2 r3" form is used when
/// tight).
pub fn compose_abstract(
    rng: &mut StdRng,
    refs: &[RefSpec],
    filler_words: usize,
    confuser_rate: usize,
    budget_bytes: Option<usize>,
) -> String {
    let mut out = String::new();
    match budget_bytes {
        Some(budget) => {
            // Compact: group by concept, emit each concept word once.
            let mut by_concept: Vec<(&str, Vec<&RefSpec>)> = Vec::new();
            for r in refs {
                match by_concept.iter_mut().find(|(c, _)| *c == r.concept) {
                    Some((_, v)) => v.push(r),
                    None => by_concept.push((r.concept, vec![r])),
                }
            }
            for (concept, group) in by_concept {
                if !out.is_empty() {
                    out.push(' ');
                }
                // Multi-reference groups read naturally in the plural half
                // the time ("genes JW0013 JW0019"), exercising the lexical
                // normalization the discovery side must perform.
                if group.len() > 1 && rng.gen_bool(0.5) {
                    out.push_str(concept);
                    out.push('s');
                } else {
                    out.push_str(concept);
                }
                for r in group {
                    out.push(' ');
                    out.push_str(&r.text);
                }
            }
            // Pad with filler words while they fit.
            let mut padded = out.clone();
            let mut n = 0;
            while padded.len() < budget.saturating_sub(12) && n < filler_words {
                text::push_filler(rng, &mut padded, 1, confuser_rate);
                n += 1;
                if padded.len() <= budget {
                    out = padded.clone();
                } else {
                    break;
                }
            }
        }
        None => {
            // Spacious: filler, then each reference in its own clause,
            // sometimes in the Type-1 form ("gene id JW0013"), sometimes
            // with the concept word beyond the α range (exercising the
            // backward search).
            text::push_filler(rng, &mut out, filler_words / 2, confuser_rate);
            for (i, r) in refs.iter().enumerate() {
                out.push(' ');
                match rng.gen_range(0..4) {
                    0 => {
                        // Type-1 form.
                        out.push_str(r.concept);
                        out.push_str(" id ");
                        out.push_str(&r.text);
                    }
                    1 if i > 0 && refs[i - 1].concept == r.concept => {
                        // Continuation: concept inherited from the previous
                        // reference (backward-search case).
                        out.push_str("and ");
                        out.push_str(&r.text);
                    }
                    _ => {
                        out.push_str(r.concept);
                        out.push(' ');
                        out.push_str(&r.text);
                    }
                }
            }
            out.push(' ');
            text::push_filler(rng, &mut out, filler_words - filler_words / 2, confuser_rate);
        }
    }
    out
}

/// Pick `n` distinct entity references clustered around a random center
/// gene, within the spec's locality window — the co-citation locality real
/// curated data exhibits (and the premise of focal-based spreading).
///
/// `genes_only` restricts to gene references (used for byte-tight
/// annotations whose protein references would not fit).
pub fn pick_local_refs(
    rng: &mut StdRng,
    spec: &DatasetSpec,
    genes: &[TupleId],
    prots: &[TupleId],
    n: usize,
    genes_only: bool,
) -> Vec<RefSpec> {
    let w = spec.locality_window.max(1) as i64;
    let center = rng.gen_range(0..genes.len()) as i64;
    let mut refs: Vec<RefSpec> = Vec::with_capacity(n);
    let mut used = std::collections::HashSet::new();
    let mut attempts = 0usize;
    while refs.len() < n {
        attempts += 1;
        // Safety valve for degenerate windows (cannot realistically fire
        // with window ≥ n, but never loop forever).
        let reach = if attempts > n * 50 { w * 8 } else { w };
        let g = (center + rng.gen_range(-reach..=reach)).clamp(0, genes.len() as i64 - 1) as usize;
        // ~70% genes, 30% proteins of nearby genes.
        let pick_gene = genes_only || rng.gen_range(0..10) < 7 || prots.is_empty();
        let r = if pick_gene {
            if !used.insert(genes[g]) {
                continue;
            }
            RefSpec {
                concept: "gene",
                text: if rng.gen_bool(0.5) { names::gene_id(g) } else { names::gene_name(g) },
                tuple: genes[g],
            }
        } else {
            let range = spec.proteins_of_gene(g);
            if range.is_empty() {
                continue;
            }
            let p = rng.gen_range(range.start..range.end).min(prots.len() - 1);
            if !used.insert(prots[p]) {
                continue;
            }
            // Half the protein references use the unique id; the other
            // half the *ambiguous* `PName & PType` combination (the
            // paper's ConceptRefs combined reference) — protein names
            // repeat, so these are the genuinely uncertain predictions
            // that exercise the expert-verification band.
            let text = if rng.gen_bool(0.5) {
                names::protein_id(p)
            } else {
                format!("{} {}", names::protein_name(p), names::protein_type(p))
            };
            RefSpec { concept: "protein", text, tuple: prots[p] }
        };
        refs.push(r);
    }
    refs
}

/// Generate a complete dataset from a spec and seed.
pub fn generate_dataset(spec: &DatasetSpec, seed: u64) -> DatasetBundle {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    create_schema(&mut db);

    let mut gene_tuples = Vec::with_capacity(spec.genes);
    for i in 0..spec.genes {
        let tid = db
            .insert(
                "gene",
                vec![
                    Value::text(names::gene_id(i)),
                    Value::text(names::gene_name(i)),
                    Value::text(names::family(i, spec.families)),
                    Value::Int(rng.gen_range(300..3000)),
                    Value::text(names::sequence(&mut rng, 24)),
                ],
            )
            .expect("generated gene rows are unique and typed");
        gene_tuples.push(tid);
    }

    let mut protein_tuples = Vec::with_capacity(spec.proteins);
    for i in 0..spec.proteins {
        let gene_idx = spec.gene_of_protein(i);
        let tid = db
            .insert(
                "protein",
                vec![
                    Value::text(names::protein_id(i)),
                    Value::text(names::protein_name(i)),
                    Value::text(names::protein_type(i)),
                    Value::text(names::gene_id(gene_idx)),
                    Value::Int(rng.gen_range(10_000..120_000)),
                ],
            )
            .expect("generated protein rows are unique and typed");
        protein_tuples.push(tid);
    }

    let mut annotations = AnnotationStore::new();
    let mut publication_tuples = Vec::with_capacity(spec.publications);
    for i in 0..spec.publications {
        let n_links =
            rng.gen_range(spec.links_per_publication.0..=spec.links_per_publication.1).max(1);
        let refs = pick_local_refs(&mut rng, spec, &gene_tuples, &protein_tuples, n_links, false);
        let words = rng.gen_range(spec.abstract_words.0..=spec.abstract_words.1);
        let abstract_text = compose_abstract(&mut rng, &refs, words, spec.confuser_rate, None);
        let title = text::filler_sentence(&mut rng, 6);
        let tid = db
            .insert(
                "publication",
                vec![
                    Value::text(format!("PUB{i:06}")),
                    Value::text(title),
                    Value::text(abstract_text.clone()),
                ],
            )
            .expect("generated publication rows are unique and typed");
        publication_tuples.push(tid);

        // The publication is also an annotation attached to its links —
        // the complete (ideal) attachment set.
        let aid = annotations.add_annotation(Annotation::new(abstract_text).of_kind("publication"));
        for r in &refs {
            annotations
                .attach(aid, AttachmentTarget::tuple(r.tuple))
                .expect("attachment targets exist");
        }
    }

    let meta = build_meta(spec);
    DatasetBundle {
        db,
        annotations,
        meta,
        gene_tuples,
        protein_tuples,
        publication_tuples,
        spec: spec.clone(),
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_dataset_has_expected_shape() {
        let spec = DatasetSpec::tiny();
        let b = generate_dataset(&spec, 42);
        assert_eq!(b.gene_tuples.len(), spec.genes);
        assert_eq!(b.protein_tuples.len(), spec.proteins);
        assert_eq!(b.publication_tuples.len(), spec.publications);
        assert_eq!(b.db.total_tuples(), spec.genes + spec.proteins + spec.publications);
        assert_eq!(b.annotations.annotation_count(), spec.publications);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetSpec::tiny();
        let a = generate_dataset(&spec, 7);
        let b = generate_dataset(&spec, 7);
        for (x, y) in a.publication_tuples.iter().zip(&b.publication_tuples) {
            assert_eq!(a.db.get(*x).unwrap().values, b.db.get(*y).unwrap().values);
        }
        let c = generate_dataset(&spec, 8);
        let same = a
            .publication_tuples
            .iter()
            .zip(&c.publication_tuples)
            .all(|(x, y)| a.db.get(*x).unwrap().values == c.db.get(*y).unwrap().values);
        assert!(!same, "different seeds produce different data");
    }

    #[test]
    fn every_publication_has_attachments() {
        let b = generate_dataset(&DatasetSpec::tiny(), 1);
        for (aid, _) in b.annotations.iter_annotations() {
            let focal = b.annotations.focal(aid);
            assert!(!focal.is_empty());
            assert!(focal.len() <= b.spec.links_per_publication.1);
        }
    }

    #[test]
    fn abstracts_embed_their_references() {
        let b = generate_dataset(&DatasetSpec::tiny(), 3);
        // For each annotation, at least one referenced tuple's id or name
        // appears in the text.
        for (aid, ann) in b.annotations.iter_annotations() {
            let focal = b.annotations.focal(aid);
            let found = focal.iter().any(|t| {
                let tuple = b.db.get(*t).unwrap();
                let key = tuple.key().unwrap().render();
                let named = ["name", "pname"].iter().any(|col| {
                    tuple.get_by_name(col).map(|v| ann.text.contains(&v.render())).unwrap_or(false)
                });
                ann.text.contains(&key) || named
            });
            assert!(found, "annotation text references its attachments: {}", ann.text);
        }
    }

    #[test]
    fn meta_scores_dataset_identifiers() {
        let spec = DatasetSpec::tiny();
        let b = generate_dataset(&spec, 5);
        let gene_t = b.db.catalog().resolve("gene").unwrap();
        let gid = b.db.table(gene_t).unwrap().schema().column_id("gid").unwrap();
        assert!(b.meta.domain_weight(&b.db, "JW0007", gene_t, gid) >= 0.9);
        let prot_t = b.db.catalog().resolve("protein").unwrap();
        let pid = b.db.table(prot_t).unwrap().schema().column_id("pid").unwrap();
        // Sampled protein id scores exact; unsampled scores shape.
        assert!(b.meta.domain_weight(&b.db, &names::protein_id(0), prot_t, pid) >= 0.8);
        let unsampled = names::protein_id(spec.proteins - 1);
        let w = b.meta.domain_weight(&b.db, &unsampled, prot_t, pid);
        assert!((0.5..0.8).contains(&w), "unsampled pid scores shape: {w}");
    }

    #[test]
    fn compose_abstract_respects_budget() {
        let mut rng = StdRng::seed_from_u64(2);
        let refs = vec![
            RefSpec {
                concept: "gene",
                text: "JW0001".into(),
                tuple: TupleId::new(relstore::schema::TableId(0), 1),
            },
            RefSpec {
                concept: "gene",
                text: "abcD".into(),
                tuple: TupleId::new(relstore::schema::TableId(0), 2),
            },
            RefSpec {
                concept: "protein",
                text: "P00003".into(),
                tuple: TupleId::new(relstore::schema::TableId(1), 3),
            },
        ];
        let s = compose_abstract(&mut rng, &refs, 30, 0, Some(50));
        assert!(s.len() <= 50, "{} bytes: {s}", s.len());
        assert!(s.contains("JW0001"));
        assert!(s.contains("abcD"));
        assert!(s.contains("P00003"));
        // Concept words emitted once per group (compact form).
        assert_eq!(s.matches("gene").count(), 1);
    }

    #[test]
    fn reference_for_spans_both_entity_kinds() {
        let b = generate_dataset(&DatasetSpec::tiny(), 11);
        let g = b.reference_for(0, false);
        assert_eq!(g.concept, "gene");
        assert_eq!(g.tuple, b.gene_tuples[0]);
        let p = b.reference_for(b.gene_tuples.len(), false);
        assert_eq!(p.concept, "protein");
        assert_eq!(p.tuple, b.protein_tuples[0]);
    }
}
