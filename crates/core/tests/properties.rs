//! Property-based tests for nebula-core's data structures and invariants.

use nebula_core::{
    assess_predictions, AssessmentCounts, AssessmentReport, Candidate, Decision, HopProfile,
    Pattern, VerificationBounds,
};
use proptest::prelude::*;
use relstore::schema::TableId;
use relstore::TupleId;

fn t(row: u64) -> TupleId {
    TupleId::new(TableId(0), row)
}

proptest! {
    /// Strings built from the gene-id shape always match the gene-id
    /// pattern; case-mangled ones never do.
    #[test]
    fn gene_id_pattern_complete(digits in proptest::collection::vec(0u8..10, 4)) {
        let p = Pattern::compile("JW[0-9]{4}").unwrap();
        let s: String =
            format!("JW{}", digits.iter().map(|d| (b'0' + d) as char).collect::<String>());
        prop_assert!(p.matches(&s));
        prop_assert!(!p.matches(&s.to_lowercase()));
        prop_assert!(!p.matches(&s[..5]));
        let extended = format!("{s}0");
        prop_assert!(!p.matches(&extended));
    }

    /// Counted repetition accepts exactly the advertised lengths.
    #[test]
    fn counted_repetition_exact(lo in 0u32..4, extra in 0u32..4, n in 0u32..12) {
        let hi = lo + extra;
        let p = Pattern::compile(&format!("a{{{lo},{hi}}}")).unwrap();
        let s = "a".repeat(n as usize);
        prop_assert_eq!(p.matches(&s), n >= lo && n <= hi);
    }

    /// `decide` partitions the confidence axis into three monotone bands.
    #[test]
    fn bounds_decide_monotone(
        lower in 0.0f64..=1.0,
        upper in 0.0f64..=1.0,
        c1 in 0.0f64..=1.0,
        c2 in 0.0f64..=1.0,
    ) {
        let b = VerificationBounds::new(lower, upper);
        prop_assert!(b.lower <= b.upper);
        let rank = |d: Decision| match d {
            Decision::AutoReject => 0,
            Decision::Pending => 1,
            Decision::AutoAccept => 2,
        };
        let (small, big) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        prop_assert!(rank(b.decide(small)) <= rank(b.decide(big)));
    }

    /// Hop-profile coverage is a monotone CDF reaching 1.0, and select_k
    /// returns the smallest sufficient radius.
    #[test]
    fn profile_coverage_cdf(
        hops in proptest::collection::vec(0usize..12, 1..60),
        target in 0.01f64..=1.0,
    ) {
        let mut p = HopProfile::new();
        for h in &hops {
            p.record(*h);
        }
        prop_assert_eq!(p.total() as usize, hops.len());
        let mut prev = 0.0;
        for k in 0..20 {
            let c = p.coverage(k);
            prop_assert!(c >= prev - 1e-12);
            prev = c;
        }
        prop_assert!((p.coverage(16) - 1.0).abs() < 1e-12);
        let k = p.select_k(target).expect("reachable target");
        prop_assert!(p.coverage(k) >= target);
        if k > 0 {
            prop_assert!(p.coverage(k - 1) < target);
        }
    }

    /// Assessment identities: counts partition the candidates; the four
    /// criteria stay in range; experts-only FP sources hold.
    #[test]
    fn assessment_invariants(
        confs in proptest::collection::vec(0.0f64..=1.0, 0..30),
        ideal_rows in proptest::collection::vec(0u64..40, 0..20),
        lower in 0.0f64..=1.0,
        upper in 0.0f64..=1.0,
    ) {
        let bounds = VerificationBounds::new(lower, upper);
        let candidates: Vec<Candidate> = confs
            .iter()
            .enumerate()
            .map(|(i, &c)| Candidate { tuple: t(i as u64), confidence: c, evidence: vec![] })
            .collect();
        let ideal: Vec<TupleId> = {
            let mut v: Vec<TupleId> = ideal_rows.iter().map(|r| t(*r)).collect();
            v.sort();
            v.dedup();
            v
        };
        let focal: Vec<TupleId> = ideal.first().copied().into_iter().collect();
        let (counts, report) = assess_predictions(&candidates, &bounds, &ideal, &focal);

        // Counts partition the candidates.
        prop_assert_eq!(
            counts.n_reject + counts.n_verify() + counts.n_accept(),
            candidates.len()
        );
        // Ranges.
        prop_assert!((0.0..=1.0).contains(&report.f_n));
        prop_assert!((0.0..=1.0).contains(&report.f_p));
        prop_assert!((0.0..=1.0).contains(&report.m_h) || report.m_f == 0.0);
        prop_assert!(report.m_f >= 0.0);
        // Only auto-accepts can produce false positives.
        if counts.n_accept_f == 0 {
            prop_assert_eq!(report.f_p, 0.0);
        }
        // With β_upper pinned to 1.0 nothing auto-accepts (conf ≤ 1).
        if bounds.upper >= 1.0 {
            prop_assert_eq!(counts.n_accept(), 0);
        }
    }

    /// Averaging reports preserves ranges.
    #[test]
    fn average_report_in_range(
        reports in proptest::collection::vec(
            (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=40.0, 0.0f64..=1.0),
            0..10
        )
    ) {
        let rs: Vec<AssessmentReport> = reports
            .iter()
            .map(|&(f_n, f_p, m_f, m_h)| AssessmentReport { f_n, f_p, m_f, m_h })
            .collect();
        let avg = AssessmentReport::average(&rs);
        prop_assert!((0.0..=1.0).contains(&avg.f_n));
        prop_assert!((0.0..=1.0).contains(&avg.f_p));
        prop_assert!((0.0..=40.0).contains(&avg.m_f));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `from_counts` agrees with the closed-form Definition 7.2 formulas.
    #[test]
    fn from_counts_formulas(
        n_ideal in 0usize..30,
        n_focal in 0usize..5,
        n_reject in 0usize..10,
        n_verify_t in 0usize..10,
        n_verify_f in 0usize..10,
        n_accept_t in 0usize..10,
        n_accept_f in 0usize..10,
    ) {
        let c = AssessmentCounts {
            n_ideal, n_focal, n_reject, n_verify_t, n_verify_f, n_accept_t, n_accept_f,
        };
        let r = AssessmentReport::from_counts(&c);
        if n_ideal > 0 {
            let expected =
                n_ideal.saturating_sub(n_verify_t + n_accept_t + n_focal) as f64 / n_ideal as f64;
            prop_assert!((r.f_n - expected).abs() < 1e-12);
        }
        let denom = n_verify_t + n_accept_t + n_accept_f + n_focal;
        if denom > 0 {
            prop_assert!((r.f_p - n_accept_f as f64 / denom as f64).abs() < 1e-12);
        }
        prop_assert_eq!(r.m_f, (n_verify_t + n_verify_f) as f64);
    }
}

/// `d(w, c)` as it was computed before samples were compiled into sets: a
/// pass over the sampled values per word, comparing ASCII-case-folded
/// values and then character-class shapes. Kept as the oracle for
/// [`NebulaMeta::domain_weight`].
fn reference_domain_weight(
    word: &str,
    ontology: Option<&[String]>,
    pattern: Option<&Pattern>,
    sample: &[String],
) -> f64 {
    use nebula_core::meta::domain_weights as w;
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
    let mut score = w::TYPE_ONLY;
    if ontology.is_some_and(|ont| ont.iter().any(|t| t.to_lowercase() == word.to_lowercase())) {
        score = score.max(w::ONTOLOGY_MEMBER);
    }
    if pattern.is_some_and(|p| p.matches(word)) {
        score = score.max(w::PATTERN_MATCH);
    }
    if !sample.is_empty() {
        if sample.iter().any(|v| v.eq_ignore_ascii_case(word)) {
            score = score.max(w::SAMPLE_EXACT);
        } else {
            let sig = shape_signature(word);
            if sample.iter().any(|v| shape_signature(v) == sig) {
                score = score.max(w::SAMPLE_SHAPE);
            }
        }
    }
    score
}

proptest! {
    /// Compiled sample evidence gives bit-identical weights to the pass
    /// over the sample it replaced, over mixed-case and non-ASCII values:
    /// only ASCII letters fold (`Ä` is not `ä`), shapes use the Unicode
    /// case classes.
    #[test]
    fn domain_weight_equals_the_sample_scanning_reference(
        sample in proptest::collection::vec("[a-bA-B0-1ÄäÉéß -]{0,4}", 0..6),
        ontology in proptest::collection::vec("[a-bA-BÄä]{1,3}", 0..3),
        with_ontology in any::<bool>(),
        with_pattern in any::<bool>(),
        words in proptest::collection::vec("[a-bA-B0-1ÄäÉéß -]{0,4}", 1..12),
    ) {
        use nebula_core::NebulaMeta;
        use relstore::{DataType, Database, TableSchema};

        let mut db = Database::new();
        let table = db
            .create_table(
                TableSchema::builder("Gene").column("Name", DataType::Text).build().unwrap(),
            )
            .unwrap();
        let column = db.table(table).unwrap().schema().column_id("Name").unwrap();
        let pattern = Pattern::compile("[A-B][a-b0-1]{0,3}").unwrap();

        let mut meta = NebulaMeta::new();
        meta.set_sample("gene", "name", &sample);
        if with_ontology {
            meta.set_ontology("gene", "name", &ontology);
        }
        if with_pattern {
            meta.set_pattern("gene", "name", pattern.clone());
        }
        // A clone shares the compiled evidence and must answer alike.
        let cloned = meta.clone();
        for word in words.iter().chain(&sample) {
            let want = reference_domain_weight(
                word,
                with_ontology.then_some(ontology.as_slice()),
                with_pattern.then_some(&pattern),
                &sample,
            );
            prop_assert_eq!(meta.domain_weight(&db, word, table, column).to_bits(), want.to_bits());
            prop_assert_eq!(cloned.domain_weight(&db, word, table, column), want);
        }
    }
}

#[test]
fn sample_matching_folds_ascii_only() {
    use nebula_core::meta::domain_weights as w;
    use nebula_core::NebulaMeta;
    use relstore::{DataType, Database, TableSchema};

    let mut db = Database::new();
    let table = db
        .create_table(TableSchema::builder("t").column("c", DataType::Text).build().unwrap())
        .unwrap();
    let column = db.table(table).unwrap().schema().column_id("c").unwrap();
    let mut meta = NebulaMeta::new();
    meta.set_sample("t", "c", ["Äb1"]);
    assert_eq!(meta.domain_weight(&db, "ÄB1", table, column), w::SAMPLE_EXACT);
    // `ä` is another character, not another case: only the shape (upper
    // vs lower, then a letter run, then a digit) can match, and it does not.
    assert_eq!(meta.domain_weight(&db, "äb1", table, column), w::TYPE_ONLY);
    assert_eq!(meta.domain_weight(&db, "Éa0", table, column), w::SAMPLE_SHAPE);
}

/// Follower equivalence: an engine that applies another engine's logged
/// mutations through the public [`Nebula::apply`] ends in the same store,
/// ACG, hop profile and verification queue — for the pipeline's events and
/// for the expert's accept / reject and a tuple deletion alike.
mod follower {
    use annostore::{Annotation, AnnotationId, AnnotationStore};
    use nebula_core::{
        ConceptRef, Mutation, MutationSink, Nebula, NebulaConfig, NebulaMeta, Pattern, SinkError,
        StabilityConfig, VerificationBounds,
    };
    use proptest::prelude::*;
    use relstore::{DataType, Database, TableSchema, TupleId, Value};
    use std::sync::{Arc, Mutex};

    const GENES: [(&str, &str); 6] = [
        ("JW0012", "yaaI"),
        ("JW0013", "grpC"),
        ("JW0014", "groP"),
        ("JW0019", "yaaB"),
        ("JW0021", "dnaK"),
        ("JW0035", "carA"),
    ];

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
        let ids = GENES
            .iter()
            .map(|(gid, name)| {
                db.insert("gene", vec![Value::text(*gid), Value::text(*name)]).unwrap()
            })
            .collect();
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

    /// An owned copy of one logged mutation (core only has the borrowed
    /// form; the WAL's owned one lives in `nebula-durable`).
    enum Logged {
        Add(AnnotationId, Annotation),
        Other(Mutation<'static>),
    }

    #[derive(Debug)]
    struct Capture(Arc<Mutex<Vec<Logged>>>);

    impl std::fmt::Debug for Logged {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                Logged::Add(id, a) => write!(f, "Add({id:?}, {:?})", a.text),
                Logged::Other(m) => write!(f, "{m:?}"),
            }
        }
    }

    impl MutationSink for Capture {
        fn record(&mut self, m: &Mutation<'_>) -> Result<u64, SinkError> {
            let owned = match *m {
                Mutation::AddAnnotation { expected, annotation } => {
                    Logged::Add(expected, annotation.clone())
                }
                Mutation::AttachTuple { annotation, tuple } => {
                    Logged::Other(Mutation::AttachTuple { annotation, tuple })
                }
                Mutation::AttachCell { annotation, tuple, column } => {
                    Logged::Other(Mutation::AttachCell { annotation, tuple, column })
                }
                Mutation::AttachPredicted { annotation, tuple, confidence } => {
                    Logged::Other(Mutation::AttachPredicted { annotation, tuple, confidence })
                }
                Mutation::AcceptEdge { annotation, tuple } => {
                    Logged::Other(Mutation::AcceptEdge { annotation, tuple })
                }
                Mutation::RejectEdge { annotation, tuple } => {
                    Logged::Other(Mutation::RejectEdge { annotation, tuple })
                }
                Mutation::TupleDeleted { tuple } => Logged::Other(Mutation::TupleDeleted { tuple }),
            };
            let mut log = self.0.lock().unwrap();
            log.push(owned);
            Ok(log.len() as u64)
        }

        fn checkpoint(&mut self, _: &Database, _: &AnnotationStore) -> Result<u64, SinkError> {
            Ok(0)
        }
    }

    fn queue_of(engine: &Nebula) -> Vec<(u64, AnnotationId, TupleId, u64)> {
        engine
            .queue()
            .iter()
            .map(|t| (t.vid, t.annotation, t.tuple, t.confidence.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn a_follower_applying_the_log_equals_its_origin(
            upper in prop_oneof![Just(0.0f64), Just(0.6), Just(0.9), Just(1.0)],
            // (kind, a, b, c): 0..=3 annotate, 4 expert accept, 5 expert
            // reject, 6 delete; a/b/c pick genes, focal sizes and tasks.
            steps in proptest::collection::vec((0u8..7, 0usize..6, 0usize..6, 0usize..3), 1..24),
        ) {
            let (mut db, meta, ids) = setup();
            let config = NebulaConfig {
                bounds: VerificationBounds::new(0.0, upper),
                stability: StabilityConfig { batch_size: 2, mu: 0.5 },
                ..Default::default()
            };
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut origin = Nebula::new(config.clone(), meta.clone());
            origin.set_mutation_sink(Some(Box::new(Capture(log.clone()))));
            let mut origin_store = AnnotationStore::new();
            let mut follower = Nebula::new(config, meta);
            let mut follower_store = AnnotationStore::new();
            let mut focals: Vec<Vec<TupleId>> = Vec::new();

            for &(kind, a, b, c) in &steps {
                // Run one step on the origin; `focal` is what its accepts
                // measured hop distances from, `done` whether a pipeline
                // run completed.
                let (focal, done): (Option<Vec<TupleId>>, bool) = match kind {
                    0..=3 => {
                        let text = format!(
                            "this gene {} correlates with gene {} in step {kind}",
                            GENES[a].0, GENES[b].1
                        );
                        let focal: Vec<TupleId> = (0..c).map(|i| ids[(a + b + i) % ids.len()]).collect();
                        let out = origin.process_annotation(
                            &db, &mut origin_store, &Annotation::new(text), &focal,
                        );
                        focals.push(focal.clone());
                        (Some(focal), out.is_ok())
                    }
                    4 | 5 => {
                        let Some(vid) = origin.queue().iter().nth(a).map(|t| t.vid) else { continue };
                        origin.resolve_task(&mut origin_store, vid, kind == 4).unwrap();
                        (None, false)
                    }
                    _ => {
                        origin.on_tuple_deleted(&mut origin_store, ids[a]).unwrap();
                        db.delete(ids[a]);
                        (None, false)
                    }
                };
                for logged in log.lock().unwrap().drain(..) {
                    let m = match &logged {
                        Logged::Add(expected, annotation) => {
                            Mutation::AddAnnotation { expected: *expected, annotation }
                        }
                        Logged::Other(m) => *m,
                    };
                    // An expert's accept measures from the annotation's
                    // focal set in the store, on both sides.
                    let focal = match (&focal, m) {
                        (Some(f), _) => f.clone(),
                        (None, Mutation::AcceptEdge { annotation, .. }) => {
                            follower_store.focal(annotation)
                        }
                        (None, _) => Vec::new(),
                    };
                    follower.apply(&mut follower_store, &m, &focal).unwrap();
                }
                if done {
                    follower.acg_mut().record_annotation();
                }

                prop_assert_eq!(
                    annostore::snapshot::save(&follower_store),
                    annostore::snapshot::save(&origin_store)
                );
                prop_assert_eq!(follower.acg().node_count(), origin.acg().node_count());
                prop_assert_eq!(follower.acg().edge_count(), origin.acg().edge_count());
                prop_assert_eq!(follower.acg().is_stable(), origin.acg().is_stable());
                for f in &focals {
                    prop_assert_eq!(follower.acg().k_hop(f, 2), origin.acg().k_hop(f, 2));
                }
                prop_assert_eq!(follower.profile(), origin.profile());
                prop_assert_eq!(queue_of(&follower), queue_of(&origin));
            }
        }
    }
}

/// The compact ACG against oracles that know nothing of its layout: every
/// weight recomputed from the store's annotation sets, the graph rebuilt
/// at once with [`Acg::build_from_store`], and breadth-first searches over
/// the public `neighbors()` for hops, K-hop membership and path weights.
/// Scripts run through [`Nebula::apply`], so the hop profile of every
/// accept is checked against the distance the oracle measured just before
/// that accept's edges went in.
mod acg_oracle {
    use annostore::{Annotation, AnnotationId, AnnotationStore};
    use nebula_core::{Acg, HopProfile, Mutation, Nebula, NebulaConfig, NebulaMeta};
    use proptest::prelude::*;
    use relstore::schema::{ColumnId, TableId};
    use relstore::TupleId;
    use std::collections::BTreeMap;

    fn t(row: u64) -> TupleId {
        TupleId::new(TableId(0), row)
    }

    /// The seven tuples scripts attach, and one they never do.
    fn universe() -> Vec<TupleId> {
        (0..7).map(t).chain([t(99)]).collect()
    }

    fn weight(store: &AnnotationStore, a: TupleId, b: TupleId) -> Option<f64> {
        let (sa, sb) = (store.tuple_annotations(a), store.tuple_annotations(b));
        let common = sa.iter().filter(|x| sb.contains(x)).count();
        (a != b && common > 0).then(|| common as f64 / (sa.len() + sb.len() - common) as f64)
    }

    /// Neighbours in ascending tuple id.
    fn sorted_neighbors(acg: &Acg, n: TupleId) -> Vec<TupleId> {
        let mut out: Vec<TupleId> = acg.neighbors(n).map(|(m, _)| m).collect();
        out.sort();
        out
    }

    /// Breadth-first search from `from` up to `cap` hops: each reached
    /// tuple with its distance and the lowest-id parent it was reached by.
    fn bfs(acg: &Acg, from: &[TupleId], cap: usize) -> BTreeMap<TupleId, (usize, TupleId)> {
        let mut seen: BTreeMap<TupleId, (usize, TupleId)> =
            from.iter().map(|&f| (f, (0, f))).collect();
        let mut level: Vec<TupleId> = seen.keys().copied().collect();
        for d in 1..=cap {
            let mut next = Vec::new();
            for &n in &level {
                for m in sorted_neighbors(acg, n) {
                    if let std::collections::btree_map::Entry::Vacant(e) = seen.entry(m) {
                        e.insert((d, n));
                        next.push(m);
                    }
                }
            }
            level = next;
        }
        seen
    }

    fn hops(acg: &Acg, from: TupleId, targets: &[TupleId], cap: usize) -> Option<usize> {
        let reached = bfs(acg, &[from], cap);
        targets.iter().filter_map(|g| reached.get(g).map(|&(d, _)| d)).min()
    }

    fn path_weight(acg: &Acg, from: TupleId, to: TupleId, cap: usize) -> Option<f64> {
        let reached = bfs(acg, &[from], cap);
        reached.get(&to)?;
        let (mut w, mut cur) = (1.0, to);
        while cur != from {
            let parent = reached[&cur].1;
            w *= acg.edge_weight(parent, cur)?;
            cur = parent;
        }
        Some(w)
    }

    /// Every weight, both counts, and the searches for every start, every
    /// single target and every cap up to five, plus `probes` of target
    /// sets (a bit mask over the universe) and K-hop radii.
    fn check(
        acg: &Acg,
        store: &AnnotationStore,
        probes: &[(usize, u16, usize)],
    ) -> Result<(), TestCaseError> {
        let u = universe();
        let rebuilt = Acg::build_from_store(store);
        prop_assert_eq!(acg.node_count(), rebuilt.node_count());
        prop_assert_eq!(acg.edge_count(), rebuilt.edge_count());
        let linked = u.iter().filter(|&&a| u.iter().any(|&b| weight(store, a, b).is_some()));
        prop_assert_eq!(acg.node_count(), linked.count());
        for &a in &u {
            for &b in &u {
                let want = weight(store, a, b).map(f64::to_bits);
                prop_assert_eq!(acg.edge_weight(a, b).map(f64::to_bits), want, "{} {}", a, b);
                prop_assert_eq!(rebuilt.edge_weight(a, b).map(f64::to_bits), want);
            }
        }
        for &from in &u {
            for &to in &u {
                for cap in 0..5 {
                    prop_assert_eq!(
                        acg.shortest_hops(from, &[to], cap),
                        hops(acg, from, &[to], cap),
                        "{} → {} within {}",
                        from,
                        to,
                        cap
                    );
                    let want = path_weight(acg, from, to, cap).map(f64::to_bits);
                    prop_assert_eq!(acg.path_weight(from, to, cap).map(f64::to_bits), want);
                }
            }
        }
        for &(from, mask, cap) in probes {
            let targets: Vec<TupleId> =
                (0..u.len()).filter(|i| mask >> i & 1 == 1).map(|i| u[i]).collect();
            let from = u[from % u.len()];
            prop_assert_eq!(
                acg.shortest_hops(from, &targets, cap),
                hops(acg, from, &targets, cap),
                "{} → {:?} within {}",
                from,
                targets,
                cap
            );
            let members: Vec<TupleId> = bfs(acg, &targets, cap).into_keys().collect();
            prop_assert_eq!(acg.k_hop(&targets, cap), members);
        }
        Ok(())
    }

    /// Accept `tuple` for `annotation` the way the pipeline or an expert
    /// does, recording the oracle's distance first.
    fn accept(
        engine: &mut Nebula,
        store: &mut AnnotationStore,
        profile: &mut HopProfile,
        annotation: AnnotationId,
        tuple: TupleId,
        focal: &[TupleId],
    ) {
        if !focal.is_empty() {
            if let Some(h) = hops(engine.acg(), tuple, focal, 16) {
                profile.record(h);
            }
        }
        engine.apply(store, &Mutation::AcceptEdge { annotation, tuple }, focal).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn the_compact_acg_equals_its_oracles(
            // (kind, a, b, c): 0..=2 annotate `c + 1` focal tuples from `a`
            // and auto-accept `b` and `b + c + 1`; 3 attach an existing
            // annotation; 4 expert accept; 5 delete a tuple; 6 repeat an
            // existing attachment; 7 attach at cell granularity.
            steps in proptest::collection::vec((0u8..8, 0usize..7, 0usize..7, 0usize..3), 1..30),
            probes in proptest::collection::vec((0usize..8, 0u16..256, 0usize..5), 6),
        ) {
            let mut engine = Nebula::new(NebulaConfig::default(), NebulaMeta::new());
            let mut store = AnnotationStore::new();
            let mut profile = HopProfile::new();
            for &(kind, a, b, c) in &steps {
                let count = store.annotation_count() as u64;
                let existing = AnnotationId(a as u64 % count.max(1));
                match kind {
                    0..=2 => {
                        let aid = AnnotationId(count);
                        let note = Annotation::new("x");
                        engine
                            .apply(&mut store, &Mutation::AddAnnotation { expected: aid, annotation: &note }, &[])
                            .unwrap();
                        let focal: Vec<TupleId> = (0..=c).map(|i| t(((a + i) % 7) as u64)).collect();
                        for &f in &focal {
                            engine.apply(&mut store, &Mutation::AttachTuple { annotation: aid, tuple: f }, &[]).unwrap();
                        }
                        for tuple in [t(b as u64), t(((b + c + 1) % 7) as u64)] {
                            if !focal.contains(&tuple) && store.edge(aid, tuple).is_none() {
                                accept(&mut engine, &mut store, &mut profile, aid, tuple, &focal);
                            }
                        }
                        engine.acg_mut().record_annotation();
                    }
                    _ if count == 0 => continue,
                    3 => {
                        let m = Mutation::AttachTuple { annotation: existing, tuple: t(b as u64) };
                        engine.apply(&mut store, &m, &[]).unwrap();
                    }
                    4 => {
                        let tuple = t(b as u64);
                        if store.edge(existing, tuple).is_none() {
                            let predict = Mutation::AttachPredicted { annotation: existing, tuple, confidence: 0.5 };
                            engine.apply(&mut store, &predict, &[]).unwrap();
                        }
                        let focal = store.focal(existing);
                        accept(&mut engine, &mut store, &mut profile, existing, tuple, &focal);
                    }
                    5 => {
                        engine.apply(&mut store, &Mutation::TupleDeleted { tuple: t(b as u64) }, &[]).unwrap();
                    }
                    6 => {
                        let Some(&tuple) = store.annotation_tuples(existing).first() else { continue };
                        engine.apply(&mut store, &Mutation::AttachTuple { annotation: existing, tuple }, &[]).unwrap();
                    }
                    _ => {
                        let m = Mutation::AttachCell { annotation: existing, tuple: t(b as u64), column: ColumnId(0) };
                        engine.apply(&mut store, &m, &[]).unwrap();
                    }
                }
                check(engine.acg(), &store, &probes)?;
                prop_assert_eq!(engine.profile(), &profile);
            }
        }
    }

    /// The trap in measuring hops per annotation: the second auto-accept
    /// of one annotation is measured against a graph that already holds
    /// the first accept's edges. A chain 1 - 2 - 3 - 4 with focal {1}:
    /// accepting 3 (two hops) links it to 1, so 4 is then two hops away,
    /// not the three one search before both accepts would report.
    #[test]
    fn a_second_accept_sees_the_first_accepts_edges() {
        let mut engine = Nebula::new(NebulaConfig::default(), NebulaMeta::new());
        let mut store = AnnotationStore::new();
        let note = Annotation::new("x");
        let mut next = 0;
        let mut annotate = |engine: &mut Nebula, store: &mut AnnotationStore, rows: &[u64]| {
            let aid = AnnotationId(next);
            next += 1;
            engine
                .apply(store, &Mutation::AddAnnotation { expected: aid, annotation: &note }, &[])
                .unwrap();
            for &r in rows {
                engine
                    .apply(store, &Mutation::AttachTuple { annotation: aid, tuple: t(r) }, &[])
                    .unwrap();
            }
            aid
        };
        for pair in [[1, 2], [2, 3], [3, 4]] {
            annotate(&mut engine, &mut store, &pair);
        }
        assert_eq!(engine.acg().shortest_hops(t(4), &[t(1)], 16), Some(3));
        let aid = annotate(&mut engine, &mut store, &[1]);
        for tuple in [t(3), t(4)] {
            engine
                .apply(&mut store, &Mutation::AcceptEdge { annotation: aid, tuple }, &[t(1)])
                .unwrap();
        }
        let mut want = HopProfile::new();
        want.record(2);
        want.record(2);
        assert_eq!(engine.profile(), &want);
    }
}

/// Expert resolution through the queue's edge index against the whole-queue
/// scan it replaced: 2 000 pending tasks resolved one by one in a scrambled
/// order (every third rejected, a tuple deleted every 250 steps) leave the
/// same store bytes and, after every step, the same queue order as a
/// reference that applies each resolution to a plain store and drops
/// every task of the resolved edge (or of the deleted tuple) by scanning.
#[test]
fn draining_2000_tasks_matches_the_whole_queue_scan() {
    use annostore::{Annotation, AnnotationId, AnnotationStore};
    use nebula_core::{Mutation, Nebula, NebulaConfig, NebulaError, NebulaMeta};

    let mut engine = Nebula::new(NebulaConfig::default(), NebulaMeta::new());
    let mut store = AnnotationStore::new();
    for a in 0..200u64 {
        let aid = AnnotationId(a);
        let note = Annotation::new(format!("note {a}"));
        engine
            .apply(&mut store, &Mutation::AddAnnotation { expected: aid, annotation: &note }, &[])
            .unwrap();
        engine
            .apply(&mut store, &Mutation::AttachTuple { annotation: aid, tuple: t(a % 37) }, &[])
            .unwrap();
        for j in 0..10 {
            let tuple = t(100 + (a * 7 + j * 13) % 500);
            let predict = Mutation::AttachPredicted { annotation: aid, tuple, confidence: 0.5 };
            engine.apply(&mut store, &predict, &[]).unwrap();
        }
    }
    let mut reference = annostore::snapshot::load(&annostore::snapshot::save(&store)).unwrap();
    let mut queue: Vec<(u64, AnnotationId, TupleId)> =
        engine.queue().iter().map(|task| (task.vid, task.annotation, task.tuple)).collect();
    assert_eq!(queue.len(), 2000);

    let mut order: Vec<u64> = queue.iter().map(|q| q.0).collect();
    order.sort_by_key(|vid| vid.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40);
    for (step, vid) in order.into_iter().enumerate() {
        if step % 250 == 249 && !queue.is_empty() {
            let victim = queue[queue.len() / 2].2;
            engine.on_tuple_deleted(&mut store, victim).unwrap();
            Mutation::TupleDeleted { tuple: victim }.apply(&mut reference).unwrap();
            queue.retain(|q| q.2 != victim);
        }
        let Some(&(_, annotation, tuple)) = queue.iter().find(|q| q.0 == vid) else {
            let err = engine.resolve_task(&mut store, vid, true).unwrap_err();
            assert!(matches!(err, NebulaError::UnknownTask(v) if v == vid));
            continue;
        };
        let accept = vid % 3 != 0;
        let task = engine.resolve_task(&mut store, vid, accept).unwrap();
        assert_eq!((task.vid, task.annotation, task.tuple), (vid, annotation, tuple));
        let resolution = if accept {
            Mutation::AcceptEdge { annotation, tuple }
        } else {
            Mutation::RejectEdge { annotation, tuple }
        };
        resolution.apply(&mut reference).unwrap();
        queue.retain(|q| (q.1, q.2) != (annotation, tuple));
        let order: Vec<u64> = engine.queue().iter().map(|task| task.vid).collect();
        assert_eq!(order, queue.iter().map(|q| q.0).collect::<Vec<_>>(), "step {step}");
    }
    assert!(engine.queue().is_empty());
    assert_eq!(annostore::snapshot::save(&store), annostore::snapshot::save(&reference));
}
