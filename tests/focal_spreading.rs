//! Integration tests for the focal-based spreading search (§6.3) and the
//! ACG machinery across crates.

use nebula::nebula_core::{
    distort, generate_queries, identify_related_tuples, spreading_search, ExecutionConfig,
    QueryGenConfig, StabilityConfig,
};
use nebula::nebula_workload::{build_workload, WorkloadSpec};
use nebula::prelude::*;
use nebula::textsearch::{ExecutionMode, SearchOptions};

fn setup() -> (DatasetBundle, Vec<nebula::nebula_workload::WorkloadSet>, Acg) {
    let bundle = generate_dataset(&DatasetSpec::tiny(), 77);
    let workload = build_workload(&bundle, &WorkloadSpec::default(), 77);
    let mut acg = Acg::build_from_store(&bundle.annotations);
    acg.set_stable(true);
    (bundle, workload, acg)
}

fn engine_for(bundle: &DatasetBundle, db: &Database) -> KeywordSearch {
    KeywordSearch::new(SearchOptions { vocab: bundle.meta.to_vocabulary(db), ..Default::default() })
}

/// Every candidate a focal-spread search finds must also be findable by
/// the full search (the miniDB is a strict subset of the database).
#[test]
fn spread_candidates_subset_of_full_search() {
    let (bundle, workload, acg) = setup();
    let config = QueryGenConfig::default();
    let exec = ExecutionConfig {
        mode: ExecutionMode::Shared,
        acg_adjustment: false,
        ..Default::default()
    };
    for wa in workload.iter().flat_map(|s| &s.annotations).take(12) {
        let (focal, _) = distort(&wa.ideal, 2);
        let queries = generate_queries(&bundle.db, &bundle.meta, &wa.annotation.text, &config);

        let engine = engine_for(&bundle, &bundle.db);
        let (full, _) = identify_related_tuples(&bundle.db, &engine, &queries, &focal, None, &exec)
            .expect("ungoverned search cannot fail");
        let full_set: std::collections::HashSet<TupleId> = full.iter().map(|c| c.tuple).collect();

        let (spread, _, _) =
            spreading_search(&bundle.db, &bundle.meta, &acg, &queries, &focal, 3, &exec)
                .expect("ungoverned search cannot fail");
        for c in spread {
            assert!(!focal.contains(&c.tuple), "the focal is never its own candidate");
            assert!(
                full_set.contains(&c.tuple),
                "focal-spread found {} that full search missed",
                c.tuple
            );
        }
    }
}

/// Growing K can only grow the miniDB and its candidate set.
#[test]
fn minidb_monotone_in_k() {
    let (bundle, workload, acg) = setup();
    let wa = workload
        .iter()
        .flat_map(|s| &s.annotations)
        .find(|wa| wa.ideal.len() >= 2)
        .expect("multi-link annotation");
    let (focal, _) = distort(&wa.ideal, 1);
    let queries =
        generate_queries(&bundle.db, &bundle.meta, &wa.annotation.text, &QueryGenConfig::default());
    let exec = ExecutionConfig::default();
    let mut prev = 0usize;
    for k in 0..5 {
        let (_, _, mini_tuples) =
            spreading_search(&bundle.db, &bundle.meta, &acg, &queries, &focal, k, &exec)
                .expect("ungoverned search cannot fail");
        assert!(mini_tuples >= prev, "K={k} shrank the miniDB");
        prev = mini_tuples;
    }
}

/// The stability gate of Definition 6.1: a fresh ACG is unstable; replaying
/// the same co-citations long enough stabilizes it, and a burst of novel
/// structure destabilizes it again.
#[test]
fn stability_lifecycle() {
    use nebula::annostore::{AnnotationStore, AttachmentTarget};
    let bundle = generate_dataset(&DatasetSpec::tiny(), 5);
    let mut store = AnnotationStore::new();
    let mut acg = Acg::new(StabilityConfig { batch_size: 4, mu: 0.3 });
    assert!(!acg.is_stable());

    // Repeatedly annotate the same pair: after the first batch every
    // attachment hits an existing edge.
    let (a, b) = (bundle.gene_tuples[0], bundle.gene_tuples[1]);
    for i in 0..8 {
        let aid = store.add_annotation(Annotation::new(format!("note {i}")));
        for t in [a, b] {
            store.attach(aid, AttachmentTarget::tuple(t)).expect("live");
            acg.add_attachment(&store, aid, t);
        }
        acg.record_annotation();
    }
    assert!(acg.is_stable(), "repeated co-citation stabilizes the graph");

    // Novel structure: link previously unconnected tuples.
    for i in 0..4 {
        let aid = store.add_annotation(Annotation::new(format!("novel {i}")));
        let (x, y) = (bundle.gene_tuples[10 + 2 * i], bundle.gene_tuples[11 + 2 * i]);
        for t in [x, y] {
            store.attach(aid, AttachmentTarget::tuple(t)).expect("live");
            acg.add_attachment(&store, aid, t);
        }
        acg.record_annotation();
    }
    assert!(!acg.is_stable(), "novel edges destabilize the graph");
}

/// The engine only engages focal spreading once the ACG is stable (when
/// `require_stable` is on), and records hop distances for accepted
/// attachments so `FocalSpreadAuto` can pick K.
#[test]
fn engine_gates_spreading_on_stability() {
    let (mut bundle, workload, acg) = setup();
    let mut nebula = Nebula::new(
        NebulaConfig {
            search_mode: SearchMode::FocalSpread { k: 2 },
            require_stable: true,
            bounds: VerificationBounds::new(0.0, 0.0), // accept everything
            ..Default::default()
        },
        bundle.meta.clone(),
    );
    // Fresh (unstable) ACG → full search.
    let wa = &workload[1].annotations[0];
    let out = nebula
        .process_annotation(&bundle.db, &mut bundle.annotations, &wa.annotation, &[wa.ideal[0]])
        .expect("runs");
    assert!(!out.used_focal_spread);

    // Mature ACG → spreading engages.
    *nebula.acg_mut() = acg;
    nebula.acg_mut().set_stable(true);
    let wa2 = &workload[1].annotations[1];
    let out2 = nebula
        .process_annotation(&bundle.db, &mut bundle.annotations, &wa2.annotation, &[wa2.ideal[0]])
        .expect("runs");
    assert!(out2.used_focal_spread);
    if !out2.accepted.is_empty() {
        assert!(nebula.profile().total() > 0, "accepted attachments feed the profile");
    }
}

/// Hop-profile coverage is monotone and `select_k` honors it.
#[test]
fn profile_guides_k() {
    let (bundle, workload, acg) = setup();
    let mut profile = HopProfile::new();
    for wa in workload.iter().flat_map(|s| &s.annotations) {
        if wa.ideal.len() < 2 {
            continue;
        }
        let (focal, rest) = distort(&wa.ideal, 1);
        for t in rest {
            if let Some(h) = acg.shortest_hops(t, &focal, 16) {
                profile.record(h);
            }
        }
    }
    assert!(profile.total() > 0);
    let mut prev = 0.0;
    for k in 0..10 {
        let c = profile.coverage(k);
        assert!(c >= prev, "coverage must be monotone");
        assert!((0.0..=1.0).contains(&c));
        prev = c;
    }
    if let Some(k) = profile.select_k(0.9) {
        assert!(profile.coverage(k) >= 0.9);
        if k > 0 {
            assert!(profile.coverage(k - 1) < 0.9, "select_k returns the smallest K");
        }
    }
    let _ = bundle;
}
