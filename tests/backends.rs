//! The search technique is a pluggable black box (§6.1): Stage 2 talks to
//! a `SearchBackend`, here the metadata-approach engine (the shard layer's
//! scatter-gather router is the other implementation; `tests/sharding.rs`
//! runs Stage 2 through it).

use nebula::nebula_core::{
    distort, generate_queries, identify_related_tuples, ExecutionConfig, QueryGenConfig,
};
use nebula::nebula_workload::{build_workload, WorkloadSet, WorkloadSpec};
use nebula::prelude::*;
use nebula::textsearch::{SearchBackend, SearchOptions};

/// The tiny dataset, a fixed annotation stream over it, its ACG and the
/// metadata-approach engine with NebulaMeta's vocabulary.
fn fixture() -> (DatasetBundle, Vec<WorkloadSet>, Acg, KeywordSearch) {
    let bundle = generate_dataset(&DatasetSpec::tiny(), 13);
    let workload = build_workload(&bundle, &WorkloadSpec::default(), 13);
    let acg = Acg::build_from_store(&bundle.annotations);
    let metadata = KeywordSearch::new(SearchOptions {
        vocab: bundle.meta.to_vocabulary(&bundle.db),
        ..Default::default()
    });
    (bundle, workload, acg, metadata)
}

#[test]
fn stage2_recovers_most_missing_references_through_the_backend_trait() {
    let (bundle, workload, acg, metadata) = fixture();
    let backend: &dyn SearchBackend = &metadata;

    let mut recovered = 0usize;
    let mut total = 0usize;
    for wa in workload.iter().flat_map(|s| &s.annotations).take(20) {
        let (focal, missing) = distort(&wa.ideal, 1);
        total += missing.len();
        let queries = generate_queries(
            &bundle.db,
            &bundle.meta,
            &wa.annotation.text,
            &QueryGenConfig::default(),
        );
        let (cands, _) = identify_related_tuples(
            &bundle.db,
            backend,
            &queries,
            &focal,
            Some(&acg),
            &ExecutionConfig::default(),
        )
        .expect("ungoverned search cannot fail");
        recovered += missing.iter().filter(|m| cands.iter().any(|c| c.tuple == **m)).count();
    }
    assert!(total > 0);
    assert!(
        recovered * 2 > total,
        "metadata backend recovers most references: {recovered}/{total}"
    );
}

/// The work stage 2 does is counted exactly and is the execution budget's
/// unit: a faster executor must report the same configurations, compiled
/// queries and tuples inspected (the size of each evaluated predicate's
/// answer set plus the live base ids), and charge the governor the same.
/// The numbers were recorded at commit `697cc39`, before the index and the
/// executor answered from the term directory.
#[test]
fn stage2_work_counts_are_pinned() {
    use nebula::nebula_govern::{begin_budget, budget_report, BudgetReport};
    use nebula::textsearch::SearchStats;

    let (bundle, workload, acg, metadata) = fixture();

    // Finite, so the governor is installed and counts; far too large to trip.
    let _budget = begin_budget(&ExecutionBudget::unbounded().with_max_tuples(1 << 40));
    let mut total = SearchStats::default();
    let mut candidates = 0usize;
    for wa in workload.iter().flat_map(|s| &s.annotations).take(40) {
        let (focal, _) = distort(&wa.ideal, 1);
        let queries = generate_queries(
            &bundle.db,
            &bundle.meta,
            &wa.annotation.text,
            &QueryGenConfig::default(),
        );
        let (cands, stats) = identify_related_tuples(
            &bundle.db,
            &metadata,
            &queries,
            &focal,
            Some(&acg),
            &ExecutionConfig::default(),
        )
        .expect("the budget cannot trip");
        total.merge(stats);
        candidates += cands.len();
    }
    assert_eq!(
        total,
        SearchStats { configurations: 714, compiled_queries: 925, tuples_inspected: 14_640 }
    );
    assert_eq!(candidates, 299);
    assert_eq!(
        budget_report(),
        BudgetReport {
            governed: true,
            tuples_inspected: 14_640,
            configurations: 714,
            candidates: 299,
            truncated_configurations: 0,
            truncated_candidates: 0,
        }
    );
}
