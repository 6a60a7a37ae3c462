//! Property-based tests for the annotation store and graph metrics.

use annostore::{
    Annotation, AnnotationId, AnnotationStore, AttachmentTarget, EdgeSet, GraphQuality,
};
use proptest::prelude::*;
use relstore::schema::TableId;
use relstore::TupleId;

fn t(row: u64) -> TupleId {
    TupleId::new(TableId(0), row)
}

fn edge_set(pairs: &[(u64, u64)]) -> EdgeSet {
    pairs.iter().map(|&(a, tu)| (AnnotationId(a), t(tu))).collect()
}

proptest! {
    /// Graph-quality ratios stay in [0,1]; subsets of the ideal have zero
    /// false positives; supersets have zero false negatives.
    #[test]
    fn quality_ratios_bounded(
        ideal in proptest::collection::vec((0u64..5, 0u64..10), 0..25),
        actual in proptest::collection::vec((0u64..5, 0u64..10), 0..25),
    ) {
        let ideal = edge_set(&ideal);
        let actual = edge_set(&actual);
        let q = GraphQuality::evaluate(&actual, &ideal);
        prop_assert!((0.0..=1.0).contains(&q.false_negative_ratio));
        prop_assert!((0.0..=1.0).contains(&q.false_positive_ratio));

        // Union is a superset of ideal → F_N = 0.
        let union: EdgeSet = ideal.iter().chain(actual.iter()).collect();
        let qu = GraphQuality::evaluate(&union, &ideal);
        prop_assert_eq!(qu.false_negative_ratio, 0.0);

        // The ideal itself is perfect.
        let qp = GraphQuality::evaluate(&ideal, &ideal);
        prop_assert_eq!(qp.false_negative_ratio, 0.0);
        prop_assert_eq!(qp.false_positive_ratio, 0.0);
    }

    /// Store invariant: `focal` and `annotations_of` are inverse views of
    /// the same true-edge relation, and the true edge set matches.
    #[test]
    fn store_views_consistent(
        attachments in proptest::collection::vec((0usize..6, 0u64..12), 0..40),
    ) {
        let mut store = AnnotationStore::new();
        let ids: Vec<AnnotationId> =
            (0..6).map(|i| store.add_annotation(Annotation::new(format!("a{i}")))).collect();
        for (a, row) in &attachments {
            store.attach(ids[*a], AttachmentTarget::tuple(t(*row))).unwrap();
        }
        let edges = store.true_edge_set();
        for (a, tuple) in edges.iter() {
            prop_assert!(store.focal(a).contains(&tuple));
            prop_assert!(store.annotations_of(tuple).contains(&a));
        }
        for aid in &ids {
            for tuple in store.focal(*aid) {
                prop_assert!(edges.contains(*aid, tuple));
            }
        }
        // No duplicates in either view.
        for aid in &ids {
            let f = store.focal(*aid);
            let mut d = f.clone();
            d.sort();
            d.dedup();
            prop_assert_eq!(f.len(), d.len());
        }
    }

    /// Prediction lifecycle: promote turns exactly the predicted edge
    /// true; discard removes it; true edges are never downgraded.
    #[test]
    fn prediction_lifecycle(
        conf in 0.0f64..=1.0,
        promote_first in any::<bool>(),
    ) {
        let mut store = AnnotationStore::new();
        let a = store.add_annotation(Annotation::new("x"));
        store.attach_predicted(a, t(1), conf).unwrap();
        if promote_first {
            store.promote(a, t(1)).unwrap();
            prop_assert_eq!(store.focal(a), vec![t(1)]);
            // Now a true edge: discard must fail.
            prop_assert!(store.discard_prediction(a, t(1)).is_err());
            // Re-predicting cannot downgrade.
            store.attach_predicted(a, t(1), 0.1).unwrap();
            prop_assert_eq!(store.edge(a, t(1)).unwrap().weight, 1.0);
        } else {
            store.discard_prediction(a, t(1)).unwrap();
            prop_assert!(store.edge(a, t(1)).is_none());
            prop_assert!(store.focal(a).is_empty());
        }
    }
}
