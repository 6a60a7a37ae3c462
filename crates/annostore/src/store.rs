//! The annotation store: annotations, attachments, and edge bookkeeping.

use crate::annotation::{Annotation, AnnotationId};
use crate::graph::{Edge, EdgeKind, EdgeSet};
use crate::snapshot::{self, annotation_element, cell_element, edge_element};
use nebula_codec::MultisetHash;
use relstore::schema::ColumnId;
use relstore::TupleId;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// What an annotation is attached to.
///
/// The bipartite graph of §3 is annotation ↔ tuple; cell- and column-level
/// targets refine a tuple edge with the column they concern, exactly like
/// the `[18]` engine's cell attachments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttachmentTarget {
    /// A whole row.
    Tuple(TupleId),
    /// A single cell of a row.
    Cell(TupleId, ColumnId),
}

impl AttachmentTarget {
    /// Convenience: whole-row target.
    pub fn tuple(tid: TupleId) -> Self {
        AttachmentTarget::Tuple(tid)
    }

    /// Convenience: single-cell target.
    pub fn cell(tid: TupleId, col: ColumnId) -> Self {
        AttachmentTarget::Cell(tid, col)
    }

    /// The tuple endpoint of the target.
    pub fn tuple_id(&self) -> TupleId {
        match self {
            AttachmentTarget::Tuple(t) | AttachmentTarget::Cell(t, _) => *t,
        }
    }

    /// The column, for cell targets.
    pub fn column(&self) -> Option<ColumnId> {
        match self {
            AttachmentTarget::Tuple(_) => None,
            AttachmentTarget::Cell(_, c) => Some(*c),
        }
    }
}

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The annotation id is unknown.
    UnknownAnnotation(AnnotationId),
    /// No such edge exists.
    UnknownEdge(AnnotationId, TupleId),
    /// The confidence is outside `[0, 1]`.
    InvalidWeight(String),
    /// A logged annotation names an id the store would not assign next
    /// (ids are dense, in insertion order).
    IdGap {
        /// The id the log recorded.
        expected: AnnotationId,
        /// The id the store would assign.
        next: AnnotationId,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownAnnotation(a) => write!(f, "unknown annotation {a}"),
            StoreError::UnknownEdge(a, t) => write!(f, "no edge between {a} and {t}"),
            StoreError::InvalidWeight(msg) => write!(f, "invalid weight: {msg}"),
            StoreError::IdGap { expected, next } => write!(
                f,
                "annotation id gap: log expects {} but store would assign {}",
                expected.0, next.0
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// The annotated-database store: set `A` of annotations plus the edge set
/// `E`, indexed from both endpoints. Once [`AnnotationStore::digest`] has
/// been read, every mutator keeps that running state digest current, in
/// O(size of the change).
#[derive(Debug, Default)]
pub struct AnnotationStore {
    annotations: Vec<Annotation>,
    /// Edges keyed by `(annotation, tuple)`; at most one edge per pair
    /// (re-attaching upgrades the existing edge).
    edges: HashMap<(AnnotationId, TupleId), Edge>,
    /// Cell refinements for edges that target a specific column.
    cell_columns: HashMap<(AnnotationId, TupleId), ColumnId>,
    /// tuple → annotations with a **true** edge (the hot lookup for both
    /// propagation and the ACG).
    by_tuple: HashMap<TupleId, Vec<AnnotationId>>,
    /// annotation → tuples with a true edge (the annotation's focal).
    by_annotation: HashMap<AnnotationId, Vec<TupleId>>,
    /// Started by the first [`AnnotationStore::digest`] call, so a store
    /// nobody compares hashes nothing.
    digest: OnceLock<MultisetHash>,
}

impl AnnotationStore {
    /// Empty store.
    pub fn new() -> Self {
        AnnotationStore::default()
    }

    /// The state digest: the multiset hash of every annotation, edge and
    /// cell refinement, in the encoding [`crate::snapshot`] writes them.
    /// Equal content gives an equal digest whatever order it was built
    /// in. The first call computes it from scratch; from then on the
    /// mutators maintain it and a call is O(1). Debug builds check every
    /// call against [`snapshot::fingerprint`], which recomputes it.
    pub fn digest(&self) -> u64 {
        let running = self.digest.get_or_init(|| snapshot::multiset(self)).value();
        debug_assert_eq!(
            running,
            snapshot::fingerprint(self),
            "running store digest drifted from its from-scratch oracle"
        );
        running
    }

    /// Put `edge` in place of whatever edge its pair had.
    fn set_edge(&mut self, edge: Edge) {
        if let Some(h) = self.digest.get_mut() {
            h.insert(&edge_element(&edge));
            if let Some(old) = self.edges.get(&edge.endpoints()) {
                h.remove(&edge_element(old));
            }
        }
        self.edges.insert(edge.endpoints(), edge);
    }

    /// Refine a pair to `column`, replacing any column it had.
    fn set_cell(&mut self, id: AnnotationId, tid: TupleId, column: ColumnId) {
        if let Some(h) = self.digest.get_mut() {
            h.insert(&cell_element(id, tid, column));
            if let Some(&old) = self.cell_columns.get(&(id, tid)) {
                h.remove(&cell_element(id, tid, old));
            }
        }
        self.cell_columns.insert((id, tid), column);
    }

    /// Register a new annotation, returning its id.
    pub fn add_annotation(&mut self, annotation: Annotation) -> AnnotationId {
        let id = AnnotationId(self.annotations.len() as u64);
        if let Some(h) = self.digest.get_mut() {
            h.insert(&annotation_element(id, &annotation));
        }
        self.annotations.push(annotation);
        nebula_obs::counter_add("annostore.annotations_registered", 1);
        id
    }

    /// Fetch an annotation's body.
    pub fn annotation(&self, id: AnnotationId) -> Option<&Annotation> {
        self.annotations.get(id.0 as usize)
    }

    /// Number of annotations.
    pub fn annotation_count(&self) -> usize {
        self.annotations.len()
    }

    /// Iterate `(id, annotation)`.
    pub fn iter_annotations(&self) -> impl Iterator<Item = (AnnotationId, &Annotation)> {
        self.annotations.iter().enumerate().map(|(i, a)| (AnnotationId(i as u64), a))
    }

    fn require(&self, id: AnnotationId) -> Result<(), StoreError> {
        if (id.0 as usize) < self.annotations.len() {
            Ok(())
        } else {
            Err(StoreError::UnknownAnnotation(id))
        }
    }

    /// Attach an annotation to a target as a **true attachment**
    /// (weight 1.0). Re-attaching an existing pair upgrades any predicted
    /// edge to true.
    pub fn attach(&mut self, id: AnnotationId, target: AttachmentTarget) -> Result<(), StoreError> {
        self.require(id)?;
        let tid = target.tuple_id();
        if let Some(col) = target.column() {
            self.set_cell(id, tid, col);
        }
        if matches!(self.edges.get(&(id, tid)), Some(e) if e.kind == EdgeKind::True) {
            return Ok(()); // idempotent
        }
        // New, or a prediction promoted to true.
        self.set_edge(Edge::truth(id, tid));
        self.by_tuple.entry(tid).or_default().push(id);
        self.by_annotation.entry(id).or_default().push(tid);
        nebula_obs::counter_add("annostore.edges_added", 1);
        Ok(())
    }

    /// Record a **predicted attachment** with the given confidence.
    /// A pre-existing true edge is never downgraded.
    pub fn attach_predicted(
        &mut self,
        id: AnnotationId,
        tid: TupleId,
        weight: f64,
    ) -> Result<(), StoreError> {
        self.require(id)?;
        if !(0.0..=1.0).contains(&weight) {
            return Err(StoreError::InvalidWeight(format!("{weight} outside [0,1]")));
        }
        match self.edges.get(&(id, tid)) {
            Some(e) if e.kind == EdgeKind::True => Ok(()),
            _ => {
                self.set_edge(Edge::predicted(id, tid, weight));
                nebula_obs::counter_add("annostore.edges_added", 1);
                Ok(())
            }
        }
    }

    /// Promote a predicted edge to a true attachment (verification accept).
    pub fn promote(&mut self, id: AnnotationId, tid: TupleId) -> Result<(), StoreError> {
        match self.edges.get(&(id, tid)) {
            None => Err(StoreError::UnknownEdge(id, tid)),
            Some(e) if e.kind == EdgeKind::True => Ok(()),
            Some(_) => self.attach(id, AttachmentTarget::tuple(tid)),
        }
    }

    /// Discard a predicted edge (verification reject). True edges cannot be
    /// removed this way.
    pub fn discard_prediction(&mut self, id: AnnotationId, tid: TupleId) -> Result<(), StoreError> {
        match self.edges.get(&(id, tid)) {
            Some(e) if e.kind == EdgeKind::Predicted => {
                if let Some(h) = self.digest.get_mut() {
                    h.remove(&edge_element(e));
                }
                self.edges.remove(&(id, tid));
                Ok(())
            }
            Some(_) => Err(StoreError::InvalidWeight(
                "cannot discard a true attachment as a prediction".into(),
            )),
            None => Err(StoreError::UnknownEdge(id, tid)),
        }
    }

    /// The edge between an annotation and a tuple, if any.
    pub fn edge(&self, id: AnnotationId, tid: TupleId) -> Option<&Edge> {
        self.edges.get(&(id, tid))
    }

    /// The cell column a pair is refined to, if the attachment was at cell
    /// granularity.
    pub fn cell_column(&self, id: AnnotationId, tid: TupleId) -> Option<ColumnId> {
        self.cell_columns.get(&(id, tid)).copied()
    }

    /// Borrowed view of the annotations with a true edge to `tid`, in
    /// attachment order.
    pub fn tuple_annotations(&self, tid: TupleId) -> &[AnnotationId] {
        self.by_tuple.get(&tid).map_or(&[], Vec::as_slice)
    }

    /// Borrowed view of the tuples with a true edge to `id`, in attachment
    /// order.
    pub fn annotation_tuples(&self, id: AnnotationId) -> &[TupleId] {
        self.by_annotation.get(&id).map_or(&[], Vec::as_slice)
    }

    /// Annotations with a true edge to `tid`, in attachment order (an
    /// owned copy of [`AnnotationStore::tuple_annotations`]).
    pub fn annotations_of(&self, tid: TupleId) -> Vec<AnnotationId> {
        self.tuple_annotations(tid).to_vec()
    }

    /// Tuples with a true edge to `id` — the annotation's **focal**
    /// (Definition 3.5); an owned copy of
    /// [`AnnotationStore::annotation_tuples`].
    pub fn focal(&self, id: AnnotationId) -> Vec<TupleId> {
        self.annotation_tuples(id).to_vec()
    }

    /// Number of true attachments of `id`.
    pub fn attachment_count(&self, id: AnnotationId) -> usize {
        self.annotation_tuples(id).len()
    }

    /// All edges (both kinds).
    pub fn iter_edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.values()
    }

    /// The `(annotation, tuple)` pairs of all **true** edges, as an
    /// [`EdgeSet`] for quality evaluation.
    pub fn true_edge_set(&self) -> EdgeSet {
        self.edges.values().filter(|e| e.kind == EdgeKind::True).map(Edge::endpoints).collect()
    }

    /// The pairs of all edges regardless of kind.
    pub fn all_edge_set(&self) -> EdgeSet {
        self.edges.values().map(Edge::endpoints).collect()
    }

    /// Iterate all cell-granularity refinements `(annotation, tuple,
    /// column)` (used by snapshots).
    pub fn iter_cell_columns(
        &self,
    ) -> impl Iterator<Item = (AnnotationId, TupleId, ColumnId)> + '_ {
        self.cell_columns.iter().map(|(&(a, t), &c)| (a, t, c))
    }

    /// Restore a cell refinement during snapshot load. The pair must have
    /// an edge already.
    pub fn restore_cell_column(
        &mut self,
        id: AnnotationId,
        tid: TupleId,
        column: ColumnId,
    ) -> Result<(), StoreError> {
        if self.edges.contains_key(&(id, tid)) {
            self.set_cell(id, tid, column);
            Ok(())
        } else {
            Err(StoreError::UnknownEdge(id, tid))
        }
    }

    /// Tuple-deletion cleanup: remove every edge (true and predicted) and
    /// cell refinement involving `tid`. Returns the annotations that lost
    /// a true attachment (callers may want to flag now-orphaned
    /// annotations).
    pub fn on_tuple_deleted(&mut self, tid: TupleId) -> Vec<AnnotationId> {
        let mut affected = Vec::new();
        let mut digest = self.digest.get_mut();
        self.edges.retain(|&(a, t), edge| {
            if t != tid {
                return true;
            }
            if edge.kind == EdgeKind::True {
                affected.push(a);
            }
            if let Some(h) = digest.as_deref_mut() {
                h.remove(&edge_element(edge));
            }
            false
        });
        self.cell_columns.retain(|&(a, t), &mut column| {
            if t != tid {
                return true;
            }
            if let Some(h) = digest.as_deref_mut() {
                h.remove(&cell_element(a, t, column));
            }
            false
        });
        self.by_tuple.remove(&tid);
        for a in &affected {
            if let Some(list) = self.by_annotation.get_mut(a) {
                list.retain(|t| *t != tid);
                if list.is_empty() {
                    self.by_annotation.remove(a);
                }
            }
        }
        affected.sort();
        affected.dedup();
        affected
    }

    /// All tuples that carry at least one true annotation.
    pub fn annotated_tuples(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.by_tuple.iter().filter(|(_, v)| !v.is_empty()).map(|(t, _)| *t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::schema::TableId;

    fn t(row: u64) -> TupleId {
        TupleId::new(TableId(0), row)
    }

    fn store_with(n: usize) -> (AnnotationStore, Vec<AnnotationId>) {
        let mut s = AnnotationStore::new();
        let ids = (0..n).map(|i| s.add_annotation(Annotation::new(format!("note {i}")))).collect();
        (s, ids)
    }

    #[test]
    fn attach_and_lookup_both_directions() {
        let (mut s, ids) = store_with(2);
        s.attach(ids[0], AttachmentTarget::tuple(t(1))).unwrap();
        s.attach(ids[0], AttachmentTarget::tuple(t(2))).unwrap();
        s.attach(ids[1], AttachmentTarget::tuple(t(1))).unwrap();
        assert_eq!(s.focal(ids[0]), vec![t(1), t(2)]);
        assert_eq!(s.annotations_of(t(1)), vec![ids[0], ids[1]]);
        assert_eq!(s.attachment_count(ids[0]), 2);
    }

    #[test]
    fn attach_is_idempotent() {
        let (mut s, ids) = store_with(1);
        s.attach(ids[0], AttachmentTarget::tuple(t(1))).unwrap();
        s.attach(ids[0], AttachmentTarget::tuple(t(1))).unwrap();
        assert_eq!(s.focal(ids[0]).len(), 1);
        assert_eq!(s.annotations_of(t(1)).len(), 1);
    }

    #[test]
    fn cell_attachment_records_column() {
        let (mut s, ids) = store_with(1);
        s.attach(ids[0], AttachmentTarget::cell(t(1), ColumnId(2))).unwrap();
        assert_eq!(s.cell_column(ids[0], t(1)), Some(ColumnId(2)));
        assert_eq!(s.annotations_of(t(1)), vec![ids[0]], "cell edges reach the tuple");
    }

    #[test]
    fn predicted_edges_do_not_appear_in_true_lookups() {
        let (mut s, ids) = store_with(1);
        s.attach_predicted(ids[0], t(1), 0.6).unwrap();
        assert!(s.annotations_of(t(1)).is_empty());
        assert!(s.focal(ids[0]).is_empty());
        assert_eq!(s.edge(ids[0], t(1)).unwrap().weight, 0.6);
        assert_eq!(s.true_edge_set().len(), 0);
        assert_eq!(s.all_edge_set().len(), 1);
    }

    #[test]
    fn promote_turns_prediction_true() {
        let (mut s, ids) = store_with(1);
        s.attach_predicted(ids[0], t(1), 0.6).unwrap();
        s.promote(ids[0], t(1)).unwrap();
        let e = s.edge(ids[0], t(1)).unwrap();
        assert_eq!(e.kind, EdgeKind::True);
        assert_eq!(e.weight, 1.0);
        assert_eq!(s.focal(ids[0]), vec![t(1)]);
        // promoting again is fine
        s.promote(ids[0], t(1)).unwrap();
        assert_eq!(s.focal(ids[0]).len(), 1);
    }

    #[test]
    fn promote_missing_edge_errors() {
        let (mut s, ids) = store_with(1);
        assert!(matches!(s.promote(ids[0], t(9)), Err(StoreError::UnknownEdge(..))));
    }

    #[test]
    fn discard_prediction_removes_edge_only_if_predicted() {
        let (mut s, ids) = store_with(1);
        s.attach_predicted(ids[0], t(1), 0.4).unwrap();
        s.discard_prediction(ids[0], t(1)).unwrap();
        assert!(s.edge(ids[0], t(1)).is_none());
        s.attach(ids[0], AttachmentTarget::tuple(t(2))).unwrap();
        assert!(s.discard_prediction(ids[0], t(2)).is_err());
    }

    #[test]
    fn true_edge_never_downgraded_by_prediction() {
        let (mut s, ids) = store_with(1);
        s.attach(ids[0], AttachmentTarget::tuple(t(1))).unwrap();
        s.attach_predicted(ids[0], t(1), 0.2).unwrap();
        assert_eq!(s.edge(ids[0], t(1)).unwrap().kind, EdgeKind::True);
    }

    #[test]
    fn invalid_weight_rejected() {
        let (mut s, ids) = store_with(1);
        assert!(s.attach_predicted(ids[0], t(1), 1.5).is_err());
        assert!(s.attach_predicted(ids[0], t(1), -0.1).is_err());
    }

    #[test]
    fn unknown_annotation_rejected() {
        let mut s = AnnotationStore::new();
        assert!(matches!(
            s.attach(AnnotationId(7), AttachmentTarget::tuple(t(0))),
            Err(StoreError::UnknownAnnotation(_))
        ));
    }

    #[test]
    fn on_tuple_deleted_cleans_everything() {
        let (mut s, ids) = store_with(2);
        s.attach(ids[0], AttachmentTarget::cell(t(1), ColumnId(0))).unwrap();
        s.attach(ids[0], AttachmentTarget::tuple(t(2))).unwrap();
        s.attach(ids[1], AttachmentTarget::tuple(t(1))).unwrap();
        s.attach_predicted(ids[1], t(1), 0.5).ok();
        let affected = s.on_tuple_deleted(t(1));
        assert_eq!(affected, vec![ids[0], ids[1]]);
        assert!(s.edge(ids[0], t(1)).is_none());
        assert!(s.edge(ids[1], t(1)).is_none());
        assert!(s.annotations_of(t(1)).is_empty());
        assert_eq!(s.focal(ids[0]), vec![t(2)], "other attachments survive");
        assert!(s.focal(ids[1]).is_empty());
        assert!(s.cell_column(ids[0], t(1)).is_none());
        // Deleting an unknown tuple is a no-op.
        assert!(s.on_tuple_deleted(t(99)).is_empty());
    }

    #[test]
    fn annotated_tuples_lists_tuples_with_true_edges() {
        let (mut s, ids) = store_with(2);
        s.attach(ids[0], AttachmentTarget::tuple(t(3))).unwrap();
        s.attach_predicted(ids[1], t(4), 0.5).unwrap();
        let v: Vec<TupleId> = s.annotated_tuples().collect();
        assert_eq!(v, vec![t(3)]);
    }
}
