//! The Annotations Connectivity Graph — ACG (paper §6.2, Figure 6).
//!
//! Each annotated tuple is a node; an edge connects two tuples iff they
//! share at least one annotation, weighted by
//! `|common annotations| / |union of their annotations|`. The ACG powers:
//!
//! - **focal-based confidence adjustment** (§6.2): candidate tuples
//!   connected to the annotation's focal get their confidence rewarded;
//! - **focal-based spreading search** (§6.3): once the graph is *stable*
//!   (few new edges per batch of annotations — Definition 6.1), the search
//!   runs only over the K-hop neighborhood of the focal.
//!
//! The graph is built incrementally as attachments arrive, and tracks the
//! batch counters (`B`, `M`, `N`) that drive the stability property.

use annostore::{AnnotationId, AnnotationStore};
use relstore::TupleId;
use std::collections::{HashMap, HashSet, VecDeque};

/// Stability configuration (Definition 6.1): over the most recent batch of
/// `batch_size` annotations with `M` total attachments, the graph is
/// stable iff `N/M < mu`, where `N` is the number of newly added edges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityConfig {
    /// Batch size `B` in annotations.
    pub batch_size: usize,
    /// Stability threshold μ < 1.
    pub mu: f64,
}

impl Default for StabilityConfig {
    fn default() -> Self {
        StabilityConfig { batch_size: 50, mu: 0.2 }
    }
}

/// The ACG.
#[derive(Debug, Clone, Default)]
pub struct Acg {
    adjacency: HashMap<TupleId, HashMap<TupleId, f64>>,
    edge_count: usize,
    stability: StabilityConfig,
    // Current-batch counters (non-overlapping batches, reset at each
    // boundary).
    batch_annotations: usize,
    batch_attachments: usize,
    batch_new_edges: usize,
    stable: bool,
}

impl Acg {
    /// Empty graph with the given stability configuration.
    pub fn new(stability: StabilityConfig) -> Self {
        Acg { stability, ..Default::default() }
    }

    /// Number of nodes (annotated tuples with at least one edge).
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Is the graph currently marked stable (Definition 6.1)?
    pub fn is_stable(&self) -> bool {
        self.stable
    }

    /// Force the stability flag (used by experiments that pre-build a
    /// mature graph at once, as §8.1 does).
    pub fn set_stable(&mut self, stable: bool) {
        self.stable = stable;
    }

    /// Weight of the edge between two tuples, if connected.
    pub fn edge_weight(&self, a: TupleId, b: TupleId) -> Option<f64> {
        self.adjacency.get(&a)?.get(&b).copied()
    }

    /// Direct neighbors of a tuple with edge weights.
    pub fn neighbors(&self, t: TupleId) -> impl Iterator<Item = (TupleId, f64)> + '_ {
        self.adjacency.get(&t).into_iter().flat_map(|m| m.iter().map(|(k, v)| (*k, *v)))
    }

    /// Insert or refresh the undirected edge `(a, b)` with the
    /// common/total annotation ratio from `store`. Returns true if the
    /// edge is new.
    fn upsert_edge(&mut self, store: &AnnotationStore, a: TupleId, b: TupleId) -> bool {
        if a == b {
            return false;
        }
        let (common, total) = store.common_annotations(a, b);
        if common == 0 {
            return false;
        }
        let weight = common as f64 / total.max(1) as f64;
        let was_new = self.adjacency.entry(a).or_default().insert(b, weight).is_none();
        self.adjacency.entry(b).or_default().insert(a, weight);
        if was_new {
            self.edge_count += 1;
        }
        was_new
    }

    /// Refresh the weights of every edge incident to `t` (annotation
    /// counts changed).
    fn refresh_incident(&mut self, store: &AnnotationStore, t: TupleId) {
        let neighbors: Vec<TupleId> =
            self.adjacency.get(&t).map(|m| m.keys().copied().collect()).unwrap_or_default();
        for n in neighbors {
            let (common, total) = store.common_annotations(t, n);
            let weight = common as f64 / total.max(1) as f64;
            if let Some(m) = self.adjacency.get_mut(&t) {
                m.insert(n, weight);
            }
            if let Some(m) = self.adjacency.get_mut(&n) {
                m.insert(t, weight);
            }
        }
    }

    /// Record a new **true attachment** of `annotation` to `tuple`:
    /// connects `tuple` with every other tuple of the annotation, refreshes
    /// incident weights, and updates the batch counters.
    ///
    /// Call *after* the attachment is recorded in `store`.
    pub fn add_attachment(
        &mut self,
        store: &AnnotationStore,
        annotation: AnnotationId,
        tuple: TupleId,
    ) {
        self.batch_attachments += 1;
        for other in store.focal(annotation) {
            if other != tuple && self.upsert_edge(store, tuple, other) {
                self.batch_new_edges += 1;
            }
        }
        self.refresh_incident(store, tuple);
    }

    /// Tuple-deletion cleanup: drop the node and every incident edge.
    pub fn remove_tuple(&mut self, tid: TupleId) {
        let Some(neighbors) = self.adjacency.remove(&tid) else { return };
        for n in neighbors.keys() {
            if let Some(m) = self.adjacency.get_mut(n) {
                m.remove(&tid);
                if m.is_empty() {
                    self.adjacency.remove(n);
                }
            }
        }
        self.edge_count -= neighbors.len();
    }

    /// Mark one annotation as fully processed; at every `batch_size`-th
    /// call the stability property is re-evaluated and the counters reset
    /// (non-overlapping batches).
    pub fn record_annotation(&mut self) {
        self.batch_annotations += 1;
        if self.batch_annotations >= self.stability.batch_size {
            let m = self.batch_attachments.max(1);
            self.stable = (self.batch_new_edges as f64 / m as f64) < self.stability.mu;
            self.batch_annotations = 0;
            self.batch_attachments = 0;
            self.batch_new_edges = 0;
        }
    }

    /// Build the whole graph at once from the store's true attachments
    /// (the §8.1 setup: "the ACG is built at once and not in an
    /// incremental fashion"). Leaves the stability flag untouched.
    pub fn build_from_store(store: &AnnotationStore) -> Acg {
        let mut acg = Acg::new(StabilityConfig::default());
        for (aid, _) in store.iter_annotations() {
            let focal = store.focal(aid);
            for (i, &a) in focal.iter().enumerate() {
                for &b in &focal[i + 1..] {
                    acg.upsert_edge(store, a, b);
                }
            }
        }
        acg
    }

    /// All tuples within `k` hops of any focal tuple (including the focal
    /// tuples themselves) — the *miniDB* membership of the focal-based
    /// spreading search (§6.3).
    pub fn k_hop(&self, focal: &[TupleId], k: usize) -> Vec<TupleId> {
        let mut seen: HashSet<TupleId> = focal.iter().copied().collect();
        let mut frontier: VecDeque<(TupleId, usize)> = focal.iter().map(|&t| (t, 0)).collect();
        while let Some((t, d)) = frontier.pop_front() {
            if d == k {
                continue;
            }
            if let Some(neigh) = self.adjacency.get(&t) {
                for &n in neigh.keys() {
                    if seen.insert(n) {
                        frontier.push_back((n, d + 1));
                    }
                }
            }
        }
        let mut out: Vec<TupleId> = seen.into_iter().collect();
        out.sort();
        out
    }

    /// Product of the edge weights along a shortest (unweighted) path from
    /// `from` to `to`, within `max_hops` — the §6.2 extension that rewards
    /// indirect focal connections by multiplying the in-between edge
    /// weights. `None` when unreachable; `Some(1.0)` when `from == to`.
    /// Among equal-length paths the one through the lowest-id parents wins.
    pub fn path_weight(&self, from: TupleId, to: TupleId, max_hops: usize) -> Option<f64> {
        if from == to {
            return Some(1.0);
        }
        // BFS with parent tracking.
        let mut parent: HashMap<TupleId, TupleId> = HashMap::new();
        let mut frontier: VecDeque<(TupleId, usize)> = VecDeque::new();
        frontier.push_back((from, 0));
        parent.insert(from, from);
        'bfs: while let Some((cur, d)) = frontier.pop_front() {
            if d == max_hops {
                continue;
            }
            if let Some(neigh) = self.adjacency.get(&cur) {
                // Ascending id order: which of several equal-length paths
                // wins must not depend on this map's per-process hash keys.
                let mut ordered: Vec<TupleId> = neigh.keys().copied().collect();
                ordered.sort_unstable();
                for n in ordered {
                    if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(n) {
                        e.insert(cur);
                        if n == to {
                            break 'bfs;
                        }
                        frontier.push_back((n, d + 1));
                    }
                }
            }
        }
        if !parent.contains_key(&to) {
            return None;
        }
        // Walk back multiplying weights.
        let mut weight = 1.0;
        let mut cur = to;
        while cur != from {
            let p = parent[&cur];
            weight *= self.edge_weight(p, cur)?;
            cur = p;
        }
        Some(weight)
    }

    /// Length of the shortest (unweighted) path from `t` to any tuple in
    /// `targets`, capped at `max_hops`. `Some(0)` when `t` is itself a
    /// target; `None` when unreachable within the cap.
    pub fn shortest_hops(&self, t: TupleId, targets: &[TupleId], max_hops: usize) -> Option<usize> {
        if targets.contains(&t) {
            return Some(0);
        }
        let mut seen: HashSet<TupleId> = HashSet::new();
        seen.insert(t);
        let mut frontier: VecDeque<(TupleId, usize)> = VecDeque::new();
        frontier.push_back((t, 0));
        while let Some((cur, d)) = frontier.pop_front() {
            if d == max_hops {
                continue;
            }
            if let Some(neigh) = self.adjacency.get(&cur) {
                for &n in neigh.keys() {
                    if targets.contains(&n) {
                        return Some(d + 1);
                    }
                    if seen.insert(n) {
                        frontier.push_back((n, d + 1));
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annostore::{Annotation, AttachmentTarget};
    use relstore::schema::TableId;

    fn t(row: u64) -> TupleId {
        TupleId::new(TableId(0), row)
    }

    /// Store where annotation i is attached to the given tuple rows.
    fn store_with(groups: &[&[u64]]) -> AnnotationStore {
        let mut s = AnnotationStore::new();
        for rows in groups {
            let a = s.add_annotation(Annotation::new("x"));
            for &r in *rows {
                s.attach(a, AttachmentTarget::tuple(t(r))).unwrap();
            }
        }
        s
    }

    #[test]
    fn build_from_store_connects_co_annotated_tuples() {
        let s = store_with(&[&[1, 2, 3], &[3, 4]]);
        let acg = Acg::build_from_store(&s);
        assert_eq!(acg.edge_count(), 4); // (1,2),(1,3),(2,3),(3,4)
        assert!(acg.edge_weight(t(1), t(2)).is_some());
        assert!(acg.edge_weight(t(1), t(4)).is_none());
        // Edge weights are symmetric.
        assert_eq!(acg.edge_weight(t(3), t(4)), acg.edge_weight(t(4), t(3)));
    }

    #[test]
    fn edge_weight_is_common_over_union() {
        // t1 and t2 share one annotation; t1 has 1 annotation, t2 has 2.
        let s = store_with(&[&[1, 2], &[2, 3]]);
        let acg = Acg::build_from_store(&s);
        // common(t1,t2) = 1, union = 2 → 0.5
        assert!((acg.edge_weight(t(1), t(2)).unwrap() - 0.5).abs() < 1e-12);
        // common(t2,t3) = 1, union = 2 → 0.5
        assert!((acg.edge_weight(t(2), t(3)).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn add_attachment_updates_incrementally() {
        let mut s = store_with(&[&[1, 2]]);
        let mut acg = Acg::build_from_store(&s);
        assert_eq!(acg.edge_count(), 1);
        // New annotation attached to t2 and t5.
        let a = s.add_annotation(Annotation::new("y"));
        s.attach(a, AttachmentTarget::tuple(t(2))).unwrap();
        acg.add_attachment(&s, a, t(2));
        s.attach(a, AttachmentTarget::tuple(t(5))).unwrap();
        acg.add_attachment(&s, a, t(5));
        assert_eq!(acg.edge_count(), 2);
        assert!(acg.edge_weight(t(2), t(5)).is_some());
        // Weight of (1,2) refreshed: common 1, union now 3 (t1 has 1, t2
        // has 2, common 1 → total 2)… common_annotations(t1,t2) = (1, 2).
        assert!((acg.edge_weight(t(1), t(2)).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stability_flips_when_few_new_edges() {
        let mut s = store_with(&[]);
        let mut acg = Acg::new(StabilityConfig { batch_size: 2, mu: 0.5 });
        assert!(!acg.is_stable());
        // Batch 1: two annotations, each creating new edges → unstable.
        for rows in [[10u64, 11], [12, 13]] {
            let a = s.add_annotation(Annotation::new("x"));
            for &r in &rows {
                s.attach(a, AttachmentTarget::tuple(t(r))).unwrap();
                acg.add_attachment(&s, a, t(r));
            }
            acg.record_annotation();
        }
        assert!(!acg.is_stable(), "every attachment created a new edge");
        // Batch 2: re-annotate the same pairs → no new edges → stable.
        for rows in [[10u64, 11], [12, 13]] {
            let a = s.add_annotation(Annotation::new("x"));
            for &r in &rows {
                s.attach(a, AttachmentTarget::tuple(t(r))).unwrap();
                acg.add_attachment(&s, a, t(r));
            }
            acg.record_annotation();
        }
        assert!(acg.is_stable());
    }

    #[test]
    fn k_hop_expansion() {
        // Chain: 1 - 2 - 3 - 4
        let s = store_with(&[&[1, 2], &[2, 3], &[3, 4]]);
        let acg = Acg::build_from_store(&s);
        assert_eq!(acg.k_hop(&[t(1)], 0), vec![t(1)]);
        assert_eq!(acg.k_hop(&[t(1)], 1), vec![t(1), t(2)]);
        assert_eq!(acg.k_hop(&[t(1)], 2), vec![t(1), t(2), t(3)]);
        assert_eq!(acg.k_hop(&[t(1)], 9), vec![t(1), t(2), t(3), t(4)]);
        // Multiple focal tuples expand jointly.
        assert_eq!(acg.k_hop(&[t(1), t(4)], 1).len(), 4);
    }

    #[test]
    fn shortest_hops_bfs() {
        let s = store_with(&[&[1, 2], &[2, 3], &[3, 4]]);
        let acg = Acg::build_from_store(&s);
        assert_eq!(acg.shortest_hops(t(4), &[t(1)], 10), Some(3));
        assert_eq!(acg.shortest_hops(t(1), &[t(1)], 10), Some(0));
        assert_eq!(acg.shortest_hops(t(4), &[t(1)], 2), None, "cap respected");
        assert_eq!(acg.shortest_hops(t(99), &[t(1)], 10), None, "disconnected");
    }

    #[test]
    fn set_stable_override() {
        let mut acg = Acg::new(StabilityConfig::default());
        acg.set_stable(true);
        assert!(acg.is_stable());
    }

    #[test]
    fn remove_tuple_drops_incident_edges() {
        let s = store_with(&[&[1, 2], &[2, 3], &[1, 3]]);
        let mut acg = Acg::build_from_store(&s);
        assert_eq!(acg.edge_count(), 3);
        acg.remove_tuple(t(2));
        assert_eq!(acg.edge_count(), 1, "only (1,3) survives");
        assert!(acg.edge_weight(t(1), t(2)).is_none());
        assert!(acg.edge_weight(t(1), t(3)).is_some());
        assert_eq!(acg.neighbors(t(2)).count(), 0);
        // Removing again is a no-op.
        acg.remove_tuple(t(2));
        assert_eq!(acg.edge_count(), 1);
    }

    #[test]
    fn path_weight_multiplies_edges() {
        // Chain 1 - 2 - 3 - 4. Edge weights: (1,2) = 1/2 (one shared of
        // two total), (2,3) = 1/3, (3,4) = 1/2.
        let s = store_with(&[&[1, 2], &[2, 3], &[3, 4]]);
        let acg = Acg::build_from_store(&s);
        let direct = acg.path_weight(t(1), t(2), 8).unwrap();
        assert!((direct - 0.5).abs() < 1e-12);
        let two_hops = acg.path_weight(t(1), t(3), 8).unwrap();
        assert!((two_hops - 0.5 / 3.0).abs() < 1e-12);
        let three_hops = acg.path_weight(t(1), t(4), 8).unwrap();
        assert!((three_hops - 0.25 / 3.0).abs() < 1e-12);
        assert_eq!(acg.path_weight(t(1), t(1), 8), Some(1.0));
        assert_eq!(acg.path_weight(t(1), t(99), 8), None);
        assert_eq!(acg.path_weight(t(1), t(4), 2), None, "hop cap respected");
    }

    #[test]
    fn path_weight_picks_the_lowest_id_parent_in_every_fresh_graph() {
        // Diamond 1 - 2 - 4, 1 - 3 - 4 with unequal products: tuple 2
        // carries three extra annotations, which dilutes both of its
        // edges. Every `Acg` draws fresh hash keys, so a BFS that followed
        // map order would take the path through 3 in about half of them.
        let s = store_with(&[&[1, 2], &[2, 4], &[1, 3], &[3, 4], &[2], &[2], &[2]]);
        for round in 0..16 {
            let acg = Acg::build_from_store(&s);
            let edge = |a, b| acg.edge_weight(t(a), t(b)).unwrap();
            let (via_2, via_3) = (edge(1, 2) * edge(2, 4), edge(1, 3) * edge(3, 4));
            assert!(via_2 < via_3, "the two paths must disagree: {via_2} vs {via_3}");
            assert_eq!(acg.path_weight(t(1), t(4), 4), Some(via_2), "round {round}");
        }
    }

    #[test]
    fn path_weight_agrees_with_direct_edge() {
        let s = store_with(&[&[1, 2, 3]]);
        let acg = Acg::build_from_store(&s);
        for (a, b) in [(1u64, 2u64), (2, 3), (1, 3)] {
            assert_eq!(acg.path_weight(t(a), t(b), 4), acg.edge_weight(t(a), t(b)));
        }
    }
}
