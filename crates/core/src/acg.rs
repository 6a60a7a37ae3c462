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
//! **Representation.** A tuple becomes a dense `u32` node the first time it
//! is attached; the `TupleId → node` map is consulted only at the API
//! boundary. A node holds `|A_t|`, the count of the tuple's true
//! annotations, and its neighbours as `(node, common)` sorted by node, where
//! `common` counts the annotations the pair shares. Weights are never
//! stored: `common / (|A_a| + |A_b| − common)` is derived on read, the same
//! integer-to-f64 division the store-based recompute did, so an attachment
//! costs an integer bump per pair its annotation links instead of a
//! recompute of every incident weight.
//!
//! **Hop search.** [`Acg::shortest_hops`] answers distance 1 with a binary
//! search per target in the candidate's list, and otherwise searches from
//! both ends level by level, always expanding the side whose frontier has
//! fewer links, until a node one side reaches is already marked by the
//! other. A candidate or a target set outside the graph costs a map lookup,
//! not a walk of the component.
//!
//! The graph is built incrementally as attachments arrive, and tracks the
//! batch counters (`B`, `M`, `N`) that drive the stability property.

use annostore::{AnnotationId, AnnotationStore};
use relstore::TupleId;
use std::collections::{HashMap, VecDeque};

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

/// One neighbour of a node: the pair shares `common` true annotations.
#[derive(Debug, Clone, Copy)]
struct Link {
    node: u32,
    common: u32,
}

/// One tuple of the graph.
#[derive(Debug, Clone)]
struct Node {
    tuple: TupleId,
    /// `|A_t|`: the tuple's true annotations.
    annotations: u32,
    /// Sorted by `node`.
    links: Vec<Link>,
}

/// The ACG.
#[derive(Debug, Clone, Default)]
pub struct Acg {
    ids: HashMap<TupleId, u32>,
    nodes: Vec<Node>,
    /// Nodes with at least one edge.
    linked: usize,
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
        self.linked
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

    fn node(&self, t: TupleId) -> Option<usize> {
        self.ids.get(&t).map(|&n| n as usize)
    }

    fn intern(&mut self, t: TupleId) -> usize {
        let next = self.nodes.len() as u32;
        let n = *self.ids.entry(t).or_insert(next);
        if n == next {
            self.nodes.push(Node { tuple: t, annotations: 0, links: Vec::new() });
        }
        n as usize
    }

    fn links(&self, n: usize) -> &[Link] {
        &self.nodes[n].links
    }

    /// `common / |A_a ∪ A_b|` of node `a` and its neighbour `link`.
    fn weight(&self, a: usize, link: Link) -> f64 {
        let both = self.nodes[a].annotations + self.nodes[link.node as usize].annotations;
        link.common as f64 / (both - link.common).max(1) as f64
    }

    fn node_weight(&self, a: usize, b: usize) -> Option<f64> {
        let links = self.links(a);
        let i = links.binary_search_by_key(&(b as u32), |l| l.node).ok()?;
        Some(self.weight(a, links[i]))
    }

    /// Weight of the edge between two tuples, if connected.
    pub fn edge_weight(&self, a: TupleId, b: TupleId) -> Option<f64> {
        self.node_weight(self.node(a)?, self.node(b)?)
    }

    /// Direct neighbors of a tuple with edge weights.
    pub fn neighbors(&self, t: TupleId) -> impl Iterator<Item = (TupleId, f64)> + '_ {
        self.node(t).into_iter().flat_map(move |n| {
            self.links(n)
                .iter()
                .map(move |&l| (self.nodes[l.node as usize].tuple, self.weight(n, l)))
        })
    }

    /// One more annotation shared by nodes `a` and `b`. Returns true if
    /// the pair was not connected before.
    fn bump(&mut self, a: usize, b: usize) -> bool {
        let mut was_new = false;
        for (from, to) in [(a, b), (b, a)] {
            let links = &mut self.nodes[from].links;
            match links.binary_search_by_key(&(to as u32), |l| l.node) {
                Ok(i) => links[i].common += 1,
                Err(i) => {
                    links.insert(i, Link { node: to as u32, common: 1 });
                    self.linked += usize::from(links.len() == 1);
                    was_new = true;
                }
            }
        }
        self.edge_count += usize::from(was_new);
        was_new
    }

    /// Record a new **true attachment** of `annotation` to `tuple`: sets
    /// `|A_tuple|` from the store, bumps the shared count of `tuple` and
    /// every other tuple of the annotation, and updates the batch counters.
    /// A repeated attachment (the store already counted it) only counts
    /// towards the batch's `M`.
    ///
    /// Call *after* the attachment is recorded in `store`.
    pub fn add_attachment(
        &mut self,
        store: &AnnotationStore,
        annotation: AnnotationId,
        tuple: TupleId,
    ) {
        self.batch_attachments += 1;
        let node = self.intern(tuple);
        // Every true attachment reaches the graph through here, so an
        // unchanged `|A_tuple|` means the store already had this one.
        let annotations = store.tuple_annotations(tuple).len() as u32;
        if self.nodes[node].annotations == annotations {
            return;
        }
        self.nodes[node].annotations = annotations;
        for &other in store.annotation_tuples(annotation) {
            if other != tuple {
                let other = self.intern(other);
                if self.bump(node, other) {
                    self.batch_new_edges += 1;
                }
            }
        }
    }

    /// Tuple-deletion cleanup: drop the node and every incident edge.
    pub fn remove_tuple(&mut self, tid: TupleId) {
        let Some(n) = self.node(tid) else { return };
        self.nodes[n].annotations = 0;
        let links = std::mem::take(&mut self.nodes[n].links);
        if links.is_empty() {
            return;
        }
        self.linked -= 1;
        for l in &links {
            let theirs = &mut self.nodes[l.node as usize].links;
            if let Ok(i) = theirs.binary_search_by_key(&(n as u32), |x| x.node) {
                theirs.remove(i);
            }
            self.linked -= usize::from(theirs.is_empty());
        }
        self.edge_count -= links.len();
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
        let mut focal = Vec::new();
        for (aid, _) in store.iter_annotations() {
            focal.clear();
            focal.extend(store.annotation_tuples(aid).iter().map(|&t| acg.intern(t)));
            for (i, &a) in focal.iter().enumerate() {
                acg.nodes[a].annotations += 1;
                for &b in &focal[i + 1..] {
                    acg.bump(a, b);
                }
            }
        }
        acg
    }

    /// All tuples within `k` hops of any focal tuple (including the focal
    /// tuples themselves) — the *miniDB* membership of the focal-based
    /// spreading search (§6.3).
    pub fn k_hop(&self, focal: &[TupleId], k: usize) -> Vec<TupleId> {
        let mut out = focal.to_vec();
        let mut seen = vec![false; self.nodes.len()];
        let mut frontier: Vec<usize> = focal.iter().filter_map(|&t| self.node(t)).collect();
        for &n in &frontier {
            seen[n] = true;
        }
        for _ in 0..k {
            let mut next = Vec::new();
            for &n in &frontier {
                for l in self.links(n) {
                    let m = l.node as usize;
                    if !std::mem::replace(&mut seen[m], true) {
                        next.push(m);
                        out.push(self.nodes[m].tuple);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        out.sort_unstable();
        out.dedup();
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
        let (src, dst) = (self.node(from)?, self.node(to)?);
        // BFS with parent tracking.
        const NONE: u32 = u32::MAX;
        let mut parent = vec![NONE; self.nodes.len()];
        parent[src] = src as u32;
        let mut frontier = VecDeque::from([(src, 0)]);
        let mut ordered: Vec<u32> = Vec::new();
        'bfs: while let Some((cur, d)) = frontier.pop_front() {
            if d == max_hops {
                continue;
            }
            // Ascending tuple id, not node id: which of several
            // equal-length paths wins must not depend on attachment order.
            ordered.clear();
            ordered.extend(self.links(cur).iter().map(|l| l.node));
            ordered.sort_unstable_by_key(|&n| self.nodes[n as usize].tuple);
            for &n in &ordered {
                let n = n as usize;
                if parent[n] == NONE {
                    parent[n] = cur as u32;
                    if n == dst {
                        break 'bfs;
                    }
                    frontier.push_back((n, d + 1));
                }
            }
        }
        if parent[dst] == NONE {
            return None;
        }
        // Walk back multiplying weights.
        let mut weight = 1.0;
        let mut cur = dst;
        while cur != src {
            let p = parent[cur] as usize;
            weight *= self.node_weight(p, cur)?;
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
        let from = self.node(t)?;
        let mut goal: Vec<u32> =
            targets.iter().filter_map(|&g| self.node(g)).map(|g| g as u32).collect();
        if goal.is_empty() || max_hops == 0 {
            return None;
        }
        let near = self.links(from);
        if goal.iter().any(|g| near.binary_search_by_key(g, |l| l.node).is_ok()) {
            return Some(1);
        }
        goal.sort_unstable();
        goal.dedup();
        // Bidirectional search. `hops` is the radius searched from both
        // ends together; no node is marked by both sides, so the distance
        // exceeds it, and the first link from one side's frontier into a
        // node the other side marked closes a path of exactly `hops + 1`.
        const FROM: u8 = 1;
        const GOAL: u8 = 2;
        let mut side = vec![0u8; self.nodes.len()];
        side[from] = FROM;
        for &g in &goal {
            side[g as usize] = GOAL;
        }
        let mut frontiers = [vec![from as u32], goal];
        let mut next = Vec::new();
        let fan_out = |f: &[u32]| f.iter().map(|&n| self.links(n as usize).len()).sum::<usize>();
        for hops in 0..max_hops {
            let i = usize::from(fan_out(&frontiers[1]) < fan_out(&frontiers[0]));
            let (own, other) = if i == 0 { (FROM, GOAL) } else { (GOAL, FROM) };
            for &n in &frontiers[i] {
                for l in self.links(n as usize) {
                    let mark = &mut side[l.node as usize];
                    if *mark == other {
                        return Some(hops + 1);
                    }
                    if *mark == 0 {
                        *mark = own;
                        next.push(l.node);
                    }
                }
            }
            if next.is_empty() {
                return None;
            }
            std::mem::swap(&mut frontiers[i], &mut next);
            next.clear();
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
        // (1,2) follows t2's new count: common 1, union {a0, a1} = 2.
        assert!((acg.edge_weight(t(1), t(2)).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_repeated_attachment_counts_for_m_but_bumps_nothing() {
        let mut s = store_with(&[]);
        let mut acg = Acg::new(StabilityConfig { batch_size: 1, mu: 0.6 });
        let a = s.add_annotation(Annotation::new("x"));
        for r in [1, 2, 2] {
            s.attach(a, AttachmentTarget::tuple(t(r))).unwrap();
            acg.add_attachment(&s, a, t(r));
        }
        assert_eq!(acg.edge_weight(t(1), t(2)), Some(1.0), "common stays 1");
        // N/M = 1/3 < 0.6; without the repeat it would be 1/2.
        acg.record_annotation();
        assert!(acg.is_stable());
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
        // A focal tuple outside the graph is still a member.
        assert_eq!(acg.k_hop(&[t(99), t(1)], 1), vec![t(1), t(2), t(99)]);
    }

    #[test]
    fn shortest_hops_bfs() {
        let s = store_with(&[&[1, 2], &[2, 3], &[3, 4]]);
        let acg = Acg::build_from_store(&s);
        assert_eq!(acg.shortest_hops(t(4), &[t(1)], 10), Some(3));
        assert_eq!(acg.shortest_hops(t(1), &[t(1)], 10), Some(0));
        assert_eq!(acg.shortest_hops(t(4), &[t(1)], 2), None, "cap respected");
        assert_eq!(acg.shortest_hops(t(4), &[t(1)], 3), Some(3), "cap reached exactly");
        assert_eq!(acg.shortest_hops(t(99), &[t(1)], 10), None, "disconnected");
        assert_eq!(acg.shortest_hops(t(1), &[t(99)], 10), None, "no target in the graph");
        assert_eq!(acg.shortest_hops(t(4), &[t(99), t(2), t(1)], 10), Some(2), "nearest target");
    }

    #[test]
    fn shortest_hops_stops_at_the_smaller_component() {
        // A chain 1 - … - 6 and a separate pair 10 - 11.
        let s = store_with(&[&[1, 2], &[2, 3], &[3, 4], &[4, 5], &[5, 6], &[10, 11]]);
        let acg = Acg::build_from_store(&s);
        assert_eq!(acg.shortest_hops(t(1), &[t(10)], 16), None);
        assert_eq!(acg.shortest_hops(t(11), &[t(6), t(1)], 16), None);
        assert_eq!(acg.shortest_hops(t(1), &[t(6)], 16), Some(5));
        assert_eq!(acg.shortest_hops(t(6), &[t(1), t(11)], 16), Some(5));
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
        assert_eq!(acg.node_count(), 2);
        assert!(acg.edge_weight(t(1), t(2)).is_none());
        assert!(acg.edge_weight(t(1), t(3)).is_some());
        assert_eq!(acg.neighbors(t(2)).count(), 0);
        // Removing again is a no-op.
        acg.remove_tuple(t(2));
        assert_eq!(acg.edge_count(), 1);
        acg.remove_tuple(t(1));
        assert_eq!((acg.node_count(), acg.edge_count()), (0, 0), "t3 lost its last edge");
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
    fn path_weight_picks_the_lowest_id_parent_not_the_first_node() {
        // Diamond 1 - 2 - 4, 1 - 3 - 4 with unequal products: tuple 2
        // carries three extra annotations, which dilutes both of its
        // edges. Tuple 3 is attached first, so it has the lower node id;
        // following node order would take the path through 3.
        let s = store_with(&[&[1, 3], &[3, 4], &[1, 2], &[2, 4], &[2], &[2], &[2]]);
        let acg = Acg::build_from_store(&s);
        let edge = |a, b| acg.edge_weight(t(a), t(b)).unwrap();
        let (via_2, via_3) = (edge(1, 2) * edge(2, 4), edge(1, 3) * edge(3, 4));
        assert!(via_2 < via_3, "the two paths must disagree: {via_2} vs {via_3}");
        assert_eq!(acg.path_weight(t(1), t(4), 4), Some(via_2));
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
