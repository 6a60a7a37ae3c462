//! Focal-based spreading search support (paper §6.3, Figure 7).
//!
//! When the ACG is stable, Nebula restricts the keyword search to a
//! *miniDB* of the K-hop ACG neighborhood of the annotation's focal. This
//! module provides:
//!
//! - [`HopProfile`] — the metadata profile (a histogram of how many hops
//!   away discovered attachments were from the focal) that guides the
//!   choice of K, either manually by DB admins or automatically given a
//!   desired coverage;
//! - [`spreading_search`] — the search itself: materialize the K-hop
//!   miniDB, run `KeywordSearch` over it unchanged, and translate the
//!   hits back into the database's tuple ids.

use crate::acg::Acg;
use crate::execution::{identify_related_tuples, Candidate, ExecutionConfig};
use crate::meta::NebulaMeta;
use crate::querygen::GeneratedQuery;
use relstore::{Database, TupleId};
use std::collections::HashMap;
use textsearch::{KeywordSearch, SearchError, SearchOptions, SearchStats};

/// Cap on tracked hop distances; further hops land in the last bucket.
const MAX_TRACKED_HOPS: usize = 16;

/// Histogram of `Bucket[hops] → count`: how many discovered attachments
/// were `hops` away from the nearest focal tuple at discovery time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HopProfile {
    buckets: Vec<u64>,
    total: u64,
}

impl HopProfile {
    /// Empty profile.
    pub fn new() -> Self {
        HopProfile::default()
    }

    /// Record one discovered attachment at the given hop distance
    /// (`Bucket[S.length] += 1`).
    pub fn record(&mut self, hops: usize) {
        let h = hops.min(MAX_TRACKED_HOPS);
        if self.buckets.len() <= h {
            self.buckets.resize(h + 1, 0);
        }
        self.buckets[h] += 1;
        self.total += 1;
    }

    /// Total recorded observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in one bucket.
    pub fn bucket(&self, hops: usize) -> u64 {
        self.buckets.get(hops).copied().unwrap_or(0)
    }

    /// Fraction of observations within `k` hops — the expected recall of a
    /// `K = k` spreading search (e.g. the paper's "K = 2 → 71%,
    /// K = 3 → 93%").
    pub fn coverage(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let within: u64 = self.buckets.iter().take(k + 1).sum();
        within as f64 / self.total as f64
    }

    /// The smallest `K` whose expected coverage reaches `target`
    /// (`None` when even the full histogram cannot reach it, which only
    /// happens for `target > 1`).
    pub fn select_k(&self, target: f64) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        (0..self.buckets.len()).find(|&k| self.coverage(k) >= target)
    }

    /// Iterate `(hops, count)` over non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &c)| c > 0).map(|(h, &c)| (h, c))
    }
}

/// One focal-based spreading search: execute `queries` over the K-hop
/// miniDB around `focal` and return the candidates in `db`'s tuple ids
/// (focal tuples excluded), the search work counters, and the miniDB's
/// tuple count. The §6.2 reward is applied iff `exec.acg_adjustment`.
pub fn spreading_search(
    db: &Database,
    meta: &NebulaMeta,
    acg: &Acg,
    queries: &[GeneratedQuery],
    focal: &[TupleId],
    k: usize,
    exec: &ExecutionConfig,
) -> Result<(Vec<Candidate>, SearchStats, usize), SearchError> {
    let (mini, back) = db.materialize_subset(&acg.k_hop(focal, k));
    let engine = KeywordSearch::new(SearchOptions {
        vocab: meta.to_vocabulary(&mini),
        ..Default::default()
    });
    // The focal's ids differ in miniDB space: search without them, then
    // exclude and reward after translating back to original ids.
    let (cands, stats) = identify_related_tuples(
        &mini,
        &engine,
        queries,
        &[],
        None,
        &ExecutionConfig { acg_adjustment: false, ..*exec },
    )?;
    let mut cands = translate_candidates(cands, &back);
    cands.retain(|c| !focal.contains(&c.tuple));
    if exec.acg_adjustment {
        apply_acg_adjustment(&mut cands, acg, focal);
    }
    Ok((cands, stats, mini.total_tuples()))
}

/// Translate candidates produced over a miniDB back into original-database
/// tuple ids, dropping any that do not translate (should not happen for a
/// well-formed map).
fn translate_candidates(
    candidates: Vec<Candidate>,
    back: &HashMap<TupleId, TupleId>,
) -> Vec<Candidate> {
    candidates
        .into_iter()
        .filter_map(|mut c| {
            let orig = back.get(&c.tuple)?;
            c.tuple = *orig;
            Some(c)
        })
        .collect()
}

/// §6.2 reward applied in original-id space, after translation.
fn apply_acg_adjustment(candidates: &mut Vec<Candidate>, acg: &Acg, focal: &[TupleId]) {
    let mut keyed: Vec<(f64, Candidate)> = std::mem::take(candidates)
        .into_iter()
        .map(|mut c| {
            for f in focal {
                if let Some(w) = acg.edge_weight(c.tuple, *f) {
                    c.confidence += w * c.confidence;
                }
            }
            let raw = c.confidence;
            // Capped, not max-normalized — see `identify_related_tuples`.
            c.confidence = c.confidence.min(1.0);
            (raw, c)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.tuple.cmp(&b.1.tuple)));
    candidates.extend(keyed.into_iter().map(|(_, c)| c));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acg::StabilityConfig;
    use annostore::{Annotation, AnnotationStore, AttachmentTarget};
    use relstore::{DataType, TableSchema, Value};

    #[test]
    fn profile_records_and_covers() {
        let mut p = HopProfile::new();
        // The Figure 7 example: 71% within 2 hops, 93% within 3.
        for _ in 0..40 {
            p.record(1);
        }
        for _ in 0..31 {
            p.record(2);
        }
        for _ in 0..22 {
            p.record(3);
        }
        for _ in 0..7 {
            p.record(4);
        }
        assert_eq!(p.total(), 100);
        assert!((p.coverage(2) - 0.71).abs() < 1e-9);
        assert!((p.coverage(3) - 0.93).abs() < 1e-9);
        assert_eq!(p.coverage(10), 1.0);
    }

    #[test]
    fn select_k_finds_smallest_sufficient_radius() {
        let mut p = HopProfile::new();
        for _ in 0..71 {
            p.record(2);
        }
        for _ in 0..29 {
            p.record(3);
        }
        assert_eq!(p.select_k(0.7), Some(2));
        assert_eq!(p.select_k(0.9), Some(3));
        assert_eq!(p.select_k(1.0), Some(3));
        assert_eq!(HopProfile::new().select_k(0.5), None);
    }

    #[test]
    fn huge_hop_counts_clamp() {
        let mut p = HopProfile::new();
        p.record(1_000_000);
        assert_eq!(p.bucket(MAX_TRACKED_HOPS), 1);
        assert_eq!(p.coverage(MAX_TRACKED_HOPS), 1.0);
    }

    #[test]
    fn iter_skips_empty_buckets() {
        let mut p = HopProfile::new();
        p.record(1);
        p.record(3);
        p.record(3);
        let v: Vec<(usize, u64)> = p.iter().collect();
        assert_eq!(v, vec![(1, 1), (3, 2)]);
    }

    #[test]
    fn minidb_contains_only_neighborhood() {
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
        let mut ids = Vec::new();
        for i in 0..5 {
            ids.push(
                db.insert(
                    "gene",
                    vec![Value::text(format!("JW{i:04}")), Value::text(format!("gn{i}A"))],
                )
                .unwrap(),
            );
        }
        // Chain annotations: 0-1, 1-2, 2-3, 3-4.
        let mut store = AnnotationStore::new();
        for w in ids.windows(2) {
            let a = store.add_annotation(Annotation::new("link"));
            store.attach(a, AttachmentTarget::tuple(w[0])).unwrap();
            store.attach(a, AttachmentTarget::tuple(w[1])).unwrap();
        }
        let mut acg = crate::acg::Acg::build_from_store(&store);
        acg.set_stable(true);
        let _ = StabilityConfig::default();

        let (mini, back) = db.materialize_subset(&acg.k_hop(&[ids[0]], 2));
        assert_eq!(mini.total_tuples(), 3, "focal + 2 hops");
        // Back-translation maps every mini tuple to a chain member.
        for orig in back.values() {
            assert!(ids[..3].contains(orig));
        }
        // The miniDB is searchable.
        assert_eq!(mini.inverted_index().lookup("gn0a").len(), 1);
        assert_eq!(mini.inverted_index().lookup("gn4a").len(), 0);
    }

    #[test]
    fn translate_candidates_maps_ids() {
        let table = relstore::schema::TableId(0);
        let (mini_id, orig) = (TupleId::new(table, 99), TupleId::new(table, 7));
        let back = HashMap::from([(mini_id, orig)]);
        let cands = vec![
            Candidate { tuple: mini_id, confidence: 0.9, evidence: vec![] },
            Candidate { tuple: TupleId::new(table, 98), confidence: 0.5, evidence: vec![] },
        ];
        let out = translate_candidates(cands, &back);
        assert_eq!(out.len(), 1, "untranslatable candidates dropped");
        assert_eq!(out[0].tuple, orig);
    }
}
