//! Figure 13 — multi-query shared execution.
//!
//! Repeats the Figure 12(a) execution experiment with Nebula-0.6 /
//! Nebula-0.8, comparing isolated execution against the shared-execution
//! variant; the paper reports 40–50% speedup with identical output
//! tuples. Both arms search with a cold engine per annotation, so the
//! figure measures sharing within one annotation's query group (the
//! paper's), not what an engine remembers across annotations.

use crate::setup::Setup;
use crate::table::{fmt_duration, fmt_pct, Table};
use nebula_core::{generate_queries, identify_related_tuples, ExecutionConfig, QueryGenConfig};
use std::time::Instant;
use textsearch::{ExecutionMode, KeywordSearch, SearchOptions};

/// One measured cell of Figure 13.
#[derive(Debug, Clone)]
pub struct SharingCell {
    /// Dataset name.
    pub dataset: &'static str,
    /// ε of the Nebula variant.
    pub epsilon: f64,
    /// Size group.
    pub max_bytes: usize,
    /// Average seconds per annotation, isolated execution.
    pub isolated: f64,
    /// Average seconds per annotation, shared execution.
    pub shared: f64,
    /// Whether both modes produced identical tuple sets everywhere.
    pub outputs_match: bool,
}

impl SharingCell {
    /// Fractional time saved by sharing.
    pub fn speedup(&self) -> f64 {
        if self.isolated > 0.0 {
            1.0 - self.shared / self.isolated
        } else {
            0.0
        }
    }
}

/// Run Figure 13 over one dataset.
pub fn run_dataset(setup: &Setup) -> Vec<SharingCell> {
    let options = SearchOptions {
        vocab: setup.bundle.meta.to_vocabulary(&setup.bundle.db),
        ..Default::default()
    };
    let mut cells = Vec::new();
    for &epsilon in &[0.6, 0.8] {
        for set in &setup.workload {
            let config = QueryGenConfig { epsilon, ..Default::default() };
            let mut isolated = 0.0;
            let mut shared = 0.0;
            let mut outputs_match = true;
            let n = set.annotations.len() as f64;
            for wa in &set.annotations {
                let queries = generate_queries(
                    &setup.bundle.db,
                    &setup.bundle.meta,
                    &wa.annotation.text,
                    &config,
                );
                let focal: Vec<relstore::TupleId> = wa.ideal.iter().take(1).copied().collect();
                let run = |mode: ExecutionMode| {
                    let engine = KeywordSearch::new(options.clone());
                    let t0 = Instant::now();
                    let (cands, _) = identify_related_tuples(
                        &setup.bundle.db,
                        &engine,
                        &queries,
                        &focal,
                        Some(&setup.acg),
                        &ExecutionConfig { mode, acg_adjustment: true, ..Default::default() },
                    )
                    .expect("ungoverned search cannot fail");
                    (t0.elapsed().as_secs_f64(), cands)
                };
                let (ti, ci) = run(ExecutionMode::Isolated);
                let (ts, cs) = run(ExecutionMode::Shared);
                isolated += ti / n;
                shared += ts / n;
                let ids =
                    |v: &[nebula_core::Candidate]| v.iter().map(|c| c.tuple).collect::<Vec<_>>();
                if ids(&ci) != ids(&cs) {
                    outputs_match = false;
                }
            }
            cells.push(SharingCell {
                dataset: setup.name,
                epsilon,
                max_bytes: set.max_bytes,
                isolated,
                shared,
                outputs_match,
            });
        }
    }
    cells
}

/// Render Figure 13.
pub fn table(cells: &[SharingCell]) -> Table {
    let mut t = Table::new(
        "Figure 13: multi-query shared execution",
        &["dataset", "ε", "L^m", "isolated", "shared", "speedup", "same output"],
    );
    for c in cells {
        t.row(vec![
            c.dataset.to_string(),
            format!("{:.1}", c.epsilon),
            format!("L^{}", c.max_bytes),
            fmt_duration(c.isolated),
            fmt_duration(c.shared),
            fmt_pct(c.speedup()),
            if c.outputs_match { "yes".into() } else { "NO".into() },
        ]);
    }
    t
}
