//! Figure 14 — focal-spreading approximate search.
//!
//! `D_large`, ε = 0.6, the `L^100` set, no sharing. The distortion degree
//! Δ (number of focal links kept) varies on the x-axis; the hop radius K
//! varies per series. Compared against the basic full-database search:
//! the paper reports ~15× faster execution and an order of magnitude
//! fewer produced tuples.

use crate::setup::Setup;
use crate::table::{fmt_duration, Table};
use nebula_core::{
    distort, generate_queries, identify_related_tuples, spreading_search, ExecutionConfig,
    QueryGenConfig,
};
use std::time::Instant;
use textsearch::{ExecutionMode, KeywordSearch, SearchOptions};

/// One measured cell of Figure 14.
#[derive(Debug, Clone)]
pub struct FocalCell {
    /// Distortion degree Δ (links kept = focal size).
    pub delta: usize,
    /// Hop radius K (`None` = basic full search).
    pub k: Option<usize>,
    /// Average seconds per annotation (includes miniDB materialization).
    pub seconds: f64,
    /// Average number of produced tuples.
    pub tuples: f64,
    /// Average miniDB size in tuples (0 for full search).
    pub minidb_tuples: f64,
}

/// Run Figure 14 on one dataset (the paper uses `D_large`).
pub fn run_dataset(setup: &Setup, max_bytes: usize) -> Vec<FocalCell> {
    let set = setup.set(max_bytes);
    let config = QueryGenConfig { epsilon: 0.6, ..Default::default() };
    let exec = ExecutionConfig {
        mode: ExecutionMode::Isolated,
        acg_adjustment: true,
        ..Default::default()
    };
    let engine = KeywordSearch::new(SearchOptions {
        vocab: setup.bundle.meta.to_vocabulary(&setup.bundle.db),
        ..Default::default()
    });

    let deltas = [1usize, 2, 3];
    let ks: [Option<usize>; 4] = [None, Some(2), Some(3), Some(4)];
    let mut cells = Vec::new();
    for &delta in &deltas {
        for &k in &ks {
            let mut seconds = 0.0;
            let mut tuples = 0.0;
            let mut minidb_tuples = 0.0;
            let n = set.annotations.len() as f64;
            for wa in &set.annotations {
                let (focal, _) = distort(&wa.ideal, delta);
                let queries = generate_queries(
                    &setup.bundle.db,
                    &setup.bundle.meta,
                    &wa.annotation.text,
                    &config,
                );
                match k {
                    None => {
                        let t0 = Instant::now();
                        let (cands, _) = identify_related_tuples(
                            &setup.bundle.db,
                            &engine,
                            &queries,
                            &focal,
                            Some(&setup.acg),
                            &exec,
                        )
                        .expect("ungoverned search cannot fail");
                        seconds += t0.elapsed().as_secs_f64() / n;
                        tuples += cands.len() as f64 / n;
                    }
                    Some(k) => {
                        let t0 = Instant::now();
                        let (cands, _, mini_size) = spreading_search(
                            &setup.bundle.db,
                            &setup.bundle.meta,
                            &setup.acg,
                            &queries,
                            &focal,
                            k,
                            &ExecutionConfig { acg_adjustment: false, ..exec },
                        )
                        .expect("ungoverned search cannot fail");
                        seconds += t0.elapsed().as_secs_f64() / n;
                        tuples += cands.len() as f64 / n;
                        minidb_tuples += mini_size as f64 / n;
                    }
                }
            }
            cells.push(FocalCell { delta, k, seconds, tuples, minidb_tuples });
        }
    }
    cells
}

/// Render Figure 14(a): execution time.
pub fn table_a(cells: &[FocalCell]) -> Table {
    let mut t = Table::new(
        "Figure 14(a): focal-spreading execution time (D_large, ε=0.6, L^100)",
        &["Δ", "config", "time", "speedup vs basic", "miniDB tuples"],
    );
    for c in cells {
        let basic = cells
            .iter()
            .find(|b| b.delta == c.delta && b.k.is_none())
            .map(|b| b.seconds)
            .unwrap_or(0.0);
        let speedup = if c.k.is_some() && c.seconds > 0.0 {
            format!("{:.1}x", basic / c.seconds)
        } else {
            "-".into()
        };
        t.row(vec![
            c.delta.to_string(),
            c.k.map(|k| format!("K={k}")).unwrap_or_else(|| "basic (full)".into()),
            fmt_duration(c.seconds),
            speedup,
            if c.k.is_some() { format!("{:.0}", c.minidb_tuples) } else { "-".into() },
        ]);
    }
    t
}

/// Render Figure 14(b): produced tuples.
pub fn table_b(cells: &[FocalCell]) -> Table {
    let mut t = Table::new(
        "Figure 14(b): focal-spreading produced tuples (D_large, ε=0.6, L^100)",
        &["Δ", "config", "tuples", "reduction vs basic"],
    );
    for c in cells {
        let basic = cells
            .iter()
            .find(|b| b.delta == c.delta && b.k.is_none())
            .map(|b| b.tuples)
            .unwrap_or(0.0);
        let reduction = if c.k.is_some() && c.tuples > 0.0 {
            format!("{:.1}x", basic / c.tuples)
        } else {
            "-".into()
        };
        t.row(vec![
            c.delta.to_string(),
            c.k.map(|k| format!("K={k}")).unwrap_or_else(|| "basic (full)".into()),
            format!("{:.1}", c.tuples),
            reduction,
        ]);
    }
    t
}
