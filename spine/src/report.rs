//! The metric tables (name, unit, direction, regression bound) and the
//! result line. `BENCHMARK.json` mirrors these tables; the
//! `benchmark_json_matches_the_tables` test keeps the two from drifting.

use crate::json;

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What a curator (or operator) of the system sees. Reported by every
/// workload with the harness's own tracing off. Bounds come from
/// `spine repeat` (see README, "Noise protocol").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("annotations_per_s", "1/s", Higher, 0.25),
    e2e("commit_p50_ms", "ms", Lower, 0.25),
    e2e("quality_recall", "ratio", Higher, 0.05),
    e2e("quality_precision", "ratio", Higher, 0.05),
    e2e("expert_tasks_per_annotation", "count", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
];

/// Single-layer costs and work counts, from the traced rounds. A metric
/// that does not apply to a workload (its layer is bypassed) reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // The tail of the commit latency, from the untraced rounds. It is what
    // a curator sees, but on a shared VM it spreads by more than any bound
    // the contract allows (README, "Noise protocol"), so it carries none.
    layer("commit_p95_ms", "ms", Lower),
    // Set-up, by layer.
    layer("workload.generate_s", "s", Lower),
    layer("relstore.snapshot_load_s", "s", Lower),
    layer("pagestore.load_s", "s", Lower),
    layer("pagestore.flush_ms", "ms", Lower),
    layer("pagestore.file_pages", "count", Lower),
    layer("pagestore.write_backs", "count", Lower),
    // The paper's four stages.
    layer("core.sigmap_us", "us", Lower),
    layer("core.adjust_us", "us", Lower),
    layer("core.querygen_us", "us", Lower),
    layer("core.execute_us", "us", Lower),
    layer("core.stage0_us", "us", Lower),
    layer("core.stage3_us", "us", Lower),
    layer("core.queries_per_annotation", "count", Lower),
    layer("core.candidates_per_annotation", "count", Lower),
    layer("core.self_share", "ratio", Lower),
    layer("core.false_negative_ratio", "ratio", Lower),
    layer("core.false_positive_ratio", "ratio", Lower),
    // Keyword search and the index under it.
    layer("textsearch.configurations_per_annotation", "count", Lower),
    layer("textsearch.compiled_per_annotation", "count", Lower),
    layer("textsearch.tuples_inspected_per_annotation", "count", Lower),
    layer("textsearch.inspected_per_candidate", "ratio", Lower),
    layer("relstore.index_probes_per_annotation", "count", Lower),
    layer("relstore.index_lookup_ns", "ns", Lower),
    layer("relstore.postings_per_probe", "count", Lower),
    layer("relstore.get_ns", "ns", Lower),
    layer("annostore.edges_added_per_annotation", "count", Lower),
    // Buffer pool.
    layer("pagestore.hits_per_annotation", "count", Lower),
    layer("pagestore.misses_per_annotation", "count", Lower),
    layer("pagestore.evictions_per_annotation", "count", Lower),
    layer("pagestore.hit_ratio", "ratio", Higher),
    layer("pagestore.tax_vs_ram", "ratio", Lower),
    // Ingest pool.
    layer("ingest.turn_wait_share", "ratio", Lower),
    layer("ingest.queue_wait_share", "ratio", Lower),
    layer("ingest.self_share", "ratio", Lower),
    layer("ingest.queue_depth_peak", "count", Lower),
    layer("ingest.pool_speedup_vs_seq", "ratio", Higher),
    // WAL, checkpoints, recovery, backup.
    layer("durable.records_per_annotation", "count", Lower),
    layer("durable.bytes_per_record", "B", Lower),
    layer("durable.wal_bytes_per_annotation", "B", Lower),
    layer("durable.fsyncs_per_annotation", "count", Lower),
    layer("durable.append_us", "us", Lower),
    layer("durable.self_share", "ratio", Lower),
    layer("durable.tax_vs_ram", "ratio", Lower),
    layer("durable.checkpoints_per_round", "count", Lower),
    layer("durable.checkpoint_ms", "ms", Lower),
    layer("durable.recover_ms", "ms", Lower),
    layer("durable.recover_replayed", "count", Lower),
    layer("annostore.snapshot_save_ms", "ms", Lower),
    layer("annostore.snapshot_bytes", "B", Lower),
    layer("backup.bundle_ms", "ms", Lower),
    layer("backup.restore_ms", "ms", Lower),
    // Replication.
    layer("replica.record_us", "us", Lower),
    layer("replica.ship_share", "ratio", Lower),
    layer("replica.ack_share", "ratio", Lower),
    layer("replica.quorum_share", "ratio", Lower),
    layer("replica.self_share", "ratio", Lower),
    layer("replica.records_shipped_per_annotation", "count", Lower),
    layer("replica.tax_vs_wal", "ratio", Lower),
    // Sharding.
    layer("shard.probes_per_annotation", "count", Lower),
    layer("shard.applies_per_annotation", "count", Lower),
    layer("shard.apply_retries", "count", Lower),
    layer("shard.ingest_us", "us", Lower),
    layer("shard.tax_vs_unsharded", "ratio", Lower),
    // Telemetry, governance, and the harness itself.
    layer("obs.off_speedup", "ratio", Lower),
    layer("govern.budget_trips", "count", Lower),
    layer("govern.faults_injected", "count", Lower),
    layer("harness.trace_overhead_ratio", "ratio", Higher),
    layer("harness.traced_annotations", "count", Higher),
];

/// Measured values, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The values in `table` order. Every metric of the table must be a
    /// finite number: missing ones read 0 in a per-layer table (bypassed
    /// layer) and are an error in the end-to-end table.
    pub fn in_table(&self, table: &[MetricDef]) -> Result<Vec<(MetricDef, f64)>, String> {
        if let Some((stray, _)) = self.0.iter().find(|(n, _)| !table.iter().any(|d| d.name == *n)) {
            return Err(format!("metric {stray} is not in the table"));
        }
        table
            .iter()
            .map(|def| {
                let value = match (self.get(def.name), def.bound) {
                    (Some(v), _) => v,
                    (None, None) => 0.0,
                    (None, Some(_)) => return Err(format!("metric {} was not measured", def.name)),
                };
                if value.is_finite() {
                    Ok((*def, value))
                } else {
                    Err(format!("metric {} is not finite", def.name))
                }
            })
            .collect()
    }
}

/// The outcome of one run: the output check, the failure count, and the
/// metrics of the table the run was asked for.
#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricDef, f64)>,
}

impl RunResult {
    /// The one-line JSON object the driver reads from the last line of
    /// standard output.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, value)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json::quote(def.name),
                    json::quote(def.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A result line read back: what `all` and `repeat` get from a child run.
#[derive(Debug)]
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order printed.
    pub metrics: Vec<(String, f64, String)>,
}

impl ParsedResult {
    pub fn from_json(line: &str) -> Result<ParsedResult, String> {
        let doc = json::parse(line)?;
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("result line lacks {k:?}"));
        let correct = field("correct")?.as_bool().ok_or("correct is not a boolean")?;
        let attempted = field("attempted")?.as_f64().ok_or("attempted is not a number")? as u64;
        let failed = field("failed")?.as_f64().ok_or("failed is not a number")? as u64;
        let mut metrics = Vec::new();
        for (name, m) in field("metrics")?.members() {
            let value = m.get("value").and_then(json::Value::as_f64).ok_or("metric lacks value")?;
            let unit = m.get("unit").and_then(json::Value::as_str).ok_or("metric lacks unit")?;
            metrics.push((name.clone(), value, unit.to_string()));
        }
        Ok(ParsedResult { correct, attempted, failed, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// Is `name` a legal metric or workload name (`[A-Za-z0-9][A-Za-z0-9_.-]*`,
    /// at most 64 characters)?
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn names_and_units_use_the_contract_charset() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(unit_ok(def.unit), "{} unit {:?}", def.name, def.unit);
            assert!(seen.insert(def.name), "{} is listed twice", def.name);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()), "{}", w.name());
            assert!(seen.insert(w.name()), "{} collides with a metric", w.name());
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        for bad in ["", "-x", ".x", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let mut m = Metrics::default();
        for def in END_TO_END {
            m.set(def.name, 1.25);
        }
        m.set("setup_s", 0.8127);
        let result = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: m.in_table(END_TO_END).unwrap(),
        };
        let line = result.to_json();
        assert!(!line.contains('\n'));
        let parsed = ParsedResult::from_json(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1000, 0));
        assert_eq!(parsed.metrics.len(), END_TO_END.len());
        assert_eq!(parsed.metrics[0], ("setup_s".to_string(), 0.8127, "s".to_string()));
    }

    #[test]
    fn tables_reject_stray_missing_and_non_finite_metrics() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.0);
        assert!(m.in_table(END_TO_END).is_err(), "end-to-end metrics must all be measured");
        assert!(m.in_table(PER_LAYER).is_err(), "setup_s is not a per-layer metric");
        let mut m = Metrics::default();
        m.set("core.execute_us", f64::NAN);
        assert!(m.in_table(PER_LAYER).is_err());
        let mut m = Metrics::default();
        m.set("core.execute_us", 3.0);
        let row = m.in_table(PER_LAYER).unwrap();
        assert_eq!(row.len(), PER_LAYER.len());
        assert_eq!(row.iter().filter(|(_, v)| *v != 0.0).count(), 1);
    }

    /// `BENCHMARK.json` at the repository root must list exactly these
    /// workloads and metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| {
                (w.get("name").unwrap().as_str().unwrap(), w.get("why").unwrap().as_str().unwrap())
            })
            .collect();
        let expected: Vec<(&str, &str)> =
            Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
        assert_eq!(workloads, expected);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).unwrap().items();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(entry.get("unit").unwrap().as_str(), Some(def.unit), "{}", def.name);
                assert_eq!(entry.get("better").unwrap().as_str(), Some(def.better.as_str()));
                assert_eq!(entry.get("bound").and_then(json::Value::as_f64), def.bound);
            }
        }
    }
}
