//! Fault-contained batch ingest.
//!
//! [`Nebula::process_batch`] drives a whole batch of annotations through
//! the pipeline with per-annotation containment: an annotation whose
//! processing errors out — or panics, e.g. under an injected-panic fault
//! plan — is *quarantined* and the batch continues. Every annotation
//! therefore ends in exactly one of the five [`BatchStatus`] states, and
//! the [`BatchReport`] tallies match the per-entry records.

use crate::engine::{Nebula, ProcessOutcome};
use crate::error::NebulaError;
use annostore::{Annotation, AnnotationStore};
use relstore::{Database, TupleId};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Terminal state of one annotation in a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStatus {
    /// At least one attachment was auto-accepted.
    Accepted,
    /// No auto-accepts, but at least one pending verification task.
    Pending,
    /// Processed cleanly; every candidate was auto-rejected (or none were
    /// found).
    Rejected,
    /// Processed, but only by giving something up (see the outcome's
    /// degradation records).
    Degraded,
    /// Processing failed or panicked; the annotation was isolated and the
    /// batch continued.
    Quarantined,
}

impl std::fmt::Display for BatchStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BatchStatus::Accepted => "accepted",
            BatchStatus::Pending => "pending",
            BatchStatus::Rejected => "rejected",
            BatchStatus::Degraded => "degraded",
            BatchStatus::Quarantined => "quarantined",
        };
        write!(f, "{s}")
    }
}

/// Why an annotation was quarantined.
#[derive(Debug, Clone)]
pub enum QuarantineReason {
    /// A structured engine error (exhausted retries, store failure, …).
    Error(NebulaError),
    /// A panic, captured and downcast to its message where possible.
    Panic(String),
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::Error(e) => write!(f, "{e}"),
            QuarantineReason::Panic(msg) => write!(f, "panic: {msg}"),
        }
    }
}

/// One annotation's record in a [`BatchReport`].
#[derive(Debug, Clone)]
pub struct BatchEntry {
    /// Position in the input batch.
    pub index: usize,
    /// Terminal state.
    pub status: BatchStatus,
    /// The pipeline outcome (absent for quarantined annotations).
    pub outcome: Option<ProcessOutcome>,
    /// Why the annotation was quarantined (present iff quarantined).
    pub quarantine: Option<QuarantineReason>,
}

/// Result of a contained batch ingest.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Per-annotation records, in input order.
    pub entries: Vec<BatchEntry>,
    /// Annotations ending [`BatchStatus::Accepted`].
    pub accepted: usize,
    /// Annotations ending [`BatchStatus::Pending`].
    pub pending: usize,
    /// Annotations ending [`BatchStatus::Rejected`].
    pub rejected: usize,
    /// Annotations ending [`BatchStatus::Degraded`].
    pub degraded: usize,
    /// Annotations ending [`BatchStatus::Quarantined`].
    pub quarantined: usize,
}

impl BatchReport {
    /// Total annotations processed (all five states).
    pub fn total(&self) -> usize {
        self.entries.len()
    }

    /// Append `entry` and update the matching tally. This is the only way
    /// entries should enter a report, so tallies and records can't drift.
    pub fn push(&mut self, entry: BatchEntry) {
        self.tally(entry.status);
        self.entries.push(entry);
    }

    fn tally(&mut self, status: BatchStatus) {
        match status {
            BatchStatus::Accepted => self.accepted += 1,
            BatchStatus::Pending => self.pending += 1,
            BatchStatus::Rejected => self.rejected += 1,
            BatchStatus::Degraded => self.degraded += 1,
            BatchStatus::Quarantined => self.quarantined += 1,
        }
    }
}

/// Classify a clean outcome. Degradation dominates — a degraded run's
/// accepts were computed from a reduced search and should be flagged.
fn classify_outcome(outcome: &ProcessOutcome) -> BatchStatus {
    if !outcome.degradations.is_empty() {
        BatchStatus::Degraded
    } else if !outcome.accepted.is_empty() {
        BatchStatus::Accepted
    } else if !outcome.pending.is_empty() {
        BatchStatus::Pending
    } else {
        BatchStatus::Rejected
    }
}

/// Downcast a caught panic payload to its message where possible.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Nebula {
    /// Process `items` — `(annotation, focal)` pairs — with per-annotation
    /// fault containment. Never panics and never aborts early: an
    /// annotation that errors or panics is quarantined and the rest of the
    /// batch proceeds.
    pub fn process_batch(
        &mut self,
        db: &Database,
        store: &mut AnnotationStore,
        items: &[(Annotation, Vec<TupleId>)],
    ) -> BatchReport {
        let mut report = BatchReport::default();
        for (index, (annotation, focal)) in items.iter().enumerate() {
            report.push(self.process_contained(db, store, index, annotation, focal));
            self.checkpoint_if_due(db, store);
        }
        self.flush_batch();
        report
    }

    /// One contained item: run the pipeline, turn an error or a panic into
    /// a quarantined entry instead of propagating it. The per-item step of
    /// [`Nebula::process_batch`] and of the ingest pool's commit turn.
    pub fn process_contained(
        &mut self,
        db: &Database,
        store: &mut AnnotationStore,
        index: usize,
        annotation: &Annotation,
        focal: &[TupleId],
    ) -> BatchEntry {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            self.process_annotation(db, store, annotation, focal)
        }));
        let (status, outcome, quarantine) = match attempt {
            Ok(Ok(outcome)) => (classify_outcome(&outcome), Some(outcome), None),
            Ok(Err(e)) => (BatchStatus::Quarantined, None, Some(QuarantineReason::Error(e))),
            Err(payload) => {
                let reason = QuarantineReason::Panic(panic_message(payload));
                (BatchStatus::Quarantined, None, Some(reason))
            }
        };
        if status == BatchStatus::Quarantined {
            nebula_obs::counter_add("core.quarantined", 1);
        }
        BatchEntry { index, status, outcome, quarantine }
    }

    /// Periodic checkpointing between items: the sink decides when one is
    /// due; a failed checkpoint degrades gracefully (the WAL still covers
    /// everything, so nothing is lost).
    pub fn checkpoint_if_due(&mut self, db: &Database, store: &AnnotationStore) {
        if let Some(sink) = self.mutation_sink_mut() {
            if sink.checkpoint_due() && sink.checkpoint(db, store).is_err() {
                nebula_obs::counter_add("core.checkpoint_deferred", 1);
            }
        }
    }

    /// End-of-batch flush (the group commit of a batch-synced sink).
    pub fn flush_batch(&mut self) {
        if let Some(sink) = self.mutation_sink_mut() {
            if sink.flush().is_err() {
                nebula_obs::counter_add("core.flush_failed", 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NebulaConfig;
    use crate::meta::{ConceptRef, NebulaMeta};
    use crate::verify::VerificationBounds;
    use relstore::{DataType, TableSchema, Value};

    fn setup() -> (Database, NebulaMeta, Vec<TupleId>) {
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
        for (gid, name) in [("JW0013", "grpC"), ("JW0014", "groP"), ("JW0019", "yaaB")] {
            ids.push(db.insert("gene", vec![Value::text(gid), Value::text(name)]).unwrap());
        }
        let mut meta = NebulaMeta::new();
        meta.add_concept(ConceptRef {
            concept: "Gene".into(),
            table: "gene".into(),
            referenced_by: vec![vec!["gid".into()], vec!["name".into()]],
        });
        (db, meta, ids)
    }

    #[test]
    fn clean_batch_classifies_every_entry() {
        let (db, meta, ids) = setup();
        let mut store = AnnotationStore::new();
        let config =
            NebulaConfig { bounds: VerificationBounds::new(0.0, 0.0), ..Default::default() };
        let mut nebula = Nebula::new(config, meta);
        let items = vec![
            (Annotation::new("gene JW0014 is notable"), vec![ids[0]]),
            (Annotation::new("nothing matches here at all"), vec![ids[1]]),
        ];
        let report = nebula.process_batch(&db, &mut store, &items);
        assert_eq!(report.total(), 2);
        assert_eq!(report.quarantined, 0);
        assert_eq!(
            report.accepted + report.pending + report.rejected + report.degraded,
            2,
            "every clean entry lands in exactly one bucket"
        );
        assert!(report.entries.iter().all(|e| e.outcome.is_some()));
    }

    #[test]
    fn report_tallies_match_entries() {
        let (db, meta, ids) = setup();
        let mut store = AnnotationStore::new();
        let mut nebula = Nebula::new(NebulaConfig::default(), meta);
        let items: Vec<_> = (0..5)
            .map(|i| (Annotation::new(format!("gene JW001{i}")), vec![ids[i % ids.len()]]))
            .collect();
        let report = nebula.process_batch(&db, &mut store, &items);
        for status in [
            BatchStatus::Accepted,
            BatchStatus::Pending,
            BatchStatus::Rejected,
            BatchStatus::Degraded,
            BatchStatus::Quarantined,
        ] {
            let n = report.entries.iter().filter(|e| e.status == status).count();
            let tallied = match status {
                BatchStatus::Accepted => report.accepted,
                BatchStatus::Pending => report.pending,
                BatchStatus::Rejected => report.rejected,
                BatchStatus::Degraded => report.degraded,
                BatchStatus::Quarantined => report.quarantined,
            };
            assert_eq!(n, tallied, "{status} tally");
        }
    }
}
