//! The engine ↔ durability boundary: logged mutations and the sink trait.
//!
//! The proactive pipeline mutates the annotation layer at a handful of
//! well-defined points (register, attach, accept, reject, curate to a cell,
//! tuple deletion). Each point is described by a [`Mutation`] and offered to
//! an optional [`MutationSink`] **before** it is applied — write-ahead
//! semantics — so a sink that persists the mutations (the `nebula-durable`
//! WAL) can reconstruct the exact in-memory state after a crash.
//!
//! The trait lives in `nebula-core` so the engine does not depend on any
//! concrete durability implementation; `nebula-durable` depends on core and
//! implements the trait, and the facade wires the two together.

use annostore::{Annotation, AnnotationId, AnnotationStore, AttachmentTarget, StoreError};
use relstore::{ColumnId, Database, TupleId};
use std::fmt;

/// One annotation-layer mutation, offered to the sink before it is applied.
///
/// Borrows from the pipeline's working state; sinks that persist mutations
/// serialize what they need and return.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mutation<'a> {
    /// A new annotation is about to be inserted. `expected` is the id the
    /// store will assign (ids are dense, in insertion order); replay
    /// verifies the assignment to catch checkpoint/log mismatches.
    AddAnnotation {
        /// The id the store will assign.
        expected: AnnotationId,
        /// The annotation being inserted.
        annotation: &'a Annotation,
    },
    /// A true (focal or verified) attachment to a whole tuple.
    AttachTuple {
        /// The attaching annotation.
        annotation: AnnotationId,
        /// The target tuple.
        tuple: TupleId,
    },
    /// A curated attachment refined to one cell of a tuple.
    AttachCell {
        /// The attaching annotation.
        annotation: AnnotationId,
        /// The target tuple.
        tuple: TupleId,
        /// The target column within the tuple.
        column: ColumnId,
    },
    /// A predicted attachment entering the pending-verification band.
    AttachPredicted {
        /// The attaching annotation.
        annotation: AnnotationId,
        /// The predicted target tuple.
        tuple: TupleId,
        /// Prediction confidence.
        confidence: f64,
    },
    /// A predicted edge is accepted (auto-accept or expert verification)
    /// and becomes a true attachment.
    AcceptEdge {
        /// The attaching annotation.
        annotation: AnnotationId,
        /// The accepted target tuple.
        tuple: TupleId,
    },
    /// A predicted edge is rejected and discarded.
    RejectEdge {
        /// The attaching annotation.
        annotation: AnnotationId,
        /// The rejected target tuple.
        tuple: TupleId,
    },
    /// A tuple is deleted from the relational store; the annotation layer
    /// drops every attachment to it.
    TupleDeleted {
        /// The deleted tuple.
        tuple: TupleId,
    },
}

impl Mutation<'_> {
    /// What this event does to the annotation store — the one place a
    /// mutation meets an [`AnnotationStore`]; the pipeline (through
    /// [`Nebula::apply`](crate::Nebula::apply)) and every replayer end up
    /// here. Strict: an id gap, an unknown annotation or a reject of an
    /// edge that is not a prediction is an error (idempotent replayers
    /// guard first). Returns the annotations that lost a true attachment —
    /// empty except for `TupleDeleted`.
    pub fn apply(&self, store: &mut AnnotationStore) -> Result<Vec<AnnotationId>, StoreError> {
        match *self {
            Mutation::AddAnnotation { expected, annotation } => {
                let next = AnnotationId(store.annotation_count() as u64);
                if expected != next {
                    return Err(StoreError::IdGap { expected, next });
                }
                store.add_annotation(annotation.clone());
            }
            Mutation::AttachTuple { annotation, tuple }
            | Mutation::AcceptEdge { annotation, tuple } => {
                store.attach(annotation, AttachmentTarget::tuple(tuple))?;
            }
            Mutation::AttachCell { annotation, tuple, column } => {
                store.attach(annotation, AttachmentTarget::cell(tuple, column))?;
            }
            Mutation::AttachPredicted { annotation, tuple, confidence } => {
                store.attach_predicted(annotation, tuple, confidence)?;
            }
            Mutation::RejectEdge { annotation, tuple } => {
                store.discard_prediction(annotation, tuple)?;
            }
            Mutation::TupleDeleted { tuple } => return Ok(store.on_tuple_deleted(tuple)),
        }
        Ok(Vec::new())
    }
}

/// How a sink decides a recorded mutation counts as *committed*.
///
/// The plain WAL sink commits on local append ([`CommitRule::Local`]); a
/// replicated sink can additionally demand acknowledgements from a quorum
/// of replicas before the write is considered safe against losing the
/// primary node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitRule {
    /// The local WAL append suffices (ack-none).
    Local,
    /// At least this many replicas must acknowledge the LSN (ack-quorum).
    Quorum(usize),
}

impl fmt::Display for CommitRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitRule::Local => write!(f, "ack-none"),
            CommitRule::Quorum(q) => write!(f, "ack-quorum({q})"),
        }
    }
}

/// The replication posture a sink reports after its most recent record.
///
/// Non-replicated sinks report nothing; the ingest pool feeds this into
/// the health machine and the replication circuit breaker, and the shell
/// renders it for `SHOW REPLICATION`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationStatus {
    /// The primary's current fencing epoch.
    pub epoch: u64,
    /// The commit rule in force.
    pub rule: CommitRule,
    /// Attached replicas (wedged ones included).
    pub replicas: usize,
    /// Replicas wedged by divergence detection.
    pub wedged_replicas: usize,
    /// Largest acknowledgement lag across live replicas, in LSNs.
    pub max_lag: u64,
    /// Did the most recent record exhaust its lag budget before the
    /// commit rule was satisfied?
    pub lag_budget_exceeded: bool,
}

/// A sink failed to record or persist a mutation.
///
/// Carries only a rendered message: the engine treats any sink failure the
/// same way (the mutation is *not* applied and the annotation is
/// quarantined), so structure would buy nothing at this boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkError(pub String);

impl fmt::Display for SinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SinkError {}

/// Receives every annotation-layer mutation before it is applied.
///
/// Implementations must honor write-ahead semantics: when [`record`]
/// returns `Ok`, the mutation is (or will deterministically become)
/// recoverable; when it returns `Err`, the engine does **not** apply the
/// mutation, so the persisted log never runs ahead of the in-memory state
/// on the error path and never lags it on the success path.
///
/// Sinks are `Send` so a worker pool can drive the engine (and its
/// installed sink) from whichever thread holds the commit turn.
///
/// [`record`]: MutationSink::record
pub trait MutationSink: fmt::Debug + Send {
    /// Persist one mutation. Returns its log sequence number.
    fn record(&mut self, mutation: &Mutation<'_>) -> Result<u64, SinkError>;

    /// Should the engine take a checkpoint now? Consulted between batch
    /// items; the default sink never asks for one.
    fn checkpoint_due(&self) -> bool {
        false
    }

    /// Write a checkpoint of the full state and truncate the log. Returns
    /// the sequence watermark the checkpoint covers.
    fn checkpoint(&mut self, db: &Database, store: &AnnotationStore) -> Result<u64, SinkError>;

    /// Flush any buffered state to stable storage (end of a batch).
    fn flush(&mut self) -> Result<(), SinkError> {
        Ok(())
    }

    /// One-line status for `SHOW DURABILITY`.
    fn describe(&self) -> String {
        String::new()
    }

    /// Replication posture after the most recent record, if this sink
    /// replicates. The ingest pool polls this each commit turn to feed the
    /// health machine and the replication breaker.
    fn replication(&self) -> Option<ReplicationStatus> {
        None
    }

    /// Is the sink currently able to accept writes? A wedged durability
    /// layer answers `false`; recovery probes consult this before lifting
    /// a Wedged health state. The default sink is always writable.
    fn healthy(&self) -> bool {
        true
    }

    /// Start archiving sealed WAL segments into `dir` so `BACKUP` can
    /// bundle a restorable history. Sinks that own no write-ahead log
    /// refuse — archiving needs real segments to seal.
    fn set_archive(&mut self, dir: &std::path::Path) -> Result<(), SinkError> {
        let _ = dir;
        Err(SinkError("this sink has no write-ahead log to archive".into()))
    }

    /// The directory this sink archives sealed segments into, when
    /// archiving is enabled.
    fn archive_dir(&self) -> Option<std::path::PathBuf> {
        None
    }
}
