//! # nebula — proactive annotation management for relational databases
//!
//! This is the facade crate of the Nebula workspace, a full reproduction of
//! *"Proactive Annotation Management in Relational Databases"* (SIGMOD 2015).
//! It re-exports the public API of every layer:
//!
//! - [`relstore`] — the in-memory relational engine (tables, indexes,
//!   conjunctive queries),
//! - [`annostore`] — the passive annotation-management engine (annotations,
//!   attachments, the bipartite annotated-database graph, propagation),
//! - [`textsearch`] — keyword search over the relational store
//!   (configurations, confidence-weighted query generation, shared
//!   execution),
//! - [`nebula_core`] — the proactive engine itself (signature maps, keyword
//!   query generation, ACG, focal-based spreading, verification), and
//! - [`nebula_workload`] — synthetic UniProt-like datasets and annotation
//!   workloads used by the evaluation, and
//! - [`nebula_obs`] — the in-tree telemetry subsystem (work counters, stage
//!   spans, pipeline events) every layer above reports into, and
//! - [`nebula_govern`] — resource governance: per-annotation execution
//!   budgets, graceful degradation, and deterministic fault injection, and
//! - [`nebula_durable`] — crash-safe durability: a checksummed write-ahead
//!   log of pipeline mutations, framed checkpoints, and torn-tail-tolerant
//!   recovery, and
//! - [`nebula_ingest`] — overload-safe concurrent ingest: bounded admission
//!   with priority classes, a turn-gated single-writer worker pool, circuit
//!   breakers, and the engine health state machine, and
//! - [`nebula_replica`] — WAL-shipping replication: a single primary
//!   streaming log segments to replicas over a deterministic simulated
//!   transport, ack-none/ack-quorum commit rules, epoch-fenced failover,
//!   and continuous divergence detection, and
//! - [`nebula_backup`] — disaster recovery: WAL archiving ahead of every
//!   checkpoint truncation, verified backup bundles with a signed
//!   manifest, point-in-time restore, archive scrub, and retention GC.
//!
//! ## Quickstart
//!
//! ```
//! use nebula::prelude::*;
//!
//! // Build a small annotated biological database.
//! let spec = DatasetSpec::tiny();
//! let mut bundle = generate_dataset(&spec, 42);
//!
//! // Configure and run the proactive engine on a new annotation.
//! let config = NebulaConfig::default();
//! let mut engine = Nebula::new(config, bundle.meta.clone());
//! let annotation = Annotation::new("From the exp, this gene correlates with JW0001.");
//! let focal = vec![bundle.some_gene_tuple()];
//! let outcome = engine.process_annotation(
//!     &mut bundle.db,
//!     &mut bundle.annotations,
//!     &annotation,
//!     &focal,
//! ).unwrap();
//! // The engine predicts candidate attachments and routes them through
//! // auto-accept / expert-verify / auto-reject.
//! let _ = outcome.accepted.len() + outcome.pending.len() + outcome.rejected.len();
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod shell;

pub use annostore;
pub use nebula_backup;
pub use nebula_codec;
pub use nebula_core;
pub use nebula_durable;
pub use nebula_govern;
pub use nebula_ingest;
pub use nebula_obs;
pub use nebula_pagestore;
pub use nebula_replica;
pub use nebula_shard;
pub use nebula_workload;
pub use relstore;
pub use shell::{Shell, ShellError};
pub use textsearch;

/// Commonly used items in one import.
pub mod prelude {
    pub use annostore::{Annotation, AnnotationId, AnnotationStore, AttachmentTarget, Edge};
    pub use nebula_backup::{BackupError, BackupManifest, BundleSpec, Restored};
    pub use nebula_core::{
        Acg, AssessmentReport, BatchEntry, BatchReport, BatchStatus, BoundsSetting, CommitRule,
        HopProfile, Nebula, NebulaConfig, NebulaError, NebulaMeta, ProcessOutcome,
        QuarantineReason, QueryGenConfig, ReplicationStatus, SearchMode, StabilityConfig,
        VerificationBounds, VerificationQueue, VerificationTask,
    };
    pub use nebula_durable::{Durability, DurabilityOptions, Recovered, SyncPolicy};
    pub use nebula_govern::{Degradation, ExecutionBudget, FaultPlan, FaultStats, RetryPolicy};
    pub use nebula_ingest::{
        ingest_batch, HealthState, IngestConfig, IngestItem, IngestReport, Priority, ShedReason,
    };
    pub use nebula_pagestore::{PageScrubReport, PagedStorage, StorageMetrics};
    pub use nebula_replica::{
        Cluster, ClusterConfig, ClusterSink, DivergenceReport, Primary, Replica, ReplicaError,
        SimTransport, Transport, TransportStats,
    };
    pub use nebula_shard::{NetProfile, ShardCluster, ShardConfig, ShardError};
    pub use nebula_workload::{generate_dataset, DatasetBundle, DatasetSpec, WorkloadSpec};
    pub use relstore::{
        ConjunctiveQuery, DataType, Database, Predicate, TableSchema, Tuple, TupleId, Value,
    };
    pub use textsearch::{KeywordQuery, KeywordSearch, SearchHit};
}
