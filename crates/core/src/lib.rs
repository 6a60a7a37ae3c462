//! # nebula-core — proactive annotation management
//!
//! The primary contribution of *"Proactive Annotation Management in
//! Relational Databases"* (SIGMOD 2015): an engine that learns from the
//! annotations already attached to a relational database, discovers the
//! **embedded references** hidden in their text, and proactively
//! recommends the missing annotation-to-data attachments.
//!
//! The pipeline (Figure 16 of the paper):
//!
//! | Stage | Module(s) | What happens |
//! |---|---|---|
//! | 0 | [`engine`] | a new annotation is inserted with its *focal* attachments |
//! | 1 | [`meta`], [`sigmap`], [`adjust`], [`querygen`] | signature maps highlight candidate reference words; context adjustment rewards consistent neighborhoods; keyword queries are formed |
//! | 2 | [`execution`], [`acg`], [`focal`] | queries execute over the full database or the focal K-hop miniDB; the ACG rewards candidates near the focal |
//! | 3 | [`verify`], [`assess`], [`bounds`] | candidates are auto-accepted / queued for experts / auto-rejected by the adaptive β bounds |
//!
//! [`patterns`] provides the small from-scratch pattern matcher NebulaMeta
//! uses for syntactic column descriptions (e.g. `JW[0-9]{4}`).
//!
//! Cross-cutting robustness ([`error`], [`batch`], [`durability`]): every
//! fallible engine path returns a typed [`NebulaError`],
//! [`Nebula::process_batch`] ingests whole batches with per-annotation
//! fault containment under the `nebula-govern` execution budgets and fault
//! plans, and an optional [`MutationSink`] receives every annotation-layer
//! mutation *before* it is applied (write-ahead), which is what the
//! `nebula-durable` crate builds its crash-safe WAL on.
//!
//! See the [`Nebula`] facade for the end-to-end API.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod acg;
pub mod adjust;
pub mod assess;
pub mod batch;
pub mod bounds;
pub mod durability;
pub mod engine;
pub mod error;
pub mod execution;
pub mod focal;
pub mod learn;
pub mod meta;
pub mod patterns;
pub mod querygen;
pub mod report;
pub mod sigmap;
pub mod verify;

pub use acg::{Acg, StabilityConfig};
pub use adjust::{context_based_adjustment, AdjustParams};
pub use assess::{assess_predictions, AssessmentCounts, AssessmentReport};
pub use batch::{BatchEntry, BatchReport, BatchStatus, QuarantineReason};
pub use bounds::{distort, BoundsEvaluation, BoundsSetting, TrainingExample};
pub use durability::{CommitRule, Mutation, MutationSink, ReplicationStatus, SinkError};
pub use engine::{Nebula, NebulaConfig, ProcessOutcome, SearchMode};
pub use error::NebulaError;
pub use execution::{identify_related_tuples, AcgRewardMode, Candidate, ExecutionConfig};
pub use focal::{spreading_search, HopProfile};
pub use learn::{learn_concept_refs, learn_referencing_columns, LearnConfig, LearnedColumn};
pub use meta::{ConceptRef, ConceptTarget, NebulaMeta};
pub use patterns::{Pattern, PatternError};
pub use querygen::{build_context_map, generate_queries, GeneratedQuery, QueryGenConfig};
pub use report::{SessionReport, Stat};
pub use sigmap::{split_annotation, ContextEntry, ContextMap, Word};
pub use verify::{
    parse_command, Command, Decision, VerificationBounds, VerificationQueue, VerificationTask,
};
