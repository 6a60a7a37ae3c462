//! nebula-ingest: the overload-safe ingest front end for the Nebula engine.
//!
//! The paper evaluates the pipeline one annotation at a time; a
//! production front door has to survive bursts of expensive annotations
//! from many users without stalling, growing unbounded queues, or
//! cascading failures. This crate wraps `Nebula::process_batch`'s
//! per-item semantics in four cooperating mechanisms:
//!
//! - **Admission control** ([`admission`]): a bounded queue with three
//!   priority classes and reject-on-full semantics. An item that cannot
//!   be admitted is *shed* with a typed [`ShedReason`] — never silently
//!   dropped — and deadline-expired items are shed at dispatch instead
//!   of being executed.
//! - **A sequential front end** ([`pool`]): [`ingest_batch`] plays the
//!   batch's arrivals into the queue and commits the queued items one at
//!   a time on the caller's thread, in priority order. All mutations
//!   funnel through the engine's single
//!   [`MutationSink`](nebula_core::MutationSink) WAL writer, so for a
//!   fixed fault seed the resulting [`BatchReport`](nebula_core::BatchReport)
//!   — and the recovered on-disk state — is byte-identical to the
//!   sequential path.
//! - **Circuit breakers** ([`breaker`]): per-failure-class
//!   closed → open → half-open breakers, counted deterministically in
//!   commit order; while a breaker is open, items shed instead of piling
//!   more work onto a failing stage.
//! - **A health state machine** ([`health`]): Healthy → Degraded →
//!   Shedding → Wedged, recomputed after every commit from a sliding
//!   window of outcomes and exported through `nebula-obs` as the
//!   `ingest.health` gauge.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod admission;
pub mod breaker;
pub mod health;
pub mod pool;
pub mod router;

pub use admission::{AdmissionQueue, Priority, ShedReason, ShedRecord};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use health::{HealthMachine, HealthState};
pub use pool::{ingest_batch, IngestConfig, IngestItem, IngestReport};
pub use router::{slot_of, ShardHealth, ShardRouter, SLOTS};

/// Counter and gauge names this crate publishes to `nebula-obs`.
pub mod counters {
    /// Items accepted into the admission queue.
    pub const ADMITTED: &str = "ingest.admitted";
    /// Items that completed processing (any terminal batch status).
    pub const COMPLETED: &str = "ingest.completed";
    /// Items shed (all reasons).
    pub const SHED: &str = "ingest.shed";
    /// Sheds because the bounded queue was full.
    pub const SHED_QUEUE_FULL: &str = "ingest.shed_queue_full";
    /// Sheds because the item's deadline expired before dispatch.
    pub const SHED_DEADLINE: &str = "ingest.shed_deadline";
    /// Sheds because a circuit breaker was open.
    pub const SHED_CIRCUIT_OPEN: &str = "ingest.shed_circuit_open";
    /// Sheds because the engine was wedged.
    pub const SHED_WEDGED: &str = "ingest.shed_wedged";
    /// Guarded Wedged → Degraded recoveries by the recovery probe.
    pub const RECOVERED: &str = "ingest.recovered";
    /// Breaker transitions into Open.
    pub const BREAKER_OPENED: &str = "ingest.breaker_opened";
    /// Breaker transitions into HalfOpen.
    pub const BREAKER_HALF_OPEN: &str = "ingest.breaker_half_open";
    /// Current health state (0 healthy … 3 wedged), as a gauge.
    pub const HEALTH_GAUGE: &str = "ingest.health";
    /// Peak queue depth observed during the batch, as a gauge.
    pub const QUEUE_DEPTH_PEAK_GAUGE: &str = "ingest.queue_depth_peak";
    /// Per-item sojourn time (admission to commit), as a span histogram.
    pub const ITEM_SPAN: &str = "ingest.item";
}
