//! nebula-shard: partition-tolerant sharded execution of the Nebula engine.
//!
//! The paper evaluates the annotation pipeline on a single engine; at
//! scale the relational store, annotation store, and ACG must be
//! partitioned across **shards** that fail, lag, and partition
//! independently. This crate composes the existing building blocks —
//! the deterministic shard router ([`nebula_ingest::ShardRouter`]), the
//! simulated network ([`nebula_replica::SimTransport`]), governed
//! budgets and breakers — into a sharded cluster with three properties:
//!
//! - **Determinism across shard counts.** Each shard holds a full
//!   byte-faithful replica and *owns* a disjoint set of hash slots.
//!   Stage-2 full search runs scatter-gather: the home shard answers for
//!   its owned slots, siblings answer probes for theirs, and the merged
//!   hit list is byte-identical to the unsharded engine's at any shard
//!   count (proved by `tests/sharding.rs`).
//! - **Typed partial results.** A probe that misses its governed-clock
//!   deadline (partitioned or wedged sibling) degrades the answer
//!   instead of hanging: the merged result carries a
//!   [`Degradation::PartialShards`](nebula_govern::Degradation) note
//!   naming exactly which shards are missing, surfaced through
//!   `ProcessOutcome.degradations`, EXPLAIN, and the `shard.*` metrics.
//! - **Per-shard fault domains.** Every shard serves probes under its
//!   own [`ExecutionBudget`](nebula_govern::ExecutionBudget) and is
//!   guarded by its own circuit breaker on the home side; one wedged
//!   shard trips its own breaker and leaves its siblings green.
//!
//! Committed mutation batches are exchanged shard-to-shard over the
//! simulated network with ack/nack-and-retry ([`frame`]), so boundary
//! edges (an annotation on shard A attaching to a tuple owned by shard
//! B) converge on every replica. Failover rebuilds a shard from the
//! durable history under a bumped fencing epoch; anti-entropy scrub
//! detects and repairs silent divergence.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cluster;
pub mod frame;

pub use cluster::{ShardCluster, ShardConfig, ShardError, TwinEngine};
pub use frame::{FrameError, ShardFrame};

/// Counter and gauge names this crate publishes to `nebula-obs`.
pub mod counters {
    /// Annotations routed to a home shard and processed.
    pub const ANNOTATIONS_ROUTED: &str = "shard.annotations_routed";
    /// Annotations re-routed because the hashed home was dark or lagging.
    pub const HOME_FALLBACKS: &str = "shard.home_fallbacks";
    /// Scatter probes sent to sibling shards.
    pub const PROBES_SENT: &str = "shard.probes_sent";
    /// Probe replies merged into a scatter-gather result.
    pub const PROBES_ANSWERED: &str = "shard.probes_answered";
    /// Probes unanswered at the governed deadline.
    pub const PROBES_TIMED_OUT: &str = "shard.probes_timed_out";
    /// Probes not sent because the shard's breaker was open.
    pub const PROBES_SKIPPED: &str = "shard.probes_skipped";
    /// Probe servings that failed (injected fault or budget trip).
    pub const PROBE_SERVE_ERRORS: &str = "shard.probe_serve_errors";
    /// Scatter-gather results degraded to a typed partial result.
    pub const PARTIAL_RESULTS: &str = "shard.partial_results";
    /// Boundary-edge Apply frames sent (retries included).
    pub const APPLIES_SENT: &str = "shard.applies_sent";
    /// Apply acks received by batch origins.
    pub const APPLY_ACKS: &str = "shard.apply_acks";
    /// Apply nacks received by batch origins.
    pub const APPLY_NACKS: &str = "shard.apply_nacks";
    /// Replication rounds that had to retry unacked batches.
    pub const APPLY_RETRIES: &str = "shard.apply_retries";
    /// Mutation batches applied on sibling shards.
    pub const BATCHES_APPLIED: &str = "shard.batches_applied";
    /// Per-shard breaker transitions into Open.
    pub const BREAKER_OPENED: &str = "shard.breaker_opened";
    /// Replica digests that disagreed with the durable history.
    pub const DIGEST_DIVERGENCES: &str = "shard.digest_divergences";
    /// Shard failovers (epoch-fenced promotes).
    pub const FAILOVERS: &str = "shard.failovers";
    /// Shards rebuilt from the durable history by scrub.
    pub const REPAIRS: &str = "shard.repairs";
    /// Configured shard count, as a gauge.
    pub const SHARDS_GAUGE: &str = "shard.shards";
    /// Current cluster fencing epoch, as a gauge.
    pub const EPOCH_GAUGE: &str = "shard.epoch";
    /// Shards currently behind the replication head, as a gauge.
    pub const LAGGING_GAUGE: &str = "shard.lagging";
}
