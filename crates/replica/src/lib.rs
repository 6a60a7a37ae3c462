//! # nebula-replica — WAL-shipping replication for the annotation engine
//!
//! Single-primary, multi-replica replication built on deterministic
//! in-process infrastructure:
//!
//! - [`frame`] — the wire protocol: shipped WAL segments and checkpoint
//!   transfers (both the epoch-stamped payloads from
//!   `nebula_durable::segment`), plus acks, nacks, and fence messages.
//! - [`transport`] — the [`Transport`] abstraction carrying frames between
//!   nodes, and [`SimTransport`], a simulated network backed by
//!   `nebula-govern`'s seeded fault stream and virtual clock: drop, delay,
//!   reorder, duplication, and partitions, all replayable from a seed.
//! - [`primary`] — the [`Primary`]: wraps the existing
//!   [`nebula_durable::Durability`] WAL manager, ships appended records to
//!   its peers, tracks acknowledgements, detects **divergence** by
//!   comparing per-LSN state digests, and fences diverged replicas.
//! - [`replica`] — the [`Replica`] state machine: replays shipped segments
//!   through the same idempotent [`nebula_durable::replay_op`] path
//!   recovery uses, loads checkpoint transfers to catch up past a
//!   truncated primary log, and answers reads with an explicit staleness
//!   bound.
//! - [`cluster`] — the [`Cluster`]: one primary plus N replicas wired
//!   through a transport, with the configurable commit rule (ack-none /
//!   ack-quorum), epoch-fenced **failover** ([`Cluster::promote`]), and
//!   [`ClusterSink`], the [`nebula_core::MutationSink`] adapter that lets
//!   the engine and the ingest pool write through the cluster.
//!
//! ## Epoch fencing
//!
//! Every shipped frame carries the primary's **epoch**. Promotion bumps
//! the epoch; replicas adopt the higher epoch on first contact and answer
//! any older primary with a nack carrying the new epoch. A deposed
//! primary that keeps writing learns it is fenced from those nacks and
//! its writes are rejected — the surviving history is always a prefix of
//! a single chain, never a fork.
//!
//! All activity is reported through `nebula-obs` under `repl.*` names.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::fmt;

pub mod cluster;
pub mod frame;
pub mod nemesis;
pub mod primary;
pub mod repair;
pub mod replica;
pub mod transport;

pub use cluster::{
    Cluster, ClusterConfig, ClusterSink, RejoinOutcome, RepairOutcome, RepairStatus, ScrubSummary,
};
pub use frame::Frame;
pub use nemesis::{
    compose_schedule, compose_schedule_with_backup, compose_schedule_with_disk,
    compose_schedule_with_shards, NemesisEvent, NemesisPlan,
};
pub use primary::{DivergenceReport, Primary};
pub use repair::{last_agreed, LadderOutcome};
pub use replica::Replica;
pub use transport::{SimTransport, Transport, TransportStats};

use nebula_durable::DurableError;

/// Counter and gauge names this crate publishes to `nebula-obs`.
pub mod counters {
    /// Acknowledgements received by a primary.
    pub const ACKS: &str = "repl.acks";
    /// Checkpoint transfers shipped to lagging replicas.
    pub const CATCHUP_CHECKPOINTS: &str = "repl.catchup_checkpoints";
    /// Divergences detected (replica digest ≠ primary digest at an LSN).
    pub const DIVERGENCES: &str = "repl.divergences";
    /// Frames a stale-epoch sender had rejected by a receiver.
    pub const EPOCH_REJECTIONS: &str = "repl.epoch_rejections";
    /// Frames the simulated transport held back (injected delay).
    pub const FRAMES_DELAYED: &str = "repl.frames_delayed";
    /// Frames the simulated transport dropped (injected loss + partitions).
    pub const FRAMES_DROPPED: &str = "repl.frames_dropped";
    /// Frames the simulated transport delivered twice.
    pub const FRAMES_DUPLICATED: &str = "repl.frames_duplicated";
    /// Frames the simulated transport delivered ahead of queue order.
    pub const FRAMES_REORDERED: &str = "repl.frames_reordered";
    /// Records whose commit rule or lag budget was not met in time.
    pub const LAG_BUDGET_EXCEEDED: &str = "repl.lag_budget_exceeded";
    /// Failover promotions performed.
    pub const PROMOTIONS: &str = "repl.promotions";
    /// Records replayed by replicas.
    pub const RECORDS_REPLAYED: &str = "repl.records_replayed";
    /// Records shipped inside segments.
    pub const RECORDS_SHIPPED: &str = "repl.records_shipped";
    /// Duplicate records replicas skipped (exactly-once replay).
    pub const RECORDS_SKIPPED: &str = "repl.records_skipped";
    /// Segments shipped to replicas.
    pub const SEGMENTS_SHIPPED: &str = "repl.segments_shipped";
    /// Ladder range-digest probes spent locating divergence points.
    pub const LADDER_PROBES: &str = "repair.ladder_probes";
    /// Diverged suffix LSNs re-applied by completed repairs.
    pub const RECORDS_RESYNCED: &str = "repair.records_resynced";
    /// Deposed primaries re-admitted as replicas.
    pub const REJOINS: &str = "repair.rejoins";
    /// Replica repairs completed.
    pub const REPAIRS: &str = "repair.repairs";
    /// Gauge: primary LSN of the most recent anti-entropy scrub.
    pub const LAST_SCRUB_LSN: &str = "repair.last_scrub_lsn";
    /// Gauge: replicas currently pending repair.
    pub const PENDING_REPAIRS: &str = "repair.pending";
    /// Gauge: the primary's current epoch.
    pub const EPOCH: &str = "repl.epoch";
    /// Gauge: largest acknowledgement lag across live replicas, in LSNs.
    pub const MAX_LAG: &str = "repl.max_lag";
    /// Gauge: attached replicas.
    pub const REPLICAS: &str = "repl.replicas";
}

/// Errors from the replication layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicaError {
    /// The underlying durability layer failed (WAL append, checkpoint,
    /// recovery).
    Durable(DurableError),
    /// A write was rejected because this primary was deposed: a peer
    /// holds a newer epoch.
    Fenced {
        /// The deposed primary's epoch.
        epoch: u64,
        /// The newer epoch that fenced it.
        newer: u64,
    },
    /// The replica is wedged (divergence detected or fenced) and refuses
    /// to serve until rebuilt.
    Wedged(String),
    /// A bounded-staleness read found the replica lagging past its bound.
    StaleRead {
        /// The replica's lag behind the primary, in LSNs.
        lag: u64,
        /// The caller's staleness bound.
        bound: u64,
    },
    /// No replica with this id is attached.
    UnknownReplica(usize),
    /// A wire frame failed to decode.
    Codec(String),
    /// The requested failover target cannot be promoted.
    NotPromotable(String),
    /// Seeding a node from a backup bundle failed (verification,
    /// restore, or the bundle is incompatible with the cluster).
    Seed(String),
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaError::Durable(e) => write!(f, "durability: {e}"),
            ReplicaError::Fenced { epoch, newer } => {
                write!(f, "fenced: this primary's epoch {epoch} was deposed by epoch {newer}")
            }
            ReplicaError::Wedged(why) => write!(f, "replica wedged: {why}"),
            ReplicaError::StaleRead { lag, bound } => {
                write!(f, "stale read: replica lags {lag} LSN(s), bound is {bound}")
            }
            ReplicaError::UnknownReplica(id) => write!(f, "no replica with id {id}"),
            ReplicaError::Codec(msg) => write!(f, "frame codec: {msg}"),
            ReplicaError::NotPromotable(why) => write!(f, "cannot promote: {why}"),
            ReplicaError::Seed(why) => write!(f, "bundle seed failed: {why}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<nebula_codec::CodecError> for ReplicaError {
    fn from(e: nebula_codec::CodecError) -> ReplicaError {
        ReplicaError::Codec(e.to_string())
    }
}

impl From<DurableError> for ReplicaError {
    fn from(e: DurableError) -> ReplicaError {
        ReplicaError::Durable(e)
    }
}
