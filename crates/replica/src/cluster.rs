//! The cluster: one primary, N replicas, a transport, and a commit rule.
//!
//! [`Cluster`] owns the whole replication topology and drives it
//! synchronously and deterministically: every [`Cluster::record`] appends
//! on the primary, ships, then **pumps** the transport a bounded number
//! of rounds until the configured commit rule (ack-none / ack-quorum) is
//! satisfied. A rule that cannot be satisfied inside the pump budget is
//! not an error — the record is locally durable — but a **typed
//! degradation**: [`ReplicationStatus::lag_budget_exceeded`] is raised,
//! which the ingest pool feeds into its replication breaker and health
//! machine.
//!
//! [`Cluster::promote`] is deterministic failover: pick a live replica,
//! bump the epoch, root a fresh WAL at its applied LSN
//! ([`Durability::begin_at`]), and resync the remaining replicas from the
//! new primary's checkpoint. The old primary is retained as *deposed* —
//! its writes after promotion are fenced by epoch nacks, which is what
//! the failover tests assert.
//!
//! [`ClusterSink`] adapts a shared cluster handle to
//! [`nebula_core::MutationSink`], so the engine and ingest pool write
//! through replication exactly as they write through a plain WAL.

use annostore::AnnotationStore;
use nebula_core::{CommitRule, Mutation, MutationSink, ReplicationStatus, SinkError};
use nebula_durable::wal::WalOp;
use nebula_durable::{Durability, DurabilityOptions, ScrubReport};
use relstore::Database;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::counters;
use crate::frame::Frame;
use crate::primary::Primary;
use crate::repair;
use crate::replica::Replica;
use crate::transport::Transport;
use crate::ReplicaError;

/// Transport pump rounds attempted per record before giving up on the
/// commit rule for that record (a typed lag degradation, not an error).
/// Attach and fencing pump this many rounds too; repair and rejoin allow
/// eight times as many to converge.
const PUMP_ROUNDS: usize = 8;

/// Tuning knobs for a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// When a record counts as committed.
    pub rule: CommitRule,
    /// Largest tolerated acknowledgement lag (LSNs) before a record is
    /// flagged as a lag degradation even under ack-none.
    pub lag_budget: u64,
    /// Options for the primary's local WAL.
    pub options: DurabilityOptions,
    /// Governed-clock cadence for automatic anti-entropy scrubs (and
    /// repair of whatever they find). `None` leaves scrubbing to the
    /// operator's `SCRUB`. Measured against the virtual clock when one is
    /// installed, wall time otherwise.
    pub scrub_interval: Option<Duration>,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            rule: CommitRule::Local,
            lag_budget: 64,
            options: DurabilityOptions::default(),
            scrub_interval: None,
        }
    }
}

/// The cluster-level findings of one anti-entropy scrub pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScrubSummary {
    /// The primary LSN the scrub ran at.
    pub at_lsn: u64,
    /// On-disk WAL/checkpoint CRC findings for the primary's directory.
    pub media: ScrubReport,
    /// Was found media rot healed by re-checkpointing from the shadow?
    pub media_healed: bool,
    /// Replicas whose digest ladder disagreed with the primary's.
    pub diverged: Vec<usize>,
    /// Replicas already wedged (fenced) when the scrub ran.
    pub wedged: Vec<usize>,
    /// Ladder range-digest probes spent across all replicas.
    pub probes: u64,
}

impl ScrubSummary {
    /// Nothing wrong anywhere?
    pub fn is_clean(&self) -> bool {
        self.media.is_clean() && self.diverged.is_empty() && self.wedged.is_empty()
    }
}

/// One completed replica repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairOutcome {
    /// The repaired replica's node id.
    pub replica: usize,
    /// The last LSN the ladder proved both sides agreed on.
    pub agreed: u64,
    /// Diverged suffix LSNs the replica discarded (divergence depth).
    pub rewound: u64,
    /// Ladder range-digest probes spent locating the agreed LSN.
    pub probes: u64,
    /// LSNs re-applied to bring the replica back to the primary's tip.
    pub resynced: u64,
    /// Transport pump rounds the resync took.
    pub rounds: usize,
    /// Did the replica reconverge to the primary's digest?
    pub converged: bool,
}

/// One deposed primary demoted and re-admitted as a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejoinOutcome {
    /// The rejoining node's id.
    pub node: usize,
    /// The epoch it rejoined into.
    pub epoch: u64,
    /// The last LSN the ladder proved both epochs agreed on — the rewind
    /// point.
    pub agreed: u64,
    /// Un-acked suffix LSNs from its deposed epoch, rewound and accounted
    /// exactly once (these writes were fenced, never committed).
    pub rewound: u64,
    /// Ladder probes spent locating the rewind point.
    pub probes: u64,
    /// Did the rejoined replica reconverge to the new primary's digest?
    pub converged: bool,
}

/// Aggregate repair posture for `SHOW REPAIR`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RepairStatus {
    /// Scrub passes run (manual + cadence).
    pub scrubs: u64,
    /// Primary LSN of the most recent scrub.
    pub last_scrub_lsn: Option<u64>,
    /// Replicas currently needing repair (wedged or ladder-diverged).
    pub pending: Vec<usize>,
    /// Replica repairs completed.
    pub repairs: u64,
    /// Deposed-primary rejoins completed.
    pub rejoins: u64,
    /// Total diverged/un-acked suffix LSNs discarded across repairs and
    /// rejoins.
    pub total_rewound: u64,
    /// Deepest single divergence repaired.
    pub max_divergence: u64,
    /// Ladder range-digest probes spent in total.
    pub ladder_probes: u64,
}

/// A full replication topology, pumped deterministically in-process.
#[derive(Debug)]
pub struct Cluster {
    transport: Box<dyn Transport>,
    primary: Primary,
    replicas: Vec<Replica>,
    deposed: Vec<Primary>,
    config: ClusterConfig,
    base_dir: PathBuf,
    lag_exceeded: bool,
    /// Repair bookkeeping: completed repairs/rejoins and the most recent
    /// scrub, surfaced through [`Cluster::repair_status`].
    repairs: Vec<RepairOutcome>,
    rejoins: Vec<RejoinOutcome>,
    last_scrub: Option<ScrubSummary>,
    scrubs: u64,
    /// Wall-clock base for the scrub cadence when no virtual clock is
    /// installed.
    scrub_base: Instant,
    last_scrub_ns: u64,
}

impl Cluster {
    /// Build a cluster: the primary (node 0, epoch 1) starts durability
    /// in `base_dir/epoch-1` over `db`/`store`, and `replica_count`
    /// replicas (nodes 1..=N) bootstrap from its initial checkpoint.
    pub fn new(
        base_dir: &Path,
        db: &Database,
        store: &AnnotationStore,
        replica_count: usize,
        transport: Box<dyn Transport>,
        config: ClusterConfig,
    ) -> Result<Cluster, ReplicaError> {
        let dir = base_dir.join("epoch-1");
        let wal = Durability::begin(&dir, db, store, config.options)?;
        let primary = Primary::new(0, 1, wal, db, store)?;
        let mut cluster = Cluster {
            transport,
            primary,
            replicas: (1..=replica_count).map(Replica::new).collect(),
            deposed: Vec::new(),
            config,
            base_dir: base_dir.to_path_buf(),
            lag_exceeded: false,
            repairs: Vec::new(),
            rejoins: Vec::new(),
            last_scrub: None,
            scrubs: 0,
            scrub_base: Instant::now(),
            last_scrub_ns: 0,
        };
        for id in 1..=replica_count {
            cluster.primary.attach(id, &mut *cluster.transport);
        }
        cluster.pump(2);
        Ok(cluster)
    }

    /// Cold-start a whole cluster from a verified backup bundle: the
    /// primary restores the bundle and roots a fresh WAL at the restored
    /// LSN + 1, and every replica is seeded from the same restored state
    /// — no checkpoint transfer, and no load on whatever cluster the
    /// bundle was taken from.
    pub fn seed_from_bundle(
        bundle_dir: &Path,
        base_dir: &Path,
        replica_count: usize,
        transport: Box<dyn Transport>,
        config: ClusterConfig,
    ) -> Result<Cluster, ReplicaError> {
        let restored = nebula_backup::restore(bundle_dir, None)
            .map_err(|e| ReplicaError::Seed(e.to_string()))?;
        let epoch = restored.epoch.max(1);
        let dir = base_dir.join(format!("epoch-{epoch}"));
        let wal = Durability::begin_at(
            &dir,
            &restored.db,
            &restored.store,
            config.options,
            restored.applied + 1,
        )?;
        let primary = Primary::new(0, epoch, wal, &restored.db, &restored.store)?;
        let image =
            nebula_durable::checkpoint::encode(restored.applied, &restored.db, &restored.store);
        let mut replicas = Vec::with_capacity(replica_count);
        for id in 1..=replica_count {
            let (w, db, store) = nebula_durable::checkpoint::decode(&image)?;
            replicas.push(Replica::seed(id, db, store, w, epoch));
        }
        let mut cluster = Cluster {
            transport,
            primary,
            replicas,
            deposed: Vec::new(),
            config,
            base_dir: base_dir.to_path_buf(),
            lag_exceeded: false,
            repairs: Vec::new(),
            rejoins: Vec::new(),
            last_scrub: None,
            scrubs: 0,
            scrub_base: Instant::now(),
            last_scrub_ns: 0,
        };
        for id in 1..=replica_count {
            cluster.primary.attach(id, &mut *cluster.transport);
        }
        cluster.pump(2);
        Ok(cluster)
    }

    /// Seed one **new** replica from a backup bundle and attach it to
    /// this running cluster. The bundle, not the primary, provides the
    /// bulk of the state; normal catch-up shipping covers only the delta
    /// past the bundle's head. Returns the LSN the bundle seeded up to.
    pub fn attach_seeded_replica(
        &mut self,
        id: usize,
        bundle_dir: &Path,
    ) -> Result<u64, ReplicaError> {
        if id == self.primary.node()
            || self.replica(id).is_some()
            || self.deposed.iter().any(|d| d.node() == id)
        {
            return Err(ReplicaError::Seed(format!("node {id} already exists in the cluster")));
        }
        let restored = nebula_backup::restore(bundle_dir, None)
            .map_err(|e| ReplicaError::Seed(e.to_string()))?;
        // A bundle from a newer epoch, or one whose head is past the
        // primary's log, would seed a replica *ahead* of the cluster —
        // a state catch-up shipping can never reconcile. Refuse it.
        if restored.epoch > self.primary.epoch() {
            return Err(ReplicaError::Seed(format!(
                "bundle epoch {} is newer than the cluster epoch {}",
                restored.epoch,
                self.primary.epoch()
            )));
        }
        if restored.applied > self.primary.last_lsn() {
            return Err(ReplicaError::Seed(format!(
                "bundle head lsn {} is ahead of the primary's last lsn {}",
                restored.applied,
                self.primary.last_lsn()
            )));
        }
        let seeded_to = restored.applied;
        // Seed under the current epoch so the primary's segments are
        // accepted immediately (the bundle's epoch is no newer — checked
        // above).
        self.replicas.push(Replica::seed(
            id,
            restored.db,
            restored.store,
            restored.applied,
            self.primary.epoch(),
        ));
        self.replicas.sort_by_key(Replica::id);
        self.primary.attach(id, &mut *self.transport);
        self.pump(PUMP_ROUNDS);
        Ok(seeded_to)
    }

    /// Record one operation through the primary, then pump until the
    /// commit rule is satisfied or the pump budget runs out (a typed lag
    /// degradation, not an error). Returns the assigned LSN.
    pub fn record(&mut self, op: &WalOp) -> Result<u64, ReplicaError> {
        let lsn = self.primary.record(op, &mut *self.transport)?;
        let needed = match self.config.rule {
            CommitRule::Local => 0,
            CommitRule::Quorum(q) => q,
        };
        let quorum_span = nebula_obs::trace::span("repl.quorum");
        let mut satisfied = false;
        let mut rounds = 0usize;
        for _ in 0..PUMP_ROUNDS {
            self.pump(1);
            rounds += 1;
            if self.primary.acks_at(lsn) >= needed {
                satisfied = true;
                break;
            }
        }
        if quorum_span.is_active() {
            quorum_span.detail(format!(
                "need={needed} acks={} rounds={rounds}{}",
                self.primary.acks_at(lsn),
                if satisfied { "" } else { " unsatisfied" }
            ));
        }
        drop(quorum_span);
        self.lag_exceeded = !satisfied || self.primary.max_lag() > self.config.lag_budget;
        if self.lag_exceeded {
            nebula_obs::counter_add(counters::LAG_BUDGET_EXCEEDED, 1);
        }
        nebula_obs::gauge_set(counters::MAX_LAG, self.primary.max_lag());
        self.maybe_scrub();
        Ok(lsn)
    }

    /// Nanoseconds on the governed clock: the virtual clock when one is
    /// installed (deterministic tests), wall time otherwise.
    fn clock_ns(&self) -> u64 {
        if nebula_govern::clock::is_virtual() {
            nebula_govern::clock::virtual_ns()
        } else {
            self.scrub_base.elapsed().as_nanos() as u64
        }
    }

    /// Run the scrub cadence: when `scrub_interval` has elapsed on the
    /// governed clock, scrub and repair whatever the scrub found.
    fn maybe_scrub(&mut self) {
        let Some(interval) = self.config.scrub_interval else { return };
        let now = self.clock_ns();
        if now.saturating_sub(self.last_scrub_ns) < interval.as_nanos() as u64 {
            return;
        }
        self.last_scrub_ns = now;
        let summary = self.scrub();
        for id in summary.wedged.iter().chain(summary.diverged.iter()) {
            let _ = self.repair_replica(*id);
        }
    }

    /// One anti-entropy scrub pass: CRC-verify the primary's on-disk WAL
    /// and checkpoint (healing found rot by re-checkpointing from the
    /// shadow), then ladder-compare every live replica's digest chain
    /// against the primary's. Detection only for replicas — call
    /// [`Cluster::repair_replica`] (or let the cadence do it) to heal.
    pub fn scrub(&mut self) -> ScrubSummary {
        let at_lsn = self.primary.last_lsn();
        let dir = self.primary.wal().dir().to_path_buf();
        let media = nebula_durable::scrub(&dir).unwrap_or_else(|e| ScrubReport {
            wal_reason: Some(format!("scrub i/o failure: {e}")),
            wal_dropped: 1,
            ..ScrubReport::default()
        });
        let mut media_healed = false;
        if !media.is_clean() {
            media_healed = self.primary.checkpoint_from_shadow().is_ok();
            nebula_obs::trace::flight_event(
                "scrub",
                format!("media rot at lsn {at_lsn}: {media}; healed={media_healed}"),
            );
        }
        let mut diverged = Vec::new();
        let mut wedged = Vec::new();
        let mut probes = 0u64;
        for r in &self.replicas {
            if r.is_wedged() {
                wedged.push(r.id());
                continue;
            }
            let out = repair::last_agreed(self.primary.digests(), r.digests(), at_lsn);
            probes += out.probes;
            if out.diverged {
                diverged.push(r.id());
                nebula_obs::trace::flight_event(
                    "scrub",
                    format!(
                        "ladder divergence: replica {} agrees only to lsn {}",
                        r.id(),
                        out.agreed
                    ),
                );
            }
        }
        nebula_obs::counter_add(counters::LADDER_PROBES, probes);
        nebula_obs::gauge_set(counters::LAST_SCRUB_LSN, at_lsn);
        let summary = ScrubSummary { at_lsn, media, media_healed, diverged, wedged, probes };
        nebula_obs::gauge_set(
            counters::PENDING_REPAIRS,
            (summary.diverged.len() + summary.wedged.len()) as u64,
        );
        self.scrubs += 1;
        self.last_scrub = Some(summary.clone());
        summary
    }

    /// Repair a diverged or fenced replica: binary-search the range-digest
    /// ladder to the last agreed LSN, truncate the replica's suffix past
    /// it, unfence both sides, and resync through the normal checkpoint
    /// catch-up path until the replica matches the primary's digest again.
    pub fn repair_replica(&mut self, id: usize) -> Result<RepairOutcome, ReplicaError> {
        let idx = self
            .replicas
            .iter()
            .position(|r| r.id() == id)
            .ok_or(ReplicaError::UnknownReplica(id))?;
        let target = self.primary.last_lsn();
        let ladder =
            repair::last_agreed(self.primary.digests(), self.replicas[idx].digests(), target);
        let rewound = self.replicas[idx].prepare_resync(ladder.agreed);
        // The wholesale reload must carry the head, not the (possibly
        // long-truncated) durable image, or the repair spends its pump
        // budget replaying the gap.
        self.primary.refresh_catchup_image();
        self.primary.unwedge_peer(id);
        nebula_obs::trace::flight_event(
            "repair",
            format!(
                "replica {id}: agreed lsn {} rewound {rewound} probes {}",
                ladder.agreed, ladder.probes
            ),
        );
        let expected = self.primary.shadow_digest();
        let mut rounds = 0usize;
        let mut converged = false;
        for _ in 0..PUMP_ROUNDS * 8 {
            self.pump(1);
            rounds += 1;
            let r = &self.replicas[idx];
            if !r.is_wedged() && r.applied() >= target && r.digest() == expected {
                converged = true;
                break;
            }
        }
        let resynced = target.saturating_sub(ladder.agreed);
        let outcome = RepairOutcome {
            replica: id,
            agreed: ladder.agreed,
            rewound,
            probes: ladder.probes,
            resynced: if converged { resynced } else { 0 },
            rounds,
            converged,
        };
        nebula_obs::counter_add(counters::REPAIRS, 1);
        nebula_obs::counter_add(counters::LADDER_PROBES, ladder.probes);
        if converged {
            nebula_obs::counter_add(counters::RECORDS_RESYNCED, resynced);
        }
        nebula_obs::trace::flight_event(
            "repair",
            format!("replica {id}: converged={converged} after {rounds} round(s)"),
        );
        self.repairs.push(outcome);
        Ok(outcome)
    }

    /// Re-admit a deposed primary as a replica of the current epoch: its
    /// un-acked suffix (writes that were fenced, never committed) is
    /// rewound and accounted exactly once, its durability handle for the
    /// old epoch is retired, and a fresh replica at the same node id
    /// bootstraps from the new primary's checkpoint — the prefix both
    /// epochs agreed on is never forked.
    pub fn rejoin(&mut self, node: usize) -> Result<RejoinOutcome, ReplicaError> {
        let idx = self
            .deposed
            .iter()
            .position(|d| d.node() == node)
            .ok_or(ReplicaError::UnknownReplica(node))?;
        let old = self.deposed.remove(idx);
        let hi = old.last_lsn().min(self.primary.last_lsn());
        let ladder = repair::last_agreed(self.primary.digests(), old.digests(), hi);
        // With no comparable entries (both sides pruned past each other)
        // the checkpoint watermark the new primary took over at is the
        // best provable agreement point.
        let agreed = if ladder.compared == 0 {
            self.primary.ckpt_watermark().min(old.last_lsn())
        } else {
            ladder.agreed
        };
        let rewound = old.last_lsn().saturating_sub(agreed);
        let epoch = self.primary.epoch();
        drop(old);
        nebula_obs::trace::flight_event(
            "rejoin",
            format!("node {node} demoted into epoch {epoch}: rewound {rewound} un-acked lsn(s)"),
        );
        self.replicas.push(Replica::new(node));
        self.replicas.sort_by_key(Replica::id);
        // Bootstrap from the head, not a stale durable image (see
        // `repair_replica`): the fresh replica loads current state
        // wholesale instead of replaying the truncated gap.
        self.primary.refresh_catchup_image();
        self.primary.attach(node, &mut *self.transport);
        let expected = self.primary.shadow_digest();
        let target = self.primary.last_lsn();
        let mut converged = false;
        for _ in 0..PUMP_ROUNDS * 8 {
            self.pump(1);
            let Some(r) = self.replicas.iter().find(|r| r.id() == node) else { break };
            if !r.is_wedged() && r.applied() >= target && r.digest() == expected {
                converged = true;
                break;
            }
        }
        let outcome =
            RejoinOutcome { node, epoch, agreed, rewound, probes: ladder.probes, converged };
        nebula_obs::counter_add(counters::REJOINS, 1);
        nebula_obs::counter_add(counters::LADDER_PROBES, ladder.probes);
        nebula_obs::trace::flight_event(
            "rejoin",
            format!("node {node}: converged={converged} at epoch {epoch}"),
        );
        self.rejoins.push(outcome);
        Ok(outcome)
    }

    /// Replicas currently needing repair: wedged now, or flagged as
    /// diverged by the most recent scrub.
    pub fn pending_repairs(&self) -> Vec<usize> {
        let mut pending: Vec<usize> =
            self.replicas.iter().filter(|r| r.is_wedged()).map(Replica::id).collect();
        if let Some(s) = &self.last_scrub {
            for id in &s.diverged {
                if !pending.contains(id) && self.replica(*id).is_some() {
                    pending.push(*id);
                }
            }
        }
        pending.sort_unstable();
        pending
    }

    /// Aggregate repair posture for `SHOW REPAIR`.
    pub fn repair_status(&self) -> RepairStatus {
        let total_rewound = self.repairs.iter().map(|r| r.rewound).sum::<u64>()
            + self.rejoins.iter().map(|r| r.rewound).sum::<u64>();
        RepairStatus {
            scrubs: self.scrubs,
            last_scrub_lsn: self.last_scrub.as_ref().map(|s| s.at_lsn),
            pending: self.pending_repairs(),
            repairs: self.repairs.len() as u64,
            rejoins: self.rejoins.len() as u64,
            total_rewound,
            max_divergence: self
                .repairs
                .iter()
                .map(|r| r.rewound)
                .chain(self.rejoins.iter().map(|r| r.rewound))
                .max()
                .unwrap_or(0),
            ladder_probes: self.repairs.iter().map(|r| r.probes).sum::<u64>()
                + self.rejoins.iter().map(|r| r.probes).sum::<u64>()
                + self.last_scrub.as_ref().map_or(0, |s| s.probes),
        }
    }

    /// The most recent scrub's findings, if any scrub has run.
    pub fn last_scrub(&self) -> Option<&ScrubSummary> {
        self.last_scrub.as_ref()
    }

    /// Node ids of deposed primaries eligible for `REJOIN`.
    pub fn deposed_nodes(&self) -> Vec<usize> {
        self.deposed.iter().map(Primary::node).collect()
    }

    /// Chaos hook: deterministically corrupt replica `id`'s in-memory
    /// state (see [`Replica::chaos_corrupt`]) so divergence detection and
    /// repair can be exercised end to end.
    pub fn chaos_corrupt_replica(&mut self, id: usize) -> Result<(), ReplicaError> {
        self.replicas
            .iter_mut()
            .find(|r| r.id() == id)
            .map(Replica::chaos_corrupt)
            .ok_or(ReplicaError::UnknownReplica(id))
    }

    /// Record through a **deposed** primary (post-failover), pumping so
    /// its peers' epoch nacks come back. Succeeds only if the deposed
    /// primary still believes it leads *and* no fencing nack arrives —
    /// with a connected transport this deterministically returns
    /// [`ReplicaError::Fenced`].
    pub fn record_on_deposed(&mut self, which: usize, op: &WalOp) -> Result<u64, ReplicaError> {
        let deposed_count = self.deposed.len();
        let d = self.deposed.get_mut(which).ok_or(ReplicaError::UnknownReplica(deposed_count))?;
        let lsn = d.record(op, &mut *self.transport)?;
        for _ in 0..PUMP_ROUNDS {
            self.pump(1);
            if let Some(d) = self.deposed.get_mut(which) {
                d.drain(&mut *self.transport);
                if d.is_fenced() {
                    let (epoch, newer) = (d.epoch(), d.fenced_by().unwrap_or(d.epoch() + 1));
                    return Err(ReplicaError::Fenced { epoch, newer });
                }
            }
        }
        Ok(lsn)
    }

    /// One delivery sweep: every replica drains its inbox and replies;
    /// then the primary drains acks and runs its catch-up shipping pass.
    fn pump_once(&mut self) {
        for r in &mut self.replicas {
            while let Some((from, bytes)) = self.transport.recv(r.id()) {
                let Ok(frame) = Frame::decode(&bytes) else { continue };
                if let Some(reply) = r.handle(&frame) {
                    self.transport.send(r.id(), from, reply.encode());
                }
            }
        }
        self.primary.drain(&mut *self.transport);
    }

    /// Pump `rounds` delivery sweeps (public so tests can heal a
    /// partition and converge the cluster).
    pub fn pump(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.pump_once();
        }
    }

    /// Deterministic failover: promote replica `id` to primary.
    ///
    /// The new primary starts a fresh WAL at `epoch-{N}` rooted at the
    /// replica's applied LSN (no renumbering), bumps the epoch, and
    /// resyncs the remaining replicas from its checkpoint — any suffix a
    /// replica replayed beyond the promoted state (a fork candidate) is
    /// discarded by the higher-epoch checkpoint load. The old primary
    /// moves to the deposed list; it learns of its fencing lazily, from
    /// epoch nacks, the first time it ships again.
    pub fn promote(&mut self, id: usize) -> Result<(), ReplicaError> {
        let idx = self
            .replicas
            .iter()
            .position(|r| r.id() == id)
            .ok_or(ReplicaError::UnknownReplica(id))?;
        if self.replicas[idx].is_wedged() {
            return Err(ReplicaError::NotPromotable(format!(
                "replica {id} is wedged: {}",
                self.replicas[idx].wedge_reason().unwrap_or("unknown")
            )));
        }
        let new_epoch = self.primary.epoch() + 1;
        let dir = self.base_dir.join(format!("epoch-{new_epoch}"));
        let (db, store, applied) = {
            let r = &self.replicas[idx];
            (r.db(), r.store(), r.applied())
        };
        let wal = Durability::begin_at(&dir, db, store, self.config.options, applied + 1)?;
        let mut new_primary = Primary::new(id, new_epoch, wal, db, store)?;
        // Archiving survives failover: the new primary adopts the same
        // archive directory, and its opening base (stamped with the new
        // epoch) seals the restorable chain at the handover watermark.
        if let Some(adir) = self.primary.wal().archive_dir().map(Path::to_path_buf) {
            new_primary.wal_mut().set_archive(&adir, new_epoch)?;
        }
        let old = std::mem::replace(&mut self.primary, new_primary);
        self.deposed.push(old);
        self.replicas.remove(idx);
        let ids: Vec<usize> = self.replicas.iter().map(Replica::id).collect();
        for rid in ids {
            self.primary.attach(rid, &mut *self.transport);
        }
        nebula_obs::counter_add(counters::PROMOTIONS, 1);
        self.pump(2);
        Ok(())
    }

    /// The best failover target: the live replica with the highest
    /// applied LSN (lowest id breaks ties). `None` if every replica is
    /// wedged or detached.
    pub fn best_failover_candidate(&self) -> Option<usize> {
        self.replicas
            .iter()
            .filter(|r| !r.is_wedged())
            .max_by(|a, b| a.applied().cmp(&b.applied()).then(b.id().cmp(&a.id())))
            .map(Replica::id)
    }

    /// The replication posture after the most recent record.
    pub fn status(&self) -> ReplicationStatus {
        ReplicationStatus {
            epoch: self.primary.epoch(),
            rule: self.config.rule,
            replicas: self.replicas.len(),
            wedged_replicas: self.replicas.iter().filter(|r| r.is_wedged()).count(),
            max_lag: self.primary.max_lag(),
            lag_budget_exceeded: self.lag_exceeded,
        }
    }

    /// Checkpoint the primary (persist + truncate its WAL, refresh the
    /// catch-up image).
    pub fn checkpoint(
        &mut self,
        db: &Database,
        store: &AnnotationStore,
    ) -> Result<u64, ReplicaError> {
        self.primary.checkpoint(db, store)
    }

    /// Should the primary checkpoint now?
    pub fn checkpoint_due(&self) -> bool {
        self.primary.checkpoint_due()
    }

    /// Flush the primary's WAL (batch-sync policy).
    pub fn flush(&mut self) -> Result<(), ReplicaError> {
        self.primary.flush()
    }

    /// A bounded-staleness read against replica `id`: runs `f` if the
    /// replica is live and within `bound` LSNs of the primary.
    pub fn read_replica<T>(
        &self,
        id: usize,
        bound: u64,
        f: impl FnOnce(&Database, &AnnotationStore) -> T,
    ) -> Result<T, ReplicaError> {
        let r =
            self.replicas.iter().find(|r| r.id() == id).ok_or(ReplicaError::UnknownReplica(id))?;
        r.read(self.primary.last_lsn(), bound, f)
    }

    /// The current primary.
    pub fn primary(&self) -> &Primary {
        &self.primary
    }

    /// The attached replicas.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// One replica by node id.
    pub fn replica(&self, id: usize) -> Option<&Replica> {
        self.replicas.iter().find(|r| r.id() == id)
    }

    /// Deposed primaries, oldest first.
    pub fn deposed(&self) -> &[Primary] {
        &self.deposed
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Did the most recent record exceed its commit rule or lag budget?
    pub fn lag_exceeded(&self) -> bool {
        self.lag_exceeded
    }

    /// Cut or restore all transport links to `node`.
    pub fn set_partitioned(&mut self, node: usize, on: bool) {
        self.transport.set_partitioned(node, on);
    }

    /// Start archiving the primary's sealed WAL segments into `dir`,
    /// stamped with the current epoch, so `BACKUP` can bundle a
    /// restorable history of the replicated log.
    pub fn set_archive(&mut self, dir: &Path) -> Result<(), ReplicaError> {
        let epoch = self.primary.epoch();
        self.primary.wal_mut().set_archive(dir, epoch).map_err(ReplicaError::from)
    }

    /// The primary WAL's archive directory, when archiving is enabled.
    pub fn archive_dir(&self) -> Option<PathBuf> {
        self.primary.wal().archive_dir().map(Path::to_path_buf)
    }

    /// One-line transport status.
    pub fn describe_transport(&self) -> String {
        self.transport.describe()
    }
}

/// A cloneable [`MutationSink`] over a shared [`Cluster`], so the engine
/// (or the ingest pool) writes through replication while the shell keeps
/// a handle for `PROMOTE` / `SHOW REPLICATION`.
#[derive(Debug, Clone)]
pub struct ClusterSink {
    inner: Arc<Mutex<Cluster>>,
}

impl ClusterSink {
    /// Wrap a cluster for sharing.
    pub fn new(cluster: Cluster) -> ClusterSink {
        ClusterSink { inner: Arc::new(Mutex::new(cluster)) }
    }

    /// A second handle to the same cluster.
    pub fn handle(&self) -> ClusterSink {
        ClusterSink { inner: Arc::clone(&self.inner) }
    }

    /// Lock the cluster (poison-tolerant: replication state is guarded
    /// by its own invariants, not by the panic that poisoned the lock).
    pub fn lock(&self) -> MutexGuard<'_, Cluster> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl MutationSink for ClusterSink {
    fn record(&mut self, mutation: &Mutation<'_>) -> Result<u64, SinkError> {
        let op = WalOp::from_mutation(mutation);
        self.lock().record(&op).map_err(|e| SinkError(e.to_string()))
    }

    fn checkpoint_due(&self) -> bool {
        self.lock().checkpoint_due()
    }

    fn checkpoint(&mut self, db: &Database, store: &AnnotationStore) -> Result<u64, SinkError> {
        self.lock().checkpoint(db, store).map_err(|e| SinkError(e.to_string()))
    }

    fn flush(&mut self) -> Result<(), SinkError> {
        self.lock().flush().map_err(|e| SinkError(e.to_string()))
    }

    fn describe(&self) -> String {
        let cluster = self.lock();
        let st = cluster.status();
        format!(
            "replicated epoch={} rule={} replicas={} wedged={} max_lag={}{} | {}",
            st.epoch,
            st.rule,
            st.replicas,
            st.wedged_replicas,
            st.max_lag,
            if st.lag_budget_exceeded { " LAGGING" } else { "" },
            cluster.describe_transport(),
        )
    }

    fn healthy(&self) -> bool {
        !self.lock().primary().wal().is_wedged()
    }

    fn replication(&self) -> Option<ReplicationStatus> {
        Some(self.lock().status())
    }

    fn set_archive(&mut self, dir: &Path) -> Result<(), SinkError> {
        self.lock().set_archive(dir).map_err(|e| SinkError(e.to_string()))
    }

    fn archive_dir(&self) -> Option<PathBuf> {
        self.lock().archive_dir()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::SimTransport;
    use annostore::AnnotationId;
    use nebula_govern::FaultPlan;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nebula-cluster-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn op(n: u64) -> WalOp {
        WalOp::AddAnnotation {
            expected: AnnotationId(n),
            text: format!("note {n}"),
            author: None,
            kind: None,
        }
    }

    fn fresh(
        tag: &str,
        replicas: usize,
        transport: Box<dyn Transport>,
        rule: CommitRule,
    ) -> Cluster {
        let db = Database::new();
        let store = AnnotationStore::new();
        let config = ClusterConfig { rule, ..ClusterConfig::default() };
        Cluster::new(&temp_dir(tag), &db, &store, replicas, transport, config).unwrap()
    }

    #[test]
    fn quorum_commits_and_replicas_match_primary_digest() {
        let mut c = fresh("quorum", 2, Box::new(SimTransport::reliable(3)), CommitRule::Quorum(2));
        for i in 0..10 {
            c.record(&op(i)).unwrap();
        }
        assert!(!c.lag_exceeded());
        let expected = c.primary().shadow_digest();
        for r in c.replicas() {
            assert_eq!(r.applied(), 10);
            assert_eq!(r.digest(), expected);
        }
        assert_eq!(c.status().max_lag, 0);
    }

    #[test]
    fn lossy_transport_converges_under_quorum() {
        let plan = FaultPlan::new(0xC0FFEE).with_net(0.15, 0.15, 0.1, 0.1);
        let mut c = fresh("lossy", 2, Box::new(SimTransport::new(3, plan)), CommitRule::Quorum(1));
        for i in 0..50 {
            c.record(&op(i)).unwrap();
        }
        c.pump(50);
        let expected = c.primary().shadow_digest();
        for r in c.replicas() {
            assert_eq!(r.applied(), 50, "replica {}", r.id());
            assert_eq!(r.digest(), expected, "replica {}", r.id());
            assert_eq!(r.records_replayed() + r.applied_via_checkpoint(), r.applied());
        }
        assert!(c.primary().divergences().is_empty());
    }

    #[test]
    fn partition_breaks_quorum_as_a_typed_degradation_not_an_error() {
        let mut c =
            fresh("partition", 1, Box::new(SimTransport::reliable(2)), CommitRule::Quorum(1));
        c.set_partitioned(1, true);
        c.record(&op(0)).unwrap();
        assert!(c.lag_exceeded());
        assert!(c.status().lag_budget_exceeded);
        c.set_partitioned(1, false);
        c.record(&op(1)).unwrap();
        assert!(!c.lag_exceeded(), "healed partition restores the commit rule");
    }

    #[test]
    fn promotion_fences_the_deposed_primary() {
        let mut c =
            fresh("failover", 2, Box::new(SimTransport::reliable(3)), CommitRule::Quorum(2));
        for i in 0..5 {
            c.record(&op(i)).unwrap();
        }
        let target = c.best_failover_candidate().unwrap();
        c.promote(target).unwrap();
        assert_eq!(c.primary().epoch(), 2);
        assert_eq!(c.primary().node(), target);
        // The new primary continues the LSN sequence without renumbering.
        c.record(&op(5)).unwrap();
        assert_eq!(c.primary().last_lsn(), 6);
        // The deposed primary's writes are rejected by epoch fencing.
        let err = c.record_on_deposed(0, &op(5)).unwrap_err();
        assert!(matches!(err, ReplicaError::Fenced { epoch: 1, newer: 2 }), "{err:?}");
        // And every later write fails immediately.
        let err = c.record_on_deposed(0, &op(6)).unwrap_err();
        assert!(matches!(err, ReplicaError::Fenced { .. }));
        // The surviving replica follows the new chain.
        let expected = c.primary().shadow_digest();
        c.pump(5);
        for r in c.replicas() {
            assert_eq!(r.applied(), 6);
            assert_eq!(r.digest(), expected);
        }
    }

    #[test]
    fn corrupted_replica_is_fenced_then_repaired_to_byte_identity() {
        // `(history, depth, ladder probes)`: replica 1 is poisoned `depth`
        // records before the end of the history.
        for (n, depth, probes) in [(13u64, 1u64, 5u64), (48, 1, 7), (48, 4, 7), (48, 16, 7)] {
            let tag = format!("repair-{n}-{depth}");
            let mut c = fresh(&tag, 2, Box::new(SimTransport::reliable(3)), CommitRule::Quorum(2));
            for i in 0..n - depth {
                c.record(&op(i)).unwrap();
            }
            // Poison replica 1 and keep writing: its next ack carries the
            // wrong digest, divergence detection fences it.
            c.chaos_corrupt_replica(1).unwrap();
            for i in n - depth..n {
                c.record(&op(i)).unwrap();
            }
            c.pump(4);
            assert_eq!(c.primary().wedged_count(), 1, "{tag}");
            assert!(c.replica(1).unwrap().is_wedged(), "{tag}");
            let scrub = c.scrub();
            assert_eq!(scrub.wedged, vec![1], "{tag}");
            assert_eq!(c.pending_repairs(), vec![1], "{tag}");
            // Repair: ladder to the agreed LSN, truncate, resync. The
            // poison lands at the first LSN applied after it, so the agreed
            // LSN is one before that; the replica wedged one record later,
            // so the rewind stays at two however deep the divergence, and
            // the resync covers the whole suffix.
            let outcome = c.repair_replica(1).unwrap();
            assert!(outcome.converged, "{tag}: {outcome:?}");
            assert_eq!(outcome.agreed, n - depth - 1, "{tag}: {outcome:?}");
            assert_eq!(outcome.rewound, 2, "{tag}: {outcome:?}");
            assert_eq!(outcome.resynced, depth + 1, "{tag}: {outcome:?}");
            assert_eq!(outcome.probes, probes, "{tag}: the ladder binary-searches");
            assert_eq!(c.primary().wedged_count(), 0, "{tag}");
            assert!(c.pending_repairs().is_empty(), "{tag}");
            let expected = c.primary().shadow_digest();
            assert_eq!(c.replica(1).unwrap().digest(), expected, "{tag}");
            // The repaired replica keeps replicating new writes.
            c.record(&op(n)).unwrap();
            c.pump(4);
            assert_eq!(c.replica(1).unwrap().applied(), n + 1, "{tag}");
            assert_eq!(c.replica(1).unwrap().digest(), c.primary().shadow_digest(), "{tag}");
        }
    }

    #[test]
    fn deposed_primary_rejoins_the_new_epoch_as_a_replica() {
        let mut c = fresh("rejoin", 2, Box::new(SimTransport::reliable(3)), CommitRule::Quorum(2));
        for i in 0..8 {
            c.record(&op(i)).unwrap();
        }
        let target = c.best_failover_candidate().unwrap();
        c.promote(target).unwrap();
        assert_eq!(c.deposed_nodes(), vec![0]);
        // The new epoch moves on without the old primary.
        for i in 8..12 {
            c.record(&op(i)).unwrap();
        }
        // Rejoin: node 0 demotes to replica and reconverges byte-for-byte.
        let outcome = c.rejoin(0).unwrap();
        assert!(outcome.converged, "{outcome:?}");
        assert_eq!(outcome.epoch, 2);
        assert_eq!(c.deposed_nodes(), Vec::<usize>::new());
        assert_eq!(c.replicas().len(), 2);
        let expected = c.primary().shadow_digest();
        let r0 = c.replica(0).unwrap();
        assert_eq!(r0.applied(), 12);
        assert_eq!(r0.digest(), expected);
        // And it tracks the new chain from here on.
        c.record(&op(12)).unwrap();
        c.pump(4);
        assert_eq!(c.replica(0).unwrap().digest(), c.primary().shadow_digest());
        assert_eq!(c.repair_status().rejoins, 1);
    }

    #[test]
    fn media_rot_is_found_and_healed_by_the_scrub() {
        let mut c = fresh("mediarot", 1, Box::new(SimTransport::reliable(2)), CommitRule::Local);
        for i in 0..6 {
            c.record(&op(i)).unwrap();
        }
        nebula_govern::set_fault_plan(Some(FaultPlan::new(31).with_bit_rot(1.0, 1.0)));
        let dir = c.primary().wal().dir().to_path_buf();
        let rot = nebula_durable::inject_rot(&dir).unwrap();
        nebula_govern::set_fault_plan(None);
        assert!(rot.any(), "bit rot must fire at rate 1.0");
        let summary = c.scrub();
        assert!(!summary.media.is_clean(), "scrub must find the rot");
        assert!(summary.media_healed, "re-checkpoint from shadow must heal it");
        // A second scrub over the rewritten artifacts is clean.
        assert!(c.scrub().media.is_clean());
    }

    #[test]
    fn scrub_cadence_fires_on_the_virtual_clock() {
        nebula_govern::clock::set_virtual(true);
        let config = ClusterConfig {
            scrub_interval: Some(std::time::Duration::from_millis(1)),
            ..ClusterConfig::default()
        };
        let db = Database::new();
        let store = AnnotationStore::new();
        let mut c = Cluster::new(
            &temp_dir("cadence"),
            &db,
            &store,
            1,
            Box::new(SimTransport::reliable(2)),
            config,
        )
        .unwrap();
        assert_eq!(c.repair_status().scrubs, 0);
        nebula_govern::clock::sleep(std::time::Duration::from_millis(2));
        c.record(&op(0)).unwrap();
        let after_first = c.repair_status().scrubs;
        assert!(after_first >= 1, "cadence scrub must fire after the interval elapses");
        // No further virtual time passes: no further scrubs.
        c.record(&op(1)).unwrap();
        assert_eq!(c.repair_status().scrubs, after_first);
        nebula_govern::clock::set_virtual(false);
    }

    /// An `n`-record archived history (stamped `epoch`) + bundle under
    /// `root`.
    fn bundled_history_at(root: &Path, epoch: u64, n: u64) -> (Database, AnnotationStore) {
        let db0 = Database::new();
        let store0 = AnnotationStore::new();
        let mut d =
            Durability::begin(&root.join("data"), &db0, &store0, DurabilityOptions::default())
                .unwrap();
        d.set_archive(&root.join("archive"), epoch).unwrap();
        let mut db = Database::new();
        let mut store = AnnotationStore::new();
        for i in 0..n {
            let o = op(i);
            d.append(&o).unwrap();
            nebula_durable::replay_op(&mut db, &mut store, &o).unwrap();
        }
        d.checkpoint(&db, &store).unwrap();
        nebula_backup::create_bundle(&nebula_backup::BundleSpec {
            archive_dir: root.join("archive"),
            bundle_dir: root.join("bundle"),
            pages: None,
            created_seq: 1,
        })
        .unwrap();
        (db, store)
    }

    /// A 9-record archived history + bundle under `root`; returns the
    /// source state the bundle captures.
    fn bundled_history(root: &Path) -> (Database, AnnotationStore) {
        let db0 = Database::new();
        let store0 = AnnotationStore::new();
        let mut d =
            Durability::begin(&root.join("data"), &db0, &store0, DurabilityOptions::default())
                .unwrap();
        d.set_archive(&root.join("archive"), 1).unwrap();
        let mut db = Database::new();
        let mut store = AnnotationStore::new();
        for i in 0..9 {
            let o = op(i);
            d.append(&o).unwrap();
            nebula_durable::replay_op(&mut db, &mut store, &o).unwrap();
            if i % 3 == 2 {
                d.checkpoint(&db, &store).unwrap();
            }
        }
        nebula_backup::create_bundle(&nebula_backup::BundleSpec {
            archive_dir: root.join("archive"),
            bundle_dir: root.join("bundle"),
            pages: None,
            created_seq: 1,
        })
        .unwrap();
        (db, store)
    }

    #[test]
    fn a_cluster_cold_starts_from_a_bundle_and_converges_byte_for_byte() {
        let root = temp_dir("seedbundle");
        let (db, store) = bundled_history(&root);
        // Cold-start: the source cluster/store is never contacted.
        let mut c = Cluster::seed_from_bundle(
            &root.join("bundle"),
            &root.join("cluster"),
            2,
            Box::new(SimTransport::reliable(3)),
            ClusterConfig::default(),
        )
        .unwrap();
        assert_eq!(c.primary().last_lsn(), 9);
        let expected = nebula_durable::state_digest(&db, &store);
        for r in c.replicas() {
            assert_eq!(r.applied(), 9);
            assert_eq!(r.digest(), expected, "replica {} must match the source", r.id());
        }
        // And the seeded cluster keeps replicating past the bundle head.
        c.record(&op(9)).unwrap();
        c.pump(4);
        for r in c.replicas() {
            assert_eq!(r.applied(), 10);
            assert_eq!(r.digest(), c.primary().shadow_digest());
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_new_replica_seeds_from_a_bundle_and_catches_up_over_the_wire() {
        let root = temp_dir("seedattach");
        bundled_history(&root);
        let mut c = Cluster::seed_from_bundle(
            &root.join("bundle"),
            &root.join("cluster"),
            1,
            Box::new(SimTransport::reliable(3)),
            ClusterConfig::default(),
        )
        .unwrap();
        for i in 9..14 {
            c.record(&op(i)).unwrap();
        }
        // Node 2 bootstraps from the bundle; the primary ships only the
        // delta past the bundle's head.
        let seeded_to = c.attach_seeded_replica(2, &root.join("bundle")).unwrap();
        assert_eq!(seeded_to, 9);
        c.pump(8);
        let r = c.replica(2).unwrap();
        assert_eq!(r.applied(), 14);
        assert_eq!(r.digest(), c.primary().shadow_digest());
        assert!(
            r.records_replayed() <= 5,
            "the bundle, not the wire, must provide the first 9 records (replayed {})",
            r.records_replayed()
        );
        // Ids already in the cluster are refused.
        assert!(matches!(
            c.attach_seeded_replica(1, &root.join("bundle")),
            Err(ReplicaError::Seed(_))
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_bundle_ahead_of_the_cluster_is_refused_for_seeding() {
        // A bundle whose head LSN is past the primary's log: the seeded
        // replica would start ahead of the cluster, which catch-up
        // shipping can never reconcile.
        let root = temp_dir("seedahead");
        bundled_history_at(&root, 1, 9);
        let mut c = fresh("seedahead-c", 1, Box::new(SimTransport::reliable(3)), CommitRule::Local);
        for i in 0..3 {
            c.record(&op(i)).unwrap();
        }
        let err = c.attach_seeded_replica(2, &root.join("bundle")).unwrap_err();
        assert!(
            matches!(err, ReplicaError::Seed(ref m) if m.contains("ahead of the primary")),
            "{err:?}"
        );

        // A bundle stamped with a newer epoch than the cluster's.
        let newer = temp_dir("seedahead-epoch");
        bundled_history_at(&newer, 3, 2);
        let err = c.attach_seeded_replica(2, &newer.join("bundle")).unwrap_err();
        assert!(
            matches!(err, ReplicaError::Seed(ref m) if m.contains("newer than the cluster epoch")),
            "{err:?}"
        );
        assert!(c.replica(2).is_none(), "a refused seed must not attach a replica");

        // A bundle at or behind the primary still seeds fine.
        for i in 3..12 {
            c.record(&op(i)).unwrap();
        }
        let seeded_to = c.attach_seeded_replica(2, &root.join("bundle")).unwrap();
        assert_eq!(seeded_to, 9);
        c.pump(8);
        assert_eq!(c.replica(2).unwrap().applied(), 12);
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&newer);
    }

    #[test]
    fn sink_reports_replication_status_and_bounded_reads_work() {
        let c = fresh("sink", 1, Box::new(SimTransport::reliable(2)), CommitRule::Local);
        let sink = ClusterSink::new(c);
        let mut sink2 = sink.handle();
        use nebula_core::Mutation;
        let ann = annostore::Annotation { text: "x".into(), author: None, kind: None };
        let m = Mutation::AddAnnotation { expected: AnnotationId(0), annotation: &ann };
        let lsn = MutationSink::record(&mut sink2, &m).unwrap();
        assert_eq!(lsn, 1);
        let st = sink.replication().unwrap();
        assert_eq!(st.epoch, 1);
        assert_eq!(st.replicas, 1);
        assert_eq!(sink.lock().config().rule, CommitRule::Local);
        let count = sink.lock().read_replica(1, 0, |_, s| s.annotation_count()).unwrap();
        assert_eq!(count, 1);
        assert!(sink.describe().contains("replicated epoch=1"));
    }
}
