//! The replica state machine.
//!
//! A replica holds a full copy of the relational and annotation stores
//! and advances it by replaying shipped WAL segments through the same
//! idempotent [`replay_op`] path crash recovery uses — so a replica's
//! state at LSN `n` is byte-identical to a primary recovered at `n`. The
//! two stores update their running multiset digests as each record
//! applies, so the [`state_digest`] the replica records per LSN and sends
//! in every ack costs O(1); only the first digest of a freshly loaded
//! checkpoint is computed from scratch (debug builds check every one
//! against the from-scratch oracle).
//!
//! Replay is **exactly-once** in effect under an at-least-once transport:
//! records at or below the applied watermark are counted as skipped
//! duplicates, a gap stops replay (the primary re-ships from the ack),
//! and `records_replayed + applied_via_checkpoint == applied` holds
//! whenever history has not been rewritten under the replica by a
//! higher-epoch checkpoint.

use annostore::AnnotationStore;
use nebula_durable::checkpoint;
use nebula_durable::segment::{decode_checkpoint_frame, decode_segment};
use nebula_durable::{replay_op, state_digest};
use relstore::Database;
use std::collections::BTreeMap;

use crate::counters;
use crate::frame::Frame;
use crate::ReplicaError;

/// Most per-LSN digests a replica retains for the anti-entropy ladder.
const DIGEST_KEEP: usize = 4096;

/// One replica: a node id, an epoch, and a replayed copy of the state.
#[derive(Debug)]
pub struct Replica {
    id: usize,
    epoch: u64,
    db: Database,
    store: AnnotationStore,
    applied: u64,
    /// Has any checkpoint transfer landed? Until one does, this replica
    /// has no base state to replay onto, so segments are nacked rather
    /// than replayed (losing the bootstrap checkpoint to the wire must
    /// not wedge the replica forever).
    initialized: bool,
    wedged: Option<String>,
    records_replayed: u64,
    records_skipped: u64,
    applied_via_checkpoint: u64,
    checkpoint_loads: u64,
    /// Per-LSN state digests (bounded), the replica's half of the
    /// anti-entropy range-digest ladder.
    digests: BTreeMap<u64, (u64, u64)>,
    /// Suffix LSNs discarded by repair resyncs (divergence depth total).
    rewound: u64,
}

impl Replica {
    /// An empty replica at node `id`, epoch 0, nothing applied. It
    /// bootstraps from the first checkpoint transfer the primary ships.
    pub fn new(id: usize) -> Replica {
        Replica {
            id,
            epoch: 0,
            db: Database::new(),
            store: AnnotationStore::new(),
            applied: 0,
            initialized: false,
            wedged: None,
            records_replayed: 0,
            records_skipped: 0,
            applied_via_checkpoint: 0,
            checkpoint_loads: 0,
            digests: BTreeMap::new(),
            rewound: 0,
        }
    }

    /// A replica pre-seeded from a restored backup bundle: already
    /// initialized at `applied` under `epoch`, so it cold-starts without
    /// a checkpoint transfer from the primary — the bundle provides the
    /// bulk of the state, the primary only ships the delta past it.
    pub fn seed(
        id: usize,
        db: Database,
        store: AnnotationStore,
        applied: u64,
        epoch: u64,
    ) -> Replica {
        let mut r = Replica {
            id,
            epoch,
            db,
            store,
            applied,
            initialized: true,
            wedged: None,
            records_replayed: 0,
            records_skipped: 0,
            // The seeded prefix is accounted like a checkpoint load so
            // `records_replayed + applied_via_checkpoint == applied`
            // keeps holding.
            applied_via_checkpoint: applied,
            checkpoint_loads: 0,
            digests: BTreeMap::new(),
            rewound: 0,
        };
        r.note_digest(applied);
        r
    }

    /// Record the current state digest at `lsn`, bounded to
    /// [`DIGEST_KEEP`] entries.
    fn note_digest(&mut self, lsn: u64) {
        self.digests.insert(lsn, state_digest(&self.db, &self.store));
        while self.digests.len() > DIGEST_KEEP {
            self.digests.pop_first();
        }
    }

    /// Handle one inbound frame; returns the reply to send back to the
    /// sender, if any. A wedged replica answers nothing.
    pub fn handle(&mut self, frame: &Frame) -> Option<Frame> {
        if self.wedged.is_some() {
            // Only a fence is meaningful now, and we are already down.
            return None;
        }
        match frame {
            Frame::Segment(bytes) => self.handle_segment(bytes),
            Frame::Checkpoint(bytes) => self.handle_checkpoint(bytes),
            Frame::Fence { epoch, reason } => {
                if *epoch >= self.epoch {
                    self.wedged = Some(format!("fenced at epoch {epoch}: {reason}"));
                }
                None
            }
            // Control frames addressed to primaries; ignore.
            Frame::Ack { .. } | Frame::Nack { .. } => None,
        }
    }

    fn handle_segment(&mut self, bytes: &[u8]) -> Option<Frame> {
        let seg = match decode_segment(bytes) {
            Ok(seg) => seg,
            // A frame mangled on the wire is just loss; report progress
            // so the primary re-ships.
            Err(_) => return Some(self.ack()),
        };
        if seg.epoch < self.epoch {
            nebula_obs::counter_add(counters::EPOCH_REJECTIONS, 1);
            return Some(Frame::Nack { epoch: self.epoch, lsn: self.applied });
        }
        if !self.initialized {
            // The bootstrap checkpoint never arrived (lost on the wire):
            // there is no base state to replay onto. Nack so the primary
            // re-ships its checkpoint instead of more segments.
            return Some(Frame::Nack { epoch: self.epoch, lsn: self.applied });
        }
        self.epoch = seg.epoch;
        for rec in &seg.records {
            if rec.lsn <= self.applied {
                self.records_skipped += 1;
                nebula_obs::counter_add(counters::RECORDS_SKIPPED, 1);
                continue;
            }
            if rec.lsn != self.applied + 1 {
                // A gap: stop and ack what we have; the primary re-ships
                // from our ack.
                break;
            }
            if let Err(e) = replay_op(&mut self.db, &mut self.store, &rec.op) {
                self.wedged = Some(format!("replay failed at lsn {}: {e}", rec.lsn));
                return None;
            }
            self.applied = rec.lsn;
            self.records_replayed += 1;
            self.note_digest(rec.lsn);
            nebula_obs::counter_add(counters::RECORDS_REPLAYED, 1);
        }
        Some(self.ack())
    }

    fn handle_checkpoint(&mut self, bytes: &[u8]) -> Option<Frame> {
        let frame = match decode_checkpoint_frame(bytes) {
            Ok(f) => f,
            Err(_) => return Some(self.ack()),
        };
        if frame.epoch < self.epoch {
            nebula_obs::counter_add(counters::EPOCH_REJECTIONS, 1);
            return Some(Frame::Nack { epoch: self.epoch, lsn: self.applied });
        }
        // Load when it moves us forward, or unconditionally when a newer
        // epoch rewrites history under us (a fork we must discard).
        let rewrite = frame.epoch > self.epoch;
        let (watermark, db, store) = match checkpoint::decode(&frame.image) {
            Ok(parts) => parts,
            Err(_) => return Some(self.ack()),
        };
        if rewrite || watermark >= self.applied || !self.initialized {
            self.applied_via_checkpoint += watermark.saturating_sub(self.applied);
            self.db = db;
            self.store = store;
            self.applied = watermark;
            self.initialized = true;
            self.checkpoint_loads += 1;
            // A rewrite replaces history under us: old-epoch digests no
            // longer describe this chain. A same-epoch load invalidates
            // anything past the loaded watermark.
            if rewrite {
                self.digests.clear();
            } else {
                self.digests.retain(|l, _| *l < watermark);
            }
            if watermark > 0 {
                self.note_digest(watermark);
            }
            nebula_obs::counter_add(counters::CATCHUP_CHECKPOINTS, 1);
        }
        self.epoch = frame.epoch;
        Some(self.ack())
    }

    fn ack(&self) -> Frame {
        Frame::Ack {
            epoch: self.epoch,
            lsn: self.applied,
            digest: state_digest(&self.db, &self.store),
        }
    }

    /// A bounded-staleness read: runs `f` over the replica state if this
    /// replica is live and within `bound` LSNs of `primary_lsn`.
    pub fn read<T>(
        &self,
        primary_lsn: u64,
        bound: u64,
        f: impl FnOnce(&Database, &AnnotationStore) -> T,
    ) -> Result<T, ReplicaError> {
        if let Some(why) = &self.wedged {
            return Err(ReplicaError::Wedged(why.clone()));
        }
        let lag = primary_lsn.saturating_sub(self.applied);
        if lag > bound {
            return Err(ReplicaError::StaleRead { lag, bound });
        }
        Ok(f(&self.db, &self.store))
    }

    /// This replica's node id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The epoch this replica last adopted.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Highest contiguously applied LSN.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Is this replica wedged (fenced or failed replay)?
    pub fn is_wedged(&self) -> bool {
        self.wedged.is_some()
    }

    /// Why the replica is wedged, if it is.
    pub fn wedge_reason(&self) -> Option<&str> {
        self.wedged.as_deref()
    }

    /// `nebula_durable::state_digest` of the current replica state.
    pub fn digest(&self) -> (u64, u64) {
        state_digest(&self.db, &self.store)
    }

    /// The replica's relational store (read-only).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The replica's annotation store (read-only).
    pub fn store(&self) -> &AnnotationStore {
        &self.store
    }

    /// The replica's relational store, for tests that corrupt it behind
    /// the log's back.
    #[cfg(test)]
    pub(crate) fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Records replayed one-by-one from shipped segments.
    pub fn records_replayed(&self) -> u64 {
        self.records_replayed
    }

    /// Duplicate records skipped (at-least-once transport, exactly-once
    /// effect).
    pub fn records_skipped(&self) -> u64 {
        self.records_skipped
    }

    /// LSNs covered by checkpoint transfers instead of replay.
    pub fn applied_via_checkpoint(&self) -> u64 {
        self.applied_via_checkpoint
    }

    /// Checkpoint transfers loaded.
    pub fn checkpoint_loads(&self) -> u64 {
        self.checkpoint_loads
    }

    /// The replica's per-LSN digest chain (its half of the anti-entropy
    /// ladder).
    pub fn digests(&self) -> &BTreeMap<u64, (u64, u64)> {
        &self.digests
    }

    /// Total suffix LSNs this replica has discarded across repair resyncs.
    pub fn rewound(&self) -> u64 {
        self.rewound
    }

    /// Rewind this replica to the last LSN it provably agreed on with the
    /// primary and arm it for a wholesale resync: the digest suffix past
    /// `agreed` is truncated, the wedge (if any) is cleared, and the
    /// replica is de-initialized so the next checkpoint transfer replaces
    /// its state outright instead of being skipped as stale. Returns the
    /// number of suffix LSNs discarded.
    pub fn prepare_resync(&mut self, agreed: u64) -> u64 {
        let discarded = self.applied.saturating_sub(agreed);
        self.digests.retain(|l, _| *l <= agreed);
        self.applied = agreed;
        self.initialized = false;
        self.wedged = None;
        self.rewound += discarded;
        discarded
    }

    /// Deterministically corrupt this replica's in-memory state (a phantom
    /// annotation the primary never logged) and refresh its digest at the
    /// applied LSN — the chaos nemesis's stand-in for silent memory or
    /// replay corruption. The next ack carries the poisoned digest, so
    /// divergence detection must fire.
    pub fn chaos_corrupt(&mut self) {
        self.store.add_annotation(annostore::Annotation::new("chaos: phantom annotation"));
        if self.applied > 0 {
            let d = state_digest(&self.db, &self.store);
            self.digests.insert(self.applied, d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annostore::AnnotationId;
    use nebula_durable::segment::{encode_checkpoint_frame, encode_segment};
    use nebula_durable::wal::{encode_record, WalOp};

    fn op(n: u64) -> WalOp {
        WalOp::AddAnnotation {
            expected: AnnotationId(n),
            text: format!("note {n}"),
            author: None,
            kind: None,
        }
    }

    fn segment(epoch: u64, base: u64, ids: &[u64]) -> Frame {
        let mut bytes = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(base + i as u64, &op(*id)));
        }
        Frame::Segment(encode_segment(epoch, base, ids.len() as u32, &bytes))
    }

    /// A replica bootstrapped from an empty checkpoint at watermark 0,
    /// ready to replay segments from LSN 1.
    fn bootstrapped(id: usize, epoch: u64) -> Replica {
        let image = checkpoint::encode(0, &Database::new(), &AnnotationStore::new());
        let mut r = Replica::new(id);
        r.handle(&Frame::Checkpoint(encode_checkpoint_frame(epoch, &image)));
        r
    }

    #[test]
    fn uninitialized_replica_nacks_segments_until_a_checkpoint_lands() {
        let mut r = Replica::new(1);
        // The bootstrap checkpoint was lost on the wire: segments must be
        // nacked (not replayed onto a missing base state, not a wedge).
        let reply = r.handle(&segment(1, 1, &[0])).unwrap();
        assert!(matches!(reply, Frame::Nack { lsn: 0, .. }), "{reply:?}");
        assert_eq!(r.applied(), 0);
        assert!(!r.is_wedged());
        // Once a checkpoint lands, the same segment replays normally.
        let image = checkpoint::encode(0, &Database::new(), &AnnotationStore::new());
        r.handle(&Frame::Checkpoint(encode_checkpoint_frame(1, &image)));
        let reply = r.handle(&segment(1, 1, &[0])).unwrap();
        assert!(matches!(reply, Frame::Ack { lsn: 1, .. }), "{reply:?}");
    }

    #[test]
    fn replays_in_order_and_skips_duplicates() {
        let mut r = bootstrapped(1, 1);
        let reply = r.handle(&segment(1, 1, &[0, 1])).unwrap();
        assert!(matches!(reply, Frame::Ack { lsn: 2, .. }));
        // The same segment again: both records are duplicates.
        r.handle(&segment(1, 1, &[0, 1]));
        assert_eq!(r.records_replayed(), 2);
        assert_eq!(r.records_skipped(), 2);
        assert_eq!(r.applied(), 2);
    }

    #[test]
    fn a_gap_stops_replay_and_acks_progress() {
        let mut r = bootstrapped(1, 1);
        r.handle(&segment(1, 1, &[0]));
        let reply = r.handle(&segment(1, 3, &[2, 3])).unwrap();
        assert!(matches!(reply, Frame::Ack { lsn: 1, .. }), "gap must not be applied");
        assert_eq!(r.applied(), 1);
    }

    #[test]
    fn stale_epoch_segments_are_nacked() {
        let mut r = bootstrapped(1, 3);
        r.handle(&segment(3, 1, &[0]));
        let reply = r.handle(&segment(2, 2, &[1])).unwrap();
        assert!(matches!(reply, Frame::Nack { epoch: 3, lsn: 1 }));
        assert_eq!(r.applied(), 1, "stale-epoch records must not apply");
    }

    #[test]
    fn checkpoint_bootstrap_then_segments() {
        let mut db = Database::new();
        let mut store = AnnotationStore::new();
        for i in 0..3 {
            replay_op(&mut db, &mut store, &op(i)).unwrap();
        }
        let image = checkpoint::encode(3, &db, &store);
        let mut r = Replica::new(2);
        r.handle(&Frame::Checkpoint(encode_checkpoint_frame(1, &image)));
        assert_eq!(r.applied(), 3);
        assert_eq!(r.applied_via_checkpoint(), 3);
        r.handle(&segment(1, 4, &[3]));
        assert_eq!(r.applied(), 4);
        assert_eq!(r.records_replayed() + r.applied_via_checkpoint(), r.applied());
    }

    #[test]
    fn fence_wedges_and_reads_are_refused() {
        let mut r = bootstrapped(1, 1);
        r.handle(&segment(1, 1, &[0]));
        assert!(r.read(1, 0, |_, s| s.annotation_count()).is_ok());
        assert!(matches!(
            r.read(5, 2, |_, s| s.annotation_count()),
            Err(ReplicaError::StaleRead { lag: 4, bound: 2 })
        ));
        r.handle(&Frame::Fence { epoch: 1, reason: "diverged".into() });
        assert!(r.is_wedged());
        assert!(matches!(r.read(1, 10, |_, _| ()), Err(ReplicaError::Wedged(_))));
        assert!(r.handle(&segment(1, 2, &[1])).is_none(), "wedged replicas stay silent");
    }
}
