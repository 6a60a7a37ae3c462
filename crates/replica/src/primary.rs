//! The primary: WAL appends, segment shipping, ack tracking, and
//! divergence detection.
//!
//! The primary wraps the existing [`Durability`] manager — every record
//! is appended (and fsynced per its policy) locally first — and mirrors
//! each append into an in-memory **shadow** copy of the state, recording
//! a [`state_digest`] at every LSN. Replica acknowledgements carry the
//! replica's own digest at its applied LSN; a mismatch is **divergence**
//! (same log, different state) and the offending replica is fenced and
//! wedged rather than allowed to drift further.
//!
//! Shipping is pull-free and self-healing: each record ships the unacked
//! tail as one segment (capped per frame), and a replica whose next
//! needed LSN has been pruned from the ship buffer (the primary
//! checkpointed and truncated its WAL) is caught up with a full
//! checkpoint transfer instead.

use annostore::AnnotationStore;
use nebula_durable::checkpoint;
use nebula_durable::segment::{encode_checkpoint_frame, encode_segment};
use nebula_durable::wal::{encode_record, WalOp};
use nebula_durable::{replay_op, state_digest, Durability};
use relstore::Database;
use std::collections::{BTreeMap, VecDeque};

use crate::counters;
use crate::frame::Frame;
use crate::transport::Transport;
use crate::ReplicaError;

/// Records per shipped segment frame.
const SEGMENT_CAP: u64 = 32;
/// Ship rounds to wait before re-shipping a checkpoint to the same peer.
const CKPT_COOLDOWN: u32 = 2;

/// A detected divergence: a replica acknowledged an LSN with a state
/// digest different from the primary's at the same LSN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivergenceReport {
    /// The offending replica's node id.
    pub replica: usize,
    /// The LSN where the states disagree.
    pub lsn: u64,
    /// The primary's digest at that LSN.
    pub expected: (u32, u32),
    /// The replica's reported digest.
    pub observed: (u32, u32),
    /// The epoch under which the divergence was detected.
    pub epoch: u64,
}

/// One attached replica as the primary sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerRow {
    /// The replica's node id.
    pub id: usize,
    /// Highest LSN the replica has acknowledged.
    pub acked: u64,
    /// Highest LSN shipped toward it.
    pub shipped: u64,
    /// Wedged by divergence detection?
    pub wedged: bool,
}

#[derive(Debug)]
struct PeerTracker {
    acked: u64,
    shipped: u64,
    wedged: bool,
    cooldown: u32,
    /// The peer nacked at our epoch: it cannot use segments (it never
    /// bootstrapped, or its state predates our buffer) and needs the
    /// checkpoint image re-shipped.
    needs_ckpt: bool,
}

/// The replication primary.
#[derive(Debug)]
pub struct Primary {
    node: usize,
    epoch: u64,
    wal: Durability,
    shadow_db: Database,
    shadow_store: AnnotationStore,
    /// Per-LSN shadow digests, pruned below the peers' ack floor.
    digests: BTreeMap<u64, (u32, u32)>,
    /// Encoded records above the checkpoint watermark, ready to ship.
    buffer: VecDeque<(u64, Vec<u8>)>,
    /// Latest checkpoint image (the catch-up payload) and its watermark.
    ckpt_image: Vec<u8>,
    ckpt_watermark: u64,
    peers: BTreeMap<usize, PeerTracker>,
    /// `Some(newer)` once a peer with a newer epoch rejected us.
    fenced: Option<u64>,
    divergences: Vec<DivergenceReport>,
}

impl Primary {
    /// Wrap an open [`Durability`] manager as the primary at `node` under
    /// `epoch`. `db`/`store` must be the state the manager's newest
    /// checkpoint covers (which [`Durability::begin`]/`begin_at` just
    /// wrote); the shadow copy is cloned from them via the checkpoint
    /// codec.
    pub fn new(
        node: usize,
        epoch: u64,
        wal: Durability,
        db: &Database,
        store: &AnnotationStore,
    ) -> Result<Primary, ReplicaError> {
        let ckpt_watermark = wal.watermark();
        let ckpt_image = checkpoint::encode(ckpt_watermark, db, store);
        let (_, shadow_db, shadow_store) = checkpoint::decode(&ckpt_image)?;
        let mut digests = BTreeMap::new();
        if ckpt_watermark > 0 {
            digests.insert(ckpt_watermark, state_digest(&shadow_db, &shadow_store));
        }
        nebula_obs::gauge_set(counters::EPOCH, epoch);
        Ok(Primary {
            node,
            epoch,
            wal,
            shadow_db,
            shadow_store,
            digests,
            buffer: VecDeque::new(),
            ckpt_image,
            ckpt_watermark,
            peers: BTreeMap::new(),
            fenced: None,
            divergences: Vec::new(),
        })
    }

    /// Attach a replica at node `id` and ship it the bootstrap
    /// checkpoint. Idempotent on the tracker; re-ships the image.
    pub fn attach(&mut self, id: usize, t: &mut dyn Transport) {
        self.peers.entry(id).or_insert(PeerTracker {
            acked: 0,
            shipped: 0,
            wedged: false,
            cooldown: 0,
            needs_ckpt: false,
        });
        let frame = Frame::Checkpoint(encode_checkpoint_frame(self.epoch, &self.ckpt_image));
        t.send(self.node, id, frame.encode());
        if let Some(tr) = self.peers.get_mut(&id) {
            tr.shipped = self.ckpt_watermark;
            tr.cooldown = CKPT_COOLDOWN;
        }
        nebula_obs::gauge_set(counters::REPLICAS, self.peers.len() as u64);
    }

    /// Append one operation, mirror it into the shadow, and ship the
    /// unacked tail to every live peer. Returns the assigned LSN.
    ///
    /// Fails with [`ReplicaError::Fenced`] once a newer epoch has been
    /// observed: a deposed primary's writes are rejected, not forked.
    pub fn record(&mut self, op: &WalOp, t: &mut dyn Transport) -> Result<u64, ReplicaError> {
        nebula_obs::trace::note_epoch(self.epoch);
        self.drain(t);
        if let Some(newer) = self.fenced {
            return Err(ReplicaError::Fenced { epoch: self.epoch, newer });
        }
        let lsn = self.wal.append(op)?;
        replay_op(&mut self.shadow_db, &mut self.shadow_store, op)?;
        self.digests.insert(lsn, state_digest(&self.shadow_db, &self.shadow_store));
        self.buffer.push_back((lsn, encode_record(lsn, op)));
        let ids: Vec<usize> = self.peers.keys().copied().collect();
        for id in ids {
            self.ship_to(id, t);
        }
        Ok(lsn)
    }

    /// Drain this primary's inbox — acks, epoch rejections, fences — and
    /// run a catch-up shipping pass over lagging peers.
    pub fn drain(&mut self, t: &mut dyn Transport) {
        while let Some((from, bytes)) = t.recv(self.node) {
            let Ok(frame) = Frame::decode(&bytes) else { continue };
            match frame {
                Frame::Ack { epoch, lsn, digest } => {
                    nebula_obs::counter_add(counters::ACKS, 1);
                    if epoch > self.epoch {
                        self.fence(epoch);
                        continue;
                    }
                    let tspan = nebula_obs::trace::span("repl.ack");
                    if tspan.is_active() {
                        tspan.detail(format!("peer={from} lsn={lsn}"));
                    }
                    self.on_ack(from, lsn, digest, t);
                }
                Frame::Nack { epoch, .. } => {
                    if epoch > self.epoch {
                        self.fence(epoch);
                    } else if let Some(tr) = self.peers.get_mut(&from) {
                        // A same-epoch nack means the peer cannot apply
                        // our segments (e.g. its bootstrap checkpoint was
                        // lost on the wire): re-ship the checkpoint.
                        tr.needs_ckpt = true;
                    }
                }
                Frame::Fence { epoch, .. } => {
                    if epoch > self.epoch {
                        self.fence(epoch);
                    }
                }
                // Bulk payloads are replica-bound; a primary ignores them.
                Frame::Segment(_) | Frame::Checkpoint(_) => {}
            }
        }
        let ids: Vec<usize> = self.peers.keys().copied().collect();
        for id in ids {
            self.ship_to(id, t);
        }
    }

    fn on_ack(&mut self, from: usize, lsn: u64, digest: (u32, u32), t: &mut dyn Transport) {
        // Divergence check: the replica's digest at `lsn` must equal the
        // shadow's. LSN 0 is pre-bootstrap (nothing applied) and LSNs
        // pruned from the digest map are already acked by everyone.
        if lsn > 0 {
            if let Some(&expected) = self.digests.get(&lsn) {
                if expected != digest {
                    let report = DivergenceReport {
                        replica: from,
                        lsn,
                        expected,
                        observed: digest,
                        epoch: self.epoch,
                    };
                    self.divergences.push(report);
                    nebula_obs::counter_add(counters::DIVERGENCES, 1);
                    nebula_obs::trace::flight_event(
                        "divergence",
                        format!("replica={from} lsn={lsn} epoch={}", self.epoch),
                    );
                    nebula_obs::trace::flight_dump("repl.divergence");
                    let fence = Frame::Fence {
                        epoch: self.epoch,
                        reason: format!("state digest mismatch at lsn {lsn}"),
                    };
                    t.send(self.node, from, fence.encode());
                    if let Some(tr) = self.peers.get_mut(&from) {
                        tr.wedged = true;
                    }
                    return;
                }
            }
        }
        if let Some(tr) = self.peers.get_mut(&from) {
            if tr.wedged {
                return;
            }
            tr.acked = tr.acked.max(lsn);
            // Re-ship everything unacked: a dropped segment would
            // otherwise leave `shipped` ahead of the replica forever.
            tr.shipped = tr.acked;
        }
    }

    /// Depose this primary: a peer proved a newer epoch exists. The first
    /// observation is a flight-recorder post-mortem trigger; repeats only
    /// refresh the recorded epoch.
    fn fence(&mut self, newer: u64) {
        if self.fenced.is_none() {
            nebula_obs::trace::flight_event(
                "fence",
                format!("epoch {newer} deposed primary at epoch {}", self.epoch),
            );
            nebula_obs::trace::flight_dump("repl.fenced");
        }
        self.fenced = Some(newer);
    }

    /// Ship the next chunk toward peer `id`: a segment from its unacked
    /// tail, or a checkpoint transfer when the tail was pruned by a local
    /// checkpoint (the replica fell behind the truncated WAL).
    fn ship_to(&mut self, id: usize, t: &mut dyn Transport) {
        let last = self.last_lsn();
        let buffer_front = self.buffer.front().map(|(l, _)| *l);
        let Some(tr) = self.peers.get_mut(&id) else { return };
        if tr.wedged {
            return;
        }
        if tr.shipped >= last && tr.acked < last {
            // Fully shipped but unacknowledged: the tail may have been
            // lost on the wire. Rewind to the ack after a short cooldown
            // so a silent replica is eventually re-fed without flooding.
            if tr.cooldown > 0 {
                tr.cooldown -= 1;
                return;
            }
            tr.shipped = tr.acked;
            tr.cooldown = CKPT_COOLDOWN;
        }
        let start = tr.shipped + 1;
        if start > last && !tr.needs_ckpt {
            return;
        }
        let needs_checkpoint = tr.needs_ckpt || buffer_front.is_none_or(|front| start < front);
        if needs_checkpoint {
            if tr.cooldown > 0 {
                tr.cooldown -= 1;
                return;
            }
            tr.needs_ckpt = false;
            tr.shipped = self.ckpt_watermark;
            tr.cooldown = CKPT_COOLDOWN;
            let frame = Frame::Checkpoint(encode_checkpoint_frame(self.epoch, &self.ckpt_image));
            t.send(self.node, id, frame.encode());
            return;
        }
        let front = buffer_front.unwrap_or(start);
        let end = last.min(start + SEGMENT_CAP - 1);
        let mut bytes = Vec::new();
        for lsn in start..=end {
            let idx = (lsn - front) as usize;
            if let Some((_, rec)) = self.buffer.get(idx) {
                bytes.extend_from_slice(rec);
            }
        }
        let count = (end - start + 1) as u32;
        tr.shipped = end;
        let tspan = nebula_obs::trace::span("repl.ship");
        if tspan.is_active() {
            tspan.detail(format!("peer={id} records={count}"));
        }
        let frame = Frame::Segment(encode_segment(self.epoch, start, count, &bytes));
        t.send(self.node, id, frame.encode());
        drop(tspan);
        nebula_obs::counter_add(counters::SEGMENTS_SHIPPED, 1);
        nebula_obs::counter_add(counters::RECORDS_SHIPPED, u64::from(count));
    }

    /// Checkpoint through the wrapped manager (persist + truncate WAL),
    /// refresh the catch-up image from the shadow, and prune the ship
    /// buffer and digest map.
    pub fn checkpoint(
        &mut self,
        db: &Database,
        store: &AnnotationStore,
    ) -> Result<u64, ReplicaError> {
        let watermark = self.wal.checkpoint(db, store)?;
        // The catch-up image is encoded from the shadow so replica
        // digests stay comparable against the shadow digest chain.
        self.ckpt_image = checkpoint::encode(watermark, &self.shadow_db, &self.shadow_store);
        self.ckpt_watermark = watermark;
        while self.buffer.front().is_some_and(|(l, _)| *l <= watermark) {
            self.buffer.pop_front();
        }
        let floor = self
            .peers
            .values()
            .filter(|tr| !tr.wedged)
            .map(|tr| tr.acked)
            .min()
            .unwrap_or(watermark)
            .min(watermark);
        self.digests.retain(|l, _| *l >= floor);
        Ok(watermark)
    }

    /// The LSN of the most recent append (0 before the first).
    pub fn last_lsn(&self) -> u64 {
        self.wal.next_lsn() - 1
    }

    /// Live (non-wedged) peers that have acknowledged `lsn` or beyond.
    pub fn acks_at(&self, lsn: u64) -> usize {
        self.peers.values().filter(|tr| !tr.wedged && tr.acked >= lsn).count()
    }

    /// Largest acknowledgement lag across live peers, in LSNs (0 with no
    /// live peers).
    pub fn max_lag(&self) -> u64 {
        let last = self.last_lsn();
        self.peers
            .values()
            .filter(|tr| !tr.wedged)
            .map(|tr| last.saturating_sub(tr.acked))
            .max()
            .unwrap_or(0)
    }

    /// Peers wedged by divergence detection.
    pub fn wedged_count(&self) -> usize {
        self.peers.values().filter(|tr| tr.wedged).count()
    }

    /// Per-peer detail rows for `SHOW REPLICATION`.
    pub fn peer_rows(&self) -> Vec<PeerRow> {
        self.peers
            .iter()
            .map(|(&id, tr)| PeerRow {
                id,
                acked: tr.acked,
                shipped: tr.shipped,
                wedged: tr.wedged,
            })
            .collect()
    }

    /// The highest LSN every live peer has acknowledged.
    pub fn min_acked(&self) -> u64 {
        self.peers
            .values()
            .filter(|tr| !tr.wedged)
            .map(|tr| tr.acked)
            .min()
            .unwrap_or_else(|| self.last_lsn())
    }

    /// This primary's node address.
    pub fn node(&self) -> usize {
        self.node
    }

    /// This primary's fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Has a newer epoch deposed this primary?
    pub fn is_fenced(&self) -> bool {
        self.fenced.is_some()
    }

    /// The epoch that deposed this primary, if any.
    pub fn fenced_by(&self) -> Option<u64> {
        self.fenced
    }

    /// Every divergence detected so far.
    pub fn divergences(&self) -> &[DivergenceReport] {
        &self.divergences
    }

    /// Should the wrapped manager take a checkpoint now?
    pub fn checkpoint_due(&self) -> bool {
        use nebula_core::MutationSink as _;
        self.wal.checkpoint_due()
    }

    /// Flush the wrapped manager's WAL (batch-sync policy).
    pub fn flush(&mut self) -> Result<(), ReplicaError> {
        self.wal.sync().map_err(ReplicaError::from)
    }

    /// The shadow state's digest at the newest LSN.
    pub fn shadow_digest(&self) -> (u32, u32) {
        state_digest(&self.shadow_db, &self.shadow_store)
    }

    /// The primary's per-LSN digest chain (its half of the anti-entropy
    /// ladder).
    pub fn digests(&self) -> &BTreeMap<u64, (u32, u32)> {
        &self.digests
    }

    /// The watermark of the current catch-up checkpoint image.
    pub fn ckpt_watermark(&self) -> u64 {
        self.ckpt_watermark
    }

    /// Refresh the in-memory catch-up image from the shadow at the
    /// current head, without persisting anything. Once checkpoints
    /// truncate the WAL mid-run (the backup archiving path), the durable
    /// image can trail the head by thousands of records; a repair that
    /// re-ships it would then have to replay that whole gap segment by
    /// segment. The shadow *is* the state at the head, so repairs load
    /// it wholesale instead.
    pub fn refresh_catchup_image(&mut self) {
        let head = self.last_lsn();
        self.ckpt_image = checkpoint::encode(head, &self.shadow_db, &self.shadow_store);
        self.ckpt_watermark = head;
    }

    /// Forgive a wedged (diverged) peer after repair: reset its tracker to
    /// the repaired replica's agreed position and force a checkpoint
    /// re-ship so its next state load is wholesale.
    pub fn unwedge_peer(&mut self, id: usize) {
        if let Some(tr) = self.peers.get_mut(&id) {
            tr.wedged = false;
            tr.acked = 0;
            tr.shipped = 0;
            tr.cooldown = 0;
            tr.needs_ckpt = true;
        }
    }

    /// Checkpoint from the shadow state: persist a fresh checkpoint image
    /// and truncated WAL derived from the primary's own mirror of the log.
    /// This rewrites both on-disk artifacts, which is how media rot found
    /// by the scrubber is healed — and, as a checkpoint, it also clears a
    /// wedged WAL manager once its failure domain stopped injecting.
    pub fn checkpoint_from_shadow(&mut self) -> Result<u64, ReplicaError> {
        let Primary {
            wal,
            shadow_db,
            shadow_store,
            ckpt_image,
            ckpt_watermark,
            buffer,
            digests,
            peers,
            ..
        } = self;
        let watermark = wal.checkpoint(shadow_db, shadow_store)?;
        *ckpt_image = checkpoint::encode(watermark, shadow_db, shadow_store);
        *ckpt_watermark = watermark;
        while buffer.front().is_some_and(|(l, _)| *l <= watermark) {
            buffer.pop_front();
        }
        let floor = peers
            .values()
            .filter(|tr| !tr.wedged)
            .map(|tr| tr.acked)
            .min()
            .unwrap_or(watermark)
            .min(watermark);
        digests.retain(|l, _| *l >= floor);
        Ok(watermark)
    }

    /// The shadow state (read-only).
    pub fn shadow(&self) -> (&Database, &AnnotationStore) {
        (&self.shadow_db, &self.shadow_store)
    }

    /// The wrapped durability manager (read-only).
    pub fn wal(&self) -> &Durability {
        &self.wal
    }

    /// Mutable access to the primary's durability manager — the shell
    /// uses this to enable WAL archiving (`SET DURABILITY ... ARCHIVE`)
    /// on a replicated sink.
    pub fn wal_mut(&mut self) -> &mut Durability {
        &mut self.wal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::Replica;
    use crate::transport::SimTransport;
    use annostore::AnnotationId;
    use nebula_durable::DurabilityOptions;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nebula-replica-{tag}-{}", std::process::id()));
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

    fn fresh_primary(tag: &str) -> Primary {
        let db = Database::new();
        let store = AnnotationStore::new();
        let wal =
            Durability::begin(&temp_dir(tag), &db, &store, DurabilityOptions::default()).unwrap();
        Primary::new(0, 1, wal, &db, &store).unwrap()
    }

    fn pump(p: &mut Primary, r: &mut Replica, t: &mut SimTransport, rounds: usize) {
        for _ in 0..rounds {
            while let Some((from, bytes)) = t.recv(r.id()) {
                if let Ok(frame) = Frame::decode(&bytes) {
                    if let Some(reply) = r.handle(&frame) {
                        t.send(r.id(), from, reply.encode());
                    }
                }
            }
            p.drain(t);
        }
    }

    #[test]
    fn records_ship_and_acks_advance_the_tracker() {
        let mut t = SimTransport::reliable(2);
        let mut p = fresh_primary("ship");
        let mut r = Replica::new(1);
        p.attach(1, &mut t);
        for i in 0..5 {
            p.record(&op(i), &mut t).unwrap();
        }
        pump(&mut p, &mut r, &mut t, 3);
        assert_eq!(r.applied(), 5);
        assert_eq!(p.acks_at(5), 1);
        assert_eq!(p.max_lag(), 0);
        assert_eq!(r.digest(), p.shadow_digest());
        assert!(p.divergences().is_empty());
    }

    #[test]
    fn a_lapped_replica_catches_up_via_checkpoint_transfer() {
        let mut t = SimTransport::reliable(3);
        let mut p = fresh_primary("lap");
        let mut r = Replica::new(1);
        p.attach(1, &mut t);
        pump(&mut p, &mut r, &mut t, 2);
        // Cut the link, advance, and checkpoint so the ship buffer is
        // truncated past the replica's position.
        t.set_partitioned(1, true);
        for i in 0..6 {
            p.record(&op(i), &mut t).unwrap();
        }
        let image = checkpoint::encode(0, p.shadow().0, p.shadow().1);
        let (_, db, store) = checkpoint::decode(&image).unwrap();
        p.checkpoint(&db, &store).unwrap();
        assert_eq!(p.last_lsn(), 6);
        t.set_partitioned(1, false);
        pump(&mut p, &mut r, &mut t, 10);
        assert_eq!(r.applied(), 6);
        assert!(r.checkpoint_loads() >= 1, "catch-up must use a checkpoint transfer");
        assert_eq!(r.digest(), p.shadow_digest());
    }

    #[test]
    fn divergent_ack_is_detected_fenced_and_wedged() {
        let mut t = SimTransport::reliable(2);
        let mut p = fresh_primary("diverge");
        let mut r = Replica::new(1);
        p.attach(1, &mut t);
        p.record(&op(0), &mut t).unwrap();
        // Forge a wrong digest at lsn 1.
        t.send(1, 0, Frame::Ack { epoch: 1, lsn: 1, digest: (1, 2) }.encode());
        p.drain(&mut t);
        assert_eq!(p.divergences().len(), 1);
        let d = p.divergences()[0];
        assert_eq!((d.replica, d.lsn), (1, 1));
        assert_eq!(p.wedged_count(), 1);
        // The fence reaches the replica and wedges it.
        pump(&mut p, &mut r, &mut t, 2);
        assert!(r.is_wedged());
    }

    #[test]
    fn a_lost_bootstrap_checkpoint_heals_via_nack() {
        let mut t = SimTransport::reliable(2);
        let mut p = fresh_primary("bootstrap-loss");
        let mut r = Replica::new(1);
        // Attach while the replica is dark: the bootstrap checkpoint is
        // blackholed, leaving the replica uninitialized.
        t.set_partitioned(1, true);
        p.attach(1, &mut t);
        t.set_partitioned(1, false);
        for i in 0..4 {
            p.record(&op(i), &mut t).unwrap();
        }
        // Segments reach an uninitialized replica: it nacks, the primary
        // re-ships its checkpoint, and replay then proceeds normally.
        pump(&mut p, &mut r, &mut t, 12);
        assert_eq!(r.applied(), 4, "replica must converge after losing its bootstrap");
        assert!(!r.is_wedged());
        assert!(r.checkpoint_loads() >= 1, "healing must go through a checkpoint re-ship");
        assert_eq!(r.digest(), p.shadow_digest());
        assert_eq!(p.acks_at(4), 1);
        assert!(p.divergences().is_empty());
    }

    #[test]
    fn a_newer_epoch_fences_the_primary() {
        let mut t = SimTransport::reliable(2);
        let mut p = fresh_primary("fence");
        p.attach(1, &mut t);
        p.record(&op(0), &mut t).unwrap();
        t.send(1, 0, Frame::Nack { epoch: 2, lsn: 1 }.encode());
        assert!(matches!(
            p.record(&op(1), &mut t),
            Err(ReplicaError::Fenced { epoch: 1, newer: 2 })
        ));
        assert!(p.is_fenced());
    }
}
