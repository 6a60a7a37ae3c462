//! The sharded cluster: full-replica shards with slot ownership,
//! scatter-gather search, boundary-edge exchange, and per-shard fault
//! domains.
//!
//! ## Why full replicas
//!
//! Stage-2 search confidence is a function of *database-wide* statistics
//! (vocabulary, selectivity), and the pipeline's ACG/profile state feeds
//! every later annotation. Slicing the data itself would change those
//! statistics and break the keystone invariant (shard-count-independent
//! results). Instead every shard holds a byte-faithful replica of the
//! database and annotation store, and **ownership** — which shard
//! answers for which tuples, and which shard's digest slice covers which
//! annotations — is partitioned by the deterministic
//! [`ShardRouter`](nebula_ingest::ShardRouter).
//!
//! Search work is *not* divided: every shard evaluates the whole query
//! set over its full replica and then keeps only the hits in the slots
//! it owns, and the home merges those disjoint lists. What the scatter
//! buys is that correctness never depends on more than one shard being
//! reachable, not a smaller search per shard. Each shard searches
//! through one [`KeywordSearch`] it keeps for life, shared by its local
//! pass as home and by every probe it serves, so keyword mappings
//! computed once over a database state are read back by both.
//!
//! ## Determinism
//!
//! Everything is single-threaded and cooperative: "the network" is a
//! [`SimTransport`] pumped in bounded rounds, deadlines are counted in
//! rounds, and fault injection draws from seeded streams. The same seed
//! replays the same partition/heal/failover history.
//!
//! Time advances only while something is outstanding. A scatter or an
//! exchange pumps at once; only a round that starts with replies or
//! acks still missing first advances the governed clock by one tick. On
//! a clean fabric every reply lands in the first pump, so the clock
//! never moves; under held, dropped or partitioned frames it advances
//! once per round that really waits.
//!
//! ## Degradation, not failure
//!
//! A sibling that cannot answer a probe before the deadline is recorded
//! in a typed [`Degradation::PartialShards`] note (drained into
//! `ProcessOutcome.degradations`), its breaker absorbs the failure, and
//! the merged result simply lacks that shard's owned slots. Nothing
//! hangs, panics, or silently pretends to be complete.

use annostore::{snapshot as astore_snapshot, Annotation, AnnotationId, AnnotationStore};
use nebula_codec::fnv1a;
use nebula_core::{
    Mutation, MutationSink, Nebula, NebulaConfig, NebulaError, NebulaMeta, ProcessOutcome,
    SinkError,
};
use nebula_durable::wal::{encode_record, read_wal};
use nebula_durable::{checkpoint, WalOp};
use nebula_govern::scrub::{Artifact, ScrubReport};
use nebula_govern::{clock, Degradation, ExecutionBudget, FaultPlan, FaultSite};
use nebula_ingest::{BreakerConfig, BreakerState, CircuitBreaker, ShardHealth, ShardRouter};
use nebula_replica::{SimTransport, Transport, TransportStats};
use relstore::{Database, TupleId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use textsearch::{
    ExecutionMode, KeywordQuery, KeywordSearch, SearchBackend, SearchError, SearchHit, SearchStats,
};

use crate::counters;
use crate::frame::ShardFrame;

/// Everything that can go wrong at the cluster layer.
#[derive(Debug)]
pub enum ShardError {
    /// The home engine's pipeline failed.
    Engine(NebulaError),
    /// A mutation batch would not replay.
    Apply(String),
    /// A snapshot would not encode/decode/merge.
    Snapshot(String),
    /// The addressed shard does not exist or is down.
    ShardDown(usize),
    /// No shard is currently eligible to serve as home.
    ClusterDown,
    /// Seeding the cluster from a backup bundle failed (verification or
    /// restore).
    Seed(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Engine(e) => write!(f, "engine: {e}"),
            ShardError::Apply(m) => write!(f, "apply: {m}"),
            ShardError::Snapshot(m) => write!(f, "snapshot: {m}"),
            ShardError::ShardDown(s) => write!(f, "shard {s} is down"),
            ShardError::ClusterDown => write!(f, "no shard eligible to serve as home"),
            ShardError::Seed(m) => write!(f, "bundle seed failed: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<NebulaError> for ShardError {
    fn from(e: NebulaError) -> ShardError {
        ShardError::Engine(e)
    }
}

/// Scatter deadline, counted in pump rounds. A sibling that has not
/// replied when the rounds are exhausted is a typed partial-result miss.
/// Tight on purpose: counted in rounds, not time, the deadline is
/// identical on every run.
const DEADLINE_ROUNDS: u32 = 6;

/// Governed-clock advance before each pump round that starts with
/// something still outstanding (every round but the first). A round that
/// has nothing to wait for never ticks.
const TICK: Duration = Duration::from_millis(1);

/// Rounds the boundary-edge exchange retries unacked batches before
/// declaring a shard lagging (it catches up on heal).
const REPLICATE_ROUNDS: u32 = 16;

/// Cluster tuning.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Shard count (clamped to `1..=SLOTS` by the router).
    pub shards: usize,
    /// Per-shard breaker tuning for the scatter path.
    pub breaker: BreakerConfig,
    /// Per-shard probe-serving budget: each shard answers probes under
    /// its **own** budget scope, so one wedged shard cannot charge work
    /// to — or trip the budget of — the home that probed it.
    pub serve_budget: ExecutionBudget,
    /// Optional seeded network faults: the transport's own plan, rolled
    /// at the `Net*` sites, so network faults never perturb the engine's
    /// fault draws. `None` = reliable fabric.
    pub net: Option<FaultPlan>,
}

impl ShardConfig {
    /// Defaults tuned for the deterministic tests: a breaker that opens
    /// after 3 misses, effectively-unbounded serving budget (bounded so
    /// the scope still *installs* and isolates).
    pub fn new(shards: usize) -> ShardConfig {
        ShardConfig {
            shards,
            breaker: BreakerConfig { failure_threshold: 3, open_shed_count: 4 },
            serve_budget: ExecutionBudget::unbounded().with_max_tuples(usize::MAX >> 1),
            net: None,
        }
    }
}

/// One committed mutation batch: WAL records concatenated in commit
/// order, stamped with the shard that originated it.
#[derive(Debug, Clone)]
struct LogEntry {
    origin: usize,
    completed: bool,
    bytes: Vec<u8>,
}

/// Buffers the engine's committed mutations during one pipeline run; the
/// cluster drains it into a replication batch afterwards.
#[derive(Debug)]
struct ExchangeSink {
    ops: Arc<Mutex<Vec<WalOp>>>,
}

impl MutationSink for ExchangeSink {
    fn record(&mut self, mutation: &Mutation<'_>) -> Result<u64, SinkError> {
        let mut ops = self.ops.lock().expect("exchange buffer poisoned");
        ops.push(WalOp::from_mutation(mutation));
        Ok(ops.len() as u64)
    }

    fn checkpoint(&mut self, _db: &Database, _store: &AnnotationStore) -> Result<u64, SinkError> {
        Ok(0)
    }

    fn describe(&self) -> String {
        "shard exchange buffer".into()
    }
}

/// One shard: a full replica plus the engine state that has to stay
/// converged for any shard to serve as home.
#[derive(Debug)]
struct ShardNode {
    id: usize,
    /// Fencing epoch this incarnation joined at; frames minted under an
    /// older epoch are discarded.
    epoch: u64,
    /// Highest global batch sequence applied.
    applied_seq: u64,
    failed: bool,
    engine: Nebula,
    db: Database,
    store: AnnotationStore,
    serve_budget: ExecutionBudget,
    /// The node's one search engine: its local pass as home and every
    /// probe it serves read back the same mapping cache.
    search: Arc<KeywordSearch>,
}

/// Replay one batch — the records one `process_annotation` run committed —
/// onto an engine + replica pair: decode, hand each record to
/// [`Nebula::apply`]. The focal list for profile updates is the batch's own
/// `AttachTuple` records (the store's focal set would wrongly include
/// tuples accepted by *earlier* annotations).
fn replay_batch(
    engine: &mut Nebula,
    db: &mut Database,
    store: &mut AnnotationStore,
    bytes: &[u8],
    completed: bool,
) -> Result<(), ShardError> {
    let (records, tail) = read_wal(bytes);
    if !tail.is_clean() {
        return Err(ShardError::Apply(format!("torn batch: {} bytes dropped", tail.dropped_bytes)));
    }
    let mut focal: Vec<TupleId> = Vec::new();
    for rec in &records {
        rec.op.with_mutation(|m| {
            if let Mutation::TupleDeleted { tuple } = *m {
                db.delete(tuple);
            }
            engine.apply(store, m, &focal)?;
            if let Mutation::AttachTuple { tuple, .. } = *m {
                focal.push(tuple);
            }
            Ok::<(), NebulaError>(())
        })?;
    }
    if completed {
        engine.acg_mut().record_annotation();
    }
    Ok(())
}

/// The one "genesis + log" replay: an unsharded engine booted from the
/// `genesis` image with `log` replayed on top. `at(seq, store)` sees the
/// store at every batch boundary, genesis (`seq` 0) included. Shard boot
/// and failover rebuild, the scrub reference and the twin all start here.
fn replay_history(
    genesis: &[u8],
    meta: &NebulaMeta,
    engine_config: &NebulaConfig,
    log: &[LogEntry],
    mut at: impl FnMut(u64, &AnnotationStore),
) -> Result<TwinEngine, ShardError> {
    let (_, mut db, mut store) =
        checkpoint::decode(genesis).map_err(|e| ShardError::Snapshot(e.to_string()))?;
    let mut engine = Nebula::new(engine_config.clone(), meta.clone());
    if store.annotation_count() > 0 {
        engine.bootstrap_acg(&store);
    }
    at(0, &store);
    for (i, e) in log.iter().enumerate() {
        replay_batch(&mut engine, &mut db, &mut store, &e.bytes, e.completed)?;
        at((i + 1) as u64, &store);
    }
    Ok(TwinEngine { engine, db, store })
}

/// The shared fabric: the simulated network, the shard nodes, and the
/// home-side breakers. Lives behind `Arc<Mutex<..>>` because each home
/// engine's scatter backend reaches it from inside `process_annotation`.
#[derive(Debug)]
struct Fabric {
    transport: SimTransport,
    router: ShardRouter,
    nodes: Vec<Option<ShardNode>>,
    /// Home-side breaker per sibling shard: tracks *that shard's* probe
    /// behavior, trips independently of its siblings'.
    breakers: Vec<CircuitBreaker>,
    partitioned: Vec<bool>,
    epoch: u64,
    probe_seq: u64,
    /// Expected post-apply store digest per batch sequence (1-based).
    expected_digests: Vec<u64>,
    /// Shards whose acks ever disagreed with the durable history.
    divergent: BTreeSet<usize>,
}

impl Fabric {
    /// Drain every node's inbox once (except `exclude`), serving probes
    /// and applying batches. Failed nodes drain-and-drop. Bounded work:
    /// one pass over what is currently deliverable.
    fn pump(&mut self, exclude: usize) {
        for id in 0..self.nodes.len() {
            if id == exclude {
                continue;
            }
            while let Some((_from, bytes)) = self.transport.recv(id) {
                let Ok(frame) = ShardFrame::decode(&bytes) else { continue };
                self.handle_frame(id, frame);
            }
        }
    }

    fn handle_frame(&mut self, at: usize, frame: ShardFrame) {
        match frame {
            ShardFrame::ApplyAck { seq, shard, digest } => {
                nebula_obs::counter_add(counters::APPLY_ACKS, 1);
                if let Some(&expected) = self.expected_digests.get((seq.max(1) - 1) as usize) {
                    if digest != expected {
                        nebula_obs::counter_add(counters::DIGEST_DIVERGENCES, 1);
                        self.divergent.insert(shard);
                    }
                }
            }
            ShardFrame::ApplyNack { .. } => {
                // The retry loop works off authoritative applied
                // sequences; the nack is counted for observability.
                nebula_obs::counter_add(counters::APPLY_NACKS, 1);
            }
            ShardFrame::Probe { probe_id, origin, epoch, mode, queries } => {
                let Some(mut node) = self.nodes[at].take() else { return };
                if !node.failed && epoch >= node.epoch {
                    self.serve_probe(&mut node, probe_id, origin, mode, &queries);
                }
                self.nodes[at] = Some(node);
            }
            ShardFrame::Apply { seq, origin, epoch, completed, ops } => {
                let Some(mut node) = self.nodes[at].take() else { return };
                if !node.failed && epoch >= node.epoch {
                    self.handle_apply(&mut node, seq, origin, completed, &ops);
                }
                self.nodes[at] = Some(node);
            }
            ShardFrame::ProbeReply { .. } => {
                // A reply that reached a node with no scatter in flight is
                // stale (its scatter already timed out); drop it.
            }
        }
    }

    /// Serve one probe under the shard's own budget scope — the per-shard
    /// fault domain. A budget trip or injected fault yields an `ok=false`
    /// reply, never an error that crosses the shard boundary.
    fn serve_probe(
        &mut self,
        node: &mut ShardNode,
        probe_id: u64,
        origin: usize,
        mode: ExecutionMode,
        queries: &[KeywordQuery],
    ) {
        let reply = if nebula_govern::inject(FaultSite::Shard).is_some() {
            nebula_obs::counter_add(counters::PROBE_SERVE_ERRORS, 1);
            ShardFrame::ProbeReply { probe_id, shard: node.id, ok: false, groups: Vec::new() }
        } else {
            let outcome = {
                let _scope = nebula_govern::begin_budget(&node.serve_budget);
                node.search.search_group(queries, &node.db, mode)
            };
            #[cfg(test)]
            tests::compare_with_cold("probe", &node.search, queries, &node.db, mode, &outcome);
            match outcome {
                Ok((mut groups, _stats)) => {
                    for g in &mut groups {
                        g.retain(|h| self.router.route_tuple(h.tuple) == node.id);
                    }
                    ShardFrame::ProbeReply { probe_id, shard: node.id, ok: true, groups }
                }
                Err(_) => {
                    nebula_obs::counter_add(counters::PROBE_SERVE_ERRORS, 1);
                    ShardFrame::ProbeReply {
                        probe_id,
                        shard: node.id,
                        ok: false,
                        groups: Vec::new(),
                    }
                }
            }
        };
        self.transport.send(node.id, origin, reply.encode());
    }

    fn handle_apply(
        &mut self,
        node: &mut ShardNode,
        seq: u64,
        origin: usize,
        completed: bool,
        ops: &[u8],
    ) {
        if seq <= node.applied_seq {
            // Duplicate delivery: re-ack so a retrying origin unblocks.
            let ack = ShardFrame::ApplyAck { seq, shard: node.id, digest: node.store.digest() };
            self.transport.send(node.id, origin, ack.encode());
            return;
        }
        let refuse = seq > node.applied_seq + 1
            || nebula_govern::inject(FaultSite::Shard).is_some()
            || replay_batch(&mut node.engine, &mut node.db, &mut node.store, ops, completed)
                .is_err();
        if refuse {
            let nack = ShardFrame::ApplyNack { seq, shard: node.id, applied: node.applied_seq };
            self.transport.send(node.id, origin, nack.encode());
            return;
        }
        node.applied_seq = seq;
        nebula_obs::counter_add(counters::BATCHES_APPLIED, 1);
        let ack = ShardFrame::ApplyAck { seq, shard: node.id, digest: node.store.digest() };
        self.transport.send(node.id, origin, ack.encode());
    }

    /// Record a probe outcome on the shard's breaker, counting trips.
    fn breaker_outcome(&mut self, shard: usize, ok: bool) {
        if ok {
            self.breakers[shard].record_success();
            return;
        }
        let was_open = self.breakers[shard].state() == BreakerState::Open;
        self.breakers[shard].record_failure();
        if !was_open && self.breakers[shard].state() == BreakerState::Open {
            nebula_obs::counter_add(counters::BREAKER_OPENED, 1);
        }
    }

    /// Scatter one query group from `me` to every sibling and gather
    /// owned-slot replies until the governed deadline. Returns the
    /// replies plus the sorted list of shards that did not answer.
    fn scatter(
        &mut self,
        me: usize,
        queries: &[KeywordQuery],
        mode: ExecutionMode,
    ) -> (BTreeMap<usize, Vec<Vec<SearchHit>>>, Vec<usize>) {
        let total = self.router.shards();
        self.probe_seq += 1;
        let probe_id = self.probe_seq;
        let mut missing: BTreeSet<usize> = BTreeSet::new();
        let mut outstanding: BTreeSet<usize> = BTreeSet::new();
        for s in (0..total).filter(|&s| s != me) {
            if self.breakers[s].allows() {
                outstanding.insert(s);
            } else {
                // Breaker open: don't even probe; the shard is missing by
                // policy until its shed count re-arms the breaker.
                nebula_obs::counter_add(counters::PROBES_SKIPPED, 1);
                missing.insert(s);
            }
        }
        let frame = ShardFrame::Probe {
            probe_id,
            origin: me,
            epoch: self.epoch,
            mode,
            queries: queries.to_vec(),
        }
        .encode();
        for &s in &outstanding {
            self.transport.send(me, s, frame.clone());
            nebula_obs::counter_add(counters::PROBES_SENT, 1);
        }
        let mut replies: BTreeMap<usize, Vec<Vec<SearchHit>>> = BTreeMap::new();
        for round in 0..DEADLINE_ROUNDS {
            if outstanding.is_empty() {
                break;
            }
            // Pump at once; wait one tick only before a round that the
            // previous one left with replies outstanding.
            if round > 0 {
                clock::sleep(TICK);
            }
            self.pump(me);
            while let Some((_from, bytes)) = self.transport.recv(me) {
                let Ok(frame) = ShardFrame::decode(&bytes) else { continue };
                let ShardFrame::ProbeReply { probe_id: pid, shard, ok, groups } = frame else {
                    continue;
                };
                if pid != probe_id || !outstanding.remove(&shard) {
                    continue; // stale scatter round
                }
                if ok {
                    self.breaker_outcome(shard, true);
                    nebula_obs::counter_add(counters::PROBES_ANSWERED, 1);
                    replies.insert(shard, groups);
                } else {
                    self.breaker_outcome(shard, false);
                    missing.insert(shard);
                }
            }
        }
        for &s in &outstanding {
            self.breaker_outcome(s, false);
            nebula_obs::counter_add(counters::PROBES_TIMED_OUT, 1);
            missing.insert(s);
        }
        (replies, missing.into_iter().collect())
    }
}

/// The home-side search override installed into every shard's engine:
/// answers for the home's owned slots locally, gathers the siblings'
/// owned slots over the fabric, and merges.
#[derive(Debug)]
struct ScatterBackend {
    fabric: Arc<Mutex<Fabric>>,
    me: usize,
    search: Arc<KeywordSearch>,
}

impl SearchBackend for ScatterBackend {
    fn run_group(
        &self,
        queries: &[KeywordQuery],
        db: &Database,
        mode: ExecutionMode,
    ) -> Result<(Vec<Vec<SearchHit>>, SearchStats), SearchError> {
        // Local pass first — charged to the *home's* budget, identical to
        // the unsharded engine's work profile.
        let local = self.search.search_group(queries, db, mode);
        #[cfg(test)]
        tests::compare_with_cold("home", &self.search, queries, db, mode, &local);
        let (mut groups, stats) = local?;
        let mut fabric = self.fabric.lock().expect("shard fabric poisoned");
        let total = fabric.router.shards();
        if total == 1 {
            return Ok((groups, stats));
        }
        for g in &mut groups {
            g.retain(|h| fabric.router.route_tuple(h.tuple) == self.me);
        }
        let (replies, missing) = fabric.scatter(self.me, queries, mode);
        for (_shard, reply_groups) in replies {
            for (i, extra) in reply_groups.into_iter().enumerate() {
                if let Some(g) = groups.get_mut(i) {
                    g.extend(extra);
                }
            }
        }
        // Owned slot sets are disjoint, so re-sorting the union with the
        // engine's exact comparator reproduces the unsharded hit order.
        for g in &mut groups {
            g.sort_by(|a, b| b.confidence.total_cmp(&a.confidence).then(a.tuple.cmp(&b.tuple)));
        }
        if !missing.is_empty() {
            nebula_govern::note_degradation(Degradation::PartialShards {
                answered: total - missing.len(),
                total,
                missing,
            });
            nebula_obs::counter_add(counters::PARTIAL_RESULTS, 1);
        }
        Ok((groups, stats))
    }

    fn name(&self) -> &'static str {
        "scatter-gather"
    }
}

/// Turn a replayed engine into shard `id`: install the scatter override
/// over the node's one search engine.
fn build_node(
    id: usize,
    epoch: u64,
    applied_seq: u64,
    twin: TwinEngine,
    serve_budget: ExecutionBudget,
    fabric: &Arc<Mutex<Fabric>>,
) -> ShardNode {
    let TwinEngine { mut engine, db, store } = twin;
    let search = Arc::new(engine.search_engine(&db));
    engine.set_group_search(Some(Box::new(ScatterBackend {
        fabric: fabric.clone(),
        me: id,
        search: search.clone(),
    })));
    ShardNode { id, epoch, applied_seq, failed: false, engine, db, store, serve_budget, search }
}

/// An unsharded engine rebuilt from a cluster's durable history — the
/// reference the byte-identity tests compare against.
#[derive(Debug)]
pub struct TwinEngine {
    /// The replayed engine (no scatter override installed).
    pub engine: Nebula,
    /// The replayed database.
    pub db: Database,
    /// The replayed annotation store.
    pub store: AnnotationStore,
}

impl TwinEngine {
    /// Canonical checkpoint image of the twin's state.
    pub fn checkpoint(&self) -> Vec<u8> {
        checkpoint::encode(0, &self.db, &self.store)
    }

    /// Process one annotation on the twin (sequential, unsharded path).
    pub fn process(
        &mut self,
        annotation: &Annotation,
        focal: &[TupleId],
    ) -> Result<ProcessOutcome, NebulaError> {
        self.engine.process_annotation(&self.db, &mut self.store, annotation, focal)
    }
}

/// The partition-tolerant sharded cluster.
pub struct ShardCluster {
    fabric: Arc<Mutex<Fabric>>,
    meta: NebulaMeta,
    engine_config: NebulaConfig,
    config: ShardConfig,
    /// Checkpoint image of the initial state every shard booted from.
    genesis: Vec<u8>,
    /// The global batch log: seq `i+1` is `log[i]`. This *is* the durable
    /// history — failover and scrub repair replay it from genesis.
    log: Vec<LogEntry>,
    /// Annotation id → the shard that processed (owns) it.
    homes: BTreeMap<u64, usize>,
    /// Shards behind the replication head (partitioned mid-exchange).
    lagging: BTreeSet<usize>,
}

impl std::fmt::Debug for ShardCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardCluster")
            .field("shards", &self.config.shards)
            .field("batches", &self.log.len())
            .field("lagging", &self.lagging)
            .finish()
    }
}

impl ShardCluster {
    /// Boot `config.shards` shards, each a byte-faithful replica of
    /// `(db, store)` with a freshly bootstrapped engine.
    pub fn new(
        db: &Database,
        store: &AnnotationStore,
        meta: &NebulaMeta,
        engine_config: &NebulaConfig,
        config: ShardConfig,
    ) -> Result<ShardCluster, ShardError> {
        let genesis = checkpoint::encode(0, db, store);
        let router = ShardRouter::new(config.shards);
        let shards = router.shards();
        let transport = match &config.net {
            Some(plan) => SimTransport::new(shards, plan.clone()),
            None => SimTransport::reliable(shards),
        };
        let fabric = Arc::new(Mutex::new(Fabric {
            transport,
            router,
            nodes: (0..shards).map(|_| None).collect(),
            breakers: vec![CircuitBreaker::new(config.breaker); shards],
            partitioned: vec![false; shards],
            epoch: 0,
            probe_seq: 0,
            expected_digests: Vec::new(),
            divergent: BTreeSet::new(),
        }));
        for id in 0..shards {
            let twin = replay_history(&genesis, meta, engine_config, &[], |_, _| {})?;
            let node = build_node(id, 0, 0, twin, config.serve_budget.clone(), &fabric);
            fabric.lock().expect("shard fabric poisoned").nodes[id] = Some(node);
        }
        nebula_obs::gauge_set(counters::SHARDS_GAUGE, shards as u64);
        nebula_obs::gauge_set(counters::EPOCH_GAUGE, 0);
        nebula_obs::gauge_set(counters::LAGGING_GAUGE, 0);
        Ok(ShardCluster {
            fabric,
            meta: meta.clone(),
            engine_config: engine_config.clone(),
            config,
            genesis,
            log: Vec::new(),
            homes: BTreeMap::new(),
            lagging: BTreeSet::new(),
        })
    }

    /// Boot a shard cluster from a verified backup bundle instead of a
    /// live store: the bundle restores to its head (manifest-verified,
    /// archived WAL replayed) and every shard starts as a byte-faithful
    /// replica of that restored state — cold-start disaster recovery
    /// with no source cluster in the loop.
    pub fn seed_from_bundle(
        bundle_dir: &std::path::Path,
        meta: &NebulaMeta,
        engine_config: &NebulaConfig,
        config: ShardConfig,
    ) -> Result<ShardCluster, ShardError> {
        let restored = nebula_backup::restore(bundle_dir, None)
            .map_err(|e| ShardError::Seed(e.to_string()))?;
        ShardCluster::new(&restored.db, &restored.store, meta, engine_config, config)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Fabric> {
        self.fabric.lock().expect("shard fabric poisoned")
    }

    /// Pick the shard that processes `focal`'s annotation. The router's
    /// choice stands unless that shard is failed, partitioned, or behind
    /// the replication head — then the lowest fully-caught-up shard takes
    /// over (full replicas make any caught-up shard a correct home).
    fn choose_home(&self, focal: &[TupleId]) -> Result<usize, ShardError> {
        let f = self.lock();
        let head = self.log.len() as u64;
        let eligible = |s: usize| {
            !f.partitioned[s]
                && f.nodes[s].as_ref().is_some_and(|n| !n.failed && n.applied_seq >= head)
        };
        let routed = f.router.route(focal);
        if eligible(routed) {
            return Ok(routed);
        }
        for s in 0..f.router.shards() {
            if eligible(s) {
                nebula_obs::counter_add(counters::HOME_FALLBACKS, 1);
                return Ok(s);
            }
        }
        Err(ShardError::ClusterDown)
    }

    /// Route one annotation to its home shard, run the full pipeline
    /// there (stage-2 full search scatter-gathers over the fabric), then
    /// replicate the committed mutation batch to every sibling.
    pub fn ingest(
        &mut self,
        annotation: &Annotation,
        focal: &[TupleId],
    ) -> Result<ProcessOutcome, ShardError> {
        let home = self.choose_home(focal)?;
        let mut node = self.lock().nodes[home].take().ok_or(ShardError::ShardDown(home))?;
        let buf: Arc<Mutex<Vec<WalOp>>> = Arc::default();
        node.engine.set_mutation_sink(Some(Box::new(ExchangeSink { ops: buf.clone() })));
        let result = node.engine.process_annotation(&node.db, &mut node.store, annotation, focal);
        node.engine.take_mutation_sink();
        let ops = std::mem::take(&mut *buf.lock().expect("exchange buffer poisoned"));
        let completed = result.is_ok();
        if ops.is_empty() {
            // Nothing committed (the pipeline failed before stage 0):
            // no batch to exchange.
            self.lock().nodes[home] = Some(node);
            return result.map_err(ShardError::Engine);
        }
        let seq = self.log.len() as u64 + 1;
        for op in &ops {
            if let WalOp::AddAnnotation { expected, .. } = op {
                self.homes.insert(expected.0, home);
            }
        }
        let mut bytes = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            bytes.extend_from_slice(&encode_record((i + 1) as u64, op));
        }
        node.applied_seq = seq;
        let digest = node.store.digest();
        {
            let mut f = self.lock();
            f.expected_digests.push(digest);
            f.nodes[home] = Some(node);
        }
        self.log.push(LogEntry { origin: home, completed, bytes });
        nebula_obs::counter_add(counters::ANNOTATIONS_ROUTED, 1);
        self.replicate();
        result.map_err(ShardError::Engine)
    }

    /// Push every live shard to the replication head with bounded
    /// nack-and-retry rounds. Shards still behind afterwards (partitioned
    /// mid-exchange) are recorded as lagging; [`ShardCluster::heal_shard`]
    /// re-runs this to catch them up.
    fn replicate(&mut self) {
        let head = self.log.len() as u64;
        if head == 0 {
            return;
        }
        let mut f = self.lock();
        let shards = f.router.shards();
        let behind = |f: &Fabric| -> Vec<usize> {
            (0..shards)
                .filter(|&s| f.nodes[s].as_ref().is_some_and(|n| !n.failed && n.applied_seq < head))
                .collect()
        };
        let mut round = 0u32;
        let still_behind;
        loop {
            let pending = behind(&f);
            if pending.is_empty() || round >= REPLICATE_ROUNDS {
                still_behind = pending;
                break;
            }
            // A retry round waits one tick for the acks the previous round
            // did not bring; the first round sends and pumps at once.
            if round > 0 {
                nebula_obs::counter_add(counters::APPLY_RETRIES, 1);
                clock::sleep(TICK);
            }
            for &s in &pending {
                let from = f.nodes[s].as_ref().map_or(head, |n| n.applied_seq);
                for seq in (from + 1)..=head {
                    let e = &self.log[(seq - 1) as usize];
                    let frame = ShardFrame::Apply {
                        seq,
                        origin: e.origin,
                        epoch: f.epoch,
                        completed: e.completed,
                        ops: e.bytes.clone(),
                    };
                    f.transport.send(e.origin, s, frame.encode());
                    nebula_obs::counter_add(counters::APPLIES_SENT, 1);
                }
            }
            f.pump(usize::MAX);
            round += 1;
        }
        drop(f);
        self.lagging = still_behind.into_iter().collect();
        nebula_obs::gauge_set(counters::LAGGING_GAUGE, self.lagging.len() as u64);
    }

    /// Cut every link to shard `s` (it keeps its state but hears and
    /// answers nothing).
    pub fn partition_shard(&mut self, s: usize) {
        let mut f = self.lock();
        if s < f.partitioned.len() {
            f.transport.set_partitioned(s, true);
            f.partitioned[s] = true;
        }
    }

    /// Restore shard `s`'s links and catch it up on every batch it
    /// missed (resumed boundary-edge exchange).
    pub fn heal_shard(&mut self, s: usize) {
        {
            let mut f = self.lock();
            if s < f.partitioned.len() {
                f.transport.set_partitioned(s, false);
                f.partitioned[s] = false;
            }
        }
        self.replicate();
    }

    /// Crash shard `s`: it stops serving probes and applies until a
    /// promote rebuilds it.
    pub fn fail_shard(&mut self, s: usize) {
        let mut f = self.lock();
        if let Some(node) = f.nodes.get_mut(s).and_then(Option::as_mut) {
            node.failed = true;
        }
    }

    /// Epoch-fenced failover: bump the cluster epoch, rebuild shard `s`
    /// from genesis plus the durable batch log, and fence any frame still
    /// in flight from before the promote.
    pub fn promote_shard(&mut self, s: usize) -> Result<(), ShardError> {
        let epoch = {
            let mut f = self.lock();
            if s >= f.router.shards() {
                return Err(ShardError::ShardDown(s));
            }
            f.epoch += 1;
            let epoch = f.epoch;
            for node in f.nodes.iter_mut().flatten() {
                node.epoch = epoch;
            }
            epoch
        };
        let node = self.rebuild_node(s, epoch, self.log.len())?;
        {
            let mut f = self.lock();
            // Drop anything queued for the dead incarnation (each recv on
            // a held frame ticks its hold down, so this terminates).
            while f.transport.pending(s) > 0 {
                let _ = f.transport.recv(s);
            }
            f.breakers[s] = CircuitBreaker::new(self.config.breaker);
            f.nodes[s] = Some(node);
        }
        self.lagging.remove(&s);
        nebula_obs::counter_add(counters::FAILOVERS, 1);
        nebula_obs::gauge_set(counters::EPOCH_GAUGE, epoch);
        Ok(())
    }

    /// The durable history — genesis plus the first `upto` batches (all of
    /// them when there are fewer) — replayed into an unsharded engine.
    fn replay(
        &self,
        upto: usize,
        at: impl FnMut(u64, &AnnotationStore),
    ) -> Result<TwinEngine, ShardError> {
        let log = &self.log[..upto.min(self.log.len())];
        replay_history(&self.genesis, &self.meta, &self.engine_config, log, at)
    }

    /// Rebuild shard `s` from the durable history at watermark `upto`.
    fn rebuild_node(&self, s: usize, epoch: u64, upto: usize) -> Result<ShardNode, ShardError> {
        let twin = self.replay(upto, |_, _| {})?;
        let budget = self.config.serve_budget.clone();
        Ok(build_node(s, epoch, upto as u64, twin, budget, &self.fabric))
    }

    /// Flip bits on shard `s`'s replica (simulated silent corruption);
    /// the next [`ShardCluster::scrub`] detects and repairs it.
    pub fn corrupt_shard(&mut self, s: usize) -> Result<(), ShardError> {
        let mut f = self.lock();
        let node = f.nodes.get_mut(s).and_then(Option::as_mut).ok_or(ShardError::ShardDown(s))?;
        node.store.add_annotation(Annotation {
            text: "\u{0}bit-rot".into(),
            author: None,
            kind: None,
        });
        Ok(())
    }

    /// Anti-entropy scrub: compare every live shard's store digest
    /// against the durable history replayed to that shard's own applied
    /// watermark; rebuild any replica that disagrees. The report counts
    /// the live shards checked; a disagreeing shard is `corrupt`, and
    /// `healed` once rebuilt.
    pub fn scrub(&mut self) -> Result<ScrubReport, ShardError> {
        let watermarks: BTreeSet<u64> = {
            let f = self.lock();
            f.nodes.iter().flatten().filter(|n| !n.failed).map(|n| n.applied_seq).collect()
        };
        // One replay pass over the history, capturing the reference
        // digest at every watermark a live shard sits at.
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        self.replay(self.log.len(), |seq, store| {
            if watermarks.contains(&seq) {
                reference.insert(seq, store.digest());
            }
        })?;
        let mut report = ScrubReport::default();
        let mut checked = 0;
        let shards = self.shards();
        for s in 0..shards {
            let (applied, epoch, digest) = {
                let f = self.lock();
                match f.nodes[s].as_ref() {
                    Some(n) if !n.failed => (n.applied_seq, n.epoch, n.store.digest()),
                    _ => continue,
                }
            };
            checked += 1;
            let expected = reference.get(&applied).copied();
            if expected == Some(digest) {
                continue;
            }
            nebula_obs::counter_add(counters::DIGEST_DIVERGENCES, 1);
            report.flag(
                Artifact::Shard(s),
                format!("digest disagrees with the history at seq {applied}"),
            );
            // Repair at the shard's own watermark and epoch; a lagging
            // shard still catches up through the normal exchange later.
            let node = self.rebuild_node(s, epoch, applied as usize)?;
            self.lock().nodes[s] = Some(node);
            nebula_obs::counter_add(counters::REPAIRS, 1);
            report.healed.push(Artifact::Shard(s));
        }
        report.checked.push(("shards", checked));
        Ok(report)
    }

    /// Each shard's digest slice: the canonical partition slice covering
    /// the annotations it processed, computed from its **own** replica.
    pub fn shard_slices(&self) -> Result<Vec<Vec<u8>>, ShardError> {
        let f = self.lock();
        let shards = f.router.shards();
        let homes = self.homes.clone();
        let assign = move |aid: AnnotationId| homes.get(&aid.0).copied().unwrap_or(0);
        let mut slices = Vec::with_capacity(shards);
        for s in 0..shards {
            let node = f.nodes[s].as_ref().ok_or(ShardError::ShardDown(s))?;
            let mut parts = astore_snapshot::partition(&node.store, shards, &assign);
            slices.push(parts.swap_remove(s));
        }
        Ok(slices)
    }

    /// FNV digests of the per-shard slices (what `SHOW SHARDS` prints).
    pub fn slice_digests(&self) -> Result<Vec<u64>, ShardError> {
        Ok(self.shard_slices()?.iter().map(|b| fnv1a(fnv1a::OFFSET, b)).collect())
    }

    /// Merge the per-shard slices back into one store. With no unhealed
    /// faults this is byte-identical to the unsharded engine's store.
    pub fn merged_store(&self) -> Result<AnnotationStore, ShardError> {
        astore_snapshot::merge(&self.shard_slices()?)
            .map_err(|e| ShardError::Snapshot(e.to_string()))
    }

    /// Canonical checkpoint image of (db, merged store) — the byte string
    /// the keystone invariant compares across shard counts.
    pub fn merged_checkpoint(&self) -> Result<Vec<u8>, ShardError> {
        let store = self.merged_store()?;
        let f = self.lock();
        let node = f.nodes.iter().flatten().next().ok_or(ShardError::ClusterDown)?;
        Ok(checkpoint::encode(0, &node.db, &store))
    }

    /// Rebuild an unsharded reference engine from the durable history.
    pub fn rebuild_twin(&self) -> Result<TwinEngine, ShardError> {
        self.replay(self.log.len(), |_, _| {})
    }

    /// Per-shard health rows for `SHOW SHARDS`.
    pub fn health(&self) -> Vec<ShardHealth> {
        let f = self.lock();
        (0..f.router.shards())
            .map(|s| match f.nodes[s].as_ref() {
                Some(n) => ShardHealth {
                    shard: s,
                    epoch: n.epoch,
                    applied_seq: n.applied_seq,
                    breaker: f.breakers[s].state(),
                    partitioned: f.partitioned[s],
                    failed: n.failed,
                },
                None => ShardHealth {
                    shard: s,
                    epoch: f.epoch,
                    applied_seq: 0,
                    breaker: f.breakers[s].state(),
                    partitioned: f.partitioned[s],
                    failed: true,
                },
            })
            .collect()
    }

    /// Multi-line cluster status for the shell.
    pub fn describe(&self) -> String {
        let f = self.lock();
        let spread = f.router.slots_per_shard();
        let mut out = format!(
            "{} shards, epoch {}, {} batches replicated, slots per shard {:?}\n",
            f.router.shards(),
            f.epoch,
            self.log.len(),
            spread
        );
        drop(f);
        for h in self.health() {
            out.push_str(&format!("  {h}\n"));
        }
        if !self.lagging.is_empty() {
            out.push_str(&format!("  lagging: {:?}\n", self.lagging));
        }
        out
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.lock().router.shards()
    }

    /// Current fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Batches in the durable history.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Shards currently behind the replication head.
    pub fn lagging(&self) -> Vec<usize> {
        self.lagging.iter().copied().collect()
    }

    /// Shards whose acks ever disagreed with the durable history.
    pub fn divergent(&self) -> Vec<usize> {
        self.lock().divergent.iter().copied().collect()
    }

    /// The home-side breaker state for shard `s`.
    pub fn breaker_state(&self, s: usize) -> BreakerState {
        self.lock().breakers[s].state()
    }

    /// Replace shard `s`'s probe-serving budget (its fault domain).
    pub fn set_serve_budget(&mut self, s: usize, budget: ExecutionBudget) {
        if let Some(node) = self.lock().nodes.get_mut(s).and_then(Option::as_mut) {
            node.serve_budget = budget;
        }
    }

    /// A copy of the router (for tests and the shell).
    pub fn router(&self) -> ShardRouter {
        self.lock().router.clone()
    }

    /// Fabric delivery statistics.
    pub fn transport_stats(&self) -> TransportStats {
        self.lock().transport.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_core::SearchMode;
    use nebula_workload::{build_workload, generate_dataset, DatasetSpec, WorkloadSpec};
    use std::cell::RefCell;

    /// The governed clock is process-global: every test here that drives
    /// a cluster runs alone, so one test's ticks never land in another's
    /// reading.
    static CLOCK: Mutex<()> = Mutex::new(());

    thread_local! {
        /// `(role, warm result equals cold)` for every node search while a
        /// test records; `None` when no test does.
        static WARM_CHECKS: RefCell<Option<Vec<(&'static str, bool)>>> =
            const { RefCell::new(None) };
    }

    /// Hits in order, each with its confidence's exact bits.
    fn exact(groups: &[Vec<SearchHit>]) -> Vec<Vec<(TupleId, u64)>> {
        groups
            .iter()
            .map(|g| g.iter().map(|h| (h.tuple, h.confidence.to_bits())).collect())
            .collect()
    }

    /// Called by both node search sites: while a test records, run the
    /// same group on a cold `KeywordSearch` with the same options and note
    /// whether the kept engine's answer equals it.
    pub(super) fn compare_with_cold(
        role: &'static str,
        warm: &KeywordSearch,
        queries: &[KeywordQuery],
        db: &Database,
        mode: ExecutionMode,
        result: &Result<(Vec<Vec<SearchHit>>, SearchStats), SearchError>,
    ) {
        WARM_CHECKS.with(|checks| {
            let mut checks = checks.borrow_mut();
            let Some(checks) = checks.as_mut() else { return };
            let cold = KeywordSearch::new(warm.options().clone()).search_group(queries, db, mode);
            let same = match (result, &cold) {
                (Ok((w, ws)), Ok((c, cs))) => exact(w) == exact(c) && ws == cs,
                (Err(_), Err(_)) => true,
                _ => false,
            };
            checks.push((role, same));
        });
    }

    /// A 2-shard cluster over the tiny dataset on a reliable fabric, and
    /// `n` annotations each focal on its first ideal tuple.
    fn two_shards(n: usize) -> (ShardCluster, Vec<(Annotation, Vec<TupleId>)>) {
        let bundle = generate_dataset(&DatasetSpec::tiny(), 0x5E_AC);
        let workload = build_workload(&bundle, &WorkloadSpec::default(), 21);
        let source: Vec<_> = workload
            .iter()
            .flat_map(|s| &s.annotations)
            .filter(|wa| !wa.ideal.is_empty())
            .collect();
        let items = (0..n)
            .map(|i| {
                let wa = source[i % source.len()];
                (wa.annotation.clone(), vec![wa.ideal[0]])
            })
            .collect();
        // Full search, so stage 2 always scatters (focal spreading stays
        // home-local).
        let engine = NebulaConfig { search_mode: SearchMode::Full, ..NebulaConfig::default() };
        let cluster = ShardCluster::new(
            &bundle.db,
            &bundle.annotations,
            &bundle.meta,
            &engine,
            ShardConfig::new(2),
        )
        .expect("cluster boots");
        (cluster, items)
    }

    #[test]
    fn the_clock_ticks_only_on_rounds_that_wait() {
        let _serial = CLOCK.lock().unwrap_or_else(|e| e.into_inner());
        clock::set_virtual(true);
        clock::reset_virtual();

        // Reliable fabric: every reply and ack lands in the first pump.
        let (mut cluster, items) = two_shards(12);
        let before = cluster.transport_stats().delivered;
        for (annotation, focal) in &items {
            let outcome = cluster.ingest(annotation, focal).expect("ingest");
            assert!(outcome.degradations.is_empty(), "{:?}", outcome.degradations);
        }
        assert!(cluster.transport_stats().delivered > before + 2 * items.len() as u64);
        assert_eq!(clock::virtual_ns(), 0, "a clean fabric never waits");

        // Cut shard 1: the next annotation homes on shard 0, waits out
        // the scatter deadline and the exchange's retry rounds, and ticks
        // once before every round but the first of each.
        cluster.partition_shard(1);
        let (annotation, focal) = &items[0];
        let outcome = cluster.ingest(annotation, focal).expect("ingest");
        assert!(outcome.degradations.contains(&Degradation::PartialShards {
            answered: 1,
            total: 2,
            missing: vec![1],
        }));
        assert_eq!(cluster.lagging(), vec![1]);
        let ticks = u64::from(DEADLINE_ROUNDS - 1 + REPLICATE_ROUNDS - 1);
        assert_eq!(clock::virtual_ns(), ticks * TICK.as_nanos() as u64);

        cluster.heal_shard(1);
        assert!(cluster.lagging().is_empty());
        clock::reset_virtual();
        clock::set_virtual(false);
    }

    #[test]
    fn every_node_search_equals_a_cold_one() {
        let _serial = CLOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (mut cluster, items) = two_shards(40);
        WARM_CHECKS.with(|c| *c.borrow_mut() = Some(Vec::new()));
        for (annotation, focal) in &items {
            cluster.ingest(annotation, focal).expect("ingest");
        }
        let checks = WARM_CHECKS.with(|c| c.borrow_mut().take()).expect("recording");
        for role in ["home", "probe"] {
            let of_role: Vec<bool> =
                checks.iter().filter(|(r, _)| *r == role).map(|&(_, same)| same).collect();
            assert!(of_role.len() >= items.len() / 2, "{role}: only {} searches", of_role.len());
            assert!(
                of_role.iter().all(|&same| same),
                "a warm {role} search differs from a cold one"
            );
        }
    }

    /// Acks carry this digest between shards; a build that computed it
    /// differently would read every healthy peer as diverged.
    #[test]
    fn store_digest_of_a_fixed_store_is_pinned() {
        let mut store = AnnotationStore::new();
        let a = store.add_annotation(Annotation::new("heat-shock note").by("Bob"));
        let tuple = TupleId::new(relstore::schema::TableId(1), 7);
        store.attach(a, annostore::AttachmentTarget::tuple(tuple)).expect("attach");
        assert_eq!(store.digest(), 0xe549_2aa7_53fc_7afa);
    }

    #[test]
    fn batch_encoding_roundtrips_through_read_wal() {
        let ops = [
            WalOp::AddAnnotation {
                expected: AnnotationId(0),
                text: "check patient".into(),
                author: Some("alice".into()),
                kind: None,
            },
            WalOp::AttachTuple {
                annotation: AnnotationId(0),
                tuple: TupleId::new(relstore::schema::TableId(1), 7),
            },
        ];
        let mut bytes = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            bytes.extend_from_slice(&encode_record((i + 1) as u64, op));
        }
        let (records, tail) = read_wal(&bytes);
        assert!(tail.is_clean());
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].op, ops[0]);
        assert_eq!(records[1].op, ops[1]);
    }
}
