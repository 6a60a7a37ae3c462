//! The six workloads: what each sets up, how one round drives the program
//! through its public API, and the state a round leaves behind.
//!
//! Every round starts from a fresh engine, store and (where the workload
//! has one) log directory or cluster over the *same* inputs, so work
//! counts repeat exactly from round to round and the committed state of
//! every round can be compared byte for byte with the reference engine.

use crate::inputs::{Inputs, Item, Scale};
use crate::scratch::{discard, Scratch};
use crate::tracer::Tracer;
use annostore::{Annotation, AnnotationStore};
use nebula_core::{
    assess_predictions, AssessmentReport, CommitRule, MutationSink, Nebula, NebulaConfig,
    ProcessOutcome, SearchMode, VerificationBounds,
};
use nebula_durable::{checkpoint, Durability, DurabilityOptions, SyncPolicy};
use nebula_ingest::{ingest_batch, IngestConfig, IngestItem};
use nebula_pagestore::PagedStorage;
use nebula_replica::{Cluster, ClusterConfig, ClusterSink, SimTransport};
use nebula_shard::{ShardCluster, ShardConfig};
use relstore::{Database, TupleId};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Annotations offered to the ingest pool at once.
pub const BURST: usize = 64;
/// Annotations per `process_batch` call on the replicated path.
pub const CHUNK: usize = 9;
/// Replicas behind the primary; two of them must acknowledge a record.
pub const REPLICAS: usize = 3;
pub const QUORUM: usize = 2;
/// Shards of the sharded cluster.
pub const SHARDS: usize = 2;
/// WAL records between checkpoints on the durable path (a round commits
/// about 3 800 records, so one or two checkpoints fall into it).
pub const CHECKPOINT_EVERY: usize = 2048;
/// Buffer-pool frames: more than any page file here, so nothing is evicted.
pub const FIT_FRAMES: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RamSeq,
    PagedFit,
    PagedChurn,
    DurablePool,
    Replicated,
    Sharded,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::RamSeq,
        Workload::PagedFit,
        Workload::PagedChurn,
        Workload::DurablePool,
        Workload::Replicated,
        Workload::Sharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RamSeq => "ram-seq",
            Workload::PagedFit => "paged-fit",
            Workload::PagedChurn => "paged-churn",
            Workload::DurablePool => "durable-pool",
            Workload::Replicated => "replicated",
            Workload::Sharded => "sharded",
        }
    }

    /// One line on why the workload exists (mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::RamSeq => {
                "D_large in RAM, sequential, no sink: the paper's own path; core, textsearch and \
                 the relstore index do all the work, every other layer none"
            }
            Workload::PagedFit => {
                "D_small on the paged backend with a pool larger than the file: zero misses, so \
                 it isolates posting-decode and pool-hit cost against the RAM reference"
            }
            Workload::PagedChurn => {
                "same as paged-fit with a pool of three quarters of the file: it holds the hot \
                 posting lists and the clock hand evicts the cold tail, so data exceeds the cache \
                 but the hot set does not thrash"
            }
            Workload::DurablePool => {
                "D_small in 64-item bursts through the ingest worker pool into a WAL fsynced per \
                 burst with periodic checkpoints: turn gate, WAL append and checkpoint dominate"
            }
            Workload::Replicated => {
                "D_tiny through a 3-replica cluster under ack-quorum(2): ship, ack, quorum and \
                 per-record state digests do nearly all the work, search almost none"
            }
            Workload::Sharded => {
                "D_small through a 2-shard cluster on a clean fabric: scatter-gather probes, the \
                 apply exchange and governed-clock ticks dominate"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Dataset scale and annotations per round. Counts are fixed (and
    /// multiples of nine, so every round has the same cell mix): work
    /// counts and digests then compare across commits. `smoke` shrinks
    /// everything to the tiny dataset for a seconds-long self-check.
    pub fn shape(self, smoke: bool) -> (Scale, usize) {
        if smoke {
            return (Scale::Tiny, 18);
        }
        match self {
            Workload::RamSeq => (Scale::Large, 306),
            Workload::PagedFit | Workload::PagedChurn => (Scale::Small, 207),
            Workload::DurablePool => (Scale::Small, 306),
            Workload::Replicated => (Scale::Tiny, 108),
            Workload::Sharded => (Scale::Small, 153),
        }
    }

    /// Buffer-pool frames, for the paged workloads.
    pub fn pool_frames(self, smoke: bool) -> Option<usize> {
        match self {
            Workload::PagedFit => Some(FIT_FRAMES),
            // Three quarters of the page file (about 333 pages for D_small, 24
            // for the tiny dataset): the hot posting lists stay resident and
            // the cold tail cycles through the clock hand, 18 to 35 misses an
            // annotation depending on the layout the seed produces. A pool
            // under the hot set (32-192 frames were tried) thrashes: long
            // posting lists flood it, misses per annotation then swing by a
            // factor of two between dataset seeds (throughput by 40 %), and
            // set-up takes seconds because nearly every insert evicts.
            Workload::PagedChurn => Some(if smoke { 3 } else { 256 }),
            _ => None,
        }
    }
}

/// Ingest workers: `min(nproc, 4)`.
pub fn workers() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The settings a result depends on, for the header of every report.
pub fn config_line(smoke: bool) -> String {
    format!(
        "nproc {} | ingest workers {} in bursts of {BURST} | pool wal fsync per burst, checkpoint \
         every {CHECKPOINT_EVERY} records | cluster wal fsync per chunk | pool frames fit \
         {FIT_FRAMES} churn {} | replicated chunks of {CHUNK}",
        nproc(),
        workers(),
        Workload::PagedChurn.pool_frames(smoke).unwrap_or(0),
    )
}

/// The engine configuration every workload and the reference share: the
/// evaluation's bounds, full-database search, no budget, no fault plan.
pub fn engine_config() -> NebulaConfig {
    NebulaConfig {
        bounds: VerificationBounds::new(0.4, 0.85),
        search_mode: SearchMode::Full,
        ..Default::default()
    }
}

/// The durable path's WAL: group commit (one fsync when a burst ends) and
/// periodic checkpoints. Fsync per record would make the workload a
/// benchmark of this machine's disk: sixteen fsyncs an annotation are ~70 %
/// of the commit, and their latency drifts by +-15 % between runs minutes
/// apart. `durable.append_us` still measures append + fsync per record.
pub fn pool_wal_options() -> DurabilityOptions {
    DurabilityOptions { sync: SyncPolicy::Batch, checkpoint_every: Some(CHECKPOINT_EVERY) }
}

/// Three replicas, two acknowledgements, the primary's WAL fsynced when a
/// chunk ends. Nine fsyncs an annotation are 7 % of a replicated commit
/// while this machine's disk answers in 0.2 ms and 40 % when it takes 1 ms,
/// which it does for minutes at a time (23 to 37 annotations/s within one
/// set of ten runs): per record, the workload would measure the disk and
/// not the `replica` layer.
pub fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        rule: CommitRule::Quorum(QUORUM),
        options: DurabilityOptions { sync: SyncPolicy::Batch, checkpoint_every: None },
        ..ClusterConfig::default()
    }
}

/// Where set-up time went, by layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupBreakdown {
    pub generate_s: f64,
    pub page_load_s: f64,
    pub page_flush_ms: f64,
    pub file_pages: u32,
    pub write_backs: u64,
}

/// The database rehydrated onto the paged backend.
#[derive(Debug)]
struct Paged {
    storage: PagedStorage,
    db: Database,
    dir: PathBuf,
}

impl Drop for Paged {
    fn drop(&mut self) {
        discard(&self.dir);
    }
}

/// Buffer-pool activity over one round.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolDelta {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// A workload's environment: inputs plus whatever outlives a round.
#[derive(Debug)]
pub struct Env {
    pub workload: Workload,
    pub inputs: Inputs,
    pub config: NebulaConfig,
    pub breakdown: SetupBreakdown,
    paged: Option<Paged>,
    bursts: Vec<IngestItem>,
    pub pairs: Vec<(Annotation, Vec<TupleId>)>,
}

/// Everything one round owns: built untimed by [`Env::prepare`], driven by
/// [`Env::run`], torn down and checked by [`Env::finish`].
#[derive(Debug)]
pub struct Prepared {
    engine: Nebula,
    store: AnnotationStore,
    /// WAL or cluster directory, when the workload has one.
    pub dir: Option<PathBuf>,
    cluster: Option<ClusterSink>,
    shards: Option<ShardCluster>,
}

/// The timed part of a round.
#[derive(Debug, Default)]
pub struct Timed {
    pub wall_s: f64,
    /// One latency per committed annotation.
    pub latencies_ns: Vec<u64>,
    /// One slot per offered annotation; `None` when it was shed,
    /// quarantined or returned an error.
    pub outcomes: Vec<Option<ProcessOutcome>>,
    pub pool: PoolDelta,
    pub queue_depth_peak: usize,
    /// The first error seen, for the failure message.
    pub first_error: Option<String>,
}

impl Timed {
    pub fn throughput(&self) -> f64 {
        self.outcomes.iter().flatten().count() as f64 / self.wall_s.max(1e-9)
    }

    /// Annotations that did not commit cleanly: errors, quarantines, sheds
    /// and typed degradations.
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.as_ref().is_none_or(|o| !o.degradations.is_empty()))
            .count()
    }

    fn push(&mut self, result: Result<ProcessOutcome, String>) {
        match result {
            Ok(outcome) => self.outcomes.push(Some(outcome)),
            Err(e) => {
                self.first_error.get_or_insert(e);
                self.outcomes.push(None);
            }
        }
    }
}

/// What a finished round left behind.
#[derive(Debug)]
pub struct Finished {
    /// `checkpoint::encode(0, db, store)` of the committed state.
    pub state: Vec<u8>,
    /// The round's log directory, for the caller to recover or discard.
    pub dir: Option<PathBuf>,
    /// Workload-specific invariants that did not hold.
    pub problems: Vec<String>,
}

impl Env {
    /// Generate the inputs and load the backend. For the paged workloads
    /// this is the write side of the same index and page layers the rounds
    /// read, so a read-side win paid for at load time shows in `setup_s`.
    pub fn setup(
        workload: Workload,
        smoke: bool,
        seed: u64,
        scratch: &Scratch,
    ) -> Result<Env, String> {
        let (scale, n) = workload.shape(smoke);
        let inputs = Inputs::generate(scale, seed, n);
        let mut breakdown = SetupBreakdown { generate_s: inputs.generate_s, ..Default::default() };
        let paged = match workload.pool_frames(smoke) {
            None => None,
            Some(frames) => {
                let dir = scratch.fresh("pages");
                std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
                let storage = PagedStorage::open(&dir, frames).map_err(|e| e.to_string())?;
                let bytes = relstore::snapshot::save(&inputs.bundle.db);
                let t0 = Instant::now();
                let db = relstore::snapshot::load_with(&bytes, Some(Arc::new(storage.clone())))
                    .map_err(|e| e.to_string())?;
                breakdown.page_load_s = t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                storage.flush_pages().map_err(|e| e.to_string())?;
                breakdown.page_flush_ms = t0.elapsed().as_secs_f64() * 1e3;
                let m = storage.metrics();
                breakdown.file_pages = m.page_count;
                breakdown.write_backs = m.pool.write_backs;
                Some(Paged { storage, db, dir })
            }
        };
        let pairs: Vec<_> =
            inputs.items.iter().map(|i| (i.annotation.clone(), i.focal.clone())).collect();
        let bursts = pairs.iter().map(|(a, f)| IngestItem::new(a.clone(), f.clone())).collect();
        Ok(Env { workload, inputs, config: engine_config(), breakdown, paged, bursts, pairs })
    }

    /// The database the rounds read: the paged copy when there is one.
    pub fn db(&self) -> &Database {
        self.paged.as_ref().map_or(&self.inputs.bundle.db, |p| &p.db)
    }

    pub fn items(&self) -> &[Item] {
        &self.inputs.items
    }

    /// A fresh engine with the pre-built ACG loaded.
    pub fn engine(&self) -> Nebula {
        let mut engine = Nebula::new(self.config.clone(), self.inputs.bundle.meta.clone());
        *engine.acg_mut() = self.inputs.acg.clone();
        engine
    }

    fn pool_stats(&self) -> PoolDelta {
        self.paged.as_ref().map_or(PoolDelta::default(), |p| {
            let m = p.storage.metrics().pool;
            PoolDelta { hits: m.hits, misses: m.misses, evictions: m.evictions }
        })
    }

    /// Build one round's engine, store and sink or cluster. Untimed, except
    /// that the first call is part of `setup_s`.
    pub fn prepare(&self, scratch: &Scratch) -> Result<Prepared, String> {
        let mut p = Prepared {
            engine: self.engine(),
            store: self.inputs.fresh_store(),
            dir: None,
            cluster: None,
            shards: None,
        };
        let db = &self.inputs.bundle.db;
        match self.workload {
            Workload::RamSeq | Workload::PagedFit | Workload::PagedChurn => {}
            Workload::DurablePool => {
                let dir = scratch.fresh("wal");
                let sink = Durability::begin(&dir, db, &p.store, pool_wal_options())
                    .map_err(|e| e.to_string())?;
                p.engine.set_mutation_sink(Some(Box::new(sink)));
                p.dir = Some(dir);
            }
            Workload::Replicated => {
                let dir = scratch.fresh("cluster");
                let transport = Box::new(SimTransport::reliable(REPLICAS + 1));
                let cluster =
                    Cluster::new(&dir, db, &p.store, REPLICAS, transport, cluster_config())
                        .map_err(|e| e.to_string())?;
                let sink = ClusterSink::new(cluster);
                p.cluster = Some(sink.handle());
                p.engine.set_mutation_sink(Some(Box::new(sink)));
                p.dir = Some(dir);
            }
            Workload::Sharded => {
                let bundle = &self.inputs.bundle;
                let cluster = ShardCluster::new(
                    db,
                    &bundle.annotations,
                    &bundle.meta,
                    &self.config,
                    ShardConfig::new(SHARDS),
                )
                .map_err(|e| e.to_string())?;
                p.shards = Some(cluster);
            }
        }
        Ok(p)
    }

    /// Drive one round: one client, closed loop, each annotation offered
    /// only after the previous call returned.
    pub fn run(&self, p: &mut Prepared, tracer: &mut Tracer) -> Timed {
        let before = self.pool_stats();
        let mut timed = match self.workload {
            Workload::RamSeq | Workload::PagedFit | Workload::PagedChurn => {
                sequential(self.db(), self.items(), &mut p.engine, &mut p.store, tracer)
            }
            Workload::DurablePool => self.run_pool(p, tracer),
            Workload::Replicated => self.run_replicated(p, tracer),
            Workload::Sharded => self.run_sharded(p, tracer),
        };
        let after = self.pool_stats();
        timed.pool = PoolDelta {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
        };
        timed
    }

    /// Bursts through the ingest pool. Latency is the pool's own sojourn
    /// time (admission to commit), which includes the wait behind the
    /// single-writer turn gate.
    fn run_pool(&self, p: &mut Prepared, tracer: &mut Tracer) -> Timed {
        let mut timed = Timed::default();
        for (b, burst) in self.bursts.chunks(BURST).enumerate() {
            let config = IngestConfig::deterministic(workers(), burst.len());
            tracer.open("ingest.ingest_batch", Some(b * BURST));
            let t0 = Instant::now();
            let report = ingest_batch(&mut p.engine, self.db(), &mut p.store, burst, &config);
            timed.wall_s += t0.elapsed().as_secs_f64();
            tracer.close();
            timed.latencies_ns.extend(&report.latencies_ns);
            timed.queue_depth_peak = timed.queue_depth_peak.max(report.queue_depth_peak);
            if let Some(shed) = report.sheds.first() {
                timed.first_error.get_or_insert(format!("shed: {:?}", shed.reason));
            }
            let mut slots: Vec<Option<ProcessOutcome>> = vec![None; burst.len()];
            for entry in report.batch.entries {
                if let Some(why) = &entry.quarantine {
                    timed.first_error.get_or_insert(format!("quarantined: {why}"));
                }
                slots[entry.index] = entry.outcome;
            }
            timed.outcomes.extend(slots);
        }
        timed
    }

    /// Sequential `process_batch` chunks through the cluster sink. The
    /// call returns per chunk, so per-annotation latency is the program's
    /// own `core.process_annotation` event for each annotation.
    fn run_replicated(&self, p: &mut Prepared, tracer: &mut Tracer) -> Timed {
        let mut timed = Timed::default();
        for (c, chunk) in self.pairs.chunks(CHUNK).enumerate() {
            tracer.open("core.process_batch", Some(c * CHUNK));
            let t0 = Instant::now();
            let report = p.engine.process_batch(self.db(), &mut p.store, chunk);
            timed.wall_s += t0.elapsed().as_secs_f64();
            tracer.close();
            let committed = report.entries.iter().filter(|e| e.outcome.is_some()).count();
            let events = nebula_obs::snapshot().events;
            let durations: Vec<u64> = events
                .iter()
                .filter(|e| e.stage == nebula_obs::names::PIPELINE)
                .map(|e| e.duration_ns)
                .collect();
            timed.latencies_ns.extend(&durations[durations.len().saturating_sub(committed)..]);
            for entry in report.entries {
                let why = entry.quarantine.map(|q| format!("quarantined: {q}"));
                timed.push(entry.outcome.ok_or_else(|| why.unwrap_or_default()));
            }
        }
        timed
    }

    fn run_sharded(&self, p: &mut Prepared, tracer: &mut Tracer) -> Timed {
        let cluster = p.shards.as_mut().expect("prepare booted the shard cluster");
        let mut timed = Timed::default();
        let round = Instant::now();
        for (i, item) in self.items().iter().enumerate() {
            tracer.open("shard.ingest", Some(i));
            let t0 = Instant::now();
            let result = cluster.ingest(&item.annotation, &item.focal);
            let ns = t0.elapsed().as_nanos() as u64;
            tracer.close();
            if result.is_ok() {
                timed.latencies_ns.push(ns);
            }
            timed.push(result.map_err(|e| e.to_string()));
        }
        timed.wall_s = round.elapsed().as_secs_f64();
        timed
    }

    /// Tear a round down and collect its committed state, checking the
    /// invariants only this workload has (replica digests, shard lag).
    pub fn finish(&self, mut p: Prepared) -> Finished {
        let mut problems = Vec::new();
        drop(p.engine.take_mutation_sink());
        let db = self.db();
        let state = if let Some(cluster) = &p.shards {
            if !cluster.lagging().is_empty() {
                problems.push(format!("shards {:?} lag the head", cluster.lagging()));
            }
            cluster.merged_checkpoint().unwrap_or_else(|e| {
                problems.push(format!("merged checkpoint: {e}"));
                Vec::new()
            })
        } else {
            checkpoint::encode(0, db, &p.store)
        };
        if let Some(handle) = &p.cluster {
            let mut cluster = handle.lock();
            // A quorum of two lets the third replica trail by a frame;
            // let the reliable transport drain before comparing.
            let last = cluster.primary().last_lsn();
            for _ in 0..64 {
                if cluster.primary().min_acked() >= last {
                    break;
                }
                cluster.pump(1);
            }
            let shadow = cluster.primary().shadow_digest();
            for r in cluster.replicas() {
                if r.is_wedged() || r.applied() != last || r.digest() != shadow {
                    problems.push(format!("replica {} diverged from the primary", r.id()));
                } else if checkpoint::encode(0, r.db(), r.store()) != state {
                    problems.push(format!("replica {} holds different bytes", r.id()));
                }
            }
            if cluster.lag_exceeded() {
                problems.push("a record exhausted its lag budget".into());
            }
        }
        Finished { state, dir: p.dir.take(), problems }
    }

    /// The reference: an untimed-for-the-record, sequential, in-RAM engine
    /// over the same inputs, with an optional sink. Returns the timed part
    /// (its throughput is the denominator of the `*.tax_vs_*` metrics),
    /// the committed state and the final store.
    pub fn reference(
        &self,
        sink: Option<Box<dyn MutationSink>>,
    ) -> (Timed, Vec<u8>, AnnotationStore) {
        let db = &self.inputs.bundle.db;
        let mut engine = self.engine();
        engine.set_mutation_sink(sink);
        let mut store = self.inputs.fresh_store();
        let timed = sequential(db, self.items(), &mut engine, &mut store, &mut Tracer::new(false));
        drop(engine.take_mutation_sink());
        let state = checkpoint::encode(0, db, &store);
        (timed, state, store)
    }

    /// Definition 7.2 (false-negative ratio, false-positive ratio, expert
    /// tasks) of a round's predictions against the stream's ideal sets,
    /// averaged over its committed annotations.
    pub fn quality(&self, outcomes: &[Option<ProcessOutcome>]) -> AssessmentReport {
        let reports: Vec<AssessmentReport> = self
            .items()
            .iter()
            .zip(outcomes)
            .filter_map(|(item, outcome)| {
                let candidates = &outcome.as_ref()?.candidates;
                Some(
                    assess_predictions(candidates, &self.config.bounds, &item.ideal, &item.focal).1,
                )
            })
            .collect();
        AssessmentReport::average(&reports)
    }
}

/// `Nebula::process_annotation` over `items`, one at a time.
pub fn sequential(
    db: &Database,
    items: &[Item],
    engine: &mut Nebula,
    store: &mut AnnotationStore,
    tracer: &mut Tracer,
) -> Timed {
    let mut timed = Timed::default();
    let round = Instant::now();
    for (i, item) in items.iter().enumerate() {
        tracer.open("core.process_annotation", Some(i));
        let t0 = Instant::now();
        let result = engine.process_annotation(db, store, &item.annotation, &item.focal);
        let ns = t0.elapsed().as_nanos() as u64;
        tracer.close();
        if result.is_ok() {
            timed.latencies_ns.push(ns);
        }
        timed.push(result.map_err(|e| e.to_string()));
    }
    timed.wall_s = round.elapsed().as_secs_f64();
    timed
}
