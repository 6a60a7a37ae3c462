//! Per-layer measurements: program-reported counters and span trees from
//! the traced rounds, and replays of single layers from outside (the four
//! stages, index probes, WAL appends, replicated records, recovery,
//! backup) over the same inputs the rounds use.

use crate::scratch::{discard, Scratch};
use crate::stats::median;
use crate::workloads::{cluster_config, Env, REPLICAS};
use annostore::AnnotationStore;
use nebula_core::sigmap::{generate_concept_map, generate_value_map, overlay};
use nebula_core::{
    context_based_adjustment, identify_related_tuples, split_annotation, Mutation, MutationSink,
    SinkError,
};
use nebula_durable::{recover, Durability, DurabilityOptions, SyncPolicy, WalOp};
use nebula_obs::trace::Trace;
use nebula_obs::TelemetrySnapshot;
use nebula_replica::{Cluster, SimTransport};
use relstore::Database;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counters, histograms and span-tree self times accumulated over the
/// traced rounds (snapshot diffs taken tightly around each round's timed
/// part, so set-up and checking never leak in).
#[derive(Debug, Default)]
pub struct Counters {
    counters: BTreeMap<String, u64>,
    /// name → (count, sum_ns)
    histograms: BTreeMap<String, (u64, u64)>,
    /// span label → self time on the commit path
    segments: BTreeMap<&'static str, u64>,
    /// sum of the traced annotations' end-to-end durations
    trace_total_ns: u64,
}

impl Counters {
    pub fn absorb(&mut self, diff: &TelemetrySnapshot, traces: &[Trace]) {
        for (name, value) in &diff.counters {
            *self.counters.entry(name.clone()).or_default() += value;
        }
        for (name, h) in &diff.histograms {
            let slot = self.histograms.entry(name.clone()).or_default();
            *slot = (slot.0 + h.count, slot.1 + h.sum_ns);
        }
        let attribution = nebula_obs::trace::attribution(traces);
        self.trace_total_ns += attribution.total_ns;
        for (label, ns) in attribution.segments {
            *self.segments.entry(label).or_default() += ns;
        }
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Mean of a program-reported span histogram, in microseconds.
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.histograms.get(name) {
            Some(&(count, sum_ns)) if count > 0 => sum_ns as f64 / count as f64 / 1e3,
            _ => 0.0,
        }
    }

    /// Share of the traced commit path spent in spans whose label starts
    /// with `prefix` (self time, so nested spans are not counted twice).
    pub fn share(&self, prefix: &str) -> f64 {
        if self.trace_total_ns == 0 {
            return 0.0;
        }
        let ns: u64 =
            self.segments.iter().filter(|(l, _)| l.starts_with(prefix)).map(|(_, ns)| ns).sum();
        ns as f64 / self.trace_total_ns as f64
    }
}

/// Replay the four stages of Figure 16 from outside, over the round's
/// annotations against the initial state, and return the mean cost per
/// annotation in microseconds: signature maps, overlay + context
/// adjustment, query formation, execution.
pub fn stage_replay(env: &Env) -> [f64; 4] {
    let (db, meta, config) = (env.db(), &env.inputs.bundle.meta, &env.config);
    let engine = env.engine();
    let search = engine.search_engine(db);
    let mut total = [0.0f64; 4];
    for item in env.items() {
        let t0 = Instant::now();
        let words = split_annotation(&item.annotation.text);
        let concepts = generate_concept_map(db, meta, &words, config.querygen.epsilon);
        let values = generate_value_map(db, meta, &words, config.querygen.epsilon);
        let t1 = Instant::now();
        let mut map = overlay(&words, concepts, values);
        context_based_adjustment(&mut map, &config.querygen.adjust);
        let t2 = Instant::now();
        let queries =
            nebula_core::querygen::concept_map_to_queries(db, meta, &map, &config.querygen);
        let t3 = Instant::now();
        let found = identify_related_tuples(
            db,
            &search,
            &queries,
            &item.focal,
            Some(engine.acg()),
            &config.execution,
        );
        let t4 = Instant::now();
        std::hint::black_box(found.map(|(candidates, _)| candidates.len()).unwrap_or(0));
        for (slot, (a, b)) in total.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4)]) {
            *slot += (b - a).as_secs_f64() * 1e6;
        }
    }
    total.map(|us| us / env.items().len().max(1) as f64)
}

/// Probe the inverted index and the row store directly with the stream's
/// own tokens and tuples: `(ns per lookup, postings per lookup, ns per get)`.
pub fn index_probe(env: &Env) -> (f64, f64, f64) {
    let db = env.db();
    let tokens: Vec<String> =
        env.items().iter().flat_map(|i| relstore::index::tokenize(&i.annotation.text)).collect();
    let t0 = Instant::now();
    let postings: usize = tokens.iter().map(|t| db.inverted_index().lookup(t).len()).sum();
    let lookup_ns = t0.elapsed().as_nanos() as f64 / tokens.len().max(1) as f64;
    let tuples: Vec<_> = env.items().iter().flat_map(|i| i.ideal.iter().copied()).collect();
    let t0 = Instant::now();
    let live = tuples.iter().filter(|&&t| std::hint::black_box(db.get(t)).is_some()).count();
    let get_ns = t0.elapsed().as_nanos() as f64 / tuples.len().max(1) as f64;
    std::hint::black_box(live);
    (lookup_ns, postings as f64 / tokens.len().max(1) as f64, get_ns)
}

/// Time to rebuild the database in RAM from its snapshot: the index-build
/// share of the paged load, without the page layer.
pub fn ram_load_s(db: &Database) -> f64 {
    let bytes = relstore::snapshot::save(db);
    let t0 = Instant::now();
    let loaded = relstore::snapshot::load(&bytes);
    let s = t0.elapsed().as_secs_f64();
    std::hint::black_box(loaded.is_ok());
    s
}

/// A sink that keeps every mutation as the WAL operation it would become.
#[derive(Debug)]
struct CaptureSink(Arc<Mutex<Vec<WalOp>>>);

impl MutationSink for CaptureSink {
    fn record(&mut self, mutation: &Mutation<'_>) -> Result<u64, SinkError> {
        let mut ops = self.0.lock().map_err(|_| SinkError("capture buffer poisoned".into()))?;
        ops.push(WalOp::from_mutation(mutation));
        Ok(ops.len() as u64)
    }

    fn checkpoint(&mut self, _: &Database, _: &AnnotationStore) -> Result<u64, SinkError> {
        Ok(0)
    }
}

/// The WAL operations one round commits, captured from a reference pass.
pub fn capture_ops(env: &Env) -> Vec<WalOp> {
    let ops = Arc::new(Mutex::new(Vec::new()));
    env.reference(Some(Box::new(CaptureSink(ops.clone()))));
    let mut guard = ops.lock().expect("the reference pass does not panic");
    std::mem::take(&mut *guard)
}

/// Fsync per record, no checkpoints: the WAL the replays isolate.
const FSYNC_EACH: DurabilityOptions =
    DurabilityOptions { sync: SyncPolicy::EveryRecord, checkpoint_every: None };

/// WAL append, archive, bundle and restore, isolated from the pipeline.
#[derive(Debug, Default, Clone, Copy)]
pub struct AppendReplay {
    pub append_us: f64,
    pub bundle_ms: f64,
    pub restore_ms: f64,
}

/// Replay captured operations into a fresh `Durability::append` (one fsync
/// each), seal them into an archive with a final checkpoint of the
/// reference state, then bundle the archive and restore the bundle. The
/// restored state must equal the reference state byte for byte.
pub fn append_replay(
    env: &Env,
    scratch: &Scratch,
    ops: &[WalOp],
    reference_state: &[u8],
    reference_store: &AnnotationStore,
) -> Result<AppendReplay, String> {
    let db = &env.inputs.bundle.db;
    let (wal_dir, archive_dir, bundle_dir) =
        (scratch.fresh("replay-wal"), scratch.fresh("archive"), scratch.fresh("bundle"));
    let mut wal = Durability::begin(&wal_dir, db, &env.inputs.bundle.annotations, FSYNC_EACH)
        .map_err(|e| e.to_string())?;
    wal.set_archive(&archive_dir, 1).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    for op in ops {
        wal.append(op).map_err(|e| e.to_string())?;
    }
    let append_us = t0.elapsed().as_secs_f64() * 1e6 / ops.len().max(1) as f64;
    wal.checkpoint(db, reference_store).map_err(|e| e.to_string())?;
    drop(wal);

    let spec = nebula_backup::BundleSpec {
        archive_dir: archive_dir.clone(),
        bundle_dir: bundle_dir.clone(),
        pages: None,
        created_seq: 1,
    };
    let t0 = Instant::now();
    nebula_backup::create_bundle(&spec).map_err(|e| e.to_string())?;
    let bundle_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let restored = nebula_backup::restore(&bundle_dir, None).map_err(|e| e.to_string())?;
    let restore_ms = t0.elapsed().as_secs_f64() * 1e3;
    let state = nebula_durable::checkpoint::encode(0, &restored.db, &restored.store);
    for dir in [&wal_dir, &archive_dir, &bundle_dir] {
        discard(dir);
    }
    if state != reference_state {
        return Err("the restored bundle differs from the reference state".into());
    }
    Ok(AppendReplay { append_us, bundle_ms, restore_ms })
}

/// Replay captured operations through a fresh cluster's `Cluster::record`
/// (append, ship, ack, quorum wait, digests) and return the mean cost per
/// record in microseconds.
pub fn record_replay(env: &Env, scratch: &Scratch, ops: &[WalOp]) -> Result<f64, String> {
    let dir = scratch.fresh("replay-cluster");
    let bundle = &env.inputs.bundle;
    let transport = Box::new(SimTransport::reliable(REPLICAS + 1));
    let mut cluster =
        Cluster::new(&dir, &bundle.db, &bundle.annotations, REPLICAS, transport, cluster_config())
            .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    for op in ops {
        cluster.record(op).map_err(|e| e.to_string())?;
    }
    let record_us = t0.elapsed().as_secs_f64() * 1e6 / ops.len().max(1) as f64;
    drop(cluster);
    discard(&dir);
    Ok(record_us)
}

/// Throughput of sequential `process_batch` calls of `chunk` annotations
/// into a plain single-node WAL with `options`: what the ingest pool and
/// the replicated cluster are each compared against.
pub fn wal_batch_throughput(
    env: &Env,
    scratch: &Scratch,
    chunk: usize,
    options: DurabilityOptions,
) -> Result<f64, String> {
    let db = &env.inputs.bundle.db;
    let dir = scratch.fresh("seq-wal");
    let mut store = env.inputs.fresh_store();
    let mut engine = env.engine();
    let wal = Durability::begin(&dir, db, &store, options).map_err(|e| e.to_string())?;
    engine.set_mutation_sink(Some(Box::new(wal)));
    let (mut wall_s, mut committed) = (0.0, 0usize);
    for batch in env.pairs.chunks(chunk) {
        let t0 = Instant::now();
        let report = engine.process_batch(db, &mut store, batch);
        wall_s += t0.elapsed().as_secs_f64();
        committed += report.entries.iter().filter(|e| e.outcome.is_some()).count();
    }
    drop(engine.take_mutation_sink());
    discard(&dir);
    Ok(committed as f64 / wall_s.max(1e-9))
}

/// Recover a round's log directory `times` times:
/// `(median ms, records replayed, recovered state)`.
pub fn recover_timed(dir: &std::path::Path, times: usize) -> Result<(f64, usize, Vec<u8>), String> {
    let mut ms = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let t0 = Instant::now();
        let recovered = recover(dir).map_err(|e| e.to_string())?;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(recovered);
    }
    let recovered = last.expect("recovered at least once");
    let state = nebula_durable::checkpoint::encode(0, &recovered.db, &recovered.store);
    Ok((median(&ms), recovered.replayed, state))
}
