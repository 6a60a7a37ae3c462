//! The turn-gated single-writer worker pool.
//!
//! N workers pull from the [`AdmissionQueue`], but execution against the
//! shared `Database`/`AnnotationStore` is serialized by a **commit turn
//! gate**: the queue assigns each dequeued item a dense sequence number,
//! and a worker may only touch the engine once the gate reaches its
//! number. The governor's fault context ([`nebula_govern::FaultContext`])
//! migrates to whichever worker holds the turn and back again, so the
//! seeded fault stream is consumed in exactly the sequential order.
//!
//! Why single-writer? Every stage of `process_annotation` reads and
//! writes shared engine state (the ACG, the hop profile, the verification
//! queue, the annotation store) and every mutation must reach the one
//! WAL writer in a deterministic order — PR 3's prefix-consistency
//! guarantee is an ordering guarantee. Serializing commits preserves all
//! of that *by construction*: for a fixed fault seed, the
//! [`BatchReport`] and the recovered on-disk state are byte-identical to
//! the sequential path at any worker count. What concurrency buys here is
//! the overload machinery around the writer — bounded admission, typed
//! shedding, circuit breakers, health tracking — plus dispatch-side work
//! (deadline checks, breaker bookkeeping) happening off the submitter's
//! thread. See DESIGN.md for the longer argument.

use crate::admission::{AdmissionQueue, Priority, Queued, ShedReason, ShedRecord};
use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::counters;
use crate::health::{HealthMachine, HealthSignal, HealthState};
use annostore::{Annotation, AnnotationStore};
use nebula_core::{BatchEntry, BatchReport, BatchStatus, Nebula, NebulaError, QuarantineReason};
use nebula_govern::FaultContext;
use relstore::{Database, TupleId};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One unit of ingest work: an annotation, its focal attachments, and the
/// admission metadata.
#[derive(Debug, Clone)]
pub struct IngestItem {
    /// The annotation to process.
    pub annotation: Annotation,
    /// Its focal attachments.
    pub focal: Vec<TupleId>,
    /// Admission priority class.
    pub priority: Priority,
    /// Dispatch deadline relative to the batch start; an item still queued
    /// past its deadline is shed instead of executed.
    pub deadline: Option<Duration>,
}

impl IngestItem {
    /// A normal-priority item with no deadline.
    pub fn new(annotation: Annotation, focal: Vec<TupleId>) -> IngestItem {
        IngestItem { annotation, focal, priority: Priority::Normal, deadline: None }
    }

    /// Set the priority class.
    pub fn with_priority(mut self, priority: Priority) -> IngestItem {
        self.priority = priority;
        self
    }

    /// Set the dispatch deadline (relative to batch start).
    pub fn with_deadline(mut self, deadline: Duration) -> IngestItem {
        self.deadline = Some(deadline);
        self
    }
}

/// Sliding-window size (recent item outcomes) the health machine judges.
const HEALTH_WINDOW: usize = 64;

/// Worker-pool tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Admission queue capacity (clamped to at least 1). Arrivals beyond
    /// this are shed with [`ShedReason::QueueFull`].
    pub queue_capacity: usize,
    /// Circuit-breaker tuning (shared by the search and WAL breakers).
    pub breaker: BreakerConfig,
    /// WAL breaker trips after which the engine declares itself Wedged.
    pub wedge_after_wal_trips: u32,
    /// Pause between admissions — the arrival-rate knob of the overload
    /// soak. `None` offers the whole batch as one burst. Uses the
    /// governed clock, so a virtual clock makes paced runs instantaneous.
    pub admit_gap: Option<Duration>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            workers: 4,
            queue_capacity: 64,
            breaker: BreakerConfig::default(),
            wedge_after_wal_trips: 3,
            admit_gap: None,
        }
    }
}

impl IngestConfig {
    /// A configuration whose results are byte-identical to the sequential
    /// path for `n`-item batches: capacity covers the whole burst, no
    /// breaker ever sheds, and (with a single priority class and no
    /// deadlines) commit order equals input order.
    pub fn deterministic(workers: usize, n: usize) -> IngestConfig {
        IngestConfig {
            workers,
            queue_capacity: n.max(1),
            breaker: BreakerConfig::disabled(),
            ..IngestConfig::default()
        }
    }
}

/// What came back from a concurrent ingest.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Per-item results for everything that executed, entries in input
    /// order. For a fixed fault seed and a non-shedding configuration this
    /// is byte-identical to `Nebula::process_batch`'s report.
    pub batch: BatchReport,
    /// Everything that was shed, with typed reasons. Disjoint from
    /// `batch`: every input item lands in exactly one of the two.
    pub sheds: Vec<ShedRecord>,
    /// Final health state.
    pub health: HealthState,
    /// Peak admission-queue depth during the run.
    pub queue_depth_peak: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Per-item sojourn times (admission → commit), in commit order.
    /// Wall-clock, hence *not* part of the deterministic surface.
    pub latencies_ns: Vec<u64>,
}

impl IngestReport {
    /// Total items accounted for (executed + shed).
    pub fn total(&self) -> usize {
        self.batch.total() + self.sheds.len()
    }

    /// Fraction of items shed (0 when the batch was empty).
    pub fn shed_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.sheds.len() as f64 / self.total() as f64
        }
    }

    /// p99 sojourn time over executed items (0 when none executed).
    pub fn p99_latency_ns(&self) -> u64 {
        percentile_ns(&self.latencies_ns, 99)
    }
}

/// The `p`-th percentile (nearest-rank) of a latency sample.
pub fn percentile_ns(samples: &[u64], p: u32) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (samples.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Everything the turn-holder mutates, behind one mutex. Only the worker
/// whose sequence number the gate has reached ever locks it (the
/// coordinator takes it briefly to record admission-side sheds).
struct EngineState<'a> {
    nebula: &'a mut Nebula,
    store: &'a mut AnnotationStore,
    fault_ctx: Option<FaultContext>,
    search_breaker: CircuitBreaker,
    wal_breaker: CircuitBreaker,
    repl_breaker: CircuitBreaker,
    health: HealthMachine,
    slots: Vec<Option<BatchEntry>>,
    sheds: Vec<ShedRecord>,
    latencies_ns: Vec<u64>,
}

struct Shared<'a> {
    engine: Mutex<EngineState<'a>>,
    next_commit: Mutex<u64>,
    commit_advanced: Condvar,
}

impl<'a> Shared<'a> {
    fn engine_locked(&self) -> std::sync::MutexGuard<'_, EngineState<'a>> {
        self.engine.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Block until the commit gate reaches `seq`.
    fn wait_turn(&self, seq: u64) {
        let mut next = self.next_commit.lock().unwrap_or_else(|e| e.into_inner());
        while *next != seq {
            next = self.commit_advanced.wait(next).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Release the gate to the next sequence number.
    fn advance_turn(&self) {
        let mut next = self.next_commit.lock().unwrap_or_else(|e| e.into_inner());
        *next += 1;
        drop(next);
        self.commit_advanced.notify_all();
    }
}

/// Run `items` through the engine with bounded admission, N workers, and
/// single-writer turn-gated commits. See the module docs for the
/// determinism argument; the short version is that for a single priority
/// class, no deadlines, and a non-tripping breaker configuration, the
/// returned [`IngestReport::batch`] is byte-identical to
/// `Nebula::process_batch` on the same inputs and fault seed.
pub fn ingest_batch(
    nebula: &mut Nebula,
    db: &Database,
    store: &mut AnnotationStore,
    items: &[IngestItem],
    config: &IngestConfig,
) -> IngestReport {
    let workers = config.workers.max(1);
    nebula_obs::gauge_set(counters::WORKERS_GAUGE, workers as u64);
    let queue = AdmissionQueue::new(config.queue_capacity);
    let start = Instant::now();
    let shared = Shared {
        engine: Mutex::new(EngineState {
            nebula,
            store,
            // The coordinator's fault stream migrates into the pool and
            // back out below, so callers observe the same plan/stats
            // evolution as a sequential run.
            fault_ctx: Some(nebula_govern::take_fault_context()),
            search_breaker: CircuitBreaker::new(config.breaker),
            wal_breaker: CircuitBreaker::new(config.breaker),
            repl_breaker: CircuitBreaker::new(config.breaker),
            health: HealthMachine::new(HEALTH_WINDOW, config.wedge_after_wal_trips),
            slots: vec![None; items.len()],
            sheds: Vec::new(),
            latencies_ns: Vec::new(),
        }),
        next_commit: Mutex::new(0),
        commit_advanced: Condvar::new(),
    };

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| worker_loop(&shared, &queue, db, items));
        }
        // The coordinator is the arrival process: admit in input order,
        // shedding (never blocking) when the bounded queue is full.
        for (index, item) in items.iter().enumerate() {
            if index > 0 {
                if let Some(gap) = config.admit_gap {
                    nebula_govern::clock::sleep(gap);
                }
            }
            let queued = Queued {
                index,
                priority: item.priority,
                deadline: item.deadline.map(|d| start + d),
                admitted_at: Instant::now(),
            };
            match queue.try_admit(queued) {
                Ok(()) => nebula_obs::counter_add(counters::ADMITTED, 1),
                Err(reason) => {
                    let mut state = shared.engine_locked();
                    record_shed(&mut state, ShedRecord { index, priority: item.priority, reason });
                }
            }
        }
        queue.close();
    });

    let state = shared.engine.into_inner().unwrap_or_else(|e| e.into_inner());
    nebula_govern::restore_fault_context(state.fault_ctx.unwrap_or_default());
    state.nebula.flush_batch();
    let mut batch = BatchReport::default();
    for entry in state.slots.into_iter().flatten() {
        batch.push(entry);
    }
    let queue_depth_peak = queue.peak_depth();
    nebula_obs::gauge_set(counters::QUEUE_DEPTH_PEAK_GAUGE, queue_depth_peak as u64);
    IngestReport {
        batch,
        sheds: state.sheds,
        health: state.health.state(),
        queue_depth_peak,
        workers,
        latencies_ns: state.latencies_ns,
    }
}

fn worker_loop(shared: &Shared<'_>, queue: &AdmissionQueue, db: &Database, items: &[IngestItem]) {
    while let Some((seq, queued)) = queue.pop() {
        let turn_started = Instant::now();
        shared.wait_turn(seq);
        let turn_wait_ns = turn_started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        {
            let mut state = shared.engine_locked();
            dispatch(&mut state, db, items, &queued, turn_wait_ns);
        }
        shared.advance_turn();
    }
}

/// Everything that happens during one commit turn: dispatch-time checks
/// (wedged / deadline / breakers), governed execution with the migrated
/// fault context, breaker + health bookkeeping, and the periodic
/// checkpoint — all under the engine lock, in commit order.
fn dispatch(
    state: &mut EngineState<'_>,
    db: &Database,
    items: &[IngestItem],
    queued: &Queued,
    turn_wait_ns: u64,
) {
    let item = &items[queued.index];
    // Open the trace root for this commit attempt. Admission and
    // turn-gate time happened before the builder existed (off-thread), so
    // they attach as explicit-duration wait leaves; the root's duration
    // is extended by the same amounts so it still covers
    // admission → commit. A shed or quarantine abandons the trace (via
    // `record_shed` / the routing at the bottom) — only committed
    // annotations reach the ring.
    if nebula_obs::trace::start("ingest.item") {
        nebula_obs::trace::root_detail(format!("class={:?}", queued.priority));
        let sojourn_so_far = queued.admitted_at.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        nebula_obs::trace::wait(
            "ingest.queue_wait",
            String::new(),
            sojourn_so_far.saturating_sub(turn_wait_ns),
        );
        nebula_obs::trace::wait("ingest.turn_wait", String::new(), turn_wait_ns);
    }
    let shed = if state.health.state() == HealthState::Wedged && !recovery_probe(state) {
        Some(ShedReason::Wedged)
    } else if queued.deadline.is_some_and(|d| Instant::now() >= d) {
        Some(ShedReason::DeadlineExpired)
    } else {
        // All breakers must consent; each open breaker counts the shed
        // toward its own half-open transition, so no short-circuiting.
        let search_ok = state.search_breaker.allows();
        let wal_ok = state.wal_breaker.allows();
        let repl_ok = state.repl_breaker.allows();
        (!(search_ok && wal_ok && repl_ok)).then_some(ShedReason::CircuitOpen)
    };
    if let Some(reason) = shed {
        record_shed(state, ShedRecord { index: queued.index, priority: queued.priority, reason });
        return;
    }

    nebula_govern::restore_fault_context(state.fault_ctx.take().unwrap_or_default());
    let entry = state.nebula.process_contained(
        db,
        state.store,
        queued.index,
        &item.annotation,
        &item.focal,
    );
    state.fault_ctx = Some(nebula_govern::take_fault_context());

    // Breaker + health bookkeeping, still in commit order.
    match &entry.quarantine {
        None => {
            state.search_breaker.record_success();
            state.wal_breaker.record_success();
        }
        Some(QuarantineReason::Error(NebulaError::Durability(_))) => {
            if record_failure(&mut state.wal_breaker, "wal") {
                state.health.note_wal_trip();
            }
        }
        Some(_) => {
            record_failure(&mut state.search_breaker, "search");
        }
    }
    // A replicated sink reports its posture after every record; feed the
    // lag signal into the replication breaker and the health machine.
    let repl_status = state.nebula.mutation_sink_mut().and_then(|sink| sink.replication());
    if let Some(repl) = repl_status {
        if repl.lag_budget_exceeded {
            record_failure(&mut state.repl_breaker, "replication");
        } else {
            state.repl_breaker.record_success();
        }
        state.health.set_replication_lagging(repl.lag_budget_exceeded);
    }
    state.health.set_breaker_not_closed(
        state.search_breaker.state() != BreakerState::Closed
            || state.wal_breaker.state() != BreakerState::Closed
            || state.repl_breaker.state() != BreakerState::Closed,
    );
    let signal = match entry.status {
        BatchStatus::Quarantined => HealthSignal::Failed,
        BatchStatus::Degraded => HealthSignal::Degraded,
        _ => HealthSignal::Clean,
    };
    state.health.observe(signal);

    let sojourn = queued.admitted_at.elapsed();
    nebula_obs::observe_ns(counters::ITEM_SPAN, sojourn.as_nanos().min(u64::MAX as u128) as u64);
    state.latencies_ns.push(sojourn.as_nanos().min(u64::MAX as u128) as u64);
    nebula_obs::counter_add(counters::COMPLETED, 1);
    let committed = entry.status != BatchStatus::Quarantined;
    state.slots[queued.index] = Some(entry);

    // The periodic checkpoint rolls I/O fault sites, so it must run under
    // the migrated fault context — otherwise its draws vanish from the
    // stream and the sequential twin diverges.
    nebula_govern::restore_fault_context(state.fault_ctx.take().unwrap_or_default());
    state.nebula.checkpoint_if_due(db, state.store);
    state.fault_ctx = Some(nebula_govern::take_fault_context());

    // Route the trace: a committed annotation's tree (including any
    // periodic checkpoint spans above) enters the ring; a quarantined
    // item's mutations never applied, so its partial trace is dropped.
    if committed {
        nebula_obs::trace::finish();
    } else {
        nebula_obs::trace::abandon();
    }
}

/// Recovery probe of a Wedged pool: if the WAL breaker has left Open (its
/// cooldown elapsed) and the sink itself reports writable again — e.g. an
/// operator checkpoint or the cluster's scrub rebuilt the log — the wedge is
/// provably stale: lift it to Degraded and let the item run.
fn recovery_probe(state: &mut EngineState<'_>) -> bool {
    let wal_calm = state.wal_breaker.state() != BreakerState::Open;
    let sink_ok = state.nebula.mutation_sink_mut().is_none_or(|sink| sink.healthy());
    wal_calm && sink_ok && state.health.try_recover()
}

/// Count a failure on `breaker`; a failure that trips it leaves a
/// flight-recorder event and returns true.
fn record_failure(breaker: &mut CircuitBreaker, name: &str) -> bool {
    let trips_before = breaker.trips;
    breaker.record_failure();
    let tripped = breaker.trips > trips_before;
    if tripped {
        nebula_obs::trace::flight_event("breaker.trip", format!("{name} trips={}", breaker.trips));
    }
    tripped
}

fn record_shed(state: &mut EngineState<'_>, shed: ShedRecord) {
    // A shed item never commits: drop any trace opened for its dispatch
    // (no-op on the coordinator thread, which never opens one) and leave
    // a flight-recorder event in its place.
    nebula_obs::trace::abandon();
    nebula_obs::trace::flight_event(
        "shed",
        format!("index={} reason={:?}", shed.index, shed.reason),
    );
    nebula_obs::counter_add(counters::SHED, 1);
    let reason_counter = match shed.reason {
        ShedReason::QueueFull => counters::SHED_QUEUE_FULL,
        ShedReason::DeadlineExpired => counters::SHED_DEADLINE,
        ShedReason::CircuitOpen => counters::SHED_CIRCUIT_OPEN,
        ShedReason::Wedged => counters::SHED_WEDGED,
    };
    nebula_obs::counter_add(reason_counter, 1);
    state.health.observe(HealthSignal::Shed);
    state.sheds.push(shed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_core::{ConceptRef, NebulaConfig, NebulaMeta, VerificationBounds};
    use relstore::{DataType, TableSchema, Value};

    fn setup() -> (Database, NebulaMeta, Vec<TupleId>) {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("gene")
                .column("gid", DataType::Text)
                .column("name", DataType::Text)
                .primary_key("gid")
                .build()
                .expect("schema"),
        )
        .expect("create table");
        let mut ids = Vec::new();
        for (gid, name) in [("JW0013", "grpC"), ("JW0014", "groP"), ("JW0019", "yaaB")] {
            ids.push(db.insert("gene", vec![Value::text(gid), Value::text(name)]).expect("insert"));
        }
        let mut meta = NebulaMeta::new();
        meta.add_concept(ConceptRef {
            concept: "Gene".into(),
            table: "gene".into(),
            referenced_by: vec![vec!["gid".into()], vec!["name".into()]],
        });
        (db, meta, ids)
    }

    fn engine(meta: NebulaMeta) -> Nebula {
        let config =
            NebulaConfig { bounds: VerificationBounds::new(0.0, 0.0), ..Default::default() };
        Nebula::new(config, meta)
    }

    fn items(ids: &[TupleId], n: usize) -> Vec<IngestItem> {
        (0..n)
            .map(|i| {
                IngestItem::new(
                    Annotation::new(format!("gene JW001{} observation {i}", i % 10)),
                    vec![ids[i % ids.len()]],
                )
            })
            .collect()
    }

    #[test]
    fn pool_matches_sequential_batch_without_faults() {
        let (db, meta, ids) = setup();
        let batch_items = items(&ids, 12);
        let plain: Vec<(Annotation, Vec<TupleId>)> =
            batch_items.iter().map(|i| (i.annotation.clone(), i.focal.clone())).collect();

        let mut store_seq = AnnotationStore::new();
        let seq = engine(meta.clone()).process_batch(&db, &mut store_seq, &plain);

        for workers in [1, 3] {
            let mut store_pool = AnnotationStore::new();
            let mut nebula = engine(meta.clone());
            let report = ingest_batch(
                &mut nebula,
                &db,
                &mut store_pool,
                &batch_items,
                &IngestConfig::deterministic(workers, batch_items.len()),
            );
            assert!(report.sheds.is_empty());
            assert_eq!(format!("{:?}", report.batch), format!("{seq:?}"), "workers={workers}");
            assert_eq!(report.health, HealthState::Healthy);
            assert_eq!(report.latencies_ns.len(), batch_items.len());
        }
    }

    #[test]
    fn full_queue_sheds_with_typed_reason_and_full_accounting() {
        let (db, meta, ids) = setup();
        let batch_items = items(&ids, 30);
        let mut store = AnnotationStore::new();
        let mut nebula = engine(meta);
        let config = IngestConfig {
            workers: 2,
            queue_capacity: 1,
            breaker: BreakerConfig::disabled(),
            ..IngestConfig::default()
        };
        let report = ingest_batch(&mut nebula, &db, &mut store, &batch_items, &config);
        assert_eq!(report.total(), batch_items.len(), "every item accounted");
        assert!(report.queue_depth_peak <= 1);
        assert!(report.sheds.iter().all(|s| s.reason == ShedReason::QueueFull));
        // Exactly-one-state: no index appears in both batch and sheds.
        let mut seen = vec![false; batch_items.len()];
        for e in &report.batch.entries {
            assert!(!seen[e.index]);
            seen[e.index] = true;
        }
        for s in &report.sheds {
            assert!(!seen[s.index]);
            seen[s.index] = true;
        }
        assert!(seen.iter().all(|&b| b));
        if !report.sheds.is_empty() {
            assert_eq!(report.health, HealthState::Shedding);
        }
    }

    #[test]
    fn expired_deadlines_shed_at_dispatch() {
        let (db, meta, ids) = setup();
        let batch_items: Vec<IngestItem> =
            items(&ids, 6).into_iter().map(|i| i.with_deadline(Duration::ZERO)).collect();
        let mut store = AnnotationStore::new();
        let mut nebula = engine(meta);
        let report = ingest_batch(
            &mut nebula,
            &db,
            &mut store,
            &batch_items,
            &IngestConfig::deterministic(2, batch_items.len()),
        );
        assert_eq!(report.total(), 6);
        assert!(report
            .sheds
            .iter()
            .all(|s| s.reason == ShedReason::DeadlineExpired || s.reason == ShedReason::QueueFull));
        assert_eq!(report.sheds.len(), 6, "zero deadlines expire before any dispatch");
        assert_eq!(report.batch.total(), 0);
    }

    #[test]
    fn priorities_dispatch_interactive_first_with_one_worker() {
        let (db, meta, ids) = setup();
        let mut batch_items = items(&ids, 4);
        batch_items[0].priority = Priority::Background;
        batch_items[1].priority = Priority::Background;
        batch_items[2].priority = Priority::Interactive;
        batch_items[3].priority = Priority::Interactive;
        let mut store = AnnotationStore::new();
        let mut nebula = engine(meta);
        let report = ingest_batch(
            &mut nebula,
            &db,
            &mut store,
            &batch_items,
            &IngestConfig::deterministic(1, batch_items.len()),
        );
        assert_eq!(report.batch.total(), 4);
        // Whatever order the classes committed in, entries are
        // reassembled in input order, so the report surface stays
        // deterministic even for mixed-priority batches.
        let indexes: Vec<usize> = report.batch.entries.iter().map(|e| e.index).collect();
        assert_eq!(indexes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_batch_returns_empty_healthy_report() {
        let (db, meta, _ids) = setup();
        let mut store = AnnotationStore::new();
        let mut nebula = engine(meta);
        let report = ingest_batch(&mut nebula, &db, &mut store, &[], &IngestConfig::default());
        assert_eq!(report.total(), 0);
        assert_eq!(report.shed_rate(), 0.0);
        assert_eq!(report.p99_latency_ns(), 0);
        assert_eq!(report.health, HealthState::Healthy);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile_ns(&[], 99), 0);
        assert_eq!(percentile_ns(&[7], 99), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&v, 50), 50);
        assert_eq!(percentile_ns(&v, 99), 99);
        assert_eq!(percentile_ns(&v, 100), 100);
    }
}
