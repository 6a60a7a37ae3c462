//! The sequential ingest front end.
//!
//! [`ingest_batch`] runs on the caller's thread. It plays the batch's
//! arrival process into a bounded [`AdmissionQueue`], and between
//! arrivals dispatches the highest-priority queued item through the
//! engine: dispatch-time checks (wedged, deadline, breakers), governed
//! `process_contained`, breaker and health bookkeeping, and the periodic
//! checkpoint, one item at a time in commit order.
//!
//! Every stage of `process_annotation` reads and writes shared engine
//! state (the ACG, the hop profile, the verification queue, the
//! annotation store), and every mutation must reach the one WAL writer in
//! a deterministic order: the WAL's prefix-consistency guarantee is an
//! ordering guarantee. Committing one item at a time on the thread that
//! owns the fault plan preserves all of that by construction: for a fixed
//! fault seed, a single priority class, no deadlines and a non-shedding
//! configuration, the [`BatchReport`] and the recovered on-disk state are
//! byte-identical to the sequential path. What the front end adds is the
//! overload machinery around the writer: bounded admission, typed
//! shedding, circuit breakers and health tracking. See DESIGN.md for the
//! longer argument.

use crate::admission::{AdmissionQueue, Priority, Queued, ShedReason, ShedRecord};
use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::counters;
use crate::health::{HealthMachine, HealthSignal, HealthState};
use annostore::{Annotation, AnnotationStore};
use nebula_core::{BatchEntry, BatchReport, BatchStatus, Nebula, NebulaError, QuarantineReason};
use relstore::{Database, TupleId};
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

/// Front-end tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Admission queue capacity (clamped to at least 1). Arrivals beyond
    /// this are shed with [`ShedReason::QueueFull`].
    pub queue_capacity: usize,
    /// Circuit-breaker tuning (shared by the search, WAL and replication
    /// breakers).
    pub breaker: BreakerConfig,
    /// WAL breaker trips after which the engine declares itself Wedged.
    pub wedge_after_wal_trips: u32,
    /// Arrival spacing, the arrival-rate knob of the overload soak: item
    /// `i` is due `i × admit_gap` after the batch starts. `None` offers
    /// the whole batch as one burst. Idle waits for the next arrival use
    /// the governed clock, so a virtual clock makes paced runs
    /// instantaneous.
    pub admit_gap: Option<Duration>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
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
    /// deadlines) commit order equals input order. The first argument is
    /// ignored; it is kept so existing callers still compile.
    pub fn deterministic(_workers: usize, n: usize) -> IngestConfig {
        IngestConfig {
            queue_capacity: n.max(1),
            breaker: BreakerConfig::disabled(),
            ..IngestConfig::default()
        }
    }
}

/// What came back from an ingest batch.
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

/// The front end's state while it drains one batch.
struct Front<'a> {
    /// When the batch started: arrivals and deadlines are relative to it.
    start: Instant,
    queue: AdmissionQueue,
    nebula: &'a mut Nebula,
    store: &'a mut AnnotationStore,
    search_breaker: CircuitBreaker,
    wal_breaker: CircuitBreaker,
    repl_breaker: CircuitBreaker,
    health: HealthMachine,
    slots: Vec<Option<BatchEntry>>,
    sheds: Vec<ShedRecord>,
    latencies_ns: Vec<u64>,
}

/// Run `items` through the engine with bounded admission and typed
/// shedding, committing one item at a time on the caller's thread. See
/// the module docs for the determinism argument; the short version is
/// that for a single priority class, no deadlines, and a non-tripping
/// breaker configuration, the returned [`IngestReport::batch`] is
/// byte-identical to `Nebula::process_batch` on the same inputs and
/// fault seed.
///
/// Arrivals follow one rule: item `i` is due `i × admit_gap` after the
/// batch starts (all at once without a gap). Before each dispatch every
/// due item is admitted, or shed as [`ShedReason::QueueFull`] past
/// capacity; when the queue runs dry, the front end sleeps until the next
/// item is due and admits it. An item's `admitted_at` is its due instant,
/// so its sojourn still measures arrival → commit.
pub fn ingest_batch(
    nebula: &mut Nebula,
    db: &Database,
    store: &mut AnnotationStore,
    items: &[IngestItem],
    config: &IngestConfig,
) -> IngestReport {
    let start = Instant::now();
    let due = |index: usize| match config.admit_gap {
        Some(gap) => start + gap.saturating_mul(u32::try_from(index).unwrap_or(u32::MAX)),
        None => start,
    };
    let mut front = Front {
        start,
        queue: AdmissionQueue::new(config.queue_capacity),
        nebula,
        store,
        search_breaker: CircuitBreaker::new(config.breaker),
        wal_breaker: CircuitBreaker::new(config.breaker),
        repl_breaker: CircuitBreaker::new(config.breaker),
        health: HealthMachine::new(HEALTH_WINDOW, config.wedge_after_wal_trips),
        slots: vec![None; items.len()],
        sheds: Vec::new(),
        latencies_ns: Vec::new(),
    };
    let mut arrived = 0;
    loop {
        let now = Instant::now();
        while arrived < items.len() && due(arrived) <= now {
            front.admit(items, arrived, due(arrived));
            arrived += 1;
        }
        if let Some(queued) = front.queue.pop() {
            front.dispatch(db, &items[queued.index], &queued);
        } else if arrived < items.len() {
            // Idle until the next arrival. It is admitted on its due
            // instant without re-reading the clock, so a virtual clock
            // still makes progress.
            let at = due(arrived);
            nebula_govern::clock::sleep(at.saturating_duration_since(Instant::now()));
            front.admit(items, arrived, at);
            arrived += 1;
        } else {
            break;
        }
    }

    front.nebula.flush_batch();
    let mut batch = BatchReport::default();
    for entry in front.slots.into_iter().flatten() {
        batch.push(entry);
    }
    let queue_depth_peak = front.queue.peak_depth();
    nebula_obs::gauge_set(counters::QUEUE_DEPTH_PEAK_GAUGE, queue_depth_peak as u64);
    IngestReport {
        batch,
        sheds: front.sheds,
        health: front.health.state(),
        queue_depth_peak,
        latencies_ns: front.latencies_ns,
    }
}

impl Front<'_> {
    /// Offer input `index`, arriving at `at`, to the queue; a full queue
    /// sheds it.
    fn admit(&mut self, items: &[IngestItem], index: usize, at: Instant) {
        let item = &items[index];
        let queued = Queued {
            index,
            priority: item.priority,
            deadline: item.deadline.map(|d| self.start + d),
            admitted_at: at,
        };
        match self.queue.try_admit(queued) {
            Ok(()) => nebula_obs::counter_add(counters::ADMITTED, 1),
            Err(reason) => self.record_shed(ShedRecord { index, priority: item.priority, reason }),
        }
    }

    /// One commit: dispatch-time checks (wedged / deadline / breakers),
    /// governed execution, breaker + health bookkeeping, and the periodic
    /// checkpoint, in commit order.
    fn dispatch(&mut self, db: &Database, item: &IngestItem, queued: &Queued) {
        // Open the trace root for this commit attempt. The queue wait
        // happened before the builder existed, so it attaches as an
        // explicit-duration wait leaf that also extends the root. A shed or
        // quarantine abandons the trace (via `record_shed` / the routing
        // at the bottom) — only committed annotations reach the ring.
        if nebula_obs::trace::start("ingest.item", || format!("class={:?}", queued.priority)) {
            let queue_wait = queued.admitted_at.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            nebula_obs::trace::wait("ingest.queue_wait", queue_wait);
        }
        let shed = if self.health.state() == HealthState::Wedged && !self.recovery_probe() {
            Some(ShedReason::Wedged)
        } else if queued.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(ShedReason::DeadlineExpired)
        } else {
            // All breakers must consent; each open breaker counts the shed
            // toward its own half-open transition, so no short-circuiting.
            let search_ok = self.search_breaker.allows();
            let wal_ok = self.wal_breaker.allows();
            let repl_ok = self.repl_breaker.allows();
            (!(search_ok && wal_ok && repl_ok)).then_some(ShedReason::CircuitOpen)
        };
        if let Some(reason) = shed {
            self.record_shed(ShedRecord { index: queued.index, priority: queued.priority, reason });
            return;
        }

        let entry = self.nebula.process_contained(
            db,
            self.store,
            queued.index,
            &item.annotation,
            &item.focal,
        );

        // Breaker + health bookkeeping, still in commit order.
        match &entry.quarantine {
            None => {
                self.search_breaker.record_success();
                self.wal_breaker.record_success();
            }
            Some(QuarantineReason::Error(NebulaError::Durability(_))) => {
                if record_failure(&mut self.wal_breaker, "wal") {
                    self.health.note_wal_trip();
                }
            }
            Some(_) => {
                record_failure(&mut self.search_breaker, "search");
            }
        }
        // A replicated sink reports its posture after every record; feed the
        // lag signal into the replication breaker and the health machine.
        let repl_status = self.nebula.mutation_sink_mut().and_then(|sink| sink.replication());
        if let Some(repl) = repl_status {
            if repl.lag_budget_exceeded {
                record_failure(&mut self.repl_breaker, "replication");
            } else {
                self.repl_breaker.record_success();
            }
            self.health.set_replication_lagging(repl.lag_budget_exceeded);
        }
        self.health.set_breaker_not_closed(
            self.search_breaker.state() != BreakerState::Closed
                || self.wal_breaker.state() != BreakerState::Closed
                || self.repl_breaker.state() != BreakerState::Closed,
        );
        let signal = match entry.status {
            BatchStatus::Quarantined => HealthSignal::Failed,
            BatchStatus::Degraded => HealthSignal::Degraded,
            _ => HealthSignal::Clean,
        };
        self.health.observe(signal);

        let sojourn = queued.admitted_at.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        nebula_obs::observe_ns(counters::ITEM_SPAN, sojourn);
        self.latencies_ns.push(sojourn);
        nebula_obs::counter_add(counters::COMPLETED, 1);
        let committed = entry.status != BatchStatus::Quarantined;
        self.slots[queued.index] = Some(entry);

        self.nebula.checkpoint_if_due(db, self.store);

        // Route the trace: a committed annotation's tree (including any
        // periodic checkpoint spans above) enters the ring; a quarantined
        // item's mutations never applied, so its partial trace is dropped.
        if committed {
            nebula_obs::trace::finish();
        } else {
            nebula_obs::trace::abandon();
        }
    }

    /// Recovery probe of a Wedged front end: if the WAL breaker has left
    /// Open (its cooldown elapsed) and the sink itself reports writable
    /// again — e.g. an operator checkpoint or the cluster's scrub rebuilt
    /// the log — the wedge is provably stale: lift it to Degraded and let
    /// the item run.
    fn recovery_probe(&mut self) -> bool {
        let wal_calm = self.wal_breaker.state() != BreakerState::Open;
        let sink_ok = self.nebula.mutation_sink_mut().is_none_or(|sink| sink.healthy());
        wal_calm && sink_ok && self.health.try_recover()
    }

    fn record_shed(&mut self, shed: ShedRecord) {
        // A shed item never commits: drop any trace opened for its
        // dispatch (no-op at admission, where none is open) and leave a
        // flight-recorder event in its place.
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
        self.health.observe(HealthSignal::Shed);
        self.sheds.push(shed);
    }
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
    fn front_end_matches_sequential_batch_without_faults() {
        let (db, meta, ids) = setup();
        let batch_items = items(&ids, 12);
        let plain: Vec<(Annotation, Vec<TupleId>)> =
            batch_items.iter().map(|i| (i.annotation.clone(), i.focal.clone())).collect();

        let mut store_seq = AnnotationStore::new();
        let seq = engine(meta.clone()).process_batch(&db, &mut store_seq, &plain);

        let mut store = AnnotationStore::new();
        let mut nebula = engine(meta);
        let report = ingest_batch(
            &mut nebula,
            &db,
            &mut store,
            &batch_items,
            &IngestConfig::deterministic(1, batch_items.len()),
        );
        assert!(report.sheds.is_empty());
        assert_eq!(format!("{:?}", report.batch), format!("{seq:?}"));
        assert_eq!(report.health, HealthState::Healthy);
        assert_eq!(report.latencies_ns.len(), batch_items.len());
    }

    #[test]
    fn unpaced_burst_sheds_exactly_the_overflow() {
        let (db, meta, ids) = setup();
        let batch_items = items(&ids, 200);
        let mut store = AnnotationStore::new();
        let mut nebula = engine(meta);
        let config = IngestConfig {
            queue_capacity: 8,
            breaker: BreakerConfig::disabled(),
            ..IngestConfig::default()
        };
        let report = ingest_batch(&mut nebula, &db, &mut store, &batch_items, &config);
        // The whole burst is due before the first dispatch: the first eight
        // fill the queue and every later arrival finds it full.
        let shed: Vec<usize> = report.sheds.iter().map(|s| s.index).collect();
        assert_eq!(shed, (8..200).collect::<Vec<_>>());
        assert!(report.sheds.iter().all(|s| s.reason == ShedReason::QueueFull));
        assert_eq!(report.queue_depth_peak, 8);
        let executed: Vec<usize> = report.batch.entries.iter().map(|e| e.index).collect();
        assert_eq!(executed, (0..8).collect::<Vec<_>>());
        assert_eq!(report.total(), batch_items.len(), "every item accounted");
        assert_eq!(report.health, HealthState::Shedding);
    }

    #[test]
    fn paced_arrivals_are_admitted_on_their_due_instant() {
        // An hour between arrivals, on the virtual clock: every idle wait
        // is a virtual sleep, and each arrival is admitted on its due
        // instant without the wall clock ever reaching it.
        nebula_govern::clock::set_virtual(true);
        nebula_govern::clock::reset_virtual();
        let (db, meta, ids) = setup();
        let batch_items = items(&ids, 5);
        let mut store = AnnotationStore::new();
        let mut nebula = engine(meta);
        let config = IngestConfig {
            queue_capacity: 1,
            admit_gap: Some(Duration::from_secs(3600)),
            ..IngestConfig::default()
        };
        let report = ingest_batch(&mut nebula, &db, &mut store, &batch_items, &config);
        let slept = nebula_govern::clock::virtual_ns();
        nebula_govern::clock::set_virtual(false);
        assert!(report.sheds.is_empty(), "one arrival at a time fits a queue of one");
        assert_eq!(report.batch.total(), 5);
        assert_eq!(report.queue_depth_peak, 1);
        assert!(slept > 4 * 3_599_000_000_000, "four idle waits of about an hour: {slept}");
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
            &IngestConfig::deterministic(1, batch_items.len()),
        );
        assert_eq!(report.total(), 6);
        assert!(report.sheds.iter().all(|s| s.reason == ShedReason::DeadlineExpired));
        assert_eq!(report.sheds.len(), 6, "zero deadlines expire before any dispatch");
        assert_eq!(report.batch.total(), 0);
    }

    #[test]
    fn mixed_priorities_report_in_input_order() {
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
