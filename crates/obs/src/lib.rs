//! In-tree telemetry for the Nebula engine.
//!
//! Three primitives, all dependency-free:
//!
//! - **Counters** — monotonic work counters with dotted hierarchical
//!   names (`relstore.tuples_scanned`, `core.accepted`, ...).
//! - **Histograms / spans** — latency distributions (min/mean/max plus
//!   fixed power-of-ten buckets). A [`SpanGuard`] times a scope and
//!   feeds the histogram named after it; the engine's pipeline stages
//!   use the `stage0.register` … `stage3.route` hierarchy.
//! - **Pipeline events** — a bounded ring buffer of per-annotation
//!   records (stage, duration, candidate counts, routing decision)
//!   backing `EXPLAIN ANNOTATION <id>` in the shell.
//!
//! Everything funnels through one [`Telemetry`] registry guarded by an
//! `AtomicBool`: when telemetry is disabled (the default), every
//! instrumentation call is a single relaxed atomic load — no locks, no
//! clock reads, no allocation — so instrumented hot paths cost nothing
//! measurable. Enable collection with [`set_enabled`]`(true)`, read it
//! back with [`snapshot`].
//!
//! Snapshots ([`TelemetrySnapshot`]) render deterministically as text or
//! JSON and support diffing against an earlier snapshot, which is how
//! the bench harness emits per-experiment metrics sidecars.
//!
//! The [`trace`] module builds on the same cost model: causally-linked
//! span trees with deterministic IDs covering the whole commit path
//! (admission → stages → WAL → replication ack), a critical-path
//! analyzer, and a bounded flight recorder that dumps deterministic
//! JSON post-mortems on terminal conditions.

mod event;
mod snapshot;
pub mod trace;

pub use event::PipelineEvent;
pub use snapshot::{HistogramSnapshot, TelemetrySnapshot, BUCKET_BOUNDS_NS};

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Canonical metric names, so the instrumented crates and the renderers
/// agree on spelling. Counters and histograms share one namespace.
pub mod names {
    /// Stage 0: registering the annotation and focal attachments.
    pub const STAGE0_REGISTER: &str = "stage0.register";
    /// Stage 1: annotation text → keyword queries.
    pub const STAGE1_QUERYGEN: &str = "stage1.querygen";
    /// Stage 2: query execution (full database or focal miniDB).
    pub const STAGE2_EXECUTE: &str = "stage2.execute";
    /// Stage 3: routing candidates through the β bounds.
    pub const STAGE3_ROUTE: &str = "stage3.route";
    /// The whole `process_annotation` pipeline.
    pub const PIPELINE: &str = "core.process_annotation";
    /// Degradation events emitted by the resource governor.
    pub const GOVERN_DEGRADE: &str = "govern.degrade";
}

/// The closed registry of metric names the engine is allowed to emit.
///
/// Every counter, gauge, and span name written anywhere in the workspace
/// must be listed here; `tests/telemetry.rs` runs the pipeline with
/// collection on and fails if a snapshot contains a name the registry
/// doesn't know. That keeps `SHOW METRICS` and the JSON sidecars a stable,
/// reviewable surface — a new metric is a deliberate one-line addition
/// here, never an accident of instrumentation.
pub mod registry {
    /// Every monotonic counter the engine emits.
    pub const KNOWN_COUNTERS: &[&str] = &[
        "annostore.annotations_registered",
        "annostore.edges_added",
        "annostore.propagation_fanout",
        "annostore.propagations",
        "backup.archive_failures",
        "backup.bases_archived",
        "backup.bundle_bytes",
        "backup.bundles_created",
        "backup.bytes_archived",
        "backup.gc_removed",
        "backup.restore_records_replayed",
        "backup.restores",
        "backup.rot_detected",
        "backup.rot_injected",
        "backup.scrubs",
        "backup.segments_archived",
        "backup.verify_failures",
        "core.accepted",
        "core.annotations_processed",
        "core.candidates",
        "core.checkpoint_deferred",
        "core.degraded_annotations",
        "core.flush_failed",
        "core.focal_spread_used",
        "core.pending_verification",
        "core.quarantined",
        "core.queries_generated",
        "core.rejected",
        "durable.append_failures",
        "durable.bytes_appended",
        "durable.checkpoint_failures",
        "durable.checkpoints",
        "durable.fsyncs",
        "durable.records_appended",
        "durable.records_dropped",
        "durable.records_replayed",
        "durable.records_skipped",
        "durable.recoveries",
        "durable.wal_truncations",
        "govern.budget_trips",
        "govern.faults_injected",
        "govern.faults_recovered",
        "govern.retries",
        "govern.truncated_candidates",
        "govern.truncated_configurations",
        "ingest.admitted",
        "ingest.breaker_half_open",
        "ingest.breaker_opened",
        "ingest.completed",
        "ingest.recovered",
        "ingest.shed",
        "ingest.shed_circuit_open",
        "ingest.shed_deadline",
        "ingest.shed_queue_full",
        "ingest.shed_wedged",
        "page.evictions",
        "page.faults_injected",
        "page.flushes",
        "page.hits",
        "page.misses",
        "page.retries",
        "page.scrub_corrupt",
        "page.scrub_pages",
        "page.write_backs",
        "relstore.index_probes",
        "relstore.queries_executed",
        "relstore.storage_errors",
        "relstore.tuples_scanned",
        "repair.bitrot_detected",
        "repair.bitrot_injected",
        "repair.ladder_probes",
        "repair.records_resynced",
        "repair.rejoins",
        "repair.repairs",
        "repair.scrubs",
        "repl.acks",
        "repl.catchup_checkpoints",
        "repl.divergences",
        "repl.epoch_rejections",
        "repl.frames_delayed",
        "repl.frames_dropped",
        "repl.frames_duplicated",
        "repl.frames_reordered",
        "repl.lag_budget_exceeded",
        "repl.promotions",
        "repl.records_replayed",
        "repl.records_shipped",
        "repl.records_skipped",
        "repl.segments_shipped",
        "shard.annotations_routed",
        "shard.applies_sent",
        "shard.apply_acks",
        "shard.apply_nacks",
        "shard.apply_retries",
        "shard.batches_applied",
        "shard.breaker_opened",
        "shard.digest_divergences",
        "shard.failovers",
        "shard.home_fallbacks",
        "shard.partial_results",
        "shard.probe_serve_errors",
        "shard.probes_answered",
        "shard.probes_sent",
        "shard.probes_skipped",
        "shard.probes_timed_out",
        "shard.repairs",
        "textsearch.compiled_queries",
        "textsearch.configurations",
        "textsearch.tuples_inspected",
        "trace.flight_dumps",
        "trace.flight_events",
        "trace.ring_evictions",
        "trace.spans",
        "trace.traces",
    ];

    /// Every last-value gauge the engine emits.
    pub const KNOWN_GAUGES: &[&str] = &[
        "ingest.health",
        "ingest.queue_depth_peak",
        "ingest.workers",
        "page.dirty_pages",
        "page.file_pages",
        "page.resident_pages",
        "repair.last_scrub_lsn",
        "repair.pending",
        "repl.epoch",
        "repl.max_lag",
        "repl.replicas",
        "shard.epoch",
        "shard.lagging",
        "shard.shards",
        "trace.ring_occupancy",
    ];

    /// Every span / histogram name the engine emits.
    pub const KNOWN_SPANS: &[&str] = &[
        "backup.restore",
        "core.process_annotation",
        "durable.append",
        "durable.checkpoint",
        "durable.recover",
        "ingest.item",
        "repair.scrub",
        "stage0.register",
        "stage1.querygen",
        "stage2.execute",
        "stage3.route",
    ];

    /// Is `name` a registered counter, gauge, or span name?
    pub fn is_known(name: &str) -> bool {
        KNOWN_COUNTERS.binary_search(&name).is_ok()
            || KNOWN_GAUGES.binary_search(&name).is_ok()
            || KNOWN_SPANS.binary_search(&name).is_ok()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn registry_lists_are_sorted_and_unique() {
            for list in [KNOWN_COUNTERS, KNOWN_GAUGES, KNOWN_SPANS] {
                for pair in list.windows(2) {
                    assert!(pair[0] < pair[1], "{} must sort before {}", pair[0], pair[1]);
                }
            }
        }

        #[test]
        fn is_known_hits_and_misses() {
            assert!(is_known("core.checkpoint_deferred"));
            assert!(is_known("ingest.shed"));
            assert!(is_known("ingest.health"));
            assert!(is_known("repl.divergences"));
            assert!(is_known("repl.max_lag"));
            assert!(is_known("ingest.recovered"));
            assert!(is_known("repair.scrubs"));
            assert!(is_known("repair.last_scrub_lsn"));
            assert!(is_known("repair.scrub"));
            assert!(is_known("backup.segments_archived"));
            assert!(is_known("backup.restores"));
            assert!(is_known("backup.restore"));
            assert!(is_known("stage2.execute"));
            assert!(is_known("trace.spans"));
            assert!(is_known("trace.flight_dumps"));
            assert!(is_known("trace.ring_occupancy"));
            assert!(!is_known("core.made_up"));
        }
    }
}

/// How many pipeline events the ring buffer retains.
pub const EVENT_CAPACITY: usize = 256;

#[derive(Debug, Default)]
struct Recording {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, HistogramSnapshot>,
    events: VecDeque<PipelineEvent>,
}

/// A telemetry registry: an enabled flag in front of the recorded state
/// — counters, gauges, histograms and a bounded event ring, all behind
/// one mutex (instrumented sections are short).
///
/// Most code uses the process-global registry through the free functions
/// ([`counter_add`], [`span`], ...), but `Telemetry` values can also be
/// created standalone for embedding.
#[derive(Debug)]
pub struct Telemetry {
    enabled: AtomicBool,
    inner: Mutex<Recording>,
}

impl Telemetry {
    /// Empty registry, initially **disabled**.
    pub fn recording() -> Telemetry {
        Telemetry { enabled: AtomicBool::new(false), inner: Mutex::default() }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Recording> {
        // A panic while holding the lock poisons it; the data is plain
        // counters, so recovering the inner value is always safe.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Is collection on? A single relaxed load — this is the whole cost
    /// of an instrumentation site while disabled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn collection on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Add to a monotonic counter.
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if self.is_enabled() {
            self.record_counter(name, delta);
        }
    }

    /// Record one latency observation.
    #[inline]
    pub fn observe_ns(&self, name: &'static str, ns: u64) {
        if self.is_enabled() {
            self.record_observation(name, ns);
        }
    }

    /// Set a last-value gauge.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, value: u64) {
        if self.is_enabled() {
            self.record_gauge(name, value);
        }
    }

    /// Record one latency observation from a [`Duration`].
    #[inline]
    pub fn observe(&self, name: &'static str, d: Duration) {
        self.observe_ns(name, d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Start a timed span feeding the histogram `name` on drop. When
    /// disabled, the guard is inert (no clock read).
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let target = self.is_enabled().then(|| (self, Instant::now()));
        SpanGuard { target, name }
    }

    /// Record one pipeline event (ring-buffered).
    #[inline]
    pub fn record_event(&self, event: PipelineEvent) {
        if self.is_enabled() {
            self.push_event(event);
        }
    }

    // The recording halves are deliberately not `#[inline]`: an
    // instrumentation site inlines the flag check above and calls one of
    // these, so a hot loop carries a call, not a lock and a map walk.

    fn record_counter(&self, name: &'static str, delta: u64) {
        let mut inner = self.locked();
        let slot = inner.counters.entry(name).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    fn record_observation(&self, name: &'static str, ns: u64) {
        self.locked().histograms.entry(name).or_default().record(ns);
    }

    fn record_gauge(&self, name: &'static str, value: u64) {
        self.locked().gauges.insert(name, value);
    }

    fn push_event(&self, event: PipelineEvent) {
        let mut inner = self.locked();
        if inner.events.len() == EVENT_CAPACITY {
            inner.events.pop_front();
        }
        inner.events.push_back(event);
    }

    /// Copy out the recorded state.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.locked();
        TelemetrySnapshot {
            counters: inner.counters.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
            gauges: inner.gauges.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
            histograms: inner.histograms.iter().map(|(&k, v)| (k.to_string(), v.clone())).collect(),
            events: inner.events.iter().cloned().collect(),
        }
    }

    /// Drop all recorded state (the enabled flag is unchanged).
    pub fn reset(&self) {
        *self.locked() = Recording::default();
    }
}

/// Times a scope; on drop, feeds the elapsed time into the histogram it
/// was created for. Obtain via [`Telemetry::span`] or the free [`span`].
#[must_use = "a span measures until dropped — binding to _ ends it immediately"]
pub struct SpanGuard<'a> {
    target: Option<(&'a Telemetry, Instant)>,
    name: &'static str,
}

impl SpanGuard<'_> {
    /// Nanoseconds elapsed so far; 0 when telemetry was disabled at
    /// creation.
    pub fn elapsed_ns(&self) -> u64 {
        self.target
            .as_ref()
            .map(|(_, start)| start.elapsed().as_nanos().min(u64::MAX as u128) as u64)
            .unwrap_or(0)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((telemetry, start)) = self.target.take() {
            telemetry.observe(self.name, start.elapsed());
        }
    }
}

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// The process-global registry (disabled until [`set_enabled`]`(true)`).
pub fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(Telemetry::recording)
}

/// Is global collection on? Never initializes the registry.
#[inline]
pub fn enabled() -> bool {
    GLOBAL.get().is_some_and(Telemetry::is_enabled)
}

/// Turn global collection on or off.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Add to a global counter. While disabled this is one atomic load.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if let Some(t) = GLOBAL.get() {
        t.counter_add(name, delta);
    }
}

/// Record one latency observation globally.
#[inline]
pub fn observe_ns(name: &'static str, ns: u64) {
    if let Some(t) = GLOBAL.get() {
        t.observe_ns(name, ns);
    }
}

/// Set a global last-value gauge. While disabled this is one atomic load.
#[inline]
pub fn gauge_set(name: &'static str, value: u64) {
    if let Some(t) = GLOBAL.get() {
        t.gauge_set(name, value);
    }
}

/// Start a global timed span. Inert (no clock read) while disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard<'static> {
    match GLOBAL.get() {
        Some(t) => t.span(name),
        None => SpanGuard { target: None, name },
    }
}

/// Record one pipeline event globally.
#[inline]
pub fn record_event(event: PipelineEvent) {
    if let Some(t) = GLOBAL.get() {
        t.record_event(event);
    }
}

/// Snapshot the global registry.
pub fn snapshot() -> TelemetrySnapshot {
    global().snapshot()
}

/// Reset the global registry's recorded state.
pub fn reset() {
    global().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let t = Telemetry::recording();
        t.counter_add("a", 1);
        t.observe_ns("h", 100);
        {
            let g = t.span("h");
            assert_eq!(g.elapsed_ns(), 0, "inert guard");
        }
        t.record_event(PipelineEvent {
            annotation_id: 1,
            stage: "s",
            duration_ns: 1,
            candidates: 0,
            decision: String::new(),
        });
        let snap = t.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.events.is_empty());
    }

    #[test]
    fn counters_accumulate_and_saturate() {
        let t = Telemetry::recording();
        t.set_enabled(true);
        t.counter_add("x", 2);
        t.counter_add("x", 3);
        t.counter_add("y", u64::MAX);
        t.counter_add("y", 10);
        let snap = t.snapshot();
        assert_eq!(snap.counters["x"], 5);
        assert_eq!(snap.counters["y"], u64::MAX);
    }

    #[test]
    fn spans_feed_histograms() {
        let t = Telemetry::recording();
        t.set_enabled(true);
        for _ in 0..3 {
            let g = t.span("work");
            std::hint::black_box((0..100).sum::<u64>());
            drop(g);
        }
        let snap = t.snapshot();
        let h = &snap.histograms["work"];
        assert_eq!(h.count, 3);
        assert!(h.min_ns <= h.max_ns);
        assert!(h.sum_ns >= h.max_ns);
        assert!(h.mean_ns() >= h.min_ns as f64 && h.mean_ns() <= h.max_ns as f64);
        assert_eq!(h.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn event_ring_is_bounded() {
        let t = Telemetry::recording();
        t.set_enabled(true);
        for i in 0..(EVENT_CAPACITY as u64 + 10) {
            t.record_event(PipelineEvent {
                annotation_id: i,
                stage: "s",
                duration_ns: i,
                candidates: 0,
                decision: String::new(),
            });
        }
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), EVENT_CAPACITY);
        assert_eq!(snap.events.first().unwrap().annotation_id, 10, "oldest evicted");
        assert_eq!(snap.events.last().unwrap().annotation_id, EVENT_CAPACITY as u64 + 9);
    }

    #[test]
    fn gauges_are_last_value_wins() {
        let t = Telemetry::recording();
        t.gauge_set("g", 10); // disabled: dropped
        t.set_enabled(true);
        t.gauge_set("g", 3);
        t.gauge_set("g", 7);
        t.gauge_set("g", 5);
        let snap = t.snapshot();
        assert_eq!(snap.gauges["g"], 5);
        assert!(snap.counters.is_empty(), "gauges don't leak into counters");
    }

    #[test]
    fn reset_clears_but_keeps_enabled() {
        let t = Telemetry::recording();
        t.set_enabled(true);
        t.counter_add("x", 1);
        t.reset();
        assert!(t.is_enabled());
        assert!(t.snapshot().counters.is_empty());
        t.counter_add("x", 1);
        assert_eq!(t.snapshot().counters["x"], 1);
    }
}
