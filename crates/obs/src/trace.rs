//! Deterministic end-to-end tracing: causal span trees, commit
//! critical-path attribution, and a bounded post-mortem flight recorder.
//!
//! A **trace** is one rooted span tree per committed annotation, covering
//! the whole commit path: the ingest front end opens the root at dispatch
//! and attaches the admission → dispatch queue wait, the core
//! pipeline attaches the stage0–stage3 spans with their routing
//! decisions, the durability layer attaches WAL append / fsync /
//! checkpoint spans, and the replication layer attaches per-peer ship /
//! ack spans.
//!
//! ## Determinism
//!
//! Span IDs are a pure function of `(annotation id, epoch, first LSN,
//! open sequence)` — no wall clock, no randomness — so for a fixed fault
//! seed the serialized trace *structure* (IDs, parentage, labels,
//! details) is byte-identical on every run: the ingest front end commits
//! one item at a time in admission order, which makes the open sequence
//! deterministic. Durations are measured through the
//! ambient time source ([`install_time_source`] lets `govern`'s virtual
//! clock take over where one is active) and are **excluded** from the
//! structure rendering; they only appear in the timing-bearing JSON and
//! in critical-path attribution.
//!
//! ## Cost model
//!
//! The module sits behind the registry's one switch
//! ([`crate::set_enabled`]): while collection is off every call here is a
//! single relaxed load. Scopes are timed by [`crate::span`], whose guard
//! both feeds its histogram and, while a trace is active on the thread,
//! opens and closes a child span here. The active-trace state is
//! thread-local, so a span's only global-lock operation is its histogram:
//! `trace.spans` is added once per finished or abandoned trace, and the
//! ring's lock is taken once per finished trace.
//!
//! ## Flight recorder
//!
//! A bounded ring of operational events — completed commits, health
//! transitions, breaker trips, shed records, fence / divergence events —
//! with a global causal sequence number. When ingest reaches Wedged, a
//! primary is fenced, or divergence is detected, the instrumented site
//! calls [`flight_dump`], which snapshots the ring into a deterministic
//! JSON post-mortem retained in a small bounded list.

use crate::enabled;
use crate::snapshot::{json_string, push_entries};
use nebula_codec::fnv1a;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Metric names the tracing layer publishes into the parent registry.
pub mod counters {
    /// Trace spans completed.
    pub const SPANS: &str = "trace.spans";
    /// Committed traces pushed into the ring.
    pub const TRACES: &str = "trace.traces";
    /// Traces evicted from the bounded ring.
    pub const RING_EVICTIONS: &str = "trace.ring_evictions";
    /// Flight-recorder events recorded.
    pub const FLIGHT_EVENTS: &str = "trace.flight_events";
    /// Post-mortem dumps produced.
    pub const FLIGHT_DUMPS: &str = "trace.flight_dumps";
    /// Gauge: traces currently held in the ring.
    pub const RING_OCCUPANCY: &str = "trace.ring_occupancy";
}

/// How many finished traces the global ring retains.
pub const TRACE_CAPACITY: usize = 256;
/// How many flight-recorder events the ring retains.
pub const FLIGHT_CAPACITY: usize = 128;
/// How many post-mortem dumps are retained.
pub const FLIGHT_DUMP_CAPACITY: usize = 8;

/// Forwards to [`crate::set_enabled`], the one switch for telemetry and
/// tracing alike. Kept only because the spine benchmark still calls it
/// beside `set_enabled`; it goes when spine stops calling it.
pub fn set_enabled(on: bool) {
    crate::set_enabled(on);
}

// ---------------------------------------------------------------------
// Time source
// ---------------------------------------------------------------------

/// An ambient nanosecond clock probe: return `Some(ns)` to take over
/// timing, `None` to fall through to the real monotonic clock. The
/// govern crate installs a probe backed by its virtual clock so traced
/// durations stay deterministic wherever the virtual clock is active.
pub type TimeSource = fn() -> Option<u64>;

static TIME_SOURCE: OnceLock<TimeSource> = OnceLock::new();
static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Install the ambient time source (first installation wins; later calls
/// are ignored, which makes installation idempotent).
pub fn install_time_source(source: TimeSource) {
    let _ = TIME_SOURCE.set(source);
}

/// The governed time: the installed source where it claims the clock,
/// else nanoseconds since the first call. Every span is timed by it.
pub(crate) fn now_ns() -> u64 {
    if let Some(source) = TIME_SOURCE.get() {
        if let Some(ns) = source() {
            return ns;
        }
    }
    PROCESS_START.get_or_init(Instant::now).elapsed().as_nanos().min(u64::MAX as u128) as u64
}

// ---------------------------------------------------------------------
// Span trees
// ---------------------------------------------------------------------

/// One completed span in a trace: a labeled segment of the commit path
/// with a deterministic ID, its parent's ID (0 for the root), a
/// deterministic detail string (decision, LSN, peer, ...), and a
/// duration that is *not* part of the deterministic structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Deterministic span ID (never 0).
    pub id: u64,
    /// Parent span ID; 0 marks the root.
    pub parent: u64,
    /// Segment label (`ingest.item`, `stage2.execute`, `durable.append`,
    /// `repl.ack`, ...).
    pub label: &'static str,
    /// Deterministic annotation-specific detail (decision string, LSN,
    /// peer id, queue class).
    pub detail: String,
    /// Measured duration. Excluded from the structure rendering.
    pub duration_ns: u64,
}

/// One rooted span tree for a committed annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The committed annotation's id.
    pub annotation: u64,
    /// Replication epoch under which the commit ran (0 when replication
    /// is off).
    pub epoch: u64,
    /// First WAL LSN the commit appended (0 when durability is off).
    pub lsn: u64,
    /// Spans in open order; index 0 is the root.
    pub spans: Vec<TraceSpan>,
}

/// The deterministic span ID: FNV-1a over (annotation id, epoch, first
/// LSN, open sequence). Never 0 — 0 is the root's parent sentinel.
pub fn span_id(annotation: u64, epoch: u64, lsn: u64, seq: u32) -> u64 {
    let mut hash = fnv1a(fnv1a::OFFSET, &annotation.to_le_bytes());
    hash = fnv1a(hash, &epoch.to_le_bytes());
    hash = fnv1a(hash, &lsn.to_le_bytes());
    hash = fnv1a(hash, &seq.to_le_bytes());
    hash.max(1)
}

impl Trace {
    /// The root span.
    pub fn root(&self) -> &TraceSpan {
        &self.spans[0]
    }

    fn children_of(&self, id: u64) -> impl Iterator<Item = &TraceSpan> {
        self.spans.iter().filter(move |s| s.parent == id)
    }

    /// The critical path: from the root, repeatedly descend into the
    /// child with the largest duration (ties break toward open order).
    pub fn critical_path(&self) -> Vec<&TraceSpan> {
        let mut path = vec![self.root()];
        loop {
            let here = path[path.len() - 1];
            match self.children_of(here.id).max_by_key(|s| s.duration_ns) {
                Some(next) => path.push(next),
                None => return path,
            }
        }
    }

    /// Self time per label: each span's duration minus its children's
    /// (saturating), accumulated by label. This is the attribution
    /// primitive — the label with the largest self time is the segment
    /// that dominated the commit.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_sum: BTreeMap<u64, u64> = BTreeMap::new();
        for span in &self.spans {
            if span.parent != 0 {
                let slot = child_sum.entry(span.parent).or_insert(0);
                *slot = slot.saturating_add(span.duration_ns);
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for span in &self.spans {
            let children = child_sum.get(&span.id).copied().unwrap_or(0);
            let own = span.duration_ns.saturating_sub(children);
            let slot = out.entry(span.label).or_insert(0);
            *slot = slot.saturating_add(own);
        }
        out
    }

    /// Deterministic JSON: the *structure* rendering — IDs, parentage,
    /// labels, details, no durations — which is byte-identical across
    /// runs for a fixed fault seed and backs the determinism tests and the
    /// golden sample.
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"annotation\": {}, \"epoch\": {}, \"lsn\": {}, \"spans\": [",
            self.annotation, self.epoch, self.lsn
        );
        let mut first = true;
        for span in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {{\"id\": {}, \"parent\": {}, \"label\": {}, \"detail\": {}",
                span.id,
                span.parent,
                json_string(span.label),
                json_string(&span.detail),
            ));
            out.push('}');
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("]}");
        out
    }

    /// Human-readable tree for the shell, one span per line with
    /// indentation, detail, duration, and a `*` on the critical path.
    pub fn render_tree(&self) -> String {
        let critical: Vec<u64> = self.critical_path().iter().map(|s| s.id).collect();
        let mut out = format!(
            "annotation A{} (epoch {}, lsn {}): {} span(s)\n",
            self.annotation,
            self.epoch,
            self.lsn,
            self.spans.len()
        );
        self.render_subtree(0, 1, &critical, &mut out);
        let leaf = critical.last().copied().unwrap_or(0);
        if let Some(span) = self.spans.iter().find(|s| s.id == leaf) {
            out.push_str(&format!(
                "critical path ends at {} ({})\n",
                span.label,
                crate::snapshot::format_ns(span.duration_ns)
            ));
        }
        out
    }

    fn render_subtree(&self, parent: u64, depth: usize, critical: &[u64], out: &mut String) {
        for span in self.children_of(parent) {
            let marker = if critical.contains(&span.id) { "*" } else { " " };
            let detail =
                if span.detail.is_empty() { String::new() } else { format!(" [{}]", span.detail) };
            out.push_str(&format!(
                "{}{}{}{}  {}\n",
                marker,
                "  ".repeat(depth),
                span.label,
                detail,
                crate::snapshot::format_ns(span.duration_ns),
            ));
            self.render_subtree(span.id, depth + 1, critical, out);
        }
    }
}

/// Render a batch of traces as one deterministic JSON document.
pub fn render_traces_json(traces: &[Trace]) -> String {
    let mut out = String::from("{\n  \"traces\": [");
    let mut first = true;
    for trace in traces {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n  ");
        out.push_str(&trace.render_json());
    }
    if !first {
        out.push('\n');
    }
    out.push_str("]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Aggregate attribution
// ---------------------------------------------------------------------

/// Aggregate critical-path attribution over a batch of traces: total
/// self time per segment label, sorted by share.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Attribution {
    /// Traces aggregated.
    pub traces: usize,
    /// Sum of root (end-to-end) durations.
    pub total_ns: u64,
    /// `(label, self time)` pairs, largest first (ties break by name).
    pub segments: Vec<(&'static str, u64)>,
}

impl Attribution {
    /// The dominant segment, if any trace was aggregated.
    pub fn dominant(&self) -> Option<(&'static str, u64)> {
        self.segments.first().copied()
    }

    /// Fixed-format text report.
    pub fn render_text(&self) -> String {
        if self.traces == 0 {
            return "critical path: no traces recorded".into();
        }
        let mut out = format!(
            "critical path over {} trace(s), total {}:\n",
            self.traces,
            crate::snapshot::format_ns(self.total_ns)
        );
        for (label, ns) in &self.segments {
            let share =
                if self.total_ns == 0 { 0.0 } else { *ns as f64 / self.total_ns as f64 * 100.0 };
            out.push_str(&format!(
                "  {label:<28} {:>10}  ({share:.1}%)\n",
                crate::snapshot::format_ns(*ns)
            ));
        }
        out
    }
}

/// Aggregate self-time attribution over `traces`.
pub fn attribution(traces: &[Trace]) -> Attribution {
    let mut by_label: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total_ns = 0u64;
    for trace in traces {
        total_ns = total_ns.saturating_add(trace.root().duration_ns);
        for (label, ns) in trace.self_times() {
            let slot = by_label.entry(label).or_insert(0);
            *slot = slot.saturating_add(ns);
        }
    }
    let mut segments: Vec<(&'static str, u64)> = by_label.into_iter().collect();
    segments.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    Attribution { traces: traces.len(), total_ns, segments }
}

// ---------------------------------------------------------------------
// Thread-local trace builder
// ---------------------------------------------------------------------

#[derive(Debug)]
struct RawSpan {
    label: &'static str,
    detail: String,
    parent: Option<usize>,
    start_ns: u64,
    duration_ns: u64,
    closed: bool,
}

#[derive(Debug)]
struct Builder {
    annotation: Option<u64>,
    epoch: u64,
    first_lsn: u64,
    extend_root_ns: u64,
    spans: Vec<RawSpan>,
    stack: Vec<usize>,
    /// Child and wait spans closed so far, added to `trace.spans` when the
    /// builder is taken.
    closed: u64,
}

thread_local! {
    static BUILDER: RefCell<Option<Builder>> = const { RefCell::new(None) };
}

fn with_builder<R>(f: impl FnOnce(&mut Builder) -> R) -> Option<R> {
    BUILDER.with(|slot| slot.borrow_mut().as_mut().map(f))
}

/// Take this thread's builder, counting the spans closed in it.
fn take_builder() -> Option<Builder> {
    let builder = BUILDER.with(|slot| slot.borrow_mut().take())?;
    if builder.closed > 0 {
        crate::counter_add(counters::SPANS, builder.closed);
    }
    Some(builder)
}

/// Begin a fresh trace on this thread, replacing any abandoned one, and
/// open its root span with a deterministic `detail` (e.g. the admission
/// queue class; it runs only when collection is on). Returns whether a
/// trace is now active.
pub fn start(label: &'static str, detail: impl FnOnce() -> String) -> bool {
    abandon();
    if !enabled() {
        return false;
    }
    let root = RawSpan {
        label,
        detail: detail(),
        parent: None,
        start_ns: now_ns(),
        duration_ns: 0,
        closed: false,
    };
    BUILDER.with(|slot| {
        *slot.borrow_mut() = Some(Builder {
            annotation: None,
            epoch: 0,
            first_lsn: 0,
            extend_root_ns: 0,
            spans: vec![root],
            stack: vec![0],
            closed: 0,
        });
    });
    true
}

/// Begin a trace only when none is active on this thread. Returns true
/// when this call started one (the caller then owns finish / abandon).
pub fn start_if_idle(label: &'static str) -> bool {
    if !enabled() {
        return false;
    }
    let idle = BUILDER.with(|slot| slot.borrow().is_none());
    idle && start(label, String::new)
}

/// Bind the active trace to the annotation it is committing.
pub fn bind(annotation: u64) {
    if !enabled() {
        return;
    }
    with_builder(|b| b.annotation = Some(annotation));
}

/// Record the replication epoch the commit runs under (last wins).
pub fn note_epoch(epoch: u64) {
    if !enabled() {
        return;
    }
    with_builder(|b| b.epoch = epoch);
}

/// Record a WAL LSN the commit appended (the first one feeds span-ID
/// derivation).
pub fn note_lsn(lsn: u64) {
    if !enabled() {
        return;
    }
    with_builder(|b| {
        if b.first_lsn == 0 {
            b.first_lsn = lsn;
        }
    });
}

/// Attach a leaf span with an explicit, externally measured duration
/// (the ingest queue wait). The root span's duration is extended
/// by the same amount so it keeps covering admission → commit.
pub fn wait(label: &'static str, duration_ns: u64) {
    if !enabled() {
        return;
    }
    with_builder(|b| {
        let parent = b.stack.last().copied();
        let start_ns = b.spans.first().map(|r| r.start_ns).unwrap_or(0);
        let detail = String::new();
        b.spans.push(RawSpan { label, detail, parent, start_ns, duration_ns, closed: true });
        b.extend_root_ns = b.extend_root_ns.saturating_add(duration_ns);
        b.closed += 1;
    });
}

/// Open a child span under the current span of the active trace, started
/// at `start_ns`. Returns its index, or `None` when no trace is active.
pub(crate) fn open_child(label: &'static str, start_ns: u64) -> Option<usize> {
    with_builder(|b| {
        let parent = b.stack.last().copied();
        b.spans.push(RawSpan {
            label,
            detail: String::new(),
            parent,
            start_ns,
            duration_ns: 0,
            closed: false,
        });
        b.stack.push(b.spans.len() - 1);
        b.spans.len() - 1
    })
}

/// Set the detail string of the child span at `idx`.
pub(crate) fn set_detail(idx: usize, detail: String) {
    with_builder(|b| {
        if let Some(span) = b.spans.get_mut(idx) {
            span.detail = detail;
        }
    });
}

/// Close the child span at `idx` with its measured duration.
pub(crate) fn close_child(idx: usize, duration_ns: u64) {
    with_builder(|b| {
        if let Some(span) = b.spans.get_mut(idx) {
            if !span.closed {
                span.duration_ns = duration_ns;
                span.closed = true;
            }
        }
        while let Some(&top) = b.stack.last() {
            if top == idx {
                b.stack.pop();
                break;
            }
            // Defensive: a span under this one leaked open (panic
            // unwound past its guard); close it at our boundary.
            if b.stack.len() == 1 {
                break;
            }
            b.stack.pop();
        }
        b.closed += 1;
    });
}

/// Close the active trace's root span with the duration of the scope
/// that opened it, already measured by that scope's [`crate::Span`], so the
/// root node and the scope's histogram read one measurement.
/// [`finish`] keeps it (plus any [`wait`] extension).
pub fn close_root(duration_ns: u64) {
    with_builder(|b| {
        if let Some(root) = b.spans.first_mut() {
            root.duration_ns = duration_ns;
            root.closed = true;
        }
    });
}

/// Drop the active trace without committing it (shed, quarantine,
/// panic).
pub fn abandon() {
    take_builder();
}

/// Close the active trace and, when it was bound to an annotation, push
/// it into the global ring. Returns the committed annotation id.
pub fn finish() -> Option<u64> {
    let builder = take_builder()?;
    let annotation = builder.annotation?;
    let end_ns = now_ns();
    let mut raws = builder.spans;
    for raw in raws.iter_mut() {
        if !raw.closed {
            raw.duration_ns = end_ns.saturating_sub(raw.start_ns);
            raw.closed = true;
        }
    }
    if let Some(root) = raws.first_mut() {
        root.duration_ns = root.duration_ns.saturating_add(builder.extend_root_ns);
    }
    let ids: Vec<u64> = (0..raws.len())
        .map(|seq| span_id(annotation, builder.epoch, builder.first_lsn, seq as u32))
        .collect();
    let spans: Vec<TraceSpan> = raws
        .into_iter()
        .enumerate()
        .map(|(i, raw)| TraceSpan {
            id: ids[i],
            parent: raw.parent.map(|p| ids[p]).unwrap_or(0),
            label: raw.label,
            detail: raw.detail,
            duration_ns: raw.duration_ns,
        })
        .collect();
    let span_count = spans.len();
    let trace = Trace { annotation, epoch: builder.epoch, lsn: builder.first_lsn, spans };
    let occupancy = {
        let mut store = STORE.lock().unwrap_or_else(|e| e.into_inner());
        if store.len() == TRACE_CAPACITY {
            store.pop_front();
            crate::counter_add(counters::RING_EVICTIONS, 1);
        }
        store.push_back(trace);
        store.len()
    };
    crate::counter_add(counters::SPANS, 1); // the root
    crate::counter_add(counters::TRACES, 1);
    crate::gauge_set(counters::RING_OCCUPANCY, occupancy as u64);
    flight_event("commit", format!("annotation=A{annotation} spans={span_count}"));
    Some(annotation)
}

// ---------------------------------------------------------------------
// Global trace ring
// ---------------------------------------------------------------------

static STORE: Mutex<VecDeque<Trace>> = Mutex::new(VecDeque::new());

/// All retained traces, oldest first.
pub fn traces() -> Vec<Trace> {
    STORE.lock().unwrap_or_else(|e| e.into_inner()).iter().cloned().collect()
}

/// The most recent trace for one annotation.
pub fn for_annotation(annotation: u64) -> Option<Trace> {
    STORE
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .rev()
        .find(|t| t.annotation == annotation)
        .cloned()
}

/// Clear the trace ring and the flight recorder (the switch and any
/// in-flight thread-local builders are untouched).
pub fn reset() {
    STORE.lock().unwrap_or_else(|e| e.into_inner()).clear();
    let mut flight = FLIGHT.lock().unwrap_or_else(|e| e.into_inner());
    flight.seq = 0;
    flight.ring.clear();
    flight.dumps.clear();
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

/// One flight-recorder event: a causal sequence number, an event kind,
/// and a deterministic detail string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global causal sequence number (1-based).
    pub seq: u64,
    /// Event kind: `commit`, `health`, `breaker.trip`, `shed`, `wedge`,
    /// `fence`, `divergence`.
    pub kind: &'static str,
    /// Deterministic detail string.
    pub detail: String,
}

/// One post-mortem: the trigger plus the flight ring as it stood when
/// the trigger fired, in causal order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// What fired the dump (`ingest.wedged`, `repl.fenced`,
    /// `repl.divergence`).
    pub trigger: String,
    /// The ring at dump time, oldest first.
    pub events: Vec<FlightEvent>,
}

impl FlightDump {
    /// Deterministic JSON rendering (no wall-clock fields).
    pub fn render_json(&self) -> String {
        let mut out =
            format!("{{\n  \"trigger\": {},\n  \"events\": [", json_string(&self.trigger));
        push_entries(
            &mut out,
            self.events.iter().map(|e| {
                format!(
                    "{{\"seq\": {}, \"kind\": {}, \"detail\": {}}}",
                    e.seq,
                    json_string(e.kind),
                    json_string(&e.detail),
                )
            }),
        );
        out.push_str("]\n}\n");
        out
    }
}

#[derive(Debug, Default)]
struct Flight {
    seq: u64,
    ring: VecDeque<FlightEvent>,
    dumps: Vec<FlightDump>,
}

static FLIGHT: Mutex<Flight> =
    Mutex::new(Flight { seq: 0, ring: VecDeque::new(), dumps: Vec::new() });

/// Record one flight-recorder event. One relaxed load while collection
/// is off.
pub fn flight_event(kind: &'static str, detail: String) {
    if !enabled() {
        return;
    }
    let mut flight = FLIGHT.lock().unwrap_or_else(|e| e.into_inner());
    flight.seq += 1;
    let seq = flight.seq;
    if flight.ring.len() == FLIGHT_CAPACITY {
        flight.ring.pop_front();
    }
    flight.ring.push_back(FlightEvent { seq, kind, detail });
    drop(flight);
    crate::counter_add(counters::FLIGHT_EVENTS, 1);
}

/// Snapshot the flight ring into a post-mortem dump. Call at the moment
/// a terminal condition is detected — ingest Wedged, a fenced primary,
/// a detected divergence.
pub fn flight_dump(trigger: &str) {
    if !enabled() {
        return;
    }
    let mut flight = FLIGHT.lock().unwrap_or_else(|e| e.into_inner());
    let events: Vec<FlightEvent> = flight.ring.iter().cloned().collect();
    if flight.dumps.len() == FLIGHT_DUMP_CAPACITY {
        flight.dumps.remove(0);
    }
    flight.dumps.push(FlightDump { trigger: trigger.to_string(), events });
    drop(flight);
    crate::counter_add(counters::FLIGHT_DUMPS, 1);
}

/// The flight ring, oldest first.
pub fn flight_events() -> Vec<FlightEvent> {
    FLIGHT.lock().unwrap_or_else(|e| e.into_inner()).ring.iter().cloned().collect()
}

/// All retained post-mortem dumps, oldest first.
pub fn flight_dumps() -> Vec<FlightDump> {
    FLIGHT.lock().unwrap_or_else(|e| e.into_inner()).dumps.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // Tracing state is process-global; serialize the tests that toggle it.
    static LOCK: StdMutex<()> = StdMutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn build_one(annotation: u64) -> Option<u64> {
        assert!(start("ingest.item", String::new));
        wait("ingest.queue_wait", 50);
        {
            let pipeline = crate::span("core.process_annotation");
            bind(annotation);
            note_lsn(7);
            note_epoch(3);
            {
                let stage = crate::span("stage2.execute");
                stage.detail(|| "strategy=primary".into());
            }
            drop(pipeline);
        }
        finish()
    }

    #[test]
    fn disabled_tracing_is_inert() {
        let _g = guard();
        set_enabled(false);
        reset();
        assert!(!start("ingest.item", String::new));
        assert!(!start_if_idle("core.process_annotation"));
        assert_eq!(crate::span("stage0.register").close(), 0, "inert guard");
        wait("ingest.queue_wait", 10);
        assert!(finish().is_none());
        flight_event("shed", "reason=test".into());
        assert!(traces().is_empty());
        assert!(flight_events().is_empty());
    }

    /// A virtual clock for [`one_span_times_its_scope_once_behind_one_switch`]:
    /// installed as the time source, it claims the clock only while on.
    static VIRTUAL_ON: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    static VIRTUAL_NS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    fn virtual_clock() -> Option<u64> {
        use std::sync::atomic::Ordering::Relaxed;
        VIRTUAL_ON.load(Relaxed).then(|| VIRTUAL_NS.load(Relaxed))
    }

    fn virtual_sleep(ns: u64) {
        VIRTUAL_NS.fetch_add(ns, std::sync::atomic::Ordering::Relaxed);
    }

    fn record_everything(annotation: u64) {
        crate::counter_add("c", 1);
        crate::observe_ns("h", 10);
        crate::record_event(crate::PipelineEvent {
            annotation_id: annotation,
            stage: "s",
            duration_ns: 1,
            candidates: 0,
            decision: String::new(),
        });
        if start("ingest.item", String::new) {
            bind(annotation);
            drop(crate::span("stage0.register"));
            finish();
        }
        flight_event("health", "healthy->degraded".into());
        flight_dump("ingest.wedged");
    }

    #[test]
    fn one_span_times_its_scope_once_behind_one_switch() {
        use std::sync::atomic::Ordering::Relaxed;
        let _g = guard();
        install_time_source(virtual_clock);
        VIRTUAL_NS.store(1_000, Relaxed);
        VIRTUAL_ON.store(true, Relaxed);
        crate::set_enabled(true);
        crate::reset();
        reset();

        // A span held open across a known virtual sleep records exactly
        // that duration in its histogram and in its trace node.
        assert!(start("ingest.item", String::new));
        bind(77);
        {
            let stage = crate::span("stage2.execute");
            virtual_sleep(2_500);
            stage.detail(|| "mode=full".into());
        }
        assert_eq!(finish(), Some(77));
        let hist = &crate::snapshot().histograms["stage2.execute"];
        assert_eq!((hist.count, hist.sum_ns), (1, 2_500));
        let trace = for_annotation(77).expect("stored");
        let node = trace.spans.iter().find(|s| s.label == "stage2.execute").expect("node");
        assert_eq!((node.duration_ns, node.detail.as_str()), (2_500, "mode=full"));
        assert_eq!(crate::snapshot().counters[counters::SPANS], 2, "the child and the root");
        VIRTUAL_ON.store(false, Relaxed);

        // One switch: on, every kind of collection records ...
        crate::reset();
        reset();
        record_everything(1);
        let on = crate::snapshot();
        assert_eq!(on.counters["c"], 1);
        assert_eq!(on.histograms["h"].count, 1);
        assert_eq!(on.histograms["stage0.register"].count, 1);
        assert_eq!(on.events.len(), 1);
        assert_eq!(traces().len(), 1);
        assert_eq!(flight_events().len(), 2, "the commit and the health event");
        assert_eq!(flight_dumps().len(), 1);

        // ... and off, none does.
        crate::set_enabled(false);
        crate::reset();
        reset();
        record_everything(2);
        let off = crate::snapshot();
        assert!(off.counters.is_empty() && off.histograms.is_empty() && off.events.is_empty());
        assert!(traces().is_empty());
        assert!(flight_events().is_empty() && flight_dumps().is_empty());
    }

    #[test]
    fn span_ids_are_deterministic_functions_of_inputs() {
        assert_eq!(span_id(1, 2, 3, 4), span_id(1, 2, 3, 4));
        assert_ne!(span_id(1, 2, 3, 4), span_id(1, 2, 3, 5));
        assert_ne!(span_id(1, 2, 3, 4), span_id(2, 2, 3, 4));
        assert_ne!(span_id(1, 2, 3, 4), span_id(1, 3, 3, 4));
        assert_ne!(span_id(1, 2, 3, 4), span_id(1, 2, 4, 4));
        assert_ne!(span_id(1, 2, 3, 4), 0, "0 is the root-parent sentinel");
        // Pinned: the golden trace sample stores these ids.
        assert_eq!(span_id(1, 2, 3, 4), 0x1044_00b2_a968_4b91);
    }

    #[test]
    fn trace_builder_produces_one_rooted_tree() {
        let _g = guard();
        set_enabled(true);
        reset();
        let committed = build_one(42);
        set_enabled(false);
        assert_eq!(committed, Some(42));

        let trace = for_annotation(42).expect("stored");
        assert_eq!(trace.epoch, 3);
        assert_eq!(trace.lsn, 7);
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.root().label, "ingest.item");
        assert_eq!(trace.root().parent, 0);
        let root_id = trace.root().id;
        for span in &trace.spans[1..] {
            assert!(span.parent != 0, "every non-root span has a parent");
        }
        let stage2 = trace.spans.iter().find(|s| s.label == "stage2.execute").expect("stage2");
        assert_eq!(stage2.detail, "strategy=primary");
        let pipeline =
            trace.spans.iter().find(|s| s.label == "core.process_annotation").expect("pipeline");
        assert_eq!(pipeline.parent, root_id);
        assert_eq!(stage2.parent, pipeline.id);
        // The wait span extended the root's duration.
        assert!(trace.root().duration_ns >= 50);
    }

    #[test]
    fn structure_rendering_excludes_durations_and_is_stable() {
        let _g = guard();
        set_enabled(true);
        reset();
        build_one(9).expect("committed");
        let a = for_annotation(9).expect("stored");
        reset();
        build_one(9).expect("committed");
        let b = for_annotation(9).expect("stored");
        set_enabled(false);

        assert_eq!(
            a.render_json(),
            b.render_json(),
            "structure is independent of measured durations"
        );
        assert!(!a.render_json().contains("duration_ns"));
        assert_eq!(render_traces_json(std::slice::from_ref(&a)), render_traces_json(&[b]));
        assert!(a.render_tree().contains("annotation A9"));
    }

    #[test]
    fn critical_path_follows_the_slowest_child() {
        let mk = |id, parent, label: &'static str, ns| TraceSpan {
            id,
            parent,
            label,
            detail: String::new(),
            duration_ns: ns,
        };
        let trace = Trace {
            annotation: 1,
            epoch: 0,
            lsn: 0,
            spans: vec![
                mk(10, 0, "root", 100),
                mk(11, 10, "fast", 10),
                mk(12, 10, "slow", 80),
                mk(13, 12, "slow.child", 70),
            ],
        };
        let path: Vec<&str> = trace.critical_path().iter().map(|s| s.label).collect();
        assert_eq!(path, vec!["root", "slow", "slow.child"]);
        let selfs = trace.self_times();
        assert_eq!(selfs["root"], 10, "100 - (10 + 80)");
        assert_eq!(selfs["slow"], 10, "80 - 70");
        assert_eq!(selfs["slow.child"], 70);
    }

    #[test]
    fn attribution_aggregates_self_time_across_traces() {
        let _g = guard();
        set_enabled(true);
        reset();
        build_one(1).expect("committed");
        build_one(2).expect("committed");
        let all = traces();
        set_enabled(false);
        assert_eq!(all.len(), 2);
        let attr = attribution(&all);
        assert_eq!(attr.traces, 2);
        assert!(attr.total_ns >= 150, "two roots, each extended by 75ns of waits");
        let labels: Vec<&str> = attr.segments.iter().map(|(l, _)| *l).collect();
        assert!(labels.contains(&"ingest.queue_wait"), "{labels:?}");
        assert!(labels.contains(&"stage2.execute"), "{labels:?}");
        assert!(attr.dominant().is_some());
        assert!(attr.render_text().contains("critical path over 2 trace(s)"));
        assert_eq!(attribution(&[]).render_text(), "critical path: no traces recorded");
    }

    #[test]
    fn unbound_or_abandoned_traces_are_discarded() {
        let _g = guard();
        set_enabled(true);
        reset();
        assert!(start("ingest.item", String::new));
        let _ = crate::span("stage0.register");
        assert!(finish().is_none(), "no annotation bound");
        assert!(start("ingest.item", String::new));
        bind(5);
        abandon();
        assert!(finish().is_none(), "abandoned builders never commit");
        assert!(traces().is_empty());
        set_enabled(false);
    }

    #[test]
    fn start_if_idle_respects_an_active_trace() {
        let _g = guard();
        set_enabled(true);
        reset();
        assert!(start_if_idle("core.process_annotation"), "idle thread starts");
        assert!(!start_if_idle("core.process_annotation"), "active thread declines");
        abandon();
        set_enabled(false);
    }

    #[test]
    fn trace_ring_is_bounded() {
        let _g = guard();
        set_enabled(true);
        reset();
        for i in 0..(TRACE_CAPACITY as u64 + 3) {
            assert!(start("ingest.item", String::new));
            bind(i);
            finish().expect("committed");
        }
        let all = traces();
        set_enabled(false);
        assert_eq!(all.len(), TRACE_CAPACITY);
        assert_eq!(all.first().map(|t| t.annotation), Some(3), "oldest evicted");
    }

    #[test]
    fn flight_recorder_rings_and_dumps() {
        let _g = guard();
        set_enabled(true);
        reset();
        flight_event("health", "healthy->degraded".into());
        flight_event("breaker.trip", "breaker=wal trips=1".into());
        flight_event("health", "degraded->wedged".into());
        flight_dump("ingest.wedged");
        let dumps = flight_dumps();
        set_enabled(false);

        assert_eq!(dumps.len(), 1);
        let dump = &dumps[0];
        assert_eq!(dump.trigger, "ingest.wedged");
        assert_eq!(dump.events.len(), 3);
        let seqs: Vec<u64> = dump.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3], "causal order preserved");
        let json = dump.render_json();
        assert!(json.contains("\"trigger\": \"ingest.wedged\""));
        assert!(json.contains("degraded->wedged"));
        assert_eq!(json, dump.render_json(), "rendering is deterministic");
    }

    #[test]
    fn flight_ring_is_bounded() {
        let _g = guard();
        set_enabled(true);
        reset();
        for i in 0..(FLIGHT_CAPACITY as u64 + 5) {
            flight_event("shed", format!("index={i}"));
        }
        let events = flight_events();
        set_enabled(false);
        assert_eq!(events.len(), FLIGHT_CAPACITY);
        assert_eq!(events.first().map(|e| e.seq), Some(6), "oldest evicted");
    }
}
