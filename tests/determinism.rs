//! Determinism: the entire pipeline — generation, discovery, routing — is
//! reproducible bit-for-bit from the seeds.

use nebula::nebula_workload::{build_workload, WorkloadSpec};
use nebula::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Telemetry is process-global; tests in this binary that enable it (or
/// run the pipeline while another test might have it enabled) serialize
/// through this guard so counter diffs stay attributable.
static GUARD: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run the pipeline under `config` and render every outcome to its full
/// Debug form, so comparisons catch any divergence, not just the headline
/// counts.
fn run_pipeline_debug_with(seed: u64, config: NebulaConfig) -> Vec<String> {
    let mut bundle = generate_dataset(&DatasetSpec::tiny(), seed);
    let workload = build_workload(&bundle, &WorkloadSpec::default(), seed);
    let mut nebula = Nebula::new(config, bundle.meta.clone());
    nebula.bootstrap_acg(&bundle.annotations);
    workload
        .iter()
        .flat_map(|s| &s.annotations)
        .take(10)
        .map(|wa| {
            let out = nebula
                .process_annotation(
                    &bundle.db,
                    &mut bundle.annotations,
                    &wa.annotation,
                    &[wa.ideal[0]],
                )
                .expect("pipeline runs");
            format!("{out:?}")
        })
        .collect()
}

fn run_pipeline_debug(seed: u64) -> Vec<String> {
    run_pipeline_debug_with(seed, NebulaConfig::default())
}

#[test]
fn telemetry_on_and_off_produce_identical_outcomes() {
    let _serial = guard();
    // Telemetry observes the pipeline; it must never steer it. The full
    // Debug rendering of every outcome has to match byte for byte.
    nebula::nebula_obs::set_enabled(false);
    let disabled = run_pipeline_debug(17);
    nebula::nebula_obs::set_enabled(true);
    let enabled = run_pipeline_debug(17);
    nebula::nebula_obs::set_enabled(false);
    assert_eq!(disabled, enabled);
}

fn run_pipeline(seed: u64) -> Vec<(usize, usize, usize, usize)> {
    let mut bundle = generate_dataset(&DatasetSpec::tiny(), seed);
    let workload = build_workload(&bundle, &WorkloadSpec::default(), seed);
    let mut nebula = Nebula::new(NebulaConfig::default(), bundle.meta.clone());
    nebula.bootstrap_acg(&bundle.annotations);
    workload
        .iter()
        .flat_map(|s| &s.annotations)
        .take(10)
        .map(|wa| {
            let out = nebula
                .process_annotation(
                    &bundle.db,
                    &mut bundle.annotations,
                    &wa.annotation,
                    &[wa.ideal[0]],
                )
                .expect("pipeline runs");
            (out.queries.len(), out.accepted.len(), out.pending.len(), out.rejected.len())
        })
        .collect()
}

#[test]
fn same_seed_same_outcomes() {
    let _serial = guard();
    assert_eq!(run_pipeline(11), run_pipeline(11));
}

#[test]
fn different_seeds_differ() {
    let _serial = guard();
    // Not a hard guarantee per annotation, but across 10 annotations two
    // different datasets should not produce identical traces.
    assert_ne!(run_pipeline(11), run_pipeline(12));
}

/// An explicit `usize::MAX` budget with no deadline is recognized as
/// unbounded and leaves the pipeline byte-identical to the ungoverned
/// default.
#[test]
fn unbounded_budget_is_byte_identical_to_ungoverned() {
    let _serial = guard();
    let ungoverned = run_pipeline_debug(17);
    let governed = run_pipeline_debug_with(
        17,
        NebulaConfig { budget: ExecutionBudget::unbounded(), ..Default::default() },
    );
    assert_eq!(ungoverned, governed);
}

/// A generous-but-finite budget installs the governor (every hot loop
/// charges against it) yet never trips — so the full Debug rendering of
/// every outcome must still match the ungoverned run byte for byte.
#[test]
fn untripped_governor_is_byte_identical_to_ungoverned() {
    let _serial = guard();
    let ungoverned = run_pipeline_debug(17);
    let governed = run_pipeline_debug_with(
        17,
        NebulaConfig {
            budget: ExecutionBudget::unbounded()
                .with_deadline(std::time::Duration::from_secs(3600))
                .with_max_tuples(1 << 40)
                .with_max_configurations(1 << 40)
                .with_max_candidates(1 << 40),
            ..Default::default()
        },
    );
    assert_eq!(ungoverned, governed);
}

/// Degraded runs stay sound: when a tight tuple budget forces the
/// focal-fallback ladder, every candidate the degraded engine proposes is
/// one the unbounded full search would also have proposed (or a focal
/// tuple itself) — degradation loses recall, never invents results.
#[test]
fn degraded_focal_candidates_are_subset_of_full_search() {
    let _serial = guard();
    // Reject everything so neither engine mutates the attachment graph and
    // the two runs stay state-identical annotation by annotation.
    let bounds = VerificationBounds::new(1.1, 1.1);
    let run = |budget: ExecutionBudget| -> Vec<(TupleId, ProcessOutcome)> {
        let mut bundle = generate_dataset(&DatasetSpec::tiny(), 21);
        let workload = build_workload(&bundle, &WorkloadSpec::default(), 21);
        let mut nebula =
            Nebula::new(NebulaConfig { bounds, budget, ..Default::default() }, bundle.meta.clone());
        nebula.bootstrap_acg(&bundle.annotations);
        nebula.acg_mut().set_stable(true);
        workload
            .iter()
            .flat_map(|s| &s.annotations)
            .filter(|wa| !wa.ideal.is_empty())
            .take(10)
            .map(|wa| {
                let out = nebula
                    .process_annotation(
                        &bundle.db,
                        &mut bundle.annotations,
                        &wa.annotation,
                        &[wa.ideal[0]],
                    )
                    .expect("budget trips degrade, they do not fail");
                (wa.ideal[0], out)
            })
            .collect()
    };

    let full = run(ExecutionBudget::unbounded());
    let tight = run(ExecutionBudget::unbounded().with_max_tuples(5));

    assert_eq!(full.len(), tight.len());
    let mut fallbacks = 0;
    for ((_, f), (focal, t)) in full.iter().zip(&tight) {
        if t.degradations.iter().any(|d| matches!(d, Degradation::FocalFallback { .. })) {
            fallbacks += 1;
        }
        let full_set: std::collections::HashSet<TupleId> =
            f.candidates.iter().map(|c| c.tuple).collect();
        for c in &t.candidates {
            assert!(
                full_set.contains(&c.tuple) || c.tuple == *focal,
                "degraded search proposed {} that the full search never saw",
                c.tuple
            );
        }
    }
    assert!(fallbacks > 0, "the tight budget never tripped — test is vacuous");
}

/// Durability observes the pipeline and must never steer it: the same
/// batch with the WAL on and off produces a byte-identical batch report,
/// and identical pipeline metrics modulo the `durable.*` keys the sink
/// itself emits. A replicated sink is as transparent, under either commit
/// rule and over a lossy transport, and both rules ship the same records.
#[test]
fn durability_on_and_off_produce_identical_outcomes() {
    let _serial = guard();
    let dir =
        std::env::temp_dir().join(format!("nebula-determinism-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let fixture = || {
        let bundle = generate_dataset(&DatasetSpec::tiny(), 29);
        let workload = build_workload(&bundle, &WorkloadSpec::default(), 29);
        let items: Vec<_> = workload
            .iter()
            .flat_map(|s| &s.annotations)
            .filter(|wa| !wa.ideal.is_empty())
            .take(12)
            .map(|wa| (wa.annotation.clone(), vec![wa.ideal[0]]))
            .collect();
        let mut nebula = Nebula::new(NebulaConfig::default(), bundle.meta.clone());
        nebula.bootstrap_acg(&bundle.annotations);
        (bundle, nebula, items)
    };
    let run = |wal_dir: Option<&std::path::Path>| {
        let (mut bundle, mut nebula, items) = fixture();
        if let Some(d) = wal_dir {
            let durability =
                Durability::begin(d, &bundle.db, &bundle.annotations, DurabilityOptions::default())
                    .expect("fresh durability directory");
            nebula.set_mutation_sink(Some(Box::new(durability)));
        }
        nebula::nebula_obs::reset();
        nebula::nebula_obs::set_enabled(true);
        let report = nebula.process_batch(&bundle.db, &mut bundle.annotations, &items);
        nebula::nebula_obs::set_enabled(false);
        let snap = nebula::nebula_obs::snapshot();
        drop(nebula.take_mutation_sink());
        (format!("{report:?}"), snap)
    };

    let (off_report, off_snap) = run(None);
    let (on_report, on_snap) = run(Some(&dir));
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(off_report, on_report, "the WAL must not change what the batch produces");

    // Counters match exactly once the sink's own `durable.*` keys are set
    // aside, and with them `trace.spans`, which also counts the sink's
    // `durable.*` nodes in the span trees; histogram keys and observation
    // counts likewise (latencies themselves are wall-clock and not
    // comparable).
    let counters = |snap: &nebula::nebula_obs::TelemetrySnapshot| -> Vec<(String, u64)> {
        snap.counters
            .iter()
            .filter(|(k, _)| !k.starts_with("durable.") && *k != "trace.spans")
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    };
    assert_eq!(counters(&off_snap), counters(&on_snap));
    let spans = |snap: &nebula::nebula_obs::TelemetrySnapshot| -> Vec<(String, u64)> {
        snap.histograms
            .iter()
            .filter(|(k, _)| !k.starts_with("durable."))
            .map(|(k, h)| (k.clone(), h.count))
            .collect()
    };
    assert_eq!(spans(&off_snap), spans(&on_snap));

    // And the durable keys exist exactly when the sink is attached.
    assert!(on_snap.counters.keys().any(|k| k.starts_with("durable.")));
    assert!(!off_snap.counters.keys().any(|k| k.starts_with("durable.")));

    // The same batch through a two-replica cluster whose every link
    // drops, delays, reorders and duplicates frames.
    let replicated = |rule: CommitRule| {
        let (mut bundle, mut nebula, items) = fixture();
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::new(0xF00D)
            .with(FaultSite::NetDrop, 0.15)
            .with(FaultSite::NetDelay, 0.15)
            .with(FaultSite::NetReorder, 0.1)
            .with(FaultSite::NetDuplicate, 0.1);
        let cluster = Cluster::new(
            &dir,
            &bundle.db,
            &bundle.annotations,
            2,
            Box::new(SimTransport::new(3, plan)),
            ClusterConfig { rule, ..ClusterConfig::default() },
        )
        .expect("fresh cluster directory");
        let sink = ClusterSink::new(cluster);
        let handle = sink.handle();
        nebula.set_mutation_sink(Some(Box::new(sink)));
        let report = nebula.process_batch(&bundle.db, &mut bundle.annotations, &items);
        drop(nebula.take_mutation_sink());
        let records = handle.lock().primary().last_lsn();
        let _ = std::fs::remove_dir_all(&dir);
        (format!("{report:?}"), records)
    };
    let (none_report, none_records) = replicated(CommitRule::Local);
    let (quorum_report, quorum_records) = replicated(CommitRule::Quorum(2));
    assert_eq!(off_report, none_report, "ack-none must not change what the batch produces");
    assert_eq!(off_report, quorum_report, "ack-quorum must not change what the batch produces");
    assert!(none_records > 0, "the batch shipped records");
    assert_eq!(none_records, quorum_records, "the commit rule never changes what is shipped");
}

/// The ingest front end is an overload construct, not a semantics one:
/// for a fixed fault seed and a non-shedding configuration, its batch
/// report renders byte-identically to `process_batch` — faults, retries,
/// quarantines and all.
#[test]
fn ingest_batch_matches_process_batch_under_faults() {
    let _serial = guard();
    let plan = || Some(FaultPlan::uniform(0xBEEF, 0.2));

    let prepared = || {
        let bundle = generate_dataset(&DatasetSpec::tiny(), 37);
        let workload = build_workload(&bundle, &WorkloadSpec::default(), 37);
        let items: Vec<_> = workload
            .iter()
            .flat_map(|s| &s.annotations)
            .filter(|wa| !wa.ideal.is_empty())
            .take(12)
            .map(|wa| (wa.annotation.clone(), vec![wa.ideal[0]]))
            .collect();
        let mut nebula = Nebula::new(NebulaConfig::default(), bundle.meta.clone());
        nebula.bootstrap_acg(&bundle.annotations);
        (bundle, nebula, items)
    };

    let sequential = {
        let (mut bundle, mut nebula, items) = prepared();
        nebula::nebula_govern::set_fault_plan(plan());
        let report = nebula.process_batch(&bundle.db, &mut bundle.annotations, &items);
        nebula::nebula_govern::set_fault_plan(None);
        format!("{report:?}")
    };

    let (mut bundle, mut nebula, items) = prepared();
    let ingest_items: Vec<_> =
        items.iter().map(|(a, focal)| IngestItem::new(a.clone(), focal.clone())).collect();
    nebula::nebula_govern::set_fault_plan(plan());
    let report = ingest_batch(
        &mut nebula,
        &bundle.db,
        &mut bundle.annotations,
        &ingest_items,
        &IngestConfig::deterministic(1, ingest_items.len()),
    );
    nebula::nebula_govern::set_fault_plan(None);
    assert!(report.sheds.is_empty(), "deterministic config never sheds");
    assert_eq!(sequential, format!("{:?}", report.batch), "diverged from the sequential batch");
}

/// The ingest front end preserves the WAL's ordering guarantee end to end:
/// with the WAL attached (including mid-batch checkpoints), the recovered
/// on-disk state after `ingest_batch` is byte-identical to
/// `process_batch`'s.
#[test]
fn concurrent_ingest_recovers_to_the_same_bytes_as_sequential() {
    let _serial = guard();
    let plan = || Some(FaultPlan::uniform(0xD1CE, 0.2));

    // Run 12 annotations through a WAL-backed engine (checkpoint every 5
    // records so the periodic checkpoint path runs mid-batch), then
    // recover from disk and digest the recovered annotation store.
    let run = |front_end: bool| -> (String, Vec<u8>) {
        let dir = std::env::temp_dir()
            .join(format!("nebula-determinism-pool-{}-{front_end}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut bundle = generate_dataset(&DatasetSpec::tiny(), 41);
        let workload = build_workload(&bundle, &WorkloadSpec::default(), 41);
        let items: Vec<_> = workload
            .iter()
            .flat_map(|s| &s.annotations)
            .filter(|wa| !wa.ideal.is_empty())
            .take(12)
            .map(|wa| (wa.annotation.clone(), vec![wa.ideal[0]]))
            .collect();
        let mut nebula = Nebula::new(NebulaConfig::default(), bundle.meta.clone());
        nebula.bootstrap_acg(&bundle.annotations);
        let options = DurabilityOptions { checkpoint_every: Some(5), ..Default::default() };
        let durability = Durability::begin(&dir, &bundle.db, &bundle.annotations, options)
            .expect("fresh durability directory");
        nebula.set_mutation_sink(Some(Box::new(durability)));

        nebula::nebula_govern::set_fault_plan(plan());
        let rendered = if front_end {
            let ingest_items: Vec<_> =
                items.iter().map(|(a, focal)| IngestItem::new(a.clone(), focal.clone())).collect();
            let report = ingest_batch(
                &mut nebula,
                &bundle.db,
                &mut bundle.annotations,
                &ingest_items,
                &IngestConfig::deterministic(1, ingest_items.len()),
            );
            format!("{:?}", report.batch)
        } else {
            let report = nebula.process_batch(&bundle.db, &mut bundle.annotations, &items);
            format!("{report:?}")
        };
        nebula::nebula_govern::set_fault_plan(None);
        drop(nebula.take_mutation_sink());

        let (resumed, recovered) = Durability::resume(&dir, DurabilityOptions::default())
            .expect("recovery from a cleanly closed log");
        drop(resumed);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            recovered.store.annotation_count(),
            bundle.annotations.annotation_count(),
            "recovery restores every annotation"
        );
        (rendered, nebula::annostore::snapshot::save(&recovered.store).to_vec())
    };

    let (seq_report, seq_bytes) = run(false);
    let (report, bytes) = run(true);
    assert_eq!(seq_report, report, "batch report diverged");
    assert_eq!(seq_bytes, bytes, "recovered store bytes diverged");
}

/// The fault seed honored by the trace-determinism tests:
/// `NEBULA_FAULT_SEED` (hex with `0x` prefix or decimal), default
/// `0xF00D` — the same knob the durability and replication suites read.
/// CI's tracing matrix pins seeds here.
fn trace_fault_seed() -> u64 {
    std::env::var("NEBULA_FAULT_SEED")
        .ok()
        .and_then(|s| {
            let s = s.trim().to_string();
            match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => s.parse().ok(),
            }
        })
        .unwrap_or(0xF00D)
}

/// The tentpole tracing claim: span-tree *structure* — IDs, parent links,
/// labels, details, the whole causal shape — is a pure function of the
/// committed work. For a fixed fault seed, two WAL-backed ingest runs
/// render byte-identical structure-only trace JSON (durations are
/// wall-clock and excluded from that rendering).
#[test]
fn trace_structure_is_byte_identical_across_runs() {
    let _serial = guard();
    let seed = trace_fault_seed();

    let run = || -> String {
        let dir =
            std::env::temp_dir().join(format!("nebula-determinism-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut bundle = generate_dataset(&DatasetSpec::tiny(), 43);
        let workload = build_workload(&bundle, &WorkloadSpec::default(), 43);
        let items: Vec<_> = workload
            .iter()
            .flat_map(|s| &s.annotations)
            .filter(|wa| !wa.ideal.is_empty())
            .take(12)
            .map(|wa| IngestItem::new(wa.annotation.clone(), vec![wa.ideal[0]]))
            .collect();
        let mut nebula = Nebula::new(NebulaConfig::default(), bundle.meta.clone());
        nebula.bootstrap_acg(&bundle.annotations);
        let options = DurabilityOptions { checkpoint_every: Some(5), ..Default::default() };
        let durability = Durability::begin(&dir, &bundle.db, &bundle.annotations, options)
            .expect("fresh durability directory");
        nebula.set_mutation_sink(Some(Box::new(durability)));

        nebula::nebula_obs::set_enabled(true);
        nebula::nebula_obs::trace::reset();
        nebula::nebula_govern::set_fault_plan(Some(FaultPlan::uniform(seed, 0.2)));
        let report = ingest_batch(
            &mut nebula,
            &bundle.db,
            &mut bundle.annotations,
            &items,
            &IngestConfig::deterministic(1, items.len()),
        );
        nebula::nebula_govern::set_fault_plan(None);
        let traces = nebula::nebula_obs::trace::traces();
        nebula::nebula_obs::set_enabled(false);
        drop(nebula.take_mutation_sink());
        let _ = std::fs::remove_dir_all(&dir);

        assert!(report.sheds.is_empty(), "deterministic config never sheds");
        assert!(!traces.is_empty(), "committed annotations leave traces");
        nebula::nebula_obs::trace::render_traces_json(&traces)
    };

    let reference = run();
    // Shape sanity: every layer of the commit path shows up in the trees.
    for label in ["ingest.item", "ingest.queue_wait", "core.process_annotation", "durable.append"] {
        assert!(reference.contains(label), "reference traces missing {label}");
    }
    assert_eq!(reference, run(), "trace structure diverged between two runs");
}

/// Tracing observes the commit path; it must never steer it. The same
/// WAL-backed ingest batch with tracing off and on produces a
/// byte-identical batch report and byte-identical recovered store bytes.
#[test]
fn tracing_on_and_off_produce_identical_outcomes() {
    let _serial = guard();
    let seed = trace_fault_seed();

    let run = |tracing_on: bool| -> (String, Vec<u8>) {
        let dir = std::env::temp_dir()
            .join(format!("nebula-determinism-traceonoff-{}-{tracing_on}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut bundle = generate_dataset(&DatasetSpec::tiny(), 47);
        let workload = build_workload(&bundle, &WorkloadSpec::default(), 47);
        let items: Vec<_> = workload
            .iter()
            .flat_map(|s| &s.annotations)
            .filter(|wa| !wa.ideal.is_empty())
            .take(12)
            .map(|wa| IngestItem::new(wa.annotation.clone(), vec![wa.ideal[0]]))
            .collect();
        let mut nebula = Nebula::new(NebulaConfig::default(), bundle.meta.clone());
        nebula.bootstrap_acg(&bundle.annotations);
        let options = DurabilityOptions { checkpoint_every: Some(5), ..Default::default() };
        let durability = Durability::begin(&dir, &bundle.db, &bundle.annotations, options)
            .expect("fresh durability directory");
        nebula.set_mutation_sink(Some(Box::new(durability)));

        nebula::nebula_obs::set_enabled(tracing_on);
        nebula::nebula_obs::trace::reset();
        nebula::nebula_govern::set_fault_plan(Some(FaultPlan::uniform(seed, 0.2)));
        let report = ingest_batch(
            &mut nebula,
            &bundle.db,
            &mut bundle.annotations,
            &items,
            &IngestConfig::deterministic(1, items.len()),
        );
        nebula::nebula_govern::set_fault_plan(None);
        nebula::nebula_obs::set_enabled(false);
        drop(nebula.take_mutation_sink());

        let (resumed, recovered) = Durability::resume(&dir, DurabilityOptions::default())
            .expect("recovery from a cleanly closed log");
        drop(resumed);
        let _ = std::fs::remove_dir_all(&dir);
        (
            format!("{:?}", report.batch),
            nebula::annostore::snapshot::save(&recovered.store).to_vec(),
        )
    };

    let (off_report, off_bytes) = run(false);
    let (on_report, on_bytes) = run(true);
    assert_eq!(off_report, on_report, "tracing must not change what the batch produces");
    assert_eq!(off_bytes, on_bytes, "tracing must not change the recovered store bytes");
}

#[test]
fn dataset_generation_is_pure() {
    let _serial = guard();
    let a = generate_dataset(&DatasetSpec::tiny(), 33);
    let b = generate_dataset(&DatasetSpec::tiny(), 33);
    assert_eq!(a.db.total_tuples(), b.db.total_tuples());
    for (x, y) in a.gene_tuples.iter().zip(&b.gene_tuples) {
        assert_eq!(a.db.get(*x).expect("live").values, b.db.get(*y).expect("live").values);
    }
    assert_eq!(a.annotations.annotation_count(), b.annotations.annotation_count());
    for (ia, ib) in a.annotations.iter_annotations().zip(b.annotations.iter_annotations()) {
        assert_eq!(ia.1.text, ib.1.text);
    }
}

/// Span labels whose scopes fed only the trace before every span also fed
/// a histogram. The pinned telemetry below predates them, so they are set
/// aside there; each must be a registered span name.
const HISTOGRAMS_ADDED_WITH_ONE_SPAN_TYPE: [&str; 5] =
    ["durable.fsync", "repair.scrub", "repl.ack", "repl.quorum", "repl.ship"];

/// Run `work` with collection on (one switch covers telemetry and span
/// trees) and render what it recorded: the structure-only trace JSON, and a
/// telemetry fingerprint of every counter, every histogram's observation
/// count, every pipeline event without its duration, and the flight ring.
fn recorded(work: impl FnOnce()) -> (String, String) {
    use std::fmt::Write;
    nebula::nebula_obs::reset();
    nebula::nebula_obs::trace::reset();
    nebula::nebula_obs::set_enabled(true);
    work();
    nebula::nebula_obs::set_enabled(false);
    let traces =
        nebula::nebula_obs::trace::render_traces_json(&nebula::nebula_obs::trace::traces());
    let snap = nebula::nebula_obs::snapshot();
    let mut telemetry = String::new();
    for (name, value) in &snap.counters {
        let _ = writeln!(telemetry, "counter {name} {value}");
    }
    for (name, h) in &snap.histograms {
        if !HISTOGRAMS_ADDED_WITH_ONE_SPAN_TYPE.contains(&name.as_str()) {
            let _ = writeln!(telemetry, "histogram {name} {}", h.count);
        }
    }
    for e in &snap.events {
        let _ = writeln!(
            telemetry,
            "event A{} {} {} {}",
            e.annotation_id, e.stage, e.candidates, e.decision
        );
    }
    for e in nebula::nebula_obs::trace::flight_events() {
        let _ = writeln!(telemetry, "flight {} {} {}", e.seq, e.kind, e.detail);
    }
    (traces, telemetry)
}

fn digest(text: &str) -> u64 {
    nebula::nebula_codec::fnv1a::fnv1a(nebula::nebula_codec::fnv1a::OFFSET, text.as_bytes())
}

/// The trace structure and the telemetry of two fixed-seed runs are pinned:
/// a faulty ingest batch through a checkpointing WAL, and a batch through a
/// 3-replica cluster under ack-quorum(2). The digests were taken before
/// telemetry and tracing shared one span type and one switch, so timing
/// each scope once changed no span, parent link, detail, counter,
/// observation count or event. (Named `trac…` so CI's tracing filter runs
/// it; the seeds are fixed, not read from `NEBULA_FAULT_SEED`.)
#[test]
fn tracing_and_telemetry_match_their_pinned_digests() {
    let _serial = guard();
    let fixture = |seed: u64| {
        let bundle = generate_dataset(&DatasetSpec::tiny(), seed);
        let workload = build_workload(&bundle, &WorkloadSpec::default(), seed);
        let items: Vec<_> = workload
            .iter()
            .flat_map(|s| &s.annotations)
            .filter(|wa| !wa.ideal.is_empty())
            .take(12)
            .map(|wa| (wa.annotation.clone(), vec![wa.ideal[0]]))
            .collect();
        let mut nebula = Nebula::new(NebulaConfig::default(), bundle.meta.clone());
        nebula.bootstrap_acg(&bundle.annotations);
        (bundle, nebula, items)
    };

    let wal_dir =
        std::env::temp_dir().join(format!("nebula-determinism-pinned-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let (mut bundle, mut nebula, items) = fixture(43);
    let options = DurabilityOptions { checkpoint_every: Some(5), ..Default::default() };
    let durability = Durability::begin(&wal_dir, &bundle.db, &bundle.annotations, options)
        .expect("fresh durability directory");
    nebula.set_mutation_sink(Some(Box::new(durability)));
    let ingest_items: Vec<_> =
        items.iter().map(|(a, focal)| IngestItem::new(a.clone(), focal.clone())).collect();
    let wal = recorded(|| {
        nebula::nebula_govern::set_fault_plan(Some(FaultPlan::uniform(0xF00D, 0.2)));
        let report = ingest_batch(
            &mut nebula,
            &bundle.db,
            &mut bundle.annotations,
            &ingest_items,
            &IngestConfig::deterministic(1, ingest_items.len()),
        );
        nebula::nebula_govern::set_fault_plan(None);
        assert!(report.sheds.is_empty(), "deterministic config never sheds");
    });
    drop(nebula.take_mutation_sink());
    let _ = std::fs::remove_dir_all(&wal_dir);

    let repl_dir =
        std::env::temp_dir().join(format!("nebula-determinism-pinned-repl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&repl_dir);
    let (mut bundle, mut nebula, items) = fixture(41);
    let cluster = Cluster::new(
        &repl_dir,
        &bundle.db,
        &bundle.annotations,
        3,
        Box::new(SimTransport::reliable(4)),
        ClusterConfig { rule: CommitRule::Quorum(2), ..ClusterConfig::default() },
    )
    .expect("fresh cluster directory");
    nebula.set_mutation_sink(Some(Box::new(ClusterSink::new(cluster))));
    let repl = recorded(|| {
        nebula.process_batch(&bundle.db, &mut bundle.annotations, &items);
    });
    drop(nebula.take_mutation_sink());
    let _ = std::fs::remove_dir_all(&repl_dir);

    for label in HISTOGRAMS_ADDED_WITH_ONE_SPAN_TYPE {
        assert!(nebula::nebula_obs::registry::KNOWN_SPANS.contains(&label), "{label}");
    }
    for label in ["ingest.queue_wait", "stage2.execute", "durable.append", "durable.checkpoint"] {
        assert!(wal.0.contains(label), "WAL-run traces missing {label}");
    }
    for label in ["repl.ship", "repl.ack", "repl.quorum"] {
        assert!(repl.0.contains(label), "cluster-run traces missing {label}");
    }
    let got = [digest(&wal.0), digest(&wal.1), digest(&repl.0), digest(&repl.1)];
    let pinned = [
        0xee59_b6b1_2cca_f577,
        0x4d05_6da3_9c58_3149,
        0x3509_2814_130f_ba16,
        0x06c8_791e_fd6d_4ac9,
    ];
    if got != pinned {
        let path = std::env::temp_dir().join(format!("nebula-pinned-{}.txt", std::process::id()));
        let _ = std::fs::write(&path, [wal.0, wal.1, repl.0, repl.1].join("\n"));
        panic!(
            "[WAL traces, WAL telemetry, cluster traces, cluster telemetry] digests {got:#x?} \
             moved from {pinned:#x?}; the renderings are in {}",
            path.display()
        );
    }
}
