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
    // aside; histogram keys and observation counts likewise (latencies
    // themselves are wall-clock and not comparable).
    let counters = |snap: &nebula::nebula_obs::TelemetrySnapshot| -> Vec<(String, u64)> {
        snap.counters
            .iter()
            .filter(|(k, _)| !k.starts_with("durable."))
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
        let plan = FaultPlan::new(0xF00D).with_net(0.15, 0.15, 0.1, 0.1);
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

/// Worker counts exercised by the concurrency-equivalence tests:
/// `NEBULA_WORKERS` (comma-separated), default `1,2,8`. CI's thread-count
/// matrix pins one value per job.
fn worker_counts() -> Vec<usize> {
    std::env::var("NEBULA_WORKERS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|n| *n > 0)
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 8])
}

/// The worker pool is a concurrency construct, not a semantics one: for a
/// fixed fault seed and a non-shedding configuration, the concurrent batch
/// report renders byte-identically to `process_batch` at every worker
/// count — faults, retries, quarantines and all.
#[test]
fn concurrent_ingest_matches_sequential_at_any_worker_count() {
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

    for workers in worker_counts() {
        let (mut bundle, mut nebula, items) = prepared();
        let ingest_items: Vec<_> =
            items.iter().map(|(a, focal)| IngestItem::new(a.clone(), focal.clone())).collect();
        nebula::nebula_govern::set_fault_plan(plan());
        let report = ingest_batch(
            &mut nebula,
            &bundle.db,
            &mut bundle.annotations,
            &ingest_items,
            &IngestConfig::deterministic(workers, ingest_items.len()),
        );
        nebula::nebula_govern::set_fault_plan(None);
        assert!(report.sheds.is_empty(), "deterministic config never sheds");
        assert_eq!(
            sequential,
            format!("{:?}", report.batch),
            "workers={workers} diverged from the sequential batch"
        );
    }
}

/// The single-writer pool preserves PR 3's ordering guarantee end to end:
/// with the WAL attached (including mid-batch checkpoints), the recovered
/// on-disk state after a concurrent ingest is byte-identical to the
/// sequential run's, at every worker count.
#[test]
fn concurrent_ingest_recovers_to_the_same_bytes_as_sequential() {
    let _serial = guard();
    let plan = || Some(FaultPlan::uniform(0xD1CE, 0.2));

    // Run 12 annotations through a WAL-backed engine (checkpoint every 5
    // records so the periodic checkpoint path runs mid-batch), then
    // recover from disk and digest the recovered annotation store.
    let run = |workers: Option<usize>| -> (String, Vec<u8>) {
        let dir = std::env::temp_dir().join(format!(
            "nebula-determinism-pool-{}-{}",
            std::process::id(),
            workers.map_or("seq".to_string(), |w| w.to_string())
        ));
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
        let rendered = match workers {
            None => {
                let report = nebula.process_batch(&bundle.db, &mut bundle.annotations, &items);
                format!("{report:?}")
            }
            Some(w) => {
                let ingest_items: Vec<_> = items
                    .iter()
                    .map(|(a, focal)| IngestItem::new(a.clone(), focal.clone()))
                    .collect();
                let report = ingest_batch(
                    &mut nebula,
                    &bundle.db,
                    &mut bundle.annotations,
                    &ingest_items,
                    &IngestConfig::deterministic(w, ingest_items.len()),
                );
                format!("{:?}", report.batch)
            }
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

    let (seq_report, seq_bytes) = run(None);
    for workers in worker_counts() {
        let (report, bytes) = run(Some(workers));
        assert_eq!(seq_report, report, "workers={workers}: batch report diverged");
        assert_eq!(seq_bytes, bytes, "workers={workers}: recovered store bytes diverged");
    }
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
/// committed work. For a fixed fault seed, a WAL-backed concurrent ingest
/// renders byte-identical structure-only trace JSON at every worker
/// count (durations are wall-clock and excluded from that rendering).
#[test]
fn trace_structure_is_byte_identical_at_any_worker_count() {
    let _serial = guard();
    let seed = trace_fault_seed();

    let run = |workers: usize| -> String {
        let dir = std::env::temp_dir()
            .join(format!("nebula-determinism-trace-{}-{workers}", std::process::id()));
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

        nebula::nebula_obs::trace::set_enabled(true);
        nebula::nebula_obs::trace::reset();
        nebula::nebula_govern::set_fault_plan(Some(FaultPlan::uniform(seed, 0.2)));
        let report = ingest_batch(
            &mut nebula,
            &bundle.db,
            &mut bundle.annotations,
            &items,
            &IngestConfig::deterministic(workers, items.len()),
        );
        nebula::nebula_govern::set_fault_plan(None);
        let traces = nebula::nebula_obs::trace::traces();
        nebula::nebula_obs::trace::set_enabled(false);
        drop(nebula.take_mutation_sink());
        let _ = std::fs::remove_dir_all(&dir);

        assert!(report.sheds.is_empty(), "deterministic config never sheds");
        assert!(!traces.is_empty(), "committed annotations leave traces");
        nebula::nebula_obs::trace::render_traces_json(&traces)
    };

    let reference = run(1);
    // Shape sanity: every layer of the commit path shows up in the trees.
    for label in ["ingest.item", "ingest.queue_wait", "core.process_annotation", "durable.append"] {
        assert!(reference.contains(label), "reference traces missing {label}");
    }
    for workers in worker_counts().into_iter().filter(|w| *w != 1) {
        assert_eq!(reference, run(workers), "workers={workers}: trace structure diverged");
    }
}

/// Tracing observes the commit path; it must never steer it. The same
/// WAL-backed concurrent batch with tracing off and on produces a
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

        nebula::nebula_obs::trace::set_enabled(tracing_on);
        nebula::nebula_obs::trace::reset();
        nebula::nebula_govern::set_fault_plan(Some(FaultPlan::uniform(seed, 0.2)));
        let report = ingest_batch(
            &mut nebula,
            &bundle.db,
            &mut bundle.annotations,
            &items,
            &IngestConfig::deterministic(2, items.len()),
        );
        nebula::nebula_govern::set_fault_plan(None);
        nebula::nebula_obs::trace::set_enabled(false);
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
