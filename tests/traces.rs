//! Golden trace format: a scripted span tree rendered to structure-only
//! JSON must match the checked-in sample byte for byte.
//!
//! The sample (`samples/traces/pipeline.trace.json`) is what external
//! consumers of `nebula_obs::trace::render_traces_json` parse, so format
//! drift is a compatibility break: either restore the
//! old rendering or regenerate the sample via the ignored test below and
//! call the change out in the PR.

use nebula::nebula_obs::{self, names, trace};
use nebula::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The trace ring is process-global; serialize the tests that script it.
static GUARD: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

fn sample_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("samples/traces/pipeline.trace.json")
}

/// Script two commit traces with the exact label vocabulary the real
/// commit path emits — admission root, queue wait, pipeline and
/// stage spans, WAL append/fsync, replication ship — using fixed
/// annotation ids, epochs, and LSNs so every span ID is a deterministic
/// function of its inputs.
fn build_sample_traces() -> Vec<trace::Trace> {
    nebula_obs::set_enabled(true);
    trace::reset();
    for (annotation, lsn) in [(7u64, 3u64), (8, 4)] {
        assert!(trace::start("ingest.item", || "class=Normal".into()));
        trace::wait("ingest.queue_wait", 1_500);
        {
            let pipeline = nebula_obs::span(names::PIPELINE);
            trace::bind(annotation);
            trace::note_epoch(1);
            nebula_obs::span(names::STAGE0_REGISTER).detail(|| "focal=1".into());
            nebula_obs::span(names::STAGE1_QUERYGEN).detail(|| "queries=4".into());
            {
                let s = nebula_obs::span(names::STAGE2_EXECUTE);
                trace::note_lsn(lsn);
                nebula_obs::span("durable.append").detail(|| format!("lsn={lsn}"));
                drop(nebula_obs::span("durable.fsync"));
                nebula_obs::span("repl.ship").detail(|| "peer=1 records=1".into());
                s.detail(|| "candidates=5".into());
            }
            nebula_obs::span(names::STAGE3_ROUTE)
                .detail(|| "accepted=1 pending=0 rejected=4".into());
            pipeline.detail(|| "accepted=1 pending=0 rejected=4".into());
        }
        drop(nebula_obs::span("durable.checkpoint"));
        trace::finish().expect("scripted trace commits");
    }
    let traces = trace::traces();
    nebula_obs::set_enabled(false);
    traces
}

/// Guards the sidecar format: the structure-only rendering of the
/// scripted traces must match the committed sample byte for byte.
#[test]
fn checked_in_golden_trace_matches_the_renderer() {
    let _serial = guard();
    let rendered = trace::render_traces_json(&build_sample_traces());
    let want = std::fs::read_to_string(sample_path())
        .expect("samples/traces/pipeline.trace.json must be checked in");
    assert_eq!(
        rendered, want,
        "trace JSON drifted from the checked-in sample; regenerate via \
         `cargo test --test traces regenerate -- --ignored` if intentional"
    );
}

/// The scripted trees carry the whole commit path and a critical path
/// that starts at the admission root.
#[test]
fn golden_traces_are_rooted_and_analyzable() {
    let _serial = guard();
    let traces = build_sample_traces();
    assert_eq!(traces.len(), 2);
    for t in &traces {
        assert_eq!(t.root().label, "ingest.item");
        let path = t.critical_path();
        assert_eq!(path[0].label, "ingest.item", "critical path starts at the root");
        assert!(path.len() > 1, "the path descends into the tree");
        let tree = t.render_tree();
        for label in
            ["ingest.item", names::PIPELINE, "durable.append", "repl.ship", "critical path ends"]
        {
            assert!(tree.contains(label), "render_tree missing {label}:\n{tree}");
        }
    }
    // Aggregate attribution sees both traces and keeps label order stable.
    let attr = trace::attribution(&traces);
    assert_eq!(attr.traces, 2);
    assert!(attr.dominant().is_some());
}

/// A virtual clock that runs faster with every reading (the n-th reads
/// n² µs), in force only while `ACCELERATING` is on: two timings of one
/// scope taken at different readings cannot agree by accident.
static ACCELERATING: AtomicBool = AtomicBool::new(false);
static READINGS: AtomicU64 = AtomicU64::new(0);

fn accelerating_clock() -> Option<u64> {
    ACCELERATING.load(Ordering::Relaxed).then(|| {
        let n = READINGS.fetch_add(1, Ordering::Relaxed) + 1;
        n * n * 1_000
    })
}

/// When `process_annotation` owns the trace root (sequential callers, the
/// shell), the root node carries the pipeline span's one measurement:
/// `TRACE ANNOTATION` and `SHOW METRICS` read the same duration.
#[test]
fn an_owned_trace_root_reads_the_pipeline_histogram() {
    let _serial = guard();
    let mut bundle = generate_dataset(&DatasetSpec::tiny(), 42);
    let mut nebula = Nebula::new(NebulaConfig::default(), bundle.meta.clone());
    nebula.bootstrap_acg(&bundle.annotations);
    let gene = bundle.db.catalog().resolve("gene").expect("gene table");
    let focal = bundle.db.table(gene).expect("gene rows").scan().next().expect("a gene").id;
    let annotation = Annotation::new("this gene correlates with JW0001 and JW0003");

    trace::install_time_source(accelerating_clock);
    nebula_obs::set_enabled(true);
    nebula_obs::reset();
    trace::reset();
    ACCELERATING.store(true, Ordering::Relaxed);
    let outcome = nebula
        .process_annotation(&bundle.db, &mut bundle.annotations, &annotation, &[focal])
        .expect("pipeline runs");
    ACCELERATING.store(false, Ordering::Relaxed);
    let histogram = nebula_obs::snapshot().histograms[names::PIPELINE].clone();
    let trace = trace::for_annotation(outcome.annotation.0).expect("the owned root committed");
    nebula_obs::set_enabled(false);

    assert_eq!(trace.root().label, names::PIPELINE, "process_annotation owned the root");
    assert!(trace.spans.len() > 1, "stage spans hang under the root");
    assert_eq!(histogram.count, 1);
    assert!(
        histogram.sum_ns > 0 && histogram.sum_ns.is_multiple_of(1_000),
        "timed on the virtual clock"
    );
    assert_eq!(trace.root().duration_ns, histogram.sum_ns, "one scope, one measurement");
}

/// Regenerates `samples/traces/pipeline.trace.json`. Ignored in normal
/// runs; invoke by hand after an intentional format change:
/// `cargo test --test traces regenerate -- --ignored`.
#[test]
#[ignore = "rewrites the checked-in sample; run manually after intentional format changes"]
fn regenerate_golden_trace_sample() {
    let _serial = guard();
    let rendered = trace::render_traces_json(&build_sample_traces());
    let path = sample_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, rendered).unwrap();
    drop(_serial);
    // Prove the freshly generated sample satisfies the drift test.
    checked_in_golden_trace_matches_the_renderer();
}
