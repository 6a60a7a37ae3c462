//! Golden trace format: a scripted span tree rendered to structure-only
//! JSON must match the checked-in sample byte for byte.
//!
//! The sample (`samples/traces/pipeline.trace.json`) is what external
//! consumers of `nebula_obs::trace::render_traces_json` parse, so format
//! drift is a compatibility break: either restore the
//! old rendering or regenerate the sample via the ignored test below and
//! call the change out in the PR.

use nebula::nebula_obs::names;
use nebula::nebula_obs::trace;
use std::path::PathBuf;
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
/// commit path emits — admission root, queue/turn waits, pipeline and
/// stage spans, WAL append/fsync, replication ship — using fixed
/// annotation ids, epochs, and LSNs so every span ID is a deterministic
/// function of its inputs.
fn build_sample_traces() -> Vec<trace::Trace> {
    trace::set_enabled(true);
    trace::reset();
    for (annotation, lsn) in [(7u64, 3u64), (8, 4)] {
        assert!(trace::start("ingest.item"));
        trace::root_detail("class=Normal");
        trace::wait("ingest.queue_wait", String::new(), 1_500);
        trace::wait("ingest.turn_wait", String::new(), 500);
        {
            let pipeline = trace::span(names::PIPELINE);
            trace::bind(annotation);
            trace::note_epoch(1);
            {
                let s = trace::span(names::STAGE0_REGISTER);
                s.detail("focal=1");
            }
            {
                let s = trace::span(names::STAGE1_QUERYGEN);
                s.detail("queries=4");
            }
            {
                let s = trace::span(names::STAGE2_EXECUTE);
                trace::note_lsn(lsn);
                {
                    let d = trace::span("durable.append");
                    d.detail(format!("lsn={lsn}"));
                }
                drop(trace::span("durable.fsync"));
                {
                    let ship = trace::span("repl.ship");
                    ship.detail("peer=1 records=1");
                }
                s.detail("candidates=5");
            }
            {
                let s = trace::span(names::STAGE3_ROUTE);
                s.detail("accepted=1 pending=0 rejected=4");
            }
            pipeline.detail("accepted=1 pending=0 rejected=4");
        }
        drop(trace::span("durable.checkpoint"));
        trace::finish().expect("scripted trace commits");
    }
    let traces = trace::traces();
    trace::set_enabled(false);
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
