//! Flight-recorder post-mortems: the bounded event ring auto-dumps at
//! exactly the terminal conditions — an ingest engine declaring itself
//! Wedged, a primary fenced by a newer epoch, a detected divergence —
//! and each dump carries the preceding causal history (health
//! transitions, breaker trips, wedge events) in sequence order.

use nebula::nebula_durable::wal::WalOp;
use nebula::nebula_ingest::BreakerConfig;
use nebula::nebula_obs::trace;
use nebula::nebula_replica::{Frame, Primary, SimTransport};
use nebula::nebula_workload::{build_workload, WorkloadSpec};
use nebula::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// The flight recorder is process-global; tests that arm it serialize
/// through this guard so each sees only its own dumps.
static GUARD: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nebula-flight-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn op(n: u64) -> WalOp {
    WalOp::AddAnnotation {
        expected: AnnotationId(n),
        text: format!("note {n}"),
        author: None,
        kind: None,
    }
}

/// Seeded WAL faults wedge the ingest engine — and the moment the health
/// machine crosses into Wedged (a sticky state, so the transition fires
/// once), exactly one post-mortem dumps with the full causal prelude:
/// the durable-layer wedge events, the WAL breaker trip, and the health
/// transitions, in strictly increasing sequence order.
#[test]
fn wedged_ingest_dumps_exactly_one_post_mortem() {
    let _serial = guard();
    let dir = temp_dir("wedged");
    let mut bundle = generate_dataset(&DatasetSpec::tiny(), 53);
    let workload = build_workload(&bundle, &WorkloadSpec::default(), 53);
    let items: Vec<_> = workload
        .iter()
        .flat_map(|s| &s.annotations)
        .filter(|wa| !wa.ideal.is_empty())
        .take(12)
        .map(|wa| IngestItem::new(wa.annotation.clone(), vec![wa.ideal[0]]))
        .collect();
    assert!(items.len() >= 6, "enough items to wedge mid-batch");
    let mut nebula = Nebula::new(NebulaConfig::default(), bundle.meta.clone());
    nebula.bootstrap_acg(&bundle.annotations);
    let durability =
        Durability::begin(&dir, &bundle.db, &bundle.annotations, DurabilityOptions::default())
            .expect("fresh durability directory");
    nebula.set_mutation_sink(Some(Box::new(durability)));

    nebula::nebula_obs::set_enabled(true);
    trace::reset();
    // Every fsync fails: two WAL quarantines trip the breaker
    // (threshold 2), and one trip wedges the engine.
    nebula::nebula_govern::set_fault_plan(Some(
        FaultPlan::new(0xF00D).with(FaultSite::FsyncFail, 1.0),
    ));
    let config = IngestConfig {
        breaker: BreakerConfig { failure_threshold: 2, open_shed_count: 8 },
        wedge_after_wal_trips: 1,
        ..IngestConfig::default()
    };
    let report = ingest_batch(&mut nebula, &bundle.db, &mut bundle.annotations, &items, &config);
    nebula::nebula_govern::set_fault_plan(None);
    let dumps = trace::flight_dumps();
    nebula::nebula_obs::set_enabled(false);
    drop(nebula.take_mutation_sink());
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(report.health, HealthState::Wedged, "the seeded faults wedge the engine");
    assert!(
        report.sheds.iter().any(|s| s.reason == ShedReason::Wedged),
        "a wedged engine refuses the rest of the batch: {report:?}"
    );

    // Exactly one dump, triggered by the Wedged transition.
    assert_eq!(dumps.len(), 1, "Wedged is sticky — one transition, one dump: {dumps:?}");
    let dump = &dumps[0];
    assert_eq!(dump.trigger, "ingest.wedged");
    // The causal prelude is all there, in strictly increasing seq order.
    assert!(dump.events.windows(2).all(|w| w[0].seq < w[1].seq), "{dump:?}");
    let kinds: Vec<&str> = dump.events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&"wedge"), "durable-layer wedge events precede the dump: {dump:?}");
    assert!(
        dump.events.iter().any(|e| e.kind == "breaker.trip" && e.detail.contains("wal")),
        "the WAL breaker trip is on record: {dump:?}"
    );
    assert!(
        dump.events.iter().any(|e| e.kind == "health" && e.detail.ends_with("-> wedged")),
        "the terminal health transition is the last cause on record: {dump:?}"
    );
    // And the breaker trip comes before the wedged transition.
    let trip_seq = dump.events.iter().find(|e| e.kind == "breaker.trip").map(|e| e.seq).unwrap();
    let wedged_seq = dump
        .events
        .iter()
        .find(|e| e.kind == "health" && e.detail.ends_with("-> wedged"))
        .map(|e| e.seq)
        .unwrap();
    assert!(trip_seq < wedged_seq, "cause precedes effect: {dump:?}");

    // The dump renders to deterministic JSON (no wall-clock fields).
    let json = dump.render_json();
    assert!(json.contains("\"trigger\": \"ingest.wedged\""), "{json}");
}

/// A primary deposed by a newer epoch dumps exactly one post-mortem when
/// it first learns of its fencing — repeated fencing evidence does not
/// dump again.
#[test]
fn fenced_primary_dumps_exactly_one_post_mortem() {
    let _serial = guard();
    let dir = temp_dir("fenced");
    let db = nebula::relstore::Database::new();
    let store = AnnotationStore::new();
    let wal = Durability::begin(&dir, &db, &store, DurabilityOptions::default())
        .expect("fresh durability directory");
    let mut transport = SimTransport::reliable(2);
    let mut primary = Primary::new(0, 1, wal, &db, &store).expect("primary");
    primary.attach(1, &mut transport);

    nebula::nebula_obs::set_enabled(true);
    trace::reset();
    primary.record(&op(0), &mut transport).expect("record at epoch 1");

    // A forged nack from epoch 2 deposes the primary on its next write.
    transport.send(1, 0, Frame::Nack { epoch: 2, lsn: 1 }.encode());
    let err = primary.record(&op(1), &mut transport).unwrap_err();
    assert!(matches!(err, ReplicaError::Fenced { epoch: 1, newer: 2 }), "{err:?}");

    let dumps = trace::flight_dumps();
    assert_eq!(dumps.len(), 1, "{dumps:?}");
    assert_eq!(dumps[0].trigger, "repl.fenced");
    assert!(
        dumps[0].events.iter().any(|e| e.kind == "fence" && e.detail.contains("epoch 2")),
        "the fence event is in its own dump: {:?}",
        dumps[0]
    );

    // More fencing evidence: still exactly one dump.
    transport.send(1, 0, Frame::Nack { epoch: 3, lsn: 1 }.encode());
    let err = primary.record(&op(1), &mut transport).unwrap_err();
    assert!(matches!(err, ReplicaError::Fenced { .. }), "{err:?}");
    assert_eq!(trace::flight_dumps().len(), 1, "fencing dumps once");

    nebula::nebula_obs::set_enabled(false);
    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A forged divergent acknowledgement (wrong digest at an LSN) triggers a
/// divergence post-mortem carrying the divergence event itself.
#[test]
fn divergence_dumps_a_post_mortem_with_the_report() {
    let _serial = guard();
    let dir = temp_dir("divergence");
    let db = nebula::relstore::Database::new();
    let store = AnnotationStore::new();
    let wal = Durability::begin(&dir, &db, &store, DurabilityOptions::default())
        .expect("fresh durability directory");
    let mut transport = SimTransport::reliable(2);
    let mut primary = Primary::new(0, 1, wal, &db, &store).expect("primary");
    primary.attach(1, &mut transport);

    nebula::nebula_obs::set_enabled(true);
    trace::reset();
    primary.record(&op(0), &mut transport).expect("record at epoch 1");

    // Forge an ack whose digest cannot match the shadow at lsn 1.
    transport.send(1, 0, Frame::Ack { epoch: 1, lsn: 1, digest: (1, 2) }.encode());
    primary.drain(&mut transport);
    assert_eq!(primary.divergences().len(), 1);

    let dumps = trace::flight_dumps();
    nebula::nebula_obs::set_enabled(false);
    assert_eq!(dumps.len(), 1, "{dumps:?}");
    assert_eq!(dumps[0].trigger, "repl.divergence");
    assert!(
        dumps[0].events.iter().any(|e| e.kind == "divergence"
            && e.detail.contains("replica=1")
            && e.detail.contains("lsn=1")),
        "the divergence report is in its own dump: {:?}",
        dumps[0]
    );

    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);
}
