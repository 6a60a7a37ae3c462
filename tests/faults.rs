//! Fault-injection integration suite: every injected fault site either
//! recovers (retry or scan fallback) or surfaces as a quarantined
//! annotation with matching telemetry — and batch ingest never aborts.
//!
//! The tests share one process, and telemetry counters are global, so
//! every test serializes on `GUARD` and asserts on counter *deltas*.

use nebula::nebula_backup::{create_bundle, restore, verify_bundle, BundleSpec};
use nebula::nebula_durable::{recover, replay_op, state_digest, DurableError, WalOp};
use nebula::nebula_govern as govern;
use nebula::nebula_pagestore::heap::RecordHeap;
use nebula::nebula_pagestore::PageStoreError;
use nebula::nebula_workload::{build_workload, WorkloadSpec};
use nebula::prelude::*;
use std::path::PathBuf;
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A panicking test (some tests exercise injected panics) must not
    // poison the suite.
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh copy of the bundle's seed store (`AnnotationStore` is not
/// `Clone`; round-trip through the snapshot codec instead).
fn fresh_store(bundle: &DatasetBundle) -> AnnotationStore {
    let bytes = nebula::annostore::snapshot::save(&bundle.annotations);
    nebula::annostore::snapshot::load(&bytes).expect("snapshot round-trip")
}

/// Dataset + engine + a batch of `n` workload annotations (cycled).
fn batch_fixture(
    seed: u64,
    n: usize,
    config: NebulaConfig,
) -> (DatasetBundle, Nebula, Vec<(Annotation, Vec<TupleId>)>) {
    let bundle = generate_dataset(&DatasetSpec::tiny(), seed);
    let workload = build_workload(&bundle, &WorkloadSpec::default(), seed);
    let mut nebula = Nebula::new(config, bundle.meta.clone());
    nebula.bootstrap_acg(&bundle.annotations);
    nebula.acg_mut().set_stable(true);
    let base: Vec<_> =
        workload.iter().flat_map(|s| &s.annotations).filter(|wa| !wa.ideal.is_empty()).collect();
    assert!(!base.is_empty());
    let items: Vec<_> = (0..n)
        .map(|i| {
            let wa = base[i % base.len()];
            (wa.annotation.clone(), vec![wa.ideal[0]])
        })
        .collect();
    (bundle, nebula, items)
}

/// Run `f` with panic output suppressed (injected panics are expected).
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// The tentpole acceptance scenario: a 500-annotation batch under a tight
/// budget and a hostile seeded fault plan (panics on) completes without
/// aborting; every annotation lands in exactly one terminal state and the
/// telemetry counters agree with the report.
#[test]
fn hostile_500_batch_completes_with_full_accounting() {
    let _g = lock();
    let config = NebulaConfig {
        bounds: VerificationBounds::new(0.4, 0.85),
        budget: ExecutionBudget::unbounded()
            .with_max_tuples(300)
            .with_max_configurations(8)
            .with_max_candidates(8),
        ..Default::default()
    };
    let (bundle, mut nebula, items) = batch_fixture(41, 500, config);
    let mut store = fresh_store(&bundle);

    nebula::nebula_obs::set_enabled(true);
    let baseline = nebula::nebula_obs::snapshot();
    govern::set_fault_plan(Some(FaultPlan::hostile(0xF00D).with(FaultSite::Panic, 0.02)));
    let report = with_quiet_panics(|| nebula.process_batch(&bundle.db, &mut store, &items));
    let stats = govern::fault_stats();
    govern::set_fault_plan(None);
    let diff = nebula::nebula_obs::snapshot().diff(&baseline);
    nebula::nebula_obs::set_enabled(false);

    assert_eq!(report.total(), 500, "no annotation lost");
    assert_eq!(
        report.accepted + report.pending + report.rejected + report.degraded + report.quarantined,
        500,
        "every annotation ends in exactly one of the five states"
    );
    assert_eq!(
        report.entries.iter().filter(|e| e.quarantine.is_some()).count(),
        report.quarantined,
        "quarantine reasons present iff quarantined"
    );
    // Hostile query faults exhaust retries → quarantines, with retries
    // recorded both thread-locally and in the obs counters.
    assert!(report.quarantined > 0);
    assert!(stats.retries > 0);
    assert!(stats.injected(FaultSite::Query) > 0);
    assert_eq!(
        diff.counters.get("core.quarantined").copied().unwrap_or(0),
        report.quarantined as u64
    );
    assert_eq!(diff.counters.get("govern.retries").copied().unwrap_or(0), stats.retries);
    assert!(
        diff.counters.get("govern.faults_injected").copied().unwrap_or(0)
            >= stats.injected(FaultSite::Query)
    );
}

/// With a moderate transient fault rate, some annotations recover via
/// retry (succeeding after a failed attempt) and none abort the batch.
#[test]
fn transient_faults_recover_via_bounded_retry() {
    let _g = lock();
    let (bundle, mut nebula, items) = batch_fixture(42, 60, NebulaConfig::default());
    let mut store = fresh_store(&bundle);

    govern::set_fault_plan(Some(FaultPlan::new(7).with_query(0.3, true)));
    let report = nebula.process_batch(&bundle.db, &mut store, &items);
    let stats = govern::fault_stats();
    govern::set_fault_plan(None);

    assert_eq!(report.total(), 60);
    assert!(stats.injected(FaultSite::Query) > 0, "the plan fired");
    assert!(stats.retries > 0, "transient faults were retried");
    assert!(
        report.quarantined < report.total(),
        "retries recovered at least part of the batch: {report:?}"
    );
    for e in &report.entries {
        if let Some(QuarantineReason::Error(err)) = &e.quarantine {
            assert!(
                matches!(err, NebulaError::Fault { attempts, .. } if *attempts == 3),
                "quarantined only after exhausting all attempts: {err:?}"
            );
        }
    }
}

/// Index-probe failures are always absorbed: the executors fall back to a
/// scan and produce byte-identical candidates.
#[test]
fn index_probe_failures_degrade_to_identical_candidates() {
    let _g = lock();
    let (bundle, mut nebula, items) = batch_fixture(43, 10, NebulaConfig::default());

    let mut store_a = fresh_store(&bundle);
    let clean = nebula.process_batch(&bundle.db, &mut store_a, &items);

    let (_, mut nebula_b, _) = batch_fixture(43, 10, NebulaConfig::default());
    let mut store_b = fresh_store(&bundle);
    govern::set_fault_plan(Some(FaultPlan::new(11).with(FaultSite::IndexProbe, 1.0)));
    let probed = nebula_b.process_batch(&bundle.db, &mut store_b, &items);
    let stats = govern::fault_stats();
    govern::set_fault_plan(None);

    assert!(stats.injected(FaultSite::IndexProbe) > 0, "the probe site fired");
    assert_eq!(
        stats.injected(FaultSite::IndexProbe),
        stats.recovered,
        "every probe failure was absorbed"
    );
    assert_eq!(probed.quarantined, 0);
    for (a, b) in clean.entries.iter().zip(&probed.entries) {
        let ca: Vec<_> =
            a.outcome.as_ref().expect("clean").candidates.iter().map(|c| c.tuple).collect();
        let cb: Vec<_> =
            b.outcome.as_ref().expect("probed").candidates.iter().map(|c| c.tuple).collect();
        assert_eq!(ca, cb, "scan fallback must not change results");
    }
}

/// Injected panics at stage boundaries are contained per annotation: the
/// poisoned annotation is quarantined with the panic message and the rest
/// of the batch continues.
#[test]
fn injected_panics_are_contained_per_annotation() {
    let _g = lock();
    let (bundle, mut nebula, items) = batch_fixture(44, 8, NebulaConfig::default());
    let mut store = fresh_store(&bundle);

    govern::set_fault_plan(Some(FaultPlan::new(3).with(FaultSite::Panic, 1.0)));
    let report = with_quiet_panics(|| nebula.process_batch(&bundle.db, &mut store, &items));
    let stats = govern::fault_stats();
    govern::set_fault_plan(None);

    assert_eq!(report.total(), 8, "the batch never aborts");
    assert_eq!(report.quarantined, 8, "every annotation hit the injected panic");
    assert_eq!(stats.injected(FaultSite::Panic), 8);
    for e in &report.entries {
        match &e.quarantine {
            Some(QuarantineReason::Panic(msg)) => {
                assert!(msg.contains("injected panic"), "{msg}");
            }
            other => panic!("expected a panic quarantine, got {other:?}"),
        }
    }
    // The engine is still usable afterwards.
    let mut follow_up = fresh_store(&bundle);
    let clean = nebula.process_batch(&bundle.db, &mut follow_up, &items[..2]);
    assert_eq!(clean.quarantined, 0);
}

/// A budget trip on the full search degrades to focal-spreading (recorded
/// as a `FocalFallback`) rather than failing the annotation.
#[test]
fn budget_trips_degrade_to_focal_fallback() {
    let _g = lock();
    let config = NebulaConfig {
        budget: ExecutionBudget::unbounded().with_max_tuples(5),
        ..Default::default()
    };
    let (bundle, mut nebula, items) = batch_fixture(45, 20, config);
    let mut store = fresh_store(&bundle);
    let report = nebula.process_batch(&bundle.db, &mut store, &items);

    assert_eq!(report.quarantined, 0, "budget trips never quarantine");
    assert!(report.degraded > 0, "the tight budget forced degradations");
    let fallbacks = report
        .entries
        .iter()
        .filter_map(|e| e.outcome.as_ref())
        .flat_map(|o| &o.degradations)
        .filter(|d| matches!(d, Degradation::FocalFallback { .. }))
        .count();
    assert!(fallbacks > 0, "full-search trips fell back to focal mode");
}

// ---------------------------------------------------------------------------
// ENOSPC: a full disk degrades every persistence layer to a typed error.
// ---------------------------------------------------------------------------

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nebula-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn note(n: u64) -> WalOp {
    WalOp::AddAnnotation {
        expected: AnnotationId(n),
        text: format!("enospc note {n}"),
        author: None,
        kind: None,
    }
}

/// A full disk surfaces from the WAL as `DurableError::NoSpace`, wedges
/// the log (no append can be trusted until space frees), and a
/// checkpoint — which truncates the log — unwedges it with nothing lost.
#[test]
fn enospc_wedges_the_wal_typed_and_a_checkpoint_unwedges_it() {
    let _g = lock();
    let dir = tmp("wal-enospc");
    let mut db = Database::new();
    let mut store = AnnotationStore::new();
    let mut mgr = Durability::begin(&dir, &db, &store, DurabilityOptions::default())
        .expect("fresh durability directory");
    mgr.append(&note(0)).expect("append before the disk fills");
    replay_op(&mut db, &mut store, &note(0)).expect("replay");

    govern::set_fault_plan(Some(FaultPlan::new(3).with(FaultSite::Enospc, 1.0)));
    assert!(
        matches!(mgr.append(&note(1)), Err(DurableError::NoSpace(_))),
        "a full disk is a typed error, not a panic"
    );
    assert!(mgr.is_wedged(), "nothing after ENOSPC can be trusted");
    govern::set_fault_plan(None);
    // The wedge is sticky — freeing space alone is not enough.
    assert!(matches!(mgr.append(&note(1)), Err(DurableError::Wedged(_))));

    // A checkpoint truncates the log and restores service.
    mgr.checkpoint(&db, &store).expect("checkpoint over freed space");
    assert!(!mgr.is_wedged());
    mgr.append(&note(1)).expect("appends flow again");
    replay_op(&mut db, &mut store, &note(1)).expect("replay");
    drop(mgr);
    let recovered = recover(&dir).expect("clean recovery");
    assert_eq!(recovered.tail.dropped_records, 0, "ENOSPC persisted no partial record");
    assert_eq!(state_digest(&recovered.db, &recovered.store), state_digest(&db, &store));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A full disk aborts a page flush as `PageStoreError::NoSpace` before
/// any byte moves: the old durable image stays intact, the dirty pool
/// survives, and the same flush succeeds once space frees.
#[test]
fn enospc_aborts_a_page_flush_typed_with_the_old_image_intact() {
    let _g = lock();
    let dir = tmp("page-enospc");
    std::fs::create_dir_all(&dir).expect("heap dir");
    let mut heap = RecordHeap::open(&dir, 8).expect("heap");
    let first = heap.insert(b"committed before the disk filled").expect("insert");
    heap.flush(1).expect("flush state A");
    let second = heap.insert(b"caught by the full disk").expect("insert");

    // Page I/O rolls an owned plan (not the thread-local one).
    heap.set_fault_plan(Some(FaultPlan::new(5).with(FaultSite::Enospc, 1.0)));
    assert!(
        matches!(heap.flush(2), Err(PageStoreError::NoSpace)),
        "a full disk is a typed error, not a torn shadow"
    );
    heap.set_fault_plan(None);

    // Space freed: the retried flush commits everything that was dirty.
    heap.flush(2).expect("flush after space freed");
    drop(heap);
    let mut reopened = RecordHeap::open(&dir, 8).expect("reopen");
    assert_eq!(reopened.watermark(), 2);
    assert_eq!(
        reopened.get(first).expect("readable").as_deref(),
        Some(b"committed before the disk filled".as_slice())
    );
    assert_eq!(
        reopened.get(second).expect("readable").as_deref(),
        Some(b"caught by the full disk".as_slice())
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A full disk aborts a bundle capture as `BackupError::NoSpace` with no
/// manifest written — a half-copied bundle can never pass for a complete
/// one — and the same capture succeeds and restores once space frees.
#[test]
fn enospc_aborts_a_backup_capture_typed_with_no_partial_manifest() {
    let _g = lock();
    let root = tmp("backup-enospc");
    let mut db = Database::new();
    let mut store = AnnotationStore::new();
    let mut mgr = Durability::begin(&root.join("wal"), &db, &store, DurabilityOptions::default())
        .expect("fresh durability directory");
    mgr.set_archive(&root.join("archive"), 1).expect("arm archiving");
    for n in 0..6 {
        mgr.append(&note(n)).expect("append");
        replay_op(&mut db, &mut store, &note(n)).expect("replay");
        if n == 2 {
            mgr.checkpoint(&db, &store).expect("mid checkpoint");
        }
    }
    mgr.checkpoint(&db, &store).expect("sealing checkpoint");

    let spec = BundleSpec {
        archive_dir: root.join("archive"),
        bundle_dir: root.join("bundle"),
        pages: None,
        created_seq: 1,
    };
    govern::set_fault_plan(Some(FaultPlan::new(7).with(FaultSite::Enospc, 1.0)));
    assert!(
        matches!(create_bundle(&spec), Err(BackupError::NoSpace(_))),
        "a full disk is a typed error, not a silent half-bundle"
    );
    govern::set_fault_plan(None);
    assert!(
        !root.join("bundle").join(nebula::nebula_backup::MANIFEST_FILE).exists(),
        "the aborted capture must not claim completeness with a manifest"
    );
    assert!(verify_bundle(&root.join("bundle")).is_err(), "the half-bundle never verifies");

    // Space freed: the capture completes and restores byte-identically.
    create_bundle(&spec).expect("capture after space freed");
    let restored = restore(&root.join("bundle"), None).expect("restore");
    assert_eq!(restored.applied, 6);
    assert_eq!(state_digest(&restored.db, &restored.store), state_digest(&db, &store));
    let _ = std::fs::remove_dir_all(&root);
}

/// ENOSPC mid-batch through the whole engine: annotations whose commit
/// cannot be logged are quarantined — never half-applied, never aborting
/// the batch — and a checkpoint after space frees restores service.
#[test]
fn enospc_mid_batch_quarantines_and_a_checkpoint_restores_service() {
    let _g = lock();
    let dir = tmp("engine-enospc");
    let (bundle, mut nebula, items) = batch_fixture(44, 24, NebulaConfig::default());
    let mut store = fresh_store(&bundle);
    let durability = Durability::begin(&dir, &bundle.db, &store, DurabilityOptions::default())
        .expect("fresh durability directory");
    nebula.set_mutation_sink(Some(Box::new(durability)));

    govern::set_fault_plan(Some(FaultPlan::new(11).with(FaultSite::Enospc, 1.0)));
    let starved = nebula.process_batch(&bundle.db, &mut store, &items[..12]);
    govern::set_fault_plan(None);
    assert_eq!(starved.total(), 12, "the full disk never aborts the batch");
    assert!(starved.quarantined > 0, "unloggable commits are quarantined: {starved:?}");

    // Space freed: a checkpoint unwedges the sink and ingest resumes.
    let sink = nebula.mutation_sink_mut().expect("sink installed");
    sink.checkpoint(&bundle.db, &store).expect("checkpoint over freed space");
    let healed = nebula.process_batch(&bundle.db, &mut store, &items[12..]);
    assert_eq!(healed.quarantined, 0, "service restored after the checkpoint: {healed:?}");
    drop(nebula.take_mutation_sink());

    // Recovery equals the live state: nothing was applied that was not
    // logged, even across the wedge.
    let recovered = recover(&dir).expect("clean recovery");
    assert_eq!(state_digest(&recovered.db, &recovered.store), state_digest(&bundle.db, &store));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// One durable-write protocol: every writer consumes the draws it always did.
// ---------------------------------------------------------------------------

/// Seed `0x5EED`, every durable-write site (and the two rot sites the
/// closing rolls use) at rate 0.5, and a fixed 32-round script through
/// each writer that commits a file: WAL appends and an archiving
/// checkpoint, a direct archive segment and base, a bundle capture (page
/// file included) and two page commits, one of them cut mid-shadow. Each
/// step folds whether it succeeded into one FNV-1a digest; eight rolls of
/// the thread plan and four of the page file's owned plan then fold where
/// each stream stopped. The pinned digest and
/// firing count are the ones the four per-writer protocols produced
/// before they became one `atomic_replace`.
#[test]
fn every_durable_writer_replays_the_parent_stream() {
    use nebula::nebula_durable::archive::{archive_base, archive_segment};
    use nebula::nebula_pagestore::file::{CrashPoint, PageFile};
    use nebula::nebula_pagestore::page::{
        encode_header_page, seal, set_page_type, zeroed, TYPE_HEAP,
    };

    let _g = lock();
    let root = tmp("replay-writers");
    let bundle = generate_dataset(&DatasetSpec::tiny(), 7);
    let (db, store) = (bundle.db, bundle.annotations);
    let options = DurabilityOptions { sync: SyncPolicy::EveryRecord, checkpoint_every: None };

    // An archive written with no plan installed, for the bundle captures
    // to read: a torn file in it would change what a capture reads.
    let clean = root.join("clean-archive");
    let mut seeder = Durability::begin(&root.join("seed-wal"), &db, &store, options).unwrap();
    seeder.set_archive(&clean, 1).unwrap();
    for n in 0..4 {
        seeder.append(&note(n)).unwrap();
    }
    seeder.checkpoint(&db, &store).unwrap();

    let mut d = Durability::begin(&root.join("wal"), &db, &store, options).unwrap();
    d.set_archive(&root.join("archive"), 1).unwrap();
    let mut pf = {
        std::fs::create_dir_all(root.join("pages")).unwrap();
        PageFile::create(&root.join("pages")).unwrap()
    };
    let page = |fill: u8| {
        let mut p = zeroed();
        set_page_type(&mut p, TYPE_HEAP);
        p[100] = fill;
        seal(&mut p);
        p
    };
    let (p1, p2) = (page(1), page(2));
    pf.commit_batch(&[(0, &encode_header_page(3, 0)), (1, &p1), (2, &p2)]).unwrap();
    let records: Vec<u8> = (0..3u64)
        .flat_map(|n| nebula::nebula_durable::wal::encode_record(n + 1, &note(n)))
        .collect();
    let image = nebula::nebula_durable::checkpoint::encode(0, &db, &store);

    let sites = [
        FaultSite::BitFlip,
        FaultSite::ArchiveWrite,
        FaultSite::ArchiveFsync,
        FaultSite::Enospc,
        FaultSite::PageWrite,
        FaultSite::PageFsync,
        FaultSite::PageRot,
        FaultSite::ArchiveRot,
    ];
    let plan = sites.into_iter().fold(FaultPlan::new(0x5EED), |p, site| p.with(site, 0.5));
    govern::set_fault_plan(Some(plan.clone()));
    pf.set_fault_plan(Some(plan));
    let mut bytes = Vec::new();
    for round in 0..32u64 {
        let mut fold = |ok: bool| bytes.push(ok as u8);
        for n in 0..3 {
            fold(d.append(&note(round * 3 + n)).is_ok());
        }
        fold(d.checkpoint(&db, &store).is_ok());
        let direct = root.join("direct");
        fold(archive_segment(&direct, 1, round * 10 + 1, &records).is_ok());
        fold(archive_base(&direct, 1, round, &image).is_ok());
        let spec = BundleSpec {
            archive_dir: clean.clone(),
            bundle_dir: root.join("bundle"),
            pages: Some(root.join("pages").join("pages.neb")),
            created_seq: round,
        };
        fold(create_bundle(&spec).is_ok());
        let header = encode_header_page(3, round);
        fold(pf.commit_batch(&[(0, &header), (1, &p1), (2, &p2)]).is_ok());
        let cut = CrashPoint::Shadow(round as usize * 1000);
        fold(pf.commit_batch_crash(&[(0, &header), (2, &p1)], cut).is_ok());
    }
    for _ in 0..8 {
        let roll = govern::inject_io(FaultSite::ArchiveRot, 1 << 20);
        bytes.extend_from_slice(&(roll.map_or(u64::MAX, |b| b as u64)).to_le_bytes());
    }
    for _ in 0..4 {
        let rot = pf.inject_rot(3).unwrap();
        bytes.extend_from_slice(
            &(rot.map_or(u64::MAX, |(p, b)| (p as u64) << 32 | b as u64)).to_le_bytes(),
        );
    }
    let fired = govern::fault_stats().total_injected() + pf.fault_tally().injected;
    govern::set_fault_plan(None);
    let digest = nebula::nebula_codec::fnv1a(nebula::nebula_codec::fnv1a::OFFSET, &bytes);
    assert_eq!(bytes.len(), 32 * 9 + 12 * 8);
    assert_eq!(fired, 186);
    assert_eq!(digest, 0x3f61_0931_70ea_f8ac);
    let _ = std::fs::remove_dir_all(&root);
}
