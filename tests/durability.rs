//! Durability acceptance suite: the crash-point harness over a hostile
//! 500-operation batch, exact torn-tail accounting through the real
//! recovery path, end-to-end I/O fault scenarios driven by the seeded
//! fault plan, and format-drift protection for the checked-in sample
//! durability directory.

use nebula::nebula_durable::harness::{crash_points, state_digest};
use nebula::nebula_durable::{
    checkpoint, recover, recover_from_bytes, wal, Durability, DurabilityOptions, SyncPolicy, WalOp,
};
use nebula::nebula_govern as govern;
use nebula::nebula_workload::{build_workload, WorkloadSpec};
use nebula::prelude::*;
use std::path::{Path, PathBuf};

/// The fault seed: `NEBULA_FAULT_SEED` env (hex with `0x` prefix, or
/// decimal), default `0xF00D` — the CI crash-recovery matrix sweeps it.
fn fault_seed() -> u64 {
    std::env::var("NEBULA_FAULT_SEED")
        .ok()
        .and_then(|s| {
            let s = s.trim();
            match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => s.parse().ok(),
            }
        })
        .unwrap_or(0xF00D)
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nebula-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fresh copy of the bundle's seed store (`AnnotationStore` is not
/// `Clone`; round-trip through the snapshot codec instead).
fn fresh_store(bundle: &DatasetBundle) -> AnnotationStore {
    let bytes = nebula::annostore::snapshot::save(&bundle.annotations);
    nebula::annostore::snapshot::load(&bytes).expect("snapshot round-trip")
}

/// Dataset + engine + a batch of `n` workload annotations (cycled).
fn batch_fixture(seed: u64, n: usize) -> (DatasetBundle, Nebula, Vec<(Annotation, Vec<TupleId>)>) {
    let bundle = generate_dataset(&DatasetSpec::tiny(), seed);
    let workload = build_workload(&bundle, &WorkloadSpec::default(), seed);
    let mut nebula = Nebula::new(NebulaConfig::default(), bundle.meta.clone());
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

/// The tentpole acceptance scenario: a hostile batch (transient query
/// faults and injected panics riding along) is logged until the WAL holds
/// at least 500 records, then the crash-point harness kills and recovers
/// at **every** record boundary — and tears the log mid-record at every
/// frame — asserting the recovered state equals the reference replay.
#[test]
fn a_500_operation_hostile_batch_survives_every_crash_point() {
    let dir = tmp("crash-points");
    let (bundle, mut nebula, items) = batch_fixture(5, 40);
    let mut store = fresh_store(&bundle);
    let durability = Durability::begin(
        &dir,
        &bundle.db,
        &store,
        DurabilityOptions { sync: SyncPolicy::Batch, checkpoint_every: None },
    )
    .expect("fresh durability directory");
    nebula.set_mutation_sink(Some(Box::new(durability)));
    govern::set_fault_plan(Some(
        govern::FaultPlan::new(fault_seed()).with_query(0.1, true).with_panics(0.02),
    ));

    let mut rounds = 0;
    let records = loop {
        let report = with_quiet_panics(|| nebula.process_batch(&bundle.db, &mut store, &items));
        assert_eq!(report.total(), items.len(), "the batch never aborts early");
        rounds += 1;
        assert!(rounds <= 30, "batch never produced 500 WAL records");
        let bytes = std::fs::read(dir.join(wal::WAL_FILE)).expect("wal exists");
        let (records, tail) = wal::read_wal(&bytes);
        assert!(tail.is_clean(), "pipeline faults must not corrupt the log: {tail:?}");
        if records.len() >= 500 {
            break records;
        }
    };
    govern::set_fault_plan(None);
    drop(nebula.take_mutation_sink());

    let report = crash_points(&dir).expect("harness runs over a clean directory");
    assert_eq!(report.records, records.len());
    assert_eq!(report.boundaries, records.len() + 1, "every record boundary is a crash point");
    assert_eq!(report.torn_cuts, records.len(), "every record survives a mid-frame tear");

    // And a straight recovery equals the live state byte for byte.
    let recovered = recover(&dir).expect("clean recovery");
    assert_eq!(
        state_digest(&recovered.db, &recovered.store),
        state_digest(&bundle.db, &store),
        "recovered state must equal the state the engine was left in"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn-tail recovery is exact: cutting the log mid-record drops exactly
/// that record (reported as one dropped record with its byte count), the
/// valid prefix replays in full, and nothing partial is ever applied —
/// the recovered state equals a clean replay of the surviving prefix.
#[test]
fn torn_tail_recovery_reports_exactly_what_was_dropped() {
    // The same fault-free batch logged under each policy.
    let logged = |tag: &str, sync: SyncPolicy, checkpoint_every: Option<usize>| {
        let dir = tmp(tag);
        let (bundle, mut nebula, items) = batch_fixture(7, 8);
        let mut store = fresh_store(&bundle);
        let options = DurabilityOptions { sync, checkpoint_every };
        let durability = Durability::begin(&dir, &bundle.db, &store, options).unwrap();
        nebula.set_mutation_sink(Some(Box::new(durability)));
        nebula.process_batch(&bundle.db, &mut store, &items);
        drop(nebula.take_mutation_sink());
        let bytes = std::fs::read(dir.join(wal::WAL_FILE)).unwrap();
        (dir, bytes)
    };
    let (dir, bytes) = logged("torn-tail", SyncPolicy::EveryRecord, None);

    let image = checkpoint::list_checkpoints(&dir)
        .ok()
        .and_then(|list| list.last().and_then(|(_, p)| std::fs::read(p).ok()))
        .expect("begin wrote a checkpoint");
    let (records, tail) = wal::read_wal(&bytes);
    assert!(tail.is_clean() && records.len() >= 8, "need a log to tear, got {}", records.len());

    // The sync policy decides when bytes reach the disk, never which
    // records are appended; a checkpointing run truncates behind its
    // watermark, so its log is strictly shorter.
    let (batch_dir, batch_bytes) = logged("torn-tail-batch", SyncPolicy::Batch, None);
    assert_eq!(wal::read_wal(&batch_bytes).0, records, "both policies append one record stream");
    let (ckpt_dir, ckpt_bytes) = logged("torn-tail-ckpt", SyncPolicy::Batch, Some(4));
    assert!(ckpt_bytes.len() < batch_bytes.len(), "{} vs {}", ckpt_bytes.len(), batch_bytes.len());
    for d in [batch_dir, ckpt_dir] {
        let _ = std::fs::remove_dir_all(d);
    }

    for k in [0, records.len() / 2, records.len() - 1] {
        let prev_end = if k == 0 { 0 } else { records[k - 1].end_offset };
        let cut = prev_end + (records[k].end_offset - prev_end) / 2;
        let torn = recover_from_bytes(Some(&image), &bytes[..cut]).expect("torn tail tolerated");
        assert_eq!(torn.tail.valid_records, k, "cut mid-record {k}");
        assert_eq!(torn.tail.dropped_records, 1, "exactly the torn record is dropped");
        assert_eq!(torn.tail.dropped_bytes, cut - prev_end);
        assert_eq!(torn.replayed, k);
        let clean = recover_from_bytes(Some(&image), &bytes[..prev_end]).unwrap();
        assert_eq!(
            state_digest(&torn.db, &torn.store),
            state_digest(&clean.db, &clean.store),
            "no partial application at cut {cut}"
        );
    }

    // A mid-log CRC hit through the full directory path: everything from
    // the corrupt record on is dropped, with exact counts.
    let dir2 = tmp("torn-tail-crc");
    std::fs::create_dir_all(&dir2).unwrap();
    std::fs::write(dir2.join(checkpoint::file_name(1)), &image).unwrap();
    let m = records.len() / 2;
    let frame_start = if m == 0 { 0 } else { records[m - 1].end_offset };
    let mut corrupted = bytes.clone();
    corrupted[frame_start + 4] ^= 0x01; // one bit of the stored CRC
    std::fs::write(dir2.join(wal::WAL_FILE), &corrupted).unwrap();
    let recovered = recover(&dir2).expect("corruption is reported, not fatal");
    assert_eq!(recovered.tail.valid_records, m);
    assert_eq!(recovered.tail.dropped_records, records.len() - m);
    assert_eq!(recovered.replayed, m);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// Seeded torn writes mid-batch: the batch never aborts, the engine never
/// applies a mutation it failed to log, and recovery reproduces exactly
/// the live state — the torn tail is dropped, nothing applied is lost.
#[test]
fn torn_writes_mid_batch_lose_nothing_applied() {
    let dir = tmp("torn-writes");
    let (bundle, mut nebula, items) = batch_fixture(9, 24);
    let mut store = fresh_store(&bundle);
    let durability = Durability::begin(
        &dir,
        &bundle.db,
        &store,
        DurabilityOptions { sync: SyncPolicy::Batch, checkpoint_every: Some(16) },
    )
    .unwrap();
    nebula.set_mutation_sink(Some(Box::new(durability)));
    govern::set_fault_plan(Some(govern::FaultPlan::new(fault_seed()).with_torn_writes(0.1)));
    let report = nebula.process_batch(&bundle.db, &mut store, &items);
    let stats = govern::fault_stats();
    govern::set_fault_plan(None);
    drop(nebula.take_mutation_sink());

    assert_eq!(report.total(), items.len());
    assert!(stats.torn_writes >= 1, "the seeded plan never fired — scenario is vacuous");
    let recovered = recover(&dir).expect("a torn tail is repairable");
    assert_eq!(
        state_digest(&recovered.db, &recovered.store),
        state_digest(&bundle.db, &store),
        "recovery must reproduce the applied state exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded short writes self-repair: the failed append truncates its
/// partial bytes away, the log stays clean (no torn tail), and recovery
/// equals the live state.
#[test]
fn short_writes_self_repair_and_keep_the_log_clean() {
    let dir = tmp("short-writes");
    let (bundle, mut nebula, items) = batch_fixture(11, 24);
    let mut store = fresh_store(&bundle);
    let durability = Durability::begin(
        &dir,
        &bundle.db,
        &store,
        DurabilityOptions { sync: SyncPolicy::EveryRecord, checkpoint_every: None },
    )
    .unwrap();
    nebula.set_mutation_sink(Some(Box::new(durability)));
    govern::set_fault_plan(Some(govern::FaultPlan::new(fault_seed()).with_short_writes(0.1)));
    let report = nebula.process_batch(&bundle.db, &mut store, &items);
    let stats = govern::fault_stats();
    govern::set_fault_plan(None);
    drop(nebula.take_mutation_sink());

    assert_eq!(report.total(), items.len());
    assert!(stats.short_writes >= 1, "the seeded plan never fired — scenario is vacuous");
    let bytes = std::fs::read(dir.join(wal::WAL_FILE)).unwrap();
    let (_, tail) = wal::read_wal(&bytes);
    assert!(tail.is_clean(), "short writes must leave no partial bytes behind: {tail:?}");
    let recovered = recover(&dir).unwrap();
    assert_eq!(state_digest(&recovered.db, &recovered.store), state_digest(&bundle.db, &store),);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoint bit flips are caught by the read-back verification before
/// the checkpoint is committed: every periodic checkpoint fails, the WAL
/// is never truncated, and recovery from the initial checkpoint plus the
/// full log still equals the live state — zero data loss.
#[test]
fn bit_flipped_checkpoints_fail_without_losing_data() {
    let dir = tmp("bit-flips");
    let (bundle, mut nebula, items) = batch_fixture(13, 24);
    let mut store = fresh_store(&bundle);
    let durability = Durability::begin(
        &dir,
        &bundle.db,
        &store,
        DurabilityOptions { sync: SyncPolicy::Batch, checkpoint_every: Some(8) },
    )
    .unwrap();
    nebula.set_mutation_sink(Some(Box::new(durability)));
    govern::set_fault_plan(Some(govern::FaultPlan::new(fault_seed()).with_bit_flips(1.0)));
    let report = nebula.process_batch(&bundle.db, &mut store, &items);
    let stats = govern::fault_stats();
    govern::set_fault_plan(None);
    drop(nebula.take_mutation_sink());

    assert_eq!(report.total(), items.len());
    assert!(stats.bit_flips >= 1, "no checkpoint was attempted — scenario is vacuous");
    let ckpts = checkpoint::list_checkpoints(&dir).unwrap();
    assert_eq!(ckpts.len(), 1, "only the (pre-plan) initial checkpoint may exist");
    let recovered = recover(&dir).unwrap();
    assert_eq!(recovered.watermark, 0, "no checkpoint committed, watermark never moved");
    assert_eq!(state_digest(&recovered.db, &recovered.store), state_digest(&bundle.db, &store),);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fsync failure wedges the log with standard WAL semantics: the failed
/// record's bytes are in the file but were never applied, so recovery may
/// replay at most that one extra operation — and the log minus its last
/// record reproduces the live state exactly.
#[test]
fn fsync_failure_loses_at_most_the_unapplied_record() {
    let dir = tmp("fsync-fail");
    let (bundle, mut nebula, items) = batch_fixture(15, 24);
    let mut store = fresh_store(&bundle);
    let durability = Durability::begin(
        &dir,
        &bundle.db,
        &store,
        DurabilityOptions { sync: SyncPolicy::EveryRecord, checkpoint_every: None },
    )
    .unwrap();
    nebula.set_mutation_sink(Some(Box::new(durability)));
    govern::set_fault_plan(Some(govern::FaultPlan::new(fault_seed()).with_fsync_failures(0.05)));
    let report = nebula.process_batch(&bundle.db, &mut store, &items);
    let stats = govern::fault_stats();
    govern::set_fault_plan(None);
    drop(nebula.take_mutation_sink());

    assert_eq!(report.total(), items.len());
    let image = checkpoint::list_checkpoints(&dir)
        .ok()
        .and_then(|list| list.last().and_then(|(_, p)| std::fs::read(p).ok()))
        .unwrap();
    let bytes = std::fs::read(dir.join(wal::WAL_FILE)).unwrap();
    let (records, tail) = wal::read_wal(&bytes);
    assert!(tail.is_clean(), "fsync failure leaves whole records: {tail:?}");
    let live = state_digest(&bundle.db, &store);
    if stats.fsync_failures >= 1 {
        // The wedge froze the log after the unapplied record; dropping it
        // yields the applied state.
        let prefix_end = records[records.len() - 1].end_offset;
        let all_but_last =
            if records.len() >= 2 { records[records.len() - 2].end_offset } else { 0 };
        assert_eq!(prefix_end, bytes.len());
        let clean = recover_from_bytes(Some(&image), &bytes[..all_but_last]).unwrap();
        assert_eq!(state_digest(&clean.db, &clean.store), live);
        // Full recovery is still valid — it may include the logged-but-
        // unapplied record (standard WAL semantics), never less.
        let full = recover_from_bytes(Some(&image), &bytes).unwrap();
        assert_eq!(full.replayed, records.len());
    } else {
        let recovered = recover(&dir).unwrap();
        assert_eq!(state_digest(&recovered.db, &recovered.store), live);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Checked-in sample durability directory: format-drift protection.
// ---------------------------------------------------------------------------

fn sample_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("samples").join("durability")
}

/// The deterministic state the sample was generated from (no randomness,
/// no timestamps — regeneration is byte-reproducible).
fn sample_state() -> (Database, AnnotationStore, Vec<TupleId>) {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("gene")
            .column("gid", DataType::Text)
            .column("name", DataType::Text)
            .primary_key("gid")
            .build()
            .unwrap(),
    )
    .unwrap();
    let tuples: Vec<TupleId> = [("JW0001", "thrA"), ("JW0002", "thrB"), ("JW0013", "grpC")]
        .iter()
        .map(|(gid, name)| db.insert("gene", vec![Value::text(*gid), Value::text(*name)]).unwrap())
        .collect();
    let mut store = AnnotationStore::new();
    let a = store.add_annotation(Annotation::new("seed note").by("sample"));
    store.attach(a, AttachmentTarget::tuple(tuples[0])).unwrap();
    (db, store, tuples)
}

/// The scripted WAL tail the sample carries past its checkpoint.
fn sample_ops(tuples: &[TupleId]) -> Vec<WalOp> {
    vec![
        WalOp::AddAnnotation {
            expected: AnnotationId(1),
            text: "curator remark".to_string(),
            author: Some("alice".to_string()),
            kind: Some("comment".to_string()),
        },
        WalOp::AttachTuple { annotation: AnnotationId(1), tuple: tuples[1] },
        WalOp::AttachPredicted { annotation: AnnotationId(1), tuple: tuples[2], confidence: 0.7 },
        WalOp::AcceptEdge { annotation: AnnotationId(1), tuple: tuples[2] },
        WalOp::AttachCell {
            annotation: AnnotationId(0),
            tuple: tuples[0],
            column: nebula::relstore::schema::ColumnId(1),
        },
    ]
}

/// Guards the on-disk format: the committed sample directory (written by
/// an earlier build) must keep recovering. If this fails after a codec
/// change, either restore compatibility or bump the magic and regenerate
/// the sample via `regenerate_sample_durability_directory`.
#[test]
fn checked_in_sample_durability_directory_recovers() {
    let recovered = recover(&sample_dir()).expect("committed sample must stay recoverable");
    assert!(recovered.had_checkpoint);
    assert!(recovered.tail.is_clean(), "{:?}", recovered.tail);
    assert_eq!(recovered.watermark, 0);
    assert_eq!(recovered.replayed, 5);
    assert_eq!(recovered.last_lsn, 5);
    assert_eq!(recovered.db.total_tuples(), 3);
    assert_eq!(recovered.store.annotation_count(), 2);
    // The replayed tail is live: the accepted edge is true, the cell
    // refinement resolved.
    let (db, store, tuples) = sample_state();
    let _ = (db, store);
    let edge = recovered.store.edge(AnnotationId(1), tuples[2]).expect("accepted edge");
    assert_eq!(edge.kind, nebula::annostore::EdgeKind::True);
    assert_eq!(
        recovered.store.cell_column(AnnotationId(0), tuples[0]),
        Some(nebula::relstore::schema::ColumnId(1))
    );
}

/// Regenerates `samples/durability/` deterministically. Ignored in normal
/// runs; invoke by hand after an intentional format change:
/// `cargo test --test durability regenerate_sample -- --ignored`.
#[test]
#[ignore = "rewrites the checked-in sample; run manually after intentional format changes"]
fn regenerate_sample_durability_directory() {
    let dir = sample_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let (db, store, tuples) = sample_state();
    let mut durability = Durability::begin(
        &dir,
        &db,
        &store,
        DurabilityOptions { sync: SyncPolicy::EveryRecord, checkpoint_every: None },
    )
    .unwrap();
    for op in sample_ops(&tuples) {
        durability.append(&op).unwrap();
    }
    // Prove the freshly generated sample satisfies the drift test.
    drop(durability);
    checked_in_sample_durability_directory_recovers();
}
