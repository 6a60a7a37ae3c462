//! Disaster-recovery acceptance suite: point-in-time restore is proven
//! at **every** record boundary of a hostile 500-record batch, a bundle
//! captured mid-batch under a fixed fault seed restores byte-identically,
//! injected archive rot is fully detected with zero false positives,
//! whole clusters (replicated and sharded) cold-start from one bundle,
//! retention GC never deletes the oldest restorable point, and the
//! checked-in sample bundle guards the on-disk format byte-for-byte.

use nebula::nebula_backup::{
    create_bundle, gc, inject_rot, restore, scrub, verify_bundle, BundleSpec,
};
use nebula::nebula_durable::{
    archive_stats, replay_op, state_digest, wal, Durability, DurabilityOptions, SyncPolicy, WalOp,
};
use nebula::nebula_govern as govern;
use nebula::nebula_workload::{build_workload, WorkloadSpec};
use nebula::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The fault seed: `NEBULA_FAULT_SEED` env (hex with `0x` prefix, or
/// decimal), default `0xF00D` — the CI recovery matrix sweeps it.
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
    let dir = std::env::temp_dir().join(format!("nebula-backup-{tag}-{}", std::process::id()));
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

/// Drive the engine under the seeded fault plan (transient query faults
/// and injected panics) until the WAL holds at least `min` records, then
/// hand back the dataset and the exact operation sequence the hostile
/// batch committed.
fn hostile_ops(min: usize) -> (DatasetBundle, Vec<WalOp>) {
    let dir = tmp(&format!("hostile-{min}"));
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
    let ops = loop {
        with_quiet_panics(|| nebula.process_batch(&bundle.db, &mut store, &items));
        rounds += 1;
        assert!(rounds <= 30, "batch never produced {min} WAL records");
        let bytes = std::fs::read(dir.join(wal::WAL_FILE)).expect("wal exists");
        let (records, tail) = wal::read_wal(&bytes);
        assert!(tail.is_clean(), "pipeline faults must not corrupt the log: {tail:?}");
        if records.len() >= min {
            break records.into_iter().map(|r| r.op).collect::<Vec<_>>();
        }
    };
    govern::set_fault_plan(None);
    drop(nebula.take_mutation_sink());
    let _ = std::fs::remove_dir_all(&dir);
    (bundle, ops)
}

/// Replay `ops` through a WAL manager with archiving armed, checkpointing
/// every `ckpt_every` records plus a sealing checkpoint at the end (the
/// `BACKUP TO` discipline), and record the reference digest after every
/// LSN. Returns the digests (index = LSN) and the final replayed state.
fn archived_history(
    root: &Path,
    seed_db: Database,
    seed_store: AnnotationStore,
    ops: &[WalOp],
    ckpt_every: usize,
) -> (Vec<(u32, u32)>, Database, AnnotationStore) {
    let mut db = seed_db;
    let mut store = seed_store;
    let mut mgr = Durability::begin(
        &root.join("wal"),
        &db,
        &store,
        DurabilityOptions { sync: SyncPolicy::Batch, checkpoint_every: None },
    )
    .expect("fresh durability directory");
    mgr.set_archive(&root.join("archive"), 1).expect("arm archiving");
    let mut digests = vec![state_digest(&db, &store)];
    for (i, op) in ops.iter().enumerate() {
        mgr.append(op).expect("append");
        replay_op(&mut db, &mut store, op).expect("replay");
        digests.push(state_digest(&db, &store));
        if (i + 1) % ckpt_every == 0 {
            mgr.checkpoint(&db, &store).expect("checkpoint");
        }
    }
    mgr.checkpoint(&db, &store).expect("sealing checkpoint");
    (digests, db, store)
}

/// The tentpole acceptance sweep: for a 500-record hostile batch,
/// `RESTORE ... AS OF LSN n` must be byte-identical to a reference
/// engine stopped at `n` — at **every** record boundary the archive
/// covers, zero on up through the head — and one past the head must be
/// a typed refusal, not wrong data.
#[test]
fn restore_as_of_every_lsn_matches_a_stopped_reference() {
    let root = tmp("sweep");
    let (bundle, ops) = hostile_ops(500);
    let n = ops.len() as u64;
    assert!(n >= 500);
    let (digests, db, store) =
        archived_history(&root, Database::new(), fresh_store(&bundle), &ops, 64);

    let bundle_dir = root.join("bundle");
    let manifest = create_bundle(&BundleSpec {
        archive_dir: root.join("archive"),
        bundle_dir: bundle_dir.clone(),
        pages: None,
        created_seq: 1,
    })
    .expect("bundle capture");
    assert_eq!(manifest.head_lsn, n, "the sealing checkpoint puts the head in the bundle");
    assert_eq!(manifest.oldest_lsn, 0, "nothing GC'd: restorable from genesis");

    for target in 0..=n {
        let r = restore(&bundle_dir, Some(target))
            .unwrap_or_else(|e| panic!("restore AS OF LSN {target} failed: {e}"));
        assert_eq!(r.applied, target);
        assert_eq!(
            state_digest(&r.db, &r.store),
            digests[target as usize],
            "restore AS OF LSN {target} diverges from the reference stopped at {target}"
        );
        // The restore seeds from the newest base at or below the target,
        // so the replayed tail is bounded by the checkpoint cadence, not
        // by the history's length.
        let base = if target == n { n } else { target - target % 64 };
        assert_eq!(r.base_watermark, base, "AS OF LSN {target}");
        assert_eq!(r.replayed as u64, target - base, "AS OF LSN {target}");
    }

    // No AS OF: the head, equal to the live engine.
    let full = restore(&bundle_dir, None).expect("restore to head");
    assert_eq!(full.applied, n);
    assert_eq!(state_digest(&full.db, &full.store), state_digest(&db, &store));

    // One past the head is a typed refusal.
    assert!(
        matches!(restore(&bundle_dir, Some(n + 1)), Err(BackupError::NotRestorable(_))),
        "an LSN the archive cannot rebuild must be refused"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Fixed fault seed, live engine in the loop: a bundle captured
/// *mid-batch* (checkpoint through the mutation sink, then capture —
/// exactly what `BACKUP TO` does) restores byte-identical to the engine's
/// digest at that moment, even though the batch keeps running and the
/// live state moves on. A second bundle at the end matches the final
/// state, and both bundles stay independently restorable.
#[test]
fn a_mid_batch_bundle_restores_byte_identical_under_a_fixed_fault_seed() {
    let root = tmp("midbatch");
    let (bundle, mut nebula, items) = batch_fixture(11, 60);
    let mut store = fresh_store(&bundle);
    let mut durability = Durability::begin(
        &root.join("wal"),
        &bundle.db,
        &store,
        DurabilityOptions { sync: SyncPolicy::Batch, checkpoint_every: Some(32) },
    )
    .expect("fresh durability directory");
    durability.set_archive(&root.join("archive"), 1).expect("arm archiving");
    nebula.set_mutation_sink(Some(Box::new(durability)));
    govern::set_fault_plan(Some(
        govern::FaultPlan::new(fault_seed()).with_query(0.1, true).with_panics(0.02),
    ));

    with_quiet_panics(|| nebula.process_batch(&bundle.db, &mut store, &items[..30]));
    let sink = nebula.mutation_sink_mut().expect("sink installed");
    let mid_head = sink.checkpoint(&bundle.db, &store).expect("mid-batch sealing checkpoint");
    let mid_digest = state_digest(&bundle.db, &store);
    let mid_bundle = root.join("bundle-mid");
    let manifest = create_bundle(&BundleSpec {
        archive_dir: root.join("archive"),
        bundle_dir: mid_bundle.clone(),
        pages: None,
        created_seq: 1,
    })
    .expect("mid-batch capture");
    assert_eq!(manifest.head_lsn, mid_head);

    with_quiet_panics(|| nebula.process_batch(&bundle.db, &mut store, &items[30..]));
    govern::set_fault_plan(None);
    let sink = nebula.mutation_sink_mut().expect("sink installed");
    let final_head = sink.checkpoint(&bundle.db, &store).expect("final sealing checkpoint");
    assert!(final_head > mid_head, "the second half of the batch committed records");
    let final_bundle = root.join("bundle-final");
    create_bundle(&BundleSpec {
        archive_dir: root.join("archive"),
        bundle_dir: final_bundle.clone(),
        pages: None,
        created_seq: 2,
    })
    .expect("final capture");
    drop(nebula.take_mutation_sink());

    // The mid-batch bundle restores the engine as it was at capture
    // time, not as it is now.
    let mid = restore(&mid_bundle, None).expect("mid bundle restores");
    assert_eq!(mid.applied, mid_head);
    assert_eq!(state_digest(&mid.db, &mid.store), mid_digest, "mid-batch restore diverged");

    // The final bundle restores the live state — and can also rewind to
    // the mid-batch point (true PITR across the batch).
    let fin = restore(&final_bundle, None).expect("final bundle restores");
    assert_eq!(fin.applied, final_head);
    assert_eq!(state_digest(&fin.db, &fin.store), state_digest(&bundle.db, &store));
    let rewound = restore(&final_bundle, Some(mid_head)).expect("PITR to the mid-batch point");
    assert_eq!(state_digest(&rewound.db, &rewound.store), mid_digest);
    let _ = std::fs::remove_dir_all(&root);
}

fn copy_bundle(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("scratch dir");
    for entry in std::fs::read_dir(src).expect("bundle readable") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy");
    }
}

/// Seeded at-rest rot across several seeds: the backup scrubber finds
/// **every** damaged file (100% detection), never flags a clean one
/// (zero false positives), verification refuses the rotten bundle before
/// a restore can touch it, and the pristine bundle keeps restoring.
#[test]
fn archive_rot_is_fully_detected_with_zero_false_positives() {
    let root = tmp("rot");
    let (bundle, ops) = hostile_ops(120);
    let (digests, _, _) =
        archived_history(&root, Database::new(), fresh_store(&bundle), &ops[..120], 24);
    let pristine = root.join("bundle");
    create_bundle(&BundleSpec {
        archive_dir: root.join("archive"),
        bundle_dir: pristine.clone(),
        pages: None,
        created_seq: 1,
    })
    .expect("bundle capture");

    // A clean bundle scrubs clean: the detector has no false positives.
    let clean = scrub(&pristine).expect("scrub runs");
    assert!(clean.corrupt.is_empty(), "false positives on a pristine bundle: {:?}", clean.corrupt);
    assert!(clean.manifest_checked && clean.bases_ok > 0 && clean.segments_ok > 0);

    for round in 0..5u64 {
        let rotted = root.join(format!("rotted-{round}"));
        copy_bundle(&pristine, &rotted);
        govern::set_fault_plan(Some(
            govern::FaultPlan::new(fault_seed() ^ (round + 1)).with_archive_faults(0.0, 1.0, 0.0),
        ));
        let damaged = inject_rot(&rotted).expect("rot injection");
        govern::set_fault_plan(None);
        assert!(!damaged.is_empty(), "round {round}: the plan rots every archive file");

        let report = scrub(&rotted).expect("scrub survives rot");
        let found: BTreeSet<PathBuf> = report.corrupt.iter().map(|c| c.path.clone()).collect();
        let want: BTreeSet<PathBuf> = damaged.iter().cloned().collect();
        assert_eq!(found, want, "round {round}: scrub must find exactly the damaged set");
        assert!(
            verify_bundle(&rotted).is_err(),
            "round {round}: verification must refuse a rotten bundle"
        );
        assert!(
            restore(&rotted, None).is_err(),
            "round {round}: a restore must never run over undetected rot"
        );
    }

    // The pristine bundle was never the victim: it still restores.
    let restored = restore(&pristine, None).expect("pristine bundle restores");
    assert_eq!(
        state_digest(&restored.db, &restored.store),
        *digests.last().expect("digests"),
        "the pristine bundle restores the head"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// One bundle seeds everything: a replicated cluster cold-starts from it
/// with every replica byte-identical to the source, keeps replicating
/// past the bundle's head, and a shard cluster boots from the same
/// bundle with all shards converged (scrub finds no divergence).
#[test]
fn clusters_and_shards_seed_from_one_bundle_and_converge() {
    let root = tmp("seed");
    let (bundle, ops) = hostile_ops(80);
    let take = 80.min(ops.len());
    // The archived history covers the real dataset db (annotation ops
    // never mutate it), so the bundle seeds shards that can run the full
    // pipeline against real tables.
    let workload = build_workload(&bundle, &WorkloadSpec::default(), 5);
    let meta = bundle.meta.clone();
    let seed_store = fresh_store(&bundle);
    let (digests, _, store) = archived_history(&root, bundle.db, seed_store, &ops[..take], 16);
    let head = take as u64;
    let bundle_dir = root.join("bundle");
    create_bundle(&BundleSpec {
        archive_dir: root.join("archive"),
        bundle_dir: bundle_dir.clone(),
        pages: None,
        created_seq: 1,
    })
    .expect("bundle capture");

    // Replicated cluster: cold-start, byte-identical, still live.
    let mut cluster = Cluster::seed_from_bundle(
        &bundle_dir,
        &root.join("cluster"),
        2,
        Box::new(SimTransport::reliable(3)),
        ClusterConfig::default(),
    )
    .expect("cluster seeds from the bundle");
    assert_eq!(cluster.primary().last_lsn(), head);
    for r in cluster.replicas() {
        assert_eq!(r.applied(), head);
        assert_eq!(r.digest(), digests[take], "replica {} diverged from the bundle", r.id());
    }
    let next = WalOp::AddAnnotation {
        expected: AnnotationId(store.annotation_count() as u64),
        text: "post-seed annotation".to_string(),
        author: None,
        kind: None,
    };
    cluster.record(&next).expect("the seeded cluster accepts new records");
    cluster.pump(4);
    for r in cluster.replicas() {
        assert_eq!(r.applied(), head + 1, "replication continues past the bundle head");
        assert_eq!(r.digest(), cluster.primary().shadow_digest());
    }

    // Shard cluster: boot from the same bundle, then prove convergence.
    let mut shards = ShardCluster::seed_from_bundle(
        &bundle_dir,
        &meta,
        &NebulaConfig::default(),
        ShardConfig::new(3),
    )
    .expect("shard cluster seeds from the bundle");
    let wa = workload
        .iter()
        .flat_map(|s| &s.annotations)
        .find(|wa| !wa.ideal.is_empty())
        .expect("workload annotation");
    shards.ingest(&wa.annotation, &[wa.ideal[0]]).expect("seeded shards ingest");
    let outcome = shards.scrub().expect("scrub");
    assert_eq!(outcome.checked, 3);
    assert!(outcome.divergent.is_empty(), "seeded shards diverged: {outcome:?}");
    let _ = std::fs::remove_dir_all(&root);
}

/// Retention GC frees superseded archive files but never deletes the
/// oldest restorable point: after a pass keeping two bases, everything
/// from the reported oldest LSN through the head still restores
/// byte-identically, and anything older is a typed refusal.
#[test]
fn retention_gc_never_deletes_the_oldest_restorable_point() {
    let root = tmp("gc");
    let (bundle, ops) = hostile_ops(96);
    let (digests, _, _) =
        archived_history(&root, Database::new(), fresh_store(&bundle), &ops[..96], 12);
    let archive = root.join("archive");
    let before = archive_stats(&archive).expect("stats");
    assert_eq!(before.oldest_restorable_lsn, 0);
    assert!(before.bases >= 8, "the cadence makes bases worth collecting: {before:?}");

    let report = gc(&archive, 2).expect("gc pass");
    assert!(report.removed_bases > 0 && report.bytes_reclaimed > 0, "{report:?}");
    let after = archive_stats(&archive).expect("stats");
    assert_eq!(after.oldest_restorable_lsn, report.oldest_restorable_lsn);
    assert!(after.oldest_restorable_lsn > 0, "GC moved the restorable floor forward");
    assert_eq!(after.newest_lsn, before.newest_lsn, "GC never touches the head");

    let bundle_dir = root.join("bundle");
    let manifest = create_bundle(&BundleSpec {
        archive_dir: archive.clone(),
        bundle_dir: bundle_dir.clone(),
        pages: None,
        created_seq: 1,
    })
    .expect("bundle of the GC'd archive");
    assert_eq!(manifest.oldest_lsn, report.oldest_restorable_lsn);

    // Every LSN from the floor through the head still restores exactly.
    for target in [report.oldest_restorable_lsn, report.oldest_restorable_lsn + 1, 96] {
        let r = restore(&bundle_dir, Some(target)).expect("still restorable");
        assert_eq!(r.applied, target);
        assert_eq!(state_digest(&r.db, &r.store), digests[target as usize]);
    }
    // Below the floor is refused, never silently wrong.
    assert!(matches!(
        restore(&bundle_dir, Some(report.oldest_restorable_lsn - 1)),
        Err(BackupError::NotRestorable(_))
    ));
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// The checked-in sample bundle: on-disk format drift guard.
// ---------------------------------------------------------------------------

fn sample_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("samples").join("backup")
}

/// The deterministic state the sample bundle was generated from (no
/// randomness, no timestamps — regeneration is byte-reproducible).
fn sample_state() -> (Database, AnnotationStore, Vec<TupleId>) {
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
    let tuples: Vec<TupleId> = [("JW0001", "thrA"), ("JW0002", "thrB"), ("JW0013", "grpC")]
        .iter()
        .map(|(gid, name)| {
            db.insert("gene", vec![Value::text(*gid), Value::text(*name)]).expect("insert")
        })
        .collect();
    let mut store = AnnotationStore::new();
    let a = store.add_annotation(Annotation::new("seed note").by("sample"));
    store.attach(a, AttachmentTarget::tuple(tuples[0])).expect("attach");
    (db, store, tuples)
}

/// The scripted history the sample archives: six records across two
/// sealed segments (a checkpoint after the third record) plus the
/// sealing checkpoint `BACKUP TO` takes.
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
        WalOp::AddAnnotation {
            expected: AnnotationId(2),
            text: "second pass".to_string(),
            author: None,
            kind: None,
        },
        WalOp::AttachTuple { annotation: AnnotationId(2), tuple: tuples[0] },
    ]
}

/// Build the sample bundle into `bundle_dir` (scratch WAL and archive in
/// `work`), returning the reference digest at the head.
fn build_sample_bundle(work: &Path, bundle_dir: &Path) -> (u32, u32) {
    let (mut db, mut store, tuples) = sample_state();
    let mut mgr = Durability::begin(
        &work.join("wal"),
        &db,
        &store,
        DurabilityOptions { sync: SyncPolicy::EveryRecord, checkpoint_every: None },
    )
    .expect("fresh durability directory");
    mgr.set_archive(&work.join("archive"), 1).expect("arm archiving");
    for (i, op) in sample_ops(&tuples).iter().enumerate() {
        mgr.append(op).expect("append");
        replay_op(&mut db, &mut store, op).expect("replay");
        if i == 2 {
            mgr.checkpoint(&db, &store).expect("mid checkpoint");
        }
    }
    mgr.checkpoint(&db, &store).expect("sealing checkpoint");
    create_bundle(&BundleSpec {
        archive_dir: work.join("archive"),
        bundle_dir: bundle_dir.to_path_buf(),
        pages: None,
        created_seq: 1,
    })
    .expect("sample capture");
    state_digest(&db, &store)
}

/// Guards the bundle format: the committed sample (written by an earlier
/// build) must be reproduced **byte-for-byte** by the fixed sequence, and
/// must keep verifying, scrubbing clean, and restoring — at the head and
/// at an interior LSN. If this fails after a codec change, either restore
/// compatibility or bump the magic and regenerate via
/// `regenerate_sample_backup_bundle`.
#[test]
fn checked_in_sample_bundle_is_reproduced_byte_for_byte() {
    let work = tmp("sample-drift");
    let fresh = work.join("bundle");
    let head_digest = build_sample_bundle(&work, &fresh);

    let committed: BTreeSet<String> = std::fs::read_dir(sample_dir())
        .expect("committed sample bundle")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    let rebuilt: BTreeSet<String> = std::fs::read_dir(&fresh)
        .expect("fresh bundle")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(committed, rebuilt, "bundle file set drifted from samples/backup/");
    for name in &committed {
        let want = std::fs::read(sample_dir().join(name)).expect("committed file");
        let got = std::fs::read(fresh.join(name)).expect("fresh file");
        assert_eq!(got, want, "bundle format drifted: `{name}` no longer reproduces byte-for-byte");
    }

    // The committed bundle itself verifies, scrubs clean, and restores.
    verify_bundle(&sample_dir()).expect("committed sample verifies");
    let report = scrub(&sample_dir()).expect("scrub");
    assert!(report.corrupt.is_empty(), "{report:?}");
    let restored = restore(&sample_dir(), None).expect("committed sample restores");
    assert_eq!(restored.applied, 6);
    assert_eq!(state_digest(&restored.db, &restored.store), head_digest);
    // Interior PITR: records 4..6 come off, the curator remark stays.
    let rewound = restore(&sample_dir(), Some(3)).expect("interior restore");
    assert_eq!(rewound.applied, 3);
    assert_eq!(rewound.store.annotation_count(), 2);
    let _ = std::fs::remove_dir_all(&work);
}

/// Regenerates `samples/backup/` deterministically. Ignored in normal
/// runs; invoke by hand after an intentional format change:
/// `cargo test --test backup regenerate_sample -- --ignored`.
#[test]
#[ignore = "rewrites the checked-in sample; run manually after intentional format changes"]
fn regenerate_sample_backup_bundle() {
    let dir = sample_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let work = tmp("sample-regen");
    build_sample_bundle(&work, &dir);
    let _ = std::fs::remove_dir_all(&work);
    // Prove the freshly generated sample satisfies the drift test.
    checked_in_sample_bundle_is_reproduced_byte_for_byte();
}
