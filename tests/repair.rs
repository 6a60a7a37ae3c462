//! Anti-entropy scrub against seeded bit-rot, end to end.
//!
//! The acceptance bar: the scrubber detects **100% of injected bit-rot
//! before the next checkpoint**. Rot is injected through the governor's
//! seeded `WalRot` / `CheckpointRot` fault sites, so every run is
//! replayable from its seed; detection is the read-only
//! [`nebula_durable::scrub`] CRC pass; and at the cluster level a dirty
//! scrub heals the media by re-checkpointing from the primary's shadow
//! state — after which recovery from the healed directory reproduces the
//! live state byte-for-byte.

use nebula::nebula_durable::wal::WalOp;
use nebula::nebula_durable::{checkpoint, inject_rot, scrub, Durability};
use nebula::nebula_govern::{set_fault_plan, FaultPlan};
use nebula::prelude::*;
use nebula::relstore::Database;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nebula-repair-it-{tag}-{}", std::process::id()));
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

/// Sweep 16 seeds: each injects one WAL bit-flip and one checkpoint
/// bit-flip at seeded positions, and the very next scrub — no checkpoint
/// in between — must flag both artifacts. 32 injections, 32 detections.
#[test]
fn scrub_detects_every_injected_bit_rot_before_the_next_checkpoint() {
    let mut injected = 0usize;
    let mut detected = 0usize;
    for seed in 0..16u64 {
        let dir = temp_dir(&format!("rot-{seed}"));
        let db = Database::new();
        let store = AnnotationStore::new();
        let mut wal = Durability::begin(&dir, &db, &store, DurabilityOptions::default())
            .expect("fresh durability directory");
        for i in 0..32 {
            wal.append(&op(i)).expect("append");
        }
        assert!(scrub(&dir).expect("scrub").is_clean(), "seed {seed}: clean before injection");

        set_fault_plan(Some(
            FaultPlan::new(seed).with(FaultSite::WalRot, 1.0).with(FaultSite::CheckpointRot, 1.0),
        ));
        let rot = inject_rot(&dir).expect("inject");
        set_fault_plan(None);
        assert_eq!(rot.len(), 2, "seed {seed}: both sites fired at rate 1.0");
        assert_eq!(rot[0], Artifact::Wal, "seed {seed}: WAL site fired at rate 1.0");
        assert!(matches!(rot[1], Artifact::Checkpoint(_)), "seed {seed}: checkpoint site fired");
        injected += 2;

        let report = scrub(&dir).expect("scrub");
        assert!(!report.is_clean(), "seed {seed}: rot went undetected: {report}");
        let found = report.corrupt_artifacts();
        detected += rot.iter().filter(|a| found.contains(a)).count();
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(detected, injected, "every injected flip is found: {detected}/{injected}");
}

/// Rot that fires against an empty fault plan is a no-op, and a clean
/// directory stays clean under repeated scrubs — no false positives.
#[test]
fn scrub_has_no_false_positives() {
    let dir = temp_dir("clean");
    let db = Database::new();
    let store = AnnotationStore::new();
    let mut wal = Durability::begin(&dir, &db, &store, DurabilityOptions::default())
        .expect("fresh durability directory");
    for i in 0..16 {
        wal.append(&op(i)).expect("append");
    }
    let rot = inject_rot(&dir).expect("inject without a plan");
    assert!(rot.is_empty(), "no plan, no rot");
    for _ in 0..3 {
        let report = scrub(&dir).expect("scrub");
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.count("wal records"), 16);
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Full-stack healing: a cluster whose primary's media catches rot heals
/// it on the next scrub by re-checkpointing from the shadow state, and
/// recovery from the healed directory reproduces the live state
/// byte-for-byte — corruption is caught and repaired *between*
/// checkpoints, never first discovered at recovery.
#[test]
fn cluster_scrub_heals_media_rot_and_recovery_agrees_byte_for_byte() {
    for seed in [0xF00Du64, 0xBAD5EED, 12345] {
        let dir = temp_dir(&format!("heal-{seed}"));
        let mut cluster = Cluster::new(
            &dir,
            &Database::new(),
            &AnnotationStore::new(),
            2,
            Box::new(SimTransport::reliable(3)),
            ClusterConfig::default(),
        )
        .expect("fresh cluster directory");
        for i in 0..24 {
            cluster.record(&op(i)).expect("record");
        }
        let wal_dir = cluster.primary().wal().dir().to_path_buf();

        set_fault_plan(Some(
            FaultPlan::new(seed).with(FaultSite::WalRot, 1.0).with(FaultSite::CheckpointRot, 1.0),
        ));
        let rot = inject_rot(&wal_dir).expect("inject");
        set_fault_plan(None);
        assert!(!rot.is_empty(), "seed {seed:#x}: rot landed");

        let report = cluster.scrub();
        assert_eq!(report.corrupt_artifacts(), rot, "seed {seed:#x}: scrub saw the rot");
        assert_eq!(report.healed, rot, "seed {seed:#x}: scrub healed from shadow");
        assert!(cluster.scrub().is_clean(), "seed {seed:#x}: healed media scrubs clean");

        // Recovery from the healed directory agrees with the live state.
        let (pdb, pstore) = cluster.primary().shadow();
        let want = checkpoint::encode(0, pdb, pstore);
        drop(cluster);
        let (resumed, recovered) =
            Durability::resume(&wal_dir, DurabilityOptions::default()).expect("resume");
        assert_eq!(
            checkpoint::encode(0, &recovered.db, &recovered.store),
            want,
            "seed {seed:#x}: recovered bytes match the live shadow"
        );
        drop(resumed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
