//! Anti-entropy media scrub: find at-rest corruption *between* checkpoints.
//!
//! Recovery ([`crate::recover()`]) only validates durable state when it is
//! read back after a crash; a bit that rots on disk while the engine is
//! healthy stays invisible until the worst possible moment. The scrubber
//! closes that gap:
//!
//! - [`inject_rot`] is the fault half: it rolls the seeded
//!   [`FaultSite::WalRot`]/[`FaultSite::CheckpointRot`] sites through
//!   [`rot_file`], which physically flips the drawn bit in the on-disk WAL
//!   or newest checkpoint image — deterministic media decay.
//! - [`scrub`] is the detection half: a **read-only** pass that re-parses
//!   the WAL (every record CRC) and re-decodes every retained checkpoint
//!   (whole-image CRC), reporting exactly what failed without touching the
//!   files.
//!
//! The cluster layer (`nebula-replica`) heals what the scrub finds by
//! re-checkpointing from the primary's shadow state.

use crate::wal::{read_wal, WAL_FILE};
use crate::{checkpoint, DurableError};
use nebula_govern::scrub::{rot_file, Artifact, ScrubReport};
use nebula_govern::FaultSite;
use std::path::Path;

/// Counter and span names the scrubber publishes to `nebula-obs`.
pub mod counters {
    /// Bits rotted on disk by [`super::inject_rot`].
    pub const BITROT_INJECTED: &str = "repair.bitrot_injected";
    /// Corrupt artifacts (WAL tails or checkpoint images) found by scrubs.
    pub const BITROT_DETECTED: &str = "repair.bitrot_detected";
    /// Scrub passes completed.
    pub const SCRUBS: &str = "repair.scrubs";
    /// Span: one scrub pass over a durability directory.
    pub const SPAN_SCRUB: &str = "repair.scrub";
}

/// Roll the seeded bit-rot sites against the durability directory `dir`,
/// physically flipping at most one WAL bit and one bit in the newest
/// checkpoint image. Returns the artifacts that rotted.
///
/// Both sites are consulted on every call — each consumes exactly two
/// draws from the installed fault plan whether or not it fires, and
/// whether or not its file exists — so the rot schedule never shifts the
/// stream seen by other fault sites. With no plan installed this is a
/// no-op.
pub fn inject_rot(dir: &Path) -> std::io::Result<Vec<Artifact>> {
    let mut rotted = Vec::new();
    if rot_file(FaultSite::WalRot, &dir.join(WAL_FILE))?.is_some() {
        rotted.push(Artifact::Wal);
    }
    // With no checkpoint yet, the site rolls against the first one's
    // (missing) name.
    let (seq, path) = checkpoint::list_checkpoints(dir)
        .ok()
        .and_then(|cks| cks.into_iter().next_back())
        .unwrap_or_else(|| (0, dir.join(checkpoint::file_name(0))));
    if rot_file(FaultSite::CheckpointRot, &path)?.is_some() {
        rotted.push(Artifact::Checkpoint(seq));
    }
    if !rotted.is_empty() {
        nebula_obs::counter_add(counters::BITROT_INJECTED, rotted.len() as u64);
    }
    Ok(rotted)
}

/// Run one read-only scrub pass over the durability directory `dir`:
/// re-parse the WAL and re-decode every retained checkpoint image,
/// reporting (but never repairing) whatever fails validation.
pub fn scrub(dir: &Path) -> Result<ScrubReport, DurableError> {
    let span = nebula_obs::span(counters::SPAN_SCRUB);
    let mut report = ScrubReport::default();

    let bytes = match std::fs::read(dir.join(WAL_FILE)) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    report.bytes = bytes.len() as u64;
    let (records, tail) = read_wal(&bytes);
    if let Some(reason) = tail.reason {
        report
            .flag(Artifact::Wal, format!("{reason} ({} record(s) dropped)", tail.dropped_records));
    }

    let checkpoints = checkpoint::list_checkpoints(dir)?;
    for (seq, path) in &checkpoints {
        let checked = std::fs::read(path).map_err(DurableError::from).and_then(|image| {
            report.bytes += image.len() as u64;
            checkpoint::decode(&image)
        });
        if let Err(e) = checked {
            report.flag(Artifact::Checkpoint(*seq), e.to_string());
        }
    }
    report.checked = vec![("wal records", records.len()), ("checkpoints", checkpoints.len())];

    nebula_obs::counter_add(counters::SCRUBS, 1);
    if !report.is_clean() {
        nebula_obs::counter_add(counters::BITROT_DETECTED, report.corrupt.len() as u64);
        nebula_obs::trace::flight_event("scrub", report.to_string());
    }
    span.detail(|| report.to_string());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{Durability, DurabilityOptions};
    use annostore::AnnotationStore;
    use nebula_core::MutationSink;
    use nebula_govern::{set_fault_plan, FaultPlan};
    use relstore::Database;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("nebula-scrub-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Seed a durability dir with a checkpoint plus a few WAL records.
    fn seeded(dir: &Path) -> (Database, AnnotationStore) {
        let db = Database::new();
        let mut store = AnnotationStore::new();
        let mut sink = Durability::begin(dir, &db, &store, DurabilityOptions::default()).unwrap();
        for i in 0..6 {
            let ann = annostore::Annotation::new(format!("scrub target {i}"));
            let expected = annostore::AnnotationId(store.annotation_count() as u64);
            sink.record(&nebula_core::Mutation::AddAnnotation { expected, annotation: &ann })
                .unwrap();
            store.add_annotation(ann);
            if i == 2 {
                sink.checkpoint(&db, &store).unwrap();
            }
        }
        sink.flush().unwrap();
        (db, store)
    }

    #[test]
    fn clean_directory_scrubs_clean() {
        let dir = temp_dir("clean");
        seeded(&dir);
        let report = scrub(&dir).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.count("checkpoints"), 1);
        assert!(report.count("wal records") > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_wal_rot_is_detected() {
        let dir = temp_dir("walrot");
        seeded(&dir);
        set_fault_plan(Some(FaultPlan::new(11).with(FaultSite::WalRot, 1.0)));
        let rot = inject_rot(&dir).unwrap();
        set_fault_plan(None);
        assert_eq!(rot, vec![Artifact::Wal], "wal rot must fire at rate 1.0");
        let report = scrub(&dir).unwrap();
        assert!(!report.is_clean(), "flipped wal bit must be found: {report}");
        assert_eq!(report.corrupt_artifacts(), vec![Artifact::Wal]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_checkpoint_rot_is_detected() {
        let dir = temp_dir("ckptrot");
        seeded(&dir);
        set_fault_plan(Some(FaultPlan::new(12).with(FaultSite::CheckpointRot, 1.0)));
        let rot = inject_rot(&dir).unwrap();
        set_fault_plan(None);
        assert!(
            matches!(rot[..], [Artifact::Checkpoint(_)]),
            "checkpoint rot must fire at rate 1.0"
        );
        let report = scrub(&dir).unwrap();
        assert_eq!(report.corrupt_artifacts(), rot, "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rot_without_plan_is_a_noop() {
        let dir = temp_dir("noplan");
        seeded(&dir);
        let rot = inject_rot(&dir).unwrap();
        assert!(rot.is_empty());
        assert!(scrub(&dir).unwrap().is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rot_consumes_fixed_draws() {
        // Same seed, rot sites toggled on/off: the downstream query-fault
        // stream must be identical either way.
        let dir = temp_dir("draws");
        seeded(&dir);
        let run = |plan: FaultPlan| {
            set_fault_plan(Some(plan));
            let _ = inject_rot(&dir).unwrap();
            let seq: Vec<bool> =
                (0..32).map(|_| nebula_govern::inject(FaultSite::Query).is_some()).collect();
            set_fault_plan(None);
            seq
        };
        let without = run(FaultPlan::new(9).with_query(0.5, true));
        let with = run(FaultPlan::new(9)
            .with_query(0.5, true)
            .with(FaultSite::WalRot, 1.0)
            .with(FaultSite::CheckpointRot, 1.0));
        assert_eq!(without, with);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
