//! Anti-entropy media scrub: find at-rest corruption *between* checkpoints.
//!
//! Recovery ([`crate::recover`]) only validates durable state when it is
//! read back after a crash; a bit that rots on disk while the engine is
//! healthy stays invisible until the worst possible moment. The scrubber
//! closes that gap:
//!
//! - [`inject_rot`] is the fault half: it consults the seeded
//!   [`FaultSite::WalRot`]/[`FaultSite::CheckpointRot`] sites and, when one
//!   fires, physically flips the chosen bit in the on-disk WAL or newest
//!   checkpoint image — deterministic media decay.
//! - [`scrub`] is the detection half: a **read-only** pass that re-parses
//!   the WAL (every record CRC) and re-decodes every retained checkpoint
//!   (whole-image CRC), reporting exactly what failed without touching the
//!   files.
//!
//! The cluster layer (`nebula-replica`) drives both on a governed-clock
//! cadence and heals what the scrub finds by re-checkpointing from the
//! primary's shadow state.

use crate::wal::{read_wal, WAL_FILE};
use crate::{checkpoint, DurableError};
use nebula_govern::{inject_io, FaultSite};
use std::fmt;
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

/// What [`inject_rot`] did to a durability directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RotReport {
    /// Bit offset flipped in the WAL, if the `WalRot` site fired.
    pub wal_bit: Option<usize>,
    /// `(checkpoint seq, bit offset)` flipped, if `CheckpointRot` fired.
    pub checkpoint_bit: Option<(u64, usize)>,
}

impl RotReport {
    /// Did any bit actually rot?
    pub fn any(&self) -> bool {
        self.wal_bit.is_some() || self.checkpoint_bit.is_some()
    }
}

/// Read-only findings of one scrub pass over a durability directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Valid records in the WAL prefix.
    pub wal_records: usize,
    /// Records past the first invalid WAL frame.
    pub wal_dropped: usize,
    /// Why WAL parsing stopped early, when it did.
    pub wal_reason: Option<String>,
    /// Checkpoint images inspected.
    pub checkpoints: usize,
    /// Sequence numbers of checkpoint images that failed validation.
    pub corrupt_checkpoints: Vec<u64>,
}

impl ScrubReport {
    /// No corruption anywhere: the WAL parses end-to-end and every
    /// checkpoint image validates.
    pub fn is_clean(&self) -> bool {
        self.wal_dropped == 0 && self.corrupt_checkpoints.is_empty()
    }

    /// Corrupt artifacts found (invalid WAL tail counts as one).
    pub fn findings(&self) -> usize {
        usize::from(self.wal_dropped > 0) + self.corrupt_checkpoints.len()
    }
}

impl fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "clean ({} wal records, {} checkpoints)", self.wal_records, self.checkpoints)
        } else {
            write!(
                f,
                "CORRUPT: wal dropped {} ({}), checkpoints bad {:?}",
                self.wal_dropped,
                self.wal_reason.as_deref().unwrap_or("-"),
                self.corrupt_checkpoints
            )
        }
    }
}

/// Flip `bit` in the file at `path`, if the file is long enough.
/// Returns whether a byte was actually rewritten.
fn flip_on_disk(path: &Path, bit: usize) -> std::io::Result<bool> {
    let mut bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    let byte = bit / 8;
    if byte >= bytes.len() {
        return Ok(false);
    }
    bytes[byte] ^= 1 << (bit % 8);
    std::fs::write(path, &bytes)?;
    Ok(true)
}

/// Roll the seeded bit-rot sites against the durability directory `dir`,
/// physically flipping at most one WAL bit and one bit in the newest
/// checkpoint image.
///
/// Both sites are consulted on every call — each consumes exactly two
/// draws from the installed fault plan whether or not it fires — so the
/// rot schedule never shifts the stream seen by other fault sites. With no
/// plan installed this is a no-op.
pub fn inject_rot(dir: &Path) -> std::io::Result<RotReport> {
    let mut report = RotReport::default();

    let wal_path = dir.join(WAL_FILE);
    let wal_len = std::fs::metadata(&wal_path).map(|m| m.len() as usize).unwrap_or(0);
    if let Some(bit) = inject_io(FaultSite::WalRot, wal_len) {
        if flip_on_disk(&wal_path, bit)? {
            report.wal_bit = Some(bit);
        }
    }

    let newest = checkpoint::list_checkpoints(dir).ok().and_then(|cks| cks.into_iter().next_back());
    let ckpt_len = newest
        .as_ref()
        .and_then(|(_, p)| std::fs::metadata(p).ok())
        .map(|m| m.len() as usize)
        .unwrap_or(0);
    if let Some(bit) = inject_io(FaultSite::CheckpointRot, ckpt_len) {
        if let Some((seq, path)) = newest {
            if flip_on_disk(&path, bit)? {
                report.checkpoint_bit = Some((seq, bit));
            }
        }
    }

    if report.any() {
        let n = u64::from(report.wal_bit.is_some()) + u64::from(report.checkpoint_bit.is_some());
        nebula_obs::counter_add(counters::BITROT_INJECTED, n);
    }
    Ok(report)
}

/// Run one read-only scrub pass over the durability directory `dir`:
/// re-parse the WAL and re-decode every retained checkpoint image,
/// reporting (but never repairing) whatever fails validation.
pub fn scrub(dir: &Path) -> Result<ScrubReport, DurableError> {
    let span = nebula_obs::trace::span(counters::SPAN_SCRUB);
    let mut report = ScrubReport::default();

    let wal_path = dir.join(WAL_FILE);
    let bytes = match std::fs::read(&wal_path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let (records, tail) = read_wal(&bytes);
    report.wal_records = records.len();
    report.wal_dropped = tail.dropped_records;
    report.wal_reason = tail.reason;

    for (seq, path) in checkpoint::list_checkpoints(dir)? {
        report.checkpoints += 1;
        let ok = std::fs::read(&path)
            .map_err(DurableError::from)
            .and_then(|image| checkpoint::decode(&image));
        if ok.is_err() {
            report.corrupt_checkpoints.push(seq);
        }
    }

    nebula_obs::counter_add(counters::SCRUBS, 1);
    if !report.is_clean() {
        nebula_obs::counter_add(counters::BITROT_DETECTED, report.findings() as u64);
        nebula_obs::trace::flight_event("scrub", report.to_string());
    }
    if span.is_active() {
        span.detail(report.to_string());
    }
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
        assert_eq!(report.checkpoints, 1);
        assert!(report.wal_records > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_wal_rot_is_detected() {
        let dir = temp_dir("walrot");
        seeded(&dir);
        set_fault_plan(Some(FaultPlan::new(11).with(FaultSite::WalRot, 1.0)));
        let rot = inject_rot(&dir).unwrap();
        set_fault_plan(None);
        assert!(rot.wal_bit.is_some(), "wal rot must fire at rate 1.0");
        let report = scrub(&dir).unwrap();
        assert!(!report.is_clean(), "flipped wal bit must be found: {report}");
        assert!(report.wal_dropped > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_checkpoint_rot_is_detected() {
        let dir = temp_dir("ckptrot");
        seeded(&dir);
        set_fault_plan(Some(FaultPlan::new(12).with(FaultSite::CheckpointRot, 1.0)));
        let rot = inject_rot(&dir).unwrap();
        set_fault_plan(None);
        assert!(rot.checkpoint_bit.is_some(), "checkpoint rot must fire at rate 1.0");
        let report = scrub(&dir).unwrap();
        assert_eq!(report.corrupt_checkpoints.len(), 1, "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rot_without_plan_is_a_noop() {
        let dir = temp_dir("noplan");
        seeded(&dir);
        let rot = inject_rot(&dir).unwrap();
        assert!(!rot.any());
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
