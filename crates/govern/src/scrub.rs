//! One scrub report for every at-rest medium, and one way to rot a file.
//!
//! The WAL, checkpoints, page file, archive and replicas each have a
//! scrubber; every one of them returns a [`ScrubReport`]: labelled counts
//! of what it checked, the [`Finding`]s that failed validation, and the
//! [`Artifact`]s it healed. [`rot_file`] is the fault half the WAL,
//! checkpoint and archive rot sites share.

use crate::FaultSite;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// One thing a scrubber validates.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Artifact {
    /// The write-ahead log of a durability directory.
    Wal,
    /// The checkpoint image with this sequence number.
    Checkpoint(u64),
    /// The page with this id in a page file.
    Page(u32),
    /// An archive or bundle file.
    File(PathBuf),
    /// The replica with this node id.
    Replica(usize),
    /// The shard with this index.
    Shard(usize),
}

impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Artifact::Wal => f.write_str("wal"),
            Artifact::Checkpoint(seq) => write!(f, "checkpoint {seq}"),
            Artifact::Page(id) => write!(f, "page {id}"),
            Artifact::File(path) => write!(f, "'{}'", path.display()),
            Artifact::Replica(id) => write!(f, "replica {id}"),
            Artifact::Shard(s) => write!(f, "shard {s}"),
        }
    }
}

/// One artifact that failed validation, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// What failed.
    pub artifact: Artifact,
    /// Why it failed.
    pub reason: String,
}

/// What one scrub (or repair) pass checked, found and healed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Labelled counts of what was checked, e.g. `("wal records", 24)`.
    pub checked: Vec<(&'static str, usize)>,
    /// Bytes read and validated.
    pub bytes: u64,
    /// Artifacts that failed validation.
    pub corrupt: Vec<Finding>,
    /// Artifacts the pass restored to a valid state.
    pub healed: Vec<Artifact>,
}

impl ScrubReport {
    /// No artifact failed validation.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
    }

    /// Report `artifact` corrupt for `reason`.
    pub fn flag(&mut self, artifact: Artifact, reason: impl Into<String>) {
        self.corrupt.push(Finding { artifact, reason: reason.into() });
    }

    /// The count checked under `label` (0 when the pass has no such count).
    pub fn count(&self, label: &str) -> usize {
        self.checked.iter().find(|(l, _)| *l == label).map_or(0, |(_, n)| *n)
    }

    /// The corrupt artifacts, in the order they were found.
    pub fn corrupt_artifacts(&self) -> Vec<Artifact> {
        self.corrupt.iter().map(|c| c.artifact.clone()).collect()
    }
}

impl fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            f.write_str("clean")?;
        } else {
            write!(f, "{} corrupt", self.corrupt.len())?;
        }
        let counts: Vec<String> = self.checked.iter().map(|(l, n)| format!("{n} {l}")).collect();
        write!(f, " ({}", counts.join(", "))?;
        if self.bytes > 0 {
            write!(f, "; {} bytes", self.bytes)?;
        }
        f.write_str(")")?;
        for c in &self.corrupt {
            write!(f, "; {}: {}", c.artifact, c.reason)?;
        }
        if !self.healed.is_empty() {
            let healed: Vec<String> = self.healed.iter().map(Artifact::to_string).collect();
            write!(f, "; healed {}", healed.join(", "))?;
        }
        Ok(())
    }
}

/// Roll `site` once against the file at `path` and, when it fires, flip
/// the drawn bit in place. A missing file rolls with `len` 0 and flips
/// nothing, so the site consumes its fixed draws whatever is on disk.
/// Returns the flipped bit.
pub fn rot_file(site: FaultSite, path: &Path) -> io::Result<Option<usize>> {
    let read = match std::fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        other => other,
    };
    let Some(bit) = crate::inject_io(site, read.as_ref().map_or(0, Vec::len)) else {
        return Ok(None);
    };
    let mut bytes = read?;
    if bytes.is_empty() {
        return Ok(None);
    }
    bytes[bit / 8] ^= 1 << (bit % 8);
    std::fs::write(path, &bytes)?;
    Ok(Some(bit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{inject_io, set_fault_plan, FaultPlan};

    #[test]
    fn one_display_for_counts_findings_and_healed() {
        let checked = vec![("wal records", 24), ("checkpoints", 1)];
        let mut report = ScrubReport { checked, bytes: 512, ..ScrubReport::default() };
        assert_eq!(report.to_string(), "clean (24 wal records, 1 checkpoints; 512 bytes)");
        report.flag(Artifact::Checkpoint(3), "checksum mismatch");
        report.flag(Artifact::Replica(1), "wedged (fenced)");
        report.healed.push(Artifact::Checkpoint(3));
        assert_eq!(
            report.to_string(),
            "2 corrupt (24 wal records, 1 checkpoints; 512 bytes); \
             checkpoint 3: checksum mismatch; replica 1: wedged (fenced); healed checkpoint 3"
        );
        assert_eq!((report.count("checkpoints"), report.count("pages")), (1, 0));
        let shards = ScrubReport { checked: vec![("shards", 2)], ..ScrubReport::default() };
        assert_eq!(shards.to_string(), "clean (2 shards)", "no byte count when none were read");
    }

    #[test]
    fn rot_file_draws_once_whatever_is_on_disk() {
        let dir = std::env::temp_dir().join(format!("nebula-rot-file-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let old: Vec<u8> = (0..4096u32).map(|i| (i * 7 % 251) as u8).collect();
        std::fs::write(dir.join("empty"), b"").unwrap();
        std::fs::write(dir.join("full"), &old).unwrap();
        // The sentinel fires at rate 1 over a wide buffer, so its drawn
        // bit gives away the stream position `rot_file` left behind.
        let roll = |name: &str| {
            set_fault_plan(Some(
                FaultPlan::new(0x5EED)
                    .with(FaultSite::WalRot, 1.0)
                    .with(FaultSite::ArchiveRot, 1.0),
            ));
            let bit = rot_file(FaultSite::WalRot, &dir.join(name)).unwrap();
            let sentinel: Vec<_> =
                (0..4).map(|_| inject_io(FaultSite::ArchiveRot, 1 << 20)).collect();
            set_fault_plan(None);
            (bit, sentinel)
        };
        let (missing, after_missing) = roll("missing");
        let (empty, after_empty) = roll("empty");
        let (flipped, after_full) = roll("full");
        assert_eq!((missing, empty), (None, None), "nothing to flip");
        assert_eq!(after_missing, after_empty);
        assert_eq!(after_missing, after_full);
        assert!(!dir.join("missing").exists(), "rot never creates a file");
        assert_eq!(std::fs::read(dir.join("empty")).unwrap(), b"");

        let bit = flipped.expect("rate 1 fires on a 4 KB file");
        let new = std::fs::read(dir.join("full")).unwrap();
        let diff: Vec<usize> = (0..old.len() * 8)
            .filter(|b| (old[b / 8] ^ new[b / 8]) & (1 << (b % 8)) != 0)
            .collect();
        assert_eq!(diff, vec![bit], "exactly the returned bit differs");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
