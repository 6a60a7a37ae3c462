//! One scrub report for every at-rest medium, and one way to rot, or
//! write, a file.
//!
//! The WAL, checkpoints, page file, archive and replicas each have a
//! scrubber; every one of them returns a [`ScrubReport`]: labelled counts
//! of what it checked, the [`Finding`]s that failed validation, and the
//! [`Artifact`]s it healed. [`rot_file`] is the fault half the WAL,
//! checkpoint and archive rot sites share; [`atomic_replace`] is the one
//! durable-write protocol every authoritative file goes through.

use crate::FaultSite;
use std::fmt;
use std::fs::File;
use std::io::{self, Write};
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

/// The fault sites one [`atomic_replace`] rolls, and where a simulated
/// crash cuts it. A site left unnamed is not rolled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteFaults {
    /// Roll [`FaultSite::Enospc`] before any byte is written.
    pub enospc: bool,
    /// The site that tears the temp file at the byte count it draws.
    pub write: Option<FaultSite>,
    /// The site that fails the temp file's fsync.
    pub fsync: Option<FaultSite>,
    /// Stop after this many bytes of the temp file, as a power cut would.
    pub crash: Option<usize>,
}

/// The temp file [`atomic_replace`] writes: `path` with `.tmp` appended.
pub fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Make `bytes` the content of `path`, or leave `path` as it was: roll
/// `Enospc` if `faults` names it; write [`temp_path`] (the write site may
/// tear it, the crash cut stop it); fsync it (the fsync site may fail it);
/// read it back and compare byte for byte; rename it over `path`; fsync
/// the parent directory, so the rename survives a power loss. Every draw
/// goes through `roll(site, bytes.len())`. On every error the temp file is
/// removed. An injected `Enospc` fails as a full disk does (`StorageFull`),
/// a read-back mismatch as `InvalidData`, other injected faults as `Other`.
pub fn atomic_replace(
    path: &Path,
    bytes: &[u8],
    faults: WriteFaults,
    mut roll: impl FnMut(FaultSite, usize) -> Option<usize>,
) -> io::Result<()> {
    if faults.enospc && roll(FaultSite::Enospc, bytes.len()).is_some() {
        return Err(io::ErrorKind::StorageFull.into());
    }
    let tmp = temp_path(path);
    let written = (|| {
        let mut file = File::create(&tmp)?;
        let torn = faults.write.and_then(|site| roll(site, bytes.len()));
        let kept = torn.or(faults.crash).map_or(bytes.len(), |n| n.min(bytes.len()));
        file.write_all(&bytes[..kept])?;
        if torn.is_some() || faults.crash.is_some() {
            let what = if torn.is_some() { "torn write" } else { "simulated crash" };
            return Err(io::Error::other(format!("{what} after {kept} of {} bytes", bytes.len())));
        }
        if faults.fsync.is_some_and(|site| roll(site, bytes.len()).is_some()) {
            return Err(io::Error::other("fsync failed"));
        }
        file.sync_all()?;
        if std::fs::read(&tmp)? != bytes {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "read-back mismatch"));
        }
        std::fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return written;
    }
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()
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

    #[test]
    fn atomic_replace_leaves_the_old_bytes_or_the_new_ones() {
        let dir = std::env::temp_dir().join(format!("nebula-replace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target");
        let old: Vec<u8> = (0..64u8).collect();
        let new: Vec<u8> = (0..97u32).map(|i| (i * 13 % 251) as u8).collect();
        let holds = |bytes: &[u8]| {
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
            assert!(!temp_path(&path).exists(), "no temp file is left");
        };
        std::fs::write(&path, &old).unwrap();
        let faults = [
            (WriteFaults { enospc: true, ..WriteFaults::default() }, FaultSite::Enospc),
            (
                WriteFaults { write: Some(FaultSite::ArchiveWrite), ..WriteFaults::default() },
                FaultSite::ArchiveWrite,
            ),
            (
                WriteFaults { write: Some(FaultSite::PageWrite), ..WriteFaults::default() },
                FaultSite::PageWrite,
            ),
            (
                WriteFaults { fsync: Some(FaultSite::PageFsync), ..WriteFaults::default() },
                FaultSite::PageFsync,
            ),
        ];
        for (faults, site) in faults {
            let mut plan = FaultPlan::new(7).with(site, 1.0);
            let err = atomic_replace(&path, &new, faults, |s, len| plan.roll(s, len)).unwrap_err();
            let expected = match site {
                FaultSite::Enospc => io::ErrorKind::StorageFull,
                _ => io::ErrorKind::Other,
            };
            assert_eq!(err.kind(), expected, "{site}: {err}");
            holds(&old);
            atomic_replace(&path, &new, faults, |_, _| None).unwrap();
            holds(&new);
            std::fs::write(&path, &old).unwrap();
        }
        // No site named, so nothing is rolled.
        let unrolled = |_: FaultSite, _: usize| -> Option<usize> { panic!("rolled") };
        for cut in 0..new.len() {
            let faults = WriteFaults { crash: Some(cut), ..WriteFaults::default() };
            let err = atomic_replace(&path, &new, faults, unrolled).unwrap_err();
            assert!(err.to_string().starts_with(&format!("simulated crash after {cut} of")));
            holds(&old);
        }
        atomic_replace(&path, &new, WriteFaults::default(), unrolled).unwrap();
        holds(&new);
        // A failed first write leaves no file at all under the final name.
        let fresh = dir.join("fresh");
        let faults = WriteFaults { crash: Some(3), ..WriteFaults::default() };
        assert!(atomic_replace(&fresh, &new, faults, unrolled).is_err());
        assert!(!fresh.exists() && !temp_path(&fresh).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
