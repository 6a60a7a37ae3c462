//! WAL archiving — the feed for disaster recovery.
//!
//! Checkpoints truncate the WAL, which is exactly right for crash
//! recovery and exactly wrong for disaster recovery: the history needed
//! to rewind to "just before the bad batch" is discarded. When archiving
//! is enabled ([`crate::Durability::set_archive`]), the manager seals the
//! WAL's valid prefix into an epoch-stamped [`crate::segment`] frame and
//! writes it to the archive directory **before** the truncate — no WAL
//! byte is discarded until its archived copy is durable. Each committed
//! checkpoint image is archived alongside as a *base*, so any LSN from
//! the oldest base's watermark to the newest sealed record is restorable
//! by loading a base and replaying segments.
//!
//! Archive files:
//!
//! - `segment-<base_lsn>.seg` — a sealed WAL run (`NEBSEG01` frame),
//! - `base-<watermark>.ckpt` — a checkpoint image (`NEBSCP01` frame).
//!
//! All writes go through `atomic_replace` and roll the `ArchiveWrite` /
//! `ArchiveFsync` / `Enospc` fault sites; a failed archive write leaves
//! nothing under its final name and aborts the enclosing checkpoint, so the
//! live WAL keeps the records the archive failed to take.

use crate::segment::{decode_checkpoint_frame, decode_segment, encode_checkpoint_frame};
use crate::wal::read_wal;
use crate::{checkpoint, segment, DurableError};
use nebula_govern::scrub::{atomic_replace, WriteFaults};
use nebula_govern::{inject_io, FaultSite};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

/// Counter names this module publishes to `nebula-obs`.
pub mod counters {
    /// Sealed WAL segments archived.
    pub const SEGMENTS_ARCHIVED: &str = "backup.segments_archived";
    /// Base checkpoint images archived.
    pub const BASES_ARCHIVED: &str = "backup.bases_archived";
    /// Bytes written to archive directories.
    pub const BYTES_ARCHIVED: &str = "backup.bytes_archived";
    /// Archive writes that failed (injected or real).
    pub const ARCHIVE_FAILURES: &str = "backup.archive_failures";
}

/// File name of the sealed segment whose first record is `base_lsn`.
pub fn segment_file_name(base_lsn: u64) -> String {
    format!("segment-{base_lsn:020}.seg")
}

/// File name of the archived base checkpoint covering `watermark`.
pub fn base_file_name(watermark: u64) -> String {
    format!("base-{watermark:020}.ckpt")
}

/// Parse a `segment-<lsn>.seg` file name back to its base LSN.
pub fn parse_segment_lsn(name: &str) -> Option<u64> {
    name.strip_prefix("segment-")?.strip_suffix(".seg")?.parse().ok()
}

/// Parse a `base-<watermark>.ckpt` file name back to its watermark.
pub fn parse_base_watermark(name: &str) -> Option<u64> {
    name.strip_prefix("base-")?.strip_suffix(".ckpt")?.parse().ok()
}

/// Write one archive file through [`atomic_replace`], rolling `Enospc`
/// before any byte lands, `ArchiveWrite` (which tears the temp file) and
/// `ArchiveFsync`. A failed write leaves nothing under the final name.
fn write_archive_file(dir: &Path, name: &str, bytes: &[u8]) -> Result<PathBuf, DurableError> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let (write, fsync) = (Some(FaultSite::ArchiveWrite), Some(FaultSite::ArchiveFsync));
    let faults = WriteFaults { enospc: true, write, fsync, crash: None };
    atomic_replace(&path, bytes, faults, inject_io).map_err(|e| {
        nebula_obs::counter_add(counters::ARCHIVE_FAILURES, 1);
        match e.kind() {
            ErrorKind::StorageFull => {
                DurableError::NoSpace(format!("archiving {}", path.display()))
            }
            _ => DurableError::Archive(format!("{e} archiving {}", path.display())),
        }
    })?;
    nebula_obs::counter_add(counters::BYTES_ARCHIVED, bytes.len() as u64);
    Ok(path)
}

/// Seal `records` (the WAL's valid prefix — concatenated record frames,
/// the first at `base_lsn`) into the archive. Returns the segment path,
/// or `None` when the prefix holds no records.
pub fn archive_segment(
    dir: &Path,
    epoch: u64,
    base_lsn: u64,
    records: &[u8],
) -> Result<Option<PathBuf>, DurableError> {
    let (recs, tail) = read_wal(records);
    if !tail.is_clean() {
        return Err(DurableError::Corrupt(format!(
            "refusing to archive an unclean WAL prefix: {}",
            tail.reason.as_deref().unwrap_or("unknown reason")
        )));
    }
    if recs.is_empty() {
        return Ok(None);
    }
    let frame = segment::encode_segment(epoch, base_lsn, recs.len() as u32, records);
    let path = write_archive_file(dir, &segment_file_name(base_lsn), &frame)?;
    nebula_obs::counter_add(counters::SEGMENTS_ARCHIVED, 1);
    Ok(Some(path))
}

/// Archive a committed checkpoint image as a restore base.
pub fn archive_base(
    dir: &Path,
    epoch: u64,
    watermark: u64,
    image: &[u8],
) -> Result<PathBuf, DurableError> {
    let frame = encode_checkpoint_frame(epoch, image);
    let path = write_archive_file(dir, &base_file_name(watermark), &frame)?;
    nebula_obs::counter_add(counters::BASES_ARCHIVED, 1);
    Ok(path)
}

/// Sealed segments in `dir`, sorted by base LSN.
pub fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    list_by(dir, parse_segment_lsn)
}

/// Archived bases in `dir`, sorted by watermark.
pub fn list_bases(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    list_by(dir, parse_base_watermark)
}

fn list_by(dir: &Path, parse: fn(&str) -> Option<u64>) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        if let Some(key) = entry.file_name().to_str().and_then(parse) {
            out.push((key, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// A summary of what an archive directory can restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArchiveStats {
    /// Sealed WAL segments on disk.
    pub segments: usize,
    /// Archived base checkpoints on disk.
    pub bases: usize,
    /// The oldest LSN a restore can target (the oldest base's watermark).
    pub oldest_restorable_lsn: u64,
    /// The newest LSN the archive covers (last sealed record, or the
    /// newest base watermark when no segment reaches past it).
    pub newest_lsn: u64,
    /// Total archive bytes on disk.
    pub bytes: u64,
}

/// Survey an archive directory. Unreadable/torn files still count toward
/// `segments`/`bases`/`bytes` (the scrubber reports them); they just
/// cannot extend `newest_lsn`.
pub fn archive_stats(dir: &Path) -> std::io::Result<ArchiveStats> {
    let segments = list_segments(dir)?;
    let bases = list_bases(dir)?;
    let mut stats = ArchiveStats {
        segments: segments.len(),
        bases: bases.len(),
        oldest_restorable_lsn: bases.first().map(|(w, _)| *w).unwrap_or(0),
        newest_lsn: bases.last().map(|(w, _)| *w).unwrap_or(0),
        bytes: 0,
    };
    for (_, path) in bases.iter().chain(segments.iter()) {
        stats.bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    }
    if let Some((base_lsn, path)) = segments.last() {
        if let Ok(seg) =
            std::fs::read(path).map_err(DurableError::from).and_then(|b| decode_segment(&b))
        {
            let last = base_lsn + seg.records.len().saturating_sub(1) as u64;
            stats.newest_lsn = stats.newest_lsn.max(last);
        }
    }
    Ok(stats)
}

/// Decode and validate one archived base: envelope, checkpoint image,
/// and that the image's watermark matches the file name.
pub fn read_base(watermark: u64, path: &Path) -> Result<Vec<u8>, DurableError> {
    let bytes = std::fs::read(path)?;
    let frame = decode_checkpoint_frame(&bytes)?;
    let (image_watermark, _, _) = checkpoint::decode(&frame.image)?;
    if image_watermark != watermark {
        return Err(DurableError::Corrupt(format!(
            "archived base {} carries watermark {image_watermark}, expected {watermark}",
            path.display()
        )));
    }
    Ok(frame.image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{encode_record, WalOp};
    use annostore::AnnotationId;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nebula-archive-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn wal_bytes(first_lsn: u64, n: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..n {
            let op = WalOp::AddAnnotation {
                expected: AnnotationId(i),
                text: format!("note {i}"),
                author: None,
                kind: None,
            };
            out.extend_from_slice(&encode_record(first_lsn + i, &op));
        }
        out
    }

    #[test]
    fn segments_round_trip_and_list_in_lsn_order() {
        let dir = temp_dir("roundtrip");
        assert!(archive_segment(&dir, 1, 11, &wal_bytes(11, 3)).unwrap().is_some());
        assert!(archive_segment(&dir, 1, 1, &wal_bytes(1, 10)).unwrap().is_some());
        let listed = list_segments(&dir).unwrap();
        assert_eq!(listed.iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![1, 11]);
        let seg = decode_segment(&std::fs::read(&listed[1].1).unwrap()).unwrap();
        assert_eq!(seg.base_lsn, 11);
        assert_eq!(seg.records.len(), 3);
        // An empty prefix archives nothing.
        assert!(archive_segment(&dir, 1, 14, &[]).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_report_restorable_range() {
        let dir = temp_dir("stats");
        let db = relstore::Database::new();
        let store = annostore::AnnotationStore::new();
        let image = checkpoint::encode(0, &db, &store);
        archive_base(&dir, 1, 0, &image).unwrap();
        archive_segment(&dir, 1, 1, &wal_bytes(1, 5)).unwrap();
        let stats = archive_stats(&dir).unwrap();
        assert_eq!(stats.segments, 1);
        assert_eq!(stats.bases, 1);
        assert_eq!(stats.oldest_restorable_lsn, 0);
        assert_eq!(stats.newest_lsn, 5);
        assert!(stats.bytes > 0);
        // A missing directory is just an empty archive.
        let empty = archive_stats(&temp_dir("stats-missing")).unwrap();
        assert_eq!(empty, ArchiveStats::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_archive_write_fails_and_leaves_nothing_under_its_name() {
        let dir = temp_dir("torn");
        nebula_govern::set_fault_plan(Some(
            nebula_govern::FaultPlan::new(3).with(FaultSite::ArchiveWrite, 1.0),
        ));
        let err = archive_segment(&dir, 1, 1, &wal_bytes(1, 4)).unwrap_err();
        nebula_govern::set_fault_plan(None);
        assert!(matches!(err, DurableError::Archive(_)), "{err}");
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "neither the segment nor its temp file: {left:?}");
        // A clean retry writes a decodable segment.
        let path = archive_segment(&dir, 1, 1, &wal_bytes(1, 4)).unwrap().unwrap();
        assert_eq!(decode_segment(&std::fs::read(path).unwrap()).unwrap().records.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_and_fsync_failures_surface_typed() {
        let dir = temp_dir("enospc");
        nebula_govern::set_fault_plan(Some(
            nebula_govern::FaultPlan::new(4).with(FaultSite::Enospc, 1.0),
        ));
        let err = archive_segment(&dir, 1, 1, &wal_bytes(1, 2)).unwrap_err();
        assert!(matches!(err, DurableError::NoSpace(_)), "{err}");
        assert!(list_segments(&dir).unwrap().is_empty(), "enospc persists nothing");
        nebula_govern::set_fault_plan(Some(
            nebula_govern::FaultPlan::new(4).with(FaultSite::ArchiveFsync, 1.0),
        ));
        let err = archive_segment(&dir, 1, 1, &wal_bytes(1, 2)).unwrap_err();
        nebula_govern::set_fault_plan(None);
        assert!(matches!(err, DurableError::Archive(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_base_rejects_a_mislabeled_image() {
        let dir = temp_dir("mislabel");
        let db = relstore::Database::new();
        let store = annostore::AnnotationStore::new();
        let image = checkpoint::encode(7, &db, &store);
        let path = archive_base(&dir, 1, 7, &image).unwrap();
        assert_eq!(read_base(7, &path).unwrap(), image);
        let renamed = dir.join(base_file_name(9));
        std::fs::rename(&path, &renamed).unwrap();
        assert!(read_base(9, &renamed).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
