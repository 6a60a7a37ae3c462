//! Backup-side scrubbing: find torn and rotten archive files *before* a
//! restore needs them.
//!
//! An archive that sits on disk for months is exposed to the same decay
//! the page store defends against: torn writes that crashed mid-flight
//! and silent bit rot. The scrubber structurally decodes every base and
//! segment (the same validation a restore performs) and, when a signed
//! manifest is present, re-derives every digest against it. It reports
//! instead of erroring — operators want the full damage list, not the
//! first casualty — and it never repairs in place: a corrupt archive
//! file is a fact for the retention policy and the operator, not
//! something to quietly rewrite.
//!
//! [`inject_rot`] is the chaos half: it rolls the `ArchiveRot` fault
//! site per file and flips one bit on disk where the draw says, which is
//! how the acceptance test proves 100% detection with zero false
//! positives.

use crate::{counters, BackupError};
use nebula_codec::crc32c;
use nebula_durable::archive::{list_bases, list_segments};
use nebula_durable::checkpoint;
use nebula_durable::segment::{decode_checkpoint_frame, decode_segment};
use nebula_govern::{inject_io, FaultSite, IoFault};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// One corrupt file the scrubber found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptFile {
    /// Path of the damaged file.
    pub path: PathBuf,
    /// Why it failed validation.
    pub reason: String,
}

/// What a scrub pass found.
#[derive(Debug, Clone, Default)]
pub struct BackupScrubReport {
    /// Base checkpoints validated clean.
    pub bases_ok: usize,
    /// Segments validated clean.
    pub segments_ok: usize,
    /// Files that failed structural validation or their manifest digest.
    pub corrupt: Vec<CorruptFile>,
    /// Whether a manifest was present and its digests were checked too.
    pub manifest_checked: bool,
    /// Bytes read and hashed.
    pub bytes_scrubbed: u64,
}

impl BackupScrubReport {
    /// True when every file validated clean.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
    }
}

/// Scrub an archive or bundle directory.
///
/// Every base and segment is structurally decoded; when `MANIFEST.neb`
/// is present (a bundle), every listed file is additionally checked
/// against its signed length and digest, so a flipped bit that happens
/// to keep a frame decodable is still caught. Corruption is *reported*,
/// never silently skipped and never repaired.
pub fn scrub(dir: &Path) -> Result<BackupScrubReport, BackupError> {
    let mut report = BackupScrubReport::default();
    for (watermark, path) in list_bases(dir)? {
        match check_base(watermark, &path, &mut report.bytes_scrubbed) {
            Ok(()) => report.bases_ok += 1,
            Err(reason) => report.corrupt.push(CorruptFile { path, reason }),
        }
    }
    for (base_lsn, path) in list_segments(dir)? {
        match check_segment(base_lsn, &path, &mut report.bytes_scrubbed) {
            Ok(()) => report.segments_ok += 1,
            Err(reason) => report.corrupt.push(CorruptFile { path, reason }),
        }
    }
    let manifest_path = dir.join(crate::manifest::MANIFEST_FILE);
    if manifest_path.exists() {
        report.manifest_checked = true;
        match check_manifest(dir, &manifest_path, &mut report.bytes_scrubbed) {
            Ok(extra) => {
                for c in extra {
                    if !report.corrupt.iter().any(|k| k.path == c.path) {
                        report.corrupt.push(c);
                    }
                }
            }
            Err(reason) => report.corrupt.push(CorruptFile { path: manifest_path, reason }),
        }
    }
    nebula_obs::counter_add(counters::SCRUBS, 1);
    nebula_obs::counter_add(counters::ROT_DETECTED, report.corrupt.len() as u64);
    Ok(report)
}

fn check_base(watermark: u64, path: &Path, bytes: &mut u64) -> Result<(), String> {
    let data = std::fs::read(path).map_err(|e| e.to_string())?;
    *bytes += data.len() as u64;
    let frame = decode_checkpoint_frame(&data).map_err(|e| e.to_string())?;
    let (image_watermark, _, _) = checkpoint::decode(&frame.image).map_err(|e| e.to_string())?;
    if image_watermark != watermark {
        return Err(format!("image watermark {image_watermark} contradicts the file name"));
    }
    Ok(())
}

fn check_segment(base_lsn: u64, path: &Path, bytes: &mut u64) -> Result<(), String> {
    let data = std::fs::read(path).map_err(|e| e.to_string())?;
    *bytes += data.len() as u64;
    let seg = decode_segment(&data).map_err(|e| e.to_string())?;
    if seg.base_lsn != base_lsn {
        return Err(format!("frame base lsn {} contradicts the file name", seg.base_lsn));
    }
    Ok(())
}

fn check_manifest(
    dir: &Path,
    manifest_path: &Path,
    bytes: &mut u64,
) -> Result<Vec<CorruptFile>, String> {
    let data = std::fs::read(manifest_path).map_err(|e| e.to_string())?;
    *bytes += data.len() as u64;
    let m = crate::manifest::decode(&data).map_err(|e| e.to_string())?;
    let mut corrupt = Vec::new();
    for entry in &m.entries {
        let path = dir.join(&entry.name);
        let reason = match std::fs::read(&path) {
            Err(e) => Some(format!("manifest lists it but: {e}")),
            Ok(d) if d.len() as u64 != entry.len => {
                Some(format!("{} bytes on disk, manifest says {}", d.len(), entry.len))
            }
            Ok(d) if crc32c(&d) != entry.crc => Some("fails its manifest digest".into()),
            Ok(_) => None,
        };
        if let Some(reason) = reason {
            corrupt.push(CorruptFile { path, reason });
        }
    }
    Ok(corrupt)
}

/// Chaos hook: roll the `ArchiveRot` fault site once per archive file
/// and flip the drawn bit on disk where it fires. Returns the paths that
/// were damaged — the test harness's ground truth for proving the
/// scrubber finds exactly the rot that was injected.
pub fn inject_rot(dir: &Path) -> Result<Vec<PathBuf>, BackupError> {
    let mut rotted = Vec::new();
    let mut files: Vec<PathBuf> =
        list_bases(dir)?.into_iter().chain(list_segments(dir)?).map(|(_, p)| p).collect();
    files.sort();
    for path in files {
        let len = std::fs::metadata(&path)?.len() as usize;
        if let Some(IoFault::BitFlip { bit }) = inject_io(FaultSite::ArchiveRot, len) {
            flip_bit(&path, bit)?;
            nebula_obs::counter_add(counters::ROT_INJECTED, 1);
            rotted.push(path);
        }
    }
    Ok(rotted)
}

fn flip_bit(path: &Path, bit: usize) -> Result<(), BackupError> {
    let mut f = std::fs::OpenOptions::new().read(true).write(true).open(path)?;
    let offset = (bit / 8) as u64;
    let mut byte = [0u8; 1];
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(&mut byte)?;
    byte[0] ^= 1 << (bit % 8);
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(&byte)?;
    f.sync_data()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use annostore::AnnotationId;
    use nebula_durable::archive::{archive_base, archive_segment};
    use nebula_durable::wal::{encode_record, WalOp};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nebula-bscrub-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fill(dir: &Path, segments: u64, per: u64) {
        let db = relstore::Database::new();
        let store = annostore::AnnotationStore::new();
        archive_base(dir, 1, 0, &checkpoint::encode(0, &db, &store)).unwrap();
        for s in 0..segments {
            let base = 1 + s * per;
            let mut recs = Vec::new();
            for i in 0..per {
                let lsn = base + i;
                let op = WalOp::AddAnnotation {
                    expected: AnnotationId(lsn - 1),
                    text: format!("note {lsn}"),
                    author: None,
                    kind: None,
                };
                recs.extend_from_slice(&encode_record(lsn, &op));
            }
            archive_segment(dir, 1, base, &recs).unwrap();
        }
    }

    #[test]
    fn a_clean_archive_scrubs_clean() {
        let dir = temp_dir("clean");
        fill(&dir, 3, 4);
        let report = scrub(&dir).unwrap();
        assert!(report.is_clean(), "{:?}", report.corrupt);
        assert_eq!(report.bases_ok, 1);
        assert_eq!(report.segments_ok, 3);
        assert!(!report.manifest_checked);
        assert!(report.bytes_scrubbed > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_rot_is_detected_exactly() {
        let dir = temp_dir("rot");
        fill(&dir, 4, 3);
        // Rate 0.5: some files rot, some stay clean — the scrubber must
        // flag exactly the rotted set (100% detection, no false positives).
        nebula_govern::set_fault_plan(Some(
            nebula_govern::FaultPlan::new(21).with_archive_faults(0.0, 0.5, 0.0),
        ));
        let rotted = inject_rot(&dir).unwrap();
        nebula_govern::set_fault_plan(None);
        assert!(!rotted.is_empty(), "seed 21 must rot at least one file");
        assert!(rotted.len() < 5, "seed 21 must leave at least one file clean");
        let report = scrub(&dir).unwrap();
        let mut flagged: Vec<_> = report.corrupt.iter().map(|c| c.path.clone()).collect();
        flagged.sort();
        assert_eq!(flagged, rotted);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rot_in_a_bundle_is_caught_even_when_the_frame_still_decodes() {
        // A corrupt *name* cross-check: tamper by swapping two record
        // frames would keep CRCs... simplest decodable-but-wrong case is
        // a renamed file; the manifest digest pass must also catch pure
        // content substitution between structurally valid files.
        let dir = temp_dir("bundle-rot");
        fill(&dir, 2, 2);
        let bundle = temp_dir("bundle-rot-out");
        crate::bundle::create_bundle(&crate::bundle::BundleSpec {
            archive_dir: dir.clone(),
            bundle_dir: bundle.clone(),
            pages: None,
            created_seq: 1,
        })
        .unwrap();
        assert!(scrub(&bundle).unwrap().is_clean());
        // Substitute one structurally valid segment for another under the
        // wrong name: structural decode flags the name mismatch, and the
        // manifest digest pass flags it independently.
        let a = bundle.join(nebula_durable::archive::segment_file_name(1));
        let b = bundle.join(nebula_durable::archive::segment_file_name(3));
        std::fs::copy(&a, &b).unwrap();
        let report = scrub(&bundle).unwrap();
        assert!(report.manifest_checked);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].path, b);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&bundle);
    }

    #[test]
    fn a_truncated_base_is_reported_not_erred() {
        let dir = temp_dir("torn-base");
        fill(&dir, 1, 2);
        let base = dir.join(nebula_durable::archive::base_file_name(0));
        let bytes = std::fs::read(&base).unwrap();
        std::fs::write(&base, &bytes[..bytes.len() / 2]).unwrap();
        let report = scrub(&dir).unwrap();
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.bases_ok, 0);
        assert_eq!(report.segments_ok, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
