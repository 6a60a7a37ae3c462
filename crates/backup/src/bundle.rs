//! Bundle capture, verification, and point-in-time restore.
//!
//! A bundle is a directory: the archive's base checkpoints and sealed
//! WAL segments (validated structurally before a byte is copied), an
//! optional page file, and — written last, so a torn capture is never
//! mistaken for a complete one — the signed [`crate::manifest`].
//!
//! Restores are paranoid by construction: [`restore`] re-verifies every
//! file against the manifest digests *before* touching the engine (and
//! reads only manifest-listed files — an unmanifested extra fails
//! verification outright), loads the newest *unfenced* base at or below
//! the target LSN, and replays segments through the same idempotent
//! [`replay_op`] path crash recovery uses. Frames a failover fenced —
//! a deposed primary's sealed-but-never-committed suffix overlapping
//! the new epoch's LSNs — are refused in favor of the highest-epoch
//! coverage. Any gap between the base and the target is a typed
//! [`BackupError::NotRestorable`], never a silently short state.

use crate::manifest::{self, BackupManifest, ManifestEntry, MANIFEST_FILE};
use crate::{counters, BackupError};
use annostore::AnnotationStore;
use nebula_codec::crc32c;
use nebula_durable::archive::{list_bases, list_segments, parse_base_watermark, parse_segment_lsn};
use nebula_durable::segment::{decode_checkpoint_frame, decode_segment, Segment};
use nebula_durable::{checkpoint, replay_op};
use nebula_govern::inject_io;
use nebula_govern::scrub::{atomic_replace, WriteFaults};
use relstore::Database;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

/// What to capture into a bundle.
#[derive(Debug, Clone)]
pub struct BundleSpec {
    /// The live archive directory the durability manager feeds.
    pub archive_dir: PathBuf,
    /// Where to write the bundle (created if missing).
    pub bundle_dir: PathBuf,
    /// An optional page file to carry along (copied as `pages.neb`).
    pub pages: Option<PathBuf>,
    /// Capture ordinal stamped into the manifest. No wall clock: callers
    /// supply a sequence number so bundles stay byte-reproducible.
    pub created_seq: u64,
}

/// What [`verify_bundle`] checked.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// The decoded, signature-checked manifest.
    pub manifest: BackupManifest,
    /// Files whose length and digest matched.
    pub files_verified: usize,
    /// Bytes hashed while verifying.
    pub bytes_verified: u64,
}

/// The state a restore rebuilt.
#[derive(Debug)]
pub struct Restored {
    /// The restored relational store.
    pub db: Database,
    /// The restored annotation store.
    pub store: AnnotationStore,
    /// The LSN the state reflects (the restore target).
    pub applied: u64,
    /// Watermark of the base checkpoint the restore started from.
    pub base_watermark: u64,
    /// Epoch stamped on the archived frames.
    pub epoch: u64,
    /// Records replayed on top of the base.
    pub replayed: usize,
    /// Records skipped because the base already covered them.
    pub skipped: usize,
    /// Records refused because a later epoch fenced them: a deposed
    /// primary sealed them into the archive, but they were never
    /// committed past the failover handover.
    pub fenced: usize,
}

/// Epoch fencing for archived history. A failover hands the archive to a
/// new primary at a watermark, and every frame the new epoch writes
/// (its opening base, its segments) covers history from that watermark
/// on. `starts` holds one `(epoch, covers-from)` pair per archived
/// frame: a base covers from its watermark, a segment from
/// `base_lsn - 1`. For epoch `e`, the lowest coverage start among
/// higher-epoch frames is the last LSN of `e` that was ever committed —
/// records (or base watermarks) past that cutoff were sealed by a
/// deposed primary and must never restore, or a divergent, never-acked
/// history silently shadows the real one.
fn epoch_cutoff(starts: &[(u64, u64)], epoch: u64) -> u64 {
    starts.iter().filter(|(e, _)| *e > epoch).map(|(_, s)| *s).min().unwrap_or(u64::MAX)
}

/// Write one file into the bundle through [`atomic_replace`], rolling the
/// `Enospc` fault site so a full disk surfaces as a typed error with
/// nothing half-written kept as a complete capture (the manifest is
/// written last). The file and its directory entry are on stable storage
/// when this returns, so every data file is durable before the manifest
/// that vouches for it is written.
fn write_bundle_file(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), BackupError> {
    let faults = WriteFaults { enospc: true, ..WriteFaults::default() };
    atomic_replace(&dir.join(name), bytes, faults, inject_io).map_err(|e| match e.kind() {
        ErrorKind::StorageFull => BackupError::NoSpace(format!("writing {name} into the bundle")),
        _ => e.into(),
    })?;
    nebula_obs::counter_add(counters::BUNDLE_BYTES, bytes.len() as u64);
    Ok(())
}

/// Capture a verified bundle from a live archive directory.
///
/// Every archive file is structurally decoded **before** it is copied —
/// a torn or rotten archive file fails the capture with
/// [`BackupError::Corrupt`] (run [`crate::scrub()`] to find them all)
/// rather than poisoning the bundle. Each file, directory entry included,
/// is durable as it is written and the signed manifest is written last,
/// so an interrupted capture is detectable: no manifest, no bundle.
pub fn create_bundle(spec: &BundleSpec) -> Result<BackupManifest, BackupError> {
    let bases = list_bases(&spec.archive_dir)?;
    let segments = list_segments(&spec.archive_dir)?;
    if bases.is_empty() {
        return Err(BackupError::NotRestorable(format!(
            "archive {} holds no base checkpoint; enable archiving and checkpoint first",
            spec.archive_dir.display()
        )));
    }
    std::fs::create_dir_all(&spec.bundle_dir)?;
    // A re-used bundle directory may hold leftovers from an earlier
    // capture (e.g. segments the archive has since GC'd) or planted
    // files. Clear every bundle artifact first — the stale manifest
    // above all, so a capture that fails midway never leaves an old
    // manifest vouching for a mixed file set.
    clear_bundle_dir(&spec.bundle_dir)?;

    let mut entries = Vec::new();
    let mut epoch = 0u64;
    // (epoch, covers-from) per archived frame, for epoch fencing.
    let mut starts: Vec<(u64, u64)> = Vec::new();
    let mut base_frames: Vec<(u64, u64)> = Vec::new(); // (watermark, epoch)
    let mut seg_frames: Vec<(u64, u64)> = Vec::new(); // (epoch, last_lsn)

    for (watermark, path) in &bases {
        let bytes = std::fs::read(path)?;
        let frame = decode_checkpoint_frame(&bytes).map_err(|e| {
            BackupError::Corrupt(format!("archived base {} is unreadable: {e}", path.display()))
        })?;
        let (image_watermark, _, _) = checkpoint::decode(&frame.image)
            .map_err(|e| BackupError::Corrupt(format!("base {}: {e}", path.display())))?;
        if image_watermark != *watermark {
            return Err(BackupError::Corrupt(format!(
                "base {} carries watermark {image_watermark}",
                path.display()
            )));
        }
        epoch = epoch.max(frame.epoch);
        starts.push((frame.epoch, *watermark));
        base_frames.push((*watermark, frame.epoch));
        entries.push(copy_in(&spec.bundle_dir, path, &bytes)?);
    }
    for (base_lsn, path) in &segments {
        let bytes = std::fs::read(path)?;
        let seg = decode_segment(&bytes).map_err(|e| {
            BackupError::Corrupt(format!("archived segment {} is unreadable: {e}", path.display()))
        })?;
        if seg.base_lsn != *base_lsn {
            return Err(BackupError::Corrupt(format!(
                "segment {} carries base lsn {}",
                path.display(),
                seg.base_lsn
            )));
        }
        epoch = epoch.max(seg.epoch);
        starts.push((seg.epoch, base_lsn.saturating_sub(1)));
        seg_frames.push((seg.epoch, base_lsn + seg.records.len().saturating_sub(1) as u64));
        entries.push(copy_in(&spec.bundle_dir, path, &bytes)?);
    }

    // The restorable range, epoch-fenced: a frame only extends it up to
    // its epoch's cutoff — anything past that was superseded at failover.
    let mut head_lsn = 0u64;
    let mut oldest_lsn = u64::MAX;
    for (w, e) in &base_frames {
        if *w <= epoch_cutoff(&starts, *e) {
            head_lsn = head_lsn.max(*w);
            oldest_lsn = oldest_lsn.min(*w);
        }
    }
    for (e, last) in &seg_frames {
        head_lsn = head_lsn.max((*last).min(epoch_cutoff(&starts, *e)));
    }
    if oldest_lsn == u64::MAX {
        return Err(BackupError::NotRestorable(format!(
            "every base in {} is past its epoch's failover fence",
            spec.archive_dir.display()
        )));
    }
    if let Some(pages) = &spec.pages {
        let bytes = std::fs::read(pages)?;
        write_bundle_file(&spec.bundle_dir, "pages.neb", &bytes)?;
        entries.push(ManifestEntry {
            name: "pages.neb".into(),
            len: bytes.len() as u64,
            crc: crc32c(&bytes),
        });
    }

    entries.sort_by(|a, b| a.name.cmp(&b.name));
    let m = BackupManifest { head_lsn, oldest_lsn, epoch, created_seq: spec.created_seq, entries };
    write_bundle_file(&spec.bundle_dir, MANIFEST_FILE, &manifest::encode(&m))?;
    nebula_obs::counter_add(counters::BUNDLES_CREATED, 1);
    Ok(m)
}

/// Remove every bundle artifact from a (re-used) bundle directory. The
/// manifest goes first: once it is gone, no half-finished state in the
/// directory can pass verification.
fn clear_bundle_dir(dir: &Path) -> Result<(), BackupError> {
    let manifest = dir.join(MANIFEST_FILE);
    if manifest.exists() {
        std::fs::remove_file(&manifest)?;
    }
    for (_, path) in list_bases(dir)?.into_iter().chain(list_segments(dir)?) {
        std::fs::remove_file(&path)?;
    }
    let pages = dir.join("pages.neb");
    if pages.exists() {
        std::fs::remove_file(&pages)?;
    }
    Ok(())
}

fn copy_in(bundle_dir: &Path, src: &Path, bytes: &[u8]) -> Result<ManifestEntry, BackupError> {
    let name = src
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| BackupError::Io(format!("unnameable archive file {}", src.display())))?
        .to_string();
    write_bundle_file(bundle_dir, &name, bytes)?;
    Ok(ManifestEntry { name, len: bytes.len() as u64, crc: crc32c(bytes) })
}

/// Verify a bundle against its signed manifest: every listed file must
/// exist with the exact length and CRC32C digest the manifest recorded.
pub fn verify_bundle(dir: &Path) -> Result<VerifyReport, BackupError> {
    let result = verify_inner(dir);
    if result.is_err() {
        nebula_obs::counter_add(counters::VERIFY_FAILURES, 1);
    }
    result
}

fn verify_inner(dir: &Path) -> Result<VerifyReport, BackupError> {
    let manifest_path = dir.join(MANIFEST_FILE);
    let bytes = std::fs::read(&manifest_path).map_err(|e| {
        BackupError::Verify(format!("cannot read {}: {e}", manifest_path.display()))
    })?;
    let m = manifest::decode(&bytes)?;
    let mut bytes_verified = 0u64;
    for entry in &m.entries {
        let path = dir.join(&entry.name);
        let data = std::fs::read(&path)
            .map_err(|e| BackupError::Verify(format!("manifest lists {} but: {e}", entry.name)))?;
        if data.len() as u64 != entry.len {
            return Err(BackupError::Verify(format!(
                "{} is {} bytes, manifest says {}",
                entry.name,
                data.len(),
                entry.len
            )));
        }
        if crc32c(&data) != entry.crc {
            return Err(BackupError::Verify(format!("{} fails its digest", entry.name)));
        }
        bytes_verified += entry.len;
    }
    // The manifest must also be exhaustive: a base or segment file the
    // manifest does not list has no digest or signature coverage, so a
    // restore reading it would run over unverified bytes. Planted or
    // stale extras fail the bundle outright.
    for (_, path) in list_bases(dir)?.into_iter().chain(list_segments(dir)?) {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if m.entry(name).is_none() {
            return Err(BackupError::Verify(format!(
                "{name} is present but the signed manifest does not list it"
            )));
        }
    }
    Ok(VerifyReport { manifest: m.clone(), files_verified: m.entries.len(), bytes_verified })
}

/// Rebuild state from a bundle, to `as_of` (an LSN) or, when `None`, the
/// bundle's head.
///
/// Verification runs first — a bundle that fails its manifest never
/// reaches the engine, and only files the signed manifest lists are
/// read, so an unmanifested (planted or stale) base or segment can
/// never contribute a byte. Then the newest *unfenced* base at or below
/// the target loads and segments replay through [`replay_op`], skipping
/// records the base already covers and stopping exactly at the target.
/// Records a later epoch fenced at failover — a deposed primary's
/// sealed-but-never-committed suffix — are refused, never replayed; the
/// higher epoch's frames cover those LSNs with the history that was
/// actually committed. A gap in the archived history or a target
/// outside `[oldest_lsn, head_lsn]` is [`BackupError::NotRestorable`].
pub fn restore(dir: &Path, as_of: Option<u64>) -> Result<Restored, BackupError> {
    let _span = nebula_obs::span(counters::SPAN_RESTORE);
    let report = verify_bundle(dir)?;
    let m = &report.manifest;
    let target = as_of.unwrap_or(m.head_lsn);
    if target > m.head_lsn || target < m.oldest_lsn {
        return Err(BackupError::NotRestorable(format!(
            "lsn {target} is outside the bundle's range [{}, {}]",
            m.oldest_lsn, m.head_lsn
        )));
    }

    // Load frames strictly from the manifest — never a raw directory
    // listing — and note each frame's epoch and coverage start so
    // failover fencing can be applied below.
    let mut bases: Vec<(u64, u64, PathBuf)> = Vec::new(); // (watermark, epoch, path)
    let mut segments: Vec<(u64, Segment)> = Vec::new(); // (base_lsn, decoded)
    let mut starts: Vec<(u64, u64)> = Vec::new(); // (epoch, covers-from)
    for entry in &m.entries {
        let path = dir.join(&entry.name);
        if let Some(watermark) = parse_base_watermark(&entry.name) {
            let frame = decode_checkpoint_frame(&std::fs::read(&path)?)
                .map_err(|e| BackupError::Corrupt(format!("base {}: {e}", path.display())))?;
            starts.push((frame.epoch, watermark));
            bases.push((watermark, frame.epoch, path));
        } else if let Some(base_lsn) = parse_segment_lsn(&entry.name) {
            let seg = decode_segment(&std::fs::read(&path)?)
                .map_err(|e| BackupError::Corrupt(format!("segment {}: {e}", path.display())))?;
            if seg.base_lsn != base_lsn {
                return Err(BackupError::Corrupt(format!(
                    "segment {} carries base lsn {}",
                    path.display(),
                    seg.base_lsn
                )));
            }
            starts.push((seg.epoch, base_lsn.saturating_sub(1)));
            segments.push((base_lsn, seg));
        }
    }
    bases.sort_by_key(|(w, _, _)| *w);
    segments.sort_by_key(|(l, _)| *l);

    // Newest unfenced base at or below the target: a base a later epoch
    // fenced (its watermark is past the handover) holds never-committed
    // state and must not seed the restore.
    let (base_watermark, base_path) = bases
        .iter()
        .rfind(|(w, e, _)| *w <= target && *w <= epoch_cutoff(&starts, *e))
        .map(|(w, _, p)| (*w, p.clone()))
        .ok_or_else(|| {
            BackupError::NotRestorable(format!("no base checkpoint at or below lsn {target}"))
        })?;
    let base_bytes = std::fs::read(&base_path)?;
    let frame = decode_checkpoint_frame(&base_bytes)
        .map_err(|e| BackupError::Corrupt(format!("base {}: {e}", base_path.display())))?;
    let (watermark, mut db, mut store) = checkpoint::decode(&frame.image)
        .map_err(|e| BackupError::Corrupt(format!("base {}: {e}", base_path.display())))?;
    if watermark != base_watermark {
        return Err(BackupError::Corrupt(format!(
            "base {} carries watermark {watermark}",
            base_path.display()
        )));
    }

    let mut applied = watermark;
    let mut replayed = 0usize;
    let mut skipped = 0usize;
    let mut fenced = 0usize;
    'segments: for (_, seg) in &segments {
        let limit = epoch_cutoff(&starts, seg.epoch);
        for rec in &seg.records {
            if rec.lsn > limit {
                // Sealed by a deposed primary past the handover: the
                // higher epoch's frames carry the committed history for
                // these LSNs.
                fenced += 1;
                continue;
            }
            if rec.lsn <= applied {
                skipped += 1;
                continue;
            }
            if rec.lsn > target {
                break 'segments;
            }
            if rec.lsn != applied + 1 {
                return Err(BackupError::NotRestorable(format!(
                    "archived history jumps from lsn {applied} to {}; a segment is missing",
                    rec.lsn
                )));
            }
            replay_op(&mut db, &mut store, &rec.op)
                .map_err(|e| BackupError::Corrupt(format!("replaying lsn {}: {e}", rec.lsn)))?;
            applied = rec.lsn;
            replayed += 1;
        }
    }
    if applied != target {
        return Err(BackupError::NotRestorable(format!(
            "archived history ends at lsn {applied}, short of the requested {target}"
        )));
    }
    nebula_obs::counter_add(counters::RESTORES, 1);
    nebula_obs::counter_add(counters::RESTORE_RECORDS_REPLAYED, replayed as u64);
    Ok(Restored { db, store, applied, base_watermark, epoch: m.epoch, replayed, skipped, fenced })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_durable::state_digest;
    use nebula_durable::{Durability, DurabilityOptions, WalOp};
    use nebula_govern::FaultSite;
    use relstore::{DataType, TableSchema, Value};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nebula-bundle-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Build an archive with `checkpoints` checkpoints, `per` records
    /// between each, and return (live db, live store, archive dir, root).
    fn seeded_archive(
        tag: &str,
        checkpoints: usize,
        per: u64,
    ) -> (Database, AnnotationStore, PathBuf, PathBuf) {
        let root = temp_dir(tag);
        let data = root.join("data");
        let archive = root.join("archive");
        let mut db = Database::new();
        let mut store = AnnotationStore::new();
        db.create_table(TableSchema::builder("t").column("v", DataType::Int).build().unwrap())
            .unwrap();
        let mut d = Durability::begin(&data, &db, &store, DurabilityOptions::default()).unwrap();
        d.set_archive(&archive, 1).unwrap();
        let mut n = 0u64;
        for _ in 0..checkpoints {
            for _ in 0..per {
                let id = annostore::AnnotationId(store.annotation_count() as u64);
                let op = WalOp::AddAnnotation {
                    expected: id,
                    text: format!("note {n}"),
                    author: Some("op".into()),
                    kind: None,
                };
                d.append(&op).unwrap();
                replay_op(&mut db, &mut store, &op).unwrap();
                db.insert("t", vec![Value::Int(n as i64)]).unwrap();
                n += 1;
            }
            d.checkpoint(&db, &store).unwrap();
        }
        (db, store, archive, root)
    }

    #[test]
    fn a_bundle_restores_byte_identical_state() {
        let (db, store, archive, root) = seeded_archive("identical", 3, 4);
        let bundle = root.join("bundle");
        let m = create_bundle(&BundleSpec {
            archive_dir: archive,
            bundle_dir: bundle.clone(),
            pages: None,
            created_seq: 1,
        })
        .unwrap();
        assert_eq!(m.head_lsn, 12);
        assert_eq!(m.oldest_lsn, 0);
        let report = verify_bundle(&bundle).unwrap();
        assert_eq!(report.files_verified, m.entries.len());
        let r = restore(&bundle, None).unwrap();
        assert_eq!(r.applied, 12);
        assert_eq!(state_digest(&r.db, &r.store), state_digest(&db, &store));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn as_of_lsn_restores_to_any_boundary_in_range() {
        let (_, _, archive, root) = seeded_archive("asof", 2, 5);
        let bundle = root.join("bundle");
        create_bundle(&BundleSpec {
            archive_dir: archive,
            bundle_dir: bundle.clone(),
            pages: None,
            created_seq: 1,
        })
        .unwrap();
        for lsn in 0..=10u64 {
            let r = restore(&bundle, Some(lsn)).unwrap();
            assert_eq!(r.applied, lsn);
            assert_eq!(r.store.annotation_count() as u64, lsn);
        }
        assert!(matches!(restore(&bundle, Some(11)), Err(BackupError::NotRestorable(_))));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_tampered_bundle_is_refused_before_restore() {
        let (_, _, archive, root) = seeded_archive("tamper", 2, 3);
        let bundle = root.join("bundle");
        create_bundle(&BundleSpec {
            archive_dir: archive,
            bundle_dir: bundle.clone(),
            pages: None,
            created_seq: 1,
        })
        .unwrap();
        // Flip one bit in one segment: verify and restore both refuse.
        let seg = list_segments(&bundle).unwrap().pop().unwrap().1;
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&seg, &bytes).unwrap();
        assert!(matches!(verify_bundle(&bundle), Err(BackupError::Verify(_))));
        assert!(matches!(restore(&bundle, None), Err(BackupError::Verify(_))));
        // A missing file is refused too.
        bytes[mid] ^= 0x10;
        std::fs::write(&seg, &bytes).unwrap();
        verify_bundle(&bundle).unwrap();
        std::fs::remove_file(&seg).unwrap();
        assert!(matches!(verify_bundle(&bundle), Err(BackupError::Verify(_))));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_gap_in_the_archived_history_is_not_restorable() {
        let (_, _, archive, root) = seeded_archive("gap", 3, 3);
        let bundle = root.join("bundle");
        create_bundle(&BundleSpec {
            archive_dir: archive,
            bundle_dir: bundle.clone(),
            pages: None,
            created_seq: 1,
        })
        .unwrap();
        // Drop the middle segment (lsns 4..=6) and rewrite the manifest
        // honestly — the gap itself must be detected, not just the digest.
        let victim = bundle.join(nebula_durable::archive::segment_file_name(4));
        std::fs::remove_file(&victim).unwrap();
        let mut m = manifest::decode(&std::fs::read(bundle.join(MANIFEST_FILE)).unwrap()).unwrap();
        m.entries.retain(|e| !e.name.contains("00000000000000000004.seg"));
        std::fs::write(bundle.join(MANIFEST_FILE), manifest::encode(&m)).unwrap();
        // Restores at or below the newest base before the gap still work…
        assert_eq!(restore(&bundle, Some(3)).unwrap().applied, 3);
        // …because base-6 covers lsn 6, so do restores ≥ 6…
        assert_eq!(restore(&bundle, Some(7)).unwrap().applied, 7);
        // …but lsn 4 and 5 fell into the hole.
        for lsn in [4u64, 5] {
            assert!(
                matches!(restore(&bundle, Some(lsn)), Err(BackupError::NotRestorable(_))),
                "lsn {lsn} restored across a gap"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Encode a run of `AddAnnotation` records, `text_tag` per record,
    /// with `expected` ids continuing from `store_count`.
    fn record_run(first_lsn: u64, store_count: u64, texts: &[String]) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, text) in texts.iter().enumerate() {
            let op = WalOp::AddAnnotation {
                expected: annostore::AnnotationId(store_count + i as u64),
                text: text.clone(),
                author: None,
                kind: None,
            };
            out.extend_from_slice(&nebula_durable::wal::encode_record(first_lsn + i as u64, &op));
        }
        out
    }

    /// The review-found failover hazard: the archive directory survives a
    /// promotion, so it holds an epoch-1 segment whose tail (lsn 5..=6)
    /// was sealed by the deposed primary but never committed — the
    /// failover handed over at lsn 4, and epoch 2 re-wrote those LSNs
    /// with different records. Epoch 1 even checkpointed the divergent
    /// state as `base-6`. A restore must rebuild only the committed
    /// history: epoch-1 records past the handover and the poisoned base
    /// are fenced, the epoch-2 frames win.
    #[test]
    fn restore_prefers_the_highest_epoch_across_a_failover_overlap() {
        use nebula_durable::archive::{archive_base, archive_segment};
        let root = temp_dir("failover");
        let archive = root.join("archive");

        let committed: Vec<String> = (1..=8).map(|n| format!("committed {n}")).collect();
        let fenced: Vec<String> = (5..=6).map(|n| format!("fenced {n}")).collect();

        // Reference digests of the committed history at every LSN.
        let mut db = Database::new();
        let mut store = AnnotationStore::new();
        let mut digests = vec![state_digest(&db, &store)];
        let mut states = Vec::new();
        for (i, text) in committed.iter().enumerate() {
            let op = WalOp::AddAnnotation {
                expected: annostore::AnnotationId(i as u64),
                text: text.clone(),
                author: None,
                kind: None,
            };
            replay_op(&mut db, &mut store, &op).unwrap();
            digests.push(state_digest(&db, &store));
            states.push(nebula_durable::checkpoint::encode(i as u64 + 1, &db, &store));
        }

        // Epoch 1: base-0, then one segment sealing lsn 1..=6 where the
        // last two records diverge from the committed history, and a
        // checkpoint of that divergent state as base-6.
        let empty =
            nebula_durable::checkpoint::encode(0, &Database::new(), &AnnotationStore::new());
        archive_base(&archive, 1, 0, &empty).unwrap();
        let mut e1_texts = committed[..4].to_vec();
        e1_texts.extend(fenced.iter().cloned());
        archive_segment(&archive, 1, 1, &record_run(1, 0, &e1_texts)).unwrap();
        let mut db1 = Database::new();
        let mut store1 = AnnotationStore::new();
        for (i, text) in e1_texts.iter().enumerate() {
            let op = WalOp::AddAnnotation {
                expected: annostore::AnnotationId(i as u64),
                text: text.clone(),
                author: None,
                kind: None,
            };
            replay_op(&mut db1, &mut store1, &op).unwrap();
        }
        archive_base(&archive, 1, 6, &nebula_durable::checkpoint::encode(6, &db1, &store1))
            .unwrap();

        // Epoch 2 adopts the archive at the handover watermark (lsn 4)
        // and seals the committed 5..=8.
        archive_base(&archive, 2, 4, &states[3]).unwrap();
        archive_segment(&archive, 2, 5, &record_run(5, 4, &committed[4..])).unwrap();

        let bundle = root.join("bundle");
        let m = create_bundle(&BundleSpec {
            archive_dir: archive,
            bundle_dir: bundle.clone(),
            pages: None,
            created_seq: 1,
        })
        .unwrap();
        assert_eq!(m.epoch, 2);
        assert_eq!(m.head_lsn, 8, "fenced epoch-1 records must not extend the head");
        assert_eq!(m.oldest_lsn, 0);

        // Restore to the head: byte-identical to the committed history,
        // with exactly the two deposed records refused.
        let r = restore(&bundle, None).unwrap();
        assert_eq!(r.applied, 8);
        assert_eq!(r.fenced, 2, "the deposed primary's suffix must be fenced");
        assert_eq!(state_digest(&r.db, &r.store), digests[8]);

        // Targets just past the handover are exactly where the stale
        // segment used to win: every boundary must match the committed
        // reference, and lsn 6 must not come from the poisoned base-6.
        for target in 0..=8u64 {
            let r = restore(&bundle, Some(target)).unwrap();
            assert_eq!(r.applied, target);
            assert_eq!(
                state_digest(&r.db, &r.store),
                digests[target as usize],
                "restore AS OF LSN {target} resurrected fenced history"
            );
            if target >= 4 {
                assert_eq!(r.base_watermark, 4, "lsn {target} must seed from the epoch-2 base");
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_unmanifested_file_fails_verification_and_never_restores() {
        let (_, _, archive, root) = seeded_archive("planted", 2, 3);
        let bundle = root.join("bundle");
        create_bundle(&BundleSpec {
            archive_dir: archive.clone(),
            bundle_dir: bundle.clone(),
            pages: None,
            created_seq: 1,
        })
        .unwrap();
        // Plant a segment file the signed manifest does not cover: the
        // bundle must fail verification outright, and restore with it.
        let planted = bundle.join(nebula_durable::archive::segment_file_name(99));
        std::fs::write(&planted, b"unverified bytes").unwrap();
        let err = verify_bundle(&bundle).unwrap_err();
        assert!(matches!(err, BackupError::Verify(ref m) if m.contains("not list")), "{err}");
        assert!(matches!(restore(&bundle, None), Err(BackupError::Verify(_))));
        // Re-capturing into the same directory clears the stale extra
        // (and any other leftover artifact) before writing the new set.
        create_bundle(&BundleSpec {
            archive_dir: archive,
            bundle_dir: bundle.clone(),
            pages: None,
            created_seq: 2,
        })
        .unwrap();
        assert!(!planted.exists(), "create_bundle must clear unmanifested leftovers");
        verify_bundle(&bundle).unwrap();
        restore(&bundle, None).unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn enospc_during_capture_is_typed_and_leaves_no_manifest() {
        let (_, _, archive, root) = seeded_archive("enospc", 1, 2);
        let bundle = root.join("bundle");
        nebula_govern::set_fault_plan(Some(
            nebula_govern::FaultPlan::new(9).with(FaultSite::Enospc, 1.0),
        ));
        let err = create_bundle(&BundleSpec {
            archive_dir: archive.clone(),
            bundle_dir: bundle.clone(),
            pages: None,
            created_seq: 1,
        })
        .unwrap_err();
        nebula_govern::set_fault_plan(None);
        assert!(matches!(err, BackupError::NoSpace(_)), "{err}");
        assert!(!bundle.join(MANIFEST_FILE).exists(), "a torn capture must not look complete");
        assert!(matches!(verify_bundle(&bundle), Err(BackupError::Verify(_))));
        // With space back, the capture succeeds into the same directory.
        create_bundle(&BundleSpec {
            archive_dir: archive,
            bundle_dir: bundle.clone(),
            pages: None,
            created_seq: 2,
        })
        .unwrap();
        verify_bundle(&bundle).unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }
}
