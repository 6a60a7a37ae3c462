//! The record heap: stable `u64` record ids over slotted pages, with
//! overflow chains for records larger than a page.
//!
//! A record id is `(page << 16) | slot`. Records small enough to fit a
//! page are stored as a single segment; larger records chain segments
//! across pages, each segment carrying a 1- or 9-byte header:
//!
//! ```text
//! [0]      u8   flags (bit 0: a next-segment id follows)
//! [1..9)   u64  next segment's record id (only when bit 0 set)
//! [..]          payload chunk
//! ```
//!
//! Placement is deterministic: the free-space index is a `BTreeMap`
//! walked in ascending page order, so the same insert sequence always
//! lands records on the same pages — a prerequisite for the golden page
//! file and for mem-vs-paged digest identity.

use crate::file::{CrashPoint, FaultTally};
use crate::page::PAYLOAD_SIZE;
use crate::pool::{BufferPool, PoolStats};
use crate::{slotted, PageStoreError};
use nebula_govern::scrub::ScrubReport;
use nebula_govern::FaultPlan;
use std::collections::BTreeMap;

/// Segment header cost reserved when sizing chunks (flags + next id).
const SEG_HEADER: usize = 9;

/// Slot directory cost per record.
const SLOT_COST: usize = 4;

/// Largest payload chunk one segment carries.
const MAX_CHUNK: usize = PAYLOAD_SIZE - SLOT_COST - SEG_HEADER;

fn record_id(page: u32, slot: usize) -> u64 {
    (u64::from(page) << 16) | slot as u64
}

fn split_id(id: u64) -> (u32, usize) {
    ((id >> 16) as u32, (id & 0xFFFF) as usize)
}

/// A heap of variable-length records over a [`BufferPool`].
#[derive(Debug)]
pub struct RecordHeap {
    pool: BufferPool,
    /// Conservative free bytes per page, ascending page order.
    free: BTreeMap<u32, usize>,
}

impl RecordHeap {
    /// Open (or create) a heap over the page file in `dir`. Reopening an
    /// existing file rebuilds the free-space index with one read pass.
    pub fn open(dir: &std::path::Path, pool_frames: usize) -> Result<RecordHeap, PageStoreError> {
        let mut pool = BufferPool::open(dir, pool_frames)?;
        let mut free = BTreeMap::new();
        for page in 1..pool.page_count() {
            let bytes = pool.with_page(page, slotted::free_bytes)?;
            free.insert(page, bytes);
        }
        Ok(RecordHeap { pool, free })
    }

    /// Insert a record, returning its stable id.
    pub fn insert(&mut self, bytes: &[u8]) -> Result<u64, PageStoreError> {
        if bytes.len() <= MAX_CHUNK {
            let mut seg = Vec::with_capacity(1 + bytes.len());
            seg.push(0u8);
            seg.extend_from_slice(bytes);
            return self.place_segment(&seg);
        }
        // Chain: place the tail chunk first so each earlier segment can
        // embed its successor's id.
        let chunks: Vec<&[u8]> = bytes.chunks(MAX_CHUNK).collect();
        let mut next: Option<u64> = None;
        for chunk in chunks.iter().rev() {
            let mut seg = Vec::with_capacity(SEG_HEADER + chunk.len());
            match next {
                Some(id) => {
                    seg.push(1u8);
                    seg.extend_from_slice(&id.to_le_bytes());
                }
                None => seg.push(0u8),
            }
            seg.extend_from_slice(chunk);
            next = Some(self.place_segment(&seg)?);
        }
        next.ok_or_else(|| PageStoreError::Io("empty overflow chain".into()))
    }

    /// Read a record's full bytes. `Ok(None)` when the id does not
    /// resolve (deleted, or damaged beyond the page CRC's reach).
    pub fn get(&mut self, id: u64) -> Result<Option<Vec<u8>>, PageStoreError> {
        let mut out = None;
        self.read(id, &mut |bytes| out = Some(bytes.to_vec()))?;
        Ok(out)
    }

    /// Hand a record's full bytes to `visit` without copying them out of
    /// the pool when the record is a single segment; an overflow chain is
    /// assembled first. Returns whether the id resolved (`visit` ran).
    /// One chain walk: each segment's page is pinned, read once and
    /// unpinned, in chain order.
    pub fn read(&mut self, id: u64, visit: &mut dyn FnMut(&[u8])) -> Result<bool, PageStoreError> {
        // Only a chain allocates: the assembled bytes and the set of
        // segments seen, which turns a hostile cycle into an error.
        let mut chain: Vec<u8> = Vec::new();
        let mut visited = std::collections::HashSet::new();
        let mut cursor = Some(id);
        while let Some(seg_id) = cursor {
            let first = seg_id == id && visited.is_empty();
            if !first && !visited.insert(seg_id) {
                return Err(PageStoreError::Corrupt(format!(
                    "overflow chain cycle at record {seg_id:#x}"
                )));
            }
            let (page, slot) = split_id(seg_id);
            self.pool.pin(page)?;
            let parsed = self.pool.with_page(page, |p| {
                let (next, chunk) = slotted::read(p, slot).and_then(parse_segment)?;
                match next {
                    None if first => visit(chunk),
                    None => {
                        chain.extend_from_slice(chunk);
                        visit(&chain);
                    }
                    Some(_) => chain.extend_from_slice(chunk),
                }
                Some(next)
            });
            self.pool.unpin(page);
            match parsed? {
                Some(next) => {
                    if first && next.is_some() {
                        visited.insert(id);
                    }
                    cursor = next;
                }
                None if first => return Ok(false),
                None => {
                    return Err(PageStoreError::Corrupt(format!(
                        "overflow chain broken at segment {seg_id:#x}"
                    )))
                }
            }
        }
        Ok(true)
    }

    /// Delete a record (and its whole chain). Idempotent: deleting an
    /// unknown id reports `Ok(false)`.
    pub fn delete(&mut self, id: u64) -> Result<bool, PageStoreError> {
        let mut cursor = Some(id);
        let mut removed = false;
        let mut visited = std::collections::HashSet::new();
        while let Some(seg_id) = cursor {
            if !visited.insert(seg_id) {
                break;
            }
            let (page, slot) = split_id(seg_id);
            let next = match self.pool.with_page(page, |p| {
                slotted::read(p, slot).and_then(parse_segment).map(|(next, _)| next)
            }) {
                Ok(Some(next)) => next,
                Ok(None) => break,
                Err(PageStoreError::UnknownRecord(_)) => break,
                Err(e) => return Err(e),
            };
            self.pool.with_page_mut(page, |p| slotted::remove(p, slot))?;
            self.refresh_free(page)?;
            removed = true;
            cursor = next;
        }
        Ok(removed)
    }

    /// Replace a record's bytes. The id may change (relocation); the new
    /// id is returned and the old one is dead.
    pub fn update(&mut self, id: u64, bytes: &[u8]) -> Result<u64, PageStoreError> {
        self.delete(id)?;
        self.insert(bytes)
    }

    /// Place one encoded segment on the lowest page that fits, growing
    /// the file when none does.
    fn place_segment(&mut self, seg: &[u8]) -> Result<u64, PageStoreError> {
        let need = seg.len();
        let candidate = self.free.iter().find(|(_, &free)| free >= need).map(|(&page, _)| page);
        if let Some(page) = candidate {
            let fits = self.pool.with_page(page, |p| slotted::fits(p, seg.len()))?;
            if fits {
                let slot = self.pool.with_page_mut(page, |p| slotted::insert(p, seg))?;
                if let Some(slot) = slot {
                    self.refresh_free(page)?;
                    return Ok(record_id(page, slot));
                }
            }
            // The index was optimistic (slot-cost edge): fall through to
            // a fresh page after correcting it.
            self.refresh_free(page)?;
        }
        let page = self.pool.allocate()?;
        let slot =
            self.pool.with_page_mut(page, |p| slotted::insert(p, seg))?.ok_or_else(|| {
                PageStoreError::Io(format!("segment of {} bytes missed a fresh page", seg.len()))
            })?;
        self.refresh_free(page)?;
        Ok(record_id(page, slot))
    }

    fn refresh_free(&mut self, page: u32) -> Result<(), PageStoreError> {
        let bytes = self.pool.with_page(page, slotted::free_bytes)?;
        self.free.insert(page, bytes);
        Ok(())
    }

    /// Flush dirty pages through one shadow commit, stamping `watermark`.
    pub fn flush(&mut self, watermark: u64) -> Result<(), PageStoreError> {
        self.pool.set_watermark(watermark);
        self.pool.flush()
    }

    /// [`RecordHeap::flush`] torn for the crash-point harness.
    pub fn flush_crash(&mut self, watermark: u64, crash: CrashPoint) -> Result<(), PageStoreError> {
        self.pool.set_watermark(watermark);
        self.pool.flush_crash(crash)
    }

    /// The durable watermark as of the last flush (or open).
    pub fn watermark(&self) -> u64 {
        self.pool.watermark()
    }

    /// Pages in the file, including the header page.
    pub fn page_count(&self) -> u32 {
        self.pool.page_count()
    }

    /// Pool counters.
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Injected-fault tally.
    pub fn fault_tally(&self) -> FaultTally {
        self.pool.fault_tally()
    }

    /// Dirty pages awaiting a flush.
    pub fn dirty_pages(&self) -> u64 {
        self.pool.dirty_pages()
    }

    /// Resident frames.
    pub fn resident_pages(&self) -> u64 {
        self.pool.resident_pages()
    }

    /// The frame budget the pool was opened with.
    pub fn pool_frames(&self) -> usize {
        self.pool.capacity()
    }

    /// Install (or clear) the fault plan page I/O rolls against.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.pool.set_fault_plan(plan);
    }

    /// Read-only CRC walk over the (flushed) page file.
    pub fn scrub(&mut self) -> Result<ScrubReport, PageStoreError> {
        crate::file::scrub_dir(&self.pool.dir())
    }

    /// Roll the `PageRot` site; on a hit one at-rest bit flips on disk.
    pub fn inject_rot(&mut self) -> Result<Option<(u32, usize)>, PageStoreError> {
        self.pool.inject_rot()
    }
}

/// Parse a segment into `(next, chunk)`. Hostile-byte safe.
fn parse_segment(seg: &[u8]) -> Option<(Option<u64>, &[u8])> {
    let (&flags, rest) = seg.split_first()?;
    if flags & 1 == 1 {
        if rest.len() < 8 {
            return None;
        }
        let next = u64::from_le_bytes(rest[..8].try_into().ok()?);
        Some((Some(next), &rest[8..]))
    } else {
        Some((None, rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("nebula-heap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn small_records_roundtrip_and_survive_reopen() {
        let dir = tmpdir("small");
        let mut heap = RecordHeap::open(&dir, 8).unwrap();
        let ids: Vec<u64> = (0u8..50).map(|i| heap.insert(&[i; 40]).unwrap()).collect();
        heap.flush(1).unwrap();
        drop(heap);
        let mut heap = RecordHeap::open(&dir, 8).unwrap();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(heap.get(*id).unwrap().as_deref(), Some(&[i as u8; 40][..]));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overflow_chains_span_pages() {
        let dir = tmpdir("overflow");
        let mut heap = RecordHeap::open(&dir, 8).unwrap();
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let id = heap.insert(&big).unwrap();
        assert!(heap.page_count() > 5, "20 KB must span pages");
        assert_eq!(heap.get(id).unwrap().as_deref(), Some(&big[..]));
        heap.flush(1).unwrap();
        drop(heap);
        let mut heap = RecordHeap::open(&dir, 4).unwrap();
        assert_eq!(heap.get(id).unwrap().as_deref(), Some(&big[..]));
        // Deleting reclaims every segment for reuse.
        assert!(heap.delete(id).unwrap());
        assert_eq!(heap.get(id).unwrap(), None);
        let pages_before = heap.page_count();
        let id2 = heap.insert(&big).unwrap();
        assert_eq!(heap.page_count(), pages_before, "chain reused freed pages");
        assert_eq!(heap.get(id2).unwrap().as_deref(), Some(&big[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn update_relocates_and_old_id_dies() {
        let dir = tmpdir("update");
        let mut heap = RecordHeap::open(&dir, 8).unwrap();
        let id = heap.insert(b"short").unwrap();
        let id2 = heap.update(id, &[9u8; 6000]).unwrap();
        assert_eq!(heap.get(id2).unwrap().as_deref(), Some(&[9u8; 6000][..]));
        // The old id's slot may be reused (by a new record or an interior
        // chain segment) — what must not happen is the old bytes surviving.
        if id != id2 {
            assert_ne!(
                heap.get(id).unwrap().as_deref(),
                Some(&b"short"[..]),
                "old bytes must not survive an update"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn placement_is_deterministic_across_runs() {
        let run = |tag: &str| -> Vec<u64> {
            let dir = tmpdir(tag);
            let mut heap = RecordHeap::open(&dir, 4).unwrap();
            let mut ids = Vec::new();
            for i in 0u32..200 {
                ids.push(
                    heap.insert(&vec![(i % 256) as u8; 17 + (i as usize * 13) % 300]).unwrap(),
                );
                if i % 7 == 0 {
                    let victim = ids[(i as usize) / 2];
                    let _ = heap.delete(victim).unwrap();
                }
            }
            heap.flush(1).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            ids
        };
        assert_eq!(run("det-a"), run("det-b"), "same sequence, same ids");
    }

    #[test]
    fn deleted_ids_resolve_to_none_not_panic() {
        let dir = tmpdir("deleted");
        let mut heap = RecordHeap::open(&dir, 8).unwrap();
        let id = heap.insert(b"x").unwrap();
        assert!(heap.delete(id).unwrap());
        assert!(!heap.delete(id).unwrap(), "second delete is a no-op");
        assert_eq!(heap.get(id).unwrap(), None);
        // An id on a page that does not exist.
        assert!(matches!(heap.get(record_id(999, 0)), Err(PageStoreError::UnknownRecord(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `get` as it was written before `read`: each segment's chunk copied
    /// out of the pool, concatenated, and a visited set per call. The
    /// reference `read` must reproduce.
    fn get_by_copying(heap: &mut RecordHeap, id: u64) -> Result<Option<Vec<u8>>, PageStoreError> {
        let mut out = Vec::new();
        let mut cursor = Some(id);
        let mut visited = std::collections::HashSet::new();
        while let Some(seg_id) = cursor {
            if !visited.insert(seg_id) {
                return Err(PageStoreError::Corrupt(format!(
                    "overflow chain cycle at record {seg_id:#x}"
                )));
            }
            let (page, slot) = split_id(seg_id);
            heap.pool.pin(page)?;
            let parsed = heap.pool.with_page(page, |p| {
                slotted::read(p, slot)
                    .and_then(parse_segment)
                    .map(|(next, chunk)| (next, chunk.to_vec()))
            });
            heap.pool.unpin(page);
            match parsed? {
                Some((next, chunk)) => {
                    out.extend_from_slice(&chunk);
                    cursor = next;
                }
                None if seg_id == id => return Ok(None),
                None => {
                    return Err(PageStoreError::Corrupt(format!(
                        "overflow chain broken at segment {seg_id:#x}"
                    )))
                }
            }
        }
        Ok(Some(out))
    }

    #[test]
    fn read_matches_the_copying_get_in_bytes_pool_counts_and_fault_draws() {
        use nebula_govern::FaultSite;
        let src = tmpdir("read-src");
        let mut heap = RecordHeap::open(&src, 64).unwrap();
        let mut ids: Vec<u64> = (0u32..60)
            .map(|i| heap.insert(&vec![i as u8; 20 + (i as usize * 97) % 900]).unwrap())
            .collect();
        // Overflow chains of three and five segments.
        for len in [9_000u32, 20_000] {
            ids.push(heap.insert(&(0..len).map(|i| (i % 251) as u8).collect::<Vec<_>>()).unwrap());
        }
        assert!(heap.delete(ids[5]).unwrap(), "a dead id reads as absent");
        heap.flush(1).unwrap();
        drop(heap);
        // Every record, chains in the middle and twice, on a pool of three
        // frames: hits, misses and clock-hand evictions all occur.
        let mut order: Vec<u64> = ids.iter().rev().copied().collect();
        order.extend(ids.iter().step_by(3));
        order.extend(ids.iter().rev().take(2));

        let copy = |tag: &str| {
            let dir = tmpdir(tag);
            for entry in std::fs::read_dir(&src).unwrap() {
                let entry = entry.unwrap();
                std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
            }
            dir
        };
        let plans = [None, Some(FaultPlan::new(0xF00D).with(FaultSite::PageRead, 0.4))];
        for plan in plans {
            let (old_dir, new_dir) = (copy("read-old"), copy("read-new"));
            let mut old = RecordHeap::open(&old_dir, 3).unwrap();
            let mut new = RecordHeap::open(&new_dir, 3).unwrap();
            old.set_fault_plan(plan.clone());
            new.set_fault_plan(plan.clone());
            let mut failed = 0;
            for &id in &order {
                let want = get_by_copying(&mut old, id);
                let mut got = None;
                let found = new.read(id, &mut |bytes| got = Some(bytes.to_vec()));
                match (&want, found) {
                    (Ok(want), Ok(found)) => {
                        assert_eq!(found, want.is_some(), "record {id:#x} resolves alike");
                        assert_eq!(&got, want, "record {id:#x} reads the same bytes");
                    }
                    (Err(want), Err(got)) => {
                        assert_eq!(&got, want, "record {id:#x} fails alike");
                        failed += 1;
                    }
                    (want, found) => panic!("record {id:#x}: {want:?} against {found:?}"),
                }
                assert_eq!(new.stats(), old.stats(), "pool counters after record {id:#x}");
                assert_eq!(new.fault_tally(), old.fault_tally(), "fault draws after {id:#x}");
            }
            let stats = new.stats();
            assert!(stats.hits > 0 && stats.misses > 0 && stats.evictions > 0, "{stats:?}");
            if plan.is_some() {
                assert!(new.fault_tally().retries > 0 && failed > 0, "faults fired and surfaced");
            }
            std::fs::remove_dir_all(&old_dir).unwrap();
            std::fs::remove_dir_all(&new_dir).unwrap();
        }
        std::fs::remove_dir_all(&src).unwrap();
    }
}
