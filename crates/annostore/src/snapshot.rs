//! Annotation-store snapshots: a compact binary format for saving and
//! restoring an [`AnnotationStore`] — annotations with their metadata,
//! every edge (true and predicted, with weights), and the cell-granularity
//! refinements. Pairs with `relstore::snapshot` so a whole annotated
//! database round-trips: tuple ids are preserved by the relational
//! snapshot, so the edges stay valid.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "NEBANN1\0"
//! u64 annotation_count
//! per annotation: string text, opt string author, opt string kind
//! u64 edge_count
//! per edge: u64 annotation, u32 table, u64 row, u8 kind, f64 weight
//! u64 cell_count
//! per cell: u64 annotation, u32 table, u64 row, u32 column
//! ```

use crate::annotation::{Annotation, AnnotationId};
use crate::graph::EdgeKind;
use crate::store::{AnnotationStore, AttachmentTarget};
use nebula_codec::{CodecError, Reader, Writer};
use relstore::schema::ColumnId;
use relstore::TupleId;
use std::fmt;

const MAGIC: &[u8; 8] = b"NEBANN1\0";

/// Errors from snapshot decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the expected magic.
    BadMagic,
    /// A field was truncated, mis-flagged, or not valid UTF-8.
    Codec(CodecError),
    /// A tag or reference was out of range.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an annostore snapshot (bad magic)"),
            SnapshotError::Codec(e) => write!(f, "bad snapshot field: {e}"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> SnapshotError {
        SnapshotError::Codec(e)
    }
}

/// One edge as it travels: annotation, tuple, kind tag, weight.
type EdgeRecord = (AnnotationId, TupleId, u8, f64);
/// One cell refinement as it travels.
type CellRecord = (AnnotationId, TupleId, ColumnId);

fn put_body(w: &mut Writer, a: &Annotation) {
    w.string(&a.text);
    w.opt_string(a.author.as_deref());
    w.opt_string(a.kind.as_deref());
}

fn get_body(r: &mut Reader<'_>) -> Result<Annotation, SnapshotError> {
    let mut a = Annotation::new(r.string("annotation text")?);
    a.author = r.opt_string("annotation author")?;
    a.kind = r.opt_string("annotation kind")?;
    Ok(a)
}

/// Write the edge and cell sections for the annotations `owned` selects,
/// both in canonical (sorted) order: restore rebuilds the per-tuple and
/// per-annotation attachment lists in `(annotation, tuple)` order, not
/// original insertion order, and two stores with the same logical content
/// produce identical bytes (the durability layer compares states by
/// snapshot digest).
fn put_edges_and_cells(
    w: &mut Writer,
    store: &AnnotationStore,
    owned: impl Fn(AnnotationId) -> bool,
) {
    let mut edges: Vec<_> = store.iter_edges().filter(|e| owned(e.annotation)).collect();
    edges.sort_by_key(|e| (e.annotation, e.tuple));
    w.u64(edges.len() as u64);
    for e in edges {
        w.u64(e.annotation.0);
        w.tuple_id(e.tuple.table.0, e.tuple.row);
        w.u8(match e.kind {
            EdgeKind::True => 0,
            EdgeKind::Predicted => 1,
        });
        w.f64(e.weight);
    }
    let mut cells: Vec<CellRecord> =
        store.iter_cell_columns().filter(|(aid, _, _)| owned(*aid)).collect();
    cells.sort();
    w.u64(cells.len() as u64);
    for (aid, tid, cid) in cells {
        w.u64(aid.0);
        w.tuple_id(tid.table.0, tid.row);
        w.u32(cid.0);
    }
}

/// Read a `u64` item count, refusing one the remaining input cannot hold
/// at `min_cost` bytes per item — a hostile count fails here instead of
/// sizing an allocation or spinning a loop.
fn get_count(
    r: &mut Reader<'_>,
    what: &'static str,
    min_cost: usize,
) -> Result<usize, SnapshotError> {
    let count = r.u64(what)?;
    if count > (r.remaining() / min_cost) as u64 {
        return Err(SnapshotError::Corrupt(format!("implausible {what} {count}")));
    }
    Ok(count as usize)
}

fn get_edges_and_cells(
    r: &mut Reader<'_>,
) -> Result<(Vec<EdgeRecord>, Vec<CellRecord>), SnapshotError> {
    let edge_count = get_count(r, "edge count", 29)?;
    let mut edges = Vec::with_capacity(edge_count);
    for _ in 0..edge_count {
        let aid = AnnotationId(r.u64("edge annotation")?);
        let tid = r.tuple_id("edge tuple")?.into();
        edges.push((aid, tid, r.u8("edge kind")?, r.f64("edge weight")?));
    }
    let cell_count = get_count(r, "cell count", 24)?;
    let mut cells = Vec::with_capacity(cell_count);
    for _ in 0..cell_count {
        let aid = AnnotationId(r.u64("cell annotation")?);
        let tid = r.tuple_id("cell tuple")?.into();
        cells.push((aid, tid, ColumnId(r.u32("cell column")?)));
    }
    Ok((edges, cells))
}

/// Attach decoded edges and cell refinements to a store that already
/// holds their annotations.
fn restore_edges_and_cells(
    store: &mut AnnotationStore,
    edges: Vec<EdgeRecord>,
    cells: Vec<CellRecord>,
) -> Result<(), SnapshotError> {
    let corrupt = |e: crate::store::StoreError| SnapshotError::Corrupt(e.to_string());
    for (aid, tid, kind, weight) in edges {
        match kind {
            0 => store.attach(aid, AttachmentTarget::tuple(tid)).map_err(corrupt)?,
            1 => store.attach_predicted(aid, tid, weight).map_err(corrupt)?,
            t => return Err(SnapshotError::Corrupt(format!("edge kind tag {t}"))),
        }
    }
    for (aid, tid, cid) in cells {
        store.restore_cell_column(aid, tid, cid).map_err(corrupt)?;
    }
    Ok(())
}

/// Serialize a store to bytes.
pub fn save(store: &AnnotationStore) -> Vec<u8> {
    let mut w = Writer::default();
    w.bytes(MAGIC);
    w.u64(store.annotation_count() as u64);
    for (_, a) in store.iter_annotations() {
        put_body(&mut w, a);
    }
    put_edges_and_cells(&mut w, store, |_| true);
    w.0
}

/// Restore a store from bytes produced by [`save`].
pub fn load(bytes: &[u8]) -> Result<AnnotationStore, SnapshotError> {
    let mut r = Reader::new(bytes);
    if r.bytes("magic", MAGIC.len()) != Ok(&MAGIC[..]) {
        return Err(SnapshotError::BadMagic);
    }
    let mut store = AnnotationStore::new();
    // Each annotation costs at least a text length and two option flags.
    for _ in 0..get_count(&mut r, "annotation count", 6)? {
        store.add_annotation(get_body(&mut r)?);
    }
    let (edges, cells) = get_edges_and_cells(&mut r)?;
    restore_edges_and_cells(&mut store, edges, cells)?;
    Ok(store)
}

const SLICE_MAGIC: &[u8; 8] = b"NEBSLC1\0";

/// Partition a store into `shards` snapshot **slices** by annotation
/// ownership. `assign` maps each annotation id to its owning shard;
/// slice `i` carries shard `i`'s annotations (bodies, edges, and cell
/// refinements) and nothing else, so the slices are disjoint and their
/// union is the whole store. [`merge`] reassembles them into a store
/// whose [`save`] bytes are identical to the original's — the canonical
/// (sorted) encoding makes the partition/merge round-trip byte-exact
/// regardless of how ownership is assigned.
///
/// Layout of one slice (little-endian):
///
/// ```text
/// magic "NEBSLC1\0"
/// u64 total_annotations (across ALL slices; density check on merge)
/// u64 owned_count
/// per owned annotation: u64 id, string text, opt string author, opt string kind
/// u64 edge_count / edges as in the full snapshot (owned annotations only)
/// u64 cell_count / cells as in the full snapshot (owned annotations only)
/// ```
pub fn partition(
    store: &AnnotationStore,
    shards: usize,
    assign: &dyn Fn(AnnotationId) -> usize,
) -> Vec<Vec<u8>> {
    let shards = shards.max(1);
    let mut slices = Vec::with_capacity(shards);
    for shard in 0..shards {
        let owned = |aid: AnnotationId| assign(aid) % shards == shard;
        let mut w = Writer::default();
        w.bytes(SLICE_MAGIC);
        w.u64(store.annotation_count() as u64);
        let annotations: Vec<_> = store.iter_annotations().filter(|(id, _)| owned(*id)).collect();
        w.u64(annotations.len() as u64);
        for (id, a) in annotations {
            w.u64(id.0);
            put_body(&mut w, a);
        }
        put_edges_and_cells(&mut w, store, owned);
        slices.push(w.0);
    }
    slices
}

struct DecodedSlice {
    total: u64,
    annotations: Vec<(AnnotationId, Annotation)>,
    edges: Vec<EdgeRecord>,
    cells: Vec<CellRecord>,
}

fn decode_slice(bytes: &[u8]) -> Result<DecodedSlice, SnapshotError> {
    let mut r = Reader::new(bytes);
    if r.bytes("magic", SLICE_MAGIC.len()) != Ok(&SLICE_MAGIC[..]) {
        return Err(SnapshotError::BadMagic);
    }
    let total = r.u64("slice annotation total")?;
    let count = get_count(&mut r, "slice annotation count", 8)?;
    if count as u64 > total {
        return Err(SnapshotError::Corrupt(format!("slice owns {count} of {total} annotations")));
    }
    let mut annotations = Vec::with_capacity(count);
    for _ in 0..count {
        let id = AnnotationId(r.u64("slice annotation id")?);
        annotations.push((id, get_body(&mut r)?));
    }
    let (edges, cells) = get_edges_and_cells(&mut r)?;
    Ok(DecodedSlice { total, annotations, edges, cells })
}

/// Merge snapshot slices produced by [`partition`] back into one store.
///
/// Fails if the slices disagree on the total annotation count, collide on
/// an id, or do not cover the dense id range `0..total` — i.e. if a shard
/// slice is missing, duplicated, or from a diverged replica.
pub fn merge(slices: &[Vec<u8>]) -> Result<AnnotationStore, SnapshotError> {
    let mut total: Option<u64> = None;
    let mut bodies: Vec<Option<Annotation>> = Vec::new();
    let mut edges = Vec::new();
    let mut cells = Vec::new();
    for slice in slices {
        let decoded = decode_slice(slice)?;
        match total {
            None => {
                total = Some(decoded.total);
                bodies.resize(decoded.total as usize, None);
            }
            Some(t) if t != decoded.total => {
                return Err(SnapshotError::Corrupt(format!(
                    "slices disagree on annotation total: {t} vs {}",
                    decoded.total
                )));
            }
            Some(_) => {}
        }
        for (id, a) in decoded.annotations {
            let slot = bodies.get_mut(id.0 as usize).ok_or_else(|| {
                SnapshotError::Corrupt(format!("slice annotation {} out of range", id.0))
            })?;
            if slot.is_some() {
                return Err(SnapshotError::Corrupt(format!(
                    "annotation {} owned by two slices",
                    id.0
                )));
            }
            *slot = Some(a);
        }
        edges.extend(decoded.edges);
        cells.extend(decoded.cells);
    }
    let mut store = AnnotationStore::new();
    for (i, body) in bodies.into_iter().enumerate() {
        let body = body.ok_or_else(|| {
            SnapshotError::Corrupt(format!("annotation {i} missing from every slice"))
        })?;
        store.add_annotation(body);
    }
    edges.sort_by_key(|e| (e.0, e.1));
    cells.sort();
    restore_edges_and_cells(&mut store, edges, cells)?;
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::schema::TableId;

    fn t(row: u64) -> TupleId {
        TupleId::new(TableId(0), row)
    }

    fn sample() -> AnnotationStore {
        let mut s = AnnotationStore::new();
        let a = s.add_annotation(Annotation::new("heat-shock note").by("Bob").of_kind("comment"));
        let b = s.add_annotation(Annotation::new("plain"));
        s.attach(a, AttachmentTarget::tuple(t(1))).unwrap();
        s.attach(a, AttachmentTarget::cell(t(2), ColumnId(3))).unwrap();
        s.attach(b, AttachmentTarget::tuple(t(1))).unwrap();
        s.attach_predicted(b, t(5), 0.62).unwrap();
        s
    }

    #[test]
    fn roundtrip_preserves_annotations_and_edges() {
        let original = sample();
        let restored = load(&save(&original)).unwrap();
        assert_eq!(restored.annotation_count(), original.annotation_count());
        for ((_, x), (_, y)) in original.iter_annotations().zip(restored.iter_annotations()) {
            assert_eq!(x, y);
        }
        assert_eq!(restored.true_edge_set(), original.true_edge_set());
        assert_eq!(restored.all_edge_set(), original.all_edge_set());
        // Predicted weight survives.
        let e = restored.edge(AnnotationId(1), t(5)).unwrap();
        assert_eq!(e.kind, EdgeKind::Predicted);
        assert!((e.weight - 0.62).abs() < 1e-12);
        // Cell refinement survives.
        assert_eq!(restored.cell_column(AnnotationId(0), t(2)), Some(ColumnId(3)));
        // Both directions of the true-edge index hold the same sets
        // (restore order is canonical, not insertion order).
        let sorted = |mut v: Vec<AnnotationId>| {
            v.sort();
            v
        };
        assert_eq!(restored.focal(AnnotationId(0)), original.focal(AnnotationId(0)));
        assert_eq!(sorted(restored.annotations_of(t(1))), sorted(original.annotations_of(t(1))));
    }

    #[test]
    fn partition_merge_roundtrips_byte_exactly() {
        let original = sample();
        for shards in [1usize, 2, 3, 5] {
            // Ownership by id round-robin and by a skewed assignment both
            // reassemble into the same canonical bytes.
            for assign in
                [&(|aid: AnnotationId| aid.0 as usize) as &dyn Fn(AnnotationId) -> usize, &|_aid| 0]
            {
                let slices = partition(&original, shards, assign);
                assert_eq!(slices.len(), shards);
                let merged = merge(&slices).expect("merge");
                assert_eq!(save(&merged), save(&original), "{shards} shards");
            }
        }
    }

    #[test]
    fn merge_rejects_missing_duplicate_and_disagreeing_slices() {
        let original = sample();
        let slices = partition(&original, 2, &|aid| aid.0 as usize);
        // Missing slice: the uncovered id range fails the density check.
        assert!(merge(&slices[..1]).is_err());
        // Duplicate slice: id collision.
        assert!(merge(&[slices[0].clone(), slices[0].clone()]).is_err());
        // Disagreeing totals: a slice from a different-sized store.
        let mut bigger = sample();
        bigger.add_annotation(Annotation::new("extra"));
        let other = partition(&bigger, 2, &|aid| aid.0 as usize);
        assert!(merge(&[slices[0].clone(), other[1].clone()]).is_err());
    }

    #[test]
    fn empty_store_roundtrips() {
        let restored = load(&save(&AnnotationStore::new())).unwrap();
        assert_eq!(restored.annotation_count(), 0);
        assert_eq!(restored.all_edge_set().len(), 0);
    }

    #[test]
    fn bad_input_rejected() {
        assert_eq!(load(b"nope").unwrap_err(), SnapshotError::BadMagic);
        let good = save(&sample());
        for cut in [8usize, 12, 20, good.len() - 1] {
            assert!(load(&good[..cut]).is_err(), "prefix of {cut} must fail");
        }
    }

    #[test]
    fn dangling_edge_rejected() {
        // Hand-craft a snapshot whose edge references annotation 7 of 1.
        let mut store = AnnotationStore::new();
        store.add_annotation(Annotation::new("x"));
        let mut bytes = save(&store).to_vec();
        // Append an edge section is non-trivial; instead corrupt by
        // building a store, saving, then bumping the edge's annotation id.
        let mut s2 = AnnotationStore::new();
        let a = s2.add_annotation(Annotation::new("x"));
        s2.attach(a, AttachmentTarget::tuple(t(1))).unwrap();
        let bytes2 = save(&s2).to_vec();
        // The edge annotation id (u64 zero) sits right after the edge
        // count; flip it to 7.
        let needle = 7u64.to_le_bytes();
        let mut corrupted = bytes2.clone();
        // Find the edge record: it is the 8 bytes after the edge count
        // field. Locate edge count by structure: magic(8) + count(8) +
        // annotation ("x": 4+1 text, 1 author, 1 kind) = 23, then edge
        // count at 23..31, edge aid at 31..39.
        corrupted[31..39].copy_from_slice(&needle);
        assert!(matches!(load(&corrupted), Err(SnapshotError::Corrupt(_))));
        let _ = bytes.pop();
    }
}
