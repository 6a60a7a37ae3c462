//! Crash-safe paged storage: the acceptance gates for the disk backend.
//!
//! - **Backend parity at any concurrency**: the full proactive pipeline,
//!   run over a database whose rows and postings live in the page file,
//!   produces checkpoint bytes identical to the RAM backend's at worker
//!   counts 1, 2, and 8.
//! - **Crash-point coverage**: a flush torn at every page boundary and
//!   mid-page — during the shadow write *and* during the in-place apply —
//!   recovers to exactly the old or exactly the new image. Never a blend,
//!   never a loss.
//! - **Scrub precision**: every seeded at-rest bit flip is detected with
//!   zero false positives and healed in place.
//! - **Eviction correctness**: a workload larger than the buffer pool
//!   completes under continuous clock-hand eviction with every byte
//!   intact and the `page.*` counters accounting for the churn.
//! - **Format stability**: the checked-in golden page file under
//!   `samples/pages/` must keep reading back, and regenerating it must
//!   reproduce it byte-for-byte (drift guard).

use nebula::nebula_durable::checkpoint;
use nebula::nebula_pagestore::file::CrashPoint;
use nebula::nebula_pagestore::heap::RecordHeap;
use nebula::nebula_pagestore::pool::MIN_FRAMES;
use nebula::nebula_pagestore::PAGE_SIZE;
use nebula::nebula_workload::{build_workload, WorkloadSpec};
use nebula::prelude::*;
use nebula::relstore::snapshot;
use nebula::relstore::{ColumnId, TableId};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nebula-storage-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test directory");
    dir
}

/// Run the full proactive pipeline (generation, discovery, routing,
/// ingest pool) against `db` with a freshly regenerated (deterministic)
/// annotation store, and return the canonical checkpoint image.
fn run_pipeline(db: &nebula::relstore::Database, workers: usize) -> Vec<u8> {
    // The same seed regenerates the identical annotation store and
    // workload every call; only `db`'s backend varies between runs.
    let mut bundle = generate_dataset(&DatasetSpec::tiny(), 0x5EED);
    let workload = build_workload(&bundle, &WorkloadSpec::default(), 7);
    let items: Vec<IngestItem> = workload
        .iter()
        .flat_map(|s| &s.annotations)
        .filter(|wa| !wa.ideal.is_empty())
        .take(40)
        .map(|wa| IngestItem::new(wa.annotation.clone(), vec![wa.ideal[0]]))
        .collect();
    assert!(items.len() >= 20, "workload large enough to matter");

    let mut nebula = Nebula::new(NebulaConfig::default(), bundle.meta.clone());
    nebula.bootstrap_acg(&bundle.annotations);
    let config = IngestConfig::deterministic(workers, items.len());
    let report = ingest_batch(&mut nebula, db, &mut bundle.annotations, &items, &config);
    assert!(report.sheds.is_empty(), "nothing shed under a covering pool");
    assert_eq!(report.batch.total(), items.len(), "every item executed");
    checkpoint::encode(0, db, &bundle.annotations)
}

#[test]
fn paged_pipeline_matches_mem_pipeline_at_every_worker_count() {
    // The RAM baseline, computed once.
    let base = generate_dataset(&DatasetSpec::tiny(), 0x5EED);
    let db_image = snapshot::save(&base.db);
    let mem_bytes = run_pipeline(&base.db, 1);

    // Every worker count at two pool sizes: 8 frames, and the 2-frame floor
    // where every row or posting read past two pages evicts.
    for frames in [8usize, MIN_FRAMES] {
        for workers in [1usize, 2, 8] {
            let tag = format!("frames={frames} workers={workers}");
            let dir = temp_dir(&format!("parity-f{frames}-w{workers}"));
            let store = PagedStorage::open(&dir, frames).expect("paged store");
            // The same database, rehydrated onto the page file: every row
            // and every posting block now reads through the buffer pool.
            let paged_db = snapshot::load_with(&db_image, Some(Arc::new(store.clone())))
                .expect("rehydrate onto pages");
            assert!(paged_db.storage_label().contains("disk"), "rows actually live on disk");
            let paged_bytes = run_pipeline(&paged_db, workers);
            assert_eq!(
                paged_bytes, mem_bytes,
                "{tag}: paged checkpoint bytes == mem checkpoint bytes"
            );
            assert_eq!(
                snapshot::fingerprint(&paged_db),
                snapshot::fingerprint(&base.db),
                "{tag}: database fingerprints agree"
            );
            // The paged run actually exercised the pool, and the file is
            // durable and clean afterwards.
            let m = store.metrics();
            assert!(m.pool.hits + m.pool.misses > 0, "{tag}: reads hit the pool");
            if frames == MIN_FRAMES {
                assert!(m.pool.evictions > 0, "{tag}: a 2-frame pool must evict");
            }
            store.flush_pages().expect("final flush");
            assert!(store.scrub().expect("scrub").is_clean(), "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Deterministically build the committed state A (flushed at watermark 1)
/// and the in-pool state B (unflushed), returning both expected images.
type Expected = BTreeMap<u64, Option<Vec<u8>>>;

fn build_two_states(dir: &std::path::Path) -> (RecordHeap, Expected, Expected) {
    // A pool big enough to hold every dirty page: no eviction may force
    // an intermediate commit, so the torn flush is the ONLY commit that
    // could move the file from state A to state B.
    let mut heap = RecordHeap::open(dir, 64).expect("heap");
    let mut ids = Vec::new();
    for i in 0..40u32 {
        let body = if i % 13 == 0 {
            // Overflow chains cross the page boundary the harness tears at.
            format!("overflow {i} {}", "y".repeat(9000)).into_bytes()
        } else {
            format!("record {i} payload {}", "z".repeat((i as usize * 37) % 900)).into_bytes()
        };
        ids.push((heap.insert(&body).expect("insert"), body));
    }
    heap.flush(1).expect("flush state A");
    let state_a: Expected = ids.iter().map(|(id, body)| (*id, Some(body.clone()))).collect();

    // Mutate toward state B: rewrites, deletes, and fresh inserts.
    let mut state_b = state_a.clone();
    for (i, (id, _)) in ids.iter().enumerate().take(12) {
        if i % 3 == 0 {
            assert!(heap.delete(*id).expect("delete"));
            state_b.insert(*id, None);
        } else {
            let body = format!("rewritten {i} {}", "w".repeat(i * 211)).into_bytes();
            let new_id = heap.update(*id, &body).expect("update");
            state_b.insert(*id, None);
            state_b.insert(new_id, Some(body));
        }
    }
    for i in 0..6u32 {
        let body = format!("late insert {i} {}", "v".repeat(2000)).into_bytes();
        let id = heap.insert(&body).expect("late insert");
        state_b.insert(id, Some(body));
    }
    (heap, state_a, state_b)
}

fn assert_heap_matches(heap: &mut RecordHeap, want: &Expected, label: &str) {
    for (id, expect) in want {
        match expect {
            Some(body) => assert_eq!(
                heap.get(*id).expect("readable").as_deref(),
                Some(body.as_slice()),
                "{label}: record {id:#x}"
            ),
            // A deleted/relocated id must never resurrect its old bytes.
            None => {
                if let Some(bytes) = heap.get(*id).expect("readable") {
                    let old = want.values().flatten().any(|b| *b == bytes);
                    assert!(!old, "{label}: dead id {id:#x} resurrected old bytes");
                }
            }
        }
    }
}

#[test]
fn crash_at_every_page_boundary_and_mid_page_recovers_old_or_new_exactly() {
    // Enough cuts to cross every page the batch writes: boundaries,
    // mid-page tears, and the degenerate first bytes.
    let mut cuts: Vec<usize> = vec![0, 1, 7];
    for k in 0..12 {
        cuts.push(k * PAGE_SIZE); // every page boundary
        cuts.push(k * PAGE_SIZE + PAGE_SIZE / 2); // every mid-page tear
        cuts.push(k * PAGE_SIZE + 13); // just past a page header
    }
    cuts.sort_unstable();
    cuts.dedup();

    for &cut in &cuts {
        for phase in ["shadow", "apply"] {
            let dir = temp_dir(&format!("crash-{phase}-{cut}"));
            let (mut heap, state_a, state_b) = build_two_states(&dir);
            let crash = match phase {
                "shadow" => CrashPoint::Shadow(cut),
                _ => CrashPoint::Apply(cut),
            };
            heap.flush_crash(2, crash).expect_err("torn flush must surface");
            drop(heap);

            // "Reboot": open recovers (discarding a torn shadow, or
            // re-driving a committed one), and the file scrubs clean.
            let mut heap = RecordHeap::open(&dir, 64).expect("recovery after torn flush");
            assert!(
                heap.scrub().expect("scrub").is_clean(),
                "{phase} cut {cut}: clean after recovery"
            );
            match phase {
                // Torn before the rename: the commit never happened; the
                // old image survives untouched.
                "shadow" => {
                    assert_eq!(heap.watermark(), 1, "shadow cut {cut}: old watermark");
                    assert_heap_matches(&mut heap, &state_a, &format!("shadow cut {cut}"));
                }
                // Torn mid-apply: the committed shadow is re-driven on
                // open; the new image lands in full.
                _ => {
                    assert_eq!(heap.watermark(), 2, "apply cut {cut}: new watermark");
                    assert_heap_matches(&mut heap, &state_b, &format!("apply cut {cut}"));
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn scrub_detects_every_seeded_rot_with_zero_false_positives_and_heals() {
    let dir = temp_dir("scrub-precision");
    let store = PagedStorage::open(&dir, 8).expect("store");
    let mut db = nebula::relstore::Database::with_storage(Arc::new(store.clone()));
    db.create_table(
        nebula::relstore::TableSchema::builder("t")
            .column("id", DataType::Int)
            .column("body", DataType::Text)
            .primary_key("id")
            .build()
            .expect("schema"),
    )
    .expect("table");
    let mut tids = Vec::new();
    for i in 0..200i64 {
        tids.push(
            db.insert("t", vec![Value::Int(i), Value::text(format!("row {i} {}", "p".repeat(64)))])
                .expect("insert"),
        );
    }
    store.flush_pages().expect("flush");
    assert!(store.metrics().page_count > 4);

    for trial in 0..10u64 {
        // Zero false positives: a clean file scrubs clean every time.
        assert!(store.scrub().expect("scrub").is_clean(), "trial {trial}: false positive");
        store.set_fault_plan(Some(FaultPlan::new(0xBEEF ^ trial).with_pages(0.0, 0.0, 0.0, 1.0)));
        let (page, _bit) = store.inject_rot().expect("inject").expect("rate 1.0 fires");
        store.set_fault_plan(None);
        let report = store.scrub().expect("scrub");
        assert_eq!(report.corrupt, vec![page], "trial {trial}: exactly the rotted page");
        let healed = store.repair().expect("repair");
        assert_eq!(healed.repaired, vec![page], "trial {trial}: healed in place");
        assert!(healed.unrecoverable.is_empty(), "trial {trial}");
        assert!(store.scrub().expect("re-scrub").is_clean(), "trial {trial}: clean after heal");
    }
    // The healed store still serves every row byte-correct.
    for (i, tid) in tids.iter().enumerate() {
        let t = db.get(*tid).expect("row survives 10 rot/heal cycles");
        assert_eq!(t.get_by_name("id"), Some(&Value::Int(i as i64)));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn workload_larger_than_the_pool_completes_under_eviction() {
    let dir = temp_dir("evict");
    // MIN_FRAMES-sized pool: every miss beyond two pages must evict.
    let store = PagedStorage::open(&dir, 2).expect("store");
    let mut heap_ids = Vec::new();
    let mut db = nebula::relstore::Database::with_storage(Arc::new(store.clone()));
    db.create_table(
        nebula::relstore::TableSchema::builder("wide")
            .column("id", DataType::Int)
            .column("body", DataType::Text)
            .primary_key("id")
            .build()
            .expect("schema"),
    )
    .expect("table");
    for i in 0..300i64 {
        let body = format!("wide row {i} {}", "q".repeat((i as usize * 53) % 1200));
        heap_ids
            .push((db.insert("wide", vec![Value::Int(i), Value::text(body)]).expect("insert"), i));
    }
    // Read everything back twice (forward then reverse) through the
    // 2-frame pool: pure eviction churn, zero data loss.
    for (tid, i) in heap_ids.iter().chain(heap_ids.iter().rev()) {
        let t = db.get(*tid).expect("row readable under eviction");
        assert_eq!(t.get_by_name("id"), Some(&Value::Int(*i)));
    }
    let m = store.metrics();
    assert!(m.page_count > 2, "file outgrew the pool ({} pages)", m.page_count);
    assert!(m.pool.evictions > 0, "the clock hand actually ran");
    assert!(m.pool.misses > 0 && m.pool.hits > 0, "both pool paths exercised");
    store.flush_pages().expect("flush");
    assert!(store.scrub().expect("scrub").is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- golden page file: format drift guard -------------------------------

fn sample_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("samples").join("pages")
}

/// The fixed operation sequence behind the golden file. Every step is
/// deterministic (placement, eviction, flush order), so the bytes on
/// disk are a pure function of this code and the page format.
fn build_golden(dir: &std::path::Path) -> Vec<(u64, Option<Vec<u8>>)> {
    let mut heap = RecordHeap::open(dir, 4).expect("heap");
    let mut expect = Vec::new();
    let mut ids = Vec::new();
    for i in 0..25u32 {
        let body = if i % 7 == 0 {
            format!("golden overflow {i} {}", "g".repeat(5000)).into_bytes()
        } else {
            format!("golden record {i} {}", "n".repeat((i as usize * 91) % 700)).into_bytes()
        };
        ids.push((heap.insert(&body).expect("insert"), body));
    }
    for (i, (id, _)) in ids.iter().enumerate() {
        if i % 5 == 3 {
            assert!(heap.delete(*id).expect("delete"));
            expect.push((*id, None));
        } else if i % 5 == 4 {
            let body = format!("golden rewrite {i}").into_bytes();
            let new_id = heap.update(*id, &body).expect("update");
            expect.push((new_id, Some(body)));
        } else {
            expect.push((*id, Some(ids[i].1.clone())));
        }
    }
    heap.flush(42).expect("flush");
    expect
}

/// Guards the on-disk page format: the committed golden file (written by
/// an earlier build) must keep reading back, and re-running the fixed
/// sequence must reproduce it byte-for-byte. If this fails after a format
/// change, either restore compatibility or bump the page-format version
/// and regenerate via `regenerate_golden_page_file`.
#[test]
fn checked_in_golden_page_file_is_reproduced_byte_for_byte() {
    let golden_path = sample_dir().join(nebula::nebula_pagestore::file::FILE_NAME);
    let golden = std::fs::read(&golden_path).expect("committed golden page file");
    assert!(golden.len() >= 2 * PAGE_SIZE, "golden file holds real pages");

    // Drift guard: the same sequence must produce the same bytes.
    let dir = temp_dir("golden");
    let expect = build_golden(&dir);
    let fresh = std::fs::read(dir.join(nebula::nebula_pagestore::file::FILE_NAME))
        .expect("freshly built file");
    assert_eq!(
        fresh, golden,
        "page format drifted: the fixed sequence no longer reproduces samples/pages/"
    );

    // And the committed file itself still opens, scrubs clean, and
    // serves every record.
    let mut heap = RecordHeap::open(&sample_dir(), 4).expect("golden file opens");
    assert!(heap.scrub().expect("scrub").is_clean());
    assert_eq!(heap.watermark(), 42);
    for (id, want) in &expect {
        match want {
            Some(body) => assert_eq!(
                heap.get(*id).expect("readable").as_deref(),
                Some(body.as_slice()),
                "golden record {id:#x}"
            ),
            None => {
                // Deleted ids must not resurrect their original bytes.
                if let Some(bytes) = heap.get(*id).expect("readable") {
                    assert!(!bytes.starts_with(b"golden record"), "dead id {id:#x} resurrected");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regenerates `samples/pages/` deterministically. Ignored in normal
/// runs; invoke by hand after an intentional format change:
/// `cargo test --test storage regenerate_golden_page_file -- --ignored`.
#[test]
#[ignore = "rewrites the checked-in sample; run manually after intentional format changes"]
fn regenerate_golden_page_file() {
    let dir = sample_dir();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("sample dir");
    build_golden(&dir);
    // Drop the shadow leftovers: only the page file itself is the format.
    checked_in_golden_page_file_is_reproduced_byte_for_byte();
}

/// The vocabulary the index property test draws cell text from: few
/// tokens, so groups grow long; mixed case and a repeat, so folding and
/// in-cell duplicates are exercised.
const CELL_TEXTS: [&str; 8] = [
    "alpha",
    "beta gamma",
    "Alpha BETA",
    "gamma gamma delta",
    "delta-epsilon",
    "common alpha",
    "common",
    "",
];

fn index_schema(name: &str) -> nebula::relstore::TableSchema {
    nebula::relstore::TableSchema::builder(name)
        .column("id", DataType::Int)
        .column("title", DataType::Text)
        .column("body", DataType::Text)
        .primary_key("id")
        .build()
        .expect("valid schema")
}

/// What the term directory must say, from a scan of the live rows through
/// the tokenizer: `token → (table, column) → ascending tuples`.
fn scan_postings(
    db: &nebula::relstore::Database,
) -> BTreeMap<String, BTreeMap<(TableId, ColumnId), Vec<TupleId>>> {
    let mut expect: BTreeMap<String, BTreeMap<(TableId, ColumnId), Vec<TupleId>>> = BTreeMap::new();
    for (table_id, _) in db.catalog().iter() {
        let table = db.table(table_id).expect("catalogued table");
        for tuple in table.scan() {
            for (column, _) in table.schema().iter_columns() {
                let Some(text) = tuple.get(column).and_then(Value::as_text) else { continue };
                for token in nebula::relstore::index::tokenize(text) {
                    let ids =
                        expect.entry(token).or_default().entry((table_id, column)).or_default();
                    if ids.last() != Some(&tuple.id) {
                        ids.push(tuple.id);
                    }
                }
            }
        }
    }
    expect
}

mod index_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The term directory on either backend equals a brute-force scan
        /// after every insert, update and delete: per-pair counts, pair
        /// df and pair tuple lists agree for every token, lists ascend
        /// strictly, and `lookup` is equal across backends *in order*.
        /// The seed rows put one token in enough rows to span several
        /// posting blocks, with gaps that later updates fill (a block
        /// that is full must split, and an old tuple id must land in the
        /// middle of its group).
        #[test]
        fn term_directory_equals_a_scan_on_both_backends(
            ops in proptest::collection::vec(
                (0u8..4, any::<prop::sample::Index>(), 0usize..CELL_TEXTS.len(), 0usize..CELL_TEXTS.len()),
                1..24,
            ),
        ) {
            let dir = temp_dir("index-props");
            let store = PagedStorage::open(&dir, 8).expect("paged store");
            let mut dbs =
                [Database::new(), Database::with_storage(Arc::new(store.clone()))];
            let mut rows: Vec<TupleId> = Vec::new();
            let mut next_key = 300i64;
            for db in &mut dbs {
                db.create_table(index_schema("paper")).expect("fresh name");
                db.create_table(index_schema("note")).expect("fresh name");
            }
            for i in 0..next_key {
                let title = if i % 7 == 3 { "sparse" } else { "common title" };
                let row = vec![Value::Int(i), Value::text(title), Value::text("body")];
                let ids = dbs.each_mut().map(|db| db.insert("paper", row.clone()).expect("insert"));
                prop_assert_eq!(ids[0], ids[1]);
                rows.push(ids[0]);
            }

            for (kind, pick, title, body) in ops {
                let values = |key: i64| {
                    vec![Value::Int(key), Value::text(CELL_TEXTS[title]), Value::text(CELL_TEXTS[body])]
                };
                match kind {
                    0 => {
                        let table = if pick.index(2) == 0 { "paper" } else { "note" };
                        let ids = dbs
                            .each_mut()
                            .map(|db| db.insert(table, values(next_key)).expect("insert"));
                        prop_assert_eq!(ids[0], ids[1]);
                        rows.push(ids[0]);
                        next_key += 1;
                    }
                    1 | 2 if !rows.is_empty() => {
                        let tid = rows[pick.index(rows.len())];
                        let key = dbs[0].get(tid).expect("live row").values[0].clone();
                        let Value::Int(key) = key else { unreachable!("integer key") };
                        for db in &mut dbs {
                            db.update(tid, values(key)).expect("update");
                        }
                    }
                    _ if !rows.is_empty() => {
                        let tid = rows.swap_remove(pick.index(rows.len()));
                        for db in &mut dbs {
                            prop_assert!(db.delete(tid));
                        }
                    }
                    _ => {}
                }

                let expect = scan_postings(&dbs[0]);
                let mut tokens: Vec<&str> = expect.keys().map(String::as_str).collect();
                tokens.extend(["ALPHA", "absent"]);
                for token in tokens {
                    let want = expect.get(&token.to_lowercase()).cloned().unwrap_or_default();
                    let flat: Vec<(TableId, ColumnId, TupleId)> = want
                        .iter()
                        .flat_map(|(&(t, c), ids)| ids.iter().map(move |&id| (t, c, id)))
                        .collect();
                    for db in &dbs {
                        let index = db.inverted_index();
                        let counts: Vec<_> = index.pair_counts(token).collect();
                        let want_counts: Vec<_> =
                            want.iter().map(|(&pair, ids)| (pair, ids.len())).collect();
                        prop_assert_eq!(counts, want_counts, "pair counts of {}", token);
                        for (&(t, c), ids) in &want {
                            prop_assert_eq!(index.pair_df(token, t, c), ids.len());
                            let got = index.pair_tuples(token, t, c);
                            prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
                            prop_assert_eq!(&*got, ids.as_slice(), "pair tuples of {}", token);
                        }
                        prop_assert_eq!(index.pair_df(token, TableId(9), ColumnId(0)), 0);
                        prop_assert!(index.pair_tuples(token, TableId(9), ColumnId(0)).is_empty());
                        let lookup: Vec<_> = index
                            .lookup(token)
                            .iter()
                            .map(|p| (p.table, p.column, p.tuple))
                            .collect();
                        prop_assert_eq!(&lookup, &flat, "lookup order of {}", token);
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
