//! Secondary indexes: exact-match hash indexes and a tokenized inverted
//! index used by keyword search.

use crate::schema::{ColumnId, TableId};
use crate::storage::{decode_posting_block_into, encode_posting_block, StorageBackend};
use crate::tuple::TupleId;
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Exact-match hash index mapping a value to the tuple ids holding it.
#[derive(Debug, Default)]
pub struct HashIndex {
    map: HashMap<Value, Vec<TupleId>>,
}

impl HashIndex {
    /// Add a `(value, tuple)` entry.
    pub fn insert(&mut self, value: Value, tid: TupleId) {
        self.map.entry(value).or_default().push(tid);
    }

    /// Remove one `(value, tuple)` entry, if present.
    pub fn remove(&mut self, value: &Value, tid: TupleId) {
        if let Some(list) = self.map.get_mut(value) {
            list.retain(|t| *t != tid);
            if list.is_empty() {
                self.map.remove(value);
            }
        }
    }

    /// Tuple ids with exactly this value (empty slice if none).
    pub fn get(&self, value: &Value) -> &[TupleId] {
        self.map.get(value).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct values indexed.
    pub fn distinct(&self) -> usize {
        self.map.len()
    }
}

/// One hit in the inverted index: which table/column/tuple the token
/// occurred in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Posting {
    /// Owning table.
    pub table: TableId,
    /// Column the token occurred in.
    pub column: ColumnId,
    /// Row the token occurred in.
    pub tuple: TupleId,
}

/// How many postings one paged block holds before a new block starts.
/// Blocks are delta-compressed ([`encode_posting_block`]), so 128
/// postings stay far below a page's payload capacity.
const BLOCK_POSTINGS: usize = 128;

/// The tuples of one `(token, table, column)` group. Either way the group
/// reads as one strictly ascending tuple list: `Mem` holds it decoded,
/// `Paged` holds the record ids of the group's own delta-compressed
/// blocks (in list order) in a [`StorageBackend`] and keeps the group's
/// size in RAM, so counts never touch a page.
#[derive(Debug)]
enum Store {
    Mem(Vec<TupleId>),
    Paged { blocks: Vec<u64>, count: usize },
}

/// Why reaching for the backend from a `Store::Paged` group cannot fail.
const NEEDS_BACKEND: &str = "paged groups exist only in an index built over a backend";

/// One entry of a token's directory row.
#[derive(Debug)]
struct Group {
    table: TableId,
    column: ColumnId,
    store: Store,
}

impl Group {
    /// The directory row's sort key.
    fn pair(&self) -> (TableId, ColumnId) {
        (self.table, self.column)
    }

    /// Tuples in the group — the token's document frequency in the pair.
    fn count(&self) -> usize {
        match &self.store {
            Store::Mem(ids) => ids.len(),
            Store::Paged { count, .. } => *count,
        }
    }
}

/// Tokenized inverted index over text columns of the whole database.
///
/// Tokens are lower-cased words; the tokenizer splits on any
/// non-alphanumeric character and keeps digits so identifiers such as
/// `JW0013` survive intact.
///
/// The index is one RAM-resident term directory, `token → groups`, a
/// token's groups sorted by `(table, column)`. Statistics (which pairs
/// hold a token, how often) are read from the directory alone; a
/// `ContainsToken` probe reads exactly one group.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    dir: HashMap<String, Vec<Group>>,
    /// Where `Store::Paged` blocks live; `None` keeps every group in RAM.
    backend: Option<Box<dyn StorageBackend>>,
}

/// Split text into lower-cased alphanumeric tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_token(text, |token| out.push(token.to_string()));
    out
}

/// [`tokenize`] without the allocations: `f` sees each token in turn.
fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            f(&cur);
            cur.clear();
        }
    }
    if !cur.is_empty() {
        f(&cur);
    }
}

impl InvertedIndex {
    /// An index whose posting blocks live in `backend` (the term
    /// directory stays in RAM).
    pub fn with_backend(backend: Box<dyn StorageBackend>) -> Self {
        InvertedIndex { dir: HashMap::new(), backend: Some(backend) }
    }

    /// Index one cell's text. A token may repeat within one cell, and
    /// `Database::update` re-inserts an old tuple id: either way the group
    /// stays strictly ascending and holds each tuple once.
    pub fn add_cell(&mut self, table: TableId, column: ColumnId, tuple: TupleId, text: &str) {
        let posting = Posting { table, column, tuple };
        let backend = self.backend.as_deref();
        for_each_token(text, |token| {
            if let Some(groups) = self.dir.get_mut(token) {
                add_posting(groups, backend, posting);
            } else {
                // A row exists once its first tuple is stored.
                let mut groups = Vec::with_capacity(1);
                add_posting(&mut groups, backend, posting);
                if !groups.is_empty() {
                    self.dir.insert(token.to_string(), groups);
                }
            }
        });
    }

    /// Remove every posting for the given tuple (used on delete).
    pub fn remove_tuple(&mut self, tuple: TupleId) {
        let backend = self.backend.as_deref();
        let mut rows: Vec<(&String, &mut Vec<Group>)> = self
            .dir
            .iter_mut()
            .filter(|(_, groups)| groups.iter().any(|g| g.table == tuple.table))
            .collect();
        if backend.is_some() {
            // Sorted term walk keeps the page-access order (and so the
            // file bytes) deterministic for a fixed operation sequence.
            rows.sort_unstable_by(|a, b| a.0.cmp(b.0));
        }
        let mut emptied = Vec::new();
        for (token, groups) in rows {
            groups.retain_mut(|group| {
                if group.table == tuple.table {
                    match &mut group.store {
                        Store::Mem(ids) => {
                            if let Ok(pos) = ids.binary_search(&tuple) {
                                ids.remove(pos);
                            }
                        }
                        Store::Paged { blocks, count } => {
                            if paged_remove(backend.expect(NEEDS_BACKEND), blocks, tuple) {
                                *count -= 1;
                            }
                        }
                    }
                }
                group.count() > 0
            });
            if groups.is_empty() {
                emptied.push(token.clone());
            }
        }
        for token in emptied {
            self.dir.remove(&token);
        }
    }

    /// The directory row of a token (exact match, case-insensitive). Every
    /// public read goes through here and counts as one index probe.
    fn groups(&self, token: &str) -> &[Group] {
        nebula_obs::counter_add("relstore.index_probes", 1);
        self.dir.get(&token.to_lowercase()).map(Vec::as_slice).unwrap_or(&[])
    }

    fn group(&self, token: &str, table: TableId, column: ColumnId) -> Option<&Group> {
        let groups = self.groups(token);
        let at = groups.binary_search_by_key(&(table, column), Group::pair).ok()?;
        Some(&groups[at])
    }

    /// The `(table, column)` pairs whose cells contain the token, in
    /// ascending pair order, each with the number of tuples it occurs in.
    /// Answered from the directory: no posting is read.
    pub fn pair_counts(
        &self,
        token: &str,
    ) -> impl Iterator<Item = ((TableId, ColumnId), usize)> + '_ {
        self.groups(token).iter().map(|g| (g.pair(), g.count()))
    }

    /// Document frequency of the token within one `(table, column)` pair.
    /// Answered from the directory: no posting is read.
    pub fn pair_df(&self, token: &str, table: TableId, column: ColumnId) -> usize {
        self.group(token, table, column).map_or(0, Group::count)
    }

    /// The tuples of one `(table, column)` pair containing the token,
    /// strictly ascending. RAM groups are borrowed; paged groups decode
    /// their own blocks, each where the pool holds it, straight into the
    /// answer, and nothing else.
    pub fn pair_tuples(&self, token: &str, table: TableId, column: ColumnId) -> Cow<'_, [TupleId]> {
        match self.group(token, table, column).map(|g| &g.store) {
            None => Cow::Borrowed(&[]),
            Some(Store::Mem(ids)) => Cow::Borrowed(ids),
            Some(Store::Paged { blocks, count }) => {
                let mut out = Vec::with_capacity(*count);
                self.read_blocks(blocks, &mut out, |p| p.tuple);
                Cow::Owned(out)
            }
        }
    }

    /// All postings for a token in `(table, column, tuple)` order, on
    /// either backend. The pipeline reads single groups; this whole-token
    /// read serves the baselines that rank over every hit.
    pub fn lookup(&self, token: &str) -> Vec<Posting> {
        let mut out = Vec::new();
        for g in self.groups(token) {
            match &g.store {
                Store::Mem(ids) => out.extend(ids.iter().map(|&tuple| Posting {
                    table: g.table,
                    column: g.column,
                    tuple,
                })),
                Store::Paged { blocks, .. } => self.read_blocks(blocks, &mut out, |p| p),
            }
        }
        out
    }

    /// Append the postings of a paged group's blocks, in list order and
    /// mapped through `map`, to `out`. Unreadable blocks are skipped (and
    /// counted by [`read_block_into`]).
    fn read_blocks<T>(&self, blocks: &[u64], out: &mut Vec<T>, map: impl Fn(Posting) -> T) {
        let backend = self.backend.as_deref().expect(NEEDS_BACKEND);
        for &id in blocks {
            read_block_into(backend, id, out, &map);
        }
    }
}

/// Add `posting` to its `(table, column)` group of a directory row; the
/// group is created once its first tuple is stored.
fn add_posting(groups: &mut Vec<Group>, backend: Option<&dyn StorageBackend>, posting: Posting) {
    let Posting { table, column, tuple } = posting;
    match groups.binary_search_by_key(&(table, column), Group::pair) {
        Ok(at) => match &mut groups[at].store {
            Store::Mem(ids) => match ids.last() {
                Some(last) if *last >= tuple => {
                    if let Err(pos) = ids.binary_search(&tuple) {
                        ids.insert(pos, tuple);
                    }
                }
                _ => ids.push(tuple),
            },
            Store::Paged { blocks, count } => {
                if paged_insert(backend.expect(NEEDS_BACKEND), blocks, posting) {
                    *count += 1;
                }
            }
        },
        Err(at) => {
            let store = match backend {
                None => Store::Mem(vec![tuple]),
                Some(backend) => {
                    let mut blocks = Vec::new();
                    if !push_block(backend, &mut blocks, 0, &[posting]) {
                        return;
                    }
                    Store::Paged { blocks, count: 1 }
                }
            };
            groups.insert(at, Group { table, column, store });
        }
    }
}

/// Insert `posting` into a paged group at its sorted position. Returns
/// whether the group grew (`false`: already present, or storage failed and
/// the cell's token is dropped — the error counter reports it).
fn paged_insert(backend: &dyn StorageBackend, blocks: &mut Vec<u64>, posting: Posting) -> bool {
    let end = blocks.len();
    let Some(&tail_id) = blocks.last() else {
        return push_block(backend, blocks, end, &[posting]);
    };
    let Some(mut tail) = read_block(backend, tail_id) else { return false };
    match tail.last().map(|last| last.tuple.cmp(&posting.tuple)) {
        // The token repeats within the cell.
        Some(Ordering::Equal) => return false,
        Some(Ordering::Greater) => {}
        // The common case: tuple ids arrive in ascending order.
        _ if tail.len() < BLOCK_POSTINGS => {
            tail.push(posting);
            return rewrite_block(backend, blocks, end - 1, &tail);
        }
        _ => return push_block(backend, blocks, end, &[posting]),
    }
    // An old tuple id is coming back (`Database::update`): it belongs in
    // the first block that ends at or after it.
    for at in 0..blocks.len() {
        let Some(mut block) = read_block(backend, blocks[at]) else { return false };
        if block.last().is_none_or(|last| last.tuple < posting.tuple) {
            continue;
        }
        let Err(pos) = block.binary_search_by_key(&posting.tuple, |p| p.tuple) else {
            return false;
        };
        block.insert(pos, posting);
        if block.len() <= BLOCK_POSTINGS {
            return rewrite_block(backend, blocks, at, &block);
        }
        let upper = block.split_off(block.len() / 2);
        return push_block(backend, blocks, at + 1, &upper)
            && rewrite_block(backend, blocks, at, &block);
    }
    false
}

/// Remove `tuple` from a paged group. Returns whether it was present.
fn paged_remove(backend: &dyn StorageBackend, blocks: &mut Vec<u64>, tuple: TupleId) -> bool {
    for at in 0..blocks.len() {
        // Unreadable: keep for the scrubber.
        let Some(mut block) = read_block(backend, blocks[at]) else { continue };
        if block.last().is_none_or(|last| last.tuple < tuple) {
            continue;
        }
        let Ok(pos) = block.binary_search_by_key(&tuple, |p| p.tuple) else { return false };
        block.remove(pos);
        if !block.is_empty() {
            return rewrite_block(backend, blocks, at, &block);
        }
        if backend.delete(blocks[at]).is_err() {
            nebula_obs::counter_add("relstore.storage_errors", 1);
        }
        blocks.remove(at);
        return true;
    }
    false
}

/// Store `postings` as a new block at position `at` of the group.
fn push_block(
    backend: &dyn StorageBackend,
    blocks: &mut Vec<u64>,
    at: usize,
    postings: &[Posting],
) -> bool {
    match backend.insert(&encode_posting_block(postings)) {
        Ok(id) => {
            blocks.insert(at, id);
            true
        }
        Err(_) => {
            nebula_obs::counter_add("relstore.storage_errors", 1);
            false
        }
    }
}

/// Replace the block at position `at` of the group (its record may move).
fn rewrite_block(
    backend: &dyn StorageBackend,
    blocks: &mut [u64],
    at: usize,
    postings: &[Posting],
) -> bool {
    match backend.update(blocks[at], &encode_posting_block(postings)) {
        Ok(id) => {
            blocks[at] = id;
            true
        }
        Err(_) => {
            nebula_obs::counter_add("relstore.storage_errors", 1);
            false
        }
    }
}

/// Fetch and decode one posting block, degrading to `None` (plus the
/// storage-error counter) on I/O or codec failure.
fn read_block(backend: &dyn StorageBackend, id: u64) -> Option<Vec<Posting>> {
    let mut postings = Vec::new();
    read_block_into(backend, id, &mut postings, |p| p).then_some(postings)
}

/// Decode one posting block where the backend holds it, appending its
/// postings mapped through `map` to `out`. On an I/O or codec failure
/// nothing is appended, the storage-error counter moves once, and the
/// result is `false`.
fn read_block_into<T>(
    backend: &dyn StorageBackend,
    id: u64,
    out: &mut Vec<T>,
    map: impl Fn(Posting) -> T,
) -> bool {
    let start = out.len();
    let mut decoded = false;
    let found = backend
        .read(id, &mut |bytes| decoded = decode_posting_block_into(bytes, out, &map).is_ok());
    let ok = matches!(found, Ok(true)) && decoded;
    if !ok {
        out.truncate(start);
        nebula_obs::counter_add("relstore.storage_errors", 1);
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(row: u64) -> TupleId {
        TupleId::new(TableId(0), row)
    }

    #[test]
    fn hash_index_insert_get_remove() {
        let mut idx = HashIndex::default();
        idx.insert(Value::text("F1"), tid(0));
        idx.insert(Value::text("F1"), tid(1));
        idx.insert(Value::text("F2"), tid(2));
        assert_eq!(idx.get(&Value::text("F1")), &[tid(0), tid(1)]);
        assert_eq!(idx.distinct(), 2);
        idx.remove(&Value::text("F1"), tid(0));
        assert_eq!(idx.get(&Value::text("F1")), &[tid(1)]);
        idx.remove(&Value::text("F1"), tid(1));
        assert!(idx.get(&Value::text("F1")).is_empty());
        assert_eq!(idx.distinct(), 1);
    }

    #[test]
    fn tokenizer_keeps_identifiers() {
        assert_eq!(tokenize("gene JW0013, grpC!"), vec!["gene", "jw0013", "grpc"]);
        assert_eq!(tokenize("G-Actin"), vec!["g", "actin"]);
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("   ,,, "), Vec::<String>::new());
    }

    #[test]
    fn tokenizer_handles_unicode() {
        assert_eq!(tokenize("Naïve café"), vec!["naïve", "café"]);
    }

    #[test]
    fn inverted_index_lookup_case_insensitive() {
        let mut idx = InvertedIndex::default();
        idx.add_cell(TableId(0), ColumnId(1), tid(3), "grpC heat-shock");
        assert_eq!(idx.lookup("GRPC").len(), 1);
        assert_eq!(idx.lookup("heat").len(), 1);
        assert_eq!(idx.lookup("shock")[0].tuple, tid(3));
        assert_eq!(idx.lookup("missing").len(), 0);
    }

    #[test]
    fn repeated_token_in_one_cell_stored_once() {
        let mut idx = InvertedIndex::default();
        idx.add_cell(TableId(0), ColumnId(0), tid(0), "aaa aaa aaa");
        assert_eq!(idx.lookup("aaa").len(), 1);
    }

    #[test]
    fn remove_tuple_clears_postings() {
        let mut idx = InvertedIndex::default();
        idx.add_cell(TableId(0), ColumnId(0), tid(0), "alpha beta");
        idx.add_cell(TableId(0), ColumnId(0), tid(1), "alpha");
        idx.remove_tuple(tid(0));
        assert_eq!(idx.lookup("alpha").len(), 1);
        assert_eq!(idx.lookup("beta").len(), 0);
    }

    #[test]
    fn directory_reads_answer_per_pair() {
        let mut idx = InvertedIndex::default();
        for row in 0..5 {
            idx.add_cell(TableId(0), ColumnId(0), tid(row), "f1");
        }
        idx.add_cell(TableId(0), ColumnId(1), tid(2), "F1 again");
        assert_eq!(idx.pair_df("F1", TableId(0), ColumnId(0)), 5);
        assert_eq!(idx.pair_df("f1", TableId(0), ColumnId(2)), 0);
        let counts: Vec<_> = idx.pair_counts("f1").collect();
        assert_eq!(counts, vec![((TableId(0), ColumnId(0)), 5), ((TableId(0), ColumnId(1)), 1)]);
        assert_eq!(*idx.pair_tuples("f1", TableId(0), ColumnId(1)), [tid(2)]);
        assert!(idx.pair_tuples("f1", TableId(1), ColumnId(0)).is_empty());
    }

    #[test]
    fn reinserting_an_old_tuple_keeps_the_group_ascending() {
        let mut idx = InvertedIndex::default();
        for row in 0..4 {
            idx.add_cell(TableId(0), ColumnId(0), tid(row), "alpha");
        }
        // What `Database::update` does to row 1.
        idx.remove_tuple(tid(1));
        idx.add_cell(TableId(0), ColumnId(0), tid(1), "alpha alpha");
        assert_eq!(
            *idx.pair_tuples("alpha", TableId(0), ColumnId(0)),
            [tid(0), tid(1), tid(2), tid(3)]
        );
    }

    /// Posting blocks in RAM behind the backend trait, which a test can
    /// overwrite with damaged bytes.
    #[derive(Debug, Default, Clone)]
    struct MapBackend(std::sync::Arc<std::sync::Mutex<std::collections::BTreeMap<u64, Vec<u8>>>>);

    impl MapBackend {
        fn records(&self) -> std::sync::MutexGuard<'_, std::collections::BTreeMap<u64, Vec<u8>>> {
            self.0.lock().unwrap()
        }
    }

    impl StorageBackend for MapBackend {
        fn insert(&self, bytes: &[u8]) -> Result<u64, crate::StorageError> {
            let mut records = self.records();
            let id = records.keys().next_back().map_or(1, |last| last + 1);
            records.insert(id, bytes.to_vec());
            Ok(id)
        }

        fn read(&self, id: u64, visit: &mut dyn FnMut(&[u8])) -> Result<bool, crate::StorageError> {
            Ok(self.records().get(&id).map(|bytes| visit(bytes)).is_some())
        }

        fn update(&self, id: u64, bytes: &[u8]) -> Result<u64, crate::StorageError> {
            self.records().insert(id, bytes.to_vec());
            Ok(id)
        }

        fn delete(&self, id: u64) -> Result<(), crate::StorageError> {
            self.records().remove(&id);
            Ok(())
        }

        fn label(&self) -> String {
            "map".into()
        }
    }

    #[test]
    fn a_corrupt_paged_block_is_skipped_and_counted_once() {
        let backend = MapBackend::default();
        let mut idx = InvertedIndex::with_backend(Box::new(backend.clone()));
        for row in 0..300 {
            idx.add_cell(TableId(0), ColumnId(0), tid(row), "alpha");
        }
        let all: Vec<TupleId> = (0..300).map(tid).collect();
        assert_eq!(*idx.pair_tuples("alpha", TableId(0), ColumnId(0)), all[..]);
        // Ascending inserts fill blocks of 128: cut the middle block short,
        // so its decode fails after 127 good postings.
        let middle = {
            let records = backend.records();
            let (&id, bytes) = records
                .iter()
                .find(|(_, bytes)| {
                    crate::storage::decode_posting_block(bytes).unwrap()[0].tuple == tid(128)
                })
                .expect("a block starting at row 128");
            (id, bytes[..bytes.len() - 1].to_vec())
        };
        backend.records().insert(middle.0, middle.1);

        nebula_obs::set_enabled(true);
        let errors = || nebula_obs::snapshot().counters.get("relstore.storage_errors").copied();
        let before = errors().unwrap_or(0);
        let read = idx.pair_tuples("alpha", TableId(0), ColumnId(0));
        assert_eq!(errors().unwrap_or(0) - before, 1, "one damaged block, one storage error");
        let survivors: Vec<TupleId> =
            all.iter().copied().filter(|t| !(128..256).contains(&t.row)).collect();
        assert_eq!(*read, survivors[..], "the damaged block contributes nothing");
    }
}
