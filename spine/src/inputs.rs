//! Inputs: everything a workload reads is generated here through
//! `nebula-workload`; the program under test receives only the generated
//! database, store and annotation stream.
//!
//! `--seed` seeds the **dataset**: row values, sequences, every publication
//! abstract and its links, hence the index postings, the page layout, the
//! annotation store and the ACG the stream lands in. The **stream** of new
//! annotations is always drawn with [`STREAM_SEED`]: about one generated
//! annotation in twenty references a protein by its type and yields ~130
//! expert tasks where the others yield ~4, so how many of those a
//! 300-annotation sample holds (Poisson, sigma ~25 %) would dominate the
//! seed-to-seed spread of every metric: measured 10-21 % on throughput and
//! 14-29 % on expert tasks with the stream seeded per run, against 1-5 %
//! with it fixed. No bound could then resolve a 5 % change.

use annostore::{Annotation, AnnotationStore};
use nebula_core::{distort, Acg};
use nebula_workload::{
    build_workload, generate_dataset, DatasetBundle, DatasetSpec, LinkBand, WorkloadSpec,
};
use relstore::TupleId;
use std::time::Instant;

/// The evaluation's default seed (the paper's publication date).
pub const DEFAULT_SEED: u64 = 0x2015_0531;

/// Seeds which tuples the stream's annotations reference and what filler
/// surrounds the references (see the module comment for why it is fixed).
const STREAM_SEED: u64 = DEFAULT_SEED;

/// The `L^m` size groups the stream draws from. `L^50` is left out: it
/// cannot hold the 7-10 reference band, so its cells would not be uniform.
const SIZES: [usize; 3] = [100, 500, 1000];

/// Dataset scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `DatasetSpec::tiny()`: 180 tuples.
    Tiny,
    /// `D_small`: 3 250 tuples.
    Small,
    /// `D_large`: 32 500 tuples.
    Large,
}

impl Scale {
    pub fn spec(self) -> DatasetSpec {
        match self {
            Scale::Tiny => DatasetSpec::tiny(),
            Scale::Small => DatasetSpec::small(),
            Scale::Large => DatasetSpec::large(),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Scale::Tiny => "D_tiny",
            Scale::Small => "D_small",
            Scale::Large => "D_large",
        }
    }
}

/// One annotation of the stream with its ground truth.
#[derive(Debug, Clone)]
pub struct Item {
    pub annotation: Annotation,
    /// `distort(ideal, 1)`: the one attachment the curator made by hand.
    pub focal: Vec<TupleId>,
    /// Every tuple the text references.
    pub ideal: Vec<TupleId>,
}

/// A generated dataset plus the annotation stream every round replays.
#[derive(Debug)]
pub struct Inputs {
    pub bundle: DatasetBundle,
    pub items: Vec<Item>,
    /// The ACG built at once from the dataset's own annotations (§8.1).
    pub acg: Acg,
    /// Snapshot of the dataset's annotation store; each round loads a
    /// private copy, so rounds never see each other's attachments.
    pub store_bytes: Vec<u8>,
    /// Time spent in `generate_dataset` alone.
    pub generate_s: f64,
}

impl Inputs {
    /// Generate the dataset at `scale` from `seed` and a stream of `n`
    /// annotations over it, interleaved round-robin over the nine
    /// `(size, band)` cells so every prefix that is a multiple of nine has
    /// the same mix.
    pub fn generate(scale: Scale, seed: u64, n: usize) -> Inputs {
        let t0 = Instant::now();
        let bundle = generate_dataset(&scale.spec(), seed);
        let generate_s = t0.elapsed().as_secs_f64();
        let per_subset = n.div_ceil(SIZES.len() * LinkBand::all().len());
        let spec = WorkloadSpec { sizes: SIZES.to_vec(), per_subset };
        let sets = build_workload(&bundle, &spec, STREAM_SEED);
        let cells: Vec<Vec<_>> = sets
            .iter()
            .flat_map(|set| LinkBand::all().map(|band| set.band(band).collect::<Vec<_>>()))
            .collect();
        let items: Vec<Item> = (0..per_subset)
            .flat_map(|i| cells.iter().filter_map(move |cell| cell.get(i).copied()))
            .take(n)
            .map(|wa| Item {
                annotation: wa.annotation.clone(),
                focal: distort(&wa.ideal, 1).0,
                ideal: wa.ideal.clone(),
            })
            .collect();
        assert_eq!(items.len(), n, "the generator filled every (size, band) cell");
        let acg = Acg::build_from_store(&bundle.annotations);
        let store_bytes = annostore::snapshot::save(&bundle.annotations).to_vec();
        Inputs { bundle, items, acg, store_bytes, generate_s }
    }

    /// A private copy of the dataset's annotation store.
    pub fn fresh_store(&self) -> AnnotationStore {
        annostore::snapshot::load(&self.store_bytes).expect("snapshot of a live store loads")
    }

    /// Digest of the inputs' logical content: every live row, every
    /// annotation with its attachments, and the stream's texts, focals and
    /// ideal sets. It hashes rendered values, not a snapshot codec, so a
    /// storage-format change does not move it; a generator change does.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        let db = &self.bundle.db;
        for (tid, name) in db.catalog().iter() {
            h.text(name);
            for tuple in db.table(tid).into_iter().flat_map(|t| t.scan()) {
                h.text(&tuple.render());
            }
        }
        for (aid, annotation) in self.bundle.annotations.iter_annotations() {
            h.text(&annotation.text);
            let mut attached = self.bundle.annotations.focal(aid);
            attached.sort_unstable();
            h.tuples(&attached);
        }
        for item in &self.items {
            h.text(&item.annotation.text);
            h.tuples(&item.focal);
            h.tuples(&item.ideal);
        }
        h.0
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Length-prefixed, so adjacent fields cannot run together.
    fn text(&mut self, text: &str) {
        self.bytes(&(text.len() as u64).to_le_bytes());
        self.bytes(text.as_bytes());
    }

    fn tuples(&mut self, tuples: &[TupleId]) {
        self.bytes(&(tuples.len() as u64).to_le_bytes());
        for t in tuples {
            self.bytes(&t.table.0.to_le_bytes());
            self.bytes(&t.row.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_does_not() {
        let a = Inputs::generate(Scale::Tiny, 7, 27);
        let b = Inputs::generate(Scale::Tiny, 7, 27);
        let other = Inputs::generate(Scale::Tiny, 8, 27);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), other.digest());
        assert_eq!(a.items.len(), 27);
        // The seed moves the dataset and leaves the stream's texts as they are.
        let texts =
            |i: &Inputs| i.items.iter().map(|x| x.annotation.text.clone()).collect::<Vec<_>>();
        assert_eq!(texts(&a), texts(&other));
    }

    #[test]
    fn every_multiple_of_nine_has_the_same_cell_mix() {
        let inputs = Inputs::generate(Scale::Tiny, DEFAULT_SEED, 36);
        // Cells are size-major, band-minor: position k of a stride of nine
        // comes from size group k / 3, so it fits that group's byte cap.
        for (k, item) in inputs.items.iter().enumerate() {
            assert!(item.annotation.text.len() <= SIZES[(k % 9) / 3], "item {k}");
            assert_eq!(item.focal, item.ideal[..1]);
        }
    }
}
