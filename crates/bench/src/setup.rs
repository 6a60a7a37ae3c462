//! Shared experiment setup: datasets and workloads.

use nebula_core::Acg;
use nebula_workload::{
    build_workload, generate_dataset, DatasetBundle, DatasetSpec, WorkloadSet, WorkloadSpec,
};

/// Experiment scale. `Full` mirrors the paper's relative dataset sizes
/// (scaled to laptop magnitude); `Fast` divides everything by ~10 so a
/// whole figure regenerates in seconds (shapes are preserved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-scale full datasets (D_small / D_mid / D_large presets).
    Full,
    /// ~10× smaller datasets for quick runs and CI.
    Fast,
}

impl Scale {
    fn shrink(self, spec: DatasetSpec) -> DatasetSpec {
        match self {
            Scale::Full => spec,
            Scale::Fast => DatasetSpec {
                genes: (spec.genes / 10).max(40),
                proteins: (spec.proteins / 10).max(60),
                publications: (spec.publications / 10).max(80),
                protein_sample_size: (spec.protein_sample_size / 10).max(20),
                ..spec
            },
        }
    }

    /// The `D_small` spec at this scale.
    pub fn small(self) -> DatasetSpec {
        self.shrink(DatasetSpec::small())
    }

    /// The `D_mid` spec at this scale.
    pub fn mid(self) -> DatasetSpec {
        self.shrink(DatasetSpec::mid())
    }

    /// The `D_large` spec at this scale.
    pub fn large(self) -> DatasetSpec {
        self.shrink(DatasetSpec::large())
    }
}

/// One prepared experiment environment: a dataset bundle plus its
/// workload, with the ACG pre-built from the dataset annotations
/// (excluding the workload, per §8.1).
pub struct Setup {
    /// The generated dataset.
    pub bundle: DatasetBundle,
    /// The `L^m` workload sets.
    pub workload: Vec<WorkloadSet>,
    /// The ACG built at once from the dataset's annotations.
    pub acg: Acg,
    /// Display name (`D_small` …).
    pub name: &'static str,
}

/// The default deterministic seed of the whole evaluation.
pub const SEED: u64 = 0x2015_0531;

impl Setup {
    /// Build a named dataset + workload.
    pub fn new(name: &'static str, spec: &DatasetSpec) -> Setup {
        let bundle = generate_dataset(spec, SEED);
        let workload = build_workload(&bundle, &WorkloadSpec::default(), SEED);
        let mut acg = Acg::build_from_store(&bundle.annotations);
        // The experiments treat the pre-built graph as mature.
        acg.set_stable(true);
        Setup { bundle, workload, acg, name }
    }

    /// `D_small` at the given scale.
    pub fn small(scale: Scale) -> Setup {
        Setup::new("D_small", &scale.small())
    }

    /// `D_mid` at the given scale.
    pub fn mid(scale: Scale) -> Setup {
        Setup::new("D_mid", &scale.mid())
    }

    /// `D_large` at the given scale.
    pub fn large(scale: Scale) -> Setup {
        Setup::new("D_large", &scale.large())
    }

    /// The workload set with the given byte cap.
    pub fn set(&self, max_bytes: usize) -> &WorkloadSet {
        self.workload.iter().find(|s| s.max_bytes == max_bytes).expect("workload set exists")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_scale_shrinks() {
        let full = Scale::Full.large();
        let fast = Scale::Fast.large();
        assert!(fast.genes < full.genes);
        assert!(fast.publications < full.publications);
    }

    #[test]
    fn setup_builds_consistently() {
        let s = Setup::new("test", &nebula_workload::DatasetSpec::tiny());
        assert_eq!(s.workload.len(), 4);
        assert!(s.acg.is_stable());
        assert!(s.acg.edge_count() > 0);
        assert_eq!(s.set(100).max_bytes, 100);
    }
}
