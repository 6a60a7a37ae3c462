//! Tier-1 gate for `spine`, the commit-path benchmark.
//!
//! `spine/` is a package of its own (its manifest carries an empty
//! `[workspace]`), so `cargo build` and `cargo test` at the root never
//! compile it: a public item moved or renamed in a product crate would
//! break the one yardstick unseen. This test builds it against the
//! product crates as they are in this checkout and drives all six
//! workloads, traced and untraced, through their byte-identity output
//! check on the tiny dataset.

use std::path::{Path, PathBuf};
use std::process::Command;

#[test]
fn spine_builds_and_every_workload_passes_its_output_check() {
    let spine = Path::new(env!("CARGO_MANIFEST_DIR")).join("spine");
    let output = Command::new(env!("CARGO"))
        .args(["run", "--release", "--quiet", "--offline", "--manifest-path"])
        .arg(spine.join("Cargo.toml"))
        .args(["--", "--smoke"])
        // spine builds into its own directory whatever the outer
        // invocation uses, so the two cargo processes never contend for
        // one build-directory lock.
        .env("CARGO_TARGET_DIR", spine.join("target"))
        .output()
        .expect("cargo starts");
    assert!(
        output.status.success(),
        "spine --smoke failed ({}):\n{}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

/// The first number after `"<key>": ` at or after `from` in `text`,
/// whether it stands alone or opens a `{"value": …}` metric object.
fn number_after(text: &str, from: usize, key: &str) -> f64 {
    let needle = format!("\"{key}\": ");
    let at = from + text[from..].find(&needle).unwrap_or_else(|| panic!("no {key}")) + needle.len();
    let rest = text[at..].trim_start_matches("{\"value\": ");
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().unwrap_or_else(|e| panic!("{key}: {e} in {:?}", &rest[..end]))
}

/// The checked-in trajectory file with the highest PR number.
fn latest_trajectory(root: &Path) -> PathBuf {
    let numbered = std::fs::read_dir(root).expect("repository root").filter_map(|entry| {
        let name = entry.ok()?.file_name().into_string().ok()?;
        let pr: u32 = name.strip_prefix("BENCH_pr")?.strip_suffix(".json")?.parse().ok()?;
        Some((pr, name))
    });
    numbered.max().map(|(_, name)| root.join(name)).expect("a checked-in BENCH_pr*.json")
}

/// The work counts of `ram-seq`, `paged-fit` and `sharded` are
/// machine-independent and repeat exactly: a change to the index, the
/// executor, the paged posting path or the shard fabric that alters how
/// many configurations, queries, probes, tuples or edges an annotation
/// costs is a change of behaviour, not of speed.
/// Every `BENCH_pr*.json` records them for its parent commit and its
/// change; these runs must reproduce the latest file's to the digit.
#[test]
#[ignore = "generates D_large and D_small and runs three traced rounds (~25 s); the CI `spine` job runs it"]
fn work_counts_match_the_checked_in_trajectory() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spine = root.join("spine");
    let bench = std::fs::read_to_string(latest_trajectory(root)).expect("checked-in file");
    let counts = bench.find("\"exact_counts\"").expect("exact_counts section");
    for workload in ["ram-seq", "paged-fit", "sharded"] {
        let output = Command::new(env!("CARGO"))
            .args(["run", "--release", "--quiet", "--offline", "--manifest-path"])
            .arg(spine.join("Cargo.toml"))
            .args(["--", "--workload", workload, "--trace", "1", "--seconds", "1"])
            .env("CARGO_TARGET_DIR", spine.join("target"))
            .output()
            .expect("cargo starts");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(output.status.success(), "spine {workload} failed:\n{stdout}");
        let result = stdout.lines().last().expect("a result line");

        let key = format!("\"{workload}\"");
        let row =
            counts + bench[counts..].find(&key).unwrap_or_else(|| panic!("{workload} counts"));
        for metric in [
            "textsearch.tuples_inspected_per_annotation",
            "relstore.index_probes_per_annotation",
            "textsearch.compiled_per_annotation",
            "textsearch.configurations_per_annotation",
            "core.queries_per_annotation",
            "core.candidates_per_annotation",
            "annostore.edges_added_per_annotation",
        ] {
            assert_eq!(
                number_after(result, 0, metric),
                number_after(&bench, row, metric),
                "{workload}: {metric} moved"
            );
        }
    }
}
