//! Tier-1 gate for `spine`, the commit-path benchmark.
//!
//! `spine/` is a package of its own (its manifest carries an empty
//! `[workspace]`), so `cargo build` and `cargo test` at the root never
//! compile it: a public item moved or renamed in a product crate would
//! break the one yardstick unseen. This test builds it against the
//! product crates as they are in this checkout and drives all six
//! workloads, traced and untraced, through their byte-identity output
//! check on the tiny dataset.

use std::path::Path;
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
