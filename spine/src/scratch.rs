//! The benchmark's scratch directory: every file a run writes (WALs,
//! checkpoints, page files, archives, bundles) lives under one unique
//! directory next to the running executable — inside the build directory,
//! hence inside the checkout and outside version control — and is removed
//! when the run ends, whether it passed, failed or panicked. A run that was
//! killed cannot clean up; the next run removes what it left.

use std::path::{Path, PathBuf};

#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        let exe = std::env::current_exe()?;
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let all = exe.parent().unwrap_or(Path::new(".")).join("spine-scratch");
        let root = all.join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        remove_orphans(&all);
        Ok(Scratch { root, next: std::cell::Cell::new(0) })
    }

    /// A path for a fresh, not yet created, directory.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{tag}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Remove the directories of runs whose process no longer exists.
fn remove_orphans(all: &Path) {
    for entry in std::fs::read_dir(all).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let pid = name.to_str().and_then(|n| n.split('-').next()?.parse::<u32>().ok());
        if pid.is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists()) {
            discard(&entry.path());
        }
    }
}

/// Remove a round's directory once its state has been checked.
pub fn discard(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_unique_and_removed_on_drop_and_on_panic() {
        let scratch = Scratch::new().unwrap();
        let (a, b) = (scratch.fresh("wal"), scratch.fresh("wal"));
        assert_ne!(a, b);
        std::fs::create_dir_all(&a).unwrap();
        std::fs::write(a.join("f"), b"x").unwrap();
        let root = scratch.root.clone();
        drop(scratch);
        assert!(!root.exists());

        let root = std::panic::catch_unwind(|| {
            let scratch = Scratch::new().unwrap();
            let root = scratch.root.clone();
            std::fs::write(root.join("f"), b"x").unwrap();
            std::panic::resume_unwind(Box::new(root));
        })
        .unwrap_err();
        let root = root.downcast::<PathBuf>().unwrap();
        assert!(!root.exists(), "a failed run leaves nothing behind");
    }

    #[test]
    fn a_killed_runs_directory_is_removed_by_the_next_run() {
        let scratch = Scratch::new().unwrap();
        let all = scratch.root.parent().unwrap();
        // No process has this id (the kernel's ceiling is 2^22).
        let orphan = all.join(format!("{}-0", u32::MAX));
        std::fs::create_dir_all(orphan.join("wal-0")).unwrap();
        let next = Scratch::new().unwrap();
        assert!(!orphan.exists());
        assert!(scratch.root.exists() && next.root.exists(), "live runs are left alone");
    }
}
