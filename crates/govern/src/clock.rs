//! Injectable sleeper: real `thread::sleep` in production, a virtual
//! accumulator in tests.
//!
//! The engine's retry backoff and the fault plan's latency injection both
//! park the calling thread. Under test (and under the virtual mode the
//! ingest worker pool enables for deterministic runs) that wall-clock time
//! is pure waste — the *amount* slept is what matters, not the elapsed
//! time. `sleep` therefore consults a process-global mode flag: real mode
//! forwards to `std::thread::sleep`, virtual mode adds the duration to a
//! monotonic nanosecond accumulator that tests can read back via
//! [`virtual_ns`].
//!
//! The mode is process-global (not thread-local) on purpose: a worker pool
//! enables it once and every worker thread — including ones spawned after
//! the flag was set — observes it without per-thread plumbing. Correctness
//! never depends on actually sleeping, so a concurrently-running real-mode
//! test that momentarily observes virtual mode only runs faster.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

static VIRTUAL: AtomicBool = AtomicBool::new(false);
static VIRTUAL_NS: AtomicU64 = AtomicU64::new(0);

/// Switch the process-wide clock between real (`false`, the default) and
/// virtual (`true`) mode.
///
/// Engaging virtual mode also installs this clock as the trace layer's
/// ambient time source (idempotent): while virtual mode is on, traced
/// span durations come from the virtual accumulator instead of the wall
/// clock, so they are as deterministic as the sleeps that feed them.
pub fn set_virtual(on: bool) {
    if on {
        nebula_obs::trace::install_time_source(virtual_probe);
    }
    VIRTUAL.store(on, Ordering::Relaxed);
}

/// The [`nebula_obs::trace::TimeSource`] probe: claim the clock only
/// while virtual mode is on.
fn virtual_probe() -> Option<u64> {
    is_virtual().then(virtual_ns)
}

/// Is the clock currently virtual?
pub fn is_virtual() -> bool {
    VIRTUAL.load(Ordering::Relaxed)
}

/// Park for `d` — really (real mode) or by advancing the virtual
/// accumulator (virtual mode).
pub fn sleep(d: Duration) {
    if d.is_zero() {
        return;
    }
    if VIRTUAL.load(Ordering::Relaxed) {
        VIRTUAL_NS.fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    } else {
        std::thread::sleep(d);
    }
}

/// Total nanoseconds "slept" in virtual mode since the last
/// [`reset_virtual`].
pub fn virtual_ns() -> u64 {
    VIRTUAL_NS.load(Ordering::Relaxed)
}

/// Zero the virtual accumulator (mode flag is untouched).
pub fn reset_virtual() {
    VIRTUAL_NS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The virtual-clock switch is process-global: a test that turns it off
    /// while the other is about to sleep an hour would make that sleep real.
    static SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn virtual_sleep_accumulates_without_blocking() {
        let _serial = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        set_virtual(true);
        reset_virtual();
        let start = std::time::Instant::now();
        sleep(Duration::from_secs(3600));
        sleep(Duration::from_nanos(25));
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(virtual_ns(), 3_600_000_000_025);
        reset_virtual();
        assert_eq!(virtual_ns(), 0);
        set_virtual(false);
    }

    #[test]
    fn zero_sleep_is_free_in_both_modes() {
        let _serial = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        sleep(Duration::ZERO);
        set_virtual(true);
        reset_virtual();
        sleep(Duration::ZERO);
        assert_eq!(virtual_ns(), 0);
        set_virtual(false);
    }
}
