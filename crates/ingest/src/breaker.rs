//! Count-based circuit breakers.
//!
//! A breaker guards one failure class (the ingest front end keeps one for
//! search/pipeline faults, one for WAL/sink failures and one for
//! replication lag). It is deliberately
//! **count-based, not time-based**: opening after N consecutive failures
//! and re-probing after shedding M items makes every transition a pure
//! function of the commit-ordered outcome sequence, so a fixed fault seed
//! produces the same breaker history on every run.
//!
//! Closed → (failure_threshold consecutive failures) → Open →
//! (open_shed_count items shed) → HalfOpen → one probe: success closes,
//! failure re-opens.

/// The classic three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; failures are counted.
    Closed,
    /// Tripping: items are shed instead of executed.
    Open,
    /// Probing: the next item executes; its outcome decides.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        };
        write!(f, "{s}")
    }
}

/// Breaker tuning. Defaults trip after 5 consecutive failures and shed 8
/// items before probing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that open a closed breaker.
    pub failure_threshold: u32,
    /// Items shed while open before moving to half-open.
    pub open_shed_count: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 5, open_shed_count: 8 }
    }
}

impl BreakerConfig {
    /// A breaker that never trips (used by the determinism tests, where
    /// shedding would change which work runs).
    pub fn disabled() -> Self {
        BreakerConfig { failure_threshold: u32::MAX, open_shed_count: 0 }
    }
}

/// One count-based breaker. Drive it with [`record_success`] /
/// [`record_failure`] after each commit and consult [`allows`] before
/// dispatching; every call must happen in commit order for determinism
/// (the ingest front end makes them one item at a time).
///
/// [`record_success`]: CircuitBreaker::record_success
/// [`record_failure`]: CircuitBreaker::record_failure
/// [`allows`]: CircuitBreaker::allows
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    shed_while_open: u32,
    /// Times this breaker has transitioned into Open.
    pub trips: u32,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            shed_while_open: 0,
            trips: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// May the next item execute? `false` means shed it — and counts the
    /// shed toward the open → half-open transition.
    pub fn allows(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                self.shed_while_open += 1;
                if self.shed_while_open >= self.config.open_shed_count {
                    self.state = BreakerState::HalfOpen;
                    nebula_obs::counter_add(crate::counters::BREAKER_HALF_OPEN, 1);
                }
                false
            }
        }
    }

    /// Record a successful commit: closes a half-open breaker, clears the
    /// failure streak.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
        }
    }

    /// Record a failed commit: re-opens a half-open breaker immediately,
    /// opens a closed one once the streak reaches the threshold.
    pub fn record_failure(&mut self) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            BreakerState::HalfOpen => self.trip(),
            BreakerState::Closed if self.consecutive_failures >= self.config.failure_threshold => {
                self.trip()
            }
            _ => {}
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.shed_while_open = 0;
        self.trips = self.trips.saturating_add(1);
        nebula_obs::counter_add(crate::counters::BREAKER_OPENED, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_after_consecutive_failures_only() {
        let mut b = CircuitBreaker::new(BreakerConfig { failure_threshold: 3, open_shed_count: 2 });
        b.record_failure();
        b.record_failure();
        b.record_success(); // streak broken
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 1);
    }

    #[test]
    fn full_cycle_closed_open_half_open_closed() {
        let mut b = CircuitBreaker::new(BreakerConfig { failure_threshold: 1, open_shed_count: 2 });
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows(), "first shed while open");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows(), "second shed moves to half-open");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allows(), "half-open admits the probe");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_failure_reopens() {
        let mut b = CircuitBreaker::new(BreakerConfig { failure_threshold: 1, open_shed_count: 1 });
        b.record_failure();
        assert!(!b.allows());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 2);
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let mut b = CircuitBreaker::new(BreakerConfig::disabled());
        for _ in 0..10_000 {
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows());
        assert_eq!(b.trips, 0);
    }
}
