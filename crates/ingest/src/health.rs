//! The engine health state machine.
//!
//! Health is a *derived* signal: after every commit (or shed) the ingest
//! front end feeds the outcome into a sliding window, and the machine recomputes
//! the state from what the window shows. The states are strictly
//! ordered:
//!
//! - **Healthy** — the window holds only clean commits.
//! - **Degraded** — something in the window degraded or failed, or a
//!   breaker is not closed, but nothing is being turned away.
//! - **Shedding** — work in the window was shed (queue-full, deadline,
//!   or open breaker); the engine is protecting itself by refusing load.
//! - **Wedged** — the durability layer has hard-failed repeatedly; the
//!   engine refuses all further work. Wedged is sticky against the
//!   window: no amount of clean observations leaves it. The only exit is
//!   the explicit, guarded [`HealthMachine::try_recover`] — taken when a
//!   recovery probe has proven the WAL breaker's failure domain healed.
//!
//! Because the window is fed in commit order, the health history is as
//! deterministic as everything else in the front end.

use std::collections::VecDeque;

/// Engine health, worst state last. `as u64` is exported as the
/// `ingest.health` gauge (0 = healthy … 3 = wedged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Only clean commits in the window.
    Healthy,
    /// Degradations or contained failures, but no load refused.
    Degraded,
    /// Load is being shed.
    Shedding,
    /// The durability layer is broken; all work is refused. Sticky.
    Wedged,
}

impl HealthState {
    /// The gauge encoding (0 = healthy … 3 = wedged).
    pub fn as_gauge(self) -> u64 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Shedding => 2,
            HealthState::Wedged => 3,
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Shedding => "shedding",
            HealthState::Wedged => "wedged",
        };
        write!(f, "{s}")
    }
}

/// One observed outcome, in commit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthSignal {
    /// A clean commit (accepted / pending / rejected).
    Clean,
    /// A commit that degraded (reduced search, truncation, ...).
    Degraded,
    /// A contained failure (quarantine).
    Failed,
    /// An item shed instead of executed.
    Shed,
}

/// Sliding-window health machine. Feed it with [`observe`] after every
/// commit or shed; read the state with [`state`].
///
/// [`observe`]: HealthMachine::observe
/// [`state`]: HealthMachine::state
#[derive(Debug)]
pub struct HealthMachine {
    window: VecDeque<HealthSignal>,
    capacity: usize,
    wal_trips: u32,
    wedge_after_wal_trips: u32,
    breaker_not_closed: bool,
    replication_lagging: bool,
    state: HealthState,
}

impl HealthMachine {
    /// A healthy machine with a `window` -signal sliding window that
    /// wedges after `wedge_after_wal_trips` WAL breaker trips.
    pub fn new(window: usize, wedge_after_wal_trips: u32) -> HealthMachine {
        HealthMachine {
            window: VecDeque::new(),
            capacity: window.max(1),
            wal_trips: 0,
            wedge_after_wal_trips: wedge_after_wal_trips.max(1),
            breaker_not_closed: false,
            replication_lagging: false,
            state: HealthState::Healthy,
        }
    }

    /// Feed one outcome and return the recomputed state.
    pub fn observe(&mut self, signal: HealthSignal) -> HealthState {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(signal);
        self.recompute()
    }

    /// Record a WAL breaker trip (the path to Wedged).
    pub fn note_wal_trip(&mut self) -> HealthState {
        self.wal_trips = self.wal_trips.saturating_add(1);
        self.recompute()
    }

    /// Tell the machine whether any breaker is currently not closed
    /// (keeps the engine at least Degraded while a breaker recovers).
    pub fn set_breaker_not_closed(&mut self, open: bool) {
        self.breaker_not_closed = open;
    }

    /// Tell the machine whether the replication sink last reported a
    /// commit-rule or lag-budget miss (keeps the engine at least
    /// Degraded while replicas are behind).
    pub fn set_replication_lagging(&mut self, lagging: bool) {
        self.replication_lagging = lagging;
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// The guarded Wedged → Degraded exit. Callers must first prove the
    /// WAL's failure domain healed (the breaker left Open and the sink
    /// reports healthy, or an operator forced a successful checkpoint);
    /// this method only performs the transition. The accumulated WAL-trip
    /// count is forgiven so the next trip escalates afresh, and the
    /// machine re-enters at Degraded — never straight to Healthy — so the
    /// window must prove itself clean again. Returns whether a recovery
    /// actually happened (`false` when not Wedged).
    pub fn try_recover(&mut self) -> bool {
        if self.state != HealthState::Wedged {
            return false;
        }
        self.wal_trips = 0;
        self.state = HealthState::Degraded;
        nebula_obs::counter_add(crate::counters::RECOVERED, 1);
        nebula_obs::trace::flight_event("health", "wedged -> degraded (recovered)".to_string());
        nebula_obs::gauge_set(crate::counters::HEALTH_GAUGE, self.state.as_gauge());
        true
    }

    fn recompute(&mut self) -> HealthState {
        let before = self.state;
        self.state =
            if self.state == HealthState::Wedged || self.wal_trips >= self.wedge_after_wal_trips {
                HealthState::Wedged
            } else if self.window.contains(&HealthSignal::Shed) {
                HealthState::Shedding
            } else if self.breaker_not_closed
                || self.replication_lagging
                || self.window.contains(&HealthSignal::Degraded)
                || self.window.contains(&HealthSignal::Failed)
            {
                HealthState::Degraded
            } else {
                HealthState::Healthy
            };
        if self.state != before {
            nebula_obs::trace::flight_event("health", format!("{before} -> {}", self.state));
            if self.state == HealthState::Wedged {
                // Wedged is sticky, so this transition fires exactly once
                // per machine — the post-mortem trigger.
                nebula_obs::trace::flight_dump("ingest.wedged");
            }
        }
        nebula_obs::gauge_set(crate::counters::HEALTH_GAUGE, self.state.as_gauge());
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn states_escalate_and_recover_with_the_window() {
        let mut m = HealthMachine::new(4, 3);
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.observe(HealthSignal::Clean), HealthState::Healthy);
        assert_eq!(m.observe(HealthSignal::Degraded), HealthState::Degraded);
        assert_eq!(m.observe(HealthSignal::Shed), HealthState::Shedding);
        // The window (cap 4) flushes as clean commits arrive.
        for _ in 0..4 {
            m.observe(HealthSignal::Clean);
        }
        assert_eq!(m.state(), HealthState::Healthy);
    }

    #[test]
    fn failures_degrade_but_do_not_shed() {
        let mut m = HealthMachine::new(8, 3);
        assert_eq!(m.observe(HealthSignal::Failed), HealthState::Degraded);
        assert_eq!(m.observe(HealthSignal::Clean), HealthState::Degraded, "still in window");
    }

    #[test]
    fn open_breaker_pins_at_least_degraded() {
        let mut m = HealthMachine::new(2, 3);
        m.set_breaker_not_closed(true);
        assert_eq!(m.observe(HealthSignal::Clean), HealthState::Degraded);
        m.set_breaker_not_closed(false);
        assert_eq!(m.observe(HealthSignal::Clean), HealthState::Healthy);
    }

    #[test]
    fn replication_lag_pins_at_least_degraded() {
        let mut m = HealthMachine::new(2, 3);
        m.set_replication_lagging(true);
        assert_eq!(m.observe(HealthSignal::Clean), HealthState::Degraded);
        m.set_replication_lagging(false);
        assert_eq!(m.observe(HealthSignal::Clean), HealthState::Healthy);
    }

    #[test]
    fn wedged_is_sticky() {
        let mut m = HealthMachine::new(4, 2);
        assert_eq!(m.note_wal_trip(), HealthState::Healthy, "one trip is survivable");
        assert_eq!(m.note_wal_trip(), HealthState::Wedged);
        for _ in 0..16 {
            m.observe(HealthSignal::Clean);
        }
        assert_eq!(m.state(), HealthState::Wedged, "no recovery within a batch");
    }

    #[test]
    fn try_recover_is_the_only_exit_and_lands_on_degraded() {
        let mut m = HealthMachine::new(4, 2);
        assert!(!m.try_recover(), "not wedged: nothing to recover");
        m.note_wal_trip();
        m.note_wal_trip();
        assert_eq!(m.state(), HealthState::Wedged);
        assert!(m.try_recover());
        assert_eq!(m.state(), HealthState::Degraded, "recovery re-enters at Degraded");
        // The trip count was forgiven: it takes the full threshold to
        // wedge again (one trip is survivable, as on a fresh machine).
        assert_eq!(m.note_wal_trip(), HealthState::Healthy);
        assert_eq!(m.note_wal_trip(), HealthState::Wedged);
        // And the machine recovers a second time just the same.
        assert!(m.try_recover());
        for _ in 0..4 {
            m.observe(HealthSignal::Clean);
        }
        assert_eq!(m.state(), HealthState::Healthy);
    }

    #[test]
    fn gauge_encoding_is_ordered() {
        assert!(HealthState::Healthy < HealthState::Degraded);
        assert!(HealthState::Degraded < HealthState::Shedding);
        assert!(HealthState::Shedding < HealthState::Wedged);
        assert_eq!(HealthState::Healthy.as_gauge(), 0);
        assert_eq!(HealthState::Wedged.as_gauge(), 3);
    }
}
