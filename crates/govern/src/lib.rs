//! nebula-govern: resource governance for the Nebula pipeline.
//!
//! Three cooperating facilities, all thread-local so that governed calls on
//! different threads never interfere:
//!
//! - **Budgets** ([`ExecutionBudget`], [`begin_budget`], [`charge`],
//!   [`admit`]): declarative per-call limits on wall clock, tuples
//!   inspected, configurations compiled, and candidates ranked, checked
//!   cooperatively in the hot loops via a cheap tick-based guard. An
//!   unbounded budget (the default) installs nothing and costs one TLS
//!   check per charge.
//! - **Fault injection** ([`FaultPlan`], [`set_fault_plan`], [`inject`],
//!   [`inject_io`], [`stage_boundary`]): a seeded, deterministic schedule
//!   of faults over one table of injection sites ([`FaultSite`]) — query
//!   errors, index-probe failures, latency, panics, I/O and media faults —
//!   used to exercise the engine's recovery paths.
//! - **Degradation** ([`Degradation`], [`RetryPolicy`]): the vocabulary the
//!   engine uses to report *how* it survived — focal fallback, truncated
//!   fan-out, abandoned search, bounded retries.
//!
//! Beside them, [`scrub`] holds the one report every at-rest scrubber
//! returns, [`scrub::rot_file`], the media-rot fault the file-backed rot
//! sites share, and [`scrub::atomic_replace`], the one durable-write
//! protocol every authoritative file goes through.
//!
//! The crate deliberately depends only on `nebula-obs` so every layer of
//! the engine (relstore, textsearch, core) can hook into it without cycles.

mod budget;
pub mod clock;
mod fault;
pub mod scrub;

pub use budget::{BudgetExceeded, ExecutionBudget, Resource};
pub use fault::{FaultPlan, FaultSite, FaultStats, InjectedFault, RetryPolicy};

use std::cell::RefCell;
use std::fmt;
use std::time::{Duration, Instant};

/// Counter names this crate publishes to `nebula-obs`.
pub mod counters {
    /// Budget trips (any resource).
    pub const BUDGET_TRIPS: &str = "govern.budget_trips";
    /// Configurations dropped by budget truncation.
    pub const TRUNCATED_CONFIGURATIONS: &str = "govern.truncated_configurations";
    /// Candidates dropped by budget truncation.
    pub const TRUNCATED_CANDIDATES: &str = "govern.truncated_candidates";
    /// Faults injected (all sites).
    pub const FAULTS_INJECTED: &str = "govern.faults_injected";
    /// Faults absorbed without surfacing an error.
    pub const FAULTS_RECOVERED: &str = "govern.faults_recovered";
    /// Retry attempts against transient faults.
    pub const RETRIES: &str = "govern.retries";
}

// How often the deadline clock is consulted: every charge increments a tick
// and only ticks matching this mask pay for an `Instant::now()`.
const DEADLINE_CHECK_MASK: u32 = 0xFF;

struct BudgetState {
    deadline: Option<(Instant, Duration)>,
    limits: [usize; 3],
    used: [usize; 3],
    truncated: [usize; 3],
    tick: u32,
    prev: Option<Box<BudgetState>>,
}

impl BudgetState {
    fn from_budget(budget: &ExecutionBudget) -> BudgetState {
        BudgetState {
            deadline: budget.deadline.map(|d| (Instant::now(), d)),
            limits: [budget.max_tuples_inspected, budget.max_configurations, budget.max_candidates],
            used: [0; 3],
            truncated: [0; 3],
            tick: 0,
            prev: None,
        }
    }

    fn deadline_exceeded(&mut self) -> Option<BudgetExceeded> {
        let (start, limit) = self.deadline?;
        // First charge always checks (tick was just bumped to 1); after
        // that, only every DEADLINE_CHECK_MASK-th charge pays for the clock.
        if self.tick & DEADLINE_CHECK_MASK != 1 {
            return None;
        }
        if start.elapsed() >= limit {
            Some(BudgetExceeded { resource: Resource::Deadline, limit: limit.as_millis() as usize })
        } else {
            None
        }
    }
}

#[derive(Default)]
struct Governor {
    budget: Option<BudgetState>,
    plan: Option<FaultPlan>,
    fault_stats: FaultStats,
    /// Degradations noted by layers below the engine (e.g. a shard
    /// scatter-gather returning a partial result); the pipeline drains
    /// them into the annotation's outcome.
    noted: Vec<Degradation>,
}

thread_local! {
    static GOVERNOR: RefCell<Governor> = RefCell::new(Governor::default());
}

/// RAII handle returned by [`begin_budget`]; dropping it uninstalls the
/// budget (restoring any outer one).
pub struct BudgetScope {
    installed: bool,
}

impl Drop for BudgetScope {
    fn drop(&mut self) {
        if self.installed {
            GOVERNOR.with(|g| {
                let mut g = g.borrow_mut();
                if let Some(state) = g.budget.take() {
                    g.budget = state.prev.map(|b| *b);
                }
            });
        }
    }
}

/// Install `budget` for the current thread until the returned scope drops.
///
/// Unbounded budgets install nothing, keeping the default path identical to
/// the ungoverned engine; a bounded budget nests over any outer one.
pub fn begin_budget(budget: &ExecutionBudget) -> BudgetScope {
    if budget.is_unbounded() {
        return BudgetScope { installed: false };
    }
    GOVERNOR.with(|g| {
        let mut g = g.borrow_mut();
        let mut state = BudgetState::from_budget(budget);
        state.prev = g.budget.take().map(Box::new);
        g.budget = Some(state);
    });
    BudgetScope { installed: true }
}

/// Is a bounded budget currently installed on this thread?
pub fn governed() -> bool {
    GOVERNOR.with(|g| g.borrow().budget.is_some())
}

/// Charge `n` units of `resource` against the installed budget.
///
/// No-op (always `Ok`) when ungoverned. Also serves as the deadline guard:
/// every 256th charge consults the clock.
pub fn charge(resource: Resource, n: usize) -> Result<(), BudgetExceeded> {
    GOVERNOR.with(|g| {
        let mut g = g.borrow_mut();
        let Some(state) = g.budget.as_mut() else {
            return Ok(());
        };
        state.tick = state.tick.wrapping_add(1);
        if let Some(trip) = state.deadline_exceeded() {
            drop(g);
            nebula_obs::counter_add(counters::BUDGET_TRIPS, 1);
            return Err(trip);
        }
        if let Some(slot) = resource.slot() {
            state.used[slot] = state.used[slot].saturating_add(n);
            if state.used[slot] > state.limits[slot] {
                let trip = BudgetExceeded { resource, limit: state.limits[slot] };
                drop(g);
                nebula_obs::counter_add(counters::BUDGET_TRIPS, 1);
                return Err(trip);
            }
        }
        Ok(())
    })
}

/// Ask how many of `requested` items of `resource` the budget admits.
///
/// Charges the admitted amount and records the rest as truncated. Unlike
/// [`charge`], running out of room here is *not* an error — the caller is
/// expected to shrink its fan-out to the returned count.
pub fn admit(resource: Resource, requested: usize) -> usize {
    GOVERNOR.with(|g| {
        let mut g = g.borrow_mut();
        let Some(state) = g.budget.as_mut() else {
            return requested;
        };
        let Some(slot) = resource.slot() else {
            return requested;
        };
        let room = state.limits[slot].saturating_sub(state.used[slot]);
        let allowed = requested.min(room);
        state.used[slot] = state.used[slot].saturating_add(allowed);
        let dropped = requested - allowed;
        state.truncated[slot] = state.truncated[slot].saturating_add(dropped);
        drop(g);
        if dropped > 0 {
            let name = match resource {
                Resource::Configurations => counters::TRUNCATED_CONFIGURATIONS,
                Resource::Candidates => counters::TRUNCATED_CANDIDATES,
                _ => counters::BUDGET_TRIPS,
            };
            nebula_obs::counter_add(name, dropped as u64);
        }
        allowed
    })
}

/// Reset the installed budget's usage counters for a degraded re-attempt.
///
/// The deadline keeps ticking from its original start (a fallback does not
/// buy more wall clock), and truncation tallies are preserved so the final
/// report still reflects everything dropped.
pub fn rearm() {
    GOVERNOR.with(|g| {
        if let Some(state) = g.borrow_mut().budget.as_mut() {
            state.used = [0; 3];
            state.tick = 0;
        }
    });
}

/// Usage snapshot of the installed budget (all zeros when ungoverned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetReport {
    /// Whether a bounded budget was installed.
    pub governed: bool,
    /// Tuples charged since install/rearm.
    pub tuples_inspected: usize,
    /// Configurations charged since install/rearm.
    pub configurations: usize,
    /// Candidates charged since install/rearm.
    pub candidates: usize,
    /// Configurations dropped by truncation (survives rearm).
    pub truncated_configurations: usize,
    /// Candidates dropped by truncation (survives rearm).
    pub truncated_candidates: usize,
}

/// Read the current budget usage without touching it.
pub fn budget_report() -> BudgetReport {
    GOVERNOR.with(|g| {
        let g = g.borrow();
        match g.budget.as_ref() {
            None => BudgetReport::default(),
            Some(state) => BudgetReport {
                governed: true,
                tuples_inspected: state.used[0],
                configurations: state.used[1],
                candidates: state.used[2],
                truncated_configurations: state.truncated[1],
                truncated_candidates: state.truncated[2],
            },
        }
    })
}

/// Install (or clear, with `None`) the fault plan for the current thread.
/// Resets the per-thread [`FaultStats`].
pub fn set_fault_plan(plan: Option<FaultPlan>) {
    GOVERNOR.with(|g| {
        let mut g = g.borrow_mut();
        g.plan = plan;
        g.fault_stats = FaultStats::default();
    });
}

/// Is a fault plan currently installed on this thread?
pub fn fault_plan_active() -> bool {
    GOVERNOR.with(|g| g.borrow().plan.is_some())
}

/// Human-readable description of the installed plan, if any.
pub fn describe_fault_plan() -> Option<String> {
    GOVERNOR.with(|g| g.borrow().plan.as_ref().map(FaultPlan::describe))
}

/// Per-thread tally of injection activity since the plan was installed.
pub fn fault_stats() -> FaultStats {
    GOVERNOR.with(|g| g.borrow().fault_stats)
}

/// Roll the installed plan at `site` over a `len`-byte operation and tally
/// a firing. If it fired, returns what `read` makes of the plan (its query
/// flavor or latency delay) and the site's parameter.
fn roll_installed<T>(
    site: FaultSite,
    len: usize,
    read: impl FnOnce(&FaultPlan, usize) -> T,
) -> Option<T> {
    let fired = GOVERNOR.with(|g| {
        let mut g = g.borrow_mut();
        let plan = g.plan.as_mut()?;
        let value = plan.roll(site, len)?;
        let out = read(plan, value);
        g.fault_stats.tally(site);
        Some(out)
    });
    if fired.is_some() {
        nebula_obs::counter_add(counters::FAULTS_INJECTED, 1);
    }
    fired
}

/// Roll the installed plan at an error-producing site
/// ([`FaultSite::Query`], [`FaultSite::IndexProbe`] or
/// [`FaultSite::Shard`]). Returns the fault if it fired; only query faults
/// can be transient.
pub fn inject(site: FaultSite) -> Option<InjectedFault> {
    debug_assert!(
        matches!(site, FaultSite::Query | FaultSite::IndexProbe | FaultSite::Shard),
        "inject rolls error sites only, not {site}"
    );
    roll_installed(site, 0, |plan, _| InjectedFault {
        site,
        transient: site == FaultSite::Query && plan.transient,
    })
}

/// Roll the installed plan at an I/O fault site for an operation over a
/// `len`-byte buffer. Returns the site's seed-derived parameter (bytes
/// kept, bit flipped, or 0) if it fired; `None` when no plan is installed
/// or the roll misses.
pub fn inject_io(site: FaultSite, len: usize) -> Option<usize> {
    roll_installed(site, len, |_, value| value)
}

/// Roll the installed plan at a pipeline stage boundary: may sleep for the
/// plan's artificial latency, and may panic (to exercise containment).
pub fn stage_boundary(stage: &'static str) {
    if let Some(delay) = roll_installed(FaultSite::Latency, 0, |plan, _| plan.delay) {
        clock::sleep(delay);
    }
    if roll_installed(FaultSite::Panic, 0, |_, _| ()).is_some() {
        panic!("nebula-govern: injected panic at {stage}");
    }
}

/// Record that a fault was absorbed without surfacing an error (e.g. an
/// index-probe failure satisfied by a scan fallback).
pub fn note_recovered(_site: FaultSite) {
    GOVERNOR.with(|g| g.borrow_mut().fault_stats.recovered += 1);
    nebula_obs::counter_add(counters::FAULTS_RECOVERED, 1);
}

/// Record one retry attempt against a transient fault.
pub fn note_retry() {
    GOVERNOR.with(|g| g.borrow_mut().fault_stats.retries += 1);
    nebula_obs::counter_add(counters::RETRIES, 1);
}

/// Note a degradation that happened below the engine's own ladder (e.g.
/// a shard scatter-gather answering partially). The pipeline drains notes
/// into the current annotation's outcome via [`take_noted_degradations`].
pub fn note_degradation(d: Degradation) {
    GOVERNOR.with(|g| g.borrow_mut().noted.push(d));
}

/// Drain every degradation noted on this thread since the last drain.
pub fn take_noted_degradations() -> Vec<Degradation> {
    GOVERNOR.with(|g| std::mem::take(&mut g.borrow_mut().noted))
}

/// How a governed call survived a resource trip: what was given up, where.
#[derive(Debug, Clone, PartialEq)]
pub enum Degradation {
    /// Full-database search tripped a budget; the engine re-ran in focal
    /// neighborhood mode with spreading factor `k`.
    FocalFallback {
        /// The resource that tripped.
        resource: Resource,
        /// Spreading factor used by the fallback.
        k: usize,
    },
    /// Even the degraded search tripped; candidate discovery was abandoned
    /// and the annotation proceeds with no related tuples.
    SearchAbandoned {
        /// The resource that tripped.
        resource: Resource,
    },
    /// Configuration fan-out was cut to fit the budget (lowest-scoring
    /// configurations dropped first).
    TruncatedConfigurations {
        /// How many configurations were dropped.
        dropped: usize,
    },
    /// The ranked candidate list was cut to fit the budget.
    TruncatedCandidates {
        /// How many candidates were dropped.
        dropped: usize,
    },
    /// A scatter-gather search completed without every shard: the listed
    /// shards were past their deadline, partitioned, or breaker-skipped,
    /// so their slice of the hit space is absent from the results.
    PartialShards {
        /// Shards that answered in time (the home shard included).
        answered: usize,
        /// Total shards the query was scattered to (home included).
        total: usize,
        /// The missing shard ids, ascending.
        missing: Vec<usize>,
    },
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Degradation::FocalFallback { resource, k } => {
                write!(f, "focal-fallback({resource}, k={k})")
            }
            Degradation::SearchAbandoned { resource } => {
                write!(f, "search-abandoned({resource})")
            }
            Degradation::TruncatedConfigurations { dropped } => {
                write!(f, "truncated-configurations({dropped})")
            }
            Degradation::TruncatedCandidates { dropped } => {
                write!(f, "truncated-candidates({dropped})")
            }
            Degradation::PartialShards { answered, total, missing } => {
                let ids: Vec<String> = missing.iter().map(ToString::to_string).collect();
                write!(f, "partial-shards({answered}/{total}, missing=[{}])", ids.join(","))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_budget_installs_nothing() {
        let _scope = begin_budget(&ExecutionBudget::default());
        assert!(!governed());
        assert!(charge(Resource::TuplesInspected, 1_000_000).is_ok());
        assert_eq!(admit(Resource::Candidates, 42), 42);
        assert_eq!(budget_report(), BudgetReport::default());
    }

    #[test]
    fn charge_trips_at_limit() {
        let budget = ExecutionBudget::unbounded().with_max_tuples(10);
        let _scope = begin_budget(&budget);
        assert!(governed());
        assert!(charge(Resource::TuplesInspected, 10).is_ok());
        let err = charge(Resource::TuplesInspected, 1).expect_err("over budget");
        assert_eq!(err.resource, Resource::TuplesInspected);
        assert_eq!(err.limit, 10);
        // Other resources still have room.
        assert!(charge(Resource::Candidates, 5).is_ok());
    }

    #[test]
    fn admit_truncates_and_records() {
        let budget = ExecutionBudget::unbounded().with_max_configurations(3);
        let _scope = begin_budget(&budget);
        assert_eq!(admit(Resource::Configurations, 2), 2);
        assert_eq!(admit(Resource::Configurations, 5), 1);
        let report = budget_report();
        assert_eq!(report.configurations, 3);
        assert_eq!(report.truncated_configurations, 4);
    }

    #[test]
    fn rearm_resets_usage_but_keeps_truncation() {
        let budget = ExecutionBudget::unbounded().with_max_tuples(4).with_max_candidates(1);
        let _scope = begin_budget(&budget);
        assert!(charge(Resource::TuplesInspected, 4).is_ok());
        assert_eq!(admit(Resource::Candidates, 3), 1);
        assert!(charge(Resource::TuplesInspected, 1).is_err());
        rearm();
        assert!(charge(Resource::TuplesInspected, 4).is_ok());
        let report = budget_report();
        assert_eq!(report.tuples_inspected, 4);
        assert_eq!(report.truncated_candidates, 2);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = ExecutionBudget::unbounded().with_max_tuples(100);
        let scope1 = begin_budget(&outer);
        assert!(charge(Resource::TuplesInspected, 60).is_ok());
        {
            let inner = ExecutionBudget::unbounded().with_max_tuples(5);
            let _scope2 = begin_budget(&inner);
            assert!(charge(Resource::TuplesInspected, 5).is_ok());
            assert!(charge(Resource::TuplesInspected, 1).is_err());
        }
        // Outer budget restored with its usage intact.
        assert!(charge(Resource::TuplesInspected, 40).is_ok());
        assert!(charge(Resource::TuplesInspected, 1).is_err());
        drop(scope1);
        assert!(!governed());
    }

    #[test]
    fn deadline_trips_eventually() {
        let budget = ExecutionBudget::unbounded().with_deadline(Duration::from_millis(0));
        let _scope = begin_budget(&budget);
        // The clock is consulted every 256 charges, starting with the first.
        let mut tripped = None;
        for _ in 0..1024 {
            if let Err(e) = charge(Resource::TuplesInspected, 0) {
                tripped = Some(e);
                break;
            }
        }
        let err = tripped.expect("zero deadline must trip within a tick window");
        assert_eq!(err.resource, Resource::Deadline);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = |seed: u64| {
            set_fault_plan(Some(FaultPlan::uniform(seed, 0.5)));
            let seq: Vec<bool> = (0..64).map(|_| inject(FaultSite::Query).is_some()).collect();
            set_fault_plan(None);
            seq
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn hostile_plan_fires_everywhere_but_never_panics() {
        set_fault_plan(Some(FaultPlan::hostile(99)));
        for _ in 0..16 {
            let fault = inject(FaultSite::Query).expect("hostile query always fires");
            assert!(fault.transient);
            assert!(inject(FaultSite::IndexProbe).is_some());
        }
        let before = fault_stats();
        assert_eq!(before.injected(FaultSite::Query), 16);
        assert_eq!(before.injected(FaultSite::IndexProbe), 16);
        assert_eq!(before.injected(FaultSite::Panic), 0);
        stage_boundary("test.stage"); // latency only; must not panic
        assert_eq!(fault_stats().injected(FaultSite::Latency), 1);
        set_fault_plan(None);
        assert!(inject(FaultSite::Query).is_none());
    }

    #[test]
    fn backoff_is_monotone_and_capped() {
        let policy = RetryPolicy::default();
        let mut prev = Duration::ZERO;
        for attempt in 0..40 {
            let b = policy.backoff(attempt);
            assert!(b >= prev);
            assert!(b <= policy.max_backoff);
            prev = b;
        }
        assert_eq!(policy.backoff(39), policy.max_backoff);
    }

    #[test]
    fn note_helpers_update_stats() {
        set_fault_plan(Some(FaultPlan::new(1)));
        note_recovered(FaultSite::IndexProbe);
        note_retry();
        note_retry();
        let stats = fault_stats();
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.retries, 2);
        set_fault_plan(None);
    }

    #[test]
    fn io_faults_fire_with_bounded_parameters() {
        set_fault_plan(Some(
            FaultPlan::new(5)
                .with(FaultSite::TornWrite, 1.0)
                .with(FaultSite::ShortWrite, 1.0)
                .with(FaultSite::FsyncFail, 1.0)
                .with(FaultSite::BitFlip, 1.0),
        ));
        for _ in 0..32 {
            assert!(inject_io(FaultSite::TornWrite, 100).expect("torn write fires") < 100);
            assert!(inject_io(FaultSite::ShortWrite, 100).expect("short write fires") < 100);
            assert_eq!(inject_io(FaultSite::FsyncFail, 100), Some(0));
            assert!(inject_io(FaultSite::BitFlip, 100).expect("bit flip fires") < 800);
        }
        let stats = fault_stats();
        for site in
            [FaultSite::TornWrite, FaultSite::ShortWrite, FaultSite::FsyncFail, FaultSite::BitFlip]
        {
            assert_eq!(stats.injected(site), 32, "{site}");
        }
        assert_eq!(stats.total_injected(), 128);
        set_fault_plan(None);
        assert!(inject_io(FaultSite::TornWrite, 100).is_none());
    }

    #[test]
    fn io_sites_consume_fixed_draws() {
        // Two plans with the same seed but different site toggles must see
        // the same downstream stream: each inject_io consumes exactly two
        // draws whether or not the site is enabled.
        let run = |plan: FaultPlan| {
            set_fault_plan(Some(plan));
            let _ = inject_io(FaultSite::TornWrite, 64);
            let _ = inject_io(FaultSite::ArchiveWrite, 64);
            let _ = inject_io(FaultSite::Enospc, 64);
            let seq: Vec<bool> = (0..32).map(|_| inject(FaultSite::Query).is_some()).collect();
            set_fault_plan(None);
            seq
        };
        let without = run(FaultPlan::new(9).with_query(0.5, true));
        let with = run(FaultPlan::new(9)
            .with_query(0.5, true)
            .with(FaultSite::TornWrite, 1.0)
            .with(FaultSite::ArchiveWrite, 1.0)
            .with(FaultSite::Enospc, 1.0));
        assert_eq!(without, with);
    }

    #[test]
    fn archive_and_enospc_sites_fire_with_bounded_parameters() {
        let sites = [
            FaultSite::ArchiveWrite,
            FaultSite::ArchiveRot,
            FaultSite::ArchiveFsync,
            FaultSite::Enospc,
        ];
        set_fault_plan(Some(sites.iter().fold(FaultPlan::new(11), |p, &s| p.with(s, 1.0))));
        for _ in 0..32 {
            assert!(inject_io(FaultSite::ArchiveWrite, 100).expect("archive write fires") < 100);
            assert!(inject_io(FaultSite::ArchiveRot, 100).expect("archive rot fires") < 800);
            assert_eq!(inject_io(FaultSite::ArchiveFsync, 100), Some(0));
            assert_eq!(inject_io(FaultSite::Enospc, 100), Some(0));
        }
        let stats = fault_stats();
        for site in sites {
            assert_eq!(stats.injected(site), 32, "{site}");
        }
        assert_eq!(stats.total_injected(), 128);
        set_fault_plan(None);
        assert!(inject_io(FaultSite::ArchiveWrite, 100).is_none());
    }

    #[test]
    fn shard_faults_count_toward_the_total() {
        set_fault_plan(Some(FaultPlan::new(17).with(FaultSite::Shard, 1.0)));
        assert!(inject(FaultSite::Shard).is_some());
        let stats = fault_stats();
        assert_eq!(stats.injected(FaultSite::Shard), 1);
        assert_eq!(stats.total_injected(), 1);
        set_fault_plan(None);
    }

    /// Seed `0x5EED`, every rate 0.5, a fixed 240-roll script over every
    /// site through the public entry points (the thread plan's `inject`,
    /// `stage_boundary` and `inject_io`, and an owned plan's `roll`), with
    /// buffer lengths 0, 1 and 4096. Each roll folds its script position,
    /// whether it fired, and its parameter into one FNV-1a digest. The
    /// pinned value is the one the per-family roll paths this table
    /// replaced produced for the same script.
    #[test]
    fn every_site_replays_the_parent_stream() {
        const LENS: [usize; 3] = [0, 1, 4096];
        let plan = FaultSite::ALL
            .into_iter()
            .fold(FaultPlan::new(0x5EED), |p, site| p.with(site, 0.5))
            .with_latency(0.5, Duration::ZERO);
        set_fault_plan(Some(plan.clone()));
        let mut owned = plan;
        let mut bytes = Vec::new();
        let mut rolls = 0;
        for pass in 0..10usize {
            let mut tag = 0u8;
            let mut fold = |fired: Option<usize>| {
                bytes.push(tag);
                bytes.push(fired.is_some() as u8);
                bytes.extend_from_slice(&(fired.unwrap_or(0) as u64).to_le_bytes());
                tag += 1;
                rolls += 1;
            };
            let len = |step: usize| LENS[(pass + step) % 3];
            for site in [FaultSite::Query, FaultSite::IndexProbe, FaultSite::Shard] {
                fold(inject(site).map(|_| 0));
            }
            let before = fault_stats().injected(FaultSite::Latency);
            let panicked = std::panic::catch_unwind(|| stage_boundary("pinned")).is_err();
            fold((fault_stats().injected(FaultSite::Latency) > before).then_some(0));
            fold(panicked.then_some(0));
            let io_sites = [
                FaultSite::TornWrite,
                FaultSite::ShortWrite,
                FaultSite::FsyncFail,
                FaultSite::BitFlip,
                FaultSite::WalRot,
                FaultSite::CheckpointRot,
                FaultSite::ArchiveWrite,
                FaultSite::ArchiveRot,
                FaultSite::ArchiveFsync,
                FaultSite::Enospc,
            ];
            for (i, site) in io_sites.into_iter().enumerate() {
                fold(inject_io(site, len(i)));
            }
            for site in [
                FaultSite::NetDrop,
                FaultSite::NetDelay,
                FaultSite::NetReorder,
                FaultSite::NetDuplicate,
            ] {
                fold(owned.roll(site, 0));
            }
            let page_sites = [
                FaultSite::PageRead,
                FaultSite::PageWrite,
                FaultSite::PageFsync,
                FaultSite::PageRot,
                FaultSite::Enospc,
            ];
            for (i, site) in page_sites.into_iter().enumerate() {
                fold(owned.roll(site, len(i)));
            }
        }
        set_fault_plan(None);
        assert_eq!(rolls, 240);
        assert_eq!(bytes.chunks(10).filter(|roll| roll[1] == 1).count(), 125);
        assert_eq!(nebula_codec::fnv1a(nebula_codec::fnv1a::OFFSET, &bytes), 0xea28_8c6e_f14f_56fb);
    }

    #[test]
    fn degradation_displays() {
        let d = Degradation::FocalFallback { resource: Resource::TuplesInspected, k: 3 };
        assert_eq!(d.to_string(), "focal-fallback(tuples-inspected, k=3)");
        let t = Degradation::TruncatedConfigurations { dropped: 7 };
        assert_eq!(t.to_string(), "truncated-configurations(7)");
    }
}
