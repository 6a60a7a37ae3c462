//! Overload soak: a seeded 1000-annotation burst against a small queue,
//! tight budgets, injected faults, and per-item deadlines — then the two
//! ends of the arrival-rate axis (one unpaced burst, slow pacing) at one
//! and four workers.
//!
//! The invariant under test is full accounting under sustained overload:
//! every offered annotation ends in exactly one state — a terminal batch
//! status (accepted / pending / rejected / degraded / quarantined) or a
//! typed shed (queue-full / deadline / circuit-open) — the tallies add up
//! to the offered total, nothing panics, and the engine degrades or sheds
//! without ever declaring itself Wedged (only durability failures can do
//! that, and none are injected here).

use nebula::nebula_workload::{build_workload, WorkloadSpec};
use nebula::prelude::*;
use std::time::Duration;

/// `n` items cycled from the workload. With `hostile`, every fifth carries
/// a deadline tight enough that a backlog expires it, and priorities
/// alternate so all three admission classes see traffic.
fn items(bundle: &DatasetBundle, n: usize, hostile: bool) -> Vec<IngestItem> {
    let workload = build_workload(bundle, &WorkloadSpec::default(), 9);
    let source: Vec<_> =
        workload.iter().flat_map(|s| &s.annotations).filter(|wa| !wa.ideal.is_empty()).collect();
    assert!(!source.is_empty());
    (0..n)
        .map(|i| {
            let wa = source[i % source.len()];
            let mut item = IngestItem::new(wa.annotation.clone(), vec![wa.ideal[0]]);
            if !hostile {
                return item;
            }
            item = match i % 3 {
                0 => item.with_priority(Priority::Interactive),
                1 => item.with_priority(Priority::Normal),
                _ => item.with_priority(Priority::Background),
            };
            if i % 5 == 0 {
                item = item.with_deadline(Duration::from_millis(50));
            }
            item
        })
        .collect()
}

/// Offer `n` items to a fresh tight-budget engine under `config` and
/// `plan`, and assert what every configuration must keep: exactly-one-state
/// accounting, typed sheds, a bounded queue, and no wedge.
fn offer(n: usize, hostile: bool, config: &IngestConfig, plan: Option<FaultPlan>) -> IngestReport {
    let mut bundle = generate_dataset(&DatasetSpec::tiny(), 0x50AC);
    let items = items(&bundle, n, hostile);
    let mut nebula = Nebula::new(
        NebulaConfig {
            budget: ExecutionBudget::unbounded()
                .with_max_tuples(200)
                .with_max_configurations(4)
                .with_max_candidates(4),
            ..Default::default()
        },
        bundle.meta.clone(),
    );
    nebula.bootstrap_acg(&bundle.annotations);

    nebula::nebula_govern::set_fault_plan(plan);
    let report = ingest_batch(&mut nebula, &bundle.db, &mut bundle.annotations, &items, config);
    nebula::nebula_govern::set_fault_plan(None);

    // Exactly-one-state accounting.
    assert_eq!(report.total(), n, "offered = accounted");
    assert_eq!(report.batch.total() + report.sheds.len(), n);
    let b = &report.batch;
    assert_eq!(
        b.accepted + b.pending + b.rejected + b.degraded + b.quarantined,
        b.total(),
        "every executed item has exactly one terminal status"
    );
    // Entry indices and shed indices partition the input exactly.
    let mut seen = vec![0u8; n];
    for e in &b.entries {
        seen[e.index] += 1;
    }
    for s in &report.sheds {
        seen[s.index] += 1;
    }
    assert!(seen.iter().all(|&n| n == 1), "each input index appears exactly once");

    assert_ne!(report.health, HealthState::Wedged, "faults never wedge the engine");
    assert!(
        report.sheds.iter().all(|s| s.reason != ShedReason::Wedged),
        "no shed is attributed to a wedged engine"
    );
    assert!(report.queue_depth_peak <= config.queue_capacity, "the queue is bounded");
    report
}

#[test]
fn thousand_annotation_overload_soak_accounts_for_everything() {
    // CI's thread-count matrix pins the pool size via NEBULA_WORKERS.
    let workers = std::env::var("NEBULA_WORKERS")
        .ok()
        .and_then(|s| s.split(',').next().and_then(|t| t.trim().parse().ok()))
        .filter(|n| *n > 0)
        .unwrap_or(4);
    let config = IngestConfig {
        workers,
        queue_capacity: 16,
        admit_gap: Some(Duration::from_micros(100)),
        ..IngestConfig::default()
    };
    let plan = FaultPlan::uniform(0x50A, 0.2);
    let report = offer(1000, true, &config, Some(plan.clone()));

    // The overload actually happened and was survived.
    assert!(!report.sheds.is_empty(), "sustained overload sheds: {report:?}");
    assert!(report.batch.total() > 0, "the writer still made progress");
    assert!(report.p99_latency_ns() > 0, "latency was measured for executed items");

    for workers in [1usize, 4] {
        // One unpaced burst overflows a queue of eight at any pool size —
        // fault-free, and in the slow-service regime where half the stage
        // boundaries also stall a millisecond — and something still commits.
        let burst = IngestConfig { workers, queue_capacity: 8, ..IngestConfig::default() };
        let slow = plan.clone().with_latency(0.5, Duration::from_millis(1));
        for plan in [None, Some(slow)] {
            let report = offer(200, true, &burst, plan);
            assert!(!report.sheds.is_empty(), "burst must shed at {workers} worker(s)");
            assert!(report.p99_latency_ns() > 0, "something still commits: {report:?}");
        }
        // Fault-free arrivals paced far below the service rate never
        // sustain a backlog (a generous bound, not a wall-clock-exact zero).
        let paced = IngestConfig { admit_gap: Some(Duration::from_millis(10)), ..burst };
        let report = offer(40, false, &paced, None);
        assert!(report.shed_rate() < 0.25, "slow pacing barely sheds: {report:?}");
    }
}
