//! Sharded-engine invariants from the partition-tolerance tentpole.
//!
//! - **Keystone: shard-count independence.** For the same workload, the
//!   merged per-shard digest slices reassemble to a checkpoint image
//!   byte-identical to the unsharded engine's, at every shard count, and
//!   every per-annotation outcome (accepted / pending / rejected) is
//!   identical too.
//! - **Typed partial results.** A partitioned shard past its
//!   governed-clock deadline yields a `Degradation::PartialShards` note
//!   naming it — never a hang, panic, or silently complete answer — and
//!   trips only its own breaker. After heal + catch-up + scrub the
//!   cluster is byte-identical with an unsharded twin replayed from its
//!   own durable history.
//! - **Per-shard fault domains.** A wedged shard (tiny serving budget)
//!   degrades and trips its breaker while its siblings stay green, and
//!   the breaker re-arms once the shard recovers.
//! - **Failover and scrub.** An epoch-fenced promote rebuilds a failed
//!   shard from the durable history; anti-entropy scrub detects and
//!   repairs injected bit-rot before it can spread.

use nebula::nebula_core::{Nebula, NebulaConfig, ProcessOutcome, SearchMode};
use nebula::nebula_durable::checkpoint;
use nebula::nebula_govern::{Degradation, ExecutionBudget};
use nebula::nebula_ingest::BreakerState;
use nebula::nebula_shard::{NetProfile, ShardCluster, ShardConfig};
use nebula::nebula_workload::{build_workload, WorkloadSpec};
use nebula::prelude::*;

const DATASET_SEED: u64 = 0x5E_AC;
const WORKLOAD_SEED: u64 = 21;
/// Seed of the lossy fabric's fault stream.
const NET_SEED: u64 = 0xF00D;
/// Seed of the plan that makes the shard-layer fault sites fire.
const SHARD_FAULT_SEED: u64 = 0x5AAD;

/// Deterministic workload: real annotations with their first ideal tuple
/// as the focal attachment, cycled to `n` items.
fn workload_items(bundle: &DatasetBundle, n: usize) -> Vec<(Annotation, Vec<TupleId>)> {
    let workload = build_workload(bundle, &WorkloadSpec::default(), WORKLOAD_SEED);
    let source: Vec<_> =
        workload.iter().flat_map(|s| &s.annotations).filter(|wa| !wa.ideal.is_empty()).collect();
    assert!(!source.is_empty());
    (0..n)
        .map(|i| {
            let wa = source[i % source.len()];
            (wa.annotation.clone(), vec![wa.ideal[0]])
        })
        .collect()
}

/// Engine config pinned to full search so stage 2 exercises the
/// scatter-gather path (focal spreading is home-local by design).
fn engine_config() -> NebulaConfig {
    NebulaConfig { search_mode: SearchMode::Full, ..NebulaConfig::default() }
}

/// A fresh copy of the bundle's initial state (Database/AnnotationStore
/// are not Clone; the canonical checkpoint codec is the copy machine).
fn initial_state(bundle: &DatasetBundle) -> (Database, AnnotationStore) {
    let image = checkpoint::encode(0, &bundle.db, &bundle.annotations);
    let (_, db, store) = checkpoint::decode(&image).expect("genesis image decodes");
    (db, store)
}

/// The per-annotation decisions that must match across shard counts.
type Decisions = (Vec<(TupleId, f64)>, Vec<u64>, Vec<(TupleId, f64)>);

fn decisions(o: &ProcessOutcome) -> Decisions {
    (o.accepted.clone(), o.pending.clone(), o.rejected.clone())
}

#[test]
fn merged_digest_matches_unsharded_at_every_shard_count() {
    let bundle = generate_dataset(&DatasetSpec::tiny(), DATASET_SEED);
    let items = workload_items(&bundle, 32);

    // Unsharded reference run.
    let (db, mut store) = initial_state(&bundle);
    let mut engine = Nebula::new(engine_config(), bundle.meta.clone());
    engine.bootstrap_acg(&store);
    let mut reference_outcomes = Vec::new();
    for (annotation, focal) in &items {
        let outcome = engine
            .process_annotation(&db, &mut store, annotation, focal)
            .expect("reference pipeline");
        reference_outcomes.push(decisions(&outcome));
    }
    let reference_bytes = checkpoint::encode(0, &db, &store);

    for shards in [1usize, 2, 4] {
        let mut cluster = ShardCluster::new(
            &bundle.db,
            &bundle.annotations,
            &bundle.meta,
            &engine_config(),
            ShardConfig::new(shards),
        )
        .expect("cluster boots");
        let mut homes_used = std::collections::BTreeSet::new();
        let router = cluster.router();
        for ((annotation, focal), expected) in items.iter().zip(&reference_outcomes) {
            homes_used.insert(router.route(focal));
            let outcome = cluster.ingest(annotation, focal).expect("sharded pipeline");
            assert!(
                outcome.degradations.is_empty(),
                "clean run must not degrade: {:?}",
                outcome.degradations
            );
            assert_eq!(&decisions(&outcome), expected, "decision drift at {shards} shards");
        }
        if shards > 1 {
            assert!(
                homes_used.len() > 1,
                "workload must actually spread over shards, got {homes_used:?}"
            );
        }
        assert!(cluster.lagging().is_empty(), "reliable fabric leaves no lagging shard");
        assert!(cluster.divergent().is_empty());
        let merged = cluster.merged_checkpoint().expect("merged image");
        assert_eq!(
            merged, reference_bytes,
            "merged digest diverges from unsharded at {shards} shards"
        );
        // Per-shard slices are a real partition: every shard that served
        // as home contributes a distinct slice.
        let digests = cluster.slice_digests().expect("slice digests");
        assert_eq!(digests.len(), shards);
        // Scrub of a healthy cluster finds nothing to repair.
        let scrub = cluster.scrub().expect("scrub");
        assert_eq!(scrub.checked, shards);
        assert!(scrub.divergent.is_empty(), "healthy cluster must scrub clean");

        // The same workload over a lossy fabric: probes may time out and
        // applies are nacked and retried, so decisions may differ from
        // the clean run — but every annotation ingests, every shortfall
        // is a typed partial, and the durable history still replays to
        // the bytes the shards hold.
        let mut cluster = ShardCluster::new(
            &bundle.db,
            &bundle.annotations,
            &bundle.meta,
            &engine_config(),
            ShardConfig { net: Some(NetProfile::lossy(NET_SEED)), ..ShardConfig::new(shards) },
        )
        .expect("lossy cluster boots");
        for (annotation, focal) in &items {
            let outcome = cluster.ingest(annotation, focal).expect("lossy ingest never errors");
            partial_shards(&outcome);
        }
        if shards > 1 {
            let stats = cluster.transport_stats();
            assert!(stats.dropped > 0, "the fabric must actually lose frames: {stats:?}");
        }
        // A shard the bounded retry rounds left behind catches up on heal:
        // every pass resends the missed batches with fresh fault draws.
        for _ in 0..64 {
            for s in cluster.lagging() {
                cluster.heal_shard(s);
            }
        }
        assert!(cluster.lagging().is_empty(), "lossy fabric must drain at {shards} shards");
        assert_eq!(
            cluster.merged_checkpoint().expect("merged image"),
            cluster.rebuild_twin().expect("twin").checkpoint(),
            "lossy merged image diverges from its own history at {shards} shards"
        );
    }
}

/// The partial-result note of one outcome, `(answered, total, missing)`;
/// any other degradation is a failure.
fn partial_shards(o: &ProcessOutcome) -> Option<(usize, usize, Vec<usize>)> {
    let mut partial = None;
    for d in &o.degradations {
        match d {
            Degradation::PartialShards { answered, total, missing } => {
                partial = Some((*answered, *total, missing.clone()));
            }
            other => panic!("shard trouble must degrade to typed partials only, got {other:?}"),
        }
    }
    partial
}

#[test]
fn partitioned_shard_degrades_typed_then_heals_byte_identically() {
    // Once on a fault-free cluster, once with the shard-layer fault sites
    // live: a third of all probe servings answer `ok = false` and a third
    // of all boundary-edge applies are nacked and retried.
    for shard_faults in [None, Some(FaultPlan::new(SHARD_FAULT_SEED).with_shard(0.3))] {
        partition_scenario(shard_faults);
    }
}

fn partition_scenario(shard_faults: Option<FaultPlan>) {
    let faulty = shard_faults.is_some();
    let bundle = generate_dataset(&DatasetSpec::tiny(), DATASET_SEED);
    let items = workload_items(&bundle, 40);
    let shards = 3usize;
    let mut cluster = ShardCluster::new(
        &bundle.db,
        &bundle.annotations,
        &bundle.meta,
        &engine_config(),
        ShardConfig::new(shards),
    )
    .expect("cluster boots");
    let router = cluster.router();
    let victim = 2usize;
    nebula::nebula_obs::set_enabled(true);
    let apply_retries =
        || nebula::nebula_obs::snapshot().counters.get("shard.apply_retries").copied().unwrap_or(0);
    nebula::nebula_govern::set_fault_plan(shard_faults);

    // Warm up with a few annotations: clean without faults, typed partials
    // (a sibling's probe serving failed) with them.
    let mut cursor = items.iter();
    for (annotation, focal) in cursor.by_ref().take(6) {
        let o = cluster.ingest(annotation, focal).expect("warmup");
        assert!(faulty || o.degradations.is_empty());
        partial_shards(&o);
    }

    cluster.partition_shard(victim);

    // Annotations homed on a *healthy* shard must complete with a typed
    // partial result naming the dark shard — and, on a fault-free cluster,
    // only it.
    let mut processed = 0usize;
    let mut fell_back = false;
    for (annotation, focal) in cursor.by_ref().take(12) {
        let home = router.route(focal);
        let o = cluster.ingest(annotation, focal).expect("partitioned ingest never errors");
        processed += 1;
        if home == victim {
            // The router's choice was dark: a healthy shard took over.
            fell_back = true;
        }
        // Once the victim's breaker opens, probes are skipped but the
        // degradation note must still name it.
        let Some((answered, total, missing)) = partial_shards(&o) else {
            panic!("partitioned shard produced a silently-full result: {o:?}");
        };
        assert_eq!(total, shards);
        assert!(missing.contains(&victim), "the dark shard must be missing: {missing:?}");
        assert!(faulty || missing == [victim], "only the dark shard may be missing");
        assert_eq!(answered, shards - missing.len());
    }
    assert!(processed > 0);
    assert!(fell_back, "some annotation should have routed to the dark shard");

    // Fault domains: the victim's breaker tripped (it cycles between
    // Open and a shed-gated HalfOpen re-probe while the partition
    // persists); without injected probe faults its siblings stayed green.
    assert_ne!(cluster.breaker_state(victim), BreakerState::Closed);
    if !faulty {
        for s in (0..shards).filter(|&s| s != victim) {
            assert_eq!(cluster.breaker_state(s), BreakerState::Closed, "sibling {s} breaker moved");
        }
    }
    if faulty {
        // A nacked boundary apply may leave a healthy sibling behind too.
        assert!(cluster.lagging().contains(&victim));
    } else {
        assert_eq!(cluster.lagging(), vec![victim]);
    }

    // Heal: catch-up replays every missed batch — with the apply site
    // live, through nack and retry (no probe is served during a heal, so
    // every shard fault drawn here is a nacked apply). Then the plan is
    // cleared and one more exchange drains whatever the bounded rounds
    // left behind.
    let faults_before = nebula::nebula_govern::fault_stats().shard_faults;
    let retries_before = apply_retries();
    cluster.heal_shard(victim);
    if faulty {
        let nacked = nebula::nebula_govern::fault_stats().shard_faults - faults_before;
        assert!(faults_before > 0, "the shard sites must fire while the shard is dark too");
        assert!(nacked > 0, "catch-up applies must actually be nacked");
        assert!(apply_retries() > retries_before, "a nacked apply must be retried");
        nebula::nebula_govern::set_fault_plan(None);
        for s in cluster.lagging() {
            cluster.heal_shard(s);
        }
    }
    assert!(cluster.lagging().is_empty(), "healed shard must catch up");
    let scrub = cluster.scrub().expect("scrub");
    assert!(scrub.divergent.is_empty(), "catch-up must reconverge without repair");

    // Byte-identity with the unsharded twin replayed from the cluster's
    // own durable history — and the next annotation decides identically
    // on both.
    let mut twin = cluster.rebuild_twin().expect("twin");
    assert_eq!(cluster.merged_checkpoint().expect("merged"), twin.checkpoint());
    let (annotation, focal) = cursor.next().expect("workload remains");
    let cluster_outcome = cluster.ingest(annotation, focal).expect("post-heal ingest");
    assert!(cluster_outcome.degradations.is_empty(), "healed cluster must not degrade");
    let twin_outcome = twin.process(annotation, focal).expect("twin ingest");
    assert_eq!(decisions(&cluster_outcome), decisions(&twin_outcome));
    assert_eq!(cluster.merged_checkpoint().expect("merged"), twin.checkpoint());
}

#[test]
fn wedged_shard_trips_its_own_breaker_and_rearms() {
    let bundle = generate_dataset(&DatasetSpec::tiny(), DATASET_SEED);
    let items = workload_items(&bundle, 40);
    let shards = 2usize;
    let mut config = ShardConfig::new(shards);
    // Trip fast, re-arm fast: 2 consecutive misses open, 2 sheds re-probe.
    config.breaker =
        nebula::nebula_ingest::BreakerConfig { failure_threshold: 2, open_shed_count: 2 };
    let mut cluster =
        ShardCluster::new(&bundle.db, &bundle.annotations, &bundle.meta, &engine_config(), config)
            .expect("cluster boots");
    let router = cluster.router();
    let victim = 1usize;

    // Wedge the victim's probe serving: a budget so tight every search
    // trips it. The budget is the shard's own fault domain — the home's
    // pipeline budget is untouched.
    cluster.set_serve_budget(victim, ExecutionBudget::unbounded().with_max_tuples(1));

    let mut cursor = items.iter().filter(|(_, focal)| router.route(focal) != victim);
    let mut saw_partial = false;
    for (annotation, focal) in cursor.by_ref().take(6) {
        let o = cluster.ingest(annotation, focal).expect("wedged sibling never wedges home");
        let named = o.degradations.iter().any(
            |d| matches!(d, Degradation::PartialShards { missing, .. } if missing == &vec![victim]),
        );
        assert!(named, "wedged shard must be a typed partial miss: {:?}", o.degradations);
        saw_partial = true;
    }
    assert!(saw_partial);
    assert_eq!(cluster.breaker_state(victim), BreakerState::Open);
    for s in (0..shards).filter(|&s| s != victim) {
        assert_eq!(cluster.breaker_state(s), BreakerState::Closed);
    }

    // Recover the shard; the open breaker sheds a couple of probes, goes
    // half-open, and the first served probe closes it again.
    cluster.set_serve_budget(victim, ShardConfig::new(shards).serve_budget);
    let mut recovered = false;
    for (annotation, focal) in cursor.by_ref().take(8) {
        let o = cluster.ingest(annotation, focal).expect("recovery ingest");
        if o.degradations.is_empty() {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "breaker must re-arm after the shard recovers");
    assert_eq!(cluster.breaker_state(victim), BreakerState::Closed);

    // Replication kept flowing the whole time (applies are not probes):
    // the wedged phase must not have forked the replicas.
    let scrub = cluster.scrub().expect("scrub");
    assert!(scrub.divergent.is_empty());
    let twin = cluster.rebuild_twin().expect("twin");
    assert_eq!(cluster.merged_checkpoint().expect("merged"), twin.checkpoint());
}

#[test]
fn failover_rebuilds_under_new_epoch_and_bitrot_is_scrubbed() {
    let bundle = generate_dataset(&DatasetSpec::tiny(), DATASET_SEED);
    let items = workload_items(&bundle, 40);
    let shards = 4usize;
    let mut cluster = ShardCluster::new(
        &bundle.db,
        &bundle.annotations,
        &bundle.meta,
        &engine_config(),
        ShardConfig::new(shards),
    )
    .expect("cluster boots");
    let mut cursor = items.iter();
    for (annotation, focal) in cursor.by_ref().take(8) {
        cluster.ingest(annotation, focal).expect("warmup");
    }

    // Crash shard 1, keep ingesting (typed partials while it is dark),
    // then promote: the replacement replays the durable history under a
    // bumped fencing epoch.
    cluster.fail_shard(1);
    for (annotation, focal) in cursor.by_ref().take(4) {
        let o = cluster.ingest(annotation, focal).expect("ingest with failed shard");
        assert!(
            o.degradations.iter().any(|d| matches!(
                d,
                Degradation::PartialShards { missing, .. } if missing.contains(&1)
            )),
            "failed shard must surface as a typed partial"
        );
    }
    assert_eq!(cluster.epoch(), 0);
    cluster.promote_shard(1).expect("promote");
    assert_eq!(cluster.epoch(), 1);
    let health = cluster.health();
    assert!(health.iter().all(|h| h.epoch == 1), "promote re-fences every shard: {health:?}");
    assert!(health.iter().all(|h| !h.failed));
    assert!(
        health.iter().all(|h| h.applied_seq == cluster.log_len() as u64),
        "promoted shard must replay the full history: {health:?}"
    );

    // Back to full answers, still byte-identical with the twin.
    let (annotation, focal) = cursor.next().expect("workload remains");
    let o = cluster.ingest(annotation, focal).expect("post-promote ingest");
    assert!(o.degradations.is_empty(), "rebuilt shard must serve probes: {:?}", o.degradations);
    let twin = cluster.rebuild_twin().expect("twin");
    assert_eq!(cluster.merged_checkpoint().expect("merged"), twin.checkpoint());

    // Silent single-shard bit-rot: detected by the next scrub, repaired
    // from the durable history, and invisible afterwards.
    cluster.corrupt_shard(2).expect("corrupt");
    let scrub = cluster.scrub().expect("scrub");
    assert_eq!(scrub.divergent, vec![2], "scrub must localize the rot");
    assert_eq!(scrub.repaired, vec![2]);
    let scrub2 = cluster.scrub().expect("second scrub");
    assert!(scrub2.divergent.is_empty(), "repair must stick");
    assert_eq!(cluster.merged_checkpoint().expect("merged"), twin.checkpoint());
}
