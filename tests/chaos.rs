//! The deterministic chaos nemesis soak.
//!
//! [`nebula::nebula_replica::compose_schedule`] composes a seeded,
//! self-closing schedule that interleaves every fault dimension the stack
//! owns — ingest bursts (overload), network partitions, in-memory replica
//! corruption, on-disk bit-rot, failovers, and rejoins — and this driver
//! executes it against a live engine + ingest front end + replicated
//! cluster.
//! The acceptance bar from the self-healing tentpole:
//!
//! - **≥ 500 annotations per seed**, every one accounted for exactly once
//!   (zero sheds, every offered item executed);
//! - **every injected bit-rot detected** by the very next scrub — before
//!   any checkpoint could paper over it — and healed from shadow state;
//! - **zero fenced-forever replicas** (every deposed primary rejoins) and
//!   **zero permanently-Wedged ingest** (no batch ends wedged);
//! - **byte-identical reconvergence**: after the schedule drains, the live
//!   engine state, the primary's shadow, every replica, and a cold
//!   recovery from the primary's durability directory all serialize to
//!   the same checkpoint image, with each LSN applied exactly once.
//!
//! Same seed, same schedule, same verdict — a red run replays exactly.

use nebula::nebula_backup::{
    create_bundle, inject_rot as inject_archive_rot, restore as restore_bundle,
    scrub as scrub_bundle, verify_bundle, BundleSpec,
};
use nebula::nebula_durable::{checkpoint, inject_rot, Durability};
use nebula::nebula_govern::set_fault_plan;
use nebula::nebula_replica::{
    compose_schedule, compose_schedule_with_backup, compose_schedule_with_disk,
    compose_schedule_with_shards, flagged_replicas, NemesisEvent,
};
use nebula::nebula_workload::{build_workload, WorkloadSpec};
use nebula::prelude::*;
use std::path::{Path, PathBuf};

const REPLICAS: usize = 2;
const OPS: u64 = 500;
const SEEDS: [u64; 3] = [0xF00D, 0xBAD5EED, 12345];

/// The primary's media artifacts (WAL and checkpoints) a cluster scrub
/// found corrupt.
fn media(report: &ScrubReport) -> Vec<Artifact> {
    let all = report.corrupt_artifacts().into_iter();
    all.filter(|a| matches!(a, Artifact::Wal | Artifact::Checkpoint(_))).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nebula-chaos-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Canonical state bytes: the checkpoint image at a fixed watermark, so
/// only state differences can distinguish two nodes.
fn state_bytes(db: &nebula::relstore::Database, store: &AnnotationStore) -> Vec<u8> {
    checkpoint::encode(0, db, store)
}

#[test]
fn nemesis_soak_reconverges_byte_identically_for_each_seed() {
    // Disruption totals across all seeds: the suite as a whole must
    // exercise every chaos dimension, even if one seed happens to skip one.
    let mut dims = (0usize, 0usize, 0usize, 0usize, 0usize);

    for seed in SEEDS {
        let plan = compose_schedule(seed, REPLICAS, OPS);
        let (p, c, r, f, b) = plan.disruption_counts();
        dims = (dims.0 + p, dims.1 + c, dims.2 + r, dims.3 + f, dims.4 + b);

        // The same workload shape as the replication soak: real annotations
        // from the generated dataset, cycled up to the schedule's total.
        let bundle = generate_dataset(&DatasetSpec::tiny(), 0x5E_AC);
        let workload = build_workload(&bundle, &WorkloadSpec::default(), 21);
        let source: Vec<_> = workload
            .iter()
            .flat_map(|s| &s.annotations)
            .filter(|wa| !wa.ideal.is_empty())
            .collect();
        assert!(!source.is_empty());
        let items: Vec<IngestItem> = (0..OPS as usize)
            .map(|i| {
                let wa = source[i % source.len()];
                IngestItem::new(wa.annotation.clone(), vec![wa.ideal[0]])
            })
            .collect();

        let mut bundle = bundle;
        let mut nebula = Nebula::new(NebulaConfig::default(), bundle.meta.clone());
        nebula.bootstrap_acg(&bundle.annotations);

        let dir = temp_dir(&format!("soak-{seed:x}"));
        let cluster = Cluster::new(
            &dir,
            &bundle.db,
            &bundle.annotations,
            REPLICAS,
            Box::new(SimTransport::reliable(3)),
            ClusterConfig::default(),
        )
        .expect("fresh cluster directory");
        let sink = ClusterSink::new(cluster);
        let handle = sink.handle();
        nebula.set_mutation_sink(Some(Box::new(sink)));

        // A non-shedding pool: the nemesis supplies the chaos, so any shed
        // or wedge here is a real loss, not configured pressure.
        let ingest = IngestConfig::deterministic(1, OPS as usize);

        let mut next = 0usize; // cursor into `items`
        let mut executed = 0usize;
        let mut rot_injections = 0usize;
        let mut rot_detections = 0usize;
        let mut rot_pending = false;
        let mut partitioned: Option<usize> = None;

        for event in &plan.events {
            match *event {
                // Overload bursts ride the same path: the deterministic
                // pool's capacity covers the burst, so nothing sheds and
                // the pressure lands on the cluster underneath.
                NemesisEvent::Ingest(n) | NemesisEvent::Burst(n) => {
                    let n = n as usize;
                    let slice = &items[next..next + n];
                    next += n;
                    let report = ingest_batch(
                        &mut nebula,
                        &bundle.db,
                        &mut bundle.annotations,
                        slice,
                        &ingest,
                    );
                    assert!(
                        report.sheds.is_empty(),
                        "seed {seed:#x}: no annotation shed: {:?}",
                        report.sheds
                    );
                    assert_ne!(
                        report.health,
                        HealthState::Wedged,
                        "seed {seed:#x}: no batch ends permanently wedged"
                    );
                    assert_eq!(report.batch.total(), n, "seed {seed:#x}: every offered item ran");
                    executed += report.batch.total();
                }
                NemesisEvent::Partition { node } => {
                    handle.lock().set_partitioned(node, true);
                    partitioned = Some(node);
                }
                NemesisEvent::Heal { node } => {
                    handle.lock().set_partitioned(node, false);
                    partitioned = None;
                }
                // The target may currently be the primary or a deposed
                // node — corruption then has no replica surface to poison.
                NemesisEvent::Corrupt { replica } => {
                    let _ = handle.lock().chaos_corrupt_replica(replica);
                }
                NemesisEvent::BitRot => {
                    let wal_dir = handle.lock().primary().wal().dir().to_path_buf();
                    // Arm the rot plan only around inject_rot, so no ingest
                    // or cluster draw sees it.
                    set_fault_plan(Some(
                        FaultPlan::new(seed.wrapping_add(rot_injections as u64))
                            .with(FaultSite::WalRot, 1.0)
                            .with(FaultSite::CheckpointRot, 1.0),
                    ));
                    let rot = inject_rot(&wal_dir).expect("rot injection");
                    set_fault_plan(None);
                    if !rot.is_empty() {
                        rot_injections += 1;
                        rot_pending = true;
                    }
                }
                NemesisEvent::Scrub => {
                    let mut cluster = handle.lock();
                    let summary = cluster.scrub();
                    if rot_pending {
                        // The composer schedules a scrub immediately after
                        // every rot — no checkpoint runs in between, so
                        // this is the "before the next checkpoint" gate.
                        assert!(
                            !media(&summary).is_empty(),
                            "seed {seed:#x}: injected rot detected before the next checkpoint"
                        );
                        assert_eq!(
                            summary.healed,
                            media(&summary),
                            "seed {seed:#x}: rot healed from shadow"
                        );
                        rot_detections += 1;
                        rot_pending = false;
                    }
                    for id in flagged_replicas(&summary) {
                        let out = cluster.repair_replica(id).expect("repair");
                        if partitioned != Some(id) {
                            assert!(out.converged, "seed {seed:#x}: repair of replica {id}");
                        }
                    }
                }
                NemesisEvent::Failover => {
                    let mut cluster = handle.lock();
                    // Quiesce first: every live replica acks the full log,
                    // so promotion preserves the live engine's state and
                    // the engine never has to roll back.
                    let last = cluster.primary().last_lsn();
                    let mut rounds = 0;
                    while cluster.primary().min_acked() < last && rounds < 20_000 {
                        cluster.pump(1);
                        rounds += 1;
                    }
                    assert!(
                        cluster.primary().min_acked() >= last,
                        "seed {seed:#x}: quiesce before failover ({})",
                        cluster.describe_transport()
                    );
                    if let Some(target) = cluster.best_failover_candidate() {
                        cluster.promote(target).expect("promotion");
                    }
                }
                NemesisEvent::Rejoin => {
                    let mut cluster = handle.lock();
                    for node in cluster.deposed_nodes() {
                        let epoch = cluster.primary().epoch();
                        let out = cluster.rejoin(node).expect("rejoin");
                        assert_eq!(out.epoch, epoch, "seed {seed:#x}: rejoined the live epoch");
                        if partitioned != Some(node) {
                            assert!(out.converged, "seed {seed:#x}: rejoin of node {node}");
                        }
                    }
                }
                // Unsharded, disk-off, backup-off schedules compose no
                // shard, disk, or backup events.
                NemesisEvent::ShardPartition { .. }
                | NemesisEvent::ShardHeal { .. }
                | NemesisEvent::ShardBitRot { .. }
                | NemesisEvent::ShardFailover { .. }
                | NemesisEvent::PageRot
                | NemesisEvent::PageFsyncFail
                | NemesisEvent::EvictStorm
                | NemesisEvent::Backup
                | NemesisEvent::ArchiveRot
                | NemesisEvent::BackupScrub
                | NemesisEvent::RestoreCheck => {
                    unreachable!("seed {seed:#x}: shard/disk/backup event in a core schedule")
                }
            }
        }

        // Exactly-once offering: the schedule carried every annotation,
        // and every one executed (nothing shed, nothing double-offered).
        assert_eq!(next, OPS as usize, "seed {seed:#x}: the schedule offered all {OPS} items");
        assert_eq!(executed, OPS as usize, "seed {seed:#x}: all {OPS} items executed");
        // 100% scrub detection of whatever rot the schedule injected.
        assert_eq!(
            rot_detections, rot_injections,
            "seed {seed:#x}: the scrubber caught every injected rot"
        );

        // Drain and take stock: the final ingest may still be in flight to
        // the replicas; converge within a bounded pump budget.
        drop(nebula.take_mutation_sink());
        let mut cluster = handle.lock();
        let last = cluster.primary().last_lsn();
        let mut rounds = 0;
        while cluster.primary().min_acked() < last && rounds < 20_000 {
            cluster.pump(1);
            rounds += 1;
        }
        assert!(
            cluster.primary().min_acked() >= last,
            "seed {seed:#x}: final drain converged ({})",
            cluster.describe_transport()
        );

        // At rest everything is clean: media, ladders, membership.
        let final_scrub = cluster.scrub();
        assert!(media(&final_scrub).is_empty(), "seed {seed:#x}: media clean at rest");
        assert!(flagged_replicas(&final_scrub).is_empty(), "seed {seed:#x}: no divergence at rest");
        assert!(cluster.pending_repairs().is_empty(), "seed {seed:#x}: nothing pending");
        assert_eq!(
            cluster.deposed_nodes(),
            Vec::<usize>::new(),
            "seed {seed:#x}: zero fenced-forever nodes"
        );
        assert_eq!(cluster.replicas().len(), REPLICAS, "seed {seed:#x}: full membership");

        // Byte-identical reconvergence: live engine == primary shadow ==
        // every replica, with each LSN applied exactly once.
        let want = state_bytes(&bundle.db, &bundle.annotations);
        let (pdb, pstore) = cluster.primary().shadow();
        assert_eq!(state_bytes(pdb, pstore), want, "seed {seed:#x}: primary == live engine");
        assert_eq!(
            pstore.annotation_count(),
            bundle.annotations.annotation_count(),
            "seed {seed:#x}: annotation census agrees"
        );
        let want_digest = cluster.primary().shadow_digest();
        for r in cluster.replicas() {
            assert!(!r.is_wedged(), "seed {seed:#x}: replica {}", r.id());
            assert_eq!(r.applied(), last, "seed {seed:#x}: replica {}", r.id());
            assert_eq!(r.digest(), want_digest, "seed {seed:#x}: replica {}", r.id());
            assert_eq!(
                state_bytes(r.db(), r.store()),
                want,
                "seed {seed:#x}: replica {} bytes",
                r.id()
            );
            // Lifetime replay accounting: a repaired replica legitimately
            // re-applies rewound LSNs (counted once as replay, once via
            // the resync checkpoint), so the lifetime counters bound
            // `applied` from above; the byte-identity asserts carry the
            // exactly-once-in-state claim.
            assert!(
                r.records_replayed() + r.applied_via_checkpoint() >= r.applied(),
                "seed {seed:#x}: replica {} lifetime counters cover every applied LSN",
                r.id()
            );
        }

        // And a cold restart agrees: recovery from the primary's healed
        // durability directory reproduces the same bytes.
        let wal_dir = cluster.primary().wal().dir().to_path_buf();
        drop(cluster);
        drop(handle);
        let (resumed, recovered) =
            Durability::resume(&wal_dir, DurabilityOptions::default()).expect("resume");
        assert_eq!(
            state_bytes(&recovered.db, &recovered.store),
            want,
            "seed {seed:#x}: cold recovery agrees byte-for-byte"
        );
        drop(resumed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The three seeds together exercised every chaos dimension.
    let (partitions, corruptions, rots, failovers, bursts) = dims;
    assert!(partitions > 0, "no partitions across the seed suite");
    assert!(corruptions > 0, "no corruptions across the seed suite");
    assert!(rots > 0, "no bit-rot across the seed suite");
    assert!(failovers > 0, "no failovers across the seed suite");
    assert!(bursts > 0, "no bursts across the seed suite");
}

/// `NEBULA_FAULT_SEED` pins the sharded soak's schedule seed (hex with a
/// `0x` prefix or decimal); CI sweeps 0xF00D and 0xBAD5EED.
fn fault_seed() -> u64 {
    std::env::var("NEBULA_FAULT_SEED")
        .ok()
        .and_then(|s| {
            let t = s.trim();
            match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => t.parse().ok(),
            }
        })
        .unwrap_or(0xF00D)
}

/// `NEBULA_SHARDS` pins the sharded soak's shard count; CI sweeps 1/2/4.
fn shard_count() -> usize {
    std::env::var("NEBULA_SHARDS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|n| *n > 0)
        .unwrap_or(3)
}

/// The fixed-seed sharded soak: the same nemesis composer, pointed at the
/// scatter-gather cluster. Shard partitions degrade ingest to typed
/// partial results (never an error), heals replay the missed batches,
/// single-shard bit-rot is localized and repaired by the adjacent scrub,
/// and shard failovers rebuild under a bumped fencing epoch. At the end
/// the merged image is byte-identical to an unsharded twin replayed from
/// the cluster's own durable history.
#[test]
fn sharded_nemesis_soak_reconverges_byte_identically() {
    const SHARD_OPS: u64 = 240;
    let seed = fault_seed();
    let shards = shard_count();
    let plan = compose_schedule_with_shards(seed, 0, shards, SHARD_OPS);
    let (shard_partitions, shard_rots, shard_failovers) = plan.shard_disruption_counts();
    if matches!(seed, 0xF00D | 0xBAD5EED) && shards > 1 {
        // The CI seeds are known to disrupt the shard dimension at this
        // length (at shards > 1, where partitions compose); an arbitrary
        // seed — or a single-shard schedule — may come out calm.
        assert!(
            shard_partitions + shard_rots + shard_failovers > 0,
            "seed {seed:#x}: the schedule must disrupt the shard dimension"
        );
    }

    let bundle = generate_dataset(&DatasetSpec::tiny(), 0x5E_AC);
    let workload = build_workload(&bundle, &WorkloadSpec::default(), 21);
    let source: Vec<_> =
        workload.iter().flat_map(|s| &s.annotations).filter(|wa| !wa.ideal.is_empty()).collect();
    assert!(!source.is_empty());

    let mut cluster = ShardCluster::new(
        &bundle.db,
        &bundle.annotations,
        &bundle.meta,
        &NebulaConfig { search_mode: SearchMode::Full, ..NebulaConfig::default() },
        ShardConfig::new(shards),
    )
    .expect("cluster boots");

    let mut next = 0usize;
    let mut dark: Option<usize> = None;
    // A healed shard keeps degrading (typed!) until its breaker re-arms
    // through the half-open probe; track it until the first clean result.
    let mut recovering: Option<usize> = None;
    let mut rot_pending: Option<usize> = None;
    let mut failovers_run = 0u64;
    for event in &plan.events {
        match *event {
            NemesisEvent::Ingest(n) | NemesisEvent::Burst(n) => {
                for _ in 0..n {
                    let wa = source[next % source.len()];
                    next += 1;
                    let outcome = cluster
                        .ingest(&wa.annotation, &[wa.ideal[0]])
                        .expect("seed {seed:#x}: ingest survives every disruption");
                    if let Some(d) = dark {
                        // A dark shard may only ever surface as a typed
                        // partial naming it — never a silent omission.
                        for deg in &outcome.degradations {
                            if let Degradation::PartialShards { missing, .. } = deg {
                                assert_eq!(
                                    missing,
                                    &vec![d],
                                    "seed {seed:#x}: partial names the dark shard"
                                );
                            }
                        }
                    } else if let Some(r) = recovering {
                        if cluster.breaker_state(r) == nebula::nebula_ingest::BreakerState::Closed
                            && outcome.degradations.is_empty()
                        {
                            recovering = None;
                        } else {
                            for deg in &outcome.degradations {
                                assert!(
                                    matches!(
                                        deg,
                                        Degradation::PartialShards { missing, .. }
                                            if missing == &vec![r]
                                    ),
                                    "seed {seed:#x}: re-arming shard {r}: {deg}"
                                );
                            }
                        }
                    } else {
                        assert!(
                            outcome.degradations.is_empty(),
                            "seed {seed:#x}: healthy cluster degraded: {:?}",
                            outcome.degradations
                        );
                    }
                }
            }
            NemesisEvent::ShardPartition { shard } => {
                cluster.partition_shard(shard);
                dark = Some(shard);
            }
            NemesisEvent::ShardHeal { shard } => {
                cluster.heal_shard(shard);
                dark = None;
                recovering = Some(shard);
                assert!(
                    cluster.lagging().is_empty(),
                    "seed {seed:#x}: healed shard {shard} caught up"
                );
            }
            NemesisEvent::ShardBitRot { shard } => {
                cluster.corrupt_shard(shard).expect("bit-rot injection");
                rot_pending = Some(shard);
            }
            NemesisEvent::Scrub => {
                let outcome = cluster.scrub().expect("scrub");
                if let Some(shard) = rot_pending.take() {
                    // The composer schedules the scrub adjacent to the
                    // rot: detection is before the rot can spread.
                    assert_eq!(
                        outcome.corrupt_artifacts(),
                        vec![Artifact::Shard(shard)],
                        "seed {seed:#x}: scrub localizes the rot"
                    );
                    assert_eq!(
                        outcome.healed,
                        vec![Artifact::Shard(shard)],
                        "seed {seed:#x}: scrub repairs the rot"
                    );
                } else {
                    assert!(
                        outcome.is_clean(),
                        "seed {seed:#x}: spontaneous divergence: {outcome}"
                    );
                }
            }
            NemesisEvent::ShardFailover { shard } => {
                cluster.fail_shard(shard);
                cluster.promote_shard(shard).expect("failover");
                if recovering == Some(shard) {
                    // The promoted replacement starts with a fresh breaker.
                    recovering = None;
                }
                failovers_run += 1;
                assert_eq!(cluster.epoch(), failovers_run, "seed {seed:#x}: epoch fences forward");
            }
            // Replica-, disk-, and backup-dimension events; a shard
            // cluster has no replica set, durability directory, page
            // file, or archive here, so these are calm stretches.
            NemesisEvent::Partition { .. }
            | NemesisEvent::Heal { .. }
            | NemesisEvent::Corrupt { .. }
            | NemesisEvent::BitRot
            | NemesisEvent::Failover
            | NemesisEvent::Rejoin
            | NemesisEvent::PageRot
            | NemesisEvent::PageFsyncFail
            | NemesisEvent::EvictStorm
            | NemesisEvent::Backup
            | NemesisEvent::ArchiveRot
            | NemesisEvent::BackupScrub
            | NemesisEvent::RestoreCheck => {}
        }
    }

    assert_eq!(next as u64, SHARD_OPS, "seed {seed:#x}: the schedule offered every item");
    assert!(cluster.lagging().is_empty(), "seed {seed:#x}: nothing lagging at rest");
    assert!(cluster.divergent().is_empty(), "seed {seed:#x}: nothing divergent at rest");
    let final_scrub = cluster.scrub().expect("final scrub");
    assert!(final_scrub.is_clean(), "seed {seed:#x}: clean at rest");
    for h in cluster.health() {
        assert!(h.healthy(), "seed {seed:#x}: unhealthy at rest: {h}");
        assert_eq!(h.epoch, failovers_run, "seed {seed:#x}: every shard on the final epoch");
    }

    // Byte-identical reconvergence with the unsharded twin replayed from
    // the cluster's own durable history.
    let twin = cluster.rebuild_twin().expect("twin");
    assert_eq!(
        cluster.merged_checkpoint().expect("merged image"),
        twin.checkpoint(),
        "seed {seed:#x}: merged shards == unsharded twin"
    );
}

/// The fixed-seed paged-storage soak: the same nemesis composer with the
/// disk dimension armed, pointed at a `Database` whose rows and postings
/// live in a checksummed page file behind a 4-frame buffer pool (far
/// smaller than the file, so the clock hand churns constantly). A RAM
/// twin replays the identical mutation stream; the acceptance bar:
///
/// - **every injected page rot detected** by the very next scrub, with
///   zero false positives, and **healed in place** (single-bit rot
///   corrects via CRC linearity — no data degrades);
/// - **fsync-failed shadow commits lose nothing**: the old image stays
///   intact and the retry after the plan clears lands every page;
/// - **eviction storms stay byte-correct**: sweeping every live row
///   through the tiny pool returns exactly the RAM twin's bytes;
/// - at rest the paged database fingerprints identically to the RAM
///   twin, the file scrubs clean, and a cold reopen scrubs clean too.
#[test]
fn paged_nemesis_soak_matches_ram_twin_byte_for_byte() {
    use nebula::relstore::{snapshot, DataType, Database, TableSchema, TupleId, Value};

    const PAGED_OPS: u64 = 600;
    let seed = fault_seed();
    let plan = compose_schedule_with_disk(seed, 0, 0, true, PAGED_OPS);
    assert!(plan.disk);
    let (page_rots, fsync_fails, evict_storms) = plan.disk_disruption_counts();
    assert!(page_rots > 0, "seed {seed:#x}: no page rot composed");
    assert!(fsync_fails > 0, "seed {seed:#x}: no fsync failures composed");
    assert!(evict_storms > 0, "seed {seed:#x}: no eviction storms composed");

    let dir = temp_dir(&format!("paged-soak-{seed:x}"));
    std::fs::create_dir_all(&dir).expect("soak directory");
    let store = PagedStorage::open(&dir, 4).expect("paged store");
    let mut paged = Database::with_storage(std::sync::Arc::new(store.clone()));
    let mut mem = Database::new();

    let schema = || {
        TableSchema::builder("notes")
            .column("id", DataType::Int)
            .column("body", DataType::Text)
            .primary_key("id")
            .build()
            .expect("schema")
    };
    paged.create_table(schema()).expect("paged table");
    mem.create_table(schema()).expect("mem table");

    // xorshift64* — the composer's generator, reseeded for the mutation
    // stream so both databases replay the identical op sequence.
    let mut rng_state: u64 = seed ^ 0xA5A5_5A5A_F00D_BEEF;
    let mut next_rng = move || {
        let mut x = rng_state.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };

    let mut live: Vec<TupleId> = Vec::new();
    let mut next_id = 0i64;
    let mut rot_pending = false;
    let mut rot_detections = 0usize;
    let mut rot_injections = 0usize;

    for event in &plan.events {
        match *event {
            NemesisEvent::Ingest(n) | NemesisEvent::Burst(n) => {
                for _ in 0..n {
                    let roll = next_rng();
                    match roll % 10 {
                        0 if !live.is_empty() => {
                            let tid = live.swap_remove((next_rng() % live.len() as u64) as usize);
                            assert!(paged.delete(tid), "seed {seed:#x}: paged delete {tid:?}");
                            assert!(mem.delete(tid), "seed {seed:#x}: mem delete {tid:?}");
                        }
                        1 | 2 if !live.is_empty() => {
                            let tid = live[(next_rng() % live.len() as u64) as usize];
                            let id = match paged.get(tid).and_then(|t| t.get_by_name("id").cloned())
                            {
                                Some(Value::Int(v)) => v,
                                other => panic!("seed {seed:#x}: lost id column: {other:?}"),
                            };
                            let body = Value::text(format!("rewritten {id} pass {roll}"));
                            paged
                                .update(tid, vec![Value::Int(id), body.clone()])
                                .expect("paged update");
                            mem.update(tid, vec![Value::Int(id), body]).expect("mem update");
                        }
                        _ => {
                            let id = next_id;
                            next_id += 1;
                            // Every 11th record overflows a page, driving
                            // the chain-spill path under eviction.
                            let body = if id % 11 == 0 {
                                format!("large zebra {id} {}", "x".repeat(6000))
                            } else {
                                format!("note body {id} zebra")
                            };
                            let a = paged
                                .insert("notes", vec![Value::Int(id), Value::text(body.clone())])
                                .expect("paged insert");
                            let b = mem
                                .insert("notes", vec![Value::Int(id), Value::text(body)])
                                .expect("mem insert");
                            assert_eq!(a, b, "seed {seed:#x}: tuple ids identical");
                            live.push(a);
                        }
                    }
                }
            }
            NemesisEvent::PageRot => {
                // Flush first so the rot lands on a durable page the next
                // flush cannot paper over.
                store.flush_pages().expect("flush before rot");
                if store.metrics().page_count > 1 {
                    store.set_fault_plan(Some(
                        FaultPlan::new(seed.wrapping_add(rot_injections as u64))
                            .with(FaultSite::PageRot, 1.0),
                    ));
                    let hit = store.inject_rot().expect("rot injection");
                    store.set_fault_plan(None);
                    if hit.is_some() {
                        rot_injections += 1;
                        rot_pending = true;
                    }
                }
            }
            NemesisEvent::Scrub => {
                let report = store.scrub().expect("scrub");
                if rot_pending {
                    assert!(
                        !report.is_clean(),
                        "seed {seed:#x}: injected page rot detected by the very next scrub"
                    );
                    let healed = store.repair().expect("repair");
                    assert!(healed.is_clean(), "seed {seed:#x}: single-bit rot heals in place");
                    assert!(store.scrub().expect("re-scrub").is_clean());
                    rot_detections += 1;
                    rot_pending = false;
                } else {
                    assert!(
                        report.is_clean(),
                        "seed {seed:#x}: zero false positives: {:?}",
                        report.corrupt
                    );
                }
            }
            NemesisEvent::PageFsyncFail => {
                // Guarantee a dirty page so the commit actually reaches
                // the failing fsync.
                let id = next_id;
                next_id += 1;
                let body = Value::text(format!("fsync probe {id} zebra"));
                let a = paged
                    .insert("notes", vec![Value::Int(id), body.clone()])
                    .expect("paged insert");
                let b = mem.insert("notes", vec![Value::Int(id), body]).expect("mem insert");
                assert_eq!(a, b);
                live.push(a);
                store.set_fault_plan(Some(
                    FaultPlan::new(seed ^ next_id as u64).with(FaultSite::PageFsync, 1.0),
                ));
                let denied = store.flush_pages();
                store.set_fault_plan(None);
                assert!(denied.is_err(), "seed {seed:#x}: armed fsync fault must surface");
                // The failed shadow commit left the old image intact...
                assert!(store.scrub().expect("post-failure scrub").is_clean());
                // ...and the retry lands every page.
                store.flush_pages().expect("retry after the plan clears");
                assert!(store.scrub().expect("post-retry scrub").is_clean());
            }
            NemesisEvent::EvictStorm => {
                for tid in &live {
                    assert_eq!(
                        paged.get(*tid),
                        mem.get(*tid),
                        "seed {seed:#x}: byte-correct under eviction churn at {tid:?}"
                    );
                }
            }
            // No replicas, shards, or archive in this soak: the composer
            // still emits core failover/rot beats, which have no surface
            // here.
            NemesisEvent::Partition { .. }
            | NemesisEvent::Heal { .. }
            | NemesisEvent::Corrupt { .. }
            | NemesisEvent::BitRot
            | NemesisEvent::Failover
            | NemesisEvent::Rejoin
            | NemesisEvent::ShardPartition { .. }
            | NemesisEvent::ShardHeal { .. }
            | NemesisEvent::ShardBitRot { .. }
            | NemesisEvent::ShardFailover { .. }
            | NemesisEvent::Backup
            | NemesisEvent::ArchiveRot
            | NemesisEvent::BackupScrub
            | NemesisEvent::RestoreCheck => {}
        }
    }

    assert_eq!(
        rot_detections, rot_injections,
        "seed {seed:#x}: the scrubber caught every injected page rot"
    );
    assert!(rot_injections > 0, "seed {seed:#x}: the soak injected real page rot");

    // At rest: paged == RAM twin, file clean, pool actually churned.
    assert_eq!(
        snapshot::fingerprint(&paged),
        snapshot::fingerprint(&mem),
        "seed {seed:#x}: paged database fingerprints identically to the RAM twin"
    );
    for token in ["zebra", "rewritten"] {
        assert_eq!(
            mem.inverted_index().lookup(token).to_vec(),
            paged.inverted_index().lookup(token).to_vec(),
            "seed {seed:#x}: postings identical for {token:?}"
        );
    }
    store.flush_pages().expect("final flush");
    assert!(store.scrub().expect("final scrub").is_clean());
    let m = store.metrics();
    assert!(
        m.pool.evictions > 0,
        "seed {seed:#x}: a 4-frame pool under {} pages must evict",
        m.page_count
    );
    assert!(m.page_count as usize > 4, "seed {seed:#x}: the file outgrew the pool");

    // A cold reopen of the same directory recovers and scrubs clean.
    drop(paged);
    drop(store);
    let reopened = PagedStorage::open(&dir, 4).expect("cold reopen");
    assert!(reopened.scrub().expect("reopen scrub").is_clean());
    assert!(reopened.metrics().page_count > 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shallow-copy a bundle directory (bundles are flat).
fn copy_bundle(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("scratch dir");
    for entry in std::fs::read_dir(src).expect("read bundle") {
        let entry = entry.expect("bundle entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy bundle file");
    }
}

/// The disaster-recovery soak: the composer's backup dimension armed
/// against a live replicated cluster with WAL archiving on. Every
/// `Backup` captures a verified bundle mid-chaos and remembers the
/// primary's shadow bytes at that LSN; every `ArchiveRot` flips real bits
/// in a sacrificial copy of the newest bundle; the following
/// `BackupScrub` must report exactly the files that were damaged (100%
/// detection) while the pristine bundle scrubs clean (zero false
/// positives); every `RestoreCheck` rebuilds a store from the pristine
/// bundle and proves it byte-identical to the shadow snapshot — verified
/// point-in-time recovery holding under partitions, replica corruption,
/// WAL bit-rot, and epoch-fenced failovers.
#[test]
fn backup_nemesis_soak_restores_byte_identically_mid_chaos() {
    // Per-seed schedules may skip a slot; the seed suite as a whole must
    // exercise every backup beat.
    let mut dims = (0usize, 0usize, 0usize, 0usize);

    for seed in [0xBAD5EEDu64, 0xDEAD] {
        let plan = compose_schedule_with_backup(seed, REPLICAS, 0, false, true, OPS);
        let (backups, arch_rots, bscrubs, checks) = plan.backup_disruption_counts();
        dims = (dims.0 + backups, dims.1 + arch_rots, dims.2 + bscrubs, dims.3 + checks);
        assert!(backups > 0, "seed {seed:#x}: the schedule captures a bundle");
        assert!(checks > 0, "seed {seed:#x}: the schedule proves a restore");

        let bundle = generate_dataset(&DatasetSpec::tiny(), 0x5E_AC);
        let workload = build_workload(&bundle, &WorkloadSpec::default(), 21);
        let source: Vec<_> = workload
            .iter()
            .flat_map(|s| &s.annotations)
            .filter(|wa| !wa.ideal.is_empty())
            .collect();
        assert!(!source.is_empty());
        let items: Vec<IngestItem> = (0..OPS as usize)
            .map(|i| {
                let wa = source[i % source.len()];
                IngestItem::new(wa.annotation.clone(), vec![wa.ideal[0]])
            })
            .collect();

        let mut bundle = bundle;
        let mut nebula = Nebula::new(NebulaConfig::default(), bundle.meta.clone());
        nebula.bootstrap_acg(&bundle.annotations);

        let dir = temp_dir(&format!("dr-{seed:x}"));
        let archive = dir.join("archive");
        let mut cluster = Cluster::new(
            &dir.join("cluster"),
            &bundle.db,
            &bundle.annotations,
            REPLICAS,
            Box::new(SimTransport::reliable(3)),
            ClusterConfig::default(),
        )
        .expect("fresh cluster directory");
        cluster.set_archive(&archive).expect("arm WAL archiving");
        let sink = ClusterSink::new(cluster);
        let handle = sink.handle();
        nebula.set_mutation_sink(Some(Box::new(sink)));

        let ingest = IngestConfig::deterministic(1, OPS as usize);

        let mut next = 0usize;
        let mut rot_injections = 0usize;
        let mut rot_detections = 0usize;
        let mut rot_pending = false;
        let mut partitioned: Option<usize> = None;
        // Newest pristine bundle: (dir, head LSN, shadow bytes at capture).
        let mut captured: Option<(PathBuf, u64, Vec<u8>)> = None;
        let mut backups_taken = 0u64;
        // Sacrificial rotted copy awaiting its scrub: (dir, damaged files).
        let mut rotted_copy: Option<(PathBuf, Vec<Artifact>)> = None;
        let mut restores_proven = 0usize;

        for event in &plan.events {
            match *event {
                NemesisEvent::Ingest(n) | NemesisEvent::Burst(n) => {
                    let n = n as usize;
                    let slice = &items[next..next + n];
                    next += n;
                    let report = ingest_batch(
                        &mut nebula,
                        &bundle.db,
                        &mut bundle.annotations,
                        slice,
                        &ingest,
                    );
                    assert!(report.sheds.is_empty(), "seed {seed:#x}: no shed");
                    assert_ne!(report.health, HealthState::Wedged, "seed {seed:#x}: not wedged");
                    assert_eq!(report.batch.total(), n, "seed {seed:#x}: every item ran");
                }
                NemesisEvent::Partition { node } => {
                    handle.lock().set_partitioned(node, true);
                    partitioned = Some(node);
                }
                NemesisEvent::Heal { node } => {
                    handle.lock().set_partitioned(node, false);
                    partitioned = None;
                }
                NemesisEvent::Corrupt { replica } => {
                    let _ = handle.lock().chaos_corrupt_replica(replica);
                }
                NemesisEvent::BitRot => {
                    let wal_dir = handle.lock().primary().wal().dir().to_path_buf();
                    set_fault_plan(Some(
                        FaultPlan::new(seed.wrapping_add(rot_injections as u64))
                            .with(FaultSite::WalRot, 1.0)
                            .with(FaultSite::CheckpointRot, 1.0),
                    ));
                    let rot = inject_rot(&wal_dir).expect("rot injection");
                    set_fault_plan(None);
                    if !rot.is_empty() {
                        rot_injections += 1;
                        rot_pending = true;
                    }
                }
                NemesisEvent::Scrub => {
                    let mut cluster = handle.lock();
                    let summary = cluster.scrub();
                    if rot_pending {
                        assert!(
                            !media(&summary).is_empty(),
                            "seed {seed:#x}: injected rot detected before the next checkpoint"
                        );
                        assert_eq!(
                            summary.healed,
                            media(&summary),
                            "seed {seed:#x}: rot healed from shadow"
                        );
                        rot_detections += 1;
                        rot_pending = false;
                    }
                    for id in flagged_replicas(&summary) {
                        let out = cluster.repair_replica(id).expect("repair");
                        if partitioned != Some(id) && !out.converged {
                            let r = cluster.replicas().iter().find(|r| r.id() == id);
                            panic!(
                                "seed {seed:#x}: repair of replica {id}: {out:?}; replica applied={:?} wedged={:?}; primary last={} wm={} epoch={} transport={}",
                                r.map(|r| r.applied()),
                                r.map(|r| r.wedge_reason()),
                                cluster.primary().last_lsn(),
                                cluster.primary().wal().watermark(),
                                cluster.primary().epoch(),
                                cluster.describe_transport(),
                            );
                        }
                    }
                }
                NemesisEvent::Failover => {
                    let mut cluster = handle.lock();
                    let last = cluster.primary().last_lsn();
                    let mut rounds = 0;
                    while cluster.primary().min_acked() < last && rounds < 20_000 {
                        cluster.pump(1);
                        rounds += 1;
                    }
                    assert!(
                        cluster.primary().min_acked() >= last,
                        "seed {seed:#x}: quiesce before failover"
                    );
                    if let Some(target) = cluster.best_failover_candidate() {
                        cluster.promote(target).expect("promotion");
                        assert_eq!(
                            cluster.archive_dir().as_deref(),
                            Some(archive.as_path()),
                            "seed {seed:#x}: archiving survives the failover"
                        );
                    }
                }
                NemesisEvent::Rejoin => {
                    let mut cluster = handle.lock();
                    for node in cluster.deposed_nodes() {
                        let epoch = cluster.primary().epoch();
                        let out = cluster.rejoin(node).expect("rejoin");
                        assert_eq!(out.epoch, epoch, "seed {seed:#x}: rejoined the live epoch");
                        if partitioned != Some(node) {
                            assert!(out.converged, "seed {seed:#x}: rejoin of node {node}");
                        }
                    }
                }
                // A checkpoint seals the WAL into the archive, then the
                // bundle captures the archive plus a signed manifest.
                NemesisEvent::Backup => {
                    let mut cluster = handle.lock();
                    cluster
                        .checkpoint(&bundle.db, &bundle.annotations)
                        .expect("checkpoint before capture");
                    let bdir = dir.join(format!("bundle-{backups_taken}"));
                    let manifest = create_bundle(&BundleSpec {
                        archive_dir: archive.clone(),
                        bundle_dir: bdir.clone(),
                        pages: None,
                        created_seq: backups_taken,
                    })
                    .expect("bundle capture");
                    assert_eq!(
                        manifest.head_lsn,
                        cluster.primary().last_lsn(),
                        "seed {seed:#x}: the bundle covers the live head"
                    );
                    let (pdb, pstore) = cluster.primary().shadow();
                    if let Some((old, _, _)) =
                        captured.replace((bdir, manifest.head_lsn, state_bytes(pdb, pstore)))
                    {
                        let _ = std::fs::remove_dir_all(old);
                    }
                    backups_taken += 1;
                }
                // Rot lands in a sacrificial copy so the pristine bundle
                // stays a valid restore source for the next check.
                NemesisEvent::ArchiveRot => {
                    let (bdir, _, _) =
                        captured.as_ref().expect("the composer orders a Backup first");
                    let scratch = dir.join(format!("rotted-{backups_taken}"));
                    copy_bundle(bdir, &scratch);
                    set_fault_plan(Some(
                        FaultPlan::new(seed ^ 0xA5C1).with(FaultSite::ArchiveRot, 1.0),
                    ));
                    let damaged = inject_archive_rot(&scratch).expect("archive rot injection");
                    set_fault_plan(None);
                    assert!(!damaged.is_empty(), "seed {seed:#x}: rate-1.0 rot must land");
                    rotted_copy = Some((scratch, damaged));
                }
                NemesisEvent::BackupScrub => {
                    if let Some((scratch, damaged)) = rotted_copy.take() {
                        let report = scrub_bundle(&scratch).expect("scrub the damaged copy");
                        let found: std::collections::BTreeSet<_> =
                            report.corrupt_artifacts().into_iter().collect();
                        let want: std::collections::BTreeSet<_> = damaged.into_iter().collect();
                        assert_eq!(
                            found, want,
                            "seed {seed:#x}: the scrubber finds exactly the injected rot"
                        );
                        assert!(
                            verify_bundle(&scratch).is_err(),
                            "seed {seed:#x}: a restore would refuse the damaged copy"
                        );
                        let _ = std::fs::remove_dir_all(&scratch);
                    }
                    let (bdir, _, _) =
                        captured.as_ref().expect("the composer orders a Backup first");
                    let clean = scrub_bundle(bdir).expect("scrub the pristine bundle");
                    assert!(
                        clean.corrupt.is_empty(),
                        "seed {seed:#x}: zero false positives on the pristine bundle: {:?}",
                        clean.corrupt
                    );
                }
                NemesisEvent::RestoreCheck => {
                    let (bdir, head, want) =
                        captured.as_ref().expect("the composer orders a Backup first");
                    verify_bundle(bdir).expect("manifest verification before restore");
                    let restored = restore_bundle(bdir, None).expect("verified restore");
                    assert_eq!(restored.applied, *head, "seed {seed:#x}: restored to the head");
                    assert_eq!(
                        &state_bytes(&restored.db, &restored.store),
                        want,
                        "seed {seed:#x}: restore is byte-identical to the shadow at lsn {head}"
                    );
                    restores_proven += 1;
                }
                NemesisEvent::ShardPartition { .. }
                | NemesisEvent::ShardHeal { .. }
                | NemesisEvent::ShardBitRot { .. }
                | NemesisEvent::ShardFailover { .. }
                | NemesisEvent::PageRot
                | NemesisEvent::PageFsyncFail
                | NemesisEvent::EvictStorm => {
                    unreachable!("seed {seed:#x}: shard/disk event in a backup schedule")
                }
            }
        }

        assert_eq!(next as u64, OPS, "seed {seed:#x}: the schedule offered every item");
        assert_eq!(
            rot_detections, rot_injections,
            "seed {seed:#x}: every injected WAL rot was caught"
        );
        assert!(backups_taken > 0, "seed {seed:#x}: bundles were captured");
        assert!(restores_proven > 0, "seed {seed:#x}: restores were proven");

        // At rest the cluster converges and the archive still restores.
        drop(nebula.take_mutation_sink());
        let mut cluster = handle.lock();
        let last = cluster.primary().last_lsn();
        let mut rounds = 0;
        while cluster.primary().min_acked() < last && rounds < 20_000 {
            cluster.pump(1);
            rounds += 1;
        }
        assert!(cluster.primary().min_acked() >= last, "seed {seed:#x}: final drain");
        let final_scrub = cluster.scrub();
        assert!(media(&final_scrub).is_empty(), "seed {seed:#x}: media clean at rest");

        // One last capture at rest equals the live engine exactly.
        cluster.checkpoint(&bundle.db, &bundle.annotations).expect("final checkpoint");
        let final_dir = dir.join("bundle-final");
        create_bundle(&BundleSpec {
            archive_dir: archive.clone(),
            bundle_dir: final_dir.clone(),
            pages: None,
            created_seq: backups_taken,
        })
        .expect("final capture");
        let restored = restore_bundle(&final_dir, None).expect("final restore");
        assert_eq!(
            state_bytes(&restored.db, &restored.store),
            state_bytes(&bundle.db, &bundle.annotations),
            "seed {seed:#x}: the at-rest bundle restores the live engine byte-for-byte"
        );
        drop(cluster);
        drop(handle);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let (backups, arch_rots, bscrubs, checks) = dims;
    assert!(backups > 1, "no bundle captures across the seed suite");
    assert!(arch_rots > 0, "no archive rot across the seed suite");
    assert!(bscrubs > 0, "no backup scrubs across the seed suite");
    assert!(checks > 1, "no restore checks across the seed suite");
}
