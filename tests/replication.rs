//! Replication soak and failover sweeps against the full stack.
//!
//! Two invariants from the replication tentpole are exercised end to end:
//!
//! - **Partition/heal soak** — 500 annotations pushed through the
//!   ingest front end while the cluster's simulated network drops,
//!   delays, reorders, duplicates, and flaps links, with one replica
//!   explicitly partitioned for the first half of the batch. Every offered
//!   annotation is accounted for exactly once, and after the partition
//!   heals the cluster converges: every replica's applied LSN, state
//!   digest, and checkpoint-image *bytes* match the primary's, with each
//!   LSN applied exactly once (replayed + checkpointed = applied).
//! - **Failover sweep** — promotion at *every* ack boundary of a fixed
//!   history. The promoted primary's state is always a prefix of the
//!   reference chain (never a fork), the deposed primary's post-promotion
//!   writes are rejected by epoch fencing, and the cluster reconverges on
//!   the new chain.
//!
//! Both sweeps honor the shared fault machinery's environment knobs:
//! `NEBULA_FAULT_SEED` picks the transport fault seed (hex or decimal,
//! default `0xF00D`) and `NEBULA_REPL_ACK` (`none` / `quorum`) narrows the
//! commit-rule sweep — CI runs the full seed × rule matrix.

use nebula::nebula_durable::wal::WalOp;
use nebula::nebula_durable::{checkpoint, replay_op, state_digest};
use nebula::nebula_govern::FaultPlan;
use nebula::nebula_workload::{build_workload, WorkloadSpec};
use nebula::prelude::*;
use std::path::PathBuf;

/// The transport fault seed: `NEBULA_FAULT_SEED` (hex with `0x` prefix or
/// decimal), default `0xF00D`.
fn fault_seed() -> u64 {
    std::env::var("NEBULA_FAULT_SEED")
        .ok()
        .and_then(|s| {
            let s = s.trim().to_string();
            match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => s.parse().ok(),
            }
        })
        .unwrap_or(0xF00D)
}

/// The commit rules to sweep: `NEBULA_REPL_ACK=none|quorum` narrows the
/// matrix to one rule (CI pins each job to one); unset runs both.
fn ack_rules() -> Vec<CommitRule> {
    match std::env::var("NEBULA_REPL_ACK").ok().as_deref() {
        Some("none") => vec![CommitRule::Local],
        Some("quorum") => vec![CommitRule::Quorum(2)],
        _ => vec![CommitRule::Local, CommitRule::Quorum(2)],
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nebula-repl-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn op(n: u64) -> WalOp {
    WalOp::AddAnnotation {
        expected: AnnotationId(n),
        text: format!("note {n}"),
        author: None,
        kind: None,
    }
}

/// Canonical state bytes: the checkpoint image both checkpoint transfer
/// and recovery deserialize, at a fixed watermark so only state differs.
fn state_bytes(db: &nebula::relstore::Database, store: &AnnotationStore) -> Vec<u8> {
    checkpoint::encode(0, db, store)
}

/// Seeded partition/heal soak: 500 annotations through the ingest front
/// end writing into a 3-replica cluster over a flapping, faulty
/// transport, with replica 3 hard-partitioned for the first half. After
/// the heal the cluster must converge byte-for-byte, and the batch report
/// must account for every offered item exactly once.
#[test]
fn partition_heal_soak_converges_and_accounts_exactly_once() {
    let seed = fault_seed();
    for rule in ack_rules() {
        let bundle = generate_dataset(&DatasetSpec::tiny(), 0x5E_AC);
        let workload = build_workload(&bundle, &WorkloadSpec::default(), 21);
        let source: Vec<_> = workload
            .iter()
            .flat_map(|s| &s.annotations)
            .filter(|wa| !wa.ideal.is_empty())
            .collect();
        assert!(!source.is_empty());
        let items: Vec<IngestItem> = (0..500)
            .map(|i| {
                let wa = source[i % source.len()];
                IngestItem::new(wa.annotation.clone(), vec![wa.ideal[0]])
            })
            .collect();

        let mut bundle = bundle;
        let mut nebula = Nebula::new(NebulaConfig::default(), bundle.meta.clone());
        nebula.bootstrap_acg(&bundle.annotations);

        let dir = temp_dir(&format!("soak-{rule}"));
        let plan = FaultPlan::new(seed)
            .with(FaultSite::NetDrop, 0.05)
            .with(FaultSite::NetDelay, 0.1)
            .with(FaultSite::NetReorder, 0.05)
            .with(FaultSite::NetDuplicate, 0.05);
        let transport = SimTransport::new(4, plan).with_flap(64);
        let config = ClusterConfig { rule, ..ClusterConfig::default() };
        let cluster =
            Cluster::new(&dir, &bundle.db, &bundle.annotations, 3, Box::new(transport), config)
                .expect("fresh cluster directory");
        let sink = ClusterSink::new(cluster);
        let handle = sink.handle();
        nebula.set_mutation_sink(Some(Box::new(sink)));

        // Room for a whole half: the soak is about the network, so no item
        // is shed for want of a queue slot.
        let ingest = IngestConfig { queue_capacity: 250, ..IngestConfig::default() };

        // First half with replica 3 hard-partitioned, second half healed:
        // the flap schedule keeps the other links churning throughout.
        handle.lock().set_partitioned(3, true);
        let first =
            ingest_batch(&mut nebula, &bundle.db, &mut bundle.annotations, &items[..250], &ingest);
        handle.lock().set_partitioned(3, false);
        let second =
            ingest_batch(&mut nebula, &bundle.db, &mut bundle.annotations, &items[250..], &ingest);
        drop(nebula.take_mutation_sink());

        // Exactly-once accounting per half: terminal statuses plus typed
        // sheds partition the offered items, index by index.
        for (report, offered) in [(&first, 250usize), (&second, 250usize)] {
            assert_eq!(report.total(), offered, "{rule}: offered = accounted");
            assert_eq!(report.batch.total() + report.sheds.len(), offered, "{rule}");
            let b = &report.batch;
            assert_eq!(
                b.accepted + b.pending + b.rejected + b.degraded + b.quarantined,
                b.total(),
                "{rule}: every executed item has exactly one terminal status"
            );
            let mut seen = vec![0u8; offered];
            for e in &b.entries {
                seen[e.index] += 1;
            }
            for s in &report.sheds {
                seen[s.index] += 1;
            }
            assert!(seen.iter().all(|&n| n == 1), "{rule}: each index exactly once");
            // Only the partition may shed (its breaker opens); a full queue
            // never does.
            assert!(
                report.sheds.iter().all(|s| s.reason != ShedReason::QueueFull),
                "{rule}: {:?}",
                report.sheds
            );
        }

        // Heal and drain: the cluster converges within a bounded budget.
        let mut cluster = handle.lock();
        let last = cluster.primary().last_lsn();
        assert!(last > 0, "{rule}: the batch shipped records");
        let mut rounds = 0;
        while cluster.primary().min_acked() < last && rounds < 5_000 {
            cluster.pump(1);
            rounds += 1;
        }
        assert!(
            cluster.primary().min_acked() >= last,
            "{rule}: convergence within budget (stalled at {} / {last} after {rounds} rounds: {})",
            cluster.primary().min_acked(),
            cluster.describe_transport(),
        );

        // Byte-for-byte convergence and exactly-once replay accounting.
        let (pdb, pstore) = cluster.primary().shadow();
        let want_bytes = state_bytes(pdb, pstore);
        let want_digest = cluster.primary().shadow_digest();
        assert_eq!(pstore.annotation_count(), bundle.annotations.annotation_count(), "{rule}");
        for r in cluster.replicas() {
            assert!(!r.is_wedged(), "{rule}: replica {} wedged", r.id());
            assert_eq!(r.applied(), last, "{rule}: replica {}", r.id());
            assert_eq!(r.digest(), want_digest, "{rule}: replica {}", r.id());
            assert_eq!(state_bytes(r.db(), r.store()), want_bytes, "{rule}: replica {}", r.id());
            assert_eq!(
                r.records_replayed() + r.applied_via_checkpoint(),
                r.applied(),
                "{rule}: replica {} applied each LSN exactly once",
                r.id()
            );
        }
        assert!(cluster.primary().divergences().is_empty(), "{rule}");
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Failover at every ack boundary: for each prefix length `k` of a fixed
/// 10-op history, write `k` ops, promote the best candidate, and check
/// that the promoted state is a *prefix* of the reference chain (replayed
/// through the same `replay_op` path), that the deposed primary is fenced
/// on every later write, and that the cluster reconverges on the new
/// chain's final state.
#[test]
fn failover_at_every_ack_boundary_preserves_a_single_chain() {
    const N: u64 = 10;
    // Reference chain: digests and bytes after each LSN, via replay_op.
    let mut db = nebula::relstore::Database::new();
    let mut store = AnnotationStore::new();
    let mut ref_digest = vec![state_digest(&db, &store)];
    let mut ref_bytes = vec![state_bytes(&db, &store)];
    for i in 0..N {
        replay_op(&mut db, &mut store, &op(i)).expect("reference replay");
        ref_digest.push(state_digest(&db, &store));
        ref_bytes.push(state_bytes(&db, &store));
    }

    for rule in ack_rules() {
        for k in 1..=N {
            let dir = temp_dir(&format!("failover-{rule}-{k}"));
            let config = ClusterConfig { rule, ..ClusterConfig::default() };
            let mut cluster = Cluster::new(
                &dir,
                &nebula::relstore::Database::new(),
                &AnnotationStore::new(),
                2,
                Box::new(SimTransport::reliable(3)),
                config,
            )
            .expect("fresh cluster directory");
            for i in 0..k {
                cluster.record(&op(i)).expect("record on healthy cluster");
            }

            let target = cluster.best_failover_candidate().expect("a live candidate");
            cluster.promote(target).expect("promotion");
            assert_eq!(cluster.primary().epoch(), 2, "{rule}/{k}");
            assert_eq!(cluster.primary().node(), target, "{rule}/{k}");

            // The surviving history is a prefix of the reference chain,
            // never a fork: the promoted primary starts at some LSN a ≤ k
            // whose state bytes are exactly the reference state at a.
            let a = cluster.primary().last_lsn();
            assert!(a <= k, "{rule}/{k}: promoted at {a}");
            assert_eq!(cluster.primary().shadow_digest(), ref_digest[a as usize], "{rule}/{k}");
            let (pdb, pstore) = cluster.primary().shadow();
            assert_eq!(state_bytes(pdb, pstore), ref_bytes[a as usize], "{rule}/{k}");

            // Deposed writes are rejected by epoch fencing — at the
            // boundary and on every later attempt.
            let err = cluster.record_on_deposed(0, &op(a)).unwrap_err();
            assert!(
                matches!(err, ReplicaError::Fenced { epoch: 1, newer: 2 }),
                "{rule}/{k}: {err:?}"
            );
            let err = cluster.record_on_deposed(0, &op(a + 1)).unwrap_err();
            assert!(matches!(err, ReplicaError::Fenced { .. }), "{rule}/{k}: {err:?}");

            // The new chain continues to the full history and the
            // surviving replica converges onto it.
            for i in a..N {
                cluster.record(&op(i)).expect("record on the new primary");
            }
            cluster.pump(8);
            assert_eq!(cluster.primary().last_lsn(), N, "{rule}/{k}");
            assert_eq!(cluster.primary().shadow_digest(), ref_digest[N as usize], "{rule}/{k}");
            for r in cluster.replicas() {
                assert_eq!(r.applied(), N, "{rule}/{k}: replica {}", r.id());
                assert_eq!(r.digest(), ref_digest[N as usize], "{rule}/{k}: replica {}", r.id());
            }
            assert!(cluster.primary().divergences().is_empty(), "{rule}/{k}");
            drop(cluster);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// An op with the same expected id slot as [`op`] but different bytes —
/// the post-promotion chain records these so the epochs genuinely fork.
fn fork_op(n: u64) -> WalOp {
    WalOp::AddAnnotation {
        expected: AnnotationId(n),
        text: format!("forked note {n}"),
        author: None,
        kind: None,
    }
}

/// The rejoin variant of the failover sweep: at every ack boundary `k`,
/// promote, fence the deposed primary's further writes, finish the
/// history on a *forked* new chain (different bytes past the promotion
/// point), then **rejoin** the deposed primary as a replica of the new
/// epoch. The rejoined node must locate the promotion point exactly,
/// rewind precisely its un-acked epoch-1 suffix (every fenced LSN
/// accounted once, none surviving, none double-applied), and reconverge
/// byte-for-byte with the new chain. Then the divergence-depth sweep: over
/// a 48-record history the deposed primary first writes `depth` records
/// into a full partition, so the suffix to rewind grows 16-fold while the
/// ladder's probe count stays logarithmic.
#[test]
fn rejoin_at_every_failover_boundary_reconverges_byte_for_byte() {
    const N: u64 = 10;
    for rule in ack_rules() {
        for k in 1..=N {
            rejoin_case(rule, k, 0, N);
        }
        for (depth, probes) in [(1, 2), (4, 3), (16, 5)] {
            let out = rejoin_case(rule, 48, depth, 48 + depth);
            assert_eq!(out.agreed, 48, "{rule}/depth {depth}: nothing sound is discarded");
            // The partitioned writes plus the one fenced write.
            assert_eq!(out.rewound, depth + 1, "{rule}/depth {depth}");
            assert_eq!(out.probes, probes, "{rule}/depth {depth}: the ladder binary-searches");
        }
    }
}

/// One rejoin scenario: `k` acked records, `depth` more written by the
/// primary into a full partition (acked by nobody), promotion, a fenced
/// write on the deposed primary, a forked new chain up to LSN `end`, and
/// the rejoin — with the assertions every such scenario must satisfy.
fn rejoin_case(
    rule: CommitRule,
    k: u64,
    depth: u64,
    end: u64,
) -> nebula::nebula_replica::RejoinOutcome {
    let dir = temp_dir(&format!("rejoin-{rule}-{k}-{depth}"));
    let config = ClusterConfig { rule, ..ClusterConfig::default() };
    let mut cluster = Cluster::new(
        &dir,
        &nebula::relstore::Database::new(),
        &AnnotationStore::new(),
        2,
        Box::new(SimTransport::reliable(3)),
        config,
    )
    .expect("fresh cluster directory");
    for i in 0..k {
        cluster.record(&op(i)).expect("record on healthy cluster");
    }
    for node in 1..=2 {
        cluster.set_partitioned(node, true);
    }
    for i in k..k + depth {
        cluster.record(&op(i)).expect("record under partition");
    }
    for node in 1..=2 {
        cluster.set_partitioned(node, false);
    }
    let target = cluster.best_failover_candidate().expect("a live candidate");
    cluster.promote(target).expect("promotion");
    let a = cluster.primary().last_lsn();

    // The deposed primary keeps writing and is fenced every time.
    assert!(matches!(
        cluster.record_on_deposed(0, &op(a)).unwrap_err(),
        ReplicaError::Fenced { .. }
    ));
    // The new chain continues with *different* records, so the
    // deposed primary's suffix past `a` is a real fork.
    for i in a..end {
        cluster.record(&fork_op(i)).expect("record on the new primary");
    }
    cluster.pump(8);

    // Reference: the agreed prefix, then the forked suffix.
    let mut rdb = nebula::relstore::Database::new();
    let mut rstore = AnnotationStore::new();
    for i in 0..a {
        replay_op(&mut rdb, &mut rstore, &op(i)).expect("reference replay");
    }
    for i in a..end {
        replay_op(&mut rdb, &mut rstore, &fork_op(i)).expect("reference replay");
    }
    let want_digest = state_digest(&rdb, &rstore);
    let want_bytes = state_bytes(&rdb, &rstore);

    // Rejoin: the deposed primary demotes, rewinds its un-acked
    // epoch-1 suffix, and catches up under epoch 2.
    let deposed_last = cluster
        .deposed()
        .first()
        .map(nebula::nebula_replica::Primary::last_lsn)
        .expect("a deposed primary existed");
    let out = cluster.rejoin(0).expect("rejoin the deposed primary");
    let case = format!("{rule}/{k}+{depth}");
    assert_eq!(out.node, 0, "{case}");
    assert_eq!(out.epoch, 2, "{case}");
    assert!(out.converged, "{case}: rejoin converged");
    // Exactly-once accounting: the ladder pins the promotion
    // point, and every fenced LSN past it is rewound exactly once
    // — none survive, and the agreed prefix is not re-wound.
    assert_eq!(out.agreed, a, "{case}: rewind point is the promotion point");
    assert_eq!(out.rewound, deposed_last - a, "{case}: exactly the fenced suffix");
    assert_eq!(cluster.deposed_nodes(), Vec::<usize>::new(), "{case}");

    // Byte-for-byte reconvergence of the whole membership — the
    // rejoined node included — on the new chain.
    assert_eq!(cluster.primary().shadow_digest(), want_digest, "{case}");
    assert_eq!(cluster.replicas().len(), 2, "{case}: both replicas attached");
    for r in cluster.replicas() {
        assert!(!r.is_wedged(), "{case}: replica {}", r.id());
        assert_eq!(r.applied(), end, "{case}: replica {}", r.id());
        assert_eq!(r.digest(), want_digest, "{case}: replica {}", r.id());
        assert_eq!(state_bytes(r.db(), r.store()), want_bytes, "{case}: replica {}", r.id());
    }
    assert_eq!(cluster.repair_status().rejoins, 1, "{case}");
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The acceptance bar for ack-quorum: with a full quorum, *every* acked
/// LSN leaves every replica's state bytes identical to the primary's
/// shadow at that LSN — commit acknowledgements never run ahead of
/// replicated state.
#[test]
fn quorum_acked_lsns_match_primary_bytes_at_every_step() {
    let dir = temp_dir("lockstep");
    let config = ClusterConfig { rule: CommitRule::Quorum(2), ..ClusterConfig::default() };
    let mut cluster = Cluster::new(
        &dir,
        &nebula::relstore::Database::new(),
        &AnnotationStore::new(),
        2,
        Box::new(SimTransport::reliable(3)),
        config,
    )
    .expect("fresh cluster directory");
    for i in 0..12 {
        let lsn = cluster.record(&op(i)).expect("record");
        assert!(!cluster.lag_exceeded(), "quorum satisfied at lsn {lsn}");
        let (pdb, pstore) = cluster.primary().shadow();
        let want = state_bytes(pdb, pstore);
        for r in cluster.replicas() {
            assert_eq!(r.applied(), lsn, "replica {} acked lsn {lsn}", r.id());
            assert_eq!(
                state_bytes(r.db(), r.store()),
                want,
                "replica {} bytes at acked lsn {lsn}",
                r.id()
            );
        }
    }
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}
