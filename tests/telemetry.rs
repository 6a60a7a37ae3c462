//! Telemetry integration: the pipeline reports work into every layer's
//! counters, stage spans land in the histograms, and the whole subsystem
//! is inert when disabled.
//!
//! All tests share the process-global telemetry registry, so each takes
//! `GLOBAL_LOCK` and resets the recording before making assertions.

use nebula::nebula_obs;
use nebula::nebula_workload::{build_workload, WorkloadSpec};
use nebula::prelude::*;
use std::sync::Mutex;

static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

struct Stack {
    bundle: DatasetBundle,
    workload: Vec<nebula::nebula_workload::WorkloadSet>,
    nebula: Nebula,
}

fn stack(seed: u64) -> Stack {
    let bundle = generate_dataset(&DatasetSpec::tiny(), seed);
    let workload = build_workload(&bundle, &WorkloadSpec::default(), seed);
    let mut nebula = Nebula::new(NebulaConfig::default(), bundle.meta.clone());
    nebula.bootstrap_acg(&bundle.annotations);
    Stack { bundle, workload, nebula }
}

impl Stack {
    fn process_one(&mut self, i: usize) -> ProcessOutcome {
        let wa =
            self.workload.iter().flat_map(|s| &s.annotations).nth(i).expect("workload annotation");
        self.nebula
            .process_annotation(
                &self.bundle.db,
                &mut self.bundle.annotations,
                &wa.annotation,
                &[wa.ideal[0]],
            )
            .expect("pipeline runs")
    }
}

#[test]
fn counters_are_monotonic_and_cover_every_layer() {
    let _guard = GLOBAL_LOCK.lock().unwrap();
    nebula_obs::set_enabled(true);
    nebula_obs::reset();

    let mut st = stack(7);
    st.process_one(0);
    let first = nebula_obs::snapshot();
    st.process_one(1);
    let second = nebula_obs::snapshot();
    nebula_obs::set_enabled(false);

    // Every layer reported work from the very first annotation.
    for name in [
        "core.annotations_processed",
        "core.queries_generated",
        "relstore.index_probes",
        "textsearch.configurations",
        "textsearch.compiled_queries",
        "annostore.annotations_registered",
        "annostore.edges_added",
    ] {
        assert!(
            first.counters.get(name).copied().unwrap_or(0) > 0,
            "counter {name} should be non-zero after one annotation: {:?}",
            first.counters
        );
    }

    // Counters only ever grow.
    for (name, before) in &first.counters {
        let after = second.counters.get(name).copied().unwrap_or(0);
        assert!(after >= *before, "counter {name} went backwards: {before} -> {after}");
    }
    assert_eq!(
        second.counters["core.annotations_processed"],
        first.counters["core.annotations_processed"] + 1
    );
}

#[test]
fn stage_spans_feed_the_histograms_and_events() {
    let _guard = GLOBAL_LOCK.lock().unwrap();
    nebula_obs::set_enabled(true);
    nebula_obs::reset();

    let mut st = stack(9);
    let outcome = st.process_one(0);
    let snap = nebula_obs::snapshot();
    nebula_obs::set_enabled(false);

    for stage in [
        nebula_obs::names::STAGE0_REGISTER,
        nebula_obs::names::STAGE1_QUERYGEN,
        nebula_obs::names::STAGE2_EXECUTE,
        nebula_obs::names::STAGE3_ROUTE,
        nebula_obs::names::PIPELINE,
    ] {
        let hist =
            snap.histograms.get(stage).unwrap_or_else(|| panic!("missing histogram for {stage}"));
        assert_eq!(hist.count, 1, "{stage} recorded once");
    }
    assert!(
        snap.histograms[nebula_obs::names::PIPELINE].sum_ns > 0,
        "whole-pipeline wall time is non-zero"
    );

    // One structured event per stage plus the pipeline summary.
    let events = snap.events_for(outcome.annotation.0);
    assert_eq!(events.len(), 5, "events: {events:#?}");
    assert_eq!(events[0].stage, nebula_obs::names::STAGE0_REGISTER);
    assert_eq!(events[4].stage, nebula_obs::names::PIPELINE);

    // The snapshot renders deterministically in both formats.
    let text = snap.render_text();
    assert!(text.contains("core.annotations_processed"));
    let json = snap.render_json();
    assert!(json.contains("\"stage2.execute\""));
}

#[test]
fn disabled_telemetry_records_nothing() {
    let _guard = GLOBAL_LOCK.lock().unwrap();
    nebula_obs::set_enabled(false);
    nebula_obs::reset();

    let mut st = stack(11);
    st.process_one(0);
    let snap = nebula_obs::snapshot();

    assert!(snap.counters.is_empty(), "counters: {:?}", snap.counters);
    assert!(snap.histograms.is_empty());
    assert!(snap.events.is_empty());
}

#[test]
fn snapshot_diff_isolates_one_annotation() {
    let _guard = GLOBAL_LOCK.lock().unwrap();
    nebula_obs::set_enabled(true);
    nebula_obs::reset();

    let mut st = stack(13);
    st.process_one(0);
    let base = nebula_obs::snapshot();
    st.process_one(1);
    let diff = nebula_obs::snapshot().diff(&base);
    nebula_obs::set_enabled(false);

    assert_eq!(diff.counters["core.annotations_processed"], 1);
    assert_eq!(diff.histograms[nebula_obs::names::PIPELINE].count, 1);
}

/// Every metric the engine writes — counters, gauges, histograms — is
/// listed in `nebula_obs::registry`. A counter that exists in code but not
/// in the registry is invisible to dashboards and to `SHOW METRICS`
/// consumers, so this test drives the full surface (pipeline, durability,
/// the ingest front end with sheds, quarantines, breaker activity, deferred
/// checkpoints) and then refuses any unlisted name.
#[test]
fn every_written_metric_is_listed_in_the_registry() {
    let _guard = GLOBAL_LOCK.lock().unwrap();
    nebula_obs::set_enabled(true);
    nebula_obs::reset();

    let dir =
        std::env::temp_dir().join(format!("nebula-telemetry-registry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut st = stack(19);
    st.process_one(0);

    // Concurrent ingest with a WAL attached, faults, a tiny queue, and
    // deadlines: exercises ingest.*, durable.*, and the shed counters.
    let durability = Durability::begin(
        &dir,
        &st.bundle.db,
        &st.bundle.annotations,
        DurabilityOptions { checkpoint_every: Some(2), ..Default::default() },
    )
    .expect("fresh durability directory");
    st.nebula.set_mutation_sink(Some(Box::new(durability)));
    let items: Vec<IngestItem> = st
        .workload
        .iter()
        .flat_map(|s| &s.annotations)
        .filter(|wa| !wa.ideal.is_empty())
        .take(24)
        .enumerate()
        .map(|(i, wa)| {
            let item = IngestItem::new(wa.annotation.clone(), vec![wa.ideal[0]]);
            if i % 4 == 0 {
                item.with_deadline(std::time::Duration::ZERO)
            } else {
                item
            }
        })
        .collect();
    nebula::nebula_govern::set_fault_plan(Some(FaultPlan::uniform(0x9E6, 0.3)));
    let report = ingest_batch(
        &mut st.nebula,
        &st.bundle.db,
        &mut st.bundle.annotations,
        &items,
        &IngestConfig { queue_capacity: 2, ..Default::default() },
    );
    nebula::nebula_govern::set_fault_plan(None);
    drop(st.nebula.take_mutation_sink());
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!report.sheds.is_empty(), "the tiny queue and deadlines shed: {report:?}");

    // Replication: a one-replica cluster as the sink, plus a failover,
    // exercises the repl.* counters and gauges.
    let rdir =
        std::env::temp_dir().join(format!("nebula-telemetry-registry-repl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&rdir);
    let cluster = Cluster::new(
        &rdir,
        &st.bundle.db,
        &st.bundle.annotations,
        1,
        Box::new(SimTransport::reliable(2)),
        ClusterConfig { rule: CommitRule::Quorum(1), ..ClusterConfig::default() },
    )
    .expect("fresh cluster directory");
    let sink = ClusterSink::new(cluster);
    let handle = sink.handle();
    st.nebula.set_mutation_sink(Some(Box::new(sink)));
    st.process_one(1);
    drop(st.nebula.take_mutation_sink());
    handle.lock().promote(1).expect("promotion");
    let _ = std::fs::remove_dir_all(&rdir);

    // Tracing (on with telemetry): commit one traced annotation and fire a
    // flight event and post-mortem dump, so the trace.* counters and gauges
    // are written.
    nebula_obs::trace::reset();
    st.process_one(2);
    nebula_obs::trace::flight_event("health", "healthy -> degraded".to_string());
    nebula_obs::trace::flight_dump("ingest.wedged");

    // Sharding: a three-shard cluster with a partition, heal, failover,
    // and scrub, so the shard.* counters and gauges are all written.
    let mut shards = ShardCluster::new(
        &st.bundle.db,
        &st.bundle.annotations,
        &st.bundle.meta,
        &NebulaConfig::default(),
        ShardConfig::new(3),
    )
    .expect("shard cluster boots");
    let shard_items: Vec<_> = st
        .workload
        .iter()
        .flat_map(|s| &s.annotations)
        .filter(|wa| !wa.ideal.is_empty())
        .take(10)
        .collect();
    let mut shard_iter = shard_items.iter();
    for wa in shard_iter.by_ref().take(2) {
        shards.ingest(&wa.annotation, &[wa.ideal[0]]).expect("sharded ingest");
    }
    shards.partition_shard(2);
    for wa in shard_iter.by_ref().take(4) {
        shards.ingest(&wa.annotation, &[wa.ideal[0]]).expect("degraded sharded ingest");
    }
    shards.heal_shard(2);
    shards.fail_shard(1);
    shards.promote_shard(1).expect("failover");
    shards.corrupt_shard(0).expect("bit-rot injection");
    shards.scrub().expect("scrub");

    // Disaster recovery: archive, capture, verify, restore, seeded rot,
    // scrub, and retention GC, so the backup.* counters are all written.
    let bdir = std::env::temp_dir()
        .join(format!("nebula-telemetry-registry-backup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&bdir);
    {
        let mut db = nebula::relstore::Database::new();
        let mut store = AnnotationStore::new();
        let mut mgr =
            Durability::begin(&bdir.join("wal"), &db, &store, DurabilityOptions::default())
                .expect("fresh durability directory");
        mgr.set_archive(&bdir.join("archive"), 1).expect("arm archiving");
        for n in 0..4u64 {
            let op = nebula::nebula_durable::WalOp::AddAnnotation {
                expected: AnnotationId(n),
                text: format!("backup metric {n}"),
                author: None,
                kind: None,
            };
            mgr.append(&op).expect("append");
            nebula::nebula_durable::replay_op(&mut db, &mut store, &op).expect("replay");
            if n == 1 {
                mgr.checkpoint(&db, &store).expect("mid checkpoint");
            }
        }
        mgr.checkpoint(&db, &store).expect("sealing checkpoint");
        nebula::nebula_backup::create_bundle(&nebula::nebula_backup::BundleSpec {
            archive_dir: bdir.join("archive"),
            bundle_dir: bdir.join("bundle"),
            pages: None,
            created_seq: 1,
        })
        .expect("bundle capture");
        nebula::nebula_backup::verify_bundle(&bdir.join("bundle")).expect("verify");
        nebula::nebula_backup::restore(&bdir.join("bundle"), Some(3)).expect("restore");
        nebula::nebula_govern::set_fault_plan(Some(
            FaultPlan::new(0xB0B).with(FaultSite::ArchiveRot, 1.0),
        ));
        nebula::nebula_backup::inject_rot(&bdir.join("bundle")).expect("rot injection");
        nebula::nebula_govern::set_fault_plan(None);
        let scrubbed = nebula::nebula_backup::scrub(&bdir.join("bundle")).expect("scrub");
        assert!(!scrubbed.corrupt.is_empty(), "the seeded rot is visible to the scrubber");
        assert!(nebula::nebula_backup::verify_bundle(&bdir.join("bundle")).is_err());
        nebula::nebula_backup::gc(&bdir.join("archive"), 1).expect("gc pass");
    }
    let _ = std::fs::remove_dir_all(&bdir);

    let snap = nebula_obs::snapshot();
    nebula_obs::set_enabled(false);

    for name in snap.counters.keys() {
        assert!(nebula_obs::registry::is_known(name), "counter `{name}` is not in the registry");
    }
    for name in snap.gauges.keys() {
        assert!(nebula_obs::registry::is_known(name), "gauge `{name}` is not in the registry");
    }
    for name in snap.histograms.keys() {
        assert!(nebula_obs::registry::is_known(name), "histogram `{name}` is not in the registry");
    }
    // The new PR-4 names actually got written, so the registry check above
    // had teeth.
    assert!(snap.counters.contains_key("ingest.shed"), "{:?}", snap.counters);
    assert!(snap.gauges.contains_key("ingest.health"), "{:?}", snap.gauges);
    // And the PR-5 replication names, via the ClusterSink and failover.
    assert!(snap.counters.contains_key("repl.records_shipped"), "{:?}", snap.counters);
    assert!(snap.counters.contains_key("repl.acks"), "{:?}", snap.counters);
    assert!(snap.counters.contains_key("repl.promotions"), "{:?}", snap.counters);
    assert!(snap.gauges.contains_key("repl.max_lag"), "{:?}", snap.gauges);
    // And the PR-6 tracing names, via the traced commit and the flight
    // recorder.
    assert!(snap.counters.contains_key("trace.spans"), "{:?}", snap.counters);
    assert!(snap.counters.contains_key("trace.traces"), "{:?}", snap.counters);
    assert!(snap.counters.contains_key("trace.flight_events"), "{:?}", snap.counters);
    assert!(snap.counters.contains_key("trace.flight_dumps"), "{:?}", snap.counters);
    assert!(snap.gauges.contains_key("trace.ring_occupancy"), "{:?}", snap.gauges);
    // And the sharding names, via the scatter-gather cluster above.
    for name in [
        "shard.annotations_routed",
        "shard.probes_sent",
        "shard.probes_answered",
        "shard.probes_timed_out",
        "shard.partial_results",
        "shard.applies_sent",
        "shard.apply_acks",
        "shard.batches_applied",
        "shard.failovers",
        "shard.digest_divergences",
        "shard.repairs",
    ] {
        assert!(snap.counters.contains_key(name), "missing {name}: {:?}", snap.counters);
    }
    assert!(snap.gauges.contains_key("shard.shards"), "{:?}", snap.gauges);
    assert!(snap.gauges.contains_key("shard.epoch"), "{:?}", snap.gauges);
    assert!(snap.gauges.contains_key("shard.lagging"), "{:?}", snap.gauges);
    // And the disaster-recovery names, via the backup round trip above.
    for name in [
        "backup.bases_archived",
        "backup.segments_archived",
        "backup.bytes_archived",
        "backup.bundles_created",
        "backup.bundle_bytes",
        "backup.restores",
        "backup.restore_records_replayed",
        "backup.scrubs",
        "backup.rot_injected",
        "backup.rot_detected",
        "backup.verify_failures",
        "backup.gc_removed",
    ] {
        assert!(snap.counters.contains_key(name), "missing {name}: {:?}", snap.counters);
    }
}
