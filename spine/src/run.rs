//! One run of one workload: set-up, reference, warm-up, measured rounds,
//! further set-ups, output check and pins, metrics. `--trace 0` measures
//! the end-to-end table with the harness's spans off; `--trace 1`
//! alternates untraced and traced rounds and fills the per-layer table.

use crate::inputs::DEFAULT_SEED;
use crate::layers::{self, Counters};
use crate::report::{Metrics, RunResult, END_TO_END, PER_LAYER};
use crate::scratch::{discard, Scratch};
use crate::stats::{median, nearest_rank, ten_beyond};
use crate::tracer::Tracer;
use crate::workloads::{
    cluster_config, config_line, pool_wal_options, Env, PoolDelta, Workload, BURST, CHUNK,
};
use nebula_core::AssessmentReport;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    /// Seeds the dataset.
    pub seed: u64,
    /// How long the measured rounds run.
    pub seconds: f64,
    /// Fill the per-layer table (from traced rounds) instead of the
    /// end-to-end one.
    pub trace: bool,
    /// Write the harness's spans here when the run ends.
    pub trace_out: Option<PathBuf>,
    /// Tiny dataset, one measured round.
    pub smoke: bool,
}

impl RunArgs {
    /// The tiny-dataset, one-round self-check of `workload`.
    pub fn smoke(workload: Workload, seed: u64, trace: bool) -> RunArgs {
        RunArgs { workload, seed, seconds: 0.0, trace, trace_out: None, smoke: true }
    }
}

/// What a run at the default seed must reproduce exactly, per workload.
/// The output check compares every round with a reference built from the
/// same commit, so it cannot see a change that moves the reference too;
/// these values, measured at the commit that added the benchmark, can.
struct Pins {
    /// Digest of the dataset and the stream: a mismatch means the generator
    /// changed, and no number measured before the change is comparable.
    input_digest: u64,
    /// Definition 7.2 over one round: a faster stage 2 that moves these is
    /// a bug.
    f_n: f64,
    f_p: f64,
    expert_tasks: f64,
    /// Bytes one round appends to its logs (0 without a log).
    wal_bytes: u64,
}

fn pins(workload: Workload) -> Pins {
    match workload {
        Workload::RamSeq => Pins {
            input_digest: 0x06fa_a7b4_539c_4a83,
            f_n: 0.024710810250025937,
            f_p: 0.0022222222222222222,
            expert_tasks: 8.751633986928105,
            wal_bytes: 0,
        },
        Workload::PagedFit | Workload::PagedChurn => Pins {
            input_digest: 0xd5ed_d014_7fcb_50a2,
            f_n: 0.0,
            f_p: 0.03554574786458845,
            expert_tasks: 11.294685990338165,
            wal_bytes: 0,
        },
        Workload::DurablePool => Pins {
            input_digest: 0xfeb7_3118_80ea_5f8f,
            f_n: 0.0,
            f_p: 0.028852247969895016,
            expert_tasks: 8.431372549019608,
            wal_bytes: 291_647,
        },
        Workload::Replicated => Pins {
            input_digest: 0xa95b_f15d_38e6_6a86,
            f_n: 0.0,
            f_p: 0.014557613168724282,
            expert_tasks: 4.027777777777778,
            wal_bytes: 82_273,
        },
        Workload::Sharded => Pins {
            input_digest: 0xc045_6703_29ff_9ef2,
            f_n: 0.0,
            f_p: 0.04318653387280837,
            expert_tasks: 13.450980392156863,
            wal_bytes: 0,
        },
    }
}

/// The ways a default-seed run departs from its pins.
fn drift(
    pins: &Pins,
    input_digest: u64,
    quality: &AssessmentReport,
    wal_bytes: u64,
) -> Vec<String> {
    // Means of ratios: equal up to the last bits of a float sum.
    let same = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
    let mut drifted = Vec::new();
    if input_digest != pins.input_digest {
        drifted.push(format!(
            "input_digest {input_digest:016x} != pinned {:016x}: generator changed",
            pins.input_digest
        ));
    }
    for (name, got, pinned) in [
        ("F_N", quality.f_n, pins.f_n),
        ("F_P", quality.f_p, pins.f_p),
        ("expert tasks per annotation", quality.m_f, pins.expert_tasks),
    ] {
        if !same(got, pinned) {
            drifted.push(format!("{name} {got:?} != pinned {pinned:?}: predictions changed"));
        }
    }
    if wal_bytes != pins.wal_bytes {
        drifted.push(format!(
            "WAL bytes per round {wal_bytes} != pinned {}: the log format or what is logged changed",
            pins.wal_bytes
        ));
    }
    drifted
}

/// The tail percentile reported (`commit_p95_ms`, from the untraced rounds
/// of a traced run): the highest one every workload can put ten samples
/// beyond within a run.
const TAIL_PERCENTILE: usize = 95;

/// What the measured rounds add up to.
#[derive(Debug, Default)]
struct Rounds {
    /// Each round's throughput and per-annotation latencies.
    throughputs: Vec<f64>,
    latencies_ns: Vec<Vec<u64>>,
    attempted: u64,
    failed: u64,
    quality: Option<AssessmentReport>,
    /// Bytes a round appended to its logs.
    wal_bytes: Option<u64>,
    pool: PoolDelta,
    queue_depth_peak: usize,
    /// The last round's log directory (kept for the recovery check).
    last_dir: Option<PathBuf>,
    problems: Vec<String>,
}

/// Nearest-rank percentile of latency samples, in ms.
fn percentile_ms(samples: impl IntoIterator<Item = u64>, p: usize) -> f64 {
    let mut sorted: Vec<u64> = samples.into_iter().collect();
    sorted.sort_unstable();
    nearest_rank(&sorted, p).map_or(0.0, |ns| ns as f64 / 1e6)
}

impl Rounds {
    fn annotations(&self) -> f64 {
        self.attempted.max(1) as f64
    }

    /// Latency samples of all rounds together.
    fn samples(&self) -> usize {
        self.latencies_ns.iter().map(Vec::len).sum()
    }

    /// The fastest round. Every round does the same work, and whatever
    /// else runs on the machine only ever slows one down, so the fastest is
    /// the one nearest to what the program costs. Over eight runs of one
    /// seed in a noisy hour the median round spread by 5 % (`ram-seq`) and
    /// 13 % (`paged-fit`), the fastest round by 3 % and 4 %.
    fn fastest(&self) -> usize {
        let by_throughput =
            |a: &usize, b: &usize| self.throughputs[*a].total_cmp(&self.throughputs[*b]);
        (0..self.throughputs.len()).max_by(by_throughput).unwrap_or(0)
    }

    /// Throughput of the fastest round.
    fn throughput(&self) -> f64 {
        self.throughputs.get(self.fastest()).copied().unwrap_or(0.0)
    }

    /// Median latency of the fastest round.
    fn p50_ms(&self) -> f64 {
        percentile_ms(self.latencies_ns.get(self.fastest()).into_iter().flatten().copied(), 50)
    }

    /// The tail over the rounds pooled: they do the same work, so the pool
    /// is one distribution, and only the pool holds ten samples beyond it.
    fn tail_ms(&self) -> f64 {
        percentile_ms(self.latencies_ns.iter().flatten().copied(), TAIL_PERCENTILE)
    }
}

/// Run one round and fold it into `acc`. With `counters`, the program's
/// telemetry and span trees over the round's timed part are folded in too.
/// Quality and logged bytes must repeat exactly from round to round.
fn round(
    env: &Env,
    scratch: &Scratch,
    reference_state: &[u8],
    tracer: &mut Tracer,
    counters: Option<&mut Counters>,
    acc: &mut Rounds,
) -> Result<(), String> {
    let mut prepared = env.prepare(scratch)?;
    nebula_obs::trace::reset();
    let before = nebula_obs::snapshot();
    tracer.open("round", None);
    let timed = env.run(&mut prepared, tracer);
    tracer.close();
    let telemetry = nebula_obs::snapshot().diff(&before);
    if let Some(counters) = counters {
        counters.absorb(&telemetry, &nebula_obs::trace::traces());
    }
    let finished = env.finish(prepared);

    let n = timed.outcomes.len();
    let mut problems = finished.problems;
    if finished.state != reference_state {
        problems.push("committed state differs from the reference engine's".into());
    }
    if let Some(e) = &timed.first_error {
        problems.push(e.clone());
    }
    let quality = env.quality(&timed.outcomes);
    if *acc.quality.get_or_insert(quality) != quality {
        problems.push("predictions changed between rounds".into());
    }
    let wal_bytes = telemetry.counters.get("durable.bytes_appended").copied().unwrap_or(0);
    if *acc.wal_bytes.get_or_insert(wal_bytes) != wal_bytes {
        problems.push("logged bytes changed between rounds".into());
    }
    acc.attempted += n as u64;
    // A round whose output check failed counts every annotation as failed.
    acc.failed += if problems.is_empty() { timed.failed() } else { n } as u64;
    acc.problems.extend(problems);
    acc.throughputs.push(timed.throughput());
    acc.latencies_ns.push(timed.latencies_ns);
    acc.pool.hits += timed.pool.hits;
    acc.pool.misses += timed.pool.misses;
    acc.pool.evictions += timed.pool.evictions;
    acc.queue_depth_peak = acc.queue_depth_peak.max(timed.queue_depth_peak);
    if let Some(old) = std::mem::replace(&mut acc.last_dir, finished.dir) {
        discard(&old);
    }
    Ok(())
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One set-up: inputs, backend load, and the first round's engine, store
/// and sink or cluster. Returns the environment and the seconds it took.
fn set_up(args: &RunArgs, scratch: &Scratch) -> Result<(Env, f64), String> {
    let t0 = Instant::now();
    let env = Env::setup(args.workload, args.smoke, args.seed, scratch)?;
    let first = env.prepare(scratch)?;
    let seconds = t0.elapsed().as_secs_f64();
    if let Some(dir) = &first.dir {
        discard(dir);
    }
    Ok((env, seconds))
}

/// Set up again and again for about three seconds, at least twice and at
/// most 49 times: a cheap set-up is repeated more often, so every
/// workload's median is steady.
fn more_set_ups(args: &RunArgs, scratch: &Scratch) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 49 && (times.len() < 2 || started.elapsed().as_secs_f64() < 3.0) {
        times.push(set_up(args, scratch)?.1);
    }
    Ok(times)
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    // The engine runs the way the shell runs it: telemetry and the
    // program's own span trees on, no fault plan, no budget.
    nebula_obs::set_enabled(true);
    nebula_obs::trace::set_enabled(true);
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let w = args.workload;

    let (env, first_set_up) = set_up(args, &scratch)?;
    let (scale, n) = w.shape(args.smoke);
    let digest = env.inputs.digest();
    println!(
        "workload {} seed {:#x}: {} ({} tuples), {n} annotations/round, input_digest {digest:016x}",
        w.name(),
        args.seed,
        scale.label(),
        env.inputs.bundle.db.total_tuples(),
    );
    println!("  {}", config_line(args.smoke));

    // Reference first: its state is what every round is compared with, and
    // its throughput is the denominator of the tax metrics.
    let (reference, reference_state, reference_store) = env.reference(None);
    if reference.failed() > 0 {
        return Err(format!("the reference engine failed: {:?}", reference.first_error));
    }

    let mut tracer = Tracer::new(false);
    let mut warm_up = Rounds::default();
    round(&env, &scratch, &reference_state, &mut tracer, None, &mut warm_up)?;
    if let Some(dir) = warm_up.last_dir.take() {
        discard(&dir);
    }
    // One set-up, the reference pass and one round: the same work in every
    // run, however many set-ups and rounds the window then has room for.
    let peak_rss = peak_rss_mb();

    // Measured rounds. With tracing asked for, untraced and traced rounds
    // alternate so ambient noise hits both alike.
    let mut plain = Rounds::default();
    let mut traced = Rounds::default();
    let mut counters = Counters::default();
    let started = Instant::now();
    loop {
        round(&env, &scratch, &reference_state, &mut tracer, None, &mut plain)?;
        if args.trace {
            tracer.set_on(true);
            let folded = Some(&mut counters);
            round(&env, &scratch, &reference_state, &mut tracer, folded, &mut traced)?;
            tracer.set_on(false);
        }
        // Until the window has passed and the pool holds ten samples beyond
        // the tail percentile, in traced and untraced runs alike so both
        // are as long (a smoke run is one round, whatever it holds).
        let enough = ten_beyond(plain.samples(), TAIL_PERCENTILE);
        if args.smoke || (started.elapsed().as_secs_f64() >= args.seconds && enough) {
            break;
        }
    }

    // The further set-ups come last, where the page-cache and allocator
    // traffic they leave behind cannot reach a measured round.
    let mut setup_times = vec![first_set_up];
    if !args.smoke && !args.trace {
        setup_times.extend(more_set_ups(args, &scratch)?);
    }

    let mut problems = std::mem::take(&mut plain.problems);
    problems.append(&mut traced.problems);
    problems.append(&mut warm_up.problems);
    let mut metrics = Metrics::default();

    // The durable round must also recover to the reference state.
    if let Some(dir) = plain.last_dir.as_ref().filter(|_| w == Workload::DurablePool) {
        let (ms, replayed, state) = layers::recover_timed(dir, if args.trace { 5 } else { 1 })?;
        if state != reference_state {
            problems.push("the recovered state differs from the reference engine's".into());
        }
        if args.trace {
            metrics.set("durable.recover_ms", ms);
            metrics.set("durable.recover_replayed", replayed as f64);
        }
    }
    let quality = plain.quality.ok_or("no round ran")?;
    let wal_bytes = plain.wal_bytes.unwrap_or(0);
    println!(
        "  exact: F_N {:?} F_P {:?} expert tasks {:?} per annotation, {wal_bytes} WAL bytes per round",
        quality.f_n, quality.f_p, quality.m_f
    );
    if args.seed == DEFAULT_SEED && !args.smoke {
        let drifted = drift(&pins(w), digest, &quality, wal_bytes);
        problems
            .extend(drifted.into_iter().map(|d| format!("{d} — re-baseline in a benchmark issue")));
    }
    match w {
        Workload::PagedFit if plain.pool.misses + traced.pool.misses > 0 => {
            problems.push("paged-fit missed the pool; it must fit the whole file".into());
        }
        Workload::PagedChurn if plain.pool.evictions == 0 => {
            problems
                .push("paged-churn evicted nothing; the pool is not smaller than the file".into());
        }
        _ => {}
    }

    let table = if args.trace {
        per_layer(
            &env,
            &scratch,
            &mut metrics,
            LayerInputs {
                plain: &plain,
                traced: &traced,
                counters: &counters,
                tracer: &tracer,
                reference_throughput: reference.throughput(),
                reference_state: &reference_state,
                reference_store: &reference_store,
            },
            &mut problems,
        )?;
        PER_LAYER
    } else {
        end_to_end(&mut metrics, &plain, &quality, &setup_times, peak_rss);
        END_TO_END
    };
    if let Some(path) = &args.trace_out {
        std::fs::write(path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    for problem in &problems {
        eprintln!("spine: {}: OUTPUT CHECK FAILED: {problem}", w.name());
    }
    let rows = metrics.in_table(table)?;
    println!(
        "  rounds {} | annotations {attempted} failed {failed} | latency samples {} | output check {}",
        plain.throughputs.len() + traced.throughputs.len(),
        plain.samples(),
        if problems.is_empty() { "passed" } else { "FAILED" },
    );
    // How far the rounds of this run lie apart: the noise inside the window.
    let (slowest, fastest) =
        plain.throughputs.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
    println!("  round throughput {slowest:.1} to {fastest:.1} annotations/s");
    for (def, value) in &rows {
        println!("  {:<44} {value:>14.4} {}", def.name, def.unit);
    }
    Ok(RunResult { correct: problems.is_empty() && failed == 0, attempted, failed, metrics: rows })
}

fn end_to_end(
    m: &mut Metrics,
    plain: &Rounds,
    quality: &AssessmentReport,
    setups: &[f64],
    peak_rss: f64,
) {
    m.set("setup_s", median(setups));
    m.set("annotations_per_s", plain.throughput());
    m.set("commit_p50_ms", plain.p50_ms());
    // F_N and F_P are a few per cent at most here (0 on several workloads),
    // so a bound that is a share of the median would mean nothing; their
    // complements carry the same information and never read 0.
    m.set("quality_recall", 1.0 - quality.f_n);
    m.set("quality_precision", 1.0 - quality.f_p);
    m.set("expert_tasks_per_annotation", quality.m_f);
    m.set("peak_rss_mb", peak_rss);
}

struct LayerInputs<'a> {
    plain: &'a Rounds,
    traced: &'a Rounds,
    counters: &'a Counters,
    tracer: &'a Tracer,
    reference_throughput: f64,
    reference_state: &'a [u8],
    reference_store: &'a annostore::AnnotationStore,
}

/// Fill the per-layer table. Metrics of a layer the workload bypasses are
/// left unset and read 0.
fn per_layer(
    env: &Env,
    scratch: &Scratch,
    m: &mut Metrics,
    x: LayerInputs<'_>,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let w = env.workload;
    let c = x.counters;
    let n = x.traced.annotations();
    let rounds = x.traced.throughputs.len().max(1) as f64;
    let per_annotation = |name: &str| c.count(name) / n;
    let plain_throughput = x.plain.throughput().max(1e-9);
    let tax = x.reference_throughput / plain_throughput;

    m.set("workload.generate_s", env.breakdown.generate_s);
    m.set("harness.traced_annotations", n);
    m.set("commit_p95_ms", x.plain.tail_ms());
    m.set("harness.trace_overhead_ratio", x.traced.throughput() / plain_throughput);

    // The four stages, replayed from outside and as the program reports them.
    let [sigmap, adjust, querygen, execute] = layers::stage_replay(env);
    m.set("core.sigmap_us", sigmap);
    m.set("core.adjust_us", adjust);
    m.set("core.querygen_us", querygen);
    m.set("core.execute_us", execute);
    m.set("core.stage0_us", c.mean_us(nebula_obs::names::STAGE0_REGISTER));
    m.set("core.stage3_us", c.mean_us(nebula_obs::names::STAGE3_ROUTE));
    m.set("core.queries_per_annotation", per_annotation("core.queries_generated"));
    m.set("core.candidates_per_annotation", per_annotation("core.candidates"));
    m.set("core.self_share", c.share("stage") + c.share("core."));
    if let Some(quality) = x.traced.quality {
        m.set("core.false_negative_ratio", quality.f_n);
        m.set("core.false_positive_ratio", quality.f_p);
    }

    // Keyword search and the index under it.
    m.set("textsearch.configurations_per_annotation", per_annotation("textsearch.configurations"));
    m.set("textsearch.compiled_per_annotation", per_annotation("textsearch.compiled_queries"));
    m.set(
        "textsearch.tuples_inspected_per_annotation",
        per_annotation("textsearch.tuples_inspected"),
    );
    m.set(
        "textsearch.inspected_per_candidate",
        c.count("textsearch.tuples_inspected") / c.count("core.candidates").max(1.0),
    );
    m.set("relstore.index_probes_per_annotation", per_annotation("relstore.index_probes"));
    let (lookup_ns, postings, get_ns) = layers::index_probe(env);
    m.set("relstore.index_lookup_ns", lookup_ns);
    m.set("relstore.postings_per_probe", postings);
    m.set("relstore.get_ns", get_ns);
    m.set("annostore.edges_added_per_annotation", per_annotation("annostore.edges_added"));

    // Budgets and fault plans are off everywhere.
    for name in ["govern.budget_trips", "govern.faults_injected"] {
        m.set(name, c.count(name));
        if c.count(name) > 0.0 {
            problems.push(format!("{name} is {} with budgets and fault plans off", c.count(name)));
        }
    }

    match w {
        Workload::RamSeq => {
            // One extra round with telemetry and span trees off.
            nebula_obs::set_enabled(false);
            nebula_obs::trace::set_enabled(false);
            let (off, _, _) = env.reference(None);
            nebula_obs::set_enabled(true);
            nebula_obs::trace::set_enabled(true);
            m.set("obs.off_speedup", off.throughput() / plain_throughput);
        }
        Workload::PagedFit | Workload::PagedChurn => {
            let pool = x.traced.pool;
            m.set("relstore.snapshot_load_s", layers::ram_load_s(&env.inputs.bundle.db));
            m.set("pagestore.load_s", env.breakdown.page_load_s);
            m.set("pagestore.flush_ms", env.breakdown.page_flush_ms);
            m.set("pagestore.file_pages", f64::from(env.breakdown.file_pages));
            m.set("pagestore.write_backs", env.breakdown.write_backs as f64);
            m.set("pagestore.hits_per_annotation", pool.hits as f64 / n);
            m.set("pagestore.misses_per_annotation", pool.misses as f64 / n);
            m.set("pagestore.evictions_per_annotation", pool.evictions as f64 / n);
            m.set(
                "pagestore.hit_ratio",
                pool.hits as f64 / ((pool.hits + pool.misses).max(1)) as f64,
            );
            m.set("pagestore.tax_vs_ram", tax);
        }
        Workload::DurablePool => {
            let ops = layers::capture_ops(env);
            let replay =
                layers::append_replay(env, scratch, &ops, x.reference_state, x.reference_store)?;
            let sequential = layers::wal_batch_throughput(env, scratch, BURST, pool_wal_options())?;
            m.set("durable.append_us", replay.append_us);
            m.set("backup.bundle_ms", replay.bundle_ms);
            m.set("backup.restore_ms", replay.restore_ms);
            m.set("durable.tax_vs_ram", tax);
            m.set("durable.checkpoints_per_round", c.count("durable.checkpoints") / rounds);
            m.set("durable.checkpoint_ms", c.mean_us("durable.checkpoint") / 1e3);
            m.set("ingest.turn_wait_share", c.share("ingest.turn_wait"));
            m.set("ingest.queue_wait_share", c.share("ingest.queue_wait"));
            m.set("ingest.queue_depth_peak", x.traced.queue_depth_peak as f64);
            m.set("ingest.pool_speedup_vs_seq", plain_throughput / sequential.max(1e-9));
            let t0 = Instant::now();
            let bytes = annostore::snapshot::save(x.reference_store);
            m.set("annostore.snapshot_save_ms", t0.elapsed().as_secs_f64() * 1e3);
            m.set("annostore.snapshot_bytes", bytes.len() as f64);
        }
        Workload::Replicated => {
            let ops = layers::capture_ops(env);
            let wal_only =
                layers::wal_batch_throughput(env, scratch, CHUNK, cluster_config().options)?;
            m.set("replica.record_us", layers::record_replay(env, scratch, &ops)?);
            m.set("replica.ship_share", c.share("repl.ship"));
            m.set("replica.ack_share", c.share("repl.ack"));
            m.set("replica.quorum_share", c.share("repl.quorum"));
            m.set("replica.records_shipped_per_annotation", per_annotation("repl.records_shipped"));
            m.set("replica.tax_vs_wal", wal_only / plain_throughput);
        }
        Workload::Sharded => {
            m.set("shard.probes_per_annotation", per_annotation("shard.probes_sent"));
            m.set("shard.applies_per_annotation", per_annotation("shard.applies_sent"));
            m.set("shard.apply_retries", c.count("shard.apply_retries"));
            m.set("shard.ingest_us", x.tracer.mean_us("shard.ingest"));
            m.set("shard.tax_vs_unsharded", tax);
        }
    }
    if matches!(w, Workload::DurablePool | Workload::Replicated) {
        let records = c.count("durable.records_appended");
        m.set("durable.records_per_annotation", records / n);
        m.set("durable.bytes_per_record", c.count("durable.bytes_appended") / records.max(1.0));
        m.set("durable.wal_bytes_per_annotation", per_annotation("durable.bytes_appended"));
        m.set("durable.fsyncs_per_annotation", per_annotation("durable.fsyncs"));
    }
    // Self-time shares of the commit path, by the layer that owns the span.
    m.set("ingest.self_share", c.share("ingest."));
    m.set("durable.self_share", c.share("durable."));
    m.set("replica.self_share", c.share("repl."));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_default_seed_run_is_held_to_its_pins() {
        let pinned = pins(Workload::DurablePool);
        let quality = AssessmentReport {
            f_n: pinned.f_n,
            f_p: pinned.f_p,
            m_f: pinned.expert_tasks,
            m_h: 0.0,
        };
        assert!(drift(&pinned, pinned.input_digest, &quality, pinned.wal_bytes).is_empty());
        // One prediction routed differently in one of 306 annotations.
        let moved = AssessmentReport { m_f: quality.m_f + 1.0 / 306.0, ..quality };
        assert_eq!(drift(&pinned, pinned.input_digest, &moved, pinned.wal_bytes).len(), 1);
        assert_eq!(
            drift(&pinned, pinned.input_digest ^ 1, &quality, pinned.wal_bytes + 1).len(),
            2
        );
        // Every workload with a log pins what it logs.
        for w in Workload::ALL {
            let logs = matches!(w, Workload::DurablePool | Workload::Replicated);
            assert_eq!(pins(w).wal_bytes > 0, logs, "{}", w.name());
            assert!(pins(w).expert_tasks > 0.0, "{}", w.name());
        }
    }
}
