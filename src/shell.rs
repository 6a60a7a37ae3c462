//! An extended-SQL shell over an annotated database.
//!
//! The `[18]` engine Nebula builds on exposes annotation management
//! through SQL extensions; this module provides that interface for the
//! whole stack — querying, annotating (which triggers the proactive
//! pipeline), working the verification queue, and snapshotting state.
//!
//! ```text
//! TABLES;
//! SELECT gene WHERE family = 'F1' LIMIT 5;
//! SELECT gene WHERE name CONTAINS 'grpc';
//! ANNOTATE gene 'JW0013' 'related to yaaB under heat shock';
//! ANNOTATIONS gene 'JW0013';
//! PENDING;
//! VERIFY ATTACHMENT 3;    REJECT ATTACHMENT 4;
//! ACG;    PROFILE;
//! SAVE 'dump';            LOAD 'dump';
//! ```
//!
//! Commands are case-insensitive; the trailing semicolon is optional.
//! [`Shell::exec`] returns the rendered response, so the REPL example is a
//! thin stdin loop and tests drive the shell directly.

use crate::prelude::*;
use nebula_core::{CommitRule, MutationSink, StabilityConfig};
use nebula_replica::{Cluster, ClusterConfig, ClusterSink, SimTransport};
use relstore::{ConjunctiveQuery, Predicate};
use std::fmt;

/// Errors surfaced to the shell user.
#[derive(Debug)]
pub struct ShellError(pub String);

impl fmt::Display for ShellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ShellError {}

fn err(msg: impl Into<String>) -> ShellError {
    ShellError(msg.into())
}

/// The shell: owns the database, the annotation store, and the engine.
pub struct Shell {
    /// The relational database.
    pub db: Database,
    /// The annotation store.
    pub store: AnnotationStore,
    /// The proactive engine.
    pub nebula: Nebula,
    /// Worker-pool configuration used by ANNOTATE (see `SET WORKERS`).
    ingest: IngestConfig,
    /// The most recent ingest report, backing `SHOW HEALTH`.
    last_ingest: Option<IngestReport>,
    /// A second handle on the replication cluster while `SET REPLICAS`
    /// has one installed as the mutation sink (backs PROMOTE and
    /// SHOW REPLICATION / SHOW REPLICA).
    repl: Option<ClusterSink>,
    /// The sharded scatter-gather cluster while `SET SHARDS` is active
    /// (ANNOTATE routes through it; backs SHOW SHARDS).
    shards: Option<ShardCluster>,
    /// The paged storage backend while `SET STORAGE DISK` is active
    /// (rows and posting blocks page to disk; backs SHOW STORAGE).
    storage: Option<nebula_pagestore::PagedStorage>,
    /// Bundles captured by BACKUP this session (backs SHOW BACKUPS).
    backups: Vec<BackupRecord>,
    /// When the most recent BACKUP completed (backs the last-backup age
    /// in SHOW DURABILITY).
    last_backup: Option<std::time::Instant>,
}

/// One bundle captured by `BACKUP TO`, as `SHOW BACKUPS` reports it.
#[derive(Debug, Clone)]
struct BackupRecord {
    seq: u64,
    dir: String,
    oldest_lsn: u64,
    head_lsn: u64,
    files: usize,
    bytes: u64,
}

impl Shell {
    /// Shell over an existing stack. Turns on global telemetry so
    /// `SHOW METRICS` and `EXPLAIN ANNOTATION` have data to report.
    pub fn new(db: Database, store: AnnotationStore, nebula: Nebula) -> Shell {
        nebula_obs::set_enabled(true);
        nebula_obs::trace::set_enabled(true);
        // One worker by default: the shell is interactive, and `SET
        // WORKERS <n>` raises the pool when a session wants concurrency.
        let ingest = IngestConfig { workers: 1, ..IngestConfig::default() };
        Shell {
            db,
            store,
            nebula,
            ingest,
            last_ingest: None,
            repl: None,
            shards: None,
            storage: None,
            backups: Vec::new(),
            last_backup: None,
        }
    }

    /// Shell over a freshly generated synthetic dataset.
    pub fn with_dataset(spec: &DatasetSpec, seed: u64) -> Shell {
        let bundle = generate_dataset(spec, seed);
        let mut nebula = Nebula::new(
            NebulaConfig {
                bounds: VerificationBounds::new(0.4, 0.85),
                stability: StabilityConfig::default(),
                ..Default::default()
            },
            bundle.meta.clone(),
        );
        nebula.bootstrap_acg(&bundle.annotations);
        Shell::new(bundle.db, bundle.annotations, nebula)
    }

    /// Execute one command line, returning the rendered response.
    pub fn exec(&mut self, line: &str) -> Result<String, ShellError> {
        let cleaned = line.trim().trim_end_matches(';').trim();
        if cleaned.is_empty() {
            return Ok(String::new());
        }
        let tokens = lex(cleaned)?;
        let verb = tokens.first().ok_or_else(|| err("empty command"))?.to_uppercase();
        match verb.as_str() {
            "HELP" => Ok(HELP.to_string()),
            "TABLES" => self.tables(),
            "SELECT" => self.select(&tokens[1..]),
            "DELETE" => self.delete(&tokens[1..]),
            "ANNOTATE" => self.annotate(&tokens[1..]),
            "ANNOTATIONS" => self.annotations(&tokens[1..]),
            "PENDING" => self.pending(),
            "VERIFY" | "REJECT" => self.resolve(cleaned),
            "ACG" => Ok(format!(
                "ACG: {} nodes, {} edges, stable = {}",
                self.nebula.acg().node_count(),
                self.nebula.acg().edge_count(),
                self.nebula.acg().is_stable()
            )),
            "PROFILE" => {
                let p = self.nebula.profile();
                let rows: Vec<String> = p
                    .iter()
                    .map(|(h, c)| format!("  {h} hops: {c} ({:.0}%)", p.coverage(h) * 100.0))
                    .collect();
                Ok(if rows.is_empty() {
                    "profile: empty".into()
                } else {
                    format!("profile ({} points):\n{}", p.total(), rows.join("\n"))
                })
            }
            "SAVE" => self.save(&tokens[1..]),
            "LOAD" => self.load(&tokens[1..]),
            "CHECKPOINT" => self.checkpoint(),
            "RECOVER" => self.recover(&tokens[1..]),
            "BACKUP" => self.backup(&tokens[1..]),
            "RESTORE" => self.restore(&tokens[1..]),
            "PROMOTE" => self.promote(&tokens[1..]),
            "SCRUB" => self.scrub(&tokens[1..]),
            "REJOIN" => self.rejoin(&tokens[1..]),
            "SET" => self.set(&tokens[1..]),
            "SHOW" => self.show(&tokens[1..]),
            "EXPLAIN" => self.explain(&tokens[1..]),
            "TRACE" => self.trace(&tokens[1..]),
            other => Err(err(format!("unknown command `{other}` — try HELP"))),
        }
    }

    fn tables(&self) -> Result<String, ShellError> {
        let mut out = Vec::new();
        for (tid, name) in self.db.catalog().iter() {
            let table = self.db.table(tid).expect("catalog consistent");
            let cols: Vec<&str> =
                table.schema().iter_columns().map(|(_, d)| d.name.as_str()).collect();
            out.push(format!("{name} ({} rows): {}", table.len(), cols.join(", ")));
        }
        Ok(out.join("\n"))
    }

    /// `SELECT <table> [COLUMNS a,b,...] [WHERE <col> (=|CONTAINS) <val>]*
    /// [ORDER BY <col> [ASC|DESC]] [LIMIT n]`
    fn select(&self, args: &[String]) -> Result<String, ShellError> {
        use relstore::{Order, SelectStatement};
        let table_name = args.first().ok_or_else(|| err("SELECT needs a table"))?;
        let tid = self
            .db
            .catalog()
            .resolve(table_name)
            .ok_or_else(|| err(format!("unknown table `{table_name}`")))?;
        let schema = self.db.table(tid).expect("resolved").schema().clone();
        let column = |name: &str| {
            schema.column_id(name).ok_or_else(|| err(format!("unknown column `{name}`")))
        };

        let mut stmt = SelectStatement::new(ConjunctiveQuery::scan(tid)).limit(20);
        let mut i = 1;
        while i < args.len() {
            match args[i].to_uppercase().as_str() {
                "COLUMNS" => {
                    let list = args.get(i + 1).ok_or_else(|| err("COLUMNS needs a list"))?;
                    let cols =
                        list.split(',').map(|c| column(c.trim())).collect::<Result<Vec<_>, _>>()?;
                    stmt = stmt.project(cols);
                    i += 2;
                }
                "WHERE" | "AND" => {
                    let col = args.get(i + 1).ok_or_else(|| err("WHERE needs a column"))?;
                    let op = args.get(i + 2).ok_or_else(|| err("WHERE needs an operator"))?;
                    let val = args.get(i + 3).ok_or_else(|| err("WHERE needs a value"))?;
                    let cid = column(col)?;
                    let ty = schema.column(cid).expect("resolved").data_type;
                    let pred = match op.to_uppercase().as_str() {
                        "=" => {
                            let value = relstore::Value::parse_as(val, ty)
                                .ok_or_else(|| err(format!("`{val}` is not a {ty}")))?;
                            Predicate::Eq(cid, value)
                        }
                        "CONTAINS" => Predicate::ContainsToken(cid, val.to_lowercase()),
                        other => return Err(err(format!("unknown operator `{other}`"))),
                    };
                    stmt.query = stmt.query.clone().with_predicate(pred);
                    i += 4;
                }
                "ORDER" => {
                    if args.get(i + 1).map(|s| s.to_uppercase()) != Some("BY".into()) {
                        return Err(err("expected ORDER BY <col>"));
                    }
                    let col = args.get(i + 2).ok_or_else(|| err("ORDER BY needs a column"))?;
                    let cid = column(col)?;
                    let (order, skip) = match args.get(i + 3).map(|s| s.to_uppercase()) {
                        Some(s) if s == "DESC" => (Order::Desc, 4),
                        Some(s) if s == "ASC" => (Order::Asc, 4),
                        _ => (Order::Asc, 3),
                    };
                    stmt = stmt.order_by(cid, order);
                    i += skip;
                }
                "LIMIT" => {
                    let n = args
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("LIMIT needs a number"))?;
                    stmt = stmt.limit(n);
                    i += 2;
                }
                other => return Err(err(format!("unexpected token `{other}`"))),
            }
        }
        let result = stmt.execute(&self.db).map_err(|e| err(e.to_string()))?;
        let mut out = vec![result.columns.join(" | ")];
        for row in &result.rows {
            // Cell-level annotations respect the projection, exactly as
            // query-time propagation does.
            let notes =
                annostore::propagate(&self.store, &[row.tuple], result.projection.as_deref())
                    .pop()
                    .map(|p| p.annotations.len())
                    .unwrap_or(0);
            let cells: Vec<String> = row.values.iter().map(|v| v.to_string()).collect();
            out.push(format!("{}  [{notes} annotations]", cells.join(" | ")));
        }
        out.push(format!("({} rows)", result.rows.len()));
        Ok(out.join("\n"))
    }

    /// `DELETE <table> '<pk>'` — delete the row and clean every annotation
    /// layer (edges, ACG, pending tasks).
    fn delete(&mut self, args: &[String]) -> Result<String, ShellError> {
        let [table, key] = args else {
            return Err(err("usage: DELETE <table> '<pk>'"));
        };
        if self.shards.is_some() {
            return Err(err(
                "DELETE is unavailable while SET SHARDS is active — SET SHARDS OFF first",
            ));
        }
        let tuple = self.resolve_key(table, key)?;
        // Log before apply: the deletion reaches the WAL (when durability
        // is on) before either store mutates.
        let affected =
            self.nebula.on_tuple_deleted(&mut self.store, tuple).map_err(|e| err(e.to_string()))?;
        self.db.delete(tuple);
        Ok(format!("deleted {table} '{key}'; {} annotation(s) lost an attachment", affected.len()))
    }

    /// Resolve `<table> '<pk>'` to a live tuple id.
    fn resolve_key(&self, table: &str, key: &str) -> Result<relstore::TupleId, ShellError> {
        let tid = self
            .db
            .catalog()
            .resolve(table)
            .ok_or_else(|| err(format!("unknown table `{table}`")))?;
        let t = self.db.table(tid).expect("resolved");
        let pk_type = t
            .schema()
            .primary_key
            .and_then(|pk| t.schema().column(pk))
            .map(|d| d.data_type)
            .ok_or_else(|| err(format!("table `{table}` has no primary key")))?;
        let key_value = relstore::Value::parse_as(key, pk_type)
            .ok_or_else(|| err(format!("`{key}` is not a valid key")))?;
        t.lookup_key(&key_value).ok_or_else(|| err(format!("no `{table}` row with key `{key}`")))
    }

    /// `ANNOTATE <table> '<pk>' '<text>'` — attach a new annotation and run
    /// the proactive pipeline through the ingest worker pool (sized by
    /// `SET WORKERS`; `SHOW HEALTH` reports on the run afterwards).
    fn annotate(&mut self, args: &[String]) -> Result<String, ShellError> {
        let [table, key, text] = args else {
            return Err(err("usage: ANNOTATE <table> '<pk>' '<text>'"));
        };
        let focal = self.resolve_key(table, key)?;

        if let Some(cluster) = &mut self.shards {
            let annotation = Annotation::new(text.clone());
            let outcome = cluster.ingest(&annotation, &[focal]).map_err(|e| err(e.to_string()))?;
            // Mirror the merged shard state back into the shell's store so
            // ANNOTATIONS / SELECT keep reading the single source of truth.
            self.store = cluster.merged_store().map_err(|e| err(e.to_string()))?;
            let mut out = vec![format!(
                "annotation {} attached to {table} '{key}' via shard {}; {} queries generated",
                outcome.annotation,
                cluster.router().route(&[focal]),
                outcome.queries.len()
            )];
            for (t, conf) in &outcome.accepted {
                out.push(format!(
                    "  auto-accepted (conf {conf:.2}): {}",
                    self.db.get(*t).expect("live").render()
                ));
            }
            if !outcome.pending.is_empty() {
                out.push(format!(
                    "  {} candidates pending expert verification on their home shard",
                    outcome.pending.len()
                ));
            }
            if !outcome.rejected.is_empty() {
                out.push(format!(
                    "  {} low-confidence candidates auto-rejected",
                    outcome.rejected.len()
                ));
            }
            for d in &outcome.degradations {
                out.push(format!("  degraded: {d}"));
            }
            return Ok(out.join("\n"));
        }

        let item = IngestItem::new(Annotation::new(text.clone()), vec![focal]);
        let report =
            ingest_batch(&mut self.nebula, &self.db, &mut self.store, &[item], &self.ingest);
        let result = self.render_annotate(&report, table, key);
        self.last_ingest = Some(report);
        result
    }

    /// Render the single-item ingest report behind ANNOTATE. Sheds and
    /// quarantines surface as shell errors (the session survives either
    /// way); clean commits render the familiar outcome summary.
    fn render_annotate(
        &self,
        report: &IngestReport,
        table: &str,
        key: &str,
    ) -> Result<String, ShellError> {
        if let Some(shed) = report.sheds.first() {
            return Err(err(format!("annotation shed ({})", shed.reason)));
        }
        let entry = report.batch.entries.first().ok_or_else(|| err("ingest produced no result"))?;
        if let Some(reason) = &entry.quarantine {
            return Err(err(reason.to_string()));
        }
        let outcome =
            entry.outcome.as_ref().ok_or_else(|| err("ingest entry carries no outcome"))?;
        let mut out = vec![format!(
            "annotation {} attached to {table} '{key}'; {} queries generated",
            outcome.annotation,
            outcome.queries.len()
        )];
        for (t, conf) in &outcome.accepted {
            out.push(format!(
                "  auto-accepted (conf {conf:.2}): {}",
                self.db.get(*t).expect("live").render()
            ));
        }
        for vid in &outcome.pending {
            let task = self.nebula.queue().get(*vid).expect("queued");
            out.push(format!(
                "  pending task {vid} (conf {:.2}): {}",
                task.confidence,
                self.db.get(task.tuple).expect("live").render()
            ));
        }
        if !outcome.rejected.is_empty() {
            out.push(format!(
                "  {} low-confidence candidates auto-rejected",
                outcome.rejected.len()
            ));
        }
        for d in &outcome.degradations {
            out.push(format!("  degraded: {d}"));
        }
        Ok(out.join("\n"))
    }

    /// `ANNOTATIONS <table> '<pk>'`
    fn annotations(&self, args: &[String]) -> Result<String, ShellError> {
        let [table, key] = args else {
            return Err(err("usage: ANNOTATIONS <table> '<pk>'"));
        };
        let tuple = self.resolve_key(table, key)?;
        let notes = self.store.annotations_of(tuple);
        if notes.is_empty() {
            return Ok("(no annotations)".into());
        }
        Ok(notes
            .iter()
            .map(|aid| {
                let a = self.store.annotation(*aid).expect("stored");
                let who = a.author.as_deref().unwrap_or("-");
                format!("{aid} [{who}]: {}", a.text)
            })
            .collect::<Vec<_>>()
            .join("\n"))
    }

    fn pending(&self) -> Result<String, ShellError> {
        if self.nebula.queue().is_empty() {
            return Ok("(no pending verification tasks)".into());
        }
        Ok(self
            .nebula
            .queue()
            .iter()
            .map(|task| {
                let target = self
                    .db
                    .get(task.tuple)
                    .map(|t| t.render())
                    .unwrap_or_else(|| task.tuple.to_string());
                format!(
                    "task {} (conf {:.2}): attach {} to {target}\n    evidence: {}",
                    task.vid,
                    task.confidence,
                    task.annotation,
                    task.evidence.join("; ")
                )
            })
            .collect::<Vec<_>>()
            .join("\n"))
    }

    fn resolve(&mut self, line: &str) -> Result<String, ShellError> {
        let task =
            self.nebula.execute_command(&mut self.store, line).map_err(|e| err(e.to_string()))?;
        Ok(format!("task {} resolved ({} ↔ {})", task.vid, task.annotation, task.tuple))
    }

    /// `SET BUDGET ... | SET FAULTS ... | SET DURABILITY ... |
    /// SET REPLICAS ... | SET WORKERS <n>` — configure the execution
    /// budget on the engine, the fault plan on this thread, write-ahead
    /// durability or WAL-shipping replication on the engine, or the
    /// ingest worker-pool size.
    fn set(&mut self, args: &[String]) -> Result<String, ShellError> {
        match args.first().map(|s| s.to_uppercase()).as_deref() {
            Some("BUDGET") => self.set_budget(&args[1..]),
            Some("FAULTS") => self.set_faults(&args[1..]),
            Some("DURABILITY") => self.set_durability(&args[1..]),
            Some("REPLICAS") => self.set_replicas(&args[1..]),
            Some("WORKERS") => self.set_workers(&args[1..]),
            Some("SHARDS") => self.set_shards(&args[1..]),
            Some("STORAGE") => self.set_storage(&args[1..]),
            Some("ARCHIVE") => self.set_archive(&args[1..]),
            _ => Err(err("usage: SET BUDGET ... | SET FAULTS ... | SET DURABILITY ... | \
                 SET REPLICAS ... | SET WORKERS <n> | SET SHARDS <n> | OFF | \
                 SET STORAGE DISK '<dir>' [POOL <frames>] | MEM | SET ARCHIVE '<dir>'")),
        }
    }

    /// Open the page file in `dir` behind a pool of `frames`, rebuild the
    /// database from `snapshot` onto it, and flush. The caller takes the
    /// snapshot: `scrub_pages` must read the live state before it deletes
    /// the file this opens afresh.
    fn load_onto_pages(
        &mut self,
        dir: &std::path::Path,
        frames: usize,
        snapshot: &[u8],
    ) -> Result<nebula_pagestore::StorageMetrics, ShellError> {
        let store =
            nebula_pagestore::PagedStorage::open(dir, frames).map_err(|e| err(e.to_string()))?;
        self.db = relstore::snapshot::load_with(snapshot, Some(std::sync::Arc::new(store.clone())))
            .map_err(|e| err(e.to_string()))?;
        store.flush_pages().map_err(|e| err(e.to_string()))?;
        let m = store.metrics();
        self.storage = Some(store);
        Ok(m)
    }

    /// `SET STORAGE DISK '<dir>' [POOL <frames>] | MEM` — rebuild the
    /// database onto the crash-safe paged backend rooted at `<dir>`
    /// (rows and inverted-index posting blocks move into a checksummed
    /// page file behind a buffer pool of `<frames>` pages), or back into
    /// RAM. The logical content is identical either way: the snapshot
    /// fingerprint cannot tell the backends apart.
    fn set_storage(&mut self, args: &[String]) -> Result<String, ShellError> {
        const USAGE: &str = "usage: SET STORAGE DISK '<dir>' [POOL <frames>] | MEM";
        match args.first().map(|s| s.to_uppercase()).as_deref() {
            Some("MEM") => {
                let Some(old) = self.storage.take() else {
                    return Ok("storage: already mem".into());
                };
                old.flush_pages().map_err(|e| err(e.to_string()))?;
                let bytes = relstore::snapshot::save(&self.db);
                self.db = relstore::snapshot::load(&bytes).map_err(|e| err(e.to_string()))?;
                Ok("storage: mem (rows and postings rebuilt in RAM; \
                    page file keeps its last flushed state)"
                    .into())
            }
            Some("DISK") => {
                if self.shards.is_some() {
                    return Err(err("SET STORAGE needs SET SHARDS OFF first"));
                }
                let dir = args.get(1).ok_or_else(|| err(USAGE))?;
                let mut frames = nebula_pagestore::pool::DEFAULT_FRAMES;
                if let Some(tok) = args.get(2) {
                    if tok.to_uppercase() != "POOL" {
                        return Err(err(USAGE));
                    }
                    frames = args
                        .get(3)
                        .and_then(|s| s.parse().ok())
                        .filter(|n: &usize| *n >= nebula_pagestore::pool::MIN_FRAMES)
                        .ok_or_else(|| {
                            err(format!(
                                "POOL needs a frame count >= {}",
                                nebula_pagestore::pool::MIN_FRAMES
                            ))
                        })?;
                }
                let bytes = relstore::snapshot::save(&self.db);
                let m = self.load_onto_pages(std::path::Path::new(dir), frames, &bytes)?;
                Ok(format!(
                    "storage: disk ({dir}, pool {frames} frames); \
                     {} pages flushed at watermark {}",
                    m.page_count, m.watermark
                ))
            }
            _ => Err(err(USAGE)),
        }
    }

    /// `SET SHARDS <n> | OFF` — partition the engine into `n` shards
    /// behind the deterministic focal-hash router (ANNOTATE then
    /// scatter-gathers keyword search across them), or collapse the
    /// merged shard state back onto the single-engine path.
    fn set_shards(&mut self, args: &[String]) -> Result<String, ShellError> {
        const USAGE: &str = "usage: SET SHARDS <n>  (n >= 1) | OFF";
        match args.first().map(|s| s.to_uppercase()).as_deref() {
            Some("OFF") => match self.shards.take() {
                Some(cluster) => {
                    self.store = cluster.merged_store().map_err(|e| err(e.to_string()))?;
                    Ok(format!(
                        "shards: off ({} shard slices merged back into one store)",
                        cluster.shards()
                    ))
                }
                None => Ok("shards: already off".into()),
            },
            Some(tok) => {
                if self.nebula.mutation_sink().is_some() {
                    return Err(err("SET SHARDS needs the single-engine sink detached first — \
                         run SET DURABILITY OFF / SET REPLICAS OFF"));
                }
                let n: usize =
                    tok.parse().ok().filter(|n: &usize| *n >= 1).ok_or_else(|| err(USAGE))?;
                let cluster = ShardCluster::new(
                    &self.db,
                    &self.store,
                    self.nebula.meta(),
                    self.nebula.config(),
                    ShardConfig::new(n),
                )
                .map_err(|e| err(e.to_string()))?;
                let shards = cluster.shards();
                self.shards = Some(cluster);
                Ok(format!(
                    "shards: {shards} (focal-hash router over {} slots; \
                     ANNOTATE now scatter-gathers)",
                    nebula_ingest::SLOTS
                ))
            }
            None => Err(err(USAGE)),
        }
    }

    /// `SET WORKERS <n>` — size the worker pool ANNOTATE runs through.
    /// Any positive count gives byte-identical results for a fixed fault
    /// seed; more workers only change how overload is absorbed.
    fn set_workers(&mut self, args: &[String]) -> Result<String, ShellError> {
        let n: usize = args
            .first()
            .and_then(|s| s.parse().ok())
            .filter(|n| *n > 0)
            .ok_or_else(|| err("usage: SET WORKERS <n>  (n >= 1)"))?;
        self.ingest.workers = n;
        Ok(format!("workers: {n}"))
    }

    /// `SET DURABILITY '<dir>' [EVERY <n>] [SYNC BATCH] [ARCHIVE '<adir>']
    /// | OFF` — start logging every pipeline mutation to a write-ahead
    /// log in `<dir>` (checkpointing every `<n>` records, archiving
    /// sealed segments into `<adir>` for BACKUP), or detach the log.
    fn set_durability(&mut self, args: &[String]) -> Result<String, ShellError> {
        const USAGE: &str =
            "usage: SET DURABILITY '<dir>' [EVERY <n>] [SYNC BATCH] [ARCHIVE '<adir>'] | OFF";
        let first = args.first().ok_or_else(|| err(USAGE))?;
        if first.to_uppercase() == "OFF" {
            self.repl = None;
            return match self.nebula.take_mutation_sink() {
                Some(_) => Ok("durability: off (log closed; directory keeps its state)".into()),
                None => Ok("durability: already off".into()),
            };
        }
        if self.shards.is_some() {
            return Err(err("SET DURABILITY needs SET SHARDS OFF first"));
        }
        let mut options = DurabilityOptions::default();
        let mut archive: Option<String> = None;
        let mut i = 1;
        while i < args.len() {
            match args[i].to_uppercase().as_str() {
                "ARCHIVE" => {
                    let dir = args.get(i + 1).ok_or_else(|| err("ARCHIVE needs a directory"))?;
                    archive = Some(dir.clone());
                    i += 2;
                }
                "EVERY" => {
                    let n: usize = args
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .filter(|n| *n > 0)
                        .ok_or_else(|| err("EVERY needs a positive number"))?;
                    options.checkpoint_every = Some(n);
                    i += 2;
                }
                "SYNC" => {
                    match args.get(i + 1).map(|s| s.to_uppercase()).as_deref() {
                        Some("BATCH") => options.sync = SyncPolicy::Batch,
                        Some("EVERY") => options.sync = SyncPolicy::EveryRecord,
                        _ => return Err(err("usage: SYNC BATCH | SYNC EVERY")),
                    }
                    i += 2;
                }
                _ => return Err(err(USAGE)),
            }
        }
        let mut durability =
            Durability::begin(std::path::Path::new(first), &self.db, &self.store, options)
                .map_err(|e| err(e.to_string()))?;
        if let Some(adir) = &archive {
            durability
                .set_archive(std::path::Path::new(adir), 1)
                .map_err(|e| err(e.to_string()))?;
        }
        let summary =
            format!("durability: on ({}); initial checkpoint written", durability.describe());
        self.repl = None;
        self.nebula.set_mutation_sink(Some(Box::new(durability)));
        Ok(summary)
    }

    /// `SET ARCHIVE '<dir>'` — start archiving the installed sink's
    /// sealed WAL segments (and a base checkpoint) into `<dir>`. Works on
    /// both the single-log sink and the replicated cluster; BACKUP needs
    /// this on so a restorable history exists to bundle.
    fn set_archive(&mut self, args: &[String]) -> Result<String, ShellError> {
        let dir = args.first().ok_or_else(|| err("usage: SET ARCHIVE '<dir>'"))?;
        let sink = self.nebula.mutation_sink_mut().ok_or_else(|| {
            err("durability is off — SET DURABILITY '<dir>' or SET REPLICAS first")
        })?;
        sink.set_archive(std::path::Path::new(dir)).map_err(|e| err(e.to_string()))?;
        Ok(format!(
            "archive: on ('{dir}'); every checkpoint seals its WAL run there before truncating"
        ))
    }

    /// `BACKUP TO '<dir>'` — checkpoint the sink (sealing the live WAL
    /// run into the archive) and capture a verified bundle: base
    /// checkpoints, archived segments, and a signed manifest of per-file
    /// digests. The bundle restores on a machine that never saw this one.
    fn backup(&mut self, args: &[String]) -> Result<String, ShellError> {
        const USAGE: &str = "usage: BACKUP TO '<dir>'";
        if args.first().map(|s| s.to_uppercase()).as_deref() != Some("TO") {
            return Err(err(USAGE));
        }
        let dir = args.get(1).ok_or_else(|| err(USAGE))?.clone();
        let sink = self.nebula.mutation_sink_mut().ok_or_else(|| {
            err("durability is off — SET DURABILITY '<dir>' ARCHIVE '<adir>' first")
        })?;
        let archive_dir = sink.archive_dir().ok_or_else(|| {
            err("archiving is off — SET ARCHIVE '<dir>' first (BACKUP bundles the archive)")
        })?;
        sink.checkpoint(&self.db, &self.store).map_err(|e| err(e.to_string()))?;
        let seq = self.backups.len() as u64 + 1;
        let spec = BundleSpec {
            archive_dir,
            bundle_dir: std::path::PathBuf::from(&dir),
            pages: None,
            created_seq: seq,
        };
        let manifest = nebula_backup::create_bundle(&spec).map_err(|e| err(e.to_string()))?;
        let bytes: u64 = manifest.entries.iter().map(|e| e.len).sum();
        let record = BackupRecord {
            seq,
            dir,
            oldest_lsn: manifest.oldest_lsn,
            head_lsn: manifest.head_lsn,
            files: manifest.entries.len(),
            bytes,
        };
        let summary = format!(
            "backup: captured '{}' — restorable lsn range [{}, {}], {} file(s), {} bytes (seq {})",
            record.dir, record.oldest_lsn, record.head_lsn, record.files, record.bytes, record.seq
        );
        self.backups.push(record);
        self.last_backup = Some(std::time::Instant::now());
        Ok(summary)
    }

    /// `RESTORE FROM '<dir>' [AS OF LSN <n>]` — verify the bundle against
    /// its signed manifest, rebuild the state from the newest bundled
    /// checkpoint at or below the target, and replay archived WAL to the
    /// target LSN (the bundle's head when no AS OF is given). Replaces
    /// the live db/store and rebuilds the ACG; any installed sink is
    /// detached so the restored state is not logged over the old history.
    fn restore(&mut self, args: &[String]) -> Result<String, ShellError> {
        const USAGE: &str = "usage: RESTORE FROM '<dir>' [AS OF LSN <n>]";
        if args.first().map(|s| s.to_uppercase()).as_deref() != Some("FROM") {
            return Err(err(USAGE));
        }
        let dir = args.get(1).ok_or_else(|| err(USAGE))?;
        let as_of = match args.get(2) {
            None => None,
            Some(tok)
                if tok.to_uppercase() == "AS"
                    && args.get(3).map(|s| s.to_uppercase()).as_deref() == Some("OF")
                    && args.get(4).map(|s| s.to_uppercase()).as_deref() == Some("LSN") =>
            {
                let n: u64 = args
                    .get(5)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("AS OF LSN needs a number"))?;
                Some(n)
            }
            _ => return Err(err(USAGE)),
        };
        if self.shards.is_some() {
            return Err(err("RESTORE needs SET SHARDS OFF first"));
        }
        let restored = nebula_backup::restore(std::path::Path::new(dir), as_of)
            .map_err(|e| err(e.to_string()))?;
        self.repl = None;
        let detached = self.nebula.take_mutation_sink().is_some();
        self.db = restored.db;
        self.store = restored.store;
        self.nebula.bootstrap_acg(&self.store);
        let fenced = if restored.fenced > 0 {
            format!(", {} fenced (deposed-epoch records refused)", restored.fenced)
        } else {
            String::new()
        };
        let mut out = vec![format!(
            "restored to lsn {} from '{dir}' (manifest verified; base watermark {}, \
             {} replayed, {} skipped{fenced}); {} tuples, {} annotations; ACG rebuilt",
            restored.applied,
            restored.base_watermark,
            restored.replayed,
            restored.skipped,
            self.db.total_tuples(),
            self.store.annotation_count(),
        )];
        if detached {
            out.push(
                "  durability sink detached — SET DURABILITY into a fresh directory to \
                 resume logging"
                    .into(),
            );
        }
        Ok(out.join("\n"))
    }

    /// `SET REPLICAS <n> '<dir>' [QUORUM <q>] [NETFAULTS <seed> <rate>]
    /// | OFF` — stand up a single-primary WAL-shipping cluster with `n`
    /// replicas rooted at `<dir>` and route every pipeline mutation
    /// through it, optionally demanding `q` acknowledgements per record
    /// (ack-quorum) and injecting seeded transport faults. OFF detaches
    /// the cluster.
    fn set_replicas(&mut self, args: &[String]) -> Result<String, ShellError> {
        const USAGE: &str =
            "usage: SET REPLICAS <n> '<dir>' [QUORUM <q>] [NETFAULTS <seed> <rate>] | OFF";
        let first = args.first().ok_or_else(|| err(USAGE))?;
        if first.to_uppercase() == "OFF" {
            self.repl = None;
            return match self.nebula.take_mutation_sink() {
                Some(_) => {
                    Ok("replication: off (cluster detached; directories keep their state)".into())
                }
                None => Ok("replication: already off".into()),
            };
        }
        if self.shards.is_some() {
            return Err(err("SET REPLICAS needs SET SHARDS OFF first"));
        }
        let n: usize = first
            .parse()
            .ok()
            .filter(|n| *n > 0)
            .ok_or_else(|| err("SET REPLICAS needs a replica count >= 1"))?;
        let dir = args.get(1).ok_or_else(|| err(USAGE))?;
        let mut config = ClusterConfig::default();
        let mut plan: Option<FaultPlan> = None;
        let mut i = 2;
        while i < args.len() {
            match args[i].to_uppercase().as_str() {
                "QUORUM" => {
                    let q: usize = args
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .filter(|q| (1..=n).contains(q))
                        .ok_or_else(|| {
                            err("QUORUM needs a count between 1 and the replica count")
                        })?;
                    config.rule = CommitRule::Quorum(q);
                    i += 2;
                }
                "NETFAULTS" => {
                    let seed: u64 = args
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("NETFAULTS needs a seed"))?;
                    let rate: f64 = args
                        .get(i + 2)
                        .and_then(|s| s.parse().ok())
                        .filter(|r| (0.0..=1.0).contains(r))
                        .ok_or_else(|| err("NETFAULTS needs a rate in [0, 1]"))?;
                    plan = Some(FaultPlan::new(seed).with_net(rate, rate, rate, rate));
                    i += 3;
                }
                _ => return Err(err(USAGE)),
            }
        }
        // Node 0 is the primary; replicas are nodes 1..=n.
        let transport: Box<SimTransport> = match plan {
            Some(p) => Box::new(SimTransport::new(n + 1, p)),
            None => Box::new(SimTransport::reliable(n + 1)),
        };
        let cluster =
            Cluster::new(std::path::Path::new(dir), &self.db, &self.store, n, transport, config)
                .map_err(|e| err(e.to_string()))?;
        let st = cluster.status();
        let summary = format!(
            "replication: on (epoch {} rule {} replicas {}); bootstrap checkpoints shipped",
            st.epoch, st.rule, st.replicas
        );
        let sink = ClusterSink::new(cluster);
        self.repl = Some(sink.handle());
        self.nebula.set_mutation_sink(Some(Box::new(sink)));
        Ok(summary)
    }

    /// `PROMOTE [<id>]` — deterministic failover: promote replica `id`
    /// (or the best live candidate) to primary under a bumped epoch, then
    /// rebase the shell's live state onto the new primary. Any suffix the
    /// old primary held beyond the promoted replica's applied LSN is
    /// discarded — that is the failover contract — and the deposed
    /// primary's future writes are fenced.
    fn promote(&mut self, args: &[String]) -> Result<String, ShellError> {
        let sink = self
            .repl
            .as_ref()
            .ok_or_else(|| err("replication is off — SET REPLICAS <n> '<dir>' first"))?
            .handle();
        let image;
        let id;
        let epoch;
        let applied;
        {
            let mut cluster = sink.lock();
            id = match args.first() {
                Some(tok) => {
                    tok.parse().map_err(|_| err(format!("`{tok}` is not a replica id")))?
                }
                None => cluster
                    .best_failover_candidate()
                    .ok_or_else(|| err("no live replica to promote"))?,
            };
            cluster.promote(id).map_err(|e| err(e.to_string()))?;
            let (db, store) = cluster.primary().shadow();
            image = nebula_durable::checkpoint::encode(0, db, store);
            epoch = cluster.primary().epoch();
            applied = cluster.primary().last_lsn();
        }
        let (_, db, store) =
            nebula_durable::checkpoint::decode(&image).map_err(|e| err(e.to_string()))?;
        self.db = db;
        self.store = store;
        self.nebula.bootstrap_acg(&self.store);
        Ok(format!(
            "promoted replica {id} to primary (epoch {epoch}, lsn {applied}); \
             shell state rebased onto the new primary; ACG rebuilt"
        ))
    }

    /// `SHOW REPLICATION` — the cluster posture: epoch, commit rule,
    /// per-replica ack/ship positions, divergences, deposed primaries.
    fn show_replication(&self) -> Result<String, ShellError> {
        let Some(sink) = &self.repl else {
            return Ok("replication: off".into());
        };
        let cluster = sink.lock();
        let st = cluster.status();
        let mut out = vec![format!(
            "replication: epoch {} rule {} ({} replica(s), {} wedged) max lag {}{}",
            st.epoch,
            st.rule,
            st.replicas,
            st.wedged_replicas,
            st.max_lag,
            if st.lag_budget_exceeded { "  LAGGING" } else { "" },
        )];
        out.push(format!(
            "  primary: node {} at lsn {}",
            cluster.primary().node(),
            cluster.primary().last_lsn()
        ));
        out.push(format!("  transport: {}", cluster.describe_transport()));
        for row in cluster.primary().peer_rows() {
            out.push(format!(
                "  replica {}: acked lsn {} / shipped {}{}",
                row.id,
                row.acked,
                row.shipped,
                if row.wedged { "  WEDGED" } else { "" },
            ));
        }
        for d in cluster.primary().divergences() {
            out.push(format!(
                "  divergence: replica {} at lsn {} (expected {:?}, observed {:?}, epoch {})",
                d.replica, d.lsn, d.expected, d.observed, d.epoch
            ));
        }
        if !cluster.deposed().is_empty() {
            let epochs: Vec<String> =
                cluster.deposed().iter().map(|p| format!("epoch {}", p.epoch())).collect();
            out.push(format!("  deposed primaries: {}", epochs.join(", ")));
        }
        Ok(out.join("\n"))
    }

    /// `SHOW REPLICA <id> [STALENESS <n>]` — a bounded-staleness read
    /// against one replica: succeeds only if the replica is live and
    /// within `n` LSNs of the primary (unbounded without STALENESS).
    fn show_replica(&self, args: &[String]) -> Result<String, ShellError> {
        const USAGE: &str = "usage: SHOW REPLICA <id> [STALENESS <n>]";
        let sink = self
            .repl
            .as_ref()
            .ok_or_else(|| err("replication is off — SET REPLICAS <n> '<dir>' first"))?;
        let id: usize = args.first().and_then(|s| s.parse().ok()).ok_or_else(|| err(USAGE))?;
        let bound = match args.get(1).map(|s| s.to_uppercase()).as_deref() {
            Some("STALENESS") => args
                .get(2)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err("STALENESS needs a number"))?,
            Some(_) => return Err(err(USAGE)),
            None => u64::MAX,
        };
        let cluster = sink.lock();
        let r = cluster
            .replica(id)
            .ok_or_else(|| err(format!("no replica {id} — SHOW REPLICATION lists them")))?;
        let lag = cluster.primary().last_lsn().saturating_sub(r.applied());
        let (tuples, notes) = cluster
            .read_replica(id, bound, |db, store| (db.total_tuples(), store.annotation_count()))
            .map_err(|e| err(e.to_string()))?;
        Ok(format!(
            "replica {id}: epoch {} applied lsn {} (lag {lag}) — {tuples} tuples, \
             {notes} annotations ({} replayed, {} skipped, {} via checkpoint)",
            r.epoch(),
            r.applied(),
            r.records_replayed(),
            r.records_skipped(),
            r.applied_via_checkpoint(),
        ))
    }

    /// `SCRUB` — run one anti-entropy pass now: CRC-check the primary's
    /// on-disk WAL and checkpoints (healing found rot from the shadow
    /// state), walk the range-digest ladder against every live replica,
    /// and repair whatever the pass finds.
    /// Page-file half of SCRUB: a read-only CRC walk over every page.
    /// Single-bit rot (the common at-rest failure) is healed losslessly
    /// in place via CRC linearity; only pages with wider damage force a
    /// rebuild of a fresh, fully-checksummed file from the live state.
    /// In that last resort, rows whose only copy sat on an unrecoverable
    /// page degrade to NULL (counted in `relstore.storage_errors`)
    /// rather than poisoning the rebuild.
    fn scrub_pages(&mut self) -> Result<Vec<String>, ShellError> {
        let store = self.storage.clone().ok_or_else(|| err("storage is mem"))?;
        store.flush_pages().map_err(|e| err(e.to_string()))?;
        let report = store.scrub().map_err(|e| err(e.to_string()))?;
        if report.is_clean() {
            return Ok(vec![format!("pages: {} scanned, all checksums clean", report.pages)]);
        }
        let mut out = vec![format!(
            "pages: {} scanned, {} corrupt ({})",
            report.pages,
            report.corrupt.len(),
            report.corrupt.iter().map(u32::to_string).collect::<Vec<_>>().join(", ")
        )];
        let healed = store.repair().map_err(|e| err(e.to_string()))?;
        if !healed.repaired.is_empty() {
            out.push(format!(
                "pages: repaired {} in place (single-bit rot healed via CRC linearity: {})",
                healed.repaired.len(),
                healed.repaired.iter().map(u32::to_string).collect::<Vec<_>>().join(", ")
            ));
        }
        if healed.unrecoverable.is_empty() {
            return Ok(out);
        }
        out.push(format!(
            "pages: {} unrecoverable ({}) — rebuilding from live state",
            healed.unrecoverable.len(),
            healed.unrecoverable.iter().map(u32::to_string).collect::<Vec<_>>().join(", ")
        ));
        let frames = store.pool_frames();
        let dir = store.dir().to_path_buf();
        let bytes = relstore::snapshot::save(&self.db);
        drop(store);
        self.storage = None;
        std::fs::remove_file(dir.join(nebula_pagestore::file::FILE_NAME))
            .map_err(|e| err(e.to_string()))?;
        let m = self.load_onto_pages(&dir, frames, &bytes)?;
        out.push(format!(
            "pages: repaired — rebuilt a clean file ({} pages at watermark {})",
            m.page_count, m.watermark
        ));
        Ok(out)
    }

    fn scrub(&mut self, args: &[String]) -> Result<String, ShellError> {
        if args.first().map(|s| s.to_uppercase()).as_deref() == Some("BACKUP") {
            let dir = args.get(1).ok_or_else(|| err("usage: SCRUB BACKUP '<dir>'"))?;
            return self.scrub_backup(dir);
        }
        let mut out = Vec::new();
        if self.storage.is_some() {
            out.extend(self.scrub_pages()?);
            if self.repl.is_none() {
                return Ok(out.join("\n"));
            }
        }
        let sink = self
            .repl
            .as_ref()
            .ok_or_else(|| {
                err("replication is off — SET REPLICAS <n> '<dir>' first \
                 (or SET STORAGE DISK for a page-file scrub)")
            })?
            .handle();
        let mut cluster = sink.lock();
        let summary = cluster.scrub();
        out.push(format!(
            "scrub at lsn {}: media {}{}",
            summary.at_lsn,
            summary.media,
            if summary.media_healed { " — healed from shadow state" } else { "" },
        ));
        let mut to_repair = summary.wedged.clone();
        to_repair.extend(summary.diverged.iter().copied());
        to_repair.sort_unstable();
        to_repair.dedup();
        if to_repair.is_empty() {
            out.push("  replicas: all ladders agree".into());
        }
        for id in to_repair {
            match cluster.repair_replica(id) {
                Ok(r) => out.push(format!(
                    "  repaired replica {}: rewound {} lsn(s) past agreed lsn {} \
                     ({} probes, {} resynced, converged = {})",
                    r.replica, r.rewound, r.agreed, r.probes, r.resynced, r.converged,
                )),
                Err(e) => out.push(format!("  replica {id}: repair failed ({e})")),
            }
        }
        Ok(out.join("\n"))
    }

    /// `SCRUB BACKUP '<dir>'` — walk an archive or bundle re-deriving
    /// every CRC (and the manifest digests when one is present), so torn
    /// or rotten files surface before a restore needs them.
    fn scrub_backup(&mut self, dir: &str) -> Result<String, ShellError> {
        let report =
            nebula_backup::scrub(std::path::Path::new(dir)).map_err(|e| err(e.to_string()))?;
        let mut out = vec![format!(
            "backup scrub '{dir}': {} base(s) ok, {} segment(s) ok, {} bytes checked, \
             manifest {}",
            report.bases_ok,
            report.segments_ok,
            report.bytes_scrubbed,
            if report.manifest_checked { "verified" } else { "absent" },
        )];
        if report.is_clean() {
            out.push("  all files clean".into());
        }
        for c in &report.corrupt {
            out.push(format!("  CORRUPT {}: {}", c.path.display(), c.reason));
        }
        Ok(out.join("\n"))
    }

    /// `REJOIN <node>` — demote the deposed primary `node` to a replica of
    /// the current epoch: rewind its un-acked (fenced) suffix and re-sync
    /// it through the checkpoint catch-up path.
    fn rejoin(&mut self, args: &[String]) -> Result<String, ShellError> {
        let sink = self
            .repl
            .as_ref()
            .ok_or_else(|| err("replication is off — SET REPLICAS <n> '<dir>' first"))?
            .handle();
        let mut cluster = sink.lock();
        let node: usize = match args.first() {
            Some(tok) => tok.parse().map_err(|_| err(format!("`{tok}` is not a node id")))?,
            None => *cluster
                .deposed_nodes()
                .first()
                .ok_or_else(|| err("no deposed primary to rejoin — PROMOTE creates one"))?,
        };
        let r = cluster.rejoin(node).map_err(|e| err(e.to_string()))?;
        Ok(format!(
            "node {} rejoined epoch {} as a replica: rewound {} fenced lsn(s) \
             ({} ladder probes, converged = {})",
            r.node, r.epoch, r.rewound, r.probes, r.converged,
        ))
    }

    /// `RECOVER INGEST` — the operator half of the guarded Wedged exit:
    /// if the durability sink reports writable again, clear the wedged
    /// verdict so the next ANNOTATE dispatches instead of shedding.
    fn recover_ingest(&mut self) -> Result<String, ShellError> {
        let wedged = self.last_ingest.as_ref().is_some_and(|r| r.health == HealthState::Wedged);
        if !wedged {
            return Ok("ingest is not wedged — nothing to recover".into());
        }
        let sink_ok = self.nebula.mutation_sink().is_none_or(|sink| sink.healthy());
        if !sink_ok {
            return Err(err(
                "the durability layer is still wedged — CHECKPOINT rebuilds the log first",
            ));
        }
        if let Some(r) = &mut self.last_ingest {
            r.health = HealthState::Degraded;
        }
        nebula_obs::counter_add(nebula_ingest::counters::RECOVERED, 1);
        nebula_obs::trace::flight_event("health", "wedged -> degraded (operator)".to_string());
        Ok("ingest recovered: wedged -> degraded (the window must prove itself clean)".into())
    }

    /// `SHOW REPAIR` — the repair posture: scrub cadence results, pending
    /// repairs, completed repairs/rejoins, and divergence depths.
    fn show_repair(&self) -> Result<String, ShellError> {
        let Some(sink) = &self.repl else {
            return Ok("replication: off — no repair surface".into());
        };
        let cluster = sink.lock();
        let st = cluster.repair_status();
        let mut out = vec![format!(
            "repair: {} scrub(s), {} repair(s), {} rejoin(s)",
            st.scrubs, st.repairs, st.rejoins
        )];
        match st.last_scrub_lsn {
            Some(lsn) => out.push(format!("  last scrub: lsn {lsn}")),
            None => out.push("  last scrub: never".into()),
        }
        if let Some(s) = cluster.last_scrub() {
            out.push(format!(
                "    media {}; {} diverged, {} wedged, {} probes",
                s.media,
                s.diverged.len(),
                s.wedged.len(),
                s.probes
            ));
        }
        if st.pending.is_empty() {
            out.push("  pending repairs: none".into());
        } else {
            let ids: Vec<String> = st.pending.iter().map(|id| format!("replica {id}")).collect();
            out.push(format!("  pending repairs: {}", ids.join(", ")));
        }
        out.push(format!(
            "  rewound {} lsn(s) total (deepest single divergence {}), {} ladder probes",
            st.total_rewound, st.max_divergence, st.ladder_probes
        ));
        let deposed = cluster.deposed_nodes();
        if !deposed.is_empty() {
            let ids: Vec<String> = deposed.iter().map(|n| format!("node {n}")).collect();
            out.push(format!("  deposed primaries awaiting REJOIN: {}", ids.join(", ")));
        }
        Ok(out.join("\n"))
    }

    /// `CHECKPOINT` — persist the full state now and truncate the log.
    fn checkpoint(&mut self) -> Result<String, ShellError> {
        let sink = self
            .nebula
            .mutation_sink_mut()
            .ok_or_else(|| err("durability is off — SET DURABILITY '<dir>' first"))?;
        let watermark = sink.checkpoint(&self.db, &self.store).map_err(|e| err(e.to_string()))?;
        Ok(format!("checkpoint committed (watermark lsn {watermark}); log truncated"))
    }

    /// `RECOVER '<dir>'` — replace the live state with the recovered
    /// checkpoint + log replay from `<dir>` and continue logging into it.
    /// `RECOVER INGEST` — clear a wedged ingest verdict instead.
    fn recover(&mut self, args: &[String]) -> Result<String, ShellError> {
        let path = args.first().ok_or_else(|| err("usage: RECOVER '<dir>' | RECOVER INGEST"))?;
        if path.to_uppercase() == "INGEST" {
            return self.recover_ingest();
        }
        let (durability, recovered) =
            Durability::resume(std::path::Path::new(path), DurabilityOptions::default())
                .map_err(|e| err(e.to_string()))?;
        self.db = recovered.db;
        self.store = recovered.store;
        self.nebula.bootstrap_acg(&self.store);
        self.repl = None;
        self.nebula.set_mutation_sink(Some(Box::new(durability)));
        let mut out = vec![format!(
            "recovered {} tuples, {} annotations from '{path}' \
             (watermark lsn {}, {} replayed, {} skipped); ACG rebuilt",
            self.db.total_tuples(),
            self.store.annotation_count(),
            recovered.watermark,
            recovered.replayed,
            recovered.skipped,
        )];
        if !recovered.tail.is_clean() {
            out.push(format!(
                "  torn tail repaired: {} record(s) / {} byte(s) dropped ({})",
                recovered.tail.dropped_records,
                recovered.tail.dropped_bytes,
                recovered.tail.reason.as_deref().unwrap_or("unknown reason"),
            ));
        }
        Ok(out.join("\n"))
    }

    /// `SET BUDGET DEADLINE <ms> | TUPLES <n> | CONFIGS <n> |
    /// CANDIDATES <n> | OFF` — limits accumulate across calls; OFF resets
    /// to unbounded.
    fn set_budget(&mut self, args: &[String]) -> Result<String, ShellError> {
        const USAGE: &str =
            "usage: SET BUDGET DEADLINE <ms> | TUPLES <n> | CONFIGS <n> | CANDIDATES <n> | OFF";
        let budget = &mut self.nebula.config_mut().budget;
        match args.first().map(|s| s.to_uppercase()).as_deref() {
            Some("OFF") => {
                *budget = ExecutionBudget::unbounded();
                return Ok("budget: unbounded".into());
            }
            Some(dim @ ("DEADLINE" | "TUPLES" | "CONFIGS" | "CANDIDATES")) => {
                let n: u64 = args
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(format!("SET BUDGET {dim} needs a number")))?;
                match dim {
                    "DEADLINE" => {
                        budget.deadline = Some(std::time::Duration::from_millis(n));
                    }
                    "TUPLES" => budget.max_tuples_inspected = n as usize,
                    "CONFIGS" => budget.max_configurations = n as usize,
                    _ => budget.max_candidates = n as usize,
                }
            }
            _ => return Err(err(USAGE)),
        }
        Ok(format!("budget: {}", self.nebula.config().budget))
    }

    /// `SET FAULTS <seed> [RATE <r>] | HOSTILE <seed> | OFF` — install a
    /// deterministic fault plan on this thread (uniform at RATE, default
    /// 0.1), the always-firing hostile plan, or clear it.
    fn set_faults(&mut self, args: &[String]) -> Result<String, ShellError> {
        const USAGE: &str = "usage: SET FAULTS <seed> [RATE <r>] | HOSTILE <seed> | OFF";
        match args.first().map(|s| s.to_uppercase()).as_deref() {
            Some("OFF") => {
                nebula_govern::set_fault_plan(None);
                Ok("faults: off".into())
            }
            Some("HOSTILE") => {
                let seed: u64 = args
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("SET FAULTS HOSTILE needs a seed"))?;
                let plan = FaultPlan::hostile(seed);
                let desc = plan.describe();
                nebula_govern::set_fault_plan(Some(plan));
                Ok(format!("faults: {desc}"))
            }
            Some(_) => {
                let seed: u64 =
                    args[0].parse().map_err(|_| err(format!("`{}` is not a seed", args[0])))?;
                let rate = match args.get(1).map(|s| s.to_uppercase()).as_deref() {
                    Some("RATE") => args
                        .get(2)
                        .and_then(|s| s.parse::<f64>().ok())
                        .filter(|r| (0.0..=1.0).contains(r))
                        .ok_or_else(|| err("RATE needs a number in [0, 1]"))?,
                    Some(_) => return Err(err(USAGE)),
                    None => 0.1,
                };
                let plan = FaultPlan::uniform(seed, rate);
                let desc = plan.describe();
                nebula_govern::set_fault_plan(Some(plan));
                Ok(format!("faults: {desc}"))
            }
            None => Err(err(USAGE)),
        }
    }

    /// `SHOW METRICS | BUDGET | FAULTS | DURABILITY | HEALTH |
    /// REPLICATION | REPLICA <id>` — the telemetry snapshot, the
    /// configured execution budget, the installed fault plan and its
    /// injection tallies, the durability manager's state, the ingest
    /// health report, or the replication cluster posture.
    fn show(&self, args: &[String]) -> Result<String, ShellError> {
        match args.first().map(|s| s.to_uppercase()).as_deref() {
            Some("METRICS") => Ok(nebula_obs::snapshot().render_text()),
            Some("REPLICATION") => self.show_replication(),
            Some("REPLICA") => self.show_replica(&args[1..]),
            Some("REPAIR") => self.show_repair(),
            Some("SHARDS") => Ok(match &self.shards {
                None => "shards: off (single-engine path)".to_string(),
                Some(c) => format!("shards: on\n{}", c.describe().trim_end()),
            }),
            Some("STORAGE") => Ok(match &self.storage {
                None => {
                    format!("storage: {} (all rows and postings in RAM)", self.db.storage_label())
                }
                Some(s) => {
                    let m = s.metrics();
                    format!(
                        "storage: {}\n  pages: {} ({} resident, {} dirty)   \
                         watermark lsn: {} (in-memory lsn {})\n  \
                         pool: {} hits, {} misses, {} evictions\n  \
                         flushes: {} ({} pages written back)   \
                         faults injected: {} ({} read retries)",
                        self.db.storage_label(),
                        m.page_count,
                        m.resident_pages,
                        m.dirty_pages,
                        m.watermark,
                        m.lsn,
                        m.pool.hits,
                        m.pool.misses,
                        m.pool.evictions,
                        m.pool.flushes,
                        m.pool.write_backs,
                        m.faults.injected,
                        m.faults.retries,
                    )
                }
            }),
            Some("HEALTH") => Ok(match &self.last_ingest {
                None => format!(
                    "health: healthy (no ingest yet)\n  workers: {}   queue capacity: {}",
                    self.ingest.workers, self.ingest.queue_capacity
                ),
                Some(r) => format!(
                    "health: {}\n  workers: {}   queue capacity: {}   peak depth: {}\n  \
                     last ingest: {} committed, {} shed ({:.0}% shed rate), \
                     p99 latency {:.2}ms",
                    r.health,
                    r.workers,
                    self.ingest.queue_capacity,
                    r.queue_depth_peak,
                    r.batch.total(),
                    r.sheds.len(),
                    r.shed_rate() * 100.0,
                    r.p99_latency_ns() as f64 / 1e6,
                ),
            }),
            Some("BUDGET") => Ok(format!("budget: {}", self.nebula.config().budget)),
            Some("DURABILITY") => Ok(match self.nebula.mutation_sink() {
                Some(sink) => {
                    let mut out = vec![format!("durability: on ({})", sink.describe())];
                    if let Some(adir) = sink.archive_dir() {
                        match nebula_durable::archive_stats(&adir) {
                            Ok(s) => out.push(format!(
                                "  archive: '{}' — {} segment(s), {} base(s), \
                                 oldest restorable lsn {}, newest lsn {}, {} bytes",
                                adir.display(),
                                s.segments,
                                s.bases,
                                s.oldest_restorable_lsn,
                                s.newest_lsn,
                                s.bytes,
                            )),
                            Err(e) => out
                                .push(format!("  archive: '{}' unreadable ({e})", adir.display())),
                        }
                        out.push(match (&self.last_backup, self.backups.last()) {
                            (Some(at), Some(b)) => format!(
                                "  last backup: seq {} to '{}' (head lsn {}), {}s ago",
                                b.seq,
                                b.dir,
                                b.head_lsn,
                                at.elapsed().as_secs(),
                            ),
                            _ => "  last backup: never (BACKUP TO '<dir>' captures one)".into(),
                        });
                    }
                    out.join("\n")
                }
                None => "durability: off".to_string(),
            }),
            Some("BACKUPS") => {
                if self.backups.is_empty() {
                    return Ok("backups: none this session (BACKUP TO '<dir>' captures one)".into());
                }
                let mut out =
                    vec![format!("backups: {} captured this session", self.backups.len())];
                for b in &self.backups {
                    let verdict = match nebula_backup::verify_bundle(std::path::Path::new(&b.dir)) {
                        Ok(v) => format!("verified ({} file(s))", v.files_verified),
                        Err(e) => format!("FAILED VERIFICATION: {e}"),
                    };
                    out.push(format!(
                        "  seq {}: '{}' lsn [{}, {}] — {} file(s), {} bytes — {verdict}",
                        b.seq, b.dir, b.oldest_lsn, b.head_lsn, b.files, b.bytes,
                    ));
                }
                Ok(out.join("\n"))
            }
            Some("FAULTS") => match nebula_govern::describe_fault_plan() {
                None => Ok("faults: off".into()),
                Some(desc) => {
                    let s = nebula_govern::fault_stats();
                    Ok(format!(
                        "faults: {desc}\n  injected: {} query, {} index-probe, {} latency, \
                         {} panic\n  recovered: {}   retries: {}",
                        s.query_errors,
                        s.index_probe_failures,
                        s.latency_injections,
                        s.panics,
                        s.recovered,
                        s.retries,
                    ))
                }
            },
            Some("CRITICAL") => {
                if args.get(1).map(|s| s.to_uppercase()).as_deref() != Some("PATH") {
                    return Err(err("usage: SHOW CRITICAL PATH"));
                }
                let traces = nebula_obs::trace::traces();
                Ok(nebula_obs::trace::attribution(&traces).render_text().trim_end().to_string())
            }
            Some("FLIGHT") => Ok(self.show_flight()),
            _ => Err(err("usage: SHOW METRICS | BUDGET | FAULTS | DURABILITY | BACKUPS | \
                 HEALTH | REPLICATION | REPLICA <id> | REPAIR | SHARDS | CRITICAL PATH | \
                 FLIGHT")),
        }
    }

    /// `SHOW FLIGHT` — the flight recorder: recent operational events and
    /// any post-mortem dumps captured by a terminal condition.
    fn show_flight(&self) -> String {
        let events = nebula_obs::trace::flight_events();
        let dumps = nebula_obs::trace::flight_dumps();
        if events.is_empty() && dumps.is_empty() {
            return "flight recorder: empty".to_string();
        }
        let mut out = vec![format!("flight recorder: {} event(s) retained", events.len())];
        out.extend(events.iter().map(|e| format!("  #{} {} {}", e.seq, e.kind, e.detail)));
        if !dumps.is_empty() {
            out.push(format!("post-mortem dumps: {}", dumps.len()));
            out.extend(dumps.iter().map(|d| {
                format!("  trigger {} ({} event(s) captured)", d.trigger, d.events.len())
            }));
        }
        out.join("\n")
    }

    /// `TRACE ANNOTATION <id>` — the committed annotation's span tree,
    /// with the critical path marked.
    fn trace(&self, args: &[String]) -> Result<String, ShellError> {
        let [kind, id] = args else {
            return Err(err("usage: TRACE ANNOTATION <id>"));
        };
        if kind.to_uppercase() != "ANNOTATION" {
            return Err(err("usage: TRACE ANNOTATION <id>"));
        }
        let id: u64 = id
            .trim_start_matches(['A', 'a'])
            .parse()
            .map_err(|_| err(format!("`{id}` is not an annotation id")))?;
        match nebula_obs::trace::for_annotation(id) {
            Some(trace) => Ok(trace.render_tree().trim_end().to_string()),
            None => Ok(format!(
                "no trace recorded for annotation A{id} \
                 (the ring keeps the last {} commits)",
                nebula_obs::trace::TRACE_CAPACITY
            )),
        }
    }

    /// `EXPLAIN ANNOTATION <id>` — replay the recorded pipeline events for
    /// one annotation: per-stage wall time, candidate counts, decisions.
    fn explain(&self, args: &[String]) -> Result<String, ShellError> {
        let [kind, id] = args else {
            return Err(err("usage: EXPLAIN ANNOTATION <id>"));
        };
        if kind.to_uppercase() != "ANNOTATION" {
            return Err(err("usage: EXPLAIN ANNOTATION <id>"));
        }
        // Accept both the display form `A7` and the bare number `7`.
        let id: u64 = id
            .trim_start_matches(['A', 'a'])
            .parse()
            .map_err(|_| err(format!("`{id}` is not an annotation id")))?;
        let snapshot = nebula_obs::snapshot();
        let events = snapshot.events_for(id);
        if events.is_empty() {
            return Ok(format!(
                "no recorded pipeline events for annotation A{id} \
                 (telemetry keeps the last {} events)",
                nebula_obs::EVENT_CAPACITY
            ));
        }
        let mut out = vec![format!("annotation A{id}:")];
        out.extend(events.iter().map(|e| format!("  {}", e.render_line())));
        Ok(out.join("\n"))
    }

    fn save(&self, args: &[String]) -> Result<String, ShellError> {
        let path = args.first().ok_or_else(|| err("usage: SAVE '<path>'"))?;
        let db_bytes = relstore::snapshot::save(&self.db);
        let ann_bytes = annostore::snapshot::save(&self.store);
        std::fs::write(format!("{path}.reldb"), &db_bytes).map_err(|e| err(e.to_string()))?;
        std::fs::write(format!("{path}.anndb"), &ann_bytes).map_err(|e| err(e.to_string()))?;
        Ok(format!(
            "saved {} + {} bytes to {path}.reldb / {path}.anndb",
            db_bytes.len(),
            ann_bytes.len()
        ))
    }

    fn load(&mut self, args: &[String]) -> Result<String, ShellError> {
        let path = args.first().ok_or_else(|| err("usage: LOAD '<path>'"))?;
        let db_bytes = std::fs::read(format!("{path}.reldb")).map_err(|e| err(e.to_string()))?;
        let ann_bytes = std::fs::read(format!("{path}.anndb")).map_err(|e| err(e.to_string()))?;
        self.db = relstore::snapshot::load(&db_bytes).map_err(|e| err(e.to_string()))?;
        self.store = annostore::snapshot::load(&ann_bytes).map_err(|e| err(e.to_string()))?;
        self.nebula.bootstrap_acg(&self.store);
        Ok(format!(
            "loaded {} tuples, {} annotations; ACG rebuilt ({} edges)",
            self.db.total_tuples(),
            self.store.annotation_count(),
            self.nebula.acg().edge_count()
        ))
    }
}

const HELP: &str = "commands:
  TABLES;
  SELECT <table> [WHERE <col> (=|CONTAINS) <val>]... [LIMIT n];
  ANNOTATE <table> '<pk>' '<text>';
  DELETE <table> '<pk>';
  ANNOTATIONS <table> '<pk>';
  PENDING;
  VERIFY ATTACHMENT <vid>;   REJECT ATTACHMENT <vid>;
  ACG;   PROFILE;
  SHOW METRICS;   EXPLAIN ANNOTATION <id>;
  TRACE ANNOTATION <id>;   SHOW CRITICAL PATH;   SHOW FLIGHT;
  SET BUDGET DEADLINE <ms> | TUPLES <n> | CONFIGS <n> | CANDIDATES <n> | OFF;
  SET FAULTS <seed> [RATE <r>] | HOSTILE <seed> | OFF;
  SET DURABILITY '<dir>' [EVERY <n>] [SYNC BATCH] [ARCHIVE '<adir>'] | OFF;
  SET ARCHIVE '<dir>';
  SET REPLICAS <n> '<dir>' [QUORUM <q>] [NETFAULTS <seed> <rate>] | OFF;
  SET SHARDS <n> | OFF;
  SET STORAGE DISK '<dir>' [POOL <frames>] | MEM;
  PROMOTE [<id>];
  SCRUB;   REJOIN [<node>];   RECOVER INGEST;
  SET WORKERS <n>;
  CHECKPOINT;   RECOVER '<dir>';
  BACKUP TO '<dir>';   RESTORE FROM '<dir>' [AS OF LSN <n>];
  SCRUB BACKUP '<dir>';   SHOW BACKUPS;
  SHOW BUDGET;   SHOW FAULTS;   SHOW DURABILITY;   SHOW HEALTH;
  SHOW REPLICATION;   SHOW REPLICA <id> [STALENESS <n>];   SHOW REPAIR;
  SHOW SHARDS;   SHOW STORAGE;
  SAVE '<path>';   LOAD '<path>';
  HELP;   EXIT;";

/// Split a command into tokens, honoring single-quoted strings.
fn lex(input: &str) -> Result<Vec<String>, ShellError> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '\'' {
            chars.next();
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some('\'') => break,
                    Some(ch) => s.push(ch),
                    None => return Err(err("unterminated string literal")),
                }
            }
            tokens.push(s);
        } else {
            let mut s = String::new();
            while let Some(&ch) = chars.peek() {
                if ch.is_whitespace() || ch == '\'' {
                    break;
                }
                s.push(ch);
                chars.next();
            }
            tokens.push(s);
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shell() -> Shell {
        Shell::with_dataset(&DatasetSpec::tiny(), 42)
    }

    #[test]
    fn lex_handles_quotes() {
        assert_eq!(
            lex("ANNOTATE gene 'JW0001' 'two words'").expect("shell operation should succeed"),
            vec!["ANNOTATE", "gene", "JW0001", "two words"]
        );
        assert!(lex("bad 'unterminated").is_err());
    }

    #[test]
    fn tables_lists_schema() {
        let mut sh = shell();
        let out = sh.exec("TABLES;").expect("shell operation should succeed");
        assert!(out.contains("gene"));
        assert!(out.contains("protein"));
        assert!(out.contains("publication"));
        assert!(out.contains("gid"));
    }

    #[test]
    fn select_with_predicates_and_limit() {
        let mut sh = shell();
        let out = sh
            .exec("SELECT gene WHERE family = 'F1' LIMIT 3")
            .expect("shell operation should succeed");
        assert!(out.contains("F1"), "{out}");
        assert!(out.lines().count() <= 5, "header + ≤3 rows + count");
        let all = sh.exec("SELECT gene LIMIT 100").expect("shell operation should succeed");
        assert!(all.contains("(40 rows)"));
        let contains = sh
            .exec("SELECT gene WHERE gid CONTAINS 'JW0001'")
            .expect("shell operation should succeed");
        assert!(contains.contains("JW0001"));
        assert!(contains.contains("(1 rows)"));
    }

    #[test]
    fn select_projection_and_order() {
        let mut sh = shell();
        let out = sh
            .exec("SELECT gene COLUMNS name,length ORDER BY length DESC LIMIT 2")
            .expect("shell operation should succeed");
        let mut lines = out.lines();
        assert_eq!(lines.next(), Some("name | length"));
        let first: i64 = lines
            .next()
            .expect("shell operation should succeed")
            .split(" | ")
            .nth(1)
            .expect("shell operation should succeed")
            .split_whitespace()
            .next()
            .expect("shell operation should succeed")
            .parse()
            .expect("shell operation should succeed");
        let second: i64 = lines
            .next()
            .expect("shell operation should succeed")
            .split(" | ")
            .nth(1)
            .expect("shell operation should succeed")
            .split_whitespace()
            .next()
            .expect("shell operation should succeed")
            .parse()
            .expect("shell operation should succeed");
        assert!(first >= second, "descending order: {first} vs {second}");
        assert!(sh.exec("SELECT gene COLUMNS nope").is_err());
        assert!(sh.exec("SELECT gene ORDER name").is_err());
    }

    #[test]
    fn select_errors_are_friendly() {
        let mut sh = shell();
        assert!(sh.exec("SELECT nope").unwrap_err().0.contains("unknown table"));
        assert!(sh.exec("SELECT gene WHERE bogus = 'x'").unwrap_err().0.contains("unknown column"));
        assert!(sh.exec("SELECT gene LIMIT abc").is_err());
    }

    #[test]
    fn annotate_runs_the_pipeline_end_to_end() {
        let mut sh = shell();
        let out = sh
            .exec("ANNOTATE gene 'JW0005' 'this gene correlates with JW0001 under stress'")
            .expect("shell operation should succeed");
        assert!(out.contains("queries generated"));
        assert!(out.contains("JW0001"), "the reference is discovered: {out}");
        // The annotation shows up on both the focal and (if auto-accepted)
        // the referenced tuple.
        let focal_notes =
            sh.exec("ANNOTATIONS gene 'JW0005'").expect("shell operation should succeed");
        assert!(focal_notes.contains("correlates"));
    }

    #[test]
    fn pending_verify_flow() {
        let mut sh = shell();
        // Force everything pending.
        sh.nebula.config_mut().bounds = VerificationBounds::new(0.0, 1.0);
        sh.exec("ANNOTATE gene 'JW0002' 'interacting with gene JW0003'")
            .expect("shell operation should succeed");
        let pending = sh.exec("PENDING").expect("shell operation should succeed");
        assert!(pending.contains("task"));
        assert!(pending.contains("evidence"));
        let vid: u64 = pending
            .split_whitespace()
            .nth(1)
            .expect("shell operation should succeed")
            .parse()
            .expect("shell operation should succeed");
        let resolved =
            sh.exec(&format!("VERIFY ATTACHMENT {vid}")).expect("shell operation should succeed");
        assert!(resolved.contains("resolved"));
        assert!(sh.exec(&format!("VERIFY ATTACHMENT {vid}")).is_err(), "double resolve");
        assert_eq!(
            sh.exec("PENDING").expect("shell operation should succeed"),
            "(no pending verification tasks)"
        );
    }

    #[test]
    fn trace_annotation_renders_the_span_tree() {
        let mut sh = shell();
        sh.exec("ANNOTATE gene 'JW0011' 'linked with gene JW0012'")
            .expect("shell operation should succeed");
        let id = sh.store.annotation_count() as u64 - 1;
        let out =
            sh.exec(&format!("TRACE ANNOTATION A{id}")).expect("shell operation should succeed");
        assert!(out.contains("ingest.item"), "{out}");
        assert!(out.contains("core.process_annotation"), "{out}");
        assert!(out.contains("stage0.register"), "{out}");
        assert!(out.contains("critical path ends at"), "{out}");
        // Both id forms are accepted; unknown ids degrade gracefully.
        assert!(sh
            .exec(&format!("TRACE ANNOTATION {id}"))
            .expect("shell operation should succeed")
            .contains("ingest.item"));
        assert!(sh
            .exec("TRACE ANNOTATION 999999")
            .expect("shell operation should succeed")
            .contains("no trace recorded"));
        assert!(sh.exec("TRACE NONSENSE 1").is_err());
    }

    #[test]
    fn show_critical_path_and_flight_report() {
        let mut sh = shell();
        sh.exec("ANNOTATE gene 'JW0012' 'observed near gene JW0013'")
            .expect("shell operation should succeed");
        let cp = sh.exec("SHOW CRITICAL PATH").expect("shell operation should succeed");
        assert!(cp.contains("critical path over"), "{cp}");
        assert!(sh.exec("SHOW CRITICAL NONSENSE").is_err());
        let fl = sh.exec("SHOW FLIGHT").expect("shell operation should succeed");
        assert!(fl.contains("flight recorder"), "{fl}");
        assert!(fl.contains("commit"), "commits land in the flight ring: {fl}");
    }

    #[test]
    fn acg_and_profile_report() {
        let mut sh = shell();
        let acg = sh.exec("ACG").expect("shell operation should succeed");
        assert!(acg.contains("nodes"));
        let profile = sh.exec("PROFILE").expect("shell operation should succeed");
        assert!(profile.contains("profile"));
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("nebula-shell-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("shell operation should succeed");
        let path = dir.join("snap").display().to_string();

        let mut sh = shell();
        sh.exec("ANNOTATE gene 'JW0004' 'note about gene JW0006'")
            .expect("shell operation should succeed");
        let saved = sh.exec(&format!("SAVE '{path}'")).expect("shell operation should succeed");
        assert!(saved.contains("saved"));

        let mut fresh = shell();
        let loaded = fresh.exec(&format!("LOAD '{path}'")).expect("shell operation should succeed");
        assert!(loaded.contains("loaded"));
        let notes =
            fresh.exec("ANNOTATIONS gene 'JW0004'").expect("shell operation should succeed");
        assert!(notes.contains("JW0006"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_cleans_up() {
        let mut sh = shell();
        sh.exec("ANNOTATE gene 'JW0003' 'note about gene JW0002'")
            .expect("shell operation should succeed");
        let out = sh.exec("DELETE gene 'JW0002'").expect("shell operation should succeed");
        assert!(out.contains("deleted"), "{out}");
        assert!(sh.exec("ANNOTATIONS gene 'JW0002'").is_err(), "row is gone");
        let rows = sh.exec("SELECT gene LIMIT 100").expect("shell operation should succeed");
        assert!(rows.contains("(39 rows)"));
        assert!(sh.exec("DELETE gene 'JW0002'").is_err(), "double delete fails");
    }

    #[test]
    fn show_metrics_reports_pipeline_work() {
        let mut sh = shell();
        sh.exec("ANNOTATE gene 'JW0007' 'observed together with gene JW0008'")
            .expect("shell operation should succeed");
        let out = sh.exec("SHOW METRICS").expect("shell operation should succeed");
        assert!(out.contains("core.annotations_processed"), "{out}");
        assert!(out.contains("relstore.tuples_scanned"), "{out}");
        assert!(out.contains("textsearch.configurations"), "{out}");
        assert!(out.contains(nebula_obs::names::STAGE2_EXECUTE), "{out}");
        assert!(sh.exec("SHOW NONSENSE").is_err());
    }

    #[test]
    fn explain_annotation_replays_stages() {
        let mut sh = shell();
        let out = sh
            .exec("ANNOTATE gene 'JW0009' 'co-expressed with gene JW0010'")
            .expect("shell operation should succeed");
        // "annotation A<n> attached ..." — pull the id out of the response.
        let aid =
            out.split_whitespace().nth(1).expect("shell operation should succeed").to_string();
        let explained =
            sh.exec(&format!("EXPLAIN ANNOTATION {aid}")).expect("shell operation should succeed");
        assert!(explained.contains(&format!("annotation {aid}:")), "{explained}");
        for stage in [
            nebula_obs::names::STAGE0_REGISTER,
            nebula_obs::names::STAGE1_QUERYGEN,
            nebula_obs::names::STAGE2_EXECUTE,
            nebula_obs::names::STAGE3_ROUTE,
            nebula_obs::names::PIPELINE,
        ] {
            assert!(explained.contains(stage), "missing {stage} in {explained}");
        }
        // Unknown ids report the miss instead of erroring.
        let missing = sh.exec("EXPLAIN ANNOTATION 999999").expect("shell operation should succeed");
        assert!(missing.contains("no recorded pipeline events"));
        assert!(sh.exec("EXPLAIN ANNOTATION abc").is_err());
        assert!(sh.exec("EXPLAIN NONSENSE 3").is_err());
    }

    #[test]
    fn set_budget_and_show_budget() {
        let mut sh = shell();
        assert_eq!(
            sh.exec("SHOW BUDGET").expect("shell operation should succeed"),
            "budget: unbounded"
        );
        assert_eq!(
            sh.exec("SET BUDGET TUPLES 500").expect("shell operation should succeed"),
            "budget: tuples=500"
        );
        let out = sh.exec("SET BUDGET CONFIGS 8").expect("shell operation should succeed");
        assert_eq!(out, "budget: tuples=500 configs=8", "limits accumulate");
        assert!(sh
            .exec("SET BUDGET DEADLINE 250")
            .expect("shell operation should succeed")
            .contains("deadline=250ms"));
        assert_eq!(
            sh.exec("SET BUDGET OFF").expect("shell operation should succeed"),
            "budget: unbounded"
        );
        assert!(sh.exec("SET BUDGET TUPLES abc").is_err());
        assert!(sh.exec("SET BUDGET NONSENSE 3").is_err());
        assert!(sh.exec("SET NONSENSE").is_err());
    }

    #[test]
    fn set_faults_and_show_faults() {
        let mut sh = shell();
        assert_eq!(sh.exec("SHOW FAULTS").expect("shell operation should succeed"), "faults: off");
        let out = sh.exec("SET FAULTS 42 RATE 0.5").expect("shell operation should succeed");
        assert!(out.contains("seed=42"), "{out}");
        assert!(out.contains("query=0.50"), "{out}");
        let shown = sh.exec("SHOW FAULTS").expect("shell operation should succeed");
        assert!(shown.contains("injected:"), "{shown}");
        let hostile = sh.exec("SET FAULTS HOSTILE 7").expect("shell operation should succeed");
        assert!(hostile.contains("query=1.00"), "{hostile}");
        assert_eq!(
            sh.exec("SET FAULTS OFF").expect("shell operation should succeed"),
            "faults: off"
        );
        assert!(sh.exec("SET FAULTS abc").is_err());
        assert!(sh.exec("SET FAULTS 42 RATE 7").is_err(), "rate out of range");
    }

    #[test]
    fn budget_degradation_reported_by_annotate() {
        let mut sh = shell();
        sh.exec("SET BUDGET TUPLES 1").expect("shell operation should succeed");
        let out = sh
            .exec("ANNOTATE gene 'JW0005' 'this gene correlates with JW0001 under stress'")
            .expect("shell operation should succeed");
        assert!(out.contains("degraded:"), "{out}");
        sh.exec("SET BUDGET OFF").expect("shell operation should succeed");
    }

    #[test]
    fn hostile_faults_quarantine_but_shell_survives() {
        let mut sh = shell();
        sh.exec("SET FAULTS HOSTILE 9").expect("shell operation should succeed");
        // Every query errors (transiently) and retries exhaust: the command
        // fails with a structured error, but the shell keeps working.
        let res = sh.exec("ANNOTATE gene 'JW0006' 'paired with gene JW0007'");
        assert!(res.is_err());
        let shown = sh.exec("SHOW FAULTS").expect("shell operation should succeed");
        assert!(shown.contains("retries: 2"), "bounded retries recorded: {shown}");
        sh.exec("SET FAULTS OFF").expect("shell operation should succeed");
        let ok = sh.exec("ANNOTATE gene 'JW0006' 'paired with gene JW0007'");
        assert!(ok.is_ok(), "clean run after clearing the plan");
    }

    #[test]
    fn durability_set_checkpoint_recover_flow() {
        let dir = std::env::temp_dir().join(format!("nebula-shell-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut sh = shell();
        assert_eq!(
            sh.exec("SHOW DURABILITY").expect("shell operation should succeed"),
            "durability: off"
        );
        assert!(sh.exec("CHECKPOINT").unwrap_err().0.contains("durability is off"));

        let on = sh
            .exec(&format!("SET DURABILITY '{}' EVERY 64", dir.display()))
            .expect("shell operation should succeed");
        assert!(on.contains("durability: on"), "{on}");
        assert!(on.contains("initial checkpoint"), "{on}");
        sh.exec("ANNOTATE gene 'JW0005' 'this gene correlates with JW0001 under stress'")
            .expect("shell operation should succeed");
        let shown = sh.exec("SHOW DURABILITY").expect("shell operation should succeed");
        assert!(shown.contains("next_lsn"), "{shown}");

        let ck = sh.exec("CHECKPOINT").expect("shell operation should succeed");
        assert!(ck.contains("watermark"), "{ck}");
        sh.exec("ANNOTATE gene 'JW0002' 'note about gene JW0003'")
            .expect("shell operation should succeed");
        let notes_before =
            sh.exec("ANNOTATIONS gene 'JW0005'").expect("shell operation should succeed");
        sh.exec("SET DURABILITY OFF").expect("shell operation should succeed");
        assert_eq!(
            sh.exec("SHOW DURABILITY").expect("shell operation should succeed"),
            "durability: off"
        );

        // A fresh shell recovers the full state: checkpoint + log replay.
        let mut fresh = shell();
        let rec = fresh
            .exec(&format!("RECOVER '{}'", dir.display()))
            .expect("shell operation should succeed");
        assert!(rec.contains("recovered"), "{rec}");
        assert_eq!(
            fresh.exec("ANNOTATIONS gene 'JW0005'").expect("shell operation should succeed"),
            notes_before
        );
        let resumed = fresh.exec("SHOW DURABILITY").expect("shell operation should succeed");
        assert!(resumed.contains("durability: on"), "logging continues: {resumed}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durability_refuses_a_directory_in_use() {
        let dir =
            std::env::temp_dir().join(format!("nebula-shell-durable-inuse-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sh = shell();
        sh.exec(&format!("SET DURABILITY '{}'", dir.display()))
            .expect("shell operation should succeed");
        sh.exec("SET DURABILITY OFF").expect("shell operation should succeed");
        let e = sh.exec(&format!("SET DURABILITY '{}'", dir.display())).unwrap_err();
        assert!(e.0.contains("RECOVER"), "points at recovery: {e}");
        assert!(sh.exec("SET DURABILITY").is_err());
        assert!(sh.exec("RECOVER").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replication_set_annotate_promote_flow() {
        let dir = std::env::temp_dir().join(format!("nebula-shell-repl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut sh = shell();
        assert_eq!(
            sh.exec("SHOW REPLICATION").expect("shell operation should succeed"),
            "replication: off"
        );
        assert!(sh.exec("PROMOTE 1").unwrap_err().0.contains("replication is off"));
        assert!(sh.exec("SHOW REPLICA 1").unwrap_err().0.contains("replication is off"));

        let on = sh
            .exec(&format!("SET REPLICAS 2 '{}' QUORUM 1", dir.display()))
            .expect("shell operation should succeed");
        assert!(on.contains("replication: on"), "{on}");
        assert!(on.contains("ack-quorum(1)"), "{on}");
        sh.exec("ANNOTATE gene 'JW0005' 'this gene correlates with JW0001 under stress'")
            .expect("shell operation should succeed");
        // A replicated commit's span tree carries the shipping work. The
        // ring is process-global and other tests commit under the same
        // annotation ids, so search it instead of asking for this id.
        let shipped = nebula_obs::trace::traces().iter().any(|t| {
            let tree = t.render_tree();
            tree.contains("repl.ship") && tree.contains("repl.quorum")
        });
        assert!(shipped, "no committed trace carries repl.ship and repl.quorum");

        let shown = sh.exec("SHOW REPLICATION").expect("shell operation should succeed");
        assert!(shown.contains("epoch 1"), "{shown}");
        assert!(shown.contains("replica 1:"), "{shown}");
        assert!(shown.contains("replica 2:"), "{shown}");
        let durability = sh.exec("SHOW DURABILITY").expect("shell operation should succeed");
        assert!(durability.contains("replicated"), "{durability}");

        let rep = sh.exec("SHOW REPLICA 1").expect("shell operation should succeed");
        assert!(rep.contains("annotations"), "{rep}");
        assert!(sh.exec("SHOW REPLICA 9").is_err(), "unknown replica");
        assert!(sh.exec("SHOW REPLICA 1 STALENESS abc").is_err());
        // A reliable transport keeps replicas current, so a zero
        // staleness bound still reads.
        let bounded =
            sh.exec("SHOW REPLICA 1 STALENESS 0").expect("shell operation should succeed");
        assert!(bounded.contains("lag 0"), "{bounded}");

        let promoted = sh.exec("PROMOTE 1").expect("shell operation should succeed");
        assert!(promoted.contains("promoted replica 1"), "{promoted}");
        assert!(promoted.contains("epoch 2"), "{promoted}");
        let after = sh.exec("SHOW REPLICATION").expect("shell operation should succeed");
        assert!(after.contains("epoch 2"), "{after}");
        assert!(after.contains("deposed primaries: epoch 1"), "{after}");
        // The annotation survives the failover (it was acked before).
        let notes = sh.exec("ANNOTATIONS gene 'JW0005'").expect("shell operation should succeed");
        assert!(notes.contains("correlates"), "{notes}");
        // Writes keep flowing through the promoted primary.
        sh.exec("ANNOTATE gene 'JW0002' 'note about gene JW0003'")
            .expect("shell operation should succeed");

        assert!(sh
            .exec("SET REPLICAS OFF")
            .expect("shell operation should succeed")
            .contains("replication: off"));
        assert_eq!(
            sh.exec("SHOW REPLICATION").expect("shell operation should succeed"),
            "replication: off"
        );
        assert!(sh.exec("SET REPLICAS abc").is_err());
        assert!(sh.exec(&format!("SET REPLICAS 2 '{}' QUORUM 9", dir.display())).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_rejoin_and_show_repair_flow() {
        let dir = std::env::temp_dir().join(format!("nebula-shell-repair-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut sh = shell();
        // All repair surfaces degrade gracefully with replication off.
        assert!(sh.exec("SCRUB").unwrap_err().0.contains("replication is off"));
        assert!(sh.exec("REJOIN 0").unwrap_err().0.contains("replication is off"));
        assert!(sh
            .exec("SHOW REPAIR")
            .expect("shell operation should succeed")
            .contains("replication: off"));

        sh.exec(&format!("SET REPLICAS 2 '{}'", dir.display()))
            .expect("shell operation should succeed");
        sh.exec("ANNOTATE gene 'JW0005' 'this gene correlates with JW0001 under stress'")
            .expect("shell operation should succeed");

        // A clean cluster scrubs clean.
        let clean = sh.exec("SCRUB").expect("shell operation should succeed");
        assert!(clean.contains("media clean"), "{clean}");
        assert!(clean.contains("all ladders agree"), "{clean}");

        // Poison a replica, then let SCRUB find and repair it.
        sh.repl
            .as_ref()
            .expect("shell operation should succeed")
            .lock()
            .chaos_corrupt_replica(1)
            .expect("shell operation should succeed");
        sh.exec("ANNOTATE gene 'JW0002' 'note about gene JW0003'")
            .expect("shell operation should succeed");
        let repaired = sh.exec("SCRUB").expect("shell operation should succeed");
        assert!(repaired.contains("repaired replica 1"), "{repaired}");
        assert!(repaired.contains("converged = true"), "{repaired}");

        // Fail over, then re-admit the deposed primary.
        assert!(sh.exec("REJOIN").unwrap_err().0.contains("no deposed primary"));
        sh.exec("PROMOTE 1").expect("shell operation should succeed");
        let rejoined = sh.exec("REJOIN 0").expect("shell operation should succeed");
        assert!(rejoined.contains("node 0 rejoined epoch 2"), "{rejoined}");
        assert!(rejoined.contains("converged = true"), "{rejoined}");
        assert!(sh.exec("REJOIN 0").is_err(), "nothing left to rejoin");

        let status = sh.exec("SHOW REPAIR").expect("shell operation should succeed");
        assert!(status.contains("scrub(s)"), "{status}");
        assert!(status.contains("1 rejoin(s)"), "{status}");
        assert!(status.contains("pending repairs: none"), "{status}");
        assert!(sh.exec("REJOIN abc").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_ingest_clears_a_wedged_verdict() {
        let mut sh = shell();
        assert!(sh
            .exec("RECOVER INGEST")
            .expect("shell operation should succeed")
            .contains("not wedged"));
        // Manufacture a wedged last-ingest verdict (the pool owns the real
        // machine per batch; the shell records its final state).
        sh.exec("ANNOTATE gene 'JW0005' 'this gene correlates with JW0001 under stress'")
            .expect("shell operation should succeed");
        sh.last_ingest.as_mut().expect("shell operation should succeed").health =
            HealthState::Wedged;
        let out = sh.exec("RECOVER INGEST").expect("shell operation should succeed");
        assert!(out.contains("wedged -> degraded"), "{out}");
        assert_eq!(
            sh.last_ingest.as_ref().expect("shell operation should succeed").health,
            HealthState::Degraded
        );
        let health = sh.exec("SHOW HEALTH").expect("shell operation should succeed");
        assert!(health.contains("health: degraded"), "{health}");
    }

    #[test]
    fn set_workers_and_show_health() {
        let mut sh = shell();
        let fresh = sh.exec("SHOW HEALTH").expect("shell operation should succeed");
        assert!(fresh.contains("no ingest yet"), "{fresh}");
        assert_eq!(sh.exec("SET WORKERS 4").expect("shell operation should succeed"), "workers: 4");
        assert!(sh.exec("SET WORKERS 0").is_err());
        assert!(sh.exec("SET WORKERS abc").is_err());
        sh.exec("ANNOTATE gene 'JW0005' 'this gene correlates with JW0001 under stress'")
            .expect("shell operation should succeed");
        let health = sh.exec("SHOW HEALTH").expect("shell operation should succeed");
        assert!(health.contains("health: healthy"), "{health}");
        assert!(health.contains("workers: 4"), "{health}");
        assert!(health.contains("1 committed, 0 shed"), "{health}");
    }

    #[test]
    fn worker_count_does_not_change_annotate_output() {
        let mut a = shell();
        let mut b = shell();
        b.exec("SET WORKERS 8").expect("shell operation should succeed");
        let cmd = "ANNOTATE gene 'JW0005' 'this gene correlates with JW0001 under stress'";
        assert_eq!(
            a.exec(cmd).expect("shell operation should succeed"),
            b.exec(cmd).expect("shell operation should succeed")
        );
    }

    #[test]
    fn hostile_faults_degrade_health() {
        let mut sh = shell();
        sh.exec("SET FAULTS HOSTILE 11").expect("shell operation should succeed");
        let res = sh.exec("ANNOTATE gene 'JW0006' 'paired with gene JW0007'");
        assert!(res.is_err(), "quarantined");
        let health = sh.exec("SHOW HEALTH").expect("shell operation should succeed");
        assert!(health.contains("health: degraded"), "{health}");
        sh.exec("SET FAULTS OFF").expect("shell operation should succeed");
    }

    #[test]
    fn help_and_unknown() {
        let mut sh = shell();
        assert!(sh.exec("HELP").expect("shell operation should succeed").contains("ANNOTATE"));
        assert!(sh.exec("FROBNICATE").is_err());
        assert_eq!(sh.exec("   ").expect("shell operation should succeed"), "");
    }

    #[test]
    fn sharded_session_routes_annotate_and_reports_health() {
        let mut sh = shell();
        assert!(sh
            .exec("SHOW SHARDS")
            .expect("shell operation should succeed")
            .contains("shards: off"));

        let on = sh.exec("SET SHARDS 2").expect("shell operation should succeed");
        assert!(on.contains("shards: 2"), "{on}");
        let out = sh
            .exec("ANNOTATE gene 'JW0005' 'this gene correlates with JW0001 under stress'")
            .expect("shell operation should succeed");
        assert!(out.contains("via shard"), "{out}");
        // The merged shard state is mirrored back into the shell's store.
        let notes = sh.exec("ANNOTATIONS gene 'JW0005'").expect("shell operation should succeed");
        assert!(notes.contains("correlates"), "{notes}");

        let status = sh.exec("SHOW SHARDS").expect("shell operation should succeed");
        assert!(status.contains("2 shards"), "{status}");
        assert!(status.contains("epoch 0"), "{status}");
        assert!(status.contains("shard 0"), "{status}");
        assert!(status.contains("shard 1"), "{status}");

        // Mutations that bypass the router are fenced off while sharded.
        assert!(sh.exec("DELETE gene 'JW0001'").is_err());
        assert!(sh.exec("SET DURABILITY '/tmp/nowhere'").is_err());
        assert!(sh.exec("SET REPLICAS 1 '/tmp/nowhere'").is_err());

        let off = sh.exec("SET SHARDS OFF").expect("shell operation should succeed");
        assert!(off.contains("shards: off"), "{off}");
        // The annotation survives the collapse back to one engine.
        let notes = sh.exec("ANNOTATIONS gene 'JW0005'").expect("shell operation should succeed");
        assert!(notes.contains("correlates"), "{notes}");
        assert!(sh.exec("SET SHARDS 0").is_err(), "zero shards is rejected");
    }

    #[test]
    fn storage_session_pages_to_disk_and_back() {
        let dir = std::env::temp_dir().join(format!("nebula-shell-storage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut sh = shell();
        let before = relstore::snapshot::fingerprint(&sh.db);
        assert!(sh.exec("SHOW STORAGE").expect("shell operation should succeed").contains("mem"));

        // Move onto disk with a deliberately tiny pool to force eviction.
        let on = sh
            .exec(&format!("SET STORAGE DISK '{}' POOL 4", dir.display()))
            .expect("shell operation should succeed");
        assert!(on.contains("storage: disk"), "{on}");
        assert_eq!(
            relstore::snapshot::fingerprint(&sh.db),
            before,
            "paged rebuild is logically identical"
        );

        // The stack keeps working on the paged backend.
        sh.exec("ANNOTATE gene 'JW0005' 'paged gene note mentions JW0001'")
            .expect("shell operation should succeed");
        let select = sh
            .exec("SELECT gene WHERE gid CONTAINS 'JW0001'")
            .expect("shell operation should succeed");
        assert!(select.contains("JW0001"), "{select}");
        let show = sh.exec("SHOW STORAGE").expect("shell operation should succeed");
        assert!(show.contains("storage: disk:"), "{show}");
        assert!(show.contains("pages:"), "{show}");

        // SCRUB walks the page file (replication off).
        let scrubbed = sh.exec("SCRUB").expect("shell operation should succeed");
        assert!(scrubbed.contains("all checksums clean"), "{scrubbed}");

        // Seed at-rest rot, then SCRUB must find it and repair.
        let fp_paged = relstore::snapshot::fingerprint(&sh.db);
        {
            let store = sh.storage.as_ref().expect("shell operation should succeed");
            store.flush_pages().expect("shell operation should succeed");
            store.set_fault_plan(Some(FaultPlan::new(0xBAD).with_pages(0.0, 0.0, 0.0, 1.0)));
            store.inject_rot().expect("shell operation should succeed").expect("rate 1.0 fires");
            store.set_fault_plan(None);
        }
        let repaired = sh.exec("SCRUB").expect("shell operation should succeed");
        assert!(repaired.contains("corrupt"), "{repaired}");
        assert!(repaired.contains("repaired"), "{repaired}");
        let again = sh.exec("SCRUB").expect("shell operation should succeed");
        assert!(again.contains("all checksums clean"), "{again}");

        // Back to RAM: content survives the round trip.
        let off = sh.exec("SET STORAGE MEM").expect("shell operation should succeed");
        assert!(off.contains("storage: mem"), "{off}");
        assert_eq!(
            relstore::snapshot::fingerprint(&sh.db),
            fp_paged,
            "nothing lost moving back to RAM"
        );
        assert!(sh
            .exec("SET STORAGE MEM")
            .expect("shell operation should succeed")
            .contains("already"));
        assert!(sh.exec("SET STORAGE").is_err(), "bare SET STORAGE is rejected");
        assert!(sh.exec("SET STORAGE DISK").is_err(), "DISK needs a directory");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backup_restore_point_in_time_flow() {
        let root = std::env::temp_dir().join(format!("nebula-shell-backup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let wal = root.join("wal");
        let arch = root.join("archive");
        let bundle = root.join("bundle");

        let mut sh = shell();
        let initial_annotations = sh.store.annotation_count();
        // The guidance chain: BACKUP refuses without durability, then
        // without archiving.
        assert!(sh
            .exec(&format!("BACKUP TO '{}'", bundle.display()))
            .unwrap_err()
            .0
            .contains("durability is off"));
        assert!(sh.exec("SET ARCHIVE '/tmp/nowhere'").unwrap_err().0.contains("durability is off"));
        sh.exec(&format!(
            "SET DURABILITY '{}' EVERY 64 ARCHIVE '{}'",
            wal.display(),
            arch.display()
        ))
        .expect("shell operation should succeed");

        sh.exec("ANNOTATE gene 'JW0005' 'this gene correlates with JW0001 under stress'")
            .expect("shell operation should succeed");
        sh.exec("CHECKPOINT").expect("shell operation should succeed");
        sh.exec("ANNOTATE gene 'JW0002' 'note about gene JW0003'")
            .expect("shell operation should succeed");
        let annotated = sh.store.annotation_count();
        assert!(annotated > initial_annotations);

        let captured = sh
            .exec(&format!("BACKUP TO '{}'", bundle.display()))
            .expect("shell operation should succeed");
        assert!(captured.contains("restorable lsn range"), "{captured}");
        assert!(captured.contains("seq 1"), "{captured}");

        let shown = sh.exec("SHOW DURABILITY").expect("shell operation should succeed");
        assert!(shown.contains("archive: '"), "{shown}");
        assert!(shown.contains("oldest restorable lsn"), "{shown}");
        assert!(shown.contains("last backup: seq 1"), "{shown}");

        let backups = sh.exec("SHOW BACKUPS").expect("shell operation should succeed");
        assert!(backups.contains("seq 1:"), "{backups}");
        assert!(backups.contains("verified"), "{backups}");
        assert!(!backups.contains("FAILED"), "{backups}");

        let scrubbed = sh
            .exec(&format!("SCRUB BACKUP '{}'", bundle.display()))
            .expect("shell operation should succeed");
        assert!(scrubbed.contains("all files clean"), "{scrubbed}");
        assert!(scrubbed.contains("manifest verified"), "{scrubbed}");

        // Full restore: byte-equivalent state, sink detached.
        let restored =
            sh.exec(&format!("RESTORE FROM '{}'", bundle.display())).expect("restore succeeds");
        assert!(restored.contains("restored to lsn"), "{restored}");
        assert!(restored.contains("sink detached"), "{restored}");
        assert_eq!(sh.store.annotation_count(), annotated, "every record replayed");
        assert_eq!(
            sh.exec("SHOW DURABILITY").expect("shell operation should succeed"),
            "durability: off"
        );

        // Point-in-time: AS OF LSN 0 lands on the pre-annotation base.
        let pitr = sh
            .exec(&format!("RESTORE FROM '{}' AS OF LSN 0", bundle.display()))
            .expect("as-of restore succeeds");
        assert!(pitr.contains("restored to lsn 0"), "{pitr}");
        assert_eq!(sh.store.annotation_count(), initial_annotations, "history rewound");

        // Out-of-range targets and malformed syntax are refused.
        let e =
            sh.exec(&format!("RESTORE FROM '{}' AS OF LSN 999999", bundle.display())).unwrap_err();
        assert!(e.0.contains("not restorable"), "{e}");
        assert!(sh.exec("RESTORE").is_err());
        assert!(sh.exec(&format!("RESTORE FROM '{}' AS OF", bundle.display())).is_err());
        assert!(sh.exec("BACKUP").is_err());
        assert!(sh.exec("SHOW BACKUPS").expect("still works").contains("seq 1"));

        let _ = std::fs::remove_dir_all(&root);
    }
}
