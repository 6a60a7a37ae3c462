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
//! thin stdin loop and tests drive the shell directly. [`VERBS`] is the
//! one command table; [`Mode`], [`Shell::enter`] and [`Shell::swap`] are
//! the one state machine over the engine.

use crate::prelude::*;
use nebula_core::{CommitRule, MutationSink, StabilityConfig};
use nebula_replica::{Cluster, ClusterConfig, ClusterSink, SimTransport};
use relstore::{ConjunctiveQuery, Predicate};
use std::fmt;
use std::path::Path;

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

fn fail(e: impl ToString) -> ShellError {
    err(e.to_string())
}

/// A malformed call. [`Shell::exec`] replaces it with the verb's usage
/// line from [`VERBS`], so no handler spells its own usage.
fn usage() -> ShellError {
    err("")
}

/// `tok` parsed as a `T` that `ok` accepts, or the error `why`.
fn parsed<T: std::str::FromStr>(
    tok: Option<&String>,
    ok: impl Fn(&T) -> bool,
    why: impl Into<String>,
) -> Result<T, ShellError> {
    tok.and_then(|s| s.parse().ok()).filter(ok).ok_or_else(|| err(why))
}

/// The arguments of a verb that takes exactly `N`.
fn exactly<const N: usize>(args: &[String]) -> Result<&[String; N], ShellError> {
    args.try_into().map_err(|_| usage())
}

/// What the engine commits through. The engine holds a sink exactly in
/// the `Wal` and `Replicas` states; [`Shell::enter`] keeps it so.
enum Mode {
    /// One engine, no sink.
    Plain,
    /// One engine logging to a write-ahead log (the sink is the engine's).
    Wal,
    /// One engine shipping to a replica cluster; a second handle on the
    /// cluster backs PROMOTE, SCRUB, REJOIN and the replication SHOWs.
    Replicas(ClusterSink),
    /// The sharded scatter-gather cluster: ANNOTATE routes through it.
    Shards(Box<ShardCluster>),
}

impl Mode {
    fn has_sink(&self) -> bool {
        matches!(self, Mode::Wal | Mode::Replicas(_))
    }
}

/// The shell: owns the database, the annotation store, and the engine.
pub struct Shell {
    /// The relational database.
    pub db: Database,
    /// The annotation store.
    pub store: AnnotationStore,
    /// The proactive engine.
    pub nebula: Nebula,
    /// What the engine commits through.
    mode: Mode,
    /// The paged storage backend while `SET STORAGE DISK` is active
    /// (rows and posting blocks page to disk; backs SHOW STORAGE).
    storage: Option<PagedStorage>,
    /// Bundles captured by BACKUP this session, with their directories
    /// and completion times (backs SHOW BACKUPS and the last-backup age in
    /// SHOW DURABILITY).
    backups: Vec<(String, BackupManifest, std::time::Instant)>,
}

/// A command: its words, the arguments it takes (empty: none), and its
/// handler, which gets the shell and the arguments after the words.
type Verb = (&'static str, &'static str, fn(&mut Shell, &[String]) -> Result<String, ShellError>);

/// Every command, in the order HELP lists them.
static VERBS: &[Verb] = &[
    ("TABLES", "", |sh, _| Ok(sh.tables())),
    (
        "SELECT",
        "<table> [COLUMNS a,b,...] [WHERE <col> (=|CONTAINS) <val>]... \
         [ORDER BY <col> [ASC|DESC]] [LIMIT n]",
        |sh, a| sh.select(a),
    ),
    ("ANNOTATE", "<table> '<pk>' '<text>'", Shell::annotate),
    ("DELETE", "<table> '<pk>'", Shell::delete),
    ("ANNOTATIONS", "<table> '<pk>'", |sh, a| sh.annotations(a)),
    ("PENDING", "", |sh, _| Ok(sh.pending())),
    ("VERIFY ATTACHMENT", "<vid>", |sh, a| sh.resolve("VERIFY", a)),
    ("REJECT ATTACHMENT", "<vid>", |sh, a| sh.resolve("REJECT", a)),
    ("ACG", "", |sh, _| Ok(sh.acg())),
    ("PROFILE", "", |sh, _| Ok(sh.profile())),
    ("EXPLAIN ANNOTATION", "<id>", |_, a| explain(a)),
    ("TRACE ANNOTATION", "<id>", |_, a| trace(a)),
    (
        "SET BUDGET",
        "DEADLINE <ms> | TUPLES <n> | CONFIGS <n> | CANDIDATES <n> | OFF",
        Shell::set_budget,
    ),
    ("SET FAULTS", "<seed> [RATE <r>] | HOSTILE <seed> | OFF", |_, a| set_faults(a)),
    (
        "SET DURABILITY",
        "'<dir>' [EVERY <n>] [SYNC BATCH|EVERY] [ARCHIVE '<adir>'] | OFF",
        Shell::set_durability,
    ),
    ("SET ARCHIVE", "'<dir>'", Shell::set_archive),
    (
        "SET REPLICAS",
        "<n> '<dir>' [QUORUM <q>] [NETFAULTS <seed> <rate>] | OFF",
        Shell::set_replicas,
    ),
    ("SET SHARDS", "<n> | OFF", Shell::set_shards),
    ("SET STORAGE", "DISK '<dir>' [POOL <frames>] | MEM", Shell::set_storage),
    ("CHECKPOINT", "", |sh, _| sh.checkpoint()),
    ("RECOVER", "'<dir>'", Shell::recover),
    ("PROMOTE", "[<id>]", Shell::promote),
    ("SCRUB", "", |sh, _| sh.scrub()),
    ("REJOIN", "[<node>]", |sh, a| sh.rejoin(a)),
    ("BACKUP TO", "'<dir>'", Shell::backup),
    ("RESTORE FROM", "'<dir>' [AS OF LSN <n>]", Shell::restore),
    ("SCRUB BACKUP", "'<dir>'", |_, a| scrub_backup(a)),
    ("SAVE", "'<path>'", |sh, a| sh.save(a)),
    ("LOAD", "'<path>'", Shell::load),
    ("SHOW METRICS", "", |_, _| Ok(nebula_obs::snapshot().render_text())),
    ("SHOW BUDGET", "", |sh, _| Ok(format!("budget: {}", sh.nebula.config().budget))),
    ("SHOW FAULTS", "", |_, _| Ok(show_faults())),
    ("SHOW DURABILITY", "", |sh, _| Ok(sh.show_durability())),
    ("SHOW BACKUPS", "", |sh, _| Ok(sh.show_backups())),
    ("SHOW REPLICATION", "", |sh, _| Ok(sh.show_replication())),
    ("SHOW REPLICA", "<id> [STALENESS <n>]", |sh, a| sh.show_replica(a)),
    ("SHOW REPAIR", "", |sh, _| Ok(sh.show_repair())),
    ("SHOW SHARDS", "", |sh, _| Ok(sh.show_shards())),
    ("SHOW STORAGE", "", |sh, _| Ok(sh.show_storage())),
    ("SHOW CRITICAL PATH", "", |_, _| Ok(show_critical_path())),
    ("SHOW FLIGHT", "", |_, _| Ok(show_flight())),
    ("HELP", "", |_, _| Ok(help())),
];

/// One table entry's usage line: its words, then its arguments.
fn usage_line(&(name, args, _): &Verb) -> String {
    format!("{name} {args}").trim_end().to_string()
}

/// The [`VERBS`] entry whose words lead `tokens`, the longest if several
/// do (`SCRUB BACKUP` over `SCRUB`).
fn lookup(tokens: &[String]) -> Option<&'static Verb> {
    let words = |name: &str| name.split(' ').count();
    let leads =
        |name: &str| tokens.iter().map(|t| t.to_uppercase()).take(words(name)).eq(name.split(' '));
    VERBS.iter().filter(|(name, ..)| leads(name)).max_by_key(|(name, ..)| words(name))
}

fn help() -> String {
    let lines: Vec<String> = VERBS.iter().map(|v| format!("  {};", usage_line(v))).collect();
    format!("commands:\n{}", lines.join("\n"))
}

impl Shell {
    /// Shell over an existing stack. Turns on global telemetry so
    /// `SHOW METRICS` and `EXPLAIN ANNOTATION` have data to report.
    pub fn new(db: Database, store: AnnotationStore, nebula: Nebula) -> Shell {
        nebula_obs::set_enabled(true);
        nebula_obs::trace::set_enabled(true);
        Shell { db, store, nebula, mode: Mode::Plain, storage: None, backups: Vec::new() }
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

    /// Execute one command line, returning the rendered response. A line
    /// whose first word starts entries but matches none gets their usage
    /// lines.
    pub fn exec(&mut self, line: &str) -> Result<String, ShellError> {
        let cleaned = line.trim().trim_end_matches(';').trim();
        if cleaned.is_empty() {
            return Ok(String::new());
        }
        let tokens = lex(cleaned)?;
        let Some(verb) = lookup(&tokens) else {
            let first = tokens[0].to_uppercase();
            let family: Vec<String> = VERBS
                .iter()
                .filter(|v| v.0.starts_with(&format!("{first} ")))
                .map(usage_line)
                .collect();
            return Err(err(if family.is_empty() {
                format!("unknown command `{first}` — try HELP")
            } else {
                format!("usage: {}", family.join(" | "))
            }));
        };
        let (name, params, run) = *verb;
        let args = &tokens[name.split(' ').count()..];
        let result =
            if params.is_empty() && !args.is_empty() { Err(usage()) } else { run(self, args) };
        result.map_err(
            |e| if e.0.is_empty() { err(format!("usage: {}", usage_line(verb))) } else { e },
        )
    }

    /// The one mode transition: install `sink` on the engine (dropping the
    /// old one) and move to `next`, returning the mode left. `sink` is
    /// `Some` exactly when `next` is `Wal` or `Replicas`.
    fn enter(&mut self, next: Mode, sink: Option<Box<dyn MutationSink>>) -> Mode {
        debug_assert_eq!(sink.is_some(), next.has_sink());
        self.nebula.set_mutation_sink(sink);
        std::mem::replace(&mut self.mode, next)
    }

    /// Refuse `verb` while sharded: it writes the single engine's state,
    /// which the shard cluster's merged store would overwrite on the next
    /// ANNOTATE (or it installs a sink the shards never commit through).
    fn unsharded(&self, verb: &str) -> Result<(), ShellError> {
        match self.mode {
            Mode::Shards(_) => Err(err(format!("{verb} needs SET SHARDS OFF first"))),
            _ => Ok(()),
        }
    }

    /// The one state swap behind RESTORE, PROMOTE, RECOVER, LOAD and SET
    /// SHARDS OFF: refuse while sharded, else `load` the new database
    /// (`None` keeps it), store and verb result, re-home the database onto
    /// the page file under `SET STORAGE DISK`, and rebuild the ACG. The
    /// verb then keeps, detaches or replaces the sink with [`Shell::enter`].
    /// The queue, hop profile and stability flag stay the engine's own.
    fn swap<T>(
        &mut self,
        verb: &str,
        load: impl FnOnce() -> Result<(Option<Database>, AnnotationStore, T), ShellError>,
    ) -> Result<T, ShellError> {
        self.unsharded(verb)?;
        let (db, store, out) = load()?;
        if let Some(db) = db {
            match self.storage.clone() {
                Some(pages) => {
                    let snapshot = relstore::snapshot::save(&db);
                    self.load_onto_pages(pages.dir(), pages.pool_frames(), &snapshot)?;
                }
                None => self.db = db,
            }
        }
        self.store = store;
        self.nebula.bootstrap_acg(&self.store);
        Ok(out)
    }

    /// Detach any sink after RESTORE or LOAD, saying so after `out`: logging
    /// the swapped-in state over the old history would replay to neither.
    fn detach(&mut self, out: String) -> String {
        if !self.enter(Mode::Plain, None).has_sink() {
            return out;
        }
        format!(
            "{out}\n  durability sink detached — SET DURABILITY into a fresh directory \
             to resume logging"
        )
    }

    fn tables(&self) -> String {
        let mut out = Vec::new();
        for (tid, name) in self.db.catalog().iter() {
            let table = self.db.table(tid).expect("catalog consistent");
            let cols: Vec<&str> =
                table.schema().iter_columns().map(|(_, d)| d.name.as_str()).collect();
            out.push(format!("{name} ({} rows): {}", table.len(), cols.join(", ")));
        }
        out.join("\n")
    }

    /// `SELECT <table> [COLUMNS a,b,...] [WHERE <col> (=|CONTAINS) <val>]*
    /// [ORDER BY <col> [ASC|DESC]] [LIMIT n]`
    fn select(&self, args: &[String]) -> Result<String, ShellError> {
        use relstore::{Order, SelectStatement};
        let table_name = args.first().ok_or_else(usage)?;
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
                    stmt = stmt.limit(parsed(args.get(i + 1), |_| true, "LIMIT needs a number")?);
                    i += 2;
                }
                other => return Err(err(format!("unexpected token `{other}`"))),
            }
        }
        let result = stmt.execute(&self.db).map_err(fail)?;
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
        let [table, key] = exactly(args)?;
        self.unsharded("DELETE")?;
        let tuple = self.resolve_key(table, key)?;
        // Log before apply: the deletion reaches the WAL (when durability
        // is on) before either store mutates.
        let affected = self.nebula.on_tuple_deleted(&mut self.store, tuple).map_err(fail)?;
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
    /// the proactive pipeline on it: through the engine's contained batch
    /// path (a quarantine surfaces as a shell error; the session survives),
    /// or through the shard cluster while `SET SHARDS` is on.
    fn annotate(&mut self, args: &[String]) -> Result<String, ShellError> {
        let [table, key, text] = exactly(args)?;
        let focal = self.resolve_key(table, key)?;
        let annotation = Annotation::new(text.clone());
        let target = format!("{table} '{key}'");
        if let Mode::Shards(cluster) = &mut self.mode {
            let outcome = cluster.ingest(&annotation, &[focal]).map_err(fail)?;
            let shard = cluster.router().route(&[focal]);
            // Mirror the merged shard state back into the shell's store so
            // ANNOTATIONS / SELECT keep reading the single source of truth.
            self.store = cluster.merged_store().map_err(fail)?;
            return Ok(self.render_annotate(&outcome, &target, Some(shard)));
        }
        let mut report =
            self.nebula.process_batch(&self.db, &mut self.store, &[(annotation, vec![focal])]);
        let entry = report.entries.pop().expect("one entry per item");
        match (entry.outcome, entry.quarantine) {
            (Some(outcome), _) => Ok(self.render_annotate(&outcome, &target, None)),
            (None, reason) => Err(fail(reason.expect("no outcome means quarantined"))),
        }
    }

    /// Render one ANNOTATE outcome. A sharded outcome names its home
    /// shard; its pending tasks sit on that shard's queue, so they print
    /// as a count rather than from the engine's queue.
    fn render_annotate(&self, outcome: &ProcessOutcome, on: &str, shard: Option<usize>) -> String {
        let via = shard.map(|s| format!(" via shard {s}")).unwrap_or_default();
        let mut out = vec![format!(
            "annotation {} attached to {on}{via}; {} queries generated",
            outcome.annotation,
            outcome.queries.len()
        )];
        for (t, conf) in &outcome.accepted {
            out.push(format!(
                "  auto-accepted (conf {conf:.2}): {}",
                self.db.get(*t).expect("live").render()
            ));
        }
        if shard.is_none() {
            for vid in &outcome.pending {
                let task = self.nebula.queue().get(*vid).expect("queued");
                out.push(format!(
                    "  pending task {vid} (conf {:.2}): {}",
                    task.confidence,
                    self.db.get(task.tuple).expect("live").render()
                ));
            }
        } else if !outcome.pending.is_empty() {
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
        out.join("\n")
    }

    /// `ANNOTATIONS <table> '<pk>'`
    fn annotations(&self, args: &[String]) -> Result<String, ShellError> {
        let [table, key] = exactly(args)?;
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

    fn pending(&self) -> String {
        if self.nebula.queue().is_empty() {
            return "(no pending verification tasks)".into();
        }
        self.nebula
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
            .join("\n")
    }

    /// `VERIFY ATTACHMENT <vid>` / `REJECT ATTACHMENT <vid>` — §7's expert
    /// commands, parsed by the engine.
    fn resolve(&mut self, verb: &str, args: &[String]) -> Result<String, ShellError> {
        let [vid] = exactly(args)?;
        let line = format!("{verb} ATTACHMENT {vid}");
        let task = self.nebula.execute_command(&mut self.store, &line).map_err(fail)?;
        Ok(format!("task {} resolved ({} ↔ {})", task.vid, task.annotation, task.tuple))
    }

    fn acg(&self) -> String {
        let acg = self.nebula.acg();
        format!(
            "ACG: {} nodes, {} edges, stable = {}",
            acg.node_count(),
            acg.edge_count(),
            acg.is_stable()
        )
    }

    fn profile(&self) -> String {
        let p = self.nebula.profile();
        let rows: Vec<String> = p
            .iter()
            .map(|(h, c)| format!("  {h} hops: {c} ({:.0}%)", p.coverage(h) * 100.0))
            .collect();
        if rows.is_empty() {
            "profile: empty".into()
        } else {
            format!("profile ({} points):\n{}", p.total(), rows.join("\n"))
        }
    }

    /// Rebuild the database from `snapshot` onto a fresh page file in `dir`
    /// behind a pool of `frames`, and flush. The caller takes the snapshot
    /// first: any page file already in `dir` goes.
    fn load_onto_pages(
        &mut self,
        dir: &Path,
        frames: usize,
        snapshot: &[u8],
    ) -> Result<StorageMetrics, ShellError> {
        match std::fs::remove_file(dir.join(nebula_pagestore::file::FILE_NAME)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(fail(e)),
            _ => {}
        }
        let store = PagedStorage::open(dir, frames).map_err(fail)?;
        self.db = relstore::snapshot::load_with(snapshot, Some(std::sync::Arc::new(store.clone())))
            .map_err(fail)?;
        store.flush_pages().map_err(fail)?;
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
        match args.first().map(|s| s.to_uppercase()).as_deref() {
            Some("MEM") => {
                let Some(old) = self.storage.take() else {
                    return Ok("storage: already mem".into());
                };
                old.flush_pages().map_err(fail)?;
                let bytes = relstore::snapshot::save(&self.db);
                self.db = relstore::snapshot::load(&bytes).map_err(fail)?;
                Ok("storage: mem (rows and postings rebuilt in RAM; \
                    page file keeps its last flushed state)"
                    .into())
            }
            Some("DISK") => {
                self.unsharded("SET STORAGE")?;
                let min = nebula_pagestore::pool::MIN_FRAMES;
                let why = format!("POOL needs a frame count >= {min}");
                let (dir, frames) = match &args[1..] {
                    [dir] => (dir, nebula_pagestore::pool::DEFAULT_FRAMES),
                    [dir, kw, n] if kw.eq_ignore_ascii_case("POOL") => {
                        (dir, parsed(Some(n), |n| *n >= min, why)?)
                    }
                    _ => return Err(usage()),
                };
                let bytes = relstore::snapshot::save(&self.db);
                let m = self.load_onto_pages(Path::new(dir), frames, &bytes)?;
                Ok(format!(
                    "storage: disk ({dir}, pool {frames} frames); \
                     {} pages flushed at watermark {}",
                    m.page_count, m.watermark
                ))
            }
            _ => Err(usage()),
        }
    }

    /// `SET SHARDS <n> | OFF` — partition the engine into `n` shards
    /// behind the deterministic focal-hash router (ANNOTATE then
    /// scatter-gathers keyword search across them), or swap the merged
    /// shard state back onto the single-engine path.
    fn set_shards(&mut self, args: &[String]) -> Result<String, ShellError> {
        match args.first().map(|s| s.to_uppercase()).as_deref() {
            Some("OFF") => {
                let Mode::Shards(cluster) = &self.mode else {
                    return Ok("shards: already off".into());
                };
                let store = cluster.merged_store().map_err(fail)?;
                let shards = cluster.shards();
                self.enter(Mode::Plain, None);
                self.swap("SET SHARDS OFF", || Ok((None, store, ())))?;
                Ok(format!("shards: off ({shards} shard slices merged back into one store)"))
            }
            Some(tok) => {
                let n: usize = tok.parse().ok().filter(|n: &usize| *n >= 1).ok_or_else(usage)?;
                if self.mode.has_sink() {
                    return Err(err("SET SHARDS needs the single-engine sink detached first — \
                         run SET DURABILITY OFF / SET REPLICAS OFF"));
                }
                let cluster = ShardCluster::new(
                    &self.db,
                    &self.store,
                    self.nebula.meta(),
                    self.nebula.config(),
                    ShardConfig::new(n),
                )
                .map_err(fail)?;
                let shards = cluster.shards();
                self.enter(Mode::Shards(Box::new(cluster)), None);
                Ok(format!(
                    "shards: {shards} (focal-hash router over {} slots; \
                     ANNOTATE now scatter-gathers)",
                    nebula_ingest::SLOTS
                ))
            }
            None => Err(usage()),
        }
    }

    /// The OFF half of SET DURABILITY and SET REPLICAS: detach whichever
    /// sink is installed. Sharding has none, so it stays.
    fn sink_off(&mut self, off: &str, already: &str) -> String {
        let had_sink =
            !matches!(self.mode, Mode::Shards(_)) && self.enter(Mode::Plain, None).has_sink();
        if had_sink { off } else { already }.to_string()
    }

    /// `SET DURABILITY '<dir>' [EVERY <n>] [SYNC BATCH|EVERY] [ARCHIVE
    /// '<adir>'] | OFF` — start logging every pipeline mutation to a
    /// write-ahead log in `<dir>` (checkpointing every `<n>` records,
    /// archiving sealed segments into `<adir>` for BACKUP), or detach the
    /// log.
    fn set_durability(&mut self, args: &[String]) -> Result<String, ShellError> {
        let first = args.first().ok_or_else(usage)?;
        if first.to_uppercase() == "OFF" {
            return Ok(self.sink_off(
                "durability: off (log closed; directory keeps its state)",
                "durability: already off",
            ));
        }
        self.unsharded("SET DURABILITY")?;
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
                    let n = parsed(args.get(i + 1), |n| *n > 0, "EVERY needs a positive number")?;
                    options.checkpoint_every = Some(n);
                    i += 2;
                }
                "SYNC" => {
                    match args.get(i + 1).map(|s| s.to_uppercase()).as_deref() {
                        Some("BATCH") => options.sync = SyncPolicy::Batch,
                        Some("EVERY") => options.sync = SyncPolicy::EveryRecord,
                        _ => return Err(usage()),
                    }
                    i += 2;
                }
                _ => return Err(usage()),
            }
        }
        let mut durability =
            Durability::begin(Path::new(first), &self.db, &self.store, options).map_err(fail)?;
        if let Some(adir) = &archive {
            durability.set_archive(Path::new(adir), 1).map_err(fail)?;
        }
        let summary =
            format!("durability: on ({}); initial checkpoint written", durability.describe());
        self.enter(Mode::Wal, Some(Box::new(durability)));
        Ok(summary)
    }

    /// `SET ARCHIVE '<dir>'` — start archiving the installed sink's
    /// sealed WAL segments (and a base checkpoint) into `<dir>`. Works on
    /// both the single-log sink and the replicated cluster; BACKUP needs
    /// this on so a restorable history exists to bundle.
    fn set_archive(&mut self, args: &[String]) -> Result<String, ShellError> {
        let [dir] = exactly(args)?;
        let sink = self.nebula.mutation_sink_mut().ok_or_else(|| {
            err("durability is off — SET DURABILITY '<dir>' or SET REPLICAS first")
        })?;
        sink.set_archive(Path::new(dir)).map_err(fail)?;
        Ok(format!(
            "archive: on ('{dir}'); every checkpoint seals its WAL run there before truncating"
        ))
    }

    /// `BACKUP TO '<dir>'` — checkpoint the sink (sealing the live WAL
    /// run into the archive) and capture a verified bundle: base
    /// checkpoints, archived segments, and a signed manifest of per-file
    /// digests. The bundle restores on a machine that never saw this one.
    fn backup(&mut self, args: &[String]) -> Result<String, ShellError> {
        let [dir] = exactly(args)?;
        let sink = self.nebula.mutation_sink_mut().ok_or_else(|| {
            err("durability is off — SET DURABILITY '<dir>' ARCHIVE '<adir>' first")
        })?;
        let archive_dir = sink.archive_dir().ok_or_else(|| {
            err("archiving is off — SET ARCHIVE '<dir>' first (BACKUP bundles the archive)")
        })?;
        sink.checkpoint(&self.db, &self.store).map_err(fail)?;
        let seq = self.backups.len() as u64 + 1;
        let spec = BundleSpec {
            archive_dir,
            bundle_dir: std::path::PathBuf::from(dir),
            pages: None,
            created_seq: seq,
        };
        let manifest = nebula_backup::create_bundle(&spec).map_err(fail)?;
        let summary = format!(
            "backup: captured '{dir}' — restorable lsn range [{}, {}], {} file(s), {} bytes (seq {seq})",
            manifest.oldest_lsn,
            manifest.head_lsn,
            manifest.entries.len(),
            manifest.bytes(),
        );
        self.backups.push((dir.clone(), manifest, std::time::Instant::now()));
        Ok(summary)
    }

    /// `RESTORE FROM '<dir>' [AS OF LSN <n>]` — verify the bundle against
    /// its signed manifest, rebuild the state from the newest bundled
    /// checkpoint at or below the target, and replay archived WAL to the
    /// target LSN (the bundle's head when no AS OF is given). Swaps the
    /// restored state in and detaches any sink, so the restored state is
    /// not logged over the old history.
    fn restore(&mut self, args: &[String]) -> Result<String, ShellError> {
        let (dir, as_of) = match args {
            [dir] => (dir, None),
            [dir, kws @ .., n] if kws.iter().map(|k| k.to_uppercase()).eq(["AS", "OF", "LSN"]) => {
                (dir, Some(parsed(Some(n), |_| true, "AS OF LSN needs a number")?))
            }
            _ => return Err(usage()),
        };
        let restored = self.swap("RESTORE", || {
            let mut r = nebula_backup::restore(Path::new(dir), as_of).map_err(fail)?;
            let store = std::mem::take(&mut r.store);
            Ok((Some(std::mem::take(&mut r.db)), store, r))
        })?;
        let fenced = if restored.fenced > 0 {
            format!(", {} fenced (deposed-epoch records refused)", restored.fenced)
        } else {
            String::new()
        };
        let out = format!(
            "restored to lsn {} from '{dir}' (manifest verified; base watermark {}, \
             {} replayed, {} skipped{fenced}); {} tuples, {} annotations; ACG rebuilt",
            restored.applied,
            restored.base_watermark,
            restored.replayed,
            restored.skipped,
            self.db.total_tuples(),
            self.store.annotation_count(),
        );
        Ok(self.detach(out))
    }

    /// `SET REPLICAS <n> '<dir>' [QUORUM <q>] [NETFAULTS <seed> <rate>]
    /// | OFF` — stand up a single-primary WAL-shipping cluster with `n`
    /// replicas rooted at `<dir>` and route every pipeline mutation
    /// through it, optionally demanding `q` acknowledgements per record
    /// (ack-quorum) and injecting seeded transport faults. OFF detaches
    /// the cluster.
    fn set_replicas(&mut self, args: &[String]) -> Result<String, ShellError> {
        let first = args.first().ok_or_else(usage)?;
        if first.to_uppercase() == "OFF" {
            return Ok(self.sink_off(
                "replication: off (cluster detached; directories keep their state)",
                "replication: already off",
            ));
        }
        self.unsharded("SET REPLICAS")?;
        let n: usize = parsed(Some(first), |n| *n > 0, "SET REPLICAS needs a replica count >= 1")?;
        let dir = args.get(1).ok_or_else(usage)?;
        let mut config = ClusterConfig::default();
        let mut plan: Option<FaultPlan> = None;
        let mut i = 2;
        while i < args.len() {
            match args[i].to_uppercase().as_str() {
                "QUORUM" => {
                    let why = "QUORUM needs a count between 1 and the replica count";
                    let q = parsed(args.get(i + 1), |q| (1..=n).contains(q), why)?;
                    config.rule = CommitRule::Quorum(q);
                    i += 2;
                }
                "NETFAULTS" => {
                    let seed: u64 = parsed(args.get(i + 1), |_| true, "NETFAULTS needs a seed")?;
                    let why = "NETFAULTS needs a rate in [0, 1]";
                    let rate: f64 = parsed(args.get(i + 2), |r| (0.0..=1.0).contains(r), why)?;
                    let sites = [
                        FaultSite::NetDrop,
                        FaultSite::NetDelay,
                        FaultSite::NetReorder,
                        FaultSite::NetDuplicate,
                    ];
                    plan =
                        Some(sites.into_iter().fold(FaultPlan::new(seed), |p, s| p.with(s, rate)));
                    i += 3;
                }
                _ => return Err(usage()),
            }
        }
        // Node 0 is the primary; replicas are nodes 1..=n.
        let transport: Box<SimTransport> = match plan {
            Some(p) => Box::new(SimTransport::new(n + 1, p)),
            None => Box::new(SimTransport::reliable(n + 1)),
        };
        let cluster = Cluster::new(Path::new(dir), &self.db, &self.store, n, transport, config)
            .map_err(fail)?;
        let st = cluster.status();
        let summary = format!(
            "replication: on (epoch {} rule {} replicas {}); bootstrap checkpoints shipped",
            st.epoch, st.rule, st.replicas
        );
        let sink = ClusterSink::new(cluster);
        self.enter(Mode::Replicas(sink.handle()), Some(Box::new(sink)));
        Ok(summary)
    }

    /// A handle on the replication cluster, or the error every
    /// replication verb gives while it is off.
    fn replicas(&self) -> Result<ClusterSink, ShellError> {
        match &self.mode {
            Mode::Replicas(sink) => Ok(sink.handle()),
            _ => Err(err("replication is off — SET REPLICAS <n> '<dir>' first")),
        }
    }

    /// `PROMOTE [<id>]` — deterministic failover: promote replica `id`
    /// (or the best live candidate) to primary under a bumped epoch, then
    /// swap the new primary's state in, keeping the cluster as the sink.
    /// Any suffix the old primary held beyond the promoted replica's
    /// applied LSN is discarded — that is the failover contract — and the
    /// deposed primary's future writes are fenced.
    fn promote(&mut self, args: &[String]) -> Result<String, ShellError> {
        let id: Option<usize> = match args {
            [] => None,
            [tok] => Some(tok.parse().map_err(|_| usage())?),
            _ => return Err(usage()),
        };
        let sink = self.replicas()?;
        let (id, epoch, applied) = self.swap("PROMOTE", || {
            let mut cluster = sink.lock();
            let id = match id {
                Some(id) => id,
                None => cluster
                    .best_failover_candidate()
                    .ok_or_else(|| err("no live replica to promote"))?,
            };
            cluster.promote(id).map_err(fail)?;
            let (db, store) = cluster.primary().shadow();
            let image = nebula_durable::checkpoint::encode(0, db, store);
            let (_, db, store) = nebula_durable::checkpoint::decode(&image).map_err(fail)?;
            Ok((Some(db), store, (id, cluster.primary().epoch(), cluster.primary().last_lsn())))
        })?;
        Ok(format!(
            "promoted replica {id} to primary (epoch {epoch}, lsn {applied}); \
             shell state rebased onto the new primary; ACG rebuilt"
        ))
    }

    /// `SHOW REPLICATION` — the cluster posture: epoch, commit rule,
    /// per-replica ack/ship positions, divergences, deposed primaries.
    fn show_replication(&self) -> String {
        let Ok(sink) = self.replicas() else {
            return "replication: off".into();
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
        out.join("\n")
    }

    /// `SHOW REPLICA <id> [STALENESS <n>]` — a bounded-staleness read
    /// against one replica: succeeds only if the replica is live and
    /// within `n` LSNs of the primary (unbounded without STALENESS).
    fn show_replica(&self, args: &[String]) -> Result<String, ShellError> {
        let (id, bound) = match args {
            [id] => (id, u64::MAX),
            [id, kw, n] if kw.eq_ignore_ascii_case("STALENESS") => {
                (id, parsed(Some(n), |_| true, "STALENESS needs a number")?)
            }
            _ => return Err(usage()),
        };
        let id: usize = id.parse().map_err(|_| usage())?;
        let sink = self.replicas()?;
        let cluster = sink.lock();
        let r = cluster
            .replica(id)
            .ok_or_else(|| err(format!("no replica {id} — SHOW REPLICATION lists them")))?;
        let lag = cluster.primary().last_lsn().saturating_sub(r.applied());
        let (tuples, notes) = cluster
            .read_replica(id, bound, |db, store| (db.total_tuples(), store.annotation_count()))
            .map_err(fail)?;
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

    /// Page-file half of SCRUB: a read-only CRC walk over every page.
    /// Single-bit rot (the common at-rest failure) is healed losslessly
    /// in place via CRC linearity; only pages with wider damage force a
    /// rebuild of a fresh, fully-checksummed file from the live state.
    /// In that last resort, rows whose only copy sat on an unrecoverable
    /// page degrade to NULL (counted in `relstore.storage_errors`)
    /// rather than poisoning the rebuild.
    fn scrub_pages(&mut self, store: &PagedStorage) -> Result<Vec<String>, ShellError> {
        store.flush_pages().map_err(fail)?;
        let report = store.scrub().map_err(fail)?;
        let mut out = vec![format!("pages: {report}")];
        if report.is_clean() {
            return Ok(out);
        }
        let repair = store.repair().map_err(fail)?;
        out.push(format!("pages repaired in place: {repair}"));
        if repair.is_clean() {
            return Ok(out);
        }
        // The snapshot must read the live state before the file goes.
        let snapshot = relstore::snapshot::save(&self.db);
        let m = self.load_onto_pages(store.dir(), store.pool_frames(), &snapshot)?;
        out.push(format!(
            "pages: rebuilt a clean file from live state ({} pages at watermark {})",
            m.page_count, m.watermark
        ));
        Ok(out)
    }

    /// `SCRUB` — run one anti-entropy pass now over the page file (when
    /// storage is on disk) and then the shard cluster or the replicated
    /// cluster. A replicated scrub CRC-checks the primary's on-disk WAL and
    /// checkpoints (healing found rot from the shadow state), walks the
    /// range-digest ladder against every live replica, and repairs
    /// whatever the pass finds; a sharded scrub rebuilds every shard whose
    /// digest disagrees with the durable history.
    fn scrub(&mut self) -> Result<String, ShellError> {
        let mut out = match self.storage.clone() {
            Some(store) => self.scrub_pages(&store)?,
            None => Vec::new(),
        };
        match &mut self.mode {
            Mode::Shards(cluster) => {
                let report = cluster.scrub().map_err(fail)?;
                out.push(format!("shards: {report}"));
            }
            Mode::Replicas(sink) => {
                let mut cluster = sink.lock();
                let at_lsn = cluster.primary().last_lsn();
                let report = cluster.scrub();
                out.push(format!("scrub at lsn {at_lsn}: {report}"));
                let mut to_repair = nebula_replica::flagged_replicas(&report);
                to_repair.sort_unstable();
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
            }
            _ if out.is_empty() => {
                return Err(err("replication is off — SET REPLICAS <n> '<dir>' first \
                     (or SET SHARDS <n>, or SET STORAGE DISK for a page-file scrub)"));
            }
            _ => {}
        }
        Ok(out.join("\n"))
    }

    /// `REJOIN [<node>]` — demote the deposed primary `node` to a replica
    /// of the current epoch: rewind its un-acked (fenced) suffix and
    /// re-sync it through the checkpoint catch-up path.
    fn rejoin(&self, args: &[String]) -> Result<String, ShellError> {
        let node: Option<usize> = match args {
            [] => None,
            [tok] => Some(tok.parse().map_err(|_| usage())?),
            _ => return Err(usage()),
        };
        let sink = self.replicas()?;
        let mut cluster = sink.lock();
        let node = match node {
            Some(node) => node,
            None => *cluster
                .deposed_nodes()
                .first()
                .ok_or_else(|| err("no deposed primary to rejoin — PROMOTE creates one"))?,
        };
        let r = cluster.rejoin(node).map_err(fail)?;
        Ok(format!(
            "node {} rejoined epoch {} as a replica: rewound {} fenced lsn(s) \
             ({} ladder probes, converged = {})",
            r.node, r.epoch, r.rewound, r.probes, r.converged,
        ))
    }

    /// `SHOW REPAIR` — the repair posture: the last scrub's report, pending
    /// repairs, completed repairs/rejoins, and divergence depths.
    fn show_repair(&self) -> String {
        let Ok(sink) = self.replicas() else {
            return "replication: off — no repair surface".into();
        };
        let cluster = sink.lock();
        let st = cluster.repair_status();
        let mut out = vec![format!(
            "repair: {} scrub(s), {} repair(s), {} rejoin(s)",
            st.scrubs, st.repairs, st.rejoins
        )];
        match cluster.last_scrub() {
            Some((lsn, report)) => out.push(format!("  last scrub at lsn {lsn}: {report}")),
            None => out.push("  last scrub: never".into()),
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
        out.join("\n")
    }

    /// `CHECKPOINT` — persist the full state now and truncate the log.
    fn checkpoint(&mut self) -> Result<String, ShellError> {
        let sink = self
            .nebula
            .mutation_sink_mut()
            .ok_or_else(|| err("durability is off — SET DURABILITY '<dir>' first"))?;
        let watermark = sink.checkpoint(&self.db, &self.store).map_err(fail)?;
        Ok(format!("checkpoint committed (watermark lsn {watermark}); log truncated"))
    }

    /// `RECOVER '<dir>'` — swap in the recovered checkpoint + log replay
    /// from `<dir>` and continue logging into it.
    fn recover(&mut self, args: &[String]) -> Result<String, ShellError> {
        let [path] = exactly(args)?;
        if !Path::new(path).is_dir() {
            return Err(usage());
        }
        let (durability, recovered) = self.swap("RECOVER", || {
            let (durability, mut r) =
                Durability::resume(Path::new(path), DurabilityOptions::default()).map_err(fail)?;
            let store = std::mem::take(&mut r.store);
            Ok((Some(std::mem::take(&mut r.db)), store, (durability, r)))
        })?;
        self.enter(Mode::Wal, Some(Box::new(durability)));
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
        let budget = &mut self.nebula.config_mut().budget;
        match args.first().map(|s| s.to_uppercase()).as_deref() {
            Some("OFF") => {
                *budget = ExecutionBudget::unbounded();
                return Ok("budget: unbounded".into());
            }
            Some(dim @ ("DEADLINE" | "TUPLES" | "CONFIGS" | "CANDIDATES")) => {
                let n: u64 =
                    parsed(args.get(1), |_| true, format!("SET BUDGET {dim} needs a number"))?;
                match dim {
                    "DEADLINE" => {
                        budget.deadline = Some(std::time::Duration::from_millis(n));
                    }
                    "TUPLES" => budget.max_tuples_inspected = n as usize,
                    "CONFIGS" => budget.max_configurations = n as usize,
                    _ => budget.max_candidates = n as usize,
                }
            }
            _ => return Err(usage()),
        }
        Ok(format!("budget: {}", self.nebula.config().budget))
    }

    fn show_shards(&self) -> String {
        match &self.mode {
            Mode::Shards(c) => format!("shards: on\n{}", c.describe().trim_end()),
            _ => "shards: off (single-engine path)".to_string(),
        }
    }

    fn show_storage(&self) -> String {
        let Some(s) = &self.storage else {
            return format!("storage: {} (all rows and postings in RAM)", self.db.storage_label());
        };
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

    /// `SHOW DURABILITY` — the installed sink's state, its archive, and
    /// the last backup.
    fn show_durability(&self) -> String {
        let Some(sink) = self.nebula.mutation_sink() else {
            return "durability: off".to_string();
        };
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
                Err(e) => out.push(format!("  archive: '{}' unreadable ({e})", adir.display())),
            }
            out.push(match self.backups.last() {
                Some((dir, m, at)) => format!(
                    "  last backup: seq {} to '{dir}' (head lsn {}), {}s ago",
                    m.created_seq,
                    m.head_lsn,
                    at.elapsed().as_secs(),
                ),
                None => "  last backup: never (BACKUP TO '<dir>' captures one)".into(),
            });
        }
        out.join("\n")
    }

    fn show_backups(&self) -> String {
        if self.backups.is_empty() {
            return "backups: none this session (BACKUP TO '<dir>' captures one)".into();
        }
        let mut out = vec![format!("backups: {} captured this session", self.backups.len())];
        for (dir, m, _) in &self.backups {
            let verdict = match nebula_backup::verify_bundle(Path::new(dir)) {
                Ok(v) => format!("verified ({} file(s))", v.files_verified),
                Err(e) => format!("FAILED VERIFICATION: {e}"),
            };
            out.push(format!(
                "  seq {}: '{dir}' lsn [{}, {}] — {} file(s), {} bytes — {verdict}",
                m.created_seq,
                m.oldest_lsn,
                m.head_lsn,
                m.entries.len(),
                m.bytes(),
            ));
        }
        out.join("\n")
    }

    fn save(&self, args: &[String]) -> Result<String, ShellError> {
        let [path] = exactly(args)?;
        let db_bytes = relstore::snapshot::save(&self.db);
        let ann_bytes = annostore::snapshot::save(&self.store);
        std::fs::write(format!("{path}.reldb"), &db_bytes).map_err(fail)?;
        std::fs::write(format!("{path}.anndb"), &ann_bytes).map_err(fail)?;
        Ok(format!(
            "saved {} + {} bytes to {path}.reldb / {path}.anndb",
            db_bytes.len(),
            ann_bytes.len()
        ))
    }

    /// `LOAD '<path>'` — swap in a SAVEd snapshot and detach any sink, as
    /// RESTORE does.
    fn load(&mut self, args: &[String]) -> Result<String, ShellError> {
        let [path] = exactly(args)?;
        self.swap("LOAD", || {
            let db_bytes = std::fs::read(format!("{path}.reldb")).map_err(fail)?;
            let ann_bytes = std::fs::read(format!("{path}.anndb")).map_err(fail)?;
            let db = relstore::snapshot::load(&db_bytes).map_err(fail)?;
            Ok((Some(db), annostore::snapshot::load(&ann_bytes).map_err(fail)?, ()))
        })?;
        let out = format!(
            "loaded {} tuples, {} annotations; ACG rebuilt ({} edges)",
            self.db.total_tuples(),
            self.store.annotation_count(),
            self.nebula.acg().edge_count()
        );
        Ok(self.detach(out))
    }
}

/// `SET FAULTS <seed> [RATE <r>] | HOSTILE <seed> | OFF` — install a
/// deterministic fault plan on this thread (uniform at RATE, default
/// 0.1), the always-firing hostile plan, or clear it.
fn set_faults(args: &[String]) -> Result<String, ShellError> {
    let plan = match args.first().map(|s| s.to_uppercase()).as_deref() {
        Some("OFF") => {
            nebula_govern::set_fault_plan(None);
            return Ok("faults: off".into());
        }
        Some("HOSTILE") => {
            FaultPlan::hostile(parsed(args.get(1), |_| true, "SET FAULTS HOSTILE needs a seed")?)
        }
        Some(_) => {
            let seed: u64 =
                args[0].parse().map_err(|_| err(format!("`{}` is not a seed", args[0])))?;
            let rate = match args.get(1).map(|s| s.to_uppercase()).as_deref() {
                Some("RATE") => parsed(
                    args.get(2),
                    |r| (0.0..=1.0).contains(r),
                    "RATE needs a number in [0, 1]",
                )?,
                Some(_) => return Err(usage()),
                None => 0.1,
            };
            FaultPlan::uniform(seed, rate)
        }
        None => return Err(usage()),
    };
    let desc = plan.describe();
    nebula_govern::set_fault_plan(Some(plan));
    Ok(format!("faults: {desc}"))
}

fn show_faults() -> String {
    let Some(desc) = nebula_govern::describe_fault_plan() else {
        return "faults: off".into();
    };
    let s = nebula_govern::fault_stats();
    format!(
        "faults: {desc}\n  injected: {} query, {} index-probe, {} latency, \
         {} panic\n  recovered: {}   retries: {}",
        s.injected(FaultSite::Query),
        s.injected(FaultSite::IndexProbe),
        s.injected(FaultSite::Latency),
        s.injected(FaultSite::Panic),
        s.recovered,
        s.retries,
    )
}

/// `SCRUB BACKUP '<dir>'` — walk an archive or bundle re-deriving every
/// CRC (and the manifest digests when one is present), so torn or rotten
/// files surface before a restore needs them.
fn scrub_backup(args: &[String]) -> Result<String, ShellError> {
    let [dir] = exactly(args)?;
    let report = nebula_backup::scrub(Path::new(dir)).map_err(fail)?;
    Ok(format!("backup scrub '{dir}': {report}"))
}

fn show_critical_path() -> String {
    let traces = nebula_obs::trace::traces();
    nebula_obs::trace::attribution(&traces).render_text().trim_end().to_string()
}

/// `SHOW FLIGHT` — the flight recorder: recent operational events and
/// any post-mortem dumps captured by a terminal condition.
fn show_flight() -> String {
    let events = nebula_obs::trace::flight_events();
    let dumps = nebula_obs::trace::flight_dumps();
    if events.is_empty() && dumps.is_empty() {
        return "flight recorder: empty".to_string();
    }
    let mut out = vec![format!("flight recorder: {} event(s) retained", events.len())];
    out.extend(events.iter().map(|e| format!("  #{} {} {}", e.seq, e.kind, e.detail)));
    if !dumps.is_empty() {
        out.push(format!("post-mortem dumps: {}", dumps.len()));
        out.extend(
            dumps
                .iter()
                .map(|d| format!("  trigger {} ({} event(s) captured)", d.trigger, d.events.len())),
        );
    }
    out.join("\n")
}

/// The `<id>` of TRACE and EXPLAIN: the display form `A7` or the bare `7`.
fn annotation_id(args: &[String]) -> Result<u64, ShellError> {
    let [id] = exactly(args)?;
    id.trim_start_matches(['A', 'a'])
        .parse()
        .map_err(|_| err(format!("`{id}` is not an annotation id")))
}

/// `TRACE ANNOTATION <id>` — the committed annotation's span tree,
/// with the critical path marked.
fn trace(args: &[String]) -> Result<String, ShellError> {
    let id = annotation_id(args)?;
    Ok(match nebula_obs::trace::for_annotation(id) {
        Some(trace) => trace.render_tree().trim_end().to_string(),
        None => format!(
            "no trace recorded for annotation A{id} (the ring keeps the last {} commits)",
            nebula_obs::trace::TRACE_CAPACITY
        ),
    })
}

/// `EXPLAIN ANNOTATION <id>` — replay the recorded pipeline events for
/// one annotation: per-stage wall time, candidate counts, decisions.
fn explain(args: &[String]) -> Result<String, ShellError> {
    let id = annotation_id(args)?;
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
        let root = nebula_obs::trace::for_annotation(id).expect("traced").root().label;
        assert_eq!(root, "core.process_annotation", "{out}");
        assert!(out.contains("core.process_annotation"), "{out}");
        assert!(out.contains("stage0.register"), "{out}");
        assert!(out.contains("critical path ends at"), "{out}");
        // Both id forms are accepted; unknown ids degrade gracefully.
        assert!(sh
            .exec(&format!("TRACE ANNOTATION {id}"))
            .expect("shell operation should succeed")
            .contains("core.process_annotation"));
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
        assert!(clean.contains(": clean (") && clean.contains("2 replicas"), "{clean}");
        assert!(!clean.contains("repaired replica"), "{clean}");

        // Poison a replica, then let SCRUB find and repair it.
        sh.replicas()
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
    fn scrub_with_shards_on_names_the_corrupted_shard_corrupt_and_healed() {
        let mut sh = shell();
        sh.exec("SET SHARDS 2").expect("shell operation should succeed");
        sh.exec("ANNOTATE gene 'JW0005' 'this gene correlates with JW0001 under stress'")
            .expect("shell operation should succeed");
        let clean = sh.exec("SCRUB").expect("SCRUB scrubs the shard cluster");
        assert!(clean.starts_with("shards: clean (2 shards)"), "{clean}");

        let Mode::Shards(cluster) = &mut sh.mode else { panic!("shards are on") };
        cluster.corrupt_shard(1).expect("shard 1 is live");
        let found = sh.exec("SCRUB").expect("shell operation should succeed");
        assert!(found.starts_with("shards: 1 corrupt (2 shards); shard 1: "), "{found}");
        assert!(found.ends_with("; healed shard 1"), "{found}");
        let again = sh.exec("SCRUB").expect("shell operation should succeed");
        assert!(again.starts_with("shards: clean (2 shards)"), "{again}");
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
        assert!(scrubbed.starts_with("pages: clean ("), "{scrubbed}");

        // Seed at-rest rot, then SCRUB must find it and repair.
        let fp_paged = relstore::snapshot::fingerprint(&sh.db);
        {
            let store = sh.storage.as_ref().expect("shell operation should succeed");
            store.flush_pages().expect("shell operation should succeed");
            store.set_fault_plan(Some(FaultPlan::new(0xBAD).with(FaultSite::PageRot, 1.0)));
            store.inject_rot().expect("shell operation should succeed").expect("rate 1.0 fires");
            store.set_fault_plan(None);
        }
        let repaired = sh.exec("SCRUB").expect("shell operation should succeed");
        assert!(repaired.contains("corrupt"), "{repaired}");
        assert!(repaired.contains("repaired"), "{repaired}");
        let again = sh.exec("SCRUB").expect("shell operation should succeed");
        assert!(again.starts_with("pages: clean ("), "{again}");

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
        assert!(scrubbed.contains("': clean ("), "{scrubbed}");
        assert!(scrubbed.contains("1 manifests"), "{scrubbed}");

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

    /// Six ANNOTATEs covering accepted, rejected, pending and empty
    /// outcomes, pinned in five modes below.
    const PINNED_SCRIPT: [&str; 6] = [
        "ANNOTATE gene 'JW0005' 'this gene correlates with JW0001 under stress'",
        "ANNOTATE gene 'JW0014' 'protein enzyme Actin binds gene JW0002'",
        "ANNOTATE protein 'P00002' 'this protein A-Ligase interacts with gene JW0009'",
        "ANNOTATE gene 'JW0013' 'this gene encodes protein Kinase'",
        "ANNOTATE gene 'JW0017' 'gene with receptor protein'",
        "ANNOTATE gene 'JW0002' 'note about gene JW0003'",
    ];

    /// What the pinned script prints, then the store fingerprint and the
    /// verification queue: captured from a one-item `ingest_batch`, which
    /// ANNOTATE's direct engine call must match byte for byte.
    const PINNED_PLAIN: &str = r#"annotation A80 attached to gene 'JW0005'; 1 queries generated
  auto-accepted (conf 1.00): gene(gid=JW0001, name=baaA, family=F2, length=1049, seq=GTTGTTGTGCACTAGACTGCAAGT)
annotation A81 attached to gene 'JW0014'; 2 queries generated
  auto-accepted (conf 1.00): gene(gid=JW0002, name=caaA, family=F3, length=1294, seq=AACATGGTACTGACGTCTTTGATT)
  12 low-confidence candidates auto-rejected
annotation A82 attached to protein 'P00002'; 2 queries generated
  auto-accepted (conf 1.00): gene(gid=JW0009, name=jaaA, family=F2, length=2011, seq=GGTTCCAACTACTAAGTTGGGTTT)
  pending task 0 (conf 0.50): protein(pid=P00014, pname=A-Cyclase, ptype=structural, gene_id=JW0009, mass=83438)
annotation A83 attached to gene 'JW0013'; 0 queries generated
annotation A84 attached to gene 'JW0017'; 1 queries generated
  10 low-confidence candidates auto-rejected
annotation A85 attached to gene 'JW0002'; 1 queries generated
  auto-accepted (conf 1.00): gene(gid=JW0003, name=daaA, family=F4, length=2505, seq=ATCCAGACGATGTGTCAGGAGAGA)
store 7052dba03e0ada64
task 0 A82 T1:14 0.500000
"#;
    const PINNED_FAULTS: &str = r#"error: injected transient fault at query site (after 3 attempt(s))
error: injected transient fault at query site (after 3 attempt(s))
error: injected transient fault at query site (after 3 attempt(s))
annotation A83 attached to gene 'JW0013'; 0 queries generated
error: injected transient fault at query site (after 3 attempt(s))
annotation A85 attached to gene 'JW0002'; 1 queries generated
  auto-accepted (conf 1.00): gene(gid=JW0003, name=daaA, family=F4, length=2505, seq=ATCCAGACGATGTGTCAGGAGAGA)
store d91d2e3eeb4c8918
"#;
    const PINNED_HOSTILE: &str = r#"error: injected transient fault at query site (after 3 attempt(s))
error: injected transient fault at query site (after 3 attempt(s))
error: injected transient fault at query site (after 3 attempt(s))
annotation A83 attached to gene 'JW0013'; 0 queries generated
error: injected transient fault at query site (after 3 attempt(s))
error: injected transient fault at query site (after 3 attempt(s))
store 878b964d680af943
"#;

    /// Run `setup` (`{dir}` names a fresh directory), then the pinned
    /// script, and render what a session prints, the store fingerprint
    /// and the verification queue.
    fn run_pinned_script(tag: &str, setup: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("nebula-shell-pin-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sh = shell();
        if !setup.is_empty() {
            sh.exec(&setup.replace("{dir}", &dir.display().to_string())).expect("mode setup");
        }
        let mut out = String::new();
        for cmd in PINNED_SCRIPT {
            match sh.exec(cmd) {
                Ok(s) => out.push_str(&s),
                Err(e) => out.push_str(&format!("error: {e}")),
            }
            out.push('\n');
        }
        out.push_str(&format!("store {:016x}\n", annostore::snapshot::fingerprint(&sh.store)));
        for t in sh.nebula.queue().iter() {
            let line = format!("task {} {} {} {:.6}\n", t.vid, t.annotation, t.tuple, t.confidence);
            out.push_str(&line);
        }
        nebula_govern::set_fault_plan(None);
        drop(sh);
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    #[test]
    fn annotate_output_is_pinned_in_five_modes() {
        for (tag, setup, expected) in [
            ("plain", "", PINNED_PLAIN),
            ("faults", "SET FAULTS 42 RATE 0.3", PINNED_FAULTS),
            ("hostile", "SET FAULTS HOSTILE 7", PINNED_HOSTILE),
            // A sink never changes what ANNOTATE prints or commits.
            ("wal", "SET DURABILITY '{dir}' EVERY 3", PINNED_PLAIN),
            ("replicas", "SET REPLICAS 2 '{dir}' QUORUM 1 NETFAULTS 5 0.2", PINNED_PLAIN),
        ] {
            assert_eq!(run_pinned_script(tag, setup), expected, "mode {tag}");
        }
    }

    /// A fresh directory under the system temp dir for one test.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("nebula-shell-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn load_under_a_wal_detaches_it_and_the_log_keeps_the_pre_load_state() {
        let root = scratch("load-wal");
        let (snap, wal) =
            (root.join("s").display().to_string(), root.join("d").display().to_string());
        let mut sh = shell();
        sh.exec(&format!("SAVE '{snap}'")).expect("save");
        sh.exec(&format!("SET DURABILITY '{wal}'")).expect("durability on");
        sh.exec("ANNOTATE gene 'JW0005' 'this gene correlates with JW0001 under stress'")
            .expect("annotate");
        let before_load = annostore::snapshot::fingerprint(&sh.store);
        let loaded = sh.exec(&format!("LOAD '{snap}'")).expect("load");
        assert!(loaded.contains("durability sink detached"), "{loaded}");
        sh.exec("ANNOTATE gene 'JW0002' 'note about gene JW0003'").expect("annotate");
        assert_eq!(sh.exec("SHOW DURABILITY").expect("show"), "durability: off");

        let mut fresh = shell();
        fresh.exec(&format!("RECOVER '{wal}'")).expect("recover");
        assert_eq!(annostore::snapshot::fingerprint(&fresh.store), before_load);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn load_and_recover_refuse_while_sharded() {
        let root = scratch("sharded-swap");
        let (snap, wal) =
            (root.join("s").display().to_string(), root.join("d").display().to_string());
        let mut sh = shell();
        sh.exec(&format!("SAVE '{snap}'")).expect("save");
        sh.exec(&format!("SET DURABILITY '{wal}'")).expect("durability on");
        sh.exec("ANNOTATE gene 'JW0005' 'this gene correlates with JW0001 under stress'")
            .expect("annotate");
        sh.exec("SET DURABILITY OFF").expect("durability off");
        sh.exec("SET SHARDS 2").expect("shards on");
        sh.exec("ANNOTATE gene 'JW0002' 'note about gene JW0003'").expect("annotate");
        let sharded = annostore::snapshot::fingerprint(&sh.store);

        let e = sh.exec(&format!("LOAD '{snap}'")).unwrap_err();
        assert_eq!(e.0, "LOAD needs SET SHARDS OFF first");
        let e = sh.exec(&format!("RECOVER '{wal}'")).unwrap_err();
        assert_eq!(e.0, "RECOVER needs SET SHARDS OFF first");
        assert_eq!(annostore::snapshot::fingerprint(&sh.store), sharded);
        assert_eq!(sh.exec("SHOW DURABILITY").expect("show"), "durability: off");
        sh.exec("ANNOTATE gene 'JW0011' 'linked with gene JW0012'").expect("annotate");
        let notes = sh.exec("ANNOTATIONS gene 'JW0002'").expect("annotations");
        assert!(notes.contains("note about gene JW0003"), "the sharded state survives: {notes}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn swaps_under_disk_storage_stay_on_the_page_file() {
        let root = scratch("disk-swap");
        let path = |p: &str| root.join(p).display().to_string();
        let mut sh = shell();
        sh.exec(&format!("SET DURABILITY '{}' ARCHIVE '{}'", path("wal"), path("arch")))
            .expect("durability on");
        sh.exec("ANNOTATE gene 'JW0005' 'this gene correlates with JW0001 under stress'")
            .expect("annotate");
        sh.exec(&format!("SAVE '{}'", path("snap"))).expect("save");
        sh.exec("ANNOTATE gene 'JW0002' 'note about gene JW0003'").expect("annotate");
        sh.exec(&format!("BACKUP TO '{}'", path("bundle"))).expect("backup");
        sh.exec("SET DURABILITY OFF").expect("durability off");
        sh.exec(&format!("SET STORAGE DISK '{}' POOL 8", path("pages"))).expect("disk");

        let mut twin = shell();
        for cmd in [
            format!("LOAD '{}'", path("snap")),
            format!("RECOVER '{}'", path("wal")),
            format!("RESTORE FROM '{}'", path("bundle")),
        ] {
            sh.exec(&cmd).expect("swap on disk");
            twin.exec(&cmd).expect("swap in RAM");
            let label = sh.db.storage_label();
            assert!(label.contains(&path("pages")), "{cmd}: storage is {label}");
            let scrub = sh.exec("SCRUB").expect("scrub");
            assert!(scrub.starts_with("pages: clean ("), "{cmd}: {scrub}");
            for select in ["SELECT gene LIMIT 100", "SELECT protein LIMIT 100"] {
                assert_eq!(
                    sh.exec(select).expect("disk"),
                    twin.exec(select).expect("RAM"),
                    "{cmd}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn shards_off_rebuilds_the_acg_over_the_merged_store() {
        let root = scratch("shards-acg");
        let snap = root.join("s").display().to_string();
        let mut sh = shell();
        sh.exec("SET SHARDS 2").expect("shards on");
        for cmd in &PINNED_SCRIPT[..3] {
            sh.exec(cmd).expect("annotate");
        }
        sh.exec("SET SHARDS OFF").expect("shards off");
        sh.exec(&format!("SAVE '{snap}'")).expect("save");
        let mut fresh = shell();
        fresh.exec(&format!("LOAD '{snap}'")).expect("load");
        assert_eq!(sh.exec("ACG").expect("acg"), fresh.exec("ACG").expect("acg"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn verb_table_drives_help_usage_errors_and_the_readme() {
        let mut sh = shell();
        let help = sh.exec("HELP").expect("help");
        for verb @ (name, params, _) in VERBS {
            let usage = usage_line(verb);
            assert!(help.contains(&format!("  {usage};")), "HELP lacks {usage}");
            // No parameters: a stray one is malformed. Only optional ones:
            // an unparsable one is. Otherwise the bare verb is.
            let bad = if params.is_empty() || params.starts_with('[') {
                format!("{name} %")
            } else {
                name.to_string()
            };
            assert_eq!(sh.exec(&bad).unwrap_err().0, format!("usage: {usage}"), "{bad}");
        }
        for gone in ["SET WORKERS 4", "SHOW HEALTH", "RECOVER INGEST", "EXIT"] {
            let e = sh.exec(gone).unwrap_err().0;
            assert!(e.starts_with("usage: ") || e.starts_with("unknown command"), "{gone}: {e}");
        }
        for line in include_str!("../README.md").lines() {
            let Some((_, cmd)) = line.split_once("nebula> ") else { continue };
            let tokens = lex(cmd.split(';').next().unwrap_or_default()).expect("lexes");
            assert!(lookup(&tokens).is_some(), "README command not in the verb table: {line}");
        }
    }
}
