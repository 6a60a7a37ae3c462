//! The Nebula engine facade: the full Stage 0 → 3 pipeline of Figure 16.
//!
//! [`Nebula::process_annotation`] drives one newly inserted annotation
//! through:
//!
//! 1. **Stage 0** — registering the annotation and its focal attachments
//!    in the passive store;
//! 2. **Stage 1** — signature maps → context adjustment → keyword queries;
//! 3. **Stage 2** — query execution, either over the full database or
//!    (when the ACG is stable) over the K-hop focal miniDB, with ACG
//!    confidence adjustment;
//! 4. **Stage 3** — routing every candidate through the β bounds:
//!    auto-accepts become true attachments (updating the ACG and the hop
//!    profile), the middle band lands in the pending-verification queue,
//!    and the rest is discarded.
//!
//! Experts later resolve pending tasks via [`Nebula::resolve_task`] or the
//! extended SQL command handled by [`Nebula::execute_command`].

use crate::acg::{Acg, StabilityConfig};
use crate::durability::{Mutation, MutationSink};
use crate::error::NebulaError;
use crate::execution::{identify_related_tuples, Candidate, ExecutionConfig};
use crate::focal::{spreading_search, HopProfile};
use crate::meta::NebulaMeta;
use crate::querygen::{generate_queries, GeneratedQuery, QueryGenConfig};
use crate::verify::{Command, Decision, VerificationBounds, VerificationQueue, VerificationTask};
use annostore::{Annotation, AnnotationId, AnnotationStore};
use nebula_govern::{Degradation, ExecutionBudget, RetryPolicy};
use nebula_obs::{names, PipelineEvent};
use relstore::{Database, TupleId};
use std::sync::{Mutex, PoisonError};
use textsearch::{KeywordSearch, SearchBackend, SearchError, SearchOptions, SearchStats};

/// Where Stage 2 searches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchMode {
    /// Search the entire database.
    Full,
    /// Focal-based spreading with a fixed K (the paper's *Fixed-Scope*
    /// variant).
    FocalSpread {
        /// Hop radius around the focal.
        k: usize,
    },
    /// Focal-based spreading with K selected from the hop profile to reach
    /// the desired expected coverage.
    FocalSpreadAuto {
        /// Target fraction of candidates the radius should cover.
        coverage: f64,
    },
}

/// Full engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NebulaConfig {
    /// Stage-1 query generation (ε, α, β rewards, ablation switches).
    pub querygen: QueryGenConfig,
    /// Stage-2 execution (shared/isolated, ACG adjustment).
    pub execution: ExecutionConfig,
    /// Stage-2 search space.
    pub search_mode: SearchMode,
    /// Focal spreading engages only once the ACG is stable (§6.3). Set to
    /// `false` to force it regardless (used by the experiments).
    pub require_stable: bool,
    /// Fallback K when `FocalSpreadAuto` has an empty profile.
    pub default_k: usize,
    /// Stage-3 verification bounds.
    pub bounds: VerificationBounds,
    /// ACG stability configuration (batch size B, threshold μ).
    pub stability: StabilityConfig,
    /// Per-annotation execution budget. Unbounded by default, which keeps
    /// the pipeline byte-identical to the ungoverned engine.
    pub budget: ExecutionBudget,
    /// Retry policy for transient (injected) search faults.
    pub retry: RetryPolicy,
}

impl Default for NebulaConfig {
    fn default() -> Self {
        NebulaConfig {
            querygen: QueryGenConfig::default(),
            execution: ExecutionConfig::default(),
            search_mode: SearchMode::Full,
            require_stable: true,
            default_k: 3,
            bounds: VerificationBounds::default(),
            stability: StabilityConfig::default(),
            budget: ExecutionBudget::unbounded(),
            retry: RetryPolicy::default(),
        }
    }
}

/// What happened to one processed annotation.
#[derive(Debug, Clone)]
pub struct ProcessOutcome {
    /// The annotation's id in the store.
    pub annotation: AnnotationId,
    /// Stage-1 keyword queries.
    pub queries: Vec<GeneratedQuery>,
    /// Stage-2 ranked candidates (original-database tuple ids).
    pub candidates: Vec<Candidate>,
    /// Auto-accepted attachments `(tuple, confidence)` — already applied.
    pub accepted: Vec<(TupleId, f64)>,
    /// Pending verification task ids.
    pub pending: Vec<u64>,
    /// Auto-rejected predictions `(tuple, confidence)`.
    pub rejected: Vec<(TupleId, f64)>,
    /// Whether Stage 2 used the focal-spreading miniDB.
    pub used_focal_spread: bool,
    /// Search work counters.
    pub stats: SearchStats,
    /// What the engine gave up to fit the execution budget (empty on an
    /// ungoverned or untripped run).
    pub degradations: Vec<Degradation>,
}

/// The proactive annotation-management engine.
#[derive(Debug)]
pub struct Nebula {
    config: NebulaConfig,
    meta: NebulaMeta,
    acg: Acg,
    profile: HopProfile,
    queue: VerificationQueue,
    sink: Option<Box<dyn MutationSink>>,
    searcher: Option<Box<dyn SearchBackend>>,
    /// The local full search and the database epoch its vocabulary was
    /// resolved in, kept across annotations so its shared-mode mapping
    /// cache serves every annotation over one database state.
    local: Mutex<Option<(u64, KeywordSearch)>>,
}

impl Nebula {
    /// New engine with the given configuration and metadata repository.
    pub fn new(config: NebulaConfig, meta: NebulaMeta) -> Self {
        let acg = Acg::new(config.stability);
        Nebula {
            config,
            meta,
            acg,
            profile: HopProfile::new(),
            queue: VerificationQueue::new(),
            sink: None,
            searcher: None,
            local: Mutex::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &NebulaConfig {
        &self.config
    }

    /// Mutable configuration access (experiments flip switches between
    /// runs).
    pub fn config_mut(&mut self) -> &mut NebulaConfig {
        &mut self.config
    }

    /// The metadata repository.
    pub fn meta(&self) -> &NebulaMeta {
        &self.meta
    }

    /// The Annotations Connectivity Graph.
    pub fn acg(&self) -> &Acg {
        &self.acg
    }

    /// Mutable ACG access (experiments pre-mature the graph).
    pub fn acg_mut(&mut self) -> &mut Acg {
        &mut self.acg
    }

    /// The hop profile guiding K selection.
    pub fn profile(&self) -> &HopProfile {
        &self.profile
    }

    /// The pending-verification queue.
    pub fn queue(&self) -> &VerificationQueue {
        &self.queue
    }

    /// Install (or clear, with `None`) the durability sink. Every
    /// subsequent annotation-layer mutation is offered to the sink
    /// *before* it is applied (write-ahead); a sink failure aborts the
    /// mutation, so the log never diverges from the in-memory state.
    pub fn set_mutation_sink(&mut self, sink: Option<Box<dyn MutationSink>>) {
        self.sink = sink;
    }

    /// The installed durability sink, if any.
    pub fn mutation_sink(&self) -> Option<&dyn MutationSink> {
        self.sink.as_deref()
    }

    /// Mutable access to the installed durability sink (checkpoints need
    /// `&mut`).
    pub fn mutation_sink_mut(&mut self) -> Option<&mut (dyn MutationSink + 'static)> {
        self.sink.as_deref_mut()
    }

    /// Remove and return the installed durability sink.
    pub fn take_mutation_sink(&mut self) -> Option<Box<dyn MutationSink>> {
        self.sink.take()
    }

    /// Install (or clear, with `None`) a Stage 2 search backend a
    /// distribution layer puts in front of the engine's local search (the
    /// shard scatter-gather router in `nebula-shard`). When set, *full*
    /// searches execute through it instead of the local
    /// [`KeywordSearch`]; focal-spread searches stay local — the K-hop
    /// miniDB is built from the engine's own replica, which a shard
    /// deployment keeps fully converged.
    pub fn set_group_search(&mut self, searcher: Option<Box<dyn SearchBackend>>) {
        self.searcher = searcher;
    }

    /// The write path: offer `mutation` to the sink (no-op when none is
    /// installed), then [`Nebula::apply`] it. A sink failure aborts before
    /// anything changes, so the log never diverges from the in-memory state.
    fn commit(
        &mut self,
        store: &mut AnnotationStore,
        mutation: &Mutation<'_>,
        focal: &[TupleId],
    ) -> Result<Vec<AnnotationId>, NebulaError> {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(mutation)?;
        }
        self.apply(store, mutation, focal)
    }

    /// The one transition function: [`Mutation::apply`] on the store plus
    /// what the engine derives from it (ACG, hop profile, verification
    /// queue). The pipeline runs it after logging; a follower — shard
    /// sibling, failover rebuild, scrub reference, unsharded twin — runs it
    /// on every record of the origin's batches and marks a completed run
    /// with `acg_mut().record_annotation()`. Only `AcceptEdge` reads
    /// `focal`, and which list that is is the caller's to know: its batch's
    /// `AttachTuple` targets (the run's *manual* focal) for a pipeline
    /// accept, `store.focal(..)` for an expert's. Returns [`Mutation::apply`]'s.
    pub fn apply(
        &mut self,
        store: &mut AnnotationStore,
        mutation: &Mutation<'_>,
        focal: &[TupleId],
    ) -> Result<Vec<AnnotationId>, NebulaError> {
        match *mutation {
            Mutation::AcceptEdge { annotation, tuple } => {
                // An expert's accept resolves the pending task of an edge
                // that already exists; a pipeline auto-accept has neither.
                if store.edge(annotation, tuple).is_some() {
                    self.queue.remove_edge(annotation, tuple);
                }
                // §6.3: the hop distance enters the profile **before** the
                // new edges are added.
                if !focal.is_empty() {
                    if let Some(hops) = self.acg.shortest_hops(tuple, focal, 16) {
                        self.profile.record(hops);
                    }
                }
            }
            Mutation::TupleDeleted { tuple } => {
                self.queue.remove_tuple(tuple);
                self.acg.remove_tuple(tuple);
            }
            _ => {}
        }
        let orphaned = mutation.apply(store)?;
        match *mutation {
            Mutation::AttachTuple { annotation, tuple }
            | Mutation::AttachCell { annotation, tuple, .. }
            | Mutation::AcceptEdge { annotation, tuple } => {
                self.acg.add_attachment(store, annotation, tuple);
            }
            Mutation::AttachPredicted { annotation, tuple, confidence } => {
                // Evidence is display-only and not logged; the pipeline
                // attaches it to the task it just enqueued.
                let vid = self.queue.next_vid();
                self.queue.enqueue(VerificationTask {
                    vid,
                    annotation,
                    tuple,
                    confidence,
                    evidence: Vec::new(),
                });
            }
            Mutation::RejectEdge { annotation, tuple } => {
                self.queue.remove_edge(annotation, tuple);
            }
            _ => {}
        }
        Ok(orphaned)
    }

    /// Build the ACG at once from the store's current true attachments
    /// (the §8.1 experimental setup).
    pub fn bootstrap_acg(&mut self, store: &AnnotationStore) {
        let mut acg = Acg::build_from_store(store);
        acg.set_stable(self.acg.is_stable());
        self.acg = acg;
    }

    /// The keyword-search engine configured with this repository's
    /// vocabulary.
    pub fn search_engine(&self, db: &Database) -> KeywordSearch {
        KeywordSearch::new(SearchOptions {
            vocab: self.meta.to_vocabulary(db),
            ..Default::default()
        })
    }

    /// Should Stage 2 spread from the focal instead of searching the full
    /// database?
    fn spreading_k(&self, focal: &[TupleId]) -> Option<usize> {
        if focal.is_empty() {
            return None;
        }
        let engaged = match self.config.search_mode {
            SearchMode::Full => return None,
            SearchMode::FocalSpread { .. } | SearchMode::FocalSpreadAuto { .. } => {
                !self.config.require_stable || self.acg.is_stable()
            }
        };
        if !engaged {
            return None;
        }
        match self.config.search_mode {
            SearchMode::Full => None,
            SearchMode::FocalSpread { k } => Some(k),
            SearchMode::FocalSpreadAuto { coverage } => {
                Some(self.profile.select_k(coverage).unwrap_or(self.config.default_k))
            }
        }
    }

    /// Process one newly inserted annotation end to end.
    ///
    /// `focal` — the tuples the annotation was manually attached to
    /// (Definition 3.5). Returns the outcome; auto-accepted attachments
    /// are already applied to `store`, the ACG, and the hop profile.
    ///
    /// The whole call runs under the configured [`ExecutionBudget`]. On a
    /// budget trip the engine *degrades* rather than fails — full search
    /// falls back to focal spreading, then to an empty candidate set — and
    /// the outcome's `degradations` records what was given up. Transient
    /// injected faults are retried per the configured [`RetryPolicy`];
    /// only exhausted or permanent faults surface as errors.
    pub fn process_annotation(
        &mut self,
        db: &Database,
        store: &mut AnnotationStore,
        annotation: &Annotation,
        focal: &[TupleId],
    ) -> Result<ProcessOutcome, NebulaError> {
        // When the ingest front end dispatched us it already opened the trace
        // root and this span is its child; otherwise (sequential callers,
        // the bench harness) this scope owns a fresh root. Either way the
        // stage spans below attach under it, and an error return abandons
        // an owned trace.
        let pipeline_span = nebula_obs::span(names::PIPELINE);
        let pipeline_trace = PipelineTrace::open();
        let _budget = nebula_govern::begin_budget(&self.config.budget);
        // Drop notes leaked by an earlier erroring pipeline run so they
        // cannot masquerade as this annotation's degradations.
        nebula_govern::take_noted_degradations();
        let mut degradations: Vec<Degradation> = Vec::new();

        // Stage 0: register the annotation and its focal attachments.
        nebula_govern::stage_boundary(names::STAGE0_REGISTER);
        let stage0_span = nebula_obs::span(names::STAGE0_REGISTER);
        let aid = AnnotationId(store.annotation_count() as u64);
        self.commit(store, &Mutation::AddAnnotation { expected: aid, annotation }, &[])?;
        nebula_obs::trace::bind(aid.0);
        for &f in focal {
            self.commit(store, &Mutation::AttachTuple { annotation: aid, tuple: f }, &[])?;
        }
        stage_event(aid, names::STAGE0_REGISTER, stage0_span, focal.len(), || {
            format!("focal={}", focal.len())
        });

        // Stage 1: annotation text → keyword queries.
        nebula_govern::stage_boundary(names::STAGE1_QUERYGEN);
        let stage1_span = nebula_obs::span(names::STAGE1_QUERYGEN);
        let queries = generate_queries(db, &self.meta, &annotation.text, &self.config.querygen);
        stage_event(aid, names::STAGE1_QUERYGEN, stage1_span, queries.len(), || {
            format!("queries={}", queries.len())
        });

        // Stage 2: execute, full or focal-spreading, degrading on budget
        // trips instead of failing.
        nebula_govern::stage_boundary(names::STAGE2_EXECUTE);
        let stage2_span = nebula_obs::span(names::STAGE2_EXECUTE);
        let (candidates, stats, used_focal_spread) =
            self.stage2_search(db, &queries, focal, &mut degradations)?;
        // Layers below the engine (e.g. a shard scatter-gather) note their
        // degradations out-of-band; fold them into this annotation's
        // outcome so partial results are typed, never silent.
        degradations.extend(nebula_govern::take_noted_degradations());
        let report = nebula_govern::budget_report();
        if report.truncated_configurations > 0 {
            degradations.push(Degradation::TruncatedConfigurations {
                dropped: report.truncated_configurations,
            });
        }
        if report.truncated_candidates > 0 {
            degradations
                .push(Degradation::TruncatedCandidates { dropped: report.truncated_candidates });
        }
        stage_event(aid, names::STAGE2_EXECUTE, stage2_span, candidates.len(), || {
            format!(
                "mode={} hits={}",
                if used_focal_spread { "focal-spread" } else { "full" },
                candidates.len()
            )
        });

        // Stage 3: route candidates through the bounds.
        nebula_govern::stage_boundary(names::STAGE3_ROUTE);
        let stage3_span = nebula_obs::span(names::STAGE3_ROUTE);
        let mut accepted = Vec::new();
        let mut pending = Vec::new();
        let mut rejected = Vec::new();
        for cand in &candidates {
            match self.config.bounds.decide(cand.confidence) {
                Decision::AutoAccept => {
                    let accept = Mutation::AcceptEdge { annotation: aid, tuple: cand.tuple };
                    self.commit(store, &accept, focal)?;
                    accepted.push((cand.tuple, cand.confidence));
                }
                Decision::Pending => {
                    let predict = Mutation::AttachPredicted {
                        annotation: aid,
                        tuple: cand.tuple,
                        confidence: cand.confidence,
                    };
                    self.commit(store, &predict, focal)?;
                    if let Some(task) = self.queue.newest_mut() {
                        task.evidence = cand.evidence.clone();
                        pending.push(task.vid);
                    }
                }
                Decision::AutoReject => {
                    rejected.push((cand.tuple, cand.confidence));
                }
            }
        }

        stage_event(aid, names::STAGE3_ROUTE, stage3_span, candidates.len(), || {
            format!(
                "accepted={} pending={} rejected={}",
                accepted.len(),
                pending.len(),
                rejected.len()
            )
        });

        // One more annotation processed — advance the stability batch.
        self.acg.record_annotation();

        pipeline_span.detail(|| {
            format!(
                "accepted={} pending={} rejected={}",
                accepted.len(),
                pending.len(),
                rejected.len()
            )
        });
        let total_ns = pipeline_span.close();
        if nebula_obs::enabled() {
            nebula_obs::counter_add("core.annotations_processed", 1);
            nebula_obs::counter_add("core.queries_generated", queries.len() as u64);
            nebula_obs::counter_add("core.candidates", candidates.len() as u64);
            nebula_obs::counter_add("core.accepted", accepted.len() as u64);
            nebula_obs::counter_add("core.pending_verification", pending.len() as u64);
            nebula_obs::counter_add("core.rejected", rejected.len() as u64);
            if used_focal_spread {
                nebula_obs::counter_add("core.focal_spread_used", 1);
            }
            if !degradations.is_empty() {
                nebula_obs::counter_add("core.degraded_annotations", 1);
                nebula_obs::record_event(PipelineEvent {
                    annotation_id: aid.0,
                    stage: names::GOVERN_DEGRADE,
                    duration_ns: 0,
                    candidates: candidates.len() as u64,
                    decision: degradations
                        .iter()
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                        .join(" "),
                });
            }
            nebula_obs::record_event(PipelineEvent {
                annotation_id: aid.0,
                stage: names::PIPELINE,
                duration_ns: total_ns,
                candidates: candidates.len() as u64,
                decision: format!(
                    "accepted={} pending={} rejected={} focal_spread={} configs={} \
                     compiled={} inspected={}",
                    accepted.len(),
                    pending.len(),
                    rejected.len(),
                    used_focal_spread,
                    stats.configurations,
                    stats.compiled_queries,
                    stats.tuples_inspected,
                ),
            });
        }
        pipeline_trace.finish(total_ns);

        Ok(ProcessOutcome {
            annotation: aid,
            queries,
            candidates,
            accepted,
            pending,
            rejected,
            used_focal_spread,
            stats,
            degradations,
        })
    }

    /// Stage 2 with the degradation ladder. Runs the primary search
    /// (focal-spreading when engaged, full otherwise); on a budget trip the
    /// full search falls back to focal-spreading with `default_k` (the
    /// budget usage is re-armed, the deadline keeps ticking), and if even
    /// that trips, candidate discovery is abandoned. Transient faults are
    /// retried with bounded backoff at every rung.
    fn stage2_search(
        &self,
        db: &Database,
        queries: &[GeneratedQuery],
        focal: &[TupleId],
        degradations: &mut Vec<Degradation>,
    ) -> Result<(Vec<Candidate>, SearchStats, bool), NebulaError> {
        let spread_k = self.spreading_k(focal);
        let primary = retry_transient(&self.config.retry, || match spread_k {
            Some(k) => self.focal_search(db, queries, focal, k),
            None => self.full_search(db, queries, focal),
        });
        let tripped = match primary {
            Ok((cands, stats)) => return Ok((cands, stats, spread_k.is_some())),
            Err(SearchFailure::Fatal(e)) => return Err(e),
            Err(SearchFailure::Budget(b)) => b,
        };
        if spread_k.is_none() && !focal.is_empty() {
            // Rung 1: the full-database search was too expensive — retry in
            // the focal neighborhood, which inspects far fewer tuples.
            let k = self.config.default_k;
            degradations.push(Degradation::FocalFallback { resource: tripped.resource, k });
            nebula_govern::rearm();
            match retry_transient(&self.config.retry, || self.focal_search(db, queries, focal, k)) {
                Ok((cands, stats)) => return Ok((cands, stats, true)),
                Err(SearchFailure::Fatal(e)) => return Err(e),
                Err(SearchFailure::Budget(b)) => {
                    degradations.push(Degradation::SearchAbandoned { resource: b.resource });
                    return Ok((Vec::new(), SearchStats::default(), true));
                }
            }
        }
        // Rung 2: no cheaper search space left — proceed with no candidates
        // (the annotation itself and its focal attachments are preserved).
        degradations.push(Degradation::SearchAbandoned { resource: tripped.resource });
        Ok((Vec::new(), SearchStats::default(), spread_k.is_some()))
    }

    /// One full-database search attempt.
    fn full_search(
        &self,
        db: &Database,
        queries: &[GeneratedQuery],
        focal: &[TupleId],
    ) -> Result<(Vec<Candidate>, SearchStats), SearchError> {
        let mut local = self.local.lock().unwrap_or_else(PoisonError::into_inner);
        let backend: &dyn SearchBackend = match self.searcher.as_deref() {
            Some(searcher) => searcher,
            None => {
                if local.as_ref().is_none_or(|(epoch, _)| *epoch != db.epoch()) {
                    *local = Some((db.epoch(), self.search_engine(db)));
                }
                &local.as_ref().expect("built above").1
            }
        };
        identify_related_tuples(
            db,
            backend,
            queries,
            focal,
            Some(&self.acg),
            &self.config.execution,
        )
    }

    /// One focal-spreading search attempt over the K-hop miniDB.
    fn focal_search(
        &self,
        db: &Database,
        queries: &[GeneratedQuery],
        focal: &[TupleId],
        k: usize,
    ) -> Result<(Vec<Candidate>, SearchStats), SearchError> {
        let exec = &self.config.execution;
        spreading_search(db, &self.meta, &self.acg, queries, focal, k, exec)
            .map(|(cands, stats, _)| (cands, stats))
    }

    /// Expert resolution of a pending task. `accept == true` verifies the
    /// attachment (it becomes true, with ACG and profile updates exactly
    /// like an auto-accept); `false` rejects and discards it.
    pub fn resolve_task(
        &mut self,
        store: &mut AnnotationStore,
        vid: u64,
        accept: bool,
    ) -> Result<VerificationTask, NebulaError> {
        // Taken out first, so `apply` finds no task left to drop; put back
        // if the commit fails.
        let task = self.queue.take(vid).ok_or(NebulaError::UnknownTask(vid))?;
        let (annotation, tuple) = (task.annotation, task.tuple);
        let committed = if accept {
            let focal = store.focal(annotation);
            self.commit(store, &Mutation::AcceptEdge { annotation, tuple }, &focal)
        } else {
            self.commit(store, &Mutation::RejectEdge { annotation, tuple }, &[])
        };
        match committed {
            Ok(_) => Ok(task),
            Err(e) => {
                self.queue.enqueue(task);
                Err(e)
            }
        }
    }

    /// Tuple-deletion hook: call after `db.delete(tid)` to keep the
    /// annotation layer consistent — removes every attachment to the
    /// tuple, drops it from the ACG, and discards pending verification
    /// tasks that target it. Returns the annotations that lost a true
    /// attachment. Fails only when the durability sink cannot log the
    /// deletion (the annotation layer is then left untouched).
    pub fn on_tuple_deleted(
        &mut self,
        store: &mut AnnotationStore,
        tid: TupleId,
    ) -> Result<Vec<AnnotationId>, NebulaError> {
        self.commit(store, &Mutation::TupleDeleted { tuple: tid }, &[])
    }

    /// Execute the extended SQL command
    /// `[Verify | Reject] Attachment <vid>;`.
    pub fn execute_command(
        &mut self,
        store: &mut AnnotationStore,
        input: &str,
    ) -> Result<VerificationTask, NebulaError> {
        let command =
            crate::verify::parse_command(input).map_err(|e| NebulaError::Parse(e.to_string()))?;
        match command {
            Command::Verify(vid) => self.resolve_task(store, vid, true),
            Command::Reject(vid) => self.resolve_task(store, vid, false),
        }
    }
}

/// How one retried search attempt ultimately failed.
enum SearchFailure {
    /// A budget trip — the caller degrades instead of failing.
    Budget(nebula_govern::BudgetExceeded),
    /// Anything else — surfaced to the caller as-is.
    Fatal(NebulaError),
}

/// Run `attempt_fn`, retrying transient injected faults with bounded
/// exponential backoff. Budget trips are never retried (re-running the same
/// work would trip again); permanent faults and store errors fail fast.
fn retry_transient<T>(
    retry: &RetryPolicy,
    mut attempt_fn: impl FnMut() -> Result<T, SearchError>,
) -> Result<T, SearchFailure> {
    let mut attempt = 0u32;
    loop {
        match attempt_fn() {
            Ok(v) => return Ok(v),
            Err(SearchError::Budget(b)) => return Err(SearchFailure::Budget(b)),
            Err(SearchError::Fault(fault))
                if fault.transient && attempt + 1 < retry.max_attempts =>
            {
                nebula_govern::note_retry();
                nebula_govern::clock::sleep(retry.backoff(attempt));
                attempt += 1;
            }
            Err(SearchError::Fault(fault)) => {
                return Err(SearchFailure::Fatal(NebulaError::Fault {
                    fault,
                    attempts: attempt + 1,
                }));
            }
            Err(other) => return Err(SearchFailure::Fatal(other.into())),
        }
    }
}

/// Close a stage's span and, when collection is on, record a structured
/// pipeline event for it whose decision is also the span's trace detail.
/// The `decision` closure only runs while collection is on, so the
/// disabled path never allocates.
fn stage_event(
    aid: AnnotationId,
    stage: &'static str,
    span: nebula_obs::Span,
    candidates: usize,
    decision: impl FnOnce() -> String,
) {
    if !nebula_obs::enabled() {
        return;
    }
    let decision = decision();
    span.detail(|| decision.clone());
    let duration_ns = span.close();
    nebula_obs::record_event(PipelineEvent {
        annotation_id: aid.0,
        stage,
        duration_ns,
        candidates: candidates as u64,
        decision,
    });
}

/// Trace-root ownership for one `process_annotation` call.
///
/// If the caller (the ingest front end) already opened a trace root, the
/// pipeline's span attaches as its child and the caller keeps ownership of
/// `finish`/`abandon`. Otherwise — sequential callers, the bench harness —
/// this scope owns a fresh root: a clean exit commits it via
/// [`PipelineTrace::finish`], while an early `?` return drops the scope
/// and abandons the partial trace (the mutation it described failed).
struct PipelineTrace {
    owns_root: bool,
}

impl PipelineTrace {
    fn open() -> Self {
        PipelineTrace { owns_root: nebula_obs::trace::start_if_idle(names::PIPELINE) }
    }

    /// Commit an owned root, timed with the pipeline span's `total_ns`.
    fn finish(mut self, total_ns: u64) {
        if self.owns_root {
            self.owns_root = false;
            nebula_obs::trace::close_root(total_ns);
            nebula_obs::trace::finish();
        }
    }
}

impl Drop for PipelineTrace {
    fn drop(&mut self) {
        if self.owns_root {
            nebula_obs::trace::abandon();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::ConceptRef;
    use crate::patterns::Pattern;
    use annostore::AttachmentTarget;
    use relstore::{DataType, TableSchema, Value};

    fn setup() -> (Database, NebulaMeta, Vec<TupleId>) {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("gene")
                .column("gid", DataType::Text)
                .column("name", DataType::Text)
                .primary_key("gid")
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut ids = Vec::new();
        for (gid, name) in
            [("JW0013", "grpC"), ("JW0014", "groP"), ("JW0019", "yaaB"), ("JW0012", "yaaI")]
        {
            ids.push(db.insert("gene", vec![Value::text(gid), Value::text(name)]).unwrap());
        }
        let mut meta = NebulaMeta::new();
        meta.add_concept(ConceptRef {
            concept: "Gene".into(),
            table: "gene".into(),
            referenced_by: vec![vec!["gid".into()], vec!["name".into()]],
        });
        meta.set_pattern("gene", "gid", Pattern::compile("JW[0-9]{4}").unwrap());
        meta.set_pattern("gene", "name", Pattern::compile("[a-z]{3}[A-Z]").unwrap());
        (db, meta, ids)
    }

    fn config_accept_all() -> NebulaConfig {
        NebulaConfig { bounds: VerificationBounds::new(0.0, 0.0), ..Default::default() }
    }

    #[test]
    fn end_to_end_discovers_and_accepts() {
        let (db, meta, ids) = setup();
        let mut store = AnnotationStore::new();
        let mut nebula = Nebula::new(config_accept_all(), meta);
        let ann = Annotation::new("this gene correlates with JW0014 and grpC").by("Alice");
        let out = nebula.process_annotation(&db, &mut store, &ann, &[ids[2]]).unwrap();

        assert!(!out.queries.is_empty());
        let accepted: Vec<TupleId> = out.accepted.iter().map(|(t, _)| *t).collect();
        assert!(accepted.contains(&ids[0]));
        assert!(accepted.contains(&ids[1]));
        // Attachments applied to the store.
        assert!(store.focal(out.annotation).contains(&ids[0]));
        assert!(store.focal(out.annotation).contains(&ids[2]), "focal kept");
        // ACG gained edges between focal and accepted tuples.
        assert!(nebula.acg().edge_weight(ids[2], ids[1]).is_some());
        assert!(!out.used_focal_spread);
    }

    #[test]
    fn pending_band_queues_tasks_with_evidence() {
        let (db, meta, ids) = setup();
        let mut store = AnnotationStore::new();
        let config = NebulaConfig {
            bounds: VerificationBounds::new(0.0, 1.0), // everything pending
            ..Default::default()
        };
        let mut nebula = Nebula::new(config, meta);
        let ann = Annotation::new("gene JW0014 is notable");
        let out = nebula.process_annotation(&db, &mut store, &ann, &[ids[0]]).unwrap();
        assert_eq!(out.accepted.len(), 0);
        assert_eq!(out.pending.len(), 1);
        let task = nebula.queue().get(out.pending[0]).unwrap();
        assert_eq!(task.tuple, ids[1]);
        assert!(!task.evidence.is_empty());
        // The predicted edge exists but is not true yet.
        let edge = store.edge(out.annotation, ids[1]).unwrap();
        assert_eq!(edge.kind, annostore::EdgeKind::Predicted);
    }

    #[test]
    fn resolve_task_accept_and_reject() {
        let (db, meta, ids) = setup();
        let mut store = AnnotationStore::new();
        let config =
            NebulaConfig { bounds: VerificationBounds::new(0.0, 1.0), ..Default::default() };
        let mut nebula = Nebula::new(config, meta);
        let ann = Annotation::new("gene JW0014 and gene yaaI are notable");
        let out = nebula.process_annotation(&db, &mut store, &ann, &[ids[0]]).unwrap();
        assert_eq!(out.pending.len(), 2);

        let t1 = nebula.resolve_task(&mut store, out.pending[0], true).unwrap();
        assert!(store.focal(out.annotation).contains(&t1.tuple));
        let t2 = nebula.resolve_task(&mut store, out.pending[1], false).unwrap();
        assert!(store.edge(out.annotation, t2.tuple).is_none());
        // Resolving again fails.
        assert!(nebula.resolve_task(&mut store, out.pending[0], true).is_err());
    }

    #[test]
    fn execute_command_verifies() {
        let (db, meta, ids) = setup();
        let mut store = AnnotationStore::new();
        let config =
            NebulaConfig { bounds: VerificationBounds::new(0.0, 1.0), ..Default::default() };
        let mut nebula = Nebula::new(config, meta);
        let ann = Annotation::new("gene JW0014");
        let out = nebula.process_annotation(&db, &mut store, &ann, &[ids[0]]).unwrap();
        let vid = out.pending[0];
        let task =
            nebula.execute_command(&mut store, &format!("Verify Attachment {vid};")).unwrap();
        assert!(store.focal(out.annotation).contains(&task.tuple));
        assert!(nebula.execute_command(&mut store, "garbage").is_err());
    }

    #[test]
    fn focal_spread_requires_stability() {
        let (db, meta, ids) = setup();
        let mut store = AnnotationStore::new();
        let config = NebulaConfig {
            search_mode: SearchMode::FocalSpread { k: 2 },
            require_stable: true,
            bounds: VerificationBounds::new(0.0, 0.0),
            ..Default::default()
        };
        let mut nebula = Nebula::new(config, meta);
        let ann = Annotation::new("gene JW0014");
        let out = nebula.process_annotation(&db, &mut store, &ann, &[ids[0]]).unwrap();
        assert!(!out.used_focal_spread, "ACG not stable yet → full search");

        nebula.acg_mut().set_stable(true);
        let ann2 = Annotation::new("gene grpC");
        let out2 = nebula.process_annotation(&db, &mut store, &ann2, &[ids[1]]).unwrap();
        assert!(out2.used_focal_spread);
    }

    #[test]
    fn focal_spread_finds_neighbors_only() {
        let (db, meta, ids) = setup();
        let mut store = AnnotationStore::new();
        // Pre-annotate: link ids[0] and ids[1] so the ACG has an edge.
        let seed = store.add_annotation(Annotation::new("seed"));
        store.attach(seed, AttachmentTarget::tuple(ids[0])).unwrap();
        store.attach(seed, AttachmentTarget::tuple(ids[1])).unwrap();

        let config = NebulaConfig {
            search_mode: SearchMode::FocalSpread { k: 1 },
            require_stable: false,
            bounds: VerificationBounds::new(0.0, 0.0),
            ..Default::default()
        };
        let mut nebula = Nebula::new(config, meta);
        nebula.bootstrap_acg(&store);

        // References JW0014 (a neighbor — found) and yaaI (3 hops away —
        // outside the miniDB, missed).
        let ann = Annotation::new("gene JW0014 and gene yaaI");
        let out = nebula.process_annotation(&db, &mut store, &ann, &[ids[0]]).unwrap();
        assert!(out.used_focal_spread);
        let found: Vec<TupleId> = out.candidates.iter().map(|c| c.tuple).collect();
        assert!(found.contains(&ids[1]));
        assert!(!found.contains(&ids[3]), "outside the 1-hop miniDB");
    }

    #[test]
    fn auto_k_uses_profile() {
        let (db, meta, ids) = setup();
        let mut store = AnnotationStore::new();
        let config = NebulaConfig {
            search_mode: SearchMode::FocalSpreadAuto { coverage: 0.9 },
            require_stable: false,
            bounds: VerificationBounds::new(0.0, 0.0),
            ..Default::default()
        };
        let mut nebula = Nebula::new(config, meta);
        nebula.acg_mut().set_stable(true);
        // Empty profile → default_k is used; the call still works.
        let ann = Annotation::new("gene JW0014");
        let out = nebula.process_annotation(&db, &mut store, &ann, &[ids[0]]).unwrap();
        assert!(out.used_focal_spread);
    }

    #[test]
    fn tuple_deletion_cleans_all_layers() {
        let (db, meta, ids) = setup();
        let mut store = AnnotationStore::new();
        let config = NebulaConfig {
            bounds: VerificationBounds::new(0.0, 1.0), // everything pending
            ..Default::default()
        };
        let mut nebula = Nebula::new(config, meta);
        let ann = Annotation::new("gene JW0014 and gene yaaI");
        let out = nebula.process_annotation(&db, &mut store, &ann, &[ids[0]]).unwrap();
        assert!(!out.pending.is_empty());
        let victim = nebula.queue().get(out.pending[0]).unwrap().tuple;

        let affected = nebula.on_tuple_deleted(&mut store, victim).unwrap();
        // Pending tasks targeting the tuple are gone.
        assert!(nebula.queue().iter().all(|t| t.tuple != victim));
        // Predicted edge gone from the store.
        assert!(store.edge(out.annotation, victim).is_none());
        // ACG no longer knows the tuple.
        assert_eq!(nebula.acg().neighbors(victim).count(), 0);
        // The victim carried only a predicted edge, so no annotation lost
        // a *true* attachment.
        assert!(affected.is_empty());

        // Deleting a focal tuple reports the affected annotation.
        let affected = nebula.on_tuple_deleted(&mut store, ids[0]).unwrap();
        assert_eq!(affected, vec![out.annotation]);
    }

    #[test]
    fn unknown_task_is_a_structured_error() {
        let (_db, meta, _) = setup();
        let mut store = AnnotationStore::new();
        let mut nebula = Nebula::new(NebulaConfig::default(), meta);
        assert_eq!(
            nebula.resolve_task(&mut store, 999, true).unwrap_err(),
            NebulaError::UnknownTask(999)
        );
        assert_eq!(
            nebula.execute_command(&mut store, "Verify Attachment 999;").unwrap_err(),
            NebulaError::UnknownTask(999)
        );
        assert!(matches!(
            nebula.execute_command(&mut store, "garbage").unwrap_err(),
            NebulaError::Parse(_)
        ));
    }

    #[test]
    fn tight_budget_degrades_instead_of_failing() {
        let (db, meta, ids) = setup();
        let mut store = AnnotationStore::new();
        let config = NebulaConfig {
            bounds: VerificationBounds::new(0.0, 0.0),
            budget: ExecutionBudget::unbounded().with_max_tuples(1),
            ..Default::default()
        };
        let mut nebula = Nebula::new(config, meta);
        let ann = Annotation::new("this gene correlates with JW0014 and grpC");
        let out = nebula.process_annotation(&db, &mut store, &ann, &[ids[2]]).unwrap();
        // The full search cannot fit in one inspected tuple: the engine
        // fell back to the focal neighborhood (and, with an empty ACG,
        // ultimately abandoned the search) instead of erroring out.
        assert!(!out.degradations.is_empty());
        assert!(out.degradations.iter().any(|d| matches!(d, Degradation::FocalFallback { .. })));
        // The annotation and its focal attachment survived.
        assert!(store.focal(out.annotation).contains(&ids[2]));
    }

    #[test]
    fn unbounded_budget_reports_no_degradations() {
        let (db, meta, ids) = setup();
        let mut store = AnnotationStore::new();
        let mut nebula = Nebula::new(config_accept_all(), meta);
        let ann = Annotation::new("this gene correlates with JW0014 and grpC");
        let out = nebula.process_annotation(&db, &mut store, &ann, &[ids[2]]).unwrap();
        assert!(out.degradations.is_empty());
    }

    #[test]
    fn accepted_attachments_update_profile() {
        let (db, meta, ids) = setup();
        let mut store = AnnotationStore::new();
        // Seed ACG edge: ids[0] — ids[1].
        let seed = store.add_annotation(Annotation::new("seed"));
        store.attach(seed, AttachmentTarget::tuple(ids[0])).unwrap();
        store.attach(seed, AttachmentTarget::tuple(ids[1])).unwrap();
        let mut nebula = Nebula::new(config_accept_all(), meta);
        nebula.bootstrap_acg(&store);

        let ann = Annotation::new("gene JW0014"); // 1 hop from focal
        let out = nebula.process_annotation(&db, &mut store, &ann, &[ids[0]]).unwrap();
        assert!(out.accepted.iter().any(|(t, _)| *t == ids[1]));
        assert_eq!(nebula.profile().bucket(1), 1, "1-hop discovery recorded");
    }
}
