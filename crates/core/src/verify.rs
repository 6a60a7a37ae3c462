//! Verification of predicted attachments (paper §7).
//!
//! Every candidate attachment becomes a [`VerificationTask`]. Two bounds
//! route it: `confidence < β_lower` → auto-reject;
//! `confidence > β_upper` → auto-accept (becomes a true attachment);
//! otherwise the task is *pending* and waits for an expert, who resolves
//! it through the extended SQL command
//! `[Verify | Reject] Attachment <vid>;`.

use annostore::AnnotationId;
use relstore::TupleId;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A verification task `v = (vid, a, t, confidence, evidence)`
/// (Definition 7.1).
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationTask {
    /// Unique system-generated identifier.
    pub vid: u64,
    /// The annotation endpoint.
    pub annotation: AnnotationId,
    /// The tuple Nebula predicts a missing attachment to.
    pub tuple: TupleId,
    /// Estimated confidence of the attachment.
    pub confidence: f64,
    /// The keyword queries (rendered) that produced this prediction.
    pub evidence: Vec<String>,
}

/// The β bounds routing verification decisions (Figure 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerificationBounds {
    /// β_lower: below this, auto-reject.
    pub lower: f64,
    /// β_upper: above this, auto-accept.
    pub upper: f64,
}

impl VerificationBounds {
    /// Construct, clamping to `[0, 1]` and enforcing `lower ≤ upper`.
    pub fn new(lower: f64, upper: f64) -> Self {
        let lower = lower.clamp(0.0, 1.0);
        let upper = upper.clamp(0.0, 1.0).max(lower);
        VerificationBounds { lower, upper }
    }

    /// Route a confidence value.
    pub fn decide(&self, confidence: f64) -> Decision {
        if confidence < self.lower {
            Decision::AutoReject
        } else if confidence > self.upper {
            Decision::AutoAccept
        } else {
            Decision::Pending
        }
    }
}

impl Default for VerificationBounds {
    fn default() -> Self {
        // The values the paper's BoundsSetting() converged to (§8.2).
        VerificationBounds { lower: 0.32, upper: 0.86 }
    }
}

/// Routing outcome for one prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// `confidence < β_lower` — discard.
    AutoReject,
    /// `β_lower ≤ confidence ≤ β_upper` — requires an expert.
    Pending,
    /// `confidence > β_upper` — accepted as a true attachment.
    AutoAccept,
}

/// The system table of pending verification tasks, queryable by admins.
/// At most one task is pending per `(annotation, tuple)` edge.
#[derive(Debug, Clone, Default)]
pub struct VerificationQueue {
    pending: BTreeMap<u64, VerificationTask>,
    /// `(annotation, tuple) → vid` of every pending task.
    by_edge: HashMap<(AnnotationId, TupleId), u64>,
    next_vid: u64,
}

impl VerificationQueue {
    /// Empty queue.
    pub fn new() -> Self {
        VerificationQueue::default()
    }

    /// Allocate a fresh task id.
    pub fn next_vid(&mut self) -> u64 {
        let vid = self.next_vid;
        self.next_vid += 1;
        vid
    }

    /// Enqueue a pending task. Panics in debug builds if the vid or the
    /// edge is already queued.
    pub fn enqueue(&mut self, task: VerificationTask) {
        debug_assert!(!self.pending.contains_key(&task.vid));
        let previous = self.by_edge.insert((task.annotation, task.tuple), task.vid);
        debug_assert!(previous.is_none(), "one pending task per edge");
        self.pending.insert(task.vid, task);
    }

    /// Remove and return the task pending on the edge `(annotation,
    /// tuple)` (its edge was resolved).
    pub(crate) fn remove_edge(
        &mut self,
        annotation: AnnotationId,
        tuple: TupleId,
    ) -> Option<VerificationTask> {
        let vid = self.by_edge.remove(&(annotation, tuple))?;
        self.pending.remove(&vid)
    }

    /// Remove and return task `vid`.
    pub(crate) fn take(&mut self, vid: u64) -> Option<VerificationTask> {
        let task = self.pending.remove(&vid)?;
        self.by_edge.remove(&(task.annotation, task.tuple));
        Some(task)
    }

    /// Drop every pending task on `tuple` (it was deleted).
    pub(crate) fn remove_tuple(&mut self, tuple: TupleId) {
        self.pending.retain(|_, task| task.tuple != tuple);
        self.by_edge.retain(|&(_, t), _| t != tuple);
    }

    /// The most recently enqueued task still pending.
    pub(crate) fn newest_mut(&mut self) -> Option<&mut VerificationTask> {
        self.pending.values_mut().next_back()
    }

    /// Look at a pending task.
    pub fn get(&self, vid: u64) -> Option<&VerificationTask> {
        self.pending.get(&vid)
    }

    /// Number of pending tasks.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no tasks are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Iterate pending tasks in vid order (the admin's report query).
    pub fn iter(&self) -> impl Iterator<Item = &VerificationTask> {
        self.pending.values()
    }
}

/// The extended SQL command of §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// `Verify Attachment <vid>;` — accept.
    Verify(u64),
    /// `Reject Attachment <vid>;` — discard.
    Reject(u64),
}

/// Errors from command parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot parse verification command: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Parse `[Verify | Reject] Attachment <vid>;` (case-insensitive,
/// trailing semicolon optional).
pub fn parse_command(input: &str) -> Result<Command, ParseError> {
    let cleaned = input.trim().trim_end_matches(';').trim();
    let mut parts = cleaned.split_whitespace();
    let verb = parts.next().ok_or_else(|| ParseError("empty command".into()))?;
    let noun = parts.next().ok_or_else(|| ParseError("missing `Attachment`".into()))?;
    let vid_str = parts.next().ok_or_else(|| ParseError("missing task id".into()))?;
    if parts.next().is_some() {
        return Err(ParseError(format!("trailing tokens in `{input}`")));
    }
    if !noun.eq_ignore_ascii_case("attachment") {
        return Err(ParseError(format!("expected `Attachment`, got `{noun}`")));
    }
    let vid: u64 =
        vid_str.parse().map_err(|_| ParseError(format!("invalid task id `{vid_str}`")))?;
    if verb.eq_ignore_ascii_case("verify") {
        Ok(Command::Verify(vid))
    } else if verb.eq_ignore_ascii_case("reject") {
        Ok(Command::Reject(vid))
    } else {
        Err(ParseError(format!("unknown verb `{verb}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::schema::TableId;

    fn task(vid: u64) -> VerificationTask {
        VerificationTask {
            vid,
            annotation: AnnotationId(0),
            tuple: TupleId::new(TableId(0), vid),
            confidence: 0.5,
            evidence: vec!["q{gene JW0014} (w=1.00)".into()],
        }
    }

    #[test]
    fn bounds_route_correctly() {
        let b = VerificationBounds::new(0.3, 0.8);
        assert_eq!(b.decide(0.1), Decision::AutoReject);
        assert_eq!(b.decide(0.3), Decision::Pending, "inclusive lower");
        assert_eq!(b.decide(0.5), Decision::Pending);
        assert_eq!(b.decide(0.8), Decision::Pending, "inclusive upper");
        assert_eq!(b.decide(0.81), Decision::AutoAccept);
    }

    #[test]
    fn degenerate_bounds_fully_automated() {
        // β_lower = β_upper → no expert involvement except exact boundary.
        let b = VerificationBounds::new(0.5, 0.5);
        assert_eq!(b.decide(0.49), Decision::AutoReject);
        assert_eq!(b.decide(0.51), Decision::AutoAccept);
        assert_eq!(b.decide(0.5), Decision::Pending);
    }

    #[test]
    fn bounds_constructor_clamps() {
        let b = VerificationBounds::new(-1.0, 2.0);
        assert_eq!(b, VerificationBounds { lower: 0.0, upper: 1.0 });
        let inverted = VerificationBounds::new(0.9, 0.2);
        assert!(inverted.lower <= inverted.upper);
    }

    #[test]
    fn upper_bound_one_forces_manual() {
        // §7: "if β_upper = 1 then no predictions will be automatically
        // accepted".
        let b = VerificationBounds::new(0.0, 1.0);
        assert_ne!(b.decide(1.0), Decision::AutoAccept);
    }

    #[test]
    fn queue_lifecycle() {
        let mut q = VerificationQueue::new();
        let v0 = q.next_vid();
        let v1 = q.next_vid();
        assert_ne!(v0, v1);
        q.enqueue(task(v0));
        q.enqueue(task(v1));
        assert_eq!(q.len(), 2);
        assert!(q.get(v0).is_some());
        assert_eq!(q.newest_mut().map(|t| t.vid), Some(v1));
        let t0 = task(v0);
        assert_eq!(q.remove_edge(t0.annotation, t0.tuple).map(|t| t.vid), Some(v0));
        assert!(q.get(v0).is_none());
        assert!(q.remove_edge(t0.annotation, t0.tuple).is_none(), "resolved once");
        assert_eq!(q.iter().count(), 1);
        assert_eq!(q.take(v1).map(|t| t.vid), Some(v1));
        q.enqueue(task(v1));
        q.remove_tuple(task(v1).tuple);
        assert!(q.is_empty());
        q.enqueue(task(v1));
        assert_eq!(q.len(), 1, "the edge index forgot the deleted tuple's task");
    }

    #[test]
    fn parse_command_variants() {
        assert_eq!(parse_command("Verify Attachment 7;"), Ok(Command::Verify(7)));
        assert_eq!(parse_command("reject attachment 12"), Ok(Command::Reject(12)));
        assert_eq!(parse_command("  VERIFY ATTACHMENT 0  ;"), Ok(Command::Verify(0)));
    }

    #[test]
    fn parse_command_errors() {
        assert!(parse_command("").is_err());
        assert!(parse_command("Verify 7").is_err());
        assert!(parse_command("Verify Attachment").is_err());
        assert!(parse_command("Verify Attachment x").is_err());
        assert!(parse_command("Frobnicate Attachment 7").is_err());
        assert!(parse_command("Verify Attachment 7 extra").is_err());
    }
}
