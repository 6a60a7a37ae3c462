//! Bounded admission queue with priority classes.
//!
//! The queue is the only place work waits. It is bounded — a full queue
//! *rejects* new work with [`ShedReason::QueueFull`] rather than growing —
//! and it is priority-aware: [`Priority::Interactive`] items dequeue before
//! [`Priority::Normal`], which dequeue before [`Priority::Background`].
//! Within a class, order is strictly FIFO, so a single-class batch drains
//! in exactly its submission order (the property the determinism tests
//! lean on).

use std::collections::VecDeque;
use std::time::Instant;

/// Admission priority class. Lower classes only dequeue when every higher
/// class is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// User-facing work; dequeues first.
    Interactive,
    /// The default class.
    #[default]
    Normal,
    /// Backfill / maintenance work; dequeues last.
    Background,
}

impl Priority {
    fn class(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Normal => 1,
            Priority::Background => 2,
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Priority::Interactive => "interactive",
            Priority::Normal => "normal",
            Priority::Background => "background",
        };
        write!(f, "{s}")
    }
}

/// Why an item was shed instead of processed. Shedding is always typed
/// and accounted — there is no silent-drop path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded admission queue was full at submission.
    QueueFull,
    /// The item's deadline expired before it was dispatched.
    DeadlineExpired,
    /// A circuit breaker was open when the item was dispatched.
    CircuitOpen,
    /// The engine health machine had declared the engine wedged.
    Wedged,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::DeadlineExpired => "deadline-expired",
            ShedReason::CircuitOpen => "circuit-open",
            ShedReason::Wedged => "wedged",
        };
        write!(f, "{s}")
    }
}

/// One shed item: which input it was, and why it was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedRecord {
    /// Position in the input batch.
    pub index: usize,
    /// The item's priority class.
    pub priority: Priority,
    /// Why it was shed.
    pub reason: ShedReason,
}

/// An item waiting in the queue: its input position plus the dispatch
/// metadata the front end needs.
#[derive(Debug)]
pub struct Queued {
    /// Position in the input batch.
    pub index: usize,
    /// Priority class it was admitted under.
    pub priority: Priority,
    /// Absolute dispatch deadline, if any.
    pub deadline: Option<Instant>,
    /// When the item arrived: its due instant in the batch's arrival
    /// process (for sojourn-time histograms).
    pub admitted_at: Instant,
}

/// The bounded, priority-classed admission queue. See the module docs.
pub struct AdmissionQueue {
    capacity: usize,
    classes: [VecDeque<Queued>; 3],
    len: usize,
    peak: usize,
}

impl AdmissionQueue {
    /// A queue admitting at most `capacity` items at a time (clamped to
    /// at least 1).
    pub fn new(capacity: usize) -> AdmissionQueue {
        AdmissionQueue {
            capacity: capacity.max(1),
            classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            len: 0,
            peak: 0,
        }
    }

    /// Admission: `Ok(())` if the item was queued,
    /// `Err(ShedReason::QueueFull)` if the queue is at capacity.
    /// Backpressure is the typed rejection, not a stall.
    pub fn try_admit(&mut self, item: Queued) -> Result<(), ShedReason> {
        if self.len >= self.capacity {
            return Err(ShedReason::QueueFull);
        }
        self.classes[item.priority.class()].push_back(item);
        self.len += 1;
        self.peak = self.peak.max(self.len);
        Ok(())
    }

    /// Dequeue the highest-priority non-empty class's front item, or
    /// `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<Queued> {
        let item = self.classes.iter_mut().find_map(VecDeque::pop_front)?;
        self.len -= 1;
        Some(item)
    }

    /// Highest depth observed since creation.
    pub fn peak_depth(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queued(index: usize, priority: Priority) -> Queued {
        Queued { index, priority, deadline: None, admitted_at: Instant::now() }
    }

    #[test]
    fn fifo_within_a_class() {
        let mut q = AdmissionQueue::new(8);
        for i in 0..5 {
            q.try_admit(queued(i, Priority::Normal)).expect("room");
        }
        for expect in 0..5 {
            assert_eq!(q.pop().expect("queued").index, expect);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn higher_priority_classes_dequeue_first() {
        let mut q = AdmissionQueue::new(8);
        q.try_admit(queued(0, Priority::Background)).expect("room");
        q.try_admit(queued(1, Priority::Normal)).expect("room");
        q.try_admit(queued(2, Priority::Interactive)).expect("room");
        q.try_admit(queued(3, Priority::Interactive)).expect("room");
        let order: Vec<usize> = (0..4).map(|_| q.pop().expect("queued").index).collect();
        assert_eq!(order, vec![2, 3, 1, 0]);
    }

    #[test]
    fn full_queue_rejects_with_typed_shed() {
        let mut q = AdmissionQueue::new(2);
        q.try_admit(queued(0, Priority::Normal)).expect("room");
        q.try_admit(queued(1, Priority::Normal)).expect("room");
        let err = q.try_admit(queued(2, Priority::Normal)).expect_err("full");
        assert_eq!(err, ShedReason::QueueFull);
        assert_eq!(q.peak_depth(), 2);
        // Draining one makes room again.
        q.pop().expect("queued");
        q.try_admit(queued(2, Priority::Normal)).expect("room after drain");
    }
}
