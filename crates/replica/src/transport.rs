//! Transports: how frames move between nodes.
//!
//! Nodes are addressed by small integers — the initial primary is node 0,
//! replicas are 1..=N — and addresses survive promotion: roles change,
//! addresses do not, which is exactly what lets a deposed primary keep
//! talking (and get fenced) after failover.
//!
//! [`SimTransport`] is the deterministic in-process network: per-node
//! FIFO inboxes with faults injected from `nebula-govern`'s seeded
//! stream. The transport owns its **own** [`FaultPlan`] instance rather
//! than the thread-local governor, so transport draws never perturb the
//! engine's fault stream (and vice versa) — the same seed replays the
//! same loss pattern regardless of what the engine is doing.

use nebula_govern::{FaultPlan, FaultSite};
use std::collections::VecDeque;
use std::time::Duration;

use crate::counters;

/// Moves encoded frames between nodes. Point-to-point, unreliable,
/// unordered across links (a single link may also reorder under fault
/// injection).
pub trait Transport: std::fmt::Debug + Send {
    /// Enqueue `frame` from node `from` toward node `to`. Delivery is
    /// best-effort: the transport may drop, delay, reorder, or duplicate.
    fn send(&mut self, from: usize, to: usize, frame: Vec<u8>);

    /// Receive the next frame addressed to node `at`, if one is ready.
    /// A held (delayed) head-of-line frame returns `None` and gets one
    /// tick closer to delivery.
    fn recv(&mut self, at: usize) -> Option<(usize, Vec<u8>)>;

    /// Cut or restore all links to `node`. Default: transport has no
    /// partition support and ignores the request.
    fn set_partitioned(&mut self, _node: usize, _on: bool) {}

    /// Is `node` currently partitioned away? Default: never.
    fn is_partitioned(&self, _node: usize) -> bool {
        false
    }

    /// One-line status for `SHOW REPLICATION`.
    fn describe(&self) -> String;
}

/// Delivery statistics a [`SimTransport`] accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames enqueued for delivery (duplicates counted).
    pub delivered: u64,
    /// Frames dropped by injected loss.
    pub dropped: u64,
    /// Frames held back by injected delay.
    pub delayed: u64,
    /// Frames delivered ahead of queue order.
    pub reordered: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames blackholed by a partition (manual or flapping).
    pub partition_drops: u64,
}

#[derive(Debug)]
struct InFlight {
    from: usize,
    /// Remaining delay ticks; the head of an inbox is only handed out
    /// once its hold reaches zero (each failed `recv` pays one tick).
    hold: u32,
    bytes: Vec<u8>,
}

/// The deterministic simulated network.
///
/// Fault decisions come from the owned [`FaultPlan`]'s seeded stream, in
/// a fixed draw order per send (drop, delay, reorder, duplicate), so a
/// given seed replays the identical delivery schedule. Partition checks
/// happen **before** any draw, so cutting a link mid-run does not shift
/// the fault stream for traffic on other links.
#[derive(Debug)]
pub struct SimTransport {
    plan: FaultPlan,
    inboxes: Vec<VecDeque<InFlight>>,
    partitioned: Vec<bool>,
    /// `Some(period)` drives a deterministic link-flap schedule: node `n`
    /// is unreachable whenever `(send_tick / period + n) % 3 == 0`, i.e.
    /// each node is dark for about a third of the run, staggered so the
    /// cluster as a whole keeps making progress.
    flap_period: Option<u64>,
    sends: u64,
    stats: TransportStats,
}

impl SimTransport {
    /// A transport over `nodes` nodes with faults drawn from `plan`'s
    /// `Net*` site rates.
    pub fn new(nodes: usize, plan: FaultPlan) -> SimTransport {
        SimTransport {
            plan,
            inboxes: (0..nodes).map(|_| VecDeque::new()).collect(),
            partitioned: vec![false; nodes],
            flap_period: None,
            sends: 0,
            stats: TransportStats::default(),
        }
    }

    /// A fault-free transport (still deterministic, still FIFO).
    pub fn reliable(nodes: usize) -> SimTransport {
        SimTransport::new(nodes, FaultPlan::new(0))
    }

    /// Enable the deterministic flap schedule: every `period` sends the
    /// schedule window advances and a different subset of nodes goes
    /// dark. See [`SimTransport::flap_down`].
    pub fn with_flap(mut self, period: u64) -> SimTransport {
        self.flap_period = Some(period.max(1));
        self
    }

    /// Is `node` dark under the flap schedule at send-tick `tick`?
    pub fn flap_down(&self, node: usize, tick: u64) -> bool {
        match self.flap_period {
            // Node 0 (the initial primary) is exempt: flapping models
            // replica-side link trouble, and a dark primary would only
            // stall the whole run.
            Some(period) if node != 0 => (tick / period + node as u64).is_multiple_of(3),
            _ => false,
        }
    }

    /// Delivery statistics so far.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Frames currently queued for node `at` (held ones included).
    pub fn pending(&self, at: usize) -> usize {
        self.inboxes.get(at).map_or(0, VecDeque::len)
    }
}

impl Transport for SimTransport {
    fn send(&mut self, from: usize, to: usize, frame: Vec<u8>) {
        let tick = self.sends;
        self.sends += 1;
        if to >= self.inboxes.len() || from >= self.inboxes.len() {
            return;
        }
        let cut = self.partitioned[from]
            || self.partitioned[to]
            || self.flap_down(from, tick)
            || self.flap_down(to, tick);
        if cut {
            self.stats.partition_drops += 1;
            nebula_obs::counter_add(counters::FRAMES_DROPPED, 1);
            return;
        }
        // Fixed draw order and count per delivered send: whether a fault
        // fires never shifts the stream for later sends.
        let dropped = self.plan.roll(FaultSite::NetDrop, 0).is_some();
        let hold = self.plan.roll(FaultSite::NetDelay, 0).unwrap_or(0) as u32;
        let reorder = self.plan.roll(FaultSite::NetReorder, 0).is_some();
        let duplicate = self.plan.roll(FaultSite::NetDuplicate, 0).is_some();

        if dropped {
            self.stats.dropped += 1;
            nebula_obs::counter_add(counters::FRAMES_DROPPED, 1);
            return;
        }
        if hold > 0 {
            self.stats.delayed += 1;
            nebula_obs::counter_add(counters::FRAMES_DELAYED, 1);
            // Under the virtual clock this advances simulated time, so
            // delay behavior shows up in latency telemetry too.
            nebula_govern::clock::sleep(Duration::from_micros(50 * u64::from(hold)));
        }
        let item = InFlight { from, hold, bytes: frame };
        if duplicate {
            self.stats.duplicated += 1;
            nebula_obs::counter_add(counters::FRAMES_DUPLICATED, 1);
            self.inboxes[to].push_back(InFlight { from, hold, bytes: item.bytes.clone() });
            self.stats.delivered += 1;
        }
        if reorder {
            self.stats.reordered += 1;
            nebula_obs::counter_add(counters::FRAMES_REORDERED, 1);
            self.inboxes[to].push_front(item);
        } else {
            self.inboxes[to].push_back(item);
        }
        self.stats.delivered += 1;
    }

    fn recv(&mut self, at: usize) -> Option<(usize, Vec<u8>)> {
        let inbox = self.inboxes.get_mut(at)?;
        let head = inbox.front_mut()?;
        if head.hold > 0 {
            head.hold -= 1;
            return None;
        }
        let item = inbox.pop_front()?;
        Some((item.from, item.bytes))
    }

    fn set_partitioned(&mut self, node: usize, on: bool) {
        if let Some(slot) = self.partitioned.get_mut(node) {
            *slot = on;
        }
    }

    fn is_partitioned(&self, node: usize) -> bool {
        self.partitioned.get(node).copied().unwrap_or(false)
    }

    fn describe(&self) -> String {
        let s = self.stats;
        format!(
            "sim nodes={} sends={} delivered={} dropped={} delayed={} reordered={} dup={} \
             partition_drops={}{}",
            self.inboxes.len(),
            self.sends,
            s.delivered,
            s.dropped,
            s.delayed,
            s.reordered,
            s.duplicated,
            s.partition_drops,
            if self.flap_period.is_some() { " flapping" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_transport_is_fifo() {
        let mut t = SimTransport::reliable(2);
        t.send(0, 1, vec![1]);
        t.send(0, 1, vec![2]);
        assert_eq!(t.recv(1), Some((0, vec![1])));
        assert_eq!(t.recv(1), Some((0, vec![2])));
        assert_eq!(t.recv(1), None);
    }

    #[test]
    fn same_seed_replays_the_same_delivery_schedule() {
        let run = || {
            let plan = FaultPlan::new(0xFEED)
                .with(FaultSite::NetDrop, 0.2)
                .with(FaultSite::NetDelay, 0.2)
                .with(FaultSite::NetReorder, 0.2)
                .with(FaultSite::NetDuplicate, 0.2);
            let mut t = SimTransport::new(2, plan);
            for i in 0..200u8 {
                t.send(0, 1, vec![i]);
            }
            let mut got = Vec::new();
            for _ in 0..2000 {
                if let Some((_, b)) = t.recv(1) {
                    got.push(b[0]);
                }
            }
            (t.stats(), got)
        };
        assert_eq!(run(), run());
        let (stats, _) = run();
        assert!(stats.dropped > 0 && stats.delayed > 0);
        assert!(stats.reordered > 0 && stats.duplicated > 0);
    }

    #[test]
    fn partition_blackholes_without_consuming_draws() {
        let plan = FaultPlan::new(7).with(FaultSite::NetDrop, 0.5);
        let mut faulty = SimTransport::new(2, plan);
        // Reference: the drop pattern with no partition interference.
        let mut pattern = Vec::new();
        for i in 0..20u8 {
            faulty.send(0, 1, vec![i]);
        }
        while let Some((_, b)) = faulty.recv(1) {
            pattern.push(b[0]);
        }

        let plan = FaultPlan::new(7).with(FaultSite::NetDrop, 0.5);
        let mut t = SimTransport::new(2, plan);
        t.set_partitioned(1, true);
        for i in 100..110u8 {
            t.send(0, 1, vec![i]); // blackholed, no draws consumed
        }
        t.set_partitioned(1, false);
        assert!(!t.is_partitioned(1));
        for i in 0..20u8 {
            t.send(0, 1, vec![i]);
        }
        let mut got = Vec::new();
        while let Some((_, b)) = t.recv(1) {
            got.push(b[0]);
        }
        assert_eq!(got, pattern, "partitioned sends must not shift the fault stream");
        assert_eq!(t.stats().partition_drops, 10);
    }

    #[test]
    fn delayed_head_takes_ticks_to_arrive() {
        let plan = FaultPlan::new(3).with(FaultSite::NetDelay, 1.0);
        let mut t = SimTransport::new(2, plan);
        t.send(0, 1, vec![9]);
        let mut attempts = 0;
        while t.recv(1).is_none() {
            attempts += 1;
            assert!(attempts < 10, "delay must be bounded");
        }
        assert!(attempts >= 1, "a guaranteed delay must cost at least one tick");
    }

    #[test]
    fn flap_schedule_darkens_each_replica_a_third_of_the_time() {
        let t = SimTransport::reliable(4).with_flap(10);
        for node in 1..4usize {
            let dark = (0..300).filter(|&tick| t.flap_down(node, tick)).count();
            assert_eq!(dark, 100, "node {node}");
        }
        assert_eq!((0..300).filter(|&tick| t.flap_down(0, tick)).count(), 0);
    }
}
