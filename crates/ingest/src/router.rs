//! The deterministic shard router that sits in front of the ingest path.
//!
//! Annotations are routed by their **first focal tuple**: the focal is
//! hashed into one of [`SLOTS`] fixed hash slots, and a slot→shard map
//! assigns each slot to a shard. Keeping the slot count fixed (and far
//! larger than any realistic shard count) gives rebalancing the classic
//! slot-migration property: growing from N to M shards reassigns whole
//! slots, so the only keys that move are the keys whose *slot* changed
//! owner — everything else stays put.
//!
//! Routing is a pure function of `(key, shard count)`: no clock, no
//! state, no I/O. The same focal always lands on the same shard for a
//! given shard count, which is what makes scatter-gather merges and
//! per-shard digest slices deterministic.

use nebula_codec::fnv1a;
use relstore::TupleId;
use std::fmt;

use crate::breaker::BreakerState;

/// Number of fixed hash slots keys are mapped into. Shard counts must
/// not exceed this; 64 slots keeps the slot map tiny while still giving
/// a near-even spread for small shard counts.
pub const SLOTS: usize = 64;

/// Hash a tuple id into its slot. FNV-1a over the (table, row) pair —
/// stable across runs, platforms, and shard counts.
pub fn slot_of(key: TupleId) -> usize {
    let h = fnv1a(fnv1a::OFFSET, &key.table.0.to_le_bytes());
    (fnv1a(h, &key.row.to_le_bytes()) % SLOTS as u64) as usize
}

/// The slot→shard assignment for a fixed shard count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
    /// `slot_map[slot]` = owning shard.
    slot_map: Vec<usize>,
}

impl ShardRouter {
    /// A router over `shards` shards (clamped to `1..=SLOTS`), with slots
    /// dealt round-robin: slot `s` belongs to shard `s % shards`.
    pub fn new(shards: usize) -> ShardRouter {
        let shards = shards.clamp(1, SLOTS);
        ShardRouter { shards, slot_map: (0..SLOTS).map(|s| s % shards).collect() }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning hash slot `slot`.
    pub fn shard_of_slot(&self, slot: usize) -> usize {
        self.slot_map[slot % SLOTS]
    }

    /// The shard owning tuple `key`.
    pub fn route_tuple(&self, key: TupleId) -> usize {
        self.slot_map[slot_of(key)]
    }

    /// Route an annotation by its focal list: the first focal tuple's
    /// slot decides the home shard. Focal-free annotations (no manual
    /// attachment to hash) all home on shard 0.
    pub fn route(&self, focal: &[TupleId]) -> usize {
        match focal.first() {
            Some(&key) => self.route_tuple(key),
            None => 0,
        }
    }

    /// A router for `to` shards plus the list of slots whose owner
    /// changed. Only keys hashing into a returned slot move; every other
    /// key keeps its shard.
    pub fn rebalance(&self, to: usize) -> (ShardRouter, Vec<usize>) {
        let next = ShardRouter::new(to);
        let moved = (0..SLOTS).filter(|&s| self.slot_map[s] != next.slot_map[s]).collect();
        (next, moved)
    }

    /// How many slots each shard owns (spread check for `SHOW SHARDS`).
    pub fn slots_per_shard(&self) -> Vec<usize> {
        let mut counts = vec![0; self.shards];
        for &s in &self.slot_map {
            counts[s] += 1;
        }
        counts
    }
}

/// One shard's health as the router sees it: its breaker posture plus
/// replication progress. One wedged shard trips its own breaker and
/// lags its own sequence; its siblings' rows stay green.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// The shard id.
    pub shard: usize,
    /// The shard's fencing epoch (bumped by failover promotes).
    pub epoch: u64,
    /// Highest replication sequence the shard has applied.
    pub applied_seq: u64,
    /// The shard's scatter-gather breaker state.
    pub breaker: BreakerState,
    /// Is the shard currently partitioned away from its siblings?
    pub partitioned: bool,
    /// Has the shard been failed (crashed) and not yet promoted over?
    pub failed: bool,
}

impl ShardHealth {
    /// Is this shard currently able to answer probes and applies?
    pub fn healthy(&self) -> bool {
        !self.partitioned && !self.failed && self.breaker == BreakerState::Closed
    }
}

impl fmt::Display for ShardHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = if self.failed {
            "failed"
        } else if self.partitioned {
            "partitioned"
        } else {
            match self.breaker {
                BreakerState::Closed => "healthy",
                BreakerState::Open => "breaker-open",
                BreakerState::HalfOpen => "breaker-half-open",
            }
        };
        write!(
            f,
            "shard {}: {} epoch={} applied={}",
            self.shard, state, self.epoch, self.applied_seq
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::schema::TableId;

    fn t(table: u32, row: u64) -> TupleId {
        TupleId::new(TableId(table), row)
    }

    /// Slot ownership decides which shard holds a tuple's annotations; a
    /// hash that moved would strand every slice already written.
    #[test]
    fn slot_of_is_pinned() {
        let slots: Vec<usize> =
            [t(0, 0), t(0, 1), t(1, 0), t(3, 41), t(7, 1_000_000), t(u32::MAX, u64::MAX)]
                .into_iter()
                .map(slot_of)
                .collect();
        assert_eq!(slots, [21, 52, 36, 15, 11, 41]);
    }

    #[test]
    fn routing_is_pure_and_in_range() {
        for shards in [1, 2, 3, 4, 7, 64] {
            let router = ShardRouter::new(shards);
            for row in 0..500 {
                let key = t(row as u32 % 5, row);
                let a = router.route_tuple(key);
                let b = router.route_tuple(key);
                assert_eq!(a, b);
                assert!(a < shards);
            }
        }
    }

    #[test]
    fn rebalance_moves_only_changed_slots() {
        let from = ShardRouter::new(2);
        let (to, moved) = from.rebalance(4);
        for row in 0..1000 {
            let key = t(1, row);
            if from.route_tuple(key) != to.route_tuple(key) {
                assert!(moved.contains(&slot_of(key)));
            }
        }
        // Slots retained by their shard keep every key.
        for slot in (0..SLOTS).filter(|s| !moved.contains(s)) {
            assert_eq!(from.shard_of_slot(slot), to.shard_of_slot(slot));
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let router = ShardRouter::new(1);
        assert_eq!(router.slots_per_shard(), vec![SLOTS]);
        assert_eq!(router.route(&[]), 0);
        assert_eq!(router.route(&[t(3, 99)]), 0);
    }

    #[test]
    fn spread_is_near_even() {
        for shards in [2, 4, 8] {
            let per = ShardRouter::new(shards).slots_per_shard();
            let (min, max) = (per.iter().min().unwrap(), per.iter().max().unwrap());
            assert!(max - min <= 1, "uneven slot deal for {shards} shards: {per:?}");
        }
    }
}
