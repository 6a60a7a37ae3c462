//! Deterministic, seeded fault injection.
//!
//! Every injection site is one row of one table: a [`FaultSite`] names the
//! row, a [`FaultPlan`] holds one rate per row, [`FaultPlan::roll`] is the
//! one roll, and [`FaultStats`] holds one tally per row. The plan carries
//! its own xorshift64* stream so that a given seed replays the exact same
//! fault sequence, independent of wall clock or thread scheduling.
//!
//! A roll consumes its site's fixed number of draws whether or not it
//! fires, so toggling one site's rate never shifts the stream any other
//! site sees.

use std::fmt;
use std::time::Duration;

/// Number of fault sites: the length of every per-site table.
const SITES: usize = 23;

/// The injection points wired into the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A relstore/executor query errors out before producing results.
    Query,
    /// An inverted-index probe fails; executors fall back to a scan.
    IndexProbe,
    /// Artificial latency at a pipeline stage boundary.
    Latency,
    /// A panic at a pipeline stage boundary (tests batch containment).
    Panic,
    /// A WAL append is cut short at byte `k` and the partial bytes stay on
    /// disk, as if the process lost power mid-write.
    TornWrite,
    /// A write call persists fewer bytes than asked and reports it, so the
    /// caller can repair by truncating back to the pre-write offset.
    ShortWrite,
    /// An `fsync` fails after the bytes were handed to the OS.
    FsyncFail,
    /// One bit of a checkpoint image flips before it reaches disk.
    BitFlip,
    /// One bit of the at-rest WAL file flips on disk (silent media rot,
    /// found by the anti-entropy scrubber rather than at recovery).
    WalRot,
    /// One bit of the at-rest checkpoint file flips on disk (silent media
    /// rot, found by the anti-entropy scrubber rather than at recovery).
    CheckpointRot,
    /// A replication transport frame vanishes in flight.
    NetDrop,
    /// A replication transport frame is held back before delivery.
    NetDelay,
    /// A replication transport frame overtakes an earlier one.
    NetReorder,
    /// A replication transport frame is delivered twice.
    NetDuplicate,
    /// A shard-layer fault: a scatter-gather probe errors out while a
    /// sibling shard serves it, or a boundary-edge apply fails before the
    /// batch is replayed (the shard nacks and the origin retries).
    Shard,
    /// A buffer-pool page read fails before the page leaves the kernel
    /// (transient; the pool retries the syscall).
    PageRead,
    /// A page write-back fails mid-syscall during the in-place apply
    /// phase (the shadow image on disk makes the apply replayable).
    PageWrite,
    /// An `fsync` of the page file or its shadow image fails.
    PageFsync,
    /// One bit of an at-rest page flips on disk (silent media rot, found
    /// by the page scrubber's CRC walk rather than at read time).
    PageRot,
    /// An archive-file write is cut short mid-write. The torn temp file is
    /// removed, nothing lands under the final name, and the checkpoint
    /// that needed the file refuses to truncate the WAL.
    ArchiveWrite,
    /// One bit of an at-rest archive file flips on disk (silent media
    /// rot in the backup directory, found by the backup scrubber).
    ArchiveRot,
    /// An `fsync` of an archived segment fails after the write.
    ArchiveFsync,
    /// A write returns no-space (`ENOSPC`); write paths must degrade to
    /// a typed wedge instead of panicking.
    Enospc,
}

/// How a roll turns its parameter draw into the value it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Param {
    /// No parameter draw: the roll is one Bernoulli draw and reports 0.
    Bare,
    /// A parameter draw the site ignores (reports 0).
    Unused,
    /// Bytes of a `len`-byte write that reach the file: `draw % len.max(1)`,
    /// always strictly less than a non-empty `len`.
    Keep,
    /// Bit flipped in a `len`-byte buffer: `draw % (len.max(1) * 8)`.
    Bit,
    /// Bit flipped in a `len`-byte page: `draw % (len * 8).max(1)`.
    PageBit,
    /// Delivery polls a frame is held back: `draw % 4 + 1`, in `[1, 4]`.
    Ticks,
}

impl Param {
    fn reduce(self, draw: u64, len: usize) -> usize {
        let draw = draw as usize;
        match self {
            Param::Bare | Param::Unused => 0,
            Param::Keep => draw % len.max(1),
            Param::Bit => draw % (len.max(1) * 8),
            Param::PageBit => draw % (len * 8).max(1),
            Param::Ticks => draw % 4 + 1,
        }
    }
}

impl FaultSite {
    /// Every site, in table order.
    pub(crate) const ALL: [FaultSite; SITES] = [
        FaultSite::Query,
        FaultSite::IndexProbe,
        FaultSite::Latency,
        FaultSite::Panic,
        FaultSite::TornWrite,
        FaultSite::ShortWrite,
        FaultSite::FsyncFail,
        FaultSite::BitFlip,
        FaultSite::WalRot,
        FaultSite::CheckpointRot,
        FaultSite::NetDrop,
        FaultSite::NetDelay,
        FaultSite::NetReorder,
        FaultSite::NetDuplicate,
        FaultSite::Shard,
        FaultSite::PageRead,
        FaultSite::PageWrite,
        FaultSite::PageFsync,
        FaultSite::PageRot,
        FaultSite::ArchiveWrite,
        FaultSite::ArchiveRot,
        FaultSite::ArchiveFsync,
        FaultSite::Enospc,
    ];

    /// The site's row of the fault table: its name and its parameter.
    fn row(self) -> (&'static str, Param) {
        match self {
            FaultSite::Query => ("query", Param::Bare),
            FaultSite::IndexProbe => ("index-probe", Param::Bare),
            FaultSite::Latency => ("latency", Param::Bare),
            FaultSite::Panic => ("panic", Param::Bare),
            FaultSite::TornWrite => ("torn-write", Param::Keep),
            FaultSite::ShortWrite => ("short-write", Param::Keep),
            FaultSite::FsyncFail => ("fsync-fail", Param::Unused),
            FaultSite::BitFlip => ("bit-flip", Param::Bit),
            FaultSite::WalRot => ("wal-rot", Param::Bit),
            FaultSite::CheckpointRot => ("checkpoint-rot", Param::Bit),
            FaultSite::NetDrop => ("net-drop", Param::Unused),
            FaultSite::NetDelay => ("net-delay", Param::Ticks),
            FaultSite::NetReorder => ("net-reorder", Param::Unused),
            FaultSite::NetDuplicate => ("net-duplicate", Param::Unused),
            FaultSite::Shard => ("shard", Param::Bare),
            FaultSite::PageRead => ("page-read", Param::Unused),
            FaultSite::PageWrite => ("page-write", Param::Unused),
            FaultSite::PageFsync => ("page-fsync", Param::Unused),
            FaultSite::PageRot => ("page-rot", Param::PageBit),
            FaultSite::ArchiveWrite => ("archive-write", Param::Keep),
            FaultSite::ArchiveRot => ("archive-rot", Param::Bit),
            FaultSite::ArchiveFsync => ("archive-fsync", Param::Unused),
            FaultSite::Enospc => ("enospc", Param::Unused),
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.row().0)
    }
}

/// A fault that actually fired at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Where it fired.
    pub site: FaultSite,
    /// Transient faults are retryable; permanent ones are not.
    pub transient: bool,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.transient { "transient" } else { "permanent" };
        write!(f, "injected {kind} fault at {} site", self.site)
    }
}

impl std::error::Error for InjectedFault {}

/// A seeded schedule of faults across all injection sites: one firing
/// probability in `[0, 1]` per site (all zero by default), plus the query
/// faults' flavor and the latency sites' delay.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed the plan was built from (for display/reproduction).
    pub seed: u64,
    rates: [f64; SITES],
    /// Whether injected query faults are transient (retryable).
    pub(crate) transient: bool,
    /// Latency injected per stage-boundary firing.
    pub(crate) delay: Duration,
    state: u64,
}

impl FaultPlan {
    /// A plan with the given seed and all rates zero.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0.0; SITES],
            transient: true,
            delay: Duration::from_micros(50),
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// Query, index-probe and latency faults at `rate`, query faults
    /// transient; every other site stays off.
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan::new(seed)
            .with(FaultSite::Query, rate)
            .with(FaultSite::IndexProbe, rate)
            .with(FaultSite::Latency, rate)
    }

    /// [`FaultPlan::uniform`] at rate 1: transient query errors and
    /// index-probe failures always fire, every stage boundary stalls.
    /// Every other site stays off; panics are opt-in via
    /// `with(FaultSite::Panic, rate)`.
    pub fn hostile(seed: u64) -> FaultPlan {
        FaultPlan::uniform(seed, 1.0)
    }

    /// Builder: set one site's firing rate.
    pub fn with(mut self, site: FaultSite, rate: f64) -> FaultPlan {
        self.rates[site as usize] = rate;
        self
    }

    /// Builder: set the query-error rate and flavor.
    pub fn with_query(self, rate: f64, transient: bool) -> FaultPlan {
        FaultPlan { transient, ..self.with(FaultSite::Query, rate) }
    }

    /// Builder: set the stage-latency rate and per-firing delay.
    pub fn with_latency(self, rate: f64, delay: Duration) -> FaultPlan {
        FaultPlan { delay, ..self.with(FaultSite::Latency, rate) }
    }

    /// Roll the seeded stream at `site` for an operation over `len` bytes.
    /// Returns the site's parameter if the fault fired: the bytes a torn or
    /// short write keeps, the flipped bit, a delayed frame's hold in polls,
    /// or 0 at sites without one.
    ///
    /// Every call consumes the site's fixed number of draws whether or not
    /// it fires: the Bernoulli draw, plus a parameter draw at every site
    /// but query, index-probe, shard, latency and panic.
    pub fn roll(&mut self, site: FaultSite, len: usize) -> Option<usize> {
        let draw = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        let rate = self.rates[site as usize];
        let fired = rate > 0.0 && draw < rate;
        let value = match site.row().1 {
            Param::Bare => 0,
            param => param.reduce(self.next(), len),
        };
        fired.then_some(value)
    }

    /// Human-readable one-liner for `SHOW FAULTS`: the seed, then every
    /// site with a non-zero rate, in table order.
    pub fn describe(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        for site in FaultSite::ALL {
            let rate = self.rates[site as usize];
            if rate == 0.0 {
                continue;
            }
            out.push_str(&format!(" {site}={rate:.2}"));
            match site {
                FaultSite::Query if self.transient => out.push_str(" (transient)"),
                FaultSite::Query => out.push_str(" (permanent)"),
                FaultSite::Latency => out.push_str(&format!("@{}us", self.delay.as_micros())),
                _ => {}
            }
        }
        out
    }

    /// xorshift64* step; the plan is its own RNG so injection order is a
    /// pure function of the seed and the call sequence.
    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Per-thread tally of injection activity, for tests and `SHOW FAULTS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    injected: [u64; SITES],
    /// Faults absorbed without surfacing an error (e.g. scan fallback).
    pub recovered: u64,
    /// Retry attempts made against transient faults.
    pub retries: u64,
}

impl FaultStats {
    /// Faults injected at `site`.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site as usize]
    }

    /// Total faults injected across all sites.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    pub(crate) fn tally(&mut self, site: FaultSite) {
        self.injected[site as usize] += 1;
    }
}

/// Bounded exponential backoff for retrying transient faults.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (so 3 = 1 try + 2 retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(5),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based): base * 2^attempt,
    /// capped at `max_backoff`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_backoff.checked_mul(factor).map_or(self.max_backoff, |d| d.min(self.max_backoff))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_indexed_by_discriminant() {
        for (i, site) in FaultSite::ALL.into_iter().enumerate() {
            assert_eq!(site as usize, i, "{site}");
        }
    }

    #[test]
    fn every_site_consumes_its_fixed_draws_at_any_rate() {
        // A plan at rate 0 and one at rate 1 must stand at the same stream
        // position after N rolls at a site: a sentinel site rolled
        // afterwards (at rate 0.5) sees the same stream in both.
        let bare = [
            FaultSite::Query,
            FaultSite::IndexProbe,
            FaultSite::Shard,
            FaultSite::Latency,
            FaultSite::Panic,
        ];
        for site in FaultSite::ALL {
            let probe =
                if site == FaultSite::Query { FaultSite::IndexProbe } else { FaultSite::Query };
            let sentinel = |plan: &mut FaultPlan| -> Vec<bool> {
                (0..64).map(|_| plan.roll(probe, 0).is_some()).collect()
            };
            let expected = if bare.contains(&site) { 1 } else { 2 };
            assert_eq!(site.row().1 == Param::Bare, expected == 1, "{site}");
            let base = FaultPlan::new(42).with(probe, 0.5);
            let mut quiet = base.clone().with(site, 0.0);
            let mut noisy = base.clone().with(site, 1.0);
            for _ in 0..7 {
                assert_eq!(quiet.roll(site, 4096), None, "{site}");
                assert!(noisy.roll(site, 4096).is_some(), "{site}");
            }
            let quiet_after = sentinel(&mut quiet);
            assert_eq!(quiet_after, sentinel(&mut noisy), "{site}");
            // The count itself: one roll at the site lands where `draws`
            // bare rolls of an unarmed site land.
            let mut once = base.clone();
            once.roll(site, 4096);
            let mut counted = base.clone();
            for _ in 0..expected {
                counted.roll(FaultSite::Panic, 0);
            }
            assert_eq!(sentinel(&mut once), sentinel(&mut counted), "{site}");
        }
    }

    #[test]
    fn rolls_replay_identically_for_a_seed() {
        let mut a = FaultPlan::new(0xF00D);
        for site in FaultSite::ALL {
            a = a.with(site, 0.3);
        }
        let mut b = a.clone();
        for i in 0..256 {
            let site = FaultSite::ALL[i % FaultSite::ALL.len()];
            assert_eq!(a.roll(site, 4096), b.roll(site, 4096), "call {i}");
        }
    }

    #[test]
    fn parameters_stay_in_range() {
        let mut plan = FaultPlan::new(7);
        for site in FaultSite::ALL {
            plan = plan.with(site, 1.0);
        }
        for _ in 0..128 {
            let ticks = plan.roll(FaultSite::NetDelay, 0).expect("delay at rate 1.0 fires");
            assert!((1..=4).contains(&ticks));
            assert!(plan.roll(FaultSite::PageRot, 512).expect("rot fires") < 512 * 8);
            assert!(plan.roll(FaultSite::TornWrite, 100).expect("torn write fires") < 100);
            assert!(plan.roll(FaultSite::BitFlip, 100).expect("bit flip fires") < 800);
            assert_eq!(plan.roll(FaultSite::NetDrop, 100), Some(0));
        }
        // Empty buffers cannot panic on the modulus: the I/O sites reduce
        // by `len.max(1) * 8`, the page-rot site by `(len * 8).max(1)`.
        assert_eq!(plan.roll(FaultSite::PageRot, 0), Some(0));
        assert!(plan.roll(FaultSite::BitFlip, 0).expect("bit flip fires") < 8);
        assert_eq!(plan.roll(FaultSite::TornWrite, 0), Some(0));
    }

    #[test]
    fn describe_lists_the_armed_sites_in_table_order() {
        let plan = FaultPlan::uniform(42, 0.5).with(FaultSite::Enospc, 0.25);
        assert_eq!(
            plan.describe(),
            "seed=42 query=0.50 (transient) index-probe=0.50 latency=0.50@50us enospc=0.25"
        );
        assert_eq!(
            FaultPlan::new(3).with_query(1.0, false).describe(),
            "seed=3 query=1.00 (permanent)"
        );
    }
}
