//! The anti-entropy range-digest ladder.
//!
//! Both the primary and every replica keep a chain of per-LSN state
//! digests (`(u64, u64)`, the two stores' running multiset digests).
//! Comparing the chains digest-by-digest would cost O(n) per scrub; the
//! ladder instead compares **range digests** (a CRC32C over a contiguous
//! run of 24-byte `lsn | digest` entries) and binary-searches the first
//! disagreeing prefix — O(log n) range probes to locate the exact last
//! LSN two nodes provably agree on, which is where repair truncates the
//! diverged suffix.
//!
//! The comparison is restricted to the LSNs *both* chains still hold:
//! checkpoint transfers let a replica skip LSNs wholesale and both sides
//! prune old entries, so the common domain — not either chain alone — is
//! what can be meaningfully compared.

use nebula_codec::crc32c;
use std::collections::BTreeMap;

/// The result of one ladder comparison between two digest chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LadderOutcome {
    /// The highest common LSN at which the chains provably agree
    /// (0 when they disagree from the very first common entry).
    pub agreed: u64,
    /// Range-digest comparisons spent locating it.
    pub probes: u64,
    /// Did any common entry disagree at all?
    pub diverged: bool,
    /// Common entries compared (the ladder's search space).
    pub compared: usize,
}

/// CRC over a run of `(lsn, digest)` entries — one rung of the ladder.
fn range_digest(entries: &[(u64, (u64, u64))]) -> u32 {
    let mut bytes = Vec::with_capacity(entries.len() * 24);
    for (lsn, (d0, d1)) in entries {
        bytes.extend_from_slice(&lsn.to_le_bytes());
        bytes.extend_from_slice(&d0.to_le_bytes());
        bytes.extend_from_slice(&d1.to_le_bytes());
    }
    crc32c(&bytes)
}

/// Compare two per-LSN digest chains up to `hi` and locate the last LSN
/// they agree on, by binary-searching range digests over their common
/// domain.
pub fn last_agreed(
    primary: &BTreeMap<u64, (u64, u64)>,
    replica: &BTreeMap<u64, (u64, u64)>,
    hi: u64,
) -> LadderOutcome {
    let mut ours: Vec<(u64, (u64, u64))> = Vec::new();
    let mut theirs: Vec<(u64, (u64, u64))> = Vec::new();
    for (&lsn, &pd) in primary.range(..=hi) {
        if let Some(&rd) = replica.get(&lsn) {
            ours.push((lsn, pd));
            theirs.push((lsn, rd));
        }
    }
    let n = ours.len();
    let mut probes = 0u64;
    let mut agree_prefix = |m: usize| {
        probes += 1;
        range_digest(&ours[..m]) == range_digest(&theirs[..m])
    };
    if n == 0 {
        return LadderOutcome::default();
    }
    if agree_prefix(n) {
        return LadderOutcome { agreed: ours[n - 1].0, probes, diverged: false, compared: n };
    }
    // Invariant: the empty prefix agrees, the full prefix does not.
    let (mut lo, mut hi_i) = (0usize, n);
    while hi_i - lo > 1 {
        let mid = lo + (hi_i - lo) / 2;
        if agree_prefix(mid) {
            lo = mid;
        } else {
            hi_i = mid;
        }
    }
    let agreed = if lo == 0 { 0 } else { ours[lo - 1].0 };
    LadderOutcome { agreed, probes, diverged: true, compared: n }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(pairs: &[(u64, u64)]) -> BTreeMap<u64, (u64, u64)> {
        pairs.iter().map(|&(l, d)| (l, (d, d.wrapping_mul(7)))).collect()
    }

    #[test]
    fn identical_chains_agree_at_the_top_in_one_probe() {
        let a = chain(&[(1, 10), (2, 20), (3, 30)]);
        let out = last_agreed(&a, &a, 3);
        assert!(!out.diverged);
        assert_eq!(out.agreed, 3);
        assert_eq!(out.probes, 1);
    }

    #[test]
    fn divergence_midway_is_located_exactly() {
        let a = chain(&[(1, 10), (2, 20), (3, 30), (4, 40), (5, 50)]);
        let mut b = a.clone();
        b.insert(4, (99, 99)); // diverges at 4
        b.insert(5, (98, 98));
        let out = last_agreed(&a, &b, 5);
        assert!(out.diverged);
        assert_eq!(out.agreed, 3);
    }

    #[test]
    fn divergence_at_the_first_entry_agrees_nowhere() {
        let a = chain(&[(1, 10), (2, 20)]);
        let b = chain(&[(1, 11), (2, 21)]);
        let out = last_agreed(&a, &b, 2);
        assert!(out.diverged);
        assert_eq!(out.agreed, 0);
    }

    #[test]
    fn comparison_is_restricted_to_the_common_domain() {
        // The replica skipped 1..=3 via a checkpoint transfer; only 4..=6
        // are comparable, and they agree.
        let a = chain(&[(1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60)]);
        let b = chain(&[(4, 40), (5, 50), (6, 60)]);
        let out = last_agreed(&a, &b, 6);
        assert!(!out.diverged);
        assert_eq!(out.agreed, 6);
        assert_eq!(out.compared, 3);
    }

    #[test]
    fn hi_bound_truncates_the_search() {
        let a = chain(&[(1, 10), (2, 20), (3, 30)]);
        let mut b = a.clone();
        b.insert(3, (99, 99));
        let out = last_agreed(&a, &b, 2);
        assert!(!out.diverged, "divergence past hi is out of scope");
        assert_eq!(out.agreed, 2);
    }

    #[test]
    fn probe_count_is_logarithmic() {
        let n = 1024u64;
        let a: BTreeMap<u64, (u64, u64)> = (1..=n).map(|l| (l, (l, 0))).collect();
        let mut b = a.clone();
        for l in 700..=n {
            b.insert(l, (0xDEAD, 0xBEEF));
        }
        let out = last_agreed(&a, &b, n);
        assert_eq!(out.agreed, 699);
        assert!(out.probes <= 12, "{} probes for n=1024", out.probes);
    }

    #[test]
    fn empty_common_domain_is_not_divergence() {
        let a = chain(&[(1, 10)]);
        let b = chain(&[(2, 20)]);
        let out = last_agreed(&a, &b, 10);
        assert!(!out.diverged);
        assert_eq!(out.agreed, 0);
        assert_eq!(out.compared, 0);
    }
}
