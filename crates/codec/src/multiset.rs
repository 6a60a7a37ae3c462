//! An additive multiset hash (MSet-Add-Hash, Clarke et al., *Incremental
//! Multiset Hash Functions*, ASIACRYPT 2003): the wrapping `u64` sum of one
//! hash per element. Adding or removing an element is O(1) and the value
//! does not depend on the order elements arrived in, so the owner of a
//! state can keep it current as the state changes instead of re-encoding
//! the whole state to compare two copies.
//!
//! An element is its owner's encoding of one record, kind tag first. Its
//! hash is [`fnv1a`](crate::fnv1a()) over those bytes, finished with
//! splitmix64's finalizer: FNV-1a ends in a multiply, so its low output
//! bits depend only on low input bits, and a sum would carry that
//! weakness into every bit of the digest. A sum and not a XOR, because two
//! equal elements must not cancel. This is a witness against accidental
//! divergence between copies of one history, not a cryptographic MAC.

use crate::fnv1a::{fnv1a, OFFSET};

/// The running multiset hash of a state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MultisetHash(u64);

impl MultisetHash {
    /// Add one element, given as its encoded bytes.
    pub fn insert(&mut self, element: &[u8]) {
        self.0 = self.0.wrapping_add(element_hash(element));
    }

    /// Remove one element previously inserted with the same bytes.
    pub fn remove(&mut self, element: &[u8]) {
        self.0 = self.0.wrapping_sub(element_hash(element));
    }

    /// The digest: the sum of every element currently in the multiset
    /// (0 for the empty one).
    pub fn value(self) -> u64 {
        self.0
    }
}

fn element_hash(bytes: &[u8]) -> u64 {
    let mut z = fnv1a(OFFSET, bytes);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(elements: &[&[u8]]) -> MultisetHash {
        let mut h = MultisetHash::default();
        for e in elements {
            h.insert(e);
        }
        h
    }

    #[test]
    fn order_does_not_matter_and_removal_undoes_insertion() {
        assert_eq!(of(&[b"a", b"b", b"c"]), of(&[b"c", b"a", b"b"]));
        let mut h = of(&[b"a", b"b"]);
        h.remove(b"b");
        assert_eq!(h, of(&[b"a"]));
        h.remove(b"a");
        assert_eq!(h.value(), 0);
    }

    #[test]
    fn duplicates_count_and_distinct_contents_differ() {
        assert_ne!(of(&[b"a", b"a"]), MultisetHash::default(), "equal elements must not cancel");
        assert_ne!(of(&[b"a", b"a"]), of(&[b"a"]));
        assert_ne!(of(&[b"ab"]), of(&[b"a", b"b"]));
        assert_ne!(of(&[b"\x00\x01"]), of(&[b"\x01\x00"]));
    }
}
