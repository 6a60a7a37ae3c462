//! 64-bit FNV-1a: stable across runs, platforms, and releases, which is
//! why slot routing, span ids, and state digests are built on it.

/// The offset basis: the seed of a fresh hash.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into `seed`. Start from [`OFFSET`]; feed a previous
/// result back in to hash several fields as one byte string.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = seed;
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // From the FNV reference distribution (Fowler/Noll/Vo).
        assert_eq!(fnv1a(OFFSET, b""), OFFSET);
        assert_eq!(fnv1a(OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn chaining_equals_concatenation() {
        assert_eq!(fnv1a(fnv1a(OFFSET, b"foo"), b"bar"), fnv1a(OFFSET, b"foobar"));
    }
}
