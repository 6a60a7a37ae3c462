//! CRC32C (Castagnoli), table-driven, the table built at compile time.
//! Preferred over CRC32 (IEEE) for storage because its polynomial detects
//! more of the short-burst errors torn writes produce; it is the checksum
//! of iSCSI, ext4, and RocksDB logs.

/// The reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Continue a CRC32C over more data (`seed` is a previous `crc32c` result).
pub fn crc32c_append(seed: u32, data: &[u8]) -> u32 {
    let mut crc = !seed;
    for &b in data {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The CRC contribution of a lone error byte `1 << bit` with nothing
/// after it (zero initial state, no final inversion). CRC is affine, so
/// `crc(data ⊕ e) ⊕ crc(data)` equals the pure-linear CRC of the error
/// pattern `e` — the init and final inversions cancel under XOR. This
/// seed plus [`advance_zero`] walks that contribution backwards through
/// a page, which is what makes single-bit rot correctable in O(page).
#[inline]
pub fn bit_seed(bit: usize) -> u32 {
    TABLE[1usize << bit]
}

/// Advance a pure-linear CRC state through one zero byte.
#[inline]
pub fn advance_zero(state: u32) -> u32 {
    TABLE[(state & 0xFF) as usize] ^ (state >> 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc3720_vectors() {
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        let descending: Vec<u8> = (0..32).rev().collect();
        assert_eq!(crc32c(&descending), 0x113F_DB5C);
    }

    #[test]
    fn append_matches_one_shot_at_every_split() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32c_append(crc32c(a), b), crc32c(data), "split at {cut}");
        }
    }

    #[test]
    fn linear_helpers_predict_every_single_bit_flip() {
        // The signature of a flip in the last byte is `bit_seed`; each
        // byte further from the end advances it through one zero byte.
        let data = b"nebula page payload";
        let base = crc32c(data);
        let mut effects: [u32; 8] = std::array::from_fn(bit_seed);
        for byte in (0..data.len()).rev() {
            for (bit, effect) in effects.iter().enumerate() {
                let mut copy = data.to_vec();
                copy[byte] ^= 1 << bit;
                assert_eq!(crc32c(&copy) ^ base, *effect, "flip at {byte}:{bit}");
                assert_ne!(*effect, 0);
            }
            effects = effects.map(advance_zero);
        }
    }
}
