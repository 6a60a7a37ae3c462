//! The fixed-size page format.
//!
//! Every page is [`PAGE_SIZE`] bytes with a 24-byte header:
//!
//! ```text
//! [0..4)    u32  crc32c of bytes [4..PAGE_SIZE)
//! [4..12)   u64  page LSN (mutation watermark when last dirtied)
//! [12..13)  u8   page type (1 = file header, 2 = heap)
//! [13..14)  u8   flags (reserved, zero)
//! [14..16)  u16  slot count (heap pages)
//! [16..18)  u16  free offset (start of the contiguous free tail)
//! [18..24)       reserved, zero
//! ```
//!
//! Page 0 is the **file header page**: its payload carries the magic
//! `NEBPAGE1`, a format version, the page size, the page count, and the
//! durable LSN watermark. Everything is little-endian. Decoders are
//! hostile-byte safe: every field is bounds-checked and no length read
//! from the page is trusted before validation.

use crate::PageStoreError;
use nebula_codec::crc32c;

/// Page size in bytes. Fixed for the format's first version.
pub const PAGE_SIZE: usize = 4096;

/// Header bytes at the start of every page.
pub const HEADER_SIZE: usize = 24;

/// Payload bytes available to the slotted layout.
pub const PAYLOAD_SIZE: usize = PAGE_SIZE - HEADER_SIZE;

/// Magic at the start of the file-header page's payload.
pub const MAGIC: &[u8; 8] = b"NEBPAGE1";

/// Format version written by this crate.
pub const VERSION: u32 = 1;

/// Page type tag: the file-header page (page 0).
pub const TYPE_HEADER: u8 = 1;

/// Page type tag: a slotted heap page.
pub const TYPE_HEAP: u8 = 2;

/// One page's bytes, boxed to keep frames off the stack.
pub type PageBuf = Box<[u8; PAGE_SIZE]>;

/// A zeroed page.
pub fn zeroed() -> PageBuf {
    Box::new([0u8; PAGE_SIZE])
}

/// Read the page LSN field.
pub fn lsn(page: &[u8; PAGE_SIZE]) -> u64 {
    u64::from_le_bytes(page[4..12].try_into().expect("fixed slice"))
}

/// Stamp the page LSN field (the CRC must be resealed afterwards).
pub fn set_lsn(page: &mut [u8; PAGE_SIZE], lsn: u64) {
    page[4..12].copy_from_slice(&lsn.to_le_bytes());
}

/// Read the page type tag.
pub fn page_type(page: &[u8; PAGE_SIZE]) -> u8 {
    page[12]
}

/// Set the page type tag (the CRC must be resealed afterwards).
pub fn set_page_type(page: &mut [u8; PAGE_SIZE], ty: u8) {
    page[12] = ty;
}

/// Recompute and store the page CRC. Call after any mutation, before the
/// page reaches disk.
pub fn seal(page: &mut [u8; PAGE_SIZE]) {
    let crc = crc32c(&page[4..]);
    page[0..4].copy_from_slice(&crc.to_le_bytes());
}

/// Verify the page CRC.
pub fn verify(page: &[u8; PAGE_SIZE]) -> bool {
    let stored = u32::from_le_bytes(page[0..4].try_into().expect("fixed slice"));
    crc32c(&page[4..]) == stored
}

/// Attempt to correct a **single** flipped bit anywhere in the page —
/// payload or the stored CRC itself — using CRC linearity: the XOR
/// difference between the stored and computed checksums uniquely
/// identifies a one-bit error position in O(page) (no brute-force
/// re-hashing). Returns the corrected absolute bit index, or `None` when
/// the page is clean or the damage is wider than one bit.
pub fn correct_single_bit(page: &mut [u8; PAGE_SIZE]) -> Option<usize> {
    let stored = u32::from_le_bytes(page[0..4].try_into().expect("fixed slice"));
    let computed = crc32c(&page[4..]);
    let diff = stored ^ computed;
    if diff == 0 {
        return None;
    }
    // One bit of difference in the checksum field itself: the payload is
    // fine, the stored CRC rotted.
    if diff.count_ones() == 1 {
        let bit = diff.trailing_zeros() as usize;
        page[bit / 8] ^= 1 << (bit % 8);
        return Some(bit);
    }
    // Walk the single-bit error signature backwards from the last payload
    // byte; the position whose signature matches `diff` is the culprit.
    let payload_len = PAGE_SIZE - 4;
    let mut effects: [u32; 8] = std::array::from_fn(crc32c::bit_seed);
    for i in (0..payload_len).rev() {
        for (b, effect) in effects.iter().enumerate() {
            if *effect == diff {
                let byte = 4 + i;
                page[byte] ^= 1 << b;
                debug_assert!(verify(page), "corrected page must verify");
                return Some(byte * 8 + b);
            }
        }
        for effect in &mut effects {
            *effect = crc32c::advance_zero(*effect);
        }
    }
    None
}

/// Build the file-header page for the given page count and watermark.
pub fn encode_header_page(page_count: u32, watermark: u64) -> PageBuf {
    let mut page = zeroed();
    set_page_type(&mut page, TYPE_HEADER);
    let p = HEADER_SIZE;
    page[p..p + 8].copy_from_slice(MAGIC);
    page[p + 8..p + 12].copy_from_slice(&VERSION.to_le_bytes());
    page[p + 12..p + 16].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
    page[p + 16..p + 20].copy_from_slice(&page_count.to_le_bytes());
    page[p + 20..p + 28].copy_from_slice(&watermark.to_le_bytes());
    seal(&mut page);
    page
}

/// Decode and validate the file-header page, returning
/// `(page_count, watermark)`.
pub fn decode_header_page(page: &[u8; PAGE_SIZE]) -> Result<(u32, u64), PageStoreError> {
    if !verify(page) {
        return Err(PageStoreError::Corrupt("file header page checksum mismatch".into()));
    }
    if page_type(page) != TYPE_HEADER {
        return Err(PageStoreError::Corrupt(format!(
            "page 0 has type {} (expected file header)",
            page_type(page)
        )));
    }
    let p = HEADER_SIZE;
    if &page[p..p + 8] != MAGIC {
        return Err(PageStoreError::Corrupt("not a nebula page file (bad magic)".into()));
    }
    let version = u32::from_le_bytes(page[p + 8..p + 12].try_into().expect("fixed slice"));
    if version != VERSION {
        return Err(PageStoreError::Corrupt(format!(
            "unsupported page format version {version} (this build reads {VERSION})"
        )));
    }
    let size = u32::from_le_bytes(page[p + 12..p + 16].try_into().expect("fixed slice"));
    if size as usize != PAGE_SIZE {
        return Err(PageStoreError::Corrupt(format!(
            "page size {size} differs from compiled {PAGE_SIZE}"
        )));
    }
    let page_count = u32::from_le_bytes(page[p + 16..p + 20].try_into().expect("fixed slice"));
    let watermark = u64::from_le_bytes(page[p + 20..p + 28].try_into().expect("fixed slice"));
    Ok((page_count, watermark))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_page_roundtrips() {
        let page = encode_header_page(17, 0xfeed);
        assert!(verify(&page));
        assert_eq!(decode_header_page(&page).unwrap(), (17, 0xfeed));
    }

    #[test]
    fn seal_and_verify_catch_every_bit_flip_in_a_sample() {
        let mut page = encode_header_page(3, 9);
        for bit in [0usize, 40, 4095 * 8 + 7, 12345] {
            let byte = bit / 8;
            page[byte] ^= 1 << (bit % 8);
            assert!(!verify(&page), "flip at bit {bit} undetected");
            page[byte] ^= 1 << (bit % 8);
            assert!(verify(&page));
        }
    }

    #[test]
    fn hostile_header_pages_rejected_cleanly() {
        let mut page = zeroed();
        assert!(decode_header_page(&page).is_err(), "zeroed page");
        // Sealed but wrong type/magic/version still rejected.
        set_page_type(&mut page, TYPE_HEAP);
        seal(&mut page);
        assert!(decode_header_page(&page).is_err());
        let mut page = encode_header_page(1, 0);
        page[HEADER_SIZE + 8] = 99; // version
        seal(&mut page);
        assert!(decode_header_page(&page).is_err());
    }

    #[test]
    fn single_bit_rot_is_corrected_exactly() {
        let clean = encode_header_page(5, 99);
        // Every region: payload start, middle, last byte, and the stored
        // CRC field itself.
        for bit in [32usize, 40, 777, 2048 * 8 + 3, PAGE_SIZE * 8 - 1, 0, 17, 31] {
            let mut page = clean.clone();
            page[bit / 8] ^= 1 << (bit % 8);
            assert!(!verify(&page), "bit {bit} flip must be detected");
            let fixed = correct_single_bit(&mut page).expect("one-bit rot is correctable");
            assert_eq!(fixed, bit, "corrector must name the exact bit");
            assert!(verify(&page));
            assert_eq!(page[..], clean[..], "byte-identical after correction");
        }
        // Two-bit damage in the payload is beyond a 1-bit corrector.
        let mut page = clean.clone();
        page[100] ^= 1;
        page[2000] ^= 8;
        assert!(correct_single_bit(&mut page).is_none());
        // A clean page is left alone.
        let mut page = clean.clone();
        assert!(correct_single_bit(&mut page).is_none());
        assert_eq!(page[..], clean[..]);
    }

    #[test]
    fn lsn_roundtrips() {
        let mut page = zeroed();
        set_lsn(&mut page, u64::MAX - 3);
        assert_eq!(lsn(&page), u64::MAX - 3);
    }
}
