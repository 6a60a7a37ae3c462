//! The checksummed envelope of segments, checkpoint transfers,
//! checkpoint images and bundle manifests:
//! `magic(8) | u32 crc32c(body), little-endian | body`. The checksum
//! covers the body and the magic is compared byte for byte, so a flip
//! anywhere in the image is caught before the body is parsed.

use crate::{crc32c, CodecError};

const HEADER_BYTES: usize = 12;

/// Wrap `body` under `magic`.
pub fn seal(magic: &[u8; 8], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + body.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&crc32c(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Check `bytes` is a `magic` envelope with an intact body; return the
/// body.
pub fn open<'a>(magic: &[u8; 8], bytes: &'a [u8]) -> Result<&'a [u8], CodecError> {
    if bytes.len() < HEADER_BYTES || &bytes[..8] != magic {
        return Err(CodecError::BadMagic);
    }
    let stored = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    let body = &bytes[HEADER_BYTES..];
    if crc32c(body) != stored {
        return Err(CodecError::Checksum);
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"NEBTEST1";

    #[test]
    fn round_trips_including_the_empty_body() {
        for body in [&b""[..], b"x", b"a longer body with some bytes in it"] {
            let sealed = seal(MAGIC, body);
            assert_eq!(sealed.len(), HEADER_BYTES + body.len());
            assert_eq!(open(MAGIC, &sealed), Ok(body));
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let sealed = seal(MAGIC, b"watermark, lengths, snapshots");
        for bit in 0..sealed.len() * 8 {
            let mut bad = sealed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let want = if bit < 64 { CodecError::BadMagic } else { CodecError::Checksum };
            assert_eq!(open(MAGIC, &bad), Err(want), "flip of bit {bit}");
        }
    }

    #[test]
    fn wrong_magic_and_short_input_are_typed() {
        let sealed = seal(MAGIC, b"body");
        assert_eq!(open(b"NEBOTHER", &sealed), Err(CodecError::BadMagic));
        for cut in 0..HEADER_BYTES {
            assert_eq!(open(MAGIC, &sealed[..cut]), Err(CodecError::BadMagic), "cut at {cut}");
        }
        // A cut inside the body keeps the header but not the checksum.
        assert_eq!(open(MAGIC, &sealed[..sealed.len() - 1]), Err(CodecError::Checksum));
    }
}
