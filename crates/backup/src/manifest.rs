//! The signed bundle manifest (`NEBMAN01`).
//!
//! A bundle is only as trustworthy as the list of what it should
//! contain: the manifest names every file with its length and CRC32C
//! digest, states the restorable LSN range, and carries a keyed
//! signature over the whole body, so a tampered or bit-rotted manifest
//! is as detectable as a rotten segment. Layout:
//!
//! ```text
//! "NEBMAN01" | u32 crc32c(body) | body
//! body   = head_lsn u64 | oldest_lsn u64 | epoch u64 | created_seq u64
//!        | entry_count u32 | entries | signature u32
//! entry  = name_len u16 | name bytes | file_len u64 | file_crc u32
//! ```
//!
//! The signature is `crc32c(SIGN_KEY || body-before-signature)` — a
//! keyed MAC in miniature. Nothing here reads the wall clock:
//! `created_seq` is a caller-supplied ordinal, which keeps golden
//! bundles byte-for-byte reproducible.

use crate::BackupError;
use nebula_codec::{crc32c, envelope, Reader, Writer};

/// Magic prefix of a bundle manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"NEBMAN01";
/// File name of the manifest inside a bundle directory.
pub const MANIFEST_FILE: &str = "MANIFEST.neb";
/// The signing key mixed into the manifest MAC.
const SIGN_KEY: &[u8; 16] = b"nebula-backup-v1";

/// One file the bundle must contain, byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// File name relative to the bundle directory.
    pub name: String,
    /// Exact file length in bytes.
    pub len: u64,
    /// CRC32C of the file's bytes.
    pub crc: u32,
}

/// The decoded, signature-checked manifest of one bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackupManifest {
    /// Newest LSN the bundle can restore.
    pub head_lsn: u64,
    /// Oldest LSN the bundle can restore (the oldest base's watermark).
    pub oldest_lsn: u64,
    /// Epoch stamped on the archived frames.
    pub epoch: u64,
    /// Caller-supplied capture ordinal (no wall clock — bundles must be
    /// reproducible byte-for-byte).
    pub created_seq: u64,
    /// Every file in the bundle, sorted by name.
    pub entries: Vec<ManifestEntry>,
}

impl BackupManifest {
    /// The entry for `name`, if the manifest lists it.
    pub fn entry(&self, name: &str) -> Option<&ManifestEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Total bytes the manifest covers (manifest itself excluded).
    pub fn bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.len).sum()
    }
}

/// Encode and sign a manifest.
pub fn encode(m: &BackupManifest) -> Vec<u8> {
    let mut w = Writer::default();
    w.u64(m.head_lsn);
    w.u64(m.oldest_lsn);
    w.u64(m.epoch);
    w.u64(m.created_seq);
    w.u32(m.entries.len() as u32);
    for e in &m.entries {
        w.u16(e.name.len() as u16);
        w.bytes(e.name.as_bytes());
        w.u64(e.len);
        w.u32(e.crc);
    }
    let signature = sign(&w.0);
    w.u32(signature);
    envelope::seal(MANIFEST_MAGIC, &w.0)
}

/// Decode a manifest, checking the envelope CRC and the signature.
pub fn decode(bytes: &[u8]) -> Result<BackupManifest, BackupError> {
    let body = envelope::open(MANIFEST_MAGIC, bytes)
        .map_err(|e| BackupError::Verify(format!("bundle manifest: {e}")))?;
    let mut r = Reader::new(body);
    let head_lsn = r.u64("manifest head lsn")?;
    let oldest_lsn = r.u64("manifest oldest lsn")?;
    let epoch = r.u64("manifest epoch")?;
    let created_seq = r.u64("manifest capture ordinal")?;
    let count = r.u32("manifest entry count")? as usize;
    // Each entry costs at least its name length, file length and digest.
    let mut entries = Vec::with_capacity(count.min(r.remaining() / 14));
    for _ in 0..count {
        let name_len = usize::from(r.u16("manifest entry name length")?);
        let name = std::str::from_utf8(r.bytes("manifest entry name", name_len)?)
            .map_err(|_| BackupError::Verify("manifest entry name is not utf-8".into()))?
            .to_owned();
        let len = r.u64("manifest entry length")?;
        let crc = r.u32("manifest entry digest")?;
        entries.push(ManifestEntry { name, len, crc });
    }
    let signed = &body[..body.len() - r.remaining()];
    let signature = r.u32("manifest signature")?;
    r.finish()?;
    if sign(signed) != signature {
        return Err(BackupError::Verify("manifest signature mismatch".into()));
    }
    Ok(BackupManifest { head_lsn, oldest_lsn, epoch, created_seq, entries })
}

/// The keyed MAC over a manifest body prefix.
fn sign(body: &[u8]) -> u32 {
    let mut keyed = Vec::with_capacity(SIGN_KEY.len() + body.len());
    keyed.extend_from_slice(SIGN_KEY);
    keyed.extend_from_slice(body);
    crc32c(&keyed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BackupManifest {
        BackupManifest {
            head_lsn: 42,
            oldest_lsn: 3,
            epoch: 1,
            created_seq: 7,
            entries: vec![
                ManifestEntry { name: "base-00000000000000000003.ckpt".into(), len: 128, crc: 9 },
                ManifestEntry { name: "segment-00000000000000000004.seg".into(), len: 64, crc: 5 },
            ],
        }
    }

    #[test]
    fn round_trips() {
        let m = sample();
        let bytes = encode(&m);
        assert_eq!(decode(&bytes).unwrap(), m);
        assert_eq!(m.bytes(), 192);
        assert!(m.entry("base-00000000000000000003.ckpt").is_some());
        assert!(m.entry("nope").is_none());
    }

    #[test]
    fn any_flipped_bit_is_detected() {
        let bytes = encode(&sample());
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(decode(&bad).is_err(), "flip of bit {bit} went undetected");
        }
    }

    #[test]
    fn a_resigned_manifest_with_the_wrong_key_is_rejected() {
        // Re-encode the body with a tampered entry and a *recomputed*
        // envelope CRC: only the keyed signature catches this.
        let m = sample();
        let bytes = encode(&m);
        let mut body = bytes[12..].to_vec();
        body[0] ^= 1; // head_lsn
        let sig_at = body.len() - 4;
        // Recompute the unkeyed checksum an attacker without the key
        // would use: plain crc32c of the prefix.
        let fake_sig = crc32c(&body[..sig_at]);
        body[sig_at..].copy_from_slice(&fake_sig.to_le_bytes());
        let mut forged = Vec::new();
        forged.extend_from_slice(MANIFEST_MAGIC);
        forged.extend_from_slice(&crc32c(&body).to_le_bytes());
        forged.extend_from_slice(&body);
        let err = decode(&forged).unwrap_err();
        assert!(matches!(err, BackupError::Verify(ref msg) if msg.contains("signature")), "{err}");
    }
}
