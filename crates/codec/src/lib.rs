//! # nebula-codec — the byte-level substrate
//!
//! What the on-disk and on-wire formats of this workspace share, said
//! once and depending on nothing: the [`mod@crc32c`] checksum (with the two
//! linear helpers page repair walks with), the [`mod@fnv1a`] hash behind slot
//! routing and span ids, the additive [`MultisetHash`] the two stores keep
//! as their running state digests, the `magic | crc32c(body) | body`
//! [`envelope`], and the bounds-checked little-endian [`Reader`] /
//! [`Writer`] every format body is parsed and written with. Each format's
//! owner keeps its layout and its error type; a [`CodecError`] converts
//! into it with `From`.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(missing_docs)]

pub mod crc32c;
pub mod envelope;
pub mod fnv1a;
mod io;
mod multiset;

pub use crc32c::crc32c;
pub use fnv1a::fnv1a;
pub use io::{Reader, Writer};
pub use multiset::MultisetHash;

use std::fmt;

/// Why bytes failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended while reading the named field.
    Truncated(&'static str),
    /// The named string field is not valid UTF-8.
    BadUtf8(&'static str),
    /// The named presence flag is neither 0 nor 1.
    BadFlag(&'static str, u8),
    /// This many bytes follow the last field.
    Trailing(usize),
    /// Not this envelope: too short for a header, or another magic.
    BadMagic,
    /// The envelope body does not match its stored CRC32C.
    Checksum,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated(what) => write!(f, "truncated while reading {what}"),
            CodecError::BadUtf8(what) => write!(f, "{what} is not valid UTF-8"),
            CodecError::BadFlag(what, flag) => write!(f, "bad {what} presence flag {flag}"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes"),
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::Checksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for CodecError {}
