//! The little-endian field codec. A [`Reader`] checks every length
//! against the input that is actually left before it reads or allocates.
//! Strings are `u32 len | UTF-8`; optional strings sit behind a one-byte
//! presence flag; tuple ids are `u32 table | u64 row`; floats travel as
//! their bit pattern, so NaN payloads survive.

use crate::CodecError;

/// Appends little-endian fields to the byte vector it wraps.
#[derive(Debug, Default)]
pub struct Writer(pub Vec<u8>);

/// One appender per fixed-width little-endian number type.
macro_rules! put_le {
    ($($ty:ident),*) => {$(
        #[doc = concat!("Append one `", stringify!($ty), "`.")]
        pub fn $ty(&mut self, v: $ty) {
            self.bytes(&v.to_le_bytes());
        }
    )*};
}

impl Writer {
    put_le!(u8, u16, u32, u64, f64);

    /// Append raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// Append a length-prefixed string.
    pub fn string(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("a string field stays under 4 GiB"));
        self.bytes(s.as_bytes());
    }

    /// Append an optional string behind its presence flag.
    pub fn opt_string(&mut self, s: Option<&str>) {
        self.u8(u8::from(s.is_some()));
        if let Some(s) = s {
            self.string(s);
        }
    }

    /// Append a tuple id.
    pub fn tuple_id(&mut self, table: u32, row: u64) {
        self.u32(table);
        self.u64(row);
    }
}

/// Reads little-endian fields off the front of a byte slice. Every
/// method names the field it reads (`what`) so a truncation says where.
#[derive(Debug, Clone)]
pub struct Reader<'a>(&'a [u8]);

/// One reader per fixed-width little-endian number type.
macro_rules! get_le {
    ($($ty:ident),*) => {$(
        #[doc = concat!("Read one `", stringify!($ty), "`.")]
        pub fn $ty(&mut self, what: &'static str) -> Result<$ty, CodecError> {
            let raw = self.bytes(what, size_of::<$ty>())?;
            Ok($ty::from_le_bytes(raw.try_into().expect("bytes() returns the length asked for")))
        }
    )*};
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader(bytes)
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.0.len()
    }

    /// Take the next `n` bytes.
    pub fn bytes(&mut self, what: &'static str, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(CodecError::Truncated(what))?;
        self.0 = rest;
        Ok(head)
    }

    /// Take everything that is left.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.0)
    }

    get_le!(u8, u16, u32, u64, f64);

    /// Read a length-prefixed string; nothing is allocated until the
    /// length is known to fit the remaining input.
    pub fn string(&mut self, what: &'static str) -> Result<String, CodecError> {
        let len = self.u32(what)? as usize;
        let raw = self.bytes(what, len)?;
        std::str::from_utf8(raw).map(str::to_owned).map_err(|_| CodecError::BadUtf8(what))
    }

    /// Read an optional string behind its presence flag.
    pub fn opt_string(&mut self, what: &'static str) -> Result<Option<String>, CodecError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => self.string(what).map(Some),
            flag => Err(CodecError::BadFlag(what, flag)),
        }
    }

    /// Read a tuple id as `(table, row)`.
    pub fn tuple_id(&mut self, what: &'static str) -> Result<(u32, u64), CodecError> {
        Ok((self.u32(what)?, self.u64(what)?))
    }

    /// Done reading: fail if any input is left.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Trailing(self.0.len()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Vec<u8> {
        let mut w = Writer::default();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(f64::from_bits(0x7FF8_0000_0000_1234));
        w.string("naïve ünïcode");
        w.opt_string(Some("alice"));
        w.opt_string(None);
        w.tuple_id(4, 99);
        w.bytes(b"tail");
        w.0
    }

    #[test]
    fn every_field_round_trips() {
        let bytes = sample();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a"), Ok(7));
        assert_eq!(r.u16("b"), Ok(0xBEEF));
        assert_eq!(r.u32("c"), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64("d"), Ok(u64::MAX - 3));
        assert_eq!(r.f64("e").map(f64::to_bits), Ok(0x7FF8_0000_0000_1234), "NaN payload kept");
        assert_eq!(r.string("f").as_deref(), Ok("naïve ünïcode"));
        assert_eq!(r.opt_string("g"), Ok(Some("alice".to_string())));
        assert_eq!(r.opt_string("h"), Ok(None));
        assert_eq!(r.tuple_id("i"), Ok((4, 99)));
        assert_eq!(r.clone().finish(), Err(CodecError::Trailing(4)));
        assert_eq!(r.rest(), b"tail");
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn layout_is_little_endian_and_length_prefixed() {
        let mut w = Writer::default();
        w.u32(1);
        w.string("ab");
        w.tuple_id(2, 3);
        assert_eq!(w.0, [1, 0, 0, 0, 2, 0, 0, 0, b'a', b'b', 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn every_truncation_names_a_field_and_reads_nothing_past_the_end() {
        let bytes = sample();
        for cut in 0..bytes.len() - 4 {
            let mut r = Reader::new(&bytes[..cut]);
            let all = (|| {
                r.u8("a")?;
                r.u16("b")?;
                r.u32("c")?;
                r.u64("d")?;
                r.f64("e")?;
                r.string("f")?;
                r.opt_string("g")?;
                r.opt_string("h")?;
                r.tuple_id("i")
            })();
            assert!(matches!(all, Err(CodecError::Truncated(_))), "cut at {cut}: {all:?}");
        }
    }

    #[test]
    fn hostile_lengths_flags_and_utf8_are_typed_errors() {
        // A 4 GiB length prefix in front of three bytes.
        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3]);
        assert_eq!(r.string("text"), Err(CodecError::Truncated("text")));
        assert_eq!(Reader::new(&[2]).opt_string("author"), Err(CodecError::BadFlag("author", 2)));
        assert_eq!(
            Reader::new(&[2, 0, 0, 0, 0xC3, 0x28]).string("kind"),
            Err(CodecError::BadUtf8("kind"))
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes driven through an arbitrary sequence of reads
        /// never panic, never move the cursor backwards, and never
        /// allocate more than the input that was left before the read —
        /// whatever a length prefix claims.
        #[test]
        fn hostile_bytes_never_panic_or_over_allocate(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            ops in proptest::collection::vec(0u8..9, 0..24),
        ) {
            let mut r = Reader::new(&bytes);
            for op in ops {
                let before = r.remaining();
                let allocated = match op {
                    0 => r.u8("f").map(|_| 0),
                    1 => r.u16("f").map(|_| 0),
                    2 => r.u32("f").map(|_| 0),
                    3 => r.u64("f").map(|_| 0),
                    4 => r.f64("f").map(|_| 0),
                    5 => r.tuple_id("f").map(|_| 0),
                    6 => r.string("f").map(|s| s.capacity()),
                    7 => r.opt_string("f").map(|s| s.map_or(0, |s| s.capacity())),
                    _ => r.bytes("f", bytes.len() / 3).map(|_| 0),
                };
                prop_assert!(r.remaining() <= before);
                if let Ok(n) = allocated {
                    prop_assert!(n <= before, "allocated {n} with {before} bytes left");
                }
            }
            let left = r.remaining();
            prop_assert_eq!(r.finish().is_ok(), left == 0);
        }
    }
}
