//! Wire primitives: LEB128 varints, zigzag deltas, and a bounds-checked
//! cursor.
//!
//! Everything multi-byte in a trace is either a fixed-width
//! little-endian header field or an LEB128 varint; signed deltas (the
//! timestamp and launch-id streams) ride as zigzag-mapped varints so
//! small magnitudes of either sign stay one byte. Delta arithmetic is
//! *wrapping* in both directions, which makes the round trip lossless for
//! arbitrary `u64` values — including the non-monotone timestamps a
//! multi-shard capture interleaves.

use crate::error::TraceError;

/// Hands `put` the LEB128 bytes of `v` (1–10), low group first.
fn leb128(mut v: u64, mut put: impl FnMut(u8)) {
    while v >= 0x80 {
        put(v as u8 | 0x80);
        v >>= 7;
    }
    put(v as u8);
}

/// Appends `v` as an LEB128 varint (1–10 bytes).
pub(crate) fn put_varint(buf: &mut Vec<u8>, v: u64) {
    leb128(v, |byte| buf.push(byte));
}

/// A record of at most `N` bytes built on the stack, for the caller to
/// append in one copy: the buffer it goes to checks its capacity once per
/// record, not once per byte.
pub(crate) struct Scratch<const N: usize> {
    bytes: [u8; N],
    len: usize,
}

impl<const N: usize> Scratch<N> {
    pub(crate) fn new() -> Self {
        Scratch {
            bytes: [0; N],
            len: 0,
        }
    }

    pub(crate) fn byte(&mut self, byte: u8) {
        self.bytes[self.len] = byte;
        self.len += 1;
    }

    /// [`put_varint`] into the scratch.
    pub(crate) fn varint(&mut self, v: u64) {
        leb128(v, |byte| self.byte(byte));
    }

    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Bytes [`put_varint`] writes for `v`: one per started group of seven
/// significant bits.
pub(crate) fn varint_len(v: u64) -> usize {
    (u64::BITS - (v | 1).leading_zeros()).div_ceil(7) as usize
}

/// Maps a signed delta onto the unsigned varint space: 0, -1, 1, -2, …
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A bounds-checked reading position over an untrusted byte slice. Every
/// read either yields bytes or a typed [`TraceError`] carrying the offset
/// where input ran out — never a panic, never an out-of-bounds slice.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Current byte offset from the start of the input.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `n` bytes, or reports where the input ended.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.remaining() < n {
            return Err(TraceError::Truncated {
                offset: self.bytes.len(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32_le(&mut self) -> Result<u32, TraceError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads an LEB128 varint. A continuation past 10 bytes cannot encode
    /// a `u64` and is corruption, not truncation.
    pub(crate) fn varint(&mut self) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        for i in 0..10 {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7f) << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(TraceError::Corrupt {
            offset: self.pos,
            what: "varint longer than 10 bytes".into(),
        })
    }

    /// A varint that must fit the platform `usize` (lengths, counts).
    pub(crate) fn varint_usize(&mut self) -> Result<usize, TraceError> {
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| TraceError::Corrupt {
            offset: self.pos,
            what: format!("count {v} does not fit usize"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_at_the_boundaries() {
        let cases = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in cases {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "length of {v}");
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.varint().unwrap(), v);
            assert_eq!(cur.remaining(), 0);
        }
    }

    #[test]
    fn zigzag_is_a_bijection_on_the_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456789, 123456789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn wrapping_deltas_recover_arbitrary_u64_pairs() {
        // The timestamp codec: delta = b.wrapping_sub(a) as i64, restore
        // with a.wrapping_add(delta as u64). Must hold even when the
        // "delta" spans more than i64::MAX.
        for (a, b) in [
            (0u64, u64::MAX),
            (u64::MAX, 0),
            (1 << 63, 42),
            (42, 1 << 63),
        ] {
            let delta = b.wrapping_sub(a) as i64;
            let restored = a.wrapping_add(unzigzag(zigzag(delta)) as u64);
            assert_eq!(restored, b);
        }
    }

    #[test]
    fn cursor_reads_are_bounds_checked() {
        let mut cur = Cursor::new(&[1, 2, 3]);
        assert_eq!(cur.take(2).unwrap(), &[1, 2]);
        assert!(matches!(
            cur.take(2),
            Err(TraceError::Truncated { offset: 3 })
        ));
        // A varint whose continuation bit promises more input than exists.
        let mut cur = Cursor::new(&[0x80, 0x80]);
        assert!(matches!(cur.varint(), Err(TraceError::Truncated { .. })));
        // An 11-byte continuation run is corruption, not truncation.
        let overlong = [0x80u8; 11];
        let mut cur = Cursor::new(&overlong);
        assert!(matches!(cur.varint(), Err(TraceError::Corrupt { .. })));
    }
}
