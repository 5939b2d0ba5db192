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
///
/// The happy paths are small enough to inline into the record decoder;
/// every error is built out of line, in a `#[cold]` function, so a read
/// that succeeds never touches a `TraceError`.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// The most bytes an LEB128 `u64` takes.
const MAX_VARINT_BYTES: usize = 10;

/// Decodes the LEB128 varint at the head of `bytes` into its value and
/// length. A length of 0 says there is none: the input ends inside it or
/// it runs past ten bytes ([`Cursor::varint_error`] tells which).
#[inline(always)]
fn varint_prefix(bytes: &[u8]) -> (u64, usize) {
    let mut v: u64 = 0;
    for (i, &byte) in bytes.iter().take(MAX_VARINT_BYTES).enumerate() {
        v |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            return (v, i + 1);
        }
    }
    (0, 0)
}

/// [`varint_prefix`], out of line for the varints longer than a byte.
/// With ten bytes of input left — everywhere but a trace's last few bytes
/// — the loop runs over a fixed-size window and checks no bound.
fn varint_multi(rest: &[u8]) -> (u64, usize) {
    match rest.first_chunk::<MAX_VARINT_BYTES>() {
        Some(window) => varint_prefix(window),
        None => varint_prefix(rest),
    }
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// A cursor over `bytes` that starts reading at `pos`; offsets in
    /// errors stay offsets into `bytes`.
    pub(crate) fn at(bytes: &'a [u8], pos: usize) -> Self {
        debug_assert!(pos <= bytes.len());
        Cursor { bytes, pos }
    }

    /// Current byte offset from the start of the input.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    #[cold]
    fn truncated(&self) -> TraceError {
        TraceError::Truncated {
            offset: self.bytes.len(),
        }
    }

    /// Takes the next `n` bytes, or reports where the input ended.
    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.remaining() < n {
            return Err(self.truncated());
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    #[inline]
    pub(crate) fn u8(&mut self) -> Result<u8, TraceError> {
        match self.bytes.get(self.pos) {
            Some(&byte) => {
                self.pos += 1;
                Ok(byte)
            }
            None => Err(self.truncated()),
        }
    }

    pub(crate) fn u32_le(&mut self) -> Result<u32, TraceError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads an LEB128 varint. A continuation past 10 bytes cannot encode
    /// a `u64` and is corruption, not truncation.
    #[inline]
    pub(crate) fn varint(&mut self) -> Result<u64, TraceError> {
        // Most fields of a record fit seven bits.
        if let Some(&byte) = self.bytes.get(self.pos) {
            if byte < 0x80 {
                self.pos += 1;
                return Ok(byte.into());
            }
        }
        let (v, len) = varint_multi(&self.bytes[self.pos..]);
        if len == 0 {
            return Err(self.varint_error());
        }
        self.pos += len;
        Ok(v)
    }

    /// Why no varint could be read at the cursor: the input ends inside
    /// it, or it is an eleventh continuation byte long.
    #[cold]
    fn varint_error(&self) -> TraceError {
        let rest = &self.bytes[self.pos..];
        if rest.len() < MAX_VARINT_BYTES {
            return self.truncated();
        }
        TraceError::Corrupt {
            offset: self.pos + MAX_VARINT_BYTES,
            what: "varint longer than 10 bytes".into(),
        }
    }

    /// A varint that must fit the platform `usize` (lengths, counts).
    #[inline]
    pub(crate) fn varint_usize(&mut self) -> Result<usize, TraceError> {
        let v = self.varint()?;
        usize::try_from(v)
            .map_err(|_| corrupt(self.pos, format_args!("count {v} does not fit usize")))
    }
}

/// [`TraceError::Corrupt`], built out of line: the decoder's checks
/// compile to a compare and a branch to here.
#[cold]
#[inline(never)]
pub(crate) fn corrupt(offset: usize, what: std::fmt::Arguments<'_>) -> TraceError {
    TraceError::Corrupt {
        offset,
        what: what.to_string(),
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
            // Nine bytes: read from the tail of the input, where no
            // ten-byte window fits.
            1 << 62,
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
        assert!(matches!(
            cur.varint(),
            Err(TraceError::Corrupt { offset: 10, .. })
        ));
        // Nine continuation bytes and nothing after: the input ended first.
        let mut cur = Cursor::new(&overlong[..9]);
        assert!(matches!(
            cur.varint(),
            Err(TraceError::Truncated { offset: 9 })
        ));
    }
}
