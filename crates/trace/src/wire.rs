//! Wire primitives: a bounds-checked cursor over untrusted bytes.
//!
//! Every integer in a trace is fixed-width little-endian, so a read is a
//! length check and a copy. A record is taken whole — one check for all
//! its fields — and its fields are then read at offsets the record's
//! width already covers.

use crate::error::TraceError;

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

    /// Takes the next `N` bytes as an array: one length check, after
    /// which every read inside it is at a constant offset.
    #[inline(always)]
    pub(crate) fn array<const N: usize>(&mut self) -> Result<&'a [u8; N], TraceError> {
        match self.bytes[self.pos..].first_chunk::<N>() {
            Some(chunk) => {
                self.pos += N;
                Ok(chunk)
            }
            None => Err(self.truncated()),
        }
    }

    #[inline]
    pub(crate) fn u8(&mut self) -> Result<u8, TraceError> {
        self.array::<1>().map(|b| b[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, TraceError> {
        self.array().copied().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, TraceError> {
        self.array().copied().map(u64::from_le_bytes)
    }

    /// A `u32` count or length, as a `usize`.
    pub(crate) fn count(&mut self) -> Result<usize, TraceError> {
        // Lossless: every target this builds for has a `usize` of at
        // least 32 bits.
        self.u32().map(|n| n as usize)
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
    fn cursor_reads_are_bounds_checked() {
        let mut cur = Cursor::new(&[1, 2, 3]);
        assert_eq!(cur.take(2).unwrap(), &[1, 2]);
        assert!(matches!(
            cur.take(2),
            Err(TraceError::Truncated { offset: 3 })
        ));
        // A fixed-width field the input ends inside: nothing is consumed.
        let mut cur = Cursor::new(&[1, 0, 0, 0, 9, 9, 9]);
        assert_eq!(cur.u32().unwrap(), 1);
        assert!(matches!(
            cur.u64(),
            Err(TraceError::Truncated { offset: 7 })
        ));
        assert_eq!(cur.pos(), 4);
        assert!(matches!(
            cur.array::<4>(),
            Err(TraceError::Truncated { offset: 7 })
        ));
        assert_eq!(cur.array::<3>().unwrap(), &[9, 9, 9]);
        assert!(matches!(cur.u8(), Err(TraceError::Truncated { offset: 7 })));
    }

    #[test]
    fn integers_are_little_endian() {
        let bytes = [
            0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c,
        ];
        let mut cur = Cursor::new(&bytes);
        assert_eq!(cur.u32().unwrap(), 0x0403_0201);
        assert_eq!(cur.u64().unwrap(), 0x0c0b_0a09_0807_0605);
        assert_eq!(cur.remaining(), 0);
    }
}
