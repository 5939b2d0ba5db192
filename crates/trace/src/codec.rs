//! The per-shard record codec (format v2; the layout table is in the
//! crate docs).
//!
//! A record is its event-table row (`pasta_core::event_table!`): the wire
//! tag, then every field in declaration order at the fixed width its Rust
//! type says ([`Field`]), so the tag fixes the width and a reader takes a
//! record with one bounds check. Only `OpStart`'s Python stack adds a
//! counted tail, and only an [`AccessBatch`] that differs from what a live
//! stream repeats (its launch is the record's, its spec index fits a
//! `u32`, its pattern is not strided) adds the 20 bytes [`FULL`] marks.
//! Encoder and decoder are both generated from the table, so a new variant
//! is one row there — and a row whose field type has no encoding here
//! does not compile.

use crate::error::TraceError;
use crate::wire::{corrupt, Cursor};
use accel_sim::{
    AccessBatch, AccessKind, AccessPattern, CopyDirection, DeviceId, Dim3, KernelTraceSummary,
    LaunchId, MemSpace, SimTime, StreamId, Symbol,
};
use dl_framework::callbacks::Pass;
use dl_framework::pycall::PyFrame;
use dl_framework::tensor::TensorId;
use pasta_core::Event;
use std::collections::HashMap;
use std::sync::Arc;

/// Set on a record's tag when its access batch is in full form.
const FULL: u8 = 0x80;

/// Bytes of one Python frame in `OpStart`'s tail.
const FRAME_BYTES: usize = 12;

/// Fieldless enums travel as one code byte.
macro_rules! code_bytes {
    ($($ty:ident { $($variant:ident = $code:literal),* })*) => {$(
        impl Field for $ty {
            const WIDTH: usize = 1;

            fn put(&self, rec: &mut Rec, _: &mut ShardEncoder) {
                rec.put([match self { $($ty::$variant => $code,)* }]);
            }

            fn get(rec: &mut Get<'_, '_>) -> Result<Self, TraceError> {
                let at = rec.offset();
                match rec.bytes() {
                    $([$code] => Ok($ty::$variant),)*
                    [b] => Err(corrupt(at, format_args!(concat!("bad ", stringify!($ty), " code {}"), b))),
                }
            }
        }
    )*};
}

code_bytes! {
    AccessKind { Load = 0, Store = 1, Atomic = 2 }
    MemSpace { Global = 0, Shared = 1, RemoteShared = 2, Local = 3 }
    CopyDirection { HostToDevice = 0, DeviceToHost = 1, DeviceToDevice = 2, HostToHost = 3 }
    Pass { Forward = 0, Backward = 1, Optimizer = 2 }
}

/// Encodes one shard's event stream into memory: the hot
/// [`ShardEncoder::encode`] path never touches the filesystem.
#[derive(Debug)]
pub(crate) struct ShardEncoder {
    pub(crate) device: DeviceId,
    /// Dictionary, in first-appearance order, for the shard header.
    symbols: Vec<String>,
    /// Content → id: Python-frame strings, and an interned name on first
    /// sight of its address, so equal names of two tables share an id.
    ids: HashMap<String, u32>,
    /// Address → id of every interned name seen: a lookup hashes one word,
    /// not the name. Interned text is immortal, so addresses stay unique.
    seen: HashMap<usize, u32>,
    /// The last `(address, id)`: a launch's events all carry its kernel's
    /// name, so a run of them hashes it once. No text lives at address 0.
    last_sym: (usize, u32),
    payload: Vec<u8>,
    pub(crate) records: u64,
}

/// A record being written, on the stack: appended in one copy.
struct Rec {
    bytes: [u8; MAX_RECORD_BYTES],
    len: usize,
    launch: u64,
    full: bool,
}

impl Rec {
    #[inline(always)]
    fn put<const N: usize>(&mut self, field: [u8; N]) {
        self.bytes[self.len..self.len + N].copy_from_slice(&field);
        self.len += N;
    }
}

impl ShardEncoder {
    pub(crate) fn new(device: DeviceId) -> Self {
        ShardEncoder {
            device,
            symbols: Vec::new(),
            ids: HashMap::new(),
            seen: HashMap::new(),
            last_sym: (0, 0),
            payload: Vec::new(),
            records: 0,
        }
    }

    /// Room for `bytes` of payload before the first record grows it.
    pub(crate) fn reserve(&mut self, bytes: usize) {
        self.payload.reserve_exact(bytes);
    }

    pub(crate) fn into_parts(self) -> (DeviceId, Vec<String>, u64, Vec<u8>) {
        (self.device, self.symbols, self.records, self.payload)
    }

    /// The id of an interned name at `addr`, through `seen`.
    #[inline(never)]
    fn seen_id(&mut self, name: &str, addr: usize) -> u32 {
        if let Some(&id) = self.seen.get(&addr) {
            return id;
        }
        let id = self.id_of(name);
        self.seen.insert(addr, id);
        id
    }

    /// The dictionary id of `s`, assigned in first-appearance order.
    fn id_of(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = u32::try_from(self.symbols.len()).expect("under 2^32 names a shard");
        self.symbols.push(s.to_owned());
        self.ids.insert(s.to_owned(), id);
        id
    }
}

/// A record being read: its bytes past the tag, which the decoder took
/// whole, not yet read, and what its fields need besides.
struct Get<'r, 'a> {
    rec: &'a [u8],
    launch: u64,
    full: bool,
    symbols: &'r [Symbol],
    /// The input after the record: where a counted tail lies.
    tail: &'r mut Cursor<'a>,
}

impl<'r, 'a> Get<'r, 'a> {
    fn new(rec: &'a [u8], full: bool, symbols: &'r [Symbol], tail: &'r mut Cursor<'a>) -> Self {
        let launch = 0;
        Get {
            rec,
            launch,
            full,
            symbols,
            tail,
        }
    }

    /// The next `N` bytes of the record. The record's width covers every
    /// field, so this never fails; at a constant offset into a record of
    /// constant width it compiles to a load.
    #[inline(always)]
    fn bytes<const N: usize>(&mut self) -> [u8; N] {
        let (field, rest) = self.rec.split_first_chunk().expect("width covers fields");
        self.rec = rest;
        *field
    }

    /// Input offset of the next field: the record ends where the tail starts.
    fn offset(&self) -> usize {
        self.tail.pos() - self.rec.len()
    }
}

/// An event field's wire encoding, picked by its Rust type: `WIDTH`
/// bytes in its record, `FULL_EXTRA` more in a full-form one.
trait Field: Sized {
    const WIDTH: usize;
    const FULL_EXTRA: usize = 0;
    fn put(&self, rec: &mut Rec, enc: &mut ShardEncoder);
    /// Writes what follows the record: a counted tail, for the one field
    /// that has one.
    fn put_tail(&self, _enc: &mut ShardEncoder) {}
    fn get(rec: &mut Get<'_, '_>) -> Result<Self, TraceError>;
}

macro_rules! int_fields {
    ($($ty:ty)*) => {$(
        impl Field for $ty {
            const WIDTH: usize = std::mem::size_of::<$ty>();

            fn put(&self, rec: &mut Rec, _: &mut ShardEncoder) {
                rec.put(self.to_le_bytes());
            }

            fn get(rec: &mut Get<'_, '_>) -> Result<Self, TraceError> {
                Ok(<$ty>::from_le_bytes(rec.bytes()))
            }
        }
    )*};
}

int_fields! { u64 u32 }

/// Structs travel as their fields, in order; newtypes as what they wrap.
macro_rules! struct_fields {
    ($($ty:ident $({ $($field:ident: $fty:ty),* })? $(($inner:ty))?)*) => {$(
        impl Field for $ty {
            const WIDTH: usize = 0 $($(+ <$fty as Field>::WIDTH)*)? $(+ <$inner as Field>::WIDTH)?;

            fn put(&self, rec: &mut Rec, enc: &mut ShardEncoder) {
                $($(self.$field.put(rec, enc);)*)?
                $(<$inner as Field>::put(&self.0, rec, enc);)?
            }

            fn get(rec: &mut Get<'_, '_>) -> Result<Self, TraceError> {
                $(Ok($ty { $($field: Field::get(rec)?),* }))?
                $(<$inner>::get(rec).map($ty))?
            }
        }
    )*};
}

struct_fields! {
    SimTime(u64)
    DeviceId(u32)
    TensorId(u64)
    Dim3 { x: u32, y: u32, z: u32 }
    KernelTraceSummary {
        global_records: u64, shared_records: u64, barriers: u64,
        blocks: u64, instructions: u64, global_bytes: u64
    }
}

/// Eight bytes, remembered as the record's launch.
impl Field for LaunchId {
    const WIDTH: usize = 8;

    fn put(&self, rec: &mut Rec, enc: &mut ShardEncoder) {
        rec.launch = self.0;
        self.0.put(rec, enc);
    }

    fn get(rec: &mut Get<'_, '_>) -> Result<Self, TraceError> {
        rec.launch = u64::get(rec)?;
        Ok(LaunchId(rec.launch))
    }
}

/// Eight bytes, checked to fit the platform `usize` on read.
impl Field for usize {
    const WIDTH: usize = 8;

    fn put(&self, rec: &mut Rec, enc: &mut ShardEncoder) {
        (*self as u64).put(rec, enc);
    }

    fn get(rec: &mut Get<'_, '_>) -> Result<Self, TraceError> {
        let at = rec.offset();
        let v = u64::get(rec)?;
        usize::try_from(v).map_err(|_| corrupt(at, format_args!("{v} does not fit usize")))
    }
}

/// Dictionary id, a `u32`.
impl Field for Symbol {
    const WIDTH: usize = 4;

    #[inline(always)]
    fn put(&self, rec: &mut Rec, enc: &mut ShardEncoder) {
        let addr = self.as_str().as_ptr() as usize;
        if addr != enc.last_sym.0 {
            enc.last_sym = (addr, enc.seen_id(self, addr));
        }
        rec.put(enc.last_sym.1.to_le_bytes());
    }

    fn get(rec: &mut Get<'_, '_>) -> Result<Self, TraceError> {
        let at = rec.offset();
        let id = u32::get(rec)?;
        let names = rec.symbols.len();
        let bad = || corrupt(at, format_args!("symbol id {id} past {names} names"));
        rec.symbols.get(id as usize).copied().ok_or_else(bad)
    }
}

/// One byte, 0 or 1.
impl Field for bool {
    const WIDTH: usize = 1;

    fn put(&self, rec: &mut Rec, _: &mut ShardEncoder) {
        rec.put([u8::from(*self)]);
    }

    fn get(rec: &mut Get<'_, '_>) -> Result<Self, TraceError> {
        let at = rec.offset();
        match rec.bytes() {
            [0] => Ok(false),
            [1] => Ok(true),
            [b] => Err(corrupt(at, format_args!("bad bool byte {b}"))),
        }
    }
}

/// Short form: the spec index's low `u32`; base, len, records and bytes;
/// the element size; kind, space and pattern codes. Full form appends the
/// batch's launch, the spec index's high `u32` and the stride.
impl Field for AccessBatch {
    const WIDTH: usize = 4 + 4 * 8 + 4 + 3;
    const FULL_EXTRA: usize = 8 + 4 + 8;

    #[inline(always)]
    fn put(&self, rec: &mut Rec, enc: &mut ShardEncoder) {
        let spec = self.spec_index as u64;
        (spec as u32).put(rec, enc);
        [self.base, self.len, self.records, self.bytes]
            .iter()
            .for_each(|v| v.put(rec, enc));
        self.elem_size.put(rec, enc);
        self.kind.put(rec, enc);
        self.space.put(rec, enc);
        let (pattern, stride) = match self.pattern {
            AccessPattern::Sequential => (0, 0),
            AccessPattern::Strided { stride } => (1, stride),
            AccessPattern::Random => (2, 0),
        };
        rec.put([pattern]);
        if self.launch.0 != rec.launch || spec >> 32 != 0 || pattern == 1 {
            rec.full = true;
            self.launch.0.put(rec, enc);
            ((spec >> 32) as u32).put(rec, enc);
            stride.put(rec, enc);
        }
    }

    #[inline(always)]
    fn get(rec: &mut Get<'_, '_>) -> Result<Self, TraceError> {
        let spec = u32::get(rec)?;
        let [base, len, records, bytes] = [(); 4].map(|()| u64::from_le_bytes(rec.bytes()));
        let (elem_size, kind, space) = (u32::get(rec)?, Field::get(rec)?, Field::get(rec)?);
        let at = rec.offset();
        let [pattern] = rec.bytes();
        let (launch, high, stride) = match rec.full {
            true => (u64::get(rec)?, u32::get(rec)?, u64::get(rec)?),
            false => (rec.launch, 0, 0),
        };
        let spec = u64::from(high) << 32 | u64::from(spec);
        let bad = || corrupt(at, format_args!("pattern {pattern}, stride {stride}"));
        let pattern = match (pattern, stride, rec.full) {
            (0, 0, _) => AccessPattern::Sequential,
            (1, stride, true) => AccessPattern::Strided { stride },
            (2, 0, _) => AccessPattern::Random,
            _ => return Err(bad()),
        };
        Ok(AccessBatch {
            launch: LaunchId(launch),
            spec_index: usize::try_from(spec)
                .map_err(|_| corrupt(at, format_args!("spec index {spec} does not fit usize")))?,
            base,
            len,
            records,
            bytes,
            elem_size,
            kind,
            space,
            pattern,
        })
    }
}

/// A `u32` frame count in the record; the frames — file id, line and
/// function id — follow it as a tail.
impl Field for Arc<[PyFrame]> {
    const WIDTH: usize = 4;

    fn put(&self, rec: &mut Rec, enc: &mut ShardEncoder) {
        let frames = u32::try_from(self.len()).expect("under 2^32 frames");
        frames.put(rec, enc);
    }

    fn put_tail(&self, enc: &mut ShardEncoder) {
        for frame in self.iter() {
            let (file, func) = (enc.id_of(&frame.file), enc.id_of(&frame.func));
            for v in [file, frame.line, func] {
                enc.payload.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    fn get(rec: &mut Get<'_, '_>) -> Result<Self, TraceError> {
        let frames = u32::get(rec)? as usize;
        // Fewer frames in the input than the count says: refused before
        // the count sizes anything.
        let frames_bytes = rec.tail.take(frames.saturating_mul(FRAME_BYTES))?;
        let mut tail = Get::new(frames_bytes, false, rec.symbols, rec.tail);
        let name = |tail: &mut Get<'_, '_>| Symbol::get(tail).map(|s| s.as_str().to_owned());
        (0..frames)
            .map(|_| {
                Ok(PyFrame {
                    file: name(&mut tail)?,
                    line: u32::get(&mut tail)?,
                    func: name(&mut tail)?,
                })
            })
            .collect()
    }
}

/// The smallest and the largest of `widths`, in constants.
const fn bounds(widths: &[usize]) -> (usize, usize) {
    let (mut i, mut min, mut max) = (0, usize::MAX, 0);
    while i < widths.len() {
        (min, max) = (
            if widths[i] < min { widths[i] } else { min },
            if widths[i] > max { widths[i] } else { max },
        );
        i += 1;
    }
    (min, max)
}

macro_rules! wire_codec {
    ($(
        $(#[$doc:meta])*
        $variant:ident [$tag:literal, $class:ident $(, $route:ident)?] {
            $($(#[$field_doc:meta])* $field:ident: $ty:ty,)*
        }
    )*) => {
        const _: () = assert!($($tag < FULL &&)* true, "a wire tag leaves the FULL bit clear");

        /// Bytes of the shortest record: no shard of `n` payload bytes
        /// holds more than `n / MIN_RECORD_BYTES` records.
        pub(crate) const MIN_RECORD_BYTES: usize = bounds(&[$(1 $(+ <$ty as Field>::WIDTH)*),*]).0;

        /// Bytes of the longest record short of a tail, full form included.
        const MAX_RECORD_BYTES: usize =
            bounds(&[$(1 $(+ <$ty as Field>::WIDTH + <$ty as Field>::FULL_EXTRA)*),*]).1;

        impl ShardEncoder {
            /// Appends one event: its record — tag, then its fields in
            /// declaration order — in one copy, then any tail.
            pub(crate) fn encode(&mut self, event: &Event) {
                self.records += 1;
                match event {
                    $(Event::$variant { $($field),* } => {
                        let mut rec = Rec { bytes: [0; MAX_RECORD_BYTES], len: 1, launch: 0, full: false };
                        rec.bytes[0] = $tag;
                        $(Field::put($field, &mut rec, self);)*
                        const WIDTH: usize = 1 $(+ <$ty as Field>::WIDTH)*;
                        match rec.full {
                            false => self.payload.extend_from_slice(&rec.bytes[..WIDTH]),
                            true => {
                                rec.bytes[0] |= FULL;
                                self.payload.extend_from_slice(&rec.bytes[..WIDTH $(+ <$ty as Field>::FULL_EXTRA)*])
                            }
                        }
                        $(Field::put_tail($field, self);)*
                    })*
                }
            }
        }

        /// Decodes a shard's next `n` records onto `out` — each its tag, then
        /// the rest of its width in one bounds check, pushed as one event.
        /// On an error `out` holds every record before the bad one.
        pub(crate) fn decode(
            symbols: &[Symbol],
            cur: &mut Cursor<'_>,
            out: &mut Vec<Event>,
            n: usize,
        ) -> Result<(), TraceError> {
            for _ in 0..n {
                let at = cur.pos();
                let tag = cur.u8()?;
                let full = tag & FULL != 0;
                match tag & !FULL {
                    $($tag if !full || 0 $(+ <$ty as Field>::FULL_EXTRA)* > 0 => {
                        const WIDTH: usize = 0 $(+ <$ty as Field>::WIDTH)*;
                        let rec: &[u8] = match full {
                            false => cur.array::<WIDTH>()?,
                            true => cur.array::<{ WIDTH $(+ <$ty as Field>::FULL_EXTRA)* }>()?,
                        };
                        let mut rec = Get::new(rec, full, symbols, cur);
                        out.push(Event::$variant { $($field: Field::get(&mut rec)?),* });
                    })*
                    _ => return Err(corrupt(at, format_args!("unknown event tag {tag}"))),
                }
            }
            Ok(())
        }
    };
}

pasta_core::event_table!(wire_codec);

#[cfg(test)]
pub(crate) mod reference {
    //! A second v2 reader, written out by hand per variant — a cursor that
    //! goes through `take` and a `Result` for every field, a decoder that
    //! returns each event by value, and its own table of record widths —
    //! kept as the reference the generated [`decode`](super::decode) is
    //! checked against: event for event on well-formed streams, error for
    //! error (variant and offset) on damaged ones.

    use crate::error::TraceError;
    use accel_sim::{
        AccessBatch, AccessKind, AccessPattern, CopyDirection, DeviceId, Dim3, KernelTraceSummary,
        LaunchId, MemSpace, SimTime, Symbol,
    };
    use dl_framework::callbacks::Pass;
    use dl_framework::pycall::PyFrame;
    use dl_framework::tensor::TensorId;
    use pasta_core::Event;

    /// A bounds-checked reading position over an untrusted byte slice.
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

        /// Takes the next `n` bytes, or reports where the input ended.
        pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
            if self.bytes.len() - self.pos < n {
                return Err(TraceError::Truncated {
                    offset: self.bytes.len(),
                });
            }
            let slice = &self.bytes[self.pos..self.pos + n];
            self.pos += n;
            Ok(slice)
        }

        fn u8(&mut self) -> Result<u8, TraceError> {
            Ok(self.take(1)?[0])
        }

        fn u32(&mut self) -> Result<u32, TraceError> {
            let b = self.take(4)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }

        fn u64(&mut self) -> Result<u64, TraceError> {
            let b = self.take(8)?;
            let mut word = [0u8; 8];
            word.copy_from_slice(b);
            Ok(u64::from_le_bytes(word))
        }
    }

    fn bad(offset: usize, what: String) -> TraceError {
        TraceError::Corrupt { offset, what }
    }

    /// Bytes after the tag byte `t`, tail aside; `None` for no record.
    fn width(t: u8) -> Option<usize> {
        Some(match t {
            0 | 1 => 16,
            2 => 12,
            3 => 44,
            4 => 32,
            5 => 21,
            6 | 8 => 28,
            7 => 29,
            9 => 32,
            10 => 52,
            11 => 56,
            12 | 16..=21 => 16,
            13 | 14 => 55,
            // Access records in full form.
            0x8d | 0x8e => 75,
            15 => 17,
            22 => 60,
            23 => 20,
            24 => 16,
            25 | 26 => 44,
            27 => 16,
            28 => 5,
            29 | 30 => 8,
            _ => return None,
        })
    }

    /// Decodes one shard's payload back into events, resolving dictionary
    /// ids through the shard's interned dictionary.
    pub(crate) struct ShardDecoder<'a> {
        symbols: &'a [Symbol],
    }

    impl<'a> ShardDecoder<'a> {
        pub(crate) fn new(symbols: &'a [Symbol]) -> Self {
            ShardDecoder { symbols }
        }

        fn sym(&self, cur: &mut Cursor<'_>) -> Result<Symbol, TraceError> {
            let at = cur.pos();
            let id = cur.u32()? as usize;
            self.symbols.get(id).copied().ok_or_else(|| {
                let what = format!("symbol id {id} past {} names", self.symbols.len());
                bad(at, what)
            })
        }

        fn string(&self, cur: &mut Cursor<'_>) -> Result<String, TraceError> {
            Ok(self.sym(cur)?.as_str().to_owned())
        }

        fn device(&self, cur: &mut Cursor<'_>) -> Result<DeviceId, TraceError> {
            Ok(DeviceId(cur.u32()?))
        }

        fn time(&self, cur: &mut Cursor<'_>) -> Result<SimTime, TraceError> {
            Ok(SimTime(cur.u64()?))
        }

        fn launch(&self, cur: &mut Cursor<'_>) -> Result<LaunchId, TraceError> {
            Ok(LaunchId(cur.u64()?))
        }

        fn dim3(&self, cur: &mut Cursor<'_>) -> Result<Dim3, TraceError> {
            Ok(Dim3 {
                x: cur.u32()?,
                y: cur.u32()?,
                z: cur.u32()?,
            })
        }

        /// A code byte below `n`, named `what` when it is not.
        fn code(&self, cur: &mut Cursor<'_>, n: u8, what: &str) -> Result<u8, TraceError> {
            let at = cur.pos();
            match cur.u8()? {
                b if b < n => Ok(b),
                b => Err(bad(at, format!("bad {what} code {b}"))),
            }
        }

        fn flag(&self, cur: &mut Cursor<'_>) -> Result<bool, TraceError> {
            let at = cur.pos();
            match cur.u8()? {
                0 => Ok(false),
                1 => Ok(true),
                b => Err(bad(at, format!("bad bool byte {b}"))),
            }
        }

        fn batch(
            &self,
            cur: &mut Cursor<'_>,
            record_launch: LaunchId,
            full: bool,
        ) -> Result<AccessBatch, TraceError> {
            let spec_low = cur.u32()?;
            let base = cur.u64()?;
            let len = cur.u64()?;
            let records = cur.u64()?;
            let bytes = cur.u64()?;
            let elem_size = cur.u32()?;
            let kind = [AccessKind::Load, AccessKind::Store, AccessKind::Atomic]
                [self.code(cur, 3, "AccessKind")? as usize];
            let space = [
                MemSpace::Global,
                MemSpace::Shared,
                MemSpace::RemoteShared,
                MemSpace::Local,
            ][self.code(cur, 4, "MemSpace")? as usize];
            let pattern_at = cur.pos();
            let pattern = cur.u8()?;
            let (launch, spec_high, stride) = if full {
                (LaunchId(cur.u64()?), cur.u32()?, cur.u64()?)
            } else {
                (record_launch, 0, 0)
            };
            let pattern = match (pattern, stride) {
                (0, 0) => AccessPattern::Sequential,
                (1, stride) if full => AccessPattern::Strided { stride },
                (2, 0) => AccessPattern::Random,
                _ => {
                    let what = format!("pattern {pattern}, stride {stride}");
                    return Err(bad(pattern_at, what));
                }
            };
            Ok(AccessBatch {
                launch,
                spec_index: (u64::from(spec_high) << 32 | u64::from(spec_low)) as usize,
                base,
                len,
                records,
                bytes,
                elem_size,
                kind,
                space,
                pattern,
            })
        }

        /// Decodes the next record.
        pub(crate) fn decode(&mut self, cur: &mut Cursor<'_>) -> Result<Event, TraceError> {
            let at = cur.pos();
            let t = cur.u8()?;
            let Some(width) = width(t) else {
                return Err(bad(at, format!("unknown event tag {t}")));
            };
            // The record is there whole before any field of it is read.
            let start = cur.pos();
            cur.take(width)?;
            *cur = Cursor {
                bytes: cur.bytes,
                pos: start,
            };
            let event = match t & 0x7f {
                0 => Event::DriverApi {
                    name: self.sym(cur)?,
                    device: self.device(cur)?,
                    at: self.time(cur)?,
                },
                1 => Event::RuntimeApi {
                    name: self.sym(cur)?,
                    device: self.device(cur)?,
                    at: self.time(cur)?,
                },
                2 => Event::Sync {
                    device: self.device(cur)?,
                    at: self.time(cur)?,
                },
                3 => Event::KernelLaunchBegin {
                    launch: self.launch(cur)?,
                    device: self.device(cur)?,
                    stream: cur.u32()?,
                    name: self.sym(cur)?,
                    grid: self.dim3(cur)?,
                    block: self.dim3(cur)?,
                },
                4 => Event::KernelLaunchEnd {
                    launch: self.launch(cur)?,
                    device: self.device(cur)?,
                    name: self.sym(cur)?,
                    start: self.time(cur)?,
                    end: self.time(cur)?,
                },
                5 => Event::MemCopy {
                    device: self.device(cur)?,
                    direction: [
                        CopyDirection::HostToDevice,
                        CopyDirection::DeviceToHost,
                        CopyDirection::DeviceToDevice,
                        CopyDirection::HostToHost,
                    ][self.code(cur, 4, "CopyDirection")? as usize],
                    bytes: cur.u64()?,
                    at: self.time(cur)?,
                },
                6 => Event::MemSet {
                    device: self.device(cur)?,
                    addr: cur.u64()?,
                    bytes: cur.u64()?,
                    at: self.time(cur)?,
                },
                7 => Event::ResourceAlloc {
                    device: self.device(cur)?,
                    addr: cur.u64()?,
                    bytes: cur.u64()?,
                    managed: self.flag(cur)?,
                    at: self.time(cur)?,
                },
                8 => Event::ResourceFree {
                    device: self.device(cur)?,
                    addr: cur.u64()?,
                    bytes: cur.u64()?,
                    at: self.time(cur)?,
                },
                9 => Event::BatchMemOp {
                    device: self.device(cur)?,
                    op: self.sym(cur)?,
                    addr: cur.u64()?,
                    bytes: cur.u64()?,
                    at: self.time(cur)?,
                },
                10 => Event::UvmFault {
                    launch: self.launch(cur)?,
                    device: self.device(cur)?,
                    groups: cur.u64()?,
                    migrated_bytes: cur.u64()?,
                    evicted_bytes: cur.u64()?,
                    stall_ns: cur.u64()?,
                    at: self.time(cur)?,
                },
                11 => Event::UvmPeerMigrate {
                    launch: self.launch(cur)?,
                    src: self.device(cur)?,
                    dst: self.device(cur)?,
                    duplicated_pages: cur.u64()?,
                    invalidated_pages: cur.u64()?,
                    bytes: cur.u64()?,
                    stall_ns: cur.u64()?,
                    at: self.time(cur)?,
                },
                12 => Event::BlockBoundary {
                    launch: self.launch(cur)?,
                    count: cur.u64()?,
                },
                13 => {
                    let launch = self.launch(cur)?;
                    Event::GlobalAccess {
                        launch,
                        kernel: self.sym(cur)?,
                        batch: self.batch(cur, launch, t & 0x80 != 0)?,
                    }
                }
                14 => {
                    let launch = self.launch(cur)?;
                    Event::SharedAccess {
                        launch,
                        kernel: self.sym(cur)?,
                        batch: self.batch(cur, launch, t & 0x80 != 0)?,
                    }
                }
                15 => Event::Barrier {
                    launch: self.launch(cur)?,
                    count: cur.u64()?,
                    cluster: self.flag(cur)?,
                },
                16 => Event::DeviceFuncCall {
                    launch: self.launch(cur)?,
                    count: cur.u64()?,
                },
                17 => Event::DeviceMalloc {
                    launch: self.launch(cur)?,
                    bytes: cur.u64()?,
                },
                18 => Event::DeviceFree {
                    launch: self.launch(cur)?,
                    bytes: cur.u64()?,
                },
                19 => Event::GlobalToSharedCopy {
                    launch: self.launch(cur)?,
                    bytes: cur.u64()?,
                },
                20 => Event::PipelineOp {
                    launch: self.launch(cur)?,
                    count: cur.u64()?,
                },
                21 => Event::Instructions {
                    launch: self.launch(cur)?,
                    count: cur.u64()?,
                },
                22 => Event::KernelTrace {
                    launch: self.launch(cur)?,
                    kernel: self.sym(cur)?,
                    summary: KernelTraceSummary {
                        global_records: cur.u64()?,
                        shared_records: cur.u64()?,
                        barriers: cur.u64()?,
                        blocks: cur.u64()?,
                        instructions: cur.u64()?,
                        global_bytes: cur.u64()?,
                    },
                },
                23 => {
                    let seq = cur.u64()?;
                    let name = self.sym(cur)?;
                    let device = self.device(cur)?;
                    let frames = cur.u32()? as usize;
                    cur.take(frames * 12)?;
                    *cur = Cursor {
                        bytes: cur.bytes,
                        pos: cur.pos() - frames * 12,
                    };
                    let mut py_stack = Vec::new();
                    for _ in 0..frames {
                        py_stack.push(PyFrame {
                            file: self.string(cur)?,
                            line: cur.u32()?,
                            func: self.string(cur)?,
                        });
                    }
                    Event::OpStart {
                        seq,
                        name,
                        device,
                        py_stack: py_stack.into(),
                    }
                }
                24 => Event::OpEnd {
                    seq: cur.u64()?,
                    name: self.sym(cur)?,
                    device: self.device(cur)?,
                },
                25 => Event::TensorAlloc {
                    tensor: TensorId(cur.u64()?),
                    addr: cur.u64()?,
                    bytes: cur.u64()?,
                    allocated_total: cur.u64()?,
                    reserved_total: cur.u64()?,
                    device: self.device(cur)?,
                },
                26 => Event::TensorFree {
                    tensor: TensorId(cur.u64()?),
                    addr: cur.u64()?,
                    bytes: cur.u64()?,
                    allocated_total: cur.u64()?,
                    reserved_total: cur.u64()?,
                    device: self.device(cur)?,
                },
                27 => Event::LayerBoundary {
                    name: self.sym(cur)?,
                    index: cur.u64()? as usize,
                    device: self.device(cur)?,
                },
                28 => Event::PassBoundary {
                    pass: [Pass::Forward, Pass::Backward, Pass::Optimizer]
                        [self.code(cur, 3, "Pass")? as usize],
                    device: self.device(cur)?,
                },
                29 => Event::RegionStart {
                    label: self.sym(cur)?,
                    device: self.device(cur)?,
                },
                30 => Event::RegionEnd {
                    label: self.sym(cur)?,
                    device: self.device(cur)?,
                },
                _ => unreachable!("`width` knows every tag"),
            };
            Ok(event)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(launch: u64, kernel: Symbol, batch: AccessBatch) -> Event {
        Event::GlobalAccess {
            launch: LaunchId(launch),
            kernel,
            batch,
        }
    }

    fn batch(launch: u64, spec_index: usize, pattern: AccessPattern) -> AccessBatch {
        AccessBatch {
            launch: LaunchId(launch),
            spec_index,
            base: 0x1000 * launch,
            len: 4096,
            records: 32,
            bytes: 4096,
            elem_size: 4,
            kind: AccessKind::Load,
            space: MemSpace::Global,
            pattern,
        }
    }

    fn payload_of(events: &[Event]) -> Vec<u8> {
        let mut enc = ShardEncoder::new(DeviceId(0));
        events.iter().for_each(|e| enc.encode(e));
        enc.into_parts().3
    }

    fn decoded(payload: &[u8], symbols: &[Symbol], n: usize) -> Result<Vec<Event>, TraceError> {
        let mut out = Vec::new();
        let mut cur = Cursor::new(payload);
        decode(symbols, &mut cur, &mut out, n)?;
        assert_eq!(cur.remaining(), 0, "the records fill the payload");
        Ok(out)
    }

    #[test]
    fn symbols_dedup_into_one_dictionary_slot() {
        let mut enc = ShardEncoder::new(DeviceId(0));
        for launch in 0..4 {
            enc.encode(&Event::KernelLaunchEnd {
                launch: LaunchId(launch),
                device: DeviceId(0),
                name: "ampere_sgemm".into(),
                start: SimTime(launch * 100),
                end: SimTime(launch * 100 + 80),
            });
        }
        let (_, symbols, records, _) = enc.into_parts();
        assert_eq!(records, 4);
        assert_eq!(symbols, vec!["ampere_sgemm".to_owned()]);
    }

    /// The encoder as it was before `last_sym`: forgetting the memo ahead
    /// of every event sends each name through `seen`.
    fn encode_without_memo(events: &[Event]) -> (Vec<String>, Vec<u8>) {
        let mut enc = ShardEncoder::new(DeviceId(0));
        for event in events {
            enc.last_sym = (0, 0);
            enc.encode(event);
        }
        let (_, symbols, _, payload) = enc.into_parts();
        (symbols, payload)
    }

    #[test]
    fn symbol_memo_changes_no_byte() {
        let strided = AccessPattern::Strided { stride: 1 << 40 };
        let access = |launch: u64, kernel: Symbol| {
            access(launch, kernel, batch(launch, launch as usize, strided))
        };
        // Equal text at other addresses: the memo may not mistake either
        // for a new name, nor a new name for the one it holds.
        let other = accel_sim::SymbolTable::new();
        let names: [Symbol; 6] = [
            "gemm".into(),
            "softmax".into(),
            "".into(),
            other.intern("gemm"),
            other.intern(""),
            other.intern("only_in_the_other_table"),
        ];
        assert!(!Symbol::ptr_eq(&names[0], &names[3]));
        let mut events = Vec::new();
        // Runs of one name, two names alternating, then every hand-over
        // between two of the six.
        events.extend((0..8).map(|l| access(l, names[0])));
        events.extend((8..24).map(|l| access(l, names[l as usize % 2])));
        for (i, from) in names.iter().enumerate() {
            for to in &names {
                events.push(access(100 + i as u64, *from));
                events.push(Event::RegionStart {
                    label: *to,
                    device: DeviceId(0),
                });
            }
        }
        let mut enc = ShardEncoder::new(DeviceId(0));
        events.iter().for_each(|e| enc.encode(e));
        let (_, symbols, records, payload) = enc.into_parts();
        assert_eq!(records, events.len() as u64);
        assert_eq!(
            symbols,
            ["gemm", "softmax", "", "only_in_the_other_table"],
            "first-appearance order, one slot per text"
        );
        assert_eq!((symbols, payload), encode_without_memo(&events));
    }

    macro_rules! count_rows {
        ($($(#[$doc:meta])* $variant:ident [$($columns:tt)*] { $($fields:tt)* })*) => {
            [$(stringify!($variant)),*].len()
        };
    }

    /// Every tag byte, before a record of zeros: each variant's record —
    /// and each full form — decodes at its own width and no other byte
    /// does; a short record encodes back to its bytes, a full one of zeros
    /// to the same event as its short form. The shortest is
    /// `MIN_RECORD_BYTES`, which `parse` bounds a shard's record count by.
    #[test]
    fn every_tag_fixes_its_record_width() {
        let symbols = [Symbol::intern("")];
        let (mut short, mut full, mut widths) = (0, 0, Vec::new());
        for tag in 0..=u8::MAX {
            let mut record = [0u8; 128];
            record[0] = tag;
            let mut cur = Cursor::new(&record);
            let mut events = Vec::new();
            if decode(&symbols, &mut cur, &mut events, 1).is_err() {
                continue;
            }
            let width = cur.pos();
            if tag & FULL == 0 {
                short += 1;
                widths.push(width);
                assert_eq!(payload_of(&events), record[..width], "{:?}", events[0]);
            } else {
                full += 1;
                let short_form = decoded(&payload_of(&events), &symbols, 1).unwrap();
                assert_eq!(short_form, events, "tag {tag:#x}");
                assert_eq!(width, payload_of(&events).len() + AccessBatch::FULL_EXTRA);
            }
        }
        assert_eq!(short, pasta_core::event_table!(count_rows));
        assert_eq!(full, 2, "GlobalAccess and SharedAccess have a full form");
        assert_eq!(widths.iter().min(), Some(&MIN_RECORD_BYTES));
        assert_eq!(MIN_RECORD_BYTES, 6, "PassBoundary: tag, pass, device");
    }

    #[test]
    fn a_record_is_as_wide_whatever_its_values() {
        let end = |v: u64| Event::KernelLaunchEnd {
            launch: LaunchId(v),
            device: DeviceId(v as u32),
            name: "k".into(),
            start: SimTime(v),
            end: SimTime(v.wrapping_mul(3)),
        };
        for v in [0, 1, 1 << 20, u64::MAX] {
            assert_eq!(payload_of(&[end(v)]).len(), 33, "{v}");
        }
        // A live access batch is short: its launch the record's, its spec
        // index a `u32`, its pattern not strided.
        let live = access(7, "k".into(), batch(7, 3, AccessPattern::Random));
        assert_eq!(payload_of(&[live]).len(), 56);
    }

    #[test]
    fn the_full_form_carries_what_the_short_one_leaves_out() {
        let symbols = [Symbol::intern("k")];
        let sequential = AccessPattern::Sequential;
        for b in [
            batch(8, 3, sequential),
            batch(7, 1 << 32, sequential),
            batch(7, usize::MAX, sequential),
            batch(7, 3, AccessPattern::Strided { stride: 0 }),
            batch(7, 3, AccessPattern::Strided { stride: u64::MAX }),
        ] {
            let event = access(7, symbols[0], b.clone());
            let payload = payload_of(std::slice::from_ref(&event));
            assert_eq!(payload.len(), 76, "{b:?}");
            assert_eq!(payload[0], 13 | FULL);
            assert_eq!(decoded(&payload, &symbols, 1).unwrap(), [event]);
        }
    }

    /// A record that stops short of its width — anywhere inside a field —
    /// is truncated at the end of the input, and a stride on a pattern
    /// that has none is corrupt at the pattern's byte.
    #[test]
    fn a_cut_record_and_a_stray_stride_are_typed_errors() {
        let symbols = [Symbol::intern("k")];
        let event = access(7, symbols[0], batch(8, 3, AccessPattern::Random));
        let payload = payload_of(&[event]);
        for cut in 1..payload.len() {
            assert!(matches!(
                decoded(&payload[..cut], &symbols, 1),
                Err(TraceError::Truncated { offset }) if offset == cut
            ));
        }
        let mut stray = payload.clone();
        *stray.last_mut().unwrap() = 1;
        match decoded(&stray, &symbols, 1) {
            Err(TraceError::Corrupt { offset, what }) => {
                assert_eq!(offset, 55, "the pattern byte of the batch");
                assert!(what.contains("stride 72057594037927936"), "{what}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
