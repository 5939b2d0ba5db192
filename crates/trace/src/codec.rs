//! The per-shard record codec.
//!
//! One [`ShardEncoder`] serializes one device shard's event stream, in
//! processing order, into a compact byte payload:
//!
//! * every string (kernel symbols, API names, Python frames) is replaced
//!   by a small integer id into a per-shard dictionary, snapshotted next
//!   to the payload so names round-trip without carrying bytes per event;
//! * timestamps (`at`/`start`/`end`) and launch ids are delta-encoded
//!   against the previous value in the stream, zigzag-mapped, and written
//!   as LEB128 varints — both with *wrapping* arithmetic, so arbitrary
//!   (even non-monotone) `u64` sequences survive losslessly;
//! * each record starts with a one-byte variant tag; fixed enums
//!   (`AccessKind`, `CopyDirection`, …) are single bytes.
//!
//! The record layout is the event table's (`pasta_core::event_table!`):
//! its wire tag, then every field in declaration order, each encoded as
//! its Rust type says ([`Field`]). Encoder and decoder are both generated
//! from that table, so a new variant is one row there — and a row whose
//! field type has no encoding here does not compile.

use crate::error::TraceError;
use crate::wire::{corrupt, put_varint, unzigzag, zigzag, Cursor, Scratch};
use accel_sim::{
    AccessBatch, AccessKind, AccessPattern, CopyDirection, DeviceId, Dim3, KernelTraceSummary,
    LaunchId, MemSpace, SimTime, Symbol,
};
use dl_framework::callbacks::Pass;
use dl_framework::pycall::PyFrame;
use dl_framework::tensor::TensorId;
use pasta_core::report::UvmReport;
use pasta_core::Event;
use std::collections::HashMap;
use std::sync::Arc;
use uvm_sim::UvmStats;

/// A fieldless enum that travels as one code byte.
trait Code: Copy {
    fn code(self) -> u8;
    fn from_code(b: u8, offset: usize) -> Result<Self, TraceError>;
}

macro_rules! code_bytes {
    ($($ty:ident { $($variant:ident = $code:literal),* })*) => {$(
        impl Code for $ty {
            #[inline]
            fn code(self) -> u8 {
                match self {
                    $($ty::$variant => $code,)*
                }
            }

            #[inline]
            fn from_code(b: u8, offset: usize) -> Result<Self, TraceError> {
                match b {
                    $($code => Ok($ty::$variant),)*
                    _ => Err(corrupt(offset, format_args!(concat!("bad ", stringify!($ty), " code {}"), b))),
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

/// A varint that must fit a `u32` (dimensions, streams, line numbers).
#[inline]
fn u32v(cur: &mut Cursor<'_>) -> Result<u32, TraceError> {
    let v = cur.varint()?;
    u32::try_from(v).map_err(|_| corrupt(cur.pos(), format_args!("value {v} exceeds u32")))
}

#[inline]
fn device(cur: &mut Cursor<'_>) -> Result<DeviceId, TraceError> {
    let v = cur.varint()?;
    u32::try_from(v)
        .map(DeviceId)
        .map_err(|_| corrupt(cur.pos(), format_args!("device id {v} exceeds u32")))
}

/// Encodes one shard's event stream. Holds only growable in-memory
/// buffers — the hot [`ShardEncoder::encode`] path never touches the
/// filesystem (all I/O happens in [`crate::Trace::save`], after capture).
#[derive(Debug)]
pub(crate) struct ShardEncoder {
    pub(crate) device: DeviceId,
    /// Dictionary, in first-appearance order; snapshotted into the shard
    /// header so ids resolve on read.
    symbols: Vec<String>,
    /// Content → id. Python-frame strings always resolve here; an interned
    /// name does once, on first sight of its address, so symbols of
    /// different tables with one content still share an id.
    ids: HashMap<String, u64>,
    /// Address → id of every interned name seen before: the per-event
    /// lookup hashes one word, not a 30–60-byte kernel name. Interned text
    /// is immortal, so an address never comes to mean another name.
    seen: HashMap<usize, u64>,
    /// The last `(address, id)` answered from `seen`: a launch's events all
    /// carry its kernel's name, so a run of them hashes it once. No text
    /// lives at address 0, so the initial entry matches nothing.
    last_sym: (usize, u64),
    payload: Vec<u8>,
    records: u64,
    last_time: u64,
    last_launch: u64,
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
            last_time: 0,
            last_launch: 0,
        }
    }

    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    pub(crate) fn into_parts(self) -> (DeviceId, Vec<String>, u64, Vec<u8>) {
        (self.device, self.symbols, self.records, self.payload)
    }

    fn v(&mut self, v: u64) {
        put_varint(&mut self.payload, v);
    }

    /// The dictionary id of `s`, assigned in first-appearance order.
    fn id_of(&mut self, s: &str) -> u64 {
        match self.ids.get(s) {
            Some(&id) => id,
            None => {
                let id = self.symbols.len() as u64;
                self.symbols.push(s.to_owned());
                self.ids.insert(s.to_owned(), id);
                id
            }
        }
    }

    /// The zigzag-mapped step from the previous launch id to `l`.
    fn launch_delta(&mut self, l: LaunchId) -> u64 {
        let delta = l.0.wrapping_sub(self.last_launch) as i64;
        self.last_launch = l.0;
        zigzag(delta)
    }
}

/// Bytes of the shortest record: a tag and two one-byte fields (`Sync`,
/// `BlockBoundary`, `PassBoundary`, …). A shard holds at most its payload
/// length over this many records.
pub(crate) const MIN_RECORD_BYTES: usize = 3;

/// Decodes one shard's payload back into events, resolving dictionary ids
/// through the shard's interned dictionary.
pub(crate) struct ShardDecoder<'a> {
    symbols: &'a [Symbol],
    last_time: u64,
    last_launch: u64,
}

impl<'a> ShardDecoder<'a> {
    pub(crate) fn new(symbols: &'a [Symbol]) -> Self {
        ShardDecoder {
            symbols,
            last_time: 0,
            last_launch: 0,
        }
    }

    /// Decodes the next `max` records onto the end of `out`. On an error
    /// `out` holds every record before the bad one.
    pub(crate) fn decode_batch(
        &mut self,
        cur: &mut Cursor<'_>,
        out: &mut Vec<Event>,
        max: usize,
    ) -> Result<(), TraceError> {
        for _ in 0..max {
            self.decode_onto(cur, out)?;
        }
        Ok(())
    }
}

/// An event field's wire encoding, picked by its Rust type.
trait Field: Sized {
    fn put(&self, enc: &mut ShardEncoder);
    fn get(dec: &mut ShardDecoder<'_>, cur: &mut Cursor<'_>) -> Result<Self, TraceError>;
}

/// Delta time: the zigzag step from the stream's previous timestamp.
impl Field for SimTime {
    #[inline]
    fn put(&self, enc: &mut ShardEncoder) {
        let delta = self.0.wrapping_sub(enc.last_time) as i64;
        enc.last_time = self.0;
        enc.v(zigzag(delta));
    }

    #[inline]
    fn get(dec: &mut ShardDecoder<'_>, cur: &mut Cursor<'_>) -> Result<Self, TraceError> {
        let delta = unzigzag(cur.varint()?);
        dec.last_time = dec.last_time.wrapping_add(delta as u64);
        Ok(SimTime(dec.last_time))
    }
}

/// Delta launch: the zigzag step from the stream's previous launch id.
impl Field for LaunchId {
    #[inline]
    fn put(&self, enc: &mut ShardEncoder) {
        let delta = enc.launch_delta(*self);
        enc.v(delta);
    }

    #[inline]
    fn get(dec: &mut ShardDecoder<'_>, cur: &mut Cursor<'_>) -> Result<Self, TraceError> {
        let delta = unzigzag(cur.varint()?);
        dec.last_launch = dec.last_launch.wrapping_add(delta as u64);
        Ok(LaunchId(dec.last_launch))
    }
}

/// Dictionary id.
impl Field for Symbol {
    #[inline]
    fn put(&self, enc: &mut ShardEncoder) {
        let addr = self.as_str().as_ptr() as usize;
        if addr != enc.last_sym.0 {
            let id = match enc.seen.get(&addr) {
                Some(&id) => id,
                None => {
                    let id = enc.id_of(self);
                    enc.seen.insert(addr, id);
                    id
                }
            };
            enc.last_sym = (addr, id);
        }
        enc.v(enc.last_sym.1);
    }

    #[inline]
    fn get(dec: &mut ShardDecoder<'_>, cur: &mut Cursor<'_>) -> Result<Self, TraceError> {
        let id = cur.varint_usize()?;
        dec.symbols.get(id).copied().ok_or_else(|| {
            corrupt(
                cur.pos(),
                format_args!(
                    "symbol id {id} out of range (dictionary has {})",
                    dec.symbols.len()
                ),
            )
        })
    }
}

/// Varint, checked to fit a `u32` on read.
impl Field for DeviceId {
    #[inline]
    fn put(&self, enc: &mut ShardEncoder) {
        enc.v(self.0.into());
    }

    #[inline]
    fn get(_: &mut ShardDecoder<'_>, cur: &mut Cursor<'_>) -> Result<Self, TraceError> {
        device(cur)
    }
}

/// Varint, checked to fit a `u32` on read (`StreamId` is one).
impl Field for u32 {
    #[inline]
    fn put(&self, enc: &mut ShardEncoder) {
        enc.v((*self).into());
    }

    #[inline]
    fn get(_: &mut ShardDecoder<'_>, cur: &mut Cursor<'_>) -> Result<Self, TraceError> {
        u32v(cur)
    }
}

impl Field for u64 {
    #[inline]
    fn put(&self, enc: &mut ShardEncoder) {
        enc.v(*self);
    }

    #[inline]
    fn get(_: &mut ShardDecoder<'_>, cur: &mut Cursor<'_>) -> Result<Self, TraceError> {
        cur.varint()
    }
}

/// Varint, checked to fit the platform `usize` on read.
impl Field for usize {
    #[inline]
    fn put(&self, enc: &mut ShardEncoder) {
        enc.v(*self as u64);
    }

    #[inline]
    fn get(_: &mut ShardDecoder<'_>, cur: &mut Cursor<'_>) -> Result<Self, TraceError> {
        cur.varint_usize()
    }
}

/// One byte, 0 or 1.
impl Field for bool {
    #[inline]
    fn put(&self, enc: &mut ShardEncoder) {
        enc.payload.push(u8::from(*self));
    }

    #[inline]
    fn get(_: &mut ShardDecoder<'_>, cur: &mut Cursor<'_>) -> Result<Self, TraceError> {
        match cur.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(cur.pos(), format_args!("bad bool byte {b}"))),
        }
    }
}

/// One code byte.
impl<T: Code> Field for T {
    #[inline]
    fn put(&self, enc: &mut ShardEncoder) {
        enc.payload.push(self.code());
    }

    #[inline]
    fn get(_: &mut ShardDecoder<'_>, cur: &mut Cursor<'_>) -> Result<Self, TraceError> {
        let b = cur.u8()?;
        T::from_code(b, cur.pos())
    }
}

/// Three `u32` varints.
impl Field for Dim3 {
    #[inline]
    fn put(&self, enc: &mut ShardEncoder) {
        [self.x, self.y, self.z].iter().for_each(|d| d.put(enc));
    }

    #[inline]
    fn get(_: &mut ShardDecoder<'_>, cur: &mut Cursor<'_>) -> Result<Self, TraceError> {
        Ok(Dim3 {
            x: u32v(cur)?,
            y: u32v(cur)?,
            z: u32v(cur)?,
        })
    }
}

impl Field for TensorId {
    #[inline]
    fn put(&self, enc: &mut ShardEncoder) {
        enc.v(self.0);
    }

    #[inline]
    fn get(_: &mut ShardDecoder<'_>, cur: &mut Cursor<'_>) -> Result<Self, TraceError> {
        Ok(TensorId(cur.varint()?))
    }
}

/// Delta launch, seven varints (one a `usize`, one a `u32`), kind and
/// space code bytes, then the pattern's code byte and its stride.
impl Field for AccessBatch {
    #[inline]
    fn put(&self, enc: &mut ShardEncoder) {
        let mut rec = Scratch::<{ 7 * 10 + 5 + 3 }>::new();
        rec.varint(enc.launch_delta(self.launch));
        rec.varint(self.spec_index as u64);
        rec.varint(self.base);
        rec.varint(self.len);
        rec.varint(self.records);
        rec.varint(self.bytes);
        rec.varint(self.elem_size.into());
        rec.byte(self.kind.code());
        rec.byte(self.space.code());
        match self.pattern {
            AccessPattern::Sequential => rec.byte(0),
            AccessPattern::Strided { stride } => {
                rec.byte(1);
                rec.varint(stride);
            }
            AccessPattern::Random => rec.byte(2),
        }
        enc.payload.extend_from_slice(rec.as_slice());
    }

    #[inline]
    fn get(dec: &mut ShardDecoder<'_>, cur: &mut Cursor<'_>) -> Result<Self, TraceError> {
        Ok(AccessBatch {
            launch: LaunchId::get(dec, cur)?,
            spec_index: cur.varint_usize()?,
            base: cur.varint()?,
            len: cur.varint()?,
            records: cur.varint()?,
            bytes: cur.varint()?,
            elem_size: u32v(cur)?,
            kind: AccessKind::from_code(cur.u8()?, cur.pos())?,
            space: MemSpace::from_code(cur.u8()?, cur.pos())?,
            pattern: match cur.u8()? {
                0 => AccessPattern::Sequential,
                1 => AccessPattern::Strided {
                    stride: cur.varint()?,
                },
                2 => AccessPattern::Random,
                b => {
                    return Err(corrupt(
                        cur.pos(),
                        format_args!("bad AccessPattern code {b}"),
                    ))
                }
            },
        })
    }
}

/// Six varints, in declaration order.
impl Field for KernelTraceSummary {
    #[inline]
    fn put(&self, enc: &mut ShardEncoder) {
        for v in [
            self.global_records,
            self.shared_records,
            self.barriers,
            self.blocks,
            self.instructions,
            self.global_bytes,
        ] {
            enc.v(v);
        }
    }

    #[inline]
    fn get(_: &mut ShardDecoder<'_>, cur: &mut Cursor<'_>) -> Result<Self, TraceError> {
        Ok(KernelTraceSummary {
            global_records: cur.varint()?,
            shared_records: cur.varint()?,
            barriers: cur.varint()?,
            blocks: cur.varint()?,
            instructions: cur.varint()?,
            global_bytes: cur.varint()?,
        })
    }
}

/// A frame count, then each frame's file and function as dictionary ids
/// around its line as a `u32` varint.
impl Field for Arc<[PyFrame]> {
    fn put(&self, enc: &mut ShardEncoder) {
        enc.v(self.len() as u64);
        for frame in self.iter() {
            let file = enc.id_of(&frame.file);
            enc.v(file);
            enc.v(frame.line.into());
            let func = enc.id_of(&frame.func);
            enc.v(func);
        }
    }

    #[inline]
    fn get(dec: &mut ShardDecoder<'_>, cur: &mut Cursor<'_>) -> Result<Self, TraceError> {
        let frames = cur.varint_usize()?;
        let mut py_stack = Vec::new();
        for _ in 0..frames {
            py_stack.push(PyFrame {
                file: Symbol::get(dec, cur)?.as_str().to_owned(),
                line: u32v(cur)?,
                func: Symbol::get(dec, cur)?.as_str().to_owned(),
            });
        }
        Ok(py_stack.into())
    }
}

macro_rules! wire_codec {
    ($(
        $(#[$doc:meta])*
        $variant:ident [$tag:literal, $class:ident $(, $route:ident)?] {
            $($(#[$field_doc:meta])* $field:ident: $ty:ty,)*
        }
    )*) => {
        impl ShardEncoder {
            /// Appends one event: its tag, then its fields in declaration
            /// order, each as its type's [`Field`] encoding.
            pub(crate) fn encode(&mut self, event: &Event) {
                self.records += 1;
                match event {
                    $(Event::$variant { $($field),* } => {
                        self.payload.push($tag);
                        $(Field::put($field, self);)*
                    })*
                }
            }
        }

        impl ShardDecoder<'_> {
            /// Decodes the next record onto the end of `out`. Each arm reads
            /// its fields and pushes the event they make, so the event is
            /// written once, into the vector's spare capacity — it is never
            /// returned by value.
            #[inline(always)]
            fn decode_onto(
                &mut self,
                cur: &mut Cursor<'_>,
                out: &mut Vec<Event>,
            ) -> Result<(), TraceError> {
                match cur.u8()? {
                    $($tag => out.push(Event::$variant { $($field: Field::get(self, cur)?),* }),)*
                    t => return Err(corrupt(cur.pos(), format_args!("unknown event tag {t}"))),
                }
                Ok(())
            }
        }
    };
}

pasta_core::event_table!(wire_codec);

fn put_stats(buf: &mut Vec<u8>, s: &UvmStats) {
    for v in [
        s.fault_groups,
        s.demand_pages_in,
        s.prefetch_pages_in,
        s.pages_evicted,
        s.fault_stall_ns,
        s.prefetch_stall_ns,
        s.evict_stall_ns,
        s.prefetch_noops,
        s.peer_pages_in,
        s.peer_stall_ns,
        s.duplicates_invalidated,
    ] {
        put_varint(buf, v);
    }
}

fn stats(cur: &mut Cursor<'_>) -> Result<UvmStats, TraceError> {
    Ok(UvmStats {
        fault_groups: cur.varint()?,
        demand_pages_in: cur.varint()?,
        prefetch_pages_in: cur.varint()?,
        pages_evicted: cur.varint()?,
        fault_stall_ns: cur.varint()?,
        prefetch_stall_ns: cur.varint()?,
        evict_stall_ns: cur.varint()?,
        prefetch_noops: cur.varint()?,
        peer_pages_in: cur.varint()?,
        peer_stall_ns: cur.varint()?,
        duplicates_invalidated: cur.varint()?,
    })
}

/// Encodes the UVM footer — the session-layer residency totals that
/// live *outside* the event stream (the manager overlay, not events), so
/// replay can restore [`pasta_core::MergedReport::uvm`] exactly.
pub(crate) fn encode_uvm(buf: &mut Vec<u8>, uvm: &UvmReport) {
    put_stats(buf, &uvm.stats);
    put_varint(buf, uvm.per_device.len() as u64);
    for (dev, s) in &uvm.per_device {
        put_varint(buf, dev.0.into());
        put_stats(buf, s);
    }
    put_varint(buf, uvm.peer_bytes.len() as u64);
    for ((src, dst), bytes) in &uvm.peer_bytes {
        put_varint(buf, src.0.into());
        put_varint(buf, dst.0.into());
        put_varint(buf, *bytes);
    }
}

/// Inverse of [`encode_uvm`].
pub(crate) fn decode_uvm(cur: &mut Cursor<'_>) -> Result<UvmReport, TraceError> {
    let totals = stats(cur)?;
    let lanes = cur.varint_usize()?;
    let mut per_device = Vec::new();
    for _ in 0..lanes {
        let dev = device(cur)?;
        per_device.push((dev, stats(cur)?));
    }
    let pairs = cur.varint_usize()?;
    let mut peer_bytes = Vec::new();
    for _ in 0..pairs {
        let src = device(cur)?;
        let dst = device(cur)?;
        peer_bytes.push(((src, dst), cur.varint()?));
    }
    Ok(UvmReport {
        stats: totals,
        per_device,
        peer_bytes,
    })
}

#[cfg(test)]
pub(crate) mod reference {
    //! The reader this module and `wire.rs` held through PR 20 — a cursor
    //! that goes through `take(1)` and a `Result` for every byte, a decoder
    //! that returns each event by value — kept as the reference
    //! [`ShardDecoder::decode_batch`](super::ShardDecoder::decode_batch) is
    //! checked against: event for event on well-formed streams, error for
    //! error (variant and offset) on damaged ones.

    use crate::error::TraceError;
    use crate::wire::unzigzag;
    use accel_sim::{
        AccessBatch, AccessKind, AccessPattern, CopyDirection, DeviceId, Dim3, KernelTraceSummary,
        LaunchId, MemSpace, SimTime, Symbol,
    };
    use dl_framework::callbacks::Pass;
    use dl_framework::pycall::PyFrame;
    use dl_framework::tensor::TensorId;
    use pasta_core::Event;

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

    fn kind_from(b: u8, offset: usize) -> Result<AccessKind, TraceError> {
        match b {
            0 => Ok(AccessKind::Load),
            1 => Ok(AccessKind::Store),
            2 => Ok(AccessKind::Atomic),
            _ => Err(TraceError::Corrupt {
                offset,
                what: format!("bad AccessKind code {b}"),
            }),
        }
    }

    fn space_from(b: u8, offset: usize) -> Result<MemSpace, TraceError> {
        match b {
            0 => Ok(MemSpace::Global),
            1 => Ok(MemSpace::Shared),
            2 => Ok(MemSpace::RemoteShared),
            3 => Ok(MemSpace::Local),
            _ => Err(TraceError::Corrupt {
                offset,
                what: format!("bad MemSpace code {b}"),
            }),
        }
    }

    fn direction_from(b: u8, offset: usize) -> Result<CopyDirection, TraceError> {
        match b {
            0 => Ok(CopyDirection::HostToDevice),
            1 => Ok(CopyDirection::DeviceToHost),
            2 => Ok(CopyDirection::DeviceToDevice),
            3 => Ok(CopyDirection::HostToHost),
            _ => Err(TraceError::Corrupt {
                offset,
                what: format!("bad CopyDirection code {b}"),
            }),
        }
    }

    fn pass_from(b: u8, offset: usize) -> Result<Pass, TraceError> {
        match b {
            0 => Ok(Pass::Forward),
            1 => Ok(Pass::Backward),
            2 => Ok(Pass::Optimizer),
            _ => Err(TraceError::Corrupt {
                offset,
                what: format!("bad Pass code {b}"),
            }),
        }
    }

    fn bool_from(b: u8, offset: usize) -> Result<bool, TraceError> {
        match b {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(TraceError::Corrupt {
                offset,
                what: format!("bad bool byte {b}"),
            }),
        }
    }

    /// Decodes one shard's payload back into events, resolving dictionary ids
    /// through the shard's interned dictionary.
    pub(crate) struct ShardDecoder<'a> {
        symbols: &'a [Symbol],
        last_time: u64,
        last_launch: u64,
    }

    impl<'a> ShardDecoder<'a> {
        pub(crate) fn new(symbols: &'a [Symbol]) -> Self {
            ShardDecoder {
                symbols,
                last_time: 0,
                last_launch: 0,
            }
        }

        fn sym(&self, cur: &mut Cursor<'_>) -> Result<Symbol, TraceError> {
            let id = cur.varint_usize()?;
            self.symbols
                .get(id)
                .copied()
                .ok_or_else(|| TraceError::Corrupt {
                    offset: cur.pos(),
                    what: format!(
                        "symbol id {id} out of range (dictionary has {})",
                        self.symbols.len()
                    ),
                })
        }

        fn string(&self, cur: &mut Cursor<'_>) -> Result<String, TraceError> {
            Ok(self.sym(cur)?.as_str().to_owned())
        }

        fn device(&self, cur: &mut Cursor<'_>) -> Result<DeviceId, TraceError> {
            let v = cur.varint()?;
            u32::try_from(v)
                .map(DeviceId)
                .map_err(|_| TraceError::Corrupt {
                    offset: cur.pos(),
                    what: format!("device id {v} exceeds u32"),
                })
        }

        fn u32v(&self, cur: &mut Cursor<'_>) -> Result<u32, TraceError> {
            let v = cur.varint()?;
            u32::try_from(v).map_err(|_| TraceError::Corrupt {
                offset: cur.pos(),
                what: format!("value {v} exceeds u32"),
            })
        }

        fn time(&mut self, cur: &mut Cursor<'_>) -> Result<SimTime, TraceError> {
            let delta = unzigzag(cur.varint()?);
            self.last_time = self.last_time.wrapping_add(delta as u64);
            Ok(SimTime(self.last_time))
        }

        fn launch(&mut self, cur: &mut Cursor<'_>) -> Result<LaunchId, TraceError> {
            let delta = unzigzag(cur.varint()?);
            self.last_launch = self.last_launch.wrapping_add(delta as u64);
            Ok(LaunchId(self.last_launch))
        }

        fn dim3(&self, cur: &mut Cursor<'_>) -> Result<Dim3, TraceError> {
            Ok(Dim3 {
                x: self.u32v(cur)?,
                y: self.u32v(cur)?,
                z: self.u32v(cur)?,
            })
        }

        fn batch(&mut self, cur: &mut Cursor<'_>) -> Result<AccessBatch, TraceError> {
            let launch = self.launch(cur)?;
            let spec_index = cur.varint_usize()?;
            let base = cur.varint()?;
            let len = cur.varint()?;
            let records = cur.varint()?;
            let bytes = cur.varint()?;
            let elem_size = self.u32v(cur)?;
            let kind = kind_from(cur.u8()?, cur.pos())?;
            let space = space_from(cur.u8()?, cur.pos())?;
            let pattern = match cur.u8()? {
                0 => AccessPattern::Sequential,
                1 => AccessPattern::Strided {
                    stride: cur.varint()?,
                },
                2 => AccessPattern::Random,
                b => {
                    return Err(TraceError::Corrupt {
                        offset: cur.pos(),
                        what: format!("bad AccessPattern code {b}"),
                    })
                }
            };
            Ok(AccessBatch {
                launch,
                spec_index,
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
            let t = cur.u8()?;
            let event = match t {
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
                    stream: self.u32v(cur)?,
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
                    direction: direction_from(cur.u8()?, cur.pos())?,
                    bytes: cur.varint()?,
                    at: self.time(cur)?,
                },
                6 => Event::MemSet {
                    device: self.device(cur)?,
                    addr: cur.varint()?,
                    bytes: cur.varint()?,
                    at: self.time(cur)?,
                },
                7 => Event::ResourceAlloc {
                    device: self.device(cur)?,
                    addr: cur.varint()?,
                    bytes: cur.varint()?,
                    managed: bool_from(cur.u8()?, cur.pos())?,
                    at: self.time(cur)?,
                },
                8 => Event::ResourceFree {
                    device: self.device(cur)?,
                    addr: cur.varint()?,
                    bytes: cur.varint()?,
                    at: self.time(cur)?,
                },
                9 => Event::BatchMemOp {
                    device: self.device(cur)?,
                    op: self.sym(cur)?,
                    addr: cur.varint()?,
                    bytes: cur.varint()?,
                    at: self.time(cur)?,
                },
                10 => Event::UvmFault {
                    launch: self.launch(cur)?,
                    device: self.device(cur)?,
                    groups: cur.varint()?,
                    migrated_bytes: cur.varint()?,
                    evicted_bytes: cur.varint()?,
                    stall_ns: cur.varint()?,
                    at: self.time(cur)?,
                },
                11 => Event::UvmPeerMigrate {
                    launch: self.launch(cur)?,
                    src: self.device(cur)?,
                    dst: self.device(cur)?,
                    duplicated_pages: cur.varint()?,
                    invalidated_pages: cur.varint()?,
                    bytes: cur.varint()?,
                    stall_ns: cur.varint()?,
                    at: self.time(cur)?,
                },
                12 => Event::BlockBoundary {
                    launch: self.launch(cur)?,
                    count: cur.varint()?,
                },
                13 => Event::GlobalAccess {
                    launch: self.launch(cur)?,
                    kernel: self.sym(cur)?,
                    batch: self.batch(cur)?,
                },
                14 => Event::SharedAccess {
                    launch: self.launch(cur)?,
                    kernel: self.sym(cur)?,
                    batch: self.batch(cur)?,
                },
                15 => Event::Barrier {
                    launch: self.launch(cur)?,
                    count: cur.varint()?,
                    cluster: bool_from(cur.u8()?, cur.pos())?,
                },
                16 => Event::DeviceFuncCall {
                    launch: self.launch(cur)?,
                    count: cur.varint()?,
                },
                17 => Event::DeviceMalloc {
                    launch: self.launch(cur)?,
                    bytes: cur.varint()?,
                },
                18 => Event::DeviceFree {
                    launch: self.launch(cur)?,
                    bytes: cur.varint()?,
                },
                19 => Event::GlobalToSharedCopy {
                    launch: self.launch(cur)?,
                    bytes: cur.varint()?,
                },
                20 => Event::PipelineOp {
                    launch: self.launch(cur)?,
                    count: cur.varint()?,
                },
                21 => Event::Instructions {
                    launch: self.launch(cur)?,
                    count: cur.varint()?,
                },
                22 => Event::KernelTrace {
                    launch: self.launch(cur)?,
                    kernel: self.sym(cur)?,
                    summary: KernelTraceSummary {
                        global_records: cur.varint()?,
                        shared_records: cur.varint()?,
                        barriers: cur.varint()?,
                        blocks: cur.varint()?,
                        instructions: cur.varint()?,
                        global_bytes: cur.varint()?,
                    },
                },
                23 => {
                    let seq = cur.varint()?;
                    let name = self.sym(cur)?;
                    let device = self.device(cur)?;
                    let frames = cur.varint_usize()?;
                    let mut py_stack = Vec::new();
                    for _ in 0..frames {
                        py_stack.push(PyFrame {
                            file: self.string(cur)?,
                            line: self.u32v(cur)?,
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
                    seq: cur.varint()?,
                    name: self.sym(cur)?,
                    device: self.device(cur)?,
                },
                25 => Event::TensorAlloc {
                    tensor: TensorId(cur.varint()?),
                    addr: cur.varint()?,
                    bytes: cur.varint()?,
                    allocated_total: cur.varint()?,
                    reserved_total: cur.varint()?,
                    device: self.device(cur)?,
                },
                26 => Event::TensorFree {
                    tensor: TensorId(cur.varint()?),
                    addr: cur.varint()?,
                    bytes: cur.varint()?,
                    allocated_total: cur.varint()?,
                    reserved_total: cur.varint()?,
                    device: self.device(cur)?,
                },
                27 => Event::LayerBoundary {
                    name: self.sym(cur)?,
                    index: cur.varint_usize()?,
                    device: self.device(cur)?,
                },
                28 => Event::PassBoundary {
                    pass: pass_from(cur.u8()?, cur.pos())?,
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
                _ => {
                    return Err(TraceError::Corrupt {
                        offset: cur.pos(),
                        what: format!("unknown event tag {t}"),
                    })
                }
            };
            Ok(event)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let access = |launch: u64, kernel: Symbol| Event::GlobalAccess {
            launch: LaunchId(launch),
            kernel,
            batch: AccessBatch {
                launch: LaunchId(launch),
                spec_index: launch as usize,
                base: 0x1000 * launch,
                len: 4096,
                records: 32,
                bytes: 4096,
                elem_size: 4,
                kind: AccessKind::Load,
                space: MemSpace::Global,
                pattern: AccessPattern::Strided { stride: 1 << 40 },
            },
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

    /// Every variant of the table, decoded from a record of zeros — each
    /// field zero or empty — and encoded again. A record shorter than
    /// `MIN_RECORD_BYTES` would make `parse` refuse valid traces of it.
    #[test]
    fn no_record_is_shorter_than_min_record_bytes() {
        macro_rules! count_rows {
            ($($(#[$doc:meta])* $variant:ident [$($columns:tt)*] { $($fields:tt)* })*) => {
                [$(stringify!($variant)),*].len()
            };
        }
        let symbols = [Symbol::intern("")];
        let mut variants = 0;
        for tag in 0..=u8::MAX {
            let mut record = [0u8; 64];
            record[0] = tag;
            let mut cur = Cursor::new(&record);
            let mut events = Vec::new();
            let mut dec = ShardDecoder::new(&symbols);
            if dec.decode_onto(&mut cur, &mut events).is_err() {
                continue;
            }
            variants += 1;
            let mut enc = ShardEncoder::new(DeviceId(0));
            enc.encode(&events[0]);
            let (_, _, _, payload) = enc.into_parts();
            assert_eq!(payload, record[..cur.pos()], "{:?}", events[0]);
            assert!(
                payload.len() >= MIN_RECORD_BYTES,
                "{:?} is a {}-byte record",
                events[0],
                payload.len()
            );
        }
        assert_eq!(variants, pasta_core::event_table!(count_rows));
    }

    #[test]
    fn delta_coding_keeps_steady_streams_tiny() {
        // 100 launch-end records with monotone ids and times: the ids and
        // timestamps should cost ~1-2 bytes each, not 8.
        let mut enc = ShardEncoder::new(DeviceId(0));
        for launch in 0..100u64 {
            enc.encode(&Event::KernelLaunchEnd {
                launch: LaunchId(launch),
                device: DeviceId(0),
                name: "k".into(),
                start: SimTime(1_000_000 + launch * 500),
                end: SimTime(1_000_000 + launch * 500 + 450),
            });
        }
        let (_, _, records, payload) = enc.into_parts();
        assert_eq!(records, 100);
        let per_event = payload.len() as f64 / 100.0;
        assert!(
            per_event < 12.0,
            "steady kernel stream should encode well under 12 B/event, got {per_event}"
        );
    }

    #[test]
    fn uvm_footer_round_trips() {
        let report = UvmReport {
            stats: UvmStats {
                fault_groups: 7,
                demand_pages_in: 1 << 40,
                peer_pages_in: 32,
                duplicates_invalidated: 3,
                ..UvmStats::default()
            },
            per_device: vec![
                (DeviceId(0), UvmStats::default()),
                (
                    DeviceId(1),
                    UvmStats {
                        peer_stall_ns: 9_999,
                        ..UvmStats::default()
                    },
                ),
            ],
            peer_bytes: vec![((DeviceId(0), DeviceId(1)), 1 << 21)],
        };
        let mut buf = Vec::new();
        encode_uvm(&mut buf, &report);
        let mut cur = Cursor::new(&buf);
        let back = decode_uvm(&mut cur).unwrap();
        assert_eq!(back, report);
        assert_eq!(cur.remaining(), 0);
    }
}
