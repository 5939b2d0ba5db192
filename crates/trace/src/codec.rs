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
//! The encode match over [`Event`] is deliberately wildcard-free: adding
//! an event variant without teaching the codec about it fails compilation
//! right here, instead of silently dropping the variant from traces.

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
use uvm_sim::UvmStats;

/// One-byte record tags, one per [`Event`] variant.
mod tag {
    pub const DRIVER_API: u8 = 0;
    pub const RUNTIME_API: u8 = 1;
    pub const SYNC: u8 = 2;
    pub const KERNEL_LAUNCH_BEGIN: u8 = 3;
    pub const KERNEL_LAUNCH_END: u8 = 4;
    pub const MEM_COPY: u8 = 5;
    pub const MEM_SET: u8 = 6;
    pub const RESOURCE_ALLOC: u8 = 7;
    pub const RESOURCE_FREE: u8 = 8;
    pub const BATCH_MEM_OP: u8 = 9;
    pub const UVM_FAULT: u8 = 10;
    pub const UVM_PEER_MIGRATE: u8 = 11;
    pub const BLOCK_BOUNDARY: u8 = 12;
    pub const GLOBAL_ACCESS: u8 = 13;
    pub const SHARED_ACCESS: u8 = 14;
    pub const BARRIER: u8 = 15;
    pub const DEVICE_FUNC_CALL: u8 = 16;
    pub const DEVICE_MALLOC: u8 = 17;
    pub const DEVICE_FREE: u8 = 18;
    pub const GLOBAL_TO_SHARED_COPY: u8 = 19;
    pub const PIPELINE_OP: u8 = 20;
    pub const INSTRUCTIONS: u8 = 21;
    pub const KERNEL_TRACE: u8 = 22;
    pub const OP_START: u8 = 23;
    pub const OP_END: u8 = 24;
    pub const TENSOR_ALLOC: u8 = 25;
    pub const TENSOR_FREE: u8 = 26;
    pub const LAYER_BOUNDARY: u8 = 27;
    pub const PASS_BOUNDARY: u8 = 28;
    pub const REGION_START: u8 = 29;
    pub const REGION_END: u8 = 30;
}

fn kind_code(k: AccessKind) -> u8 {
    match k {
        AccessKind::Load => 0,
        AccessKind::Store => 1,
        AccessKind::Atomic => 2,
    }
}

#[inline]
fn kind_from(b: u8, offset: usize) -> Result<AccessKind, TraceError> {
    match b {
        0 => Ok(AccessKind::Load),
        1 => Ok(AccessKind::Store),
        2 => Ok(AccessKind::Atomic),
        _ => Err(corrupt(offset, format_args!("bad AccessKind code {b}"))),
    }
}

fn space_code(s: MemSpace) -> u8 {
    match s {
        MemSpace::Global => 0,
        MemSpace::Shared => 1,
        MemSpace::RemoteShared => 2,
        MemSpace::Local => 3,
    }
}

#[inline]
fn space_from(b: u8, offset: usize) -> Result<MemSpace, TraceError> {
    match b {
        0 => Ok(MemSpace::Global),
        1 => Ok(MemSpace::Shared),
        2 => Ok(MemSpace::RemoteShared),
        3 => Ok(MemSpace::Local),
        _ => Err(corrupt(offset, format_args!("bad MemSpace code {b}"))),
    }
}

fn direction_code(d: CopyDirection) -> u8 {
    match d {
        CopyDirection::HostToDevice => 0,
        CopyDirection::DeviceToHost => 1,
        CopyDirection::DeviceToDevice => 2,
        CopyDirection::HostToHost => 3,
    }
}

#[inline]
fn direction_from(b: u8, offset: usize) -> Result<CopyDirection, TraceError> {
    match b {
        0 => Ok(CopyDirection::HostToDevice),
        1 => Ok(CopyDirection::DeviceToHost),
        2 => Ok(CopyDirection::DeviceToDevice),
        3 => Ok(CopyDirection::HostToHost),
        _ => Err(corrupt(offset, format_args!("bad CopyDirection code {b}"))),
    }
}

fn pass_code(p: Pass) -> u8 {
    match p {
        Pass::Forward => 0,
        Pass::Backward => 1,
        Pass::Optimizer => 2,
    }
}

#[inline]
fn pass_from(b: u8, offset: usize) -> Result<Pass, TraceError> {
    match b {
        0 => Ok(Pass::Forward),
        1 => Ok(Pass::Backward),
        2 => Ok(Pass::Optimizer),
        _ => Err(corrupt(offset, format_args!("bad Pass code {b}"))),
    }
}

#[inline]
fn bool_from(b: u8, offset: usize) -> Result<bool, TraceError> {
    match b {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(corrupt(offset, format_args!("bad bool byte {b}"))),
    }
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

    /// Writes the id of an interned name.
    fn sym(&mut self, s: &Symbol) {
        let addr = s.as_str().as_ptr() as usize;
        if addr != self.last_sym.0 {
            let id = match self.seen.get(&addr) {
                Some(&id) => id,
                None => {
                    let id = self.id_of(s);
                    self.seen.insert(addr, id);
                    id
                }
            };
            self.last_sym = (addr, id);
        }
        self.v(self.last_sym.1);
    }

    /// Writes the id of a string that is not interned (Python frames).
    fn text(&mut self, s: &str) {
        let id = self.id_of(s);
        self.v(id);
    }

    fn time(&mut self, t: SimTime) {
        let delta = t.0.wrapping_sub(self.last_time) as i64;
        self.last_time = t.0;
        self.v(zigzag(delta));
    }

    /// The zigzag-mapped step from the previous launch id to `l`.
    fn launch_delta(&mut self, l: LaunchId) -> u64 {
        let delta = l.0.wrapping_sub(self.last_launch) as i64;
        self.last_launch = l.0;
        zigzag(delta)
    }

    fn launch(&mut self, l: LaunchId) {
        let delta = self.launch_delta(l);
        self.v(delta);
    }

    fn dim3(&mut self, d: Dim3) {
        self.v(d.x.into());
        self.v(d.y.into());
        self.v(d.z.into());
    }

    fn batch(&mut self, b: &AccessBatch) {
        // Eight varints (one of them a `u32`) and three code bytes.
        let mut rec = Scratch::<{ 7 * 10 + 5 + 3 }>::new();
        rec.varint(self.launch_delta(b.launch));
        rec.varint(b.spec_index as u64);
        rec.varint(b.base);
        rec.varint(b.len);
        rec.varint(b.records);
        rec.varint(b.bytes);
        rec.varint(b.elem_size.into());
        rec.byte(kind_code(b.kind));
        rec.byte(space_code(b.space));
        match b.pattern {
            AccessPattern::Sequential => rec.byte(0),
            AccessPattern::Strided { stride } => {
                rec.byte(1);
                rec.varint(stride);
            }
            AccessPattern::Random => rec.byte(2),
        }
        self.payload.extend_from_slice(rec.as_slice());
    }

    /// Appends one event. The match is exhaustive *without* a wildcard on
    /// purpose — a new [`Event`] variant must get a codec arm (and a tag)
    /// before it compiles, so variants can never silently vanish from
    /// traces.
    pub(crate) fn encode(&mut self, event: &Event) {
        self.records += 1;
        match event {
            Event::DriverApi { name, device, at } => {
                self.payload.push(tag::DRIVER_API);
                self.sym(name);
                self.v(device.0.into());
                self.time(*at);
            }
            Event::RuntimeApi { name, device, at } => {
                self.payload.push(tag::RUNTIME_API);
                self.sym(name);
                self.v(device.0.into());
                self.time(*at);
            }
            Event::Sync { device, at } => {
                self.payload.push(tag::SYNC);
                self.v(device.0.into());
                self.time(*at);
            }
            Event::KernelLaunchBegin {
                launch,
                device,
                stream,
                name,
                grid,
                block,
            } => {
                self.payload.push(tag::KERNEL_LAUNCH_BEGIN);
                self.launch(*launch);
                self.v(device.0.into());
                self.v((*stream).into());
                self.sym(name);
                self.dim3(*grid);
                self.dim3(*block);
            }
            Event::KernelLaunchEnd {
                launch,
                device,
                name,
                start,
                end,
            } => {
                self.payload.push(tag::KERNEL_LAUNCH_END);
                self.launch(*launch);
                self.v(device.0.into());
                self.sym(name);
                self.time(*start);
                self.time(*end);
            }
            Event::MemCopy {
                device,
                direction,
                bytes,
                at,
            } => {
                self.payload.push(tag::MEM_COPY);
                self.v(device.0.into());
                self.payload.push(direction_code(*direction));
                self.v(*bytes);
                self.time(*at);
            }
            Event::MemSet {
                device,
                addr,
                bytes,
                at,
            } => {
                self.payload.push(tag::MEM_SET);
                self.v(device.0.into());
                self.v(*addr);
                self.v(*bytes);
                self.time(*at);
            }
            Event::ResourceAlloc {
                device,
                addr,
                bytes,
                managed,
                at,
            } => {
                self.payload.push(tag::RESOURCE_ALLOC);
                self.v(device.0.into());
                self.v(*addr);
                self.v(*bytes);
                self.payload.push(u8::from(*managed));
                self.time(*at);
            }
            Event::ResourceFree {
                device,
                addr,
                bytes,
                at,
            } => {
                self.payload.push(tag::RESOURCE_FREE);
                self.v(device.0.into());
                self.v(*addr);
                self.v(*bytes);
                self.time(*at);
            }
            Event::BatchMemOp {
                device,
                op,
                addr,
                bytes,
                at,
            } => {
                self.payload.push(tag::BATCH_MEM_OP);
                self.v(device.0.into());
                self.sym(op);
                self.v(*addr);
                self.v(*bytes);
                self.time(*at);
            }
            Event::UvmFault {
                launch,
                device,
                groups,
                migrated_bytes,
                evicted_bytes,
                stall_ns,
                at,
            } => {
                self.payload.push(tag::UVM_FAULT);
                self.launch(*launch);
                self.v(device.0.into());
                self.v(*groups);
                self.v(*migrated_bytes);
                self.v(*evicted_bytes);
                self.v(*stall_ns);
                self.time(*at);
            }
            Event::UvmPeerMigrate {
                launch,
                src,
                dst,
                duplicated_pages,
                invalidated_pages,
                bytes,
                stall_ns,
                at,
            } => {
                self.payload.push(tag::UVM_PEER_MIGRATE);
                self.launch(*launch);
                self.v(src.0.into());
                self.v(dst.0.into());
                self.v(*duplicated_pages);
                self.v(*invalidated_pages);
                self.v(*bytes);
                self.v(*stall_ns);
                self.time(*at);
            }
            Event::BlockBoundary { launch, count } => {
                self.payload.push(tag::BLOCK_BOUNDARY);
                self.launch(*launch);
                self.v(*count);
            }
            Event::GlobalAccess {
                launch,
                kernel,
                batch,
            } => {
                self.payload.push(tag::GLOBAL_ACCESS);
                self.launch(*launch);
                self.sym(kernel);
                self.batch(batch);
            }
            Event::SharedAccess {
                launch,
                kernel,
                batch,
            } => {
                self.payload.push(tag::SHARED_ACCESS);
                self.launch(*launch);
                self.sym(kernel);
                self.batch(batch);
            }
            Event::Barrier {
                launch,
                count,
                cluster,
            } => {
                self.payload.push(tag::BARRIER);
                self.launch(*launch);
                self.v(*count);
                self.payload.push(u8::from(*cluster));
            }
            Event::DeviceFuncCall { launch, count } => {
                self.payload.push(tag::DEVICE_FUNC_CALL);
                self.launch(*launch);
                self.v(*count);
            }
            Event::DeviceMalloc { launch, bytes } => {
                self.payload.push(tag::DEVICE_MALLOC);
                self.launch(*launch);
                self.v(*bytes);
            }
            Event::DeviceFree { launch, bytes } => {
                self.payload.push(tag::DEVICE_FREE);
                self.launch(*launch);
                self.v(*bytes);
            }
            Event::GlobalToSharedCopy { launch, bytes } => {
                self.payload.push(tag::GLOBAL_TO_SHARED_COPY);
                self.launch(*launch);
                self.v(*bytes);
            }
            Event::PipelineOp { launch, count } => {
                self.payload.push(tag::PIPELINE_OP);
                self.launch(*launch);
                self.v(*count);
            }
            Event::Instructions { launch, count } => {
                self.payload.push(tag::INSTRUCTIONS);
                self.launch(*launch);
                self.v(*count);
            }
            Event::KernelTrace {
                launch,
                kernel,
                summary,
            } => {
                self.payload.push(tag::KERNEL_TRACE);
                self.launch(*launch);
                self.sym(kernel);
                self.v(summary.global_records);
                self.v(summary.shared_records);
                self.v(summary.barriers);
                self.v(summary.blocks);
                self.v(summary.instructions);
                self.v(summary.global_bytes);
            }
            Event::OpStart {
                seq,
                name,
                device,
                py_stack,
            } => {
                self.payload.push(tag::OP_START);
                self.v(*seq);
                self.sym(name);
                self.v(device.0.into());
                self.v(py_stack.len() as u64);
                for frame in py_stack.iter() {
                    self.text(&frame.file);
                    self.v(frame.line.into());
                    self.text(&frame.func);
                }
            }
            Event::OpEnd { seq, name, device } => {
                self.payload.push(tag::OP_END);
                self.v(*seq);
                self.sym(name);
                self.v(device.0.into());
            }
            Event::TensorAlloc {
                tensor,
                addr,
                bytes,
                allocated_total,
                reserved_total,
                device,
            } => {
                self.payload.push(tag::TENSOR_ALLOC);
                self.v(tensor.0);
                self.v(*addr);
                self.v(*bytes);
                self.v(*allocated_total);
                self.v(*reserved_total);
                self.v(device.0.into());
            }
            Event::TensorFree {
                tensor,
                addr,
                bytes,
                allocated_total,
                reserved_total,
                device,
            } => {
                self.payload.push(tag::TENSOR_FREE);
                self.v(tensor.0);
                self.v(*addr);
                self.v(*bytes);
                self.v(*allocated_total);
                self.v(*reserved_total);
                self.v(device.0.into());
            }
            Event::LayerBoundary {
                name,
                index,
                device,
            } => {
                self.payload.push(tag::LAYER_BOUNDARY);
                self.sym(name);
                self.v(*index as u64);
                self.v(device.0.into());
            }
            Event::PassBoundary { pass, device } => {
                self.payload.push(tag::PASS_BOUNDARY);
                self.payload.push(pass_code(*pass));
                self.v(device.0.into());
            }
            Event::RegionStart { label, device } => {
                self.payload.push(tag::REGION_START);
                self.sym(label);
                self.v(device.0.into());
            }
            Event::RegionEnd { label, device } => {
                self.payload.push(tag::REGION_END);
                self.sym(label);
                self.v(device.0.into());
            }
        }
    }
}

/// Bytes of the shortest record: a tag and two one-byte fields (`Sync`,
/// `BlockBoundary`, `PassBoundary`, …). A shard holds at most its payload
/// length over this many records.
pub(crate) const MIN_RECORD_BYTES: usize = 3;

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

#[inline]
fn dim3(cur: &mut Cursor<'_>) -> Result<Dim3, TraceError> {
    Ok(Dim3 {
        x: u32v(cur)?,
        y: u32v(cur)?,
        z: u32v(cur)?,
    })
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

    #[inline]
    fn sym(&self, cur: &mut Cursor<'_>) -> Result<Symbol, TraceError> {
        let id = cur.varint_usize()?;
        self.symbols.get(id).copied().ok_or_else(|| {
            corrupt(
                cur.pos(),
                format_args!(
                    "symbol id {id} out of range (dictionary has {})",
                    self.symbols.len()
                ),
            )
        })
    }

    fn string(&self, cur: &mut Cursor<'_>) -> Result<String, TraceError> {
        Ok(self.sym(cur)?.as_str().to_owned())
    }

    #[inline]
    fn time(&mut self, cur: &mut Cursor<'_>) -> Result<SimTime, TraceError> {
        let delta = unzigzag(cur.varint()?);
        self.last_time = self.last_time.wrapping_add(delta as u64);
        Ok(SimTime(self.last_time))
    }

    #[inline]
    fn launch(&mut self, cur: &mut Cursor<'_>) -> Result<LaunchId, TraceError> {
        let delta = unzigzag(cur.varint()?);
        self.last_launch = self.last_launch.wrapping_add(delta as u64);
        Ok(LaunchId(self.last_launch))
    }

    #[inline]
    fn batch(&mut self, cur: &mut Cursor<'_>) -> Result<AccessBatch, TraceError> {
        let launch = self.launch(cur)?;
        let spec_index = cur.varint_usize()?;
        let base = cur.varint()?;
        let len = cur.varint()?;
        let records = cur.varint()?;
        let bytes = cur.varint()?;
        let elem_size = u32v(cur)?;
        let kind = kind_from(cur.u8()?, cur.pos())?;
        let space = space_from(cur.u8()?, cur.pos())?;
        let pattern = match cur.u8()? {
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

    /// Decodes the next record onto the end of `out`. Each arm reads its
    /// fields and pushes the event they make, so the event is written once,
    /// into the vector's spare capacity — it is never returned by value.
    #[inline(always)]
    fn decode_onto(
        &mut self,
        cur: &mut Cursor<'_>,
        out: &mut Vec<Event>,
    ) -> Result<(), TraceError> {
        let t = cur.u8()?;
        match t {
            tag::DRIVER_API => out.push(Event::DriverApi {
                name: self.sym(cur)?,
                device: device(cur)?,
                at: self.time(cur)?,
            }),
            tag::RUNTIME_API => out.push(Event::RuntimeApi {
                name: self.sym(cur)?,
                device: device(cur)?,
                at: self.time(cur)?,
            }),
            tag::SYNC => out.push(Event::Sync {
                device: device(cur)?,
                at: self.time(cur)?,
            }),
            tag::KERNEL_LAUNCH_BEGIN => out.push(Event::KernelLaunchBegin {
                launch: self.launch(cur)?,
                device: device(cur)?,
                stream: u32v(cur)?,
                name: self.sym(cur)?,
                grid: dim3(cur)?,
                block: dim3(cur)?,
            }),
            tag::KERNEL_LAUNCH_END => out.push(Event::KernelLaunchEnd {
                launch: self.launch(cur)?,
                device: device(cur)?,
                name: self.sym(cur)?,
                start: self.time(cur)?,
                end: self.time(cur)?,
            }),
            tag::MEM_COPY => out.push(Event::MemCopy {
                device: device(cur)?,
                direction: direction_from(cur.u8()?, cur.pos())?,
                bytes: cur.varint()?,
                at: self.time(cur)?,
            }),
            tag::MEM_SET => out.push(Event::MemSet {
                device: device(cur)?,
                addr: cur.varint()?,
                bytes: cur.varint()?,
                at: self.time(cur)?,
            }),
            tag::RESOURCE_ALLOC => out.push(Event::ResourceAlloc {
                device: device(cur)?,
                addr: cur.varint()?,
                bytes: cur.varint()?,
                managed: bool_from(cur.u8()?, cur.pos())?,
                at: self.time(cur)?,
            }),
            tag::RESOURCE_FREE => out.push(Event::ResourceFree {
                device: device(cur)?,
                addr: cur.varint()?,
                bytes: cur.varint()?,
                at: self.time(cur)?,
            }),
            tag::BATCH_MEM_OP => out.push(Event::BatchMemOp {
                device: device(cur)?,
                op: self.sym(cur)?,
                addr: cur.varint()?,
                bytes: cur.varint()?,
                at: self.time(cur)?,
            }),
            tag::UVM_FAULT => out.push(Event::UvmFault {
                launch: self.launch(cur)?,
                device: device(cur)?,
                groups: cur.varint()?,
                migrated_bytes: cur.varint()?,
                evicted_bytes: cur.varint()?,
                stall_ns: cur.varint()?,
                at: self.time(cur)?,
            }),
            tag::UVM_PEER_MIGRATE => out.push(Event::UvmPeerMigrate {
                launch: self.launch(cur)?,
                src: device(cur)?,
                dst: device(cur)?,
                duplicated_pages: cur.varint()?,
                invalidated_pages: cur.varint()?,
                bytes: cur.varint()?,
                stall_ns: cur.varint()?,
                at: self.time(cur)?,
            }),
            tag::BLOCK_BOUNDARY => out.push(Event::BlockBoundary {
                launch: self.launch(cur)?,
                count: cur.varint()?,
            }),
            tag::GLOBAL_ACCESS => out.push(Event::GlobalAccess {
                launch: self.launch(cur)?,
                kernel: self.sym(cur)?,
                batch: self.batch(cur)?,
            }),
            tag::SHARED_ACCESS => out.push(Event::SharedAccess {
                launch: self.launch(cur)?,
                kernel: self.sym(cur)?,
                batch: self.batch(cur)?,
            }),
            tag::BARRIER => out.push(Event::Barrier {
                launch: self.launch(cur)?,
                count: cur.varint()?,
                cluster: bool_from(cur.u8()?, cur.pos())?,
            }),
            tag::DEVICE_FUNC_CALL => out.push(Event::DeviceFuncCall {
                launch: self.launch(cur)?,
                count: cur.varint()?,
            }),
            tag::DEVICE_MALLOC => out.push(Event::DeviceMalloc {
                launch: self.launch(cur)?,
                bytes: cur.varint()?,
            }),
            tag::DEVICE_FREE => out.push(Event::DeviceFree {
                launch: self.launch(cur)?,
                bytes: cur.varint()?,
            }),
            tag::GLOBAL_TO_SHARED_COPY => out.push(Event::GlobalToSharedCopy {
                launch: self.launch(cur)?,
                bytes: cur.varint()?,
            }),
            tag::PIPELINE_OP => out.push(Event::PipelineOp {
                launch: self.launch(cur)?,
                count: cur.varint()?,
            }),
            tag::INSTRUCTIONS => out.push(Event::Instructions {
                launch: self.launch(cur)?,
                count: cur.varint()?,
            }),
            tag::KERNEL_TRACE => out.push(Event::KernelTrace {
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
            }),
            tag::OP_START => {
                let seq = cur.varint()?;
                let name = self.sym(cur)?;
                let device = device(cur)?;
                let frames = cur.varint_usize()?;
                let mut py_stack = Vec::new();
                for _ in 0..frames {
                    py_stack.push(PyFrame {
                        file: self.string(cur)?,
                        line: u32v(cur)?,
                        func: self.string(cur)?,
                    });
                }
                out.push(Event::OpStart {
                    seq,
                    name,
                    device,
                    py_stack: py_stack.into(),
                })
            }
            tag::OP_END => out.push(Event::OpEnd {
                seq: cur.varint()?,
                name: self.sym(cur)?,
                device: device(cur)?,
            }),
            tag::TENSOR_ALLOC => out.push(Event::TensorAlloc {
                tensor: TensorId(cur.varint()?),
                addr: cur.varint()?,
                bytes: cur.varint()?,
                allocated_total: cur.varint()?,
                reserved_total: cur.varint()?,
                device: device(cur)?,
            }),
            tag::TENSOR_FREE => out.push(Event::TensorFree {
                tensor: TensorId(cur.varint()?),
                addr: cur.varint()?,
                bytes: cur.varint()?,
                allocated_total: cur.varint()?,
                reserved_total: cur.varint()?,
                device: device(cur)?,
            }),
            tag::LAYER_BOUNDARY => out.push(Event::LayerBoundary {
                name: self.sym(cur)?,
                index: cur.varint_usize()?,
                device: device(cur)?,
            }),
            tag::PASS_BOUNDARY => out.push(Event::PassBoundary {
                pass: pass_from(cur.u8()?, cur.pos())?,
                device: device(cur)?,
            }),
            tag::REGION_START => out.push(Event::RegionStart {
                label: self.sym(cur)?,
                device: device(cur)?,
            }),
            tag::REGION_END => out.push(Event::RegionEnd {
                label: self.sym(cur)?,
                device: device(cur)?,
            }),
            _ => return Err(corrupt(cur.pos(), format_args!("unknown event tag {t}"))),
        };
        Ok(())
    }
}

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

    use super::tag;
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
                tag::DRIVER_API => Event::DriverApi {
                    name: self.sym(cur)?,
                    device: self.device(cur)?,
                    at: self.time(cur)?,
                },
                tag::RUNTIME_API => Event::RuntimeApi {
                    name: self.sym(cur)?,
                    device: self.device(cur)?,
                    at: self.time(cur)?,
                },
                tag::SYNC => Event::Sync {
                    device: self.device(cur)?,
                    at: self.time(cur)?,
                },
                tag::KERNEL_LAUNCH_BEGIN => Event::KernelLaunchBegin {
                    launch: self.launch(cur)?,
                    device: self.device(cur)?,
                    stream: self.u32v(cur)?,
                    name: self.sym(cur)?,
                    grid: self.dim3(cur)?,
                    block: self.dim3(cur)?,
                },
                tag::KERNEL_LAUNCH_END => Event::KernelLaunchEnd {
                    launch: self.launch(cur)?,
                    device: self.device(cur)?,
                    name: self.sym(cur)?,
                    start: self.time(cur)?,
                    end: self.time(cur)?,
                },
                tag::MEM_COPY => Event::MemCopy {
                    device: self.device(cur)?,
                    direction: direction_from(cur.u8()?, cur.pos())?,
                    bytes: cur.varint()?,
                    at: self.time(cur)?,
                },
                tag::MEM_SET => Event::MemSet {
                    device: self.device(cur)?,
                    addr: cur.varint()?,
                    bytes: cur.varint()?,
                    at: self.time(cur)?,
                },
                tag::RESOURCE_ALLOC => Event::ResourceAlloc {
                    device: self.device(cur)?,
                    addr: cur.varint()?,
                    bytes: cur.varint()?,
                    managed: bool_from(cur.u8()?, cur.pos())?,
                    at: self.time(cur)?,
                },
                tag::RESOURCE_FREE => Event::ResourceFree {
                    device: self.device(cur)?,
                    addr: cur.varint()?,
                    bytes: cur.varint()?,
                    at: self.time(cur)?,
                },
                tag::BATCH_MEM_OP => Event::BatchMemOp {
                    device: self.device(cur)?,
                    op: self.sym(cur)?,
                    addr: cur.varint()?,
                    bytes: cur.varint()?,
                    at: self.time(cur)?,
                },
                tag::UVM_FAULT => Event::UvmFault {
                    launch: self.launch(cur)?,
                    device: self.device(cur)?,
                    groups: cur.varint()?,
                    migrated_bytes: cur.varint()?,
                    evicted_bytes: cur.varint()?,
                    stall_ns: cur.varint()?,
                    at: self.time(cur)?,
                },
                tag::UVM_PEER_MIGRATE => Event::UvmPeerMigrate {
                    launch: self.launch(cur)?,
                    src: self.device(cur)?,
                    dst: self.device(cur)?,
                    duplicated_pages: cur.varint()?,
                    invalidated_pages: cur.varint()?,
                    bytes: cur.varint()?,
                    stall_ns: cur.varint()?,
                    at: self.time(cur)?,
                },
                tag::BLOCK_BOUNDARY => Event::BlockBoundary {
                    launch: self.launch(cur)?,
                    count: cur.varint()?,
                },
                tag::GLOBAL_ACCESS => Event::GlobalAccess {
                    launch: self.launch(cur)?,
                    kernel: self.sym(cur)?,
                    batch: self.batch(cur)?,
                },
                tag::SHARED_ACCESS => Event::SharedAccess {
                    launch: self.launch(cur)?,
                    kernel: self.sym(cur)?,
                    batch: self.batch(cur)?,
                },
                tag::BARRIER => Event::Barrier {
                    launch: self.launch(cur)?,
                    count: cur.varint()?,
                    cluster: bool_from(cur.u8()?, cur.pos())?,
                },
                tag::DEVICE_FUNC_CALL => Event::DeviceFuncCall {
                    launch: self.launch(cur)?,
                    count: cur.varint()?,
                },
                tag::DEVICE_MALLOC => Event::DeviceMalloc {
                    launch: self.launch(cur)?,
                    bytes: cur.varint()?,
                },
                tag::DEVICE_FREE => Event::DeviceFree {
                    launch: self.launch(cur)?,
                    bytes: cur.varint()?,
                },
                tag::GLOBAL_TO_SHARED_COPY => Event::GlobalToSharedCopy {
                    launch: self.launch(cur)?,
                    bytes: cur.varint()?,
                },
                tag::PIPELINE_OP => Event::PipelineOp {
                    launch: self.launch(cur)?,
                    count: cur.varint()?,
                },
                tag::INSTRUCTIONS => Event::Instructions {
                    launch: self.launch(cur)?,
                    count: cur.varint()?,
                },
                tag::KERNEL_TRACE => Event::KernelTrace {
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
                tag::OP_START => {
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
                tag::OP_END => Event::OpEnd {
                    seq: cur.varint()?,
                    name: self.sym(cur)?,
                    device: self.device(cur)?,
                },
                tag::TENSOR_ALLOC => Event::TensorAlloc {
                    tensor: TensorId(cur.varint()?),
                    addr: cur.varint()?,
                    bytes: cur.varint()?,
                    allocated_total: cur.varint()?,
                    reserved_total: cur.varint()?,
                    device: self.device(cur)?,
                },
                tag::TENSOR_FREE => Event::TensorFree {
                    tensor: TensorId(cur.varint()?),
                    addr: cur.varint()?,
                    bytes: cur.varint()?,
                    allocated_total: cur.varint()?,
                    reserved_total: cur.varint()?,
                    device: self.device(cur)?,
                },
                tag::LAYER_BOUNDARY => Event::LayerBoundary {
                    name: self.sym(cur)?,
                    index: cur.varint_usize()?,
                    device: self.device(cur)?,
                },
                tag::PASS_BOUNDARY => Event::PassBoundary {
                    pass: pass_from(cur.u8()?, cur.pos())?,
                    device: self.device(cur)?,
                },
                tag::REGION_START => Event::RegionStart {
                    label: self.sym(cur)?,
                    device: self.device(cur)?,
                },
                tag::REGION_END => Event::RegionEnd {
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
