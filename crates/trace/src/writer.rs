//! Capture: attach a [`TraceWriter`] to a live session, run workloads,
//! and take away a [`Trace`].
//!
//! One recorder is installed per hub shard, so a `run_parallel` session
//! writes one stream per device, stitched under a shared header. The
//! recorder's hot path appends to an in-memory buffer under the shard
//! lock it already holds — no file descriptor, no syscall, no extra
//! locking; all I/O happens once, in [`Trace::save`], after capture.

use crate::codec::{encode_uvm, ShardEncoder};
use crate::error::TraceError;
use crate::wire::{put_varint, varint_len};
use accel_sim::sync::Mutex;
use accel_sim::DeviceId;
use pasta_core::hub::SharedHub;
use pasta_core::processor::EventRecorder;
use pasta_core::report::UvmReport;
use pasta_core::{Event, PastaSession};
use std::fmt;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// First bytes of every trace file.
pub const MAGIC: [u8; 8] = *b"PASTATRC";
/// Trailing end marker — proves the writer finished the file.
pub(crate) const END_MAGIC: [u8; 8] = *b"PTRCEND\0";
/// The on-disk format revision this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// The per-shard [`EventRecorder`] the writer installs: a thin handle to
/// that shard's encoder. `record` runs under the shard lock, so the inner
/// mutex is uncontended — it exists only so the writer can keep a second
/// handle for assembly after detach.
struct ShardRecorder {
    enc: Arc<Mutex<ShardEncoder>>,
}

impl fmt::Debug for ShardRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShardRecorder({} records)", self.enc.lock().records())
    }
}

impl EventRecorder for ShardRecorder {
    fn record(&mut self, event: &Event) {
        self.enc.lock().encode(event);
    }

    fn record_batch(&mut self, events: &[Event]) {
        let mut enc = self.enc.lock();
        for event in events {
            enc.encode(event);
        }
    }
}

/// Captures a session's normalized event streams into a binary trace.
///
/// Capture is crash-consistent: a writer that never reaches
/// [`TraceWriter::finish`] — an early return, a `?`, a contained panic —
/// detaches its recorders when dropped, so the session keeps running
/// without a dangling recorder, and [`TraceWriter::abort`] turns
/// everything captured up to that point into a fully parseable trace
/// (header, streams, end marker — only the UVM footer is absent).
///
/// One writer per session at a time: attaching a second writer replaces
/// the first's recorders, so drop (or finish) the first before attaching
/// another.
///
/// ```no_run
/// # use pasta_core::Pasta;
/// # use pasta_trace::TraceWriter;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut session = Pasta::builder().rtx_3060().build()?;
/// let writer = TraceWriter::attach(&session);
/// // ... run workloads ...
/// let trace = writer.finish(&session);
/// trace.save("run.pastatrace")?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraceWriter {
    shards: Vec<Arc<Mutex<ShardEncoder>>>,
    /// The hub the recorders are attached to — kept so detach works from
    /// `abort` and `Drop` without borrowing the session again.
    hub: SharedHub,
}

impl TraceWriter {
    /// Installs one recorder per device shard of `session`'s hub. Events
    /// processed from here on — including everything a `run_parallel`
    /// region routes through per-lane sinks — are serialized as they are
    /// counted.
    pub fn attach(session: &PastaSession) -> TraceWriter {
        let mut shards = Vec::new();
        session.attach_event_recorders(|device| {
            let enc = Arc::new(Mutex::new(ShardEncoder::new(device)));
            shards.push(Arc::clone(&enc));
            Box::new(ShardRecorder { enc }) as Box<dyn EventRecorder>
        });
        TraceWriter {
            shards,
            hub: Arc::clone(session.hub()),
        }
    }

    /// Events captured so far, across all shards.
    pub fn events_captured(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().records()).sum()
    }

    /// Takes ownership of every shard encoder, leaving the writer empty
    /// (its `Drop` then has nothing to detach).
    fn take_encoders(&mut self) -> Vec<ShardEncoder> {
        std::mem::take(&mut self.shards)
            .into_iter()
            .map(|enc| match Arc::try_unwrap(enc) {
                Ok(m) => m.into_inner(),
                // A recorder handle still holds the encoder — detach did
                // not return it (e.g. a later writer replaced ours). Swap
                // the captured state out under the lock instead.
                Err(shared) => {
                    let mut guard = shared.lock();
                    let device = guard.device;
                    std::mem::replace(&mut *guard, ShardEncoder::new(device))
                }
            })
            .collect()
    }

    /// Stops capture (detaches every recorder), snapshots the session's
    /// UVM report into the trace footer, and assembles the final bytes.
    pub fn finish(mut self, session: &PastaSession) -> Trace {
        drop(session.detach_event_recorders());
        let uvm = session.uvm_report();
        Trace::assemble(self.take_encoders(), uvm.as_ref())
    }

    /// Abort-finalization: stops capture through the hub handle alone and
    /// assembles everything recorded so far into a complete, parseable
    /// trace (no UVM footer — the session is not consulted). Use this on
    /// failure paths where the session is poisoned, mid-salvage, or
    /// simply out of reach.
    pub fn abort(mut self) -> Trace {
        drop(self.hub.detach_recorders());
        Trace::assemble(self.take_encoders(), None)
    }
}

/// A writer dropped without [`TraceWriter::finish`]/[`TraceWriter::abort`]
/// detaches its recorders so the session does not keep encoding into (and
/// allocating for) a trace nobody can ever collect.
impl Drop for TraceWriter {
    fn drop(&mut self) {
        if !self.shards.is_empty() {
            drop(self.hub.detach_recorders());
        }
    }
}

/// An assembled binary trace: header, one stream per device shard, UVM
/// footer, end marker. See the crate docs for the byte layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    bytes: Vec<u8>,
}

impl Trace {
    pub(crate) fn assemble(mut encoders: Vec<ShardEncoder>, uvm: Option<&UvmReport>) -> Trace {
        // Deterministic layout: shards in ascending device order, the same
        // order the hub merges in.
        encoders.sort_by_key(|e| e.device);
        let shards: Vec<_> = encoders.into_iter().map(ShardEncoder::into_parts).collect();
        let mut footer = vec![u8::from(uvm.is_some())];
        if let Some(report) = uvm {
            encode_uvm(&mut footer, report);
        }
        // The payloads are most of a trace: size the buffer for all of it
        // up front instead of regrowing it under them.
        let shard_bytes: usize = shards
            .iter()
            .map(|(_, symbols, records, payload)| {
                let names: usize = symbols
                    .iter()
                    .map(|name| varint_len(name.len() as u64) + name.len())
                    .sum();
                4 + varint_len(symbols.len() as u64)
                    + names
                    + varint_len(*records)
                    + varint_len(payload.len() as u64)
                    + payload.len()
            })
            .sum();
        let total = MAGIC.len() + 4 + 4 + shard_bytes + footer.len() + END_MAGIC.len();
        let mut bytes = Vec::with_capacity(total);
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(shards.len() as u32).to_le_bytes());
        for (device, symbols, records, payload) in shards {
            bytes.extend_from_slice(&device.0.to_le_bytes());
            put_varint(&mut bytes, symbols.len() as u64);
            for name in &symbols {
                put_varint(&mut bytes, name.len() as u64);
                bytes.extend_from_slice(name.as_bytes());
            }
            put_varint(&mut bytes, records);
            put_varint(&mut bytes, payload.len() as u64);
            bytes.extend_from_slice(&payload);
        }
        bytes.extend_from_slice(&footer);
        bytes.extend_from_slice(&END_MAGIC);
        debug_assert_eq!(bytes.len(), total, "assemble sized the trace exactly");
        Trace { bytes }
    }

    /// Encodes pre-collected per-shard event streams directly — the
    /// session-free construction path used by property tests and
    /// benchmarks. Shard order need not be sorted; the layout is
    /// normalized to ascending device id.
    pub fn from_shards<'a, I>(shards: I, uvm: Option<&UvmReport>) -> Trace
    where
        I: IntoIterator<Item = (DeviceId, &'a [Event])>,
    {
        let encoders = shards
            .into_iter()
            .map(|(device, events)| {
                let mut enc = ShardEncoder::new(device);
                for event in events {
                    enc.encode(event);
                }
                enc
            })
            .collect();
        Trace::assemble(encoders, uvm)
    }

    /// The serialized form.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the trace into its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Size on the wire, bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the byte buffer is empty (never true for assembled
    /// traces — the header alone is 16 bytes).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Writes the trace to a file (buffered, one pass).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        let mut out = BufWriter::new(fs::File::create(path)?);
        out.write_all(&self.bytes)?;
        out.flush()?;
        Ok(())
    }

    /// Reads a trace file back. The bytes are not validated until
    /// [`crate::TraceReader::parse`].
    pub fn load(path: impl AsRef<Path>) -> Result<Trace, TraceError> {
        Ok(Trace {
            bytes: fs::read(path)?,
        })
    }
}
