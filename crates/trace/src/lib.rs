//! # pasta-trace — binary trace capture and offline replay
//!
//! Live PASTA profiling couples two costs: *capture* (normalizing and
//! dispatching events while the workload runs) and *analysis* (the tools
//! consuming them). This crate decouples them. A [`TraceWriter`]
//! attached to a session serializes the full normalized [`Event`] stream
//! — one stream per device shard, so `run_parallel` captures are stitched
//! under one shared header — into a compact binary [`Trace`]. Later, and
//! as many times as you like, [`replay`] drives the trace through any
//! [`ToolCollection`] and reproduces a [`MergedReport`] byte-identical to
//! what the live session produced: same tool reports, same per-device
//! breakdown, same event counts, same UVM slice.
//!
//! ## On-disk format (version 2)
//!
//! Every integer is fixed-width little-endian; there are no varints.
//!
//! ```text
//! "PASTATRC"  magic, 8 bytes
//! version     u32 (= 2; any other is UnsupportedVersion)
//! shard_count u32
//! per shard (ascending device id):
//!   device        u32
//!   symbol_count  u32             ── per-shard dictionary snapshot
//!   symbols       (len u32, utf-8 bytes) × symbol_count
//!   record_count  u64
//!   payload_len   u64
//!   payload       records, back to back
//! uvm_flag    u8 (0|1), then the UVM footer when 1:
//!   totals 11 × u64, device count u32, (device u32, 11 × u64) × count,
//!   pair count u32, (src u32, dst u32, bytes u64) × count
//! "PTRCEND\0" end marker, 8 bytes
//! ```
//!
//! A record is its variant's row of the event table: a tag byte, then
//! each field in declaration order at a fixed width.
//!
//! | field type | bytes |
//! |---|---|
//! | `SimTime`, `LaunchId`, `u64`, `usize`, `TensorId` | 8, absolute |
//! | `Symbol` (a name) | 4, an id into the shard's dictionary |
//! | `DeviceId`, `StreamId` (`u32`) | 4 |
//! | `Dim3` | 12 |
//! | `KernelTraceSummary` | 48 |
//! | enums (`AccessKind`, `MemSpace`, `CopyDirection`, `Pass`), `bool` | 1 code byte |
//! | `AccessBatch` | 43: spec index low `u32`, base, len, records, bytes, elem size, kind, space, pattern |
//! | `Arc<[PyFrame]>` | 4, a frame count; the frames follow the record as a 12-byte-each tail (file id, line, function id) |
//!
//! So the tag fixes the width: `PassBoundary` is the shortest record (6
//! bytes), a flood's access record is 56. An access batch whose launch is
//! not its record's, whose spec index needs more than 32 bits or whose
//! pattern is strided is written in full: the tag gets bit `0x80` and the
//! batch 20 bytes more (its launch, the index's high `u32`, the stride), so
//! arbitrary events round-trip while a live stream pays only for what it
//! carries. The UVM footer exists because the session's residency totals
//! are a *manager overlay*, not events: they cannot be reconstructed from
//! the stream, so the writer snapshots them at [`TraceWriter::finish`].
//! A version-1 file (per-field varints and zigzag time deltas) is
//! refused with [`TraceError::UnsupportedVersion`]; no reader of it is
//! kept.
//!
//! ## Capture cost
//!
//! The hot path appends to an in-memory buffer under the shard lock the
//! processor already holds — no syscalls, no extra locking. With no
//! writer attached the event path pays exactly one `Option` discriminant
//! check (see the gating regression test in the workspace root).
//!
//! ## Reading
//!
//! Every reader walks the framing first — header, dictionaries, shard
//! lengths, footer, end marker — so a truncated trace is refused before
//! a record is decoded. [`TraceReader::scan`] returns what that walk
//! found (the shard headers; nothing decoded), [`TraceReader::parse`]
//! decodes every shard for [`replay_decoded`], and [`replay`] decodes a
//! fixed batch at a time into one reused buffer and feeds it straight to
//! the tools: its memory is the trace's bytes plus one batch.
//!
//! ## Example
//!
//! ```
//! use dl_framework::models::{ModelZoo, RunKind};
//! use pasta_core::tool::LaunchCounter;
//! use pasta_core::{ModelWorkload, Pasta, ToolCollection};
//! use pasta_trace::{replay, TraceWriter};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut session = Pasta::builder()
//!     .rtx_3060()
//!     .tool(LaunchCounter::default())
//!     .build()?;
//! let writer = TraceWriter::attach(&session);
//! session.run(&mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(8))?;
//! let live = session.merged_report();
//! let trace = writer.finish(&session);
//!
//! let mut tools = ToolCollection::new();
//! tools.register(Box::<LaunchCounter>::default());
//! let replayed = replay(&trace, &mut tools)?;
//! assert_eq!(live, replayed);
//! # Ok(())
//! # }
//! ```
//!
//! [`Event`]: pasta_core::Event
//! [`ToolCollection`]: pasta_core::ToolCollection
//! [`MergedReport`]: pasta_core::MergedReport

mod codec;
mod error;
mod footer;
mod reader;
mod replay;
mod wire;
mod writer;

pub use error::TraceError;
pub use reader::{ShardSummary, TraceReader, TraceShard, TraceSummary};
pub use replay::{replay, replay_decoded};
pub use writer::{Trace, TraceWriter, FORMAT_VERSION};

#[cfg(test)]
mod read_path_tests;
