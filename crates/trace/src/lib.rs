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
//! ## On-disk format (version 1)
//!
//! ```text
//! "PASTATRC"  magic, 8 bytes
//! version     u32 LE (= 1)
//! shard_count u32 LE
//! per shard (ascending device id):
//!   device        u32 LE
//!   symbol_count  varint          ── per-shard dictionary snapshot
//!   symbols       (len varint, utf-8 bytes) × symbol_count
//!   record_count  varint
//!   payload_len   varint
//!   payload       records: tag u8, then per-variant fields —
//!                 strings as dictionary ids, timestamps and launch ids
//!                 zigzag-delta varints, enums as single bytes
//! uvm_flag    u8 (0|1), then the UVM footer when 1
//! "PTRCEND\0" end marker, 8 bytes
//! ```
//!
//! All integers outside the fixed header are LEB128 varints; timestamp
//! and launch-id deltas use wrapping arithmetic, so arbitrary — even
//! non-monotone — `u64` sequences round-trip losslessly. The UVM footer
//! exists because the session's residency totals are a *manager overlay*,
//! not events: they cannot be reconstructed from the stream, so the
//! writer snapshots them at [`TraceWriter::finish`].
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
