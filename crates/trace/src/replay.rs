//! Offline replay: drive a trace through a tool collection and reproduce
//! the live run's [`MergedReport`] byte-identically.
//!
//! Each trace shard is replayed through a fresh [`EventProcessor`] in
//! recorded order — exactly the events that bumped the live shard's
//! `events_processed`, which is exactly the tool-visible history (the
//! capture hook records before dispatch, and cross-shard range
//! *observation* is bookkeeping that never reaches tools). Runs of
//! launch-scoped fine-grained events go through
//! [`EventProcessor::process_class_batch`], the entry the live sink
//! delivers them through; everything else through
//! [`EventProcessor::process`]. The shards then merge through the same
//! deterministic hub fold as a live session: ascending device id, one
//! fork per extra shard, identical fold order. The UVM slice —
//! session-layer residency totals that never were events — rides in the
//! trace footer and is overlaid the same way the session overlays its
//! manager totals.

use crate::error::TraceError;
use crate::reader::{Framed, TraceReader};
use crate::writer::Trace;
use accel_sim::DeviceId;
use pasta_core::hub::Hub;
use pasta_core::report::UvmReport;
use pasta_core::{Event, EventClass, EventProcessor, MergedReport, ToolCollection};

/// Events [`replay`] decodes at a time: what it holds of a trace beyond
/// the trace's own bytes, however many events the trace has.
const REPLAY_BATCH: usize = 256;

/// Replays `trace` through `tools` without ever holding it decoded: the
/// framing — header, dictionaries, shard lengths, UVM footer, end marker
/// — is validated first, then each shard is decoded a fixed batch at a
/// time into one reused buffer and fed to the tools, so peak memory is
/// the trace's bytes plus one batch.
///
/// On success the merged report is byte-identical to what the captured
/// session's `merged_report()` returned, and `tools` holds the primary
/// shard's analyzed state (so callers can query individual tools after
/// replay, exactly as they would after a live run).
///
/// # Errors
///
/// A framing failure ([`TraceError::BadMagic`],
/// [`TraceError::Truncated`], a lying length, …) or
/// [`TraceError::UnforkableTools`] (the trace has several shards but
/// some tool cannot fork) is returned before any tool sees an event, and
/// `tools` is left untouched. A record that turns out corrupt inside a
/// well-framed payload is found only when decoding reaches it: the error
/// and its offset are those [`TraceReader::parse`] reports, and `tools`
/// comes back holding the primary shard's analysis of every event
/// before the bad record.
pub fn replay(trace: &Trace, tools: &mut ToolCollection) -> Result<MergedReport, TraceError> {
    replay_batched(trace.as_bytes(), tools, REPLAY_BATCH)
}

/// [`replay`] with the batch size the caller's: how tests show that the
/// report does not depend on where batches end.
pub(crate) fn replay_batched(
    bytes: &[u8],
    tools: &mut ToolCollection,
    batch: usize,
) -> Result<MergedReport, TraceError> {
    let framed = Framed::read(bytes)?;
    let devices = framed.summary.shards.iter().map(|shard| shard.device);
    let mut procs = processors(devices, tools)?;
    let mut buf = Vec::new();
    let fed =
        procs
            .iter_mut()
            .zip(framed.shards())
            .try_for_each(|((_, processor), mut records)| loop {
                buf.clear();
                // What decoded ahead of a bad record is replayed all the same.
                let more = records.decode(&mut buf, batch);
                replay_events(processor, &buf);
                if !more? {
                    return Ok(());
                }
            });
    if let Err(e) = fed {
        *tools = std::mem::take(&mut procs[0].1.tools);
        return Err(e);
    }
    merge(procs, framed.summary.uvm, tools)
}

/// Replays an already-parsed trace — the zero-reparse path for driving
/// one decoded trace through several tool suites (or benchmark
/// iterations).
pub fn replay_decoded(
    reader: &TraceReader,
    tools: &mut ToolCollection,
) -> Result<MergedReport, TraceError> {
    let shards = reader.shards();
    if shards.is_empty() {
        // Unreachable via parse() (which rejects zero shards), but a
        // hand-built reader must not panic below.
        return Err(TraceError::Corrupt {
            offset: 0,
            what: "no shards to replay".into(),
        });
    }
    let mut procs = processors(shards.iter().map(|shard| shard.device), tools)?;
    for ((_, processor), shard) in procs.iter_mut().zip(shards) {
        replay_events(processor, &shard.events);
    }
    merge(procs, reader.uvm().cloned(), tools)
}

/// One fresh processor per shard: the caller's collection in the first,
/// a fork of it in every other. The forks are made *before* the caller's
/// collection is taken, so a fork refusal leaves `tools` untouched.
fn processors(
    devices: impl ExactSizeIterator<Item = DeviceId>,
    tools: &mut ToolCollection,
) -> Result<Vec<(DeviceId, EventProcessor)>, TraceError> {
    let mut forks = Vec::new();
    for _ in 1..devices.len() {
        forks.push(tools.fork_all().ok_or(TraceError::UnforkableTools)?);
    }
    let collections = std::iter::once(std::mem::take(tools)).chain(forks);
    Ok(devices
        .zip(collections)
        .map(|(device, tools)| {
            let mut processor = EventProcessor::new();
            processor.tools = tools;
            (device, processor)
        })
        .collect())
}

/// The class whose batch entry the live sink delivers `event` through,
/// if it does: every launch-scoped fine-grained event but the launch's
/// trace summary, which feeds the knob aggregates and so takes
/// [`EventProcessor::process`] live as well.
fn batch_class(event: &Event) -> Option<EventClass> {
    match (event, event.class()) {
        (Event::KernelTrace { .. }, _) => None,
        (_, class @ (EventClass::DeviceAccess | EventClass::DeviceControl)) => Some(class),
        _ => None,
    }
}

/// Feeds `events` to `processor` in order, as maximal same-class runs.
fn replay_events(processor: &mut EventProcessor, events: &[Event]) {
    let mut rest = events;
    while let Some(first) = rest.first() {
        let Some(class) = batch_class(first) else {
            processor.process(first);
            rest = &rest[1..];
            continue;
        };
        let run = rest
            .iter()
            .position(|event| batch_class(event) != Some(class))
            .unwrap_or(rest.len());
        processor.process_class_batch(class, &rest[..run]);
        rest = &rest[run..];
    }
}

/// Folds the replayed shards the way a live hub does, overlays the UVM
/// footer and hands the analyzed primary collection back to the caller.
fn merge(
    procs: Vec<(DeviceId, EventProcessor)>,
    uvm: Option<UvmReport>,
    tools: &mut ToolCollection,
) -> Result<MergedReport, TraceError> {
    let hub = Hub::sharded(procs).map_err(|what| TraceError::Corrupt { offset: 0, what })?;
    let mut report = hub.merged_report();
    report.uvm = uvm;
    // The hub sorts shards ascending — the same order the trace stores
    // them — so the primary shard is the one the caller's tools went into.
    *tools = std::mem::take(&mut hub.primary().tools);
    Ok(report)
}
