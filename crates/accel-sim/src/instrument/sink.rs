//! Device-trace consumer interface.
//!
//! A [`DeviceTraceSink`] receives the fine-grained device events that an
//! instrumentation backend collects — access batches, barrier counts, block
//! boundaries, per-kernel summaries. The PASTA event processor implements
//! this trait; the vendor profilers ([`super::TraceProfiler`]) forward into
//! it after charging instrumentation costs to the simulated clocks.

use crate::symbol::Symbol;
use crate::{AccessBatch, DeviceId, Dim3, KernelTraceSummary, LaunchId, ProbeConfig, StreamId};

/// Per-launch context handed to every probe and sink callback.
///
/// The engine builds it once per probed launch and the whole chain —
/// [`crate::DeviceProbe`], [`super::TraceProfiler`], the sink — borrows
/// that one value. Cloning is cheap: the kernel name is an interned
/// [`Symbol`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCtx {
    /// Launch sequence number ("grid id").
    pub launch: LaunchId,
    /// Device ordinal.
    pub device: DeviceId,
    /// Stream.
    pub stream: StreamId,
    /// Kernel symbol name, interned once per launch.
    pub name: Symbol,
    /// Grid dimensions.
    pub grid: Dim3,
    /// Block dimensions.
    pub block: Dim3,
}

/// Consumer of fine-grained device trace events.
///
/// All methods default to no-ops; a sink overrides what it needs, mirroring
/// the PASTA tool-template ergonomics.
pub trait DeviceTraceSink: Send {
    /// Called before a kernel runs; returns which event classes to
    /// instrument for this launch (range filtering hooks in here).
    fn on_kernel_begin(&mut self, ctx: &TraceCtx) -> ProbeConfig {
        let _ = ctx;
        ProbeConfig::all()
    }

    /// One batch of warp-level memory access records.
    fn on_batch(&mut self, ctx: &TraceCtx, batch: &AccessBatch) {
        let _ = (ctx, batch);
    }

    /// A launch's batches, in stream order — what a profiler delivers. A
    /// sink with per-call costs (a gate, a lock) overrides this to pay
    /// them once; the default hands the batches to
    /// [`DeviceTraceSink::on_batch`] one by one.
    fn on_batches(&mut self, ctx: &TraceCtx, batches: &[AccessBatch]) {
        for batch in batches {
            self.on_batch(ctx, batch);
        }
    }

    /// Barrier executions in the launch.
    fn on_barriers(&mut self, ctx: &TraceCtx, count: u64) {
        let _ = (ctx, count);
    }

    /// Thread-block entry/exit pairs in the launch.
    fn on_blocks(&mut self, ctx: &TraceCtx, count: u64) {
        let _ = (ctx, count);
    }

    /// Dynamic-instruction count (full-coverage backends only).
    fn on_instructions(&mut self, ctx: &TraceCtx, count: u64) {
        let _ = (ctx, count);
    }

    /// Kernel finished; summary of everything it emitted.
    fn on_kernel_end(&mut self, ctx: &TraceCtx, summary: &KernelTraceSummary) {
        let _ = (ctx, summary);
    }
}

/// A sink that discards everything (profiling without a consumer).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl DeviceTraceSink for NullSink {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_instruments_everything_by_default() {
        let mut s = NullSink;
        let ctx = TraceCtx {
            launch: LaunchId(0),
            device: DeviceId(0),
            stream: 0,
            name: "k".into(),
            grid: Dim3::linear(1),
            block: Dim3::linear(32),
        };
        assert_eq!(s.on_kernel_begin(&ctx), ProbeConfig::all());
    }

    #[test]
    fn sink_is_object_safe() {
        let _: Box<dyn DeviceTraceSink> = Box::new(NullSink);
    }
}
