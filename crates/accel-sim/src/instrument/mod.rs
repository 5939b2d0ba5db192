//! Instrumentation machinery shared by vendor profiling backends.
//!
//! Vendor facades (simulated Compute Sanitizer, NVBit, ROCProfiler-SDK)
//! differ in API flavour and cost constants, but the trace-collection
//! mechanics are identical: patch instructions, gather records, analyze on
//! the device or ship to the host. This module hosts that shared engine:
//!
//! * [`TraceProfiler`] — a [`crate::DeviceProbe`] that charges
//!   instrumentation costs per the chosen [`crate::AnalysisMode`] and
//!   forwards events to a [`DeviceTraceSink`];
//! * [`OverheadBreakdown`] — the Fig. 10 execution/collection/transfer/
//!   analysis accounting;
//! * [`DeviceTraceSink`] — the consumer interface the PASTA event
//!   processor implements.

pub mod overhead;
pub mod profiler;
pub mod sink;

pub use overhead::OverheadBreakdown;
pub use profiler::{BackendCosts, ProfilerHandle, TraceProfiler};
pub use sink::{DeviceTraceSink, NullSink, TraceCtx};
