//! Instrumentation probe interface.
//!
//! A [`DeviceProbe`] is the simulator-side attachment point for profiling
//! backends. The engine drives the probe with the kernel's access batches
//! (all of a launch's in one call), barrier counts and block boundaries;
//! the probe returns the virtual time its processing costs on the device
//! and on the host, which the engine folds into the simulated clocks. The
//! vendor facades (Compute Sanitizer, NVBit, ROCProfiler) implement this
//! trait with their respective coverage and cost characteristics.

use crate::instrument::TraceCtx;
use crate::trace::{AccessBatch, KernelTraceSummary};

/// Which dynamic instructions an instrumentation backend can observe.
///
/// The paper (§III-D) contrasts Compute Sanitizer — "only a subset of
/// instructions, such as memory and barrier operations" — with NVBit, which
/// covers "all SASS instructions" at higher cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrCoverage {
    /// Memory and barrier instructions only (Compute Sanitizer style).
    MemoryAndBarrier,
    /// Every dynamic instruction (NVBit style).
    AllInstructions,
}

/// Where trace analysis runs (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisMode {
    /// PASTA's GPU-resident collect-and-analyze model: analysis threads
    /// consume records in situ; only a small result buffer returns to the
    /// host at kernel end (Fig. 2b).
    GpuResident,
    /// The conventional model: records fill a fixed device buffer, the
    /// kernel stalls while the host fetches and drains it, and a single
    /// CPU thread performs the analysis (Fig. 2a).
    CpuPostProcess,
}

/// Per-launch instrumentation selection, returned by
/// [`DeviceProbe::on_kernel_begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Instrument global-memory accesses.
    pub global_accesses: bool,
    /// Instrument shared-memory accesses.
    pub shared_accesses: bool,
    /// Instrument barrier instructions.
    pub barriers: bool,
    /// Instrument thread-block entry/exit.
    pub block_boundaries: bool,
    /// Count every dynamic instruction — only a full-coverage backend
    /// ([`InstrCoverage::AllInstructions`]) can deliver the count, but any
    /// backend walks the launch and reports its trace summary for it.
    pub instructions: bool,
    /// Process only one in `sampling_rate` records (1 = every record);
    /// mirrors `ACCEL_PROF_ENV_SAMPLE_RATE` from the paper's artifact.
    pub sampling_rate: u32,
}

impl ProbeConfig {
    /// Instrument everything, no sampling.
    pub fn all() -> Self {
        ProbeConfig {
            global_accesses: true,
            shared_accesses: true,
            barriers: true,
            block_boundaries: true,
            instructions: true,
            sampling_rate: 1,
        }
    }

    /// Instrument global memory only.
    pub fn global_only() -> Self {
        ProbeConfig {
            global_accesses: true,
            shared_accesses: false,
            barriers: false,
            block_boundaries: false,
            instructions: false,
            sampling_rate: 1,
        }
    }

    /// Instrument nothing (skip this launch).
    pub fn disabled() -> Self {
        ProbeConfig {
            global_accesses: false,
            shared_accesses: false,
            barriers: false,
            block_boundaries: false,
            instructions: false,
            sampling_rate: 1,
        }
    }

    /// Sets the sampling rate — the one place a session's rate is clamped
    /// to ≥ 1 (0 means "every record", like 1).
    pub fn with_sampling(mut self, rate: u32) -> Self {
        self.sampling_rate = rate.max(1);
        self
    }

    /// True when no event class is instrumented.
    pub fn is_disabled(&self) -> bool {
        !(self.global_accesses
            || self.shared_accesses
            || self.barriers
            || self.block_boundaries
            || self.instructions)
    }
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig::all()
    }
}

/// Virtual-time cost of a probe callback.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCosts {
    /// Time added to the kernel's device-side duration.
    pub device_ns: u64,
    /// Time added to the host clock (CPU-side collection/analysis).
    pub host_ns: u64,
}

impl ProbeCosts {
    /// Zero cost.
    pub const FREE: ProbeCosts = ProbeCosts {
        device_ns: 0,
        host_ns: 0,
    };

    /// Component-wise sum.
    pub fn merge(self, other: ProbeCosts) -> ProbeCosts {
        ProbeCosts {
            device_ns: self.device_ns + other.device_ns,
            host_ns: self.host_ns + other.host_ns,
        }
    }
}

/// A device-side instrumentation consumer.
///
/// All methods have defaults so implementors override only what they need —
/// the same "override functions in the template" ergonomics the PASTA tool
/// collection offers one level up.
pub trait DeviceProbe: Send {
    /// Called before the kernel runs; selects what to instrument.
    fn on_kernel_begin(&mut self, ctx: &TraceCtx) -> ProbeConfig {
        let _ = ctx;
        ProbeConfig::all()
    }

    /// Called once per launch with one batch of records per observed
    /// access stream, in stream order; not called for a launch that has
    /// none. Returns the summed cost of the batches.
    fn on_access_batches(&mut self, ctx: &TraceCtx, batches: &[AccessBatch]) -> ProbeCosts {
        let _ = (ctx, batches);
        ProbeCosts::FREE
    }

    /// Called with the number of barrier executions in the launch.
    fn on_barriers(&mut self, ctx: &TraceCtx, count: u64) -> ProbeCosts {
        let _ = (ctx, count);
        ProbeCosts::FREE
    }

    /// Called with the number of thread blocks (entry/exit pairs).
    fn on_block_boundaries(&mut self, ctx: &TraceCtx, count: u64) -> ProbeCosts {
        let _ = (ctx, count);
        ProbeCosts::FREE
    }

    /// Called after all batches with the kernel's trace summary.
    fn on_kernel_end(&mut self, ctx: &TraceCtx, summary: &KernelTraceSummary) -> ProbeCosts {
        let _ = (ctx, summary);
        ProbeCosts::FREE
    }
}

/// A probe that counts callbacks; useful as a test double and as the
/// smallest possible example of the probe protocol.
#[derive(Debug, Default)]
pub struct CountingProbe {
    /// Number of kernels observed.
    pub kernels: u64,
    /// Total access batches observed.
    pub batches: u64,
    /// Total records across batches.
    pub records: u64,
    /// Total barrier executions observed.
    pub barriers: u64,
}

impl DeviceProbe for CountingProbe {
    fn on_kernel_begin(&mut self, _ctx: &TraceCtx) -> ProbeConfig {
        self.kernels += 1;
        ProbeConfig::all()
    }

    fn on_access_batches(&mut self, _ctx: &TraceCtx, batches: &[AccessBatch]) -> ProbeCosts {
        self.batches += batches.len() as u64;
        self.records += batches.iter().map(|b| b.records).sum::<u64>();
        ProbeCosts::FREE
    }

    fn on_barriers(&mut self, _ctx: &TraceCtx, count: u64) -> ProbeCosts {
        self.barriers += count;
        ProbeCosts::FREE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructors() {
        assert!(ProbeConfig::all().global_accesses);
        assert!(ProbeConfig::all().barriers);
        assert!(!ProbeConfig::global_only().barriers);
        assert!(ProbeConfig::disabled().is_disabled());
        assert!(!ProbeConfig::global_only().is_disabled());
        let instructions_only = ProbeConfig {
            instructions: true,
            ..ProbeConfig::disabled()
        };
        assert!(!instructions_only.is_disabled());
    }

    #[test]
    fn sampling_clamps_to_one() {
        assert_eq!(ProbeConfig::all().with_sampling(0).sampling_rate, 1);
        assert_eq!(ProbeConfig::all().with_sampling(10).sampling_rate, 10);
    }

    #[test]
    fn costs_add() {
        let a = ProbeCosts {
            device_ns: 5,
            host_ns: 7,
        };
        let b = ProbeCosts {
            device_ns: 1,
            host_ns: 2,
        };
        assert_eq!(
            a.merge(b),
            ProbeCosts {
                device_ns: 6,
                host_ns: 9
            }
        );
        assert_eq!(a.merge(ProbeCosts::FREE), a);
    }

    #[test]
    fn probe_object_safety() {
        // DeviceProbe must stay object-safe: the engine stores Box<dyn DeviceProbe>.
        let probe: Box<dyn DeviceProbe> = Box::<CountingProbe>::default();
        drop(probe);
    }
}
