//! Instruction-level trace stream.
//!
//! Real instrumentation records one entry per executed (warp-level) memory
//! instruction. Materializing billions of such entries is neither necessary
//! nor honest-to-scale here: the probe receives [`AccessBatch`]es — compact
//! summaries carrying the *exact* record count, address range and stride —
//! from which every analysis in the paper (working set, hotness, access
//! counts) can be computed, while cost models charge per true record.

use crate::id::LaunchId;
use crate::kernel::{AccessKind, AccessPattern, MemSpace};

/// Size in bytes of one on-device trace record, used to model trace-buffer
/// capacity and PCIe transfer volume (matches NVBit MemTrace's 24-byte
/// packed record plus header).
pub const TRACE_RECORD_BYTES: u64 = 24;

/// A batch of warp-level access records sharing one access stream.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessBatch {
    /// Launch that produced the batch.
    pub launch: LaunchId,
    /// Index of the originating [`crate::AccessSpec`] in the kernel body.
    pub spec_index: usize,
    /// Absolute base address of the touched region.
    pub base: u64,
    /// Extent of the touched region, bytes.
    pub len: u64,
    /// Number of warp-level access records in the batch.
    pub records: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Element size per lane, bytes.
    pub elem_size: u32,
    /// Load/store/atomic.
    pub kind: AccessKind,
    /// Global/shared/… space.
    pub space: MemSpace,
    /// Spatial pattern within the region.
    pub pattern: AccessPattern,
}

impl AccessBatch {
    /// Exclusive end address of the touched region.
    pub fn end(&self) -> u64 {
        self.base + self.len
    }
}

/// Per-kernel summary the engine hands to the probe at kernel end.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelTraceSummary {
    /// Warp-level global-memory records emitted.
    pub global_records: u64,
    /// Warp-level shared-memory records emitted.
    pub shared_records: u64,
    /// Barrier executions.
    pub barriers: u64,
    /// Thread-block entry/exit pairs.
    pub blocks: u64,
    /// Total dynamic instructions (for full-coverage instrumentation).
    pub instructions: u64,
    /// Total bytes moved through global memory.
    pub global_bytes: u64,
}

/// Models the fixed-capacity on-device trace buffer of CPU-analysis tools
/// (paper Fig. 2a): when the buffer fills, the kernel stalls while the
/// buffer is shipped to the host and drained.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBufferModel {
    /// Buffer capacity in records.
    pub capacity_records: u64,
}

impl TraceBufferModel {
    /// Default 4 MiB buffer, matching the paper's §VI-A footprint remark.
    pub fn new_4mib() -> Self {
        TraceBufferModel {
            capacity_records: (4 << 20) / TRACE_RECORD_BYTES,
        }
    }

    /// Number of full-buffer flushes needed for `records`, i.e. the number
    /// of kernel stalls in the CPU-analysis model. The final partial buffer
    /// flushes at kernel completion without stalling the kernel.
    pub fn stall_flushes(&self, records: u64) -> u64 {
        records / self.capacity_records
    }
}

impl Default for TraceBufferModel {
    fn default() -> Self {
        TraceBufferModel::new_4mib()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::AccessSpec;

    fn batch(base: u64, len: u64, records: u64) -> AccessBatch {
        AccessBatch {
            launch: LaunchId(1),
            spec_index: 0,
            base,
            len,
            records,
            bytes: len,
            elem_size: 4,
            kind: AccessKind::Load,
            space: MemSpace::Global,
            pattern: AccessPattern::Sequential,
        }
    }

    #[test]
    fn buffer_stalls_only_on_full_buffers() {
        let m = TraceBufferModel {
            capacity_records: 100,
        };
        assert_eq!(m.stall_flushes(99), 0);
        assert_eq!(m.stall_flushes(100), 1);
        assert_eq!(m.stall_flushes(1000), 10);
        assert!(TraceBufferModel::new_4mib().capacity_records > 100_000);
    }

    #[test]
    fn batch_consistent_with_spec_record_count() {
        let spec = AccessSpec::load(0, 1 << 20);
        let b = batch(0, 1 << 20, spec.record_count());
        assert_eq!(b.records, (1 << 20) / 128);
    }
}
