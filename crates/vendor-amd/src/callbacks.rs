//! ROCm runtime callback events.
//!
//! These mirror ROCProfiler-SDK's HIP-API and kernel-dispatch callbacks.
//! Two conventions differ from the NVIDIA facade on purpose (the paper's
//! §III-G normalization examples):
//!
//! * memory size changes are signed **deltas** — allocation positive,
//!   release *negative* — where CUDA reports positive sizes on both;
//! * kernels are "dispatched" with workgroup counts rather than "launched"
//!   with grids (same semantics, different vocabulary).

use accel_sim::{CopyDirection, DeviceId, Dim3, LaunchId, SimTime, StreamId, Symbol};

/// A host-side callback from the simulated ROCm runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum RocCallback {
    /// HIP API entry (`ApiEnter("hipMalloc")`).
    ApiEnter {
        /// HIP API symbol.
        name: &'static str,
        /// Device current at the call.
        device: DeviceId,
        /// Host time.
        at: SimTime,
    },
    /// HIP API exit.
    ApiExit {
        /// HIP API symbol.
        name: &'static str,
        /// Device current at the call.
        device: DeviceId,
        /// Host time.
        at: SimTime,
    },
    /// `ROCPROFILER_CALLBACK_TRACING_KERNEL_DISPATCH` (enter phase).
    KernelDispatch {
        /// Dispatch sequence number.
        launch: LaunchId,
        /// Device ordinal.
        device: DeviceId,
        /// HIP stream.
        stream: StreamId,
        /// Kernel symbol, interned.
        name: Symbol,
        /// Workgroup count (≙ CUDA grid).
        workgroups: Dim3,
        /// Workgroup size (≙ CUDA block).
        workgroup_size: Dim3,
        /// Device start time.
        start: SimTime,
    },
    /// Kernel dispatch completed.
    KernelComplete {
        /// Dispatch sequence number.
        launch: LaunchId,
        /// Device ordinal.
        device: DeviceId,
        /// Device end time.
        end: SimTime,
    },
    /// Memory pool size change: **signed delta** (positive = allocate,
    /// negative = release).
    MemoryDelta {
        /// Device ordinal.
        device: DeviceId,
        /// Base address.
        addr: u64,
        /// Signed size change in bytes.
        delta: i64,
        /// Allocated through `hipMallocManaged`.
        managed: bool,
        /// Host time.
        at: SimTime,
    },
    /// `hipMemcpy*` completed.
    MemoryCopy {
        /// Device ordinal.
        device: DeviceId,
        /// Direction.
        direction: CopyDirection,
        /// Bytes copied.
        bytes: u64,
        /// Host time.
        at: SimTime,
    },
    /// `hipMemset*` completed.
    MemorySet {
        /// Device ordinal.
        device: DeviceId,
        /// Base address.
        addr: u64,
        /// Bytes set.
        bytes: u64,
        /// Host time.
        at: SimTime,
    },
    /// `hipDeviceSynchronize` completed.
    Synchronize {
        /// Device ordinal.
        device: DeviceId,
        /// Host time after the wait.
        at: SimTime,
    },
    /// Batch memory op (prefetch/advise analogues).
    BatchMemOp {
        /// Device ordinal.
        device: DeviceId,
        /// Operation label.
        op: &'static str,
        /// Base address.
        addr: u64,
        /// Bytes covered.
        bytes: u64,
        /// Host time.
        at: SimTime,
    },
    /// SVM/XNACK page-migration activity a kernel triggered — ROCm's
    /// vocabulary for what CUDA calls UVM faults; the PASTA handler
    /// normalizes both onto one event. `device` is the *faulting* device
    /// (the dispatch target), never the host thread's current device.
    PageMigrate {
        /// Dispatch whose accesses migrated pages.
        launch: LaunchId,
        /// The faulting device.
        device: DeviceId,
        /// Fault (retry) groups serviced.
        groups: u64,
        /// Bytes migrated host→device.
        migrated_bytes: u64,
        /// Bytes written back device→host under pressure.
        evicted_bytes: u64,
        /// Device stall charged to the dispatch, ns.
        stall_ns: u64,
        /// Host time after the dispatch was enqueued.
        at: SimTime,
    },
    /// xGMI peer copy / invalidation on a shared managed range — ROCm's
    /// vocabulary for what CUDA calls a UVM peer migration; the PASTA
    /// handler normalizes both onto one event. Carries both devices so
    /// the sharded hub can route by the *destination*.
    PeerCopy {
        /// Dispatch whose accesses triggered the operation.
        launch: LaunchId,
        /// Device the data (or the invalidating write) came from.
        src: DeviceId,
        /// Device whose residency changed.
        dst: DeviceId,
        /// Pages read-duplicated onto `dst`.
        duplicated_pages: u64,
        /// `dst` duplicate pages invalidated by `src`'s write.
        invalidated_pages: u64,
        /// Bytes moved over the xGMI link (duplications only).
        bytes: u64,
        /// Device stall charged to the dispatch, ns.
        stall_ns: u64,
        /// Host time after the dispatch was enqueued.
        at: SimTime,
    },
}

impl RocCallback {
    /// ROCProfiler-style callback-kind label.
    pub fn kind(&self) -> &'static str {
        match self {
            RocCallback::ApiEnter { .. } => "ROCPROFILER_HIP_API_ENTER",
            RocCallback::ApiExit { .. } => "ROCPROFILER_HIP_API_EXIT",
            RocCallback::KernelDispatch { .. } => "ROCPROFILER_KERNEL_DISPATCH",
            RocCallback::KernelComplete { .. } => "ROCPROFILER_KERNEL_COMPLETE",
            RocCallback::MemoryDelta { .. } => "ROCPROFILER_MEMORY_DELTA",
            RocCallback::MemoryCopy { .. } => "ROCPROFILER_MEMORY_COPY",
            RocCallback::MemorySet { .. } => "ROCPROFILER_MEMORY_SET",
            RocCallback::Synchronize { .. } => "ROCPROFILER_SYNCHRONIZE",
            RocCallback::BatchMemOp { .. } => "ROCPROFILER_BATCH_MEMOP",
            RocCallback::PageMigrate { .. } => "ROCPROFILER_PAGE_MIGRATE",
            RocCallback::PeerCopy { .. } => "ROCPROFILER_PAGE_PEER_COPY",
        }
    }
}

/// A host-callback subscriber.
pub type RocSubscriber = Box<dyn FnMut(&RocCallback) + Send>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_deltas_are_negative_by_convention() {
        let release = RocCallback::MemoryDelta {
            device: DeviceId(0),
            addr: 0x100,
            delta: -4096,
            managed: false,
            at: SimTime(0),
        };
        if let RocCallback::MemoryDelta { delta, .. } = release {
            assert!(delta < 0, "AMD reports releases as negative deltas");
        }
    }

    #[test]
    fn kinds_use_rocprofiler_naming() {
        let cb = RocCallback::Synchronize {
            device: DeviceId(0),
            at: SimTime(0),
        };
        assert!(cb.kind().starts_with("ROCPROFILER_"));
    }
}
