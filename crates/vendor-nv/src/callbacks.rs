//! CUDA runtime callback events.
//!
//! These are the "raw vendor events" of the NVIDIA platform — what Compute
//! Sanitizer's host callbacks (`SANITIZER_CBID_LAUNCH_BEGIN`,
//! `SANITIZER_..._MEMORY_ALLOC`, …) deliver. The PASTA event handler
//! subscribes to these and normalizes them into its unified event model.
//!
//! NVIDIA conventions reproduced here deliberately differ from the AMD ones
//! in `vendor-amd` (positive free sizes here, negative deltas there;
//! `cuda*` API names here, `hip*` there) so that the handler's
//! normalization layer has real work to do.

use accel_sim::{CopyDirection, DeviceId, Dim3, LaunchId, SimTime, StreamId, Symbol};

/// A host-side callback event from the simulated CUDA runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum NvCallback {
    /// A driver/runtime API call is entered (`ApiEnter("cudaMalloc")`).
    ApiEnter {
        /// CUDA API symbol name.
        name: &'static str,
        /// Device current at the call.
        device: DeviceId,
        /// Host time at entry.
        at: SimTime,
    },
    /// A driver/runtime API call returned.
    ApiExit {
        /// CUDA API symbol name.
        name: &'static str,
        /// Device current at the call.
        device: DeviceId,
        /// Host time at exit.
        at: SimTime,
    },
    /// `SANITIZER_CBID_LAUNCH_BEGIN`: a kernel is about to run.
    LaunchBegin {
        /// Launch sequence number ("grid id").
        launch: LaunchId,
        /// Device ordinal.
        device: DeviceId,
        /// Stream.
        stream: StreamId,
        /// Kernel symbol, interned.
        name: Symbol,
        /// Grid dimensions.
        grid: Dim3,
        /// Block dimensions.
        block: Dim3,
        /// Device time the kernel starts.
        start: SimTime,
    },
    /// `SANITIZER_CBID_LAUNCH_END`: the kernel completed.
    LaunchEnd {
        /// Launch sequence number.
        launch: LaunchId,
        /// Device ordinal.
        device: DeviceId,
        /// Device time the kernel finished.
        end: SimTime,
    },
    /// `SANITIZER_..._MEMORY_ALLOC`: device or managed memory allocated.
    MemoryAlloc {
        /// Device ordinal.
        device: DeviceId,
        /// Base address.
        addr: u64,
        /// Size in bytes — **positive**, per CUDA convention.
        bytes: u64,
        /// Allocated via `cudaMallocManaged`.
        managed: bool,
        /// Host time.
        at: SimTime,
    },
    /// `SANITIZER_..._MEMORY_FREE`: memory released.
    MemoryFree {
        /// Device ordinal.
        device: DeviceId,
        /// Base address.
        addr: u64,
        /// Size in bytes — **positive**, per CUDA convention.
        bytes: u64,
        /// Host time.
        at: SimTime,
    },
    /// `cudaMemcpy*` completed.
    Memcpy {
        /// Device ordinal.
        device: DeviceId,
        /// Direction of the copy.
        direction: CopyDirection,
        /// Bytes copied.
        bytes: u64,
        /// Host time.
        at: SimTime,
    },
    /// `cudaMemset*` completed.
    Memset {
        /// Device ordinal.
        device: DeviceId,
        /// Base address.
        addr: u64,
        /// Bytes set.
        bytes: u64,
        /// Host time.
        at: SimTime,
    },
    /// `cudaDeviceSynchronize` (or stream sync) completed.
    Synchronize {
        /// Device ordinal.
        device: DeviceId,
        /// Host time after the wait.
        at: SimTime,
    },
    /// A batch memory operation (`cudaMemPrefetchAsync`/`cudaMemAdvise`).
    BatchMemOp {
        /// Device ordinal.
        device: DeviceId,
        /// Operation label (e.g. `"cudaMemPrefetchAsync"`).
        op: &'static str,
        /// Base address.
        addr: u64,
        /// Bytes covered.
        bytes: u64,
        /// Host time.
        at: SimTime,
    },
    /// UVM page-fault activity resolved while a kernel ran: the GPU
    /// fault-buffer summary Compute Sanitizer surfaces per launch. The
    /// `device` is always the *faulting* device — the device the kernel
    /// executed on — never the device that happened to be current on the
    /// host thread, so the sharded hub can route it by content.
    UvmFault {
        /// Launch whose accesses faulted.
        launch: LaunchId,
        /// The faulting device.
        device: DeviceId,
        /// Fault groups serviced.
        groups: u64,
        /// Bytes migrated host→device.
        migrated_bytes: u64,
        /// Bytes evicted device→host to make room.
        evicted_bytes: u64,
        /// Device stall charged to the kernel, ns.
        stall_ns: u64,
        /// Host time after the launch was enqueued.
        at: SimTime,
    },
    /// A peer-to-peer coherence operation on a *shared* managed range,
    /// resolved while a kernel ran: either a read duplication (data moved
    /// `src → dst` over NVLink/PCIe peer mappings) or a write
    /// invalidation (`src` wrote, `dst`'s duplicate was dropped). Both
    /// devices ride in the callback so the sharded hub can route the
    /// normalized event to the *destination* device's shard.
    PeerMigrate {
        /// Launch whose accesses triggered the operation.
        launch: LaunchId,
        /// Device the data (or the invalidating write) came from.
        src: DeviceId,
        /// Device whose residency changed.
        dst: DeviceId,
        /// Pages read-duplicated onto `dst`.
        duplicated_pages: u64,
        /// `dst` duplicate pages invalidated by `src`'s write.
        invalidated_pages: u64,
        /// Bytes moved over the peer link (duplications only).
        bytes: u64,
        /// Device stall charged to the launch, ns.
        stall_ns: u64,
        /// Host time after the launch was enqueued.
        at: SimTime,
    },
}

impl NvCallback {
    /// Short callback-id-like label (for logs and tests).
    pub fn cbid(&self) -> &'static str {
        match self {
            NvCallback::ApiEnter { .. } => "NV_API_ENTER",
            NvCallback::ApiExit { .. } => "NV_API_EXIT",
            NvCallback::LaunchBegin { .. } => "SANITIZER_CBID_LAUNCH_BEGIN",
            NvCallback::LaunchEnd { .. } => "SANITIZER_CBID_LAUNCH_END",
            NvCallback::MemoryAlloc { .. } => "SANITIZER_CBID_MEMORY_ALLOC",
            NvCallback::MemoryFree { .. } => "SANITIZER_CBID_MEMORY_FREE",
            NvCallback::Memcpy { .. } => "SANITIZER_CBID_MEMCPY",
            NvCallback::Memset { .. } => "SANITIZER_CBID_MEMSET",
            NvCallback::Synchronize { .. } => "SANITIZER_CBID_SYNCHRONIZE",
            NvCallback::BatchMemOp { .. } => "SANITIZER_CBID_BATCH_MEMOP",
            NvCallback::UvmFault { .. } => "SANITIZER_CBID_UVM_FAULT",
            NvCallback::PeerMigrate { .. } => "SANITIZER_CBID_UVM_PEER_MIGRATE",
        }
    }
}

/// A host-callback subscriber.
pub type NvSubscriber = Box<dyn FnMut(&NvCallback) + Send>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbids_are_distinct_for_alloc_and_free() {
        let alloc = NvCallback::MemoryAlloc {
            device: DeviceId(0),
            addr: 0x100,
            bytes: 64,
            managed: false,
            at: SimTime(0),
        };
        let free = NvCallback::MemoryFree {
            device: DeviceId(0),
            addr: 0x100,
            bytes: 64,
            at: SimTime(1),
        };
        assert_ne!(alloc.cbid(), free.cbid());
        assert!(alloc.cbid().starts_with("SANITIZER_CBID"));
    }

    #[test]
    fn free_sizes_are_positive_by_convention() {
        // The NVIDIA convention: MemoryFree carries a positive size.
        // (vendor-amd reports negative deltas; the PASTA handler normalizes.)
        if let NvCallback::MemoryFree { bytes, .. } = (NvCallback::MemoryFree {
            device: DeviceId(0),
            addr: 0,
            bytes: 4096,
            at: SimTime(0),
        }) {
            assert!(bytes > 0);
        }
    }
}
