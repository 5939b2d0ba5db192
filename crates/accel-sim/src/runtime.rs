//! The device-runtime vocabulary shared by vendor facades.
//!
//! [`DeviceRuntime`] is the trait the simulated CUDA and HIP runtimes
//! implement and the DL framework programs against, so the same model code
//! runs unchanged on NVIDIA- and AMD-flavoured backends — exactly the
//! portability story PASTA's event handler provides one layer up.

use crate::clock::SimTime;
use crate::dim::Dim3;
use crate::error::AccelError;
use crate::id::{DeviceId, LaunchId, StreamId, Vendor};
use crate::kernel::KernelDesc;
use crate::mem::DevicePtr;
use crate::symbol::Symbol;

/// Direction of a memory copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CopyDirection {
    /// Host to device.
    HostToDevice,
    /// Device to host.
    DeviceToHost,
    /// Device to device (same or peer device).
    DeviceToDevice,
    /// Host to host (staging copies).
    HostToHost,
}

/// UVM advice values, mirroring `cudaMemAdvise`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemAdvise {
    /// Prefer keeping the range resident on the device.
    PreferredLocationDevice,
    /// Prefer keeping the range on the host.
    PreferredLocationHost,
    /// The range is mostly read; replicate liberally.
    ReadMostly,
    /// Clear prior advice.
    Unset,
}

/// Result of a kernel launch: timing plus instrumentation accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchRecord {
    /// Launch sequence number ("grid id").
    pub launch: LaunchId,
    /// Device the kernel ran on.
    pub device: DeviceId,
    /// Stream it was enqueued on.
    pub stream: StreamId,
    /// Kernel symbol name, interned (shared with the launch's
    /// [`crate::KernelDesc`]).
    pub name: Symbol,
    /// Grid dimensions.
    pub grid: Dim3,
    /// Block dimensions.
    pub block: Dim3,
    /// Device-time start.
    pub start: SimTime,
    /// Device-time end (including instrumentation and UVM stalls).
    pub end: SimTime,
    /// What the kernel would have taken uninstrumented, ns.
    pub base_duration_ns: u64,
    /// Device time added by instrumentation, ns.
    pub instr_device_ns: u64,
    /// Host time added by instrumentation (buffer drains, CPU analysis), ns.
    pub instr_host_ns: u64,
    /// Device time added by UVM fault handling/migration, ns.
    pub uvm_stall_ns: u64,
    /// UVM fault groups serviced during the launch.
    pub uvm_faults: u64,
    /// Bytes migrated in (host→device) during the launch.
    pub uvm_migrated_bytes: u64,
    /// Bytes evicted (device→host) to make room during the launch.
    pub uvm_evicted_bytes: u64,
    /// Bytes read-duplicated onto this device over the peer link while
    /// the launch resolved shared managed ranges.
    pub uvm_peer_bytes: u64,
    /// Warp-level memory records the launch emitted to the probe.
    pub records_emitted: u64,
    /// Total bytes moved through global memory.
    pub global_bytes: u64,
}

impl LaunchRecord {
    /// Total device-side duration of the launch, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Aggregate counters a runtime keeps per device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Kernel launches.
    pub launches: u64,
    /// Explicit memcpy operations.
    pub copies: u64,
    /// Bytes copied host→device.
    pub bytes_h2d: u64,
    /// Bytes copied device→host.
    pub bytes_d2h: u64,
    /// Device allocations performed.
    pub allocs: u64,
    /// Device frees performed.
    pub frees: u64,
    /// Synchronization calls.
    pub syncs: u64,
}

/// The abstract device runtime the DL framework and examples program to.
///
/// Implemented by `vendor_nv::CudaContext` and `vendor_amd::HipContext`.
/// Methods mirror the CUDA/HIP runtime surface PASTA intercepts (§IV-A).
/// `Send` so per-device runtime handles can be driven from their own OS
/// threads (the multi-device parallel workloads).
pub trait DeviceRuntime: Send {
    /// Vendor of the underlying devices.
    fn vendor(&self) -> Vendor;

    /// Number of visible devices.
    fn device_count(&self) -> usize;

    /// Selects the current device (like `cudaSetDevice`).
    fn set_device(&mut self, device: DeviceId) -> Result<(), AccelError>;

    /// The currently selected device.
    fn current_device(&self) -> DeviceId;

    /// Allocates device memory on the current device.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::OutOfMemory`] when the device is exhausted.
    fn malloc(&mut self, bytes: u64) -> Result<DevicePtr, AccelError>;

    /// Allocates managed (UVM) memory visible to all devices.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::OutOfMemory`] when the managed space is
    /// exhausted.
    fn malloc_managed(&mut self, bytes: u64) -> Result<DevicePtr, AccelError>;

    /// Frees a pointer returned by either alloc call.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidAddress`] on double-free or junk.
    fn free(&mut self, ptr: DevicePtr) -> Result<(), AccelError>;

    /// Copies `bytes` in `dir`; synchronous with respect to the host.
    ///
    /// # Errors
    ///
    /// Propagates address-validation failures.
    fn memcpy(
        &mut self,
        dst: DevicePtr,
        src: DevicePtr,
        bytes: u64,
        dir: CopyDirection,
    ) -> Result<(), AccelError>;

    /// Fills `bytes` at `dst`.
    ///
    /// # Errors
    ///
    /// Propagates address-validation failures.
    fn memset(&mut self, dst: DevicePtr, bytes: u64) -> Result<(), AccelError>;

    /// Launches a kernel on stream 0 of the current device.
    ///
    /// # Errors
    ///
    /// Fails on empty grids or unbound kernel arguments.
    fn launch(&mut self, desc: KernelDesc) -> Result<LaunchRecord, AccelError> {
        self.launch_on(0, desc)
    }

    /// Launches a kernel on a specific stream of the current device.
    ///
    /// # Errors
    ///
    /// Fails on empty grids or unbound kernel arguments.
    fn launch_on(&mut self, stream: StreamId, desc: KernelDesc)
        -> Result<LaunchRecord, AccelError>;

    /// Blocks the host until the current device is idle.
    fn synchronize(&mut self);

    /// Usable memory capacity of the current device, bytes.
    fn device_capacity(&self) -> u64;

    /// Current host virtual time.
    fn host_time(&self) -> SimTime;

    /// Asynchronously prefetches a managed range to the current device
    /// (like `cudaMemPrefetchAsync`). No-op for non-managed pointers.
    ///
    /// # Errors
    ///
    /// Propagates address-validation failures.
    fn mem_prefetch(&mut self, ptr: DevicePtr, bytes: u64) -> Result<(), AccelError> {
        let _ = (ptr, bytes);
        Ok(())
    }

    /// Applies UVM advice to a managed range (like `cudaMemAdvise`).
    ///
    /// # Errors
    ///
    /// Propagates address-validation failures.
    fn mem_advise(
        &mut self,
        ptr: DevicePtr,
        bytes: u64,
        advice: MemAdvise,
    ) -> Result<(), AccelError> {
        let _ = (ptr, bytes, advice);
        Ok(())
    }

    /// Aggregate counters for `device`.
    fn stats(&self, device: DeviceId) -> RuntimeStats;

    /// The attached managed-memory residency model (the UVM manager), if
    /// any. Default: none — runtimes without UVM support stay simple.
    fn residency(&self) -> Option<&dyn crate::residency::ResidencyModel> {
        None
    }

    /// Mutable access to the attached residency model, if any.
    fn residency_mut(&mut self) -> Option<&mut dyn crate::residency::ResidencyModel> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_record_duration() {
        let rec = LaunchRecord {
            launch: LaunchId(1),
            device: DeviceId(0),
            stream: 0,
            name: "k".into(),
            grid: Dim3::linear(1),
            block: Dim3::linear(32),
            start: SimTime(100),
            end: SimTime(350),
            base_duration_ns: 200,
            instr_device_ns: 50,
            instr_host_ns: 0,
            uvm_stall_ns: 0,
            uvm_faults: 0,
            uvm_migrated_bytes: 0,
            uvm_evicted_bytes: 0,
            uvm_peer_bytes: 0,
            records_emitted: 8,
            global_bytes: 1024,
        };
        assert_eq!(rec.duration_ns(), 250);
    }

    #[test]
    fn stats_default_is_zeroed() {
        let s = RuntimeStats::default();
        assert_eq!(s.launches, 0);
        assert_eq!(s.bytes_h2d, 0);
    }

    #[test]
    fn copy_direction_is_hashable() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(CopyDirection::HostToDevice, 1u32);
        m.insert(CopyDirection::DeviceToHost, 2);
        assert_eq!(m[&CopyDirection::HostToDevice], 1);
    }
}
