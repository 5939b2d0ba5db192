//! Device specifications and per-device simulator state.
//!
//! The three presets correspond to the paper's Table III machines:
//! NVIDIA A100 (80 GB), NVIDIA GeForce RTX 3060, and AMD MI300X.

use crate::clock::SimTime;
use crate::id::{DeviceId, StreamId, Vendor};
use crate::mem::DeviceAllocator;

/// Static description of a simulated accelerator.
///
/// The numbers are public datasheet values; the cost model only uses them
/// for *relative* timing, so modest inaccuracy is harmless.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"NVIDIA A100 80GB"`.
    pub name: String,
    /// Vendor, which selects the event-naming conventions upstream.
    pub vendor: Vendor,
    /// Number of streaming multiprocessors (or compute units).
    pub sm_count: u32,
    /// Maximum resident threads per SM (occupancy ceiling).
    pub max_threads_per_sm: u32,
    /// Device memory capacity in bytes.
    pub mem_capacity: u64,
    /// Device memory bandwidth in GB/s (= bytes/ns).
    pub mem_bandwidth_gbps: f64,
    /// Host link (PCIe/xGMI) bandwidth in GB/s.
    pub link_bandwidth_gbps: f64,
    /// Peer-to-peer (NVLink/xGMI) bandwidth in GB/s for multi-GPU copies.
    pub p2p_bandwidth_gbps: f64,
    /// Peak single-precision throughput in TFLOP/s.
    pub fp32_tflops: f64,
    /// Latency of servicing a single UVM page-fault group, nanoseconds.
    pub fault_latency_ns: u64,
}

impl DeviceSpec {
    /// NVIDIA A100 80 GB (SXM): machine A in the paper's Table III.
    pub fn a100_80gb() -> Self {
        DeviceSpec {
            name: "NVIDIA A100 80GB".to_owned(),
            vendor: Vendor::Nvidia,
            sm_count: 108,
            max_threads_per_sm: 2048,
            mem_capacity: 80 * (1 << 30),
            mem_bandwidth_gbps: 2039.0,
            link_bandwidth_gbps: 24.0,
            p2p_bandwidth_gbps: 300.0,
            fp32_tflops: 19.5,
            fault_latency_ns: 25_000,
        }
    }

    /// NVIDIA GeForce RTX 3060 12 GB: machine B in Table III.
    pub fn rtx_3060() -> Self {
        DeviceSpec {
            name: "NVIDIA GeForce RTX 3060".to_owned(),
            vendor: Vendor::Nvidia,
            sm_count: 28,
            max_threads_per_sm: 1536,
            mem_capacity: 12 * (1 << 30),
            mem_bandwidth_gbps: 360.0,
            link_bandwidth_gbps: 12.0,
            p2p_bandwidth_gbps: 12.0,
            fp32_tflops: 12.7,
            fault_latency_ns: 35_000,
        }
    }

    /// AMD Instinct MI300X 192 GB: machine C in Table III.
    pub fn mi300x() -> Self {
        DeviceSpec {
            name: "AMD MI300X".to_owned(),
            vendor: Vendor::Amd,
            sm_count: 304,
            max_threads_per_sm: 2048,
            mem_capacity: 192 * (1 << 30),
            mem_bandwidth_gbps: 5300.0,
            link_bandwidth_gbps: 32.0,
            p2p_bandwidth_gbps: 448.0,
            fp32_tflops: 163.4,
            fault_latency_ns: 30_000,
        }
    }

    /// Maximum concurrently resident threads on the whole device.
    pub fn max_resident_threads(&self) -> u64 {
        self.sm_count as u64 * self.max_threads_per_sm as u64
    }
}

/// Mutable per-device simulator state: clock, streams, allocator.
#[derive(Debug)]
pub struct Device {
    id: DeviceId,
    spec: DeviceSpec,
    allocator: DeviceAllocator,
    /// Per-stream busy-until times in first-use order, stream 0 first (it
    /// always exists). A device runs a handful of streams, read and
    /// written once per launch and per copy: a scan beats a hash.
    streams: Vec<(StreamId, SimTime)>,
    /// Artificial cap on usable memory, used by the UVM experiments to
    /// create oversubscription (the paper pre-allocates to shrink memory).
    usable_capacity: u64,
}

impl Device {
    /// Creates a device with a fresh allocator and an idle clock.
    pub fn new(id: DeviceId, spec: DeviceSpec) -> Self {
        // 1 TiB of virtual address space per device keeps addresses unique
        // across devices, which the PASTA event processor relies on when
        // attributing events in multi-GPU runs.
        let base = 0x7000_0000_0000u64 + (id.0 as u64) * 0x100_0000_0000;
        let allocator = DeviceAllocator::new(base, spec.mem_capacity);
        let usable = spec.mem_capacity;
        Device {
            id,
            spec,
            allocator,
            streams: vec![(0, SimTime::ZERO)],
            usable_capacity: usable,
        }
    }

    /// Device id.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Static spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The device memory allocator.
    pub fn allocator(&self) -> &DeviceAllocator {
        &self.allocator
    }

    /// Mutable access to the allocator.
    pub fn allocator_mut(&mut self) -> &mut DeviceAllocator {
        &mut self.allocator
    }

    /// Busy-until time of `stream` (idle streams report `SimTime::ZERO`).
    pub fn stream_time(&self, stream: StreamId) -> SimTime {
        self.streams
            .iter()
            .find(|&&(id, _)| id == stream)
            .map_or(SimTime::ZERO, |&(_, busy)| busy)
    }

    /// Advances `stream`'s busy-until time to at least `t`.
    pub fn set_stream_time(&mut self, stream: StreamId, t: SimTime) {
        match self.streams.iter_mut().find(|(id, _)| *id == stream) {
            Some((_, busy)) => *busy = (*busy).max(t),
            None => self.streams.push((stream, t)),
        }
    }

    /// The latest busy-until time across all streams (device idle time).
    pub fn busy_until(&self) -> SimTime {
        self.streams
            .iter()
            .map(|&(_, busy)| busy)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Usable memory capacity (may be below the physical capacity when an
    /// experiment pre-allocates memory to force oversubscription).
    pub fn usable_capacity(&self) -> u64 {
        self.usable_capacity
    }

    /// Restricts usable memory, mirroring the paper's §V-A methodology of
    /// "allocating a specified amount in advance" to control the
    /// oversubscription factor.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the physical capacity.
    pub fn limit_usable_capacity(&mut self, bytes: u64) {
        assert!(
            bytes <= self.spec.mem_capacity,
            "cannot raise capacity above physical memory"
        );
        self.usable_capacity = bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_specs() {
        for spec in [
            DeviceSpec::a100_80gb(),
            DeviceSpec::rtx_3060(),
            DeviceSpec::mi300x(),
        ] {
            assert!(spec.sm_count > 0);
            assert!(spec.mem_capacity > 1 << 30);
            assert!(spec.mem_bandwidth_gbps > 0.0);
            assert!(spec.fp32_tflops > 0.0);
            assert!(spec.max_resident_threads() > 10_000);
        }
        assert_eq!(DeviceSpec::a100_80gb().vendor, Vendor::Nvidia);
        assert_eq!(DeviceSpec::mi300x().vendor, Vendor::Amd);
    }

    #[test]
    fn device_address_spaces_are_disjoint() {
        let d0 = Device::new(DeviceId(0), DeviceSpec::a100_80gb());
        let d1 = Device::new(DeviceId(1), DeviceSpec::a100_80gb());
        let end0 = d0.allocator().base() + d0.spec().mem_capacity;
        assert!(end0 <= d1.allocator().base());
    }

    #[test]
    fn stream_times_advance_monotonically() {
        let mut d = Device::new(DeviceId(0), DeviceSpec::rtx_3060());
        assert_eq!(d.stream_time(0), SimTime::ZERO);
        d.set_stream_time(0, SimTime(100));
        d.set_stream_time(0, SimTime(50)); // must not regress
        assert_eq!(d.stream_time(0), SimTime(100));
        d.set_stream_time(3, SimTime(500));
        assert_eq!(d.busy_until(), SimTime(500));
    }

    #[test]
    fn sparse_stream_ids_keep_their_own_clocks() {
        let mut d = Device::new(DeviceId(0), DeviceSpec::rtx_3060());
        for stream in [0, 3, u32::MAX] {
            assert_eq!(d.stream_time(stream), SimTime::ZERO, "idle stream");
        }
        d.set_stream_time(u32::MAX, SimTime(700));
        d.set_stream_time(3, SimTime(300));
        d.set_stream_time(0, SimTime(40));
        assert_eq!(d.stream_time(0), SimTime(40));
        assert_eq!(d.stream_time(3), SimTime(300));
        assert_eq!(d.stream_time(u32::MAX), SimTime(700));
        assert_eq!(d.stream_time(4), SimTime::ZERO, "never used, still idle");
        // No clock regresses, on any stream, whatever the order of use.
        d.set_stream_time(u32::MAX, SimTime(1));
        d.set_stream_time(3, SimTime(299));
        d.set_stream_time(0, SimTime(0));
        assert_eq!(d.stream_time(u32::MAX), SimTime(700));
        assert_eq!(d.stream_time(3), SimTime(300));
        assert_eq!(d.stream_time(0), SimTime(40));
        assert_eq!(d.busy_until(), SimTime(700));
        d.set_stream_time(3, SimTime(900));
        assert_eq!(d.busy_until(), SimTime(900));
    }

    #[test]
    fn capacity_limit() {
        let mut d = Device::new(DeviceId(0), DeviceSpec::rtx_3060());
        let cap = d.spec().mem_capacity;
        d.limit_usable_capacity(cap / 3);
        assert_eq!(d.usable_capacity(), cap / 3);
    }

    #[test]
    #[should_panic(expected = "cannot raise capacity")]
    fn capacity_limit_rejects_raise() {
        let mut d = Device::new(DeviceId(0), DeviceSpec::rtx_3060());
        let cap = d.spec().mem_capacity;
        d.limit_usable_capacity(cap + 1);
    }
}
