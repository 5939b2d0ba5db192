//! The tensor-aware UVM prefetch advisor (paper §V-C1).
//!
//! PASTA's cross-layer capture is what makes this tool possible: it sees
//! *low-level* managed-memory objects (`cudaMallocManaged` segments of the
//! caching allocator) **and** *high-level* tensors (framework allocation
//! events) **and** the per-kernel access extents, so it can correlate all
//! three. From one profiled run it generates:
//!
//! * an **object-level** plan — before each kernel, prefetch every managed
//!   segment the kernel touches (the strategy of prior UVM work); or
//! * a **tensor-level** plan — prefetch only the tensors the kernel
//!   touches, skipping the dead weight that shares their segments.
//!
//! Replaying the plan through the runtime's prefetch hook produces the
//! Fig. 11/12 comparisons.

use pasta_core::{Event, Interest, Tool, ToolReport};
use std::any::Any;
use std::collections::BTreeMap;
use uvm_sim::{PrefetchGranularity, PrefetchPlan, Range};

/// Observed UVM fault/migration activity, per device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UvmActivity {
    /// Fault groups serviced.
    pub fault_groups: u64,
    /// Bytes migrated host→device.
    pub migrated_bytes: u64,
    /// Bytes evicted device→host.
    pub evicted_bytes: u64,
    /// Device stall charged to launches, ns.
    pub stall_ns: u64,
}

impl UvmActivity {
    fn merge_from(&mut self, other: &UvmActivity) {
        self.fault_groups += other.fault_groups;
        self.migrated_bytes += other.migrated_bytes;
        self.evicted_bytes += other.evicted_bytes;
        self.stall_ns += other.stall_ns;
    }
}

/// Observed peer-to-peer coherence traffic between one (src, dst) device
/// pair — shared managed ranges only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerTraffic {
    /// Pages read-duplicated src→dst.
    pub duplicated_pages: u64,
    /// dst duplicate pages invalidated by src's writes.
    pub invalidated_pages: u64,
    /// Bytes moved over the peer link.
    pub bytes: u64,
    /// Device stall charged to launches, ns.
    pub stall_ns: u64,
}

impl PeerTraffic {
    fn merge_from(&mut self, other: &PeerTraffic) {
        self.duplicated_pages += other.duplicated_pages;
        self.invalidated_pages += other.invalidated_pages;
        self.bytes += other.bytes;
        self.stall_ns += other.stall_ns;
    }
}

/// The profiling-side advisor.
#[derive(Debug, Default)]
pub struct UvmPrefetchAdvisor {
    /// Live managed objects: base → len.
    objects: BTreeMap<u64, u64>,
    /// Live tensors: base → len.
    tensors: BTreeMap<u64, u64>,
    /// Per-launch-index touched object ranges.
    launch_objects: Vec<Vec<Range>>,
    /// Per-launch-index touched tensor ranges.
    launch_tensors: Vec<Vec<Range>>,
    /// Fault/migration activity keyed by the *faulting* device (the
    /// routed `Event::UvmFault` stream — under parallel lanes each shard
    /// sees exactly its own device's faults).
    uvm: BTreeMap<accel_sim::DeviceId, UvmActivity>,
    /// Peer-to-peer coherence traffic keyed by (src, dst) — the routed
    /// `Event::UvmPeerMigrate` stream (each shard sees the operations
    /// whose *destination* is its device).
    peer: BTreeMap<(accel_sim::DeviceId, accel_sim::DeviceId), PeerTraffic>,
}

fn containing(map: &BTreeMap<u64, u64>, addr: u64) -> Option<Range> {
    map.range(..=addr)
        .next_back()
        .filter(|&(&base, &len)| addr < base + len)
        .map(|(&base, &len)| Range::new(base, len))
}

impl UvmPrefetchAdvisor {
    /// Creates the advisor.
    pub fn new() -> Self {
        UvmPrefetchAdvisor::default()
    }

    fn slot(&mut self, launch: usize) -> (&mut Vec<Range>, &mut Vec<Range>) {
        if launch >= self.launch_objects.len() {
            self.launch_objects.resize(launch + 1, Vec::new());
            self.launch_tensors.resize(launch + 1, Vec::new());
        }
        (
            &mut self.launch_objects[launch],
            &mut self.launch_tensors[launch],
        )
    }

    /// Number of launches profiled.
    pub fn launches_profiled(&self) -> usize {
        self.launch_objects.len()
    }

    /// Builds the prefetch plan at the requested granularity.
    pub fn build_plan(&self, granularity: PrefetchGranularity) -> PrefetchPlan {
        let mut plan = PrefetchPlan::with_capacity(self.launch_objects.len());
        plan.granularity = Some(granularity);
        let source = match granularity {
            PrefetchGranularity::None => return plan,
            PrefetchGranularity::Object => &self.launch_objects,
            PrefetchGranularity::Tensor => &self.launch_tensors,
        };
        for (i, ranges) in source.iter().enumerate() {
            for r in ranges {
                plan.add(i, *r);
            }
        }
        plan
    }

    /// Total bytes an object-level plan would move versus a tensor-level
    /// one — the "dead weight" factor.
    pub fn object_vs_tensor_bytes(&self) -> (u64, u64) {
        (
            self.build_plan(PrefetchGranularity::Object).total_bytes(),
            self.build_plan(PrefetchGranularity::Tensor).total_bytes(),
        )
    }

    /// Observed fault/migration activity of one device.
    pub fn uvm_activity_for(&self, device: accel_sim::DeviceId) -> UvmActivity {
        self.uvm.get(&device).copied().unwrap_or_default()
    }

    /// Devices with observed UVM activity, ascending.
    pub fn uvm_devices(&self) -> Vec<accel_sim::DeviceId> {
        self.uvm.keys().copied().collect()
    }

    /// Observed peer traffic of one (src, dst) device pair.
    pub fn peer_traffic_for(
        &self,
        src: accel_sim::DeviceId,
        dst: accel_sim::DeviceId,
    ) -> PeerTraffic {
        self.peer.get(&(src, dst)).copied().unwrap_or_default()
    }

    /// The full per-pair peer-traffic matrix, ascending (src, dst).
    pub fn peer_matrix(&self) -> Vec<((accel_sim::DeviceId, accel_sim::DeviceId), PeerTraffic)> {
        self.peer.iter().map(|(&k, &v)| (k, v)).collect()
    }
}

impl Tool for UvmPrefetchAdvisor {
    fn name(&self) -> &str {
        "uvm-prefetch-advisor"
    }

    fn interest(&self) -> Interest {
        Interest {
            global_accesses: true,
            memory_ops: true,
            framework_ops: true,
            ..Interest::default()
        }
    }

    fn on_event(&mut self, event: &Event) {
        match event {
            Event::ResourceAlloc {
                addr,
                bytes,
                managed: true,
                ..
            } => {
                self.objects.insert(*addr, *bytes);
            }
            Event::ResourceFree { addr, .. } => {
                self.objects.remove(addr);
            }
            Event::TensorAlloc { addr, bytes, .. } => {
                self.tensors.insert(*addr, *bytes);
            }
            Event::TensorFree { addr, .. } => {
                self.tensors.remove(addr);
            }
            Event::GlobalAccess { launch, batch, .. } => {
                let object = containing(&self.objects, batch.base);
                let tensor = containing(&self.tensors, batch.base)
                    .unwrap_or(Range::new(batch.base, batch.len));
                let idx = launch.value() as usize;
                let (objs, tens) = self.slot(idx);
                if let Some(o) = object {
                    if !objs.contains(&o) {
                        objs.push(o);
                    }
                }
                if !tens.contains(&tensor) {
                    tens.push(tensor);
                }
            }
            Event::UvmFault {
                device,
                groups,
                migrated_bytes,
                evicted_bytes,
                stall_ns,
                ..
            } => {
                self.uvm
                    .entry(*device)
                    .or_default()
                    .merge_from(&UvmActivity {
                        fault_groups: *groups,
                        migrated_bytes: *migrated_bytes,
                        evicted_bytes: *evicted_bytes,
                        stall_ns: *stall_ns,
                    });
            }
            Event::UvmPeerMigrate {
                src,
                dst,
                duplicated_pages,
                invalidated_pages,
                bytes,
                stall_ns,
                ..
            } => {
                self.peer
                    .entry((*src, *dst))
                    .or_default()
                    .merge_from(&PeerTraffic {
                        duplicated_pages: *duplicated_pages,
                        invalidated_pages: *invalidated_pages,
                        bytes: *bytes,
                        stall_ns: *stall_ns,
                    });
            }
            _ => {}
        }
    }

    fn report(&self) -> ToolReport {
        let (obj, ten) = self.object_vs_tensor_bytes();
        let mut report = ToolReport::new(self.name())
            .metric("launches", self.launches_profiled() as f64)
            .metric("object_plan_mb", crate::util::mb(obj))
            .metric("tensor_plan_mb", crate::util::mb(ten))
            .metric(
                "object_overfetch_factor",
                if ten > 0 {
                    obj as f64 / ten as f64
                } else {
                    0.0
                },
            );
        for (device, activity) in &self.uvm {
            report = report
                .metric(
                    format!("{device}_fault_groups"),
                    activity.fault_groups as f64,
                )
                .metric(
                    format!("{device}_migrated_mb"),
                    crate::util::mb(activity.migrated_bytes),
                )
                .metric(
                    format!("{device}_evicted_mb"),
                    crate::util::mb(activity.evicted_bytes),
                );
        }
        for ((src, dst), traffic) in &self.peer {
            report = report
                .metric(
                    format!("{src}_to_{dst}_peer_mb"),
                    crate::util::mb(traffic.bytes),
                )
                .metric(
                    format!("{src}_to_{dst}_invalidated_pages"),
                    traffic.invalidated_pages as f64,
                );
        }
        report
    }

    fn reset(&mut self) {
        self.objects.clear();
        self.tensors.clear();
        self.launch_objects.clear();
        self.launch_tensors.clear();
        self.uvm.clear();
        self.peer.clear();
    }

    fn fork(&self) -> Option<Box<dyn Tool>> {
        Some(Box::new(UvmPrefetchAdvisor::new()))
    }

    fn merge(&mut self, other: &dyn Tool) {
        let Some(other) = other.as_any().downcast_ref::<UvmPrefetchAdvisor>() else {
            return;
        };
        for (&base, &len) in &other.objects {
            self.objects.insert(base, len);
        }
        for (&base, &len) in &other.tensors {
            self.tensors.insert(base, len);
        }
        for (idx, ranges) in other.launch_objects.iter().enumerate() {
            let (objs, _) = self.slot(idx);
            for r in ranges {
                if !objs.contains(r) {
                    objs.push(*r);
                }
            }
        }
        for (idx, ranges) in other.launch_tensors.iter().enumerate() {
            let (_, tens) = self.slot(idx);
            for r in ranges {
                if !tens.contains(r) {
                    tens.push(*r);
                }
            }
        }
        for (device, activity) in &other.uvm {
            self.uvm.entry(*device).or_default().merge_from(activity);
        }
        for (pair, traffic) in &other.peer {
            self.peer.entry(*pair).or_default().merge_from(traffic);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::{
        AccessBatch, AccessKind, AccessPattern, DeviceId, LaunchId, MemSpace, SimTime,
    };
    use dl_framework::tensor::TensorId;

    fn managed_alloc(addr: u64, bytes: u64) -> Event {
        Event::ResourceAlloc {
            device: DeviceId(0),
            addr,
            bytes,
            managed: true,
            at: SimTime(0),
        }
    }

    fn tensor_alloc(addr: u64, bytes: u64) -> Event {
        Event::TensorAlloc {
            tensor: TensorId(addr),
            addr,
            bytes,
            allocated_total: 0,
            reserved_total: 0,
            device: DeviceId(0),
        }
    }

    fn access(launch: u64, base: u64, len: u64) -> Event {
        Event::GlobalAccess {
            launch: LaunchId(launch),
            kernel: "k".into(),
            batch: AccessBatch {
                launch: LaunchId(launch),
                spec_index: 0,
                base,
                len,
                records: 1,
                bytes: len,
                elem_size: 4,
                kind: AccessKind::Load,
                space: MemSpace::Global,
                pattern: AccessPattern::Sequential,
            },
        }
    }

    #[test]
    fn object_plan_overfetches_tensor_plan() {
        let mut a = UvmPrefetchAdvisor::new();
        // One 20 MiB segment holding a 1 MiB tensor that kernel 0 touches.
        a.on_event(&managed_alloc(0x1000_0000, 20 << 20));
        a.on_event(&tensor_alloc(0x1000_0000, 1 << 20));
        a.on_event(&access(0, 0x1000_0000, 1 << 20));
        let (obj, ten) = a.object_vs_tensor_bytes();
        assert_eq!(obj, 20 << 20, "object plan moves the whole segment");
        assert_eq!(ten, 1 << 20, "tensor plan moves just the tensor");
        let r = a.report();
        assert_eq!(r.get("object_overfetch_factor"), Some(20.0));
    }

    #[test]
    fn plans_index_by_launch() {
        let mut a = UvmPrefetchAdvisor::new();
        a.on_event(&managed_alloc(0, 4 << 20));
        a.on_event(&tensor_alloc(0, 1 << 20));
        a.on_event(&tensor_alloc(1 << 20, 1 << 20));
        a.on_event(&access(0, 0, 1 << 20));
        a.on_event(&access(2, 1 << 20, 1 << 20));
        let plan = a.build_plan(PrefetchGranularity::Tensor);
        assert_eq!(plan.ranges_for(0), &[Range::new(0, 1 << 20)]);
        assert!(plan.ranges_for(1).is_empty());
        assert_eq!(plan.ranges_for(2), &[Range::new(1 << 20, 1 << 20)]);
    }

    #[test]
    fn duplicate_touches_dedup() {
        let mut a = UvmPrefetchAdvisor::new();
        a.on_event(&managed_alloc(0, 4 << 20));
        a.on_event(&tensor_alloc(0, 1 << 20));
        a.on_event(&access(0, 0, 512 << 10));
        a.on_event(&access(0, 0, 512 << 10));
        let plan = a.build_plan(PrefetchGranularity::Object);
        assert_eq!(plan.ranges_for(0).len(), 1);
    }

    #[test]
    fn freed_objects_stop_matching() {
        let mut a = UvmPrefetchAdvisor::new();
        a.on_event(&managed_alloc(0, 4 << 20));
        a.on_event(&Event::ResourceFree {
            device: DeviceId(0),
            addr: 0,
            bytes: 4 << 20,
            at: SimTime(1),
        });
        a.on_event(&access(0, 0, 1 << 20));
        let plan = a.build_plan(PrefetchGranularity::Object);
        assert!(plan.ranges_for(0).is_empty());
        // Tensor plan falls back to the raw batch extent.
        let tplan = a.build_plan(PrefetchGranularity::Tensor);
        assert_eq!(tplan.ranges_for(0).len(), 1);
    }

    #[test]
    fn fault_activity_accumulates_per_faulting_device_and_merges() {
        fn fault(device: u32, groups: u64, migrated: u64) -> Event {
            Event::UvmFault {
                launch: LaunchId(0),
                device: DeviceId(device),
                groups,
                migrated_bytes: migrated,
                evicted_bytes: migrated / 4,
                stall_ns: groups * 100,
                at: SimTime(0),
            }
        }
        let mut shard0 = UvmPrefetchAdvisor::new();
        shard0.on_event(&fault(0, 2, 8 << 20));
        shard0.on_event(&fault(0, 1, 4 << 20));
        let mut shard1 = UvmPrefetchAdvisor::new();
        shard1.on_event(&fault(1, 5, 16 << 20));

        let a0 = shard0.uvm_activity_for(DeviceId(0));
        assert_eq!(a0.fault_groups, 3);
        assert_eq!(a0.migrated_bytes, 12 << 20);
        assert_eq!(shard0.uvm_activity_for(DeviceId(1)), UvmActivity::default());

        let mut merged = shard0.fork().unwrap();
        merged.merge(&shard0);
        merged.merge(&shard1);
        let merged = merged
            .as_any()
            .downcast_ref::<UvmPrefetchAdvisor>()
            .unwrap();
        assert_eq!(merged.uvm_devices(), vec![DeviceId(0), DeviceId(1)]);
        assert_eq!(merged.uvm_activity_for(DeviceId(0)).fault_groups, 3);
        assert_eq!(merged.uvm_activity_for(DeviceId(1)).fault_groups, 5);
        let r = merged.report();
        assert_eq!(r.get("gpu0_migrated_mb"), Some(12.0));
        assert_eq!(r.get("gpu1_fault_groups"), Some(5.0));
    }

    #[test]
    fn peer_matrix_accumulates_per_pair_and_merges() {
        fn peer(src: u32, dst: u32, pages: u64, invalidated: u64) -> Event {
            Event::UvmPeerMigrate {
                launch: LaunchId(0),
                src: DeviceId(src),
                dst: DeviceId(dst),
                duplicated_pages: pages,
                invalidated_pages: invalidated,
                bytes: pages * (64 << 10),
                stall_ns: pages * 10,
                at: SimTime(0),
            }
        }
        let mut shard1 = UvmPrefetchAdvisor::new();
        shard1.on_event(&peer(0, 1, 16, 0));
        shard1.on_event(&peer(0, 1, 16, 4));
        let mut shard0 = UvmPrefetchAdvisor::new();
        shard0.on_event(&peer(1, 0, 8, 0));

        let t = shard1.peer_traffic_for(DeviceId(0), DeviceId(1));
        assert_eq!(t.duplicated_pages, 32);
        assert_eq!(t.invalidated_pages, 4);
        assert_eq!(
            shard1.peer_traffic_for(DeviceId(1), DeviceId(0)),
            PeerTraffic::default(),
            "directions are distinct matrix cells"
        );

        let mut merged = shard0.fork().unwrap();
        merged.merge(&shard0);
        merged.merge(&shard1);
        let merged = merged
            .as_any()
            .downcast_ref::<UvmPrefetchAdvisor>()
            .unwrap();
        assert_eq!(
            merged
                .peer_matrix()
                .iter()
                .map(|&(pair, _)| pair)
                .collect::<Vec<_>>(),
            vec![(DeviceId(0), DeviceId(1)), (DeviceId(1), DeviceId(0)),],
            "matrix rows ascending by (src, dst)"
        );
        let r = merged.report();
        assert_eq!(r.get("gpu0_to_gpu1_peer_mb"), Some(2.0));
        assert_eq!(r.get("gpu0_to_gpu1_invalidated_pages"), Some(4.0));
        assert_eq!(r.get("gpu1_to_gpu0_peer_mb"), Some(0.5));
    }

    #[test]
    fn none_granularity_is_empty() {
        let mut a = UvmPrefetchAdvisor::new();
        a.on_event(&managed_alloc(0, 1 << 20));
        a.on_event(&access(0, 0, 1 << 20));
        assert!(a.build_plan(PrefetchGranularity::None).is_empty());
    }
}
