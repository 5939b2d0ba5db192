//! Memory characteristics / working-set analysis (paper §V-B2, Table V).
//!
//! The working set of a workload is "the maximum memory footprint of any
//! single kernel execution" — which requires knowing which bytes each
//! kernel *actually accesses*, not just its argument list. The tool
//! accumulates the access-batch extents of each launch, merges them, and
//! keeps the distribution of per-kernel footprints alongside the model's
//! overall reserved-memory footprint.

use crate::util::{mb, merged_extent, percentile};
use accel_sim::{AccessBatch, LaunchId};
use pasta_core::{Event, Interest, Tool, ToolReport};
use std::any::Any;

/// Table V's row for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryCharacteristics {
    /// Kernel launches observed.
    pub kernel_count: u64,
    /// Peak reserved memory (the paper's "Memory Footprint"), bytes.
    pub footprint: u64,
    /// Maximum per-kernel accessed bytes (the "Working Set").
    pub working_set: u64,
    /// Minimum per-kernel accessed bytes.
    pub min_ws: u64,
    /// Mean per-kernel accessed bytes.
    pub avg_ws: u64,
    /// Median per-kernel accessed bytes.
    pub median_ws: u64,
    /// 90th-percentile per-kernel accessed bytes.
    pub p90_ws: u64,
    /// UVM fault groups kernels serviced (managed-allocator runs).
    pub uvm_fault_groups: u64,
    /// Bytes the UVM model migrated in for kernel accesses.
    pub uvm_migrated_bytes: u64,
    /// Bytes read-duplicated over the peer link (shared managed ranges).
    pub uvm_peer_bytes: u64,
    /// Duplicate pages invalidated by writes to shared ranges.
    pub uvm_invalidated_pages: u64,
}

/// The working-set analysis tool.
#[derive(Debug, Default)]
pub struct MemoryCharacteristicsTool {
    current_launch: Option<LaunchId>,
    current_ranges: Vec<(u64, u64)>,
    per_kernel_ws: Vec<u64>,
    peak_reserved: u64,
    uvm_fault_groups: u64,
    uvm_migrated_bytes: u64,
    uvm_peer_bytes: u64,
    uvm_invalidated_pages: u64,
}

impl MemoryCharacteristicsTool {
    /// Creates the tool.
    pub fn new() -> Self {
        MemoryCharacteristicsTool::default()
    }

    fn finish_launch(&mut self) {
        if self.current_launch.take().is_some() {
            let ws = merged_extent(&mut self.current_ranges);
            self.current_ranges.clear();
            if ws > 0 {
                self.per_kernel_ws.push(ws);
            }
        }
    }

    fn add_batch(&mut self, launch: LaunchId, batch: &AccessBatch) {
        if self.current_launch != Some(launch) {
            self.finish_launch();
            self.current_launch = Some(launch);
        }
        self.current_ranges.push((batch.base, batch.len));
    }

    /// Closes the in-flight launch and computes the Table V row.
    pub fn characteristics(&mut self) -> MemoryCharacteristics {
        self.finish_launch();
        let mut sorted = self.per_kernel_ws.clone();
        sorted.sort_unstable();
        let count = sorted.len() as u64;
        let sum: u64 = sorted.iter().sum();
        MemoryCharacteristics {
            kernel_count: count,
            footprint: self.peak_reserved,
            working_set: sorted.last().copied().unwrap_or(0),
            min_ws: sorted.first().copied().unwrap_or(0),
            avg_ws: sum.checked_div(count).unwrap_or(0),
            // A run with no kernels reports 0 across the row (same
            // convention as min/avg/working-set above).
            median_ws: percentile(&sorted, 50.0).unwrap_or(0),
            p90_ws: percentile(&sorted, 90.0).unwrap_or(0),
            uvm_fault_groups: self.uvm_fault_groups,
            uvm_migrated_bytes: self.uvm_migrated_bytes,
            uvm_peer_bytes: self.uvm_peer_bytes,
            uvm_invalidated_pages: self.uvm_invalidated_pages,
        }
    }
}

impl Tool for MemoryCharacteristicsTool {
    fn name(&self) -> &str {
        "memory-characteristics"
    }

    fn interest(&self) -> Interest {
        Interest {
            global_accesses: true,
            // Host memory events carry the UVM fault/migration stream.
            memory_ops: true,
            framework_ops: true,
            ..Interest::default()
        }
    }

    fn on_event(&mut self, event: &Event) {
        match event {
            Event::GlobalAccess { launch, batch, .. } => self.add_batch(*launch, batch),
            Event::TensorAlloc { reserved_total, .. }
            | Event::TensorFree { reserved_total, .. } => {
                self.peak_reserved = self.peak_reserved.max(*reserved_total);
            }
            Event::UvmFault {
                groups,
                migrated_bytes,
                ..
            } => {
                self.uvm_fault_groups += groups;
                self.uvm_migrated_bytes += migrated_bytes;
            }
            Event::UvmPeerMigrate {
                bytes,
                invalidated_pages,
                ..
            } => {
                self.uvm_peer_bytes += bytes;
                self.uvm_invalidated_pages += invalidated_pages;
            }
            _ => {}
        }
    }

    fn report(&self) -> ToolReport {
        // `report` takes &self; clone to finish the in-flight launch.
        let mut snapshot = MemoryCharacteristicsTool {
            current_launch: self.current_launch,
            current_ranges: self.current_ranges.clone(),
            per_kernel_ws: self.per_kernel_ws.clone(),
            peak_reserved: self.peak_reserved,
            uvm_fault_groups: self.uvm_fault_groups,
            uvm_migrated_bytes: self.uvm_migrated_bytes,
            uvm_peer_bytes: self.uvm_peer_bytes,
            uvm_invalidated_pages: self.uvm_invalidated_pages,
        };
        let c = snapshot.characteristics();
        ToolReport::new(self.name())
            .metric("kernel_count", c.kernel_count as f64)
            .metric("footprint_mb", mb(c.footprint))
            .metric("working_set_mb", mb(c.working_set))
            .metric("min_ws_bytes", c.min_ws as f64)
            .metric("avg_ws_mb", mb(c.avg_ws))
            .metric("median_ws_mb", mb(c.median_ws))
            .metric("p90_ws_mb", mb(c.p90_ws))
            .metric("uvm_fault_groups", c.uvm_fault_groups as f64)
            .metric("uvm_migrated_mb", mb(c.uvm_migrated_bytes))
            .metric("uvm_peer_mb", mb(c.uvm_peer_bytes))
            .metric("uvm_invalidated_pages", c.uvm_invalidated_pages as f64)
    }

    fn reset(&mut self) {
        self.current_launch = None;
        self.current_ranges.clear();
        self.per_kernel_ws.clear();
        self.peak_reserved = 0;
        self.uvm_fault_groups = 0;
        self.uvm_migrated_bytes = 0;
        self.uvm_peer_bytes = 0;
        self.uvm_invalidated_pages = 0;
    }

    fn fork(&self) -> Option<Box<dyn Tool>> {
        Some(Box::new(MemoryCharacteristicsTool::new()))
    }

    fn merge(&mut self, other: &dyn Tool) {
        let Some(other) = other.as_any().downcast_ref::<MemoryCharacteristicsTool>() else {
            return;
        };
        // Close the other shard's in-flight launch on a snapshot so its
        // working set joins the distribution.
        let mut snapshot = MemoryCharacteristicsTool {
            current_launch: other.current_launch,
            current_ranges: other.current_ranges.clone(),
            per_kernel_ws: Vec::new(),
            peak_reserved: 0,
            uvm_fault_groups: 0,
            uvm_migrated_bytes: 0,
            uvm_peer_bytes: 0,
            uvm_invalidated_pages: 0,
        };
        snapshot.finish_launch();
        self.per_kernel_ws
            .extend(other.per_kernel_ws.iter().copied());
        self.per_kernel_ws.extend(snapshot.per_kernel_ws);
        self.peak_reserved = self.peak_reserved.max(other.peak_reserved);
        self.uvm_fault_groups += other.uvm_fault_groups;
        self.uvm_migrated_bytes += other.uvm_migrated_bytes;
        self.uvm_peer_bytes += other.uvm_peer_bytes;
        self.uvm_invalidated_pages += other.uvm_invalidated_pages;
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
    use accel_sim::{AccessKind, AccessPattern, DeviceId, MemSpace};
    use dl_framework::tensor::TensorId;

    fn batch(base: u64, len: u64) -> AccessBatch {
        AccessBatch {
            launch: LaunchId(0),
            spec_index: 0,
            base,
            len,
            records: len / 128,
            bytes: len,
            elem_size: 4,
            kind: AccessKind::Load,
            space: MemSpace::Global,
            pattern: AccessPattern::Sequential,
        }
    }

    fn access(launch: u64, base: u64, len: u64) -> Event {
        Event::GlobalAccess {
            launch: LaunchId(launch),
            kernel: "k".into(),
            batch: batch(base, len),
        }
    }

    #[test]
    fn working_set_is_max_per_kernel_extent() {
        let mut t = MemoryCharacteristicsTool::new();
        // Kernel 0 touches two overlapping ranges: 0..100 and 50..150.
        t.on_event(&access(0, 0, 100));
        t.on_event(&access(0, 50, 100));
        // Kernel 1 touches a disjoint 1000-byte extent.
        t.on_event(&access(1, 10_000, 1_000));
        let c = t.characteristics();
        assert_eq!(c.kernel_count, 2);
        assert_eq!(c.working_set, 1_000);
        assert_eq!(c.min_ws, 150, "overlap merged, not summed");
        assert_eq!(c.avg_ws, (150 + 1000) / 2);
    }

    #[test]
    fn footprint_tracks_reserved_peak() {
        let mut t = MemoryCharacteristicsTool::new();
        t.on_event(&Event::TensorAlloc {
            tensor: TensorId(0),
            addr: 0,
            bytes: 10,
            allocated_total: 10,
            reserved_total: 40 << 20,
            device: DeviceId(0),
        });
        t.on_event(&Event::TensorFree {
            tensor: TensorId(0),
            addr: 0,
            bytes: 10,
            allocated_total: 0,
            reserved_total: 40 << 20,
            device: DeviceId(0),
        });
        assert_eq!(t.characteristics().footprint, 40 << 20);
    }

    #[test]
    fn percentiles_cover_distribution() {
        let mut t = MemoryCharacteristicsTool::new();
        for i in 0..10u64 {
            t.on_event(&access(i, i * 1_000_000, (i + 1) * 100));
        }
        let c = t.characteristics();
        assert_eq!(c.kernel_count, 10);
        assert_eq!(c.median_ws, 500);
        assert_eq!(c.p90_ws, 900);
        assert_eq!(c.working_set, 1000);
    }

    #[test]
    fn report_is_in_megabytes() {
        let mut t = MemoryCharacteristicsTool::new();
        t.on_event(&access(0, 0, 10 << 20));
        let r = t.report();
        assert_eq!(r.get("working_set_mb"), Some(10.0));
        assert_eq!(r.get("kernel_count"), Some(1.0));
    }

    #[test]
    fn peer_and_invalidation_columns_accumulate_and_merge() {
        use accel_sim::{DeviceId as Dev, SimTime};
        let peer = |bytes: u64, invalidated: u64| Event::UvmPeerMigrate {
            launch: LaunchId(0),
            src: Dev(0),
            dst: Dev(1),
            duplicated_pages: bytes / (64 << 10),
            invalidated_pages: invalidated,
            bytes,
            stall_ns: 1,
            at: SimTime(0),
        };
        let mut t = MemoryCharacteristicsTool::new();
        t.on_event(&peer(4 << 20, 0));
        t.on_event(&peer(2 << 20, 5));
        let c = t.characteristics();
        assert_eq!(c.uvm_peer_bytes, 6 << 20);
        assert_eq!(c.uvm_invalidated_pages, 5);
        let r = t.report();
        assert_eq!(r.get("uvm_peer_mb"), Some(6.0));
        assert_eq!(r.get("uvm_invalidated_pages"), Some(5.0));
        let mut merged = t.fork().unwrap();
        merged.merge(&t);
        merged.merge(&t);
        let merged = merged
            .as_any()
            .downcast_ref::<MemoryCharacteristicsTool>()
            .unwrap();
        let mut merged = MemoryCharacteristicsTool {
            current_launch: merged.current_launch,
            current_ranges: merged.current_ranges.clone(),
            per_kernel_ws: merged.per_kernel_ws.clone(),
            peak_reserved: merged.peak_reserved,
            uvm_fault_groups: merged.uvm_fault_groups,
            uvm_migrated_bytes: merged.uvm_migrated_bytes,
            uvm_peer_bytes: merged.uvm_peer_bytes,
            uvm_invalidated_pages: merged.uvm_invalidated_pages,
        };
        assert_eq!(merged.characteristics().uvm_peer_bytes, 12 << 20);
        assert_eq!(merged.characteristics().uvm_invalidated_pages, 10);
        t.reset();
        assert_eq!(t.characteristics().uvm_peer_bytes, 0);
    }

    #[test]
    fn empty_run_is_zeroed() {
        let mut t = MemoryCharacteristicsTool::new();
        let c = t.characteristics();
        assert_eq!(c.kernel_count, 0);
        assert_eq!(c.working_set, 0);
    }
}
