//! Memory-usage timelines over logical event time (paper Figs. 14–15).
//!
//! Records the allocator's live-bytes total at every tensor
//! allocation/reclamation event, per device. Plotting the series
//! reproduces Fig. 14 (NVIDIA vs AMD GPT-2 training) and Fig. 15
//! (per-GPU curves under DP/TP/PP).

use accel_sim::DeviceId;
use pasta_core::{Event, Interest, Tool, ToolReport};

/// One point of the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelinePoint {
    /// Logical timestamp: tensor alloc/free event index (the paper's
    /// x-axis).
    pub event_index: u64,
    /// Live tensor bytes after the event.
    pub allocated: u64,
    /// True for an allocation, false for a reclamation.
    pub is_alloc: bool,
}

/// Cumulative UVM traffic one device's launches generated — the managed
/// -memory overlay of the per-device timeline (Fig. 15 under
/// oversubscription).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UvmTraffic {
    /// Bytes migrated host→device.
    pub migrated_bytes: u64,
    /// Bytes evicted device→host.
    pub evicted_bytes: u64,
    /// Bytes read-duplicated onto this device over the peer link
    /// (shared managed ranges).
    pub peer_in_bytes: u64,
    /// This device's duplicate pages invalidated by remote writes.
    pub invalidated_pages: u64,
    /// Device stall charged by the UVM model, ns.
    pub stall_ns: u64,
}

/// One device's timeline and managed-memory overlay.
#[derive(Debug, Default)]
struct DeviceTimeline {
    points: Vec<TimelinePoint>,
    /// Managed-memory traffic of the launches that *faulted* here.
    uvm: UvmTraffic,
}

/// The memory-timeline tool.
#[derive(Debug, Default)]
pub struct MemoryTimelineTool {
    /// Every device with activity (tensor events or UVM traffic),
    /// ascending by ordinal. A session has a handful of devices, so a
    /// lookup is a short binary search with no hashing; and unlike a table
    /// indexed by ordinal, an ordinal read from a trace file (any `u32`)
    /// sizes nothing.
    devices: Vec<(DeviceId, DeviceTimeline)>,
    counter: u64,
}

impl MemoryTimelineTool {
    /// Creates the tool.
    pub fn new() -> Self {
        MemoryTimelineTool::default()
    }

    fn device(&self, device: DeviceId) -> Option<&DeviceTimeline> {
        let at = self
            .devices
            .binary_search_by_key(&device, |&(d, _)| d)
            .ok()?;
        Some(&self.devices[at].1)
    }

    /// The timeline of `device`, made empty if it had none.
    fn device_mut(&mut self, device: DeviceId) -> &mut DeviceTimeline {
        let at = self
            .devices
            .binary_search_by_key(&device, |&(d, _)| d)
            .unwrap_or_else(|at| {
                self.devices.insert(at, (device, DeviceTimeline::default()));
                at
            });
        &mut self.devices[at].1
    }

    /// The timeline of one device.
    pub fn series_for(&self, device: DeviceId) -> &[TimelinePoint] {
        self.device(device).map_or(&[], |d| d.points.as_slice())
    }

    /// Devices with recorded activity (tensor events or UVM traffic).
    pub fn devices(&self) -> Vec<DeviceId> {
        self.devices.iter().map(|&(d, _)| d).collect()
    }

    /// Cumulative UVM traffic of one device's launches.
    pub fn uvm_for(&self, device: DeviceId) -> UvmTraffic {
        self.device(device).map(|d| d.uvm).unwrap_or_default()
    }

    /// Peak live bytes on one device.
    pub fn peak_for(&self, device: DeviceId) -> u64 {
        self.series_for(device)
            .iter()
            .map(|p| p.allocated)
            .max()
            .unwrap_or(0)
    }

    /// Total alloc+free events on one device.
    pub fn events_for(&self, device: DeviceId) -> usize {
        self.series_for(device).len()
    }

    /// Pointwise difference between two devices' series (the Δ subplots
    /// of Figs. 14–15), sampled at the shorter series' length.
    pub fn delta(&self, a: DeviceId, b: DeviceId) -> Vec<i64> {
        let sa = self.series_for(a);
        let sb = self.series_for(b);
        sa.iter()
            .zip(sb.iter())
            .map(|(x, y)| x.allocated as i64 - y.allocated as i64)
            .collect()
    }
}

impl Tool for MemoryTimelineTool {
    fn name(&self) -> &str {
        "memory-timeline"
    }

    fn interest(&self) -> Interest {
        // Host memory events carry the UVM fault/migration stream.
        Interest::FRAMEWORK_OPS | Interest::MEMORY_OPS
    }

    fn on_event(&mut self, event: &Event) {
        let (device, allocated, is_alloc) = match event {
            Event::TensorAlloc {
                device,
                allocated_total,
                ..
            } => (*device, *allocated_total, true),
            Event::TensorFree {
                device,
                allocated_total,
                ..
            } => (*device, *allocated_total, false),
            Event::UvmFault {
                device,
                migrated_bytes,
                evicted_bytes,
                stall_ns,
                ..
            } => {
                let traffic = &mut self.device_mut(*device).uvm;
                traffic.migrated_bytes += migrated_bytes;
                traffic.evicted_bytes += evicted_bytes;
                traffic.stall_ns += stall_ns;
                return;
            }
            Event::UvmPeerMigrate {
                dst,
                bytes,
                invalidated_pages,
                stall_ns,
                ..
            } => {
                // Peer traffic lands on the *destination* device's
                // overlay — that is whose residency changed.
                let traffic = &mut self.device_mut(*dst).uvm;
                traffic.peer_in_bytes += bytes;
                traffic.invalidated_pages += invalidated_pages;
                traffic.stall_ns += stall_ns;
                return;
            }
            _ => return,
        };
        self.counter += 1;
        let series = &mut self.device_mut(device).points;
        let event_index = series.len() as u64;
        series.push(TimelinePoint {
            event_index,
            allocated,
            is_alloc,
        });
    }

    fn report(&self) -> ToolReport {
        let mut report = ToolReport::new(self.name());
        for device in self.devices() {
            report = report
                .metric(format!("{device}_events"), self.events_for(device) as f64)
                .metric(
                    format!("{device}_peak_mb"),
                    crate::util::mb(self.peak_for(device)),
                );
            let traffic = self.uvm_for(device);
            if traffic != UvmTraffic::default() {
                report = report
                    .metric(
                        format!("{device}_uvm_migrated_mb"),
                        crate::util::mb(traffic.migrated_bytes),
                    )
                    .metric(
                        format!("{device}_uvm_evicted_mb"),
                        crate::util::mb(traffic.evicted_bytes),
                    );
                if traffic.peer_in_bytes > 0 || traffic.invalidated_pages > 0 {
                    report = report
                        .metric(
                            format!("{device}_uvm_peer_in_mb"),
                            crate::util::mb(traffic.peer_in_bytes),
                        )
                        .metric(
                            format!("{device}_uvm_invalidated_pages"),
                            traffic.invalidated_pages as f64,
                        );
                }
            }
        }
        report
    }

    fn reset(&mut self) {
        self.devices.clear();
        self.counter = 0;
    }

    fn fork(&self) -> Option<Box<dyn Tool>> {
        Some(Box::new(MemoryTimelineTool::new()))
    }

    fn merge(&mut self, other: &dyn Tool) {
        let Some(other) = other.downcast_ref::<MemoryTimelineTool>() else {
            return;
        };
        // Shards see disjoint devices, so this is normally a plain union;
        // overlapping devices append after the existing points, reindexed
        // to keep per-device event indices dense.
        for (device, theirs) in &other.devices {
            let mine = self.device_mut(*device);
            let base = mine.points.len() as u64;
            mine.points.extend(
                theirs
                    .points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| TimelinePoint {
                        event_index: base + i as u64,
                        ..*p
                    }),
            );
            let (uvm, traffic) = (&mut mine.uvm, &theirs.uvm);
            uvm.migrated_bytes += traffic.migrated_bytes;
            uvm.evicted_bytes += traffic.evicted_bytes;
            uvm.peer_in_bytes += traffic.peer_in_bytes;
            uvm.invalidated_pages += traffic.invalidated_pages;
            uvm.stall_ns += traffic.stall_ns;
        }
        self.counter += other.counter;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_framework::tensor::TensorId;

    fn alloc(device: u32, total: u64) -> Event {
        Event::TensorAlloc {
            tensor: TensorId(0),
            addr: 0,
            bytes: 1,
            allocated_total: total,
            reserved_total: total,
            device: DeviceId(device),
        }
    }

    fn free(device: u32, total: u64) -> Event {
        Event::TensorFree {
            tensor: TensorId(0),
            addr: 0,
            bytes: 1,
            allocated_total: total,
            reserved_total: total,
            device: DeviceId(device),
        }
    }

    #[test]
    fn ramp_up_peak_ramp_down() {
        let mut t = MemoryTimelineTool::new();
        for total in [100, 200, 300] {
            t.on_event(&alloc(0, total));
        }
        for total in [200, 100, 0] {
            t.on_event(&free(0, total));
        }
        let series = t.series_for(DeviceId(0));
        assert_eq!(series.len(), 6);
        assert_eq!(t.peak_for(DeviceId(0)), 300);
        assert!(series[2].is_alloc);
        assert!(!series[3].is_alloc);
        assert_eq!(series.last().unwrap().allocated, 0);
    }

    #[test]
    fn per_device_series_and_delta() {
        let mut t = MemoryTimelineTool::new();
        t.on_event(&alloc(0, 100));
        t.on_event(&alloc(1, 60));
        t.on_event(&alloc(0, 200));
        t.on_event(&alloc(1, 160));
        assert_eq!(t.devices(), vec![DeviceId(0), DeviceId(1)]);
        assert_eq!(t.delta(DeviceId(0), DeviceId(1)), vec![40, 40]);
        let r = t.report();
        assert_eq!(r.get("gpu0_events"), Some(2.0));
        assert_eq!(r.get("gpu1_events"), Some(2.0));
    }

    #[test]
    fn merge_unions_disjoint_devices() {
        let mut a = MemoryTimelineTool::new();
        a.on_event(&alloc(0, 100));
        let mut b = MemoryTimelineTool::new();
        b.on_event(&alloc(1, 60));
        b.on_event(&free(1, 0));
        let mut merged = a.fork().unwrap();
        merged.merge(&a);
        merged.merge(&b);
        let merged = merged.downcast_ref::<MemoryTimelineTool>().unwrap();
        assert_eq!(merged.devices(), vec![DeviceId(0), DeviceId(1)]);
        assert_eq!(merged.events_for(DeviceId(1)), 2);
        assert_eq!(merged.series_for(DeviceId(1))[1].event_index, 1);
        assert_eq!(merged.peak_for(DeviceId(0)), 100);
    }

    #[test]
    fn uvm_traffic_attributes_to_the_faulting_device() {
        use accel_sim::{LaunchId, SimTime};
        let mut t = MemoryTimelineTool::new();
        t.on_event(&Event::UvmFault {
            launch: LaunchId(0),
            device: DeviceId(1),
            groups: 2,
            migrated_bytes: 6 << 20,
            evicted_bytes: 1 << 20,
            stall_ns: 500,
            at: SimTime(0),
        });
        assert_eq!(t.uvm_for(DeviceId(1)).migrated_bytes, 6 << 20);
        assert_eq!(t.uvm_for(DeviceId(0)), UvmTraffic::default());
        assert_eq!(t.devices(), vec![DeviceId(1)]);
        let r = t.report();
        assert_eq!(r.get("gpu1_uvm_migrated_mb"), Some(6.0));
        assert_eq!(r.get("gpu1_uvm_evicted_mb"), Some(1.0));
        // Merge sums traffic per device.
        let mut other = MemoryTimelineTool::new();
        other.on_event(&Event::UvmFault {
            launch: LaunchId(1),
            device: DeviceId(1),
            groups: 1,
            migrated_bytes: 2 << 20,
            evicted_bytes: 0,
            stall_ns: 100,
            at: SimTime(1),
        });
        let mut merged = t.fork().unwrap();
        merged.merge(&t);
        merged.merge(&other);
        let merged = merged.downcast_ref::<MemoryTimelineTool>().unwrap();
        assert_eq!(merged.uvm_for(DeviceId(1)).migrated_bytes, 8 << 20);
    }

    #[test]
    fn peer_traffic_overlays_the_destination_device() {
        use accel_sim::{LaunchId, SimTime};
        let mut t = MemoryTimelineTool::new();
        t.on_event(&Event::UvmPeerMigrate {
            launch: LaunchId(0),
            src: DeviceId(0),
            dst: DeviceId(1),
            duplicated_pages: 32,
            invalidated_pages: 3,
            bytes: 2 << 20,
            stall_ns: 700,
            at: SimTime(0),
        });
        assert_eq!(t.uvm_for(DeviceId(1)).peer_in_bytes, 2 << 20);
        assert_eq!(t.uvm_for(DeviceId(1)).invalidated_pages, 3);
        assert_eq!(t.uvm_for(DeviceId(0)), UvmTraffic::default());
        let r = t.report();
        assert_eq!(r.get("gpu1_uvm_peer_in_mb"), Some(2.0));
        assert_eq!(r.get("gpu1_uvm_invalidated_pages"), Some(3.0));
        // Merge folds the overlay per device.
        let mut merged = t.fork().unwrap();
        merged.merge(&t);
        merged.merge(&t);
        let merged = merged.downcast_ref::<MemoryTimelineTool>().unwrap();
        assert_eq!(merged.uvm_for(DeviceId(1)).peer_in_bytes, 4 << 20);
    }

    #[test]
    fn event_index_is_per_device() {
        let mut t = MemoryTimelineTool::new();
        t.on_event(&alloc(0, 1));
        t.on_event(&alloc(1, 1));
        t.on_event(&alloc(0, 2));
        assert_eq!(t.series_for(DeviceId(0))[1].event_index, 1);
        assert_eq!(t.series_for(DeviceId(1))[0].event_index, 0);
    }
}
