//! The unified PASTA event model.
//!
//! One [`Event`] enum covers every event the paper's Table II lists, from
//! coarse host-called API events through fine-grained device-side
//! operations to high-level DL-framework events. Vendor-specific details
//! are gone by the time an `Event` exists — that is [`crate::normalize`]'s
//! job.

use accel_sim::{
    AccessBatch, CopyDirection, DeviceId, Dim3, KernelTraceSummary, LaunchId, SimTime, StreamId,
    Symbol,
};
use dl_framework::callbacks::Pass;
use dl_framework::pycall::PyFrame;
use dl_framework::tensor::TensorId;
use std::sync::Arc;

/// Broad event classes, used for interest declarations and filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventClass {
    /// Driver/runtime API enter-exit events.
    HostApi,
    /// Kernel launch lifecycle.
    Kernel,
    /// Host-visible memory operations (alloc/free/copy/set/batch).
    Memory,
    /// Synchronization.
    Sync,
    /// Fine-grained device-side accesses (global/shared/remote).
    DeviceAccess,
    /// Fine-grained device-side control (barriers, blocks, calls, pipes).
    DeviceControl,
    /// DL-framework events (ops, tensors, passes).
    Framework,
    /// User annotations (regions, layers).
    Annotation,
}

impl EventClass {
    /// Every class, in [`EventClass::index`] order — the rows of the
    /// per-class dispatch table.
    pub const ALL: [EventClass; 8] = [
        EventClass::HostApi,
        EventClass::Kernel,
        EventClass::Memory,
        EventClass::Sync,
        EventClass::DeviceAccess,
        EventClass::DeviceControl,
        EventClass::Framework,
        EventClass::Annotation,
    ];

    /// Dense index of this class into [`EventClass::ALL`].
    pub fn index(self) -> usize {
        match self {
            EventClass::HostApi => 0,
            EventClass::Kernel => 1,
            EventClass::Memory => 2,
            EventClass::Sync => 3,
            EventClass::DeviceAccess => 4,
            EventClass::DeviceControl => 5,
            EventClass::Framework => 6,
            EventClass::Annotation => 7,
        }
    }
}

/// A normalized runtime event (paper Table II).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    // --- Coarse-grained host-called API events ---------------------------
    /// Any driver-level API function ("All Driver Functions").
    DriverApi {
        /// Normalized API name (vendor prefix stripped), interned.
        name: Symbol,
        /// Device current when the API was entered (the sharded hub's
        /// routing key).
        device: DeviceId,
        /// Host time.
        at: SimTime,
    },
    /// Any runtime-level API function ("All Runtime Functions").
    RuntimeApi {
        /// Normalized API name, interned.
        name: Symbol,
        /// Device current when the API was entered.
        device: DeviceId,
        /// Host time.
        at: SimTime,
    },
    /// Synchronization call completed.
    Sync {
        /// Device synchronized.
        device: DeviceId,
        /// Host time after the wait.
        at: SimTime,
    },
    /// A kernel is about to execute (from the device-trace path, so it
    /// precedes the fine-grained events of that launch).
    KernelLaunchBegin {
        /// Launch ("grid") id.
        launch: LaunchId,
        /// Device.
        device: DeviceId,
        /// Stream.
        stream: StreamId,
        /// Kernel symbol, interned once per launch.
        name: Symbol,
        /// Grid dimensions (normalized from AMD workgroup counts).
        grid: Dim3,
        /// Block dimensions.
        block: Dim3,
    },
    /// A kernel finished; carries timing.
    KernelLaunchEnd {
        /// Launch id.
        launch: LaunchId,
        /// Device.
        device: DeviceId,
        /// Kernel symbol, interned once per launch.
        name: Symbol,
        /// Device-time start.
        start: SimTime,
        /// Device-time end.
        end: SimTime,
    },
    /// Memory copy.
    MemCopy {
        /// Device.
        device: DeviceId,
        /// Direction.
        direction: CopyDirection,
        /// Bytes moved.
        bytes: u64,
        /// Host time.
        at: SimTime,
    },
    /// Memory set.
    MemSet {
        /// Device.
        device: DeviceId,
        /// Base address.
        addr: u64,
        /// Bytes.
        bytes: u64,
        /// Host time.
        at: SimTime,
    },
    /// Device or managed memory allocated ("Resource Operations").
    /// Sizes are always positive after normalization.
    ResourceAlloc {
        /// Device.
        device: DeviceId,
        /// Base address.
        addr: u64,
        /// Bytes (positive).
        bytes: u64,
        /// Managed (UVM) allocation.
        managed: bool,
        /// Host time.
        at: SimTime,
    },
    /// Memory released. Bytes are positive regardless of the vendor's
    /// sign convention (the paper's §III-G normalization example).
    ResourceFree {
        /// Device.
        device: DeviceId,
        /// Base address.
        addr: u64,
        /// Bytes (positive).
        bytes: u64,
        /// Host time.
        at: SimTime,
    },
    /// Batch memory operation (prefetch/advise).
    BatchMemOp {
        /// Device.
        device: DeviceId,
        /// Operation label, normalized (`"mem_prefetch"`, `"mem_advise"`).
        op: Symbol,
        /// Base address.
        addr: u64,
        /// Bytes covered.
        bytes: u64,
        /// Host time.
        at: SimTime,
    },
    /// Managed-memory fault/migration activity one launch triggered
    /// (normalized from NVIDIA `UvmFault` and AMD `PageMigrate`
    /// callbacks). `device` is the *faulting* device — the device the
    /// kernel executed on — which is also the sharded hub's routing key,
    /// so a lane's faults always land in that lane's shard.
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
        /// Device stall charged to the launch, ns.
        stall_ns: u64,
        /// Host time.
        at: SimTime,
    },
    /// A peer-to-peer coherence operation on a *shared* managed range
    /// (normalized from NVIDIA `PeerMigrate` and AMD `PeerCopy`
    /// callbacks): either a read duplication — data moved `src → dst`
    /// over the peer link — or a write invalidation — `src` wrote,
    /// `dst`'s duplicate was dropped. Routed by **destination** device:
    /// `dst` is whose residency changed, so its shard owns the event.
    UvmPeerMigrate {
        /// Launch whose accesses triggered the operation.
        launch: LaunchId,
        /// Device the data (or the invalidating write) came from.
        src: DeviceId,
        /// Device whose residency changed — the routing key.
        dst: DeviceId,
        /// Pages read-duplicated onto `dst`.
        duplicated_pages: u64,
        /// `dst` duplicate pages invalidated by `src`'s write.
        invalidated_pages: u64,
        /// Bytes moved over the peer link (duplications only).
        bytes: u64,
        /// Device stall charged to the launch, ns.
        stall_ns: u64,
        /// Host time.
        at: SimTime,
    },

    // --- Fine-grained device-side operations ------------------------------
    /// Thread-block entries+exits for a launch ("Thread Block Entry/Exit").
    BlockBoundary {
        /// Launch id.
        launch: LaunchId,
        /// Number of blocks.
        count: u64,
    },
    /// A batch of global-memory access records.
    GlobalAccess {
        /// Launch id.
        launch: LaunchId,
        /// Kernel symbol, interned once per launch.
        kernel: Symbol,
        /// The access batch (addresses, counts, pattern).
        batch: AccessBatch,
    },
    /// A batch of shared-memory access records (covers "Shared Memory
    /// Access" and, via the batch's space, "Remote Shared Memory Access").
    SharedAccess {
        /// Launch id.
        launch: LaunchId,
        /// Kernel symbol, interned once per launch.
        kernel: Symbol,
        /// The access batch.
        batch: AccessBatch,
    },
    /// Barrier instruction executions ("Barrier Instruction" /
    /// "Cluster Barrier").
    Barrier {
        /// Launch id.
        launch: LaunchId,
        /// Executions.
        count: u64,
        /// True for cluster-wide barriers.
        cluster: bool,
    },
    /// Device function call/return pairs.
    DeviceFuncCall {
        /// Launch id.
        launch: LaunchId,
        /// Call+return pairs.
        count: u64,
    },
    /// Device-side `malloc`.
    DeviceMalloc {
        /// Launch id.
        launch: LaunchId,
        /// Bytes requested.
        bytes: u64,
    },
    /// Device-side `free`.
    DeviceFree {
        /// Launch id.
        launch: LaunchId,
        /// Bytes released (positive).
        bytes: u64,
    },
    /// Global-to-shared bulk copies ("Global-To-Shared Copy").
    GlobalToSharedCopy {
        /// Launch id.
        launch: LaunchId,
        /// Bytes staged.
        bytes: u64,
    },
    /// Async-pipeline commit/wait pairs ("Pipeline Commit"/"Pipeline Wait").
    PipelineOp {
        /// Launch id.
        launch: LaunchId,
        /// Commit+wait pairs.
        count: u64,
    },
    /// Dynamic instruction count ("Any Specific Instruction", full-coverage
    /// backends only).
    Instructions {
        /// Launch id.
        launch: LaunchId,
        /// Dynamic instructions.
        count: u64,
    },
    /// End-of-kernel trace summary.
    KernelTrace {
        /// Launch id.
        launch: LaunchId,
        /// Kernel symbol, interned once per launch.
        kernel: Symbol,
        /// Aggregated counters.
        summary: KernelTraceSummary,
    },

    // --- High-level DL framework events -----------------------------------
    /// Operator began ("Operator Start").
    OpStart {
        /// Operator sequence number.
        seq: u64,
        /// Operator name, interned.
        name: Symbol,
        /// Device.
        device: DeviceId,
        /// Python stack at the call site, outermost first, shared with
        /// the framework event it came from.
        py_stack: Arc<[PyFrame]>,
    },
    /// Operator finished ("Operator End").
    OpEnd {
        /// Operator sequence number.
        seq: u64,
        /// Operator name, interned.
        name: Symbol,
        /// Device.
        device: DeviceId,
    },
    /// Tensor allocated ("Tensor Allocation").
    TensorAlloc {
        /// Tensor id.
        tensor: TensorId,
        /// Address within a pool segment.
        addr: u64,
        /// Bytes (positive).
        bytes: u64,
        /// Allocator live-bytes after the event.
        allocated_total: u64,
        /// Allocator reserved-bytes after the event.
        reserved_total: u64,
        /// Device.
        device: DeviceId,
    },
    /// Tensor released ("Tensor Reclamation").
    TensorFree {
        /// Tensor id.
        tensor: TensorId,
        /// Address.
        addr: u64,
        /// Bytes (positive).
        bytes: u64,
        /// Allocator live-bytes after the event.
        allocated_total: u64,
        /// Allocator reserved-bytes after the event.
        reserved_total: u64,
        /// Device.
        device: DeviceId,
    },
    /// Layer boundary ("Layer Boundary*", annotation-driven).
    LayerBoundary {
        /// Layer name, interned.
        name: Symbol,
        /// Ordinal.
        index: usize,
        /// Device.
        device: DeviceId,
    },
    /// Forward/backward/optimizer boundary ("Forward/Backward Boundary*").
    PassBoundary {
        /// Pass starting here.
        pass: Pass,
        /// Device.
        device: DeviceId,
    },
    /// `pasta.start()` region annotation ("Customized Code Region*").
    RegionStart {
        /// Label, interned.
        label: Symbol,
        /// Device.
        device: DeviceId,
    },
    /// `pasta.stop()` region annotation.
    RegionEnd {
        /// Label, interned.
        label: Symbol,
        /// Device.
        device: DeviceId,
    },
}

impl Event {
    /// The device this event is attributed to — the sharded hub's routing
    /// key. Launch-scoped fine-grained events return `None`: they reach
    /// the hub through a [`crate::hub::HubSink`] already bound to its
    /// device's shard, so they never need routing by content.
    pub fn device(&self) -> Option<DeviceId> {
        use Event::*;
        match self {
            DriverApi { device, .. }
            | RuntimeApi { device, .. }
            | Sync { device, .. }
            | KernelLaunchBegin { device, .. }
            | KernelLaunchEnd { device, .. }
            | MemCopy { device, .. }
            | MemSet { device, .. }
            | ResourceAlloc { device, .. }
            | ResourceFree { device, .. }
            | BatchMemOp { device, .. }
            | UvmFault { device, .. }
            | UvmPeerMigrate { dst: device, .. }
            | OpStart { device, .. }
            | OpEnd { device, .. }
            | TensorAlloc { device, .. }
            | TensorFree { device, .. }
            | LayerBoundary { device, .. }
            | PassBoundary { device, .. }
            | RegionStart { device, .. }
            | RegionEnd { device, .. } => Some(*device),
            BlockBoundary { .. }
            | GlobalAccess { .. }
            | SharedAccess { .. }
            | Barrier { .. }
            | DeviceFuncCall { .. }
            | DeviceMalloc { .. }
            | DeviceFree { .. }
            | GlobalToSharedCopy { .. }
            | PipelineOp { .. }
            | Instructions { .. }
            | KernelTrace { .. } => None,
        }
    }

    /// The broad class of this event.
    pub fn class(&self) -> EventClass {
        use Event::*;
        match self {
            DriverApi { .. } | RuntimeApi { .. } => EventClass::HostApi,
            KernelLaunchBegin { .. } | KernelLaunchEnd { .. } => EventClass::Kernel,
            MemCopy { .. }
            | MemSet { .. }
            | ResourceAlloc { .. }
            | ResourceFree { .. }
            | BatchMemOp { .. }
            | UvmFault { .. }
            | UvmPeerMigrate { .. } => EventClass::Memory,
            Sync { .. } => EventClass::Sync,
            GlobalAccess { .. } | SharedAccess { .. } | GlobalToSharedCopy { .. } => {
                EventClass::DeviceAccess
            }
            BlockBoundary { .. }
            | Barrier { .. }
            | DeviceFuncCall { .. }
            | DeviceMalloc { .. }
            | DeviceFree { .. }
            | PipelineOp { .. }
            | Instructions { .. }
            | KernelTrace { .. } => EventClass::DeviceControl,
            OpStart { .. }
            | OpEnd { .. }
            | TensorAlloc { .. }
            | TensorFree { .. }
            | PassBoundary { .. } => EventClass::Framework,
            LayerBoundary { .. } | RegionStart { .. } | RegionEnd { .. } => EventClass::Annotation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_stays_within_104_bytes() {
        // Names are 16-byte `Copy` handles; a wider `Event` is a wider
        // move per slot of every 256-event batch on the spine.
        assert!(std::mem::size_of::<Event>() <= 104);
    }

    #[test]
    fn table_ii_event_coverage() {
        // Every Table II row maps onto at least one Event variant; this
        // test is the executable version of that claim.
        let rows: [(&str, EventClass); 22] = [
            ("All Driver Functions", EventClass::HostApi),
            ("All Runtime Functions", EventClass::HostApi),
            ("Synchronization", EventClass::Sync),
            ("Kernel Launch", EventClass::Kernel),
            ("Memory Copy", EventClass::Memory),
            ("Memory Set", EventClass::Memory),
            ("Resource Operations", EventClass::Memory),
            ("Batch Memory Operations", EventClass::Memory),
            ("Thread Block Entry/Exit", EventClass::DeviceControl),
            ("Global Memory Access", EventClass::DeviceAccess),
            ("Shared Memory Access", EventClass::DeviceAccess),
            ("Barrier Instruction", EventClass::DeviceControl),
            ("Device Function Call/Return", EventClass::DeviceControl),
            ("Device-Side Malloc", EventClass::DeviceControl),
            ("Device-Side Free", EventClass::DeviceControl),
            ("Global-To-Shared Copy", EventClass::DeviceAccess),
            ("Pipeline Commit/Wait", EventClass::DeviceControl),
            ("Remote Shared Memory Access", EventClass::DeviceAccess),
            ("Cluster Barrier", EventClass::DeviceControl),
            ("Any Specific Instruction", EventClass::DeviceControl),
            (
                "Operator Start/End + Tensors + Passes",
                EventClass::Framework,
            ),
            ("Layer/Region Annotations", EventClass::Annotation),
        ];
        assert_eq!(rows.len(), 22);
    }

    #[test]
    fn uvm_fault_routes_by_faulting_device() {
        // The variant's device field is the sharded hub's routing key:
        // it must surface through Event::device() and classify as a
        // host-visible memory event.
        let e = Event::UvmFault {
            launch: LaunchId(4),
            device: DeviceId(1),
            groups: 3,
            migrated_bytes: 1 << 20,
            evicted_bytes: 0,
            stall_ns: 500,
            at: SimTime(9),
        };
        assert_eq!(e.device(), Some(DeviceId(1)));
        assert_eq!(e.class(), EventClass::Memory);
    }

    #[test]
    fn uvm_peer_migrate_routes_by_destination_device() {
        // The destination is whose residency changed — its shard owns
        // the event, whichever lane's context emitted it.
        let e = Event::UvmPeerMigrate {
            launch: LaunchId(2),
            src: DeviceId(0),
            dst: DeviceId(1),
            duplicated_pages: 32,
            invalidated_pages: 0,
            bytes: 2 << 20,
            stall_ns: 1_000,
            at: SimTime(4),
        };
        assert_eq!(e.device(), Some(DeviceId(1)));
        assert_eq!(e.class(), EventClass::Memory);
    }

    #[test]
    fn classes_partition_variants() {
        let e = Event::Sync {
            device: DeviceId(0),
            at: SimTime(0),
        };
        assert_eq!(e.class(), EventClass::Sync);
        let e = Event::Barrier {
            launch: LaunchId(1),
            count: 5,
            cluster: true,
        };
        assert_eq!(e.class(), EventClass::DeviceControl);
        let e = Event::RegionStart {
            label: "l".into(),
            device: DeviceId(0),
        };
        assert_eq!(e.class(), EventClass::Annotation);
    }

    #[test]
    fn resource_free_bytes_are_positive_by_construction() {
        // u64 bytes make the invariant structural: no negative sizes can
        // survive normalization.
        let e = Event::ResourceFree {
            device: DeviceId(0),
            addr: 0x100,
            bytes: 4096,
            at: SimTime(1),
        };
        if let Event::ResourceFree { bytes, .. } = e {
            assert!(bytes > 0);
        }
    }

    #[test]
    fn class_index_is_dense_and_consistent() {
        for (i, class) in EventClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }

    #[test]
    fn symbol_events_round_trip_through_serialized_names() {
        // Symbol → string → re-interned Symbol, the round-trip a trace
        // goes through: the revived event must be equal, and its name must
        // dedup back to the original allocation.
        let original = Event::KernelLaunchEnd {
            launch: LaunchId(3),
            device: DeviceId(0),
            name: Symbol::intern("ampere_sgemm_roundtrip"),
            start: SimTime(10),
            end: SimTime(90),
        };
        let Event::KernelLaunchEnd { name, .. } = &original else {
            unreachable!()
        };
        let wire: String = name.to_string(); // serialize
        let revived = Event::KernelLaunchEnd {
            launch: LaunchId(3),
            device: DeviceId(0),
            name: Symbol::intern(&wire), // deserialize re-interns
            start: SimTime(10),
            end: SimTime(90),
        };
        assert_eq!(original, revived);
        let Event::KernelLaunchEnd { name: revived, .. } = &revived else {
            unreachable!()
        };
        assert!(
            Symbol::ptr_eq(name, revived),
            "re-interning a round-tripped name dedups to the original Arc"
        );
        // A deserializer with its own table still yields equal events.
        let other_table = accel_sim::SymbolTable::new();
        let foreign = other_table.intern(&wire);
        assert_eq!(*name, foreign, "content equality across tables");
    }
}
