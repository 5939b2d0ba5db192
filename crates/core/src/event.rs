//! The unified PASTA event model.
//!
//! One [`Event`] enum covers every event the paper's Table II lists, from
//! coarse host-called API events through fine-grained device-side
//! operations to high-level DL-framework events. Vendor-specific details
//! are gone by the time an `Event` exists — that is [`crate::normalize`]'s
//! job. The enum, its classes and its routing are generated from one
//! table, `event_table!`, which the normalizer and the trace codec read
//! too.

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
    pub const fn index(self) -> usize {
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

/// The event table: every [`Event`] variant once, as
/// `Variant [wire tag, class, routing field] { fields }`. The routing
/// field is the one [`Event::device`] returns; a row without one is a
/// launch-scoped event, which [`crate::hub::HubSink`] delivers to its
/// device's shard without routing by content.
///
/// `event_table!(callback extra…)` expands to `callback! { extra… rows }`.
/// This module generates [`Event`], [`Event::class`] and [`Event::device`]
/// from it, [`crate::normalize`] the vendor gate, and the trace crate its
/// codec, so a variant is added, and its wire record laid out, in one row.
#[doc(hidden)]
#[macro_export]
macro_rules! event_table {
    ($then:ident $($args:tt)*) => {
        $then! {
            $($args)*
            // --- Coarse-grained host-called API events ---------------------------
            /// Any driver-level API function ("All Driver Functions").
            DriverApi [0, HostApi, device] {
                /// Normalized API name (vendor prefix stripped), interned.
                name: Symbol,
                /// Device current when the API was entered (the sharded hub's
                /// routing key).
                device: DeviceId,
                /// Host time.
                at: SimTime,
            }
            /// Any runtime-level API function ("All Runtime Functions").
            RuntimeApi [1, HostApi, device] {
                /// Normalized API name, interned.
                name: Symbol,
                /// Device current when the API was entered.
                device: DeviceId,
                /// Host time.
                at: SimTime,
            }
            /// Synchronization call completed.
            Sync [2, Sync, device] {
                /// Device synchronized.
                device: DeviceId,
                /// Host time after the wait.
                at: SimTime,
            }
            /// A kernel is about to execute (from the device-trace path, so it
            /// precedes the fine-grained events of that launch).
            KernelLaunchBegin [3, Kernel, device] {
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
            }
            /// A kernel finished; carries timing.
            KernelLaunchEnd [4, Kernel, device] {
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
            }
            /// Memory copy.
            MemCopy [5, Memory, device] {
                /// Device.
                device: DeviceId,
                /// Direction.
                direction: CopyDirection,
                /// Bytes moved.
                bytes: u64,
                /// Host time.
                at: SimTime,
            }
            /// Memory set.
            MemSet [6, Memory, device] {
                /// Device.
                device: DeviceId,
                /// Base address.
                addr: u64,
                /// Bytes.
                bytes: u64,
                /// Host time.
                at: SimTime,
            }
            /// Device or managed memory allocated ("Resource Operations").
            /// Sizes are always positive after normalization.
            ResourceAlloc [7, Memory, device] {
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
            }
            /// Memory released. Bytes are positive regardless of the vendor's
            /// sign convention (the paper's §III-G normalization example).
            ResourceFree [8, Memory, device] {
                /// Device.
                device: DeviceId,
                /// Base address.
                addr: u64,
                /// Bytes (positive).
                bytes: u64,
                /// Host time.
                at: SimTime,
            }
            /// Batch memory operation (prefetch/advise).
            BatchMemOp [9, Memory, device] {
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
            }
            /// Managed-memory fault/migration activity one launch triggered
            /// (normalized from NVIDIA `UvmFault` and AMD `PageMigrate`
            /// callbacks). `device` is the *faulting* device — the device the
            /// kernel executed on — which is also the sharded hub's routing key,
            /// so a lane's faults always land in that lane's shard.
            UvmFault [10, Memory, device] {
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
            }
            /// A peer-to-peer coherence operation on a *shared* managed range
            /// (normalized from NVIDIA `PeerMigrate` and AMD `PeerCopy`
            /// callbacks): either a read duplication — data moved `src → dst`
            /// over the peer link — or a write invalidation — `src` wrote,
            /// `dst`'s duplicate was dropped. Routed by **destination** device:
            /// `dst` is whose residency changed, so its shard owns the event.
            UvmPeerMigrate [11, Memory, dst] {
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
            }

            // --- Fine-grained device-side operations ------------------------------
            /// Thread-block entries+exits for a launch ("Thread Block Entry/Exit").
            BlockBoundary [12, DeviceControl] {
                /// Launch id.
                launch: LaunchId,
                /// Number of blocks.
                count: u64,
            }
            /// A batch of global-memory access records.
            GlobalAccess [13, DeviceAccess] {
                /// Launch id.
                launch: LaunchId,
                /// Kernel symbol, interned once per launch.
                kernel: Symbol,
                /// The access batch (addresses, counts, pattern).
                batch: AccessBatch,
            }
            /// A batch of shared-memory access records (covers "Shared Memory
            /// Access" and, via the batch's space, "Remote Shared Memory Access").
            SharedAccess [14, DeviceAccess] {
                /// Launch id.
                launch: LaunchId,
                /// Kernel symbol, interned once per launch.
                kernel: Symbol,
                /// The access batch.
                batch: AccessBatch,
            }
            /// Barrier instruction executions ("Barrier Instruction" /
            /// "Cluster Barrier").
            Barrier [15, DeviceControl] {
                /// Launch id.
                launch: LaunchId,
                /// Executions.
                count: u64,
                /// True for cluster-wide barriers.
                cluster: bool,
            }
            /// Device function call/return pairs.
            DeviceFuncCall [16, DeviceControl] {
                /// Launch id.
                launch: LaunchId,
                /// Call+return pairs.
                count: u64,
            }
            /// Device-side `malloc`.
            DeviceMalloc [17, DeviceControl] {
                /// Launch id.
                launch: LaunchId,
                /// Bytes requested.
                bytes: u64,
            }
            /// Device-side `free`.
            DeviceFree [18, DeviceControl] {
                /// Launch id.
                launch: LaunchId,
                /// Bytes released (positive).
                bytes: u64,
            }
            /// Global-to-shared bulk copies ("Global-To-Shared Copy").
            GlobalToSharedCopy [19, DeviceAccess] {
                /// Launch id.
                launch: LaunchId,
                /// Bytes staged.
                bytes: u64,
            }
            /// Async-pipeline commit/wait pairs ("Pipeline Commit"/"Pipeline Wait").
            PipelineOp [20, DeviceControl] {
                /// Launch id.
                launch: LaunchId,
                /// Commit+wait pairs.
                count: u64,
            }
            /// Dynamic instruction count ("Any Specific Instruction", full-coverage
            /// backends only).
            Instructions [21, DeviceControl] {
                /// Launch id.
                launch: LaunchId,
                /// Dynamic instructions.
                count: u64,
            }
            /// End-of-kernel trace summary.
            KernelTrace [22, DeviceControl] {
                /// Launch id.
                launch: LaunchId,
                /// Kernel symbol, interned once per launch.
                kernel: Symbol,
                /// Aggregated counters.
                summary: KernelTraceSummary,
            }

            // --- High-level DL framework events -----------------------------------
            /// Operator began ("Operator Start").
            OpStart [23, Framework, device] {
                /// Operator sequence number.
                seq: u64,
                /// Operator name, interned.
                name: Symbol,
                /// Device.
                device: DeviceId,
                /// Python stack at the call site, outermost first, shared with
                /// the framework event it came from.
                py_stack: Arc<[PyFrame]>,
            }
            /// Operator finished ("Operator End").
            OpEnd [24, Framework, device] {
                /// Operator sequence number.
                seq: u64,
                /// Operator name, interned.
                name: Symbol,
                /// Device.
                device: DeviceId,
            }
            /// Tensor allocated ("Tensor Allocation").
            TensorAlloc [25, Framework, device] {
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
            }
            /// Tensor released ("Tensor Reclamation").
            TensorFree [26, Framework, device] {
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
            }
            /// Layer boundary ("Layer Boundary*", annotation-driven).
            LayerBoundary [27, Annotation, device] {
                /// Layer name, interned.
                name: Symbol,
                /// Ordinal.
                index: usize,
                /// Device.
                device: DeviceId,
            }
            /// Forward/backward/optimizer boundary ("Forward/Backward Boundary*").
            PassBoundary [28, Framework, device] {
                /// Pass starting here.
                pass: Pass,
                /// Device.
                device: DeviceId,
            }
            /// `pasta.start()` region annotation ("Customized Code Region*").
            RegionStart [29, Annotation, device] {
                /// Label, interned.
                label: Symbol,
                /// Device.
                device: DeviceId,
            }
            /// `pasta.stop()` region annotation.
            RegionEnd [30, Annotation, device] {
                /// Label, interned.
                label: Symbol,
                /// Device.
                device: DeviceId,
            }
        }
    };
}

macro_rules! define_event {
    (@device) => {
        None
    };
    (@device $route:ident) => {
        Some(*$route)
    };
    ($(
        $(#[$doc:meta])*
        $variant:ident [$tag:literal, $class:ident $(, $route:ident)?] {
            $($(#[$field_doc:meta])* $field:ident: $ty:ty,)*
        }
    )*) => {
        /// A normalized runtime event (paper Table II), one variant per
        /// row of the `event_table!` in this module's source.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {
            $($(#[$doc])* $variant { $($(#[$field_doc])* $field: $ty,)* },)*
        }

        impl Event {
            /// The device this event is attributed to — the sharded hub's
            /// routing key. Launch-scoped fine-grained events return `None`:
            /// they reach the hub through a [`crate::hub::HubSink`] already
            /// bound to its device's shard, so they never need routing by
            /// content.
            pub fn device(&self) -> Option<DeviceId> {
                match self {
                    $(Event::$variant { $($route,)? .. } => define_event!(@device $($route)?),)*
                }
            }

            /// The broad class of this event.
            pub fn class(&self) -> EventClass {
                match self {
                    $(Event::$variant { .. } => EventClass::$class,)*
                }
            }
        }
    };
}

event_table!(define_event);

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
        // Every Table II row is carried by the variants it lists here, and
        // each of them has the row's class.
        use accel_sim::{AccessKind, AccessPattern, MemSpace};
        let (device, at, launch, name) = (DeviceId(0), SimTime(0), LaunchId(0), Symbol::from("k"));
        let (addr, bytes, count) = (0x100, 64, 1);
        let access = |space| AccessBatch {
            launch,
            spec_index: 0,
            base: addr,
            len: bytes,
            records: count,
            bytes,
            elem_size: 4,
            kind: AccessKind::Load,
            space,
            pattern: AccessPattern::Sequential,
        };
        let tensor = |alloc: bool| {
            let (tensor, allocated_total, reserved_total) = (TensorId(1), bytes, bytes);
            if alloc {
                Event::TensorAlloc {
                    tensor,
                    addr,
                    bytes,
                    allocated_total,
                    reserved_total,
                    device,
                }
            } else {
                Event::TensorFree {
                    tensor,
                    addr,
                    bytes,
                    allocated_total,
                    reserved_total,
                    device,
                }
            }
        };
        let rows: [(&str, EventClass, Vec<Event>); 22] = [
            (
                "All Driver Functions",
                EventClass::HostApi,
                vec![Event::DriverApi { name, device, at }],
            ),
            (
                "All Runtime Functions",
                EventClass::HostApi,
                vec![Event::RuntimeApi { name, device, at }],
            ),
            (
                "Synchronization",
                EventClass::Sync,
                vec![Event::Sync { device, at }],
            ),
            (
                "Kernel Launch",
                EventClass::Kernel,
                vec![
                    Event::KernelLaunchBegin {
                        launch,
                        device,
                        stream: 0,
                        name,
                        grid: Dim3::linear(1),
                        block: Dim3::linear(32),
                    },
                    Event::KernelLaunchEnd {
                        launch,
                        device,
                        name,
                        start: at,
                        end: at,
                    },
                ],
            ),
            (
                "Memory Copy",
                EventClass::Memory,
                vec![Event::MemCopy {
                    device,
                    direction: CopyDirection::HostToDevice,
                    bytes,
                    at,
                }],
            ),
            (
                "Memory Set",
                EventClass::Memory,
                vec![Event::MemSet {
                    device,
                    addr,
                    bytes,
                    at,
                }],
            ),
            (
                "Resource Operations",
                EventClass::Memory,
                vec![
                    Event::ResourceAlloc {
                        device,
                        addr,
                        bytes,
                        managed: false,
                        at,
                    },
                    Event::ResourceFree {
                        device,
                        addr,
                        bytes,
                        at,
                    },
                ],
            ),
            (
                "Batch Memory Operations",
                EventClass::Memory,
                vec![Event::BatchMemOp {
                    device,
                    op: name,
                    addr,
                    bytes,
                    at,
                }],
            ),
            (
                "Thread Block Entry/Exit",
                EventClass::DeviceControl,
                vec![Event::BlockBoundary { launch, count }],
            ),
            (
                "Global Memory Access",
                EventClass::DeviceAccess,
                vec![Event::GlobalAccess {
                    launch,
                    kernel: name,
                    batch: access(MemSpace::Global),
                }],
            ),
            (
                "Shared Memory Access",
                EventClass::DeviceAccess,
                vec![Event::SharedAccess {
                    launch,
                    kernel: name,
                    batch: access(MemSpace::Shared),
                }],
            ),
            (
                "Barrier Instruction",
                EventClass::DeviceControl,
                vec![Event::Barrier {
                    launch,
                    count,
                    cluster: false,
                }],
            ),
            (
                "Device Function Call/Return",
                EventClass::DeviceControl,
                vec![Event::DeviceFuncCall { launch, count }],
            ),
            (
                "Device-Side Malloc",
                EventClass::DeviceControl,
                vec![Event::DeviceMalloc { launch, bytes }],
            ),
            (
                "Device-Side Free",
                EventClass::DeviceControl,
                vec![Event::DeviceFree { launch, bytes }],
            ),
            (
                "Global-To-Shared Copy",
                EventClass::DeviceAccess,
                vec![Event::GlobalToSharedCopy { launch, bytes }],
            ),
            (
                "Pipeline Commit/Wait",
                EventClass::DeviceControl,
                vec![Event::PipelineOp { launch, count }],
            ),
            (
                "Remote Shared Memory Access",
                EventClass::DeviceAccess,
                vec![Event::SharedAccess {
                    launch,
                    kernel: name,
                    batch: access(MemSpace::RemoteShared),
                }],
            ),
            (
                "Cluster Barrier",
                EventClass::DeviceControl,
                vec![Event::Barrier {
                    launch,
                    count,
                    cluster: true,
                }],
            ),
            (
                "Any Specific Instruction",
                EventClass::DeviceControl,
                vec![Event::Instructions { launch, count }],
            ),
            (
                "Operator Start/End + Tensors + Passes",
                EventClass::Framework,
                vec![
                    Event::OpStart {
                        seq: 0,
                        name,
                        device,
                        py_stack: Arc::new([]),
                    },
                    Event::OpEnd {
                        seq: 0,
                        name,
                        device,
                    },
                    tensor(true),
                    tensor(false),
                    Event::PassBoundary {
                        pass: Pass::Backward,
                        device,
                    },
                ],
            ),
            (
                "Layer/Region Annotations",
                EventClass::Annotation,
                vec![
                    Event::LayerBoundary {
                        name,
                        index: 0,
                        device,
                    },
                    Event::RegionStart {
                        label: name,
                        device,
                    },
                    Event::RegionEnd {
                        label: name,
                        device,
                    },
                ],
            ),
        ];
        for (row, class, events) in rows {
            assert!(!events.is_empty(), "{row}");
            for event in events {
                assert_eq!(event.class(), class, "{row}: {event:?}");
            }
        }
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
