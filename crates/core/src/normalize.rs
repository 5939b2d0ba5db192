//! Vendor-event normalization.
//!
//! The paper (§III-G) calls out that "some runtimes report memory
//! deallocation sizes with opposite signs or as deltas" and that naming
//! conventions differ; PASTA "unifies semantically equivalent events and
//! exposes a consistent interface". These functions are that layer: one
//! per vendor, mapping raw callbacks to [`Event`]s.
//!
//! Each vendor's mapping is one list of rows, one row per callback kind
//! (`Memcpy { device, direction, bytes, at } => MemCopy`). Both the
//! normalizer and the handler's gate (`class_of_*`) are generated from
//! it, and the gate reads its class and routing field off the event table
//! (`crate::event_table!`), so it cannot drift from the event that
//! normalization builds.

use crate::event::{Event, EventClass};
use accel_sim::{DeviceId, Symbol};
use dl_framework::callbacks::FrameworkEvent;
use std::cell::RefCell;
use std::thread::LocalKey;
use vendor_amd::RocCallback;
use vendor_nv::NvCallback;

/// Strips the vendor prefix off an API symbol: `cudaMalloc`/`hipMalloc` →
/// `malloc`, `cuLaunchKernel`/`hipLaunchKernel` → `launch_kernel`.
pub fn normalize_api_name(raw: &str) -> String {
    let stripped = raw
        .strip_prefix("cuda")
        .or_else(|| raw.strip_prefix("hip"))
        .or_else(|| raw.strip_prefix("cu"))
        .unwrap_or(raw);
    // CamelCase → snake_case.
    let mut out = String::with_capacity(stripped.len() + 4);
    for (i, c) in stripped.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Slots in a [`NameMemo`]; the vendor layers name a few dozen APIs.
const MEMO_SLOTS: usize = 64;
/// Slots probed from a name's home slot before the home slot is
/// overwritten, so two names sharing a home do not evict each other.
const MEMO_PROBES: usize = 4;

/// A per-thread memo from a raw vendor name to the symbol it normalizes
/// to. Vendor names are `&'static str`, so the key is the string's address
/// and length — equal keys are the same bytes — and a name seen before
/// costs a pointer compare and a 16-byte copy: no `String`, no interner.
/// Bounded: a name that finds its probe window full displaces the one in
/// its home slot and is normalized again when that one returns.
struct NameMemo {
    slots: [Option<(&'static str, Symbol)>; MEMO_SLOTS],
}

impl NameMemo {
    const fn new() -> Self {
        NameMemo {
            slots: [const { None }; MEMO_SLOTS],
        }
    }

    fn get(&mut self, raw: &'static str, normalize: fn(&str) -> Symbol) -> Symbol {
        let home = (raw.as_ptr() as usize).wrapping_mul(0x9e37_79b9_7f4a_7c15_u64 as usize)
            >> (usize::BITS - MEMO_SLOTS.trailing_zeros());
        for probe in 0..MEMO_PROBES {
            let slot = &mut self.slots[(home + probe) % MEMO_SLOTS];
            match slot {
                Some((seen, symbol)) if std::ptr::eq(*seen, raw) => return *symbol,
                Some(_) => {}
                None => return slot.insert((raw, normalize(raw))).1,
            }
        }
        self.slots[home].insert((raw, normalize(raw))).1
    }
}

thread_local! {
    static API_NAMES: RefCell<NameMemo> = const { RefCell::new(NameMemo::new()) };
    /// Separate from [`API_NAMES`]: `cudaMemPrefetchAsync` is both an API
    /// name and a batch-op label, and the two normalize differently.
    static BATCH_OPS: RefCell<NameMemo> = const { RefCell::new(NameMemo::new()) };
}

fn memoized(
    memo: &'static LocalKey<RefCell<NameMemo>>,
    raw: &'static str,
    normalize: fn(&str) -> Symbol,
) -> Symbol {
    memo.try_with(|memo| memo.borrow_mut().get(raw, normalize))
        // The thread is exiting and its memo is gone.
        .unwrap_or_else(|_| normalize(raw))
}

/// Interned form of [`normalize_api_name`] — what the event constructors
/// use, so repeated calls to the same API share one allocation.
fn intern_api_name(raw: &'static str) -> Symbol {
    memoized(&API_NAMES, raw, |raw| {
        Symbol::intern(&normalize_api_name(raw))
    })
}

/// True when the API symbol is a *driver*-level entry point (`cu*` on
/// NVIDIA); everything else is runtime-level.
fn is_driver_api(raw: &str) -> bool {
    raw.starts_with("cu") && !raw.starts_with("cuda")
}

// `gate!(Variant)` is the class of the event variant; `gate!(Variant,
// Callback::Kind, device)` is the pattern binding `device` to the routing
// field of a callback that normalizes to it — a callback's copy of that
// field carries the event field's name.
macro_rules! define_gate {
    ($d:tt $(
        $(#[$doc:meta])*
        $variant:ident [$tag:literal, $class:ident $(, $route:ident)?] { $($fields:tt)* }
    )*) => {
        macro_rules! gate {
            $(
                ($variant) => { EventClass::$class };
                $(($variant, $d kind:path, $d device:ident) => { $d kind { $route: $d device, .. } };)?
            )*
        }
    };
}

crate::event_table!(define_gate $);

/// Generates a normalizer and its gate from one list of rows, one per
/// callback kind. `Kind { fields } => Variant` copies the fields into the
/// event variant of that name; a row may instead spell the event's fields
/// (`field` copies, `field: expr` computes) and split on a guard into two
/// variants of one class (`if guard => A { … } else B { … }`). Kinds that
/// normalize to nothing come first, `(A | B) => None`. Every arm's value
/// converts `into` the return type, so maps that drop nothing return the
/// event bare.
///
/// The gate reads the class and routing field off the row's event variant
/// in the event table, so it builds no event, interns no name and
/// evaluates no guard — and cannot disagree with the event it stands for.
macro_rules! vendor_map {
    (@build $binds:tt if ($guard:expr) $a:ident { $($af:tt)* } else $b:ident { $($bf:tt)* }) => {
        if $guard {
            vendor_map!(@event $a { $($af)* })
        } else {
            vendor_map!(@event $b { $($bf)* })
        }
    };
    (@build [$($bind:ident),*] $variant:ident) => {
        vendor_map!(@event $variant { $($bind),* })
    };
    (@build $binds:tt $variant:ident { $($fields:tt)* }) => {
        vendor_map!(@event $variant { $($fields)* })
    };
    (@event $variant:ident { $($field:ident $(: $value:expr)?),* $(,)? }) => {
        Event::$variant { $($field: vendor_map!(@field $field $(: $value)?)),* }
    };
    (@field $field:ident) => {
        Clone::clone($field)
    };
    (@field $field:ident: $value:expr) => {
        $value
    };
    (
        $(#[$normalize_doc:meta])*
        $vis:vis fn $normalize:ident($cb:ident: &$callback:ident) -> $event:ty;
        $(#[$class_of_doc:meta])*
        $class_vis:vis fn $class_of:ident($class_cb:ident: &$class_callback:ident) -> $class:ty;
        $(($($none:ident)|+) => None,)?
        $(
            $kind:ident { $($bind:ident),* } $(if $guard:expr)?
                => $variant:ident $({ $($fields:tt)* })? $(else $other:ident { $($other_fields:tt)* })?
        ),* $(,)?
    ) => {
        $(#[$normalize_doc])*
        $vis fn $normalize($cb: &$callback) -> $event {
            match $cb {
                $($($callback::$none { .. } => None,)+)?
                $($callback::$kind { $($bind),* } => vendor_map!(
                    @build [$($bind),*] $(if ($guard))? $variant $({ $($fields)* })?
                    $(else $other { $($other_fields)* })?
                )
                .into(),)*
            }
        }

        $(#[$class_of_doc])*
        $class_vis fn $class_of($class_cb: &$class_callback) -> $class {
            match $class_cb {
                $($($class_callback::$none { .. } => None,)+)?
                $(gate!($variant, $class_callback::$kind, device) => {
                    $(const _: () = assert!(gate!($variant) as u8 == gate!($other) as u8);)?
                    (gate!($variant), *device).into()
                })*
            }
        }
    };
}

vendor_map! {
    /// Normalizes one NVIDIA host callback. Returns `None` for callbacks
    /// the unified model covers elsewhere: the device path reports
    /// `LaunchBegin`, and `LaunchEnd` is merged into the timed launch event
    /// upstream.
    pub fn normalize_nv(cb: &NvCallback) -> Option<Event>;
    /// The class and routing device of the event [`normalize_nv`] builds
    /// from `cb` — `None` where it builds none — so the handler can ask the
    /// device's shard whether anything reads the class before paying for
    /// the event.
    pub(crate) fn class_of_nv(cb: &NvCallback) -> Option<(EventClass, DeviceId)>;
    (ApiExit | LaunchBegin | LaunchEnd) => None,
    ApiEnter { name, device, at } if is_driver_api(name)
        => DriverApi { name: intern_api_name(name), device, at }
        else RuntimeApi { name: intern_api_name(name), device, at },
    MemoryAlloc { device, addr, bytes, managed, at } => ResourceAlloc,
    MemoryFree { device, addr, bytes, at } => ResourceFree,
    Memcpy { device, direction, bytes, at } => MemCopy,
    Memset { device, addr, bytes, at } => MemSet,
    Synchronize { device, at } => Sync,
    BatchMemOp { device, op, addr, bytes, at }
        => BatchMemOp { device, op: normalize_batch_op(op), addr, bytes, at },
    UvmFault { launch, device, groups, migrated_bytes, evicted_bytes, stall_ns, at } => UvmFault,
    PeerMigrate {
        launch, src, dst, duplicated_pages, invalidated_pages, bytes, stall_ns, at
    } => UvmPeerMigrate,
}

// ROCm's SVM page migrations and xGMI peer copies are CUDA's UVM faults
// and peer migrations under other names; the signed `MemoryDelta` becomes
// an alloc or a free with positive bytes.
vendor_map! {
    /// Normalizes one AMD host callback.
    pub fn normalize_roc(cb: &RocCallback) -> Option<Event>;
    /// [`class_of_nv`] for [`normalize_roc`].
    pub(crate) fn class_of_roc(cb: &RocCallback) -> Option<(EventClass, DeviceId)>;
    (ApiExit | KernelDispatch | KernelComplete) => None,
    ApiEnter { name, device, at } => RuntimeApi { name: intern_api_name(name), device, at },
    MemoryDelta { device, addr, delta, managed, at } if *delta >= 0
        => ResourceAlloc { device, addr, bytes: *delta as u64, managed, at }
        else ResourceFree { device, addr, bytes: delta.unsigned_abs(), at },
    MemoryCopy { device, direction, bytes, at } => MemCopy,
    MemorySet { device, addr, bytes, at } => MemSet,
    Synchronize { device, at } => Sync,
    BatchMemOp { device, op, addr, bytes, at }
        => BatchMemOp { device, op: normalize_batch_op(op), addr, bytes, at },
    PageMigrate { launch, device, groups, migrated_bytes, evicted_bytes, stall_ns, at } => UvmFault,
    PeerCopy {
        launch, src, dst, duplicated_pages, invalidated_pages, bytes, stall_ns, at
    } => UvmPeerMigrate,
}

fn normalize_batch_op(raw: &'static str) -> Symbol {
    memoized(&BATCH_OPS, raw, |raw| {
        if raw.contains("Prefetch") {
            Symbol::intern("mem_prefetch")
        } else if raw.contains("Advise") {
            Symbol::intern("mem_advise")
        } else {
            Symbol::intern(&normalize_api_name(raw))
        }
    })
}

vendor_map! {
    /// Normalizes a DL-framework event.
    pub fn normalize_framework(ev: &FrameworkEvent) -> Event;
    /// [`class_of_nv`] for [`normalize_framework`], which builds an event
    /// from every kind.
    pub(crate) fn class_of_framework(ev: &FrameworkEvent) -> (EventClass, DeviceId);
    OpStart { seq, name, device, py_stack } => OpStart,
    OpEnd { seq, name, device } => OpEnd,
    TensorAlloc { tensor, addr, bytes, allocated_total, reserved_total, device } => TensorAlloc,
    TensorFree { tensor, addr, bytes, allocated_total, reserved_total, device } => TensorFree,
    LayerBoundary { name, index, device } => LayerBoundary,
    PassBoundary { pass, device } => PassBoundary,
    RegionStart { label, device } => RegionStart,
    RegionEnd { label, device } => RegionEnd,
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::SimTime;
    use std::sync::Arc;

    /// Every callback variant once (twice where a field picks the event),
    /// in declaration order; the index functions below have no wildcard
    /// arm, so a new variant stops compiling here until it joins its list.
    fn nv_callbacks() -> Vec<NvCallback> {
        use accel_sim::{CopyDirection, Dim3, LaunchId};
        let (device, at, launch) = (DeviceId(3), SimTime(9), LaunchId(4));
        let (addr, bytes) = (0x1000, 4096);
        vec![
            NvCallback::ApiEnter {
                name: "cudaMalloc",
                device,
                at,
            },
            NvCallback::ApiEnter {
                name: "cuLaunchKernel",
                device,
                at,
            },
            NvCallback::ApiExit {
                name: "cudaMalloc",
                device,
                at,
            },
            NvCallback::LaunchBegin {
                launch,
                device,
                stream: 0,
                name: "k".into(),
                grid: Dim3::linear(1),
                block: Dim3::linear(32),
                start: at,
            },
            NvCallback::LaunchEnd {
                launch,
                device,
                end: at,
            },
            NvCallback::MemoryAlloc {
                device,
                addr,
                bytes,
                managed: true,
                at,
            },
            NvCallback::MemoryFree {
                device,
                addr,
                bytes,
                at,
            },
            NvCallback::Memcpy {
                device,
                direction: CopyDirection::HostToDevice,
                bytes,
                at,
            },
            NvCallback::Memset {
                device,
                addr,
                bytes,
                at,
            },
            NvCallback::Synchronize { device, at },
            NvCallback::BatchMemOp {
                device,
                op: "cudaMemPrefetchAsync",
                addr,
                bytes,
                at,
            },
            NvCallback::UvmFault {
                launch,
                device,
                groups: 1,
                migrated_bytes: bytes,
                evicted_bytes: 0,
                stall_ns: 5,
                at,
            },
            NvCallback::PeerMigrate {
                launch,
                src: DeviceId(1),
                dst: device,
                duplicated_pages: 1,
                invalidated_pages: 0,
                bytes,
                stall_ns: 5,
                at,
            },
        ]
    }

    fn nv_index(cb: &NvCallback) -> usize {
        match cb {
            NvCallback::ApiEnter { .. } => 0,
            NvCallback::ApiExit { .. } => 1,
            NvCallback::LaunchBegin { .. } => 2,
            NvCallback::LaunchEnd { .. } => 3,
            NvCallback::MemoryAlloc { .. } => 4,
            NvCallback::MemoryFree { .. } => 5,
            NvCallback::Memcpy { .. } => 6,
            NvCallback::Memset { .. } => 7,
            NvCallback::Synchronize { .. } => 8,
            NvCallback::BatchMemOp { .. } => 9,
            NvCallback::UvmFault { .. } => 10,
            NvCallback::PeerMigrate { .. } => 11,
        }
    }

    fn roc_callbacks() -> Vec<RocCallback> {
        use accel_sim::{CopyDirection, Dim3, LaunchId};
        let (device, at, launch) = (DeviceId(2), SimTime(9), LaunchId(4));
        let (addr, bytes) = (0x1000, 4096);
        let delta = |delta| RocCallback::MemoryDelta {
            device,
            addr,
            delta,
            managed: false,
            at,
        };
        vec![
            RocCallback::ApiEnter {
                name: "hipMalloc",
                device,
                at,
            },
            RocCallback::ApiExit {
                name: "hipMalloc",
                device,
                at,
            },
            RocCallback::KernelDispatch {
                launch,
                device,
                stream: 0,
                name: "k".into(),
                workgroups: Dim3::linear(1),
                workgroup_size: Dim3::linear(64),
                start: at,
            },
            RocCallback::KernelComplete {
                launch,
                device,
                end: at,
            },
            delta(4096),
            delta(-4096),
            RocCallback::MemoryCopy {
                device,
                direction: CopyDirection::DeviceToHost,
                bytes,
                at,
            },
            RocCallback::MemorySet {
                device,
                addr,
                bytes,
                at,
            },
            RocCallback::Synchronize { device, at },
            RocCallback::BatchMemOp {
                device,
                op: "hipMemAdvise",
                addr,
                bytes,
                at,
            },
            RocCallback::PageMigrate {
                launch,
                device,
                groups: 1,
                migrated_bytes: bytes,
                evicted_bytes: 0,
                stall_ns: 5,
                at,
            },
            RocCallback::PeerCopy {
                launch,
                src: DeviceId(1),
                dst: device,
                duplicated_pages: 0,
                invalidated_pages: 2,
                bytes: 0,
                stall_ns: 5,
                at,
            },
        ]
    }

    fn roc_index(cb: &RocCallback) -> usize {
        match cb {
            RocCallback::ApiEnter { .. } => 0,
            RocCallback::ApiExit { .. } => 1,
            RocCallback::KernelDispatch { .. } => 2,
            RocCallback::KernelComplete { .. } => 3,
            RocCallback::MemoryDelta { .. } => 4,
            RocCallback::MemoryCopy { .. } => 5,
            RocCallback::MemorySet { .. } => 6,
            RocCallback::Synchronize { .. } => 7,
            RocCallback::BatchMemOp { .. } => 8,
            RocCallback::PageMigrate { .. } => 9,
            RocCallback::PeerCopy { .. } => 10,
        }
    }

    fn framework_events() -> Vec<FrameworkEvent> {
        use dl_framework::callbacks::Pass;
        use dl_framework::tensor::TensorId;
        let (device, name) = (DeviceId(1), Symbol::intern("aten::linear"));
        let tensor = |alloc: bool| {
            let (tensor, addr, bytes) = (TensorId(1), 0x2000, 512);
            let (allocated_total, reserved_total) = (512, 1 << 21);
            if alloc {
                FrameworkEvent::TensorAlloc {
                    tensor,
                    addr,
                    bytes,
                    allocated_total,
                    reserved_total,
                    device,
                }
            } else {
                FrameworkEvent::TensorFree {
                    tensor,
                    addr,
                    bytes,
                    allocated_total,
                    reserved_total,
                    device,
                }
            }
        };
        vec![
            FrameworkEvent::OpStart {
                seq: 1,
                name,
                device,
                py_stack: Arc::new([]),
            },
            FrameworkEvent::OpEnd {
                seq: 1,
                name,
                device,
            },
            tensor(true),
            tensor(false),
            FrameworkEvent::LayerBoundary {
                name,
                index: 0,
                device,
            },
            FrameworkEvent::PassBoundary {
                pass: Pass::Backward,
                device,
            },
            FrameworkEvent::RegionStart {
                label: name,
                device,
            },
            FrameworkEvent::RegionEnd {
                label: name,
                device,
            },
        ]
    }

    fn framework_index(ev: &FrameworkEvent) -> usize {
        match ev {
            FrameworkEvent::OpStart { .. } => 0,
            FrameworkEvent::OpEnd { .. } => 1,
            FrameworkEvent::TensorAlloc { .. } => 2,
            FrameworkEvent::TensorFree { .. } => 3,
            FrameworkEvent::LayerBoundary { .. } => 4,
            FrameworkEvent::PassBoundary { .. } => 5,
            FrameworkEvent::RegionStart { .. } => 6,
            FrameworkEvent::RegionEnd { .. } => 7,
        }
    }

    /// True when `indices`, in list order, name each of `variants`
    /// variants (the arm count of the index function that made them).
    fn covers_every_variant(mut indices: Vec<usize>, variants: usize) -> bool {
        indices.dedup();
        indices.into_iter().eq(0..variants)
    }

    #[test]
    fn class_of_agrees_with_normalize_on_every_variant() {
        // What the handler's gate decides on must be what the event would
        // have said of itself: class, routing device, and whether there is
        // an event at all.
        let of_event = |e: Event| (e.class(), e.device().expect("host events carry a device"));
        let nv = nv_callbacks();
        assert!(covers_every_variant(nv.iter().map(nv_index).collect(), 12));
        for cb in &nv {
            assert_eq!(class_of_nv(cb), normalize_nv(cb).map(of_event), "{cb:?}");
        }
        let roc = roc_callbacks();
        assert!(covers_every_variant(
            roc.iter().map(roc_index).collect(),
            11
        ));
        for cb in &roc {
            assert_eq!(class_of_roc(cb), normalize_roc(cb).map(of_event), "{cb:?}");
        }
        let framework = framework_events();
        assert!(covers_every_variant(
            framework.iter().map(framework_index).collect(),
            8
        ));
        for ev in &framework {
            assert_eq!(
                class_of_framework(ev),
                of_event(normalize_framework(ev)),
                "{ev:?}"
            );
        }
    }

    #[test]
    fn api_names_unify_across_vendors() {
        assert_eq!(normalize_api_name("cudaMalloc"), "malloc");
        assert_eq!(normalize_api_name("hipMalloc"), "malloc");
        assert_eq!(normalize_api_name("cudaMemcpy"), "memcpy");
        assert_eq!(normalize_api_name("hipMemcpy"), "memcpy");
        assert_eq!(normalize_api_name("cuLaunchKernel"), "launch_kernel");
        assert_eq!(normalize_api_name("hipLaunchKernel"), "launch_kernel");
        assert_eq!(
            normalize_api_name("cudaDeviceSynchronize"),
            "device_synchronize"
        );
        assert_eq!(
            normalize_api_name("hipDeviceSynchronize"),
            "device_synchronize"
        );
    }

    #[test]
    fn negative_amd_deltas_become_positive_frees() {
        let cb = RocCallback::MemoryDelta {
            device: DeviceId(0),
            addr: 0x100,
            delta: -4096,
            managed: false,
            at: SimTime(5),
        };
        match normalize_roc(&cb) {
            Some(Event::ResourceFree { bytes, addr, .. }) => {
                assert_eq!(bytes, 4096);
                assert_eq!(addr, 0x100);
            }
            other => panic!("expected ResourceFree, got {other:?}"),
        }
    }

    #[test]
    fn positive_amd_deltas_become_allocs() {
        let cb = RocCallback::MemoryDelta {
            device: DeviceId(0),
            addr: 0x200,
            delta: 8192,
            managed: true,
            at: SimTime(5),
        };
        match normalize_roc(&cb) {
            Some(Event::ResourceAlloc { bytes, managed, .. }) => {
                assert_eq!(bytes, 8192);
                assert!(managed);
            }
            other => panic!("expected ResourceAlloc, got {other:?}"),
        }
    }

    #[test]
    fn nv_free_is_already_positive() {
        let cb = NvCallback::MemoryFree {
            device: DeviceId(0),
            addr: 0x300,
            bytes: 100,
            at: SimTime(0),
        };
        match normalize_nv(&cb) {
            Some(Event::ResourceFree { bytes, .. }) => assert_eq!(bytes, 100),
            other => panic!("expected ResourceFree, got {other:?}"),
        }
    }

    #[test]
    fn driver_vs_runtime_split() {
        let driver = NvCallback::ApiEnter {
            name: "cuLaunchKernel",
            device: DeviceId(0),
            at: SimTime(0),
        };
        assert!(matches!(
            normalize_nv(&driver),
            Some(Event::DriverApi { .. })
        ));
        let runtime = NvCallback::ApiEnter {
            name: "cudaMalloc",
            device: DeviceId(0),
            at: SimTime(0),
        };
        assert!(matches!(
            normalize_nv(&runtime),
            Some(Event::RuntimeApi { .. })
        ));
    }

    #[test]
    fn batch_ops_normalize() {
        let cb = NvCallback::BatchMemOp {
            device: DeviceId(0),
            op: "cudaMemPrefetchAsync",
            addr: 0,
            bytes: 64,
            at: SimTime(0),
        };
        match normalize_nv(&cb) {
            Some(Event::BatchMemOp { op, .. }) => assert_eq!(op, "mem_prefetch"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn api_exits_are_dropped() {
        assert!(normalize_nv(&NvCallback::ApiExit {
            name: "cudaMalloc",
            device: DeviceId(0),
            at: SimTime(0)
        })
        .is_none());
        assert!(normalize_roc(&RocCallback::ApiExit {
            name: "hipMalloc",
            device: DeviceId(0),
            at: SimTime(0)
        })
        .is_none());
    }

    #[test]
    fn uvm_activity_unifies_across_vendors() {
        use accel_sim::LaunchId;
        // NVIDIA's UvmFault and AMD's PageMigrate describe the same
        // semantic event; normalization must produce identical Events,
        // each carrying the *faulting* device.
        let nv = normalize_nv(&NvCallback::UvmFault {
            launch: LaunchId(3),
            device: DeviceId(1),
            groups: 2,
            migrated_bytes: 4096,
            evicted_bytes: 1024,
            stall_ns: 777,
            at: SimTime(11),
        })
        .unwrap();
        let roc = normalize_roc(&RocCallback::PageMigrate {
            launch: LaunchId(3),
            device: DeviceId(1),
            groups: 2,
            migrated_bytes: 4096,
            evicted_bytes: 1024,
            stall_ns: 777,
            at: SimTime(11),
        })
        .unwrap();
        assert_eq!(nv, roc);
        assert_eq!(nv.device(), Some(DeviceId(1)), "routes by faulting device");
    }

    #[test]
    fn peer_traffic_unifies_across_vendors_and_routes_by_destination() {
        use accel_sim::LaunchId;
        let nv = normalize_nv(&NvCallback::PeerMigrate {
            launch: LaunchId(5),
            src: DeviceId(0),
            dst: DeviceId(1),
            duplicated_pages: 16,
            invalidated_pages: 0,
            bytes: 1 << 20,
            stall_ns: 321,
            at: SimTime(13),
        })
        .unwrap();
        let roc = normalize_roc(&RocCallback::PeerCopy {
            launch: LaunchId(5),
            src: DeviceId(0),
            dst: DeviceId(1),
            duplicated_pages: 16,
            invalidated_pages: 0,
            bytes: 1 << 20,
            stall_ns: 321,
            at: SimTime(13),
        })
        .unwrap();
        assert_eq!(nv, roc);
        assert_eq!(nv.device(), Some(DeviceId(1)), "routes by destination");
    }

    #[test]
    fn semantically_equivalent_events_unify() {
        // The same logical free through both vendors yields the same Event
        // (modulo timestamps) — the §III-G promise.
        let nv = normalize_nv(&NvCallback::MemoryFree {
            device: DeviceId(0),
            addr: 0xabc,
            bytes: 2048,
            at: SimTime(7),
        })
        .unwrap();
        let roc = normalize_roc(&RocCallback::MemoryDelta {
            device: DeviceId(0),
            addr: 0xabc,
            delta: -2048,
            managed: false,
            at: SimTime(7),
        })
        .unwrap();
        assert_eq!(nv, roc);
    }
}
