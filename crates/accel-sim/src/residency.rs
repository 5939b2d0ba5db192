//! Managed-memory residency hook.
//!
//! Kernels that touch managed (UVM) ranges pay page-fault and migration
//! costs decided by a [`ResidencyModel`] — implemented by the `uvm-sim`
//! crate. The engine consults the model once per access stream, passing the
//! touched range and traffic volume; the model migrates pages, evicts under
//! pressure, and returns the extra device time the kernel must absorb.

use crate::id::DeviceId;
use crate::kernel::AccessKind;
use std::any::Any;

/// Result of resolving one kernel access stream against managed memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Extra device time the kernel stalls for (fault handling + migration).
    pub extra_device_ns: u64,
    /// Page-fault groups serviced.
    pub faults: u64,
    /// Bytes migrated host→device to satisfy the accesses.
    pub migrated_in_bytes: u64,
    /// Bytes evicted device→host to make room.
    pub evicted_bytes: u64,
    /// Bytes read-duplicated device→device over the peer link (shared
    /// managed ranges only; zero for private ranges).
    pub peer_in_bytes: u64,
}

impl AccessOutcome {
    /// An access that hit entirely resident pages.
    pub const HIT: AccessOutcome = AccessOutcome {
        extra_device_ns: 0,
        faults: 0,
        migrated_in_bytes: 0,
        evicted_bytes: 0,
        peer_in_bytes: 0,
    };

    /// Component-wise sum.
    pub fn merge(self, o: AccessOutcome) -> AccessOutcome {
        AccessOutcome {
            extra_device_ns: self.extra_device_ns + o.extra_device_ns,
            faults: self.faults + o.faults,
            migrated_in_bytes: self.migrated_in_bytes + o.migrated_in_bytes,
            evicted_bytes: self.evicted_bytes + o.evicted_bytes,
            peer_in_bytes: self.peer_in_bytes + o.peer_in_bytes,
        }
    }
}

/// One peer-to-peer coherence operation a residency model performed while
/// resolving accesses to a *shared* managed range: either a read
/// duplication (`duplicated_pages > 0`, data moved `src → dst`) or a
/// write invalidation (`invalidated_pages > 0`, `src` wrote and `dst`'s
/// duplicate was dropped). The vendor runtimes drain these through
/// [`ResidencyModel::take_peer_transfers`] and surface them as host
/// callbacks carrying both devices, so the sharded hub can route the
/// event to the *destination* device's shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerTransfer {
    /// Device the data (or the invalidating write) came from.
    pub src: DeviceId,
    /// Device whose residency changed — the routing key.
    pub dst: DeviceId,
    /// Pages read-duplicated onto `dst`.
    pub duplicated_pages: u64,
    /// `dst` duplicate pages invalidated by `src`'s write.
    pub invalidated_pages: u64,
    /// Bytes moved over the peer link (duplications only).
    pub bytes: u64,
    /// Device stall charged to the faulting kernel, ns.
    pub stall_ns: u64,
}

/// UVM advice values understood by residency models, mirroring
/// `cudaMemAdvise`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResidencyAdvice {
    /// Pin the range on the device (never evict).
    PinOnDevice,
    /// Prefer the host; treat as immediately evictable.
    PreferHost,
    /// Read-mostly data; eviction needs no write-back.
    ReadMostly,
    /// Clear previous advice.
    Unset,
}

/// Decides the cost of device accesses to managed memory.
///
/// Beyond demand faulting ([`on_kernel_access`](Self::on_kernel_access)),
/// the trait carries the full UVM control surface — registration of managed
/// allocations, asynchronous prefetch and advice — with no-op defaults so
/// simple models stay simple.
///
/// `Any` lets a session layer reach the concrete model (e.g.
/// `uvm_sim::UvmManager`) behind the trait object by upcasting: a
/// `&dyn ResidencyModel` coerces to `&dyn Any`, and a lane's boxed model to
/// `Box<dyn Any + Send>` when its forked manager is taken back at the end of
/// a parallel region.
pub trait ResidencyModel: Any + Send {
    /// True when `addr` lies in a live managed allocation.
    fn is_managed(&self, addr: u64) -> bool;

    /// Resolves a kernel's access to `[base, base+len)` on `device` moving
    /// `bytes` in total; migrates/evicts pages and returns the cost. The
    /// engine calls this for every global access without asking
    /// [`is_managed`](Self::is_managed) first: an address outside every
    /// managed allocation must resolve to [`AccessOutcome::HIT`] and
    /// change nothing.
    fn on_kernel_access(
        &mut self,
        device: DeviceId,
        base: u64,
        len: u64,
        bytes: u64,
        kind: AccessKind,
    ) -> AccessOutcome;

    /// Registers a managed allocation (called from `cudaMallocManaged`).
    fn register(&mut self, base: u64, len: u64) {
        let _ = (base, len);
    }

    /// Unregisters a managed allocation, dropping its pages.
    fn unregister(&mut self, base: u64) {
        let _ = base;
    }

    /// Marks `[base, base+len)` as a managed range *shared* across
    /// devices/lanes, with `owner` holding the home copy: remote reads
    /// read-duplicate over the peer link, remote writes invalidate the
    /// other devices' duplicates. Default: no-op — models without
    /// coherence support treat every range as private.
    fn register_shared(&mut self, base: u64, len: u64, owner: DeviceId) {
        let _ = (base, len, owner);
    }

    /// Removes the shared marking of the range starting at `base` (its
    /// pages fall back to private semantics). Default: no-op.
    fn unregister_shared(&mut self, base: u64) {
        let _ = base;
    }

    /// Drains the peer-to-peer coherence operations (read duplications,
    /// write invalidations) accumulated since the last drain, in the
    /// order they happened. Default: empty — private-only models never
    /// produce peer traffic.
    fn take_peer_transfers(&mut self) -> Vec<PeerTransfer> {
        Vec::new()
    }

    /// Asynchronously prefetches `[base, base+len)` to `device`, returning
    /// the non-overlapped device stall in nanoseconds.
    fn prefetch(&mut self, device: DeviceId, base: u64, len: u64) -> u64 {
        let _ = (device, base, len);
        0
    }

    /// Applies advice to a managed range.
    fn advise(&mut self, device: DeviceId, base: u64, len: u64, advice: ResidencyAdvice) {
        let _ = (device, base, len, advice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial residency model where everything is always resident.
    struct AlwaysResident;

    impl ResidencyModel for AlwaysResident {
        fn is_managed(&self, _addr: u64) -> bool {
            false
        }

        fn on_kernel_access(
            &mut self,
            _device: DeviceId,
            _base: u64,
            _len: u64,
            _bytes: u64,
            _kind: AccessKind,
        ) -> AccessOutcome {
            AccessOutcome::HIT
        }
    }

    #[test]
    fn outcomes_add() {
        let a = AccessOutcome {
            extra_device_ns: 10,
            faults: 1,
            migrated_in_bytes: 4096,
            evicted_bytes: 0,
            peer_in_bytes: 512,
        };
        let b = AccessOutcome {
            extra_device_ns: 5,
            faults: 2,
            migrated_in_bytes: 0,
            evicted_bytes: 1024,
            peer_in_bytes: 0,
        };
        let c = a.merge(b);
        assert_eq!(c.extra_device_ns, 15);
        assert_eq!(c.faults, 3);
        assert_eq!(c.migrated_in_bytes, 4096);
        assert_eq!(c.evicted_bytes, 1024);
        assert_eq!(c.peer_in_bytes, 512);
        assert_eq!(a.merge(AccessOutcome::HIT), a);
    }

    #[test]
    fn always_resident_never_faults() {
        let mut m = AlwaysResident;
        assert!(!m.is_managed(0x1234));
        assert_eq!(
            m.on_kernel_access(DeviceId(0), 0, 4096, 4096, AccessKind::Load),
            AccessOutcome::HIT
        );
    }

    #[test]
    fn model_is_object_safe_and_upcasts_to_any() {
        let m: Box<dyn ResidencyModel> = Box::new(AlwaysResident);
        assert!((&*m as &dyn Any).is::<AlwaysResident>());
        let any: Box<dyn Any + Send> = m;
        assert!(any.downcast::<AlwaysResident>().is_ok());
    }
}
