//! The UVM manager: demand faulting, prefetch, advice, eviction.

use crate::coherence::CoherenceDirectory;
use crate::config::UvmConfig;
use crate::page::{page_of_addr, page_range};
use crate::pager::{
    cache, deregister_evicted, for_each_segment, ranges_spanning, Pager, SharedEntry, SharedMap,
};
use crate::state::{DeviceState, PINNED, READ_MOSTLY};
use crate::stats::UvmStats;
use accel_sim::sync::{count, Site};
use accel_sim::{
    AccessKind, AccessOutcome, DeviceId, PeerTransfer, ResidencyAdvice, ResidencyModel,
};
use std::cell::Cell;
use std::sync::Arc;

/// The unified-virtual-memory manager.
///
/// Implements [`ResidencyModel`], so an [`accel_sim::Engine`] with a
/// `UvmManager` attached charges kernels for page faults, migrations and
/// evictions on every access to a registered managed range. It keeps
/// residency and its counters only: analyses run as tools over the event
/// stream, so per-block access hotness (Fig. 13) is
/// `pasta_tools::HotnessTool`'s.
///
/// # Shared managed ranges
///
/// A range marked shared ([`UvmManager::register_shared`]) is visible to
/// every lane of a parallel run under home-backed coherence semantics:
/// the registration names an **owner** device whose memory backs the
/// range.
///
/// * The owner demand-faults the range from the host like any private
///   range.
/// * A **read** by any other device **read-duplicates** the touched
///   pages from the owner over the peer link: a [`PeerTransfer`] plus a
///   local clean duplicate, counted in [`UvmStats::peer_pages_in`]. The
///   classification is static (owner vs. not), so for **read-only**
///   shared usage a lane's counters depend only on its own access
///   stream — the determinism contract that keeps concurrent runs
///   byte-identical to the sequential reference (what the `uvm_p2p`
///   differential suite pins).
/// * A **write** to a shared page **invalidates** every other device's
///   duplicate through the per-range coherence directory
///   ([`crate::coherence`]): the directory's holder set is updated under
///   the range lock at write time, so no stale duplicate is ever served.
///   An unforked manager owns all device states and drops the victims'
///   pages eagerly; a forked lane cannot reach its siblings' residency,
///   so each victim drains its pending-invalidation list (and drops the
///   stale pages) at its next shared-range access. Invalidation counts
///   and refetches are inherently cross-lane: workloads that *write*
///   shared ranges while siblings touch them concurrently observe
///   schedule-dependent counters (conservation still holds — the
///   property suite pins it) and sit outside the byte-identity
///   contract; drive them through the sequential reference schedule
///   when exact reproducibility is required.
///
/// A private access reaches the directory only when its faults evict
/// pages of a shared range (one budget per device), to clear its own
/// holder bits for them; neither that nor a lookup takes a lock.
#[derive(Debug)]
pub struct UvmManager {
    /// Registered managed allocations, (base, length) ascending by base.
    allocs: Vec<(u64, u64)>,
    /// The same, each in the slot its base hashes to (the latest wins):
    /// an access starting where an allocation does finds it with no
    /// search, though decode's KV pages are not neighbours in `allocs`.
    by_base: [Cell<(u64, u64)>; 256],
    /// Shared-range cache: base → (len, owner, range directory). Read
    /// lock-free on the access path; empty unless sharing is in use.
    shared: SharedMap,
    /// Rendezvous for shared registrations: forks clone the `Arc`, so a
    /// range registered by one lane at run time resolves to the same
    /// per-range lock in every lane.
    directory: Arc<CoherenceDirectory>,
    pager: Pager,
}

impl UvmManager {
    /// Creates a manager with no devices registered.
    pub fn new(_config: UvmConfig) -> Self {
        UvmManager {
            allocs: Vec::new(),
            by_base: [const { Cell::new((0, 0)) }; 256],
            shared: Vec::new(),
            directory: Arc::new(CoherenceDirectory::new()),
            pager: Pager::new(Vec::new(), None),
        }
    }

    /// Registers a device with a managed-memory `budget` (bytes), host
    /// link bandwidth (GB/s), and fault-group latency (ns). Devices are
    /// indexed in registration order, matching engine device ids. The
    /// peer link defaults to the host link bandwidth; use
    /// [`UvmManager::add_device_p2p`] when the devices have a faster
    /// direct interconnect (NVLink/xGMI).
    pub fn add_device(&mut self, budget: u64, link_bandwidth_gbps: f64, fault_latency_ns: u64) {
        self.add_device_p2p(
            budget,
            link_bandwidth_gbps,
            link_bandwidth_gbps,
            fault_latency_ns,
        );
    }

    /// Like [`UvmManager::add_device`] with an explicit peer-link
    /// bandwidth (GB/s) used to price shared-range read duplications.
    pub fn add_device_p2p(
        &mut self,
        budget: u64,
        link_bandwidth_gbps: f64,
        p2p_bandwidth_gbps: f64,
        fault_latency_ns: u64,
    ) {
        let mut st = DeviceState::new(budget, link_bandwidth_gbps, fault_latency_ns);
        st.p2p_bandwidth_gbps = p2p_bandwidth_gbps;
        self.pager.devices.push(st);
    }

    /// The managed budget currently configured for `device` (bytes).
    ///
    /// # Panics
    ///
    /// Panics when the device was never added.
    pub fn budget(&self, device: DeviceId) -> u64 {
        self.pager.devices[device.index()].budget
    }

    /// Number of devices registered.
    pub fn device_count(&self) -> usize {
        self.pager.devices.len()
    }

    /// A lane-local manager for `device`, mirroring `Tool::fork` in the
    /// sharded event hub: same device table (budgets, link bandwidths,
    /// fault latencies), same registered managed allocations — but fresh
    /// residency and statistics, so a parallel lane driving `device`
    /// starts cold and accumulates its own state with no shared lock.
    /// Lane state folds back via [`UvmManager::merge`] at session end.
    ///
    /// The device table is a **snapshot**: a later budget change on the
    /// parent never reaches a manager forked before it (and a fork's never
    /// reaches the parent).
    ///
    /// `device` names the lane's home device; it is recorded for merge
    /// ordering and asserted to exist so a mis-pinned lane fails fast.
    ///
    /// # Panics
    ///
    /// Panics when `device` was never added.
    pub fn fork(&self, device: DeviceId) -> UvmManager {
        assert!(
            device.index() < self.pager.devices.len(),
            "fork target {device:?} is not a registered UVM device"
        );
        let devices = self
            .pager
            .devices
            .iter()
            .map(|d| {
                let mut st = DeviceState::new(d.budget, d.link_bandwidth_gbps, d.fault_latency_ns);
                st.p2p_bandwidth_gbps = d.p2p_bandwidth_gbps;
                st
            })
            .collect();
        UvmManager {
            allocs: self.allocs.clone(),
            by_base: self.by_base.clone(),
            // Shared ranges and the coherence directory are the one thing
            // lanes genuinely share: the cached entries clone their Arcs
            // and the directory handle is the rendezvous for ranges a
            // lane registers *after* the fork. Each inherited entry
            // counts as a registration, so a lane tearing its shared
            // state down cannot drop the range under its siblings. (A
            // lane dropped without unregistering leaks its count; the
            // allocation-free force-removal is the backstop.)
            shared: {
                self.shared.iter().for_each(|(_, e)| e.dir.retain());
                self.shared.clone()
            },
            directory: Arc::clone(&self.directory),
            pager: Pager::new(devices, Some(device)),
        }
    }

    /// Folds a lane manager's accumulated state into this one — the merge
    /// stage of the per-lane UVM shards, invoked at session end in
    /// ascending device-id order (each lane's stream is internally
    /// ordered, so the fold is deterministic). Statistics and the
    /// peer-traffic matrix sum, reproducing a sequential single-manager
    /// reference run that processed the lanes device-at-a-time.
    /// Residency state is *not* imported: a lane's pages belong to its
    /// private replica of the managed space and are dropped with it.
    pub fn merge(&mut self, other: &UvmManager) {
        self.pager.stats.merge_from(&other.pager.stats);
        #[cfg(debug_assertions)]
        {
            let lane = other.pager.devices.iter();
            let lane = lane.map(|d| d.resident_bytes() / crate::PAGE_SIZE + d.dropped);
            self.pager.unseen.0 += other.pager.unseen.0;
            self.pager.unseen.1 += other.pager.unseen.1 + lane.sum::<u64>();
        }
        for (&pair, &bytes) in &other.pager.peer_bytes {
            *self.pager.peer_bytes.entry(pair).or_insert(0) += bytes;
        }
        // Shared-range registrations a lane made after the fork travel
        // back with the merge, so the parent keeps routing the range
        // through the coherence path — the directory entry is shared
        // already; only the lane-local cache needs importing (counted as
        // a registration of its own). Copies this manager holds from
        // *before* it learned the range was shared are untracked in the
        // directory and may predate shared writes — drop them unless the
        // directory lists them; they refault under coherence.
        let imported: Vec<(u64, SharedEntry)> = other
            .shared
            .iter()
            .filter(|(rbase, _)| self.shared.iter().all(|e| e.0 != *rbase))
            .cloned()
            .collect();
        for (rbase, e) in imported {
            for (i, st) in self.pager.devices.iter_mut().enumerate() {
                let device = DeviceId(i as u32);
                for p in e.pages.iter() {
                    if st.is_resident(p) && !e.dir.is_holder(p, device) {
                        st.remove(p);
                    }
                }
            }
            e.dir.retain();
            cache(&mut self.shared, rbase, e);
        }
        // Any coherence operations a lane performed after its last
        // launch drain (normally none) surface through the parent.
        self.pager
            .peer_log
            .extend(other.pager.peer_log.iter().copied());
        self.pager.check_conservation();
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> UvmStats {
        self.pager.stats
    }

    /// Resets statistics, the peer-traffic matrix and the undrained peer
    /// log (budgets and residency stay).
    pub fn reset_stats(&mut self) {
        self.pager.stats = UvmStats::default();
        #[cfg(debug_assertions)]
        {
            // What stays resident counts as having come in unseen.
            let held = self.pager.devices.iter();
            let held = held.map(|d| d.resident_bytes() / crate::PAGE_SIZE + d.dropped);
            self.pager.unseen = (held.sum(), 0);
        }
        self.pager.peer_bytes.clear();
        self.pager.peer_log.clear();
    }

    /// Bytes read-duplicated over the peer link, per (src, dst) device
    /// pair, ascending — the session-level peer-traffic matrix behind
    /// `MergedReport::uvm`.
    pub fn peer_matrix(&self) -> Vec<((DeviceId, DeviceId), u64)> {
        self.pager
            .peer_bytes
            .iter()
            .map(|(&p, &b)| (p, b))
            .collect()
    }

    /// The shared-range coherence directory (forks share it).
    pub fn directory(&self) -> &Arc<CoherenceDirectory> {
        &self.directory
    }

    /// True when `addr`'s page is resident on `device` (tests and the
    /// conformance suites; private *and* shared pages).
    pub fn page_resident(&self, device: DeviceId, addr: u64) -> bool {
        self.pager
            .devices
            .get(device.index())
            .is_some_and(|st| st.is_resident(page_of_addr(addr)))
    }

    /// Bytes resident on `device`.
    pub fn resident_bytes(&self, device: DeviceId) -> u64 {
        self.pager
            .devices
            .get(device.index())
            .map_or(0, DeviceState::resident_bytes)
    }

    /// The registered allocation containing `addr`, as (base, length).
    fn alloc_containing(&self, addr: u64) -> Option<(u64, u64)> {
        let slot = self.slot(addr);
        if slot.get().0 == addr && slot.get().1 > 0 {
            return Some(slot.get());
        }
        // Inside one, or its slot taken: the one with the greatest base
        // at or below `addr`.
        count(Site::AllocSearch);
        let i = self.allocs.partition_point(|a| a.0 <= addr);
        let (base, len) = self.allocs[i.checked_sub(1)?];
        if base == addr {
            slot.set((base, len));
        }
        (addr < base + len).then_some((base, len))
    }

    /// The `by_base` slot of `base`: the product's top bits (bases are
    /// 256-byte aligned, so the low bits carry nothing).
    fn slot(&self, base: u64) -> &Cell<(u64, u64)> {
        &self.by_base[(base.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as usize]
    }

    /// Clamps `[base, len)` to the registered allocation containing `base`.
    fn clamp_to_alloc(&self, base: u64, len: u64) -> Option<(u64, u64)> {
        let (abase, alen) = self.alloc_containing(base)?;
        let end = (base + len).min(abase + alen);
        Some((base, end - base))
    }
}

impl ResidencyModel for UvmManager {
    fn is_managed(&self, addr: u64) -> bool {
        self.alloc_containing(addr).is_some()
    }

    fn on_kernel_access(
        &mut self,
        device: DeviceId,
        base: u64,
        len: u64,
        _bytes: u64,
        kind: AccessKind,
    ) -> AccessOutcome {
        if device.index() >= self.pager.devices.len() {
            return AccessOutcome::HIT;
        }
        let Some((base, len)) = self.clamp_to_alloc(base, len) else {
            return AccessOutcome::HIT;
        };

        // Shared ranges go through the coherence path; everything else —
        // including the shared map being empty, the common case — stays
        // on the lock-free private path. An access may straddle any mix
        // of private and shared territory (start before a shared range,
        // run past its end, span several); each segment resolves under
        // its own semantics so shared pages can never slip through the
        // private path and bypass the directory.
        let UvmManager { shared, pager, .. } = self;
        let mut out = AccessOutcome::HIT;
        for_each_segment(shared, base, len, |entry, base, len| {
            out = out.merge(match entry {
                None => pager.private_access(shared, device, base, len),
                Some(e) => pager.shared_access(shared, device, e, base, len, kind),
            });
        });
        pager.check_conservation();
        out
    }

    fn register(&mut self, base: u64, len: u64) {
        if len > 0 {
            self.slot(base).set((base, len));
            match self.allocs.binary_search_by_key(&base, |a| a.0) {
                Ok(i) => self.allocs[i].1 = len,
                Err(i) => self.allocs.insert(i, (base, len)),
            }
        }
    }

    fn unregister(&mut self, base: u64) {
        if let Ok(i) = self.allocs.binary_search_by_key(&base, |a| a.0) {
            let (_, len) = self.allocs.remove(i);
            self.slot(base).take();
            let range = page_range(base, len);
            for st in &mut self.pager.devices {
                // A device holding no pages has none of these to drop.
                if st.resident_bytes() > 0 {
                    st.remove_range(range, None);
                }
            }
            self.pager.check_conservation();
            // Shared subranges die with the allocation that held them —
            // force-removed from the directory regardless of registrant
            // count, because the backing address range is gone and may
            // be reused.
            let inside = |b: &u64| (base..base + len).contains(b);
            for (b, _) in self.shared.iter().filter(|(b, _)| inside(b)) {
                self.directory.remove(*b);
            }
            self.shared.retain(|(b, _)| !inside(b));
        }
    }

    fn register_shared(&mut self, base: u64, len: u64, owner: DeviceId) {
        if len == 0 {
            return;
        }
        // The directory is the rendezvous: whichever lane registers first
        // fixes the extent and the owner, and everyone else's cache entry
        // resolves to the same per-range lock. Registrations are counted,
        // so one lane unregistering does not tear the range down under
        // its siblings.
        let dir = self.directory.ensure(base, len, owner);
        // Pages this manager already holds from pre-registration private
        // accesses become tracked duplicates, so a later write can
        // invalidate them — otherwise the old copies would survive as
        // served-stale data the directory never knew about.
        for (i, st) in self.pager.devices.iter().enumerate() {
            dir.set_holder(st.resident_in(dir.pages()), DeviceId(i as u32), true);
        }
        cache(&mut self.shared, base, SharedEntry::new(dir));
    }

    fn unregister_shared(&mut self, base: u64) {
        // Drop the local cache entry; the directory entry survives until
        // the last registrant releases it (a lane finishing early must
        // not split coherence for the lanes still using the range). The
        // cache entry *is* this manager's registration, so only its
        // actual removal releases a count — calling twice cannot release
        // a sibling's registration.
        if let Some(i) = self.shared.iter().position(|e| e.0 == base) {
            self.shared.remove(i);
            self.directory.release(base);
        }
    }

    fn take_peer_transfers(&mut self) -> Vec<PeerTransfer> {
        std::mem::take(&mut self.pager.peer_log)
    }

    fn prefetch(&mut self, device: DeviceId, base: u64, len: u64) -> u64 {
        if device.index() >= self.pager.devices.len() {
            return 0;
        }
        let Some((base, len)) = self.clamp_to_alloc(base, len) else {
            return 0;
        };
        // Prefetching a shared segment behaves like a read access: the
        // owner pulls from the host, everyone else read-duplicates —
        // counted under the demand/peer counters, and the directory
        // learns the new holders either way. Private segments (before,
        // between or after shared ranges) keep the prefetch cost model.
        let UvmManager { shared, pager, .. } = self;
        let mut stall = 0u64;
        for_each_segment(shared, base, len, |entry, base, len| {
            stall += match entry {
                None => pager.private_prefetch(shared, device, base, len),
                Some(e) => {
                    pager
                        .shared_access(shared, device, e, base, len, AccessKind::Load)
                        .extra_device_ns
                }
            };
        });
        pager.check_conservation();
        stall
    }

    fn advise(&mut self, device: DeviceId, base: u64, len: u64, advice: ResidencyAdvice) {
        if device.index() >= self.pager.devices.len() {
            return;
        }
        let Some((base, len)) = self.clamp_to_alloc(base, len) else {
            return;
        };
        let UvmManager { shared, pager, .. } = self;
        let range = page_range(base, len);
        let st = &mut pager.devices[device.index()];
        match advice {
            ResidencyAdvice::PinOnDevice => {
                // A forked lane's invalidated copies stay resident until
                // it drains its pending list; pinning one as it is would
                // list a stale copy as a valid duplicate.
                for e in ranges_spanning(shared, range) {
                    for p in e.dir.drain_pending(device) {
                        st.remove(p);
                    }
                }
                // Pinning implies making the range resident first.
                let (_pages, _evict, _) = pager.fault_in(shared, device, base, len);
                #[cfg(debug_assertions)]
                {
                    pager.unseen.0 += _pages;
                    pager.unseen.1 += _evict.pages;
                }
                let st = &mut pager.devices[device.index()];
                st.set_advice(range, PINNED, PINNED, None);
                // Pinned shared pages are duplicates like any other: the
                // directory must list them or a write cannot see them
                // (a range larger than the budget evicted its own head;
                // those pages are not held).
                for e in ranges_spanning(shared, range) {
                    e.dir.set_holder(st.resident_in(range), device, true);
                }
            }
            ResidencyAdvice::PreferHost => {
                st.remove_range(range, Some(&mut pager.victims));
                // Dropped shared duplicates leave the holder set, so the
                // directory census keeps matching actual residency.
                deregister_evicted(shared, device, &pager.victims);
                pager.victims.clear();
            }
            ResidencyAdvice::ReadMostly => st.set_advice(range, READ_MOSTLY, READ_MOSTLY, None),
            ResidencyAdvice::Unset => st.set_advice(range, PINNED | READ_MOSTLY, 0, None),
        }
        pager.check_conservation();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use std::collections::BTreeMap;

    impl UvmManager {
        /// Shrinks or grows a device's managed budget (oversubscription
        /// knob). **Snapshot semantics with forked lanes**:
        /// [`UvmManager::fork`] copies the device table, budgets included,
        /// at fork time, so setting a budget on the parent afterwards does
        /// *not* reach managers already forked — a sweep that tightens
        /// budgets between load waves must reconfigure before the parallel
        /// region opens, or build a fresh session per budget point the way
        /// the oversubscription examples do.
        fn set_budget(&mut self, device: DeviceId, budget: u64) {
            self.pager.devices[device.index()].budget = budget;
        }

        /// The home device this manager was forked for, if any.
        fn home_device(&self) -> Option<DeviceId> {
            self.pager.home
        }

        /// The owner of the shared range containing `addr`, if any.
        fn shared_owner(&self, addr: u64) -> Option<DeviceId> {
            let mut shared = self.shared.iter();
            shared
                .find(|(b, e)| *b <= addr && addr < b + e.len)
                .map(|(_, e)| e.owner)
        }
    }

    const BASE: u64 = 0x4000_0000_0000;
    const MB: u64 = 1 << 20;

    fn manager(budget_mb: u64) -> UvmManager {
        let mut m = UvmManager::new(UvmConfig);
        m.add_device(budget_mb * MB, 24.0, 25_000);
        m
    }

    #[test]
    fn cold_access_faults_warm_access_hits() {
        let mut m = manager(512);
        m.register(BASE, 64 * MB);
        let cold = m.on_kernel_access(DeviceId(0), BASE, 64 * MB, 64 * MB, AccessKind::Load);
        assert!(cold.faults > 0);
        assert_eq!(cold.migrated_in_bytes, 64 * MB);
        let warm = m.on_kernel_access(DeviceId(0), BASE, 64 * MB, 64 * MB, AccessKind::Load);
        assert_eq!(warm, AccessOutcome::HIT);
    }

    /// Pins the snapshot semantics [`UvmManager::fork`] documents: the
    /// fork copies the budget table, so `set_budget` on the parent after
    /// the fork never reaches the lane manager (and vice versa). A sweep
    /// that tightens budgets between waves must reconfigure *before*
    /// forking the lanes that should feel the squeeze.
    #[test]
    fn fork_snapshots_budgets_and_later_set_budget_does_not_propagate() {
        let mut parent = manager(512);
        let fork = parent.fork(DeviceId(0));
        assert_eq!(fork.budget(DeviceId(0)), 512 * MB, "fork inherits");

        parent.set_budget(DeviceId(0), 32 * MB);
        assert_eq!(parent.budget(DeviceId(0)), 32 * MB);
        assert_eq!(
            fork.budget(DeviceId(0)),
            512 * MB,
            "parent set_budget must not reach an existing fork"
        );

        let mut late = parent.fork(DeviceId(0));
        assert_eq!(late.budget(DeviceId(0)), 32 * MB, "new forks see it");
        late.set_budget(DeviceId(0), MB);
        assert_eq!(
            parent.budget(DeviceId(0)),
            32 * MB,
            "a fork's set_budget must not reach the parent"
        );
    }

    /// Lookups against a search of the registered set, at every base,
    /// inside, past the end and in the gaps, over 600 allocations (more
    /// than the 256 `by_base` slots, so bases share slots), then after
    /// every third is unregistered and every fifth re-registered at a new
    /// length (a slot must never answer for a base that moved on).
    #[test]
    fn alloc_lookups_agree_with_a_search_whatever_the_slots_hold() {
        let mut m = manager(64);
        let mut live: BTreeMap<u64, u64> = BTreeMap::new();
        for i in 0..600u64 {
            let (base, len) = (BASE + i * 3 * 256, 256 * (1 + i % 2));
            m.register(base, len);
            live.insert(base, len);
        }
        let check = |m: &UvmManager, live: &BTreeMap<u64, u64>| {
            let want = |addr: u64| {
                let (&b, &l) = live.range(..=addr).next_back()?;
                (addr < b + l).then_some((b, l))
            };
            for i in 0..600 * 3 + 2 {
                for addr in [BASE + i * 256, BASE + i * 256 + 255, BASE - 1, 0] {
                    // Twice: the first lookup may refill the slot.
                    assert_eq!(m.alloc_containing(addr), want(addr), "{addr:#x}");
                    assert_eq!(m.alloc_containing(addr), want(addr), "{addr:#x}");
                }
            }
        };
        check(&m, &live);
        for i in 0..600u64 {
            let base = BASE + i * 3 * 256;
            if i % 3 == 0 {
                m.unregister(base);
                live.remove(&base);
            } else if i % 5 == 0 {
                m.register(base, 512 + 256 - live[&base]);
                live.insert(base, 512 + 256 - live[&base]);
            }
        }
        check(&m, &live);
    }

    #[test]
    fn unregistered_ranges_are_free() {
        let mut m = manager(512);
        let out = m.on_kernel_access(DeviceId(0), BASE, MB, MB, AccessKind::Load);
        assert_eq!(out, AccessOutcome::HIT);
        assert!(!m.is_managed(BASE));
    }

    #[test]
    fn oversubscription_causes_eviction_and_thrash() {
        let mut m = manager(32); // 32 MiB budget
        m.register(BASE, 128 * MB); // 4x oversubscribed
        let first = m.on_kernel_access(DeviceId(0), BASE, 64 * MB, 64 * MB, AccessKind::Load);
        assert!(first.evicted_bytes > 0, "64 MiB through 32 MiB must evict");
        // Re-touching the start now misses again: thrashing.
        let again = m.on_kernel_access(DeviceId(0), BASE, MB, MB, AccessKind::Load);
        assert!(again.faults > 0, "evicted pages fault again");
    }

    #[test]
    fn prefetch_is_cheaper_than_demand_fault() {
        let mut a = manager(512);
        a.register(BASE, 64 * MB);
        let demand = a.on_kernel_access(DeviceId(0), BASE, 64 * MB, 64 * MB, AccessKind::Load);

        let mut b = manager(512);
        b.register(BASE, 64 * MB);
        let stall = b.prefetch(DeviceId(0), BASE, 64 * MB);
        let after = b.on_kernel_access(DeviceId(0), BASE, 64 * MB, 64 * MB, AccessKind::Load);
        assert_eq!(after, AccessOutcome::HIT, "prefetched pages are resident");
        assert!(
            stall * 3 < demand.extra_device_ns,
            "prefetch stall {stall} should be well under demand stall {}",
            demand.extra_device_ns
        );
    }

    #[test]
    fn prefetch_of_resident_range_is_noop() {
        let mut m = manager(512);
        m.register(BASE, MB);
        m.prefetch(DeviceId(0), BASE, MB);
        let stall = m.prefetch(DeviceId(0), BASE, MB);
        assert_eq!(stall, 0);
        assert_eq!(m.stats().prefetch_noops, 1);
    }

    #[test]
    fn pinned_ranges_survive_pressure() {
        let mut m = manager(4);
        m.register(BASE, 16 * MB);
        m.advise(DeviceId(0), BASE, 2 * MB, ResidencyAdvice::PinOnDevice);
        // Flood the rest of the budget several times over.
        m.on_kernel_access(
            DeviceId(0),
            BASE + 4 * MB,
            12 * MB,
            12 * MB,
            AccessKind::Load,
        );
        // The pinned prefix must still be resident: re-access is free.
        let out = m.on_kernel_access(DeviceId(0), BASE, 2 * MB, 2 * MB, AccessKind::Load);
        assert_eq!(out, AccessOutcome::HIT, "pinned pages never evicted");
    }

    #[test]
    fn unregister_drops_residency() {
        let mut m = manager(512);
        m.register(BASE, MB);
        m.on_kernel_access(DeviceId(0), BASE, MB, MB, AccessKind::Load);
        assert!(m.resident_bytes(DeviceId(0)) >= MB);
        m.unregister(BASE);
        assert_eq!(m.resident_bytes(DeviceId(0)), 0);
        assert!(!m.is_managed(BASE));
    }

    #[test]
    fn clamping_respects_allocation_bounds() {
        let mut m = manager(512);
        m.register(BASE, MB);
        // Access claims 10 MiB but the allocation is 1 MiB; only 1 MiB moves.
        let out = m.on_kernel_access(DeviceId(0), BASE, 10 * MB, 10 * MB, AccessKind::Load);
        assert_eq!(out.migrated_in_bytes, MB);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = manager(512);
        m.register(BASE, 4 * MB);
        m.on_kernel_access(DeviceId(0), BASE, 2 * MB, 2 * MB, AccessKind::Load);
        m.prefetch(DeviceId(0), BASE + 2 * MB, 2 * MB);
        let s = m.stats();
        assert!(s.demand_pages_in > 0);
        assert!(s.prefetch_pages_in > 0);
        assert_eq!(s.pages_in(), s.demand_pages_in + s.prefetch_pages_in);
        m.reset_stats();
        assert_eq!(m.stats().pages_in(), 0);
    }

    #[test]
    fn read_mostly_evicts_without_writeback() {
        let mut m = manager(2);
        m.register(BASE, 8 * MB);
        m.on_kernel_access(DeviceId(0), BASE, 2 * MB, 2 * MB, AccessKind::Load);
        m.advise(DeviceId(0), BASE, 2 * MB, ResidencyAdvice::ReadMostly);
        let before = m.stats().evict_stall_ns;
        m.on_kernel_access(DeviceId(0), BASE + 2 * MB, 2 * MB, 2 * MB, AccessKind::Load);
        let after = m.stats().evict_stall_ns;
        assert_eq!(before, after, "read-mostly eviction skips write-back");
    }

    #[test]
    fn unknown_device_is_harmless() {
        let mut m = manager(16);
        m.register(BASE, MB);
        let out = m.on_kernel_access(DeviceId(7), BASE, MB, MB, AccessKind::Load);
        assert_eq!(out, AccessOutcome::HIT);
        assert_eq!(m.prefetch(DeviceId(7), BASE, MB), 0);
    }

    fn two_device_manager(budget_mb: u64) -> UvmManager {
        let mut m = UvmManager::new(UvmConfig);
        m.add_device(budget_mb * MB, 24.0, 25_000);
        m.add_device(budget_mb * MB, 24.0, 25_000);
        m
    }

    #[test]
    fn fork_starts_cold_with_parent_config_and_allocs() {
        let mut parent = two_device_manager(64);
        parent.register(BASE, 16 * MB);
        parent.on_kernel_access(DeviceId(0), BASE, 4 * MB, 4 * MB, AccessKind::Load);
        let mut lane = parent.fork(DeviceId(1));
        assert_eq!(lane.home_device(), Some(DeviceId(1)));
        assert_eq!(lane.device_count(), 2);
        assert!(lane.is_managed(BASE), "registrations travel with the fork");
        assert_eq!(lane.stats(), UvmStats::default(), "fresh statistics");
        assert_eq!(lane.resident_bytes(DeviceId(0)), 0, "fresh residency");
        // The fork services faults independently of the parent.
        let parent_before = parent.stats();
        let out = lane.on_kernel_access(DeviceId(1), BASE, 4 * MB, 4 * MB, AccessKind::Load);
        assert!(out.faults > 0);
        assert_eq!(
            parent.stats(),
            parent_before,
            "parent untouched by lane activity"
        );
    }

    #[test]
    fn reset_stats_clears_the_counters() {
        let mut m = manager(64);
        m.register(BASE, 4 * MB);
        m.on_kernel_access(DeviceId(0), BASE, 2 * MB, 2 * MB, AccessKind::Load);
        m.reset_stats();
        assert_eq!(m.stats(), UvmStats::default());
        // The residency outlives the counters, and the debug builds'
        // conservation check keeps holding across the reset.
        m.on_kernel_access(DeviceId(0), BASE, 4 * MB, 4 * MB, AccessKind::Load);
        assert_eq!(m.stats().demand_pages_in, 2 * MB / PAGE_SIZE);
        m.unregister(BASE);
    }

    #[test]
    #[should_panic(expected = "not a registered UVM device")]
    fn fork_of_unknown_device_panics() {
        let m = manager(16);
        let _ = m.fork(DeviceId(3));
    }

    #[test]
    fn shared_owner_faults_from_host_and_remote_reads_duplicate() {
        let mut m = two_device_manager(512);
        m.register(BASE, 8 * MB);
        m.register_shared(BASE, 4 * MB, DeviceId(0));
        assert_eq!(m.shared_owner(BASE), Some(DeviceId(0)));
        assert_eq!(m.shared_owner(BASE + 4 * MB), None, "rest stays private");

        // Owner read: plain host demand faulting.
        let own = m.on_kernel_access(DeviceId(0), BASE, 4 * MB, 4 * MB, AccessKind::Load);
        assert!(own.faults > 0);
        assert_eq!(own.peer_in_bytes, 0);
        assert_eq!(own.migrated_in_bytes, 4 * MB);

        // Remote read: a peer read-duplication, not a host migration.
        let remote = m.on_kernel_access(DeviceId(1), BASE, 4 * MB, 4 * MB, AccessKind::Load);
        assert_eq!(remote.faults, 0, "no host fault groups");
        assert_eq!(remote.migrated_in_bytes, 0);
        assert_eq!(remote.peer_in_bytes, 4 * MB);
        assert!(
            remote.extra_device_ns > 0,
            "peer transfer stalls the kernel"
        );

        // Both copies are resident; the directory lists both holders.
        assert!(m.page_resident(DeviceId(0), BASE));
        assert!(m.page_resident(DeviceId(1), BASE));
        let dir = m.directory().range_containing(BASE).unwrap();
        assert_eq!(
            dir.holders(BASE / PAGE_SIZE),
            vec![DeviceId(0), DeviceId(1)]
        );

        let s = m.stats();
        assert_eq!(s.demand_pages_in, (4 * MB) / PAGE_SIZE);
        assert_eq!(s.peer_pages_in, (4 * MB) / PAGE_SIZE);
        assert!(s.peer_stall_ns > 0);
        assert_eq!(
            m.peer_matrix(),
            vec![((DeviceId(0), DeviceId(1)), 4 * MB)],
            "per-pair traffic matrix records src→dst bytes"
        );
    }

    #[test]
    fn peer_link_bandwidth_prices_duplication() {
        // NVLink-class peer link: duplication must stall far less than a
        // host demand fault of the same bytes.
        let mut m = UvmManager::new(UvmConfig);
        m.add_device_p2p(512 * MB, 24.0, 300.0, 25_000);
        m.add_device_p2p(512 * MB, 24.0, 300.0, 25_000);
        m.register(BASE, 8 * MB);
        m.register_shared(BASE, 8 * MB, DeviceId(0));
        let host = m.on_kernel_access(DeviceId(0), BASE, 8 * MB, 8 * MB, AccessKind::Load);
        let peer = m.on_kernel_access(DeviceId(1), BASE, 8 * MB, 8 * MB, AccessKind::Load);
        assert!(
            peer.extra_device_ns * 2 < host.extra_device_ns,
            "peer {} should be well under host {}",
            peer.extra_device_ns,
            host.extra_device_ns
        );
    }

    #[test]
    fn shared_write_invalidates_remote_duplicates_eagerly_on_unforked_manager() {
        let mut m = two_device_manager(512);
        m.register(BASE, 4 * MB);
        m.register_shared(BASE, 4 * MB, DeviceId(0));
        m.on_kernel_access(DeviceId(0), BASE, 4 * MB, 4 * MB, AccessKind::Load);
        m.on_kernel_access(DeviceId(1), BASE, 4 * MB, 4 * MB, AccessKind::Load);
        assert!(m.page_resident(DeviceId(1), BASE));

        // Owner writes: device 1's duplicates drop immediately — an
        // unforked manager owns every device state.
        m.on_kernel_access(DeviceId(0), BASE, 4 * MB, 4 * MB, AccessKind::Store);
        assert!(m.page_resident(DeviceId(0), BASE), "writer keeps its copy");
        assert!(
            !m.page_resident(DeviceId(1), BASE),
            "stale duplicate must not be counted as resident"
        );
        let dir = m.directory().range_containing(BASE).unwrap();
        assert_eq!(dir.holders(BASE / PAGE_SIZE), vec![DeviceId(0)]);
        assert_eq!(m.stats().duplicates_invalidated, (4 * MB) / PAGE_SIZE);

        // The next remote read re-duplicates.
        let before = m.stats().peer_pages_in;
        let again = m.on_kernel_access(DeviceId(1), BASE, 4 * MB, 4 * MB, AccessKind::Load);
        assert_eq!(again.peer_in_bytes, 4 * MB);
        assert_eq!(m.stats().peer_pages_in, before + (4 * MB) / PAGE_SIZE);
    }

    #[test]
    fn forked_lane_invalidation_is_lazy_but_never_served() {
        let mut parent = two_device_manager(512);
        parent.register(BASE, 2 * MB);
        parent.register_shared(BASE, 2 * MB, DeviceId(0));
        let mut lane0 = parent.fork(DeviceId(0));
        let mut lane1 = parent.fork(DeviceId(1));

        lane1.on_kernel_access(DeviceId(1), BASE, 2 * MB, 2 * MB, AccessKind::Load);
        assert!(lane1.page_resident(DeviceId(1), BASE));
        lane0.on_kernel_access(DeviceId(0), BASE, 2 * MB, 2 * MB, AccessKind::Store);

        // The directory no longer lists lane 1 — the write removed the
        // holder under the range lock, so the stale copy can never be
        // *served* as the authoritative duplicate...
        let dir = parent.directory().range_containing(BASE).unwrap();
        assert_eq!(dir.holders(BASE / PAGE_SIZE), vec![DeviceId(0)]);
        assert_eq!(
            lane0.stats().duplicates_invalidated,
            (2 * MB) / PAGE_SIZE,
            "the writer counted every victim page"
        );
        // ...and lane 1's next touch of the range drains the pending
        // invalidations: the pages drop, refault over the peer link, and
        // residency is consistent again.
        let before = lane1.stats().peer_pages_in;
        let refetch = lane1.on_kernel_access(DeviceId(1), BASE, 2 * MB, 2 * MB, AccessKind::Load);
        assert_eq!(refetch.peer_in_bytes, 2 * MB, "stale pages refault");
        assert_eq!(lane1.stats().peer_pages_in, before + (2 * MB) / PAGE_SIZE);
        assert!(lane1.page_resident(DeviceId(1), BASE));
    }

    #[test]
    fn shared_ranges_registered_after_fork_rendezvous_in_the_directory() {
        let mut parent = two_device_manager(512);
        parent.register(BASE, 2 * MB);
        let mut lane0 = parent.fork(DeviceId(0));
        let mut lane1 = parent.fork(DeviceId(1));
        // Both lanes register the same replicated tensor at run time —
        // the TP pattern. They must resolve to one range directory.
        lane0.register_shared(BASE, 2 * MB, DeviceId(0));
        lane1.register_shared(BASE, 2 * MB, DeviceId(0));
        lane1.on_kernel_access(DeviceId(1), BASE, MB, MB, AccessKind::Load);
        let dir = lane0.directory().range_containing(BASE).unwrap();
        assert_eq!(
            dir.holders(BASE / PAGE_SIZE),
            vec![DeviceId(1)],
            "lane 0 sees lane 1's duplicate through the shared directory"
        );
    }

    #[test]
    fn access_straddling_the_shared_range_end_splits() {
        let mut m = two_device_manager(512);
        m.register(BASE, 8 * MB);
        m.register_shared(BASE, 2 * MB, DeviceId(0));
        let out = m.on_kernel_access(DeviceId(1), BASE, 4 * MB, 4 * MB, AccessKind::Load);
        assert_eq!(out.peer_in_bytes, 2 * MB, "shared head duplicates");
        assert_eq!(out.migrated_in_bytes, 2 * MB, "private tail demand-faults");
        let s = m.stats();
        assert_eq!(s.peer_pages_in, (2 * MB) / PAGE_SIZE);
        assert_eq!(s.demand_pages_in, (2 * MB) / PAGE_SIZE);
    }

    #[test]
    fn access_starting_before_the_shared_range_still_takes_the_coherence_path() {
        // Review regression: an access whose *base* lies in private
        // territory but which overlaps a shared range must not resolve
        // the shared pages privately (that would bypass the directory
        // and leave un-invalidatable duplicates).
        let mut m = two_device_manager(512);
        m.register(BASE, 8 * MB);
        m.register_shared(BASE + 4 * MB, 2 * MB, DeviceId(0));
        // Device 1 reads [BASE, BASE+8MB): 4 MiB private head, 2 MiB
        // shared middle, 2 MiB private tail.
        let out = m.on_kernel_access(DeviceId(1), BASE, 8 * MB, 8 * MB, AccessKind::Load);
        assert_eq!(out.peer_in_bytes, 2 * MB, "shared middle duplicated");
        assert_eq!(out.migrated_in_bytes, 6 * MB, "private head+tail demand");
        let dir = m.directory().range_containing(BASE + 4 * MB).unwrap();
        assert_eq!(
            dir.holders((BASE + 4 * MB) / PAGE_SIZE),
            vec![DeviceId(1)],
            "the duplicate is directory-tracked"
        );
        // A write by the owner therefore invalidates it.
        m.on_kernel_access(
            DeviceId(0),
            BASE + 4 * MB,
            2 * MB,
            2 * MB,
            AccessKind::Store,
        );
        assert!(!m.page_resident(DeviceId(1), BASE + 4 * MB));
        assert_eq!(m.stats().duplicates_invalidated, (2 * MB) / PAGE_SIZE);
    }

    #[test]
    fn prefetch_straddling_the_shared_range_end_covers_the_private_tail() {
        // Review regression: a prefetch over [shared | private] must not
        // silently drop the private tail.
        let mut m = two_device_manager(512);
        m.register(BASE, 8 * MB);
        m.register_shared(BASE, 2 * MB, DeviceId(0));
        let stall = m.prefetch(DeviceId(1), BASE, 4 * MB);
        assert!(stall > 0);
        let s = m.stats();
        assert_eq!(
            s.peer_pages_in,
            (2 * MB) / PAGE_SIZE,
            "shared head duplicated"
        );
        assert_eq!(
            s.prefetch_pages_in,
            (2 * MB) / PAGE_SIZE,
            "private tail prefetched"
        );
        // The whole 4 MiB is now resident: a read is a pure hit.
        let out = m.on_kernel_access(DeviceId(1), BASE, 4 * MB, 4 * MB, AccessKind::Load);
        assert_eq!(out, AccessOutcome::HIT);
    }

    #[test]
    fn merge_imports_lane_shared_registrations() {
        // Review regression: a range a lane registered after the fork
        // must survive the merge, or the parent would resolve it through
        // the private path while the shared directory still tracks it.
        let mut parent = two_device_manager(512);
        parent.register(BASE, 4 * MB);
        let mut lane1 = parent.fork(DeviceId(1));
        lane1.register_shared(BASE, 4 * MB, DeviceId(0));
        lane1.on_kernel_access(DeviceId(1), BASE, MB, MB, AccessKind::Load);
        parent.merge(&lane1);
        assert_eq!(parent.shared_owner(BASE), Some(DeviceId(0)));
        // The parent routes the range through the coherence path now.
        let out = parent.on_kernel_access(DeviceId(1), BASE, MB, MB, AccessKind::Load);
        assert_eq!(out.peer_in_bytes, MB, "coherence semantics, not private");
    }

    #[test]
    fn register_shared_imports_pre_existing_residency() {
        // Review regression: pages resident from *before* the range was
        // marked shared must become tracked duplicates — otherwise a
        // later write cannot invalidate them and the old copy survives
        // as served-stale data.
        let mut m = two_device_manager(512);
        m.register(BASE, 2 * MB);
        m.on_kernel_access(DeviceId(1), BASE, 2 * MB, 2 * MB, AccessKind::Load);
        m.register_shared(BASE, 2 * MB, DeviceId(0));
        let dir = m.directory().range_containing(BASE).unwrap();
        assert_eq!(
            dir.holders(BASE / PAGE_SIZE),
            vec![DeviceId(1)],
            "pre-registration copy is directory-tracked"
        );
        m.on_kernel_access(DeviceId(0), BASE, 2 * MB, 2 * MB, AccessKind::Store);
        assert!(
            !m.page_resident(DeviceId(1), BASE),
            "the old private copy was invalidated by the shared write"
        );
        let hit = m.on_kernel_access(DeviceId(1), BASE, MB, MB, AccessKind::Load);
        assert_eq!(hit.peer_in_bytes, MB, "stale data refaults, never served");
    }

    #[test]
    fn merge_reconciles_pre_fork_copies_against_imported_shared_ranges() {
        // Review regression (round 3): the parent holds a private copy
        // from *before* a lane marked the range shared and wrote it. The
        // merge imports the registration; the parent's untracked copy
        // must not survive as a servable hit — it predates the write.
        let mut parent = two_device_manager(512);
        parent.register(BASE, 2 * MB);
        parent.on_kernel_access(DeviceId(1), BASE, 2 * MB, 2 * MB, AccessKind::Load);
        let mut lane0 = parent.fork(DeviceId(0));
        lane0.register_shared(BASE, 2 * MB, DeviceId(0));
        lane0.on_kernel_access(DeviceId(0), BASE, 2 * MB, 2 * MB, AccessKind::Store);
        parent.merge(&lane0);
        assert_eq!(parent.shared_owner(BASE), Some(DeviceId(0)));
        assert!(
            !parent.page_resident(DeviceId(1), BASE),
            "the untracked pre-fork copy was dropped at import"
        );
        let out = parent.on_kernel_access(DeviceId(1), BASE, 2 * MB, 2 * MB, AccessKind::Load);
        assert_eq!(
            out.peer_in_bytes,
            2 * MB,
            "stale data refaults, never served"
        );
    }

    #[test]
    fn fork_inherited_shared_entries_count_as_registrations() {
        // Review regression (round 3): a fork inherits the parent's
        // shared cache; tearing it down must not drop the range under
        // the parent, and over-releasing must not wrap the count.
        let mut parent = two_device_manager(512);
        parent.register(BASE, 2 * MB);
        parent.register_shared(BASE, 2 * MB, DeviceId(0));
        let mut lane1 = parent.fork(DeviceId(1));
        lane1.unregister_shared(BASE);
        lane1.unregister_shared(BASE); // over-release: harmless
        assert!(
            parent.directory().range_containing(BASE).is_some(),
            "the parent's registration keeps the range alive"
        );
        let out = parent.on_kernel_access(DeviceId(1), BASE, MB, MB, AccessKind::Load);
        assert_eq!(out.peer_in_bytes, MB, "parent still routes coherently");
    }

    #[test]
    fn unregister_shared_is_refcounted_across_registrants() {
        // Review regression: one lane finishing early must not tear the
        // range directory down under siblings still sharing it — a late
        // registrant would otherwise get a fresh directory and coherence
        // would split.
        let mut parent = two_device_manager(512);
        parent.register(BASE, 2 * MB);
        let mut lane0 = parent.fork(DeviceId(0));
        let mut lane1 = parent.fork(DeviceId(1));
        lane0.register_shared(BASE, 2 * MB, DeviceId(0));
        lane1.register_shared(BASE, 2 * MB, DeviceId(0));
        let dir_before = lane1.directory().range_containing(BASE).unwrap();
        // Lane 0 finishes and unregisters; lane 1 is still registered.
        lane0.unregister_shared(BASE);
        let dir_after = parent
            .directory()
            .range_containing(BASE)
            .expect("range survives while lane 1 is registered");
        assert!(
            Arc::ptr_eq(&dir_before, &dir_after),
            "same directory: no coherence split"
        );
        // A late registrant rendezvouses with the surviving directory.
        let mut late = parent.fork(DeviceId(0));
        late.register_shared(BASE, 2 * MB, DeviceId(0));
        lane1.on_kernel_access(DeviceId(1), BASE, MB, MB, AccessKind::Load);
        late.on_kernel_access(DeviceId(0), BASE, MB, MB, AccessKind::Store);
        assert_eq!(
            dir_after.holders(BASE / PAGE_SIZE),
            vec![DeviceId(0)],
            "the write went through the one shared directory"
        );
        // Last registrants release → the range is dropped.
        lane1.unregister_shared(BASE);
        late.unregister_shared(BASE);
        assert!(parent.directory().range_containing(BASE).is_none());
    }

    #[test]
    fn advise_keeps_the_directory_census_consistent() {
        let mut m = two_device_manager(512);
        m.register(BASE, 2 * MB);
        m.register_shared(BASE, 2 * MB, DeviceId(0));
        let dir = m.directory().range_containing(BASE).unwrap();

        // PinOnDevice faults pages in through the private core: the
        // holders must still be registered.
        m.advise(DeviceId(1), BASE, MB, ResidencyAdvice::PinOnDevice);
        assert!(m.page_resident(DeviceId(1), BASE));
        assert_eq!(dir.holders(BASE / PAGE_SIZE), vec![DeviceId(1)]);

        // PreferHost drops the pages: the holders must leave with them.
        m.advise(DeviceId(1), BASE, MB, ResidencyAdvice::PreferHost);
        assert!(!m.page_resident(DeviceId(1), BASE));
        assert_eq!(dir.holders(BASE / PAGE_SIZE), Vec::<DeviceId>::new());
        assert_eq!(dir.holder_entries(), 0, "census matches residency");
    }

    #[test]
    fn take_peer_transfers_drains_operations_in_order() {
        let mut m = two_device_manager(512);
        m.register(BASE, 2 * MB);
        m.register_shared(BASE, 2 * MB, DeviceId(0));
        m.on_kernel_access(DeviceId(1), BASE, 2 * MB, 2 * MB, AccessKind::Load);
        m.on_kernel_access(DeviceId(0), BASE, 2 * MB, 2 * MB, AccessKind::Store);
        let ops = m.take_peer_transfers();
        assert_eq!(ops.len(), 2, "one duplication, one invalidation");
        assert_eq!(ops[0].src, DeviceId(0));
        assert_eq!(ops[0].dst, DeviceId(1));
        assert_eq!(ops[0].duplicated_pages, (2 * MB) / PAGE_SIZE);
        assert_eq!(ops[0].bytes, 2 * MB);
        assert!(ops[0].stall_ns > 0);
        assert_eq!(ops[1].src, DeviceId(0));
        assert_eq!(ops[1].dst, DeviceId(1));
        assert_eq!(ops[1].invalidated_pages, (2 * MB) / PAGE_SIZE);
        assert!(m.take_peer_transfers().is_empty(), "drained once");
    }

    #[test]
    fn unregister_drops_shared_subranges_with_the_allocation() {
        let mut m = two_device_manager(512);
        m.register(BASE, 4 * MB);
        m.register_shared(BASE + MB, MB, DeviceId(0));
        assert!(m.shared_owner(BASE + MB).is_some());
        m.unregister(BASE);
        assert!(m.shared_owner(BASE + MB).is_none());
        assert!(m.directory().range_containing(BASE + MB).is_none());
    }

    #[test]
    fn shared_duplicates_evict_clean_and_deregister() {
        // 1 MiB budget on device 1, 2 MiB shared range: duplicating the
        // second half evicts the first — with no write-back (duplicates
        // are clean) and with the directory updated.
        let mut m = UvmManager::new(UvmConfig);
        m.add_device(512 * MB, 24.0, 25_000);
        m.add_device(MB, 24.0, 25_000);
        m.register(BASE, 2 * MB);
        m.register_shared(BASE, 2 * MB, DeviceId(0));
        m.on_kernel_access(DeviceId(1), BASE, MB, MB, AccessKind::Load);
        let evict_stall_before = m.stats().evict_stall_ns;
        let out = m.on_kernel_access(DeviceId(1), BASE + MB, MB, MB, AccessKind::Load);
        assert!(out.evicted_bytes > 0, "budget forces eviction");
        assert_eq!(
            m.stats().evict_stall_ns,
            evict_stall_before,
            "clean duplicates evict without write-back"
        );
        let dir = m.directory().range_containing(BASE).unwrap();
        assert_eq!(
            dir.holders(BASE / PAGE_SIZE),
            Vec::<DeviceId>::new(),
            "evicted duplicate left the holder set"
        );
    }

    #[test]
    fn shared_range_starting_mid_page_is_resolved_by_page_span() {
        // Allocations are 256-byte aligned, so a shared range may start
        // mid-page: the start address of its first page then lies below
        // the range base, and looking the page up by that address finds
        // no range. The evicted duplicate used to stay in the holder set
        // forever, an owner write then counted and logged an
        // invalidation of a copy that no longer existed, and a pinned
        // first page was never listed.
        let mut m = UvmManager::new(UvmConfig);
        m.add_device(512 * MB, 24.0, 25_000);
        m.add_device(MB, 24.0, 25_000);
        let shared = BASE + 4096;
        let first_page = page_of_addr(shared);
        m.register(shared, MB);
        m.register_shared(shared, MB, DeviceId(0));
        m.register(BASE + 16 * MB, 4 * MB);
        let dir = m.directory().range_containing(shared).unwrap();

        m.on_kernel_access(DeviceId(1), shared, 4096, 4096, AccessKind::Load);
        assert_eq!(dir.holders(first_page), vec![DeviceId(1)]);
        // Private traffic through device 1's 1 MiB budget evicts it.
        m.on_kernel_access(DeviceId(1), BASE + 16 * MB, MB, MB, AccessKind::Load);
        assert!(!m.page_resident(DeviceId(1), shared));
        assert_eq!(
            dir.holders(first_page),
            Vec::<DeviceId>::new(),
            "the evicted duplicate left the holder set"
        );

        m.take_peer_transfers();
        m.on_kernel_access(DeviceId(0), shared, 4096, 4096, AccessKind::Store);
        assert_eq!(m.stats().duplicates_invalidated, 0, "nothing to invalidate");
        assert!(
            m.take_peer_transfers()
                .iter()
                .all(|t| t.invalidated_pages == 0),
            "no invalidation of a copy that is gone"
        );

        m.advise(DeviceId(1), shared, 4096, ResidencyAdvice::PinOnDevice);
        assert_eq!(
            dir.holders(first_page),
            vec![DeviceId(0), DeviceId(1)],
            "the pinned first page is listed"
        );
        m.advise(DeviceId(1), shared, 4096, ResidencyAdvice::PreferHost);
        assert_eq!(dir.holders(first_page), vec![DeviceId(0)]);
    }

    #[test]
    fn merge_folds_lane_stats_deterministically() {
        let mut parent = two_device_manager(512);
        parent.register(BASE, 8 * MB);
        let mut lane0 = parent.fork(DeviceId(0));
        let mut lane1 = parent.fork(DeviceId(1));
        lane0.on_kernel_access(DeviceId(0), BASE, 2 * MB, 2 * MB, AccessKind::Load);
        lane1.on_kernel_access(DeviceId(1), BASE, 4 * MB, 4 * MB, AccessKind::Load);

        // The sequential single-manager reference: same accesses,
        // device-at-a-time, through one manager.
        let mut reference = two_device_manager(512);
        reference.register(BASE, 8 * MB);
        reference.on_kernel_access(DeviceId(0), BASE, 2 * MB, 2 * MB, AccessKind::Load);
        reference.on_kernel_access(DeviceId(1), BASE, 4 * MB, 4 * MB, AccessKind::Load);

        parent.merge(&lane0);
        parent.merge(&lane1);
        assert_eq!(parent.stats(), reference.stats());
        // Lane residency is private and never imported.
        assert_eq!(parent.resident_bytes(DeviceId(0)), 0);
        assert_eq!(parent.resident_bytes(DeviceId(1)), 0);
    }

    use std::panic::AssertUnwindSafe;

    /// One lane's stream over the stress layout: (address, bytes, kind).
    type Stream = Vec<(u64, u64, AccessKind)>;

    /// Weights: 32 shared pages at `BASE`, owned by device 0; a private
    /// 32-page range above them; budgets of 24 pages. Lane 1 reads a
    /// weights slice and then private pages that push weights pages out
    /// (each drop clears its holder bits with no lock); lane 0 reads and
    /// writes weights slices.
    fn stress_layout() -> (UvmManager, [Stream; 2]) {
        let mut m = UvmManager::new(UvmConfig);
        for _ in 0..2 {
            m.add_device(24 * PAGE_SIZE, 24.0, 25_000);
        }
        let private = BASE + 32 * PAGE_SIZE;
        m.register(BASE, 32 * PAGE_SIZE);
        m.register(private, 32 * PAGE_SIZE);
        m.register_shared(BASE, 32 * PAGE_SIZE, DeviceId(0));
        let slice = |i: u64, pages: u64| (BASE + i % 24 * PAGE_SIZE, pages * PAGE_SIZE);
        let (mut writer, mut evicter) = (Stream::new(), Stream::new());
        for i in 0..48 {
            let (read, write) = (slice(i * 5, 8), slice(i * 7 + 3, 4));
            writer.push((read.0, read.1, AccessKind::Load));
            writer.push((write.0, write.1, AccessKind::Store));
            let weights = slice(i * 3, 12);
            evicter.push((weights.0, weights.1, AccessKind::Load));
            let at = private + i * 5 % 16 * PAGE_SIZE;
            evicter.push((at, 16 * PAGE_SIZE, AccessKind::Load));
        }
        (m, [writer, evicter])
    }

    fn drive(m: &mut UvmManager, device: DeviceId, stream: &[(u64, u64, AccessKind)]) {
        for &(addr, len, kind) in stream {
            m.on_kernel_access(device, addr, len, len, kind);
        }
    }

    /// One lane evicts weights pages, dropping its holder bits with no
    /// lock, while the other reads and writes the weights, both lanes
    /// released into each step together by a barrier. After they join
    /// (and one last write over pages lane 1 holds), each lane holds no
    /// duplicate it is not listed for unless that copy waits in its
    /// pending list, and lists none it lacks. Run lane at a time, in
    /// either order, the merged counts equal the unforked manager's over
    /// the same streams in the same order.
    #[test]
    fn lock_free_drops_under_concurrent_writes_serve_no_stale_duplicate() {
        let (parent, streams) = stress_layout();
        let lanes = [0, 1].map(|d| parent.fork(DeviceId(d)));
        let step = std::sync::Barrier::new(2);
        let mut lanes: Vec<UvmManager> = std::thread::scope(|s| {
            let threads: Vec<_> = lanes
                .into_iter()
                .zip(&streams)
                .enumerate()
                .map(|(d, (mut lane, stream))| {
                    let step = &step;
                    s.spawn(move || {
                        // A failed step still meets the barrier, so the
                        // other lane finishes and the failure surfaces.
                        let mut failed = None;
                        for pair in stream.chunks(2) {
                            step.wait();
                            let access = || drive(&mut lane, DeviceId(d as u32), pair);
                            if failed.is_none() {
                                failed = std::panic::catch_unwind(AssertUnwindSafe(access)).err();
                            }
                        }
                        if let Some(panic) = failed {
                            std::panic::resume_unwind(panic);
                        }
                        lane
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("lane"))
                .collect()
        });
        // Then, one at a time, a write over a slice lane 1 just read: its
        // copy is stale, and only its pending list may still name it.
        let slice = [(BASE, 8 * PAGE_SIZE, AccessKind::Load)];
        drive(&mut lanes[1], DeviceId(1), &slice);
        drive(
            &mut lanes[0],
            DeviceId(0),
            &[(BASE, 8 * PAGE_SIZE, AccessKind::Store)],
        );
        let dir = parent.directory().range_containing(BASE).expect("shared");
        for (d, lane) in lanes.iter().enumerate() {
            let device = DeviceId(d as u32);
            let stale = dir.pending_of(device);
            let held = dir.pages_held_by(device);
            for p in dir.pages().iter() {
                let resident = lane.page_resident(device, p * PAGE_SIZE);
                assert!(
                    !held.contains(&p) || resident,
                    "{device:?} listed for {p}, gone"
                );
                assert!(
                    !resident || held.contains(&p) || stale.contains(&p),
                    "{device:?} holds {p} unlisted and not pending: a stale duplicate"
                );
            }
        }

        for order in [[0, 1], [1, 0]] {
            let (parent, streams) = stress_layout();
            let mut lanes = [0, 1].map(|d| parent.fork(DeviceId(d)));
            let (mut reference, _) = stress_layout();
            for d in order {
                drive(&mut lanes[d], DeviceId(d as u32), &streams[d]);
                drive(&mut reference, DeviceId(d as u32), &streams[d]);
            }
            let mut merged = parent;
            for lane in &lanes {
                merged.merge(lane);
            }
            let invalidated = merged.stats().duplicates_invalidated;
            assert!(
                order[0] == 0 || invalidated > 0,
                "writes met lane 1's copies"
            );
            assert_eq!(
                merged.stats(),
                reference.stats(),
                "lanes in order {order:?}"
            );
            assert_eq!(merged.peer_matrix(), reference.peer_matrix());
        }
    }
}
