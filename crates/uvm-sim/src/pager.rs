//! The pager: what resolving one access to a managed range mutates.
//!
//! [`Pager`] holds the per-device residency, the statistics and the peer
//! log; the free functions beside it answer "which shared range, if any"
//! for an address or a page span. `manager.rs` owns the registrations
//! (allocations, the shared-range cache, the coherence directory) and
//! calls in here once it knows what an access touches. The migration cost
//! model's constants live here, beside the code that reads them.

use crate::coherence::RangeDirectory;
use crate::page::{page_range, PageRange, PAGE_SIZE};
use crate::state::{DeviceState, EvictResult, READ_MOSTLY};
use crate::stats::UvmStats;
use accel_sim::{AccessKind, AccessOutcome, DeviceId, PeerTransfer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One shared-range registration as a lane manager caches it: the static
/// facts (extent, page span, owner) read on every access without
/// touching the directory other lanes lock, plus the `Arc` of the range's
/// directory, touched only when shared pages actually move.
#[derive(Debug, Clone)]
pub(crate) struct SharedEntry {
    pub(crate) len: u64,
    pub(crate) pages: PageRange,
    pub(crate) owner: DeviceId,
    pub(crate) dir: Arc<RangeDirectory>,
}

impl SharedEntry {
    pub(crate) fn new(dir: Arc<RangeDirectory>) -> Self {
        let (len, pages, owner) = (dir.len(), dir.pages(), dir.owner());
        SharedEntry {
            len,
            pages,
            owner,
            dir,
        }
    }
}

/// The manager's lock-free cache of shared registrations, (base,
/// entry) ascending by base: a handful at most, so a sorted vector, whose
/// first and last entries every access reads with no search.
pub(crate) type SharedMap = Vec<(u64, SharedEntry)>;

/// How many cached ranges start below `addr`.
fn starting_before(shared: &SharedMap, addr: u64) -> usize {
    shared.partition_point(|&(base, _)| base < addr)
}

/// Caches `entry` for the range at `base`, in place of any entry there.
pub(crate) fn cache(shared: &mut SharedMap, base: u64, entry: SharedEntry) {
    match shared.binary_search_by_key(&base, |e| e.0) {
        Ok(i) => shared[i].1 = entry,
        Err(i) => shared.insert(i, (base, entry)),
    }
}

/// Hands `f` the maximal private (`None`) and shared (`Some(entry)`)
/// segments of `[base, base+len)` in address order — the one place the
/// straddling-access semantics live, shared by `on_kernel_access` and
/// `prefetch`. An access below the first shared range or past the last
/// (an empty map included) is private by the map's first and last
/// entries alone, with no search; any other takes one search, then
/// walks the ranges it meets.
pub(crate) fn for_each_segment(
    shared: &SharedMap,
    base: u64,
    len: u64,
    mut f: impl FnMut(Option<&SharedEntry>, u64, u64),
) {
    let end = base + len;
    let last = shared.last().map_or(0, |(b, e)| b + e.len);
    if last <= base || shared.first().is_some_and(|&(b, _)| end <= b) {
        return f(None, base, len);
    }
    // Ranges are disjoint and ascend: from the last one starting at or
    // below `base`, each range is passed, entered or waited for in turn.
    let mut ranges = shared[starting_before(shared, base + 1).saturating_sub(1)..].iter();
    let (mut next, mut cur) = (ranges.next(), base);
    while cur < end {
        let (seg_end, entry) = match next {
            Some((b, e)) if b + e.len <= cur => {
                next = ranges.next();
                continue;
            }
            Some((b, e)) if *b <= cur => ((b + e.len).min(end), Some(e)),
            // Private up to the next shared range (or the end).
            Some((b, _)) => ((*b).min(end), None),
            None => (end, None),
        };
        f(entry, cur, seg_end - cur);
        cur = seg_end;
    }
}

/// The shared ranges whose page span overlaps `pages`. A range's span is
/// every page its bytes touch: allocations are 256-byte aligned, so a
/// range may start mid-page, and the start address of its first page
/// then lies *below* its base — a page belongs to a range by span, never
/// by the page's start address.
pub(crate) fn ranges_spanning(
    shared: &SharedMap,
    pages: PageRange,
) -> impl Iterator<Item = &SharedEntry> {
    // Disjoint ranges ascend by base and by end alike, so walking back
    // from the last one that starts before the span's end can stop at
    // the first that ends before the span's start.
    let before = &shared[..starting_before(shared, pages.end * PAGE_SIZE)];
    let ranges = before.iter().rev().map(|(_, e)| e);
    ranges.take_while(move |e| e.pages.end > pages.first)
}

/// Deregisters evicted (or dropped) pages, given as runs, from the
/// directories of the shared ranges spanning them, so no directory lists
/// a holder whose copy is gone. A run below the first shared span or
/// above the last (a private fault's, mostly) returns before any search
/// of the map, and a drop clears this device's own holder bits with no
/// lock (see [`crate::coherence`]).
pub(crate) fn deregister_evicted(shared: &SharedMap, device: DeviceId, victims: &[PageRange]) {
    let (Some((_, first)), Some((_, last))) = (shared.first(), shared.last()) else {
        return;
    };
    let (low, high) = (first.pages.first, last.pages.end);
    for &run in victims.iter().filter(|r| low < r.end && r.first < high) {
        for e in ranges_spanning(shared, run) {
            e.dir.set_holder([run], device, false);
        }
    }
    debug_assert!(
        victims.iter().all(|&run| ranges_spanning(shared, run)
            .all(|e| run.iter().all(|p| !e.dir.is_holder(p, device)))),
        "a page {device:?} no longer holds is still in a holder set"
    );
}

/// Everything resolving an access mutates once its allocation and shared
/// entry are known — kept apart from the registration maps so the access
/// path can hold a borrowed [`SharedEntry`] (no `Arc` bump, no copy)
/// while it moves pages.
#[derive(Debug)]
pub(crate) struct Pager {
    pub(crate) devices: Vec<DeviceState>,
    /// Peer coherence operations since the last drain (read duplications
    /// and write invalidations, in order).
    pub(crate) peer_log: Vec<PeerTransfer>,
    /// (src, dst) → bytes read-duplicated over the peer link.
    pub(crate) peer_bytes: BTreeMap<(DeviceId, DeviceId), u64>,
    pub(crate) stats: UvmStats,
    /// The device a forked lane manager serves (`None` for the session's
    /// shared manager).
    pub(crate) home: Option<DeviceId>,
    /// Scratch for one access's missing pages and its eviction victims,
    /// both as runs; empty between calls, capacity kept.
    pub(crate) missing: Vec<PageRange>,
    pub(crate) victims: Vec<PageRange>,
    /// Debug builds: pages in and out that no counter saw (a pin's fault,
    /// a merged lane), beside each device's `dropped`.
    #[cfg(debug_assertions)]
    pub(crate) unseen: (u64, u64),
}

// The migration cost model, calibrated against public UVM measurements
// (Allen & Ge, SC'21): demand paging achieves roughly half of link
// bandwidth because fault handling serializes with transfer, while
// explicit prefetch saturates the link and largely overlaps with compute.

/// Pages migrated per fault group (the driver batches neighbouring
/// faults; 16 × 64 KiB = 1 MiB per group).
const FAULT_GROUP_PAGES: u64 = 16;
/// Fraction of link bandwidth achieved by demand-fault migration.
const DEMAND_BW_EFFICIENCY: f64 = 0.45;
/// Fraction of link bandwidth achieved by prefetch DMA.
const PREFETCH_BW_EFFICIENCY: f64 = 0.95;
/// Base fraction of prefetch transfer time hidden behind compute (small
/// transfers barely overlap: the call is issued right before the launch
/// that needs the data).
const PREFETCH_OVERLAP_BASE: f64 = 0.25;
/// Extra overlap per doubling of the transfer size above 1 MiB — bulk DMA
/// pipelines against compute much better than many small requests, which
/// is why object-level prefetching edges out tensor-level when memory is
/// plentiful (paper Fig. 11).
const PREFETCH_OVERLAP_PER_LOG2_MB: f64 = 0.08;
/// Ceiling on the effective overlap.
const PREFETCH_OVERLAP_MAX: f64 = 0.85;
/// Fixed host/driver latency per prefetch call that moves pages, ns.
const PREFETCH_CALL_LATENCY_NS: u64 = 8_000;

// A fault group holds a page, an efficiency is a fraction of the link,
// the overlap bounds are ordered fractions.
const _: () = {
    assert!(FAULT_GROUP_PAGES > 0);
    assert!(DEMAND_BW_EFFICIENCY > 0.0 && DEMAND_BW_EFFICIENCY <= 1.0);
    assert!(PREFETCH_BW_EFFICIENCY > 0.0 && PREFETCH_BW_EFFICIENCY <= 1.0);
    assert!(0.0 <= PREFETCH_OVERLAP_BASE && PREFETCH_OVERLAP_BASE <= PREFETCH_OVERLAP_MAX);
    assert!(PREFETCH_OVERLAP_MAX <= 1.0);
};

/// Effective compute overlap for a prefetch of `bytes`.
///
/// Under memory pressure callers should ignore this and charge the full
/// transfer: a saturated link hides nothing.
fn prefetch_overlap_for(bytes: u64) -> f64 {
    let mb = (bytes as f64 / (1 << 20) as f64).max(1.0);
    (PREFETCH_OVERLAP_BASE + PREFETCH_OVERLAP_PER_LOG2_MB * mb.log2())
        .clamp(PREFETCH_OVERLAP_BASE, PREFETCH_OVERLAP_MAX)
}

impl Pager {
    pub(crate) fn new(devices: Vec<DeviceState>, home: Option<DeviceId>) -> Self {
        Pager {
            devices,
            peer_log: Vec::new(),
            peer_bytes: BTreeMap::new(),
            stats: UvmStats::default(),
            home,
            // A lane is forked per run: room for the most runs one
            // access of the serving op misses (7) spares it the growth.
            missing: Vec::with_capacity(8),
            victims: Vec::new(),
            #[cfg(debug_assertions)]
            unseen: (0, 0),
        }
    }

    /// Debug builds: every page in is resident, evicted or dropped.
    pub(crate) fn check_conservation(&self) {
        #[cfg(debug_assertions)]
        {
            let (s, (came, went)) = (&self.stats, self.unseen);
            let held = |d: &DeviceState| d.resident_bytes() / PAGE_SIZE + d.dropped;
            debug_assert_eq!(
                s.demand_pages_in + s.prefetch_pages_in + s.peer_pages_in + came,
                self.devices.iter().map(held).sum::<u64>() + s.pages_evicted + went,
                "pages in = resident + evicted + dropped"
            );
        }
    }

    fn migration_ns(&self, st: &DeviceState, bytes: u64, efficiency: f64) -> u64 {
        (bytes as f64 / (st.link_bandwidth_gbps * efficiency)) as u64
    }

    fn peer_migration_ns(&self, st: &DeviceState, bytes: u64, efficiency: f64) -> u64 {
        (bytes as f64 / (st.p2p_bandwidth_gbps * efficiency)) as u64
    }

    /// Migrates the missing pages of `[base, len)` onto `device`.
    ///
    /// Returns `(pages_migrated, evict_result, groups)`.
    pub(crate) fn fault_in(
        &mut self,
        shared: &SharedMap,
        device: DeviceId,
        base: u64,
        len: u64,
    ) -> (u64, EvictResult, u64) {
        let range = page_range(base, len);
        let Pager {
            devices,
            missing,
            victims,
            ..
        } = self;
        let st = &mut devices[device.index()];
        // Refresh the already-resident pages first (in page order), then
        // fault the rest in (`DeviceState::page_in` says how).
        st.touch_range(range, missing);
        // Private evictions can evict *shared* duplicates (one budget per
        // device); track victim identities for directory hygiene — but
        // only when sharing is in use, so the private-only hot path stays
        // lock-free.
        let track_victims = (!shared.is_empty()).then_some(&mut *victims);
        let evict = st.page_in(missing, 0, track_victims);
        let pages = missing.iter().map(|r| r.count()).sum::<u64>();
        let groups = pages.div_ceil(FAULT_GROUP_PAGES);
        missing.clear();
        deregister_evicted(shared, device, victims);
        victims.clear();
        (pages, evict, groups)
    }

    /// The private-range demand path (everything `on_kernel_access` did
    /// before shared ranges existed), factored out so a straddling access
    /// can resolve its private tail here.
    pub(crate) fn private_access(
        &mut self,
        shared: &SharedMap,
        device: DeviceId,
        base: u64,
        len: u64,
    ) -> AccessOutcome {
        let (pages, evict, groups) = self.fault_in(shared, device, base, len);
        if pages == 0 {
            return AccessOutcome::HIT;
        }
        let st = &self.devices[device.index()];
        let migrated = pages * PAGE_SIZE;
        let mut stall =
            groups * st.fault_latency_ns + self.migration_ns(st, migrated, DEMAND_BW_EFFICIENCY);
        let evict_ns = self.migration_ns(st, evict.writeback_bytes, 1.0);
        stall += evict_ns;

        self.stats.fault_groups += groups;
        self.stats.demand_pages_in += pages;
        self.stats.pages_evicted += evict.pages;
        self.stats.fault_stall_ns += stall - evict_ns;
        self.stats.evict_stall_ns += evict_ns;

        AccessOutcome {
            extra_device_ns: stall,
            faults: groups,
            migrated_in_bytes: migrated,
            evicted_bytes: evict.pages * PAGE_SIZE,
            peer_in_bytes: 0,
        }
    }

    /// The private-range prefetch core (the pre-shared-range `prefetch`
    /// body), factored out so a prefetch straddling shared territory can
    /// resolve its private segments here.
    pub(crate) fn private_prefetch(
        &mut self,
        shared: &SharedMap,
        device: DeviceId,
        base: u64,
        len: u64,
    ) -> u64 {
        let (pages, evict, _groups) = self.fault_in(shared, device, base, len);
        if pages == 0 {
            self.stats.prefetch_noops += 1;
            return 0;
        }
        let st = &self.devices[device.index()];
        let migrated = pages * PAGE_SIZE;
        let xfer = self.migration_ns(st, migrated, PREFETCH_BW_EFFICIENCY);
        // With free memory, prefetch DMA pipelines against compute (bulk
        // transfers overlap better). Under memory pressure — any eviction
        // in this call — the link is saturated and nothing is hidden; the
        // write-back serializes on top. This asymmetry is what turns
        // over-fetching object-level plans pathological at 3x
        // oversubscription (paper Fig. 12) while both plans win without
        // oversubscription (Fig. 11).
        let stall = if evict.pages > 0 {
            xfer + self.migration_ns(st, evict.writeback_bytes, 1.0)
        } else {
            let overlap = prefetch_overlap_for(migrated);
            ((xfer as f64) * (1.0 - overlap)) as u64
        } + PREFETCH_CALL_LATENCY_NS;

        self.stats.prefetch_pages_in += pages;
        self.stats.pages_evicted += evict.pages;
        self.stats.prefetch_stall_ns += stall;
        stall
    }

    /// The shared-range coherence path: home-backed read duplication plus
    /// write invalidation. `entry` comes from the caller's cache lookup;
    /// `[base, len)` lies entirely inside its range.
    pub(crate) fn shared_access(
        &mut self,
        shared: &SharedMap,
        device: DeviceId,
        entry: &SharedEntry,
        base: u64,
        len: u64,
        kind: AccessKind,
    ) -> AccessOutcome {
        let dir = &*entry.dir;
        let owner = entry.owner;
        let range = page_range(base, len);
        let is_owner = device == owner;
        let Pager {
            devices,
            missing,
            victims,
            ..
        } = &mut *self;
        let st = &mut devices[device.index()];
        // 1. Residency is lane-local, so the scan that refreshes the
        //    resident pages and finds the rest needs no lock. One
        //    critical section then drains this lane's pending
        //    invalidations and claims holder entries for the pages about
        //    to be fetched — registering the claim *before* the data
        //    moves, so a write racing in from another lane either
        //    happened before the claim (its invalidation is in `stale`)
        //    or sees the claim and queues a pending entry this lane
        //    drains on its next visit. A page drained as stale counts as
        //    missing even while locally present: it must refetch.
        st.touch_range(range, missing);
        for p in dir.claim_read(device, range, missing) {
            st.remove(p);
        }

        // 2. Fault the missing pages in: from the host on the owner, as
        //    clean peer duplicates everywhere else (evicting one needs no
        //    write-back; a write below dirties it). Classification is
        //    static (owner vs. not), so under read-only sharing a lane's
        //    counters depend only on its own stream — the determinism
        //    contract (writes make invalidation effects cross-lane).
        let clean = if is_owner { 0 } else { READ_MOSTLY };
        let evict = st.page_in(missing, clean, Some(&mut *victims));
        // Holder claims were registered up front; an access larger than
        // the budget evicts its own earliest pages mid-loop, and those
        // must end up out of the holder set again.
        let pages = missing.iter().map(|r| r.count()).sum::<u64>();
        missing.clear();
        deregister_evicted(shared, device, victims);
        victims.clear();

        let groups = pages.div_ceil(FAULT_GROUP_PAGES);
        let moved = pages * PAGE_SIZE;
        let st = &self.devices[device.index()];
        let evict_ns = self.migration_ns(st, evict.writeback_bytes, 1.0);
        let mut out = AccessOutcome {
            extra_device_ns: evict_ns,
            faults: 0,
            migrated_in_bytes: 0,
            evicted_bytes: evict.pages * PAGE_SIZE,
            peer_in_bytes: 0,
        };
        self.stats.pages_evicted += evict.pages;
        self.stats.evict_stall_ns += evict_ns;
        if pages > 0 {
            if is_owner {
                let stall = groups * st.fault_latency_ns
                    + self.migration_ns(st, moved, DEMAND_BW_EFFICIENCY);
                self.stats.fault_groups += groups;
                self.stats.demand_pages_in += pages;
                self.stats.fault_stall_ns += stall;
                out.extra_device_ns += stall;
                out.faults = groups;
                out.migrated_in_bytes = moved;
            } else {
                let stall = groups * st.fault_latency_ns
                    + self.peer_migration_ns(st, moved, DEMAND_BW_EFFICIENCY);
                self.stats.peer_pages_in += pages;
                self.stats.peer_stall_ns += stall;
                out.extra_device_ns += stall;
                out.peer_in_bytes = moved;
                *self.peer_bytes.entry((owner, device)).or_insert(0) += moved;
                self.peer_log.push(PeerTransfer {
                    src: owner,
                    dst: device,
                    duplicated_pages: pages,
                    invalidated_pages: 0,
                    bytes: moved,
                    stall_ns: stall,
                });
            }
        }

        // 3. Writes claim exclusivity: every other holder of each written
        //    page is invalidated through the directory. The invalidation
        //    itself is metadata (its latency shows up as the victims'
        //    later re-duplication faults).
        if kind != AccessKind::Load {
            let mut victim_pages: BTreeMap<DeviceId, u64> = BTreeMap::new();
            let invalidated = dir.write_range(range, device);
            // One victim's consecutive pages come as one run of pairs.
            for w in invalidated.chunk_by(|a, b| a.0 == b.0 && a.1 + 1 == b.1) {
                let (v, first) = w[0];
                *victim_pages.entry(v).or_insert(0) += w.len() as u64;
                if self.home.is_none() {
                    // Unforked: every state is local, stale copies drop now.
                    let end = first + w.len() as u64;
                    self.devices[v.index()].remove_range(PageRange { first, end }, None);
                }
            }
            // `write_range` claims every written page for the writer;
            // where the writer's own copy was evicted mid-access (range
            // larger than the budget), the claim must not outlive it.
            // Everything still resident is now dirty.
            let unclaim = &mut self.missing;
            self.devices[device.index()].set_advice(range, READ_MOSTLY, 0, Some(unclaim));
            dir.set_holder(unclaim.iter().copied(), device, false);
            unclaim.clear();
            if self.home.is_none() {
                for &v in victim_pages.keys() {
                    // Consume the pending entries the directory queued —
                    // the pages are already gone.
                    let _ = dir.drain_pending(v);
                }
            }
            for (&v, &count) in &victim_pages {
                self.stats.duplicates_invalidated += count;
                self.peer_log.push(PeerTransfer {
                    src: device,
                    dst: v,
                    duplicated_pages: 0,
                    invalidated_pages: count,
                    bytes: 0,
                    stall_ns: 0,
                });
            }
        }
        debug_assert!(
            {
                let st = &self.devices[device.index()];
                range
                    .iter()
                    .all(|p| st.is_resident(p) || !dir.is_holder(p, device))
            },
            "a page {device:?} does not hold is in its holder set"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_beats_demand() {
        const { assert!(PREFETCH_BW_EFFICIENCY > DEMAND_BW_EFFICIENCY) };
        const { assert!(PREFETCH_OVERLAP_BASE > 0.0) };
    }

    #[test]
    fn bulk_transfers_overlap_better() {
        let small = prefetch_overlap_for(1 << 20);
        let big = prefetch_overlap_for(64 << 20);
        assert!(big > small, "bulk DMA pipelines better: {big} vs {small}");
        assert!(prefetch_overlap_for(1 << 40) <= PREFETCH_OVERLAP_MAX);
        assert!((small - PREFETCH_OVERLAP_BASE).abs() < 1e-9);
    }
}
