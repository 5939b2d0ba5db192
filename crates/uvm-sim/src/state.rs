//! Per-device residency state with LRU eviction.

use crate::page::PAGE_SIZE;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for page indices — the FxHash fold
/// `accel_sim::symbol` places names with. Page indices come from the
/// simulator's own allocator, never from outside the program, so the
/// default hasher's collision resistance buys nothing here.
#[derive(Debug, Default, Clone, Copy)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

/// "No slot": the list's end marker and the empty list's head/tail.
const NIL: u32 = u32::MAX;

/// One resident page, threaded on the LRU list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    page: u64,
    /// Neighbour towards the head (older); `NIL` at the head.
    prev: u32,
    /// Neighbour towards the tail (younger); `NIL` at the tail. A free
    /// slot keeps the next free slot here.
    next: u32,
    /// Pinned pages are never evicted (`cudaMemAdvise` preferred-location).
    pinned: bool,
    /// Read-mostly pages evict without write-back.
    read_mostly: bool,
}

/// Fraction of evicted bytes that are dirty and must be written back
/// (pages marked read-mostly are always clean).
const WRITEBACK_FRACTION: f64 = 0.5;
const _: () = assert!(0.0 <= WRITEBACK_FRACTION && WRITEBACK_FRACTION <= 1.0);

/// Result of an eviction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictResult {
    /// Pages evicted.
    pub pages: u64,
    /// Bytes that required write-back (dirty, not read-mostly).
    pub writeback_bytes: u64,
}

/// Residency and LRU bookkeeping for one device.
///
/// Resident pages live in a slab of slots threaded on an intrusive
/// doubly-linked list, least recently used at the head; `index` finds a
/// page's slot. A touch is an unlink and a push at the tail, an eviction
/// walks from the head past pinned slots — both O(1) per page. List
/// order *is* recency order: every `insert`/`touch` stamps "now", and
/// now only moves forward, so no stamp needs storing or comparing.
///
/// Invariant: `index` holds exactly the pages of the slots reachable
/// from `head`, each once (pinned ones included; the pinned flag is
/// honoured at eviction time).
#[derive(Debug)]
pub struct DeviceState {
    /// Memory budget for managed pages, bytes.
    pub budget: u64,
    /// Host-link bandwidth, GB/s.
    pub link_bandwidth_gbps: f64,
    /// Peer-link (device↔device) bandwidth, GB/s — prices shared-range
    /// read duplications. Defaults to the host link.
    pub p2p_bandwidth_gbps: f64,
    /// Latency of one fault group, ns.
    pub fault_latency_ns: u64,
    slots: Vec<Slot>,
    index: HashMap<u64, u32, BuildHasherDefault<PageHasher>>,
    /// Least recently used slot.
    head: u32,
    /// Most recently used slot.
    tail: u32,
    /// First free slot of the slab, chained through `Slot::next`.
    free: u32,
    /// Mutations since the last full list walk (see `check_invariants`).
    #[cfg(debug_assertions)]
    unwalked: usize,
}

impl Default for DeviceState {
    /// No budget, no bandwidth, nothing resident.
    fn default() -> Self {
        DeviceState::new(0, 0.0, 0)
    }
}

impl DeviceState {
    /// Creates a state with the given budget and link characteristics.
    pub fn new(budget: u64, link_bandwidth_gbps: f64, fault_latency_ns: u64) -> Self {
        DeviceState {
            budget,
            link_bandwidth_gbps,
            p2p_bandwidth_gbps: link_bandwidth_gbps,
            fault_latency_ns,
            slots: Vec::new(),
            index: HashMap::default(),
            head: NIL,
            tail: NIL,
            free: NIL,
            #[cfg(debug_assertions)]
            unwalked: 0,
        }
    }

    /// Bytes of managed pages currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.index.len() as u64 * PAGE_SIZE
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.index.len()
    }

    /// True when `page` is resident on this device.
    pub fn is_resident(&self, page: u64) -> bool {
        self.index.contains_key(&page)
    }

    /// True when `page` is pinned.
    pub fn is_pinned(&self, page: u64) -> bool {
        self.index
            .get(&page)
            .is_some_and(|&i| self.slots[i as usize].pinned)
    }

    /// Takes slot `i` out of the list (its own links are left stale).
    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Appends slot `i` at the tail — the most recently used end.
    fn push_back(&mut self, i: u32) {
        let tail = self.tail;
        let slot = &mut self.slots[i as usize];
        slot.prev = tail;
        slot.next = NIL;
        match tail {
            NIL => self.head = i,
            t => self.slots[t as usize].next = i,
        }
        self.tail = i;
    }

    /// Unlinks slot `i` and returns it to the slab's free chain.
    fn release(&mut self, i: u32) {
        self.unlink(i);
        self.slots[i as usize].next = self.free;
        self.free = i;
    }

    /// Marks `page` resident and most recently used, with no advice set
    /// (re-inserting a resident page clears its flags).
    pub fn insert(&mut self, page: u64) {
        let fresh = Slot {
            page,
            prev: NIL,
            next: NIL,
            pinned: false,
            read_mostly: false,
        };
        let i = match self.index.get(&page) {
            Some(&i) => {
                self.unlink(i);
                self.slots[i as usize] = fresh;
                i
            }
            None => {
                let i = match self.free {
                    NIL => {
                        let i = u32::try_from(self.slots.len())
                            .ok()
                            .filter(|&i| i != NIL)
                            .expect("fewer than u32::MAX resident pages per device");
                        self.slots.push(fresh);
                        i
                    }
                    i => {
                        self.free = self.slots[i as usize].next;
                        self.slots[i as usize] = fresh;
                        i
                    }
                };
                self.index.insert(page, i);
                i
            }
        };
        self.push_back(i);
        self.check_invariants();
    }

    /// Makes a resident page the most recently used one. Returns whether
    /// the page was resident; no-op otherwise.
    pub fn touch(&mut self, page: u64) -> bool {
        let Some(&i) = self.index.get(&page) else {
            return false;
        };
        if i != self.tail {
            self.unlink(i);
            self.push_back(i);
        }
        true
    }

    /// Pins or unpins a resident page.
    pub fn set_pinned(&mut self, page: u64, pinned: bool) {
        if let Some(&i) = self.index.get(&page) {
            self.slots[i as usize].pinned = pinned;
        }
    }

    /// Marks a resident page read-mostly (no write-back on eviction).
    /// Returns whether the page was resident.
    pub fn set_read_mostly(&mut self, page: u64, read_mostly: bool) -> bool {
        let Some(&i) = self.index.get(&page) else {
            return false;
        };
        self.slots[i as usize].read_mostly = read_mostly;
        true
    }

    /// Drops a page outright (allocation freed), without write-back.
    /// Returns whether the page was resident.
    pub fn remove(&mut self, page: u64) -> bool {
        let Some(i) = self.index.remove(&page) else {
            return false;
        };
        self.release(i);
        self.check_invariants();
        true
    }

    /// Evicts least-recently-used unpinned pages until `need_bytes` fit in
    /// the budget. Returns how many pages went and how many bytes need
    /// write-back (`WRITEBACK_FRACTION` of each page not marked
    /// read-mostly).
    pub fn make_room(&mut self, need_bytes: u64) -> EvictResult {
        self.make_room_logged(need_bytes, None)
    }

    /// Like [`DeviceState::make_room`], additionally appending each
    /// evicted page index to `victims` when given. The shared-range
    /// coherence path needs the identities to deregister evicted
    /// duplicates from the directory; the private path passes `None` and
    /// pays nothing.
    pub fn make_room_logged(
        &mut self,
        need_bytes: u64,
        mut victims: Option<&mut Vec<u64>>,
    ) -> EvictResult {
        let mut result = EvictResult::default();
        // When the kernel's own working set exceeds the budget
        // (`need_bytes > self.budget`) this evicts everything evictable
        // and intra-kernel thrashing follows.
        let mut cursor = self.head;
        while self.resident_bytes() + need_bytes > self.budget {
            // Oldest unpinned page: pinned slots stay where they are, so
            // the walk resumes behind them rather than at the head.
            while cursor != NIL && self.slots[cursor as usize].pinned {
                cursor = self.slots[cursor as usize].next;
            }
            if cursor == NIL {
                break; // everything left is pinned
            }
            let victim = self.slots[cursor as usize];
            self.index.remove(&victim.page);
            self.release(cursor);
            cursor = victim.next;
            result.pages += 1;
            if !victim.read_mostly {
                result.writeback_bytes += (PAGE_SIZE as f64 * WRITEBACK_FRACTION) as u64;
            }
            if let Some(log) = victims.as_deref_mut() {
                log.push(victim.page);
            }
        }
        debug_assert!(
            self.resident_bytes() <= self.budget || self.iter().all(|s| s.pinned),
            "an unpinned page survived an eviction pass that left the budget exceeded"
        );
        self.check_invariants();
        result
    }

    /// The resident slots, least recently used first.
    fn iter(&self) -> impl Iterator<Item = &Slot> {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let slot = self.slots.get(at as usize)?;
            at = slot.next;
            Some(slot)
        })
    }

    /// Debug builds check the structure as it mutates — amortized: once
    /// per as many membership changes as there are resident pages, a full
    /// walk must find every indexed page exactly once, links consistent
    /// in both directions, and the slab split exactly into listed and
    /// free slots.
    #[cfg(debug_assertions)]
    fn check_invariants(&mut self) {
        self.unwalked += 1;
        if self.unwalked <= self.index.len() {
            return;
        }
        self.unwalked = 0;
        let mut listed = 0usize;
        let mut prev = NIL;
        let mut at = self.head;
        while at != NIL {
            let slot = self.slots[at as usize];
            assert_eq!(slot.prev, prev, "back link of slot {at}");
            assert_eq!(
                self.index.get(&slot.page),
                Some(&at),
                "page {} listed in slot {at} but indexed elsewhere",
                slot.page
            );
            listed += 1;
            assert!(listed <= self.index.len(), "LRU list longer than the index");
            prev = at;
            at = slot.next;
        }
        assert_eq!(self.tail, prev, "tail is the last slot reached");
        assert_eq!(listed, self.index.len(), "list length == map length");
        let mut free = 0usize;
        let mut at = self.free;
        while at != NIL {
            free += 1;
            assert!(free <= self.slots.len(), "free chain cycles");
            at = self.slots[at as usize].next;
        }
        assert_eq!(listed + free, self.slots.len(), "slab = listed + free");
    }

    #[cfg(not(debug_assertions))]
    fn check_invariants(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn state(pages: u64) -> DeviceState {
        DeviceState::new(pages * PAGE_SIZE, 24.0, 25_000)
    }

    #[test]
    fn insert_touch_remove_round_trip() {
        let mut s = state(4);
        s.insert(10);
        assert!(s.is_resident(10));
        assert_eq!(s.resident_bytes(), PAGE_SIZE);
        s.touch(10);
        s.remove(10);
        assert!(!s.is_resident(10));
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let mut s = state(2);
        s.insert(1);
        s.insert(2);
        // Touch page 1 so page 2 becomes the LRU victim.
        s.touch(1);
        let r = s.make_room(PAGE_SIZE);
        assert_eq!(r.pages, 1);
        assert!(s.is_resident(1), "recently-touched page survives");
        assert!(!s.is_resident(2), "LRU page evicted");
    }

    #[test]
    fn pinned_pages_survive_eviction() {
        let mut s = state(2);
        s.insert(1);
        s.insert(2);
        s.set_pinned(1, true);
        let r = s.make_room(PAGE_SIZE);
        assert_eq!(r.pages, 1);
        assert!(s.is_resident(1));
        assert!(!s.is_resident(2));
    }

    #[test]
    fn read_mostly_pages_skip_writeback() {
        let mut s = state(1);
        s.insert(1);
        s.set_read_mostly(1, true);
        let r = s.make_room(PAGE_SIZE);
        assert_eq!(r.pages, 1);
        assert_eq!(r.writeback_bytes, 0);
    }

    #[test]
    fn writeback_fraction_applies() {
        let mut s = state(1);
        s.insert(1);
        let r = s.make_room(PAGE_SIZE);
        assert_eq!(r.writeback_bytes, PAGE_SIZE / 2);
    }

    #[test]
    fn make_room_is_noop_when_space_exists() {
        let mut s = state(10);
        s.insert(1);
        let r = s.make_room(PAGE_SIZE);
        assert_eq!(r.pages, 0);
        assert!(s.is_resident(1));
    }

    #[test]
    fn all_pinned_stops_eviction() {
        let mut s = state(1);
        s.insert(1);
        s.set_pinned(1, true);
        let r = s.make_room(PAGE_SIZE);
        assert_eq!(r.pages, 0, "pinned page may not be evicted");
        assert!(s.is_resident(1));
    }

    #[test]
    fn make_room_logged_reports_victim_identities() {
        let mut s = state(2);
        s.insert(3);
        s.insert(9);
        let mut victims = Vec::new();
        let r = s.make_room_logged(2 * PAGE_SIZE, Some(&mut victims));
        assert_eq!(r.pages, 2);
        assert_eq!(victims, vec![3, 9], "LRU order, oldest first");
        // The unlogged variant is byte-identical in effect.
        let mut t = state(2);
        t.insert(3);
        t.insert(9);
        assert_eq!(t.make_room(2 * PAGE_SIZE), r);
    }

    #[test]
    fn reinsert_updates_stamp_without_duplicating() {
        let mut s = state(4);
        s.insert(7);
        s.insert(7);
        assert_eq!(s.resident_pages(), 1);
        // The old stamp must be gone from the LRU index.
        let r = s.make_room(4 * PAGE_SIZE);
        assert_eq!(r.pages, 1);
    }

    /// The `HashMap` + `BTreeMap` residency this module used to be — an
    /// explicit stamp per page, the LRU order a B-tree over the stamps —
    /// kept as the oracle the slab is checked against.
    #[derive(Default)]
    struct StampedState {
        budget: u64,
        /// page → (stamp, pinned, read_mostly)
        resident: HashMap<u64, (u64, bool, bool)>,
        /// stamp → page
        lru: BTreeMap<u64, u64>,
        clock: u64,
    }

    impl StampedState {
        fn stamp(&mut self) -> u64 {
            self.clock += 1;
            self.clock
        }

        fn insert(&mut self, page: u64) {
            let seq = self.stamp();
            if let Some((old, ..)) = self.resident.insert(page, (seq, false, false)) {
                self.lru.remove(&old);
            }
            self.lru.insert(seq, page);
        }

        fn touch(&mut self, page: u64) -> bool {
            let seq = self.stamp();
            let Some(info) = self.resident.get_mut(&page) else {
                return false;
            };
            self.lru.remove(&info.0);
            info.0 = seq;
            self.lru.insert(seq, page);
            true
        }

        fn remove(&mut self, page: u64) -> bool {
            let Some((seq, ..)) = self.resident.remove(&page) else {
                return false;
            };
            self.lru.remove(&seq);
            true
        }

        fn make_room_logged(
            &mut self,
            need_bytes: u64,
            writeback_fraction: f64,
            victims: &mut Vec<u64>,
        ) -> EvictResult {
            let mut result = EvictResult::default();
            while self.resident.len() as u64 * PAGE_SIZE + need_bytes > self.budget {
                let victim = self.lru.values().copied().find(|p| !self.resident[p].1);
                let Some(page) = victim else {
                    break;
                };
                let (seq, _, read_mostly) = self.resident.remove(&page).unwrap();
                self.lru.remove(&seq);
                result.pages += 1;
                if !read_mostly {
                    result.writeback_bytes += (PAGE_SIZE as f64 * writeback_fraction) as u64;
                }
                victims.push(page);
            }
            result
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any sequence of residency operations leaves the slab and the
        /// stamped reference with the same residents, the same flags and
        /// the same eviction order — budgets of one page (everything
        /// pinned, a need larger than the budget) and re-inserts of
        /// resident pages included.
        #[test]
        fn slab_lru_matches_the_stamped_reference(
            budget_pages in 1u64..17,
            ops in prop::collection::vec((0u8..7, 0u64..24, any::<bool>()), 1..160)
        ) {
            const PAGES: u64 = 24;
            let mut slab = state(budget_pages);
            let mut reference = StampedState {
                budget: budget_pages * PAGE_SIZE,
                ..StampedState::default()
            };
            let evict = |slab: &mut DeviceState, reference: &mut StampedState, need: u64| {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let a = slab.make_room_logged(need, Some(&mut got));
                let b = reference.make_room_logged(need, WRITEBACK_FRACTION, &mut want);
                (a, got, b, want)
            };
            for &(op, page, flag) in &ops {
                match op {
                    0 | 1 => {
                        slab.insert(page);
                        reference.insert(page);
                    }
                    2 => prop_assert_eq!(slab.touch(page), reference.touch(page)),
                    3 => prop_assert_eq!(slab.remove(page), reference.remove(page)),
                    4 => {
                        slab.set_pinned(page, flag);
                        if let Some(info) = reference.resident.get_mut(&page) {
                            info.1 = flag;
                        }
                    }
                    5 => {
                        let known = reference.resident.get_mut(&page).map(|info| info.2 = flag);
                        prop_assert_eq!(slab.set_read_mostly(page, flag), known.is_some());
                    }
                    _ => {
                        // Room for 0..3 pages, or for more than the budget.
                        let need = if flag { page % 4 } else { budget_pages + 1 } * PAGE_SIZE;
                        let (a, got, b, want) = evict(&mut slab, &mut reference, need);
                        prop_assert_eq!(got, want, "victim order");
                        prop_assert_eq!(a, b);
                    }
                }
                prop_assert_eq!(slab.resident_pages(), reference.resident.len());
                for p in 0..PAGES {
                    let info = reference.resident.get(&p);
                    prop_assert_eq!(slab.is_resident(p), info.is_some());
                    prop_assert_eq!(slab.is_pinned(p), info.is_some_and(|i| i.1));
                }
            }
            // Drain one page at a time: the whole LRU order, and through
            // the write-back each victim does or does not need, every
            // read-mostly flag.
            for p in 0..PAGES {
                slab.set_pinned(p, false);
                if let Some(info) = reference.resident.get_mut(&p) {
                    info.1 = false;
                }
            }
            while slab.resident_pages() > 0 {
                slab.budget = slab.resident_bytes() - PAGE_SIZE;
                reference.budget = slab.budget;
                let (a, got, b, want) = evict(&mut slab, &mut reference, 0);
                prop_assert_eq!(got.len(), 1);
                prop_assert_eq!(got, want, "drain order");
                prop_assert_eq!(a, b);
            }
            prop_assert!(reference.resident.is_empty());
        }
    }
}
