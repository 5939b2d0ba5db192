//! Per-device residency state with LRU eviction, kept as runs of pages.
//!
//! Accesses touch ranges in page order, so the LRU list links **runs**:
//! pages consecutive in address and recency, with the same advice. A
//! touch cuts the runs a range covers at its ends and splices each to the
//! tail whole, joining its address predecessor there; eviction shrinks
//! the oldest unpinned run from its front. Each operation leaves the
//! order, flags and victims a page-by-page one would (the tests' stamped
//! reference checks it). The **index** maps a page to its run without
//! hashing: dense windows of run slots over whole 512-page (32 MiB)
//! chunks, few because windows `MERGE_GAP` chunks apart merge. A slot
//! counts only while its run holds the page: a page's slot is written
//! when it arrives and when its run splits or joins, so eviction and
//! removal write none (a free run holds no pages). Windows open only
//! where pages land and are rebuilt around the resident runs past
//! `SLOTS_PER_PAGE` slots per page of the resident high water.

use crate::page::{PageRange, PAGE_SIZE};
use accel_sim::sync::{count, Site};

/// "No slot": the list's end, an empty list's head/tail, a page never indexed.
const NIL: u32 = u32::MAX;
/// Pages per index chunk: windows start and end on chunks.
const CHUNK_PAGES: u64 = 512;
/// Windows at most this many chunks apart merge into one.
const MERGE_GAP: u64 = 4;
/// Twice the slots a rebuild needs per resident page, at worst one page
/// per chunk, `MERGE_GAP` chunks apart.
const SLOTS_PER_PAGE: u64 = 2 * (1 + MERGE_GAP) * CHUNK_PAGES;

/// Advice flag: pinned pages are never evicted (`cudaMemAdvise` preferred location).
pub(crate) const PINNED: u8 = 1;
/// Advice flag: read-mostly pages evict without write-back.
pub(crate) const READ_MOSTLY: u8 = 2;

/// Resident pages consecutive in address and in LRU order, one advice.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// Empty while the slot is free.
    pages: PageRange,
    /// Neighbour towards the head (older); `NIL` at the head.
    prev: u32,
    /// Neighbour towards the tail (younger); `NIL` at the tail. A free
    /// slot keeps the next free slot here.
    next: u32,
    /// `PINNED` and `READ_MOSTLY` bits.
    advice: u8,
}

/// The run slots of the pages `first..first + slots.len()`, whole chunks.
#[derive(Debug)]
struct Window {
    first: u64,
    slots: Vec<u32>,
}

impl Window {
    fn end(&self) -> u64 {
        self.first + self.slots.len() as u64
    }

    /// The slots of `[first, end)`, or `None` unless the window holds them.
    fn of(&mut self, PageRange { first, end }: PageRange) -> Option<&mut [u32]> {
        let at = first.checked_sub(self.first)? as usize;
        self.slots.get_mut(at..at + (end - first) as usize)
    }
}

/// Page → run slot (see the module doc): windows ascending, each more
/// than `MERGE_GAP` chunks from the next, and the one last found.
#[derive(Debug, Default)]
struct PageIndex(Vec<Window>, std::cell::Cell<usize>);

impl PageIndex {
    /// The first window that ends above `page`: the one last found when
    /// it holds `page`, else by search.
    fn at(&self, page: u64) -> usize {
        let holds = |w: &Window| w.first <= page && page < w.end();
        if !self.0.get(self.1.get()).is_some_and(holds) {
            self.1.set(self.0.partition_point(|w| w.end() <= page));
        }
        self.1.get()
    }

    /// The run slot of the first page in `[page, end)` that its slot's
    /// run holds.
    fn first_in(&self, runs: &[Run], page: u64, end: u64) -> Option<u32> {
        let held = |w: &Window, lo: u64, hi: u64| {
            let slots = &w.slots[(lo - w.first) as usize..(hi - w.first) as usize];
            // `NIL` is past the slab's end.
            let held =
                |(p, &s): (u64, &u32)| runs.get(s as usize).is_some_and(|r| r.pages.contains(p));
            (lo..hi).zip(slots).find(|&x| held(x)).map(|(_, &s)| s)
        };
        // Mostly inside the window last found: one scan.
        match self.0.get(self.1.get()) {
            Some(w) if w.first <= page && end <= w.end() => return held(w, page, end),
            _ => {}
        }
        for w in &self.0[self.at(page)..] {
            let (lo, hi) = (page.max(w.first), end.min(w.end()));
            if lo >= hi {
                break; // the window starts at or past `end`
            }
            if let Some(s) = held(w, lo, hi) {
                return Some(s);
            }
        }
        None
    }

    /// Points every page of `pages` at `slot`; false, writing nothing,
    /// when no one window holds them all.
    fn write(&mut self, pages: PageRange, slot: u32) -> bool {
        let k = self.at(pages.first);
        let slots = self.0.get_mut(k).and_then(|w| w.of(pages));
        slots.map(|s| s.fill(slot)).is_some()
    }

    /// Widens the windows over `pages`' chunks, merged with every window
    /// within `MERGE_GAP` chunks of them.
    fn cover(&mut self, pages: PageRange) {
        let gap = MERGE_GAP * CHUNK_PAGES;
        let first = pages.first / CHUNK_PAGES * CHUNK_PAGES;
        let end = pages.end.div_ceil(CHUNK_PAGES) * CHUNK_PAGES;
        let lo = self.0.partition_point(|w| w.end() + gap < first);
        let hi = self.0.partition_point(|w| w.first <= end + gap);
        let first = self.0[lo..hi].first().map_or(first, |w| w.first.min(first));
        let end = self.0[lo..hi].last().map_or(end, |w| w.end().max(end));
        let mut slots = Vec::with_capacity((end - first) as usize);
        for w in self.0.drain(lo..hi) {
            slots.resize((w.first - first) as usize, NIL);
            slots.extend_from_slice(&w.slots);
        }
        slots.resize((end - first) as usize, NIL);
        self.0.insert(lo, Window { first, slots });
    }

    /// Slots over all windows.
    fn slots(&self) -> u64 {
        self.0.iter().map(|w| w.slots.len() as u64).sum()
    }
}

/// Fraction of evicted bytes that are dirty and must be written back
/// (pages marked read-mostly are always clean).
const WRITEBACK_FRACTION: f64 = 0.5;
const _: () = assert!(0.0 <= WRITEBACK_FRACTION && WRITEBACK_FRACTION <= 1.0);

/// Result of an eviction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EvictResult {
    /// Pages evicted.
    pub pages: u64,
    /// Bytes that required write-back (dirty, not read-mostly).
    pub writeback_bytes: u64,
}

/// Residency and LRU bookkeeping for one device: a slab of runs on an
/// intrusive doubly-linked list, least recently used at the head, whose
/// order *is* recency order (no stamps). Invariant: the listed runs are
/// non-empty, disjoint and hold `resident` pages, free runs hold none,
/// and `index` maps each resident page to its run.
#[derive(Debug)]
pub(crate) struct DeviceState {
    /// Memory budget for managed pages, bytes.
    pub budget: u64,
    /// Host-link bandwidth, GB/s.
    pub link_bandwidth_gbps: f64,
    /// Peer-link (device↔device) bandwidth, GB/s — prices shared-range
    /// read duplications. Defaults to the host link.
    pub p2p_bandwidth_gbps: f64,
    /// Latency of one fault group, ns.
    pub fault_latency_ns: u64,
    runs: Vec<Run>,
    index: PageIndex,
    /// Least recently used run.
    head: u32,
    /// Most recently used run.
    tail: u32,
    /// First free slot of the slab, chained through `Run::next`.
    free: u32,
    /// Pages resident.
    resident: u64,
    /// The most pages ever resident at once.
    high_water: u64,
    /// Debug builds: pages removed outright, not evicted.
    #[cfg(debug_assertions)]
    pub(crate) dropped: u64,
    /// Mutations since the last full list walk (see `check_invariants`).
    #[cfg(debug_assertions)]
    unwalked: u64,
}

impl DeviceState {
    /// Creates a state with the given budget and link characteristics.
    pub fn new(budget: u64, link_bandwidth_gbps: f64, fault_latency_ns: u64) -> Self {
        DeviceState {
            budget,
            link_bandwidth_gbps,
            p2p_bandwidth_gbps: link_bandwidth_gbps,
            fault_latency_ns,
            runs: Vec::new(),
            index: PageIndex::default(),
            head: NIL,
            tail: NIL,
            free: NIL,
            resident: 0,
            high_water: 0,
            #[cfg(debug_assertions)]
            dropped: 0,
            #[cfg(debug_assertions)]
            unwalked: 0,
        }
    }

    /// Bytes of managed pages currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident * PAGE_SIZE
    }

    /// True when `page` is resident on this device.
    pub(crate) fn is_resident(&self, page: u64) -> bool {
        self.index.first_in(&self.runs, page, page + 1).is_some()
    }

    /// The resident stretches of `pages`, ascending.
    pub(crate) fn resident_in(&self, pages: PageRange) -> impl Iterator<Item = PageRange> + '_ {
        let mut first = pages.first;
        std::iter::from_fn(move || {
            let run = self.index.first_in(&self.runs, first, pages.end)?;
            let run = self.runs[run as usize].pages;
            let (at, end) = (run.first.max(first), run.end.min(pages.end));
            first = end;
            Some(PageRange { first: at, end })
        })
    }

    /// Takes run `i` out of the list (its own links are left stale).
    fn unlink(&mut self, i: u32) {
        let Run { prev, next, .. } = self.runs[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.runs[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.runs[n as usize].prev = prev,
        }
    }

    /// Links run `i` in behind `prev` (`NIL`: at the head).
    fn link(&mut self, i: u32, prev: u32) {
        let next = match prev {
            NIL => std::mem::replace(&mut self.head, i),
            p => std::mem::replace(&mut self.runs[p as usize].next, i),
        };
        match next {
            NIL => self.tail = i,
            n => self.runs[n as usize].prev = i,
        }
        (self.runs[i as usize].prev, self.runs[i as usize].next) = (prev, next);
    }

    /// A new run of `pages` with `advice`, linked behind `prev`; the
    /// caller indexes its pages.
    fn alloc(&mut self, pages: PageRange, advice: u8, prev: u32) -> u32 {
        let run = Run {
            pages,
            prev,
            next: NIL,
            advice,
        };
        let i = match self.free {
            NIL => {
                self.runs.push(run);
                self.runs.len() as u32 - 1
            }
            i => {
                self.free = std::mem::replace(&mut self.runs[i as usize], run).next;
                i
            }
        };
        self.link(i, prev);
        i
    }

    /// Unlinks run `i`, empties it and returns its slot to the free
    /// chain: what the index says of its pages no longer counts.
    fn release(&mut self, i: u32) {
        self.unlink(i);
        let run = &mut self.runs[i as usize];
        run.pages.end = run.pages.first;
        run.next = std::mem::replace(&mut self.free, i);
    }

    /// Cuts run `i` at `at`, strictly inside it, into two runs adjacent in
    /// LRU order, the smaller piece in a new slot. Returns the slots of
    /// the pieces below and above `at`.
    fn split(&mut self, i: u32, at: u64) -> (u32, u32) {
        let Run { pages, advice, .. } = self.runs[i as usize];
        let (below, above) = (
            PageRange { end: at, ..pages },
            PageRange { first: at, ..pages },
        );
        if below.count() < above.count() {
            self.runs[i as usize].pages = above;
            let j = self.alloc(below, advice, self.runs[i as usize].prev);
            self.relabel(below, j);
            (j, i)
        } else {
            self.runs[i as usize].pages = below;
            let j = self.alloc(above, advice, i);
            self.relabel(above, j);
            (i, j)
        }
    }

    /// Joins run `b` to its LRU predecessor `a` when `a` ends where `b`
    /// starts with the same advice, keeping the larger one's slot.
    /// Returns the slot now holding `b`'s pages.
    fn join(&mut self, a: u32, b: u32) -> u32 {
        let (Some(&ra), Some(&rb)) = (self.runs.get(a as usize), self.runs.get(b as usize)) else {
            return b;
        };
        if ra.pages.end != rb.pages.first || ra.advice != rb.advice {
            return b;
        }
        let (keep, gone) = match ra.pages.count() >= rb.pages.count() {
            true => (a, b),
            false => (b, a),
        };
        self.relabel(self.runs[gone as usize].pages, keep);
        self.release(gone);
        self.runs[keep as usize].pages = PageRange {
            end: rb.pages.end,
            ..ra.pages
        };
        keep
    }

    /// Points the index's slots of `pages`, which run `slot` now holds,
    /// at it.
    fn relabel(&mut self, pages: PageRange, slot: u32) {
        count(Site::IndexRelabel);
        let written = self.index.write(pages, slot);
        debug_assert!(written, "a resident page outside the windows");
    }

    /// Hands `f` each resident stretch of `pages`, in order, cut into a run
    /// of its own; appends the stretches between to `missing` when given.
    fn each_run(
        &mut self,
        pages: PageRange,
        mut missing: Option<&mut Vec<PageRange>>,
        mut f: impl FnMut(&mut Self, u32),
    ) {
        let mut gap = |first, end| match missing.as_deref_mut() {
            Some(log) if first < end => log.push(PageRange { first, end }),
            _ => {}
        };
        let mut page = pages.first;
        while page < pages.end {
            let Some(mut i) = self.index.first_in(&self.runs, page, pages.end) else {
                break;
            };
            if self.runs[i as usize].pages.first < page {
                i = self.split(i, page).1;
            }
            if self.runs[i as usize].pages.end > pages.end {
                i = self.split(i, pages.end).0;
            }
            let run = self.runs[i as usize].pages;
            gap(page, run.first);
            page = run.end;
            f(self, i);
        }
        gap(page, pages.end);
        self.check_invariants();
    }

    /// Touches each page of `pages` in turn, one splice per run: the
    /// resident ones become the most recent, the others go to `missing`,
    /// as runs.
    pub(crate) fn touch_range(&mut self, mut pages: PageRange, missing: &mut Vec<PageRange>) {
        // Touching the tail run's last pages leaves it as it is: cutting
        // them off would only join them back.
        if let Some(t) = self.runs.get(self.tail as usize) {
            if t.pages.contains(pages.first) && t.pages.end <= pages.end {
                pages.first = t.pages.end;
            }
        }
        self.each_run(pages, Some(missing), |st, i| {
            if i != st.tail {
                st.unlink(i);
                st.link(i, st.tail);
            }
            st.join(st.runs[i as usize].prev, i);
        });
    }

    /// Sets the `mask` bits of the advice of the resident pages of `pages`
    /// to `bits`, and appends the pages that are not resident to
    /// `missing`, as runs, when given.
    pub(crate) fn set_advice(
        &mut self,
        pages: PageRange,
        mask: u8,
        bits: u8,
        missing: Option<&mut Vec<PageRange>>,
    ) {
        self.each_run(pages, missing, |st, i| {
            let run = &mut st.runs[i as usize];
            run.advice = run.advice & !mask | bits;
            let prev = run.prev;
            let i = st.join(prev, i);
            st.join(i, st.runs[i as usize].next);
        });
    }

    /// Drops the resident pages of `pages` outright (allocation freed),
    /// without write-back, logging them as runs to `removed` when given.
    /// Returns how many went.
    pub(crate) fn remove_range(
        &mut self,
        pages: PageRange,
        mut removed: Option<&mut Vec<PageRange>>,
    ) -> u64 {
        let mut count = 0;
        self.each_run(pages, None, |st, i| {
            let gone = st.runs[i as usize].pages;
            st.release(i);
            st.resident -= gone.count();
            #[cfg(debug_assertions)]
            {
                st.dropped += gone.count();
            }
            count += gone.count();
            if let Some(log) = removed.as_deref_mut() {
                log.push(gone);
            }
        });
        count
    }

    /// Drops one page outright. Returns whether it was resident.
    pub(crate) fn remove(&mut self, page: u64) -> bool {
        let end = page + 1;
        self.remove_range(PageRange { first: page, end }, None) > 0
    }

    /// Appends `pages`, none of them resident, at the tail in page order,
    /// with `advice`.
    fn append(&mut self, pages: PageRange, advice: u8) {
        debug_assert!(self
            .index
            .first_in(&self.runs, pages.first, pages.end)
            .is_none());
        let tail = self.tail;
        let slot = match self.runs.get_mut(tail as usize) {
            Some(t) if t.pages.end == pages.first && t.advice == advice => {
                t.pages.end = pages.end;
                tail
            }
            _ => self.alloc(pages, advice, tail),
        };
        self.resident += pages.count();
        self.high_water = self.high_water.max(self.resident);
        count(Site::IndexArrival);
        if !self.index.write(pages, slot) {
            count(Site::WindowGrow);
            self.index.cover(pages);
            if self.index.slots() > SLOTS_PER_PAGE * self.high_water {
                self.rebuild_index();
            }
            self.index.write(pages, slot);
        }
    }

    /// Makes the windows anew over the resident runs alone.
    fn rebuild_index(&mut self) {
        count(Site::WindowRebuild);
        self.index.0.clear();
        let mut at = self.head;
        while at != NIL {
            let run = self.runs[at as usize].pages;
            if !self.index.write(run, at) {
                self.index.cover(run);
                self.index.write(run, at);
            }
            at = self.runs[at as usize].next;
        }
    }

    /// Evicts least-recently-used unpinned pages until `need_bytes` fit,
    /// adding them to `evicted` (write-back: `WRITEBACK_FRACTION` of each
    /// page not read-mostly) and, as runs in eviction order, to `victims`.
    fn make_room(
        &mut self,
        need_bytes: u64,
        mut victims: Option<&mut Vec<PageRange>>,
        evicted: &mut EvictResult,
    ) {
        // When the kernel's own working set exceeds the budget
        // (`need_bytes > self.budget`) this evicts everything evictable
        // and intra-kernel thrashing follows.
        let mut cursor = self.head;
        // Pages to evict: each one evicted takes `PAGE_SIZE` off the excess.
        let excess = (self.resident_bytes() + need_bytes).saturating_sub(self.budget);
        let mut over = excess.div_ceil(PAGE_SIZE);
        while over > 0 {
            // Oldest unpinned run: pinned runs stay where they are, so
            // the walk resumes behind them rather than at the head.
            while cursor != NIL && self.runs[cursor as usize].advice & PINNED != 0 {
                cursor = self.runs[cursor as usize].next;
            }
            if cursor == NIL {
                break; // everything left is pinned
            }
            let run = self.runs[cursor as usize];
            let end = run.pages.end.min(run.pages.first + over);
            let gone = PageRange { end, ..run.pages };
            self.resident -= gone.count();
            over -= gone.count();
            if end == run.pages.end {
                self.release(cursor);
                cursor = run.next;
            } else {
                self.runs[cursor as usize].pages.first = end;
            }
            evicted.pages += gone.count();
            if run.advice & READ_MOSTLY == 0 {
                evicted.writeback_bytes +=
                    gone.count() * (PAGE_SIZE as f64 * WRITEBACK_FRACTION) as u64;
            }
            if let Some(log) = victims.as_deref_mut() {
                log.push(gone);
            }
        }
    }

    /// Faults `missing` (ascending, none resident) in with `advice` as if
    /// one page at a time, each making room before it lands: a range over
    /// budget evicts its own head (the thrashing behind the paper's Fig.
    /// 12). A stretch lands whole when older pages make room for all of
    /// it; those go first either way, in the same order.
    pub(crate) fn page_in(
        &mut self,
        missing: &[PageRange],
        advice: u8,
        mut victims: Option<&mut Vec<PageRange>>,
    ) -> EvictResult {
        let mut evicted = EvictResult::default();
        for &PageRange { first, end } in missing {
            let bytes = (end - first) * PAGE_SIZE;
            self.make_room(bytes, victims.as_deref_mut(), &mut evicted);
            if self.resident_bytes() + bytes <= self.budget {
                self.append(PageRange { first, end }, advice);
                continue;
            }
            // Every older unpinned page is gone: the stretch evicts its
            // own head as it lands.
            for page in first..end {
                self.make_room(PAGE_SIZE, victims.as_deref_mut(), &mut evicted);
                let end = page + 1;
                self.append(PageRange { first: page, end }, advice);
            }
        }
        self.check_invariants();
        evicted
    }

    /// Debug builds check the structure as it mutates — amortized: once
    /// per as many mutations as there are resident pages, a full walk
    /// must find links consistent both ways, every run non-empty and
    /// indexed page by page, every free run empty, and the windows
    /// ascending, apart and within their bound.
    #[cfg(debug_assertions)]
    fn check_invariants(&mut self) {
        self.unwalked += 1;
        if self.unwalked <= self.resident {
            return;
        }
        self.unwalked = 0;
        let (mut listed, mut pages, mut prev, mut at) = (0, 0, NIL, self.head);
        while at != NIL {
            let run = self.runs[at as usize];
            let fits = listed < self.runs.len(); // else the list cycles
            assert!(
                fits && run.prev == prev && run.pages.count() > 0,
                "run {at}"
            );
            for p in run.pages.iter() {
                let slot = self.index.first_in(&self.runs, p, p + 1);
                assert_eq!(slot, Some(at), "page {p} of run {at} indexed elsewhere");
            }
            (listed, pages, prev, at) = (listed + 1, pages + run.pages.count(), at, run.next);
        }
        assert_eq!((self.tail, pages), (prev, self.resident), "tail and count");
        let mut free = self.free;
        while let Some(run) = self.runs.get(free as usize) {
            assert_eq!(run.pages.count(), 0, "free run {free} holds pages");
            free = run.next;
        }
        // Windows: whole chunks, ascending, apart.
        let mut last = 0;
        for w in &self.index.0 {
            let whole = w.first.is_multiple_of(CHUNK_PAGES) && w.end().is_multiple_of(CHUNK_PAGES);
            assert!(
                whole && w.first >= last && w.first < w.end(),
                "window at {}",
                w.first
            );
            last = w.end() + MERGE_GAP * CHUNK_PAGES + 1;
        }
        assert!(self.index.slots() <= SLOTS_PER_PAGE * self.high_water);
    }

    #[cfg(not(debug_assertions))]
    fn check_invariants(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    fn state(pages: u64) -> DeviceState {
        DeviceState::new(pages * PAGE_SIZE, 24.0, 25_000)
    }

    fn one(page: u64) -> PageRange {
        PageRange {
            first: page,
            end: page + 1,
        }
    }

    /// Touches one page; returns whether it was resident.
    fn touch(s: &mut DeviceState, page: u64) -> bool {
        let mut missing = Vec::new();
        s.touch_range(one(page), &mut missing);
        missing.is_empty()
    }

    fn pin(s: &mut DeviceState, page: u64) {
        s.set_advice(one(page), PINNED, PINNED, None);
    }

    /// The advice bits of a page faulted in clean or not.
    fn clean(read_mostly: bool) -> u8 {
        if read_mostly {
            READ_MOSTLY
        } else {
            0
        }
    }

    fn pages(runs: &[PageRange]) -> Vec<u64> {
        runs.iter().flat_map(|r| r.iter()).collect()
    }

    impl DeviceState {
        /// Re-inserting a resident page resets its advice.
        fn insert(&mut self, page: u64, read_mostly: bool) {
            self.remove(page);
            self.append(one(page), clean(read_mostly));
        }

        fn is_pinned(&self, page: u64) -> bool {
            let run = self.index.first_in(&self.runs, page, page + 1);
            run.is_some_and(|i| self.runs[i as usize].advice & PINNED != 0)
        }

        fn make_room_logged(
            &mut self,
            need: u64,
            victims: Option<&mut Vec<PageRange>>,
        ) -> EvictResult {
            let mut evicted = EvictResult::default();
            self.make_room(need, victims, &mut evicted);
            self.check_invariants();
            evicted
        }

        fn resident_pages(&self) -> u64 {
            self.resident
        }

        fn run_count(&self) -> usize {
            let mut at = self.head;
            std::iter::from_fn(|| (at != NIL).then(|| at = self.runs[at as usize].next)).count()
        }
    }

    #[test]
    fn insert_touch_remove_round_trip() {
        let mut s = state(4);
        s.insert(10, false);
        assert!(s.is_resident(10));
        assert_eq!(s.resident_bytes(), PAGE_SIZE);
        assert!(touch(&mut s, 10));
        assert!(s.remove(10));
        assert!(!s.is_resident(10));
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let mut s = state(2);
        s.insert(1, false);
        s.insert(2, false);
        // Touch page 1 so page 2 becomes the LRU victim.
        touch(&mut s, 1);
        let r = s.make_room_logged(PAGE_SIZE, None);
        assert_eq!(r.pages, 1);
        assert!(s.is_resident(1), "recently-touched page survives");
        assert!(!s.is_resident(2), "LRU page evicted");
    }

    #[test]
    fn pinned_pages_survive_eviction() {
        let mut s = state(2);
        s.insert(1, false);
        s.insert(2, false);
        pin(&mut s, 1);
        let r = s.make_room_logged(PAGE_SIZE, None);
        assert_eq!(r.pages, 1);
        assert!(s.is_resident(1));
        assert!(!s.is_resident(2));
    }

    #[test]
    fn read_mostly_pages_skip_writeback() {
        let mut s = state(1);
        s.insert(1, true);
        let r = s.make_room_logged(PAGE_SIZE, None);
        assert_eq!(r.pages, 1);
        assert_eq!(r.writeback_bytes, 0);
    }

    #[test]
    fn writeback_fraction_applies() {
        let mut s = state(1);
        s.insert(1, false);
        let r = s.make_room_logged(PAGE_SIZE, None);
        assert_eq!(r.writeback_bytes, PAGE_SIZE / 2);
    }

    #[test]
    fn make_room_is_noop_when_space_exists() {
        let mut s = state(10);
        s.insert(1, false);
        let r = s.make_room_logged(PAGE_SIZE, None);
        assert_eq!(r.pages, 0);
        assert!(s.is_resident(1));
    }

    #[test]
    fn all_pinned_stops_eviction() {
        let mut s = state(1);
        s.insert(1, false);
        pin(&mut s, 1);
        let r = s.make_room_logged(PAGE_SIZE, None);
        assert_eq!(r.pages, 0, "pinned page may not be evicted");
        assert!(s.is_resident(1));
    }

    #[test]
    fn make_room_logged_reports_victim_runs() {
        let mut s = state(3);
        s.insert(3, false);
        s.insert(4, false);
        s.insert(9, false);
        let mut victims = Vec::new();
        let r = s.make_room_logged(3 * PAGE_SIZE, Some(&mut victims));
        assert_eq!(r.pages, 3);
        assert_eq!(
            victims,
            vec![PageRange { first: 3, end: 5 }, one(9)],
            "LRU order, oldest first, consecutive pages as one run"
        );
        // The unlogged variant is byte-identical in effect.
        let mut t = state(3);
        for p in [3, 4, 9] {
            t.insert(p, false);
        }
        assert_eq!(t.make_room_logged(3 * PAGE_SIZE, None), r);
    }

    #[test]
    fn reinsert_updates_stamp_without_duplicating() {
        let mut s = state(4);
        s.insert(7, false);
        s.insert(7, false);
        assert_eq!(s.resident_pages(), 1);
        // The old stamp must be gone from the LRU index.
        let r = s.make_room_logged(4 * PAGE_SIZE, None);
        assert_eq!(r.pages, 1);
    }

    #[test]
    fn a_resident_range_in_lru_order_is_one_run() {
        let mut s = state(64);
        let range = PageRange {
            first: 100,
            end: 140,
        };
        let mut missing = Vec::new();
        s.touch_range(range, &mut missing);
        assert_eq!(missing, vec![range]);
        s.page_in(&missing, 0, None);
        assert_eq!(s.run_count(), 1, "faulted in page order: one run");
        // Touching a middle stretch cuts the run in three; touching the
        // whole range again splices the pieces back into one.
        missing.clear();
        s.touch_range(
            PageRange {
                first: 110,
                end: 120,
            },
            &mut missing,
        );
        assert_eq!(s.run_count(), 3);
        s.touch_range(range, &mut missing);
        assert!(missing.is_empty());
        assert_eq!(s.run_count(), 1);
    }

    #[test]
    fn windows_open_where_pages_land_and_merge_when_near() {
        let mut s = state(8);
        let far = 1 << 40;
        for p in [CHUNK_PAGES - 1, CHUNK_PAGES, far] {
            s.insert(p, false);
        }
        let spans = |s: &DeviceState| -> Vec<(u64, u64)> {
            s.index.0.iter().map(|w| (w.first, w.end())).collect()
        };
        let near = (0, 2 * CHUNK_PAGES);
        assert_eq!(spans(&s), [near, (far, far + CHUNK_PAGES)]);
        let straddle = PageRange {
            first: CHUNK_PAGES - 1,
            end: CHUNK_PAGES + 1,
        };
        let got: Vec<PageRange> = s.resident_in(straddle).collect();
        assert_eq!(got, vec![straddle], "one run across the chunk boundary");
        // A page `MERGE_GAP` chunks past a window joins it; one further
        // out opens a window of its own, and a page between joins both.
        let joined = (2 + MERGE_GAP) * CHUNK_PAGES;
        s.insert(joined, false);
        assert_eq!(spans(&s)[0], (0, joined + CHUNK_PAGES));
        let apart = joined + (2 + MERGE_GAP) * CHUNK_PAGES;
        s.insert(apart, false);
        assert_eq!(spans(&s).len(), 3);
        s.insert(apart - CHUNK_PAGES, false);
        assert_eq!(
            spans(&s)[..2],
            [(0, apart + CHUNK_PAGES), (far, far + CHUNK_PAGES)]
        );
        // Removal and eviction write nothing: the slots stay, and no
        // lookup believes them.
        let all = PageRange {
            first: 0,
            end: far + 1,
        };
        assert_eq!(s.remove_range(all, None), 6);
        assert_eq!(s.resident_in(all).count(), 0);
        assert_eq!(spans(&s).len(), 2);
        s.insert(far, false);
        assert_eq!(spans(&s).len(), 2, "a page lands in the window it left");
    }

    #[test]
    fn many_windows_are_found() {
        let mut s = state(64);
        let stride = (2 + MERGE_GAP) * CHUNK_PAGES;
        let chunks: Vec<u64> = (0..20).map(|i| (i * 7 % 20) * stride + i).collect();
        for &p in &chunks {
            s.insert(p, false);
        }
        assert_eq!(s.index.0.len(), 20);
        for &p in &chunks {
            assert!(s.is_resident(p) && !s.is_resident(p + 1));
        }
        let all = PageRange {
            first: 0,
            end: 20 * stride,
        };
        let mut sorted = chunks.clone();
        sorted.sort_unstable();
        assert_eq!(pages(&s.resident_in(all).collect::<Vec<_>>()), sorted);
        for &p in chunks.iter().rev() {
            assert!(s.remove(p));
        }
        assert_eq!(s.resident_in(all).count(), 0);
    }

    /// Single pages walk the engine's 6 TiB managed window under a 4-page
    /// budget, each in a chunk of its own: windows open behind them, and
    /// rebuilds keep their slots within the stated multiple of the
    /// resident high water.
    #[test]
    fn windows_stay_within_their_bound_across_the_managed_window() {
        const WINDOW_PAGES: u64 = (6 << 40) / PAGE_SIZE;
        const STEPS: u64 = 1000;
        let bound = SLOTS_PER_PAGE * 4;
        let mut s = state(4);
        let mut walked = Vec::new();
        for i in 0..STEPS {
            // A scattered order over the window, a different page offset
            // inside each chunk.
            let page = i * 389 % STEPS * (WINDOW_PAGES / STEPS) + i % CHUNK_PAGES;
            let (mut missing, at) = (Vec::new(), one(page));
            s.touch_range(at, &mut missing);
            assert_eq!(missing, [at]);
            s.page_in(&missing, 0, None);
            walked.push(page);
            assert!(
                s.index.slots() <= bound,
                "step {i}: {} slots",
                s.index.slots()
            );
            for (k, &p) in walked.iter().rev().enumerate() {
                assert_eq!(s.is_resident(p), k < 4, "step {i}, page {p}");
            }
            if walked.len() > 8 {
                walked.remove(0);
            }
        }
        assert!(s.index.0.len() <= (bound / CHUNK_PAGES) as usize);
    }

    /// The `HashMap` + `BTreeMap` residency this module used to be — an
    /// explicit stamp per page, the LRU order a B-tree over the stamps —
    /// kept as the oracle the runs are checked against, page by page.
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

        fn insert(&mut self, page: u64, read_mostly: bool) {
            let seq = self.stamp();
            if let Some((old, ..)) = self.resident.insert(page, (seq, false, read_mostly)) {
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

        /// The most recently used page.
        fn tail(&self) -> Option<u64> {
            self.lru.values().next_back().copied()
        }

        fn make_room_logged(&mut self, need_bytes: u64, victims: &mut Vec<u64>) -> EvictResult {
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
                    result.writeback_bytes += (PAGE_SIZE as f64 * WRITEBACK_FRACTION) as u64;
                }
                victims.push(page);
            }
            result
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any sequence of residency operations leaves the runs and the
        /// stamped reference, driven page by page, with the same
        /// residents, the same flags, the same missing pages and the same
        /// eviction order. Ranges straddle resident and missing pages,
        /// pinned and read-mostly ones, end at the LRU tail, and cross an
        /// index chunk boundary, in two regions 2^40 pages apart (windows
        /// open in either order, grow at either end and merge, and run
        /// slots are reused over slots stale from an earlier run);
        /// budgets go down to one page (everything pinned, a need larger
        /// than the budget) and resident pages are re-inserted.
        #[test]
        fn slab_lru_matches_the_stamped_reference(
            budget_pages in 1u64..17,
            ops in prop::collection::vec((0u8..10, 0u64..48, 1u64..9, any::<bool>()), 1..160)
        ) {
            // Two regions of 32 pages, the middle of each on either side
            // of a chunk boundary.
            const LO: u64 = CHUNK_PAGES - 16;
            const FAR: u64 = 1 << 40;
            const PAGES: u64 = 32;
            let mut slab = state(budget_pages);
            let mut reference = StampedState {
                budget: budget_pages * PAGE_SIZE,
                ..StampedState::default()
            };
            let evict = |slab: &mut DeviceState, reference: &mut StampedState, need: u64| {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let a = slab.make_room_logged(need, Some(&mut got));
                let b = reference.make_room_logged(need, &mut want);
                (a, pages(&got), b, want)
            };
            for &(op, at, len, flag) in &ops {
                // `at` past 23: the far region.
                let (lo, at) = (LO + FAR * (at / 24), at % 24);
                let page = lo + at;
                let range = PageRange { first: page, end: page + len };
                let (mut got, mut want) = (Vec::new(), Vec::new());
                match op {
                    0 => {
                        slab.insert(page, flag);
                        reference.insert(page, flag);
                    }
                    1 | 2 => {
                        // 2: a range that ends at the LRU tail.
                        let range = match (op, reference.tail()) {
                            (2, Some(t)) => {
                                let lo = if t >= FAR { LO + FAR } else { LO };
                                PageRange { first: (t + 1 - len).max(lo), end: t + 1 }
                            }
                            _ => range,
                        };
                        slab.touch_range(range, &mut got);
                        want.extend(range.iter().filter(|&p| !reference.touch(p)));
                        prop_assert_eq!(pages(&got), want, "missing pages");
                    }
                    3 => {
                        let mut removed = Vec::new();
                        let n = slab.remove_range(range, Some(&mut removed));
                        want.extend(range.iter().filter(|&p| reference.remove(p)));
                        prop_assert_eq!(pages(&removed), want.clone(), "removed pages");
                        prop_assert_eq!(n, want.len() as u64);
                    }
                    4..=6 => {
                        let (pinned, read_mostly) = match op {
                            4 => (Some(flag), None),
                            5 => (None, Some(flag)),
                            _ => (Some(flag), Some(flag)),
                        };
                        // (mask, bits) of one flag the op sets, or leaves.
                        let bit = |set: Option<bool>, b: u8| set.map_or((0, 0), |on| (b, b * u8::from(on)));
                        let ((pm, pb), (rm, rb)) = (bit(pinned, PINNED), bit(read_mostly, READ_MOSTLY));
                        slab.set_advice(range, pm | rm, pb | rb, Some(&mut got));
                        for p in range.iter() {
                            match reference.resident.get_mut(&p) {
                                Some(info) => {
                                    info.1 = pinned.unwrap_or(info.1);
                                    info.2 = read_mostly.unwrap_or(info.2);
                                }
                                None => want.push(p),
                            }
                        }
                        prop_assert_eq!(pages(&got), want, "pages not resident");
                    }
                    7 => {
                        // The pager's fault: touch, then page the rest in.
                        let mut missing = Vec::new();
                        slab.touch_range(range, &mut missing);
                        let mut victims = Vec::new();
                        let a = slab.page_in(&missing, clean(flag), Some(&mut victims));
                        let mut b = EvictResult::default();
                        let absent: Vec<u64> = range.iter().filter(|&p| !reference.touch(p)).collect();
                        prop_assert_eq!(pages(&missing), absent.clone(), "missing pages");
                        for p in absent {
                            let e = reference.make_room_logged(PAGE_SIZE, &mut want);
                            b.pages += e.pages;
                            b.writeback_bytes += e.writeback_bytes;
                            reference.insert(p, flag);
                        }
                        prop_assert_eq!(pages(&victims), want, "victim order");
                        prop_assert_eq!(a, b);
                    }
                    8 => prop_assert_eq!(slab.remove(page), reference.remove(page)),
                    _ => {
                        // Room for 0..3 pages, or for more than the budget.
                        let need = if flag { at % 4 } else { budget_pages + 1 } * PAGE_SIZE;
                        let (a, got, b, want) = evict(&mut slab, &mut reference, need);
                        prop_assert_eq!(got, want, "victim order");
                        prop_assert_eq!(a, b);
                    }
                }
                prop_assert_eq!(slab.resident_pages(), reference.resident.len() as u64);
                for p in (LO..LO + PAGES).chain(LO + FAR..LO + FAR + PAGES) {
                    let info = reference.resident.get(&p);
                    prop_assert_eq!(slab.is_resident(p), info.is_some());
                    prop_assert_eq!(slab.is_pinned(p), info.is_some_and(|i| i.1));
                }
            }
            // Drain one page at a time: the whole LRU order, and through
            // the write-back each victim does or does not need, every
            // read-mostly flag.
            for lo in [LO, LO + FAR] {
                slab.set_advice(PageRange { first: lo, end: lo + PAGES }, PINNED, 0, None);
            }
            for info in reference.resident.values_mut() {
                info.1 = false;
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
