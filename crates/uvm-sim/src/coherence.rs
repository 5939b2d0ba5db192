//! The per-range coherence directory behind shared managed ranges.
//!
//! A managed range marked *shared*
//! ([`accel_sim::ResidencyModel::register_shared`]) is visible to every
//! lane of a parallel run: remote reads
//! **read-duplicate** the owner's home copy over the peer link, remote
//! writes **invalidate** the other devices' duplicates. The directory is
//! the one piece of state the lane managers genuinely share — an
//! `Arc<CoherenceDirectory>` cloned into every [`crate::UvmManager::fork`]
//! — so it is deliberately small and deliberately partitioned:
//!
//! * the outer registration map is locked only on
//!   `register_shared`/`unregister_shared` (rare, setup-time);
//! * each shared range carries its **own** lock ([`RangeDirectory`]), so
//!   two lanes touching different shared ranges never contend;
//! * inside a range, each device's holder bits are atomic words in cache
//!   lines of their own, allocated once and never moved: a lane dropping
//!   the pages it evicted clears its own bits with no lock, so a fault
//!   that pushes out shared duplicates (one budget per device, so a
//!   private fault can too) never waits for another lane's claim.
//!
//! What the directory tracks, per shared range:
//!
//! * **holders** — which devices currently hold a duplicate of each page
//!   (the owner's copy included). Read duplications add holders; shared
//!   evictions and write invalidations remove them.
//! * **pending invalidations** — pages a writer invalidated that a
//!   *forked* lane manager still carries in its private residency. A lane
//!   cannot reach into another lane's `DeviceState`, so the victim drains
//!   its pending list at its next shared-range access and drops the stale
//!   pages then; an unforked (single) manager owns every `DeviceState`
//!   and invalidates eagerly instead. Either way no stale duplicate is
//!   ever *served*: the directory's holder set is the source of truth,
//!   and a write clears the other holders and queues their pending pages
//!   under the range lock, which every read's claim takes too.

use crate::page::{page_range, PageRange};
use accel_sim::sync::{count, Mutex, Site};
use accel_sim::DeviceId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Directory state of one shared managed range.
#[derive(Debug)]
pub struct RangeDirectory {
    base: u64,
    len: u64,
    /// Every page the byte range overlaps. Allocations are 256-byte
    /// aligned, so the first and last page may lie partly outside it.
    pages: PageRange,
    owner: DeviceId,
    /// Live `register_shared` registrations; the directory drops the
    /// range when the count reaches zero (see
    /// [`CoherenceDirectory::release`]).
    registrants: AtomicUsize,
    /// Which pages each device holds a duplicate of (the owner's copy
    /// included), device-major: segment `k` holds the bitsets of devices
    /// `8(2^k - 1) .. 8(2^(k+1) - 1)`, `lines()` lines each, bit `s`
    /// standing for the range's `s`-th page. A segment is allocated by
    /// its devices' first claim and never moves, so a lane clears its own
    /// bits with no lock; no device's bits share a line with another's.
    /// Words are read and written `Relaxed`: a bit publishes no other
    /// data, and the range lock orders claims against writes.
    held: [OnceLock<Box<[Line]>>; 30],
    /// Per device, indexed by id: the stale pages it must drop before
    /// trusting its residency (grown by the first write that queues one).
    /// Its lock also orders every read's claim against every write, on a
    /// cache line of its own so a claim does not evict what drops read.
    pending: Line<Mutex<Vec<Vec<u64>>>>,
}

/// One cache line: of holder bits, or of the range's lock.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Line<T = [AtomicU64; 8]>(T);

/// Holder bits per line.
const LINE_BITS: usize = 512;

impl RangeDirectory {
    /// Base address of the shared range.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Adds one registration to this range without going through
    /// `CoherenceDirectory::ensure` — how [`crate::UvmManager::fork`]
    /// and merge-imported cache entries keep the range alive, so an
    /// inheritor calling `unregister_shared` cannot tear the directory
    /// down under the managers it inherited from.
    pub fn retain(&self) {
        self.registrants.fetch_add(1, Ordering::AcqRel);
    }

    /// Length of the shared range, bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True for an empty (zero-length) range.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pages the range overlaps — the only pages the directory
    /// tracks; every operation ignores pages outside this span.
    pub fn pages(&self) -> PageRange {
        self.pages
    }

    /// The device holding the range's home copy.
    pub fn owner(&self) -> DeviceId {
        self.owner
    }

    /// The slots `[from, to)` of the pages of `run` the range overlaps,
    /// if any.
    fn slots(&self, run: PageRange) -> Option<(usize, usize)> {
        let first = run.first.max(self.pages.first);
        let end = run.end.min(self.pages.end);
        let slot = |page: u64| (page - self.pages.first) as usize;
        (first < end).then(|| (slot(first), slot(end)))
    }

    /// Slot of `page`, if the range overlaps it.
    fn slot(&self, page: u64) -> Option<usize> {
        self.slots(one(page)).map(|(slot, _)| slot)
    }

    /// Lines in one device's bitset.
    fn lines(&self) -> usize {
        (self.pages.count() as usize).div_ceil(LINE_BITS).max(1)
    }

    /// `device`'s bitset, if its segment is allocated; `grow` allocates
    /// the segment first.
    fn bits(&self, device: DeviceId, grow: bool) -> Option<&[Line]> {
        let (d, lines) = (device.index(), self.lines());
        let k = (d / 8 + 1).ilog2() as usize;
        let new = || (0..(lines * 8) << k).map(|_| Line::default()).collect();
        let segment = match grow {
            true => self.held[k].get_or_init(new),
            false => self.held[k].get()?,
        };
        let at = (d - 8 * ((1 << k) - 1)) * lines;
        Some(&segment[at..at + lines])
    }

    /// Every device of an allocated segment, ascending, with its bitset.
    fn bitsets(&self) -> impl Iterator<Item = (DeviceId, &[Line])> {
        let segments = self.held.iter().enumerate();
        let segments = segments.filter_map(|(k, s)| Some((8 * ((1usize << k) - 1), s.get()?)));
        let devices = segments.flat_map(move |(first, s)| s.chunks(self.lines()).zip(first..));
        devices.map(|(bits, d)| (DeviceId(d as u32), bits))
    }

    /// Marks `device` as holding (`held`) or not holding every page of
    /// `runs` the range overlaps, a word of 64 pages at a time and with
    /// no lock: only `device`'s words change, and a write clears them by
    /// atomic read-modify-write too, so it queues a dropped page as stale
    /// only if the drop has not landed — the race it ran when drops took
    /// the lock. A missing segment is allocated before bits are set.
    pub(crate) fn set_holder(
        &self,
        runs: impl IntoIterator<Item = PageRange>,
        device: DeviceId,
        held: bool,
    ) {
        if !held {
            count(Site::DirDrop);
        }
        let mut bits = None;
        for (from, to) in runs.into_iter().filter_map(|r| self.slots(r)) {
            let Some(bits) = *bits.get_or_insert_with(|| self.bits(device, held)) else {
                return;
            };
            let mut at = from;
            while at < to {
                let hi = to.min(at / 64 * 64 + 64);
                let mask = u64::MAX >> (64 - (hi - at)) << (at % 64);
                let word = &bits[at / LINE_BITS].0[at / 64 % 8];
                match held {
                    true => word.fetch_or(mask, Ordering::Relaxed),
                    false => word.fetch_and(!mask, Ordering::Relaxed),
                };
                at = hi;
            }
        }
    }

    /// Devices currently holding `page`, ascending.
    pub fn holders(&self, page: u64) -> Vec<DeviceId> {
        let Some(slot) = self.slot(page) else {
            return Vec::new();
        };
        let held = self.bitsets().filter(|(_, bits)| has(bits, slot));
        held.map(|(d, _)| d).collect()
    }

    /// True when the directory lists `device` as a holder of `page`.
    pub(crate) fn is_holder(&self, page: u64, device: DeviceId) -> bool {
        let bits = self.bits(device, false);
        let slot = self.slot(page);
        bits.zip(slot).is_some_and(|(bits, slot)| has(bits, slot))
    }

    /// A write by `writer` to `pages`: every *other* holder of each page
    /// is removed from the directory and queued on its
    /// pending-invalidation list, and `writer` becomes the sole holder,
    /// under one lock acquisition. Returns `(victim, page)` pairs in page
    /// order (victims ascending within a page), so the caller can count
    /// invalidations and log the src→dst coherence events.
    pub(crate) fn write_range(&self, pages: PageRange, writer: DeviceId) -> Vec<(DeviceId, u64)> {
        count(Site::DirWrite);
        let mut pending = self.pending.0.lock();
        let mut victims = Vec::new();
        let Some((from, to)) = self.slots(pages) else {
            return victims;
        };
        for (d, bits) in self.bitsets().filter(|&(d, _)| d != writer) {
            for slot in from..to {
                let (word, bit) = (&bits[slot / LINE_BITS].0[slot / 64 % 8], 1 << (slot % 64));
                // The clear is what decides: the holder's own drop may
                // land between a load and it.
                if word.load(Ordering::Relaxed) & bit != 0
                    && word.fetch_and(!bit, Ordering::Relaxed) & bit != 0
                {
                    if pending.len() <= d.index() {
                        pending.resize_with(d.index() + 1, Vec::new);
                    }
                    let page = self.pages.first + slot as u64;
                    pending[d.index()].push(page);
                    victims.push((d, page));
                }
            }
        }
        victims.sort_unstable_by_key(|&(d, page)| (page, d));
        self.set_holder([pages], writer, true);
        victims
    }

    /// The read path's single critical section: drains `device`'s
    /// pending invalidations **and** claims holder entries for the pages
    /// of the accessed range that need fetching, under one lock. A page
    /// is "missing" when the caller found it non-resident *or* when it
    /// was pending invalidation (locally present but stale — the caller
    /// must drop and refetch it). Registering the claim before the data
    /// moves closes the window in which a concurrent writer could miss
    /// this reader entirely: any write that lands after the claim sees
    /// the holder entry and queues a pending invalidation the reader
    /// will drain on its next visit.
    ///
    /// `missing` arrives holding the runs of `accessed` the caller's own
    /// residency denies, in page order — residency is lane-local, so that
    /// scan needs no lock and the critical section costs O(missing runs +
    /// stale) whatever the access spans. It leaves holding the runs to
    /// fetch (claimed, in page order): the same, merged with the drained
    /// stale pages that lie in `accessed`. Returns `stale`: every drained
    /// pending-invalid page (accessed or not — drop them all locally).
    pub(crate) fn claim_read(
        &self,
        device: DeviceId,
        accessed: PageRange,
        missing: &mut Vec<PageRange>,
    ) -> Vec<u64> {
        count(Site::DirClaim);
        let mut pending = self.pending.0.lock();
        let stale = pending.get_mut(device.index()).map(std::mem::take);
        let stale = stale.unwrap_or_default();
        // A stale page may also be one the caller already denied, and a
        // page invalidated twice is queued twice: runs that meet merge.
        let fetch = stale.iter().filter(|&&p| accessed.contains(p));
        missing.extend(fetch.map(|&first| PageRange {
            first,
            end: first + 1,
        }));
        missing.sort_unstable_by_key(|r| r.first);
        missing.dedup_by(|b, a| {
            (b.first <= a.end)
                .then(|| a.end = a.end.max(b.end))
                .is_some()
        });
        self.set_holder(missing.iter().copied(), device, true);
        stale
    }

    /// Drains `device`'s pending stale pages (set by remote writes since
    /// the last drain). The caller drops them from its local residency.
    pub(crate) fn drain_pending(&self, device: DeviceId) -> Vec<u64> {
        let mut pending = self.pending.0.lock();
        let stale = pending.get_mut(device.index());
        stale.map(std::mem::take).unwrap_or_default()
    }

    /// Pages `device` currently holds in this range, ascending (the
    /// merge reconciliation's batch query).
    pub fn pages_held_by(&self, device: DeviceId) -> Vec<u64> {
        let Some(bits) = self.bits(device, false) else {
            return Vec::new();
        };
        let held = self.pages.iter().enumerate().filter(|&(s, _)| has(bits, s));
        held.map(|(_, p)| p).collect()
    }

    /// Total duplicate entries across all pages (testing/reporting).
    pub fn holder_entries(&self) -> u64 {
        let lines = self.bitsets().flat_map(|(_, bits)| bits);
        let words = lines
            .flat_map(|line| &line.0)
            .map(|w| w.load(Ordering::Relaxed));
        words.map(|w| u64::from(w.count_ones())).sum()
    }
}

/// Whether slot `slot`'s bit is set in `bits`.
fn has(bits: &[Line], slot: usize) -> bool {
    bits[slot / LINE_BITS].0[slot / 64 % 8].load(Ordering::Relaxed) >> (slot % 64) & 1 == 1
}

/// The one-page run of `page`.
fn one(page: u64) -> PageRange {
    PageRange {
        first: page,
        end: page + 1,
    }
}

/// The shared registration map: base address → per-range directory.
#[derive(Debug, Default)]
pub struct CoherenceDirectory {
    ranges: Mutex<BTreeMap<u64, Arc<RangeDirectory>>>,
}

impl CoherenceDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        CoherenceDirectory::default()
    }

    /// Registers (or fetches) the shared range at `base`. The first
    /// registration fixes `len` and `owner`; later calls — e.g. a second
    /// lane registering the same replicated tensor — return the existing
    /// entry, so every lane resolves against one range lock. Each call
    /// counts as one registration; pair it with
    /// [`CoherenceDirectory::release`].
    pub(crate) fn ensure(&self, base: u64, len: u64, owner: DeviceId) -> Arc<RangeDirectory> {
        let entry = Arc::clone(self.ranges.lock().entry(base).or_insert_with(|| {
            let pages = page_range(base, len);
            Arc::new(RangeDirectory {
                base,
                len,
                pages,
                owner,
                registrants: AtomicUsize::new(0),
                held: [const { OnceLock::new() }; 30],
                pending: Line::default(),
            })
        }));
        entry.registrants.fetch_add(1, Ordering::AcqRel);
        entry
    }

    /// Releases one registration of the range at `base`; the range is
    /// dropped only when the last registrant releases it — a lane
    /// finishing early must not tear the directory down under siblings
    /// still sharing the range. Releasing more often than registered is
    /// harmless (the count saturates at zero; it never wraps).
    pub fn release(&self, base: u64) {
        let mut ranges = self.ranges.lock();
        if let Some(entry) = ranges.get(&base) {
            let prev = entry
                .registrants
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                .unwrap_or(0);
            if prev <= 1 {
                ranges.remove(&base);
            }
        }
    }

    /// The shared range containing `addr`, if any.
    pub fn range_containing(&self, addr: u64) -> Option<Arc<RangeDirectory>> {
        self.ranges
            .lock()
            .range(..=addr)
            .next_back()
            .filter(|(&base, r)| addr < base + r.len)
            .map(|(_, r)| Arc::clone(r))
    }

    /// Drops the shared range at `base` (its pages fall back to private
    /// semantics). Lanes still holding the `Arc` keep a valid — but
    /// orphaned — range directory.
    pub fn remove(&self, base: u64) -> Option<Arc<RangeDirectory>> {
        self.ranges.lock().remove(&base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The maximal runs of consecutive pages in ascending `pages`.
    fn runs_of(pages: &[u64]) -> impl Iterator<Item = PageRange> + '_ {
        let run = |r: &[u64]| PageRange {
            first: r[0],
            end: r[0] + r.len() as u64,
        };
        pages.chunk_by(|a, b| a + 1 == *b).map(run)
    }
    use crate::page::PAGE_SIZE;
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::collections::BTreeSet;

    impl RangeDirectory {
        fn add_holder(&self, page: u64, device: DeviceId) {
            self.set_holder([one(page)], device, true);
        }

        fn remove_holder(&self, page: u64, device: DeviceId) {
            self.set_holder([one(page)], device, false);
        }

        /// `device`'s queued stale pages, left queued.
        pub(crate) fn pending_of(&self, device: DeviceId) -> Vec<u64> {
            let pending = self.pending.0.lock();
            pending.get(device.index()).cloned().unwrap_or_default()
        }

        /// A write to one page; the victims, ascending.
        fn write(&self, page: u64, writer: DeviceId) -> Vec<DeviceId> {
            let victims = self.write_range(one(page), writer).into_iter();
            victims.map(|(v, _)| v).collect()
        }
    }

    impl CoherenceDirectory {
        fn range_count(&self) -> usize {
            self.ranges.lock().len()
        }
    }

    #[test]
    fn ensure_is_idempotent_across_registrants() {
        let dir = CoherenceDirectory::new();
        let a = dir.ensure(0x1000, 4096, DeviceId(0));
        let b = dir.ensure(0x1000, 9999, DeviceId(1)); // later args ignored
        assert!(Arc::ptr_eq(&a, &b), "both lanes resolve one range lock");
        assert_eq!(b.len(), 4096);
        assert_eq!(b.owner(), DeviceId(0), "first registration wins");
        assert_eq!(dir.range_count(), 1);
    }

    #[test]
    fn range_lookup_respects_bounds() {
        let dir = CoherenceDirectory::new();
        dir.ensure(0x1000, 0x100, DeviceId(0));
        assert!(dir.range_containing(0x1000).is_some());
        assert!(dir.range_containing(0x10ff).is_some());
        assert!(dir.range_containing(0x1100).is_none());
        assert!(dir.range_containing(0xfff).is_none());
        dir.remove(0x1000);
        assert!(dir.range_containing(0x1000).is_none());
    }

    #[test]
    fn write_removes_other_holders_and_queues_pending() {
        let dir = CoherenceDirectory::new();
        let r = dir.ensure(0, 1 << 20, DeviceId(0));
        r.add_holder(5, DeviceId(0));
        r.add_holder(5, DeviceId(1));
        r.add_holder(5, DeviceId(2));
        let victims = r.write(5, DeviceId(1));
        assert_eq!(victims, vec![DeviceId(0), DeviceId(2)], "ascending");
        assert_eq!(r.holders(5), vec![DeviceId(1)], "writer is sole holder");
        assert_eq!(r.drain_pending(DeviceId(0)), vec![5]);
        assert_eq!(r.drain_pending(DeviceId(2)), vec![5]);
        assert!(r.drain_pending(DeviceId(0)).is_empty(), "drained once");
        assert!(r.drain_pending(DeviceId(1)).is_empty(), "writer unaffected");
    }

    #[test]
    fn evicted_duplicates_leave_the_holder_set() {
        let dir = CoherenceDirectory::new();
        let r = dir.ensure(0, 1 << 20, DeviceId(0));
        r.add_holder(7, DeviceId(0));
        r.add_holder(7, DeviceId(1));
        assert_eq!(r.holder_entries(), 2);
        r.remove_holder(7, DeviceId(1));
        assert_eq!(r.holders(7), vec![DeviceId(0)]);
        r.remove_holder(7, DeviceId(0));
        assert_eq!(r.holder_entries(), 0, "empty sets are pruned");
    }

    #[test]
    fn claim_read_drains_pending_and_registers_holders_atomically() {
        let dir = CoherenceDirectory::new();
        let r = dir.ensure(0, 1 << 20, DeviceId(0));
        // Device 1 holds page 4; device 0 writes it → pending for 1.
        r.add_holder(4, DeviceId(1));
        r.write(4, DeviceId(0));
        // Device 1 re-reads pages 4..6: page 4 is locally present but
        // stale, pages 5 is absent, page 3 is validly resident.
        let accessed = PageRange { first: 3, end: 6 };
        // What device 1's own residency denies.
        let mut missing = vec![PageRange { first: 5, end: 6 }];
        let stale = r.claim_read(DeviceId(1), accessed, &mut missing);
        assert_eq!(stale, vec![4], "the drained pending page");
        let merged = PageRange { first: 4, end: 6 };
        assert_eq!(
            missing,
            vec![merged],
            "stale counts as missing, merged into runs"
        );
        // The claim registered device 1 before any data moved.
        assert_eq!(r.holders(4), vec![DeviceId(0), DeviceId(1)]);
        assert_eq!(r.holders(5), vec![DeviceId(1)]);
        assert_eq!(
            r.holders(3),
            Vec::<DeviceId>::new(),
            "valid hit: no new claim"
        );
        // A write landing after the claim now sees the reader.
        assert_eq!(r.write(5, DeviceId(0)), vec![DeviceId(1)]);
        assert_eq!(r.drain_pending(DeviceId(1)), vec![5]);
    }

    #[test]
    fn write_range_batches_under_one_lock_with_page_victims() {
        let dir = CoherenceDirectory::new();
        let r = dir.ensure(0, 1 << 20, DeviceId(0));
        r.add_holder(1, DeviceId(1));
        r.add_holder(2, DeviceId(1));
        r.add_holder(2, DeviceId(2));
        let victims = r.write_range(PageRange { first: 1, end: 4 }, DeviceId(0));
        assert_eq!(
            victims,
            vec![(DeviceId(1), 1), (DeviceId(1), 2), (DeviceId(2), 2)]
        );
        for p in 1..4 {
            assert_eq!(r.holders(p), vec![DeviceId(0)]);
        }
        assert_eq!(r.drain_pending(DeviceId(1)), vec![1, 2]);
        assert_eq!(r.drain_pending(DeviceId(2)), vec![2]);
    }

    #[test]
    fn write_to_unheld_page_claims_it_without_victims() {
        let dir = CoherenceDirectory::new();
        let r = dir.ensure(0, 1 << 20, DeviceId(0));
        assert!(r.write(3, DeviceId(1)).is_empty());
        assert_eq!(r.holders(3), vec![DeviceId(1)]);
    }

    /// The directory as sets: page → holders, device → queued stale pages.
    #[derive(Default)]
    struct Reference {
        holders: BTreeMap<u64, BTreeSet<DeviceId>>,
        pending: BTreeMap<DeviceId, Vec<u64>>,
    }

    /// A run of up to 9 pages starting up to 2 pages outside `span`.
    fn run_near(rng: &mut TestRng, span: PageRange) -> PageRange {
        let first = span.first - 2 + rng.next_u64() % (span.count() + 4);
        let end = first + 1 + rng.next_u64() % 9;
        PageRange { first, end }
    }

    /// Random `claim_read`, `set_holder` (dropping), `write_range` and
    /// `drain_pending` calls against the set reference, over up to 70
    /// devices (the bitsets widen past 64) and ranges whose page count is
    /// no multiple of 64, comparing every page's holders, every device's
    /// pages and whatever is drained after each call.
    #[test]
    fn device_major_bitsets_match_a_set_reference() {
        let cases = [(1, 70), (3, 2), (63, 65), (65, 7), (130, 70), (577, 40)];
        for (case, (pages, devices)) in cases.into_iter().enumerate() {
            let mut rng = TestRng::seeded(&format!("directory-{case}"));
            let base = (64 + case as u64) * PAGE_SIZE;
            let dir = CoherenceDirectory::new();
            let r = dir.ensure(base, pages * PAGE_SIZE - 256, DeviceId(0));
            let span = r.pages();
            assert_eq!(span.count(), pages);
            let mut reference = Reference::default();
            for step in 0..200 {
                let device = DeviceId((rng.next_u64() % devices) as u32);
                let run = run_near(&mut rng, span);
                let inside = move |p: &u64| span.contains(*p);
                match rng.next_u64() % 4 {
                    0 => {
                        let missing: Vec<u64> = run
                            .iter()
                            .filter(|_| !rng.next_u64().is_multiple_of(3))
                            .collect();
                        let stale = reference.pending.remove(&device).unwrap_or_default();
                        let mut want = missing.clone();
                        want.extend(stale.iter().copied().filter(|&p| run.contains(p)));
                        want.sort_unstable();
                        want.dedup();
                        for p in want.iter().copied().filter(inside) {
                            reference.holders.entry(p).or_default().insert(device);
                        }
                        let mut missing: Vec<PageRange> = runs_of(&missing).collect();
                        assert_eq!(r.claim_read(device, run, &mut missing), stale);
                        let want: Vec<PageRange> = runs_of(&want).collect();
                        assert_eq!(missing, want, "case {case} step {step}");
                    }
                    1 => {
                        let runs = [run, run_near(&mut rng, span)];
                        for p in runs.iter().flat_map(|r| r.iter()).filter(inside) {
                            reference.holders.entry(p).or_default().remove(&device);
                        }
                        r.set_holder(runs, device, false);
                    }
                    2 => {
                        let mut want = Vec::new();
                        for p in run.iter().filter(inside) {
                            let held = reference.holders.entry(p).or_default();
                            for &v in held.iter().filter(|&&v| v != device) {
                                reference.pending.entry(v).or_default().push(p);
                                want.push((v, p));
                            }
                            *held = BTreeSet::from([device]);
                        }
                        assert_eq!(r.write_range(run, device), want, "case {case} step {step}");
                    }
                    _ => {
                        let stale = reference.pending.remove(&device).unwrap_or_default();
                        assert_eq!(r.drain_pending(device), stale, "case {case} step {step}");
                    }
                }
                for p in span.first - 1..span.end + 1 {
                    let held = reference.holders.get(&p).into_iter().flatten();
                    let held: Vec<DeviceId> = held.copied().collect();
                    assert_eq!(r.holders(p), held, "case {case} step {step} page {p}");
                }
                for d in (0..devices as u32).map(DeviceId) {
                    let held = reference.holders.iter().filter(|(_, h)| h.contains(&d));
                    let held: Vec<u64> = held.map(|(&p, _)| p).collect();
                    assert_eq!(r.pages_held_by(d), held, "case {case} step {step} {d:?}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The lock-free drop beside the locked claim and write on 1–4
        /// devices: after every call each page's holders and each
        /// device's queued stale pages (read without draining them) equal
        /// the set reference's, and so does what a claim drains.
        #[test]
        fn drops_claims_and_writes_keep_holders_and_pending_exact(
            devices in 1u32..5,
            ops in prop::collection::vec(((0u8..3, 0u32..4), (0u64..26, 1u64..8, any::<u64>())), 1..80)
        ) {
            let dir = CoherenceDirectory::new();
            let r = dir.ensure(64 * PAGE_SIZE + 256, 20 * PAGE_SIZE, DeviceId(0));
            let span = r.pages();
            let inside = move |p: &u64| span.contains(*p);
            let mut reference = Reference::default();
            for ((kind, device), (first, pages, mask)) in ops {
                let device = DeviceId(device % devices);
                let first = span.first - 2 + first;
                let run = PageRange { first, end: first + pages };
                match kind {
                    0 => {
                        let at = |p: u64| mask >> (p - first) & 1 == 1;
                        let missing: Vec<u64> = run.iter().filter(|&p| at(p)).collect();
                        let stale = reference.pending.remove(&device).unwrap_or_default();
                        let mut want = missing.clone();
                        want.extend(stale.iter().copied().filter(|&p| run.contains(p)));
                        want.sort_unstable();
                        want.dedup();
                        for p in want.iter().copied().filter(inside) {
                            reference.holders.entry(p).or_default().insert(device);
                        }
                        let mut missing: Vec<PageRange> = runs_of(&missing).collect();
                        prop_assert_eq!(r.claim_read(device, run, &mut missing), stale);
                        prop_assert_eq!(missing, runs_of(&want).collect::<Vec<_>>());
                    }
                    1 => {
                        for p in run.iter().filter(inside) {
                            reference.holders.entry(p).or_default().remove(&device);
                        }
                        r.set_holder([run], device, false);
                    }
                    _ => {
                        let mut want = Vec::new();
                        for p in run.iter().filter(inside) {
                            let held = reference.holders.entry(p).or_default();
                            for &v in held.iter().filter(|&&v| v != device) {
                                reference.pending.entry(v).or_default().push(p);
                                want.push((v, p));
                            }
                            *held = BTreeSet::from([device]);
                        }
                        prop_assert_eq!(r.write_range(run, device), want);
                    }
                }
                for p in span.first - 1..span.end + 1 {
                    let held = reference.holders.get(&p).into_iter().flatten().copied();
                    prop_assert_eq!(r.holders(p), held.collect::<Vec<_>>(), "page {}", p);
                }
                for d in (0..devices).map(DeviceId) {
                    let pending = reference.pending.get(&d).cloned().unwrap_or_default();
                    prop_assert_eq!(r.pending_of(d), pending, "{:?}", d);
                }
            }
        }
    }
}
