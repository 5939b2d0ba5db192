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
//! * private ranges never reach the directory at all — the residency hot
//!   path for private ranges stays lock-free (measured by the
//!   `uvm_parallel` / `uvm_p2p` benches).
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
//!   and it is updated under the range lock at write time.

use crate::page::{page_range, PageRange};
use accel_sim::sync::Mutex;
use accel_sim::DeviceId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
    state: Mutex<RangeState>,
}

#[derive(Debug)]
struct RangeState {
    holders: Holders,
    /// device → stale pages it must drop before trusting its residency.
    pending: BTreeMap<DeviceId, Vec<u64>>,
}

/// Which devices hold a duplicate of each page of the range (the owner's
/// copy included): one bitset row per page, indexed by the page's offset
/// from the range's first page, bit `d` standing for `DeviceId(d)`. No
/// node per page and none per holder; the rows are allocated when the
/// first holder registers and widened when a device id outgrows them.
#[derive(Debug)]
struct Holders {
    /// Rows: the pages the range overlaps.
    pages: usize,
    /// 64-bit words per row.
    words: usize,
    bits: Vec<u64>,
}

impl Holders {
    fn new(pages: usize) -> Self {
        Holders {
            pages,
            words: 0,
            bits: Vec::new(),
        }
    }

    fn row(&self, slot: usize) -> &[u64] {
        &self.bits[slot * self.words..(slot + 1) * self.words]
    }

    fn row_mut(&mut self, slot: usize) -> &mut [u64] {
        &mut self.bits[slot * self.words..(slot + 1) * self.words]
    }

    /// Sets `device`'s bit in row `slot`, allocating or widening the rows
    /// first when the id outgrows them.
    fn insert(&mut self, slot: usize, device: DeviceId) {
        let words = device.index() / 64 + 1;
        if words > self.words {
            let mut bits = vec![0u64; self.pages * words];
            if self.words > 0 {
                for slot in 0..self.pages {
                    bits[slot * words..slot * words + self.words].copy_from_slice(self.row(slot));
                }
            }
            self.words = words;
            self.bits = bits;
        }
        self.row_mut(slot)[device.index() / 64] |= 1 << (device.index() % 64);
    }

    fn remove(&mut self, slot: usize, device: DeviceId) {
        if let Some(word) = self.row_mut(slot).get_mut(device.index() / 64) {
            *word &= !(1 << (device.index() % 64));
        }
    }

    fn contains(&self, slot: usize, device: DeviceId) -> bool {
        self.row(slot)
            .get(device.index() / 64)
            .is_some_and(|word| word >> (device.index() % 64) & 1 == 1)
    }

    /// The holders of one page, ascending.
    fn devices(&self, slot: usize) -> impl Iterator<Item = DeviceId> + '_ {
        self.row(slot).iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    DeviceId(w as u32 * 64 + bit)
                })
            })
        })
    }
}

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

    /// Row index of `page`, if the range overlaps it.
    fn slot(&self, page: u64) -> Option<usize> {
        self.pages
            .contains(page)
            .then(|| (page - self.pages.first) as usize)
    }

    /// Records that `device` now holds a duplicate of `page`.
    #[cfg(test)]
    pub(crate) fn add_holder(&self, page: u64, device: DeviceId) {
        self.add_holders(std::iter::once(page), device);
    }

    /// Records `device` as a holder of every page in `pages` under one
    /// range-lock acquisition (the fault path registers whole batches).
    pub(crate) fn add_holders(&self, pages: impl IntoIterator<Item = u64>, device: DeviceId) {
        let mut st = self.state.lock();
        for slot in pages.into_iter().filter_map(|p| self.slot(p)) {
            st.holders.insert(slot, device);
        }
    }

    /// Removes `device` from `page`'s holder set (duplicate evicted).
    #[cfg(test)]
    pub(crate) fn remove_holder(&self, page: u64, device: DeviceId) {
        self.remove_holders(&[page], device);
    }

    /// Removes `device` from the holder set of every page in `pages`
    /// under one range-lock acquisition — an access's evicted duplicates
    /// leave in one batch.
    pub(crate) fn remove_holders(&self, pages: &[u64], device: DeviceId) {
        let mut st = self.state.lock();
        for slot in pages.iter().filter_map(|&p| self.slot(p)) {
            st.holders.remove(slot, device);
        }
    }

    /// Devices currently holding `page`, ascending.
    pub fn holders(&self, page: u64) -> Vec<DeviceId> {
        let st = self.state.lock();
        self.slot(page)
            .map(|slot| st.holders.devices(slot).collect())
            .unwrap_or_default()
    }

    /// True when the directory lists `device` as a holder of `page`.
    pub(crate) fn is_holder(&self, page: u64, device: DeviceId) -> bool {
        let st = self.state.lock();
        self.slot(page)
            .is_some_and(|slot| st.holders.contains(slot, device))
    }

    /// A write by `writer` to `page`: every *other* holder is removed
    /// from the directory and queued on its pending-invalidation list;
    /// `writer` becomes the sole holder. Returns the victims (ascending
    /// device id), so the caller can count invalidations and log the
    /// src→dst coherence events.
    pub fn write(&self, page: u64, writer: DeviceId) -> Vec<DeviceId> {
        self.write_range(std::iter::once(page), writer)
            .into_iter()
            .map(|(v, _)| v)
            .collect()
    }

    /// Batched form of [`RangeDirectory::write`]: one lock acquisition
    /// over the whole written page range. Returns `(victim, page)` pairs
    /// in page order (victims ascending within a page).
    pub(crate) fn write_range(
        &self,
        pages: impl IntoIterator<Item = u64>,
        writer: DeviceId,
    ) -> Vec<(DeviceId, u64)> {
        let mut st = self.state.lock();
        let RangeState { holders, pending } = &mut *st;
        let mut victims = Vec::new();
        for page in pages {
            let Some(slot) = self.slot(page) else {
                continue;
            };
            for v in holders.devices(slot).filter(|&d| d != writer) {
                pending.entry(v).or_default().push(page);
                victims.push((v, page));
            }
            holders.row_mut(slot).fill(0);
            holders.insert(slot, writer);
        }
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
    /// `missing` arrives holding the pages of `accessed` the caller's
    /// own residency denies, in page order — residency is lane-local, so
    /// that scan needs no lock and the critical section costs
    /// O(missing + stale) whatever the access spans. It leaves holding
    /// the pages to fetch (claimed, in page order): the same, plus the
    /// drained stale pages that lie in `accessed`. Returns `stale`:
    /// every drained pending-invalid page (accessed or not — drop them
    /// all locally).
    pub(crate) fn claim_read(
        &self,
        device: DeviceId,
        accessed: PageRange,
        missing: &mut Vec<u64>,
    ) -> Vec<u64> {
        let mut st = self.state.lock();
        let stale: Vec<u64> = st.pending.remove(&device).unwrap_or_default();
        let denied = missing.len();
        missing.extend(stale.iter().copied().filter(|&p| accessed.contains(p)));
        if missing.len() > denied {
            // A stale page may also be one the caller already denied,
            // and a page invalidated twice is queued twice.
            missing.sort_unstable();
            missing.dedup();
        }
        for slot in missing.iter().filter_map(|&p| self.slot(p)) {
            st.holders.insert(slot, device);
        }
        stale
    }

    /// Drains `device`'s pending stale pages (set by remote writes since
    /// the last drain). The caller drops them from its local residency.
    pub(crate) fn drain_pending(&self, device: DeviceId) -> Vec<u64> {
        self.state
            .lock()
            .pending
            .remove(&device)
            .unwrap_or_default()
    }

    /// Pages `device` currently holds in this range, ascending — one
    /// lock acquisition (the merge reconciliation's batch query).
    pub fn pages_held_by(&self, device: DeviceId) -> Vec<u64> {
        let st = self.state.lock();
        self.pages
            .iter()
            .enumerate()
            .filter(|&(slot, _)| st.holders.contains(slot, device))
            .map(|(_, p)| p)
            .collect()
    }

    /// Total duplicate entries across all pages (testing/reporting).
    pub fn holder_entries(&self) -> u64 {
        let st = self.state.lock();
        st.holders
            .bits
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum()
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
                state: Mutex::new(RangeState {
                    holders: Holders::new(pages.count() as usize),
                    pending: BTreeMap::new(),
                }),
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

    /// Number of registered shared ranges.
    #[cfg(test)]
    pub(crate) fn range_count(&self) -> usize {
        self.ranges.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut missing = vec![5]; // what device 1's own residency denies
        let stale = r.claim_read(DeviceId(1), accessed, &mut missing);
        assert_eq!(stale, vec![4], "the drained pending page");
        assert_eq!(missing, vec![4, 5], "stale counts as missing");
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
        let victims = r.write_range(1..4, DeviceId(0));
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
}
