//! A pool-based caching allocator modeled on PyTorch's
//! `CUDACachingAllocator`.
//!
//! The paper's tensor-aware UVM work (§V-C1) hinges on one fact about this
//! allocator: it requests **large segments** from the device runtime
//! (`cudaMalloc`/`cudaMallocManaged`) and then carves tensors out of them,
//! so *a single memory object contains many tensors with different
//! lifetimes and access patterns*. This implementation reproduces the
//! mechanics that matter:
//!
//! * sizes round to 512-byte multiples;
//! * requests under 1 MiB come from 2 MiB "small-pool" segments;
//! * larger requests come from 20 MiB "large-pool" segments, or a
//!   dedicated rounded segment above 10 MiB;
//! * free blocks split on allocation and coalesce with free neighbours on
//!   release;
//! * on out-of-memory the allocator releases cached fully-free segments
//!   and retries before failing.
//!
//! The bookkeeping is PyTorch's too, not a tree per question. Blocks live
//! in a slab (`Vec<Block>`, freed slots chained for reuse) and each carries
//! `prev`/`next` slot links to its address-order neighbours inside its
//! segment, so a release coalesces by reading two links. Each pool keeps
//! one flat list of its free blocks sorted by `(size, address)`: best fit
//! is a binary search for the first entry at or above the rounded size —
//! the lowest-addressed of the smallest blocks that fit. A multiplicative
//! hash maps every block's base address, free or live, to its slot, which
//! is how a release finds its block and tells a double free from a pointer
//! the allocator never produced. Segments are a `Vec` in base order. Every
//! size the allocator holds is a multiple of [`AllocatorConfig::round`]
//! (`AllocatorConfig::validate` is what makes that an invariant), so a
//! split never leaves a remainder the pool could not hand out.

use accel_sim::{AccelError, DevicePtr, DeviceRuntime};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Dedicated ("huge") segments are rounded up to a multiple of this.
const HUGE_GRANULE: u64 = 2 << 20;

/// Allocator tuning knobs (PyTorch defaults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocatorConfig {
    /// Granularity of size rounding, bytes.
    pub round: u64,
    /// Requests at or below this use the small pool.
    pub small_threshold: u64,
    /// Segment size of the small pool.
    pub small_segment: u64,
    /// Segment size of the large pool.
    pub large_segment: u64,
    /// Requests above this get a dedicated, size-rounded segment.
    pub huge_threshold: u64,
    /// Back segments with `cudaMallocManaged` instead of `cudaMalloc`
    /// (the UVM experiments run the allocator in this mode).
    pub use_managed: bool,
}

impl Default for AllocatorConfig {
    fn default() -> Self {
        AllocatorConfig {
            round: 512,
            small_threshold: 1 << 20,
            small_segment: 2 << 20,
            large_segment: 20 << 20,
            huge_threshold: 10 << 20,
            use_managed: false,
        }
    }
}

impl AllocatorConfig {
    /// The managed (UVM) variant: `cudaMallocManaged` calls are far more
    /// expensive than `cudaMalloc`, so UVM-backed pools amortize them with
    /// much larger segments — which is precisely why object-level
    /// prefetching drags so much dead weight per object (paper §V-C1).
    pub fn managed() -> Self {
        AllocatorConfig {
            use_managed: true,
            small_segment: 8 << 20,
            large_segment: 128 << 20,
            huge_threshold: 96 << 20,
            ..AllocatorConfig::default()
        }
    }

    /// Checks what the allocator relies on: every size it will ever hold
    /// is a multiple of `round`, and a fresh segment fits the request
    /// that created it. [`crate::Session`] calls this before it builds a
    /// device's allocator.
    ///
    /// # Errors
    ///
    /// [`AccelError::Config`] naming the field and its value when `round`
    /// is zero or does not divide the 2 MiB granule of dedicated segments
    /// (a split would leave a remainder smaller than `round`), or when a
    /// pool's segment size is not a multiple of `round` or is smaller than
    /// the largest request routed to that pool.
    pub(crate) fn validate(&self) -> Result<(), AccelError> {
        let bad = |field: &str, value: u64, rule: &str| {
            Err(AccelError::Config(format!(
                "AllocatorConfig::{field} = {value}: {rule}"
            )))
        };
        if self.round == 0 || !HUGE_GRANULE.is_multiple_of(self.round) {
            return bad(
                "round",
                self.round,
                "must be non-zero and divide the 2 MiB granule of dedicated segments",
            );
        }
        if !self.small_segment.is_multiple_of(self.round)
            || self.small_segment < self.small_threshold
        {
            return bad(
                "small_segment",
                self.small_segment,
                "must be a multiple of `round` and at least `small_threshold`",
            );
        }
        if !self.large_segment.is_multiple_of(self.round)
            || self.large_segment < self.huge_threshold
        {
            return bad(
                "large_segment",
                self.large_segment,
                "must be a multiple of `round` and at least `huge_threshold`",
            );
        }
        Ok(())
    }
}

/// Which pool a segment belongs to; indexes [`CachingAllocator::free_lists`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pool {
    Small = 0,
    Large = 1,
}

/// "No block" in a slot link.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Block {
    addr: u64,
    size: u64,
    /// Slots of the address-order neighbours inside the same segment; a
    /// spare slot chains to the next spare one through `next`.
    prev: u32,
    next: u32,
    pool: Pool,
    free: bool,
}

#[derive(Debug, Clone, Copy)]
struct Segment {
    base: u64,
    size: u64,
}

/// One free block in its pool's list: `(size, base address, slot)`, so the
/// derived order is best-fit order and a hit needs no second lookup.
type FreeEntry = (u64, u64, u32);

/// Hashes a block address with one multiply. Addresses are the
/// allocator's own — multiples of `round` inside a few segments, never
/// input from outside — so all that is needed is to spread them; the fold
/// brings the product's well-mixed high half down to the bits a table
/// takes its bucket from (the low ones are zero, as the addresses' are).
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(self.0 ^ u64::from(byte));
        }
    }

    fn write_u64(&mut self, addr: u64) {
        let product = addr.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = product ^ (product >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Aggregate allocator statistics (the numbers `reportMemoryUsage` events
/// carry, plus peaks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocatorStats {
    /// Live tensor bytes.
    pub allocated: u64,
    /// Bytes reserved from the device runtime (all segments).
    pub reserved: u64,
    /// High-water mark of `allocated`.
    pub peak_allocated: u64,
    /// High-water mark of `reserved`.
    pub peak_reserved: u64,
    /// Allocation events served.
    pub alloc_events: u64,
    /// Free events served.
    pub free_events: u64,
    /// Segments requested from the device runtime.
    pub segments_created: u64,
    /// Times the allocator had to release cached segments to make room.
    pub cache_flushes: u64,
}

/// The caching allocator for one device.
#[derive(Debug)]
pub struct CachingAllocator {
    config: AllocatorConfig,
    /// Block slab; `spare` heads the chain of unused slots.
    blocks: Vec<Block>,
    spare: u32,
    /// Base address → slot, for every block, free or live.
    slots: HashMap<u64, u32, BuildHasherDefault<AddrHasher>>,
    /// Free blocks per pool, sorted.
    free_lists: [Vec<FreeEntry>; 2],
    /// Segments in base order.
    segments: Vec<Segment>,
    stats: AllocatorStats,
}

impl CachingAllocator {
    /// Creates an allocator with the given config; allocates nothing until
    /// the first request.
    pub fn new(config: AllocatorConfig) -> Self {
        debug_assert_eq!(config.validate(), Ok(()));
        CachingAllocator {
            config,
            blocks: Vec::new(),
            spare: NIL,
            slots: HashMap::default(),
            free_lists: [Vec::new(), Vec::new()],
            segments: Vec::new(),
            stats: AllocatorStats::default(),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> AllocatorStats {
        self.stats
    }

    /// The config in effect.
    pub fn config(&self) -> &AllocatorConfig {
        &self.config
    }

    /// Live segment ranges `(base, size)` — the "memory objects" that
    /// object-level UVM prefetching operates on.
    #[cfg(test)]
    pub(crate) fn segments(&self) -> Vec<(u64, u64)> {
        self.segments.iter().map(|s| (s.base, s.size)).collect()
    }

    /// The segment containing `addr`, if any.
    #[cfg(test)]
    pub(crate) fn segment_of(&self, addr: u64) -> Option<(u64, u64)> {
        let after = self.segments.partition_point(|s| s.base <= addr);
        let seg = self.segments[..after].last()?;
        (addr < seg.base + seg.size).then_some((seg.base, seg.size))
    }

    /// Rounds a request per pool rules.
    fn round_size(&self, bytes: u64) -> u64 {
        bytes.max(1).div_ceil(self.config.round) * self.config.round
    }

    fn pool_for(&self, rounded: u64) -> Pool {
        if rounded <= self.config.small_threshold {
            Pool::Small
        } else {
            Pool::Large
        }
    }

    fn segment_size_for(&self, rounded: u64, pool: Pool) -> u64 {
        match pool {
            Pool::Small => self.config.small_segment,
            Pool::Large => {
                if rounded >= self.config.huge_threshold {
                    rounded.div_ceil(HUGE_GRANULE) * HUGE_GRANULE
                } else {
                    self.config.large_segment
                }
            }
        }
    }

    /// Puts `block` in a slot: the most recently vacated one, else a new
    /// one at the slab's end.
    fn occupy_slot(&mut self, block: Block) -> u32 {
        if self.spare == NIL {
            self.blocks.push(block);
            return (self.blocks.len() - 1) as u32;
        }
        let slot = self.spare;
        self.spare = self.blocks[slot as usize].next;
        self.blocks[slot as usize] = block;
        slot
    }

    /// Forgets the block in `slot` (merged away or released with its
    /// segment): out of the address map, onto the spare chain.
    fn vacate_slot(&mut self, slot: u32) {
        let block = &mut self.blocks[slot as usize];
        self.slots.remove(&block.addr);
        block.next = self.spare;
        self.spare = slot;
    }

    /// Enters the free block in `slot` in its pool's list.
    fn list(&mut self, slot: u32) {
        let Block {
            size, addr, pool, ..
        } = self.blocks[slot as usize];
        let list = &mut self.free_lists[pool as usize];
        let at = list.partition_point(|&(s, a, _)| (s, a) < (size, addr));
        list.insert(at, (size, addr, slot));
    }

    /// Removes the free block in `slot` from its pool's list.
    fn unlist(&mut self, slot: u32) {
        let Block {
            size, addr, pool, ..
        } = self.blocks[slot as usize];
        let list = &mut self.free_lists[pool as usize];
        let at = list
            .binary_search_by(|&(s, a, _)| (s, a).cmp(&(size, addr)))
            .expect("a free block is in its pool's list");
        list.remove(at);
    }

    /// The block in `slot` swallows its successor, whose slot and address
    /// are forgotten.
    fn absorb_next(&mut self, slot: u32) {
        let next_slot = self.blocks[slot as usize].next;
        let next = self.blocks[next_slot as usize];
        self.vacate_slot(next_slot);
        let merged = &mut self.blocks[slot as usize];
        merged.size += next.size;
        merged.next = next.next;
        if next.next != NIL {
            self.blocks[next.next as usize].prev = slot;
        }
    }

    /// Takes a best-fit free block from `pool`, splitting the remainder.
    fn take_from_pool(&mut self, pool: Pool, rounded: u64) -> Option<u64> {
        let list = &mut self.free_lists[pool as usize];
        // The first entry at or above `(rounded, 0)`.
        let at = list.partition_point(|&(size, ..)| size < rounded);
        let &(size, addr, slot) = list.get(at)?;
        let block = &mut self.blocks[slot as usize];
        debug_assert!(block.free && block.size == size && block.addr == addr);
        block.free = false;
        if size == rounded {
            list.remove(at);
            return Some(addr);
        }
        // Split: the tail — a multiple of `round`, as both sizes are —
        // becomes a new free block, linked in after the taken head.
        block.size = rounded;
        let tail = Block {
            addr: addr + rounded,
            size: size - rounded,
            prev: slot,
            next: block.next,
            pool,
            free: true,
        };
        let tail_slot = self.occupy_slot(tail);
        self.blocks[slot as usize].next = tail_slot;
        if tail.next != NIL {
            self.blocks[tail.next as usize].prev = tail_slot;
        }
        self.slots.insert(tail.addr, tail_slot);
        // The tail sorts at or before the entry it replaces: one shift of
        // the entries between the two, not a removal and an insertion.
        let list = &mut self.free_lists[pool as usize];
        let to = list[..at].partition_point(|&(s, a, _)| (s, a) < (tail.size, tail.addr));
        list[to..=at].rotate_right(1);
        list[to] = (tail.size, tail.addr, tail_slot);
        Some(addr)
    }

    fn add_segment(
        &mut self,
        rt: &mut dyn DeviceRuntime,
        size: u64,
        pool: Pool,
    ) -> Result<(), AccelError> {
        let ptr = if self.config.use_managed {
            rt.malloc_managed(size)?
        } else {
            rt.malloc(size)?
        };
        let base = ptr.addr();
        let at = self.segments.partition_point(|s| s.base < base);
        self.segments.insert(at, Segment { base, size });
        let slot = self.occupy_slot(Block {
            addr: base,
            size,
            prev: NIL,
            next: NIL,
            pool,
            free: true,
        });
        self.slots.insert(base, slot);
        self.list(slot);
        self.stats.reserved += size;
        self.stats.peak_reserved = self.stats.peak_reserved.max(self.stats.reserved);
        self.stats.segments_created += 1;
        Ok(())
    }

    /// Releases fully-free cached segments back to the runtime
    /// (`torch.cuda.empty_cache()`'s behaviour under memory pressure).
    pub fn release_cached_segments(&mut self, rt: &mut dyn DeviceRuntime) -> u64 {
        let mut released = 0;
        let mut at = 0;
        while let Some(&seg) = self.segments.get(at) {
            let slot = self.slots[&seg.base];
            let head = self.blocks[slot as usize];
            if !(head.free && head.size == seg.size) {
                at += 1;
                continue;
            }
            self.segments.remove(at);
            self.unlist(slot);
            self.vacate_slot(slot);
            // Ignore runtime errors on teardown paths (C-DTOR-FAIL spirit).
            let _ = rt.free(DevicePtr(seg.base));
            self.stats.reserved -= seg.size;
            released += seg.size;
        }
        released
    }

    /// Allocates `bytes`, returning the block base address and the rounded
    /// size actually reserved for it.
    ///
    /// # Errors
    ///
    /// Returns the runtime's [`AccelError::OutOfMemory`] when even after
    /// releasing cached segments no segment can be created.
    pub fn alloc(
        &mut self,
        rt: &mut dyn DeviceRuntime,
        bytes: u64,
    ) -> Result<(DevicePtr, u64), AccelError> {
        let rounded = self.round_size(bytes);
        let pool = self.pool_for(rounded);
        if let Some(addr) = self.take_from_pool(pool, rounded) {
            self.finish_alloc(rounded);
            return Ok((DevicePtr(addr), rounded));
        }
        let seg_size = self.segment_size_for(rounded, pool);
        match self.add_segment(rt, seg_size, pool) {
            Ok(()) => {}
            Err(_oom) => {
                // PyTorch behaviour: flush the cache and retry once.
                self.stats.cache_flushes += 1;
                self.release_cached_segments(rt);
                self.add_segment(rt, seg_size, pool)?;
            }
        }
        let addr = self
            .take_from_pool(pool, rounded)
            .expect("fresh segment satisfies request");
        self.finish_alloc(rounded);
        Ok((DevicePtr(addr), rounded))
    }

    fn finish_alloc(&mut self, rounded: u64) {
        self.stats.allocated += rounded;
        self.stats.peak_allocated = self.stats.peak_allocated.max(self.stats.allocated);
        self.stats.alloc_events += 1;
    }

    /// Returns a block to its pool, coalescing free neighbours within the
    /// same segment.
    ///
    /// # Panics
    ///
    /// Panics on double-free or a pointer the allocator never produced —
    /// both are framework bugs, as in PyTorch.
    pub fn free(&mut self, ptr: DevicePtr) -> u64 {
        let addr = ptr.addr();
        let mut slot = *self
            .slots
            .get(&addr)
            .unwrap_or_else(|| panic!("free of unknown block {addr:#x}"));
        let block = self.blocks[slot as usize];
        assert!(!block.free, "double free of block {addr:#x}");
        let rounded = block.size;

        // A free predecessor swallows this block and keeps its own slot
        // and address; then whichever block now stands here swallows a
        // free successor.
        if block.prev != NIL && self.blocks[block.prev as usize].free {
            slot = block.prev;
            self.unlist(slot);
            self.absorb_next(slot);
        }
        let next = self.blocks[slot as usize].next;
        if next != NIL && self.blocks[next as usize].free {
            self.unlist(next);
            self.absorb_next(slot);
        }
        self.blocks[slot as usize].free = true;
        self.list(slot);
        self.stats.allocated -= rounded;
        self.stats.free_events += 1;
        rounded
    }
}

#[cfg(test)]
mod reference {
    //! The allocator this module held through PR 18 — a `BTreeMap` of
    //! blocks, a `BTreeSet` free index per pool, a `BTreeMap` of segments —
    //! kept as the reference the slab allocator is checked against, step
    //! for step.

    use super::{AllocatorConfig, AllocatorStats};
    use accel_sim::{AccelError, DevicePtr, DeviceRuntime};
    use std::collections::{BTreeMap, BTreeSet};

    /// Which pool a segment belongs to.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    enum Pool {
        Small,
        Large,
    }

    #[derive(Debug, Clone, Copy)]
    struct Block {
        size: u64,
        free: bool,
        segment_base: u64,
    }

    #[derive(Debug, Clone)]
    struct Segment {
        base: u64,
        size: u64,
        pool: Pool,
    }

    /// The caching allocator for one device.
    #[derive(Debug)]
    pub struct CachingAllocator {
        config: AllocatorConfig,
        /// All blocks, keyed by base address.
        blocks: BTreeMap<u64, Block>,
        /// Free-block index per pool: (size, addr) for best-fit.
        free_index: BTreeMap<Pool, BTreeSet<(u64, u64)>>,
        /// Segments by base address.
        segments: BTreeMap<u64, Segment>,
        stats: AllocatorStats,
    }

    impl CachingAllocator {
        /// Creates an allocator with the given config.
        pub fn new(config: AllocatorConfig) -> Self {
            let mut free_index = BTreeMap::new();
            free_index.insert(Pool::Small, BTreeSet::new());
            free_index.insert(Pool::Large, BTreeSet::new());
            CachingAllocator {
                config,
                blocks: BTreeMap::new(),
                free_index,
                segments: BTreeMap::new(),
                stats: AllocatorStats::default(),
            }
        }

        /// Current statistics.
        pub fn stats(&self) -> AllocatorStats {
            self.stats
        }

        /// Live segment ranges `(base, size)` — the "memory objects" that
        /// object-level UVM prefetching operates on.
        pub(crate) fn segments(&self) -> Vec<(u64, u64)> {
            self.segments.values().map(|s| (s.base, s.size)).collect()
        }

        /// The segment containing `addr`, if any.
        pub(crate) fn segment_of(&self, addr: u64) -> Option<(u64, u64)> {
            self.segments
                .range(..=addr)
                .next_back()
                .map(|(_, s)| (s.base, s.size))
                .filter(|&(base, size)| addr < base + size)
        }

        /// Rounds a request per pool rules.
        fn round_size(&self, bytes: u64) -> u64 {
            bytes.max(1).div_ceil(self.config.round) * self.config.round
        }

        fn pool_for(&self, rounded: u64) -> Pool {
            if rounded <= self.config.small_threshold {
                Pool::Small
            } else {
                Pool::Large
            }
        }

        fn segment_size_for(&self, rounded: u64, pool: Pool) -> u64 {
            match pool {
                Pool::Small => self.config.small_segment,
                Pool::Large => {
                    if rounded >= self.config.huge_threshold {
                        rounded.div_ceil(2 << 20) * (2 << 20)
                    } else {
                        self.config.large_segment
                    }
                }
            }
        }

        /// Takes a best-fit free block from `pool`, splitting the remainder.
        fn take_from_pool(&mut self, pool: Pool, rounded: u64) -> Option<u64> {
            let index = self.free_index.get_mut(&pool)?;
            let &(size, addr) = index.range((rounded, 0)..).next()?;
            index.remove(&(size, addr));
            let block = self.blocks.get_mut(&addr).expect("indexed block exists");
            debug_assert!(block.free && block.size == size);
            let segment_base = block.segment_base;
            if size > rounded && size - rounded >= self.config.round {
                // Split: the tail becomes a new free block.
                block.size = rounded;
                block.free = false;
                let tail_addr = addr + rounded;
                let tail_size = size - rounded;
                self.blocks.insert(
                    tail_addr,
                    Block {
                        size: tail_size,
                        free: true,
                        segment_base,
                    },
                );
                self.free_index
                    .get_mut(&pool)
                    .expect("pool index")
                    .insert((tail_size, tail_addr));
            } else {
                block.free = false;
            }
            Some(addr)
        }

        fn add_segment(
            &mut self,
            rt: &mut dyn DeviceRuntime,
            size: u64,
            pool: Pool,
        ) -> Result<(), AccelError> {
            let ptr = if self.config.use_managed {
                rt.malloc_managed(size)?
            } else {
                rt.malloc(size)?
            };
            let base = ptr.addr();
            self.segments.insert(base, Segment { base, size, pool });
            self.blocks.insert(
                base,
                Block {
                    size,
                    free: true,
                    segment_base: base,
                },
            );
            self.free_index
                .get_mut(&pool)
                .expect("pool index")
                .insert((size, base));
            self.stats.reserved += size;
            self.stats.peak_reserved = self.stats.peak_reserved.max(self.stats.reserved);
            self.stats.segments_created += 1;
            Ok(())
        }

        /// Releases fully-free cached segments back to the runtime
        /// (`torch.cuda.empty_cache()`'s behaviour under memory pressure).
        pub fn release_cached_segments(&mut self, rt: &mut dyn DeviceRuntime) -> u64 {
            let releasable: Vec<u64> = self
                .segments
                .values()
                .filter(|s| {
                    self.blocks
                        .get(&s.base)
                        .is_some_and(|b| b.free && b.size == s.size)
                })
                .map(|s| s.base)
                .collect();
            let mut released = 0;
            for base in releasable {
                let seg = self.segments.remove(&base).expect("segment exists");
                self.blocks.remove(&base);
                self.free_index
                    .get_mut(&seg.pool)
                    .expect("pool index")
                    .remove(&(seg.size, base));
                // Ignore runtime errors on teardown paths (C-DTOR-FAIL spirit).
                let _ = rt.free(DevicePtr(base));
                self.stats.reserved -= seg.size;
                released += seg.size;
            }
            released
        }

        /// Allocates `bytes`, returning the block base address and the rounded
        /// size actually reserved for it.
        ///
        /// # Errors
        ///
        /// Returns the runtime's [`AccelError::OutOfMemory`] when even after
        /// releasing cached segments no segment can be created.
        pub fn alloc(
            &mut self,
            rt: &mut dyn DeviceRuntime,
            bytes: u64,
        ) -> Result<(DevicePtr, u64), AccelError> {
            let rounded = self.round_size(bytes);
            let pool = self.pool_for(rounded);
            if let Some(addr) = self.take_from_pool(pool, rounded) {
                self.finish_alloc(rounded);
                return Ok((DevicePtr(addr), rounded));
            }
            let seg_size = self.segment_size_for(rounded, pool);
            match self.add_segment(rt, seg_size, pool) {
                Ok(()) => {}
                Err(_oom) => {
                    // PyTorch behaviour: flush the cache and retry once.
                    self.stats.cache_flushes += 1;
                    self.release_cached_segments(rt);
                    self.add_segment(rt, seg_size, pool)?;
                }
            }
            let addr = self
                .take_from_pool(pool, rounded)
                .expect("fresh segment satisfies request");
            self.finish_alloc(rounded);
            Ok((DevicePtr(addr), rounded))
        }

        fn finish_alloc(&mut self, rounded: u64) {
            self.stats.allocated += rounded;
            self.stats.peak_allocated = self.stats.peak_allocated.max(self.stats.allocated);
            self.stats.alloc_events += 1;
        }

        /// Returns a block to its pool, coalescing free neighbours within the
        /// same segment.
        ///
        /// # Panics
        ///
        /// Panics on double-free or a pointer the allocator never produced —
        /// both are framework bugs, as in PyTorch.
        pub fn free(&mut self, ptr: DevicePtr) -> u64 {
            let addr = ptr.addr();
            let block = *self
                .blocks
                .get(&addr)
                .unwrap_or_else(|| panic!("free of unknown block {addr:#x}"));
            assert!(!block.free, "double free of block {addr:#x}");
            let seg = self.segments[&block.segment_base].clone();
            let pool = seg.pool;
            let rounded = block.size;

            let mut start = addr;
            let mut size = block.size;
            // Coalesce with the previous block when free and in-segment.
            if let Some((&p_addr, &p)) = self.blocks.range(..addr).next_back() {
                if p.free && p.segment_base == block.segment_base && p_addr + p.size == addr {
                    self.free_index
                        .get_mut(&pool)
                        .expect("pool index")
                        .remove(&(p.size, p_addr));
                    self.blocks.remove(&p_addr);
                    start = p_addr;
                    size += p.size;
                }
            }
            // Coalesce with the next block.
            let next_addr = addr + block.size;
            if let Some(&n) = self.blocks.get(&next_addr) {
                if n.free && n.segment_base == block.segment_base {
                    self.free_index
                        .get_mut(&pool)
                        .expect("pool index")
                        .remove(&(n.size, next_addr));
                    self.blocks.remove(&next_addr);
                    size += n.size;
                }
            }
            self.blocks.remove(&addr);
            self.blocks.insert(
                start,
                Block {
                    size,
                    free: true,
                    segment_base: block.segment_base,
                },
            );
            self.free_index
                .get_mut(&pool)
                .expect("pool index")
                .insert((size, start));
            self.stats.allocated -= rounded;
            self.stats.free_events += 1;
            rounded
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::{DeviceRuntime, DeviceSpec};
    use proptest::prelude::*;
    use vendor_nv::CudaContext;

    fn rt() -> CudaContext {
        CudaContext::new(vec![DeviceSpec::rtx_3060()])
    }

    #[test]
    fn small_allocations_share_a_segment() {
        let mut rt = rt();
        let mut a = CachingAllocator::new(AllocatorConfig::default());
        let (p1, _) = a.alloc(&mut rt, 100 << 10).unwrap();
        let (p2, _) = a.alloc(&mut rt, 100 << 10).unwrap();
        assert_eq!(a.segments().len(), 1, "two small tensors, one object");
        let seg = a.segment_of(p1.addr()).unwrap();
        assert_eq!(a.segment_of(p2.addr()).unwrap(), seg);
        assert_eq!(seg.1, 2 << 20);
        // The backing runtime saw exactly one cudaMalloc.
        assert_eq!(rt.stats(accel_sim::DeviceId(0)).allocs, 1);
    }

    #[test]
    fn sizes_round_to_512() {
        let mut rt = rt();
        let mut a = CachingAllocator::new(AllocatorConfig::default());
        let (_, rounded) = a.alloc(&mut rt, 1).unwrap();
        assert_eq!(rounded, 512);
        let (_, rounded) = a.alloc(&mut rt, 513).unwrap();
        assert_eq!(rounded, 1024);
    }

    #[test]
    fn freed_blocks_are_reused_not_returned() {
        let mut rt = rt();
        let mut a = CachingAllocator::new(AllocatorConfig::default());
        let (p1, _) = a.alloc(&mut rt, 512 << 10).unwrap();
        a.free(p1);
        let reserved = a.stats().reserved;
        let (p2, _) = a.alloc(&mut rt, 512 << 10).unwrap();
        assert_eq!(p1, p2, "cached block reused");
        assert_eq!(a.stats().reserved, reserved, "no new segment");
        assert_eq!(
            rt.stats(accel_sim::DeviceId(0)).frees,
            0,
            "nothing freed to runtime"
        );
    }

    #[test]
    fn coalescing_allows_big_reuse() {
        let mut rt = rt();
        let mut a = CachingAllocator::new(AllocatorConfig::default());
        let (p1, _) = a.alloc(&mut rt, 512 << 10).unwrap();
        let (p2, _) = a.alloc(&mut rt, 512 << 10).unwrap();
        let (p3, _) = a.alloc(&mut rt, 512 << 10).unwrap();
        a.free(p1);
        a.free(p3);
        a.free(p2); // middle free merges all three + the tail
                    // The whole 2 MiB segment is one free block again: a 1.5 MiB small
                    // request would not fit the small pool, but 1 MiB does.
        let (p4, _) = a.alloc(&mut rt, 1 << 20).unwrap();
        assert_eq!(p4, p1, "coalesced run starts at the segment base");
    }

    #[test]
    fn huge_allocations_get_dedicated_segments() {
        let mut rt = rt();
        let mut a = CachingAllocator::new(AllocatorConfig::default());
        let (_p, _) = a.alloc(&mut rt, 64 << 20).unwrap();
        let segs = a.segments();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].1, 64 << 20, "rounded to 2 MiB multiples");
    }

    #[test]
    fn large_pool_uses_20mib_segments() {
        let mut rt = rt();
        let mut a = CachingAllocator::new(AllocatorConfig::default());
        let (_p, _) = a.alloc(&mut rt, 3 << 20).unwrap();
        assert_eq!(a.segments()[0].1, 20 << 20);
        // A second 3 MiB tensor fits the same 20 MiB object.
        let (_q, _) = a.alloc(&mut rt, 3 << 20).unwrap();
        assert_eq!(a.segments().len(), 1);
    }

    #[test]
    fn stats_track_peaks_and_events() {
        let mut rt = rt();
        let mut a = CachingAllocator::new(AllocatorConfig::default());
        let (p1, r1) = a.alloc(&mut rt, 1 << 20).unwrap();
        let (_p2, r2) = a.alloc(&mut rt, 1 << 20).unwrap();
        assert_eq!(a.stats().allocated, r1 + r2);
        a.free(p1);
        assert_eq!(a.stats().allocated, r2);
        assert_eq!(a.stats().peak_allocated, r1 + r2);
        assert_eq!(a.stats().alloc_events, 2);
        assert_eq!(a.stats().free_events, 1);
    }

    #[test]
    fn oom_flushes_cache_and_retries() {
        let mut rt = rt();
        rt.engine_mut()
            .device_mut(accel_sim::DeviceId(0))
            .limit_usable_capacity(64 << 20);
        let mut a = CachingAllocator::new(AllocatorConfig::default());
        let (p, _) = a.alloc(&mut rt, 40 << 20).unwrap();
        a.free(p); // cached, still reserved
                   // 40 MiB is cached; a 60 MiB request cannot fit alongside it.
        let r = a.alloc(&mut rt, 60 << 20);
        assert!(r.is_ok(), "cache flush must free room: {r:?}");
        assert_eq!(a.stats().cache_flushes, 1);
    }

    #[test]
    fn oom_propagates_when_truly_full() {
        let mut rt = rt();
        rt.engine_mut()
            .device_mut(accel_sim::DeviceId(0))
            .limit_usable_capacity(16 << 20);
        let mut a = CachingAllocator::new(AllocatorConfig::default());
        assert!(matches!(
            a.alloc(&mut rt, 64 << 20),
            Err(AccelError::OutOfMemory { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut rt = rt();
        let mut a = CachingAllocator::new(AllocatorConfig::default());
        let (p, _) = a.alloc(&mut rt, 4096).unwrap();
        a.free(p);
        a.free(p);
    }

    #[test]
    fn managed_mode_allocates_managed_segments() {
        let mut rt = rt();
        let mut a = CachingAllocator::new(AllocatorConfig::managed());
        let (p, _) = a.alloc(&mut rt, 1 << 20).unwrap();
        assert!(accel_sim::Engine::is_managed_addr(p.addr()));
    }

    #[test]
    fn bundled_configs_validate_and_hostile_ones_name_their_field() {
        assert_eq!(AllocatorConfig::default().validate(), Ok(()));
        assert_eq!(AllocatorConfig::managed().validate(), Ok(()));
        let hostile = [
            // Division by zero in `round_size`.
            (
                "round = 0",
                AllocatorConfig {
                    round: 0,
                    ..AllocatorConfig::default()
                },
            ),
            // A split remainder below `round`: `allocated` would drift.
            (
                "round = 768",
                AllocatorConfig {
                    round: 768,
                    ..AllocatorConfig::default()
                },
            ),
            (
                "round = 4194304",
                AllocatorConfig {
                    round: 4 << 20,
                    ..AllocatorConfig::default()
                },
            ),
            (
                "small_segment = 2097408",
                AllocatorConfig {
                    small_segment: (2 << 20) + 256,
                    ..AllocatorConfig::default()
                },
            ),
            // A fresh segment smaller than the request that created it.
            (
                "small_segment = 524288",
                AllocatorConfig {
                    small_segment: 512 << 10,
                    ..AllocatorConfig::default()
                },
            ),
            (
                "large_segment = 8388608",
                AllocatorConfig {
                    large_segment: 8 << 20,
                    ..AllocatorConfig::default()
                },
            ),
            (
                "large_segment = 20971776",
                AllocatorConfig {
                    large_segment: (20 << 20) + 256,
                    ..AllocatorConfig::default()
                },
            ),
        ];
        for (names, config) in hostile {
            match config.validate() {
                Err(AccelError::Config(message)) => assert!(
                    message.starts_with(&format!("AllocatorConfig::{names}:")),
                    "`{message}` should name `{names}`"
                ),
                other => panic!("{names}: expected a config error, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "free of unknown block")]
    fn freeing_a_pointer_never_produced_panics() {
        let mut rt = rt();
        let mut a = CachingAllocator::new(AllocatorConfig::default());
        let (p, _) = a.alloc(&mut rt, 4096).unwrap();
        a.free(DevicePtr(p.addr() + 512));
    }

    /// What a panicking call said.
    fn panic_text<T>(call: impl FnOnce() -> T) -> Result<T, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(call))
            .map_err(|payload| accel_sim::panic_message(payload.as_ref()))
    }

    /// Request sizes that reach every route: the small pool, the large
    /// pool and dedicated segments, with exact and ragged sizes in each.
    fn script_size(pick: u64) -> u64 {
        match pick % 16 {
            0..=6 => 1 + pick % (64 << 10),
            7..=9 => 1 + pick % (1 << 20),
            10 => 512 << (pick % 12),
            11..=13 => (1 << 20) + pick % (8 << 20),
            14 => (10 << 20) + pick % (30 << 20),
            _ => 1 + pick % 2048,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any script of allocations, releases (of live blocks, of blocks
        /// already released or merged away, of pointers never produced),
        /// cache flushes and out-of-memory retries leaves the slab
        /// allocator and the tree reference it replaced with the same
        /// addresses, rounded sizes, statistics and segments after every
        /// step, and panicking with the same words.
        #[test]
        fn slab_allocator_matches_the_tree_reference(
            managed in any::<bool>(),
            capacity_mib in 24u64..160,
            ops in prop::collection::vec((0u8..10, any::<u64>()), 1..120)
        ) {
            let config = if managed { AllocatorConfig::managed() } else { AllocatorConfig::default() };
            // One runtime each: both hand out the same addresses for the
            // same calls, and the capacity limit makes the unmanaged
            // scripts run out of memory.
            let limited = || {
                let mut rt = rt();
                rt.engine_mut()
                    .device_mut(accel_sim::DeviceId(0))
                    .limit_usable_capacity(capacity_mib << 20);
                rt
            };
            let (mut rt_a, mut rt_b) = (limited(), limited());
            let mut slab = CachingAllocator::new(config.clone());
            let mut tree = reference::CachingAllocator::new(config);
            let mut live: Vec<DevicePtr> = Vec::new();
            let mut dead: Vec<DevicePtr> = Vec::new();
            for &(op, pick) in &ops {
                match op {
                    0..=4 => {
                        let got = slab.alloc(&mut rt_a, script_size(pick));
                        let want = tree.alloc(&mut rt_b, script_size(pick));
                        prop_assert_eq!(&got, &want);
                        if let Ok((ptr, _)) = got {
                            live.push(ptr);
                        }
                    }
                    5..=7 if !live.is_empty() => {
                        let ptr = live.swap_remove(pick as usize % live.len());
                        prop_assert_eq!(slab.free(ptr), tree.free(ptr));
                        dead.push(ptr);
                    }
                    8 => {
                        // A released block (a double free while it stands
                        // alone, unknown once merged away or reused as a
                        // live block's interior) or an address inside one.
                        let ptr = match dead.len() {
                            0 => DevicePtr(live.first().map_or(pick, |p| p.addr() + 256)),
                            n => dead[pick as usize % n],
                        };
                        if live.contains(&ptr) {
                            continue;
                        }
                        let got = panic_text(|| slab.free(ptr));
                        let want = panic_text(|| tree.free(ptr));
                        prop_assert!(got.is_err(), "freeing {ptr:?} must panic");
                        prop_assert_eq!(got, want);
                    }
                    _ => prop_assert_eq!(
                        slab.release_cached_segments(&mut rt_a),
                        tree.release_cached_segments(&mut rt_b)
                    ),
                }
                prop_assert_eq!(slab.stats(), tree.stats());
                prop_assert_eq!(slab.segments(), tree.segments());
                for &(base, size) in &tree.segments() {
                    for addr in [base.wrapping_sub(1), base, base + size - 1, base + size] {
                        prop_assert_eq!(slab.segment_of(addr), tree.segment_of(addr));
                    }
                }
                for ptr in live.iter().chain(&dead) {
                    prop_assert_eq!(slab.segment_of(ptr.addr()), tree.segment_of(ptr.addr()));
                }
                prop_assert_eq!(
                    rt_a.stats(accel_sim::DeviceId(0)),
                    rt_b.stats(accel_sim::DeviceId(0))
                );
            }
        }
    }

    #[test]
    fn release_cached_segments_returns_memory() {
        let mut rt = rt();
        let mut a = CachingAllocator::new(AllocatorConfig::default());
        let (p, _) = a.alloc(&mut rt, 30 << 20).unwrap();
        a.free(p);
        let released = a.release_cached_segments(&mut rt);
        assert_eq!(released, 30 << 20);
        assert_eq!(a.stats().reserved, 0);
        assert_eq!(rt.stats(accel_sim::DeviceId(0)).frees, 1);
    }
}
