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

use accel_sim::{AccelError, DevicePtr, DeviceRuntime};
use std::collections::{BTreeMap, BTreeSet};

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
}

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

    /// The config in effect.
    pub fn config(&self) -> &AllocatorConfig {
        &self.config
    }

    /// Live segment ranges `(base, size)` — the "memory objects" that
    /// object-level UVM prefetching operates on.
    pub fn segments(&self) -> Vec<(u64, u64)> {
        self.segments.values().map(|s| (s.base, s.size)).collect()
    }

    /// The segment containing `addr`, if any.
    pub fn segment_of(&self, addr: u64) -> Option<(u64, u64)> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::{DeviceRuntime, DeviceSpec};
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
