//! Device memory allocation.
//!
//! A first-fit free-list allocator over a virtual address range. Real device
//! allocators are more elaborate, but PASTA only observes *addresses and
//! sizes* of allocations, so first-fit with coalescing reproduces every
//! behaviour the framework depends on: stable addresses, reuse after free,
//! and out-of-memory once capacity is exhausted.

use crate::error::AccelError;
use crate::id::{AllocId, DeviceId};
use std::collections::BTreeMap;
use std::fmt;

/// Alignment of all device allocations, matching CUDA's 256-byte guarantee.
pub const ALLOC_ALIGN: u64 = 256;

/// A pointer into simulated device (or managed) memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DevicePtr(pub u64);

impl DevicePtr {
    /// The raw virtual address.
    pub fn addr(self) -> u64 {
        self.0
    }

    /// Pointer displaced by `off` bytes.
    pub fn offset(self, off: u64) -> DevicePtr {
        DevicePtr(self.0 + off)
    }
}

impl fmt::Display for DevicePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Metadata of a live allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Unique id of the allocation.
    pub id: AllocId,
    /// Base address.
    pub addr: u64,
    /// Size in bytes (as requested, before alignment padding).
    pub size: u64,
    /// True when allocated through the managed (UVM) API.
    pub managed: bool,
}

/// First-fit free-list allocator over `[base, base + capacity)`.
#[derive(Debug)]
pub struct DeviceAllocator {
    base: u64,
    capacity: u64,
    /// Free chunks keyed by start address (BTreeMap keeps them sorted for
    /// neighbour coalescing).
    free: BTreeMap<u64, u64>,
    /// Live allocations keyed by base address.
    live: BTreeMap<u64, Allocation>,
    used: u64,
    next_id: u64,
    peak_used: u64,
}

impl DeviceAllocator {
    /// Creates an allocator over `[base, base + capacity)`.
    pub fn new(base: u64, capacity: u64) -> Self {
        let mut free = BTreeMap::new();
        free.insert(base, capacity);
        DeviceAllocator {
            base,
            capacity,
            free,
            live: BTreeMap::new(),
            used: 0,
            next_id: 1,
            peak_used: 0,
        }
    }

    /// Base address of the managed range.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated (including alignment padding).
    pub fn used(&self) -> u64 {
        self.used
    }

    /// High-water mark of [`used`](Self::used).
    pub fn peak_used(&self) -> u64 {
        self.peak_used
    }

    /// Bytes available for new allocations.
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Allocates `size` bytes, first-fit.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::OutOfMemory`] when no free chunk can hold the
    /// aligned size.
    pub fn alloc(
        &mut self,
        device: DeviceId,
        size: u64,
        managed: bool,
    ) -> Result<Allocation, AccelError> {
        let size = size.max(1);
        let padded = size.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        let slot = self
            .free
            .iter()
            .find(|(_, &len)| len >= padded)
            .map(|(&addr, &len)| (addr, len));
        let (addr, len) = slot.ok_or(AccelError::OutOfMemory {
            device,
            requested: size,
            free: self.free_bytes(),
        })?;
        self.free.remove(&addr);
        if len > padded {
            self.free.insert(addr + padded, len - padded);
        }
        self.used += padded;
        self.peak_used = self.peak_used.max(self.used);
        let id = AllocId(self.next_id);
        self.next_id += 1;
        let alloc = Allocation {
            id,
            addr,
            size,
            managed,
        };
        self.live.insert(addr, alloc.clone());
        Ok(alloc)
    }

    /// Frees the allocation starting at `addr`, coalescing neighbours.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidAddress`] if `addr` is not the base of a
    /// live allocation.
    pub fn free(&mut self, addr: u64) -> Result<Allocation, AccelError> {
        let alloc = self
            .live
            .remove(&addr)
            .ok_or(AccelError::InvalidAddress(addr))?;
        let padded = alloc.size.max(1).div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        self.used -= padded;
        let mut start = addr;
        let mut len = padded;
        // Coalesce with the predecessor if adjacent.
        if let Some((&p_start, &p_len)) = self.free.range(..addr).next_back() {
            if p_start + p_len == start {
                self.free.remove(&p_start);
                start = p_start;
                len += p_len;
            }
        }
        // Coalesce with the successor if adjacent.
        if let Some(&s_len) = self.free.get(&(addr + padded)) {
            self.free.remove(&(addr + padded));
            len += s_len;
        }
        self.free.insert(start, len);
        Ok(alloc)
    }

    /// Looks up the live allocation containing `addr`, if any.
    pub fn find_containing(&self, addr: u64) -> Option<&Allocation> {
        self.live
            .range(..=addr)
            .next_back()
            .map(|(_, a)| a)
            .filter(|a| addr < a.addr + a.size)
    }

    /// Iterates over live allocations in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Allocation> {
        self.live.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(a: &mut DeviceAllocator, size: u64) -> Allocation {
        a.alloc(DeviceId(0), size, false).expect("alloc")
    }

    #[test]
    fn alloc_free_round_trip() {
        let mut a = DeviceAllocator::new(0x1000, 1 << 20);
        let x = alloc(&mut a, 1000);
        assert_eq!(x.addr % ALLOC_ALIGN, 0);
        assert_eq!(a.live_count(), 1);
        assert!(a.used() >= 1000);
        a.free(x.addr).unwrap();
        assert_eq!(a.used(), 0);
        assert_eq!(a.live_count(), 0);
    }

    #[test]
    fn freed_memory_is_reusable() {
        let mut a = DeviceAllocator::new(0, 4096);
        let x = alloc(&mut a, 4096);
        assert!(a.alloc(DeviceId(0), 1, false).is_err());
        a.free(x.addr).unwrap();
        let y = alloc(&mut a, 4096);
        assert_eq!(y.addr, x.addr, "coalesced chunk reused from the start");
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let mut a = DeviceAllocator::new(0, 3 * ALLOC_ALIGN);
        let x = alloc(&mut a, ALLOC_ALIGN);
        let y = alloc(&mut a, ALLOC_ALIGN);
        let z = alloc(&mut a, ALLOC_ALIGN);
        a.free(x.addr).unwrap();
        a.free(z.addr).unwrap();
        a.free(y.addr).unwrap(); // middle free must merge all three
        let w = alloc(&mut a, 3 * ALLOC_ALIGN);
        assert_eq!(w.addr, 0);
    }

    #[test]
    fn oom_reports_free_bytes() {
        let mut a = DeviceAllocator::new(0, 1024);
        let _x = alloc(&mut a, 512);
        let err = a.alloc(DeviceId(3), 4096, false).unwrap_err();
        match err {
            AccelError::OutOfMemory {
                device,
                requested,
                free,
            } => {
                assert_eq!(device, DeviceId(3));
                assert_eq!(requested, 4096);
                assert_eq!(free, 512);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn double_free_is_an_error() {
        let mut a = DeviceAllocator::new(0, 1 << 16);
        let x = alloc(&mut a, 100);
        a.free(x.addr).unwrap();
        assert_eq!(a.free(x.addr), Err(AccelError::InvalidAddress(x.addr)));
    }

    #[test]
    fn find_containing_respects_bounds() {
        let mut a = DeviceAllocator::new(0x1000, 1 << 20);
        let x = alloc(&mut a, 100);
        assert!(a.find_containing(x.addr).is_some());
        assert!(a.find_containing(x.addr + 99).is_some());
        assert!(a.find_containing(x.addr + 100).is_none());
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut a = DeviceAllocator::new(0, 1 << 20);
        let x = alloc(&mut a, 1000);
        let _y = alloc(&mut a, 2000);
        let peak = a.used();
        a.free(x.addr).unwrap();
        assert_eq!(a.peak_used(), peak);
    }
}
