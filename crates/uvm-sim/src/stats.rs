//! UVM activity counters.

/// Aggregate UVM statistics across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UvmStats {
    /// Fault groups serviced.
    pub fault_groups: u64,
    /// Pages migrated host→device by demand faulting.
    pub demand_pages_in: u64,
    /// Pages migrated host→device by prefetch.
    pub prefetch_pages_in: u64,
    /// Pages evicted device→host.
    pub pages_evicted: u64,
    /// Device stall caused by demand faults, ns.
    pub fault_stall_ns: u64,
    /// Device stall caused by non-overlapped prefetch, ns.
    pub prefetch_stall_ns: u64,
    /// Device stall caused by eviction write-back, ns.
    pub evict_stall_ns: u64,
    /// Prefetch requests that found all pages already resident.
    pub prefetch_noops: u64,
    /// Pages read-duplicated device→device over the peer link (shared
    /// managed ranges only).
    pub peer_pages_in: u64,
    /// Device stall caused by peer read-duplication, ns.
    pub peer_stall_ns: u64,
    /// Remote duplicate pages invalidated by writes to shared ranges.
    pub duplicates_invalidated: u64,
}

impl UvmStats {
    /// Total pages migrated in from the *host*, by either mechanism
    /// (peer duplications are device→device and counted separately in
    /// [`UvmStats::peer_pages_in`]).
    pub fn pages_in(&self) -> u64 {
        self.demand_pages_in + self.prefetch_pages_in
    }

    /// Total device stall attributable to UVM, ns.
    pub fn total_stall_ns(&self) -> u64 {
        self.fault_stall_ns + self.prefetch_stall_ns + self.evict_stall_ns + self.peer_stall_ns
    }

    /// Folds another counter set into this one, field-wise — the merge
    /// stage of the per-lane UVM shards (every field is a sum, so the
    /// fold is commutative and any merge order yields the same totals).
    pub fn merge_from(&mut self, other: &UvmStats) {
        self.fault_groups += other.fault_groups;
        self.demand_pages_in += other.demand_pages_in;
        self.prefetch_pages_in += other.prefetch_pages_in;
        self.pages_evicted += other.pages_evicted;
        self.fault_stall_ns += other.fault_stall_ns;
        self.prefetch_stall_ns += other.prefetch_stall_ns;
        self.evict_stall_ns += other.evict_stall_ns;
        self.prefetch_noops += other.prefetch_noops;
        self.peer_pages_in += other.peer_pages_in;
        self.peer_stall_ns += other.peer_stall_ns;
        self.duplicates_invalidated += other.duplicates_invalidated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_components() {
        let s = UvmStats {
            fault_groups: 2,
            demand_pages_in: 10,
            prefetch_pages_in: 5,
            pages_evicted: 3,
            fault_stall_ns: 100,
            prefetch_stall_ns: 50,
            evict_stall_ns: 25,
            prefetch_noops: 1,
            peer_pages_in: 6,
            peer_stall_ns: 30,
            duplicates_invalidated: 2,
        };
        assert_eq!(s.pages_in(), 15, "peer pages are not host pages");
        assert_eq!(s.total_stall_ns(), 205, "peer stall is device stall");
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(UvmStats::default().pages_in(), 0);
        assert_eq!(UvmStats::default().total_stall_ns(), 0);
    }

    #[test]
    fn merge_sums_every_field() {
        let a = UvmStats {
            fault_groups: 1,
            demand_pages_in: 2,
            prefetch_pages_in: 3,
            pages_evicted: 4,
            fault_stall_ns: 5,
            prefetch_stall_ns: 6,
            evict_stall_ns: 7,
            prefetch_noops: 8,
            peer_pages_in: 9,
            peer_stall_ns: 10,
            duplicates_invalidated: 11,
        };
        let b = UvmStats {
            fault_groups: 10,
            demand_pages_in: 20,
            prefetch_pages_in: 30,
            pages_evicted: 40,
            fault_stall_ns: 50,
            prefetch_stall_ns: 60,
            evict_stall_ns: 70,
            prefetch_noops: 80,
            peer_pages_in: 90,
            peer_stall_ns: 100,
            duplicates_invalidated: 110,
        };
        let mut ab = a;
        ab.merge_from(&b);
        let mut ba = b;
        ba.merge_from(&a);
        assert_eq!(ab, ba, "field-wise sums commute");
        assert_eq!(ab.fault_groups, 11);
        assert_eq!(ab.pages_in(), 55);
        assert_eq!(ab.peer_pages_in, 99);
        assert_eq!(ab.duplicates_invalidated, 121);
        assert_eq!(ab.total_stall_ns(), 308);
        // The zero counters are the identity element.
        let mut id = a;
        id.merge_from(&UvmStats::default());
        assert_eq!(id, a);
    }
}
