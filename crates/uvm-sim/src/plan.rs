//! Prefetch plans.
//!
//! The paper's tensor-aware UVM prefetcher (§V-C1) profiles a run with
//! PASTA, correlates kernels with the memory objects and tensors they
//! access, and generates a **multi-level prefetching scheme**: before each
//! kernel launch, prefetch either the whole memory *objects* it touches
//! (object-level) or only the *tensors* it touches (tensor-level). A
//! [`PrefetchPlan`] is that scheme; the vendor runtimes replay it.

/// A contiguous byte range in managed memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Range {
    /// Base address.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Range {
    /// Constructs a range.
    pub fn new(base: u64, len: u64) -> Self {
        Range { base, len }
    }

    /// Exclusive end address.
    pub fn end(&self) -> u64 {
        self.base + self.len
    }
}

/// Granularity of a prefetch plan, matching the paper's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchGranularity {
    /// No prefetching (the baseline: pure demand paging).
    None,
    /// Prefetch every memory *object* (allocator segment) the kernel
    /// touches — the conventional strategy of prior UVM work.
    Object,
    /// Prefetch only the *tensors* the kernel touches — PASTA's
    /// tensor-aware strategy enabled by cross-layer event capture.
    Tensor,
}

impl PrefetchGranularity {
    /// Human-readable label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            PrefetchGranularity::None => "no-prefetch",
            PrefetchGranularity::Object => "object-level",
            PrefetchGranularity::Tensor => "tensor-level",
        }
    }
}

/// Ranges to prefetch before each kernel launch, indexed by the launch
/// sequence number local to the planned run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefetchPlan {
    /// Strategy that produced the plan.
    pub granularity: Option<PrefetchGranularity>,
    per_launch: Vec<Vec<Range>>,
}

impl PrefetchPlan {
    /// An empty plan for `launches` upcoming kernels.
    pub fn with_capacity(launches: usize) -> Self {
        PrefetchPlan {
            granularity: None,
            per_launch: vec![Vec::new(); launches],
        }
    }

    /// Adds a range to prefetch before launch `index`, growing the plan if
    /// needed and merging exact duplicates.
    pub fn add(&mut self, index: usize, range: Range) {
        if range.len == 0 {
            return;
        }
        if index >= self.per_launch.len() {
            self.per_launch.resize(index + 1, Vec::new());
        }
        let slot = &mut self.per_launch[index];
        if !slot.contains(&range) {
            slot.push(range);
        }
    }

    /// Ranges planned before launch `index` (empty when past the plan).
    pub fn ranges_for(&self, index: usize) -> &[Range] {
        self.per_launch.get(index).map_or(&[], Vec::as_slice)
    }

    /// Number of launches covered.
    pub fn len(&self) -> usize {
        self.per_launch.len()
    }

    /// True when no launch has any planned range.
    pub fn is_empty(&self) -> bool {
        self.per_launch.iter().all(Vec::is_empty)
    }

    /// Total bytes the plan will prefetch (ignoring residency).
    pub fn total_bytes(&self) -> u64 {
        self.per_launch.iter().flatten().map(|r| r.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_end_is_exclusive() {
        assert_eq!(Range::new(0, 100).end(), 100);
    }

    #[test]
    fn plan_grows_and_dedups() {
        let mut p = PrefetchPlan::default();
        p.add(3, Range::new(0, 10));
        p.add(3, Range::new(0, 10)); // duplicate
        p.add(3, Range::new(20, 10));
        assert_eq!(p.len(), 4);
        assert_eq!(p.ranges_for(3).len(), 2);
        assert!(p.ranges_for(0).is_empty());
        assert!(p.ranges_for(99).is_empty());
        assert_eq!(p.total_bytes(), 20);
    }

    #[test]
    fn zero_length_ranges_ignored() {
        let mut p = PrefetchPlan::default();
        p.add(0, Range::new(5, 0));
        assert!(p.is_empty());
    }

    #[test]
    fn labels() {
        assert_eq!(PrefetchGranularity::None.label(), "no-prefetch");
        assert_eq!(PrefetchGranularity::Object.label(), "object-level");
        assert_eq!(PrefetchGranularity::Tensor.label(), "tensor-level");
    }
}
