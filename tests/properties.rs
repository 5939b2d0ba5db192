//! Property-based tests on the core data structures and invariants.

use pasta::dl::alloc::{AllocatorConfig, CachingAllocator};
use pasta::sim::{AccessKind, DeviceId, DeviceRuntime, DeviceSpec, ResidencyModel};
use pasta::uvm::{page_range, PrefetchPlan, Range, UvmConfig, UvmManager, PAGE_SIZE};
use proptest::prelude::*;
use vendor_nv::CudaContext;

/// Brute-force distinct-byte count for interval lists (oracle for
/// `merged_extent`).
fn brute_force_extent(ranges: &[(u64, u64)]) -> u64 {
    use std::collections::BTreeSet;
    let mut bytes = BTreeSet::new();
    for &(base, len) in ranges {
        for b in base..base + len {
            bytes.insert(b);
        }
    }
    bytes.len() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merged_extent_matches_brute_force(
        ranges in prop::collection::vec((0u64..500, 0u64..50), 0..12)
    ) {
        let merged = pasta::tools::util::merged_extent(&mut ranges.clone());
        prop_assert_eq!(merged, brute_force_extent(&ranges));
    }

    #[test]
    fn page_range_covers_exactly_the_touched_pages(
        base in 0u64..(1 << 30),
        len in 1u64..(8 << 20)
    ) {
        let r = page_range(base, len);
        // Every byte of the range lies in a covered page.
        prop_assert!(r.first * PAGE_SIZE <= base);
        prop_assert!((base + len - 1) / PAGE_SIZE < r.end);
        // No page is superfluous.
        prop_assert!(base < (r.first + 1) * PAGE_SIZE);
        prop_assert!(base + len > (r.end - 1) * PAGE_SIZE);
    }

    #[test]
    fn allocator_alloc_free_sequences_preserve_invariants(
        ops in prop::collection::vec((any::<bool>(), 1u64..(4 << 20)), 1..40)
    ) {
        let mut rt = CudaContext::new(vec![DeviceSpec::a100_80gb()]);
        let mut alloc = CachingAllocator::new(AllocatorConfig::default());
        let mut live: Vec<(pasta::sim::DevicePtr, u64)> = Vec::new();
        let mut expected_allocated = 0u64;
        for (is_alloc, size) in ops {
            if is_alloc || live.is_empty() {
                let (ptr, rounded) = alloc.alloc(&mut rt, size).unwrap();
                // No overlap with any live block.
                for &(p, r) in &live {
                    let disjoint = ptr.addr() + rounded <= p.addr()
                        || p.addr() + r <= ptr.addr();
                    prop_assert!(disjoint, "blocks overlap");
                }
                live.push((ptr, rounded));
                expected_allocated += rounded;
            } else {
                let (ptr, rounded) = live.swap_remove(size as usize % live.len());
                let freed = alloc.free(ptr);
                prop_assert_eq!(freed, rounded);
                expected_allocated -= rounded;
            }
            let stats = alloc.stats();
            prop_assert_eq!(stats.allocated, expected_allocated);
            prop_assert!(stats.reserved >= stats.allocated);
            prop_assert!(stats.peak_allocated >= stats.allocated);
        }
        // Free everything: allocated returns to zero, reserved stays cached.
        for (ptr, _) in live {
            alloc.free(ptr);
        }
        prop_assert_eq!(alloc.stats().allocated, 0);
        // Releasing cached segments returns every reserved byte.
        alloc.release_cached_segments(&mut rt);
        prop_assert_eq!(alloc.stats().reserved, 0);
    }

    #[test]
    fn uvm_residency_never_exceeds_budget(
        budget_pages in 4u64..64,
        accesses in prop::collection::vec((0u64..(64 << 20), 1u64..(8 << 20)), 1..25)
    ) {
        let base = 0x4000_0000_0000u64;
        let budget = budget_pages * PAGE_SIZE;
        let mut uvm = UvmManager::new(UvmConfig::default());
        uvm.add_device(budget, 24.0, 25_000);
        uvm.register(base, 64 << 20);
        for (off, len) in accesses {
            uvm.on_kernel_access(DeviceId(0), base + off, len, len, AccessKind::Load);
            prop_assert!(
                uvm.resident_bytes(DeviceId(0)) <= budget,
                "resident {} exceeds budget {}",
                uvm.resident_bytes(DeviceId(0)),
                budget
            );
        }
    }

    #[test]
    fn uvm_warm_reaccess_of_small_ranges_is_free(
        off in 0u64..(1 << 20),
        len in 1u64..(1 << 20)
    ) {
        let base = 0x4000_0000_0000u64;
        let mut uvm = UvmManager::new(UvmConfig::default());
        uvm.add_device(1 << 30, 24.0, 25_000); // plenty of room
        uvm.register(base, 4 << 20);
        uvm.on_kernel_access(DeviceId(0), base + off, len, len, AccessKind::Load);
        let again = uvm.on_kernel_access(DeviceId(0), base + off, len, len, AccessKind::Load);
        prop_assert_eq!(again.faults, 0, "resident pages never refault");
        prop_assert_eq!(again.extra_device_ns, 0);
    }

    #[test]
    fn prefetch_plan_total_bytes_is_sum_of_ranges(
        entries in prop::collection::vec((0usize..20, 0u64..(1 << 20), 1u64..(1 << 16)), 0..30)
    ) {
        let mut plan = PrefetchPlan::default();
        let mut expected = 0u64;
        let mut seen: Vec<(usize, Range)> = Vec::new();
        for (idx, base, len) in entries {
            let r = Range::new(base, len);
            if !seen.contains(&(idx, r)) {
                expected += len;
                seen.push((idx, r));
            }
            plan.add(idx, r);
        }
        prop_assert_eq!(plan.total_bytes(), expected);
    }

    #[test]
    fn device_allocator_find_containing_is_consistent(
        sizes in prop::collection::vec(1u64..(1 << 16), 1..20)
    ) {
        let mut rt = CudaContext::new(vec![DeviceSpec::rtx_3060()]);
        let mut ptrs = Vec::new();
        for size in &sizes {
            ptrs.push((rt.malloc(*size).unwrap(), *size));
        }
        let engine = rt.engine();
        for (ptr, size) in &ptrs {
            let found = engine
                .find_allocation(DeviceId(0), ptr.addr())
                .expect("base address resolves");
            prop_assert_eq!(found.addr, ptr.addr());
            let last = engine
                .find_allocation(DeviceId(0), ptr.addr() + size - 1)
                .expect("last byte resolves");
            prop_assert_eq!(last.addr, ptr.addr());
        }
    }
}

#[test]
fn simulator_is_deterministic_across_runs() {
    // Two identical profiled runs produce byte-identical counters — the
    // property that makes every experiment in this repo reproducible.
    let run = || {
        let mut session = pasta::core::Pasta::builder()
            .a100()
            .tool(pasta::tools::KernelFrequencyTool::new())
            .tool(pasta::tools::MemoryCharacteristicsTool::new())
            .build()
            .unwrap();
        let r = session
            .run(
                &mut pasta::core::ModelWorkload::new(
                    pasta::dl::models::ModelZoo::Bert,
                    pasta::dl::models::RunKind::Inference,
                )
                .batch_divisor(8),
            )
            .unwrap();
        (
            r.kernel_launches,
            r.records,
            r.profiled_time.as_nanos(),
            r.overhead.total_ns(),
        )
    };
    assert_eq!(run(), run());
}
