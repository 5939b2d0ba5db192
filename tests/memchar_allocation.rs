//! Steady-state allocation pin for the working-set tool.
//!
//! `MemoryCharacteristicsTool` sorts each launch's ranges when the launch
//! closes, by radix from 32 ranges up, in the spare half of the buffer
//! that holds them. Once the tool has closed a launch as wide as the
//! next, closing one more must allocate nothing: the range buffer (radix
//! half included) and the per-kernel list reuse what they grew. A
//! counting allocator pins that, reading the test thread's own count:
//! the tool runs on it. One `#[test]`, because the allocator is
//! process-global.

mod common;

use common::CountingAlloc;
use pasta::core::tool::Tool;
use pasta::core::Event;
use pasta::sim::{AccessBatch, AccessKind, AccessPattern, LaunchId, MemSpace};
use pasta::tools::MemoryCharacteristicsTool;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// Ranges a launch touches: past the radix cutoff, 128-B aligned and
/// scattered over a 16 MiB tensor, some overlapping.
const RANGES: u64 = 192;

fn launch(id: u64) -> Vec<Event> {
    (0..RANGES)
        .map(|i| Event::GlobalAccess {
            launch: LaunchId(id),
            kernel: "flood_gemm".into(),
            batch: AccessBatch {
                launch: LaunchId(id),
                spec_index: i as usize,
                base: 0x7000_0000_0000 + (i * 7919 + id * 131) % (1 << 17) * 128,
                len: (1 + i % 16) * 4096,
                records: 32,
                bytes: (1 + i % 16) * 4096,
                elem_size: 4,
                kind: AccessKind::Load,
                space: MemSpace::Global,
                pattern: AccessPattern::Sequential,
            },
        })
        .collect()
}

#[test]
fn a_warm_memchar_closes_a_wide_launch_without_allocating() {
    let launches: Vec<Vec<Event>> = (0..8).map(launch).collect();
    let mut tool = MemoryCharacteristicsTool::new();
    // Warm: four launches grow every buffer; `reset` keeps what grew.
    for events in &launches[..4] {
        events.iter().for_each(|e| tool.on_event(e));
    }
    tool.characteristics();
    tool.reset();

    let before = GLOBAL.thread_allocs();
    // Launches 4..=6 each close when the next one's first event arrives.
    for events in &launches[4..] {
        events.iter().for_each(|e| tool.on_event(e));
    }
    assert_eq!(
        GLOBAL.thread_allocs() - before,
        0,
        "closing a launch of {RANGES} ranges allocated"
    );
    let c = tool.characteristics();
    assert_eq!(c.kernel_count, 4);
    assert!(c.min_ws > 0 && c.working_set <= 16 << 20, "{c:?}");
}
