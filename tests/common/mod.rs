//! Fixtures more than one integration suite uses. Every suite is its own
//! crate and takes a subset, so unused items are expected here.
#![allow(dead_code)]

use pasta::core::hub::{Hub, SharedHub};
use pasta::core::processor::EventProcessor;
use pasta::core::tool::{Interest, Tool};
use pasta::core::{Event, Pasta, PastaSession, UvmSetup};
use pasta::dl::parallel::{self, Parallelism};
use pasta::sim::DeviceId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts heap allocations (reallocations included) on their way to the
/// system allocator. The counter is process-global once a suite installs
/// one as its `#[global_allocator]`, which is why such a suite keeps its
/// phases in one `#[test]`.
pub struct CountingAlloc {
    allocs: AtomicU64,
}

impl CountingAlloc {
    pub const fn new() -> Self {
        CountingAlloc {
            allocs: AtomicU64::new(0),
        }
    }

    /// Allocations counted so far.
    pub fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// A forkable tool aggregating, order-independently, everything the fine
/// path delivers.
#[derive(Debug, Default)]
pub struct FineAggregator {
    batches: u64,
    records: u64,
    barriers: u64,
    launches: u64,
}

impl Tool for FineAggregator {
    fn name(&self) -> &str {
        "fine-aggregator"
    }
    fn interest(&self) -> Interest {
        Interest::all()
    }
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::GlobalAccess { batch, .. } | Event::SharedAccess { batch, .. } => {
                self.batches += 1;
                self.records += batch.records;
            }
            Event::Barrier { count, .. } => self.barriers += count,
            Event::KernelLaunchBegin { .. } => self.launches += 1,
            _ => {}
        }
    }
    fn report(&self) -> pasta::core::ToolReport {
        pasta::core::ToolReport::new(self.name())
            .metric("batches", self.batches as f64)
            .metric("records", self.records as f64)
            .metric("barriers", self.barriers as f64)
            .metric("launches", self.launches as f64)
    }
    fn fork(&self) -> Option<Box<dyn Tool>> {
        Some(Box::<FineAggregator>::default())
    }
    fn merge(&mut self, other: &dyn Tool) {
        let other = other.as_any().downcast_ref::<FineAggregator>().unwrap();
        self.batches += other.batches;
        self.records += other.records;
        self.barriers += other.barriers;
        self.launches += other.launches;
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// One shard per device, each holding a [`FineAggregator`]: device 0's
/// processor is the primary, the others are its forks — how a session
/// builds its shards.
pub fn sharded_hub(devices: u32) -> SharedHub {
    let mut primary = EventProcessor::new();
    primary.tools.register(Box::<FineAggregator>::default());
    let forks: Vec<_> = (1..devices)
        .map(|d| {
            let fork = primary.fork().expect("FineAggregator forks");
            (DeviceId(d), fork)
        })
        .collect();
    let shards = std::iter::once((DeviceId(0), primary))
        .chain(forks)
        .collect();
    Arc::new(Hub::sharded(shards).unwrap())
}

/// Two A100s with UVM on and the `uvm` suite attached: the trace suites'
/// managed-memory session.
pub fn uvm_session() -> PastaSession {
    Pasta::builder()
        .a100_x2()
        .uvm(UvmSetup::default())
        .tools(pasta::tools::suite("uvm").expect("a listed suite"))
        .build()
        .expect("session builds")
}

/// One Megatron tensor-parallel training iteration over devices 0 and 1.
pub fn tensor_parallel_iteration(session: &mut PastaSession) {
    session
        .run_parallel(&[DeviceId(0), DeviceId(1)], |lanes| {
            parallel::train_iter(lanes, Parallelism::Tensor, 1).map(|_| ())
        })
        .expect("parallel run succeeds");
}

/// Suppresses panic output for payloads carrying the `fault-injection`
/// marker; everything else goes to the default hook unchanged.
pub fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("fault-injection"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains("fault-injection"))
                })
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}
