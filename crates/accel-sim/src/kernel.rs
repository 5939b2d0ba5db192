//! Kernel descriptions.
//!
//! A [`KernelDesc`] carries everything the simulator needs: launch geometry,
//! argument buffers, and a [`KernelBody`] that summarizes the kernel's work
//! as FLOPs plus a list of [`AccessSpec`]s. The body drives both the timing
//! model and the instruction-level trace stream that instrumentation probes
//! observe — the same information a real profiler would extract from the
//! running kernel, produced analytically.

use crate::dim::Dim3;
use crate::inline_vec::InlineVec;
use crate::mem::DevicePtr;
use crate::symbol::Symbol;

/// Direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load instruction.
    Load,
    /// A store instruction.
    Store,
    /// A read-modify-write atomic.
    Atomic,
}

/// Memory space targeted by an access, mirroring the paper's Table II
/// fine-grained event list (global, shared, remote shared).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Device global memory (HBM/GDDR).
    Global,
    /// On-chip shared memory / LDS.
    Shared,
    /// Remote (cluster) shared memory, a Hopper+ feature.
    RemoteShared,
    /// Thread-local (spill) space.
    Local,
}

/// Spatial pattern of an access stream within its region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Fully coalesced sequential sweep.
    Sequential,
    /// Strided sweep with the given stride in bytes.
    Strided {
        /// Distance between consecutive accesses, bytes.
        stride: u64,
    },
    /// Data-dependent scatter/gather over the region.
    Random,
}

/// One logical access stream of a kernel: which argument buffer it touches,
/// the extent touched, and how many bytes move in total (reuse makes
/// `bytes > len` common, e.g. GEMM operands).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessSpec {
    /// Index into [`KernelDesc::args`].
    pub arg_index: usize,
    /// Byte offset of the touched region within the argument buffer.
    pub offset: u64,
    /// Extent of the touched region in bytes.
    pub len: u64,
    /// Total bytes transferred by this stream over the kernel's lifetime.
    pub bytes: u64,
    /// Load / store / atomic.
    pub kind: AccessKind,
    /// Global / shared / remote-shared / local.
    pub space: MemSpace,
    /// Spatial pattern.
    pub pattern: AccessPattern,
    /// Element size per lane access, bytes (4 for `f32`, 16 for `float4`).
    pub elem_size: u32,
}

/// An empty load of argument 0 — the filler of an [`InlineVec`]'s unused
/// slots, never read as a stream.
impl Default for AccessSpec {
    fn default() -> Self {
        AccessSpec::load(0, 0)
    }
}

impl AccessSpec {
    /// A convenient fully-coalesced global load covering `len` bytes once.
    pub fn load(arg_index: usize, len: u64) -> Self {
        AccessSpec {
            arg_index,
            offset: 0,
            len,
            bytes: len,
            kind: AccessKind::Load,
            space: MemSpace::Global,
            pattern: AccessPattern::Sequential,
            elem_size: 4,
        }
    }

    /// A fully-coalesced global store covering `len` bytes once.
    pub fn store(arg_index: usize, len: u64) -> Self {
        AccessSpec {
            kind: AccessKind::Store,
            ..AccessSpec::load(arg_index, len)
        }
    }

    /// Overrides the total transferred bytes (models reuse: `bytes > len`).
    pub fn with_bytes(mut self, bytes: u64) -> Self {
        self.bytes = bytes;
        self
    }

    /// Restricts the stream to a sub-range of the buffer.
    pub fn with_range(mut self, offset: u64, len: u64) -> Self {
        self.offset = offset;
        self.len = len;
        self
    }

    /// Sets the access pattern.
    pub fn with_pattern(mut self, pattern: AccessPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Sets the memory space.
    pub fn in_space(mut self, space: MemSpace) -> Self {
        self.space = space;
        self
    }

    /// Number of warp-level access records this stream emits when
    /// instrumented: one record per 32-lane coalesced access instruction.
    pub fn record_count(&self) -> u64 {
        let per_warp = self.elem_size as u64 * 32;
        self.bytes.div_ceil(per_warp.max(1)).max(1)
    }
}

/// Summary of a kernel's dynamic behaviour.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelBody {
    /// Floating-point operations executed.
    pub flops: u64,
    /// Memory access streams; up to eight (the widest operator,
    /// `adam_step`, has seven) live in the body itself.
    pub accesses: InlineVec<AccessSpec, 8>,
    /// Static shared memory per block, bytes.
    pub shared_mem_per_block: u64,
    /// `__syncthreads()` executions per block.
    pub barriers_per_block: u32,
    /// Device-side function calls per block (Table II events).
    pub device_calls_per_block: u32,
    /// Total dynamic instructions, if known; otherwise estimated from
    /// accesses and FLOPs. NVBit-style instrumentation sees *all* of these.
    pub instruction_count: Option<u64>,
}

impl KernelBody {
    /// A compute-only body with no memory traffic.
    pub fn compute(flops: u64) -> Self {
        KernelBody {
            flops,
            ..KernelBody::default()
        }
    }

    /// A streaming body: read `read_bytes` from arg 0 and write
    /// `write_bytes` to the last arg (or arg 0 when only one arg is bound).
    pub fn streaming(read_bytes: u64, write_bytes: u64) -> Self {
        KernelBody {
            flops: (read_bytes + write_bytes) / 4,
            accesses: InlineVec::from_iter([
                AccessSpec::load(0, read_bytes),
                AccessSpec::store(usize::MAX, write_bytes), // resolved at launch
            ]),
            ..KernelBody::default()
        }
    }

    /// Adds an access stream.
    #[inline]
    pub fn access(mut self, spec: AccessSpec) -> Self {
        self.accesses.push(spec);
        self
    }

    /// Sets FLOPs.
    #[inline]
    pub fn with_flops(mut self, flops: u64) -> Self {
        self.flops = flops;
        self
    }

    /// Sets barriers per block.
    #[inline]
    pub fn with_barriers(mut self, n: u32) -> Self {
        self.barriers_per_block = n;
        self
    }

    /// Sets shared memory per block.
    #[inline]
    pub fn with_shared_mem(mut self, bytes: u64) -> Self {
        self.shared_mem_per_block = bytes;
        self
    }

    /// Total bytes moved through global memory.
    pub fn global_bytes(&self) -> u64 {
        self.accesses
            .iter()
            .filter(|a| a.space == MemSpace::Global)
            .map(|a| a.bytes)
            .sum()
    }

    /// Total warp-level memory access records across all streams.
    pub fn memory_records(&self) -> u64 {
        self.accesses.iter().map(AccessSpec::record_count).sum()
    }

    /// Dynamic instruction estimate: explicit count when provided, else
    /// memory instructions plus one instruction per 2 FLOPs (FMA) plus a
    /// 30% control-flow/addressing surcharge — the population NVBit-style
    /// instrumentation must consider.
    pub fn dynamic_instructions(&self) -> u64 {
        self.instructions_given(self.memory_records())
    }

    /// [`KernelBody::dynamic_instructions`] for a caller that already
    /// holds [`KernelBody::memory_records`] (the engine sums it while it
    /// feeds the probe, so the accesses are not walked again).
    pub fn instructions_given(&self, memory_records: u64) -> u64 {
        self.instruction_count.unwrap_or_else(|| {
            let alu = self.flops / 2 / 32; // warp-level FMA instructions
            ((memory_records + alu) as f64 * 1.3) as u64
        })
    }
}

/// A kernel argument: a device buffer the kernel may touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelArg {
    /// Base device pointer.
    pub ptr: DevicePtr,
    /// Buffer length in bytes.
    pub len: u64,
}

/// A null, empty buffer — the filler of an [`InlineVec`]'s unused slots.
impl Default for KernelArg {
    fn default() -> Self {
        KernelArg {
            ptr: DevicePtr(0),
            len: 0,
        }
    }
}

/// Full description of a kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Kernel symbol name (demangled), e.g.
    /// `"ampere_sgemm_128x64_tn"` or `"at::native::im2col_kernel"`.
    /// Interned: launching the same kernel repeatedly shares one
    /// allocation, and every downstream event copies the handle.
    pub name: Symbol,
    /// Grid dimensions.
    pub grid: Dim3,
    /// Block dimensions.
    pub block: Dim3,
    /// Argument buffers; up to eight live in the descriptor itself.
    pub args: InlineVec<KernelArg, 8>,
    /// Dynamic behaviour summary.
    pub body: KernelBody,
}

impl KernelDesc {
    /// Creates a kernel description with no arguments and an empty body.
    #[inline]
    pub fn new(name: impl Into<Symbol>, grid: Dim3, block: Dim3) -> Self {
        KernelDesc {
            name: name.into(),
            grid,
            block,
            args: InlineVec::new(),
            body: KernelBody::default(),
        }
    }

    /// Appends an argument buffer.
    #[inline]
    pub fn arg(mut self, ptr: DevicePtr, len: u64) -> Self {
        self.args.push(KernelArg { ptr, len });
        self
    }

    /// Sets the body, resolving any `usize::MAX` arg indices (used by
    /// [`KernelBody::streaming`]) to the last bound argument.
    #[inline]
    pub fn body(mut self, mut body: KernelBody) -> Self {
        let last = self.args.len().saturating_sub(1);
        for a in &mut body.accesses {
            if a.arg_index == usize::MAX {
                a.arg_index = last;
            }
        }
        self.body = body;
        self
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.grid.count() * self.block.count()
    }

    /// Total blocks in the launch.
    pub fn total_blocks(&self) -> u64 {
        self.grid.count()
    }

    /// Total barrier executions across the launch.
    pub fn total_barriers(&self) -> u64 {
        self.total_blocks() * self.body.barriers_per_block as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_count_is_warp_granular() {
        let spec = AccessSpec::load(0, 128 * 1024);
        // elem 4B * 32 lanes = 128B per record.
        assert_eq!(spec.record_count(), 1024);
        let spec16 = AccessSpec {
            elem_size: 16,
            ..AccessSpec::load(0, 128 * 1024)
        };
        assert_eq!(spec16.record_count(), 256);
    }

    #[test]
    fn record_count_never_zero() {
        assert_eq!(AccessSpec::load(0, 1).record_count(), 1);
    }

    #[test]
    fn streaming_body_resolves_last_arg() {
        let desc = KernelDesc::new("k", Dim3::linear(1), Dim3::linear(32))
            .arg(DevicePtr(0x100), 64)
            .arg(DevicePtr(0x200), 64)
            .body(KernelBody::streaming(64, 64));
        assert_eq!(desc.body.accesses[0].arg_index, 0);
        assert_eq!(desc.body.accesses[1].arg_index, 1);
    }

    #[test]
    fn global_bytes_ignores_shared() {
        let body = KernelBody::default()
            .access(AccessSpec::load(0, 1000))
            .access(AccessSpec::load(0, 500).in_space(MemSpace::Shared));
        assert_eq!(body.global_bytes(), 1000);
    }

    #[test]
    fn dynamic_instructions_exceed_memory_records() {
        let body = KernelBody::streaming(1 << 20, 1 << 20).with_flops(1 << 22);
        assert!(body.dynamic_instructions() > body.memory_records());
        let explicit = KernelBody {
            instruction_count: Some(42),
            ..body
        };
        assert_eq!(explicit.dynamic_instructions(), 42);
    }

    #[test]
    fn totals_multiply_geometry() {
        let desc = KernelDesc::new("k", Dim3::plane(4, 2), Dim3::linear(128))
            .body(KernelBody::default().with_barriers(3));
        assert_eq!(desc.total_blocks(), 8);
        assert_eq!(desc.total_threads(), 1024);
        assert_eq!(desc.total_barriers(), 24);
    }

    #[test]
    fn builder_chain_reads_naturally() {
        let spec = AccessSpec::load(1, 4096)
            .with_bytes(8192)
            .with_range(256, 2048)
            .with_pattern(AccessPattern::Strided { stride: 128 });
        assert_eq!(spec.arg_index, 1);
        assert_eq!(spec.bytes, 8192);
        assert_eq!(spec.offset, 256);
        assert_eq!(spec.len, 2048);
    }
}
