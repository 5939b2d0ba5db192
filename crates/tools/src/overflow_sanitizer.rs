//! A numeric-overflow sanitizer sketch — the paper's §III-H value-based
//! extensibility example: "instrument arithmetic instructions and track
//! operand ranges to detect overflow or underflow events".
//!
//! Real operand values do not exist in the simulator, so the tool tracks
//! the *coverage* side exactly (instructions checked per kernel, via the
//! full-coverage NVBit backend) and models detection with a deterministic
//! screen: kernels whose accumulation depth (FLOPs per output byte)
//! exceeds a threshold are flagged as overflow-risk candidates — the same
//! population a real sanitizer watches hardest.

use accel_sim::Symbol;
use pasta_core::{Event, Interest, Tool, ToolReport};
use std::any::Any;
use std::collections::HashMap;

/// Accumulation-depth threshold above which a kernel is flagged.
const RISK_FLOPS_PER_BYTE: f64 = 64.0;

/// Per-kernel sanitizer coverage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SanitizerCoverage {
    /// Dynamic instructions checked.
    pub instructions_checked: u64,
    /// Bytes written by the kernel.
    pub bytes_stored: u64,
}

/// The overflow-sanitizer tool.
#[derive(Debug, Default)]
pub struct OverflowSanitizerTool {
    per_kernel: HashMap<Symbol, SanitizerCoverage>,
    current_kernel: HashMap<u64, Symbol>,
}

impl OverflowSanitizerTool {
    /// Creates the tool.
    pub fn new() -> Self {
        OverflowSanitizerTool::default()
    }

    /// Total instructions checked across all kernels.
    pub fn instructions_checked(&self) -> u64 {
        self.per_kernel
            .values()
            .map(|c| c.instructions_checked)
            .sum()
    }

    /// Kernels flagged as overflow-risk (deep accumulation).
    pub fn flagged(&self) -> Vec<Symbol> {
        let mut v: Vec<Symbol> = self
            .per_kernel
            .iter()
            .filter(|(_, c)| {
                c.bytes_stored > 0
                    && c.instructions_checked as f64 / c.bytes_stored as f64 > RISK_FLOPS_PER_BYTE
            })
            .map(|(k, _)| *k)
            .collect();
        v.sort();
        v
    }
}

impl Tool for OverflowSanitizerTool {
    fn name(&self) -> &str {
        "overflow-sanitizer"
    }

    fn interest(&self) -> Interest {
        Interest {
            instructions: true,
            global_accesses: true,
            kernel_launches: true,
            ..Interest::default()
        }
    }

    fn on_event(&mut self, event: &Event) {
        match event {
            Event::KernelLaunchBegin { launch, name, .. } => {
                self.current_kernel.insert(launch.value(), *name);
            }
            Event::Instructions { launch, count } => {
                if let Some(name) = self.current_kernel.get(&launch.value()) {
                    self.per_kernel
                        .entry(*name)
                        .or_default()
                        .instructions_checked += count;
                }
            }
            Event::GlobalAccess { launch, batch, .. }
                if batch.kind == accel_sim::AccessKind::Store =>
            {
                if let Some(name) = self.current_kernel.get(&launch.value()) {
                    self.per_kernel.entry(*name).or_default().bytes_stored += batch.bytes;
                }
            }
            Event::KernelLaunchEnd { launch, .. } => {
                self.current_kernel.remove(&launch.value());
            }
            _ => {}
        }
    }

    fn report(&self) -> ToolReport {
        let flagged = self.flagged();
        let mut text = String::new();
        for kernel in &flagged {
            text.push_str(&format!("  RISK  {kernel}\n"));
        }
        ToolReport::new(self.name())
            .metric("instructions_checked", self.instructions_checked() as f64)
            .metric("kernels_covered", self.per_kernel.len() as f64)
            .metric("flagged", flagged.len() as f64)
            .body(text)
    }

    fn reset(&mut self) {
        self.per_kernel.clear();
        self.current_kernel.clear();
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::{AccessBatch, AccessKind, AccessPattern, DeviceId, Dim3, LaunchId, MemSpace};

    fn begin(launch: u64, name: &str) -> Event {
        Event::KernelLaunchBegin {
            launch: LaunchId(launch),
            device: DeviceId(0),
            stream: 0,
            name: name.into(),
            grid: Dim3::linear(1),
            block: Dim3::linear(32),
        }
    }

    fn store(launch: u64, bytes: u64) -> Event {
        Event::GlobalAccess {
            launch: LaunchId(launch),
            kernel: "x".into(),
            batch: AccessBatch {
                launch: LaunchId(launch),
                spec_index: 0,
                base: 0,
                len: bytes,
                records: 1,
                bytes,
                elem_size: 4,
                kind: AccessKind::Store,
                space: MemSpace::Global,
                pattern: AccessPattern::Sequential,
            },
        }
    }

    #[test]
    fn deep_accumulation_is_flagged() {
        let mut t = OverflowSanitizerTool::new();
        // gemm: 1e6 instructions over 1 KiB of output — deep accumulation.
        t.on_event(&begin(0, "gemm"));
        t.on_event(&Event::Instructions {
            launch: LaunchId(0),
            count: 1_000_000,
        });
        t.on_event(&store(0, 1024));
        // copy: shallow — one instruction per stored word.
        t.on_event(&begin(1, "copy"));
        t.on_event(&Event::Instructions {
            launch: LaunchId(1),
            count: 256,
        });
        t.on_event(&store(1, 1024));
        assert_eq!(t.flagged(), vec![Symbol::intern("gemm")]);
        assert_eq!(t.instructions_checked(), 1_000_256);
        let r = t.report();
        assert_eq!(r.get("flagged"), Some(1.0));
        assert!(r.text.contains("RISK  gemm"));
    }

    #[test]
    fn requires_instruction_coverage() {
        let t = OverflowSanitizerTool::new();
        assert!(t.interest().instructions, "needs the NVBit-style backend");
    }
}
