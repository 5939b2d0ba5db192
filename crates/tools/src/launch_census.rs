//! Launch-geometry census: grid/block shape distribution across a run.
//!
//! A small utility tool (used by the quickstart example) showing the
//! minimal extension surface: one overridden handler, one report.

use pasta_core::{Event, Interest, Tool, ToolReport};
use std::any::Any;

/// Aggregate launch-geometry statistics.
#[derive(Debug, Default)]
pub struct LaunchCensusTool {
    launches: u64,
    total_blocks: u64,
    total_threads: u64,
    max_threads: u64,
    single_block_launches: u64,
}

impl LaunchCensusTool {
    /// Creates the tool.
    pub fn new() -> Self {
        LaunchCensusTool::default()
    }

    /// Launches observed.
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Mean threads per launch.
    pub fn avg_threads(&self) -> f64 {
        if self.launches == 0 {
            return 0.0;
        }
        self.total_threads as f64 / self.launches as f64
    }

    /// Fraction of launches with a single block (under-occupancy signal).
    pub fn single_block_fraction(&self) -> f64 {
        if self.launches == 0 {
            return 0.0;
        }
        self.single_block_launches as f64 / self.launches as f64
    }
}

impl Tool for LaunchCensusTool {
    fn name(&self) -> &str {
        "launch-census"
    }

    fn interest(&self) -> Interest {
        Interest {
            kernel_launches: true,
            block_boundaries: true,
            ..Interest::default()
        }
    }

    fn on_event(&mut self, event: &Event) {
        if let Event::KernelLaunchBegin { grid, block, .. } = event {
            self.launches += 1;
            let blocks = grid.count();
            let threads = blocks * block.count();
            self.total_blocks += blocks;
            self.total_threads += threads;
            self.max_threads = self.max_threads.max(threads);
            if blocks == 1 {
                self.single_block_launches += 1;
            }
        }
    }

    fn report(&self) -> ToolReport {
        ToolReport::new(self.name())
            .metric("launches", self.launches as f64)
            .metric("avg_threads", self.avg_threads())
            .metric("max_threads", self.max_threads as f64)
            .metric("single_block_fraction", self.single_block_fraction())
    }

    fn reset(&mut self) {
        *self = LaunchCensusTool::default();
    }

    fn fork(&self) -> Option<Box<dyn Tool>> {
        Some(Box::<LaunchCensusTool>::default())
    }

    fn merge(&mut self, other: &dyn Tool) {
        let Some(other) = other.as_any().downcast_ref::<LaunchCensusTool>() else {
            return;
        };
        self.launches += other.launches;
        self.total_blocks += other.total_blocks;
        self.total_threads += other.total_threads;
        self.max_threads = self.max_threads.max(other.max_threads);
        self.single_block_launches += other.single_block_launches;
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
    use accel_sim::{DeviceId, Dim3, LaunchId};

    fn begin(launch: u64, grid: u32, block: u32) -> Event {
        Event::KernelLaunchBegin {
            launch: LaunchId(launch),
            device: DeviceId(0),
            stream: 0,
            name: "k".into(),
            grid: Dim3::linear(grid),
            block: Dim3::linear(block),
        }
    }

    #[test]
    fn census_math() {
        let mut t = LaunchCensusTool::new();
        t.on_event(&begin(0, 10, 100)); // 1000 threads
        t.on_event(&begin(1, 1, 64)); // 64 threads, single block
        assert_eq!(t.launches(), 2);
        assert!((t.avg_threads() - 532.0).abs() < 1e-9);
        assert!((t.single_block_fraction() - 0.5).abs() < 1e-9);
        let r = t.report();
        assert_eq!(r.get("max_threads"), Some(1000.0));
    }

    #[test]
    fn empty_census_is_zero() {
        let t = LaunchCensusTool::new();
        assert_eq!(t.avg_threads(), 0.0);
        assert_eq!(t.single_block_fraction(), 0.0);
    }
}
