//! Scale-out executor demo: a 256-GPU expert-parallel MoE training
//! iteration on a 4-worker bounded lane pool.
//!
//! Before ISSUE 9 this run would have spawned 512 OS threads (one lane
//! plus one spine drainer per device); here at most `max_lane_threads`
//! lane workers are ever live, each delivering its lanes' events inline,
//! and the session-end merge folds the 256 shards as a pairwise tree.
//!
//! ```sh
//! cargo run --release --example scale_out
//! ```

use pasta::core::tool::LaunchCounter;
use pasta::dl::parallel::{self, MoeConfig};
use pasta::prelude::*;

const LANES: u32 = 256;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let parallel_cfg = ParallelConfig {
        max_lane_threads: 4,
        max_merge_threads: 4,
        ..ParallelConfig::default()
    };
    let mut session = Pasta::builder()
        .devices(vec![DeviceSpec::a100_80gb(); LANES as usize])
        .tool(LaunchCounter::default())
        .parallel(parallel_cfg)
        .build()?;

    let devices: Vec<DeviceId> = (0..LANES).map(DeviceId).collect();
    let moe = MoeConfig::tiny();
    let (report, d2d) = session.run_parallel(&devices, |lanes| {
        let report = parallel::train_iter_expert_parallel_with(lanes, 1, &moe)?;
        // Every lane routed tokens to its 255 peers each layer: the
        // all-to-all shows up as device-to-device copy traffic.
        let d2d: u64 = lanes
            .iter()
            .map(|lane| lane.session.runtime().stats(lane.device()).copies)
            .sum();
        Ok((report, d2d))
    })?;

    println!(
        "{} lanes of {} on a {}-worker pool:",
        LANES,
        report.strategy.label(),
        parallel_cfg.max_lane_threads
    );
    println!(
        "  peak concurrent lane workers: {}",
        session.pool_high_water()
    );
    println!(
        "  kernel launches: {} total across {} lanes",
        report.launches.iter().sum::<u64>(),
        report.launches.len()
    );

    println!("  device-to-device copy operations (all-to-all routing): {d2d}");

    let merged = session.merged_report();
    println!(
        "  merged report: {} shards folded as a tree, {} events processed",
        merged.per_device.len(),
        merged.events_processed
    );
    Ok(())
}
