//! The lane executor: every multi-device schedule runs, contains and
//! reports its lanes here.
//!
//! **One failure-precedence rule.** Every lane runs, whatever its
//! siblings do. A lane that panics is contained at the lane boundary and
//! becomes a typed [`AccelError::LanePanic`] attributed to *its* device.
//! The schedule then reports the first contained panic in lane order as
//! the root cause, ahead of the ordinary errors sibling lanes hit because
//! a peer died; with no panic, the first error in lane order. Pooled and
//! lane-at-a-time [`drive_lanes`], the pipeline-parallel stage pair and
//! `PastaSession::run_parallel_each` all return through that one rule.
//!
//! **One pool.** Pooled lanes ride [`accel_sim::run_pool`], the worker
//! pool the session-end merge shares, through [`run_pool`]: the calling
//! thread runs the first lane's seat, and the spawned workers are named
//! `lane-dev{N}` after the device of the first lane they run. A lane's
//! events reach its shard on the worker that drives it.
//!
//! **Scheduling caveat**: lanes on a bounded pool must not block on each
//! other — with fewer workers than lanes, a lane waiting for a lane that
//! has not been scheduled yet deadlocks. The pipeline-parallel stages,
//! which do block on each other's handoffs, therefore ride a pool exactly
//! two workers wide whatever the lanes' pool limit: the one documented
//! exception to it.

use crate::parallel::DeviceLane;
use accel_sim::{contain, AccelError};
pub use accel_sim::{PoolRun, PoolTask};
use std::sync::atomic::Ordering;

/// How [`drive_lanes`] schedules the per-lane work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneSchedule {
    /// On the bounded lane pool — the production path.
    Threaded,
    /// One lane at a time on the calling thread — the reference run the
    /// shard-merge tests compare concurrent output against.
    Sequential,
}

/// Runs `work` once per lane — on the bounded lane pool ([`run_pool`],
/// at most the lanes' pool limit worker threads live at once) or
/// lane-at-a-time on the calling thread, per `schedule` — and returns
/// the per-lane results in lane order. A pooled run folds its high water
/// into the lanes' stamped watermark.
///
/// Lanes driven here must be independent (no cross-lane blocking), which
/// is what makes the bounded pool deadlock-free at any worker count.
///
/// # Errors
///
/// Every lane runs either way; then a panicking lane's
/// [`AccelError::LanePanic`] wins, otherwise the first error in lane
/// order (the module's one precedence rule).
pub fn drive_lanes<T, F>(
    lanes: &mut [DeviceLane<'_>],
    schedule: LaneSchedule,
    work: F,
) -> Result<Vec<T>, AccelError>
where
    T: Send,
    F: Fn(usize, &mut DeviceLane<'_>) -> Result<T, AccelError> + Sync,
{
    if schedule == LaneSchedule::Sequential {
        let results = lanes
            .iter_mut()
            .enumerate()
            .map(|(i, lane)| contain(lane.device(), || work(i, lane)))
            .collect();
        return settle(results);
    }
    let limit = lanes
        .iter()
        .map(DeviceLane::pool_limit)
        .find(|&n| n > 0)
        .unwrap_or(0);
    let work = &work;
    let tasks: Vec<PoolTask<'_, T>> = lanes
        .iter_mut()
        .enumerate()
        .map(|(i, lane)| PoolTask {
            device: lane.device(),
            run: Box::new(move || work(i, lane)),
        })
        .collect();
    let run = run_pool(limit, tasks, None);
    if let Some(watermark) = lanes.iter().find_map(DeviceLane::pool_watermark) {
        watermark.fetch_max(run.high_water, Ordering::AcqRel);
    }
    settle(run.results)
}

/// The one failure-precedence rule: given every lane's result in lane
/// order, the first contained panic is the root cause, otherwise the
/// first error; all-`Ok` yields the values in lane order.
pub(crate) fn settle<T>(results: Vec<Result<T, AccelError>>) -> Result<Vec<T>, AccelError> {
    let root = results
        .iter()
        .find(|r| matches!(r, Err(AccelError::LanePanic { .. })));
    if let Some(Err(panic)) = root {
        return Err(panic.clone());
    }
    results.into_iter().collect()
}

/// The lane pool: [`accel_sim::run_pool`] with spawned workers named
/// `lane-dev{N}` after the device of the first lane each runs. `_idle`
/// can only be `None`: the pool has no idle hook, and the parameter stays
/// so that callers written against the three-argument form compile.
pub fn run_pool<'a, T: Send>(
    max_threads: usize,
    tasks: Vec<PoolTask<'a, T>>,
    _idle: Option<std::convert::Infallible>,
) -> PoolRun<T> {
    accel_sim::run_pool("lane-dev", max_threads, tasks)
}
