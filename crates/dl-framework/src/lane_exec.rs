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
//! **Bounded pool.** [`run_pool`] multiplexes lane tasks onto at most
//! `max_threads` worker threads, each seeded with one lane and then
//! claiming further lanes from a shared queue in lane order. Containment
//! is per lane, not per thread, so a worker survives a panicking lane to
//! run the remaining ones.
//!
//! **Thread naming**: worker threads are named `lane-dev{N}` after the
//! device of the first lane they run (thread names are fixed at spawn;
//! a worker that later multiplexes onto other lanes keeps its name, but
//! the `LanePanic` it reports always carries the correct device). With
//! `max_threads >= lanes` every lane runs on a thread bearing its own
//! device number — the configuration the fault-containment name test
//! pins.
//!
//! **Idle duty**: a worker that finds the queue empty while siblings are
//! still running calls the caller's `idle` hook under
//! [`accel_sim::idle_until`]'s backoff — this is how `run_parallel_each`
//! folds spine-drainer duty into the pool instead of spawning drainer
//! threads (see `pasta_core::spine`). Emitters that outrun the idle
//! drainers fall back to the spine's lossless producer-side drain, so a
//! pool with no idle capacity costs correctness nothing. The hook is
//! contained like a lane: a panicking `idle` (e.g. a spine `try_drain`
//! tripping a poisoned lock during lane salvage) is caught, the hook is
//! disarmed for the remainder of that pool, and the first payload is
//! reported in [`PoolRun::idle_panic`] — it never unwinds the scoped
//! worker, so it cannot abort sibling lanes.
//!
//! **Scheduling caveat**: lanes on a bounded pool must not block on each
//! other — with fewer workers than lanes, a lane waiting for a lane that
//! has not been scheduled yet deadlocks. The pipeline-parallel stages,
//! which do block on each other's handoffs, therefore ride a pool exactly
//! two workers wide whatever the lanes' pool limit: the one documented
//! exception to it.

use crate::parallel::DeviceLane;
pub use accel_sim::resolve_threads;
use accel_sim::sync::Mutex;
use accel_sim::{idle_until, panic_message, AccelError, DeviceId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// One lane's unit of work: the device it drives (for panic attribution
/// and worker naming) and the closure that drives it.
pub struct PoolTask<'a, T> {
    /// Device the task's lane is pinned to.
    pub device: DeviceId,
    /// The lane's work; runs exactly once, contained by `catch_unwind`.
    pub run: Box<dyn FnOnce() -> Result<T, AccelError> + Send + 'a>,
}

impl<T> std::fmt::Debug for PoolTask<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolTask")
            .field("device", &self.device)
            .finish()
    }
}

/// What one [`run_pool`] call produced: the per-task results plus the
/// pool's own concurrency and fault diagnostics.
#[derive(Debug)]
pub struct PoolRun<T> {
    /// Per-task results, **in task order** (lane order everywhere this
    /// is used), regardless of which worker ran what.
    pub results: Vec<Result<T, AccelError>>,
    /// Peak number of *this pool's* tasks that ran concurrently; other
    /// pools running in parallel cannot contaminate it.
    pub high_water: usize,
    /// Payload of the first `idle`-hook panic, if any. The panic was
    /// contained and the hook disarmed for the remainder of the pool
    /// (idle workers fell back to plain backoff); lane results are
    /// unaffected.
    pub idle_panic: Option<String>,
}

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
/// at most the lanes' pool limit worker threads live at once, with
/// `idle` as the idle workers' hook) or lane-at-a-time on the calling
/// thread, per `schedule` — and returns the per-lane results in lane
/// order. A pooled run folds its high water into the lanes' stamped
/// watermark.
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
    idle: Option<&(dyn Fn() -> bool + Sync)>,
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
    let run = run_pool(limit, tasks, idle);
    if let Some(watermark) = lanes.iter().find_map(DeviceLane::pool_watermark) {
        watermark.fetch_max(run.high_water, Ordering::AcqRel);
    }
    // An idle-hook panic (`run.idle_panic`) was contained inside the pool
    // and the hook disarmed; correctness needs nothing more — the spine's
    // producer-side backpressure plus the session's final quiesce drain
    // every ring the disarmed sweeper abandoned.
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

/// Contains a panic at the lane boundary: `f`'s panic becomes a typed
/// [`AccelError::LanePanic`] attributed to `device` instead of unwinding
/// further. The non-panic path costs nothing (`catch_unwind` is
/// zero-overhead until a panic actually lands).
fn contain<T>(
    device: DeviceId,
    f: impl FnOnce() -> Result<T, AccelError>,
) -> Result<T, AccelError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(AccelError::LanePanic {
            device,
            payload: panic_message(payload.as_ref()),
        })
    })
}

/// Runs every task on a bounded worker pool and returns the per-task
/// results **in task order**, together with the pool's own high-water
/// mark.
///
/// At most `resolve_threads(max_threads).min(tasks.len())` worker
/// threads exist at any moment. Worker `w` is seeded with task `w` and
/// named `lane-dev{N}` after that task's device; exhausted workers claim
/// remaining tasks in index order, then run `idle` (if any) until every
/// task has finished — `idle` returns whether it found work, driving
/// [`accel_sim::idle_until`]'s backoff.
///
/// A panicking task is contained at the task boundary and surfaces as
/// [`AccelError::LanePanic`] for its device; remaining tasks still run.
/// A panicking `idle` hook is likewise contained: the hook is disarmed
/// for the rest of this pool and the first payload is reported in
/// [`PoolRun::idle_panic`] instead of unwinding the pool scope.
pub fn run_pool<'a, T: Send>(
    max_threads: usize,
    tasks: Vec<PoolTask<'a, T>>,
    idle: Option<&(dyn Fn() -> bool + Sync)>,
) -> PoolRun<T> {
    let n = tasks.len();
    if n == 0 {
        return PoolRun {
            results: Vec::new(),
            high_water: 0,
            idle_panic: None,
        };
    }
    let workers = resolve_threads(max_threads).min(n);
    let devices: Vec<DeviceId> = tasks.iter().map(|t| t.device).collect();
    let slots: Vec<Mutex<Option<PoolTask<'a, T>>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<Result<T, AccelError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(workers);
    let done = AtomicUsize::new(0);
    let live = AtomicUsize::new(0);
    let pool_high = AtomicUsize::new(0);
    let idle_armed = AtomicBool::new(true);
    let idle_panic: Mutex<Option<String>> = Mutex::new(None);

    let run_task = |i: usize| {
        let Some(task) = slots[i].lock().take() else {
            return;
        };
        let concurrent = live.fetch_add(1, Ordering::SeqCst) + 1;
        pool_high.fetch_max(concurrent, Ordering::SeqCst);
        let result = contain(task.device, task.run);
        live.fetch_sub(1, Ordering::SeqCst);
        *results[i].lock() = Some(result);
        done.fetch_add(1, Ordering::Release);
    };
    // One idle beat: the hook under its own catch_unwind — a panic here
    // would otherwise unwind the scoped worker and abort the whole pool
    // scope, taking sibling lanes down with it. The first panic disarms
    // the hook for this pool; the spine's producer-side drain keeps the
    // path lossless without it.
    let idle_beat = |idle: &(dyn Fn() -> bool + Sync)| {
        idle_armed.load(Ordering::Acquire)
            && catch_unwind(AssertUnwindSafe(idle)).unwrap_or_else(|payload| {
                idle_armed.store(false, Ordering::Release);
                idle_panic
                    .lock()
                    .get_or_insert_with(|| panic_message(payload.as_ref()));
                false
            })
    };

    std::thread::scope(|scope| {
        for (w, seed_device) in devices.iter().enumerate().take(workers) {
            let (run_task, idle_beat) = (&run_task, &idle_beat);
            let (next, done) = (&next, &done);
            // Thread spawning fails only on resource exhaustion, where
            // the unnamed `Scope::spawn` this replaces would panic too.
            std::thread::Builder::new()
                .name(format!("lane-dev{}", seed_device.index()))
                .spawn_scoped(scope, move || {
                    run_task(w);
                    loop {
                        let claim = next.fetch_add(1, Ordering::SeqCst);
                        if claim >= n {
                            break;
                        }
                        run_task(claim);
                    }
                    // Queue exhausted: fold idle duty (spine draining)
                    // into this worker until the last sibling finishes.
                    if let Some(idle) = idle {
                        idle_until(|| done.load(Ordering::Acquire) >= n, || idle_beat(idle));
                    }
                })
                .expect("spawn lane worker");
        }
    });

    let results = results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            // Every index in 0..n is claimed exactly once (seeds cover
            // 0..workers, the counter covers the rest) and panics are
            // contained, so an unfilled slot is defensive cover only.
            slot.into_inner().unwrap_or_else(|| {
                Err(AccelError::LanePanic {
                    device: devices[i],
                    payload: "lane task never ran (worker lost)".into(),
                })
            })
        })
        .collect();
    PoolRun {
        results,
        high_water: pool_high.into_inner(),
        idle_panic: idle_panic.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task<'a>(
        device: u32,
        run: impl FnOnce() -> Result<u32, AccelError> + Send + 'a,
    ) -> PoolTask<'a, u32> {
        PoolTask {
            device: DeviceId(device),
            run: Box::new(run),
        }
    }

    #[test]
    fn results_stay_in_task_order_at_every_pool_size() {
        for threads in [1, 2, 3, 16] {
            let tasks: Vec<PoolTask<'_, u32>> =
                (0..7).map(|i| task(i, move || Ok(i * 10))).collect();
            let out = run_pool(threads, tasks, None);
            let values: Vec<u32> = out.results.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, vec![0, 10, 20, 30, 40, 50, 60], "threads={threads}");
        }
    }

    #[test]
    fn panic_is_contained_and_attributed_and_siblings_run() {
        let tasks = vec![
            task(0, || Ok(1)),
            task(1, || panic!("fault-injection: pooled lane dies")),
            task(2, || Ok(3)),
        ];
        let out = run_pool(1, tasks, None).results;
        assert_eq!(*out[0].as_ref().unwrap(), 1);
        match &out[1] {
            Err(AccelError::LanePanic { device, payload }) => {
                assert_eq!(*device, DeviceId(1));
                assert!(payload.contains("pooled lane dies"));
            }
            other => panic!("expected LanePanic, got {other:?}"),
        }
        assert_eq!(*out[2].as_ref().unwrap(), 3);
    }

    #[test]
    fn concurrency_never_exceeds_the_budget() {
        use std::sync::atomic::AtomicUsize;
        let cur = AtomicUsize::new(0);
        let max = AtomicUsize::new(0);
        let tasks: Vec<PoolTask<'_, u32>> = (0..12)
            .map(|i| {
                let (cur, max) = (&cur, &max);
                task(i, move || {
                    let c = cur.fetch_add(1, Ordering::SeqCst) + 1;
                    max.fetch_max(c, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    cur.fetch_sub(1, Ordering::SeqCst);
                    Ok(i)
                })
            })
            .collect();
        let out = run_pool(3, tasks, None);
        assert!(out.results.iter().all(Result::is_ok));
        assert!(max.load(Ordering::SeqCst) <= 3, "budget exceeded");
        assert!(
            (1..=3).contains(&out.high_water),
            "per-pool high water {} must stay within the budget",
            out.high_water
        );
        assert!(
            out.high_water <= max.load(Ordering::SeqCst),
            "pool high water cannot exceed what the tasks themselves observed"
        );
    }

    /// The per-pool high-water mark is immune to other pools running
    /// concurrently.
    #[test]
    fn per_pool_high_water_is_uncontaminated_by_concurrent_pools() {
        let runs: Vec<PoolRun<u32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let tasks: Vec<PoolTask<'_, u32>> = (0..6)
                            .map(|i| {
                                task(i, move || {
                                    std::thread::sleep(std::time::Duration::from_millis(2));
                                    Ok(i)
                                })
                            })
                            .collect();
                        run_pool(2, tasks, None)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for run in &runs {
            assert!(run.results.iter().all(Result::is_ok));
            assert!(
                (1..=2).contains(&run.high_water),
                "pool high water {} leaked across pools",
                run.high_water
            );
        }
    }

    #[test]
    fn idle_hook_runs_while_stragglers_finish() {
        let idle_calls = AtomicUsize::new(0);
        let tasks = vec![
            task(0, || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                Ok(0)
            }),
            task(1, || Ok(1)),
        ];
        let hook = || {
            idle_calls.fetch_add(1, Ordering::SeqCst);
            false
        };
        let out = run_pool(2, tasks, Some(&hook));
        assert!(out.results.iter().all(Result::is_ok));
        assert!(
            idle_calls.load(Ordering::SeqCst) > 0,
            "idle worker never drained"
        );
        assert_eq!(out.idle_panic, None);
    }

    /// Regression (ISSUE 10): a panicking idle hook used to unwind the
    /// scoped worker and abort the whole pool scope, killing sibling
    /// lanes that were mid-flight. Now the panic is contained, the hook
    /// is disarmed for the rest of the pool, and every lane result
    /// survives.
    #[test]
    fn idle_hook_panic_is_contained_and_disarms_the_hook() {
        let idle_calls = AtomicUsize::new(0);
        let tasks = vec![
            task(0, || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                Ok(0)
            }),
            task(1, || Ok(1)),
        ];
        let hook = || -> bool {
            idle_calls.fetch_add(1, Ordering::SeqCst);
            panic!("fault-injection: idle drain dies");
        };
        let out = run_pool(2, tasks, Some(&hook));
        assert!(
            out.results.iter().all(Result::is_ok),
            "lane results must survive an idle-hook panic: {:?}",
            out.results
        );
        assert_eq!(
            idle_calls.load(Ordering::SeqCst),
            1,
            "first panic must disarm the hook for the rest of the pool"
        );
        let payload = out.idle_panic.expect("idle panic reported");
        assert!(payload.contains("idle drain dies"), "{payload}");
    }
}
