//! The one worker pool and its thread-budget rule.
//!
//! Every PASTA thread is a worker of [`run_pool`]: the lanes of a parallel
//! region (`dl_framework::lane_exec`, workers `lane-dev{N}`), the two
//! pipeline stages, and the session-end merge (`pasta_core::merge`,
//! workers `merge-{k}`). The `0 = available parallelism` rule
//! ([`resolve_threads`]) appears on every knob of `ParallelConfig`.
//!
//! **Bounded pool.** [`run_pool`] multiplexes tasks onto at most
//! `max_threads` workers, each seeded with one task and then claiming
//! further tasks from a shared queue in task order. The calling thread is
//! worker 0, so a pool of `W` spawns `W − 1` threads and a pool of one
//! spawns none. Containment is per task, not per thread, so a worker
//! survives a panicking task to run the remaining ones.
//!
//! **Thread naming**: a spawned worker is named after its role and the
//! first task it runs (`lane-dev3`, `merge-1`). Names are fixed at spawn;
//! a worker that later claims other tasks keeps its name, but the
//! [`AccelError::LanePanic`] it reports always carries the right task's
//! device. With `max_threads >= tasks` every task after the first runs on
//! a thread bearing its own number — the configuration the
//! fault-containment name test pins.
//!
//! **Scheduling caveat**: tasks on a bounded pool must not block on each
//! other — with fewer workers than tasks, a task waiting for one that has
//! not been scheduled yet deadlocks.

use crate::error::{panic_message, AccelError};
use crate::id::DeviceId;
use crate::sync::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a thread budget: `0` means "available parallelism" (1 if the
/// OS will not say), any other value is taken literally.
pub fn resolve_threads(max_threads: usize) -> usize {
    if max_threads > 0 {
        max_threads
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// One unit of pool work: the device it stands for (its worker's name
/// and its panic's attribution — a lane's device, a merge block's index)
/// and the closure that does it.
pub struct PoolTask<'a, T> {
    /// Device the task stands for.
    pub device: DeviceId,
    /// The task's work; runs exactly once, contained by `catch_unwind`.
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
/// pool's own concurrency diagnostic.
#[derive(Debug)]
pub struct PoolRun<T> {
    /// Per-task results, **in task order**, regardless of which worker
    /// ran what.
    pub results: Vec<Result<T, AccelError>>,
    /// Peak number of *this pool's* tasks that ran concurrently; other
    /// pools running in parallel cannot contaminate it.
    pub high_water: usize,
}

/// Contains a panic at the task boundary: `f`'s panic becomes a typed
/// [`AccelError::LanePanic`] attributed to `device` instead of unwinding
/// further. The non-panic path costs nothing (`catch_unwind` is
/// zero-overhead until a panic actually lands).
pub fn contain<T>(
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
/// `resolve_threads(max_threads).min(tasks.len())` workers run the tasks:
/// the calling thread as worker 0, the others spawned for this call and
/// joined before it returns. Worker `w` is seeded with task `w`, and a
/// spawned one is named `{role}{N}` after that task's device; exhausted
/// workers claim remaining tasks in index order.
///
/// A panicking task is contained at the task boundary and surfaces as
/// [`AccelError::LanePanic`] for its device; remaining tasks still run.
pub fn run_pool<'a, T: Send>(
    role: &str,
    max_threads: usize,
    tasks: Vec<PoolTask<'a, T>>,
) -> PoolRun<T> {
    let n = tasks.len();
    if n == 0 {
        return PoolRun {
            results: Vec::new(),
            high_water: 0,
        };
    }
    let workers = resolve_threads(max_threads).min(n);
    let devices: Vec<DeviceId> = tasks.iter().map(|t| t.device).collect();
    let slots: Vec<Mutex<Option<PoolTask<'a, T>>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<Result<T, AccelError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(workers);
    let live = AtomicUsize::new(0);
    let pool_high = AtomicUsize::new(0);

    let run_task = |i: usize| {
        let Some(task) = slots[i].lock().take() else {
            return;
        };
        let concurrent = live.fetch_add(1, Ordering::SeqCst) + 1;
        pool_high.fetch_max(concurrent, Ordering::SeqCst);
        let result = contain(task.device, task.run);
        live.fetch_sub(1, Ordering::SeqCst);
        *results[i].lock() = Some(result);
    };
    // Worker `w`: its seed task, then claims in task order.
    let worker = |w: usize| {
        run_task(w);
        loop {
            let claim = next.fetch_add(1, Ordering::SeqCst);
            if claim >= n {
                break;
            }
            run_task(claim);
        }
    };
    std::thread::scope(|scope| {
        let worker = &worker;
        for (w, seed_device) in devices.iter().enumerate().take(workers).skip(1) {
            // Thread spawning fails only on resource exhaustion, where
            // the unnamed `Scope::spawn` would panic too.
            std::thread::Builder::new()
                .name(format!("{role}{}", seed_device.index()))
                .spawn_scoped(scope, move || worker(w))
                .expect("spawn pool worker");
        }
        worker(0);
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
                    payload: "pool task never ran (worker lost)".into(),
                })
            })
        })
        .collect();
    PoolRun {
        results,
        high_water: pool_high.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn explicit_budget_is_literal_and_zero_asks_the_os() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1, "0 resolves to at least one");
    }

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
            let out = run_pool("t-", threads, tasks);
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
        let out = run_pool("t-", 1, tasks).results;
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
    fn the_caller_is_worker_zero_and_spawned_workers_carry_role_and_seed() {
        let name = || std::thread::current().name().unwrap_or("").to_owned();
        let tasks: Vec<PoolTask<'_, String>> = (0..3)
            .map(|d| PoolTask {
                device: DeviceId(d),
                run: Box::new(move || Ok(name())),
            })
            .collect();
        let names: Vec<String> = run_pool("merge-", 3, tasks)
            .results
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(names, [name(), "merge-1".into(), "merge-2".into()]);
    }

    #[test]
    fn concurrency_never_exceeds_the_budget() {
        let cur = AtomicUsize::new(0);
        let max = AtomicUsize::new(0);
        let tasks: Vec<PoolTask<'_, u32>> = (0..12)
            .map(|i| {
                let (cur, max) = (&cur, &max);
                task(i, move || {
                    let c = cur.fetch_add(1, Ordering::SeqCst) + 1;
                    max.fetch_max(c, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(1));
                    cur.fetch_sub(1, Ordering::SeqCst);
                    Ok(i)
                })
            })
            .collect();
        let out = run_pool("t-", 3, tasks);
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
                                    std::thread::sleep(Duration::from_millis(2));
                                    Ok(i)
                                })
                            })
                            .collect();
                        run_pool("t-", 2, tasks)
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
}
