//! The parallel regions of a [`PastaSession`]: one lane per device, built
//! from the session's `ContextRecipe`, driven by the caller's closure
//! ([`PastaSession::run_parallel`]) or the bounded lane pool
//! ([`PastaSession::run_parallel_each`]), drained per `DrainPolicy`, then
//! harvested — lane UVM managers, overhead and records fold back into the
//! session, and a contained panic is salvaged.

use super::session::PastaSession;
use crate::error::{LaneFailure, PastaError};
use crate::spine::{self, SpineDrainer, SpineMode};
use accel_sim::{panic_message, AccelError, DeviceId};
use dl_framework::lane_exec::{self, LaneSchedule};
use dl_framework::parallel::DeviceLane;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use uvm_sim::UvmManager;

/// Thread budgets for the scale-out executor: how many OS threads a
/// parallel region and its teardown may spend, independent of how many
/// device lanes it drives. Every budget is a cap, not a count — a region
/// never spawns more workers than it has work — and `0` means "available
/// parallelism" (what the OS reports).
///
/// Threads are a *resource* knob only: per-lane event streams, merged
/// reports and UVM statistics are byte-identical at every setting (the
/// tree merge's shape depends on shard count alone, and lanes never share
/// state), so `ParallelConfig` can be tuned freely without invalidating
/// profiles.
///
/// ```
/// use pasta_core::{Pasta, ParallelConfig};
/// let builder = Pasta::builder().parallel(ParallelConfig {
///     max_lane_threads: 4,
///     ..ParallelConfig::default()
/// });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelConfig {
    /// Lane worker threads for `run_parallel`/`run_parallel_each`: lanes
    /// are multiplexed onto at most this many pooled workers (named
    /// `lane-dev{N}` after their first lane) instead of one thread per
    /// device. Idle workers absorb spine-drain duty.
    pub max_lane_threads: usize,
    /// Worker threads for the session-end merge plan (tool folds across
    /// shards, forked UVM managers) — the tree reduction in
    /// [`crate::merge`], workers named `merge-{k}`.
    pub max_merge_threads: usize,
    /// Background spine-drainer threads for `run_parallel` (named
    /// `drain-dev{N}`); each services an interleaved slice of the lane
    /// devices instead of one thread per device.
    pub max_drain_threads: usize,
}

impl PastaSession {
    /// Creates one instrumented per-device framework session ("lane") per
    /// entry of `devices` and hands them to `f` — the substrate of the
    /// genuinely concurrent multi-device workloads: each lane owns its
    /// own vendor context (full device list, pinned to its device) and
    /// its own profiler whose sink feeds that device's hub shard, so
    /// `f` can drive every lane from its own OS thread with no shared
    /// lock on the emission path.
    ///
    /// Lanes inherit the session's backend, sampling and allocator
    /// configuration. A session built with [`crate::UvmSetup`] replicates its
    /// UVM manager into every lane via [`UvmManager::fork`] — same
    /// config, budgets and registrations, fresh residency and counters —
    /// so lane tensor traffic faults and migrates with no cross-lane
    /// lock; lane UVM state merges back into the session manager
    /// (ascending device id) when `f` returns, and surfaces through
    /// [`PastaSession::uvm_report`]. Lane instrumentation overhead and
    /// record counts fold into
    /// [`PastaSession::overhead`]/[`PastaSession::records`] when `f`
    /// returns.
    ///
    /// # Errors
    ///
    /// [`PastaError::Config`] on an empty device list, a duplicate
    /// [`DeviceId`] (each device gets exactly one lane), or a device the
    /// session was not built with; otherwise propagates failures from
    /// `f`.
    pub fn run_parallel<R>(
        &mut self,
        devices: &[DeviceId],
        f: impl FnOnce(&mut [DeviceLane<'_>]) -> Result<R, AccelError>,
    ) -> Result<R, PastaError> {
        self.run_parallel_impl(devices, DrainPolicy::Background, f)
    }

    fn run_parallel_impl<R>(
        &mut self,
        devices: &[DeviceId],
        drain_policy: DrainPolicy,
        f: impl FnOnce(&mut [DeviceLane<'_>]) -> Result<R, AccelError>,
    ) -> Result<R, PastaError> {
        if devices.is_empty() {
            return Err(PastaError::Config(
                "parallel device list is empty: pass at least one DeviceId".into(),
            ));
        }
        for (i, device) in devices.iter().enumerate() {
            if devices[..i].contains(device) {
                return Err(PastaError::Config(format!(
                    "duplicate device {device} in the parallel device list: \
                     each device gets exactly one lane"
                )));
            }
            if device.index() >= self.recipe.specs.len() {
                return Err(PastaError::Config(format!(
                    "device {device} is not part of this session ({} device(s) configured)",
                    self.recipe.specs.len()
                )));
            }
        }

        // Per-lane contexts: the full device list each, pinned to the
        // lane's device, host callbacks and (when tools want device
        // events) a profiler+sink wired into the shared hub.
        let mut contexts = Vec::with_capacity(devices.len());
        let mut handles = Vec::new();
        for &device in devices {
            // A UVM session replicates into its lanes: each lane carries a
            // manager forked from the session's (same config, budgets and
            // registrations, fresh residency and counters), so managed
            // allocations made on the lane fault, migrate and evict with
            // no lock shared across lanes. Lane state merges back into
            // the session manager when `f` returns.
            let uvm = self.runtime.uvm_manager().map(|m| m.fork(device));
            let (ctx, handle) = self.recipe.build(&self.hub, device, uvm)?;
            contexts.push(ctx);
            handles.extend(handle);
        }

        let mut lanes: Vec<DeviceLane<'_>> = contexts
            .iter_mut()
            .zip(devices)
            .map(|(ctx, &device)| {
                let session = self.recipe.framework_session(&mut **ctx, &self.hub);
                DeviceLane::pin(device, session)
                    .map(|mut lane| {
                        // Stamp the session's lane budget so pooled lane
                        // schedules (dl-framework's `drive_lanes`) inherit
                        // it without a config parameter of their own, and
                        // the session's watermark so every pool the lanes
                        // ride reports its per-pool high water back here.
                        lane.set_pool_limit(self.parallel.max_lane_threads);
                        lane.set_pool_watermark(Arc::clone(&self.pool_watermark));
                        lane
                    })
                    .map_err(PastaError::from)
            })
            .collect::<Result<_, _>>()?;

        // Lane drain scheduling: with the ring spine, a bounded set of
        // background drainers (at most `max_drain_threads`, `0` = the
        // machine's parallelism — never more than one per device) keeps
        // the lane shards' rings drained while the emitters run, so tool
        // dispatch leaves the emission critical path. Pool-idle regions
        // ([`PastaSession::run_parallel_each`]) skip the threads entirely
        // — their idle lane workers sweep the shards instead. Inline-spine
        // (or host-only) sessions also skip them: there is nothing to
        // drain off-path. Either way the spine's producer-side
        // backpressure keeps the path lossless without any drainer.
        let drain_width = accel_sim::resolve_threads(self.parallel.max_drain_threads);
        let drainer = (self.recipe.wants_device
            && self.recipe.spine_mode == SpineMode::Ring
            && drain_policy == DrainPolicy::Background)
            .then(|| SpineDrainer::start_bounded(Arc::clone(&self.hub), devices, drain_width));

        // The orchestration closure is contained like a lane: a panic
        // unwinding out of it (or out of an unguarded thread it joined)
        // becomes a typed failure, and the harvest below still runs so the
        // surviving lanes' shards and UVM managers merge into the session.
        let result = match catch_unwind(AssertUnwindSafe(|| f(&mut lanes))) {
            Ok(result) => result.map_err(PastaError::from),
            Err(payload) => Err(PastaError::Lane(LaneFailure {
                device: None,
                payload: panic_message(payload.as_ref()),
            })),
        };
        // Settle lane clocks (also on failure) so nothing stays in flight,
        // then fold lane instrumentation accounting into the session.
        for lane in &mut lanes {
            lane.session.synchronize();
        }
        drop(lanes);
        // Stop the drainers, then make every pushed event visible before
        // the harvest below — lane sinks were dropped with the contexts
        // further down, but their rings stay registered until drained
        // empty, so a panicked lane's events still reach the salvaged
        // report. (Contexts drop after the quiesce-on-lock harvest paths
        // run; the explicit quiesce here covers everything pushed so far.)
        if let Some(drainer) = drainer {
            drainer.stop();
        }
        self.hub.quiesce();
        // Harvest the lane UVM managers and fold them into the session
        // manager in ascending device id — the same deterministic order
        // as the session-end tool merge, regardless of the order the
        // caller listed the devices in. The fold runs through the shared
        // merge plan: lane managers tree-reduce pairwise in device order
        // (`UvmManager::merge` is associative — stats sum, hotness lanes
        // replay their recording logs in device order, shared-range
        // import is order-independent), then the single combined manager
        // merges into the session's, byte-identical to the linear chain
        // this replaces but with an O(N/W + log N) critical path at 64+
        // lanes. Per-device stats are captured *before* the reduction —
        // the tree consumes the lane managers.
        let mut lane_managers: Vec<(DeviceId, UvmManager)> = Vec::new();
        for (ctx, &device) in contexts.iter_mut().zip(devices) {
            let Some(model) = ctx.engine_mut().take_residency() else {
                continue;
            };
            if let Ok(manager) = model.into_any().downcast::<UvmManager>() {
                lane_managers.push((device, *manager));
            }
        }
        lane_managers.sort_by_key(|&(device, _)| device);
        if !lane_managers.is_empty() {
            if let Some(session_manager) = self.runtime.uvm_manager_mut() {
                for (device, lane_manager) in &lane_managers {
                    self.lane_uvm
                        .entry(*device)
                        .or_default()
                        .merge_from(&lane_manager.stats());
                }
                let managers: Vec<UvmManager> = lane_managers.into_iter().map(|(_, m)| m).collect();
                if let Some(combined) =
                    crate::merge::tree_reduce(managers, self.parallel.max_merge_threads, |a, b| {
                        a.merge(&b)
                    })
                {
                    session_manager.merge(&combined);
                }
            }
        }
        for handle in handles {
            self.lane_overhead = self.lane_overhead.merge(handle.breakdown());
            self.lane_records += handle.records_total();
        }
        // Lane sinks die with their contexts; a ring-mode sink's Drop
        // spills partial spill buffers onto its rings (even for a lane
        // that panicked mid-launch). Quiesce afterwards so that tail is
        // visible to the salvaged report `salvage` may build below.
        drop(contexts);
        self.hub.quiesce();
        result.map_err(|e| self.salvage(e))
    }

    /// Runs `work` once per lane on the bounded lane pool, each lane's
    /// panic contained at the lane boundary — the fault-isolated sibling
    /// of hand-rolling thread orchestration inside
    /// [`PastaSession::run_parallel`].
    ///
    /// Lanes are multiplexed onto at most
    /// [`ParallelConfig::max_lane_threads`] pooled workers (named
    /// `lane-dev{N}` after the first lane each runs), so a 256-device
    /// region costs a handful of OS threads, not 256. No background
    /// drainer threads are spawned either: a pool worker that runs out of
    /// lanes sweeps the lane shards' spine rings until the stragglers
    /// finish, and the spine's producer-side backpressure covers the rest
    /// — losslessly, so thread budgets never change the merged bytes.
    ///
    /// `work` receives the lane's index into `devices` and the lane
    /// itself. A panicking lane becomes a [`LaneFailure`] attributed to
    /// its device; the surviving lanes run to completion and their shard
    /// and UVM state still merges into the session, so the resulting
    /// [`PastaError::Salvaged`] carries a usable report. Failure follows
    /// the lane executor's one precedence rule: every lane runs; the
    /// first panic (ascending position in `devices`) is the root cause,
    /// otherwise the first lane error.
    ///
    /// # Errors
    ///
    /// The same configuration errors as [`PastaSession::run_parallel`];
    /// [`PastaError::Salvaged`] when a lane panicked; the first lane
    /// error otherwise.
    pub fn run_parallel_each(
        &mut self,
        devices: &[DeviceId],
        work: impl Fn(usize, &mut DeviceLane<'_>) -> Result<(), AccelError> + Sync,
    ) -> Result<(), PastaError> {
        let hub = Arc::clone(&self.hub);
        let rings = self.recipe.wants_device && self.recipe.spine_mode == SpineMode::Ring;
        self.run_parallel_impl(devices, DrainPolicy::PoolIdle, |lanes| {
            let sweep = || spine::sweep(&hub, devices);
            let idle = rings.then_some(&sweep as &(dyn Fn() -> bool + Sync));
            lane_exec::drive_lanes(lanes, LaneSchedule::Threaded, idle, work).map(drop)
        })
    }
}

/// Who keeps the spine rings drained while a parallel region's lanes run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DrainPolicy {
    /// A bounded set of dedicated drainer threads
    /// ([`SpineDrainer::start_bounded`]) — for [`PastaSession::run_parallel`],
    /// whose orchestration closure is opaque to the session.
    Background,
    /// No drainer threads: the caller's lane pool sweeps the shards from
    /// idle workers ([`PastaSession::run_parallel_each`]).
    PoolIdle,
}

#[cfg(test)]
mod tests {
    use super::super::{Pasta, UvmSetup};
    use super::*;
    use crate::knob::Knob;
    use crate::tool::LaunchCounter;

    #[test]
    fn run_parallel_rejects_bad_device_lists() {
        let mut session = Pasta::builder()
            .a100_x2()
            .tool(LaunchCounter::default())
            .build()
            .unwrap();

        let err = session
            .run_parallel(&[], |_| Ok(()))
            .expect_err("empty device list");
        assert!(
            matches!(&err, PastaError::Config(m) if m.contains("empty")),
            "{err}"
        );

        let err = session
            .run_parallel(&[DeviceId(0), DeviceId(1), DeviceId(0)], |_| Ok(()))
            .expect_err("duplicate device");
        let PastaError::Config(msg) = &err else {
            panic!("duplicate DeviceId must be a config error, got {err}");
        };
        assert!(msg.contains("duplicate device gpu0"), "unhelpful: {msg}");
        assert!(
            !msg.contains("  "),
            "message has collapsed whitespace: {msg}"
        );

        let err = session
            .run_parallel(&[DeviceId(7)], |_| Ok(()))
            .expect_err("unknown device");
        assert!(
            matches!(&err, PastaError::Config(m) if m.contains("gpu7")),
            "{err}"
        );
    }

    #[test]
    fn run_parallel_lanes_feed_per_device_shards_and_merge() {
        use dl_framework::dtype::DType;
        let mut session = Pasta::builder()
            .a100_x2()
            .tool(LaunchCounter::default())
            .build()
            .unwrap();
        let devices = [DeviceId(0), DeviceId(1)];
        session
            .run_parallel(&devices, |lanes| {
                assert_eq!(lanes.len(), 2);
                // Drive both lanes from their own threads: tensor traffic
                // and kernel launches race into the hub.
                std::thread::scope(|scope| {
                    for lane in lanes.iter_mut() {
                        scope.spawn(move || {
                            let s = &mut lane.session;
                            let t = s.alloc_tensor(&[1024], DType::F32).unwrap();
                            for _ in 0..5 {
                                let desc = accel_sim::KernelDesc::new(
                                    "lane_kernel",
                                    accel_sim::Dim3::linear(8),
                                    accel_sim::Dim3::linear(128),
                                )
                                .arg(t.ptr, t.bytes)
                                .body(accel_sim::KernelBody::compute(1 << 16));
                                s.launch(desc).unwrap();
                            }
                            s.free_tensor(&t);
                        });
                    }
                });
                Ok(())
            })
            .unwrap();
        // Each shard saw its own lane's 5 launches...
        for shard in session.hub.shards() {
            let n = shard
                .lock()
                .tools
                .with_tool_mut("launch-counter", |t: &mut LaunchCounter| t.launches)
                .unwrap();
            assert_eq!(n, 5, "shard {} launches", shard.device());
        }
        // ...and the merged view folds both, deterministically.
        let total = session
            .with_merged_tool("launch-counter", |t: &LaunchCounter| t.launches)
            .unwrap();
        assert_eq!(total, 10);
        let merged = session.merged_report();
        assert_eq!(merged.per_device.len(), 2);
        assert_eq!(merged, session.merged_report(), "merge is repeatable");
        // The merged knob view sums both devices' launches.
        let (kernel, agg) = session.knob_selection(Knob::MaxCalledKernel).unwrap();
        assert_eq!(kernel, "lane_kernel");
        assert_eq!(agg.calls, 10);
    }

    #[test]
    fn run_parallel_forks_and_merges_lane_uvm_managers() {
        use dl_framework::dtype::DType;
        let mut session = Pasta::builder()
            .a100_x2()
            .uvm(UvmSetup::default())
            .tool(LaunchCounter::default())
            .build()
            .unwrap();
        assert!(session.uvm_report().is_some(), "UVM session reports UVM");
        let devices = [DeviceId(0), DeviceId(1)];
        session
            .run_parallel(&devices, |lanes| {
                std::thread::scope(|scope| {
                    for lane in lanes.iter_mut() {
                        scope.spawn(move || {
                            // Lane-local UVM access through the workload
                            // surface: the manager is the lane's own fork.
                            let mut cx = crate::workload::WorkloadCx::for_lane(lane);
                            assert!(cx.uvm().is_some(), "lanes carry forked managers");
                            let s = cx.session();
                            let t = s.alloc_tensor(&[1 << 20], DType::F32).unwrap();
                            let desc = accel_sim::KernelDesc::new(
                                "uvm_lane_kernel",
                                accel_sim::Dim3::linear(64),
                                accel_sim::Dim3::linear(128),
                            )
                            .arg(t.ptr, t.bytes)
                            .body(accel_sim::KernelBody::streaming(t.bytes / 2, t.bytes / 2));
                            let rec = s.launch(desc).unwrap();
                            assert!(rec.uvm_faults > 0, "managed tensors fault cold");
                            s.free_tensor(&t);
                        });
                    }
                });
                Ok(())
            })
            .unwrap();
        let report = session.uvm_report().expect("uvm attached");
        assert_eq!(report.per_device.len(), 2, "one UVM entry per lane");
        assert_eq!(report.per_device[0].0, DeviceId(0));
        assert_eq!(report.per_device[1].0, DeviceId(1));
        let mut sum = uvm_sim::UvmStats::default();
        for (device, stats) in &report.per_device {
            assert!(stats.fault_groups > 0, "{device} faulted");
            sum.merge_from(stats);
        }
        assert_eq!(
            report.stats, sum,
            "session totals equal the lane fold (no other UVM activity ran)"
        );
        let merged = session.merged_report();
        assert_eq!(merged.uvm, Some(report), "merged report carries the slice");
        // Analysis reset clears the UVM window too — counters, the
        // per-lane breakdown and the hotness clock together.
        session.reset_analysis();
        let after = session.uvm_report().expect("manager still attached");
        assert_eq!(after.stats, uvm_sim::UvmStats::default());
        assert!(after.per_device.is_empty());
        let mut probe = crate::workload::FnWorkload::new("hotness-probe", |cx| {
            let hotness = cx.uvm().expect("uvm attached").hotness();
            assert_eq!(hotness.events_seen(), 0, "hotness clock reset with stats");
            Ok(crate::workload::WorkloadStats::new(0))
        });
        session.run(&mut probe).unwrap();
    }
}
