//! Execution session: allocator + callbacks + Python stack over a runtime.
//!
//! A [`Session`] is the glue the DL framework wraps around a device
//! runtime: every tensor allocation flows through the caching allocator
//! (emitting `reportMemoryUsage`-style events), every operator brackets its
//! kernels with `RecordFunction`-style events, and the simulated Python
//! stack is maintained for cross-layer call-stack capture.

use crate::alloc::{AllocatorConfig, AllocatorStats, CachingAllocator};
use crate::backend::BackendProfile;
use crate::callbacks::{CallbackRegistry, FrameworkEvent, FrameworkSubscriber, Pass};
use crate::dtype::DType;
use crate::pycall::{PyFrame, PyStack};
use crate::tensor::{Tensor, TensorId};
use accel_sim::{AccelError, DeviceId, DeviceRuntime, KernelDesc, LaunchRecord, Symbol};

/// A live framework session over a device runtime.
pub struct Session<'rt> {
    rt: &'rt mut dyn DeviceRuntime,
    /// One allocator per device that ever allocated, in ascending device
    /// order (one entry in every lane).
    allocators: Vec<(DeviceId, CachingAllocator)>,
    allocator_config: AllocatorConfig,
    callbacks: CallbackRegistry,
    py: PyStack,
    backend: BackendProfile,
    next_tensor: u64,
    op_seq: u64,
    kernels_launched: u64,
    /// cuBLASLt-style GEMM workspace per device: allocated lazily, grown
    /// (free + realloc) when a larger GEMM arrives, and held for the
    /// session — the fused NVIDIA path's "slightly higher peak memory"
    /// of the paper's Fig. 14. Ascending device order, which is the order
    /// [`Session::release_workspaces`] frees them in.
    gemm_workspace: Vec<(DeviceId, Tensor)>,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("backend", &self.backend.vendor)
            .field("tensors_created", &self.next_tensor)
            .field("kernels_launched", &self.kernels_launched)
            .finish()
    }
}

impl<'rt> Session<'rt> {
    /// Creates a session over `rt` with the backend profile matching the
    /// runtime's vendor.
    pub fn new(rt: &'rt mut dyn DeviceRuntime) -> Self {
        let backend = BackendProfile::for_vendor(rt.vendor());
        Session::with_config(rt, backend, AllocatorConfig::default())
    }

    /// Creates a session with explicit backend profile and allocator config
    /// (the UVM experiments pass [`AllocatorConfig::managed`]).
    pub fn with_config(
        rt: &'rt mut dyn DeviceRuntime,
        backend: BackendProfile,
        allocator_config: AllocatorConfig,
    ) -> Self {
        Session {
            rt,
            allocators: Vec::new(),
            allocator_config,
            callbacks: CallbackRegistry::new(),
            py: PyStack::new(),
            backend,
            next_tensor: 0,
            op_seq: 0,
            kernels_launched: 0,
            gemm_workspace: Vec::new(),
        }
    }

    /// The backend profile in effect.
    pub fn backend(&self) -> &BackendProfile {
        &self.backend
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &dyn DeviceRuntime {
        &*self.rt
    }

    /// Mutable runtime access (device switching in multi-GPU runs).
    pub fn runtime_mut(&mut self) -> &mut dyn DeviceRuntime {
        &mut *self.rt
    }

    /// Subscribes to framework events (`at::addGlobalCallback` analogue).
    pub fn subscribe(&mut self, subscriber: FrameworkSubscriber) {
        self.callbacks.subscribe(subscriber);
    }

    /// Emits a framework event to all subscribers.
    pub fn emit(&mut self, event: FrameworkEvent) {
        self.callbacks.emit(&event);
    }

    /// Total kernels launched through this session.
    pub(crate) fn kernels_launched(&self) -> u64 {
        self.kernels_launched
    }

    /// Allocator statistics for the current device.
    pub fn allocator_stats(&self) -> AllocatorStats {
        self.allocator_stats_for(self.rt.current_device())
    }

    /// Allocator statistics for a specific device (multi-GPU reports).
    pub(crate) fn allocator_stats_for(&self, device: DeviceId) -> AllocatorStats {
        self.allocator_for(device)
            .map(CachingAllocator::stats)
            .unwrap_or_default()
    }

    /// Where `device`'s allocator is in `allocators`, or where it would go.
    fn allocator_slot(&self, device: DeviceId) -> Result<usize, usize> {
        self.allocators.binary_search_by_key(&device, |&(d, _)| d)
    }

    /// `device`'s allocator, if the device ever allocated.
    fn allocator_for(&self, device: DeviceId) -> Option<&CachingAllocator> {
        let slot = self.allocator_slot(device).ok()?;
        Some(&self.allocators[slot].1)
    }

    /// Live allocator segment ranges on the current device — the memory
    /// *objects* that object-level UVM prefetching moves wholesale.
    #[cfg(test)]
    pub(crate) fn allocator_segments(&self) -> Vec<(u64, u64)> {
        self.allocator_for(self.rt.current_device())
            .map(CachingAllocator::segments)
            .unwrap_or_default()
    }

    /// Allocates a tensor on the current device, emitting a
    /// [`FrameworkEvent::TensorAlloc`].
    ///
    /// # Errors
    ///
    /// Propagates allocator out-of-memory, and — on a device's first
    /// allocation — [`AccelError::Config`] from
    /// `AllocatorConfig::validate`.
    pub fn alloc_tensor(&mut self, shape: &[usize], dtype: DType) -> Result<Tensor, AccelError> {
        let bytes = Tensor::bytes_for(shape, dtype);
        let dev = self.rt.current_device();
        let slot = match self.allocator_slot(dev) {
            Ok(slot) => slot,
            Err(slot) => {
                self.allocator_config.validate()?;
                let allocator = CachingAllocator::new(self.allocator_config.clone());
                self.allocators.insert(slot, (dev, allocator));
                slot
            }
        };
        let allocator = &mut self.allocators[slot].1;
        let (ptr, _rounded) = allocator.alloc(&mut *self.rt, bytes)?;
        let stats = allocator.stats();
        let id = TensorId(self.next_tensor);
        self.next_tensor += 1;
        let tensor = Tensor {
            id,
            shape: shape.into(),
            dtype,
            ptr,
            bytes,
        };
        self.callbacks.emit(&FrameworkEvent::TensorAlloc {
            tensor: id,
            addr: ptr.addr(),
            bytes,
            allocated_total: stats.allocated,
            reserved_total: stats.reserved,
            device: dev,
        });
        Ok(tensor)
    }

    /// Releases a tensor back to the pool, emitting a
    /// [`FrameworkEvent::TensorFree`].
    ///
    /// # Panics
    ///
    /// Panics on double-free (a framework bug, as in PyTorch) and when
    /// the *current* device never allocated — freeing a tensor after
    /// switching devices. Both unwind into the session boundary, where
    /// PASTA contains them as a typed lane failure.
    pub fn free_tensor(&mut self, tensor: &Tensor) {
        let dev = self.rt.current_device();
        let Ok(slot) = self.allocator_slot(dev) else {
            panic!(
                "free_tensor on {dev}: no allocation ever happened on this \
                 device (was the tensor allocated while another device was \
                 current?)"
            )
        };
        let allocator = &mut self.allocators[slot].1;
        allocator.free(tensor.ptr);
        let stats = allocator.stats();
        self.callbacks.emit(&FrameworkEvent::TensorFree {
            tensor: tensor.id,
            addr: tensor.ptr.addr(),
            bytes: tensor.bytes,
            allocated_total: stats.allocated,
            reserved_total: stats.reserved,
            device: dev,
        });
    }

    /// Brackets an operator: emits `OpStart`, runs `f`, emits `OpEnd`.
    ///
    /// # Errors
    ///
    /// Propagates errors from `f`.
    pub fn with_op<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Session<'rt>) -> Result<T, AccelError>,
    ) -> Result<T, AccelError> {
        let seq = self.op_seq;
        self.op_seq += 1;
        let dev = self.rt.current_device();
        let name = Symbol::intern(name);
        let py_stack = self.py.snapshot();
        self.callbacks.emit(&FrameworkEvent::OpStart {
            seq,
            name,
            device: dev,
            py_stack,
        });
        let out = f(self);
        self.callbacks.emit(&FrameworkEvent::OpEnd {
            seq,
            name,
            device: dev,
        });
        out
    }

    /// Launches a kernel on the current device.
    ///
    /// # Errors
    ///
    /// Propagates launch validation failures.
    pub fn launch(&mut self, desc: KernelDesc) -> Result<LaunchRecord, AccelError> {
        self.kernels_launched += 1;
        self.rt.launch(desc)
    }

    /// Pushes a simulated Python frame.
    pub fn py_push(&mut self, frame: PyFrame) {
        self.py.push(frame);
    }

    /// Pops the top Python frame.
    pub(crate) fn py_pop(&mut self) {
        let _ = self.py.pop();
    }

    /// Emits a `pasta.start()`-style region annotation.
    pub fn region_start(&mut self, label: &str) {
        let device = self.rt.current_device();
        self.callbacks.emit(&FrameworkEvent::RegionStart {
            label: Symbol::intern(label),
            device,
        });
    }

    /// Emits a `pasta.stop()`-style region annotation.
    pub fn region_end(&mut self, label: &str) {
        let device = self.rt.current_device();
        self.callbacks.emit(&FrameworkEvent::RegionEnd {
            label: Symbol::intern(label),
            device,
        });
    }

    /// Emits a layer boundary.
    pub fn layer_boundary(&mut self, name: &str, index: usize) {
        let device = self.rt.current_device();
        self.callbacks.emit(&FrameworkEvent::LayerBoundary {
            name: Symbol::intern(name),
            index,
            device,
        });
    }

    /// Emits a forward/backward/optimizer pass boundary.
    pub fn pass_boundary(&mut self, pass: Pass) {
        let device = self.rt.current_device();
        self.callbacks
            .emit(&FrameworkEvent::PassBoundary { pass, device });
    }

    /// Synchronizes the current device.
    pub fn synchronize(&mut self) {
        self.rt.synchronize();
    }

    /// Ensures the cached GEMM workspace on the current device holds at
    /// least `bytes`, growing it cublas-handle style (free + realloc on
    /// growth, reuse otherwise). Returns the workspace tensor.
    ///
    /// # Errors
    ///
    /// Propagates allocator out-of-memory.
    pub(crate) fn ensure_gemm_workspace(&mut self, bytes: u64) -> Result<Tensor, AccelError> {
        let dev = self.rt.current_device();
        let slot = match self.gemm_workspace.binary_search_by_key(&dev, |&(d, _)| d) {
            Ok(slot) => {
                let ws = self.gemm_workspace[slot].1.clone();
                if ws.bytes >= bytes {
                    return Ok(ws);
                }
                self.free_tensor(&ws);
                self.gemm_workspace.remove(slot);
                slot
            }
            Err(slot) => slot,
        };
        let ws = self.alloc_tensor(&[(bytes / 4).max(1) as usize], DType::F32)?;
        self.gemm_workspace.insert(slot, (dev, ws.clone()));
        Ok(ws)
    }

    /// Frees all cached GEMM workspaces, lowest device first (call before
    /// final memory accounting; the runner does this automatically).
    pub fn release_workspaces(&mut self) {
        let current = self.rt.current_device();
        for (dev, ws) in std::mem::take(&mut self.gemm_workspace) {
            let _ = self.rt.set_device(dev);
            self.free_tensor(&ws);
        }
        let _ = self.rt.set_device(current);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::sync::Mutex;
    use accel_sim::DeviceSpec;
    use std::sync::Arc;
    use vendor_nv::CudaContext;

    #[test]
    fn tensor_lifecycle_emits_events() {
        let mut rt = CudaContext::new(vec![DeviceSpec::rtx_3060()]);
        let mut s = Session::new(&mut rt);
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        s.subscribe(Box::new(move |e| {
            let tag = match e {
                FrameworkEvent::TensorAlloc { bytes, .. } => format!("alloc:{bytes}"),
                FrameworkEvent::TensorFree { bytes, .. } => format!("free:{bytes}"),
                _ => return,
            };
            l2.lock().push(tag);
        }));
        let t = s.alloc_tensor(&[128, 128], DType::F32).unwrap();
        assert_eq!(t.bytes, 128 * 128 * 4);
        s.free_tensor(&t);
        let log = log.lock();
        assert_eq!(*log, vec!["alloc:65536", "free:65536"]);
    }

    #[test]
    fn with_op_brackets_events() {
        let mut rt = CudaContext::new(vec![DeviceSpec::rtx_3060()]);
        let mut s = Session::new(&mut rt);
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        s.subscribe(Box::new(move |e| match e {
            FrameworkEvent::OpStart { name, .. } => l2.lock().push(format!("start:{name}")),
            FrameworkEvent::OpEnd { name, .. } => l2.lock().push(format!("end:{name}")),
            _ => {}
        }));
        s.with_op("aten::linear", |s| s.with_op("aten::addmm", |_s| Ok(())))
            .unwrap();
        let log = log.lock();
        assert_eq!(
            *log,
            vec![
                "start:aten::linear",
                "start:aten::addmm",
                "end:aten::addmm",
                "end:aten::linear"
            ]
        );
    }

    #[test]
    fn op_events_capture_python_stack() {
        let mut rt = CudaContext::new(vec![DeviceSpec::rtx_3060()]);
        let mut s = Session::new(&mut rt);
        let captured = Arc::new(Mutex::new(Vec::new()));
        let c2 = Arc::clone(&captured);
        s.subscribe(Box::new(move |e| {
            if let FrameworkEvent::OpStart { py_stack, .. } = e {
                c2.lock().push(py_stack.len());
            }
        }));
        s.py_push(PyFrame::new("run.py", 10, "main"));
        s.py_push(PyFrame::new("model.py", 20, "forward"));
        s.with_op("aten::relu", |_s| Ok(())).unwrap();
        s.py_pop();
        s.with_op("aten::sum", |_s| Ok(())).unwrap();
        assert_eq!(*captured.lock(), vec![2, 1]);
    }

    #[test]
    fn backend_follows_runtime_vendor() {
        let mut rt = vendor_amd::HipContext::new(vec![DeviceSpec::mi300x()]);
        let s = Session::new(&mut rt);
        assert_eq!(s.backend().vendor, accel_sim::Vendor::Amd);
        assert!(!s.backend().fused_epilogue);
    }

    #[test]
    fn workspaces_release_lowest_device_first_in_every_session() {
        // (device, addr, freed?) of every tensor event of one session that
        // ran a GEMM on device 1, then on device 0.
        let run = || {
            let mut rt = CudaContext::new(vec![DeviceSpec::a100_80gb(); 2]);
            let mut s = Session::new(&mut rt);
            let log = Arc::new(Mutex::new(Vec::new()));
            let l2 = Arc::clone(&log);
            s.subscribe(Box::new(move |e| match e {
                FrameworkEvent::TensorAlloc { device, addr, .. } => {
                    l2.lock().push((*device, *addr, false))
                }
                FrameworkEvent::TensorFree { device, addr, .. } => {
                    l2.lock().push((*device, *addr, true))
                }
                _ => {}
            }));
            for device in [DeviceId(1), DeviceId(0)] {
                s.runtime_mut().set_device(device).unwrap();
                s.ensure_gemm_workspace(4 << 20).unwrap();
            }
            s.release_workspaces();
            assert_eq!(s.runtime().current_device(), DeviceId(0), "restored");
            for device in [DeviceId(0), DeviceId(1)] {
                assert_eq!(s.allocator_stats_for(device).allocated, 0);
            }
            let events = log.lock().clone();
            events
        };
        let first = run();
        let freed: Vec<DeviceId> = first
            .iter()
            .filter(|(_, _, freed)| *freed)
            .map(|(device, ..)| *device)
            .collect();
        assert_eq!(freed, [DeviceId(0), DeviceId(1)]);
        for session in 1..20 {
            assert_eq!(run(), first, "session {session} emitted another order");
        }
    }

    #[test]
    fn a_hostile_allocator_config_is_a_typed_error_on_the_first_allocation() {
        let hostile = [
            AllocatorConfig {
                round: 0,
                ..AllocatorConfig::default()
            },
            AllocatorConfig {
                round: 768,
                ..AllocatorConfig::default()
            },
            AllocatorConfig {
                large_segment: 4 << 20,
                ..AllocatorConfig::default()
            },
            AllocatorConfig {
                small_segment: 64 << 10,
                ..AllocatorConfig::managed()
            },
        ];
        for config in hostile {
            let mut rt = CudaContext::new(vec![DeviceSpec::rtx_3060()]);
            let mut s = Session::with_config(&mut rt, BackendProfile::nvidia(), config.clone());
            for _ in 0..2 {
                let refused = s.alloc_tensor(&[9 << 20], DType::F32);
                assert!(
                    matches!(&refused, Err(AccelError::Config(m)) if m.contains("AllocatorConfig::")),
                    "{config:?}: {refused:?}"
                );
            }
            assert_eq!(s.allocator_stats(), AllocatorStats::default());
            assert!(s.allocator_segments().is_empty(), "no allocator was built");
        }
    }

    #[test]
    fn allocator_stats_visible() {
        let mut rt = CudaContext::new(vec![DeviceSpec::rtx_3060()]);
        let mut s = Session::new(&mut rt);
        let t = s.alloc_tensor(&[1024], DType::F32).unwrap();
        assert!(s.allocator_stats().allocated >= 4096);
        assert!(!s.allocator_segments().is_empty());
        s.free_tensor(&t);
        assert_eq!(s.allocator_stats().allocated, 0);
        assert!(s.allocator_stats().reserved > 0, "segments stay cached");
    }
}
