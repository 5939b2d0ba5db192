//! Framework-level callbacks.
//!
//! Reproduces PyTorch's observer surface that PASTA hooks (§IV-A):
//! `c10::reportMemoryUsage` → [`FrameworkEvent::TensorAlloc`] /
//! [`FrameworkEvent::TensorFree`]; `at::RecordFunctionCallback` →
//! [`FrameworkEvent::OpStart`] / [`FrameworkEvent::OpEnd`]. The annotation
//! events ([`FrameworkEvent::RegionStart`] …) carry the paper's
//! `pasta.start()`/`pasta.stop()` range markers (§III-F1).

use crate::pycall::PyFrame;
use crate::tensor::TensorId;
use accel_sim::{DeviceId, Symbol};
use std::sync::Arc;

/// Which pass of training is running (Table II "Forward/Backward Boundary").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Forward pass.
    Forward,
    /// Backward pass.
    Backward,
    /// Optimizer step.
    Optimizer,
}

/// A high-level DL framework event (paper Table II, bottom section).
#[derive(Debug, Clone, PartialEq)]
pub enum FrameworkEvent {
    /// An operator began executing (`at::RecordFunction` start).
    OpStart {
        /// Operator sequence number.
        seq: u64,
        /// Operator name, e.g. `"aten::conv2d"`, interned.
        name: Symbol,
        /// Device the operator targets.
        device: DeviceId,
        /// Python-side stack at the call site, outermost first — shared
        /// with every other operator started at the same stack.
        py_stack: Arc<[PyFrame]>,
    },
    /// The operator finished (`at::RecordFunction` end).
    OpEnd {
        /// Operator sequence number.
        seq: u64,
        /// Operator name, interned.
        name: Symbol,
        /// Device.
        device: DeviceId,
    },
    /// A tensor was allocated from the caching allocator
    /// (`c10::reportMemoryUsage` with positive delta).
    TensorAlloc {
        /// Tensor id.
        tensor: TensorId,
        /// Base address within a pool segment.
        addr: u64,
        /// Tensor bytes (positive).
        bytes: u64,
        /// Allocator's total live bytes after this event.
        allocated_total: u64,
        /// Allocator's reserved (segment) bytes after this event.
        reserved_total: u64,
        /// Device.
        device: DeviceId,
    },
    /// A tensor was released back to the pool.
    TensorFree {
        /// Tensor id.
        tensor: TensorId,
        /// Base address.
        addr: u64,
        /// Tensor bytes (positive; the *event handler* normalizes vendors
        /// that report deltas).
        bytes: u64,
        /// Allocator's total live bytes after this event.
        allocated_total: u64,
        /// Allocator's reserved bytes after this event.
        reserved_total: u64,
        /// Device.
        device: DeviceId,
    },
    /// A named layer boundary (requires `pasta` annotations in the paper).
    LayerBoundary {
        /// Layer name, e.g. `"encoder.layer.7"`, interned.
        name: Symbol,
        /// Layer ordinal within the model.
        index: usize,
        /// Device.
        device: DeviceId,
    },
    /// Forward/backward/optimizer pass boundary.
    PassBoundary {
        /// Which pass begins here.
        pass: Pass,
        /// Device.
        device: DeviceId,
    },
    /// `pasta.start()`-style custom region annotation.
    RegionStart {
        /// User label, interned.
        label: Symbol,
        /// Device.
        device: DeviceId,
    },
    /// `pasta.stop()`-style region end.
    RegionEnd {
        /// User label, interned.
        label: Symbol,
        /// Device.
        device: DeviceId,
    },
}

/// A framework-event subscriber.
pub type FrameworkSubscriber = Box<dyn FnMut(&FrameworkEvent) + Send>;

/// Registry of framework-event subscribers (the analogue of
/// `at::addGlobalCallback`).
#[derive(Default)]
pub struct CallbackRegistry {
    subscribers: Vec<FrameworkSubscriber>,
}

impl std::fmt::Debug for CallbackRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CallbackRegistry")
            .field("subscribers", &self.subscribers.len())
            .finish()
    }
}

impl CallbackRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        CallbackRegistry::default()
    }

    /// Adds a subscriber.
    pub fn subscribe(&mut self, subscriber: FrameworkSubscriber) {
        self.subscribers.push(subscriber);
    }

    /// Number of subscribers.
    pub fn len(&self) -> usize {
        self.subscribers.len()
    }

    /// True when nobody is listening.
    pub fn is_empty(&self) -> bool {
        self.subscribers.is_empty()
    }

    /// Delivers an event to every subscriber, in registration order.
    pub fn emit(&mut self, event: &FrameworkEvent) {
        for s in &mut self.subscribers {
            s(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::sync::Mutex;
    use std::sync::Arc;

    #[test]
    fn registry_delivers_in_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut reg = CallbackRegistry::new();
        for i in 0..3 {
            let log = Arc::clone(&log);
            reg.subscribe(Box::new(move |_e| log.lock().push(i)));
        }
        assert_eq!(reg.len(), 3);
        reg.emit(&FrameworkEvent::PassBoundary {
            pass: Pass::Forward,
            device: DeviceId(0),
        });
        assert_eq!(*log.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn tensor_events_carry_allocator_totals() {
        let e = FrameworkEvent::TensorAlloc {
            tensor: TensorId(1),
            addr: 0x100,
            bytes: 512,
            allocated_total: 512,
            reserved_total: 2 << 20,
            device: DeviceId(0),
        };
        if let FrameworkEvent::TensorAlloc {
            allocated_total,
            reserved_total,
            ..
        } = e
        {
            assert!(reserved_total >= allocated_total, "pooling reserves more");
        }
    }

    #[test]
    fn empty_registry_is_fine() {
        let mut reg = CallbackRegistry::new();
        assert!(reg.is_empty());
        reg.emit(&FrameworkEvent::RegionStart {
            label: "x".into(),
            device: DeviceId(0),
        });
    }
}
