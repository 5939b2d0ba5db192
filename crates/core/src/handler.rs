//! The event handler: vendor/framework subscription glue.
//!
//! These functions wire the simulated vendor runtimes and the DL framework
//! into a [`SharedHub`], normalizing every callback something reads on the
//! way in — the "interface standardization" box of the paper's Fig. 1.
//! Every callback names its class and device (`class_of_*`, generated
//! from the same mapping row as its `normalize_*` arm and read off the
//! event table), so the handler finds the device's shard first and asks
//! its host gate: a class no tool, recorder or knob of that shard reads is
//! counted there and returns — no [`Event`], no lock, no dispatch. What
//! passes is normalized and processed on that shard, so concurrent lanes
//! never share a lock. A lane of a sharded region subscribes with its
//! device as `home`, and counts what its home shard turns away without a
//! locked add (`DeviceShard::count_gated`).

use crate::event::{Event, EventClass};
use crate::hub::{DeviceShard, Hub, SharedHub};
use crate::normalize::{
    class_of_framework, class_of_nv, class_of_roc, normalize_framework, normalize_nv, normalize_roc,
};
use accel_sim::{DeviceId, LaunchId, SimTime, Symbol};
use dl_framework::callbacks::FrameworkEvent;
use dl_framework::session::Session;
use uvm_sim::runtime::{Context, LaunchEdge, Vocabulary};
use vendor_amd::HipContext;
use vendor_nv::CudaContext;

/// The launch whose begin callback arrived and whose end has not: id,
/// kernel name, start time. One slot is enough because begin/end adjacency
/// is the vendor layer's contract — `Context::launch_on` emits the pair
/// back to back on one thread, with no other launch's callbacks in
/// between. An end whose id is not the pending launch's has no begin to
/// pair with and is dropped.
#[derive(Default)]
struct PendingLaunch(Option<(LaunchId, Symbol, SimTime)>);

impl PendingLaunch {
    fn begin(&mut self, launch: LaunchId, name: &Symbol, start: SimTime) {
        self.0 = Some((launch, *name, start));
    }

    /// The timed launch event, when `launch` is the pending one.
    fn end(&mut self, launch: LaunchId, device: DeviceId, end: SimTime) -> Option<Event> {
        let (_, name, start) = self.0.take_if(|(pending, ..)| *pending == launch)?;
        Some(Event::KernelLaunchEnd {
            launch,
            device,
            name,
            start,
            end,
        })
    }
}

/// The shard a callback of `class` on `device` is processed on, or `None`
/// after counting it there because nothing on that shard reads it.
/// `home` is the subscriber's home device, if it has one.
fn admit(
    hub: &Hub,
    home: Option<DeviceId>,
    class: EventClass,
    device: DeviceId,
    is_op_start: bool,
) -> Option<&DeviceShard> {
    let shard = hub.shard_for(device);
    let gate = shard.gate();
    if gate.admits(class) || (is_op_start && gate.admits_op_start()) {
        Some(shard)
    } else {
        shard.count_gated(home);
        None
    }
}

/// Subscribes the hub to a vendor context's host callbacks, whichever
/// vocabulary it speaks: launch begin/end pairs are merged into one timed
/// [`Event::KernelLaunchEnd`] (the knobs read every launch, so these never
/// meet the gate); everything else is gated on `class_of` and, when
/// admitted, built by `normalize`. `home` is `Some(device)` only for a
/// lane of a sharded region pinned to `device`
/// (`DeviceShard::count_gated`).
pub(crate) fn attach<C: Vocabulary>(
    ctx: &mut Context<C>,
    hub: SharedHub,
    home: Option<DeviceId>,
    class_of: impl Fn(&C) -> Option<(EventClass, DeviceId)> + Send + 'static,
    normalize: impl Fn(&C) -> Option<Event> + Send + 'static,
) {
    let mut pending = PendingLaunch::default();
    ctx.subscribe(Box::new(move |cb: &C| match cb.launch_edge() {
        Some(LaunchEdge::Begin(launch, name, start)) => pending.begin(launch, name, start),
        Some(LaunchEdge::End(launch, device, end)) => {
            if let Some(event) = pending.end(launch, device, end) {
                hub.process(&event);
            }
        }
        None => {
            let Some((class, device)) = class_of(cb) else {
                return;
            };
            if let Some(shard) = admit(&hub, home, class, device, false) {
                if let Some(event) = normalize(cb) {
                    hub.process_on(shard, &event);
                }
            }
        }
    }));
}

/// Subscribes the hub to a CUDA context's host callbacks.
pub fn attach_nv(ctx: &mut CudaContext, hub: SharedHub) {
    attach(ctx, hub, None, class_of_nv, normalize_nv);
}

/// Subscribes the hub to a HIP context's host callbacks.
pub fn attach_roc(ctx: &mut HipContext, hub: SharedHub) {
    attach(ctx, hub, None, class_of_roc, normalize_roc);
}

/// Subscribes the hub to a framework session's callbacks (tensor, op,
/// pass and annotation events), behind the same gate.
pub fn attach_session(session: &mut Session<'_>, hub: SharedHub) {
    attach_framework(session, hub, None);
}

/// [`attach_session`] for a subscriber whose home device is `home` (see
/// [`attach`]).
pub(crate) fn attach_framework(session: &mut Session<'_>, hub: SharedHub, home: Option<DeviceId>) {
    session.subscribe(Box::new(move |ev| {
        let (class, device) = class_of_framework(ev);
        let is_op_start = matches!(ev, FrameworkEvent::OpStart { .. });
        if let Some(shard) = admit(&hub, home, class, device, is_op_start) {
            hub.process_on(shard, &normalize_framework(ev));
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::new_shared;
    use crate::processor::EventProcessor;
    use crate::tool::LaunchCounter;
    use accel_sim::{DeviceRuntime, DeviceSpec, Dim3, KernelBody, KernelDesc};
    use dl_framework::dtype::DType;
    use std::sync::Arc;

    #[test]
    fn a_launch_end_pairs_only_with_the_pending_begin() {
        let mut pending = PendingLaunch::default();
        let (d, name) = (DeviceId(0), Symbol::intern("k"));
        assert!(
            pending.end(LaunchId(0), d, SimTime(9)).is_none(),
            "an end with no begin before it is dropped"
        );
        pending.begin(LaunchId(1), &name, SimTime(10));
        assert!(
            pending.end(LaunchId(2), d, SimTime(11)).is_none(),
            "an end for another launch is dropped"
        );
        assert_eq!(
            pending.end(LaunchId(1), d, SimTime(12)),
            Some(Event::KernelLaunchEnd {
                launch: LaunchId(1),
                device: d,
                name,
                start: SimTime(10),
                end: SimTime(12),
            }),
            "and leaves the pending launch for its own end"
        );
        assert!(
            pending.end(LaunchId(1), d, SimTime(13)).is_none(),
            "which pairs once"
        );
    }

    #[test]
    fn nv_launches_become_timed_events() {
        let mut processor = EventProcessor::new();
        processor.tools.register(Box::<LaunchCounter>::default());
        let hub = new_shared(processor);
        let mut ctx = CudaContext::new(vec![DeviceSpec::rtx_3060()]);
        attach_nv(&mut ctx, Arc::clone(&hub));
        let p = ctx.malloc(1 << 20).unwrap();
        let desc = KernelDesc::new("k", Dim3::linear(8), Dim3::linear(128))
            .arg(p, 1 << 20)
            .body(KernelBody::streaming(1 << 19, 1 << 19));
        ctx.launch(desc.clone()).unwrap();
        ctx.launch(desc).unwrap();
        let n = hub
            .primary()
            .tools
            .with_tool_mut("launch-counter", |t: &mut LaunchCounter| t.launches)
            .unwrap();
        assert_eq!(n, 2);
        // The malloc's API entry and allocation and the launches' two API
        // entries are classes a launch counter does not read: counted at
        // the gate, and counted as events all the same.
        assert_eq!(hub.host_events_gated(), 4);
        assert_eq!(hub.events_processed(), 6);
    }

    #[test]
    fn roc_frees_arrive_normalized() {
        use crate::tool::{Interest, Tool};
        #[derive(Default)]
        struct FreeWatcher {
            frees: Vec<u64>,
        }
        impl Tool for FreeWatcher {
            fn name(&self) -> &str {
                "free-watcher"
            }
            fn interest(&self) -> Interest {
                Interest::coarse()
            }
            fn on_event(&mut self, event: &Event) {
                if let Event::ResourceFree { bytes, .. } = event {
                    self.frees.push(*bytes);
                }
            }
        }
        let mut processor = EventProcessor::new();
        processor.tools.register(Box::<FreeWatcher>::default());
        let hub = new_shared(processor);
        let mut ctx = HipContext::new(vec![DeviceSpec::mi300x()]);
        attach_roc(&mut ctx, Arc::clone(&hub));
        let p = ctx.malloc(4096).unwrap();
        ctx.free(p).unwrap();
        let frees = hub
            .primary()
            .tools
            .with_tool_mut("free-watcher", |t: &mut FreeWatcher| t.frees.clone())
            .unwrap();
        assert_eq!(frees, vec![4096], "negative delta normalized to +4096");
    }

    #[test]
    fn framework_events_flow_through_session() {
        let processor = EventProcessor::new();
        let hub = new_shared(processor);
        let mut ctx = CudaContext::new(vec![DeviceSpec::rtx_3060()]);
        let mut session = Session::new(&mut ctx);
        attach_session(&mut session, Arc::clone(&hub));
        let t = session.alloc_tensor(&[64], DType::F32).unwrap();
        session.free_tensor(&t);
        // TensorAlloc + TensorFree, which a hub without tools counts and
        // never builds.
        assert_eq!(hub.events_processed(), 2);
        assert_eq!(hub.host_events_gated(), 2);
    }
}
