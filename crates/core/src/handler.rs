//! The event handler: vendor/framework subscription glue.
//!
//! These functions wire the simulated vendor runtimes and the DL framework
//! into a [`SharedHub`], normalizing every callback on the way in — the
//! "interface standardization" box of the paper's Fig. 1. Every normalized
//! event carries its device, so the hub routes it to that device's shard
//! ([`crate::hub::Hub::process`]) and concurrent lanes never share a lock.

use crate::event::Event;
use crate::hub::SharedHub;
use crate::normalize::{normalize_framework, normalize_nv, normalize_roc};
use accel_sim::{DeviceId, LaunchId, SimTime, Symbol};
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

/// Subscribes the hub to a vendor context's host callbacks, whichever
/// vocabulary it speaks: launch begin/end pairs are merged into one timed
/// [`Event::KernelLaunchEnd`]; everything else flows through `normalize`.
fn attach<C: Vocabulary>(
    ctx: &mut Context<C>,
    hub: SharedHub,
    normalize: impl Fn(&C) -> Option<Event> + Send + 'static,
) {
    let mut pending = PendingLaunch::default();
    ctx.subscribe(Box::new(move |cb: &C| {
        let event = match cb.launch_edge() {
            Some(LaunchEdge::Begin(launch, name, start)) => {
                pending.begin(launch, name, start);
                None
            }
            Some(LaunchEdge::End(launch, device, end)) => pending.end(launch, device, end),
            None => normalize(cb),
        };
        if let Some(event) = event {
            hub.process(&event);
        }
    }));
}

/// Subscribes the hub to a CUDA context's host callbacks.
pub fn attach_nv(ctx: &mut CudaContext, hub: SharedHub) {
    attach(ctx, hub, normalize_nv);
}

/// Subscribes the hub to a HIP context's host callbacks.
pub fn attach_roc(ctx: &mut HipContext, hub: SharedHub) {
    attach(ctx, hub, normalize_roc);
}

/// Subscribes the hub to a framework session's callbacks (tensor, op,
/// pass and annotation events).
pub fn attach_session(session: &mut Session<'_>, hub: SharedHub) {
    session.subscribe(Box::new(move |ev| {
        let event = normalize_framework(ev);
        hub.process(&event);
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
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
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
        // TensorAlloc + TensorFree.
        assert_eq!(hub.events_processed(), 2);
    }
}
