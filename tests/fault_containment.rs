//! Fault containment and graceful degradation (ISSUE 7).
//!
//! A profiler must never lose a run to one bad lane or one buggy tool:
//!
//! * a panicking parallel lane is contained at the lane boundary and the
//!   survivors' shard + UVM state still merges into a salvaged report;
//! * a panicking tool callback quarantines that tool while its siblings
//!   keep producing byte-identical results;
//! * a trace writer aborted mid-run (or simply dropped) leaves a fully
//!   parseable trace / a recorder-free session behind.
//!
//! Every injected panic carries the `fault-injection` marker so the quiet
//! panic hook (`common::quiet_injected_panics`) can suppress its backtrace
//! noise without hiding real failures. CI runs this suite single-threaded (`--test-threads=1`): the
//! process-global panic hook and the deliberately panicking threads must
//! not interleave with unrelated tests' output.

mod common;

use common::quiet_injected_panics;
use pasta::core::tool::{Interest, LaunchCounter};
use pasta::core::{
    Event, LaneFailure, Pasta, PastaError, PastaSession, Tool, ToolCollection, UvmSetup,
};
use pasta::prelude::*;
use pasta::sim::{DeviceId, Dim3, KernelBody, KernelDesc};
use pasta::trace::{replay, TraceReader, TraceWriter};

fn lane_kernel(t: &pasta::dl::tensor::Tensor) -> KernelDesc {
    KernelDesc::new("lane_kernel", Dim3::linear(8), Dim3::linear(128))
        .arg(t.ptr, t.bytes)
        .body(KernelBody::streaming(t.bytes / 2, t.bytes / 2))
}

fn two_device_uvm_session() -> PastaSession {
    Pasta::builder()
        .a100_x2()
        .uvm(UvmSetup::default())
        .tool(LaunchCounter::default())
        .build()
        .expect("session builds")
}

#[test]
fn panicking_lane_is_salvaged_with_survivor_state() {
    quiet_injected_panics();
    let mut session = two_device_uvm_session();
    let devices = [DeviceId(0), DeviceId(1)];
    let err = session
        .run_parallel_each(&devices, |_i, lane| {
            if lane.device() == DeviceId(1) {
                panic!("fault-injection: lane 1 dies");
            }
            // The surviving lane does real work: managed tensor traffic
            // plus three launches that fault pages in.
            let s = &mut lane.session;
            let t = s.alloc_tensor(&[1 << 18], pasta::dl::dtype::DType::F32)?;
            for _ in 0..3 {
                s.launch(lane_kernel(&t))?;
            }
            s.free_tensor(&t);
            Ok(())
        })
        .expect_err("a panicking lane must fail the run");

    // The failure is typed, attributed to device 1, and carries the
    // salvage payload.
    let PastaError::Salvaged(salvaged) = &err else {
        panic!("expected PastaError::Salvaged, got {err:?}");
    };
    assert_eq!(salvaged.failures.len(), 1);
    assert_eq!(
        salvaged.failures[0],
        LaneFailure {
            device: Some(DeviceId(1)),
            payload: "fault-injection: lane 1 dies".into(),
        }
    );
    assert!(err.to_string().contains("gpu1"), "{err}");
    use std::error::Error;
    assert!(err.source().expect("sourced").to_string().contains("gpu1"));

    // The salvaged report exposes the survivor's merged shard state...
    let launches = salvaged
        .report
        .tools
        .iter()
        .find(|r| r.tool == "launch-counter")
        .and_then(|r| r.get("launches"))
        .expect("survivor's tool report merged");
    assert_eq!(launches, 3.0, "device 0's three launches survived");
    // ...its UVM activity (the dead lane's manager harvests as zeros)...
    let uvm = salvaged.report.uvm.as_ref().expect("uvm slice present");
    let lane_stats = |d: DeviceId| {
        uvm.per_device
            .iter()
            .find(|(dev, _)| *dev == d)
            .map(|(_, s)| *s)
            .expect("lane harvested")
    };
    assert!(lane_stats(DeviceId(0)).fault_groups > 0, "survivor faulted");
    assert_eq!(lane_stats(DeviceId(1)).fault_groups, 0, "dead lane idle");
    // ...and the per-lane health overlay.
    assert_eq!(salvaged.report.lane_failures, salvaged.failures);
    assert_eq!(session.lane_failures(), &salvaged.failures[..]);
    assert!(salvaged.report.to_string().contains("== health =="));

    // The session remains usable: a healthy follow-up run works, and
    // resetting analysis clears the health overlay.
    session
        .run_parallel_each(&devices, |_i, lane| {
            let s = &mut lane.session;
            let t = s.alloc_tensor(&[1024], pasta::dl::dtype::DType::F32)?;
            s.launch(lane_kernel(&t))?;
            s.free_tensor(&t);
            Ok(())
        })
        .expect("healthy run after a salvaged one");
    session.reset_analysis();
    assert!(session.lane_failures().is_empty());
    assert!(session.merged_report().lane_failures.is_empty());
}

#[test]
fn orchestration_closure_panic_is_contained_too() {
    quiet_injected_panics();
    let mut session = two_device_uvm_session();
    let err = session
        .run_parallel(&[DeviceId(0), DeviceId(1)], |lanes| {
            let s = &mut lanes[0].session;
            let t = s.alloc_tensor(&[1 << 16], pasta::dl::dtype::DType::F32)?;
            let rec = s.launch(lane_kernel(&t))?;
            if rec.uvm_faults > 0 {
                panic!("fault-injection: orchestrator dies");
            }
            Ok(())
        })
        .expect_err("panic must surface as an error");
    let PastaError::Salvaged(salvaged) = &err else {
        panic!("expected PastaError::Salvaged, got {err:?}");
    };
    // Unattributable to a single lane: the closure itself died.
    assert_eq!(salvaged.failures[0].device, None);
    assert!(salvaged.failures[0].payload.contains("orchestrator dies"));
    // Work done before the panic still merged.
    let launches = salvaged
        .report
        .tools
        .iter()
        .find(|r| r.tool == "launch-counter")
        .and_then(|r| r.get("launches"));
    assert_eq!(launches, Some(1.0));
}

/// A tool whose event callback panics on the `n`th Kernel-class event.
struct PanickyTool {
    panic_after: u64,
    seen: u64,
}

impl Tool for PanickyTool {
    fn name(&self) -> &str {
        "panicky"
    }
    fn interest(&self) -> Interest {
        Interest::coarse()
    }
    fn on_event(&mut self, _event: &Event) {
        if self.seen == self.panic_after {
            panic!("fault-injection: tool callback dies");
        }
        self.seen += 1;
    }
    fn fork(&self) -> Option<Box<dyn Tool>> {
        Some(Box::new(PanickyTool {
            panic_after: self.panic_after,
            seen: 0,
        }))
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[test]
fn panicking_tool_is_quarantined_and_siblings_stay_byte_identical() {
    quiet_injected_panics();
    let run = |with_panicky: bool| {
        let mut builder = Pasta::builder().rtx_3060().tool(LaunchCounter::default());
        if with_panicky {
            builder = builder.tool(PanickyTool {
                panic_after: 2,
                seen: 0,
            });
        }
        let mut session = builder.build().expect("session builds");
        let mut sweep = KernelSweepWorkload::new("sweep")
            .kernel(
                KernelDesc::new("k_a", Dim3::linear(8), Dim3::linear(128))
                    .body(KernelBody::compute(1 << 18)),
            )
            .repeats(5);
        session.run(&mut sweep).expect("workload itself succeeds");
        session
    };

    let healthy = run(false);
    let degraded = run(true);

    // The sibling tool's report is byte-identical with and without the
    // quarantined tool in the collection.
    let counter = |s: &PastaSession| {
        s.reports()
            .into_iter()
            .find(|r| r.tool == "launch-counter")
            .expect("launch-counter reports")
    };
    assert_eq!(counter(&healthy), counter(&degraded));

    // The quarantine is reported with the first panic message...
    let quarantines = degraded.quarantined_tools();
    assert_eq!(quarantines.len(), 1);
    assert_eq!(quarantines[0].tool, "panicky");
    assert!(
        quarantines[0].message.contains("tool callback dies"),
        "{}",
        quarantines[0].message
    );
    // ...surfaces in the merged report's health section...
    let merged = degraded.merged_report();
    assert_eq!(merged.quarantined, quarantines);
    assert!(merged.to_string().contains("`panicky` quarantined"));
    // ...and through the strict check as a typed error.
    let err = degraded
        .check_tool_health()
        .expect_err("degraded session fails strict health");
    assert!(matches!(err, PastaError::ToolQuarantined(_)), "{err:?}");
    healthy.check_tool_health().expect("healthy session passes");
}

#[test]
fn mid_run_abort_yields_a_parseable_replayable_trace() {
    quiet_injected_panics();
    let mut session = Pasta::builder()
        .rtx_3060()
        .tool(LaunchCounter::default())
        .build()
        .expect("session builds");
    let writer = TraceWriter::attach(&session);
    let mut doomed = FnWorkload::new("doomed", |cx| {
        for _ in 0..4 {
            cx.launch_kernel(
                KernelDesc::new("pre_crash", Dim3::linear(4), Dim3::linear(64))
                    .body(KernelBody::compute(1 << 16)),
            )?;
        }
        panic!("fault-injection: workload dies mid-run");
    });
    let err = session.run(&mut doomed).expect_err("workload panicked");
    let PastaError::Salvaged(salvaged) = &err else {
        panic!("expected PastaError::Salvaged, got {err:?}");
    };
    assert_eq!(
        salvaged.failures[0].device, None,
        "sequential workloads belong to no lane"
    );

    // Abort-finalization: everything captured up to the panic becomes a
    // complete trace — parseable and replayable.
    let trace = writer.abort();
    let reader = TraceReader::parse(trace.as_bytes()).expect("aborted trace parses");
    assert!(reader.uvm().is_none(), "abort writes no UVM footer");
    let mut tools = ToolCollection::new();
    tools.register(Box::<LaunchCounter>::default());
    let replayed = replay(&trace, &mut tools).expect("aborted trace replays");
    let launches = replayed
        .tools
        .iter()
        .find(|r| r.tool == "launch-counter")
        .and_then(|r| r.get("launches"));
    assert_eq!(launches, Some(4.0), "all pre-panic launches captured");

    // The session carries no recorder anymore: nothing left to detach.
    assert!(session.detach_event_recorders().is_empty());
}

#[test]
fn dropped_writer_detaches_its_recorders() {
    let mut session = Pasta::builder()
        .rtx_3060()
        .tool(LaunchCounter::default())
        .build()
        .expect("session builds");
    {
        let _writer = TraceWriter::attach(&session);
        // Dropped here without finish(): the Drop impl must detach.
    }
    assert!(
        session.detach_event_recorders().is_empty(),
        "a dropped writer leaves no recorder behind"
    );
    // Events after the drop are not captured by a fresh writer's count
    // until it attaches — and the session still profiles normally.
    let writer = TraceWriter::attach(&session);
    assert_eq!(writer.events_captured(), 0);
    let mut sweep = KernelSweepWorkload::new("after-drop").kernel(
        KernelDesc::new("k", Dim3::linear(2), Dim3::linear(32)).body(KernelBody::compute(1 << 12)),
    );
    session.run(&mut sweep).expect("session still profiles");
    assert!(writer.events_captured() > 0, "fresh writer captures again");
    let trace = writer.finish(&session);
    TraceReader::parse(trace.as_bytes()).expect("finished trace parses");
}
