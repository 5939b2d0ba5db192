//! Declared ⊇ read, for every built-in tool.
//!
//! A shard's host gate turns away the classes none of its tools declares,
//! so a tool that reads an event of a class it did not name would
//! silently stop seeing it. One table pins that none does: a recorded full
//! stream — a model run under a full-coverage backend and an
//! oversubscribed managed allocator, with explicit copies, a prefetch and
//! a region around it, so every class occurs — is dispatched to each tool
//! once under the interest it declares and once under `Interest::all()`,
//! and the two reports must be the same report.

use accel_sim::CopyDirection;
use dl_framework::models::{ModelZoo, RunKind};
use dl_framework::runner;
use pasta_core::tool::LaunchCounter;
use pasta_core::{
    BackendChoice, Event, EventClass, FnWorkload, Interest, Pasta, Tool, ToolCollection,
    ToolReport, UvmSetup, WorkloadStats,
};
use pasta_tools::{
    BarrierStallTool, HotnessTool, KernelFrequencyTool, LaunchCensusTool,
    MemoryCharacteristicsTool, MemoryTimelineTool, OpKernelMapTool, OverflowSanitizerTool,
    TransferTool, UvmPrefetchAdvisor,
};

/// Keeps every event it is sent, and asks for all of them.
#[derive(Default)]
struct Recorder(Vec<Event>);

impl Tool for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }
    fn interest(&self) -> Interest {
        Interest::all()
    }
    fn on_event(&mut self, event: &Event) {
        self.0.push(event.clone());
    }
}

/// A tool as it is, except that it asks for everything.
struct Wide(Box<dyn Tool>);

impl Tool for Wide {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn interest(&self) -> Interest {
        Interest::all()
    }
    fn on_event(&mut self, event: &Event) {
        self.0.on_event(event);
    }
    fn report(&self) -> ToolReport {
        self.0.report()
    }
}

fn recorded_stream() -> Vec<Event> {
    let mut session = Pasta::builder()
        .rtx_3060()
        .backend(BackendChoice::Nvbit)
        .uvm(UvmSetup {
            budget_bytes: Some(24 << 20),
            ..UvmSetup::default()
        })
        .tool(Recorder::default())
        .build()
        .expect("session builds");
    session
        .run(&mut FnWorkload::new("full-stream", |cx| {
            let s = cx.session();
            s.region_start("recorded");
            let report = runner::run_model(s, ModelZoo::ResNet18, RunKind::Training, 8, 1)?;
            let rt = s.runtime_mut();
            let (host, device) = (rt.malloc(1 << 16)?, rt.malloc_managed(1 << 16)?);
            rt.memcpy(device, host, 1 << 16, CopyDirection::HostToDevice)?;
            rt.mem_prefetch(device, 1 << 16)?;
            rt.synchronize();
            rt.free(device)?;
            rt.free(host)?;
            s.region_end("recorded");
            Ok(WorkloadStats::new(report.kernel_launches))
        }))
        .expect("the run completes");
    session
        .with_tool_mut("recorder", |t: &mut Recorder| std::mem::take(&mut t.0))
        .expect("the recorder is registered")
}

fn reports_of(tool: Box<dyn Tool>, stream: &[Event]) -> Vec<ToolReport> {
    let mut tools: ToolCollection = std::iter::once(tool).collect();
    for event in stream {
        tools.dispatch(event);
    }
    tools.reports()
}

#[test]
fn every_tool_reports_the_same_under_its_declared_interest_and_under_all() {
    let stream = recorded_stream();
    for class in EventClass::ALL {
        assert!(
            stream.iter().any(|e| e.class() == class),
            "the stream must hold {class:?} events, or widening an interest to it proves nothing"
        );
    }
    assert!(
        stream
            .iter()
            .any(|e| matches!(e, Event::UvmFault { .. } | Event::BatchMemOp { .. })),
        "and the memory events the UVM tools read"
    );
    let table: [fn() -> Box<dyn Tool>; 11] = [
        || Box::<LaunchCounter>::default(),
        || Box::new(KernelFrequencyTool::new()),
        || Box::new(BarrierStallTool::new()),
        || Box::new(LaunchCensusTool::new()),
        || Box::new(OpKernelMapTool::new()),
        || Box::new(MemoryCharacteristicsTool::new()),
        || Box::new(MemoryTimelineTool::new()),
        || Box::new(TransferTool::new()),
        || Box::new(OverflowSanitizerTool::new()),
        || Box::new(UvmPrefetchAdvisor::new()),
        || Box::new(HotnessTool::new(64)),
    ];
    for make in table {
        let declared = reports_of(make(), &stream);
        let wide = reports_of(Box::new(Wide(make())), &stream);
        assert_eq!(
            declared,
            wide,
            "{} reads a class it does not declare",
            make().name()
        );
        assert_ne!(
            declared,
            reports_of(make(), &[]),
            "{} must have read something of the stream",
            make().name()
        );
    }
}
