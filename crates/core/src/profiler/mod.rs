//! The PASTA entry point: builder and session.
//!
//! [`Pasta::builder`] assembles devices, an instrumentation backend, an
//! analysis mode, an optional UVM configuration and a set of tools into a
//! [`PastaSession`] — the programmatic equivalent of the paper's
//! `accelprof -v -t <tool> <executable>` launcher.
//!
//! [`PastaSession::run`] is the one sequential entry point: it profiles
//! anything implementing the object-safe [`crate::Workload`] trait against
//! a fresh instrumented framework session — zoo models via
//! [`crate::ModelWorkload`], raw kernel sweeps via
//! [`crate::KernelSweepWorkload`], ad-hoc closures via
//! [`crate::FnWorkload`], or user-defined types.
//! [`PastaSession::run_parallel`] / [`PastaSession::run_parallel_each`]
//! drive one lane per device.

mod builder;
mod parallel;
mod session;

pub use builder::{BackendChoice, Pasta, PastaBuilder, UvmSetup};
pub use parallel::ParallelConfig;
pub use session::PastaSession;

/// A tool that wants every event class and declines `fork()` — what the
/// builder and session tests register to force device instrumentation.
#[cfg(test)]
struct DeviceHungry;

#[cfg(test)]
impl crate::tool::Tool for DeviceHungry {
    fn name(&self) -> &str {
        "hungry"
    }
    fn interest(&self) -> crate::tool::Interest {
        crate::tool::Interest::all()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
