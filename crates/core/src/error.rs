//! PASTA error taxonomy.
//!
//! Since the fault-containment rework the session degrades instead of
//! aborting: a panicking lane becomes a typed [`LaneFailure`], surviving
//! lanes still merge and the combination surfaces as
//! [`PastaError::Salvaged`] carrying the salvaged [`MergedReport`]; a
//! panicking tool callback is quarantined ([`ToolQuarantine`]) while the
//! rest of the run proceeds. Every variant preserves its source through
//! [`std::error::Error::source`].

use crate::report::{MergedReport, ToolQuarantine};
use accel_sim::{AccelError, DeviceId};
use std::error::Error;
use std::fmt;

/// One contained lane (or workload) panic: which device's lane went down
/// and the rendered panic payload.
///
/// `device` is `None` when the panic could not be attributed to a single
/// lane — e.g. it unwound out of the orchestration closure passed to
/// [`crate::PastaSession::run_parallel`] rather than out of a per-lane
/// thread, or out of a sequential [`crate::Workload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneFailure {
    /// Device whose lane panicked, when attributable.
    pub device: Option<DeviceId>,
    /// Rendered panic payload (see [`accel_sim::panic_message`]).
    pub payload: String,
}

impl fmt::Display for LaneFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.device {
            Some(device) => write!(f, "lane on {device} panicked: {}", self.payload),
            None => write!(f, "workload panicked: {}", self.payload),
        }
    }
}

impl Error for LaneFailure {}

/// A run that failed but was salvaged: the lane failures that occurred
/// plus the merged report assembled from every surviving lane's shard and
/// UVM state at the moment of salvage.
#[derive(Debug, Clone, PartialEq)]
pub struct SalvagedRun {
    /// The contained failures, in detection order.
    pub failures: Vec<LaneFailure>,
    /// Merged report over the surviving lanes (per-lane health rides in
    /// [`MergedReport::lane_failures`]).
    pub report: MergedReport,
}

/// Errors surfaced by the PASTA framework.
#[derive(Debug, Clone, PartialEq)]
pub enum PastaError {
    /// The underlying simulator/runtime failed.
    Accel(AccelError),
    /// A named tool was not found in the collection.
    NoSuchTool(String),
    /// Invalid configuration (builder misuse).
    Config(String),
    /// A lane or workload panicked and the panic was contained at the
    /// session boundary; no salvageable state accompanied it.
    Lane(LaneFailure),
    /// A tool callback panicked; the tool was disarmed for the rest of
    /// the run while its siblings kept running.
    ToolQuarantined(ToolQuarantine),
    /// Lanes failed, but the surviving lanes completed and their state
    /// merged into the carried report (boxed: the salvage payload is much
    /// larger than every other variant).
    Salvaged(Box<SalvagedRun>),
    /// Trace capture or replay failed (rendered `pasta_trace::TraceError`).
    Trace(String),
}

impl fmt::Display for PastaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PastaError::Accel(e) => write!(f, "accelerator error: {e}"),
            PastaError::NoSuchTool(n) => write!(f, "no tool named `{n}` is registered"),
            PastaError::Config(m) => write!(f, "invalid configuration: {m}"),
            PastaError::Lane(failure) => write!(f, "{failure}"),
            PastaError::ToolQuarantined(q) => write!(f, "{q}"),
            PastaError::Salvaged(s) => {
                write!(f, "run salvaged after {} lane failure(s)", s.failures.len())?;
                if let Some(first) = s.failures.first() {
                    write!(f, ": {first}")?;
                }
                Ok(())
            }
            PastaError::Trace(m) => write!(f, "trace error: {m}"),
        }
    }
}

impl Error for PastaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PastaError::Accel(e) => Some(e),
            PastaError::Lane(failure) => Some(failure),
            PastaError::ToolQuarantined(q) => Some(q),
            PastaError::Salvaged(s) => s.failures.first().map(|f| f as &(dyn Error + 'static)),
            _ => None,
        }
    }
}

impl From<AccelError> for PastaError {
    fn from(e: AccelError) -> Self {
        match e {
            // A contained lane panic keeps its typed identity through the
            // session layer instead of hiding inside the Accel wrapper.
            AccelError::LanePanic { device, payload } => PastaError::Lane(LaneFailure {
                device: Some(device),
                payload,
            }),
            other => PastaError::Accel(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::DeviceId;

    #[test]
    fn displays_and_sources() {
        let e = PastaError::from(AccelError::UnknownDevice(DeviceId(3)));
        assert!(e.to_string().contains("gpu3"));
        assert!(e.source().is_some());
        assert!(PastaError::NoSuchTool("x".into())
            .to_string()
            .contains("`x`"));
        assert!(PastaError::Config("bad".into()).source().is_none());
    }

    #[test]
    fn lane_panic_converts_to_typed_lane_failure() {
        let e = PastaError::from(AccelError::LanePanic {
            device: DeviceId(1),
            payload: "boom".into(),
        });
        let PastaError::Lane(failure) = &e else {
            panic!("LanePanic must surface as PastaError::Lane, got {e:?}");
        };
        assert_eq!(failure.device, Some(DeviceId(1)));
        assert_eq!(failure.payload, "boom");
        assert!(e.to_string().contains("gpu1"));
        assert!(e.source().unwrap().to_string().contains("boom"));
    }

    #[test]
    fn salvaged_display_counts_failures_and_sources_the_first() {
        let s = PastaError::Salvaged(Box::new(SalvagedRun {
            failures: vec![
                LaneFailure {
                    device: Some(DeviceId(1)),
                    payload: "first".into(),
                },
                LaneFailure {
                    device: None,
                    payload: "second".into(),
                },
            ],
            report: MergedReport::default(),
        }));
        let text = s.to_string();
        assert!(text.contains("2 lane failure(s)"), "{text}");
        assert!(text.contains("first"), "{text}");
        assert!(s.source().unwrap().to_string().contains("gpu1"));
    }

    #[test]
    fn unattributed_failure_displays_as_workload_panic() {
        let f = LaneFailure {
            device: None,
            payload: "oops".into(),
        };
        assert_eq!(f.to_string(), "workload panicked: oops");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PastaError>();
    }
}
