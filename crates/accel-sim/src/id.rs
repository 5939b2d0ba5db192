//! Identifier newtypes used throughout the simulator.
//!
//! Each id is a thin newtype ([C-NEWTYPE]) so that a device index can never
//! be confused with a stream index or a launch sequence number.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;

/// Index of a simulated accelerator device within an [`crate::Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u32);

impl DeviceId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// A hardware-queue (stream) identifier, scoped to a device.
///
/// Stream 0 is the default stream, mirroring CUDA/HIP semantics.
pub type StreamId = u32;

/// Monotonically increasing kernel-launch sequence number.
///
/// The paper's range-specific analysis selects launches by "grid id"
/// (`START_GRID_ID`/`END_GRID_ID`); `LaunchId` is that grid id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LaunchId(pub u64);

impl LaunchId {
    /// Returns the raw sequence number.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for LaunchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "launch#{}", self.0)
    }
}

/// Identifier of a device memory allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct AllocId(pub u64);

impl fmt::Display for AllocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "alloc#{}", self.0)
    }
}

/// Accelerator vendor, used to pick event-naming conventions and
/// normalization rules in the PASTA event handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// NVIDIA GPUs (CUDA runtime, Compute Sanitizer, NVBit).
    Nvidia,
    /// AMD GPUs (HIP runtime, ROCProfiler-SDK).
    Amd,
    /// A stand-in for future accelerators (the paper's "incoming
    /// accelerators"); used in extensibility tests.
    Other,
}

impl fmt::Display for Vendor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Vendor::Nvidia => "NVIDIA",
            Vendor::Amd => "AMD",
            Vendor::Other => "OTHER",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(DeviceId(1).to_string(), "gpu1");
        assert_eq!(LaunchId(42).to_string(), "launch#42");
        assert_eq!(AllocId(7).to_string(), "alloc#7");
        assert_eq!(Vendor::Nvidia.to_string(), "NVIDIA");
        assert_eq!(Vendor::Amd.to_string(), "AMD");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(LaunchId(1));
        set.insert(LaunchId(2));
        set.insert(LaunchId(1));
        assert_eq!(set.len(), 2);
        assert!(LaunchId(1) < LaunchId(2));
        assert!(DeviceId(0) < DeviceId(1));
    }

    #[test]
    fn device_id_index_round_trip() {
        assert_eq!(DeviceId(3).index(), 3);
        assert_eq!(LaunchId(9).value(), 9);
    }
}
