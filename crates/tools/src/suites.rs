//! Named tool suites: the one name → tools table.
//!
//! The paper's artifact selects analyses by name (`accelprof -t <tool>`);
//! `pasta-replay run --suite <name>` does the same over a recorded trace,
//! and the tests, examples and benches that want "the usual tools" ask
//! here instead of spelling the list out.

use crate::{
    BarrierStallTool, HotnessTool, KernelFrequencyTool, LaunchCensusTool,
    MemoryCharacteristicsTool, MemoryTimelineTool, OpKernelMapTool, TransferTool,
    UvmPrefetchAdvisor,
};
use pasta_core::Tool;

/// The names [`suite`] knows, as a usage line spells them.
pub const SUITE_NAMES: &str = "standard|census|memory|uvm";

/// The `standard` suite: kernel frequency, barrier stalls, 64-bin
/// hotness, the operator → kernel map and memory characteristics. Every
/// one forks, so a multi-device session holding it shards per device.
pub fn standard_suite() -> Vec<Box<dyn Tool>> {
    vec![
        Box::new(KernelFrequencyTool::new()),
        Box::new(BarrierStallTool::new()),
        Box::new(HotnessTool::new(64)),
        Box::new(OpKernelMapTool::new()),
        Box::new(MemoryCharacteristicsTool::new()),
    ]
}

/// Fresh instances of the suite called `name`, in registration order;
/// `None` for a name outside [`SUITE_NAMES`].
pub fn suite(name: &str) -> Option<Vec<Box<dyn Tool>>> {
    Some(match name {
        "standard" => standard_suite(),
        "census" => vec![
            Box::new(LaunchCensusTool::new()),
            Box::new(KernelFrequencyTool::new()),
        ],
        "memory" => vec![
            Box::new(MemoryCharacteristicsTool::new()),
            Box::new(MemoryTimelineTool::new()),
            Box::new(TransferTool::new()),
        ],
        "uvm" => vec![
            Box::new(UvmPrefetchAdvisor::new()),
            Box::new(MemoryTimelineTool::new()),
            Box::new(MemoryCharacteristicsTool::new()),
        ],
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_is_a_suite_of_distinct_tools_and_nothing_else_is() {
        for name in SUITE_NAMES.split('|') {
            let tools = suite(name).unwrap_or_else(|| panic!("{name} is listed"));
            let mut names: Vec<&str> = tools.iter().map(|t| t.name()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(
                names.len(),
                tools.len(),
                "{name}: a session refuses duplicates"
            );
        }
        assert!(suite("no-such-suite").is_none());
        assert_eq!(
            suite("standard").map(|s| s.len()),
            Some(standard_suite().len())
        );
    }
}
