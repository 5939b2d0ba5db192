//! Range-specific analysis (paper §III-F1).
//!
//! Two mechanisms restrict analysis to a sub-region of the application:
//!
//! * **grid-id windows** — the `START_GRID_ID`/`END_GRID_ID` environment
//!   variables select a half-open window of kernel launch ids;
//! * **annotations** — `pasta.start()`/`pasta.stop()` Python annotations
//!   (delivered as [`Event::RegionStart`]/[`Event::RegionEnd`]) toggle
//!   collection around arbitrary code regions, e.g. a single transformer
//!   layer (the paper's Listing 1).

use crate::event::Event;
use accel_sim::LaunchId;

/// Decides which launches/events fall inside the analyzed range.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RangeFilter {
    /// First launch id to analyze (`START_GRID_ID`).
    pub start_grid_id: Option<u64>,
    /// One past the last launch id to analyze (`END_GRID_ID`).
    pub end_grid_id: Option<u64>,
    /// When true, analysis only runs inside `pasta.start()`/`pasta.stop()`
    /// regions; when false, annotations are informational only.
    pub annotations_gate: bool,
    /// Current region nesting depth.
    region_depth: u32,
}

impl RangeFilter {
    /// An unrestricted filter.
    pub fn all() -> Self {
        RangeFilter::default()
    }

    /// Restricts to launch ids in `[start, end)`.
    pub fn grid_window(start: u64, end: u64) -> Self {
        RangeFilter {
            start_grid_id: Some(start),
            end_grid_id: Some(end),
            ..RangeFilter::default()
        }
    }

    /// Analyzes only inside user annotations.
    pub fn annotated_regions() -> Self {
        RangeFilter {
            annotations_gate: true,
            ..RangeFilter::default()
        }
    }

    /// Feeds region annotations through the filter (must see every event
    /// stream exactly once).
    pub fn observe(&mut self, event: &Event) {
        match event {
            Event::RegionStart { .. } => self.region_depth += 1,
            Event::RegionEnd { .. } => self.region_depth = self.region_depth.saturating_sub(1),
            _ => {}
        }
    }

    /// True when a launch with this grid id should be instrumented.
    pub(crate) fn covers_launch(&self, launch: LaunchId) -> bool {
        let id = launch.value();
        if let Some(s) = self.start_grid_id {
            if id < s {
                return false;
            }
        }
        if let Some(e) = self.end_grid_id {
            if id >= e {
                return false;
            }
        }
        if self.annotations_gate && self.region_depth == 0 {
            return false;
        }
        true
    }

    /// True when currently inside an annotated region.
    #[cfg(test)]
    pub(crate) fn in_region(&self) -> bool {
        self.region_depth > 0
    }

    /// Clears the *observed* state (region nesting) while keeping the
    /// configured window and gating mode. Called by the processor's reset:
    /// configuration belongs to the session, observation to the run.
    pub(crate) fn reset_observation(&mut self) {
        self.region_depth = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::DeviceId;

    fn region(start: bool) -> Event {
        if start {
            Event::RegionStart {
                label: "r".into(),
                device: DeviceId(0),
            }
        } else {
            Event::RegionEnd {
                label: "r".into(),
                device: DeviceId(0),
            }
        }
    }

    #[test]
    fn unrestricted_covers_everything() {
        let f = RangeFilter::all();
        assert!(f.covers_launch(LaunchId(0)));
        assert!(f.covers_launch(LaunchId(u64::MAX)));
    }

    #[test]
    fn grid_window_is_half_open() {
        let f = RangeFilter::grid_window(10, 20);
        assert!(!f.covers_launch(LaunchId(9)));
        assert!(f.covers_launch(LaunchId(10)));
        assert!(f.covers_launch(LaunchId(19)));
        assert!(!f.covers_launch(LaunchId(20)));
    }

    #[test]
    fn annotation_gating() {
        let mut f = RangeFilter::annotated_regions();
        assert!(!f.covers_launch(LaunchId(1)), "outside any region");
        f.observe(&region(true));
        assert!(f.in_region());
        assert!(f.covers_launch(LaunchId(2)));
        f.observe(&region(false));
        assert!(!f.covers_launch(LaunchId(3)));
    }

    #[test]
    fn nested_regions_close_correctly() {
        let mut f = RangeFilter::annotated_regions();
        f.observe(&region(true));
        f.observe(&region(true));
        f.observe(&region(false));
        assert!(f.covers_launch(LaunchId(1)), "still one level deep");
        f.observe(&region(false));
        assert!(!f.covers_launch(LaunchId(1)));
        // Extra ends never underflow.
        f.observe(&region(false));
        assert!(!f.in_region());
    }

    #[test]
    fn window_and_annotation_combine() {
        let mut f = RangeFilter {
            start_grid_id: Some(5),
            end_grid_id: None,
            annotations_gate: true,
            region_depth: 0,
        };
        f.observe(&region(true));
        assert!(!f.covers_launch(LaunchId(4)), "before the window");
        assert!(f.covers_launch(LaunchId(5)));
    }
}
