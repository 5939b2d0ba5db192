//! Thread-budget resolution and the idle backoff shared by every pooled
//! surface.
//!
//! The `0 = available parallelism` rule appears on every knob of
//! `ParallelConfig` (lane pool, merge plan, drain workers), and the idle
//! backoff drives both the lane pool's idle workers and the spine's
//! background drainers. Each used to be re-implemented privately by its
//! consumers, which is exactly how such a rule drifts; this is now the one
//! copy of both (`pasta_core::merge`, `pasta_core::spine` and
//! `dl_framework::lane_exec` delegate here).

use std::time::Duration;

/// Resolves a thread budget: `0` means "available parallelism" (1 if the
/// OS will not say), any other value is taken literally.
pub fn resolve_threads(max_threads: usize) -> usize {
    if max_threads > 0 {
        max_threads
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Runs `work` until `done()` holds, backing off while it finds nothing:
/// 16 consecutive empty beats yield the thread, every later one sleeps
/// 50 µs, and a beat that finds work (`work` returns `true`) starts the
/// count over.
pub fn idle_until(done: impl Fn() -> bool, mut work: impl FnMut() -> bool) {
    let mut idle_beats = 0u32;
    while !done() {
        if work() {
            idle_beats = 0;
            continue;
        }
        idle_beats = idle_beats.saturating_add(1);
        if idle_beats < 16 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_budget_is_literal_and_zero_asks_the_os() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1, "0 resolves to at least one");
    }
}
