//! Formatting and interval helpers shared by the tools.

/// Formats bytes with an adaptive binary unit (Table V prints MB).
pub fn format_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= (1 << 30) as f64 {
        format!("{:.2} GB", b / (1u64 << 30) as f64)
    } else if b >= (1 << 20) as f64 {
        format!("{:.2} MB", b / (1u64 << 20) as f64)
    } else if b >= (1 << 10) as f64 {
        format!("{:.2} KB", b / (1u64 << 10) as f64)
    } else {
        format!("{bytes} B")
    }
}

/// Bytes as MB (Table V's unit).
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Below this many ranges a comparison sort costs less than the radix
/// sort's fixed cost per pass (clearing and summing its histogram).
const RADIX_MIN: usize = 32;

/// Merges possibly-overlapping `(base, len)` intervals and returns the
/// total distinct bytes covered — the working-set arithmetic. Works in
/// place (empty intervals dropped, the rest sorted by base) so a caller
/// that measures launch after launch keeps one buffer; from 32 intervals
/// the sort runs in the vector's spare capacity, so a vector with room
/// for twice its intervals sorts without allocating. An interval reaching
/// past the address space ends at `u64::MAX`.
pub fn merged_extent(ranges: &mut Vec<(u64, u64)>) -> u64 {
    ranges.retain(|&(_, len)| len > 0);
    if ranges.is_empty() {
        return 0;
    }
    // The sweep below folds ranges of equal base by `max`, so their order
    // after the sort does not matter and an unstable sort is exact.
    if ranges.len() < RADIX_MIN {
        ranges.sort_unstable_by_key(|&(base, _)| base);
    } else {
        radix_sort_by_base(ranges);
    }
    let mut total = 0u64;
    let (mut cur_base, mut cur_end) = (ranges[0].0, ranges[0].0.saturating_add(ranges[0].1));
    for &(base, len) in &ranges[1..] {
        let end = base.saturating_add(len);
        if base <= cur_end {
            cur_end = cur_end.max(end);
        } else {
            total += cur_end - cur_base;
            cur_base = base;
            cur_end = end;
        }
    }
    total + (cur_end - cur_base)
}

/// Sorts `ranges` by base with an LSD radix sort on `base − min(base)`,
/// over only the bits in which the keys differ: the low bits every base
/// shares (alignment) and the high bits no key reaches are never visited.
/// Those bits go in as few passes of at most eight as they fit, split
/// evenly, so a pass's histogram is no wider than it needs to be. Passes
/// alternate between the ranges and a scratch half appended behind them,
/// which is cut off again at the end.
fn radix_sort_by_base(ranges: &mut Vec<(u64, u64)>) {
    let first = ranges.first().map_or(0, |&(base, _)| base);
    let (mut min, mut max, mut differ) = (first, first, 0);
    for &(base, _) in ranges.iter() {
        (min, max, differ) = (min.min(base), max.max(base), differ | (base ^ first));
    }
    if differ == 0 {
        return;
    }
    // Every base agrees with every other below bit `shift`, so every key
    // is a multiple of `1 << shift`; every key is below `1 << top`.
    let (mut shift, top) = (
        differ.trailing_zeros(),
        u64::BITS - (max - min).leading_zeros(),
    );
    let passes = (top - shift).div_ceil(8);
    let width = (top - shift).div_ceil(passes);
    let mask = (1 << width) - 1;
    let n = ranges.len();
    // Both halves start as the ranges, and the first pass reads the half
    // from which the last one writes the front.
    ranges.extend_from_within(..);
    let (front, back) = ranges.split_at_mut(n);
    let (mut from, mut to) = if passes % 2 == 0 {
        (front, back)
    } else {
        (back, front)
    };
    while shift < top {
        let digit = |base: u64| (((base - min) >> shift) & mask) as u8 as usize;
        let mut starts = [0usize; 256];
        for &(base, _) in from.iter() {
            starts[digit(base)] += 1;
        }
        let mut at = 0;
        for start in &mut starts[..=mask as usize] {
            (*start, at) = (at, at + *start);
        }
        for &range in from.iter() {
            let slot = &mut starts[digit(range.0)];
            to[*slot] = range;
            *slot += 1;
        }
        std::mem::swap(&mut from, &mut to);
        shift += width;
    }
    ranges.truncate(n);
}

/// Percentile of a sorted slice (nearest-rank; `p` in `[0, 100]`, with
/// `p = 0` clamped to the first element).
///
/// Returns `None` for an empty slice — "no samples" must not read as
/// "0 ns" in a latency column (a serving run that admitted no requests
/// has no p99, not a zero one).
pub(crate) fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bytes_formatting() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.00 KB");
        assert_eq!(format_bytes(3 << 20), "3.00 MB");
        assert_eq!(format_bytes(5 << 30), "5.00 GB");
        assert!((mb(10 << 20) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn merging_handles_overlap_and_gaps() {
        assert_eq!(merged_extent(&mut vec![]), 0);
        assert_eq!(merged_extent(&mut vec![(0, 10)]), 10);
        assert_eq!(merged_extent(&mut vec![(0, 10), (5, 10)]), 15, "overlap");
        assert_eq!(merged_extent(&mut vec![(0, 10), (20, 10)]), 20, "gap");
        assert_eq!(merged_extent(&mut vec![(0, 10), (10, 10)]), 20, "adjacent");
        assert_eq!(
            merged_extent(&mut vec![(20, 5), (0, 10), (22, 1), (0, 3)]),
            15,
            "unsorted with containment"
        );
        assert_eq!(
            merged_extent(&mut vec![(5, 0), (10, 2)]),
            2,
            "zero-len dropped"
        );
    }

    /// The comparison-sort `merged_extent` this module shipped with before
    /// the radix sort, kept as the oracle the radix version is checked
    /// against.
    fn reference_extent(ranges: &mut Vec<(u64, u64)>) -> u64 {
        ranges.retain(|&(_, len)| len > 0);
        if ranges.is_empty() {
            return 0;
        }
        ranges.sort_unstable_by_key(|&(base, _)| base);
        let mut total = 0u64;
        let (mut cur_base, mut cur_end) = (ranges[0].0, ranges[0].0 + ranges[0].1);
        for &(base, len) in &ranges[1..] {
            let end = base + len;
            if base <= cur_end {
                cur_end = cur_end.max(end);
            } else {
                total += cur_end - cur_base;
                cur_base = base;
                cur_end = end;
            }
        }
        total + (cur_end - cur_base)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// 0–600 ranges, either side of `RADIX_MIN`, in four shapes:
        /// bases anywhere in the address space; 128-B-aligned ranges in one
        /// tensor (nested, adjacent, equal bases); one base for all; a
        /// dense tangle of tiny ranges. Every shape draws zero lengths.
        #[test]
        fn radix_extent_equals_the_comparison_sort_reference(
            shape in 0u8..4,
            draws in prop::collection::vec((any::<u64>(), 0u64..1 << 20), 0..601),
        ) {
            let mut ranges: Vec<(u64, u64)> = draws
                .iter()
                .map(|&(a, b)| {
                    let (base, len) = match shape {
                        0 => (a, b),
                        1 => (0x7000_0000_0000 + a % 4096 * 128, b % 9 * 128),
                        2 => (0x7000_0000_0000, b % 5000),
                        _ => (a % 64, b % 16),
                    };
                    (base, len.min(u64::MAX - base))
                })
                .collect();
            let expected = reference_extent(&mut ranges.clone());
            prop_assert_eq!(merged_extent(&mut ranges), expected);
            prop_assert!(ranges.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }

    #[test]
    fn a_range_past_the_address_space_ends_at_its_top() {
        let mut ranges = vec![(u64::MAX - 10, 100), (u64::MAX - 20, 5)];
        assert_eq!(merged_extent(&mut ranges), 15);
        let mut ranges: Vec<(u64, u64)> = (0..40).map(|i| (u64::MAX - i, 1 << 40)).collect();
        assert_eq!(merged_extent(&mut ranges), 39);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), Some(5));
        assert_eq!(percentile(&v, 90.0), Some(9));
        assert_eq!(percentile(&v, 100.0), Some(10));
        assert_eq!(percentile(&v, 0.0), Some(1), "p=0 clamps to the minimum");
    }

    #[test]
    fn percentile_edge_inputs() {
        // Empty: no samples is None, never a fabricated 0 ns.
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[], 0.0), None);
        assert_eq!(percentile(&[], 100.0), None);
        // Single element: every percentile is that element.
        assert_eq!(percentile(&[7], 0.0), Some(7));
        assert_eq!(percentile(&[7], 50.0), Some(7));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[7], 100.0), Some(7));
    }
}
