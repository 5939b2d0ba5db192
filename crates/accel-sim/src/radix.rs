//! Sorting records by a `u64` key, for the analyses that sort a batch of
//! small records per launch or per report: memory ranges by base address
//! (the working set), range ends by block (hotness).

/// Below this many items a comparison sort costs less than the radix
/// sort's fixed cost per pass (clearing and summing its histogram).
const RADIX_MIN: usize = 32;

/// Sorts `items` by `key`; the order of items with equal keys is
/// unspecified. From 32 items up it is an LSD radix sort on
/// `key − min(key)`, over only the bits in which the keys differ: the low
/// bits every key shares (alignment) and the high bits no key reaches are
/// never visited. Those bits go in as few passes of at most eight as they
/// fit, split evenly, so a pass's histogram is no wider than it needs to
/// be. Passes alternate between the items and a scratch half appended
/// behind them, which is cut off again at the end — so a vector with room
/// for twice its items sorts without allocating.
pub fn sort_by_key<T: Copy>(items: &mut Vec<T>, key: impl Fn(&T) -> u64) {
    if items.len() < RADIX_MIN {
        items.sort_unstable_by_key(&key);
    } else {
        radix_sort(items, key);
    }
}

fn radix_sort<T: Copy>(items: &mut Vec<T>, key: impl Fn(&T) -> u64) {
    let first = items.first().map_or(0, &key);
    let (mut min, mut max, mut differ) = (first, first, 0);
    for k in items.iter().map(&key) {
        (min, max, differ) = (min.min(k), max.max(k), differ | (k ^ first));
    }
    if differ == 0 {
        return;
    }
    // Every key agrees with every other below bit `shift`, so every
    // `key − min` is a multiple of `1 << shift`, and below `1 << top`.
    let (mut shift, top) = (
        differ.trailing_zeros(),
        u64::BITS - (max - min).leading_zeros(),
    );
    let passes = (top - shift).div_ceil(8);
    let width = (top - shift).div_ceil(passes);
    let mask = (1 << width) - 1;
    let n = items.len();
    // Both halves start as the items, and the first pass reads the half
    // from which the last one writes the front.
    items.extend_from_within(..);
    let (front, back) = items.split_at_mut(n);
    let (mut from, mut to) = if passes % 2 == 0 {
        (front, back)
    } else {
        (back, front)
    };
    while shift < top {
        let digit = |k: u64| (((k - min) >> shift) & mask) as u8 as usize;
        let mut starts = [0usize; 256];
        for k in from.iter().map(&key) {
            starts[digit(k)] += 1;
        }
        let mut at = 0;
        for start in &mut starts[..=mask as usize] {
            (*start, at) = (at, at + *start);
        }
        for &item in from.iter() {
            let slot = &mut starts[digit(key(&item))];
            to[*slot] = item;
            *slot += 1;
        }
        std::mem::swap(&mut from, &mut to);
        shift += width;
    }
    items.truncate(n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Either side of the radix cutoff, keys spread over few or many
        /// bits: the keys come out in the order a comparison sort gives,
        /// and every item is kept.
        #[test]
        fn sorts_like_a_comparison_sort(
            keys in prop::collection::vec((0u64..1 << 20, 0u64..4), 0..300),
            shift in 0u32..40,
            base in 0u64..1 << 20,
        ) {
            let mut items: Vec<(u64, usize)> = keys
                .iter()
                .enumerate()
                .map(|(i, &(k, low))| (base.wrapping_add(k << shift | low), i))
                .collect();
            let mut reference = items.clone();
            reference.sort_unstable();
            sort_by_key(&mut items, |&(k, _)| k);
            let sorted_keys: Vec<u64> = items.iter().map(|&(k, _)| k).collect();
            prop_assert_eq!(sorted_keys, reference.iter().map(|&(k, _)| k).collect::<Vec<_>>());
            items.sort_unstable();
            prop_assert_eq!(items, reference);
        }
    }
}
