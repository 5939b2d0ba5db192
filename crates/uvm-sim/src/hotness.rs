//! Per-block access-hotness tracking over logical time.
//!
//! Reproduces the data behind the paper's Fig. 13: access counts per 2 MiB
//! virtual block, binned by logical time (access-event index), revealing
//! long-lived hot blocks (parameters — prefetch/pin candidates) versus
//! short-lived bursts (transient data — eviction candidates). The
//! analysis is `pasta_tools::HotnessTool`, which owns one tracker per
//! device shard and folds shards with [`BlockHotness::merge_from`]; the
//! simulator itself records nothing here.
//!
//! The accumulator is a log of cells `(bin, first..=last, count)`: `count`
//! records for each block of one recorded range, in one time bin. A range
//! recorded again in the same bin adds to its cell (unless a table of
//! recent ranges has lost track of it), so a bin keeps about one cell per
//! distinct range it saw; the cells of a bin may overlap.
//! Recording is O(1) whatever the number of blocks a range spans, merging
//! trackers appends one log to the other, and the per-block statistics
//! come from one sort-and-sweep over the cells' ends
//! ([`BlockHotness::spans`]). So recording, merging and reporting cost
//! O(ranges) in time and memory, however many blocks a range spans; only
//! [`BlockHotness::rows`] and [`BlockHotness::series`] expand per block.
//! Nothing is indexed by block over the address space: the device heap
//! and the managed heap sit 2^46 bytes apart.

use crate::page::block_of_addr;
use accel_sim::radix;

/// `count` access records of each of the blocks `first..=last` in time
/// bin `bin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    bin: u64,
    first: u64,
    last: u64,
    count: u64,
}

/// Slots of the recent-range table [`BlockHotness::record`] dedups by.
const RECENT_SLOTS: usize = 64;

/// Running hotness accumulator.
#[derive(Debug, Clone)]
pub struct BlockHotness {
    /// Every cell, in recording order; a merge appends the other
    /// tracker's.
    cells: Vec<Cell>,
    /// Index into `cells` of a recently recorded range, by a hash of its
    /// ends. A hit is only used when the cell holds the same range in the
    /// same bin — whichever cell that is, adding to it is exact.
    recent: [u32; RECENT_SLOTS],
    /// One past the last bin of any cell.
    bins: u64,
    events_seen: u64,
    bin_events: u64,
    /// The clock's bin, `events_seen / bin_events`, valid while
    /// `events_seen < clock_bin_end` (the bin's exclusive end, saturated
    /// at `u64::MAX`; 0 until the first `record` computes it). Checking the
    /// upper end alone is sound because `events_seen` never decreases:
    /// `record` adds 1, `merge_from` adds `other`'s count, and `new`
    /// starts a fresh tracker with the cache empty.
    clock_bin: u64,
    clock_bin_end: u64,
}

impl BlockHotness {
    /// Creates a tracker that bins logical time every `bin_events` events.
    pub fn new(bin_events: u64) -> Self {
        BlockHotness {
            cells: Vec::new(),
            recent: [0; RECENT_SLOTS],
            bins: 0,
            events_seen: 0,
            bin_events: bin_events.max(1),
            clock_bin: 0,
            clock_bin_end: 0,
        }
    }

    /// Records `records` accesses spread uniformly over `[base, base+len)`;
    /// a range reaching past the address space ends at `u64::MAX`.
    pub fn record(&mut self, base: u64, len: u64, records: u64) {
        if self.events_seen >= self.clock_bin_end {
            self.clock_bin = self.events_seen / self.bin_events;
            self.clock_bin_end = (self.clock_bin + 1).saturating_mul(self.bin_events);
        }
        let bin = self.clock_bin;
        self.events_seen += 1;
        if len == 0 || records == 0 {
            return;
        }
        let first = block_of_addr(base);
        let last = block_of_addr(base.saturating_add(len - 1));
        let per_block = if first == last {
            records
        } else {
            (records / (last - first + 1)).max(1)
        };
        let hash = (first ^ last.rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let slot = &mut self.recent[(hash >> (u64::BITS - RECENT_SLOTS.trailing_zeros())) as usize];
        if let Some(cell) = self.cells.get_mut(*slot as usize) {
            if (cell.bin, cell.first, cell.last) == (bin, first, last) {
                cell.count = cell.count.wrapping_add(per_block);
                return;
            }
        }
        *slot = self.cells.len() as u32;
        self.cells.push(Cell {
            bin,
            first,
            last,
            count: per_block,
        });
        self.bins = self.bins.max(bin + 1);
    }

    /// The configured bin width, in events.
    pub fn bin_events(&self) -> u64 {
        self.bin_events
    }

    /// Folds another tracker's counts into this one, summing per
    /// (block, bin). Both trackers keep their own logical clocks, so bin
    /// *t* of `other` lands in bin *t* here — the device-shard merge,
    /// where each shard binned its own device's access stream.
    pub fn merge_from(&mut self, other: &BlockHotness) {
        self.cells.extend_from_slice(&other.cells);
        self.bins = self.bins.max(other.bins);
        self.events_seen += other.events_seen;
    }

    /// Number of time bins: one past the last bin any block was accessed
    /// in.
    pub fn bins(&self) -> u64 {
        self.bins
    }

    /// The accessed blocks, ascending, as spans of neighbouring blocks
    /// whose [`BlockRow`]s agree but for the block. One sort of the cells'
    /// ends and one sweep over them, keeping a count per bin, so the cost
    /// is O(cells) however many blocks the cells span; a span ends
    /// wherever some cell starts or ends.
    pub fn spans(&self) -> impl Iterator<Item = BlockSpan> + '_ {
        // Cell `i` adds its count to its bin from `first` on and takes it
        // away again past `last`: marks `(block, i << 1 | closes)`, with
        // room for twice as many so the radix sort allocates nothing.
        let mut marks = Vec::with_capacity(4 * self.cells.len());
        for (i, cell) in self.cells.iter().enumerate() {
            marks.push((cell.first, i << 1));
            marks.push((cell.last + 1, i << 1 | 1));
        }
        radix::sort_by_key(&mut marks, |&(block, _)| block);
        let mut per_bin = vec![0u64; self.bins as usize];
        let (mut live_bins, mut total) = (0u64, 0u64);
        let mut marks = marks.into_iter().peekable();
        std::iter::from_fn(move || {
            while let Some((block, mark)) = marks.next() {
                let cell = &self.cells[mark >> 1];
                let delta = if mark & 1 == 0 {
                    cell.count
                } else {
                    cell.count.wrapping_neg()
                };
                let count = &mut per_bin[cell.bin as usize];
                let was_live = *count != 0;
                *count = count.wrapping_add(delta);
                live_bins = live_bins + u64::from(!was_live) - u64::from(*count == 0);
                total = total.wrapping_add(delta);
                // A live span is still open, so a later mark ends it.
                match marks.peek() {
                    Some(&(next, _)) if next > block && live_bins > 0 => {
                        return Some(BlockSpan {
                            first: block,
                            last: next - 1,
                            live_bins,
                            total,
                        })
                    }
                    _ => {}
                }
            }
            None
        })
    }

    /// One [`BlockRow`] per accessed block, ascending by block: the rows
    /// of [`BlockHotness::series`] summed over time, without the grid.
    pub fn rows(&self) -> Vec<BlockRow> {
        self.spans().flat_map(BlockSpan::rows).collect()
    }

    /// Finalizes into a dense series for reporting.
    pub fn series(&self) -> HotnessSeries {
        let blocks: Vec<u64> = self
            .spans()
            .flat_map(|span| span.first..=span.last)
            .collect();
        let mut grid = vec![vec![0u64; self.bins as usize]; blocks.len()];
        for cell in &self.cells {
            // Audited expect: `blocks` holds every block of every cell
            // (`spans` is built from the same cells), so every lookup hits
            // by construction — no input can make it miss. The cell's
            // blocks are neighbours, so their rows are too.
            let row = blocks.binary_search(&cell.first).expect("block present");
            for line in &mut grid[row..=row + (cell.last - cell.first) as usize] {
                let slot = &mut line[cell.bin as usize];
                *slot = slot.wrapping_add(cell.count);
            }
        }
        HotnessSeries { blocks, grid }
    }
}

/// Neighbouring blocks `first..=last` accessed in the same bins with the
/// same totals — [`BlockRow`]s that differ only in the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSpan {
    /// First block index.
    pub first: u64,
    /// Last block index (inclusive).
    pub last: u64,
    /// Bins in which each block was accessed at all.
    pub live_bins: u64,
    /// Total records of each block across all bins.
    pub total: u64,
}

impl BlockSpan {
    /// Number of blocks in the span.
    pub fn blocks(&self) -> u64 {
        self.last - self.first + 1
    }

    /// Fraction of the tracker's `bins` in which each block was accessed
    /// (see [`BlockRow::liveness`]).
    pub fn liveness(&self, bins: u64) -> f64 {
        self.live_bins as f64 / bins as f64
    }

    /// The span's rows, one per block.
    pub fn rows(self) -> impl Iterator<Item = BlockRow> {
        (self.first..=self.last).map(move |block| BlockRow {
            block,
            live_bins: self.live_bins,
            total: self.total,
        })
    }
}

/// One block's accesses summed over logical time — a row of
/// [`HotnessSeries`] without its grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRow {
    /// Block index.
    pub block: u64,
    /// Bins in which the block was accessed at all.
    pub live_bins: u64,
    /// Total records across all bins.
    pub total: u64,
}

impl BlockRow {
    /// Fraction of the tracker's `bins` in which the block was accessed
    /// (see [`HotnessSeries::block_liveness`]).
    pub fn liveness(&self, bins: u64) -> f64 {
        self.live_bins as f64 / bins as f64
    }
}

/// Dense (block × time-bin) hotness matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotnessSeries {
    /// Block indices (rows), ascending.
    pub blocks: Vec<u64>,
    /// `grid[row][bin]` = access records of `blocks[row]` in that bin.
    pub grid: Vec<Vec<u64>>,
}

impl HotnessSeries {
    /// Number of time bins.
    pub fn bins(&self) -> usize {
        self.grid.first().map_or(0, Vec::len)
    }

    /// Total records of one block across all bins.
    pub fn block_total(&self, row: usize) -> u64 {
        self.grid[row].iter().sum()
    }

    /// Fraction of bins in which the block was accessed at all; near 1.0
    /// means long-lived hot data (pin candidates), near 0 bursty data
    /// (eviction candidates).
    pub fn block_liveness(&self, row: usize) -> f64 {
        let bins = self.bins();
        if bins == 0 {
            return 0.0;
        }
        let live = self.grid[row].iter().filter(|&&c| c > 0).count();
        live as f64 / bins as f64
    }

    /// Rows whose liveness is at least `threshold`, i.e. the paper's
    /// "frequently accessed throughout the entire execution" blocks.
    pub fn persistent_blocks(&self, threshold: f64) -> Vec<u64> {
        (0..self.blocks.len())
            .filter(|&r| self.block_liveness(r) >= threshold)
            .map(|r| self.blocks[r])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::BLOCK_SIZE;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The `BTreeMap` accumulator this module shipped with before the
    /// sorted cell run, kept as the oracle the run is checked against.
    #[derive(Debug, Clone)]
    struct Reference {
        counts: BTreeMap<(u64, u64), u64>,
        events_seen: u64,
        bin_events: u64,
    }

    impl Reference {
        fn new(bin_events: u64) -> Self {
            Reference {
                counts: BTreeMap::new(),
                events_seen: 0,
                bin_events: bin_events.max(1),
            }
        }

        fn record(&mut self, base: u64, len: u64, records: u64) {
            let bin = self.events_seen / self.bin_events;
            self.events_seen += 1;
            if len == 0 || records == 0 {
                return;
            }
            let first = block_of_addr(base);
            let last = block_of_addr(base + len - 1);
            let per_block = (records / (last - first + 1)).max(1);
            for b in first..=last {
                *self.counts.entry((b, bin)).or_insert(0) += per_block;
            }
        }

        fn merge_from(&mut self, other: &Reference) {
            for (&key, &count) in &other.counts {
                *self.counts.entry(key).or_insert(0) += count;
            }
            self.events_seen += other.events_seen;
        }

        fn series(&self) -> HotnessSeries {
            let mut blocks: Vec<u64> = self.counts.keys().map(|&(b, _)| b).collect();
            blocks.dedup();
            let bins = self.counts.keys().map(|&(_, t)| t + 1).max().unwrap_or(0);
            let mut grid = vec![vec![0u64; bins as usize]; blocks.len()];
            for (&(b, t), &c) in &self.counts {
                let row = blocks.binary_search(&b).expect("block present");
                grid[row][t as usize] += c;
            }
            HotnessSeries { blocks, grid }
        }
    }

    /// Where the two heaps start: device 0's and the managed one.
    const HEAPS: [u64; 2] = [0x7000_0000_0000, 0x4000_0000_0000];
    const BIN_WIDTHS: [u64; 4] = [1, 3, 64, 1 << 40];
    /// Nothing, part of a block, one block exactly, several and a bit.
    const LENS: [u64; 5] = [0, 100, BLOCK_SIZE, 3 * BLOCK_SIZE + 5, 70 * BLOCK_SIZE];
    const RECORDS: [u64; 4] = [0, 1, 7, 1000];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random `record` / `merge_from` sequences over three trackers:
        /// after every step each one reads the same as the reference.
        #[test]
        fn sorted_run_equals_the_btreemap_reference(
            width in 0usize..4,
            ops in prop::collection::vec(
                ((0u8..5, 0usize..3, 0usize..3), (0usize..2, 0u64..6, 0usize..5, 0usize..4)),
                1..48,
            ),
        ) {
            let bin_events = BIN_WIDTHS[width];
            let mut runs = vec![BlockHotness::new(bin_events); 3];
            let mut refs = vec![Reference::new(bin_events); 3];
            for ((op, a, b), (heap, block, len, records)) in ops {
                if op < 4 {
                    let base = HEAPS[heap] + block * BLOCK_SIZE + 4096;
                    runs[a].record(base, LENS[len], RECORDS[records]);
                    refs[a].record(base, LENS[len], RECORDS[records]);
                } else {
                    let (run, reference) = (runs[b].clone(), refs[b].clone());
                    runs[a].merge_from(&run);
                    refs[a].merge_from(&reference);
                }
                for (run, reference) in runs.iter().zip(&refs) {
                    prop_assert_eq!(run.series(), reference.series());
                    prop_assert_eq!(run.events_seen, reference.events_seen);
                }
            }
        }
    }

    #[test]
    fn the_widest_bin_never_closes() {
        // Bin 0 ends at u64::MAX itself: the cached end must not wrap,
        // and no clock reaches it, through records or merges.
        let mut run = BlockHotness::new(u64::MAX);
        let mut reference = Reference::new(u64::MAX);
        let mut shard = BlockHotness::new(u64::MAX);
        let mut shard_reference = Reference::new(u64::MAX);
        for i in 0..5u64 {
            run.record(HEAPS[0] + i * BLOCK_SIZE, 64, 3 + i);
            reference.record(HEAPS[0] + i * BLOCK_SIZE, 64, 3 + i);
            shard.record(HEAPS[1], 2 * BLOCK_SIZE, 10);
            shard_reference.record(HEAPS[1], 2 * BLOCK_SIZE, 10);
        }
        run.merge_from(&shard);
        reference.merge_from(&shard_reference);
        run.record(HEAPS[0], 64, 1);
        reference.record(HEAPS[0], 64, 1);
        assert_eq!(run.series(), reference.series());
        assert_eq!(run.events_seen, reference.events_seen);
        assert_eq!(run.bins(), 1);
    }

    #[test]
    fn the_clock_follows_merges_into_and_across_bins() {
        // Bin width 4. Merges move the clock without a `record`: into the
        // middle of the open bin, then across several bins. Each next
        // `record` must bin by the moved clock.
        let mut run = BlockHotness::new(4);
        let mut reference = Reference::new(4);
        let other = |events: u64| {
            let (mut run, mut reference) = (BlockHotness::new(4), Reference::new(4));
            for i in 0..events {
                run.record(HEAPS[1] + i * BLOCK_SIZE, 64, 2);
                reference.record(HEAPS[1] + i * BLOCK_SIZE, 64, 2);
            }
            (run, reference)
        };
        let check = |run: &mut BlockHotness, reference: &mut Reference, seen: u64, bin: u64| {
            assert_eq!(run.events_seen, seen);
            run.record(HEAPS[0], 64, 5);
            reference.record(HEAPS[0], 64, 5);
            assert_eq!(run.series(), reference.series());
            assert_eq!(run.bins(), bin + 1, "recorded at clock {seen}");
        };
        check(&mut run, &mut reference, 0, 0);
        let (shard, shard_reference) = other(2);
        run.merge_from(&shard);
        reference.merge_from(&shard_reference);
        check(&mut run, &mut reference, 3, 0);
        let (shard, shard_reference) = other(9);
        run.merge_from(&shard);
        reference.merge_from(&shard_reference);
        check(&mut run, &mut reference, 13, 3);
    }

    #[test]
    fn a_bin_wider_than_any_run_stays_exact() {
        // 12,288 accesses in one 2^40-event bin, over 90 ranges that
        // recur in a cycle longer than the recent-range table.
        let mut run = BlockHotness::new(1 << 40);
        let mut reference = Reference::new(1 << 40);
        for i in 0..12_288u64 {
            let base = HEAPS[(i % 2) as usize] + (i * 7 % 90) * BLOCK_SIZE;
            let len = (i % 5) * BLOCK_SIZE + 64;
            run.record(base, len, 100 + i);
            reference.record(base, len, 100 + i);
        }
        assert_eq!(run.series(), reference.series());
        assert_eq!(run.series().bins(), 1);
    }

    #[test]
    fn a_range_recorded_again_in_its_bin_adds_to_its_cell() {
        let mut h = BlockHotness::new(1000);
        for _ in 0..1000 {
            h.record(HEAPS[0], 3 * BLOCK_SIZE, 30);
        }
        assert_eq!(h.cells.len(), 1);
        // The next bin, and a range with the same first block, are cells
        // of their own.
        h.record(HEAPS[0], 3 * BLOCK_SIZE, 30);
        h.record(HEAPS[0], BLOCK_SIZE, 30);
        assert_eq!(h.cells.len(), 3);
        let rows = h.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].live_bins, rows[0].total), (2, 10_000 + 10 + 30));
        assert_eq!((rows[1].live_bins, rows[1].total), (2, 10_000 + 10));
    }

    #[test]
    fn a_range_of_2_39_blocks_is_one_cell_through_merge_and_report() {
        // `len = 1 << 60` spans 2^39 blocks, recorded twice in one bin
        // around a merge of a shard's smaller ranges.
        let mut run = BlockHotness::new(4);
        run.record(0, 1 << 60, 5);
        let mut shard = BlockHotness::new(4);
        shard.record(3 * BLOCK_SIZE, 2 * BLOCK_SIZE, 8);
        shard.record(u64::MAX - 10, 100, 1);
        run.merge_from(&shard);
        run.record(0, 1 << 60, 5);
        assert_eq!(run.cells.len(), 3, "{:?}", run.cells);
        let spans: Vec<BlockSpan> = run.spans().collect();
        assert_eq!(
            spans.iter().map(BlockSpan::blocks).sum::<u64>(),
            (1 << 39) + 1
        );
        let first: Vec<BlockRow> = spans
            .into_iter()
            .flat_map(BlockSpan::rows)
            .take(6)
            .collect();
        let totals: Vec<u64> = first.iter().map(|row| row.total).collect();
        assert_eq!(totals, [2, 2, 2, 6, 6, 2], "1 + 1, plus 8 over two blocks");
        assert_eq!(first[3].live_bins, 1);
    }

    #[test]
    fn rows_are_the_series_rows_summed() {
        let mut h = BlockHotness::new(2);
        for i in 0..40u64 {
            let base = HEAPS[(i % 2) as usize] + (i * 5 % 11) * BLOCK_SIZE;
            h.record(base, (i % 4) * BLOCK_SIZE + 1, 10 + i);
        }
        let series = h.series();
        let rows = h.rows();
        assert_eq!(h.bins() as usize, series.bins());
        assert_eq!(rows.len(), series.blocks.len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.block, series.blocks[i]);
            assert_eq!(row.total, series.block_total(i));
            assert_eq!(row.liveness(h.bins()), series.block_liveness(i));
        }
    }

    #[test]
    fn records_land_in_right_block_and_bin() {
        let mut h = BlockHotness::new(2);
        h.record(0, 100, 10); // block 0, bin 0
        h.record(BLOCK_SIZE, 100, 20); // block 1, bin 0
        h.record(0, 100, 30); // block 0, bin 1
        let s = h.series();
        assert_eq!(s.blocks, vec![0, 1]);
        assert_eq!(s.bins(), 2);
        assert_eq!(s.grid[0], vec![10, 30]);
        assert_eq!(s.grid[1], vec![20, 0]);
    }

    #[test]
    fn multi_block_ranges_spread_records() {
        let mut h = BlockHotness::new(10);
        h.record(0, 4 * BLOCK_SIZE, 400);
        let s = h.series();
        assert_eq!(s.blocks.len(), 4);
        for row in 0..4 {
            assert_eq!(s.block_total(row), 100);
        }
    }

    #[test]
    fn liveness_separates_persistent_from_bursty() {
        let mut h = BlockHotness::new(1);
        for _ in 0..10 {
            h.record(0, 100, 5); // block 0 hot in every bin
        }
        h.record(BLOCK_SIZE, 100, 500); // block 1 hot once
        let s = h.series();
        let b0 = s.blocks.iter().position(|&b| b == 0).unwrap();
        let b1 = s.blocks.iter().position(|&b| b == 1).unwrap();
        assert!(s.block_liveness(b0) > 0.8);
        assert!(s.block_liveness(b1) < 0.2);
        assert_eq!(s.persistent_blocks(0.8), vec![0]);
    }

    #[test]
    fn zero_records_only_advance_clock() {
        let mut h = BlockHotness::new(1);
        h.record(0, 0, 0);
        h.record(0, 100, 0);
        assert_eq!(h.events_seen, 2);
        assert_eq!(h.series().blocks.len(), 0);
    }

    #[test]
    fn empty_series_is_sane() {
        let s = BlockHotness::new(4).series();
        assert_eq!(s.bins(), 0);
        assert!(s.persistent_blocks(0.5).is_empty());
    }
}
