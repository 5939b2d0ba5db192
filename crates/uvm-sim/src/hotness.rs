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
//! The accumulator is a flat run of `(bin, block, count)` cells kept
//! ascending by `(bin, block)`. Recording an access is O(1) whatever the
//! number of blocks it spans: the range goes into a buffer local to the
//! open time bin, and the buffer is resolved into cells once per bin by a
//! sort-and-sweep. Merging trackers and summing the rows are linear
//! passes over the run. Nothing is indexed by block over the address
//! space: the device heap and the managed heap sit 2^46 bytes apart.

use crate::page::block_of_addr;
use std::borrow::Cow;
use std::cmp::Ordering;

/// `count` access records of `block` in time bin `bin`; always positive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    bin: u64,
    block: u64,
    count: u64,
}

/// Open-bin marks held before [`BlockHotness::record`] resolves them
/// early, so a bin wider than any run (`bin_events` of 2^40, say) still
/// buffers a bounded amount.
const OPEN_MARKS_MAX: usize = 4096;

/// Marks spread over at most this many blocks are ordered by a counting
/// sort over that window instead of a comparison sort — the cheaper of
/// the two when a bin's accesses stay within a few blocks.
const COUNTING_WINDOW: usize = 64;

/// Running hotness accumulator.
#[derive(Debug, Default, Clone)]
pub struct BlockHotness {
    /// Resolved cells, strictly ascending by `(bin, block)`.
    cells: Vec<Cell>,
    /// Ranges recorded in bin `open_bin` and not yet resolved. A range
    /// adding `n` to each of the blocks `first..=last` is the two marks
    /// `(first, n)` and `(last + 1, n.wrapping_neg())`: the running
    /// (wrapping) sum of the marks up to a block is that block's count.
    open: Vec<(u64, u64)>,
    open_bin: u64,
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

/// Orders `marks` by block, leaving one mark per block; returns how many.
fn sort_marks(marks: &mut [(u64, u64)]) -> usize {
    let Some(&(first, _)) = marks.first() else {
        return 0;
    };
    let (mut lo, mut hi) = (first, first);
    for &(block, _) in marks.iter() {
        (lo, hi) = (lo.min(block), hi.max(block));
    }
    let mut kept = 0;
    if hi - lo < COUNTING_WINDOW as u64 {
        let mut window = [0u64; COUNTING_WINDOW];
        for &(block, delta) in marks.iter() {
            let slot = &mut window[(block - lo) as usize];
            *slot = slot.wrapping_add(delta);
        }
        for (block, &delta) in (lo..=hi).zip(&window) {
            if delta != 0 {
                marks[kept] = (block, delta);
                kept += 1;
            }
        }
    } else {
        marks.sort_unstable_by_key(|&(block, _)| block);
        for i in 0..marks.len() {
            if kept > 0 && marks[kept - 1].0 == marks[i].0 {
                marks[kept - 1].1 = marks[kept - 1].1.wrapping_add(marks[i].1);
            } else {
                marks[kept] = marks[i];
                kept += 1;
            }
        }
    }
    kept
}

/// Resolves one bin's `marks` into cells pushed onto `out`, ascending by
/// block.
fn sweep(bin: u64, marks: &mut [(u64, u64)], out: &mut Vec<Cell>) {
    let kept = sort_marks(marks);
    let mut count = 0u64;
    for (i, &(block, delta)) in marks[..kept].iter().enumerate() {
        count = count.wrapping_add(delta);
        if count > 0 {
            // A positive count is a range still open, so its end mark
            // follows: `marks[i + 1]` exists.
            out.extend((block..marks[i + 1].0).map(|block| Cell { bin, block, count }));
        }
    }
}

/// Merges two runs ascending by `(bin, block)` into one, summing the
/// counts of equal keys.
fn merge_runs(a: &[Cell], b: &[Cell]) -> Vec<Cell> {
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match (a[i].bin, a[i].block).cmp(&(b[j].bin, b[j].block)) {
            Ordering::Less => {
                merged.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                merged.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                merged.push(Cell {
                    count: a[i].count + b[j].count,
                    ..a[i]
                });
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&a[i..]);
    merged.extend_from_slice(&b[j..]);
    merged
}

/// Every cell of a tracker, ascending by `(bin, block)`: `run`, then the
/// open bin's cells in `open`.
struct Resolved<'a> {
    run: Cow<'a, [Cell]>,
    open: Vec<Cell>,
}

impl Resolved<'_> {
    fn iter(&self) -> impl Iterator<Item = Cell> + '_ {
        self.run.iter().chain(&self.open).copied()
    }
}

impl BlockHotness {
    /// Creates a tracker that bins logical time every `bin_events` events.
    pub fn new(bin_events: u64) -> Self {
        BlockHotness {
            bin_events: bin_events.max(1),
            ..BlockHotness::default()
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
        if bin != self.open_bin || self.open.len() >= OPEN_MARKS_MAX {
            self.resolve_open();
            self.open_bin = bin;
        }
        self.open.push((first, per_block));
        self.open.push((last + 1, per_block.wrapping_neg()));
    }

    /// Whether the open bin comes after every resolved cell — it does,
    /// unless it was resolved early or a merge brought in later bins.
    fn open_is_newest(&self) -> bool {
        self.cells.last().is_none_or(|c| c.bin < self.open_bin)
    }

    /// Moves the open bin's marks into `cells`.
    fn resolve_open(&mut self) {
        if self.open_is_newest() {
            sweep(self.open_bin, &mut self.open, &mut self.cells);
        } else if !self.open.is_empty() {
            self.cells = self.resolved().run.into_owned();
        }
        self.open.clear();
    }

    /// A view of every cell, open bin included.
    fn resolved(&self) -> Resolved<'_> {
        let mut open = Vec::new();
        sweep(self.open_bin, &mut self.open.clone(), &mut open);
        if open.is_empty() || self.open_is_newest() {
            Resolved {
                run: Cow::Borrowed(&self.cells),
                open,
            }
        } else {
            Resolved {
                run: Cow::Owned(merge_runs(&self.cells, &open)),
                open: Vec::new(),
            }
        }
    }

    /// The configured bin width, in events.
    pub fn bin_events(&self) -> u64 {
        self.bin_events
    }

    /// Folds another tracker's counts into this one, summing per
    /// (block, bin) cell. Both trackers keep their own logical clocks, so
    /// bin *t* of `other` lands in bin *t* here — the device-shard merge,
    /// where each shard binned its own device's access stream.
    pub fn merge_from(&mut self, other: &BlockHotness) {
        self.resolve_open();
        let theirs: Vec<Cell> = other.resolved().iter().collect();
        self.cells = merge_runs(&self.cells, &theirs);
        self.events_seen += other.events_seen;
    }

    /// Number of time bins: one past the last bin any block was accessed
    /// in.
    pub fn bins(&self) -> u64 {
        let resolved = self.cells.last().map_or(0, |c| c.bin + 1);
        if self.open.is_empty() {
            resolved
        } else {
            resolved.max(self.open_bin + 1)
        }
    }

    /// One [`BlockRow`] per accessed block, ascending by block: the rows
    /// of [`BlockHotness::series`] summed over time, without the grid.
    ///
    /// Accesses cover runs of neighbouring blocks, so the rows are laid
    /// out from the union of those runs — far fewer than the cells — and
    /// each cell then lands in its row by offset; the cells themselves
    /// are never sorted by block.
    pub fn rows(&self) -> Vec<BlockRow> {
        let cells = self.resolved();
        // Maximal runs of neighbouring blocks within a bin, as
        // `(first, last)`.
        let mut runs: Vec<(u64, u64)> = Vec::new();
        let mut bin = 0;
        for cell in cells.iter() {
            match runs.last_mut() {
                Some(run) if cell.bin == bin && cell.block == run.1 + 1 => run.1 = cell.block,
                _ => runs.push((cell.block, cell.block)),
            }
            bin = cell.bin;
        }
        // Their union: disjoint extents `(first, last, first's row)`.
        runs.sort_unstable();
        let mut extents: Vec<(u64, u64, usize)> = Vec::new();
        let mut rows: Vec<BlockRow> = Vec::new();
        for (first, last) in runs {
            let covered = match extents.last_mut() {
                Some(extent) if first <= extent.1 + 1 => {
                    let covered = extent.1 + 1;
                    extent.1 = extent.1.max(last);
                    covered
                }
                _ => {
                    extents.push((first, last, rows.len()));
                    first
                }
            };
            rows.extend((covered..=last).map(|block| BlockRow {
                block,
                live_bins: 0,
                total: 0,
            }));
        }
        let mut at = 0;
        for cell in cells.iter() {
            if !(extents[at].0..=extents[at].1).contains(&cell.block) {
                at = extents.partition_point(|extent| extent.1 < cell.block);
            }
            let row = &mut rows[extents[at].2 + (cell.block - extents[at].0) as usize];
            row.live_bins += 1;
            row.total += cell.count;
        }
        rows
    }

    /// Finalizes into a dense series for reporting.
    pub fn series(&self) -> HotnessSeries {
        let blocks: Vec<u64> = self.rows().iter().map(|row| row.block).collect();
        let mut grid = vec![vec![0u64; self.bins() as usize]; blocks.len()];
        for cell in self.resolved().iter() {
            // Audited expect: `blocks` holds the block of every cell
            // (`rows` is built from the same cells), so every lookup hits
            // by construction — no input can make it miss.
            let row = blocks.binary_search(&cell.block).expect("block present");
            grid[row][cell.bin as usize] = cell.count;
        }
        HotnessSeries { blocks, grid }
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
    fn a_bin_wider_than_the_run_buffers_a_bounded_amount() {
        // Three buffers' worth of accesses in one 2^40-event bin: the
        // marks are resolved early, twice, and the counts stay exact.
        let mut run = BlockHotness::new(1 << 40);
        let mut reference = Reference::new(1 << 40);
        for i in 0..3 * OPEN_MARKS_MAX as u64 {
            let base = HEAPS[(i % 2) as usize] + (i * 7 % 90) * BLOCK_SIZE;
            let len = (i % 5) * BLOCK_SIZE + 64;
            run.record(base, len, 100 + i);
            reference.record(base, len, 100 + i);
            assert!(run.open.len() <= OPEN_MARKS_MAX);
        }
        assert_eq!(run.series(), reference.series());
        assert_eq!(run.series().bins(), 1);
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
