//! Per-block access-hotness tracking over logical time.
//!
//! Reproduces the data behind the paper's Fig. 13: access counts per 2 MiB
//! virtual block, binned by logical time (access-event index), revealing
//! long-lived hot blocks (parameters — prefetch/pin candidates) versus
//! short-lived bursts (transient data — eviction candidates).
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
    /// Per-event `(base, len, records)` log, kept only by *lane* trackers
    /// ([`BlockHotness::fork_recording`]). It lets [`append_from`] replay
    /// the lane's stream event by event on the merged clock, which is the
    /// only way to reproduce the sequential single-manager reference when
    /// the seam between streams does not land on a bin boundary — binned
    /// counts cannot be split across a bin cut after the fact.
    ///
    /// [`append_from`]: BlockHotness::append_from
    log: Option<Vec<(u64, u64, u64)>>,
}

/// Orders `marks` by block, leaving one mark per block; returns how many.
fn sort_marks(marks: &mut [(u64, u64)]) -> usize {
    let blocks = marks.iter().map(|&(block, _)| block);
    let (Some(lo), Some(hi)) = (blocks.clone().min(), blocks.max()) else {
        return 0;
    };
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

    /// Records `records` accesses spread uniformly over `[base, base+len)`.
    pub fn record(&mut self, base: u64, len: u64, records: u64) {
        if let Some(log) = &mut self.log {
            log.push((base, len, records));
        }
        let bin = self.events_seen / self.bin_events;
        self.events_seen += 1;
        if len == 0 || records == 0 {
            return;
        }
        let first = block_of_addr(base);
        let last = block_of_addr(base + len - 1);
        let per_block = (records / (last - first + 1)).max(1);
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

    /// Sums `other`'s cells into this run, `other`'s bin *t* landing in
    /// bin `bin_offset + t`.
    fn absorb(&mut self, other: &BlockHotness, bin_offset: u64) {
        self.resolve_open();
        let theirs: Vec<Cell> = other
            .resolved()
            .iter()
            .map(|c| Cell {
                bin: c.bin + bin_offset,
                ..c
            })
            .collect();
        self.cells = merge_runs(&self.cells, &theirs);
    }

    /// Number of record() calls so far (the logical clock).
    pub fn events_seen(&self) -> u64 {
        self.events_seen
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
        self.absorb(other, 0);
        self.events_seen += other.events_seen;
    }

    /// A fresh, state-empty tracker with the same bin width — the reset
    /// half of [`crate::UvmManager::reset_hotness`]. The fork keeps no
    /// event log, so a long-lived session accumulator stays O(bins).
    pub fn fork(&self) -> BlockHotness {
        BlockHotness::new(self.bin_events)
    }

    /// A fresh tracker with the same bin width that additionally logs
    /// every `record()` call — the hotness half of
    /// [`crate::UvmManager::fork`]. A lane lives for one parallel region,
    /// so the log is bounded by the lane's access count, and it buys the
    /// merge exact equality with the sequential reference at *any* seam
    /// (see [`BlockHotness::append_from`]).
    pub fn fork_recording(&self) -> BlockHotness {
        BlockHotness {
            log: Some(Vec::new()),
            ..BlockHotness::new(self.bin_events)
        }
    }

    /// Concatenates another tracker's logical time axis after this one —
    /// the deterministic per-lane UVM merge, laying lane streams one
    /// after another in merge (ascending device) order.
    ///
    /// When `other` carries an event log ([`fork_recording`]), the log is
    /// **replayed** through this tracker's own clock, reproducing a
    /// sequential single-manager reference run *exactly*: `other`'s first
    /// events continue this tracker's partial bin instead of being padded
    /// past it. (The padded concatenation shipped first — ISSUE 4 — was
    /// only equal to the reference when every lane stream happened to end
    /// on a bin boundary; off-boundary streams shifted every later bin.)
    ///
    /// A log-less `other` falls back to the padded concatenation:
    /// `other`'s bin *t* lands at `own_bins + t`, where `own_bins` is
    /// this tracker's clock rounded up to a bin boundary, and the clock
    /// pads to that boundary.
    ///
    /// [`fork_recording`]: BlockHotness::fork_recording
    pub fn append_from(&mut self, other: &BlockHotness) {
        if let Some(log) = &other.log {
            for &(base, len, records) in log {
                self.record(base, len, records);
            }
            return;
        }
        let offset = self.events_seen.div_ceil(self.bin_events);
        self.absorb(other, offset);
        self.events_seen = offset * self.bin_events + other.events_seen;
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
        log: Option<Vec<(u64, u64, u64)>>,
    }

    impl Reference {
        fn new(bin_events: u64) -> Self {
            Reference {
                counts: BTreeMap::new(),
                events_seen: 0,
                bin_events: bin_events.max(1),
                log: None,
            }
        }

        fn record(&mut self, base: u64, len: u64, records: u64) {
            if let Some(log) = &mut self.log {
                log.push((base, len, records));
            }
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

        fn fork_recording(&self) -> Reference {
            Reference {
                log: Some(Vec::new()),
                ..Reference::new(self.bin_events)
            }
        }

        fn append_from(&mut self, other: &Reference) {
            if let Some(log) = &other.log {
                for &(base, len, records) in log {
                    self.record(base, len, records);
                }
                return;
            }
            let offset = self.events_seen.div_ceil(self.bin_events);
            for (&(block, bin), &count) in &other.counts {
                *self.counts.entry((block, offset + bin)).or_insert(0) += count;
            }
            self.events_seen = offset * self.bin_events + other.events_seen;
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

        /// Random `record` / `merge_from` / `append_from` / `fork` /
        /// `fork_recording` sequences over three trackers: after every
        /// step each one reads the same as the reference.
        #[test]
        fn sorted_run_equals_the_btreemap_reference(
            width in 0usize..4,
            ops in prop::collection::vec(
                ((0u8..8, 0usize..3, 0usize..3), (0usize..2, 0u64..6, 0usize..5, 0usize..4)),
                1..48,
            ),
        ) {
            let bin_events = BIN_WIDTHS[width];
            let mut runs = vec![BlockHotness::new(bin_events); 3];
            let mut refs = vec![Reference::new(bin_events); 3];
            for ((op, a, b), (heap, block, len, records)) in ops {
                match op {
                    0..=3 => {
                        let base = HEAPS[heap] + block * BLOCK_SIZE + 4096;
                        runs[a].record(base, LENS[len], RECORDS[records]);
                        refs[a].record(base, LENS[len], RECORDS[records]);
                    }
                    4 => {
                        let (run, reference) = (runs[b].clone(), refs[b].clone());
                        runs[a].merge_from(&run);
                        refs[a].merge_from(&reference);
                    }
                    5 => {
                        let (run, reference) = (runs[b].clone(), refs[b].clone());
                        runs[a].append_from(&run);
                        refs[a].append_from(&reference);
                    }
                    6 => {
                        runs[a] = runs[b].fork_recording();
                        refs[a] = refs[b].fork_recording();
                    }
                    _ => {
                        runs[a] = runs[b].fork();
                        refs[a] = Reference::new(bin_events);
                    }
                }
                for (run, reference) in runs.iter().zip(&refs) {
                    prop_assert_eq!(run.series(), reference.series());
                    prop_assert_eq!(run.events_seen(), reference.events_seen);
                }
            }
        }
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
        assert_eq!(h.events_seen(), 2);
        assert_eq!(h.series().blocks.len(), 0);
    }

    #[test]
    fn empty_series_is_sane() {
        let s = BlockHotness::new(4).series();
        assert_eq!(s.bins(), 0);
        assert!(s.persistent_blocks(0.5).is_empty());
    }

    #[test]
    fn fork_is_empty_with_same_bin_width() {
        let mut h = BlockHotness::new(7);
        h.record(0, 100, 10);
        let f = h.fork();
        assert_eq!(f.bin_events(), 7);
        assert_eq!(f.events_seen(), 0);
        assert!(f.series().blocks.is_empty());
    }

    #[test]
    fn append_concatenates_lane_time_axes() {
        // Lane 0: 2 events in bin 0 (bin width 2). Lane 1: 2 events,
        // also its own bin 0 — appended, they land in bin 1.
        let mut a = BlockHotness::new(2);
        a.record(0, 100, 10);
        a.record(0, 100, 10);
        let mut b = BlockHotness::new(2);
        b.record(BLOCK_SIZE, 100, 5);
        b.record(BLOCK_SIZE, 100, 5);
        a.append_from(&b);
        let s = a.series();
        assert_eq!(s.blocks, vec![0, 1]);
        assert_eq!(s.grid[0], vec![20, 0], "lane 0 stays in bin 0");
        assert_eq!(s.grid[1], vec![0, 10], "lane 1 shifted to bin 1");
        assert_eq!(a.events_seen(), 4);
    }

    #[test]
    fn append_equals_sequential_single_clock_on_bin_boundaries() {
        // When each lane's event count is a multiple of the bin width,
        // fork+append reproduces one tracker that processed the lanes
        // back to back — the sequential single-manager reference.
        let mut reference = BlockHotness::new(2);
        let mut lane0 = BlockHotness::new(2);
        let mut lane1 = BlockHotness::new(2);
        for i in 0..4u64 {
            reference.record(i * BLOCK_SIZE, 64, 3);
            lane0.record(i * BLOCK_SIZE, 64, 3);
        }
        for i in 0..6u64 {
            reference.record(i * BLOCK_SIZE, 64, 9);
            lane1.record(i * BLOCK_SIZE, 64, 9);
        }
        let mut merged = lane0.fork();
        merged.append_from(&lane0);
        merged.append_from(&lane1);
        assert_eq!(merged.series(), reference.series());
        assert_eq!(merged.events_seen(), reference.events_seen());
    }

    #[test]
    fn recorded_fork_replays_exactly_across_partial_bins() {
        // The ISSUE 5 satellite bugfix: lane streams that do NOT land on
        // bin boundaries. Bin width 4; the parent ends mid-bin (3 events)
        // and both lanes end mid-bin too (5 and 2 events). The padded
        // concatenation shifted every appended bin; the replay path must
        // be byte-identical to one tracker that saw the whole stream on a
        // single clock.
        let mut reference = BlockHotness::new(4);
        let mut parent = BlockHotness::new(4);
        for i in 0..3u64 {
            reference.record(i * BLOCK_SIZE, 64, 2);
            parent.record(i * BLOCK_SIZE, 64, 2);
        }
        let mut lane0 = parent.fork_recording();
        for i in 0..5u64 {
            reference.record(i * BLOCK_SIZE, 64, 7);
            lane0.record(i * BLOCK_SIZE, 64, 7);
        }
        let mut lane1 = parent.fork_recording();
        for i in 0..2u64 {
            reference.record((i + 1) * BLOCK_SIZE, 64, 11);
            lane1.record((i + 1) * BLOCK_SIZE, 64, 11);
        }
        parent.append_from(&lane0);
        parent.append_from(&lane1);
        assert_eq!(parent.series(), reference.series());
        assert_eq!(parent.events_seen(), reference.events_seen());
        assert_eq!(parent.events_seen(), 10, "no boundary padding");
    }

    #[test]
    fn recorded_fork_replays_zero_record_clock_ticks() {
        // Clock-only events (len/records 0) must survive the replay, or
        // the merged clock drifts from the reference.
        let mut reference = BlockHotness::new(2);
        reference.record(0, 64, 1);
        reference.record(0, 0, 0);
        reference.record(BLOCK_SIZE, 64, 3);
        let mut parent = BlockHotness::new(2);
        parent.record(0, 64, 1);
        let mut lane = parent.fork_recording();
        lane.record(0, 0, 0);
        lane.record(BLOCK_SIZE, 64, 3);
        parent.append_from(&lane);
        assert_eq!(parent.series(), reference.series());
        assert_eq!(parent.events_seen(), 3);
    }

    #[test]
    fn fork_recording_chains_through_intermediate_merges() {
        // A recording tracker that absorbed another recording tracker can
        // itself be appended later — the replay appends into the log.
        let mut a = BlockHotness::new(3);
        let mut b = a.fork_recording();
        let mut c = a.fork_recording();
        b.record(0, 64, 1);
        c.record(BLOCK_SIZE, 64, 2);
        b.append_from(&c);
        let mut reference = BlockHotness::new(3);
        reference.record(0, 64, 1);
        reference.record(BLOCK_SIZE, 64, 2);
        a.append_from(&b);
        assert_eq!(a.series(), reference.series());
    }

    #[test]
    fn append_rounds_a_partial_bin_up() {
        // 3 events at bin width 2 occupy bins 0..2; the appended lane
        // must start at bin 2, not overlap the partial bin 1.
        let mut a = BlockHotness::new(2);
        for _ in 0..3 {
            a.record(0, 64, 1);
        }
        let mut b = BlockHotness::new(2);
        b.record(0, 64, 1);
        a.append_from(&b);
        let s = a.series();
        assert_eq!(s.grid[0], vec![2, 1, 1]);
        assert_eq!(a.events_seen(), 5, "clock padded to the bin boundary");
    }
}
