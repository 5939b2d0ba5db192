//! Measurement plumbing: order statistics, the calibration kernel, the span
//! recorder, the counting allocator, peak RSS and the report digest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Order statistics.
// ---------------------------------------------------------------------------

/// Median of unsorted samples (the lower middle for even counts).
pub fn median(samples: &[u64]) -> u64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) / 2]
}

/// Median of unsorted floats.
pub fn median_f64(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// One timed op: offsets on the harness clock and the work it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSample {
    pub start_ns: u64,
    pub end_ns: u64,
    pub work: u64,
}

impl OpSample {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A block closes once it is this long...
pub const BLOCK_NS: u64 = 500_000_000;
/// ...and holds at least this many ops.
pub const BLOCK_MIN_OPS: usize = 16;
/// Samples beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// One closed block of consecutive ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Median op wall in the block.
    pub p50_ns: u64,
    /// Work units done in the block...
    pub work: u64,
    /// ...in this much time inside its ops. The untimed output checks
    /// between ops are the harness's, not the program's, and are left out.
    pub busy_ns: u64,
    /// Median wall of the calibration kernel over the samples taken while
    /// the block was open: how fast the machine ran then. `None` when the
    /// loop took none (the traced pass).
    pub calibration_ns: Option<u64>,
}

/// What a run reports of its window: see [`Window::normalized`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normalized {
    pub op_wall_ns: f64,
    pub work_per_s: f64,
}

/// Streaming aggregation of an op loop in constant memory: ops are cut
/// into consecutive blocks by time, each block keeps its median and its
/// rate, and the largest few walls are kept for the tail — so what the
/// harness holds does not grow with how many ops a fast machine fits into
/// the window, and `peak_rss_mb` stays the workload's.
#[derive(Debug)]
pub struct Window {
    blocks: Vec<Block>,
    open: Vec<u64>,
    open_work: u64,
    open_start_ns: u64,
    open_calibration: Vec<u64>,
    /// The `TAIL_BEYOND + 1` largest walls seen, as a min-heap.
    largest: BinaryHeap<Reverse<u64>>,
    ops: u64,
}

impl Default for Window {
    fn default() -> Self {
        Window::new()
    }
}

impl Window {
    pub fn new() -> Window {
        Window {
            blocks: Vec::new(),
            open: Vec::with_capacity(4096),
            open_work: 0,
            open_start_ns: 0,
            open_calibration: Vec::new(),
            largest: BinaryHeap::with_capacity(TAIL_BEYOND + 2),
            ops: 0,
        }
    }

    /// Ops pushed.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// One wall of the calibration kernel, taken between two ops; it
    /// counts for the block now open.
    pub fn push_calibration(&mut self, ns: u64) {
        self.open_calibration.push(ns);
    }

    pub fn push(&mut self, op: OpSample) {
        self.ops += 1;
        let wall = op.wall_ns();
        self.largest.push(Reverse(wall));
        if self.largest.len() > TAIL_BEYOND + 1 {
            self.largest.pop();
        }
        if self.open.is_empty() {
            self.open_start_ns = op.start_ns;
        }
        self.open.push(wall);
        self.open_work += op.work;
        if op.end_ns - self.open_start_ns >= BLOCK_NS && self.open.len() >= BLOCK_MIN_OPS {
            self.close();
        }
    }

    /// The loop is over. The ops still open are a scrap shorter than a
    /// block and are left out of the blocks — unless they are all there
    /// is (`--check`, the smoke test), when they become the one block.
    pub fn finish(&mut self) {
        if !self.open.is_empty() && self.blocks.is_empty() {
            self.close();
        }
        self.open.clear();
        self.open_work = 0;
        self.open_calibration.clear();
    }

    fn close(&mut self) {
        self.blocks.push(Block {
            p50_ns: median(&self.open),
            work: self.open_work,
            busy_ns: self.open.iter().sum::<u64>().max(1),
            calibration_ns: (!self.open_calibration.is_empty())
                .then(|| median(&self.open_calibration)),
        });
        self.open.clear();
        self.open_work = 0;
        self.open_calibration.clear();
    }

    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The run's end-to-end numbers: each block's median op wall and its
    /// rate (work over the time inside its ops; every op counts, slow ones
    /// too) are scaled to the speed the machine ran at during that block —
    /// the block's calibration wall over [`CALIBRATION_REF_NS`] — and the
    /// median over the blocks of each is reported. The README's
    /// *Steadiness* says why. `None` without a calibrated block.
    pub fn normalized(&self) -> Option<Normalized> {
        let (walls, rates): (Vec<f64>, Vec<f64>) = self
            .blocks
            .iter()
            .filter_map(|b| {
                let slowdown = b.calibration_ns? as f64 / CALIBRATION_REF_NS;
                Some((
                    b.p50_ns as f64 / slowdown,
                    b.work as f64 / (b.busy_ns as f64 / 1e9 / slowdown),
                ))
            })
            .unzip();
        (!walls.is_empty()).then(|| Normalized {
            op_wall_ns: median_f64(&walls),
            work_per_s: median_f64(&rates),
        })
    }

    /// Median over the blocks of the calibration wall: the speed this run
    /// saw, reported beside the metrics it scaled.
    pub fn calibration_median_ns(&self) -> Option<u64> {
        let walls: Vec<u64> = self
            .blocks
            .iter()
            .filter_map(|b| b.calibration_ns)
            .collect();
        (!walls.is_empty()).then(|| median(&walls))
    }

    /// The median of the block medians: the run's plain median op wall,
    /// as the clock read it. Reported beside the normalized one, never
    /// gated.
    pub fn median_p50_ns(&self) -> Option<u64> {
        let p50s: Vec<u64> = self.blocks.iter().map(|b| b.p50_ns).collect();
        (!p50s.is_empty()).then(|| median(&p50s))
    }

    /// The highest percentile that still has ten samples beyond it — the
    /// furthest into the tail this many samples can speak for — as
    /// `(percentile, wall_ns)`. With fewer than eleven samples that is the
    /// smallest of them, at percentile 0: no tail can be claimed.
    pub fn tail(&self) -> Option<(f64, u64)> {
        let Reverse(value) = *self.largest.peek()?;
        let beyond = self.largest.len() as u64 - 1;
        Some((
            100.0 * (self.ops - beyond - 1) as f64 / self.ops as f64,
            value,
        ))
    }
}

// ---------------------------------------------------------------------------
// Calibration.
// ---------------------------------------------------------------------------

/// What one run of the calibration kernel takes on the reference box at
/// its usual speed. A block in which the kernel took 396 µs is read as a
/// block in which the machine ran at 330/396 of that speed.
pub const CALIBRATION_REF_NS: f64 = 330_000.0;
/// The op loop runs the kernel between two ops once this long has passed
/// since it last did: ten samples per block, 0.6 % of the window.
pub const CALIBRATION_EVERY_NS: u64 = 50_000_000;

/// A fixed piece of work of the program's own kind — hashing into a map,
/// walking and growing a tree of vectors, formatting into a string — that
/// calls nothing of the program under test, so no change to the program
/// can move it. What moves it is the machine: on the reference box its
/// wall follows the single-threaded ops' through the box's changes of
/// speed with a correlation of 0.9 (a dependent multiply-add chain's does
/// not: 0.3–0.8).
#[derive(Debug)]
pub struct Calibrator {
    keys: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut rng = crate::inputs::Rng::new(0xca11_b7a7e);
        Calibrator {
            keys: (0..4096).map(|_| rng.next_u64()).collect(),
        }
    }

    /// Runs the kernel once; returns its wall in ns.
    pub fn sample(&self) -> u64 {
        use std::collections::{BTreeMap, HashMap};
        use std::fmt::Write as _;
        let started = Instant::now();
        let mut sums: HashMap<u64, u64> = HashMap::new();
        let mut lists: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (i, &key) in self.keys.iter().enumerate() {
            let sum = sums.entry(key % 512).or_insert(0);
            *sum = sum.wrapping_add(key);
            lists.entry(key % 300).or_default().push(i as u32);
        }
        let mut text = String::new();
        for (key, list) in lists.iter().take(64) {
            let _ = write!(text, "{key}:{} ", list.len());
        }
        std::hint::black_box((sums, lists, text));
        started.elapsed().as_nanos() as u64
    }
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// Name of the span around a whole op; every other span is its child.
pub const OP_SPAN: &str = "op";

/// One recorded interval. `op` is the identifier every span of one op
/// shares; the parent of a phase span is that op's [`OP_SPAN`] span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Disabled (the end-to-end pass) it costs one
/// branch per call and reads no clock.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds since this recorder was created — the one clock op
    /// samples and spans are both read from.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Subsequent spans belong to op `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Records the [`OP_SPAN`] of the current op from clock readings the
    /// caller took around it (the op's phase spans nest inside, so it
    /// cannot go through [`Spans::time`]).
    pub fn record_op(&mut self, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name: OP_SPAN,
                op: self.op,
                start_ns,
                end_ns,
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn recorded(&self) -> &[Span] {
        &self.spans
    }

    /// Median over ops of the time spent in spans named `name` (summed
    /// within an op: `profile_fine` calls `run` three times). `None` when
    /// no op recorded such a span.
    pub fn phase_median_ns(&self, name: &str) -> Option<u64> {
        let per_op = per_op_totals(&self.spans, |s| s.name == name);
        (!per_op.is_empty()).then(|| median(&per_op))
    }

    /// Median over ops of the op span's self time: its duration minus the
    /// part its child spans cover.
    pub fn op_self_median_ns(&self) -> Option<u64> {
        let selfs = op_self_times(&self.spans);
        (!selfs.is_empty()).then(|| median(&selfs))
    }

    /// The spans as a JSON array; `parent` is the index of the op span.
    pub fn to_json(&self) -> String {
        let mut op_index = std::collections::HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == OP_SPAN {
                op_index.insert(s.op, i);
            }
        }
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match op_index.get(&s.op) {
                Some(&p) if p != i => p.to_string(),
                _ => "null".into(),
            };
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{}\n",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

/// Per-op sums of the durations of spans selected by `pick`, in op order.
fn per_op_totals(spans: &[Span], pick: impl Fn(&Span) -> bool) -> Vec<u64> {
    let mut totals = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| pick(s)) {
        *totals.entry(s.op).or_insert(0u64) += s.end_ns - s.start_ns;
    }
    totals.into_values().collect()
}

/// Self time of every op span: op duration minus its children's.
pub fn op_self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.name != OP_SPAN) {
        *children.entry(s.op).or_insert(0u64) += s.end_ns - s.start_ns;
    }
    spans
        .iter()
        .filter(|s| s.name == OP_SPAN)
        .map(|s| (s.end_ns - s.start_ns).saturating_sub(*children.get(&s.op).unwrap_or(&0)))
        .collect()
}

// ---------------------------------------------------------------------------
// Counting allocator.
// ---------------------------------------------------------------------------

static COUNT_ALLOCS: AtomicBool = AtomicBool::new(false);

/// One counter per cache line, so lane and merge workers allocating at
/// once do not serialize on a single line (which would make the traced
/// pass slower on exactly the pooled workloads).
#[repr(align(64))]
struct Shard(AtomicU64);

const SHARDS: usize = 16;
static ALLOCS: [Shard; SHARDS] = [const { Shard(AtomicU64::new(0)) }; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's counter shard; const-initialized and without a
    /// destructor, so touching it from inside the allocator is safe.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count_one() {
    let shard = MY_SHARD
        .try_with(|mine| {
            if mine.get() == usize::MAX {
                mine.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            mine.get()
        })
        .unwrap_or(0);
    ALLOCS[shard].0.fetch_add(1, Ordering::Relaxed);
}

/// The system allocator plus an allocation counter that only counts while
/// the traced pass has switched it on, so the end-to-end pass pays one
/// relaxed load per allocation and nothing else.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` unchanged; the counters are
// statistics that publish no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            count_one();
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            count_one();
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNT_ALLOCS.store(on, Ordering::Relaxed);
}

/// Allocations counted so far (all threads).
pub fn allocs() -> u64 {
    ALLOCS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

// ---------------------------------------------------------------------------
// Process facts.
// ---------------------------------------------------------------------------

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a over `bytes`: the digest two commits compare simulated results by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_take_the_lower_middle() {
        assert_eq!(median(&[9, 1, 5]), 5);
        assert_eq!(median(&[4, 1, 3, 2]), 2);
        assert_eq!(median(&[7]), 7);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    fn op(start_us: u64, wall_us: u64, work: u64) -> OpSample {
        OpSample {
            start_ns: start_us * 1000,
            end_ns: (start_us + wall_us) * 1000,
            work,
        }
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut w = Window::new();
        for i in 1..=1000u64 {
            w.push(op(i * 10_000, i, 1));
        }
        let (p, value) = w.tail().unwrap();
        assert_eq!(value, 990_000, "ten walls (991..=1000 us) lie beyond");
        assert!((p - 98.9).abs() < 1e-9);
        let mut few = Window::new();
        for wall in [5, 3, 4] {
            few.push(op(0, wall, 1));
        }
        assert_eq!(
            few.tail(),
            Some((0.0, 3000)),
            "too few samples: no tail claimed"
        );
        assert_eq!(Window::new().tail(), None);
    }

    #[test]
    fn blocks_cut_by_time_and_scaled_to_the_speed_they_saw() {
        // Back-to-back 10 ms ops doing 5 units each: 50 per 0.5 s block,
        // 4.1 s in all. During the third block the machine runs at 10/16
        // of its speed: ops take 16 ms (the block closes after 32) and the
        // calibration kernel 528 µs instead of 330.
        let mut w = Window::new();
        let mut t = 0;
        while t < 4_100_000 {
            let slow = (1_000_000..1_500_000).contains(&t);
            let wall = if slow { 16_000 } else { 10_000 };
            w.push_calibration(if slow { 528_000 } else { 330_000 });
            w.push(op(t, wall, 5));
            t += wall;
        }
        w.finish();
        assert_eq!(w.blocks().len(), 8);
        assert_eq!(
            w.blocks()[2],
            Block {
                p50_ns: 16_000_000,
                work: 160,
                busy_ns: 512_000_000,
                calibration_ns: Some(528_000),
            }
        );
        let normalized = w.normalized().unwrap();
        assert_eq!(normalized.op_wall_ns, 10_000_000.0);
        assert!((normalized.work_per_s - 500.0).abs() < 1e-9);
        assert_eq!(w.median_p50_ns(), Some(10_000_000));
        assert_eq!(w.calibration_median_ns(), Some(330_000));
        // Now the machine is slow for most of the run: the plain median
        // follows it, the normalized one does not.
        let mut noisy = Window::new();
        let mut t = 0;
        while t < 4_100_000 {
            let slow = t < 2_750_000;
            noisy.push_calibration(if slow { 528_000 } else { 330_000 });
            noisy.push(op(t, if slow { 16_000 } else { 10_000 }, 5));
            t += if slow { 16_000 } else { 10_000 };
        }
        noisy.finish();
        assert_eq!(noisy.normalized().unwrap().op_wall_ns, 10_000_000.0);
        assert_eq!(noisy.median_p50_ns(), Some(16_000_000));
    }

    #[test]
    fn the_median_block_is_reported_and_a_slower_program_still_shows() {
        // Seven blocks of 20 ops at a steady machine (kernel: 363 µs, so
        // 1.1 × slower than the reference); ops of block `b` take
        // 25 + b/5 ms, so the block in the middle has the 25.6 ms ops.
        let mut w = Window::new();
        let mut t = 0;
        for b in 0..7 {
            for _ in 0..20 {
                w.push_calibration(363_000);
                w.push(op(t, 25_000 + b * 200, 3));
                t += 25_000 + b * 200;
            }
        }
        w.finish();
        let ops: Vec<u64> = w.blocks().iter().map(|b| b.work / 3).collect();
        assert_eq!(ops, [20; 7]);
        let normalized = w.normalized().unwrap();
        assert!((normalized.op_wall_ns - 25_600_000.0 / 1.1).abs() < 1e-3);
        assert!((normalized.work_per_s - 1.1 * 3.0 / 0.0256).abs() < 1e-6);
    }

    #[test]
    fn a_short_run_is_one_block_and_a_trailing_scrap_is_dropped() {
        let mut w = Window::new();
        w.push_calibration(330_000);
        for i in 0..3 {
            w.push(op(i * 100, 100, 2));
        }
        assert!(w.blocks().is_empty());
        w.finish();
        assert_eq!(w.blocks().len(), 1, "all there is becomes the block");
        assert_eq!(w.normalized().unwrap().op_wall_ns, 100_000.0);
        let mut long = Window::new();
        for i in 0..70 {
            long.push(op(i * 10_000, 10_000, 1));
        }
        long.finish();
        assert_eq!(long.blocks().len(), 1, "the 0.2 s scrap is no block");
        assert_eq!(long.ops(), 70, "its ops still count");
        assert_eq!(long.normalized(), None, "no calibration, no scale");
        assert_eq!(long.median_p50_ns(), Some(10_000_000));
        assert_eq!(Window::new().normalized(), None);
        assert_eq!(Window::new().median_p50_ns(), None);
    }

    #[test]
    fn the_calibration_kernel_does_the_same_work_every_time() {
        let calibrator = Calibrator::new();
        assert_eq!(calibrator.keys, Calibrator::new().keys);
        assert!(calibrator.sample() > 0);
    }

    #[test]
    fn span_self_time_is_op_minus_children() {
        let spans = [
            Span {
                name: OP_SPAN,
                op: 0,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "a",
                op: 0,
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "a",
                op: 0,
                start_ns: 50,
                end_ns: 70,
            },
            Span {
                name: "b",
                op: 0,
                start_ns: 70,
                end_ns: 95,
            },
            Span {
                name: OP_SPAN,
                op: 1,
                start_ns: 100,
                end_ns: 130,
            },
            Span {
                name: "a",
                op: 1,
                start_ns: 100,
                end_ns: 130,
            },
        ];
        assert_eq!(op_self_times(&spans), vec![25, 0]);
        assert_eq!(per_op_totals(&spans, |s| s.name == "a"), vec![50, 30]);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.time("x", || 7), 7);
        assert!(spans.recorded().is_empty());
        spans.set_enabled(true);
        spans.begin_op(3);
        let t0 = spans.now_ns();
        spans.time("x", || ());
        spans.record_op(t0, spans.now_ns());
        assert_eq!(spans.recorded().len(), 2);
        assert_eq!(spans.recorded()[0].op, 3);
        let json = spans.to_json();
        assert!(
            json.contains("\"name\":\"x\",\"op\":3,\"parent\":1"),
            "{json}"
        );
        assert!(
            json.contains("\"name\":\"op\",\"op\":3,\"parent\":null"),
            "{json}"
        );
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
