//! What the benchmark reports no metric on, for any op of the scenario
//! catalogue (`pasta::scenarios`) at seed 1:
//!
//! * `sample [seconds] [rows]` — where the op's CPU goes. A SIGPROF sampler
//!   (`ITIMER_PROF`, process CPU time, so both pool workers are sampled)
//!   records the stack at every tick with glibc's `backtrace` into a
//!   preallocated array, resolves the executable's addresses with one
//!   `addr2line -f -C -i`, and prints self shares, inclusive shares, and
//!   the inclusive share under a fixed list of frames — the caching
//!   allocator, `BTreeMap`, `format!`, SipHash, the heap, `Hub::process`,
//!   the tool bodies, hotness' tracker, the UVM residency LRU, the
//!   shared-range directory, `deregister_evicted`, the directory's
//!   `set_holder` (alone and from `deregister_evicted`), the managed
//!   allocation lookup `alloc_containing`, the vendor
//!   runtime's `emit`, the `std` mutex under `accel_sim::sync::Mutex` —
//!   alone and by the module that called them. `sample-bare` samples the
//!   op's bare run. Line tables name inlined frames: the root release
//!   profile keeps them; under another profile build with
//!   `CARGO_PROFILE_RELEASE_DEBUG=1`. Linux with glibc only, and
//!   `addr2line` on the `PATH`.
//! * `overhead [rounds]` — how much of the op is not PASTA at all: the op
//!   and its bare run (the dl-framework over CUDA contexts, nothing
//!   attached) interleaved round by round, both medians, both heap
//!   allocation counts, and the op's host gate, `gated G / processed P`
//!   (of the P events its session counted, the G callbacks nothing read,
//!   which were never built; `docs/perf-log/ISSUE-24.md`).
//! * `scale <seq|pool> [width] [rounds]` — whether `scale_out_moe` or
//!   `serve_oversub` gains from the pool: ONE schedule per process, lane
//!   at a time or pooled, with `width` lane and merge workers. Interleaved
//!   in one process the two disturbed each other, so the speed-up is two
//!   medians divided by hand (`docs/perf-log/ISSUE-16.md`).
//!   First it prints the cores the box really gives: two threads spinning
//!   on equal work against one, as `available_parallelism` can promise two
//!   cores a shared host then time-slices.
//! * `counts` — what one warm op does, counted: the rows of
//!   `pasta::sim::sync::Site` (lock acquisitions, residency index writes
//!   by kind, index windows grown and rebuilt, managed allocations found
//!   by search, directory claims, drops and writes) over the third op of
//!   slot 0. Only a debug build counts; a release build exits 2.
//!
//! ```sh
//! cargo run --release --example probe -- scale_out_moe sample 5 80
//! cargo run --release --example probe -- scale_out_moe overhead
//! cargo run --release --example probe -- scale_out_moe scale pool 2
//! cargo run --example probe -- serve_oversub counts
//! ```

use pasta::prelude::ParallelConfig;
use pasta::scenarios::{Scenario, Schedule, PARALLEL};
use std::alloc::{GlobalAlloc, Layout, System};
use std::error::Error;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The benchmark's default seed.
const SEED: u64 = 1;
const USAGE: &str = "usage: probe <scenario> sample|sample-bare [seconds] [rows]
       probe <scenario> overhead [rounds]
       probe <scenario> scale seq|pool [width] [rounds]
       probe <scenario> counts";

/// Counts heap allocations while `COUNTING` is set (`overhead` only, so
/// the other modes' pool workers do not share the counter's cache line).
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call goes to `System` with the arguments it came with;
// the counter is the only thing added.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() -> Result<ExitCode, Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |at: usize| args.get(at).map(String::as_str);
    let number = |at: usize, default: usize| {
        arg(at).map_or(Ok(default), |n| n.parse::<usize>().map(|n| n.max(1)))
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let (Some(name), Some(mode)) = (arg(0), arg(1)) else {
        eprintln!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    let scenario = Scenario::setup(name, SEED)?;
    match (mode, arg(2)) {
        ("sample" | "sample-bare", _) => {
            let seconds: f64 = arg(2).map_or(Ok(5.0), str::parse)?;
            // Rows a table prints: the inclusive one needs more than the
            // default to reach below the frames every sample shares.
            let rows = number(3, 30)?;
            let mut i = 0;
            let mut op = || match mode {
                "sample" => scenario.op(i).map(|_| i += 1),
                _ => scenario.bare(),
            };
            sampler::sample(&format!("{name} {mode}"), &mut op, seconds, rows)?;
        }
        ("overhead", _) => overhead(&scenario, number(2, 21)?)?,
        ("counts", _) => return counts(&scenario),
        ("scale", Some("seq")) => scale(
            &scenario,
            Schedule::Sequential,
            number(3, 1)?,
            number(4, 21)?,
        )?,
        ("scale", Some("pool")) => {
            scale(&scenario, Schedule::Pool, number(3, cores)?, number(4, 21)?)?
        }
        _ => {
            eprintln!("{USAGE}");
            return Ok(ExitCode::from(2));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// The median of `walls`, microseconds.
fn median_us(walls: &mut [Duration]) -> f64 {
    walls.sort_unstable();
    walls[walls.len() / 2].as_secs_f64() * 1e6
}

/// Bare vs profiled: median walls, heap allocations of the last round,
/// and the profiled op's gate counts.
fn overhead(scenario: &Scenario, rounds: usize) -> Result<(), Box<dyn Error>> {
    COUNTING.store(true, Ordering::Relaxed);
    let mut walls = [Vec::with_capacity(rounds), Vec::with_capacity(rounds)];
    let mut allocs = [0, 0];
    let (mut gated, mut processed) = (0, 0);
    // Round 0 warms the symbol table, the allocator and the page cache.
    for round in 0..=rounds {
        for side in 0..2 {
            let before = ALLOCS.load(Ordering::Relaxed);
            let started = Instant::now();
            if side == 0 {
                scenario.bare()?;
            } else {
                let out = scenario.op(0)?;
                (gated, processed) = (out.gated, out.events);
            }
            if round > 0 {
                walls[side].push(started.elapsed());
            }
            allocs[side] = ALLOCS.load(Ordering::Relaxed) - before;
        }
    }
    let [bare_us, profiled_us] = walls.map(|mut w| median_us(&mut w));
    println!(
        "bare vs profiled, {rounds} interleaved rounds, available_parallelism {}",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!(
        "  {:<18} {:>10} {:>8}   {:>10} {:>8}   substrate share",
        "", "bare us", "allocs", "prof. us", "allocs"
    );
    println!(
        "  {:<18} {bare_us:>10.1} {:>8}   {profiled_us:>10.1} {:>8}   \
         {:.0} % of the wall, {:.0} % of the allocations; gated {gated} / processed {processed}",
        scenario.name(),
        allocs[0],
        allocs[1],
        100.0 * bare_us / profiled_us,
        100.0 * allocs[0] as f64 / allocs[1] as f64,
    );
    Ok(())
}

/// The work counts of one warm op, one row per site.
fn counts(scenario: &Scenario) -> Result<ExitCode, Box<dyn Error>> {
    use pasta::sim::sync::{counted, Site};
    if counted(Site::Lock).is_none() {
        eprintln!("counts: a release build counts nothing; build without --release");
        return Ok(ExitCode::from(2));
    }
    // Two ops warm the symbol table, the allocator and the lanes' pools.
    for _ in 0..2 {
        scenario.op(0)?;
    }
    let before: Vec<Option<u64>> = Site::ALL.iter().map(|&s| counted(s)).collect();
    scenario.op(0)?;
    println!(
        "{} counts: one warm op (slot 0, seed {SEED})",
        scenario.name()
    );
    for (&site, before) in Site::ALL.iter().zip(before) {
        let n = counted(site).zip(before).map_or(0, |(now, was)| now - was);
        println!("  {:<16} {n:>8}", site.name());
    }
    Ok(ExitCode::SUCCESS)
}

/// One schedule's median wall over `rounds` whole ops.
fn scale(
    scenario: &Scenario,
    schedule: Schedule,
    width: usize,
    rounds: usize,
) -> Result<(), Box<dyn Error>> {
    let threads = ParallelConfig {
        max_lane_threads: width,
        max_merge_threads: width,
        ..PARALLEL
    };
    let (one, two) = spin_walls();
    println!(
        "capacity: two spinning threads {:.2}x the wall of one: {:.2} cores",
        two / one,
        2.0 * one / two
    );
    let mut walls = Vec::with_capacity(rounds);
    let mut events = 0;
    // Round 0 warms the symbol table, the allocator and the page cache.
    for round in 0..=rounds {
        let started = Instant::now();
        events = scenario.op_on(round as u64, schedule, threads)?.events;
        if round > 0 {
            walls.push(started.elapsed());
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "{}, {events} events per op, {schedule:?} width {width}, {rounds} rounds, \
         available_parallelism {cores}: median {:.1} us",
        scenario.name(),
        median_us(&mut walls)
    );
    if schedule == Schedule::Pool && cores < 2 {
        println!("  one core: this wall says nothing about parallel speed-up");
    }
    Ok(())
}

/// Median walls, seconds, of one thread and of two threads side by side
/// spinning through the same fixed work, over seven rounds.
fn spin_walls() -> (f64, f64) {
    fn spin() {
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
    }
    let mut walls = [Vec::new(), Vec::new()];
    for _ in 0..7 {
        for (threads, walls) in walls.iter_mut().enumerate() {
            let started = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..=threads {
                    s.spawn(spin);
                }
            });
            walls.push(started.elapsed());
        }
    }
    let [one, two] = walls.map(|mut w| median_us(&mut w) / 1e6);
    (one, two)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod sampler {
    use std::collections::HashMap;
    use std::error::Error;
    use std::ffi::{c_int, c_void};
    use std::io::Write;
    use std::process::{Command, Stdio};
    use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// Frames kept per sample (innermost first; deeper stacks are cut at
    /// the outer end).
    const DEPTH: usize = 48;
    /// Samples the array holds: 32 s of one busy thread at the tick below.
    const CAPACITY: usize = 1 << 15;
    /// One row per sample: the frame count, then the frames.
    const ROW: usize = DEPTH + 1;
    /// Tick, microseconds of process CPU time.
    const TICK_US: i64 = 997;
    /// `backtrace` starts inside the handler, then the kernel's signal
    /// trampoline; the interrupted frame is the third.
    const HANDLER_FRAMES: usize = 2;

    const SIGPROF: c_int = 27;
    const ITIMER_PROF: c_int = 2;

    #[repr(C)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        it_interval: Timeval,
        it_value: Timeval,
    }

    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
        fn setitimer(which: c_int, new: *const Itimerval, old: *mut Itimerval) -> c_int;
        fn backtrace(buffer: *mut *mut c_void, size: c_int) -> c_int;
    }

    static STACKS: AtomicPtr<usize> = AtomicPtr::new(std::ptr::null_mut());
    static NEXT: AtomicUsize = AtomicUsize::new(0);

    extern "C" fn on_sigprof(_signal: c_int) {
        let base = STACKS.load(Ordering::Relaxed);
        let slot = NEXT.fetch_add(1, Ordering::Relaxed);
        if base.is_null() || slot >= CAPACITY {
            return;
        }
        // SAFETY: `base` points at `CAPACITY * ROW` words leaked by
        // `arm`; `fetch_add` gave this invocation a row no other one
        // writes, `slot < CAPACITY` keeps it in bounds, and `backtrace`
        // writes at most `DEPTH` pointers after the count word. `arm`
        // called `backtrace` once already, so this call loads nothing.
        unsafe {
            let row = base.add(slot * ROW);
            let frames = backtrace(row.add(1).cast(), DEPTH as c_int);
            *row = frames.max(0) as usize;
        }
    }

    fn timer(tick_us: i64) -> Itimerval {
        Itimerval {
            it_interval: Timeval {
                tv_sec: 0,
                tv_usec: tick_us,
            },
            it_value: Timeval {
                tv_sec: 0,
                tv_usec: tick_us,
            },
        }
    }

    /// Installs the handler and starts the profiling timer.
    fn arm() {
        let stacks: &'static mut [usize] = vec![0usize; CAPACITY * ROW].leak();
        let mut warm = [std::ptr::null_mut::<c_void>(); 4];
        // SAFETY: `backtrace` gets a buffer of the length it is told — its
        // first call loads the unwinder, which must not happen inside a
        // signal handler; `signal` installs a handler that touches only
        // the two statics; `setitimer` reads a fully initialized struct.
        unsafe {
            backtrace(warm.as_mut_ptr(), warm.len() as c_int);
            STACKS.store(stacks.as_mut_ptr(), Ordering::Relaxed);
            signal(SIGPROF, on_sigprof as *const () as usize);
            setitimer(ITIMER_PROF, &timer(TICK_US), std::ptr::null_mut());
        }
    }

    /// Stops the timer and returns the recorded stacks, innermost frame
    /// first, handler frames removed.
    fn disarm() -> Vec<Vec<usize>> {
        // SAFETY: a zero timer disarms; the struct is fully initialized.
        unsafe {
            setitimer(ITIMER_PROF, &timer(0), std::ptr::null_mut());
        }
        let taken = NEXT.load(Ordering::Relaxed);
        if taken > CAPACITY {
            eprintln!(
                "note: {} ticks past the array's {CAPACITY} were dropped",
                taken - CAPACITY
            );
        }
        let base = STACKS.load(Ordering::Relaxed);
        (0..taken.min(CAPACITY))
            .map(|slot| {
                // SAFETY: the timer is off, so no handler writes any
                // more; the row is inside the leaked array.
                let row = unsafe { std::slice::from_raw_parts(base.add(slot * ROW), ROW) };
                let frames = row[0].min(DEPTH);
                row[1..=frames]
                    .iter()
                    .skip(HANDLER_FRAMES)
                    .copied()
                    .collect()
            })
            .filter(|stack: &Vec<usize>| !stack.is_empty())
            .collect()
    }

    /// File-backed mappings of this process: `(start, end, path)`.
    fn mappings() -> Vec<(usize, usize, String)> {
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap_or_default();
        maps.lines()
            .filter_map(|line| {
                let mut fields = line.split_whitespace();
                let (start, end) = fields.next()?.split_once('-')?;
                let path = fields.nth(4)?;
                let start = usize::from_str_radix(start, 16).ok()?;
                let end = usize::from_str_radix(end, 16).ok()?;
                path.starts_with('/').then(|| (start, end, path.to_owned()))
            })
            .collect()
    }

    /// The functions at each of `offsets` inside `object`, innermost
    /// inlined frame first; empty when `addr2line` cannot be run.
    fn addr2line(object: &str, offsets: &[usize]) -> HashMap<usize, Vec<String>> {
        let mut resolved = HashMap::new();
        let Ok(mut child) = Command::new("addr2line")
            .args(["-f", "-C", "-i", "-a", "-e", object])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
        else {
            eprintln!("note: `addr2line` not found; frames stay unnamed");
            return resolved;
        };
        let mut stdin = child.stdin.take().expect("piped stdin");
        let input: String = offsets.iter().map(|o| format!("{o:#x}\n")).collect();
        // Written from a thread: addr2line answers as it reads, and both
        // pipes are finite.
        let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
        let output = child.wait_with_output();
        let _ = writer.join();
        let Ok(output) = output else {
            return resolved;
        };
        // `-a` prints the address, then (function, file:line) pairs.
        let mut current = None;
        let text = String::from_utf8_lossy(&output.stdout);
        let mut lines = text.lines();
        while let Some(line) = lines.next() {
            if let Some(hex) = line.strip_prefix("0x") {
                current = usize::from_str_radix(hex, 16).ok();
                continue;
            }
            let _file_line = lines.next();
            if let Some(offset) = current {
                let frames: &mut Vec<String> = resolved.entry(offset).or_default();
                frames.push(strip_hash(line).to_owned());
            }
        }
        resolved
    }

    /// `path::to::function::h0123456789abcdef` without the hash.
    fn strip_hash(name: &str) -> &str {
        match name.rsplit_once("::h") {
            Some((head, hash))
                if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
            {
                head
            }
            _ => name,
        }
    }

    /// Every stack as function names, innermost first, inlined frames
    /// expanded. Only the executable is resolved: the system libraries
    /// carry dynamic symbols alone, which name the nearest exported
    /// function rather than the right one, so their frames read
    /// `[libc.so.6]` and the heap's share is read off the frames that
    /// call into it.
    fn symbolize(stacks: &[Vec<usize>]) -> Vec<Vec<String>> {
        let maps = mappings();
        let exe = std::fs::read_link("/proc/self/exe")
            .map(|p| p.to_string_lossy().into_owned())
            .unwrap_or_default();
        // The load base is the lowest mapping; a PIE is linked at zero.
        let base = maps
            .iter()
            .filter(|(_, _, path)| *path == exe)
            .map(|&(start, _, _)| start)
            .min()
            .unwrap_or(0);
        // A return address belongs to the call before it.
        let pc = |frame: usize, addr: usize| if frame == 0 { addr } else { addr - 1 };
        let object_of = |pc: usize| {
            maps.iter()
                .find(|&&(start, end, _)| (start..end).contains(&pc))
                .map_or("unmapped", |(_, _, path)| path.as_str())
        };
        let mut offsets: Vec<usize> = stacks
            .iter()
            .flat_map(|stack| stack.iter().enumerate())
            .map(|(frame, &addr)| pc(frame, addr))
            .filter(|&pc| object_of(pc) == exe)
            .map(|pc| pc - base)
            .collect();
        offsets.sort_unstable();
        offsets.dedup();
        let resolved = addr2line(&exe, &offsets);
        stacks
            .iter()
            .map(|stack| {
                let mut names = Vec::new();
                for (frame, &addr) in stack.iter().enumerate() {
                    let pc = pc(frame, addr);
                    let object = object_of(pc);
                    match resolved.get(&pc.wrapping_sub(base)) {
                        Some(frames) if object == exe => names.extend(frames.iter().cloned()),
                        _ => {
                            names.push(format!("[{}]", object.rsplit('/').next().unwrap_or(object)))
                        }
                    }
                }
                names
            })
            .collect()
    }

    /// A row of the fixed table: samples with a frame naming one of
    /// `inner`; with `from` set, only those where the nearest frame of this
    /// workspace further out names one of `from` — the caller, past
    /// whatever standard-library frames (and `LOCK`'s) lie between.
    struct Share {
        label: &'static str,
        inner: &'static [&'static str],
        from: &'static [&'static str],
    }

    /// Crates of this workspace, as frames name them.
    const WORKSPACE: &[&str] = &[
        "accel_sim::",
        "uvm_sim::",
        "dl_framework::",
        "vendor_nv::",
        "vendor_amd::",
        "pasta_core::",
        "pasta_tools::",
        "pasta_trace::",
        "pasta::",
        "probe::",
    ];

    const HEAP: &[&str] = &[
        "alloc::alloc::alloc",
        "alloc::alloc::realloc",
        "alloc::alloc::dealloc",
        "alloc::alloc::exchange_malloc",
        "alloc::alloc::Global",
        "__rust_alloc",
        "__rust_realloc",
        "__rust_dealloc",
        "__rdl_",
    ];
    const SIPHASH: &[&str] = &["make_hash", "hash_one", "core::hash::sip"];
    /// The workspace's one lock type, which a "called from" row looks past.
    const LOCK: &str = "accel_sim::sync::";
    const MUTEX: &[&str] = &["std::sys::sync::mutex"];

    const SHARES: &[Share] = &[
        Share {
            label: "dl_framework::alloc::",
            inner: &["dl_framework::alloc::"],
            from: &[],
        },
        Share {
            label: "alloc::collections::btree",
            inner: &["alloc::collections::btree"],
            from: &[],
        },
        Share {
            label: "  … called from dl_framework::alloc::",
            inner: &["alloc::collections::btree"],
            from: &["dl_framework::alloc::"],
        },
        Share {
            label: "alloc::fmt::format",
            inner: &["alloc::fmt::format"],
            from: &[],
        },
        Share {
            label: "  … called from dl_framework::{ops, backend}",
            inner: &["alloc::fmt::format"],
            from: &["dl_framework::ops::", "dl_framework::backend::"],
        },
        Share {
            label: "make_hash (SipHash)",
            inner: SIPHASH,
            from: &[],
        },
        Share {
            label: "  … called from accel_sim::device::",
            inner: SIPHASH,
            from: &["accel_sim::device::"],
        },
        Share {
            label: "alloc::alloc::{alloc,realloc,dealloc}",
            inner: HEAP,
            from: &[],
        },
        Share {
            label: "  … called from dl_framework:: / accel_sim::",
            inner: HEAP,
            from: &["dl_framework::", "accel_sim::"],
        },
        Share {
            label: "pasta_core::hub::Hub::process",
            inner: &["pasta_core::hub::Hub::process"],
            from: &[],
        },
        Share {
            label: "pasta_tools:: (tool bodies)",
            inner: &["pasta_tools::"],
            from: &[],
        },
        Share {
            label: "uvm_sim::hotness:: (HotnessTool's tracker)",
            inner: &["uvm_sim::hotness::"],
            from: &[],
        },
        Share {
            label: "uvm_sim::state:: (residency LRU)",
            inner: &["uvm_sim::state::"],
            from: &[],
        },
        Share {
            label: "uvm_sim::coherence:: (shared-range directory)",
            inner: &["uvm_sim::coherence::"],
            from: &[],
        },
        Share {
            label: "uvm_sim::pager::deregister_evicted",
            inner: &["uvm_sim::pager::deregister_evicted"],
            from: &[],
        },
        Share {
            label: "uvm_sim::coherence::RangeDirectory::set_holder",
            inner: &["uvm_sim::coherence::RangeDirectory::set_holder"],
            from: &[],
        },
        Share {
            label: "  … called from uvm_sim::pager::deregister_evicted",
            inner: &["uvm_sim::coherence::RangeDirectory::set_holder"],
            from: &["uvm_sim::pager::deregister_evicted"],
        },
        Share {
            label: "uvm_sim::manager::UvmManager::alloc_containing",
            inner: &["uvm_sim::manager::UvmManager::alloc_containing"],
            from: &[],
        },
        Share {
            label: "uvm_sim::runtime::Context::emit",
            inner: &[
                "uvm_sim::runtime::Context<C>::emit",
                "uvm_sim::runtime::Context::emit",
            ],
            from: &[],
        },
        Share {
            label: "std::sys::sync::mutex",
            inner: MUTEX,
            from: &[],
        },
        Share {
            label: "  … called from pasta_core::",
            inner: MUTEX,
            from: &["pasta_core::"],
        },
        Share {
            label: "  … called from pasta_core::hub::",
            inner: MUTEX,
            from: &["pasta_core::hub::"],
        },
        Share {
            label: "  … called from pasta_core::spine::",
            inner: MUTEX,
            from: &["pasta_core::spine::"],
        },
        Share {
            label: "  … called from accel_sim::instrument::",
            inner: MUTEX,
            from: &["accel_sim::instrument::"],
        },
        Share {
            label: "  … called from uvm_sim::coherence::",
            inner: MUTEX,
            from: &["uvm_sim::coherence::"],
        },
    ];

    fn names_any(frame: &str, patterns: &[&str]) -> bool {
        patterns.iter().any(|p| frame.contains(p))
    }

    fn share_count(share: &Share, stacks: &[Vec<String>]) -> usize {
        stacks
            .iter()
            .filter(|stack| {
                let Some(at) = stack.iter().position(|f| names_any(f, share.inner)) else {
                    return false;
                };
                // The share's own frames (a closure inside it) are not
                // its caller.
                let caller = stack[at + 1..].iter().find(|f| {
                    names_any(f, WORKSPACE) && !f.contains(LOCK) && !names_any(f, share.inner)
                });
                share.from.is_empty() || caller.is_some_and(|f| names_any(f, share.from))
            })
            .count()
    }

    /// The first named frame of a stack that ends inside a system library
    /// — opaque (see `symbolize`), so the frame that called in says what
    /// it was doing.
    fn called_in(stack: &[String]) -> Option<&str> {
        let caller = stack.iter().find(|frame| !frame.starts_with('['));
        stack[0]
            .starts_with('[')
            .then(|| caller.map_or("[none]", String::as_str))
    }

    fn print_top(title: &str, counts: HashMap<&str, usize>, total: usize, cap: usize) {
        let mut rows: Vec<(&str, usize)> = counts.into_iter().collect();
        rows.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        println!("\n{title}");
        for (name, count) in rows.into_iter().take(cap) {
            println!("  {:>5.1} %  {name}", 100.0 * count as f64 / total as f64);
        }
    }

    /// Samples `op`, run in a loop for `seconds`, and prints the tables,
    /// `rows` lines each.
    pub fn sample(
        label: &str,
        op: &mut dyn FnMut() -> Result<(), Box<dyn Error>>,
        seconds: f64,
        cap: usize,
    ) -> Result<(), Box<dyn Error>> {
        // Warm the symbol table, the allocator and the page cache.
        op()?;
        arm();
        let started = Instant::now();
        let mut ops = 0u64;
        while started.elapsed() < Duration::from_secs_f64(seconds) {
            op()?;
            ops += 1;
        }
        let wall = started.elapsed();
        let stacks = symbolize(&disarm());
        let total = stacks.len();
        if total == 0 {
            return Err("no samples: did the op run?".into());
        }
        println!(
            "{label}: {total} samples over {ops} ops in {:.1} s ({:.0} us an op), \
             timer at {TICK_US} us of process CPU, available_parallelism {}",
            wall.as_secs_f64(),
            wall.as_secs_f64() * 1e6 / ops as f64,
            std::thread::available_parallelism().map_or(1, usize::from)
        );

        println!("\ninclusive share of samples with a frame under:");
        let row = |count: usize, label: &str| {
            println!(
                "  {:>5.1} %  {count:>6}  {label}",
                100.0 * count as f64 / total as f64
            );
        };
        for share in SHARES {
            row(share_count(share, &stacks), share.label);
        }
        let heap_self = stacks
            .iter()
            .filter(|stack| called_in(stack).is_some_and(|caller| names_any(caller, HEAP)))
            .count();
        row(heap_self, "self inside glibc's malloc / realloc / free");

        let mut self_counts: HashMap<&str, usize> = HashMap::new();
        let mut inclusive: HashMap<&str, usize> = HashMap::new();
        for stack in &stacks {
            *self_counts.entry(&stack[0]).or_default() += 1;
            let mut seen: Vec<&str> = stack.iter().map(String::as_str).collect();
            seen.sort_unstable();
            seen.dedup();
            for name in seen {
                *inclusive.entry(name).or_default() += 1;
            }
        }
        print_top(
            "self (innermost frame, inlined frames named)",
            self_counts,
            total,
            cap,
        );
        let mut callers: HashMap<&str, usize> = HashMap::new();
        for caller in stacks.iter().filter_map(|stack| called_in(stack)) {
            *callers.entry(caller).or_default() += 1;
        }
        print_top(
            "self inside a system library, by the frame that called in",
            callers,
            total,
            cap,
        );
        print_top("inclusive", inclusive, total, cap);
        Ok(())
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod sampler {
    use std::error::Error;

    pub fn sample(
        _: &str,
        _: &mut dyn FnMut() -> Result<(), Box<dyn Error>>,
        _: f64,
        _: usize,
    ) -> Result<(), Box<dyn Error>> {
        println!("unsupported: sampling needs Linux with glibc (backtrace, /proc/self/maps)");
        Ok(())
    }
}
