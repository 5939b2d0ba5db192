//! Where does an op's CPU go? A SIGPROF sampler for the ops the roadmap
//! keeps quoting shares of.
//!
//! Runs the named op in a loop for a few seconds under `ITIMER_PROF`
//! (process CPU time, so both pool workers are sampled), records the stack
//! at every tick with glibc's `backtrace` into a preallocated array,
//! resolves the executable's addresses with one `addr2line -f -C -i`, and
//! prints self shares, inclusive shares, and the inclusive share under
//! a fixed list of frames — the caching allocator, `BTreeMap`, `format!`,
//! SipHash, the heap, `Hub::process`, the vendor runtime's `emit` — alone
//! and by the module that called them.
//!
//! ```sh
//! cargo run --release --example sample_profile -- moe        # scale_out_moe's op, 5 s
//! cargo run --release --example sample_profile -- moe_bare 8 # the same lanes, no PASTA
//! cargo run --release --example sample_profile -- fine       # profile_fine's three models
//! cargo run --release --example sample_profile -- flood      # event_flood's shape
//! cargo run --release --example sample_profile -- serve 5 80 # serve_oversub, 80 rows a table
//! ```
//!
//! Needs line tables to name inlined frames: the root manifest's release
//! profile keeps them (`debug = true`); under a profile that does not,
//! build with `CARGO_PROFILE_RELEASE_DEBUG=1`. Linux with glibc only
//! (`backtrace`, `/proc/self/maps`), and `addr2line` on the `PATH`.

mod common;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod sampler {
    use super::common::{self, OpOutcome, Outcome};
    use std::collections::HashMap;
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
    /// whatever standard-library frames lie between.
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
        "sample_profile::",
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
            label: "uvm_sim::runtime::Context::emit",
            inner: &[
                "uvm_sim::runtime::Context<C>::emit",
                "uvm_sim::runtime::Context::emit",
            ],
            from: &[],
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
                let caller = stack[at + 1..].iter().find(|f| names_any(f, WORKSPACE));
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

    fn op_named(name: &str) -> Option<fn() -> OpOutcome> {
        fn fine() -> OpOutcome {
            let mut counts = common::EventCounts::default();
            for model in common::FINE_MODELS {
                counts = common::model_profiled(model)?;
            }
            Ok(counts)
        }
        match name {
            "moe" => Some(common::moe_profiled),
            "moe_bare" => Some(common::moe_bare),
            "fine" => Some(fine),
            "flood" => Some(common::flood_profiled),
            "serve" => Some(common::serve_profiled),
            _ => None,
        }
    }

    pub fn main() -> Outcome {
        let mut args = std::env::args().skip(1);
        let name = args.next().unwrap_or_default();
        let Some(op) = op_named(&name) else {
            return Err(
                "usage: sample_profile <moe|moe_bare|fine|flood|serve> [seconds] [rows]".into(),
            );
        };
        let seconds: f64 = match args.next() {
            Some(arg) => arg.parse()?,
            None => 5.0,
        };
        // Rows a table prints: the inclusive one needs more than the
        // default to reach below the frames every sample shares.
        let cap: usize = match args.next() {
            Some(arg) => arg.parse()?,
            None => 30,
        };
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
            "{name}: {total} samples over {ops} ops in {:.1} s ({:.0} us an op), \
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

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn main() -> common::Outcome {
    sampler::main()
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn main() {
    println!("unsupported: sample_profile needs Linux with glibc (backtrace, /proc/self/maps)");
}
