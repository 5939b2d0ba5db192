//! Wall-clock benchmarking shim covering the criterion 0.5 API surface
//! the `pasta-bench` benches use: `criterion_group!`/`criterion_main!`,
//! `Criterion::benchmark_group`, a group's `bench_function` and
//! `bench_with_input`, `BenchmarkId::from_parameter`, and `Bencher::iter`.
//!
//! Each benchmark closure runs `sample_size` times and the mean
//! wall-clock time per iteration is printed. There is no statistical
//! analysis, warm-up, or HTML report — just enough to keep `cargo bench`
//! compiling and emitting comparable numbers offline.

use std::fmt::Display;
use std::hint::black_box as hint_black_box;
use std::time::Instant;

/// Prevents the optimizer from deleting a benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    hint_black_box(x)
}

/// Identifies one parameterized benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Parameter-only form.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Passed to benchmark closures; `iter` times the hot loop.
pub struct Bencher {
    samples: u32,
    total_ns: u128,
    iters: u64,
}

impl Bencher {
    /// Runs `f` repeatedly, accumulating elapsed wall-clock time.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(f());
            self.total_ns += t0.elapsed().as_nanos();
            self.iters += 1;
        }
    }
}

/// The top-level benchmark driver.
pub struct Criterion {
    sample_size: u32,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets how many times each closure is sampled.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1) as u32;
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            _parent: self,
        }
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: u32,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1) as u32;
        self
    }

    /// Benchmarks `f` under `id`.
    pub fn bench_function(&mut self, id: impl Display, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id), self.sample_size, f);
        self
    }

    /// Benchmarks `f` with an input value under `id`.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id), self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group (upstream flushes reports here).
    pub fn finish(self) {}
}

fn run_one(label: &str, samples: u32, mut f: impl FnMut(&mut Bencher)) {
    let mut b = Bencher {
        samples,
        total_ns: 0,
        iters: 0,
    };
    f(&mut b);
    let per_iter = if b.iters > 0 {
        b.total_ns / u128::from(b.iters)
    } else {
        0
    };
    println!("bench {label}: {per_iter} ns/iter ({} iters)", b.iters);
}

/// Declares a group of benchmark targets.
#[macro_export]
macro_rules! criterion_group {
    (
        name = $name:ident;
        config = $config:expr;
        targets = $($target:path),+ $(,)?
    ) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Emits `main` running every group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_and_bencher_run_closures() {
        let mut c = Criterion::default().sample_size(3);
        let mut calls = 0u32;
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(2);
            g.bench_with_input(BenchmarkId::from_parameter(7), &7u32, |b, &x| {
                b.iter(|| {
                    calls += 1;
                    x * 2
                });
            });
            g.finish();
        }
        assert_eq!(calls, 2);
    }
}
