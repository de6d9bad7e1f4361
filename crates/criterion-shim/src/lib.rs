//! Offline drop-in subset of the `criterion` 0.5 API.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the benchmarking surface the workspace uses: [`Criterion`],
//! [`BenchmarkGroup`], [`Bencher::iter`], and the `criterion_group!` /
//! `criterion_main!` macros.
//!
//! Instead of criterion's full statistical machinery, each benchmark runs a
//! short warmup followed by `sample_size` timed samples and prints
//! min/median/mean to stdout. That is enough to compare configurations
//! (e.g. serial vs. parallel construction) on the same machine.

#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    reason = "the timing harness reads the wall clock"
)]

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Top-level benchmark driver, passed to every `criterion_group!` target.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Sets the default number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            _criterion: self,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let sample_size = self.sample_size;
        run_benchmark(id, sample_size, f);
        self
    }
}

/// A named group of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        run_benchmark(&full, self.sample_size, f);
        self
    }

    /// Ends the group (upstream criterion finalizes reports here).
    pub fn finish(self) {}
}

/// Timing harness handed to each benchmark closure.
pub struct Bencher {
    sample_size: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`: one untimed warmup call, then `sample_size` timed
    /// samples. The routine's output is passed through [`black_box`].
    pub fn iter<O, F>(&mut self, mut routine: F)
    where
        F: FnMut() -> O,
    {
        black_box(routine());
        self.samples.reserve(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            let out = routine();
            let dt = start.elapsed();
            black_box(out);
            self.samples.push(dt);
        }
    }
}

fn run_benchmark<F>(id: &str, sample_size: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let mut b = Bencher {
        sample_size,
        samples: Vec::new(),
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{id:<44} (no samples)");
        return;
    }
    b.samples.sort_unstable();
    let min = b.samples[0];
    let median = b.samples[b.samples.len() / 2];
    let total: Duration = b.samples.iter().sum();
    let mean = total / b.samples.len() as u32;
    println!(
        "{id:<44} min {:>12} · median {:>12} · mean {:>12} ({} samples)",
        fmt_duration(min),
        fmt_duration(median),
        fmt_duration(mean),
        b.samples.len(),
    );
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.3} s", ns as f64 / 1_000_000_000.0)
    }
}

/// Bundles benchmark functions into a callable group, mirroring upstream.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $(
                $target(&mut criterion);
            )+
        }
    };
}

/// Emits a `main` that runs each group, mirroring upstream.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes harness flags (e.g. `--bench`); this
            // shim runs everything unconditionally and ignores them.
            $(
                $group();
            )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        let mut calls = 0u32;
        g.bench_function("counts", |b| {
            b.iter(|| {
                calls += 1;
                calls
            });
        });
        g.finish();
        // One warmup call plus three timed samples.
        assert_eq!(calls, 4);
    }

    #[test]
    fn durations_format_across_scales() {
        assert!(fmt_duration(Duration::from_nanos(10)).ends_with("ns"));
        assert!(fmt_duration(Duration::from_micros(10)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(10)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(10)).ends_with(" s"));
    }
}
