//! Minimal stand-in for the `criterion` benchmark harness.
//!
//! Offers the same authoring surface the workspace's benches use
//! (`criterion_group!` / `criterion_main!`, `Criterion::bench_function`,
//! `Bencher::iter` / `iter_batched`, `BatchSize`, `black_box`) but performs a
//! simple best-of-N timing instead of criterion's statistical analysis. Good
//! enough for the relative comparisons the micro-benches are read for, and it
//! keeps `cargo bench` runnable without crates.io access.
//!
//! As with criterion, a positional argument selects the benchmarks whose id
//! contains it: `cargo bench -p mhm_bench --bench micro -- local_assembly`.

use std::time::{Duration, Instant};

/// Re-implementation of `std::hint::black_box` passthrough.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Batch sizing hints; the shim runs one iteration per batch regardless, so
/// these only document intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Passed to the closure given to [`Criterion::bench_function`].
pub struct Bencher {
    samples: usize,
    results: Vec<Duration>,
}

impl Bencher {
    /// Times `routine` over `samples` runs, recording each run's wall clock.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            self.results.push(start.elapsed());
        }
    }

    /// Times `routine` on fresh inputs from `setup`; setup time is excluded.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.results.push(start.elapsed());
        }
    }
}

/// The harness entry object.
pub struct Criterion {
    sample_size: usize,
    /// Only benchmarks whose id contains this run.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            filter: None,
        }
    }
}

/// The first positional argument; `-`-prefixed flags (cargo itself passes
/// `--bench`) are ignored.
fn filter_from_args(mut args: impl Iterator<Item = String>) -> Option<String> {
    args.find(|arg| !arg.starts_with('-'))
}

impl Criterion {
    /// Sets how many timed runs each benchmark performs.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs only the benchmarks whose id contains `filter`.
    pub fn with_filter(mut self, filter: impl Into<String>) -> Self {
        self.filter = Some(filter.into());
        self
    }

    /// Runs one benchmark and prints min/median/max of the recorded runs.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        if matches!(&self.filter, Some(filter) if !id.contains(filter.as_str())) {
            return self;
        }
        let mut b = Bencher {
            samples: self.sample_size,
            results: Vec::new(),
        };
        f(&mut b);
        b.results.sort();
        if b.results.is_empty() {
            println!("{id:<40} (no samples recorded)");
        } else {
            let min = b.results[0];
            let med = b.results[b.results.len() / 2];
            let max = b.results[b.results.len() - 1];
            println!(
                "{id:<40} min {:>10.3?}  med {:>10.3?}  max {:>10.3?}  ({} runs)",
                min,
                med,
                max,
                b.results.len()
            );
        }
        self
    }

    /// Criterion's CLI hook: takes the benchmark filter from the command
    /// line. [`criterion_group!`] calls it on every group's config.
    pub fn configure_from_args(self) -> Self {
        match filter_from_args(std::env::args().skip(1)) {
            Some(filter) => self.with_filter(filter),
            None => self,
        }
    }
}

/// Declares a benchmark group the way criterion does. Both the
/// `name/config/targets` form and the positional form are accepted.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config.configure_from_args();
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

/// Emits the `main` that runs every declared group.
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
    fn bench_function_records_samples() {
        let mut c = Criterion::default().sample_size(3);
        let mut runs = 0;
        c.bench_function("noop", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 3);
    }

    #[test]
    fn a_positional_argument_filters_benchmarks_by_substring() {
        let args = |list: &[&str]| filter_from_args(list.iter().map(|a| a.to_string()));
        assert_eq!(args(&["--bench"]), None);
        assert_eq!(
            args(&["--bench", "local_assembly", "other"]).as_deref(),
            Some("local_assembly")
        );
        let mut c = Criterion::default().sample_size(2).with_filter("assembly/");
        let mut ran = Vec::new();
        for id in ["local_assembly/extend_one", "dbg/kmer_analysis_k21"] {
            c.bench_function(id, |b| b.iter(|| ran.push(id)));
        }
        assert_eq!(ran, vec!["local_assembly/extend_one"; 2]);
    }

    #[test]
    fn iter_batched_uses_fresh_inputs() {
        let mut c = Criterion::default().sample_size(4);
        let mut seen = Vec::new();
        let mut next = 0;
        c.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    next += 1;
                    next
                },
                |input| seen.push(input),
                BatchSize::SmallInput,
            )
        });
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }
}
