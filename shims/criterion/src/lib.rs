//! Offline shim for the [`criterion`](https://docs.rs/criterion) crate.
//!
//! The build environment has no network access to crates.io, so this crate
//! provides a compatible subset of the criterion API backed by a simple
//! wall-clock sampler: per benchmark it calibrates an iteration batch to a
//! few milliseconds, takes a fixed number of samples, and reports
//! min/median/max ns-per-iteration. Numbers are comparable within a
//! machine and run, which is all the before/after hot-path tracking needs.
//!
//! Environment knobs: `CRITERION_SAMPLES` (default 15) and
//! `CRITERION_BATCH_MS` (default 4) trade precision for runtime. As with
//! criterion, `cargo bench -- <filter>` runs only the benchmarks whose full
//! `group/name` id contains `<filter>`.

#![warn(missing_docs)]

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples per benchmark (`CRITERION_SAMPLES`, default 15).
fn samples_from_env(configured: Option<usize>) -> usize {
    std::env::var("CRITERION_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .or(configured)
        .unwrap_or(15)
        .max(3)
}

/// Target per-sample batch duration (`CRITERION_BATCH_MS`, default 4).
fn batch_target() -> Duration {
    let ms = std::env::var("CRITERION_BATCH_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4u64)
        .max(1);
    Duration::from_millis(ms)
}

/// Passed to the closure given to `bench_function`; call [`Bencher::iter`].
pub struct Bencher {
    /// Measured ns/iter samples, filled by `iter`.
    samples_ns: Vec<f64>,
    samples: usize,
}

impl Bencher {
    /// Measure `f`, running it in calibrated batches.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warmup + calibration: grow the batch until it costs ~target.
        let target = batch_target();
        let mut batch = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let dt = t0.elapsed();
            if dt >= target {
                break;
            }
            // At least double; scale toward the target if we have signal.
            let factor = if dt.as_nanos() == 0 {
                8
            } else {
                ((target.as_nanos() / dt.as_nanos()) as u64 + 1).clamp(2, 64)
            };
            batch = batch.saturating_mul(factor);
        }
        self.samples_ns.clear();
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let dt = t0.elapsed();
            self.samples_ns.push(dt.as_nanos() as f64 / batch as f64);
        }
    }
}

fn report(name: &str, samples_ns: &mut [f64]) {
    if samples_ns.is_empty() {
        println!("{name:<50} (no samples — did the closure call b.iter?)");
        return;
    }
    samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let min = samples_ns[0];
    let med = samples_ns[samples_ns.len() / 2];
    let max = samples_ns[samples_ns.len() - 1];
    let fmt = |ns: f64| -> String {
        if ns >= 1e9 {
            format!("{:.4} s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.4} ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.4} µs", ns / 1e3)
        } else {
            format!("{ns:.2} ns")
        }
    };
    println!(
        "{name:<50} time:   [{} {} {}]",
        fmt(min),
        fmt(med),
        fmt(max)
    );
}

/// The bench filter: the first command-line argument that is not a flag
/// (cargo runs a bench binary as `<bin> --bench <filter>`).
fn filter_from(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|a| !a.starts_with('-'))
}

/// Whether benchmark `id` runs: every one without a filter, otherwise
/// those whose id contains it.
fn selected(filter: Option<&str>, id: &str) -> bool {
    filter.is_none_or(|f| id.contains(f))
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {
    filter: Option<String>,
}

impl Criterion {
    /// Take the bench filter from the command line.
    pub fn configure_from_args(mut self) -> Self {
        self.filter = filter_from(std::env::args().skip(1));
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl Into<String>,
        mut f: F,
    ) -> &mut Self {
        let name = name.into();
        if !selected(self.filter.as_deref(), &name) {
            return self;
        }
        let mut b = Bencher {
            samples_ns: Vec::new(),
            samples: samples_from_env(None),
        };
        f(&mut b);
        report(&name, &mut b.samples_ns);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            prefix: name.into(),
            sample_size: None,
        }
    }
}

/// A named id for a parameterized benchmark.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

/// A group of related benchmarks sharing a name prefix and settings.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    prefix: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.min(50));
        self
    }

    /// Set the measurement time (accepted for API compatibility; the shim
    /// sizes batches from `CRITERION_BATCH_MS` instead).
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    fn run(&mut self, name: String, f: &mut dyn FnMut(&mut Bencher)) {
        let id = format!("{}/{}", self.prefix, name);
        if !selected(self.c.filter.as_deref(), &id) {
            return;
        }
        let mut b = Bencher {
            samples_ns: Vec::new(),
            samples: samples_from_env(self.sample_size),
        };
        f(&mut b);
        report(&id, &mut b.samples_ns);
    }

    /// Run one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl Into<String>,
        mut f: F,
    ) -> &mut Self {
        self.run(name.into(), &mut f);
        self
    }

    /// Run one parameterized benchmark in the group.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.run(id.id, &mut |b| f(b, input));
        self
    }

    /// Finish the group.
    pub fn finish(self) {}
}

/// Collect benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $( $target(&mut c); )+
        }
    };
}

/// Emit `main` running the given groups.
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
    fn bench_function_produces_samples() {
        std::env::set_var("CRITERION_BATCH_MS", "1");
        std::env::set_var("CRITERION_SAMPLES", "3");
        let mut c = Criterion::default();
        c.bench_function("smoke/add", |b| {
            b.iter(|| black_box(2u64) + black_box(3u64))
        });
        let mut g = c.benchmark_group("grp");
        g.sample_size(3);
        g.bench_with_input(BenchmarkId::new("mul", 7), &7u64, |b, &n| {
            b.iter(|| black_box(n) * 2)
        });
        g.finish();
    }

    #[test]
    fn the_filter_is_the_first_non_flag_argument() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            filter_from(args(&["--bench", "barrier"])).as_deref(),
            Some("barrier")
        );
        assert_eq!(filter_from(args(&["--bench"])), None);
        assert_eq!(filter_from(args(&[])), None);
    }

    #[test]
    fn the_filter_matches_a_substring_of_the_full_id() {
        assert!(selected(None, "barrier/des_32r_x10"));
        assert!(selected(Some("barrier"), "barrier/des_32r_x10"));
        assert!(selected(Some("des_32r"), "barrier/des_32r_x10"));
        assert!(selected(Some("r/des"), "barrier/des_32r_x10"));
        assert!(!selected(Some("barrier"), "engine/loopback_reduce_16r_32e"));
    }

    #[test]
    fn a_filtered_out_bench_never_runs_its_closure() {
        let mut c = Criterion {
            filter: Some("barrier".into()),
        };
        let mut ran = false;
        c.bench_function("tree/parent_1k", |_| ran = true);
        let mut g = c.benchmark_group("engine");
        g.bench_function("drain", |_| ran = true);
        g.finish();
        assert!(!ran);
    }
}
