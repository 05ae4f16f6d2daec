//! Deterministic parallel sweep executor.
//!
//! The figure and ablation sweeps evaluate hundreds of independent
//! configuration points — each one a complete discrete-event simulation
//! that is a pure function of its config (every run derives its randomness
//! from `cfg.seed`). That makes them embarrassingly parallel *and*
//! trivially deterministic: this module fans the points out across worker
//! threads that pull indices from a shared atomic counter, collects each
//! result under its original index, and returns them in input order.
//! Output is therefore **bit-identical** to the sequential path at any
//! worker count.
//!
//! Worker count comes from the `ABR_JOBS` environment variable (default:
//! all available cores) or explicitly via [`Sweep::with_jobs`]. One job —
//! or one point — short-circuits to a plain sequential loop with no
//! threads spawned.

use crate::microbench::{
    run_app_bench, run_bcast_util, run_cpu_util, run_latency, AppBenchConfig, AppBenchResult,
    CpuUtilConfig, CpuUtilResult, LatencyConfig, LatencyResult,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count from `ABR_JOBS`, falling back to the number of available
/// cores when the variable is unset.
///
/// # Panics
/// Panics on a set-but-invalid `ABR_JOBS` (non-numeric or zero) — a typo'd
/// job count must not silently fall back to a different parallelism.
pub fn jobs_from_env() -> usize {
    abr_trace::parse_env("ABR_JOBS", parse_jobs).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Parse an explicit `ABR_JOBS` value: a positive integer.
pub fn parse_jobs(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err("ABR_JOBS must be a positive worker count, got 0".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "ABR_JOBS must be a positive worker count, got {raw:?}"
        )),
    }
}

/// Total sweep points executed by this process (all `Sweep` instances);
/// lets callers attribute point counts to phases without threading a
/// counter through every figure function.
static POINTS_RUN: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of sweep points executed so far.
pub fn points_run() -> u64 {
    POINTS_RUN.load(Ordering::Relaxed)
}

/// A parallel executor for independent, deterministic config points.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    jobs: usize,
}

impl Sweep {
    /// An executor sized from `ABR_JOBS` / available cores.
    pub fn from_env() -> Self {
        Sweep {
            jobs: jobs_from_env(),
        }
    }

    /// An executor with an explicit worker count (min 1).
    pub fn with_jobs(jobs: usize) -> Self {
        Sweep { jobs: jobs.max(1) }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Evaluate `f` over every item, returning results in input order.
    ///
    /// Workers claim items by pulling the next index off a shared atomic
    /// counter, so load-balancing is dynamic (a slow 256-node point does
    /// not hold up neighbours), while results are scattered back by index
    /// — the output is identical to `items.iter().map(f).collect()` for
    /// any `jobs` value, provided `f` is a pure function of its input.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        POINTS_RUN.fetch_add(items.len() as u64, Ordering::Relaxed);
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        // One slot per item, filled exactly once; a Mutex keeps the slot
        // writes race-free without unsafe. Contention is negligible: it is
        // taken once per completed simulation, not per event.
        let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    let mut slots = slots.lock().expect("sweep result lock poisoned");
                    for (i, r) in local {
                        debug_assert!(slots[i].is_none(), "sweep slot {i} filled twice");
                        slots[i] = Some(r);
                    }
                });
            }
        });
        slots
            .into_inner()
            .expect("sweep result lock poisoned")
            .into_iter()
            .map(|r| r.expect("sweep left a slot unfilled"))
            .collect()
    }

    /// Evaluate a batch of microbenchmark points (see [`RunSpec`]),
    /// returning one [`RunOut`] per spec, in input order.
    pub fn run_points(&self, specs: &[RunSpec]) -> Vec<RunOut> {
        self.map(specs, RunSpec::run)
    }
}

/// One microbenchmark configuration point: which runner to invoke and with
/// what config. The figure generators build flat lists of these and hand
/// them to [`Sweep::run_points`].
#[derive(Debug, Clone)]
pub enum RunSpec {
    /// CPU-utilization benchmark ([`run_cpu_util`]).
    Cpu(CpuUtilConfig),
    /// Broadcast variant of the CPU benchmark ([`run_bcast_util`]).
    Bcast(CpuUtilConfig),
    /// Latency benchmark ([`run_latency`]).
    Latency(LatencyConfig),
    /// Application benchmark ([`run_app_bench`]).
    App(AppBenchConfig),
}

impl RunSpec {
    /// Execute the point.
    pub fn run(&self) -> RunOut {
        match self {
            RunSpec::Cpu(cfg) => RunOut::Cpu(run_cpu_util(cfg)),
            RunSpec::Bcast(cfg) => RunOut::Cpu(run_bcast_util(cfg)),
            RunSpec::Latency(cfg) => RunOut::Latency(run_latency(cfg)),
            RunSpec::App(cfg) => RunOut::App(run_app_bench(cfg)),
        }
    }
}

/// The result of one [`RunSpec`] point.
#[derive(Debug, Clone)]
pub enum RunOut {
    /// From [`run_cpu_util`] or [`run_bcast_util`].
    Cpu(CpuUtilResult),
    /// From [`run_latency`].
    Latency(LatencyResult),
    /// From [`run_app_bench`].
    App(AppBenchResult),
}

impl RunOut {
    /// The CPU-utilization result; panics if this point was not a
    /// CPU/broadcast run.
    pub fn cpu(&self) -> &CpuUtilResult {
        match self {
            RunOut::Cpu(r) => r,
            other => panic!("expected Cpu result, got {other:?}"),
        }
    }

    /// The latency result; panics if this point was not a latency run.
    pub fn latency(&self) -> &LatencyResult {
        match self {
            RunOut::Latency(r) => r,
            other => panic!("expected Latency result, got {other:?}"),
        }
    }

    /// The application-benchmark result; panics if this point was not an
    /// app run.
    pub fn app(&self) -> &AppBenchResult {
        match self {
            RunOut::App(r) => r,
            other => panic!("expected App result, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let seq = Sweep::with_jobs(1).map(&items, |&x| x * x);
        for jobs in [2, 3, 8] {
            let par = Sweep::with_jobs(jobs).map(&items, |&x| x * x);
            assert_eq!(par, seq, "jobs={jobs} reordered results");
        }
    }

    #[test]
    fn map_handles_edge_sizes() {
        let empty: Vec<u32> = Vec::new();
        assert!(Sweep::with_jobs(4).map(&empty, |&x| x).is_empty());
        assert_eq!(Sweep::with_jobs(4).map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn jobs_floor_is_one() {
        assert_eq!(Sweep::with_jobs(0).jobs(), 1);
    }

    #[test]
    fn parse_jobs_accepts_positive_and_rejects_junk() {
        assert_eq!(parse_jobs("4"), Ok(4));
        assert_eq!(parse_jobs(" 16 "), Ok(16));
        for bad in ["0", "", "four", "-2", "2.5"] {
            let err = parse_jobs(bad).unwrap_err();
            assert!(err.contains("ABR_JOBS"), "{bad}: {err}");
        }
    }

    #[test]
    fn points_counter_advances() {
        let before = points_run();
        Sweep::with_jobs(1).map(&[1u8, 2, 3], |&x| x);
        assert!(points_run() >= before + 3);
    }
}
