//! The node programs the benchmark runs, and the result check every
//! reduction passes through.
//!
//! [`PaperProgram`] is the paper's CPU-utilization microbenchmark (§VI),
//! step for step the program `abr_cluster::microbench::run_cpu_util`
//! drives: open a window, busy-loop a seeded skew, reduce, busy-loop the
//! catch-up delay, close the window and subtract the two injected delays.
//! It is restated here because the library keeps its own copy private; a
//! test pins the two bit for bit. [`Checked`] wraps any program and
//! compares each reduction result it receives with the analytic sum.

use abr_cluster::microbench::CpuUtilConfig;
use abr_cluster::{Program, Step, StepCtx};
use abr_des::rng::StreamRng;
use abr_des::SimDuration;
use abr_mpr::op::ReduceOp;
use abr_mpr::types::{bytes_to_f64s, f64s_to_bytes, Datatype, Rank};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One rank of the CPU-utilization microbenchmark (blocking reduce).
pub struct PaperProgram {
    rank: Rank,
    root: Rank,
    elems: usize,
    iters: u64,
    max_skew_us: u64,
    natural_jitter_us: u64,
    catchup: SimDuration,
    rng: StreamRng,
    iter: u64,
    phase: u8,
    cur_skew: SimDuration,
}

impl PaperProgram {
    /// The program for `rank` under `cfg` (the same seed derivation as the
    /// library's, so both draw identical skews).
    pub fn new(cfg: &CpuUtilConfig, rank: Rank) -> PaperProgram {
        PaperProgram {
            rank,
            root: cfg.root,
            elems: cfg.elems,
            iters: cfg.iters,
            max_skew_us: cfg.max_skew_us,
            natural_jitter_us: cfg.natural_jitter_us,
            catchup: SimDuration::from_us(cfg.max_skew_us + cfg.catchup_margin_us),
            rng: StreamRng::root(cfg.seed).derive(&[0xBE7C, rank as u64]),
            iter: 0,
            phase: 0,
            cur_skew: SimDuration::ZERO,
        }
    }

    /// Rank `r` contributes `r + 1` in every element, so the root must
    /// receive `n (n + 1) / 2` everywhere.
    pub fn expected_sum(ranks: u32) -> f64 {
        let n = ranks as f64;
        n * (n + 1.0) / 2.0
    }
}

impl Program for PaperProgram {
    fn next(&mut self, ctx: &mut StepCtx) -> Step {
        loop {
            if self.iter >= self.iters {
                return Step::Done;
            }
            match self.phase {
                0 => {
                    self.phase = 1;
                    return Step::WindowStart;
                }
                1 => {
                    let mut r = self.rng.derive(&[self.iter, self.rank as u64]);
                    let injected = r.below(self.max_skew_us + 1);
                    let natural = r.below(self.natural_jitter_us + 1);
                    self.cur_skew = SimDuration::from_us(injected + natural);
                    self.phase = 2;
                    return Step::Busy(self.cur_skew);
                }
                2 => {
                    self.phase = 3;
                    return Step::Reduce {
                        root: self.root,
                        op: ReduceOp::Sum,
                        dtype: Datatype::F64,
                        data: f64s_to_bytes(&vec![self.rank as f64 + 1.0; self.elems]),
                    };
                }
                3 => {
                    self.phase = 4;
                    return Step::Busy(self.catchup);
                }
                4 => {
                    self.phase = 5;
                    return Step::WindowStop;
                }
                5 => {
                    let window = ctx.last_window.expect("window just closed");
                    let util = window
                        .host_total()
                        .saturating_sub(self.cur_skew)
                        .saturating_sub(self.catchup);
                    ctx.record("cpu_util_us", util.as_us_f64());
                    if !window.nic.is_zero() {
                        ctx.record("nic_us", window.nic.as_us_f64());
                    }
                    self.phase = 6;
                }
                6 => {
                    self.phase = 0;
                    self.iter += 1;
                    return Step::Barrier;
                }
                _ => unreachable!("phase {}", self.phase),
            }
        }
    }
}

/// Shared result-check counters for one simulated point.
#[derive(Debug, Default)]
pub struct CheckTally {
    checked: AtomicU64,
    wrong_rank_reductions: AtomicU64,
}

impl CheckTally {
    /// Reduction results compared with their analytic value.
    pub fn checked(&self) -> u64 {
        self.checked.load(Ordering::Relaxed)
    }

    /// Rank-reductions whose result was missing or wrong.
    pub fn wrong(&self) -> u64 {
        self.wrong_rank_reductions.load(Ordering::Relaxed)
    }
}

/// Wraps a program and checks every reduction result it is handed: the
/// root's result of each `Reduce`, and every rank's result of each
/// `Allreduce`. All contributions of a point's programs must sum to
/// `expect` in every element.
pub struct Checked<P> {
    inner: P,
    rank: Rank,
    size: u32,
    expect: f64,
    /// Rank-reductions the result awaited by the next call stands for.
    pending: Option<u64>,
    tally: Arc<CheckTally>,
}

impl<P> Checked<P> {
    /// Check `inner`, rank `rank` of a `size`-rank communicator.
    pub fn new(inner: P, rank: Rank, size: u32, expect: f64, tally: Arc<CheckTally>) -> Self {
        Checked {
            inner,
            rank,
            size,
            expect,
            pending: None,
            tally,
        }
    }
}

impl<P: Program> Program for Checked<P> {
    fn next(&mut self, ctx: &mut StepCtx) -> Step {
        if let Some(weight) = self.pending.take() {
            let ok = ctx.last_data.as_deref().is_some_and(|d| {
                !d.is_empty() && bytes_to_f64s(d).iter().all(|&x| x == self.expect)
            });
            self.tally.checked.fetch_add(1, Ordering::Relaxed);
            if !ok {
                self.tally
                    .wrong_rank_reductions
                    .fetch_add(weight, Ordering::Relaxed);
            }
        }
        let step = self.inner.next(ctx);
        self.pending = match &step {
            Step::Reduce { root, .. } if *root == self.rank => Some(u64::from(self.size)),
            Step::Allreduce { .. } => Some(1),
            _ => None,
        };
        if self.pending.is_some() {
            // The driver only writes `last_data`; clearing it makes a
            // result that never arrives read as missing, not as the
            // previous iteration's.
            ctx.last_data = None;
        }
        step
    }
}
