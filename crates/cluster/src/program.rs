//! Resumable per-node benchmark programs.
//!
//! A [`Program`] yields one [`Step`] at a time; the driver executes it
//! (advancing virtual time, blocking on requests, charging CPU) and calls
//! back for the next. Zero-duration bookkeeping steps (timer marks,
//! measurement windows) execute immediately, so a program reads like
//! straight-line benchmark code.
//!
//! Every workload the harness ships is an [`IterProgram`]: a
//! [`StepTemplate`] yields each iteration's steps by index, and one hook
//! observes each completed step. [`ScriptProgram`] and [`FnProgram`] are
//! for tests.

use abr_des::{CpuWindow, SimDuration, SimTime};
use abr_mpr::op::ReduceOp;
use abr_mpr::types::{Datatype, Rank};
use bytes::Bytes;

/// One step of a node program.
#[derive(Debug, Clone)]
pub enum Step {
    /// Busy-loop for a duration (calibrated in wall microseconds, as the
    /// paper converts delays to busy-loop iterations per node).
    Busy(SimDuration),
    /// Call the (blocking) reduction.
    Reduce {
        /// Root rank.
        root: Rank,
        /// Operator.
        op: ReduceOp,
        /// Element type.
        dtype: Datatype,
        /// This rank's contribution.
        data: Vec<u8>,
    },
    /// Post a split-phase reduction (extension API); completes like Reduce
    /// but the driver does not block on it — completion is signal-driven.
    /// The result (root only) is delivered to the next step's context.
    ReduceSplit {
        /// Root rank.
        root: Rank,
        /// Operator.
        op: ReduceOp,
        /// Element type.
        dtype: Datatype,
        /// This rank's contribution.
        data: Vec<u8>,
    },
    /// Wait for the most recent split-phase reduction to complete.
    WaitSplit,
    /// Post a split-phase application-bypass broadcast (ref. \[8\]); waited
    /// on with [`Step::WaitSplit`] like the split reduce.
    BcastSplit {
        /// Root rank.
        root: Rank,
        /// Root's payload (`None` elsewhere).
        data: Option<Bytes>,
        /// Payload length in bytes.
        len: usize,
    },
    /// Blocking allreduce.
    Allreduce {
        /// Operator.
        op: ReduceOp,
        /// Element type.
        dtype: Datatype,
        /// This rank's contribution.
        data: Vec<u8>,
    },
    /// Blocking dual-root doubly-pipelined allreduce (Träff): the vector is
    /// halved and reduced along a chain and its reverse concurrently, so
    /// both directions of every link carry traffic. Falls back to the plain
    /// allreduce algorithm when the communicator or vector is too small.
    AllreduceDual {
        /// Operator.
        op: ReduceOp,
        /// Element type.
        dtype: Datatype,
        /// This rank's contribution.
        data: Vec<u8>,
    },
    /// Post a split-phase dual-root allreduce; waited on with
    /// [`Step::WaitSplit`] like the split reduce. The reduced vector is
    /// delivered to every rank's next-step context.
    AllreduceDualSplit {
        /// Operator.
        op: ReduceOp,
        /// Element type.
        dtype: Datatype,
        /// This rank's contribution.
        data: Vec<u8>,
    },
    /// Blocking broadcast.
    Bcast {
        /// Root rank.
        root: Rank,
        /// Root's payload (`None` elsewhere).
        data: Option<Bytes>,
        /// Payload length in bytes.
        len: usize,
    },
    /// Blocking barrier.
    Barrier,
    /// Blocking send.
    Send {
        /// Destination rank.
        dst: Rank,
        /// Tag.
        tag: i32,
        /// Payload.
        data: Bytes,
    },
    /// Blocking receive; the payload lands in [`StepCtx::last_data`].
    Recv {
        /// Source rank.
        src: Rank,
        /// Tag.
        tag: i32,
        /// Buffer capacity.
        cap: usize,
    },
    /// Open the CPU-measurement window.
    WindowStart,
    /// Close the window; the charged CPU lands in [`StepCtx::last_window`].
    WindowStop,
    /// The program is finished.
    Done,
}

/// One recorded observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Obs {
    /// Observation label (e.g. `"cpu_util_us"`).
    pub key: &'static str,
    /// Value.
    pub value: f64,
}

/// Context handed to [`Program::next`] after each completed step.
#[derive(Debug, Default)]
pub struct StepCtx {
    /// Current virtual time at this node's CPU cursor.
    pub now: SimTime,
    /// Per-category CPU charged during the most recently closed window.
    pub last_window: Option<CpuWindow>,
    /// Payload of the most recently completed receive (or root
    /// reduce/bcast/allreduce result).
    pub last_data: Option<Bytes>,
    /// Observations recorded by this node.
    pub obs: Vec<Obs>,
}

impl StepCtx {
    /// Fresh context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an observation.
    pub fn record(&mut self, key: &'static str, value: f64) {
        self.obs.push(Obs { key, value });
    }
}

/// A resumable node program.
pub trait Program: Send {
    /// Produce the next step. Called once at start and after every
    /// completed step.
    fn next(&mut self, ctx: &mut StepCtx) -> Step;
}

/// Boxed programs still run: this is the type-erased escape hatch for
/// heterogeneous program lists. The driver is generic over `P: Program`
/// precisely so hot loops can run *concrete* program types with no vtable
/// hop; use a box only when ranks genuinely need different program types.
impl Program for Box<dyn Program> {
    fn next(&mut self, ctx: &mut StepCtx) -> Step {
        (**self).next(ctx)
    }
}

/// A program from a boxed closure — convenient for tests.
pub struct FnProgram<F: FnMut(&mut StepCtx) -> Step + Send>(pub F);

impl<F: FnMut(&mut StepCtx) -> Step + Send> Program for FnProgram<F> {
    fn next(&mut self, ctx: &mut StepCtx) -> Step {
        (self.0)(ctx)
    }
}

/// A program that runs a fixed list of steps then finishes.
pub struct ScriptProgram {
    steps: std::vec::IntoIter<Step>,
}

impl ScriptProgram {
    /// Wrap a step list.
    pub fn new(steps: Vec<Step>) -> Self {
        ScriptProgram {
            steps: steps.into_iter(),
        }
    }
}

impl Program for ScriptProgram {
    fn next(&mut self, _ctx: &mut StepCtx) -> Step {
        self.steps.next().unwrap_or(Step::Done)
    }
}

/// One iteration's worth of a workload: the data an [`IterProgram`] runs.
pub trait StepTemplate: Send {
    /// Iterations the program runs.
    fn iters(&self) -> u64;

    /// Step `idx` of iteration `iter`, or `None` past the iteration's last
    /// step. Called once per index, in order, each when that step is due:
    /// for `idx == 0`, `ctx.now` is the iteration's start, so per-iteration
    /// draws belong there.
    fn step(&mut self, iter: u64, idx: usize, ctx: &StepCtx) -> Option<Step>;

    /// Step `idx` of iteration `iter` completed at `ctx.now`. The hook
    /// records observations and reads the window a `WindowStop` closed.
    fn after(&mut self, _iter: u64, _idx: usize, _ctx: &mut StepCtx) {}
}

/// Runs a [`StepTemplate`]: it asks for each iteration's steps by index,
/// reports each completed one to [`StepTemplate::after`], and returns
/// [`Step::Done`] after the last iteration.
pub struct IterProgram<T> {
    template: T,
    /// The iteration the next step belongs to.
    iter: u64,
    /// Index within `iter` of the next step to ask for.
    idx: usize,
}

impl<T: StepTemplate> IterProgram<T> {
    /// Run `template`.
    pub fn new(template: T) -> Self {
        IterProgram {
            template,
            iter: 0,
            idx: 0,
        }
    }
}

impl<T: StepTemplate> Program for IterProgram<T> {
    // Runs once per step; meant to inline into the driver's step loop.
    #[inline]
    fn next(&mut self, ctx: &mut StepCtx) -> Step {
        if self.idx > 0 {
            self.template.after(self.iter, self.idx - 1, ctx);
        }
        while self.iter < self.template.iters() {
            if let Some(step) = self.template.step(self.iter, self.idx, ctx) {
                self.idx += 1;
                return step;
            }
            self.iter += 1;
            self.idx = 0;
        }
        Step::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three iterations of `[Busy(iter), Barrier, WindowStart]`, logging
    /// every template call.
    #[derive(Default)]
    struct Logged {
        asked: Vec<(u64, usize, SimTime)>,
        seen: Vec<(u64, usize, SimTime)>,
    }

    impl StepTemplate for Logged {
        fn iters(&self) -> u64 {
            3
        }

        fn step(&mut self, iter: u64, idx: usize, ctx: &StepCtx) -> Option<Step> {
            assert!(
                !self.asked.iter().any(|&(i, k, _)| (i, k) == (iter, idx)),
                "step {idx} of iteration {iter} asked twice"
            );
            self.asked.push((iter, idx, ctx.now));
            match idx {
                0 => Some(Step::Busy(SimDuration::from_us(iter))),
                1 => Some(Step::Barrier),
                2 => Some(Step::WindowStart),
                _ => None,
            }
        }

        fn after(&mut self, iter: u64, idx: usize, ctx: &mut StepCtx) {
            self.seen.push((iter, idx, ctx.now));
        }
    }

    #[test]
    fn iter_program_replays_each_iteration_then_finishes() {
        let mut p = IterProgram::new(Logged::default());
        let mut ctx = StepCtx::new();
        // Call k (step `k % 3` of iteration `k / 3`) runs at k µs.
        for k in 0..9u64 {
            ctx.now = SimTime::from_us(k);
            let (iter, idx) = (k / 3, k % 3);
            match (idx, p.next(&mut ctx)) {
                (0, Step::Busy(d)) => assert_eq!(d, SimDuration::from_us(iter)),
                (1, Step::Barrier) | (2, Step::WindowStart) => {}
                (_, step) => panic!("iteration {iter} step {idx}: got {step:?}"),
            }
        }
        ctx.now = SimTime::from_us(9);
        for _ in 0..3 {
            assert!(matches!(p.next(&mut ctx), Step::Done));
        }
        let t = &p.template;
        // Each step is asked for once, when it is due; the index past an
        // iteration's end is asked for when the next iteration starts (or
        // the program ends), at that call's time.
        let want: Vec<_> = (0..3u64)
            .flat_map(|iter| {
                (0..4).map(move |idx| (iter, idx, SimTime::from_us(3 * iter + idx as u64)))
            })
            .collect();
        assert_eq!(t.asked, want);
        // Each step is reported once, by the call after it, at that
        // call's time; the calls after the first Done report nothing.
        let want: Vec<_> = (0..9u64)
            .map(|k| (k / 3, (k % 3) as usize, SimTime::from_us(k + 1)))
            .collect();
        assert_eq!(t.seen, want);
    }

    #[test]
    fn iter_program_skips_empty_iterations() {
        /// Iterations 0 and 2 have no steps; 1 and 3 have one barrier.
        struct Sparse;
        impl StepTemplate for Sparse {
            fn iters(&self) -> u64 {
                4
            }
            fn step(&mut self, iter: u64, idx: usize, _: &StepCtx) -> Option<Step> {
                (iter % 2 == 1 && idx == 0).then_some(Step::Barrier)
            }
        }
        let mut p = IterProgram::new(Sparse);
        let mut ctx = StepCtx::new();
        assert!(matches!(p.next(&mut ctx), Step::Barrier));
        assert!(matches!(p.next(&mut ctx), Step::Barrier));
        assert!(matches!(p.next(&mut ctx), Step::Done));
    }

    #[test]
    fn iter_program_with_no_iterations_is_done_at_once() {
        struct Empty;
        impl StepTemplate for Empty {
            fn iters(&self) -> u64 {
                0
            }
            fn step(&mut self, _: u64, _: usize, _: &StepCtx) -> Option<Step> {
                unreachable!("no iteration to ask for")
            }
        }
        let mut p = IterProgram::new(Empty);
        let mut ctx = StepCtx::new();
        assert!(matches!(p.next(&mut ctx), Step::Done));
        assert!(matches!(p.next(&mut ctx), Step::Done));
    }

    #[test]
    fn script_program_replays_then_finishes() {
        let mut p = ScriptProgram::new(vec![Step::Barrier, Step::WindowStart]);
        let mut ctx = StepCtx::new();
        assert!(matches!(p.next(&mut ctx), Step::Barrier));
        assert!(matches!(p.next(&mut ctx), Step::WindowStart));
        assert!(matches!(p.next(&mut ctx), Step::Done));
        assert!(matches!(p.next(&mut ctx), Step::Done));
    }

    #[test]
    fn ctx_records_observations() {
        let mut ctx = StepCtx::new();
        ctx.record("x", 1.5);
        ctx.record("y", -2.0);
        assert_eq!(ctx.obs.len(), 2);
        assert_eq!(ctx.obs[0].key, "x");
        assert_eq!(ctx.obs[1].value, -2.0);
    }

    #[test]
    fn fn_program_uses_closure_state() {
        let mut count = 0;
        let mut p = FnProgram(move |_ctx: &mut StepCtx| {
            count += 1;
            if count <= 2 {
                Step::Barrier
            } else {
                Step::Done
            }
        });
        let mut ctx = StepCtx::new();
        assert!(matches!(p.next(&mut ctx), Step::Barrier));
        assert!(matches!(p.next(&mut ctx), Step::Barrier));
        assert!(matches!(p.next(&mut ctx), Step::Done));
    }
}
