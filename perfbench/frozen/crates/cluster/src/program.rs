//! Resumable per-node benchmark programs.
//!
//! A [`Program`] yields one [`Step`] at a time; the driver executes it
//! (advancing virtual time, blocking on requests, charging CPU) and calls
//! back for the next. Zero-duration bookkeeping steps (timer marks,
//! measurement windows) execute immediately, so a program reads like
//! straight-line benchmark code.

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
#[derive(Debug)]
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
        StepCtx {
            now: SimTime::ZERO,
            last_window: None,
            last_data: None,
            obs: Vec::new(),
        }
    }

    /// Record an observation.
    pub fn record(&mut self, key: &'static str, value: f64) {
        self.obs.push(Obs { key, value });
    }
}

impl Default for StepCtx {
    fn default() -> Self {
        Self::new()
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

#[cfg(test)]
mod tests {
    use super::*;

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
