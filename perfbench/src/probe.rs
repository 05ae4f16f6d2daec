//! Timing adapters for the traced run.
//!
//! [`Timed`] wraps an engine or a program and forwards every
//! `MessageEngine` / `Program` method, the defaulted ones included, to the
//! wrapped value, timing each call with `Instant`. Times and call counts
//! go to a thread-local [`Tally`]: the driver runs on one thread, so the
//! adapters need no atomics. The untraced run never sees these types.

use abr_cluster::{Program, Step, StepCtx};
use abr_gm::packet::Packet;
use abr_mpr::engine::{Action, MessageEngine};
use abr_mpr::request::Outcome;
use abr_mpr::types::{Datatype, Rank, TagSel};
use abr_mpr::{Charges, Communicator, ReduceOp, ReqId};
use abr_trace::TraceHandle;
use bytes::Bytes;
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

/// Wall time and calls spent inside wrapped engines and programs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Nanoseconds inside engine methods.
    pub engine_ns: u64,
    /// Engine method calls.
    pub engine_calls: u64,
    /// `progress()` calls, and those that returned `true`.
    pub progress_calls: u64,
    pub progress_hits: u64,
    /// `handle_signal()` calls, and those that returned `true`.
    pub signal_calls: u64,
    pub signal_hits: u64,
    /// Nanoseconds inside `Program::next`, and its calls.
    pub program_ns: u64,
    pub program_calls: u64,
}

thread_local! {
    static TALLY: Cell<Tally> = Cell::new(Tally::default());
}

/// Return the tally gathered on this thread so far and start a new one.
pub fn take_tally() -> Tally {
    TALLY.with(|t| t.take())
}

fn update(f: impl FnOnce(&mut Tally)) {
    TALLY.with(|t| {
        let mut v = t.get();
        f(&mut v);
        t.set(v);
    });
}

fn nanos_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Run one engine call, charging its wall time to the engine layer.
fn engine<R>(call: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = call();
    let ns = nanos_since(t0);
    update(|t| {
        t.engine_ns += ns;
        t.engine_calls += 1;
    });
    r
}

/// The mean cost of one `Instant::now()` read, in nanoseconds.
pub fn timer_read_ns() -> f64 {
    const READS: u32 = 200_000;
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..READS {
        last = black_box(Instant::now());
    }
    (last - t0).as_nanos() as f64 / f64::from(READS)
}

/// A timing adapter around an engine or a program.
pub struct Timed<T>(pub T);

impl<P: Program> Program for Timed<P> {
    fn next(&mut self, ctx: &mut StepCtx) -> Step {
        let t0 = Instant::now();
        let step = self.0.next(ctx);
        let ns = nanos_since(t0);
        update(|t| {
            t.program_ns += ns;
            t.program_calls += 1;
        });
        step
    }
}

impl<E: MessageEngine> MessageEngine for Timed<E> {
    fn rank(&self) -> Rank {
        engine(|| self.0.rank())
    }
    fn size(&self) -> u32 {
        engine(|| self.0.size())
    }
    fn world(&self) -> Communicator {
        engine(|| self.0.world())
    }
    fn deliver(&mut self, pkt: Packet) {
        engine(|| self.0.deliver(pkt))
    }
    fn set_tracer(&mut self, trace: TraceHandle) {
        engine(|| self.0.set_tracer(trace))
    }
    fn progress(&mut self) -> bool {
        let hit = engine(|| self.0.progress());
        update(|t| {
            t.progress_calls += 1;
            t.progress_hits += u64::from(hit);
        });
        hit
    }
    fn handle_signal(&mut self) -> bool {
        let hit = engine(|| self.0.handle_signal());
        update(|t| {
            t.signal_calls += 1;
            t.signal_hits += u64::from(hit);
        });
        hit
    }
    fn drain_actions(&mut self) -> Vec<Action> {
        engine(|| self.0.drain_actions())
    }
    fn drain_actions_into(&mut self, out: &mut Vec<Action>) {
        engine(|| self.0.drain_actions_into(out))
    }
    fn take_charges(&mut self) -> Charges {
        engine(|| self.0.take_charges())
    }
    fn test(&self, req: ReqId) -> bool {
        engine(|| self.0.test(req))
    }
    fn take_outcome(&mut self, req: ReqId) -> Option<Outcome> {
        engine(|| self.0.take_outcome(req))
    }
    fn isend(&mut self, comm: &Communicator, dst: Rank, tag: i32, data: Bytes) -> ReqId {
        engine(|| self.0.isend(comm, dst, tag, data))
    }
    fn irecv(&mut self, comm: &Communicator, src: Option<Rank>, tag: TagSel, cap: usize) -> ReqId {
        engine(|| self.0.irecv(comm, src, tag, cap))
    }
    fn ireduce(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        engine(|| self.0.ireduce(comm, root, op, dtype, data))
    }
    fn ibcast(
        &mut self,
        comm: &Communicator,
        root: Rank,
        data: Option<Bytes>,
        len: usize,
    ) -> ReqId {
        engine(|| self.0.ibcast(comm, root, data, len))
    }
    fn ibarrier(&mut self, comm: &Communicator) -> ReqId {
        engine(|| self.0.ibarrier(comm))
    }
    fn iallreduce(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        engine(|| self.0.iallreduce(comm, op, dtype, data))
    }
    fn iallreduce_dual(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        engine(|| self.0.iallreduce_dual(comm, op, dtype, data))
    }
    fn ireduce_split(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        engine(|| self.0.ireduce_split(comm, root, op, dtype, data))
    }
    fn iallreduce_dual_split(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        engine(|| self.0.iallreduce_dual_split(comm, op, dtype, data))
    }
    fn has_pending_signal_work(&self) -> bool {
        engine(|| self.0.has_pending_signal_work())
    }
    fn sleeps_when_blocked(&self) -> bool {
        engine(|| self.0.sleeps_when_blocked())
    }
    fn counters(&self) -> Vec<(&'static str, u64)> {
        engine(|| self.0.counters())
    }
    fn bounded_block_hint(&self, req: ReqId) -> Option<abr_des::SimDuration> {
        engine(|| self.0.bounded_block_hint(req))
    }
    fn split_phase_exit(&mut self, req: ReqId) {
        engine(|| self.0.split_phase_exit(req))
    }
    fn ibcast_split(
        &mut self,
        comm: &Communicator,
        root: Rank,
        data: Option<Bytes>,
        len: usize,
    ) -> ReqId {
        engine(|| self.0.ibcast_split(comm, root, data, len))
    }
    fn nic_preprocess(&mut self, pkt: Packet) -> Option<Packet> {
        engine(|| self.0.nic_preprocess(pkt))
    }
}
