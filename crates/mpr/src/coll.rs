//! Collective-operation state machines (the data half).
//!
//! The stepping logic lives in [`crate::engine`] (it needs mutable access to
//! the engine's queues); this module defines the per-operation state that
//! persists across progress calls.
//!
//! [`ReduceState`] is the **default blocking tree reduction** — the `nab`
//! (non-application-bypass) baseline the paper compares against. Its
//! defining property is visible right in the state: `child_recv` holds *one*
//! posted receive at a time, in schedule order, and the caller polls until
//! the whole subtree has reported. An early message from a later child waits
//! in the unexpected queue (two copies); a late message from the current
//! child stalls the parent completely.
//!
//! Since the schedule refactor, reduce/bcast instances carry an
//! [`Arc<TopoSchedule>`] instead of re-deriving tree structure from mask
//! arithmetic: the engine steps against the schedule's ordered child list
//! and parent pointer, so the same state machine runs over any
//! [`crate::topology::TopologyKind`].
//!
//! [`SegPipeline`] is the one large-message pipeline both engines share: a
//! plan of one or two [`Lane`]s, each a byte range reduced toward a root in
//! windowed segments and optionally chained into a broadcast. The plain
//! allreduce, the segmented reduce and the dual-root allreduce are its
//! three shapes. [`SegPipeline::advance`] drives it through a [`SegRunner`]:
//! the baseline engine steps inline [`SegMachine`]s, the application-bypass
//! engine posts split-phase sub-requests.

use crate::comm::Communicator;
use crate::op::ReduceOp;
use crate::request::{Outcome, ReqId};
use crate::topology::TopoSchedule;
use crate::types::{Datatype, Rank};
use abr_gm::packet::PacketKind;
use abr_trace::{TraceEvent, TraceHandle};
use bytes::Bytes;
use std::sync::Arc;

/// State of a blocking tree reduction (MPICH `intra_Reduce` when the
/// schedule is binomial).
#[derive(Debug)]
pub struct ReduceState {
    /// Collective context id.
    pub context: u32,
    /// Root rank.
    pub root: Rank,
    /// Communicator size.
    pub size: u32,
    /// This rank.
    pub rank: Rank,
    /// Operator.
    pub op: ReduceOp,
    /// Element type.
    pub dtype: Datatype,
    /// Instance sequence number (stamped into packet headers).
    pub coll_seq: u64,
    /// Running partial result, seeded with this rank's contribution.
    pub acc: Vec<u8>,
    /// The precomputed schedule this instance steps against (shared with
    /// the engine's cache — no per-instance allocation).
    pub sched: Arc<TopoSchedule>,
    /// Index into this rank's schedule children: the next child to wait on.
    pub next_child: usize,
    /// The single outstanding child receive, if any.
    pub child_recv: Option<ReqId>,
    /// A rendezvous send to the parent once every child has been folded
    /// in (an eager one completes at post and finishes the reduction).
    pub send_req: Option<ReqId>,
    /// Packet kind for reduction messages: `Eager` for the stock baseline,
    /// `Collective` when running under the application-bypass layer (so the
    /// destination NIC can raise signals).
    pub packet_kind: PacketKind,
}

impl ReduceState {
    /// A reduction of `acc` toward `root` on `coll_seq`, no child folded
    /// in yet.
    pub(crate) fn new(
        call: &PipeCall,
        rank: Rank,
        root: Rank,
        coll_seq: u64,
        acc: Vec<u8>,
        sched: Arc<TopoSchedule>,
    ) -> Self {
        ReduceState {
            context: call.comm.coll_context,
            root,
            size: call.comm.size,
            rank,
            op: call.op,
            dtype: call.dtype,
            coll_seq,
            acc,
            sched,
            next_child: 0,
            child_recv: None,
            send_req: None,
            packet_kind: call.packet_kind,
        }
    }
}

/// State of a tree broadcast.
#[derive(Debug)]
pub struct BcastState {
    /// Collective context id.
    pub context: u32,
    /// Root rank.
    pub root: Rank,
    /// Communicator size.
    pub size: u32,
    /// This rank.
    pub rank: Rank,
    /// Instance sequence number.
    pub coll_seq: u64,
    /// Payload length in bytes.
    pub len: usize,
    /// The data once this rank has it (root starts with it).
    pub data: Option<Bytes>,
    /// Outstanding receive from the parent.
    pub recv_req: Option<ReqId>,
    /// The precomputed schedule this instance steps against.
    pub sched: Arc<TopoSchedule>,
    /// Index into this rank's schedule children: the next child to send to.
    pub next_send: usize,
    /// In-flight rendezvous sends (eager ones complete at post).
    pub send_reqs: Vec<ReqId>,
}

impl BcastState {
    /// A broadcast of `len` bytes from `root` on `coll_seq`; the root
    /// passes the `data`.
    pub(crate) fn new(
        comm: &Communicator,
        rank: Rank,
        root: Rank,
        coll_seq: u64,
        data: Option<Bytes>,
        len: usize,
        sched: Arc<TopoSchedule>,
    ) -> Self {
        BcastState {
            context: comm.coll_context,
            root,
            size: comm.size,
            rank,
            coll_seq,
            len,
            data,
            recv_req: None,
            sched,
            next_send: 0,
            send_reqs: Vec::new(),
        }
    }
}

/// State of a dissemination barrier.
#[derive(Debug)]
pub struct BarrierState {
    /// Collective context id.
    pub context: u32,
    /// Communicator size.
    pub size: u32,
    /// This rank.
    pub rank: Rank,
    /// Instance sequence number.
    pub coll_seq: u64,
    /// Current round (0-based); `ceil(log2(size))` rounds total.
    pub round: u32,
    /// Outstanding receive for the current round.
    pub recv_req: Option<ReqId>,
}

/// State of a gather (linear at the root, as MPICH does for small
/// messages: every rank sends its block directly; the root assembles them
/// in rank order).
#[derive(Debug)]
pub struct GatherState {
    /// Collective context id.
    pub context: u32,
    /// Root rank.
    pub root: Rank,
    /// Communicator size.
    pub size: u32,
    /// This rank.
    pub rank: Rank,
    /// Instance sequence number.
    pub coll_seq: u64,
    /// Per-rank block length in bytes.
    pub block: usize,
    /// Root: assembled blocks (index = rank).
    pub chunks: Vec<Option<Bytes>>,
    /// Root: outstanding receives (req, src).
    pub recvs: Vec<(ReqId, Rank)>,
    /// Non-root: the send's request while it is a rendezvous in flight.
    pub send_req: Option<ReqId>,
}

/// Phase of a Rabenseifner (reduce-scatter + recursive-doubling allgather)
/// allreduce, the bandwidth-optimal algorithm real MPICH switches to for
/// large messages on power-of-two communicators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RsPhase {
    /// Recursive-halving reduce-scatter round (distance shrinking).
    ReduceScatter {
        /// Current exchange distance (starts at size/2, halves).
        dist: u32,
    },
    /// Recursive-doubling allgather round (distance growing).
    Allgather {
        /// Current exchange distance (starts at 1, doubles).
        dist: u32,
    },
}

/// State of a Rabenseifner allreduce.
#[derive(Debug)]
pub struct RsAllreduceState {
    /// Collective context id.
    pub context: u32,
    /// Communicator size (a power of two).
    pub size: u32,
    /// This rank.
    pub rank: Rank,
    /// Operator.
    pub op: ReduceOp,
    /// Element type.
    pub dtype: Datatype,
    /// Instance sequence number.
    pub coll_seq: u64,
    /// Full-length working buffer.
    pub buf: Vec<u8>,
    /// Current phase and distance.
    pub phase: RsPhase,
    /// Byte offset of the segment this rank currently owns.
    pub offset: usize,
    /// Byte length of that segment.
    pub seglen: usize,
    /// Outstanding exchange send, when it went rendezvous.
    pub send_req: Option<ReqId>,
    /// Outstanding exchange receive.
    pub recv_req: Option<ReqId>,
}

/// The result of stepping one collective state machine.
#[derive(Debug)]
pub struct StepRes {
    /// Whether any state advanced.
    pub progressed: bool,
    /// The collective's outcome once it has completed.
    pub outcome: Option<Outcome>,
}

impl StepRes {
    /// Still running.
    pub fn pending(progressed: bool) -> Self {
        StepRes {
            progressed,
            outcome: None,
        }
    }

    /// Completed with `outcome`.
    pub fn done(outcome: Outcome) -> Self {
        StepRes {
            progressed: true,
            outcome: Some(outcome),
        }
    }
}

/// One lane of a [`SegPipeline`]: the byte range `[offset, offset + len)`
/// of the payload, reduced toward `root` over `sched` in `segments`
/// segments of `seg_bytes` (the last may be shorter), at most `window` of
/// them in flight. With a broadcast sequence base, each segment's result
/// is broadcast back down the same schedule. Segment `i` reduces on
/// `reduce_seq + i` and broadcasts on `bcast_seq + i`, so segments match
/// independently and interleave freely.
#[derive(Debug, Clone)]
pub struct Lane {
    /// Byte offset of this lane within the payload.
    pub offset: usize,
    /// Byte length of this lane.
    pub len: usize,
    /// This lane's root rank.
    pub root: Rank,
    /// The schedule both phases step.
    pub sched: Arc<TopoSchedule>,
    /// First reduce sequence number.
    pub reduce_seq: u64,
    /// First broadcast sequence number, if segments chain into a broadcast.
    pub bcast_seq: Option<u64>,
    /// Segment size in bytes.
    pub seg_bytes: usize,
    /// Number of segments.
    pub segments: usize,
    /// Maximum segments in flight at once.
    pub window: usize,
    /// Label of the per-segment trace markers (`None`: no markers).
    pub marks: Option<&'static str>,
}

impl Lane {
    /// Payload bytes of segment `i`.
    fn range(&self, i: usize) -> std::ops::Range<usize> {
        let lo = self.offset + i * self.seg_bytes;
        lo..(lo + self.seg_bytes).min(self.offset + self.len)
    }
}

/// What every segment of one pipeline shares.
#[derive(Debug, Clone, Copy)]
pub struct PipeCall {
    /// The communicator.
    pub comm: Communicator,
    /// Operator.
    pub op: ReduceOp,
    /// Element type.
    pub dtype: Datatype,
    /// Packet kind of inline reduce traffic (mirrors [`ReduceState`]).
    pub packet_kind: PacketKind,
}

/// How a [`SegPipeline`] runs its segments. The baseline engine steps
/// inline [`SegMachine`]s; the application-bypass engine posts split-phase
/// sub-requests and polls them.
pub trait SegRunner {
    /// One segment's reduce or broadcast in flight.
    type Sub;
    /// Start reducing segment `seg` of `lane` with this rank's `acc`.
    fn start_reduce(&mut self, call: &PipeCall, lane: &Lane, seg: usize, acc: Vec<u8>)
        -> Self::Sub;
    /// Start broadcasting segment `seg` of `len` bytes; the lane root
    /// passes the reduced `data`.
    fn start_bcast(
        &mut self,
        call: &PipeCall,
        lane: &Lane,
        seg: usize,
        data: Option<Bytes>,
        len: usize,
    ) -> Self::Sub;
    /// Advance one segment phase.
    fn step(&mut self, sub: &mut Self::Sub) -> StepRes;
    /// Where the per-segment markers go.
    fn tracer(&self) -> &TraceHandle;
}

/// The baseline's inline segment phase.
#[derive(Debug)]
pub enum SegMachine {
    /// Reducing toward the lane root.
    Reduce(ReduceState),
    /// Broadcasting the segment's result.
    Bcast(BcastState),
}

/// Where one segment of a lane is.
#[derive(Debug)]
enum Seg<S> {
    /// Not yet admitted to the window: this rank's contribution.
    Waiting(Vec<u8>),
    /// Reduce in flight.
    Reduce(S),
    /// Broadcast in flight.
    Bcast(S),
    /// Finished, with the result where this rank has one.
    Done(Option<Bytes>),
}

/// One item inline, or several on the heap. The plain allreduce, posted
/// every iteration of a training job, is one lane of one segment, so its
/// pipeline allocates nothing beyond what an inline reduce and broadcast
/// would.
#[derive(Debug)]
enum OneOrMany<T> {
    One(T),
    Many(Vec<T>),
}

impl<T> OneOrMany<T> {
    /// The items of `iter`, which yields at least one.
    fn new(mut iter: impl ExactSizeIterator<Item = T>) -> Self {
        match iter.len() {
            1 => OneOrMany::One(iter.next().expect("one item")),
            _ => OneOrMany::Many(iter.collect()),
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            OneOrMany::One(t) => std::slice::from_mut(t),
            OneOrMany::Many(v) => v,
        }
    }
}

/// A lane and its segments' progress.
#[derive(Debug)]
struct LaneRun<S> {
    lane: Lane,
    segs: OneOrMany<Seg<S>>,
    /// Segments admitted to the window so far.
    started: usize,
    /// Segments finished.
    done: usize,
}

impl Lane {
    fn mark(&self, tracer: &TraceHandle, seg: usize, enter: bool) {
        if let Some(phase) = self.marks {
            let seg = seg as u32;
            tracer.emit(match enter {
                true => TraceEvent::SegPhaseEnter { phase, seg },
                false => TraceEvent::SegPhaseExit { phase, seg },
            });
        }
    }
}

/// A segmented reduce, optionally chained into a broadcast, over one or two
/// lanes: the plain reduce→broadcast allreduce is one lane of one segment,
/// the segmented (pipelined) reduce is one lane without a broadcast, and
/// Träff's dual-root doubly-pipelined allreduce (PAPERS.md) is two lanes
/// over opposite-direction chains. [`SegPipeline::advance`] admits segments
/// into each lane's window, steps them through a [`SegRunner`], chains
/// reduces into broadcasts and concatenates the results.
#[derive(Debug)]
pub struct SegPipeline<S> {
    call: PipeCall,
    lanes: OneOrMany<LaneRun<S>>,
}

impl<S> SegPipeline<S> {
    /// A pipeline over `lanes` of this rank's `data`, with no segment
    /// started yet.
    pub fn new<const N: usize>(call: PipeCall, data: &[u8], lanes: [Lane; N]) -> Self {
        let lanes = lanes.into_iter().map(|lane| {
            let segs = (0..lane.segments).map(|i| Seg::Waiting(data[lane.range(i)].to_vec()));
            LaneRun {
                segs: OneOrMany::new(segs),
                lane,
                started: 0,
                done: 0,
            }
        });
        SegPipeline {
            call,
            lanes: OneOrMany::new(lanes),
        }
    }

    /// Advance every lane until nothing more moves: admit segments while
    /// the window has room, step those in flight in index order, chain a
    /// finished reduce into its broadcast (stepped on the next pass), and
    /// complete once every segment has finished.
    pub fn advance<R: SegRunner<Sub = S>>(&mut self, run: &mut R) -> StepRes {
        let mut progressed = false;
        loop {
            let mut advanced = false;
            for l in self.lanes.as_mut_slice() {
                while l.started - l.done < l.lane.window && l.started < l.lane.segments {
                    let i = l.started;
                    l.lane.mark(run.tracer(), i, true);
                    let seg = &mut l.segs.as_mut_slice()[i];
                    let Seg::Waiting(acc) = seg else {
                        unreachable!("segments start in order, once")
                    };
                    let acc = std::mem::take(acc);
                    *seg = Seg::Reduce(run.start_reduce(&self.call, &l.lane, i, acc));
                    l.started += 1;
                    progressed = true;
                }
                let started = &mut l.segs.as_mut_slice()[..l.started];
                for (i, seg) in started.iter_mut().enumerate() {
                    let (reducing, res) = match seg {
                        Seg::Reduce(s) => (true, run.step(s)),
                        Seg::Bcast(s) => (false, run.step(s)),
                        Seg::Waiting(_) | Seg::Done(_) => continue,
                    };
                    progressed |= res.progressed;
                    let data = match res.outcome {
                        None => continue,
                        Some(Outcome::Failed(e)) => return StepRes::done(Outcome::Failed(e)),
                        Some(Outcome::Data(d)) => Some(d),
                        Some(Outcome::Done) => None,
                    };
                    advanced = true;
                    if reducing && l.lane.bcast_seq.is_some() {
                        // The lane root seeds the broadcast with the result;
                        // everyone else awaits it from their parent.
                        let len = data.as_ref().map_or(l.lane.range(i).len(), Bytes::len);
                        *seg = Seg::Bcast(run.start_bcast(&self.call, &l.lane, i, data, len));
                    } else {
                        *seg = Seg::Done(data);
                        l.done += 1;
                        l.lane.mark(run.tracer(), i, false);
                    }
                }
            }
            // Only a pass that finished a phase can have finished the last.
            if !advanced {
                return StepRes::pending(progressed);
            }
            let lanes = self.lanes.as_mut_slice();
            if lanes.iter().all(|l| l.done == l.lane.segments) {
                return StepRes::done(self.finish());
            }
        }
    }

    /// The outcome of a finished pipeline: a single segment's result as it
    /// is, every segment's result concatenated in payload order, or `Done`
    /// where this rank holds no result (a non-root rank of a reduce).
    fn finish(&mut self) -> Outcome {
        let lanes = self.lanes.as_mut_slice();
        let single = matches!(lanes, [l] if l.lane.segments == 1);
        let len = lanes.iter().map(|l| l.lane.len).sum();
        let mut parts = lanes
            .iter_mut()
            .flat_map(|l| l.segs.as_mut_slice())
            .map(|s| match s {
                Seg::Done(d) => d.take(),
                _ => None,
            });
        let Some(first) = parts.next().flatten() else {
            return Outcome::Done;
        };
        if single {
            return Outcome::Data(first);
        }
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&first);
        for part in parts {
            out.extend_from_slice(&part.expect("every segment holds its result"));
        }
        Outcome::Data(Bytes::from(out))
    }
}

/// Which phase a composite allgather is in.
#[derive(Debug)]
pub enum AllgatherPhase {
    /// Gathering to rank 0.
    Gather(GatherState),
    /// Broadcasting the assembled buffer from rank 0.
    Bcast(BcastState),
}

/// State of an allgather (gather to 0, then broadcast).
#[derive(Debug)]
pub struct AllgatherState {
    /// Current phase.
    pub phase: AllgatherPhase,
    /// Total assembled length (`block * size`).
    pub total_len: usize,
}

/// Any collective in flight.
#[derive(Debug)]
pub enum CollState {
    /// Blocking tree reduce (the `nab` baseline).
    Reduce(ReduceState),
    /// Tree broadcast.
    Bcast(BcastState),
    /// Dissemination barrier.
    Barrier(BarrierState),
    /// Linear gather.
    Gather(GatherState),
    /// Gather + broadcast.
    Allgather(AllgatherState),
    /// Rabenseifner allreduce (large messages, power-of-two sizes).
    RsAllreduce(RsAllreduceState),
    /// Segment pipeline: the reduce→broadcast `allreduce`, the segmented
    /// `seg-reduce` or the `dual-allreduce`.
    Pipeline {
        /// Collective name for phase events.
        name: &'static str,
        /// The pipeline.
        pipe: SegPipeline<SegMachine>,
    },
}

impl CollState {
    /// Short name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            CollState::Reduce(_) => "reduce",
            CollState::Bcast(_) => "bcast",
            CollState::Barrier(_) => "barrier",
            CollState::Gather(_) => "gather",
            CollState::Allgather(_) => "allgather",
            CollState::RsAllreduce(_) => "rs-allreduce",
            CollState::Pipeline { name, .. } => name,
        }
    }
}

/// Number of dissemination-barrier rounds for `size` ranks.
pub fn barrier_rounds(size: u32) -> u32 {
    crate::tree::tree_depth(size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_round_counts() {
        assert_eq!(barrier_rounds(1), 0);
        assert_eq!(barrier_rounds(2), 1);
        assert_eq!(barrier_rounds(3), 2);
        assert_eq!(barrier_rounds(8), 3);
        assert_eq!(barrier_rounds(9), 4);
        assert_eq!(barrier_rounds(32), 5);
    }

    #[test]
    fn coll_names() {
        let r = CollState::Barrier(BarrierState {
            context: 1,
            size: 2,
            rank: 0,
            coll_seq: 0,
            round: 0,
            recv_req: None,
        });
        assert_eq!(r.name(), "barrier");
    }
}
