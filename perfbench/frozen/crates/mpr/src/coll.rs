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

use crate::op::ReduceOp;
use crate::request::ReqId;
use crate::topology::TopoSchedule;
use crate::types::{Datatype, Rank};
use abr_gm::packet::PacketKind;
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
    /// The send-to-parent request once every child has been folded in.
    pub send_req: Option<ReqId>,
    /// Packet kind for reduction messages: `Eager` for the stock baseline,
    /// `Collective` when running under the application-bypass layer (so the
    /// destination NIC can raise signals).
    pub packet_kind: PacketKind,
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
    pub data: Option<bytes::Bytes>,
    /// Outstanding receive from the parent.
    pub recv_req: Option<ReqId>,
    /// The precomputed schedule this instance steps against.
    pub sched: Arc<TopoSchedule>,
    /// Index into this rank's schedule children: the next child to send to.
    pub next_send: usize,
    /// In-flight send requests (rendezvous sends complete asynchronously).
    pub send_reqs: Vec<ReqId>,
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

/// Which phase a composite allreduce is in.
#[derive(Debug)]
pub enum AllreducePhase {
    /// Reducing to rank 0.
    Reduce(ReduceState),
    /// Broadcasting the result from rank 0.
    Bcast(BcastState),
}

/// State of an allreduce (reduce-to-0 then broadcast, as MPICH does for
/// user-defined/commutative operations).
#[derive(Debug)]
pub struct AllreduceState {
    /// Current phase.
    pub phase: AllreducePhase,
    /// Operator/dtype kept to rebuild the bcast phase.
    pub op: ReduceOp,
    /// Element type.
    pub dtype: Datatype,
    /// Payload length in bytes.
    pub len: usize,
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
    pub chunks: Vec<Option<bytes::Bytes>>,
    /// Root: outstanding receives (req, src).
    pub recvs: Vec<(ReqId, Rank)>,
    /// Non-root: the send request.
    pub send_req: Option<ReqId>,
}

/// State of a scatter (linear from the root).
#[derive(Debug)]
pub struct ScatterState {
    /// Collective context id.
    pub context: u32,
    /// Root rank.
    pub root: Rank,
    /// This rank.
    pub rank: Rank,
    /// Instance sequence number.
    pub coll_seq: u64,
    /// Non-root: the pending receive for this rank's block.
    pub recv_req: Option<ReqId>,
    /// Root: this rank's own block, returned when sends complete.
    pub own: Option<bytes::Bytes>,
    /// Root: outstanding sends.
    pub send_reqs: Vec<ReqId>,
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
    /// Outstanding exchange.
    pub send_req: Option<ReqId>,
    /// Outstanding exchange receive.
    pub recv_req: Option<ReqId>,
}

/// State of a segmented (pipelined) tree reduction: `k` independent
/// [`ReduceState`] instances over contiguous slices of the payload, all
/// stepping the *same* shared schedule, with at most `window` segments
/// active on the wire at once (the `ABR_SEGMENTS` knob). Each segment has
/// its own collective sequence number (`base_seq + index`), so packets from
/// different segments match independently and interleave freely.
#[derive(Debug)]
pub struct SegReduceState {
    /// Root rank (for assembling the final buffer there).
    pub root: Rank,
    /// This rank.
    pub rank: Rank,
    /// Per-segment reduce machines: `Some` until the segment completes.
    /// Index `i` covers bytes `[i * seg_bytes, min((i+1) * seg_bytes, len))`
    /// and uses sequence number `base_seq + i`.
    pub segs: Vec<Option<ReduceState>>,
    /// Segments admitted to the pipeline so far (`segs[..started]` are
    /// active or done; the rest have not posted any traffic yet).
    pub started: usize,
    /// Segments fully completed.
    pub done: usize,
    /// Maximum segments in flight at once (`started - done <= window`).
    pub window: usize,
    /// Root only: per-segment results, concatenated in order on completion.
    pub results: Vec<Option<bytes::Bytes>>,
}

/// One segment of a dual-root allreduce half: a reduce toward the half's
/// root, then a broadcast of that segment's result back down the same tree.
#[derive(Debug)]
pub enum DualSeg {
    /// Reduction phase in progress.
    Reduce(ReduceState),
    /// Broadcast phase in progress.
    Bcast(BcastState),
    /// Segment complete (result recorded in the half's `results`).
    Done,
}

/// One half of a dual-root allreduce: an independent segmented
/// reduce-then-broadcast pipeline over its own chain schedule and its own
/// slice `[offset, offset + len)` of the payload.
#[derive(Debug)]
pub struct DualHalf {
    /// Byte offset of this half within the full payload.
    pub offset: usize,
    /// Byte length of this half.
    pub len: usize,
    /// This half's root rank.
    pub root: Rank,
    /// Chain (or chain-reverse) schedule both phases step.
    pub sched: Arc<TopoSchedule>,
    /// First reduce sequence number; segment `i` reduces on `+ i`.
    pub reduce_base_seq: u64,
    /// First broadcast sequence number; segment `i` broadcasts on `+ i`.
    pub bcast_base_seq: u64,
    /// Segment size in bytes (last segment may be shorter).
    pub seg_bytes: usize,
    /// Per-segment pipelines.
    pub segs: Vec<DualSeg>,
    /// Segments admitted to this half's pipeline so far.
    pub started: usize,
    /// Segments fully completed (broadcast received everywhere).
    pub done: usize,
    /// Maximum segments of this half in flight at once.
    pub window: usize,
    /// Per-segment broadcast results, assembled in order on completion.
    pub results: Vec<Option<bytes::Bytes>>,
}

/// State of Träff's dual-root doubly-pipelined allreduce (PAPERS.md): the
/// payload is split into two element-aligned halves that run *concurrent*
/// segmented reduce+broadcast pipelines over opposite-direction chains —
/// half L toward rank 0 over [`crate::topology::TopologyKind::Chain`], half
/// H toward rank `size - 1` over
/// [`crate::topology::TopologyKind::ChainRev`] — so every physical link
/// carries both halves in opposite directions and no link is idle while
/// the pipeline drains.
#[derive(Debug)]
pub struct DualAllreduceState {
    /// Collective context id.
    pub context: u32,
    /// Communicator size.
    pub size: u32,
    /// This rank.
    pub rank: Rank,
    /// Operator.
    pub op: ReduceOp,
    /// Element type.
    pub dtype: Datatype,
    /// Full payload length in bytes.
    pub len: usize,
    /// The two concurrent half-pipelines (L toward 0, H toward size-1).
    pub halves: [DualHalf; 2],
    /// Packet kind for reduction traffic (mirrors [`ReduceState`]).
    pub packet_kind: PacketKind,
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
    /// Reduce + broadcast.
    Allreduce(AllreduceState),
    /// Linear gather.
    Gather(GatherState),
    /// Linear scatter.
    Scatter(ScatterState),
    /// Gather + broadcast.
    Allgather(AllgatherState),
    /// Rabenseifner allreduce (large messages, power-of-two sizes).
    RsAllreduce(RsAllreduceState),
    /// Segmented (pipelined) tree reduce.
    SegReduce(SegReduceState),
    /// Dual-root doubly-pipelined allreduce.
    DualAllreduce(DualAllreduceState),
}

impl CollState {
    /// Short name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            CollState::Reduce(_) => "reduce",
            CollState::Bcast(_) => "bcast",
            CollState::Barrier(_) => "barrier",
            CollState::Allreduce(_) => "allreduce",
            CollState::Gather(_) => "gather",
            CollState::Scatter(_) => "scatter",
            CollState::Allgather(_) => "allgather",
            CollState::RsAllreduce(_) => "rs-allreduce",
            CollState::SegReduce(_) => "seg-reduce",
            CollState::DualAllreduce(_) => "dual-allreduce",
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
