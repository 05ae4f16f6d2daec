//! The per-rank sans-I/O protocol engine.
//!
//! The engine consumes two kinds of input — application calls (`isend`,
//! `irecv`, collectives) and packets [`Engine::deliver`]ed by the transport —
//! and produces [`Action`]s (packets to send, signal enable/disable
//! requests) plus CPU [`Charges`]. It never blocks, never looks at a clock
//! and never touches a socket: the drivers in `abr_cluster` own time and
//! I/O, which lets the identical protocol code run under the discrete-event
//! simulator and the live threaded runtime.
//!
//! [`Engine::progress`] is the MPICH communication progress engine of
//! Fig. 4 *without* the gray application-bypass boxes: dequeue incoming
//! messages, match them against posted receives or park them on the
//! unexpected queue, and advance any collective state machines. `abr_core`
//! adds the gray boxes by wrapping this type.

use crate::charge::Charges;
use crate::coll::{
    barrier_rounds, AllgatherPhase, AllgatherState, AllreducePhase, AllreduceState, BarrierState,
    BcastState, CollState, DualAllreduceState, DualHalf, DualSeg, GatherState, ReduceState,
    RsAllreduceState, RsPhase, ScatterState, SegReduceState,
};
use crate::comm::Communicator;
pub use crate::matchq::UnexpectedMsg;

use crate::matchq::{MsgKey, PostedQueue, PostedRecv, UnexpectedQueue};
use crate::op::ReduceOp;
use crate::request::{Outcome, RecvState, ReqId, Request, RequestBody, RndvSend};
use crate::topology::{shared_schedule, ScheduleCache, TopoSchedule, TopologyKind};
use crate::types::{coll_code, coll_tag, Datatype, MprError, Rank, TagSel};
use abr_des::meter::CpuCategory;
use abr_des::SmallMap;
use abr_gm::cost::CostModel;
use abr_gm::memory::MemoryRegistry;
use abr_gm::packet::{NodeId, Packet, PacketHeader, PacketKind};
use abr_trace::{TraceEvent, TraceHandle};
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::Arc;

/// Outputs the driver must act on, in order.
#[derive(Debug, Clone)]
pub enum Action {
    /// Hand this packet to the NIC.
    Send(Packet),
    /// Enable NIC signal generation (application-bypass layer only).
    EnableSignals,
    /// Disable NIC signal generation.
    DisableSignals,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The machine cost model.
    pub cost: CostModel,
    /// Messages at or below this many payload bytes go eager; larger ones
    /// rendezvous. MPICH-over-GM used 16 KiB-class thresholds.
    pub eager_limit: usize,
    /// Optional pinned-memory budget for rendezvous transfers.
    pub memory_budget: Option<usize>,
    /// Payloads at or above this many bytes use the Rabenseifner
    /// (reduce-scatter + allgather) allreduce on power-of-two
    /// communicators — the bandwidth-optimal large-message algorithm.
    pub allreduce_rs_threshold: usize,
    /// Tree family for reduce/bcast/allreduce schedules. The binomial
    /// default reproduces MPICH (and the pre-schedule engine) exactly.
    pub topology: TopologyKind,
    /// Pipeline window for segmented reductions (the `ABR_SEGMENTS` knob):
    /// the maximum number of message segments in flight per collective.
    /// `1` (the default) disables segmentation entirely — every reduce
    /// takes the legacy single-segment path, byte-identical to the
    /// pre-segmentation engine. Values `>= 2` split payloads larger than
    /// the Lowery–Langou optimal segment size
    /// ([`CostModel::optimal_segment_bytes`]) into pipelined segments.
    pub segments: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cost: CostModel::default(),
            eager_limit: 16 * 1024,
            memory_budget: None,
            allreduce_rs_threshold: 2048,
            topology: TopologyKind::Binomial,
            segments: 1,
        }
    }
}

/// Monotone counters describing what the engine has done; used by tests and
/// by the copy-accounting experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Eager(-class) packets sent (includes collective-kind sends).
    pub eager_sent: u64,
    /// Rendezvous transfers initiated.
    pub rndv_sent: u64,
    /// Packets processed by the progress engine.
    pub packets_processed: u64,
    /// Messages that matched a posted receive on arrival (one copy).
    pub posted_matched: u64,
    /// Messages parked on the unexpected queue on arrival (first copy).
    pub unexpected_enqueued: u64,
    /// Receives satisfied from the unexpected queue (second copy).
    pub unexpected_matched: u64,
    /// Host memory copies performed.
    pub copies: u64,
    /// Bytes moved by those copies.
    pub copy_bytes: u64,
    /// Progress-engine entries.
    pub polls: u64,
    /// Collectives completed.
    pub colls_completed: u64,
    /// Retransmitted duplicates dropped before matching (reliability layer
    /// active and a repeat `rel_seq` arrived).
    pub duplicates_suppressed: u64,
}

/// The per-rank protocol engine. See the module docs.
pub struct Engine {
    rank: Rank,
    size: u32,
    config: EngineConfig,
    rx: VecDeque<Packet>,
    posted: PostedQueue,
    unexpected: UnexpectedQueue,
    requests: SmallMap<u64, Request>,
    next_req: u64,
    next_xfer: u64,
    actions: Vec<Action>,
    charges: Charges,
    coll_seqs: SmallMap<u32, u64>,
    active_colls: Vec<ReqId>,
    pending_rndv_sends: SmallMap<u64, ReqId>,
    pending_rndv_recvs: SmallMap<u64, ReqId>,
    memory: MemoryRegistry,
    stats: EngineStats,
    reduce_packet_kind: PacketKind,
    derived_comms: u32,
    /// Last wire sequence seen per source, read only by the FIFO debug
    /// assertion in `process_packet`, so release builds skip it.
    #[cfg(debug_assertions)]
    last_wire_seq: SmallMap<Rank, u64>,
    /// Highest reliability sequence seen per source; duplicates at or below
    /// it are dropped before matching (idempotent duplicate suppression).
    last_rel_seq: SmallMap<Rank, u64>,
    /// Schedules cached per `(root, size)`; collective instances share
    /// them via `Arc` so tree structure is computed once per shape.
    scheds: ScheduleCache,
    trace: TraceHandle,
    /// This engine's world communicator. Defaults to the classic world
    /// contexts; a multi-tenant harness rebinds it (via [`Engine::set_world`])
    /// to a per-job context pair so collective sequence numbers — keyed by
    /// `coll_context` in `coll_seqs` — live in per-job namespaces.
    world: Communicator,
}

/// Result of stepping one collective.
struct StepRes {
    progressed: bool,
    outcome: Option<Outcome>,
}

impl StepRes {
    fn pending(progressed: bool) -> Self {
        StepRes {
            progressed,
            outcome: None,
        }
    }
    fn done(outcome: Outcome) -> Self {
        StepRes {
            progressed: true,
            outcome: Some(outcome),
        }
    }
}

impl Engine {
    /// A fresh engine for `rank` of `size`.
    pub fn new(rank: Rank, size: u32, config: EngineConfig) -> Self {
        assert!(size >= 1 && rank < size, "rank {rank} outside 0..{size}");
        let memory = match config.memory_budget {
            Some(b) => MemoryRegistry::with_budget(b),
            None => MemoryRegistry::unbounded(),
        };
        let scheds = ScheduleCache::new(config.topology);
        Engine {
            rank,
            size,
            config,
            rx: VecDeque::new(),
            posted: PostedQueue::new(),
            unexpected: UnexpectedQueue::new(),
            requests: SmallMap::new(),
            next_req: 0,
            next_xfer: 0,
            actions: Vec::new(),
            charges: Charges::ZERO,
            coll_seqs: SmallMap::new(),
            active_colls: Vec::new(),
            pending_rndv_sends: SmallMap::new(),
            pending_rndv_recvs: SmallMap::new(),
            memory,
            stats: EngineStats::default(),
            reduce_packet_kind: PacketKind::Eager,
            derived_comms: 0,
            #[cfg(debug_assertions)]
            last_wire_seq: SmallMap::new(),
            last_rel_seq: SmallMap::new(),
            scheds,
            trace: TraceHandle::default(),
            world: Communicator::world(size),
        }
    }

    /// The cached schedule for a collective rooted at `root` over `size`
    /// ranks, built on first use from the configured topology. The
    /// application-bypass layer uses the same cache, so descriptors and
    /// blocking collectives always agree on tree shape.
    pub fn schedule(&mut self, root: Rank, size: u32) -> std::sync::Arc<TopoSchedule> {
        self.scheds.get(root, size)
    }

    /// The configured tree family.
    pub fn topology(&self) -> TopologyKind {
        self.scheds.kind()
    }

    /// Emit engine-level trace events (packet sends/receives, collective
    /// phase transitions, match-queue outcomes) through `trace`. Also
    /// installs the handle into the match queues.
    pub fn set_tracer(&mut self, trace: TraceHandle) {
        self.posted.set_tracer(trace.clone());
        self.unexpected.set_tracer(trace.clone());
        self.trace = trace;
    }

    /// The engine's trace handle (the application-bypass wrapper emits
    /// through the same handle).
    pub fn tracer(&self) -> &TraceHandle {
        &self.trace
    }

    /// This engine's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Communicator size.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// The world communicator (per-job contexts under multi-tenancy).
    pub fn world(&self) -> Communicator {
        self.world
    }

    /// Rebind this engine's world communicator, e.g. to a per-job context
    /// pair from [`Communicator::job`] in a multi-tenant run. The size must
    /// match the engine's; `Communicator::job(0, size)` is the identity.
    pub fn set_world(&mut self, world: Communicator) {
        assert_eq!(world.size, self.size, "world communicator size mismatch");
        self.world = world;
    }

    /// Derive a fresh communicator (all ranks must call in the same order).
    pub fn create_comm(&mut self) -> Communicator {
        let c = Communicator::derived(self.derived_comms, self.size);
        self.derived_comms += 1;
        c
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        &self.config.cost
    }

    /// The eager/rendezvous threshold in payload bytes.
    pub fn eager_limit(&self) -> usize {
        self.config.eager_limit
    }

    /// Configured segmentation pipeline window, clamped to at least 1.
    pub fn segment_window(&self) -> usize {
        self.config.segments.max(1)
    }

    /// Engine counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Pinned-memory registry (for audits).
    pub fn memory(&self) -> &MemoryRegistry {
        &self.memory
    }

    /// Set the packet kind used for reduction traffic. The application-
    /// bypass layer switches this to [`PacketKind::Collective`] so the
    /// destination NIC can raise signals (§V-A); the stock baseline keeps
    /// [`PacketKind::Eager`].
    pub fn set_reduce_packet_kind(&mut self, kind: PacketKind) {
        self.reduce_packet_kind = kind;
    }

    /// The packet kind reduction traffic currently uses.
    pub fn reduce_packet_kind(&self) -> PacketKind {
        self.reduce_packet_kind
    }

    /// Charge CPU work (the application-bypass wrapper also uses this).
    pub fn charge(&mut self, category: CpuCategory, d: abr_des::SimDuration) {
        self.charges.add(category, d);
    }

    /// Queue an action for the driver (the application-bypass wrapper uses
    /// this for signal toggles).
    pub fn push_action(&mut self, action: Action) {
        if let Action::Send(pkt) = &action {
            self.trace.emit(TraceEvent::PacketSend {
                dst: pkt.header.dst.0,
                kind: pkt.header.kind.label(),
                bytes: pkt.header.msg_len,
            });
        }
        self.actions.push(action);
    }

    /// Allocate the next collective sequence number for a context. Every
    /// rank calls collectives in the same order, so these agree cluster-wide
    /// and identify reduction *instances* (§IV-D).
    pub fn alloc_coll_seq(&mut self, coll_context: u32) -> u64 {
        let c = self.coll_seqs.entry(coll_context).or_insert(0);
        let seq = *c;
        *c += 1;
        seq
    }

    // ------------------------------------------------------------------
    // Driver interface
    // ------------------------------------------------------------------

    /// Deposit a packet in the NIC receive queue. Free: the host pays
    /// nothing until the progress engine dequeues it.
    pub fn deliver(&mut self, pkt: Packet) {
        debug_assert_eq!(pkt.header.dst, NodeId(self.rank), "misrouted packet");
        self.rx.push_back(pkt);
    }

    /// One pass of the progress engine, charging the poll-entry cost.
    /// Returns true if any message was processed or any state advanced.
    pub fn progress(&mut self) -> bool {
        self.stats.polls += 1;
        let poll = self.config.cost.poll();
        self.charge(CpuCategory::Polling, poll);
        self.crank()
    }

    /// The body of the progress engine without the poll-entry charge
    /// (shared with the application-bypass asynchronous handler).
    pub fn crank(&mut self) -> bool {
        let mut progressed = false;
        while let Some(pkt) = self.rx.pop_front() {
            self.process_packet(pkt);
            progressed = true;
        }
        while self.step_collectives() {
            progressed = true;
        }
        progressed
    }

    /// Drain queued actions.
    pub fn drain_actions(&mut self) -> Vec<Action> {
        std::mem::take(&mut self.actions)
    }

    /// Drain queued actions into `out`, preserving order.
    ///
    /// Unlike [`Engine::drain_actions`] this allocates nothing: the
    /// engine's internal buffer keeps its capacity, so a driver that calls
    /// this every progress step with a reused scratch vector stays
    /// allocation-free at steady state.
    pub fn drain_actions_into(&mut self, out: &mut Vec<Action>) {
        out.append(&mut self.actions);
    }

    /// Drain accumulated CPU charges.
    pub fn take_charges(&mut self) -> Charges {
        self.charges.take()
    }

    /// Merge previously taken charges back in (the application-bypass layer
    /// uses this to re-categorize work done inside a signal handler).
    pub fn merge_charges(&mut self, charges: Charges) {
        self.charges.merge(charges);
    }

    /// Allocate a request owned by an outer layer (application bypass). It
    /// tests incomplete until [`Engine::complete_shell`] is called.
    pub fn alloc_shell_req(&mut self) -> ReqId {
        let id = self.fresh_req();
        self.requests
            .insert(id.raw(), Request::new(RequestBody::SendEager));
        id
    }

    /// Complete a shell request with `outcome`.
    pub fn complete_shell(&mut self, req: ReqId, outcome: Outcome) {
        if let Some(r) = self.requests.get_mut(&req.raw()) {
            debug_assert!(r.outcome.is_none(), "shell request completed twice");
            r.outcome = Some(outcome);
        }
    }

    /// Sweep the MPICH unexpected queue for a message from `src` with `tag`
    /// in `context`. The split-phase root path uses this to fold in
    /// children that arrived before the descriptor existed. Charges the
    /// second copy exactly as a matching receive would.
    pub fn take_unexpected(
        &mut self,
        src: Option<Rank>,
        tag: TagSel,
        context: u32,
    ) -> Option<UnexpectedMsg> {
        let msg = self.unexpected.take_match(src, tag, context)?;
        self.stats.unexpected_matched += 1;
        let copy = self.config.cost.copy(msg.msg_len);
        self.charge(CpuCategory::Protocol, copy);
        self.note_copy(msg.msg_len);
        Some(msg)
    }

    /// True if undelivered packets sit in the receive queue.
    pub fn has_rx(&self) -> bool {
        !self.rx.is_empty()
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Non-blocking send on a communicator (eager or rendezvous by size).
    pub fn isend(&mut self, comm: &Communicator, dst: Rank, tag: i32, data: Bytes) -> ReqId {
        self.isend_with_kind(dst, tag, comm.pt2pt_context, data, PacketKind::Eager, 0, 0)
    }

    /// Non-blocking receive on a communicator.
    pub fn irecv(
        &mut self,
        comm: &Communicator,
        src: Option<Rank>,
        tag: TagSel,
        capacity: usize,
    ) -> ReqId {
        self.irecv_internal(src, tag, comm.pt2pt_context, capacity, None)
    }

    /// Send with full header control. `kind` selects eager-class
    /// (`Eager`/`Collective`) transmission for small payloads; payloads over
    /// the eager limit always go rendezvous regardless of `kind`.
    #[allow(clippy::too_many_arguments)] // mirrors the wire-header fields
    pub fn isend_with_kind(
        &mut self,
        dst: Rank,
        tag: i32,
        context: u32,
        data: Bytes,
        kind: PacketKind,
        coll_seq: u64,
        coll_root: Rank,
    ) -> ReqId {
        debug_assert!(
            dst < self.size,
            "send to rank {dst} outside 0..{}",
            self.size
        );
        let id = self.fresh_req();
        if data.len() <= self.config.eager_limit {
            // Eager: copy into the pre-pinned bounce buffer, hand to NIC,
            // locally complete immediately.
            let copy = self.config.cost.copy(data.len());
            self.charge(CpuCategory::Protocol, self.config.cost.eager_send_host());
            self.charge(CpuCategory::Protocol, copy);
            self.note_copy(data.len());
            let header = PacketHeader {
                src: NodeId(self.rank),
                dst: NodeId(dst),
                kind,
                context,
                tag,
                coll_seq,
                coll_root,
                msg_len: data.len() as u32,
                wire_seq: 0,
                rel_seq: 0,
            };
            self.push_action(Action::Send(Packet::new(header, data)));
            self.stats.eager_sent += 1;
            let mut req = Request::new(RequestBody::SendEager);
            req.outcome = Some(Outcome::Done);
            self.requests.insert(id.raw(), req);
        } else {
            // Rendezvous: pin in place, announce with an RTS, wait for CTS.
            let pin = self.config.cost.pin(data.len());
            self.charge(CpuCategory::Protocol, pin);
            self.charge(CpuCategory::Protocol, self.config.cost.rndv_control_host());
            let region = self
                .memory
                .register(data.len())
                .expect("pinned-memory budget exceeded on send");
            let xfer_id = self.fresh_xfer();
            let header = PacketHeader {
                src: NodeId(self.rank),
                dst: NodeId(dst),
                kind: PacketKind::RendezvousRts,
                context,
                tag,
                coll_seq: xfer_id,
                coll_root: 0,
                msg_len: data.len() as u32,
                wire_seq: 0,
                rel_seq: 0,
            };
            self.actions
                .push(Action::Send(Packet::new(header, Bytes::new())));
            self.stats.rndv_sent += 1;
            self.pending_rndv_sends.insert(xfer_id, id);
            self.requests.insert(
                id.raw(),
                Request::new(RequestBody::SendRndv(RndvSend {
                    dst,
                    xfer_id,
                    data,
                    region,
                    tag,
                    context,
                })),
            );
        }
        id
    }

    /// Receive with full control; `expect_coll_seq` adds the §IV-D debug
    /// cross-check for collective-internal receives.
    pub fn irecv_internal(
        &mut self,
        src: Option<Rank>,
        tag: TagSel,
        context: u32,
        capacity: usize,
        expect_coll_seq: Option<u64>,
    ) -> ReqId {
        let id = self.fresh_req();
        self.requests.insert(
            id.raw(),
            Request::new(RequestBody::Recv(RecvState::default())),
        );
        // MPI_Recv semantics: search the unexpected queue first (§III).
        self.charge(CpuCategory::Protocol, self.config.cost.matching());
        if let Some(msg) = self.unexpected.take_match(src, tag, context) {
            debug_assert!(
                // A parked RTS carries the rendezvous transfer id in this
                // field, not the collective sequence; skip the cross-check.
                msg.kind == PacketKind::RendezvousRts
                    || expect_coll_seq.is_none_or(|s| s == msg.coll_seq),
                "FIFO transport delivered collective instance {} where {} was expected",
                msg.coll_seq,
                expect_coll_seq.unwrap()
            );
            self.stats.unexpected_matched += 1;
            match msg.kind {
                PacketKind::RendezvousRts => {
                    if msg.msg_len > capacity {
                        self.fail_req(
                            id,
                            MprError::Truncation {
                                received: msg.msg_len,
                                capacity,
                            },
                        );
                    } else {
                        self.begin_rndv_recv(id, msg.src, msg.coll_seq, msg.msg_len, context);
                    }
                }
                _ => {
                    if msg.msg_len > capacity {
                        self.fail_req(
                            id,
                            MprError::Truncation {
                                received: msg.msg_len,
                                capacity,
                            },
                        );
                    } else {
                        // Second copy: unexpected buffer -> user buffer.
                        let copy = self.config.cost.copy(msg.msg_len);
                        self.charge(CpuCategory::Protocol, copy);
                        self.note_copy(msg.msg_len);
                        self.complete_recv(id, msg.data);
                    }
                }
            }
        } else {
            self.posted.post(PostedRecv {
                id,
                src,
                tag,
                context,
                capacity,
                expect_coll_seq,
            });
        }
        id
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// Allocate `count` consecutive collective sequence numbers for a
    /// context, returning the first. Segmented collectives reserve one
    /// sequence per segment so every segment matches independently; all
    /// ranks compute the same segment count from shared configuration, so
    /// the block allocation agrees cluster-wide.
    pub fn alloc_seq_range(&mut self, coll_context: u32, count: usize) -> u64 {
        let c = self.coll_seqs.entry(coll_context).or_insert(0);
        let first = *c;
        *c += count as u64;
        first
    }

    /// Segment plan for a reduction of `len` bytes over the configured
    /// topology rooted at `root`: `(segment_count, segment_bytes)`.
    ///
    /// Returns `(1, len)` — no segmentation — unless the engine's pipeline
    /// window ([`EngineConfig::segments`]) is at least 2 *and* the payload
    /// splits into at least two segments at the Lowery–Langou optimal
    /// size. The application-bypass layer calls this before allocating
    /// sequence numbers so both layers agree on the count.
    pub fn segment_plan(
        &mut self,
        root: Rank,
        size: u32,
        len: usize,
        elem_bytes: usize,
    ) -> (usize, usize) {
        if self.config.segments <= 1 {
            return (1, len);
        }
        let depth = self.schedule(root, size).max_depth();
        self.plan_segments(len, elem_bytes, depth)
    }

    /// [`Engine::segment_plan`] for an explicit pipeline depth (the
    /// dual-root halves plan against their chain schedules, not the
    /// configured topology).
    pub fn plan_segments(&self, len: usize, elem_bytes: usize, depth: u32) -> (usize, usize) {
        if self.config.segments <= 1 || len <= elem_bytes.max(1) || depth == 0 {
            return (1, len);
        }
        let seg =
            self.config
                .cost
                .optimal_segment_bytes(len, depth, elem_bytes, self.config.eager_limit);
        let k = len.div_ceil(seg);
        if k < 2 {
            (1, len)
        } else {
            (k, seg)
        }
    }

    /// Post the default blocking binomial reduction (the `nab` baseline).
    /// `data` is this rank's contribution; the root's result is the
    /// request's [`Outcome::Data`].
    ///
    /// When segmentation is enabled and the payload is large enough
    /// ([`Engine::segment_plan`]), this becomes a segmented pipelined
    /// reduction instead; with the default single-segment window the
    /// legacy path runs unchanged.
    pub fn ireduce(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        comm.check_rank(root).expect("invalid root");
        let (k, seg_bytes) = self.segment_plan(root, comm.size, data.len(), dtype.size());
        if k <= 1 {
            let coll_seq = self.alloc_coll_seq(comm.coll_context);
            return self.ireduce_with_seq(comm, root, op, dtype, data, coll_seq);
        }
        let base_seq = self.alloc_seq_range(comm.coll_context, k);
        self.ireduce_segmented_with_seqs(comm, root, op, dtype, data, base_seq, k, seg_bytes)
    }

    /// As [`Engine::ireduce`] with an externally allocated sequence number
    /// (the application-bypass layer allocates before choosing a path).
    pub fn ireduce_with_seq(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
        coll_seq: u64,
    ) -> ReqId {
        let sched = self.schedule(root, comm.size);
        self.ireduce_with_seq_sched(comm, root, op, dtype, data, coll_seq, sched)
    }

    /// As [`Engine::ireduce_with_seq`] against an explicit schedule (the
    /// dual-root allreduce steps chain schedules regardless of the
    /// configured topology).
    #[allow(clippy::too_many_arguments)] // mirrors ireduce_with_seq + sched
    pub fn ireduce_with_seq_sched(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
        coll_seq: u64,
        sched: Arc<TopoSchedule>,
    ) -> ReqId {
        let state = ReduceState {
            context: comm.coll_context,
            root,
            size: comm.size,
            rank: self.rank,
            op,
            dtype,
            coll_seq,
            acc: data.to_vec(),
            sched,
            next_child: 0,
            child_recv: None,
            send_req: None,
            packet_kind: self.reduce_packet_kind,
        };
        self.post_coll(CollState::Reduce(state))
    }

    /// Post a segmented pipelined reduction: `k` segments of `seg_bytes`
    /// (the last may be shorter) on sequence numbers `base_seq..base_seq+k`,
    /// with at most [`EngineConfig::segments`] in flight at once. Public so
    /// the application-bypass fallback paths can reuse the pre-allocated
    /// sequence block.
    #[allow(clippy::too_many_arguments)] // mirrors ireduce + the segment plan
    pub fn ireduce_segmented_with_seqs(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
        base_seq: u64,
        k: usize,
        seg_bytes: usize,
    ) -> ReqId {
        debug_assert!(k >= 2 && seg_bytes >= 1);
        let sched = self.schedule(root, comm.size);
        let mut segs = Vec::with_capacity(k);
        for i in 0..k {
            let lo = i * seg_bytes;
            let hi = (lo + seg_bytes).min(data.len());
            segs.push(Some(ReduceState {
                context: comm.coll_context,
                root,
                size: comm.size,
                rank: self.rank,
                op,
                dtype,
                coll_seq: base_seq + i as u64,
                acc: data[lo..hi].to_vec(),
                sched: Arc::clone(&sched),
                next_child: 0,
                child_recv: None,
                send_req: None,
                packet_kind: self.reduce_packet_kind,
            }));
        }
        let state = SegReduceState {
            root,
            rank: self.rank,
            segs,
            started: 0,
            done: 0,
            window: self.config.segments.max(1),
            results: vec![None; k],
        };
        self.post_coll(CollState::SegReduce(state))
    }

    /// Post Träff's dual-root doubly-pipelined allreduce (PAPERS.md): the
    /// payload splits into two element-aligned halves reduced and
    /// broadcast over opposite-direction chains (half L toward rank 0,
    /// half H toward rank `size - 1`), each half segmented per
    /// [`Engine::segment_plan`] so segments of both halves interleave on
    /// every link. Falls back to the ordinary allreduce when the
    /// communicator or payload is too small to split.
    pub fn iallreduce_dual(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        let elem = dtype.size();
        let lo_len = data.len() / elem / 2 * elem;
        let hi_len = data.len() - lo_len;
        if comm.size < 2 || lo_len == 0 || hi_len == 0 {
            return self.iallreduce(comm, op, dtype, data);
        }
        let sched_l = shared_schedule(TopologyKind::Chain, 0, comm.size);
        let sched_h = shared_schedule(TopologyKind::ChainRev, comm.size - 1, comm.size);
        let (k_l, seg_l) = self.plan_segments(lo_len, elem, sched_l.max_depth());
        let (k_h, seg_h) = self.plan_segments(hi_len, elem, sched_h.max_depth());
        // Fixed allocation order [L reduce][L bcast][H reduce][H bcast]:
        // identical on every rank, so per-segment tags agree cluster-wide.
        let l_red = self.alloc_seq_range(comm.coll_context, k_l);
        let l_bc = self.alloc_seq_range(comm.coll_context, k_l);
        let h_red = self.alloc_seq_range(comm.coll_context, k_h);
        let h_bc = self.alloc_seq_range(comm.coll_context, k_h);
        let halves = [
            self.make_dual_half(
                comm, op, dtype, data, 0, lo_len, 0, sched_l, l_red, l_bc, seg_l,
            ),
            self.make_dual_half(
                comm,
                op,
                dtype,
                data,
                lo_len,
                hi_len,
                comm.size - 1,
                sched_h,
                h_red,
                h_bc,
                seg_h,
            ),
        ];
        let state = DualAllreduceState {
            context: comm.coll_context,
            size: comm.size,
            rank: self.rank,
            op,
            dtype,
            len: data.len(),
            halves,
            packet_kind: self.reduce_packet_kind,
        };
        self.post_coll(CollState::DualAllreduce(state))
    }

    /// Build one half of a dual-root allreduce: per-segment reduce states
    /// over `data[offset..offset + len]` stepping `sched`, none admitted to
    /// the pipeline yet.
    #[allow(clippy::too_many_arguments)] // one call site; plain plumbing
    fn make_dual_half(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
        offset: usize,
        len: usize,
        root: Rank,
        sched: Arc<TopoSchedule>,
        reduce_base_seq: u64,
        bcast_base_seq: u64,
        seg_bytes: usize,
    ) -> DualHalf {
        let k = len.div_ceil(seg_bytes);
        let mut segs = Vec::with_capacity(k);
        for i in 0..k {
            let lo = offset + i * seg_bytes;
            let hi = (lo + seg_bytes).min(offset + len);
            segs.push(DualSeg::Reduce(ReduceState {
                context: comm.coll_context,
                root,
                size: comm.size,
                rank: self.rank,
                op,
                dtype,
                coll_seq: reduce_base_seq + i as u64,
                acc: data[lo..hi].to_vec(),
                sched: Arc::clone(&sched),
                next_child: 0,
                child_recv: None,
                send_req: None,
                packet_kind: self.reduce_packet_kind,
            }));
        }
        DualHalf {
            offset,
            len,
            root,
            sched,
            reduce_base_seq,
            bcast_base_seq,
            seg_bytes,
            segs,
            started: 0,
            done: 0,
            window: self.config.segments.max(1),
            results: vec![None; k],
        }
    }

    /// Post a binomial broadcast. The root passes `Some(data)`; other ranks
    /// pass `None` and the expected length.
    pub fn ibcast(
        &mut self,
        comm: &Communicator,
        root: Rank,
        data: Option<Bytes>,
        len: usize,
    ) -> ReqId {
        let coll_seq = self.alloc_coll_seq(comm.coll_context);
        self.ibcast_with_seq(comm, root, data, len, coll_seq)
    }

    /// As [`Engine::ibcast`] with an externally allocated sequence number
    /// (the application-bypass broadcast allocates before choosing a path).
    pub fn ibcast_with_seq(
        &mut self,
        comm: &Communicator,
        root: Rank,
        data: Option<Bytes>,
        len: usize,
        coll_seq: u64,
    ) -> ReqId {
        comm.check_rank(root).expect("invalid root");
        debug_assert_eq!(
            self.rank == root,
            data.is_some(),
            "exactly the root supplies bcast data"
        );
        let state = self.make_bcast_state(comm, root, data, len, coll_seq);
        self.post_coll(CollState::Bcast(state))
    }

    /// As [`Engine::ibcast_with_seq`] against an explicit schedule (the
    /// application-bypass dual-root path broadcasts over chain schedules
    /// regardless of the configured topology).
    #[allow(clippy::too_many_arguments)] // mirrors ibcast_with_seq + sched
    pub fn ibcast_with_seq_sched(
        &mut self,
        comm: &Communicator,
        root: Rank,
        data: Option<Bytes>,
        len: usize,
        coll_seq: u64,
        sched: Arc<TopoSchedule>,
    ) -> ReqId {
        comm.check_rank(root).expect("invalid root");
        debug_assert_eq!(
            self.rank == root,
            data.is_some(),
            "exactly the root supplies bcast data"
        );
        let state = BcastState {
            context: comm.coll_context,
            root,
            size: comm.size,
            rank: self.rank,
            coll_seq,
            len,
            data,
            recv_req: None,
            sched,
            next_send: 0,
            send_reqs: Vec::new(),
        };
        self.post_coll(CollState::Bcast(state))
    }

    fn make_bcast_state(
        &mut self,
        comm: &Communicator,
        root: Rank,
        data: Option<Bytes>,
        len: usize,
        coll_seq: u64,
    ) -> BcastState {
        BcastState {
            context: comm.coll_context,
            root,
            size: comm.size,
            rank: self.rank,
            coll_seq,
            len,
            data,
            recv_req: None,
            sched: self.schedule(root, comm.size),
            next_send: 0,
            send_reqs: Vec::new(),
        }
    }

    /// Post a dissemination barrier.
    pub fn ibarrier(&mut self, comm: &Communicator) -> ReqId {
        let coll_seq = self.alloc_coll_seq(comm.coll_context);
        let state = BarrierState {
            context: comm.coll_context,
            size: comm.size,
            rank: self.rank,
            coll_seq,
            round: 0,
            recv_req: None,
        };
        self.post_coll(CollState::Barrier(state))
    }

    /// Post an allreduce (reduce to rank 0, then broadcast). Every rank's
    /// request completes with the reduced data.
    pub fn iallreduce(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        // Large messages on power-of-two communicators take the
        // Rabenseifner path; the segment split must land on element
        // boundaries.
        let elem = dtype.size();
        if comm.size.is_power_of_two()
            && comm.size >= 2
            && data.len() >= self.config.allreduce_rs_threshold
            && (data.len() / elem).is_multiple_of(comm.size as usize)
        {
            return self.iallreduce_rs(comm, op, dtype, data);
        }
        let reduce_seq = self.alloc_coll_seq(comm.coll_context);
        let _bcast_seq = self.alloc_coll_seq(comm.coll_context);
        let reduce = ReduceState {
            context: comm.coll_context,
            root: 0,
            size: comm.size,
            rank: self.rank,
            op,
            dtype,
            coll_seq: reduce_seq,
            acc: data.to_vec(),
            sched: self.schedule(0, comm.size),
            next_child: 0,
            child_recv: None,
            send_req: None,
            packet_kind: self.reduce_packet_kind,
        };
        let state = AllreduceState {
            phase: AllreducePhase::Reduce(reduce),
            op,
            dtype,
            len: data.len(),
        };
        self.post_coll(CollState::Allreduce(state))
    }

    /// Post a gather: every rank contributes `data` (equal length); the
    /// root's request completes with the rank-ordered concatenation.
    pub fn igather(&mut self, comm: &Communicator, root: Rank, data: &[u8]) -> ReqId {
        comm.check_rank(root).expect("invalid root");
        let coll_seq = self.alloc_coll_seq(comm.coll_context);
        let mut state = GatherState {
            context: comm.coll_context,
            root,
            size: comm.size,
            rank: self.rank,
            coll_seq,
            block: data.len(),
            chunks: Vec::new(),
            recvs: Vec::new(),
            send_req: None,
        };
        if self.rank == root {
            state.chunks = vec![None; comm.size as usize];
            state.chunks[self.rank as usize] = Some(Bytes::from(data.to_vec()));
            // Post the n-1 receives up front (MPICH's small-message linear
            // gather does the same with irecvs).
            for src in 0..comm.size {
                if src == root {
                    continue;
                }
                let req = self.irecv_internal(
                    Some(src),
                    TagSel::Is(coll_tag(coll_code::GATHER, coll_seq, 0)),
                    comm.coll_context,
                    data.len(),
                    Some(coll_seq),
                );
                state.recvs.push((req, src));
            }
        } else {
            let req = self.isend_with_kind(
                root,
                coll_tag(coll_code::GATHER, coll_seq, 0),
                comm.coll_context,
                Bytes::from(data.to_vec()),
                PacketKind::Eager,
                coll_seq,
                root,
            );
            state.send_req = Some(req);
        }
        self.post_coll(CollState::Gather(state))
    }

    /// Post a scatter: the root supplies `size * block` bytes; every rank's
    /// request completes with its own `block`-byte slice.
    pub fn iscatter(
        &mut self,
        comm: &Communicator,
        root: Rank,
        data: Option<&[u8]>,
        block: usize,
    ) -> ReqId {
        comm.check_rank(root).expect("invalid root");
        debug_assert_eq!(self.rank == root, data.is_some());
        let coll_seq = self.alloc_coll_seq(comm.coll_context);
        let mut state = ScatterState {
            context: comm.coll_context,
            root,
            rank: self.rank,
            coll_seq,
            recv_req: None,
            own: None,
            send_reqs: Vec::new(),
        };
        if self.rank == root {
            let data = data.expect("root supplies scatter data");
            assert_eq!(
                data.len(),
                block * comm.size as usize,
                "scatter buffer must be size*block bytes"
            );
            for dst in 0..comm.size {
                let chunk =
                    Bytes::from(data[dst as usize * block..(dst as usize + 1) * block].to_vec());
                if dst == root {
                    state.own = Some(chunk);
                } else {
                    let req = self.isend_with_kind(
                        dst,
                        coll_tag(coll_code::SCATTER, coll_seq, 0),
                        comm.coll_context,
                        chunk,
                        PacketKind::Eager,
                        coll_seq,
                        root,
                    );
                    state.send_reqs.push(req);
                }
            }
        } else {
            let req = self.irecv_internal(
                Some(root),
                TagSel::Is(coll_tag(coll_code::SCATTER, coll_seq, 0)),
                comm.coll_context,
                block,
                Some(coll_seq),
            );
            state.recv_req = Some(req);
        }
        self.post_coll(CollState::Scatter(state))
    }

    /// Post an allgather (gather to rank 0, then broadcast the assembled
    /// buffer). Every rank's request completes with all blocks in rank
    /// order.
    pub fn iallgather(&mut self, comm: &Communicator, data: &[u8]) -> ReqId {
        let gather_seq = self.alloc_coll_seq(comm.coll_context);
        let _bcast_seq = self.alloc_coll_seq(comm.coll_context);
        let mut gather = GatherState {
            context: comm.coll_context,
            root: 0,
            size: comm.size,
            rank: self.rank,
            coll_seq: gather_seq,
            block: data.len(),
            chunks: Vec::new(),
            recvs: Vec::new(),
            send_req: None,
        };
        if self.rank == 0 {
            gather.chunks = vec![None; comm.size as usize];
            gather.chunks[0] = Some(Bytes::from(data.to_vec()));
            for src in 1..comm.size {
                let req = self.irecv_internal(
                    Some(src),
                    TagSel::Is(coll_tag(coll_code::GATHER, gather_seq, 0)),
                    comm.coll_context,
                    data.len(),
                    Some(gather_seq),
                );
                gather.recvs.push((req, src));
            }
        } else {
            let req = self.isend_with_kind(
                0,
                coll_tag(coll_code::GATHER, gather_seq, 0),
                comm.coll_context,
                Bytes::from(data.to_vec()),
                PacketKind::Eager,
                gather_seq,
                0,
            );
            gather.send_req = Some(req);
        }
        let state = AllgatherState {
            phase: AllgatherPhase::Gather(gather),
            total_len: data.len() * comm.size as usize,
        };
        self.post_coll(CollState::Allgather(state))
    }

    /// Rabenseifner allreduce: recursive-halving reduce-scatter, then
    /// recursive-doubling allgather. Bandwidth ~2x better than
    /// reduce+broadcast for large payloads.
    fn iallreduce_rs(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        let coll_seq = self.alloc_coll_seq(comm.coll_context);
        let mut state = RsAllreduceState {
            context: comm.coll_context,
            size: comm.size,
            rank: self.rank,
            op,
            dtype,
            coll_seq,
            buf: data.to_vec(),
            phase: RsPhase::ReduceScatter {
                dist: comm.size / 2,
            },
            offset: 0,
            seglen: data.len(),
            send_req: None,
            recv_req: None,
        };
        self.rs_start_exchange(&mut state);
        self.post_coll(CollState::RsAllreduce(state))
    }

    /// Begin the exchange for the current RS/AG round: figure out which
    /// half goes to the partner, post the send and the receive.
    fn rs_start_exchange(&mut self, s: &mut RsAllreduceState) {
        match s.phase {
            RsPhase::ReduceScatter { dist } => {
                let partner = s.rank ^ dist;
                let half = s.seglen / 2;
                // Lower-rank keeps the lower half; the upper half belongs
                // to the partner (and vice versa).
                let (keep_off, send_off) = if s.rank < partner {
                    (s.offset, s.offset + half)
                } else {
                    (s.offset + half, s.offset)
                };
                let payload = Bytes::from(s.buf[send_off..send_off + half].to_vec());
                let send = self.isend_with_kind(
                    partner,
                    coll_tag(coll_code::RS, s.coll_seq, 0),
                    s.context,
                    payload,
                    PacketKind::Eager,
                    s.coll_seq,
                    0,
                );
                let recv = self.irecv_internal(
                    Some(partner),
                    TagSel::Is(coll_tag(coll_code::RS, s.coll_seq, 0)),
                    s.context,
                    half,
                    Some(s.coll_seq),
                );
                s.send_req = Some(send);
                s.recv_req = Some(recv);
                s.offset = keep_off;
                s.seglen = half;
            }
            RsPhase::Allgather { dist } => {
                let partner = s.rank ^ dist;
                let payload = Bytes::from(s.buf[s.offset..s.offset + s.seglen].to_vec());
                let send = self.isend_with_kind(
                    partner,
                    coll_tag(coll_code::RS, s.coll_seq, 0),
                    s.context,
                    payload,
                    PacketKind::Eager,
                    s.coll_seq,
                    0,
                );
                let recv = self.irecv_internal(
                    Some(partner),
                    TagSel::Is(coll_tag(coll_code::RS, s.coll_seq, 0)),
                    s.context,
                    s.seglen,
                    Some(s.coll_seq),
                );
                s.send_req = Some(send);
                s.recv_req = Some(recv);
            }
        }
    }

    fn step_rs_allreduce(&mut self, s: &mut RsAllreduceState) -> StepRes {
        let mut progressed = false;
        loop {
            // Wait out the outstanding exchange.
            if let Some(r) = s.send_req {
                match self.poll_sub(r) {
                    Some(Outcome::Done) => {
                        s.send_req = None;
                        progressed = true;
                    }
                    Some(Outcome::Failed(e)) => return StepRes::done(Outcome::Failed(e)),
                    Some(Outcome::Data(_)) | None => return StepRes::pending(progressed),
                }
            }
            let Some(r) = s.recv_req else {
                unreachable!("exchange always posts both sides");
            };
            let incoming = match self.poll_sub(r) {
                Some(Outcome::Data(d)) => d,
                Some(Outcome::Failed(e)) => return StepRes::done(Outcome::Failed(e)),
                Some(Outcome::Done) | None => return StepRes::pending(progressed),
            };
            s.recv_req = None;
            progressed = true;
            match s.phase {
                RsPhase::ReduceScatter { dist } => {
                    // Fold the partner's copy of my kept half into the buf.
                    let elems = s.dtype.count(s.seglen);
                    let op_cost = self.config.cost.reduce_op(elems);
                    self.charge(CpuCategory::Protocol, op_cost);
                    let dst = &mut s.buf[s.offset..s.offset + s.seglen];
                    if let Err(e) = s.op.apply(s.dtype, dst, &incoming) {
                        return StepRes::done(Outcome::Failed(e));
                    }
                    if dist > 1 {
                        s.phase = RsPhase::ReduceScatter { dist: dist / 2 };
                    } else {
                        s.phase = RsPhase::Allgather { dist: 1 };
                    }
                }
                RsPhase::Allgather { dist } => {
                    // The partner's segment is the sibling half: it sits at
                    // the mirrored offset; union doubles the segment.
                    let partner = s.rank ^ dist;
                    let partner_off = if s.rank < partner {
                        s.offset + s.seglen
                    } else {
                        s.offset - s.seglen
                    };
                    let copy = self.config.cost.copy(incoming.len());
                    self.charge(CpuCategory::Protocol, copy);
                    self.note_copy(incoming.len());
                    s.buf[partner_off..partner_off + s.seglen].copy_from_slice(&incoming);
                    s.offset = s.offset.min(partner_off);
                    s.seglen *= 2;
                    if dist * 2 < s.size {
                        s.phase = RsPhase::Allgather { dist: dist * 2 };
                    } else {
                        debug_assert_eq!(s.seglen, s.buf.len());
                        return StepRes::done(Outcome::Data(Bytes::from(std::mem::take(
                            &mut s.buf,
                        ))));
                    }
                }
            }
            self.rs_start_exchange(s);
        }
    }

    fn post_coll(&mut self, state: CollState) -> ReqId {
        let id = self.fresh_req();
        self.trace.emit(TraceEvent::PhaseEnter {
            phase: state.name(),
        });
        self.requests
            .insert(id.raw(), Request::new(RequestBody::Coll(Box::new(state))));
        self.active_colls.push(id);
        // Step immediately: leaves can often send right away, and a
        // single-rank collective completes synchronously.
        self.step_one_coll(id);
        id
    }

    // ------------------------------------------------------------------
    // Request inspection
    // ------------------------------------------------------------------

    /// True once `req` has completed. Unknown (already taken/freed) requests
    /// read as complete.
    pub fn test(&self, req: ReqId) -> bool {
        self.requests
            .get(&req.raw())
            .is_none_or(|r| r.is_complete())
    }

    /// Take the outcome of a completed request, freeing it. `None` while
    /// still pending.
    pub fn take_outcome(&mut self, req: ReqId) -> Option<Outcome> {
        let complete = self
            .requests
            .get(&req.raw())
            .is_some_and(|r| r.is_complete());
        if !complete {
            return None;
        }
        let r = self.requests.remove(&req.raw()).unwrap();
        self.active_colls.retain(|&c| c != req);
        r.outcome
    }

    /// Outstanding request count (leak detection in tests).
    pub fn live_requests(&self) -> usize {
        self.requests.len()
    }

    // ------------------------------------------------------------------
    // Packet processing (Fig. 4, white boxes)
    // ------------------------------------------------------------------

    fn process_packet(&mut self, pkt: Packet) {
        let src = pkt.header.src.0;
        // Idempotence under retransmission: when the reliability layer is
        // active (rel_seq != 0) a duplicate that slipped past it must not
        // reach matching, or a retransmitted contribution would be reduced
        // twice. Checked before the FIFO assert — a duplicate is a repeat,
        // not an ordering violation.
        if pkt.header.rel_seq != 0 {
            let last = self.last_rel_seq.entry(src).or_insert(0);
            if pkt.header.rel_seq <= *last {
                self.stats.duplicates_suppressed += 1;
                return;
            }
            *last = pkt.header.rel_seq;
        }
        self.stats.packets_processed += 1;
        self.trace.emit(TraceEvent::PacketRecv {
            src,
            kind: pkt.header.kind.label(),
            bytes: pkt.header.msg_len,
        });
        // GM delivers in order per (src, dst); assert it.
        #[cfg(debug_assertions)]
        if let Some(prev) = self.last_wire_seq.insert(src, pkt.header.wire_seq) {
            debug_assert!(
                pkt.header.wire_seq > prev,
                "transport violated FIFO from {src}: {} after {prev}",
                pkt.header.wire_seq
            );
        }
        match pkt.header.kind {
            PacketKind::Eager | PacketKind::Collective => self.process_eager_class(pkt),
            PacketKind::RendezvousRts => self.process_rts(pkt),
            PacketKind::RendezvousCts => self.process_cts(pkt),
            PacketKind::RendezvousData => self.process_rndv_data(pkt),
            PacketKind::Ack => {
                debug_assert!(false, "reliability acks must be consumed by the transport");
            }
        }
    }

    fn process_eager_class(&mut self, pkt: Packet) {
        self.charge(CpuCategory::Protocol, self.config.cost.matching());
        let key = MsgKey {
            src: pkt.header.src.0,
            tag: pkt.header.tag,
            context: pkt.header.context,
        };
        if let Some(p) = self.posted.take_match(&key) {
            debug_assert!(
                p.expect_coll_seq.is_none_or(|s| s == pkt.header.coll_seq),
                "collective instance mismatch on posted receive"
            );
            if pkt.payload.len() > p.capacity {
                self.fail_req(
                    p.id,
                    MprError::Truncation {
                        received: pkt.payload.len(),
                        capacity: p.capacity,
                    },
                );
            } else {
                // Expected message: one copy, packet buffer -> user buffer.
                let copy = self.config.cost.copy(pkt.payload.len());
                self.charge(CpuCategory::Protocol, copy);
                self.note_copy(pkt.payload.len());
                self.stats.posted_matched += 1;
                self.complete_recv(p.id, pkt.payload);
            }
        } else {
            // Unexpected: first copy, packet buffer -> temporary buffer.
            let copy = self.config.cost.copy(pkt.payload.len());
            self.charge(CpuCategory::Protocol, copy);
            self.note_copy(pkt.payload.len());
            self.stats.unexpected_enqueued += 1;
            self.unexpected.push(UnexpectedMsg {
                src: pkt.header.src.0,
                tag: pkt.header.tag,
                context: pkt.header.context,
                kind: pkt.header.kind,
                coll_seq: pkt.header.coll_seq,
                data: pkt.payload,
                msg_len: pkt.header.msg_len as usize,
            });
        }
    }

    fn process_rts(&mut self, pkt: Packet) {
        self.charge(CpuCategory::Protocol, self.config.cost.matching());
        let key = MsgKey {
            src: pkt.header.src.0,
            tag: pkt.header.tag,
            context: pkt.header.context,
        };
        let xfer_id = pkt.header.coll_seq;
        if let Some(p) = self.posted.take_match(&key) {
            self.stats.posted_matched += 1;
            if pkt.header.msg_len as usize > p.capacity {
                self.fail_req(
                    p.id,
                    MprError::Truncation {
                        received: pkt.header.msg_len as usize,
                        capacity: p.capacity,
                    },
                );
                return;
            }
            self.begin_rndv_recv(
                p.id,
                pkt.header.src.0,
                xfer_id,
                pkt.header.msg_len as usize,
                pkt.header.context,
            );
        } else {
            self.stats.unexpected_enqueued += 1;
            // An RTS parks header-only: no payload copy happens until DATA.
            self.unexpected.push(UnexpectedMsg {
                src: pkt.header.src.0,
                tag: pkt.header.tag,
                context: pkt.header.context,
                kind: PacketKind::RendezvousRts,
                coll_seq: xfer_id,
                data: Bytes::new(),
                msg_len: pkt.header.msg_len as usize,
            });
        }
    }

    /// Receiver side: pin the destination and answer with a CTS.
    fn begin_rndv_recv(
        &mut self,
        req: ReqId,
        src: Rank,
        xfer_id: u64,
        msg_len: usize,
        context: u32,
    ) {
        let pin = self.config.cost.pin(msg_len);
        self.charge(CpuCategory::Protocol, pin);
        self.charge(CpuCategory::Protocol, self.config.cost.rndv_control_host());
        let region = self
            .memory
            .register(msg_len)
            .expect("pinned-memory budget exceeded on receive");
        if let Some(Request {
            body: RequestBody::Recv(rs),
            ..
        }) = self.requests.get_mut(&req.raw())
        {
            rs.region = Some(region);
        }
        self.pending_rndv_recvs.insert(xfer_id, req);
        let header = PacketHeader {
            src: NodeId(self.rank),
            dst: NodeId(src),
            kind: PacketKind::RendezvousCts,
            context,
            tag: 0,
            coll_seq: xfer_id,
            coll_root: 0,
            msg_len: msg_len as u32,
            wire_seq: 0,
            rel_seq: 0,
        };
        self.actions
            .push(Action::Send(Packet::new(header, Bytes::new())));
    }

    fn process_cts(&mut self, pkt: Packet) {
        let xfer_id = pkt.header.coll_seq;
        let Some(req) = self.pending_rndv_sends.remove(&xfer_id) else {
            debug_assert!(false, "CTS for unknown transfer {xfer_id}");
            return;
        };
        let Some(Request {
            body: RequestBody::SendRndv(rs),
            ..
        }) = self.requests.get_mut(&req.raw())
        else {
            debug_assert!(false, "CTS target is not a rendezvous send");
            return;
        };
        // DMA straight from the pinned user buffer: no host copy.
        let data = std::mem::take(&mut rs.data);
        let header = PacketHeader {
            src: NodeId(self.rank),
            dst: NodeId(rs.dst),
            kind: PacketKind::RendezvousData,
            context: rs.context,
            tag: rs.tag,
            coll_seq: xfer_id,
            coll_root: 0,
            msg_len: data.len() as u32,
            wire_seq: 0,
            rel_seq: 0,
        };
        let region = rs.region;
        self.charge(CpuCategory::Protocol, self.config.cost.rndv_control_host());
        self.push_action(Action::Send(Packet::new(header, data)));
        let unpin = self.config.cost.unpin();
        self.charge(CpuCategory::Protocol, unpin);
        self.memory
            .deregister(region)
            .expect("send region vanished");
        if let Some(r) = self.requests.get_mut(&req.raw()) {
            r.outcome = Some(Outcome::Done);
        }
    }

    fn process_rndv_data(&mut self, pkt: Packet) {
        let xfer_id = pkt.header.coll_seq;
        let Some(req) = self.pending_rndv_recvs.remove(&xfer_id) else {
            debug_assert!(false, "DATA for unknown transfer {xfer_id}");
            return;
        };
        let region = match self.requests.get_mut(&req.raw()) {
            Some(Request {
                body: RequestBody::Recv(rs),
                ..
            }) => rs.region.take(),
            _ => None,
        };
        if let Some(region) = region {
            let unpin = self.config.cost.unpin();
            self.charge(CpuCategory::Protocol, unpin);
            self.memory
                .deregister(region)
                .expect("recv region vanished");
        }
        // DMA landed in the pinned user buffer: zero host copies.
        self.complete_recv(req, pkt.payload);
    }

    fn complete_recv(&mut self, req: ReqId, data: Bytes) {
        if let Some(r) = self.requests.get_mut(&req.raw()) {
            if let RequestBody::Recv(rs) = &mut r.body {
                rs.data = Some(data.clone());
            }
            r.outcome = Some(Outcome::Data(data));
        }
    }

    fn fail_req(&mut self, req: ReqId, err: MprError) {
        if let Some(r) = self.requests.get_mut(&req.raw()) {
            r.outcome = Some(Outcome::Failed(err));
        }
    }

    fn note_copy(&mut self, bytes: usize) {
        self.stats.copies += 1;
        self.stats.copy_bytes += bytes as u64;
    }

    fn fresh_req(&mut self) -> ReqId {
        let id = ReqId::from_raw(self.next_req);
        self.next_req += 1;
        id
    }

    fn fresh_xfer(&mut self) -> u64 {
        // Globally unique: high bits are the rank.
        let id = ((self.rank as u64) << 40) | self.next_xfer;
        self.next_xfer += 1;
        id
    }

    // ------------------------------------------------------------------
    // Collective stepping
    // ------------------------------------------------------------------

    /// Step every active collective once, in posting order. Stepping adds
    /// no collective and removes at most the one stepped (when it
    /// completes), so walking the list in place visits exactly the
    /// collectives active at entry.
    fn step_collectives(&mut self) -> bool {
        let mut progressed = false;
        let mut i = 0;
        while let Some(&id) = self.active_colls.get(i) {
            progressed |= self.step_one_coll(id);
            // A completed collective left the list and its successor moved
            // into slot `i`.
            if self.active_colls.get(i) == Some(&id) {
                i += 1;
            }
        }
        progressed
    }

    fn step_one_coll(&mut self, id: ReqId) -> bool {
        let Some(mut req) = self.requests.remove(&id.raw()) else {
            return false;
        };
        let mut progressed = false;
        if req.outcome.is_none() {
            if let RequestBody::Coll(state) = &mut req.body {
                let res = match &mut **state {
                    CollState::Reduce(s) => self.step_reduce(s),
                    CollState::Bcast(s) => self.step_bcast(s),
                    CollState::Barrier(s) => self.step_barrier(s),
                    CollState::Allreduce(s) => self.step_allreduce(s),
                    CollState::Gather(s) => self.step_gather(s),
                    CollState::Scatter(s) => self.step_scatter(s),
                    CollState::Allgather(s) => self.step_allgather(s),
                    CollState::RsAllreduce(s) => self.step_rs_allreduce(s),
                    CollState::SegReduce(s) => self.step_seg_reduce(s),
                    CollState::DualAllreduce(s) => self.step_dual_allreduce(s),
                };
                progressed = res.progressed;
                if let Some(outcome) = res.outcome {
                    req.outcome = Some(outcome);
                    self.stats.colls_completed += 1;
                    self.active_colls.retain(|&c| c != id);
                    if let RequestBody::Coll(state) = &req.body {
                        self.trace.emit(TraceEvent::PhaseExit {
                            phase: state.name(),
                        });
                    }
                }
            }
        }
        self.requests.insert(id.raw(), req);
        progressed
    }

    /// Poll a sub-request; if complete, free it and return the outcome.
    fn poll_sub(&mut self, req: ReqId) -> Option<Outcome> {
        let done = self
            .requests
            .get(&req.raw())
            .is_some_and(|r| r.is_complete());
        if !done {
            return None;
        }
        self.requests.remove(&req.raw()).unwrap().outcome
    }

    fn step_reduce(&mut self, s: &mut ReduceState) -> StepRes {
        let mut progressed = false;
        loop {
            // Drain the outstanding child receive, if any.
            if let Some(r) = s.child_recv {
                match self.poll_sub(r) {
                    Some(Outcome::Data(d)) => {
                        let op_cost = self.config.cost.reduce_op(s.dtype.count(s.acc.len()));
                        self.charge(CpuCategory::Protocol, op_cost);
                        if let Err(e) = s.op.apply(s.dtype, &mut s.acc, &d) {
                            return StepRes::done(Outcome::Failed(e));
                        }
                        s.child_recv = None;
                        s.next_child += 1;
                        progressed = true;
                        continue;
                    }
                    Some(Outcome::Failed(e)) => return StepRes::done(Outcome::Failed(e)),
                    Some(Outcome::Done) | None => return StepRes::pending(progressed),
                }
            }
            // Wait out the send to the parent.
            if let Some(r) = s.send_req {
                return match self.poll_sub(r) {
                    Some(Outcome::Done) => StepRes::done(Outcome::Done),
                    Some(Outcome::Failed(e)) => StepRes::done(Outcome::Failed(e)),
                    Some(Outcome::Data(_)) | None => StepRes::pending(progressed),
                };
            }
            // Advance the schedule: one blocking child receive at a time in
            // wait order (the MPICH mask loop when the schedule is
            // binomial), then the send to the parent.
            if let Some(&child) = s.sched.children_of(s.rank).get(s.next_child) {
                let req = self.irecv_internal(
                    Some(child),
                    TagSel::Is(coll_tag(coll_code::REDUCE, s.coll_seq, 0)),
                    s.context,
                    s.acc.len(),
                    Some(s.coll_seq),
                );
                s.child_recv = Some(req);
                progressed = true;
                continue;
            }
            if let Some(parent) = s.sched.parent_of(s.rank) {
                let req = self.isend_with_kind(
                    parent,
                    coll_tag(coll_code::REDUCE, s.coll_seq, 0),
                    s.context,
                    Bytes::from(s.acc.clone()),
                    s.packet_kind,
                    s.coll_seq,
                    s.root,
                );
                s.send_req = Some(req);
                progressed = true;
                continue;
            }
            // Root with all children folded in.
            return StepRes::done(Outcome::Data(Bytes::from(std::mem::take(&mut s.acc))));
        }
    }

    fn step_bcast(&mut self, s: &mut BcastState) -> StepRes {
        let mut progressed = false;
        if s.data.is_none() {
            if s.recv_req.is_none() {
                let parent = s
                    .sched
                    .parent_of(s.rank)
                    .expect("non-root bcast rank has a parent");
                let req = self.irecv_internal(
                    Some(parent),
                    TagSel::Is(coll_tag(coll_code::BCAST, s.coll_seq, 0)),
                    s.context,
                    s.len,
                    Some(s.coll_seq),
                );
                s.recv_req = Some(req);
                progressed = true;
            }
            let r = s.recv_req.unwrap();
            match self.poll_sub(r) {
                Some(Outcome::Data(d)) => {
                    s.data = Some(d);
                    s.recv_req = None;
                    progressed = true;
                }
                Some(Outcome::Failed(e)) => return StepRes::done(Outcome::Failed(e)),
                Some(Outcome::Done) | None => return StepRes::pending(progressed),
            }
        }
        // Have the data: issue sends to children in schedule order.
        let data = s.data.clone().expect("data present past receive phase");
        while let Some(&child) = s.sched.children_of(s.rank).get(s.next_send) {
            s.next_send += 1;
            let req = self.isend_with_kind(
                child,
                coll_tag(coll_code::BCAST, s.coll_seq, 0),
                s.context,
                data.clone(),
                PacketKind::Eager,
                s.coll_seq,
                s.root,
            );
            s.send_reqs.push(req);
            progressed = true;
        }
        // Collect completed sends (eager completes instantly; rendezvous
        // may straggle).
        let mut pending = Vec::new();
        for req in s.send_reqs.drain(..) {
            match self.poll_sub(req) {
                Some(Outcome::Done) => progressed = true,
                Some(Outcome::Failed(e)) => return StepRes::done(Outcome::Failed(e)),
                Some(Outcome::Data(_)) => unreachable!("send completed with data"),
                None => pending.push(req),
            }
        }
        s.send_reqs = pending;
        if s.send_reqs.is_empty() {
            StepRes::done(Outcome::Data(data))
        } else {
            StepRes::pending(progressed)
        }
    }

    fn step_barrier(&mut self, s: &mut BarrierState) -> StepRes {
        let rounds = barrier_rounds(s.size);
        let mut progressed = false;
        loop {
            if s.round >= rounds {
                return StepRes::done(Outcome::Done);
            }
            if s.recv_req.is_none() {
                let dist = 1u32 << s.round;
                let to = (s.rank + dist) % s.size;
                let tag = coll_tag(coll_code::BARRIER, s.coll_seq, s.round as u8);
                let send = self.isend_with_kind(
                    to,
                    tag,
                    s.context,
                    Bytes::new(),
                    PacketKind::Eager,
                    s.coll_seq,
                    0,
                );
                // Zero-byte eager sends complete at post.
                let done = self.poll_sub(send);
                debug_assert!(matches!(done, Some(Outcome::Done)));
                let from = (s.rank + s.size - dist) % s.size;
                let req = self.irecv_internal(
                    Some(from),
                    TagSel::Is(tag),
                    s.context,
                    0,
                    Some(s.coll_seq),
                );
                s.recv_req = Some(req);
                progressed = true;
            }
            let r = s.recv_req.unwrap();
            match self.poll_sub(r) {
                Some(Outcome::Data(_)) => {
                    s.recv_req = None;
                    s.round += 1;
                    progressed = true;
                }
                Some(Outcome::Failed(e)) => return StepRes::done(Outcome::Failed(e)),
                Some(Outcome::Done) | None => return StepRes::pending(progressed),
            }
        }
    }

    fn step_gather(&mut self, s: &mut GatherState) -> StepRes {
        let mut progressed = false;
        if s.rank != s.root {
            if let Some(r) = s.send_req {
                return match self.poll_sub(r) {
                    Some(Outcome::Done) => StepRes::done(Outcome::Done),
                    Some(Outcome::Failed(e)) => StepRes::done(Outcome::Failed(e)),
                    Some(Outcome::Data(_)) | None => StepRes::pending(false),
                };
            }
            return StepRes::done(Outcome::Done);
        }
        // Root: collect outstanding receives.
        let mut pending = Vec::new();
        for (req, src) in s.recvs.drain(..) {
            match self.poll_sub(req) {
                Some(Outcome::Data(d)) => {
                    let copy = self.config.cost.copy(d.len());
                    self.charge(CpuCategory::Protocol, copy);
                    self.note_copy(d.len());
                    s.chunks[src as usize] = Some(d);
                    progressed = true;
                }
                Some(Outcome::Failed(e)) => return StepRes::done(Outcome::Failed(e)),
                Some(Outcome::Done) | None => pending.push((req, src)),
            }
        }
        s.recvs = pending;
        if s.recvs.is_empty() {
            let mut out = Vec::with_capacity(s.block * s.size as usize);
            for c in s.chunks.iter_mut() {
                out.extend_from_slice(&c.take().expect("every block present"));
            }
            return StepRes::done(Outcome::Data(Bytes::from(out)));
        }
        StepRes::pending(progressed)
    }

    fn step_scatter(&mut self, s: &mut ScatterState) -> StepRes {
        if s.rank == s.root {
            let mut pending = Vec::new();
            let mut progressed = false;
            for req in s.send_reqs.drain(..) {
                match self.poll_sub(req) {
                    Some(Outcome::Done) => progressed = true,
                    Some(Outcome::Failed(e)) => return StepRes::done(Outcome::Failed(e)),
                    Some(Outcome::Data(_)) | None => pending.push(req),
                }
            }
            s.send_reqs = pending;
            if s.send_reqs.is_empty() {
                let own = s.own.take().expect("root keeps its own block");
                return StepRes::done(Outcome::Data(own));
            }
            return StepRes::pending(progressed);
        }
        let r = s.recv_req.expect("non-root posted a receive");
        match self.poll_sub(r) {
            Some(Outcome::Data(d)) => StepRes::done(Outcome::Data(d)),
            Some(Outcome::Failed(e)) => StepRes::done(Outcome::Failed(e)),
            Some(Outcome::Done) | None => StepRes::pending(false),
        }
    }

    fn step_allgather(&mut self, s: &mut AllgatherState) -> StepRes {
        loop {
            match &mut s.phase {
                AllgatherPhase::Gather(g) => {
                    let res = self.step_gather(g);
                    match res.outcome {
                        Some(Outcome::Data(d)) => {
                            let comm_like = Communicator {
                                pt2pt_context: 0,
                                coll_context: g.context,
                                size: g.size,
                            };
                            let bcast_seq = g.coll_seq + 1; // pre-allocated
                            let state = self.make_bcast_state(
                                &comm_like,
                                0,
                                Some(d),
                                s.total_len,
                                bcast_seq,
                            );
                            s.phase = AllgatherPhase::Bcast(state);
                            continue;
                        }
                        Some(Outcome::Done) => {
                            let comm_like = Communicator {
                                pt2pt_context: 0,
                                coll_context: g.context,
                                size: g.size,
                            };
                            let bcast_seq = g.coll_seq + 1;
                            let state =
                                self.make_bcast_state(&comm_like, 0, None, s.total_len, bcast_seq);
                            s.phase = AllgatherPhase::Bcast(state);
                            continue;
                        }
                        Some(Outcome::Failed(e)) => return StepRes::done(Outcome::Failed(e)),
                        None => return StepRes::pending(res.progressed),
                    }
                }
                AllgatherPhase::Bcast(b) => return self.step_bcast(b),
            }
        }
    }

    fn step_seg_reduce(&mut self, s: &mut SegReduceState) -> StepRes {
        let k = s.segs.len();
        let mut progressed = false;
        loop {
            // Admit segments while the window has room: active (started and
            // not yet done) segments may not exceed the window.
            while s.started - s.done < s.window && s.started < k {
                self.trace.emit(TraceEvent::SegPhaseEnter {
                    phase: "seg-reduce",
                    seg: s.started as u32,
                });
                s.started += 1;
                progressed = true;
            }
            let mut advanced = false;
            for i in 0..s.started {
                let Some(seg) = &mut s.segs[i] else { continue };
                let res = self.step_reduce(seg);
                progressed |= res.progressed;
                match res.outcome {
                    Some(Outcome::Data(d)) => {
                        s.results[i] = Some(d);
                    }
                    Some(Outcome::Done) => {}
                    Some(Outcome::Failed(e)) => return StepRes::done(Outcome::Failed(e)),
                    None => continue,
                }
                s.segs[i] = None;
                s.done += 1;
                self.trace.emit(TraceEvent::SegPhaseExit {
                    phase: "seg-reduce",
                    seg: i as u32,
                });
                advanced = true;
            }
            if s.done == k {
                if s.rank == s.root {
                    let total = s.results.iter().map(|r| r.as_ref().unwrap().len()).sum();
                    let mut out = Vec::with_capacity(total);
                    for r in s.results.iter_mut() {
                        out.extend_from_slice(&r.take().expect("root segment has data"));
                    }
                    return StepRes::done(Outcome::Data(Bytes::from(out)));
                }
                return StepRes::done(Outcome::Done);
            }
            // A completion may have opened window room; loop until quiescent.
            if !advanced {
                return StepRes::pending(progressed);
            }
        }
    }

    fn step_dual_allreduce(&mut self, s: &mut DualAllreduceState) -> StepRes {
        let mut progressed = false;
        loop {
            let mut advanced = false;
            for half in s.halves.iter_mut() {
                let k = half.segs.len();
                while half.started - half.done < half.window && half.started < k {
                    self.trace.emit(TraceEvent::SegPhaseEnter {
                        phase: "dual-allreduce",
                        seg: half.started as u32,
                    });
                    half.started += 1;
                    progressed = true;
                }
                for i in 0..half.started {
                    // Step whichever phase segment i is in; the borrow of
                    // the segment ends before the slot is overwritten.
                    let step = match &mut half.segs[i] {
                        DualSeg::Reduce(r) => Some((true, self.step_reduce(r))),
                        DualSeg::Bcast(b) => Some((false, self.step_bcast(b))),
                        DualSeg::Done => None,
                    };
                    let Some((reducing, res)) = step else {
                        continue;
                    };
                    progressed |= res.progressed;
                    match (reducing, res.outcome) {
                        (_, Some(Outcome::Failed(e))) => return StepRes::done(Outcome::Failed(e)),
                        (_, None) => {}
                        // Reduce finished: chain into the segment's
                        // broadcast down the same schedule. The half root
                        // completes with the data and seeds the broadcast;
                        // everyone else awaits it from their parent.
                        (true, Some(outcome)) => {
                            let data = match outcome {
                                Outcome::Data(d) => Some(d),
                                _ => None,
                            };
                            let seg_len = match &data {
                                Some(d) => d.len(),
                                None => half.seg_bytes.min(half.len - i * half.seg_bytes),
                            };
                            half.segs[i] = DualSeg::Bcast(BcastState {
                                context: s.context,
                                root: half.root,
                                size: s.size,
                                rank: s.rank,
                                coll_seq: half.bcast_base_seq + i as u64,
                                len: seg_len,
                                data,
                                recv_req: None,
                                sched: Arc::clone(&half.sched),
                                next_send: 0,
                                send_reqs: Vec::new(),
                            });
                            advanced = true;
                        }
                        (false, Some(Outcome::Data(d))) => {
                            half.results[i] = Some(d);
                            half.segs[i] = DualSeg::Done;
                            half.done += 1;
                            self.trace.emit(TraceEvent::SegPhaseExit {
                                phase: "dual-allreduce",
                                seg: i as u32,
                            });
                            advanced = true;
                        }
                        (false, Some(Outcome::Done)) => {
                            unreachable!("bcast completes with data")
                        }
                    }
                }
            }
            if s.halves.iter().all(|h| h.done == h.segs.len()) {
                // Assemble both halves in payload order; every rank gets
                // the full reduced buffer (allreduce semantics).
                let mut out = Vec::with_capacity(s.len);
                for half in s.halves.iter_mut() {
                    for r in half.results.iter_mut() {
                        out.extend_from_slice(&r.take().expect("segment broadcast everywhere"));
                    }
                }
                debug_assert_eq!(out.len(), s.len);
                return StepRes::done(Outcome::Data(Bytes::from(out)));
            }
            if !advanced {
                return StepRes::pending(progressed);
            }
        }
    }

    fn step_allreduce(&mut self, s: &mut AllreduceState) -> StepRes {
        loop {
            match &mut s.phase {
                AllreducePhase::Reduce(r) => {
                    let res = self.step_reduce(r);
                    match res.outcome {
                        Some(Outcome::Data(d)) => {
                            // Rank 0 finished the reduce and owns the result.
                            let comm_like = Communicator {
                                pt2pt_context: 0,
                                coll_context: r.context,
                                size: r.size,
                            };
                            let bcast_seq = r.coll_seq + 1; // pre-allocated in iallreduce
                            let state =
                                self.make_bcast_state(&comm_like, 0, Some(d), s.len, bcast_seq);
                            s.phase = AllreducePhase::Bcast(state);
                            continue;
                        }
                        Some(Outcome::Done) => {
                            // Non-root finished its part of the reduce.
                            let comm_like = Communicator {
                                pt2pt_context: 0,
                                coll_context: r.context,
                                size: r.size,
                            };
                            let bcast_seq = r.coll_seq + 1;
                            let state =
                                self.make_bcast_state(&comm_like, 0, None, s.len, bcast_seq);
                            s.phase = AllreducePhase::Bcast(state);
                            continue;
                        }
                        Some(Outcome::Failed(e)) => return StepRes::done(Outcome::Failed(e)),
                        None => return StepRes::pending(res.progressed),
                    }
                }
                AllreducePhase::Bcast(b) => return self.step_bcast(b),
            }
        }
    }
}

/// The uniform surface drivers and benchmarks program against; implemented
/// by [`Engine`] (baseline) and by `abr_core::AbEngine` (application
/// bypass).
pub trait MessageEngine {
    /// This rank.
    fn rank(&self) -> Rank;
    /// Communicator size.
    fn size(&self) -> u32;
    /// The world communicator.
    fn world(&self) -> Communicator;
    /// Deposit an arriving packet (no CPU charge).
    fn deliver(&mut self, pkt: Packet);
    /// Install a trace handle; engine-level events (packet sends and
    /// receives, collective phase transitions, match outcomes) flow
    /// through it. The default is a no-op so minimal engines need not
    /// care.
    fn set_tracer(&mut self, _trace: TraceHandle) {}
    /// One progress-engine pass (charges poll cost).
    fn progress(&mut self) -> bool;
    /// The NIC raised a signal: run asynchronous processing. The baseline
    /// engine just makes progress (it never enables signals).
    fn handle_signal(&mut self) -> bool;
    /// Drain pending actions.
    fn drain_actions(&mut self) -> Vec<Action>;
    /// Drain pending actions into `out`, preserving order. Implementations
    /// should forward to an allocation-free append; the default falls back
    /// to [`MessageEngine::drain_actions`].
    fn drain_actions_into(&mut self, out: &mut Vec<Action>) {
        out.append(&mut self.drain_actions());
    }
    /// Drain accumulated CPU charges.
    fn take_charges(&mut self) -> Charges;
    /// Has the request completed?
    fn test(&self, req: ReqId) -> bool;
    /// Take a completed request's outcome.
    fn take_outcome(&mut self, req: ReqId) -> Option<Outcome>;
    /// Non-blocking send.
    fn isend(&mut self, comm: &Communicator, dst: Rank, tag: i32, data: Bytes) -> ReqId;
    /// Non-blocking receive.
    fn irecv(&mut self, comm: &Communicator, src: Option<Rank>, tag: TagSel, cap: usize) -> ReqId;
    /// Reduction to `root`.
    fn ireduce(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId;
    /// Broadcast from `root`.
    fn ibcast(&mut self, comm: &Communicator, root: Rank, data: Option<Bytes>, len: usize)
        -> ReqId;
    /// Barrier.
    fn ibarrier(&mut self, comm: &Communicator) -> ReqId;
    /// Allreduce.
    fn iallreduce(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId;
    /// Dual-root doubly-pipelined allreduce (Träff, PAPERS.md). The
    /// default is the ordinary allreduce so minimal engines stay correct;
    /// [`Engine`] and the application-bypass wrapper run the real
    /// two-chain pipeline.
    fn iallreduce_dual(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        self.iallreduce(comm, op, dtype, data)
    }
    /// Split-phase reduction (the paper's §II/§VII extension). The default
    /// is the ordinary reduction, so baselines remain comparable: callers
    /// that `WaitSplit` immediately observe blocking semantics either way.
    fn ireduce_split(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        self.ireduce(comm, root, op, dtype, data)
    }
    /// Split-phase dual-root allreduce. The default is the blocking-style
    /// dual-root algorithm (itself defaulting to the plain allreduce), so
    /// baseline engines remain comparable under `WaitSplit`.
    fn iallreduce_dual_split(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        self.iallreduce_dual(comm, op, dtype, data)
    }
    /// True if unprocessed packets could produce asynchronous work when
    /// signals are enabled (used by drivers to synthesize the "enable
    /// signals with work already queued" edge).
    fn has_pending_signal_work(&self) -> bool;
    /// True when an *unbounded* blocking wait on this engine parks the
    /// host CPU instead of busy-polling: signal-driven progress completes
    /// the operation and wakes the caller, so the core is free for
    /// co-located work in the meantime. The baseline returns `false` —
    /// its only progress path is the caller's poll loop, so a blocked
    /// rank must spin. Multi-tenant drivers use this to decide whether a
    /// blocked rank burns a CPU its node neighbours need.
    fn sleeps_when_blocked(&self) -> bool {
        false
    }
    /// Implementation-defined counters for reports.
    fn counters(&self) -> Vec<(&'static str, u64)>;
    /// Blocking-call semantics for `req`: `None` means the caller must poll
    /// until completion (ordinary MPI blocking semantics); `Some(d)` means
    /// poll for at most `d` more and then call
    /// [`MessageEngine::split_phase_exit`] — the §IV-E bounded exit delay of
    /// an application-bypass reduction.
    fn bounded_block_hint(&self, req: ReqId) -> Option<abr_des::SimDuration> {
        let _ = req;
        None
    }
    /// The bounded block expired: let the blocking call return, delegating
    /// the rest of the operation to asynchronous processing.
    fn split_phase_exit(&mut self, req: ReqId) {
        let _ = req;
    }
    /// Split-phase broadcast (the ref. \[8\] companion extension). The
    /// default is the ordinary blocking broadcast.
    fn ibcast_split(
        &mut self,
        comm: &Communicator,
        root: Rank,
        data: Option<Bytes>,
        len: usize,
    ) -> ReqId {
        self.ibcast(comm, root, data, len)
    }
    /// NIC-side pre-processing at packet arrival (the §VII NIC-based
    /// reduction extension). Called by the driver *in NIC context* before
    /// host delivery; return `Some(pkt)` to deliver to the host as usual or
    /// `None` if the NIC consumed the packet. Costs charged during this
    /// call under [`CpuCategory::NicOffload`] occupy the NIC processor, not
    /// the host. The default NIC does no reduction processing.
    fn nic_preprocess(&mut self, pkt: Packet) -> Option<Packet> {
        Some(pkt)
    }
}

impl MessageEngine for Engine {
    fn rank(&self) -> Rank {
        Engine::rank(self)
    }
    fn size(&self) -> u32 {
        Engine::size(self)
    }
    fn world(&self) -> Communicator {
        Engine::world(self)
    }
    fn deliver(&mut self, pkt: Packet) {
        Engine::deliver(self, pkt)
    }
    fn set_tracer(&mut self, trace: TraceHandle) {
        Engine::set_tracer(self, trace)
    }
    fn progress(&mut self) -> bool {
        Engine::progress(self)
    }
    fn handle_signal(&mut self) -> bool {
        // The baseline never enables signals; treat a stray signal as a
        // progress opportunity.
        Engine::progress(self)
    }
    fn drain_actions(&mut self) -> Vec<Action> {
        Engine::drain_actions(self)
    }
    fn drain_actions_into(&mut self, out: &mut Vec<Action>) {
        Engine::drain_actions_into(self, out)
    }
    fn take_charges(&mut self) -> Charges {
        Engine::take_charges(self)
    }
    fn test(&self, req: ReqId) -> bool {
        Engine::test(self, req)
    }
    fn take_outcome(&mut self, req: ReqId) -> Option<Outcome> {
        Engine::take_outcome(self, req)
    }
    fn isend(&mut self, comm: &Communicator, dst: Rank, tag: i32, data: Bytes) -> ReqId {
        Engine::isend(self, comm, dst, tag, data)
    }
    fn irecv(&mut self, comm: &Communicator, src: Option<Rank>, tag: TagSel, cap: usize) -> ReqId {
        Engine::irecv(self, comm, src, tag, cap)
    }
    fn ireduce(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        Engine::ireduce(self, comm, root, op, dtype, data)
    }
    fn ibcast(
        &mut self,
        comm: &Communicator,
        root: Rank,
        data: Option<Bytes>,
        len: usize,
    ) -> ReqId {
        Engine::ibcast(self, comm, root, data, len)
    }
    fn ibarrier(&mut self, comm: &Communicator) -> ReqId {
        Engine::ibarrier(self, comm)
    }
    fn iallreduce(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        Engine::iallreduce(self, comm, op, dtype, data)
    }
    fn iallreduce_dual(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        Engine::iallreduce_dual(self, comm, op, dtype, data)
    }
    fn has_pending_signal_work(&self) -> bool {
        false
    }
    fn counters(&self) -> Vec<(&'static str, u64)> {
        let s = self.stats();
        vec![
            ("eager_sent", s.eager_sent),
            ("rndv_sent", s.rndv_sent),
            ("packets_processed", s.packets_processed),
            ("posted_matched", s.posted_matched),
            ("unexpected_enqueued", s.unexpected_enqueued),
            ("unexpected_matched", s.unexpected_matched),
            ("copies", s.copies),
            ("copy_bytes", s.copy_bytes),
            ("polls", s.polls),
            ("colls_completed", s.colls_completed),
            ("duplicates_suppressed", s.duplicates_suppressed),
        ]
    }
}
