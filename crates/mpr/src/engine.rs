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
    barrier_rounds, AllgatherPhase, AllgatherState, BarrierState, BcastState, CollState,
    GatherState, Lane, PipeCall, ReduceState, RsAllreduceState, RsPhase, SegMachine, SegPipeline,
    SegRunner, StepRes,
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
    /// Requests entered into the request map: user requests (the bypass
    /// layer's shells among them), collectives, collective-internal
    /// receives and rendezvous sends. An eager collective-internal send
    /// completes at post and never enters it.
    pub requests: u64,
    /// Most requests the map held at once.
    pub requests_high_water: u64,
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

    /// The one wire send: a packet from this rank, handed to the NIC and
    /// traced. `msg_len` is the length the header announces, which a
    /// rendezvous control packet (RTS, CTS) carries without a payload.
    #[allow(clippy::too_many_arguments)] // the wire-header fields
    pub fn send_packet(
        &mut self,
        dst: Rank,
        kind: PacketKind,
        context: u32,
        tag: i32,
        coll_seq: u64,
        coll_root: Rank,
        msg_len: usize,
        payload: Bytes,
    ) {
        let header = PacketHeader {
            src: NodeId(self.rank),
            dst: NodeId(dst),
            kind,
            context,
            tag,
            coll_seq,
            coll_root,
            msg_len: msg_len as u32,
            wire_seq: 0,
            rel_seq: 0,
        };
        self.push_action(Action::Send(Packet::new(header, payload)));
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
        self.new_req(Request::new(RequestBody::Bare))
    }

    /// Complete a shell request with `outcome`.
    pub fn complete_shell(&mut self, req: ReqId, outcome: Outcome) {
        self.complete(req, outcome);
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
        let msg = self.take_parked(src, tag, context)?;
        self.host_copy(msg.msg_len);
        Some(msg)
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Non-blocking send on a communicator (eager or rendezvous by size).
    /// An eager send's request is complete at post.
    pub fn isend(&mut self, comm: &Communicator, dst: Rank, tag: i32, data: Bytes) -> ReqId {
        let ctx = comm.pt2pt_context;
        self.isend_internal(dst, tag, ctx, data, PacketKind::Eager, 0, 0)
            .unwrap_or_else(|| self.completed_req(Outcome::Done))
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

    /// Send with full header control: the one send path, for collectives
    /// and [`Engine::isend`] alike. `kind` selects eager-class
    /// (`Eager`/`Collective`) transmission for small payloads; payloads over
    /// the eager limit always go rendezvous regardless of `kind`.
    ///
    /// An eager send completes at post, so it returns `None` and enters no
    /// request. A rendezvous send returns its request, which completes when
    /// the CTS arrives, or at once with [`MprError::OutOfPinnedMemory`] when
    /// the payload cannot be pinned.
    #[allow(clippy::too_many_arguments)] // mirrors the wire-header fields
    #[must_use = "a rendezvous send's request must be reaped"]
    pub fn isend_internal(
        &mut self,
        dst: Rank,
        tag: i32,
        context: u32,
        data: Bytes,
        kind: PacketKind,
        coll_seq: u64,
        coll_root: Rank,
    ) -> Option<ReqId> {
        debug_assert!(
            dst < self.size,
            "send to rank {dst} outside 0..{}",
            self.size
        );
        if data.len() <= self.config.eager_limit {
            // Eager: copy into the pre-pinned bounce buffer, hand to NIC,
            // locally complete immediately.
            self.charge(CpuCategory::Protocol, self.config.cost.eager_send_host());
            let len = data.len();
            self.host_copy(len);
            self.send_packet(dst, kind, context, tag, coll_seq, coll_root, len, data);
            self.stats.eager_sent += 1;
            return None;
        }
        // Rendezvous: pin in place, announce with an RTS, wait for CTS.
        let region = match self.memory.register(data.len()) {
            Ok(region) => region,
            Err(_) => {
                // Registration fails only under a budget.
                let err = MprError::OutOfPinnedMemory {
                    requested: data.len(),
                    pinned: self.memory.pinned_bytes(),
                    budget: self.config.memory_budget.unwrap_or_default(),
                };
                return Some(self.completed_req(Outcome::Failed(err)));
            }
        };
        let pin = self.config.cost.pin(data.len());
        self.charge(CpuCategory::Protocol, pin);
        self.charge(CpuCategory::Protocol, self.config.cost.rndv_control_host());
        let xfer_id = self.fresh_xfer();
        let (rts, len) = (PacketKind::RendezvousRts, data.len());
        self.send_packet(dst, rts, context, tag, xfer_id, 0, len, Bytes::new());
        self.stats.rndv_sent += 1;
        let id = self.new_req(Request::new(RequestBody::SendRndv(RndvSend {
            dst,
            data,
            region,
            tag,
            context,
        })));
        self.pending_rndv_sends.insert(xfer_id, id);
        Some(id)
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
        let id = self.new_req(Request::new(RequestBody::Recv(RecvState::default())));
        let recv = PostedRecv {
            id,
            src,
            tag,
            context,
            capacity,
            expect_coll_seq,
        };
        // MPI_Recv semantics: search the unexpected queue first (§III).
        self.charge(CpuCategory::Protocol, self.config.cost.matching());
        match self.take_parked(src, tag, context) {
            Some(msg) => self.land(&recv, msg),
            None => self.posted.post(recv),
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

    /// Reject a collective posted with a root outside `comm` or with an
    /// operator undefined for its element type, before it allocates a
    /// sequence number: every rank fails alike, so no rank waits on a peer
    /// that never sends and later collectives keep their sequence numbers.
    /// `Some` is a request already completed with the error.
    pub fn reject(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: Option<(ReduceOp, Datatype)>,
    ) -> Option<ReqId> {
        let err = match (comm.check_rank(root), op) {
            (Err(e), _) => e,
            (Ok(()), Some((op, dtype))) if !op.defined_for(dtype) => MprError::InvalidOpForType {
                op: op.name(),
                dtype,
            },
            (Ok(()), _) => return None,
        };
        Some(self.completed_req(Outcome::Failed(err)))
    }

    /// What every segment of a pipeline over `comm` shares.
    pub fn pipe_call(&self, comm: &Communicator, op: ReduceOp, dtype: Datatype) -> PipeCall {
        PipeCall {
            comm: *comm,
            op,
            dtype,
            packet_kind: self.reduce_packet_kind,
        }
    }

    /// The one-segment lane of a reduce-to-0-then-broadcast allreduce of
    /// `len` bytes, on two freshly allocated sequence numbers.
    pub fn allreduce_lane(&mut self, comm: &Communicator, len: usize) -> Lane {
        let seq = self.alloc_seq_range(comm.coll_context, 2);
        Lane {
            offset: 0,
            len,
            root: 0,
            sched: self.schedule(0, comm.size),
            reduce_seq: seq,
            bcast_seq: Some(seq + 1),
            seg_bytes: len,
            segments: 1,
            window: 1,
            marks: None,
        }
    }

    /// The lane of a segmented reduction of `len` bytes toward `root`: `k`
    /// segments of `seg_bytes` on sequence numbers `base_seq..base_seq + k`,
    /// at most [`EngineConfig::segments`] in flight.
    #[allow(clippy::too_many_arguments)] // the segment plan plus its marker label
    pub fn reduce_lane(
        &mut self,
        comm: &Communicator,
        root: Rank,
        len: usize,
        base_seq: u64,
        k: usize,
        seg_bytes: usize,
        marks: &'static str,
    ) -> Lane {
        Lane {
            offset: 0,
            len,
            root,
            sched: self.schedule(root, comm.size),
            reduce_seq: base_seq,
            bcast_seq: None,
            seg_bytes,
            segments: k,
            window: self.config.segments.max(1),
            marks: Some(marks),
        }
    }

    /// The two lanes of Träff's dual-root doubly-pipelined allreduce
    /// (PAPERS.md): the payload splits into element-aligned halves reduced
    /// and broadcast over opposite-direction chains (half L toward rank 0,
    /// half H toward rank `size - 1`), each segmented per
    /// [`Engine::plan_segments`], so segments of both halves interleave on
    /// every link. `None`, allocating nothing, when the communicator or the
    /// payload is too small to split.
    pub fn dual_lanes(
        &mut self,
        comm: &Communicator,
        len: usize,
        elem: usize,
        marks: [&'static str; 2],
    ) -> Option<[Lane; 2]> {
        let lo_len = len / elem / 2 * elem;
        if comm.size < 2 || lo_len == 0 {
            return None;
        }
        // Each half allocates its reduce block, then its broadcast block, L
        // before H: the same order on every rank, so per-segment tags agree
        // cluster-wide.
        let n = comm.size;
        let mut half = |offset, len, root, kind, marks| {
            let sched = shared_schedule(kind, root, n);
            let (k, seg_bytes) = self.plan_segments(len, elem, sched.max_depth());
            let reduce_seq = self.alloc_seq_range(comm.coll_context, k);
            let bcast_seq = Some(self.alloc_seq_range(comm.coll_context, k));
            let window = self.config.segments.max(1);
            Lane {
                offset,
                len,
                root,
                sched,
                reduce_seq,
                bcast_seq,
                seg_bytes,
                segments: k,
                window,
                marks: Some(marks),
            }
        };
        Some([
            half(0, lo_len, 0, TopologyKind::Chain, marks[0]),
            half(
                lo_len,
                len - lo_len,
                n - 1,
                TopologyKind::ChainRev,
                marks[1],
            ),
        ])
    }

    /// Post a [`SegPipeline`] over `lanes` as one collective.
    fn post_pipeline<const N: usize>(
        &mut self,
        name: &'static str,
        call: PipeCall,
        data: &[u8],
        lanes: [Lane; N],
    ) -> ReqId {
        let pipe = SegPipeline::new(call, data, lanes);
        self.post_coll(CollState::Pipeline { name, pipe })
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
        if let Some(failed) = self.reject(comm, root, Some((op, dtype))) {
            return failed;
        }
        let (k, seg_bytes) = self.segment_plan(root, comm.size, data.len(), dtype.size());
        if k <= 1 {
            let coll_seq = self.alloc_coll_seq(comm.coll_context);
            let sched = self.schedule(root, comm.size);
            return self.ireduce_with_seq(comm, root, op, dtype, data, coll_seq, sched);
        }
        let base_seq = self.alloc_seq_range(comm.coll_context, k);
        self.ireduce_segmented_with_seqs(comm, root, op, dtype, data, base_seq, k, seg_bytes)
    }

    /// As [`Engine::ireduce`] with an externally allocated sequence number
    /// and an explicit schedule (the application-bypass layer allocates
    /// before choosing a path, and its dual-root halves fall back to this
    /// over chain schedules regardless of the configured topology).
    #[allow(clippy::too_many_arguments)] // mirrors ireduce + seq + sched
    pub fn ireduce_with_seq(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
        coll_seq: u64,
        sched: Arc<TopoSchedule>,
    ) -> ReqId {
        let call = self.pipe_call(comm, op, dtype);
        let state = ReduceState::new(&call, self.rank, root, coll_seq, data.to_vec(), sched);
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
        let call = self.pipe_call(comm, op, dtype);
        let lane = self.reduce_lane(comm, root, data.len(), base_seq, k, seg_bytes, "seg-reduce");
        self.post_pipeline("seg-reduce", call, data, [lane])
    }

    /// Post Träff's dual-root doubly-pipelined allreduce over
    /// [`Engine::dual_lanes`]. Falls back to the ordinary allreduce when the
    /// communicator or payload is too small to split.
    pub fn iallreduce_dual(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        if let Some(failed) = self.reject(comm, 0, Some((op, dtype))) {
            return failed;
        }
        let marks = ["dual-allreduce"; 2];
        let Some(lanes) = self.dual_lanes(comm, data.len(), dtype.size(), marks) else {
            return self.iallreduce(comm, op, dtype, data);
        };
        let call = self.pipe_call(comm, op, dtype);
        self.post_pipeline("dual-allreduce", call, data, lanes)
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
        if let Some(failed) = self.reject(comm, root, None) {
            return failed;
        }
        let coll_seq = self.alloc_coll_seq(comm.coll_context);
        let sched = self.schedule(root, comm.size);
        self.ibcast_with_seq_sched(comm, root, data, len, coll_seq, sched)
    }

    /// As [`Engine::ibcast`] with an externally allocated sequence number
    /// and an explicit schedule (the application-bypass broadcast allocates
    /// before choosing a path, and its dual-root halves broadcast over chain
    /// schedules regardless of the configured topology).
    pub fn ibcast_with_seq_sched(
        &mut self,
        comm: &Communicator,
        root: Rank,
        data: Option<Bytes>,
        len: usize,
        coll_seq: u64,
        sched: Arc<TopoSchedule>,
    ) -> ReqId {
        debug_assert_eq!(
            self.rank == root,
            data.is_some(),
            "exactly the root supplies bcast data"
        );
        let state = BcastState::new(comm, self.rank, root, coll_seq, data, len, sched);
        self.post_coll(CollState::Bcast(state))
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
        if let Some(failed) = self.reject(comm, 0, Some((op, dtype))) {
            return failed;
        }
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
        let call = self.pipe_call(comm, op, dtype);
        let lane = self.allreduce_lane(comm, data.len());
        self.post_pipeline("allreduce", call, data, [lane])
    }

    /// Post a gather: every rank contributes `data` (equal length); the
    /// root's request completes with the rank-ordered concatenation.
    pub fn igather(&mut self, comm: &Communicator, root: Rank, data: &[u8]) -> ReqId {
        if let Some(failed) = self.reject(comm, root, None) {
            return failed;
        }
        let coll_seq = self.alloc_coll_seq(comm.coll_context);
        let state = self.start_gather(comm, root, coll_seq, data);
        self.post_coll(CollState::Gather(state))
    }

    /// Post an allgather (gather to rank 0, then broadcast the assembled
    /// buffer). Every rank's request completes with all blocks in rank
    /// order.
    pub fn iallgather(&mut self, comm: &Communicator, data: &[u8]) -> ReqId {
        let gather_seq = self.alloc_coll_seq(comm.coll_context);
        let _bcast_seq = self.alloc_coll_seq(comm.coll_context);
        let state = AllgatherState {
            phase: AllgatherPhase::Gather(self.start_gather(comm, 0, gather_seq, data)),
            total_len: data.len() * comm.size as usize,
        };
        self.post_coll(CollState::Allgather(state))
    }

    /// The gather phase of instance `coll_seq`: the root posts the n-1
    /// receives up front (MPICH's small-message linear gather does the
    /// same with irecvs), every other rank sends its block.
    fn start_gather(
        &mut self,
        comm: &Communicator,
        root: Rank,
        coll_seq: u64,
        data: &[u8],
    ) -> GatherState {
        let (ctx, tag) = (comm.coll_context, coll_tag(coll_code::GATHER, coll_seq, 0));
        let mut state = GatherState {
            context: ctx,
            root,
            size: comm.size,
            rank: self.rank,
            coll_seq,
            block: data.len(),
            chunks: Vec::new(),
            recvs: Vec::new(),
            send_req: None,
        };
        if self.rank != root {
            let (block, kind) = (Bytes::from(data.to_vec()), PacketKind::Eager);
            state.send_req = self.isend_internal(root, tag, ctx, block, kind, coll_seq, root);
            return state;
        }
        state.chunks = vec![None; comm.size as usize];
        state.chunks[root as usize] = Some(Bytes::from(data.to_vec()));
        for src in (0..comm.size).filter(|&src| src != root) {
            let req =
                self.irecv_internal(Some(src), TagSel::Is(tag), ctx, data.len(), Some(coll_seq));
            state.recvs.push((req, src));
        }
        state
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

    /// Begin the exchange for the current RS/AG round: send the partner
    /// the block it needs and post the receive for the block it sends.
    fn rs_start_exchange(&mut self, s: &mut RsAllreduceState) {
        let (dist, send_off, len) = match s.phase {
            RsPhase::ReduceScatter { dist } => {
                // Lower-rank keeps the lower half; the upper half belongs
                // to the partner (and vice versa).
                let half = s.seglen / 2;
                let (keep_off, send_off) = if s.rank < s.rank ^ dist {
                    (s.offset, s.offset + half)
                } else {
                    (s.offset + half, s.offset)
                };
                s.offset = keep_off;
                s.seglen = half;
                (dist, send_off, half)
            }
            // Send my whole segment; the partner's arrives the same size.
            RsPhase::Allgather { dist } => (dist, s.offset, s.seglen),
        };
        let (partner, ctx, seq) = (s.rank ^ dist, s.context, s.coll_seq);
        let tag = coll_tag(coll_code::RS, seq, 0);
        let payload = Bytes::from(s.buf[send_off..send_off + len].to_vec());
        s.send_req = self.isend_internal(partner, tag, ctx, payload, PacketKind::Eager, seq, 0);
        let recv = self.irecv_internal(Some(partner), TagSel::Is(tag), ctx, len, Some(seq));
        s.recv_req = Some(recv);
    }

    fn step_rs_allreduce(&mut self, s: &mut RsAllreduceState) -> Stepped {
        let mut progressed = false;
        loop {
            // Wait out the outstanding exchange.
            if let Some(r) = s.send_req {
                if self.reap(r)?.is_none() {
                    return Ok(StepRes::pending(progressed));
                }
                s.send_req = None;
                progressed = true;
            }
            let Some(r) = s.recv_req else {
                unreachable!("exchange always posts both sides");
            };
            let Some(incoming) = self.reap(r)? else {
                return Ok(StepRes::pending(progressed));
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
                    s.op.apply(s.dtype, dst, &incoming)?;
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
                    self.host_copy(incoming.len());
                    s.buf[partner_off..partner_off + s.seglen].copy_from_slice(&incoming);
                    s.offset = s.offset.min(partner_off);
                    s.seglen *= 2;
                    if dist * 2 < s.size {
                        s.phase = RsPhase::Allgather { dist: dist * 2 };
                    } else {
                        debug_assert_eq!(s.seglen, s.buf.len());
                        let data = Bytes::from(std::mem::take(&mut s.buf));
                        return Ok(StepRes::done(Outcome::Data(data)));
                    }
                }
            }
            self.rs_start_exchange(s);
        }
    }

    fn post_coll(&mut self, state: CollState) -> ReqId {
        self.trace.emit(TraceEvent::PhaseEnter {
            phase: state.name(),
        });
        let id = self.new_req(Request::new(RequestBody::Coll(Box::new(state))));
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
        // A collective leaves `active_colls` when it completes.
        debug_assert!(!self.active_colls.contains(&req));
        self.requests.remove(&req.raw()).unwrap().outcome
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
            PacketKind::Eager | PacketKind::Collective | PacketKind::RendezvousRts => {
                self.process_arrival(pkt)
            }
            PacketKind::RendezvousCts => self.process_cts(pkt),
            PacketKind::RendezvousData => self.process_rndv_data(pkt),
            PacketKind::Ack => {
                debug_assert!(false, "reliability acks must be consumed by the transport");
            }
        }
    }

    /// An eager-class message or an RTS arrives (Fig. 4, white boxes):
    /// match it against the posted receives, or park it on the unexpected
    /// queue. A parked eager message is copied into a temporary buffer (the
    /// first of its two copies); a parked RTS keeps only its header, and no
    /// payload moves until the rendezvous DATA.
    fn process_arrival(&mut self, pkt: Packet) {
        self.charge(CpuCategory::Protocol, self.config.cost.matching());
        let h = pkt.header;
        let msg = UnexpectedMsg {
            src: h.src.0,
            tag: h.tag,
            context: h.context,
            kind: h.kind,
            coll_seq: h.coll_seq,
            data: pkt.payload,
            msg_len: h.msg_len as usize,
        };
        let key = MsgKey {
            src: msg.src,
            tag: msg.tag,
            context: msg.context,
        };
        let rts = msg.kind == PacketKind::RendezvousRts;
        if let Some(p) = self.posted.take_match(&key) {
            // An RTS counts as matched even when it truncates; an eager
            // message only when it lands.
            self.stats.posted_matched += u64::from(rts || msg.msg_len <= p.capacity);
            self.land(&p, msg);
            return;
        }
        self.stats.unexpected_enqueued += 1;
        if !rts {
            self.host_copy(msg.msg_len);
        }
        self.unexpected.push(msg);
    }

    /// Take the oldest parked message matching `(src, tag, context)` off
    /// the unexpected queue.
    fn take_parked(
        &mut self,
        src: Option<Rank>,
        tag: TagSel,
        context: u32,
    ) -> Option<UnexpectedMsg> {
        let msg = self.unexpected.take_match(src, tag, context)?;
        self.stats.unexpected_matched += 1;
        Some(msg)
    }

    /// `msg` matched the receive `recv`, from either queue: fail it if the
    /// message does not fit; otherwise answer an RTS with a CTS, or copy an
    /// eager payload into the user buffer (a posted match's only copy, a
    /// parked message's second).
    fn land(&mut self, recv: &PostedRecv, msg: UnexpectedMsg) {
        let rts = msg.kind == PacketKind::RendezvousRts;
        debug_assert!(
            // An RTS carries the rendezvous transfer id in this field, not
            // the collective sequence; skip the cross-check.
            rts || recv.expect_coll_seq.is_none_or(|s| s == msg.coll_seq),
            "FIFO transport delivered collective instance {} where {:?} was expected",
            msg.coll_seq,
            recv.expect_coll_seq
        );
        if msg.msg_len > recv.capacity {
            let (received, capacity) = (msg.msg_len, recv.capacity);
            let err = MprError::Truncation { received, capacity };
            self.complete(recv.id, Outcome::Failed(err));
        } else if rts {
            self.begin_rndv_recv(recv.id, &msg);
        } else {
            self.host_copy(msg.msg_len);
            self.complete(recv.id, Outcome::Data(msg.data));
        }
    }

    /// Receiver side of a matched RTS: pin the destination and answer with
    /// a CTS.
    fn begin_rndv_recv(&mut self, req: ReqId, rts: &UnexpectedMsg) {
        let (xfer_id, msg_len) = (rts.coll_seq, rts.msg_len);
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
        let (cts, ctx) = (PacketKind::RendezvousCts, rts.context);
        self.send_packet(rts.src, cts, ctx, 0, xfer_id, 0, msg_len, Bytes::new());
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
        let (dst, context, tag, region) = (rs.dst, rs.context, rs.tag, rs.region);
        self.charge(CpuCategory::Protocol, self.config.cost.rndv_control_host());
        let kind = PacketKind::RendezvousData;
        self.send_packet(dst, kind, context, tag, xfer_id, 0, data.len(), data);
        let unpin = self.config.cost.unpin();
        self.charge(CpuCategory::Protocol, unpin);
        self.memory
            .deregister(region)
            .expect("send region vanished");
        self.complete(req, Outcome::Done);
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
        self.complete(req, Outcome::Data(pkt.payload));
    }

    /// Complete the live request `req` with `outcome`.
    fn complete(&mut self, req: ReqId, outcome: Outcome) {
        if let Some(r) = self.requests.get_mut(&req.raw()) {
            debug_assert!(r.outcome.is_none(), "request completed twice");
            r.outcome = Some(outcome);
        }
    }

    /// One host memory copy of `bytes` (§III): charge it and count it.
    fn host_copy(&mut self, bytes: usize) {
        let copy = self.config.cost.copy(bytes);
        self.charge(CpuCategory::Protocol, copy);
        self.stats.copies += 1;
        self.stats.copy_bytes += bytes as u64;
    }

    /// A request complete at post with `outcome`.
    fn completed_req(&mut self, outcome: Outcome) -> ReqId {
        self.new_req(Request {
            body: RequestBody::Bare,
            outcome: Some(outcome),
        })
    }

    /// Enter `req` into the request map under a fresh id.
    fn new_req(&mut self, req: Request) -> ReqId {
        let id = ReqId::from_raw(self.stats.requests);
        self.stats.requests += 1;
        self.requests.insert(id.raw(), req);
        let live = self.requests.len() as u64;
        self.stats.requests_high_water = self.stats.requests_high_water.max(live);
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

    /// Step the collective `id` where it sits: its state leaves the live
    /// request only while it is stepped.
    fn step_one_coll(&mut self, id: ReqId) -> bool {
        let Some(r) = self.requests.get_mut(&id.raw()) else {
            return false;
        };
        debug_assert!(r.outcome.is_none(), "a completed collective is stepped");
        let RequestBody::Coll(mut state) = std::mem::replace(&mut r.body, RequestBody::Bare) else {
            unreachable!("only collectives are stepped");
        };
        let res = settle(match &mut *state {
            CollState::Reduce(s) => self.step_reduce(s),
            CollState::Bcast(s) => self.step_bcast(s),
            CollState::Barrier(s) => self.step_barrier(s),
            CollState::Gather(s) => self.step_gather(s),
            CollState::Allgather(s) => self.step_allgather(s),
            CollState::RsAllreduce(s) => self.step_rs_allreduce(s),
            CollState::Pipeline { pipe, .. } => Ok(pipe.advance(self)),
        });
        if res.outcome.is_some() {
            self.stats.colls_completed += 1;
            self.active_colls.retain(|&c| c != id);
            self.trace.emit(TraceEvent::PhaseExit {
                phase: state.name(),
            });
        }
        let r = self
            .requests
            .get_mut(&id.raw())
            .expect("a collective stays live while stepped");
        r.body = RequestBody::Coll(state);
        r.outcome = res.outcome;
        res.progressed
    }

    /// Reap a collective's sub-request: `None` while it is pending; once
    /// complete it is freed and yields its data (empty for a send), and its
    /// error fails the collective through `?`.
    fn reap(&mut self, req: ReqId) -> Result<Option<Bytes>, MprError> {
        match self.take_outcome(req) {
            None => Ok(None),
            Some(Outcome::Data(d)) => Ok(Some(d)),
            Some(Outcome::Done) => Ok(Some(Bytes::new())),
            Some(Outcome::Failed(e)) => Err(e),
        }
    }

    fn step_reduce(&mut self, s: &mut ReduceState) -> Stepped {
        let mut progressed = false;
        loop {
            // Fold in the outstanding child receive, if any.
            if let Some(r) = s.child_recv {
                let Some(d) = self.reap(r)? else {
                    return Ok(StepRes::pending(progressed));
                };
                let op_cost = self.config.cost.reduce_op(s.dtype.count(s.acc.len()));
                self.charge(CpuCategory::Protocol, op_cost);
                s.op.apply(s.dtype, &mut s.acc, &d)?;
                s.child_recv = None;
                s.next_child += 1;
                progressed = true;
                continue;
            }
            // Wait out a rendezvous send to the parent.
            if let Some(r) = s.send_req {
                return Ok(match self.reap(r)? {
                    Some(_) => StepRes::done(Outcome::Done),
                    None => StepRes::pending(progressed),
                });
            }
            // Advance the schedule: one blocking child receive at a time in
            // wait order (the MPICH mask loop when the schedule is
            // binomial), then the send to the parent.
            let tag = coll_tag(coll_code::REDUCE, s.coll_seq, 0);
            if let Some(&child) = s.sched.children_of(s.rank).get(s.next_child) {
                let (sel, len) = (TagSel::Is(tag), s.acc.len());
                let req = self.irecv_internal(Some(child), sel, s.context, len, Some(s.coll_seq));
                s.child_recv = Some(req);
                progressed = true;
                continue;
            }
            if let Some(parent) = s.sched.parent_of(s.rank) {
                let acc = Bytes::from(std::mem::take(&mut s.acc));
                let (kind, seq) = (s.packet_kind, s.coll_seq);
                let rndv = self.isend_internal(parent, tag, s.context, acc, kind, seq, s.root);
                let Some(r) = rndv else {
                    return Ok(StepRes::done(Outcome::Done));
                };
                s.send_req = Some(r);
                progressed = true;
                continue;
            }
            // Root with all children folded in.
            let acc = Bytes::from(std::mem::take(&mut s.acc));
            return Ok(StepRes::done(Outcome::Data(acc)));
        }
    }

    fn step_bcast(&mut self, s: &mut BcastState) -> Stepped {
        let mut progressed = false;
        let tag = coll_tag(coll_code::BCAST, s.coll_seq, 0);
        if s.data.is_none() {
            if s.recv_req.is_none() {
                let parent = s
                    .sched
                    .parent_of(s.rank)
                    .expect("non-root bcast rank has a parent");
                let (sel, seq) = (TagSel::Is(tag), Some(s.coll_seq));
                s.recv_req = Some(self.irecv_internal(Some(parent), sel, s.context, s.len, seq));
                progressed = true;
            }
            let Some(d) = self.reap(s.recv_req.unwrap())? else {
                return Ok(StepRes::pending(progressed));
            };
            s.data = Some(d);
            s.recv_req = None;
            progressed = true;
        }
        // Have the data: issue sends to children in schedule order.
        let data = s.data.clone().expect("data present past receive phase");
        while let Some(&child) = s.sched.children_of(s.rank).get(s.next_send) {
            s.next_send += 1;
            let (kind, seq) = (PacketKind::Eager, s.coll_seq);
            let rndv = self.isend_internal(child, tag, s.context, data.clone(), kind, seq, s.root);
            s.send_reqs.extend(rndv);
            progressed = true;
        }
        // Collect completed rendezvous sends (eager ones completed at post).
        let mut pending = Vec::new();
        for req in s.send_reqs.drain(..) {
            match self.reap(req)? {
                Some(_) => progressed = true,
                None => pending.push(req),
            }
        }
        s.send_reqs = pending;
        Ok(match s.send_reqs.is_empty() {
            true => StepRes::done(Outcome::Data(data)),
            false => StepRes::pending(progressed),
        })
    }

    fn step_barrier(&mut self, s: &mut BarrierState) -> Stepped {
        let rounds = barrier_rounds(s.size);
        let mut progressed = false;
        loop {
            if s.round >= rounds {
                return Ok(StepRes::done(Outcome::Done));
            }
            if s.recv_req.is_none() {
                let dist = 1u32 << s.round;
                let to = (s.rank + dist) % s.size;
                let tag = coll_tag(coll_code::BARRIER, s.coll_seq, s.round as u8);
                // A zero-byte send is eager: it completes at post.
                let (kind, seq) = (PacketKind::Eager, s.coll_seq);
                let rndv = self.isend_internal(to, tag, s.context, Bytes::new(), kind, seq, 0);
                debug_assert!(rndv.is_none());
                let from = (s.rank + s.size - dist) % s.size;
                let req = self.irecv_internal(Some(from), TagSel::Is(tag), s.context, 0, Some(seq));
                s.recv_req = Some(req);
                progressed = true;
            }
            if self.reap(s.recv_req.unwrap())?.is_none() {
                return Ok(StepRes::pending(progressed));
            }
            s.recv_req = None;
            s.round += 1;
            progressed = true;
        }
    }

    fn step_gather(&mut self, s: &mut GatherState) -> Stepped {
        if s.rank != s.root {
            // A rendezvous send must complete; an eager one did at post.
            let sent = match s.send_req {
                Some(r) => self.reap(r)?.is_some(),
                None => true,
            };
            return Ok(match sent {
                true => StepRes::done(Outcome::Done),
                false => StepRes::pending(false),
            });
        }
        // Root: collect outstanding receives.
        let mut progressed = false;
        let mut pending = Vec::new();
        for (req, src) in s.recvs.drain(..) {
            match self.reap(req)? {
                Some(d) => {
                    self.host_copy(d.len());
                    s.chunks[src as usize] = Some(d);
                    progressed = true;
                }
                None => pending.push((req, src)),
            }
        }
        s.recvs = pending;
        if s.recvs.is_empty() {
            let mut out = Vec::with_capacity(s.block * s.size as usize);
            for c in s.chunks.iter_mut() {
                out.extend_from_slice(&c.take().expect("every block present"));
            }
            return Ok(StepRes::done(Outcome::Data(Bytes::from(out))));
        }
        Ok(StepRes::pending(progressed))
    }

    fn step_allgather(&mut self, s: &mut AllgatherState) -> Stepped {
        if let AllgatherPhase::Gather(g) = &mut s.phase {
            let res = self.step_gather(g)?;
            let data = match res.outcome {
                Some(Outcome::Data(d)) => Some(d),
                Some(Outcome::Done) => None,
                Some(Outcome::Failed(e)) => return Err(e),
                None => return Ok(StepRes::pending(res.progressed)),
            };
            // Rank 0 broadcasts the assembled buffer on the sequence number
            // allocated right after the gather's.
            let comm = Communicator {
                pt2pt_context: 0,
                coll_context: g.context,
                size: g.size,
            };
            let (seq, sched) = (g.coll_seq + 1, self.schedule(0, g.size));
            let bcast = BcastState::new(&comm, self.rank, 0, seq, data, s.total_len, sched);
            s.phase = AllgatherPhase::Bcast(bcast);
        }
        match &mut s.phase {
            AllgatherPhase::Bcast(b) => self.step_bcast(b),
            AllgatherPhase::Gather(_) => unreachable!("the gather finished above"),
        }
    }
}

/// A collective step: its progress and outcome, or the first sub-request
/// or operator error, which fails the collective.
type Stepped = Result<StepRes, MprError>;

/// The [`StepRes`] of a step, with an error as the failed outcome.
fn settle(res: Stepped) -> StepRes {
    res.unwrap_or_else(|e| StepRes::done(Outcome::Failed(e)))
}

/// The baseline runs each pipeline segment as an inline reduce or
/// broadcast state machine, stepped by the progress engine.
impl SegRunner for Engine {
    type Sub = SegMachine;

    fn start_reduce(
        &mut self,
        call: &PipeCall,
        lane: &Lane,
        seg: usize,
        acc: Vec<u8>,
    ) -> SegMachine {
        let seq = lane.reduce_seq + seg as u64;
        let sched = Arc::clone(&lane.sched);
        SegMachine::Reduce(ReduceState::new(
            call, self.rank, lane.root, seq, acc, sched,
        ))
    }

    fn start_bcast(
        &mut self,
        call: &PipeCall,
        lane: &Lane,
        seg: usize,
        data: Option<Bytes>,
        len: usize,
    ) -> SegMachine {
        let seq = lane.bcast_seq.expect("a broadcasting lane") + seg as u64;
        let sched = Arc::clone(&lane.sched);
        let state = BcastState::new(&call.comm, self.rank, lane.root, seq, data, len, sched);
        SegMachine::Bcast(state)
    }

    fn step(&mut self, sub: &mut SegMachine) -> StepRes {
        settle(match sub {
            SegMachine::Reduce(r) => self.step_reduce(r),
            SegMachine::Bcast(b) => self.step_bcast(b),
        })
    }

    fn tracer(&self) -> &TraceHandle {
        &self.trace
    }
}

/// The uniform surface drivers and benchmarks program against; implemented
/// by [`Engine`] (baseline) and by `abr_core::AbEngine` (application
/// bypass). `Send` because a driver run may move each rank's engine to a
/// shard worker thread.
pub trait MessageEngine: Send {
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
