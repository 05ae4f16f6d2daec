//! [`AbEngine`]: the application-bypass layer wrapped around the MPICH-like
//! engine.
//!
//! Composition mirrors the paper's code structure. `abr_mpr::Engine` is
//! stock MPICH over GM; this type adds:
//!
//! * the **mode decision** of §V-B — root and leaf ranks and over-eager-limit
//!   messages fall back to the stock blocking reduction,
//! * the **synchronous component** (Fig. 3) inside [`AbEngine::ireduce`]:
//!   disable signals, enqueue a descriptor, fold in children that already
//!   arrived, optionally linger (§IV-E, via the driver's bounded block),
//!   then exit, enabling signals if work remains,
//! * the **asynchronous component** (Fig. 5), run from
//!   [`AbEngine::handle_signal`] when the NIC raises a signal for a
//!   collective packet: match the sender against the descriptor queue,
//!   apply the operator straight out of the packet buffer (zero copies),
//!   send the result up when a descriptor drains, and disable signals when
//!   the queue empties,
//! * the **pre-processing hook** of Fig. 4 (gray boxes): every incoming
//!   packet is classified before MPICH matching sees it; root-instance
//!   packets pass through to the default mechanisms,
//! * the **split-phase extension** (§II/§VII): [`AbEngine::ireduce_split`]
//!   gives even the root a non-blocking reduce whose completion is driven
//!   entirely by signals; the split-phase allreduce, segmented reduce and
//!   dual-root allreduce are [`SegPipeline`]s of such sub-requests.

use crate::bcast::{BcastWait, BcastWaitQueue};
use crate::delay::DelayPolicy;
use crate::descriptor::{DescriptorQueue, ReduceDescriptor};
use crate::stats::AbStats;
use crate::unexpected::{AbUnexpectedMsg, AbUnexpectedQueue};
use abr_des::meter::CpuCategory;
use abr_des::{SimDuration, SmallMap};
use abr_gm::packet::{Packet, PacketKind};
use abr_mpr::charge::Charges;
use abr_mpr::coll::{Lane, PipeCall, SegPipeline, SegRunner, StepRes};
use abr_mpr::engine::{Action, Engine, EngineConfig, MessageEngine};
use abr_mpr::op::ReduceOp;
use abr_mpr::request::Outcome;
use abr_mpr::topology::TopoSchedule;
use abr_mpr::types::{coll_code, coll_tag, coll_tag_code, Datatype, Rank, TagSel};
use abr_mpr::{Communicator, ReqId};
use abr_trace::{TraceEvent, TraceHandle};
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::Arc;

/// Configuration of the bypass layer.
#[derive(Debug, Clone)]
pub struct AbConfig {
    /// Master switch; disabled means every reduce takes the stock path and
    /// no collective packet types are emitted (the `nab` baseline).
    pub enabled: bool,
    /// The §IV-E exit-delay policy.
    pub delay: DelayPolicy,
    /// The §VII NIC-based-reduction extension: the NIC processor matches
    /// incoming collective packets against the descriptor table and applies
    /// the operator itself, so late children cost the host *nothing* — no
    /// polling, no signals. The price is the LANai's much slower per-element
    /// arithmetic, charged to the NIC meter.
    pub nic_offload: bool,
}

impl Default for AbConfig {
    fn default() -> Self {
        AbConfig {
            enabled: true,
            delay: DelayPolicy::None,
            nic_offload: false,
        }
    }
}

impl AbConfig {
    /// The stock-MPICH baseline configuration.
    pub fn disabled() -> Self {
        AbConfig {
            enabled: false,
            delay: DelayPolicy::None,
            nic_offload: false,
        }
    }

    /// Application bypass with the NIC-based reduction extension on.
    pub fn nic_offload() -> Self {
        AbConfig {
            enabled: true,
            delay: DelayPolicy::None,
            nic_offload: true,
        }
    }
}

/// The application-bypass engine. Implements [`MessageEngine`] so drivers
/// treat it interchangeably with the baseline [`Engine`].
pub struct AbEngine {
    inner: Engine,
    config: AbConfig,
    rx: VecDeque<Packet>,
    descriptors: DescriptorQueue,
    bcast_waits: BcastWaitQueue,
    ab_unexpected: AbUnexpectedQueue,
    signals_on: bool,
    stats: AbStats,
    /// Bounded-block budgets for reduce calls whose synchronous phase left
    /// children outstanding.
    hints: SmallMap<u64, SimDuration>,
    /// In-flight segment pipelines with the shell request each completes:
    /// split-phase allreduces (§II extension), segmented bypassed
    /// reductions and bypassed dual-root allreduces, every segment a
    /// split-phase sub-request.
    pipelines: Vec<(ReqId, SegPipeline<ReqId>)>,
    /// Highest reliability sequence seen per source (see
    /// [`AbStats::duplicates_suppressed`]); independent of the inner
    /// engine's map, which only ever sees the packets we forward.
    last_rel_seq: SmallMap<u32, u64>,
}

impl AbEngine {
    /// Wrap a fresh engine for `rank` of `size`.
    pub fn new(rank: Rank, size: u32, engine_config: EngineConfig, config: AbConfig) -> Self {
        let mut inner = Engine::new(rank, size, engine_config);
        if config.enabled {
            // All reduction traffic uses the new collective packet type so
            // destination NICs can raise signals (§V-A).
            inner.set_reduce_packet_kind(PacketKind::Collective);
        }
        AbEngine {
            inner,
            config,
            rx: VecDeque::new(),
            descriptors: DescriptorQueue::new(),
            bcast_waits: BcastWaitQueue::new(),
            ab_unexpected: AbUnexpectedQueue::new(),
            signals_on: false,
            stats: AbStats::default(),
            hints: SmallMap::new(),
            pipelines: Vec::new(),
            last_rel_seq: SmallMap::new(),
        }
    }

    /// Bypass counters.
    pub fn ab_stats(&self) -> &AbStats {
        &self.stats
    }

    /// The wrapped engine (stats, memory audits).
    pub fn inner(&self) -> &Engine {
        &self.inner
    }

    /// Mutable access to the wrapped engine, for operations the bypass
    /// layer does not intercept (gather, allgather and friends).
    pub fn inner_mut(&mut self) -> &mut Engine {
        &mut self.inner
    }

    /// Rebind the world communicator (per-job contexts in a multi-tenant
    /// run); delegates to the wrapped engine, which owns all sequence
    /// allocation.
    pub fn set_world(&mut self, world: Communicator) {
        self.inner.set_world(world);
    }

    /// Outstanding descriptors (diagnostics).
    pub fn descriptor_queue(&self) -> &DescriptorQueue {
        &self.descriptors
    }

    /// The AB unexpected queue (diagnostics).
    pub fn ab_unexpected_queue(&self) -> &AbUnexpectedQueue {
        &self.ab_unexpected
    }

    /// Pending application-bypass broadcasts (diagnostics).
    pub fn bcast_wait_queue(&self) -> &BcastWaitQueue {
        &self.bcast_waits
    }

    /// True while any bypass state is outstanding (descriptors or bcasts).
    fn bypass_idle(&self) -> bool {
        self.descriptors.is_empty() && self.bcast_waits.is_empty()
    }

    /// Whether this engine currently wants NIC signals enabled.
    pub fn signals_enabled(&self) -> bool {
        self.signals_on
    }

    fn set_signals(&mut self, on: bool) {
        if self.signals_on == on {
            return;
        }
        self.signals_on = on;
        let toggle = self.inner.cost().signal_toggle();
        self.inner.charge(CpuCategory::Protocol, toggle);
        self.inner.push_action(if on {
            Action::EnableSignals
        } else {
            Action::DisableSignals
        });
    }

    /// The split-phase extension (§II/§VII): a non-blocking reduce whose
    /// request completes — possibly entirely asynchronously, via signals —
    /// when this rank's part is done. For the root that means the full
    /// result ([`Outcome::Data`]); for every other rank, when its subtree
    /// result has been sent up ([`Outcome::Done`]). Unlike
    /// [`AbEngine::ireduce`], even the root bypasses the application, and
    /// the caller never needs to poll if signals are enabled.
    ///
    /// Falls back to the stock path for over-eager-limit messages and for
    /// leaves (whose only action is a send, completing immediately).
    ///
    /// Large payloads under an [`EngineConfig::segments`] window of 2+
    /// segment instead of falling back: each eager-sized segment is an
    /// independent split reduce, pipelined up the same tree.
    pub fn ireduce_split(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        if let Some(failed) = self.inner.reject(comm, root, Some((op, dtype))) {
            return failed;
        }
        // The plan depends only on configuration shared by every rank, so
        // all ranks agree on the segment count (and thus on how many
        // sequence numbers this collective consumes) before any rank-local
        // mode decision.
        let (k, seg_bytes) = self
            .inner
            .segment_plan(root, comm.size, data.len(), dtype.size());
        if k >= 2 {
            return self.ireduce_segmented(comm, root, op, dtype, data, k, seg_bytes, true);
        }
        let seq = self.inner.alloc_coll_seq(comm.coll_context);
        let sched = self.inner.schedule(root, comm.size);
        self.ireduce_split_with_seq(comm, root, op, dtype, data, seq, sched)
    }

    /// As [`AbEngine::ireduce_split`] with an externally allocated instance
    /// sequence number and an explicit schedule (pipeline segments reduce
    /// on pre-allocated numbers, the dual-root halves over chain
    /// schedules regardless of the configured topology).
    #[allow(clippy::too_many_arguments)] // mirrors ireduce_split + seq + sched
    fn ireduce_split_with_seq(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
        seq: u64,
        sched: Arc<TopoSchedule>,
    ) -> ReqId {
        let rank = self.inner.rank();
        if !self.config.enabled || data.len() > self.inner.eager_limit() {
            self.stats.fallback_large += u64::from(self.config.enabled);
            self.stats.fallback_disabled += u64::from(!self.config.enabled);
            return self
                .inner
                .ireduce_with_seq(comm, root, op, dtype, data, seq, sched);
        }
        if sched.is_leaf(rank) || comm.size == 1 {
            // A leaf's only action is the send; the stock path already
            // completes it without blocking. Size-1: trivially complete.
            return self
                .inner
                .ireduce_with_seq(comm, root, op, dtype, data, seq, sched);
        }
        self.stats.split_phase_started += 1;
        let parent = sched.parent_of(rank);
        self.ab_reduce_start(comm, root, op, dtype, data, seq, parent, true, sched)
    }

    /// Application-bypass broadcast (the companion system of ref. \[8\]): the
    /// call returns immediately; the request completes with the payload
    /// when the parent's data arrives — driven by signals, never by the
    /// application blocking. The root completes at once (it owns the data);
    /// interior nodes forward down their subtree from the signal handler.
    ///
    /// Falls back to the stock blocking broadcast when bypass is disabled
    /// or the payload exceeds the eager limit.
    pub fn ibcast_split(
        &mut self,
        comm: &Communicator,
        root: Rank,
        data: Option<Bytes>,
        len: usize,
    ) -> ReqId {
        if let Some(failed) = self.inner.reject(comm, root, None) {
            return failed;
        }
        let seq = self.inner.alloc_coll_seq(comm.coll_context);
        let sched = self.inner.schedule(root, comm.size);
        self.ibcast_split_with_seq(comm, root, data, len, seq, sched)
    }

    /// As [`AbEngine::ibcast_split`] with an externally allocated sequence
    /// number and an explicit schedule (pipeline segments broadcast on
    /// pre-allocated numbers, the dual-root halves over chain schedules).
    fn ibcast_split_with_seq(
        &mut self,
        comm: &Communicator,
        root: Rank,
        data: Option<Bytes>,
        len: usize,
        seq: u64,
        sched: Arc<TopoSchedule>,
    ) -> ReqId {
        let rank = self.inner.rank();
        if !self.config.enabled || len > self.inner.eager_limit() {
            return self
                .inner
                .ibcast_with_seq_sched(comm, root, data, len, seq, sched);
        }
        self.stats.bcast_splits += 1;
        if rank == root {
            let payload = data.expect("the root supplies bcast data");
            debug_assert_eq!(payload.len(), len);
            let req = self.inner.alloc_shell_req();
            // Largest subtree first, like the blocking path.
            for i in (0..sched.children_of(rank).len()).rev() {
                let child = sched.children_of(rank)[i];
                self.eager_send(
                    child,
                    coll_tag(coll_code::BCAST, seq, 0),
                    comm.coll_context,
                    payload.clone(),
                    seq,
                    root,
                );
                self.stats.bcast_forwards += 1;
            }
            self.inner.complete_shell(req, Outcome::Data(payload));
            return req;
        }
        let req = self.inner.alloc_shell_req();
        let parent = sched.parent_of(rank).expect("non-root has a parent");
        // The parent's data may already be parked (early arrival).
        if let Some(msg) = self.ab_unexpected.take(
            parent,
            coll_tag(coll_code::BCAST, seq, 0),
            comm.coll_context,
        ) {
            debug_assert_eq!(msg.coll_seq, seq, "bcast instance mix-up");
            let w = BcastWait {
                context: comm.coll_context,
                coll_seq: seq,
                root,
                parent,
                len,
                sched,
                call_req: req,
            };
            self.deliver_bcast(w, msg.data, false);
            return req;
        }
        self.bcast_waits.push(BcastWait {
            context: comm.coll_context,
            coll_seq: seq,
            root,
            parent,
            len,
            sched,
            call_req: req,
        });
        // Split-phase: the application will not poll; arm signals (broadcast
        // stays host-signal-driven even under NIC reduce offload).
        self.set_signals(true);
        // Drain anything already in the receive queue — the data may be
        // sitting there right now.
        self.drain_rx(false);
        self.inner.crank();
        req
    }

    /// Split-phase allreduce (the paper's §II observation that even
    /// synchronizing operations benefit "if they are implemented in a
    /// split-phase manner"): a bypassed reduce to rank 0 chained into a
    /// bypassed broadcast, driven entirely by the progress paths. Every
    /// rank's request completes with the reduced data. It runs as one
    /// segment whatever its size.
    pub fn iallreduce_split(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        if let Some(failed) = self.inner.reject(comm, 0, Some((op, dtype))) {
            return failed;
        }
        // Pre-allocate both phases' instance numbers so all ranks agree on
        // collective order regardless of when the chain advances locally.
        let lane = self.inner.allreduce_lane(comm, data.len());
        self.stats.allreduce_splits += 1;
        self.post_pipeline(comm, op, dtype, data, [lane])
    }

    /// Shared body of the segmented reduce paths (blocking and split): one
    /// sequence number per segment, stock segmented pipeline on the §V-B
    /// fallback ranks, a pipeline of per-segment bypassed reduces
    /// everywhere else. The two are wire-compatible because both tag
    /// segment `i` with `base_seq + i`.
    #[allow(clippy::too_many_arguments)] // mirrors ireduce + the segment plan
    fn ireduce_segmented(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
        k: usize,
        seg_bytes: usize,
        split: bool,
    ) -> ReqId {
        // Reserve the block even on fallback ranks: every rank must consume
        // the same count to keep later instances' tags aligned.
        let base_seq = self.inner.alloc_seq_range(comm.coll_context, k);
        let rank = self.inner.rank();
        // Same §V-B fallbacks as the single-segment path; the stock pipeline
        // reuses the pre-allocated sequence block so its per-segment tags
        // match the bypassed ranks' exactly.
        let fallback = if !self.config.enabled {
            Some(&mut self.stats.fallback_disabled)
        } else if !split && rank == root {
            Some(&mut self.stats.fallback_root)
        } else if self.inner.schedule(root, comm.size).is_leaf(rank) {
            Some(&mut self.stats.fallback_leaf)
        } else {
            None
        };
        if let Some(count) = fallback {
            *count += 1;
            return self
                .inner
                .ireduce_segmented_with_seqs(comm, root, op, dtype, data, base_seq, k, seg_bytes);
        }
        self.stats.seg_reductions += 1;
        if !split {
            self.stats.ab_reductions += 1;
        }
        let lane =
            self.inner
                .reduce_lane(comm, root, data.len(), base_seq, k, seg_bytes, "seg-split");
        self.post_pipeline(comm, op, dtype, data, [lane])
    }

    /// Split-phase dual-root doubly-pipelined allreduce (Träff): the
    /// bypassed counterpart of [`Engine::iallreduce_dual`]. The payload
    /// splits into element-aligned halves pipelined over opposite-direction
    /// chains; each segment is a bypassed reduce chained into a bypassed
    /// broadcast, and the request completes with the full reduced vector on
    /// every rank.
    pub fn iallreduce_dual_split(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        if let Some(failed) = self.inner.reject(comm, 0, Some((op, dtype))) {
            return failed;
        }
        let marks = ["dual-split-lo", "dual-split-hi"];
        let lanes = match self.config.enabled {
            true => self.inner.dual_lanes(comm, data.len(), dtype.size(), marks),
            false => None,
        };
        let Some(lanes) = lanes else {
            // Too small to split (or bypass is off): the stock dual-root
            // path degrades identically on every rank.
            return MessageEngine::iallreduce_dual(self, comm, op, dtype, data);
        };
        self.stats.dual_allreduce_splits += 1;
        self.post_pipeline(comm, op, dtype, data, lanes)
    }

    /// Post a pipeline of split-phase segments behind a shell request and
    /// advance it at once.
    fn post_pipeline<const N: usize>(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
        lanes: [Lane; N],
    ) -> ReqId {
        let shell = self.inner.alloc_shell_req();
        let call = self.inner.pipe_call(comm, op, dtype);
        let pipe = SegPipeline::new(call, data, lanes);
        self.pipelines.push((shell, pipe));
        self.advance_pipelines();
        shell
    }

    /// Advance every in-flight pipeline and complete the shells of those
    /// that finished. Called from every progress path.
    fn advance_pipelines(&mut self) {
        if self.pipelines.is_empty() {
            return;
        }
        // Detach the list: segment posts re-enter the engine.
        let mut list = std::mem::take(&mut self.pipelines);
        list.retain_mut(|(shell, pipe)| match pipe.advance(self).outcome {
            Some(outcome) => {
                self.inner.complete_shell(*shell, outcome);
                false
            }
            None => true,
        });
        debug_assert!(self.pipelines.is_empty(), "a segment post added a pipeline");
        self.pipelines = list;
    }

    /// Shared body of the bypassed reduce paths. `parent == None` is the
    /// split-phase root, which keeps the result.
    #[allow(clippy::too_many_arguments)]
    fn ab_reduce_start(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
        seq: u64,
        parent: Option<Rank>,
        split: bool,
        sched: Arc<TopoSchedule>,
    ) -> ReqId {
        let rank = self.inner.rank();
        let ctx = comm.coll_context;
        self.inner.tracer().emit(TraceEvent::PhaseEnter {
            phase: "reduce-sync",
        });
        // Fig. 3: first, disable signals — we will be making communication
        // progress explicitly inside the call.
        self.set_signals(false);
        let req = self.inner.alloc_shell_req();
        let kids = sched.children_of(rank);
        let desc_cost = self.inner.cost().descriptor();
        self.inner.charge(CpuCategory::Protocol, desc_cost);
        let mut desc = ReduceDescriptor {
            context: ctx,
            coll_seq: seq,
            root,
            op,
            dtype,
            acc: data.to_vec(),
            parent,
            pending_children: kids.to_vec(),
            call_req: Some(req),
        };
        // Fold in children already parked on the AB unexpected queue —
        // processed directly from the queue, no second copy (§V-B).
        for child in kids {
            if let Some(msg) =
                self.ab_unexpected
                    .take(*child, coll_tag(coll_code::REDUCE, seq, 0), ctx)
            {
                debug_assert_eq!(msg.coll_seq, seq, "FIFO instance mix-up");
                let op_cost = self.inner.cost().reduce_op(dtype.count(desc.acc.len()));
                self.inner.charge(CpuCategory::Protocol, op_cost);
                desc.op
                    .apply(dtype, &mut desc.acc, &msg.data)
                    .expect("op/type checked at post");
                desc.complete_child(*child);
                self.stats.sync_children += 1;
            }
        }
        // The split-phase root may find children in the *MPICH* unexpected
        // queue (they passed through pre-processing before this descriptor
        // existed, back when this rank looked like a blocking root).
        if parent.is_none() {
            let pending = desc.pending_children.clone();
            for child in pending {
                if let Some(msg) = self.inner.take_unexpected(
                    Some(child),
                    TagSel::Is(coll_tag(coll_code::REDUCE, seq, 0)),
                    ctx,
                ) {
                    debug_assert_eq!(msg.coll_seq, seq, "FIFO instance mix-up");
                    let op_cost = self.inner.cost().reduce_op(dtype.count(desc.acc.len()));
                    self.inner.charge(CpuCategory::Protocol, op_cost);
                    desc.op
                        .apply(dtype, &mut desc.acc, &msg.data)
                        .expect("op/type checked at post");
                    desc.complete_child(child);
                    self.stats.sync_children += 1;
                }
            }
        }
        let swept_complete = desc.is_complete();
        self.descriptors.push(desc);
        if swept_complete {
            // Every child was already waiting on the unexpected queues: the
            // whole reduction finishes inside the synchronous call.
            let idx = self.descriptors.len() - 1;
            self.finish_descriptor(idx, false);
        }
        // Fig. 3: trigger progress. Packets already in the receive queue now
        // match the descriptor directly (zero additional copies).
        self.drain_rx(false);
        self.inner.crank();
        if !self.inner.test(req) {
            if split {
                // Split-phase semantics: the post returns immediately and
                // the *request* stays pending until this rank's part of the
                // reduction finishes (possibly entirely via signals). Arm
                // signals now — the application will not be polling.
                self.stats.delegated_to_async += 1;
                if !self.config.nic_offload {
                    self.set_signals(true);
                }
            } else {
                // Blocking-call semantics: register the bounded-block
                // budget the driver honours before `split_phase_exit`.
                let budget = self.config.delay.budget(comm.size);
                if !budget.is_zero() {
                    self.stats.exit_delays += 1;
                }
                self.hints.insert(req.raw(), budget);
            }
        } else {
            self.stats.completed_in_sync += 1;
        }
        self.inner.tracer().emit(TraceEvent::PhaseExit {
            phase: "reduce-sync",
        });
        req
    }

    /// The synchronous phase is over for `req` (driver's bounded block
    /// expired, or a split-phase post). Fig. 3's exit path: clear the call
    /// linkage, enable signals if reductions remain outstanding, return.
    fn exit_sync(&mut self, req: ReqId) {
        self.hints.remove(&req.raw());
        if self.inner.test(req) {
            return; // completed during the bounded block
        }
        for i in 0..self.descriptors.len() {
            let d = self.descriptors.get_mut(i);
            if d.call_req == Some(req) {
                d.call_req = None;
            }
        }
        self.stats.delegated_to_async += 1;
        // Under NIC offload the NIC completes descriptors autonomously;
        // host signals are never needed (the extension's whole point).
        let nic_covers_everything = self.config.nic_offload && self.bcast_waits.is_empty();
        if !self.bypass_idle() && !nic_covers_everything {
            self.set_signals(true);
        }
        // The *call* returns now; the reduction itself continues
        // asynchronously. (For the non-split internal-node path the caller
        // needed only the call semantics, so the request completes `Done`.)
        self.inner.complete_shell(req, Outcome::Done);
    }

    /// NIC-context pre-processing (the §VII extension): match and fold the
    /// packet entirely on the NIC processor. Returns `Some(pkt)` to deliver
    /// to the host (no descriptor matched: a root-instance or early packet).
    fn nic_process(&mut self, pkt: Packet) -> Option<Packet> {
        if pkt.header.kind != PacketKind::Collective
            || coll_tag_code(pkt.header.tag) != Some(coll_code::REDUCE)
        {
            // The NIC firmware only understands reduce descriptors;
            // broadcast traffic goes to the host path.
            return Some(pkt);
        }
        let src = pkt.header.src.0;
        let ctx = pkt.header.context;
        let (idx, probed) = self.descriptors.find_for_sender(src, ctx);
        let match_cost = self.inner.cost().nic_match().scaled(probed.max(1) as u64);
        self.inner.charge(CpuCategory::NicOffload, match_cost);
        let Some(idx) = idx else {
            return Some(pkt);
        };
        {
            let d = self.descriptors.get_mut(idx);
            debug_assert_eq!(d.coll_seq, pkt.header.coll_seq, "instance mismatch");
            // Idempotence: retire the sender's pending slot *before* folding
            // so a retransmitted contribution can never be reduced twice.
            if !d.complete_child(src) {
                self.stats.duplicates_suppressed += 1;
                return None;
            }
            let elems = d.dtype.count(d.acc.len());
            let (op, dtype) = (d.op, d.dtype);
            let op_cost = self.inner.cost().nic_reduce_op(elems);
            self.inner.charge(CpuCategory::NicOffload, op_cost);
            op.apply(dtype, &mut d.acc, &pkt.payload)
                .expect("op/type checked at post");
        }
        self.stats.nic_children += 1;
        self.stats.zero_copy_children += 1;
        if self.descriptors.get_mut(idx).is_complete() {
            self.finish_descriptor_from_nic(idx);
        }
        None
    }

    /// A NIC-resident descriptor drained: the NIC forwards the result to
    /// the parent itself and flags completion to the host. Zero host cost.
    fn finish_descriptor_from_nic(&mut self, idx: usize) {
        let d = self.descriptors.remove(idx);
        let fwd_cost = self.inner.cost().nic_match();
        self.inner.charge(CpuCategory::NicOffload, fwd_cost);
        let acc = d.acc;
        if let Some(parent) = d.parent {
            let header = abr_gm::packet::PacketHeader {
                src: abr_gm::packet::NodeId(self.inner.rank()),
                dst: abr_gm::packet::NodeId(parent),
                kind: PacketKind::Collective,
                context: d.context,
                tag: coll_tag(coll_code::REDUCE, d.coll_seq, 0),
                coll_seq: d.coll_seq,
                coll_root: d.root,
                msg_len: acc.len() as u32,
                wire_seq: 0,
                rel_seq: 0,
            };
            self.inner
                .push_action(Action::Send(Packet::new(header, Bytes::from(acc))));
            self.stats.nic_parent_sends += 1;
            if let Some(call) = d.call_req {
                self.hints.remove(&call.raw());
                self.inner.complete_shell(call, Outcome::Done);
            }
        } else if let Some(call) = d.call_req {
            self.hints.remove(&call.raw());
            self.inner
                .complete_shell(call, Outcome::Data(Bytes::from(acc)));
        } else {
            debug_assert!(false, "rootless descriptor without a call request");
        }
    }

    /// Classify one incoming packet (Fig. 4 gray boxes / Fig. 5). Returns
    /// `Some(packet)` if it must pass through to the default MPICH path.
    fn preprocess(&mut self, pkt: Packet, in_signal: bool) -> Option<Packet> {
        if pkt.header.kind != PacketKind::Collective {
            return Some(pkt);
        }
        if coll_tag_code(pkt.header.tag) == Some(coll_code::BCAST) {
            return self.preprocess_bcast(pkt, in_signal);
        }
        let src = pkt.header.src.0;
        let ctx = pkt.header.context;
        let (idx, probed) = self.descriptors.find_for_sender(src, ctx);
        let probe_cost = self.inner.cost().descriptor_probe(probed);
        self.inner.charge(CpuCategory::Protocol, probe_cost);
        let Some(idx) = idx else {
            if pkt.header.coll_root == self.inner.rank() {
                // This rank is the instance's root running the standard
                // synchronous code: leave the packet to default MPICH
                // mechanisms (Fig. 4).
                return Some(pkt);
            }
            // Early message: no descriptor yet. Park it with a single copy
            // (§V-A: half of MPICH's two-copy unexpected path).
            let copy = self.inner.cost().copy(pkt.payload.len());
            self.inner.charge(CpuCategory::Protocol, copy);
            self.stats.ab_unexpected_parked += 1;
            self.ab_unexpected.push(AbUnexpectedMsg {
                src,
                tag: pkt.header.tag,
                context: ctx,
                coll_seq: pkt.header.coll_seq,
                root: pkt.header.coll_root,
                data: pkt.payload,
            });
            return None;
        };
        // Expected or late message: apply the operator directly from the
        // packet buffer — zero copies (§V-C).
        {
            let d = self.descriptors.get_mut(idx);
            debug_assert_eq!(d.coll_seq, pkt.header.coll_seq, "instance mismatch");
            // Idempotence: retire the sender's pending slot *before* folding
            // so a retransmitted contribution can never be reduced twice.
            if !d.complete_child(src) {
                self.stats.duplicates_suppressed += 1;
                return None;
            }
            let elems = d.dtype.count(d.acc.len());
            let (op, dtype) = (d.op, d.dtype);
            let op_cost = self.inner.cost().reduce_op(elems);
            self.inner.charge(CpuCategory::Protocol, op_cost);
            op.apply(dtype, &mut d.acc, &pkt.payload)
                .expect("op/type checked at post");
        }
        self.stats.zero_copy_children += 1;
        if in_signal {
            self.stats.async_children += 1;
        } else {
            self.stats.sync_children += 1;
        }
        if self.descriptors.get_mut(idx).is_complete() {
            self.finish_descriptor(idx, in_signal);
        }
        None
    }

    /// All children of the descriptor at `idx` have reported: send the
    /// result to the parent (or hand it to the split-phase root's request),
    /// dequeue, and disable signals if nothing remains outstanding (Fig. 5).
    fn finish_descriptor(&mut self, idx: usize, in_signal: bool) {
        self.inner.tracer().emit(TraceEvent::EngineState {
            state: "descriptor-done",
        });
        let d = self.descriptors.remove(idx);
        let desc_cost = self.inner.cost().descriptor();
        self.inner.charge(CpuCategory::Protocol, desc_cost);
        let acc = d.acc;
        if let Some(parent) = d.parent {
            self.eager_send(
                parent,
                coll_tag(coll_code::REDUCE, d.coll_seq, 0),
                d.context,
                Bytes::from(acc),
                d.coll_seq,
                d.root,
            );
            if in_signal {
                self.stats.async_parent_sends += 1;
            } else {
                self.stats.sync_parent_sends += 1;
            }
            if let Some(call) = d.call_req {
                self.hints.remove(&call.raw());
                if !in_signal {
                    self.stats.completed_in_sync += 1;
                }
                self.inner.complete_shell(call, Outcome::Done);
            }
        } else if let Some(call) = d.call_req {
            // Split-phase root: the request carries the final result.
            self.hints.remove(&call.raw());
            self.inner
                .complete_shell(call, Outcome::Data(Bytes::from(acc)));
        } else {
            debug_assert!(false, "rootless descriptor without a call request");
        }
        if self.bypass_idle() {
            self.set_signals(false);
        }
    }

    /// The broadcast half of pre-processing: data from a parent either
    /// satisfies the oldest matching [`BcastWait`] (forward to children,
    /// complete the request — ref. \[8\]'s design) or parks as early.
    fn preprocess_bcast(&mut self, pkt: Packet, in_signal: bool) -> Option<Packet> {
        let src = pkt.header.src.0;
        let ctx = pkt.header.context;
        let (idx, probed) = self.bcast_waits.find_for_parent(src, ctx);
        let probe_cost = self.inner.cost().descriptor_probe(probed);
        self.inner.charge(CpuCategory::Protocol, probe_cost);
        match idx {
            Some(i) => {
                let w = self.bcast_waits.remove(i);
                debug_assert_eq!(w.coll_seq, pkt.header.coll_seq, "bcast instance mismatch");
                self.deliver_bcast(w, pkt.payload, in_signal);
                None
            }
            None => {
                // Early: the wait is not registered yet (this rank has not
                // reached its ibcast_split call). Park with one copy.
                let copy = self.inner.cost().copy(pkt.payload.len());
                self.inner.charge(CpuCategory::Protocol, copy);
                self.stats.ab_unexpected_parked += 1;
                self.ab_unexpected.push(AbUnexpectedMsg {
                    src,
                    tag: pkt.header.tag,
                    context: ctx,
                    coll_seq: pkt.header.coll_seq,
                    root: pkt.header.coll_root,
                    data: pkt.payload,
                });
                None
            }
        }
    }

    /// The parent's broadcast payload is in hand: forward it down the
    /// subtree and complete the split-phase request with the data.
    fn deliver_bcast(&mut self, w: BcastWait, data: Bytes, in_signal: bool) {
        self.inner.tracer().emit(TraceEvent::EngineState {
            state: "bcast-delivered",
        });
        let desc_cost = self.inner.cost().descriptor();
        self.inner.charge(CpuCategory::Protocol, desc_cost);
        // Largest subtree first, like the blocking path.
        let rank = self.inner.rank();
        for i in (0..w.sched.children_of(rank).len()).rev() {
            let child = w.sched.children_of(rank)[i];
            self.eager_send(
                child,
                coll_tag(coll_code::BCAST, w.coll_seq, 0),
                w.context,
                data.clone(),
                w.coll_seq,
                w.root,
            );
            self.stats.bcast_forwards += 1;
        }
        if in_signal {
            self.stats.async_bcasts += 1;
        }
        self.hints.remove(&w.call_req.raw());
        self.inner.complete_shell(w.call_req, Outcome::Data(data));
        if self.bypass_idle() {
            self.set_signals(false);
        }
    }

    /// Send one collective-type packet of bypass traffic. Bypass runs only
    /// at or below the eager limit, so the send completes at post and
    /// enters no request.
    fn eager_send(
        &mut self,
        dst: Rank,
        tag: i32,
        context: u32,
        data: Bytes,
        coll_seq: u64,
        root: Rank,
    ) {
        let kind = PacketKind::Collective;
        let rndv = self
            .inner
            .isend_internal(dst, tag, context, data, kind, coll_seq, root);
        debug_assert!(rndv.is_none(), "bypass traffic above the eager limit");
    }

    /// Run pre-processing over everything in the receive queue, forwarding
    /// pass-through packets to the inner engine.
    fn drain_rx(&mut self, in_signal: bool) -> bool {
        let mut progressed = false;
        while let Some(pkt) = self.rx.pop_front() {
            progressed = true;
            let (src, kind, bytes) = (
                pkt.header.src.0,
                pkt.header.kind.label(),
                pkt.header.msg_len,
            );
            if let Some(pass) = self.preprocess(pkt, in_signal) {
                // Pass-through: the inner engine emits its PacketRecv
                // when it processes the packet.
                self.inner.deliver(pass);
            } else {
                // Consumed by pre-processing: this was the acceptance
                // point, so emit the engine-level receive here.
                self.inner
                    .tracer()
                    .emit(TraceEvent::PacketRecv { src, kind, bytes });
            }
        }
        progressed
    }
}

/// The bypass engine runs each pipeline segment as a split-phase
/// sub-request, completed by the progress paths or by signals.
impl SegRunner for AbEngine {
    type Sub = ReqId;

    fn start_reduce(&mut self, call: &PipeCall, lane: &Lane, seg: usize, acc: Vec<u8>) -> ReqId {
        let (comm, seq) = (call.comm, lane.reduce_seq + seg as u64);
        let sched = Arc::clone(&lane.sched);
        self.ireduce_split_with_seq(&comm, lane.root, call.op, call.dtype, &acc, seq, sched)
    }

    fn start_bcast(
        &mut self,
        call: &PipeCall,
        lane: &Lane,
        seg: usize,
        data: Option<Bytes>,
        len: usize,
    ) -> ReqId {
        let seq = lane.bcast_seq.expect("a broadcasting lane") + seg as u64;
        let sched = Arc::clone(&lane.sched);
        self.ibcast_split_with_seq(&call.comm, lane.root, data, len, seq, sched)
    }

    fn step(&mut self, sub: &mut ReqId) -> StepRes {
        match self.inner.test(*sub) {
            true => StepRes::done(self.inner.take_outcome(*sub).unwrap_or(Outcome::Done)),
            false => StepRes::pending(false),
        }
    }

    fn tracer(&self) -> &TraceHandle {
        self.inner.tracer()
    }
}

impl MessageEngine for AbEngine {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }
    fn size(&self) -> u32 {
        self.inner.size()
    }
    fn world(&self) -> Communicator {
        self.inner.world()
    }

    fn set_tracer(&mut self, trace: TraceHandle) {
        self.inner.set_tracer(trace);
    }

    fn deliver(&mut self, pkt: Packet) {
        // Idempotence under retransmission: a duplicate that slipped past
        // the reliability layer must not reach pre-processing, or its
        // contribution could fold into a descriptor twice.
        if pkt.header.rel_seq != 0 {
            let last = self.last_rel_seq.entry(pkt.header.src.0).or_insert(0);
            if pkt.header.rel_seq <= *last {
                self.stats.duplicates_suppressed += 1;
                return;
            }
            *last = pkt.header.rel_seq;
        }
        self.rx.push_back(pkt);
    }

    fn progress(&mut self) -> bool {
        let a = self.drain_rx(false);
        let b = self.inner.progress();
        self.advance_pipelines();
        a || b
    }

    /// Fig. 5: the NIC raised a signal. All work done here is accounted as
    /// signal-handler CPU.
    fn handle_signal(&mut self) -> bool {
        self.stats.signals_handled += 1;
        self.inner.tracer().emit(TraceEvent::PhaseEnter {
            phase: "signal-handler",
        });
        let stash = self.inner.take_charges();
        let sig_cost = self.inner.cost().signal_cost();
        self.inner.charge(CpuCategory::SignalHandler, sig_cost);
        let a = self.drain_rx(true);
        let b = self.inner.crank();
        self.advance_pipelines();
        // Everything charged during the handler counts as signal time.
        let work = self.inner.take_charges();
        let mut recat = Charges::ZERO;
        recat.add(CpuCategory::SignalHandler, work.total());
        self.inner.merge_charges(stash);
        self.inner.merge_charges(recat);
        self.inner.tracer().emit(TraceEvent::PhaseExit {
            phase: "signal-handler",
        });
        a || b
    }

    fn drain_actions(&mut self) -> Vec<Action> {
        self.inner.drain_actions()
    }
    fn drain_actions_into(&mut self, out: &mut Vec<Action>) {
        self.inner.drain_actions_into(out)
    }
    fn take_charges(&mut self) -> Charges {
        self.inner.take_charges()
    }
    fn test(&self, req: ReqId) -> bool {
        self.inner.test(req)
    }
    fn take_outcome(&mut self, req: ReqId) -> Option<Outcome> {
        self.inner.take_outcome(req)
    }
    fn isend(&mut self, comm: &Communicator, dst: Rank, tag: i32, data: Bytes) -> ReqId {
        self.inner.isend(comm, dst, tag, data)
    }
    fn irecv(&mut self, comm: &Communicator, src: Option<Rank>, tag: TagSel, cap: usize) -> ReqId {
        self.inner.irecv(comm, src, tag, cap)
    }

    /// The paper's application-bypass `MPI_Reduce` (Fig. 3). With an
    /// [`EngineConfig::segments`] window of 2+, large payloads run as a
    /// segmented pipeline of eager-sized bypassed reduces instead of
    /// falling back to the stock rendezvous path.
    fn ireduce(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        if let Some(failed) = self.inner.reject(comm, root, Some((op, dtype))) {
            return failed;
        }
        // Plan first (see `ireduce_split`): all ranks must agree on the
        // segment count before any rank-local mode decision.
        let (k, seg_bytes) = self
            .inner
            .segment_plan(root, comm.size, data.len(), dtype.size());
        if k >= 2 {
            return self.ireduce_segmented(comm, root, op, dtype, data, k, seg_bytes, false);
        }
        let seq = self.inner.alloc_coll_seq(comm.coll_context);
        let rank = self.inner.rank();
        let sched = self.inner.schedule(root, comm.size);
        // §V-B mode decision.
        let fallback = if !self.config.enabled {
            Some(&mut self.stats.fallback_disabled)
        } else if rank == root {
            Some(&mut self.stats.fallback_root)
        } else if sched.is_leaf(rank) {
            Some(&mut self.stats.fallback_leaf)
        } else if data.len() > self.inner.eager_limit() {
            Some(&mut self.stats.fallback_large)
        } else {
            None
        };
        if let Some(count) = fallback {
            *count += 1;
            return self
                .inner
                .ireduce_with_seq(comm, root, op, dtype, data, seq, sched);
        }
        self.stats.ab_reductions += 1;
        let parent = sched.parent_of(rank);
        debug_assert!(parent.is_some(), "internal node always has a parent");
        self.ab_reduce_start(comm, root, op, dtype, data, seq, parent, false, sched)
    }

    fn ibcast(
        &mut self,
        comm: &Communicator,
        root: Rank,
        data: Option<Bytes>,
        len: usize,
    ) -> ReqId {
        self.inner.ibcast(comm, root, data, len)
    }
    fn ibarrier(&mut self, comm: &Communicator) -> ReqId {
        self.inner.ibarrier(comm)
    }
    fn iallreduce(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        // Allreduce is not bypassed, so its internal reduce must NOT use
        // the collective packet type (§V-A reserves it for application-
        // bypass reduction traffic): non-root ranks have no descriptors and
        // would park these packets on the AB unexpected queue forever.
        let saved = self.inner.reduce_packet_kind();
        self.inner.set_reduce_packet_kind(PacketKind::Eager);
        let req = self.inner.iallreduce(comm, op, dtype, data);
        self.inner.set_reduce_packet_kind(saved);
        req
    }

    fn iallreduce_dual(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        // The blocking dual-root allreduce runs the stock two-chain
        // pipeline; like `iallreduce`, its reduce halves must not emit the
        // collective packet type (no descriptors exist for them).
        let saved = self.inner.reduce_packet_kind();
        self.inner.set_reduce_packet_kind(PacketKind::Eager);
        let req = self.inner.iallreduce_dual(comm, op, dtype, data);
        self.inner.set_reduce_packet_kind(saved);
        req
    }

    fn iallreduce_dual_split(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        AbEngine::iallreduce_dual_split(self, comm, op, dtype, data)
    }

    fn ireduce_split(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        AbEngine::ireduce_split(self, comm, root, op, dtype, data)
    }

    fn ibcast_split(
        &mut self,
        comm: &Communicator,
        root: Rank,
        data: Option<Bytes>,
        len: usize,
    ) -> ReqId {
        AbEngine::ibcast_split(self, comm, root, data, len)
    }

    fn has_pending_signal_work(&self) -> bool {
        self.rx
            .iter()
            .any(|p| p.header.kind == PacketKind::Collective)
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut c = self.inner.counters();
        let s = &self.stats;
        c.extend([
            ("ab_reductions", s.ab_reductions),
            ("fallback_root", s.fallback_root),
            ("fallback_leaf", s.fallback_leaf),
            ("fallback_large", s.fallback_large),
            ("sync_children", s.sync_children),
            ("async_children", s.async_children),
            ("ab_unexpected_parked", s.ab_unexpected_parked),
            ("zero_copy_children", s.zero_copy_children),
            ("signals_handled", s.signals_handled),
            ("delegated_to_async", s.delegated_to_async),
            ("completed_in_sync", s.completed_in_sync),
            ("copies_saved", s.copies_saved()),
            (
                "descriptor_high_water",
                self.descriptors.high_water() as u64,
            ),
            ("nic_children", s.nic_children),
            ("bcast_splits", s.bcast_splits),
            ("bcast_forwards", s.bcast_forwards),
            ("ab_duplicates_suppressed", s.duplicates_suppressed),
        ]);
        c
    }

    fn bounded_block_hint(&self, req: ReqId) -> Option<SimDuration> {
        self.hints.get(&req.raw()).copied()
    }

    fn sleeps_when_blocked(&self) -> bool {
        // With bypass on, the NIC raises a signal for every arrival that
        // matters, so a blocked caller can park in `sigsuspend` instead of
        // spinning on the progress engine.
        self.config.enabled
    }

    fn split_phase_exit(&mut self, req: ReqId) {
        self.exit_sync(req);
    }

    fn nic_preprocess(&mut self, pkt: Packet) -> Option<Packet> {
        if !self.config.enabled || !self.config.nic_offload {
            return Some(pkt);
        }
        self.nic_process(pkt)
    }
}
