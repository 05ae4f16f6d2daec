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

/// How a reduce reaches the §V-B mode select. The entries differ on
/// purpose: a split-phase root bypasses too, and a single split-phase
/// instance (every pipeline segment is one) sends a leaf or a size-1
/// communicator down the stock path without counting a fallback.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// The blocking `MPI_Reduce` of Fig. 3.
    Blocking,
    /// One split-phase instance: a whole call or one pipeline segment.
    Split,
    /// A reduce call whose payload the segment plan splits.
    Segmented { split: bool },
}

/// Where a child's contribution is folded in, which sets what the fold and
/// the descriptor finish charge and count.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fold {
    /// Swept off an unexpected queue by the synchronous call; the message
    /// was copied once when it arrived early.
    Swept,
    /// Host pre-processing straight from the packet buffer, inside a
    /// signal handler or not.
    Host { in_signal: bool },
    /// The NIC processor (§VII), charged to the NIC meter.
    Nic,
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
        self.post_reduce(comm, root, op, dtype, data, true)
    }

    /// Shared body of the blocking and split-phase reduce calls. A payload
    /// the segment plan splits runs as one sequence number per segment: the
    /// stock segmented pipeline on the §V-B fallback ranks, a pipeline of
    /// per-segment bypassed reduces everywhere else. The two are
    /// wire-compatible because both tag segment `i` with `base_seq + i`.
    fn post_reduce(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
        split: bool,
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
        if k < 2 {
            let seq = self.inner.alloc_coll_seq(comm.coll_context);
            let sched = self.inner.schedule(root, comm.size);
            let entry = if split { Entry::Split } else { Entry::Blocking };
            return self.reduce_instance(entry, comm, root, op, dtype, data, seq, sched);
        }
        // Reserve the block even on fallback ranks: every rank must consume
        // the same count to keep later instances' tags aligned.
        let base_seq = self.inner.alloc_seq_range(comm.coll_context, k);
        let sched = self.inner.schedule(root, comm.size);
        if !self.bypasses(Entry::Segmented { split }, root, &sched, seg_bytes) {
            return self
                .inner
                .ireduce_segmented_with_seqs(comm, root, op, dtype, data, base_seq, k, seg_bytes);
        }
        let lane =
            self.inner
                .reduce_lane(comm, root, data.len(), base_seq, k, seg_bytes, "seg-split");
        self.post_pipeline(comm, op, dtype, data, [lane])
    }

    /// The §V-B mode select, for every reduce entry: true to bypass,
    /// otherwise the reduce takes the stock path. Either way it counts the
    /// outcome. `len` is what one bypassed instance carries (a segment's
    /// bytes under a segmented plan).
    fn bypasses(&mut self, entry: Entry, root: Rank, sched: &TopoSchedule, len: usize) -> bool {
        let rank = self.inner.rank();
        let split = matches!(entry, Entry::Split | Entry::Segmented { split: true });
        // A leaf, or the root of a size-1 communicator: nothing to fold.
        let childless = sched.children_of(rank).is_empty();
        let s = &mut self.stats;
        let fallback = if !self.config.enabled {
            &mut s.fallback_disabled
        } else if !split && rank == root {
            &mut s.fallback_root
        } else if childless && entry != Entry::Split {
            &mut s.fallback_leaf
        } else if len > self.inner.eager_limit() {
            &mut s.fallback_large
        } else if childless {
            // The stock path completes a leaf's only action, the send,
            // without blocking.
            return false;
        } else {
            match entry {
                Entry::Blocking | Entry::Segmented { split: false } => s.ab_reductions += 1,
                Entry::Split => s.split_phase_started += 1,
                Entry::Segmented { split: true } => {}
            }
            return true;
        };
        *fallback += 1;
        false
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
        let req = self.inner.alloc_shell_req();
        if rank == root {
            let payload = data.expect("the root supplies bcast data");
            debug_assert_eq!(payload.len(), len);
            self.forward_bcast(comm.coll_context, seq, root, &sched, &payload);
            self.inner.complete_shell(req, Outcome::Data(payload));
            return req;
        }
        let parent = sched.parent_of(rank).expect("non-root has a parent");
        let tag = coll_tag(coll_code::BCAST, seq, 0);
        let w = BcastWait {
            context: comm.coll_context,
            coll_seq: seq,
            root,
            parent,
            len,
            sched,
            call_req: req,
        };
        // The parent's data may already be parked (early arrival).
        if let Some(msg) = self.ab_unexpected.take(parent, tag, comm.coll_context) {
            debug_assert_eq!(msg.coll_seq, seq, "bcast instance mix-up");
            self.deliver_bcast(w, msg.data, false);
            return req;
        }
        self.bcast_waits.push(w);
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

    /// One reduce instance on sequence number `seq` over `sched`: the §V-B
    /// mode select, then the stock reduce or Fig. 3's synchronous
    /// component. A split-phase root has no parent and keeps the result.
    #[allow(clippy::too_many_arguments)] // ireduce's arguments + entry, seq, sched
    fn reduce_instance(
        &mut self,
        entry: Entry,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
        seq: u64,
        sched: Arc<TopoSchedule>,
    ) -> ReqId {
        if !self.bypasses(entry, root, &sched, data.len()) {
            return self
                .inner
                .ireduce_with_seq(comm, root, op, dtype, data, seq, sched);
        }
        let split = entry == Entry::Split;
        let rank = self.inner.rank();
        let ctx = comm.coll_context;
        let parent = sched.parent_of(rank);
        debug_assert!(
            split || parent.is_some(),
            "internal node always has a parent"
        );
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
        self.descriptors.push(ReduceDescriptor {
            context: ctx,
            coll_seq: seq,
            root,
            op,
            dtype,
            acc: data.to_vec(),
            parent,
            pending_children: kids.to_vec(),
            call_req: Some(req),
        });
        let idx = self.descriptors.len() - 1;
        let tag = coll_tag(coll_code::REDUCE, seq, 0);
        // Fold in children already parked on the AB unexpected queue —
        // processed directly from the queue, no second copy (§V-B). If
        // every child was already waiting, the whole reduction finishes
        // inside the synchronous call.
        let mut finished = false;
        for &child in kids {
            if let Some(msg) = self.ab_unexpected.take(child, tag, ctx) {
                finished |= self.fold(idx, child, msg.coll_seq, &msg.data, Fold::Swept);
            }
        }
        // The split-phase root may find children in the *MPICH* unexpected
        // queue (they passed through pre-processing before this descriptor
        // existed, back when this rank looked like a blocking root).
        if parent.is_none() && !finished {
            let pending = self.descriptors.get_mut(idx).pending_children.clone();
            for child in pending {
                let sel = TagSel::Is(tag);
                if let Some(msg) = self.inner.take_unexpected(Some(child), sel, ctx) {
                    self.fold(idx, child, msg.coll_seq, &msg.data, Fold::Swept);
                }
            }
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
            // A non-root descriptor that finished inside the call was
            // already counted by `finish_descriptor`, so it counts twice.
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

    /// Classify one incoming packet (Fig. 4 gray boxes / Fig. 5), on the
    /// host or, under the §VII extension, on the NIC processor. Returns
    /// `Some(packet)` if it must pass through: to the default MPICH path
    /// on the host, or from the NIC up to the host.
    fn preprocess(&mut self, pkt: Packet, by: Fold) -> Option<Packet> {
        let code = coll_tag_code(pkt.header.tag);
        // The NIC firmware only understands reduce descriptors; broadcast
        // traffic goes to the host path.
        let nic = by == Fold::Nic;
        if pkt.header.kind != PacketKind::Collective || (nic && code != Some(coll_code::REDUCE)) {
            return Some(pkt);
        }
        let (src, ctx) = (pkt.header.src.0, pkt.header.context);
        let bcast = code == Some(coll_code::BCAST);
        let (idx, probed) = match bcast {
            true => self.bcast_waits.find_for_parent(src, ctx),
            false => self.descriptors.find_for_sender(src, ctx),
        };
        let (category, probe_cost) = match nic {
            true => (
                CpuCategory::NicOffload,
                self.inner.cost().nic_match().scaled(probed.max(1) as u64),
            ),
            false => (
                CpuCategory::Protocol,
                self.inner.cost().descriptor_probe(probed),
            ),
        };
        self.inner.charge(category, probe_cost);
        match idx {
            // The parent's broadcast data: forward it and complete the
            // request (ref. \[8\]'s design).
            Some(i) if bcast => {
                let w = self.bcast_waits.remove(i);
                debug_assert_eq!(w.coll_seq, pkt.header.coll_seq, "bcast instance mismatch");
                self.deliver_bcast(w, pkt.payload, by == Fold::Host { in_signal: true });
            }
            // Expected or late message: apply the operator directly from
            // the packet buffer — zero copies (§V-C).
            Some(i) => {
                self.fold(i, src, pkt.header.coll_seq, &pkt.payload, by);
            }
            // No descriptor on the NIC: a root-instance or early packet,
            // for the host. On the host, this rank is the instance's root
            // running the standard synchronous code: leave the packet to
            // default MPICH mechanisms (Fig. 4).
            None if nic || (!bcast && pkt.header.coll_root == self.inner.rank()) => {
                return Some(pkt)
            }
            // Early message: no descriptor or wait yet (this rank has not
            // reached its call). Park it with a single copy (§V-A: half of
            // MPICH's two-copy unexpected path).
            None => {
                let copy = self.inner.cost().copy(pkt.payload.len());
                self.inner.charge(CpuCategory::Protocol, copy);
                self.stats.ab_unexpected_parked += 1;
                let h = &pkt.header;
                self.ab_unexpected.push(AbUnexpectedMsg {
                    src,
                    tag: h.tag,
                    context: ctx,
                    coll_seq: h.coll_seq,
                    root: h.coll_root,
                    data: pkt.payload,
                });
            }
        }
        None
    }

    /// Fold `child`'s contribution to instance `coll_seq` into the
    /// descriptor at `idx`, and finish the descriptor if that was its last
    /// child; returns true if it finished. `by` sets what the fold charges
    /// and counts.
    fn fold(&mut self, idx: usize, child: Rank, coll_seq: u64, data: &[u8], by: Fold) -> bool {
        let d = self.descriptors.get_mut(idx);
        debug_assert_eq!(d.coll_seq, coll_seq, "instance mismatch");
        // Idempotence: retire the sender's pending slot *before* folding
        // so a retransmitted contribution can never be reduced twice.
        if !d.complete_child(child) {
            self.stats.duplicates_suppressed += 1;
            return false;
        }
        let elems = d.dtype.count(d.acc.len());
        let (category, op_cost) = match by {
            Fold::Nic => (
                CpuCategory::NicOffload,
                self.inner.cost().nic_reduce_op(elems),
            ),
            _ => (CpuCategory::Protocol, self.inner.cost().reduce_op(elems)),
        };
        self.inner.charge(category, op_cost);
        d.op.apply(d.dtype, &mut d.acc, data)
            .expect("op/type checked at post");
        let finished = d.is_complete();
        // A swept child was copied once when it parked; every other fold
        // reads the packet buffer.
        self.stats.zero_copy_children += u64::from(by != Fold::Swept);
        *match by {
            Fold::Nic => &mut self.stats.nic_children,
            Fold::Host { in_signal: true } => &mut self.stats.async_children,
            _ => &mut self.stats.sync_children,
        } += 1;
        if finished {
            self.finish_descriptor(idx, by);
        }
        finished
    }

    /// All children of the descriptor at `idx` have reported: send the
    /// result to the parent (or hand it to the split-phase root's request)
    /// and dequeue (Fig. 5). On the host, disable signals if nothing
    /// remains outstanding. On the NIC, the NIC forwards the result itself
    /// and flags completion to the host, at zero host cost.
    fn finish_descriptor(&mut self, idx: usize, by: Fold) {
        let nic = by == Fold::Nic;
        if !nic {
            self.inner.tracer().emit(TraceEvent::EngineState {
                state: "descriptor-done",
            });
        }
        let d = self.descriptors.remove(idx);
        let (category, cost) = match nic {
            true => (CpuCategory::NicOffload, self.inner.cost().nic_match()),
            false => (CpuCategory::Protocol, self.inner.cost().descriptor()),
        };
        self.inner.charge(category, cost);
        let acc = Bytes::from(d.acc);
        let outcome = match d.parent {
            // Split-phase root: the request carries the final result.
            None => Outcome::Data(acc),
            Some(parent) => {
                let tag = coll_tag(coll_code::REDUCE, d.coll_seq, 0);
                if nic {
                    let (kind, len) = (PacketKind::Collective, acc.len());
                    let (ctx, seq) = (d.context, d.coll_seq);
                    self.inner
                        .send_packet(parent, kind, ctx, tag, seq, d.root, len, acc);
                } else {
                    self.eager_send(parent, tag, d.context, acc, d.coll_seq, d.root);
                }
                let sync = matches!(by, Fold::Swept | Fold::Host { in_signal: false });
                self.stats.completed_in_sync += u64::from(sync && d.call_req.is_some());
                Outcome::Done
            }
        };
        match d.call_req {
            Some(call) => {
                self.hints.remove(&call.raw());
                self.inner.complete_shell(call, outcome);
            }
            None => debug_assert!(
                d.parent.is_some(),
                "rootless descriptor without a call request"
            ),
        }
        if !nic && self.bypass_idle() {
            self.set_signals(false);
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
        self.forward_bcast(w.context, w.coll_seq, w.root, &w.sched, &data);
        self.stats.async_bcasts += u64::from(in_signal);
        self.inner.complete_shell(w.call_req, Outcome::Data(data));
        if self.bypass_idle() {
            self.set_signals(false);
        }
    }

    /// Send a broadcast payload down this rank's subtree, largest subtree
    /// first like the blocking path.
    fn forward_bcast(
        &mut self,
        context: u32,
        seq: u64,
        root: Rank,
        sched: &TopoSchedule,
        data: &Bytes,
    ) {
        let tag = coll_tag(coll_code::BCAST, seq, 0);
        for &child in sched.children_of(self.inner.rank()).iter().rev() {
            self.eager_send(child, tag, context, data.clone(), seq, root);
            self.stats.bcast_forwards += 1;
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

    /// Post a stock collective whose reduce phase must not use the
    /// collective packet type (§V-A reserves it for application-bypass
    /// reduction traffic): no descriptors exist for it, so non-root ranks
    /// would park its packets on the AB unexpected queue forever.
    fn with_eager_reduces(&mut self, post: impl FnOnce(&mut Engine) -> ReqId) -> ReqId {
        let saved = self.inner.reduce_packet_kind();
        self.inner.set_reduce_packet_kind(PacketKind::Eager);
        let req = post(&mut self.inner);
        self.inner.set_reduce_packet_kind(saved);
        req
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
            if let Some(pass) = self.preprocess(pkt, Fold::Host { in_signal }) {
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
        let (op, dtype) = (call.op, call.dtype);
        self.reduce_instance(Entry::Split, &comm, lane.root, op, dtype, &acc, seq, sched)
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
        self.post_reduce(comm, root, op, dtype, data, false)
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
        // Allreduce is not bypassed: it runs the stock reduce + broadcast.
        self.with_eager_reduces(|e| e.iallreduce(comm, op, dtype, data))
    }

    fn iallreduce_dual(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        // The blocking dual-root allreduce runs the stock two-chain
        // pipeline.
        self.with_eager_reduces(|e| e.iallreduce_dual(comm, op, dtype, data))
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
        self.preprocess(pkt, Fold::Nic)
    }
}
