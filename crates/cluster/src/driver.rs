//! The discrete-event driver.
//!
//! Runs one [`Program`] per node against one [`MessageEngine`] per node,
//! under virtual time:
//!
//! * **Blocking MPI calls** are emulated the way the default MPICH
//!   implementation actually behaves: the node's CPU busy-polls from the
//!   moment the call stalls until the packet that unblocks it arrives. The
//!   driver charges that whole wall-time span as polling CPU — which is
//!   precisely the cost the paper's application-bypass design eliminates
//!   for internal tree nodes.
//! * **Signals** follow §V-A: only collective-type packets raise them, only
//!   while the engine has them enabled, and a signal arriving while the
//!   node is already inside the progress engine (blocked-polling) is
//!   ignored — the poll loop will pick the packet up anyway. A delivered
//!   signal *preempts* whatever the node is doing (busy loops included),
//!   pushing the interrupted work's completion back by the handler time.
//! * **Bounded blocks** implement the §IV-E exit delay: when an engine
//!   reports a bounded-block hint for a request, the driver keeps the node
//!   polling inside the call until the budget expires, then calls
//!   [`MessageEngine::split_phase_exit`].
//! * **Heterogeneity**: protocol and handler CPU charges are scaled by the
//!   node's CPU class; packet delivery times come from the
//!   [`FabricNetwork`] delivery model with per-class PCI/LANai costs and
//!   per-(src,dst) FIFO ordering.
//!
//! # Storage: struct-of-arrays rank state
//!
//! Per-rank state lives in index-addressed arenas (one `Vec` per field
//! class: engines, programs, meters, signal controls, hot scalars), not in
//! per-rank boxed cells. At 64k ranks the hot scalars for a rank are one
//! dense `RankState` row, and the driver is generic over the program type
//! `P` so homogeneous program lists run with no `Box<dyn Program>` vtable
//! hop (the boxed form still works via the default type parameter).
//!
//! # Execution: sequential and parallel-in-one-run
//!
//! [`DesDriver::run`] is the sequential executor: one event queue, FIFO
//! tie-breaking, byte-identical to the historical driver. For large
//! clusters, [`DesDriver::run_sharded`] partitions ranks into contiguous
//! region shards and advances them concurrently between conservative
//! synchronization horizons (a YAWNS-style window): with `T` the globally
//! earliest pending event and `L` the cost model's minimum cross-node
//! delivery latency ([`FabricNetwork::min_delivery_delay`]), every shard may
//! safely process all events strictly before `T + L`, because any packet a
//! handler in the window sends cannot arrive before `T + L`. Cross-shard
//! packets are exchanged through per-shard outboxes at each horizon.
//!
//! Determinism does not depend on the shard count: every event is stamped
//! with a `(origin rank, per-origin counter)` tie-break key, and each
//! origin's handlers run in the same order under any partitioning, so the
//! per-rank event sequences — and therefore all results — are identical for
//! 1, 2, or 8 shards. [`DesDriver::run_auto`] dispatches between the two
//! executors on the `ABR_DES_SHARDS` environment knob.

use crate::node::ClusterSpec;
use crate::program::{Obs, Program, Step, StepCtx};
use abr_des::meter::CpuCategory;
use abr_des::{CpuMeter, EventId, EventQueue, SimDuration, SimTime};
use abr_fabric::FabricNetwork;
use abr_faults::{FaultInjector, FaultPlan, NodeReliability, RelConfig, RelEvent, RelStats};
use abr_gm::nic::NodeHw;
use abr_gm::packet::Packet;
use abr_gm::signal::SignalControl;
use abr_mpr::engine::{Action, EngineConfig, MessageEngine};
use abr_mpr::request::Outcome;
use abr_mpr::types::TagSel;
use abr_mpr::ReqId;
use abr_trace::{TraceEvent, TraceHandle, Tracer};
use std::sync::mpsc;
use std::sync::Arc;

enum Ev {
    Deliver {
        node: usize,
        pkt: Packet,
    },
    StepDone {
        node: usize,
        gen: u64,
    },
    Deadline {
        node: usize,
        req: u64,
        gen: u64,
    },
    Kick {
        node: usize,
    },
    /// Retransmission-timer check for one node's reliability layer.
    RelTick {
        node: usize,
    },
}

/// Fault-injection + reliability state, present only when a non-empty
/// [`FaultPlan`] was installed. With no plan the driver's hot paths are
/// byte-for-byte the fault-free ones (cost neutrality).
struct FaultState {
    injector: FaultInjector,
    rel: Vec<NodeReliability>,
    /// Per-node pending [`Ev::RelTick`]: `(scheduled_at, event)`.
    tick: Vec<Option<(SimTime, EventId)>>,
}

/// Multi-tenant extension state, present only when ranks need translating:
/// several jobs, or one job off the identity placement. With `None` every
/// hot path is byte-for-byte the solo driver's — the same cost-neutrality
/// discipline as [`FaultState`].
///
/// Engines in a tenant run are built with *job-local* ranks (so packet
/// headers, communicators, and schedules all stay inside the job), and the
/// driver owns the translation to the shared cluster: a global arena index
/// per rank (`base_of[job] + local`), and a physical node per arena slot
/// (`phys_of`) through which co-located ranks serialize on one NIC and
/// contend for one CPU.
struct TenantState {
    /// Job of each global arena slot.
    job_of: Vec<u32>,
    /// First global arena slot of each job (ascending; one entry per job).
    base_of: Vec<usize>,
    /// Physical cluster node hosting each global arena slot.
    phys_of: Vec<usize>,
    /// Per-physical-node count of ranks currently blocked in a collective —
    /// i.e. busy-polling, burning CPU their node neighbours need. This is
    /// the CPU-contention signal: active work on a node is stretched by the
    /// number of *other* co-located pollers.
    polling_on_node: Vec<u32>,
}

impl TenantState {
    /// The translation tables for `placements` on a `phys_nodes`-node
    /// cluster, with no rank polling yet.
    fn new(placements: &[Vec<usize>], phys_nodes: usize) -> Self {
        let mut job_of = Vec::new();
        let mut base_of = Vec::with_capacity(placements.len());
        for (j, hosts) in placements.iter().enumerate() {
            base_of.push(job_of.len());
            job_of.resize(job_of.len() + hosts.len(), j as u32);
        }
        TenantState {
            job_of,
            base_of,
            phys_of: placements.concat(),
            polling_on_node: vec![0; phys_nodes],
        }
    }
}

enum NodeState {
    /// Executing a busy-loop step; `charge` is applied when it completes.
    Busy { charge: SimDuration, event: EventId },
    /// Inside a blocking MPI call, busy-polling.
    Blocked {
        req: ReqId,
        deadline_event: Option<EventId>,
    },
    /// Program finished.
    Done,
}

/// Hot per-rank scalars, one dense arena row per rank.
struct RankState {
    state: NodeState,
    /// When this node's CPU is next free.
    cpu_free_at: SimTime,
    /// While blocked: the instant polling (idle-burn) resumed.
    poll_from: SimTime,
    kick_pending: bool,
    /// Generation counter invalidating stale StepDone/Deadline/Kick events.
    gen: u64,
    /// Outstanding split-phase reduce request, if any.
    split_req: Option<ReqId>,
    /// Synthesized signals (enable-with-backlog edge).
    synth_signals: u64,
    /// CPU time consumed by delivered-but-ignored signals, applied to the
    /// node's cursor at the next wake.
    interrupt_debt: SimDuration,
    /// NIC time from the most recent `apply_charges` (drives NIC-side
    /// forwarding latency in the offload extension).
    last_nic_charge: SimDuration,
    /// Whether this rank is currently counted in its physical node's
    /// poller tally (tenant runs only; always `false` solo).
    polling_counted: bool,
    /// Next `wire_seq` this rank stamps on a packet it sends. One counter
    /// per sender is strictly increasing on each of its `(src, dst)`
    /// pairs, which is all the receivers' FIFO check needs.
    wire_seq: u64,
}

impl RankState {
    fn fresh() -> Self {
        RankState {
            state: NodeState::Done, // replaced at start
            cpu_free_at: SimTime::ZERO,
            poll_from: SimTime::ZERO,
            kick_pending: false,
            gen: 0,
            split_req: None,
            synth_signals: 0,
            interrupt_debt: SimDuration::ZERO,
            last_nic_charge: SimDuration::ZERO,
            polling_counted: false,
            wire_seq: 0,
        }
    }

    /// The sequence number for this rank's next packet.
    #[inline]
    fn next_wire_seq(&mut self) -> u64 {
        let seq = self.wire_seq;
        self.wire_seq += 1;
        seq
    }
}

/// A packet crossing shards: carries its arrival time and the tie-break key
/// its source shard already assigned, so the destination shard can insert
/// it into the globally consistent order.
struct OutMsg {
    at: SimTime,
    key: u64,
    dst: usize,
    pkt: Packet,
}

/// Coordinator-to-worker message in the parallel executor.
enum Cmd {
    /// Merge `inbox` into the shard's queue, then process every local event
    /// strictly before `horizon`.
    Window {
        horizon: SimTime,
        inbox: Vec<OutMsg>,
    },
    /// Run complete: return the shard core to the coordinator.
    Finish,
}

/// Worker-to-coordinator report after each window.
struct Rep {
    outbox: Vec<OutMsg>,
    /// `(time, key)` of the shard's next pending event.
    next: Option<(SimTime, u64)>,
    /// Cumulative events processed by this shard.
    events: u64,
}

/// Per-node results extracted after a run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeResult {
    /// Observations recorded by the node's program.
    pub obs: Vec<Obs>,
    /// Total CPU charged, by category (µs).
    pub cpu_app_us: f64,
    /// Polling CPU (µs).
    pub cpu_poll_us: f64,
    /// Protocol CPU (µs).
    pub cpu_protocol_us: f64,
    /// Signal-handler CPU (µs).
    pub cpu_signal_us: f64,
    /// NIC-processor time (µs) — not host CPU.
    pub cpu_nic_us: f64,
    /// Signals actually taken.
    pub signals_raised: u64,
    /// Signals suppressed because progress was underway.
    pub signals_suppressed_busy: u64,
    /// Engine counters.
    pub counters: Vec<(&'static str, u64)>,
}

/// The per-shard simulation core: an event queue, a network, and the rank
/// arenas for the contiguous range `base .. base + len` of global ranks.
/// The sequential executor is a single core owning every rank.
struct Core<E: MessageEngine, P: Program> {
    /// First global rank owned by this core.
    base: usize,
    queue: EventQueue<Ev>,
    network: FabricNetwork,
    // ---- struct-of-arrays rank arenas (index = global rank - base) ----
    engines: Vec<E>,
    programs: Vec<P>,
    signals: Vec<SignalControl>,
    meters: Vec<CpuMeter>,
    ctxs: Vec<StepCtx>,
    rank: Vec<RankState>,
    traces: Vec<TraceHandle>,
    /// Hardware classes for **all** ranks (global index), `Copy`-cheap and
    /// read-only: transmits need the destination's class even when the
    /// destination lives in another shard.
    hw: Vec<NodeHw>,
    done_count: usize,
    packets_delivered: u64,
    /// Events processed by this core.
    events: u64,
    /// Reused buffer for draining engine actions (see `route_actions`).
    action_scratch: Vec<Action>,
    faults: Option<FaultState>,
    tenant: Option<TenantState>,
    /// Stamp events with partition-independent `(origin, counter)` keys
    /// instead of the queue's FIFO sequence. Off for the sequential
    /// executor (byte-identical legacy order), on for the sharded one.
    keyed: bool,
    /// Per-owned-rank tie-break counters (keyed mode).
    key_ctr: Vec<u64>,
    /// Packets destined for ranks outside this core, exchanged at horizons.
    outbox: Vec<OutMsg>,
}

impl<E: MessageEngine, P: Program> Core<E, P> {
    fn len(&self) -> usize {
        self.programs.len()
    }

    #[inline]
    fn owns(&self, node: usize) -> bool {
        node >= self.base && node < self.base + self.programs.len()
    }

    /// Next tie-break key for an event originated by global rank `origin`:
    /// `(origin << 40) | counter`. The counter only advances inside
    /// `origin`'s own handlers, whose order is partition-independent, so
    /// the key sequence — and with it the merged event order — is the same
    /// for any shard count.
    #[inline]
    fn next_key(&mut self, origin: usize) -> u64 {
        let c = &mut self.key_ctr[origin - self.base];
        let key = ((origin as u64) << 40) | *c;
        *c += 1;
        debug_assert!(*c < (1 << 40), "per-origin event counter overflow");
        key
    }

    /// Schedule an event originated by `origin` (the rank whose handler is
    /// running). Sequential mode uses the queue's FIFO sequence; keyed mode
    /// stamps the partition-independent key.
    fn sched(&mut self, origin: usize, at: SimTime, ev: Ev) -> EventId {
        if self.keyed {
            let key = self.next_key(origin);
            self.queue.schedule_keyed(at, key, ev)
        } else {
            self.queue.schedule(at, ev)
        }
    }

    // ------------------------------------------------------------------
    // Multi-tenant contention helpers
    // ------------------------------------------------------------------

    /// Wall-clock duration of `d` of CPU work on rank `i`'s host, under the
    /// tenant CPU-contention model: work is stretched by one extra multiple
    /// per *other* co-located rank that is currently busy-polling inside a
    /// blocking call (a deterministic timeslicing approximation, sampled
    /// when the work is scheduled). Solo drivers — and tenant ranks with no
    /// polling neighbours — take the `d`-unchanged early exits, so the
    /// pre-existing figures never see this arithmetic.
    #[inline]
    fn stretched(&self, i: usize, d: SimDuration) -> SimDuration {
        let Some(ts) = &self.tenant else {
            return d;
        };
        let mut others = ts.polling_on_node[ts.phys_of[i]];
        if self.rank[i - self.base].polling_counted {
            others -= 1; // don't contend with yourself
        }
        if others == 0 {
            return d;
        }
        SimDuration::from_nanos(d.as_nanos().saturating_mul(1 + others as u64))
    }

    /// Rank `i` entered a blocking call that busy-polls: count it against
    /// its node's CPU. Signal-driven engines in an unbounded wait park the
    /// core instead ([`MessageEngine::sleeps_when_blocked`]) and are never
    /// counted; a §IV-E *bounded* poll is a genuine spin regardless of the
    /// engine, so it always counts for its (short) window.
    #[inline]
    fn tenant_poll_start(&mut self, i: usize, bounded: bool) {
        let Some(ts) = &mut self.tenant else {
            return;
        };
        let l = i - self.base;
        debug_assert!(!self.rank[l].polling_counted, "double poll-start");
        if !bounded && self.engines[l].sleeps_when_blocked() {
            return;
        }
        ts.polling_on_node[ts.phys_of[i]] += 1;
        self.rank[l].polling_counted = true;
    }

    /// Rank `i` left its blocking call (completion or split-phase exit).
    /// A no-op for ranks that slept instead of polling.
    #[inline]
    fn tenant_poll_stop(&mut self, i: usize) {
        let Some(ts) = &mut self.tenant else {
            return;
        };
        let l = i - self.base;
        if !self.rank[l].polling_counted {
            return;
        }
        ts.polling_on_node[ts.phys_of[i]] -= 1;
        self.rank[l].polling_counted = false;
    }

    // ------------------------------------------------------------------
    // Engine service helpers
    // ------------------------------------------------------------------

    /// Drain the engine's CPU charges into the node meter, scaling host
    /// work by the CPU class and NIC work by the LANai clock. Returns the
    /// total *host* time (NIC work runs on the NIC processor, concurrently).
    fn apply_charges(&mut self, i: usize) -> SimDuration {
        let l = i - self.base;
        let c = self.engines[l].take_charges();
        let hw = self.hw[i];
        let protocol = hw.scale_cpu(c.protocol);
        let signal = hw.scale_cpu(c.signal);
        // Polling entry costs scale with the CPU too.
        let polling = hw.scale_cpu(c.polling);
        let nic = c.nic.scaled_f64(hw.lanai.per_packet_scale());
        let meter = &mut self.meters[l];
        meter.charge(CpuCategory::Polling, polling);
        meter.charge(CpuCategory::Protocol, protocol);
        meter.charge(CpuCategory::SignalHandler, signal);
        meter.charge(CpuCategory::NicOffload, nic);
        self.rank[l].last_nic_charge = nic;
        polling + protocol + signal
    }

    /// Route the engine's pending actions. Sends are stamped `stamp`.
    fn route_actions(&mut self, i: usize, stamp: SimTime) {
        let l = i - self.base;
        // Double-buffer: drain into a scratch vector that is returned to
        // the core afterwards, so steady-state routing allocates nothing.
        let mut actions = std::mem::take(&mut self.action_scratch);
        self.engines[l].drain_actions_into(&mut actions);
        for a in actions.drain(..) {
            match a {
                Action::Send(pkt) => self.transmit(i, pkt, stamp),
                Action::EnableSignals => {
                    self.signals[l].enable();
                }
                Action::DisableSignals => {
                    self.signals[l].disable();
                }
            }
        }
        self.action_scratch = actions;
    }

    /// Send one engine-originated packet at `stamp`. With faults installed
    /// the packet first passes through the sender's reliability layer
    /// (stamping `rel_seq`, buffering for retransmission); without, this is
    /// exactly the fault-free send.
    fn transmit(&mut self, i: usize, mut pkt: Packet, stamp: SimTime) {
        if let Some(f) = &mut self.faults {
            pkt = f.rel[i - self.base].on_send(pkt, stamp.as_nanos());
        }
        self.transmit_raw(i, pkt, stamp);
        if self.faults.is_some() {
            self.schedule_rel_tick(i, stamp);
        }
    }

    /// Tenant-mode transmit: packet headers carry *job-local* ranks, so the
    /// driver resolves the destination's global arena slot through the
    /// sender's job base, and asks the network for a delivery time between
    /// the two *physical node* ids — the network keys NIC-injection
    /// serialization and FIFO floors off its endpoint ids, so co-located
    /// ranks (any job) share one NIC clock exactly as they share hardware.
    /// The job-local header reaches the receiving engine untouched,
    /// keeping its rank-addressing invariants intact. Per-(src,dst)-floor
    /// FIFO order survives the remap: a job pair's packets are a
    /// subsequence of its physical pair's, and the floor keeps the full
    /// sequence monotone.
    fn transmit_tenant(&mut self, i: usize, mut pkt: Packet, stamp: SimTime) {
        let ts = self.tenant.as_ref().expect("tenant transmit");
        let dst = ts.base_of[ts.job_of[i] as usize] + pkt.header.dst.index();
        let (psrc, pdst) = (ts.phys_of[i] as u32, ts.phys_of[dst] as u32);
        // Wire seqs per *global* sender slot: distinct jobs' identical
        // local ranks must not share a counter.
        pkt.header.wire_seq = self.rank[i - self.base].next_wire_seq();
        let arrive = self.network.delivery_time(
            stamp,
            psrc,
            pdst,
            &self.hw[i],
            &self.hw[dst],
            pkt.wire_bytes(),
        );
        self.send_deliver(i, dst, arrive, pkt);
    }

    /// Put a packet on the wire: stamp `wire_seq`, run the fault injector,
    /// and schedule delivery for every surviving copy. Retransmissions and
    /// acks enter here directly (they bypass `on_send`).
    fn transmit_raw(&mut self, i: usize, mut pkt: Packet, stamp: SimTime) {
        if self.tenant.is_some() {
            // Fault injection is rejected at tenant construction, so the
            // whole reliability path stays solo-only.
            self.transmit_tenant(i, pkt, stamp);
            return;
        }
        debug_assert_eq!(pkt.header.src.index(), i, "sending from the wrong rank");
        pkt.header.wire_seq = self.rank[i - self.base].next_wire_seq();
        let dst = pkt.header.dst.index();
        let (src_hw, dst_hw) = (self.hw[i], self.hw[dst]);
        let (src_id, dst_id, bytes) = (i as u32, dst as u32, pkt.wire_bytes());
        if self.faults.is_none() {
            let arrive = self
                .network
                .delivery_time(stamp, src_id, dst_id, &src_hw, &dst_hw, bytes);
            self.send_deliver(i, dst, arrive, pkt);
            return;
        }
        let f = self.faults.as_mut().expect("checked above");
        let verdict = f.injector.decide(&pkt, Some(stamp.as_nanos()));
        if verdict.copies == 0 {
            // Dropped: the NIC and wire still did the work of sending it,
            // so charge network occupancy exactly as for a delivered packet.
            let _ = self
                .network
                .delivery_time(stamp, src_id, dst_id, &src_hw, &dst_hw, bytes);
            return;
        }
        for _ in 0..verdict.copies {
            let arrive = self
                .network
                .delivery_time(stamp, src_id, dst_id, &src_hw, &dst_hw, bytes)
                + SimDuration::from_nanos(verdict.extra_delay_ns);
            // Faults imply the sequential executor (asserted in
            // `run_sharded`), so every destination is local.
            self.queue.schedule(
                arrive,
                Ev::Deliver {
                    node: dst,
                    pkt: pkt.clone(),
                },
            );
        }
    }

    /// Schedule (or outbox) a fault-free packet delivery.
    fn send_deliver(&mut self, src: usize, dst: usize, arrive: SimTime, pkt: Packet) {
        if self.owns(dst) {
            self.sched(src, arrive, Ev::Deliver { node: dst, pkt });
        } else {
            let key = self.next_key(src);
            self.outbox.push(OutMsg {
                at: arrive,
                key,
                dst,
                pkt,
            });
        }
    }

    /// (Re-)schedule node `i`'s retransmission-timer event to match its
    /// reliability layer's earliest deadline.
    fn schedule_rel_tick(&mut self, i: usize, now: SimTime) {
        let l = i - self.base;
        let Some(f) = &mut self.faults else {
            return;
        };
        let want = f.rel[l]
            .next_deadline()
            .map(|ns| SimTime::from_nanos(ns).max(now));
        match (want, f.tick[l]) {
            (None, None) => {}
            (None, Some((_, ev))) => {
                self.queue.cancel(ev);
                let f = self.faults.as_mut().expect("checked above");
                f.tick[l] = None;
            }
            (Some(at), Some((cur, _))) if cur == at => {}
            (Some(at), prev) => {
                if let Some((_, ev)) = prev {
                    self.queue.cancel(ev);
                }
                let ev = self.queue.schedule(at, Ev::RelTick { node: i });
                let f = self.faults.as_mut().expect("checked above");
                f.tick[l] = Some((at, ev));
            }
        }
    }

    /// A reliability timer fired: let node `i` retransmit what's overdue.
    fn on_rel_tick(&mut self, i: usize, t: SimTime) {
        let l = i - self.base;
        let mut out = Vec::new();
        {
            let Some(f) = &mut self.faults else {
                return;
            };
            f.tick[l] = None;
            f.rel[l].on_tick(t.as_nanos(), &mut out);
        }
        for e in out {
            match e {
                RelEvent::Transmit(p) => self.transmit_raw(i, p, t),
                RelEvent::LinkDead { peer } => {
                    panic!("rank {i}: link to rank {peer} declared dead (retry budget exhausted)")
                }
                RelEvent::Deliver(_) => unreachable!("ticks never deliver"),
            }
        }
        self.schedule_rel_tick(i, t);
    }

    /// The node just ran engine work inline at `t`: charge it, advance the
    /// CPU cursor, route outputs. Returns the new CPU-free instant. The
    /// meter records the CPU *work* `w`; the cursor advances by its
    /// (tenant-contention) wall-clock stretch.
    fn finish_call(&mut self, i: usize, t: SimTime) -> SimTime {
        let w = self.apply_charges(i);
        let wall = self.stretched(i, w);
        let end = t + wall;
        self.rank[i - self.base].cpu_free_at = end;
        self.route_actions(i, end);
        end
    }

    /// Signals were just enabled while collective packets already sat in
    /// the receive queue (the enable-with-backlog edge §V-A must not lose):
    /// the NIC raises a signal immediately.
    fn maybe_synth_signal(&mut self, i: usize, t: SimTime) {
        let l = i - self.base;
        if matches!(self.rank[l].state, NodeState::Blocked { .. }) {
            return;
        }
        if self.signals[l].is_enabled() && self.engines[l].has_pending_signal_work() {
            self.rank[l].synth_signals += 1;
            self.run_handler(i, t);
        }
    }

    /// Deliver a signal: run the asynchronous handler, preempting whatever
    /// the node is doing.
    fn run_handler(&mut self, i: usize, t: SimTime) {
        let l = i - self.base;
        self.engines[l].handle_signal();
        let w = self.apply_charges(i);
        let w = self.stretched(i, w);
        match self.rank[l].state {
            NodeState::Busy { charge, event } => {
                // Preemption: the busy step finishes `w` later.
                let new_end = self.rank[l].cpu_free_at + w;
                self.queue.cancel(event);
                let gen = self.rank[l].gen;
                let new_event = self.sched(i, new_end, Ev::StepDone { node: i, gen });
                self.rank[l].state = NodeState::Busy {
                    charge,
                    event: new_event,
                };
                self.rank[l].cpu_free_at = new_end;
                self.route_actions(i, t + w);
            }
            _ => {
                let end = self.rank[l].cpu_free_at.max(t) + w;
                self.rank[l].cpu_free_at = end;
                self.route_actions(i, end);
            }
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_deliver(&mut self, i: usize, pkt: Packet, t: SimTime) {
        if self.faults.is_some() {
            // Reliability pre-stage: acks are consumed here, duplicates are
            // suppressed, out-of-order data is resequenced; whatever is
            // ready flows on to the engine in `rel_seq` order.
            let mut out = Vec::new();
            {
                let f = self.faults.as_mut().expect("checked above");
                f.rel[i - self.base].on_receive(pkt, t.as_nanos(), &mut out);
            }
            for e in out {
                match e {
                    RelEvent::Deliver(p) => self.deliver_to_node(i, p, t),
                    RelEvent::Transmit(p) => self.transmit_raw(i, p, t),
                    RelEvent::LinkDead { peer } => {
                        panic!("rank {i}: link to rank {peer} declared dead")
                    }
                }
            }
            self.schedule_rel_tick(i, t);
            return;
        }
        self.deliver_to_node(i, pkt, t);
    }

    /// Hand one in-sequence packet to node `i`'s engine (the fault-free
    /// delivery path; under faults the reliability layer feeds this).
    fn deliver_to_node(&mut self, i: usize, pkt: Packet, t: SimTime) {
        let l = i - self.base;
        self.packets_delivered += 1;
        // NIC-side pre-processing (the §VII extension) happens at arrival,
        // on the NIC processor, regardless of what the host is doing.
        let Some(pkt) = self.engines[l].nic_preprocess(pkt) else {
            let _nic_host = self.apply_charges(i); // charges NIC meter; host part ~0
            debug_assert!(_nic_host.is_zero(), "NIC preprocessing charged host CPU");
            // The NIC serializes matching and arithmetic before it can
            // forward a result: the LANai's slow per-element ops delay the
            // result on its way up the tree (refs. \[9\]/\[11\]'s trade-off).
            let nic_busy = self.rank[l].last_nic_charge;
            self.route_actions(i, t + nic_busy);
            if matches!(self.rank[l].state, NodeState::Blocked { .. }) {
                if t >= self.rank[l].cpu_free_at {
                    self.wake_blocked(i, t);
                } else if !self.rank[l].kick_pending {
                    self.rank[l].kick_pending = true;
                    let at = self.rank[l].cpu_free_at;
                    self.sched(i, at, Ev::Kick { node: i });
                }
            }
            return;
        };
        let blocked = matches!(self.rank[l].state, NodeState::Blocked { .. });
        let arrival = self.signals[l].on_arrival(&pkt, blocked);
        let signal = arrival.is_ok();
        if arrival == Err(abr_gm::signal::SignalSuppression::ProgressUnderway) {
            // The NIC still raised the signal; the kernel-to-user delivery
            // is paid even though the handler body is skipped (Fig. 4's
            // "simply ignored" signal is not free).
            let cost = self.network.cost().signal_ignored_cost();
            self.meters[l].charge(CpuCategory::SignalHandler, cost);
            self.rank[l].interrupt_debt += cost;
        }
        self.engines[l].deliver(pkt);
        if blocked {
            if t >= self.rank[l].cpu_free_at {
                self.wake_blocked(i, t);
            } else if !self.rank[l].kick_pending {
                self.rank[l].kick_pending = true;
                let at = self.rank[l].cpu_free_at;
                self.sched(i, at, Ev::Kick { node: i });
            }
        } else if signal {
            self.run_handler(i, t);
        }
        // Busy/Done without signal: the packet waits in the receive queue
        // until something triggers the progress engine — exactly the stock
        // MPICH behaviour the paper describes.
    }

    fn on_kick(&mut self, i: usize, t: SimTime) {
        // Kicks are deliberately NOT generation-checked: a kick scheduled
        // for one blocking call may fire during a later one, where it is a
        // harmless extra progress pass — but dropping it while leaving
        // `kick_pending` set would lose the wakeup entirely.
        let l = i - self.base;
        self.rank[l].kick_pending = false;
        if matches!(self.rank[l].state, NodeState::Blocked { .. }) {
            self.wake_blocked(i, t);
        }
    }

    fn on_step_done(&mut self, i: usize, gen: u64, t: SimTime) {
        let l = i - self.base;
        if self.rank[l].gen != gen {
            return;
        }
        let NodeState::Busy { charge, .. } = self.rank[l].state else {
            return;
        };
        // The busy loop's own CPU is charged on completion (handler
        // preemptions were charged separately as they happened).
        self.meters[l].charge(CpuCategory::Application, charge);
        self.rank[l].gen += 1;
        self.advance_program(i, t);
    }

    fn on_deadline(&mut self, i: usize, req_raw: u64, gen: u64, t: SimTime) {
        let l = i - self.base;
        if self.rank[l].gen != gen {
            return;
        }
        let NodeState::Blocked { req, .. } = self.rank[l].state else {
            return;
        };
        if req.raw() != req_raw {
            return;
        }
        // Charge the tail of the bounded poll.
        let poll_from = self.rank[l].poll_from;
        if t > poll_from {
            self.meters[l].charge(CpuCategory::Polling, t - poll_from);
        }
        self.tenant_poll_stop(i);
        let exit_at = self.rank[l].cpu_free_at.max(t);
        self.engines[l].split_phase_exit(req);
        let end = self.finish_call(i, exit_at);
        debug_assert!(
            self.engines[l].test(req),
            "split exit must complete the call"
        );
        let _ = self.engines[l].take_outcome(req);
        self.rank[l].gen += 1;
        self.maybe_synth_signal(i, end);
        self.advance_program(i, end);
    }

    /// A blocked node's CPU gets new input at `t`: charge the poll burn,
    /// run the progress engine, and resume the program if the request
    /// completed.
    fn wake_blocked(&mut self, i: usize, t: SimTime) {
        let l = i - self.base;
        let NodeState::Blocked {
            req,
            deadline_event,
        } = self.rank[l].state
        else {
            return;
        };
        let poll_from = self.rank[l].poll_from;
        if t > poll_from {
            self.meters[l].charge(CpuCategory::Polling, t - poll_from);
        }
        // Ignored-signal deliveries stole CPU while the node polled; the
        // lost time shows up as extra elapsed work now.
        let debt = std::mem::take(&mut self.rank[l].interrupt_debt);
        self.engines[l].progress();
        let end = self.finish_call(i, t.max(poll_from) + debt);
        self.rank[l].poll_from = end;
        if self.engines[l].test(req) {
            if let Some(ev) = deadline_event {
                self.queue.cancel(ev);
            }
            self.tenant_poll_stop(i);
            self.consume_outcome(i, req);
            self.rank[l].gen += 1;
            self.maybe_synth_signal(i, end);
            self.advance_program(i, end);
        }
    }

    fn consume_outcome(&mut self, i: usize, req: ReqId) {
        let l = i - self.base;
        match self.engines[l].take_outcome(req) {
            Some(Outcome::Data(d)) => self.ctxs[l].last_data = Some(d),
            Some(Outcome::Done) | None => {}
            Some(Outcome::Failed(e)) => panic!("rank {i}: operation failed: {e}"),
        }
    }

    // ------------------------------------------------------------------
    // Program execution
    // ------------------------------------------------------------------

    /// Run program steps starting at `start` until the node blocks, starts
    /// a busy loop, or finishes.
    fn advance_program(&mut self, i: usize, start: SimTime) {
        let l = i - self.base;
        let mut t = start.max(self.rank[l].cpu_free_at);
        loop {
            self.ctxs[l].now = t;
            let step = self.programs[l].next(&mut self.ctxs[l]);
            match step {
                Step::Busy(d) => {
                    self.traces[l].emit(TraceEvent::EngineState { state: "busy" });
                    // `d` of CPU work; the wall span stretches under tenant
                    // CPU contention while the meter still charges `d`.
                    let end = t + self.stretched(i, d);
                    let gen = self.rank[l].gen;
                    let event = self.sched(i, end, Ev::StepDone { node: i, gen });
                    self.rank[l].state = NodeState::Busy { charge: d, event };
                    self.rank[l].cpu_free_at = end;
                    return;
                }
                Step::WindowStart => {
                    self.meters[l].window_start();
                }
                Step::WindowStop => {
                    let w = self.meters[l].window_stop();
                    self.ctxs[l].last_window = Some(w);
                }
                Step::Done => {
                    self.traces[l].emit(TraceEvent::EngineState { state: "done" });
                    self.rank[l].state = NodeState::Done;
                    self.rank[l].gen += 1;
                    self.done_count += 1;
                    return;
                }
                Step::ReduceSplit {
                    root,
                    op,
                    dtype,
                    data,
                } => {
                    let comm = self.engines[l].world();
                    let req = self.engines[l].ireduce_split(&comm, root, op, dtype, &data);
                    t = self.finish_call(i, t);
                    self.rank[l].split_req = Some(req);
                    // Not a blocking call: fall through to the next step.
                }
                Step::BcastSplit { root, data, len } => {
                    let comm = self.engines[l].world();
                    let req = self.engines[l].ibcast_split(&comm, root, data, len);
                    t = self.finish_call(i, t);
                    self.rank[l].split_req = Some(req);
                    // Not a blocking call: fall through to the next step.
                }
                Step::AllreduceDualSplit { op, dtype, data } => {
                    let comm = self.engines[l].world();
                    let req = self.engines[l].iallreduce_dual_split(&comm, op, dtype, &data);
                    t = self.finish_call(i, t);
                    self.rank[l].split_req = Some(req);
                    // Not a blocking call: fall through to the next step.
                }
                Step::WaitSplit => {
                    let Some(req) = self.rank[l].split_req.take() else {
                        continue;
                    };
                    if !self.engines[l].test(req) {
                        // Entering the wait triggers a progress pass, which
                        // drains packets that landed during application
                        // compute.
                        self.engines[l].progress();
                        t = self.finish_call(i, t);
                    }
                    if self.engines[l].test(req) {
                        self.consume_outcome(i, req);
                        continue;
                    }
                    self.block_on(i, req, t);
                    return;
                }
                step => {
                    // Blocking operations.
                    let req = self.post_blocking(i, step);
                    t = self.finish_call(i, t);
                    if !self.engines[l].test(req) {
                        // Entering a blocking call triggers the progress
                        // engine (Fig. 4 left entry): packets that arrived
                        // while the application was computing get matched
                        // before the node settles into its poll loop.
                        self.engines[l].progress();
                        t = self.finish_call(i, t);
                    }
                    if self.engines[l].test(req) {
                        self.consume_outcome(i, req);
                        self.maybe_synth_signal(i, t);
                        t = t.max(self.rank[l].cpu_free_at);
                        continue;
                    }
                    self.block_on(i, req, t);
                    return;
                }
            }
        }
    }

    /// Enter the blocked state on `req` at time `t`.
    fn block_on(&mut self, i: usize, req: ReqId, t: SimTime) {
        let budget = self.engines[i - self.base].bounded_block_hint(req);
        let deadline_event = budget.map(|budget| {
            let gen = self.rank[i - self.base].gen;
            self.sched(
                i,
                t + budget,
                Ev::Deadline {
                    node: i,
                    req: req.raw(),
                    gen,
                },
            )
        });
        let l = i - self.base;
        self.traces[l].emit(TraceEvent::EngineState { state: "blocked" });
        self.rank[l].state = NodeState::Blocked {
            req,
            deadline_event,
        };
        self.rank[l].poll_from = t;
        self.rank[l].cpu_free_at = t;
        self.tenant_poll_start(i, budget.is_some());
    }

    fn post_blocking(&mut self, i: usize, step: Step) -> ReqId {
        let l = i - self.base;
        let comm = self.engines[l].world();
        let e = &mut self.engines[l];
        match step {
            Step::Reduce {
                root,
                op,
                dtype,
                data,
            } => e.ireduce(&comm, root, op, dtype, &data),
            Step::Allreduce { op, dtype, data } => e.iallreduce(&comm, op, dtype, &data),
            Step::AllreduceDual { op, dtype, data } => e.iallreduce_dual(&comm, op, dtype, &data),
            Step::Bcast { root, data, len } => e.ibcast(&comm, root, data, len),
            Step::Barrier => e.ibarrier(&comm),
            Step::Send { dst, tag, data } => e.isend(&comm, dst, tag, data),
            Step::Recv { src, tag, cap } => e.irecv(&comm, Some(src), TagSel::Is(tag), cap),
            other => unreachable!("not a blocking step: {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Executors
    // ------------------------------------------------------------------

    fn dispatch(&mut self, ev: Ev, at: SimTime) {
        match ev {
            Ev::Deliver { node, pkt } => self.on_deliver(node, pkt, at),
            Ev::StepDone { node, gen } => self.on_step_done(node, gen, at),
            Ev::Deadline { node, req, gen } => self.on_deadline(node, req, gen, at),
            Ev::Kick { node } => self.on_kick(node, at),
            Ev::RelTick { node } => self.on_rel_tick(node, at),
        }
    }

    /// Bootstrap every owned program at time zero.
    fn init_programs(&mut self) {
        for l in 0..self.len() {
            self.advance_program(self.base + l, SimTime::ZERO);
        }
    }

    /// Process every pending event strictly before `horizon` (all of them
    /// when `horizon` is `None`). Cross-shard sends accumulate in the
    /// outbox.
    fn run_window(&mut self, horizon: Option<SimTime>, max_events: u64) {
        loop {
            if let Some(h) = horizon {
                match self.queue.peek_coord() {
                    Some((at, _)) if at < h => {}
                    _ => return,
                }
            }
            let Some(ev) = self.queue.pop() else { return };
            self.events += 1;
            assert!(self.events <= max_events, "event cap exceeded: livelock?");
            let at = ev.at;
            self.dispatch(ev.payload, at);
        }
    }

    /// Report a run that ran out of events with programs unfinished,
    /// naming each stuck rank and what it waits on.
    fn panic_deadlock(&self) -> ! {
        let mut stuck = Vec::new();
        let mut waits = Vec::new();
        for (l, r) in self.rank.iter().enumerate() {
            let i = self.base + l;
            match r.state {
                NodeState::Done => continue,
                NodeState::Blocked { req, .. } => {
                    waits.push(format!("rank {i} blocked on request {}", req.raw()))
                }
                NodeState::Busy { .. } => waits.push(format!("rank {i} busy")),
            }
            stuck.push(i);
        }
        panic!(
            "DES deadlock: nodes {stuck:?} never finished ({})",
            waits.join(", ")
        );
    }

    /// The historical sequential loop: pop until every program is done,
    /// panic on deadlock. Byte-identical to the pre-arena driver.
    fn run_seq(&mut self, max_events: u64) {
        let n = self.len();
        self.init_programs();
        while self.done_count < n {
            let Some(ev) = self.queue.pop() else {
                self.panic_deadlock();
            };
            self.events += 1;
            assert!(self.events <= max_events, "event cap exceeded: livelock?");
            let at = ev.at;
            self.dispatch(ev.payload, at);
        }
    }

    /// Split this core's rank arenas into `starts.len()` contiguous shard
    /// cores (`starts[s]` = first global rank of shard `s`), leaving this
    /// core empty. Shards get fresh queues and networks; `hw` (read-only)
    /// is replicated.
    fn split(&mut self, starts: &[usize]) -> Vec<Core<E, P>> {
        let mut cores: Vec<Core<E, P>> = Vec::with_capacity(starts.len());
        for &start in starts.iter().rev() {
            let key_ctr = self.key_ctr.split_off(start);
            cores.push(Core {
                base: start,
                queue: EventQueue::new(),
                network: self.network.fresh_like(),
                engines: self.engines.split_off(start),
                programs: self.programs.split_off(start),
                signals: self.signals.split_off(start),
                meters: self.meters.split_off(start),
                ctxs: self.ctxs.split_off(start),
                rank: self.rank.split_off(start),
                traces: self.traces.split_off(start),
                hw: self.hw.clone(),
                done_count: 0,
                packets_delivered: 0,
                events: 0,
                action_scratch: Vec::new(),
                faults: None,
                tenant: None,
                keyed: true,
                key_ctr,
                outbox: Vec::new(),
            });
        }
        cores.reverse();
        cores
    }

    /// Re-absorb shard cores (in shard order) after a parallel run,
    /// restoring the rank arenas in global order and summing counters.
    /// Returns the latest virtual time any shard reached.
    fn absorb_shards(&mut self, cores: Vec<Core<E, P>>) -> SimTime {
        let mut latest = SimTime::ZERO;
        for c in cores {
            debug_assert_eq!(c.base, self.base + self.len(), "shards out of order");
            self.engines.extend(c.engines);
            self.programs.extend(c.programs);
            self.signals.extend(c.signals);
            self.meters.extend(c.meters);
            self.ctxs.extend(c.ctxs);
            self.rank.extend(c.rank);
            self.traces.extend(c.traces);
            self.key_ctr.extend(c.key_ctr);
            self.done_count += c.done_count;
            self.packets_delivered += c.packets_delivered;
            self.events += c.events;
            self.network.absorb(&c.network);
            latest = latest.max(c.queue.now());
        }
        latest
    }

    /// Worker-side window report: drained outbox plus queue status.
    fn report(&mut self) -> Rep {
        Rep {
            outbox: std::mem::take(&mut self.outbox),
            next: self.queue.peek_coord(),
            events: self.events,
        }
    }
}

/// The discrete-event driver. See module docs. Generic over the engine `E`
/// and the program type `P`; `P` defaults to `Box<dyn Program>` so
/// heterogeneous (type-erased) program lists keep working unchanged.
pub struct DesDriver<E: MessageEngine, P: Program = Box<dyn Program>> {
    core: Core<E, P>,
    max_events: u64,
    /// Total packets delivered (synced from the core after each run).
    pub packets_delivered: u64,
    tracer: Option<Arc<dyn Tracer>>,
    /// Latest virtual time reached by any shard of a parallel run;
    /// [`DesDriver::now`] folds it into the sequential queue clock.
    now_floor: SimTime,
    started: bool,
}

impl<E: MessageEngine, P: Program> DesDriver<E, P> {
    /// Build a driver for `spec`, constructing one engine per rank with
    /// `make_engine` and running `programs[rank]` on it. This is
    /// [`DesDriver::new_jobs`] with one job on the identity placement,
    /// assembled without materializing the placement or the job list (a
    /// figure point builds one driver per point, so set-up counts).
    pub fn new(
        spec: &ClusterSpec,
        mut make_engine: impl FnMut(u32, EngineConfig) -> E,
        programs: Vec<P>,
    ) -> Self {
        let n = spec.len();
        assert_eq!(programs.len(), n, "one program per rank");
        assert!(n >= 1, "a driver needs at least one rank");
        let config = spec.engine_config();
        let engines = (0..n)
            .map(|i| make_engine(i as u32, config.clone()))
            .collect();
        Self::assemble(spec, engines, programs, spec.nodes.clone(), None)
    }

    /// Build a *multi-tenant* driver: one engine set per job, all jobs
    /// co-scheduled on the cluster `spec` describes.
    ///
    /// `placements[job][local_rank]` names the physical node (an index into
    /// `spec.nodes`) hosting that rank; several ranks — same job or
    /// different jobs — may share a node, in which case they serialize on
    /// its NIC-injection clock and stretch each other's CPU work (the
    /// tenant contention model). Engines are constructed with **job-local**
    /// ranks
    /// via `make_engine(job, rank, job_size, config)`, so each job is a
    /// self-contained world: its packets, communicators, and collective
    /// sequence numbers never observe the other tenants. The factory should
    /// rebind the engine's world communicator to
    /// `Communicator::job(job, size)` so collective-seq namespaces are
    /// per-job (job 0's is the classic world).
    ///
    /// One job on the identity placement has nothing to translate, so it
    /// keeps no tenant state and runs the solo hot paths: it is
    /// [`DesDriver::new`]. The equivalence tests pin a single job on a
    /// *permuted* placement bit-identical to it.
    ///
    /// Results come back flattened in job-major order ([`DesDriver::results`])
    /// or pre-sliced per job ([`DesDriver::results_by_job`]).
    ///
    /// # Panics
    /// Panics on shape mismatches (placement vs. program counts, node
    /// indices outside the cluster) or an empty job list.
    pub fn new_jobs(
        spec: &ClusterSpec,
        placements: &[Vec<usize>],
        mut make_engine: impl FnMut(u32, u32, u32, EngineConfig) -> E,
        programs: Vec<Vec<P>>,
    ) -> Self {
        let phys_nodes = spec.len();
        assert!(
            !placements.is_empty(),
            "a tenant run needs at least one job"
        );
        assert_eq!(programs.len(), placements.len(), "one program set per job");
        for (j, hosts) in placements.iter().enumerate() {
            assert_eq!(
                programs[j].len(),
                hosts.len(),
                "job {j}: one program per rank"
            );
            assert!(!hosts.is_empty(), "job {j} has no ranks");
            if let Some(r) = hosts.iter().position(|&p| p >= phys_nodes) {
                panic!(
                    "job {j} rank {r}: node {} outside the {phys_nodes}-node cluster",
                    hosts[r]
                );
            }
        }
        let n: usize = placements.iter().map(Vec::len).sum();
        let config = spec.engine_config();
        let mut engines = Vec::with_capacity(n);
        for (j, hosts) in placements.iter().enumerate() {
            let size = hosts.len() as u32;
            engines.extend((0..size).map(|r| make_engine(j as u32, r, size, config.clone())));
        }
        let hw: Vec<NodeHw> = placements
            .iter()
            .flatten()
            .map(|&p| spec.nodes[p])
            .collect();
        let mut flat = Vec::with_capacity(n);
        programs.into_iter().for_each(|job| flat.extend(job));
        let identity =
            placements.len() == 1 && placements[0].iter().enumerate().all(|(r, &p)| r == p);
        let tenant = (!identity).then(|| TenantState::new(placements, phys_nodes));
        Self::assemble(spec, engines, flat, hw, tenant)
    }

    /// The one driver assembly behind both constructors: rank arenas around
    /// `engines`, `programs` and `hw` (global arena order), on a network
    /// sized and addressed by *physical* node — tenant transmits pass the
    /// physical node ids to `FabricNetwork::delivery_time` and leave the
    /// packet header unchanged.
    fn assemble(
        spec: &ClusterSpec,
        engines: Vec<E>,
        programs: Vec<P>,
        hw: Vec<NodeHw>,
        tenant: Option<TenantState>,
    ) -> Self {
        let n = programs.len();
        let core = Core {
            base: 0,
            queue: EventQueue::new(),
            network: FabricNetwork::new(spec.cost.clone(), spec.fabric.clone(), spec.len() as u32),
            engines,
            programs,
            signals: (0..n).map(|_| SignalControl::new()).collect(),
            meters: (0..n).map(|_| CpuMeter::new()).collect(),
            ctxs: (0..n).map(|_| StepCtx::new()).collect(),
            rank: (0..n).map(|_| RankState::fresh()).collect(),
            traces: vec![TraceHandle::default(); n],
            hw,
            done_count: 0,
            packets_delivered: 0,
            events: 0,
            action_scratch: Vec::new(),
            faults: None,
            tenant,
            keyed: false,
            key_ctr: vec![0; n],
            outbox: Vec::new(),
        };
        DesDriver {
            core,
            max_events: 2_000_000_000,
            packets_delivered: 0,
            tracer: None,
            now_floor: SimTime::ZERO,
            started: false,
        }
    }

    /// The rank→job map of a multi-job driver (global arena order), or
    /// `None` for a one-job driver. Feed this to
    /// `abr_trace::RingRecorder::set_job_map` so trace events carry job ids.
    pub fn job_map(&self) -> Option<Vec<u32>> {
        let ts = self.core.tenant.as_ref()?;
        (ts.base_of.len() > 1).then(|| ts.job_of.clone())
    }

    /// Per-job result slices, in job-id order (one slice for a one-job
    /// driver).
    pub fn results_by_job(&self) -> Vec<Vec<NodeResult>> {
        let flat = self.results();
        let Some(ts) = &self.core.tenant else {
            return vec![flat];
        };
        let mut out = Vec::with_capacity(ts.base_of.len());
        for (j, &start) in ts.base_of.iter().enumerate() {
            let end = ts.base_of.get(j + 1).copied().unwrap_or(flat.len());
            out.push(flat[start..end].to_vec());
        }
        out
    }

    /// Wire a [`Tracer`] through the whole stack: each rank's CPU meter,
    /// engine, signal control and (when faults are installed) reliability
    /// layer gets a per-rank handle, the network emits per-segment wire
    /// charges, and the event queue publishes virtual time to the recorder
    /// on every pop. With no tracer installed every one of those sites is a
    /// single `Option` branch (cost neutrality, like [`FaultPlan::none`]).
    pub fn install_tracer(&mut self, tracer: Arc<dyn Tracer>) {
        let core = &mut self.core;
        core.queue.set_tracer(TraceHandle::new(tracer.clone(), 0));
        core.network.set_tracer(TraceHandle::new(tracer.clone(), 0));
        for l in 0..core.len() {
            let h = TraceHandle::new(tracer.clone(), l as u32);
            core.meters[l].set_tracer(h.clone());
            core.signals[l].set_tracer(h.clone());
            core.engines[l].set_tracer(h.clone());
            core.traces[l] = h;
        }
        if let Some(f) = &mut core.faults {
            f.injector.set_tracer(TraceHandle::new(tracer.clone(), 0));
            for (i, r) in f.rel.iter_mut().enumerate() {
                r.set_tracer(TraceHandle::new(tracer.clone(), i as u32));
            }
        }
        self.tracer = Some(tracer);
    }

    /// Install a fault plan and the reliability layer that tolerates it.
    /// A [`FaultPlan::none`] plan is a no-op: the driver keeps its
    /// fault-free hot paths and pays nothing.
    pub fn set_faults(&mut self, plan: &FaultPlan, rel_cfg: RelConfig) {
        if plan.is_none() {
            return;
        }
        assert!(
            self.core.tenant.is_none(),
            "fault injection is not supported on multi-tenant drivers: the \
             reliability layer addresses packets by global rank, which tenant \
             headers (job-local) would alias"
        );
        let n = self.core.len();
        let mut state = FaultState {
            injector: FaultInjector::new(plan.clone()),
            rel: (0..n)
                .map(|i| NodeReliability::new(i as u32, rel_cfg))
                .collect(),
            tick: vec![None; n],
        };
        if let Some(tracer) = &self.tracer {
            state
                .injector
                .set_tracer(TraceHandle::new(tracer.clone(), 0));
            for (i, r) in state.rel.iter_mut().enumerate() {
                r.set_tracer(TraceHandle::new(tracer.clone(), i as u32));
            }
        }
        self.core.faults = Some(state);
    }

    /// Aggregate reliability-layer counters across all nodes, if the fault
    /// layer is active.
    pub fn rel_stats(&self) -> Option<RelStats> {
        self.core.faults.as_ref().map(|f| {
            let mut total = RelStats::default();
            for r in &f.rel {
                total.merge(&r.stats());
            }
            total
        })
    }

    /// Cap the number of events (runaway protection in tests).
    pub fn with_max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Run to completion (every program `Done`) on the sequential executor.
    ///
    /// # Panics
    /// Panics on deadlock (event queue drained with programs unfinished) or
    /// on exceeding the event cap.
    pub fn run(&mut self) {
        self.started = true;
        self.core.run_seq(self.max_events);
        self.packets_delivered = self.core.packets_delivered;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.queue.now().max(self.now_floor)
    }

    /// Events processed so far (summed across shards after a parallel run).
    pub fn events_processed(&self) -> u64 {
        self.core.events
    }

    /// The network (post-run statistics).
    pub fn network(&self) -> &FabricNetwork {
        &self.core.network
    }

    /// Extract per-node results.
    pub fn results(&self) -> Vec<NodeResult> {
        let core = &self.core;
        (0..core.len())
            .map(|l| NodeResult {
                obs: core.ctxs[l].obs.clone(),
                cpu_app_us: core.meters[l]
                    .category(CpuCategory::Application)
                    .as_us_f64(),
                cpu_poll_us: core.meters[l].category(CpuCategory::Polling).as_us_f64(),
                cpu_protocol_us: core.meters[l].category(CpuCategory::Protocol).as_us_f64(),
                cpu_signal_us: core.meters[l]
                    .category(CpuCategory::SignalHandler)
                    .as_us_f64(),
                cpu_nic_us: core.meters[l].category(CpuCategory::NicOffload).as_us_f64(),
                signals_raised: core.signals[l].raised() + core.rank[l].synth_signals,
                signals_suppressed_busy: core.signals[l].suppressed_progress_underway(),
                counters: core.engines[l].counters(),
            })
            .collect()
    }
}

impl<E: MessageEngine + Send, P: Program> DesDriver<E, P> {
    /// Run to completion on the parallel-in-one-run conservative executor:
    /// ranks are partitioned into `shards` contiguous regions, each advanced
    /// by its own worker between synchronization horizons `T + L` (`T` =
    /// globally earliest pending event, `L` = the cost model's minimum
    /// delivery latency). Results are identical for every shard count; see
    /// the module docs for the determinism argument.
    ///
    /// Unlike [`DesDriver::run`], the parallel executor drains *all* events
    /// (stray deliveries to finished nodes included) rather than stopping at
    /// the instant the last program finishes — a partition-independent
    /// stopping rule. Figures derived from per-node results are unaffected.
    ///
    /// # Panics
    /// Panics if the driver has already run, on a contended fabric, or if
    /// fault injection, multi-tenant state or tracing is installed (their
    /// state is inherently order-dependent; use the sequential executor —
    /// [`DesDriver::run_auto`] falls back automatically). Panics on
    /// deadlock, naming every stuck rank, like [`DesDriver::run`].
    pub fn run_sharded(&mut self, shards: usize) {
        assert!(!self.started, "run_sharded requires a fresh driver");
        assert!(
            self.core.network.spec().is_flat(),
            "parallel execution requires the flat (contention-free) fabric: per-link \
             busy clocks are global order-dependent state that cannot be sharded; \
             unset ABR_FABRIC (or set ABR_FABRIC=flat) or drop ABR_DES_SHARDS"
        );
        self.started = true;
        assert!(
            self.core.faults.is_none(),
            "parallel execution does not support fault injection; use run()"
        );
        assert!(
            self.core.tenant.is_none(),
            "parallel execution does not support multi-tenant drivers: the \
             per-node poller tallies are global order-dependent state; use run()"
        );
        assert!(
            self.tracer.is_none(),
            "parallel execution does not support tracing; use run()"
        );
        let n = self.core.len();
        let shards = shards.clamp(1, n);
        let max_events = self.max_events;
        self.core.keyed = true;
        if shards == 1 {
            // Same keyed order and same full-drain stopping rule as the
            // multi-shard path, without the worker machinery.
            self.core.init_programs();
            self.core.run_window(None, max_events);
            if self.core.done_count < n {
                self.core.panic_deadlock();
            }
            self.now_floor = self.core.queue.now();
            self.packets_delivered = self.core.packets_delivered;
            return;
        }
        let lookahead = self.core.network.min_delivery_delay(&self.core.hw);
        assert!(
            !lookahead.is_zero(),
            "cost model has zero minimum delivery latency; no conservative lookahead exists"
        );
        // Contiguous region partition: shard s owns starts[s]..starts[s+1].
        let starts: Vec<usize> = (0..shards).map(|s| s * n / shards).collect();
        let cores = self.core.split(&starts);
        let cores = std::thread::scope(|scope| {
            let mut txs = Vec::with_capacity(shards);
            let mut rxs = Vec::with_capacity(shards);
            let mut handles = Vec::with_capacity(shards);
            for mut core in cores {
                let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
                let (rep_tx, rep_rx) = mpsc::channel::<Rep>();
                handles.push(scope.spawn(move || {
                    core.init_programs();
                    rep_tx.send(core.report()).expect("coordinator alive");
                    while let Ok(cmd) = cmd_rx.recv() {
                        match cmd {
                            Cmd::Window { horizon, inbox } => {
                                for m in inbox {
                                    core.queue.schedule_keyed(
                                        m.at,
                                        m.key,
                                        Ev::Deliver {
                                            node: m.dst,
                                            pkt: m.pkt,
                                        },
                                    );
                                }
                                core.run_window(Some(horizon), max_events);
                                rep_tx.send(core.report()).expect("coordinator alive");
                            }
                            Cmd::Finish => break,
                        }
                    }
                    core
                }));
                txs.push(cmd_tx);
                rxs.push(rep_rx);
            }
            let mut inboxes: Vec<Vec<OutMsg>> = (0..shards).map(|_| Vec::new()).collect();
            loop {
                let mut reps: Vec<Rep> = rxs
                    .iter()
                    .map(|rx| rx.recv().expect("worker alive"))
                    .collect();
                let total_events: u64 = reps.iter().map(|r| r.events).sum();
                assert!(total_events <= max_events, "event cap exceeded: livelock?");
                let mut t_min: Option<(SimTime, u64)> = reps.iter().filter_map(|r| r.next).min();
                for rep in &mut reps {
                    for m in rep.outbox.drain(..) {
                        let coord = (m.at, m.key);
                        t_min = Some(match t_min {
                            Some(b) if b <= coord => b,
                            _ => coord,
                        });
                        let s = starts.partition_point(|&b| b <= m.dst) - 1;
                        inboxes[s].push(m);
                    }
                }
                // Nothing pending anywhere: finished, or deadlocked (which
                // is reported once the shards are absorbed).
                let Some((t0, _)) = t_min else { break };
                let horizon = t0 + lookahead;
                for (s, tx) in txs.iter().enumerate() {
                    tx.send(Cmd::Window {
                        horizon,
                        inbox: std::mem::take(&mut inboxes[s]),
                    })
                    .expect("worker alive");
                }
            }
            for tx in &txs {
                tx.send(Cmd::Finish).expect("worker alive");
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect::<Vec<_>>()
        });
        self.now_floor = self.core.absorb_shards(cores);
        self.packets_delivered = self.core.packets_delivered;
        if self.core.done_count < n {
            self.core.panic_deadlock();
        }
    }

    /// Dispatch on the `ABR_DES_SHARDS` environment knob: run the parallel
    /// executor with that many shards when set (and no order-dependent
    /// instrumentation — faults, tenants, tracer — is installed), the
    /// sequential executor otherwise. Invalid values fail fast, naming the
    /// variable.
    pub fn run_auto(&mut self) {
        let shards =
            abr_trace::parse_env("ABR_DES_SHARDS", |raw| match raw.trim().parse::<usize>() {
                Ok(0) | Err(_) => Err(format!(
                    "ABR_DES_SHARDS: expected a positive shard count, got {raw:?}"
                )),
                Ok(s) => Ok(s),
            });
        if shards.is_some() && !self.core.network.spec().is_flat() {
            // Fail fast rather than silently running sequentially: the user
            // asked for two things that cannot be combined.
            panic!(
                "ABR_DES_SHARDS is set but ABR_FABRIC={} models link contention, \
                 which the sharded executor cannot replay deterministically; \
                 unset one of the two variables",
                self.core.network.spec().label()
            );
        }
        let mut reasons: Vec<&str> = Vec::new();
        if self.core.faults.is_some() {
            reasons.push("fault injection");
        }
        if self.core.tenant.is_some() {
            reasons.push("multi-tenant state");
        }
        if self.tracer.is_some() {
            reasons.push("tracing");
        }
        match shards {
            Some(s) if reasons.is_empty() => self.run_sharded(s),
            Some(_) => {
                eprintln!(
                    "abr_cluster: ABR_DES_SHARDS ignored — {} installed; falling back \
                     to the sequential executor (results are unchanged, only slower)",
                    reasons.join(" + ")
                );
                self.run()
            }
            None => self.run(),
        }
    }
}
