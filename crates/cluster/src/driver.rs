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
//! # Execution: one conservative window loop
//!
//! Every run is the same loop. Ranks are partitioned into contiguous
//! region shards (one by default) that advance between conservative
//! synchronization horizons (a YAWNS-style window): with `T` the globally
//! earliest pending event and `L` the cost model's minimum cross-node
//! delivery latency ([`FabricNetwork::min_delivery_delay`]), every shard may
//! safely process all events strictly before `T + L`, because any packet a
//! handler in the window sends cannot arrive before `T + L`. Cross-shard
//! packets are exchanged through per-shard outboxes at each horizon. A run
//! stops at the first horizon where every program is done, and
//! [`DesDriver::now`] is the latest instant a program finished.
//!
//! Determinism does not depend on the shard count: every event is stamped
//! with a `(origin rank, per-origin counter)` tie-break key, and each
//! origin's handlers run in the same order under any partitioning, so the
//! per-rank event sequences, the horizons, the stopping window — and
//! therefore all results — are identical for 1, 2, or 8 shards. The key is
//! the only tie-break: a fault-injected run, which always runs one shard,
//! orders its events the same way. [`DesDriver::run`] takes the shard count
//! from the `ABR_DES_SHARDS` environment knob; [`DesDriver::run_sharded`]
//! takes it as an argument.

use crate::node::ClusterSpec;
use crate::program::{Obs, Program, Step, StepCtx};
use abr_des::meter::CpuCategory;
use abr_des::{CpuMeter, EventId, EventQueue, SimDuration, SimTime};
use abr_fabric::FabricNetwork;
use abr_faults::{
    FaultInjector, FaultPlan, NodeReliability, RelConfig, RelEvent, RelStats, Verdict,
};
use abr_gm::nic::NodeHw;
use abr_gm::packet::Packet;
use abr_gm::signal::SignalControl;
use abr_mpr::engine::{Action, EngineConfig, MessageEngine};
use abr_mpr::request::Outcome;
use abr_mpr::types::TagSel;
use abr_mpr::ReqId;
use abr_trace::{TraceEvent, TraceHandle, Tracer};
use std::sync::{mpsc, Arc, Once};

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
    /// The reliability layer's output buffer, reused across deliveries
    /// and ticks.
    events: Vec<RelEvent>,
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
    /// Running program steps inline: at start, and from the end of a busy
    /// loop until the program next busy-loops, blocks or finishes.
    Running,
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
    /// Tie-break counter of the events this rank originates (see
    /// `Core::next_key`).
    key_ctr: u64,
}

impl RankState {
    fn fresh() -> Self {
        RankState {
            state: NodeState::Running,
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
            key_ctr: 0,
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

/// Coordinator-to-worker command: merge `inbox` into the shard's queue,
/// then process every local event strictly before `horizon`. A worker
/// returns its core when the coordinator drops the command channel.
struct Window {
    horizon: SimTime,
    inbox: Vec<OutMsg>,
}

/// Shard-to-coordinator report after start-up and after each window.
struct Rep {
    outbox: Vec<OutMsg>,
    /// Time of the shard's next pending event.
    next: Option<SimTime>,
    /// Cumulative events processed by this shard.
    events: u64,
    /// Programs of this shard that have finished.
    done: usize,
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
/// A one-shard run is a single core owning every rank.
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
    /// Queue time at which the latest owned program finished.
    done_at: SimTime,
    packets_delivered: u64,
    /// Events processed by this core.
    events: u64,
    /// Event cap (runaway protection), per core and for the run's total.
    max_events: u64,
    /// Reused buffer for draining engine actions (see `route_actions`).
    action_scratch: Vec<Action>,
    faults: Option<FaultState>,
    tenant: Option<TenantState>,
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
        let c = &mut self.rank[origin - self.base].key_ctr;
        let key = ((origin as u64) << 40) | *c;
        *c += 1;
        debug_assert!(*c < (1 << 40), "per-origin event counter overflow");
        key
    }

    /// Schedule an event originated by `origin` (the rank whose handler is
    /// running), stamped with the partition-independent key. Every event
    /// takes this path, fault-injected packet copies and retransmit ticks
    /// included, so one `(at, key)` order governs every run.
    fn sched(&mut self, origin: usize, at: SimTime, ev: Ev) -> EventId {
        let key = self.next_key(origin);
        self.queue.schedule(at, key, ev)
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
    /// (stamping `rel_seq`, buffering for retransmission), and the sender's
    /// retransmit timer then follows the layer's earliest deadline.
    fn transmit(&mut self, i: usize, mut pkt: Packet, stamp: SimTime) {
        if let Some(f) = &mut self.faults {
            pkt = f.rel[i - self.base].on_send(pkt, stamp.as_nanos());
        }
        self.wire(i, pkt, stamp);
        self.schedule_rel_tick(i, stamp);
    }

    /// Put a packet on the wire at `stamp`: the one path every packet
    /// takes, engine sends, retransmissions and acks alike. It resolves the
    /// destination's arena slot and the network endpoint ids, stamps
    /// `wire_seq` (one counter per global sender slot), asks the fault
    /// injector (only when installed) how many copies survive, and
    /// schedules each. Tenant headers carry *job-local* ranks: the slot is
    /// the sender's job base plus the header rank, and the endpoints are
    /// the *physical* nodes, so co-located ranks (any job) share one NIC
    /// clock and one set of FIFO floors as they share hardware, while the
    /// header reaches the receiving engine untouched. A job pair's packets
    /// are a subsequence of its physical pair's, so FIFO order survives.
    fn wire(&mut self, i: usize, mut pkt: Packet, stamp: SimTime) {
        let (dst, src_id, dst_id) = match &self.tenant {
            None => {
                debug_assert_eq!(pkt.header.src.index(), i, "sending from the wrong rank");
                let dst = pkt.header.dst.index();
                (dst, i as u32, dst as u32)
            }
            Some(ts) => {
                let dst = ts.base_of[ts.job_of[i] as usize] + pkt.header.dst.index();
                (dst, ts.phys_of[i] as u32, ts.phys_of[dst] as u32)
            }
        };
        pkt.header.wire_seq = self.rank[i - self.base].next_wire_seq();
        let verdict = match &mut self.faults {
            None => Verdict::clean(),
            Some(f) => f.injector.decide(&pkt, Some(stamp.as_nanos())),
        };
        let (src_hw, dst_hw, bytes) = (self.hw[i], self.hw[dst], pkt.wire_bytes());
        let delay = SimDuration::from_nanos(verdict.extra_delay_ns);
        let arrival = |net: &mut FabricNetwork| {
            net.delivery_time(stamp, src_id, dst_id, &src_hw, &dst_hw, bytes) + delay
        };
        for _ in 1..verdict.copies {
            let at = arrival(&mut self.network);
            self.send_deliver(i, dst, at, pkt.clone());
        }
        // A dropped packet (no copies) still occupied the NIC and the
        // wire, so the network is charged for it as for a delivered one.
        let at = arrival(&mut self.network);
        if verdict.copies > 0 {
            self.send_deliver(i, dst, at, pkt);
        }
    }

    /// Schedule (or outbox) a packet delivery.
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
    /// reliability layer's earliest deadline (a no-op without faults).
    fn schedule_rel_tick(&mut self, i: usize, now: SimTime) {
        let l = i - self.base;
        let Some(f) = &mut self.faults else {
            return;
        };
        let want = f.rel[l]
            .next_deadline()
            .map(|ns| SimTime::from_nanos(ns).max(now));
        let prev = f.tick[l];
        if want == prev.map(|(at, _)| at) {
            return;
        }
        if let Some((_, ev)) = prev {
            self.queue.cancel(ev);
        }
        let tick = want.map(|at| (at, self.sched(i, at, Ev::RelTick { node: i })));
        self.faults.as_mut().expect("checked above").tick[l] = tick;
    }

    /// Node `i`'s reliability layer at `t`, the one drain both of its
    /// inputs share: an `arrival` (acks are consumed, duplicates
    /// suppressed, out-of-order data resequenced) or, with `None`, a
    /// retransmission-timer tick. What the layer emits is acted on here:
    /// in-sequence data flows on to the engine in `rel_seq` order,
    /// retransmissions and acks go on the wire, and the timer follows the
    /// layer's new earliest deadline. Kept out of line so the fault-free
    /// event loop does not grow.
    #[inline(never)]
    fn rel_drain(&mut self, i: usize, arrival: Option<Packet>, t: SimTime) {
        let l = i - self.base;
        let f = self.faults.as_mut().expect("reliability runs under faults");
        let mut out = std::mem::take(&mut f.events);
        match arrival {
            Some(pkt) => f.rel[l].on_receive(pkt, t.as_nanos(), &mut out),
            None => {
                f.tick[l] = None;
                f.rel[l].on_tick(t.as_nanos(), &mut out);
            }
        }
        for e in out.drain(..) {
            match e {
                RelEvent::Deliver(p) => self.deliver_to_node(i, p, t),
                RelEvent::Transmit(p) => self.wire(i, p, t),
                RelEvent::LinkDead { peer } => {
                    panic!("rank {i}: link to rank {peer} declared dead (retry budget exhausted)")
                }
            }
        }
        self.faults.as_mut().expect("checked above").events = out;
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
            self.wake_or_kick(i, t, false);
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
            self.wake_or_kick(i, t, false);
        } else if signal {
            self.run_handler(i, t);
        }
        // Busy/Done without signal: the packet waits in the receive queue
        // until something triggers the progress engine — exactly the stock
        // MPICH behaviour the paper describes.
    }

    /// New input reached node `i` at `t`, or (`kicked`) its deferred kick
    /// fired. A blocked node gets a progress pass now if its CPU is free (a
    /// kick always runs one); otherwise one kick is scheduled for when the
    /// CPU frees up. Kicks are deliberately NOT generation-checked: a kick
    /// scheduled for one blocking call may fire during a later one, where
    /// it is a harmless extra progress pass — but dropping it while leaving
    /// `kick_pending` set would lose the wakeup entirely.
    fn wake_or_kick(&mut self, i: usize, t: SimTime, kicked: bool) {
        let r = &mut self.rank[i - self.base];
        if kicked {
            r.kick_pending = false;
        }
        if !matches!(r.state, NodeState::Blocked { .. }) {
            return;
        }
        if kicked || t >= r.cpu_free_at {
            self.blocked_pass(i, t, false);
        } else if !r.kick_pending {
            r.kick_pending = true;
            let at = r.cpu_free_at;
            self.sched(i, at, Ev::Kick { node: i });
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
        // The loop is over: a signal synthesized before the program next
        // busy-loops must not find it and reschedule its end.
        self.rank[l].state = NodeState::Running;
        self.advance_program(i, t);
    }

    /// One pass of blocked node `i`'s call at `t`: a progress pass on new
    /// input, or (`expired`) the §IV-E bounded block running out, which
    /// exits the call split-phase. Either way the poll burn up to `t` is
    /// charged first. Once the request is complete the node leaves the
    /// call: a generation bump, the one return from a blocking call, and
    /// the program resumes.
    fn blocked_pass(&mut self, i: usize, t: SimTime, expired: bool) {
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
        let end = if expired {
            let exit_at = self.rank[l].cpu_free_at.max(t);
            self.engines[l].split_phase_exit(req);
            let end = self.finish_call(i, exit_at);
            debug_assert!(
                self.engines[l].test(req),
                "split exit must complete the call"
            );
            end
        } else {
            // Ignored-signal deliveries stole CPU while the node polled;
            // the lost time shows up as extra elapsed work now.
            let debt = std::mem::take(&mut self.rank[l].interrupt_debt);
            self.engines[l].progress();
            let end = self.finish_call(i, t.max(poll_from) + debt);
            self.rank[l].poll_from = end;
            if !self.engines[l].test(req) {
                return;
            }
            if let Some(ev) = deadline_event {
                self.queue.cancel(ev);
            }
            end
        };
        self.rank[l].gen += 1;
        let resume = self.return_from_call(i, req, end);
        self.advance_program(i, resume);
    }

    /// The one return from a blocking call on `req` at `t`, synchronous or
    /// not: the tenant poll stops, the outcome is consumed, and the §V-A
    /// enable-with-backlog edge is applied — signals enabled while
    /// collective packets already sit in the receive queue make the NIC
    /// raise a signal at once. This is the edge's only site. Returns when
    /// the program may resume.
    fn return_from_call(&mut self, i: usize, req: ReqId, t: SimTime) -> SimTime {
        let l = i - self.base;
        self.tenant_poll_stop(i);
        match self.engines[l].take_outcome(req) {
            Some(Outcome::Data(d)) => self.ctxs[l].last_data = Some(d),
            Some(Outcome::Done) | None => {}
            Some(Outcome::Failed(e)) => panic!("rank {i}: operation failed: {e}"),
        }
        // Known hole (the lost edge, first of ROADMAP's open items): the
        // state still reads `Blocked` on every asynchronous return, and on
        // a synchronous one until the program next busy-loops or blocks,
        // so those returns skip the edge. A packet stranded this way waits
        // for the rank's next library call, and after its last call there
        // is none. The model fix is deleting the `Blocked` test below.
        if !matches!(self.rank[l].state, NodeState::Blocked { .. })
            && self.signals[l].is_enabled()
            && self.engines[l].has_pending_signal_work()
        {
            self.rank[l].synth_signals += 1;
            self.run_handler(i, t);
        }
        t.max(self.rank[l].cpu_free_at)
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
            let req = match self.programs[l].next(&mut self.ctxs[l]) {
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
                    continue;
                }
                Step::WindowStop => {
                    let w = self.meters[l].window_stop();
                    self.ctxs[l].last_window = Some(w);
                    continue;
                }
                Step::Done => {
                    self.traces[l].emit(TraceEvent::EngineState { state: "done" });
                    self.rank[l].state = NodeState::Done;
                    self.rank[l].gen += 1;
                    self.done_count += 1;
                    self.done_at = self.queue.now();
                    return;
                }
                Step::WaitSplit => match self.rank[l].split_req.take() {
                    Some(req) => req,
                    None => continue,
                },
                step => {
                    let split = matches!(
                        step,
                        Step::ReduceSplit { .. }
                            | Step::BcastSplit { .. }
                            | Step::AllreduceDualSplit { .. }
                    );
                    let req = self.post(i, step);
                    t = self.finish_call(i, t);
                    if split {
                        // Not a blocking call: a later `WaitSplit` enters it.
                        self.rank[l].split_req = Some(req);
                        continue;
                    }
                    req
                }
            };
            // Entering a blocking call triggers the progress engine (Fig. 4
            // left entry): packets that arrived while the application was
            // computing get matched before the node settles into its poll
            // loop.
            if !self.engines[l].test(req) {
                self.engines[l].progress();
                t = self.finish_call(i, t);
            }
            if !self.engines[l].test(req) {
                self.block_on(i, req, t);
                return;
            }
            t = self.return_from_call(i, req, t);
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

    /// Post the request of a blocking or split-phase `step` on rank `i`.
    fn post(&mut self, i: usize, step: Step) -> ReqId {
        let e = &mut self.engines[i - self.base];
        let comm = e.world();
        match step {
            Step::Reduce {
                root,
                op,
                dtype,
                data,
            } => e.ireduce(&comm, root, op, dtype, &data),
            Step::ReduceSplit {
                root,
                op,
                dtype,
                data,
            } => e.ireduce_split(&comm, root, op, dtype, &data),
            Step::Allreduce { op, dtype, data } => e.iallreduce(&comm, op, dtype, &data),
            Step::AllreduceDual { op, dtype, data } => e.iallreduce_dual(&comm, op, dtype, &data),
            Step::AllreduceDualSplit { op, dtype, data } => {
                e.iallreduce_dual_split(&comm, op, dtype, &data)
            }
            Step::Bcast { root, data, len } => e.ibcast(&comm, root, data, len),
            Step::BcastSplit { root, data, len } => e.ibcast_split(&comm, root, data, len),
            Step::Barrier => e.ibarrier(&comm),
            Step::Send { dst, tag, data } => e.isend(&comm, dst, tag, data),
            Step::Recv { src, tag, cap } => e.irecv(&comm, Some(src), TagSel::Is(tag), cap),
            other => unreachable!("not a posting step: {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Executors
    // ------------------------------------------------------------------

    fn dispatch(&mut self, ev: Ev, at: SimTime) {
        match ev {
            Ev::Deliver { node, pkt } if self.faults.is_some() => {
                self.rel_drain(node, Some(pkt), at)
            }
            Ev::Deliver { node, pkt } => self.deliver_to_node(node, pkt, at),
            Ev::StepDone { node, gen } => self.on_step_done(node, gen, at),
            Ev::Deadline { node, req, gen } => {
                // A deadline is live only for the call that scheduled it.
                let r = &self.rank[node - self.base];
                let live = r.gen == gen
                    && matches!(r.state, NodeState::Blocked { req: b, .. } if b.raw() == req);
                if live {
                    self.blocked_pass(node, at, true);
                }
            }
            Ev::Kick { node } => self.wake_or_kick(node, at, true),
            Ev::RelTick { node } => self.rel_drain(node, None, at),
        }
    }

    /// Bootstrap every owned program at time zero.
    fn init_programs(&mut self) {
        for l in 0..self.len() {
            self.advance_program(self.base + l, SimTime::ZERO);
        }
    }

    /// Report a run that ran out of events with programs unfinished,
    /// naming each stuck rank and what it waits on, then every *stranded*
    /// rank: signals enabled with collective packets still queued, the
    /// state the §V-A edge exists to prevent (see `return_from_call`).
    fn panic_deadlock(&self) -> ! {
        let mut stuck = Vec::new();
        let mut waits = Vec::new();
        let mut stranded = Vec::new();
        for (l, r) in self.rank.iter().enumerate() {
            let i = self.base + l;
            let state = match r.state {
                NodeState::Done => "done".to_string(),
                NodeState::Blocked { req, .. } => format!("blocked on request {}", req.raw()),
                NodeState::Busy { .. } => "busy".to_string(),
                NodeState::Running => "running".to_string(),
            };
            if self.signals[l].is_enabled() && self.engines[l].has_pending_signal_work() {
                stranded.push(format!("rank {i} ({state})"));
            }
            if !matches!(r.state, NodeState::Done) {
                stuck.push(i);
                waits.push(format!("rank {i} {state}"));
            }
        }
        panic!(
            "DES deadlock: nodes {stuck:?} never finished ({}); stranded: [{}]",
            waits.join(", "),
            stranded.join(", ")
        );
    }

    /// Split this core's rank arenas into `starts.len()` contiguous shard
    /// cores (`starts[s]` = first global rank of shard `s`, `starts[0]` =
    /// 0), leaving this core empty with no arena buffers. Shards get fresh
    /// queues and networks; `hw` (read-only) is replicated.
    fn split(&mut self, starts: &[usize]) -> Vec<Core<E, P>> {
        let mut cores: Vec<Core<E, P>> = Vec::with_capacity(starts.len());
        for &start in starts.iter().rev() {
            cores.push(Core {
                base: start,
                queue: EventQueue::new(),
                network: self.network.fresh_like(),
                engines: split_tail(&mut self.engines, start),
                programs: split_tail(&mut self.programs, start),
                signals: split_tail(&mut self.signals, start),
                meters: split_tail(&mut self.meters, start),
                ctxs: split_tail(&mut self.ctxs, start),
                rank: split_tail(&mut self.rank, start),
                traces: split_tail(&mut self.traces, start),
                hw: self.hw.clone(),
                done_count: 0,
                done_at: SimTime::ZERO,
                packets_delivered: 0,
                events: 0,
                max_events: self.max_events,
                action_scratch: Vec::new(),
                faults: None,
                tenant: None,
                outbox: Vec::new(),
            });
        }
        cores.reverse();
        cores
    }

    /// Re-absorb shard cores (in shard order) after a multi-shard run,
    /// restoring the rank arenas in global order and summing counters.
    fn absorb_shards(&mut self, cores: Vec<Core<E, P>>) {
        for c in cores {
            debug_assert_eq!(c.base, self.base + self.len(), "shards out of order");
            join_tail(&mut self.engines, c.engines);
            join_tail(&mut self.programs, c.programs);
            join_tail(&mut self.signals, c.signals);
            join_tail(&mut self.meters, c.meters);
            join_tail(&mut self.ctxs, c.ctxs);
            join_tail(&mut self.rank, c.rank);
            join_tail(&mut self.traces, c.traces);
            self.done_count += c.done_count;
            self.done_at = self.done_at.max(c.done_at);
            self.packets_delivered += c.packets_delivered;
            self.events += c.events;
            self.network.absorb(&c.network);
        }
    }

    /// Shard-side window report: drained outbox plus queue status.
    fn report(&mut self) -> Rep {
        Rep {
            outbox: std::mem::take(&mut self.outbox),
            next: self.queue.peek_time(),
            events: self.events,
            done: self.done_count,
        }
    }
}

/// Move `v[start..]` out of `v`. The first shard (`start == 0`) takes the
/// original buffer itself, capacity included, and leaves `v` with none:
/// `split_off(0)` would instead give `v` a fresh buffer of the same
/// capacity, so the split core would hold a second full set of arenas
/// while its shards run.
fn split_tail<T>(v: &mut Vec<T>, start: usize) -> Vec<T> {
    if start == 0 {
        std::mem::take(v)
    } else {
        v.split_off(start)
    }
}

/// Append a shard's arena to `v`, the inverse of [`split_tail`]: an empty
/// `v` takes the first shard's buffer back, whose capacity already holds
/// every later shard, so re-absorbing copies each later range once and
/// allocates nothing.
fn join_tail<T>(v: &mut Vec<T>, tail: Vec<T>) {
    if v.is_empty() {
        *v = tail;
    } else {
        v.extend(tail);
    }
}

/// The discrete-event driver. See module docs. Generic over the engine `E`
/// and the program type `P`; `P` defaults to `Box<dyn Program>` so
/// heterogeneous (type-erased) program lists keep working unchanged.
pub struct DesDriver<E: MessageEngine, P: Program = Box<dyn Program>> {
    core: Core<E, P>,
    /// Total packets delivered (synced from the core after each run).
    pub packets_delivered: u64,
    tracer: Option<Arc<dyn Tracer>>,
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
            done_at: SimTime::ZERO,
            packets_delivered: 0,
            events: 0,
            max_events: 2_000_000_000,
            action_scratch: Vec::new(),
            faults: None,
            tenant,
            outbox: Vec::new(),
        };
        DesDriver {
            core,
            packets_delivered: 0,
            tracer: None,
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
            events: Vec::new(),
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
        self.core.max_events = max;
        self
    }

    /// The latest instant a program finished: the run's makespan once
    /// [`DesDriver::run`] returns.
    pub fn now(&self) -> SimTime {
        self.core.done_at
    }

    /// Events processed so far (summed across shards).
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

    /// Run to completion (every program `Done`) on `ABR_DES_SHARDS` shards
    /// (default 1). Fault injection, multi-tenant state and tracing are
    /// order-dependent state no shard can own alone, so a driver holding
    /// any of them runs one shard and says so once per process. Results do
    /// not depend on the shard count.
    ///
    /// # Panics
    /// Panics if the driver has already run, if `ABR_DES_SHARDS` asks for
    /// more than one shard on a contended fabric, on deadlock (naming every
    /// stuck rank), or on exceeding the event cap.
    pub fn run(&mut self) {
        let mut shards = abr_trace::knob::DES_SHARDS.positive_or_default::<usize>();
        let held = self.unshardable();
        // A contended fabric keeps the count, so `run_sharded` fails fast
        // on it rather than silently running one shard: the user asked for
        // two things that cannot be combined.
        if shards > 1 && !held.is_empty() && self.core.network.spec().is_flat() {
            static NOTICE: Once = Once::new();
            NOTICE.call_once(|| {
                eprintln!(
                    "abr_cluster: ABR_DES_SHARDS ignored — {} installed; running one \
                     shard (results are unchanged, only slower)",
                    held.join(" + ")
                )
            });
            shards = 1;
        }
        self.run_sharded(shards);
    }

    /// The installed order-dependent state that no shard can own alone.
    fn unshardable(&self) -> Vec<&'static str> {
        [
            (self.core.faults.is_some(), "fault injection"),
            (self.core.tenant.is_some(), "multi-tenant state"),
            (self.tracer.is_some(), "tracing"),
        ]
        .into_iter()
        .filter_map(|(held, what)| held.then_some(what))
        .collect()
    }

    /// [`DesDriver::run`] on an explicit shard count: ranks are partitioned
    /// into `shards` contiguous regions (clamped to the rank count), all
    /// advanced between synchronization horizons `T + L` (`T` = globally
    /// earliest pending event, `L` = the cost model's minimum delivery
    /// latency) — one shard on the calling thread, more on one worker
    /// thread each. Results are identical for every shard count; see the
    /// module docs for the determinism argument.
    ///
    /// # Panics
    /// Panics if the driver has already run, and — for more than one shard
    /// — on a contended fabric or if fault injection, multi-tenant state or
    /// tracing is installed (their state is global and order-dependent).
    /// Panics on deadlock, naming every stuck rank, and on exceeding the
    /// event cap.
    pub fn run_sharded(&mut self, shards: usize) {
        assert!(!self.started, "a driver runs once; build a fresh one");
        self.started = true;
        let n = self.core.len();
        let shards = shards.clamp(1, n);
        let lookahead = self.core.network.min_delivery_delay(&self.core.hw);
        if shards == 1 {
            // A zero lookahead still needs windows that move forward; with
            // one shard the horizon only sets where the run may stop.
            let lookahead = lookahead.max(SimDuration::from_nanos(1));
            self.core.init_programs();
            coordinate(&mut self.core, n, lookahead);
        } else {
            self.run_on_workers(shards, lookahead);
        }
        self.packets_delivered = self.core.packets_delivered;
        if self.core.done_count < n {
            self.core.panic_deadlock();
        }
    }

    /// The multi-shard half of [`DesDriver::run_sharded`]: split the core,
    /// run each shard on a worker thread under [`coordinate`], and absorb
    /// the shards back in rank order.
    fn run_on_workers(&mut self, shards: usize, lookahead: SimDuration) {
        assert!(
            self.core.network.spec().is_flat(),
            "parallel execution requires the flat (contention-free) fabric, but \
             ABR_FABRIC={} models link contention: per-link busy clocks are global \
             order-dependent state that cannot be sharded; unset ABR_FABRIC (or set \
             ABR_FABRIC=flat) or drop ABR_DES_SHARDS",
            self.core.network.spec().label()
        );
        let held = self.unshardable();
        assert!(
            held.is_empty(),
            "parallel execution does not support {}: its state is global and \
             order-dependent; use one shard",
            held.join(" + ")
        );
        assert!(
            !lookahead.is_zero(),
            "cost model has zero minimum delivery latency; no conservative lookahead exists"
        );
        let n = self.core.len();
        let max_events = self.core.max_events;
        // Contiguous region partition: shard s owns starts[s]..starts[s+1].
        let starts: Vec<usize> = (0..shards).map(|s| s * n / shards).collect();
        let cores = self.core.split(&starts);
        let cores = std::thread::scope(|scope| {
            let mut workers = Workers {
                inboxes: (0..shards).map(|_| Vec::new()).collect(),
                starts,
                max_events,
                txs: Vec::with_capacity(shards),
                rxs: Vec::with_capacity(shards),
                reps: Vec::with_capacity(shards),
            };
            let mut handles = Vec::with_capacity(shards);
            for mut core in cores {
                let (cmd_tx, cmd_rx) = mpsc::channel::<Window>();
                let (rep_tx, rep_rx) = mpsc::channel::<Rep>();
                handles.push(scope.spawn(move || {
                    core.init_programs();
                    rep_tx.send(core.report()).expect("coordinator alive");
                    while let Ok(Window { horizon, inbox }) = cmd_rx.recv() {
                        for m in inbox {
                            let deliver = Ev::Deliver {
                                node: m.dst,
                                pkt: m.pkt,
                            };
                            core.queue.schedule(m.at, m.key, deliver);
                        }
                        core.window(horizon);
                        rep_tx.send(core.report()).expect("coordinator alive");
                    }
                    core
                }));
                workers.txs.push(cmd_tx);
                workers.rxs.push(rep_rx);
            }
            workers.collect();
            coordinate(&mut workers, n, lookahead);
            drop(workers);
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect::<Vec<_>>()
        });
        self.core.absorb_shards(cores);
    }
}

/// The shards a run's window loop drives: one [`Core`] on the calling
/// thread, or [`Workers`] running one core per thread.
trait Shards {
    /// Hand cross-shard packets to their shards and report
    /// `(programs done, earliest pending event)` over every shard.
    fn sync(&mut self) -> (usize, Option<SimTime>);
    /// Process every event strictly before `horizon` on every shard,
    /// panicking past the event cap.
    fn window(&mut self, horizon: SimTime);
}

impl<E: MessageEngine, P: Program> Shards for Core<E, P> {
    fn sync(&mut self) -> (usize, Option<SimTime>) {
        debug_assert!(self.outbox.is_empty(), "a lone shard owns every rank");
        (self.done_count, self.queue.peek_time())
    }

    /// Cross-shard sends accumulate in the outbox.
    fn window(&mut self, horizon: SimTime) {
        while let Some(ev) = self.queue.pop_before(horizon) {
            self.events += 1;
            assert!(
                self.events <= self.max_events,
                "event cap exceeded: livelock?"
            );
            self.dispatch(ev.payload, ev.at);
        }
    }
}

/// The coordinator's side of a multi-shard run: a command and a report
/// channel per worker, each worker's latest report, and the packets bound
/// for each shard's next window.
struct Workers {
    /// First global rank of each shard.
    starts: Vec<usize>,
    max_events: u64,
    txs: Vec<mpsc::Sender<Window>>,
    rxs: Vec<mpsc::Receiver<Rep>>,
    reps: Vec<Rep>,
    inboxes: Vec<Vec<OutMsg>>,
}

impl Workers {
    /// Wait for every worker's next report.
    fn collect(&mut self) {
        self.reps = self
            .rxs
            .iter()
            .map(|rx| rx.recv().expect("worker alive"))
            .collect();
    }
}

impl Shards for Workers {
    fn sync(&mut self) -> (usize, Option<SimTime>) {
        let mut t0 = self.reps.iter().filter_map(|r| r.next).min();
        for rep in &mut self.reps {
            for m in rep.outbox.drain(..) {
                t0 = Some(t0.map_or(m.at, |t| t.min(m.at)));
                let s = self.starts.partition_point(|&b| b <= m.dst) - 1;
                self.inboxes[s].push(m);
            }
        }
        let events: u64 = self.reps.iter().map(|r| r.events).sum();
        assert!(events <= self.max_events, "event cap exceeded: livelock?");
        (self.reps.iter().map(|r| r.done).sum(), t0)
    }

    fn window(&mut self, horizon: SimTime) {
        for (tx, inbox) in self.txs.iter().zip(&mut self.inboxes) {
            let inbox = std::mem::take(inbox);
            tx.send(Window { horizon, inbox }).expect("worker alive");
        }
        self.collect();
    }
}

/// The conservative window loop every run goes through: grant every shard
/// the window `[t0, t0 + lookahead)` from the earliest pending event `t0`,
/// until the first horizon where all `n` programs are done, or until
/// nothing is pending anywhere (a deadlock, which the caller reports).
fn coordinate(shards: &mut impl Shards, n: usize, lookahead: SimDuration) {
    loop {
        let (done, next) = shards.sync();
        if done == n {
            return;
        }
        let Some(t0) = next else { return };
        shards.window(t0 + lookahead);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ScriptProgram;
    use abr_core::{AbConfig, AbEngine};
    use abr_gm::packet::{NodeId, PacketHeader, PacketKind};
    use abr_mpr::engine::Engine;
    use abr_mpr::types::{coll_code, coll_tag};
    use bytes::Bytes;

    /// A signal synthesized on a synchronous return right after a busy loop
    /// must leave the next busy loop whole. Rank 0 busy-loops, makes a
    /// blocking send that completes at post, and busy-loops again. It
    /// starts with signals enabled and a collective packet queued, a state
    /// the lost edge in `return_from_call` can leave a rank in, so the
    /// send's return raises the signal.
    #[test]
    fn a_synthesized_signal_keeps_the_next_busy_loop_whole() {
        let spec = ClusterSpec::homogeneous_1000(2);
        let (d1, d2) = (SimDuration::from_us(100), SimDuration::from_us(500));
        let send = Step::Send {
            dst: 1,
            tag: 7,
            data: Bytes::new(),
        };
        let recv = Step::Recv {
            src: 0,
            tag: 7,
            cap: 0,
        };
        let programs = vec![
            ScriptProgram::new(vec![Step::Busy(d1), send, Step::Busy(d2)]),
            ScriptProgram::new(vec![recv]),
        ];
        let make = |r, ec| AbEngine::new(r, 2, ec, AbConfig::default());
        let mut d = DesDriver::new(&spec, make, programs);
        let header = PacketHeader {
            src: NodeId(1),
            dst: NodeId(0),
            kind: PacketKind::Collective,
            context: d.core.engines[0].world().coll_context,
            tag: coll_tag(coll_code::REDUCE, 0, 0),
            coll_seq: 0,
            coll_root: 1,
            msg_len: 0,
            wire_seq: 0,
            rel_seq: 0,
        };
        d.core.engines[0].deliver(Packet::new(header, Bytes::new()));
        d.core.signals[0].enable();
        d.run();
        assert_eq!(
            d.core.rank[0].synth_signals, 1,
            "the send's return raised no signal"
        );
        // Rank 0 finishes last; a spurious end event for the second loop
        // would finish it in event time before the loop's wall span ran out.
        assert!(
            d.now() >= SimTime::ZERO + d1 + d2,
            "the run ended at {:?}, before rank 0's two busy loops could",
            d.now()
        );
    }

    #[test]
    fn split_leaves_no_second_set_of_arenas() {
        let n = 8;
        let spec = ClusterSpec::homogeneous_1000(n);
        let programs = (0..n)
            .map(|_| ScriptProgram::new(vec![Step::Barrier]))
            .collect();
        let mut d = DesDriver::new(&spec, |r, ec| Engine::new(r, n, ec), programs);
        let original = d.core.engines.as_ptr();
        let shards = d.core.split(&[0, 3, 5]);
        let c = &d.core;
        let caps = [
            c.engines.capacity(),
            c.programs.capacity(),
            c.signals.capacity(),
            c.meters.capacity(),
            c.ctxs.capacity(),
            c.rank.capacity(),
            c.traces.capacity(),
        ];
        assert_eq!(caps, [0; 7], "the split core kept arena buffers");
        let ranges: Vec<_> = shards.iter().map(|s| (s.base, s.len())).collect();
        assert_eq!(ranges, [(0, 3), (3, 2), (5, 3)]);
        d.core.absorb_shards(shards);
        assert_eq!(d.core.len(), n as usize);
        assert_eq!(
            d.core.engines.as_ptr(),
            original,
            "absorbing copied the first shard instead of taking its buffer back"
        );
    }
}
