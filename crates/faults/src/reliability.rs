//! A GM-level reliable-delivery protocol, implemented sans-I/O.
//!
//! One [`NodeReliability`] instance sits between a node's engine and its
//! transport. It never performs I/O and never reads a clock: every entry
//! point takes `now_ns` (virtual nanoseconds in the DES, wall nanoseconds
//! since an epoch in the live driver) and appends [`RelEvent`]s describing
//! what the driver should do. The DES and live drivers therefore share this
//! exact implementation, which is what makes the cross-driver equivalence
//! tests meaningful.
//!
//! The protocol is the classic cumulative-ack scheme:
//!
//! * every data packet on a link carries a per-link sequence number
//!   (`rel_seq`, starting at 1; 0 marks traffic outside the protocol),
//! * the receiver delivers strictly in sequence order, buffering
//!   out-of-order arrivals and acking cumulatively (the ack's `rel_seq`
//!   field carries the highest contiguous sequence received),
//! * the sender retransmits the oldest unacked packet on timeout with
//!   exponential backoff, and escalates to [`RelEvent::LinkDead`] when the
//!   retry budget is exhausted.
//!
//! Because delivery is re-ordered back into sequence order, the layer also
//! *re-stamps* `wire_seq` on delivery from a per-peer monotone counter, so
//! the engines' FIFO-transport assertion keeps holding under faults.

use abr_des::FxHashMap;
use abr_gm::{NodeId, Packet, PacketHeader, PacketKind};
use abr_trace::{TraceEvent, TraceHandle};
use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};

/// Timing and budget knobs for the reliability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelConfig {
    /// Initial retransmission timeout in nanoseconds.
    pub rto_ns: u64,
    /// Multiplier applied to the timeout after every retransmission.
    pub backoff: u32,
    /// Consecutive retransmissions of one packet before the link is
    /// declared dead.
    pub max_retries: u32,
}

impl RelConfig {
    /// Defaults tuned for virtual time in the DES: 500 us initial RTO.
    pub fn sim_default() -> Self {
        RelConfig {
            rto_ns: 500_000,
            backoff: 2,
            max_retries: 10,
        }
    }

    /// Defaults tuned for wall time in the live threaded driver. The RTO is
    /// deliberately generous (200 ms) so scheduler noise cannot produce
    /// spurious retransmissions that would diverge from the DES schedule.
    pub fn live_default() -> Self {
        RelConfig {
            rto_ns: 200_000_000,
            backoff: 2,
            max_retries: 10,
        }
    }
}

/// An instruction from the reliability layer back to its driver.
#[derive(Debug, Clone, PartialEq)]
pub enum RelEvent {
    /// Hand this packet to the local engine (in-sequence, deduplicated,
    /// `wire_seq` re-stamped).
    Deliver(Packet),
    /// Put this packet on the wire (an ack, or a retransmission).
    Transmit(Packet),
    /// The retry budget for `peer` is exhausted; the link is dead.
    LinkDead {
        /// The unreachable peer.
        peer: u32,
    },
}

/// Monotone counters for one node's reliability layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelStats {
    /// Data packets first-transmitted through the layer.
    pub data_sent: u64,
    /// Retransmissions put on the wire (total, counting repeats).
    pub retransmissions: u64,
    /// Distinct packets retransmitted at least once. This is the
    /// cross-driver comparable count: wall-clock jitter can repeat a
    /// retransmission but never changes which packets needed one.
    pub distinct_retransmitted: u64,
    /// Incoming duplicates suppressed before the engine saw them.
    pub duplicates_suppressed: u64,
    /// Out-of-order arrivals parked in the resequencing buffer.
    pub out_of_order_buffered: u64,
    /// Acks transmitted.
    pub acks_sent: u64,
    /// Acks received.
    pub acks_received: u64,
    /// Links declared dead.
    pub links_dead: u64,
}

impl RelStats {
    /// Elementwise sum, for aggregating across a cluster.
    pub fn merge(&mut self, other: &RelStats) {
        self.data_sent += other.data_sent;
        self.retransmissions += other.retransmissions;
        self.distinct_retransmitted += other.distinct_retransmitted;
        self.duplicates_suppressed += other.duplicates_suppressed;
        self.out_of_order_buffered += other.out_of_order_buffered;
        self.acks_sent += other.acks_sent;
        self.acks_received += other.acks_received;
        self.links_dead += other.links_dead;
    }
}

#[derive(Debug)]
struct TxPeer {
    next_seq: u64,
    unacked: VecDeque<(u64, Packet)>,
    /// Absolute deadline for the oldest unacked packet; `u64::MAX` when idle.
    deadline_ns: u64,
    cur_rto_ns: u64,
    retries: u32,
    head_retransmitted: bool,
    dead: bool,
}

impl TxPeer {
    fn new() -> Self {
        TxPeer {
            next_seq: 1,
            unacked: VecDeque::new(),
            deadline_ns: u64::MAX,
            cur_rto_ns: 0,
            retries: 0,
            head_retransmitted: false,
            dead: false,
        }
    }
}

#[derive(Debug)]
struct RxPeer {
    /// Highest contiguous sequence delivered to the engine.
    cum: u64,
    /// Out-of-order arrivals keyed by sequence.
    buffer: BTreeMap<u64, Packet>,
    /// Re-stamped `wire_seq` counter for in-order delivery.
    deliver_seq: u64,
}

impl RxPeer {
    fn new() -> Self {
        RxPeer {
            cum: 0,
            buffer: BTreeMap::new(),
            deliver_seq: 0,
        }
    }
}

impl TxPeer {
    /// The deadline this peer contributes to the node's earliest one:
    /// `u64::MAX` for a dead or idle peer.
    fn armed_deadline(&self) -> u64 {
        if self.dead || self.unacked.is_empty() {
            u64::MAX
        } else {
            self.deadline_ns
        }
    }
}

/// Per-node reliable-delivery state: one TX window per destination peer and
/// one resequencing window per source peer.
#[derive(Debug)]
pub struct NodeReliability {
    rank: u32,
    cfg: RelConfig,
    tx: FxHashMap<u32, TxPeer>,
    rx: FxHashMap<u32, RxPeer>,
    /// The earliest armed deadline over `tx` (`u64::MAX` when none), kept
    /// current wherever a timer moves so [`Self::next_deadline`] walks no
    /// peer.
    earliest_ns: u64,
    stats: RelStats,
    trace: TraceHandle,
}

impl NodeReliability {
    /// Fresh state for node `rank`.
    pub fn new(rank: u32, cfg: RelConfig) -> Self {
        NodeReliability {
            rank,
            cfg,
            tx: FxHashMap::default(),
            rx: FxHashMap::default(),
            earliest_ns: u64::MAX,
            stats: RelStats::default(),
            trace: TraceHandle::default(),
        }
    }

    /// Install a tracer; every timer-driven retransmission emits
    /// [`TraceEvent::Retransmit`] stamped with this node's rank.
    pub fn set_tracer(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Counters so far.
    pub fn stats(&self) -> RelStats {
        self.stats
    }

    /// Register an outgoing data packet: stamps its `rel_seq`, buffers a
    /// copy for retransmission, arms the timer. Returns the stamped packet
    /// for the driver to transmit.
    pub fn on_send(&mut self, mut pkt: Packet, now_ns: u64) -> Packet {
        debug_assert_eq!(pkt.header.src.0, self.rank, "sending from the wrong node");
        debug_assert!(pkt.header.kind != PacketKind::Ack, "acks are not reliable");
        let peer = self.tx.entry(pkt.header.dst.0).or_insert_with(TxPeer::new);
        let seq = peer.next_seq;
        peer.next_seq += 1;
        pkt.header.rel_seq = seq;
        if peer.unacked.is_empty() {
            peer.cur_rto_ns = self.cfg.rto_ns;
            peer.deadline_ns = now_ns + self.cfg.rto_ns;
            peer.retries = 0;
            peer.head_retransmitted = false;
            if !peer.dead {
                self.earliest_ns = self.earliest_ns.min(peer.deadline_ns);
            }
        }
        peer.unacked.push_back((seq, pkt.clone()));
        self.stats.data_sent += 1;
        pkt
    }

    /// Process an arriving packet (data or ack). In-sequence data comes back
    /// as [`RelEvent::Deliver`] (plus anything it unblocks from the
    /// resequencing buffer); every data arrival also produces a cumulative
    /// ack to transmit.
    pub fn on_receive(&mut self, pkt: Packet, now_ns: u64, out: &mut Vec<RelEvent>) {
        debug_assert_eq!(pkt.header.dst.0, self.rank, "delivered to the wrong node");
        if pkt.header.kind == PacketKind::Ack {
            self.on_ack(pkt.header.src.0, pkt.header.rel_seq, now_ns);
            return;
        }
        debug_assert!(pkt.header.rel_seq != 0, "reliable data without a rel_seq");
        let src = pkt.header.src.0;
        let rx = self.rx.entry(src).or_insert_with(RxPeer::new);
        let s = pkt.header.rel_seq;
        if s <= rx.cum {
            self.stats.duplicates_suppressed += 1;
        } else if s == rx.cum + 1 {
            // Deliver it, then whatever it unblocks from the buffer.
            let mut next = Some(pkt);
            while let Some(mut p) = next {
                rx.cum = p.header.rel_seq;
                p.header.wire_seq = rx.deliver_seq;
                rx.deliver_seq += 1;
                out.push(RelEvent::Deliver(p));
                next = rx.buffer.remove(&(rx.cum + 1));
            }
        } else {
            // A gap: park the packet and (re-)ack the contiguous prefix so
            // the sender's timer state stays honest.
            if rx.buffer.insert(s, pkt).is_some() {
                self.stats.duplicates_suppressed += 1;
            } else {
                self.stats.out_of_order_buffered += 1;
            }
        }
        let cum = rx.cum;
        out.push(RelEvent::Transmit(self.ack_packet(src, cum)));
        self.stats.acks_sent += 1;
    }

    fn on_ack(&mut self, peer_id: u32, cum: u64, now_ns: u64) {
        self.stats.acks_received += 1;
        let Some(peer) = self.tx.get_mut(&peer_id) else {
            return;
        };
        let was = peer.armed_deadline();
        let mut advanced = false;
        while peer.unacked.front().is_some_and(|&(seq, _)| seq <= cum) {
            peer.unacked.pop_front();
            advanced = true;
        }
        if advanced {
            peer.retries = 0;
            peer.head_retransmitted = false;
            peer.cur_rto_ns = self.cfg.rto_ns;
            peer.deadline_ns = if peer.unacked.is_empty() {
                u64::MAX
            } else {
                now_ns + self.cfg.rto_ns
            };
            let now_armed = peer.armed_deadline();
            if was == self.earliest_ns && now_armed > was {
                // This peer held the earliest deadline and it moved later.
                self.recompute_earliest();
            } else {
                self.earliest_ns = self.earliest_ns.min(now_armed);
            }
        }
    }

    fn recompute_earliest(&mut self) {
        self.earliest_ns = self
            .tx
            .values()
            .map(TxPeer::armed_deadline)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Fire retransmission timers: every peer whose oldest unacked packet
    /// has passed its deadline gets one retransmission (with backoff), or a
    /// [`RelEvent::LinkDead`] once the retry budget is spent.
    pub fn on_tick(&mut self, now_ns: u64, out: &mut Vec<RelEvent>) {
        // Sorted iteration: hash order depends on the hasher and the
        // table's history, and retransmissions must hit the wire in an
        // order that depends only on the peers.
        let mut due: Vec<u32> = self
            .tx
            .iter()
            .filter(|(_, p)| now_ns >= p.armed_deadline())
            .map(|(&id, _)| id)
            .collect();
        due.sort_unstable();
        for peer_id in due {
            let peer = self.tx.get_mut(&peer_id).expect("key came from the map");
            if peer.retries >= self.cfg.max_retries {
                peer.dead = true;
                peer.deadline_ns = u64::MAX;
                self.stats.links_dead += 1;
                out.push(RelEvent::LinkDead { peer: peer_id });
                continue;
            }
            let (seq, pkt) = peer.unacked.front().expect("checked non-empty");
            self.trace.emit(TraceEvent::Retransmit {
                peer: peer_id,
                seq: *seq,
            });
            out.push(RelEvent::Transmit(pkt.clone()));
            self.stats.retransmissions += 1;
            if !peer.head_retransmitted {
                peer.head_retransmitted = true;
                self.stats.distinct_retransmitted += 1;
            }
            peer.retries += 1;
            peer.cur_rto_ns = peer.cur_rto_ns.saturating_mul(u64::from(self.cfg.backoff));
            peer.deadline_ns = now_ns + peer.cur_rto_ns;
        }
        self.recompute_earliest();
    }

    /// The earliest retransmission deadline across peers, if any timer is
    /// armed. Drivers schedule their next tick here; it is kept current as
    /// timers move, so the call walks no peer.
    pub fn next_deadline(&self) -> Option<u64> {
        (self.earliest_ns != u64::MAX).then_some(self.earliest_ns)
    }

    fn ack_packet(&self, peer: u32, cum: u64) -> Packet {
        Packet::new(
            PacketHeader {
                src: NodeId(self.rank),
                dst: NodeId(peer),
                kind: PacketKind::Ack,
                context: 0,
                tag: 0,
                coll_seq: 0,
                coll_root: 0,
                msg_len: 0,
                wire_seq: 0,
                rel_seq: cum,
            },
            Bytes::new(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(src: u32, dst: u32, tag: i32) -> Packet {
        Packet::new(
            PacketHeader {
                src: NodeId(src),
                dst: NodeId(dst),
                kind: PacketKind::Eager,
                context: 1,
                tag,
                coll_seq: 0,
                coll_root: 0,
                msg_len: 0,
                wire_seq: 0,
                rel_seq: 0,
            },
            Bytes::new(),
        )
    }

    fn delivered_tags(out: &[RelEvent]) -> Vec<i32> {
        out.iter()
            .filter_map(|e| match e {
                RelEvent::Deliver(p) => Some(p.header.tag),
                _ => None,
            })
            .collect()
    }

    fn cfg() -> RelConfig {
        RelConfig {
            rto_ns: 1_000,
            backoff: 2,
            max_retries: 3,
        }
    }

    #[test]
    fn in_order_traffic_flows_and_acks() {
        let mut tx = NodeReliability::new(0, cfg());
        let mut rx = NodeReliability::new(1, cfg());
        let mut out = Vec::new();
        for tag in 0..5 {
            let p = tx.on_send(data(0, 1, tag), 0);
            assert_eq!(p.header.rel_seq, tag as u64 + 1);
            rx.on_receive(p, 10, &mut out);
        }
        assert_eq!(delivered_tags(&out), vec![0, 1, 2, 3, 4]);
        // Feed the acks back; the sender's window drains and timers disarm.
        for e in out {
            if let RelEvent::Transmit(ack) = e {
                tx.on_receive(ack, 20, &mut Vec::new());
            }
        }
        assert_eq!(tx.next_deadline(), None);
        assert_eq!(rx.stats().duplicates_suppressed, 0);
    }

    #[test]
    fn delivery_restamps_wire_seq_monotonically() {
        let mut tx = NodeReliability::new(0, cfg());
        let mut rx = NodeReliability::new(1, cfg());
        let a = tx.on_send(data(0, 1, 0), 0);
        let b = tx.on_send(data(0, 1, 1), 0);
        let mut out = Vec::new();
        rx.on_receive(b, 10, &mut out); // arrives first (reordered)
        assert!(delivered_tags(&out).is_empty(), "gap must not deliver");
        rx.on_receive(a, 11, &mut out);
        let seqs: Vec<u64> = out
            .iter()
            .filter_map(|e| match e {
                RelEvent::Deliver(p) => Some(p.header.wire_seq),
                _ => None,
            })
            .collect();
        assert_eq!(delivered_tags(&out), vec![0, 1]);
        assert_eq!(seqs, vec![0, 1], "wire_seq re-stamped in delivery order");
        assert_eq!(rx.stats().out_of_order_buffered, 1);
    }

    #[test]
    fn duplicates_are_suppressed_and_reacked() {
        let mut tx = NodeReliability::new(0, cfg());
        let mut rx = NodeReliability::new(1, cfg());
        let p = tx.on_send(data(0, 1, 7), 0);
        let mut out = Vec::new();
        rx.on_receive(p.clone(), 10, &mut out);
        rx.on_receive(p, 11, &mut out);
        assert_eq!(delivered_tags(&out), vec![7], "delivered exactly once");
        assert_eq!(rx.stats().duplicates_suppressed, 1);
        // The duplicate still produced a (cumulative) ack.
        assert_eq!(rx.stats().acks_sent, 2);
    }

    #[test]
    fn timeout_retransmits_with_backoff_then_declares_link_dead() {
        let mut tx = NodeReliability::new(0, cfg());
        let _ = tx.on_send(data(0, 1, 0), 0);
        let mut now = 0;
        let mut retransmits = 0;
        let mut dead = false;
        for _ in 0..10 {
            now = tx.next_deadline().unwrap_or(now + 1);
            let mut out = Vec::new();
            tx.on_tick(now, &mut out);
            for e in out {
                match e {
                    RelEvent::Transmit(p) => {
                        assert_eq!(p.header.rel_seq, 1);
                        retransmits += 1;
                    }
                    RelEvent::LinkDead { peer } => {
                        assert_eq!(peer, 1);
                        dead = true;
                    }
                    RelEvent::Deliver(_) => panic!("tick cannot deliver"),
                }
            }
            if dead {
                break;
            }
        }
        assert_eq!(retransmits, 3, "retry budget bounds retransmissions");
        assert!(dead, "budget exhaustion escalates to LinkDead");
        assert_eq!(tx.next_deadline(), None, "dead links disarm their timer");
        assert_eq!(tx.stats().distinct_retransmitted, 1);
        assert_eq!(tx.stats().retransmissions, 3);
    }

    #[test]
    fn backoff_doubles_the_deadline_gap() {
        let mut tx = NodeReliability::new(0, cfg());
        let _ = tx.on_send(data(0, 1, 0), 0);
        let d1 = tx.next_deadline().unwrap();
        assert_eq!(d1, 1_000);
        tx.on_tick(d1, &mut Vec::new());
        let d2 = tx.next_deadline().unwrap();
        assert_eq!(d2 - d1, 2_000, "second RTO doubled");
        tx.on_tick(d2, &mut Vec::new());
        let d3 = tx.next_deadline().unwrap();
        assert_eq!(d3 - d2, 4_000, "third RTO doubled again");
    }

    #[test]
    fn ack_resets_the_retry_budget_for_the_next_packet() {
        let mut tx = NodeReliability::new(0, cfg());
        let _ = tx.on_send(data(0, 1, 0), 0);
        let _ = tx.on_send(data(0, 1, 1), 0);
        // First packet needs two retransmissions before its ack arrives.
        let mut out = Vec::new();
        tx.on_tick(1_000, &mut out);
        tx.on_tick(3_000, &mut out);
        assert_eq!(tx.stats().retransmissions, 2);
        let mut rx = NodeReliability::new(1, cfg());
        let mut acks = Vec::new();
        rx.on_receive(
            out.iter()
                .find_map(|e| match e {
                    RelEvent::Transmit(p) => Some(p.clone()),
                    _ => None,
                })
                .unwrap(),
            3_500,
            &mut acks,
        );
        let ack = acks
            .iter()
            .find_map(|e| match e {
                RelEvent::Transmit(p) => Some(p.clone()),
                _ => None,
            })
            .unwrap();
        tx.on_receive(ack, 4_000, &mut Vec::new());
        // The second packet now heads the window with a fresh RTO and budget.
        assert_eq!(tx.next_deadline(), Some(4_000 + 1_000));
        let mut out2 = Vec::new();
        tx.on_tick(5_000, &mut out2);
        assert_eq!(tx.stats().distinct_retransmitted, 2);
    }

    /// The earliest deadline by brute force: the minimum over peers that
    /// are not dead and still have unacked packets.
    fn brute_force_deadline(node: &NodeReliability) -> Option<u64> {
        node.tx
            .values()
            .filter(|p| !p.dead && !p.unacked.is_empty())
            .map(|p| p.deadline_ns)
            .min()
    }

    proptest::proptest! {
        /// Three nodes exchange data over a lossy pool of in-flight packets
        /// (drops, duplicates, reordering, acks) while timers fire, and
        /// small retry budgets let links die and then see acks and sends.
        /// After every call, each node's kept deadline equals the
        /// brute-force minimum over its peers.
        #[test]
        fn next_deadline_matches_a_scan_of_every_peer(
            max_retries in 0u32..4,
            ops in proptest::prop::collection::vec((0u32..6, 0u32..64, 0u64..1_500), 1..200),
        ) {
            const NODES: u32 = 3;
            let cfg = RelConfig { max_retries, ..cfg() };
            let mut nodes: Vec<NodeReliability> =
                (0..NODES).map(|r| NodeReliability::new(r, cfg)).collect();
            let mut pool: Vec<Packet> = Vec::new();
            let mut now = 0u64;
            for (op, a, b) in ops {
                let mut out = Vec::new();
                match op {
                    // Send from `a % NODES` to another node.
                    0 | 1 => {
                        let src = a % NODES;
                        let dst = (src + 1 + a / NODES % (NODES - 1)) % NODES;
                        pool.push(nodes[src as usize].on_send(data(src, dst, 0), now));
                    }
                    // Deliver one in-flight packet (any order).
                    2 if !pool.is_empty() => {
                        let p = pool.swap_remove(a as usize % pool.len());
                        let dst = p.header.dst.0 as usize;
                        nodes[dst].on_receive(p, now, &mut out);
                    }
                    // Duplicate one in-flight packet.
                    3 if !pool.is_empty() => {
                        let p = pool[a as usize % pool.len()].clone();
                        pool.push(p);
                    }
                    // Drop one in-flight packet.
                    4 if !pool.is_empty() => {
                        pool.swap_remove(a as usize % pool.len());
                    }
                    // Let time pass and fire a node's timers.
                    _ => {
                        now += b;
                        nodes[(a % NODES) as usize].on_tick(now, &mut out);
                    }
                }
                for e in out {
                    if let RelEvent::Transmit(p) = e {
                        pool.push(p);
                    }
                }
                for node in &nodes {
                    proptest::prop_assert_eq!(node.next_deadline(), brute_force_deadline(node));
                }
            }
        }
    }

    #[test]
    fn stats_merge_sums_elementwise() {
        let mut a = RelStats {
            data_sent: 1,
            acks_sent: 2,
            ..Default::default()
        };
        let b = RelStats {
            data_sent: 3,
            duplicates_suppressed: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.data_sent, 4);
        assert_eq!(a.acks_sent, 2);
        assert_eq!(a.duplicates_suppressed, 4);
    }
}
